//! Result verification: every query result is reduced to a row count and a
//! checksum, compared with the first time the same key was seen in this run
//! and, for seeds 1 and 2, with the committed golden file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ci_core::storage::{RecordBatch, Value};
use ci_core::types::Dollars;

/// What a result is reduced to. `cost_bits` is the billed `Dollars` bit
/// pattern where the determinism contract makes it comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub checksum: u64,
    pub cost_bits: Option<u64>,
}

impl Fingerprint {
    pub fn of(batch: &RecordBatch, cost: Option<Dollars>) -> Fingerprint {
        let (rows, checksum) = checksum(batch);
        Fingerprint {
            rows,
            checksum,
            cost_bits: cost.map(|c| c.amount().to_bits()),
        }
    }

    /// Folds another result in (order-insensitive), for workloads that check
    /// a whole replay or iteration under one key.
    pub fn absorb(&mut self, other: Fingerprint) {
        self.rows += other.rows;
        self.checksum = self.checksum.wrapping_add(other.checksum);
        self.cost_bits = match (self.cost_bits, other.cost_bits) {
            (Some(a), Some(b)) => Some(a.wrapping_add(b)),
            _ => None,
        };
    }

    /// Equal rows and checksum, and equal dollars where both sides carry them.
    pub fn agrees_with(&self, other: &Fingerprint) -> bool {
        self.rows == other.rows
            && self.checksum == other.checksum
            && match (self.cost_bits, other.cost_bits) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Row count and checksum of a result: ints, strings and bools exact, floats
/// at 9 significant digits. Row hashes are summed, so the checksum does not
/// depend on row order (a recluster may reorder an unordered result).
pub fn checksum(batch: &RecordBatch) -> (u64, u64) {
    let dense = batch.compacted();
    let mut hashes = vec![0xCBF2_9CE4_8422_2325u64; dense.rows()];
    let mut digits = String::new();
    // Column by column through the borrowing accessors: this runs between
    // timed ops, thousands of rows per iteration on `point_lookup`.
    for col in dense.columns() {
        for (i, h) in hashes.iter_mut().enumerate() {
            if let Some(x) = col.int_at(i) {
                fnv1a(h, &x.to_le_bytes());
            } else if let Some(s) = col.str_at(i) {
                fnv1a(h, s.as_bytes());
            } else {
                match col.value(i) {
                    Value::Float(x) => {
                        digits.clear();
                        let _ = write!(digits, "{x:.8e}");
                        fnv1a(h, digits.as_bytes());
                    }
                    Value::Bool(b) => fnv1a(h, &[u8::from(b)]),
                    Value::Int(_) | Value::Str(_) => unreachable!("handled above"),
                }
            }
            fnv1a(h, &[0xFF]);
        }
    }
    let sum = hashes.iter().fold(0u64, |a, h| a.wrapping_add(*h));
    (dense.rows() as u64, sum)
}

/// Fingerprints by key: this run's and, when the seed has one, the golden
/// file's.
#[derive(Default)]
pub struct Digest {
    seen: BTreeMap<String, Fingerprint>,
    golden: BTreeMap<String, Fingerprint>,
}

impl Digest {
    /// A digest checking against the golden file of `seed`, if committed.
    pub fn for_seed(seed: u64) -> Digest {
        let golden = match seed {
            1 => parse_golden(include_str!("../golden/seed1.txt")),
            2 => parse_golden(include_str!("../golden/seed2.txt")),
            _ => BTreeMap::new(),
        };
        Digest {
            seen: BTreeMap::new(),
            golden,
        }
    }

    /// `true` when `fp` agrees with every earlier result under `key` and
    /// with the golden entry, if there is one.
    pub fn check(&mut self, key: &str, fp: Fingerprint) -> bool {
        let golden_ok = self.golden.get(key).is_none_or(|g| g.agrees_with(&fp));
        let first = *self.seen.entry(key.to_owned()).or_insert(fp);
        golden_ok && first.agrees_with(&fp) && first.cost_bits.is_some() == fp.cost_bits.is_some()
    }

    /// Golden-file lines for everything seen: `key rows checksum cost|-`.
    pub fn to_golden(&self) -> String {
        self.seen
            .iter()
            .map(|(k, f)| {
                let cost = f.cost_bits.map_or("-".to_owned(), |c| format!("{c:016x}"));
                format!("{k} {} {:016x} {cost}\n", f.rows, f.checksum)
            })
            .collect()
    }
}

fn parse_golden(text: &str) -> BTreeMap<String, Fingerprint> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "golden line: {l}");
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("golden hex field");
            let fp = Fingerprint {
                rows: f[1].parse().expect("golden row count"),
                checksum: hex(f[2]),
                cost_bits: (f[3] != "-").then(|| hex(f[3])),
            };
            (f[0].to_owned(), fp)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_core::storage::schema::{Field, Schema};
    use ci_core::storage::{ColumnData, DataType};
    use std::sync::Arc;

    fn batch(ids: Vec<i64>, vals: Vec<f64>) -> RecordBatch {
        let schema = Arc::new(Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        RecordBatch::new(
            schema,
            vec![ColumnData::Int64(ids), ColumnData::Float64(vals)],
        )
        .unwrap()
    }

    #[test]
    fn checksum_ignores_row_order_and_float_noise_beyond_nine_digits() {
        let a = checksum(&batch(vec![1, 2], vec![0.1 + 0.2, 5.0]));
        let b = checksum(&batch(vec![2, 1], vec![5.0, 0.3]));
        assert_eq!(a, b);
        let c = checksum(&batch(vec![1, 2], vec![0.300001, 5.0]));
        assert_ne!(a.1, c.1);
        let d = checksum(&batch(vec![1, 3], vec![0.3, 5.0]));
        assert_ne!(a.1, d.1);
        assert_eq!(a.0, 2);
    }

    #[test]
    fn digest_flags_a_changed_repeat_and_a_golden_mismatch() {
        let fp = |rows, checksum, cost| Fingerprint {
            rows,
            checksum,
            cost_bits: cost,
        };
        let mut d = Digest::default();
        assert!(d.check("q01.0", fp(3, 7, Some(9))));
        assert!(d.check("q01.0", fp(3, 7, Some(9))));
        assert!(!d.check("q01.0", fp(3, 8, Some(9))));
        assert!(!d.check("q01.0", fp(3, 7, Some(10))));
        d.golden = parse_golden("q02.0 5 00000000000000ff -\n");
        assert!(
            d.check("q02.0", fp(5, 255, Some(1))),
            "golden without dollars skips them"
        );
        let mut e = Digest {
            golden: d.golden.clone(),
            ..Digest::default()
        };
        assert!(!e.check("q02.0", fp(6, 255, None)));
        assert_eq!(d.to_golden().lines().count(), 2);
        assert_eq!(parse_golden(&d.to_golden())["q01.0"], fp(3, 7, Some(9)));
    }
}

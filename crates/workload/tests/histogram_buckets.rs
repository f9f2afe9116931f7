//! Oracle: a histogram puts every row in the bucket the division rule gives.
//!
//! The rule: over the domain `[lo, hi]` split into `buckets` equal widths,
//! row `v` goes to bucket `⌊(v − lo) / width⌋` (the domain halved first when
//! `hi − lo` overflows), saturating at 0 and at the last bucket, so `hi`
//! lands in the last one. Every row of every CAB float column must land
//! where that rule puts it, in the catalog's registered statistics and in
//! `Histogram::from_counts`, and so must the values where a rounding slip
//! would show first: `lo`, `hi`, and each bucket edge (the least value the
//! rule puts in a bucket) with its predecessor.

use ci_catalog::Histogram;
use ci_storage::value::DataType;
use ci_workload::gen::CabGenerator;

const BUCKETS: usize = 64;

/// The division rule, written out as the statistics always computed it.
fn rule(v: f64, lo: f64, hi: f64) -> usize {
    let k = if (hi - lo).is_finite() { 1.0 } else { 0.5 };
    let width = (hi * k - lo * k) / BUCKETS as f64;
    (((v * k - lo * k) / width) as usize).min(BUCKETS - 1)
}

/// The neighbouring float of a positive finite `x`, one ulp up or down.
fn step(x: f64, up: bool) -> f64 {
    assert!(x > 0.0 && x.is_finite(), "{x}");
    f64::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 })
}

/// The least value the rule puts in bucket `j` or later: walk in ulps from
/// where `j`'s edge lies up to rounding.
fn edge(j: usize, lo: f64, hi: f64) -> f64 {
    let mut x = lo + j as f64 * ((hi - lo) / BUCKETS as f64);
    while rule(x, lo, hi) < j {
        x = step(x, true);
    }
    while rule(step(x, false), lo, hi) >= j {
        x = step(x, false);
    }
    x
}

/// The bucket `from_counts` puts `v` in alone.
fn bucket_of(v: f64, lo: f64, hi: f64) -> usize {
    let h = Histogram::from_counts(lo, hi, BUCKETS, std::iter::once((v, 1))).unwrap();
    let hit: Vec<usize> = (0..BUCKETS).filter(|&b| h.counts()[b] == 1).collect();
    assert_eq!(hit.len(), 1, "{v} in [{lo}, {hi}]: {:?}", h.counts());
    hit[0]
}

#[test]
fn cab_float_rows_and_bucket_edges_land_where_the_division_rule_puts_them() {
    let cat = CabGenerator::at_scale(0.2).build_catalog().unwrap();
    let mut checked = Vec::new();
    for (name, entry) in cat.tables() {
        let schema = &entry.table.schema;
        for col in (0..schema.arity()).filter(|&c| schema.field(c).data_type == DataType::Float64) {
            let mut vals = Vec::new();
            for p in &entry.table.partitions {
                vals.extend_from_slice(p.batch.column(col).as_f64().unwrap());
            }
            let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(lo > 0.0 && lo < hi, "{name}.{col}: [{lo}, {hi}]");
            let mut want = vec![0u64; BUCKETS];
            for &v in &vals {
                want[rule(v, lo, hi)] += 1;
            }
            let stats = entry.stats.columns[col].histogram.as_ref().unwrap();
            assert_eq!(stats.counts(), &want[..], "{name}.{col}: registered");
            let counted = Histogram::from_counts(lo, hi, BUCKETS, vals.iter().map(|&v| (v, 1)));
            assert_eq!(counted.unwrap().counts(), &want[..], "{name}.{col}");

            let mut probes = vec![lo, step(lo, true), step(hi, false), hi];
            for j in 1..BUCKETS {
                let e = edge(j, lo, hi);
                assert_eq!(rule(e, lo, hi), j, "{name}.{col}: edge {j}");
                probes.extend([step(e, false), e, step(e, true)]);
            }
            for v in probes {
                assert_eq!(bucket_of(v, lo, hi), rule(v, lo, hi), "{name}.{col}: {v}");
            }
            checked.push(format!("{name}.{}", schema.field(col).name));
        }
    }
    checked.sort();
    assert_eq!(
        checked,
        [
            "lineitem.l_discount",
            "lineitem.l_price",
            "orders.o_total",
            "part.p_price"
        ],
        "every CAB float column"
    );
}

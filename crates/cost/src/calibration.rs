//! Hardware calibration from measured operator rates (§3.1).
//!
//! The estimator and the biller price with the same [`WorkModels`], so the
//! only calibration that can move an estimate is a better rate: the
//! per-core throughputs the parallel runtime actually measured.

use std::collections::BTreeMap;

use ci_cloud::work::WorkModels;
use ci_types::{CiError, Result};

/// Measured per-operator-class hardware rates, aggregated from the parallel
/// runtime's `OpSample` stream (crate `ci-exec`).
///
/// The parallel engine times every operator-kernel invocation on a single
/// worker thread and emits `(op, units, wall_ns)` samples. This collector
/// turns them into *units per second per core* — dimensionally the same
/// quantity as the `HardwareProfile` `*_per_sec_per_core` rates, because
/// each sample is one thread's throughput — and [`MeasuredRates::seed`]
/// rewrites a [`WorkModels`] with them, closing the calibrate-from-reality
/// loop the paper's §3.1 hardware calibration describes.
///
/// Aggregation is the **lower median** of per-sample rates under a total
/// order on `f64` — deterministic for a given multiset of samples no matter
/// what order the workers produced them in, and robust to the long upper
/// tail that first-touch/cold-cache morsels put on wall-clock.
///
/// Op-class names are shared with the exec crate by convention (the two
/// crates are DAG siblings): `"filter"`, `"probe"`, `"build"`, `"agg"`,
/// `"exchange"`, `"sort"` (whose units are `n·log2(n)` row-comparisons,
/// matching `sort_rows_log_per_sec_per_core`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasuredRates {
    /// Per-sample units/sec by operator class. `BTreeMap` keeps iteration
    /// (and hence any derived report) in a stable key order.
    rates: BTreeMap<String, Vec<f64>>,
}

impl MeasuredRates {
    /// An empty collector.
    pub fn new() -> MeasuredRates {
        MeasuredRates::default()
    }

    /// Folds one measured kernel invocation in. Samples that cannot yield a
    /// meaningful rate (zero/negative units, zero wall-clock, non-finite
    /// values) are dropped — a kernel too fast for the clock tick carries no
    /// rate information — and so are samples whose op name is empty or
    /// holds whitespace, which [`MeasuredRates::to_text`] could not write.
    pub fn record(&mut self, op: &str, units: f64, wall_ns: u64) {
        if op.is_empty() || op.contains(char::is_whitespace) {
            return;
        }
        if wall_ns == 0 || units <= 0.0 || !units.is_finite() {
            return;
        }
        let per_sec = units / (wall_ns as f64 * 1e-9);
        if per_sec.is_finite() && per_sec > 0.0 {
            self.rates.entry(op.to_string()).or_default().push(per_sec);
        }
    }

    /// The aggregated rate (units/sec/core) for one operator class: the
    /// lower median of its per-sample rates. `None` until at least one
    /// usable sample was recorded.
    pub fn rate(&self, op: &str) -> Option<f64> {
        let v = self.rates.get(op)?;
        if v.is_empty() {
            return None;
        }
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[(sorted.len() - 1) / 2])
    }

    /// Operator classes with at least one sample, in stable order.
    pub fn ops(&self) -> impl Iterator<Item = &str> {
        self.rates.keys().map(String::as_str)
    }

    /// Serializes the collector as text, one `op r1 r2 …` line per
    /// operator class holding its raw per-sample rates
    /// (`filter 1000000000.0 500000000.0`). Lines come in `BTreeMap` order,
    /// so equal collectors serialize identically — a calibration run can be
    /// persisted and diffed. Rates are written with Rust's shortest
    /// round-trip float formatting, so [`MeasuredRates::from_text`]
    /// restores the collector bit-for-bit.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (op, rates) in &self.rates {
            out.push_str(op);
            for r in rates {
                out.push_str(&format!(" {r:?}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the [`MeasuredRates::to_text`] format back into a collector.
    /// Blank lines are skipped. Strict otherwise: an unparsable rate, a
    /// non-finite or non-positive rate, a class without rates and a
    /// duplicate class are errors naming the line — a corrupted
    /// calibration file must not silently seed the estimator with garbage.
    pub fn from_text(s: &str) -> Result<MeasuredRates> {
        let mut rates = BTreeMap::new();
        for (i, line) in s.lines().enumerate() {
            let bad =
                |what: String| CiError::Config(format!("measured rates, line {}: {what}", i + 1));
            let mut tokens = line.split_whitespace();
            let Some(op) = tokens.next() else {
                continue;
            };
            let vals = tokens
                .map(|t| match t.parse::<f64>() {
                    Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
                    Ok(_) => Err(bad(format!("rate {t} must be finite and positive"))),
                    Err(_) => Err(bad(format!("unparsable rate '{t}'"))),
                })
                .collect::<Result<Vec<f64>>>()?;
            if vals.is_empty() {
                return Err(bad(format!("operator class '{op}' has no rates")));
            }
            if rates.insert(op.to_string(), vals).is_some() {
                return Err(bad(format!("duplicate operator class '{op}'")));
            }
        }
        Ok(MeasuredRates { rates })
    }

    /// Writes the collector to `path` in the [`MeasuredRates::to_text`]
    /// format (atomic enough for a single writer: plain `fs::write`).
    pub fn save_path(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, self.to_text())
            .map_err(|e| CiError::Config(format!("cannot write rates to {}: {e}", path.display())))
    }

    /// Loads a collector from `path`. A missing file is `Ok(None)` — the
    /// load-if-exists half of the persistence contract; any other I/O or
    /// parse failure is an error (a corrupted calibration file must be
    /// noticed, not silently ignored).
    pub fn load_path(path: &std::path::Path) -> Result<Option<MeasuredRates>> {
        match std::fs::read_to_string(path) {
            Ok(s) => MeasuredRates::from_text(&s).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CiError::Config(format!(
                "cannot read rates from {}: {e}",
                path.display()
            ))),
        }
    }

    /// A copy of `base` with every measured per-core compute rate replaced
    /// by its aggregate. Classes without samples keep the base calibration —
    /// seeding is incremental, one workload need not exercise every kernel.
    pub fn seed(&self, base: &WorkModels) -> WorkModels {
        let mut m = base.clone();
        let slots: [(&str, &mut f64); 6] = [
            ("filter", &mut m.hw.filter_rows_per_sec_per_core),
            ("probe", &mut m.hw.hash_probe_rows_per_sec_per_core),
            ("build", &mut m.hw.hash_build_rows_per_sec_per_core),
            ("agg", &mut m.hw.agg_rows_per_sec_per_core),
            ("exchange", &mut m.hw.exchange_part_rows_per_sec_per_core),
            ("sort", &mut m.hw.sort_rows_log_per_sec_per_core),
        ];
        for (op, slot) in slots {
            if let Some(r) = self.rate(op) {
                *slot = r;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of usable samples recorded for one operator class.
    fn samples(r: &MeasuredRates, op: &str) -> usize {
        r.rates.get(op).map_or(0, Vec::len)
    }

    #[test]
    fn measured_rate_is_lower_median_and_order_free() {
        // 1000 rows in 1µs = 1e9 rows/s; 1000 in 2µs = 5e8; 1000 in 10µs = 1e8.
        let mut a = MeasuredRates::new();
        a.record("filter", 1000.0, 1_000);
        a.record("filter", 1000.0, 2_000);
        a.record("filter", 1000.0, 10_000);
        let mut b = MeasuredRates::new();
        b.record("filter", 1000.0, 10_000);
        b.record("filter", 1000.0, 1_000);
        b.record("filter", 1000.0, 2_000);
        let close = |x: Option<f64>, want: f64| {
            let x = x.expect("rate present");
            (x / want - 1.0).abs() < 1e-12
        };
        // Odd count: the true median, regardless of arrival order.
        assert!(close(a.rate("filter"), 5e8), "{:?}", a.rate("filter"));
        assert_eq!(a.rate("filter"), b.rate("filter"));
        // Even count: the *lower* median (deterministic, no averaging).
        a.record("filter", 1000.0, 4_000);
        assert!(close(a.rate("filter"), 2.5e8), "{:?}", a.rate("filter"));
        assert_eq!(samples(&a, "filter"), 4);
        assert_eq!(a.rate("sort"), None);
    }

    #[test]
    fn unusable_samples_dropped() {
        let mut r = MeasuredRates::new();
        r.record("agg", 100.0, 0); // clock too coarse
        r.record("agg", 0.0, 100); // no work
        r.record("agg", -5.0, 100);
        r.record("agg", f64::NAN, 100);
        assert_eq!(r.rate("agg"), None);
        assert_eq!(samples(&r, "agg"), 0);
    }

    #[test]
    fn seed_overrides_only_measured_classes() {
        let base = WorkModels::standard();
        let mut r = MeasuredRates::new();
        r.record("probe", 1_000_000.0, 1_000_000); // 1M rows in 1ms = 1e9/s
        r.record("sort", 64_000.0, 1_000_000); // 64k cmp in 1ms = 6.4e7/s
        let seeded = r.seed(&base);
        assert_eq!(
            seeded.hw.hash_probe_rows_per_sec_per_core,
            r.rate("probe").unwrap()
        );
        assert_eq!(
            seeded.hw.sort_rows_log_per_sec_per_core,
            r.rate("sort").unwrap()
        );
        assert!((seeded.hw.hash_probe_rows_per_sec_per_core / 1e9 - 1.0).abs() < 1e-12);
        // Unmeasured classes keep the base calibration.
        assert_eq!(
            seeded.hw.filter_rows_per_sec_per_core,
            base.hw.filter_rows_per_sec_per_core
        );
        assert_eq!(
            seeded.hw.hash_build_rows_per_sec_per_core,
            base.hw.hash_build_rows_per_sec_per_core
        );
        // Network/store models are untouched.
        assert_eq!(seeded.net, base.net);
        assert_eq!(seeded.store, base.store);
        // Faster measured probe rate means less probe time.
        assert!(seeded.probe_secs(1e6) < base.probe_secs(1e6));
    }

    #[test]
    fn text_round_trip_is_exact() {
        let mut r = MeasuredRates::new();
        r.record("filter", 1000.0, 1_000);
        r.record("filter", 1000.0, 3_000); // non-terminating decimal rate
        r.record("probe", 1_000_000.0, 1_234_567);
        r.record("sort", 64_000.0, 7);
        let text = r.to_text();
        let back = MeasuredRates::from_text(&text).unwrap();
        assert_eq!(back, r, "shortest float formatting must round-trip bits");
        assert_eq!(back.to_text(), text);
        assert_eq!(back.rate("filter"), r.rate("filter"));
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("filter 999999999.9999999 333333333.3333333\nprobe "));

        // Empty collector round-trips too.
        let empty = MeasuredRates::new();
        assert_eq!(empty.to_text(), "");
        assert_eq!(MeasuredRates::from_text("").unwrap(), empty);
        // Surrounding whitespace and blank lines tolerated on re-read.
        let spaced = "\n  agg \t 1.5   2.0 \n\n";
        let m = MeasuredRates::from_text(spaced).unwrap();
        assert_eq!(samples(&m, "agg"), 2);
    }

    #[test]
    fn malformed_text_rejected() {
        for (bad, line) in [
            ("filter", 1),             // a class without rates
            ("filter 1.0\nagg", 2),    // ... on any line
            ("filter 1.0 nope", 1),    // unparsable token
            ("filter 1.0,2.0", 1),     // not whitespace-separated
            ("{\"filter\":[1.0]}", 1), // the retired JSON format
            ("filter 0.0", 1),         // non-positive rate
            ("filter -1.0", 1),        // negative rate
            ("filter inf", 1),         // non-finite rate
            ("filter NaN", 1),         // non-finite rate
            ("a 1.0\n\na 2.0", 3),     // duplicate class
        ] {
            match MeasuredRates::from_text(bad) {
                Err(CiError::Config(msg)) => assert!(
                    msg.contains(&format!("line {line}:")),
                    "{bad:?} names the wrong line: {msg}"
                ),
                other => panic!("should reject {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn unwritable_op_names_dropped() {
        let mut r = MeasuredRates::new();
        r.record("", 1.0, 1);
        r.record("hash probe", 1.0, 1);
        r.record("agg\n", 1.0, 1);
        assert_eq!(r, MeasuredRates::new());
    }

    #[test]
    fn path_persistence_round_trips_and_tolerates_absence() {
        let path = std::env::temp_dir().join(format!("ci-rates-test-{}.txt", std::process::id()));
        // Missing file: load-if-exists says None, not an error.
        assert_eq!(MeasuredRates::load_path(&path).unwrap(), None);

        let mut r = MeasuredRates::new();
        r.record("filter", 1000.0, 3_000);
        r.record("probe", 1_000_000.0, 1_234_567);
        r.save_path(&path).unwrap();
        let back = MeasuredRates::load_path(&path).unwrap().expect("saved");
        assert_eq!(back, r, "file round-trip must be bit-exact");

        // Corruption is a loud error, not a silent empty collector.
        std::fs::write(&path, "filter -1.0\n").unwrap();
        assert!(MeasuredRates::load_path(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ops_iterate_in_stable_order() {
        let mut r = MeasuredRates::new();
        r.record("sort", 1.0, 1);
        r.record("agg", 1.0, 1);
        r.record("filter", 1.0, 1);
        let ops: Vec<&str> = r.ops().collect();
        assert_eq!(ops, vec!["agg", "filter", "sort"]);
    }
}

//! Regression calibration of the analytic models.
//!
//! §3.1: "To improve the prediction accuracy for more complex operators
//! (typically involve data exchange between nodes), we pre-train regression
//! models for them with synthetic workloads that cover the parameter space."
//!
//! The calibration here is a linear correction
//! `actual ≈ β₀ + β₁·raw + β₂·raw·log2(dop)` fitted by ordinary least
//! squares over (raw analytic prediction, DOP, measured duration) samples
//! collected from engine runs of synthetic workloads. Linear in named
//! features — an engineer can read the fitted coefficients and see, e.g.,
//! "we under-predict exchange-heavy pipelines by 12% per doubling of DOP".

use std::collections::BTreeMap;

use ci_cloud::work::WorkModels;
use ci_types::regression::{fit, LinearModel};
use ci_types::{CiError, Result};

/// One calibration sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Raw analytic prediction (seconds).
    pub predicted_secs: f64,
    /// DOP the pipeline ran with.
    pub dop: u32,
    /// Measured duration (seconds).
    pub actual_secs: f64,
}

/// A fitted correction model.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    model: LinearModel,
    /// Training R² (goodness of fit on the calibration workload).
    pub r_squared: f64,
    /// Number of samples used.
    pub samples: usize,
}

impl Calibration {
    /// Fits a correction from calibration samples. Requires at least four
    /// samples spanning more than one DOP.
    pub fn fit(samples: &[Sample]) -> Result<Calibration> {
        if samples.len() < 4 {
            return Err(CiError::Config(format!(
                "calibration needs >= 4 samples, got {}",
                samples.len()
            )));
        }
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| features(s.predicted_secs, s.dop))
            .collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.actual_secs).collect();
        let model = fit(&rows, &ys)?;
        Ok(Calibration {
            r_squared: model.r_squared,
            samples: samples.len(),
            model,
        })
    }

    /// Applies the correction to a raw prediction. Corrections are clamped
    /// to stay positive (a negative predicted duration is never meaningful).
    pub fn correct(&self, raw_secs: f64, dop: u32) -> f64 {
        let corrected = self.model.predict(&features(raw_secs, dop));
        if corrected.is_finite() && corrected > 0.0 {
            corrected
        } else {
            raw_secs
        }
    }

    /// The fitted coefficients `[β₀, β₁ (raw), β₂ (raw·log2 dop)]` —
    /// exposed for explainability reports.
    pub fn coefficients(&self) -> &[f64] {
        &self.model.beta
    }
}

fn features(raw: f64, dop: u32) -> Vec<f64> {
    vec![raw, raw * (dop.max(1) as f64).log2()]
}

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
    /// rate information.
    pub fn record(&mut self, op: &str, units: f64, wall_ns: u64) {
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

    /// Number of usable samples recorded for one operator class.
    pub fn samples(&self, op: &str) -> usize {
        self.rates.get(op).map_or(0, Vec::len)
    }

    /// Operator classes with at least one sample, in stable order.
    pub fn ops(&self) -> impl Iterator<Item = &str> {
        self.rates.keys().map(String::as_str)
    }

    /// Serializes the collector to a JSON object mapping each operator
    /// class to its raw per-sample rates (`{"filter":[1e9,5e8],...}`).
    /// Hand-rolled (the workspace has no serde); keys emit in `BTreeMap`
    /// order, so equal collectors serialize identically — a calibration run
    /// can be persisted and diffed. Rates are written with Rust's shortest
    /// round-trip float formatting, so [`MeasuredRates::from_json`] restores
    /// the collector bit-for-bit.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (op, rates)) in self.rates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Op names come from a fixed set of identifiers; escape the two
            // JSON-significant characters anyway so the writer is total.
            out.push('"');
            for c in op.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    _ => out.push(c),
                }
            }
            out.push_str("\":[");
            for (j, r) in rates.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{r:?}"));
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// Parses the [`MeasuredRates::to_json`] format back into a collector.
    /// Strict: malformed JSON, duplicate keys, and non-finite or
    /// non-positive rates are errors — a corrupted calibration file must
    /// not silently seed the estimator with garbage.
    pub fn from_json(s: &str) -> Result<MeasuredRates> {
        let bad = |what: &str| CiError::Config(format!("measured-rates json: {what}"));
        let mut chars = s.char_indices().peekable();
        let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices>| {
            while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
                chars.next();
            }
        };
        skip_ws(&mut chars);
        if !matches!(chars.next(), Some((_, '{'))) {
            return Err(bad("expected '{'"));
        }
        let mut rates: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        skip_ws(&mut chars);
        if matches!(chars.peek(), Some((_, '}'))) {
            chars.next();
        } else {
            loop {
                skip_ws(&mut chars);
                if !matches!(chars.next(), Some((_, '"'))) {
                    return Err(bad("expected key string"));
                }
                let mut key = String::new();
                loop {
                    match chars.next() {
                        Some((_, '"')) => break,
                        Some((_, '\\')) => match chars.next() {
                            Some((_, c @ ('"' | '\\'))) => key.push(c),
                            _ => return Err(bad("unsupported escape in key")),
                        },
                        Some((_, c)) => key.push(c),
                        None => return Err(bad("unterminated key")),
                    }
                }
                skip_ws(&mut chars);
                if !matches!(chars.next(), Some((_, ':'))) {
                    return Err(bad("expected ':'"));
                }
                skip_ws(&mut chars);
                if !matches!(chars.next(), Some((_, '['))) {
                    return Err(bad("expected '['"));
                }
                let mut vals = Vec::new();
                skip_ws(&mut chars);
                if matches!(chars.peek(), Some((_, ']'))) {
                    chars.next();
                } else {
                    loop {
                        skip_ws(&mut chars);
                        let start = match chars.peek() {
                            Some(&(i, _)) => i,
                            None => return Err(bad("unterminated array")),
                        };
                        let mut end = start;
                        while matches!(
                            chars.peek(),
                            Some((_, c)) if c.is_ascii_digit()
                                || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                        ) {
                            let (i, c) = chars.next().expect("peeked");
                            end = i + c.len_utf8();
                        }
                        let v: f64 = s[start..end]
                            .parse()
                            .map_err(|_| bad("unparsable number"))?;
                        if !v.is_finite() || v <= 0.0 {
                            return Err(bad("rate must be finite and positive"));
                        }
                        vals.push(v);
                        skip_ws(&mut chars);
                        match chars.next() {
                            Some((_, ',')) => continue,
                            Some((_, ']')) => break,
                            _ => return Err(bad("expected ',' or ']'")),
                        }
                    }
                }
                if rates.insert(key, vals).is_some() {
                    return Err(bad("duplicate operator key"));
                }
                skip_ws(&mut chars);
                match chars.next() {
                    Some((_, ',')) => continue,
                    Some((_, '}')) => break,
                    _ => return Err(bad("expected ',' or '}'")),
                }
            }
        }
        skip_ws(&mut chars);
        if chars.next().is_some() {
            return Err(bad("trailing characters"));
        }
        Ok(MeasuredRates { rates })
    }

    /// Writes the collector to `path` in the [`MeasuredRates::to_json`]
    /// format (atomic enough for a single writer: plain `fs::write`).
    pub fn save_path(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, self.to_json())
            .map_err(|e| CiError::Config(format!("cannot write rates to {}: {e}", path.display())))
    }

    /// Loads a collector from `path`. A missing file is `Ok(None)` — the
    /// load-if-exists half of the persistence contract; any other I/O or
    /// parse failure is an error (a corrupted calibration file must be
    /// noticed, not silently ignored).
    pub fn load_path(path: &std::path::Path) -> Result<Option<MeasuredRates>> {
        match std::fs::read_to_string(path) {
            Ok(s) => MeasuredRates::from_json(&s).map(Some),
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

    fn synth(bias: f64, scale: f64, dop_slope: f64) -> Vec<Sample> {
        let mut out = Vec::new();
        for &dop in &[1u32, 2, 4, 8, 16] {
            for i in 1..20 {
                let raw = i as f64 * 0.05;
                let actual = bias + scale * raw + dop_slope * raw * (dop as f64).log2();
                out.push(Sample {
                    predicted_secs: raw,
                    dop,
                    actual_secs: actual,
                });
            }
        }
        out
    }

    #[test]
    fn recovers_systematic_underprediction() {
        // Engine is consistently 1.2x the analytic model plus DOP drift.
        let samples = synth(0.01, 1.2, 0.05);
        let c = Calibration::fit(&samples).unwrap();
        assert!(c.r_squared > 0.999, "r2 = {}", c.r_squared);
        let corrected = c.correct(1.0, 8);
        let expected = 0.01 + 1.2 + 0.05 * 3.0;
        assert!((corrected - expected).abs() < 1e-6, "{corrected}");
    }

    #[test]
    fn identity_when_model_is_perfect() {
        let samples = synth(0.0, 1.0, 0.0);
        let c = Calibration::fit(&samples).unwrap();
        for &(raw, dop) in &[(0.1, 1u32), (0.5, 4), (2.0, 16)] {
            let corrected = c.correct(raw, dop);
            assert!((corrected - raw).abs() < 1e-9);
        }
    }

    #[test]
    fn too_few_samples_rejected() {
        let s = Sample {
            predicted_secs: 1.0,
            dop: 2,
            actual_secs: 1.1,
        };
        assert!(Calibration::fit(&[s; 3]).is_err());
    }

    #[test]
    fn nonsense_correction_falls_back_to_raw() {
        // Fit a wildly negative model on adversarial data.
        let samples = vec![
            Sample {
                predicted_secs: 1.0,
                dop: 1,
                actual_secs: -5.0,
            },
            Sample {
                predicted_secs: 2.0,
                dop: 2,
                actual_secs: -10.0,
            },
            Sample {
                predicted_secs: 3.0,
                dop: 4,
                actual_secs: -15.0,
            },
            Sample {
                predicted_secs: 4.0,
                dop: 8,
                actual_secs: -20.0,
            },
            Sample {
                predicted_secs: 5.0,
                dop: 16,
                actual_secs: -25.0,
            },
        ];
        let c = Calibration::fit(&samples).unwrap();
        // Prediction would be negative; fall back to the raw estimate.
        assert_eq!(c.correct(1.0, 4), 1.0);
    }

    #[test]
    fn coefficients_exposed() {
        let c = Calibration::fit(&synth(0.0, 1.5, 0.0)).unwrap();
        assert_eq!(c.coefficients().len(), 3);
        assert!((c.coefficients()[1] - 1.5).abs() < 1e-6);
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
        assert_eq!(a.samples("filter"), 4);
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
        assert_eq!(r.samples("agg"), 0);
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
    fn json_round_trip_is_exact() {
        let mut r = MeasuredRates::new();
        r.record("filter", 1000.0, 1_000);
        r.record("filter", 1000.0, 3_000); // non-terminating decimal rate
        r.record("probe", 1_000_000.0, 1_234_567);
        r.record("sort", 64_000.0, 7);
        let json = r.to_json();
        let back = MeasuredRates::from_json(&json).unwrap();
        assert_eq!(back, r, "shortest float formatting must round-trip bits");
        assert_eq!(back.to_json(), json);
        assert_eq!(back.rate("filter"), r.rate("filter"));

        // Empty collector round-trips too.
        let empty = MeasuredRates::new();
        assert_eq!(empty.to_json(), "{}");
        assert_eq!(MeasuredRates::from_json("{}").unwrap(), empty);
        // Whitespace tolerated on re-read.
        let spaced = " { \"agg\" : [ 1.5 , 2.0 ] } ";
        let m = MeasuredRates::from_json(spaced).unwrap();
        assert_eq!(m.samples("agg"), 2);
    }

    #[test]
    fn malformed_json_rejected() {
        for bad in [
            "",
            "{",
            "[]",
            "{\"filter\":}",
            "{\"filter\":[1.0}",
            "{\"filter\":[1.0],}",
            "{\"filter\":[nope]}",
            "{\"filter\":[0.0]}",        // non-positive rate
            "{\"filter\":[-1.0]}",       // negative rate
            "{\"a\":[1.0],\"a\":[2.0]}", // duplicate key
            "{} trailing",
        ] {
            assert!(
                MeasuredRates::from_json(bad).is_err(),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn path_persistence_round_trips_and_tolerates_absence() {
        let path = std::env::temp_dir().join(format!("ci-rates-test-{}.json", std::process::id()));
        // Missing file: load-if-exists says None, not an error.
        assert_eq!(MeasuredRates::load_path(&path).unwrap(), None);

        let mut r = MeasuredRates::new();
        r.record("filter", 1000.0, 3_000);
        r.record("probe", 1_000_000.0, 1_234_567);
        r.save_path(&path).unwrap();
        let back = MeasuredRates::load_path(&path).unwrap().expect("saved");
        assert_eq!(back, r, "file round-trip must be bit-exact");

        // Corruption is a loud error, not a silent empty collector.
        std::fs::write(&path, "{\"filter\":[-1.0]}").unwrap();
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

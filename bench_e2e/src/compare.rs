//! `--compare A B`: the tool for the two-set acceptance rule and for every
//! later change's review. Reads two result files in the line form the
//! benchmark prints (`workload metric value unit`, any other line ignored;
//! a file may hold many runs) and judges B against A per (workload, metric).

use std::collections::BTreeMap;

use crate::manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};

type Results = BTreeMap<(String, String), Vec<f64>>;

/// Parses result lines; lines of any other shape are skipped.
pub fn parse_results(text: &str) -> Results {
    let mut out = Results::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let known = f.len() == 4 && WORKLOADS.iter().any(|w| w.0 == f[0]);
        if let (true, Ok(v)) = (known, f.get(2).unwrap_or(&"").parse::<f64>()) {
            out.entry((f[0].to_owned(), f[1].to_owned()))
                .or_default()
                .push(v);
        }
    }
    out
}

/// How B's median stands against A's: by what share of A's median it is
/// worse (negative = better), and the verdict under `bound`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, &'static str) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == mb {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let spread = [a, b]
        .iter()
        .filter_map(|xs| quartile_spread(xs))
        .fold(0.0, f64::max);
    let verdict = if worse_by > bound {
        "worse"
    } else if spread > bound {
        "unresolved"
    } else {
        "ok"
    };
    (worse_by, verdict)
}

/// Prints the comparison; returns how many pairs were `worse`.
pub fn compare(a_text: &str, b_text: &str) -> usize {
    let (a, b) = (parse_results(a_text), parse_results(b_text));
    let mut worse = 0;
    println!(
        "{:<13} {:<28} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "spread", "bound"
    );
    let fmt_spread =
        |xs: &[f64]| quartile_spread(xs).map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
    for (workload, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let key = (workload.to_owned(), metric.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (worse_by, verdict) = judge(va, vb, better == "higher", bound);
            worse += usize::from(verdict == "worse");
            let wider = if quartile_spread(va) >= quartile_spread(vb) {
                va
            } else {
                vb
            };
            println!(
                "{workload:<13} {metric:<28} {:>14.6} {:>14.6} {:>+8.1}% {:>7} {:>6.0}%  {verdict}",
                median(va),
                median(vb),
                worse_by * 100.0,
                fmt_spread(wider),
                bound * 100.0
            );
        }
        // Per-layer metrics have no bound: both values and the difference.
        for (metric, _, _) in PER_LAYER {
            let key = (workload.to_owned(), metric.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let diff = if ma == mb {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            println!(
                "{workload:<13} {metric:<28} {ma:>14.6} {mb:>14.6} {diff:>+8.1}% {:>7} {:>7}  layer",
                fmt_spread(va),
                "-"
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_result_lines_and_skips_the_rest() {
        let text = "# a comment\ncab_sim iter_ms_p50 400.5 ms\ncab_sim iter_ms_p50 410 ms\n\
                    {\"correct\": true}\nnot_a_workload x 1 ms\ncab_sim bad value ms\n";
        let r = parse_results(text);
        assert_eq!(r.len(), 1);
        assert_eq!(
            r[&("cab_sim".into(), "iter_ms_p50".into())],
            vec![400.5, 410.0]
        );
    }

    #[test]
    fn verdicts() {
        // Lower is better, bound 10 %: 5 % slower is ok, 20 % slower is worse.
        assert_eq!(judge(&[100.0], &[105.0], false, 0.1).1, "ok");
        let (by, v) = judge(&[100.0], &[120.0], false, 0.1);
        assert!((by - 0.2).abs() < 1e-12);
        assert_eq!(v, "worse");
        // Higher is better: a drop is worse, a rise is not.
        assert_eq!(judge(&[100.0], &[80.0], true, 0.1).1, "worse");
        assert_eq!(judge(&[100.0], &[150.0], true, 0.1).1, "ok");
        // A spread wider than the bound cannot resolve a difference within it.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            judge(&noisy, &[101.0, 102.0, 103.0, 104.0], false, 0.1).1,
            "unresolved"
        );
        // Deterministic metrics agree exactly.
        assert_eq!(judge(&[0.0023], &[0.0023], false, 0.01), (0.0, "ok"));
    }
}

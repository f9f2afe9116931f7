//! Machine-speed calibration.
//!
//! This sandbox's speed drifts by tens of percent over tens of seconds (a
//! fixed pure-CPU loop measured 40–69 ms across consecutive 10 s windows, a
//! 12-template pass of the engine 354–506 ms, 100 point lookups 11.6–21.3
//! ms), far more than the 25 % cap on a metric's bound and slower than one
//! run, so no amount of work inside a run averages it out. The harness
//! therefore interleaves a small kernel of its own with the workload and
//! divides every wall-clock duration by how much slower than nominal the
//! kernel ran around that time. Reported times are "ms at nominal machine
//! speed"; `calib.speed_factor` and `raw.iter_ms_p50` in the traced run show
//! the raw side.
//!
//! The kernel is ordinary application code — format strings, fill a
//! `HashMap<String, Vec<u64>>`, sort its keys, walk them — because that is
//! what tracked the engine: over 50 ten-second windows in a stormy period its
//! time correlated 0.96 with both a 12-template pass (raw spread 21.6 % →
//! 5.1 % after division) and a point-lookup batch (25.6 % → 7.5 %). A
//! memory-latency-bound kernel (random read-modify-writes into 8 MiB) left
//! 6.8 % and 11.3 %, a dependent ALU chain 15 % and 33 %: the slow phases hit
//! branchy, allocating code harder than either. The kernel belongs to the
//! benchmark, so a change to the program cannot move it.

use std::collections::HashMap;
use std::time::Instant;

/// Kernel cost per insert on this box in a calm phase; a factor of 1.0 means
/// "as fast as that".
pub const NOMINAL_NS_PER_INSERT: f64 = 400.0;

const INSERTS: usize = 2_000; // ≈ 0.7 ms per sample
const TICK_NS: u64 = 50_000_000; // at most one sample per 50 ms: ≈ 1.5 % overhead
const WINDOW_NS: u64 = 500_000_000; // smooth each lookup over ±0.5 s

fn kernel() -> u64 {
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..INSERTS {
        let key = format!("key-{}-{}", i % 97, i * 31 % 1009);
        map.entry(key).or_default().push(i as u64);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    let mut acc = 0u64;
    for key in keys.iter().take(500) {
        acc = acc.wrapping_add(map[*key].iter().sum::<u64>());
        acc ^= key.chars().rev().collect::<String>().len() as u64;
    }
    acc
}

/// Interleaved calibration samples over the run.
#[derive(Default)]
pub struct Calibrator {
    last_ns: u64,
    /// (time since process start, kernel ns per insert), in time order.
    samples: Vec<(u64, f64)>,
}

impl Calibrator {
    /// Takes a sample if the last one is at least a tick old. `now_ns` is
    /// time since process start; call between timed sections only.
    pub fn tick(&mut self, now_ns: u64) {
        if now_ns < self.last_ns + TICK_NS && !self.samples.is_empty() {
            return;
        }
        let t = Instant::now();
        std::hint::black_box(kernel());
        let ns = t.elapsed().as_nanos() as f64;
        self.last_ns = now_ns;
        self.samples.push((now_ns, ns / INSERTS as f64));
    }

    /// How much slower than nominal the machine ran around `[from_ns,
    /// to_ns]`: the median sample within the window (widened by ±0.5 s) over
    /// the nominal cost, or the nearest sample when the window holds none.
    pub fn factor(&self, from_ns: u64, to_ns: u64) -> f64 {
        factor_of(&self.samples, from_ns, to_ns)
    }

    /// 10th, 50th and 90th percentile factor over the run: how far the
    /// machine's speed moved while it was being measured.
    pub fn factor_range(&self) -> [f64; 3] {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        [0.1, 0.5, 0.9].map(|q| crate::stats::percentile(&all, q) / NOMINAL_NS_PER_INSERT)
    }
}

fn factor_of(samples: &[(u64, f64)], from_ns: u64, to_ns: u64) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let lo = samples.partition_point(|s| s.0 < from_ns.saturating_sub(WINDOW_NS));
    let hi = samples.partition_point(|s| s.0 <= to_ns.saturating_add(WINDOW_NS));
    let per_insert = if lo < hi {
        let window: Vec<f64> = samples[lo..hi].iter().map(|s| s.1).collect();
        crate::stats::median(&window)
    } else {
        // `lo == hi`: the samples on either side of the gap.
        let before = lo.checked_sub(1).map(|i| samples[i]);
        let after = samples.get(lo).copied();
        match (before, after) {
            (Some(b), Some(a)) if from_ns - b.0 > a.0 - to_ns => a.1,
            (Some(b), _) => b.1,
            (None, Some(a)) => a.1,
            (None, None) => unreachable!("samples is not empty"),
        }
    };
    per_insert / NOMINAL_NS_PER_INSERT
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn factor_is_the_windowed_median_over_nominal() {
        let n = NOMINAL_NS_PER_INSERT;
        let samples = [
            (0, n),
            (100 * MS, 2.0 * n),
            (200 * MS, 3.0 * n),
            (3_000 * MS, 10.0 * n),
        ];
        // Window [0 - 500, 200 + 500] ms holds the first three samples.
        assert_eq!(factor_of(&samples, 0, 200 * MS), 2.0);
        // A window around the late sample sees only it.
        assert_eq!(factor_of(&samples, 2_900 * MS, 3_100 * MS), 10.0);
        // No sample within ±0.5 s: the nearer neighbour decides.
        assert_eq!(factor_of(&samples, 900 * MS, 1_000 * MS), 3.0);
        assert_eq!(factor_of(&samples, 2_000 * MS, 2_100 * MS), 10.0);
        assert_eq!(factor_of(&[], 0, MS), 1.0);
    }

    #[test]
    fn ticks_are_rate_limited() {
        let mut c = Calibrator::default();
        c.tick(0);
        c.tick(MS);
        c.tick(TICK_NS);
        c.tick(TICK_NS + MS);
        assert_eq!(c.samples.len(), 2);
        assert!(c.factor_range()[1] > 0.0);
    }
}

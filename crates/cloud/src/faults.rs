//! Deterministic fault injection for the simulated cloud substrate.
//!
//! A real disaggregated warehouse spends Dollars on failure: throttled or
//! failed object-store GETs are retried (re-billed latency *and* re-fetched
//! bytes), straggling nodes stretch pipeline tails until a speculative hedge
//! duplicates their work, and preempted workers lose in-flight morsels that
//! must be reassigned. None of that changes the *answer* of a query — only
//! its bill. This module models exactly that split:
//!
//! * a [`FaultProfile`] names the rates and penalties of each fault class
//!   (the knobs a tier's SLA would quote), and
//! * a [`FaultPlan`] seeds a [`FaultInjector`] whose per-morsel draws are a
//!   pure function of `(seed, pipeline, morsel)` — independent of worker
//!   count, scheduling order, and execution mode — via [`ci_types::DetRng`]
//!   fork streams.
//!
//! The engine consumes [`MorselFaults`] in its accounting phase; the cost
//! estimator consumes the profile's *expected values* ([`FaultProfile::
//! expected_fetch_overhead_factor`] and friends) as a failure-tax term. Both
//! sides price the same taxonomy, which is what lets the what-if service
//! compare "cheaper but flakier" against "pricier but reliable" tiers the
//! same way it prices reclustering.
//!
//! Recoverability is a *profile property*, not luck: transient fetch
//! failures are drawn capped at [`FaultProfile::max_retries`], so a profile
//! with `permanent_failure_rate == 0.0` can never produce an unrecoverable
//! schedule. [`FaultPlan::chaos`], the plan the test suites inject, relies
//! on this.

use ci_types::{DetRng, SimDuration};

/// Rates and penalties of every injected fault class. All rates are
/// per-morsel probabilities in `[0, 1]`; penalties are simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a scan morsel's object-store fetch fails transiently at
    /// least once. Failed attempts are retried with exponential backoff and
    /// re-billed (latency and re-fetched bytes).
    pub fetch_failure_rate: f64,
    /// Upper bound on transient-fetch retries per morsel. Draws are capped
    /// here, so transient failures alone are always recoverable.
    pub max_retries: u32,
    /// Backoff before the first retry; attempt `k` waits `2^k` times this.
    pub retry_backoff: SimDuration,
    /// Probability a scan morsel's fetch is throttled by the store
    /// (latency penalty, no re-fetch).
    pub throttle_rate: f64,
    /// Added latency per throttle event.
    pub throttle_penalty: SimDuration,
    /// Probability a morsel lands on a straggling node.
    pub straggler_rate: f64,
    /// Largest compute slowdown a straggler can impose; draws are uniform
    /// in `[1.5, max]` (clamped up to 1.5 so a straggler always straggles).
    pub straggler_slowdown_max: f64,
    /// Slowdown at which the engine hedges: launches a speculative
    /// duplicate of the morsel and takes the first result.
    pub hedge_threshold: f64,
    /// Fraction of a morsel's expected compute time that passes before the
    /// straggler is detected and the hedge copy launches.
    pub hedge_detect_frac: f64,
    /// Probability a morsel's worker is preempted mid-morsel, losing its
    /// partial work; the morsel is reassigned and re-run from scratch.
    pub worker_loss_rate: f64,
    /// Probability a scan morsel's object is permanently unreachable:
    /// every retry up to [`FaultProfile::max_retries`] is billed, then the
    /// query surfaces a typed [`ci_types::CiError::Fault`]. Keep this 0 for
    /// chaos runs that must stay recoverable.
    pub permanent_failure_rate: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::light()
    }
}

impl FaultProfile {
    /// A mild, always-recoverable profile: occasional retries, throttles,
    /// stragglers, and preemptions, never a permanent failure. This is the
    /// profile of [`FaultPlan::chaos`], which the equivalence suites run
    /// whole queries under, so its penalties are kept small relative to
    /// typical morsel work.
    pub fn light() -> FaultProfile {
        FaultProfile {
            fetch_failure_rate: 0.04,
            max_retries: 4,
            retry_backoff: SimDuration::from_millis(2),
            throttle_rate: 0.03,
            throttle_penalty: SimDuration::from_millis(1),
            straggler_rate: 0.03,
            straggler_slowdown_max: 4.0,
            hedge_threshold: 2.0,
            hedge_detect_frac: 0.25,
            worker_loss_rate: 0.01,
            permanent_failure_rate: 0.0,
        }
    }

    /// `true` when no fault class can fire.
    pub fn is_quiet(&self) -> bool {
        self.fetch_failure_rate <= 0.0
            && self.throttle_rate <= 0.0
            && self.straggler_rate <= 0.0
            && self.worker_loss_rate <= 0.0
            && self.permanent_failure_rate <= 0.0
    }

    /// Backoff before retry `k` (0-based): `retry_backoff * 2^k`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        SimDuration::from_micros(
            self.retry_backoff
                .as_micros()
                .saturating_mul(1u64 << attempt.min(20)),
        )
    }

    /// The latency/cost factor a hedged morsel's compute actually takes:
    /// the hedge launches at `hedge_detect_frac` of the expected compute
    /// and runs at full speed, so the first result lands at
    /// `min(slowdown, 1 + hedge_detect_frac)` times the fault-free compute.
    /// On an exact tie the canonical (original) attempt wins.
    pub fn hedged_factor(&self, slowdown: f64) -> f64 {
        slowdown.min(1.0 + self.hedge_detect_frac)
    }

    // ---- Expected values: the estimator's failure-tax terms. ----

    /// Expected extra fetch work per morsel, as a multiple of one fetch:
    /// `E[retries] = rate * (1 + 1/max_retries)/2`-ish would overfit the
    /// capped geometric; we use the exact expectation of the capped draw
    /// (see [`MorselFaults`]): one failure with probability `rate`, each
    /// further failure half as likely, capped at `max_retries`.
    pub fn expected_fetch_overhead_factor(&self) -> f64 {
        let p = self.fetch_failure_rate.clamp(0.0, 1.0);
        if p <= 0.0 {
            return 0.0;
        }
        // E[failures] = p * sum_{k=1..max} k * 2^-(k-1) / norm, matching the
        // halving ladder the injector draws from.
        let mut num = 0.0;
        let mut norm = 0.0;
        for k in 1..=self.max_retries.max(1) {
            let w = 0.5f64.powi(k as i32 - 1);
            num += k as f64 * w;
            norm += w;
        }
        p * num / norm
    }

    /// Expected backoff seconds per morsel from transient-fetch retries.
    pub fn expected_backoff_secs(&self) -> f64 {
        let p = self.fetch_failure_rate.clamp(0.0, 1.0);
        if p <= 0.0 {
            return 0.0;
        }
        let mut num = 0.0;
        let mut norm = 0.0;
        for k in 1..=self.max_retries.max(1) {
            let w = 0.5f64.powi(k as i32 - 1);
            let backoff: f64 = (0..k).map(|a| self.backoff(a).as_secs_f64()).sum();
            num += backoff * w;
            norm += w;
        }
        p * num / norm
    }

    /// Expected throttle penalty seconds per scan morsel.
    pub fn expected_throttle_secs(&self) -> f64 {
        self.throttle_rate.clamp(0.0, 1.0) * self.throttle_penalty.as_secs_f64()
    }

    /// Expected extra compute per morsel from stragglers and their hedges,
    /// as a multiple of the morsel's fault-free compute time. Mirrors the
    /// engine's billing: an unhedged straggler bills `s - 1` extra; a hedged
    /// one bills the capped latency excess plus the duplicate copy's run.
    pub fn expected_straggler_overhead_factor(&self) -> f64 {
        let p = self.straggler_rate.clamp(0.0, 1.0);
        if p <= 0.0 {
            return 0.0;
        }
        let lo = 1.5;
        let hi = self.straggler_slowdown_max.max(lo);
        // Uniform draw over [lo, hi]; split at the hedge threshold.
        let t = self.hedge_threshold.clamp(lo, hi);
        let span = (hi - lo).max(f64::EPSILON);
        // Below threshold: E[s - 1] over [lo, t).
        let w_lo = (t - lo) / span;
        let mean_lo = (lo + t) / 2.0 - 1.0;
        // At or above: capped latency excess + duplicate copy.
        let w_hi = (hi - t) / span;
        let eff = self.hedged_factor(hi.max(t));
        let mean_hi = (eff - 1.0) + (eff - self.hedge_detect_frac);
        p * (w_lo * mean_lo.max(0.0) + w_hi * mean_hi.max(0.0))
    }

    /// Expected extra whole-morsel work (fetch + compute) from worker loss,
    /// as a multiple of the morsel's fault-free total: the lost attempt ran
    /// for an expected half-morsel before preemption.
    pub fn expected_loss_overhead_factor(&self) -> f64 {
        self.worker_loss_rate.clamp(0.0, 1.0) * 0.5
    }
}

/// A seeded fault schedule: profile + root seed. Cheap to clone; build one
/// [`FaultInjector`] per query.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed every per-morsel stream forks from.
    pub seed: u64,
    /// Rates and penalties.
    pub profile: FaultProfile,
}

impl FaultPlan {
    /// A plan over the given profile.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultPlan {
        FaultPlan { seed, profile }
    }

    /// The chaos plan the test suites use: [`FaultProfile::light`] under
    /// the given seed.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan::new(seed, FaultProfile::light())
    }

    /// Builds the injector for this plan.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            root: DetRng::seed_from_u64(self.seed),
            profile: self.profile.clone(),
        }
    }
}

/// Every fault drawn for one morsel. Pure data; the engine turns it into
/// billed recovery time in every execution mode (morsel processing is
/// pure, so a re-execution would only repeat the same trace).
#[derive(Debug, Clone, PartialEq)]
pub struct MorselFaults {
    /// Transient fetch failures before the fetch succeeds, each retried
    /// with exponential backoff and a re-billed fetch. Capped at
    /// [`FaultProfile::max_retries`].
    pub fetch_failures: u32,
    /// The fetch never succeeds: all retries are billed, then the query
    /// fails with a typed error.
    pub fetch_permanent: bool,
    /// Throttle events on the fetch path (latency penalty, no re-fetch).
    pub throttles: u32,
    /// Compute slowdown factor when this morsel landed on a straggler.
    pub straggler: Option<f64>,
    /// The assigned worker was preempted this far into the morsel
    /// (fraction of fetch+compute); the morsel re-runs from scratch.
    pub worker_lost: Option<f64>,
}

impl MorselFaults {
    /// A fault-free draw.
    pub fn clean() -> MorselFaults {
        MorselFaults {
            fetch_failures: 0,
            fetch_permanent: false,
            throttles: 0,
            straggler: None,
            worker_lost: None,
        }
    }

    /// Total fault events this morsel carries.
    pub fn count(&self) -> u32 {
        self.fetch_failures
            + u32::from(self.fetch_permanent)
            + self.throttles
            + u32::from(self.straggler.is_some())
            + u32::from(self.worker_lost.is_some())
    }

    /// One `(kind, magnitude)` entry per injected fault, in draw order —
    /// the shape trace exporters render as instant events. Magnitude is the
    /// slowdown factor (stragglers) or lost-progress fraction (preemption);
    /// count-style faults carry `None`.
    pub fn events(&self) -> Vec<(&'static str, Option<f64>)> {
        let mut out = Vec::new();
        for _ in 0..self.fetch_failures {
            out.push(("fetch_failure", None));
        }
        if self.fetch_permanent {
            out.push(("fetch_permanent", None));
        }
        for _ in 0..self.throttles {
            out.push(("throttle", None));
        }
        if let Some(s) = self.straggler {
            out.push(("straggler", Some(s)));
        }
        if let Some(frac) = self.worker_lost {
            out.push(("worker_lost", Some(frac)));
        }
        out
    }
}

/// Deterministic per-morsel fault source. Draws are a pure function of
/// `(seed, pipeline, morsel)`: the injector clones its root stream and
/// forks it twice, so no draw depends on how many draws came before it —
/// the property that keeps Simulate, Parallel, and any worker count on the
/// *same* fault schedule.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    root: DetRng,
    profile: FaultProfile,
}

impl FaultInjector {
    /// The profile this injector draws from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Draws the faults of one morsel. `scan_fetch` gates the object-store
    /// classes (transient/permanent failures, throttling), which only make
    /// sense for morsels that really fetch; straggler and preemption draws
    /// apply to every morsel.
    pub fn morsel_faults(&self, pipeline: u64, morsel: u64, scan_fetch: bool) -> MorselFaults {
        let p = &self.profile;
        let mut rng = self.root.clone().fork(pipeline).fork(morsel);
        let mut f = MorselFaults::clean();
        // Fixed draw order: the schedule is part of the determinism
        // contract, so every class consumes its draws even when gated off.
        let fail = rng.bool_with(p.fetch_failure_rate);
        // Halving ladder: k failures are half as likely as k-1, capped.
        let mut failures = 1u32;
        while failures < p.max_retries.max(1) && rng.bool_with(0.5) {
            failures += 1;
        }
        let permanent = rng.bool_with(p.permanent_failure_rate);
        let throttled = rng.bool_with(p.throttle_rate);
        let straggler_hit = rng.bool_with(p.straggler_rate);
        let slowdown = rng.range_f64(1.5, p.straggler_slowdown_max.max(1.5) + f64::EPSILON);
        let lost = rng.bool_with(p.worker_loss_rate);
        let loss_frac = rng.f64();
        if scan_fetch {
            if permanent {
                f.fetch_permanent = true;
                f.fetch_failures = p.max_retries;
            } else if fail {
                f.fetch_failures = failures;
            }
            if throttled {
                f.throttles = 1;
            }
        }
        if straggler_hit {
            f.straggler = Some(slowdown);
        }
        if lost {
            f.worker_lost = Some(loss_frac);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The light profile with every fault rate zero.
    fn quiet_profile() -> FaultProfile {
        FaultProfile {
            fetch_failure_rate: 0.0,
            throttle_rate: 0.0,
            straggler_rate: 0.0,
            worker_loss_rate: 0.0,
            ..FaultProfile::light()
        }
    }

    #[test]
    fn draws_are_pure_in_pipeline_and_morsel() {
        let plan = FaultPlan::new(42, FaultProfile::light());
        let a = plan.injector();
        let b = plan.injector();
        for pi in 0..4u64 {
            for mi in 0..64u64 {
                assert_eq!(
                    a.morsel_faults(pi, mi, true),
                    b.morsel_faults(pi, mi, true),
                    "draw ({pi},{mi}) must not depend on injector history"
                );
            }
        }
        // Query order independence: interleaved vs. sequential access.
        let x = a.morsel_faults(1, 7, true);
        let _ = a.morsel_faults(3, 1, false);
        assert_eq!(a.morsel_faults(1, 7, true), x);
    }

    #[test]
    fn seeds_and_indices_change_the_schedule() {
        let a = FaultPlan::chaos(1).injector();
        let b = FaultPlan::chaos(2).injector();
        let differs = (0..256u64)
            .filter(|&mi| a.morsel_faults(0, mi, true) != b.morsel_faults(0, mi, true))
            .count();
        assert!(
            differs > 0,
            "different seeds must produce different schedules"
        );
        let across = (0..256u64)
            .filter(|&mi| a.morsel_faults(0, mi, true) != a.morsel_faults(1, mi, true))
            .count();
        assert!(across > 0, "pipelines must have independent streams");
    }

    #[test]
    fn light_profile_is_recoverable_and_capped() {
        let p = FaultProfile::light();
        assert_eq!(p.permanent_failure_rate, 0.0);
        let inj = FaultPlan::new(7, p.clone()).injector();
        let mut fired = 0u32;
        for mi in 0..2_000u64 {
            let f = inj.morsel_faults(0, mi, true);
            assert!(!f.fetch_permanent);
            assert!(f.fetch_failures <= p.max_retries);
            fired += f.count();
        }
        assert!(
            fired > 0,
            "light profile must actually inject at this scale"
        );
    }

    #[test]
    fn quiet_profile_never_fires() {
        let inj = FaultPlan::new(9, quiet_profile()).injector();
        for mi in 0..500u64 {
            assert_eq!(inj.morsel_faults(0, mi, true).count(), 0);
        }
        assert!(quiet_profile().is_quiet());
        assert!(!FaultProfile::light().is_quiet());
    }

    #[test]
    fn backoff_doubles() {
        let p = FaultProfile::light();
        assert_eq!(p.backoff(0), SimDuration::from_millis(2));
        assert_eq!(p.backoff(1), SimDuration::from_millis(4));
        assert_eq!(p.backoff(3), SimDuration::from_millis(16));
    }

    #[test]
    fn hedging_caps_the_straggler_factor() {
        let p = FaultProfile::light();
        // Above threshold: capped at 1 + detect fraction.
        assert!((p.hedged_factor(4.0) - 1.25).abs() < 1e-12);
        // A (hypothetical) mild slowdown stays as-is under the min.
        assert!((p.hedged_factor(1.1) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn expected_overheads_scale_with_rates() {
        let quiet = quiet_profile();
        assert_eq!(quiet.expected_fetch_overhead_factor(), 0.0);
        assert_eq!(quiet.expected_backoff_secs(), 0.0);
        assert_eq!(quiet.expected_throttle_secs(), 0.0);
        assert_eq!(quiet.expected_straggler_overhead_factor(), 0.0);
        assert_eq!(quiet.expected_loss_overhead_factor(), 0.0);

        let light = FaultProfile::light();
        let mut flaky = light.clone();
        flaky.fetch_failure_rate *= 4.0;
        flaky.straggler_rate *= 4.0;
        flaky.worker_loss_rate *= 4.0;
        flaky.throttle_rate *= 4.0;
        assert!(flaky.expected_fetch_overhead_factor() > light.expected_fetch_overhead_factor());
        assert!(flaky.expected_backoff_secs() > light.expected_backoff_secs());
        assert!(flaky.expected_throttle_secs() > light.expected_throttle_secs());
        assert!(
            flaky.expected_straggler_overhead_factor() > light.expected_straggler_overhead_factor()
        );
        assert!(flaky.expected_loss_overhead_factor() > light.expected_loss_overhead_factor());
        // Expected retries stay bounded by the cap.
        assert!(flaky.expected_fetch_overhead_factor() <= flaky.max_retries as f64);
    }
}

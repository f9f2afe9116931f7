//! Pareto-frontier utilities and the full-enumeration baseline.
//!
//! §3.2 cites multi-objective optimizers that "produc\[e\] a set of physical
//! plans that form the Pareto frontier" \[35] and argues the full spectrum is
//! unnecessary. We implement the frontier machinery anyway: (a) as the
//! baseline the F2 claim test judges the optimizer's picks against, and
//! (b) to *draw* Figure 2 empirically.

use ci_types::money::Dollars;
use ci_types::SimDuration;

/// One (latency, cost) point with its configuration payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint<T> {
    /// Predicted or measured latency.
    pub latency: SimDuration,
    /// Predicted or measured dollars.
    pub cost: Dollars,
    /// The configuration that produced this point (e.g. a DOP vector).
    pub config: T,
}

impl<T> ParetoPoint<T> {
    /// `true` when `self` dominates `other` (no worse in both, better in one).
    pub fn dominates(&self, other: &ParetoPoint<T>) -> bool {
        let le = self.latency <= other.latency && self.cost <= other.cost;
        let lt = self.latency < other.latency || self.cost < other.cost;
        le && lt
    }
}

/// Extracts the Pareto frontier (non-dominated points), sorted by latency
/// ascending. Ties collapse to the cheaper point.
pub fn pareto_frontier<T: Clone>(points: &[ParetoPoint<T>]) -> Vec<ParetoPoint<T>> {
    let mut sorted: Vec<ParetoPoint<T>> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.latency
            .cmp(&b.latency)
            .then(a.cost.amount().total_cmp(&b.cost.amount()))
    });
    let mut frontier: Vec<ParetoPoint<T>> = Vec::new();
    let mut best_cost = f64::INFINITY;
    for p in sorted {
        if p.cost.amount() < best_cost {
            best_cost = p.cost.amount();
            frontier.push(p);
        }
    }
    frontier
}

/// Distance of a point above the frontier, as a multiplicative cost factor
/// at its latency (1.0 = on the frontier). Used by F2 to show T-shirt
/// configurations sitting off-frontier.
pub fn cost_inflation<T>(frontier: &[ParetoPoint<T>], p: &ParetoPoint<T>) -> f64 {
    // Cheapest frontier cost achievable at latency <= p.latency.
    let best = frontier
        .iter()
        .filter(|f| f.latency <= p.latency)
        .map(|f| f.cost.amount())
        .fold(f64::INFINITY, f64::min);
    if !best.is_finite() || best <= 0.0 {
        return 1.0;
    }
    p.cost.amount() / best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lat_s: f64, cost: f64) -> ParetoPoint<u32> {
        ParetoPoint {
            latency: SimDuration::from_secs_f64(lat_s),
            cost: Dollars::new(cost),
            config: 0,
        }
    }

    #[test]
    fn domination_rules() {
        assert!(pt(1.0, 1.0).dominates(&pt(2.0, 2.0)));
        assert!(pt(1.0, 1.0).dominates(&pt(1.0, 2.0)));
        assert!(!pt(1.0, 2.0).dominates(&pt(2.0, 1.0)));
        assert!(!pt(1.0, 1.0).dominates(&pt(1.0, 1.0)));
    }

    #[test]
    fn frontier_is_dominant_free_and_sorted() {
        let pts = vec![
            pt(4.0, 1.0),
            pt(1.0, 10.0),
            pt(2.0, 3.0),
            pt(2.5, 3.5), // dominated by (2.0, 3.0)
            pt(3.0, 2.0),
            pt(5.0, 5.0), // dominated
        ];
        let f = pareto_frontier(&pts);
        assert_eq!(f.len(), 4);
        for i in 0..f.len() {
            for j in 0..f.len() {
                if i != j {
                    assert!(!f[i].dominates(&f[j]), "frontier not dominant-free");
                }
            }
        }
        // Latency ascending, cost descending.
        for w in f.windows(2) {
            assert!(w[0].latency < w[1].latency);
            assert!(w[0].cost.amount() > w[1].cost.amount());
        }
    }

    #[test]
    fn tied_latency_keeps_cheaper() {
        let f = pareto_frontier(&[pt(1.0, 5.0), pt(1.0, 2.0)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cost, Dollars::new(2.0));
    }

    #[test]
    fn inflation_measures_off_frontier_distance() {
        let f = pareto_frontier(&[pt(1.0, 10.0), pt(2.0, 4.0), pt(4.0, 1.0)]);
        // A point at latency 2 costing 8 is 2x the frontier's 4.
        assert!((cost_inflation(&f, &pt(2.0, 8.0)) - 2.0).abs() < 1e-12);
        // On-frontier point has inflation 1.
        assert!((cost_inflation(&f, &pt(4.0, 1.0)) - 1.0).abs() < 1e-12);
        // Faster than anything on the frontier: defined as 1.
        assert_eq!(cost_inflation(&f, &pt(0.5, 100.0)), 1.0);
    }
}

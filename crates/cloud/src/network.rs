//! Network fabric model.
//!
//! §2: "allocating more machines does not always bring performance boosts for
//! free because most database operators do not exhibit perfectly-linear
//! scalability. Many of them (e.g., hash partitioning) require exchanging
//! data between the machines where the network could become the system's
//! bottleneck." This module encodes that mechanism:
//!
//! * each node's NIC caps its own send/receive rate;
//! * the fabric's **bisection bandwidth grows sub-linearly** with cluster
//!   size (`base · d^gamma`, `gamma < 1` — oversubscribed data-center
//!   topologies);
//! * a hash-partition exchange moves `(d-1)/d` of the data across the fabric
//!   ([`crate::work::WorkModels::exchange_wire_secs`]).
//!
//! Together these produce the knee in the cost-vs-DOP curve (experiment E1)
//! and the "pay more for worse latency" regime beyond it.

/// Parameters of the cluster interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Per-node NIC line rate, bytes/second.
    pub nic_bytes_per_sec: f64,
    /// Bisection bandwidth for a 1-node "fabric"; total fabric bandwidth is
    /// `base · d^gamma` for a `d`-node cluster.
    pub fabric_base_bytes_per_sec: f64,
    /// Sub-linear fabric scaling exponent in `(0, 1]`.
    pub fabric_gamma: f64,
}

impl NetworkModel {
    /// A 10 Gbit NIC with a moderately oversubscribed fabric. `gamma = 0.75`
    /// means doubling the cluster multiplies total fabric bandwidth by ~1.68.
    pub fn standard() -> NetworkModel {
        NetworkModel {
            nic_bytes_per_sec: 1.25e9,
            fabric_base_bytes_per_sec: 1.25e9,
            fabric_gamma: 0.75,
        }
    }

    /// Aggregate cross-cluster bandwidth available to a `d`-node exchange.
    pub fn aggregate_exchange_bw(&self, d: u32) -> f64 {
        if d <= 1 {
            return f64::INFINITY; // single node: no network hop
        }
        let d_f = d as f64;
        let nic_bound = d_f * self.nic_bytes_per_sec;
        let fabric_bound = self.fabric_base_bytes_per_sec * d_f.powf(self.fabric_gamma);
        nic_bound.min(fabric_bound)
    }

    /// Effective per-node exchange bandwidth at DOP `d`.
    pub fn per_node_exchange_bw(&self, d: u32) -> f64 {
        if d <= 1 {
            f64::INFINITY
        } else {
            self.aggregate_exchange_bw(d) / d as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::WorkModels;

    #[test]
    fn per_node_bandwidth_degrades_with_scale() {
        let n = NetworkModel::standard();
        let bw4 = n.per_node_exchange_bw(4);
        let bw64 = n.per_node_exchange_bw(64);
        assert!(
            bw64 < bw4,
            "oversubscribed fabric must degrade per-node bw: {bw64} vs {bw4}"
        );
    }

    #[test]
    fn non_blocking_fabric_keeps_per_node_bw() {
        // An idealized non-blocking fabric (`gamma = 1`).
        let n = NetworkModel {
            fabric_gamma: 1.0,
            ..NetworkModel::standard()
        };
        let bw4 = n.per_node_exchange_bw(4);
        let bw64 = n.per_node_exchange_bw(64);
        // NIC-bound on both ends: identical per-node bandwidth.
        assert!((bw4 - bw64).abs() / bw4 < 1e-9);
    }

    #[test]
    fn exchange_time_has_a_knee() {
        // Fixed data volume, each of `d` nodes sending its `1/d` share through
        // the priced wire formula: time should fall, but far sub-linearly.
        let w = WorkModels::standard();
        let bytes = 100e9;
        let t = |d: u32| w.exchange_wire_secs(bytes / d as f64, d);
        let (t2, t16, t256) = (t(2), t(16), t(256));
        assert!(t16 < t2);
        // Beyond the knee, adding nodes barely helps: with gamma = 0.75 the
        // 16 -> 256 speedup is capped near (256/16)^0.75 = 8, far below the
        // 16x ideal.
        let speedup = t16 / t256;
        assert!(speedup < 8.5, "speedup {speedup} should be far sub-linear");
    }

    #[test]
    fn aggregate_bw_monotone_in_d() {
        let n = NetworkModel::standard();
        let mut prev = 0.0;
        for d in 2..200u32 {
            let bw = n.aggregate_exchange_bw(d);
            assert!(bw >= prev, "aggregate bw must not shrink with d");
            prev = bw;
        }
    }
}

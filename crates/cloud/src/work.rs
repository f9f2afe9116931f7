//! Per-operator work models: the calibrated formulas that convert data
//! volumes into machine seconds.
//!
//! §3.1: "For each physical operator, we design a scalability model that
//! outputs its processing throughput given the data size and the degree of
//! parallelism. The model also refers to the relevant hardware parameters
//! that are calibrated before the service starts. We found that simple
//! mathematical formulas are good enough to model the scalability of most
//! physical operators."
//!
//! Both the execution engine (to advance virtual time) and the cost
//! estimator (to predict it) consume *this* module — the estimator's error
//! in experiments then comes from the causes the paper names (cardinality
//! misestimation, data skew, morsel-granularity scheduling), not from two
//! hand-written models drifting apart.

use ci_types::SimDuration;

use crate::network::NetworkModel;
use crate::node::HardwareProfile;
use crate::objectstore::ObjectStoreModel;

/// Cluster creation and resize latency under the provider's warm pool (§3):
/// the executor's default and the latency the cost estimator prices.
pub const RESIZE_LATENCY: SimDuration = SimDuration::from_millis(500);

/// Rows per morsel when materialized state is split: the executor's default
/// and the split the cost estimator prices.
pub const MORSEL_ROWS: usize = 65_536;

/// Bundled hardware, network, and storage models.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkModels {
    /// Node compute rates.
    pub hw: HardwareProfile,
    /// Interconnect model.
    pub net: NetworkModel,
    /// Object-store model.
    pub store: ObjectStoreModel,
}

impl WorkModels {
    /// The standard calibration used across experiments.
    pub fn standard() -> WorkModels {
        WorkModels {
            hw: HardwareProfile::standard(),
            net: NetworkModel::standard(),
            store: ObjectStoreModel::standard(),
        }
    }

    /// Node-level compute throughput multiplier (all cores of one node).
    fn cores(&self) -> f64 {
        self.hw.node.cores as f64
    }

    /// Seconds for one node to fetch a `bytes`-sized object while `d` nodes
    /// scan concurrently.
    pub fn scan_fetch_secs(&self, bytes: f64, d: u32) -> f64 {
        self.store.fetch_secs(bytes, d)
    }

    /// Seconds for one node to decode `bytes` of columnar data.
    pub fn scan_decode_secs(&self, bytes: f64) -> f64 {
        bytes / (self.hw.scan_bytes_per_sec_per_core * self.cores())
    }

    /// Seconds for one node to evaluate a filter/projection over `rows`.
    pub fn filter_secs(&self, rows: f64) -> f64 {
        rows / (self.hw.filter_rows_per_sec_per_core * self.cores())
    }

    /// Seconds for one node to insert `rows` into a join hash table.
    pub fn build_secs(&self, rows: f64) -> f64 {
        rows / (self.hw.hash_build_rows_per_sec_per_core * self.cores())
    }

    /// Seconds for one node to probe `rows` against a hash table.
    pub fn probe_secs(&self, rows: f64) -> f64 {
        rows / (self.hw.hash_probe_rows_per_sec_per_core * self.cores())
    }

    /// Seconds for one node to fold `rows` into aggregation state.
    pub fn agg_update_secs(&self, rows: f64) -> f64 {
        rows / (self.hw.agg_rows_per_sec_per_core * self.cores())
    }

    /// Seconds of CPU work for one node to hash-partition `rows` for an
    /// exchange.
    pub fn exchange_cpu_secs(&self, rows: f64) -> f64 {
        rows / (self.hw.exchange_part_rows_per_sec_per_core * self.cores())
    }

    /// Seconds of wire time charged to the sending node for exchanging
    /// `bytes` of its stream across a `d`-node cluster.
    pub fn exchange_wire_secs(&self, bytes: f64, d: u32) -> f64 {
        if d <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let cross = bytes * (d as f64 - 1.0) / d as f64;
        cross / self.net.per_node_exchange_bw(d)
    }

    /// Serial seconds at the single receiver of a gather of `bytes` from a
    /// `d`-node cluster (the receiver NIC is the bottleneck).
    pub fn gather_secs(&self, bytes: f64, d: u32) -> f64 {
        if d <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        bytes * (d as f64 - 1.0) / d as f64 / self.net.nic_bytes_per_sec
    }

    /// Wall-clock span for a parallel sort of `rows` across `d` nodes
    /// (comparison sort: `n·log2(n)` work split over nodes, plus a merge
    /// pass charged at filter rate).
    pub fn sort_finalize_secs(&self, rows: f64, d: u32) -> f64 {
        if rows <= 1.0 {
            return 0.0;
        }
        let work = rows * rows.log2();
        let parallel = work / (self.hw.sort_rows_log_per_sec_per_core * self.cores() * d as f64);
        let merge = rows / (self.hw.filter_rows_per_sec_per_core * self.cores());
        parallel + merge
    }

    /// Fixed dispatch overhead per morsel.
    pub fn morsel_overhead_secs(&self) -> f64 {
        self.hw.morsel_overhead_secs
    }

    /// Serial startup span for a pipeline that exchanges data: each node
    /// opens `d-1` peer connections. Grows linearly in cluster size — the
    /// mechanism that makes over-scaled exchange pipelines *slower*, not
    /// just more expensive.
    pub fn exchange_startup_secs(&self, d: u32) -> f64 {
        if d <= 1 {
            0.0
        } else {
            (d as f64 - 1.0) * self.hw.exchange_conn_setup_secs
        }
    }

    /// One-off per-node pipeline startup span.
    pub fn pipeline_startup_secs(&self) -> f64 {
        self.hw.pipeline_startup_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_rates_scale_with_cores() {
        let w = WorkModels::standard();
        let one_core = {
            let mut w2 = w.clone();
            w2.hw.node.cores = 1;
            w2
        };
        assert!(w.filter_secs(1e6) < one_core.filter_secs(1e6));
        assert!(
            (one_core.filter_secs(1e6) / w.filter_secs(1e6) - w.hw.node.cores as f64).abs() < 1e-6
        );
    }

    #[test]
    fn exchange_wire_time_zero_on_single_node() {
        let w = WorkModels::standard();
        assert_eq!(w.exchange_wire_secs(1e9, 1), 0.0);
        assert!(w.exchange_wire_secs(1e9, 8) > 0.0);
    }

    #[test]
    fn exchange_per_node_time_grows_past_knee() {
        let w = WorkModels::standard();
        // Fixed bytes per node: as d grows the fabric share shrinks, so the
        // per-node wire time grows.
        let t8 = w.exchange_wire_secs(1e9, 8);
        let t128 = w.exchange_wire_secs(1e9, 128);
        assert!(
            t128 > t8,
            "per-node exchange should degrade: {t8} -> {t128}"
        );
    }

    #[test]
    fn exchange_startup_is_linear_in_peers() {
        let w = WorkModels::standard();
        let setup = w.hw.exchange_conn_setup_secs;
        assert!(setup > 0.0);
        assert_eq!(w.exchange_startup_secs(1), 0.0);
        for d in [2u32, 8, 64] {
            let t = w.exchange_startup_secs(d);
            assert!((t - (d - 1) as f64 * setup).abs() < 1e-12, "dop {d}: {t}");
        }
    }

    #[test]
    fn sort_scales_superlinearly_in_rows() {
        let w = WorkModels::standard();
        let t1 = w.sort_finalize_secs(1e6, 1);
        let t10 = w.sort_finalize_secs(1e7, 1);
        assert!(t10 > 10.0 * t1, "n log n growth expected");
        assert_eq!(w.sort_finalize_secs(1.0, 4), 0.0);
    }

    #[test]
    fn gather_is_receiver_bound() {
        let w = WorkModels::standard();
        let g4 = w.gather_secs(1e9, 4);
        let g64 = w.gather_secs(1e9, 64);
        // Receiver NIC bound: nearly flat in d (only the (d-1)/d factor moves).
        assert!((g64 / g4) < 1.4);
        assert_eq!(w.gather_secs(1e9, 1), 0.0);
    }

    #[test]
    fn build_slower_than_probe() {
        let w = WorkModels::standard();
        assert!(w.build_secs(1e6) > w.probe_secs(1e6));
    }
}

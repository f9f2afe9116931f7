//! Compute node types and their hardware characterization.
//!
//! A [`NodeType`] is what the provider sells (cores, memory, NIC, price); a
//! [`HardwareProfile`] additionally carries the *calibrated* per-operator
//! processing rates that both the execution engine (to advance virtual time)
//! and the cost estimator (to predict it, §3.1: "hardware parameters that are
//! calibrated before the service starts") consume. Keeping one shared source
//! of truth for raw rates is deliberate: estimation error in experiments then
//! comes from cardinality error, data skew, and scheduling granularity — the
//! causes the paper discusses — not from two models drifting apart.

use ci_types::money::DollarsPerSecond;

/// A purchasable virtual machine shape.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeType {
    /// Marketing name, e.g. `"standard-8"`.
    pub name: String,
    /// Physical cores per node.
    pub cores: u32,
    /// Memory capacity in bytes.
    pub memory_bytes: u64,
    /// NIC line rate in bytes/second (full duplex assumed).
    pub nic_bytes_per_sec: f64,
    /// Per-node bandwidth to the object store, bytes/second.
    pub object_store_bytes_per_sec: f64,
    /// On-demand price.
    pub rate: DollarsPerSecond,
}

impl NodeType {
    /// The default node shape used across experiments: an 8-core, 64 GiB,
    /// 10 Gbit node at $2.00/hour — in the range of common cloud DW nodes.
    pub fn standard() -> NodeType {
        NodeType {
            name: "standard-8".to_owned(),
            cores: 8,
            memory_bytes: 64 << 30,
            nic_bytes_per_sec: 1.25e9,         // 10 Gbit/s
            object_store_bytes_per_sec: 0.6e9, // S3-like per-VM ceiling
            rate: DollarsPerSecond::per_hour(2.0),
        }
    }
}

/// Calibrated per-core processing rates for each operator class, plus
/// fixed scheduling overheads.
///
/// Rates are deliberately *simple scalar throughputs* — the paper's
/// explainability requirement (§3.1) rules out opaque models; every term
/// here maps to a sentence a database engineer can reason about.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Node shape this profile calibrates.
    pub node: NodeType,
    /// Table-scan decode rate, bytes/second/core (post object-store fetch).
    pub scan_bytes_per_sec_per_core: f64,
    /// Filter/projection evaluation rate, rows/second/core.
    pub filter_rows_per_sec_per_core: f64,
    /// Hash-table build rate, rows/second/core.
    pub hash_build_rows_per_sec_per_core: f64,
    /// Hash-table probe rate, rows/second/core.
    pub hash_probe_rows_per_sec_per_core: f64,
    /// Aggregation update rate, rows/second/core.
    pub agg_rows_per_sec_per_core: f64,
    /// Sort rate constant: a sort of `n` rows costs `n · log2(n) / rate` core-seconds.
    pub sort_rows_log_per_sec_per_core: f64,
    /// CPU cost of partitioning a row for exchange, rows/second/core.
    pub exchange_part_rows_per_sec_per_core: f64,
    /// Fixed cost to dispatch one morsel (scheduling + cache warmup), seconds.
    pub morsel_overhead_secs: f64,
    /// One-off per-pipeline startup cost per node (code/cache setup), seconds.
    pub pipeline_startup_secs: f64,
    /// Per-peer connection setup for exchange fan-out, seconds. Each node of
    /// a `d`-node exchanging pipeline opens `d-1` connections serially at
    /// startup — the overhead that makes *over*-scaling exchange-heavy
    /// pipelines actively slower (§2: "a user may end up paying more for the
    /// same or even worse query performance").
    pub exchange_conn_setup_secs: f64,
}

impl HardwareProfile {
    /// Calibration for [`NodeType::standard`]. Rates are representative of a
    /// vectorized engine on commodity cores (order-of-magnitude realistic;
    /// absolute values only shift all experiments uniformly).
    pub fn standard() -> HardwareProfile {
        HardwareProfile {
            node: NodeType::standard(),
            scan_bytes_per_sec_per_core: 400e6,
            filter_rows_per_sec_per_core: 120e6,
            hash_build_rows_per_sec_per_core: 18e6,
            hash_probe_rows_per_sec_per_core: 30e6,
            agg_rows_per_sec_per_core: 40e6,
            sort_rows_log_per_sec_per_core: 150e6,
            exchange_part_rows_per_sec_per_core: 60e6,
            morsel_overhead_secs: 50e-6,
            pipeline_startup_secs: 20e-3,
            exchange_conn_setup_secs: 150e-6,
        }
    }

    /// Aggregate scan decode rate for one node (all cores).
    pub fn node_scan_bytes_per_sec(&self) -> f64 {
        self.scan_bytes_per_sec_per_core * self.node.cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_rate_is_hourly_two_dollars() {
        let n = NodeType::standard();
        assert!((n.rate.hourly() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_scan_rate_scales_with_cores() {
        let p = HardwareProfile::standard();
        assert!(
            (p.node_scan_bytes_per_sec() - p.scan_bytes_per_sec_per_core * p.node.cores as f64)
                .abs()
                < 1.0
        );
    }
}

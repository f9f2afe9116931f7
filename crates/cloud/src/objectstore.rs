//! Object-store (S3/Blob-style) bandwidth model.
//!
//! The storage layer of Figure 3 is a shared object store. For scans, what
//! matters to cost and DOP planning is: per-node fetch bandwidth is capped,
//! per-request first-byte latency is significant (so micro-partition size
//! matters), and the aggregate service bandwidth is huge but finite. Table
//! scans therefore parallelize almost linearly until the (high) aggregate
//! cap — the paper's example of an operator whose scale-out is cheap (§3).

/// Parameters of the simulated object store.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStoreModel {
    /// Max fetch bandwidth one node can draw, bytes/second.
    pub per_node_bytes_per_sec: f64,
    /// Aggregate bandwidth the store serves across all nodes, bytes/second.
    pub aggregate_bytes_per_sec: f64,
    /// First-byte latency per GET request, seconds.
    pub request_latency_secs: f64,
}

impl ObjectStoreModel {
    /// S3-like defaults: ~600 MB/s per VM, 200 GB/s aggregate, 30 ms first byte.
    pub fn standard() -> ObjectStoreModel {
        ObjectStoreModel {
            per_node_bytes_per_sec: 0.6e9,
            aggregate_bytes_per_sec: 200e9,
            request_latency_secs: 30e-3,
        }
    }

    /// Effective per-node fetch bandwidth when `d` nodes scan concurrently.
    pub fn per_node_bw(&self, d: u32) -> f64 {
        if d == 0 {
            return 0.0;
        }
        self.per_node_bytes_per_sec
            .min(self.aggregate_bytes_per_sec / d as f64)
    }

    /// Time for one node to fetch a contiguous object of `bytes` while `d`
    /// nodes are scanning concurrently.
    pub fn fetch_secs(&self, bytes: f64, d: u32) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.request_latency_secs + bytes / self.per_node_bw(d.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_bw_hits_aggregate_cap() {
        let s = ObjectStoreModel::standard();
        // Few nodes: limited by the per-node ceiling.
        assert!((s.per_node_bw(4) - 0.6e9).abs() < 1.0);
        // Many nodes: limited by the aggregate cap (200e9 / 1000 = 0.2e9).
        assert!((s.per_node_bw(1000) - 0.2e9).abs() < 1.0);
    }

    #[test]
    fn request_latency_penalizes_tiny_objects() {
        let s = ObjectStoreModel::standard();
        let bytes = 1e9;
        let few = 8.0 * s.fetch_secs(bytes / 8.0, 1);
        let many = 8192.0 * s.fetch_secs(bytes / 8192.0, 1);
        assert!(
            many > few,
            "8192 tiny GETs ({many}s) must cost more than 8 big ones ({few}s)"
        );
    }

    #[test]
    fn degenerate_inputs() {
        let s = ObjectStoreModel::standard();
        assert_eq!(s.fetch_secs(0.0, 4), 0.0);
    }
}

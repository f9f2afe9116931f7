//! The plain-text `EXPLAIN ANALYZE`-style profile report: per physical plan
//! node, the rows it produced, the bytes it moved, the faults it absorbed,
//! and the **Dollars** it was billed — the query's total cost prorated over
//! measured node busy time.

use ci_types::Dollars;

/// One physical plan node's attributed measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeProfile {
    /// Plan node index (preorder position in the physical plan).
    pub index: usize,
    /// Operator label (e.g. `HashJoin`).
    pub label: &'static str,
    /// Planner's row estimate for this node.
    pub est_rows: f64,
    /// Rows the node actually produced.
    pub actual_rows: u64,
    /// Virtual seconds the node kept the machine busy (fetch + compute +
    /// recovery charged to it).
    pub busy_secs: f64,
    /// The node's share of the query bill (prorated over `busy_secs`; the
    /// shares sum bit-exactly to the query's total cost).
    pub dollars: Dollars,
    /// Encoded bytes fetched from object storage for this node.
    pub fetch_bytes: u64,
    /// Decoded logical bytes the node processed.
    pub decoded_bytes: u64,
    /// Wire-format bytes the node shipped (exchanges).
    pub wire_bytes: u64,
    /// Fetch retries charged to the node.
    pub retries: u64,
    /// Virtual microseconds of recovery time (retries, hedges, worker loss)
    /// charged to the node.
    pub recovery_us: u64,
}

/// The whole-query profile. Contains only deterministic quantities — for a
/// fixed seed, [`ProfileReport::text`] is byte-identical across `Simulate`
/// and `Parallel` at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// The profiled query (SQL or a caller-supplied label).
    pub query: String,
    /// End-to-end virtual latency in seconds.
    pub latency_secs: f64,
    /// Billed machine-seconds (lease spans).
    pub machine_secs: f64,
    /// Total query cost; equals the fold of the node dollar shares.
    pub cost: Dollars,
    /// Result rows.
    pub result_rows: u64,
    /// Per-node rows/bytes/faults/dollars, in plan-node order.
    pub nodes: Vec<NodeProfile>,
}

impl ProfileReport {
    /// Renders the `EXPLAIN ANALYZE`-style table.
    pub fn text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== profile: {} ==\n", self.query));
        out.push_str(&format!(
            "latency {:.6}s  machine {:.6}s  cost ${:.9}  result rows {}\n",
            self.latency_secs,
            self.machine_secs,
            self.cost.amount(),
            self.result_rows
        ));
        out.push_str(&format!(
            "{:<4} {:<14} {:>12} {:>12} {:>10} {:>13} {:>12} {:>12} {:>10} {:>7} {:>11}\n",
            "node",
            "op",
            "est rows",
            "rows",
            "busy s",
            "dollars",
            "fetch B",
            "decoded B",
            "wire B",
            "retries",
            "recovery us"
        ));
        for n in &self.nodes {
            out.push_str(&format!(
                "{:<4} {:<14} {:>12.0} {:>12} {:>10.6} {:>13.9} {:>12} {:>12} {:>10} {:>7} {:>11}\n",
                format!("[{}]", n.index),
                n.label,
                n.est_rows,
                n.actual_rows,
                n.busy_secs,
                n.dollars.amount(),
                n.fetch_bytes,
                n.decoded_bytes,
                n.wire_bytes,
                n.retries,
                n.recovery_us
            ));
        }
        let attributed: Dollars = self.nodes.iter().map(|n| n.dollars).sum();
        out.push_str(&format!(
            "attributed ${:.9} of ${:.9} ({})\n",
            attributed.amount(),
            self.cost.amount(),
            if attributed == self.cost {
                "exact"
            } else {
                "MISMATCH"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(index: usize, dollars: f64) -> NodeProfile {
        NodeProfile {
            index,
            label: "Op",
            est_rows: 100.0,
            actual_rows: 90,
            busy_secs: 0.5,
            dollars: Dollars::new(dollars),
            fetch_bytes: 10,
            decoded_bytes: 20,
            wire_bytes: 0,
            retries: 1,
            recovery_us: 7,
        }
    }

    #[test]
    fn exact_attribution_is_reported() {
        let r = ProfileReport {
            query: "q".into(),
            latency_secs: 1.0,
            machine_secs: 2.0,
            cost: Dollars::new(0.75),
            result_rows: 3,
            nodes: vec![node(0, 0.25), node(1, 0.5)],
        };
        let text = r.text();
        assert!(text.contains("== profile: q =="), "{text}");
        assert!(text.contains("[0]"), "{text}");
        assert!(text.contains("exact"), "{text}");
        assert!(!text.contains("MISMATCH"), "{text}");
    }

    #[test]
    fn lossy_attribution_is_flagged() {
        let r = ProfileReport {
            query: "q".into(),
            latency_secs: 1.0,
            machine_secs: 2.0,
            cost: Dollars::new(1.0),
            result_rows: 3,
            nodes: vec![node(0, 0.25)],
        };
        assert!(r.text().contains("MISMATCH"));
    }
}

//! Join tree shapes: the search space of DAG planning and the bushy
//! rewrites of §3.2.

use std::collections::BTreeSet;
use std::fmt;

/// A binary join tree over relation indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinTree {
    /// A base relation.
    Leaf(usize),
    /// A join of two subtrees. By convention the **right child is the build
    /// side** of the corresponding hash join and the left child is the probe
    /// side — so a left-deep chain probes bottom-up through every join in a
    /// single pipeline while all build pipelines can run concurrently (the
    /// classic pipelined left-deep execution).
    Join(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    /// A left-deep chain in the given relation order:
    /// `((r0 ⋈ r1) ⋈ r2) ⋈ ...` — the shape traditional optimizers restrict
    /// to (§3.2: "bushy joins are usually ignored in traditional optimizers").
    pub fn left_deep(order: &[usize]) -> JoinTree {
        assert!(!order.is_empty(), "empty join order");
        let mut tree = JoinTree::Leaf(order[0]);
        for &r in &order[1..] {
            tree = JoinTree::Join(Box::new(tree), Box::new(JoinTree::Leaf(r)));
        }
        tree
    }

    /// The set of relation indices in this subtree.
    pub fn relations(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut BTreeSet<usize>) {
        match self {
            JoinTree::Leaf(r) => {
                out.insert(*r);
            }
            JoinTree::Join(l, r) => {
                l.collect(out);
                r.collect(out);
            }
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 1,
            JoinTree::Join(l, r) => l.leaf_count() + r.leaf_count(),
        }
    }

    /// Height of the tree (leaf = 0).
    pub fn height(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 0,
            JoinTree::Join(l, r) => 1 + l.height().max(r.height()),
        }
    }

    /// Bushiness in `[0, 1]`: 0 for a left-deep chain, 1 for a perfectly
    /// balanced tree. Defined as how far the height is below the chain
    /// height, normalized. Trees with < 3 leaves are trivially 0.
    pub fn bushiness(&self) -> f64 {
        let n = self.leaf_count();
        if n < 3 {
            return 0.0;
        }
        let chain_h = n - 1;
        let min_h = (n as f64).log2().ceil() as usize;
        if chain_h == min_h {
            return 0.0;
        }
        (chain_h - self.height()) as f64 / (chain_h - min_h) as f64
    }

    /// `true` if every join node has a leaf right child (left-deep shape).
    pub fn is_left_deep(&self) -> bool {
        match self {
            JoinTree::Leaf(_) => true,
            JoinTree::Join(l, r) => matches!(r.as_ref(), JoinTree::Leaf(_)) && l.is_left_deep(),
        }
    }
}

impl fmt::Display for JoinTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinTree::Leaf(r) => write!(f, "R{r}"),
            JoinTree::Join(l, r) => write!(f, "({l} ⋈ {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_deep_shape() {
        let t = JoinTree::left_deep(&[0, 1, 2, 3]);
        assert_eq!(t.to_string(), "(((R0 ⋈ R1) ⋈ R2) ⋈ R3)");
        assert!(t.is_left_deep());
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.to_string().matches('⋈').count(), 3, "join nodes");
        assert_eq!(t.height(), 3);
        assert_eq!(t.relations(), [0, 1, 2, 3].into_iter().collect());
    }

    #[test]
    fn bushiness_scale() {
        let chain = JoinTree::left_deep(&[0, 1, 2, 3]);
        assert_eq!(chain.bushiness(), 0.0);
        let balanced = JoinTree::Join(
            Box::new(JoinTree::Join(
                Box::new(JoinTree::Leaf(0)),
                Box::new(JoinTree::Leaf(1)),
            )),
            Box::new(JoinTree::Join(
                Box::new(JoinTree::Leaf(2)),
                Box::new(JoinTree::Leaf(3)),
            )),
        );
        assert_eq!(balanced.bushiness(), 1.0);
        assert!(!balanced.is_left_deep());
        // Two relations: trivially 0.
        assert_eq!(JoinTree::left_deep(&[0, 1]).bushiness(), 0.0);
    }

    #[test]
    fn single_leaf() {
        let t = JoinTree::left_deep(&[5]);
        assert_eq!(t, JoinTree::Leaf(5));
        assert_eq!(t.to_string(), "R5");
        assert_eq!(t.height(), 0);
    }
}

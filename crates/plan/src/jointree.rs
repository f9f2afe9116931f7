//! Join tree shapes: DAG planning's left-deep chain, and any binary shape
//! `build_plan` can lower.

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
        assert_eq!(t.relations(), [0, 1, 2, 3].into_iter().collect());
    }

    #[test]
    fn single_leaf() {
        let t = JoinTree::left_deep(&[5]);
        assert_eq!(t, JoinTree::Leaf(5));
        assert_eq!(t.to_string(), "R5");
    }
}

//! §3.2's bushy plan variants, as the E5 claim test's reference shapes.
//!
//! "After receiving a left-deep plan from DAG planning, we would reorganize
//! the join shape to make a series of plan variants that are increasingly
//! bushier. ... We then apply DOP planning to each of the plan variants and
//! choose the one that makes the best time-cost trade-offs under user
//! constraints."
//!
//! Variants are generated by recursively splitting the left-deep relation
//! order: at *bushiness level ℓ*, the top ℓ levels of the tree split their
//! relation sequence in half (yielding concurrent subtrees) and deeper
//! levels stay left-deep. Level 0 is the original chain; level ⌈log2 n⌉ is
//! a balanced tree. A split that disconnects the join graph fails at
//! `build_plan`. The optimizer plans the chain alone; E5 executes these
//! shapes next to it.

use ci_plan::jointree::JoinTree;

/// Join-tree variants of increasing bushiness from a left-deep relation
/// order. The first variant is always the left-deep chain itself;
/// duplicates are removed. At most `ceil(log2 n) + 1` variants result, and
/// none for an empty order.
pub fn bushy_variants(order: &[usize]) -> Vec<JoinTree> {
    let n = order.len();
    if n == 0 {
        return Vec::new();
    }
    let max_level = (n as f64).log2().ceil() as usize;
    let mut out: Vec<JoinTree> = Vec::new();
    for level in 0..=max_level {
        let t = build(order, level);
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

fn build(order: &[usize], split_levels: usize) -> JoinTree {
    if order.len() == 1 {
        return JoinTree::Leaf(order[0]);
    }
    if split_levels == 0 {
        return JoinTree::left_deep(order);
    }
    let mid = order.len().div_ceil(2);
    let left = build(&order[..mid], split_levels - 1);
    let right = build(&order[mid..], split_levels - 1);
    JoinTree::Join(Box::new(left), Box::new(right))
}

/// Number of leaves.
fn leaf_count(t: &JoinTree) -> usize {
    match t {
        JoinTree::Leaf(_) => 1,
        JoinTree::Join(l, r) => leaf_count(l) + leaf_count(r),
    }
}

/// Height of the tree (leaf = 0).
fn height(t: &JoinTree) -> usize {
    match t {
        JoinTree::Leaf(_) => 0,
        JoinTree::Join(l, r) => 1 + height(l).max(height(r)),
    }
}

/// Bushiness in `[0, 1]`: 0 for a left-deep chain, 1 for a perfectly
/// balanced tree. Defined as how far the height is below the chain
/// height, normalized. Trees with < 3 leaves are trivially 0.
pub fn bushiness(t: &JoinTree) -> f64 {
    let n = leaf_count(t);
    if n < 3 {
        return 0.0;
    }
    let chain_h = n - 1;
    let min_h = (n as f64).log2().ceil() as usize;
    if chain_h == min_h {
        return 0.0;
    }
    (chain_h - height(t)) as f64 / (chain_h - min_h) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_zero_is_left_deep() {
        let v = bushy_variants(&[0, 1, 2, 3]);
        assert_eq!(v[0], JoinTree::left_deep(&[0, 1, 2, 3]));
        assert_eq!(height(&v[0]), 3);
    }

    #[test]
    fn variants_get_bushier() {
        let v = bushy_variants(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(v.len() >= 2);
        let mut prev = -1.0;
        for t in &v {
            let b = bushiness(t);
            assert!(
                b >= prev,
                "bushiness must be non-decreasing: {b} after {prev} in {t}"
            );
            prev = b;
            // Every variant covers all relations.
            assert_eq!(leaf_count(t), 8);
            assert_eq!(t.relations(), (0..8).collect());
        }
        // The last variant is fully balanced.
        assert_eq!(bushiness(v.last().unwrap()), 1.0);
    }

    #[test]
    fn empty_order_has_no_variants() {
        assert!(bushy_variants(&[]).is_empty());
    }

    #[test]
    fn two_relations_single_variant() {
        let v = bushy_variants(&[3, 5]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], JoinTree::left_deep(&[3, 5]));
    }

    #[test]
    fn order_is_preserved_left_to_right() {
        // The in-order traversal of every variant equals the input order
        // (bushy rewrites re-shape, not re-order).
        fn inorder(t: &JoinTree, out: &mut Vec<usize>) {
            match t {
                JoinTree::Leaf(r) => out.push(*r),
                JoinTree::Join(l, r) => {
                    inorder(l, out);
                    inorder(r, out);
                }
            }
        }
        for t in bushy_variants(&[4, 2, 7, 1, 9]) {
            let mut seq = Vec::new();
            inorder(&t, &mut seq);
            assert_eq!(seq, vec![4, 2, 7, 1, 9], "variant {t}");
        }
    }

    #[test]
    fn bushiness_scale() {
        let chain = JoinTree::left_deep(&[0, 1, 2, 3]);
        assert_eq!(bushiness(&chain), 0.0);
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
        assert_eq!(bushiness(&balanced), 1.0);
        assert_eq!(height(&balanced), 2);
        // Two relations: trivially 0.
        assert_eq!(bushiness(&JoinTree::left_deep(&[0, 1])), 0.0);
    }
}

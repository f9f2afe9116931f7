//! Selection vectors: deferred row filtering.
//!
//! A [`SelectionVector`] names the surviving rows of a batch without moving
//! any column data. It has a dual interface — a **bool mask** over physical
//! rows (the form predicates produce) and **sorted physical indices** (the
//! form gathers consume) — and, internally, a dual *representation*: the
//! common "every survivor in one contiguous range" case (range predicates
//! over clustered data, morsel sub-slicing, all-pass filters) is stored as a
//! `[start, start + len)` **range run** with no index vector at all, while
//! scattered survivors store sorted indices. Every constructor canonicalizes
//! (contiguous index sets collapse to the range form), so composition,
//! slicing, and gathers hit the O(1)-metadata / memcpy fast paths whenever
//! the shape allows and fall back to O(selected) otherwise.
//!
//! Batches carry a selection through filter → project chains so each
//! operator composes masks instead of copying columns; materialization
//! happens once, at the pipeline sink (see [`crate::batch::RecordBatch`]).

use ci_types::{CiError, Result};

/// Internal storage: a contiguous range run or explicit sorted indices.
#[derive(Debug, Clone)]
enum Repr {
    /// Rows `[start, start + len)` — no materialized indices.
    Range { start: u32, len: u32 },
    /// Strictly increasing, non-contiguous physical rows.
    Indices(Vec<u32>),
}

/// Sorted physical row indices selected from a batch of `total` rows.
///
/// Invariants (enforced by construction): indices are strictly increasing
/// and every index is `< total`. Selections therefore preserve row order —
/// a batch read through its selection yields the exact subsequence the
/// eager filter would have materialized.
#[derive(Debug, Clone)]
pub struct SelectionVector {
    repr: Repr,
    /// Physical row count of the underlying batch.
    total: usize,
}

impl SelectionVector {
    /// Canonical constructor over validated sorted indices: collapses a
    /// contiguous run (including the empty set) into the range form.
    fn from_sorted(indices: Vec<u32>, total: usize) -> SelectionVector {
        let repr = match (indices.first(), indices.last()) {
            (None, _) => Repr::Range { start: 0, len: 0 },
            (Some(&first), Some(&last)) if (last - first) as usize + 1 == indices.len() => {
                Repr::Range {
                    start: first,
                    len: indices.len() as u32,
                }
            }
            _ => Repr::Indices(indices),
        };
        SelectionVector { repr, total }
    }

    /// Selection of every row where `mask` is true (the bool-mask
    /// constructor; `mask.len()` is the physical row count).
    pub fn from_mask(mask: &[bool]) -> SelectionVector {
        SelectionVector::from_sorted(compact(0.., mask), mask.len())
    }

    /// The contiguous-run selection `[start, start + len)` — the fast path
    /// for range survivors; errors when the run exceeds `total`.
    pub fn from_range(start: usize, len: usize, total: usize) -> Result<SelectionVector> {
        if start + len > total {
            return Err(CiError::Exec(format!(
                "selection range [{start}, {}) out of bounds for {total} rows",
                start + len
            )));
        }
        Ok(SelectionVector {
            repr: Repr::Range {
                // Canonical empty form is [0, 0) so empty selections compare
                // equal regardless of how they were built.
                start: if len == 0 { 0 } else { start as u32 },
                len: len as u32,
            },
            total,
        })
    }

    /// Selection from explicit physical indices; errors unless they are
    /// strictly increasing and in bounds (the invariants every consumer
    /// relies on for panic-free gathers).
    pub fn from_indices(indices: Vec<u32>, total: usize) -> Result<SelectionVector> {
        for pair in indices.windows(2) {
            if pair[0] >= pair[1] {
                return Err(CiError::Exec(format!(
                    "selection indices must be strictly increasing, got {} then {}",
                    pair[0], pair[1]
                )));
            }
        }
        if let Some(&last) = indices.last() {
            if last as usize >= total {
                return Err(CiError::Exec(format!(
                    "selection index {last} out of bounds for {total} rows"
                )));
            }
        }
        Ok(SelectionVector::from_sorted(indices, total))
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Range { len, .. } => *len as usize,
            Repr::Indices(v) => v.len(),
        }
    }

    /// `true` when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical row count of the underlying batch.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `true` when every physical row is selected.
    pub fn is_full(&self) -> bool {
        self.len() == self.total
    }

    /// The `(start, len)` of the contiguous run when the selection is one —
    /// consumers turn gathers into slices (a memcpy, or zero-copy for dict
    /// ids) on this fast path.
    pub fn as_range(&self) -> Option<(usize, usize)> {
        match &self.repr {
            Repr::Range { start, len } => Some((*start as usize, *len as usize)),
            Repr::Indices(_) => None,
        }
    }

    /// Selected fraction in `[0, 1]` (an empty batch counts as dense).
    pub fn density(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.len() as f64 / self.total as f64
        }
    }

    /// Physical row of logical row `i`. Panics if `i >= len()`.
    pub fn physical(&self, i: usize) -> usize {
        match &self.repr {
            Repr::Range { start, len } => {
                assert!(i < *len as usize, "selection row {i} out of {len}");
                *start as usize + i
            }
            Repr::Indices(v) => v[i] as usize,
        }
    }

    /// Iterates the selected physical rows in ascending order.
    pub fn iter(&self) -> SelectionIter<'_> {
        match &self.repr {
            Repr::Range { start, len } => SelectionIter::Range(*start..(*start + *len)),
            Repr::Indices(v) => SelectionIter::Indices(v.iter()),
        }
    }

    /// Composes a further filter: `keep[j]` is the verdict for the `j`-th
    /// *selected* row. O(selected) — this is what makes a filter over an
    /// already-selected batch free of column copies.
    pub fn refine(&self, keep: &[bool]) -> Result<SelectionVector> {
        if keep.len() != self.len() {
            return Err(CiError::Exec(format!(
                "selection refine mask has {} entries for {} selected rows",
                keep.len(),
                self.len()
            )));
        }
        let indices = match &self.repr {
            Repr::Range { start, .. } => compact(*start.., keep),
            Repr::Indices(v) => compact(v.iter().copied(), keep),
        };
        Ok(SelectionVector::from_sorted(indices, self.total))
    }

    /// Composes `next` (a selection over this selection's *logical* rows)
    /// into one selection over physical rows. Two range runs compose in
    /// O(1); mixed shapes fall back to O(selected) index mapping.
    pub fn compose(&self, next: &SelectionVector) -> Result<SelectionVector> {
        if next.total() != self.len() {
            return Err(CiError::Exec(format!(
                "composed selection covers {} rows, outer selects {}",
                next.total(),
                self.len()
            )));
        }
        if let (Some((outer_start, _)), Some((inner_start, inner_len))) =
            (self.as_range(), next.as_range())
        {
            return SelectionVector::from_range(outer_start + inner_start, inner_len, self.total);
        }
        let indices = next.iter().map(|i| self.physical(i) as u32).collect();
        Ok(SelectionVector::from_sorted(indices, self.total))
    }

    /// Sub-range `[offset, offset + len)` of the *selected* rows (logical
    /// slicing, e.g. morsel splitting); shares no column data, and slicing a
    /// range run stays a range run. Panics if `offset + len > self.len()` —
    /// callers validate against the logical row count first (as
    /// [`crate::batch::RecordBatch::slice`] does).
    pub fn slice(&self, offset: usize, len: usize) -> SelectionVector {
        assert!(
            offset + len <= self.len(),
            "selection slice [{offset}, {}) out of bounds for {} selected rows",
            offset + len,
            self.len()
        );
        match &self.repr {
            Repr::Range { start, .. } => SelectionVector {
                repr: Repr::Range {
                    // Same canonical empty form as `from_range`.
                    start: if len == 0 { 0 } else { start + offset as u32 },
                    len: len as u32,
                },
                total: self.total,
            },
            Repr::Indices(v) => {
                SelectionVector::from_sorted(v[offset..offset + len].to_vec(), self.total)
            }
        }
    }
}

/// The physical rows `rows[j]` with `keep[j]` true, in order, without a
/// branch per row: every row is written at the cursor, which then advances
/// by its verdict. The output holds the survivors plus the one slot a
/// rejected row past the last survivor writes, so the cursor (the
/// survivors so far) never leaves it.
fn compact(rows: impl Iterator<Item = u32>, keep: &[bool]) -> Vec<u32> {
    let survivors = keep.iter().filter(|&&k| k).count();
    let mut out = vec![0u32; survivors + 1];
    let mut n = 0;
    for (row, &k) in rows.zip(keep) {
        out[n] = row;
        n += usize::from(k);
    }
    out.truncate(n);
    out
}

/// Equality over the selected physical rows (and the physical total); the
/// range and index forms of the same row set compare equal, though canonical
/// construction means both sides normally share a form.
impl PartialEq for SelectionVector {
    fn eq(&self, other: &Self) -> bool {
        if self.total != other.total || self.len() != other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Range { start: a, .. }, Repr::Range { start: b, .. }) => a == b,
            _ => self.iter().eq(other.iter()),
        }
    }
}

/// Iterator over selected physical rows (range runs iterate without any
/// backing index storage).
#[derive(Debug, Clone)]
pub enum SelectionIter<'a> {
    /// Contiguous run.
    Range(std::ops::Range<u32>),
    /// Explicit indices.
    Indices(std::slice::Iter<'a, u32>),
}

impl Iterator for SelectionIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SelectionIter::Range(r) => r.next().map(|i| i as usize),
            SelectionIter::Indices(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelectionIter::Range(r) => r.size_hint(),
            SelectionIter::Indices(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for SelectionIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bool-mask view of `sel` over physical rows.
    fn to_mask(sel: &SelectionVector) -> Vec<bool> {
        let mut mask = vec![false; sel.total()];
        for i in sel.iter() {
            mask[i] = true;
        }
        mask
    }

    #[test]
    fn mask_round_trips_through_indices() {
        let mask = vec![true, false, false, true, true];
        let sel = SelectionVector::from_mask(&mask);
        assert_eq!(sel.len(), 3);
        assert_eq!(sel.total(), 5);
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 3, 4]);
        assert_eq!(to_mask(&sel), mask);
        assert_eq!(sel.physical(1), 3);
        assert!(sel.as_range().is_none(), "scattered rows stay indices");
    }

    #[test]
    fn contiguous_masks_collapse_to_range_runs() {
        let sel = SelectionVector::from_mask(&[false, true, true, true, false]);
        assert_eq!(sel.as_range(), Some((1, 3)));
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(sel.physical(2), 3);
        assert_eq!(to_mask(&sel), vec![false, true, true, true, false]);
        // The same rows via from_indices normalize identically.
        let via_indices = SelectionVector::from_indices(vec![1, 2, 3], 5).unwrap();
        assert_eq!(sel, via_indices);
        assert_eq!(via_indices.as_range(), Some((1, 3)));
    }

    #[test]
    fn from_range_validates_bounds() {
        let r = SelectionVector::from_range(2, 3, 5).unwrap();
        assert_eq!(r.len(), 3);
        assert!(!r.is_full());
        assert!(SelectionVector::from_range(3, 3, 5).is_err());
        let full = SelectionVector::from_range(0, 4, 4).unwrap();
        assert!(full.is_full());
    }

    #[test]
    fn empty_selections_are_canonical() {
        // However an empty selection is built, it compares equal.
        let a = SelectionVector::from_range(3, 0, 5).unwrap();
        let b = SelectionVector::from_mask(&[false; 5]);
        let c = SelectionVector::from_range(1, 2, 5).unwrap().slice(1, 0);
        let d = SelectionVector::from_indices(vec![], 5).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
        assert_eq!(a.as_range(), Some((0, 0)));
        assert_eq!(c.as_range(), Some((0, 0)));
    }

    #[test]
    fn from_indices_validates() {
        assert!(SelectionVector::from_indices(vec![0, 2, 4], 5).is_ok());
        let unsorted = SelectionVector::from_indices(vec![2, 1], 5);
        assert!(unsorted.is_err());
        let dup = SelectionVector::from_indices(vec![1, 1], 5);
        assert!(dup.is_err());
        let oob = SelectionVector::from_indices(vec![1, 5], 5);
        assert!(oob.is_err());
    }

    #[test]
    fn refine_composes_over_selected_rows() {
        let sel = SelectionVector::from_mask(&[true, false, true, true, false]);
        // Verdicts for physical rows 0, 2, 3.
        let refined = sel.refine(&[false, true, true]).unwrap();
        assert_eq!(refined.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(refined.total(), 5);
        assert_eq!(refined.as_range(), Some((2, 2)), "survivors re-collapse");
        assert!(sel.refine(&[true]).is_err(), "mask length checked");
        // Refining a range run works over its virtual rows.
        let run = SelectionVector::from_range(1, 3, 6).unwrap();
        let r = run.refine(&[true, false, true]).unwrap();
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn compose_stacks_selections() {
        // Range ∘ range stays a range without touching indices.
        let outer = SelectionVector::from_range(10, 20, 100).unwrap();
        let inner = SelectionVector::from_range(5, 4, 20).unwrap();
        let c = outer.compose(&inner).unwrap();
        assert_eq!(c.as_range(), Some((15, 4)));
        assert_eq!(c.total(), 100);
        // Mixed shapes map index by index.
        let scattered = SelectionVector::from_indices(vec![0, 2, 19], 20).unwrap();
        let m = outer.compose(&scattered).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![10, 12, 29]);
        // Cardinality mismatch is rejected.
        assert!(outer
            .compose(&SelectionVector::from_range(0, 1, 3).unwrap())
            .is_err());
    }

    #[test]
    fn density_full_and_empty() {
        let full = SelectionVector::from_mask(&[true, true]);
        assert!(full.is_full());
        assert_eq!(full.density(), 1.0);
        assert_eq!(full.as_range(), Some((0, 2)));
        let none = SelectionVector::from_mask(&[false, false]);
        assert!(none.is_empty());
        assert_eq!(none.density(), 0.0);
        let empty_batch = SelectionVector::from_mask(&[]);
        assert_eq!(empty_batch.density(), 1.0, "empty batches count as dense");
        assert!(empty_batch.is_full());
    }

    #[test]
    fn slice_is_logical() {
        let sel = SelectionVector::from_mask(&[true, false, true, true, true]);
        let s = sel.slice(1, 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(s.total(), 5);
        assert_eq!(s.as_range(), Some((2, 2)), "contiguous tail collapses");
        // Slicing a range run never materializes indices.
        let run = SelectionVector::from_range(4, 8, 20).unwrap();
        assert_eq!(run.slice(2, 3).as_range(), Some((6, 3)));
    }
}

//! Per-table string dictionaries.
//!
//! A [`Dictionary`] interns every distinct string of one table column once,
//! in first-appearance order, so batches can carry compact `u32` ids instead
//! of owned `String`s. The dictionary is shared via `Arc` by every batch
//! derived from the table — filter, take, slice, and morsel splitting all
//! move 4-byte ids and bump a refcount instead of cloning heap strings.
//!
//! Because entries are interned from the column's actual values, the
//! dictionary length is the column's **exact** number of distinct values,
//! which the catalog statistics and the cost estimator read directly.

use std::collections::HashMap;
use std::sync::Arc;

/// An immutable-by-convention interning table for one string column.
///
/// Entry order is first-appearance order over the column scanned top to
/// bottom, so two identical tables always produce bit-identical dictionaries
/// (a workspace determinism requirement).
///
/// Each distinct string is allocated **once**: the id-ordered entry list and
/// the reverse index share one `Arc<str>` per entry, so the dictionary's
/// heap footprint is a single copy of its distinct values (plus refcounts),
/// and cloning for an `Arc::make_mut` merge bumps refcounts instead of
/// duplicating string payloads.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Distinct values, indexed by id (allocation shared with `index`).
    values: Vec<Arc<str>>,
    /// Reverse index: value → id (allocation shared with `values`).
    index: HashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Returns the id of `s`, interning it if new (one shared allocation
    /// for both the entry list and the reverse index).
    ///
    /// # Panics
    ///
    /// On a new string once the dictionary holds 2^32 entries, which `u32`
    /// ids cannot number. The entry list alone would then take 64 GiB of
    /// string handles, so no table this system builds comes near it.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("dictionary overflow");
        let entry: Arc<str> = Arc::from(s);
        self.values.push(entry.clone());
        self.index.insert(entry, id);
        id
    }

    /// The string for an id. Panics if the id was not produced by this
    /// dictionary.
    pub fn get(&self, id: u32) -> &str {
        &self.values[id as usize]
    }

    /// The id of `s`, if it was interned.
    pub fn id_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Number of distinct entries — the exact NDV of the encoded column.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All entries in id order.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }

    /// Encoded payload bytes of the entry for `id` (length + 4-byte header):
    /// the bytes [`crate::column::ColumnData::byte_size`] and a Plain page
    /// count per string, whatever dictionary holds it, so dictionaries are
    /// cost-transparent.
    pub fn value_bytes(&self, id: u32) -> usize {
        self.values[id as usize].len() + 4
    }

    /// Every entry's rank in lexicographic order: `ranks[id]` orders entry
    /// `id`. Lets sorts compare dict columns with one integer comparison
    /// per row after an `O(n log n)` prepass over the `n` entries.
    pub fn ranks(&self) -> Vec<u32> {
        // Fits: `intern` numbers every entry with a `u32`.
        let mut order: Vec<u32> = (0..self.values.len() as u32).collect();
        order.sort_unstable_by_key(|&id| &self.values[id as usize]);
        let mut ranks = vec![0; order.len()];
        for (rank, &id) in order.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        ranks
    }
}

/// Dictionaries compare by entry list (the reverse index is derived state).
impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

/// The first-appearance interner of the int `Dict` page codec
/// ([`crate::pages`]): it numbers a page's distinct values on encode and
/// rejects duplicate entries on decode. An int column itself is always
/// `Int64` — the dictionary lives only inside the page bytes.
#[derive(Debug, Default)]
pub(crate) struct IntDict {
    /// Distinct values, indexed by id.
    values: Vec<i64>,
    /// Reverse index: value → id.
    index: HashMap<i64, u32>,
}

impl IntDict {
    /// An empty dictionary.
    pub(crate) fn new() -> IntDict {
        IntDict::default()
    }

    /// Interns a sequence of integers, returning the dictionary and the id
    /// of each input value in order.
    pub(crate) fn encode(values: impl Iterator<Item = i64>) -> (IntDict, Vec<u32>) {
        let mut dict = IntDict::new();
        let ids = values.map(|x| dict.intern(x)).collect();
        (dict, ids)
    }

    /// Returns the id of `x`, interning it if new. Every id fits `u32`:
    /// callers intern at most a page's rows, which
    /// [`crate::pages::MAX_DECODE_ROWS`] bounds before a page is written,
    /// or a dictionary section's `u32` entry count.
    pub(crate) fn intern(&mut self, x: i64) -> u32 {
        if let Some(&id) = self.index.get(&x) {
            return id;
        }
        debug_assert!(self.values.len() < u32::MAX as usize);
        let id = self.values.len() as u32;
        self.values.push(x);
        self.index.insert(x, id);
        id
    }

    /// The value for an id. Panics if the id was not produced by this
    /// dictionary.
    pub(crate) fn get(&self, id: u32) -> i64 {
        self.values[id as usize]
    }

    /// Number of distinct entries.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// All entries in id order.
    pub(crate) fn values(&self) -> &[i64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns `values` in order: the dictionary and each value's id.
    fn encode<'a>(values: impl Iterator<Item = &'a str>) -> (Dictionary, Vec<u32>) {
        let mut dict = Dictionary::new();
        let ids = values.map(|s| dict.intern(s)).collect();
        (dict, ids)
    }

    #[test]
    fn encode_interns_in_first_appearance_order() {
        let (dict, ids) = encode(["b", "a", "b", "c", "a"].into_iter());
        assert_eq!(dict.len(), 3);
        let entries: Vec<&str> = dict.values().iter().map(|s| s.as_ref()).collect();
        assert_eq!(entries, ["b", "a", "c"]);
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(dict.get(2), "c");
        assert_eq!(dict.id_of("a"), Some(1));
        assert_eq!(dict.id_of("zzz"), None);
    }

    #[test]
    fn entries_share_one_allocation_with_the_reverse_index() {
        let (dict, _) = encode(["x", "y"].into_iter());
        for entry in dict.values() {
            // The entry list and the reverse-index key both point at the
            // same allocation: 2 strong refs, not 2 string copies.
            assert_eq!(Arc::strong_count(entry), 2, "entry {entry} duplicated");
        }
    }

    #[test]
    fn value_bytes_match_utf8_accounting() {
        let (dict, _) = encode(["ab", ""].into_iter());
        assert_eq!(dict.value_bytes(0), 2 + 4);
        assert_eq!(dict.value_bytes(1), 4);
    }

    #[test]
    fn sort_ranks_follow_lexicographic_order() {
        let (dict, _) = encode(["m", "a", "z"].into_iter());
        // ids: m=0, a=1, z=2; sorted: a < m < z.
        assert_eq!(dict.ranks(), vec![1, 0, 2]);
        let (other, _) = encode(["z", "b", "a", "ab"].into_iter());
        assert_eq!(other.ranks(), vec![3, 2, 0, 1]);
        assert!(Dictionary::new().ranks().is_empty());
    }

    #[test]
    fn equality_ignores_index_layout() {
        let (a, _) = encode(["x", "y"].into_iter());
        let mut b = Dictionary::new();
        b.intern("x");
        b.intern("y");
        assert_eq!(a, b);
        b.intern("z");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn int_dict_interns_in_first_appearance_order() {
        let (dict, ids) = IntDict::encode([20240107, 20240101, 20240107, 20240102].into_iter());
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.values(), &[20240107, 20240101, 20240102]);
        assert_eq!(ids, vec![0, 1, 0, 2]);
        assert_eq!(dict.get(2), 20240102);
    }
}

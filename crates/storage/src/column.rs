//! Typed column vectors.
//!
//! A column has one form per logical type. An integer column is
//! [`ColumnData::Int64`]; for ints, "dictionary" is a page codec
//! (`pages.rs`), not a column form. A string column is
//! [`ColumnData::Dict`]: `u32` ids into an `Arc`-shared [`Dictionary`],
//! interned once per table column at registration (and into a fresh
//! dictionary wherever strings are made: [`ColumnData::strings`], `push`, a
//! decoded page, a literal). It reports [`DataType::Utf8`]; equality, byte
//! accounting, and min/max are defined over the *decoded* values, so two
//! columns holding the same strings over different dictionaries are
//! indistinguishable to schemas, zone maps, and cost models — filter, gather
//! and slice move 4-byte ids, never heap strings.

use std::sync::Arc;

use ci_types::{CiError, Result};

use crate::chunks;
use crate::dict::Dictionary;
use crate::selection::{RowSet, SelectionVector};
use crate::value::{DataType, Value};

/// A contiguous, non-nullable, typed column of values.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// UTF-8 strings, dictionary-encoded: `ids[i]` indexes into `dict`.
    Dict {
        /// Per-row dictionary ids.
        ids: Vec<u32>,
        /// The shared interning table.
        dict: Arc<Dictionary>,
    },
}

impl ColumnData {
    /// A string column of `values` in order, interned into a fresh
    /// dictionary in first-appearance order.
    pub fn strings<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> ColumnData {
        let mut dict = Dictionary::new();
        let ids = values
            .into_iter()
            .map(|s| dict.intern(s.as_ref()))
            .collect();
        ColumnData::Dict {
            ids,
            dict: Arc::new(dict),
        }
    }

    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> ColumnData {
        ColumnData::with_capacity(dt, 0)
    }

    /// An empty column with reserved capacity (a string column starts an
    /// empty dictionary).
    pub fn with_capacity(dt: DataType, cap: usize) -> ColumnData {
        match dt {
            DataType::Int64 => ColumnData::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => ColumnData::Float64(Vec::with_capacity(cap)),
            DataType::Utf8 => ColumnData::Dict {
                ids: Vec::with_capacity(cap),
                dict: Arc::default(),
            },
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
        }
    }

    /// This column's logical type (`Dict` is the form of `Utf8`).
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Dict { .. } => DataType::Utf8,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Dict { ids, .. } => ids.len(),
        }
    }

    /// `true` if the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at row `i` (clones strings). Panics if out of bounds.
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Dict { ids, dict } => Value::Str(dict.get(ids[i]).to_owned()),
        }
    }

    /// Integer at row `i`, `None` for non-int columns.
    pub fn int_at(&self, i: usize) -> Option<i64> {
        match self {
            ColumnData::Int64(v) => Some(v[i]),
            _ => None,
        }
    }

    /// Borrowed string at row `i`, `None` for non-string columns. The
    /// zero-copy read path for operators.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            ColumnData::Dict { ids, dict } => Some(dict.get(ids[i])),
            _ => None,
        }
    }

    /// The `(ids, dictionary)` view of a string column.
    pub fn as_dict(&self) -> Option<(&[u32], &Arc<Dictionary>)> {
        match self {
            ColumnData::Dict { ids, dict } => Some((ids, dict)),
            _ => None,
        }
    }

    /// Appends a value; errors on type mismatch.
    pub fn push(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (ColumnData::Int64(c), Value::Int(x)) => c.push(x),
            (ColumnData::Float64(c), Value::Float(x)) => c.push(x),
            (ColumnData::Float64(c), Value::Int(x)) => c.push(x as f64),
            (ColumnData::Bool(c), Value::Bool(x)) => c.push(x),
            (ColumnData::Dict { ids, dict }, Value::Str(x)) => {
                ids.push(Arc::make_mut(dict).intern(&x));
            }
            (col, v) => {
                return Err(CiError::Exec(format!(
                    "cannot push {} into {} column",
                    v.data_type(),
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// New column of the rows `rows` names, in order (rows may repeat):
    /// the storage row gather ([`crate::chunks`]) over this one column. Dict
    /// columns keep their dictionary and move only ids. Panics on a row out
    /// of bounds.
    pub fn gather_rows(&self, rows: &[u32]) -> ColumnData {
        chunks::gather(&[self], rows, 0)
    }

    /// Materializes the rows a selection names, in order. Panic-free by the
    /// selection invariants (`sel.total() == self.len()`, indices in
    /// bounds); dict columns keep their dictionary and move only ids. A
    /// contiguous range-run selection degrades to [`ColumnData::slice`] — a
    /// memcpy of fixed-width payloads instead of a per-row gather — and
    /// scattered rows are [`ColumnData::gather_rows`].
    pub fn gather(&self, sel: &SelectionVector) -> ColumnData {
        debug_assert_eq!(sel.total(), self.len());
        match sel.rows() {
            RowSet::Range(r) => self.slice(r.start, r.len()),
            RowSet::Picked(p) => self.gather_rows(p),
        }
    }

    /// [`ColumnData::byte_size`] restricted to the rows a selection names,
    /// so byte accounting over a selected batch matches what the eagerly
    /// materialized batch would report.
    pub fn byte_size_selected(&self, sel: &SelectionVector) -> usize {
        debug_assert_eq!(sel.total(), self.len());
        match self {
            ColumnData::Int64(_) | ColumnData::Float64(_) => sel.len() * 8,
            ColumnData::Bool(_) => sel.len(),
            ColumnData::Dict { ids, dict } => match sel.rows() {
                RowSet::Range(r) => ids[r].iter().map(|&id| dict.value_bytes(id)).sum(),
                RowSet::Picked(p) => p.iter().map(|&i| dict.value_bytes(ids[i as usize])).sum(),
            },
        }
    }

    /// Slice of the selected range: copies fixed-width payloads (a memcpy);
    /// dict columns copy only the 4-byte ids and share the dictionary.
    pub fn slice(&self, offset: usize, len: usize) -> ColumnData {
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(v[offset..offset + len].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[offset..offset + len].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[offset..offset + len].to_vec()),
            ColumnData::Dict { ids, dict } => ColumnData::Dict {
                ids: ids[offset..offset + len].to_vec(),
                dict: dict.clone(),
            },
        }
    }

    /// Appends all values of `other` (same logical type required). String
    /// columns sharing one dictionary extend ids directly; a foreign
    /// dictionary's strings are re-interned row by row.
    pub fn extend_from(&mut self, other: &ColumnData) -> Result<()> {
        match (self, other) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (
                ColumnData::Dict { ids, dict },
                ColumnData::Dict {
                    ids: bids,
                    dict: bdict,
                },
            ) => {
                if Arc::ptr_eq(dict, bdict) {
                    ids.extend_from_slice(bids);
                } else {
                    let d = Arc::make_mut(dict);
                    ids.extend(bids.iter().map(|&id| d.intern(bdict.get(id))));
                }
            }
            (a, b) => {
                return Err(CiError::Exec(format!(
                    "cannot concat {} with {}",
                    a.data_type(),
                    b.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Exact encoded byte size of this column's *decoded* data: a string
    /// counts its length plus a 4-byte header, whatever dictionary holds it,
    /// so storage, network, and billing accounting are dictionary-independent.
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Dict { ids, dict } => ids.iter().map(|&id| dict.value_bytes(id)).sum(),
        }
    }

    /// Min and max values (`None` for an empty column).
    pub fn min_max(&self) -> Option<(Value, Value)> {
        if self.is_empty() {
            return None;
        }
        match self {
            ColumnData::Int64(v) => {
                let min = *v.iter().min()?;
                let max = *v.iter().max()?;
                Some((Value::Int(min), Value::Int(max)))
            }
            ColumnData::Float64(v) => {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for &x in v {
                    min = min.min(x);
                    max = max.max(x);
                }
                Some((Value::Float(min), Value::Float(max)))
            }
            ColumnData::Bool(v) => {
                let any_false = v.iter().any(|x| !x);
                let any_true = v.iter().any(|x| *x);
                // false < true: min is false iff any false, max is true iff any true.
                Some((Value::Bool(!any_false), Value::Bool(any_true)))
            }
            ColumnData::Dict { ids, dict } => {
                let mut min = dict.get(ids[0]);
                let mut max = min;
                for &id in &ids[1..] {
                    let s = dict.get(id);
                    if s < min {
                        min = s;
                    }
                    if s > max {
                        max = s;
                    }
                }
                Some((Value::Str(min.to_owned()), Value::Str(max.to_owned())))
            }
        }
    }

    /// Typed accessor; errors if the column is not Int64.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            ColumnData::Int64(v) => Ok(v),
            other => Err(CiError::Exec(format!(
                "expected INT column, got {}",
                other.data_type()
            ))),
        }
    }

    /// Typed accessor; errors if the column is not Float64.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            ColumnData::Float64(v) => Ok(v),
            other => Err(CiError::Exec(format!(
                "expected DOUBLE column, got {}",
                other.data_type()
            ))),
        }
    }

    /// Typed accessor; errors if the column is not Bool.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            ColumnData::Bool(v) => Ok(v),
            other => Err(CiError::Exec(format!(
                "expected BOOLEAN column, got {}",
                other.data_type()
            ))),
        }
    }
}

/// Equality over *decoded* values: two string columns holding the same
/// strings are equal over any two dictionaries. Keeps result comparison
/// (tests, the determinism oracle) independent of which dictionary a plan
/// path produced.
impl PartialEq for ColumnData {
    fn eq(&self, other: &Self) -> bool {
        use ColumnData::*;
        match (self, other) {
            (Int64(a), Int64(b)) => a == b,
            (Float64(a), Float64(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Dict { ids: a, dict: da }, Dict { ids: b, dict: db }) => {
                if Arc::ptr_eq(da, db) || da == db {
                    a == b
                } else {
                    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| da.get(x) == db.get(y))
                }
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read() {
        let mut c = ColumnData::empty(DataType::Int64);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(1), Value::Int(2));
        assert!(c.push(Value::from("x")).is_err());
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut c = ColumnData::empty(DataType::Float64);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.value(0), Value::Float(3.0));
    }

    #[test]
    fn filter_keeps_marked_rows() {
        let c = ColumnData::Int64(vec![10, 20, 30, 40]);
        let f = c.gather(&SelectionVector::from_mask(&[true, false, true, false]));
        assert_eq!(f, ColumnData::Int64(vec![10, 30]));
    }

    #[test]
    fn take_gathers_with_repeats() {
        let c = ColumnData::strings(["a", "b", "c"]);
        let t = c.gather_rows(&[2, 0, 2]);
        assert_eq!(t, ColumnData::strings(["c", "a", "c"]));
    }

    #[test]
    fn slice_range() {
        let c = ColumnData::Float64(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.slice(1, 2), ColumnData::Float64(vec![2.0, 3.0]));
    }

    #[test]
    fn extend_same_type_only() {
        let mut a = ColumnData::Int64(vec![1]);
        a.extend_from(&ColumnData::Int64(vec![2, 3])).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.extend_from(&ColumnData::Bool(vec![true])).is_err());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(ColumnData::Int64(vec![1, 2]).byte_size(), 16);
        assert_eq!(ColumnData::Bool(vec![true; 5]).byte_size(), 5);
        assert_eq!(ColumnData::strings(["ab", "c"]).byte_size(), 2 + 4 + 1 + 4);
    }

    #[test]
    fn min_max_per_type() {
        assert_eq!(
            ColumnData::Int64(vec![3, 1, 2]).min_max(),
            Some((Value::Int(1), Value::Int(3)))
        );
        assert_eq!(
            ColumnData::strings(["b", "a"]).min_max(),
            Some((Value::Str("a".into()), Value::Str("b".into())))
        );
        assert_eq!(ColumnData::Int64(vec![]).min_max(), None);
    }

    #[test]
    fn typed_accessors() {
        let c = ColumnData::Int64(vec![5]);
        assert_eq!(c.as_i64().unwrap(), &[5]);
        assert!(c.as_f64().is_err());
        assert!(c.as_bool().is_err());
    }

    fn dict_col(vals: &[&str]) -> ColumnData {
        ColumnData::strings(vals)
    }

    /// The same strings over a *different* dictionary: `seed` is interned
    /// first, so every id differs from [`dict_col`]'s.
    fn foreign_col(seed: &[&str], vals: &[&str]) -> ColumnData {
        let mut dict = Dictionary::new();
        seed.iter().for_each(|s| {
            dict.intern(s);
        });
        let ids = vals.iter().map(|s| dict.intern(s)).collect();
        ColumnData::Dict {
            ids,
            dict: Arc::new(dict),
        }
    }

    #[test]
    fn dict_encoding_round_trips() {
        let c = dict_col(&["x", "y", "x", "z"]);
        assert_eq!(c.data_type(), DataType::Utf8);
        assert_eq!(c.len(), 4);
        assert_eq!(c.value(2), Value::from("x"));
        assert_eq!(c.str_at(3), Some("z"));
        let (ids, dict) = c.as_dict().unwrap();
        assert_eq!(ids, &[0, 1, 0, 2]);
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn dict_equals_utf8_with_same_values() {
        let dict = dict_col(&["x", "y", "x"]);
        let foreign = foreign_col(&["q", "y"], &["x", "y", "x"]);
        assert_ne!(dict.as_dict().unwrap().0, foreign.as_dict().unwrap().0);
        assert_eq!(dict, foreign);
        assert_eq!(foreign, dict);
        assert_ne!(dict, foreign_col(&["q"], &["x", "y", "y"]));
        assert_ne!(dict, dict_col(&["x", "y"]));
    }

    #[test]
    fn dict_filter_take_slice_share_dictionary() {
        let c = dict_col(&["a", "b", "c", "a"]);
        let (_, dict) = c.as_dict().unwrap();
        let dict = dict.clone();
        let f = c.gather(&SelectionVector::from_mask(&[true, false, true, true]));
        assert_eq!(f, dict_col(&["a", "c", "a"]));
        assert!(Arc::ptr_eq(f.as_dict().unwrap().1, &dict));
        let t = c.gather_rows(&[3, 2]);
        assert!(Arc::ptr_eq(t.as_dict().unwrap().1, &dict));
        let s = c.slice(1, 2);
        assert_eq!(s, dict_col(&["b", "c"]));
        assert!(Arc::ptr_eq(s.as_dict().unwrap().1, &dict));
    }

    #[test]
    fn dict_byte_size_matches_utf8() {
        let vals = ["ab", "c", "ab", ""];
        // The naive reference: each string's length plus its 4-byte header.
        let naive: usize = vals.iter().map(|s| s.len() + 4).sum();
        assert_eq!(dict_col(&vals).byte_size(), naive);
        assert_eq!(foreign_col(&["zzz", "c"], &vals).byte_size(), naive);
    }

    #[test]
    fn dict_min_max_matches_utf8() {
        let vals = ["m", "a", "z", "a"];
        let naive = |v: Option<&&str>| Value::from(*v.unwrap());
        let expect = Some((naive(vals.iter().min()), naive(vals.iter().max())));
        assert_eq!(dict_col(&vals).min_max(), expect);
        assert_eq!(foreign_col(&["z", "b"], &vals).min_max(), expect);
    }

    #[test]
    fn dict_extend_from_shared_and_foreign() {
        let a = dict_col(&["a", "b"]);
        let same_dict_tail = a.slice(1, 1);
        let mut grown = a.clone();
        grown.extend_from(&same_dict_tail).unwrap();
        assert_eq!(grown, dict_col(&["a", "b", "b"]));
        // Extending from a foreign dictionary re-interns.
        let foreign = dict_col(&["c", "a"]);
        grown.extend_from(&foreign).unwrap();
        assert_eq!(grown, dict_col(&["a", "b", "b", "c", "a"]));
        assert_eq!(grown.as_dict().unwrap().0, &[0, 1, 1, 2, 0]);
        // And from a larger foreign dictionary that holds more than it uses.
        grown
            .extend_from(&foreign_col(&["x", "y", "z"], &["d"]))
            .unwrap();
        assert_eq!(grown.len(), 6);
        assert_eq!(grown.str_at(5), Some("d"));
        assert_eq!(grown.as_dict().unwrap().1.len(), 4);
    }

    #[test]
    fn dict_push_interns() {
        let mut c = dict_col(&["a"]);
        c.push(Value::from("b")).unwrap();
        c.push(Value::from("a")).unwrap();
        let (ids, dict) = c.as_dict().unwrap();
        assert_eq!(ids, &[0, 1, 0]);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn gather_and_selected_bytes_match_eager_filter() {
        let keep = [true, false, true, false];
        // The eager reference: every value whose mask bit is set, in order.
        let filter = |c: &ColumnData| {
            let mut out = ColumnData::empty(c.data_type());
            for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
                out.push(c.value(i)).unwrap();
            }
            out
        };
        let sel = SelectionVector::from_mask(&keep);
        let ints = ColumnData::Int64(vec![1, 2, 3, 4]);
        assert_eq!(ints.gather(&sel), filter(&ints));
        assert_eq!(ints.byte_size_selected(&sel), filter(&ints).byte_size());
        let d = dict_col(&["ab", "c", "ab", ""]);
        assert_eq!(d.gather(&sel), filter(&d));
        assert_eq!(d.byte_size_selected(&sel), filter(&d).byte_size());
        assert!(Arc::ptr_eq(
            d.gather(&sel).as_dict().unwrap().1,
            d.as_dict().unwrap().1
        ));
    }
}

//! Typed column vectors.
//!
//! An integer column has one form, [`ColumnData::Int64`]; for ints,
//! "dictionary" is a page codec (`pages.rs`), not a column form.
//! Strings come in two encodings with identical logical semantics:
//! [`ColumnData::Utf8`] owns its strings, while [`ColumnData::Dict`] stores
//! `u32` ids into an `Arc`-shared [`Dictionary`] (interned once per table
//! column at load). Both report [`DataType::Utf8`]; equality, byte
//! accounting, and min/max are defined over the *decoded* values, so the
//! encoding is invisible to schemas, zone maps, and cost models — only the
//! data-path cost changes (filter/take/slice move 4-byte ids, not heap
//! strings).

use std::sync::Arc;

use ci_types::{CiError, Result};

use crate::dict::Dictionary;
use crate::selection::SelectionVector;
use crate::value::{DataType, Value};

/// A contiguous, non-nullable, typed column of values.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// UTF-8 strings (owned encoding).
    Utf8(Vec<String>),
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
    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> ColumnData {
        match dt {
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Utf8 => ColumnData::Utf8(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(dt: DataType, cap: usize) -> ColumnData {
        match dt {
            DataType::Int64 => ColumnData::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => ColumnData::Float64(Vec::with_capacity(cap)),
            DataType::Utf8 => ColumnData::Utf8(Vec::with_capacity(cap)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
        }
    }

    /// This column's logical type (`Dict` is an encoding of `Utf8`).
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8(_) | ColumnData::Dict { .. } => DataType::Utf8,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
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
            ColumnData::Utf8(v) => Value::Str(v[i].clone()),
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

    /// Borrowed string at row `i` for either string encoding, `None` for
    /// non-string columns. The zero-copy read path for operators.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            ColumnData::Utf8(v) => Some(&v[i]),
            ColumnData::Dict { ids, dict } => Some(dict.get(ids[i])),
            _ => None,
        }
    }

    /// The `(ids, dictionary)` view of a dict-encoded column.
    pub fn as_dict(&self) -> Option<(&[u32], &Arc<Dictionary>)> {
        match self {
            ColumnData::Dict { ids, dict } => Some((ids, dict)),
            _ => None,
        }
    }

    /// Re-encodes a `Utf8` column as `Dict` with a fresh dictionary interned
    /// in row order. Other encodings (including `Dict`) are returned as-is.
    pub fn dict_encoded(&self) -> ColumnData {
        match self {
            ColumnData::Utf8(v) => {
                let (dict, ids) = Dictionary::encode(v.iter().map(String::as_str));
                ColumnData::Dict {
                    ids,
                    dict: Arc::new(dict),
                }
            }
            other => other.clone(),
        }
    }

    /// Appends a value; errors on type mismatch.
    pub fn push(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (ColumnData::Int64(c), Value::Int(x)) => c.push(x),
            (ColumnData::Float64(c), Value::Float(x)) => c.push(x),
            (ColumnData::Float64(c), Value::Int(x)) => c.push(x as f64),
            (ColumnData::Utf8(c), Value::Str(x)) => c.push(x),
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

    /// Appends row `i` of `src` to this column (same logical type required).
    pub fn push_from(&mut self, src: &ColumnData, i: usize) -> Result<()> {
        match (self, src) {
            (ColumnData::Int64(dst), ColumnData::Int64(s)) => dst.push(s[i]),
            (ColumnData::Float64(dst), ColumnData::Float64(s)) => dst.push(s[i]),
            (ColumnData::Utf8(dst), ColumnData::Utf8(s)) => dst.push(s[i].clone()),
            (ColumnData::Bool(dst), ColumnData::Bool(s)) => dst.push(s[i]),
            (
                ColumnData::Dict { ids, dict },
                ColumnData::Dict {
                    ids: sids,
                    dict: sdict,
                },
            ) => {
                if Arc::ptr_eq(dict, sdict) {
                    ids.push(sids[i]);
                } else {
                    ids.push(Arc::make_mut(dict).intern(sdict.get(sids[i])));
                }
            }
            (ColumnData::Dict { ids, dict }, ColumnData::Utf8(s)) => {
                ids.push(Arc::make_mut(dict).intern(&s[i]));
            }
            (ColumnData::Utf8(dst), ColumnData::Dict { ids: sids, dict }) => {
                dst.push(dict.get(sids[i]).to_owned());
            }
            (dst, s) => {
                return Err(CiError::Exec(format!(
                    "column type mismatch: {} vs {}",
                    dst.data_type(),
                    s.data_type()
                )))
            }
        }
        Ok(())
    }

    /// New column containing only rows where `keep[i]` is true. Single pass;
    /// dict columns keep their dictionary and move only ids.
    pub fn filter(&self, keep: &[bool]) -> ColumnData {
        debug_assert_eq!(keep.len(), self.len());
        fn pick<T: Clone>(v: &[T], keep: &[bool]) -> Vec<T> {
            v.iter()
                .zip(keep)
                .filter(|&(_, &k)| k)
                .map(|(x, _)| x.clone())
                .collect()
        }
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(pick(v, keep)),
            ColumnData::Float64(v) => ColumnData::Float64(pick(v, keep)),
            ColumnData::Utf8(v) => ColumnData::Utf8(pick(v, keep)),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, keep)),
            ColumnData::Dict { ids, dict } => ColumnData::Dict {
                ids: pick(ids, keep),
                dict: dict.clone(),
            },
        }
    }

    /// New column gathering the given row indices (indices may repeat).
    /// Panics on out-of-bounds indices; see [`ColumnData::try_take`] for the
    /// checked variant.
    pub fn take(&self, indices: &[usize]) -> ColumnData {
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float64(v) => ColumnData::Float64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Utf8(v) => {
                ColumnData::Utf8(indices.iter().map(|&i| v[i].clone()).collect())
            }
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Dict { ids, dict } => ColumnData::Dict {
                ids: indices.iter().map(|&i| ids[i]).collect(),
                dict: dict.clone(),
            },
        }
    }

    /// Gather with inline bounds validation: one pass, erroring on the first
    /// out-of-bounds index instead of pre-scanning.
    pub fn try_take(&self, indices: &[usize]) -> Result<ColumnData> {
        let rows = self.len();
        fn gather<T: Clone>(v: &[T], indices: &[usize], rows: usize) -> Result<Vec<T>> {
            indices
                .iter()
                .map(|&i| {
                    v.get(i).cloned().ok_or_else(|| {
                        CiError::Exec(format!("take index {i} out of bounds for {rows} rows"))
                    })
                })
                .collect()
        }
        Ok(match self {
            ColumnData::Int64(v) => ColumnData::Int64(gather(v, indices, rows)?),
            ColumnData::Float64(v) => ColumnData::Float64(gather(v, indices, rows)?),
            ColumnData::Utf8(v) => ColumnData::Utf8(gather(v, indices, rows)?),
            ColumnData::Bool(v) => ColumnData::Bool(gather(v, indices, rows)?),
            ColumnData::Dict { ids, dict } => ColumnData::Dict {
                ids: gather(ids, indices, rows)?,
                dict: dict.clone(),
            },
        })
    }

    /// Materializes the rows a selection names, in order. Panic-free by the
    /// selection invariants (`sel.total() == self.len()`, indices in
    /// bounds); dict columns keep their dictionary and move only ids. A
    /// contiguous range-run selection degrades to [`ColumnData::slice`] — a
    /// memcpy of fixed-width payloads instead of a per-row gather.
    pub fn gather(&self, sel: &SelectionVector) -> ColumnData {
        debug_assert_eq!(sel.total(), self.len());
        if let Some((start, len)) = sel.as_range() {
            return self.slice(start, len);
        }
        fn pick<T: Clone>(v: &[T], sel: &SelectionVector) -> Vec<T> {
            sel.iter().map(|i| v[i].clone()).collect()
        }
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(pick(v, sel)),
            ColumnData::Float64(v) => ColumnData::Float64(pick(v, sel)),
            ColumnData::Utf8(v) => ColumnData::Utf8(pick(v, sel)),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, sel)),
            ColumnData::Dict { ids, dict } => ColumnData::Dict {
                ids: pick(ids, sel),
                dict: dict.clone(),
            },
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
            ColumnData::Utf8(v) => match sel.as_range() {
                Some((start, len)) => v[start..start + len].iter().map(|s| s.len() + 4).sum(),
                None => sel.iter().map(|i| v[i].len() + 4).sum(),
            },
            ColumnData::Dict { ids, dict } => match sel.as_range() {
                Some((start, len)) => ids[start..start + len]
                    .iter()
                    .map(|&id| dict.value_bytes(id))
                    .sum(),
                None => sel.iter().map(|i| dict.value_bytes(ids[i])).sum(),
            },
        }
    }

    /// Slice of the selected range: copies fixed-width payloads (a memcpy);
    /// dict columns copy only the 4-byte ids and share the dictionary.
    pub fn slice(&self, offset: usize, len: usize) -> ColumnData {
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(v[offset..offset + len].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[offset..offset + len].to_vec()),
            ColumnData::Utf8(v) => ColumnData::Utf8(v[offset..offset + len].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[offset..offset + len].to_vec()),
            ColumnData::Dict { ids, dict } => ColumnData::Dict {
                ids: ids[offset..offset + len].to_vec(),
                dict: dict.clone(),
            },
        }
    }

    /// Appends all values of `other` (same logical type required). Dict
    /// columns sharing one dictionary extend ids directly; mismatched string
    /// encodings re-intern or decode row by row.
    pub fn extend_from(&mut self, other: &ColumnData) -> Result<()> {
        match (self, other) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend(b.iter().cloned()),
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
            (ColumnData::Dict { ids, dict }, ColumnData::Utf8(b)) => {
                let d = Arc::make_mut(dict);
                ids.extend(b.iter().map(|s| d.intern(s)));
            }
            (ColumnData::Utf8(a), ColumnData::Dict { ids: bids, dict }) => {
                a.extend(bids.iter().map(|&id| dict.get(id).to_owned()));
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

    /// Exact encoded byte size of this column's *decoded* data. Dict columns
    /// report the same size as their Utf8 equivalent so storage, network, and
    /// billing accounting are encoding-independent.
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Utf8(v) => v.iter().map(|s| s.len() + 4).sum(),
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
                let min = *v.iter().min().expect("non-empty");
                let max = *v.iter().max().expect("non-empty");
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
            ColumnData::Utf8(v) => {
                let min = v.iter().min().expect("non-empty").clone();
                let max = v.iter().max().expect("non-empty").clone();
                Some((Value::Str(min), Value::Str(max)))
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

    /// Typed accessor over the owned encoding; errors for non-string columns
    /// *and* for dict-encoded columns (use [`ColumnData::str_at`] or
    /// [`ColumnData::as_dict`] to read those without decoding).
    pub fn as_str(&self) -> Result<&[String]> {
        match self {
            ColumnData::Utf8(v) => Ok(v),
            ColumnData::Dict { .. } => Err(CiError::Exec(
                "expected owned VARCHAR column, got dict-encoded VARCHAR".into(),
            )),
            other => Err(CiError::Exec(format!(
                "expected VARCHAR column, got {}",
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

/// Equality over *decoded* values: a dict-encoded column equals the Utf8
/// column holding the same strings. Keeps result comparison (tests, the
/// determinism oracle) independent of which encoding a plan path produced.
impl PartialEq for ColumnData {
    fn eq(&self, other: &Self) -> bool {
        use ColumnData::*;
        match (self, other) {
            (Int64(a), Int64(b)) => a == b,
            (Float64(a), Float64(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Utf8(a), Utf8(b)) => a == b,
            (Dict { ids: a, dict: da }, Dict { ids: b, dict: db }) => {
                if Arc::ptr_eq(da, db) || da == db {
                    a == b
                } else {
                    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| da.get(x) == db.get(y))
                }
            }
            (Utf8(a), Dict { ids, dict }) | (Dict { ids, dict }, Utf8(a)) => {
                a.len() == ids.len() && a.iter().zip(ids).all(|(s, &id)| s == dict.get(id))
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
        let f = c.filter(&[true, false, true, false]);
        assert_eq!(f, ColumnData::Int64(vec![10, 30]));
    }

    #[test]
    fn take_gathers_with_repeats() {
        let c = ColumnData::Utf8(vec!["a".into(), "b".into(), "c".into()]);
        let t = c.take(&[2, 0, 2]);
        assert_eq!(
            t,
            ColumnData::Utf8(vec!["c".into(), "a".into(), "c".into()])
        );
    }

    #[test]
    fn try_take_errors_on_first_bad_index() {
        let c = ColumnData::Int64(vec![1, 2, 3]);
        assert_eq!(c.try_take(&[2, 0]).unwrap(), ColumnData::Int64(vec![3, 1]));
        let err = c.try_take(&[1, 7, 9]).unwrap_err().to_string();
        assert!(
            err.contains("take index 7 out of bounds for 3 rows"),
            "{err}"
        );
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
        assert_eq!(
            ColumnData::Utf8(vec!["ab".into(), "c".into()]).byte_size(),
            2 + 4 + 1 + 4
        );
    }

    #[test]
    fn min_max_per_type() {
        assert_eq!(
            ColumnData::Int64(vec![3, 1, 2]).min_max(),
            Some((Value::Int(1), Value::Int(3)))
        );
        assert_eq!(
            ColumnData::Utf8(vec!["b".into(), "a".into()]).min_max(),
            Some((Value::Str("a".into()), Value::Str("b".into())))
        );
        assert_eq!(ColumnData::Int64(vec![]).min_max(), None);
    }

    #[test]
    fn typed_accessors() {
        let c = ColumnData::Int64(vec![5]);
        assert_eq!(c.as_i64().unwrap(), &[5]);
        assert!(c.as_f64().is_err());
        assert!(c.as_str().is_err());
        assert!(c.as_bool().is_err());
    }

    #[test]
    fn push_from_copies_row() {
        let src = ColumnData::Int64(vec![7, 8]);
        let mut dst = ColumnData::empty(DataType::Int64);
        dst.push_from(&src, 1).unwrap();
        assert_eq!(dst, ColumnData::Int64(vec![8]));
    }

    fn dict_col(vals: &[&str]) -> ColumnData {
        ColumnData::Utf8(vals.iter().map(|s| (*s).to_owned()).collect()).dict_encoded()
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
        let utf8 = ColumnData::Utf8(vec!["x".into(), "y".into(), "x".into()]);
        let dict = dict_col(&["x", "y", "x"]);
        assert_eq!(dict, utf8);
        assert_eq!(utf8, dict);
        assert_ne!(
            dict,
            ColumnData::Utf8(vec!["x".into(), "y".into(), "y".into()])
        );
    }

    #[test]
    fn dict_filter_take_slice_share_dictionary() {
        let c = dict_col(&["a", "b", "c", "a"]);
        let (_, dict) = c.as_dict().unwrap();
        let dict = dict.clone();
        let f = c.filter(&[true, false, true, true]);
        assert_eq!(
            f,
            ColumnData::Utf8(vec!["a".into(), "c".into(), "a".into()])
        );
        assert!(Arc::ptr_eq(f.as_dict().unwrap().1, &dict));
        let t = c.take(&[3, 2]);
        assert!(Arc::ptr_eq(t.as_dict().unwrap().1, &dict));
        let s = c.slice(1, 2);
        assert_eq!(s, ColumnData::Utf8(vec!["b".into(), "c".into()]));
        assert!(Arc::ptr_eq(s.as_dict().unwrap().1, &dict));
    }

    #[test]
    fn dict_byte_size_matches_utf8() {
        let vals = ["ab", "c", "ab", ""];
        let utf8 = ColumnData::Utf8(vals.iter().map(|s| (*s).to_owned()).collect());
        assert_eq!(dict_col(&vals).byte_size(), utf8.byte_size());
    }

    #[test]
    fn dict_min_max_matches_utf8() {
        let vals = ["m", "a", "z", "a"];
        let utf8 = ColumnData::Utf8(vals.iter().map(|s| (*s).to_owned()).collect());
        assert_eq!(dict_col(&vals).min_max(), utf8.min_max());
    }

    #[test]
    fn dict_extend_from_shared_and_foreign() {
        let a = dict_col(&["a", "b"]);
        let same_dict_tail = a.slice(1, 1);
        let mut grown = a.clone();
        grown.extend_from(&same_dict_tail).unwrap();
        assert_eq!(
            grown,
            ColumnData::Utf8(vec!["a".into(), "b".into(), "b".into()])
        );
        // Extending from a foreign dictionary re-interns.
        let foreign = dict_col(&["c", "a"]);
        grown.extend_from(&foreign).unwrap();
        assert_eq!(
            grown,
            ColumnData::Utf8(vec![
                "a".into(),
                "b".into(),
                "b".into(),
                "c".into(),
                "a".into()
            ])
        );
        // And from an owned Utf8 column.
        grown
            .extend_from(&ColumnData::Utf8(vec!["d".into()]))
            .unwrap();
        assert_eq!(grown.len(), 6);
        assert_eq!(grown.str_at(5), Some("d"));
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
        let sel = SelectionVector::from_mask(&keep);
        let ints = ColumnData::Int64(vec![1, 2, 3, 4]);
        assert_eq!(ints.gather(&sel), ints.filter(&keep));
        assert_eq!(
            ints.byte_size_selected(&sel),
            ints.filter(&keep).byte_size()
        );
        let d = dict_col(&["ab", "c", "ab", ""]);
        assert_eq!(d.gather(&sel), d.filter(&keep));
        assert_eq!(d.byte_size_selected(&sel), d.filter(&keep).byte_size());
        assert!(Arc::ptr_eq(
            d.gather(&sel).as_dict().unwrap().1,
            d.as_dict().unwrap().1
        ));
    }

    #[test]
    fn dict_as_str_is_rejected_with_hint() {
        let err = dict_col(&["a"]).as_str().unwrap_err().to_string();
        assert!(err.contains("dict-encoded"), "{err}");
    }
}

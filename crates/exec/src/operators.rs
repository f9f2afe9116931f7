//! Physical operator implementations over real columnar data.
//!
//! These are the data-correct halves of the engine: they compute true
//! results (and therefore true cardinalities, which the DOP monitor consumes
//! at run time), while the DES half of the engine charges virtual time for
//! the work they represent.
//!
//! No-null engine conventions: aggregates over empty input yield zero
//! defaults (`COUNT = 0`, `SUM = 0`, `AVG = 0.0`, `MIN`/`MAX` = type zero)
//! instead of SQL NULL; and with no NULL to overflow into, a `SUM` over
//! `Int64` that leaves the `i64` range is a typed `CiError::Exec` naming the
//! aggregate, never a wrapped value. Columns are non-nullable, and a string
//! column is always dictionary ids (`ColumnData::Dict`): operators read
//! strings by reference (`str_at`) and key them by id, translating a batch
//! over another dictionary once per dictionary, so the conventions here are
//! about values, never about which dictionary carried them.
//!
//! Aggregation runs a morsel on a [`KeyIndex`] as *encode batch → id vector
//! → consume ids*: a [`KeyEncoder`] turns the key columns into words, column
//! at a time, the index turns the words into dense first-appearance ids,
//! and [`AggregateState`]'s accumulator columns are addressed by id, each
//! folded in one pass per aggregate.
//!
//! The hash join gives every build row a *bucket* — the key less the least
//! build key for one dense `Int64` key column, the [`KeyIndex`] id for any
//! other key — and counting-sorts the rows by bucket (one row per bucket
//! when no key repeats, a CSR list per bucket otherwise). The build moves
//! no rows: its morsels stay where the exchange left them, as chunks a
//! `u32` location (`chunk << shift | row`) addresses, and the probe gathers
//! matched rows straight from them — or, when a distinct-key build matches
//! every row of a dense probe batch, shares the probe's columns as they
//! are.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use ci_plan::expr::{AggExpr, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::value::{f64_sort_key, DataType, Value};
use ci_storage::{RecordBatch, RowSet};
use ci_types::{CiError, Result};

use crate::key::{
    ids_or_insert_batches, key_columns, span_within, DictKeyEntry, KeyEncoder, KeyIndex,
};

/// Builds the internal schema for a node's output slots. Field names are
/// slot-derived (`s<slot>`) so they are unique regardless of user aliases.
pub fn slots_schema(slots: &[usize], slot_types: &[DataType]) -> SchemaRef {
    Arc::new(Schema::of(
        slots
            .iter()
            .map(|&s| Field::new(format!("s{s}"), slot_types[s]))
            .collect(),
    ))
}

/// Applies a filter predicate, returning the surviving rows
/// ([`PlanExpr::survivors`]: one survivor list each conjunct refines). The
/// survivors are *not* materialized: the batch comes back carrying them as
/// its selection (unless density fell below the compaction threshold), so
/// filter→filter→project chains move no column data.
pub fn apply_filter(batch: &RecordBatch, pred: &PlanExpr, map: &ColMap) -> Result<RecordBatch> {
    batch.unselected().select(pred.survivors(batch, map)?)
}

/// Applies a projection, producing a batch in the projection's slot layout.
///
/// Pure column projections (every expression a [`PlanExpr::Col`] whose
/// physical type already matches the output schema) share the input's
/// column `Arc`s and carry its selection along — zero copies, deferred
/// filters stay deferred. Computed expressions fall back to evaluation,
/// which materializes dense logical-length columns.
pub fn apply_project(
    batch: &RecordBatch,
    exprs: &[(PlanExpr, String)],
    map: &ColMap,
    out_schema: SchemaRef,
) -> Result<RecordBatch> {
    if let Some(positions) = pure_column_projection(batch, exprs, map, &out_schema)? {
        return batch.project(&positions)?.with_schema(out_schema);
    }
    let mut columns = Vec::with_capacity(exprs.len());
    for (i, (e, _)) in exprs.iter().enumerate() {
        let col = e.eval(batch, map)?;
        // Coerce int results into float columns when the schema says float
        // (e.g. literal `1` projected into a DOUBLE output).
        let want = out_schema.field(i).data_type;
        let col = coerce(col, want)?;
        columns.push(col);
    }
    RecordBatch::new(out_schema, columns)
}

/// The batch column positions of a projection that only renames/reorders
/// columns (no computation, no coercion), or `None` when any expression
/// needs evaluation.
fn pure_column_projection(
    batch: &RecordBatch,
    exprs: &[(PlanExpr, String)],
    map: &ColMap,
    out_schema: &SchemaRef,
) -> Result<Option<Vec<usize>>> {
    let mut positions = Vec::with_capacity(exprs.len());
    for (i, (e, _)) in exprs.iter().enumerate() {
        let PlanExpr::Col(slot) = e else {
            return Ok(None);
        };
        let pos = map.position(*slot)?;
        if batch.column(pos).data_type() != out_schema.field(i).data_type {
            return Ok(None);
        }
        positions.push(pos);
    }
    Ok(Some(positions))
}

fn coerce(col: ColumnData, want: DataType) -> Result<ColumnData> {
    match (col, want) {
        (ColumnData::Int64(v), DataType::Float64) => Ok(ColumnData::Float64(
            v.into_iter().map(|x| x as f64).collect(),
        )),
        (col, want) if col.data_type() == want => Ok(col),
        (col, want) => Err(CiError::Exec(format!(
            "cannot coerce {} column to {want}",
            col.data_type()
        ))),
    }
}

/// Hash-join build state. Build morsels are kept as they stream in, one
/// *chunk* each (compacted, as the exchange already left them) and never
/// copied into one batch; the row lists are constructed at
/// [`JoinHashTable::finalize`] when the build pipeline completes (a
/// pipeline breaker, §3.2).
///
/// A build row is named by its *location*, `chunk << shift | row`: a `u32`
/// whose low `shift` bits hold any row of the widest chunk. Locations
/// ascend in arrival order, which is the order a probe row's matches are
/// emitted in (shipped bytes depend on it).
///
/// Every build row has a *bucket*, and one counting sort groups the
/// locations by it:
///
/// - **Dense int key**: one `Int64` key column whose build keys span at
///   most `max(2 · rows, 2^16)` values. Key `k`'s bucket is `k − min`: no
///   [`KeyIndex`], no key words, no ids.
/// - **Every other key** (several columns, strings, floats, bools, sparse
///   ints): the bucket is the key's [`KeyIndex`] id.
///
/// When no bucket holds two rows (CAB's primary keys) a bucket's one
/// location is `locations[bucket]`, a miss sentinel for an empty one, and a
/// probe row has at most one match. Otherwise the locations form a CSR:
/// bucket `b`'s rows are `locations[offsets[b]..offsets[b + 1]]`,
/// ascending.
///
/// The probe gathers both sides through `u32` indices, the build side
/// straight from its chunks. When a distinct-key build matches every row of
/// a probe batch that carries no selection, the probe side of the output is
/// the probe's own column `Arc`s — the *pass-through*, no copy.
///
/// Chunks whose columns would not append without conversion (a string
/// column over another dictionary than the first chunk's) or that are too
/// many to locate in a `u32` are first made one chunk by
/// [`RecordBatch::concat`], so the output's dictionaries are always those
/// the concatenated build would have.
#[derive(Debug)]
pub struct JoinHashTable {
    key_positions: Vec<usize>,
    schema: SchemaRef,
    chunks: Vec<RecordBatch>,
    finalized: Option<Box<FinalizedTable>>,
}

#[derive(Debug)]
struct FinalizedTable {
    /// Row bits of a location: row `l & mask` of chunk `l >> shift`.
    shift: u32,
    /// How a key finds its bucket.
    buckets: Buckets,
    /// Build row locations grouped by bucket: bucket `b`'s one row is
    /// `locations[b]` ([`NO_ROW`] when it has none) when `offsets` is `None`
    /// (no bucket holds two rows), else its rows are
    /// `locations[offsets[b]..offsets[b + 1]]` (CSR).
    locations: Vec<u32>,
    offsets: Option<Vec<u32>>,
}

/// A key's bucket in a [`FinalizedTable`].
#[derive(Debug)]
enum Buckets {
    /// One `Int64` key column whose build keys run from `min` over at most
    /// `span` ≤ [`dense_slots`] values: key `k`'s bucket is `k − min`.
    Dense { min: i64, span: usize },
    /// The bucket is the key's id in `index`. Probes encode against
    /// `encoder` (dict-id translation; a string the build never held
    /// misses).
    Keyed {
        index: KeyIndex,
        encoder: KeyEncoder,
    },
}

/// The location of no build row: an empty bucket of a distinct-key build.
/// [`locatable`] keeps every real location below it.
const NO_ROW: u32 = u32::MAX;

/// Most buckets a dense int key of `rows` build rows may span: twice the
/// rows, and never fewer than 2^16, so a small build (Q9's 1 250
/// `customer` keys over a span of 5 000) is addressed as well. Every bucket
/// is a `u32` below [`KeyIndex::MISS`].
fn dense_slots(rows: usize) -> usize {
    rows.saturating_mul(2)
        .max(1 << 16)
        .min(KeyIndex::MISS as usize)
}

/// Bucket of int key `k` in a dense table from `min`: `k − min`, wrapping,
/// so a key below `min` lands past every span (spans end at `i64::MAX`).
#[inline]
fn dense_bucket(min: i64, k: i64) -> u64 {
    (k as u64).wrapping_sub(min as u64)
}

impl Buckets {
    /// Sets `out` to the bucket of each of `rows` of the probe key columns
    /// `keys`, [`KeyIndex::MISS`] where the build holds no such key — as it
    /// holds none outside a dense span, nor any of a column of another
    /// type.
    fn find(&self, keys: &[&ColumnData], rows: &RowSet, out: &mut Vec<u32>) -> Result<()> {
        let (min, span) = match self {
            Buckets::Keyed { index, encoder } => {
                encoder.prepare(keys)?.ids(rows, index, out);
                return Ok(());
            }
            Buckets::Dense { min, span } => (*min, *span as u64),
        };
        out.clear();
        let v = match keys {
            [ColumnData::Int64(v)] => v,
            [_] => {
                out.resize(rows.len(), KeyIndex::MISS);
                return Ok(());
            }
            _ => {
                return Err(CiError::Exec(format!(
                    "join key arity mismatch: 1 build column, {} probe columns",
                    keys.len()
                )))
            }
        };
        // Fits: `dense_slots` keeps buckets below MISS.
        let bucket = |k: i64| match dense_bucket(min, k) {
            b if b < span => b as u32,
            _ => KeyIndex::MISS,
        };
        match rows {
            RowSet::Range(r) => out.extend(v[r.clone()].iter().map(|&k| bucket(k))),
            RowSet::Picked(p) => out.extend(p.iter().map(|&r| bucket(v[r as usize]))),
        }
        Ok(())
    }
}

/// Counting sort of build row locations by bucket. `keys[c][r]` is the key
/// of row `r` of chunk `c` and `bucket` maps it into `0..buckets`. Returns
/// [`FinalizedTable`]'s `locations` and `offsets`: one location per bucket
/// ([`NO_ROW`] where there is none) when no bucket holds two rows, else the
/// CSR, each bucket's locations ascending.
fn group_locations<K: Copy>(
    keys: &[&[K]],
    shift: u32,
    buckets: usize,
    bucket: impl Fn(K) -> usize,
) -> (Vec<u32>, Option<Vec<u32>>) {
    // Fits: `locatable` or one chunk of at most `u32::MAX − 1` rows.
    let location = |c: usize, r: usize| ((c as u64) << shift | r as u64) as u32;
    let mut offsets = vec![0u32; buckets + 1];
    let mut shared = false;
    for &k in keys.iter().flat_map(|k| k.iter()) {
        let count = &mut offsets[bucket(k)];
        shared |= *count != 0;
        *count += 1;
    }
    if !shared {
        let mut locations = vec![NO_ROW; buckets];
        for (c, keys) in keys.iter().enumerate() {
            for (r, &k) in keys.iter().enumerate() {
                locations[bucket(k)] = location(c, r);
            }
        }
        return (locations, None);
    }
    // Running sums make each count its bucket's end; a reverse fill walks
    // every end down to its bucket's start, leaving each bucket's locations
    // ascending.
    for b in 1..offsets.len() {
        offsets[b] += offsets[b - 1];
    }
    let mut locations = vec![0u32; offsets[buckets] as usize];
    for (c, keys) in keys.iter().enumerate().rev() {
        for (r, &k) in keys.iter().enumerate().rev() {
            let end = &mut offsets[bucket(k)];
            *end -= 1;
            locations[*end as usize] = location(c, r);
        }
    }
    (locations, Some(offsets))
}

/// Row bits a location needs for every row of a chunk of `widest` rows.
fn location_shift(widest: usize) -> u32 {
    usize::BITS - widest.saturating_sub(1).leading_zeros()
}

/// Whether every location of `chunks` chunks with `shift` row bits is a
/// `u32` below [`NO_ROW`]. One chunk's locations are its row numbers.
fn locatable(chunks: usize, shift: u32) -> bool {
    chunks <= 1 || (shift < 32 && (chunks as u128) << shift <= u128::from(NO_ROW))
}

/// Whether `chunk`'s columns append to `first`'s as they are: the same
/// schema (so the same column variants) and dictionaries.
fn appends_as_is(first: &RecordBatch, chunk: &RecordBatch) -> bool {
    first.schema() == chunk.schema()
        && (first.columns().iter().zip(chunk.columns())).all(|(a, b)| {
            match (a.as_dict(), b.as_dict()) {
                (Some((_, x)), Some((_, y))) => Arc::ptr_eq(x, y),
                _ => true,
            }
        })
}

/// The values at `locations` of one column held in `parts` — row
/// `l & mask` of part `l >> shift`, or row `l` of a lone part — in order.
fn pick<T: Clone>(parts: &[&[T]], locations: &[u32], shift: u32) -> Vec<T> {
    if let [only] = parts {
        return locations
            .iter()
            .map(|&l| only[l as usize].clone())
            .collect();
    }
    // Two parts or more leave `shift` at most 31 (`locatable`).
    let mask = (1 << shift) - 1;
    (locations.iter())
        .map(|&l| parts[(l >> shift) as usize][(l & mask) as usize].clone())
        .collect()
}

/// [`pick`] over one column split across `parts`, which share the first
/// part's variant and dictionary: the gathered column keeps both.
fn gather_located(parts: &[&ColumnData], locations: &[u32], shift: u32) -> Result<ColumnData> {
    fn slices<'a, T>(
        parts: &[&'a ColumnData],
        slice: impl Fn(&'a ColumnData) -> Result<&'a [T]>,
    ) -> Result<Vec<&'a [T]>> {
        parts.iter().map(|&c| slice(c)).collect()
    }
    fn dict_ids(c: &ColumnData) -> Result<&[u32]> {
        c.as_dict()
            .map(|(ids, _)| ids)
            .ok_or_else(|| CiError::Exec(format!("expected VARCHAR column, got {}", c.data_type())))
    }
    let first = parts
        .first()
        .ok_or_else(|| CiError::Exec("gather from no join build chunk".into()))?;
    Ok(match first {
        ColumnData::Int64(_) => {
            ColumnData::Int64(pick(&slices(parts, ColumnData::as_i64)?, locations, shift))
        }
        ColumnData::Float64(_) => {
            ColumnData::Float64(pick(&slices(parts, ColumnData::as_f64)?, locations, shift))
        }
        ColumnData::Bool(_) => {
            ColumnData::Bool(pick(&slices(parts, ColumnData::as_bool)?, locations, shift))
        }
        ColumnData::Dict { dict, .. } => ColumnData::Dict {
            ids: pick(&slices(parts, dict_ids)?, locations, shift),
            dict: dict.clone(),
        },
    })
}

impl JoinHashTable {
    /// New build state; `key_positions` index into the build batch layout.
    pub fn new(schema: SchemaRef, key_positions: Vec<usize>) -> JoinHashTable {
        JoinHashTable {
            key_positions,
            schema,
            chunks: Vec::new(),
            finalized: None,
        }
    }

    /// Keeps one build-side morsel as a chunk (compacting a selection; a
    /// dense morsel's columns are shared, not copied).
    pub fn insert_batch(&mut self, batch: RecordBatch) -> Result<()> {
        if self.finalized.is_some() {
            return Err(CiError::Exec("insert into finalized hash table".into()));
        }
        self.chunks.push(batch.compacted());
        Ok(())
    }

    /// Total build rows inserted so far.
    pub fn build_rows(&self) -> usize {
        self.chunks.iter().map(RecordBatch::rows).sum()
    }

    /// Buckets every build row and groups the locations by bucket.
    /// Idempotent.
    pub fn finalize(&mut self) -> Result<()> {
        if self.finalized.is_some() {
            return Ok(());
        }
        let rows = self.build_rows();
        KeyIndex::check_addressable(rows, "hash join build rows")?;
        if self.chunks.is_empty() {
            self.chunks.push(RecordBatch::empty(self.schema.clone()));
        }
        let widest = |chunks: &[RecordBatch]| chunks.iter().map(RecordBatch::rows).max();
        let mut shift = location_shift(widest(&self.chunks).unwrap_or(0));
        let first = &self.chunks[0];
        if !locatable(self.chunks.len(), shift)
            || !self.chunks.iter().all(|c| appends_as_is(first, c))
        {
            self.chunks = vec![RecordBatch::concat(&self.chunks)?];
            shift = location_shift(widest(&self.chunks).unwrap_or(0));
        }
        let keys = (self.chunks.iter())
            .map(|c| key_columns(c.columns(), &self.key_positions))
            .collect::<Result<Vec<_>>>()?;
        // One `Int64` key column spanning at most `dense_slots` values: its
        // own bucket.
        let ints: Option<Vec<&[i64]>> = (keys.iter())
            .map(|k| match k[..] {
                [ColumnData::Int64(ref v)] => Some(&v[..]),
                _ => None,
            })
            .collect();
        let dense = ints.and_then(|ints| {
            let min = ints.iter().filter_map(|v| v.iter().min()).min()?;
            let max = ints.iter().filter_map(|v| v.iter().max()).max()?;
            let span = span_within(*min, *max, dense_slots(rows))?;
            Some((ints, *min, span))
        });
        let (buckets, (locations, offsets)) = match dense {
            Some((ints, min, span)) => {
                let bucket = |k| dense_bucket(min, k) as usize;
                let lists = group_locations(&ints, shift, span, bucket);
                (Buckets::Dense { min, span }, lists)
            }
            None => {
                let encoder = KeyEncoder::for_columns(&keys[0]);
                let row_encoders = (keys.iter())
                    .map(|k| encoder.prepare(k))
                    .collect::<Result<Vec<_>>>()?;
                let row_sets: Vec<RowSet> = (self.chunks.iter())
                    .map(|c| RowSet::Range(0..c.rows()))
                    .collect();
                let batches: Vec<_> = row_encoders.iter().zip(&row_sets).collect();
                let mut index = encoder.new_index(rows);
                let mut ids = Vec::new();
                ids_or_insert_batches(&batches, &mut index, &mut ids)?;
                let mut rest = &ids[..];
                let chunk_ids: Vec<&[u32]> = (self.chunks.iter())
                    .map(|c| {
                        let (head, tail) = rest.split_at(c.rows());
                        rest = tail;
                        head
                    })
                    .collect();
                let lists = group_locations(&chunk_ids, shift, index.len(), |g| g as usize);
                (Buckets::Keyed { index, encoder }, lists)
            }
        };
        self.finalized = Some(Box::new(FinalizedTable {
            shift,
            buckets,
            locations,
            offsets,
        }));
        Ok(())
    }

    /// Probes with a batch; returns the joined batch in
    /// `probe columns ++ build columns` order under `out_schema`.
    pub fn probe(
        &self,
        probe: &RecordBatch,
        probe_key_positions: &[usize],
        out_schema: SchemaRef,
    ) -> Result<RecordBatch> {
        let fin = self
            .finalized
            .as_ref()
            .ok_or_else(|| CiError::Exec("probe of non-finalized hash table".into()))?;
        KeyIndex::check_addressable(probe.physical_rows(), "hash join probe rows")?;
        let keys = key_columns(probe.columns(), probe_key_positions)?;
        // Probe-side rows are *physical*: a deferred filter on the probe
        // stream is read through its selection in place, and only matching
        // rows are ever gathered (the join output is the materialization
        // point).
        let rows = RowSet::of(probe);
        let mut buckets = Vec::new();
        fin.buckets.find(&keys, &rows, &mut buckets)?;
        let (probe_rows, build_locations) = match &fin.offsets {
            // At most one match per row. Branch-free: every row writes the
            // next slot (a miss reads `NO_ROW`) and a hit keeps it.
            None => {
                let n = buckets.len();
                let (mut probe_rows, mut build_locations) = (vec![0u32; n], vec![0u32; n]);
                let mut kept = 0;
                for (row, &b) in rows.iter().zip(&buckets) {
                    let location = fin.locations.get(b as usize).map_or(NO_ROW, |&l| l);
                    probe_rows[kept] = row as u32; // fits: checked above
                    build_locations[kept] = location;
                    kept += usize::from(location != NO_ROW);
                }
                probe_rows.truncate(kept);
                build_locations.truncate(kept);
                (probe_rows, build_locations)
            }
            // Counts the output first, then fills it a bucket's list at a
            // time.
            Some(offsets) => {
                let list = |b: u32| match b {
                    KeyIndex::MISS => 0..0,
                    b => offsets[b as usize] as usize..offsets[b as usize + 1] as usize,
                };
                let n = buckets.iter().map(|&b| list(b).len()).sum();
                let (mut probe_rows, mut build_locations) = (vec![0u32; n], vec![0u32; n]);
                let mut at = 0;
                for (row, &b) in rows.iter().zip(&buckets) {
                    let matches = &fin.locations[list(b)];
                    let end = at + matches.len();
                    probe_rows[at..end].fill(row as u32);
                    build_locations[at..end].copy_from_slice(matches);
                    at = end;
                }
                (probe_rows, build_locations)
            }
        };
        // A distinct-key build emits at most one row per probe row, in
        // order: as many as a dense probe has rows means every row, as is.
        let pass_through = fin.offsets.is_none()
            && probe.selection().is_none()
            && probe_rows.len() == probe.rows();
        let mut columns = if pass_through {
            probe.columns().to_vec()
        } else {
            (probe.columns().iter())
                .map(|c| gather_located(&[c.as_ref()], &probe_rows, 0).map(Arc::new))
                .collect::<Result<Vec<_>>>()?
        };
        for col in 0..self.schema.arity() {
            let parts: Vec<&ColumnData> = self.chunks.iter().map(|c| c.column(col)).collect();
            columns.push(Arc::new(gather_located(
                &parts,
                &build_locations,
                fin.shift,
            )?));
        }
        RecordBatch::from_arcs(out_schema, columns)
    }
}

/// Rows → dense first-appearance ids: a key encoder fixed by the first
/// batch it sees (strings that batch's dictionary lacks extend the key's
/// own id space, so they still form distinct keys) and the index of every
/// key so far. `None` until a batch arrives.
#[derive(Debug, Default)]
struct Grouper(Option<(KeyEncoder, KeyIndex)>);

impl Grouper {
    /// Sets `ids` to the key id of each of the `rows` rows of `cols`.
    fn ids(&mut self, cols: &[&ColumnData], rows: usize, ids: &mut Vec<u32>) -> Result<()> {
        let (encoder, index) = self.0.get_or_insert_with(|| {
            let encoder = KeyEncoder::for_columns(cols);
            let index = encoder.new_index(0);
            (encoder, index)
        });
        KeyIndex::check_addressable(index.len() + rows, "aggregation groups")?;
        let rows = RowSet::Range(0..rows);
        encoder.prepare(cols)?.ids_or_insert(&rows, index, ids)
    }

    /// Number of distinct keys so far.
    fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |(_, index)| index.len())
    }

    /// Every key id so far, in order, beside the encoder and index that
    /// decode it.
    fn keys(&self) -> impl Iterator<Item = (&KeyEncoder, &KeyIndex, usize)> {
        self.0
            .iter()
            .flat_map(|(encoder, index)| (0..index.len()).map(move |id| (encoder, index, id)))
    }
}

/// One aggregate's accumulators: a column addressed by group id.
#[derive(Debug)]
enum AggCol {
    Count(Vec<i64>),
    SumI(Vec<i64>),
    SumF(Vec<f64>),
    Avg {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    /// `MIN` (`losing` = `Greater`) or `MAX` (`Less`): the bound so far.
    Extreme {
        best: Vec<Option<Value>>,
        losing: Ordering,
    },
    /// `DISTINCT`: the distinct `(group id, argument)` pairs, a grouping of
    /// its own. The argument is keyed like any group column — strings
    /// through the first batch's dictionary (foreign ids translated, unseen
    /// strings given extension ids) — so the pair set is the same under
    /// every string encoding.
    Distinct(Grouper),
}

/// `f(group, value)` for each row of an int column, in row order, until `f`
/// fails; no column, or any other, folds nothing.
fn try_each_int(
    col: Option<&ColumnData>,
    ids: &[u32],
    mut f: impl FnMut(usize, i64) -> Option<()>,
) -> Option<()> {
    match col {
        Some(ColumnData::Int64(v)) => v.iter().zip(ids).try_for_each(|(&x, &g)| f(g as usize, x)),
        _ => Some(()),
    }
}

/// `f(group, value)` for each row of a numeric column (ints coerce to
/// float), in row order; no column, or any other, folds nothing.
fn each_num(col: Option<&ColumnData>, ids: &[u32], mut f: impl FnMut(usize, f64)) {
    match col {
        Some(ColumnData::Float64(v)) => v.iter().zip(ids).for_each(|(&x, &g)| f(g as usize, x)),
        _ => {
            try_each_int(col, ids, |g, x| {
                f(g, x as f64);
                Some(())
            });
        }
    }
}

impl AggCol {
    fn new(a: &AggExpr, arg_type: Option<DataType>) -> AggCol {
        if a.distinct {
            return AggCol::Distinct(Grouper::default());
        }
        let extreme = |losing| AggCol::Extreme {
            best: Vec::new(),
            losing,
        };
        match a.func {
            AggFunc::Count => AggCol::Count(Vec::new()),
            AggFunc::Sum => match arg_type {
                Some(DataType::Int64) => AggCol::SumI(Vec::new()),
                _ => AggCol::SumF(Vec::new()),
            },
            AggFunc::Avg => AggCol::Avg {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            AggFunc::Min => extreme(Ordering::Greater),
            AggFunc::Max => extreme(Ordering::Less),
        }
    }

    /// Folds one morsel in: `ids[row]` is the group of row `row` of the
    /// argument column, and `groups` the group count so far. One `match` on
    /// (accumulator, column type), then a tight loop in row order — so each
    /// group folds its rows in the order they arrived, as IEEE sums need.
    /// Reads the column in place: no per-row `Value` is materialized, and
    /// `MIN`/`MAX` clone a string only when the bound actually improves.
    fn fold(
        &mut self,
        a: &AggExpr,
        col: Option<&ColumnData>,
        ids: &[u32],
        groups: usize,
    ) -> Result<()> {
        match (self, col) {
            (AggCol::Count(counts), _) => {
                counts.resize(groups, 0);
                ids.iter().for_each(|&g| counts[g as usize] += 1);
            }
            (AggCol::SumI(sums), col) => {
                sums.resize(groups, 0);
                let add = |g: usize, x| {
                    sums[g] = sums[g].checked_add(x)?;
                    Some(())
                };
                if try_each_int(col, ids, add).is_none() {
                    let arg = a.arg.as_ref().map_or("*".to_owned(), |e| e.to_string());
                    return Err(CiError::Exec(format!("SUM({arg}) overflows Int64")));
                }
            }
            (AggCol::SumF(sums), col) => {
                sums.resize(groups, 0.0);
                each_num(col, ids, |g, x| sums[g] += x);
            }
            (AggCol::Avg { sums, counts }, col) => {
                sums.resize(groups, 0.0);
                counts.resize(groups, 0);
                each_num(col, ids, |g, x| {
                    sums[g] += x;
                    counts[g] += 1;
                });
            }
            (AggCol::Extreme { best, losing }, col) => {
                best.resize(groups, None);
                if let Some(c) = col {
                    for (row, &g) in ids.iter().enumerate() {
                        let bound = &mut best[g as usize];
                        if bound
                            .as_ref()
                            .is_none_or(|cur| row_beats(cur, c, row, *losing))
                        {
                            *bound = Some(c.value(row));
                        }
                    }
                }
            }
            (AggCol::Distinct(pairs), Some(c)) => {
                let group_col = ColumnData::Int64(ids.iter().map(|&g| i64::from(g)).collect());
                pairs.ids(&[&group_col, c], ids.len(), &mut Vec::new())?;
            }
            (AggCol::Distinct(_), None) => {}
        }
        Ok(())
    }

    /// The aggregate's value for every group, in group order.
    fn finish(self, func: AggFunc, out_type: DataType, groups: usize) -> Vec<Value> {
        match self {
            AggCol::Count(v) | AggCol::SumI(v) => v.into_iter().map(Value::Int).collect(),
            AggCol::SumF(v) => v.into_iter().map(Value::Float).collect(),
            AggCol::Avg { sums, counts } => sums
                .into_iter()
                .zip(counts)
                .map(|(sum, n)| Value::Float(if n == 0 { 0.0 } else { sum / n as f64 }))
                .collect(),
            AggCol::Extreme { best, .. } => best
                .into_iter()
                .map(|m| m.unwrap_or_else(|| zero_of(out_type)))
                .collect(),
            AggCol::Distinct(pairs) => {
                let mut sets: Vec<Vec<Value>> = vec![Vec::new(); groups];
                for (encoder, index, id) in pairs.keys() {
                    // Word 0 is the group id, written from a `u32`.
                    let g = index.key(id)[0] as usize;
                    sets[g].push(encoder.key_value_at(index, id, 1));
                }
                sets.into_iter()
                    .map(|set| match func {
                        AggFunc::Count => Value::Int(set.len() as i64),
                        // SUM/AVG/MIN/MAX DISTINCT: recompute from the set.
                        _ => distinct_fold(set, func),
                    })
                    .collect()
            }
        }
    }
}

/// `true` when the value at `row` strictly beats `cur` in the given
/// direction (`Greater` = cur loses a MIN race, `Less` = cur loses a MAX
/// race). String columns compare by reference; incomparable pairs keep the
/// current bound, matching `Value::min_sql`/`max_sql`.
fn row_beats(cur: &Value, c: &ColumnData, row: usize, losing: Ordering) -> bool {
    if let (Value::Str(s), Some(x)) = (cur, c.str_at(row)) {
        return s.as_str().cmp(x) == losing;
    }
    // Non-string columns construct heap-free values.
    cur.partial_cmp_sql(&c.value(row)) == Some(losing)
}

fn zero_of(t: DataType) -> Value {
    match t {
        DataType::Int64 => Value::Int(0),
        DataType::Float64 => Value::Float(0.0),
        DataType::Utf8 => Value::Str(String::new()),
        DataType::Bool => Value::Bool(false),
    }
}

fn distinct_fold(mut vals: Vec<Value>, func: AggFunc) -> Value {
    // The set arrives in first-appearance order; sort so order-sensitive
    // folds (float SUM/AVG) do not depend on how morsels were cut. The order
    // is total — ints by value, floats by bit pattern, strings lexically —
    // so this is well-defined even when the set holds NaNs;
    // `partial_cmp_sql` is not, and a non-total comparator can panic
    // `sort_by`. (One set holds one type: it is one column's values.)
    vals.sort_unstable_by(|a, b| match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.to_bits().cmp(&y.to_bits()),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => Ordering::Equal,
    });
    match func {
        AggFunc::Sum => Value::Float(vals.iter().filter_map(Value::as_f64).sum()),
        AggFunc::Avg => {
            let nums: Vec<f64> = vals.iter().filter_map(Value::as_f64).collect();
            Value::Float(if nums.is_empty() {
                0.0
            } else {
                nums.iter().sum::<f64>() / nums.len() as f64
            })
        }
        AggFunc::Min => vals
            .into_iter()
            .reduce(|a, b| a.min_sql(b))
            .unwrap_or(Value::Int(0)),
        AggFunc::Max => vals
            .into_iter()
            .reduce(|a, b| a.max_sql(b))
            .unwrap_or(Value::Int(0)),
        AggFunc::Count => Value::Int(vals.len() as i64),
    }
}

/// `e`'s values over the logical rows of `batch`: a bare column of a dense
/// batch by reference, anything else evaluated.
fn logical_column<'a>(
    e: &PlanExpr,
    batch: &'a RecordBatch,
    map: &ColMap,
) -> Result<Cow<'a, ColumnData>> {
    match e {
        PlanExpr::Col(slot) if batch.selection().is_none() => {
            Ok(Cow::Borrowed(batch.column(map.position(*slot)?)))
        }
        e => e.eval(batch, map).map(Cow::Owned),
    }
}

/// Streaming hash-aggregation state.
#[derive(Debug)]
pub struct AggregateState {
    group_exprs: Vec<PlanExpr>,
    aggs: Vec<AggExpr>,
    in_map: ColMap,
    out_schema: SchemaRef,
    /// Group keys → id; ids run in first-appearance order, which is the
    /// output order.
    groups: Grouper,
    /// One accumulator column per aggregate, each addressed by group id.
    accs: Vec<AggCol>,
    /// The current morsel's group id per row (kept for its allocation).
    ids: Vec<u32>,
}

impl AggregateState {
    /// New aggregation state. `out_schema` covers groups then aggregates;
    /// `in_map` maps input slots to the feeding batch layout.
    pub fn new(
        group_exprs: Vec<PlanExpr>,
        aggs: Vec<AggExpr>,
        in_map: ColMap,
        in_types: &dyn Fn(usize) -> Result<DataType>,
        out_schema: SchemaRef,
    ) -> Result<AggregateState> {
        let accs = aggs
            .iter()
            .map(|a| {
                let arg_type = a.arg.as_ref().map(|e| e.data_type(in_types)).transpose()?;
                Ok(AggCol::new(a, arg_type))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(AggregateState {
            group_exprs,
            aggs,
            in_map,
            out_schema,
            groups: Grouper::default(),
            accs,
            ids: Vec::new(),
        })
    }

    /// Folds one morsel into the state. On a dense batch a bare column
    /// reference is read where it lies; deferred filters cost one
    /// O(selected) gather per *referenced* column (selection-aware
    /// [`PlanExpr::eval`]), never a physical-width copy, and unreferenced
    /// columns are never touched. Accumulation is then dense over the
    /// logical rows: group columns → one id per row → one pass per
    /// aggregate.
    pub fn update(&mut self, batch: &RecordBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let group_cols = (self.group_exprs.iter())
            .map(|e| logical_column(e, batch, &self.in_map))
            .collect::<Result<Vec<_>>>()?;
        let group_refs: Vec<&ColumnData> = group_cols.iter().map(|c| c.as_ref()).collect();
        self.groups.ids(&group_refs, batch.rows(), &mut self.ids)?;
        let groups = self.groups.len();
        for (acc, a) in self.accs.iter_mut().zip(&self.aggs) {
            let arg = a
                .arg
                .as_ref()
                .map(|e| logical_column(e, batch, &self.in_map));
            acc.fold(a, arg.transpose()?.as_deref(), &self.ids, groups)?;
        }
        Ok(())
    }

    /// Number of groups so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Produces the aggregate output batch (groups then agg values).
    pub fn finalize(mut self) -> Result<RecordBatch> {
        // Global aggregate over empty input: one row of defaults.
        if self.groups.len() == 0 && self.group_exprs.is_empty() {
            self.groups.ids(&[], 1, &mut self.ids)?;
            for (acc, a) in self.accs.iter_mut().zip(&self.aggs) {
                acc.fold(a, None, &[], 1)?;
            }
        }
        let g = self.group_exprs.len();
        let groups = self.groups.len();
        // Group columns keyed through a dictionary re-emit dict-encoded
        // output sharing the input dictionary, so downstream sorts and
        // joins stay on the integer id fast path. Only group strings that
        // spilled past the dictionary (unseen in the first morsel) force a
        // one-time copy-on-write intern.
        let mut columns: Vec<ColumnData> = self
            .out_schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                // No encoder means no morsel arrived: no groups to emit.
                let dict = (self.groups.0.as_ref())
                    .filter(|_| i < g)
                    .and_then(|(encoder, _)| encoder.dict_mode(i));
                match dict {
                    Some(dict) => ColumnData::Dict {
                        ids: Vec::with_capacity(groups),
                        dict: dict.clone(),
                    },
                    None => ColumnData::with_capacity(f.data_type, groups),
                }
            })
            .collect();
        for (encoder, index, id) in self.groups.keys() {
            for (i, col) in columns.iter_mut().take(g).enumerate() {
                match encoder.dict_entry(index, id, i) {
                    Some(entry) => {
                        let ColumnData::Dict { ids, dict } = col else {
                            return Err(CiError::Exec(format!(
                                "group column {i} is keyed through a dictionary \
                                 but was not built dict-encoded"
                            )));
                        };
                        match entry {
                            DictKeyEntry::Id(id) => ids.push(id),
                            DictKeyEntry::Spilled(s) => ids.push(Arc::make_mut(dict).intern(s)),
                        }
                    }
                    None => col.push(encoder.key_value_at(index, id, i))?,
                }
            }
        }
        for (j, (acc, a)) in self.accs.into_iter().zip(&self.aggs).enumerate() {
            let out_t = self.out_schema.field(g + j).data_type;
            for value in acc.finish(a.func, out_t, groups) {
                columns[g + j].push(value)?;
            }
        }
        RecordBatch::new(self.out_schema.clone(), columns)
    }
}

/// Buffers batches for a sort breaker and produces the sorted output.
///
/// Buffered batches are kept exactly as they stream in — deferred filter
/// selections and all. [`SortBuffer::finalize`] sorts row addresses that
/// read every key column *in place* through its batch's selection, so the
/// only materialization is the sorted output itself.
///
/// The order is total: each key compares in its column's own order
/// (numbers ascending with `-0.0` equal to `0.0` and NaN after every number,
/// as [`f64_sort_key`] defines; strings by value, whatever dictionary holds
/// them; `false` before `true`), `DESC` reverses a key (so NaN comes first
/// there), and rows equal on every key keep their arrival order. With a
/// [`SortBuffer::with_limit`] bound (a `LIMIT` directly consuming the sort)
/// only rows that can still be among the first `k` are kept, so the sink
/// neither orders nor materializes rows the query will discard.
#[derive(Debug)]
pub struct SortBuffer {
    schema: SchemaRef,
    /// (column position, ascending) sort keys.
    keys: Vec<(usize, bool)>,
    /// Keep only the first `limit` sorted rows when set.
    limit: Option<usize>,
    buffered: Vec<RecordBatch>,
}

/// Rows a limited sort gathers past its limit before selecting back down,
/// at the least. When nearly every row beats the bar (input arriving in
/// the reverse of the wanted order) each selection then serves a thousand
/// rows, not `k`: at `LIMIT 1` a selection per row would cost more than
/// sorting every address.
const MIN_SORT_SLACK: usize = 1_024;

/// A row competing for the output: its first key as an order word
/// ([`SortCol::word`], inverted for `DESC`), then its address (batch,
/// physical row), which is also its arrival order.
type SortCand = (u64, u32, u32);

impl SortBuffer {
    /// New sort state; `keys` index into the batch layout.
    pub fn new(schema: SchemaRef, keys: Vec<(usize, bool)>) -> SortBuffer {
        SortBuffer {
            schema,
            keys,
            limit: None,
            buffered: Vec::new(),
        }
    }

    /// Caps the output at the first `limit` sorted rows (top-k): the
    /// `LIMIT` pushed down into the sort by the engine.
    pub fn with_limit(mut self, limit: Option<usize>) -> SortBuffer {
        self.limit = limit;
        self
    }

    /// Buffers one morsel as-is — selections stay deferred until the sorted
    /// gather.
    pub fn push(&mut self, batch: RecordBatch) {
        self.buffered.push(batch);
    }

    /// Logical rows buffered so far.
    pub fn rows(&self) -> usize {
        self.buffered.iter().map(RecordBatch::rows).sum()
    }

    /// Sorts and returns the output. Every row is offered once, in arrival
    /// order, against a running *bar*: under a limit `k`, the `k`-th best
    /// row kept at the last selection. A row that does not beat the bar
    /// costs one comparison of its first key's order word and is dropped;
    /// the rest are kept as candidates, and when `2k` (at least `k + 1 024`,
    /// `MIN_SORT_SLACK`) are kept they are selected back down to `k`, which
    /// raises the bar. Only the surviving candidates are selected and
    /// sorted.
    pub fn finalize(self) -> Result<RecordBatch> {
        let rows = self.rows();
        let keep = self.limit.map_or(rows, |k| k.min(rows));
        if keep == 0 {
            return Ok(RecordBatch::empty(self.schema));
        }
        // Per-key, per-batch in-place readers. With no keys at all, rows
        // keep their arrival order.
        let keys: Vec<(Vec<SortCol>, u64)> = self
            .keys
            .iter()
            .map(|&(pos, asc)| {
                let flip = if asc { 0 } else { u64::MAX };
                (SortCol::for_batches(&self.buffered, pos), flip)
            })
            .collect();
        let (first, rest) = match keys.split_first() {
            Some((first, rest)) => (Some(first), rest),
            None => (None, &[][..]),
        };
        let cmp = |a: &SortCand, b: &SortCand| {
            a.0.cmp(&b.0)
                .then_with(|| {
                    rest.iter()
                        .map(|(cols, flip)| {
                            let x = cols[a.1 as usize].word(a.2 as usize) ^ flip;
                            x.cmp(&(cols[b.1 as usize].word(b.2 as usize) ^ flip))
                        })
                        .find(|o| o.is_ne())
                        .unwrap_or(Ordering::Equal)
                })
                .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
        };

        let cap = if keep < rows {
            keep.saturating_add(keep.max(MIN_SORT_SLACK))
        } else {
            usize::MAX
        };
        let mut top = Candidates {
            cands: Vec::with_capacity(cap.min(rows)),
            keep,
            cap,
            bar: None,
            cmp,
        };
        for (bi, b) in self.buffered.iter().enumerate() {
            // The first key's reader is matched once per batch, not per row.
            let Some((cols, flip)) = first else {
                top.offer_batch(bi, b, |_| 0);
                continue;
            };
            match &cols[bi] {
                SortCol::I64(v) => top.offer_batch(bi, b, |p| i64_word(v[p]) ^ flip),
                SortCol::F64(v) => top.offer_batch(bi, b, |p| f64_sort_key(v[p]) ^ flip),
                SortCol::Bool(v) => top.offer_batch(bi, b, |p| v[p] as u64 ^ flip),
                SortCol::Dict(ids, ranks) => {
                    top.offer_batch(bi, b, |p| ranks[ids[p] as usize] as u64 ^ flip)
                }
            }
        }
        let Candidates { mut cands, cmp, .. } = top;
        if cands.len() > keep {
            cands.select_nth_unstable_by(keep - 1, cmp);
            cands.truncate(keep);
        }
        // A strict total order (addresses are distinct), so the unstable
        // sort is deterministic.
        cands.sort_unstable_by(cmp);
        drop(keys);

        // Materialize the sorted permutation — the sink's single copy.
        if let [only] = &self.buffered[..] {
            let phys: Vec<usize> = cands.iter().map(|&(_, _, p)| p as usize).collect();
            return only.unselected().take(&phys)?.with_schema(self.schema);
        }
        // Batches that append as they are gather a column at a time, by
        // location; others convert row by row, re-interning strings of a
        // foreign dictionary into the first batch's, as an append would.
        let first = &self.buffered[0];
        let widest = self.buffered.iter().map(RecordBatch::physical_rows).max();
        let shift = location_shift(widest.unwrap_or(0));
        if locatable(self.buffered.len(), shift)
            && self.buffered.iter().all(|b| appends_as_is(first, b))
        {
            let locations: Vec<u32> = (cands.iter())
                .map(|&(_, bi, p)| ((bi as u64) << shift | u64::from(p)) as u32)
                .collect();
            let columns = (0..first.columns().len())
                .map(|col| {
                    let parts: Vec<&ColumnData> =
                        self.buffered.iter().map(|b| b.column(col)).collect();
                    gather_located(&parts, &locations, shift).map(Arc::new)
                })
                .collect::<Result<Vec<_>>>()?;
            return RecordBatch::from_arcs(self.schema, columns);
        }
        let mut columns: Vec<ColumnData> =
            (first.columns().iter()).map(|c| c.slice(0, 0)).collect();
        for &(_, bi, p) in &cands {
            let src = &self.buffered[bi as usize];
            for (dst, col) in columns.iter_mut().zip(src.columns()) {
                dst.push_from(col, p as usize)?;
            }
        }
        RecordBatch::new(self.schema, columns)
    }
}

/// The rows a sort still keeps: every row that beat the bar when it
/// arrived, at most `cap` of them (`usize::MAX` when every row is kept).
struct Candidates<C> {
    cands: Vec<SortCand>,
    keep: usize,
    cap: usize,
    /// The `keep`-th best candidate since the last selection.
    bar: Option<SortCand>,
    cmp: C,
}

impl<C: Fn(&SortCand, &SortCand) -> Ordering> Candidates<C> {
    /// Offers every logical row of batch `bi`, whose first-key order word
    /// at physical row `p` is `word(p)`.
    fn offer_batch(&mut self, bi: usize, b: &RecordBatch, word: impl Fn(usize) -> u64) {
        match RowSet::of(b) {
            RowSet::Range(r) => self.offer_rows(bi, r, word),
            RowSet::Picked(p) => self.offer_rows(bi, p.iter().map(|&i| i as usize), word),
        }
    }

    fn offer_rows(
        &mut self,
        bi: usize,
        rows: impl Iterator<Item = usize>,
        word: impl Fn(usize) -> u64,
    ) {
        // The bar's word, kept apart so a dropped row costs one comparison.
        let mut bar_word = self.bar.map_or(u64::MAX, |bar| bar.0);
        for p in rows {
            let w = word(p);
            if w <= bar_word {
                bar_word = self.admit((w, bi as u32, p as u32));
            }
        }
    }

    /// Keeps `c` unless it loses to the bar; returns the bar's word.
    #[inline(always)]
    fn admit(&mut self, c: SortCand) -> u64 {
        if let Some(bar) = self.bar {
            // Arrival order breaks ties, and `c` arrived last.
            if c.0 == bar.0 && (self.cmp)(&c, &bar) != Ordering::Less {
                return bar.0;
            }
        }
        self.cands.push(c);
        if self.cands.len() == self.cap {
            self.cands.select_nth_unstable_by(self.keep - 1, &self.cmp);
            self.cands.truncate(self.keep);
            self.bar = Some(self.cands[self.keep - 1]);
        }
        self.bar.map_or(u64::MAX, |bar| bar.0)
    }
}

/// An `i64`'s order word: its unsigned order is the signed one.
fn i64_word(x: i64) -> u64 {
    x as u64 ^ 1 << 63
}

/// One batch's sort key column, read as order words.
enum SortCol<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    /// Dict ids plus every id's rank in one lexicographic order shared by
    /// the dictionaries of all buffered batches, so ranks of different
    /// batches compare whether or not their dictionaries are one.
    Dict(&'a [u32], Arc<Vec<u32>>),
}

impl<'a> SortCol<'a> {
    /// Readers for column `pos` of every batch. Dict columns share one rank
    /// table per distinct dictionary.
    fn for_batches(batches: &'a [RecordBatch], pos: usize) -> Vec<SortCol<'a>> {
        let mut dicts: Vec<&Arc<Dictionary>> = Vec::new();
        let dict_of: Vec<usize> = batches
            .iter()
            .map(|b| match b.column(pos) {
                ColumnData::Dict { dict, .. } => {
                    match dicts.iter().position(|d| Arc::ptr_eq(d, dict)) {
                        Some(d) => d,
                        None => {
                            dicts.push(dict);
                            dicts.len() - 1
                        }
                    }
                }
                _ => 0,
            })
            .collect();
        let plain: Vec<&Dictionary> = dicts.iter().map(|d| d.as_ref()).collect();
        let ranks: Vec<Arc<Vec<u32>>> = Dictionary::joint_ranks(&plain)
            .into_iter()
            .map(Arc::new)
            .collect();
        batches
            .iter()
            .zip(dict_of)
            .map(|(b, d)| match b.column(pos) {
                ColumnData::Int64(v) => SortCol::I64(v),
                ColumnData::Float64(v) => SortCol::F64(v),
                ColumnData::Bool(v) => SortCol::Bool(v),
                ColumnData::Dict { ids, .. } => SortCol::Dict(ids, ranks[d].clone()),
            })
            .collect()
    }

    /// Row `i`'s key as a word whose unsigned order is the column's
    /// ascending sort order.
    fn word(&self, i: usize) -> u64 {
        match self {
            SortCol::I64(v) => i64_word(v[i]),
            SortCol::F64(v) => f64_sort_key(v[i]),
            SortCol::Bool(v) => v[i] as u64,
            SortCol::Dict(ids, ranks) => ranks[ids[i] as usize] as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2(t0: DataType, t1: DataType) -> SchemaRef {
        Arc::new(Schema::of(vec![Field::new("s0", t0), Field::new("s1", t1)]))
    }

    fn batch(ids: Vec<i64>, vals: Vec<f64>) -> RecordBatch {
        RecordBatch::new(
            schema2(DataType::Int64, DataType::Float64),
            vec![ColumnData::Int64(ids), ColumnData::Float64(vals)],
        )
        .unwrap()
    }

    #[test]
    fn filter_and_project() {
        let b = batch(vec![1, 2, 3], vec![10.0, 20.0, 30.0]);
        let map = ColMap::from_slots(&[0, 1]);
        let pred = PlanExpr::bin(
            ci_plan::expr::BinOp::Gt,
            PlanExpr::Col(0),
            PlanExpr::Lit(Value::Int(1)),
        );
        let f = apply_filter(&b, &pred, &map).unwrap();
        assert_eq!(f.rows(), 2);

        let out_schema = Arc::new(Schema::of(vec![Field::new("x", DataType::Float64)]));
        let exprs = vec![(
            PlanExpr::bin(
                ci_plan::expr::BinOp::Mul,
                PlanExpr::Col(1),
                PlanExpr::Lit(Value::Float(2.0)),
            ),
            "x".to_owned(),
        )];
        let p = apply_project(&f, &exprs, &map, out_schema).unwrap();
        assert_eq!(p.column(0), &ColumnData::Float64(vec![40.0, 60.0]));
    }

    #[test]
    fn project_coerces_int_literal_to_float() {
        let b = batch(vec![1], vec![1.0]);
        let map = ColMap::from_slots(&[0, 1]);
        let out_schema = Arc::new(Schema::of(vec![Field::new("one", DataType::Float64)]));
        let exprs = vec![(PlanExpr::Lit(Value::Int(1)), "one".to_owned())];
        let p = apply_project(&b, &exprs, &map, out_schema).unwrap();
        assert_eq!(p.column(0), &ColumnData::Float64(vec![1.0]));
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let build = batch(vec![1, 2, 2, 5], vec![10.0, 20.0, 21.0, 50.0]);
        let probe = batch(vec![2, 5, 7, 2], vec![0.2, 0.5, 0.7, 0.22]);
        let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
        // Insert in two morsels.
        ht.insert_batch(build.slice(0, 2).unwrap()).unwrap();
        ht.insert_batch(build.slice(2, 2).unwrap()).unwrap();
        ht.finalize().unwrap();
        let out_schema = Arc::new(Schema::of(vec![
            Field::new("p0", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("b0", DataType::Int64),
            Field::new("b1", DataType::Float64),
        ]));
        let joined = ht.probe(&probe, &[0], out_schema).unwrap();

        // Nested-loop reference.
        let mut expected = 0;
        for p in 0..probe.rows() {
            for b in 0..build.rows() {
                if probe.column(0).value(p) == build.column(0).value(b) {
                    expected += 1;
                }
            }
        }
        assert_eq!(joined.rows(), expected);
        // Every joined row has equal keys.
        for r in 0..joined.rows() {
            assert_eq!(joined.column(0).value(r), joined.column(2).value(r));
        }
    }

    #[test]
    fn probe_before_finalize_fails() {
        let ht = JoinHashTable::new(schema2(DataType::Int64, DataType::Float64), vec![0]);
        let probe = batch(vec![1], vec![1.0]);
        assert!(ht
            .probe(&probe, &[0], schema2(DataType::Int64, DataType::Float64))
            .is_err());
    }

    #[test]
    fn empty_build_joins_to_empty() {
        let mut ht = JoinHashTable::new(schema2(DataType::Int64, DataType::Float64), vec![0]);
        ht.finalize().unwrap();
        let probe = batch(vec![1, 2], vec![1.0, 2.0]);
        let out_schema = Arc::new(Schema::of(vec![
            Field::new("p0", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("b0", DataType::Int64),
            Field::new("b1", DataType::Float64),
        ]));
        let joined = ht.probe(&probe, &[0], out_schema).unwrap();
        assert_eq!(joined.rows(), 0);
    }

    /// A finalized join table over `chunks`, keyed on column 0.
    fn built(chunks: &[RecordBatch]) -> JoinHashTable {
        let mut ht = JoinHashTable::new(chunks[0].schema().clone(), vec![0]);
        for chunk in chunks {
            ht.insert_batch(chunk.clone()).unwrap();
        }
        ht.finalize().unwrap();
        ht
    }

    /// `probe ++ build` output schema for two sides of `schema`.
    fn joined_schema(schema: &SchemaRef) -> SchemaRef {
        let fields = schema.fields().iter().chain(schema.fields());
        let fields = fields
            .enumerate()
            .map(|(i, f)| Field::new(format!("o{i}"), f.data_type));
        Arc::new(Schema::of(fields.collect()))
    }

    /// Nested-loop reference rows of `probe` joined with `build` on column 0.
    fn nested_loop(build: &RecordBatch, probe: &RecordBatch) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for p in 0..probe.rows() {
            for b in 0..build.rows() {
                if probe.row(p)[0] == build.row(b)[0] {
                    rows.push(probe.row(p).into_iter().chain(build.row(b)).collect());
                }
            }
        }
        rows
    }

    fn rows_of(batch: &RecordBatch) -> Vec<Vec<Value>> {
        (0..batch.rows()).map(|r| batch.row(r)).collect()
    }

    #[test]
    fn chunks_that_would_convert_join_as_their_concat() {
        let schema = schema2(DataType::Int64, DataType::Utf8);
        // A fresh dictionary, or one that first interns decoys and the
        // names in reverse: other ids, and entries no row references.
        let chunk = |keys: Vec<i64>, names: &[&str], fresh: bool| {
            let mut dict = Dictionary::new();
            if !fresh {
                for s in ["zz", "aa"].iter().chain(names.iter().rev()) {
                    dict.intern(s);
                }
            }
            let ids = names.iter().map(|s| dict.intern(s)).collect();
            let names = ColumnData::Dict {
                ids,
                dict: Arc::new(dict),
            };
            RecordBatch::new(schema.clone(), vec![ColumnData::Int64(keys), names]).unwrap()
        };
        let out_schema = joined_schema(&schema);
        let probe = chunk(vec![2, 7, 1, 2], &["x", "y", "z", "w"], false);
        // Two fresh dictionaries, then a foreign one after a fresh one and
        // the reverse: none appends without re-interning.
        for (first_dict, second_dict) in [(true, true), (true, false), (false, true)] {
            let chunks = [
                chunk(vec![1, 2], &["a", "b"], first_dict),
                chunk(vec![2, 7], &["b", "c"], second_dict),
            ];
            let mut ht = built(&chunks);
            assert_eq!(ht.chunks.len(), 1, "made one chunk by concat");
            let concat = RecordBatch::concat(&chunks).unwrap();
            let whole = built(std::slice::from_ref(&concat));
            let got = ht.probe(&probe, &[0], out_schema.clone()).unwrap();
            let want = whole.probe(&probe, &[0], out_schema.clone()).unwrap();
            assert_eq!(rows_of(&got), nested_loop(&concat, &probe));
            assert_eq!(got, want);
            let (got, want) = (got.column(3), want.column(3));
            let ((got_ids, got_dict), (ids, dict)) =
                (got.as_dict().unwrap(), want.as_dict().unwrap());
            assert_eq!(
                (got_ids, got_dict.as_ref()),
                (ids, dict.as_ref()),
                "the concat's dictionary"
            );
            // Inserting after finalize is refused; finalize is idempotent.
            assert!(ht.insert_batch(probe.clone()).is_err());
            ht.finalize().unwrap();
            assert_eq!(ht.build_rows(), 4);
        }
    }

    #[test]
    fn full_match_of_a_distinct_build_shares_the_probe_columns() {
        let out = joined_schema(&schema2(DataType::Int64, DataType::Float64));
        let shares = |joined: &RecordBatch, probe: &RecordBatch| {
            (0..2).all(|c| Arc::ptr_eq(&joined.columns()[c], &probe.columns()[c]))
        };
        let distinct = batch(vec![3, 1, 2], vec![30.0, 10.0, 20.0]);
        let ht = built(&[distinct.slice(0, 1).unwrap(), distinct.slice(1, 2).unwrap()]);
        let full = batch(vec![1, 2, 3, 1], vec![0.1, 0.2, 0.3, 0.4]);
        let joined = ht.probe(&full, &[0], out.clone()).unwrap();
        assert!(
            shares(&joined, &full),
            "every row matched once: passed through"
        );
        assert_eq!(rows_of(&joined), nested_loop(&distinct, &full));

        // One miss, or every row matched but behind a selection: gathered.
        let one_miss = batch(vec![1, 9, 3], vec![0.1, 0.9, 0.3]);
        let selected = full.filter(&[true, true, false, true]).unwrap();
        for probe in [one_miss, selected] {
            let joined = ht.probe(&probe, &[0], out.clone()).unwrap();
            assert!(!shares(&joined, &probe));
            assert_eq!(rows_of(&joined), nested_loop(&distinct, &probe));
        }

        // Duplicate keys: as many matches as probe rows — key 1 twice, key 8
        // never — is no pass-through.
        let duplicate = batch(vec![1, 1, 2], vec![10.0, 11.0, 20.0]);
        let ht = built(std::slice::from_ref(&duplicate));
        let probe = batch(vec![1, 8], vec![0.1, 0.8]);
        let joined = ht.probe(&probe, &[0], out).unwrap();
        assert_eq!(joined.rows(), probe.rows());
        assert!(!shares(&joined, &probe));
        assert_eq!(rows_of(&joined), nested_loop(&duplicate, &probe));
    }

    #[test]
    fn locations_pack_at_their_edges() {
        // The widest chunk sets the row bits: 2^k rows need k, 2^k + 1 need
        // k + 1.
        for k in [0u32, 1, 4, 10] {
            let wide = 1usize << k;
            assert_eq!(location_shift(wide.max(3)), k.max(2));
            assert_eq!(location_shift(wide + 1), k + 1);
        }
        assert_eq!(location_shift(0), 0);
        // Chunks × 2^shift must stay below 2^32: the top `u32` is `NO_ROW`.
        // One chunk's locations are its rows.
        assert!(locatable(1, 32) && locatable(2, 30) && locatable((1 << 16) - 1, 16));
        assert!(!locatable(2, 32) && !locatable(2, 31) && !locatable(1 << 16, 16));

        // Chunks of 2^4 and 2^4 + 1 rows (keys repeat across them, so the
        // CSR holds rows of both) join row for row like one batch.
        for (first, second) in [(16, 17), (17, 16), (16, 16)] {
            let keys = |n: i64, base: i64| (0..n).map(move |r| (r * 5 + base) % 13);
            let chunks = [
                batch(
                    keys(first, 0).collect(),
                    (0..first).map(|r| r as f64).collect(),
                ),
                batch(
                    keys(second, 7).collect(),
                    (0..second).map(|r| -r as f64).collect(),
                ),
                batch(vec![12, 0, 5], vec![0.5; 3]),
            ];
            let ht = built(&chunks);
            assert_eq!(ht.chunks.len(), 3);
            let concat = RecordBatch::concat(&chunks).unwrap();
            let probe = batch((-1..14).collect(), vec![1.0; 15]);
            let joined = ht
                .probe(&probe, &[0], joined_schema(probe.schema()))
                .unwrap();
            assert_eq!(rows_of(&joined), nested_loop(&concat, &probe));
        }
    }

    /// The dense span bound and its offset form, and the key layouts that
    /// stay keyed: a bound off by one, or a bucket without its offset,
    /// fails here.
    #[test]
    fn dense_int_keys_take_the_slot_path_up_to_their_bound() {
        let finalized = |keys: Vec<i64>| {
            let n = keys.len();
            let ht = built(&[batch(keys, vec![0.0; n])]);
            let fin = ht.finalized.expect("finalized");
            let dense = match fin.buckets {
                Buckets::Dense { min, span } => Some((min, span)),
                Buckets::Keyed { .. } => None,
            };
            (dense, fin.offsets.is_some())
        };
        let path = |keys: Vec<i64>| finalized(keys).0;
        // Q9's segment-filtered `customer` build: 1 250 keys over 5 000.
        let q9 = (0..1_249).map(|i| 7 + i * 4).chain([5_006]).collect();
        assert_eq!(finalized(q9), (Some((7, 5_000)), false));
        // At the bound and one past it: 2^16 slots for a small build,
        // twice the rows past 2^15 rows.
        for rows in [3i64, 40_000] {
            let bound = (2 * rows).max(1 << 16);
            let keys = |last| (-1..rows - 2).chain([last]).collect();
            assert_eq!(path(keys(bound - 2)), Some((-1, bound as usize)));
            assert_eq!(path(keys(bound - 1)), None);
        }
        // Repeated keys keep their span and take the CSR.
        assert_eq!(finalized(vec![-3, 9, -3, 0]), (Some((-3, 13)), true));
        // Spans past `i64` overflow and stay keyed; the top of the range
        // does not.
        assert_eq!(path(vec![i64::MIN, i64::MAX]), None);
        assert_eq!(path(vec![0, i64::MIN]), None);
        let top = vec![i64::MAX, i64::MAX - 2];
        assert_eq!(finalized(top), (Some((i64::MAX - 2, 3)), false));
        // No rows, no span.
        assert_eq!(path(Vec::new()), None);
        // A float key column, or two int columns, is keyed.
        let floats = batch(vec![1, 2], vec![1.0, 2.0]);
        let mut ht = JoinHashTable::new(floats.schema().clone(), vec![1]);
        ht.insert_batch(floats.clone()).unwrap();
        ht.finalize().unwrap();
        assert!(matches!(
            ht.finalized.unwrap().buckets,
            Buckets::Keyed { .. }
        ));
        let mut ht = JoinHashTable::new(floats.schema().clone(), vec![0, 0]);
        ht.insert_batch(floats).unwrap();
        ht.finalize().unwrap();
        assert!(matches!(
            ht.finalized.unwrap().buckets,
            Buckets::Keyed { .. }
        ));
    }

    #[test]
    fn chunks_past_the_u32_location_fall_back_to_one_chunk() {
        // A 2^16-row chunk leaves 16 bits to number chunks: 2^16 more
        // one-row chunks are too many.
        let wide = 1i64 << 16;
        let mut chunks = vec![batch((0..wide).collect(), vec![1.0; wide as usize])];
        chunks.extend((0..wide).map(|r| batch(vec![wide + r], vec![2.0])));
        let ht = built(&chunks);
        assert_eq!(ht.chunks.len(), 1);
        assert_eq!(ht.build_rows(), 2 * wide as usize);
        let probe = batch(vec![wide - 1, wide, 2 * wide - 1, 2 * wide], vec![0.0; 4]);
        let joined = ht
            .probe(&probe, &[0], joined_schema(probe.schema()))
            .unwrap();
        assert_eq!(
            joined.column(2),
            &ColumnData::Int64(vec![wide - 1, wide, 2 * wide - 1])
        );
        assert_eq!(joined.column(3), &ColumnData::Float64(vec![1.0, 2.0, 2.0]));
    }

    fn agg_state(groups: Vec<PlanExpr>, aggs: Vec<AggExpr>, out: SchemaRef) -> AggregateState {
        let types = |s: usize| -> Result<DataType> {
            Ok(if s == 0 {
                DataType::Int64
            } else {
                DataType::Float64
            })
        };
        AggregateState::new(groups, aggs, ColMap::from_slots(&[0, 1]), &types, out).unwrap()
    }

    #[test]
    fn grouped_aggregation() {
        let out = Arc::new(Schema::of(vec![
            Field::new("g", DataType::Int64),
            Field::new("cnt", DataType::Int64),
            Field::new("sum", DataType::Float64),
            Field::new("avg", DataType::Float64),
            Field::new("min", DataType::Float64),
            Field::new("max", DataType::Float64),
        ]));
        let mut st = agg_state(
            vec![PlanExpr::Col(0)],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(PlanExpr::Col(1)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Avg,
                    arg: Some(PlanExpr::Col(1)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Min,
                    arg: Some(PlanExpr::Col(1)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Max,
                    arg: Some(PlanExpr::Col(1)),
                    distinct: false,
                },
            ],
            out,
        );
        st.update(&batch(vec![1, 2, 1], vec![10.0, 20.0, 30.0]))
            .unwrap();
        st.update(&batch(vec![2], vec![40.0])).unwrap();
        let result = st.finalize().unwrap();
        assert_eq!(result.rows(), 2);
        // Insertion order: group 1 first.
        assert_eq!(result.row(0)[0], Value::Int(1));
        assert_eq!(result.row(0)[1], Value::Int(2)); // count
        assert_eq!(result.row(0)[2], Value::Float(40.0)); // sum
        assert_eq!(result.row(0)[3], Value::Float(20.0)); // avg
        assert_eq!(result.row(0)[4], Value::Float(10.0)); // min
        assert_eq!(result.row(0)[5], Value::Float(30.0)); // max
        assert_eq!(result.row(1)[2], Value::Float(60.0));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let out = Arc::new(Schema::of(vec![Field::new("cnt", DataType::Int64)]));
        let st = agg_state(
            vec![],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            }],
            out,
        );
        let result = st.finalize().unwrap();
        assert_eq!(result.rows(), 1);
        assert_eq!(result.row(0)[0], Value::Int(0));
    }

    #[test]
    fn count_distinct() {
        let out = Arc::new(Schema::of(vec![Field::new("cd", DataType::Int64)]));
        let mut st = agg_state(
            vec![],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: Some(PlanExpr::Col(0)),
                distinct: true,
            }],
            out,
        );
        st.update(&batch(vec![1, 2, 2, 3, 1], vec![0.0; 5]))
            .unwrap();
        let result = st.finalize().unwrap();
        assert_eq!(result.row(0)[0], Value::Int(3));
    }

    #[test]
    fn int_sum_overflow_is_a_typed_error_not_a_wrap() {
        let out = Arc::new(Schema::of(vec![Field::new("sum", DataType::Int64)]));
        let sum_of = |values: Vec<i64>| {
            let mut st = agg_state(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(PlanExpr::Col(0)),
                    distinct: false,
                }],
                out.clone(),
            );
            let n = values.len();
            // Two morsels: the running sum crosses a morsel boundary too.
            st.update(&batch(values[..1].to_vec(), vec![0.0]))?;
            st.update(&batch(values[1..].to_vec(), vec![0.0; n - 1]))?;
            Ok::<_, CiError>(st.finalize()?.row(0)[0].clone())
        };
        // Exactly on the boundary, from either side, is still a value.
        assert_eq!(sum_of(vec![i64::MAX - 1, 1]).unwrap(), Value::Int(i64::MAX));
        assert_eq!(
            sum_of(vec![i64::MIN + 1, -1]).unwrap(),
            Value::Int(i64::MIN)
        );
        for over in [
            vec![i64::MAX, i64::MAX],
            vec![i64::MIN, -1],
            vec![1, i64::MAX],
            vec![0, i64::MAX, 1],
        ] {
            let err = sum_of(over).unwrap_err();
            assert!(
                matches!(&err, CiError::Exec(m) if m.contains("SUM(#0) overflows Int64")),
                "{err}"
            );
        }
    }

    #[test]
    fn distinct_folds_in_sorted_order_whatever_the_arrival_order() {
        let out = Arc::new(Schema::of(vec![
            Field::new("g", DataType::Int64),
            Field::new("sum", DataType::Float64),
            Field::new("avg", DataType::Float64),
            Field::new("n", DataType::Int64),
        ]));
        let distinct = |func| AggExpr {
            func,
            arg: Some(PlanExpr::Col(1)),
            distinct: true,
        };
        let fold = |morsels: &[(Vec<i64>, Vec<f64>)]| {
            let mut st = agg_state(
                vec![PlanExpr::Col(0)],
                vec![
                    distinct(AggFunc::Sum),
                    distinct(AggFunc::Avg),
                    distinct(AggFunc::Count),
                ],
                out.clone(),
            );
            for (keys, values) in morsels {
                st.update(&batch(keys.clone(), values.clone())).unwrap();
            }
            st.finalize().unwrap()
        };
        // A sum that depends on the order of its terms, with duplicates and
        // both zeros (distinct by bit pattern); the two streams bring group
        // 1's values in different orders, cut differently.
        let a = fold(&[
            (vec![1, 1, 2, 1], vec![1e16, -1e16, 5.0, 1.0]),
            (vec![1, 2, 1, 1], vec![1.0, 5.0, 0.0, -0.0]),
        ]);
        let b = fold(&[
            (vec![2, 1, 1], vec![5.0, -0.0, -1e16]),
            (vec![1, 1, 2, 1, 1], vec![0.0, 1e16, 5.0, 1.0, 1e16]),
        ]);
        // Group 1's set sorted by bit pattern: 0.0, 1.0, 1e16, -0.0, -1e16.
        let sorted: f64 = 0.0 + 1.0 + 1e16 + -0.0 + -1e16;
        let arrival: f64 = 1e16 + -1e16 + 1.0 + 0.0 + -0.0;
        assert_ne!(sorted.to_bits(), arrival.to_bits(), "the order must matter");
        for (result, group_1) in [(&a, 0), (&b, 1)] {
            let bits = |col: usize| match result.row(group_1)[col] {
                Value::Float(x) => x.to_bits(),
                ref other => panic!("{other:?}"),
            };
            assert_eq!(result.row(group_1)[0], Value::Int(1));
            assert_eq!(bits(1), sorted.to_bits());
            assert_eq!(bits(2), (sorted / 5.0).to_bits());
            assert_eq!(result.row(group_1)[3], Value::Int(5));
            let group_2 = result.row(1 - group_1);
            assert_eq!(group_2[..2], [Value::Int(2), Value::Float(5.0)]);
        }
    }

    #[test]
    fn pure_column_project_keeps_selection_and_shares_columns() {
        let b = batch(vec![1, 2, 3, 4], vec![10.0, 20.0, 30.0, 40.0]);
        let map = ColMap::from_slots(&[0, 1]);
        let pred = PlanExpr::bin(
            ci_plan::expr::BinOp::Gt,
            PlanExpr::Col(0),
            PlanExpr::Lit(Value::Int(1)),
        );
        let f = apply_filter(&b, &pred, &map).unwrap();
        assert!(f.selection().is_some(), "filter defers materialization");
        let out_schema = Arc::new(Schema::of(vec![Field::new("v", DataType::Float64)]));
        let exprs = vec![(PlanExpr::Col(1), "v".to_owned())];
        let p = apply_project(&f, &exprs, &map, out_schema.clone()).unwrap();
        // Zero copy: the projected column is the input's Arc, the deferred
        // filter rides along.
        assert!(Arc::ptr_eq(&p.columns()[0], &b.columns()[1]));
        assert_eq!(p.rows(), 3);
        assert_eq!(p.row(0), vec![Value::Float(20.0)]);
        // Computed projections still materialize dense output.
        let exprs = vec![(
            PlanExpr::bin(
                ci_plan::expr::BinOp::Mul,
                PlanExpr::Col(1),
                PlanExpr::Lit(Value::Float(2.0)),
            ),
            "v".to_owned(),
        )];
        let c = apply_project(&f, &exprs, &map, out_schema).unwrap();
        assert!(c.selection().is_none());
        assert_eq!(c.column(0), &ColumnData::Float64(vec![40.0, 60.0, 80.0]));
    }

    #[test]
    fn probe_reads_selected_probe_batches_in_place() {
        let build = batch(vec![1, 2, 5], vec![10.0, 20.0, 50.0]);
        let probe = batch(vec![2, 1, 7, 5], vec![0.2, 0.1, 0.7, 0.5]);
        let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
        ht.insert_batch(build).unwrap();
        ht.finalize().unwrap();
        let out_schema = Arc::new(Schema::of(vec![
            Field::new("p0", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("b0", DataType::Int64),
            Field::new("b1", DataType::Float64),
        ]));
        let selected = probe.filter(&[true, false, true, true]).unwrap();
        assert!(selected.selection().is_some());
        let lazy = ht.probe(&selected, &[0], out_schema.clone()).unwrap();
        let eager = ht.probe(&selected.compacted(), &[0], out_schema).unwrap();
        assert_eq!(lazy, eager, "selected and dense probes must agree");
        assert_eq!(lazy.rows(), 2);
    }

    #[test]
    fn aggregate_update_over_selected_batches_matches_dense() {
        let out = Arc::new(Schema::of(vec![
            Field::new("g", DataType::Int64),
            Field::new("sum", DataType::Float64),
        ]));
        let mk = || {
            agg_state(
                vec![PlanExpr::Col(0)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(PlanExpr::Col(1)),
                    distinct: false,
                }],
                out.clone(),
            )
        };
        let input = batch(vec![1, 2, 1, 2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let keep = [true, false, true, true, false];
        let selected = input.filter(&keep).unwrap();
        assert!(selected.selection().is_some());
        let mut lazy = mk();
        lazy.update(&selected).unwrap();
        let mut eager = mk();
        eager.update(&selected.compacted()).unwrap();
        assert_eq!(
            lazy.finalize().unwrap(),
            eager.finalize().unwrap(),
            "selected and dense aggregation must agree (values and order)"
        );
    }

    #[test]
    fn aggregate_emits_dict_group_column_reusing_input_dictionary() {
        let schema = Arc::new(Schema::of(vec![
            Field::new("s0", DataType::Utf8),
            Field::new("s1", DataType::Int64),
        ]));
        let grp = ColumnData::strings(["b", "a", "b"]);
        let in_dict = grp.as_dict().unwrap().1.clone();
        let input = RecordBatch::new(schema, vec![grp, ColumnData::Int64(vec![1, 2, 3])]).unwrap();
        let out = Arc::new(Schema::of(vec![
            Field::new("g", DataType::Utf8),
            Field::new("cnt", DataType::Int64),
        ]));
        let types = |s: usize| -> Result<DataType> {
            Ok(if s == 0 {
                DataType::Utf8
            } else {
                DataType::Int64
            })
        };
        let mk = || {
            AggregateState::new(
                vec![PlanExpr::Col(0)],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                }],
                ColMap::from_slots(&[0, 1]),
                &types,
                out.clone(),
            )
            .unwrap()
        };
        let mut st = mk();
        st.update(&input).unwrap();
        let result = st.finalize().unwrap();
        let (ids, out_dict) = result.column(0).as_dict().expect("dict group output");
        assert_eq!(ids, &[0, 1], "group ids in first-appearance order");
        assert!(
            Arc::ptr_eq(out_dict, &in_dict),
            "output reuses the input dictionary"
        );
        assert_eq!(result.row(0), vec![Value::from("b"), Value::Int(2)]);

        // A later morsel with a string outside the dictionary spills: the
        // output re-interns copy-on-write but stays dict-encoded and correct.
        let schema2 = Arc::new(Schema::of(vec![
            Field::new("s0", DataType::Utf8),
            Field::new("s1", DataType::Int64),
        ]));
        let late = RecordBatch::new(
            schema2,
            vec![ColumnData::strings(["q"]), ColumnData::Int64(vec![9])],
        )
        .unwrap();
        let mut st = mk();
        st.update(&input).unwrap();
        st.update(&late).unwrap();
        let result = st.finalize().unwrap();
        let (ids, out_dict) = result.column(0).as_dict().expect("still dict-encoded");
        assert_eq!(ids.len(), 3);
        assert!(!Arc::ptr_eq(out_dict, &in_dict), "spill forced a CoW clone");
        assert_eq!(result.row(2)[0], Value::from("q"));
    }

    #[test]
    fn sort_buffer_orders_with_ties() {
        let schema = schema2(DataType::Int64, DataType::Float64);
        let mut sb = SortBuffer::new(schema, vec![(0, false), (1, true)]);
        sb.push(batch(vec![1, 3], vec![5.0, 1.0]));
        sb.push(batch(vec![3, 2], vec![0.5, 9.0]));
        let out = sb.finalize().unwrap();
        assert_eq!(out.column(0), &ColumnData::Int64(vec![3, 3, 2, 1]));
        assert_eq!(
            out.column(1),
            &ColumnData::Float64(vec![0.5, 1.0, 9.0, 5.0])
        );
    }

    #[test]
    fn empty_sort() {
        let sb = SortBuffer::new(schema2(DataType::Int64, DataType::Float64), vec![(0, true)]);
        assert_eq!(sb.finalize().unwrap().rows(), 0);
    }

    #[test]
    fn sort_reads_buffered_selections_in_place() {
        // Selected batches sort identically to their eagerly-compacted
        // equivalents — the pre-sort concat copy is gone, not the
        // semantics.
        let schema = schema2(DataType::Int64, DataType::Float64);
        let b1 = batch(vec![9, 2, 7, 4], vec![0.9, 0.2, 0.7, 0.4]);
        let b2 = batch(vec![3, 8, 1], vec![0.3, 0.8, 0.1]);
        let f1 = b1.filter(&[true, false, true, true]).unwrap();
        let f2 = b2.filter(&[true, true, false]).unwrap();
        assert!(f1.selection().is_some() && f2.selection().is_some());

        let mut lazy = SortBuffer::new(schema.clone(), vec![(0, true)]);
        lazy.push(f1.clone());
        lazy.push(f2.clone());
        assert_eq!(lazy.rows(), 5, "rows() counts logical rows");

        let mut eager = SortBuffer::new(schema, vec![(0, true)]);
        eager.push(f1.compacted());
        eager.push(f2.compacted());

        let lazy_out = lazy.finalize().unwrap();
        let eager_out = eager.finalize().unwrap();
        assert_eq!(lazy_out, eager_out);
        assert_eq!(lazy_out.column(0), &ColumnData::Int64(vec![3, 4, 7, 8, 9]));
    }

    #[test]
    fn sort_limit_keeps_top_k_and_matches_full_sort() {
        let schema = schema2(DataType::Int64, DataType::Float64);
        let mk = |limit| {
            let mut sb =
                SortBuffer::new(schema.clone(), vec![(1, false), (0, true)]).with_limit(limit);
            sb.push(batch(vec![1, 2, 3, 4], vec![4.0, 1.0, 4.0, 2.0]));
            sb.push(batch(vec![5, 6], vec![3.0, 4.0]));
            sb
        };
        let full = mk(None).finalize().unwrap();
        for k in 0..=7 {
            let topk = mk(Some(k)).finalize().unwrap();
            assert_eq!(topk.rows(), k.min(6));
            assert_eq!(topk, full.slice(0, k.min(6)).unwrap(), "top-{k}");
        }
        // Ties (three 4.0 rows) broke on original order in both paths.
        assert_eq!(full.column(0), &ColumnData::Int64(vec![1, 3, 6, 5, 4, 2]));
    }

    #[test]
    fn sort_merges_foreign_dictionaries_by_value() {
        // Two buffered batches whose dict columns do NOT share a dictionary:
        // rank tables are per-dictionary and incomparable, so the sorter
        // must fall back to value comparisons.
        let schema = Arc::new(Schema::of(vec![Field::new("s0", DataType::Utf8)]));
        let b1 = RecordBatch::new(schema.clone(), vec![ColumnData::strings(["m", "c"])]).unwrap();
        let b2 = RecordBatch::new(schema.clone(), vec![ColumnData::strings(["a", "z"])]).unwrap();
        assert!(!Arc::ptr_eq(
            b1.column(0).as_dict().unwrap().1,
            b2.column(0).as_dict().unwrap().1
        ));
        let mut sb = SortBuffer::new(schema.clone(), vec![(0, true)]);
        sb.push(b1);
        sb.push(b2);
        let out = sb.finalize().unwrap();
        assert_eq!(out.column(0), &ColumnData::strings(["a", "c", "m", "z"]));

        // Shared-dictionary batches keep the integer rank fast path and
        // produce the same order.
        let table = ColumnData::strings(["m", "c", "a", "z"]);
        let shared = RecordBatch::new(schema.clone(), vec![table]).unwrap();
        let mut sb = SortBuffer::new(schema, vec![(0, true)]);
        sb.push(shared.slice(0, 2).unwrap());
        sb.push(shared.slice(2, 2).unwrap());
        assert_eq!(sb.finalize().unwrap(), out);
    }
}

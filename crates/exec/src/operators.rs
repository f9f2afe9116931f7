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
//! aggregate, never a wrapped value. Columns are non-nullable in both string
//! encodings: dict-encoded (`ColumnData::Dict`) and owned
//! (`ColumnData::Utf8`) columns flow through every operator interchangeably
//! — operators read strings by reference (`str_at`) and key them by
//! dictionary id where possible, so the conventions here are about values,
//! never about encodings.
//!
//! Both hash operators sit on one [`KeyIndex`] and run a morsel as *encode
//! batch → id vector → consume ids*: a [`KeyEncoder`] turns the key columns
//! into words, column at a time, the index turns the words into dense
//! first-appearance ids, and the payload is addressed by id —
//! [`JoinHashTable`]'s CSR build row lists, [`AggregateState`]'s accumulator
//! columns, each folded in one pass per aggregate.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use ci_plan::expr::{AggExpr, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::value::{DataType, Value};
use ci_storage::RecordBatch;
use ci_types::{CiError, Result};

use crate::key::{key_columns, DictKeyEntry, KeyEncoder, KeyIndex, RowSet};

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

/// Applies a filter predicate, returning the surviving rows. The survivors
/// are *not* materialized: the batch comes back carrying a composed
/// selection (unless density fell below the compaction threshold), so
/// filter→filter→project chains move no column data.
pub fn apply_filter(batch: &RecordBatch, pred: &PlanExpr, map: &ColMap) -> Result<RecordBatch> {
    let mask = pred.eval_mask(batch, map)?;
    batch.filter(&mask)
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

/// Hash-join build state. Batches are buffered as they stream in; the key
/// index and its row lists are constructed at [`JoinHashTable::finalize`]
/// when the build pipeline completes (a pipeline breaker, §3.2).
#[derive(Debug)]
pub struct JoinHashTable {
    key_positions: Vec<usize>,
    schema: SchemaRef,
    buffered: Vec<RecordBatch>,
    finalized: Option<Box<FinalizedTable>>,
}

#[derive(Debug)]
struct FinalizedTable {
    rows: RecordBatch,
    /// Distinct build keys → group id `g`, whose build rows are
    /// `group_rows[offsets[g]..offsets[g + 1]]` (CSR) in ascending order —
    /// the order matches are emitted in, which shipped bytes depend on.
    index: KeyIndex,
    offsets: Vec<u32>,
    group_rows: Vec<u32>,
    /// Key encoder derived from the build-side key columns; probes encode
    /// against it (dict-id translation; a string the build never held
    /// misses).
    encoder: KeyEncoder,
}

impl JoinHashTable {
    /// New build state; `key_positions` index into the build batch layout.
    pub fn new(schema: SchemaRef, key_positions: Vec<usize>) -> JoinHashTable {
        JoinHashTable {
            key_positions,
            schema,
            buffered: Vec::new(),
            finalized: None,
        }
    }

    /// Buffers one build-side morsel.
    pub fn insert_batch(&mut self, batch: RecordBatch) -> Result<()> {
        if self.finalized.is_some() {
            return Err(CiError::Exec("insert into finalized hash table".into()));
        }
        self.buffered.push(batch);
        Ok(())
    }

    /// Total build rows buffered so far.
    pub fn build_rows(&self) -> usize {
        self.buffered.iter().map(RecordBatch::rows).sum::<usize>()
            + self.finalized.as_ref().map_or(0, |f| f.rows.rows())
    }

    /// Builds the key index and per-key row lists. Idempotent.
    pub fn finalize(&mut self) -> Result<()> {
        if self.finalized.is_some() {
            return Ok(());
        }
        let rows = if self.buffered.is_empty() {
            RecordBatch::empty(self.schema.clone())
        } else {
            RecordBatch::concat(&self.buffered)?
        };
        self.buffered.clear();
        KeyIndex::check_addressable(rows.rows(), "hash join build rows")?;
        let keys = key_columns(rows.columns(), &self.key_positions)?;
        let encoder = KeyEncoder::for_columns(&keys);
        let mut index = encoder.new_index(rows.rows());
        let mut row_groups = Vec::new();
        encoder.prepare(&keys)?.ids_or_insert(
            &RowSet::Range(0..rows.rows()),
            &mut index,
            &mut row_groups,
        )?;
        // Counting sort of row numbers by group id: counts, running sums
        // (each group's end), then a reverse fill walks every end down to
        // its group's start, leaving each group's rows ascending.
        let mut offsets = vec![0u32; index.len() + 1];
        for &g in &row_groups {
            offsets[g as usize] += 1;
        }
        for g in 1..offsets.len() {
            offsets[g] += offsets[g - 1];
        }
        let mut group_rows = vec![0u32; row_groups.len()];
        for (row, &g) in row_groups.iter().enumerate().rev() {
            offsets[g as usize] -= 1;
            group_rows[offsets[g as usize] as usize] = row as u32; // fits: checked above
        }
        self.finalized = Some(Box::new(FinalizedTable {
            rows,
            index,
            offsets,
            group_rows,
            encoder,
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
        let keys = key_columns(probe.columns(), probe_key_positions)?;
        // Probe-side rows are *physical*: a deferred filter on the probe
        // stream is read through its selection in place, and only matching
        // rows are ever gathered (the join output is the materialization
        // point).
        let rows = RowSet::of(probe);
        // Per-batch preparation resolves dict-id translation tables once;
        // the rows then go through the encoder and the index a column and a
        // batch at a time.
        let mut groups = Vec::new();
        fin.encoder
            .prepare(&keys)?
            .ids(&rows, &fin.index, &mut groups);
        let mut probe_idx: Vec<usize> = Vec::with_capacity(probe.rows());
        let mut build_idx: Vec<usize> = Vec::with_capacity(probe.rows());
        for (row, &g) in rows
            .iter()
            .zip(&groups)
            .filter(|&(_, &g)| g != KeyIndex::MISS)
        {
            let g = g as usize;
            for &b in &fin.group_rows[fin.offsets[g] as usize..fin.offsets[g + 1] as usize] {
                probe_idx.push(row);
                build_idx.push(b as usize);
            }
        }
        let probe_part = probe.unselected().take(&probe_idx)?;
        let build_part = fin.rows.take(&build_idx)?;
        let mut columns = probe_part.columns().to_vec();
        columns.extend(build_part.columns().iter().cloned());
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
/// selections and all. [`SortBuffer::finalize`] sorts a global index
/// permutation that reads every key column *in place* through its batch's
/// selection, so the pre-sort `concat` copy the sorter used to pay is gone:
/// the only materialization is the sorted output itself. With a
/// [`SortBuffer::with_limit`] bound (a `LIMIT` directly consuming the
/// sort), only the top-k rows are selected and gathered, so the sink never
/// materializes rows the query will discard.
#[derive(Debug)]
pub struct SortBuffer {
    schema: SchemaRef,
    /// (column position, ascending) sort keys.
    keys: Vec<(usize, bool)>,
    /// Keep only the first `limit` sorted rows when set.
    limit: Option<usize>,
    buffered: Vec<RecordBatch>,
}

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

    /// Sorts and returns the output. Comparators read columns in place —
    /// no per-comparison `Value`, no pre-sort compaction (and for dict
    /// columns sharing one dictionary, a one-time rank table turns string
    /// comparisons into integer comparisons).
    pub fn finalize(self) -> Result<RecordBatch> {
        if self.buffered.is_empty() {
            return Ok(RecordBatch::empty(self.schema));
        }
        // Global row addresses in buffer-arrival (= original logical)
        // order: (batch, physical row), read through each selection.
        let mut addrs: Vec<(u32, u32)> = Vec::with_capacity(self.rows());
        for (bi, b) in self.buffered.iter().enumerate() {
            match b.selection() {
                Some(sel) => addrs.extend(sel.iter().map(|p| (bi as u32, p as u32))),
                None => addrs.extend((0..b.physical_rows()).map(|p| (bi as u32, p as u32))),
            }
        }
        // Per-key, per-batch in-place readers.
        let key_cols: Vec<(Vec<SortCol>, bool)> = self
            .keys
            .iter()
            .map(|&(pos, asc)| (SortCol::for_batches(&self.buffered, pos), asc))
            .collect();
        let cmp = |a: &(u32, u32), b: &(u32, u32)| {
            for (cols, asc) in &key_cols {
                let ord = SortCol::cmp_across(
                    &cols[a.0 as usize],
                    a.1 as usize,
                    &cols[b.0 as usize],
                    b.1 as usize,
                );
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            // Tie-break on the original position for determinism; this also
            // makes the comparator a strict total order, so the unstable
            // sorts below are deterministic.
            a.cmp(b)
        };
        let keep = self.limit.map_or(addrs.len(), |k| k.min(addrs.len()));
        if keep == 0 {
            return Ok(RecordBatch::empty(self.schema));
        }
        if keep < addrs.len() {
            // Top-k: partition the k smallest to the front, sort only them.
            addrs.select_nth_unstable_by(keep - 1, cmp);
            addrs.truncate(keep);
        }
        addrs.sort_unstable_by(cmp);
        drop(key_cols);

        // Materialize the sorted permutation — the sink's single copy.
        if let [only] = &self.buffered[..] {
            let phys: Vec<usize> = addrs.iter().map(|&(_, p)| p as usize).collect();
            return only.unselected().take(&phys)?.with_schema(self.schema);
        }
        let mut columns: Vec<ColumnData> = self.buffered[0]
            .columns()
            .iter()
            .map(|c| c.slice(0, 0))
            .collect();
        for &(bi, p) in &addrs {
            let src = &self.buffered[bi as usize];
            for (dst, col) in columns.iter_mut().zip(src.columns()) {
                dst.push_from(col, p as usize)?;
            }
        }
        RecordBatch::new(self.schema, columns)
    }
}

/// A sort key column prepared for in-place row comparisons.
enum SortCol<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    Utf8(&'a [String]),
    /// Dict ids plus the dictionary's lexicographic rank per id. Only built
    /// when every buffered batch shares one dictionary `Arc`, so ranks from
    /// different readers are mutually comparable.
    DictRank(&'a [u32], Arc<Vec<u32>>),
    /// Dict ids compared by decoded string — the cross-dictionary fallback.
    DictStr(&'a [u32], &'a Dictionary),
}

impl<'a> SortCol<'a> {
    /// Readers for column `pos` of every batch. Dict columns get shared
    /// rank tables only when all batches point at one dictionary.
    fn for_batches(batches: &'a [RecordBatch], pos: usize) -> Vec<SortCol<'a>> {
        let shared_ranks: Option<Arc<Vec<u32>>> = match batches[0].column(pos) {
            ColumnData::Dict { dict, .. }
                if batches.iter().all(|b| {
                    matches!(b.column(pos), ColumnData::Dict { dict: d, .. }
                             if Arc::ptr_eq(d, dict))
                }) =>
            {
                Some(Arc::new(dict.sort_ranks()))
            }
            _ => None,
        };
        batches
            .iter()
            .map(|b| {
                let c = b.column(pos);
                match c {
                    ColumnData::Int64(v) => SortCol::I64(v),
                    ColumnData::Float64(v) => SortCol::F64(v),
                    ColumnData::Bool(v) => SortCol::Bool(v),
                    ColumnData::Utf8(v) => SortCol::Utf8(v),
                    ColumnData::Dict { ids, dict } => match &shared_ranks {
                        Some(ranks) => SortCol::DictRank(ids, ranks.clone()),
                        None => SortCol::DictStr(ids, dict),
                    },
                }
            })
            .collect()
    }

    /// Borrowed string at row `i`; `None` from a non-string reader.
    fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            SortCol::Utf8(v) => Some(&v[i]),
            SortCol::DictStr(ids, dict) => Some(dict.get(ids[i])),
            _ => None,
        }
    }

    /// Compares row `a` of one batch's reader against row `b` of another's
    /// (both readers cover the same key column, so variants agree up to
    /// string encoding).
    fn cmp_across(a_col: &SortCol, a: usize, b_col: &SortCol, b: usize) -> Ordering {
        match (a_col, b_col) {
            (SortCol::I64(x), SortCol::I64(y)) => x[a].cmp(&y[b]),
            // NaNs compare equal, matching `Value::partial_cmp_sql`'s
            // unwrap-to-equal behaviour the sorter always used.
            (SortCol::F64(x), SortCol::F64(y)) => {
                x[a].partial_cmp(&y[b]).unwrap_or(Ordering::Equal)
            }
            (SortCol::Bool(x), SortCol::Bool(y)) => x[a].cmp(&y[b]),
            // Rank tables are only constructed over one shared dictionary,
            // so rank order is value order across readers.
            (SortCol::DictRank(xi, xr), SortCol::DictRank(yi, yr)) => {
                xr[xi[a] as usize].cmp(&yr[yi[b] as usize])
            }
            // Only string readers are left: every batch's reader covers the
            // same key column, so non-string variants always pair up above.
            (x, y) => x.str_at(a).cmp(&y.str_at(b)),
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
        assert!(Arc::ptr_eq(p.column_arc(0), b.column_arc(1)));
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
        let grp = ColumnData::Utf8(vec!["b".into(), "a".into(), "b".into()]).dict_encoded();
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
            vec![
                ColumnData::Utf8(vec!["q".into()]),
                ColumnData::Int64(vec![9]),
            ],
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
        let b1 = RecordBatch::new(
            schema.clone(),
            vec![ColumnData::Utf8(vec!["m".into(), "c".into()]).dict_encoded()],
        )
        .unwrap();
        let b2 = RecordBatch::new(
            schema.clone(),
            vec![ColumnData::Utf8(vec!["a".into(), "z".into()]).dict_encoded()],
        )
        .unwrap();
        assert!(!Arc::ptr_eq(
            b1.column(0).as_dict().unwrap().1,
            b2.column(0).as_dict().unwrap().1
        ));
        let mut sb = SortBuffer::new(schema.clone(), vec![(0, true)]);
        sb.push(b1);
        sb.push(b2);
        let out = sb.finalize().unwrap();
        assert_eq!(
            out.column(0),
            &ColumnData::Utf8(vec!["a".into(), "c".into(), "m".into(), "z".into()])
        );

        // Shared-dictionary batches keep the integer rank fast path and
        // produce the same order.
        let table =
            ColumnData::Utf8(vec!["m".into(), "c".into(), "a".into(), "z".into()]).dict_encoded();
        let shared = RecordBatch::new(schema.clone(), vec![table]).unwrap();
        let mut sb = SortBuffer::new(schema, vec![(0, true)]);
        sb.push(shared.slice(0, 2).unwrap());
        sb.push(shared.slice(2, 2).unwrap());
        assert_eq!(sb.finalize().unwrap(), out);
    }
}

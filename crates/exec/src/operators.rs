//! Physical operator implementations over real columnar data.
//!
//! These are the data-correct halves of the engine: they compute true
//! results (and therefore true cardinalities, which the DOP monitor consumes
//! at run time), while the DES half of the engine charges virtual time for
//! the work they represent.
//!
//! No-null engine conventions: aggregates over empty input yield zero
//! defaults (`COUNT = 0`, `SUM = 0`, `AVG = 0.0`, `MIN`/`MAX` = type zero)
//! instead of SQL NULL. Columns are non-nullable in both string encodings:
//! dict-encoded (`ColumnData::Dict`) and owned (`ColumnData::Utf8`) columns
//! flow through every operator interchangeably — operators read strings by
//! reference (`str_at`) and key them by dictionary id where possible, so
//! the conventions here are about values, never about encodings.
//!
//! Both hash operators sit on one [`KeyIndex`]: a [`KeyEncoder`] turns rows
//! into `Key`s, the index turns distinct `Key`s into dense first-appearance
//! ids, and the payload is addressed by id — [`JoinHashTable`]'s CSR build
//! row lists, [`AggregateState`]'s flat accumulator array.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use ci_plan::expr::{AggExpr, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::value::{DataType, Value};
use ci_storage::RecordBatch;
use ci_types::{CiError, Result};

use crate::key::{key_columns, DictKeyEntry, Key, KeyEncoder, KeyIndex, KeyPart, MissPolicy};

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
    /// against it (dict-id translation, sentinel misses).
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
        // Misses can only occur on the probe side (the build side owns the
        // dictionaries), so the sentinel policy is sound: a missing probe
        // string maps to a key the build never produced.
        let encoder = KeyEncoder::for_columns(&keys, MissPolicy::Sentinel);
        let mut index = KeyIndex::with_capacity(rows.rows());
        let row_encoder = encoder.prepare(&keys)?;
        let row_groups: Vec<u32> = (0..rows.rows())
            .map(|row| index.get_or_insert(row_encoder.encode(row)).0)
            .collect();
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
        // Per-batch preparation resolves dict-id translation tables once, so
        // the row loop below is allocation-free for fixed-width keys.
        let row_encoder = fin.encoder.prepare(&keys)?;
        let mut probe_idx: Vec<usize> = Vec::with_capacity(probe.rows());
        let mut build_idx: Vec<usize> = Vec::with_capacity(probe.rows());
        // Probe-side rows are *physical*: a deferred filter on the probe
        // stream is read through its selection in place, and only matching
        // rows are ever gathered (the join output is the materialization
        // point).
        let mut probe_row = |row: usize| {
            if let Some(g) = fin.index.get(&row_encoder.encode(row)) {
                let g = g as usize;
                for &b in &fin.group_rows[fin.offsets[g] as usize..fin.offsets[g + 1] as usize] {
                    probe_idx.push(row);
                    build_idx.push(b as usize);
                }
            }
        };
        match probe.selection() {
            Some(sel) => sel.iter().for_each(&mut probe_row),
            None => (0..probe.physical_rows()).for_each(&mut probe_row),
        }
        let probe_part = probe.unselected().take(&probe_idx)?;
        let build_part = fin.rows.take(&build_idx)?;
        let mut columns = probe_part.columns().to_vec();
        columns.extend(build_part.columns().iter().cloned());
        RecordBatch::from_arcs(out_schema, columns)
    }
}

/// One aggregate accumulator.
#[derive(Debug, Clone)]
enum AggAcc {
    Count(i64),
    SumI(i64),
    SumF(f64),
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
    Distinct(HashSet<KeyPart>),
}

/// Numeric view of row `row` (ints coerce to float), `None` otherwise.
fn num_at(c: &ColumnData, row: usize) -> Option<f64> {
    match c {
        ColumnData::Int64(v) => Some(v[row] as f64),
        ColumnData::Float64(v) => Some(v[row]),
        ColumnData::DictInt { ids, dict } => Some(dict.get(ids[row]) as f64),
        _ => None,
    }
}

/// The canonical distinct-set key of row `row`. Strings hash by value (not
/// by dictionary id) and dict-encoded ints by decoded value, so the set
/// stays consistent across encodings.
fn part_at(c: &ColumnData, row: usize) -> KeyPart {
    match c {
        ColumnData::Int64(v) => KeyPart::Int(v[row]),
        ColumnData::Float64(v) => KeyPart::FloatBits(v[row].to_bits()),
        ColumnData::Bool(v) => KeyPart::Bool(v[row]),
        ColumnData::Utf8(v) => KeyPart::Str(v[row].clone()),
        ColumnData::Dict { ids, dict } => KeyPart::Str(dict.get(ids[row]).to_owned()),
        ColumnData::DictInt { ids, dict } => KeyPart::Int(dict.get(ids[row])),
    }
}

impl AggAcc {
    fn new(a: &AggExpr, arg_type: Option<DataType>) -> AggAcc {
        if a.distinct {
            return AggAcc::Distinct(HashSet::new());
        }
        match a.func {
            AggFunc::Count => AggAcc::Count(0),
            AggFunc::Sum => match arg_type {
                Some(DataType::Int64) => AggAcc::SumI(0),
                _ => AggAcc::SumF(0.0),
            },
            AggFunc::Avg => AggAcc::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggAcc::Min(None),
            AggFunc::Max => AggAcc::Max(None),
        }
    }

    /// Folds row `row` of the argument column in. Reads the column in
    /// place: no per-row `Value` is materialized, and `MIN`/`MAX` clone a
    /// string only when the bound actually improves.
    fn update(&mut self, col: Option<&ColumnData>, row: usize) {
        match self {
            AggAcc::Count(c) => *c += 1,
            AggAcc::SumI(s) => {
                if let Some(x) = col.and_then(|c| c.int_at(row)) {
                    *s += x;
                }
            }
            AggAcc::SumF(s) => {
                if let Some(x) = col.and_then(|c| num_at(c, row)) {
                    *s += x;
                }
            }
            AggAcc::Avg { sum, count } => {
                if let Some(x) = col.and_then(|c| num_at(c, row)) {
                    *sum += x;
                    *count += 1;
                }
            }
            AggAcc::Min(m) => {
                if let Some(c) = col {
                    if m.as_ref()
                        .is_none_or(|cur| row_beats(cur, c, row, Ordering::Greater))
                    {
                        *m = Some(c.value(row));
                    }
                }
            }
            AggAcc::Max(m) => {
                if let Some(c) = col {
                    if m.as_ref()
                        .is_none_or(|cur| row_beats(cur, c, row, Ordering::Less))
                    {
                        *m = Some(c.value(row));
                    }
                }
            }
            AggAcc::Distinct(set) => {
                if let Some(c) = col {
                    set.insert(part_at(c, row));
                }
            }
        }
    }

    fn finish(&self, func: AggFunc, out_type: DataType) -> Value {
        match self {
            AggAcc::Count(c) => Value::Int(*c),
            AggAcc::SumI(s) => Value::Int(*s),
            AggAcc::SumF(s) => Value::Float(*s),
            AggAcc::Avg { sum, count } => Value::Float(if *count == 0 {
                0.0
            } else {
                sum / *count as f64
            }),
            AggAcc::Min(m) | AggAcc::Max(m) => match m {
                Some(v) => v.clone(),
                None => zero_of(out_type),
            },
            AggAcc::Distinct(set) => match func {
                AggFunc::Count => Value::Int(set.len() as i64),
                // SUM/AVG/MIN/MAX DISTINCT: recompute from the set.
                _ => distinct_fold(set, func),
            },
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

fn distinct_fold(set: &HashSet<KeyPart>, func: AggFunc) -> Value {
    // Hash-set iteration order is arbitrary; sort so order-sensitive folds
    // (float SUM/AVG) are deterministic across runs. `KeyPart`'s derived
    // `Ord` is total (floats order by bit pattern), so this is well-defined
    // even when the set holds NaNs — `partial_cmp_sql` is not, and a
    // non-total comparator can panic `sort_by`.
    let mut parts: Vec<&KeyPart> = set.iter().collect();
    parts.sort_unstable();
    let vals: Vec<Value> = parts
        .into_iter()
        .map(|p| match p {
            KeyPart::Int(x) => Value::Int(*x),
            KeyPart::FloatBits(b) => Value::Float(f64::from_bits(*b)),
            KeyPart::Str(s) => Value::Str(s.clone()),
            KeyPart::Bool(b) => Value::Bool(*b),
            KeyPart::DictId(_) => unreachable!("distinct sets key strings by value"),
        })
        .collect();
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

/// Streaming hash-aggregation state.
#[derive(Debug)]
pub struct AggregateState {
    group_exprs: Vec<PlanExpr>,
    aggs: Vec<AggExpr>,
    in_map: ColMap,
    arg_types: Vec<Option<DataType>>,
    out_schema: SchemaRef,
    /// Key encoder fixed by the first morsel's group columns (spill policy:
    /// unseen strings in later morsels must still form distinct groups).
    encoder: Option<KeyEncoder>,
    /// Group keys → id; `index.keys()` is the (first-appearance) output
    /// order. Group `id` accumulates in `accs[id * aggs.len()..][..aggs.len()]`.
    index: KeyIndex,
    accs: Vec<AggAcc>,
}

/// One fresh accumulator per aggregate: the payload of a new group.
fn fresh_accs<'a>(
    aggs: &'a [AggExpr],
    arg_types: &'a [Option<DataType>],
) -> impl Iterator<Item = AggAcc> + 'a {
    aggs.iter().zip(arg_types).map(|(a, t)| AggAcc::new(a, *t))
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
        let arg_types = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.data_type(in_types)).transpose())
            .collect::<Result<Vec<_>>>()?;
        Ok(AggregateState {
            group_exprs,
            aggs,
            in_map,
            arg_types,
            out_schema,
            encoder: None,
            index: KeyIndex::default(),
            accs: Vec::new(),
        })
    }

    /// Folds one morsel into the state. Deferred filters cost one
    /// O(selected) gather per *referenced* column (selection-aware
    /// [`PlanExpr::eval`]), never a physical-width copy, and unreferenced
    /// columns are never touched; accumulation is then dense over the
    /// logical rows.
    pub fn update(&mut self, batch: &RecordBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let group_cols: Vec<ColumnData> = self
            .group_exprs
            .iter()
            .map(|e| e.eval(batch, &self.in_map))
            .collect::<Result<Vec<_>>>()?;
        let arg_cols: Vec<Option<ColumnData>> = self
            .aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| e.eval(batch, &self.in_map))
                    .transpose()
            })
            .collect::<Result<Vec<_>>>()?;
        let group_refs: Vec<&ColumnData> = group_cols.iter().collect();
        let encoder = self
            .encoder
            .get_or_insert_with(|| KeyEncoder::for_columns(&group_refs, MissPolicy::Spill));
        let row_encoder = encoder.prepare(&group_refs)?;
        KeyIndex::check_addressable(self.index.len() + batch.rows(), "aggregation groups")?;
        let stride = self.aggs.len();
        for row in 0..batch.rows() {
            let (id, new) = self.index.get_or_insert(row_encoder.encode(row));
            if new {
                self.accs.extend(fresh_accs(&self.aggs, &self.arg_types));
            }
            let accs = &mut self.accs[id as usize * stride..][..stride];
            for (acc, col) in accs.iter_mut().zip(&arg_cols) {
                acc.update(col.as_ref(), row);
            }
        }
        Ok(())
    }

    /// Number of groups so far.
    pub fn group_count(&self) -> usize {
        self.index.len()
    }

    /// Produces the aggregate output batch (groups then agg values).
    pub fn finalize(mut self) -> Result<RecordBatch> {
        // Global aggregate over empty input: one row of defaults.
        if self.index.is_empty() && self.group_exprs.is_empty() {
            self.index.get_or_insert(Key::empty());
            self.accs.extend(fresh_accs(&self.aggs, &self.arg_types));
        }
        let encoder = self
            .encoder
            .take()
            .unwrap_or_else(|| KeyEncoder::for_columns(&[], MissPolicy::Spill));
        let g = self.group_exprs.len();
        let groups = self.index.len();
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
                // Guard: the encoder is arity-0 when no morsel ever arrived.
                let dict = (i < g && i < encoder.arity())
                    .then(|| encoder.dict_mode(i))
                    .flatten();
                match dict {
                    Some(dict) => ColumnData::Dict {
                        ids: Vec::with_capacity(groups),
                        dict: dict.clone(),
                    },
                    None => ColumnData::with_capacity(f.data_type, groups),
                }
            })
            .collect();
        let stride = self.aggs.len();
        for (id, key) in self.index.keys().iter().enumerate() {
            let accs = &self.accs[id * stride..][..stride];
            for (i, col) in columns.iter_mut().take(g).enumerate() {
                match encoder.dict_entry(key, i) {
                    Some(entry) => {
                        let ColumnData::Dict { ids, dict } = col else {
                            unreachable!("dict-mode group column built as dict");
                        };
                        match entry {
                            DictKeyEntry::Id(id) => ids.push(id),
                            DictKeyEntry::Spilled(s) => ids.push(Arc::make_mut(dict).intern(s)),
                        }
                    }
                    None => col.push(encoder.key_value_at(key, i))?,
                }
            }
            for (j, acc) in accs.iter().enumerate() {
                let out_t = self.out_schema.field(g + j).data_type;
                columns[g + j].push(acc.finish(self.aggs[j].func, out_t))?;
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
    /// Dict column compared by decoded string — the cross-dictionary
    /// fallback.
    DictStr(&'a ColumnData),
    /// Dict-encoded ints compared by decoded value (int order needs no rank
    /// table, and decoded comparison is valid across dictionaries).
    DictI64(&'a [u32], &'a Arc<ci_storage::dict::IntDict>),
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
                    ColumnData::Dict { ids, .. } => match &shared_ranks {
                        Some(ranks) => SortCol::DictRank(ids, ranks.clone()),
                        None => SortCol::DictStr(c),
                    },
                    ColumnData::DictInt { ids, dict } => SortCol::DictI64(ids, dict),
                }
            })
            .collect()
    }

    /// Borrowed string at row `i` (string readers only).
    fn str_at(&self, i: usize) -> &str {
        match self {
            SortCol::Utf8(v) => &v[i],
            SortCol::DictStr(c) => c.str_at(i).expect("dict column reads strings"),
            _ => unreachable!("str_at on a non-string sort column"),
        }
    }

    /// Compares row `a` of one batch's reader against row `b` of another's
    /// (both readers cover the same key column, so variants agree up to
    /// string encoding).
    fn cmp_across(a_col: &SortCol, a: usize, b_col: &SortCol, b: usize) -> Ordering {
        match (a_col, b_col) {
            (SortCol::I64(x), SortCol::I64(y)) => x[a].cmp(&y[b]),
            (SortCol::DictI64(xi, xd), SortCol::DictI64(yi, yd)) => {
                xd.get(xi[a]).cmp(&yd.get(yi[b]))
            }
            (SortCol::I64(x), SortCol::DictI64(yi, yd)) => x[a].cmp(&yd.get(yi[b])),
            (SortCol::DictI64(xi, xd), SortCol::I64(y)) => xd.get(xi[a]).cmp(&y[b]),
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
            (x, y) => x.str_at(a).cmp(y.str_at(b)),
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

//! Hashable, comparable row keys for joins and aggregation, and the one
//! index both hash operators keep them in.
//!
//! The pipeline is encoder → [`KeyIndex`] → per-id payload: a
//! [`KeyEncoder`] fixes how a key-column layout maps to [`Key`]s, a
//! [`RowEncoder`] produces one `Key` per row, and a [`KeyIndex`] maps each
//! distinct `Key` to a dense `u32` id in first-appearance order. The hash
//! join hangs a CSR row list off those ids and aggregation a flat
//! accumulator array (see `operators`); neither keeps a map of its own.
//!
//! The hot-path representation is [`Key::Inline`]: up to
//! [`MAX_INLINE_PARTS`] fixed-width parts packed into a stack array — one
//! `u64` per int / float-bits / bool / dict-id key column — so
//! [`RowEncoder::encode`] performs **zero heap allocations** for those
//! column types. Composite keys wider than the inline budget, raw
//! (non-dict) string keys, and dictionary misses under
//! [`MissPolicy::Spill`] fall back to the boxed [`KeyPart`] form.
//!
//! Correctness across encodings rests on one invariant: for a fixed
//! [`KeyEncoder`], the form (inline vs boxed) and the per-part encoding of a
//! row depend only on the row's *values*, never on which batch or column
//! encoding carried them. Two rows with equal values always produce equal
//! keys; rows with different values never collide (a dictionary miss under
//! [`MissPolicy::Sentinel`] maps every missing string to one sentinel key,
//! which is sound exactly because the build side never emits it).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::value::Value;
use ci_types::{CiError, Result};

/// Maximum number of key parts the inline (allocation-free) form holds.
pub const MAX_INLINE_PARTS: usize = 4;

/// Sentinel id for a string absent from the encoder's dictionary. Real ids
/// fit in `u32`, so the sentinel can never collide with one.
const DICT_MISS: u64 = u64::MAX;

/// One component of a boxed composite key. Floats are keyed by their bit
/// pattern (exact equality — standard hash-join semantics).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyPart {
    /// Integer key.
    Int(i64),
    /// Float key by bit pattern.
    FloatBits(u64),
    /// String key (raw-string columns, or dict misses under `Spill`).
    Str(String),
    /// Boolean key.
    Bool(bool),
    /// Dictionary id key (resolved against the encoder's dictionary).
    DictId(u64),
}

impl From<&Value> for KeyPart {
    fn from(v: &Value) -> KeyPart {
        match v {
            Value::Int(x) => KeyPart::Int(*x),
            Value::Float(x) => KeyPart::FloatBits(x.to_bits()),
            Value::Str(s) => KeyPart::Str(s.clone()),
            Value::Bool(b) => KeyPart::Bool(*b),
        }
    }
}

/// A composite row key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    /// Fixed-width parts on the stack; the hot path.
    Inline {
        /// Number of live parts.
        n: u8,
        /// Packed part encodings (unused slots are zero).
        parts: [u64; MAX_INLINE_PARTS],
    },
    /// Spilled form for wide composites and raw strings.
    Boxed(Box<[KeyPart]>),
}

impl Key {
    /// The empty key (global aggregates).
    pub fn empty() -> Key {
        Key::Inline {
            n: 0,
            parts: [0; MAX_INLINE_PARTS],
        }
    }

    /// `true` when the key lives entirely on the stack.
    pub fn is_inline(&self) -> bool {
        matches!(self, Key::Inline { .. })
    }
}

/// One step of the key hash: xor the word in, multiply by an odd constant
/// (carries low bits up), fold the high half down (carries high bits back),
/// so the directory's low-bit mask sees every input bit.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    let m = (h ^ word).wrapping_mul(0xff51_afd7_ed55_8ccd);
    m ^ (m >> 32)
}

const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Directory slots per key: load stays ≤ ½, so linear probes stay short and
/// always end at an empty slot.
const MAX_LOAD_INV: usize = 2;

/// Feeds a boxed key's [`KeyPart`]s (via their derived `Hash`) through
/// [`mix`], so both key forms share one fixed-seed hash.
struct PartHasher(u64);

impl Hasher for PartHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_key(key: &Key) -> u64 {
    match key {
        Key::Inline { n, parts } => parts[..usize::from(*n)]
            .iter()
            .fold(mix(HASH_SEED, u64::from(*n)), |h, &p| mix(h, p)),
        Key::Boxed(parts) => {
            let mut hasher = PartHasher(HASH_SEED);
            parts.hash(&mut hasher);
            hasher.finish()
        }
    }
}

/// `Key` → dense `u32` id in first-appearance order: the one hash structure
/// under both the join build and aggregation.
///
/// An open-addressed, power-of-two directory of `id + 1` (0 = empty) with
/// linear probing, kept at most half full so every probe meets an empty
/// slot; keys and their hashes live once each in id-indexed vectors, so
/// [`KeyIndex::keys`] *is* the insertion order and growth rehashes nothing.
/// The hash is a fixed-seed multiply-xorshift — keys come from the engine's
/// own encoders and ids never depend on hash order, so no keyed flood
/// resistance (and no `RandomState`) is needed.
#[derive(Debug, Default)]
pub struct KeyIndex {
    directory: Vec<u32>,
    keys: Vec<Key>,
    hashes: Vec<u64>,
}

impl KeyIndex {
    /// Most keys an index holds — the directory stores `id + 1` in a `u32` —
    /// and most rows an operator may number with `u32`s beside it.
    const MAX_IDS: usize = (u32::MAX - 1) as usize;

    /// Fails with a typed error when `count` keys or rows exceed what `u32`
    /// ids address, so no `as u32` row number can alias another.
    pub fn check_addressable(count: usize, what: &str) -> Result<()> {
        if count > Self::MAX_IDS {
            let max = Self::MAX_IDS;
            return Err(CiError::Exec(format!(
                "{what}: {count} exceeds the {max} a u32-indexed hash table addresses"
            )));
        }
        Ok(())
    }

    /// An index that takes `keys` distinct keys without growing.
    pub fn with_capacity(keys: usize) -> KeyIndex {
        KeyIndex {
            directory: vec![0; (keys * MAX_LOAD_INV).next_power_of_two()],
            keys: Vec::with_capacity(keys),
            hashes: Vec::with_capacity(keys),
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The distinct keys in first-appearance order; position = id.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The id of `key`, if present.
    pub fn get(&self, key: &Key) -> Option<u32> {
        if self.directory.is_empty() {
            return None;
        }
        self.find(key, hash_key(key)).ok()
    }

    /// The id of `key`, inserting it with the next id when absent; the flag
    /// is `true` for a fresh insert.
    pub fn get_or_insert(&mut self, key: Key) -> (u32, bool) {
        if (self.keys.len() + 1) * MAX_LOAD_INV > self.directory.len() {
            self.grow();
        }
        let hash = hash_key(&key);
        match self.find(&key, hash) {
            Ok(id) => (id, false),
            Err(slot) => {
                // Stored ids must stay exact: past this a slot would alias.
                assert!(
                    self.keys.len() < Self::MAX_IDS,
                    "KeyIndex id space exhausted"
                );
                let id = self.keys.len() as u32;
                self.directory[slot] = id + 1;
                self.keys.push(key);
                self.hashes.push(hash);
                (id, true)
            }
        }
    }

    /// Probes for `key`: `Ok(id)` on a hit, `Err(empty slot)` on a miss.
    /// The directory must be non-empty; load ≤ ½ guarantees termination.
    #[inline]
    fn find(&self, key: &Key, hash: u64) -> std::result::Result<u32, usize> {
        let mask = self.directory.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.directory[slot] {
                0 => return Err(slot),
                stored => {
                    let id = (stored - 1) as usize;
                    if self.hashes[id] == hash && self.keys[id] == *key {
                        return Ok(stored - 1);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the directory and re-seats every id from its stored hash.
    fn grow(&mut self) {
        let len = (self.directory.len() * 2).max(8);
        let mask = len - 1;
        let mut directory = vec![0u32; len];
        for (stored, &hash) in (1u32..).zip(&self.hashes) {
            let mut slot = hash as usize & mask;
            while directory[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            directory[slot] = stored;
        }
        self.directory = directory;
    }
}

/// What a [`RowEncoder`] does with a string absent from a dict-mode column's
/// dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissPolicy {
    /// Encode one shared sentinel. Sound for hash-join probes: the build
    /// side owns the dictionary, so a miss can never match anyway.
    Sentinel,
    /// Spill the row's key to the boxed form carrying the owned string.
    /// Required for group-by, where distinct unseen strings must form
    /// distinct groups.
    Spill,
}

/// Per-column key encoding mode, fixed when the encoder is created.
#[derive(Debug, Clone)]
enum KeyMode {
    Int,
    Float,
    Bool,
    /// Dict-encoded string column; ids resolve against this dictionary.
    DictStr(Arc<Dictionary>),
    /// Raw string column: every key spills to the boxed form.
    Str,
}

/// Encodes rows of a fixed key-column layout into [`Key`]s and decodes them
/// back into values. Create once per join build / aggregation, then
/// [`KeyEncoder::prepare`] a [`RowEncoder`] per batch.
#[derive(Debug, Clone)]
pub struct KeyEncoder {
    modes: Vec<KeyMode>,
    miss: MissPolicy,
    /// Whether every row must take the boxed form (raw-string mode present
    /// or too many parts) — decided once so both sides of a join agree.
    always_boxed: bool,
    /// Foreign-dictionary id translations, cached per `(column, foreign
    /// dict)` so successive morsels of one probe stream pay the `O(|dict|)`
    /// translation once, not once per batch. Shared by encoder clones.
    translations: Arc<Mutex<TranslationCache>>,
}

/// Cache key: (key column index, foreign dictionary address). The stored
/// `Arc<Dictionary>` pins the allocation, so an address can never be reused
/// by a different dictionary while its entry lives.
type TranslationCache = HashMap<(usize, usize), (Arc<Dictionary>, Arc<Vec<u64>>)>;

impl KeyEncoder {
    /// Derives an encoder from the authoritative key columns (the join build
    /// side / the first aggregation morsel).
    pub fn for_columns(columns: &[&ColumnData], miss: MissPolicy) -> KeyEncoder {
        let modes: Vec<KeyMode> = columns
            .iter()
            .map(|c| match c {
                // Dict-encoded ints are their own canonical key: the decoded
                // value goes inline, so no id translation between
                // dictionaries is ever needed and cross-encoding joins
                // (plain build, dict probe) match by value.
                ColumnData::Int64(_) | ColumnData::DictInt { .. } => KeyMode::Int,
                ColumnData::Float64(_) => KeyMode::Float,
                ColumnData::Bool(_) => KeyMode::Bool,
                ColumnData::Dict { dict, .. } => KeyMode::DictStr(dict.clone()),
                ColumnData::Utf8(_) => KeyMode::Str,
            })
            .collect();
        let always_boxed =
            modes.len() > MAX_INLINE_PARTS || modes.iter().any(|m| matches!(m, KeyMode::Str));
        KeyEncoder {
            modes,
            miss,
            always_boxed,
            translations: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The translation table from `foreign` ids to the target dictionary's
    /// ids (`DICT_MISS` for absences) for key column `col_idx`, computed on
    /// first sight of `foreign` and cached thereafter.
    fn translation(
        &self,
        col_idx: usize,
        target: &Dictionary,
        foreign: &Arc<Dictionary>,
    ) -> Arc<Vec<u64>> {
        let cache_key = (col_idx, Arc::as_ptr(foreign) as usize);
        // A pure cache whose entries are inserted whole: whatever a panicking
        // holder left behind is still valid, so poisoning is recovered from.
        let mut cache = self
            .translations
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((pinned, table)) = cache.get(&cache_key) {
            if Arc::ptr_eq(pinned, foreign) {
                return table.clone();
            }
        }
        let table = Arc::new(
            (0..foreign.len() as u32)
                .map(|id| target.id_of(foreign.get(id)).map_or(DICT_MISS, u64::from))
                .collect::<Vec<u64>>(),
        );
        cache.insert(cache_key, (foreign.clone(), table.clone()));
        table
    }

    /// Number of key columns.
    pub fn arity(&self) -> usize {
        self.modes.len()
    }

    /// Binds the encoder to one batch's key columns, resolving per-batch
    /// fast paths once (direct id reuse when the batch shares the encoder's
    /// dictionary, an id-translation table when it carries a foreign one).
    pub fn prepare<'a>(&'a self, columns: &[&'a ColumnData]) -> Result<RowEncoder<'a>> {
        if columns.len() != self.modes.len() {
            return Err(CiError::Exec(format!(
                "key encoder arity mismatch: {} modes, {} columns",
                self.modes.len(),
                columns.len()
            )));
        }
        let plans = self
            .modes
            .iter()
            .zip(columns)
            .enumerate()
            .map(|(i, (mode, col))| match (mode, col) {
                (KeyMode::Int, ColumnData::Int64(v)) => ColPlan::I64(v),
                (KeyMode::Int, ColumnData::DictInt { ids, dict }) => ColPlan::DictI64(ids, dict),
                (KeyMode::Float, ColumnData::Float64(v)) => ColPlan::F64(v),
                (KeyMode::Bool, ColumnData::Bool(v)) => ColPlan::Bool(v),
                (KeyMode::DictStr(d), ColumnData::Dict { ids, dict }) => {
                    if Arc::ptr_eq(d, dict) {
                        ColPlan::Ids(ids)
                    } else {
                        // Foreign dictionary (probe side): translate each
                        // dictionary entry once — cached across batches —
                        // then rows are pure lookups.
                        ColPlan::Translated(ids, dict, self.translation(i, d, dict))
                    }
                }
                (KeyMode::DictStr(d), ColumnData::Utf8(v)) => ColPlan::LookupUtf8(v, d),
                (KeyMode::Str, ColumnData::Utf8(v)) => ColPlan::StrUtf8(v),
                (KeyMode::Str, ColumnData::Dict { ids, dict }) => ColPlan::StrDict(ids, dict),
                // Type mismatch (e.g. probing an int build key with a float
                // column): encode the raw value; it can never equal the
                // build side's encoding, so such joins match nothing —
                // exactly the old per-value `KeyPart` semantics.
                (_, col) => ColPlan::Mismatch(col),
            })
            .collect();
        Ok(RowEncoder {
            plans,
            miss: self.miss,
            always_boxed: self.always_boxed,
        })
    }

    /// Re-materializes a key produced by this encoder as values (group-by
    /// output columns).
    ///
    /// Only meaningful for keys encoded under [`MissPolicy::Spill`] (the
    /// policy aggregation uses): a [`MissPolicy::Sentinel`] miss carries no
    /// decodable value, and decoding one panics with a clear message rather
    /// than returning a wrong string.
    pub fn key_values(&self, key: &Key) -> Vec<Value> {
        (0..self.arity())
            .map(|col| self.key_value_at(key, col))
            .collect()
    }

    /// The value of one key column of `key` (see [`KeyEncoder::key_values`]
    /// for the decoding contract). Panics if `col >= arity()`.
    pub fn key_value_at(&self, key: &Key, col: usize) -> Value {
        let decode_id = |d: &Arc<Dictionary>, id: u64| -> Value {
            assert!(
                id != DICT_MISS,
                "key_values on a Sentinel-policy miss key: no decodable value"
            );
            Value::Str(d.get(id as u32).to_owned())
        };
        let mode = &self.modes[col];
        match key {
            Key::Inline { n, parts } => {
                assert!(col < *n as usize, "key has {n} parts, wanted {col}");
                let p = parts[col];
                match mode {
                    KeyMode::Int => Value::Int(p as i64),
                    KeyMode::Float => Value::Float(f64::from_bits(p)),
                    KeyMode::Bool => Value::Bool(p != 0),
                    KeyMode::DictStr(d) => decode_id(d, p),
                    KeyMode::Str => unreachable!("raw-string keys are always boxed"),
                }
            }
            Key::Boxed(parts) => match &parts[col] {
                KeyPart::Int(x) => Value::Int(*x),
                KeyPart::FloatBits(b) => Value::Float(f64::from_bits(*b)),
                KeyPart::Bool(b) => Value::Bool(*b),
                KeyPart::Str(s) => Value::Str(s.clone()),
                KeyPart::DictId(id) => match mode {
                    KeyMode::DictStr(d) => decode_id(d, *id),
                    _ => unreachable!("DictId under non-dict mode"),
                },
            },
        }
    }

    /// The dictionary key column `col` resolves against, when that column
    /// is dict-mode (lets group-by outputs stay dictionary-encoded).
    pub fn dict_mode(&self, col: usize) -> Option<&Arc<Dictionary>> {
        match &self.modes[col] {
            KeyMode::DictStr(d) => Some(d),
            _ => None,
        }
    }

    /// For a dict-mode key column: the dictionary id this key carries, or
    /// the spilled string of a [`MissPolicy::Spill`] miss (a group string
    /// never interned in the encoder's dictionary). `None` when the column
    /// is not dict-mode.
    pub fn dict_entry<'k>(&self, key: &'k Key, col: usize) -> Option<DictKeyEntry<'k>> {
        if !matches!(self.modes[col], KeyMode::DictStr(_)) {
            return None;
        }
        Some(match key {
            Key::Inline { n, parts } => {
                assert!(col < *n as usize, "key has {n} parts, wanted {col}");
                let id = parts[col];
                assert!(id != DICT_MISS, "dict_entry on a Sentinel-policy miss key");
                DictKeyEntry::Id(id as u32)
            }
            Key::Boxed(parts) => match &parts[col] {
                KeyPart::DictId(id) => {
                    assert!(*id != DICT_MISS, "dict_entry on a Sentinel-policy miss key");
                    DictKeyEntry::Id(*id as u32)
                }
                KeyPart::Str(s) => DictKeyEntry::Spilled(s),
                other => unreachable!("{other:?} under dict mode"),
            },
        })
    }
}

/// How a dict-mode key column stores one key: a resolved dictionary id, or
/// a string that spilled past the encoder's dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictKeyEntry<'a> {
    /// Id valid in the encoder's dictionary for that column.
    Id(u32),
    /// String absent from the dictionary (a [`MissPolicy::Spill`] group).
    Spilled(&'a str),
}

/// A batch-bound key encoder; see [`KeyEncoder::prepare`].
pub struct RowEncoder<'a> {
    plans: Vec<ColPlan<'a>>,
    miss: MissPolicy,
    always_boxed: bool,
}

enum ColPlan<'a> {
    I64(&'a [i64]),
    /// Dict-encoded ints: the *decoded value* encodes inline, exactly as a
    /// plain int column would, so the key space is encoding-independent.
    DictI64(&'a [u32], &'a Arc<ci_storage::dict::IntDict>),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    /// Dict ids valid against the encoder's dictionary as-is.
    Ids(&'a [u32]),
    /// Dict ids from a foreign dictionary plus the per-entry translation
    /// into the encoder's dictionary (`DICT_MISS` marks absences). The
    /// foreign dictionary is kept for `Spill` decoding.
    Translated(&'a [u32], &'a Arc<Dictionary>, Arc<Vec<u64>>),
    /// Raw strings resolved against the encoder's dictionary per row.
    LookupUtf8(&'a [String], &'a Arc<Dictionary>),
    /// Raw-string mode: owned strings.
    StrUtf8(&'a [String]),
    /// Raw-string mode fed by a dict column: decode by reference.
    StrDict(&'a [u32], &'a Arc<Dictionary>),
    /// Key/column type mismatch: encode the raw value (never matches).
    Mismatch(&'a ColumnData),
}

impl ColPlan<'_> {
    /// The fixed-width encoding of row `row`, or `None` when this column
    /// forces the boxed form for the row.
    fn fixed(&self, row: usize, miss: MissPolicy) -> Option<u64> {
        match self {
            ColPlan::I64(v) => Some(v[row] as u64),
            ColPlan::DictI64(ids, dict) => Some(dict.get(ids[row]) as u64),
            ColPlan::F64(v) => Some(v[row].to_bits()),
            ColPlan::Bool(v) => Some(v[row] as u64),
            ColPlan::Ids(ids) => Some(u64::from(ids[row])),
            ColPlan::Translated(ids, _, table) => {
                let id = table[ids[row] as usize];
                if id == DICT_MISS && miss == MissPolicy::Spill {
                    None
                } else {
                    Some(id)
                }
            }
            ColPlan::LookupUtf8(v, d) => match d.id_of(&v[row]) {
                Some(id) => Some(u64::from(id)),
                None if miss == MissPolicy::Sentinel => Some(DICT_MISS),
                None => None,
            },
            ColPlan::StrUtf8(_) | ColPlan::StrDict(..) | ColPlan::Mismatch(_) => None,
        }
    }

    /// The boxed encoding of row `row`.
    fn part(&self, row: usize, miss: MissPolicy) -> KeyPart {
        match self {
            ColPlan::I64(v) => KeyPart::Int(v[row]),
            ColPlan::DictI64(ids, dict) => KeyPart::Int(dict.get(ids[row])),
            ColPlan::F64(v) => KeyPart::FloatBits(v[row].to_bits()),
            ColPlan::Bool(v) => KeyPart::Bool(v[row]),
            ColPlan::Ids(ids) => KeyPart::DictId(u64::from(ids[row])),
            ColPlan::Translated(ids, foreign, table) => {
                let id = table[ids[row] as usize];
                if id == DICT_MISS && miss == MissPolicy::Spill {
                    KeyPart::Str(foreign.get(ids[row]).to_owned())
                } else {
                    KeyPart::DictId(id)
                }
            }
            ColPlan::LookupUtf8(v, d) => match d.id_of(&v[row]) {
                Some(id) => KeyPart::DictId(u64::from(id)),
                None if miss == MissPolicy::Sentinel => KeyPart::DictId(DICT_MISS),
                None => KeyPart::Str(v[row].clone()),
            },
            ColPlan::StrUtf8(v) => KeyPart::Str(v[row].clone()),
            ColPlan::StrDict(ids, d) => KeyPart::Str(d.get(ids[row]).to_owned()),
            ColPlan::Mismatch(col) => (&col.value(row)).into(),
        }
    }
}

impl RowEncoder<'_> {
    /// Extracts the key of row `row`. Allocation-free whenever every key
    /// column is int/float/bool/dict-string (and, under `Spill`, every
    /// string hits the dictionary).
    pub fn encode(&self, row: usize) -> Key {
        if !self.always_boxed {
            let mut parts = [0u64; MAX_INLINE_PARTS];
            let mut ok = true;
            for (i, p) in self.plans.iter().enumerate() {
                match p.fixed(row, self.miss) {
                    Some(x) => parts[i] = x,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return Key::Inline {
                    n: self.plans.len() as u8,
                    parts,
                };
            }
        }
        Key::Boxed(self.plans.iter().map(|p| p.part(row, self.miss)).collect())
    }
}

/// Resolves key column references, failing with a clear message.
pub fn key_columns<'a>(
    batch_columns: &'a [Arc<ColumnData>],
    positions: &[usize],
) -> Result<Vec<&'a ColumnData>> {
    positions
        .iter()
        .map(|&p| {
            batch_columns
                .get(p)
                .map(Arc::as_ref)
                .ok_or_else(|| CiError::Exec(format!("key column position {p} out of bounds")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dict_col(vals: &[&str]) -> ColumnData {
        ColumnData::Utf8(vals.iter().map(|s| (*s).to_owned()).collect()).dict_encoded()
    }

    fn encode_all(cols: &[&ColumnData], miss: MissPolicy) -> Vec<Key> {
        let enc = KeyEncoder::for_columns(cols, miss);
        let re = enc.prepare(cols).unwrap();
        (0..cols[0].len()).map(|r| re.encode(r)).collect()
    }

    #[test]
    fn key_equality_per_type() {
        let ints = ColumnData::Int64(vec![1, 1, 2]);
        let strs = dict_col(&["a", "a", "b"]);
        let keys = encode_all(&[&ints, &strs], MissPolicy::Spill);
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn float_keys_use_bit_pattern() {
        let f = ColumnData::Float64(vec![0.5, 0.5, -0.0, 0.0]);
        let keys = encode_all(&[&f], MissPolicy::Spill);
        assert_eq!(keys[0], keys[1]);
        // -0.0 and 0.0 differ bitwise: exact-match join semantics.
        assert_ne!(keys[2], keys[3]);
    }

    #[test]
    fn fixed_width_keys_are_inline() {
        let ints = ColumnData::Int64(vec![7, -1]);
        let floats = ColumnData::Float64(vec![1.5, 2.5]);
        let bools = ColumnData::Bool(vec![true, false]);
        let dicts = dict_col(&["x", "y"]);
        let keys = encode_all(&[&ints, &floats, &bools, &dicts], MissPolicy::Spill);
        assert!(
            keys.iter().all(Key::is_inline),
            "int/float/bool/dict composite must be allocation-free"
        );
        // A fifth column exceeds the inline budget.
        let five: Vec<&ColumnData> = vec![&ints, &floats, &bools, &dicts, &ints];
        let enc = KeyEncoder::for_columns(&five, MissPolicy::Spill);
        let re = enc.prepare(&five).unwrap();
        assert!(!re.encode(0).is_inline());
    }

    #[test]
    fn raw_string_keys_spill_to_boxed() {
        let strs = ColumnData::Utf8(vec!["a".into(), "b".into(), "a".into()]);
        let keys = encode_all(&[&strs], MissPolicy::Spill);
        assert!(keys.iter().all(|k| !k.is_inline()));
        assert_eq!(keys[0], keys[2]);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn round_trip_to_values() {
        let ints = ColumnData::Int64(vec![7]);
        let strs = dict_col(&["x"]);
        let cols: Vec<&ColumnData> = vec![&ints, &strs];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Spill);
        let re = enc.prepare(&cols).unwrap();
        let k = re.encode(0);
        assert_eq!(enc.key_values(&k), vec![Value::Int(7), Value::from("x")]);
    }

    #[test]
    fn foreign_dictionary_probe_translates_ids() {
        let build = dict_col(&["a", "b", "c"]);
        let cols: Vec<&ColumnData> = vec![&build];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Sentinel);
        let build_keys: Vec<Key> = {
            let re = enc.prepare(&cols).unwrap();
            (0..3).map(|r| re.encode(r)).collect()
        };
        // Probe column interned in a different order, plus a miss.
        let probe = dict_col(&["c", "q", "a"]);
        let pcols: Vec<&ColumnData> = vec![&probe];
        let re = enc.prepare(&pcols).unwrap();
        assert_eq!(re.encode(0), build_keys[2], "same string, same key");
        assert_eq!(re.encode(2), build_keys[0]);
        let miss = re.encode(1);
        assert!(miss.is_inline(), "sentinel miss stays allocation-free");
        assert!(build_keys.iter().all(|k| *k != miss));
    }

    #[test]
    fn poisoned_translation_cache_is_recovered_not_fatal() {
        let build = dict_col(&["a", "b", "c"]);
        let cols: Vec<&ColumnData> = vec![&build];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Sentinel);
        let build_keys: Vec<Key> = {
            let re = enc.prepare(&cols).unwrap();
            (0..3).map(|r| re.encode(r)).collect()
        };
        // A worker sharing the encoder panics while holding the cache lock.
        let shared = enc.clone();
        let worker = std::thread::spawn(move || {
            let _held = shared.translations.lock().unwrap();
            panic!("worker dies with the translation cache locked");
        });
        assert!(worker.join().is_err());
        assert!(enc.translations.is_poisoned());
        // The next probe morsel still translates (and caches) its ids.
        let probe = dict_col(&["c", "q", "a"]);
        let pcols: Vec<&ColumnData> = vec![&probe];
        for _ in 0..2 {
            let re = enc.prepare(&pcols).unwrap();
            assert_eq!(re.encode(0), build_keys[2]);
            assert_eq!(re.encode(2), build_keys[0]);
        }
    }

    #[test]
    fn spill_policy_distinguishes_unseen_strings() {
        let first = dict_col(&["a", "b"]);
        let cols: Vec<&ColumnData> = vec![&first];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Spill);
        // A later morsel carries raw strings, two of them unseen.
        let later = ColumnData::Utf8(vec!["b".into(), "q".into(), "z".into(), "q".into()]);
        let lcols: Vec<&ColumnData> = vec![&later];
        let re = enc.prepare(&lcols).unwrap();
        let kb = re.encode(0);
        let kq1 = re.encode(1);
        let kz = re.encode(2);
        let kq2 = re.encode(3);
        assert!(kb.is_inline(), "dictionary hit stays inline");
        assert_ne!(kq1, kz, "distinct unseen strings form distinct keys");
        assert_eq!(kq1, kq2, "equal unseen strings form equal keys");
        let first_re = enc.prepare(&cols).unwrap();
        assert_eq!(
            first_re.encode(1),
            kb,
            "hit encodes identically across batches"
        );
    }

    #[test]
    fn dict_entry_exposes_ids_and_spills() {
        let strs = dict_col(&["a", "b"]);
        let ints = ColumnData::Int64(vec![1, 2]);
        let cols: Vec<&ColumnData> = vec![&strs, &ints];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Spill);
        let k0 = enc.prepare(&cols).unwrap().encode(0);
        assert_eq!(enc.dict_entry(&k0, 0), Some(DictKeyEntry::Id(0)));
        assert_eq!(enc.dict_entry(&k0, 1), None, "int column is not dict-mode");
        assert_eq!(enc.key_value_at(&k0, 0), Value::from("a"));
        assert_eq!(enc.key_value_at(&k0, 1), Value::Int(1));
        // A later morsel with an unseen string spills; the entry carries it.
        let later = ColumnData::Utf8(vec!["q".into()]);
        let later_ints = ColumnData::Int64(vec![9]);
        let lcols: Vec<&ColumnData> = vec![&later, &later_ints];
        let ks = enc.prepare(&lcols).unwrap().encode(0);
        assert_eq!(enc.dict_entry(&ks, 0), Some(DictKeyEntry::Spilled("q")));
        assert_eq!(enc.key_value_at(&ks, 0), Value::from("q"));
    }

    #[test]
    fn key_columns_bounds_checked() {
        let cols = vec![Arc::new(ColumnData::Int64(vec![1]))];
        assert!(key_columns(&cols, &[0]).is_ok());
        assert!(key_columns(&cols, &[1]).is_err());
    }

    fn inline(parts: &[u64]) -> Key {
        let mut packed = [0u64; MAX_INLINE_PARTS];
        packed[..parts.len()].copy_from_slice(parts);
        Key::Inline {
            n: parts.len() as u8,
            parts: packed,
        }
    }

    /// Keys from small pools (so streams repeat them) covering every form
    /// the index hashes: ints equal in their low 20 bits, the i64 extremes,
    /// the dict-miss sentinel, the 0-part and 4-part inline keys, boxed raw
    /// strings and 5-part boxed composites, and a wide pool that drives the
    /// directory through several doublings.
    fn key_strategy() -> impl Strategy<Value = Key> {
        prop_oneof![
            (0u64..48).prop_map(|x| inline(&[x << 20])),
            proptest::sample::select(vec![i64::MIN, i64::MAX, -1, 0, 1])
                .prop_map(|x| inline(&[x as u64])),
            Just(inline(&[DICT_MISS])),
            Just(Key::empty()),
            (0u64..3, 0u64..3, 0u64..2, 0u64..2).prop_map(|(a, b, c, d)| inline(&[a, b, c, d])),
            (0u64..8).prop_map(|x| Key::Boxed([KeyPart::Str(format!("s{x}"))].into())),
            (0i64..3, 0u64..3).prop_map(|(a, b)| Key::Boxed(
                [
                    KeyPart::Int(a),
                    KeyPart::DictId(b),
                    KeyPart::Bool(a == 1),
                    KeyPart::FloatBits(b),
                    KeyPart::Str(String::new()),
                ]
                .into()
            )),
            // Listed twice for double weight: this pool is what grows the index.
            (0u64..4096).prop_map(|x| inline(&[x])),
            (0u64..4096).prop_map(|x| inline(&[x])),
        ]
    }

    proptest! {
        /// Ids are first-appearance ranks, `get` agrees with the std map for
        /// present and absent keys, and `keys()` is the insertion order.
        #[test]
        fn key_index_matches_std_oracle(
            stream in proptest::collection::vec(key_strategy(), 0..700),
            lookups in proptest::collection::vec(key_strategy(), 40),
            capacity in 0usize..40,
        ) {
            let mut index = match capacity {
                0 => KeyIndex::default(),
                n => KeyIndex::with_capacity(n),
            };
            let mut oracle_ids: HashMap<Key, u32> = HashMap::new();
            let mut oracle_order: Vec<Key> = Vec::new();
            for key in &stream {
                prop_assert_eq!(index.get(key), oracle_ids.get(key).copied());
                let expected = match oracle_ids.get(key) {
                    Some(&id) => (id, false),
                    None => {
                        let id = oracle_order.len() as u32;
                        oracle_ids.insert(key.clone(), id);
                        oracle_order.push(key.clone());
                        (id, true)
                    }
                };
                prop_assert_eq!(index.get_or_insert(key.clone()), expected);
                prop_assert_eq!(index.len(), oracle_order.len());
            }
            prop_assert_eq!(index.keys(), &oracle_order[..]);
            prop_assert_eq!(index.is_empty(), oracle_order.is_empty());
            for key in oracle_order.iter().chain(&lookups) {
                prop_assert_eq!(index.get(key), oracle_ids.get(key).copied());
            }
        }
    }

    #[test]
    fn keys_with_equal_hashes_get_distinct_ids() {
        // `mix(h, w)` depends on `h ^ w` only, so a second part can cancel
        // the difference two first parts left in the running hash.
        let prefix = |a: u64| mix(mix(HASH_SEED, 2), a);
        let (a1, a2, b1) = (3u64, 11u64, 5u64);
        let b2 = b1 ^ prefix(a1) ^ prefix(a2);
        let (k1, k2) = (inline(&[a1, b1]), inline(&[a2, b2]));
        assert_ne!(k1, k2);
        assert_eq!(hash_key(&k1), hash_key(&k2));
        let mut index = KeyIndex::default();
        assert_eq!(index.get_or_insert(k1.clone()), (0, true));
        assert_eq!(index.get(&k2), None);
        assert_eq!(index.get_or_insert(k2.clone()), (1, true));
        assert_eq!(index.get(&k1), Some(0));
        assert_eq!(index.get(&k2), Some(1));
    }

    #[test]
    fn u32_id_guard_sits_on_the_boundary() {
        let limit = u32::MAX as usize - 1;
        assert!(KeyIndex::check_addressable(0, "rows").is_ok());
        assert!(KeyIndex::check_addressable(limit, "rows").is_ok());
        let err = KeyIndex::check_addressable(limit + 1, "hash join build rows").unwrap_err();
        assert!(matches!(&err, CiError::Exec(m) if m.contains("hash join build rows")));
    }

    #[test]
    fn empty_key_for_global_aggregates() {
        let k = Key::empty();
        assert!(k.is_inline());
        let enc = KeyEncoder::for_columns(&[], MissPolicy::Spill);
        assert_eq!(enc.key_values(&k), Vec::<Value>::new());
    }
}

//! Hashable, comparable row keys for joins and aggregation, and the one
//! index both hash operators keep them in.
//!
//! The pipeline is column-at-a-time: encoder → words → [`KeyIndex`] → ids.
//! A [`KeyEncoder`] fixes how a key-column layout maps to key words, a
//! batch-bound [`RowEncoder`] makes **one pass per key column** and writes
//! `arity` `u64` words per row — one word per int / float-bits / bool /
//! dict-id key column — into a flat `Vec<u64>`, and a [`KeyIndex`] turns
//! those words into dense `u32` ids in first-appearance order
//! ([`RowEncoder::ids_or_insert`], [`RowEncoder::ids`]). The hash join hangs
//! a CSR row list off the ids and aggregation one accumulator column per
//! aggregate (see `operators`); neither keeps a map of its own, and no
//! per-row key value exists on this path.
//!
//! Composite keys wider than [`MAX_INLINE_PARTS`], raw (non-dict) string
//! keys, and dictionary misses under [`MissPolicy::Spill`] cannot be words:
//! they take the boxed [`KeyPart`] form, one allocation per row. An index is
//! **all words or all boxed**. The form is the encoder's from the start
//! (too wide, or a raw-string column) or changes exactly once, when
//! aggregation meets its first string outside the dictionary:
//! [`KeyIndex::rekey_boxed`] then re-keys the stored words in place, ids and
//! order unchanged.
//!
//! Correctness across encodings rests on one invariant: for a fixed
//! [`KeyEncoder`], whether a row needs the boxed form and the per-part
//! encoding of a row depend only on the row's *values*, never on which batch
//! or column encoding carried them. Two rows with equal values always
//! produce equal keys; rows with different values never collide (a
//! dictionary miss under [`MissPolicy::Sentinel`] maps every missing string
//! to one sentinel word, which is sound exactly because the build side never
//! emits it).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::value::Value;
use ci_storage::RecordBatch;
use ci_types::{CiError, Result};

/// Maximum number of key columns the word (allocation-free) form holds.
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

/// The spilled key form for wide composites and raw strings.
pub type BoxedKey = Box<[KeyPart]>;

/// One stored key of a [`KeyIndex`], in the form the index holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRef<'a> {
    /// One word per key column; the hot path.
    Words(&'a [u64]),
    /// The spilled form.
    Boxed(&'a [KeyPart]),
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

#[inline]
fn hash_words(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(mix(HASH_SEED, words.len() as u64), |h, &w| mix(h, w))
}

fn hash_boxed(parts: &[KeyPart]) -> u64 {
    let mut hasher = PartHasher(HASH_SEED);
    parts.hash(&mut hasher);
    hasher.finish()
}

/// Key → dense `u32` id in first-appearance order: the one hash structure
/// under both the join build and aggregation.
///
/// An open-addressed, power-of-two directory of `id + 1` (0 = empty) with
/// linear probing, kept at most half full so every probe meets an empty
/// slot. Keys live once, in id order: word keys as `arity` words per id in
/// one flat vector that a lookup compares directly (directory → words, two
/// dependent loads) and growth re-hashes from; boxed keys beside their
/// stored hashes. The hash is a fixed-seed multiply-xorshift — keys come
/// from the engine's own encoders and ids never depend on hash order, so no
/// keyed flood resistance (and no `RandomState`) is needed.
#[derive(Debug)]
pub struct KeyIndex {
    directory: Vec<u32>,
    /// Number of distinct keys (an arity-0 key stores no words to count).
    len: usize,
    keys: Keys,
}

#[derive(Debug)]
enum Keys {
    /// Key `id` is `words[id * arity..][..arity]`.
    Words { arity: usize, words: Vec<u64> },
    Boxed {
        keys: Vec<BoxedKey>,
        hashes: Vec<u64>,
    },
}

/// Walks the probe sequence of `hash`: `Ok(id)` at the first stored id that
/// `is_key` accepts, `Err(empty slot)` when the key is absent. The directory
/// must be non-empty; load ≤ ½ guarantees termination.
#[inline]
fn probe(
    directory: &[u32],
    hash: u64,
    mut is_key: impl FnMut(usize) -> bool,
) -> std::result::Result<u32, usize> {
    let mask = directory.len() - 1;
    let mut slot = hash as usize & mask;
    loop {
        match directory[slot] {
            0 => return Err(slot),
            stored if is_key((stored - 1) as usize) => return Ok(stored - 1),
            _ => slot = (slot + 1) & mask,
        }
    }
}

#[inline]
fn probe_words<const N: usize>(
    directory: &[u32],
    words: &[u64],
    key: &[u64],
) -> std::result::Result<u32, usize> {
    let key = &key[..N];
    probe(directory, hash_words(key), |id| {
        words[id * N..][..N] == *key
    })
}

impl KeyIndex {
    /// The id [`KeyIndex::ids`] reports for an absent key; never a real id.
    pub const MISS: u32 = u32::MAX;

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

    /// An index that takes `capacity` distinct keys without growing: of
    /// `arity`-word keys, or of boxed keys when `arity` is `None`. Panics if
    /// `arity > MAX_INLINE_PARTS`.
    pub fn new(arity: Option<usize>, capacity: usize) -> KeyIndex {
        let keys = match arity {
            Some(arity) => {
                assert!(arity <= MAX_INLINE_PARTS, "{arity}-word keys are boxed");
                let words = Vec::with_capacity(capacity * arity);
                Keys::Words { arity, words }
            }
            None => Keys::Boxed {
                keys: Vec::with_capacity(capacity),
                hashes: Vec::with_capacity(capacity),
            },
        };
        let slots = match capacity {
            0 => 0,
            n => (n * MAX_LOAD_INV).next_power_of_two(),
        };
        KeyIndex {
            directory: vec![0; slots],
            len: 0,
            keys,
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` while the index holds word keys.
    pub fn is_words(&self) -> bool {
        matches!(self.keys, Keys::Words { .. })
    }

    /// The key with id `id`; ids run `0..len()` in first-appearance order.
    /// Panics if `id >= len()`.
    pub fn key(&self, id: usize) -> KeyRef<'_> {
        assert!(id < self.len, "key id {id} out of {}", self.len);
        match &self.keys {
            Keys::Words { arity, words } => KeyRef::Words(&words[id * arity..][..*arity]),
            Keys::Boxed { keys, .. } => KeyRef::Boxed(&keys[id]),
        }
    }

    /// Appends to `ids` the id of each of the `rows` keys in `words`
    /// (`arity` words per key), giving an unseen key the next id. Panics on
    /// a boxed index or when `words` is not `rows × arity` long.
    pub fn ids_or_insert(&mut self, words: &[u64], rows: usize, ids: &mut Vec<u32>) {
        match self.word_arity(words, rows) {
            0 => {
                // The one empty key: every row is group 0.
                self.len = self.len.max(rows.min(1));
                ids.resize(ids.len() + rows, 0);
            }
            1 => self.insert_words::<1>(words, ids),
            2 => self.insert_words::<2>(words, ids),
            3 => self.insert_words::<3>(words, ids),
            _ => self.insert_words::<4>(words, ids),
        }
    }

    /// Appends to `ids` the id of each of the `rows` keys in `words`, or
    /// [`KeyIndex::MISS`] for a key the index does not hold. Panics as
    /// [`KeyIndex::ids_or_insert`] does.
    pub fn ids(&self, words: &[u64], rows: usize, ids: &mut Vec<u32>) {
        match self.word_arity(words, rows) {
            _ if self.len == 0 => ids.resize(ids.len() + rows, Self::MISS),
            0 => ids.resize(ids.len() + rows, 0),
            1 => self.lookup_words::<1>(words, ids),
            2 => self.lookup_words::<2>(words, ids),
            3 => self.lookup_words::<3>(words, ids),
            _ => self.lookup_words::<4>(words, ids),
        }
    }

    /// The arity of a words index, having checked `words` holds `rows` keys.
    fn word_arity(&self, words: &[u64], rows: usize) -> usize {
        let Keys::Words { arity, .. } = self.keys else {
            panic!("word keys offered to a boxed KeyIndex");
        };
        assert_eq!(words.len(), rows * arity, "{rows} keys of {arity} words");
        arity
    }

    fn insert_words<const N: usize>(&mut self, rows: &[u64], ids: &mut Vec<u32>) {
        ids.reserve(rows.len() / N);
        for key in rows.chunks_exact(N) {
            self.reserve_one();
            let Keys::Words { words, .. } = &mut self.keys else {
                unreachable!("arity came from the words form");
            };
            ids.push(match probe_words::<N>(&self.directory, words, key) {
                Ok(id) => id,
                Err(slot) => {
                    words.extend_from_slice(key);
                    self.len += 1;
                    self.directory[slot] = self.len as u32; // id + 1; fits: reserve_one checked
                    self.len as u32 - 1
                }
            });
        }
    }

    fn lookup_words<const N: usize>(&self, rows: &[u64], ids: &mut Vec<u32>) {
        let Keys::Words { words, .. } = &self.keys else {
            unreachable!("arity came from the words form");
        };
        ids.extend(
            rows.chunks_exact(N)
                .map(|key| probe_words::<N>(&self.directory, words, key).unwrap_or(Self::MISS)),
        );
    }

    /// The id of boxed `key`, inserting it with the next id when absent.
    /// Panics on a words index.
    pub fn id_or_insert_boxed(&mut self, key: BoxedKey) -> u32 {
        self.reserve_one();
        let hash = hash_boxed(&key);
        let slot = match self.probe_boxed(&key, hash) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let Keys::Boxed { keys, hashes } = &mut self.keys else {
            unreachable!("probe_boxed checked the form");
        };
        keys.push(key);
        hashes.push(hash);
        self.len += 1;
        self.directory[slot] = self.len as u32; // id + 1; fits: reserve_one checked
        self.len as u32 - 1
    }

    /// The id of boxed `key`, if present. Panics on a words index.
    pub fn id_boxed(&self, key: &[KeyPart]) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.probe_boxed(key, hash_boxed(key)).ok()
    }

    /// [`probe`] for a boxed key: the stored hash screens before the
    /// part-by-part compare.
    fn probe_boxed(&self, key: &[KeyPart], hash: u64) -> std::result::Result<u32, usize> {
        let Keys::Boxed { keys, hashes } = &self.keys else {
            panic!("boxed key offered to a words KeyIndex");
        };
        probe(&self.directory, hash, |id| {
            hashes[id] == hash && *keys[id] == *key
        })
    }

    /// Makes room for one more key: doubles the directory past half load.
    fn reserve_one(&mut self) {
        // Stored ids must stay exact: past this a slot would alias.
        assert!(self.len < Self::MAX_IDS, "KeyIndex id space exhausted");
        if (self.len + 1) * MAX_LOAD_INV > self.directory.len() {
            self.reseat((self.directory.len() * 2).max(8));
        }
    }

    /// Replaces the directory by one of `slots` slots and re-seats every id:
    /// word keys re-hash from their words, boxed keys from the stored hash.
    fn reseat(&mut self, slots: usize) {
        self.directory = vec![0u32; slots];
        for id in 0..self.len {
            let hash = match &self.keys {
                Keys::Words { arity, words } => hash_words(&words[id * arity..][..*arity]),
                Keys::Boxed { hashes, .. } => hashes[id],
            };
            // No stored id is accepted, so the walk ends at the empty slot.
            let Err(slot) = probe(&self.directory, hash, |_| false) else {
                unreachable!("probe accepted a key");
            };
            self.directory[slot] = id as u32 + 1;
        }
    }

    /// The one form transition: turns a words index into a boxed one by
    /// re-keying every stored key through `to_boxed`, ids and order
    /// unchanged. `to_boxed` must be injective and agree with the boxed
    /// encoding of later rows ([`KeyEncoder::boxed_from_words`]). A boxed
    /// index is left as it is.
    pub fn rekey_boxed(&mut self, to_boxed: impl Fn(&[u64]) -> BoxedKey) {
        let Keys::Words { arity, words } = &self.keys else {
            return;
        };
        let keys: Vec<BoxedKey> = (0..self.len)
            .map(|id| to_boxed(&words[id * arity..][..*arity]))
            .collect();
        let hashes = keys.iter().map(|k| hash_boxed(k)).collect();
        self.keys = Keys::Boxed { keys, hashes };
        self.reseat(self.directory.len().max(8));
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

impl KeyMode {
    /// The boxed part that equals key word `word` of a column in this mode.
    fn part(&self, word: u64) -> KeyPart {
        match self {
            KeyMode::Int => KeyPart::Int(word as i64),
            KeyMode::Float => KeyPart::FloatBits(word),
            KeyMode::Bool => KeyPart::Bool(word != 0),
            KeyMode::DictStr(_) => KeyPart::DictId(word),
            KeyMode::Str => unreachable!("raw-string keys are always boxed"),
        }
    }
}

/// Encodes rows of a fixed key-column layout into keys and decodes stored
/// keys back into values. Create once per join build / aggregation, then
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
                // value is the word, so no id translation between
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

    /// An empty index in the form this encoder's keys start in — words
    /// unless every key is boxed — sized for `capacity` distinct keys.
    pub fn new_index(&self, capacity: usize) -> KeyIndex {
        KeyIndex::new((!self.always_boxed).then(|| self.arity()), capacity)
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
            encoder: self,
            plans,
        })
    }

    /// The boxed form of a key this encoder wrote as words: what
    /// [`RowEncoder::encode_boxed`] yields for a row with the same values,
    /// so [`KeyIndex::rekey_boxed`] keeps equal keys equal.
    pub fn boxed_from_words(&self, words: &[u64]) -> BoxedKey {
        let parts = self.modes.iter().zip(words);
        parts.map(|(mode, &word)| mode.part(word)).collect()
    }

    /// Re-materializes one key column of a stored key as a value (group-by
    /// output columns). Panics if `col >= arity()`.
    ///
    /// Only meaningful for keys encoded under [`MissPolicy::Spill`] (the
    /// policy aggregation uses): a [`MissPolicy::Sentinel`] miss carries no
    /// decodable value, and decoding one panics with a clear message rather
    /// than returning a wrong string.
    pub fn key_value_at(&self, key: KeyRef<'_>, col: usize) -> Value {
        let mode = &self.modes[col];
        let part = match key {
            KeyRef::Words(words) => mode.part(words[col]),
            KeyRef::Boxed(parts) => parts[col].clone(),
        };
        match (part, mode) {
            (KeyPart::Int(x), _) => Value::Int(x),
            (KeyPart::FloatBits(b), _) => Value::Float(f64::from_bits(b)),
            (KeyPart::Bool(b), _) => Value::Bool(b),
            (KeyPart::Str(s), _) => Value::Str(s),
            (KeyPart::DictId(id), KeyMode::DictStr(d)) => {
                assert!(
                    id != DICT_MISS,
                    "key_value_at on a Sentinel-policy miss key: no decodable value"
                );
                Value::Str(d.get(id as u32).to_owned())
            }
            (KeyPart::DictId(_), _) => unreachable!("DictId under non-dict mode"),
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
    pub fn dict_entry<'k>(&self, key: KeyRef<'k>, col: usize) -> Option<DictKeyEntry<'k>> {
        if !matches!(self.modes[col], KeyMode::DictStr(_)) {
            return None;
        }
        let id = match key {
            KeyRef::Words(words) => words[col],
            KeyRef::Boxed(parts) => match &parts[col] {
                KeyPart::DictId(id) => *id,
                KeyPart::Str(s) => return Some(DictKeyEntry::Spilled(s)),
                other => unreachable!("{other:?} under dict mode"),
            },
        };
        assert!(id != DICT_MISS, "dict_entry on a Sentinel-policy miss key");
        Some(DictKeyEntry::Id(id as u32))
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

/// The physical rows of a batch a [`RowEncoder`] reads, in order.
#[derive(Debug, Clone)]
pub enum RowSet {
    /// A contiguous run: a dense batch, or a range selection.
    Range(Range<usize>),
    /// A sparse selection's physical indices.
    Picked(Vec<usize>),
}

impl RowSet {
    /// The rows `batch` selects: a deferred filter is read in place.
    pub fn of(batch: &RecordBatch) -> RowSet {
        match batch.selection().map(|sel| (sel, sel.as_range())) {
            None => RowSet::Range(0..batch.physical_rows()),
            Some((_, Some((start, len)))) => RowSet::Range(start..start + len),
            Some((sel, None)) => RowSet::Picked(sel.iter().collect()),
        }
    }

    fn len(&self) -> usize {
        match self {
            RowSet::Range(r) => r.len(),
            RowSet::Picked(p) => p.len(),
        }
    }

    /// The rows in order (one of the two chained halves is empty).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (range, picked) = match self {
            RowSet::Range(r) => (r.clone(), &[][..]),
            RowSet::Picked(p) => (0..0, &p[..]),
        };
        range.chain(picked.iter().copied())
    }
}

/// A batch-bound key encoder; see [`KeyEncoder::prepare`].
pub struct RowEncoder<'a> {
    encoder: &'a KeyEncoder,
    plans: Vec<ColPlan<'a>>,
}

enum ColPlan<'a> {
    I64(&'a [i64]),
    /// Dict-encoded ints: the *decoded value* is the word, exactly as a
    /// plain int column's would be, so the key space is
    /// encoding-independent.
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

/// The one row loop of the batch encoder: writes `word(&v[row])` for each
/// row of `rows` to `out[0]`, `out[stride]`, … in order.
fn scatter<T>(
    out: &mut [u64],
    stride: usize,
    rows: &RowSet,
    v: &[T],
    mut word: impl FnMut(&T) -> u64,
) {
    let slots = out.iter_mut().step_by(stride);
    match rows {
        RowSet::Range(r) => slots
            .zip(&v[r.clone()])
            .for_each(|(slot, x)| *slot = word(x)),
        RowSet::Picked(p) => slots.zip(p).for_each(|(slot, &row)| *slot = word(&v[row])),
    }
}

impl ColPlan<'_> {
    /// Writes this column's word of every row of `rows` into `out` at
    /// `stride`; `false` when the column forces some row into the boxed
    /// form (`out` is then unspecified).
    fn write_words(&self, rows: &RowSet, out: &mut [u64], stride: usize, miss: MissPolicy) -> bool {
        // A dictionary miss is the sentinel word, or (`Spill`) a boxed row.
        let mut missed = false;
        match self {
            ColPlan::I64(v) => scatter(out, stride, rows, v, |&x| x as u64),
            ColPlan::DictI64(ids, dict) => {
                scatter(out, stride, rows, ids, |&id| dict.get(id) as u64)
            }
            ColPlan::F64(v) => scatter(out, stride, rows, v, |x| x.to_bits()),
            ColPlan::Bool(v) => scatter(out, stride, rows, v, |&b| u64::from(b)),
            ColPlan::Ids(ids) => scatter(out, stride, rows, ids, |&id| u64::from(id)),
            ColPlan::Translated(ids, _, table) => scatter(out, stride, rows, ids, |&id| {
                let word = table[id as usize];
                missed |= word == DICT_MISS;
                word
            }),
            ColPlan::LookupUtf8(v, d) => scatter(out, stride, rows, v, |s| {
                let word = d.id_of(s).map_or(DICT_MISS, u64::from);
                missed |= word == DICT_MISS;
                word
            }),
            ColPlan::StrUtf8(_) | ColPlan::StrDict(..) | ColPlan::Mismatch(_) => return false,
        }
        !(missed && miss == MissPolicy::Spill)
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
    /// The batch encoder: one pass per key column writes `arity` words per
    /// row of `rows` into `out` (cleared first), row-major. Returns `false`
    /// — leaving `out` unspecified — when some row needs the boxed form: a
    /// raw-string or over-wide key layout, a column of the wrong type, or a
    /// dictionary miss under [`MissPolicy::Spill`]. No rows need nothing.
    pub fn encode_words(&self, rows: &RowSet, out: &mut Vec<u64>) -> bool {
        out.clear();
        if rows.len() == 0 {
            return true;
        }
        if self.encoder.always_boxed {
            return false;
        }
        let stride = self.plans.len();
        out.resize(rows.len() * stride, 0);
        self.plans
            .iter()
            .enumerate()
            .all(|(c, plan)| plan.write_words(rows, &mut out[c..], stride, self.encoder.miss))
    }

    /// The boxed key of row `row`: one allocation, plus one per string part.
    pub fn encode_boxed(&self, row: usize) -> BoxedKey {
        self.plans
            .iter()
            .map(|p| p.part(row, self.encoder.miss))
            .collect()
    }

    /// Encode batch → id vector, inserting: `ids` becomes the `index` id of
    /// each row of `rows`, unseen keys taking the next ids in row order.
    /// `index` must come from this encoder ([`KeyEncoder::new_index`]). The
    /// first batch with a row that needs the boxed form turns a words index
    /// boxed for good; ids already handed out keep their keys.
    pub fn ids_or_insert(&self, rows: &RowSet, index: &mut KeyIndex, ids: &mut Vec<u32>) {
        ids.clear();
        let mut words = Vec::new();
        if index.is_words() && self.encode_words(rows, &mut words) {
            return index.ids_or_insert(&words, rows.len(), ids);
        }
        index.rekey_boxed(|words| self.encoder.boxed_from_words(words));
        rows.iter()
            .for_each(|row| ids.push(index.id_or_insert_boxed(self.encode_boxed(row))));
    }

    /// Encode batch → id vector, looking up: `ids` becomes the `index` id
    /// of each row of `rows`, [`KeyIndex::MISS`] where the key is absent.
    pub fn ids(&self, rows: &RowSet, index: &KeyIndex, ids: &mut Vec<u32>) {
        ids.clear();
        let mut words = Vec::new();
        if !index.is_words() {
            rows.iter().for_each(|row| {
                let id = index.id_boxed(&self.encode_boxed(row));
                ids.push(id.unwrap_or(KeyIndex::MISS));
            });
        } else if self.encode_words(rows, &mut words) {
            index.ids(&words, rows.len(), ids);
        } else {
            // Some row needs the boxed form, and the form depends only on
            // the row's values: such a row equals no word key.
            rows.iter().for_each(|row| {
                if self.encode_words(&RowSet::Range(row..row + 1), &mut words) {
                    index.ids(&words, 1, ids);
                } else {
                    ids.push(KeyIndex::MISS);
                }
            });
        }
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

    /// Every row of `cols` as the words `enc` writes, or `None` when the
    /// batch needs the boxed form.
    fn words_of(enc: &KeyEncoder, cols: &[&ColumnData]) -> Option<Vec<Vec<u64>>> {
        let mut words = Vec::new();
        let rows = RowSet::Range(0..cols.first().map_or(0, |c| c.len()));
        let fixed = enc.prepare(cols).unwrap().encode_words(&rows, &mut words);
        fixed.then(|| {
            words
                .chunks(enc.arity().max(1))
                .map(<[u64]>::to_vec)
                .collect()
        })
    }

    fn encode_all(cols: &[&ColumnData], miss: MissPolicy) -> Option<Vec<Vec<u64>>> {
        words_of(&KeyEncoder::for_columns(cols, miss), cols)
    }

    fn key_values(enc: &KeyEncoder, key: KeyRef<'_>) -> Vec<Value> {
        (0..enc.arity()).map(|c| enc.key_value_at(key, c)).collect()
    }

    fn boxed_all(enc: &KeyEncoder, cols: &[&ColumnData]) -> Vec<BoxedKey> {
        let re = enc.prepare(cols).unwrap();
        (0..cols[0].len()).map(|r| re.encode_boxed(r)).collect()
    }

    #[test]
    fn key_equality_per_type() {
        let ints = ColumnData::Int64(vec![1, 1, 2]);
        let strs = dict_col(&["a", "a", "b"]);
        let keys = encode_all(&[&ints, &strs], MissPolicy::Spill).unwrap();
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn float_keys_use_bit_pattern() {
        let f = ColumnData::Float64(vec![0.5, 0.5, -0.0, 0.0]);
        let keys = encode_all(&[&f], MissPolicy::Spill).unwrap();
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
        assert_eq!(
            keys.expect("int/float/bool/dict composite must be allocation-free"),
            vec![
                vec![7, 1.5f64.to_bits(), 1, 0],
                vec![-1i64 as u64, 2.5f64.to_bits(), 0, 1]
            ]
        );
        // A fifth column exceeds the word budget.
        let five: Vec<&ColumnData> = vec![&ints, &floats, &bools, &dicts, &ints];
        let enc = KeyEncoder::for_columns(&five, MissPolicy::Spill);
        assert_eq!(words_of(&enc, &five), None);
        assert!(!enc.new_index(0).is_words());
    }

    #[test]
    fn raw_string_keys_spill_to_boxed() {
        let strs = ColumnData::Utf8(vec!["a".into(), "b".into(), "a".into()]);
        let cols: Vec<&ColumnData> = vec![&strs];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Spill);
        assert_eq!(words_of(&enc, &cols), None);
        let keys = boxed_all(&enc, &cols);
        assert_eq!(keys[0], keys[2]);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn round_trip_to_values() {
        let ints = ColumnData::Int64(vec![7]);
        let strs = dict_col(&["x"]);
        let cols: Vec<&ColumnData> = vec![&ints, &strs];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Spill);
        let words = &words_of(&enc, &cols).unwrap()[0];
        let expected = vec![Value::Int(7), Value::from("x")];
        assert_eq!(key_values(&enc, KeyRef::Words(words)), expected);
        // Both forms of one key decode alike.
        let boxed = enc.boxed_from_words(words);
        assert_eq!(boxed, boxed_all(&enc, &cols)[0]);
        assert_eq!(key_values(&enc, KeyRef::Boxed(&boxed)), expected);
    }

    #[test]
    fn foreign_dictionary_probe_translates_ids() {
        let build = dict_col(&["a", "b", "c"]);
        let cols: Vec<&ColumnData> = vec![&build];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Sentinel);
        let build_keys = words_of(&enc, &cols).unwrap();
        // Probe column interned in a different order, plus a miss.
        let probe = dict_col(&["c", "q", "a"]);
        let probe_keys = words_of(&enc, &[&probe]).expect("sentinel miss stays a word");
        assert_eq!(probe_keys[0], build_keys[2], "same string, same key");
        assert_eq!(probe_keys[2], build_keys[0]);
        assert!(build_keys.iter().all(|k| *k != probe_keys[1]));
    }

    #[test]
    fn poisoned_translation_cache_is_recovered_not_fatal() {
        let build = dict_col(&["a", "b", "c"]);
        let cols: Vec<&ColumnData> = vec![&build];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Sentinel);
        let build_keys = words_of(&enc, &cols).unwrap();
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
        for _ in 0..2 {
            let probe_keys = words_of(&enc, &[&probe]).unwrap();
            assert_eq!(probe_keys[0], build_keys[2]);
            assert_eq!(probe_keys[2], build_keys[0]);
        }
    }

    #[test]
    fn spill_policy_distinguishes_unseen_strings() {
        let first = dict_col(&["a", "b"]);
        let cols: Vec<&ColumnData> = vec![&first];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Spill);
        // A later morsel carries raw strings, two of them unseen: the batch
        // reports the boxed form instead of writing a sentinel.
        let later = ColumnData::Utf8(vec!["b".into(), "q".into(), "z".into(), "q".into()]);
        let lcols: Vec<&ColumnData> = vec![&later];
        assert_eq!(words_of(&enc, &lcols), None);
        let keys = boxed_all(&enc, &lcols);
        assert_ne!(
            keys[1], keys[2],
            "distinct unseen strings form distinct keys"
        );
        assert_eq!(keys[1], keys[3], "equal unseen strings form equal keys");
        // A hit encodes identically across batches, in both forms.
        let hit = &words_of(&enc, &cols).unwrap()[1];
        assert_eq!(enc.boxed_from_words(hit), keys[0]);
        let hits_only = ColumnData::Utf8(vec!["b".into()]);
        assert_eq!(&words_of(&enc, &[&hits_only]).unwrap()[0], hit);
    }

    #[test]
    fn dict_entry_exposes_ids_and_spills() {
        let strs = dict_col(&["a", "b"]);
        let ints = ColumnData::Int64(vec![1, 2]);
        let cols: Vec<&ColumnData> = vec![&strs, &ints];
        let enc = KeyEncoder::for_columns(&cols, MissPolicy::Spill);
        let words = words_of(&enc, &cols).unwrap();
        let k0 = KeyRef::Words(&words[0]);
        assert_eq!(enc.dict_entry(k0, 0), Some(DictKeyEntry::Id(0)));
        assert_eq!(enc.dict_entry(k0, 1), None, "int column is not dict-mode");
        assert_eq!(enc.key_value_at(k0, 0), Value::from("a"));
        assert_eq!(enc.key_value_at(k0, 1), Value::Int(1));
        // A later morsel with an unseen string spills; the entry carries it.
        let later = ColumnData::Utf8(vec!["q".into()]);
        let later_ints = ColumnData::Int64(vec![9]);
        let ks = &boxed_all(&enc, &[&later, &later_ints])[0];
        let ks = KeyRef::Boxed(ks);
        assert_eq!(enc.dict_entry(ks, 0), Some(DictKeyEntry::Spilled("q")));
        assert_eq!(enc.key_value_at(ks, 0), Value::from("q"));
    }

    #[test]
    fn key_columns_bounds_checked() {
        let cols = vec![Arc::new(ColumnData::Int64(vec![1]))];
        assert!(key_columns(&cols, &[0]).is_ok());
        assert!(key_columns(&cols, &[1]).is_err());
    }

    /// Boxed keys from small pools (so streams repeat them): raw strings,
    /// 5-part composites, and a wide pool that drives the directory through
    /// several doublings. (Word keys meet the same oracle in
    /// `tests/join_properties.rs`.)
    fn boxed_key_strategy() -> impl Strategy<Value = BoxedKey> {
        prop_oneof![
            (0u64..8).prop_map(|x| [KeyPart::Str(format!("s{x}"))].into()),
            (0i64..3, 0u64..3).prop_map(|(a, b)| {
                [
                    KeyPart::Int(a),
                    KeyPart::DictId(b),
                    KeyPart::Bool(a == 1),
                    KeyPart::FloatBits(b),
                    KeyPart::Str(String::new()),
                ]
                .into()
            }),
            (0i64..4096).prop_map(|x| [KeyPart::Int(x)].into()),
        ]
    }

    proptest! {
        /// Ids are first-appearance ranks, `id_boxed` agrees with the std
        /// map for present and absent keys, and `key(id)` is the insertion
        /// order.
        #[test]
        fn key_index_matches_std_oracle(
            stream in proptest::collection::vec(boxed_key_strategy(), 0..700),
            lookups in proptest::collection::vec(boxed_key_strategy(), 40),
            capacity in 0usize..40,
        ) {
            let mut index = KeyIndex::new(None, capacity);
            let mut oracle_ids: HashMap<BoxedKey, u32> = HashMap::new();
            let mut oracle_order: Vec<BoxedKey> = Vec::new();
            for key in &stream {
                prop_assert_eq!(index.id_boxed(key), oracle_ids.get(key).copied());
                let next = oracle_order.len() as u32;
                let expected = *oracle_ids.entry(key.clone()).or_insert_with(|| {
                    oracle_order.push(key.clone());
                    next
                });
                prop_assert_eq!(index.id_or_insert_boxed(key.clone()), expected);
                prop_assert_eq!(index.len(), oracle_order.len());
            }
            prop_assert_eq!(index.is_empty(), oracle_order.is_empty());
            for (id, key) in oracle_order.iter().enumerate() {
                prop_assert_eq!(index.key(id), KeyRef::Boxed(key));
            }
            for key in oracle_order.iter().chain(&lookups) {
                prop_assert_eq!(index.id_boxed(key), oracle_ids.get(key).copied());
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
        let (k1, k2) = ([a1, b1], [a2, b2]);
        assert_ne!(k1, k2);
        assert_eq!(hash_words(&k1), hash_words(&k2));
        let mut index = KeyIndex::new(Some(2), 0);
        let mut ids = Vec::new();
        index.ids(&k2, 1, &mut ids);
        index.ids_or_insert(&k1, 1, &mut ids);
        index.ids(&k2, 1, &mut ids);
        index.ids_or_insert(&k2, 1, &mut ids);
        index.ids(&[k1, k2].concat(), 2, &mut ids);
        assert_eq!(ids, [KeyIndex::MISS, 0, KeyIndex::MISS, 1, 0, 1]);
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
        let enc = KeyEncoder::for_columns(&[], MissPolicy::Spill);
        let mut index = enc.new_index(0);
        let mut ids = Vec::new();
        index.ids(&[], 2, &mut ids);
        index.ids_or_insert(&[], 3, &mut ids);
        index.ids(&[], 1, &mut ids);
        assert_eq!(ids, [KeyIndex::MISS, KeyIndex::MISS, 0, 0, 0, 0]);
        assert_eq!(index.len(), 1);
        assert_eq!(key_values(&enc, index.key(0)), Vec::<Value>::new());
    }
}

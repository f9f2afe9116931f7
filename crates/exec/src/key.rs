//! Hashable, comparable row keys for joins and aggregation, and the index
//! that numbers them.
//!
//! The pipeline is column-at-a-time: encoder → words → [`KeyIndex`] → ids.
//! A [`KeyEncoder`] fixes how a key-column layout maps to key words, a
//! batch-bound [`RowEncoder`] makes **one pass per key column** and writes
//! `arity` `u64` words per row — one word per int / float-bits / bool /
//! string-id key column, however many columns there are — into a flat
//! `Vec<u64>`, and a [`KeyIndex`] turns those words into dense `u32` ids in
//! first-appearance order ([`RowEncoder::ids_or_insert`],
//! [`RowEncoder::ids`]; `ids_or_insert_batches` inserts several batches'
//! rows as one, which is how the join build indexes its chunks). The hash
//! join buckets its build row locations by id — unless the key is one dense
//! `Int64` column, which is its own bucket and needs no index — and
//! aggregation hangs one accumulator column per aggregate off the ids (see
//! `operators`); neither keeps a map of its own, and no per-row key value
//! exists.
//!
//! The index addresses its directory one of two ways. A one-word index
//! whose first inserted batch spans no more words (read as `i64`) than a
//! hashed directory for that batch would have slots is *offset-addressed*:
//! key `w` sits at slot `w − min`, no hash and no word compare — the narrow
//! group keys aggregation sees, and one-word join keys (a dictionary id)
//! that the join does not bucket by value.
//! Every other index is *hashed*, and an offset index that meets a word
//! outside its span becomes hashed for good. Ids, words and extension
//! tables are the same either way; only the slot a key sits at differs.
//!
//! A string key column's word is an id. The encoder's *base* dictionary for
//! the column — the authoritative column's own — supplies ids
//! `0..base.len()`. A batch over another dictionary (a probe side, a later
//! aggregation morsel) translates its entries into the base once; a string
//! outside the base gets the next id, `base.len() + k`, from a key-local
//! *extension table* the index owns, where `k` is the string's
//! first-appearance rank among such strings. Only
//! [`RowEncoder::ids_or_insert`] grows the table. [`RowEncoder::ids`] reads
//! it, and a string in neither is one word no key stores, so its row gets
//! [`KeyIndex::MISS`] — which is all a probe of a build side that never held
//! the string can answer.
//!
//! Correctness across dictionaries rests on one invariant: for a fixed
//! [`KeyEncoder`] and [`KeyIndex`], a row's words depend only on the row's
//! *values* and on the strings inserted before it, never on which batch or
//! dictionary carried them. Two rows with equal values always produce equal
//! keys; rows with different values never collide.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::value::Value;
use ci_storage::RowSet;
use ci_types::{CiError, Result};

/// Word of a string in neither the base dictionary nor the extension table.
/// Real ids fit in 33 bits, so no stored key holds it.
const DICT_MISS: u64 = u64::MAX;

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
/// always end at an empty slot. It also bounds the offset directory: a first
/// batch of `n` one-word keys is offset-addressed only when its span fits in
/// the [`hashed_slots`] of `n`, so addressing never costs more memory than
/// hashing would have.
const MAX_LOAD_INV: usize = 2;

/// Slots of a hashed directory sized for `keys` keys (0 for none).
fn hashed_slots(keys: usize) -> usize {
    match keys {
        0 => 0,
        n => (n * MAX_LOAD_INV).next_power_of_two(),
    }
}

/// The least word of `words` read as `i64` and the span from it to the
/// greatest, when that span fits in `slots` slots ([`span_within`]).
fn dense_span(words: &[u64], slots: usize) -> Option<(u64, usize)> {
    let (min, max) = words.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &w| {
        (lo.min(w as i64), hi.max(w as i64))
    });
    Some((min as u64, span_within(min, max, slots)?))
}

/// The span `max − min + 1` of the keys from `min` to `max`, when it fits
/// in `slots` slots. Checked arithmetic: `i64::MIN..=i64::MAX` overflows
/// and does not fit, and no keys at all (`min` above `max`) have no span.
pub(crate) fn span_within(min: i64, max: i64, slots: usize) -> Option<usize> {
    let span = usize::try_from(max.checked_sub(min)?.checked_add(1)?).ok()?;
    (span <= slots).then_some(span)
}

#[inline]
fn hash_words(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(mix(HASH_SEED, words.len() as u64), |h, &w| mix(h, w))
}

/// Key → dense `u32` id in first-appearance order: the index under
/// `GROUP BY`, `COUNT(DISTINCT)` and every join key that is not one dense
/// `Int64` column (those the join buckets by value, with no index).
///
/// A directory of `id + 1` (0 = empty), addressed one of two ways:
///
/// - **Offset.** A one-word index whose first inserted batch of `n` keys
///   spans (`max − min + 1`, words read as `i64`) no more than the
///   `(n · 2).next_power_of_two()` slots a hashed directory for them takes
///   keeps a directory of exactly `span` slots and finds key `w` at slot
///   `w − min` — one subtraction, one load, no word compare. A lookup
///   outside the span is [`KeyIndex::MISS`]; an insert outside it re-seats
///   the index as hashed, once and for good.
/// - **Hashed.** An open-addressed, power-of-two directory with linear
///   probing, kept at most half full so every probe meets an empty slot.
///   A lookup compares the stored words directly (directory → words, two
///   dependent loads). The hash is a fixed-seed multiply-xorshift — keys
///   come from the engine's own encoders and ids never depend on hash
///   order, so no keyed flood resistance (and no `RandomState`) is needed.
///
/// Keys live once, in id order, as `arity` words per id in one flat vector
/// that growth and the re-seat re-hash from, so ids, [`KeyIndex::key`] and
/// [`KeyIndex::len`] do not depend on the addressing. The directory is
/// allocated at the first insert, once the addressing is known.
#[derive(Debug)]
pub struct KeyIndex {
    directory: Vec<u32>,
    addressing: Addressing,
    /// Number of distinct keys (an arity-0 key stores no words to count).
    len: usize,
    arity: usize,
    /// Key `id` is `words[id * arity..][..arity]`.
    words: Vec<u64>,
    /// Per key column, the strings inserted from outside the column's base
    /// dictionary, in first-appearance order (empty for other columns).
    extensions: Vec<Dictionary>,
}

/// How a [`KeyIndex`] finds a key's directory slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Addressing {
    /// Before the first inserted row, with no directory yet: a hashed one
    /// would take this many keys without growing.
    Unseated(usize),
    /// Key `w` sits at slot `w − base`.
    Offset(u64),
    Hashed,
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

/// The `N` of the instantiations that take the key width from the slice at
/// run time instead (keys wider than four words). Zero is free to mean so:
/// the empty key is never probed for.
const WIDE: usize = 0;

/// [`probe`] for the first key of `key`: `N` words wide, or as wide as `key`
/// itself under [`WIDE`].
#[inline]
fn probe_words<const N: usize>(
    directory: &[u32],
    words: &[u64],
    key: &[u64],
) -> std::result::Result<u32, usize> {
    let n = if N == WIDE { key.len() } else { N };
    let key = &key[..n];
    probe(directory, hash_words(key), |id| {
        words[id * n..][..n] == *key
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

    /// An index of `arity`-word keys that takes `capacity` distinct keys
    /// without growing.
    pub fn new(arity: usize, capacity: usize) -> KeyIndex {
        KeyIndex {
            directory: Vec::new(),
            addressing: Addressing::Unseated(capacity),
            len: 0,
            arity,
            words: Vec::with_capacity(capacity * arity),
            extensions: vec![Dictionary::new(); arity],
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

    /// The words of the key with id `id`; ids run `0..len()` in
    /// first-appearance order. Panics if `id >= len()`.
    pub fn key(&self, id: usize) -> &[u64] {
        assert!(id < self.len, "key id {id} out of {}", self.len);
        &self.words[id * self.arity..][..self.arity]
    }

    /// Appends to `ids` the id of each of the `rows` keys in `words`
    /// (`arity` words per key), giving an unseen key the next id. Panics
    /// when `words` is not `rows × arity` long.
    pub fn ids_or_insert(&mut self, words: &[u64], rows: usize, ids: &mut Vec<u32>) {
        let arity = self.checked_arity(words, rows);
        if let Addressing::Unseated(capacity) = self.addressing {
            if rows > 0 && arity > 0 {
                self.seat(words, rows, capacity);
            }
        }
        match arity {
            0 => {
                // The one empty key: every row is group 0.
                self.len = self.len.max(rows.min(1));
                ids.resize(ids.len() + rows, 0);
            }
            1 => match self.addressing {
                Addressing::Offset(base) => self.insert_offset(base, words, ids),
                _ => self.insert_words::<1>(words, ids),
            },
            2 => self.insert_words::<2>(words, ids),
            3 => self.insert_words::<3>(words, ids),
            4 => self.insert_words::<4>(words, ids),
            _ => self.insert_words::<WIDE>(words, ids),
        }
    }

    /// Appends to `ids` the id of each of the `rows` keys in `words`, or
    /// [`KeyIndex::MISS`] for a key the index does not hold. Panics as
    /// [`KeyIndex::ids_or_insert`] does.
    pub fn ids(&self, words: &[u64], rows: usize, ids: &mut Vec<u32>) {
        match self.checked_arity(words, rows) {
            _ if self.len == 0 => ids.resize(ids.len() + rows, Self::MISS),
            0 => ids.resize(ids.len() + rows, 0),
            1 => match self.addressing {
                Addressing::Offset(base) => self.lookup_offset(base, words, ids),
                _ => self.lookup_words::<1>(words, ids),
            },
            2 => self.lookup_words::<2>(words, ids),
            3 => self.lookup_words::<3>(words, ids),
            4 => self.lookup_words::<4>(words, ids),
            _ => self.lookup_words::<WIDE>(words, ids),
        }
    }

    /// The arity, having checked `words` holds `rows` keys.
    fn checked_arity(&self, words: &[u64], rows: usize) -> usize {
        let arity = self.arity;
        assert_eq!(words.len(), rows * arity, "{rows} keys of {arity} words");
        arity
    }

    /// Key width of the `N` instantiation: `N`, or the arity under [`WIDE`].
    #[inline]
    fn width<const N: usize>(&self) -> usize {
        if N == WIDE {
            self.arity
        } else {
            N
        }
    }

    /// Allocates the directory for a first batch of `rows` keys: offset
    /// addressing when the batch is one-word keys dense enough, else a
    /// hashed directory for `capacity` keys (which the first insert grows
    /// when that is none).
    fn seat(&mut self, words: &[u64], rows: usize, capacity: usize) {
        let dense = match self.arity {
            1 => dense_span(words, hashed_slots(rows)),
            _ => None,
        };
        let (addressing, slots) = match dense {
            Some((base, span)) => (Addressing::Offset(base), span),
            None => (Addressing::Hashed, hashed_slots(capacity)),
        };
        self.addressing = addressing;
        self.directory = vec![0; slots];
    }

    /// [`KeyIndex::insert_words`] for an offset-addressed index: the slot
    /// of `w` is `w − base`. The first word outside the span re-seats the
    /// index as hashed, and that word and the rest of the batch go there.
    fn insert_offset(&mut self, base: u64, rows: &[u64], ids: &mut Vec<u32>) {
        ids.reserve(rows.len());
        let span = self.directory.len() as u64;
        for (i, &word) in rows.iter().enumerate() {
            let slot = word.wrapping_sub(base);
            if slot >= span {
                self.addressing = Addressing::Hashed;
                self.reseat(hashed_slots(self.len + 1));
                return self.insert_words::<1>(&rows[i..], ids);
            }
            let stored = &mut self.directory[slot as usize];
            if *stored == 0 {
                assert!(self.len < Self::MAX_IDS, "KeyIndex id space exhausted");
                self.words.push(word);
                self.len += 1;
                *stored = self.len as u32;
            }
            ids.push(*stored - 1);
        }
    }

    /// [`KeyIndex::lookup_words`] for an offset-addressed index: an empty
    /// slot's `0 − 1` wraps to [`KeyIndex::MISS`], as does a word outside
    /// the span.
    fn lookup_offset(&self, base: u64, rows: &[u64], ids: &mut Vec<u32>) {
        let directory = &self.directory[..];
        let span = directory.len() as u64;
        ids.extend(rows.iter().map(|&word| {
            let slot = word.wrapping_sub(base);
            if slot < span {
                directory[slot as usize].wrapping_sub(1)
            } else {
                Self::MISS
            }
        }));
    }

    fn insert_words<const N: usize>(&mut self, rows: &[u64], ids: &mut Vec<u32>) {
        let n = self.width::<N>();
        ids.reserve(rows.len() / n);
        for key in rows.chunks_exact(n) {
            self.reserve_one();
            ids.push(match probe_words::<N>(&self.directory, &self.words, key) {
                Ok(id) => id,
                Err(slot) => {
                    self.words.extend_from_slice(key);
                    self.len += 1;
                    self.directory[slot] = self.len as u32; // id + 1; fits: reserve_one checked
                    self.len as u32 - 1
                }
            });
        }
    }

    fn lookup_words<const N: usize>(&self, rows: &[u64], ids: &mut Vec<u32>) {
        ids.extend(
            rows.chunks_exact(self.width::<N>()).map(|key| {
                probe_words::<N>(&self.directory, &self.words, key).unwrap_or(Self::MISS)
            }),
        );
    }

    /// Makes room for one more key: doubles the directory past half load.
    #[inline]
    fn reserve_one(&mut self) {
        // Stored ids must stay exact: past this a slot would alias.
        assert!(self.len < Self::MAX_IDS, "KeyIndex id space exhausted");
        if (self.len + 1) * MAX_LOAD_INV > self.directory.len() {
            self.reseat((self.directory.len() * 2).max(8));
        }
    }

    /// Replaces the directory by one of `slots` slots and re-seats every
    /// id, re-hashing its words. Cold, so that the insert loop inlines
    /// [`KeyIndex::reserve_one`]'s check and not this loop with it.
    #[cold]
    fn reseat(&mut self, slots: usize) {
        self.directory = vec![0u32; slots];
        let mask = self.directory.len() - 1;
        for id in 0..self.len {
            let hash = hash_words(&self.words[id * self.arity..][..self.arity]);
            // Stored keys are distinct, so none needs comparing: the id goes
            // to the first empty slot of its probe sequence (load ≤ ½ leaves
            // one).
            let mut slot = hash as usize & mask;
            while self.directory[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.directory[slot] = id as u32 + 1;
        }
    }
}

/// Per-column key encoding mode, fixed when the encoder is created.
#[derive(Debug, Clone)]
enum KeyMode {
    Int,
    Float,
    Bool,
    /// String column, keyed by id: ids below the base dictionary's length
    /// resolve against it, later ones against the index's extension table.
    Str(Arc<Dictionary>),
}

impl KeyMode {
    /// The dictionary a string column's low ids resolve against.
    fn base(&self) -> Option<&Arc<Dictionary>> {
        match self {
            KeyMode::Str(base) => Some(base),
            _ => None,
        }
    }

    /// The first id the extension table hands out.
    fn base_len(&self) -> u64 {
        self.base().map_or(0, |d| d.len() as u64)
    }
}

/// Encodes rows of a fixed key-column layout into keys and decodes stored
/// keys back into values. Create once per join build / aggregation, then
/// [`KeyEncoder::prepare`] a [`RowEncoder`] per batch.
#[derive(Debug, Clone)]
pub struct KeyEncoder {
    modes: Vec<KeyMode>,
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
    pub fn for_columns(columns: &[&ColumnData]) -> KeyEncoder {
        let modes: Vec<KeyMode> = columns
            .iter()
            .map(|c| match c {
                ColumnData::Int64(_) => KeyMode::Int,
                ColumnData::Float64(_) => KeyMode::Float,
                ColumnData::Bool(_) => KeyMode::Bool,
                ColumnData::Dict { dict, .. } => KeyMode::Str(dict.clone()),
            })
            .collect();
        KeyEncoder {
            modes,
            translations: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The translation table from `foreign` ids to the base dictionary's
    /// ids (`DICT_MISS` for strings outside it) for key column `col_idx`,
    /// computed on first sight of `foreign` and cached thereafter.
    fn translation(
        &self,
        col_idx: usize,
        base: &Dictionary,
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
                .map(|id| base.id_of(foreign.get(id)).map_or(DICT_MISS, u64::from))
                .collect::<Vec<u64>>(),
        );
        cache.insert(cache_key, (foreign.clone(), table.clone()));
        table
    }

    /// Number of key columns.
    pub fn arity(&self) -> usize {
        self.modes.len()
    }

    /// An empty index for this encoder's keys, sized for `capacity`
    /// distinct keys.
    pub fn new_index(&self, capacity: usize) -> KeyIndex {
        KeyIndex::new(self.arity(), capacity)
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
                (KeyMode::Int, ColumnData::Int64(v)) => Ok(ColPlan::I64(v)),
                (KeyMode::Float, ColumnData::Float64(v)) => Ok(ColPlan::F64(v)),
                (KeyMode::Bool, ColumnData::Bool(v)) => Ok(ColPlan::Bool(v)),
                (KeyMode::Str(base), ColumnData::Dict { ids, dict }) if Arc::ptr_eq(base, dict) => {
                    Ok(ColPlan::Ids(ids))
                }
                // Foreign dictionary (probe side, later aggregation
                // morsels): translate each dictionary entry once — cached
                // across batches — then rows are pure lookups.
                (KeyMode::Str(base), ColumnData::Dict { ids, dict }) => Ok(ColPlan::Translated(
                    ids,
                    dict,
                    self.translation(i, base, dict),
                )),
                // Type mismatch (e.g. probing an int build key with a float
                // column): no row can equal a stored key.
                _ => Err(i),
            })
            .collect();
        Ok(RowEncoder {
            encoder: self,
            plans,
        })
    }

    /// Re-materializes key column `col` of `index`'s key `id` as a value
    /// (group-by output columns). `index` must be one this encoder's rows
    /// were inserted into. Panics if `col >= arity()` or `id >= index.len()`.
    pub fn key_value_at(&self, index: &KeyIndex, id: usize, col: usize) -> Value {
        let word = index.key(id)[col];
        match &self.modes[col] {
            KeyMode::Int => Value::Int(word as i64),
            KeyMode::Float => Value::Float(f64::from_bits(word)),
            KeyMode::Bool => Value::Bool(word != 0),
            KeyMode::Str(base) => {
                let base_len = base.len() as u64;
                let s = match word.checked_sub(base_len) {
                    None => base.get(word as u32),
                    Some(k) => index.extensions[col].get(k as u32),
                };
                Value::Str(s.to_owned())
            }
        }
    }

    /// The dictionary key column `col` resolves against, when that column
    /// is dict-mode (lets group-by outputs stay dictionary-encoded).
    pub fn dict_mode(&self, col: usize) -> Option<&Arc<Dictionary>> {
        self.modes[col].base()
    }

    /// For a dict-mode key column of `index`'s key `id`: the dictionary id
    /// the key carries, or — for an id past the dictionary's — the string
    /// the extension table holds for it (a group string never interned in
    /// the encoder's dictionary). `None` when the column is not dict-mode.
    pub fn dict_entry<'k>(
        &self,
        index: &'k KeyIndex,
        id: usize,
        col: usize,
    ) -> Option<DictKeyEntry<'k>> {
        let dict = self.dict_mode(col)?;
        let word = index.key(id)[col];
        Some(match word.checked_sub(dict.len() as u64) {
            None => DictKeyEntry::Id(word as u32),
            Some(k) => DictKeyEntry::Spilled(index.extensions[col].get(k as u32)),
        })
    }
}

/// How a dict-mode key column stores one key: a resolved dictionary id, or
/// a string that spilled past the encoder's dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictKeyEntry<'a> {
    /// Id valid in the encoder's dictionary for that column.
    Id(u32),
    /// String absent from the dictionary, held by the extension table.
    Spilled(&'a str),
}

/// A batch-bound key encoder; see [`KeyEncoder::prepare`].
pub struct RowEncoder<'a> {
    encoder: &'a KeyEncoder,
    /// One plan per key column, or the first column whose type differs from
    /// the encoder's.
    plans: std::result::Result<Vec<ColPlan<'a>>, usize>,
}

enum ColPlan<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    /// Dict ids valid against the encoder's dictionary as-is.
    Ids(&'a [u32]),
    /// Dict ids from a foreign dictionary plus the per-entry translation
    /// into the base dictionary; `DICT_MISS` entries resolve by string
    /// against the extension table.
    Translated(&'a [u32], &'a Dictionary, Arc<Vec<u64>>),
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
        RowSet::Picked(p) => {
            (slots.zip(*p)).for_each(|(slot, &row)| *slot = word(&v[row as usize]))
        }
    }
}

/// The extension tables a batch is encoded against: grown by an insert,
/// only read by a lookup — which is all that tells the two apart.
enum Extensions<'a> {
    Grow(&'a mut [Dictionary]),
    Read(&'a [Dictionary]),
}

impl Extensions<'_> {
    /// Whether key column `c` can have a word for a string outside its base
    /// dictionary: always on insert, on lookup only once one was inserted.
    fn reaches(&self, c: usize) -> bool {
        match self {
            Extensions::Grow(_) => true,
            Extensions::Read(tables) => !tables[c].is_empty(),
        }
    }

    /// The word of string `s` of key column `c`, `s` being outside the
    /// column's base dictionary of `base_len` entries.
    fn word(&mut self, c: usize, base_len: u64, s: &str) -> u64 {
        let id = match self {
            Extensions::Grow(tables) => Some(tables[c].intern(s)),
            Extensions::Read(tables) => tables[c].id_of(s),
        };
        id.map_or(DICT_MISS, |k| base_len + u64::from(k))
    }
}

impl ColPlan<'_> {
    /// Writes the word of every row of `rows` of this column, key column
    /// `c` over a base dictionary of `base_len` entries, into `out` at
    /// `stride`.
    fn write_words(
        &self,
        rows: &RowSet,
        out: &mut [u64],
        stride: usize,
        (c, base_len): (usize, u64),
        extensions: &mut Extensions<'_>,
    ) {
        match self {
            ColPlan::I64(v) => scatter(out, stride, rows, v, |&x| x as u64),
            ColPlan::F64(v) => scatter(out, stride, rows, v, |x| x.to_bits()),
            ColPlan::Bool(v) => scatter(out, stride, rows, v, |&b| u64::from(b)),
            ColPlan::Ids(ids) => scatter(out, stride, rows, ids, |&id| u64::from(id)),
            ColPlan::Translated(ids, foreign, table) => {
                let mut missed = false;
                scatter(out, stride, rows, ids, |&id| {
                    let word = table[id as usize];
                    missed |= word == DICT_MISS;
                    word
                });
                // The rare second pass: strings outside the base dictionary
                // that the extension table knows, or now learns.
                if missed && extensions.reaches(c) {
                    for (slot, row) in out.iter_mut().step_by(stride).zip(rows.iter()) {
                        if *slot == DICT_MISS {
                            *slot = extensions.word(c, base_len, foreign.get(ids[row]));
                        }
                    }
                }
            }
        }
    }
}

impl RowEncoder<'_> {
    /// The batch encoder: one pass per key column writes `arity` words per
    /// row of `rows` into `out`, row-major (`out` is exactly that long).
    fn encode_words(
        &self,
        plans: &[ColPlan<'_>],
        rows: &RowSet,
        out: &mut [u64],
        mut extensions: Extensions<'_>,
    ) {
        let stride = plans.len();
        if rows.is_empty() {
            return; // no `out[c..]` to write to
        }
        for (c, plan) in plans.iter().enumerate() {
            let column = (c, self.encoder.modes[c].base_len());
            plan.write_words(rows, &mut out[c..], stride, column, &mut extensions);
        }
    }

    /// The column plans, or the typed error of the first key column whose
    /// type differs from the encoder's.
    fn checked_plans(&self) -> Result<&[ColPlan<'_>]> {
        self.plans.as_deref().map_err(|col| {
            CiError::Exec(format!(
                "key column {col} does not have the type the key was built with"
            ))
        })
    }

    /// Encode batch → id vector, inserting: `ids` becomes the `index` id of
    /// each row of `rows`, unseen keys taking the next ids in row order and
    /// strings outside the base dictionaries the next extension ids.
    /// `index` must come from this encoder ([`KeyEncoder::new_index`]).
    /// Fails — `index` untouched — on a key column of the wrong type.
    pub fn ids_or_insert(
        &self,
        rows: &RowSet,
        index: &mut KeyIndex,
        ids: &mut Vec<u32>,
    ) -> Result<()> {
        ids_or_insert_batches(&[(self, rows)], index, ids)
    }

    /// Encode batch → id vector, looking up: `ids` becomes the `index` id
    /// of each row of `rows`, [`KeyIndex::MISS`] where the key is absent —
    /// as every key is that holds a string the index never inserted or a
    /// column of the wrong type.
    pub fn ids(&self, rows: &RowSet, index: &KeyIndex, ids: &mut Vec<u32>) {
        ids.clear();
        let Ok(plans) = &self.plans else {
            return ids.resize(rows.len(), KeyIndex::MISS);
        };
        let mut words = vec![0; rows.len() * plans.len()];
        let extensions = Extensions::Read(&index.extensions);
        self.encode_words(plans, rows, &mut words, extensions);
        index.ids(&words, rows.len(), ids);
    }
}

/// [`RowEncoder::ids_or_insert`] over the rows of several batches as if
/// they were one batch, in order: every batch's words go into one buffer
/// and reach `index` in one [`KeyIndex::ids_or_insert`], so the index seats
/// once over every key — ids, words and extension tables are those of the
/// batches concatenated. Each encoder must come from the encoder `index`
/// does. Fails — `index` untouched — when any batch has a key column of
/// the wrong type.
pub(crate) fn ids_or_insert_batches(
    batches: &[(&RowEncoder<'_>, &RowSet)],
    index: &mut KeyIndex,
    ids: &mut Vec<u32>,
) -> Result<()> {
    ids.clear();
    let plans = (batches.iter())
        .map(|(encoder, _)| encoder.checked_plans())
        .collect::<Result<Vec<_>>>()?;
    let rows: usize = batches.iter().map(|(_, rows)| rows.len()).sum();
    let mut words = Vec::with_capacity(rows * index.arity);
    for ((encoder, rows), plans) in batches.iter().zip(plans) {
        let at = words.len();
        words.resize(at + rows.len() * plans.len(), 0);
        let extensions = Extensions::Grow(&mut index.extensions);
        encoder.encode_words(plans, rows, &mut words[at..], extensions);
    }
    index.ids_or_insert(&words, rows, ids);
    Ok(())
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
    use ci_storage::value::DataType;
    use proptest::prelude::*;

    fn dict_col(vals: &[&str]) -> ColumnData {
        ColumnData::strings(vals)
    }

    /// `col`'s strings over a dictionary that first interns decoys and the
    /// strings in reverse: other ids, and entries no row references.
    fn foreign(col: ColumnData) -> ColumnData {
        let Some((ids, dict)) = col.as_dict() else {
            return col;
        };
        let mut other = Dictionary::new();
        let vals = ids.iter().map(|&id| dict.get(id));
        for s in ["zz-decoy", "aa-decoy"]
            .into_iter()
            .chain(vals.clone().rev())
        {
            other.intern(s);
        }
        let ids = vals.map(|s| other.intern(s)).collect();
        ColumnData::Dict {
            ids,
            dict: Arc::new(other),
        }
    }

    fn foreign_col(vals: &[&str]) -> ColumnData {
        foreign(dict_col(vals))
    }

    /// Inserts every row of `cols` into `index`; returns the row ids.
    fn insert(enc: &KeyEncoder, index: &mut KeyIndex, cols: &[&ColumnData]) -> Vec<u32> {
        let rows = RowSet::Range(0..cols.first().map_or(0, |c| c.len()));
        let mut ids = Vec::new();
        let re = enc.prepare(cols).unwrap();
        re.ids_or_insert(&rows, index, &mut ids).unwrap();
        ids
    }

    /// Looks every row of `cols` up in `index`; returns the row ids.
    fn lookup(enc: &KeyEncoder, index: &KeyIndex, cols: &[&ColumnData]) -> Vec<u32> {
        let rows = RowSet::Range(0..cols.first().map_or(0, |c| c.len()));
        let mut ids = Vec::new();
        enc.prepare(cols).unwrap().ids(&rows, index, &mut ids);
        ids
    }

    /// The words of every row of `cols`, keyed (and inserted) on their own.
    fn encode_all(cols: &[&ColumnData]) -> Vec<Vec<u64>> {
        let enc = KeyEncoder::for_columns(cols);
        let mut index = enc.new_index(0);
        let ids = insert(&enc, &mut index, cols);
        ids.iter()
            .map(|&id| index.key(id as usize).to_vec())
            .collect()
    }

    fn key_values(enc: &KeyEncoder, index: &KeyIndex, id: usize) -> Vec<Value> {
        (0..enc.arity())
            .map(|c| enc.key_value_at(index, id, c))
            .collect()
    }

    #[test]
    fn key_equality_per_type() {
        let ints = ColumnData::Int64(vec![1, 1, 2]);
        let strs = dict_col(&["a", "a", "b"]);
        let keys = encode_all(&[&ints, &strs]);
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn float_keys_use_bit_pattern() {
        let f = ColumnData::Float64(vec![0.5, 0.5, -0.0, 0.0]);
        let keys = encode_all(&[&f]);
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
        assert_eq!(
            encode_all(&[&ints, &floats, &bools, &dicts]),
            vec![
                vec![7, 1.5f64.to_bits(), 1, 0],
                vec![-1i64 as u64, 2.5f64.to_bits(), 0, 1]
            ]
        );
        // A fifth column is a fifth word, not another form.
        assert_eq!(
            encode_all(&[&ints, &floats, &bools, &dicts, &ints]),
            vec![
                vec![7, 1.5f64.to_bits(), 1, 0, 7],
                vec![-1i64 as u64, 2.5f64.to_bits(), 0, 1, -1i64 as u64]
            ]
        );
    }

    /// An authoritative column over an empty dictionary (an empty first
    /// morsel) leaves every string to the extension table.
    #[test]
    fn raw_string_keys_are_extension_words() {
        let strs = foreign_col(&["a", "b", "a"]);
        let empty = ColumnData::empty(DataType::Utf8);
        // An empty base dictionary: the words are first-appearance ranks.
        let enc = KeyEncoder::for_columns(&[&empty]);
        let mut index = enc.new_index(0);
        assert_eq!(insert(&enc, &mut index, &[&strs]), [0, 1, 0]);
        let words: Vec<u64> = (0..2).map(|id| index.key(id)[0]).collect();
        assert_eq!(words, [0, 1]);
        // A probe over yet another dictionary matches by value.
        let probe = dict_col(&["b", "q", "a"]);
        assert_eq!(lookup(&enc, &index, &[&probe]), [1, KeyIndex::MISS, 0]);
        assert_eq!(key_values(&enc, &index, 1), [Value::from("b")]);
    }

    #[test]
    fn round_trip_to_values() {
        let ints = ColumnData::Int64(vec![7]);
        let strs = dict_col(&["x"]);
        let floats = ColumnData::Float64(vec![-0.0]);
        let bools = ColumnData::Bool(vec![true]);
        let raws = foreign_col(&["y"]);
        let cols: Vec<&ColumnData> = vec![&ints, &strs, &floats, &bools, &raws];
        let enc = KeyEncoder::for_columns(&cols);
        let mut index = enc.new_index(0);
        insert(&enc, &mut index, &cols);
        let decoded = key_values(&enc, &index, 0);
        assert_eq!(decoded[..2], [Value::Int(7), Value::from("x")]);
        // `-0.0 == 0.0`: the float is checked by its bits.
        assert!(matches!(decoded[2], Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(decoded[3..], [Value::Bool(true), Value::from("y")]);
    }

    #[test]
    fn foreign_dictionary_probe_translates_ids() {
        let build = dict_col(&["a", "b", "c"]);
        let cols: Vec<&ColumnData> = vec![&build];
        let enc = KeyEncoder::for_columns(&cols);
        let mut index = enc.new_index(0);
        assert_eq!(insert(&enc, &mut index, &cols), [0, 1, 2]);
        // Probe column interned in a different order, plus a miss.
        let probe = dict_col(&["c", "q", "a"]);
        assert_eq!(lookup(&enc, &index, &[&probe]), [2, KeyIndex::MISS, 0]);
        // Looking up inserted nothing: `q` still misses, over any
        // dictionary.
        assert_eq!(
            lookup(&enc, &index, &[&foreign_col(&["q", "b"])]),
            [KeyIndex::MISS, 1]
        );
    }

    #[test]
    fn poisoned_translation_cache_is_recovered_not_fatal() {
        let build = dict_col(&["a", "b", "c"]);
        let cols: Vec<&ColumnData> = vec![&build];
        let enc = KeyEncoder::for_columns(&cols);
        let mut index = enc.new_index(0);
        insert(&enc, &mut index, &cols);
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
            assert_eq!(lookup(&enc, &index, &[&probe]), [2, KeyIndex::MISS, 0]);
        }
    }

    /// Whether an unseen string spills into the extension table is decided
    /// by the method called: inserting gives distinct unseen strings
    /// distinct ids after the dictionary's, looking up finds only those.
    #[test]
    fn spill_policy_distinguishes_unseen_strings() {
        let first = dict_col(&["a", "b"]);
        let cols: Vec<&ColumnData> = vec![&first];
        let enc = KeyEncoder::for_columns(&cols);
        let mut index = enc.new_index(0);
        assert_eq!(insert(&enc, &mut index, &cols), [0, 1]);
        // A later morsel carries another dictionary, two strings unseen.
        let later = foreign_col(&["b", "q", "z", "q"]);
        assert_eq!(
            lookup(&enc, &index, &[&later]),
            [1, KeyIndex::MISS, KeyIndex::MISS, KeyIndex::MISS]
        );
        assert_eq!(insert(&enc, &mut index, &[&later]), [1, 2, 3, 2]);
        // The unseen strings' words continue the dictionary's ids, in
        // first-appearance order; a hit is the dictionary id in any batch.
        let words: Vec<u64> = (0..4).map(|id| index.key(id)[0]).collect();
        assert_eq!(words, [0, 1, 2, 3]);
        // A foreign dictionary finds both kinds once they are inserted.
        let foreign = dict_col(&["z", "a", "w", "q"]);
        assert_eq!(lookup(&enc, &index, &[&foreign]), [3, 0, KeyIndex::MISS, 2]);
    }

    #[test]
    fn dict_entry_exposes_ids_and_spills() {
        let strs = dict_col(&["a", "b"]);
        let ints = ColumnData::Int64(vec![1, 2]);
        let cols: Vec<&ColumnData> = vec![&strs, &ints];
        let enc = KeyEncoder::for_columns(&cols);
        let mut index = enc.new_index(0);
        insert(&enc, &mut index, &cols);
        assert_eq!(enc.dict_entry(&index, 0, 0), Some(DictKeyEntry::Id(0)));
        assert_eq!(
            enc.dict_entry(&index, 0, 1),
            None,
            "int column is not dict-mode"
        );
        assert_eq!(key_values(&enc, &index, 0), [Value::from("a"), 1.into()]);
        // A later morsel with an unseen string spills; the entry carries it.
        let later = foreign_col(&["q"]);
        let later_ints = ColumnData::Int64(vec![9]);
        assert_eq!(insert(&enc, &mut index, &[&later, &later_ints]), [2]);
        assert_eq!(
            enc.dict_entry(&index, 2, 0),
            Some(DictKeyEntry::Spilled("q"))
        );
        assert_eq!(key_values(&enc, &index, 2), [Value::from("q"), 9.into()]);
        // Every string key column is dict-mode: over its own dictionary the
        // later morsel's key is an id, not a spill.
        let own_enc = KeyEncoder::for_columns(&[&later]);
        let mut own_index = own_enc.new_index(0);
        insert(&own_enc, &mut own_index, &[&later]);
        let q = later.as_dict().unwrap().0[0];
        assert_eq!(
            own_enc.dict_entry(&own_index, 0, 0),
            Some(DictKeyEntry::Id(q))
        );
    }

    #[test]
    fn mismatched_column_misses_on_lookup_and_fails_insert() {
        let ints = ColumnData::Int64(vec![1, 2]);
        let enc = KeyEncoder::for_columns(&[&ints]);
        let mut index = enc.new_index(0);
        insert(&enc, &mut index, &[&ints]);
        // 1.0 is not 1: a float column equals no int key.
        let floats = ColumnData::Float64(vec![1.0, 2.0]);
        assert_eq!(lookup(&enc, &index, &[&floats]), [KeyIndex::MISS; 2]);
        let rows = RowSet::Range(0..2);
        let err = enc
            .prepare(&[&floats])
            .unwrap()
            .ids_or_insert(&rows, &mut index, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(&err, CiError::Exec(m) if m.contains("key column 0")));
        assert_eq!(index.len(), 2, "a failed insert leaves the index alone");
    }

    #[test]
    fn key_columns_bounds_checked() {
        let cols = vec![Arc::new(ColumnData::Int64(vec![1]))];
        assert!(key_columns(&cols, &[0]).is_ok());
        assert!(key_columns(&cols, &[1]).is_err());
    }

    /// One generated row: `(shape, a, b)`. Shape 0 keys a string, shape 1 a
    /// six-column composite ending in a string, shape 2 one int from a pool
    /// wide enough to drive the directory through several doublings.
    fn key_values_of(shape: usize, a: i64, b: usize) -> Vec<Value> {
        match shape {
            0 => vec![Value::Str(format!("s{b}"))],
            1 => vec![
                Value::Int(a % 3),
                Value::Str(format!("d{}", b % 3)),
                Value::Bool(a % 3 == 1),
                Value::Float((b % 3) as f64),
                Value::Int(-a % 2),
                Value::Str(format!("r{}", b % 2)),
            ],
            _ => vec![Value::Int(a)],
        }
    }

    /// `keys` as key columns, each batch's strings over a dictionary of
    /// its own: a fresh one when `dict` says so, else a [`foreign`] one.
    fn columns_of(keys: &[Vec<Value>], arity: usize, dict: bool) -> Vec<ColumnData> {
        (0..arity)
            .map(|c| {
                let mut col = ColumnData::with_capacity(keys[0][c].data_type(), keys.len());
                keys.iter().for_each(|k| col.push(k[c].clone()).unwrap());
                if dict {
                    col
                } else {
                    foreign(col)
                }
            })
            .collect()
    }

    proptest! {
        /// Encoder + index against `std`: ids are first-appearance ranks of
        /// the row *values*, lookups agree with the map for present and
        /// absent keys, and `key_value_at` returns the keys in insertion
        /// order — for string, six-column and int keys fed in batches that
        /// arrive under fresh or foreign dictionaries of their own.
        #[test]
        fn key_index_matches_std_oracle(
            shape in 0usize..3,
            stream in proptest::collection::vec((0i64..4096, 0usize..8), 1..700),
            lookups in proptest::collection::vec((0i64..4096, 0usize..12), 40),
            cuts in proptest::collection::vec((1usize..200, any::<bool>()), 1..6),
            capacity in 0usize..40,
        ) {
            let keys = |rows: &[(i64, usize)]| -> Vec<Vec<Value>> {
                rows.iter().map(|&(a, b)| key_values_of(shape, a, b)).collect()
            };
            let arity = key_values_of(shape, 0, 0).len();
            let first = columns_of(&keys(&stream[..1]), arity, cuts[0].1);
            let enc = KeyEncoder::for_columns(&first.iter().collect::<Vec<_>>());
            let mut index = enc.new_index(capacity);
            // `Value` holds floats and does not hash; its `Debug` text does.
            let mut oracle_ids: HashMap<String, u32> = HashMap::new();
            let mut oracle_order: Vec<Vec<Value>> = Vec::new();
            let text = |k: &Vec<Value>| format!("{k:?}");
            let mut rest = &stream[..];
            for &(len, dict) in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, tail) = rest.split_at(len.min(rest.len()));
                rest = tail;
                let batch = keys(piece);
                let cols = columns_of(&batch, arity, dict);
                let cols: Vec<&ColumnData> = cols.iter().collect();
                let expected: Vec<u32> = batch
                    .iter()
                    .map(|k| oracle_ids.get(&text(k)).copied().unwrap_or(KeyIndex::MISS))
                    .collect();
                prop_assert_eq!(lookup(&enc, &index, &cols), expected);
                let expected: Vec<u32> = batch
                    .iter()
                    .map(|k| {
                        let next = oracle_order.len() as u32;
                        *oracle_ids.entry(text(k)).or_insert_with(|| {
                            oracle_order.push(k.clone());
                            next
                        })
                    })
                    .collect();
                prop_assert_eq!(insert(&enc, &mut index, &cols), expected);
                prop_assert_eq!(index.len(), oracle_order.len());
            }
            for (id, key) in oracle_order.iter().enumerate() {
                prop_assert_eq!(&key_values(&enc, &index, id), key);
            }
            let batch = keys(&lookups);
            for dict in [false, true] {
                let cols = columns_of(&batch, arity, dict);
                let expected: Vec<u32> = batch
                    .iter()
                    .map(|k| oracle_ids.get(&text(k)).copied().unwrap_or(KeyIndex::MISS))
                    .collect();
                let cols: Vec<&ColumnData> = cols.iter().collect();
                prop_assert_eq!(lookup(&enc, &index, &cols), expected);
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
        let mut index = KeyIndex::new(2, 0);
        let mut ids = Vec::new();
        index.ids(&k2, 1, &mut ids);
        index.ids_or_insert(&k1, 1, &mut ids);
        index.ids(&k2, 1, &mut ids);
        index.ids_or_insert(&k2, 1, &mut ids);
        index.ids(&[k1, k2].concat(), 2, &mut ids);
        assert_eq!(ids, [KeyIndex::MISS, 0, KeyIndex::MISS, 1, 0, 1]);
    }

    /// An arity-1 index seated hashed before its first insert, whatever
    /// the keys: the reference the offset form must agree with.
    fn hashed_index() -> KeyIndex {
        let mut index = KeyIndex::new(1, 0);
        index.addressing = Addressing::Hashed;
        index
    }

    fn insert_keys(index: &mut KeyIndex, words: &[u64]) -> Vec<u32> {
        let mut ids = Vec::new();
        index.ids_or_insert(words, words.len(), &mut ids);
        ids
    }

    fn lookup_keys(index: &KeyIndex, words: &[u64]) -> Vec<u32> {
        let mut ids = Vec::new();
        index.ids(words, words.len(), &mut ids);
        ids
    }

    #[test]
    fn offset_addressing_edges() {
        // Three keys hash into 8 slots: a span of 8 is addressed, 9 is not.
        let mut index = KeyIndex::new(1, 3);
        assert_eq!(insert_keys(&mut index, &[12, 10, 17, 12]), [0, 1, 2, 0]);
        assert_eq!(index.addressing, Addressing::Offset(10));
        assert_eq!(index.directory.len(), 8);
        let mut wide = KeyIndex::new(1, 3);
        assert_eq!(insert_keys(&mut wide, &[12, 10, 18, 12]), [0, 1, 2, 0]);
        assert_eq!(wide.addressing, Addressing::Hashed);
        assert_eq!(wide.directory.len(), 8);
        // Past either end of the span, and the dict-miss word, miss.
        let probes = [u64::MAX, 9, 18, 10, 11, 17, 12];
        let miss = KeyIndex::MISS;
        assert_eq!(
            lookup_keys(&index, &probes),
            [miss, miss, miss, 1, miss, 2, 0]
        );
        // A span across zero, words read as `i64`.
        let mut signed = KeyIndex::new(1, 0);
        let words = [-3i64 as u64, 2, 0, -3i64 as u64];
        assert_eq!(insert_keys(&mut signed, &words), [0, 1, 2, 0]);
        assert_eq!(signed.addressing, Addressing::Offset(-3i64 as u64));
        assert_eq!(signed.directory.len(), 6);
        // The whole `i64` range overflows the span: hashed.
        let mut extremes = KeyIndex::new(1, 0);
        insert_keys(&mut extremes, &[i64::MIN as u64, i64::MAX as u64]);
        assert_eq!(extremes.addressing, Addressing::Hashed);
    }

    #[test]
    fn leaving_the_span_mid_batch_reseats_as_hashed_with_the_same_ids() {
        let first = [5u64, 3, 4, 3];
        let second = [4u64, 6, 2, 100, 5, 3, u64::MAX, 100, 7];
        let mut offset = KeyIndex::new(1, 0);
        let mut hashed = hashed_index();
        assert_eq!(
            insert_keys(&mut offset, &first),
            insert_keys(&mut hashed, &first)
        );
        assert_eq!(offset.addressing, Addressing::Offset(3));
        let ids = insert_keys(&mut offset, &second);
        assert_eq!(ids, insert_keys(&mut hashed, &second));
        assert_eq!(ids, [2, 3, 4, 5, 0, 1, 6, 5, 7]);
        assert_eq!(
            offset.addressing,
            Addressing::Hashed,
            "the reseat is for good"
        );
        let probes = [3, 4, 5, 6, 2, 100, u64::MAX, 7, 8, 1];
        assert_eq!(lookup_keys(&offset, &probes), lookup_keys(&hashed, &probes));
        assert_eq!(offset.len(), 8);
        let keys: Vec<u64> = (0..8).map(|id| offset.key(id)[0]).collect();
        assert_eq!(keys, [5, 3, 4, 6, 2, 100, u64::MAX, 7]);
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
        let enc = KeyEncoder::for_columns(&[]);
        let mut index = enc.new_index(0);
        let mut ids = Vec::new();
        index.ids(&[], 2, &mut ids);
        index.ids_or_insert(&[], 3, &mut ids);
        index.ids(&[], 1, &mut ids);
        assert_eq!(ids, [KeyIndex::MISS, KeyIndex::MISS, 0, 0, 0, 0]);
        assert_eq!(index.len(), 1);
        assert_eq!(key_values(&enc, &index, 0), Vec::<Value>::new());
    }
}

//! The page store: real on-disk CIPG partition files, the object tier of
//! the memory -> local-SSD -> object-store hierarchy.
//!
//! The rest of the workspace models the object store analytically; this
//! module makes the *bytes* real. [`PageStore`] persists every
//! micro-partition of a table as one self-describing `CIPF` file — a
//! checksummed container of per-column CIPG pages — plus a `CIPT` manifest
//! carrying the table-wide dictionaries. A scan under
//! [`PageSourceMode::Disk`] reads the files ([`PageStore::read_partition`]);
//! one under [`PageSourceMode::Tiered`] reads them too, except where the
//! query's cache simulator (`TierCacheSim` in `ci-cloud`) holds the
//! partition in memory. The simulator is the one record of cache
//! residency: the store keeps no cached copies, so nothing here can serve
//! a partition the simulator does not hold, or hold one it dropped. Both
//! sources must produce rows and Dollars bit-identical to resident batches.
//! Re-registering a table ([`PageStore::ensure_table`] with a new
//! `Arc<Table>`) rewrites its files in place.
//!
//! # `CIPF` partition file layout
//!
//! ```text
//! [0..4)   magic  "CIPF"
//! [4]      format version (2)
//! [5]      flags (0)
//! [6..8)   column count, u16 LE
//! [8..12)  row count, u32 LE
//! [12..20) payload length, u64 LE
//! [20..28) XXH64 (seed 0) checksum of the payload, u64 LE
//! [28..]   payload: per column `kind u8 | blob_len u32 LE | blob`
//! ```
//!
//! Column kinds: `0` = a self-contained CIPG page ([`crate::pages`]) —
//! for a fixed-width column the very page its partition accounted
//! ([`MicroPartition::pages`]), so a file stores what the partition bills
//! and persisting races no codec; `1` = bit-packed ids referencing the
//! table-wide string dictionary from the manifest. Dict-ref columns exist
//! so a decoded partition attaches the *same* `Arc`'d dictionary the
//! in-memory table shares — wire-level dictionary deduplication
//! (ship-once) and therefore Dollars stay identical to the in-memory path.
//! A kind-1 blob is a Dict page's ids section and each manifest entry its
//! dictionary section, written and read by the page module's functions.
//! Kind `2` (a reference to a table-wide int dictionary) and manifest
//! dictionary kind `2` are retired: an int column is always `Int64`, and
//! the reader rejects both like any unknown kind.
//!
//! Every malformed input — truncation, flipped bytes, forged lengths —
//! surfaces as [`CiError::Storage`] naming the file, never a panic, and
//! length fields are validated against the actual file size *before* any
//! proportional allocation. Headers, manifests and payloads are all read
//! through the pages' bounds-checked cursor.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ci_types::{CiError, Result, TableId};

use crate::batch::RecordBatch;
use crate::column::ColumnData;
use crate::dict::Dictionary;
use crate::pages::{
    self, encode_column, le_u64, read_dictionary_section, read_packed_ids,
    write_dictionary_section, write_ids_section, Cursor, PageCodec, MAX_DECODE_ROWS,
};
use crate::partition::MicroPartition;
use crate::schema::SchemaRef;
use crate::table::Table;

/// Magic prefix of a partition file.
pub const PART_MAGIC: [u8; 4] = *b"CIPF";
/// Magic prefix of a table manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"CIPT";
/// Container format version. Version 1 files carried an FNV-1a checksum;
/// they fail as an unsupported version, not as a checksum mismatch.
pub const TIER_FILE_VERSION: u8 = 2;
/// Fixed container header size (both file kinds).
pub const TIER_HEADER_BYTES: usize = 28;

/// Column payload kinds inside a `CIPF` file.
const KIND_PAGE: u8 = 0;
const KIND_DICT_REF: u8 = 1;

fn serr(msg: String) -> CiError {
    CiError::Storage(msg)
}

/// XXH64 with seed 0, from the public xxHash specification: the checksum of
/// every `CIPF` / `CIPT` payload. Whole 32-byte stripes feed four
/// independent lanes, so the multiplies of neighbouring words overlap
/// instead of each byte waiting on the last one's (as in FNV-1a); the
/// 8-, 4- and 1-byte tail and the final avalanche follow the spec.
pub fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    let stripes = bytes.chunks_exact(32);
    let rest = stripes.remainder();
    let mut h = if bytes.len() < 32 {
        P5
    } else {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (v, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *v = round(*v, le_u64(lane));
            }
        }
        let h = (v[0].rotate_left(1))
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &v| {
            (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
        })
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = rest.chunks_exact(8);
    let mut rest = words.remainder();
    for w in words {
        h = (h ^ round(0, le_u64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if let Some((w, tail)) = rest.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*w)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = tail;
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------------
// Page source selection
// ---------------------------------------------------------------------------

/// Where scans physically read partition bytes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageSourceMode {
    /// Resident in-memory batches (the seed behavior).
    #[default]
    Mem,
    /// Every fetch reads and decodes the partition's `CIPF` file.
    Disk,
    /// Partitions the query's cache simulator holds in memory are served
    /// from their resident rows; every other read decodes the `CIPF` file,
    /// which also stands for the SSD tier the simulator prices.
    Tiered,
}

/// One table registered in a [`PageStore`]: its schema, partition
/// count, and pinned dictionaries.
#[derive(Debug)]
pub struct StoredTable {
    /// Table schema (decoded partitions carry it).
    pub schema: SchemaRef,
    /// Number of partition files.
    pub parts: usize,
    /// Per-column table-wide string dictionary, pinned so every decoded
    /// partition shares one `Arc` (identity matters for wire ship-once
    /// accounting).
    dicts: Vec<Option<Arc<Dictionary>>>,
    /// Identity of the source `Arc<Table>` used for idempotent re-writes
    /// (0 when attached from disk without a source table).
    ident: usize,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_header(out: &mut Vec<u8>, magic: [u8; 4], cols: u16, rows: u32, payload: &[u8]) {
    out.extend_from_slice(&magic);
    out.push(TIER_FILE_VERSION);
    out.push(0); // flags
    out.extend_from_slice(&cols.to_le_bytes());
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&xxh64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serializes one partition against the table-wide dicts.
fn encode_partition(part: &MicroPartition, dicts: &[Option<Arc<Dictionary>>]) -> Result<Vec<u8>> {
    let batch = &part.batch;
    let rows = batch.rows();
    if rows > MAX_DECODE_ROWS {
        return Err(serr(format!(
            "partition of {rows} rows exceeds the page bound of {MAX_DECODE_ROWS}"
        )));
    }
    let mut payload = Vec::new();
    for (i, col) in batch.columns().iter().enumerate() {
        let (kind, blob) = match (col.as_ref(), &dicts[i]) {
            (ColumnData::Dict { ids, dict }, Some(td)) if Arc::ptr_eq(dict, td) => {
                let mut b = Vec::new();
                write_ids_section(&mut b, ids.iter().copied(), td.len());
                (KIND_DICT_REF, b)
            }
            // A kind-0 inline page holds a fixed-width column under the
            // codec its partition's page accounting picked
            // ([`MicroPartition::pages`]), so a file holds the page its
            // partition bills and persisting races no codec again. A string
            // column without the table-wide dictionary (unreachable through
            // the catalog, which always gives one) is stored Plain.
            (ColumnData::Dict { .. }, _) => (KIND_PAGE, encode_column(col, PageCodec::Plain)?.1),
            _ => (KIND_PAGE, encode_column(col, part.pages[i].codec)?.1),
        };
        payload.push(kind);
        payload.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        payload.extend_from_slice(&blob);
    }
    let mut out = Vec::with_capacity(TIER_HEADER_BYTES + payload.len());
    push_header(
        &mut out,
        PART_MAGIC,
        batch.columns().len() as u16,
        rows as u32,
        &payload,
    );
    Ok(out)
}

/// Serializes the table manifest: per-column table-wide dictionaries.
fn encode_manifest(dicts: &[Option<Arc<Dictionary>>], parts: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    for d in dicts {
        match d {
            None => payload.push(0),
            Some(dict) => {
                payload.push(1);
                write_dictionary_section(&mut payload, dict);
            }
        }
    }
    let mut out = Vec::with_capacity(TIER_HEADER_BYTES + payload.len());
    push_header(
        &mut out,
        MANIFEST_MAGIC,
        dicts.len() as u16,
        parts as u32,
        &payload,
    );
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Names the file a decode error came from.
fn in_file(path: &Path) -> impl FnOnce(CiError) -> CiError + '_ {
    move |e| serr(format!("{}: {e}", path.display()))
}

/// Validates a container header against the actual byte length and returns
/// `(cols, rows, payload)`. Checksums the payload.
fn open_container(bytes: &[u8], magic: [u8; 4]) -> Result<(u16, u32, &[u8])> {
    let mut c = Cursor::new(bytes);
    let found = c.take(4)?;
    if found != magic {
        return Err(serr(format!("bad magic {found:02x?} (want {magic:02x?})")));
    }
    let version = c.u8()?;
    if version != TIER_FILE_VERSION {
        return Err(serr(format!(
            "unsupported version {version} (want {TIER_FILE_VERSION})"
        )));
    }
    let flags = c.u8()?;
    if flags != 0 {
        return Err(serr(format!("unknown flags {flags:#x}")));
    }
    let (cols, rows) = (c.u16()?, c.u32()?);
    let (payload_len, checksum) = (c.u64()?, c.u64()?);
    // Forged lengths fail here, against the real file size, before any
    // payload-proportional allocation.
    if payload_len != c.remaining() {
        return Err(serr(format!(
            "payload length {payload_len} disagrees with file size {}",
            bytes.len()
        )));
    }
    let payload = c.take(payload_len as usize)?;
    let actual = xxh64(payload);
    if actual != checksum {
        return Err(serr(format!(
            "checksum mismatch (stored {checksum:#018x}, computed {actual:#018x})"
        )));
    }
    Ok((cols, rows, payload))
}

/// Decodes one `CIPF` partition file against a table's schema + dicts.
fn decode_partition(bytes: &[u8], stored: &StoredTable) -> Result<RecordBatch> {
    let (cols, rows, payload) = open_container(bytes, PART_MAGIC)?;
    if cols as usize != stored.schema.arity() {
        return Err(serr(format!(
            "{cols} columns, schema has {}",
            stored.schema.arity()
        )));
    }
    let rows = rows as usize;
    if rows > MAX_DECODE_ROWS {
        return Err(serr(format!(
            "{rows} rows exceeds the decoder bound of {MAX_DECODE_ROWS}"
        )));
    }
    let mut c = Cursor::new(payload);
    let mut out: Vec<ColumnData> = Vec::with_capacity(cols as usize);
    for i in 0..cols as usize {
        let kind = c.u8()?;
        let blob_len = c.u32()? as usize;
        let blob = c.take(blob_len)?;
        let col = match (kind, &stored.dicts[i]) {
            (KIND_PAGE, _) => {
                let col = pages::decode_column(blob)?;
                if col.len() != rows {
                    return Err(serr(format!(
                        "column {i} decoded {} rows, file declares {rows}",
                        col.len()
                    )));
                }
                col
            }
            (KIND_DICT_REF, Some(d)) => {
                let mut ids = Cursor::new(blob);
                let col = ColumnData::Dict {
                    ids: read_packed_ids(&mut ids, rows, d.len())?,
                    dict: d.clone(),
                };
                ids.done()?;
                col
            }
            (KIND_DICT_REF, None) => {
                return Err(serr(format!(
                    "column {i} references a string dictionary the manifest lacks"
                )))
            }
            (other, _) => return Err(serr(format!("unknown column kind {other}"))),
        };
        if col.data_type() != stored.schema.field(i).data_type {
            return Err(serr(format!(
                "column {i} decoded as {:?}, schema wants {:?}",
                col.data_type(),
                stored.schema.field(i).data_type
            )));
        }
        out.push(col);
    }
    if c.remaining() != 0 {
        return Err(serr(format!(
            "{} trailing payload bytes after the last column",
            c.remaining()
        )));
    }
    RecordBatch::new(stored.schema.clone(), out)
        .map_err(|e| serr(format!("malformed decoded batch: {e}")))
}

/// Parses a `CIPT` manifest into `(parts, dicts)`.
fn decode_manifest(bytes: &[u8], arity: usize) -> Result<(usize, Vec<Option<Arc<Dictionary>>>)> {
    let (cols, parts, payload) = open_container(bytes, MANIFEST_MAGIC)?;
    if cols as usize != arity {
        return Err(serr(format!(
            "manifest covers {cols} columns, schema has {arity}"
        )));
    }
    let mut c = Cursor::new(payload);
    let mut dicts = Vec::with_capacity(arity);
    for _ in 0..arity {
        match c.u8()? {
            0 => dicts.push(None),
            1 => dicts.push(Some(Arc::new(read_dictionary_section(&mut c)?))),
            other => return Err(serr(format!("unknown dictionary kind {other}"))),
        }
    }
    if c.remaining() != 0 {
        return Err(serr("trailing bytes after the last dictionary".into()));
    }
    Ok((parts as usize, dicts))
}

// ---------------------------------------------------------------------------
// PageStore
// ---------------------------------------------------------------------------

/// Locks the store's table registry, recovering a poisoned guard instead
/// of panicking. Sound because every mutation under the guard is a
/// `HashMap` insert of an already-built value — a holder that panics (say,
/// while encoding a partition with the registry locked) leaves the map
/// consistent, and refusing the guard would turn one contained panic into
/// a failure of every later disk or tiered read.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(prefix: &str) -> Result<PathBuf> {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| serr(format!("creating {}: {e}", dir.display())))?;
    Ok(dir)
}

/// The simulated object store made physical.
///
/// The object tier is a directory of per-table subdirectories, each holding
/// `part-N.cipf` partition files plus a `table.cipt` manifest. Registration
/// writes them. The cache tiers above it are the cache simulator's alone:
/// the store holds no copies for them.
#[derive(Debug)]
pub struct PageStore {
    root: PathBuf,
    owns_root: bool,
    tables: Mutex<HashMap<TableId, Arc<StoredTable>>>,
}

impl PageStore {
    fn open(root: PathBuf, owns_root: bool) -> PageStore {
        PageStore {
            root,
            owns_root,
            tables: Mutex::new(HashMap::new()),
        }
    }

    /// Opens (creating if needed) a store whose object tier is `path`.
    pub fn at(path: impl Into<PathBuf>) -> Result<PageStore> {
        let root = path.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| serr(format!("creating {}: {e}", root.display())))?;
        Ok(PageStore::open(root, false))
    }

    /// A store under a fresh process-unique temp directory, removed on drop.
    pub fn temp() -> Result<PageStore> {
        Ok(PageStore::open(temp_dir("ci-objstore")?, true))
    }

    /// Root directory of the object tier.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn table_dir(&self, id: TableId) -> PathBuf {
        self.root.join(format!("t{}", id.index()))
    }

    /// Path of one partition file (exists only after `ensure_table`).
    pub fn partition_path(&self, id: TableId, part: usize) -> PathBuf {
        self.table_dir(id).join(format!("part-{part}.cipf"))
    }

    /// Writes (or re-writes, if the table object changed identity) every
    /// partition of `table` as a `CIPF` file plus the manifest. Idempotent
    /// per `Arc` identity: repeated calls with the same `Arc<Table>` only
    /// pay a pointer compare.
    pub fn ensure_table(&self, table: &Arc<Table>) -> Result<Arc<StoredTable>> {
        let ident = Arc::as_ptr(table) as usize;
        let mut tables = locked(&self.tables);
        if let Some(st) = tables.get(&table.id).filter(|st| st.ident == ident) {
            return Ok(st.clone());
        }
        let dicts: Vec<_> = (0..table.schema.arity())
            .map(|i| table.column_dictionary(i).cloned())
            .collect();
        let dir = self.table_dir(table.id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| serr(format!("creating {}: {e}", dir.display())))?;
        for (pi, part) in table.partitions.iter().enumerate() {
            let bytes = encode_partition(part, &dicts)?;
            let path = dir.join(format!("part-{pi}.cipf"));
            std::fs::write(&path, &bytes)
                .map_err(|e| serr(format!("writing {}: {e}", path.display())))?;
        }
        let manifest = encode_manifest(&dicts, table.partitions.len());
        let mpath = dir.join("table.cipt");
        std::fs::write(&mpath, &manifest)
            .map_err(|e| serr(format!("writing {}: {e}", mpath.display())))?;
        let st = Arc::new(StoredTable {
            schema: table.schema.clone(),
            parts: table.partitions.len(),
            dicts,
            ident,
        });
        tables.insert(table.id, st.clone());
        Ok(st)
    }

    /// Cold-opens a table already on disk from its manifest alone — the
    /// self-description path: no source `Table` needed.
    pub fn attach(&self, id: TableId, schema: SchemaRef) -> Result<Arc<StoredTable>> {
        let mpath = self.table_dir(id).join("table.cipt");
        let bytes =
            std::fs::read(&mpath).map_err(|e| serr(format!("reading {}: {e}", mpath.display())))?;
        let (parts, dicts) = decode_manifest(&bytes, schema.arity()).map_err(in_file(&mpath))?;
        let st = Arc::new(StoredTable {
            schema,
            parts,
            dicts,
            ident: 0,
        });
        locked(&self.tables).insert(id, st.clone());
        Ok(st)
    }

    /// The registered metadata for `id`.
    fn stored(&self, id: TableId) -> Result<Arc<StoredTable>> {
        let stored = locked(&self.tables).get(&id).cloned();
        stored.ok_or_else(|| serr(format!("table {id} is not registered in the page store")))
    }

    /// Reads and decodes one partition file of the object tier, verifying
    /// its checksum.
    pub fn read_partition(&self, id: TableId, part: usize) -> Result<RecordBatch> {
        let stored = self.stored(id)?;
        let path = self.partition_path(id, part);
        let bytes =
            std::fs::read(&path).map_err(|e| serr(format!("reading {}: {e}", path.display())))?;
        decode_partition(&bytes, &stored).map_err(in_file(&path))
    }
}

impl Drop for PageStore {
    fn drop(&mut self) {
        if self.owns_root {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use crate::value::DataType;

    fn sample_table(id: u32) -> Arc<Table> {
        let schema: SchemaRef = Arc::new(Schema::of(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
            Field::new("tag", DataType::Utf8),
            Field::new("code", DataType::Int64),
            Field::new("ok", DataType::Bool),
        ]));
        let n = 100i64;
        let batch = RecordBatch::new(
            schema.clone(),
            vec![
                ColumnData::Int64((0..n).collect()),
                ColumnData::Float64((0..n).map(|i| i as f64 * 0.5).collect()),
                ColumnData::strings((0..n).map(|i| format!("tag{}", i % 3))),
                ColumnData::Int64((0..n).map(|i| i % 4).collect()),
                ColumnData::Bool((0..n).map(|i| i % 2 == 0).collect()),
            ],
        )
        .unwrap();
        let mut b = TableBuilder::new(TableId::new(id), "sample", schema, 16).unwrap();
        b.append(batch).unwrap();
        Arc::new(b.finish().unwrap().dict_encoded())
    }

    /// The published XXH64 (seed 0) vectors: empty input, tail-only inputs
    /// and one that runs the 8- and 1-byte tails after a full stripe.
    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// Every byte of every length up to three stripes plus each tail kind
    /// takes part: flipping any one changes the hash, so a dropped stripe
    /// lane or 8-, 4- or 1-byte tail fails here.
    #[test]
    fn xxh64_reads_every_byte() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..100)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect();
        for len in 0..=buf.len() {
            let mut bytes = buf[..len].to_vec();
            let want = xxh64(&bytes);
            for at in 0..len {
                bytes[at] ^= 0x01;
                assert_ne!(xxh64(&bytes), want, "len {len}, byte {at}");
                bytes[at] ^= 0x01;
            }
        }
    }

    /// A written partition file carries the current version at byte 4 and
    /// the XXH64 of its payload at bytes `[20..28)`.
    #[test]
    fn header_carries_version_and_payload_checksum() {
        let table = sample_table(9);
        let store = PageStore::temp().unwrap();
        store.ensure_table(&table).unwrap();
        let bytes = std::fs::read(store.partition_path(table.id, 0)).unwrap();
        assert_eq!(&bytes[..5], b"CIPF\x02");
        assert_eq!(TIER_FILE_VERSION, 2);
        let sum = xxh64(&bytes[TIER_HEADER_BYTES..]).to_le_bytes();
        assert_eq!(&bytes[20..28], &sum);
        // A version-1 file is refused by its version, not its checksum.
        let mut old = bytes.clone();
        old[4] = 1;
        let e = open_container(&old, PART_MAGIC).unwrap_err().to_string();
        assert!(e.contains("unsupported version 1"), "{e}");
    }

    #[test]
    fn round_trip_is_exact_and_pins_dictionaries() {
        let table = sample_table(1);
        let store = PageStore::temp().unwrap();
        store.ensure_table(&table).unwrap();
        for (pi, part) in table.partitions.iter().enumerate() {
            let got = store.read_partition(table.id, pi).unwrap();
            assert_eq!(got, part.batch, "partition {pi}");
            // Dict columns must attach the very same Arc the table shares.
            let (_, orig_dict) = part.batch.column(2).as_dict().unwrap();
            let (_, got_dict) = got.column(2).as_dict().unwrap();
            assert!(Arc::ptr_eq(orig_dict, got_dict));
        }
    }

    #[test]
    fn ensure_is_idempotent_by_identity() {
        let table = sample_table(2);
        let store = PageStore::temp().unwrap();
        let a = store.ensure_table(&table).unwrap();
        let b = store.ensure_table(&table).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cold_open_from_manifest_reproduces_values() {
        let table = sample_table(3);
        let store = PageStore::temp().unwrap();
        store.ensure_table(&table).unwrap();
        // A second store over the same directory, knowing only the schema.
        let cold = PageStore::at(store.root()).unwrap();
        cold.attach(table.id, table.schema.clone()).unwrap();
        let got = cold.read_partition(table.id, 0).unwrap();
        assert_eq!(got, table.partitions[0].batch);
    }

    #[test]
    fn corrupted_bytes_fail_typed() {
        let table = sample_table(4);
        let store = PageStore::temp().unwrap();
        store.ensure_table(&table).unwrap();
        let path = store.partition_path(table.id, 0);
        let good = std::fs::read(&path).unwrap();
        // Flip one payload byte: the checksum must catch it.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        match store.read_partition(table.id, 0) {
            Err(CiError::Storage(_)) => {}
            other => panic!("want Storage error, got {other:?}"),
        }
        std::fs::write(&path, &good).unwrap();
        assert!(store.read_partition(table.id, 0).is_ok());
    }

    /// A thread that panics holding the table registry's lock poisons it;
    /// the map under it is still consistent (see [`locked`]), so the next
    /// read recovers the guard and serves the same bytes, and
    /// re-registration keeps working.
    #[test]
    fn poisoned_residency_locks_still_serve_reads() {
        let table = sample_table(6);
        let store = Arc::new(PageStore::temp().unwrap());
        store.ensure_table(&table).unwrap();

        let s = store.clone();
        let poisoner = std::thread::spawn(move || {
            let _tables = s.tables.lock().unwrap();
            panic!("poison the table registry");
        });
        assert!(poisoner.join().is_err());
        assert!(store.tables.is_poisoned());

        assert_eq!(
            store.read_partition(table.id, 1).unwrap(),
            table.partitions[1].batch
        );
        let other = sample_table(7);
        store.ensure_table(&other).unwrap();
        assert_eq!(
            store.read_partition(other.id, 0).unwrap(),
            other.partitions[0].batch
        );
    }
}

//! Tiered page sources: real on-disk CIPG partition files behind a
//! memory -> local-SSD -> object-store hierarchy.
//!
//! The rest of the workspace models the object store analytically; this
//! module makes the *bytes* real. [`ObjectStoreDir`] persists every
//! micro-partition of a table as one self-describing `CIPF` file — a
//! checksummed container of per-column CIPG pages — plus a `CIPT` manifest
//! carrying the table-wide dictionaries. A scan under
//! [`PageSourceMode::Disk`] or [`PageSourceMode::Tiered`] then reads
//! partitions back from those files ([`ObjectStoreDir::read_partition`],
//! [`TierStore::read_partition`]) instead of cloning resident batches, and
//! must produce bit-identical rows and Dollars.
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
    /// Reads go through the memory -> SSD -> object tier stack.
    Tiered,
}

/// One table registered in an [`ObjectStoreDir`]: its schema, partition
/// count, on-disk location, and pinned dictionaries.
#[derive(Debug)]
pub struct StoredTable {
    /// Directory holding `part-N.cipf` files and `table.cipt`.
    pub dir: PathBuf,
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

/// Encodes one column as a kind-0 inline page. A fixed-width column is
/// stored under `codec`, the codec its partition's page accounting picked
/// ([`MicroPartition::pages`]), so a file holds the page its partition
/// bills and persisting races no codec again. Owned string columns stay
/// Plain, so they never decode into a fresh per-partition dictionary.
fn inline_page_bytes(col: &ColumnData, codec: PageCodec) -> Result<Vec<u8>> {
    match col {
        ColumnData::Int64(_) | ColumnData::Float64(_) | ColumnData::Bool(_) => {
            Ok(encode_column(col, codec)?.1)
        }
        ColumnData::Utf8(_) => Ok(encode_column(col, PageCodec::Plain)?.1),
        // Dictionary columns without a table-wide dictionary: store the
        // materialized values. (Unreachable through the catalog, which
        // always produces table-wide dictionaries; representation may then
        // legitimately differ from the resident batch.)
        ColumnData::Dict { ids, dict } => {
            let vals: Vec<String> = ids.iter().map(|&id| dict.get(id).to_string()).collect();
            Ok(encode_column(&ColumnData::Utf8(vals), PageCodec::Plain)?.1)
        }
    }
}

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
            _ => (KIND_PAGE, inline_page_bytes(col, part.pages[i].codec)?),
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
// ObjectStoreDir
// ---------------------------------------------------------------------------

/// Locks one of this module's residency maps ([`ObjectStoreDir`]'s table
/// registry, [`TierStore`]'s memory tier), recovering a poisoned guard
/// instead of panicking. Sound because every mutation under these guards
/// is a single `HashMap` insert or remove of an already-built value — a
/// holder that panics (say, while encoding a partition with the registry
/// locked) leaves the map as it found it, and refusing the guard would
/// turn one contained panic into a failure of every later disk or tiered
/// read.
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

/// The simulated object store made physical: a directory of per-table
/// subdirectories, each holding `part-N.cipf` partition files plus a
/// `table.cipt` manifest. Registration writes the files; reads go through
/// [`ObjectStoreDir::read_partition`], which verifies checksums and decodes
/// pages — no resident decoded tables on this path.
#[derive(Debug)]
pub struct ObjectStoreDir {
    root: PathBuf,
    owns_root: bool,
    tables: Mutex<HashMap<TableId, Arc<StoredTable>>>,
}

impl ObjectStoreDir {
    /// Opens (creating if needed) a store rooted at `path`.
    pub fn at(path: impl Into<PathBuf>) -> Result<ObjectStoreDir> {
        let root = path.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| serr(format!("creating {}: {e}", root.display())))?;
        Ok(ObjectStoreDir {
            root,
            owns_root: false,
            tables: Mutex::new(HashMap::new()),
        })
    }

    /// A store under a fresh process-unique temp directory, removed on drop.
    pub fn temp() -> Result<ObjectStoreDir> {
        let root = temp_dir("ci-objstore")?;
        Ok(ObjectStoreDir {
            root,
            owns_root: true,
            tables: Mutex::new(HashMap::new()),
        })
    }

    /// Root directory of the store.
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

    /// The registered metadata for `id`, if any.
    pub fn stored(&self, id: TableId) -> Option<Arc<StoredTable>> {
        locked(&self.tables).get(&id).cloned()
    }

    /// Writes (or re-writes, if the table object changed identity) every
    /// partition of `table` as a `CIPF` file plus the manifest. Idempotent
    /// per `Arc` identity: repeated calls with the same `Arc<Table>` only
    /// pay a pointer compare.
    pub fn ensure_table(&self, table: &Arc<Table>) -> Result<Arc<StoredTable>> {
        let ident = Arc::as_ptr(table) as usize;
        let mut tables = locked(&self.tables);
        if let Some(st) = tables.get(&table.id) {
            if st.ident == ident {
                return Ok(st.clone());
            }
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
            dir,
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
        let dir = self.table_dir(id);
        let mpath = dir.join("table.cipt");
        let bytes =
            std::fs::read(&mpath).map_err(|e| serr(format!("reading {}: {e}", mpath.display())))?;
        let (parts, dicts) = decode_manifest(&bytes, schema.arity()).map_err(in_file(&mpath))?;
        let st = Arc::new(StoredTable {
            dir,
            schema,
            parts,
            dicts,
            ident: 0,
        });
        locked(&self.tables).insert(id, st.clone());
        Ok(st)
    }

    /// Reads and decodes one partition file, verifying its checksum.
    pub fn read_partition(&self, id: TableId, part: usize) -> Result<RecordBatch> {
        let stored = self
            .stored(id)
            .ok_or_else(|| serr(format!("table {id} is not registered in the page store")))?;
        let path = self.partition_path(id, part);
        let bytes =
            std::fs::read(&path).map_err(|e| serr(format!("reading {}: {e}", path.display())))?;
        decode_partition(&bytes, &stored).map_err(in_file(&path))
    }
}

impl Drop for ObjectStoreDir {
    fn drop(&mut self) {
        if self.owns_root {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

// ---------------------------------------------------------------------------
// TierStore: physical residency
// ---------------------------------------------------------------------------

/// Which physical layer served a [`TierStore`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// In-memory decoded-batch cache.
    Mem,
    /// Local-SSD copy of the encoded file.
    Ssd,
    /// The backing object store directory.
    Object,
}

/// Physical tier residency: a memory cache of decoded batches and a
/// local-SSD directory of encoded file copies in front of an
/// [`ObjectStoreDir`]. Placement is *driven from outside* (by the
/// deterministic cache simulator in `ci-cloud`); this type only moves
/// bytes, so reads are correct no matter which tier serves them.
#[derive(Debug)]
pub struct TierStore {
    store: Arc<ObjectStoreDir>,
    ssd_root: PathBuf,
    owns_ssd: bool,
    mem: Mutex<HashMap<(TableId, u32), RecordBatch>>,
}

impl TierStore {
    /// A tier stack over `store` with a fresh temp SSD directory.
    pub fn new(store: Arc<ObjectStoreDir>) -> Result<TierStore> {
        let ssd_root = temp_dir("ci-ssdcache")?;
        Ok(TierStore {
            store,
            ssd_root,
            owns_ssd: true,
            mem: Mutex::new(HashMap::new()),
        })
    }

    /// The backing object store.
    pub fn object_store(&self) -> &Arc<ObjectStoreDir> {
        &self.store
    }

    fn ssd_path(&self, id: TableId, part: u32) -> PathBuf {
        self.ssd_root.join(format!("t{}-p{part}.cipf", id.index()))
    }

    /// Decodes the partition once and keeps the batch in the memory tier.
    pub fn promote_mem(&self, id: TableId, part: u32) -> Result<()> {
        let batch = self.store.read_partition(id, part as usize)?;
        locked(&self.mem).insert((id, part), batch);
        Ok(())
    }

    /// Copies the encoded partition file into the SSD cache directory,
    /// under a unique temporary name renamed into place: readers and
    /// evictions run concurrently with promotions (pool workers fetch while
    /// the ledger places), and a reader must see the whole file or none of
    /// it, never a prefix.
    pub fn promote_ssd(&self, id: TableId, part: u32) -> Result<()> {
        let src = self.store.partition_path(id, part as usize);
        let dst = self.ssd_path(id, part);
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dst.with_extension(format!("tmp{seq}"));
        std::fs::copy(&src, &tmp)
            .and_then(|_| std::fs::rename(&tmp, &dst))
            .map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                serr(format!("copying {} to ssd cache: {e}", src.display()))
            })
    }

    /// Drops a partition from the memory tier (no-op if absent).
    pub fn evict_mem(&self, id: TableId, part: u32) {
        locked(&self.mem).remove(&(id, part));
    }

    /// Drops a partition's SSD copy (no-op if absent).
    pub fn evict_ssd(&self, id: TableId, part: u32) {
        let _ = std::fs::remove_file(self.ssd_path(id, part));
    }

    /// Reads one partition from the highest-resident tier. All tiers hold
    /// byte-identical content, so the serving layer never affects values —
    /// only where the bytes physically came from.
    pub fn read_partition(&self, id: TableId, part: usize) -> Result<(RecordBatch, ServedFrom)> {
        let key = (id, part as u32);
        if let Some(b) = locked(&self.mem).get(&key) {
            return Ok((b.clone(), ServedFrom::Mem));
        }
        let ssd = self.ssd_path(id, key.1);
        match std::fs::read(&ssd) {
            Ok(bytes) => {
                let stored = self.store.stored(id).ok_or_else(|| {
                    serr(format!("table {id} is not registered in the page store"))
                })?;
                let batch = decode_partition(&bytes, &stored).map_err(in_file(&ssd))?;
                return Ok((batch, ServedFrom::Ssd));
            }
            // Not resident, or evicted since the caller last looked: the
            // object store serves it.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(serr(format!("reading {}: {e}", ssd.display()))),
        }
        Ok((self.store.read_partition(id, part)?, ServedFrom::Object))
    }

    /// Number of partitions resident in the memory tier.
    pub fn mem_entries(&self) -> usize {
        locked(&self.mem).len()
    }
}

impl Drop for TierStore {
    fn drop(&mut self) {
        if self.owns_ssd {
            let _ = std::fs::remove_dir_all(&self.ssd_root);
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
                ColumnData::Utf8((0..n).map(|i| format!("tag{}", i % 3)).collect()),
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
        let store = ObjectStoreDir::temp().unwrap();
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
        let store = ObjectStoreDir::temp().unwrap();
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
        let store = ObjectStoreDir::temp().unwrap();
        let a = store.ensure_table(&table).unwrap();
        let b = store.ensure_table(&table).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cold_open_from_manifest_reproduces_values() {
        let table = sample_table(3);
        let store = ObjectStoreDir::temp().unwrap();
        store.ensure_table(&table).unwrap();
        // A second store over the same directory, knowing only the schema.
        let cold = ObjectStoreDir::at(store.root()).unwrap();
        cold.attach(table.id, table.schema.clone()).unwrap();
        let got = cold.read_partition(table.id, 0).unwrap();
        assert_eq!(got, table.partitions[0].batch);
    }

    #[test]
    fn corrupted_bytes_fail_typed() {
        let table = sample_table(4);
        let store = ObjectStoreDir::temp().unwrap();
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

    #[test]
    fn tier_store_serves_identical_bytes_from_every_layer() {
        let table = sample_table(5);
        let store = Arc::new(ObjectStoreDir::temp().unwrap());
        store.ensure_table(&table).unwrap();
        let tiers = TierStore::new(store).unwrap();
        let (from_object, s0) = tiers.read_partition(table.id, 0).unwrap();
        assert_eq!(s0, ServedFrom::Object);
        tiers.promote_ssd(table.id, 0).unwrap();
        let (from_ssd, s1) = tiers.read_partition(table.id, 0).unwrap();
        assert_eq!(s1, ServedFrom::Ssd);
        tiers.promote_mem(table.id, 0).unwrap();
        let (from_mem, s2) = tiers.read_partition(table.id, 0).unwrap();
        assert_eq!(s2, ServedFrom::Mem);
        assert_eq!(from_object, from_ssd);
        assert_eq!(from_object, from_mem);
        tiers.evict_mem(table.id, 0);
        tiers.evict_ssd(table.id, 0);
        let (_, s3) = tiers.read_partition(table.id, 0).unwrap();
        assert_eq!(s3, ServedFrom::Object);
    }

    /// A thread that panics holding either residency lock poisons it; the
    /// maps under them are still consistent (see [`locked`]), so the next
    /// disk and tiered reads recover the guard and serve the same bytes.
    #[test]
    fn poisoned_residency_locks_still_serve_reads() {
        let table = sample_table(6);
        let store = Arc::new(ObjectStoreDir::temp().unwrap());
        store.ensure_table(&table).unwrap();
        let tiers = Arc::new(TierStore::new(store.clone()).unwrap());
        tiers.promote_mem(table.id, 0).unwrap();

        let (s, t) = (store.clone(), tiers.clone());
        let poisoner = std::thread::spawn(move || {
            let _tables = s.tables.lock().unwrap();
            let _mem = t.mem.lock().unwrap();
            panic!("poison both residency locks");
        });
        assert!(poisoner.join().is_err());
        assert!(store.tables.is_poisoned() && tiers.mem.is_poisoned());

        assert_eq!(
            store.read_partition(table.id, 1).unwrap(),
            table.partitions[1].batch
        );
        let (hit, served) = tiers.read_partition(table.id, 0).unwrap();
        assert_eq!(
            (hit, served),
            (table.partitions[0].batch.clone(), ServedFrom::Mem)
        );
        let (miss, served) = tiers.read_partition(table.id, 1).unwrap();
        assert_eq!(
            (miss, served),
            (table.partitions[1].batch.clone(), ServedFrom::Object)
        );
        // Writers recover too: re-registration and placement keep working.
        store.ensure_table(&sample_table(7)).unwrap();
        tiers.evict_mem(table.id, 0);
        assert_eq!(tiers.mem_entries(), 0);
    }

    /// Promotion, eviction and reads race once the fold overlaps the pool's
    /// fetches: a reader must get the whole partition from whichever tier it
    /// finds, never a half-copied SSD file.
    #[test]
    fn ssd_tier_is_safe_under_concurrent_promote_evict_read() {
        const ROUNDS: usize = 300;
        let table = sample_table(8);
        let store = Arc::new(ObjectStoreDir::temp().unwrap());
        store.ensure_table(&table).unwrap();
        let tiers = TierStore::new(store).unwrap();
        let want = &table.partitions[0].batch;
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for round in 0..ROUNDS {
                        let (got, _) = tiers
                            .read_partition(table.id, 0)
                            .unwrap_or_else(|e| panic!("read in round {round}: {e}"));
                        assert_eq!(&got, want, "round {round}");
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    tiers.promote_ssd(table.id, 0).unwrap();
                }
            });
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    tiers.evict_ssd(table.id, 0);
                    tiers.promote_ssd(table.id, 0).unwrap();
                }
            });
        });
        // Nothing but (at most) the promoted file is left behind.
        let left: Vec<_> = std::fs::read_dir(&tiers.ssd_root).unwrap().collect();
        assert!(left.len() <= 1, "temporary copies leaked: {left:?}");
    }
}

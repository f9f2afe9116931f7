//! Encoded column pages and the exchange wire format.
//!
//! Until this subsystem existed, every byte the cost model saw was a
//! *decoded* byte: partitions billed `RecordBatch::byte_size`, scans fetched
//! decoded payloads, and exchanges charged decoded row widths — so the
//! optimizer could never reward compression, the dominant lever of real
//! cloud scan economics. A page is the self-describing encoded form of one
//! column chunk:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CIPG"
//! 4       1     format version (2)
//! 5       1     codec tag   (0 = Plain, 1 = Dict, 2 = Rle, 3 = For, 4 = Delta)
//! 6       1     dtype tag   (0 = Int64, 1 = Float64, 2 = Utf8, 3 = Bool)
//! 7       1     flags (wire streams only, see below)
//! 8       4     row count (u32 LE)
//! 12      ..    codec-specific payload
//! ```
//!
//! Payloads (all integers little-endian):
//!
//! * **Plain** — raw values: 8 bytes per `Int64`/`Float64` (floats as IEEE
//!   bits), 1 byte per `Bool`, and `u32` length + UTF-8 bytes per string.
//! * **Dict** — `u32` entry count, the distinct strings (`u32` length +
//!   bytes each, in first-appearance order), a `u8` bit width, then the
//!   per-row ids bit-packed LSB-first at that width. Encoding a column that
//!   is already dict-encoded writes only the entries its rows reference,
//!   remapped to dense local ids, so a partition page never ships the
//!   unreferenced tail of a table-wide dictionary.
//! * **Rle** — `u32` run count, then `u32` run length + one value encoding
//!   (as in Plain) per run. Wins on sorted / low-cardinality runs, e.g.
//!   cluster columns after a recluster tuning action.
//! * **For** — frame of reference (`Int64`/`Bool`): the `i64` minimum, a
//!   `u8` bit width, then every `value − min` bit-packed LSB-first at that
//!   width. Small-domain columns (dates, cluster keys) collapse to a few
//!   bits per row; a constant column needs width 0 and 9 payload bytes.
//!   Empty columns carry no payload.
//! * **Delta** — bit-packed deltas (`Int64`): the `i64` first value, the
//!   `i64` minimum consecutive delta, a `u8` bit width, then
//!   `delta − min_delta` for rows `1..n` bit-packed at that width. Sorted
//!   columns (ids, cluster keys after a recluster) have tiny non-negative
//!   deltas, so this is the codec that lets the cost model reward
//!   reclustering twice: pruning *and* compression. All delta arithmetic is
//!   wrapping, so the codec is exact for any `i64` input.
//!
//! [`decode_column`] inverts [`encode_column`] for every codec and
//! [`ColumnData`] variant: values round-trip exactly (int Dict pages decode
//! to `Int64` — for ints the dictionary is a codec, not a column form; a
//! string page of any codec decodes to dictionary ids, a Dict page over its
//! own section, a Plain / Rle page over a fresh dictionary interned per
//! value / per run — equal to the encoded column under the workspace's
//! decoded-value column equality). Malformed bytes are rejected with
//! `Err`, never a panic, and declared sizes are validated against the
//! actual payload *before* any row-proportional allocation, so a forged
//! header cannot over-allocate.
//!
//! Sizing and serializing share one derivation, **sketch → plan →
//! `bytes` / `emit`**: one fused pass over a column's rows (read through a
//! batch's selection, never compacted) gathers a sketch — rows, first,
//! min/max, runs and min/max delta for `Int64` and `Bool` columns; the run
//! count by bit pattern for `Float64`, whose only codecs are Plain and Rle;
//! plain / run / referenced-entry bytes for strings — from which a
//! `ColumnPlan` takes every candidate's exact size, the pick and the
//! FoR/Delta frame. Only an `Int64` Dict candidate needs a distinct count,
//! and the other candidates' sizes bound it: the count stops once past the
//! largest entry count at which Dict could still win (`dict_bound`), soon
//! after the race is decided. That count and the table statistics' NDV
//! share one exact counter ([`count_distinct`]): a bitmap over
//! `value − min`, or a word set — for many values, one per group of their
//! hashes. On a wire stream that pass is a
//! batch's [`WireSketch`], taken wherever the batch is hot, and the
//! stream's [`WireEncoder`] folds it in stream order: first-sight
//! dictionaries and the cached-frame reuse decision, O(columns). Costing
//! reads the plan's `bytes`; serialization calls its `emit`, which writes
//! exactly that many — "size == serialization" by construction.
//!
//! This module is the only place a page byte layout is written or read.
//! Each direction has one sizing and one serializing entry:
//!
//! * **storage pages** — [`best_page`] sizes a column under the size-based
//!   picker (what partitions account as `encoded_bytes`), [`encode_column`]
//!   serializes it under a given codec ([`encode_best`] under the pick),
//!   and [`decode_column`] reads it back;
//! * **the exchange wire** — [`WireEncoder::sketched_wire_bytes`] sizes a
//!   batch from its [`WireSketch`], [`WireEncoder::encode_sketched`]
//!   serializes it, and [`WireDecoder`] reads the stream back. Dict columns
//!   ship bit-packed ids plus their dictionary **once** per encoder (the
//!   one-time per (table, column) dictionary transfer `exchange_wire_secs`
//!   charges), FoR/Delta int columns ship their frame once per stream
//!   position; the decoder keeps both caches and decodes frame-reuse pages
//!   through the same payload decoder as self-contained ones.
//!
//! The two sections a page shares with the `CIPF` / `CIPT` tier files —
//! a dictionary and a bit-packed ids run — have one writer and one reader
//! each (`write_dictionary_section` / `read_dictionary_section`,
//! `write_ids_section` / `read_packed_ids`), which `crate::tiers` calls too.

use std::collections::HashMap;
use std::sync::Arc;

use ci_types::{CiError, Result};

use crate::batch::RecordBatch;
use crate::column::ColumnData;
use crate::dict::{Dictionary, IntDict};
use crate::selection::{RowSet, SelectionVector};
use crate::value::DataType;

/// Magic bytes opening every encoded page.
pub const PAGE_MAGIC: [u8; 4] = *b"CIPG";
/// Current page format version (2: For/Delta codec tags, wire dict pages
/// carry a stream dictionary id).
pub const PAGE_VERSION: u8 = 2;
/// Fixed header size preceding every codec payload.
pub const PAGE_HEADER_BYTES: usize = 12;

/// The column encodings a page can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageCodec {
    /// Raw decoded values.
    Plain,
    /// Distinct-value dictionary + bit-packed per-row ids (strings and
    /// low-cardinality ints).
    Dict,
    /// Run-length encoded values.
    Rle,
    /// Frame of reference: `i64` minimum + bit-packed offsets.
    For,
    /// Bit-packed consecutive deltas off an `i64` first value.
    Delta,
}

/// Every codec, in the deterministic tie-break order the picker uses
/// (earlier wins on equal size).
pub const ALL_CODECS: [PageCodec; 5] = [
    PageCodec::Plain,
    PageCodec::Dict,
    PageCodec::Rle,
    PageCodec::For,
    PageCodec::Delta,
];

impl PageCodec {
    fn tag(self) -> u8 {
        match self {
            PageCodec::Plain => 0,
            PageCodec::Dict => 1,
            PageCodec::Rle => 2,
            PageCodec::For => 3,
            PageCodec::Delta => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<PageCodec> {
        match tag {
            0 => Ok(PageCodec::Plain),
            1 => Ok(PageCodec::Dict),
            2 => Ok(PageCodec::Rle),
            3 => Ok(PageCodec::For),
            4 => Ok(PageCodec::Delta),
            other => Err(err(format!("unknown codec tag {other}"))),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PageCodec::Plain => "plain",
            PageCodec::Dict => "dict",
            PageCodec::Rle => "rle",
            PageCodec::For => "for",
            PageCodec::Delta => "delta",
        }
    }

    /// Whether this codec can encode a column of logical type `dt`. This is
    /// the single capability source the picker filters [`ALL_CODECS`] by,
    /// so adding a codec here automatically enrolls it with the picker for
    /// every type it supports.
    pub fn applies_to(self, dt: DataType) -> bool {
        match self {
            PageCodec::Plain | PageCodec::Rle => true,
            // Dictionaries pay off wherever distinct values are few relative
            // to rows: strings (entries dedup heap payloads) and ints
            // (dates/enums whose *range* defeats FoR but whose NDV is tiny).
            PageCodec::Dict => matches!(dt, DataType::Utf8 | DataType::Int64),
            // Frame of reference covers anything with an integer value
            // domain: Int64, and Bool as 0/1 (1 bit per row past the frame).
            PageCodec::For => matches!(dt, DataType::Int64 | DataType::Bool),
            // Deltas only pay off where consecutive differences carry
            // information — the 64-bit integer domain.
            PageCodec::Delta => dt == DataType::Int64,
        }
    }
}

/// Metadata of one encoded page: what a partition or catalog keeps to
/// account billed bytes without holding the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedPage {
    /// Codec the page is encoded with.
    pub codec: PageCodec,
    /// Total page size in bytes (header + payload) — what a fetch transfers.
    pub encoded_bytes: u64,
    /// Decoded payload size ([`ColumnData::byte_size`]) — what decode yields.
    pub decoded_bytes: u64,
    /// Rows in the page.
    pub rows: usize,
    /// Bytes of the inline dictionary section (0 for non-Dict codecs). The
    /// per-row wire width of a dict column is
    /// `(encoded_bytes - dict_bytes) / rows`.
    pub dict_bytes: u64,
}

fn err(msg: String) -> CiError {
    CiError::Storage(msg)
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Float64),
        2 => Ok(DataType::Utf8),
        3 => Ok(DataType::Bool),
        other => Err(err(format!("unknown dtype tag {other}"))),
    }
}

/// Bits needed per id for a dictionary of `entries` distinct values.
pub fn id_bit_width(entries: usize) -> u32 {
    if entries <= 1 {
        0
    } else {
        usize::BITS - (entries - 1).leading_zeros()
    }
}

/// Bytes occupied by `rows` ids bit-packed at `width` bits.
pub fn packed_id_bytes(rows: usize, width: u32) -> u64 {
    (rows as u64 * width as u64).div_ceil(8)
}

/// Bits needed to represent every offset in `[0, range]` (0 for a
/// zero-range, i.e. constant, frame).
pub fn range_bit_width(range: u64) -> u32 {
    u64::BITS - range.leading_zeros()
}

/// Widths up to this bound take the `u64`-buffer packing fast path (the
/// flush loop keeps the buffer under 8 live bits, so `56 + 8 <= 64` bits
/// always fit); wider values fall back to a `u128` buffer.
const PACK_FAST_WIDTH: u32 = 56;

/// Bit-packs `values` at `width` bits each, LSB-first (`width <= 64`).
fn pack_bits(out: &mut Vec<u8>, values: impl Iterator<Item = u64>, width: u32) {
    if width == 0 {
        return;
    }
    let (lo, _) = values.size_hint();
    out.reserve((lo * width as usize).div_ceil(8));
    if width <= 32 {
        // Flush four bytes at a time: the buffer stays below 32 live bits
        // between values, so `32 + width <= 64` always fits the shift.
        let mut buf: u64 = 0;
        let mut bits: u32 = 0;
        for v in values {
            buf |= v << bits;
            bits += width;
            if bits >= 32 {
                out.extend_from_slice(&(buf as u32).to_le_bytes());
                buf >>= 32;
                bits -= 32;
            }
        }
        while bits >= 8 {
            out.push(buf as u8);
            buf >>= 8;
            bits -= 8;
        }
        if bits > 0 {
            out.push(buf as u8);
        }
        return;
    }
    if width <= PACK_FAST_WIDTH {
        let mut buf: u64 = 0;
        let mut bits: u32 = 0;
        for v in values {
            buf |= v << bits;
            bits += width;
            while bits >= 8 {
                out.push(buf as u8);
                buf >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            out.push(buf as u8);
        }
        return;
    }
    let mut buf: u128 = 0;
    let mut bits: u32 = 0;
    for v in values {
        buf |= (v as u128) << bits;
        bits += width;
        while bits >= 8 {
            out.push((buf & 0xff) as u8);
            buf >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push((buf & 0xff) as u8);
    }
}

/// Unpacks `rows` values bit-packed at `width` bits (`width <= 64`),
/// feeding `emit` blocks of up to 8 values (every block but the last is
/// exactly 8). `packed` must hold exactly [`packed_id_bytes`]`(rows, width)`
/// bytes — callers bounds-check first.
///
/// The block API is the fast path's point: consumers bulk-append each slice
/// (one capacity check per 8 values instead of one per value), and at
/// widths <= 16 a whole block comes out of one or two unaligned `u64`
/// loads — 8 values span exactly `width` bytes, so blocks start
/// byte-aligned and every shift is a compile-time multiple of `width`.
fn unpack_bit_blocks(packed: &[u8], rows: usize, width: u32, mut emit: impl FnMut(&[u64])) {
    let mut blk = [0u64; 8];
    if width == 0 {
        let mut left = rows;
        while left >= 8 {
            emit(&blk);
            left -= 8;
        }
        if left > 0 {
            emit(&blk[..left]);
        }
        return;
    }
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut i = 0usize;
    if width <= 8 {
        // All 8 values fit one unaligned u64 (the last ends at bit
        // 7*width + width <= 64).
        while i + 8 <= rows {
            let Some(w) = word_at(packed, i * width as usize / 8) else {
                break;
            };
            for (k, b) in blk.iter_mut().enumerate() {
                *b = (w >> (k as u32 * width)) & mask;
            }
            emit(&blk);
            i += 8;
        }
    } else if width <= 16 {
        // Two unaligned u64 loads per block: values 0-3 from `base` (the
        // last ends at 4*width <= 64), values 4-7 from the byte where value
        // 4 starts, pre-shifted by its sub-byte bit offset (<= 4, and
        // 4 + 4*width <= 64 for width <= 15; width 16 is byte-aligned with
        // offset 0).
        while i + 8 <= rows {
            let base = i * width as usize / 8;
            let hi_at = base + (4 * width as usize) / 8;
            let (Some(lo), Some(hi)) = (word_at(packed, base), word_at(packed, hi_at)) else {
                break;
            };
            let hi_shift = (4 * width) % 8;
            let (low4, high4) = blk.split_at_mut(4);
            for (k, (l, h)) in low4.iter_mut().zip(high4).enumerate() {
                *l = (lo >> (k as u32 * width)) & mask;
                *h = (hi >> (hi_shift + k as u32 * width)) & mask;
            }
            emit(&blk);
            i += 8;
        }
    }
    let mut n = 0usize;
    if width <= PACK_FAST_WIDTH {
        // Positional path: value `i` spans bits `[i*width, i*width +
        // width)`, which sit inside the unaligned u64 starting at its byte
        // (shift <= 7, so width + shift <= 63). One load + shift + mask per
        // value while a full 8-byte window exists. Handles all widths the
        // block paths skip, plus each block path's last-window tail.
        while i < rows {
            let bitpos = i as u64 * width as u64;
            let Some(w) = word_at(packed, (bitpos / 8) as usize) else {
                break;
            };
            blk[n] = (w >> (bitpos % 8)) & mask;
            n += 1;
            if n == 8 {
                emit(&blk);
                n = 0;
            }
            i += 1;
        }
        // Tail: assemble the last few values byte by byte.
        for j in i..rows {
            let bitpos = j as u64 * width as u64;
            let mut at = (bitpos / 8) as usize;
            let mut shift = (bitpos % 8) as u32;
            let mut v: u64 = 0;
            let mut got = 0u32;
            while got < width {
                v |= ((packed[at] as u64) >> shift) << got;
                got += 8 - shift;
                at += 1;
                shift = 0;
            }
            blk[n] = v & mask;
            n += 1;
            if n == 8 {
                emit(&blk);
                n = 0;
            }
        }
        if n > 0 {
            emit(&blk[..n]);
        }
        return;
    }
    let mut next = packed.iter();
    let mut buf: u128 = 0;
    let mut bits: u32 = 0;
    for _ in 0..rows {
        while bits < width {
            // Callers size the section; a short one stops early, and the
            // decoder's row check turns the missing values into an error.
            let Some(&byte) = next.next() else { return };
            buf |= (byte as u128) << bits;
            bits += 8;
        }
        blk[n] = (buf as u64) & mask;
        n += 1;
        if n == 8 {
            emit(&blk);
            n = 0;
        }
        buf >>= width;
        bits -= width;
    }
    if n > 0 {
        emit(&blk[..n]);
    }
}

/// FoR `Int64` payload decode for widths 1..=16: each block of 8 values
/// is computed from one or two unaligned `u64` loads and appended whole
/// (one capacity check per 8 values). Appending to a `with_capacity`
/// vector writes each value once; a `vec![0; rows]` would add a zeroing
/// pass whenever the allocator hands out reused heap memory.
fn unpack_for_i64_small(packed: &[u8], rows: usize, width: u32, min: i64) -> Vec<i64> {
    debug_assert!((1..=16).contains(&width));
    let mask = (1u64 << width) - 1;
    let w = width as usize;
    let mut v = Vec::with_capacity(rows);
    let mut out8 = [0i64; 8];
    while v.len() + 8 <= rows {
        // 8 values span exactly `w` bytes, so block starts are
        // byte-aligned. Blocks whose two words below run past the section
        // (at most the last two) fall to the per-value tail.
        let base = v.len() * w / 8;
        let (Some(lo), Some(hi)) = (word_at(packed, base), word_at(packed, base + w / 2)) else {
            break;
        };
        if width <= 8 {
            for (k, o) in out8.iter_mut().enumerate() {
                *o = min.wrapping_add(((lo >> (k as u32 * width)) & mask) as i64);
            }
        } else {
            let hi_shift = (4 * width as usize % 8) as u32;
            for k in 0..4u32 {
                out8[k as usize] = min.wrapping_add(((lo >> (k * width)) & mask) as i64);
                out8[k as usize + 4] =
                    min.wrapping_add(((hi >> (hi_shift + k * width)) & mask) as i64);
            }
        }
        v.extend_from_slice(&out8);
    }
    // Tail: positional per-value reads (at most 3 bytes per value at these
    // widths), never past the packed section's exact length.
    for i in v.len()..rows {
        let bit = i * w;
        let shift = (bit % 8) as u32;
        let mut byte = bit / 8;
        let mut acc = 0u64;
        let mut got = 0u32;
        while got < shift + width {
            acc |= (packed[byte] as u64) << got;
            got += 8;
            byte += 1;
        }
        v.push(min.wrapping_add(((acc >> shift) & mask) as i64));
    }
    v
}

/// The unaligned little-endian `u64` at byte `at`, if 8 bytes remain there.
fn word_at(bytes: &[u8], at: usize) -> Option<u64> {
    let w = bytes.get(at..)?.first_chunk::<8>()?;
    Some(u64::from_le_bytes(*w))
}

/// The little-endian `u64` of one `chunks_exact(8)` chunk (a shorter slice,
/// which no caller passes, reads as 0).
pub(crate) fn le_u64(chunk: &[u8]) -> u64 {
    word_at(chunk, 0).unwrap_or(0)
}

/// Per-value adapter over [`unpack_bit_blocks`] for consumers whose work is
/// inherently per value (bool validation, RLE-style logic).
fn unpack_bits(packed: &[u8], rows: usize, width: u32, mut emit: impl FnMut(u64)) {
    unpack_bit_blocks(packed, rows, width, |blk| {
        for &v in blk {
            emit(v);
        }
    });
}

/// Size in bytes of a serialized dictionary section (`u32` entry count plus
/// `u32` length + payload per entry) — the one-time transfer a wire exchange
/// of a dict column pays per (table, column).
pub fn dictionary_page_bytes(dict: &Dictionary) -> u64 {
    4 + dict
        .values()
        .iter()
        .map(|s| 4 + s.len() as u64)
        .sum::<u64>()
}

// ---------------------------------------------------------------------------
// Sketch → plan → `bytes` / `emit`
// ---------------------------------------------------------------------------

/// Hard cap on the distinct-value count an `Int64` column may have and
/// still be a `Dict` page candidate. The dict codec only pays when NDV is
/// tiny (enum codes, bucketed dates). Past the cap `Dict` is disqualified
/// outright; the picker contract is defined over this capped candidate
/// set. The picker counts distinct values only up to the smaller of this
/// cap and the largest count at which `Dict` still beats the other
/// candidates' sizes (`dict_bound`), so a column Dict has already lost
/// is never counted to the end. (A `Dict` page *forced* through
/// [`encode_column`] or sized through [`encoded_size`] is exact for any
/// NDV.)
pub const DICT_INT_MAX_ENTRIES: usize = 4096;

/// A distinct count marks a bitmap over `value − min` when that bitmap
/// needs no more 64-bit words than the count can make inserts, or at most
/// this many words (128 KiB) on a short or bounded count; it fills a
/// [`WordSet`] otherwise. A count bounded by [`DICT_INT_MAX_ENTRIES`] thus
/// marks a bitmap exactly for ranges under 2^20.
const DISTINCT_BITMAP_MIN_WORDS: u64 = 1 << 14;

/// A distinct count that can make at least this many inserts into a word
/// set groups the values by hash first and counts each group in a small
/// [`WordSet`]: one set for them all holds 256 KiB of slots or more (2 MiB
/// for 200 000 values), at up to 4/5 full, and pays a cache miss and a
/// long probe on most inserts. Bounded counts ([`DICT_INT_MAX_ENTRIES`])
/// never get here; table statistics do.
const DISTINCT_GROUPED_MIN_INSERTS: usize = 1 << 14;

/// A grouped count splits its values into `2^this` groups by the top bits
/// of their hash.
const DISTINCT_GROUP_BITS: u32 = 8;

/// The bitmap count compares its running count with the bound once per
/// this many rows: often enough to stop early, rarely enough to stay off
/// the per-row path.
const DISTINCT_CHECK_ROWS: usize = 256;

/// The rows of one column a plan covers: every row, or the rows a batch's
/// selection names, in order — so sizing a selected batch never compacts it.
#[derive(Debug, Clone, Copy)]
struct Rows<'a> {
    col: &'a ColumnData,
    sel: Option<&'a SelectionVector>,
}

impl Rows<'_> {
    fn len(&self) -> usize {
        self.sel.map_or(self.col.len(), SelectionVector::len)
    }
}

/// Evaluates `$body` with `$it` bound to a cloneable iterator over the
/// elements of slice `$v` that `$sel` names: the whole slice or a range
/// selection's sub-slice, a walk of the index slice otherwise.
macro_rules! each_row {
    ($v:expr, $sel:expr, |$it:ident| $body:expr) => {
        match RowSet::of_selection($sel, $v.len()) {
            RowSet::Range(r) => {
                let $it = $v[r].iter();
                $body
            }
            RowSet::Picked(p) => {
                let $it = p.iter().map(|&i| &$v[i as usize]);
                $body
            }
        }
    };
}

/// Evaluates `$body` with `$it` bound to the rows' values as `i64`s — ints
/// as they are, bools as 0/1, floats as their IEEE bits — so one sketch and
/// one emitter serve every fixed-width column. String columns evaluate
/// `$strs` instead.
macro_rules! fixed_values {
    ($rows:expr, |$it:ident| $body:expr, else $strs:expr) => {
        match $rows.col {
            ColumnData::Int64(v) => each_row!(v, $rows.sel, |r| {
                let $it = r.copied();
                $body
            }),
            ColumnData::Bool(v) => each_row!(v, $rows.sel, |r| {
                let $it = r.map(|&b| i64::from(b));
                $body
            }),
            ColumnData::Float64(v) => each_row!(v, $rows.sel, |r| {
                let $it = r.map(|x| x.to_bits() as i64);
                $body
            }),
            ColumnData::Dict { .. } => $strs,
        }
    };
}

/// Reusable scratch for a column's distinct counts: the `Int64` `Dict`
/// candidate's, a string page's referenced entries, and
/// [`count_distinct`]'s. A [`WireSketch`] shares one across its batch's
/// columns.
#[derive(Debug, Default)]
struct PlanScratch {
    /// A seen-bitmap (over `value − min` or dictionary ids) or the slots of
    /// a [`WordSet`] (one group's, in a grouped count).
    words: Vec<u64>,
}

impl PlanScratch {
    /// `len` zero words. A scratch too small takes a fresh zeroed block
    /// instead of clearing and growing its own: the catalog counts every
    /// column in a fresh scratch, and zeroing its large blocks by hand left
    /// `point_lookup`'s later queries ≈ 10 % slower than a zeroed
    /// allocation does.
    fn zeroed(&mut self, len: usize) -> &mut [u64] {
        if self.words.capacity() < len {
            self.words = vec![0; len];
        } else {
            self.words.clear();
            self.words.resize(len, 0);
        }
        &mut self.words
    }

    /// The one distinct counter: distinct values among `chunks`, at most
    /// `rows` values, each in `[min, max]` (wrapping: `(i64::MIN, i64::MAX)`
    /// admits any value). Exact up to `bound`, and some count past `bound`
    /// once there are more values, where the count stops. It marks a
    /// bitmap over `value − min` when [`DISTINCT_BITMAP_MIN_WORDS`] says,
    /// comparing its count with the bound every [`DISTINCT_CHECK_ROWS`] rows
    /// of a chunk. Otherwise it fills a [`WordSet`] sized for this count,
    /// or, from [`DISTINCT_GROUPED_MIN_INSERTS`] inserts, counts by hash
    /// group ([`PlanScratch::count_grouped`]).
    fn count_distinct<C: Iterator<Item = i64>>(
        &mut self,
        chunks: impl IntoIterator<Item = C> + Clone,
        rows: usize,
        (min, max): (i64, i64),
        bound: usize,
    ) -> usize {
        let inserts = rows.min(bound.saturating_add(1));
        let words = (max as u64).wrapping_sub(min as u64) / 64 + 1;
        if words > (inserts as u64).max(DISTINCT_BITMAP_MIN_WORDS) {
            if inserts >= DISTINCT_GROUPED_MIN_INSERTS {
                return self.count_grouped(chunks, bound);
            }
            let mut set = WordSet::new(self, inserts);
            for chunk in chunks {
                for x in chunk {
                    if set.insert(x as u64) && set.len() > bound {
                        return set.len();
                    }
                }
            }
            return set.len();
        }
        let bits = self.zeroed(words as usize);
        let mut seen = 0usize;
        for chunk in chunks {
            for (i, x) in chunk.enumerate() {
                let off = x.wrapping_sub(min) as u64 as usize;
                let (word, bit) = (&mut bits[off / 64], 1u64 << (off % 64));
                seen += usize::from(*word & bit == 0);
                *word |= bit;
                if i % DISTINCT_CHECK_ROWS == DISTINCT_CHECK_ROWS - 1 && seen > bound {
                    return seen;
                }
            }
        }
        seen
    }

    /// [`PlanScratch::count_distinct`] of many values, cache-sized: one
    /// walk over `chunks` counts their hashes ([`mix`], a bijection, so
    /// they count the same) per group of equal top [`DISTINCT_GROUP_BITS`]
    /// bits, a second writes each hash to its group's next place in one
    /// buffer, and each group is then counted in a small [`WordSet`] in
    /// this scratch. A group's set has room for up to twice a group's
    /// expected share of the values, and grows only past that many distinct
    /// ones, so for values whose hashes spread the count holds about one
    /// word per value, where one set for all of them holds 5/4 to 5/2.
    fn count_grouped<C: Iterator<Item = i64>>(
        &mut self,
        chunks: impl IntoIterator<Item = C> + Clone,
        bound: usize,
    ) -> usize {
        const GROUPS: usize = 1 << DISTINCT_GROUP_BITS;
        let group = |h: u64| (h >> (64 - DISTINCT_GROUP_BITS)) as usize;
        let mut heads = [0usize; GROUPS];
        for chunk in chunks.clone() {
            for x in chunk {
                heads[group(mix(x as u64))] += 1;
            }
        }
        let mut ends = [0usize; GROUPS];
        let mut rows = 0;
        for (head, end) in heads.iter_mut().zip(&mut ends) {
            (*head, rows) = (rows, rows + *head);
            *end = rows;
        }
        let mut hashes = vec![0u64; rows];
        for chunk in chunks {
            for x in chunk {
                let h = mix(x as u64);
                let head = &mut heads[group(h)];
                hashes[*head] = h;
                *head += 1;
            }
        }
        let share = 2 * rows / GROUPS;
        let (mut seen, mut start) = (0, 0);
        for end in ends {
            let members = &hashes[start..end];
            // Room for twice the members: one group's table is small, and
            // at most 2/5 full it probes about half as long.
            let mut set = WordSet::new(self, 2 * members.len().min(share));
            for &h in members {
                set.insert(h);
            }
            seen += set.len();
            if seen > bound {
                return seen;
            }
            start = end;
        }
        seen
    }
}

/// The word sets' hash: a xor-shift and an odd multiplier, each a bijection
/// of `u64`, so distinct keys keep distinct hashes (and 0 stays 0).
#[inline]
fn mix(key: u64) -> u64 {
    (key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Exact distinct count of the values in `chunks`, each a 64-bit image in
/// `range` (wrapping, as for the codec race's counter, which this is): the
/// table statistics' NDV.
pub fn count_distinct<C: ExactSizeIterator<Item = i64>>(
    chunks: impl Iterator<Item = C> + Clone,
    range: (i64, i64),
) -> u64 {
    let rows = chunks.clone().map(|c| c.len()).sum();
    PlanScratch::default().count_distinct(chunks, rows, range, usize::MAX) as u64
}

/// An insert-only open-addressing set of `u64` words with a fixed
/// multiplicative hash ([`mix`]) over a [`PlanScratch`]'s words, presized
/// to stay at most 4/5 full for the insertions its count expects and
/// doubled should more distinct keys arrive. A half-full bound would
/// double the table (4 MiB for a 200 000-row column, twice the column
/// itself), and freeing a block that large raised the process's peak RSS
/// on the CAB query workloads by ≈ 5 MB through the allocator's mmap
/// threshold. Slot value 0 means empty, so the key 0 is kept aside in a
/// flag.
struct WordSet<'s> {
    slots: &'s mut Vec<u64>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    len: usize,
    has_zero: bool,
}

impl<'s> WordSet<'s> {
    /// An empty set in `scratch` for `inserts` insertions without growing.
    fn new(scratch: &'s mut PlanScratch, inserts: usize) -> WordSet<'s> {
        let slots = (inserts.max(8) * 5 / 4 + 1).next_power_of_two();
        scratch.zeroed(slots);
        WordSet {
            slots: &mut scratch.words,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            has_zero: false,
        }
    }

    fn len(&self) -> usize {
        self.len + usize::from(self.has_zero)
    }

    /// Inserts `key`; `true` when it was not yet in the set.
    #[inline]
    fn insert(&mut self, key: u64) -> bool {
        if key == 0 {
            return !std::mem::replace(&mut self.has_zero, true);
        }
        let new = self.place(key);
        if new && self.len * 5 > self.slots.len() * 4 {
            self.grow();
        }
        new
    }

    /// Puts the non-zero `key` in its slot; `true` when it was not there.
    #[inline]
    fn place(&mut self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) >> self.shift) as usize;
        // At most 4/5 full (see `insert`), so the probe meets the key or an
        // empty slot.
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the slots and re-places every key.
    #[cold]
    fn grow(&mut self) {
        let old = std::mem::replace(self.slots, vec![0; self.slots.len() * 2]);
        self.shift -= 1;
        self.len = 0;
        for key in old.into_iter().filter(|&k| k != 0) {
            self.place(key);
        }
    }
}

/// Everything the `Int64` and `Bool` candidates but `Dict` need, gathered
/// by one pass over a column's values as `i64`s. All delta arithmetic is
/// wrapping, so the frames are exact for any input.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IntSketch {
    rows: usize,
    first: i64,
    min: i64,
    max: i64,
    /// Equal-value runs (0 when empty).
    runs: u64,
    /// Extremes of the `rows − 1` consecutive deltas (0, 0 under two rows).
    min_delta: i64,
    max_delta: i64,
}

impl IntSketch {
    fn of(mut vals: impl Iterator<Item = i64>) -> IntSketch {
        let first = vals.next();
        let mut s = IntSketch {
            rows: usize::from(first.is_some()),
            first: first.unwrap_or(0),
            min: first.unwrap_or(0),
            max: first.unwrap_or(0),
            runs: u64::from(first.is_some()),
            min_delta: i64::MAX,
            max_delta: i64::MIN,
        };
        let mut prev = s.first;
        for x in vals {
            let d = x.wrapping_sub(prev);
            s.min = s.min.min(x);
            s.max = s.max.max(x);
            s.min_delta = s.min_delta.min(d);
            s.max_delta = s.max_delta.max(d);
            s.runs += u64::from(d != 0);
            s.rows += 1;
            prev = x;
        }
        if s.rows < 2 {
            (s.min_delta, s.max_delta) = (0, 0);
        }
        s
    }

    /// Bits holding every `value − min`.
    fn for_width(&self) -> u32 {
        range_bit_width(self.max.wrapping_sub(self.min) as u64)
    }

    /// Bits holding every `delta − min_delta`.
    fn delta_width(&self) -> u32 {
        range_bit_width(self.max_delta.wrapping_sub(self.min_delta) as u64)
    }

    /// Counts the distinct values of the sketched column while the count
    /// can still matter: exact up to `bound`, and some count past `bound`
    /// once the column has more. Sorted columns need no second pass; the
    /// rest go to the one distinct counter
    /// ([`PlanScratch::count_distinct`]).
    fn count_distinct(
        &self,
        vals: impl Iterator<Item = i64> + Clone,
        bound: usize,
        scratch: &mut PlanScratch,
    ) -> usize {
        let range = self.max.wrapping_sub(self.min) as u64;
        // A non-empty column holds one value, two once its range is not 0.
        let least = usize::from(self.rows > 0) + usize::from(range > 0);
        if least > bound {
            return least;
        }
        // Under half the domain no consecutive delta wraps, so one-signed
        // deltas mean a sorted column: every run is a new value. (Covers
        // empty and constant columns too.)
        let sorted = range <= i64::MAX as u64 && (self.min_delta >= 0 || self.max_delta <= 0);
        if sorted {
            let over = bound.saturating_add(1);
            return usize::try_from(self.runs).map_or(over, |runs| runs.min(over));
        }
        scratch.count_distinct([vals], self.rows, (self.min, self.max), bound)
    }
}

/// The largest entry count, up to [`DICT_INT_MAX_ENTRIES`], at which an
/// `Int64` `Dict` page of `dict(entries)` payload bytes still wins the race
/// against the other candidates' `payload` sizes (Dict's own slot is
/// ignored): it must be strictly smaller than Plain and no larger than
/// Rle, For or Delta, which it precedes in [`ALL_CODECS`]. `None` when no
/// count wins. Dict's size grows with its entry count, so the winning
/// counts are a prefix of `0..=DICT_INT_MAX_ENTRIES` and a binary search
/// finds its end.
fn dict_bound(payload: &[Option<u64>; 5], dict: impl Fn(usize) -> u64) -> Option<usize> {
    let [plain, _, rest @ ..] = *payload;
    let limit = (rest.into_iter().flatten()).fold(plain?.checked_sub(1)?, u64::min);
    if dict(0) > limit {
        return None;
    }
    let (mut lo, mut hi) = (0, DICT_INT_MAX_ENTRIES);
    while lo < hi {
        let mid = hi - (hi - lo) / 2;
        if dict(mid) <= limit {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// Equal-bit-pattern runs over the rows of `v` that `sel` names: a float
/// column's whole sketch, since Plain and Rle are its only codecs. A dense
/// or range selection is one comparison of the slice with itself shifted
/// by a row.
fn float_runs(v: &[f64], sel: Option<&SelectionVector>) -> u64 {
    let v = match RowSet::of_selection(sel, v.len()) {
        RowSet::Range(r) => &v[r],
        RowSet::Picked(p) => {
            let bits = || p.iter().map(|&i| v[i as usize].to_bits());
            let changes = bits().zip(bits().skip(1)).filter(|(a, b)| a != b).count();
            return u64::from(!p.is_empty()) + changes as u64;
        }
    };
    let Some(next) = v.get(1..) else { return 0 };
    let changes = (v.iter().zip(next))
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    1 + changes as u64
}

/// What the string candidates need, gathered by one pass: every size below
/// counts a string as its `u32` length plus its bytes.
#[derive(Debug, Default, Clone, Copy)]
struct StrSketch {
    plain_bytes: u64,
    /// Equal-value runs and the bytes of one value per run.
    runs: u64,
    run_bytes: u64,
    /// Distinct values the rows reference and their bytes — a page never
    /// ships the unreferenced tail of a table-wide dictionary.
    entries: usize,
    entry_bytes: u64,
}

impl StrSketch {
    /// Sketches `(value, first sight on this page)` rows.
    fn of<'s>(rows: impl Iterator<Item = (&'s str, bool)>) -> StrSketch {
        let mut s = StrSketch::default();
        let mut prev = None;
        for (value, first_sight) in rows {
            let bytes = 4 + value.len() as u64;
            s.plain_bytes += bytes;
            if prev != Some(value) {
                s.runs += 1;
                s.run_bytes += bytes;
                prev = Some(value);
            }
            if first_sight {
                s.entries += 1;
                s.entry_bytes += bytes;
            }
        }
        s
    }
}

/// A FoR or Delta frame header. Storage pages carry it inline; a wire
/// stream ships it once per column position and later chunks reuse it
/// (`PAGE_FLAG_DICT_REF` int pages carry packed offsets only). Reuse is
/// exact by wrapping arithmetic: any value whose wrapping offset fits
/// `width` bits round-trips bit-identically through the cached frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntFrame {
    /// Frame-of-reference: offsets from `min`, packed at `width` bits.
    For { min: i64, width: u32 },
    /// Delta: each chunk ships its own first value; consecutive deltas are
    /// offset by `min_d` and packed at `width` bits.
    Delta { min_d: i64, width: u32 },
}

/// How a page relates to the receiver's stream caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    /// Self-contained, flagless page: storage pages and wire columns that
    /// use no stream state.
    Detached,
    /// Carries its dictionary / int frame inline and fills the receiver's
    /// cache entry under this stream id.
    Fills(u32),
    /// Ids / packed offsets only, resolved against the cached entry.
    Refers(u32),
}

/// One column's page, decided once: `bytes` is what costing charges and
/// [`ColumnPlan::emit`] writes exactly that many bytes, both read off the
/// same codec, frame and stream decision — so "size == serialization"
/// holds by construction. The plan borrows nothing from the rows it was
/// built over (`emit` takes them again), so it can outlive the pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ColumnPlan {
    codec: PageCodec,
    /// The frame of a non-empty For/Delta page.
    frame: Option<IntFrame>,
    /// On a stream, a `Dict` page indexes the stream's shared dictionary
    /// (at its width) instead of a page-local one.
    stream: Stream,
    /// Exact page size, header included.
    bytes: u64,
    /// Bytes of the inline dictionary section (0 unless the codec is Dict).
    dict_bytes: u64,
    /// The stats pass behind an `Int64` or `Bool` plan (wire frame reuse
    /// reads it).
    sketch: Option<IntSketch>,
}

/// Every candidate codec's payload size for one column's rows, from which
/// a [`ColumnPlan`] takes the pick ([`Race::smallest`]) or a forced codec
/// ([`Race::forced`]).
#[derive(Debug, Clone, Copy)]
struct Race {
    dt: DataType,
    rows: usize,
    /// Plain's payload bytes: Plain applies to every column, so the race
    /// always has a winner.
    plain: u64,
    /// Payload bytes per codec in [`ALL_CODECS`] order (`Some(plain)`
    /// first), `None` where a codec does not apply or lost unsized.
    payload: [Option<u64>; 5],
    /// Bytes of the Dict candidate's dictionary section.
    dict_bytes: u64,
    sketch: Option<IntSketch>,
}

impl Race {
    /// Sizes every candidate for `rows`, or only `only` when given. An
    /// `Int64` column's distinct values are counted for its `Dict`
    /// candidate only while Dict can still win the race (see
    /// [`dict_bound`]); for a forced `Dict` page, exactly.
    fn run(rows: Rows<'_>, only: Option<PageCodec>, scratch: &mut PlanScratch) -> Race {
        let (dt, n) = (rows.col.data_type(), rows.len());
        let sketch = match rows.col {
            ColumnData::Int64(v) => Some(each_row!(v, rows.sel, |it| IntSketch::of(it.copied()))),
            ColumnData::Bool(v) => Some(each_row!(v, rows.sel, |it| IntSketch::of(
                it.map(|&b| i64::from(b))
            ))),
            _ => None,
        };
        let ids = |entries: usize| 1 + packed_id_bytes(n, id_bit_width(entries));
        // Plain's payload bytes, the others' in `ALL_CODECS` order (Dict,
        // Rle, For, Delta), and the bytes of the Dict candidate's dictionary
        // section. An `Int64` Dict slot is filled below, once the other
        // sizes bound its distinct count.
        let (plain, [dict, rle, for_, delta], mut dict_bytes) = match (rows.col, sketch) {
            (_, Some(s)) => {
                let value = if dt == DataType::Bool { 1 } else { 8 };
                let framed = |frame: u64, packed: u64| if n == 0 { 0 } else { frame + packed };
                let sizes = [
                    None,
                    Some(4 + s.runs * (4 + value)),
                    Some(framed(9, packed_id_bytes(n, s.for_width()))),
                    Some(framed(
                        17,
                        packed_id_bytes(n.saturating_sub(1), s.delta_width()),
                    )),
                ];
                (n as u64 * value, sizes, 0)
            }
            // Plain and Rle are the only float codecs.
            (ColumnData::Float64(v), None) => {
                let runs = float_runs(v, rows.sel);
                (n as u64 * 8, [None, Some(4 + runs * 12), None, None], 0)
            }
            _ => {
                let s = match rows.col {
                    ColumnData::Dict { ids, dict } => {
                        let bits = scratch.zeroed(dict.len().div_ceil(64));
                        each_row!(ids, rows.sel, |it| StrSketch::of(it.map(|&id| {
                            let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
                            let first_sight = bits[word] & bit == 0;
                            bits[word] |= bit;
                            (dict.get(id), first_sight)
                        })))
                    }
                    _ => StrSketch::default(),
                };
                let dict = 4 + s.entry_bytes;
                let sizes = [
                    Some(dict + ids(s.entries)),
                    Some(4 + s.runs * 4 + s.run_bytes),
                    None,
                    None,
                ];
                (s.plain_bytes, sizes, dict)
            }
        };
        let mut payload = [Some(plain), dict, rle, for_, delta];
        if let (ColumnData::Int64(v), Some(s)) = (rows.col, &sketch) {
            // An int dictionary section: entry count, then 8 bytes per entry.
            let int_dict_bytes = |entries: usize| 4 + entries as u64 * 8;
            let dict_size = |entries: usize| int_dict_bytes(entries) + ids(entries);
            let bound = match only {
                Some(PageCodec::Dict) => Some(usize::MAX),
                Some(_) => None,
                None => dict_bound(&payload, dict_size),
            };
            if let Some(bound) = bound {
                let entries = each_row!(v, rows.sel, |it| s.count_distinct(
                    it.copied(),
                    bound,
                    scratch
                ));
                if entries <= bound {
                    payload[1] = Some(dict_size(entries));
                    dict_bytes = int_dict_bytes(entries);
                }
            }
        }
        Race {
            dt,
            rows: n,
            plain,
            payload,
            dict_bytes,
            sketch,
        }
    }

    /// The plan under the smallest applicable codec (ties break toward the
    /// earlier of [`ALL_CODECS`], so toward Plain, which applies to every
    /// column).
    fn smallest(&self) -> ColumnPlan {
        let rivals = ALL_CODECS.into_iter().zip(self.payload).skip(1);
        let (codec, payload) = rivals.filter(|(codec, _)| codec.applies_to(self.dt)).fold(
            (PageCodec::Plain, self.plain),
            |best, rival| match rival {
                (codec, Some(size)) if size < best.1 => (codec, size),
                _ => best,
            },
        );
        self.plan(codec, payload)
    }

    /// The plan under `codec`: an error if it does not apply to the
    /// column's type.
    fn forced(&self, codec: PageCodec) -> Result<ColumnPlan> {
        let sized = ALL_CODECS.into_iter().zip(self.payload);
        let payload = sized
            .filter(|&(c, _)| c == codec && c.applies_to(self.dt))
            .find_map(|(_, size)| size)
            .ok_or_else(|| {
                let (name, dt) = (codec.name(), self.dt);
                err(format!("{name} codec does not apply to {dt} columns"))
            })?;
        Ok(self.plan(codec, payload))
    }

    fn plan(&self, codec: PageCodec, payload: u64) -> ColumnPlan {
        let frame = match (codec, self.sketch) {
            (PageCodec::For, Some(s)) if self.rows > 0 => Some(IntFrame::For {
                min: s.min,
                width: s.for_width(),
            }),
            (PageCodec::Delta, Some(s)) if self.rows > 0 => Some(IntFrame::Delta {
                min_d: s.min_delta,
                width: s.delta_width(),
            }),
            _ => None,
        };
        ColumnPlan {
            codec,
            frame,
            stream: Stream::Detached,
            bytes: PAGE_HEADER_BYTES as u64 + payload,
            dict_bytes: if codec == PageCodec::Dict {
                self.dict_bytes
            } else {
                0
            },
            sketch: self.sketch,
        }
    }
}

impl ColumnPlan {
    /// A whole column's storage page under `codec` (its own scratch): an
    /// error if the codec does not apply to the column's type.
    fn page(col: &ColumnData, codec: PageCodec) -> Result<ColumnPlan> {
        let rows = Rows { col, sel: None };
        Race::run(rows, Some(codec), &mut PlanScratch::default()).forced(codec)
    }

    /// A whole column's storage page under the size-based picker.
    fn picked(col: &ColumnData) -> ColumnPlan {
        let rows = Rows { col, sel: None };
        Race::run(rows, None, &mut PlanScratch::default()).smallest()
    }

    /// Page metadata of a plan over the whole (dense) column `col`.
    fn meta(&self, col: &ColumnData) -> EncodedPage {
        EncodedPage {
            codec: self.codec,
            encoded_bytes: self.bytes,
            decoded_bytes: col.byte_size() as u64,
            rows: col.len(),
            dict_bytes: self.dict_bytes,
        }
    }

    /// Serializes the page planned over `rows`: appends exactly `bytes`
    /// bytes to `out`.
    fn emit(&self, rows: Rows<'_>, out: &mut Vec<u8>) -> Result<()> {
        let count = page_rows(rows.len())?;
        let start = out.len();
        out.reserve(self.bytes as usize);
        let (flags, stream_id) = match self.stream {
            Stream::Detached => (0, None),
            Stream::Fills(id) => (PAGE_FLAG_WIRE_STREAM, Some(id)),
            Stream::Refers(id) => (PAGE_FLAG_WIRE_STREAM | PAGE_FLAG_DICT_REF, Some(id)),
        };
        out.extend_from_slice(&PAGE_MAGIC);
        out.push(PAGE_VERSION);
        out.push(self.codec.tag());
        out.push(dtype_tag(rows.col.data_type()));
        out.push(flags);
        push_u32(out, count);
        if let Some(id) = stream_id {
            push_u32(out, id);
        }
        let (n, bool_col) = (rows.len(), rows.col.data_type() == DataType::Bool);
        fixed_values!(rows, |it| self.emit_fixed(it, n, bool_col, out), else self.emit_strs(rows, out));
        let wrote = (out.len() - start) as u64;
        debug_assert_eq!(wrote, self.bytes, "emit must write the planned size");
        Ok(())
    }

    /// The page planned over `rows`, as its own blob.
    fn blob(&self, rows: Rows<'_>) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.emit(rows, &mut out)?;
        Ok(out)
    }

    /// The metadata and bytes of the page planned over all of `col`.
    fn encode(&self, col: &ColumnData) -> Result<(EncodedPage, Vec<u8>)> {
        Ok((self.meta(col), self.blob(Rows { col, sel: None })?))
    }

    /// The payload of a fixed-width column, from its `n` values as `i64`s.
    fn emit_fixed(
        &self,
        mut vals: impl Iterator<Item = i64>,
        n: usize,
        bool_col: bool,
        out: &mut Vec<u8>,
    ) {
        let put = |out: &mut Vec<u8>, x: i64| {
            if bool_col {
                out.push(x as u8);
            } else {
                out.extend_from_slice(&x.to_le_bytes());
            }
        };
        // Frame-reuse pages ride the receiver's cached frame header.
        let inline_frame = !matches!(self.stream, Stream::Refers(_));
        match (self.codec, self.frame) {
            // Plain: size the payload once, then write each value into its word.
            (PageCodec::Plain, _) if bool_col => out.extend(vals.map(|x| x as u8)),
            (PageCodec::Plain, _) => {
                let start = out.len();
                out.resize(start + n * 8, 0);
                let words = out[start..].chunks_exact_mut(8);
                words
                    .zip(vals)
                    .for_each(|(w, x)| w.copy_from_slice(&x.to_le_bytes()));
            }
            (PageCodec::Rle, _) => emit_runs(out, vals, |x| x, |out, &x| put(out, x)),
            (PageCodec::Dict, _) => {
                let (local, ids) = IntDict::encode(vals);
                push_u32(out, local.len() as u32);
                local.values().iter().for_each(|&entry| put(out, entry));
                write_ids_section(out, ids.into_iter(), local.len());
            }
            (_, Some(IntFrame::For { min, width })) => {
                if inline_frame {
                    out.extend_from_slice(&min.to_le_bytes());
                    out.push(width as u8);
                }
                pack_bits(out, vals.map(|x| x.wrapping_sub(min) as u64), width);
            }
            (_, Some(IntFrame::Delta { min_d, width })) => {
                let Some(mut prev) = vals.next() else { return };
                out.extend_from_slice(&prev.to_le_bytes());
                if inline_frame {
                    out.extend_from_slice(&min_d.to_le_bytes());
                    out.push(width as u8);
                }
                let deltas = vals.map(|x| {
                    let d = x.wrapping_sub(prev).wrapping_sub(min_d) as u64;
                    prev = x;
                    d
                });
                pack_bits(out, deltas, width);
            }
            // An empty For/Delta page has no payload.
            (PageCodec::For | PageCodec::Delta, None) => {}
        }
    }

    /// The payload of a string column under either in-memory encoding.
    fn emit_strs(&self, rows: Rows<'_>, out: &mut Vec<u8>) {
        let sel = rows.sel;
        // Dictionary section (unless the receiver holds it) + packed ids.
        let put_dict =
            |out: &mut Vec<u8>, dict: &Dictionary, ids: &mut dyn Iterator<Item = u32>| {
                if !matches!(self.stream, Stream::Refers(_)) {
                    write_dictionary_section(out, dict);
                }
                write_ids_section(out, ids, dict.len());
            };
        match (rows.col, self.codec) {
            (ColumnData::Dict { ids, dict }, PageCodec::Dict)
                if self.stream != Stream::Detached =>
            {
                each_row!(ids, sel, |it| put_dict(out, dict, &mut it.copied()))
            }
            // Storage Dict pages: a local dictionary in first-appearance
            // order over this page's rows only, then local ids.
            (ColumnData::Dict { ids, dict }, PageCodec::Dict) => {
                let mut remap: Vec<u32> = vec![u32::MAX; dict.len()];
                let mut local = Dictionary::new();
                let local_ids: Vec<u32> = each_row!(ids, sel, |it| it
                    .map(|&id| {
                        if remap[id as usize] == u32::MAX {
                            remap[id as usize] = local.intern(dict.get(id));
                        }
                        remap[id as usize]
                    })
                    .collect());
                put_dict(out, &local, &mut local_ids.into_iter());
            }
            (ColumnData::Dict { ids, dict }, codec) => {
                each_row!(ids, sel, |it| emit_str_rows(
                    out,
                    codec,
                    it.map(|&id| dict.get(id))
                ))
            }
            _ => {}
        }
    }
}

/// Plain and Rle string payloads.
fn emit_str_rows<'s>(out: &mut Vec<u8>, codec: PageCodec, rows: impl Iterator<Item = &'s str>) {
    match codec {
        PageCodec::Rle => emit_runs(out, rows, |s| s, |out, s| push_str(out, s)),
        _ => rows.for_each(|s| push_str(out, s)),
    }
}

/// Writes an Rle payload: the `u32` run count, then `u32` run length + one
/// value (via `put`) per run of items with equal `key`s.
fn emit_runs<T, K: PartialEq>(
    out: &mut Vec<u8>,
    mut items: impl Iterator<Item = T>,
    key: impl Fn(&T) -> &K,
    mut put: impl FnMut(&mut Vec<u8>, &T),
) {
    let run_count_at = out.len();
    push_u32(out, 0); // patched below
    let mut runs = 0u32;
    if let Some(mut cur) = items.next() {
        let mut len = 1u32;
        for x in items {
            if key(&x) == key(&cur) {
                len += 1;
            } else {
                runs += 1;
                push_u32(out, len);
                put(out, &cur);
                cur = x;
                len = 1;
            }
        }
        runs += 1;
        push_u32(out, len);
        put(out, &cur);
    }
    out[run_count_at..run_count_at + 4].copy_from_slice(&runs.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Writes the dictionary section [`read_dictionary_section`] reads —
/// [`dictionary_page_bytes`] long: the `u32` entry count, then each
/// entry's `u32` length and bytes.
pub(crate) fn write_dictionary_section(out: &mut Vec<u8>, dict: &Dictionary) {
    push_u32(out, dict.len() as u32);
    dict.values().iter().for_each(|entry| push_str(out, entry));
}

/// Writes the ids section [`read_packed_ids`] reads for a dictionary of
/// `entries`: the `u8` bit width [`id_bit_width`] gives, then every id
/// bit-packed at it, LSB-first.
pub(crate) fn write_ids_section(out: &mut Vec<u8>, ids: impl Iterator<Item = u32>, entries: usize) {
    let width = id_bit_width(entries);
    out.push(width as u8);
    pack_bits(out, ids.map(u64::from), width);
}

/// Header flag bit marking a wire-stream page that *references* stream
/// state the receiver already holds instead of inlining it: a dict page
/// riding on an already-shipped dictionary (ids section only), or a
/// FoR/Delta page riding on an already-shipped int frame (packed offsets
/// only, no frame header).
pub const PAGE_FLAG_DICT_REF: u8 = 1;
/// Header flag bit marking a wire-stream page: a `u32` stream id follows
/// the header, naming the entry in the receiver's cache this page fills
/// (first transfer of a dictionary or int frame) or references
/// ([`PAGE_FLAG_DICT_REF`] also set).
pub const PAGE_FLAG_WIRE_STREAM: u8 = 2;

/// Exact size in bytes of `encode_column(col, codec)` without materializing
/// the page.
pub fn encoded_size(col: &ColumnData, codec: PageCodec) -> Result<u64> {
    Ok(ColumnPlan::page(col, codec)?.bytes)
}

/// The smallest-page codec for this column (ties break toward the earlier
/// candidate, so the choice is deterministic).
pub fn pick_codec(col: &ColumnData) -> PageCodec {
    ColumnPlan::picked(col).codec
}

/// Page metadata under the size-based codec picker — what
/// [`crate::partition::MicroPartition`] stores per column. Size-only:
/// partitions account every column of every partition, so no payload is
/// materialized.
pub fn best_page(col: &ColumnData) -> EncodedPage {
    ColumnPlan::picked(col).meta(col)
}

/// Encodes a column as one self-contained page under the given codec.
/// Returns the page metadata and the bytes; `decode_column` inverts it.
pub fn encode_column(col: &ColumnData, codec: PageCodec) -> Result<(EncodedPage, Vec<u8>)> {
    ColumnPlan::page(col, codec)?.encode(col)
}

/// Encodes under the size-picked codec.
pub fn encode_best(col: &ColumnData) -> Result<(EncodedPage, Vec<u8>)> {
    ColumnPlan::picked(col).encode(col)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over page bytes — and over the
/// `CIPF` / `CIPT` containers that carry them (`tiers.rs`).
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, at: 0 }
    }

    fn truncated(&self, n: usize) -> CiError {
        err(format!(
            "truncated input: need {n} bytes at offset {}, have {}",
            self.at,
            self.bytes.len().saturating_sub(self.at)
        ))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = (self.at.checked_add(n))
            .and_then(|end| self.bytes.get(self.at..end))
            .ok_or_else(|| self.truncated(n))?;
        self.at += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let a = (self.bytes.get(self.at..))
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or_else(|| self.truncated(N))?;
        self.at += N;
        Ok(*a)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| err(format!("invalid UTF-8 in page: {e}")))
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> u64 {
        (self.bytes.len() - self.at) as u64
    }

    /// Errors unless at least `bytes` more payload bytes exist. Decoders
    /// call this with the *declared* payload size before any
    /// row-proportional allocation, so forged headers fail cheaply.
    fn need(&self, bytes: u64) -> Result<()> {
        if bytes <= self.remaining() {
            Ok(())
        } else {
            Err(err(format!(
                "truncated page: payload declares {bytes} bytes, {} remain",
                self.remaining()
            )))
        }
    }

    pub(crate) fn done(&self) -> Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(err(format!(
                "{} trailing bytes after page payload",
                self.bytes.len() - self.at
            )))
        }
    }
}

/// Decoder hardening bound on the declared row count of a single page.
///
/// Width-0 frames, empty-dictionary ids, and RLE runs legitimately encode
/// *constant* row ranges in O(1) payload bytes, so payload-size validation
/// alone cannot bound the decode allocation — a forged header could demand
/// a 32 GB materialization from a 21-byte page. Real pages are per-column
/// chunks of one micro-partition (thousands to at most a few hundred
/// thousand rows); this bound leaves ~80x headroom over the largest page
/// in the workspace while capping a forged constant page's decode at
/// 128 MB of i64s.
pub const MAX_DECODE_ROWS: usize = 1 << 24;

/// Validates a column length against the page row bound shared by encoder
/// and decoder, keeping `decode(encode(c)) == c` total: anything the
/// encoder accepts, [`parse_header`] accepts back.
fn page_rows(len: usize) -> Result<u32> {
    if len > MAX_DECODE_ROWS {
        return Err(err(format!(
            "page overflow: {len} rows exceeds the page bound of {MAX_DECODE_ROWS}"
        )));
    }
    Ok(len as u32)
}

/// [`packed_id_bytes`] with overflow-checked arithmetic, for decoders fed
/// untrusted row counts and widths.
fn packed_bytes_checked(rows: usize, width: u32) -> Result<u64> {
    (rows as u64)
        .checked_mul(width as u64)
        .map(|bits| bits.div_ceil(8))
        .ok_or_else(|| {
            err(format!(
                "bit-packed section overflows: {rows} rows at {width} bits"
            ))
        })
}

/// The parsed fixed header of one page.
struct PageHeader {
    codec: PageCodec,
    dt: DataType,
    flags: u8,
    rows: usize,
}

fn parse_header(c: &mut Cursor) -> Result<PageHeader> {
    let magic = c.take(4)?;
    if magic != PAGE_MAGIC {
        return Err(err(format!("bad page magic {magic:02x?}")));
    }
    let version = c.u8()?;
    if version != PAGE_VERSION {
        return Err(err(format!("unsupported page version {version}")));
    }
    let codec = PageCodec::from_tag(c.u8()?)?;
    let dt = dtype_from_tag(c.u8()?)?;
    let flags = c.u8()?;
    let rows = c.u32()? as usize;
    if rows > MAX_DECODE_ROWS {
        return Err(err(format!(
            "page declares {rows} rows, decoder bound is {MAX_DECODE_ROWS}"
        )));
    }
    Ok(PageHeader {
        codec,
        dt,
        flags,
        rows,
    })
}

/// Decodes a self-contained page back into a column. Every malformed input
/// (bad magic/version/tags, truncated payload, invalid UTF-8, out-of-range
/// ids, bit widths over 64, run/row count mismatch, trailing bytes) is an
/// `Err`, never a panic — and declared sizes are checked against the real
/// payload before any row-proportional allocation. Wire-stream pages
/// (flagged, dictionary-by-reference) need a [`WireDecoder`].
pub fn decode_column(bytes: &[u8]) -> Result<ColumnData> {
    let mut c = Cursor::new(bytes);
    let h = parse_header(&mut c)?;
    if h.flags & (PAGE_FLAG_WIRE_STREAM | PAGE_FLAG_DICT_REF) != 0 {
        return Err(err(
            "wire-stream page needs the stream's dictionary cache (WireDecoder)".into(),
        ));
    }
    if h.flags != 0 {
        return Err(err(format!("unknown page flags {:#04x}", h.flags)));
    }
    let (col, _) = decode_payload(&mut c, &h, None)?;
    c.done()?;
    Ok(col)
}

/// Decodes the codec payload of a page (everything after the header and a
/// wire page's stream id) into a column of exactly `h.rows` values. A
/// FoR/Delta page reads its frame inline, or rides `cached` — the frame a
/// wire stream's receiver holds for a frame-reuse page — and returns the
/// frame it decoded through next to the column (`None` for other codecs).
fn decode_payload(
    c: &mut Cursor,
    h: &PageHeader,
    cached: Option<IntFrame>,
) -> Result<(ColumnData, Option<IntFrame>)> {
    let (codec, dt, rows) = (h.codec, h.dt, h.rows);
    let mut frame = None;
    let col = match codec {
        PageCodec::Plain => match dt {
            // Fixed-width values: one bound on the whole payload, then a
            // pass over exact-size words.
            DataType::Int64 => {
                let words = c.take(rows * 8)?.chunks_exact(8);
                ColumnData::Int64(words.map(|w| le_u64(w) as i64).collect())
            }
            DataType::Float64 => {
                let words = c.take(rows * 8)?.chunks_exact(8);
                ColumnData::Float64(words.map(|w| f64::from_bits(le_u64(w))).collect())
            }
            DataType::Bool => {
                let bytes = c.take(rows)?;
                bytes.iter().try_for_each(|&b| decode_bool(b).map(drop))?;
                ColumnData::Bool(bytes.iter().map(|&b| b == 1).collect())
            }
            DataType::Utf8 => {
                // Every string costs at least its 4-byte length header.
                c.need(rows as u64 * 4)?;
                let mut dict = Dictionary::new();
                let ids = (0..rows)
                    .map(|_| Ok(dict.intern(c.str()?)))
                    .collect::<Result<Vec<u32>>>()?;
                ColumnData::Dict {
                    ids,
                    dict: Arc::new(dict),
                }
            }
        },
        PageCodec::Dict => match dt {
            DataType::Utf8 => {
                let dict = read_dictionary_section(c)?;
                let ids = read_packed_ids(c, rows, dict.len())?;
                ColumnData::Dict {
                    ids,
                    dict: Arc::new(dict),
                }
            }
            DataType::Int64 => {
                let dict = read_int_dictionary_section(c)?;
                let ids = read_packed_ids(c, rows, dict.len())?;
                ColumnData::Int64(ids.into_iter().map(|id| dict.get(id)).collect())
            }
            _ => return Err(err(format!("dict page with unsupported dtype {dt}"))),
        },
        PageCodec::Rle => {
            let runs = c.u32()?;
            // A run costs at least its 4-byte length plus a 1-byte value.
            c.need(runs as u64 * 5)?;
            let mut col = ColumnData::with_capacity(dt, rows);
            let mut decoded = 0usize;
            for _ in 0..runs {
                let len = c.u32()? as usize;
                decoded = decoded
                    .checked_add(len)
                    .filter(|&d| d <= rows)
                    .ok_or_else(|| err(format!("rle runs exceed declared {rows} rows")))?;
                match &mut col {
                    ColumnData::Int64(v) => {
                        let x = c.u64()? as i64;
                        v.extend(std::iter::repeat_n(x, len));
                    }
                    ColumnData::Float64(v) => {
                        let x = f64::from_bits(c.u64()?);
                        v.extend(std::iter::repeat_n(x, len));
                    }
                    ColumnData::Bool(v) => {
                        let b = decode_bool(c.u8()?)?;
                        v.extend(std::iter::repeat_n(b, len));
                    }
                    ColumnData::Dict { ids, dict } => {
                        let id = Arc::make_mut(dict).intern(c.str()?);
                        ids.extend(std::iter::repeat_n(id, len));
                    }
                }
            }
            if decoded != rows {
                return Err(err(format!(
                    "rle page decodes {decoded} rows, header declares {rows}"
                )));
            }
            col
        }
        PageCodec::For | PageCodec::Delta => {
            if !codec.applies_to(dt) {
                return Err(err(format!(
                    "{} page with unsupported dtype {dt}",
                    codec.name()
                )));
            }
            if rows == 0 {
                if cached.is_some() {
                    return Err(err(format!(
                        "{} frame reuse page declares 0 rows",
                        codec.name()
                    )));
                }
                ColumnData::empty(dt)
            } else {
                let delta = codec == PageCodec::Delta;
                if cached.is_some_and(|f| matches!(f, IntFrame::Delta { .. }) != delta) {
                    let name = codec.name();
                    return Err(err(format!(
                        "wire {name} page reuses a stream frame of the other kind"
                    )));
                }
                // Delta pages ship their first value whether or not they
                // carry the frame.
                let first = if delta { c.u64()? as i64 } else { 0 };
                let f = match cached {
                    Some(f) => f,
                    None => {
                        let (base, width) = (c.u64()? as i64, c.u8()? as u32);
                        match delta {
                            true => IntFrame::Delta { min_d: base, width },
                            false => IntFrame::For { min: base, width },
                        }
                    }
                };
                let (IntFrame::For { width, .. } | IntFrame::Delta { width, .. }) = f;
                if width > 64 {
                    let name = codec.name();
                    return Err(err(format!("{name} page bit width {width} exceeds 64")));
                }
                let packed_rows = rows - usize::from(delta);
                let packed = c.take(packed_bytes_checked(packed_rows, width)? as usize)?;
                frame = Some(f);
                match (f, dt) {
                    (IntFrame::For { min, .. }, DataType::Int64) => {
                        ColumnData::Int64(match width {
                            0 => vec![min; rows],
                            1..=16 => unpack_for_i64_small(packed, rows, width, min),
                            _ => {
                                let mut v = Vec::with_capacity(rows);
                                let mut tmp = [0i64; 8];
                                unpack_bit_blocks(packed, rows, width, |blk| {
                                    for (t, &off) in tmp.iter_mut().zip(blk) {
                                        *t = min.wrapping_add(off as i64);
                                    }
                                    v.extend_from_slice(&tmp[..blk.len()]);
                                });
                                v
                            }
                        })
                    }
                    (IntFrame::For { min, .. }, _) => {
                        if !matches!(min, 0 | 1) {
                            return Err(err(format!("bool for page with frame min {min}")));
                        }
                        let mut v = Vec::with_capacity(rows);
                        let mut bad = None;
                        unpack_bits(packed, rows, width, |off| {
                            match min.wrapping_add(off as i64) {
                                0 => v.push(false),
                                1 => v.push(true),
                                other => bad = Some(other),
                            }
                        });
                        if let Some(other) = bad {
                            return Err(err(format!("bool for page decodes value {other}")));
                        }
                        ColumnData::Bool(v)
                    }
                    // Every delta equals `min_d`: the column is an arithmetic
                    // sequence, materialized without a running carry.
                    (IntFrame::Delta { min_d, .. }, _) if width == 0 => ColumnData::Int64(
                        (0..rows as i64)
                            .map(|k| first.wrapping_add(min_d.wrapping_mul(k)))
                            .collect(),
                    ),
                    (IntFrame::Delta { min_d, .. }, _) => {
                        let mut v = Vec::with_capacity(rows);
                        v.push(first);
                        let mut cur = first;
                        let mut tmp = [0i64; 8];
                        unpack_bit_blocks(packed, packed_rows, width, |blk| {
                            for (t, &off) in tmp.iter_mut().zip(blk) {
                                cur = cur.wrapping_add(min_d.wrapping_add(off as i64));
                                *t = cur;
                            }
                            v.extend_from_slice(&tmp[..blk.len()]);
                        });
                        ColumnData::Int64(v)
                    }
                }
            }
        }
    };
    if col.len() != rows {
        return Err(err(format!(
            "page declares {rows} rows but decoded {}",
            col.len()
        )));
    }
    Ok((col, frame))
}

fn decode_bool(b: u8) -> Result<bool> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(err(format!("invalid bool byte {other}"))),
    }
}

/// Reads an inline dictionary section (`u32` entry count, then
/// length-prefixed entries), validating the declared count against the
/// remaining payload before interning and rejecting duplicate entries.
/// Shared by storage Dict pages, wire dictionary transfers and `CIPT`
/// manifests so the decoders can never drift.
pub(crate) fn read_dictionary_section(c: &mut Cursor) -> Result<Dictionary> {
    let entries = c.u32()? as usize;
    c.need(entries as u64 * 4)?;
    let mut dict = Dictionary::new();
    for _ in 0..entries {
        dict.intern(c.str()?);
    }
    if dict.len() != entries {
        return Err(err(format!(
            "dictionary section holds duplicate entries ({} distinct of {entries})",
            dict.len()
        )));
    }
    Ok(dict)
}

/// Reads the dictionary section of an int Dict page (`u32` entry count,
/// then raw 8-byte entries), validating the declared count against the
/// remaining payload before interning and rejecting duplicate entries. The
/// page's ids are looked up through it as they decode, so the column comes
/// back as `Int64`.
fn read_int_dictionary_section(c: &mut Cursor) -> Result<IntDict> {
    let entries = c.u32()? as usize;
    c.need(entries as u64 * 8)?;
    let mut dict = IntDict::new();
    for _ in 0..entries {
        dict.intern(c.u64()? as i64);
    }
    if dict.len() != entries {
        return Err(err(format!(
            "int dictionary section holds duplicate entries ({} distinct of {entries})",
            dict.len()
        )));
    }
    Ok(dict)
}

/// Reads a bit-packed ids section (`u8` width, then the packed ids) for a
/// dictionary of `entries`, validating the width, the payload size (before
/// any row-proportional allocation), and every id's range. Shared by
/// storage Dict pages, both wire dict page forms and `CIPF` dict-ref columns.
pub(crate) fn read_packed_ids(c: &mut Cursor, rows: usize, entries: usize) -> Result<Vec<u32>> {
    let width = c.u8()? as u32;
    if width > 32 || (entries > 1 && width < id_bit_width(entries)) {
        return Err(err(format!(
            "dict page bit width {width} invalid for {entries} entries"
        )));
    }
    if rows > 0 && entries == 0 {
        return Err(err(format!("dict page has {rows} rows but no entries")));
    }
    let packed = c.take(packed_bytes_checked(rows, width)? as usize)?;
    let mut ids = Vec::with_capacity(rows);
    let mut tmp = [0u32; 8];
    unpack_bit_blocks(packed, rows, width, |blk| {
        for (t, &v) in tmp.iter_mut().zip(blk) {
            *t = v as u32;
        }
        ids.extend_from_slice(&tmp[..blk.len()]);
    });
    if let Some(&bad) = ids.iter().find(|&&id| id as usize >= entries.max(1)) {
        return Err(err(format!(
            "dict page id {bad} out of range for {entries} entries"
        )));
    }
    Ok(ids)
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Bound on a wire stream's column positions (schemas are far narrower; the
/// tier file format's `u16` column count is the workspace-wide limit). It
/// keeps a forged stream id from sizing the receiver's frame cache.
pub const MAX_STREAM_COLUMNS: usize = 1 << 16;

/// Serializes batches for exchange / gather transfers with one-time
/// dictionary shipping: the first batch referencing a shared dictionary pays
/// [`dictionary_page_bytes`] for it, later batches ship only bit-packed ids
/// (at the *table* dictionary's bit width, since the receiver already holds
/// every entry). Non-dict columns travel as their best self-contained page.
///
/// One encoder models one transfer stream (the engine keeps one per pipeline
/// execution), so dictionary dedup is scoped exactly like the paper's
/// per-(table, column) one-time transfer. Dictionary identity is `Arc`
/// pointer identity — the invariant the catalog establishes by interning one
/// dictionary per table column at load; the encoder holds a reference to
/// every dictionary it marks shipped, so a freed-and-reallocated address can
/// never alias an earlier entry and silently skip a transfer.
///
/// Int columns get the same stream-awareness for their codec *frames*: when
/// FoR/Delta wins the codec pick, the frame header (FoR base + bit width,
/// or delta base + width) ships once under the column's stream position and
/// later chunks ship packed offsets only ([`PAGE_FLAG_DICT_REF`]), each
/// chunk re-deriving a fresh frame mid-stream the moment its values stop
/// fitting the cached one or reuse stops being byte-beneficial (ties reuse).
///
/// Every column goes through one `ColumnPlan`, made in two halves: a
/// [`WireSketch`] (stateless — a pure function of the batch) and the fold of
/// that sketch into the stream ([`WireEncoder::sketched_wire_bytes`] /
/// [`WireEncoder::encode_sketched`] — first-sight dictionaries, frame reuse).
/// [`WireEncoder::sketched_wire_bytes`] returns the folded plans' `bytes`,
/// [`WireEncoder::encode_sketched`] `emit`s them.
#[derive(Debug, Default)]
pub struct WireEncoder {
    /// Pointer-identity → `(stream dictionary id, pinned dictionary)`.
    shipped: HashMap<usize, (u32, Arc<Dictionary>)>,
    /// Stream column position → the FoR/Delta frame last shipped there.
    frames: Vec<Option<IntFrame>>,
}

/// The stateless half of one batch's wire plan: per column, the one pass
/// over its rows (value sketch, distinct count, codec pick, own frame) that
/// does not depend on what the stream shipped before. Owned and `Send`:
/// whoever holds the batch while it is hot computes it, and the stream's
/// owner folds it later, in stream order, in O(columns).
///
/// A column's plan is a pure function of the rows it covers, so it is
/// computed once and reused wherever the same column ships again. A plan
/// comes from one of three places:
///
/// * **the partition** — [`crate::partition::MicroPartition::wire`], built
///   by the codec race registration already runs for the storage pages (a
///   non-dict column's wire plan *is* its storage plan; a dict column's is
///   the O(1) ids-only plan);
/// * **the previous transfer step** — [`WireSketch::reusing`] takes a prior
///   sketch's plan for every column that sketch [covers](WireSketch::covers):
///   the very `Arc` it was planned over, whole, in a batch with no
///   selection (a probe's pass-through columns, a pure-column projection);
/// * **a fresh pass** — every other column ([`WireSketch::of`]).
///
/// A reused plan cannot change a bill: the sketch holds the covered
/// columns' `Arc`s, so their rows cannot change or their addresses be
/// reused while it lives, and a plan over the same rows is the plan a
/// fresh pass would compute.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSketch {
    rows: usize,
    cols: Vec<ColumnPlan>,
    /// The columns `cols` were planned over, whole; empty when the sketched
    /// batch had a selection, whose plans cover only the selected rows.
    covered: Vec<Arc<ColumnData>>,
}

impl WireSketch {
    /// Sketches `batch` over its logical rows (read through the selection,
    /// never compacted).
    pub fn of(batch: &RecordBatch) -> WireSketch {
        let (sel, mut scratch) = (batch.selection(), PlanScratch::default());
        let cols = (batch.columns().iter())
            .map(|col| ColumnPlan::wire(Rows { col, sel }, &mut scratch))
            .collect();
        WireSketch::over(batch, cols)
    }

    /// [`WireSketch::of`] `batch`, taking the plan of every column `prior`
    /// [covers](WireSketch::covers) from `prior` instead of a fresh pass.
    pub fn reusing(batch: &RecordBatch, prior: &WireSketch) -> WireSketch {
        let (sel, mut scratch) = (batch.selection(), PlanScratch::default());
        let cols = (batch.columns().iter().enumerate())
            .map(|(i, col)| match prior.plan_of(batch, i) {
                Some(plan) => plan,
                None => ColumnPlan::wire(Rows { col, sel }, &mut scratch),
            })
            .collect();
        WireSketch::over(batch, cols)
    }

    /// The storage page of every column of the dense `batch` under the
    /// size-based picker ([`best_page`]), and the batch's sketch from the
    /// same codec race: a partition pays one race per column, not two.
    pub(crate) fn with_pages(batch: &RecordBatch) -> (WireSketch, Vec<EncodedPage>) {
        debug_assert!(batch.selection().is_none(), "partitions are dense");
        let (cols, pages) = (batch.columns().iter())
            .map(|col| {
                let page = ColumnPlan::picked(col);
                let wire = match &**col {
                    ColumnData::Dict { dict, .. } => ColumnPlan::stream_ids(col.len(), dict),
                    _ => page,
                };
                (wire, page.meta(col))
            })
            .unzip();
        (WireSketch::over(batch, cols), pages)
    }

    /// Whether this sketch holds the plan of `batch`'s column `i` as it
    /// stands: `batch` has no selection, and the sketch was taken over that
    /// very column (`Arc` identity), whole.
    pub fn covers(&self, batch: &RecordBatch, i: usize) -> bool {
        self.plan_of(batch, i).is_some()
    }

    /// The plan [`WireSketch::covers`] promises.
    fn plan_of(&self, batch: &RecordBatch, i: usize) -> Option<ColumnPlan> {
        if batch.selection().is_some() {
            return None;
        }
        let col = batch.columns().get(i)?;
        let at = self.covered.iter().position(|c| Arc::ptr_eq(c, col))?;
        Some(self.cols[at])
    }

    /// The sketch of `batch` from its column plans.
    fn over(batch: &RecordBatch, cols: Vec<ColumnPlan>) -> WireSketch {
        let covered = match batch.selection() {
            Some(_) => Vec::new(),
            None => batch.columns().to_vec(),
        };
        WireSketch {
            rows: batch.rows(),
            cols,
            covered,
        }
    }
}

impl ColumnPlan {
    /// The stream-independent plan of one wire column: a dict column's
    /// ids-only page into the (yet unnamed) shared dictionary, every other
    /// column's best self-contained page.
    fn wire(rows: Rows<'_>, scratch: &mut PlanScratch) -> ColumnPlan {
        match rows.col {
            ColumnData::Dict { dict, .. } => ColumnPlan::stream_ids(rows.len(), dict),
            _ => Race::run(rows, None, scratch).smallest(),
        }
    }

    /// The ids-only wire page of `rows` ids into the stream's copy of `dict`.
    fn stream_ids(rows: usize, dict: &Dictionary) -> ColumnPlan {
        let ids = packed_id_bytes(rows, id_bit_width(dict.len()));
        ColumnPlan {
            codec: PageCodec::Dict,
            frame: None,
            stream: Stream::Detached,
            // Header + stream dict id + bit width + ids.
            bytes: PAGE_HEADER_BYTES as u64 + 4 + 1 + ids,
            dict_bytes: 0,
            sketch: None,
        }
    }
}

/// Caches `frame` under stream position `slot` (sender and receiver alike).
fn cache_frame(frames: &mut Vec<Option<IntFrame>>, slot: usize, frame: IntFrame) -> Result<()> {
    if slot >= MAX_STREAM_COLUMNS {
        return Err(err(format!(
            "stream frame {slot} exceeds the bound of {MAX_STREAM_COLUMNS}"
        )));
    }
    if frames.len() <= slot {
        frames.resize(slot + 1, None);
    }
    frames[slot] = Some(frame);
    Ok(())
}

/// Whether every wrapping offset `x − base` fits `width` bits, for values
/// whose extremes are `lo` and `hi`. The frame covers the `i64` interval
/// `[base, base + 2^width − 1]`, so the two bounds decide it without a
/// rescan — unless that interval wraps past `i64::MAX` (a frame derived at
/// the very edge of the domain), where only the `offsets` themselves can.
fn frame_covers(
    (base, width): (i64, u32),
    (lo, hi): (i64, i64),
    mut offsets: impl Iterator<Item = u64>,
) -> bool {
    if width >= 64 {
        return true;
    }
    match base.checked_add_unsigned((1u64 << width) - 1) {
        Some(top) => base <= lo && hi <= top,
        None => offsets.all(|off| off >> width == 0),
    }
}

impl WireEncoder {
    /// A fresh stream: no dictionaries shipped yet.
    pub fn new() -> WireEncoder {
        WireEncoder::default()
    }

    /// Marks `dict` shipped (pinning it alive for the encoder's lifetime);
    /// returns its stream dictionary id and `true` on the first sighting.
    fn ship(&mut self, dict: &Arc<Dictionary>) -> (u32, bool) {
        let next_id = self.shipped.len() as u32;
        let entry = self
            .shipped
            .entry(Arc::as_ptr(dict) as usize)
            .or_insert_with(|| (next_id, dict.clone()));
        (entry.0, entry.0 == next_id)
    }

    /// The stateful half of wire planning: folds the [`ColumnPlan::wire`]
    /// sketch of `rows` into the stream at position `stream_col`, updating
    /// the shipped-dictionary set and the int frame cache — the single
    /// decision point behind size-only accounting and real serialization
    /// alike. O(1) per column, except at the edge of the `i64` domain (see
    /// [`frame_covers`]).
    ///
    /// Dict columns ship ids into the stream's shared dictionary, inlining
    /// it on first sight. `Int64` columns reuse the position's cached frame
    /// when every offset fits it and the offsets-only page is no larger
    /// than the alternative (ties prefer reuse); otherwise they ship the
    /// chunk's own best page — carrying a fresh frame when FoR/Delta won
    /// the pick, which replaces the cache entry (mid-stream re-derivation).
    /// Every other column ships its best self-contained page.
    fn fold(
        &mut self,
        rows: Rows<'_>,
        mut plan: ColumnPlan,
        stream_col: u32,
    ) -> Result<ColumnPlan> {
        if let ColumnData::Dict { dict, .. } = rows.col {
            let (dict_id, first) = self.ship(dict);
            plan.stream = Stream::Refers(dict_id);
            if first {
                plan.stream = Stream::Fills(dict_id);
                plan.dict_bytes = dictionary_page_bytes(dict);
                plan.bytes += plan.dict_bytes;
            }
            return Ok(plan);
        }
        let (ColumnData::Int64(v), Some(s)) = (rows.col, plan.sketch) else {
            return Ok(plan);
        };
        if s.rows == 0 {
            return Ok(plan);
        }
        let slot = stream_col as usize;
        let wire_header = PAGE_HEADER_BYTES as u64 + 4;
        // The cached frame and the offsets-only page size, if every offset fits.
        let reuse = self.frames.get(slot).copied().flatten().and_then(|frame| {
            let (fits, bytes) = match frame {
                IntFrame::For { min, width } => (
                    each_row!(v, rows.sel, |it| frame_covers(
                        (min, width),
                        (s.min, s.max),
                        it.map(|&x| x.wrapping_sub(min) as u64)
                    )),
                    wire_header + packed_id_bytes(s.rows, width),
                ),
                IntFrame::Delta { min_d, width } => (
                    s.rows < 2
                        || each_row!(v, rows.sel, |it| frame_covers(
                            (min_d, width),
                            (s.min_delta, s.max_delta),
                            (it.clone().skip(1).zip(it))
                                .map(|(&x, &prev)| x.wrapping_sub(prev).wrapping_sub(min_d) as u64)
                        )),
                    wire_header + 8 + packed_id_bytes(s.rows - 1, width),
                ),
            };
            fits.then_some((frame, bytes))
        });
        // A frame-bearing page also carries the `u32` stream id.
        let own_bytes = plan.bytes + if plan.frame.is_some() { 4 } else { 0 };
        match reuse {
            Some((frame, bytes)) if bytes <= own_bytes => {
                plan.codec = match frame {
                    IntFrame::For { .. } => PageCodec::For,
                    IntFrame::Delta { .. } => PageCodec::Delta,
                };
                plan.frame = Some(frame);
                plan.stream = Stream::Refers(stream_col);
                plan.bytes = bytes;
            }
            _ => {
                if let Some(frame) = plan.frame {
                    cache_frame(&mut self.frames, slot, frame)?;
                    plan.stream = Stream::Fills(stream_col);
                    plan.bytes = own_bytes;
                }
            }
        }
        Ok(plan)
    }

    /// Folds `sketch` — which must be [`WireSketch::of`] this very `batch`
    /// — column by column, stream positions in schema order.
    fn fold_batch(&mut self, batch: &RecordBatch, sketch: &WireSketch) -> Result<Vec<ColumnPlan>> {
        if (sketch.rows, sketch.cols.len()) != (batch.rows(), batch.columns().len()) {
            return Err(err(
                "wire sketch folded against a batch of another shape".into()
            ));
        }
        let sel = batch.selection();
        (batch.columns().iter().zip(&sketch.cols).enumerate())
            .map(|(i, (col, &plan))| self.fold(Rows { col, sel }, plan, i as u32))
            .collect()
    }

    /// Wire bytes for a whole batch whose sketch was taken earlier (sum over
    /// columns). Selected batches are measured over their logical rows, as
    /// the exchange materialization point would ship them. Size-only: the
    /// engine charges virtual wire seconds from this without materializing
    /// payloads.
    pub fn sketched_wire_bytes(&mut self, batch: &RecordBatch, sketch: &WireSketch) -> Result<u64> {
        Ok(self
            .fold_batch(batch, sketch)?
            .iter()
            .map(|p| p.bytes)
            .sum())
    }

    /// Serializes a batch whose sketch was taken earlier: one blob per
    /// column, stream positions in schema order, a selected batch's
    /// logical rows only (the exchange is a materialization point), each
    /// blob as long as [`WireEncoder::sketched_wire_bytes`] counted it.
    /// [`WireDecoder::decode_batch`] inverts it.
    ///
    /// Every blob is self-describing — the "CIPG" header always comes
    /// first. A dict column's transfers carry the [`PAGE_FLAG_WIRE_STREAM`]
    /// flag and a `u32` stream dictionary id: the first transfer inlines the
    /// whole shared dictionary (filling the receiver's cache under that
    /// id), later transfers also set [`PAGE_FLAG_DICT_REF`] and carry only
    /// the bit-packed ids. An int column whose pick is FoR/Delta rides the
    /// same protocol under its stream position: frame-bearing transfers fill
    /// the receiver's frame cache, reuse transfers carry packed offsets
    /// only. Other columns emit their best self-contained page.
    pub fn encode_sketched(
        &mut self,
        batch: &RecordBatch,
        sketch: &WireSketch,
    ) -> Result<Vec<Vec<u8>>> {
        let sel = batch.selection();
        (self.fold_batch(batch, sketch)?.iter().zip(batch.columns()))
            .map(|(plan, col)| plan.blob(Rows { col, sel }))
            .collect()
    }
}

/// The receiver side of the wire format: holds one stream's dictionary and
/// int-frame caches and turns [`WireEncoder`] blobs back into columns and
/// batches.
///
/// The first transfer of each shared dictionary fills the cache under the
/// `u32` stream dictionary id the page carries; every later ids-only
/// transfer ([`PAGE_FLAG_DICT_REF`]) resolves against it, so all decoded
/// batches of one stream share a single receiver-side `Arc<Dictionary>` —
/// the same one-allocation-per-stream shape the sender had. FoR/Delta wire
/// pages fill (or, on mid-stream re-derivation, *replace*) the frame cache
/// under their stream position the same way, and offsets-only transfers
/// resolve against it. Pair one decoder with one encoder for the lifetime
/// of a transfer stream, exactly like the engine pairs them per pipeline
/// execution. Malformed blobs (cache misses, re-shipped ids, out-of-range
/// ids, truncations) are an `Err`, never a panic.
#[derive(Debug, Default)]
pub struct WireDecoder {
    dicts: HashMap<u32, Arc<Dictionary>>,
    /// Stream column position → the frame last received there.
    frames: Vec<Option<IntFrame>>,
}

impl WireDecoder {
    /// A fresh stream: empty dictionary cache.
    pub fn new() -> WireDecoder {
        WireDecoder::default()
    }

    /// Decodes one wire blob, updating the stream caches. Self-contained
    /// pages decode exactly like [`decode_column`]; wire dict pages resolve
    /// through the dictionary cache and decode to dict columns sharing the
    /// cached `Arc`; FoR/Delta wire pages fill (or, on mid-stream
    /// re-derivation, replace) the frame cache under their stream position,
    /// and frame-reuse pages ([`PAGE_FLAG_DICT_REF`]) decode through the
    /// cached frame.
    pub fn decode_column(&mut self, bytes: &[u8]) -> Result<ColumnData> {
        let mut c = Cursor::new(bytes);
        let h = parse_header(&mut c)?;
        if h.flags & PAGE_FLAG_WIRE_STREAM == 0 {
            return decode_column(bytes);
        }
        if h.flags & !(PAGE_FLAG_WIRE_STREAM | PAGE_FLAG_DICT_REF) != 0 {
            return Err(err(format!("unknown page flags {:#04x}", h.flags)));
        }
        let refers = h.flags & PAGE_FLAG_DICT_REF != 0;
        let id = c.u32()?;
        let mut fill = None;
        let col = match (h.codec, h.dt) {
            (PageCodec::For | PageCodec::Delta, DataType::Int64) => {
                let cached = if refers {
                    let frame = self.frames.get(id as usize).copied().flatten();
                    Some(frame.ok_or_else(|| {
                        err(format!(
                            "wire page references stream frame {id} never shipped \
                             (frame cache miss)"
                        ))
                    })?)
                } else {
                    None
                };
                let (col, frame) = decode_payload(&mut c, &h, cached)?;
                fill = frame.filter(|_| !refers);
                col
            }
            (PageCodec::Dict, DataType::Utf8) => {
                let dict = if refers {
                    self.dicts.get(&id).cloned().ok_or_else(|| {
                        err(format!(
                            "wire page references stream dictionary {id} never shipped \
                             (dictionary cache miss)"
                        ))
                    })?
                } else {
                    let dict = Arc::new(read_dictionary_section(&mut c)?);
                    if self.dicts.insert(id, dict.clone()).is_some() {
                        return Err(err(format!("stream dictionary {id} shipped twice")));
                    }
                    dict
                };
                // Ids ride at the full shared dictionary's bit width.
                let ids = read_packed_ids(&mut c, h.rows, dict.len())?;
                ColumnData::Dict { ids, dict }
            }
            (codec, dt) => {
                let name = codec.name();
                return Err(err(format!("wire-stream flag on a {name} {dt} page")));
            }
        };
        c.done()?;
        if let Some(frame) = fill {
            cache_frame(&mut self.frames, id as usize, frame)?;
        }
        Ok(col)
    }

    /// Decodes a batch serialized by [`WireEncoder::encode_sketched`]: one
    /// blob per schema column. The result is dense (exchanges ship
    /// compacted rows) and logically equal to the batch the sender
    /// serialized.
    pub fn decode_batch(
        &mut self,
        schema: crate::schema::SchemaRef,
        columns: &[Vec<u8>],
    ) -> Result<RecordBatch> {
        if columns.len() != schema.arity() {
            return Err(err(format!(
                "wire batch has {} columns, schema expects {}",
                columns.len(),
                schema.arity()
            )));
        }
        let decoded = columns
            .iter()
            .map(|bytes| self.decode_column(bytes))
            .collect::<Result<Vec<_>>>()?;
        RecordBatch::new(schema, decoded)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn dict_col(vals: &[&str]) -> ColumnData {
        ColumnData::strings(vals.iter())
    }

    #[test]
    fn grouped_count_matches_a_hash_set() {
        let mut r = ci_types::DetRng::seed_from_u64(5);
        let rows = DISTINCT_GROUPED_MIN_INSERTS + 1_000;
        // Keys hashing into group 0 only, four times a group's share of
        // the rows: that group's set has room for twice the share, so it
        // must grow to hold them. Each comes once, then the first one fills
        // the rows, so a key the growth lost is not inserted again.
        let group_zero: Vec<i64> = std::iter::repeat_with(|| r.next_u64() as i64)
            .filter(|&x| mix(x as u64) >> (64 - DISTINCT_GROUP_BITS) == 0)
            .take(8 * rows / (1 << DISTINCT_GROUP_BITS))
            .chain([0, 0])
            .collect();
        let skewed: Vec<i64> = (group_zero.iter().copied())
            .chain(std::iter::repeat(group_zero[0]))
            .take(rows)
            .collect();
        let wide: Vec<i64> = (0..rows).map(|_| r.next_u64() as i64).collect();
        let few: Vec<i64> = (0..rows).map(|i| [7, 0, -3][i % 3] << 40).collect();
        for (what, vals) in [("skewed", skewed), ("wide", wide), ("few", few)] {
            let want = vals.iter().collect::<HashSet<_>>().len();
            let chunks = vals.chunks(10_007).map(|c| c.iter().copied());
            assert_eq!(
                count_distinct(chunks, (i64::MIN, i64::MAX)),
                want as u64,
                "{what}"
            );
            // Bounded: exact up to the bound, past it once there are more.
            let mut scratch = PlanScratch::default();
            let bound = DISTINCT_GROUPED_MIN_INSERTS;
            let got =
                scratch.count_distinct([vals.iter().copied()], rows, (i64::MIN, i64::MAX), bound);
            assert!(
                if want > bound {
                    got > bound
                } else {
                    got == want
                },
                "{what}: {got}"
            );
        }
    }

    fn ndv(col: &ColumnData) -> usize {
        let vals = col.as_i64().unwrap();
        vals.iter().collect::<std::collections::BTreeSet<_>>().len()
    }

    /// `col` as a one-column batch.
    fn one_col(col: &ColumnData) -> RecordBatch {
        let field = crate::schema::Field::new("c", col.data_type());
        let schema = Arc::new(crate::schema::Schema::of(vec![field]));
        RecordBatch::new(schema, vec![col.clone()]).unwrap()
    }

    /// Ships `col` as the next one-column batch of `tx`'s stream (stream
    /// position 0): its wire blob.
    fn ship(tx: &mut WireEncoder, col: &ColumnData) -> Vec<u8> {
        let batch = one_col(col);
        let sketch = WireSketch::of(&batch);
        tx.encode_sketched(&batch, &sketch).unwrap().remove(0)
    }

    /// The bytes [`ship`] emits for `col`, counted size-only.
    fn shipped_bytes(tx: &mut WireEncoder, col: &ColumnData) -> u64 {
        let batch = one_col(col);
        let sketch = WireSketch::of(&batch);
        tx.sketched_wire_bytes(&batch, &sketch).unwrap()
    }

    /// Offset of a page's flags byte, and the flags of a wire page that
    /// fills a stream cache entry or rides one.
    const FLAGS: usize = 7;
    const FILLS: u8 = PAGE_FLAG_WIRE_STREAM;
    const REFERS: u8 = PAGE_FLAG_WIRE_STREAM | PAGE_FLAG_DICT_REF;

    #[test]
    fn picked_plan_matches_argmin_over_forced_plans() {
        // One forced plan per candidate, with the capped Dict candidacy the
        // picker contract defines.
        let generic = |col: &ColumnData| {
            let mut best = PageCodec::Plain;
            let mut best_size = u64::MAX;
            for c in ALL_CODECS
                .into_iter()
                .filter(|c| c.applies_to(col.data_type()))
            {
                if c == PageCodec::Dict && ndv(col) > DICT_INT_MAX_ENTRIES {
                    continue;
                }
                let size = encoded_size(col, c).unwrap();
                if size < best_size {
                    best = c;
                    best_size = size;
                }
            }
            best
        };
        let cols: Vec<Vec<i64>> = vec![
            vec![],
            vec![42],
            vec![7; 500],                                      // runs: RLE
            (0..500).map(|i| 1_000 + i * 3).collect(),         // stride: Delta
            (0..500).map(|i| (i * 37) % 100).collect(),        // small domain: FoR
            (0..500).map(|i| i * i * 7_919 - 3 * i).collect(), // wide: Plain-ish
            vec![i64::MIN, i64::MAX, 0, -1, 1],
            (0..300)
                .map(|i| if i % 2 == 0 { 5 } else { 900_000_000_000 })
                .collect(),
            // Exactly at the cap: Dict is still a candidate.
            (0..DICT_INT_MAX_ENTRIES as i64).collect(),
            // One over the cap: Dict is disqualified on both paths.
            (0..=DICT_INT_MAX_ENTRIES as i64).collect(),
        ];
        for vals in cols {
            let col = ColumnData::Int64(vals);
            assert_eq!(
                pick_codec(&col),
                generic(&col),
                "picked plan diverged on {col:?}"
            );
        }
    }

    #[test]
    fn stream_positions_are_bounded_on_both_sides() {
        // The sender and the receiver cache frames through one function,
        // which refuses a position past the bound.
        let frame = IntFrame::For { min: 500, width: 4 };
        let e = cache_frame(&mut Vec::new(), MAX_STREAM_COLUMNS, frame).unwrap_err();
        assert!(e.to_string().contains("exceeds the bound"), "{e}");
        // A forged frame id must not size the receiver's cache, nor
        // disturb the frame it holds.
        let col = ColumnData::Int64((0..64).map(|i| 500 + i % 9).collect());
        let mut tx = WireEncoder::new();
        let blob = ship(&mut tx, &col);
        assert_eq!(blob[FLAGS], FILLS, "fixture ships a frame");
        let mut rx = WireDecoder::new();
        assert_eq!(rx.decode_column(&blob).unwrap(), col);
        let mut forged = blob.clone();
        forged[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(rx.decode_column(&forged).is_err());
        let reuse = ship(&mut tx, &col);
        assert_eq!(reuse[FLAGS], REFERS);
        assert_eq!(rx.decode_column(&reuse).unwrap(), col);
    }

    #[test]
    fn int_dict_candidacy_is_capped() {
        // Pseudo-random draws from a pool just over the cap: the exact dict
        // page (~5 kB dictionary + packed ids) would beat Plain/RLE/FoR/Delta
        // here, but the capped picker must refuse it — the cap is what keeps
        // the fused stats pass from hashing every row of high-NDV columns.
        let n = 20_000usize;
        let pool = DICT_INT_MAX_ENTRIES + 1;
        // A stride coprime with the pool walks every residue, so the NDV is
        // exactly `pool` while the sequence stays run-free and wide-delta.
        let vals: Vec<i64> = (0..n)
            .map(|i| ((i * 1_000_003 % pool) as i64).wrapping_mul(0x0123_4567_89ab))
            .collect();
        let col = ColumnData::Int64(vals);
        assert!(
            ndv(&col) > DICT_INT_MAX_ENTRIES,
            "fixture must exceed the cap"
        );
        let dict_size = encoded_size(&col, PageCodec::Dict).unwrap();
        let picked = pick_codec(&col);
        let picked_size = encoded_size(&col, picked).unwrap();
        assert!(
            dict_size < picked_size,
            "fixture should make uncapped dict the argmin \
             (dict {dict_size} vs {picked:?} {picked_size})"
        );
        assert_ne!(picked, PageCodec::Dict, "cap must disqualify dict");
        // At or under the cap the same shape still picks Dict.
        let small: Vec<i64> = (0..n)
            .map(|i| ((i * 7) % 512) as i64 * 0x0123_4567_89ab)
            .collect();
        assert_eq!(pick_codec(&ColumnData::Int64(small)), PageCodec::Dict);
    }

    #[test]
    fn dict_wins_its_ties_except_against_plain() {
        // Small int columns with exactly `ndv` values `k * step`, cycled
        // (no runs) or in blocks (one run per value). Wherever Dict ties the
        // smallest other candidate exactly, the tie order decides: Plain
        // precedes Dict, Dict precedes Rle, For and Delta — so the bound on
        // the distinct count must admit a tie with those three.
        let mut ties = HashSet::new();
        for n in 1..=48usize {
            for ndv in 1..=n.min(16) {
                for shift in 0..62 {
                    if (ndv as i64 - 1).checked_mul(1 << shift).is_none() {
                        continue;
                    }
                    for blocks in [false, true] {
                        let k = |i: usize| if blocks { i * ndv / n } else { i % ndv };
                        let col =
                            ColumnData::Int64((0..n).map(|i| (k(i) as i64) << shift).collect());
                        let size = |c| encoded_size(&col, c).unwrap();
                        let dict = size(PageCodec::Dict);
                        let others = [
                            PageCodec::Plain,
                            PageCodec::Rle,
                            PageCodec::For,
                            PageCodec::Delta,
                        ];
                        if others.iter().any(|&c| size(c) < dict) {
                            continue;
                        }
                        let tied: Vec<PageCodec> =
                            others.into_iter().filter(|&c| size(c) == dict).collect();
                        let want = if tied.contains(&PageCodec::Plain) {
                            PageCodec::Plain
                        } else {
                            PageCodec::Dict
                        };
                        assert_eq!(pick_codec(&col), want, "{n} rows, {ndv} values << {shift}");
                        ties.extend(tied);
                    }
                }
            }
        }
        assert_eq!(
            ties.len(),
            4,
            "the search must find Dict tied with each other candidate, found {ties:?}"
        );
    }

    #[test]
    fn plain_round_trips_every_type() {
        let cols = [
            ColumnData::Int64(vec![-5, 0, 7, i64::MAX]),
            ColumnData::Float64(vec![0.5, -1.25, f64::MAX]),
            ColumnData::Bool(vec![true, false, true]),
            ColumnData::strings(["a", "", "日本"]),
        ];
        for col in &cols {
            let (meta, bytes) = encode_column(col, PageCodec::Plain).unwrap();
            assert_eq!(meta.encoded_bytes as usize, bytes.len());
            assert_eq!(meta.rows, col.len());
            assert_eq!(&decode_column(&bytes).unwrap(), col);
        }
    }

    #[test]
    fn dict_page_round_trips_and_shrinks() {
        let col = dict_col(&[
            "aaaa", "bbbb", "aaaa", "bbbb", "aaaa", "aaaa", "bbbb", "aaaa",
        ]);
        let (meta, bytes) = encode_column(&col, PageCodec::Dict).unwrap();
        assert_eq!(meta.encoded_bytes as usize, bytes.len());
        assert!(meta.encoded_bytes < meta.decoded_bytes, "{meta:?}");
        assert!(meta.dict_bytes > 0);
        let decoded = decode_column(&bytes).unwrap();
        assert_eq!(decoded, col);
        assert!(decoded.as_dict().is_some(), "dict pages decode to dict");
    }

    #[test]
    fn dict_page_ships_only_referenced_entries() {
        // Table dictionary has 3 entries; this chunk references one.
        let table_col = dict_col(&["x", "y", "z"]);
        let chunk = table_col.slice(2, 1);
        let (_, bytes) = encode_column(&chunk, PageCodec::Dict).unwrap();
        let decoded = decode_column(&bytes).unwrap();
        let (ids, dict) = decoded.as_dict().unwrap();
        assert_eq!(ids, &[0], "remapped to dense local ids");
        assert_eq!(dict.len(), 1, "unreferenced entries not shipped");
        assert_eq!(decoded.str_at(0), Some("z"));
    }

    #[test]
    fn rle_round_trips_and_wins_on_runs() {
        // Long runs over a wide value range: RLE's per-run cost beats the
        // per-row bits FoR/Delta would spend on the large domain.
        let mut vals = vec![1_000_000i64; 1000];
        vals.extend(std::iter::repeat_n(-4i64, 1000));
        let col = ColumnData::Int64(vals);
        assert_eq!(pick_codec(&col), PageCodec::Rle);
        let (meta, bytes) = encode_best(&col).unwrap();
        assert!(meta.encoded_bytes < meta.decoded_bytes / 10);
        assert_eq!(&decode_column(&bytes).unwrap(), &col);

        // A constant column is the int codecs' home turf now: FoR needs
        // width 0 (9 payload bytes), beating even a single RLE run.
        let constant = ColumnData::Int64(vec![7; 1000]);
        assert_eq!(pick_codec(&constant), PageCodec::For);
        let (cmeta, cbytes) = encode_best(&constant).unwrap();
        assert_eq!(cmeta.encoded_bytes as usize, PAGE_HEADER_BYTES + 8 + 1);
        assert_eq!(&decode_column(&cbytes).unwrap(), &constant);

        let strs = ColumnData::strings(vec!["run"; 64]);
        let (_, bytes) = encode_column(&strs, PageCodec::Rle).unwrap();
        assert_eq!(&decode_column(&bytes).unwrap(), &strs);
    }

    #[test]
    fn plain_wins_on_incompressible_ints() {
        // Full-range hashed values: no frame, no delta structure, no runs
        // (a plain multiplicative sequence would hand Delta a constant
        // stride, so finalize with a splitmix-style mixer).
        let col = ColumnData::Int64(
            (0u64..100)
                .map(|i| {
                    let z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    (z ^ (z >> 31)) as i64
                })
                .collect(),
        );
        assert_eq!(pick_codec(&col), PageCodec::Plain);
    }

    #[test]
    fn empty_columns_round_trip() {
        for dt in [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
        ] {
            let col = ColumnData::empty(dt);
            let (meta, bytes) = encode_best(&col).unwrap();
            assert_eq!(meta.rows, 0);
            assert_eq!(&decode_column(&bytes).unwrap(), &col);
        }
    }

    #[test]
    fn size_only_matches_real_encoding() {
        let cols = [
            ColumnData::Int64(vec![1, 1, 1, 2, 3, 3]),
            ColumnData::Float64(vec![0.0, 0.0, 9.5]),
            ColumnData::Bool(vec![true; 9]),
            ColumnData::strings(["aa", "aa", "b"]),
            dict_col(&["g1", "g2", "g1", "g1"]),
        ];
        for col in &cols {
            for codec in ALL_CODECS
                .into_iter()
                .filter(|c| c.applies_to(col.data_type()))
            {
                let (meta, bytes) = encode_column(col, codec).unwrap();
                assert_eq!(
                    encoded_size(col, codec).unwrap(),
                    bytes.len() as u64,
                    "{codec:?} on {}",
                    col.data_type()
                );
                assert_eq!(meta.encoded_bytes, bytes.len() as u64);
            }
        }
    }

    #[test]
    fn candidates_are_capability_driven_and_all_round_trip() {
        // Every codec that claims a type must actually encode + decode a
        // column of that type — a codec can neither be silently skipped nor
        // spuriously offered.
        let fixtures = [
            ColumnData::Int64(vec![5, 6, 7, 9, 12]),
            ColumnData::Float64(vec![1.5, -2.0, 0.0]),
            ColumnData::strings(["a", "b", "a"]),
            ColumnData::Bool(vec![true, false, true]),
        ];
        for col in &fixtures {
            let dt = col.data_type();
            for codec in ALL_CODECS {
                if codec.applies_to(dt) {
                    let (_, bytes) =
                        encode_column(col, codec).unwrap_or_else(|e| panic!("{codec:?}/{dt}: {e}"));
                    assert_eq!(&decode_column(&bytes).unwrap(), col, "{codec:?} on {dt}");
                } else {
                    assert!(
                        encode_column(col, codec).is_err() || dt == DataType::Utf8,
                        "{codec:?} should reject {dt}"
                    );
                }
            }
        }
        // Int codecs are offered for ints — the regression the capability
        // refactor guards against.
        assert!(PageCodec::For.applies_to(DataType::Int64));
        assert!(PageCodec::Delta.applies_to(DataType::Int64));
        assert!(PageCodec::For.applies_to(DataType::Bool));
        assert!(!PageCodec::Delta.applies_to(DataType::Utf8));
    }

    #[test]
    fn for_round_trips_and_wins_on_small_domains() {
        // Dates: a small domain far from zero. Plain needs 8 B/row; FoR
        // needs ⌈log2 range⌉ bits.
        let col = ColumnData::Int64((0..1000).map(|i| 20_240_000 + (i % 365)).collect());
        assert_eq!(pick_codec(&col), PageCodec::For);
        let (meta, bytes) = encode_best(&col).unwrap();
        assert!(meta.encoded_bytes * 4 < meta.decoded_bytes, "{meta:?}");
        assert_eq!(&decode_column(&bytes).unwrap(), &col);
        // Extremes round-trip exactly (offsets span the full u64 range).
        let extremes = ColumnData::Int64(vec![i64::MIN, i64::MAX, 0, -1]);
        let (_, bytes) = encode_column(&extremes, PageCodec::For).unwrap();
        assert_eq!(&decode_column(&bytes).unwrap(), &extremes);
        // Bool columns bit-pack under FoR (1 bit/row past the frame).
        let bools = ColumnData::Bool((0..256).map(|i| i % 3 == 0).collect());
        assert_eq!(pick_codec(&bools), PageCodec::For);
        let (bmeta, bytes) = encode_best(&bools).unwrap();
        assert!(bmeta.encoded_bytes < bmeta.decoded_bytes / 4);
        assert_eq!(&decode_column(&bytes).unwrap(), &bools);
    }

    #[test]
    fn delta_round_trips_and_wins_on_sorted_ints() {
        // A sorted id column: consecutive deltas are tiny, so Delta beats
        // both Plain (8 B/row) and FoR (⌈log2 n⌉ bits/row).
        let col = ColumnData::Int64((0..4096).map(|i| i * 3 + 1_000_000).collect());
        assert_eq!(pick_codec(&col), PageCodec::Delta);
        let (meta, bytes) = encode_best(&col).unwrap();
        assert!(
            meta.encoded_bytes * 100 < meta.decoded_bytes,
            "constant-stride sorted ints collapse to width 0: {meta:?}"
        );
        assert_eq!(&decode_column(&bytes).unwrap(), &col);
        // Descending and mixed-sign deltas round-trip too.
        let wiggle = ColumnData::Int64(vec![10, 7, 9, -3, 4, 4, 100]);
        let (_, bytes) = encode_column(&wiggle, PageCodec::Delta).unwrap();
        assert_eq!(&decode_column(&bytes).unwrap(), &wiggle);
        // Wrapping extremes are exact.
        let extremes = ColumnData::Int64(vec![i64::MIN, i64::MAX, i64::MIN + 1]);
        let (_, bytes) = encode_column(&extremes, PageCodec::Delta).unwrap();
        assert_eq!(&decode_column(&bytes).unwrap(), &extremes);
        // Single-row and empty columns round-trip through both int codecs.
        for col in [ColumnData::Int64(vec![42]), ColumnData::Int64(vec![])] {
            for codec in [PageCodec::For, PageCodec::Delta] {
                let (m, bytes) = encode_column(&col, codec).unwrap();
                assert_eq!(m.encoded_bytes as usize, bytes.len());
                assert_eq!(&decode_column(&bytes).unwrap(), &col);
            }
        }
    }

    #[test]
    fn corrupt_int_pages_error_not_panic() {
        let col = ColumnData::Int64((0..100).map(|i| i * 5).collect());
        for codec in [PageCodec::For, PageCodec::Delta] {
            let (_, good) = encode_column(&col, codec).unwrap();
            for n in 0..good.len() {
                assert!(decode_column(&good[..n]).is_err(), "{codec:?} cut at {n}");
            }
            // Bit width over 64.
            let mut bad = good.clone();
            let width_at = PAGE_HEADER_BYTES + if codec == PageCodec::For { 8 } else { 16 };
            bad[width_at] = 65;
            assert!(decode_column(&bad).is_err(), "{codec:?} width 65");
            // Forged row count: payload no longer covers it, and the error
            // must fire before any row-proportional allocation.
            let mut inflated = good.clone();
            inflated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_column(&inflated).is_err(), "{codec:?} forged rows");
        }
    }

    #[test]
    fn encoder_and_decoder_share_one_row_bound() {
        // The round-trip contract is total: anything the encoder accepts,
        // the decoder accepts back — so the encoder must reject columns
        // past MAX_DECODE_ROWS instead of emitting undecodable pages.
        let oversized = ColumnData::Bool(vec![false; MAX_DECODE_ROWS + 1]);
        let e = encode_column(&oversized, PageCodec::Plain)
            .unwrap_err()
            .to_string();
        assert!(e.contains("page bound"), "{e}");
        let dict_oversized = one_col(&ColumnData::Dict {
            ids: vec![0; MAX_DECODE_ROWS + 1],
            dict: ColumnData::strings(["x"]).as_dict().unwrap().1.clone(),
        });
        let sketch = WireSketch::of(&dict_oversized);
        let mut w = WireEncoder::new();
        assert!(w.encode_sketched(&dict_oversized, &sketch).is_err());
    }

    #[test]
    fn forged_plain_row_counts_fail_before_allocating() {
        let (_, mut page) =
            encode_column(&ColumnData::Int64(vec![1, 2, 3]), PageCodec::Plain).unwrap();
        // Declares 4 billion rows over a 24-byte payload: rejected by the
        // decoder row bound, not by attempting a 32 GB allocation.
        page[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_column(&page).unwrap_err().to_string();
        assert!(e.contains("decoder bound"), "{e}");
        // Within the row bound, the payload-size check fires instead —
        // still before any row-proportional allocation.
        page[8..12].copy_from_slice(&1_000_000u32.to_le_bytes());
        let e = decode_column(&page).unwrap_err().to_string();
        assert!(e.contains("truncated"), "{e}");
    }

    #[test]
    fn malformed_pages_error_not_panic() {
        let (_, good) = encode_best(&dict_col(&["a", "b", "a"])).unwrap();
        // Truncations at every length.
        for n in 0..good.len() {
            assert!(decode_column(&good[..n]).is_err(), "truncated at {n}");
        }
        // Corrupt header fields.
        for (at, val) in [(0usize, 0xffu8), (4, 9), (5, 9), (6, 9), (7, 1)] {
            let mut bad = good.clone();
            bad[at] = val;
            assert!(decode_column(&bad).is_err(), "corrupt byte {at}");
        }
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_column(&padded).is_err());
        // Declared rows beyond payload.
        let mut inflated = good.clone();
        inflated[8..12].copy_from_slice(&1000u32.to_le_bytes());
        assert!(decode_column(&inflated).is_err());
    }

    #[test]
    fn bit_widths() {
        assert_eq!(id_bit_width(0), 0);
        assert_eq!(id_bit_width(1), 0);
        assert_eq!(id_bit_width(2), 1);
        assert_eq!(id_bit_width(3), 2);
        assert_eq!(id_bit_width(256), 8);
        assert_eq!(id_bit_width(257), 9);
        assert_eq!(packed_id_bytes(8, 1), 1);
        assert_eq!(packed_id_bytes(9, 1), 2);
        assert_eq!(packed_id_bytes(3, 10), 4);
    }

    #[test]
    fn wire_ships_dictionary_once() {
        let col = dict_col(&["aaaaaaaa", "bbbbbbbb", "aaaaaaaa", "bbbbbbbb"]);
        let (_, dict) = col.as_dict().unwrap();
        let dict_bytes = dictionary_page_bytes(dict);
        let mut w = WireEncoder::new();
        let first = shipped_bytes(&mut w, &col);
        let second = shipped_bytes(&mut w, &col);
        assert_eq!(first, second + dict_bytes);
        // Real serialization agrees with the size-only accounting, and the
        // second transfer rides the shipped dictionary.
        let mut w2 = WireEncoder::new();
        let b1 = ship(&mut w2, &col);
        let b2 = ship(&mut w2, &col);
        assert_eq!(b1.len() as u64, first);
        assert_eq!(b2.len() as u64, second);
        assert_eq!((b1[FLAGS], b2[FLAGS]), (FILLS, REFERS));
        // Wire pages demand the stream's dictionary cache: the cache-less
        // storage decoder rejects them, the stream decoder inverts both.
        let e = decode_column(&b1).unwrap_err().to_string();
        assert!(e.contains("dictionary cache"), "{e}");
        let mut rx = WireDecoder::new();
        let (d1, d2) = (
            rx.decode_column(&b1).unwrap(),
            rx.decode_column(&b2).unwrap(),
        );
        assert_eq!((&d1, &d2), (&col, &col));
        // One dictionary received: both columns share it.
        assert!(Arc::ptr_eq(
            d1.as_dict().unwrap().1,
            d2.as_dict().unwrap().1
        ));
        // The ids-only payload beats the decoded width by a wide margin.
        assert!(second * 2 < col.byte_size() as u64);
    }

    #[test]
    fn wire_decoder_round_trips_a_stream_sharing_one_dictionary() {
        // Three chunks of one table column: the receiver interns the
        // dictionary once and every decoded chunk shares that Arc.
        let table = dict_col(&["x", "yy", "zzz", "x", "yy", "zzz", "x", "yy"]);
        let mut tx = WireEncoder::new();
        let mut rx = WireDecoder::new();
        let mut decoded_dicts = Vec::new();
        for start in [0usize, 3, 6] {
            let chunk = table.slice(start, (table.len() - start).min(3));
            let blob = ship(&mut tx, &chunk);
            let decoded = rx.decode_column(&blob).unwrap();
            assert_eq!(decoded, chunk, "chunk at {start}");
            decoded_dicts.push(decoded.as_dict().unwrap().1.clone());
        }
        assert!(Arc::ptr_eq(&decoded_dicts[0], &decoded_dicts[1]));
        assert!(Arc::ptr_eq(&decoded_dicts[0], &decoded_dicts[2]));
        // Ids decode against the *full* shared dictionary, so they are
        // bit-identical to the sender's, not remapped.
        let chunk = table.slice(6, 2);
        let blob = ship(&mut tx, &chunk);
        let decoded = rx.decode_column(&blob).unwrap();
        assert_eq!(decoded.as_dict().unwrap().0, chunk.as_dict().unwrap().0);
    }

    #[test]
    fn wire_decoder_rejects_cache_misses_and_reships() {
        let col = dict_col(&["a", "b", "a"]);
        let mut tx = WireEncoder::new();
        let b1 = ship(&mut tx, &col);
        let b2 = ship(&mut tx, &col);
        // A ref page with no prior dictionary transfer is a cache miss.
        let mut cold = WireDecoder::new();
        let e = cold.decode_column(&b2).unwrap_err().to_string();
        assert!(e.contains("cache miss"), "{e}");
        // Shipping the same stream dictionary id twice is corrupt.
        let mut rx = WireDecoder::new();
        rx.decode_column(&b1).unwrap();
        let e = rx.decode_column(&b1).unwrap_err().to_string();
        assert!(e.contains("shipped twice"), "{e}");
        // Truncations of wire blobs error, never panic.
        for blob in [&b1, &b2] {
            for n in 0..blob.len() {
                assert!(WireDecoder::new().decode_column(&blob[..n]).is_err());
            }
        }
    }

    #[test]
    fn wire_reuses_int_frames_across_chunks() {
        // A sorted id column split into chunks: every chunk picks Delta, and
        // chunks after the first ride the cached frame, saving exactly the
        // frame header (min-delta i64 + width u8) per chunk.
        let table: Vec<i64> = (0..4096).map(|i| 10_000 + i * 3).collect();
        let mut tx = WireEncoder::new();
        let mut rx = WireDecoder::new();
        let (mut sizes, mut flags) = (Vec::new(), Vec::new());
        for chunk in table.chunks(1024) {
            let c = ColumnData::Int64(chunk.to_vec());
            let blob = ship(&mut tx, &c);
            sizes.push(blob.len() as u64);
            flags.push(blob[FLAGS]);
            assert_eq!(rx.decode_column(&blob).unwrap(), c);
        }
        // One frame shipped, every later chunk rides it.
        assert_eq!(flags, [FILLS, REFERS, REFERS, REFERS]);
        // Later chunks are strictly smaller than the frame-bearing first
        // and exactly 9 bytes (i64 + u8 frame header) under the
        // self-contained Delta page each would otherwise ship.
        let standalone =
            encoded_size(&ColumnData::Int64(table[..1024].to_vec()), PageCodec::Delta).unwrap();
        assert_eq!(
            sizes[0],
            standalone + 4,
            "first chunk carries the frame + stream id"
        );
        for &later in &sizes[1..] {
            assert!(later < sizes[0], "reuse chunks must shrink: {sizes:?}");
            assert_eq!(
                later,
                standalone + 4 - 9,
                "reuse chunk = fresh minus frame header"
            );
        }
        // Size-only accounting agrees blob for blob.
        let mut size_only = WireEncoder::new();
        for (chunk, &real) in table.chunks(1024).zip(&sizes) {
            let c = ColumnData::Int64(chunk.to_vec());
            assert_eq!(shipped_bytes(&mut size_only, &c), real);
        }
        // A reuse blob against a cold receiver is a frame cache miss.
        let c = ColumnData::Int64(table[1024..2048].to_vec());
        let blob = ship(&mut tx, &c);
        let e = WireDecoder::new()
            .decode_column(&blob)
            .unwrap_err()
            .to_string();
        assert!(e.contains("frame cache miss"), "{e}");
    }

    #[test]
    fn wire_rederives_int_frames_mid_stream() {
        let mut tx = WireEncoder::new();
        let mut rx = WireDecoder::new();
        // Chunk 1 establishes a narrow FoR frame around ~100.
        let narrow = ColumnData::Int64((0..512).map(|i| 100 + (i * 37) % 50).collect());
        let b = ship(&mut tx, &narrow);
        assert_eq!(b[FLAGS], FILLS);
        assert_eq!(rx.decode_column(&b).unwrap(), narrow);
        // Chunk 2 jumps out of the frame: offsets from min=100 no longer fit
        // the cached width, so the sender re-derives and the receiver
        // replaces its cache entry — same position, new parameters.
        let shifted = ColumnData::Int64((0..512).map(|i| 1_000_000 + (i * 37) % 50).collect());
        let b = ship(&mut tx, &shifted);
        assert_eq!(b[FLAGS], FILLS);
        assert_eq!(rx.decode_column(&b).unwrap(), shifted);
        // Chunk 3 fits the *new* frame and rides it (strictly smaller than
        // its frame-bearing predecessor of identical shape): the receiver
        // decodes it through the replaced entry.
        let again = ColumnData::Int64((0..512).map(|i| 1_000_000 + (i * 11) % 50).collect());
        let b3 = ship(&mut tx, &again);
        assert_eq!(b3[FLAGS], REFERS);
        assert_eq!(rx.decode_column(&b3).unwrap(), again);
        assert!((b3.len() as u64) < b.len() as u64);
        // Mixed stream: a non-int column at another position never touches
        // the frame cache, and plain int chunks (no For/Delta win) ship
        // flagless and decode everywhere.
        let wide = ColumnData::Int64(vec![i64::MIN, i64::MAX, 0, -7, 917_114]);
        let blob = ship(&mut tx, &wide);
        assert_eq!(
            decode_column(&blob).unwrap(),
            wide,
            "plain pages stay self-contained"
        );
    }

    /// `n` values of `base + offset`, offsets drawn below `2^width` and
    /// spanning it exactly (the FoR frame is `(base, width)`).
    fn spread(n: usize, width: u32, base: i64, seed: u64) -> Vec<i64> {
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut x = seed;
        let mut v: Vec<i64> = (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                base.wrapping_add(((x >> 11) & mask) as i64)
            })
            .collect();
        (v[0], v[1]) = (base, base.wrapping_add(mask as i64));
        v
    }

    /// `n` ascending values whose consecutive deltas run over
    /// `[step, step + 2^width − 1]` (the Delta frame is `(step, width)`).
    fn climb(n: usize, width: u32, step: i64, first: i64, seed: u64) -> Vec<i64> {
        let deltas = spread(n - 1, width, step, seed);
        let mut cur = first;
        std::iter::once(first)
            .chain(deltas.into_iter().map(|d| {
                cur = cur.wrapping_add(d);
                cur
            }))
            .collect()
    }

    #[test]
    fn frame_reuse_pages_decode_at_every_width_class() {
        // Per width class of the shared decoder's fast paths: a chunk that
        // ships a frame, one that re-derives it mid-stream, and one that
        // rides the re-derived frame.
        let n = 203;
        let mut streams: Vec<(PageCodec, [Vec<i64>; 3])> = [0, 1, 5, 8, 9, 13, 16, 17, 40]
            .into_iter()
            .map(|w| {
                let (lo, hi) = (1_000, 1 << 40);
                let chunks = [
                    spread(n, w, lo, 1),
                    spread(n, w, hi, 2),
                    spread(n, w, hi, 3),
                ];
                (PageCodec::For, chunks)
            })
            .collect();
        for w in [0, 5] {
            let chunks = [
                climb(n, w, 3, 10, 4),
                climb(n, w + 2, 7, -50, 5),
                climb(n, w + 2, 7, 900, 6),
            ];
            streams.push((PageCodec::Delta, chunks));
        }
        for (codec, chunks) in streams {
            let mut tx = WireEncoder::new();
            let mut rx = WireDecoder::new();
            let blobs: Vec<Vec<u8>> = chunks
                .iter()
                .map(|v| ship(&mut tx, &ColumnData::Int64(v.clone())))
                .collect();
            for (blob, (want, flags)) in blobs.iter().zip(chunks.iter().zip([FILLS, FILLS, REFERS]))
            {
                assert_eq!(
                    (blob[5], blob[FLAGS]),
                    (codec.tag(), flags),
                    "{codec:?} {want:?}"
                );
                assert_eq!(
                    rx.decode_column(blob).unwrap(),
                    ColumnData::Int64(want.clone())
                );
            }
            // Corrupt reuse pages fail against the warm receiver (a failed
            // decode leaves its caches as they were), never panic.
            let reuse = &blobs[2];
            for cut in 0..reuse.len() {
                assert!(
                    rx.decode_column(&reuse[..cut]).is_err(),
                    "{codec:?} cut at {cut}"
                );
            }
            let mut padded = reuse.clone();
            padded.push(0);
            assert!(
                rx.decode_column(&padded).is_err(),
                "{codec:?} trailing byte"
            );
            let mut inflated = reuse.clone();
            inflated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(
                rx.decode_column(&inflated).is_err(),
                "{codec:?} forged rows"
            );
            let mut swapped = reuse.clone();
            swapped[5] = match codec {
                PageCodec::For => PageCodec::Delta.tag(),
                _ => PageCodec::For.tag(),
            };
            let e = rx.decode_column(&swapped).unwrap_err().to_string();
            assert!(e.contains("other kind"), "{codec:?}: {e}");
            for at in 0..reuse.len() {
                let mut flipped = reuse.clone();
                flipped[at] ^= 0x5a;
                if let Ok(col) = rx.decode_column(&flipped) {
                    let rows = u32::from_le_bytes(flipped[8..12].try_into().unwrap());
                    assert_eq!(col.len(), rows as usize, "{codec:?} flip at {at}");
                }
            }
            assert!(
                WireDecoder::new().decode_column(reuse).is_err(),
                "{codec:?} cold"
            );
            // The warm receiver still decodes the stream's reuse page.
            assert_eq!(
                rx.decode_column(reuse).unwrap(),
                ColumnData::Int64(chunks[2].clone())
            );
        }
    }

    #[test]
    fn wire_batch_round_trip_is_dense_and_equal() {
        use crate::schema::{Field, Schema};
        let schema = Arc::new(Schema::of(vec![
            Field::new("s", DataType::Utf8),
            Field::new("i", DataType::Int64),
        ]));
        let batch = RecordBatch::new(
            schema.clone(),
            vec![
                dict_col(&["a", "b", "a", "c"]),
                ColumnData::Int64(vec![10, 20, 30, 40]),
            ],
        )
        .unwrap();
        let filtered = batch.filter(&[true, false, true, true]).unwrap();
        let mut tx = WireEncoder::new();
        let mut rx = WireDecoder::new();
        let blobs = tx
            .encode_sketched(&filtered, &WireSketch::of(&filtered))
            .unwrap();
        let decoded = rx.decode_batch(schema.clone(), &blobs).unwrap();
        assert!(decoded.selection().is_none(), "wire batches arrive dense");
        assert_eq!(decoded, filtered.compacted());
        // Column-count mismatches are rejected.
        assert!(rx.decode_batch(schema, &blobs[..1]).is_err());
    }

    #[test]
    fn wire_batch_reads_through_selections() {
        use crate::schema::{Field, Schema};
        let schema = Arc::new(Schema::of(vec![
            Field::new("s", DataType::Utf8),
            Field::new("i", DataType::Int64),
        ]));
        let batch = RecordBatch::new(
            schema,
            vec![
                dict_col(&["a", "b", "c", "d"]),
                ColumnData::Int64(vec![1, 2, 3, 4]),
            ],
        )
        .unwrap();
        let filtered = batch.filter(&[true, false, true, false]).unwrap();
        let bytes = |batch: &RecordBatch| {
            let sketch = WireSketch::of(batch);
            WireEncoder::new()
                .sketched_wire_bytes(batch, &sketch)
                .unwrap()
        };
        assert_eq!(bytes(&filtered), bytes(&filtered.compacted()));
    }
}

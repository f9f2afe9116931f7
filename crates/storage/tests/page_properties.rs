//! Property tests for the encoded page format: every codec round-trips
//! every column variant exactly, compression never loses data, sizing is
//! exact, and malformed pages fail with errors, never panics. A golden
//! fixed-bytes test pins the wire format itself — any byte-level change to
//! the encoder is a format break and must bump `PAGE_VERSION`.

use std::sync::Arc;

use ci_storage::column::ColumnData;
use ci_storage::pages::{
    decode_column, dictionary_page_bytes, encode_best, encode_column, encoded_size, pick_codec,
    PageCodec, WireDecoder, WireEncoder, WireSketch, ALL_CODECS, PAGE_HEADER_BYTES, PAGE_MAGIC,
    PAGE_VERSION,
};
use ci_storage::schema::{Field, Schema};
use ci_storage::RecordBatch;
use proptest::prelude::*;

fn utf8(vals: &[String]) -> ColumnData {
    ColumnData::strings(vals)
}

/// `vals` over a dictionary that first interns decoys and `vals` in
/// reverse: other ids than [`utf8`]'s, and entries no row references.
fn foreign(vals: &[String]) -> ColumnData {
    let mut dict = ci_storage::dict::Dictionary::new();
    for s in ["zz-decoy", "aa-decoy"]
        .iter()
        .copied()
        .chain(vals.iter().rev().map(String::as_str))
    {
        dict.intern(s);
    }
    let ids = vals.iter().map(|s| dict.intern(s)).collect();
    ColumnData::Dict {
        ids,
        dict: Arc::new(dict),
    }
}

/// `cols` as one batch, each column named after its position.
fn batch_of(cols: Vec<Arc<ColumnData>>) -> RecordBatch {
    let fields = (cols.iter().enumerate())
        .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
        .collect();
    RecordBatch::from_arcs(Arc::new(Schema::of(fields)), cols).unwrap()
}

/// Serializes `batch` as the next batch of `tx`'s stream.
fn encode(tx: &mut WireEncoder, batch: &RecordBatch) -> Vec<Vec<u8>> {
    tx.encode_sketched(batch, &WireSketch::of(batch)).unwrap()
}

/// Sizes `batch` as the next batch of `tx`'s stream.
fn sized(tx: &mut WireEncoder, batch: &RecordBatch) -> u64 {
    tx.sketched_wire_bytes(batch, &WireSketch::of(batch))
        .unwrap()
}

/// Ships `col` as the next one-column batch of `tx`'s stream (stream
/// position 0): its wire blob.
fn ship(tx: &mut WireEncoder, col: &ColumnData) -> Vec<u8> {
    encode(tx, &batch_of(vec![Arc::new(col.clone())])).remove(0)
}

/// Round-trips one column through every applicable codec, checking value
/// equality, representation (an int column decodes to `Int64` under every
/// codec, `Dict` included) and exact size accounting.
fn check_round_trip(col: &ColumnData) -> Result<(), String> {
    for codec in ALL_CODECS
        .into_iter()
        .filter(|c| c.applies_to(col.data_type()))
    {
        let (meta, bytes) = encode_column(col, codec).map_err(|e| e.to_string())?;
        if meta.encoded_bytes as usize != bytes.len() {
            return Err(format!(
                "{codec:?}: meta says {} bytes, encoded {}",
                meta.encoded_bytes,
                bytes.len()
            ));
        }
        if encoded_size(col, codec).map_err(|e| e.to_string())? != bytes.len() as u64 {
            return Err(format!(
                "{codec:?}: size-only estimate disagrees with encoder"
            ));
        }
        if meta.rows != col.len() || meta.decoded_bytes != col.byte_size() as u64 {
            return Err(format!("{codec:?}: bad metadata {meta:?}"));
        }
        let decoded = decode_column(&bytes).map_err(|e| e.to_string())?;
        if &decoded != col {
            return Err(format!("{codec:?}: decode(encode(c)) != c"));
        }
        if matches!(col, ColumnData::Int64(_)) && !matches!(decoded, ColumnData::Int64(_)) {
            return Err(format!("{codec:?}: an int page decoded to {decoded:?}"));
        }
    }
    Ok(())
}

/// Corrupting or truncating a page must never panic: every outcome is a
/// clean `Err` or a decode of the declared row count.
fn check_corruption(col: &ColumnData, codec: PageCodec, flip_at: usize, flip_bits: u8) {
    let (_, mut bytes) = encode_column(col, codec).expect("valid page");
    let at = flip_at % bytes.len();
    bytes[at] ^= flip_bits;
    if let Ok(decoded) = decode_column(&bytes) {
        // The flip may have landed in the row-count field itself; a decode
        // that still succeeds must honor whatever count the header declares.
        assert_eq!(decoded.len(), declared_rows(&bytes));
    }
    bytes[at] ^= flip_bits; // restore
    let cut = flip_at % bytes.len();
    assert!(decode_column(&bytes[..cut]).is_err(), "truncated at {cut}");
}

/// The row count a page header declares (byte offsets 8..12).
fn declared_rows(page: &[u8]) -> usize {
    u32::from_le_bytes(page[8..12].try_into().expect("4 bytes")) as usize
}

proptest! {
    /// Int columns round-trip through Plain, Rle, For, and Delta
    /// bit-identically — including extreme values whose frames and deltas
    /// wrap the i64 domain.
    #[test]
    fn int_columns_round_trip(vals in proptest::collection::vec(any::<i64>(), 0..200usize)) {
        let col = ColumnData::Int64(vals);
        prop_assert!(check_round_trip(&col).is_ok(), "{:?}", check_round_trip(&col));
    }

    /// Sorted int columns (the recluster shape) round-trip and genuinely
    /// compress: the picked codec never inflates, and on non-trivial sizes
    /// it beats Plain.
    #[test]
    fn sorted_int_columns_compress(
        vals in proptest::collection::vec(0i64..1_000_000, 1..300usize),
        base in -1_000_000i64..1_000_000,
    ) {
        let mut vals = vals;
        vals.sort_unstable();
        let col = ColumnData::Int64(vals.iter().map(|v| v + base).collect());
        prop_assert!(check_round_trip(&col).is_ok(), "{:?}", check_round_trip(&col));
        let (meta, bytes) = encode_best(&col).unwrap();
        prop_assert!(meta.encoded_bytes <= meta.decoded_bytes + PAGE_HEADER_BYTES as u64);
        if col.len() >= 64 {
            prop_assert!(
                meta.encoded_bytes < meta.decoded_bytes,
                "sorted ints must compress: {meta:?}"
            );
        }
        prop_assert_eq!(&decode_column(&bytes).unwrap(), &col);
    }

    /// Float columns round-trip (IEEE bits preserved exactly).
    #[test]
    fn float_columns_round_trip(vals in proptest::collection::vec(any::<f64>(), 0..200usize)) {
        let col = ColumnData::Float64(vals);
        prop_assert!(check_round_trip(&col).is_ok(), "{:?}", check_round_trip(&col));
    }

    /// Bool columns round-trip — including the bit-packed For form.
    #[test]
    fn bool_columns_round_trip(vals in proptest::collection::vec(any::<bool>(), 0..200usize)) {
        let col = ColumnData::Bool(vals);
        prop_assert!(check_round_trip(&col).is_ok(), "{:?}", check_round_trip(&col));
    }

    /// String columns round-trip over a fresh and over a foreign
    /// dictionary under all applicable codecs, every page decoding back to
    /// dictionary ids that hold the original strings.
    #[test]
    fn string_columns_round_trip(vals in string_column(6, 1..150)) {
        let other = foreign(&vals);
        let dicted = utf8(&vals);
        prop_assert!(check_round_trip(&other).is_ok(), "{:?}", check_round_trip(&other));
        prop_assert!(check_round_trip(&dicted).is_ok(), "{:?}", check_round_trip(&dicted));
        for codec in ALL_CODECS.into_iter().filter(|c| c.applies_to(ci_storage::value::DataType::Utf8)) {
            let (_, bytes) = encode_column(&other, codec).unwrap();
            let decoded = decode_column(&bytes).unwrap();
            let strings: Vec<&str> = (0..decoded.len()).map(|i| decoded.str_at(i).unwrap()).collect();
            prop_assert_eq!(strings, vals.iter().map(String::as_str).collect::<Vec<_>>());
            // Page accounting is invisible to the dictionary.
            prop_assert_eq!(bytes, encode_column(&dicted, codec).unwrap().1);
            prop_assert_eq!(
                encoded_size(&other, codec).unwrap(),
                encoded_size(&dicted, codec).unwrap()
            );
        }
    }

    /// On dict/RLE-friendly data (duplicate-heavy, realistically wide
    /// strings) the picked codec genuinely compresses.
    #[test]
    fn friendly_data_compresses(
        short in string_column(4, 32..200),
        run_len in 2usize..50,
    ) {
        // Widen the pooled values so the decoded column is string-heavy.
        let vals: Vec<String> = short.iter().map(|s| format!("{s}-{s}-{s}-padding")).collect();
        let col = utf8(&vals);
        let (meta, _) = encode_best(&col).unwrap();
        prop_assert!(
            meta.encoded_bytes <= meta.decoded_bytes,
            "dict-friendly data must not inflate: {meta:?}"
        );
        // Runs compress (under RLE or the int codecs, whichever is smaller).
        let runs = ColumnData::Int64(
            (0..8i64).flat_map(|v| std::iter::repeat_n(v * 1000, run_len)).collect()
        );
        let (rmeta, _) = encode_best(&runs).unwrap();
        prop_assert!(rmeta.encoded_bytes < rmeta.decoded_bytes, "{rmeta:?}");
    }

    /// Corrupting any single byte of a valid string page either fails
    /// cleanly or still decodes a column of the declared row count — never
    /// a panic. Every truncation errors.
    #[test]
    fn corrupted_pages_never_panic(
        vals in string_column(5, 1..60),
        flip_at in 0usize..4096,
        flip_bits in 1u8..255,
    ) {
        let col = utf8(&vals);
        check_corruption(&col, pick_codec(&col), flip_at, flip_bits);
    }

    /// The same corruption guarantee for the bit-packed int codecs: forged
    /// widths (0, >64), forged row counts, and truncated packed sections
    /// all fail cleanly without over-allocating.
    #[test]
    fn corrupted_int_pages_never_panic(
        vals in proptest::collection::vec(any::<i64>(), 1..120usize),
        flip_at in 0usize..4096,
        flip_bits in 1u8..255,
        forged_rows in any::<u32>(),
    ) {
        let col = ColumnData::Int64(vals);
        for codec in [PageCodec::For, PageCodec::Delta, PageCodec::Rle, PageCodec::Plain] {
            check_corruption(&col, codec, flip_at, flip_bits);
            // Forged row counts must be caught by payload-size validation
            // (before any row-proportional allocation), or decode to
            // exactly the declared count.
            let (_, mut bytes) = encode_column(&col, codec).unwrap();
            bytes[8..12].copy_from_slice(&forged_rows.to_le_bytes());
            if let Ok(decoded) = decode_column(&bytes) {
                prop_assert_eq!(decoded.len(), forged_rows as usize);
            }
        }
    }

    /// The wire encoder's size-only accounting matches its real serializer,
    /// re-shipping a dictionary is free after the first transfer, and the
    /// receiver-side decoder inverts every blob of the stream.
    #[test]
    fn wire_sizes_match_serialization_and_decode(vals in string_column(5, 1..120)) {
        let col = utf8(&vals);
        let (_, dict) = col.as_dict().unwrap();
        let dict_bytes = dictionary_page_bytes(dict);
        let batch = batch_of(vec![Arc::new(col.clone())]);
        let mut size_only = WireEncoder::new();
        let mut real = WireEncoder::new();
        let mut rx = WireDecoder::new();
        let mut received = Vec::new();
        for _ in 0..3 {
            let expected = sized(&mut size_only, &batch);
            let bytes = ship(&mut real, &col);
            prop_assert_eq!(bytes.len() as u64, expected);
            let decoded = rx.decode_column(&bytes).unwrap();
            prop_assert_eq!(&decoded, &col);
            // Receiver ids are bit-identical, not just value-equal.
            prop_assert_eq!(decoded.as_dict().unwrap().0, col.as_dict().unwrap().0);
            received.push(decoded.as_dict().unwrap().1.clone());
        }
        // One dictionary received: every decoded column shares it.
        prop_assert!(received.iter().all(|d| Arc::ptr_eq(d, &received[0])));
        // Second transfer of the same column saves exactly the dictionary.
        let mut w = WireEncoder::new();
        let first = sized(&mut w, &batch);
        let second = sized(&mut w, &batch);
        prop_assert_eq!(first, second + dict_bytes);
    }

    /// Corrupting wire blobs never panics the receiver: any flip or
    /// truncation of either the dictionary transfer or an ids-only page is
    /// a clean `Err` or a decode of the declared row count.
    #[test]
    fn corrupted_wire_blobs_never_panic(
        vals in string_column(4, 1..60),
        flip_at in 0usize..4096,
        flip_bits in 1u8..255,
    ) {
        let col = utf8(&vals);
        let mut tx = WireEncoder::new();
        let b1 = ship(&mut tx, &col);
        let b2 = ship(&mut tx, &col);
        for (warm, blob) in [(false, &b1), (true, &b2)] {
            let mut corrupt = blob.clone();
            let at = flip_at % corrupt.len();
            corrupt[at] ^= flip_bits;
            let mut rx = WireDecoder::new();
            if warm {
                rx.decode_column(&b1).unwrap();
            }
            if let Ok(decoded) = rx.decode_column(&corrupt) {
                prop_assert_eq!(decoded.len(), declared_rows(&corrupt));
            }
            let mut rx = WireDecoder::new();
            if warm {
                rx.decode_column(&b1).unwrap();
            }
            prop_assert!(rx.decode_column(&blob[..at]).is_err());
        }
    }

    /// Int frame streams get the same guarantee: the first transfer of an
    /// `Int64` column carries its FoR/Delta frame, the repeat transfer is a
    /// `PAGE_FLAG_DICT_REF` page of packed offsets riding the receiver's
    /// cached frame. Any bit flip is a clean `Err` or a decode of the
    /// declared row count; any truncation is an `Err`; and replaying the
    /// reuse page into a *cold* receiver that never saw the frame is an
    /// `Err` — never a panic, never a silent mis-decode.
    #[test]
    fn corrupted_int_frame_wire_blobs_never_panic(
        vals in proptest::collection::vec(0i64..100_000, 2..120usize),
        flip_at in 0usize..4096,
        flip_bits in 1u8..255,
    ) {
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        // Unsorted leans FoR; sorted leans Delta — both frame codecs.
        for col in [ColumnData::Int64(vals.clone()), ColumnData::Int64(sorted)] {
            let mut tx = WireEncoder::new();
            let b1 = ship(&mut tx, &col);
            let b2 = ship(&mut tx, &col);
            // Re-shipping never costs more; strictly less iff the second
            // page rides the cached frame.
            prop_assert!(b2.len() <= b1.len());
            for (warm, blob) in [(false, &b1), (true, &b2)] {
                let mut corrupt = blob.clone();
                let at = flip_at % corrupt.len();
                corrupt[at] ^= flip_bits;
                let mut rx = WireDecoder::new();
                if warm {
                    rx.decode_column(&b1).unwrap();
                }
                if let Ok(decoded) = rx.decode_column(&corrupt) {
                    prop_assert_eq!(decoded.len(), declared_rows(&corrupt));
                }
                let mut rx = WireDecoder::new();
                if warm {
                    rx.decode_column(&b1).unwrap();
                }
                prop_assert!(rx.decode_column(&blob[..at]).is_err());
            }
            if b2.len() < b1.len() {
                let mut cold = WireDecoder::new();
                prop_assert!(
                    cold.decode_column(&b2).is_err(),
                    "frame-reuse page must not decode without its frame"
                );
            }
        }
    }
}

/// IEEE edge patterns a Plain float page must carry bit for bit: quiet and
/// signalling NaNs with payloads (both signs), ±0, ±∞, the smallest and
/// largest subnormals, the normal extremes.
const FLOAT_EDGE_BITS: [u64; 12] = [
    0x7FF8_0000_DEAD_BEEF,
    0xFFF8_0000_0000_0001,
    0x7FF0_0000_0000_0001,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800F_FFFF_FFFF_FFFF,
    0x0010_0000_0000_0000,
    0x7FEF_FFFF_FFFF_FFFF,
    0xFFEF_FFFF_FFFF_FFFF,
];

/// The per-value reference for a Plain fixed-width page: the header, then
/// each value's little-endian bytes (`width` of them). The page must equal
/// it byte for byte, decode back to `want` bit for bit, and fail as an
/// `Err` when cut short anywhere or when its header declares one row more
/// or one fewer than it holds.
fn check_plain(col: &ColumnData, want: &[u64], width: usize) -> Result<(), String> {
    let (_, page) = encode_column(col, PageCodec::Plain).map_err(|e| e.to_string())?;
    let payload: Vec<u8> = (want.iter())
        .flat_map(|w| w.to_le_bytes()[..width].to_vec())
        .collect();
    if page[PAGE_HEADER_BYTES..] != payload[..] {
        return Err("payload differs from the per-value reference".into());
    }
    let got: Vec<u64> = match decode_column(&page).map_err(|e| e.to_string())? {
        ColumnData::Int64(v) => v.iter().map(|&x| x as u64).collect(),
        ColumnData::Float64(v) => v.iter().map(|x| x.to_bits()).collect(),
        ColumnData::Bool(v) => v.iter().map(|&b| u64::from(b)).collect(),
        other => return Err(format!("decoded as {:?}", other.data_type())),
    };
    if got != want {
        return Err("decode is not bit-identical".into());
    }
    if let Some(cut) = (0..page.len()).find(|&cut| decode_column(&page[..cut]).is_ok()) {
        return Err(format!(
            "a page cut to {cut} of {} bytes decoded",
            page.len()
        ));
    }
    for forged in [want.len() + 1, want.len().wrapping_sub(1)] {
        let mut bad = page.clone();
        bad[8..12].copy_from_slice(&(forged as u32).to_le_bytes());
        if decode_column(&bad).is_ok() {
            return Err(format!("a header declaring {forged} rows decoded"));
        }
    }
    Ok(())
}

proptest! {
    /// Plain `Int64` pages round-trip every value, the domain's ends
    /// included, and reject every truncation and a forged row count.
    #[test]
    fn plain_int_pages_match_the_per_value_reference(
        vals in proptest::collection::vec(
            prop_oneof![any::<i64>(), proptest::sample::select(vec![i64::MIN, i64::MAX, -1, 0])],
            0..120usize,
        ),
    ) {
        let want: Vec<u64> = vals.iter().map(|&x| x as u64).collect();
        let r = check_plain(&ColumnData::Int64(vals), &want, 8);
        prop_assert!(r.is_ok(), "{:?}", r);
    }

    /// Plain `Float64` pages keep every bit: NaN payloads, −0.0, ±∞ and
    /// subnormals as well as arbitrary bit patterns.
    #[test]
    fn plain_float_pages_keep_every_bit(
        bits in proptest::collection::vec(
            prop_oneof![any::<u64>(), proptest::sample::select(FLOAT_EDGE_BITS.to_vec())],
            0..120usize,
        ),
    ) {
        let col = ColumnData::Float64(bits.iter().map(|&b| f64::from_bits(b)).collect());
        let r = check_plain(&col, &bits, 8);
        prop_assert!(r.is_ok(), "{:?}", r);
    }

    /// Plain `Bool` pages round-trip and reject truncations, forged row
    /// counts and any byte other than 0 or 1.
    #[test]
    fn plain_bool_pages_match_the_per_value_reference(
        vals in proptest::collection::vec(any::<bool>(), 1..120usize),
        at in any::<usize>(),
        byte in 2u16..256,
    ) {
        let want: Vec<u64> = vals.iter().map(|&b| u64::from(b)).collect();
        let col = ColumnData::Bool(vals);
        let r = check_plain(&col, &want, 1);
        prop_assert!(r.is_ok(), "{:?}", r);
        let (_, mut page) = encode_column(&col, PageCodec::Plain).unwrap();
        let at = PAGE_HEADER_BYTES + at % want.len();
        page[at] = byte as u8;
        prop_assert!(decode_column(&page).is_err(), "bool byte {byte} decoded");
    }
}

/// Pins the byte-level page format. If this test fails, the format changed:
/// bump [`PAGE_VERSION`] and treat it as a breaking storage change.
#[test]
fn golden_bytes_pin_the_format() {
    assert_eq!(PAGE_MAGIC, *b"CIPG");
    assert_eq!(PAGE_VERSION, 2);
    assert_eq!(PAGE_HEADER_BYTES, 12);

    // Plain Int64 [1, 2]: header + two LE i64s.
    let (_, bytes) = encode_column(&ColumnData::Int64(vec![1, 2]), PageCodec::Plain).unwrap();
    #[rustfmt::skip]
    let expected = vec![
        0x43, 0x49, 0x50, 0x47, // "CIPG"
        0x02,                   // version
        0x00,                   // codec = Plain
        0x00,                   // dtype = Int64
        0x00,                   // reserved
        0x02, 0x00, 0x00, 0x00, // rows = 2
        0x01, 0, 0, 0, 0, 0, 0, 0,
        0x02, 0, 0, 0, 0, 0, 0, 0,
    ];
    assert_eq!(bytes, expected, "Plain Int64 layout drifted");

    // Dict page over ["b", "a", "b"]: 2 entries in first-appearance order,
    // 1-bit ids packed LSB-first (0, 1, 0 -> 0b010).
    let col = utf8(&["b".into(), "a".into(), "b".into()]);
    let (meta, bytes) = encode_column(&col, PageCodec::Dict).unwrap();
    #[rustfmt::skip]
    let expected = vec![
        0x43, 0x49, 0x50, 0x47, 0x02,
        0x01,                   // codec = Dict
        0x02,                   // dtype = Utf8
        0x00,
        0x03, 0x00, 0x00, 0x00, // rows = 3
        0x02, 0x00, 0x00, 0x00, // 2 dictionary entries
        0x01, 0x00, 0x00, 0x00, 0x62, // "b"
        0x01, 0x00, 0x00, 0x00, 0x61, // "a"
        0x01,                   // bit width = 1
        0x02,                   // ids 0,1,0 packed LSB-first
    ];
    assert_eq!(bytes, expected, "Dict page layout drifted");
    assert_eq!(meta.dict_bytes, 14, "dict section = count + 2 entries");

    // RLE Bool [true, true, false]: two runs.
    let (_, bytes) =
        encode_column(&ColumnData::Bool(vec![true, true, false]), PageCodec::Rle).unwrap();
    #[rustfmt::skip]
    let expected = vec![
        0x43, 0x49, 0x50, 0x47, 0x02,
        0x02,                   // codec = Rle
        0x03,                   // dtype = Bool
        0x00,
        0x03, 0x00, 0x00, 0x00, // rows = 3
        0x02, 0x00, 0x00, 0x00, // 2 runs
        0x02, 0x00, 0x00, 0x00, 0x01, // run: 2 x true
        0x01, 0x00, 0x00, 0x00, 0x00, // run: 1 x false
    ];
    assert_eq!(bytes, expected, "RLE layout drifted");

    // For Int64 [5, 7, 6]: frame min 5, range 2 -> width 2 bits, offsets
    // 0, 2, 1 packed LSB-first into 0b01_10_00 = 0x18.
    let (_, bytes) = encode_column(&ColumnData::Int64(vec![5, 7, 6]), PageCodec::For).unwrap();
    #[rustfmt::skip]
    let expected = vec![
        0x43, 0x49, 0x50, 0x47, 0x02,
        0x03,                   // codec = For
        0x00,                   // dtype = Int64
        0x00,
        0x03, 0x00, 0x00, 0x00, // rows = 3
        0x05, 0, 0, 0, 0, 0, 0, 0, // frame min = 5
        0x02,                   // bit width = 2
        0x18,                   // offsets 0,2,1 packed LSB-first
    ];
    assert_eq!(bytes, expected, "For layout drifted");

    // Delta Int64 [10, 13, 16]: first 10, constant delta 3 -> min_delta 3,
    // width 0, no packed section at all.
    let (_, bytes) = encode_column(&ColumnData::Int64(vec![10, 13, 16]), PageCodec::Delta).unwrap();
    #[rustfmt::skip]
    let expected = vec![
        0x43, 0x49, 0x50, 0x47, 0x02,
        0x04,                   // codec = Delta
        0x00,                   // dtype = Int64
        0x00,
        0x03, 0x00, 0x00, 0x00, // rows = 3
        0x0a, 0, 0, 0, 0, 0, 0, 0, // first value = 10
        0x03, 0, 0, 0, 0, 0, 0, 0, // min delta = 3
        0x00,                   // bit width = 0
    ];
    assert_eq!(bytes, expected, "Delta layout drifted");

    // Wire dict pages: flags bit 1 marks the stream form (u32 dictionary id
    // after the header); bit 0 marks an ids-only follow-up.
    let dicted = col.clone();
    let mut tx = WireEncoder::new();
    let b1 = ship(&mut tx, &dicted);
    let b2 = ship(&mut tx, &dicted);
    #[rustfmt::skip]
    let expected_first = vec![
        0x43, 0x49, 0x50, 0x47, 0x02,
        0x01,                   // codec = Dict
        0x02,                   // dtype = Utf8
        0x02,                   // flags = WIRE_STREAM
        0x03, 0x00, 0x00, 0x00, // rows = 3
        0x00, 0x00, 0x00, 0x00, // stream dictionary id = 0
        0x02, 0x00, 0x00, 0x00, // 2 dictionary entries
        0x01, 0x00, 0x00, 0x00, 0x62, // "b"
        0x01, 0x00, 0x00, 0x00, 0x61, // "a"
        0x01,                   // bit width = 1
        0x02,                   // ids 0,1,0
    ];
    assert_eq!(b1, expected_first, "wire dictionary transfer drifted");
    #[rustfmt::skip]
    let expected_ref = vec![
        0x43, 0x49, 0x50, 0x47, 0x02,
        0x01, 0x02,
        0x03,                   // flags = WIRE_STREAM | DICT_REF
        0x03, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, // stream dictionary id = 0
        0x01, 0x02,             // bit width, ids
    ];
    assert_eq!(b2, expected_ref, "wire ids-only page drifted");

    // Round-trip the goldens for good measure.
    assert_eq!(
        decode_column(&encode_column(&col, PageCodec::Dict).unwrap().1).unwrap(),
        col
    );
    let mut rx = WireDecoder::new();
    assert_eq!(rx.decode_column(&b1).unwrap(), col);
    assert_eq!(rx.decode_column(&b2).unwrap(), col);
}

/// An ids-only wire page referencing a dictionary with zero entries can
/// never carry rows; the receiver rejects it instead of fabricating ids.
#[test]
fn wire_empty_dictionary_with_rows_rejected() {
    let empty = utf8(&[]);
    let mut tx = WireEncoder::new();
    let blob = ship(&mut tx, &empty);
    let mut rx = WireDecoder::new();
    assert_eq!(rx.decode_column(&blob).unwrap(), empty);
    // Forge a row count onto the empty-dictionary ref page.
    let mut forged = ship(&mut tx, &empty);
    forged[8..12].copy_from_slice(&5u32.to_le_bytes());
    assert!(rx.decode_column(&forged).is_err());
}

// ---------------------------------------------------------------------------
// Plan vs. legacy oracle
// ---------------------------------------------------------------------------

/// A tiny deterministic mixer for generators that expand a seed into rows.
fn mix(seed: u64, i: u64) -> u64 {
    let z = (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 29)
}

/// Int columns aimed at every branch of the sketch: arbitrary values,
/// lengths 0/1/2, constants, (overflowing) strides, small domains around the
/// 4096-entry Dict cap over both narrow (bitmap) and wide (hash) ranges,
/// NDVs around the largest count at which Dict still wins (where the
/// distinct count stops early),
/// ranges straddling the bitmap/hash switch at 2^20, wrapping extremes, and
/// values hugging `i64::MAX` so a derived frame's window wraps the domain.
fn int_column() -> BoxedStrategy<Vec<i64>> {
    let domain = (
        any::<i64>(),
        select(vec![1usize, 2, 3, 100, 4095, 4096, 4097]),
        select(vec![1i64, 3, 0x0123_4567_89ab, i64::MAX / 4097]),
        0usize..9000,
        any::<bool>(),
    )
        .prop_map(|(base, domain, spread, extra, sorted)| {
            // A stride coprime with the domain walks every residue, so the
            // NDV is exactly `domain` once `len >= domain`.
            let len = domain + extra;
            let mut v: Vec<i64> = (0..len)
                .map(|i| {
                    let k = ((i * 1_000_003) % domain) as i64;
                    base.wrapping_add(k.wrapping_mul(spread))
                })
                .collect();
            if sorted {
                v.sort_unstable();
            }
            v
        });
    let straddle = (
        -1_000_000_000i64..1_000_000_000,
        select(vec![
            (1u64 << 20) - 2,
            (1 << 20) - 1,
            1 << 20,
            (1 << 20) + 1,
        ]),
        any::<u64>(),
        2usize..400,
    )
        .prop_map(|(base, range, seed, len)| {
            let mut v: Vec<i64> = (0..len as u64)
                .map(|i| base + (mix(seed, i) % (range + 1)) as i64)
                .collect();
            v[0] = base;
            v[len - 1] = base + range as i64;
            v
        });
    // At a fixed length and range, the NDV sits just below, at and just
    // above the largest count at which the oracle still picks Dict.
    let dict_boundary = (
        select(dict_edges().to_vec()),
        0usize..3,
        -1_000_000_000_000i64..1_000_000_000_000,
    )
        .prop_map(|((len, range, edge), step, base)| {
            spread_column(len, range, edge + step - 1, base)
        });
    let edge =
        (0i64..64, any::<u64>(), 1usize..80, 1u64..40).prop_map(|(back, seed, len, span)| {
            (0..len as u64)
                .map(|i| (i64::MAX - back).wrapping_add((mix(seed, i) % span) as i64))
                .collect()
        });
    prop_oneof![
        proptest::collection::vec(any::<i64>(), 0..200usize),
        proptest::collection::vec(any::<i64>(), 0..3usize),
        (any::<i64>(), 0usize..300).prop_map(|(c, n)| vec![c; n]),
        (any::<i64>(), any::<i64>(), 0usize..300).prop_map(|(start, stride, n)| {
            (0..n as i64)
                .map(|i| start.wrapping_add(stride.wrapping_mul(i)))
                .collect()
        }),
        (-50i64..50, -3i64..4, 0usize..300)
            .prop_map(|(start, stride, n)| { (0..n as i64).map(|i| start + stride * i).collect() }),
        // One-signed deltas that overflow: the column cycles through a few
        // values without ever looking unsorted to a wrapping subtraction.
        (
            any::<i64>(),
            select(vec![1i64 << 62, i64::MIN, 1 << 61, -(1 << 62), i64::MAX]),
            0usize..300
        )
            .prop_map(|(start, stride, n)| {
                (0..n as i64)
                    .map(|i| start.wrapping_add(stride.wrapping_mul(i)))
                    .collect()
            }),
        domain,
        straddle,
        dict_boundary,
        edge,
        proptest::collection::vec(
            select(vec![
                i64::MIN,
                i64::MAX,
                i64::MIN + 1,
                i64::MAX - 1,
                0,
                -1,
                1
            ]),
            0..60usize
        ),
        (0usize..60, any::<bool>()).prop_map(|(n, flip)| {
            (0..n)
                .map(|i| {
                    if (i % 2 == 0) ^ flip {
                        i64::MIN
                    } else {
                        i64::MAX
                    }
                })
                .collect()
        }),
    ]
    .boxed()
}

/// `len` rows over exactly `ndv` (at least 2) distinct values spread
/// evenly over `[base, base + range]`, cycled in an order without runs.
fn spread_column(len: usize, range: u64, ndv: usize, base: i64) -> Vec<i64> {
    (0..len)
        .map(|i| {
            let k = ((i * 1_000_003) % ndv) as u128;
            base + (k * u128::from(range) / (ndv as u128 - 1)) as i64
        })
        .collect()
}

/// `(len, range, dict_edge(len, range))` for a range the bitmap counts and
/// one the hash set counts, searched once per test binary.
fn dict_edges() -> &'static [(usize, u64, usize)] {
    static EDGES: std::sync::OnceLock<Vec<(usize, u64, usize)>> = std::sync::OnceLock::new();
    EDGES.get_or_init(|| {
        [(2_000, (1u64 << 20) - 1), (2_000, 1 << 40)]
            .into_iter()
            .map(|(len, range)| (len, range, dict_edge(len, range)))
            .collect()
    })
}

/// The largest NDV at which the oracle picks Dict for a [`spread_column`]
/// of `len` rows over `range`: Dict's size grows with its entry count while
/// the other candidates' stay put, so the Dict picks are a prefix.
fn dict_edge(len: usize, range: u64) -> usize {
    let picks_dict = |ndv: usize| {
        oracle::pick_codec(&ColumnData::Int64(spread_column(len, range, ndv, 0))) == PageCodec::Dict
    };
    let (mut lo, mut hi) = (2, len);
    assert!(
        picks_dict(lo) && !picks_dict(hi),
        "no Dict edge in 2..={len}"
    );
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if picks_dict(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Columns of every non-`Int64` variant, including dictionary columns sliced
/// so their dictionaries carry unreferenced entries.
fn other_column() -> BoxedStrategy<ColumnData> {
    let window = |col: ColumnData, a: usize, b: usize| {
        let (a, b) = (a % (col.len() + 1), b % (col.len() + 1));
        col.slice(a.min(b), a.abs_diff(b))
    };
    prop_oneof![
        proptest::collection::vec(any::<f64>(), 0..200usize).prop_map(ColumnData::Float64),
        proptest::collection::vec(
            select(vec![
                0.0f64,
                -0.0,
                1.5,
                f64::NAN,
                f64::from_bits(0x7ff8_0000_0000_0001)
            ]),
            0..200usize
        )
        .prop_map(ColumnData::Float64),
        proptest::collection::vec(any::<bool>(), 0..200usize).prop_map(ColumnData::Bool),
        (any::<bool>(), 0usize..200).prop_map(|(b, n)| ColumnData::Bool(vec![b; n])),
        string_column(6, 0..150).prop_map(|v| foreign(&v)),
        (string_column(9, 0..150), 0usize..150, 0usize..150).prop_map(move |(v, a, b)| window(
            utf8(&v),
            a,
            b
        )),
    ]
    .boxed()
}

/// The plan's codec, size, dictionary section and frame for one column
/// equal the oracle's, for the picker and for every forced codec.
fn check_against_oracle(col: &ColumnData) -> Result<(), String> {
    for codec in ci_storage::pages::ALL_CODECS {
        let want = oracle::encoded_size(col, codec);
        let got = encoded_size(col, codec).ok();
        if got != want {
            return Err(format!("{codec:?}: plan sizes {got:?}, oracle {want:?}"));
        }
        let Some(size) = want else {
            if encode_column(col, codec).is_ok() {
                return Err(format!("{codec:?} must not apply"));
            }
            continue;
        };
        let (meta, bytes) = encode_column(col, codec).map_err(|e| e.to_string())?;
        if bytes.len() as u64 != size || meta.encoded_bytes != size || meta.codec != codec {
            return Err(format!(
                "{codec:?}: emitted {} bytes, oracle {size}",
                bytes.len()
            ));
        }
        // The frame header sits right behind the page header.
        let le = |at: usize| i64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let frame_ok = match codec {
            PageCodec::For => oracle::for_frame(col).is_none_or(|(min, width)| {
                (
                    le(PAGE_HEADER_BYTES),
                    u32::from(bytes[PAGE_HEADER_BYTES + 8]),
                ) == (min, width)
            }),
            PageCodec::Delta => oracle::delta_frame(col).is_none_or(|(first, min_d, width)| {
                let at = PAGE_HEADER_BYTES;
                (le(at), le(at + 8), u32::from(bytes[at + 16])) == (first, min_d, width)
            }),
            _ => true,
        };
        if !frame_ok {
            return Err(format!("{codec:?}: frame differs from the oracle's"));
        }
        if codec == PageCodec::Dict && meta.dict_bytes != 4 + oracle::referenced_entries(col).1 {
            return Err(format!("dict section {} bytes", meta.dict_bytes));
        }
        // Bit-exact, so NaNs count: the decoded column re-encodes to the page.
        let decoded = decode_column(&bytes).map_err(|e| e.to_string())?;
        if encode_column(&decoded, codec).map_err(|e| e.to_string())?.1 != bytes {
            return Err(format!("{codec:?}: decode(encode(c)) != c"));
        }
    }
    let want = oracle::pick_codec(col);
    let page = ci_storage::pages::best_page(col);
    let (meta, bytes) = encode_best(col).map_err(|e| e.to_string())?;
    if pick_codec(col) != want || page.codec != want || meta != page {
        return Err(format!("picked {:?}, oracle {want:?}", page.codec));
    }
    if Some(page.encoded_bytes) != oracle::encoded_size(col, want)
        || bytes.len() as u64 != page.encoded_bytes
        || page.decoded_bytes != col.byte_size() as u64
        || page.rows != col.len()
    {
        return Err(format!("best page {page:?} disagrees with the oracle"));
    }
    Ok(())
}

/// Ships `chunks` down one stream position and checks every chunk's
/// reuse-vs-fresh decision, codec, frame and size against the oracle — for
/// size-only accounting and the real serializer alike — and that the
/// receiver inverts the stream. The earlier positions hold one dict column
/// over a one-entry dictionary, which never touches the frame cache and
/// ships in O(1) (0-bit ids).
fn check_int_stream(chunks: &[Vec<i64>], stream_col: u32) -> Result<(), String> {
    let mut want = oracle::Stream::default();
    let mut size_only = WireEncoder::new();
    let mut tx = WireEncoder::new();
    let mut rx = WireDecoder::new();
    let pos = stream_col as usize;
    let one = ColumnData::strings(["x"]).as_dict().unwrap().1.clone();
    let mut send = |chunk: &[i64]| {
        let col = ColumnData::Int64(chunk.to_vec());
        let filler = Arc::new(ColumnData::Dict {
            ids: vec![0; chunk.len()],
            dict: one.clone(),
        });
        let mut cols = vec![filler; pos];
        cols.push(Arc::new(col.clone()));
        let batch = batch_of(cols);
        let (total, blobs) = (sized(&mut size_only, &batch), encode(&mut tx, &batch));
        let others: u64 = blobs[..pos].iter().map(|b| b.len() as u64).sum();
        let decoded = rx.decode_column(&blobs[pos]).map_err(|e| e.to_string())?;
        Ok::<_, String>((total - others, blobs[pos].clone(), decoded == col))
    };
    for (n, chunk) in chunks.iter().enumerate() {
        let plan = want.plan_ints(chunk, stream_col);
        let (sized, blob, decoded) = send(chunk)?;
        let (want_bytes, want_flags, want_codec) = match plan {
            oracle::IntPlan::Page { codec, bytes } => (bytes, 0u8, codec),
            oracle::IntPlan::Fresh { frame, bytes } | oracle::IntPlan::Reuse { frame, bytes } => {
                let reuse = matches!(plan, oracle::IntPlan::Reuse { .. });
                let codec = match frame {
                    oracle::Frame::For { .. } => PageCodec::For,
                    oracle::Frame::Delta { .. } => PageCodec::Delta,
                };
                (bytes, if reuse { 3 } else { 2 }, codec)
            }
        };
        if sized != want_bytes || blob.len() as u64 != want_bytes {
            return Err(format!(
                "chunk {n}: sized {sized}, emitted {}, oracle {plan:?}",
                blob.len()
            ));
        }
        let codec_tag = ci_storage::pages::ALL_CODECS
            .iter()
            .position(|&c| c == want_codec)
            .expect("codec") as u8;
        if (blob[7], blob[5]) != (want_flags, codec_tag) {
            return Err(format!(
                "chunk {n}: flags {} codec tag {}, oracle {plan:?}",
                blob[7], blob[5]
            ));
        }
        if let oracle::IntPlan::Fresh { frame, .. } = plan {
            // Header, stream id, then the frame the receiver will cache.
            let at = PAGE_HEADER_BYTES + 4;
            let le = |at: usize| i64::from_le_bytes(blob[at..at + 8].try_into().expect("8 bytes"));
            let shipped = match frame {
                oracle::Frame::For { .. } => oracle::Frame::For {
                    min: le(at),
                    width: u32::from(blob[at + 8]),
                },
                oracle::Frame::Delta { .. } => oracle::Frame::Delta {
                    min_d: le(at + 8),
                    width: u32::from(blob[at + 16]),
                },
            };
            if shipped != frame {
                return Err(format!("chunk {n}: shipped {shipped:?}, oracle {frame:?}"));
            }
        }
        if !decoded {
            return Err(format!("chunk {n}: receiver decoded other values"));
        }
    }
    // The three frame caches still agree: the last chunk ships again at
    // the oracle's size and decodes.
    if let Some(last) = chunks.last() {
        let plan = want.plan_ints(last, stream_col);
        let (sized, blob, decoded) = send(last)?;
        let (oracle::IntPlan::Page { bytes, .. }
        | oracle::IntPlan::Fresh { bytes, .. }
        | oracle::IntPlan::Reuse { bytes, .. }) = plan;
        if (sized, blob.len() as u64, decoded) != (bytes, bytes, true) {
            return Err(format!("frame caches diverged: replay {plan:?}"));
        }
    }
    Ok(())
}

/// Chunks that reuse, drift out of, and re-derive a stream's frame: each is
/// a fresh draw or a shifted / re-based / truncated echo of its predecessor.
fn int_stream() -> BoxedStrategy<Vec<Vec<i64>>> {
    proptest::collection::vec((int_column(), 0u8..6, any::<i64>()), 1..7usize)
        .prop_map(|draws| {
            let mut chunks: Vec<Vec<i64>> = Vec::new();
            for (fresh, how, by) in draws {
                let prev = chunks.last().cloned().unwrap_or_default();
                chunks.push(match how {
                    0 | 1 => fresh,
                    2 => prev,
                    3 => prev.iter().map(|x| x.wrapping_add(by % 7)).collect(),
                    4 => prev.iter().map(|x| x.wrapping_add(by)).collect(),
                    _ => prev[..prev.len() / 2].iter().rev().copied().collect(),
                });
            }
            chunks
        })
        .boxed()
}

/// A forced `Dict` page counts its entries exactly at the edge of the
/// distinct counter's bitmap rule: a bitmap over `value − min` while it
/// needs at most `max(rows, 2^14)` words, the word set one word past that,
/// on a short column and on one longer than 2^14 rows.
#[test]
fn int_plans_at_the_bitmap_edge_match_the_oracle() {
    for rows in [3_000usize, 20_000] {
        let words = rows.max(1 << 14) as u64;
        for span in [words * 64 - 1, words * 64] {
            let base = -7i64;
            let mut v: Vec<i64> = (0..rows as u64)
                .map(|i| base + (mix(span, i) % (span + 1)) as i64)
                .collect();
            (v[0], v[rows - 1]) = (base, base + span as i64);
            let col = ColumnData::Int64(v);
            let outcome = check_against_oracle(&col);
            assert!(outcome.is_ok(), "{rows} rows spanning {span}: {outcome:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Int64` columns: codec, bytes, dictionary section and frame equal the
    /// oracle's across every sketch branch.
    #[test]
    fn int_plans_match_the_oracle(vals in int_column()) {
        let col = ColumnData::Int64(vals);
        prop_assert!(check_against_oracle(&col).is_ok(), "{:?}", check_against_oracle(&col));
    }

    /// Every other `ColumnData` variant, likewise.
    #[test]
    fn other_plans_match_the_oracle(col in other_column()) {
        prop_assert!(check_against_oracle(&col).is_ok(), "{:?}", check_against_oracle(&col));
    }

    /// Multi-chunk int streams: reuse-vs-fresh, codec, frame and bytes equal
    /// the oracle's chunk for chunk; size-only accounting, the serializer and
    /// the receiver agree byte for byte across reuse, drift and re-derivation.
    #[test]
    fn int_streams_match_the_oracle(chunks in int_stream(), stream_col in 0u32..40) {
        let outcome = check_int_stream(&chunks, stream_col);
        prop_assert!(outcome.is_ok(), "{outcome:?}");
    }

    /// A selected batch and its compacted copy plan identically: size-only
    /// accounting reads through the selection (scattered or a range run)
    /// and both serialize to the same bytes, stream state included.
    #[test]
    fn selected_batches_plan_like_their_compacted_copies(
        chunks in proptest::collection::vec((int_column(), any::<u64>(), 0u8..3), 1..4usize),
    ) {
        use ci_storage::value::DataType;
        let schema = Arc::new(Schema::of(vec![
            Field::new("i", DataType::Int64),
            Field::new("d", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("b", DataType::Bool),
            Field::new("s", DataType::Utf8),
            Field::new("u", DataType::Utf8),
        ]));
        let pool = ColumnData::strings((0..5).map(|i| format!("key-{i}")));
        let (pool_ids, dict) = pool.as_dict().unwrap();
        let (mut sel_size, mut dense_size) = (WireEncoder::new(), WireEncoder::new());
        let (mut sel_tx, mut dense_tx) = (WireEncoder::new(), WireEncoder::new());
        let mut rx = WireDecoder::new();
        for (ints, seed, shape) in chunks {
            let n = ints.len();
            let pick = |i: usize| mix(seed, i as u64);
            let batch = RecordBatch::new(schema.clone(), vec![
                ColumnData::Int64(ints.clone()),
                ColumnData::Int64(ints.iter().map(|x| x % 7).collect()),
                ColumnData::Float64(ints.iter().map(|&x| (x % 3) as f64).collect()),
                ColumnData::Bool(ints.iter().map(|x| x % 5 == 0).collect()),
                ColumnData::Dict {
                    ids: (0..n).map(|i| pool_ids[pick(i) as usize % pool_ids.len()]).collect(),
                    dict: dict.clone(),
                },
                ColumnData::strings((0..n).map(|i| format!("u{}", pick(i) % 4))),
            ]).unwrap();
            let selected = match shape {
                0 => batch.filter(&(0..n).map(|i| pick(i) % 3 != 0).collect::<Vec<_>>()).unwrap(),
                1 => {
                    let run = ci_storage::selection::SelectionVector::from_range(n / 8, n - n / 4, n);
                    batch.select(run.unwrap()).unwrap()
                }
                _ => batch.clone(),
            };
            let dense = selected.compacted();
            let size = sized(&mut sel_size, &selected);
            prop_assert_eq!(size, sized(&mut dense_size, &dense));
            let blobs = encode(&mut sel_tx, &selected);
            prop_assert_eq!(&blobs, &encode(&mut dense_tx, &dense));
            prop_assert_eq!(size, blobs.iter().map(|b| b.len() as u64).sum::<u64>());
            prop_assert_eq!(rx.decode_batch(schema.clone(), &blobs).unwrap(), dense);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The sketch / fold split. A batch's [`WireSketch`] is a pure function
    /// of the batch, so sketches taken up front — on another thread, in
    /// *reverse* stream order — and folded later in stream order must give,
    /// batch for batch, the bytes and blobs of a sketch taken at fold time
    /// and (for the plain int column) the oracle's reuse-vs-fresh plan; and the receiver must invert the
    /// stream. The int chunks reuse, drift out of and re-derive their
    /// frame mid-stream and reach the edge of the `i64` domain (where the
    /// fold rescans the rows); the other columns cover a second plain int
    /// column with frames of its own, dictionary ints, floats, bools, raw
    /// strings and two columns sharing one dictionary, under scattered,
    /// range, empty and absent selections.
    #[test]
    fn early_sketches_fold_like_sketches_taken_in_place(
        chunks in int_stream(),
        shapes in proptest::collection::vec((any::<u64>(), 0u8..4), 7),
    ) {
        use ci_storage::value::DataType;
        let schema = Arc::new(Schema::of(vec![
            Field::new("i", DataType::Int64),
            Field::new("j", DataType::Int64),
            Field::new("d", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("b", DataType::Bool),
            Field::new("s", DataType::Utf8),
            Field::new("t", DataType::Utf8),
            Field::new("u", DataType::Utf8),
        ]));
        let pool = ColumnData::strings((0..5).map(|i| format!("key-{i}")));
        let (pool_ids, dict) = pool.as_dict().unwrap();
        let batches: Vec<RecordBatch> = chunks.iter().zip(&shapes).map(|(ints, &(seed, shape))| {
            let n = ints.len();
            let pick = |i: usize| mix(seed, i as u64);
            let shared = |salt: usize| ColumnData::Dict {
                ids: (0..n).map(|i| pool_ids[pick(i + salt) as usize % pool_ids.len()]).collect(),
                dict: dict.clone(),
            };
            let batch = RecordBatch::new(schema.clone(), vec![
                ColumnData::Int64(ints.clone()),
                ColumnData::Int64(ints.iter().map(|x| x.wrapping_mul(3) ^ 1).collect()),
                ColumnData::Int64(ints.iter().map(|x| x % 7).collect()),
                ColumnData::Float64(ints.iter().map(|&x| (x % 3) as f64).collect()),
                ColumnData::Bool(ints.iter().map(|x| x % 5 == 0).collect()),
                shared(0),
                shared(n),
                ColumnData::strings((0..n).map(|i| format!("u{}", pick(i) % 4))),
            ]).unwrap();
            match shape {
                0 => batch.filter(&(0..n).map(|i| pick(i) % 3 != 0).collect::<Vec<_>>()).unwrap(),
                1 => {
                    let run = ci_storage::selection::SelectionVector::from_range(n / 8, n - n / 4, n);
                    batch.select(run.unwrap()).unwrap()
                }
                2 => batch.filter(&vec![false; n]).unwrap(),
                _ => batch,
            }
        }).collect();

        let mut early: Vec<WireSketch> = std::thread::scope(|s| {
            let sketcher = s.spawn(|| {
                batches.iter().rev().map(WireSketch::of).collect::<Vec<_>>()
            });
            sketcher.join().unwrap()
        });
        early.reverse();

        let (mut early_size, mut late_size) = (WireEncoder::new(), WireEncoder::new());
        let (mut early_tx, mut late_tx) = (WireEncoder::new(), WireEncoder::new());
        let mut rx = WireDecoder::new();
        let mut want = oracle::Stream::default();
        for (batch, sketch) in batches.iter().zip(&early) {
            let size = early_size.sketched_wire_bytes(batch, sketch).unwrap();
            prop_assert_eq!(size, sized(&mut late_size, batch));
            let blobs = early_tx.encode_sketched(batch, sketch).unwrap();
            prop_assert_eq!(&blobs, &encode(&mut late_tx, batch));
            prop_assert_eq!(size, blobs.iter().map(|b| b.len() as u64).sum::<u64>());
            let dense = batch.compacted();
            let ints = dense.column(0).as_i64().unwrap();
            let (oracle::IntPlan::Page { bytes, .. }
            | oracle::IntPlan::Fresh { bytes, .. }
            | oracle::IntPlan::Reuse { bytes, .. }) = want.plan_ints(ints, 0);
            prop_assert_eq!(blobs[0].len() as u64, bytes, "int column against the oracle");
            prop_assert_eq!(rx.decode_batch(schema.clone(), &blobs).unwrap(), dense);
        }
        // The caches still agree: the last batch ships again at one size
        // on every sender and decodes.
        if let (Some(batch), Some(sketch)) = (batches.last(), early.last()) {
            let size = early_size.sketched_wire_bytes(batch, sketch).unwrap();
            prop_assert_eq!(size, sized(&mut late_size, batch));
            let blobs = early_tx.encode_sketched(batch, sketch).unwrap();
            prop_assert_eq!(&blobs, &encode(&mut late_tx, batch));
            prop_assert_eq!(size, blobs.iter().map(|b| b.len() as u64).sum::<u64>());
            prop_assert_eq!(rx.decode_batch(schema.clone(), &blobs).unwrap(), batch.compacted());
        }

        // A sketch is only good for the batch it was taken from.
        if let [first, .., last] = batches.as_slice() {
            if first.rows() != last.rows() {
                prop_assert!(WireEncoder::new().sketched_wire_bytes(first, &early[early.len() - 1]).is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan reuse. [`WireSketch::reusing`] takes a prior sketch's plan only
    /// for the columns that sketch covers — the very `Arc`, whole, in a
    /// batch without a selection — so whatever the prior, the reusing
    /// sketch equals a fresh [`WireSketch::of`], and folded into a stream
    /// (int frames reused across batches, dictionaries shipped once) it
    /// gives the same bytes and blobs. Four priors: the batch's own sketch
    /// and the sketch of a reordered batch sharing some of its columns
    /// (the pass-through shape) reuse; a selected view over the same
    /// columns and an equal-valued deep copy do not — nor does a selected
    /// view reuse the plans of the dense batch behind it.
    #[test]
    fn reusing_sketches_fold_like_fresh_ones(
        chunks in int_stream(),
        seeds in proptest::collection::vec((any::<u64>(), any::<u8>()), 7),
    ) {
        use ci_storage::value::DataType;
        let schema = Arc::new(Schema::of(vec![
            Field::new("i", DataType::Int64),
            Field::new("j", DataType::Int64),
            Field::new("d", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("b", DataType::Bool),
            Field::new("s", DataType::Utf8),
            Field::new("u", DataType::Utf8),
        ]));
        let arity = schema.arity();
        let pool = ColumnData::strings((0..5).map(|i| format!("key-{i}")));
        let (pool_ids, dict) = pool.as_dict().unwrap();
        let (mut fresh_tx, mut reuse_tx) = (WireEncoder::new(), WireEncoder::new());
        let (mut fresh_size, mut reuse_size) = (WireEncoder::new(), WireEncoder::new());
        for (ints, &(seed, shared)) in chunks.iter().zip(&seeds) {
            let n = ints.len();
            let pick = |i: usize| mix(seed, i as u64);
            let batch = RecordBatch::new(schema.clone(), vec![
                ColumnData::Int64(ints.clone()),
                ColumnData::Int64(ints.iter().map(|x| x.wrapping_mul(3) ^ 1).collect()),
                ColumnData::Int64(ints.iter().map(|x| x % 7).collect()),
                ColumnData::Float64(ints.iter().map(|&x| (x % 3) as f64).collect()),
                ColumnData::Bool(ints.iter().map(|x| x % 5 == 0).collect()),
                ColumnData::Dict {
                    ids: (0..n).map(|i| pool_ids[pick(i) as usize % pool_ids.len()]).collect(),
                    dict: dict.clone(),
                },
                ColumnData::strings((0..n).map(|i| format!("u{}", pick(i) % 4))),
            ]).unwrap();
            let own = WireSketch::of(&batch);
            // The pass-through shape: columns rotated (a projection), the
            // `shared` ones the batch's own `Arc`s, the rest reversed copies.
            // Row by row from the last, into a copy of the column's
            // dictionary.
            let reversed = |c: &ColumnData| {
                let mut out = c.slice(0, 0);
                (0..n).rev().for_each(|i| out.push(c.value(i)).unwrap());
                out
            };
            let perm: Vec<usize> = (0..arity).map(|p| (p + seed as usize) % arity).collect();
            let kept = |i: usize| shared >> i & 1 == 1;
            let passed = RecordBatch::from_arcs(
                Arc::new(schema.project(&perm)),
                perm.iter().map(|&i| match kept(i) {
                    true => batch.columns()[i].clone(),
                    false => Arc::new(reversed(batch.column(i))),
                }).collect(),
            ).unwrap();
            let deep = RecordBatch::new(
                schema.clone(),
                batch.columns().iter().map(|c| (**c).clone()).collect(),
            ).unwrap();
            let mut cases = vec![
                (&batch, WireSketch::of(&passed), (0..arity).filter(|&i| kept(i)).count()),
                (&batch, own.clone(), arity),
                (&batch, WireSketch::of(&deep), 0),
            ];
            // Drops one row, so the view keeps a selection (n >= 2).
            let view = batch.filter(&(0..n).map(|i| i != seed as usize % n.max(1)).collect::<Vec<_>>()).unwrap();
            if view.selection().is_some() {
                cases.push((&batch, WireSketch::of(&view), 0));
                cases.push((&view, own, 0));
            }
            for (current, prior, reused) in cases {
                let covered = (0..arity).filter(|&i| prior.covers(current, i)).count();
                prop_assert_eq!(covered, reused, "columns the prior covers");
                let sketch = WireSketch::reusing(current, &prior);
                prop_assert_eq!(&sketch, &WireSketch::of(current));
                let size = reuse_size.sketched_wire_bytes(current, &sketch).unwrap();
                prop_assert_eq!(size, sized(&mut fresh_size, current));
                let blobs = reuse_tx.encode_sketched(current, &sketch).unwrap();
                prop_assert_eq!(&blobs, &encode(&mut fresh_tx, current));
            }
        }
    }
}

/// The per-candidate derivations the one-pass column plan replaced, kept as
/// the test oracle: every candidate rescans the column, ints hash every row
/// into a SipHash set, and frame reuse rechecks every offset. Slow and
/// obviously right — the plan must agree with it on every codec, size,
/// frame and reuse-vs-fresh decision.
mod oracle {
    use std::collections::{HashMap, HashSet};

    use ci_storage::column::ColumnData;
    use ci_storage::pages::{
        id_bit_width, packed_id_bytes, range_bit_width, PageCodec, ALL_CODECS,
        DICT_INT_MAX_ENTRIES, PAGE_HEADER_BYTES,
    };

    /// `(min, width)` of a For page; `None` for empty or non-integer columns.
    pub fn for_frame(col: &ColumnData) -> Option<(i64, u32)> {
        let (min, max) = match col {
            ColumnData::Int64(v) => {
                let &first = v.first()?;
                v.iter()
                    .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)))
            }
            ColumnData::Bool(v) => {
                if v.is_empty() {
                    return None;
                }
                let any_true = v.iter().any(|&b| b);
                let any_false = v.iter().any(|&b| !b);
                (i64::from(!any_false), i64::from(any_true))
            }
            _ => return None,
        };
        Some((min, range_bit_width(max.wrapping_sub(min) as u64)))
    }

    /// `(first, min_delta, width)` of a Delta page; `None` when empty.
    pub fn delta_frame(col: &ColumnData) -> Option<(i64, i64, u32)> {
        let ColumnData::Int64(vals) = col else {
            return None;
        };
        let &first = vals.first()?;
        let mut deltas: Option<(i64, i64)> = None;
        for w in vals.windows(2) {
            let d = w[1].wrapping_sub(w[0]);
            deltas = Some(match deltas {
                None => (d, d),
                Some((lo, hi)) => (lo.min(d), hi.max(d)),
            });
        }
        let (min_d, max_d) = deltas.unwrap_or((0, 0));
        Some((
            first,
            min_d,
            range_bit_width(max_d.wrapping_sub(min_d) as u64),
        ))
    }

    /// A string column's rows as strings: the oracle reads values, never
    /// ids.
    fn strings(ids: &[u32], dict: &ci_storage::dict::Dictionary) -> Vec<String> {
        ids.iter().map(|&id| dict.get(id).to_owned()).collect()
    }

    /// `(entry_count, entry_bytes)` of the distinct values the rows reference.
    pub fn referenced_entries(col: &ColumnData) -> (usize, u64) {
        match col {
            ColumnData::Dict { ids, dict } => {
                let mut seen: HashSet<String> = HashSet::new();
                let mut bytes = 0u64;
                for s in strings(ids, dict) {
                    if !seen.contains(&s) {
                        bytes += 4 + s.len() as u64;
                        seen.insert(s);
                    }
                }
                (seen.len(), bytes)
            }
            ColumnData::Int64(v) => {
                let seen: HashSet<i64> = v.iter().copied().collect();
                (seen.len(), seen.len() as u64 * 8)
            }
            _ => (0, 0),
        }
    }

    /// `(runs, bytes of one value per run)`.
    fn rle_runs(col: &ColumnData) -> (u64, u64) {
        fn runs_by<T, K: PartialEq>(
            v: &[T],
            key: impl Fn(&T) -> K,
            width: impl Fn(&T) -> u64,
        ) -> (u64, u64) {
            let mut runs = 0u64;
            let mut bytes = 0u64;
            let mut prev: Option<K> = None;
            for x in v {
                let k = key(x);
                if prev.as_ref() != Some(&k) {
                    runs += 1;
                    bytes += width(x);
                    prev = Some(k);
                }
            }
            (runs, bytes)
        }
        match col {
            ColumnData::Int64(v) => runs_by(v, |&x| x, |_| 8),
            ColumnData::Float64(v) => runs_by(v, |x| x.to_bits(), |_| 8),
            ColumnData::Bool(v) => runs_by(v, |&b| b, |_| 1),
            ColumnData::Dict { ids, dict } => {
                runs_by(&strings(ids, dict), |s| s.clone(), |s| 4 + s.len() as u64)
            }
        }
    }

    /// Exact page size under `codec`; `None` where the codec does not apply.
    pub fn encoded_size(col: &ColumnData, codec: PageCodec) -> Option<u64> {
        if !codec.applies_to(col.data_type()) {
            return None;
        }
        let header = PAGE_HEADER_BYTES as u64;
        let rows = col.len() as u64;
        Some(match codec {
            PageCodec::Plain => match col {
                ColumnData::Bool(_) => header + rows,
                ColumnData::Dict { ids, dict } => {
                    let bytes: usize = strings(ids, dict).iter().map(|s| 4 + s.len()).sum();
                    header + bytes as u64
                }
                _ => header + rows * 8,
            },
            PageCodec::Dict => {
                let (entries, entry_bytes) = referenced_entries(col);
                header + 4 + entry_bytes + 1 + packed_id_bytes(col.len(), id_bit_width(entries))
            }
            PageCodec::Rle => {
                let (runs, value_bytes) = rle_runs(col);
                header + 4 + runs * 4 + value_bytes
            }
            PageCodec::For => match for_frame(col) {
                None => header,
                Some((_, width)) => header + 8 + 1 + packed_id_bytes(col.len(), width),
            },
            PageCodec::Delta => match delta_frame(col) {
                None => header,
                Some((_, _, width)) => header + 8 + 8 + 1 + packed_id_bytes(col.len() - 1, width),
            },
        })
    }

    /// Argmin over the candidates (earlier wins ties); `Int64` columns
    /// drop `Dict` past [`DICT_INT_MAX_ENTRIES`] distinct values.
    pub fn pick_codec(col: &ColumnData) -> PageCodec {
        let mut best = (PageCodec::Plain, u64::MAX);
        for codec in ALL_CODECS
            .into_iter()
            .filter(|c| c.applies_to(col.data_type()))
        {
            let capped = matches!(col, ColumnData::Int64(_))
                && referenced_entries(col).0 > DICT_INT_MAX_ENTRIES;
            if codec == PageCodec::Dict && capped {
                continue;
            }
            let size = encoded_size(col, codec).expect("candidate applies");
            if size < best.1 {
                best = (codec, size);
            }
        }
        best.0
    }

    /// A FoR or Delta frame cached per stream column.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Frame {
        For { min: i64, width: u32 },
        Delta { min_d: i64, width: u32 },
    }

    fn fits_bits(off: u64, width: u32) -> bool {
        width >= 64 || off < 1u64 << width
    }

    /// Bytes of an offsets-only page under `frame`, or `None` when some
    /// offset overflows its width.
    fn frame_ref_bytes(frame: Frame, v: &[i64]) -> Option<u64> {
        let header = PAGE_HEADER_BYTES as u64 + 4;
        match frame {
            Frame::For { min, width } => v
                .iter()
                .all(|&x| fits_bits(x.wrapping_sub(min) as u64, width))
                .then(|| header + packed_id_bytes(v.len(), width)),
            Frame::Delta { min_d, width } => v
                .windows(2)
                .all(|w| fits_bits(w[1].wrapping_sub(w[0]).wrapping_sub(min_d) as u64, width))
                .then(|| header + 8 + packed_id_bytes(v.len() - 1, width)),
        }
    }

    /// How one int chunk rides the wire.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum IntPlan {
        /// Self-contained flagless page.
        Page { codec: PageCodec, bytes: u64 },
        /// Frame-bearing page that fills the receiver's cache.
        Fresh { frame: Frame, bytes: u64 },
        /// Offsets-only page against the cached frame.
        Reuse { frame: Frame, bytes: u64 },
    }

    /// The sender's frame cache, one entry per stream column.
    #[derive(Default)]
    pub struct Stream {
        frames: HashMap<u32, Frame>,
    }

    impl Stream {
        pub fn plan_ints(&mut self, v: &[i64], stream_col: u32) -> IntPlan {
            let col = ColumnData::Int64(v.to_vec());
            let codec = pick_codec(&col);
            let page_bytes = encoded_size(&col, codec).expect("picked codec applies");
            let reuse = (!v.is_empty())
                .then(|| self.frames.get(&stream_col))
                .flatten()
                .and_then(|&f| frame_ref_bytes(f, v).map(|bytes| (f, bytes)));
            match codec {
                PageCodec::For | PageCodec::Delta if !v.is_empty() => {
                    let fresh_bytes = page_bytes + 4;
                    match reuse {
                        Some((frame, bytes)) if bytes <= fresh_bytes => {
                            IntPlan::Reuse { frame, bytes }
                        }
                        _ => {
                            let frame = if codec == PageCodec::For {
                                let (min, width) = for_frame(&col).expect("non-empty");
                                Frame::For { min, width }
                            } else {
                                let (_, min_d, width) = delta_frame(&col).expect("non-empty");
                                Frame::Delta { min_d, width }
                            };
                            self.frames.insert(stream_col, frame);
                            IntPlan::Fresh {
                                frame,
                                bytes: fresh_bytes,
                            }
                        }
                    }
                }
                _ => match reuse {
                    Some((frame, bytes)) if bytes <= page_bytes => IntPlan::Reuse { frame, bytes },
                    _ => IntPlan::Page {
                        codec,
                        bytes: page_bytes,
                    },
                },
            }
        }
    }
}

//! Property tests: on-disk `CIPF` page files fail *typed*, never silently.
//!
//! The tiered-storage contract (§3.1's "the object store is the durable
//! tier") is that a corrupted partition or manifest file surfaces as
//! `CiError::Storage` — never a panic, never a silently wrong batch, and
//! never an attacker-controlled allocation. These properties drive random
//! byte flips, truncations, and forged header fields through the real
//! `ObjectStoreDir` read path.

use std::path::PathBuf;
use std::sync::Arc;

use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::table::{Table, TableBuilder};
use ci_storage::tiers::{fnv1a64, ObjectStoreDir, TIER_HEADER_BYTES};
use ci_storage::value::DataType;
use ci_types::{CiError, TableId};
use proptest::prelude::*;

/// One registered table on a real temp directory, plus the pristine bytes of
/// its first partition file and its manifest so each case can corrupt and
/// restore in place.
struct Fixture {
    store: ObjectStoreDir,
    table: Arc<Table>,
    part_path: PathBuf,
    part_good: Vec<u8>,
    manifest_path: PathBuf,
    manifest_good: Vec<u8>,
}

impl Fixture {
    fn new() -> Fixture {
        let schema: SchemaRef = Arc::new(Schema::of(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
            Field::new("tag", DataType::Utf8),
            Field::new("code", DataType::Int64),
            Field::new("ok", DataType::Bool),
        ]));
        let n = 120i64;
        let batch = RecordBatch::new(
            schema.clone(),
            vec![
                ColumnData::Int64((0..n).collect()),
                ColumnData::Float64((0..n).map(|i| i as f64 * 0.25).collect()),
                ColumnData::Utf8((0..n).map(|i| format!("tag{}", i % 5)).collect()),
                ColumnData::Int64((0..n).map(|i| i % 3).collect()),
                ColumnData::Bool((0..n).map(|i| i % 2 == 0).collect()),
            ],
        )
        .unwrap();
        let mut b = TableBuilder::new(TableId::new(90), "props", schema, 16).unwrap();
        b.append(batch).unwrap();
        let table = Arc::new(b.finish().unwrap().dict_encoded());
        let store = ObjectStoreDir::temp().unwrap();
        store.ensure_table(&table).unwrap();
        let part_path = store.partition_path(table.id, 0);
        let part_good = std::fs::read(&part_path).unwrap();
        let manifest_path = store
            .root()
            .join(format!("t{}", table.id.index()))
            .join("table.cipt");
        let manifest_good = std::fs::read(&manifest_path).unwrap();
        Fixture {
            store,
            table,
            part_path,
            part_good,
            manifest_path,
            manifest_good,
        }
    }
}

thread_local! {
    static FIX: Fixture = Fixture::new();
}

/// Writes `bytes` over partition 0 on disk, runs the read, restores the
/// pristine file, and returns the read's outcome.
fn read_with_partition_bytes(f: &Fixture, bytes: &[u8]) -> Result<RecordBatch, CiError> {
    std::fs::write(&f.part_path, bytes).unwrap();
    let got = f.store.read_partition(f.table.id, 0);
    std::fs::write(&f.part_path, &f.part_good).unwrap();
    got
}

fn assert_storage_err(got: Result<RecordBatch, CiError>) -> Result<(), String> {
    match got {
        Err(CiError::Storage(_)) => Ok(()),
        Err(other) => Err(format!("want CiError::Storage, got {other:?}")),
        Ok(_) => Err("corrupted file decoded cleanly".into()),
    }
}

proptest! {
    /// Flipping any single byte of a partition file — header or payload —
    /// is detected as a typed storage error: the payload is checksummed and
    /// every header field is validated against the file or the schema.
    #[test]
    fn flipped_partition_byte_is_always_detected(
        flip_at in 0usize..1_000_000,
        flip_bits in 1u8..255,
    ) {
        FIX.with(|f| -> Result<(), String> {
            let mut bad = f.part_good.clone();
            let at = flip_at % bad.len();
            bad[at] ^= flip_bits;
            assert_storage_err(read_with_partition_bytes(f, &bad))?;
            // The pristine file must still decode exactly after restore.
            let ok = f.store.read_partition(f.table.id, 0)
                .map_err(|e| format!("restored file failed: {e}"))?;
            prop_assert_eq!(&ok, &f.table.partitions[0].batch);
            Ok(())
        })?;
    }

    /// Truncating a partition file at any point — inside the header or the
    /// payload — errs typed: the declared payload length no longer matches
    /// the file size. Appended garbage is rejected by the same check.
    #[test]
    fn truncated_or_padded_partition_is_always_detected(
        cut in 0usize..1_000_000,
        pad in 1usize..64,
    ) {
        FIX.with(|f| -> Result<(), String> {
            let cut = cut % f.part_good.len();
            assert_storage_err(read_with_partition_bytes(f, &f.part_good[..cut]))?;
            let mut padded = f.part_good.clone();
            padded.extend(std::iter::repeat_n(0xabu8, pad));
            assert_storage_err(read_with_partition_bytes(f, &padded))?;
            Ok(())
        })?;
    }

    /// A forged `payload_len` header field — including `u64::MAX` — fails
    /// against the real file size *before* any payload-proportional
    /// allocation: the test passing at all is the no-overallocation proof.
    #[test]
    fn forged_payload_len_never_overallocates(forged in any::<u64>()) {
        FIX.with(|f| -> Result<(), String> {
            let truth = (f.part_good.len() - TIER_HEADER_BYTES) as u64;
            let forged = if forged == truth { forged ^ 1 } else { forged };
            let mut bad = f.part_good.clone();
            bad[12..20].copy_from_slice(&forged.to_le_bytes());
            assert_storage_err(read_with_partition_bytes(f, &bad))?;
            assert_storage_err(read_with_partition_bytes(
                f,
                &{
                    let mut b = f.part_good.clone();
                    b[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
                    b
                },
            ))?;
            Ok(())
        })?;
    }

    /// The row count lives in the header, outside the checksum — but every
    /// forged value is still caught downstream: huge counts hit the decoder
    /// bound, and any other mismatch disagrees with the decoded column
    /// lengths or the packed dict-ref widths.
    #[test]
    fn forged_row_count_is_rejected(forged in any::<u32>()) {
        FIX.with(|f| -> Result<(), String> {
            let truth =
                u32::from_le_bytes(f.part_good[8..12].try_into().unwrap());
            let forged = if forged == truth { forged.wrapping_add(1) } else { forged };
            let mut bad = f.part_good.clone();
            bad[8..12].copy_from_slice(&forged.to_le_bytes());
            assert_storage_err(read_with_partition_bytes(f, &bad))?;
            Ok(())
        })?;
    }

    /// Manifest corruption never panics a cold open: `attach` either rejects
    /// the file typed, or — when the flip lands in the unchecksummed
    /// partition-count field — the surviving metadata still reproduces every
    /// real partition bit-exactly.
    #[test]
    fn manifest_corruption_fails_attach_or_stays_exact(
        flip_at in 0usize..1_000_000,
        flip_bits in 1u8..255,
    ) {
        FIX.with(|f| -> Result<(), String> {
            let mut bad = f.manifest_good.clone();
            let at = flip_at % bad.len();
            bad[at] ^= flip_bits;
            std::fs::write(&f.manifest_path, &bad).unwrap();
            let cold = ObjectStoreDir::at(f.store.root()).unwrap();
            let attached = cold.attach(f.table.id, f.table.schema.clone());
            std::fs::write(&f.manifest_path, &f.manifest_good).unwrap();
            match attached {
                Err(CiError::Storage(_)) => {}
                Err(other) => {
                    return Err(format!("want CiError::Storage, got {other:?}"))
                }
                Ok(_) => {
                    // Only the parts-count byte can slip past the header and
                    // checksum validation; the dictionaries must then still
                    // be exact for every partition that really exists.
                    for (pi, part) in f.table.partitions.iter().enumerate() {
                        let got = cold.read_partition(f.table.id, pi)
                            .map_err(|e| format!("partition {pi}: {e}"))?;
                        prop_assert_eq!(&got, &part.batch);
                    }
                }
            }
            Ok(())
        })?;
    }
}

/// Deleting a partition file out from under a registered table errs typed
/// (the read maps the IO failure to `CiError::Storage`), and restoring the
/// bytes heals the store with no resident state to invalidate.
#[test]
fn missing_partition_file_errs_typed_and_restore_heals() {
    let f = Fixture::new();
    std::fs::remove_file(&f.part_path).unwrap();
    match f.store.read_partition(f.table.id, 0) {
        Err(CiError::Storage(_)) => {}
        other => panic!("want Storage error, got {other:?}"),
    }
    std::fs::write(&f.part_path, &f.part_good).unwrap();
    let got = f.store.read_partition(f.table.id, 0).unwrap();
    assert_eq!(got, f.table.partitions[0].batch);
}

/// Byte offset of column `col`'s kind byte in a `CIPF` / `CIPT` payload:
/// each column before it is skipped by `skip(bytes, at)`, which returns the
/// offset just past that column's entry.
fn kind_offset(bytes: &[u8], col: usize, skip: impl Fn(&[u8], usize) -> usize) -> usize {
    (0..col).fold(TIER_HEADER_BYTES, |at, _| skip(bytes, at))
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Rewrites the stored payload checksum so the file passes it.
fn rechecksum(bytes: &mut [u8]) {
    let sum = fnv1a64(&bytes[TIER_HEADER_BYTES..]);
    bytes[20..28].copy_from_slice(&sum.to_le_bytes());
}

/// Kind `2` — the retired int-dictionary reference — is rejected typed in a
/// partition file and in a manifest alike, even with a valid checksum, so
/// the unknown-kind arms themselves are what fail it. The `tag` column
/// (index 2) is the one whose kind `1` is rewritten: read as a string
/// dict-ref it would decode cleanly.
#[test]
fn retired_int_dict_kind_is_rejected_typed() {
    let f = Fixture::new();
    let mut part = f.part_good.clone();
    let at = kind_offset(&part, 2, |b, at| at + 5 + u32_at(b, at + 1));
    assert_eq!(part[at], 1, "tag is a string dict-ref column");
    part[at] = 2;
    rechecksum(&mut part);
    assert_storage_err(read_with_partition_bytes(&f, &part)).unwrap();

    let mut manifest = f.manifest_good.clone();
    let skip_dict = |b: &[u8], at: usize| match b[at] {
        0 => at + 1,
        _ => (0..u32_at(b, at + 1)).fold(at + 5, |e, _| e + 4 + u32_at(b, e)),
    };
    let at = kind_offset(&manifest, 2, skip_dict);
    assert_eq!(manifest[at], 1, "tag carries a string dictionary");
    manifest[at] = 2;
    rechecksum(&mut manifest);
    std::fs::write(&f.manifest_path, &manifest).unwrap();
    let cold = ObjectStoreDir::at(f.store.root()).unwrap();
    let attached = cold.attach(f.table.id, f.table.schema.clone());
    std::fs::write(&f.manifest_path, &f.manifest_good).unwrap();
    match attached {
        Err(CiError::Storage(_)) => {}
        other => panic!("want CiError::Storage, got {other:?}"),
    }
}

//! Hybrid-columnar storage over the simulated object store.
//!
//! Figure 3's bottom layer: "the storage layer, hosted by cloud object
//! storage services ... keeps the user data in hybrid-columnar formats such
//! as Parquet and ORC". This crate implements the equivalent:
//!
//! * typed [`column::ColumnData`] vectors and [`batch::RecordBatch`]es with
//!   `Arc`-shared columns, per-table [`dict::Dictionary`] string interning,
//!   and late-materializing filters via [`selection::SelectionVector`]
//!   (the zero-copy data path),
//! * self-describing encoded [`pages`] (plain / dict / run-length codecs
//!   with a size-based picker) and the exchange [`pages::WireEncoder`] —
//!   the byte format that lets scans, exchanges, and bills charge *encoded*
//!   sizes instead of decoded ones,
//! * [`partition::MicroPartition`]s — the unit of object-store I/O — carrying
//!   zone maps (per-column min/max) and size metadata,
//! * [`table::Table`]s assembled from micro-partitions, with partition
//!   pruning against predicate ranges ([`pruning`]).
//!
//! Design decision: columns are **non-nullable**. The paper's arguments are
//! about cost and parallelism, not SQL edge semantics; omitting null bitmaps
//! keeps every operator and model in the workspace materially simpler
//! without affecting any experiment's shape.

// Library code reports malformed input as `CiError`, never by unwrapping;
// CI's clippy step fails the day an unwrap comes back. (`expect` stays for
// documented invariants, e.g. the bit-unpack kernels' `"8 bytes"`.)
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod column;
pub mod dict;
pub mod pages;
pub mod partition;
pub mod pruning;
pub mod schema;
pub mod selection;
pub mod table;
pub mod tiers;
pub mod value;

pub use batch::RecordBatch;
pub use column::ColumnData;
pub use dict::Dictionary;
pub use pages::{EncodedPage, PageCodec, WireEncoder, WireSketch};
pub use partition::MicroPartition;
pub use pruning::ColumnBound;
pub use schema::{Field, Schema};
pub use selection::{RowSet, SelectionVector};
pub use table::{Table, TableBuilder};
pub use tiers::{PageSourceMode, PageStore, StoredTable};
pub use value::{DataType, Value};

//! The catalog: name → table + statistics.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use ci_storage::table::Table;
use ci_storage::tiers::{ObjectStoreDir, TierStore};
use ci_types::{CiError, Result, TableId};

use crate::tstats::TableStats;

/// A registered table with its statistics.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// The table data (shared; executors read it concurrently).
    pub table: Arc<Table>,
    /// Statistics computed at registration.
    pub stats: Arc<TableStats>,
}

/// The warehouse catalog. Name lookup is case-insensitive (names are
/// normalized to lowercase, matching the SQL front end).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    by_name: HashMap<String, TableEntry>,
    by_id: HashMap<TableId, String>,
    /// Lazily-created on-disk page store (`CIPF` files). Clones of the
    /// catalog share the same store, so scratch copies (what-if analyses)
    /// don't re-materialize files.
    store: OnceLock<Arc<ObjectStoreDir>>,
    /// Lazily-created physical tier stack over `store`.
    tiers: OnceLock<Arc<TierStore>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a table, dictionary-encoding its string columns ("interned
    /// per table at load") and computing its statistics. Replaces any
    /// existing table of the same name (re-registration models background
    /// refresh, e.g. after a recluster tuning action).
    pub fn register(&mut self, table: Table) -> TableEntry {
        let table = table.dict_encoded();
        let stats = Arc::new(TableStats::compute(&table));
        let name = table.name.to_lowercase();
        let id = table.id;
        let entry = TableEntry {
            table: Arc::new(table),
            stats,
        };
        self.by_id.insert(id, name.clone());
        self.by_name.insert(name, entry.clone());
        // Write-through: if the on-disk page store is already materialized,
        // keep it in sync so a tiered executor never reads stale files.
        // Best-effort by design — `register` predates fallible storage, and
        // the executor's own `ensure_table` surfaces any write error at
        // query time.
        if let Some(store) = self.store.get() {
            let _ = store.ensure_table(&entry.table);
        }
        entry
    }

    /// The on-disk page store backing `PageSourceMode::{Disk, Tiered}`
    /// scans, created under a temp directory on first use. Errors surface as
    /// [`CiError::Storage`].
    pub fn page_store(&self) -> Result<Arc<ObjectStoreDir>> {
        if let Some(s) = self.store.get() {
            return Ok(s.clone());
        }
        let built = Arc::new(ObjectStoreDir::temp()?);
        Ok(self.store.get_or_init(|| built).clone())
    }

    /// The physical tier stack (memory / SSD cache over [`page_store`]),
    /// created on first use.
    ///
    /// [`page_store`]: Catalog::page_store
    pub fn tier_store(&self) -> Result<Arc<TierStore>> {
        if let Some(t) = self.tiers.get() {
            return Ok(t.clone());
        }
        let built = Arc::new(TierStore::new(self.page_store()?)?);
        Ok(self.tiers.get_or_init(|| built).clone())
    }

    /// Looks a table up by name.
    pub fn get(&self, name: &str) -> Result<&TableEntry> {
        self.by_name
            .get(&name.to_lowercase())
            .ok_or_else(|| CiError::Catalog(format!("unknown table '{name}'")))
    }

    /// Looks a table up by id.
    pub fn get_by_id(&self, id: TableId) -> Result<&TableEntry> {
        let name = self
            .by_id
            .get(&id)
            .ok_or_else(|| CiError::Catalog(format!("unknown table id {id}")))?;
        self.get(name)
    }

    /// Iterates over all registered tables.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &TableEntry)> {
        self.by_name.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// `true` when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc as StdArc;

    use ci_storage::batch::RecordBatch;
    use ci_storage::column::ColumnData;
    use ci_storage::schema::{Field, Schema};
    use ci_storage::table::table_from_batch;
    use ci_storage::value::DataType;

    use super::*;

    fn sample(name: &str, id: u32) -> Table {
        let schema = StdArc::new(Schema::of(vec![Field::new("id", DataType::Int64)]));
        table_from_batch(
            TableId::new(id),
            name,
            RecordBatch::new(schema, vec![ColumnData::Int64(vec![1, 2, 3])]).unwrap(),
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register(sample("Orders", 0));
        assert_eq!(c.len(), 1);
        let e = c.get("orders").unwrap();
        assert_eq!(e.stats.row_count, 3);
        // Case-insensitive.
        assert!(c.get("ORDERS").is_ok());
        assert!(c.get("nope").is_err());
    }

    #[test]
    fn lookup_by_id() {
        let mut c = Catalog::new();
        c.register(sample("t1", 7));
        assert!(c.get_by_id(TableId::new(7)).is_ok());
        assert!(c.get_by_id(TableId::new(8)).is_err());
    }

    #[test]
    fn reregistration_replaces() {
        let mut c = Catalog::new();
        c.register(sample("t", 0));
        let schema = StdArc::new(Schema::of(vec![Field::new("id", DataType::Int64)]));
        let bigger = table_from_batch(
            TableId::new(0),
            "t",
            RecordBatch::new(schema, vec![ColumnData::Int64(vec![1, 2, 3, 4, 5])]).unwrap(),
        );
        c.register(bigger);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("t").unwrap().stats.row_count, 5);
    }

    #[test]
    fn iteration() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register(sample("a", 0));
        c.register(sample("b", 1));
        let mut names: Vec<_> = c.tables().map(|(n, _)| n.to_owned()).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }
}

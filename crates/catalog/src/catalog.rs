//! The catalog: id → table + statistics, with a name index.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use ci_storage::table::Table;
use ci_storage::tiers::PageStore;
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

/// The warehouse catalog, keyed by table id. Name lookup is
/// case-insensitive (names are normalized to lowercase, matching the SQL
/// front end): the binder resolves a name once, and everything after it
/// reads by id.
#[derive(Debug, Default)]
pub struct Catalog {
    /// Every table with its lowercase name, in id order.
    by_id: BTreeMap<TableId, (String, TableEntry)>,
    /// Lowercase name → id, one entry per table in `by_id`.
    names: HashMap<String, TableId>,
    /// Lazily-created page store: the tables' `CIPF` files. Owned by this
    /// catalog alone: a clone starts without one (see the `Clone` impl).
    store: OnceLock<Arc<PageStore>>,
}

/// A clone shares every table but starts without a page store. A clone is
/// a scratch world (the what-if service registers a reclustered table into
/// one), so registering into it must not rewrite the original's files; a
/// clone that scans from disk writes its own files on first use.
impl Clone for Catalog {
    fn clone(&self) -> Catalog {
        Catalog {
            by_id: self.by_id.clone(),
            names: self.names.clone(),
            store: OnceLock::new(),
        }
    }
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a table, dictionary-encoding its string columns ("interned
    /// per table at load") and computing its statistics. Replaces any
    /// existing table of the same name or id (re-registration models
    /// background refresh, e.g. after a recluster tuning action).
    pub fn register(&mut self, table: Table) -> TableEntry {
        let table = table.dict_encoded();
        let stats = Arc::new(TableStats::compute(&table));
        let name = table.name.to_lowercase();
        let id = table.id;
        let entry = TableEntry {
            table: Arc::new(table),
            stats,
        };
        if let Some(old) = self.names.remove(&name) {
            self.by_id.remove(&old);
        }
        if let Some((old_name, _)) = self.by_id.remove(&id) {
            self.names.remove(&old_name);
        }
        self.names.insert(name.clone(), id);
        self.by_id.insert(id, (name, entry.clone()));
        // Write-through: if the page store is already materialized, keep it
        // in sync (files rewritten) so a disk or tiered executor never reads
        // stale bytes.
        // Best-effort by design — `register` predates fallible storage, and
        // the executor's own `ensure_table` surfaces any write error at
        // query time.
        if let Some(store) = self.store.get() {
            let _ = store.ensure_table(&entry.table);
        }
        entry
    }

    /// The page store backing `PageSourceMode::{Disk, Tiered}` scans: the
    /// object tier's `CIPF` files under a temp directory and the cache
    /// tiers' copies, created on first use. Errors surface as
    /// [`CiError::Storage`].
    pub fn page_store(&self) -> Result<Arc<PageStore>> {
        if let Some(s) = self.store.get() {
            return Ok(s.clone());
        }
        let built = Arc::new(PageStore::temp()?);
        Ok(self.store.get_or_init(|| built).clone())
    }

    /// Looks a table up by name.
    pub fn get(&self, name: &str) -> Result<&TableEntry> {
        let id = self
            .names
            .get(&name.to_lowercase())
            .ok_or_else(|| CiError::Catalog(format!("unknown table '{name}'")))?;
        self.get_by_id(*id)
    }

    /// Looks a table up by id.
    pub fn get_by_id(&self, id: TableId) -> Result<&TableEntry> {
        self.by_id
            .get(&id)
            .map(|(_, e)| e)
            .ok_or_else(|| CiError::Catalog(format!("unknown table id {id}")))
    }

    /// Iterates over all registered tables (lowercase name, entry) in id
    /// order.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &TableEntry)> {
        self.by_id.values().map(|(n, e)| (n.as_str(), e))
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// `true` when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
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

    /// Re-registering a name under a new id, or an id under a new name,
    /// leaves no stale entry behind: every lookup agrees with the table
    /// registered last.
    #[test]
    fn reregistration_drops_stale_entries() {
        let mut c = Catalog::new();
        c.register(sample("t", 1));
        c.register(sample("t", 2));
        assert!(c.get_by_id(TableId::new(1)).is_err(), "old id of 't'");
        assert_eq!(c.get("t").unwrap().table.id, TableId::new(2));
        assert_eq!(c.len(), 1);

        c.register(sample("a", 7));
        c.register(sample("b", 7));
        assert!(c.get("a").is_err(), "old name of id 7");
        assert_eq!(c.get_by_id(TableId::new(7)).unwrap().table.name, "b");
        assert_eq!(c.len(), 2);
        let ids: Vec<TableId> = c.tables().map(|(_, e)| e.table.id).collect();
        assert_eq!(ids, [TableId::new(2), TableId::new(7)], "id order");
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

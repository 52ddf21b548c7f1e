//! A named collection of tables — one `Database` per worker MySQL instance
//! in the original system.
//!
//! Chunk tables are named `Object_CC` and subchunk tables `Object_CC_SS`
//! (paper §5.2). Subchunk tables are *generated on demand* from chunk
//! tables for spatial-join queries and may be dropped afterwards (§5.4
//! "Chunk Query Representation"); [`Database::create_table`] /
//! [`Database::drop_table`] support that lifecycle.
//!
//! A table may alternatively be *attached* from a persistent chunk file
//! ([`Database::attach_stored`]): only the file footer and an empty
//! shape table are held in memory; scans, and full materialization for
//! the interpreter, joins and subchunk generation, take decoded column
//! pages from a shared byte-budgeted [`Residency`] cache — the worker's
//! lazy chunk residency.

use crate::storage::{Residency, StoredChunk};
use crate::table::Table;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A named table catalog.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
    stored: BTreeMap<String, Arc<StoredChunk>>,
    residency: Arc<Residency>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database {
            tables: BTreeMap::new(),
            stored: BTreeMap::new(),
            residency: Arc::new(Residency::default()),
        }
    }

    /// A database of just the tables in `names` that exist here — the same
    /// `Arc`s and stored-chunk handles, the same [`Residency`] — so one
    /// statement's tables can be held across a lock release without
    /// copying the catalog. Names that do not exist are skipped.
    pub fn scoped<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Database {
        let mut scoped = Database {
            tables: BTreeMap::new(),
            stored: BTreeMap::new(),
            residency: Arc::clone(&self.residency),
        };
        for name in names {
            if let Some(t) = self.tables.get(name) {
                scoped.tables.insert(name.to_string(), Arc::clone(t));
            } else if let Some(c) = self.stored.get(name) {
                scoped.stored.insert(name.to_string(), Arc::clone(c));
            }
        }
        scoped
    }

    /// Registers `table` under `name`, replacing any previous table of that
    /// name (matching `CREATE OR REPLACE` semantics, which is what subchunk
    /// regeneration wants).
    pub fn create_table(&mut self, name: &str, table: Table) {
        self.stored.remove(name);
        self.tables.insert(name.to_string(), Arc::new(table));
    }

    /// Attaches a persistent chunk file as table `name`; only its footer
    /// is read here. Replaces any previous table of that name.
    pub fn attach_stored(&mut self, name: &str, path: &Path) -> io::Result<()> {
        let chunk = StoredChunk::open(path)?;
        self.tables.remove(name);
        self.stored.insert(name.to_string(), Arc::new(chunk));
        Ok(())
    }

    /// Removes a table; true when it existed.
    pub fn drop_table(&mut self, name: &str) -> bool {
        self.tables.remove(name).is_some() | self.stored.remove(name).is_some()
    }

    /// The on-disk path behind a stored table, `None` for in-memory or
    /// unknown names. Rebalancing ships these bytes between workers.
    pub fn stored_path(&self, name: &str) -> Option<std::path::PathBuf> {
        self.stored.get(name).map(|c| c.file().path().to_path_buf())
    }

    /// Looks up an in-memory table (`None` for stored-only tables; see
    /// [`Database::stored`]).
    pub fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Looks up a stored (on-disk) table.
    pub fn stored(&self, name: &str) -> Option<&Arc<StoredChunk>> {
        self.stored.get(name)
    }

    /// True when `name` exists, in memory or on disk.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name) || self.stored.contains_key(name)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .tables
            .keys()
            .chain(self.stored.keys())
            .map(|s| s.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    /// The residency cache, shared with every [`Database::scoped`] view.
    pub fn residency(&self) -> &Arc<Residency> {
        &self.residency
    }

    /// Replaces the residency cache (e.g. with a differently-budgeted
    /// one shared across databases).
    pub fn set_residency(&mut self, residency: Arc<Residency>) {
        self.residency = residency;
    }

    /// Materializes table `name` from the residency cache's pages when
    /// it is stored; in-memory tables return their `Arc` directly.
    pub fn materialize(&self, name: &str) -> io::Result<Option<Arc<Table>>> {
        if let Some(t) = self.tables.get(name) {
            return Ok(Some(t.clone()));
        }
        match self.stored.get(name) {
            Some(chunk) => chunk.resident(&self.residency).map(Some),
            None => Ok(None),
        }
    }

    /// Total estimated footprint of the in-memory tables in bytes. Decoded
    /// pages of stored chunks are not in here: they live in the
    /// [`Residency`], which every [`Database::scoped`] view shares, so
    /// whoever owns the cache adds [`Residency::resident_bytes`] once.
    pub fn footprint_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.footprint_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, Schema};
    use crate::value::Value;

    fn tiny() -> Table {
        let mut t = Table::new(Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]));
        t.push_row(vec![Value::Int(1)]).unwrap();
        t
    }

    #[test]
    fn create_lookup_drop() {
        let mut db = Database::new();
        assert!(!db.has_table("Object_123"));
        db.create_table("Object_123", tiny());
        assert!(db.has_table("Object_123"));
        assert_eq!(db.table("Object_123").unwrap().num_rows(), 1);
        assert!(db.drop_table("Object_123"));
        assert!(!db.drop_table("Object_123"));
    }

    #[test]
    fn create_replaces() {
        let mut db = Database::new();
        db.create_table("T", tiny());
        let mut bigger = tiny();
        bigger.push_row(vec![Value::Int(2)]).unwrap();
        db.create_table("T", bigger);
        assert_eq!(db.table("T").unwrap().num_rows(), 2);
    }

    #[test]
    fn names_sorted_and_footprint() {
        let mut db = Database::new();
        db.create_table("b", tiny());
        db.create_table("a", tiny());
        assert_eq!(db.table_names(), vec!["a", "b"]);
        assert_eq!(db.footprint_bytes(), 16);
    }

    #[test]
    fn scoped_shares_the_named_tables_and_nothing_else() {
        let path =
            std::env::temp_dir().join(format!("qserv_db_scoped_{}.qchunk", std::process::id()));
        crate::storage::write_table(&path, &tiny(), 1024).unwrap();
        let mut db = Database::new();
        db.set_residency(Arc::new(Residency::new(1 << 20)));
        db.create_table("a", tiny());
        db.create_table("b", tiny());
        db.attach_stored("s", &path).unwrap();
        db.attach_stored("t", &path).unwrap();

        let scoped = db.scoped(["a", "s", "nonesuch"]);
        assert_eq!(scoped.table_names(), vec!["a", "s"]);
        assert!(Arc::ptr_eq(
            scoped.table("a").unwrap(),
            db.table("a").unwrap()
        ));
        assert!(Arc::ptr_eq(
            scoped.stored("s").unwrap(),
            db.stored("s").unwrap()
        ));
        assert!(Arc::ptr_eq(scoped.residency(), db.residency()));
        // The view keeps what it bound when the source catalog moves on.
        db.drop_table("a");
        db.drop_table("s");
        assert_eq!(scoped.materialize("a").unwrap().unwrap().num_rows(), 1);
        assert_eq!(scoped.materialize("s").unwrap().unwrap().num_rows(), 1);
        assert!(
            db.residency().resident_pages() > 0,
            "decoded into the shared pool"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

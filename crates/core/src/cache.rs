//! Normalized-query result cache.
//!
//! "Experience deploying an analysis facility for LSST"-style traffic
//! is dominated by many small *repeated* lookups — the same cone
//! search, the same objectId fetch, re-issued by notebooks and dashboards
//! with cosmetic differences in whitespace and casing. This module
//! caches final result tables keyed by the **normalized** query text
//! (the [`to_sql`](qserv_sqlparse::ast::SelectStatement::to_sql)
//! rendering of the statement admission parsed, so `select  x from
//! Object` and `SELECT x FROM Object` share an entry) together with a
//! catalog **data version**: loading
//! or attaching data bumps a version, instantly orphaning affected
//! entries rather than serving stale rows. Invalidation is scoped to
//! the tables actually touched: the service keys each entry on
//! [`crate::Qserv::version_for_tables`] over the query's FROM-clause
//! tables, so [`crate::Qserv::bump_table_version`]`("Source")` orphans
//! the Source lookups while cone searches over Object keep hitting.
//! The global [`crate::Qserv::bump_data_version`] remains the hammer
//! that orphans everything.
//!
//! Only differences the renderer erases (whitespace, keyword casing)
//! fold together. Spellings that survive rendering — function-name
//! case, say — stay distinct keys, which keeps replayed column
//! *headers* exact: two queries share an entry only when their
//! canonical text (headers included) is the same.
//!
//! The cache is a byte-budget LRU: entries charge their materialized
//! result size, oversized results are never admitted, and inserts evict
//! least-recently-used entries until the budget holds. It is a plain
//! data structure — [`crate::QueryService`] drives it under its own
//! lock and owns the `proxy.cache.{hit,miss,evict}` counters.

use crate::service::QueryClass;
use crate::stats::QueryStats;
use qserv_engine::exec::ResultTable;
use qserv_engine::schema::ColumnType;
use qserv_engine::value::Value;
use qserv_sqlparse::ast::SelectStatement;
use std::collections::HashMap;
use std::sync::Arc;

/// The cache identity of a parsed statement: its canonical rendering
/// plus the sorted, deduplicated FROM-clause table names — the tables
/// whose data versions the key must cover. Two statements render equal
/// iff the parser saw the same query (one rendering is the fixed point:
/// `sqlparse`'s `printed_statements_reparse_to_same_ast` property),
/// which is exactly the equivalence a result cache may key on. Because
/// the rendering pins the exact table set, a version sum over *these*
/// tables is a sound key: an entry can only be replayed for a query
/// over the same tables, so bumping any one of them perturbs the sum
/// and orphans exactly the entries that read it.
pub(crate) fn statement_key(stmt: &SelectStatement) -> (String, Vec<String>) {
    let mut tables: Vec<String> = stmt.from.iter().map(|t| t.table.clone()).collect();
    tables.sort_unstable();
    tables.dedup();
    (stmt.to_sql(), tables)
}

fn row_bytes(r: &[Value]) -> u64 {
    24 + r
        .iter()
        .map(|v| {
            16 + match v {
                Value::Str(s) => s.len() as u64,
                _ => 0,
            }
        })
        .sum::<u64>()
}

/// Approximate heap footprint of a result table, the currency of the
/// cache's byte budget.
pub fn result_bytes(t: &ResultTable) -> u64 {
    let cols: u64 = t.columns.iter().map(|c| 24 + c.len() as u64).sum();
    cols + t.rows.iter().map(|r| row_bytes(r)).sum::<u64>()
}

/// Running-total footprint of one stream batch (same accounting as
/// [`result_bytes`]), so a streaming query can stop collecting itself
/// for the cache the moment it clearly exceeds the per-entry cap.
pub fn stream_batch_bytes(b: &crate::merge::StreamBatch) -> u64 {
    b.rows.iter().map(|r| row_bytes(r)).sum()
}

/// One cached result: everything needed to replay a completed query
/// without touching the scheduler or the master.
#[derive(Debug)]
pub struct CachedResult {
    /// The final result table, byte-identical to what execution returned.
    pub table: ResultTable,
    /// Per-column types of `table` (what the proxy's TYPES frame carries).
    pub types: Vec<Option<ColumnType>>,
    /// The stats of the execution that populated the entry.
    pub stats: QueryStats,
    /// The class that execution was admitted under.
    pub class: QueryClass,
}

struct Entry {
    value: Arc<CachedResult>,
    version: u64,
    bytes: u64,
    last_used: u64,
}

/// Byte-budget LRU over normalized-query keys. Not thread-safe by
/// itself — the service wraps it in a mutex.
pub struct ResultCache {
    capacity_bytes: u64,
    max_entry_bytes: u64,
    entries: HashMap<String, Entry>,
    used_bytes: u64,
    tick: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity_bytes` of results, refusing
    /// any single entry above `max_entry_bytes`.
    pub fn new(capacity_bytes: u64, max_entry_bytes: u64) -> ResultCache {
        ResultCache {
            capacity_bytes,
            max_entry_bytes: max_entry_bytes.min(capacity_bytes),
            entries: HashMap::new(),
            used_bytes: 0,
            tick: 0,
        }
    }

    /// Looks up `normalized` under the current data `version`. An entry
    /// stored under an older version is treated as absent (and dropped,
    /// so invalidated entries do not squat on the budget).
    pub fn get(&mut self, version: u64, normalized: &str) -> Option<Arc<CachedResult>> {
        match self.entries.get(normalized) {
            Some(e) if e.version == version => {
                self.tick += 1;
                let tick = self.tick;
                let e = self.entries.get_mut(normalized).expect("present above");
                e.last_used = tick;
                Some(Arc::clone(&e.value))
            }
            Some(_) => {
                let e = self.entries.remove(normalized).expect("present above");
                self.used_bytes -= e.bytes;
                None
            }
            None => None,
        }
    }

    /// Stores a result; returns how many entries were evicted to make
    /// room (the caller's `proxy.cache.evict` delta). Oversized results
    /// are refused (returning 0) — one sky-sized scan must not wipe the
    /// lookup working set.
    pub fn insert(&mut self, version: u64, normalized: String, value: Arc<CachedResult>) -> u64 {
        let bytes = result_bytes(&value.table).max(1);
        if bytes > self.max_entry_bytes || self.capacity_bytes == 0 {
            return 0;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&normalized) {
            self.used_bytes -= old.bytes;
        }
        self.used_bytes += bytes;
        self.entries.insert(
            normalized,
            Entry {
                value,
                version,
                bytes,
                last_used: self.tick,
            },
        );
        let mut evicted = 0;
        while self.used_bytes > self.capacity_bytes {
            // Prefer evicting stale-version entries, then the LRU. A
            // linear scan is fine at the entry counts a byte budget
            // admits; swap in an ordered index if profiles disagree.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.version == version, e.last_used))
                .map(|(k, _)| k.clone())
                .expect("used_bytes > 0 implies entries");
            let e = self.entries.remove(&victim).expect("victim present");
            self.used_bytes -= e.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry (explicit invalidation; version bumps usually
    /// make this unnecessary).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used_bytes = 0;
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(rows: usize, s: &str) -> Arc<CachedResult> {
        let table = ResultTable {
            columns: vec!["x".into()],
            rows: (0..rows).map(|_| vec![Value::Str(s.to_string())]).collect(),
        };
        let types = vec![Some(ColumnType::Str)];
        Arc::new(CachedResult {
            table,
            types,
            stats: QueryStats::default(),
            class: QueryClass::Interactive,
        })
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let mut c = ResultCache::new(10_000, 10_000);
        assert!(c.get(1, "q").is_none());
        c.insert(1, "q".into(), result(3, "v"));
        assert_eq!(c.get(1, "q").unwrap().table.num_rows(), 3);
        // A version bump orphans the entry and frees its bytes.
        assert!(c.get(2, "q").is_none());
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let one = result_bytes(&result(1, "0123456789").table);
        let mut c = ResultCache::new(3 * one, one);
        c.insert(1, "a".into(), result(1, "0123456789"));
        c.insert(1, "b".into(), result(1, "0123456789"));
        c.insert(1, "c".into(), result(1, "0123456789"));
        // Touch a so b is the LRU.
        assert!(c.get(1, "a").is_some());
        let evicted = c.insert(1, "d".into(), result(1, "0123456789"));
        assert_eq!(evicted, 1);
        assert!(c.get(1, "b").is_none(), "LRU entry evicted");
        assert!(c.get(1, "a").is_some());
        assert!(c.get(1, "d").is_some());
    }

    #[test]
    fn oversized_entries_are_refused() {
        let mut c = ResultCache::new(10_000, 100);
        assert_eq!(c.insert(1, "big".into(), result(100, "0123456789")), 0);
        assert!(c.get(1, "big").is_none());
        assert_eq!(c.used_bytes(), 0);
    }
}

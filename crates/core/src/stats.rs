//! Per-query statistics as a thin view over a [`MetricsRegistry`].
//!
//! `QueryStats` used to be a hand-written struct that grew one field per
//! PR, updated by `&mut` threading through the dispatch paths. The
//! fields survive unchanged (tests read them directly), but they are now
//! *derived*: dispatch updates named instruments on a per-query
//! [`qserv_obs::MetricsRegistry`] — atomics, safe to touch from any
//! dispatcher thread — and [`QueryStats`] is built from a snapshot at
//! the end. New measurements (per-chunk latency and attempt histograms,
//! say) are one `registry.histogram(...)` call, not a struct change.

use qserv_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use std::sync::Arc;

/// Canonical instrument names on a per-query registry.
pub mod names {
    /// Counter: chunk queries dispatched.
    pub const CHUNKS_DISPATCHED: &str = "query.chunks_dispatched";
    /// Gauge: rows accumulated into the master's merge state.
    pub const ROWS_MERGED: &str = "query.rows_merged";
    /// Counter: bytes of chunk results (one frame per chunk) transferred
    /// from workers.
    pub const RESULT_BYTES: &str = "query.result_bytes";
    /// Gauge (0/1): secondary index restricted the chunk set.
    pub const USED_SECONDARY_INDEX: &str = "query.used_secondary_index";
    /// Gauge (0/1): spatial restriction narrowed the chunk set.
    pub const USED_SPATIAL_RESTRICTION: &str = "query.used_spatial_restriction";
    /// Counter: chunks needing more than one dispatch attempt.
    pub const CHUNKS_RETRIED: &str = "query.chunks_retried";
    /// Counter: retries that landed on a different replica.
    pub const REPLICA_FAILOVERS: &str = "query.replica_failovers";
    /// Counter: injected fabric faults observed (and retried past); a
    /// fault failing a whole bundle counts once.
    pub const INJECTED_FAULTS_OBSERVED: &str = "query.injected_faults_observed";
    /// Counter: chunks never dispatched, or left unrun inside a bundle,
    /// thanks to LIMIT cutoff.
    pub const CHUNKS_SKIPPED_BY_LIMIT: &str = "query.chunks_skipped_by_limit";
    /// Gauge (high-water): chunk results materialized at once.
    pub const PEAK_BUFFERED_PARTS: &str = "query.peak_buffered_parts";
    /// Gauge: ms from first incremental fold to last part arrival.
    pub const MERGE_OVERLAP_MS: &str = "query.merge_overlap_ms";
    /// Counter: chunks elided before dispatch by zone-map pruning.
    pub const CHUNKS_PRUNED: &str = "query.chunks_pruned";
    /// Counter: row-group pages elided by worker zone maps (cold scans).
    pub const PAGES_PRUNED: &str = "query.pages_pruned";
    /// Counter: row-group pages workers' paged scans read, from the
    /// residency cache or from disk.
    pub const PAGES_SCANNED: &str = "query.pages_scanned";
    /// Counter: the scanned row-group pages served from the workers'
    /// residency caches without touching a file.
    pub const PAGES_CACHED: &str = "query.pages_cached";
    /// Gauge: the planner's estimated merged-result row count.
    pub const PLANNER_EST_ROWS: &str = "planner.est_rows";
    /// Gauge: estimate-vs-actual q-error × 100 (100 = perfect).
    pub const PLANNER_QERROR_PCT: &str = "planner.qerror_pct";
    /// Gauge (0/1): the planner chose the secondary-index access path.
    pub const PLANNER_INDEX_LOOKUP: &str = "planner.index_lookup";
    /// Gauge (0/1): the planner pushed ORDER BY + LIMIT into the chunks.
    pub const PLANNER_TOPN_PUSHDOWN: &str = "planner.topn_pushdown";
    /// Gauge (0/1): the planner reordered the WHERE conjuncts.
    pub const PLANNER_REORDERED: &str = "planner.predicates_reordered";
    /// Histogram: dispatch attempts per completed chunk.
    pub const CHUNK_ATTEMPTS: &str = "chunk.attempts";
    /// Histogram: per-chunk dispatch latency — from its bundle's first
    /// send until its result came back (clock ns, retries included).
    pub const CHUNK_LATENCY_NS: &str = "chunk.dispatch_latency_ns";
}

/// Per-query execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Chunk queries dispatched.
    pub chunks_dispatched: usize,
    /// Rows accumulated into the master's merge table.
    pub rows_merged: usize,
    /// Bytes of chunk results (one frame per chunk) transferred from
    /// workers.
    pub result_bytes: u64,
    /// True when the secondary index restricted the chunk set (§5.5).
    pub used_secondary_index: bool,
    /// True when the spatial restriction narrowed the chunk set (§5.3).
    pub used_spatial_restriction: bool,
    /// Chunks that needed more than one dispatch attempt.
    pub chunks_retried: usize,
    /// Retry attempts that landed on a different replica than the
    /// attempt before them.
    pub replica_failovers: usize,
    /// Injected fabric faults this query ran into (and retried past,
    /// when it succeeded); a fault failing a whole bundle counts once.
    pub injected_faults_observed: u64,
    /// Chunks the streaming pipeline never dispatched because a
    /// pushed-down LIMIT was already satisfied (LIMIT-cutoff
    /// cancellation), or that a worker left unrun once its bundle had the
    /// LIMIT's rows.
    pub chunks_skipped_by_limit: usize,
    /// High-water mark of chunk results waiting at once in the merger's
    /// reorder buffer for an earlier chunk's result.
    pub peak_buffered_parts: usize,
    /// Clock span (ms) from the first incremental fold to the last part
    /// arrival — the window in which merging overlapped dispatch.
    pub merge_overlap_ms: u64,
    /// Chunks elided before dispatch by the per-chunk zone maps.
    pub chunks_pruned: usize,
    /// Row-group pages workers elided via zone maps during cold scans.
    pub pages_pruned: u64,
    /// Row-group pages workers' paged scans read, from cache or disk.
    pub pages_scanned: u64,
    /// The scanned row-group pages served from the workers' residency
    /// caches without touching a file.
    pub pages_cached: u64,
    /// The planner's estimated merged-result row count (rounded).
    pub planner_est_rows: u64,
    /// Estimate-vs-actual q-error × 100 (100 = perfect estimate; 0 when
    /// the query never recorded an actual, e.g. errors or plain
    /// EXPLAIN).
    pub planner_qerror_pct: u64,
}

impl QueryStats {
    /// Builds the view from a registry snapshot (see [`names`]).
    pub fn from_snapshot(s: &MetricsSnapshot) -> QueryStats {
        QueryStats {
            chunks_dispatched: s.counter(names::CHUNKS_DISPATCHED) as usize,
            rows_merged: s.gauge(names::ROWS_MERGED) as usize,
            result_bytes: s.counter(names::RESULT_BYTES),
            used_secondary_index: s.gauge(names::USED_SECONDARY_INDEX) != 0,
            used_spatial_restriction: s.gauge(names::USED_SPATIAL_RESTRICTION) != 0,
            chunks_retried: s.counter(names::CHUNKS_RETRIED) as usize,
            replica_failovers: s.counter(names::REPLICA_FAILOVERS) as usize,
            injected_faults_observed: s.counter(names::INJECTED_FAULTS_OBSERVED),
            chunks_skipped_by_limit: s.counter(names::CHUNKS_SKIPPED_BY_LIMIT) as usize,
            peak_buffered_parts: s.gauge(names::PEAK_BUFFERED_PARTS) as usize,
            merge_overlap_ms: s.gauge(names::MERGE_OVERLAP_MS),
            chunks_pruned: s.counter(names::CHUNKS_PRUNED) as usize,
            pages_pruned: s.counter(names::PAGES_PRUNED),
            pages_scanned: s.counter(names::PAGES_SCANNED),
            pages_cached: s.counter(names::PAGES_CACHED),
            planner_est_rows: s.gauge(names::PLANNER_EST_ROWS),
            planner_qerror_pct: s.gauge(names::PLANNER_QERROR_PCT),
        }
    }
}

/// Pre-created instrument handles on one per-query registry: what the
/// dispatch paths actually update. Cheap handles — clone freely into
/// dispatcher threads.
#[derive(Clone)]
pub(crate) struct QueryMetrics {
    registry: Arc<MetricsRegistry>,
    pub chunks_dispatched: Counter,
    pub rows_merged: Gauge,
    pub result_bytes: Counter,
    pub used_secondary_index: Gauge,
    pub used_spatial_restriction: Gauge,
    pub chunks_retried: Counter,
    pub replica_failovers: Counter,
    pub injected_faults_observed: Counter,
    pub chunks_skipped_by_limit: Counter,
    pub peak_buffered_parts: Gauge,
    pub merge_overlap_ms: Gauge,
    pub chunks_pruned: Counter,
    pub pages_pruned: Counter,
    pub pages_scanned: Counter,
    pub pages_cached: Counter,
    pub planner_est_rows: Gauge,
    pub planner_qerror_pct: Gauge,
    pub planner_index_lookup: Gauge,
    pub planner_topn_pushdown: Gauge,
    pub planner_reordered: Gauge,
    pub chunk_attempts: Histogram,
    pub chunk_latency_ns: Histogram,
}

impl QueryMetrics {
    /// Handles over a fresh registry.
    pub fn new() -> QueryMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        QueryMetrics {
            chunks_dispatched: registry.counter(names::CHUNKS_DISPATCHED),
            rows_merged: registry.gauge(names::ROWS_MERGED),
            result_bytes: registry.counter(names::RESULT_BYTES),
            used_secondary_index: registry.gauge(names::USED_SECONDARY_INDEX),
            used_spatial_restriction: registry.gauge(names::USED_SPATIAL_RESTRICTION),
            chunks_retried: registry.counter(names::CHUNKS_RETRIED),
            replica_failovers: registry.counter(names::REPLICA_FAILOVERS),
            injected_faults_observed: registry.counter(names::INJECTED_FAULTS_OBSERVED),
            chunks_skipped_by_limit: registry.counter(names::CHUNKS_SKIPPED_BY_LIMIT),
            peak_buffered_parts: registry.gauge(names::PEAK_BUFFERED_PARTS),
            merge_overlap_ms: registry.gauge(names::MERGE_OVERLAP_MS),
            chunks_pruned: registry.counter(names::CHUNKS_PRUNED),
            pages_pruned: registry.counter(names::PAGES_PRUNED),
            pages_scanned: registry.counter(names::PAGES_SCANNED),
            pages_cached: registry.counter(names::PAGES_CACHED),
            planner_est_rows: registry.gauge(names::PLANNER_EST_ROWS),
            planner_qerror_pct: registry.gauge(names::PLANNER_QERROR_PCT),
            planner_index_lookup: registry.gauge(names::PLANNER_INDEX_LOOKUP),
            planner_topn_pushdown: registry.gauge(names::PLANNER_TOPN_PUSHDOWN),
            planner_reordered: registry.gauge(names::PLANNER_REORDERED),
            chunk_attempts: registry.histogram(names::CHUNK_ATTEMPTS),
            chunk_latency_ns: registry.histogram(names::CHUNK_LATENCY_NS),
            registry,
        }
    }

    /// Point-in-time view of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The classic stats view.
    pub fn stats(&self) -> QueryStats {
        QueryStats::from_snapshot(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_view_reflects_instruments() {
        let qm = QueryMetrics::new();
        qm.chunks_dispatched.add(7);
        qm.rows_merged.set(123);
        qm.result_bytes.add(4096);
        qm.used_secondary_index.set(1);
        qm.chunks_retried.inc();
        qm.injected_faults_observed.add(3);
        qm.peak_buffered_parts.set_max(5);
        qm.peak_buffered_parts.set_max(2);
        let s = qm.stats();
        assert_eq!(s.chunks_dispatched, 7);
        assert_eq!(s.rows_merged, 123);
        assert_eq!(s.result_bytes, 4096);
        assert!(s.used_secondary_index);
        assert!(!s.used_spatial_restriction);
        assert_eq!(s.chunks_retried, 1);
        assert_eq!(s.injected_faults_observed, 3);
        assert_eq!(s.peak_buffered_parts, 5);
    }

    #[test]
    fn empty_registry_views_as_default_stats() {
        assert_eq!(QueryMetrics::new().stats(), QueryStats::default());
    }

    #[test]
    fn histograms_ride_along_in_the_snapshot() {
        let qm = QueryMetrics::new();
        qm.chunk_attempts.record(1);
        qm.chunk_attempts.record(3);
        let snap = qm.snapshot();
        let h = snap.histogram(names::CHUNK_ATTEMPTS);
        assert_eq!((h.count, h.sum, h.max), (2, 4, 3));
        // The view ignores histograms; the snapshot carries them.
        assert_eq!(QueryStats::from_snapshot(&snap).chunks_dispatched, 0);
    }
}

//! Shared scanning (paper §4.3; "planned for implementation" in §5).
//!
//! With table scans the norm, k concurrent full-scan queries each doing
//! their own pass would randomize disk access. Shared scanning (convoy
//! scheduling) reads the table *once per chunk* and lets every interested
//! query operate on the chunk while it is resident: "results from many
//! full-scan queries can be returned in little more than the time for a
//! single full-scan query."
//!
//! [`SharedScanner`] prepares a batch of queries and hands them, as the
//! members of one convoy, to the master's one dispatch loop: the bundle
//! queue walks the *union* of the members' chunk sets one chunk at a
//! time — grouped by worker, as a lone statement's chunks are — and each
//! member reading the chunk sends its bundle of one, so every member's
//! physical query for a chunk leaves back-to-back and the chunk's data is
//! touched once per convoy pass instead of once per query. Each member keeps its own streaming [`Merger`](crate::Merger)
//! and instruments: chunk results fold in as the convoy advances, and a
//! member whose pushed-down LIMIT is satisfied stops receiving dispatches
//! while the convoy carries on for the others. Results and statistics are
//! identical to running the queries independently (tested in `tests/`,
//! including under fault injection in `tests/chaos.rs`).
//! [`ScanReport::chunk_passes`] vs [`ScanReport::naive_passes`]
//! quantifies the saved I/O; the simulator-backed ablation in `figures`
//! converts that into seconds.

use crate::error::QservError;
use crate::master::{record_plan, CancelToken, Member, Prepared, Qserv, QueryStats, Statement};
use crate::stats::QueryMetrics;
use qserv_engine::exec::ResultTable;

/// Outcome of one convoy run.
#[derive(Clone, Debug)]
pub struct ScanReport {
    /// Per-query results, in input order — identical to what independent
    /// execution would return.
    pub results: Vec<ResultTable>,
    /// Chunks visited by the convoy (each counted once).
    pub chunk_passes: usize,
    /// Chunk visits independent execution would have made
    /// (Σ per-query chunk-set sizes).
    pub naive_passes: usize,
    /// Per-member pipeline statistics, in input order (dispatch counts,
    /// retries, LIMIT-cutoff skips, rows folded).
    pub stats: Vec<QueryStats>,
}

/// The convoy scheduler over a running cluster.
pub struct SharedScanner<'q> {
    qserv: &'q Qserv,
}

impl<'q> SharedScanner<'q> {
    /// Creates a scheduler over `qserv`.
    pub fn new(qserv: &'q Qserv) -> SharedScanner<'q> {
        SharedScanner { qserv }
    }

    /// Runs a batch of queries as one convoy. The first error in member
    /// order fails the batch.
    pub fn run(&self, queries: &[&str]) -> Result<ScanReport, QservError> {
        let prepared: Vec<Prepared> = queries
            .iter()
            .map(|sql| match self.qserv.prepare(sql)? {
                Statement::Distributed(prepared) => Ok(prepared),
                Statement::Local(_) => Err(QservError::Analysis(
                    "shared scans need table queries".to_string(),
                )),
            })
            .collect::<Result<_, _>>()?;
        let metrics: Vec<QueryMetrics> = prepared.iter().map(|_| QueryMetrics::new()).collect();
        // Nothing outside the batch can cancel a member.
        let token = CancelToken::new();
        let members = prepared
            .iter()
            .zip(&metrics)
            .map(|(prepared, qm)| Member {
                prepared,
                qm,
                token: &token,
                sink: None,
            })
            .collect();
        let dispatched = self.qserv.dispatch_streaming(members)?;
        let mut results = Vec::with_capacity(prepared.len());
        for ((outcome, p), qm) in dispatched.results.into_iter().zip(&prepared).zip(&metrics) {
            let table = outcome?;
            record_plan(qm, p, table.num_rows() as u64);
            results.push(table);
        }
        Ok(ScanReport {
            results,
            chunk_passes: dispatched.chunk_passes,
            naive_passes: prepared.iter().map(|p| p.chunks.len()).sum(),
            stats: metrics.iter().map(QueryMetrics::stats).collect(),
        })
    }
}

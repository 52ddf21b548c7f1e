//! Shared scanning (paper §4.3; "planned for implementation" in §5).
//!
//! With table scans the norm, k concurrent full-scan queries each doing
//! their own pass would randomize disk access. Shared scanning (convoy
//! scheduling) reads the table *once per chunk* and lets every interested
//! query operate on the chunk while it is resident: "results from many
//! full-scan queries can be returned in little more than the time for a
//! single full-scan query."
//!
//! [`SharedScanner`] implements the scheduler the paper planned: it takes
//! a batch of queries, computes each one's chunk set, and walks the
//! *union* of chunks chunk-major, dispatching every query's physical
//! query for a chunk back-to-back so the chunk's data is touched once per
//! convoy pass instead of once per query. Each member keeps one
//! persistent streaming [`Merger`] for the whole convoy: chunk results
//! fold in as the convoy advances (chunk-major order is ascending, so
//! folds are naturally in-order), and a member whose pushed-down LIMIT is
//! satisfied simply stops receiving dispatches while the convoy carries
//! on for the others. Results are identical to running the queries
//! independently (property-tested in `tests/`, including under fault
//! injection in `tests/chaos.rs`). [`ScanReport::chunk_passes`] vs
//! [`ScanReport::naive_passes`] quantifies the saved I/O; the sim-backed
//! ablation bench converts that into seconds.

use crate::error::QservError;
use crate::master::{effective_width, CancelToken, Prepared, Qserv, QueryStats, Statement};
use crate::merge::Merger;
use crate::rewrite::render_chunk_message;
use crate::stats::QueryMetrics;
use parking_lot::Mutex;
use qserv_engine::exec::ResultTable;
use qserv_obs::trace;
use std::collections::BTreeSet;

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

/// Outcome of [`SharedScanner::run_adaptive`]: the planner decided,
/// per member, whether convoy attachment pays off.
#[derive(Clone, Debug)]
pub struct AdaptiveReport {
    /// Per-query results, in input order — identical to what independent
    /// execution would return.
    pub results: Vec<ResultTable>,
    /// Members the planner attached to the convoy (scan-class plans).
    pub attached: usize,
    /// Members that ran independently (interactive plans: index lookups
    /// and small chunk sets a convoy would only delay).
    pub detached: usize,
    /// Chunks visited by the convoy pass (zero when nothing attached).
    pub chunk_passes: usize,
    /// Chunk visits the attached members would have made independently.
    pub naive_passes: usize,
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

    /// Prepares every member of a batch, once.
    fn prepare_all(&self, queries: &[&str]) -> Result<Vec<Prepared>, QservError> {
        queries
            .iter()
            .map(|sql| match self.qserv.prepare(sql)? {
                Statement::Distributed(prepared) => Ok(prepared),
                Statement::Local(_) => Err(QservError::Analysis(
                    "shared scans need table queries".to_string(),
                )),
            })
            .collect()
    }

    /// Runs a batch of queries as one convoy.
    pub fn run(&self, queries: &[&str]) -> Result<ScanReport, QservError> {
        self.convoy(self.prepare_all(queries)?)
    }

    /// One convoy pass over already-prepared members.
    fn convoy(&self, prepared: Vec<Prepared>) -> Result<ScanReport, QservError> {
        // The convoy's chunk ordering: ascending union of all chunk sets.
        let union: BTreeSet<i32> = prepared
            .iter()
            .flat_map(|p| p.chunks.iter().copied())
            .collect();
        let naive_passes: usize = prepared.iter().map(|p| p.chunks.len()).sum();

        // One persistent merger and per-member instrument set. Stats are
        // derived from the instruments when the convoy finishes.
        let mut mergers: Vec<Merger> = prepared.iter().map(|p| Merger::new(&p.plan)).collect();
        let metrics: Vec<QueryMetrics> = prepared
            .iter()
            .map(|p| {
                let qm = QueryMetrics::new();
                qm.used_secondary_index
                    .set(p.analysis.index_ids.is_some() as u64);
                qm.used_spatial_restriction
                    .set(p.analysis.spatial.is_some() as u64);
                qm
            })
            .collect();
        // Next fold sequence per member = how many of its chunks it has
        // consumed; the ascending chunk-major walk keeps each member's
        // own folds in order, so the reorder buffer never fills.
        let mut next_seq: Vec<usize> = vec![0; prepared.len()];
        let started = self.qserv.clock().now();
        // Convoys are not individually killable (yet): members share
        // dispatch, so a per-member token would cancel the whole pass.
        let token = CancelToken::new();

        // Walk chunk-major: all queries touch chunk c while it is "hot".
        // Within a chunk the convoy members are independent physical
        // queries, so they are dispatched from a thread pool; folds are
        // reassembled by query index, keeping per-query chunk order (and
        // thus merged results) identical to sequential execution.
        let mut chunk_passes = 0usize;
        for &chunk in &union {
            // Render + tag sequentially: QID assignment stays
            // deterministic in (chunk, query) order regardless of which
            // dispatcher thread later carries each message. A member
            // whose LIMIT is already satisfied is skipped — the convoy's
            // own LIMIT-cutoff cancellation.
            let mut jobs: Vec<(usize, String)> = Vec::new();
            for (qi, p) in prepared.iter().enumerate() {
                if !p.chunks.contains(&chunk) {
                    continue;
                }
                if mergers[qi].satisfied() {
                    metrics[qi].chunks_skipped_by_limit.inc();
                    continue;
                }
                let subs = self.qserv.subchunks_for(p, chunk);
                let message = self.qserv.tag_message(render_chunk_message(
                    &p.plan,
                    self.qserv.meta(),
                    chunk,
                    &subs,
                ));
                jobs.push((qi, message));
            }
            if jobs.is_empty() {
                continue;
            }
            chunk_passes += 1;

            type MemberOutcome =
                Result<(qserv_engine::table::Table, u64, crate::master::ChunkMeta), QservError>;
            let width = effective_width(self.qserv.dispatch_width, jobs.len());
            let queue = Mutex::new(jobs.into_iter());
            let done: Mutex<Vec<(usize, MemberOutcome)>> = Mutex::new(Vec::new());
            let ctx = trace::current();
            crossbeam::thread::scope(|scope| {
                for _ in 0..width {
                    scope.spawn(|_| {
                        let _tg = ctx.as_ref().map(|c| c.enter());
                        loop {
                            let job = queue.lock().next();
                            let Some((qi, message)) = job else { break };
                            let outcome = self.qserv.dispatch_one(chunk, &message, started, &token);
                            done.lock().push((qi, outcome));
                        }
                    });
                }
            })
            .map_err(|_| QservError::Fabric("convoy dispatcher thread panicked".to_string()))?;

            let mut collected = done.into_inner();
            collected.sort_by_key(|(qi, _)| *qi);
            for (qi, outcome) in collected {
                let (table, bytes, meta) = outcome?;
                let qm = &metrics[qi];
                qm.chunks_dispatched.inc();
                crate::master::record_chunk(qm, bytes, &meta);
                mergers[qi].fold(next_seq[qi], table)?;
                next_seq[qi] += 1;
            }
        }

        // Finish each member's merger and derive its stats view.
        let mut results = Vec::with_capacity(prepared.len());
        let mut stats = Vec::with_capacity(prepared.len());
        for (qi, merger) in mergers.into_iter().enumerate() {
            let qm = &metrics[qi];
            qm.rows_merged.set(merger.rows_folded() as u64);
            qm.peak_buffered_parts
                .set_max(merger.peak_buffered_parts() as u64);
            results.push(merger.finish()?);
            stats.push(qm.stats());
        }
        Ok(ScanReport {
            results,
            chunk_passes,
            naive_passes,
            stats,
        })
    }

    /// Runs a batch with planner-driven attachment: members whose plan
    /// is scan-class ([`crate::planner::PlanChoice::attach_convoy`])
    /// share one convoy pass; interactive members (index lookups, small
    /// chunk sets) run independently so a convoy of unrelated scans
    /// cannot delay them. Results are identical to [`SharedScanner::run`]
    /// either way — attachment is purely a scheduling decision.
    pub fn run_adaptive(&self, queries: &[&str]) -> Result<AdaptiveReport, QservError> {
        let (attached, detached): (Vec<_>, Vec<_>) = self
            .prepare_all(queries)?
            .into_iter()
            .enumerate()
            .partition(|(_, prepared)| prepared.choice.attach_convoy);
        let (attach_idx, attached): (Vec<usize>, Vec<Prepared>) = attached.into_iter().unzip();
        let mut results: Vec<Option<ResultTable>> = vec![None; queries.len()];
        let (chunk_passes, naive_passes) = if attached.is_empty() {
            (0, 0)
        } else {
            let report = self.convoy(attached)?;
            for (&slot, table) in attach_idx.iter().zip(report.results) {
                results[slot] = Some(table);
            }
            (report.chunk_passes, report.naive_passes)
        };
        for (i, prepared) in detached {
            let statement = Statement::Distributed(prepared);
            let (table, _) = self.qserv.run(statement, &CancelToken::new(), None)?;
            results[i] = Some(table);
        }
        Ok(AdaptiveReport {
            results: results
                .into_iter()
                .map(|r| r.expect("every member resolved"))
                .collect(),
            attached: attach_idx.len(),
            detached: queries.len() - attach_idx.len(),
            chunk_passes,
            naive_passes,
        })
    }
}

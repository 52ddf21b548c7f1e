//! The merge side of the dispatch loop: the statement's chunk outcomes
//! fold into its streaming merger as they arrive, with merged batches
//! leaving through its sink and its instruments settled at the end.

use crate::dispatch::{ChunkMeta, ChunkOutcome};
use crate::error::QservError;
use crate::master::{emit_final, CancelToken, Prepared, Sink};
use crate::merge::Merger;
use crate::stats::QueryMetrics;
use qserv_engine::exec::ResultTable;
use qserv_obs::clock::SharedClock;
use qserv_obs::trace;
use std::time::Duration;

/// Folds one completed chunk's outcome into the query's instruments.
fn record_chunk(qm: &QueryMetrics, bytes: u64, meta: &ChunkMeta) {
    qm.result_bytes.add(bytes);
    if meta.attempts > 1 {
        qm.chunks_retried.inc();
    }
    qm.replica_failovers.add(meta.failovers as u64);
    qm.injected_faults_observed.add(meta.injected_seen);
    qm.pages_pruned.add(meta.scan.pages_pruned);
    qm.pages_scanned.add(meta.scan.pages_scanned);
    qm.pages_cached.add(meta.scan.pages_cached);
    qm.chunk_attempts.record(meta.attempts as u64);
    qm.chunk_latency_ns.record(meta.latency.as_nanos() as u64);
}

/// The merge side of one statement's dispatch: chunk outcomes arrive one at
/// a time — from the calling thread's own dispatches and over its
/// helper threads' channel — and fold into the merger,
/// with merged batches leaving through the sink as they become final.
pub(crate) struct Arrivals<'a, 's> {
    clock: &'a SharedClock,
    qm: &'a QueryMetrics,
    token: &'a CancelToken,
    merger: Merger,
    sink: Sink<'s>,
    /// The statement's chunk queries; those never dispatched, or left unrun
    /// by a worker's row budget, were skipped.
    total: usize,
    dispatched: usize,
    /// Error selection must not depend on thread scheduling: keep the
    /// *lowest-sequence* dispatch error (queue order is deterministic,
    /// and the dispatched set is always a queue prefix, so the minimum
    /// failing sequence is the same in every run). A merge error is
    /// reported in preference to any dispatch error — folds drain in
    /// sequence order, so a fold failure always concerns an earlier
    /// chunk than the first dispatch failure.
    dispatch_err: Option<(usize, QservError)>,
    fold_err: Option<QservError>,
    first_fold: Option<Duration>,
    last_arrival: Option<Duration>,
    /// Set when the sink declines a batch (client gone / has enough):
    /// remaining work is cancelled and the query reports Cancelled.
    sink_closed: bool,
}

impl<'a, 's> Arrivals<'a, 's> {
    pub(crate) fn new(
        clock: &'a SharedClock,
        prepared: &Prepared,
        qm: &'a QueryMetrics,
        token: &'a CancelToken,
        sink: Sink<'s>,
    ) -> Arrivals<'a, 's> {
        Arrivals {
            clock,
            qm,
            token,
            merger: Merger::new(&prepared.plan),
            sink,
            total: prepared.chunks.len(),
            dispatched: 0,
            dispatch_err: None,
            fold_err: None,
            first_fold: None,
            last_arrival: None,
            sink_closed: false,
        }
    }

    /// Folds one chunk's outcome in. Returns whether more chunks are
    /// wanted: `false` once the merger is satisfied (LIMIT cutoff), the
    /// sink closed, the query was killed, or an error was recorded — the
    /// caller stops dispatching, and the partial merge state is either
    /// a complete answer (cutoff) or discarded by [`Arrivals::finish`].
    pub(crate) fn arrive(&mut self, seq: usize, outcome: ChunkOutcome) -> bool {
        self.dispatched += 1;
        self.last_arrival = Some(self.clock.now());
        match outcome {
            Ok((table, bytes, meta)) => {
                record_chunk(self.qm, bytes, &meta);
                // A satisfied merger still takes its column names from the
                // first part to arrive: `LIMIT 0` is satisfied before any.
                if self.fold_err.is_none() && !self.token.is_cancelled() {
                    if self.first_fold.is_none() {
                        self.first_fold = Some(self.clock.now());
                    }
                    let g = trace::span("merge.fold");
                    if let Some(g) = &g {
                        g.annotate("seq", &seq.to_string());
                    }
                    match self.merger.fold(seq, table) {
                        Ok(()) => {
                            if let Some(s) = self.sink.as_mut() {
                                if let Some(batch) = self.merger.drain_ready() {
                                    if !s(batch) {
                                        self.sink_closed = true;
                                    }
                                }
                            }
                        }
                        Err(e) => self.fold_err = Some(e),
                    }
                }
            }
            Err(e) => {
                if self.dispatch_err.as_ref().is_none_or(|(s, _)| seq < *s) {
                    self.dispatch_err = Some((seq, e));
                }
            }
        }
        !(self.merger.satisfied()
            || self.sink_closed
            || self.fold_err.is_some()
            || self.dispatch_err.is_some()
            || self.token.is_cancelled())
    }

    /// Surfaces errors in deterministic preference order, settles the
    /// pipeline metrics, and finishes the merge under its own span.
    pub(crate) fn finish(self) -> Result<ResultTable, QservError> {
        let qm = self.qm;
        qm.chunks_dispatched.add(self.dispatched as u64);
        if let Some(e) = self.fold_err {
            return Err(e);
        }
        // A KILL wins over any dispatch error it raced with: the caller
        // asked for cancellation and gets a deterministic `Cancelled`
        // (the dispatch error may itself be a token-induced `Cancelled`
        // from inside the retry loop). A sink that declined a batch is
        // the consumer's cancellation.
        if self.token.is_cancelled() || self.sink_closed {
            return Err(QservError::Cancelled);
        }
        if let Some((_, e)) = self.dispatch_err {
            return Err(e);
        }
        let merger = self.merger;
        qm.chunks_skipped_by_limit
            .add((self.total - self.dispatched) as u64);
        qm.peak_buffered_parts
            .set_max(merger.peak_buffered_parts() as u64);
        qm.rows_merged.set(merger.rows_folded() as u64);
        if let (Some(f), Some(l)) = (self.first_fold, self.last_arrival) {
            qm.merge_overlap_ms
                .set(l.saturating_sub(f).as_millis() as u64);
        }
        let g = trace::span("merge.finish");
        let Some(sink) = self.sink else {
            let result = merger.finish();
            if let (Some(g), Ok(r)) = (&g, &result) {
                g.annotate("rows", &r.rows.len().to_string());
            }
            return result;
        };
        let batch = merger.finish_batch()?;
        if let Some(g) = &g {
            g.annotate("rows", &batch.num_rows().to_string());
        }
        Ok(emit_final(batch, sink))
    }
}

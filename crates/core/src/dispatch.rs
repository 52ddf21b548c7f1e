//! The master's dispatch loop (paper §5.4). A statement's chunks are
//! walked grouped by the server the fabric resolves each to, and leave
//! in *bundles*: one chunk-query message per group of a server's chunks,
//! sent as the two file transactions of §5.4 from the calling thread and
//! its helper threads. Retry stays per chunk — a failed bundle re-splits
//! over the surviving replicas of its chunks — and cancellation and
//! deadlines are observed at bundle boundaries. Each chunk's outcome is
//! handed to its member's [`Arrivals`], which folds parts in walk order.

use crate::arrivals::Arrivals;
use crate::error::QservError;
use crate::master::{CancelToken, Dispatched, Member, Prepared, Qserv};
use crate::rewrite::render_bundle_message;
use crate::worker::split_sections;
use parking_lot::Mutex;
use qserv_engine::exec::ScanStats;
use qserv_engine::storage::decode_frame;
use qserv_engine::table::Table;
use qserv_obs::trace;
use qserv_xrd::cluster::{query_path, result_path, XrdError};
use qserv_xrd::fault::FabricOp;
use qserv_xrd::md5_hex;
use qserv_xrd::server::ServerId;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Clamps the configured dispatcher-pool width to something sane for a
/// given job count: at least one thread, never more threads than jobs.
fn effective_width(configured: usize, jobs: usize) -> usize {
    configured.max(1).min(jobs.max(1))
}

/// Per-chunk retry bookkeeping, folded into [`QueryStats`](crate::QueryStats).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChunkMeta {
    pub(crate) attempts: usize,
    pub(crate) failovers: usize,
    pub(crate) injected_seen: u64,
    /// Clock time from its bundle's first send until its result came
    /// back, retries included.
    pub(crate) latency: Duration,
    /// Worker-reported paged-scan counters (carried in the result
    /// frame's header); zero for warm in-memory chunks.
    pub(crate) scan: ScanStats,
    pub(crate) prev_server: Option<ServerId>,
}

/// Per-chunk dispatch outcome: the loaded result table, the transferred
/// byte count, and retry bookkeeping.
pub(crate) type ChunkOutcome = Result<(Table, u64, ChunkMeta), QservError>;

/// One bundle on the dispatch queue: chunks of one member that resolve
/// to one server, each with its fold sequence within that member.
struct Bundle {
    member: usize,
    /// Its place in the walk. A convoy's slots hold one chunk, and every
    /// member's bundle of a slot leaves back to back.
    slot: usize,
    /// Where the first attempt goes (`None`: no replica resolved).
    server: Option<ServerId>,
    /// The `-- QID:` tag of every message the bundle sends.
    qid: u64,
    /// `(seq, chunk)` in walk order.
    items: Vec<(usize, i32)>,
}

/// The bundles not yet sent, and how many chunks the sent ones visited
/// (a slot counts once, however many members it carries).
struct BundleQueue {
    bundles: std::vec::IntoIter<Bundle>,
    last_slot: Option<usize>,
    passes: usize,
}

/// A chunk of a bundle not yet answered, with its retry state.
struct Pending {
    seq: usize,
    chunk: i32,
    /// Where its next attempt goes (`None`: no replica resolved).
    server: Option<ServerId>,
    excluded: Vec<ServerId>,
    /// Attempts charged so far (re-admitting excluded replicas is free).
    attempt: usize,
    meta: ChunkMeta,
}

/// What one attempt made of one chunk.
enum Attempt {
    Ok(Table, u64, ScanStats),
    /// The worker's row budget was met before this chunk's turn: it never
    /// ran and is not needed.
    Unrun,
    /// Transient failure: worth retrying, optionally excluding `server`
    /// and (when `reset_exclusions`) forgetting earlier exclusions
    /// because no replica resolved at all.
    Retry {
        server: Option<ServerId>,
        injected: bool,
        reset_exclusions: bool,
        error: QservError,
    },
    Fatal(QservError),
}

impl Attempt {
    /// A failure of a whole message's transactions, as the answer of each
    /// of its `k` chunks. An injected fault is observed once, by the
    /// first chunk.
    fn for_all(self, k: usize) -> Vec<Attempt> {
        let rest = |a: &Attempt| match a {
            Attempt::Retry {
                server,
                reset_exclusions,
                error,
                ..
            } => Attempt::Retry {
                server: *server,
                injected: false,
                reset_exclusions: *reset_exclusions,
                error: error.clone(),
            },
            Attempt::Fatal(e) => Attempt::Fatal(e.clone()),
            Attempt::Ok(..) | Attempt::Unrun => {
                unreachable!("only failures answer a whole message")
            }
        };
        let mut all = Vec::with_capacity(k);
        all.extend((1..k).map(|_| rest(&self)));
        all.insert(0, self);
        all
    }
}

/// Sorts an [`XrdError`] into retry-worthy vs. permanent.
fn classify_xrd(e: XrdError) -> Attempt {
    let injected = matches!(e, XrdError::Injected { .. });
    let server = match &e {
        XrdError::Injected { server, .. } => Some(*server),
        XrdError::ServerOffline(s) => Some(*s),
        _ => None,
    };
    // An unresolvable path is transient too: every replica may be
    // excluded or momentarily offline (flapping servers come back).
    let reset_exclusions = matches!(e, XrdError::NoServerForPath(_));
    if e.is_transient() || reset_exclusions {
        Attempt::Retry {
            server,
            injected,
            reset_exclusions,
            error: QservError::from(e),
        }
    } else {
        Attempt::Fatal(QservError::from(e))
    }
}

/// Reads one chunk's section of a result payload.
fn section_attempt(chunk: i32, server: ServerId, section: &[u8]) -> Attempt {
    if section.is_empty() {
        return Attempt::Unrun;
    }
    // Payload corruption is a fabric problem, and a moved chunk a
    // placement one: retry re-executes the chunk on a replica and
    // re-fetches a clean copy.
    let retry = |what: String| Attempt::Retry {
        server: Some(server),
        injected: false,
        reset_exclusions: false,
        error: QservError::Fabric(format!("chunk {chunk}: {what}")),
    };
    let Some(err) = section.strip_prefix(b"ERROR:") else {
        // Anything but an error reply is a result frame, whose CRC
        // catches damage in flight (a mangled magic included).
        return match decode_frame(section) {
            Ok((table, scan)) => Attempt::Ok(table, section.len() as u64, scan),
            Err(e) => retry(format!("result frame: {e}")),
        };
    };
    let Ok(err) = std::str::from_utf8(err) else {
        return retry("error reply is not UTF-8".to_string());
    };
    // A worker that no longer holds the chunk (rebalanced away between
    // redirector routing and plugin execution) NACKs with a RETRYABLE
    // marker: fail over to another replica instead of surfacing a fatal
    // worker error.
    if let Some(moved) = err.trim().strip_prefix("RETRYABLE:") {
        return retry(moved.trim().to_string());
    }
    Attempt::Fatal(QservError::Worker {
        chunk,
        message: err.trim().to_string(),
    })
}

impl Qserv {
    /// The server chunk `chunk`'s query goes to, steering clear of
    /// `excluded`. Keyed by the chunk, not rotated: a statement's
    /// grouping — and so the order its parts fold in — does not move
    /// between statements while the cluster stands still.
    fn resolve(&self, chunk: i32, excluded: &[ServerId]) -> Option<ServerId> {
        self.cluster.redirector().resolve_keyed(
            &query_path(chunk),
            chunk.unsigned_abs() as usize,
            excluded,
        )
    }

    /// Walks every member's chunks into bundles, in queue order. The walk
    /// groups the chunks by the server each resolves to — servers in id
    /// order, chunks that resolve nowhere last, plan order within a
    /// server — and numbers each member's chunks along it, so a part's
    /// fold sequence is the same in a convoy as alone, at any width.
    /// One statement cuts each server's chunks into
    /// ⌈dispatch width ÷ servers⌉ bundles, so no dispatcher sits idle
    /// that has work. A convoy walks the union of its members' chunk
    /// sets one chunk per slot, each member that reads the chunk sending
    /// its bundle of one, so every query of a chunk leaves back to back.
    fn plan_bundles(&self, members: &[Member<'_, '_>]) -> Vec<Bundle> {
        let walk: Vec<i32> = match members {
            [only] => only.prepared.chunks.clone(),
            _ => members
                .iter()
                .flat_map(|m| m.prepared.chunks.iter().copied())
                .collect::<BTreeSet<i32>>()
                .into_iter()
                .collect(),
        };
        let mut placed: Vec<(Option<ServerId>, i32)> = walk
            .into_iter()
            .map(|c| (self.resolve(c, &[]), c))
            .collect();
        placed.sort_by_key(|&(server, _)| (server.is_none(), server));
        let groups: Vec<&[(Option<ServerId>, i32)]> = placed.chunk_by(|a, b| a.0 == b.0).collect();
        let convoy = members.len() > 1;
        let per_group = if convoy {
            usize::MAX
        } else {
            self.dispatch_width.max(1).div_ceil(groups.len().max(1))
        };
        let mut slots: Vec<&[(Option<ServerId>, i32)]> = Vec::new();
        for group in groups {
            let n = group.len();
            let p = per_group.min(n);
            let mut start = 0;
            for i in 0..p {
                let len = n / p + usize::from(i < n % p);
                slots.push(&group[start..start + len]);
                start += len;
            }
        }
        let mut next_seq = vec![0; members.len()];
        let mut bundles = Vec::new();
        for (slot, piece) in slots.into_iter().enumerate() {
            for (member, m) in members.iter().enumerate() {
                let items: Vec<(usize, i32)> = piece
                    .iter()
                    .filter(|(_, c)| !convoy || m.prepared.chunks.contains(c))
                    .map(|&(_, c)| {
                        next_seq[member] += 1;
                        (next_seq[member] - 1, c)
                    })
                    .collect();
                if !items.is_empty() {
                    bundles.push(Bundle {
                        member,
                        slot,
                        server: piece[0].0,
                        qid: self.qid.fetch_add(1, Ordering::Relaxed),
                        items,
                    });
                }
            }
        }
        bundles
    }

    /// The one loop that sends chunk queries: dispatches every bundle of
    /// `members` and merges each member's results. The calling
    /// thread is the only merger *and* one of the dispatchers: it folds
    /// whatever its `width − 1` helper threads have finished into the
    /// members' incremental [`Merger`](crate::Merger)s, then takes the
    /// next bundle off the shared queue itself. So merging overlaps
    /// dispatch, and the master holds only the merge state, a small
    /// reorder buffer and at most `width` unfolded bundles — not every
    /// chunk result at once. (In this in-process fabric a bundle runs on
    /// the thread that writes it.) At width 1 there are no helpers and
    /// the whole trace is a pure function of the input (bit-reproducible
    /// under a virtual clock and a fixed fault seed). A member that stops
    /// — its merger satisfied (a pushed-down LIMIT is met), its token
    /// cancelled, a chunk failed, or its sink closed — has its remaining
    /// bundles skipped while the other members carry on; skipped chunks
    /// are never sent, and a satisfied member counts them, with the
    /// chunks its workers' row budget left unrun, in
    /// [`QueryStats::chunks_skipped_by_limit`](crate::QueryStats::chunks_skipped_by_limit).
    pub(crate) fn dispatch_streaming(
        &self,
        members: Vec<Member<'_, '_>>,
    ) -> Result<Dispatched, QservError> {
        let bundles = self.plan_bundles(&members);
        let width = effective_width(self.dispatch_width, bundles.len());
        let started = self.clock.now();
        let plans: Vec<&Prepared> = members.iter().map(|m| m.prepared).collect();
        // What helper threads may read of a member: its token, and
        // whether the merge side has stopped wanting its chunks.
        let live: Vec<(&CancelToken, AtomicBool)> = members
            .iter()
            .map(|m| (m.token, AtomicBool::new(false)))
            .collect();
        let mut arrivals: Vec<Arrivals> = members
            .into_iter()
            .map(|m| Arrivals::new(&self.clock, m))
            .collect();

        let queue = Mutex::new(BundleQueue {
            bundles: bundles.into_iter(),
            last_slot: None,
            passes: 0,
        });
        // Cancellation — by LIMIT cutoff, failure or an external KILL —
        // is checked between bundles: an in-flight bundle finishes (and
        // is drained below) but nothing new of that member leaves the
        // queue.
        let next_bundle = || {
            let mut queue = queue.lock();
            while let Some(bundle) = queue.bundles.next() {
                let (token, stopped) = &live[bundle.member];
                if stopped.load(Ordering::Relaxed) || token.is_cancelled() {
                    continue;
                }
                if queue.last_slot != Some(bundle.slot) {
                    queue.last_slot = Some(bundle.slot);
                    queue.passes += bundle.items.len();
                }
                return Some(bundle);
            }
            None
        };
        let ctx = trace::current();
        // At most `width` finished bundles wait for the merge and at most
        // `width` more are being produced, so what the master holds
        // beyond the merge state and its reorder buffer stays bounded.
        type Outcomes = (usize, Vec<(usize, ChunkOutcome)>);
        let (tx, rx) = mpsc::sync_channel::<Outcomes>(width);
        let dispatch = |bundle: Bundle| {
            let member = bundle.member;
            let token = live[member].0;
            let outcomes = self.dispatch_bundle(plans[member], bundle, started, token);
            (member, outcomes)
        };
        // A panic on a helper or on this thread becomes a typed error
        // rather than unwinding into the caller's executor.
        catch_unwind(AssertUnwindSafe(|| {
            thread::scope(|scope| {
                // Owned here so that an unwinding caller drops it — releasing
                // helpers blocked in `send` — before the scope joins them.
                let rx = rx;
                for _ in 1..width {
                    let tx = tx.clone();
                    let (next_bundle, dispatch, ctx) = (&next_bundle, &dispatch, &ctx);
                    scope.spawn(move || {
                        // Helper threads parent their bundle spans under the
                        // span current on the calling thread
                        // (master.dispatch) — explicit cross-thread handoff.
                        let _tg = ctx.as_ref().map(|c| c.enter());
                        while let Some(bundle) = next_bundle() {
                            if tx.send(dispatch(bundle)).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                // Folding on this thread only keeps the merge single-threaded;
                // the mergers' reorder buffers make it deterministic
                // regardless of arrival order. Once an arrival asks to stop,
                // the channel is still drained so in-flight helpers can
                // finish their send and exit.
                let mut arrive = |(member, outcomes): Outcomes| {
                    for (seq, outcome) in outcomes {
                        if !arrivals[member].arrive(seq, outcome) {
                            live[member].1.store(true, Ordering::Relaxed);
                        }
                    }
                };
                loop {
                    while let Ok(arrival) = rx.try_recv() {
                        arrive(arrival);
                    }
                    let Some(bundle) = next_bundle() else {
                        break;
                    };
                    arrive(dispatch(bundle));
                }
                while let Ok(arrival) = rx.recv() {
                    arrive(arrival);
                }
            })
        }))
        .map_err(|_| QservError::Fabric("dispatcher thread panicked".to_string()))?;

        Ok(Dispatched {
            results: arrivals.into_iter().map(Arrivals::finish).collect(),
            chunk_passes: queue.into_inner().passes,
        })
    }

    /// Dispatches one bundle with bounded per-chunk retry, in rounds.
    /// Each round sends the chunks still pending, grouped by the server
    /// each resolves to, one message per server. A chunk that failed
    /// transiently backs off exponentially and steers away from the
    /// replicas that failed it, so a failed bundle re-splits over the
    /// surviving replicas of its chunks; permanent errors (worker SQL
    /// failures, unknown chunks) end a chunk at once. The query-wide
    /// deadline turns a stuck chunk into [`QservError::Timeout`]. Backoff
    /// and the deadline both run on the master's clock (virtual under
    /// test: no real sleeping); `started` is the clock time the dispatch
    /// phase began. Cancellation is observed between rounds, never inside
    /// a round's write → read → unlink sequence, so no written result is
    /// left unconsumed. Returns each answered chunk's outcome in fold
    /// order; a chunk its worker's row budget left unrun has none.
    fn dispatch_bundle(
        &self,
        prepared: &Prepared,
        bundle: Bundle,
        started: Duration,
        token: &CancelToken,
    ) -> Vec<(usize, ChunkOutcome)> {
        let span = trace::span("bundle");
        if let Some(g) = &span {
            g.annotate("chunks", &bundle.items.len().to_string());
            if let Some(server) = bundle.server {
                g.annotate("server", &server.to_string());
            }
        }
        let t0 = self.clock.now();
        let policy = &self.retry;
        let max_attempts = policy.max_attempts.max(1);
        let mut pending: Vec<Pending> = bundle
            .items
            .iter()
            .map(|&(seq, chunk)| Pending {
                seq,
                chunk,
                server: bundle.server,
                excluded: Vec::new(),
                attempt: 0,
                meta: ChunkMeta::default(),
            })
            .collect();
        let mut done = Vec::with_capacity(pending.len());
        let mut round = 0;
        while !pending.is_empty() {
            // Checked before the backoff: a killed bundle must not sit
            // out its exponential wait first.
            if token.is_cancelled() {
                done.extend(
                    pending
                        .drain(..)
                        .map(|p| (p.seq, Err(QservError::Cancelled))),
                );
                break;
            }
            let charged = pending.iter().map(|p| p.attempt).max().unwrap_or(0);
            if charged > 0 {
                let mut backoff = policy
                    .backoff_base
                    .saturating_mul(1u32 << (charged - 1).min(16) as u32);
                if let Some(deadline) = policy.deadline {
                    let elapsed = self.clock.now().saturating_sub(started);
                    backoff = backoff.min(deadline.saturating_sub(elapsed));
                }
                if !backoff.is_zero() {
                    self.clock.sleep(backoff);
                }
            }
            if let Some(deadline) = policy.deadline {
                let elapsed = self.clock.now().saturating_sub(started);
                if elapsed >= deadline {
                    let elapsed_ms = elapsed.as_millis() as u64;
                    done.extend(pending.drain(..).map(|p| {
                        let chunk = p.chunk;
                        (p.seq, Err(QservError::Timeout { chunk, elapsed_ms }))
                    }));
                    break;
                }
            }
            if round > 0 {
                for p in &mut pending {
                    p.server = self.resolve(p.chunk, &p.excluded);
                }
            }
            // One message per server, its chunks in fold order.
            pending.sort_by_key(|p| (p.server.is_none(), p.server, p.seq));
            let mut retrying = Vec::new();
            let mut chunks = pending.into_iter().peekable();
            while let Some(first) = chunks.next() {
                let mut group = vec![first];
                while let Some(p) = chunks.next_if(|p| p.server == group[0].server) {
                    group.push(p);
                }
                let attempts = self.attempt(prepared, bundle.qid, round, &mut group);
                for (mut p, attempt) in group.into_iter().zip(attempts) {
                    match attempt {
                        Attempt::Ok(table, bytes, scan) => {
                            p.meta.attempts = p.attempt + 1;
                            p.meta.scan = scan;
                            p.meta.latency = self.clock.now().saturating_sub(t0);
                            done.push((p.seq, Ok((table, bytes, p.meta))));
                        }
                        Attempt::Unrun => {}
                        Attempt::Retry {
                            server,
                            injected,
                            reset_exclusions,
                            error,
                        } => {
                            if injected {
                                p.meta.injected_seen += 1;
                            }
                            if reset_exclusions && !p.excluded.is_empty() {
                                // Every replica is on the exclusion list:
                                // the probe touched no server, so re-admit
                                // them all without charging the attempt
                                // budget. (A reset can't repeat back-to-back
                                // — the next round runs with an empty list —
                                // so a chunk stays bounded by
                                // 2×max_attempts rounds.)
                                p.excluded.clear();
                            } else {
                                if let Some(s) = server {
                                    if !p.excluded.contains(&s) {
                                        p.excluded.push(s);
                                    }
                                    p.meta.prev_server = Some(s);
                                }
                                p.attempt += 1;
                            }
                            if p.attempt < max_attempts {
                                retrying.push(p);
                            } else {
                                done.push((p.seq, Err(error)));
                            }
                        }
                        Attempt::Fatal(e) => done.push((p.seq, Err(e))),
                    }
                }
            }
            pending = retrying;
            round += 1;
        }
        if let Some(g) = &span {
            g.annotate("rounds", &round.to_string());
        }
        done.sort_by_key(|(seq, _)| *seq);
        done
    }

    /// One round's attempt for the chunks of a bundle that resolve to
    /// one server (`group`), under its own trace span.
    fn attempt(
        &self,
        prepared: &Prepared,
        qid: u64,
        round: usize,
        group: &mut [Pending],
    ) -> Vec<Attempt> {
        let span = trace::span("attempt");
        if let Some(g) = &span {
            g.annotate("n", &(round + 1).to_string());
            g.annotate("chunks", &group.len().to_string());
            if !group[0].excluded.is_empty() {
                g.annotate("excluded", &format!("{:?}", group[0].excluded));
            }
        }
        let attempts = match group[0].server {
            Some(server) => self.transact(prepared, qid, server, group),
            None => group
                .iter()
                .map(|p| classify_xrd(XrdError::NoServerForPath(query_path(p.chunk))))
                .collect(),
        };
        if let Some(g) = &span {
            let outcome = if attempts.iter().any(|a| matches!(a, Attempt::Fatal(_))) {
                "fatal"
            } else if attempts.iter().any(|a| matches!(a, Attempt::Retry { .. })) {
                "retry"
            } else {
                "ok"
            };
            g.annotate("outcome", outcome);
            let parts = attempts
                .iter()
                .filter(|a| matches!(a, Attempt::Ok(..)))
                .count();
            g.annotate("parts", &parts.to_string());
        }
        attempts
    }

    /// The two file transactions of §5.4 for one message carrying the
    /// `group`'s chunks to `server`, plus splitting the payload into one
    /// section per chunk. The result file is consumed (unlinked) on every
    /// exit path that could leave one behind. A failure of the
    /// transactions themselves answers for every chunk of the group.
    fn transact(
        &self,
        prepared: &Prepared,
        qid: u64,
        server: ServerId,
        group: &mut [Pending],
    ) -> Vec<Attempt> {
        let k = group.len();
        let chunks: Vec<(i32, Vec<i32>)> = group
            .iter()
            .map(|p| (p.chunk, self.subchunks_for(prepared, p.chunk)))
            .collect();
        let message = format!(
            "-- QID: {qid}\n{}",
            render_bundle_message(&prepared.plan, &self.meta, &chunks)
        );
        let rp = result_path(&md5_hex(message.as_bytes()));
        let write =
            self.cluster
                .write_file_to(server, &query_path(chunks[0].0), message.into_bytes());
        if let Err(e) = write {
            // A close fault lands after the worker accepted the query
            // and deposited its result: scrub the orphan.
            if let XrdError::Injected {
                op: FabricOp::Close,
                ..
            } = &e
            {
                let _ = self.cluster.unlink(server, &rp);
            }
            return classify_xrd(e).for_all(k);
        }
        for p in group.iter_mut() {
            if p.meta.prev_server.is_some_and(|prev| prev != server) {
                p.meta.failovers += 1;
            }
            p.meta.prev_server = Some(server);
        }
        let payload = match self.cluster.read_file(server, &rp) {
            Ok(p) => p,
            // The write was accepted but nothing was deposited: the
            // server stopped exporting the chunk between the redirector's
            // (cached) resolution and the close, so its plugin never ran.
            // That replica moved away; another one answers.
            Err(e @ XrdError::NoSuchFile { .. }) => {
                return Attempt::Retry {
                    server: Some(server),
                    injected: false,
                    reset_exclusions: false,
                    error: QservError::from(e),
                }
                .for_all(k);
            }
            Err(e) => {
                // The result file exists on the worker even though we
                // could not fetch it; consume it before retrying.
                let _ = self.cluster.unlink(server, &rp);
                return classify_xrd(e).for_all(k);
            }
        };
        // Consume the result before parsing, so no exit path below can
        // leak it. A faulted unlink gets one immediate retry, then is
        // abandoned (a later dispatch of this message overwrites it).
        if self.cluster.unlink(server, &rp).is_err() {
            let _ = self.cluster.unlink(server, &rp);
        }
        match split_sections(&payload, k) {
            Ok(sections) => group
                .iter()
                .zip(sections)
                .map(|(p, section)| section_attempt(p.chunk, server, section))
                .collect(),
            Err(e) => Attempt::Retry {
                server: Some(server),
                injected: false,
                reset_exclusions: false,
                error: QservError::Fabric(format!("chunk {}: result payload: {e}", chunks[0].0)),
            }
            .for_all(k),
        }
    }
}

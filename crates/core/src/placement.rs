//! Elastic chunk placement on the live cluster: membership change and
//! replication repair.
//!
//! The chunk → replica model itself — [`PlacementMap`], its edits and the
//! planning step functions that decide which copy comes next — lives in
//! `qserv_partition::placement`, shared with the simulator. This module
//! is what makes those plans real:
//!
//! * [`PlacementManager`] — owns the current map and the `placement.*`
//!   metrics registry. Queries pin one snapshot at prepare time and
//!   complete against it; membership operations install new maps at
//!   higher epochs. Which replica serves a chunk is not its business:
//!   dispatch asks the fabric's redirector (paper §5.1), which resolves
//!   each chunk keyed by the chunk to one of the replicas that export
//!   it, steering clear of replicas that already failed it.
//! * Membership operations on [`Qserv`] — [`Qserv::fail_node`] /
//!   [`Qserv::join_node`] / [`Qserv::leave_node`] / [`Qserv::repair`] /
//!   [`Qserv::rebalance`] — each a loop of "ask the snapshot for the next
//!   step → copy → commit the edit". Copies ship chunk payloads
//!   (`.qchunk` file bytes or result frames) between workers *over the
//!   fabric*, so seeded fault plans exercise the copy path. A replica is
//!   acknowledged (and the epoch bumped) only after its payload survives
//!   an md5 check on the destination and installs into the worker's
//!   database; faults mid-copy therefore never lose an acked replica.

use crate::error::QservError;
use crate::master::Qserv;
use parking_lot::{Mutex, RwLock};
use qserv_obs::trace;
use qserv_obs::{MetricsRegistry, MetricsSnapshot};
use qserv_partition::placement::{CopyStep, DrainStep, PlacementMap};
use qserv_xrd::cluster::{chunk_data_path, query_path, XrdError};
use qserv_xrd::md5_hex;
use qserv_xrd::server::ServerId;
use std::sync::Arc;

/// Owns the current [`PlacementMap`] and the `placement.*` metrics.
pub struct PlacementManager {
    current: RwLock<Arc<PlacementMap>>,
    metrics: MetricsRegistry,
    /// Serializes membership operations; queries never take it.
    admin: Mutex<()>,
}

impl PlacementManager {
    /// Takes `map` as the current placement (the loader passes the
    /// epoch-0 [`PlacementMap::initial`] layout; fleet servers beyond its
    /// members are standbys awaiting [`Qserv::join_node`]).
    pub fn new(map: PlacementMap) -> PlacementManager {
        let metrics = MetricsRegistry::default();
        metrics.gauge("placement.epoch").set(map.epoch());
        metrics
            .gauge("placement.members")
            .set(map.members().len() as u64);
        PlacementManager {
            current: RwLock::new(Arc::new(map)),
            metrics,
            admin: Mutex::new(()),
        }
    }

    /// The current map. Queries pin this once at prepare time.
    pub fn snapshot(&self) -> Arc<PlacementMap> {
        Arc::clone(&self.current.read())
    }

    /// Installs `map` as current. Panics on a non-monotonic epoch —
    /// commits happen under the admin lock, so a regression is a bug.
    pub fn install(&self, map: PlacementMap) -> Arc<PlacementMap> {
        let mut cur = self.current.write();
        assert!(
            map.epoch() > cur.epoch(),
            "placement epoch must advance ({} -> {})",
            cur.epoch(),
            map.epoch()
        );
        self.metrics.gauge("placement.epoch").set(map.epoch());
        self.metrics
            .gauge("placement.members")
            .set(map.members().len() as u64);
        *cur = Arc::new(map);
        Arc::clone(&cur)
    }

    /// The `placement.*` metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Snapshot of the `placement.*` metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    pub(crate) fn admin_lock(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.admin.lock()
    }
}

/// What one membership operation did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The epoch current after the operation.
    pub epoch: u64,
    /// New replicas created (repair copies).
    pub replicas_created: usize,
    /// Replicas moved between members (rebalance/drain copies).
    pub chunks_moved: usize,
    /// Payload bytes shipped over the fabric.
    pub bytes_copied: u64,
    /// Transient copy failures retried (injected faults, corruption
    /// caught by the digest check).
    pub copy_retries: u64,
    /// Chunks whose every replica is gone — unrecoverable without
    /// reload. Empty unless replication was insufficient for the loss.
    pub chunks_lost: Vec<i32>,
}

/// A single copy-step failure, classified before it collapses into
/// [`QservError::Fabric`] text (transience drives the retry loop).
enum CopyErr {
    Xrd(XrdError),
    /// Digest mismatch or missing readback — corruption in flight; the
    /// next attempt redraws the fault schedule, so always retryable.
    Digest(String),
}

impl CopyErr {
    fn transient(&self) -> bool {
        match self {
            CopyErr::Xrd(x) => x.is_transient(),
            CopyErr::Digest(_) => true,
        }
    }

    fn into_qserv(self) -> QservError {
        match self {
            CopyErr::Xrd(x) => x.into(),
            CopyErr::Digest(m) => QservError::Fabric(m),
        }
    }
}

impl Qserv {
    /// Permanently fails `node`: marks its server offline, strips it
    /// from membership and every replica list (one epoch), then repairs
    /// replication from surviving replicas. In-flight queries holding
    /// the old epoch retry cleanly: the offline server classifies as
    /// transient and failover steers to a surviving replica.
    pub fn fail_node(&self, node: ServerId) -> Result<RebalanceReport, QservError> {
        let manager = self.placement_manager();
        let _admin = manager.admin_lock();
        let span = trace::span("placement.repair");
        if let Some(g) = &span {
            g.annotate("failed_node", &node.to_string());
        }
        if let Some(s) = self.cluster().server(node) {
            s.set_online(false);
        }
        let snap = manager.snapshot();
        if !snap.is_member(node) {
            return Err(QservError::Fabric(format!(
                "node {node} is not a placement member"
            )));
        }
        manager.install(snap.edit().remove_member(node).commit());
        self.cluster().redirector().invalidate_cache();
        self.repair_locked()
    }

    /// Restores the replication factor for every under-replicated chunk
    /// by copying payloads from surviving replicas to the least-loaded
    /// members. Each successful copy commits its own epoch, so a crash
    /// mid-repair leaves every acked replica recorded.
    pub fn repair(&self) -> Result<RebalanceReport, QservError> {
        let _admin = self.placement_manager().admin_lock();
        self.repair_locked()
    }

    /// Activates standby `node` (a fleet server holding no chunks) as a
    /// member and rebalances chunk replicas onto it.
    pub fn join_node(&self, node: ServerId) -> Result<RebalanceReport, QservError> {
        let manager = self.placement_manager();
        let _admin = manager.admin_lock();
        let span = trace::span("placement.rebalance");
        if let Some(g) = &span {
            g.annotate("joined_node", &node.to_string());
        }
        let Some(server) = self.cluster().server(node) else {
            return Err(QservError::Fabric(format!(
                "node {node} is not part of the fleet"
            )));
        };
        let snap = manager.snapshot();
        if snap.is_member(node) {
            return Err(QservError::Fabric(format!(
                "node {node} is already a placement member"
            )));
        }
        server.set_online(true);
        manager.install(snap.edit().add_member(node).commit());
        self.rebalance_locked()
    }

    /// Gracefully drains `node`: every replica it holds is copied to
    /// another member first (copy-then-detach, so no epoch ever records
    /// fewer live replicas than before), then the node leaves
    /// membership and returns to standby.
    pub fn leave_node(&self, node: ServerId) -> Result<RebalanceReport, QservError> {
        let manager = self.placement_manager();
        let _admin = manager.admin_lock();
        let span = trace::span("placement.rebalance");
        if let Some(g) = &span {
            g.annotate("leaving_node", &node.to_string());
        }
        if !manager.snapshot().is_member(node) {
            return Err(QservError::Fabric(format!(
                "node {node} is not a placement member"
            )));
        }
        let mut report = RebalanceReport::default();
        loop {
            let snap = manager.snapshot();
            let Some(step) = snap.next_drain(node) else {
                break;
            };
            let (chunk, edit) = match step {
                DrainStep::Move(mv) => {
                    self.copy_chunk(mv, &mut report)?;
                    report.chunks_moved += 1;
                    manager.metrics().counter("placement.chunks_moved").inc();
                    (mv.chunk, snap.edit().add_replica(mv.chunk, mv.dst))
                }
                DrainStep::Forget(chunk) => (chunk, snap.edit()),
                DrainStep::Stuck(chunk) => {
                    return Err(QservError::Fabric(format!(
                        "cannot drain chunk {chunk} off node {node}: no member can take it"
                    )));
                }
            };
            manager.install(edit.remove_replica(chunk, node).commit());
            self.detach_replica(chunk, node);
        }
        let map = manager.install(manager.snapshot().edit().remove_member(node).commit());
        self.cluster().redirector().invalidate_cache();
        report.epoch = map.epoch();
        Ok(report)
    }

    /// Moves replicas from the most- to the least-loaded members until
    /// replica counts differ by at most one.
    pub fn rebalance(&self) -> Result<RebalanceReport, QservError> {
        let _admin = self.placement_manager().admin_lock();
        self.rebalance_locked()
    }

    fn repair_locked(&self) -> Result<RebalanceReport, QservError> {
        let manager = self.placement_manager();
        let span = trace::span("placement.repair");
        let mut report = RebalanceReport::default();
        let alive = |chunk, n| self.replica_alive(chunk, n);
        let snap = loop {
            let snap = manager.snapshot();
            let Some(step) = snap.next_repair(alive) else {
                break snap;
            };
            self.copy_chunk(step, &mut report)?;
            manager.install(snap.edit().add_replica(step.chunk, step.dst).commit());
            report.replicas_created += 1;
            manager.metrics().counter("placement.repairs").inc();
        };
        report.chunks_lost = snap.unrecoverable(alive);
        if !report.chunks_lost.is_empty() {
            manager
                .metrics()
                .counter("placement.chunks_lost")
                .add(report.chunks_lost.len() as u64);
        }
        report.epoch = snap.epoch();
        if let Some(g) = &span {
            g.annotate("replicas_created", &report.replicas_created.to_string());
            g.annotate("epoch", &report.epoch.to_string());
        }
        Ok(report)
    }

    fn rebalance_locked(&self) -> Result<RebalanceReport, QservError> {
        let manager = self.placement_manager();
        let span = trace::span("placement.rebalance");
        let mut report = RebalanceReport::default();
        let snap = loop {
            let snap = manager.snapshot();
            let Some(step) = snap.next_rebalance() else {
                break snap;
            };
            self.copy_chunk(step, &mut report)?;
            manager.install(
                snap.edit()
                    .add_replica(step.chunk, step.dst)
                    .remove_replica(step.chunk, step.src)
                    .commit(),
            );
            self.detach_replica(step.chunk, step.src);
            report.chunks_moved += 1;
            manager.metrics().counter("placement.chunks_moved").inc();
        };
        report.epoch = snap.epoch();
        if let Some(g) = &span {
            g.annotate("chunks_moved", &report.chunks_moved.to_string());
            g.annotate("epoch", &report.epoch.to_string());
        }
        Ok(report)
    }

    /// Whether node `n`'s replica of `chunk` can serve as a copy source.
    fn replica_alive(&self, chunk: i32, n: ServerId) -> bool {
        self.cluster().server(n).is_some_and(|s| s.is_online())
            && self.workers().get(n).is_some_and(|w| w.holds_chunk(chunk))
    }

    /// Ships every table payload of `chunk` from worker `src` to worker
    /// `dst` over the fabric, verifying an md5 digest per file, then
    /// installs and exports the new replica. Transient fabric errors and
    /// digest mismatches retry under the master's retry budget (backoff
    /// on the master's clock); the replica is installed — and may be
    /// acked by the caller — only after every payload verified.
    fn copy_chunk(
        &self,
        CopyStep { chunk, src, dst }: CopyStep,
        report: &mut RebalanceReport,
    ) -> Result<(), QservError> {
        let span = trace::span("placement.copy");
        if let Some(g) = &span {
            g.annotate("chunk", &chunk.to_string());
            g.annotate("src", &src.to_string());
            g.annotate("dst", &dst.to_string());
        }
        let manager = self.placement_manager();
        let src_server = self
            .cluster()
            .server(src)
            .ok_or_else(|| QservError::Fabric(format!("copy source {src} does not exist")))?;
        let dst_server = self
            .cluster()
            .server(dst)
            .ok_or_else(|| QservError::Fabric(format!("copy target {dst} does not exist")))?;
        let files = self.workers()[src]
            .export_chunk(chunk)
            .map_err(|e| QservError::Fabric(format!("export chunk {chunk} from {src}: {e}")))?;
        if files.is_empty() {
            return Err(QservError::Fabric(format!(
                "node {src} holds no tables of chunk {chunk}"
            )));
        }
        let mut staged: Vec<(String, Vec<u8>)> = Vec::with_capacity(files.len());
        for (label, bytes) in files {
            let path = chunk_data_path(&label, chunk);
            let digest = md5_hex(&bytes);
            // Stage on the source's local store; the *transfer* below is
            // the fault-injected fabric part.
            src_server.put_file(&path, bytes);
            let max_attempts = self.retry.max_attempts.max(1);
            let mut attempt = 0usize;
            let verified: Vec<u8> = loop {
                let outcome: Result<Vec<u8>, CopyErr> = (|| {
                    let data = self.cluster().read_file(src, &path).map_err(CopyErr::Xrd)?;
                    if md5_hex(&data) != digest {
                        return Err(CopyErr::Digest(format!(
                            "chunk {chunk} payload {label} corrupted in flight"
                        )));
                    }
                    self.cluster()
                        .put_file_direct(dst, &path, (*data).clone())
                        .map_err(CopyErr::Xrd)?;
                    let back = dst_server.get_file(&path).ok_or_else(|| {
                        CopyErr::Digest(format!(
                            "chunk {chunk} payload {label} missing on {dst} after write"
                        ))
                    })?;
                    if md5_hex(&back) != digest {
                        return Err(CopyErr::Digest(format!(
                            "chunk {chunk} payload {label} corrupted on write to {dst}"
                        )));
                    }
                    Ok((*back).clone())
                })();
                match outcome {
                    Ok(data) => break data,
                    Err(e) => {
                        attempt += 1;
                        if attempt >= max_attempts || !e.transient() {
                            src_server.delete_file(&path);
                            dst_server.delete_file(&path);
                            return Err(e.into_qserv());
                        }
                        report.copy_retries += 1;
                        manager.metrics().counter("placement.copy_retries").inc();
                        let backoff = self
                            .retry
                            .backoff_base
                            .saturating_mul(1u32 << (attempt - 1).min(16));
                        if !backoff.is_zero() {
                            self.clock().sleep(backoff);
                        }
                    }
                }
            };
            report.bytes_copied += verified.len() as u64;
            manager
                .metrics()
                .counter("placement.copy_bytes")
                .add(verified.len() as u64);
            src_server.delete_file(&path);
            dst_server.delete_file(&path);
            staged.push((label, verified));
        }
        self.workers()[dst]
            .import_chunk(chunk, &staged, self.storage_dir())
            .map_err(|e| QservError::Fabric(format!("install chunk {chunk} on {dst}: {e}")))?;
        dst_server.export(&query_path(chunk));
        self.cluster().redirector().invalidate_cache();
        Ok(())
    }

    /// Drops `chunk`'s tables and export from `node` after a move. Old
    /// in-flight queries already routed there get a retryable NACK from
    /// the worker and fail over to the new replica.
    fn detach_replica(&self, chunk: i32, node: ServerId) {
        if let Some(w) = self.workers().get(node) {
            w.detach_chunk(chunk);
        }
        if let Some(s) = self.cluster().server(node) {
            s.unexport(&query_path(chunk));
        }
        self.cluster().redirector().invalidate_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(chunks: &[i32], nodes: usize, replication: usize) -> PlacementManager {
        PlacementManager::new(PlacementMap::initial(chunks, nodes, replication))
    }

    #[test]
    fn manager_snapshot_pins_while_installs_advance() {
        let mgr = manager(&[1, 2], 2, 1);
        let pinned = mgr.snapshot();
        mgr.install(pinned.edit().add_replica(1, 1).commit());
        assert_eq!(pinned.epoch(), 0, "pinned snapshot is immutable");
        assert_eq!(mgr.snapshot().epoch(), 1);
        assert_eq!(mgr.metrics_snapshot().gauge("placement.epoch"), 1);
    }

    #[test]
    #[should_panic(expected = "epoch must advance")]
    fn stale_install_panics() {
        let mgr = manager(&[1], 1, 1);
        let stale = mgr.snapshot();
        mgr.install(stale.edit().commit());
        // Re-commit from the stale epoch-0 map: 1 -> 1 must be rejected.
        mgr.install(stale.edit().commit());
    }
}

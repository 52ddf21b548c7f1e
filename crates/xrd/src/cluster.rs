//! Client-facing file transactions over the fabric.
//!
//! Paper §5.4 describes dispatch as two file-level transactions: (1) open a
//! partition-addressed path for writing, write the chunk query, close;
//! (2) open the hash-addressed result path for reading, read until EOF,
//! close. [`XrdCluster`] exposes exactly those two operations plus the
//! bookkeeping a master needs (which worker served the write, so the
//! result read can target it directly).

use crate::fault::{Corruption, FabricOp, FaultPlan};
use crate::redirector::Redirector;
use crate::server::{DataServer, ServerId};
use qserv_obs::trace::{self, SpanGuard};
use std::fmt;
use std::sync::Arc;

/// Opens a trace span for one fabric sub-operation when the calling
/// thread has an active trace context; a no-op (`None`) otherwise.
fn op_span(op: FabricOp, server: ServerId, path: &str) -> Option<SpanGuard> {
    let name = match op {
        FabricOp::Open => "fabric.open",
        FabricOp::Write => "fabric.write",
        FabricOp::Read => "fabric.read",
        FabricOp::Close => "fabric.close",
        FabricOp::Unlink => "fabric.unlink",
    };
    let g = trace::span(name)?;
    g.annotate("server", &server.to_string());
    g.annotate("path", path);
    Some(g)
}

/// Records an error on the span (if both exist) and passes the result
/// through unchanged.
fn note_fault<T>(span: &Option<SpanGuard>, r: Result<T, XrdError>) -> Result<T, XrdError> {
    if let (Some(g), Err(e)) = (span, &r) {
        g.annotate("error", &e.to_string());
    }
    r
}

/// Errors from cluster file transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XrdError {
    /// No online server exports the path.
    NoServerForPath(String),
    /// Direct read addressed a server that does not exist.
    NoSuchServer(ServerId),
    /// The addressed server is offline.
    ServerOffline(ServerId),
    /// The file does not exist on the addressed server.
    NoSuchFile {
        /// Server consulted.
        server: ServerId,
        /// Path requested.
        path: String,
    },
    /// The cluster's [`FaultPlan`] failed this operation (transient by
    /// construction: a retry draws a fresh verdict).
    Injected {
        /// Server the operation addressed.
        server: ServerId,
        /// Sub-operation that was failed.
        op: FabricOp,
        /// Path involved.
        path: String,
    },
}

impl XrdError {
    /// True for errors a client may reasonably retry (possibly against
    /// another replica): injected faults and offline servers. Missing
    /// paths/files and unknown server ids are permanent.
    pub fn is_transient(&self) -> bool {
        matches!(self, XrdError::Injected { .. } | XrdError::ServerOffline(_))
    }
}

impl fmt::Display for XrdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XrdError::NoServerForPath(p) => write!(f, "no online server exports {p}"),
            XrdError::NoSuchServer(s) => write!(f, "no such server {s}"),
            XrdError::ServerOffline(s) => write!(f, "server {s} is offline"),
            XrdError::NoSuchFile { server, path } => {
                write!(f, "server {server} has no file {path}")
            }
            XrdError::Injected { server, op, path } => {
                write!(f, "injected fault: {op} on server {server} for {path}")
            }
        }
    }
}

impl std::error::Error for XrdError {}

/// A handle on the whole fabric: redirector plus servers. Cheap to clone
/// and `Sync`; every dispatcher thread holds one.
#[derive(Clone)]
pub struct XrdCluster {
    redirector: Arc<Redirector>,
    faults: Arc<FaultPlan>,
}

impl XrdCluster {
    /// Builds a cluster of `n` empty data servers with an inert fault
    /// plan (seed 0, no rules armed).
    pub fn with_servers(n: usize) -> XrdCluster {
        XrdCluster::with_servers_and_faults(n, FaultPlan::new(0))
    }

    /// Builds a cluster of `n` empty data servers carrying `faults`.
    pub fn with_servers_and_faults(n: usize, faults: FaultPlan) -> XrdCluster {
        let servers: Vec<Arc<DataServer>> = (0..n).map(|i| Arc::new(DataServer::new(i))).collect();
        XrdCluster {
            redirector: Arc::new(Redirector::new(servers)),
            faults: Arc::new(faults),
        }
    }

    /// The fault plan shared by every clone of this cluster.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The redirector.
    pub fn redirector(&self) -> &Redirector {
        &self.redirector
    }

    /// The server set.
    pub fn servers(&self) -> &[Arc<DataServer>] {
        self.redirector.servers()
    }

    /// One server by id.
    pub fn server(&self, id: ServerId) -> Option<Arc<DataServer>> {
        self.redirector.server(id)
    }

    /// Checks one fabric sub-operation against the fault plan, failing
    /// with [`XrdError::Injected`] when the plan says so.
    fn check(
        &self,
        server: ServerId,
        op: FabricOp,
        path: &str,
    ) -> Result<Option<Corruption>, XrdError> {
        let d = self.faults.decide(server, op, path);
        if d.fail {
            return Err(XrdError::Injected {
                server,
                op,
                path: path.to_string(),
            });
        }
        Ok(d.corrupt)
    }

    /// **Transaction 1** (paper §5.4): open `path` for writing via the
    /// redirector, write `data`, close. Returns the id of the server that
    /// accepted the write (whose plugin has already run, synchronously, by
    /// the time this returns — our in-process stand-in for the worker
    /// having picked up the request).
    pub fn write_file(&self, path: &str, data: Vec<u8>) -> Result<ServerId, XrdError> {
        let server = self
            .redirector
            .resolve(path)
            .ok_or_else(|| XrdError::NoServerForPath(path.to_string()))?;
        self.write_to_server(&server, path, data)
    }

    /// [`XrdCluster::write_file`] to a server the client chose — a master
    /// that groups chunk queries by the replica it resolved for each: the
    /// same fault-checked open → write → close, firing the server's plugin
    /// when it exports `path`. A server that no longer exports `path`
    /// stores the file but runs nothing, so no result is deposited.
    pub fn write_file_to(
        &self,
        server: ServerId,
        path: &str,
        data: Vec<u8>,
    ) -> Result<(), XrdError> {
        let s = self
            .redirector
            .server(server)
            .ok_or(XrdError::NoSuchServer(server))?;
        if !s.is_online() {
            return Err(XrdError::ServerOffline(server));
        }
        self.write_to_server(&s, path, data).map(|_| ())
    }

    /// Writes `data` to `path` on a *specific* server as a plain file
    /// transaction (open → write → close, each fault-checked) without
    /// consulting the export namespace and without firing the ofs plugin —
    /// the transport half of a chunk-replica copy. Corruption faults
    /// mangle the stored payload; the receiver is expected to verify a
    /// digest before acknowledging the replica.
    pub fn put_file_direct(
        &self,
        server: ServerId,
        path: &str,
        mut data: Vec<u8>,
    ) -> Result<(), XrdError> {
        let s = self
            .redirector
            .server(server)
            .ok_or(XrdError::NoSuchServer(server))?;
        if !s.is_online() {
            return Err(XrdError::ServerOffline(server));
        }
        {
            let g = op_span(FabricOp::Open, server, path);
            note_fault(&g, self.check(server, FabricOp::Open, path))?;
        }
        {
            let g = op_span(FabricOp::Write, server, path);
            if let Some(c) = note_fault(&g, self.check(server, FabricOp::Write, path))? {
                if let Some(g) = &g {
                    g.annotate("corrupted", "true");
                }
                c.apply(&mut data);
            }
            s.put_file(path, data);
        }
        {
            let g = op_span(FabricOp::Close, server, path);
            note_fault(&g, self.check(server, FabricOp::Close, path))?;
        }
        Ok(())
    }

    /// The shared §5.4 write transaction against an already-resolved
    /// server.
    fn write_to_server(
        &self,
        server: &Arc<DataServer>,
        path: &str,
        mut data: Vec<u8>,
    ) -> Result<ServerId, XrdError> {
        let id = server.id();
        {
            let g = op_span(FabricOp::Open, id, path);
            note_fault(&g, self.check(id, FabricOp::Open, path))?;
        }
        {
            // The write span also covers `complete_write`, where the
            // worker plugin runs synchronously — worker statement spans
            // nest inside the fabric write that delivered their query.
            let g = op_span(FabricOp::Write, id, path);
            if let Some(c) = note_fault(&g, self.check(id, FabricOp::Write, path))? {
                if let Some(g) = &g {
                    g.annotate("corrupted", "true");
                }
                c.apply(&mut data);
            }
            server.complete_write(path, data);
        }
        // A close fault lands *after* the server accepted the payload (and
        // its plugin ran): the client sees failure on work that happened.
        {
            let g = op_span(FabricOp::Close, id, path);
            note_fault(&g, self.check(id, FabricOp::Close, path))?;
        }
        Ok(id)
    }

    /// **Transaction 2** (paper §5.4): open `path` for reading on a
    /// specific server, read until EOF, close. Qserv reads results from
    /// the worker that executed the chunk query
    /// (`xrootd://<worker>/result/H`).
    pub fn read_file(&self, server: ServerId, path: &str) -> Result<Arc<Vec<u8>>, XrdError> {
        let s = self
            .redirector
            .server(server)
            .ok_or(XrdError::NoSuchServer(server))?;
        if !s.is_online() {
            return Err(XrdError::ServerOffline(server));
        }
        let data = {
            let g = op_span(FabricOp::Open, server, path);
            note_fault(&g, self.check(server, FabricOp::Open, path))?;
            note_fault(
                &g,
                s.get_file(path).ok_or_else(|| XrdError::NoSuchFile {
                    server,
                    path: path.to_string(),
                }),
            )?
        };
        let corrupted = {
            let g = op_span(FabricOp::Read, server, path);
            let corrupted = note_fault(&g, self.check(server, FabricOp::Read, path))?;
            if corrupted.is_some() {
                if let Some(g) = &g {
                    g.annotate("corrupted", "true");
                }
            }
            corrupted
        };
        {
            let g = op_span(FabricOp::Close, server, path);
            note_fault(&g, self.check(server, FabricOp::Close, path))?;
        }
        if let Some(c) = corrupted {
            let mut copy = (*data).clone();
            c.apply(&mut copy);
            return Ok(Arc::new(copy));
        }
        Ok(data)
    }

    /// Unlinks `path` on `server` (masters clean up consumed results).
    pub fn unlink(&self, server: ServerId, path: &str) -> Result<bool, XrdError> {
        let s = self
            .redirector
            .server(server)
            .ok_or(XrdError::NoSuchServer(server))?;
        let g = op_span(FabricOp::Unlink, server, path);
        note_fault(&g, self.check(server, FabricOp::Unlink, path))?;
        Ok(s.delete_file(path))
    }
}

/// Formats the partition-addressed dispatch path for a chunk id:
/// `/query2/CC` (paper §5.4).
pub fn query_path(chunk_id: i32) -> String {
    format!("/query2/{chunk_id}")
}

/// Formats the hash-addressed result path: `/result/H` (paper §5.4).
pub fn result_path(query_hash: &str) -> String {
    format!("/result/{query_hash}")
}

/// Formats the staging path a chunk-replica copy moves one table's
/// payload through: `/chunk/<table>/<chunk>`. Never exported — staging
/// files are addressed directly by server id on both ends of the copy.
pub fn chunk_data_path(table: &str, chunk_id: i32) -> String {
    format!("/chunk/{table}/{chunk_id}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::md5_hex;
    use crate::server::OfsPlugin;

    /// A worker plugin that "executes" a query by depositing its byte
    /// length as the result, at the md5-addressed result path.
    struct LenWorker;
    impl OfsPlugin for LenWorker {
        fn on_file_closed(&self, server: &DataServer, _path: &str, data: &[u8]) {
            let hash = md5_hex(data);
            server.put_file(&result_path(&hash), data.len().to_string().into_bytes());
        }
    }

    fn cluster() -> XrdCluster {
        let c = XrdCluster::with_servers(4);
        for (i, s) in c.servers().iter().enumerate() {
            s.install_plugin(Arc::new(LenWorker));
            // Chunk i and i+4 on server i.
            s.export(&query_path(i as i32));
            s.export(&query_path(i as i32 + 4));
        }
        c
    }

    #[test]
    fn two_transaction_dispatch() {
        let c = cluster();
        let query = b"-- SUBCHUNKS:\nSELECT COUNT(*) FROM Object_5;".to_vec();
        // Transaction 1: write the chunk query to /query2/5.
        let worker = c.write_file(&query_path(5), query.clone()).unwrap();
        assert_eq!(worker, 1); // chunk 5 lives on server 1
                               // Transaction 2: read the result at /result/md5(query) on that worker.
        let res = c.read_file(worker, &result_path(&md5_hex(&query))).unwrap();
        assert_eq!(*res, query.len().to_string().into_bytes());
    }

    #[test]
    fn write_to_unexported_path_fails() {
        let c = cluster();
        assert_eq!(
            c.write_file("/query2/999", vec![]),
            Err(XrdError::NoServerForPath("/query2/999".into()))
        );
    }

    #[test]
    fn read_errors() {
        let c = cluster();
        assert!(matches!(
            c.read_file(99, "/x"),
            Err(XrdError::NoSuchServer(99))
        ));
        assert!(matches!(
            c.read_file(0, "/missing"),
            Err(XrdError::NoSuchFile { .. })
        ));
        c.servers()[0].set_online(false);
        assert!(matches!(
            c.read_file(0, "/x"),
            Err(XrdError::ServerOffline(0))
        ));
    }

    #[test]
    fn unlink_after_read() {
        let c = cluster();
        let q = b"q".to_vec();
        let w = c.write_file(&query_path(2), q.clone()).unwrap();
        let rp = result_path(&md5_hex(&q));
        assert!(c.unlink(w, &rp).unwrap());
        assert!(!c.unlink(w, &rp).unwrap());
        assert!(matches!(
            c.read_file(w, &rp),
            Err(XrdError::NoSuchFile { .. })
        ));
    }

    #[test]
    fn failover_to_replica_server() {
        let c = cluster();
        // Replicate chunk 0 onto server 3 as well.
        c.servers()[3].export(&query_path(0));
        c.servers()[0].set_online(false);
        let w = c.write_file(&query_path(0), b"q".to_vec()).unwrap();
        assert_eq!(w, 3);
    }

    #[test]
    fn concurrent_dispatch_from_many_threads() {
        let c = cluster();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let chunk = (t * 50 + i) % 8;
                        let q = format!("SELECT {t} FROM Object_{chunk}").into_bytes();
                        let w = c.write_file(&query_path(chunk), q.clone()).unwrap();
                        let r = c.read_file(w, &result_path(&md5_hex(&q))).unwrap();
                        assert_eq!(*r, q.len().to_string().into_bytes());
                    }
                });
            }
        });
    }

    #[test]
    fn injected_write_fault_fails_before_server_work() {
        let c = cluster();
        c.faults()
            .fail_next(None, Some(crate::fault::FabricOp::Write), 1);
        let q = b"q".to_vec();
        let err = c.write_file(&query_path(3), q.clone()).unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        // The write was failed *before* the server stored or executed it.
        assert_eq!(c.servers()[3].num_files(), 0);
        // Next attempt goes through and excludes nothing.
        assert!(c.write_file(&query_path(3), q).is_ok());
        assert_eq!(c.faults().stats().failures_injected, 1);
    }

    #[test]
    fn injected_close_fault_fails_after_server_work() {
        let c = cluster();
        c.faults()
            .fail_next(None, Some(crate::fault::FabricOp::Close), 1);
        let q = b"q".to_vec();
        let err = c.write_file(&query_path(3), q.clone()).unwrap_err();
        assert!(matches!(
            err,
            XrdError::Injected {
                op: crate::fault::FabricOp::Close,
                ..
            }
        ));
        // Close failed, but the payload landed and the plugin ran: the
        // result file exists even though the client saw an error.
        assert!(c.servers()[3]
            .get_file(&result_path(&md5_hex(&q)))
            .is_some());
    }

    #[test]
    fn keyed_write_excluding_steers_to_replica() {
        let c = cluster();
        c.servers()[3].export(&query_path(0));
        let r = c.redirector();
        for key in 0..8 {
            let w = r.resolve_keyed(&query_path(0), key, &[0]).unwrap();
            assert_eq!(w, 3);
            c.write_file_to(w, &query_path(0), b"q".to_vec()).unwrap();
            assert!(c.servers()[3]
                .get_file(&result_path(&md5_hex(b"q")))
                .is_some());
        }
        // Excluding every replica leaves nothing to resolve.
        assert_eq!(r.resolve_keyed(&query_path(0), 0, &[0, 3]), None);
    }

    #[test]
    fn write_file_to_fires_the_chosen_servers_plugin() {
        let c = cluster();
        c.servers()[3].export(&query_path(0));
        let q = b"q".to_vec();
        c.write_file_to(3, &query_path(0), q.clone()).unwrap();
        let rp = result_path(&md5_hex(&q));
        assert!(c.servers()[3].get_file(&rp).is_some());
        assert!(c.servers()[0].get_file(&rp).is_none());
        // A server that does not export the path stores but runs nothing.
        c.write_file_to(1, &query_path(0), b"r".to_vec()).unwrap();
        assert!(c.servers()[1]
            .get_file(&result_path(&md5_hex(b"r")))
            .is_none());
        c.servers()[3].set_online(false);
        assert_eq!(
            c.write_file_to(3, &query_path(0), q),
            Err(XrdError::ServerOffline(3))
        );
        assert_eq!(
            c.write_file_to(9, "/x", vec![]),
            Err(XrdError::NoSuchServer(9))
        );
    }

    #[test]
    fn put_file_direct_stores_without_firing_the_plugin() {
        let c = cluster();
        let before = c.servers()[2].num_files();
        c.put_file_direct(2, "/chunk/Object/9", b"payload".to_vec())
            .unwrap();
        assert_eq!(
            *c.servers()[2].get_file("/chunk/Object/9").unwrap(),
            b"payload".to_vec()
        );
        // Exactly one new file: no plugin deposit alongside it.
        assert_eq!(c.servers()[2].num_files(), before + 1);
        // Offline and unknown targets fail.
        c.servers()[2].set_online(false);
        assert!(matches!(
            c.put_file_direct(2, "/chunk/Object/9", vec![]),
            Err(XrdError::ServerOffline(2))
        ));
        assert!(matches!(
            c.put_file_direct(77, "/x", vec![]),
            Err(XrdError::NoSuchServer(77))
        ));
    }

    #[test]
    fn put_file_direct_is_fault_checked() {
        let c = cluster();
        c.faults()
            .fail_next(None, Some(crate::fault::FabricOp::Write), 1);
        let err = c
            .put_file_direct(1, "/chunk/Object/3", b"p".to_vec())
            .unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        assert!(c.servers()[1].get_file("/chunk/Object/3").is_none());
        // Corruption faults mangle the stored payload (receivers verify
        // a digest before acking a replica).
        c.faults()
            .corrupt_payload(None, Some(crate::fault::FabricOp::Write), 1.0);
        let clean = b"0123456789abcdef0123456789abcdef".to_vec();
        c.put_file_direct(1, "/chunk/Object/3", clean.clone())
            .unwrap();
        c.faults().clear();
        assert_ne!(*c.servers()[1].get_file("/chunk/Object/3").unwrap(), clean);
    }

    #[test]
    fn corrupted_read_returns_mangled_copy_without_touching_store() {
        let c = cluster();
        let q = b"0123456789abcdef0123456789abcdef".to_vec();
        let w = c.write_file(&query_path(1), q.clone()).unwrap();
        let rp = result_path(&md5_hex(&q));
        let clean = c.read_file(w, &rp).unwrap();
        c.faults()
            .corrupt_payload(None, Some(crate::fault::FabricOp::Read), 1.0);
        let dirty = c.read_file(w, &rp).unwrap();
        assert_ne!(*clean, *dirty);
        c.faults().clear();
        // The stored file itself was never modified.
        assert_eq!(*c.read_file(w, &rp).unwrap(), *clean);
    }
}

//! The redirector: a caching namespace look-up service.
//!
//! "A client connects to a redirector, which acts as a caching namespace
//! look-up service that redirects clients to appropriate data servers"
//! (paper §5.1.2). Lookups consult a cache first; on a miss the redirector
//! queries every server's exported namespace (Xrootd's broadcast
//! discovery) and caches the answer. Offline servers are skipped, giving
//! replica failover for replicated paths.

use crate::server::{DataServer, ServerId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached namespace entry: the replicas exporting a path plus that
/// path's own rotation counter. Keeping the counter per path (rather
/// than one global counter) still spreads load across replicas, but
/// makes the replica sequence for a path independent of unrelated
/// lookups — so concurrent dispatch of other chunks cannot perturb
/// which replica a given chunk query lands on, and seeded fault
/// schedules stay reproducible.
struct PathEntry {
    ids: Vec<ServerId>,
    rr: AtomicU64,
}

/// Path → servers lookup with a cache and failover.
pub struct Redirector {
    servers: Vec<Arc<DataServer>>,
    cache: RwLock<HashMap<String, Arc<PathEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Redirector {
    /// Creates a redirector over a fixed server set.
    pub fn new(servers: Vec<Arc<DataServer>>) -> Redirector {
        Redirector {
            servers,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The managed servers.
    pub fn servers(&self) -> &[Arc<DataServer>] {
        &self.servers
    }

    /// Resolves `path` to one *online* server exporting it, preferring a
    /// cached mapping and rotating across replicas. `None` when no online
    /// server exports the path.
    pub fn resolve(&self, path: &str) -> Option<Arc<DataServer>> {
        let entry = self.entry(path)?;
        let start = entry.rr.fetch_add(1, Ordering::Relaxed) as usize;
        self.pick(&entry.ids, start, &[])
    }

    /// [`Redirector::resolve`] without the rotation, and never returning
    /// a server in `exclude`: the scan over `path`'s replicas starts at
    /// `key` (modulo their number), so one key keeps resolving to one
    /// server while that server stays online and unexcluded. A client
    /// that groups many paths by the server they resolve to keys each
    /// path by itself, so its grouping does not move between requests;
    /// a retrying client passes the replicas that already failed it,
    /// steering the lookup to a different one.
    pub fn resolve_keyed(&self, path: &str, key: usize, exclude: &[ServerId]) -> Option<ServerId> {
        let entry = self.entry(path)?;
        self.pick(&entry.ids, key, exclude).map(|s| s.id())
    }

    /// The cached replica list of `path`, discovered on a miss.
    fn entry(&self, path: &str) -> Option<Arc<PathEntry>> {
        if let Some(entry) = self.cache.read().get(path).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let ids: Vec<ServerId> = self
            .servers
            .iter()
            .filter(|s| s.exports_path(path))
            .map(|s| s.id())
            .collect();
        if ids.is_empty() {
            return None;
        }
        // entry(): concurrent misses must converge on ONE
        // rotation counter, not race to install two.
        Some(Arc::clone(
            self.cache
                .write()
                .entry(path.to_string())
                .or_insert_with(|| {
                    Arc::new(PathEntry {
                        ids,
                        rr: AtomicU64::new(0),
                    })
                }),
        ))
    }

    /// The first online, unexcluded replica of `ids` scanning from
    /// `start` (failover).
    fn pick(
        &self,
        ids: &[ServerId],
        start: usize,
        exclude: &[ServerId],
    ) -> Option<Arc<DataServer>> {
        for k in 0..ids.len() {
            let id = ids[(start + k) % ids.len()];
            if exclude.contains(&id) {
                continue;
            }
            let server = &self.servers[id];
            if server.is_online() {
                return Some(Arc::clone(server));
            }
        }
        None
    }

    /// Direct access to a server by id (the second transaction of a
    /// dispatch reads the result from a *known* worker, paper §5.4's
    /// `xrootd://<worker ip:port>/result/H`).
    pub fn server(&self, id: ServerId) -> Option<Arc<DataServer>> {
        self.servers.get(id).map(Arc::clone)
    }

    /// Invalidates the namespace cache (e.g. after re-exporting paths).
    pub fn invalidate_cache(&self) {
        self.cache.write().clear();
    }

    /// `(cache hits, cache misses)` counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_of(n: usize) -> (Redirector, Vec<Arc<DataServer>>) {
        let servers: Vec<Arc<DataServer>> = (0..n).map(|i| Arc::new(DataServer::new(i))).collect();
        (Redirector::new(servers.clone()), servers)
    }

    #[test]
    fn resolve_finds_exporter() {
        let (r, servers) = cluster_of(3);
        servers[1].export("/query2/42");
        let got = r.resolve("/query2/42").unwrap();
        assert_eq!(got.id(), 1);
        assert!(r.resolve("/query2/99").is_none());
    }

    #[test]
    fn cache_hits_after_first_lookup() {
        let (r, servers) = cluster_of(2);
        servers[0].export("/q");
        r.resolve("/q");
        r.resolve("/q");
        r.resolve("/q");
        let (hits, misses) = r.cache_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 2);
    }

    #[test]
    fn failed_lookup_not_cached() {
        let (r, servers) = cluster_of(2);
        assert!(r.resolve("/late").is_none());
        servers[1].export("/late");
        // The earlier miss must not stick.
        assert_eq!(r.resolve("/late").unwrap().id(), 1);
    }

    #[test]
    fn replica_failover() {
        let (r, servers) = cluster_of(3);
        servers[0].export("/q");
        servers[2].export("/q");
        servers[0].set_online(false);
        for _ in 0..10 {
            assert_eq!(r.resolve("/q").unwrap().id(), 2);
        }
        // All replicas down: unresolvable.
        servers[2].set_online(false);
        assert!(r.resolve("/q").is_none());
        // Back up: resolvable again (cache still valid).
        servers[0].set_online(true);
        assert_eq!(r.resolve("/q").unwrap().id(), 0);
    }

    #[test]
    fn replicas_rotate() {
        let (r, servers) = cluster_of(2);
        servers[0].export("/q");
        servers[1].export("/q");
        let mut seen = [false; 2];
        for _ in 0..8 {
            seen[r.resolve("/q").unwrap().id()] = true;
        }
        assert!(seen[0] && seen[1], "round-robin must use both replicas");
    }

    #[test]
    fn keyed_resolution_is_stable_and_fails_over() {
        let (r, servers) = cluster_of(3);
        servers[0].export("/q");
        servers[2].export("/q");
        for _ in 0..4 {
            assert_eq!(r.resolve_keyed("/q", 0, &[]), Some(0));
            assert_eq!(r.resolve_keyed("/q", 1, &[]), Some(2));
        }
        assert_eq!(r.resolve_keyed("/q", 0, &[0]), Some(2));
        servers[2].set_online(false);
        assert_eq!(r.resolve_keyed("/q", 1, &[]), Some(0));
        assert_eq!(r.resolve_keyed("/q", 1, &[0]), None);
        assert_eq!(r.resolve_keyed("/nowhere", 0, &[]), None);
    }

    #[test]
    fn invalidate_cache_forces_rediscovery() {
        let (r, servers) = cluster_of(2);
        servers[0].export("/q");
        r.resolve("/q");
        r.invalidate_cache();
        r.resolve("/q");
        let (_, misses) = r.cache_stats();
        assert_eq!(misses, 2);
    }

    #[test]
    fn direct_server_access() {
        let (r, _) = cluster_of(2);
        assert_eq!(r.server(1).unwrap().id(), 1);
        assert!(r.server(5).is_none());
    }
}

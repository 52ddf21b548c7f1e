//! The chunk → replica placement model: one type, one set of planning
//! functions.
//!
//! In a shared-nothing cluster each chunk lives on (at least) one node. The
//! paper (§4.4 "Two-level partitions") argues for many more chunks than
//! nodes so that adding a node means *moving some chunks*, not
//! re-partitioning, and so that density-induced skew spreads across nodes
//! when chunks are assigned in a non-area-based scheme. Round-robin over
//! chunk id order interleaves sky-adjacent chunks onto different nodes,
//! which is exactly that scheme. The paper assumes a fixed fleet;
//! "Designing a Multi-petabyte Database for LSST" frames re-replication
//! and placement as *the* petabyte-scale problem, so the map is versioned:
//!
//! * [`PlacementMap`] — an immutable, epoch-stamped chunk → replica
//!   assignment plus the member-node set. [`PlacementMap::initial`] is the
//!   load-time layout (epoch 0); membership change commits
//!   [`PlacementEdit`]s at higher epochs.
//! * The planning step functions — [`PlacementMap::next_repair`],
//!   [`PlacementMap::next_rebalance`], [`PlacementMap::next_drain`] —
//!   decide *which copy comes next* from a snapshot alone. The live
//!   master performs each copy over the fabric and commits it; the
//!   simulator commits it directly and costs the copy. Both therefore run
//!   the same policy.

use std::collections::{BTreeMap, BTreeSet};

/// An immutable chunk → replica assignment at one epoch. Queries pin one
/// snapshot and complete against it; membership operations commit new
/// maps at higher epochs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementMap {
    epoch: u64,
    replication: usize,
    map: BTreeMap<i32, Vec<usize>>,
    members: BTreeSet<usize>,
}

/// One planned replica copy: ship `chunk` from node `src` to node `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyStep {
    /// Chunk to copy.
    pub chunk: i32,
    /// Node the payload streams from.
    pub src: usize,
    /// Fewest-loaded member that does not hold the chunk yet.
    pub dst: usize,
}

/// What draining a node does next ([`PlacementMap::next_drain`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainStep {
    /// Copy the chunk to `dst`, then forget the draining node's replica
    /// (copy-then-detach, so the factor never dips).
    Move(CopyStep),
    /// Every other member already holds the chunk: forget this replica;
    /// the factor is capped by the shrinking membership.
    Forget(i32),
    /// No other member holds or can take the chunk: draining would lose
    /// it.
    Stuck(i32),
}

impl PlacementMap {
    /// The load-time layout at epoch 0: chunk `i` of `chunks` (id order)
    /// has its primary on member `i mod nodes` of `0..nodes` — round
    /// robin, which spreads sky-adjacent chunks across nodes, the paper's
    /// skew-spreading choice — and `replication` replicas per chunk on
    /// consecutive distinct nodes.
    ///
    /// # Panics
    /// Panics when `nodes == 0`, `replication == 0`, or
    /// `replication > nodes`.
    pub fn initial(chunks: &[i32], nodes: usize, replication: usize) -> PlacementMap {
        assert!(nodes > 0, "placement requires at least one node");
        assert!(
            (1..=nodes).contains(&replication),
            "replication must be in 1..=nodes"
        );
        let map = chunks
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, (0..replication).map(|r| (i + r) % nodes).collect()))
            .collect();
        PlacementMap {
            epoch: 0,
            replication,
            map,
            members: (0..nodes).collect(),
        }
    }

    /// The epoch this map was committed at (0 = the load-time map).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Every known chunk id, ascending.
    pub fn chunks(&self) -> Vec<i32> {
        self.map.keys().copied().collect()
    }

    /// Replica nodes of `chunk` (primary first), `None` for unknown ids.
    pub fn nodes_of(&self, chunk: i32) -> Option<&[usize]> {
        self.map.get(&chunk).map(|v| v.as_slice())
    }

    /// The member-node set (nodes eligible to hold replicas), ascending.
    pub fn members(&self) -> Vec<usize> {
        self.members.iter().copied().collect()
    }

    /// Whether `node` is a member.
    pub fn is_member(&self, node: usize) -> bool {
        self.members.contains(&node)
    }

    /// Chunks with a replica on `node`, ascending.
    pub fn chunks_on(&self, node: usize) -> Vec<i32> {
        self.map
            .iter()
            .filter(|(_, ns)| ns.contains(&node))
            .map(|(&c, _)| c)
            .collect()
    }

    /// Replica count per member node (members with no chunks included at
    /// zero) — the balance measure rebalancing levels.
    pub fn load(&self) -> BTreeMap<usize, usize> {
        let mut load: BTreeMap<usize, usize> = self.members.iter().map(|&n| (n, 0)).collect();
        for ns in self.map.values() {
            for n in ns {
                if let Some(c) = load.get_mut(n) {
                    *c += 1;
                }
            }
        }
        load
    }

    /// Chunks holding fewer than `replication` replicas on member nodes,
    /// ascending.
    pub fn under_replicated(&self) -> Vec<i32> {
        self.map
            .iter()
            .filter(|(_, ns)| {
                ns.iter().filter(|n| self.members.contains(n)).count() < self.replication
            })
            .map(|(&c, _)| c)
            .collect()
    }

    /// The next repair copy: the lowest under-replicated chunk that has
    /// both a holder `alive(chunk, node)` accepts as a copy source (the
    /// first such holder) and a member that can take a new replica.
    /// `None` when repair can do no more — what is still under-replicated
    /// is either [`PlacementMap::unrecoverable`] or capped by the
    /// membership size.
    pub fn next_repair(&self, alive: impl Fn(i32, usize) -> bool) -> Option<CopyStep> {
        let load = self.load();
        self.under_replicated().into_iter().find_map(|chunk| {
            let holders = &self.map[&chunk];
            let src = holders.iter().copied().find(|&h| alive(chunk, h))?;
            let dst = pick_least_loaded(&load, holders)?;
            Some(CopyStep { chunk, src, dst })
        })
    }

    /// Under-replicated chunks with no holder `alive` accepts — every
    /// replica is gone, unrecoverable without a reload. Ascending.
    pub fn unrecoverable(&self, alive: impl Fn(i32, usize) -> bool) -> Vec<i32> {
        let mut lost = self.under_replicated();
        lost.retain(|&chunk| !self.map[&chunk].iter().any(|&h| alive(chunk, h)));
        lost
    }

    /// The next load-levelling move: the lowest chunk on the most-loaded
    /// member that the least-loaded member does not hold (ties to the
    /// lowest node id). `None` once replica counts differ by at most one.
    pub fn next_rebalance(&self) -> Option<CopyStep> {
        let load = self.load();
        let (&src, &hi) = load.iter().max_by_key(|&(&n, &c)| (c, usize::MAX - n))?;
        let (&dst, &lo) = load.iter().min_by_key(|&(&n, &c)| (c, n))?;
        if hi <= lo + 1 {
            return None;
        }
        let (&chunk, _) = self
            .map
            .iter()
            .find(|(_, ns)| ns.contains(&src) && !ns.contains(&dst))?;
        Some(CopyStep { chunk, src, dst })
    }

    /// The next step of draining `node`: what to do with the lowest chunk
    /// it still holds. `None` once it holds nothing.
    pub fn next_drain(&self, node: usize) -> Option<DrainStep> {
        let (&chunk, holders) = self.map.iter().find(|(_, ns)| ns.contains(&node))?;
        Some(match pick_least_loaded(&self.load(), holders) {
            Some(dst) => DrainStep::Move(CopyStep {
                chunk,
                src: node,
                dst,
            }),
            None if holders.iter().any(|&h| h != node && self.is_member(h)) => {
                DrainStep::Forget(chunk)
            }
            None => DrainStep::Stuck(chunk),
        })
    }

    /// Starts an edit of this map; [`PlacementEdit::commit`] seals it at
    /// `epoch + 1`.
    pub fn edit(&self) -> PlacementEdit {
        PlacementEdit { next: self.clone() }
    }
}

/// The member with the fewest replicas that does not already hold the
/// chunk (ties to the lowest node id).
fn pick_least_loaded(load: &BTreeMap<usize, usize>, holders: &[usize]) -> Option<usize> {
    load.iter()
        .filter(|(n, _)| !holders.contains(n))
        .min_by_key(|&(&n, &c)| (c, n))
        .map(|(&n, _)| n)
}

/// A working copy of a [`PlacementMap`]: a chain of mutations committed
/// as a single epoch bump (`map.edit().add_replica(c, n).commit()`).
pub struct PlacementEdit {
    next: PlacementMap,
}

impl PlacementEdit {
    /// Adds `node` to the member set.
    pub fn add_member(mut self, node: usize) -> Self {
        self.next.members.insert(node);
        self
    }

    /// Removes `node` from the member set and strips it from every
    /// replica list (the permanent-loss bookkeeping; the data may
    /// already be gone).
    pub fn remove_member(mut self, node: usize) -> Self {
        self.next.members.remove(&node);
        for ns in self.next.map.values_mut() {
            ns.retain(|&n| n != node);
        }
        self
    }

    /// Records a new replica of `chunk` on `node`.
    pub fn add_replica(mut self, chunk: i32, node: usize) -> Self {
        let ns = self.next.map.entry(chunk).or_default();
        if !ns.contains(&node) {
            ns.push(node);
        }
        self
    }

    /// Forgets the replica of `chunk` on `node`.
    pub fn remove_replica(mut self, chunk: i32, node: usize) -> Self {
        if let Some(ns) = self.next.map.get_mut(&chunk) {
            ns.retain(|&n| n != node);
        }
        self
    }

    /// Seals the edit one epoch above the map it was opened from.
    pub fn commit(mut self) -> PlacementMap {
        self.next.epoch += 1;
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(n: i32) -> Vec<i32> {
        (0..n).collect()
    }

    /// Max/min replica counts across members.
    fn balance(map: &PlacementMap) -> (usize, usize) {
        let load = map.load();
        (
            load.values().copied().max().unwrap_or(0),
            load.values().copied().min().unwrap_or(0),
        )
    }

    fn map3() -> PlacementMap {
        PlacementMap::initial(&[1, 2, 3, 4, 5, 6], 3, 2)
    }

    #[test]
    fn round_robin_balances() {
        let p = PlacementMap::initial(&ids(100), 10, 1);
        assert_eq!(balance(&p), (10, 10));
    }

    #[test]
    fn round_robin_uneven_remainder() {
        let p = PlacementMap::initial(&ids(101), 10, 1);
        let (max, min) = balance(&p);
        assert_eq!(max - min, 1);
    }

    #[test]
    fn replication_uses_distinct_nodes() {
        let p = PlacementMap::initial(&ids(50), 5, 3);
        for c in p.chunks() {
            let ns = p.nodes_of(c).unwrap();
            assert_eq!(ns.len(), 3);
            let mut sorted = ns.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct nodes");
        }
    }

    #[test]
    fn replica_sets_include_primary() {
        let p = PlacementMap::initial(&ids(50), 5, 2);
        for c in p.chunks() {
            let primary = p.nodes_of(c).unwrap()[0];
            assert!(p.chunks_on(primary).contains(&c));
        }
    }

    #[test]
    fn unknown_chunk_is_none() {
        let p = PlacementMap::initial(&ids(10), 2, 1);
        assert!(p.nodes_of(999).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        PlacementMap::initial(&ids(10), 0, 1);
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn over_replication_panics() {
        PlacementMap::initial(&ids(10), 2, 3);
    }

    #[test]
    fn round_robin_interleaves_adjacent_chunks() {
        // Sky-adjacent chunks (consecutive ids) land on different nodes —
        // the paper's density-skew spreading argument.
        let p = PlacementMap::initial(&ids(100), 10, 1);
        for c in 0..99 {
            assert_ne!(p.nodes_of(c).unwrap()[0], p.nodes_of(c + 1).unwrap()[0]);
        }
    }

    #[test]
    fn initial_map_is_epoch_zero_over_all_nodes() {
        let m = PlacementMap::initial(&[1, 2, 3], 3, 2);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.replication(), 2);
        assert_eq!(m.chunks(), vec![1, 2, 3]);
        assert_eq!(m.nodes_of(3).unwrap(), &[2, 0]);
        assert_eq!(m.members(), vec![0, 1, 2]);
        assert!(m.under_replicated().is_empty());
    }

    #[test]
    fn edits_commit_monotonic_epochs() {
        let m = map3();
        let m2 = m.edit().add_member(3).add_replica(1, 3).commit();
        assert_eq!(m2.epoch(), 1);
        assert!(m2.is_member(3));
        assert!(m2.nodes_of(1).unwrap().contains(&3));
        // The source map is untouched (queries pin it safely).
        assert_eq!(m.epoch(), 0);
        assert!(!m.is_member(3));
    }

    #[test]
    fn remove_member_strips_replicas_and_reports_under_replication() {
        let m2 = map3().edit().remove_member(0).commit();
        assert!(!m2.is_member(0));
        for c in m2.chunks() {
            assert!(!m2.nodes_of(c).unwrap().contains(&0));
        }
        let under = m2.under_replicated();
        assert!(!under.is_empty(), "losing a node must under-replicate");
        for c in &under {
            assert!(m2.nodes_of(*c).unwrap().len() < m2.replication());
        }
    }

    #[test]
    fn load_counts_members_with_zero_chunks() {
        let m2 = map3().edit().add_member(7).commit();
        assert_eq!(m2.load().get(&7), Some(&0));
        let total: usize = m2.load().values().sum();
        assert_eq!(total, 12, "6 chunks x 2 replicas");
    }

    #[test]
    fn repair_skips_dead_sources_and_reports_the_sourceless() {
        // Node 0 is gone from the map; node 1 is still mapped but dead.
        let m = map3().edit().remove_member(0).commit();
        let alive = |_: i32, n: usize| n != 1;
        // Chunks 1 and 4 were on [0, 1]: only the dead node 1 holds them now.
        assert_eq!(m.nodes_of(1).unwrap(), &[1]);
        assert_eq!(m.unrecoverable(alive), vec![1, 4]);
        // The first repairable chunk streams from its live holder to the
        // fewest-loaded member not holding it.
        let step = m.next_repair(alive).expect("chunk 3 is repairable");
        assert_eq!((step.chunk, step.src), (3, 2));
        assert_eq!(step.dst, 1);
    }

    #[test]
    fn draining_the_last_member_is_stuck() {
        let m = PlacementMap::initial(&[4, 5], 1, 1);
        assert_eq!(m.next_drain(0), Some(DrainStep::Stuck(4)));
        // With a full second copy elsewhere the replica is just forgotten.
        let m = PlacementMap::initial(&[4, 5], 2, 2);
        assert_eq!(m.next_drain(1), Some(DrainStep::Forget(4)));
    }

    fn distinct_member_replicas(map: &PlacementMap) -> bool {
        map.chunks().into_iter().all(|c| {
            let ns = map.nodes_of(c).expect("chunk mapped");
            ns.iter().all(|&n| map.is_member(n))
                && ns.iter().enumerate().all(|(i, n)| !ns[..i].contains(n))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random maps at up to paper scale (150 members, 9 000 chunks),
        /// 1–3 members lost, then the step functions driven to their
        /// fixed points the way the master drives them.
        #[test]
        fn planning_steps_reach_sound_fixed_points(
            members in 1usize..151,
            per_node in 1usize..61,
            replication in 1usize..4,
            losses in proptest::collection::vec(0usize..1000, 1..4),
            drained in 0usize..1000,
        ) {
            let replication = replication.min(members);
            let chunks = ids((members * per_node) as i32);
            let mut map = PlacementMap::initial(&chunks, members, replication);
            let holders: Vec<Vec<usize>> =
                chunks.iter().map(|&c| map.nodes_of(c).unwrap().to_vec()).collect();
            let mut commits = 0u64;
            let mut lost = Vec::new();
            for pick in losses {
                let live = map.members();
                if live.is_empty() {
                    break;
                }
                let node = live[pick % live.len()];
                lost.push(node);
                map = map.edit().remove_member(node).commit();
                commits += 1;
            }
            // Losses without repair leave exactly the chunks whose every
            // replica was on a lost member with no source.
            let sourceless: Vec<i32> = chunks
                .iter()
                .copied()
                .filter(|&c| map.nodes_of(c).unwrap().is_empty())
                .collect();
            let all_lost: Vec<i32> = chunks
                .iter()
                .zip(&holders)
                .filter(|(_, h)| h.iter().all(|n| lost.contains(n)))
                .map(|(&c, _)| c)
                .collect();
            prop_assert_eq!(&sourceless, &all_lost);

            // Repair: every copy targets a member not yet holding the
            // chunk, from a node that does.
            while let Some(s) = map.next_repair(|_, _| true) {
                let holders = map.nodes_of(s.chunk).unwrap();
                prop_assert!(map.is_member(s.dst), "repair target {} is no member", s.dst);
                prop_assert!(holders.contains(&s.src) && !holders.contains(&s.dst));
                map = map.edit().add_replica(s.chunk, s.dst).commit();
                commits += 1;
            }
            prop_assert!(distinct_member_replicas(&map));
            prop_assert_eq!(map.unrecoverable(|_, _| true), sourceless.clone());
            if map.members().len() >= replication {
                prop_assert_eq!(map.under_replicated(), sourceless);
            }

            // Rebalance onto a freshly joined member: terminates, conserves
            // every chunk's replica count, levels member load to within one.
            map = map.edit().add_member(members).commit();
            commits += 1;
            let factors: Vec<usize> =
                chunks.iter().map(|&c| map.nodes_of(c).unwrap().len()).collect();
            while let Some(s) = map.next_rebalance() {
                map = map
                    .edit()
                    .add_replica(s.chunk, s.dst)
                    .remove_replica(s.chunk, s.src)
                    .commit();
                commits += 1;
            }
            prop_assert!(distinct_member_replicas(&map));
            let after: Vec<usize> =
                chunks.iter().map(|&c| map.nodes_of(c).unwrap().len()).collect();
            prop_assert_eq!(after, factors);
            let (hi, lo) = balance(&map);
            prop_assert!(hi <= lo + 1, "load spread {hi}-{lo} after rebalance");

            // Drain: leaves nothing on the node (only the last member
            // cannot be drained).
            let live = map.members();
            if let Some(&node) = live.get(drained % live.len().max(1)) {
                while let Some(step) = map.next_drain(node) {
                    let edit = map.edit();
                    map = match step {
                        DrainStep::Move(s) => {
                            edit.add_replica(s.chunk, s.dst).remove_replica(s.chunk, node)
                        }
                        DrainStep::Forget(c) => edit.remove_replica(c, node),
                        DrainStep::Stuck(_) => {
                            prop_assert_eq!(live.len(), 1, "only a sole member is stuck");
                            break;
                        }
                    }
                    .commit();
                    commits += 1;
                }
                if live.len() > 1 {
                    prop_assert!(map.chunks_on(node).is_empty());
                    prop_assert!(distinct_member_replicas(&map));
                }
            }
            prop_assert_eq!(map.epoch(), commits);
        }
    }
}

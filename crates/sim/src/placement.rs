//! Placement-aware scenario composition for the cluster simulator.
//!
//! The live system's placement subsystem (epoch-versioned chunk→replica
//! maps, repair after node loss, rebalancing) operates at cluster scales
//! the test suite cannot build for real — the paper's testbed is 150
//! nodes. The scenarios here run the *same* model at that scale:
//! `qserv_partition::placement`'s [`PlacementMap`] and its planning step
//! functions, exactly as the live master drives them (ask for the next
//! step, commit one epoch per copy) — except that a copy is costed
//! through the [`Simulator`] instead of shipped over the fabric.
//!
//! * [`weak_scaling`] — the §6.3 experiment shape: node count grows,
//!   per-node data stays fixed, full-scan latency should stay flat.
//! * [`node_loss_scenario`] — a node dies mid-workload. With
//!   *rebalancing on*, repair copies restore the replication factor,
//!   load-levelling evens the survivors out and the follow-up scan runs
//!   on a balanced map; with *rebalancing off*, the dead node's chunks
//!   pile onto its surviving replica holders and load concentrates.
//!
//! Determinism matters here the way it does everywhere else in this
//! crate: same inputs ⇒ same plan, same virtual timings, no wall clock.

use crate::config::SimConfig;
use crate::simulator::{ChunkTask, QueryJob, Simulator};
use qserv_partition::placement::{CopyStep, PlacementMap, PlacementStrategy};
use std::collections::BTreeMap;

/// The round-robin, replication-2 load-time layout of `chunks` chunks
/// (ids `0..chunks`) over `nodes` nodes.
fn initial(chunks: usize, nodes: usize) -> PlacementMap {
    let ids: Vec<i32> = (0..chunks as i32).collect();
    PlacementMap::initial(&ids, nodes, 2, PlacementStrategy::RoundRobin)
}

/// Permanently loses `node` (out of membership and every replica list,
/// one epoch), then runs the live repair loop to its fixed point: every
/// step [`PlacementMap::next_repair`] plans is committed at its own
/// epoch. In the simulator every mapped holder is a live source. Returns
/// the copies in commit order.
pub fn fail_and_repair(placement: &mut PlacementMap, node: usize) -> Vec<CopyStep> {
    *placement = placement.edit().remove_member(node).commit();
    let mut copies = Vec::new();
    while let Some(step) = placement.next_repair(|_, _| true) {
        *placement = placement.edit().add_replica(step.chunk, step.dst).commit();
        copies.push(step);
    }
    copies
}

/// Runs the live load-levelling loop to its fixed point: every move
/// [`PlacementMap::next_rebalance`] plans is committed at its own epoch.
/// Returns the moves in commit order.
pub fn rebalance(placement: &mut PlacementMap) -> Vec<CopyStep> {
    let mut moves = Vec::new();
    while let Some(step) = placement.next_rebalance() {
        *placement = placement
            .edit()
            .add_replica(step.chunk, step.dst)
            .remove_replica(step.chunk, step.src)
            .commit();
        moves.push(step);
    }
    moves
}

/// Routes one task per chunk in `chunks` onto the replica with the
/// fewest tasks routed to it so far (ties to the lowest node id) — the
/// deterministic mirror of the live dispatcher's load-aware replica
/// choice. Chunks that lost all but one replica have no choice, which is
/// exactly how an unrepaired loss concentrates load; chunks with no
/// replica left get no task.
fn route(placement: &PlacementMap, chunks: &[i32]) -> Vec<(i32, usize)> {
    let mut per_node: BTreeMap<usize, usize> = BTreeMap::new();
    let mut assigned = Vec::with_capacity(chunks.len());
    for &chunk in chunks {
        let Some(node) = placement
            .nodes_of(chunk)
            .and_then(|r| {
                r.iter()
                    .min_by_key(|&&n| (per_node.get(&n).copied().unwrap_or(0), n))
            })
            .copied()
        else {
            continue;
        };
        *per_node.entry(node).or_insert(0) += 1;
        assigned.push((chunk, node));
    }
    assigned
}

/// The node each chunk's scan task runs on (`route` over every chunk).
pub fn route_scan(placement: &PlacementMap) -> BTreeMap<i32, usize> {
    route(placement, &placement.chunks()).into_iter().collect()
}

/// A full-scan query routed by the placement map: one uncached scan
/// task per chunk on the replica [`route_scan`] picked.
pub fn scan_job(
    placement: &PlacementMap,
    label: &str,
    submit_s: f64,
    bytes_per_chunk: u64,
) -> QueryJob {
    QueryJob {
        label: format!("{label}@e{}", placement.epoch()),
        submit_s,
        tasks: route_scan(placement)
            .into_values()
            .map(|node| ChunkTask {
                node,
                disk_bytes: bytes_per_chunk,
                result_bytes: 256,
                ..ChunkTask::default()
            })
            .collect(),
    }
}

/// An index-routed point lookup under the placement map: the secondary
/// index already resolved the keys to their home `chunks`, so only
/// those chunks get a task, and each task reads an index probe's worth
/// of pages (`probe_bytes`) instead of the whole chunk. Compare against
/// [`scan_job`] over the same placement to see the planner's
/// index-vs-scan cost gap in simulator terms.
pub fn lookup_job(
    placement: &PlacementMap,
    label: &str,
    submit_s: f64,
    chunks: &[i32],
    probe_bytes: u64,
) -> QueryJob {
    QueryJob {
        label: format!("{label}@e{}", placement.epoch()),
        submit_s,
        tasks: route(placement, chunks)
            .into_iter()
            .map(|(_, node)| ChunkTask {
                node,
                disk_bytes: probe_bytes,
                result_bytes: 256,
                ..ChunkTask::default()
            })
            .collect(),
    }
}

/// Planned repair or load-levelling `copies` as a simulator job: each
/// copy reads the `bytes_per_chunk` payload off the source replica's disk
/// and ships it to the recipient over the fabric (modeled as the task's
/// result bytes).
pub fn repair_job(copies: &[CopyStep], bytes_per_chunk: u64, submit_s: f64) -> QueryJob {
    QueryJob {
        label: "repair".to_string(),
        submit_s,
        tasks: copies
            .iter()
            .map(|c| ChunkTask {
                node: c.src,
                disk_bytes: bytes_per_chunk,
                result_bytes: bytes_per_chunk,
                ..ChunkTask::default()
            })
            .collect(),
    }
}

/// One weak-scaling measurement point.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Cluster size.
    pub nodes: usize,
    /// Chunks scanned (grows with the cluster: fixed per-node data).
    pub chunks: usize,
    /// Full-scan completion, virtual seconds.
    pub elapsed_s: f64,
}

/// §6.3-shaped weak scaling under placement routing: per-node data
/// fixed, node count grows, one full scan per point.
pub fn weak_scaling(
    base: &SimConfig,
    node_counts: &[usize],
    chunks_per_node: usize,
    bytes_per_chunk: u64,
) -> Vec<ScalePoint> {
    node_counts
        .iter()
        .map(|&nodes| {
            let placement = initial(nodes * chunks_per_node, nodes);
            let mut sim = Simulator::new(base.clone().with_nodes(nodes));
            sim.submit(scan_job(&placement, "scan", 0.0, bytes_per_chunk));
            let reports = sim.run();
            ScalePoint {
                nodes,
                chunks: nodes * chunks_per_node,
                elapsed_s: reports[0].elapsed_s,
            }
        })
        .collect()
}

/// Outcome of the node-loss scenario at one rebalancing setting.
#[derive(Clone, Debug)]
pub struct NodeLossOutcome {
    /// Scan latency before the loss (epoch 0).
    pub before_s: f64,
    /// Scan latency after both losses settled — on the repaired map if
    /// rebalancing was on, on the degraded survivor-fallback map if
    /// off (lost chunks simply have no task, so this under-counts the
    /// degraded case's true cost: the data is gone).
    pub after_s: f64,
    /// Chunks left with exactly one replica (one loss from gone).
    pub factor_one: usize,
    /// Chunks left with *no* replica: unavailable data. Always 0 with
    /// rebalancing on; the second loss makes it non-zero without.
    pub chunks_lost: usize,
    /// Epoch of the final map: one per loss plus one per committed copy.
    pub epoch: u64,
    /// Repair copies performed (0 with rebalancing off).
    pub repair_copies: usize,
    /// Load-levelling moves performed after the repairs (0 with
    /// rebalancing off, and 0 whenever repair's fewest-loaded targets
    /// already left the survivors within one replica of each other).
    pub rebalance_moves: usize,
}

/// Two sequential permanent node losses mid-workload — adjacent nodes,
/// so their replica sets overlap. With `rebalancing = true` each loss
/// is repaired and the survivors load-levelled before the next (factor
/// restored, nothing lost); with `false` the survivors serve whatever
/// replicas remain, and the second loss erases every chunk whose only
/// replicas lived on the two dead nodes.
pub fn node_loss_scenario(
    base: &SimConfig,
    nodes: usize,
    chunks_per_node: usize,
    bytes_per_chunk: u64,
    rebalancing: bool,
) -> NodeLossOutcome {
    let mut placement = initial(nodes * chunks_per_node, nodes);
    let scan_s = |placement: &PlacementMap, label: &str| {
        let mut sim = Simulator::new(base.clone().with_nodes(nodes));
        sim.submit(scan_job(placement, label, 0.0, bytes_per_chunk));
        sim.run()[0].elapsed_s
    };
    let before_s = scan_s(&placement, "before");

    let (mut repair_copies, mut rebalance_moves) = (0, 0);
    for lost in [nodes / 2, nodes / 2 + 1] {
        if rebalancing {
            let repair = fail_and_repair(&mut placement, lost);
            let moves = rebalance(&mut placement);
            // The copy traffic itself runs through the simulator: the
            // copies' virtual cost is part of the scenario timeline.
            let mut sim = Simulator::new(base.clone().with_nodes(nodes));
            sim.submit(repair_job(&repair, bytes_per_chunk, 0.0));
            sim.submit(repair_job(&moves, bytes_per_chunk, 0.0));
            sim.run();
            repair_copies += repair.len();
            rebalance_moves += moves.len();
        } else {
            // No repair: survivors serve whatever replicas remain.
            placement = placement.edit().remove_member(lost).commit();
        }
    }
    let after_s = scan_s(&placement, "after");

    let with_replicas = |n: usize| {
        placement
            .chunks()
            .into_iter()
            .filter(|&c| placement.nodes_of(c).is_some_and(|r| r.len() == n))
            .count()
    };
    NodeLossOutcome {
        before_s,
        after_s,
        factor_one: with_replicas(1),
        chunks_lost: with_replicas(0),
        epoch: placement.epoch(),
        repair_copies,
        rebalance_moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(p: &PlacementMap) -> usize {
        let load = p.load();
        load.values().max().unwrap() - load.values().min().unwrap()
    }

    #[test]
    fn fail_and_repair_restores_factor_and_balances() {
        let mut p = initial(12, 4);
        let copies = fail_and_repair(&mut p, 1);
        assert!(p.unrecoverable(|_, _| true).is_empty());
        // Node 1 held 6 replicas; each needs exactly one copy, and each
        // acked copy is its own epoch on top of the loss.
        assert_eq!(copies.len(), 6);
        assert_eq!(p.epoch(), 1 + 6);
        for chunk in 0..12 {
            let replicas = p.nodes_of(chunk).unwrap();
            assert_eq!(replicas.len(), 2, "chunk {chunk} back at factor");
            assert!(!replicas.contains(&1));
        }
        assert!(
            spread(&p) <= 1,
            "repair targets spread evenly: {:?}",
            p.load()
        );
    }

    #[test]
    fn factor_one_loss_reports_lost_chunks() {
        let ids: Vec<i32> = (0..6).collect();
        let mut p = PlacementMap::initial(&ids, 3, 1, PlacementStrategy::RoundRobin);
        let copies = fail_and_repair(&mut p, 0);
        assert_eq!(p.unrecoverable(|_, _| true), vec![0, 3]);
        assert!(copies.is_empty());
    }

    #[test]
    fn rebalancing_off_loses_data_on_the_second_loss() {
        let base = SimConfig::paper_cluster();
        let degraded = node_loss_scenario(&base, 10, 4, 64 << 20, false);
        let repaired = node_loss_scenario(&base, 10, 4, 64 << 20, true);
        assert!(degraded.repair_copies == 0 && repaired.repair_copies > 0);
        // Repaired: every chunk back at factor 2, nothing lost, and the
        // post-loss scan stays close to the pre-loss baseline.
        assert_eq!(repaired.chunks_lost, 0);
        assert_eq!(repaired.factor_one, 0);
        assert_eq!(
            repaired.epoch,
            (2 + repaired.repair_copies + repaired.rebalance_moves) as u64
        );
        assert!(repaired.after_s < repaired.before_s * 1.5);
        // Degraded: the adjacent second loss erased the chunks whose
        // replicas lived only on the two dead nodes, and the survivors
        // sit one loss away from losing more.
        assert_eq!(degraded.epoch, 2);
        assert!(degraded.chunks_lost > 0, "overlap chunks must be gone");
        assert!(degraded.factor_one > 0);
    }

    #[test]
    fn rebalance_levels_a_joined_node_at_paper_scale() {
        // 150 members × 8 chunks at factor 2, then a 151st node joins:
        // the live load-levelling steps must fill it to within one
        // replica of everyone else without changing any chunk's factor.
        let mut p = initial(150 * 8, 150).edit().add_member(150).commit();
        assert_eq!(spread(&p), 16);
        let moves = rebalance(&mut p);
        assert!(spread(&p) <= 1, "levelled: {:?}", p.load());
        assert_eq!(moves.len(), p.load()[&150]);
        assert!(moves.iter().all(|c| c.dst == 150));
        assert_eq!(p.epoch(), 1 + moves.len() as u64);
        assert!(p.under_replicated().is_empty());
        // The moves cost virtual time like any other copy traffic.
        let mut sim = Simulator::new(SimConfig::paper_cluster().with_nodes(151));
        sim.submit(repair_job(&moves, 64 << 20, 0.0));
        let report = &sim.run()[0];
        assert_eq!(report.tasks, moves.len());
        assert!(report.elapsed_s > 0.0);
    }

    #[test]
    fn weak_scaling_stays_flat_under_placement_routing() {
        let base = SimConfig::paper_cluster();
        let points = weak_scaling(&base, &[30, 90, 150], 8, 64 << 20);
        let first = points[0].elapsed_s;
        for p in &points {
            assert!(
                (p.elapsed_s / first) < 1.6,
                "{}-node scan {}s drifted off {}s",
                p.nodes,
                p.elapsed_s,
                first
            );
        }
    }

    #[test]
    fn index_lookup_outruns_the_scan() {
        let base = SimConfig::paper_cluster();
        let placement = initial(120, 10);

        let mut sim = Simulator::new(base.clone().with_nodes(10));
        sim.submit(scan_job(&placement, "scan", 0.0, 64 << 20));
        sim.submit(lookup_job(
            &placement,
            "lookup",
            0.0,
            &[3, 47, 91],
            64 << 10,
        ));
        let reports = sim.run();

        let scan = reports
            .iter()
            .find(|r| r.label.starts_with("scan"))
            .expect("scan report");
        let lookup = reports
            .iter()
            .find(|r| r.label.starts_with("lookup"))
            .expect("lookup report");
        assert_eq!(scan.tasks, 120);
        assert_eq!(lookup.tasks, 3);
        // The cost gap the planner's index-vs-scan choice banks on:
        // three index probes finish several times before the 120-chunk
        // scan even while queueing behind it on a shared cluster.
        assert!(
            lookup.elapsed_s * 5.0 < scan.elapsed_s,
            "lookup {}s vs scan {}s",
            lookup.elapsed_s,
            scan.elapsed_s
        );
        assert!(lookup.disk_bytes * 100 < scan.disk_bytes);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let base = SimConfig::paper_cluster();
        let a = node_loss_scenario(&base, 12, 4, 32 << 20, true);
        let b = node_loss_scenario(&base, 12, 4, 32 << 20, true);
        assert_eq!(a.before_s.to_bits(), b.before_s.to_bits());
        assert_eq!(a.after_s.to_bits(), b.after_s.to_bits());
        assert_eq!(a.repair_copies, b.repair_copies);
    }
}

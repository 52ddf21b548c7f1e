//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p qserv-bench --bin figures            # everything
//! cargo run --release -p qserv-bench --bin figures fig6       # one figure
//! cargo run --release -p qserv-bench --bin figures ablations  # the extras
//! ```
//!
//! Output is a textual series per figure: paper-reported values alongside
//! the reproduction's. Real-execution figures run the actual distributed
//! pipeline on a laptop-scale fixture; timing figures run the calibrated
//! 150-node simulator (see `qserv-bench`'s crate docs for the calibration
//! table). Everything is deterministic.

use qserv_bench::workloads::{self as wl, Nuisance};
use qserv_sim::SimConfig;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let run_all = arg == "all";
    let mut ran = false;
    macro_rules! section {
        ($name:expr, $f:expr) => {
            if run_all || arg == $name {
                $f();
                println!();
                ran = true;
            }
        };
    }

    section!("table1", table1);
    section!("fig2", fig2);
    section!("fig3", fig3);
    section!("fig4", fig4);
    section!("fig5", fig5);
    section!("fig6", fig6);
    section!("fig7", fig7);
    section!("fig8", || lv_scaling(8, "LV1"));
    section!("fig9", || lv_scaling(9, "LV2"));
    section!("fig10", || lv_scaling(10, "LV3"));
    section!("fig11", fig11);
    section!("fig12", fig12);
    section!("fig13", fig13);
    section!("fig14", fig14);
    if run_all || arg == "ablations" {
        ablate_shared_scan();
        println!();
        ablate_subchunk();
        println!();
        ablate_htm();
        println!();
        ablate_multimaster();
        println!();
        ablate_transfer();
        ran = true;
    }
    if !ran {
        eprintln!("unknown selector {arg:?}; use all | table1 | fig2..fig14 | ablations");
        std::process::exit(2);
    }
}

fn paper() -> SimConfig {
    SimConfig::paper_cluster()
}

fn fmt_series(times: &[f64]) -> String {
    times
        .iter()
        .map(|t| format!("{t:6.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

// ---------------------------------------------------------------------------
// Table 1 — final data release sizing
// ---------------------------------------------------------------------------

fn table1() {
    println!("== Table 1: estimates for LSST's final data release ==");
    println!(
        "{:<14} {:>10} {:>10} {:>14} {:>14}",
        "table", "rows", "row size", "computed", "paper"
    );
    for t in qserv_datagen::estimate::lsst_final_release() {
        println!(
            "{:<14} {:>10.2e} {:>9.0}B {:>13.1}TB {:>13.1}TB",
            t.name,
            t.rows,
            t.row_bytes,
            t.footprint_bytes() / 1e12,
            t.quoted_footprint_bytes / 1e12,
        );
    }
    println!("-- test dataset of §6.1.2 --");
    for t in qserv_datagen::estimate::paper_test_dataset() {
        println!(
            "{:<14} {:>10.2e} {:>9.0}B {:>13.1}TB {:>13.1}TB",
            t.name,
            t.rows,
            t.row_bytes,
            t.footprint_bytes() / 1e12,
            t.quoted_footprint_bytes / 1e12,
        );
    }
}

// ---------------------------------------------------------------------------
// Figures 2–4 — Low Volume latency series
// ---------------------------------------------------------------------------

/// Runs one LV class as the paper did: `runs` series of `execs`
/// executions, with the annotated anomalies injected in the right runs.
fn lv_series(
    label: &str,
    runs: usize,
    execs: usize,
    interference_runs: &[usize],
    cold_run: Option<usize>,
    build: impl Fn(usize, Nuisance) -> Vec<qserv_sim::QueryJob>,
) {
    for run in 1..=runs {
        let mut times = Vec::with_capacity(execs);
        for e in 0..execs {
            let nuisance = Nuisance {
                interference: interference_runs.contains(&run),
                cold_cache_seeks: match cold_run {
                    Some(cr) if run >= cr && e == 0 && run == cr => 480,
                    _ => 0,
                },
            };
            // The paper randomizes the objectId per execution; chunk
            // choice only picks the node here, deterministically varied.
            let chunk = run * 131 + e * 17;
            times.push(wl::run_labeled(&paper(), build(chunk, nuisance), label));
        }
        println!("run{run}: {}", fmt_series(&times));
    }
}

fn fig2() {
    println!("== Figure 2: Low Volume 1 (object retrieval), seconds per execution ==");
    println!("-- paper: ~4 s flat; Runs 1,4 ~9 s (competing tasks); Run 5 first exec ~8 s (cold objectId index)");
    lv_series("LV1", 7, 20, &[1, 4], Some(5), |chunk, n| {
        wl::lv1(150, chunk, n)
    });
}

fn fig3() {
    println!("== Figure 3: Low Volume 2 (time series), seconds per execution ==");
    println!("-- paper: ~4 s flat; Run 1 ~9 s discounted as anomalous");
    lv_series("LV2", 3, 50, &[1], None, |chunk, n| wl::lv2(150, chunk, n));
}

fn fig4() {
    println!("== Figure 4: Low Volume 3 (spatial filter), seconds per execution ==");
    println!("-- paper: ~4 s flat; Run 2 ~9 s discounted as anomalous");
    lv_series("LV3", 4, 17, &[2], None, |chunk, n| wl::lv3(150, chunk, n));
}

// ---------------------------------------------------------------------------
// Figures 5–7 — High Volume latency series
// ---------------------------------------------------------------------------

fn hv_series(
    label: &str,
    runs: usize,
    execs: usize,
    slow_run: Option<usize>,
    job: impl Fn(bool) -> qserv_sim::QueryJob,
) {
    for run in 1..=runs {
        let mut times = Vec::with_capacity(execs);
        for _ in 0..execs {
            let slow = slow_run == Some(run);
            let mut jobs = vec![job(slow)];
            if slow && label == "HV1" {
                // Figure 5's Run 1: competing cluster activity delays a
                // handful of nodes past the dispatch tail.
                for node in 0..8 {
                    jobs.push(wl::background_load(node * 18, 28.0));
                }
            }
            times.push(wl::run_labeled(&paper(), jobs, label));
        }
        println!("run{run}: {}", fmt_series(&times));
    }
}

fn fig5() {
    println!("== Figure 5: High Volume 1 (full-sky count), seconds ==");
    println!("-- paper: 20–30 s; Run 1 slower (interference)");
    hv_series("HV1", 3, 9, Some(1), |_| wl::hv1(150));
}

fn fig6() {
    println!("== Figure 6: High Volume 2 (full-sky filter), seconds ==");
    println!("-- paper: 150–180 s warm cache; Run 3 ~420 s uncached (the honest number)");
    hv_series("HV2", 4, 7, Some(3), |slow| {
        wl::hv2(150, if slow { 0.0 } else { 0.65 })
    });
}

fn fig7() {
    println!("== Figure 7: High Volume 3 (density by chunk), seconds ==");
    println!("-- paper: ~150–250 s; Run 3 ~240 s closer to uncached");
    hv_series("HV3", 4, 7, Some(3), |slow| {
        wl::hv3(150, if slow { 0.3 } else { 0.75 })
    });
}

// ---------------------------------------------------------------------------
// Figures 8–11 — weak scaling
// ---------------------------------------------------------------------------

fn lv_scaling(fignum: usize, label: &str) {
    println!(
        "== Figure {fignum}: {label} mean execution time vs node count (constant data per node) =="
    );
    println!("-- paper: flat ~4 s at 40, 100, 150 nodes");
    for nodes in [40, 100, 150] {
        let cfg = SimConfig::paper_cluster().with_nodes(nodes);
        let mut sum = 0.0;
        let reps = 10;
        for e in 0..reps {
            let chunk = e * 13 + 7;
            let jobs = match label {
                "LV1" => wl::lv1(nodes, chunk, Nuisance::default()),
                "LV2" => wl::lv2(nodes, chunk, Nuisance::default()),
                _ => wl::lv3(nodes, chunk, Nuisance::default()),
            };
            sum += wl::run_labeled(&cfg, jobs, label);
        }
        println!("{nodes:>4} nodes: {:6.2} s", sum / reps as f64);
    }
}

fn fig11() {
    println!("== Figure 11: High Volume query time vs node count (constant data per node) ==");
    println!("-- paper: HV1 linear in chunk count; HV2 ~flat; HV3 trends like HV1 (cached)");
    println!("{:>5} {:>8} {:>8} {:>8}", "nodes", "HV1", "HV2", "HV3");
    for nodes in [40, 100, 150] {
        let cfg = SimConfig::paper_cluster().with_nodes(nodes);
        let t1 = wl::run_single(&cfg, wl::hv1(nodes));
        let t2 = wl::run_single(&cfg, wl::hv2(nodes, 0.65));
        let t3 = wl::run_single(&cfg, wl::hv3(nodes, 0.75));
        println!("{nodes:>5} {t1:>7.1}s {t2:>7.1}s {t3:>7.1}s");
    }
}

fn fig12() {
    println!("== Figure 12: Super High Volume 1 (near neighbour, 100 deg²) vs node count ==");
    println!("-- paper: ~660–800 s, roughly flat (22 chunks spread over the cluster)");
    for nodes in [40, 100, 150] {
        let cfg = SimConfig::paper_cluster().with_nodes(nodes);
        let t = wl::run_single(&cfg, wl::shv1(nodes, 100.0));
        println!("{nodes:>4} nodes: {t:7.1} s");
    }
}

fn fig13() {
    println!("== Figure 13: Super High Volume 2 (Object ⋈ Source, 150 deg²) vs node count ==");
    println!("-- paper: 2.1–5.3 h over three random areas (density-driven variance)");
    for nodes in [40, 100, 150] {
        let cfg = SimConfig::paper_cluster().with_nodes(nodes);
        for density in [0.7, 1.0, 1.8] {
            let t = wl::run_single(&cfg, wl::shv2(nodes, 150.0, density));
            print!("  {:5.2} h", t / 3600.0);
        }
        println!("   ({nodes} nodes; three density factors)");
    }
}

// ---------------------------------------------------------------------------
// Figure 14 — concurrency
// ---------------------------------------------------------------------------

fn fig14() {
    println!("== Figure 14: concurrent execution, 2×HV2 + LV1 stream + LV2 stream (150 nodes) ==");
    println!("-- paper: each HV2 ~2× its solo time (~354 s); early LV queries stuck in worker FIFO queues");
    let solo = wl::run_single(&paper(), wl::hv2(150, 0.65));

    let mut sim = qserv_sim::Simulator::new(paper());
    let mut a = wl::hv2(150, 0.65);
    a.label = "HV2-a".to_string();
    let mut b = wl::hv2(150, 0.65);
    b.label = "HV2-b".to_string();
    b.submit_s = 0.5;
    sim.submit(a);
    sim.submit(b);
    // Low-volume streams: a query every 1 s + think time, as in §6.4.
    for i in 0..15 {
        let mut jobs = wl::lv1(150, 37 + i * 29, Nuisance::default());
        let mut job = jobs.pop().expect("lv1 yields one job");
        job.label = format!("LV1-{i}");
        job.submit_s = 1.0 + i as f64;
        sim.submit(job);
        let mut jobs = wl::lv2(150, 91 + i * 31, Nuisance::default());
        let mut job = jobs.pop().expect("lv2 yields one job");
        job.label = format!("LV2-{i}");
        job.submit_s = 1.5 + i as f64;
        sim.submit(job);
    }
    let reports = sim.run();
    let of = |label: &str| {
        reports
            .iter()
            .find(|r| r.label == label)
            .expect("label exists")
    };
    println!("HV2 solo reference: {solo:.1} s");
    for l in ["HV2-a", "HV2-b"] {
        let r = of(l);
        println!(
            "{l}: submit {:6.1}  first-task {:6.1}  end {:6.1}  elapsed {:6.1} s  ({:.2}× solo)",
            r.submit_s,
            r.first_task_s,
            r.completion_s,
            r.elapsed_s,
            r.elapsed_s / solo
        );
    }
    for stream in ["LV1", "LV2"] {
        print!("{stream} stream elapsed:");
        for i in 0..15 {
            let r = of(&format!("{stream}-{i}"));
            print!(" {:5.1}", r.elapsed_s);
        }
        println!(" s");
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Ablation A (§4.3): shared scanning vs independent scans, k concurrent
/// full-scan queries, in the simulator only. Shared scanning reads each
/// chunk once for the whole convoy; naive execution scans per query.
fn ablate_shared_scan() {
    println!("== Ablation A: shared scanning (§4.3), k concurrent HV2-class scans, 150 nodes ==");
    println!(
        "-- paper's design claim: many scans in \"little more than the time for a single\" scan"
    );
    println!(
        "{:>2}  {:>10}  {:>10}  {:>7}",
        "k", "naive", "shared", "speedup"
    );
    for k in [1usize, 2, 4, 8] {
        // Naive: k uncached scans in flight at once.
        let mut sim = qserv_sim::Simulator::new(paper());
        for i in 0..k {
            let mut j = wl::hv2(150, 0.0);
            j.label = format!("q{i}");
            sim.submit(j);
        }
        let naive = sim
            .run()
            .iter()
            .map(|r| r.completion_s)
            .fold(0.0f64, f64::max);
        // Shared: one convoy pass reads each chunk once; every resident
        // chunk serves all k queries (k× result volume, k× tiny CPU).
        let mut convoy = wl::hv2(150, 0.0);
        for t in &mut convoy.tasks {
            t.result_bytes *= k as u64;
            t.cpu_s += 0.01 * (k as f64 - 1.0);
        }
        let shared = wl::run_single(&paper(), convoy);
        println!(
            "{k:>2}  {naive:>9.1}s  {shared:>9.1}s  {:>6.2}×",
            naive / shared
        );
    }
}

/// Ablation B (§4.4): the O(n²) → O(kn) pair reduction from two-level
/// partitioning, measured on real data via candidate-pair counts.
fn ablate_subchunk() {
    println!(
        "== Ablation B: near-neighbour candidate pairs, chunk-level vs subchunk-level (§4.4) =="
    );
    let patch = qserv_bench::fixtures::bench_patch();
    let chunker = qserv::Chunker::test_small();
    use std::collections::HashMap;
    let mut per_chunk: HashMap<i32, u64> = HashMap::new();
    let mut per_subchunk: HashMap<(i32, i32), u64> = HashMap::new();
    for o in &patch.objects {
        let loc = chunker.locate(&qserv_sphgeom::LonLat::from_degrees(o.ra_ps, o.decl_ps));
        *per_chunk.entry(loc.chunk_id).or_default() += 1;
        *per_subchunk
            .entry((loc.chunk_id, loc.subchunk_id))
            .or_default() += 1;
    }
    let n = patch.objects.len() as u64;
    let naive = n * n;
    let chunk_pairs: u64 = per_chunk.values().map(|c| c * c).sum();
    let sub_pairs: u64 = per_subchunk.values().map(|c| c * c).sum();
    println!("objects: {n}");
    println!("naive O(n²) pairs:        {naive:>14}");
    println!(
        "chunk-level join pairs:   {chunk_pairs:>14}  ({:.1}× fewer)",
        naive as f64 / chunk_pairs as f64
    );
    println!(
        "subchunk-level join pairs:{sub_pairs:>14}  ({:.1}× fewer)",
        naive as f64 / sub_pairs as f64
    );
}

/// Ablation C (§7.5): partition-area uniformity, RA/decl stripes vs HTM.
fn ablate_htm() {
    println!("== Ablation C: partition area variation, stripe chunker vs HTM (§7.5) ==");
    let chunker = qserv::Chunker::paper_default();
    let areas = chunker.chunk_areas_deg2();
    let stats = |areas: &[f64]| {
        let max = areas.iter().cloned().fold(0.0f64, f64::max);
        let min = areas.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = areas.iter().sum::<f64>() / areas.len() as f64;
        (areas.len(), mean, min, max, max / min)
    };
    let (n, mean, min, max, ratio) = stats(&areas);
    println!(
        "stripes (85×12): {n} chunks, mean {mean:.2} deg², min {min:.3}, max {max:.2}, max/min {ratio:.1}"
    );
    // The strawman §7.5 criticizes: a fixed equal-angle RA×decl grid,
    // "problematic due to severe distortion near the poles".
    let mut naive_areas = Vec::new();
    for s in 0..85 {
        let lat0 = -90.0 + s as f64 * (180.0 / 85.0);
        let cell =
            qserv_sphgeom::SphericalBox::from_degrees(0.0, lat0, 180.0 / 85.0, lat0 + 180.0 / 85.0);
        naive_areas.push(cell.area_deg2());
    }
    let (_, mean, min, max, ratio) = stats(&naive_areas);
    println!(
        "naive fixed grid:  85×170 cells, mean {mean:.2} deg², min {min:.3}, max {max:.2}, max/min {ratio:.0}"
    );
    let trixels = qserv_sphgeom::htm::all_trixels(5);
    let sr_to_deg2 = (180.0 / std::f64::consts::PI).powi(2);
    let htm_areas: Vec<f64> = trixels.iter().map(|t| t.area_sr() * sr_to_deg2).collect();
    let (n, mean, min, max, ratio) = stats(&htm_areas);
    println!(
        "HTM level 5:     {n} trixels, mean {mean:.2} deg², min {min:.3}, max {max:.2}, max/min {ratio:.1}"
    );
    println!("-- paper §7.5: the fixed grid distorts near the poles; adaptive stripes and HTM both bound");
    println!("-- the variation, and HTM additionally gives hierarchical integer ids for fine-grained I/O");
}

/// Ablation D (§7.6): single master vs M load-balanced masters, HV1-class
/// dispatch at full scale.
fn ablate_multimaster() {
    println!("== Ablation D: multi-master dispatch (§7.6), full-sky HV1 at 150 nodes ==");
    println!("-- paper: \"launch multiple master instances … load-balance between different Qserv masters\"");
    for masters in [1usize, 2, 4, 8] {
        // M masters dispatch disjoint chunk subsets concurrently: the
        // serial dispatch resource is M× wider.
        let mut cfg = paper();
        cfg.dispatch_s_per_chunk /= masters as f64;
        cfg.merge_s_per_chunk /= masters as f64;
        let t = wl::run_single(&cfg, wl::hv1(150));
        println!("{masters:>2} master(s): {t:6.1} s");
    }
}

/// Ablation E (§7.1): the mysqldump text transfer the paper calls out,
/// against the checksummed column-page frames results travel as here,
/// measured on real result tables.
fn ablate_transfer() {
    println!("== Ablation E: mysqldump text vs result frames (§5.4, §7.1) ==");
    let q = qserv_bench::fixtures::bench_cluster();
    let (result, stats) = q
        .query_with_stats(qserv_bench::fixtures::queries::HV2)
        .expect("HV2 runs");
    let rows = result.num_rows();
    let dump_bytes = qserv_engine::dump::dump_table("result", &result.into_table()).len() as u64;
    println!(
        "HV2 result: {rows} rows; dump text {dump_bytes} B vs {} B of result frames \
         from {} chunks ({:.1}× smaller)",
        stats.result_bytes,
        stats.chunks_dispatched,
        dump_bytes as f64 / stats.result_bytes.max(1) as f64
    );
}

//! Query-trace demo: run a distributed query under a structured trace
//! and dump the span tree as JSON — proxy-to-merge observability over
//! the same pipeline `query()` uses. A second run binds the cluster to
//! a virtual clock and injects 2-second fabric delays to show latency
//! being billed in virtual time with zero wall-clock sleeping.
//!
//! ```sh
//! cargo run --release --example trace_demo
//! cargo run --release --example trace_demo -- "SELECT COUNT(*) FROM Source"
//! cargo run --release --example trace_demo -- --out /tmp/trace.json
//! ```

use qserv::{Clock, ClusterBuilder, FabricOp, FaultPlan, VirtualClock};
use qserv_datagen::generate::{CatalogConfig, Patch};
use std::time::Duration;

fn main() {
    let mut sql =
        "SELECT count(*) AS n, chunkId FROM Object GROUP BY chunkId ORDER BY chunkId".to_string();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out = Some(args.next().expect("--out needs a path"));
        } else {
            sql = arg;
        }
    }
    let patch = Patch::generate(&CatalogConfig::small(1500, 7));

    println!("== traced query ==\n{sql}\n");
    let q = ClusterBuilder::new(4)
        .replication(2)
        .build(&patch.objects, &patch.sources);
    let traced = q.query_traced(&sql).expect("traced query");
    traced.trace.validate().expect("well-formed trace");
    println!("{}", traced.trace.to_json_pretty());
    println!(
        "\n{} rows; {} chunks dispatched, {} retried; {} spans recorded",
        traced.rows.num_rows(),
        traced.stats.chunks_dispatched,
        traced.stats.chunks_retried,
        traced.trace.spans().len(),
    );
    println!("metrics: {}", traced.metrics.to_json());
    if let Some(path) = &out {
        std::fs::write(path, traced.trace.to_json()).expect("write trace JSON");
        println!("trace written to {path}");
    }

    // The same trace machinery under a virtual clock: every fabric write
    // pays a 2 s injected delay, billed to the shared timeline instead
    // of a sleeping thread.
    println!("\n== virtual-clock run: 2 s delay on every fabric write ==");
    let vclock = VirtualClock::shared();
    let chaotic = ClusterBuilder::new(4)
        .replication(2)
        .fault_plan(FaultPlan::new(42))
        .clock(vclock.clone())
        .build(&patch.objects, &patch.sources);
    chaotic
        .cluster()
        .faults()
        .delay(None, Some(FabricOp::Write), Duration::from_secs(2));
    let wall = std::time::Instant::now();
    let t = chaotic.query_traced(&sql).expect("delayed query");
    assert_eq!(t.rows.rows, traced.rows.rows, "delays must not change rows");
    let slowest = t
        .trace
        .spans()
        .into_iter()
        .filter(|s| s.name == "bundle")
        .map(|s| s.duration_ns())
        .max()
        .unwrap_or(0);
    println!(
        "virtual time billed: {:.1} s; slowest bundle {:.1} s; wall time {:?}",
        vclock.now().as_secs_f64(),
        slowest as f64 / 1e9,
        wall.elapsed(),
    );
}

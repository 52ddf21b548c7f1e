//! The repo's end-to-end benchmark: the paper's query classes through
//! the TCP proxy, with an outside-in layer budget.
//!
//! ```text
//! e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! e2e --repeat <N> [--workload <name>] [--seed <n>] [--seconds <s>]   steadiness of the end-to-end metrics
//! e2e --smoke                                     every workload at 1/10 scale for 1 s
//! e2e --print-benchmark-json [--seconds <s>]      the content of BENCHMARK.json
//! ```
//!
//! A run starts an in-process cluster behind the query service behind
//! the proxy (all defaults), checks one round of every statement
//! template against a single-node engine oracle, drives the proxy over
//! loopback TCP from closed-loop client threads, checks every answer,
//! and prints one JSON object as the last line of standard output. See
//! `README.md` beside this file for the metric and workload definitions.

mod api;
mod catalog;
mod drive;
mod layers;
mod report;
mod spans;
mod stats;
mod window;
mod workloads;

use api::{Client, Stack, Value};
use catalog::Catalog;
use drive::ClientRun;
use layers::Observed;
use report::{Outcome, RunRecord, END_TO_END};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use window::Window;
use workloads::{Rng, Scale, Workload, WORKLOADS};

/// The measured window the contract asks for (`run_seconds`).
const DEFAULT_SECONDS: u64 = 10;
/// Where run records, trace files and the cold catalog's files go,
/// relative to the working directory (the root of the checkout).
const OUT_DIR: &str = "target/e2e";
/// A run that has not finished by then is aborted with a non-zero exit
/// code and no result line, inside the contract's 180 s limit.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Config {
    workload: &'static Workload,
    seed: u64,
    /// Measured window of a timed run.
    window: Duration,
    warmup: Duration,
    trace: bool,
    /// Catalog size relative to the stated scale (1.0 except in smoke).
    scale: f64,
    /// Set-ups per timed run; `setup_s` is their median.
    setup_repetitions: usize,
    /// Share of each round's `replay_rounds` the traced pass replays.
    replay_scale: f64,
}

impl Config {
    fn full(workload: &'static Workload, seed: u64, seconds: u64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            window: Duration::from_secs(seconds),
            warmup: Duration::from_secs(2).min(Duration::from_secs(seconds) / 4),
            trace,
            scale: 1.0,
            setup_repetitions: 5,
            replay_scale: 1.0,
        }
    }

    /// The untraced window: all of `--seconds` in a timed run, half of
    /// it in a traced run, whose other half goes to the replay.
    fn measured_window(&self) -> Duration {
        if self.trace {
            self.window / 2
        } else {
            self.window
        }
    }

    fn objects(&self) -> usize {
        ((self.workload.scale.objects() as f64 * self.scale) as usize).max(500)
    }
}

/// One set-up: generate the catalog, build the cluster, start service
/// and proxy. Returns the running stack and the generated rows.
fn set_up(cfg: &Config, store: Option<&Path>) -> Result<(Stack, api::Patch, Duration), String> {
    let start = Instant::now();
    let patch = api::generate_catalog(cfg.objects(), cfg.seed);
    let stack = Stack::start(&patch, store)?;
    Ok((stack, patch, start.elapsed()))
}

/// Order of values for the row-multiset comparison: by kind, then by
/// value (numbers numerically).
fn cmp_value(a: &Value, b: &Value) -> std::cmp::Ordering {
    fn num(v: &Value) -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
    match (a, b) {
        (Value::Null, Value::Null) => std::cmp::Ordering::Equal,
        (Value::Null, _) => std::cmp::Ordering::Less,
        (_, Value::Null) => std::cmp::Ordering::Greater,
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Str(_), _) => std::cmp::Ordering::Greater,
        (_, Value::Str(_)) => std::cmp::Ordering::Less,
        _ => num(a)
            .unwrap_or(f64::NAN)
            .total_cmp(&num(b).unwrap_or(f64::NAN)),
    }
}

/// Equality of two values up to the rounding that distributed
/// summation order causes (AVG over chunks vs over one table).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => *i as f64 == *f,
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => false,
    }
}

/// Row-multiset equality of two results.
fn same_rows(got: &api::ResultTable, want: &api::ResultTable) -> Result<(), String> {
    if got.rows.len() != want.rows.len() {
        return Err(format!(
            "{} rows, the oracle has {}",
            got.rows.len(),
            want.rows.len()
        ));
    }
    fn sort(t: &api::ResultTable) -> Vec<&Vec<Value>> {
        let mut rows: Vec<&Vec<Value>> = t.rows.iter().collect();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| cmp_value(x, y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }
    for (i, (g, w)) in sort(got).into_iter().zip(sort(want)).enumerate() {
        if g.len() != w.len() || !g.iter().zip(w).all(|(x, y)| same_value(x, y)) {
            return Err(format!("sorted row {i} is {g:?}, the oracle has {w:?}"));
        }
    }
    Ok(())
}

/// Before timing: one round of every statement template through the
/// proxy, compared row for row with the single-node engine over the
/// unpartitioned rows, and with the precomputed expected answer.
fn oracle_check(stack: &Stack, cat: &Catalog, cfg: &Config) -> Result<(u64, Vec<String>), String> {
    let oracle = api::engine_db(
        "Object",
        "Source",
        cat.objects().iter(),
        cat.patch.sources.iter(),
        &cat.locs,
    );
    let mut client = Client::connect(stack.addr())?;
    let mut kinds = cfg.workload.clients.to_vec();
    kinds.dedup();
    let mut checked = 0;
    let mut failures = Vec::new();
    for kind in kinds {
        let mut rng = Rng::new(cfg.seed ^ 0x0bac1e);
        for stmt in kind.draw(cat, &mut rng) {
            checked += 1;
            let outcome = drive::send(&mut client, &stmt).and_then(|answer| {
                drive::check(&stmt, &answer)?;
                let want = api::engine_query(&oracle, stmt.oracle_sql())?;
                same_rows(&answer.table, &want)
                    .map_err(|e| format!("{}: {e}: {}", stmt.class.name(), stmt.sql))
            });
            if let Err(e) = outcome {
                failures.push(format!("oracle check: {e}"));
            }
        }
    }
    Ok((checked, failures))
}

/// `(name, value, unit)`.
type Metric = (String, f64, &'static str);
/// Named numbers recorded beside the metrics (sample counts and the
/// timings that carry no bound).
type Counts = Vec<(String, f64)>;

/// The end-to-end metrics of one measured window, and the counts and
/// unbounded timings recorded beside them.
fn end_to_end(
    runs: &[ClientRun],
    setup_s: f64,
    stored_bytes: u64,
    stored_rows: u64,
) -> Result<(Vec<Metric>, Counts), String> {
    let w = Window(runs);
    if w.statements() == 0 {
        return Err("the window measured no statement".to_string());
    }
    let mut metrics = Vec::new();
    for m in &END_TO_END {
        let value = match m.name {
            "setup_s" => setup_s,
            "lat_p50_ms" => w.lat_p50_ms(),
            "qps" => w.qps(),
            "result_rows_per_s" => w.result_rows_per_s(),
            "lv_lat_p50_ms" => w.lv_lat_p50_ms(),
            "scan_qps" => w.scan_qps(),
            "peak_rss_mb" => report::peak_rss_mb(),
            "disk_bytes_per_row" => stored_bytes as f64 / stored_rows.max(1) as f64,
            other => return Err(format!("no definition for metric {other}")),
        };
        metrics.push((m.name.to_string(), value, m.unit));
    }
    // Beside the bounded metrics: the tails and the time to first row,
    // which this machine cannot hold to any bound (see the README).
    let (tail, lv_tail) = (w.lat_p95(), w.lv_lat_p95());
    let counts = vec![
        ("statements".to_string(), tail.samples as f64),
        ("lookup_statements".to_string(), lv_tail.samples as f64),
        (
            "streamed_statements".to_string(),
            w.streamed_statements() as f64,
        ),
        ("lat_p95_ms".to_string(), tail.ms),
        (
            "lat_p95_ms.percentile_used".to_string(),
            tail.percentile_used,
        ),
        ("lv_lat_p95_ms".to_string(), lv_tail.ms),
        (
            "lv_lat_p95_ms.percentile_used".to_string(),
            lv_tail.percentile_used,
        ),
        ("ttfr_p50_ms".to_string(), w.ttfr_p50_ms()),
    ];
    Ok((metrics, counts))
}

/// Runs the measured window while sampling the service's own view of
/// queue waits (a traced run only: the sampling perturbs the window).
fn observed_window(stack: &Stack, cat: &Catalog, cfg: &Config, window: Duration) -> Observed {
    let mut waits = std::collections::HashMap::new();
    let runs = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            drive::run_window(
                stack.addr(),
                cat,
                cfg.workload.clients,
                cfg.seed,
                cfg.warmup,
                window,
            )
        });
        while !handle.is_finished() {
            std::thread::sleep(Duration::from_millis(100));
            for (qid, class, wait) in stack.service_view().1 {
                waits.insert(qid, (class, wait));
            }
        }
        handle.join().expect("window thread does not panic")
    });
    Observed {
        runs,
        waits,
        rejected: stack.service_view().0,
    }
}

/// One full run of one workload.
fn run(cfg: &Config) -> Result<(Outcome, RunRecord), String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let cold = cfg.workload.scale == Scale::Cold;
    let store_dir = |rep: usize| {
        cold.then(|| {
            out_dir.join(format!(
                "{}-store-{}-{rep}",
                cfg.workload.name,
                std::process::id()
            ))
        })
    };

    // Set up several times and keep the last one running; `setup_s` is
    // the median, so one slow set-up does not move it.
    let repetitions = if cfg.trace { 1 } else { cfg.setup_repetitions };
    let mut setup_times = Vec::new();
    let mut running = None;
    for rep in 0..repetitions {
        if let Some((stack, _, dir)) = running.take() {
            tear_down(stack, dir);
        }
        let dir = store_dir(rep);
        let (stack, patch, took) = set_up(cfg, dir.as_deref())?;
        eprintln!(
            "set-up {}/{repetitions}: {:.3} s ({} objects, {} sources, {} chunks)",
            rep + 1,
            took.as_secs_f64(),
            patch.objects.len(),
            patch.sources.len(),
            stack.chunk_count()
        );
        setup_times.push(took.as_secs_f64());
        running = Some((stack, patch, dir));
    }
    let (stack, patch, dir) = running.expect("at least one set-up");
    let setup_s = stats::median(&setup_times).expect("at least one set-up");
    let cat = Catalog::new(patch);

    let result = measure(cfg, &stack, &cat, dir.as_deref(), setup_s, &out_dir);
    let chunks = stack.chunk_count();
    tear_down(stack, dir);
    let (outcome, sample_counts) = result?;

    let record = RunRecord {
        workload: cfg.workload.name.to_string(),
        seed: cfg.seed,
        scale: format!("{} x {}", cfg.workload.scale.name(), cfg.scale),
        objects: cat.objects().len(),
        sources: cat.patch.sources.len(),
        chunks,
        workers: api::WORKERS,
        clients: cfg.workload.clients.len(),
        warmup_s: cfg.warmup.as_secs_f64(),
        window_s: cfg.measured_window().as_secs_f64(),
        setup_repetitions: repetitions,
        traced: cfg.trace,
        sample_counts,
    };
    let record_path = out_dir.join(format!(
        "{}.{}.json",
        cfg.workload.name,
        if cfg.trace { "layers" } else { "result" }
    ));
    std::fs::write(&record_path, record.to_json(&outcome))
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    Ok((outcome, record))
}

/// Stops a stack and removes the cold catalog's files.
fn tear_down(stack: Stack, dir: Option<PathBuf>) {
    stack.shutdown();
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Oracle check, measured window and (traced runs) the replay.
fn measure(
    cfg: &Config,
    stack: &Stack,
    cat: &Catalog,
    store: Option<&Path>,
    setup_s: f64,
    out_dir: &Path,
) -> Result<(Outcome, Counts), String> {
    let (mut attempted, mut failures) = oracle_check(stack, cat, cfg)?;
    let mut failed = failures.len() as u64;
    let mut tally = |runs: &[ClientRun]| {
        for r in runs {
            attempted += r.attempted;
            failed += r.failed;
            failures.extend(r.failures.iter().cloned());
        }
    };

    let (metrics, counts);
    if cfg.trace {
        // Half the window untraced for the class medians and the
        // end-to-end side of the budget, then the replay.
        let observed = observed_window(stack, cat, cfg, cfg.measured_window());
        tally(&observed.runs);
        let traced = layers::trace_pass(
            stack,
            cat,
            cfg.workload,
            store,
            cfg.seed,
            cfg.replay_scale,
            &observed,
        )?;
        attempted += traced.replayed;
        failed += traced.failures.len() as u64;
        failures.extend(traced.failures);
        let trace_path = out_dir.join(format!("{}.trace.json", cfg.workload.name));
        std::fs::write(&trace_path, &traced.spans_json)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let mut values = traced.metrics;
        values.insert(
            "failed_share".to_string(),
            100.0 * failed as f64 / attempted.max(1) as f64,
        );
        let mut listed = Vec::new();
        for layer in report::per_layer() {
            let v = values
                .get(&layer.name)
                .copied()
                .ok_or_else(|| format!("the traced pass produced no {}", layer.name))?;
            listed.push((layer.name, v, layer.unit));
        }
        metrics = listed;
        // `replay.statements` and `window.statements` are metrics here.
        counts = Vec::new();
    } else {
        let runs = drive::run_window(
            stack.addr(),
            cat,
            cfg.workload.clients,
            cfg.seed,
            cfg.warmup,
            cfg.measured_window(),
        );
        tally(&runs);
        (metrics, counts) = end_to_end(&runs, setup_s, stack.stored_bytes()?, cat.stored_rows())?;
    }
    for f in failures.iter().take(10) {
        eprintln!("FAILED: {f}");
    }
    let outcome = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    };
    Ok((outcome, counts))
}

/// Prints every metric by name with its unit, for people.
fn print_table(workload: &str, outcome: &Outcome, record: &RunRecord) {
    eprintln!(
        "\n{workload}: {} attempted, {} failed, correct = {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<34} {value:>16.4} {unit}");
    }
    for (name, value) in &record.sample_counts {
        eprintln!("  ({name} = {value})");
    }
}

/// `--smoke`: every workload, timed and traced, at a fraction of the
/// scale for a fraction of the window. Exercises the whole path; the
/// numbers mean nothing. Returns the failures.
fn smoke(scale: f64, window: Duration) -> Vec<String> {
    let mut problems = Vec::new();
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 1,
                window,
                warmup: window / 5,
                trace,
                scale,
                setup_repetitions: 1,
                replay_scale: 0.0,
            };
            match run(&cfg) {
                Ok((outcome, record)) => {
                    print_table(workload.name, &outcome, &record);
                    if !outcome.correct {
                        problems.push(format!(
                            "{} (trace {trace}): {} of {} failed",
                            workload.name, outcome.failed, outcome.attempted
                        ));
                    }
                }
                Err(e) => problems.push(format!("{} (trace {trace}): {e}", workload.name)),
            }
        }
    }
    problems
}

/// `--repeat N`: N runs of every workload (or the one named) as child processes (so peak
/// memory is per run), seeds `seed … seed+N−1`, then per workload and
/// end-to-end metric the median, quartiles, the driver's spread (IQR ÷
/// median) and the largest relative deviation from the median, against
/// the metric's bound.
fn repeat(n: usize, only: Option<&Workload>, seed: u64, seconds: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_within = true;
    println!(
        "{:<10} {:<20} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "max dev", "bound"
    );
    for workload in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        let mut values: Vec<std::collections::BTreeMap<String, f64>> = Vec::new();
        for i in 0..n {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload.name])
                .args(["--seed", &(seed + i as u64).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", "0"])
                .stderr(std::process::Stdio::null())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            if !out.status.success() || !line.contains("\"correct\": true") {
                return Err(format!(
                    "{} seed {} failed: exit {:?}, last line {line:?}",
                    workload.name,
                    seed + i as u64,
                    out.status.code()
                ));
            }
            values.push(Outcome::parse_metrics(line));
        }
        for m in &END_TO_END {
            let v: Vec<f64> = values
                .iter()
                .filter_map(|r| r.get(m.name).copied())
                .collect();
            let Some([q1, median, q3]) = stats::quartiles(&v) else {
                println!(
                    "{:<10} {:<20} needs at least two runs",
                    workload.name, m.name
                );
                continue;
            };
            let spread = stats::iqr_share(&v).unwrap_or(0.0);
            let max_dev = v
                .iter()
                .map(|x| (x - median).abs() / median.abs().max(f64::MIN_POSITIVE))
                .fold(0.0, f64::max);
            // The driver accepts a spread within the bound (set-up time is
            // exempt); a third of the bound is the target.
            let verdict = if m.name == "setup_s" || spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound"
            } else {
                all_within = false;
                "TOO NOISY"
            };
            println!(
                "{:<10} {:<20} {q1:>12.4} {median:>12.4} {q3:>12.4} {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                workload.name,
                m.name,
                100.0 * spread,
                100.0 * max_dev,
                100.0 * m.bound
            );
        }
    }
    Ok(all_within)
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]\n       \
         e2e --repeat <N> [--workload <name>] [--seed <n>] [--seconds <s>]\n       \
         e2e --smoke\n       \
         e2e --print-benchmark-json [--seconds <s>]",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut repeat_n = None;
    let mut smoke_mode = false;
    let mut print_json = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                workload = Some(workloads::find(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                }));
            }
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--repeat" => repeat_n = Some(value("--repeat").parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                // `--trace 0|1` as the driver passes it; a bare `--trace`
                // means 1.
                trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke_mode = true,
            "--print-benchmark-json" => print_json = true,
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    if seconds == 0 || seconds > 60 {
        eprintln!("--seconds must be 1..=60");
        usage();
    }

    if print_json {
        print!("{}", report::benchmark_json(seconds));
        return;
    }
    if smoke_mode {
        let problems = smoke(0.1, Duration::from_secs(1));
        for p in &problems {
            eprintln!("SMOKE FAILED: {p}");
        }
        std::process::exit(if problems.is_empty() { 0 } else { 1 });
    }
    if let Some(n) = repeat_n {
        match repeat(n, workload, seed, seconds) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    let Some(workload) = workload else { usage() };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: the run did not finish in {WATCHDOG:?}");
        std::process::exit(3);
    });
    let cfg = Config::full(workload, seed, seconds, trace);
    match run(&cfg) {
        Ok((outcome, record)) => {
            print_table(workload.name, &outcome, &record);
            println!("{}", outcome.to_json());
            // Wrong answers are a failed run at any commit.
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole path — set-up, oracle check, closed loop, traced replay,
    /// cold catalog on disk — at a scale a debug build runs in seconds.
    #[test]
    fn smoke_runs_every_workload() {
        let problems = smoke(0.02, Duration::from_millis(300));
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn row_multisets_compare_with_rounding_tolerance() {
        let t = |rows: Vec<Vec<Value>>| api::ResultTable {
            columns: vec!["a".into(), "b".into()],
            rows,
        };
        let a = t(vec![
            vec![Value::Int(2), Value::Float(1.0)],
            vec![Value::Int(1), Value::Float(3.0)],
        ]);
        let b = t(vec![
            vec![Value::Int(1), Value::Float(3.0 + 1e-12)],
            vec![Value::Int(2), Value::Float(1.0)],
        ]);
        assert!(same_rows(&a, &b).is_ok());
        let c = t(vec![
            vec![Value::Int(1), Value::Float(3.1)],
            vec![Value::Int(2), Value::Float(1.0)],
        ]);
        assert!(same_rows(&a, &c).is_err());
        assert!(same_rows(&a, &t(vec![])).is_err());
    }
}

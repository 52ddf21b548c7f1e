//! The traced pass: the per-layer numbers, from the benchmark's own
//! spans around calls into each layer's public functions.
//!
//! A seeded sample of rounds is replayed on one thread. Each statement
//! is first sent through every enclosing entry point (proxy, service,
//! master, master with the product's tracing on), then taken apart stage
//! by stage with the benchmark acting as the master: parse → analyse →
//! plan → explain → per chunk (render → fabric round trip → worker →
//! engine → dump encode → dump decode → fold) → finish → row
//! encode/decode.

use crate::api::{self, Client, Database, JoinClass, QueryClass, Stack};
use crate::catalog::Catalog;
use crate::drive::{self, ClientRun};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::window::Window;
use crate::workloads::{Class, Rng, Stmt, Workload};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Duration;

/// What one replayed statement cost, layer by layer: times in ns summed
/// over the statement's chunks, counts as counted.
#[derive(Default)]
struct Replay {
    chunks: f64,
    proxy: f64,
    service: f64,
    master: f64,
    master_traced: f64,
    parse: f64,
    analyze: f64,
    build_plan: f64,
    explain: f64,
    render: f64,
    roundtrip: f64,
    worker: f64,
    /// The worker's own statements run on the bare engine; `None` for
    /// joins, whose on-demand tables only the worker can build.
    engine: Option<f64>,
    /// Rows of the chunk tables the engine scanned; `None` for index
    /// probes and joins.
    engine_scan_rows: Option<f64>,
    /// Cold catalog, first chunk: the scan paged off disk, and the same
    /// scan over the chunk decoded beforehand.
    paged_first: Option<f64>,
    decoded_first: Option<f64>,
    dump_encode: f64,
    dump_decode: f64,
    fold: f64,
    finish: f64,
    row_encode: f64,
    row_decode: f64,
    dump_bytes: f64,
    part_rows: f64,
    result_rows: f64,
    pages_scanned: f64,
    pages_pruned: f64,
    tables_built: f64,
    worker_statements: f64,
    vectorized: f64,
    chunks_pruned: f64,
    result_bytes: f64,
    peak_buffered: f64,
}

impl Replay {
    /// `Qserv::explain` parses, analyses and plans again inside; what is
    /// left is the planner (chunk selection, costing) and one render.
    fn planner_self(&self) -> f64 {
        (self.explain - self.parse - self.analyze - self.build_plan).max(0.0)
    }

    /// Fabric time that is not the worker running the statement and
    /// dumping its result inside the write transaction.
    fn fabric_overhead(&self) -> f64 {
        self.roundtrip - self.worker - self.dump_encode
    }

    /// The master's own serial path: what one thread would spend between
    /// receiving the SQL and holding the merged rows.
    fn serial_work(&self) -> f64 {
        self.parse
            + self.analyze
            + self.build_plan
            + self.planner_self()
            + self.render
            + self.roundtrip
            + self.dump_decode
            + self.fold
            + self.finish
    }

    /// Per-row cost of the proxy's `ROWS` frames (encode at the server,
    /// decode at the client), measured on the merged rows.
    fn row_frames(&self) -> f64 {
        self.row_encode + self.row_decode
    }

    // The serial path cut into the six groups of the README's budget.

    /// Proxy framing (less its per-row part), service admission, parse,
    /// analysis, planning.
    fn frontend(&self) -> f64 {
        ((self.proxy - self.service) - self.row_frames()).max(0.0)
            + (self.service - self.master)
            + self.parse
            + self.analyze
            + self.build_plan
            + self.planner_self()
    }

    /// Chunk-message rendering and the fabric's own share of the round
    /// trips.
    fn dispatch(&self) -> f64 {
        self.render + self.fabric_overhead()
    }

    /// What the worker adds around the engine: message parse, database
    /// snapshot, on-demand table build. For joins the engine cannot be
    /// run apart, so the whole worker time lands here.
    fn worker_glue(&self) -> f64 {
        self.worker - self.engine.unwrap_or(0.0)
    }

    /// Share of the engine's time that is page decode (cold catalog).
    fn decode_share(&self) -> f64 {
        match (self.paged_first, self.decoded_first) {
            (Some(paged), Some(decoded)) if paged > 0.0 => ((paged - decoded) / paged).max(0.0),
            _ => 0.0,
        }
    }

    fn kernels(&self) -> f64 {
        self.engine.unwrap_or(0.0) * (1.0 - self.decode_share())
    }

    fn page_decode(&self) -> f64 {
        self.engine.unwrap_or(0.0) * self.decode_share()
    }

    /// Result path: dump encode, dump decode, merge, `ROWS` frames.
    fn results(&self) -> f64 {
        self.dump_encode + self.dump_decode + self.fold + self.finish + self.row_frames()
    }
}

/// The budget's groups: name, metric, how to read it off a replay.
type Group = (&'static str, &'static str, fn(&Replay) -> f64);
const GROUPS: [Group; 6] = [
    ("front end", "budget.frontend_ms", Replay::frontend),
    ("dispatch + fabric", "budget.dispatch_ms", Replay::dispatch),
    (
        "worker build + join",
        "budget.worker_ms",
        Replay::worker_glue,
    ),
    ("engine kernels", "budget.kernels_ms", Replay::kernels),
    (
        "storage page decode",
        "budget.page_decode_ms",
        Replay::page_decode,
    ),
    (
        "dump + merge + row frames",
        "budget.results_ms",
        Replay::results,
    ),
];

/// One chunk's objects (and through them sources) as engine tables named
/// like the worker's chunk tables.
fn chunk_db(cat: &Catalog, chunk: i32) -> Database {
    let members = cat.objects_of_chunk(chunk);
    api::engine_db(
        &format!("Object_{chunk}"),
        &format!("Source_{chunk}"),
        members.iter().map(|&i| &cat.objects()[i as usize]),
        members.iter().flat_map(|&i| cat.sources_of(i as usize)),
        &cat.locs,
    )
}

struct Replayer<'a> {
    stack: &'a Stack,
    cat: &'a Catalog,
    client: Client,
    rec: Recorder,
    /// Engine databases for the bare-engine measurement: every `.qchunk`
    /// attached cold, or per-chunk tables built on first use.
    storage_dir: Option<&'a Path>,
    stored: Option<Database>,
    chunk_dbs: HashMap<i32, Database>,
    message_id: u64,
}

impl Replayer<'_> {
    fn replay(&mut self, stmt: &Stmt) -> Result<Replay, String> {
        let stack = self.stack;
        let sql = stmt.sql.as_str();
        let mut r = Replay::default();

        // The enclosing entry points, outermost first.
        let (answer, ns) = self
            .rec
            .time("proxy.query", || drive::send(&mut self.client, stmt));
        drive::check(stmt, &answer?)?;
        r.proxy = ns as f64;
        let (reply, ns) = self
            .rec
            .time("service.submit_wait", || api::service_query(stack, sql));
        reply?;
        r.service = ns as f64;
        let (reply, ns) = self
            .rec
            .time("master.query", || api::master_query(stack, sql));
        let (_, qstats) = reply?;
        r.master = ns as f64;
        r.chunks_pruned = qstats.chunks_pruned as f64;
        r.result_bytes = qstats.result_bytes as f64;
        r.peak_buffered = qstats.peak_buffered_parts as f64;
        let (reply, ns) = self.rec.time("master.query_traced", || {
            api::master_query_traced(stack, sql)
        });
        reply?;
        r.master_traced = ns as f64;

        // The stages, the benchmark acting as the master.
        let (parsed, ns) = self.rec.time("sqlparse.parse", || api::parse(sql));
        let parsed = parsed?;
        r.parse = ns as f64;
        let (analysis, ns) = self
            .rec
            .time("analysis.analyze", || api::analyze(stack, &parsed));
        let analysis = analysis?;
        r.analyze = ns as f64;
        let (plan, ns) = self
            .rec
            .time("rewrite.build_plan", || api::build_plan(stack, &analysis));
        let plan = plan?;
        r.build_plan = ns as f64;
        let (chunks, ns) = self
            .rec
            .time("planner.explain", || api::explain_chunks(stack, sql));
        let chunks = chunks?;
        r.explain = ns as f64;
        r.chunks = chunks.len() as f64;

        let mut merger = api::merger(&plan);
        for (seq, &chunk) in chunks.iter().enumerate() {
            let subchunks = api::subchunks(stack, &plan, chunk);
            let (message, ns) = self.rec.time("rewrite.render", || {
                api::render_chunk_message(stack, &plan, chunk, &subchunks)
            });
            r.render += ns as f64;
            // Like the master, tag the message so its result path is unique.
            self.message_id += 1;
            let message = format!("-- QID: e2e-{}\n{message}", self.message_id);

            let (payload, ns) = self.rec.time("xrd.roundtrip", || {
                api::xrd_transaction(stack, chunk, &message)
            });
            payload?;
            r.roundtrip += ns as f64;

            let before = stack.worker_counters();
            let (part, ns) = self.rec.time("worker.exec", || {
                api::worker_execute(stack, chunk, &message)
            });
            let (part, scan) = part?;
            let after = stack.worker_counters();
            r.worker += ns as f64;
            r.worker_statements += (after.0 - before.0) as f64;
            r.vectorized += (after.1 - before.1) as f64;
            r.tables_built += (after.2 - before.2) as f64;
            r.pages_scanned += scan.pages_scanned as f64;
            r.pages_pruned += scan.pages_pruned as f64;
            if plan.join == JoinClass::None {
                self.engine_direct(stmt.class, chunk, seq == 0, &message, &mut r)?;
            }

            let (text, ns) = self.rec.time("dump.encode", || api::dump_table(&part));
            r.dump_encode += ns as f64;
            r.dump_bytes += text.len() as f64;
            r.part_rows += api::table_rows(&part) as f64;
            let (loaded, ns) = self.rec.time("dump.decode", || api::load_dump(&text));
            let loaded = loaded?;
            r.dump_decode += ns as f64;
            let (folded, ns) = self
                .rec
                .time("merge.fold", || api::merge_fold(&mut merger, seq, loaded));
            folded?;
            r.fold += ns as f64;
        }
        let (result, ns) = self.rec.time("merge.finish", || api::merge_finish(merger));
        let result = result?;
        r.finish = ns as f64;
        r.result_rows = result.rows.len() as f64;
        if result.rows.len() as u64 != stmt.expect.rows {
            return Err(format!(
                "{}: the staged replay merged {} rows, expected {}",
                stmt.class.name(),
                result.rows.len(),
                stmt.expect.rows
            ));
        }
        let (cells, ns) = self
            .rec
            .time("proxy.encode_rows", || api::proxy_encode(&result));
        r.row_encode = ns as f64;
        let (decoded, ns) = self
            .rec
            .time("proxy.decode_rows", || api::proxy_decode(&cells));
        decoded?;
        r.row_decode = ns as f64;
        Ok(r)
    }

    /// `engine::execute_detailed` on the chunk's own tables, with the
    /// very statements the worker ran.
    fn engine_direct(
        &mut self,
        class: Class,
        chunk: i32,
        first: bool,
        message: &str,
        r: &mut Replay,
    ) -> Result<(), String> {
        let statements = api::message_statements(message)?;
        let run_on = |db: &Database| {
            statements
                .iter()
                .try_for_each(|s| api::engine_execute(db, s).map(|_| ()))
        };
        let cat = self.cat;
        let db = match &self.stored {
            Some(db) => db,
            None => self
                .chunk_dbs
                .entry(chunk)
                .or_insert_with(|| chunk_db(cat, chunk)),
        };
        let (done, ns) = self.rec.time("engine.exec", || run_on(db));
        done?;
        *r.engine.get_or_insert(0.0) += ns as f64;
        // Never divide an index probe by table size: only classes that
        // read the whole chunk table get a scan rate.
        if !matches!(class, Class::Lv1 | Class::Lv2) {
            let members = cat.objects_of_chunk(chunk);
            let rows: usize = if class == Class::Hvs {
                members
                    .iter()
                    .map(|&i| cat.sources_of(i as usize).len())
                    .sum()
            } else {
                members.len()
            };
            *r.engine_scan_rows.get_or_insert(0.0) += rows as f64;
        }
        // Page decode against kernels, on the statement's first chunk.
        if let (true, Some(dir)) = (first, self.storage_dir) {
            let decoded = api::decoded_db(dir, chunk)?;
            let (done, decoded_ns) = self.rec.time("engine.exec_decoded", || run_on(&decoded));
            done?;
            r.paged_first = Some(ns as f64);
            r.decoded_first = Some(decoded_ns as f64);
        }
        Ok(())
    }
}

/// Mean over statement classes of the class median of `f` — the same
/// pooling the end-to-end `lat_p50_ms` uses, so the two can be compared.
fn typical(replays: &[(Class, Replay)], f: impl Fn(&Replay) -> Option<f64>) -> f64 {
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for (class, r) in replays {
        if let Some(v) = f(r) {
            by_class.entry(*class).or_default().push(v);
        }
    }
    let medians: Vec<f64> = by_class.values().filter_map(|v| stats::median(v)).collect();
    stats::mean(&medians).unwrap_or(0.0)
}

/// The untraced half window of a traced run, with the service's own
/// view of it.
pub struct Observed {
    pub runs: Vec<ClientRun>,
    /// Queue wait per query id, as `QueryService::status()` reported it
    /// while the window ran.
    pub waits: HashMap<u64, (QueryClass, Duration)>,
    /// Statements the admission queue refused.
    pub rejected: u64,
}

pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub spans_json: String,
    pub replayed: u64,
    pub failures: Vec<String>,
}

/// Runs the replay and turns it into the per-layer metric values.
pub fn trace_pass(
    stack: &Stack,
    cat: &Catalog,
    workload: &Workload,
    storage_dir: Option<&Path>,
    seed: u64,
    rounds_scale: f64,
    observed: &Observed,
) -> Result<Traced, String> {
    let mut replayer = Replayer {
        stack,
        cat,
        client: Client::connect(stack.addr())?,
        rec: Recorder::new(),
        storage_dir,
        stored: storage_dir.map(api::stored_db).transpose()?,
        chunk_dbs: HashMap::new(),
        message_id: 0,
    };

    // The same rounds the workload's connections loop, redrawn from the
    // seed; a statement's id is shared by all the spans it causes.
    let mut kinds = workload.clients.to_vec();
    kinds.dedup();
    let mut replays: Vec<(Class, Replay)> = Vec::new();
    let mut failures = Vec::new();
    let mut statement_id = 0u64;
    for (k, kind) in kinds.iter().enumerate() {
        let mut rng = Rng::new(seed ^ 0x7ace_0000 ^ k as u64);
        let rounds = ((kind.replay_rounds() as f64 * rounds_scale) as usize).max(1);
        for _ in 0..rounds {
            for stmt in kind.draw(cat, &mut rng) {
                statement_id += 1;
                replayer.rec.set_round(statement_id);
                // The whole replay of a statement is one root span, so the
                // benchmark's own glue shows up as that span's self time.
                let root = replayer.rec.open("replay");
                let outcome = replayer.replay(&stmt);
                replayer.rec.close(root);
                match outcome {
                    Ok(r) => replays.push((stmt.class, r)),
                    Err(e) if failures.len() < 5 => failures.push(e),
                    Err(_) => {}
                }
            }
        }
    }

    // Storage layer on its own: a seeded sample of chunk files decoded
    // whole (`ChunkFile::open` + `read_all`).
    let stored_bytes = stack.stored_bytes()? as f64;
    let storage: [(&str, f64); 4] = match storage_dir {
        Some(dir) => {
            let files = api::chunk_files(dir)?;
            let mut rng = Rng::new(seed ^ 0xdec0de);
            let (mut ns, mut rows, mut bytes) = (Vec::new(), 0u64, 0u64);
            for _ in 0..files.len().min(40) {
                let f = &files[rng.below(files.len() as u64) as usize];
                let (decoded, t) = replayer
                    .rec
                    .time("storage.decode", || api::decode_chunk_file(&f.path));
                let (r, b) = decoded?;
                ns.push(t as f64);
                rows += r;
                bytes += b;
            }
            let total_s = ns.iter().sum::<f64>() / 1e9;
            [
                (
                    "storage.decode_us_per_chunk",
                    stats::median(&ns).unwrap_or(0.0) / 1e3,
                ),
                ("storage.decode_rows_per_s", rows as f64 / total_s.max(1e-9)),
                (
                    "storage.bytes_per_row",
                    bytes as f64 / (rows as f64).max(1.0),
                ),
                (
                    "storage.resident_share",
                    100.0 * stack.memory_bytes() as f64 / stored_bytes.max(1.0),
                ),
            ]
        }
        // Nothing is on disk: no pages to decode, everything resident.
        None => [
            ("storage.decode_us_per_chunk", 0.0),
            ("storage.decode_rows_per_s", 0.0),
            (
                "storage.bytes_per_row",
                stored_bytes / cat.stored_rows() as f64,
            ),
            ("storage.resident_share", 100.0),
        ],
    };

    let spans = replayer.rec.spans();
    let selfs = spans::self_times_ns(spans);
    let replay_self_ns: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "replay")
        .map(|(_, &ns)| ns)
        .sum();

    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let per_chunk_us = |total: f64, r: &Replay| total / r.chunks.max(1.0) / 1e3;
    let per_krow_us = |total: f64, r: &Replay| total / 1e3 / (r.result_rows.max(1.0) / 1e3);
    let mb_per_s = |bytes: f64, ns: f64| bytes / 1e6 / (ns / 1e9).max(1e-9);

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let all = |f: &dyn Fn(&Replay) -> f64| typical(&replays, |r| Some(f(r)));

    put("proxy.overhead_us", all(&|r| us(r.proxy - r.service)));
    put(
        "proxy.encode_us_per_krow",
        all(&|r| per_krow_us(r.row_encode, r)),
    );
    put(
        "proxy.decode_us_per_krow",
        all(&|r| per_krow_us(r.row_decode, r)),
    );
    put("sqlparse.parse_us", all(&|r| us(r.parse)));
    put("analysis.analyze_us", all(&|r| us(r.analyze)));
    put("planner.explain_us", all(&|r| us(r.planner_self())));
    put("planner.chunks_selected", all(&|r| r.chunks));
    put("planner.chunks_pruned", all(&|r| r.chunks_pruned));
    put("rewrite.build_plan_us", all(&|r| us(r.build_plan)));
    put(
        "rewrite.render_us_per_chunk",
        all(&|r| per_chunk_us(r.render, r)),
    );
    put("service.overhead_us", all(&|r| us(r.service - r.master)));
    for (name, class) in [
        ("service.wait_ms_p50.interactive", QueryClass::Interactive),
        ("service.wait_ms_p50.scan", QueryClass::Scan),
    ] {
        let w: Vec<f64> = observed
            .waits
            .values()
            .filter(|(c, _)| *c == class)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect();
        put(name, stats::median(&w).unwrap_or(0.0));
    }
    put("service.rejected", observed.rejected as f64);
    put("master.query_ms", all(&|r| ms(r.master)));
    put("master.serial_work_ms", all(&|r| ms(r.serial_work())));
    put(
        "master.parallel_speedup",
        all(&|r| r.serial_work() / r.master.max(1.0)),
    );
    put("master.chunks_dispatched", all(&|r| r.chunks));
    put("master.result_bytes", all(&|r| r.result_bytes));
    put(
        "xrd.roundtrip_us_per_chunk",
        all(&|r| per_chunk_us(r.roundtrip, r)),
    );
    put(
        "xrd.overhead_us_per_chunk",
        all(&|r| per_chunk_us(r.fabric_overhead(), r)),
    );
    put(
        "worker.exec_us_per_chunk",
        all(&|r| per_chunk_us(r.worker, r)),
    );
    put(
        "worker.overhead_us_per_chunk",
        typical(&replays, |r| {
            r.engine.map(|e| per_chunk_us(r.worker - e, r))
        }),
    );
    put("worker.tables_built", all(&|r| r.tables_built));
    put(
        "worker.vectorized_share",
        all(&|r| 100.0 * r.vectorized / r.worker_statements.max(1.0)),
    );
    put(
        "engine.exec_us_per_chunk",
        typical(&replays, |r| r.engine.map(|e| per_chunk_us(e, r))),
    );
    put(
        "engine.rows_per_s",
        typical(&replays, |r| {
            Some(r.engine_scan_rows? / (r.engine? / 1e9).max(1e-9))
        }),
    );
    put("storage.pages_scanned", all(&|r| r.pages_scanned));
    put("storage.pages_pruned", all(&|r| r.pages_pruned));
    put(
        "storage.prune_share",
        typical(&replays, |r| {
            let pages = r.pages_scanned + r.pages_pruned;
            (pages > 0.0).then(|| 100.0 * r.pages_pruned / pages)
        }),
    );
    put(
        "storage.decode_share_of_scan",
        typical(&replays, |r| {
            r.paged_first.map(|_| 100.0 * r.decode_share())
        }),
    );
    for (name, v) in storage {
        put(name, v);
    }
    put(
        "dump.encode_us_per_chunk",
        all(&|r| per_chunk_us(r.dump_encode, r)),
    );
    put(
        "dump.decode_us_per_chunk",
        all(&|r| per_chunk_us(r.dump_decode, r)),
    );
    put(
        "dump.encode_mb_per_s",
        all(&|r| mb_per_s(r.dump_bytes, r.dump_encode)),
    );
    put(
        "dump.decode_mb_per_s",
        all(&|r| mb_per_s(r.dump_bytes, r.dump_decode)),
    );
    put(
        "dump.bytes_per_row",
        all(&|r| r.dump_bytes / r.part_rows.max(1.0)),
    );
    put("merge.fold_us_per_chunk", all(&|r| per_chunk_us(r.fold, r)));
    put("merge.finish_us", all(&|r| us(r.finish)));
    put(
        "merge.rows_per_s",
        all(&|r| r.part_rows / ((r.fold + r.finish) / 1e9).max(1e-9)),
    );
    put("merge.peak_buffered_parts", all(&|r| r.peak_buffered));
    put(
        "obs.trace_overhead_pct",
        all(&|r| 100.0 * (r.master_traced - r.master) / r.master.max(1.0)),
    );

    // The outside-in budget: the end-to-end median of the untraced
    // window against what the replay attributes on the serial path, cut
    // into the README's six groups.
    let window = Window(&observed.runs);
    let medians = window.class_p50_ms();
    let e2e_ms = window.lat_p50_ms();
    let mut attributed_ms = 0.0;
    let mut largest = ("none", 0.0);
    for (label, metric, group) in GROUPS {
        let v = all(&|r| ms(group(r)));
        put(metric, v);
        attributed_ms += v;
        if v > largest.1 {
            largest = (label, v);
        }
    }
    eprintln!(
        "layer budget of {}: {attributed_ms:.3} ms attributed per statement on the serial path, \
         largest group: {} ({:.3} ms)",
        workload.name, largest.0, largest.1
    );
    put("budget.e2e_p50_ms", e2e_ms);
    put("budget.attributed_ms", attributed_ms);
    put(
        "budget.unattributed_pct",
        if e2e_ms > 0.0 {
            100.0 * (e2e_ms - attributed_ms) / e2e_ms
        } else {
            0.0
        },
    );
    for class in Class::ALL {
        put(
            &format!("class.{}.p50_ms", class.name()),
            medians.get(&class).copied().unwrap_or(0.0),
        );
    }
    put("replay.statements", replays.len() as f64);
    put("replay.self_ms", replay_self_ns as f64 / 1e6);
    // The window timings that carry no bound (see the README): tails by
    // the "ten samples beyond" rule, and the time to first row.
    put("window.statements", window.statements() as f64);
    put("window.lat_p95_ms", window.lat_p95().ms);
    put("window.lv_lat_p95_ms", window.lv_lat_p95().ms);
    put("window.ttfr_p50_ms", window.ttfr_p50_ms());

    Ok(Traced {
        metrics: m,
        spans_json: spans::to_json(spans),
        replayed: statement_id,
        failures,
    })
}

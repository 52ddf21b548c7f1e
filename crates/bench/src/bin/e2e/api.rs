//! The one adapter between the benchmark and the product crates.
//!
//! Every call the benchmark makes into `qserv*` goes through this file,
//! under a benchmark-side name. Nothing else in this directory names a
//! product crate, so an API change in the product re-points this file
//! only. Only default modes are used: `ServiceConfig::default()`, the
//! default proxy server mode, no `fifo`, no `PlanOverride`, result cache
//! off, and nothing from `qserv_bench::fixtures`.
//!
//! Public product functions used (the list to check when the API moves):
//!
//! | layer | functions |
//! |---|---|
//! | datagen | `Patch::generate`, `CatalogConfig` |
//! | partition | `Chunker::new`, `locate`, `subchunks_intersecting`, `subchunks_of` |
//! | loader | `ClusterBuilder::{new, chunker, storage_dir, build}`, `loader::{object_schema, source_schema}` |
//! | master | `Qserv::{explain, query_with_stats, query_traced, workers, cluster, placement, meta, chunker}`, `PlacementMap::{chunks, nodes_of}` |
//! | service | `QueryService::{start, submit, metrics_snapshot, status}`, `ServiceConfig::default`, `QueryHandle::wait` |
//! | proxy | `ProxyServer::{start_with_service, addr, shutdown}`, `ProxyClient::{connect, query, query_stream}`, `QueryStream::next_batch`, `protocol::{encode_value, decode_value, type_tag}` |
//! | sqlparse | `parse_select` |
//! | analysis / rewrite | `analysis::analyze`, `rewrite::{build_plan, render_chunk_message}` |
//! | worker | `Worker::{execute_message_detailed, set_residency, footprint_bytes, stats}`, `worker::parse_message` |
//! | engine | `execute`, `execute_detailed`, `Database::{new, create_table, attach_stored}`, `Table::{new, push_row, build_index}`, `functions::flux_to_ab_mag` |
//! | dump | `dump::{dump_table, load_dump}` |
//! | merge | `Merger::{new, fold, finish}` |
//! | storage | `ChunkFile::{open, read_all, on_disk_bytes}`, `Residency::new` |
//! | xrd | `XrdCluster::{write_file, read_file, unlink}`, `cluster::{query_path, result_path}`, `md5_hex` |
//! | sphgeom | `angular_separation_deg`, `SphericalBox::from_degrees`, `Angle::from_degrees`, `LonLat::from_degrees` |

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use qserv::analysis::{Analysis, JoinClass};
pub use qserv::rewrite::PhysicalPlan;
pub use qserv::service::QueryClass;
pub use qserv::{Chunker, Merger, QueryStats, ResultTable, Value};
pub use qserv_datagen::generate::{ObjectRow, Patch, SourceRow};
pub use qserv_engine::{Database, ScanStats, Table};
pub use qserv_sqlparse::ast::SelectStatement;

use qserv::service::{QueryService, ServiceConfig};
use qserv::{ClusterBuilder, Qserv};
use qserv_datagen::generate::CatalogConfig;
use qserv_proxy::{ProxyClient, ProxyServer};
use qserv_sphgeom::{Angle, LonLat, SphericalBox};

/// Errors from any layer, flattened to text: the benchmark only counts
/// and prints them.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// --- datagen / partitioning -------------------------------------------

/// The catalog footprint every workload runs on: RA 0–359.9°, decl ±60°.
pub const FOOTPRINT: (f64, f64, f64, f64) = (0.0, -60.0, 359.9, 60.0);

/// The seeded synthetic catalog: `objects` Object rows, ≈5 Source rows
/// per object, over [`FOOTPRINT`].
pub fn generate_catalog(objects: usize, seed: u64) -> Patch {
    let (lon0, lat0, lon1, lat1) = FOOTPRINT;
    Patch::generate(&CatalogConfig {
        objects,
        mean_sources_per_object: 5.0,
        seed,
        footprint: SphericalBox::from_degrees(lon0, lat0, lon1, lat1),
    })
}

/// The partitioning of both catalogs: 18 stripes × 10 sub-stripes,
/// 0.05° overlap (≈400 populated chunks over the footprint).
pub fn chunker() -> Chunker {
    Chunker::new(18, 10, Angle::from_degrees(0.05)).expect("benchmark partitioning is valid")
}

/// `(chunkId, subChunkId)` of a position.
pub fn locate(chunker: &Chunker, ra: f64, decl: f64) -> (i32, i32) {
    let loc = chunker.locate(&LonLat::from_degrees(ra, decl));
    (loc.chunk_id, loc.subchunk_id)
}

/// The worker UDF `fluxToAbMag`, for expected answers.
pub fn flux_to_ab_mag(flux: f64) -> f64 {
    qserv_engine::functions::flux_to_ab_mag(flux).unwrap_or(f64::NAN)
}

/// The worker UDF `qserv_angSep`, for expected answers.
pub fn ang_sep_deg(ra1: f64, decl1: f64, ra2: f64, decl2: f64) -> f64 {
    qserv_sphgeom::angular_separation_deg(ra1, decl1, ra2, decl2)
}

// --- the running system -----------------------------------------------

/// Number of worker nodes in every benchmark cluster.
pub const WORKERS: usize = 4;

/// An in-process cluster behind a query service behind a TCP proxy —
/// what a client connects to.
pub struct Stack {
    qserv: Arc<Qserv>,
    service: Arc<QueryService>,
    server: Option<ProxyServer>,
    storage_dir: Option<PathBuf>,
}

impl Stack {
    /// Builds the cluster from the catalog and starts service and proxy,
    /// all defaults. With `storage_dir`, chunk tables live in `.qchunk`
    /// files there and each worker's residency budget is a quarter of
    /// the bytes of the files it serves.
    pub fn start(patch: &Patch, storage_dir: Option<&Path>) -> Res<Stack> {
        let mut builder = ClusterBuilder::new(WORKERS).chunker(chunker());
        if let Some(dir) = storage_dir {
            builder = builder.storage_dir(dir);
        }
        let qserv = Arc::new(builder.build(&patch.objects, &patch.sources));
        if let Some(dir) = storage_dir {
            set_residency_budgets(&qserv, dir)?;
        }
        let service = Arc::new(QueryService::start(
            Arc::clone(&qserv),
            ServiceConfig::default(),
        ));
        let server =
            ProxyServer::start_with_service(Arc::clone(&service), "127.0.0.1:0").map_err(text)?;
        Ok(Stack {
            qserv,
            service,
            server: Some(server),
            storage_dir: storage_dir.map(Path::to_path_buf),
        })
    }

    /// The proxy's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("proxy is running").addr()
    }

    /// Number of chunks the cluster serves.
    pub fn chunk_count(&self) -> usize {
        self.qserv.placement().chunks().len()
    }

    /// Bytes the store holds: `.qchunk` bytes on disk when the cluster
    /// has a storage directory, the workers' in-memory table bytes
    /// otherwise.
    pub fn stored_bytes(&self) -> Res<u64> {
        match &self.storage_dir {
            Some(dir) => Ok(chunk_files(dir)?.iter().map(|f| f.bytes).sum()),
            None => Ok(self.memory_bytes()),
        }
    }

    /// Bytes of tables in the workers' memory: in-memory chunk tables,
    /// overlap stores, and decoded chunks resident in the caches.
    pub fn memory_bytes(&self) -> u64 {
        self.qserv
            .workers()
            .iter()
            .map(|w| w.footprint_bytes())
            .sum()
    }

    /// `(statements, vectorized statements, on-demand tables built)`
    /// summed over workers.
    pub fn worker_counters(&self) -> (u64, u64, u64) {
        let mut sum = (0, 0, 0);
        for w in self.qserv.workers() {
            let (_queries, statements, built, _errors) = w.stats.snapshot();
            sum.0 += statements;
            sum.1 += w.stats.vectorized();
            sum.2 += built;
        }
        sum
    }

    /// `(rejected statements, recent terminal queries as (qid, class,
    /// queue wait))` from the service's own instruments.
    pub fn service_view(&self) -> (u64, Vec<(u64, QueryClass, Duration)>) {
        use qserv::service::names;
        let snap = self.service.metrics_snapshot();
        let rejected =
            snap.counter(names::REJECTED_INTERACTIVE) + snap.counter(names::REJECTED_SCAN);
        let recent = self
            .service
            .status()
            .into_iter()
            .filter(|s| s.state == qserv::QueryState::Done)
            .map(|s| (s.qid, s.class, s.wait))
            .collect();
        (rejected, recent)
    }

    /// Stops the proxy (joining its thread); the service and cluster
    /// stop when the last handle drops.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One `.qchunk` file of a storage directory.
pub struct ChunkFileInfo {
    pub path: PathBuf,
    pub table: String,
    pub chunk: i32,
    pub bytes: u64,
}

/// The `.qchunk` files the loader wrote into `dir` (`<Table>_<chunk>.qchunk`).
pub fn chunk_files(dir: &Path) -> Res<Vec<ChunkFileInfo>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(text)? {
        let entry = entry.map_err(text)?;
        let path = entry.path();
        let Some(stem) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".qchunk"))
        else {
            continue;
        };
        let Some((table, chunk)) = stem.rsplit_once('_') else {
            continue;
        };
        let Ok(chunk) = chunk.parse::<i32>() else {
            continue;
        };
        files.push(ChunkFileInfo {
            table: table.to_string(),
            chunk,
            bytes: entry.metadata().map_err(text)?.len(),
            path,
        });
    }
    files.sort_by(|a, b| (a.chunk, &a.table).cmp(&(b.chunk, &b.table)));
    Ok(files)
}

/// Gives every worker a residency cache of 25 % of the `.qchunk` bytes
/// it serves — the one configuration where the working set is larger
/// than the program's own cache.
fn set_residency_budgets(qserv: &Qserv, dir: &Path) -> Res<()> {
    let placement = qserv.placement();
    let mut per_worker = vec![0u64; qserv.workers().len()];
    for f in chunk_files(dir)? {
        for &node in placement.nodes_of(f.chunk).unwrap_or(&[]) {
            per_worker[node] += f.bytes;
        }
    }
    for (worker, bytes) in qserv.workers().iter().zip(per_worker) {
        worker.set_residency(Arc::new(qserv_engine::Residency::new(bytes / 4)));
    }
    Ok(())
}

// --- the client side ----------------------------------------------------

/// One answered statement as the client saw it.
pub struct Answer {
    pub table: ResultTable,
    /// Send → `END` frame.
    pub latency: Duration,
    /// Send → first `ROWS` batch holding a row; the latency itself for a
    /// buffered call, whose first row is usable only at `END`.
    pub first_row: Duration,
}

/// A proxy session over loopback TCP: one statement at a time, like the
/// paper's `mysql` sessions.
pub struct Client(ProxyClient);

impl Client {
    pub fn connect(addr: SocketAddr) -> Res<Client> {
        ProxyClient::connect(addr).map(Client).map_err(text)
    }

    /// `ProxyClient::query`: the whole result, buffered.
    pub fn query(&mut self, sql: &str) -> Res<Answer> {
        let start = Instant::now();
        let (table, _stats) = self.0.query(sql).map_err(text)?;
        let latency = start.elapsed();
        Ok(Answer {
            table,
            latency,
            first_row: latency,
        })
    }

    /// `ProxyClient::query_stream`: `ROWS` batches as they arrive.
    pub fn query_stream(&mut self, sql: &str) -> Res<Answer> {
        let start = Instant::now();
        let mut stream = self.0.query_stream(sql).map_err(text)?;
        let mut first_row = None;
        let mut columns = Vec::new();
        let mut rows = Vec::new();
        while let Some(batch) = stream.next_batch().map_err(text)? {
            if !batch.rows.is_empty() {
                first_row.get_or_insert_with(|| start.elapsed());
            }
            columns = batch.columns;
            rows.extend(batch.rows);
        }
        let latency = start.elapsed();
        if stream.stats().is_none() {
            return Err("stream ended without END stats".to_string());
        }
        Ok(Answer {
            table: ResultTable { columns, rows },
            latency,
            first_row: first_row.unwrap_or(latency),
        })
    }
}

// --- the single-node oracle and bench-owned engine tables ---------------

/// One Object row in the loader's chunk-table column order.
fn object_values(o: &ObjectRow, chunk: i32, subchunk: i32) -> Vec<Value> {
    let mut row = vec![
        Value::Int(o.object_id),
        Value::Float(o.ra_ps),
        Value::Float(o.decl_ps),
    ];
    row.extend(o.flux_ps.iter().map(|&f| Value::Float(f)));
    row.push(Value::Float(o.u_flux_sg));
    row.push(Value::Float(o.u_radius_ps));
    row.push(Value::Int(chunk as i64));
    row.push(Value::Int(subchunk as i64));
    row
}

/// One Source row in the loader's chunk-table column order.
fn source_values(s: &SourceRow, chunk: i32, subchunk: i32) -> Vec<Value> {
    vec![
        Value::Int(s.source_id),
        Value::Int(s.object_id),
        Value::Float(s.ra),
        Value::Float(s.decl),
        Value::Float(s.tai_mid_point),
        Value::Float(s.psf_flux),
        Value::Float(s.psf_flux_err),
        Value::Int(chunk as i64),
        Value::Int(subchunk as i64),
    ]
}

/// An engine database holding `Object` and `Source` tables (under the
/// given names) built from the selected catalog rows, with the
/// `objectId` index the loader builds. `locs[i]` is object `i`'s
/// `(chunkId, subChunkId)`; a source sits where its object does.
pub fn engine_db<'a>(
    object_name: &str,
    source_name: &str,
    objects: impl Iterator<Item = &'a ObjectRow>,
    sources: impl Iterator<Item = &'a SourceRow>,
    locs: &[(i32, i32)],
) -> Database {
    let loc_of = |object_id: i64| locs[(object_id - 1) as usize];
    let mut object = Table::new(qserv::loader::object_schema());
    for o in objects {
        let (c, s) = loc_of(o.object_id);
        object
            .push_row(object_values(o, c, s))
            .expect("object row fits the loader schema");
    }
    let mut source = Table::new(qserv::loader::source_schema());
    for r in sources {
        let (c, s) = loc_of(r.object_id);
        source
            .push_row(source_values(r, c, s))
            .expect("source row fits the loader schema");
    }
    for t in [&mut object, &mut source] {
        t.build_index("objectId")
            .expect("objectId is an int column");
    }
    let mut db = Database::new();
    db.create_table(object_name, object);
    db.create_table(source_name, source);
    db
}

/// An engine database with every `.qchunk` file of `dir` attached cold
/// under its chunk-table name.
pub fn stored_db(dir: &Path) -> Res<Database> {
    let mut db = Database::new();
    for f in chunk_files(dir)? {
        db.attach_stored(&format!("{}_{}", f.table, f.chunk), &f.path)
            .map_err(text)?;
    }
    Ok(db)
}

/// An engine database holding one chunk's `.qchunk` files fully decoded
/// into memory under their chunk-table names: the same scan without the
/// page decode.
pub fn decoded_db(dir: &Path, chunk: i32) -> Res<Database> {
    let mut db = Database::new();
    for table in ["Object", "Source"] {
        let name = format!("{table}_{chunk}");
        let decoded = qserv_engine::ChunkFile::open(&dir.join(format!("{name}.qchunk")))
            .and_then(|file| file.read_all())
            .map_err(text)?;
        db.create_table(&name, decoded);
    }
    Ok(db)
}

/// Runs one statement on the single-node engine (the oracle).
pub fn engine_query(db: &Database, sql: &str) -> Res<ResultTable> {
    let stmt = parse(sql)?;
    qserv_engine::execute(db, &stmt).map_err(text)
}

// --- layer calls for the traced replay ----------------------------------

pub fn parse(sql: &str) -> Res<SelectStatement> {
    qserv_sqlparse::parse_select(sql).map_err(text)
}

pub fn analyze(stack: &Stack, stmt: &SelectStatement) -> Res<Analysis> {
    qserv::analysis::analyze(stmt, stack.qserv.meta()).map_err(text)
}

pub fn build_plan(stack: &Stack, analysis: &Analysis) -> Res<PhysicalPlan> {
    qserv::rewrite::build_plan(analysis, stack.qserv.meta()).map_err(text)
}

/// `Qserv::explain`: the chunk list the planner selected.
pub fn explain_chunks(stack: &Stack, sql: &str) -> Res<Vec<i32>> {
    stack.qserv.explain(sql).map(|e| e.chunks).map_err(text)
}

/// The subchunks a near-neighbour plan visits in one chunk (empty for
/// every other join class), as the master computes them.
pub fn subchunks(stack: &Stack, plan: &PhysicalPlan, chunk: i32) -> Vec<i32> {
    if plan.join != JoinClass::SubchunkNear {
        return Vec::new();
    }
    let chunker = stack.qserv.chunker();
    match &plan.spatial {
        Some(spec) => chunker
            .subchunks_intersecting(chunk, &spec.bounding_box())
            .unwrap_or_default(),
        None => chunker.subchunks_of(chunk).unwrap_or_default(),
    }
}

pub fn render_chunk_message(
    stack: &Stack,
    plan: &PhysicalPlan,
    chunk: i32,
    subchunks: &[i32],
) -> String {
    qserv::rewrite::render_chunk_message(plan, stack.qserv.meta(), chunk, subchunks)
}

/// The SQL statements of a chunk message.
pub fn message_statements(message: &str) -> Res<Vec<String>> {
    qserv::worker::parse_message(message).map(|(_, s)| s)
}

/// `Worker::execute_message_detailed` on the worker that serves `chunk`.
pub fn worker_execute(stack: &Stack, chunk: i32, message: &str) -> Res<(Table, ScanStats)> {
    let placement = stack.qserv.placement();
    let node = *placement
        .nodes_of(chunk)
        .and_then(|n| n.first())
        .ok_or_else(|| format!("chunk {chunk} is not placed"))?;
    stack.qserv.workers()[node].execute_message_detailed(chunk, message)
}

/// `engine::execute_detailed` (default mode) on a bench-owned database.
pub fn engine_execute(db: &Database, sql: &str) -> Res<(ResultTable, ScanStats)> {
    let stmt = parse(sql)?;
    qserv_engine::execute_detailed(db, &stmt, qserv_engine::ExecMode::Auto)
        .map(|(r, _, scan)| (r, scan))
        .map_err(text)
}

pub fn dump_table(table: &Table) -> String {
    qserv_engine::dump::dump_table("result", table)
}

pub fn load_dump(text_: &str) -> Res<Table> {
    qserv_engine::dump::load_dump(text_)
        .map(|(_, t)| t)
        .map_err(text)
}

pub fn merger(plan: &PhysicalPlan) -> Merger {
    Merger::new(plan)
}

pub fn merge_fold(merger: &mut Merger, seq: usize, part: Table) -> Res<()> {
    merger.fold(seq, part).map_err(text)
}

pub fn merge_finish(merger: Merger) -> Res<ResultTable> {
    merger.finish().map_err(text)
}

/// The §5.4 two-file transaction driven directly: write the chunk query,
/// read the result at its hash address, consume it. Returns the result
/// payload's size.
pub fn xrd_transaction(stack: &Stack, chunk: i32, message: &str) -> Res<usize> {
    use qserv_xrd::cluster::{query_path, result_path};
    let cluster = stack.qserv.cluster();
    let server = cluster
        .write_file(&query_path(chunk), message.as_bytes().to_vec())
        .map_err(text)?;
    let path = result_path(&qserv_xrd::md5_hex(message.as_bytes()));
    let payload = cluster.read_file(server, &path).map_err(text)?;
    cluster.unlink(server, &path).map_err(text)?;
    if payload.starts_with(b"ERROR:") {
        return Err(String::from_utf8_lossy(&payload).into_owned());
    }
    Ok(payload.len())
}

/// `Qserv::query_with_stats`.
pub fn master_query(stack: &Stack, sql: &str) -> Res<(ResultTable, QueryStats)> {
    stack.qserv.query_with_stats(sql).map_err(text)
}

/// `Qserv::query_traced` (the product's own tracing switched on).
pub fn master_query_traced(stack: &Stack, sql: &str) -> Res<ResultTable> {
    stack.qserv.query_traced(sql).map(|t| t.rows).map_err(text)
}

/// `QueryService::submit(sql).wait()`: `(rows, queue wait)`.
pub fn service_query(stack: &Stack, sql: &str) -> Res<(ResultTable, Duration)> {
    let reply = stack.service.submit(sql).map_err(text)?.wait();
    let wait = reply.wait;
    reply.result.map(|(rows, _)| (rows, wait)).map_err(text)
}

/// Encodes every cell of a result as the proxy's `ROWS` frames do,
/// returning the cells with their wire type tags.
pub fn proxy_encode(table: &ResultTable) -> Vec<Vec<(String, &'static str)>> {
    use qserv_proxy::protocol::{encode_value, type_tag};
    table
        .rows
        .iter()
        .map(|row| row.iter().map(|v| (encode_value(v), type_tag(v))).collect())
        .collect()
}

/// Decodes wire cells back into values as the proxy client does.
pub fn proxy_decode(cells: &[Vec<(String, &'static str)>]) -> Res<Vec<Vec<Value>>> {
    cells
        .iter()
        .map(|row| {
            row.iter()
                .map(|(cell, tag)| qserv_proxy::protocol::decode_value(cell, tag).map_err(text))
                .collect()
        })
        .collect()
}

/// `ChunkFile::open` + `read_all`: `(rows decoded, file bytes)`.
pub fn decode_chunk_file(path: &Path) -> Res<(u64, u64)> {
    let file = qserv_engine::ChunkFile::open(path).map_err(text)?;
    let table = file.read_all().map_err(text)?;
    Ok((table.num_rows() as u64, file.on_disk_bytes()))
}

/// Number of rows in a table (benchmark code never touches `Table`'s
/// other methods).
pub fn table_rows(table: &Table) -> usize {
    table.num_rows()
}

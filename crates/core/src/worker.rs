//! The Qserv worker: Xrootd data server + ofs plugin + SQL engine.
//!
//! "Xrootd data servers become Qserv workers by plugging custom code into
//! Xrootd as a custom file system ('ofs plugin') implementation" (paper
//! §5.1.2). A [`Worker`] owns the node's chunk tables in an embedded
//! [`Database`]; when the master writes a chunk query to `/query2/CC`, the
//! plugin fires:
//!
//! 1. parse the message once: the `-- SUBCHUNKS:` header and the SQL
//!    statements (§5.4) for chunk CC, and — in a *bundle*, one message
//!    carrying several of this node's chunks — the `-- CHUNKS:` list
//!    (CC first) with a `-- SUBCHUNKS <chunk>:` list per further chunk
//!    of a near-neighbour statement. Each further chunk's statements are
//!    CC's, re-bound to its table names on a clone of the parsed AST;
//!    no text is parsed twice;
//! 2. then chunk by chunk, in the message's order: **bind** — in one
//!    *read*-lock critical section decide whether the chunk is resident
//!    (else that chunk NACKs `ERROR: RETRYABLE:`) and `Arc`-clone
//!    exactly the tables its FROM clauses name — in-memory tables,
//!    attached `.qchunk` handles, the shared residency pool — into a
//!    chunk-local scratch catalog, noting which on-demand tables are
//!    missing;
//! 3. **generate the appropriate subchunk/union tables prior to executing
//!    the SQL statements** (§5.4) — from the chunk's owned rows and its
//!    overlap store, in one pass per base table, into the scratch catalog
//!    with no lock held. Like the paper's ("the current implementation
//!    does not cache them", §5.4), they live only as long as their chunk's
//!    run;
//! 4. execute each statement on the engine against the scratch catalog,
//!    concatenating results; once a pushed-down `LIMIT n` has its n rows,
//!    the chunks after it are neither bound nor run;
//! 5. encode each chunk's result table as a checksummed result frame
//!    (`qserv_engine::storage::encode_frame`, carrying the paged-scan
//!    counters) — or its error text — and deposit the sections as one
//!    payload at `/result/md5(message)` for the master's read
//!    transaction (`split_sections` is the payload's grammar). A
//!    bundle of one is the plain chunk message, and its payload the one
//!    frame.
//!
//! A message never takes the catalog's write lock, never copies more of
//! the catalog than it names, and leaves nothing behind to drop:
//! generated tables die with the scratch catalog, on success and on error
//! alike. Because the residency decision and the bindings come from the
//! same critical section and the statements run on the bound `Arc`s, a
//! chunk detached a moment later (a drain, a rebalance) cannot surface as
//! a missing-table error.

use crate::meta::CatalogMeta;
use crate::rewrite;
use parking_lot::RwLock;
use qserv_engine::db::Database;
use qserv_engine::exec::{execute_detailed, ExecMode, ExecPath, ResultTable, ScanStats};
use qserv_engine::storage::{decode_frame, encode_frame, FRAME_MAGIC, MAGIC};
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use qserv_partition::chunker::Chunker;
use qserv_sphgeom::region::Region;
use qserv_sphgeom::LonLat;
use qserv_sqlparse::ast::SelectStatement;
use qserv_sqlparse::parse_select;
use qserv_xrd::cluster::result_path;
use qserv_xrd::md5_hex;
use qserv_xrd::server::{DataServer, OfsPlugin};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Observable worker counters (used by tests and the benchmark's
/// per-layer report).
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Chunk queries bound to a resident chunk: one per chunk of each
    /// message, however many chunks the message bundles.
    pub chunk_queries: AtomicU64,
    /// Individual SQL statements executed.
    pub statements: AtomicU64,
    /// Statements served by the vectorized execution path.
    pub vectorized_statements: AtomicU64,
    /// On-demand tables (subchunk/full-overlap/union) generated.
    pub tables_built: AtomicU64,
    /// Chunk queries that ended in an error section.
    pub errors: AtomicU64,
}

impl WorkerStats {
    /// Snapshot of `(chunk_queries, statements, tables_built, errors)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.chunk_queries.load(Ordering::Relaxed),
            self.statements.load(Ordering::Relaxed),
            self.tables_built.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }

    /// Statements that ran on the vectorized path.
    pub fn vectorized(&self) -> u64 {
        self.vectorized_statements.load(Ordering::Relaxed)
    }
}

/// One worker node.
pub struct Worker {
    node_id: usize,
    db: RwLock<Database>,
    chunker: Chunker,
    meta: CatalogMeta,
    /// Execution counters.
    pub stats: WorkerStats,
}

/// Why [`Worker::bind`] produced no bindings.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum BindError {
    /// No partitioned table of the chunk is installed here (it moved
    /// away, or never was): the `ERROR: RETRYABLE:` NACK.
    NotResident,
    /// The message does not parse, or names a table this node neither
    /// stores nor can derive: a plain worker error.
    Message(String),
}

/// One chunk of a message bound to the tables it runs against.
pub(crate) struct Bound {
    chunk: i32,
    stmts: Vec<SelectStatement>,
    /// Message-local catalog: the FROM tables found in the shared catalog
    /// plus the chunk and overlap tables `missing` is generated from.
    scratch: Database,
    /// FROM tables to generate into `scratch` before executing.
    missing: Vec<Missing>,
}

/// A chunk-query message read once: the chunks it names and the first
/// chunk's statements, which every further chunk re-binds.
pub(crate) struct Parsed {
    /// The path's chunk first.
    chunks: Vec<i32>,
    /// The further chunks' own subchunk lists (a near-neighbour
    /// bundle's).
    per_chunk: Vec<(i32, Vec<i32>)>,
    /// The first chunk's statements, or why they could not be read.
    stmts: Result<Vec<SelectStatement>, String>,
    /// A pushed-down `LIMIT n` (the statements carry it and do not
    /// order): once the chunks run so far returned n rows, the rest are
    /// not needed — the master's Append merge takes its first n rows in
    /// chunk order, and these precede every chunk after them.
    cutoff: Option<u64>,
}

/// An on-demand table the shared catalog does not hold.
struct Missing {
    name: String,
    /// The partitioned table it is cut from.
    base: String,
    kind: OnDemand,
}

/// The on-demand table kinds of §5.2/§5.4.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnDemand {
    /// `TUnion_CC`.
    Union,
    /// `T_CC_SS`.
    Subchunk(i32),
    /// `TFullOverlap_CC_SS`.
    FullOverlap(i32),
}

impl Worker {
    /// Creates an empty worker.
    pub fn new(node_id: usize, chunker: Chunker, meta: CatalogMeta) -> Worker {
        Worker {
            node_id,
            db: RwLock::new(Database::new()),
            chunker,
            meta,
            stats: WorkerStats::default(),
        }
    }

    /// This worker's node id.
    pub fn node_id(&self) -> usize {
        self.node_id
    }

    /// Installs a chunk of a partitioned table: the owned rows as `T_CC`
    /// and the overlap-store rows as `TOverlap_CC`.
    pub fn install_chunk(&self, table: &str, chunk: i32, owned: Table, overlap: Table) {
        let mut db = self.db.write();
        db.create_table(&rewrite::chunk_table(table, chunk), owned);
        db.create_table(&rewrite::overlap_table(table, chunk), overlap);
    }

    /// Installs a chunk of a partitioned table backed by an on-disk
    /// columnar chunk file (`T_CC` stays cold until scanned); the overlap
    /// rows stay in-memory as `TOverlap_CC`.
    pub fn install_chunk_file(
        &self,
        table: &str,
        chunk: i32,
        path: &std::path::Path,
        overlap: Table,
    ) -> Result<(), String> {
        let mut db = self.db.write();
        db.attach_stored(&rewrite::chunk_table(table, chunk), path)
            .map_err(|e| format!("attach {}: {e}", path.display()))?;
        db.create_table(&rewrite::overlap_table(table, chunk), overlap);
        Ok(())
    }

    /// Shares a residency pool with this worker's database (one LRU
    /// budget across every worker of a node, or across a whole test
    /// cluster).
    pub fn set_residency(&self, residency: std::sync::Arc<qserv_engine::Residency>) {
        self.db.write().set_residency(residency);
    }

    /// Names of tables currently stored (for tests).
    pub fn table_names(&self) -> Vec<String> {
        self.db
            .read()
            .table_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Total estimated bytes held in this worker's memory: its in-memory
    /// tables plus the decoded pages of its on-disk chunks resident in the
    /// cache — counted here, once, because every message-local view
    /// shares that one cache.
    pub fn footprint_bytes(&self) -> u64 {
        let db = self.db.read();
        db.footprint_bytes() + db.residency().resident_bytes()
    }

    /// True when any partitioned base table of `chunk` is installed here
    /// (in memory or as an attached chunk file).
    pub fn holds_chunk(&self, chunk: i32) -> bool {
        self.holds_chunk_in(&self.db.read(), chunk)
    }

    fn holds_chunk_in(&self, db: &Database, chunk: i32) -> bool {
        self.meta
            .table_names()
            .iter()
            .filter(|t| self.meta.partition_info(t).is_some())
            .any(|t| db.has_table(&rewrite::chunk_table(t, chunk)))
    }

    /// Serializes every installed table of `chunk` for replication to
    /// another worker: one `(label, payload)` per table, where the label
    /// is the base name (`Object`) or overlap name (`ObjectOverlap`) and
    /// the payload is the raw `.qchunk` file bytes for disk-backed
    /// tables or a result frame for in-memory ones.
    /// [`Worker::import_chunk`] reverses the encoding by sniffing the
    /// magic.
    pub fn export_chunk(&self, chunk: i32) -> Result<Vec<(String, Vec<u8>)>, String> {
        let db = self.db.read();
        let mut files = Vec::new();
        for base in self.meta.table_names() {
            if self.meta.partition_info(base).is_none() {
                continue;
            }
            let owned_name = rewrite::chunk_table(base, chunk);
            if let Some(path) = db.stored_path(&owned_name) {
                let bytes =
                    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
                files.push((base.to_string(), bytes));
            } else if let Some(t) = db.table(&owned_name) {
                files.push((base.to_string(), encode_frame(t, &ScanStats::default())));
            } else {
                continue; // this base has no chunk here
            }
            let overlap_name = rewrite::overlap_table(base, chunk);
            if let Some(t) = db.table(&overlap_name) {
                files.push((
                    format!("{base}Overlap"),
                    encode_frame(t, &ScanStats::default()),
                ));
            }
        }
        Ok(files)
    }

    /// Installs a replica of `chunk` from [`Worker::export_chunk`]
    /// payloads, told apart by their magic. `.qchunk` payloads are
    /// written to `storage_dir` (the temp dir when `None`) under a
    /// node-unique name and attached cold; result frames are decoded in
    /// memory, with the owned table's objectId index rebuilt when the
    /// column exists.
    pub fn import_chunk(
        &self,
        chunk: i32,
        files: &[(String, Vec<u8>)],
        storage_dir: Option<&std::path::Path>,
    ) -> Result<(), String> {
        static IMPORT_SEQ: AtomicU64 = AtomicU64::new(0);
        let mut db = self.db.write();
        for (label, bytes) in files {
            let table_name = rewrite::chunk_table(label, chunk);
            if bytes.starts_with(MAGIC) {
                let dir = storage_dir
                    .map(|p| p.to_path_buf())
                    .unwrap_or_else(std::env::temp_dir);
                let seq = IMPORT_SEQ.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!(
                    "{label}_{chunk}.n{}.p{}.s{seq}.qchunk",
                    self.node_id,
                    std::process::id()
                ));
                std::fs::write(&path, bytes)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                db.attach_stored(&table_name, &path)
                    .map_err(|e| format!("attach {}: {e}", path.display()))?;
            } else if bytes.starts_with(FRAME_MAGIC) {
                let (mut table, _) =
                    decode_frame(bytes).map_err(|e| format!("decode {label}: {e}"))?;
                // Owned tables carry a per-chunk objectId index when the
                // column exists (RefObject does not; ignore).
                if self.meta.partition_info(label).is_some() {
                    let _ = table.build_index("objectId");
                }
                db.create_table(&table_name, table);
            } else {
                return Err(format!(
                    "chunk payload {label} is neither a chunk file nor a frame"
                ));
            }
        }
        Ok(())
    }

    /// Drops the chunk and overlap tables of `chunk` (`T_CC` and
    /// `TOverlap_CC` of every partitioned base) after its replica moved
    /// elsewhere; generated tables never reach the shared catalog, so
    /// there is nothing else to drop. Returns how many were dropped;
    /// attached `.qchunk` files stay on disk for other replicas.
    pub fn detach_chunk(&self, chunk: i32) -> usize {
        let mut db = self.db.write();
        let mut dropped = 0;
        for base in self.meta.table_names() {
            if self.meta.partition_info(base).is_none() {
                continue;
            }
            for name in [
                rewrite::chunk_table(base, chunk),
                rewrite::overlap_table(base, chunk),
            ] {
                dropped += usize::from(db.drop_table(&name));
            }
        }
        dropped
    }

    /// Executes one chunk-query message (header + statements) against this
    /// worker's store, returning the concatenated result table. A bundle
    /// message answers for its first chunk, `chunk`.
    pub fn execute_message(&self, chunk: i32, message: &str) -> Result<Table, String> {
        self.execute_message_detailed(chunk, message)
            .map(|(t, _)| t)
    }

    /// Like [`Worker::execute_message`], but also reports the paged-scan
    /// counters (row groups elided by zone maps, read, and served from the
    /// residency cache) summed over the message's statements.
    pub fn execute_message_detailed(
        &self,
        chunk: i32,
        message: &str,
    ) -> Result<(Table, ScanStats), String> {
        let bound = self.bind(chunk, message).map_err(|e| match e {
            BindError::NotResident => self.not_resident(chunk),
            BindError::Message(m) => m,
        })?;
        self.run(bound)
    }

    fn not_resident(&self, chunk: i32) -> String {
        format!("chunk {chunk} not resident on node {}", self.node_id)
    }

    /// Phase 1, *bind*, for the message's first chunk, `chunk`.
    pub(crate) fn bind(&self, chunk: i32, message: &str) -> Result<Bound, BindError> {
        let mut parsed = self.parse(chunk, message);
        self.bind_chunk(chunk, self.statements_of(&mut parsed, 0))
    }

    /// Reads a message once: its header and the first chunk's
    /// statements. `chunk` is the chunk of the path the message was
    /// written to; a header that does not parse, or a bundle not led by
    /// `chunk`, fails `chunk` alone.
    pub(crate) fn parse(&self, chunk: i32, message: &str) -> Parsed {
        let header = parse_header(message).and_then(|header| match header.chunks.first() {
            Some(&first) if first != chunk => Err(format!("bundle is not led by chunk {chunk}")),
            _ => Ok(header),
        });
        let header = match header {
            Ok(header) => header,
            Err(e) => {
                return Parsed {
                    chunks: vec![chunk],
                    per_chunk: Vec::new(),
                    stmts: Err(e),
                    cutoff: None,
                }
            }
        };
        let stmts = split_statements(header.body).and_then(|texts| {
            texts
                .iter()
                .map(|text| {
                    parse_select(text).map_err(|e| format!("worker parse error: {e} in {text:?}"))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        Parsed {
            chunks: match header.chunks.is_empty() {
                true => vec![chunk],
                false => header.chunks,
            },
            per_chunk: header.per_chunk,
            cutoff: stmts.as_deref().ok().and_then(row_budget),
            stmts,
        }
    }

    /// The statements the `i`-th chunk of a parsed message runs: the
    /// first chunk's as parsed; a further chunk's re-bound from them —
    /// every statement, or, when the chunk names its own subchunks, the
    /// first statement once per subchunk. A message of one chunk hands
    /// its statements over.
    fn statements_of(&self, parsed: &mut Parsed, i: usize) -> Result<Vec<SelectStatement>, String> {
        let single = parsed.chunks.len() == 1;
        let first = parsed.stmts.as_mut().map_err(|e| e.clone())?;
        let (from, to) = (parsed.chunks[0], parsed.chunks[i]);
        let own = parsed.per_chunk.iter().find(|(c, _)| *c == to);
        Ok(match (i, own) {
            (0, _) if single => std::mem::take(first),
            (0, _) => first.clone(),
            (_, Some((_, subchunks))) => subchunks
                .iter()
                .map(|&ss| self.rebind(&first[0], from, to, Some(ss)))
                .collect(),
            (_, None) => first
                .iter()
                .map(|stmt| self.rebind(stmt, from, to, None))
                .collect(),
        })
    }

    /// `stmt` with every chunk table name of chunk `from` renamed to its
    /// counterpart in chunk `to` (and subchunk `ss`, for subchunk tables,
    /// when given). Tables of no chunk — replicated ones — keep their
    /// names.
    fn rebind(
        &self,
        stmt: &SelectStatement,
        from: i32,
        to: i32,
        ss: Option<i32>,
    ) -> SelectStatement {
        let mut stmt = stmt.clone();
        for t in &mut stmt.from {
            if let Some(name) = self.rebind_name(&t.table, from, to, ss) {
                t.table = name;
            }
        }
        stmt
    }

    /// The name of table `name` of chunk `from` in chunk `to`: `T_CC`,
    /// `TOverlap_CC`, `TUnion_CC` keep their stem, `T_CC_SS` and
    /// `TFullOverlap_CC_SS` also take subchunk `ss` when given. `None`
    /// when `name` is no table of chunk `from`.
    fn rebind_name(&self, name: &str, from: i32, to: i32, ss: Option<i32>) -> Option<String> {
        let (head, last) = name.rsplit_once('_')?;
        let last: i32 = last.parse().ok()?;
        let (stem, subchunk) = match head.rsplit_once('_') {
            Some((stem, mid)) if mid.parse() == Ok(from) => (stem, Some(ss.unwrap_or(last))),
            _ if last == from => (head, None),
            _ => return None,
        };
        let partitioned = |base: &str| self.meta.partition_info(base).is_some();
        let of_chunk = partitioned(stem)
            || ["Union", "Overlap", "FullOverlap"]
                .iter()
                .any(|kind| stem.strip_suffix(kind).is_some_and(partitioned));
        of_chunk.then(|| match subchunk {
            Some(ss) => format!("{stem}_{to}_{ss}"),
            None => format!("{stem}_{to}"),
        })
    }

    /// Phase 1, *bind*, for one chunk: under one read lock, decide its
    /// residency and `Arc`-clone the tables its statements need out of
    /// the shared catalog into a chunk-local scratch catalog. Whatever
    /// happens to the shared catalog afterwards (a drain detaching the
    /// chunk, another message generating same-named tables) cannot reach
    /// the chunk's run. Statements that could not be read are reported
    /// after the residency decision: a stale-epoch message NACKs whatever
    /// its text says.
    fn bind_chunk(
        &self,
        chunk: i32,
        stmts: Result<Vec<SelectStatement>, String>,
    ) -> Result<Bound, BindError> {
        let db = self.db.read();
        if !self.holds_chunk_in(&db, chunk) {
            return Err(BindError::NotResident);
        }
        self.stats.chunk_queries.fetch_add(1, Ordering::Relaxed);
        let stmts = stmts.map_err(BindError::Message)?;
        let mut names: Vec<String> = Vec::new();
        let mut missing: Vec<Missing> = Vec::new();
        for tref in stmts.iter().flat_map(|s| &s.from) {
            let name = &tref.table;
            if names.contains(name) || missing.iter().any(|m| m.name == *name) {
                continue;
            }
            if db.has_table(name) {
                names.push(name.clone());
                continue;
            }
            let (base, kind) = self.classify(name, chunk).ok_or_else(|| {
                BindError::Message(format!(
                    "node {} has no table {name} and cannot derive it for chunk {chunk}",
                    self.node_id
                ))
            })?;
            // The rows an on-demand table is cut from.
            for source in [
                rewrite::chunk_table(base, chunk),
                rewrite::overlap_table(base, chunk),
            ] {
                if !names.contains(&source) {
                    names.push(source);
                }
            }
            missing.push(Missing {
                name: name.clone(),
                base: base.to_string(),
                kind,
            });
        }
        Ok(Bound {
            chunk,
            stmts,
            scratch: db.scoped(names.iter().map(String::as_str)),
            missing,
        })
    }

    /// Binds and runs every chunk of a parsed message in order and
    /// encodes one result section per chunk: its frame, its `ERROR:`
    /// text, or — once the row budget is met — nothing (the chunk is
    /// neither bound nor run).
    pub(crate) fn run_message(&self, mut message: Parsed) -> Vec<Vec<u8>> {
        let mut rows = 0u64;
        let mut met = false;
        let error = |text: String| {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            format!("ERROR: {text}").into_bytes()
        };
        (0..message.chunks.len())
            .map(|i| {
                // The first chunk always runs: `LIMIT 0` still names its
                // columns.
                if met {
                    return Vec::new();
                }
                let chunk = message.chunks[i];
                let bound = self.bind_chunk(chunk, self.statements_of(&mut message, i));
                match bound.map(|b| self.run(b)) {
                    Ok(Ok((table, scan))) => {
                        rows += table.num_rows() as u64;
                        met = message.cutoff.is_some_and(|n| rows >= n);
                        encode_frame(&table, &scan)
                    }
                    Ok(Err(e)) | Err(BindError::Message(e)) => error(e),
                    // A query routed here against a placement epoch older
                    // than a rebalance may arrive after the chunk moved
                    // away. NACK with a retryable marker so the master
                    // fails over to a live replica instead of treating it
                    // as a worker SQL error. Once bound, the chunk runs on
                    // the tables it holds, so a drain landing later cannot
                    // turn into an error.
                    Err(BindError::NotResident) => {
                        error(format!("RETRYABLE: {}", self.not_resident(chunk)))
                    }
                }
            })
            .collect()
    }

    /// Phases 2 and 3 on a bound chunk: *generate* the missing
    /// on-demand tables into the scratch catalog with no lock held, then
    /// *execute* every statement against it.
    pub(crate) fn run(&self, bound: Bound) -> Result<(Table, ScanStats), String> {
        let Bound {
            chunk,
            stmts,
            mut scratch,
            missing,
        } = bound;
        if !missing.is_empty() {
            let span = qserv_obs::trace::span("worker.generate");
            if let Some(g) = &span {
                g.annotate("node", &self.node_id.to_string());
                g.annotate("tables", &missing.len().to_string());
            }
            let generated = self.generate(&scratch, chunk, &missing)?;
            self.stats
                .tables_built
                .fetch_add(generated.len() as u64, Ordering::Relaxed);
            for (name, table) in generated {
                scratch.create_table(&name, table);
            }
        }

        let mut combined: Option<ResultTable> = None;
        let mut scan = ScanStats::default();
        for stmt in &stmts {
            // When the master runs traced, the span nests under the
            // fabric write that delivered this chunk query (plugins run
            // in-line).
            let span = qserv_obs::trace::span("worker.statement");
            if let Some(g) = &span {
                g.annotate("node", &self.node_id.to_string());
            }
            let (result, path, stmt_scan) = execute_detailed(&scratch, stmt, ExecMode::Auto)
                .map_err(|e| format!("worker exec error: {e}"))?;
            scan.pages_pruned += stmt_scan.pages_pruned;
            scan.pages_scanned += stmt_scan.pages_scanned;
            scan.pages_cached += stmt_scan.pages_cached;
            self.stats.statements.fetch_add(1, Ordering::Relaxed);
            if path == ExecPath::Vectorized {
                self.stats
                    .vectorized_statements
                    .fetch_add(1, Ordering::Relaxed);
            }
            if let Some(g) = &span {
                g.annotate(
                    "exec_path",
                    match path {
                        ExecPath::Vectorized => "vectorized",
                        ExecPath::Interpreted => "interpreted",
                    },
                );
                g.annotate("rows", &result.rows.len().to_string());
                if stmt_scan.pages_pruned + stmt_scan.pages_scanned > 0 {
                    g.annotate("pages_pruned", &stmt_scan.pages_pruned.to_string());
                    g.annotate("pages_scanned", &stmt_scan.pages_scanned.to_string());
                    g.annotate("pages_cached", &stmt_scan.pages_cached.to_string());
                }
            }
            combined = Some(match combined {
                None => result,
                Some(mut acc) => {
                    if acc.columns != result.columns {
                        return Err(format!(
                            "statement results disagree on columns: {:?} vs {:?}",
                            acc.columns, result.columns
                        ));
                    }
                    acc.rows.extend(result.rows);
                    acc
                }
            });
        }
        let combined = combined.ok_or_else(|| "empty chunk query".to_string())?;
        Ok((combined.into_table(), scan))
    }

    /// Which on-demand table of `chunk` the name `name` denotes, and of
    /// which partitioned base table.
    fn classify(&self, name: &str, chunk: i32) -> Option<(&str, OnDemand)> {
        self.meta
            .table_names()
            .into_iter()
            .filter(|base| self.meta.partition_info(base).is_some())
            .find_map(|base| {
                let kind = if name == rewrite::union_table(base, chunk) {
                    OnDemand::Union
                } else if let Some(ss) = parse_suffixed(name, &format!("{base}_{chunk}_")) {
                    OnDemand::Subchunk(ss)
                } else if let Some(ss) =
                    parse_suffixed(name, &format!("{base}FullOverlap_{chunk}_"))
                {
                    OnDemand::FullOverlap(ss)
                } else {
                    return None;
                };
                Some((base, kind))
            })
    }

    /// Builds the `missing` on-demand tables from the chunk and overlap
    /// tables bound in `scratch`: one pass over each base's rows, however
    /// many subchunks the message names.
    fn generate(
        &self,
        scratch: &Database,
        chunk: i32,
        missing: &[Missing],
    ) -> Result<Vec<(String, Table)>, String> {
        let mut bases: Vec<&str> = Vec::new();
        for m in missing {
            if !bases.contains(&m.base.as_str()) {
                bases.push(&m.base);
            }
        }
        let mut generated = Vec::with_capacity(missing.len());
        for base in bases {
            let owned_name = rewrite::chunk_table(base, chunk);
            // An on-disk chunk file decodes through the residency cache.
            let owned = scratch
                .materialize(&owned_name)
                .map_err(|e| format!("decode {owned_name}: {e}"))?
                .ok_or_else(|| {
                    format!(
                        "chunk {chunk} of {base} not stored on node {}",
                        self.node_id
                    )
                })?;
            let overlap = scratch.table(&rewrite::overlap_table(base, chunk));
            let column = |name: &str| {
                owned
                    .schema()
                    .index_of(name)
                    .ok_or_else(|| format!("{owned_name} lacks {name}"))
            };

            // Where each row goes: `tables[i]` is the table of `wanted[i]`.
            let wanted: Vec<&Missing> = missing.iter().filter(|m| m.base == base).collect();
            let mut tables: Vec<Table> = wanted.iter().map(|_| owned.empty_like()).collect();
            let mut union = None;
            let mut by_subchunk: HashMap<i64, usize> = HashMap::new();
            let mut boxes = Vec::new();
            for (i, m) in wanted.iter().enumerate() {
                match m.kind {
                    OnDemand::Union => union = Some(i),
                    OnDemand::Subchunk(ss) => {
                        by_subchunk.insert(ss as i64, i);
                    }
                    OnDemand::FullOverlap(ss) => boxes.push((
                        i,
                        self.chunker
                            .subchunk_bounds_with_overlap(chunk, ss)
                            .map_err(|e| e.to_string())?,
                    )),
                }
            }
            let subchunk_col = (!by_subchunk.is_empty())
                .then(|| column("subChunkId"))
                .transpose()?;
            let position_cols = if boxes.is_empty() {
                None
            } else {
                let pinfo = self
                    .meta
                    .partition_info(base)
                    .expect("classified as a partitioned table");
                Some((column(&pinfo.lon_col)?, column(&pinfo.lat_col)?))
            };

            let sources = std::iter::once((&owned, true)).chain(overlap.map(|t| (t, false)));
            for (source, is_owned) in sources {
                for r in 0..source.num_rows() {
                    let mut put = |i: usize| {
                        tables[i].push_row(source.row(r)).expect("same schema");
                    };
                    // TUnion_CC = owned ∪ overlap.
                    if let Some(i) = union {
                        put(i);
                    }
                    // T_CC_SS: owned rows of one subchunk (by stored
                    // subChunkId).
                    if let (Some(col), true) = (subchunk_col, is_owned) {
                        if let Value::Int(ss) = source.get(r, col) {
                            if let Some(&i) = by_subchunk.get(&ss) {
                                put(i);
                            }
                        }
                    }
                    // TFullOverlap_CC_SS: all rows (owned + overlap store)
                    // within the subchunk's bounds dilated by the
                    // partition overlap.
                    if let Some((lon, lat)) = position_cols {
                        if let (Some(x), Some(y)) =
                            (source.get(r, lon).as_f64(), source.get(r, lat).as_f64())
                        {
                            let position = LonLat::from_degrees(x, y);
                            for (i, bounds) in &boxes {
                                if bounds.contains(&position) {
                                    put(*i);
                                }
                            }
                        }
                    }
                }
            }
            generated.extend(wanted.iter().map(|m| m.name.clone()).zip(tables));
        }
        Ok(generated)
    }
}

impl OfsPlugin for Worker {
    fn on_file_closed(&self, server: &DataServer, path: &str, data: &[u8]) {
        let Some(chunk) = path
            .strip_prefix("/query2/")
            .and_then(|s| s.parse::<i32>().ok())
        else {
            return; // not a chunk-query path
        };
        let payload = match std::str::from_utf8(data) {
            Ok(text) => join_sections(self.run_message(self.parse(chunk, text))),
            // One error text answers for every chunk of the message.
            Err(_) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                b"ERROR: chunk query is not UTF-8".to_vec()
            }
        };
        server.put_file(&result_path(&md5_hex(data)), payload);
    }
}

/// Joins a message's per-chunk result sections into the payload the
/// worker deposits: a bundle of one deposits its one section as is; a
/// longer one prefixes each section with its length (u64 LE). Sections
/// are a CRC-sealed result frame, `ERROR: <text>`, or empty for a chunk
/// the row budget left unrun.
pub(crate) fn join_sections(mut sections: Vec<Vec<u8>>) -> Vec<u8> {
    if sections.len() == 1 {
        return sections.pop().expect("one section");
    }
    let mut payload = Vec::with_capacity(sections.iter().map(|s| 8 + s.len()).sum());
    for section in &sections {
        payload.extend_from_slice(&(section.len() as u64).to_le_bytes());
        payload.extend_from_slice(section);
    }
    payload
}

/// Splits the payload of a `k`-chunk message back into its sections
/// ([`join_sections`]). A payload that is one `ERROR:` text — a message
/// that failed as a whole — answers for every chunk. Lengths that do not
/// tile the payload exactly are an error, so damage to a length is never
/// read as a shorter section, nor as a chunk left unrun.
pub(crate) fn split_sections(payload: &[u8], k: usize) -> Result<Vec<&[u8]>, String> {
    if k == 1 {
        // The first chunk always runs: it is never an unrun section.
        if payload.is_empty() {
            return Err("empty payload".to_string());
        }
        return Ok(vec![payload]);
    }
    if payload.starts_with(b"ERROR:") {
        return Ok(vec![payload; k]);
    }
    let mut sections = Vec::with_capacity(k);
    let mut rest = payload;
    while let Some((len, tail)) = rest.split_first_chunk::<8>() {
        let len = usize::try_from(u64::from_le_bytes(*len))
            .ok()
            .filter(|&len| len <= tail.len())
            .ok_or("a section overruns the payload")?;
        let (section, tail) = tail.split_at(len);
        sections.push(section);
        rest = tail;
    }
    if !rest.is_empty() || sections.len() != k {
        return Err(format!(
            "payload holds {} sections for {k} chunks",
            sections.len()
        ));
    }
    // The row budget stops a run: unrun sections form a suffix behind
    // at least one chunk that ran.
    let ran = sections.iter().take_while(|s| !s.is_empty()).count();
    if ran == 0 || sections[ran..].iter().any(|s| !s.is_empty()) {
        return Err("an unrun section before a chunk that ran".to_string());
    }
    Ok(sections)
}

/// The row budget of a message's statements: their `LIMIT n` when every
/// statement carries the same one and none orders its rows (an ordered
/// or aggregated chunk statement needs every chunk; the planner pushes
/// ORDER BY + LIMIT down only with its ORDER BY).
fn row_budget(stmts: &[SelectStatement]) -> Option<u64> {
    let n = stmts.first()?.limit?;
    stmts
        .iter()
        .all(|s| s.limit == Some(n) && s.order_by.is_empty() && s.group_by.is_empty())
        .then_some(n)
}

/// Parses `prefix<int>` names, returning the integer suffix.
fn parse_suffixed(name: &str, prefix: &str) -> Option<i32> {
    name.strip_prefix(prefix)?.parse().ok()
}

/// The leading `--` lines of a chunk-query message.
struct Header<'m> {
    /// `-- SUBCHUNKS:` — the (first) chunk's subchunks.
    subchunks: Vec<i32>,
    /// `-- CHUNKS:` — a bundle's chunks, the path's chunk first; empty
    /// for a bundle of one.
    chunks: Vec<i32>,
    /// `-- SUBCHUNKS <chunk>:` — a further chunk's own subchunks.
    per_chunk: Vec<(i32, Vec<i32>)>,
    /// The statements after the header.
    body: &'m str,
}

/// Parses a comma-separated id list.
fn parse_ids(list: &str, what: &str) -> Result<Vec<i32>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| part.parse().map_err(|_| format!("bad {what} id {part:?}")))
        .collect()
}

/// Reads the header lines of a message. Unknown `--` lines are skipped
/// (the master tags each message with a unique `-- QID:` line so that
/// two identical concurrent queries get distinct MD5 result paths); the
/// `-- SUBCHUNKS:` line is required among them.
fn parse_header(message: &str) -> Result<Header<'_>, String> {
    let mut rest = message;
    let mut subchunks_line: Option<&str> = None;
    let mut chunks = Vec::new();
    let mut per_chunk = Vec::new();
    while rest.starts_with("--") {
        let (line, tail) = match rest.split_once('\n') {
            Some((l, t)) => (l, t),
            None => (rest, ""),
        };
        if let Some(list) = line.strip_prefix("-- SUBCHUNKS:") {
            if subchunks_line.is_some() {
                return Err("duplicate SUBCHUNKS header".to_string());
            }
            subchunks_line = Some(list);
        } else if let Some(list) = line.strip_prefix("-- CHUNKS:") {
            chunks = parse_ids(list, "chunk")?;
        } else if let Some((chunk, list)) = line
            .strip_prefix("-- SUBCHUNKS ")
            .and_then(|l| l.split_once(':'))
        {
            let chunk = chunk
                .trim()
                .parse()
                .map_err(|_| format!("bad chunk id {chunk:?}"))?;
            per_chunk.push((chunk, parse_ids(list, "subchunk")?));
        }
        rest = tail;
    }
    let Some(list) = subchunks_line else {
        return Err("missing SUBCHUNKS header".to_string());
    };
    Ok(Header {
        subchunks: parse_ids(list, "subchunk")?,
        chunks,
        per_chunk,
        body: rest,
    })
}

/// Splits statements on ';' outside single-quoted strings.
fn split_statements(body: &str) -> Result<Vec<String>, String> {
    let mut statements = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ';' if !in_str => {
                let s = cur.trim().to_string();
                if !s.is_empty() {
                    statements.push(s);
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    let tail = cur.trim().to_string();
    if !tail.is_empty() {
        statements.push(tail);
    }
    if statements.is_empty() {
        return Err("chunk query contains no statements".to_string());
    }
    Ok(statements)
}

/// Splits a chunk-query message into its (first chunk's) subchunk list
/// and statements. Header lines other than `-- SUBCHUNKS:` are skipped;
/// see [`crate::rewrite::render_bundle_message`] for a bundle's.
pub fn parse_message(message: &str) -> Result<(Vec<i32>, Vec<String>), String> {
    let header = parse_header(message)?;
    Ok((header.subchunks, split_statements(header.body)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
    use qserv_engine::value::Value;
    use std::sync::Arc;

    fn object_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("objectId", ColumnType::Int),
            ColumnDef::new("ra_PS", ColumnType::Float),
            ColumnDef::new("decl_PS", ColumnType::Float),
            ColumnDef::new("chunkId", ColumnType::Int),
            ColumnDef::new("subChunkId", ColumnType::Int),
        ])
    }

    /// Builds a worker holding one Object chunk with a few rows placed by
    /// the real chunker.
    fn worker_with_chunk() -> (Worker, i32) {
        let chunker = Chunker::test_small();
        let meta = CatalogMeta::lsst();
        let worker = Worker::new(0, chunker.clone(), meta);
        // The chunk containing (15, 5).
        let chunk = install_object_chunk(&worker, 15.0);
        (worker, chunk)
    }

    /// Installs four objects (and one overlap row) in the chunk holding
    /// (`ra`, 5°), returning the chunk.
    fn install_object_chunk(worker: &Worker, ra: f64) -> i32 {
        let chunker = &worker.chunker;
        let probe = LonLat::from_degrees(ra, 5.0);
        let chunk = chunker.locate(&probe).chunk_id;
        let bounds = chunker.chunk_bounds(chunk).unwrap();
        let mut owned = Table::new(object_schema());
        // A handful of objects inside the chunk.
        for (i, (dlon, dlat)) in [(0.1, 0.1), (0.2, 0.2), (0.5, 0.5), (0.21, 0.2)]
            .iter()
            .enumerate()
        {
            let ra = bounds.lon_min_deg() + dlon;
            let decl = bounds.lat_min_deg() + dlat;
            let loc = chunker.locate(&LonLat::from_degrees(ra, decl));
            assert_eq!(loc.chunk_id, chunk);
            owned
                .push_row(vec![
                    Value::Int(i as i64 + 1),
                    Value::Float(ra),
                    Value::Float(decl),
                    Value::Int(chunk as i64),
                    Value::Int(loc.subchunk_id as i64),
                ])
                .unwrap();
        }
        owned.build_index("objectId").unwrap();
        // One overlap row: just outside the chunk's west edge.
        let mut overlap = Table::new(object_schema());
        overlap
            .push_row(vec![
                Value::Int(100),
                Value::Float(bounds.lon_min_deg() - 0.05),
                Value::Float(bounds.lat_min_deg() + 0.1),
                Value::Int(0),
                Value::Int(0),
            ])
            .unwrap();
        worker.install_chunk("Object", chunk, owned, overlap);
        chunk
    }

    #[test]
    fn message_parsing() {
        let (subs, stmts) =
            parse_message("-- SUBCHUNKS: 1, 2, 3\nSELECT 1;\nSELECT 'a;b';").unwrap();
        assert_eq!(subs, vec![1, 2, 3]);
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[1], "SELECT 'a;b'");
        let (subs, stmts) = parse_message("-- SUBCHUNKS:\nSELECT 1;").unwrap();
        assert!(subs.is_empty());
        assert_eq!(stmts.len(), 1);
        assert!(parse_message("SELECT 1;").is_err());
        assert!(parse_message("-- SUBCHUNKS: x\nSELECT 1;").is_err());
        assert!(parse_message("-- SUBCHUNKS: 1\n").is_err());
    }

    #[test]
    fn execute_simple_chunk_query() {
        let (worker, chunk) = worker_with_chunk();
        let msg = format!(
            "-- SUBCHUNKS:\nSELECT COUNT(*) AS `COUNT(*)` FROM LSST.Object_{chunk} AS Object;"
        );
        let t = worker.execute_message(chunk, &msg).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get_by_name(0, "COUNT(*)"), Some(Value::Int(4)));
    }

    #[test]
    fn union_table_generated_and_dropped() {
        let (worker, chunk) = worker_with_chunk();
        let msg =
            format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.ObjectUnion_{chunk} AS Object;");
        let t = worker.execute_message(chunk, &msg).unwrap();
        // 4 owned + 1 overlap row.
        assert_eq!(t.get_by_name(0, "c"), Some(Value::Int(5)));
        let (_q, _s, built, _e) = worker.stats.snapshot();
        assert_eq!(built, 1);
        // Never published: generated tables are message-local (§5.4).
        assert!(!worker
            .table_names()
            .contains(&format!("ObjectUnion_{chunk}")));
    }

    #[test]
    fn subchunk_tables_partition_owned_rows() {
        let (worker, chunk) = worker_with_chunk();
        // Count rows across every subchunk: must equal the owned total.
        let subchunks = worker.chunker.subchunks_of(chunk).unwrap();
        let mut msg = String::from("-- SUBCHUNKS:");
        msg.push_str(
            &subchunks
                .iter()
                .map(|s| format!(" {s}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        msg.push('\n');
        for ss in &subchunks {
            msg.push_str(&format!(
                "SELECT COUNT(*) AS c FROM LSST.Object_{chunk}_{ss} AS o1;\n"
            ));
        }
        let t = worker.execute_message(chunk, &msg).unwrap();
        let total: i64 = (0..t.num_rows())
            .map(|r| t.get_by_name(r, "c").unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(total, 4, "subchunks must exactly partition the chunk");
    }

    #[test]
    fn full_overlap_subchunk_includes_overlap_rows() {
        let (worker, chunk) = worker_with_chunk();
        // The overlap row sits just west of the chunk: the first subchunk
        // column's dilated bounds must include it.
        let bounds = worker.chunker.chunk_bounds(chunk).unwrap();
        let probe = LonLat::from_degrees(bounds.lon_min_deg() + 0.01, bounds.lat_min_deg() + 0.1);
        let ss = worker.chunker.locate(&probe).subchunk_id;
        let msg = format!(
            "-- SUBCHUNKS: {ss}\nSELECT COUNT(*) AS c FROM LSST.ObjectFullOverlap_{chunk}_{ss} AS o2;"
        );
        let t = worker.execute_message(chunk, &msg).unwrap();
        let c = t.get_by_name(0, "c").unwrap().as_i64().unwrap();
        assert!(
            c >= 1,
            "dilated subchunk must see the overlap row (got {c} rows)"
        );
    }

    #[test]
    fn simple_scans_run_vectorized() {
        let (worker, chunk) = worker_with_chunk();
        let msg = format!(
            "-- SUBCHUNKS:\nSELECT o.objectId FROM LSST.Object_{chunk} AS o WHERE o.objectId > 1;"
        );
        let t = worker.execute_message(chunk, &msg).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(worker.stats.vectorized(), 1);
    }

    #[test]
    fn missing_chunk_is_an_error() {
        let (worker, chunk) = worker_with_chunk();
        let other = chunk + 1;
        let msg = format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.Object_{other} AS o;");
        let err = worker.execute_message(other, &msg).unwrap_err();
        assert!(err.contains("not resident"), "{err}");
    }

    #[test]
    fn plugin_deposits_result_at_md5_path() {
        let (worker, chunk) = worker_with_chunk();
        let server = DataServer::new(0);
        let msg = format!(
            "-- SUBCHUNKS:\nSELECT COUNT(*) AS `COUNT(*)` FROM LSST.Object_{chunk} AS Object;"
        );
        worker.on_file_closed(&server, &format!("/query2/{chunk}"), msg.as_bytes());
        let deposited = server
            .get_file(&result_path(&md5_hex(msg.as_bytes())))
            .expect("result deposited");
        assert!(deposited.starts_with(FRAME_MAGIC));
        let (table, scan) = decode_frame(&deposited).unwrap();
        assert_eq!(table.get_by_name(0, "COUNT(*)"), Some(Value::Int(4)));
        assert_eq!(
            scan,
            ScanStats::default(),
            "an in-memory chunk pages nothing"
        );
    }

    #[test]
    fn plugin_deposits_error_text_on_failure() {
        let (worker, chunk) = worker_with_chunk();
        let server = DataServer::new(0);
        let msg = "-- SUBCHUNKS:\nSELECT broken syntax here;";
        worker.on_file_closed(&server, &format!("/query2/{chunk}"), msg.as_bytes());
        let deposited = server
            .get_file(&result_path(&md5_hex(msg.as_bytes())))
            .expect("error deposited");
        assert!(deposited.starts_with(b"ERROR:"));
        let (_q, _s, _b, errors) = worker.stats.snapshot();
        assert_eq!(errors, 1);
    }

    #[test]
    fn export_import_round_trips_a_chunk() {
        let (src, chunk) = worker_with_chunk();
        let files = src.export_chunk(chunk).unwrap();
        // Object owned + ObjectOverlap, as result frames (no chunk file).
        assert_eq!(
            files.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
            vec!["Object", "ObjectOverlap"]
        );
        assert!(files.iter().all(|(_, b)| b.starts_with(FRAME_MAGIC)));
        assert_eq!(src.export_chunk(chunk).unwrap(), files, "deterministic");
        let dst = Worker::new(1, src.chunker.clone(), CatalogMeta::lsst());
        assert!(!dst.holds_chunk(chunk));
        dst.import_chunk(chunk, &files, None).unwrap();
        assert!(dst.holds_chunk(chunk));
        let owned = rewrite::chunk_table("Object", chunk);
        let db = dst.db.read();
        let indexed = db.table(&owned).and_then(|t| t.indexed_column());
        assert_eq!(indexed, Some("objectId"), "the index is rebuilt");
        drop(db);
        // The replica answers the same chunk query identically, union
        // table included (owned + overlap survived the trip).
        let msg =
            format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.ObjectUnion_{chunk} AS o;");
        let a = src.execute_message(chunk, &msg).unwrap();
        let b = dst.execute_message(chunk, &msg).unwrap();
        assert_eq!(a.get_by_name(0, "c"), b.get_by_name(0, "c"));
        assert_eq!(b.get_by_name(0, "c"), Some(Value::Int(5)));
    }

    #[test]
    fn detach_chunk_drops_the_chunk_and_overlap_tables() {
        let (worker, chunk) = worker_with_chunk();
        // The union the message generates is message-local.
        let msg =
            format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.ObjectUnion_{chunk} AS o;");
        worker.execute_message(chunk, &msg).unwrap();
        assert!(worker.holds_chunk(chunk));
        let dropped = worker.detach_chunk(chunk);
        assert_eq!(dropped, 2, "owned + overlap");
        assert!(!worker.holds_chunk(chunk));
        assert!(worker.table_names().is_empty());
        assert_eq!(worker.detach_chunk(chunk), 0, "idempotent");
    }

    #[test]
    fn plugin_nacks_unheld_chunk_with_retryable_marker() {
        let (worker, chunk) = worker_with_chunk();
        let server = DataServer::new(0);
        let other = chunk + 1;
        let msg = format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.Object_{other} AS o;");
        worker.on_file_closed(&server, &format!("/query2/{other}"), msg.as_bytes());
        let deposited = server
            .get_file(&result_path(&md5_hex(msg.as_bytes())))
            .expect("NACK deposited");
        let text = String::from_utf8(deposited.to_vec()).unwrap();
        assert!(text.starts_with("ERROR: RETRYABLE:"), "{text}");
        assert!(text.contains(&format!("chunk {other}")), "{text}");
    }

    /// An HV statement on the chunk table and an SHV message whose
    /// subchunk tables are generated on demand.
    fn hv_and_shv_messages(worker: &Worker, chunk: i32) -> [String; 2] {
        let hv = format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.Object_{chunk} AS o;");
        let subchunks = worker.chunker.subchunks_of(chunk).unwrap();
        let mut shv = String::from("-- SUBCHUNKS:\n");
        for ss in &subchunks {
            shv.push_str(&format!(
                "SELECT COUNT(*) AS c FROM LSST.Object_{chunk}_{ss} AS o1, \
                 LSST.ObjectFullOverlap_{chunk}_{ss} AS o2;\n"
            ));
        }
        [hv, shv]
    }

    fn deposit_of(worker: &Worker, chunk: i32, msg: &str) -> String {
        let server = DataServer::new(0);
        worker.on_file_closed(&server, &format!("/query2/{chunk}"), msg.as_bytes());
        let deposited = server
            .get_file(&result_path(&md5_hex(msg.as_bytes())))
            .expect("something deposited");
        String::from_utf8(deposited.to_vec()).unwrap()
    }

    #[test]
    fn a_bound_message_outlives_a_detach() {
        let (worker, chunk) = worker_with_chunk();
        let files = worker.export_chunk(chunk).unwrap();
        for msg in hv_and_shv_messages(&worker, chunk) {
            let expected = worker.execute_message(chunk, &msg).unwrap();
            worker.detach_chunk(chunk);
            worker.import_chunk(chunk, &files, None).unwrap();

            // The drain lands between the residency decision and
            // execution: the message runs on the tables it bound.
            let bound = worker.bind(chunk, &msg).expect("resident at bind");
            worker.detach_chunk(chunk);
            let (table, _) = worker.run(bound).expect("runs on its bindings");
            assert!(qserv_engine::tables_bit_identical(&table, &expected));
            assert!(
                worker.table_names().is_empty(),
                "a detached chunk stays detached: {:?}",
                worker.table_names()
            );
            worker.import_chunk(chunk, &files, None).unwrap();
        }
    }

    #[test]
    fn a_detached_chunk_nacks_retryable_at_bind() {
        let (worker, chunk) = worker_with_chunk();
        let [hv, shv] = hv_and_shv_messages(&worker, chunk);
        worker.detach_chunk(chunk);
        for msg in [
            hv.as_str(),
            shv.as_str(),
            "-- SUBCHUNKS:\nSELECT broken syntax here;",
        ] {
            assert_eq!(worker.bind(chunk, msg).err(), Some(BindError::NotResident));
            let text = deposit_of(&worker, chunk, msg);
            assert!(text.starts_with("ERROR: RETRYABLE:"), "{text}");
        }
    }

    #[test]
    fn an_underivable_table_on_a_held_chunk_is_a_plain_error() {
        let (worker, chunk) = worker_with_chunk();
        let other = chunk + 1;
        for table in [
            format!("Nonesuch_{chunk}"),
            format!("Object_{other}"),
            format!("Object_{other}_3"),
        ] {
            let msg = format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.{table} AS o;");
            match worker.bind(chunk, &msg).err() {
                Some(BindError::Message(e)) => assert!(e.contains("no table"), "{e}"),
                other => panic!("{table}: expected a message error, got {other:?}"),
            }
            let text = deposit_of(&worker, chunk, &msg);
            assert!(text.starts_with("ERROR: node 0 has no table"), "{text}");
        }
    }

    #[test]
    fn messages_complete_while_the_catalog_is_read_locked() {
        let (worker, chunk) = worker_with_chunk();
        let messages = hv_and_shv_messages(&worker, chunk);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            // A reader (an export, a footprint probe) holds the catalog:
            // a message must not need the write lock to run.
            let guard = worker.db.read();
            scope.spawn(|| {
                for msg in &messages {
                    worker.execute_message(chunk, msg).unwrap();
                }
                done.send(()).unwrap();
            });
            let outcome = finished.recv_timeout(std::time::Duration::from_secs(20));
            drop(guard);
            outcome.expect("messages blocked behind a read guard");
        });
    }

    #[test]
    fn uncached_messages_leave_the_catalog_as_they_found_it() {
        let (worker, chunk) = worker_with_chunk();
        let before = (worker.table_names(), worker.footprint_bytes());
        for msg in hv_and_shv_messages(&worker, chunk) {
            worker.execute_message(chunk, &msg).unwrap();
            assert_eq!((worker.table_names(), worker.footprint_bytes()), before);
        }
        // Fails in its second statement, after the first generated and
        // used a subchunk table.
        let ss = worker.chunker.subchunks_of(chunk).unwrap()[0];
        let msg = format!(
            "-- SUBCHUNKS: {ss}\nSELECT COUNT(*) AS c FROM LSST.Object_{chunk}_{ss} AS o;\n\
             SELECT o.nonesuch FROM LSST.ObjectFullOverlap_{chunk}_{ss} AS o;"
        );
        let err = worker.execute_message(chunk, &msg).unwrap_err();
        assert!(err.contains("worker exec error"), "{err}");
        assert!(worker.stats.snapshot().2 > 0, "tables were generated");
        assert_eq!((worker.table_names(), worker.footprint_bytes()), before);
    }

    /// The decoded pages of on-disk chunks live in the residency cache
    /// that the catalog and every message-local view of it share: the
    /// footprint counts them, and counts them once.
    #[test]
    fn footprint_counts_the_shared_residency_once() {
        let (worker, chunk) = worker_with_chunk();
        let name = rewrite::chunk_table("Object", chunk);
        let owned = Arc::clone(worker.db.read().table(&name).unwrap());
        let path = std::env::temp_dir().join(format!(
            "qserv_worker_footprint_{}.qchunk",
            std::process::id()
        ));
        qserv_engine::write_table(&path, &owned, 2).unwrap();
        worker
            .install_chunk_file("Object", chunk, &path, owned.empty_like())
            .unwrap();
        let residency = Arc::new(qserv_engine::Residency::new(1 << 20));
        worker.set_residency(Arc::clone(&residency));

        let cold = worker.footprint_bytes();
        assert_eq!(cold, 0, "an empty overlap table and nothing decoded");
        let msg =
            format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.{name} AS o WHERE o.ra_PS > 0;");
        let (_, scan) = worker.execute_message_detailed(chunk, &msg).unwrap();
        assert_eq!((scan.pages_scanned, scan.pages_cached), (2, 0));
        let resident = residency.resident_bytes();
        assert_eq!(resident, 4 * (8 + 1), "ra_PS of four rows, with its mask");
        assert_eq!(worker.footprint_bytes(), resident);
        // A bound message holds a scoped view sharing the same cache.
        let bound = worker.bind(chunk, &msg).unwrap();
        assert_eq!(worker.footprint_bytes(), resident);
        let (_, scan) = worker.run(bound).unwrap();
        assert_eq!((scan.pages_scanned, scan.pages_cached), (2, 2));
        assert_eq!(worker.footprint_bytes(), resident);
        std::fs::remove_file(&path).unwrap();
    }

    /// The message the master sends `chunks` of `sql` as one bundle.
    fn bundle_message(worker: &Worker, sql: &str, chunks: &[i32]) -> String {
        let meta = CatalogMeta::lsst();
        let analysis = crate::analysis::analyze(&parse_select(sql).unwrap(), &meta).unwrap();
        let plan = rewrite::build_plan(&analysis, &meta).unwrap();
        let near = plan.join == crate::analysis::JoinClass::SubchunkNear;
        let bundle: Vec<(i32, Vec<i32>)> = chunks
            .iter()
            .map(|&c| {
                let subs = match near {
                    true => worker.chunker.subchunks_of(c).unwrap(),
                    false => Vec::new(),
                };
                (c, subs)
            })
            .collect();
        rewrite::render_bundle_message(&plan, &meta, &bundle)
    }

    fn sections_of(worker: &Worker, chunk: i32, msg: &str, k: usize) -> Vec<Vec<u8>> {
        let payload = deposit_bytes(worker, chunk, msg);
        split_sections(&payload, k)
            .unwrap()
            .into_iter()
            .map(<[u8]>::to_vec)
            .collect()
    }

    fn deposit_bytes(worker: &Worker, chunk: i32, msg: &str) -> Vec<u8> {
        let server = DataServer::new(0);
        worker.on_file_closed(&server, &format!("/query2/{chunk}"), msg.as_bytes());
        server
            .get_file(&result_path(&md5_hex(msg.as_bytes())))
            .expect("something deposited")
            .to_vec()
    }

    /// Each chunk of a bundle answers exactly what its own message
    /// answers — plain, union-joined and near-neighbour statements —
    /// from one parse of the first chunk's statements.
    #[test]
    fn a_bundle_answers_each_chunk_as_its_own_message() {
        let (worker, a) = worker_with_chunk();
        let b = install_object_chunk(&worker, 25.0);
        assert_ne!(a, b);
        for sql in [
            "SELECT objectId, ra_PS FROM Object WHERE decl_PS > 0",
            "SELECT COUNT(*) FROM Object o1, Object o2 WHERE o1.objectId = o2.objectId",
            "SELECT COUNT(*) FROM Object o1, Object o2 \
             WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.5",
        ] {
            let msg = bundle_message(&worker, sql, &[a, b]);
            let sections = sections_of(&worker, a, &msg, 2);
            for (chunk, section) in [a, b].into_iter().zip(&sections) {
                let alone = worker
                    .execute_message(chunk, &bundle_message(&worker, sql, &[chunk]))
                    .unwrap();
                let (table, _) = decode_frame(section).unwrap();
                assert!(
                    qserv_engine::tables_bit_identical(&table, &alone),
                    "{sql}: chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn an_unheld_chunk_nacks_its_own_section_only() {
        let (worker, a) = worker_with_chunk();
        let b = install_object_chunk(&worker, 25.0);
        let c = install_object_chunk(&worker, 35.0);
        worker.detach_chunk(b);
        let msg = bundle_message(&worker, "SELECT COUNT(*) FROM Object", &[a, b, c]);
        let sections = sections_of(&worker, a, &msg, 3);
        assert!(sections[0].starts_with(FRAME_MAGIC));
        let nack = String::from_utf8(sections[1].clone()).unwrap();
        assert!(nack.starts_with("ERROR: RETRYABLE:"), "{nack}");
        assert!(nack.contains(&format!("chunk {b}")), "{nack}");
        assert!(sections[2].starts_with(FRAME_MAGIC));
        assert_eq!(worker.stats.snapshot().3, 1, "one error section");
    }

    #[test]
    fn a_met_row_budget_leaves_the_rest_unrun() {
        let (worker, a) = worker_with_chunk();
        let b = install_object_chunk(&worker, 25.0);
        let limited = bundle_message(&worker, "SELECT objectId FROM Object LIMIT 3", &[a, b]);
        let sections = sections_of(&worker, a, &limited, 2);
        assert_eq!(decode_frame(&sections[0]).unwrap().0.num_rows(), 3);
        assert!(sections[1].is_empty(), "chunk {b} never ran");
        // Ordered or short of the budget, every chunk runs.
        for sql in [
            "SELECT objectId FROM Object LIMIT 7",
            "SELECT objectId FROM Object ORDER BY objectId LIMIT 3",
        ] {
            let msg = bundle_message(&worker, sql, &[a, b]);
            let sections = sections_of(&worker, a, &msg, 2);
            assert!(sections.iter().all(|s| s.starts_with(FRAME_MAGIC)), "{sql}");
        }
    }

    #[test]
    fn a_bundle_not_led_by_its_path_chunk_is_an_error() {
        let (worker, a) = worker_with_chunk();
        let b = install_object_chunk(&worker, 25.0);
        let msg = bundle_message(&worker, "SELECT COUNT(*) FROM Object", &[a, b]);
        let text = String::from_utf8(deposit_bytes(&worker, b, &msg)).unwrap();
        assert!(
            text.starts_with("ERROR: bundle is not led by chunk"),
            "{text}"
        );
    }

    #[test]
    fn sections_split_only_when_they_tile_the_payload() {
        let frames = vec![b"QFRAME01-a".to_vec(), b"QFRAME01-bc".to_vec(), Vec::new()];
        let payload = join_sections(frames.clone());
        let split = split_sections(&payload, 3).unwrap();
        assert_eq!(split, frames.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert!(split_sections(&payload, 2).is_err(), "one section too many");
        assert!(split_sections(&payload[..payload.len() - 1], 3).is_err());
        let mut longer = payload.clone();
        longer[0] += 1;
        assert!(split_sections(&longer, 3).is_err(), "a length overruns");
        let gap = join_sections(vec![b"x".to_vec(), Vec::new(), b"y".to_vec()]);
        assert!(split_sections(&gap, 3).is_err(), "unrun before ran");
        assert!(split_sections(&join_sections(vec![Vec::new(); 2]), 2).is_err());
        assert_eq!(
            split_sections(b"ERROR: boom", 2).unwrap(),
            vec![b"ERROR: boom"; 2]
        );
        assert_eq!(join_sections(vec![b"one".to_vec()]), b"one");
        assert!(
            split_sections(b"", 1).is_err(),
            "the first chunk always runs"
        );
    }

    #[test]
    fn non_query_paths_ignored() {
        let (worker, _chunk) = worker_with_chunk();
        let server = DataServer::new(0);
        worker.on_file_closed(&server, "/meta/whatever", b"data");
        assert_eq!(server.num_files(), 0);
    }
}

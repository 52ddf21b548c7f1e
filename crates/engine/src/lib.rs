//! Embedded per-worker SQL execution engine — the MySQL substitute.
//!
//! The original Qserv delegates per-chunk query execution to a MySQL server
//! on each worker (paper §5.1.1), deliberately staying loosely coupled:
//! "Qserv's design and implementation do not depend on specifics of MySQL
//! beyond glue code facilitating results transmission." This crate is that
//! pluggable engine, built from scratch:
//!
//! * [`value`] — the dynamic [`value::Value`] type with SQL (three-valued)
//!   comparison and arithmetic semantics.
//! * [`schema`] — column types and table schemas.
//! * [`table`] — columnar table storage with an optional integer
//!   primary-key index (the per-chunk `objectId` index of paper §5.5).
//! * [`functions`] — scalar UDFs installed on every worker: `fluxToAbMag`,
//!   `abMagToFlux`, `qserv_angSep`, `qserv_ptInSphericalBox` (paper §5.3).
//! * [`eval`] — expression evaluation over row bindings.
//! * [`exec`] — the query executor: filtered scans, index lookups,
//!   hash-equi-joins and nested-loop spatial joins, grouping/aggregation,
//!   ordering, projection. Single-table scans run on a vectorized path
//!   (`compile` + `vector`) when compilable, with the interpreter as
//!   fallback and semantic oracle.
//! * `compile` — per-query compilation of predicates and projections
//!   into columnar kernels and flat programs.
//! * `vector` — columnar kernel execution over selection vectors.
//! * `joinvec` — the vectorized near-neighbor join: precomputed unit
//!   vectors, declination-window pruning and a tight chord-distance loop
//!   for `qserv_angSep(...) < r` two-table predicates (worker-side
//!   near-neighbor self-joins and XMatch statements).
//! * [`dump`] — the paper's `mysqldump`-style result transfer (§5.4),
//!   kept as the §7.1 ablation: results now travel as result frames.
//! * [`db`] — a named collection of tables (one per worker in Qserv;
//!   chunk tables are named `Object_CC`, subchunk tables
//!   `Object_CC_SS`, exactly as in paper §5.2).
//! * [`storage`] — the persistent columnar chunk format: per-column
//!   pages with dictionary/RLE encodings and zone maps, a byte-budgeted
//!   LRU of decoded column pages (lazy chunk residency), zone-map
//!   page elision feeding the vectorized scan path (paper §4.3, §5.2),
//!   and the checksummed result frames tables cross the fabric as.

pub(crate) mod compile;
pub mod db;
pub mod dump;
pub mod eval;
pub mod exec;
pub mod functions;
pub(crate) mod joinvec;
pub mod schema;
pub mod storage;
pub mod table;
pub mod value;
pub(crate) mod vector;

pub use db::Database;
pub use exec::{
    execute, execute_detailed, execute_with_mode, ExecError, ExecMode, ExecPath, ResultTable,
    ScanStats,
};
pub use schema::{ColumnDef, ColumnType, Schema};
pub use storage::{
    tables_bit_identical, write_table, ChunkFile, Residency, ResidencyStats, StoredChunk,
    StreamWriter, DEFAULT_PAGE_ROWS, DEFAULT_RESIDENCY_BUDGET,
};
pub use table::Table;
pub use value::Value;

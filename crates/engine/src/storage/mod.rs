//! Persistent columnar chunk storage: the on-disk format behind lazy
//! chunk residency.
//!
//! The paper assumes each worker serves chunks from a disk-resident,
//! scan-oriented store (§4.3 "shared scanning", §5.2) rather than from
//! RAM. This module supplies that store for the embedded engine: one
//! *chunk file* per chunk table, laid out column-major in fixed-row-count
//! pages so a scan touches only the columns (and, via zone maps, only the
//! pages) it needs.
//!
//! ## File layout
//!
//! ```text
//! +----------+----------------------------+--------+-----------+----------+
//! | "QCHUNK01" | page blobs (row-group    | footer | footer len | "QFOOTR01" |
//! |  magic     |  stripes, col-major)     |        |  (u64 LE)  |  tail      |
//! +----------+----------------------------+--------+-----------+----------+
//! ```
//!
//! Rows are buffered `page_rows` at a time and flushed as one *row-group
//! stripe*: one page per column, written back to back. Each page carries
//! its own null bitmap and one of several encodings — plain little-endian
//! values, run-length runs, or a dictionary for low-cardinality integer
//! and string columns; the writer picks whichever is smallest per page.
//! Floats are stored as raw IEEE-754 bits, so NaN payloads and signed
//! zeros round-trip bit-identically.
//!
//! The footer holds the schema, the row count, the indexed-column name,
//! and a page directory: per column, per stripe, the byte extent,
//! encoding, null count and a *zone map* (min/max over non-NULL,
//! non-NaN values). A reader parses only the footer at open time; page
//! bytes are fetched on demand with positioned reads, so opening a chunk
//! costs O(footer) memory regardless of file size.
//!
//! ## Zone-map page elision
//!
//! `prune_mask` evaluates the compiled filter kernels of a vectorized
//! plan against the per-page zone maps and marks every stripe that
//! *provably* yields no passing row. Elision is conservative: a stripe is
//! skipped only when some kernel rejects all of its rows under the exact
//! comparison semantics the kernel itself uses (integer bounds compare as
//! `i64`; anything mixed compares through the same monotone `as f64`
//! conversion the kernel applies; NULL and NaN values fail every range
//! predicate, so a page with no valid values is skipped outright).
//! General program kernels never prune.
//!
//! ## Residency
//!
//! The decoded **column page** — (chunk file, column, row group) — is the
//! one unit this module reads, decodes, caches and evicts. [`Residency`]
//! is a byte-budgeted LRU of those pages, shared by every clone of a
//! [`crate::Database`]. A paged scan asks it for exactly the kept row
//! groups of the columns the statement names: a hit touches no file, a
//! miss reads and decodes that one page and admits it. [`StoredChunk`] is
//! the catalog-side handle: footer plus an empty *shape* table (schema +
//! index definition) that planners compile against without touching row
//! data. Whole-table materialization for the interpreter and joins
//! ([`StoredChunk::resident`]) is assembled from the same pages under
//! the same budget; only [`ChunkFile::read_all`] decodes past the cache.
//!
//! ## Result frames
//!
//! The same page encoders carry tables between nodes: [`encode_frame`]
//! writes a table as one page per column behind a header and ahead of a
//! CRC32C trailer, and [`decode_frame`] verifies and reads it back. Chunk
//! results travel from worker to master this way, and in-memory chunk
//! replicas between workers.
//!
//! ## Files
//!
//! `format` (layout, encoders, writer, footer) · `page` (page decode and
//! table assembly) · `zone` (zone-map pruning) · `cache` (residency and
//! the stored-chunk handle) · `frame` (result frames) · `crc` (CRC32C).

mod cache;
mod crc;
mod format;
mod frame;
mod page;
mod zone;

#[cfg(test)]
mod tests;

pub use cache::{Residency, ResidencyStats, StoredChunk, DEFAULT_RESIDENCY_BUDGET};
pub use crc::crc32c;
pub use format::{write_table, ChunkFile, StreamWriter, DEFAULT_PAGE_ROWS, MAGIC, TAIL};
pub use frame::{decode_frame, encode_frame, FRAME_MAGIC};
pub(crate) use zone::prune_mask;

use crate::table::{ColumnSlice, Table};

/// Planner-grade statistics for one numeric column of an in-memory
/// table: the zone-map summary plus row count and an exact
/// distinct-value count. Collected at write/load time (the loader runs
/// this over each chunk table it builds, right where it registers zone
/// maps), never read back from disk — the chunk-file format carries
/// only the per-page zone summaries and stays unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Rows in the table (including NULLs for this column).
    pub rows: u64,
    /// Count of non-NULL, non-NaN values.
    pub valid: u64,
    /// Minimum valid value (`+∞` when `valid == 0`).
    pub min: f64,
    /// Maximum valid value (`−∞` when `valid == 0`).
    pub max: f64,
    /// Exact count of distinct valid values. At catalog-simulation row
    /// counts an exact set fits easily; a sketch (HLL) would take this
    /// field's place at survey scale.
    pub distinct: u64,
}

/// Computes [`ColumnStats`] straight from an in-memory table. Distinct
/// values are deduplicated by bit pattern (`i64` bits for Int columns,
/// IEEE-754 bits for Float), so `-0.0` and `0.0` count as two — a
/// harmless over-count for selectivity purposes.
pub fn table_column_stats(t: &Table) -> Vec<ColumnStats> {
    let rows = t.num_rows() as u64;
    t.schema()
        .columns()
        .iter()
        .enumerate()
        .filter_map(|(i, def)| {
            let nulls = t.null_mask(i);
            let (mut valid, mut min, mut max) = (0u64, f64::INFINITY, f64::NEG_INFINITY);
            let mut seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
            match t.column_slice(i) {
                ColumnSlice::Int(vals) => {
                    for (&v, &n) in vals.iter().zip(nulls) {
                        if !n {
                            valid += 1;
                            min = min.min(v as f64);
                            max = max.max(v as f64);
                            seen.insert(v as u64);
                        }
                    }
                }
                ColumnSlice::Float(vals) => {
                    for (&v, &n) in vals.iter().zip(nulls) {
                        if !n && !v.is_nan() {
                            valid += 1;
                            min = min.min(v);
                            max = max.max(v);
                            seen.insert(v.to_bits());
                        }
                    }
                }
                ColumnSlice::Str(_) => return None,
            }
            Some(ColumnStats {
                name: def.name.clone(),
                rows,
                valid,
                min,
                max,
                distinct: seen.len() as u64,
            })
        })
        .collect()
}

/// Bit-level table equality: schema, row count, dense column storage
/// (floats by IEEE bits, so NaN payloads count) and null masks. Index
/// presence is ignored — it is derived state.
pub fn tables_bit_identical(a: &Table, b: &Table) -> bool {
    if a.schema() != b.schema() || a.num_rows() != b.num_rows() {
        return false;
    }
    for col in 0..a.schema().len() {
        if a.null_mask(col) != b.null_mask(col) {
            return false;
        }
        use ColumnSlice as S;
        let same = match (a.column_slice(col), b.column_slice(col)) {
            (S::Int(x), S::Int(y)) => x == y,
            (S::Float(x), S::Float(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| p.to_bits() == q.to_bits())
            }
            (S::Str(x), S::Str(y)) => x == y,
            _ => false,
        };
        if !same {
            return false;
        }
    }
    true
}

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
//! [`StoredChunk`] is the catalog-side handle: footer plus an empty
//! *shape* table (schema + index definition) that planners compile
//! against without touching row data. Full materialization for the
//! interpreter, joins and index seeks goes through [`Residency`], a
//! byte-budgeted LRU of decoded tables shared by every clone of a
//! [`crate::Database`] — the worker's lazy chunk residency.

use crate::compile::{Kernel, NumLit};
use crate::schema::{ColumnDef, ColumnType, Schema};
use crate::table::{ColumnData, Table};
use crate::value::Value;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Leading file magic (format version 1).
pub const MAGIC: &[u8; 8] = b"QCHUNK01";
/// Trailing magic after the footer length.
pub const TAIL: &[u8; 8] = b"QFOOTR01";
/// Default rows per page (one stripe buffers this many rows per column).
pub const DEFAULT_PAGE_ROWS: usize = 1024;
/// Default residency budget: 256 MiB of decoded tables.
pub const DEFAULT_RESIDENCY_BUDGET: u64 = 256 * 1024 * 1024;

const ENC_INT_PLAIN: u8 = 0;
const ENC_INT_RLE: u8 = 1;
const ENC_INT_DICT: u8 = 2;
const ENC_FLOAT_PLAIN: u8 = 3;
const ENC_STR_PLAIN: u8 = 4;
const ENC_STR_DICT: u8 = 5;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Per-page zone map: enough to decide, conservatively, whether a filter
/// kernel can possibly accept a row of the page.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum PageZone {
    /// Integer page: min/max over the `valid` (non-NULL) values;
    /// meaningful only when `valid > 0`.
    Int { valid: u64, min: i64, max: i64 },
    /// Float page: min/max over the `valid` (non-NULL, non-NaN) values,
    /// plus the NaN count (NaNs fail range predicates but poison spatial
    /// pruning conservatively).
    Float {
        valid: u64,
        nans: u64,
        min: f64,
        max: f64,
    },
    /// String page: no ordering statistics kept (catalog filters are
    /// numeric).
    Str,
}

/// Directory entry for one column page.
#[derive(Clone, Debug)]
pub(crate) struct PageMeta {
    offset: u64,
    len: u64,
    rows: u32,
    nulls: u32,
    encoding: u8,
    pub(crate) zone: PageZone,
}

/// Parsed chunk-file footer: schema, row count, index column and the
/// page directory (`pages[col][stripe]`).
#[derive(Clone, Debug)]
pub(crate) struct Footer {
    schema: Schema,
    rows: u64,
    page_rows: u32,
    index_col: Option<String>,
    pub(crate) pages: Vec<Vec<PageMeta>>,
}

impl Footer {
    /// Number of row-group stripes (pages per column).
    pub(crate) fn n_groups(&self) -> usize {
        self.pages.first().map(|p| p.len()).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Little-endian byte helpers.

fn w_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn w_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn w_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn w_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn w_str(buf: &mut Vec<u8>, s: &str) {
    w_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Sequential reader over a byte slice with range checks.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated chunk data"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64_bits(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-UTF-8 string in chunk file"))
    }
}

// ---------------------------------------------------------------------------
// Page encoding.

/// Packs the null mask as one bit per row (bit set = NULL).
fn encode_bitmap(buf: &mut Vec<u8>, nulls: &[bool]) {
    let mut byte = 0u8;
    for (i, &n) in nulls.iter().enumerate() {
        if n {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !nulls.len().is_multiple_of(8) {
        buf.push(byte);
    }
}

fn decode_bitmap(r: &mut ByteReader<'_>, rows: usize, out: &mut Vec<bool>) -> io::Result<u32> {
    let bytes = r.take(rows.div_ceil(8))?;
    let mut nulls = 0u32;
    for i in 0..rows {
        let is_null = bytes[i / 8] & (1 << (i % 8)) != 0;
        if is_null {
            nulls += 1;
        }
        out.push(is_null);
    }
    Ok(nulls)
}

/// Encodes one integer page, choosing the smallest of plain / RLE /
/// dictionary layouts.
fn encode_int_page(buf: &mut Vec<u8>, vals: &[i64]) -> u8 {
    let mut runs: Vec<(u32, i64)> = Vec::new();
    for &v in vals {
        match runs.last_mut() {
            Some((n, rv)) if *rv == v && *n < u32::MAX => *n += 1,
            _ => runs.push((1, v)),
        }
    }
    let mut distinct: Vec<i64> = runs.iter().map(|&(_, v)| v).collect();
    distinct.sort_unstable();
    distinct.dedup();

    let plain = 8 * vals.len();
    let rle = 4 + 12 * runs.len();
    let dict = if distinct.len() <= 256 {
        Some(4 + 8 * distinct.len() + vals.len())
    } else {
        None
    };

    if let Some(d) = dict {
        if d < plain && d <= rle {
            w_u32(buf, distinct.len() as u32);
            for &v in &distinct {
                w_i64(buf, v);
            }
            for &v in vals {
                let idx = distinct.binary_search(&v).expect("value in dictionary");
                w_u8(buf, idx as u8);
            }
            return ENC_INT_DICT;
        }
    }
    if rle < plain {
        w_u32(buf, runs.len() as u32);
        for &(n, v) in &runs {
            w_u32(buf, n);
            w_i64(buf, v);
        }
        return ENC_INT_RLE;
    }
    for &v in vals {
        w_i64(buf, v);
    }
    ENC_INT_PLAIN
}

/// Encodes one string page: plain length-prefixed values, or a sorted
/// dictionary when repetition makes it smaller.
fn encode_str_page(buf: &mut Vec<u8>, vals: &[String]) -> u8 {
    let mut distinct: Vec<&str> = vals.iter().map(|s| s.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();

    let plain: usize = vals.iter().map(|s| 4 + s.len()).sum();
    let dict: usize = 4 + distinct.iter().map(|s| 4 + s.len()).sum::<usize>() + 4 * vals.len();

    if distinct.len() <= u32::MAX as usize && dict < plain {
        w_u32(buf, distinct.len() as u32);
        for s in &distinct {
            w_str(buf, s);
        }
        for v in vals {
            let idx = distinct.binary_search(&v.as_str()).expect("in dictionary");
            w_u32(buf, idx as u32);
        }
        ENC_STR_DICT
    } else {
        for v in vals {
            w_str(buf, v);
        }
        ENC_STR_PLAIN
    }
}

/// Computes the zone map for one page.
fn page_zone(col: &ColumnSliceView<'_>, nulls: &[bool]) -> PageZone {
    match col {
        ColumnSliceView::Int(vals) => {
            let (mut valid, mut min, mut max) = (0u64, i64::MAX, i64::MIN);
            for (&v, &n) in vals.iter().zip(nulls) {
                if !n {
                    valid += 1;
                    min = min.min(v);
                    max = max.max(v);
                }
            }
            PageZone::Int { valid, min, max }
        }
        ColumnSliceView::Float(vals) => {
            let (mut valid, mut nans) = (0u64, 0u64);
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for (&v, &n) in vals.iter().zip(nulls) {
                if n {
                    continue;
                }
                if v.is_nan() {
                    nans += 1;
                } else {
                    valid += 1;
                    min = min.min(v);
                    max = max.max(v);
                }
            }
            PageZone::Float {
                valid,
                nans,
                min,
                max,
            }
        }
        ColumnSliceView::Str(_) => PageZone::Str,
    }
}

/// Borrowed page slice, by column type.
enum ColumnSliceView<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a [String]),
}

// ---------------------------------------------------------------------------
// Writer.

/// Streams rows into a chunk file in bounded memory: at most one
/// row-group stripe (`page_rows` rows) is buffered before it is encoded,
/// flushed and dropped. This is how `datagen` produces datasets larger
/// than RAM.
pub struct StreamWriter {
    out: BufWriter<File>,
    schema: Schema,
    page_rows: usize,
    index_col: Option<String>,
    buf: Table,
    pages: Vec<Vec<PageMeta>>,
    offset: u64,
    rows: u64,
}

impl StreamWriter {
    /// Creates `path` and writes the header. `page_rows` is the stripe
    /// height; [`DEFAULT_PAGE_ROWS`] suits catalog tables.
    pub fn create(path: &Path, schema: Schema, page_rows: usize) -> io::Result<StreamWriter> {
        assert!(page_rows > 0, "page_rows must be positive");
        let ncols = schema.len();
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        Ok(StreamWriter {
            out,
            buf: Table::new(schema.clone()),
            schema,
            page_rows,
            index_col: None,
            pages: vec![Vec::new(); ncols],
            offset: MAGIC.len() as u64,
            rows: 0,
        })
    }

    /// Declares the indexed column (must be an existing integer column);
    /// readers rebuild the index on full materialization.
    pub fn set_index_column(&mut self, name: &str) -> io::Result<()> {
        match self.schema.column(name) {
            Some(def) if def.ty == ColumnType::Int => {
                self.index_col = Some(name.to_string());
                Ok(())
            }
            _ => Err(bad(format!("index column {name:?} missing or not integer"))),
        }
    }

    /// Appends one row; flushes a stripe when the buffer fills.
    pub fn push_row(&mut self, row: Vec<Value>) -> io::Result<()> {
        self.buf
            .push_row(row)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        if self.buf.num_rows() >= self.page_rows {
            self.flush_stripe()?;
        }
        Ok(())
    }

    fn flush_stripe(&mut self) -> io::Result<()> {
        let rows = self.buf.num_rows();
        if rows == 0 {
            return Ok(());
        }
        for col in 0..self.schema.len() {
            let nulls = self.buf.null_mask(col);
            let view = match self.buf.column_slice(col) {
                crate::table::ColumnSlice::Int(v) => ColumnSliceView::Int(v),
                crate::table::ColumnSlice::Float(v) => ColumnSliceView::Float(v),
                crate::table::ColumnSlice::Str(v) => ColumnSliceView::Str(v),
            };
            let zone = page_zone(&view, nulls);
            let mut blob = Vec::new();
            encode_bitmap(&mut blob, nulls);
            let encoding = match view {
                ColumnSliceView::Int(vals) => encode_int_page(&mut blob, vals),
                ColumnSliceView::Float(vals) => {
                    for &v in vals {
                        w_u64(&mut blob, v.to_bits());
                    }
                    ENC_FLOAT_PLAIN
                }
                ColumnSliceView::Str(vals) => encode_str_page(&mut blob, vals),
            };
            self.out.write_all(&blob)?;
            self.pages[col].push(PageMeta {
                offset: self.offset,
                len: blob.len() as u64,
                rows: rows as u32,
                nulls: nulls.iter().filter(|&&n| n).count() as u32,
                encoding,
                zone,
            });
            self.offset += blob.len() as u64;
        }
        self.rows += rows as u64;
        self.buf = Table::new(self.schema.clone());
        Ok(())
    }

    /// Flushes the tail stripe and the footer; returns total bytes
    /// written.
    pub fn finish(mut self) -> io::Result<u64> {
        self.flush_stripe()?;
        let mut footer = Vec::new();
        w_u32(&mut footer, self.schema.len() as u32);
        for def in self.schema.columns() {
            w_str(&mut footer, &def.name);
            w_u8(
                &mut footer,
                match def.ty {
                    ColumnType::Int => 0,
                    ColumnType::Float => 1,
                    ColumnType::Str => 2,
                },
            );
        }
        w_u64(&mut footer, self.rows);
        w_u32(&mut footer, self.page_rows as u32);
        match &self.index_col {
            Some(name) => {
                w_u8(&mut footer, 1);
                w_str(&mut footer, name);
            }
            None => w_u8(&mut footer, 0),
        }
        let n_groups = self.pages.first().map(|p| p.len()).unwrap_or(0);
        w_u32(&mut footer, n_groups as u32);
        for col_pages in &self.pages {
            for p in col_pages {
                w_u64(&mut footer, p.offset);
                w_u64(&mut footer, p.len);
                w_u32(&mut footer, p.rows);
                w_u32(&mut footer, p.nulls);
                w_u8(&mut footer, p.encoding);
                match p.zone {
                    PageZone::Int { valid, min, max } => {
                        w_u64(&mut footer, valid);
                        w_i64(&mut footer, min);
                        w_i64(&mut footer, max);
                    }
                    PageZone::Float {
                        valid,
                        nans,
                        min,
                        max,
                    } => {
                        w_u64(&mut footer, valid);
                        w_u64(&mut footer, nans);
                        w_u64(&mut footer, min.to_bits());
                        w_u64(&mut footer, max.to_bits());
                    }
                    PageZone::Str => {}
                }
            }
        }
        self.out.write_all(&footer)?;
        self.out.write_all(&(footer.len() as u64).to_le_bytes())?;
        self.out.write_all(TAIL)?;
        self.out.flush()?;
        Ok(self.offset + footer.len() as u64 + 16)
    }

    /// Rows pushed so far (flushed + buffered).
    pub fn rows_written(&self) -> u64 {
        self.rows + self.buf.num_rows() as u64
    }
}

/// Writes an in-memory table to a chunk file (index column carried over);
/// returns the file size in bytes.
pub fn write_table(path: &Path, table: &Table, page_rows: usize) -> io::Result<u64> {
    let mut w = StreamWriter::create(path, table.schema().clone(), page_rows)?;
    if let Some(ic) = table.indexed_column() {
        let ic = ic.to_string();
        w.set_index_column(&ic)?;
    }
    for r in 0..table.num_rows() {
        w.push_row(table.row(r))?;
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Reader.

/// An open chunk file: parsed footer plus the path for positioned page
/// reads. Opening costs O(footer); no row data is loaded.
#[derive(Clone, Debug)]
pub struct ChunkFile {
    path: PathBuf,
    footer: Footer,
    file_bytes: u64,
}

impl ChunkFile {
    /// Opens `path` and parses the footer.
    pub fn open(path: &Path) -> io::Result<ChunkFile> {
        let mut f = File::open(path)?;
        let file_bytes = f.seek(SeekFrom::End(0))?;
        let mut head = [0u8; 8];
        f.seek(SeekFrom::Start(0))?;
        f.read_exact(&mut head)?;
        if &head != MAGIC {
            return Err(bad("not a chunk file (bad magic)"));
        }
        if file_bytes < (MAGIC.len() + 16) as u64 {
            return Err(bad("chunk file too short"));
        }
        let mut tail = [0u8; 16];
        f.seek(SeekFrom::End(-16))?;
        f.read_exact(&mut tail)?;
        if &tail[8..] != TAIL {
            return Err(bad("chunk file missing footer magic"));
        }
        let footer_len = u64::from_le_bytes(tail[..8].try_into().unwrap());
        if footer_len + 16 + MAGIC.len() as u64 > file_bytes {
            return Err(bad("chunk footer length out of range"));
        }
        let mut footer_bytes = vec![0u8; footer_len as usize];
        f.seek(SeekFrom::End(-16 - footer_len as i64))?;
        f.read_exact(&mut footer_bytes)?;
        let footer = parse_footer(&footer_bytes)?;
        Ok(ChunkFile {
            path: path.to_path_buf(),
            footer,
            file_bytes,
        })
    }

    /// The stored schema.
    pub fn schema(&self) -> &Schema {
        &self.footer.schema
    }

    /// Total row count.
    pub fn rows(&self) -> u64 {
        self.footer.rows
    }

    /// Number of row-group stripes (pages per column).
    pub fn row_groups(&self) -> usize {
        self.footer.n_groups()
    }

    /// The stripe height the file was written with.
    pub fn page_rows(&self) -> u32 {
        self.footer.page_rows
    }

    /// Declared index column, when any.
    pub fn index_column(&self) -> Option<&str> {
        self.footer.index_col.as_deref()
    }

    /// File size in bytes.
    pub fn on_disk_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// The chunk file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    pub(crate) fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Decodes the selected stripes into one table, preserving row order.
    ///
    /// `keep` selects stripes (`None` = all); `needed` selects columns
    /// (`None` = all). Unneeded columns are filled with non-NULL defaults
    /// — callers must only project columns they marked needed.
    pub(crate) fn read_groups(
        &self,
        keep: Option<&[bool]>,
        needed: Option<&[bool]>,
    ) -> io::Result<Table> {
        let schema = self.footer.schema.clone();
        let ncols = schema.len();
        let n_groups = self.footer.n_groups();
        let mut columns: Vec<ColumnData> = schema
            .columns()
            .iter()
            .map(|c| match c.ty {
                ColumnType::Int => ColumnData::Int(Vec::new()),
                ColumnType::Float => ColumnData::Float(Vec::new()),
                ColumnType::Str => ColumnData::Str(Vec::new()),
            })
            .collect();
        let mut nulls: Vec<Vec<bool>> = vec![Vec::new(); ncols];
        let mut rows = 0usize;

        let mut f = File::open(&self.path)?;
        let mut blob = Vec::new();
        for g in 0..n_groups {
            if let Some(k) = keep {
                if !k[g] {
                    continue;
                }
            }
            let group_rows = self
                .footer
                .pages
                .first()
                .map(|p| p[g].rows as usize)
                .unwrap_or(0);
            for (col, page_list) in self.footer.pages.iter().enumerate() {
                let page = &page_list[g];
                let wanted = needed.map(|n| n[col]).unwrap_or(true);
                if !wanted {
                    // Placeholder defaults; never projected by the caller.
                    match &mut columns[col] {
                        ColumnData::Int(v) => v.resize(rows + group_rows, 0),
                        ColumnData::Float(v) => v.resize(rows + group_rows, 0.0),
                        ColumnData::Str(v) => v.resize(rows + group_rows, String::new()),
                    }
                    nulls[col].resize(rows + group_rows, false);
                    continue;
                }
                blob.clear();
                blob.resize(page.len as usize, 0);
                f.seek(SeekFrom::Start(page.offset))?;
                f.read_exact(&mut blob)?;
                decode_page(&blob, page, &mut columns[col], &mut nulls[col])?;
            }
            rows += group_rows;
        }
        Ok(Table::from_dense(schema, columns, nulls, rows))
    }

    /// Fully materializes the chunk, rebuilding the declared index — the
    /// round-trip inverse of [`write_table`].
    pub fn read_all(&self) -> io::Result<Table> {
        let mut t = self.read_groups(None, None)?;
        if let Some(ic) = self.footer.index_col.clone() {
            t.build_index(&ic)
                .map_err(|e| bad(format!("stored index column invalid: {e}")))?;
        }
        Ok(t)
    }
}

fn parse_footer(bytes: &[u8]) -> io::Result<Footer> {
    let mut r = ByteReader::new(bytes);
    let ncols = r.u32()? as usize;
    let mut defs = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.str()?;
        let ty = match r.u8()? {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Str,
            other => return Err(bad(format!("unknown column type tag {other}"))),
        };
        defs.push(ColumnDef::new(&name, ty));
    }
    let schema = Schema::new(defs);
    let rows = r.u64()?;
    let page_rows = r.u32()?;
    let index_col = if r.u8()? == 1 { Some(r.str()?) } else { None };
    let n_groups = r.u32()? as usize;
    let mut pages = Vec::with_capacity(ncols);
    for col in 0..ncols {
        let ty = schema.columns()[col].ty;
        let mut list = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let offset = r.u64()?;
            let len = r.u64()?;
            let prows = r.u32()?;
            let nulls = r.u32()?;
            let encoding = r.u8()?;
            let zone = match ty {
                ColumnType::Int => PageZone::Int {
                    valid: r.u64()?,
                    min: r.i64()?,
                    max: r.i64()?,
                },
                ColumnType::Float => PageZone::Float {
                    valid: r.u64()?,
                    nans: r.u64()?,
                    min: r.f64_bits()?,
                    max: r.f64_bits()?,
                },
                ColumnType::Str => PageZone::Str,
            };
            list.push(PageMeta {
                offset,
                len,
                rows: prows,
                nulls,
                encoding,
                zone,
            });
        }
        pages.push(list);
    }
    let total: u64 = pages
        .first()
        .map(|p| p.iter().map(|m| m.rows as u64).sum())
        .unwrap_or(0);
    if ncols > 0 && total != rows {
        return Err(bad("page directory row count disagrees with footer"));
    }
    Ok(Footer {
        schema,
        rows,
        page_rows,
        index_col,
        pages,
    })
}

fn decode_page(
    blob: &[u8],
    page: &PageMeta,
    col: &mut ColumnData,
    nulls: &mut Vec<bool>,
) -> io::Result<()> {
    let rows = page.rows as usize;
    let mut r = ByteReader::new(blob);
    let null_count = decode_bitmap(&mut r, rows, nulls)?;
    if null_count != page.nulls {
        return Err(bad("page null count disagrees with directory"));
    }
    match (col, page.encoding) {
        (ColumnData::Int(out), ENC_INT_PLAIN) => {
            out.reserve(rows);
            for _ in 0..rows {
                out.push(r.i64()?);
            }
        }
        (ColumnData::Int(out), ENC_INT_RLE) => {
            let n_runs = r.u32()? as usize;
            let before = out.len();
            for _ in 0..n_runs {
                let n = r.u32()? as usize;
                let v = r.i64()?;
                out.resize(out.len() + n, v);
            }
            if out.len() - before != rows {
                return Err(bad("RLE run lengths disagree with page rows"));
            }
        }
        (ColumnData::Int(out), ENC_INT_DICT) => {
            let d = r.u32()? as usize;
            let mut dict = Vec::with_capacity(d);
            for _ in 0..d {
                dict.push(r.i64()?);
            }
            out.reserve(rows);
            for _ in 0..rows {
                let idx = r.u8()? as usize;
                out.push(*dict.get(idx).ok_or_else(|| bad("dict index range"))?);
            }
        }
        (ColumnData::Float(out), ENC_FLOAT_PLAIN) => {
            out.reserve(rows);
            for _ in 0..rows {
                out.push(r.f64_bits()?);
            }
        }
        (ColumnData::Str(out), ENC_STR_PLAIN) => {
            out.reserve(rows);
            for _ in 0..rows {
                out.push(r.str()?);
            }
        }
        (ColumnData::Str(out), ENC_STR_DICT) => {
            let d = r.u32()? as usize;
            let mut dict = Vec::with_capacity(d);
            for _ in 0..d {
                dict.push(r.str()?);
            }
            out.reserve(rows);
            for _ in 0..rows {
                let idx = r.u32()? as usize;
                out.push(
                    dict.get(idx)
                        .ok_or_else(|| bad("dict index range"))?
                        .clone(),
                );
            }
        }
        _ => {
            return Err(bad(format!(
                "encoding {} invalid for column",
                page.encoding
            )))
        }
    }
    Ok(())
}

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
                crate::table::ColumnSlice::Int(vals) => {
                    for (&v, &n) in vals.iter().zip(nulls) {
                        if !n {
                            valid += 1;
                            min = min.min(v as f64);
                            max = max.max(v as f64);
                            seen.insert(v as u64);
                        }
                    }
                }
                crate::table::ColumnSlice::Float(vals) => {
                    for (&v, &n) in vals.iter().zip(nulls) {
                        if !n && !v.is_nan() {
                            valid += 1;
                            min = min.min(v);
                            max = max.max(v);
                            seen.insert(v.to_bits());
                        }
                    }
                }
                crate::table::ColumnSlice::Str(_) => return None,
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
        use crate::table::ColumnSlice as S;
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

// ---------------------------------------------------------------------------
// Zone-map pruning against compiled kernels.

/// Marks the stripes a compiled plan must scan: `true` = keep. A stripe
/// is dropped only when some kernel *provably* rejects every row in it
/// (see module docs for the soundness argument); program kernels and any
/// shape we cannot reason about keep the stripe.
pub(crate) fn prune_mask(footer: &Footer, kernels: &[Kernel]) -> Vec<bool> {
    (0..footer.n_groups())
        .map(|g| !kernels.iter().any(|k| kernel_excludes_group(footer, k, g)))
        .collect()
}

fn lit_f64(l: NumLit) -> f64 {
    match l {
        NumLit::I(v) => v as f64,
        NumLit::F(v) => v,
    }
}

fn kernel_excludes_group(footer: &Footer, kernel: &Kernel, g: usize) -> bool {
    match kernel {
        Kernel::Range { col, lo, hi } => zone_excludes_range(&footer.pages[*col][g].zone, lo, hi),
        Kernel::IntIn { col, keys } => match footer.pages[*col][g].zone {
            PageZone::Int { valid, min, max } => {
                if valid == 0 {
                    return true; // NULL never matches IN.
                }
                // `keys` is sorted: any key inside [min, max]?
                let i = keys.partition_point(|&k| k < min);
                !(i < keys.len() && keys[i] <= max)
            }
            _ => false,
        },
        Kernel::Box2D { lon, lat, bx } => {
            let lon_z = float_view(&footer.pages[*lon][g].zone);
            let lat_z = float_view(&footer.pages[*lat][g].zone);
            let (Some(lon_z), Some(lat_z)) = (lon_z, lat_z) else {
                return false;
            };
            // All-NULL coordinate column: no point can be in the box.
            if lon_z.valid == 0 && lon_z.nans == 0 {
                return true;
            }
            if lat_z.valid == 0 && lat_z.nans == 0 {
                return true;
            }
            // NaN coordinates poison rectangle reasoning: keep the page.
            if lon_z.nans > 0 || lat_z.nans > 0 {
                return false;
            }
            // Latitude ranges are absolute — sound even when the query
            // box wraps in longitude.
            if lat_z.min >= -90.0 && lat_z.max <= 90.0 {
                let (blat_min, blat_max) = (bx.lat_min_deg(), bx.lat_max_deg());
                if lat_z.max < blat_min || lat_z.min > blat_max {
                    return true;
                }
            }
            // Longitude only when neither the box nor the data wraps.
            let (blon_min, blon_max) = (bx.lon_min_deg(), bx.lon_max_deg());
            if blon_min <= blon_max
                && lon_z.min >= 0.0
                && lon_z.max < 360.0
                && (lon_z.max < blon_min || lon_z.min > blon_max)
            {
                return true;
            }
            false
        }
        Kernel::FnRange { .. } | Kernel::Program(_) => false,
    }
}

struct FloatView {
    valid: u64,
    nans: u64,
    min: f64,
    max: f64,
}

fn float_view(zone: &PageZone) -> Option<FloatView> {
    match *zone {
        PageZone::Int { valid, min, max } => Some(FloatView {
            valid,
            nans: 0,
            min: min as f64,
            max: max as f64,
        }),
        PageZone::Float {
            valid,
            nans,
            min,
            max,
        } => Some(FloatView {
            valid,
            nans,
            min,
            max,
        }),
        PageZone::Str => None,
    }
}

/// True when a [`Kernel::Range`] rejects every row of a page with this
/// zone. NULLs and NaNs fail every range predicate, so `valid == 0`
/// excludes outright; otherwise the bound comparison mirrors the kernel:
/// exact `i64` when both sides are integers, the kernel's own monotone
/// `as f64` conversion for any mixed pair (monotonicity keeps the
/// conclusion sound even where the conversion is lossy).
fn zone_excludes_range(
    zone: &PageZone,
    lo: &Option<(NumLit, bool)>,
    hi: &Option<(NumLit, bool)>,
) -> bool {
    // A NaN literal bound makes the comparison false for every row.
    for b in [lo, hi].into_iter().flatten() {
        if let (NumLit::F(v), _) = b {
            if v.is_nan() {
                return true;
            }
        }
    }
    match *zone {
        PageZone::Str => false,
        PageZone::Int { valid, min, max } => {
            if valid == 0 {
                return true;
            }
            if let Some((lit, strict)) = lo {
                let out = match lit {
                    NumLit::I(b) => {
                        if *strict {
                            max <= *b
                        } else {
                            max < *b
                        }
                    }
                    NumLit::F(b) => {
                        let m = max as f64;
                        if *strict {
                            m <= *b
                        } else {
                            m < *b
                        }
                    }
                };
                if out {
                    return true;
                }
            }
            if let Some((lit, strict)) = hi {
                let out = match lit {
                    NumLit::I(b) => {
                        if *strict {
                            min >= *b
                        } else {
                            min > *b
                        }
                    }
                    NumLit::F(b) => {
                        let m = min as f64;
                        if *strict {
                            m >= *b
                        } else {
                            m > *b
                        }
                    }
                };
                if out {
                    return true;
                }
            }
            false
        }
        PageZone::Float {
            valid, min, max, ..
        } => {
            if valid == 0 {
                return true;
            }
            if let Some((lit, strict)) = lo {
                let b = lit_f64(*lit);
                if (*strict && max <= b) || (!*strict && max < b) {
                    return true;
                }
            }
            if let Some((lit, strict)) = hi {
                let b = lit_f64(*lit);
                if (*strict && min >= b) || (!*strict && min > b) {
                    return true;
                }
            }
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Residency: LRU over decoded chunks.

/// Byte-budgeted LRU of fully decoded chunk tables — the worker's lazy
/// chunk residency. Shared (behind `Arc`) by a [`crate::Database`] and
/// every [`crate::Database::scoped`] view of it, so the message-local
/// catalogs a worker executes against reuse one cache.
///
/// The most recently loaded chunk is always admitted, even when it alone
/// exceeds the budget; eviction trims least-recently-used entries down
/// to the budget afterwards. Tables checked out by running queries stay
/// alive through their `Arc`s regardless of eviction.
pub struct Residency {
    inner: Mutex<ResidencyInner>,
}

struct ResidencyInner {
    budget: u64,
    bytes: u64,
    /// LRU order: front = coldest.
    lru: Vec<(String, Arc<Table>)>,
}

impl fmt::Debug for Residency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("residency lock");
        f.debug_struct("Residency")
            .field("budget", &inner.budget)
            .field("bytes", &inner.bytes)
            .field("resident", &inner.lru.len())
            .finish()
    }
}

impl Residency {
    /// A residency cache with the given byte budget.
    pub fn new(budget_bytes: u64) -> Residency {
        Residency {
            inner: Mutex::new(ResidencyInner {
                budget: budget_bytes,
                bytes: 0,
                lru: Vec::new(),
            }),
        }
    }

    /// Changes the budget, evicting down to it.
    pub fn set_budget(&self, budget_bytes: u64) {
        let mut inner = self.inner.lock().expect("residency lock");
        inner.budget = budget_bytes;
        Self::evict(&mut inner);
    }

    /// Bytes of decoded tables currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().expect("residency lock").bytes
    }

    /// Number of resident chunks.
    pub fn resident_count(&self) -> usize {
        self.inner.lock().expect("residency lock").lru.len()
    }

    /// Drops every resident table (queries holding `Arc`s keep theirs).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("residency lock");
        inner.lru.clear();
        inner.bytes = 0;
    }

    fn lookup(&self, key: &str) -> Option<Arc<Table>> {
        let mut inner = self.inner.lock().expect("residency lock");
        let pos = inner.lru.iter().position(|(k, _)| k == key)?;
        let entry = inner.lru.remove(pos);
        let t = entry.1.clone();
        inner.lru.push(entry);
        Some(t)
    }

    fn admit(&self, key: String, t: Arc<Table>) {
        let mut inner = self.inner.lock().expect("residency lock");
        if let Some(pos) = inner.lru.iter().position(|(k, _)| k == &key) {
            let old = inner.lru.remove(pos);
            inner.bytes -= old.1.footprint_bytes();
        }
        inner.bytes += t.footprint_bytes();
        inner.lru.push((key, t));
        Self::evict(&mut inner);
    }

    fn evict(inner: &mut ResidencyInner) {
        while inner.bytes > inner.budget && inner.lru.len() > 1 {
            let (_, t) = inner.lru.remove(0);
            inner.bytes -= t.footprint_bytes();
        }
    }
}

impl Default for Residency {
    fn default() -> Residency {
        Residency::new(DEFAULT_RESIDENCY_BUDGET)
    }
}

/// A chunk table attached from disk: footer plus an empty *shape* table
/// (schema + index definition, zero rows) that query compilation runs
/// against without materializing any row data.
#[derive(Clone, Debug)]
pub struct StoredChunk {
    file: ChunkFile,
    shape: Arc<Table>,
}

impl StoredChunk {
    /// Opens a chunk file as an attachable stored table.
    pub fn open(path: &Path) -> io::Result<StoredChunk> {
        let file = ChunkFile::open(path)?;
        let mut shape = Table::new(file.schema().clone());
        if let Some(ic) = file.index_column() {
            let ic = ic.to_string();
            shape
                .build_index(&ic)
                .map_err(|e| bad(format!("stored index column invalid: {e}")))?;
        }
        Ok(StoredChunk {
            file,
            shape: Arc::new(shape),
        })
    }

    /// The underlying chunk file.
    pub fn file(&self) -> &ChunkFile {
        &self.file
    }

    /// The zero-row shape table (schema + index definition).
    pub fn shape(&self) -> &Arc<Table> {
        &self.shape
    }

    /// The resident decoded table when already cached (its LRU position
    /// is refreshed); `None` without touching disk otherwise.
    pub fn cached(&self, residency: &Residency) -> Option<Arc<Table>> {
        residency.lookup(&self.file.path().to_string_lossy())
    }

    /// The fully decoded table, via the residency cache: a hit returns
    /// the shared `Arc`; a miss decodes the whole file (cold read) and
    /// admits it, evicting LRU entries past the budget.
    pub fn resident(&self, residency: &Residency) -> io::Result<Arc<Table>> {
        if let Some(t) = self.cached(residency) {
            return Ok(t);
        }
        let t = Arc::new(self.file.read_all()?);
        residency.admit(self.file.path().to_string_lossy().into_owned(), t.clone());
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "qserv_storage_test_{}_{name}.qcf",
            std::process::id()
        ));
        p
    }

    fn mixed_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("objectId", ColumnType::Int),
            ColumnDef::new("flux", ColumnType::Float),
            ColumnDef::new("tag", ColumnType::Str),
        ]);
        let mut t = Table::new(schema);
        let odd_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Float(10.5), Value::Str("a".into())],
            vec![Value::Int(2), Value::Float(odd_nan), Value::Str("b".into())],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Int(4), Value::Float(-0.0), Value::Str("a".into())],
            vec![
                Value::Int(5),
                Value::Float(f64::NEG_INFINITY),
                Value::Str(String::new()),
            ],
        ];
        for r in rows {
            t.push_row(r).unwrap();
        }
        t.build_index("objectId").unwrap();
        t
    }

    #[test]
    fn roundtrip_bit_identical_including_nan_payloads() {
        let t = mixed_table();
        let path = tmp("roundtrip");
        write_table(&path, &t, 2).unwrap();
        let cf = ChunkFile::open(&path).unwrap();
        assert_eq!(cf.rows(), 5);
        assert_eq!(cf.row_groups(), 3);
        assert_eq!(cf.index_column(), Some("objectId"));
        let back = cf.read_all().unwrap();
        assert!(tables_bit_identical(&t, &back));
        // Index rebuilt on materialization.
        assert_eq!(back.index_lookup(4), &[3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_writer_matches_bulk_writer() {
        let t = mixed_table();
        let (pa, pb) = (tmp("stream_a"), tmp("stream_b"));
        write_table(&pa, &t, 2).unwrap();
        let mut w = StreamWriter::create(&pb, t.schema().clone(), 2).unwrap();
        w.set_index_column("objectId").unwrap();
        for r in 0..t.num_rows() {
            w.push_row(t.row(r)).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn low_cardinality_int_column_compresses() {
        let schema = Schema::new(vec![ColumnDef::new("chunkId", ColumnType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..4096 {
            t.push_row(vec![Value::Int((i / 1000) as i64)]).unwrap();
        }
        let path = tmp("rle");
        let bytes = write_table(&path, &t, 1024).unwrap();
        // Plain storage would be 8 * 4096 = 32 KiB of values alone.
        assert!(bytes < 8 * 4096, "low-cardinality ints should compress");
        let back = ChunkFile::open(&path).unwrap().read_all().unwrap();
        assert!(tables_bit_identical(&t, &back));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_strings_dictionary_encode() {
        let schema = Schema::new(vec![ColumnDef::new("band", ColumnType::Str)]);
        let mut t = Table::new(schema);
        for i in 0..2000 {
            t.push_row(vec![Value::Str(["u", "g", "r"][i % 3].into())])
                .unwrap();
        }
        let path = tmp("dict");
        let bytes = write_table(&path, &t, 1024).unwrap();
        assert!(
            bytes < 2000 * 5,
            "repeated strings should dictionary-encode"
        );
        let back = ChunkFile::open(&path).unwrap().read_all().unwrap();
        assert!(tables_bit_identical(&t, &back));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zone_maps_skip_nulls_and_nans() {
        let schema = Schema::new(vec![
            ColumnDef::new("n", ColumnType::Int),
            ColumnDef::new("x", ColumnType::Float),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Int(5), Value::Float(f64::NAN)])
            .unwrap();
        t.push_row(vec![Value::Null, Value::Float(2.5)]).unwrap();
        t.push_row(vec![Value::Int(-3), Value::Null]).unwrap();
        let path = tmp("zones");
        write_table(&path, &t, 1024).unwrap();
        let cf = ChunkFile::open(&path).unwrap();
        assert_eq!(
            cf.footer().pages[0][0].zone,
            PageZone::Int {
                valid: 2,
                min: -3,
                max: 5
            }
        );
        assert_eq!(
            cf.footer().pages[1][0].zone,
            PageZone::Float {
                valid: 1,
                nans: 1,
                min: 2.5,
                max: 2.5
            }
        );
        std::fs::remove_file(&path).ok();
    }

    fn range(col: usize, lo: Option<(NumLit, bool)>, hi: Option<(NumLit, bool)>) -> Kernel {
        Kernel::Range { col, lo, hi }
    }

    #[test]
    fn prune_mask_respects_zone_bounds() {
        // objectId 0..99 in stripes of 25.
        let schema = Schema::new(vec![ColumnDef::new("objectId", ColumnType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..100 {
            t.push_row(vec![Value::Int(i)]).unwrap();
        }
        let path = tmp("prune");
        write_table(&path, &t, 25).unwrap();
        let cf = ChunkFile::open(&path).unwrap();
        let f = cf.footer();

        // BETWEEN 30 AND 40 touches only the second stripe.
        let k = range(
            0,
            Some((NumLit::I(30), false)),
            Some((NumLit::I(40), false)),
        );
        assert_eq!(prune_mask(f, &[k]), vec![false, true, false, false]);

        // Strict bound at a stripe's max prunes it; non-strict keeps it.
        let k = range(0, Some((NumLit::I(24), true)), None);
        assert!(!prune_mask(f, &[k])[0]);
        let k = range(0, Some((NumLit::I(24), false)), None);
        assert!(prune_mask(f, &[k])[0]);

        // Float bounds via the monotone conversion.
        let k = range(0, None, Some((NumLit::F(12.5), false)));
        assert_eq!(prune_mask(f, &[k]), vec![true, false, false, false]);

        // IN-list keys prune stripes outside every key.
        let k = Kernel::IntIn {
            col: 0,
            keys: vec![3, 77],
        };
        assert_eq!(prune_mask(f, &[k]), vec![true, false, false, true]);

        // Program kernels never prune.
        let k = Kernel::Program(crate::compile::Program { ops: Vec::new() });
        assert_eq!(prune_mask(f, &[k]), vec![true; 4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_null_page_pruned_for_any_range() {
        let schema = Schema::new(vec![ColumnDef::new("x", ColumnType::Float)]);
        let mut t = Table::new(schema);
        for _ in 0..4 {
            t.push_row(vec![Value::Null]).unwrap();
        }
        t.push_row(vec![Value::Float(1.0)]).unwrap();
        let path = tmp("allnull");
        write_table(&path, &t, 4).unwrap();
        let cf = ChunkFile::open(&path).unwrap();
        let k = range(0, Some((NumLit::F(-1e18), false)), None);
        assert_eq!(prune_mask(cf.footer(), &[k]), vec![false, true]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn residency_lru_respects_budget() {
        let t = mixed_table();
        let (pa, pb) = (tmp("lru_a"), tmp("lru_b"));
        write_table(&pa, &t, 2).unwrap();
        write_table(&pb, &t, 2).unwrap();
        let a = StoredChunk::open(&pa).unwrap();
        let b = StoredChunk::open(&pb).unwrap();
        let one = t.footprint_bytes();

        // Budget for one table: loading the second evicts the first.
        let res = Residency::new(one + one / 2);
        let ta = a.resident(&res).unwrap();
        assert_eq!(res.resident_count(), 1);
        let _tb = b.resident(&res).unwrap();
        assert_eq!(res.resident_count(), 1);
        assert_eq!(res.resident_bytes(), one);
        // The evicted Arc stays usable.
        assert_eq!(ta.num_rows(), 5);
        // Re-loading A is a fresh decode, not the same Arc.
        let ta2 = a.resident(&res).unwrap();
        assert!(!Arc::ptr_eq(&ta, &ta2));
        // A hit returns the cached Arc.
        let ta3 = a.resident(&res).unwrap();
        assert!(Arc::ptr_eq(&ta2, &ta3));
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn open_rejects_corrupt_files() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"definitely not a chunk file").unwrap();
        assert!(ChunkFile::open(&path).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(ChunkFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shape_table_carries_schema_and_index() {
        let t = mixed_table();
        let path = tmp("shape");
        write_table(&path, &t, 2).unwrap();
        let sc = StoredChunk::open(&path).unwrap();
        assert_eq!(sc.shape().num_rows(), 0);
        assert_eq!(sc.shape().schema(), t.schema());
        assert_eq!(sc.shape().indexed_column(), Some("objectId"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table_roundtrips() {
        let schema = Schema::new(vec![ColumnDef::new("x", ColumnType::Float)]);
        let t = Table::new(schema);
        let path = tmp("empty");
        write_table(&path, &t, 8).unwrap();
        let cf = ChunkFile::open(&path).unwrap();
        assert_eq!(cf.rows(), 0);
        assert_eq!(cf.row_groups(), 0);
        assert!(tables_bit_identical(&t, &cf.read_all().unwrap()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn column_stats_count_rows_valid_and_distinct() {
        let t = mixed_table();
        let s = table_column_stats(&t);
        assert_eq!(s.len(), 2, "Str column filtered out");
        assert_eq!(s[0].name, "objectId");
        assert_eq!((s[0].rows, s[0].valid, s[0].distinct), (5, 4, 4));
        assert_eq!((s[0].min, s[0].max), (1.0, 5.0));
        // flux: NaN and NULL excluded from valid; -0.0 and -inf distinct.
        assert_eq!(s[1].name, "flux");
        assert_eq!((s[1].rows, s[1].valid, s[1].distinct), (5, 3, 3));
        assert_eq!((s[1].min, s[1].max), (f64::NEG_INFINITY, 10.5));
    }
}

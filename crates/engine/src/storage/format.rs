//! The `.qchunk` file format: layout constants, the page directory
//! (footer) with its zone maps, the page encoders and the streaming
//! writer, and [`ChunkFile::open`], which parses and bounds-checks a
//! footer. See the [module docs](super) for the layout.

use crate::schema::{ColumnDef, ColumnType, Schema};
use crate::table::{ColumnSlice, Table};
use crate::value::Value;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Leading file magic (format version 1).
pub const MAGIC: &[u8; 8] = b"QCHUNK01";
/// Trailing magic after the footer length.
pub const TAIL: &[u8; 8] = b"QFOOTR01";
/// Default rows per page (one stripe buffers this many rows per column).
pub const DEFAULT_PAGE_ROWS: usize = 1024;

pub(super) const ENC_INT_PLAIN: u8 = 0;
pub(super) const ENC_INT_RLE: u8 = 1;
pub(super) const ENC_INT_DICT: u8 = 2;
pub(super) const ENC_FLOAT_PLAIN: u8 = 3;
pub(super) const ENC_STR_PLAIN: u8 = 4;
pub(super) const ENC_STR_DICT: u8 = 5;

pub(super) fn bad(msg: impl Into<String>) -> io::Error {
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
    pub(super) offset: u64,
    pub(super) len: u64,
    pub(super) rows: u32,
    pub(super) nulls: u32,
    pub(super) encoding: u8,
    pub(crate) zone: PageZone,
}

/// Parsed chunk-file footer: schema, row count, index column and the
/// page directory (`pages[col][stripe]`).
#[derive(Clone, Debug)]
pub(crate) struct Footer {
    pub(super) schema: Schema,
    rows: u64,
    page_rows: u32,
    pub(super) index_col: Option<String>,
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

pub(super) fn w_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn w_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(super) fn w_u64(buf: &mut Vec<u8>, v: u64) {
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
pub(super) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(super) fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(super) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(super) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated chunk data"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(super) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    pub(super) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(super) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(super) fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(super) fn f64_bits(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub(super) fn str(&mut self) -> io::Result<String> {
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
fn page_zone(col: ColumnSlice<'_>, nulls: &[bool]) -> PageZone {
    match col {
        ColumnSlice::Int(vals) => {
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
        ColumnSlice::Float(vals) => {
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
        ColumnSlice::Str(_) => PageZone::Str,
    }
}

/// Encodes one column page — null bitmap, then the values in the
/// smallest layout for their type — and returns its encoding tag. The
/// one page encoder of chunk files and result frames.
pub(super) fn encode_page(buf: &mut Vec<u8>, col: ColumnSlice<'_>, nulls: &[bool]) -> u8 {
    encode_bitmap(buf, nulls);
    match col {
        ColumnSlice::Int(vals) => encode_int_page(buf, vals),
        ColumnSlice::Float(vals) => {
            buf.reserve(8 * vals.len());
            for &v in vals {
                w_u64(buf, v.to_bits());
            }
            ENC_FLOAT_PLAIN
        }
        ColumnSlice::Str(vals) => encode_str_page(buf, vals),
    }
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
            let view = self.buf.column_slice(col);
            let zone = page_zone(view, nulls);
            let mut blob = Vec::new();
            let encoding = encode_page(&mut blob, view, nulls);
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
        write_schema(&mut footer, &self.schema);
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
// Reader: open + footer.

/// An open chunk file: parsed footer plus the path for positioned page
/// reads. Opening costs O(footer); no row data is loaded and no
/// descriptor is kept.
#[derive(Clone, Debug)]
pub struct ChunkFile {
    /// Process-unique id of this open — the file part of a page-cache
    /// key. A clone is the same file; re-opening a path (the file may
    /// have been rewritten since) is a new one.
    pub(super) id: u64,
    path: PathBuf,
    pub(super) footer: Footer,
    file_bytes: u64,
}

impl ChunkFile {
    /// Opens `path` and parses the footer. Every length the file states
    /// (footer length, column and stripe counts, page extents) is checked
    /// against the file's size before anything is allocated for it.
    pub fn open(path: &Path) -> io::Result<ChunkFile> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        const FRAME: u64 = (MAGIC.len() + 8 + TAIL.len()) as u64;
        let mut f = File::open(path)?;
        let file_bytes = f.seek(SeekFrom::End(0))?;
        if file_bytes < FRAME {
            return Err(bad("chunk file too short"));
        }
        let mut head = [0u8; 8];
        f.seek(SeekFrom::Start(0))?;
        f.read_exact(&mut head)?;
        if &head != MAGIC {
            return Err(bad("not a chunk file (bad magic)"));
        }
        let mut tail = [0u8; 16];
        f.seek(SeekFrom::End(-16))?;
        f.read_exact(&mut tail)?;
        if &tail[8..] != TAIL {
            return Err(bad("chunk file missing footer magic"));
        }
        let footer_len = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
        if footer_len > file_bytes - FRAME {
            return Err(bad("chunk footer length out of range"));
        }
        let data_end = file_bytes - 16 - footer_len;
        let mut footer_bytes = vec![0u8; footer_len as usize];
        f.seek(SeekFrom::Start(data_end))?;
        f.read_exact(&mut footer_bytes)?;
        let footer = parse_footer(&footer_bytes, data_end)?;
        Ok(ChunkFile {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
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
}

/// Writes the column definitions: a `u32` count, then each column's
/// name and type tag. Chunk-file footers and result frames share it.
pub(super) fn write_schema(buf: &mut Vec<u8>, schema: &Schema) {
    w_u32(buf, schema.len() as u32);
    for def in schema.columns() {
        w_str(buf, &def.name);
        w_u8(
            buf,
            match def.ty {
                ColumnType::Int => 0,
                ColumnType::Float => 1,
                ColumnType::Str => 2,
            },
        );
    }
}

/// Reads what [`write_schema`] wrote. The column count is bounded by the
/// bytes left before anything is allocated for it, and a repeated name
/// is an error, not a panic.
pub(super) fn read_schema(r: &mut ByteReader<'_>) -> io::Result<Schema> {
    // The smallest column definition: an empty name and a type tag.
    const MIN_COLUMN_DEF: usize = 4 + 1;
    let ncols = r.u32()? as usize;
    if ncols > r.remaining() / MIN_COLUMN_DEF {
        return Err(bad("column count exceeds the bytes that follow"));
    }
    let mut defs: Vec<ColumnDef> = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.str()?;
        let ty = match r.u8()? {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Str,
            other => return Err(bad(format!("unknown column type tag {other}"))),
        };
        if defs.iter().any(|d| d.name == name) {
            return Err(bad(format!("duplicate column name {name:?}")));
        }
        defs.push(ColumnDef::new(&name, ty));
    }
    Ok(Schema::new(defs))
}

/// Parses a footer. `data_end` is the file offset where the page region
/// ends (and the footer starts): every page extent must lie inside
/// `[MAGIC.len(), data_end)`.
fn parse_footer(bytes: &[u8], data_end: u64) -> io::Result<Footer> {
    // The smallest directory entry (a Str page: no zone), used to bound
    // the stripe count the footer states by the bytes it actually has.
    const MIN_PAGE_ENTRY: usize = 8 + 8 + 4 + 4 + 1;

    let mut r = ByteReader::new(bytes);
    let schema = read_schema(&mut r)?;
    let ncols = schema.len();
    let rows = r.u64()?;
    let page_rows = r.u32()?;
    let index_col = if r.u8()? == 1 { Some(r.str()?) } else { None };
    let n_groups = r.u32()? as usize;
    if n_groups
        .checked_mul(ncols.max(1))
        .is_none_or(|entries| entries > r.remaining() / MIN_PAGE_ENTRY)
    {
        return Err(bad("footer stripe count exceeds footer size"));
    }
    let mut pages: Vec<Vec<PageMeta>> = Vec::with_capacity(ncols);
    for col in 0..ncols {
        let ty = schema.columns()[col].ty;
        let mut list = Vec::with_capacity(n_groups);
        for g in 0..n_groups {
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
            if offset < MAGIC.len() as u64
                || offset.checked_add(len).is_none_or(|end| end > data_end)
            {
                return Err(bad("page extent outside the file's page region"));
            }
            // One stripe, one height: the scan concatenates a stripe's
            // pages side by side.
            if prows > page_rows || pages.first().is_some_and(|c0| c0[g].rows != prows) {
                return Err(bad("page row count disagrees with its stripe"));
            }
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

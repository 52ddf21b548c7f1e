//! Page decode: one encoded column page of a chunk file becomes one
//! [`ColumnPage`] — dense values plus null mask — and pages concatenate
//! into scan tables. Decoding works on whole slices (one length check per
//! page, then `chunks_exact`), and every count a page states is checked
//! against the bytes it has before anything is allocated for it.

use super::format::{
    bad, ByteReader, ChunkFile, ENC_FLOAT_PLAIN, ENC_INT_DICT, ENC_INT_PLAIN, ENC_INT_RLE,
    ENC_STR_DICT, ENC_STR_PLAIN,
};
use crate::schema::ColumnType;
use crate::table::{ColumnData, Table};
use std::borrow::Borrow;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};

/// One decoded column page: the values of one column over one row-group
/// stripe, NULL slots holding the column default exactly as the writer
/// found them.
#[derive(Debug)]
pub(crate) struct ColumnPage {
    pub(super) data: ColumnData,
    pub(super) nulls: Vec<bool>,
}

impl ColumnPage {
    /// Heap bytes the page holds — what the residency budget counts.
    pub(super) fn bytes(&self) -> u64 {
        let values = match &self.data {
            ColumnData::Int(v) => 8 * v.len(),
            ColumnData::Float(v) => 8 * v.len(),
            ColumnData::Str(v) => v
                .iter()
                .map(|s| std::mem::size_of::<String>() + s.len())
                .sum(),
        };
        (values + self.nulls.len()) as u64
    }
}

impl ChunkFile {
    /// Reads and decodes the `(column, stripe)` pages in `wanted`, in
    /// that order, with one open of the file.
    pub(super) fn decode_pages(
        &self,
        wanted: impl IntoIterator<Item = (usize, usize)>,
    ) -> io::Result<Vec<ColumnPage>> {
        let mut f = File::open(self.path())?;
        let mut blob = Vec::new();
        wanted
            .into_iter()
            .map(|(col, g)| {
                let page = &self.footer.pages[col][g];
                // `open` bounded the extent by the file's size.
                blob.resize(page.len as usize, 0);
                f.seek(SeekFrom::Start(page.offset))?;
                f.read_exact(&mut blob)?;
                let ty = self.footer.schema.columns()[col].ty;
                decode_page(
                    &blob,
                    page.rows as usize,
                    page.nulls.into(),
                    page.encoding,
                    ty,
                )
            })
            .collect()
    }

    /// Rows in the stripes `groups` selects.
    fn rows_in(&self, groups: &[usize]) -> usize {
        self.footer
            .pages
            .first()
            .map(|p| groups.iter().map(|&g| p[g].rows as usize).sum())
            .unwrap_or(0)
    }

    /// Fully materializes the chunk, rebuilding the declared index — the
    /// round-trip inverse of [`super::write_table`]. The one decode that
    /// bypasses the residency cache (repair copies, offline tools).
    pub fn read_all(&self) -> io::Result<Table> {
        let cols: Vec<usize> = (0..self.footer.pages.len()).collect();
        let groups: Vec<usize> = (0..self.footer.n_groups()).collect();
        let pages = self.decode_pages(column_major(&cols, &groups))?;
        let table = assemble(self, &cols, &groups, &pages);
        with_index(table, self.index_column())
    }
}

/// The `(column, stripe)` pairs of `cols` × `groups`, column by column —
/// the page order [`assemble`] takes.
pub(super) fn column_major<'a>(
    cols: &'a [usize],
    groups: &'a [usize],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    cols.iter()
        .flat_map(move |&col| groups.iter().map(move |&g| (col, g)))
}

/// Builds the declared index on a fully materialized table.
pub(super) fn with_index(mut table: Table, index_col: Option<&str>) -> io::Result<Table> {
    if let Some(ic) = index_col {
        table
            .build_index(ic)
            .map_err(|e| bad(format!("stored index column invalid: {e}")))?;
    }
    Ok(table)
}

/// Concatenates decoded pages of `file` into the table of its stripes
/// `groups`, in that order. `pages` holds the pages of the columns `cols`
/// in [`column_major`] order; every other column is absent from the
/// table, not filled.
pub(super) fn assemble<P: Borrow<ColumnPage>>(
    file: &ChunkFile,
    cols: &[usize],
    groups: &[usize],
    pages: &[P],
) -> Table {
    let schema = file.schema();
    let rows = file.rows_in(groups);
    let mut columns: Vec<Option<(ColumnData, Vec<bool>)>> = vec![None; schema.len()];
    for (i, &col) in cols.iter().enumerate() {
        let mut data = ColumnData::with_capacity(schema.columns()[col].ty, rows);
        let mut nulls = Vec::with_capacity(rows);
        for page in &pages[i * groups.len()..(i + 1) * groups.len()] {
            let page: &ColumnPage = page.borrow();
            data.extend_from(&page.data);
            nulls.extend_from_slice(&page.nulls);
        }
        columns[col] = Some((data, nulls));
    }
    Table::from_columns(schema.clone(), columns, rows)
}

/// The first `n` little-endian 8-byte words of `body`.
fn words(body: &[u8], n: usize) -> io::Result<impl Iterator<Item = [u8; 8]> + '_> {
    let bytes = n
        .checked_mul(8)
        .and_then(|len| body.get(..len))
        .ok_or_else(truncated)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|w| w.try_into().expect("chunks_exact(8) yields 8 bytes")))
}

fn truncated() -> io::Error {
    bad("truncated chunk data")
}

/// Splits a little-endian `u32` count off the front of `body`.
fn counted(body: &[u8]) -> io::Result<(usize, &[u8])> {
    let (n, rest) = body.split_first_chunk::<4>().ok_or_else(truncated)?;
    Ok((u32::from_le_bytes(*n) as usize, rest))
}

/// Expands the one-bit-per-row null bitmap (bit set = NULL) and checks
/// its population against the directory's null count. Padding bits past
/// `rows` in the last byte are ignored.
fn decode_bitmap(bitmap: &[u8], rows: usize, expect_nulls: u64) -> io::Result<Vec<bool>> {
    let mut count: u64 = bitmap.iter().map(|b| u64::from(b.count_ones())).sum();
    if let (Some(last), pad @ 1..) = (bitmap.last(), rows % 8) {
        count -= u64::from((last >> pad).count_ones());
    }
    if count != expect_nulls {
        return Err(bad("page null count disagrees with directory"));
    }
    if count == 0 {
        return Ok(vec![false; rows]);
    }
    let mut nulls = Vec::with_capacity(bitmap.len() * 8);
    for &b in bitmap {
        nulls.extend_from_slice(&[
            b & 1 != 0,
            b & 2 != 0,
            b & 4 != 0,
            b & 8 != 0,
            b & 16 != 0,
            b & 32 != 0,
            b & 64 != 0,
            b & 128 != 0,
        ]);
    }
    nulls.truncate(rows);
    Ok(nulls)
}

/// Decodes one page blob of `rows` rows, `nulls` of them NULL, stored
/// in `encoding`, as a column of type `ty`.
pub(super) fn decode_page(
    blob: &[u8],
    rows: usize,
    nulls: u64,
    encoding: u8,
    ty: ColumnType,
) -> io::Result<ColumnPage> {
    // The bitmap bounds `rows` by the blob's size before any allocation.
    let (bitmap, body) = blob
        .split_at_checked(rows.div_ceil(8))
        .ok_or_else(truncated)?;
    let nulls = decode_bitmap(bitmap, rows, nulls)?;
    let data = match (ty, encoding) {
        (ColumnType::Int, ENC_INT_PLAIN) => {
            ColumnData::Int(words(body, rows)?.map(i64::from_le_bytes).collect())
        }
        (ColumnType::Int, ENC_INT_RLE) => {
            let (n_runs, body) = counted(body)?;
            let runs = n_runs
                .checked_mul(12)
                .and_then(|len| body.get(..len))
                .ok_or_else(truncated)?;
            let mut out = Vec::with_capacity(rows);
            for run in runs.chunks_exact(12) {
                let (n, v) = run.split_at(4);
                let n = u32::from_le_bytes(n.try_into().expect("4 bytes")) as usize;
                if n > rows - out.len() {
                    return Err(bad("RLE run lengths disagree with page rows"));
                }
                let v = i64::from_le_bytes(v.try_into().expect("8 bytes"));
                out.resize(out.len() + n, v);
            }
            if out.len() != rows {
                return Err(bad("RLE run lengths disagree with page rows"));
            }
            ColumnData::Int(out)
        }
        (ColumnType::Int, ENC_INT_DICT) => {
            let (d, body) = counted(body)?;
            let dict: Vec<i64> = words(body, d)?.map(i64::from_le_bytes).collect();
            let indices = body[8 * d..].get(..rows).ok_or_else(truncated)?;
            let out: Option<Vec<i64>> = indices
                .iter()
                .map(|&i| dict.get(i as usize).copied())
                .collect();
            ColumnData::Int(out.ok_or_else(|| bad("dict index range"))?)
        }
        (ColumnType::Float, ENC_FLOAT_PLAIN) => ColumnData::Float(
            words(body, rows)?
                .map(|w| f64::from_bits(u64::from_le_bytes(w)))
                .collect(),
        ),
        (ColumnType::Str, ENC_STR_PLAIN) => {
            // Each value is at least its own length prefix.
            if rows > body.len() / 4 {
                return Err(truncated());
            }
            let mut r = ByteReader::new(body);
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                out.push(r.str()?);
            }
            ColumnData::Str(out)
        }
        (ColumnType::Str, ENC_STR_DICT) => {
            let mut r = ByteReader::new(body);
            let d = r.u32()? as usize;
            // Each entry is at least its own length prefix.
            if d > r.remaining() / 4 {
                return Err(truncated());
            }
            let mut dict = Vec::with_capacity(d);
            for _ in 0..d {
                dict.push(r.str()?);
            }
            if rows > r.remaining() / 4 {
                return Err(truncated());
            }
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                let idx = r.u32()? as usize;
                out.push(
                    dict.get(idx)
                        .ok_or_else(|| bad("dict index range"))?
                        .clone(),
                );
            }
            ColumnData::Str(out)
        }
        _ => return Err(bad(format!("encoding {encoding} invalid for column"))),
    };
    Ok(ColumnPage { data, nulls })
}

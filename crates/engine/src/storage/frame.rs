//! The result frame: one table as checksummed column pages, the bytes a
//! chunk result (and an in-memory chunk replica) crosses the fabric as.
//!
//! ```text
//! +------------+----------+-------------+----------------------+---------+---------+
//! | "QFRAME01" | rows u64 | column defs | scan counters 3×u64  | pages   | CRC32C  |
//! |  magic     |          | (footer's)  | pruned/scanned/cached| 1 / col | u32 LE  |
//! +------------+----------+-------------+----------------------+---------+---------+
//! ```
//!
//! Each page is `encoding u8 · nulls u64 · len u64 · blob`, the blob being
//! exactly a chunk-file page (null bitmap, then the values in the
//! smallest layout), so floats travel as IEEE bits and NULL, NaN, −0.0
//! and `i64::MIN` come back bit-exact. The trailing CRC32C covers every
//! byte before it and is checked before anything is parsed: a frame
//! damaged in flight is an error, never a wrong row. Every count the
//! frame states is then bounded by the bytes it has, as in
//! [`super::ChunkFile::open`]. Encoding is deterministic: identical
//! tables give identical frames.

use super::crc::crc32c;
use super::format::{bad, encode_page, read_schema, w_u64, w_u8, write_schema, ByteReader};
use super::page::decode_page;
use crate::exec::ScanStats;
use crate::schema::ColumnType;
use crate::table::Table;
use std::io;

/// Leading frame magic (frame format version 1).
pub const FRAME_MAGIC: &[u8; 8] = b"QFRAME01";

/// Bytes of the trailing checksum.
const CRC_LEN: usize = 4;

/// Encodes `table` and the paged-scan counters that produced it as one
/// result frame.
pub fn encode_frame(table: &Table, scan: &ScanStats) -> Vec<u8> {
    let schema = table.schema();
    let rows = table.num_rows();
    let values: usize = schema
        .columns()
        .iter()
        .map(|c| match c.ty {
            ColumnType::Int | ColumnType::Float => 8 * rows,
            ColumnType::Str => 0,
        })
        .sum();
    let mut buf = Vec::with_capacity(64 + 24 * schema.len() + values + rows);
    buf.extend_from_slice(FRAME_MAGIC);
    w_u64(&mut buf, rows as u64);
    write_schema(&mut buf, schema);
    for counter in [scan.pages_pruned, scan.pages_scanned, scan.pages_cached] {
        w_u64(&mut buf, counter);
    }
    for col in 0..schema.len() {
        let nulls = table.null_mask(col);
        let encoding_at = buf.len();
        w_u8(&mut buf, 0);
        w_u64(&mut buf, nulls.iter().filter(|&&n| n).count() as u64);
        let len_at = buf.len();
        w_u64(&mut buf, 0);
        let encoding = encode_page(&mut buf, table.column_slice(col), nulls);
        let len = (buf.len() - len_at - 8) as u64;
        buf[encoding_at] = encoding;
        buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Verifies and decodes a frame from [`encode_frame`]. A checksum
/// mismatch, a count the bytes cannot hold, an unknown encoding or a
/// byte left over is an `InvalidData` error.
pub fn decode_frame(bytes: &[u8]) -> io::Result<(Table, ScanStats)> {
    let body = bytes
        .strip_prefix(FRAME_MAGIC)
        .ok_or_else(|| bad("not a result frame (bad magic)"))?;
    let (body, crc) = body
        .split_last_chunk::<CRC_LEN>()
        .ok_or_else(|| bad("result frame truncated"))?;
    if crc32c(&bytes[..bytes.len() - CRC_LEN]) != u32::from_le_bytes(*crc) {
        return Err(bad("result frame checksum mismatch"));
    }
    let mut r = ByteReader::new(body);
    let rows = usize::try_from(r.u64()?).map_err(|_| bad("result frame row count out of range"))?;
    let schema = read_schema(&mut r)?;
    if schema.is_empty() && rows > 0 {
        return Err(bad("result frame states rows but no columns"));
    }
    let scan = ScanStats {
        pages_pruned: r.u64()?,
        pages_scanned: r.u64()?,
        pages_cached: r.u64()?,
    };
    let mut columns = Vec::with_capacity(schema.len());
    for def in schema.columns() {
        let encoding = r.u8()?;
        let nulls = r.u64()?;
        let len = usize::try_from(r.u64()?).map_err(|_| bad("result page length out of range"))?;
        let page = decode_page(r.take(len)?, rows, nulls, encoding, def.ty)?;
        columns.push(Some((page.data, page.nulls)));
    }
    if r.remaining() != 0 {
        return Err(bad("bytes after the last result page"));
    }
    Ok((Table::from_columns(schema, columns, rows), scan))
}

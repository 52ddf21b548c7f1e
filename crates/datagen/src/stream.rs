//! Streaming loads: synthesized rows written straight to on-disk
//! columnar chunk files in bounded memory.
//!
//! The materialized path ([`Patch::generate`](crate::generate::Patch::generate) → tables → files) holds the
//! whole catalog in RAM twice. This module instead drains an
//! [`ObjectStream`] through the engine's
//! [`qserv_engine::StreamWriter`], which buffers only one
//! page stripe (1024 rows by default) before flushing to disk — peak
//! memory is independent of the dataset size, which is what lets a bench
//! query a dataset whose on-disk size exceeds the process's peak RSS.

use crate::generate::{CatalogConfig, ObjectStream, BANDS};
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::value::Value;
use qserv_engine::{StreamWriter, DEFAULT_PAGE_ROWS};
use std::io;
use std::path::Path;

/// The schema of a streamed Object chunk file: the catalog columns only
/// (no chunk bookkeeping — these files are single-segment stores, not
/// spatially partitioned chunks).
pub fn streamed_object_schema() -> Schema {
    let mut cols = vec![
        ColumnDef::new("objectId", ColumnType::Int),
        ColumnDef::new("ra_PS", ColumnType::Float),
        ColumnDef::new("decl_PS", ColumnType::Float),
    ];
    for band in BANDS {
        cols.push(ColumnDef::new(&format!("{band}Flux_PS"), ColumnType::Float));
    }
    cols.push(ColumnDef::new("uFlux_SG", ColumnType::Float));
    cols.push(ColumnDef::new("uRadius_PS", ColumnType::Float));
    Schema::new(cols)
}

/// What a streamed write produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamedFile {
    /// Object rows written.
    pub rows: u64,
    /// Final file size in bytes.
    pub bytes: u64,
}

/// Synthesizes `config.objects` objects and writes them to `path` as one
/// columnar chunk file, never holding more than one page stripe in
/// memory. Rows are bit-identical to `Patch::generate(config).objects`
/// (same RNG stream). The `objectId` column is marked as the file's
/// index column so attached chunks rebuild their point-lookup index.
pub fn stream_objects_to_file(
    config: &CatalogConfig,
    path: &Path,
    page_rows: usize,
) -> io::Result<StreamedFile> {
    let mut w = StreamWriter::create(path, streamed_object_schema(), page_rows)?;
    w.set_index_column("objectId")?;
    for (o, _sources) in ObjectStream::new(config) {
        let mut row = vec![
            Value::Int(o.object_id),
            Value::Float(o.ra_ps),
            Value::Float(o.decl_ps),
        ];
        for f in o.flux_ps {
            row.push(Value::Float(f));
        }
        row.push(Value::Float(o.u_flux_sg));
        row.push(Value::Float(o.u_radius_ps));
        w.push_row(row)?;
    }
    let rows = w.rows_written();
    let bytes = w.finish()?;
    Ok(StreamedFile { rows, bytes })
}

/// [`stream_objects_to_file`] with the engine's default page size.
pub fn stream_objects_to_file_default(
    config: &CatalogConfig,
    path: &Path,
) -> io::Result<StreamedFile> {
    stream_objects_to_file(config, path, DEFAULT_PAGE_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Patch;
    use qserv_engine::table::Table;
    use qserv_engine::tables_bit_identical;
    use qserv_engine::ChunkFile;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qserv-datagen-{}-{name}", std::process::id()));
        p
    }

    /// The streamed file decodes to exactly the table a materialized
    /// patch would build — float bits and all.
    #[test]
    fn streamed_file_matches_materialized_patch_bit_identically() {
        let cfg = CatalogConfig::small(700, 99);
        let path = tmp("stream-match.qchunk");
        let out = stream_objects_to_file(&cfg, &path, 128).unwrap();
        assert_eq!(out.rows, 700);

        let mut expect = Table::new(streamed_object_schema());
        for o in &Patch::generate(&cfg).objects {
            let mut row = vec![
                Value::Int(o.object_id),
                Value::Float(o.ra_ps),
                Value::Float(o.decl_ps),
            ];
            for f in o.flux_ps {
                row.push(Value::Float(f));
            }
            row.push(Value::Float(o.u_flux_sg));
            row.push(Value::Float(o.u_radius_ps));
            expect.push_row(row).unwrap();
        }
        let decoded = ChunkFile::open(&path).unwrap().read_all().unwrap();
        assert!(tables_bit_identical(&decoded, &expect));
        let _ = std::fs::remove_file(&path);
    }

    /// The stream and the materialized generator share one RNG schedule.
    #[test]
    fn object_stream_reproduces_patch_generate() {
        let cfg = CatalogConfig::small(250, 7);
        let p = Patch::generate(&cfg);
        let mut objects = Vec::new();
        let mut sources = Vec::new();
        for (o, s) in ObjectStream::new(&cfg) {
            objects.push(o);
            sources.extend(s);
        }
        assert_eq!(objects, p.objects);
        assert_eq!(sources, p.sources);
    }

    #[test]
    fn streamed_file_reports_real_size() {
        let cfg = CatalogConfig::small(64, 3);
        let path = tmp("stream-size.qchunk");
        let out = stream_objects_to_file_default(&cfg, &path).unwrap();
        assert_eq!(out.bytes, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_file(&path);
    }
}

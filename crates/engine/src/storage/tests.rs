//! Unit tests of the storage module, across its files.

use super::format::PageZone;
use super::*;
use crate::compile::{Kernel, NumLit};
use crate::schema::{ColumnDef, ColumnType, Schema};
use crate::table::{ColumnSlice, Table};
use crate::value::Value;
use std::path::PathBuf;
use std::sync::Arc;

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

/// A one-column integer table of `rows` rows (values `0..rows`) written
/// with two rows per page: every page decodes to 2 × 8 value bytes plus
/// 2 mask bytes.
fn int_chunk(name: &str, rows: i64) -> (PathBuf, StoredChunk) {
    let mut t = Table::new(Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]));
    for i in 0..rows {
        t.push_row(vec![Value::Int(i)]).unwrap();
    }
    let path = tmp(name);
    write_table(&path, &t, 2).unwrap();
    let chunk = StoredChunk::open(&path).unwrap();
    (path, chunk)
}

const INT_PAGE_BYTES: u64 = 2 * 8 + 2;

#[test]
fn residency_evicts_least_recently_used_pages_within_budget() {
    let (pa, a) = int_chunk("lru_a", 4);
    let (pb, b) = int_chunk("lru_b", 4);
    let res = Residency::new(2 * INT_PAGE_BYTES);

    // A's two pages fill the budget exactly.
    let (_, cached) = a.scan_table(&res, &[true, true], &[true]).unwrap();
    assert_eq!(cached, 0);
    assert_eq!(res.resident_pages(), 2);
    assert_eq!(res.resident_bytes(), 2 * INT_PAGE_BYTES);
    // One page of B pushes out A's coldest page (stripe 0) and no more.
    let (tb, _) = b.scan_table(&res, &[true, false], &[true]).unwrap();
    assert_eq!(tb.num_rows(), 2);
    assert_eq!(res.resident_pages(), 2);
    assert_eq!(res.stats().evicted_bytes, INT_PAGE_BYTES);
    // A again: stripe 1 is still resident, stripe 0 is read afresh.
    let (ta, cached) = a.scan_table(&res, &[true, true], &[true]).unwrap();
    assert_eq!(cached, 1);
    assert!(matches!(
        ta.column_slice(0),
        ColumnSlice::Int(&[0, 1, 2, 3])
    ));
    let stats = res.stats();
    assert_eq!((stats.hits, stats.misses), (1, 4));
    assert!(res.resident_bytes() <= 2 * INT_PAGE_BYTES);

    // Shrinking the budget evicts down to it; clearing empties the cache.
    res.set_budget(INT_PAGE_BYTES);
    assert_eq!(res.resident_pages(), 1);
    res.clear();
    assert_eq!((res.resident_pages(), res.resident_bytes()), (0, 0));
    std::fs::remove_file(&pa).ok();
    std::fs::remove_file(&pb).ok();
}

#[test]
fn scan_table_allocates_only_the_columns_it_is_asked_for() {
    let t = mixed_table();
    let path = tmp("projected");
    write_table(&path, &t, 2).unwrap();
    let chunk = StoredChunk::open(&path).unwrap();
    let res = Residency::default();

    let (scan, _) = chunk
        .scan_table(&res, &[true, true, true], &[false, true, false])
        .unwrap();
    assert_eq!(scan.num_rows(), 5);
    // The unreferenced columns are absent — no values, no mask.
    assert!(matches!(scan.column_slice(0), ColumnSlice::Int(&[])));
    assert!(matches!(scan.column_slice(2), ColumnSlice::Str(&[])));
    assert!(scan.null_mask(0).is_empty() && scan.null_mask(2).is_empty());
    // The referenced one is whole, bit for bit.
    let (ColumnSlice::Float(got), ColumnSlice::Float(want)) =
        (scan.column_slice(1), t.column_slice(1))
    else {
        panic!("flux is a float column");
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want));
    assert_eq!(scan.null_mask(1), t.null_mask(1));
    // And only its pages were decoded and admitted: one per stripe.
    assert_eq!(res.resident_pages(), 3);
    assert_eq!(res.stats().misses, 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_rescan_decodes_zero_pages_and_opens_no_file() {
    let (path, chunk) = int_chunk("warm", 6);
    let keep = [true, true, true];

    let res = Residency::default();
    let (first, cached) = chunk.scan_table(&res, &keep, &[true]).unwrap();
    assert_eq!(cached, 0);
    // With budget 0 nothing is kept: the same scan reads the file again.
    let none = Residency::new(0);
    for _ in 0..2 {
        let (t, cached) = chunk.scan_table(&none, &keep, &[true]).unwrap();
        assert_eq!(cached, 0);
        assert!(tables_bit_identical(&t, &first));
    }
    assert_eq!((none.resident_pages(), none.stats().hits), (0, 0));

    // With the file gone a resident chunk still scans; a cold one cannot.
    std::fs::remove_file(&path).unwrap();
    let (second, cached) = chunk.scan_table(&res, &keep, &[true]).unwrap();
    assert_eq!(cached, 3);
    assert!(tables_bit_identical(&second, &first));
    assert_eq!(res.stats().misses, 3, "the re-scan decoded nothing");
    assert!(chunk.scan_table(&none, &keep, &[true]).is_err());
}

#[test]
fn resident_table_is_assembled_from_the_cached_pages() {
    let t = mixed_table();
    let path = tmp("resident");
    write_table(&path, &t, 2).unwrap();
    let chunk = StoredChunk::open(&path).unwrap();
    let res = Residency::default();

    let whole = chunk.resident(&res).unwrap();
    assert!(tables_bit_identical(&whole, &t));
    assert_eq!(whole.index_lookup(4), &[3], "index rebuilt");
    let misses = res.stats().misses;
    assert_eq!(misses, 9, "three columns × three stripes");
    // Again: same pages, a new table.
    let again = chunk.resident(&res).unwrap();
    assert!(tables_bit_identical(&again, &t));
    assert!(!Arc::ptr_eq(&whole, &again));
    assert_eq!(res.stats().misses, misses);
    std::fs::remove_file(&path).ok();
}

/// Lengths a file states about itself must be checked against its size
/// before anything is allocated for them: each of these claims far more
/// than the file holds and must come back as an error, not an
/// out-of-memory abort.
#[test]
fn oversized_counts_are_rejected_before_allocating() {
    let (path, _) = int_chunk("hostile", 100);
    let good = std::fs::read(&path).unwrap();
    let n = good.len();
    let footer_len = u64::from_le_bytes(good[n - 16..n - 8].try_into().unwrap()) as usize;
    let footer = n - 16 - footer_len;
    // Footer of a one-column table "x": ncols · name · type · rows ·
    // page_rows · index flag · n_groups · first directory entry.
    let n_groups = footer + 4 + (4 + 1) + 1 + 8 + 4 + 1;
    let entry = n_groups + 4;
    let patches: [(&str, usize, &[u8]); 6] = [
        ("footer_len", n - 16, &u64::MAX.to_le_bytes()),
        ("ncols", footer, &u32::MAX.to_le_bytes()),
        ("n_groups", n_groups, &u32::MAX.to_le_bytes()),
        ("page.offset", entry, &u64::MAX.to_le_bytes()),
        ("page.len", entry + 8, &(u64::MAX / 2).to_le_bytes()),
        ("page.rows", entry + 16, &u32::MAX.to_le_bytes()),
    ];
    for (what, at, bytes) in patches {
        let mut bad = good.clone();
        bad[at..at + bytes.len()].copy_from_slice(bytes);
        std::fs::write(&path, &bad).unwrap();
        assert!(ChunkFile::open(&path).is_err(), "{what} accepted");
    }

    // An RLE run longer than its page: ten equal values are one run,
    // after the 8-byte magic, a 2-byte bitmap and the run count.
    let mut t = Table::new(Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]));
    for _ in 0..10 {
        t.push_row(vec![Value::Int(7)]).unwrap();
    }
    write_table(&path, &t, 16).unwrap();
    let mut bad = std::fs::read(&path).unwrap();
    let run = 8 + 2 + 4;
    assert_eq!(bad[run..run + 4], 10u32.to_le_bytes(), "layout moved");
    bad[run..run + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bad).unwrap();
    let file = ChunkFile::open(&path).unwrap();
    assert!(file.read_all().is_err());
    std::fs::remove_file(&path).ok();
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

//! Hostile `.qchunk` bytes and result frames: a chunk file is input we
//! do not control (a torn write, a bad disk, a repair copy mangled in
//! flight), and so is a result frame read off the fabric. Whatever is
//! done to a valid file — truncation, flipped bytes in the magic, the
//! pages, the footer or the tail, counts overwritten with huge values —
//! opening and scanning it must end in an `io::Error` or in rows, never
//! in a panic, a hang, or an allocation sized by a number the file merely
//! claims. Every allocation this test binary makes is watched: none may
//! exceed a small multiple of the input's own size.
//!
//! A result frame ends in a CRC32C, so there every truncation and every
//! single flipped bit is an error. Past the checksum — a frame re-sealed
//! around huge counts — the frame's own bounds checks must hold.
//!
//! What the format cannot yet promise is that a flipped *value* byte is
//! noticed: pages carry no checksum (ROADMAP, robustness (c)), so such a
//! file decodes to a table of the right shape with a wrong cell. The
//! properties below assert the shape, and an error wherever the format
//! does detect the damage.

use proptest::prelude::*;
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::storage::{crc32c, decode_frame, encode_frame, FRAME_MAGIC};
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use qserv_engine::{
    execute_detailed, tables_bit_identical, write_table, ChunkFile, Database, ExecMode, Residency,
    ScanStats,
};
use qserv_sqlparse::parse_select;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The system allocator, remembering the largest single request.
struct Watched;

static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed atomic max
// of the requested size, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Watched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watched = Watched;

/// No allocation may be larger than this for a file of `file_len` bytes:
/// a run-length page legitimately expands (one bitmap bit per row, eight
/// value bytes per row), nothing expands more.
fn allocation_limit(file_len: usize) -> usize {
    64 * file_len + (64 << 10)
}

/// Fails when any allocation so far broke the limit for the larger of the
/// two sample inputs (tests run in parallel, so the maximum is shared).
fn assert_allocations_bounded(input_len: usize) {
    let limit = allocation_limit(valid_file().0.len().max(valid_frame().len()));
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    assert!(
        largest <= limit,
        "an allocation of {largest} bytes for a {input_len}-byte input"
    );
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qserv-storage-hostile-{}-{name}.qchunk",
        std::process::id()
    ))
}

/// A table exercising every encoding: plain ints with NULLs, raw floats,
/// a run-length column, a dictionary int column and dictionary strings.
fn sample() -> Table {
    let mut t = Table::new(Schema::new(vec![
        ColumnDef::new("id", ColumnType::Int),
        ColumnDef::new("flux", ColumnType::Float),
        ColumnDef::new("chunkId", ColumnType::Int),
        ColumnDef::new("band", ColumnType::Int),
        ColumnDef::new("tag", ColumnType::Str),
    ]));
    for i in 0..90i64 {
        t.push_row(vec![
            if i % 11 == 3 {
                Value::Null
            } else {
                Value::Int(i * 7919)
            },
            Value::Float(i as f64 * 0.25 - 3.0),
            Value::Int(i / 40),
            Value::Int(i * i % 5),
            if i % 13 == 0 {
                Value::Null
            } else {
                Value::Str(["u", "g", "r"][i as usize % 3].to_string())
            },
        ])
        .unwrap();
    }
    t.build_index("id").unwrap();
    t
}

/// The valid file's bytes and the offset where its page region ends.
fn valid_file() -> &'static (Vec<u8>, usize) {
    static FILE: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = tmp("valid");
        write_table(&path, &sample(), 16).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let n = bytes.len();
        let footer_len = u64::from_le_bytes(bytes[n - 16..n - 8].try_into().unwrap()) as usize;
        (bytes, n - 16 - footer_len)
    })
}

/// Opens `bytes` as a chunk file and reads it every way the engine does:
/// `read_all`, a paged scan through a fresh cache, and the interpreter's
/// whole-table materialization. `Ok` carries the fully decoded table.
fn open_and_scan(name: &str, bytes: &[u8]) -> std::io::Result<Table> {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let outcome = read_every_way(&path);
    std::fs::remove_file(&path).unwrap();
    assert_allocations_bounded(bytes.len());
    outcome
}

fn read_every_way(path: &Path) -> std::io::Result<Table> {
    let whole = ChunkFile::open(path)?.read_all()?;
    let mut db = Database::new();
    db.set_residency(Arc::new(Residency::new(1 << 20)));
    db.attach_stored("t", path)?;
    for (sql, mode) in [
        (
            "SELECT COUNT(*), SUM(flux) FROM t WHERE id > 100 AND chunkId >= 0",
            ExecMode::Vectorized,
        ),
        ("SELECT * FROM t", ExecMode::Interpreted),
    ] {
        let stmt = parse_select(sql).expect("parses");
        match execute_detailed(&db, &stmt, mode) {
            Ok((rows, _, _)) => {
                if mode == ExecMode::Interpreted {
                    assert_eq!(rows.num_rows(), whole.num_rows());
                }
            }
            // A column the mutation renamed or retyped is the statement's
            // problem, not the storage layer's.
            Err(qserv_engine::ExecError::Storage(e)) => return Err(std::io::Error::other(e)),
            Err(_) => {}
        }
    }
    Ok(whole)
}

#[test]
fn the_valid_file_reads_back() {
    let decoded = open_and_scan("intact", &valid_file().0).unwrap();
    assert!(tables_bit_identical(&decoded, &sample()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A file cut short anywhere has lost its tail: always an error.
    #[test]
    fn truncation_is_an_error(cut in 0usize..10_000) {
        let (bytes, _) = valid_file();
        let cut = cut % bytes.len();
        prop_assert!(open_and_scan("cut", &bytes[..cut]).is_err());
    }

    /// One flipped byte, anywhere. In either magic it is always caught; in
    /// the pages the footer still describes the table, so whatever decodes
    /// has the original shape; in the footer or the length anything goes
    /// except a panic or an oversized allocation.
    #[test]
    fn a_flipped_byte_is_an_error_or_a_table(at in 0usize..10_000, mask in 1u16..256) {
        let (bytes, data_end) = valid_file();
        let (at, n) = (at % bytes.len(), bytes.len());
        let mut bad = bytes.clone();
        bad[at] ^= mask as u8;
        let outcome = open_and_scan("flip", &bad);
        if at < 8 || at >= n - 8 {
            prop_assert!(outcome.is_err(), "flipped magic byte {at} accepted");
        } else if let (Ok(table), true) = (&outcome, at < *data_end) {
            let original = sample();
            prop_assert_eq!(table.schema(), original.schema());
            prop_assert_eq!(table.num_rows(), original.num_rows());
        }
    }

    /// A count or length overwritten with a huge value — what an unchecked
    /// `footer_len`, `n_groups`, `page.len` or run length would turn into
    /// a multi-gigabyte allocation.
    #[test]
    fn huge_counts_are_an_error_or_a_table(
        at in 0usize..10_000,
        width in 1usize..9,
        fill in 0x7fu16..0x100,
    ) {
        let (bytes, _) = valid_file();
        let at = at % (bytes.len() - width);
        let mut bad = bytes.clone();
        bad[at..at + width].fill(fill as u8);
        let _ = open_and_scan("huge", &bad);
    }
}

// ---------------------------------------------------------------------------
// Result frames.

/// Counters a worker's paged scan reports alongside its result.
const SCAN: ScanStats = ScanStats {
    pages_pruned: 3,
    pages_scanned: 5,
    pages_cached: 4,
};

/// The frame of [`sample`], which covers every page encoding.
fn valid_frame() -> &'static Vec<u8> {
    static FRAME: OnceLock<Vec<u8>> = OnceLock::new();
    FRAME.get_or_init(|| encode_frame(&sample(), &SCAN))
}

/// Decodes `bytes` as a frame under the allocation watch.
fn decode_watched(bytes: &[u8]) -> std::io::Result<(Table, ScanStats)> {
    let outcome = decode_frame(bytes);
    assert_allocations_bounded(bytes.len());
    outcome
}

/// Recomputes the trailing CRC32C, so a test reaches the checks behind it.
fn reseal(frame: &mut [u8]) {
    let n = frame.len();
    let crc = crc32c(&frame[..n - 4]);
    frame[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn frames_round_trip_bit_exact() {
    let mut t = Table::new(Schema::new(vec![
        ColumnDef::new("i", ColumnType::Int),
        ColumnDef::new("f", ColumnType::Float),
        ColumnDef::new("s", ColumnType::Str),
    ]));
    let odd_nan = f64::from_bits(0x7ff8_0000_dead_beef);
    for (i, f, s) in [
        (Value::Null, Value::Null, Value::Null),
        (
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Str(String::new()),
        ),
        (
            Value::Int(i64::MAX),
            Value::Float(odd_nan),
            Value::Str("tab\there".into()),
        ),
        (
            Value::Int(0),
            Value::Float(-0.0),
            Value::Str("it's \"quoted\"".into()),
        ),
        (
            Value::Int(-1),
            Value::Float(f64::INFINITY),
            Value::Str("line\nbreak\r".into()),
        ),
        (
            Value::Null,
            Value::Float(f64::NEG_INFINITY),
            Value::Str("\\N".into()),
        ),
    ] {
        t.push_row(vec![i, f, s]).unwrap();
    }
    let empty = Table::new(t.schema().clone());
    let no_columns = Table::new(Schema::new(Vec::new()));
    for table in [t, sample(), empty, no_columns] {
        for scan in [ScanStats::default(), SCAN] {
            let frame = encode_frame(&table, &scan);
            assert!(frame.starts_with(FRAME_MAGIC));
            assert_eq!(encode_frame(&table, &scan), frame, "deterministic");
            let (back, back_scan) = decode_watched(&frame).unwrap();
            assert!(tables_bit_identical(&back, &table));
            assert_eq!(back_scan, scan);
        }
    }
}

#[test]
fn every_truncation_of_a_frame_is_an_error() {
    let frame = valid_frame();
    for cut in 0..frame.len() {
        assert!(decode_watched(&frame[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn every_single_bit_flip_in_a_frame_is_an_error() {
    let frame = valid_frame();
    for bit in 0..frame.len() * 8 {
        let mut bad = frame.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(decode_watched(&bad).is_err(), "bit {bit} accepted");
    }
}

#[test]
fn huge_frame_counts_are_errors() {
    // Byte offsets after the magic: the row count (u64), then the
    // column count (u32) that opens the column definitions.
    const ROWS: usize = 8;
    const COLUMNS: usize = 16;
    let frame = valid_frame();
    let mut cases: Vec<(usize, Vec<u8>)> = Vec::new();
    for rows in [u32::MAX as u64, u64::MAX, sample().num_rows() as u64 + 1] {
        cases.push((ROWS, rows.to_le_bytes().to_vec()));
    }
    cases.push((COLUMNS, u32::MAX.to_le_bytes().to_vec()));
    cases.push((COLUMNS, 6u32.to_le_bytes().to_vec()));
    for (at, value) in cases {
        let mut bad = frame.clone();
        bad[at..at + value.len()].copy_from_slice(&value);
        reseal(&mut bad);
        assert!(decode_watched(&bad).is_err(), "{value:?} at {at} accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Past the checksum: a count or length anywhere in a re-sealed frame
    /// overwritten with a huge value is an error or a table, never a
    /// panic or an oversized allocation.
    #[test]
    fn resealed_huge_values_are_an_error_or_a_table(
        at in 0usize..10_000,
        width in 1usize..9,
        fill in 0x7fu16..0x100,
    ) {
        let frame = valid_frame();
        let at = FRAME_MAGIC.len() + at % (frame.len() - FRAME_MAGIC.len() - 4 - width);
        let mut bad = frame.clone();
        bad[at..at + width].fill(fill as u8);
        reseal(&mut bad);
        let _ = decode_watched(&bad);
    }
}

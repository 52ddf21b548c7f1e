//! Hostile `.qchunk` bytes: a chunk file is input we do not control (a
//! torn write, a bad disk, a repair copy mangled in flight). Whatever is
//! done to a valid file — truncation, flipped bytes in the magic, the
//! pages, the footer or the tail, counts overwritten with huge values —
//! opening and scanning it must end in an `io::Error` or in rows, never
//! in a panic, a hang, or an allocation sized by a number the file merely
//! claims. Every allocation this test binary makes is watched: none may
//! exceed a small multiple of the file's own size.
//!
//! What the format cannot yet promise is that a flipped *value* byte is
//! noticed: pages carry no checksum (ROADMAP, robustness (c)), so such a
//! file decodes to a table of the right shape with a wrong cell. The
//! properties below assert the shape, and an error wherever the format
//! does detect the damage.

use proptest::prelude::*;
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use qserv_engine::{
    execute_detailed, tables_bit_identical, write_table, ChunkFile, Database, ExecMode, Residency,
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
    assert!(
        LARGEST_ALLOCATION.load(Ordering::Relaxed) <= allocation_limit(valid_file().0.len()),
        "an allocation of {} bytes for a {}-byte file",
        LARGEST_ALLOCATION.load(Ordering::Relaxed),
        bytes.len()
    );
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

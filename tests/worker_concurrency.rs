//! One worker under concurrent chunk-query messages and catalog churn.
//!
//! A worker binds each message to the tables it names under a read lock
//! and runs it on those bindings, generating on-demand subchunk tables
//! message-locally. This battery holds it to that: concurrent HV, LV and
//! SHV messages answer exactly as they do alone while another thread
//! exports, detaches, imports and installs chunks; a message for a chunk
//! in mid-move is either the right answer or the RETRYABLE NACK; nothing
//! a message generates is seen by another message; and the catalog ends
//! as it began.
//!
//! The seed comes from `QSERV_STRESS_SEED` (default 1), as in
//! `concurrent_service.rs`.

mod common;

use common::{small_patch, stress_seed, Rng};
use qserv::analysis::{analyze, JoinClass};
use qserv::rewrite::{build_plan, render_chunk_message};
use qserv::{ClusterBuilder, Qserv};
use qserv_engine::storage::FRAME_MAGIC;
use qserv_sqlparse::parse_select;
use qserv_xrd::cluster::result_path;
use qserv_xrd::md5_hex;
use qserv_xrd::server::{DataServer, OfsPlugin};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// One statement per paper class: full scan, point lookup, near-neighbour
/// self-join (the one that generates subchunk tables).
const HV: &str = "SELECT COUNT(*) FROM Object WHERE ra_PS > 1.0";
const LV: &str = "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = 123";
const SHV: &str = "SELECT COUNT(*) FROM Object o1, Object o2 \
                   WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05";

const THREADS: usize = 8;

/// A one-node cluster: its worker holds every chunk.
fn one_worker() -> Qserv {
    let patch = small_patch(600, 40 + stress_seed());
    ClusterBuilder::new(1).build(&patch.objects, &patch.sources)
}

/// The chunk-query message the master would send for `sql` on `chunk`.
fn message(q: &Qserv, sql: &str, chunk: i32) -> String {
    let stmt = parse_select(sql).expect("parses");
    let analysis = analyze(&stmt, q.meta()).expect("analyses");
    let plan = build_plan(&analysis, q.meta()).expect("plans");
    let subchunks = match plan.join {
        JoinClass::SubchunkNear => q.chunker().subchunks_of(chunk).expect("a real chunk"),
        _ => Vec::new(),
    };
    render_chunk_message(&plan, q.meta(), chunk, &subchunks)
}

/// Delivers `message` through the worker's plugin entry point, as the
/// fabric does, and returns what it deposited: a result frame or an
/// `ERROR:` text. `tag` makes the result path unique, like the master's
/// `-- QID:` line.
fn ask(q: &Qserv, chunk: i32, tag: &str, message: &str) -> Vec<u8> {
    let server = DataServer::new(0);
    let tagged = format!("-- QID: {tag}\n{message}");
    q.workers()[0].on_file_closed(&server, &format!("/query2/{chunk}"), tagged.as_bytes());
    let deposit = server
        .get_file(&result_path(&md5_hex(tagged.as_bytes())))
        .expect("every chunk query gets a deposit");
    deposit.to_vec()
}

#[test]
fn concurrent_messages_answer_as_alone_while_chunks_move() {
    const ROUNDS: usize = 40;
    let q = one_worker();
    let worker = &q.workers()[0];
    let chunks = q.placement().chunks();
    assert!(chunks.len() >= 4, "need chunks to split: {}", chunks.len());
    // `steady` chunks only see messages; `moving` ones are churned too.
    let (steady, moving) = (&chunks[..2], &chunks[2..4]);

    // Single-threaded answers, before any concurrency exists.
    let mut alone = Vec::new();
    for &chunk in steady.iter().chain(moving) {
        for sql in [HV, LV, SHV] {
            let msg = message(&q, sql, chunk);
            let answer = ask(&q, chunk, "alone", &msg);
            assert!(
                answer.starts_with(FRAME_MAGIC),
                "{sql} on {chunk}: {}",
                String::from_utf8_lossy(&answer)
            );
            alone.push((chunk, msg, answer));
        }
    }
    // One move cycle first, so "before" is what a cycle leaves behind.
    let cycle = |chunk: i32, alias: i32| {
        let files = worker.export_chunk(chunk).expect("export");
        assert!(worker.detach_chunk(chunk) > 0);
        // A chunk id nobody queries: install, then drop again.
        worker.import_chunk(alias, &files, None).expect("install");
        assert!(worker.detach_chunk(alias) > 0);
        worker.import_chunk(chunk, &files, None).expect("import");
    };
    for &chunk in moving {
        cycle(chunk, 1_000_000 + chunk);
    }
    let before = (worker.table_names(), worker.footprint_bytes());

    let stop = AtomicBool::new(false);
    let seed = stress_seed();
    std::thread::scope(|scope| {
        let askers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (q, alone) = (&q, &alone);
                scope.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(t as u64));
                    let mut nacks = 0usize;
                    for i in 0..ROUNDS {
                        let (chunk, msg, expected) = &alone[rng.next() as usize % alone.len()];
                        let reply = ask(q, *chunk, &format!("t{t}-{i}"), msg);
                        if moving.contains(chunk) && reply.starts_with(b"ERROR: RETRYABLE:") {
                            nacks += 1;
                        } else {
                            // Identical tables give byte-identical frames.
                            assert!(&reply == expected, "thread {t} round {i} chunk {chunk}");
                        }
                    }
                    nacks
                })
            })
            .collect();
        let mover = scope.spawn(|| {
            let mut cycles = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for &chunk in moving {
                    cycle(chunk, 1_000_000 + chunk);
                    cycles += 1;
                }
            }
            cycles
        });
        // Stop the mover before looking at any asker's verdict, or a
        // failed assertion would leave it running under the scope.
        let verdicts: Vec<_> = askers.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        let cycles = mover.join().unwrap();
        let nacks: usize = verdicts.into_iter().map(|v| v.unwrap()).sum();
        assert!(cycles > 0, "the mover ran");
        assert!(nacks < THREADS * ROUNDS, "some message was answered");
    });

    assert_eq!(
        (worker.table_names(), worker.footprint_bytes()),
        before,
        "messages and moves left the catalog changed"
    );
}

#[test]
fn generated_tables_are_message_local() {
    // `go` releases K identical SHV messages at once.
    let concurrent_builds = |q: &Qserv, chunk: i32, msg: &str, round: &str| {
        let built = || q.workers()[0].stats.snapshot().2;
        let start = built();
        let go = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let go = &go;
                scope.spawn(move || {
                    go.wait();
                    let reply = ask(q, chunk, &format!("{round}-{t}"), msg);
                    assert!(
                        reply.starts_with(FRAME_MAGIC),
                        "{}",
                        String::from_utf8_lossy(&reply)
                    );
                });
            }
        });
        built() - start
    };

    let q = one_worker();
    let chunk = q.placement().chunks()[0];
    let msg = message(&q, SHV, chunk);
    let before = q.workers()[0].table_names();
    ask(&q, chunk, "alone", &msg);
    let single = q.workers()[0].stats.snapshot().2;
    assert!(single >= 2, "an SHV message generates subchunk tables");
    // Every message builds its own, whoever runs beside it.
    assert_eq!(
        concurrent_builds(&q, chunk, &msg, "off"),
        THREADS as u64 * single
    );
    assert_eq!(q.workers()[0].table_names(), before);
}

//! Protocol framing edge cases, driven over raw sockets: statements
//! split across arbitrary write boundaries, a `;` inside a string
//! literal, responses read back under
//! a deliberately slow consumer (exercising the reactor's write
//! backpressure), oversized-statement rejection, interleaved frames
//! from multiplexed (`#<sid>`-tagged) statements, byte-identical replay
//! of a repeated statement, the mid-stream `TYPES` resend, and
//! race-free server shutdown.

use qserv::service::{QueryService, ServiceConfig};
use qserv::{ClusterBuilder, FabricOp, FaultPlan};
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_engine::db::Database;
use qserv_engine::exec::execute;
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_proxy::protocol::MAX_STATEMENT_BYTES;
use qserv_proxy::{ProxyClient, ProxyServer};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start_server(objects: usize, seed: u64) -> ProxyServer {
    let patch = Patch::generate(&CatalogConfig::small(objects, seed));
    let qserv = Arc::new(ClusterBuilder::new(3).build(&patch.objects, &patch.sources));
    ProxyServer::start(qserv, "127.0.0.1:0").expect("bind")
}

/// Reads one `\n`-terminated line.
fn read_line(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end_matches(['\n', '\r']).to_string()),
        Err(_) => None,
    }
}

#[test]
fn statements_split_across_arbitrary_write_boundaries() {
    let server = start_server(120, 21);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // Dribble the statement in one-byte writes, no trailing newline —
    // the server's splitter must reassemble on the ';' alone.
    for b in b"SELECT COUNT(*) FROM Object;" {
        writer.write_all(&[*b]).expect("write byte");
        writer.flush().expect("flush");
    }
    let mut frames = Vec::new();
    loop {
        let line = read_line(&mut reader).expect("frame");
        let done = line.starts_with("END ");
        frames.push(line);
        if done {
            break;
        }
    }
    assert_eq!(frames[0], "COLS COUNT(*)");
    assert_eq!(frames[1], "TYPES int");
    assert_eq!(frames[2], "ROWS 1");
    assert_eq!(frames[3], "120");
    assert!(frames[4].starts_with("END 1 "), "{:?}", frames[4]);

    // Two statements in a single write: both answered, in order.
    writer
        .write_all(b"SELECT COUNT(*) FROM Source; SELECT COUNT(*) FROM Object;")
        .expect("pipelined write");
    let mut ends = 0;
    while ends < 2 {
        let line = read_line(&mut reader).expect("frame");
        if line.starts_with("END ") {
            ends += 1;
        }
    }
    server.shutdown();
}

/// Reads the frames of one response, up to and including its `END`,
/// `ERR` or `BUSY` line.
fn read_response(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut frames = Vec::new();
    loop {
        let line = read_line(reader).expect("frame");
        let done = ["END ", "ERR ", "BUSY "]
            .iter()
            .any(|tag| line.starts_with(tag));
        frames.push(line);
        if done {
            return frames;
        }
    }
}

#[test]
fn a_semicolon_inside_a_literal_does_not_end_the_statement() {
    let server = start_server(120, 27);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(b"SELECT 'x;y' AS s; SELECT COUNT(*) FROM Object;")
        .expect("pipelined write");
    assert_eq!(
        read_response(&mut reader),
        ["COLS s", "TYPES str", "ROWS 1", "x;y", "END 1 0 0"]
    );
    // The next statement on the session gets its own answer.
    let next = read_response(&mut reader);
    assert_eq!(next[..4], ["COLS COUNT(*)", "TYPES int", "ROWS 1", "120"]);
    assert!(next[4].starts_with("END 1 "), "{next:?}");
    server.shutdown();
}

#[test]
fn slow_readers_throttle_without_corruption() {
    // A result comfortably past the reactor's high-water mark, read
    // back a little at a time: the server must pause the query's merge
    // rather than buffer the whole table, and every frame must still
    // come out intact.
    let server = start_server(20_000, 22);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    let (expected, _) = client
        .query("SELECT COUNT(*) FROM Object")
        .expect("sanity count");
    assert_eq!(expected.scalar().and_then(|v| v.as_i64()), Some(20_000));

    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = stream.try_clone().expect("clone");
    let mut writer = stream;
    writer
        .write_all(b"SELECT objectId, ra_PS, decl_PS FROM Object;")
        .expect("submit");

    // Slow consumer: small reads with a pause every chunk.
    let mut raw = Vec::new();
    let mut buf = [0u8; 8192];
    loop {
        let n = reader.read(&mut buf).expect("read");
        assert!(n > 0, "server closed before END");
        raw.extend_from_slice(&buf[..n]);
        if raw.ends_with(b"\n") {
            let tail = raw[raw.len().saturating_sub(128)..].to_vec();
            if String::from_utf8_lossy(&tail)
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("END "))
            {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let text = String::from_utf8(raw).expect("utf8 frames");
    let mut lines = text.lines();
    assert!(lines.next().expect("COLS").starts_with("COLS "));
    assert!(lines.next().expect("TYPES").starts_with("TYPES "));
    let mut rows = 0usize;
    let mut end = None;
    while let Some(line) = lines.next() {
        if let Some(n) = line.strip_prefix("ROWS ") {
            let n: usize = n.parse().expect("ROWS count");
            for _ in 0..n {
                let row = lines.next().expect("row line");
                assert_eq!(row.split('\t').count(), 3, "row arity: {row:?}");
            }
            rows += n;
        } else if line.starts_with("END ") {
            end = Some(line.to_string());
        } else if line.starts_with("TYPES ") {
            // A mid-stream resend that types an all-NULL column is legal.
        } else {
            panic!("unexpected frame {line:?}");
        }
    }
    assert_eq!(rows, 20_000);
    let end = end.expect("END frame");
    assert!(end.starts_with("END 20000 "), "{end:?}");
    server.shutdown();
}

/// The same statement sent twice answers with the same bytes: frames
/// are a function of the query and the data, not of chunk arrival
/// order. (A scan's `ROWS <n>` block boundaries follow arrival timing,
/// so they are set aside; the row lines themselves and their order are
/// not.)
#[test]
fn a_replayed_statement_is_byte_identical_on_the_wire() {
    let server = start_server(600, 25);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut frames_of = |sql: &str| {
        writer.write_all(sql.as_bytes()).expect("write statement");
        let mut frames = Vec::new();
        loop {
            let line = read_line(&mut reader).expect("frame");
            let done = line.starts_with("END ");
            frames.push(line);
            if done {
                return frames;
            }
        }
    };

    let grouped = "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId;";
    let first = frames_of(grouped);
    assert!(first.len() > 4, "several groups expected: {first:?}");
    assert_eq!(frames_of(grouped), first, "aggregate replay diverged");

    let scan = "SELECT objectId, ra_PS FROM Object;";
    let rows_only = |frames: Vec<String>| -> Vec<String> {
        frames
            .into_iter()
            .filter(|f| !f.starts_with("ROWS "))
            .collect()
    };
    let first = rows_only(frames_of(scan));
    assert_eq!(first.len(), 2 + 600 + 1, "COLS, TYPES, 600 rows, END");
    assert_eq!(rows_only(frames_of(scan)), first, "scan replay diverged");
    server.shutdown();
}

/// A column that is all NULL in the first chunk is tagged `null` until
/// a populated chunk types it; the `TYPES` line is then sent again, once.
/// Chunk `c`, the first in chunk order, computes `x % 0` for every row.
/// The header sequence is exact at any dispatch width: the frame writer
/// types part by part in chunk order, so it does not depend on whether
/// chunk `c` drained alone or batched with later chunks (replayed 20
/// times at width 2). The client's rows carry the variants the
/// single-node engine gives the same statement over the same rows.
#[test]
fn a_column_null_so_far_is_retyped_mid_stream() {
    let patch = Patch::generate(&CatalogConfig::small(600, 26));
    for (width, replays) in [(1, 1), (2, 20)] {
        let mut q = ClusterBuilder::new(3).build(&patch.objects, &patch.sources);
        q.dispatch_width = width;
        let server = ProxyServer::start(Arc::new(q), "127.0.0.1:0").expect("bind");
        let mut client = ProxyClient::connect(server.addr()).expect("connect");
        let (ids, _) = client
            .query("SELECT objectId, chunkId FROM Object")
            .expect("ids");
        let mut object = Table::new(Schema::new(vec![
            ColumnDef::new("objectId", ColumnType::Int),
            ColumnDef::new("chunkId", ColumnType::Int),
        ]));
        for row in &ids.rows {
            object.push_row(row.clone()).expect("two Int columns");
        }
        let c = ids.rows.iter().filter_map(|r| r[1].as_i64()).min();
        let sql = format!(
            "SELECT objectId, chunkId % (chunkId - {}) AS m FROM Object",
            c.expect("a chunk id")
        );

        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        for _ in 0..replays {
            writer
                .write_all(format!("{sql};").as_bytes())
                .expect("submit");
            let mut headers = Vec::new();
            loop {
                let line = read_line(&mut reader).expect("frame");
                if let Some(n) = line.strip_prefix("ROWS ") {
                    for _ in 0..n.parse::<usize>().expect("ROWS count") {
                        read_line(&mut reader).expect("row line");
                    }
                } else if line.starts_with("END ") {
                    break;
                } else {
                    headers.push(line);
                }
            }
            assert_eq!(
                headers,
                ["COLS objectId\tm", "TYPES int\tnull", "TYPES int\tint"],
                "width {width}"
            );
        }

        let (got, _) = client.query(&sql).expect("query");
        let mut db = Database::new();
        db.create_table("Object", object);
        let want = execute(&db, &qserv_sqlparse::parse_select(&sql).expect("parses"))
            .expect("single-node engine");
        assert_eq!(got.columns, want.columns);
        let sorted = |mut rows: Vec<Vec<qserv::Value>>| {
            rows.sort_by_key(|r| r[0].as_i64());
            rows
        };
        assert_eq!(sorted(got.rows), sorted(want.rows));
        server.shutdown();
    }
}

#[test]
fn oversized_statements_are_rejected() {
    let server = start_server(30, 23);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // Just past the limit, never completing a statement. Written in
    // chunks so the server consumes as it goes.
    let blob = vec![b'x'; MAX_STATEMENT_BYTES + 16 * 1024];
    for chunk in blob.chunks(64 * 1024) {
        if writer.write_all(chunk).is_err() {
            break; // server may already have hung up on us
        }
    }
    let line = read_line(&mut reader).expect("ERR frame before close");
    assert!(
        line.starts_with("ERR ") && line.contains("exceeds"),
        "{line:?}"
    );
    // And the connection is closed — there is no resynchronizing.
    let mut rest = String::new();
    let _ = reader.read_line(&mut rest);
    assert!(rest.is_empty(), "connection must close after the ERR");
    server.shutdown();
}

#[test]
fn tagged_statements_interleave_on_one_connection() {
    // A slow scan (#1) and a fast point lookup (#2) multiplexed on one
    // connection: #2 completes while #1 is still streaming, frames
    // demultiplex by tag, and both answers are right.
    let patch = Patch::generate(&CatalogConfig::small(600, 24));
    let mut q = ClusterBuilder::new(3)
        .fault_plan(FaultPlan::new(77))
        .build(&patch.objects, &patch.sources);
    q.dispatch_width = 1;
    let qserv = Arc::new(q);
    qserv
        .cluster()
        .faults()
        .delay(None, Some(FabricOp::Read), Duration::from_millis(10));
    let service = Arc::new(QueryService::start(
        Arc::clone(&qserv),
        ServiceConfig::default(),
    ));
    let server = ProxyServer::start_with_service(service, "127.0.0.1:0").expect("bind");

    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(
            b"#1 SELECT objectId FROM Object;#2 SELECT objectId FROM Object WHERE objectId = 5;",
        )
        .expect("submit both");

    let mut rows: HashMap<u64, usize> = HashMap::new();
    let mut end_order = Vec::new();
    while end_order.len() < 2 {
        let line = read_line(&mut reader).expect("frame");
        let (sid, frame) = {
            let tail = line.strip_prefix('#').expect("tagged frame");
            let (sid, rest) = tail.split_once(' ').expect("tag separator");
            (sid.parse::<u64>().expect("numeric sid"), rest)
        };
        if let Some(n) = frame.strip_prefix("ROWS ") {
            let n: usize = n.parse().expect("ROWS count");
            for _ in 0..n {
                read_line(&mut reader).expect("row line");
            }
            *rows.entry(sid).or_default() += n;
        } else if frame.starts_with("END ") {
            end_order.push(sid);
        } else if frame.starts_with("ERR ") || frame.starts_with("BUSY ") {
            panic!("unexpected failure frame on #{sid}: {frame:?}");
        }
    }
    assert_eq!(
        end_order,
        vec![2, 1],
        "the point lookup must finish while the scan still streams"
    );
    assert_eq!(rows[&2], 1);
    assert_eq!(rows[&1], 600);
    server.shutdown();
}

#[test]
fn shutdown_is_race_free() {
    // The old accept loop woke itself with a sentinel no-op connection,
    // which raced real accepts. The reactor stop path (flag + waker)
    // must survive immediate and repeated shutdown without hanging or
    // leaking a live listener.
    let patch = Patch::generate(&CatalogConfig::small(20, 25));
    let qserv = Arc::new(ClusterBuilder::new(2).build(&patch.objects, &patch.sources));
    for _ in 0..25 {
        let service = Arc::new(QueryService::start(
            Arc::clone(&qserv),
            ServiceConfig::default(),
        ));
        let server = ProxyServer::start_with_service(service, "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        server.shutdown();
        match ProxyClient::connect(addr) {
            Err(_) => {}
            Ok(mut c) => assert!(c.query("SELECT COUNT(*) FROM Object").is_err()),
        }
    }
    // Shutdown with a session mid-stream: the client sees the session
    // die (an error), never a hang.
    let server = start_server(200, 26);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    let (t, _) = client.query("SELECT COUNT(*) FROM Object").expect("warmup");
    assert_eq!(t.scalar().and_then(|v| v.as_i64()), Some(200));
    server.shutdown();
    assert!(client.query("SELECT COUNT(*) FROM Object").is_err());
}

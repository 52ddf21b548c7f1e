//! Protocol framing edge cases, driven over raw sockets: statements
//! split across arbitrary write boundaries, a `;` inside a string
//! literal, responses read back under a deliberately slow consumer
//! (exercising the reactor's write backpressure), oversized-statement
//! rejection, byte-identical replay of a repeated statement, a column
//! all NULL in the first chunk, and race-free server shutdown.

use qserv::service::{QueryService, ServiceConfig};
use qserv::ClusterBuilder;
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_engine::db::Database;
use qserv_engine::exec::execute;
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::storage::decode_frame;
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use qserv_proxy::protocol::MAX_STATEMENT_BYTES;
use qserv_proxy::{ProxyClient, ProxyServer};
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
fn read_line(reader: &mut impl BufRead) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end_matches(['\n', '\r']).to_string()),
        Err(_) => None,
    }
}

/// One response as it came off the socket.
struct Response {
    /// Every byte, `ROWS` headers and frames included.
    bytes: Vec<u8>,
    /// The text lines, `ROWS` headers included.
    lines: Vec<String>,
    /// Each `ROWS` frame, checked against its header and decoded.
    parts: Vec<Table>,
}

impl Response {
    fn rows(&self) -> Vec<Vec<Value>> {
        self.parts
            .iter()
            .flat_map(|part| (0..part.num_rows()).map(|r| part.row(r)))
            .collect()
    }
}

/// Reads the frames of one response, up to and including its `END`,
/// `ERR` or `BUSY` line.
fn read_response(reader: &mut impl BufRead) -> Response {
    let mut response = Response {
        bytes: Vec::new(),
        lines: Vec::new(),
        parts: Vec::new(),
    };
    loop {
        let line = read_line(reader).expect("frame");
        response.bytes.extend_from_slice(line.as_bytes());
        response.bytes.push(b'\n');
        if let Some(header) = line.strip_prefix("ROWS ") {
            let (rows, len) = header.split_once(' ').expect("ROWS <n> <bytes>");
            let mut frame = vec![0; len.parse().expect("frame length")];
            reader.read_exact(&mut frame).expect("the frame's bytes");
            let (part, _) = decode_frame(&frame).expect("a sound frame");
            assert_eq!(part.num_rows(), rows.parse::<usize>().expect("ROWS count"));
            response.bytes.extend_from_slice(&frame);
            response.parts.push(part);
        }
        let done = ["END ", "ERR ", "BUSY "]
            .iter()
            .any(|tag| line.starts_with(tag));
        response.lines.push(line);
        if done {
            return response;
        }
    }
}

/// The text lines of a response with its `ROWS` headers set aside.
fn headers(response: &Response) -> Vec<&str> {
    response
        .lines
        .iter()
        .map(String::as_str)
        .filter(|l| !l.starts_with("ROWS "))
        .collect()
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
    let count = read_response(&mut reader);
    assert_eq!(count.lines[0], "COLS COUNT(*)");
    assert!(count.lines[1].starts_with("ROWS 1 "), "{:?}", count.lines);
    assert_eq!(count.rows(), [[Value::Int(120)]]);
    assert!(count.lines[2].starts_with("END 1 "), "{:?}", count.lines);

    // Two statements in a single write: both answered, in order.
    writer
        .write_all(b"SELECT COUNT(*) FROM Source; SELECT COUNT(*) FROM Object;")
        .expect("pipelined write");
    let sources = read_response(&mut reader);
    assert!(
        sources.lines[2].starts_with("END 1 "),
        "{:?}",
        sources.lines
    );
    let objects = read_response(&mut reader);
    assert_eq!(objects.rows(), [[Value::Int(120)]]);
    server.shutdown();
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
    let literal = read_response(&mut reader);
    assert_eq!(headers(&literal), ["COLS s", "END 1 0 0"]);
    assert_eq!(literal.rows(), [[Value::Str("x;y".into())]]);
    // The next statement on the session gets its own answer.
    let next = read_response(&mut reader);
    assert_eq!(next.lines[0], "COLS COUNT(*)");
    assert_eq!(next.rows(), [[Value::Int(120)]]);
    assert!(next.lines[2].starts_with("END 1 "), "{:?}", next.lines);
    server.shutdown();
}

/// A socket read a little at a time, with a pause before every read.
struct SlowReader(TcpStream);

impl Read for SlowReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_millis(1));
        let n = buf.len().min(8192);
        self.0.read(&mut buf[..n])
    }
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
    let mut reader = BufReader::with_capacity(8192, SlowReader(stream.try_clone().expect("clone")));
    let mut writer = stream;
    writer
        .write_all(b"SELECT objectId, ra_PS, decl_PS FROM Object;")
        .expect("submit");
    let response = read_response(&mut reader);
    assert_eq!(response.lines[0], "COLS objectId\tra_PS\tdecl_PS");
    assert!(response.parts.len() > 1, "one frame per chunk table");
    for part in &response.parts {
        assert_eq!(part.schema().len(), 3, "frame arity");
    }
    assert_eq!(response.rows().len(), 20_000);
    let end = response.lines.last().expect("END frame");
    assert!(end.starts_with("END 20000 "), "{end:?}");
    server.shutdown();
}

/// The same statement sent twice answers with the same bytes, `ROWS`
/// headers included: frames are a function of the query and the data,
/// not of chunk arrival order (one frame per chunk table, in chunk
/// order).
#[test]
fn a_replayed_statement_is_byte_identical_on_the_wire() {
    let server = start_server(600, 25);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut response_to = |sql: &str| {
        writer.write_all(sql.as_bytes()).expect("write statement");
        read_response(&mut reader)
    };

    let grouped = "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId;";
    let first = response_to(grouped);
    assert!(first.rows().len() > 1, "several groups expected");
    assert_eq!(
        response_to(grouped).bytes,
        first.bytes,
        "aggregate replay diverged"
    );

    let scan = "SELECT objectId, ra_PS FROM Object;";
    let first = response_to(scan);
    assert_eq!(first.rows().len(), 600);
    assert!(first.parts.len() > 1, "one frame per chunk table");
    assert_eq!(response_to(scan).bytes, first.bytes, "scan replay diverged");
    server.shutdown();
}

/// Chunk `c`, the first in chunk order, computes `x % 0` for every row,
/// so column `m` is all NULL in its frame and populated Int in later
/// ones: each frame types its own columns, and the response bytes are
/// the same at dispatch widths 1 and 2 — they do not depend on whether
/// chunk `c` drained alone or batched with later chunks (replayed 20
/// times at width 2). The client's rows carry the variants the single-node
/// engine gives the same statement over the same rows.
#[test]
fn a_column_null_so_far_is_retyped_mid_stream() {
    let patch = Patch::generate(&CatalogConfig::small(600, 26));
    let mut first: Option<Response> = None;
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
            let response = read_response(&mut reader);
            match &first {
                Some(first) => assert_eq!(response.bytes, first.bytes, "width {width}"),
                None => first = Some(response),
            }
        }
        let first = first.as_ref().expect("one replay at least");
        assert_eq!(headers(first)[0], "COLS objectId\tm");
        let m_nulls = |part: &Table| part.null_mask(1).iter().all(|&null| null);
        assert!(m_nulls(&first.parts[0]), "m is NULL throughout chunk c");
        let typed = first.parts.iter().find(|part| !m_nulls(part));
        assert_eq!(
            typed.map(|part| part.schema().columns()[1].ty),
            Some(ColumnType::Int),
            "a later chunk types m"
        );

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

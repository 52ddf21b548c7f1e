//! The proxy server: one event loop multiplexing every connection.
//!
//! The server runs a single poll(2)-driven event loop over nonblocking
//! sockets: the listener, a cross-thread
//! [`Waker`], and every client connection are all readiness sources of
//! one `mio::Poll`. Sessions submit through the shared
//! [`QueryService`] as *streaming* queries; merged row batches are
//! framed (`ROWS <n> <bytes>` + a CRC-sealed column frame per chunk
//! table) into per-connection write buffers and flushed as sockets
//! accept them, so the first rows of a scan reach the client while
//! later chunks are still executing.
//!
//! Backpressure is end-to-end: a connection whose write buffer climbs
//! past [`HIGH_WATER_BYTES`] stops draining its stream channels; the
//! executor's bounded channel then blocks the merge, which stalls
//! chunk dispatch — a slow client throttles its own query instead of
//! buffering the whole result in proxy memory.
//!
//! Each connection keeps the strict request/response contract:
//! statements execute one at a time, in arrival order, and pipelined
//! statements queue behind the one in flight.
//!
//! Shutdown is reactor-driven and race-free: `ProxyServer::stop`
//! sets a flag and wakes the poll loop through the `Waker` — no
//! sentinel connections, no window where a fresh accept slips past the
//! flag check.

use crate::protocol::MAX_STATEMENT_BYTES;
use mio::{Events, Interest, Poll, Token, Waker};
use qserv::service::{QueryService, ServiceConfig};
use qserv::{
    Notifier, Qserv, QservError, StreamBatch, StreamDone, StreamEvent, StreamHandle, Value,
};
use qserv_engine::exec::{ResultTable, ScanStats};
use qserv_engine::storage::encode_frame;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const FIRST_CONN: usize = 2;

/// Above this many buffered-but-unsent bytes, a connection stops
/// draining its stream channels: the executor's bounded channel fills
/// and the query stalls until the socket drains.
pub const HIGH_WATER_BYTES: usize = 256 * 1024;

/// A running proxy listening on a TCP socket.
pub struct ProxyServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
    service: Arc<QueryService>,
}

impl ProxyServer {
    /// Starts a proxy over `qserv` with default service settings,
    /// listening on `bind` (use port 0 for an ephemeral port;
    /// [`ProxyServer::addr`] reports the actual one).
    pub fn start(qserv: Arc<Qserv>, bind: &str) -> std::io::Result<ProxyServer> {
        let service = Arc::new(QueryService::start(qserv, ServiceConfig::default()));
        ProxyServer::start_with_service(service, bind)
    }

    /// Starts a proxy over an existing [`QueryService`] — the caller
    /// picks the admission/scheduling configuration and may
    /// keep its own handle for `kill`/`status`/metrics.
    pub fn start_with_service(
        service: Arc<QueryService>,
        bind: &str,
    ) -> std::io::Result<ProxyServer> {
        let listener = mio::net::TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let poll = Poll::new()?;
        poll.registry()
            .register(&listener, LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
        let shutdown = Arc::new(AtomicBool::new(false));

        let thread = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || Reactor::new(poll, listener, service, shutdown, waker).run())
        };
        Ok(ProxyServer {
            addr,
            shutdown,
            waker,
            thread: Some(thread),
            service,
        })
    }

    /// The address the proxy is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The query service behind every session.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Stops the server and joins its thread. Open sessions are closed
    /// (their in-flight queries cancel).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.waker.wake();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProxyServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Statement assembly and routing.
// ---------------------------------------------------------------------

/// Accumulates raw socket bytes and yields `;`-terminated statements.
/// A `;` inside a `'…'` string literal (where `''` is an escaped quote,
/// as the SQL lexer reads it) or a `` `…` `` identifier does not end a
/// statement; the quote state carries over between pushes.
#[derive(Default)]
struct StatementSplitter {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a terminator.
    scanned: usize,
    /// The quote byte the scan is inside, if any.
    quote: Option<u8>,
}

impl StatementSplitter {
    fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// The next complete non-empty statement, if any.
    fn next_statement(&mut self) -> Option<String> {
        while let Some(pos) = self.next_terminator() {
            let stmt: Vec<u8> = self.buf.drain(..=pos).collect();
            self.scanned = 0;
            let stmt = String::from_utf8_lossy(&stmt[..stmt.len() - 1])
                .trim()
                .to_string();
            if !stmt.is_empty() {
                return Some(stmt);
            }
        }
        None
    }

    /// Scans on to the next `;` outside quotes. An escaped `''` needs no
    /// case of its own: it closes the literal and reopens it at once.
    fn next_terminator(&mut self) -> Option<usize> {
        while let Some(&b) = self.buf.get(self.scanned) {
            self.scanned += 1;
            match (self.quote, b) {
                (None, b';') => return Some(self.scanned - 1),
                (None, b'\'' | b'`') => self.quote = Some(b),
                (Some(q), _) if q == b => self.quote = None,
                _ => {}
            }
        }
        None
    }

    /// True once the unterminated tail exceeds the frame limit.
    fn overflowed(&self) -> bool {
        self.buf.len() > MAX_STATEMENT_BYTES
    }
}

/// What one statement asks of the server.
enum Action {
    /// An immediately-answerable verb (`KILL`, `STATUS`).
    Table(ResultTable),
    /// A malformed verb.
    BadVerb(String),
    /// SQL to submit (with `TRACE` already stripped off).
    Submit { sql: String, traced: bool },
}

/// Routes one statement.
fn route(service: &QueryService, stmt: &str) -> Action {
    // `KILL <qid>` and `STATUS` answer as ordinary result tables, so
    // any client that can read a query response can drive them.
    match parse_kill_verb(stmt) {
        Some(Ok(qid)) => {
            let outcome = service.kill(qid);
            return Action::Table(ResultTable {
                columns: vec!["qid".to_string(), "outcome".to_string()],
                rows: vec![vec![
                    Value::Int(qid as i64),
                    Value::Str(outcome.as_str().to_string()),
                ]],
            });
        }
        Some(Err(bad)) => {
            return Action::BadVerb(format!("KILL needs a numeric query id, got {bad:?}"))
        }
        None => {}
    }
    if stmt.eq_ignore_ascii_case("STATUS") {
        let rows = service
            .status()
            .into_iter()
            .map(|s| {
                vec![
                    Value::Int(s.qid as i64),
                    Value::Str(s.class.as_str().to_string()),
                    Value::Str(s.state.as_str().to_string()),
                    Value::Int(s.wait.as_millis() as i64),
                    Value::Int(s.run.as_millis() as i64),
                    Value::Str(s.sql),
                ]
            })
            .collect();
        return Action::Table(ResultTable {
            columns: ["qid", "class", "state", "wait_ms", "run_ms", "sql"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        });
    }
    // `EXPLAIN <sql>` plans without executing and answers inline with
    // the planner's choice rendered as a result table.
    if let Some(inner) = qserv::strip_explain(stmt) {
        return match service.explain(inner) {
            Ok(table) => Action::Table(table),
            Err(e) => Action::BadVerb(format!("EXPLAIN failed: {e}")),
        };
    }
    match strip_trace_verb(stmt) {
        Some(inner) => Action::Submit {
            sql: inner.to_string(),
            traced: true,
        },
        None => Action::Submit {
            sql: stmt.to_string(),
            traced: false,
        },
    }
}

// ---------------------------------------------------------------------
// Frame encoding.
// ---------------------------------------------------------------------

/// Per-request frame-encoding state: whether `COLS` went out, and how
/// many rows so far.
#[derive(Default)]
struct ResponseState {
    cols_sent: bool,
    rows: u64,
}

/// Encodes one merged batch: `COLS` the first time, then per part that
/// holds rows, in chunk order, a `ROWS <n> <bytes>` header and the
/// part's column frame ([`encode_frame`], the encoding it crossed the
/// fabric in, sealed by a CRC32C). A frame carries its own
/// column types, and one part is one frame, so the response depends
/// only on the parts — on query and data — never on how arrivals were
/// batched.
fn write_batch(out: &mut Vec<u8>, st: &mut ResponseState, batch: &StreamBatch) {
    if !st.cols_sent {
        let _ = writeln!(out, "COLS {}", batch.columns.join("\t"));
        st.cols_sent = true;
    }
    for part in batch.parts.iter().filter(|part| !part.is_empty()) {
        let frame = encode_frame(part, &ScanStats::default());
        let _ = writeln!(out, "ROWS {} {}", part.num_rows(), frame.len());
        out.extend_from_slice(&frame);
        st.rows += part.num_rows() as u64;
    }
}

/// Encodes the terminal frame: `TRACE` + `END` on success, `ERR` (or
/// `BUSY`) on failure. An `ERR` after delivered batches tells the
/// client to discard those rows — the result is the error.
fn write_done(out: &mut Vec<u8>, st: &ResponseState, done: &StreamDone) {
    match &done.result {
        Ok(stats) => {
            if let Some(trace) = &done.trace {
                let _ = writeln!(out, "TRACE {}", trace.to_json());
            }
            let _ = writeln!(
                out,
                "END {} {} {}",
                st.rows, stats.chunks_dispatched, stats.result_bytes
            );
        }
        Err(e) => write_error(out, e),
    }
}

/// Encodes a failure as its frame: admission backpressure is `BUSY`
/// (resubmit later, the session stays usable), anything else `ERR`.
fn write_error(out: &mut Vec<u8>, e: &QservError) {
    match e {
        QservError::Busy { retry_after_ms } => {
            let _ = writeln!(out, "BUSY {retry_after_ms}");
        }
        e => {
            let msg = e.to_string().replace('\n', " ");
            let _ = writeln!(out, "ERR {msg}");
        }
    }
}

/// Encodes an inline table (the `KILL`/`STATUS`/`EXPLAIN` replies) as
/// one batch typed as any result is ([`StreamBatch::of_result`]), then
/// `END`: one complete response with no cluster work.
fn write_table(out: &mut Vec<u8>, table: ResultTable) {
    let mut st = ResponseState::default();
    write_batch(out, &mut st, &StreamBatch::of_result(table));
    let _ = writeln!(out, "END {} 0 0", st.rows);
}

// ---------------------------------------------------------------------
// The reactor.
// ---------------------------------------------------------------------

/// The streamed query in flight on a connection.
struct Request {
    state: ResponseState,
    handle: StreamHandle,
}

/// One client connection.
struct Conn {
    token: usize,
    stream: mio::net::TcpStream,
    splitter: StatementSplitter,
    out: Vec<u8>,
    outpos: usize,
    /// The statement being answered; at most one at a time.
    request: Option<Request>,
    /// Statements waiting for it to finish, in arrival order.
    queue: VecDeque<String>,
    /// Still expecting bytes from the peer (false after EOF — the
    /// half-closed session keeps draining its in-flight responses).
    reading: bool,
    /// Flush what is buffered, then drop the connection.
    closing: bool,
    /// Hard socket error: drop immediately.
    failed: bool,
    registered: Option<Interest>,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.outpos
    }

    fn finished(&self) -> bool {
        self.failed
            || (self.closing && self.pending_out() == 0)
            || (!self.reading
                && self.request.is_none()
                && self.queue.is_empty()
                && self.pending_out() == 0)
    }
}

struct Reactor {
    poll: Poll,
    listener: mio::net::TcpListener,
    service: Arc<QueryService>,
    shutdown: Arc<AtomicBool>,
    notifier: Notifier,
    conns: HashMap<usize, Conn>,
    next_token: usize,
}

impl Reactor {
    fn new(
        poll: Poll,
        listener: mio::net::TcpListener,
        service: Arc<QueryService>,
        shutdown: Arc<AtomicBool>,
        waker: Arc<Waker>,
    ) -> Reactor {
        // Every streaming submission carries this notifier: the
        // executor pokes the waker after queuing an event, so a poll
        // blocked on idle sockets learns of fresh frames immediately.
        let notifier: Notifier = Arc::new(move || {
            let _ = waker.wake();
        });
        Reactor {
            poll,
            listener,
            service,
            shutdown,
            notifier,
            conns: HashMap::new(),
            next_token: FIRST_CONN,
        }
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            if self.poll.poll(&mut events, None).is_err() {
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                // Dropping the reactor drops every connection; their
                // stream handles cancel any in-flight queries.
                return;
            }
            let ready: Vec<(usize, bool, bool)> = events
                .iter()
                .map(|e| (e.token().0, e.is_readable(), e.is_writable()))
                .collect();
            for (token, readable, writable) in ready {
                match token {
                    t if t == LISTENER.0 => self.accept_ready(),
                    t if t == WAKER.0 => {} // woken; the pump below runs anyway
                    t => {
                        if let Some(conn) = self.conns.get_mut(&t) {
                            if readable {
                                read_ready(conn);
                            }
                            if writable {
                                flush(conn);
                            }
                        }
                    }
                }
            }
            self.pump();
            self.sweep();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn {
                        token,
                        stream,
                        splitter: StatementSplitter::default(),
                        out: Vec::new(),
                        outpos: 0,
                        request: None,
                        queue: VecDeque::new(),
                        reading: true,
                        closing: false,
                        failed: false,
                        registered: None,
                    };
                    update_interest(&self.poll, &mut conn);
                    self.conns.insert(token, conn);
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Moves every connection forward: drain ready stream events into
    /// write buffers (respecting the high-water mark), flush sockets,
    /// start queued statements, refresh interest. The
    /// drain/flush pair loops so a socket that swallowed its backlog
    /// immediately frees the query it was throttling — otherwise
    /// events left behind a high-water stop could strand a blocked
    /// executor with no readiness edge left to wake us.
    fn pump(&mut self) {
        for conn in self.conns.values_mut() {
            loop {
                let progressed = drain_request(&self.service, &self.notifier, conn);
                flush(conn);
                if !progressed || conn.pending_out() > HIGH_WATER_BYTES {
                    break;
                }
            }
            update_interest(&self.poll, conn);
        }
    }

    fn sweep(&mut self) {
        let finished: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.finished())
            .map(|(&t, _)| t)
            .collect();
        for t in finished {
            if let Some(conn) = self.conns.remove(&t) {
                if conn.registered.is_some() {
                    let _ = self.poll.registry().deregister(&conn.stream);
                }
                // Dropping `conn.request` drops its stream handle,
                // cancelling whatever was still running for this peer.
            }
        }
    }
}

/// Reads until `WouldBlock`/EOF, then queues every complete statement.
fn read_ready(conn: &mut Conn) {
    let mut buf = [0u8; 8192];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.reading = false;
                break;
            }
            Ok(n) => {
                conn.splitter.push(&buf[..n]);
                if conn.splitter.overflowed() {
                    // No way to resynchronize inside an unbounded blob:
                    // reject and hang up once the error is flushed.
                    let _ = writeln!(
                        conn.out,
                        "ERR statement exceeds {MAX_STATEMENT_BYTES} bytes"
                    );
                    conn.reading = false;
                    conn.closing = true;
                    return;
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.failed = true;
                return;
            }
        }
    }
    while let Some(stmt) = conn.splitter.next_statement() {
        conn.queue.push_back(stmt);
    }
}

/// Answers one statement: verbs inline, SQL as the connection's
/// in-flight request.
fn start_statement(service: &QueryService, notifier: &Notifier, conn: &mut Conn, stmt: &str) {
    match route(service, stmt) {
        Action::Table(table) => write_table(&mut conn.out, table),
        Action::BadVerb(msg) => {
            let _ = writeln!(conn.out, "ERR {msg}");
        }
        Action::Submit { sql, traced } => {
            let root = traced.then_some("proxy.request");
            match service.submit_streaming(&sql, root, Some(Arc::clone(notifier))) {
                Ok(handle) => {
                    conn.request = Some(Request {
                        state: ResponseState::default(),
                        handle,
                    })
                }
                Err(e) => write_error(&mut conn.out, &e),
            }
        }
    }
}

/// Drains the in-flight request's ready stream events into the
/// connection's write buffer, up to the high-water mark, and starts the
/// next queued statement once it finishes (verbs answer inline, so
/// several may start in one call). Returns whether anything moved (the
/// caller loops with a flush in between until nothing does).
fn drain_request(service: &QueryService, notifier: &Notifier, conn: &mut Conn) -> bool {
    let mut progressed = false;
    // Over the mark, stop producing: the executor's bounded channel
    // fills next, stalling the merge until this socket drains.
    while conn.pending_out() <= HIGH_WATER_BYTES {
        let Some(req) = &mut conn.request else {
            if conn.closing {
                break;
            }
            let Some(stmt) = conn.queue.pop_front() else {
                break;
            };
            start_statement(service, notifier, conn, &stmt);
            progressed = true;
            continue;
        };
        let Some(ev) = req.handle.try_recv() else {
            break;
        };
        progressed = true;
        match ev {
            StreamEvent::Batch(batch) => write_batch(&mut conn.out, &mut req.state, &batch),
            StreamEvent::Done(done) => {
                write_done(&mut conn.out, &req.state, &done);
                conn.request = None;
            }
        }
    }
    progressed
}

/// Writes buffered output until the socket would block.
fn flush(conn: &mut Conn) {
    while conn.pending_out() > 0 {
        match conn.stream.write(&conn.out[conn.outpos..]) {
            Ok(0) => {
                conn.failed = true;
                return;
            }
            Ok(n) => conn.outpos += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.failed = true;
                return;
            }
        }
    }
    if conn.outpos == conn.out.len() {
        conn.out.clear();
        conn.outpos = 0;
    } else if conn.outpos > 32 * 1024 {
        conn.out.drain(..conn.outpos);
        conn.outpos = 0;
    }
}

/// Registers exactly the readiness this connection can act on. The
/// poller is level-triggered, so `WRITABLE` is armed only while output
/// is pending and `READABLE` only while the peer may still send —
/// otherwise an idle socket would spin the loop.
fn update_interest(poll: &Poll, conn: &mut Conn) {
    let want_r = conn.reading && !conn.closing && !conn.failed;
    let want_w = conn.pending_out() > 0 && !conn.failed;
    let want = match (want_r, want_w) {
        (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
        (true, false) => Some(Interest::READABLE),
        (false, true) => Some(Interest::WRITABLE),
        (false, false) => None,
    };
    if want == conn.registered {
        return;
    }
    let registry = poll.registry();
    let ok = match (conn.registered, want) {
        (None, Some(i)) => registry
            .register(&conn.stream, Token(conn.token), i)
            .is_ok(),
        (Some(_), Some(i)) => registry
            .reregister(&conn.stream, Token(conn.token), i)
            .is_ok(),
        (Some(_), None) => registry.deregister(&conn.stream).is_ok(),
        (None, None) => true,
    };
    if ok {
        conn.registered = want;
    } else {
        conn.failed = true;
    }
}

// ---------------------------------------------------------------------
// Verb parsing.
// ---------------------------------------------------------------------

/// Splits the `TRACE` verb off a statement, returning the inner SQL.
/// The verb is case-insensitive and must be followed by whitespace, so
/// ordinary SQL (which never starts with TRACE) passes through.
fn strip_trace_verb(sql: &str) -> Option<&str> {
    sql.get(..5)
        .filter(|verb| verb.eq_ignore_ascii_case("TRACE"))?;
    let tail = &sql[5..];
    if tail.starts_with(char::is_whitespace) {
        Some(tail.trim_start())
    } else {
        None
    }
}

/// Recognizes `KILL <qid>`: `Some(Ok(qid))` for a well-formed kill,
/// `Some(Err(arg))` when the verb is present but the id is not a
/// number, `None` for anything else (ordinary SQL never starts with
/// KILL).
fn parse_kill_verb(sql: &str) -> Option<Result<u64, String>> {
    sql.get(..4)
        .filter(|verb| verb.eq_ignore_ascii_case("KILL"))?;
    let tail = &sql[4..];
    if !tail.starts_with(char::is_whitespace) {
        return None;
    }
    let arg = tail.trim();
    Some(arg.parse::<u64>().map_err(|_| arg.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_verb_parses() {
        assert_eq!(parse_kill_verb("KILL 42"), Some(Ok(42)));
        assert_eq!(parse_kill_verb("kill  7"), Some(Ok(7)));
        assert_eq!(parse_kill_verb("KILL abc"), Some(Err("abc".to_string())));
        assert_eq!(parse_kill_verb("KILLER 1"), None);
        assert_eq!(parse_kill_verb("SELECT 1"), None);
    }

    /// The frames of parts `[c0, c1, c2, c3]` — `c0` empty, `m` all NULL
    /// (Float-typed by its worker) in `c1`, populated Int from `c2` on —
    /// are the same bytes whether they arrive as one batch or as
    /// `[c0, c1]`, `[c2]`, `[c3]` (the merger drains no batch of empty
    /// parts): one frame per part that holds rows, each typed by its
    /// own schema.
    #[test]
    fn frames_do_not_depend_on_batching() {
        use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
        use qserv_engine::storage::decode_frame;
        use qserv_engine::table::Table;
        let part = |m_ty: ColumnType, rows: &[(i64, Option<i64>)]| {
            let mut t = Table::new(Schema::new(vec![
                ColumnDef::new("objectId", ColumnType::Int),
                ColumnDef::new("m", m_ty),
            ]));
            for &(id, m) in rows {
                t.push_row(vec![Value::Int(id), m.map_or(Value::Null, Value::Int)])
                    .expect("fits");
            }
            t
        };
        let parts = vec![
            part(ColumnType::Float, &[]),
            part(ColumnType::Float, &[(1, None), (2, None)]),
            part(ColumnType::Int, &[(3, Some(0)), (4, None)]),
            part(ColumnType::Int, &[(5, Some(1))]),
        ];
        let columns = vec!["objectId".to_string(), "m".to_string()];
        let frames = |batches: Vec<Vec<Table>>| {
            let mut out = Vec::new();
            let mut st = ResponseState::default();
            for parts in batches {
                let batch = StreamBatch {
                    columns: columns.clone(),
                    parts,
                };
                write_batch(&mut out, &mut st, &batch);
            }
            (out, st.rows)
        };
        let one = frames(vec![parts.clone()]);
        let each = frames(vec![
            parts[..2].to_vec(),
            vec![parts[2].clone()],
            vec![parts[3].clone()],
        ]);
        assert_eq!(one, each);
        assert_eq!(one.1, 5);

        // COLS, then `ROWS <n> <bytes>` and exactly the frame of each
        // non-empty part, in order.
        let line = |wire: &[u8]| {
            let end = wire.iter().position(|&b| b == b'\n').expect("a line");
            let text = String::from_utf8(wire[..end].to_vec()).expect("utf-8");
            (text, end + 1)
        };
        let (cols, mut at) = line(&one.0);
        assert_eq!(cols, "COLS objectId\tm");
        for want in &parts[1..] {
            let (header, len) = line(&one.0[at..]);
            at += len;
            let frame = encode_frame(want, &ScanStats::default());
            assert_eq!(header, format!("ROWS {} {}", want.num_rows(), frame.len()));
            let sent = &one.0[at..at + frame.len()];
            assert_eq!(sent, frame.as_slice());
            let (got, _) = decode_frame(sent).expect("a sound frame");
            assert_eq!(got.schema(), want.schema(), "typed by its own part");
            at += frame.len();
        }
        assert_eq!(at, one.0.len());
    }

    #[test]
    fn trace_verb_strips() {
        assert_eq!(strip_trace_verb("TRACE SELECT 1"), Some("SELECT 1"));
        assert_eq!(strip_trace_verb("trace  SELECT 1"), Some("SELECT 1"));
        assert_eq!(strip_trace_verb("TRACER x"), None);
        assert_eq!(strip_trace_verb("SELECT 1"), None);
    }

    #[test]
    fn splitter_yields_statements_across_pushes() {
        let mut s = StatementSplitter::default();
        s.push(b"SELECT 1");
        assert!(s.next_statement().is_none());
        s.push(b" + 1; SELECT");
        assert_eq!(s.next_statement().as_deref(), Some("SELECT 1 + 1"));
        assert!(s.next_statement().is_none());
        s.push(b" 2;;  ;");
        assert_eq!(s.next_statement().as_deref(), Some("SELECT 2"));
        assert!(s.next_statement().is_none(), "empty statements skipped");
        assert!(!s.overflowed());
    }

    #[test]
    fn splitter_ignores_semicolons_inside_quotes() {
        let mut s = StatementSplitter::default();
        s.push(b"SELECT 'x;y' AS s; SELECT 'it''s; ok' AS t;");
        assert_eq!(s.next_statement().as_deref(), Some("SELECT 'x;y' AS s"));
        assert_eq!(
            s.next_statement().as_deref(),
            Some("SELECT 'it''s; ok' AS t")
        );
        // The quote state survives a statement split across reads.
        s.push(b"SELECT `a;");
        assert!(s.next_statement().is_none(), "inside a backtick identifier");
        s.push(b"b` FROM t; SELECT 'p''");
        assert_eq!(s.next_statement().as_deref(), Some("SELECT `a;b` FROM t"));
        s.push(b";q'");
        assert!(s.next_statement().is_none(), "inside an escaped literal");
        s.push(b";");
        assert_eq!(s.next_statement().as_deref(), Some("SELECT 'p'';q'"));
        assert!(s.next_statement().is_none());
    }
}

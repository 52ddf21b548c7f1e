//! The proxy server: one event loop multiplexing every connection.
//!
//! The server runs a single poll(2)-driven event loop over nonblocking
//! sockets: the listener, a cross-thread
//! [`Waker`], and every client connection are all readiness sources of
//! one `mio::Poll`. Sessions submit through the shared
//! [`QueryService`] as *streaming* queries; merged row batches are
//! framed (`ROWS <n>` + raw TSV lines) into per-connection write
//! buffers and flushed as sockets accept them, so the first rows of a
//! scan reach the client while later chunks are still executing.
//!
//! Backpressure is end-to-end: a connection whose write buffer climbs
//! past [`HIGH_WATER_BYTES`] stops draining its stream channels; the
//! executor's bounded channel then blocks the merge, which stalls
//! chunk dispatch — a slow client throttles its own query instead of
//! buffering the whole result in proxy memory.
//!
//! Statements may carry a `#<sid>` tag; tagged statements run
//! concurrently on one connection with their response frames
//! tag-prefixed for demultiplexing. Untagged statements keep the
//! classic strict request/response contract: they execute one at a
//! time per connection, in arrival order.
//!
//! Shutdown is reactor-driven and race-free: `ProxyServer::stop`
//! sets a flag and wakes the poll loop through the `Waker` — no
//! sentinel connections, no window where a fresh accept slips past the
//! flag check.

use crate::protocol::{column_tag, sid_prefix, split_sid, write_cell, MAX_STATEMENT_BYTES};
use mio::{Events, Interest, Poll, Token, Waker};
use qserv::merge::ballot;
use qserv::service::{QueryService, ServiceConfig};
use qserv::{
    Notifier, Qserv, QservError, StreamBatch, StreamDone, StreamEvent, StreamHandle, Value,
};
use qserv_engine::exec::ResultTable;
use qserv_engine::schema::ColumnType;
use qserv_engine::table::Table;
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

/// Routes one (tag-stripped) statement.
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

/// Per-request frame-encoding state: the column types sent so far
/// (`None` until `COLS` went out) and how many rows so far.
struct ResponseState {
    sid: Option<u64>,
    types: Option<Vec<Option<ColumnType>>>,
    rows: u64,
}

impl ResponseState {
    fn new(sid: Option<u64>) -> ResponseState {
        ResponseState {
            sid,
            types: None,
            rows: 0,
        }
    }
}

/// Encodes one merged batch, part by part in chunk order: `COLS` and
/// `TYPES` the first time, typed by the votes ([`ballot`]) of the first
/// part that holds rows; then `ROWS <n>` blocks. A part that types a
/// column still tagged `null` (all-NULL so far) ends the block before
/// it and sends `TYPES` again. The first batch holds the first part
/// with rows (the merger drains no batch of empty parts), so the header
/// sequence depends only on the parts — on query and data — never on
/// how arrivals were batched.
fn write_batch(out: &mut Vec<u8>, st: &mut ResponseState, batch: &StreamBatch) {
    let p = sid_prefix(st.sid);
    let types = st.types.get_or_insert_with(|| {
        let _ = writeln!(out, "{p}COLS {}", batch.columns.join("\t"));
        let first = batch.parts.iter().find(|part| !part.is_empty());
        let types: Vec<_> = (0..batch.columns.len())
            .map(|c| first.and_then(|part| ballot(part, c)))
            .collect();
        write_types(out, &p, &types);
        types
    });
    let mut block = 0;
    for (i, part) in batch.parts.iter().enumerate() {
        let mut typed = false;
        for (c, ty) in types.iter_mut().enumerate() {
            if ty.is_none() {
                *ty = ballot(part, c);
                typed |= ty.is_some();
            }
        }
        if typed {
            st.rows += write_rows(out, &p, &batch.parts[block..i]);
            write_types(out, &p, types);
            block = i;
        }
    }
    st.rows += write_rows(out, &p, &batch.parts[block..]);
}

fn write_types(out: &mut Vec<u8>, p: &str, types: &[Option<ColumnType>]) {
    let tags: Vec<&str> = types.iter().map(|t| column_tag(*t)).collect();
    let _ = writeln!(out, "{p}TYPES {}", tags.join("\t"));
}

/// Writes one `ROWS <n>` block over `parts` (nothing when they hold no
/// row) and returns `n`. Each part's cells are written by row index
/// straight from its column slices and null masks — no row is
/// materialized. The block (header + `n` raw TSV lines) is written in
/// one append, so multiplexed responses never interleave inside it.
fn write_rows(out: &mut Vec<u8>, p: &str, parts: &[Table]) -> u64 {
    let rows: usize = parts.iter().map(Table::num_rows).sum();
    if rows == 0 {
        return 0;
    }
    let _ = writeln!(out, "{p}ROWS {rows}");
    for part in parts {
        let cols: Vec<_> = (0..part.schema().len())
            .map(|c| (part.column_slice(c), part.null_mask(c)))
            .collect();
        for r in 0..part.num_rows() {
            for (i, (col, nulls)) in cols.iter().enumerate() {
                if i > 0 {
                    out.push(b'\t');
                }
                write_cell(out, *col, nulls[r], r);
            }
            out.push(b'\n');
        }
    }
    rows as u64
}

/// Encodes the terminal frame: `TRACE` + `END` on success, `ERR` (or
/// `BUSY`) on failure. An `ERR` after delivered batches tells the
/// client to discard those rows — the result is the error.
fn write_done(out: &mut Vec<u8>, st: &ResponseState, done: &StreamDone) {
    let p = sid_prefix(st.sid);
    match &done.result {
        Ok(stats) => {
            if let Some(trace) = &done.trace {
                let _ = writeln!(out, "{p}TRACE {}", trace.to_json());
            }
            let _ = writeln!(
                out,
                "{p}END {} {} {}",
                st.rows, stats.chunks_dispatched, stats.result_bytes
            );
        }
        Err(e) => write_error(out, st.sid, e),
    }
}

/// Encodes a failure as its frame: admission backpressure is `BUSY`
/// (resubmit later, the session stays usable), anything else `ERR`.
fn write_error(out: &mut Vec<u8>, sid: Option<u64>, e: &QservError) {
    let p = sid_prefix(sid);
    match e {
        QservError::Busy { retry_after_ms } => {
            let _ = writeln!(out, "{p}BUSY {retry_after_ms}");
        }
        e => {
            let msg = e.to_string().replace('\n', " ");
            let _ = writeln!(out, "{p}ERR {msg}");
        }
    }
}

/// Encodes an inline table (the `KILL`/`STATUS`/`EXPLAIN` replies) as
/// one batch typed as any result is ([`StreamBatch::of_result`]), then
/// `END`: one complete response with no cluster work.
fn write_table(out: &mut Vec<u8>, sid: Option<u64>, table: ResultTable) {
    let mut st = ResponseState::new(sid);
    write_batch(out, &mut st, &StreamBatch::of_result(table));
    let _ = writeln!(out, "{}END {} 0 0", sid_prefix(sid), st.rows);
}

// ---------------------------------------------------------------------
// The reactor.
// ---------------------------------------------------------------------

/// One in-flight streamed query on a connection.
struct Request {
    state: ResponseState,
    handle: StreamHandle,
    /// Untagged requests hold the connection's serial slot.
    untagged: bool,
}

/// One multiplexed connection.
struct Conn {
    token: usize,
    stream: mio::net::TcpStream,
    splitter: StatementSplitter,
    out: Vec<u8>,
    outpos: usize,
    requests: Vec<Request>,
    /// Untagged statements waiting for the serial slot.
    untagged_queue: VecDeque<String>,
    untagged_busy: bool,
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
                && self.requests.is_empty()
                && self.untagged_queue.is_empty()
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
                                read_ready(&self.service, &self.notifier, conn);
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
                        requests: Vec::new(),
                        untagged_queue: VecDeque::new(),
                        untagged_busy: false,
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
    /// start queued untagged statements, refresh interest. The
    /// drain/flush pair loops so a socket that swallowed its backlog
    /// immediately frees the query it was throttling — otherwise
    /// events left behind a high-water stop could strand a blocked
    /// executor with no readiness edge left to wake us.
    fn pump(&mut self) {
        for conn in self.conns.values_mut() {
            loop {
                let progressed = drain_requests(&self.service, &self.notifier, conn);
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
                // Dropping `conn.requests` drops the stream handles,
                // cancelling whatever was still running for this peer.
            }
        }
    }
}

/// Reads until `WouldBlock`/EOF, then starts every complete statement.
fn read_ready(service: &QueryService, notifier: &Notifier, conn: &mut Conn) {
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
        handle_statement(service, notifier, conn, stmt);
    }
}

/// Starts (or queues) one statement. Tagged statements run
/// concurrently; untagged ones serialize through the connection's
/// single slot, preserving the strict request/response contract for
/// clients that never tag.
fn handle_statement(service: &QueryService, notifier: &Notifier, conn: &mut Conn, raw: String) {
    let (sid, stmt) = split_sid(&raw);
    if sid.is_none() && (conn.untagged_busy || !conn.untagged_queue.is_empty()) {
        conn.untagged_queue.push_back(stmt.to_string());
        return;
    }
    start_statement(service, notifier, conn, sid, stmt);
}

fn start_statement(
    service: &QueryService,
    notifier: &Notifier,
    conn: &mut Conn,
    sid: Option<u64>,
    stmt: &str,
) {
    match route(service, stmt) {
        Action::Table(table) => write_table(&mut conn.out, sid, table),
        Action::BadVerb(msg) => {
            let _ = writeln!(conn.out, "{}ERR {msg}", sid_prefix(sid));
        }
        Action::Submit { sql, traced } => {
            let root = traced.then_some("proxy.request");
            match service.submit_streaming(&sql, root, Some(Arc::clone(notifier))) {
                Ok(handle) => {
                    conn.requests.push(Request {
                        state: ResponseState::new(sid),
                        handle,
                        untagged: sid.is_none(),
                    });
                    if sid.is_none() {
                        conn.untagged_busy = true;
                    }
                }
                Err(e) => write_error(&mut conn.out, sid, &e),
            }
        }
    }
}

/// Drains ready stream events into the connection's write buffer, up
/// to the high-water mark, and feeds the untagged serial queue as its
/// slot frees up. Returns whether anything moved (the caller loops
/// with a flush in between until nothing does).
fn drain_requests(service: &QueryService, notifier: &Notifier, conn: &mut Conn) -> bool {
    let mut progressed = false;
    let mut i = 0;
    // Split the borrows: the request list and the write buffer are
    // touched together inside the loop.
    let (out, outpos, requests) = (&mut conn.out, conn.outpos, &mut conn.requests);
    let over_water = |out: &Vec<u8>| out.len() - outpos > HIGH_WATER_BYTES;
    while i < requests.len() {
        if over_water(out) {
            // Stop producing: the executor's bounded channel fills
            // next, stalling the merge until this socket drains.
            return progressed;
        }
        let req = &mut requests[i];
        let mut finished = false;
        while let Some(ev) = req.handle.try_recv() {
            progressed = true;
            match ev {
                StreamEvent::Batch(batch) => write_batch(out, &mut req.state, &batch),
                StreamEvent::Done(done) => {
                    write_done(out, &req.state, &done);
                    finished = true;
                    break;
                }
            }
            if over_water(out) {
                break;
            }
        }
        if finished {
            let req = requests.remove(i);
            if req.untagged {
                conn.untagged_busy = false;
            }
        } else {
            i += 1;
        }
    }
    // The serial slot freed up: start queued untagged statements
    // (verbs answer inline and free the slot again immediately).
    while !conn.untagged_busy && !conn.closing {
        let Some(stmt) = conn.untagged_queue.pop_front() else {
            break;
        };
        progressed = true;
        start_statement(service, notifier, conn, None, &stmt);
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
    /// are the same whether they arrive as one batch or as `[c0, c1]`,
    /// `[c2]`, `[c3]` (the merger drains no batch of empty parts), apart
    /// from where `ROWS` blocks split.
    #[test]
    fn types_headers_do_not_depend_on_batching() {
        use qserv_engine::schema::{ColumnDef, Schema};
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
            let mut st = ResponseState::new(None);
            for parts in batches {
                let batch = StreamBatch {
                    columns: columns.clone(),
                    parts,
                };
                write_batch(&mut out, &mut st, &batch);
            }
            let text = String::from_utf8(out).expect("utf-8");
            let lines: Vec<String> = text
                .lines()
                .filter(|l| !l.starts_with("ROWS "))
                .map(str::to_string)
                .collect();
            (lines, st.rows)
        };
        let one = frames(vec![parts.clone()]);
        let each = frames(vec![
            parts[..2].to_vec(),
            vec![parts[2].clone()],
            vec![parts[3].clone()],
        ]);
        assert_eq!(one, each);
        assert_eq!(
            one.0,
            [
                "COLS objectId\tm",
                "TYPES int\tnull",
                "1\t\\N",
                "2\t\\N",
                "TYPES int\tint",
                "3\t0",
                "4\t\\N",
                "5\t1"
            ]
        );
        assert_eq!(one.1, 5);
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

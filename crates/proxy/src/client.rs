//! The proxy client: submits SQL, checks and decodes the streamed
//! column frames back into rows — either buffered
//! ([`ProxyClient::query`]) or incrementally
//! ([`ProxyClient::query_stream`], which yields each `ROWS` frame as it
//! arrives, so first rows are usable while the scan still runs).

use crate::protocol::ProtocolError;
use crate::retry::RetryPolicy;
use qserv_engine::exec::ResultTable;
use qserv_engine::storage::decode_frame;
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered `ERR <message>`. Any rows delivered before
    /// the error have been discarded — the result is the error.
    Server(String),
    /// The server answered `BUSY <retry_after_ms>`: the admission queue
    /// is full — back off and resubmit, the session stays usable (see
    /// [`crate::retry`]).
    Busy {
        /// The server's suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// The server sent a malformed frame: a bad header line, or a
    /// `ROWS` frame that fails its checksum or disagrees with its header
    /// or `COLS`. None of its rows reach the caller.
    Protocol(ProtocolError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms} ms")
            }
            ClientError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

fn protocol_err(message: impl Into<String>) -> ClientError {
    ClientError::Protocol(ProtocolError {
        message: message.into(),
    })
}

/// Per-query statistics echoed by the server's `END` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteStats {
    /// Rows in the result.
    pub rows: usize,
    /// Chunk queries the master dispatched.
    pub chunks_dispatched: usize,
    /// Worker result bytes transferred inside the cluster.
    pub result_bytes: u64,
}

/// One `ROWS` frame as it came off the wire: the rows of one chunk
/// table (or of a merged answer), checked and decoded.
#[derive(Clone, Debug)]
pub struct WireBatch {
    /// Output column names.
    pub columns: Vec<String>,
    /// Decoded rows.
    pub rows: Vec<Vec<Value>>,
}

/// A connected proxy session. One outstanding query at a time — the
/// protocol is strictly request/response, matching how the paper's
/// `mysql` CLI sessions drive the system.
pub struct ProxyClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    retry: RetryPolicy,
}

/// Configures a [`ProxyClient`] before connecting — today that is the
/// `BUSY` [`RetryPolicy`] (attempt budget, backoff floor/cap, growth
/// factor, jitter fraction and seed; see [`crate::retry`] for the
/// defaults and [the protocol doc](crate#busy-and-client-backoff) for
/// how they interact with the server's `retry_after_ms` hint).
#[derive(Clone, Debug, Default)]
pub struct ClientBuilder {
    retry: RetryPolicy,
}

impl ClientBuilder {
    /// Replaces the default `BUSY` retry policy. Fleets should at least
    /// vary the jitter seed per client ([`RetryPolicy::seeded`]) so
    /// backoffs spread out instead of resubmitting in lockstep.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> ClientBuilder {
        self.retry = retry;
        self
    }

    /// Connects to a proxy with this configuration.
    pub fn connect(self, addr: impl ToSocketAddrs) -> std::io::Result<ProxyClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ProxyClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            retry: self.retry,
        })
    }
}

impl ProxyClient {
    /// Connects to a proxy with the default configuration
    /// (equivalent to `ProxyClient::builder().connect(addr)`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ProxyClient> {
        ProxyClient::builder().connect(addr)
    }

    /// Starts configuring a client (retry policy, …).
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// The `BUSY` retry policy [`ProxyClient::query_with_retry`] runs
    /// under.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Submits one query and buffers the full response.
    pub fn query(&mut self, sql: &str) -> Result<(ResultTable, RemoteStats), ClientError> {
        let (table, stats, _trace) = self.exchange(sql.trim_end_matches(';'))?;
        Ok((table, stats))
    }

    /// [`ProxyClient::query`] under the configured [`RetryPolicy`]:
    /// `BUSY` responses back off and resubmit until the retry budget is
    /// spent; every other outcome passes through unchanged.
    pub fn query_with_retry(
        &mut self,
        sql: &str,
    ) -> Result<(ResultTable, RemoteStats), ClientError> {
        let policy = self.retry.clone();
        policy.run(|| {
            let (table, stats, _trace) = self.exchange(sql.trim_end_matches(';'))?;
            Ok((table, stats))
        })
    }

    /// Submits one query under the server-side trace (`TRACE <sql>;`),
    /// additionally returning the trace tree as compact JSON.
    pub fn query_traced(
        &mut self,
        sql: &str,
    ) -> Result<(ResultTable, RemoteStats, String), ClientError> {
        let request = format!("TRACE {}", sql.trim_end_matches(';'));
        let (table, stats, trace) = self.exchange(&request)?;
        let trace =
            trace.ok_or_else(|| protocol_err("server sent no TRACE frame for a traced query"))?;
        Ok((table, stats, trace))
    }

    /// Submits one query and returns an incremental reader over its
    /// `ROWS` blocks: call [`QueryStream::next_batch`] until it yields
    /// `None`, then [`QueryStream::stats`] for the `END` counters.
    /// Dropping the stream early drains the rest of the response so
    /// the session stays usable.
    pub fn query_stream(&mut self, sql: &str) -> Result<QueryStream<'_>, ClientError> {
        self.send(sql.trim_end_matches(';'))
    }

    /// Writes one request and returns the reader over its response.
    fn send(&mut self, request: &str) -> Result<QueryStream<'_>, ClientError> {
        writeln!(self.writer, "{request};")?;
        self.writer.flush()?;
        Ok(QueryStream {
            client: self,
            columns: None,
            rows_seen: 0,
            trace: None,
            stats: None,
            finished: false,
        })
    }

    /// Cancels a server-side query by id (`KILL <qid>;`), returning the
    /// outcome string: `cancelled` (was still queued), `cancelling`
    /// (running; it stops at the next chunk boundary), `finished`, or
    /// `unknown`.
    pub fn kill(&mut self, qid: u64) -> Result<String, ClientError> {
        let (table, _, _) = self.exchange(&format!("KILL {qid}"))?;
        match table.rows.first().and_then(|r| r.get(1)) {
            Some(Value::Str(outcome)) => Ok(outcome.clone()),
            _ => Err(protocol_err("KILL reply has no outcome column")),
        }
    }

    /// The server's query registry (`STATUS;`) as a result table with
    /// columns `qid, class, state, wait_ms, run_ms, sql`.
    pub fn status(&mut self) -> Result<ResultTable, ClientError> {
        let (table, _, _) = self.exchange("STATUS")?;
        Ok(table)
    }

    /// Plans `sql` server-side without executing it (`EXPLAIN <sql>;`)
    /// and returns the chosen plan as an `item, value` result table:
    /// access path, predicate order with selectivity/cost estimates,
    /// top-n pushdown, estimated rows/cost, merge shape, and placement
    /// epoch.
    pub fn explain(&mut self, sql: &str) -> Result<ResultTable, ClientError> {
        let request = format!("EXPLAIN {}", sql.trim_end_matches(';'));
        let (table, _, _) = self.exchange(&request)?;
        Ok(table)
    }

    /// One request/response round trip, buffering every batch; the
    /// optional third element is the body of a `TRACE` frame.
    fn exchange(
        &mut self,
        request: &str,
    ) -> Result<(ResultTable, RemoteStats, Option<String>), ClientError> {
        let mut stream = self.send(request)?;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        while let Some(mut batch) = stream.next_batch()? {
            rows.append(&mut batch.rows);
        }
        let stats = stream
            .stats()
            .expect("next_batch yields None only after the END frame");
        let table = ResultTable {
            columns: stream.columns().to_vec(),
            rows,
        };
        Ok((table, stats, stream.trace_json().map(str::to_string)))
    }
}

/// An in-flight streamed response (see [`ProxyClient::query_stream`]).
pub struct QueryStream<'a> {
    client: &'a mut ProxyClient,
    /// The `COLS` names, once they arrived.
    columns: Option<Vec<String>>,
    rows_seen: usize,
    trace: Option<String>,
    stats: Option<RemoteStats>,
    finished: bool,
}

impl QueryStream<'_> {
    /// The next `ROWS` frame's rows, or `None` once the query finished
    /// (`END`). Errors surface exactly as in buffered mode; rows
    /// already yielded before a mid-stream `ERR` must be discarded. A
    /// damaged frame is a [`ClientError::Protocol`]; its header stated
    /// its length, so the rest of the response is read past and the
    /// session answers its next statement.
    pub fn next_batch(&mut self) -> Result<Option<WireBatch>, ClientError> {
        if self.finished {
            return Ok(None);
        }
        loop {
            let ev = match read_event(&mut self.client.reader, self.columns.as_deref()) {
                Ok(ev) => ev,
                Err(e) => {
                    self.finished = true;
                    return Err(e);
                }
            };
            match ev {
                FrameEvent::Cols(c) => self.columns = Some(c),
                FrameEvent::Rows(Ok(part)) => {
                    self.rows_seen += part.num_rows();
                    return Ok(Some(WireBatch {
                        columns: self.columns().to_vec(),
                        rows: (0..part.num_rows()).map(|r| part.row(r)).collect(),
                    }));
                }
                FrameEvent::Rows(Err(e)) => {
                    self.skip_rest();
                    return Err(e);
                }
                FrameEvent::Trace(json) => self.trace = Some(json),
                FrameEvent::End(stats) => {
                    self.finished = true;
                    if stats.rows != self.rows_seen {
                        return Err(protocol_err(format!(
                            "END says {} rows, streamed {}",
                            stats.rows, self.rows_seen
                        )));
                    }
                    self.stats = Some(stats);
                    return Ok(None);
                }
            }
        }
    }

    /// Reads the response through its terminal frame, keeping nothing,
    /// so the next request on this session reads its own frames.
    fn skip_rest(&mut self) {
        while !self.finished {
            let ev = read_event(&mut self.client.reader, self.columns.as_deref());
            self.finished = matches!(ev, Ok(FrameEvent::End(_)) | Err(_));
        }
    }

    /// Column names (known after the first batch).
    pub fn columns(&self) -> &[String] {
        self.columns.as_deref().unwrap_or_default()
    }

    /// The `END` statistics, available once `next_batch` returned
    /// `None`.
    pub fn stats(&self) -> Option<RemoteStats> {
        self.stats
    }

    /// The `TRACE` frame body, if the request was traced.
    pub fn trace_json(&self) -> Option<&str> {
        self.trace.as_deref()
    }
}

impl Drop for QueryStream<'_> {
    fn drop(&mut self) {
        // Abandoned mid-stream: drain to the terminal frame so the next
        // request on this session doesn't read stale frames.
        self.skip_rest();
    }
}

/// One decoded protocol event.
enum FrameEvent {
    Cols(Vec<String>),
    /// A `ROWS` frame read whole: its table, or why it failed a check.
    Rows(Result<Table, ClientError>),
    Trace(String),
    End(RemoteStats),
}

/// Reads one frame (a `ROWS` header with the frame bytes it announces),
/// checking a `ROWS` frame against the `COLS` seen so far. `ERR`/`BUSY`
/// map to errors.
fn read_event(
    reader: &mut BufReader<TcpStream>,
    columns: Option<&[String]>,
) -> Result<FrameEvent, ClientError> {
    let frame = read_line(reader)?;
    if let Some(msg) = frame.strip_prefix("ERR ") {
        return Err(ClientError::Server(msg.to_string()));
    }
    if let Some(ms) = frame.strip_prefix("BUSY ") {
        let retry_after_ms = ms
            .trim()
            .parse()
            .map_err(|_| protocol_err(format!("malformed BUSY frame {frame:?}")))?;
        return Err(ClientError::Busy { retry_after_ms });
    }
    if let Some(rest) = frame.strip_prefix("COLS") {
        return Ok(FrameEvent::Cols(split_frame(rest)));
    }
    if let Some(rest) = frame.strip_prefix("ROWS ") {
        let (rows, len) = rest
            .split_once(' ')
            .and_then(|(n, len)| Some((n.parse().ok()?, len.parse().ok()?)))
            .ok_or_else(|| protocol_err(format!("malformed ROWS frame {frame:?}")))?;
        // Grows with the bytes that arrive, never to the stated length.
        let mut bytes = Vec::new();
        if reader.by_ref().take(len).read_to_end(&mut bytes)? as u64 != len {
            return Err(closed_mid_response());
        }
        return Ok(FrameEvent::Rows(check_frame(&bytes, rows, columns)));
    }
    if let Some(json) = frame.strip_prefix("TRACE ") {
        return Ok(FrameEvent::Trace(json.to_string()));
    }
    if let Some(rest) = frame.strip_prefix("END ") {
        return Ok(FrameEvent::End(parse_end(rest)?));
    }
    Err(protocol_err(format!("unexpected frame {frame:?}")))
}

/// Verifies and decodes a `ROWS` frame: its CRC32C and pages
/// ([`decode_frame`]), then its row count against the header's and
/// its column names against `COLS`.
fn check_frame(
    bytes: &[u8],
    rows: usize,
    columns: Option<&[String]>,
) -> Result<Table, ClientError> {
    let (part, _) =
        decode_frame(bytes).map_err(|e| protocol_err(format!("bad ROWS frame: {e}")))?;
    let names: Vec<&str> = part
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    match columns {
        None => Err(protocol_err("ROWS before COLS")),
        Some(cols) if names != cols => Err(protocol_err(format!(
            "frame columns {names:?} differ from COLS {cols:?}"
        ))),
        _ if part.num_rows() != rows => Err(protocol_err(format!(
            "ROWS says {rows} rows, its frame holds {}",
            part.num_rows()
        ))),
        _ => Ok(part),
    }
}

fn closed_mid_response() -> ClientError {
    ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "server closed mid-response",
    ))
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, ClientError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(closed_mid_response());
    }
    Ok(line.trim_end_matches(['\n', '\r']).to_string())
}

fn parse_end(rest: &str) -> Result<RemoteStats, ClientError> {
    let bad = || protocol_err(format!("malformed END frame {rest:?}"));
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let [r, c, b] = parts.as_slice() else {
        return Err(bad());
    };
    Ok(RemoteStats {
        rows: r.parse().map_err(|_| bad())?,
        chunks_dispatched: c.parse().map_err(|_| bad())?,
        result_bytes: b.parse().map_err(|_| bad())?,
    })
}

/// Splits a frame body on tabs, tolerating the leading space after the
/// frame tag. An empty body means zero fields.
fn split_frame(body: &str) -> Vec<String> {
    let body = body.strip_prefix(' ').unwrap_or(body);
    if body.is_empty() {
        return Vec::new();
    }
    body.split('\t').map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserv_engine::exec::ScanStats;
    use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
    use qserv_engine::storage::encode_frame;
    use std::io::Write;
    use std::net::TcpListener;

    type Answer = Result<(ResultTable, RemoteStats), ClientError>;

    /// Answers one statement per canned reply, in order, on one session,
    /// then hangs up; returns what the client made of each.
    fn answer(replies: Vec<Vec<u8>>) -> Vec<Answer> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let statements = replies.len();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut requests = BufReader::new(stream.try_clone().expect("clone"));
            for reply in replies {
                let mut request = String::new();
                requests.read_line(&mut request).expect("request");
                (&stream).write_all(&reply).expect("reply");
            }
        });
        let mut client = ProxyClient::connect(addr).expect("connect");
        let results = (0..statements).map(|_| client.query("SELECT x")).collect();
        server.join().expect("server thread");
        results
    }

    /// A table of `(name, type)` columns and rows.
    fn table(cols: &[(&str, ColumnType)], rows: Vec<Vec<Value>>) -> Table {
        let defs = cols.iter().map(|&(n, ty)| ColumnDef::new(n, ty)).collect();
        let mut t = Table::new(Schema::new(defs));
        for row in rows {
            t.push_row(row).expect("fits");
        }
        t
    }

    /// `COLS`, a `ROWS` header stating `rows` and each frame's length
    /// before its bytes, then `END`.
    fn response(cols: &str, frames: &[(usize, Vec<u8>)]) -> Vec<u8> {
        let mut out = format!("COLS {cols}\n").into_bytes();
        for (rows, frame) in frames {
            out.extend_from_slice(format!("ROWS {rows} {}\n", frame.len()).as_bytes());
            out.extend_from_slice(frame);
        }
        let total: usize = frames.iter().map(|(rows, _)| rows).sum();
        out.extend_from_slice(format!("END {total} 0 0\n").as_bytes());
        out
    }

    fn frame(t: &Table) -> (usize, Vec<u8>) {
        (t.num_rows(), encode_frame(t, &ScanStats::default()))
    }

    /// Two rows of `(id Int, name Str)`.
    fn sample() -> Table {
        table(
            &[("id", ColumnType::Int), ("name", ColumnType::Str)],
            vec![
                vec![Value::Int(7), Value::Str("a\tb".into())],
                vec![Value::Null, Value::Str("c".into())],
            ],
        )
    }

    /// Sends `damaged` as the first statement's reply and a sound one as
    /// the second's: the first is a protocol error, the second answers.
    fn damaged_then_sound(damaged: Vec<u8>) -> ClientError {
        let sound = response("id\tname", &[frame(&sample())]);
        let mut got = answer(vec![damaged, sound]).into_iter();
        let err = got.next().expect("first").expect_err("a damaged frame");
        let (second, stats) = got.next().expect("second").expect("the session goes on");
        assert_eq!(
            second.rows,
            vec![
                vec![Value::Int(7), Value::Str("a\tb".into())],
                vec![Value::Null, Value::Str("c".into())],
            ]
        );
        assert_eq!(stats.rows, 2);
        err
    }

    #[test]
    fn frames_type_their_own_columns_part_by_part() {
        // `x` is all NULL in the first part (Float-typed by its worker)
        // and Int in the second.
        let first = table(
            &[("x", ColumnType::Float), ("n", ColumnType::Int)],
            vec![vec![Value::Null, Value::Int(1)]],
        );
        let second = table(
            &[("x", ColumnType::Int), ("n", ColumnType::Int)],
            vec![vec![Value::Int(3), Value::Int(2)]],
        );
        let reply = response("x\tn", &[frame(&first), frame(&second)]);
        let (got, stats) = answer(vec![reply]).remove(0).expect("two sound frames");
        assert_eq!(got.columns, ["x", "n"]);
        assert_eq!(
            got.rows,
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(3), Value::Int(2)]
            ]
        );
        assert_eq!(stats.rows, 2);
    }

    #[test]
    fn a_flipped_bit_anywhere_in_a_frame_is_an_error_and_the_session_goes_on() {
        let (rows, sound) = frame(&sample());
        for at in 0..sound.len() {
            let mut bad = sound.clone();
            bad[at] ^= 1 << (at % 8);
            let err = damaged_then_sound(response("id\tname", &[(rows, bad)]));
            assert!(
                matches!(err, ClientError::Protocol(_)),
                "byte {at}: {err:?}"
            );
        }
    }

    #[test]
    fn a_row_count_other_than_the_header_is_an_error() {
        let (_, sound) = frame(&sample());
        let err = damaged_then_sound(response("id\tname", &[(3, sound)]));
        assert!(
            matches!(&err, ClientError::Protocol(e) if e.message.contains("ROWS says 3")),
            "{err:?}"
        );
    }

    #[test]
    fn frame_columns_other_than_cols_are_an_error() {
        let err = damaged_then_sound(response("id\tlabel", &[frame(&sample())]));
        assert!(
            matches!(&err, ClientError::Protocol(e) if e.message.contains("differ from COLS")),
            "{err:?}"
        );
    }

    #[test]
    fn a_frame_cut_short_by_eof_is_an_error() {
        let (rows, sound) = frame(&sample());
        let mut reply = format!("COLS id\tname\nROWS {rows} {}\n", sound.len()).into_bytes();
        reply.extend_from_slice(&sound[..sound.len() - 5]);
        let err = answer(vec![reply]).remove(0).expect_err("a short frame");
        assert!(
            matches!(&err, ClientError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
    }

    #[test]
    fn a_huge_stated_length_fails_on_the_bytes_received() {
        // A buffer sized by the peer would abort here; the client reads
        // only what arrives.
        let reply = format!("COLS id\nROWS 1 {}\nQFRAME01", u64::MAX).into_bytes();
        let err = answer(vec![reply]).remove(0).expect_err("a lying header");
        assert!(
            matches!(&err, ClientError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
    }
}

//! The proxy client: submits SQL, parses streamed frames back into
//! rows — either buffered ([`ProxyClient::query`]) or incrementally
//! ([`ProxyClient::query_stream`], which yields each `ROWS` block as
//! it arrives, so first rows are usable while the scan still runs).

use crate::protocol::{decode_value, ProtocolError};
use crate::retry::RetryPolicy;
use qserv_engine::exec::ResultTable;
use qserv_engine::value::Value;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
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
    /// The server sent a malformed frame.
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

/// One `ROWS` block as it came off the wire, with the header state it
/// was decoded under.
#[derive(Clone, Debug)]
pub struct WireBatch {
    /// Output column names.
    pub columns: Vec<String>,
    /// Wire type tags (`int`/`float`/`str`/`null`) in effect for this
    /// batch. A later batch may replace a `null` tag (a column all-NULL
    /// until then); any other tag never changes within one response.
    pub types: Vec<String>,
    /// Decoded rows.
    pub rows: Vec<Vec<Value>>,
}

/// A connected proxy session. One outstanding query at a time — the
/// untagged protocol is strictly request/response, matching how the
/// paper's `mysql` CLI sessions drive the system. (Multiplexing over a
/// single connection uses `#<sid>` tags on the raw protocol.)
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
            columns: Vec::new(),
            types: Vec::new(),
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
    columns: Vec<String>,
    types: Vec<String>,
    rows_seen: usize,
    trace: Option<String>,
    stats: Option<RemoteStats>,
    finished: bool,
}

impl QueryStream<'_> {
    /// The next `ROWS` block, or `None` once the query finished
    /// (`END`). Errors surface exactly as in buffered mode; rows
    /// already yielded before a mid-stream `ERR` must be discarded.
    pub fn next_batch(&mut self) -> Result<Option<WireBatch>, ClientError> {
        if self.finished {
            return Ok(None);
        }
        loop {
            let ev = read_event(
                &mut self.client.reader,
                if self.columns.is_empty() {
                    None
                } else {
                    Some(self.columns.as_slice())
                },
                &self.types,
            );
            let ev = match ev {
                Ok(ev) => ev,
                Err(e) => {
                    self.finished = true;
                    return Err(e);
                }
            };
            match ev {
                FrameEvent::Cols(c) => self.columns = c,
                FrameEvent::Types(new) => self.types = new,
                FrameEvent::Rows(rows) => {
                    self.rows_seen += rows.len();
                    return Ok(Some(WireBatch {
                        columns: self.columns.clone(),
                        types: self.types.clone(),
                        rows,
                    }));
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

    /// Column names (known after the first batch).
    pub fn columns(&self) -> &[String] {
        &self.columns
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
        while !self.finished {
            if self.next_batch().is_err() {
                break;
            }
        }
    }
}

/// One decoded protocol event (a `ROWS` block arrives whole).
enum FrameEvent {
    Cols(Vec<String>),
    Types(Vec<String>),
    Rows(Vec<Vec<Value>>),
    Trace(String),
    End(RemoteStats),
}

/// Reads one frame (plus a `ROWS` block's payload lines), validating
/// against the header state seen so far. `ERR`/`BUSY` map to errors.
fn read_event(
    reader: &mut BufReader<TcpStream>,
    columns: Option<&[String]>,
    types: &[String],
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
    if let Some(rest) = frame.strip_prefix("TYPES") {
        let new = split_frame(rest);
        if let Some(cols) = columns {
            if new.len() != cols.len() {
                return Err(protocol_err(format!(
                    "{} columns but {} types",
                    cols.len(),
                    new.len()
                )));
            }
        }
        // A resend may only type a column that was all-NULL so far.
        if let Some((i, (old, new))) = types
            .iter()
            .zip(&new)
            .enumerate()
            .find(|(_, (old, new))| old != new && *old != "null")
        {
            return Err(protocol_err(format!(
                "illegal TYPES resend {old} -> {new} in column {i}"
            )));
        }
        return Ok(FrameEvent::Types(new));
    }
    if let Some(rest) = frame.strip_prefix("ROWS ") {
        let n: usize = rest
            .trim()
            .parse()
            .map_err(|_| protocol_err(format!("malformed ROWS frame {frame:?}")))?;
        let width = columns.map(|c| c.len()).unwrap_or(0);
        if types.len() != width || width == 0 {
            return Err(protocol_err("ROWS before COLS/TYPES headers"));
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let line = read_line(reader)?;
            let cells: Vec<&str> = line.split('\t').collect();
            if cells.len() != width {
                return Err(protocol_err(format!(
                    "row has {} cells, expected {width}",
                    cells.len()
                )));
            }
            let mut row = Vec::with_capacity(width);
            for (cell, ty) in cells.iter().zip(types) {
                row.push(decode_value(cell, ty)?);
            }
            rows.push(row);
        }
        return Ok(FrameEvent::Rows(rows));
    }
    if let Some(json) = frame.strip_prefix("TRACE ") {
        return Ok(FrameEvent::Trace(json.to_string()));
    }
    if let Some(rest) = frame.strip_prefix("END ") {
        return Ok(FrameEvent::End(parse_end(rest)?));
    }
    Err(protocol_err(format!("unexpected frame {frame:?}")))
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, ClientError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed mid-response",
        )));
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
    use std::io::Write;
    use std::net::TcpListener;

    /// Answers one statement with the canned `frames` and returns what
    /// the client made of them.
    fn answer(frames: &'static str) -> Result<(ResultTable, RemoteStats), ClientError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut request)
                .expect("request");
            (&stream).write_all(frames.as_bytes()).expect("reply");
        });
        let result = ProxyClient::connect(addr)
            .expect("connect")
            .query("SELECT x");
        server.join().expect("server thread");
        result
    }

    #[test]
    fn a_types_resend_may_only_replace_null_tags() {
        let (table, _) = answer(
            "COLS x\tn\nTYPES null\tint\nROWS 1\n\\N\t1\nTYPES int\tint\nROWS 1\n3\t2\nEND 2 0 0\n",
        )
        .expect("typing an all-NULL column is legal");
        assert_eq!(
            table.rows,
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(3), Value::Int(2)]
            ]
        );
        let err = answer("COLS x\nTYPES int\nROWS 1\n1\nTYPES float\nROWS 1\n2.5\nEND 2 0 0\n")
            .expect_err("a known type may not change");
        assert!(
            matches!(&err, ClientError::Protocol(e) if e.message.contains("int -> float")),
            "{err:?}"
        );
    }
}

//! TCP front door — the MySQL Proxy stand-in.
//!
//! Paper §5.4: "A MySQL Proxy wraps the qserv frontend so that queries
//! can be submitted using any MySQL-compatible client or library."
//! Speaking the real MySQL wire protocol would reproduce an artifact of
//! the prototyping shortcut rather than the design; this crate provides
//! the equivalent *capability* — submit SQL over a socket from any
//! process — through a small self-describing protocol (text header
//! lines, binary column frames) built for **streaming**: results come
//! back one chunk table at a time while later chunks are still
//! scanning.
//!
//! ```text
//! client:  <sql terminated by ';'>   (a ';' inside a '…' literal or a
//!                                     `…` identifier does not end it)
//! server:  COLS  <name>\t<name>…
//!          ROWS <n> <bytes>                (then exactly <bytes> bytes:
//!          <column frame>                   one chunk table's n rows as
//!          …                                a CRC-sealed column frame;
//!                                           repeats in chunk order)
//!          TRACE <json>           (only for `TRACE <sql>;` requests)
//!          END <rows> <chunks dispatched> <result bytes>
//!    or:   ERR <message>          (may arrive mid-stream — discard any
//!                                  rows already received; the session
//!                                  itself stays usable)
//!    or:   BUSY <retry_after_ms>  (admission queue full — back off and
//!                                  resubmit; see [`retry::RetryPolicy`])
//! ```
//!
//! A `ROWS` frame is encoded as a chunk result crosses the cluster
//! fabric (`qserv_engine::storage::encode_frame`): column pages, each
//! column's type in the frame itself, and a trailing CRC32C over the
//! rest. So a result row has one encoding from worker to client,
//! and its checksum reaches the socket: the client checks the CRC, the
//! frame's row count against `<n>` and its column names against
//! `COLS`. A frame that fails any check is
//! [`client::ClientError::Protocol`], never a row; since the header
//! stated the frame's length, the client reads on to `END`/`ERR` and
//! the session answers its next statement. The client reads a frame as
//! its bytes arrive and never sizes a buffer by the stated length.
//!
//! # BUSY and client backoff
//!
//! `BUSY <retry_after_ms>` is a normal operating mode, not an error:
//! the admission queue shed the statement and the session stays usable.
//! A polite client resubmits after the hinted delay under a jittered
//! exponential backoff — [`retry::RetryPolicy`], configurable per
//! client via [`client::ClientBuilder::retry_policy`] and applied by
//! [`client::ProxyClient::query_with_retry`]. The defaults:
//!
//! | knob         | default | meaning                                   |
//! |--------------|---------|-------------------------------------------|
//! | `max_retries`| 10      | retries after the first attempt           |
//! | `floor`      | 1 ms    | lower bound on any sleep (covers hint 0)  |
//! | `cap`        | 2 s     | upper bound on any sleep                  |
//! | `multiplier` | 2.0     | per-`BUSY` growth of the hint's scale     |
//! | `jitter`     | 0.5     | fraction of each sleep randomized *away*  |
//! | `seed`       | fixed   | jitter sequence; vary per client in fleets|
//!
//! Each sleep starts from the server's `retry_after_ms` hint (clamped
//! to `floor`), scales by `multiplier` per successive `BUSY`, caps at
//! `cap`, and is jittered strictly *downward* — so the hint and the cap
//! both remain honest upper bounds, and a fleet of clients with
//! distinct seeds ([`retry::RetryPolicy::seeded`]) spreads out instead
//! of resubmitting in lockstep.
//!
//! A session is strictly request/response: statements run one at a
//! time per connection, in order, and pipelined statements queue.
//!
//! Prefixing a statement with `TRACE ` runs it under a fresh query
//! trace (see `qserv::Qserv::query_traced`); the span tree comes back
//! as one line of compact JSON in the `TRACE` frame.
//!
//! Two session verbs answer as ordinary result tables, so any client
//! that can read a query response can drive them:
//!
//! * `KILL <qid>;` — cancel a query by service-wide id: columns
//!   `qid, outcome` where outcome is `cancelled` (was still queued),
//!   `cancelling` (running; stops at the next chunk boundary),
//!   `finished`, or `unknown`.
//! * `STATUS;` — the service's query registry: columns
//!   `qid, class, state, wait_ms, run_ms, sql`.
//!
//! Statements are capped at
//! [`protocol::MAX_STATEMENT_BYTES`]; exceeding it without completing a
//! statement closes the connection after an `ERR`.
//!
//! [`server::ProxyServer`] multiplexes every connection on **one
//! event loop** with per-connection write
//! backpressure: a slow reader stalls its own query's merge instead of
//! buffering the result in proxy memory. Every session submits through
//! one shared `qserv::service::QueryService`: admission control and
//! fair scheduling apply *across* sessions, and any session may `KILL`
//! or `STATUS` the queries of every other.
//! [`client::ProxyClient`] turns the stream back into a typed
//! [`ResultTable`] — or yields it incrementally via
//! [`client::ProxyClient::query_stream`].

pub mod client;
pub mod protocol;
pub mod retry;
pub mod server;

pub use client::{ClientBuilder, ProxyClient, QueryStream, RemoteStats, WireBatch};
pub use qserv_engine::exec::ResultTable;
pub use retry::RetryPolicy;
pub use server::ProxyServer;

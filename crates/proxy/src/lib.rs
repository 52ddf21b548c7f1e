//! TCP front door — the MySQL Proxy stand-in.
//!
//! Paper §5.4: "A MySQL Proxy wraps the qserv frontend so that queries
//! can be submitted using any MySQL-compatible client or library."
//! Speaking the real MySQL wire protocol would reproduce an artifact of
//! the prototyping shortcut rather than the design; this crate provides
//! the equivalent *capability* — submit SQL over a socket from any
//! process — through a small self-describing line protocol built for
//! **streaming**: results come back as incremental row blocks while
//! later chunks are still scanning.
//!
//! ```text
//! client:  <sql terminated by ';'>   (a ';' inside a '…' literal or a
//!                                     `…` identifier does not end it)
//! server:  COLS  <name>\t<name>…
//!          TYPES <int|float|str|null>\t…   (may be re-sent mid-stream,
//!                                           but only to replace `null`
//!                                           tags: a column all-NULL
//!                                           until then is now typed)
//!          ROWS <n>                        (then n raw TSV row lines;
//!          <value>\t<value>…                the block is atomic and
//!          …                                repeats as batches fold)
//!          TRACE <json>           (only for `TRACE <sql>;` requests)
//!          END <rows> <chunks dispatched> <result bytes>
//!    or:   ERR <message>          (may arrive mid-stream — discard any
//!                                  rows already received; the session
//!                                  itself stays usable)
//!    or:   BUSY <retry_after_ms>  (admission queue full — back off and
//!                                  resubmit; see [`retry::RetryPolicy`])
//! ```
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
//! **Multiplexing.** A statement may carry a `#<sid>` tag
//! (`#3 SELECT …;`). Tagged statements run *concurrently* on one
//! connection and every response frame line comes back prefixed with
//! the same tag (`#3 ROWS 2` — the `<n>` raw row lines that follow a
//! tagged `ROWS` header are untagged; the block is atomic). Untagged
//! statements keep the classic strict request/response contract: one at
//! a time per connection, in order, with untagged frames — so a client
//! that never tags never sees a tag. `BUSY` under multiplexing rejects
//! only the tagged statement it answers; other in-flight statements on
//! the connection are untouched.
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
//! Values are TSV-escaped (`\t`, `\n`, `\\`); SQL NULL is `\N`, MySQL's
//! batch-output convention. Statements are capped at
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

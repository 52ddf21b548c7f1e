//! Deterministic discrete-event simulation of a Qserv cluster.
//!
//! The paper's evaluation ran on 150 physical nodes holding 30 TB
//! (§6.1.1): 2×4-core Xeons, 16 GB RAM and one 500 GB 7200 RPM SATA disk
//! per node, gigabit Ethernet, up to 4 queries executing in parallel per
//! node. Reproducing the *shape* of those results does not require the
//! hardware — it requires the cost structure:
//!
//! * a **serial master** whose per-chunk dispatch work makes trivial
//!   full-sky queries cost ~20–30 s over ~9000 chunks (HV1, Figure 5) and
//!   scale linearly with chunk count (Figure 11);
//! * **per-node disks** whose sequential bandwidth is shared (with seek
//!   penalties) among concurrently scanning tasks — 98 MB/s theoretical,
//!   ~27 MB/s effective under 4-way contention, ~76 MB/s when mostly
//!   cached (Figure 6 and §6.2 HV2 discussion);
//! * **per-node FIFO queues with no notion of query cost**, which is what
//!   makes short queries get "stuck" behind scans in the concurrency test
//!   (§6.4, Figure 14).
//!
//! [`Simulator`] is an event-driven model of exactly those three
//! resources. Workloads are lists of [`QueryJob`]s made of per-chunk
//! [`ChunkTask`]s with byte/seek/CPU costs; the simulator returns per-query
//! completion reports in virtual seconds. Everything is deterministic:
//! no wall clock, no randomness, stable tie-breaking. Like the testbed
//! behind every figure, the modelled cluster has no faults and one queue
//! policy, FIFO; the live system's fault injection and fair scheduler are
//! tested on the real pipeline (`qserv::FaultPlan`, `qserv::service`).

pub mod config;
pub mod simulator;

pub use config::SimConfig;
pub use simulator::{ChunkTask, QueryJob, QueryReport, Simulator};

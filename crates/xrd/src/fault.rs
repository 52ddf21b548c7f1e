//! Deterministic fault injection for the fabric ("chaos fabric").
//!
//! Real Qserv inherits fault tolerance from Xrootd: writes and reads to
//! data servers can fail transiently and clients are expected to retry,
//! possibly against a different replica (paper §5.1.2, §7.3). To test
//! that machinery without a flaky network, every [`crate::XrdCluster`]
//! carries a [`FaultPlan`]: a seeded, per-server, per-operation schedule
//! of injectable faults. Tests arm the plan, run queries, and assert on
//! the plan's counters — exactly which faults fired.
//!
//! Determinism: probabilistic faults are decided by hashing
//! `(plan seed, server, operation, path, attempt#)` — no wall clock, no
//! global RNG — so a given seed produces the same fault pattern for a
//! given workload regardless of thread interleaving, and a *retry* of
//! the same operation (attempt# + 1) draws a fresh decision.

use crate::server::ServerId;
use parking_lot::Mutex;
use qserv_obs::clock::{wall_clock, SharedClock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The file-transaction sub-operations faults attach to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FabricOp {
    /// Opening a path (either direction).
    Open,
    /// Transferring payload toward a server.
    Write,
    /// Transferring payload from a server.
    Read,
    /// Closing a completed transaction.
    Close,
    /// Removing a file.
    Unlink,
}

impl FabricOp {
    const ALL: [FabricOp; 5] = [
        FabricOp::Open,
        FabricOp::Write,
        FabricOp::Read,
        FabricOp::Close,
        FabricOp::Unlink,
    ];

    fn index(self) -> usize {
        match self {
            FabricOp::Open => 0,
            FabricOp::Write => 1,
            FabricOp::Read => 2,
            FabricOp::Close => 3,
            FabricOp::Unlink => 4,
        }
    }
}

impl fmt::Display for FabricOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FabricOp::Open => "open",
            FabricOp::Write => "write",
            FabricOp::Read => "read",
            FabricOp::Close => "close",
            FabricOp::Unlink => "unlink",
        };
        f.write_str(name)
    }
}

/// What an armed rule does when it matches.
#[derive(Debug)]
enum FaultKind {
    /// Fail the next `remaining` matching operations.
    FailNext { remaining: AtomicU64 },
    /// Fail each matching operation with probability `p` (seeded).
    FailWithProbability { p: f64 },
    /// Wait `by` (through the plan's injected clock) before performing
    /// the operation: a real sleep under a wall clock, a pure
    /// virtual-time advance under a [`qserv_obs::VirtualClock`].
    Delay { by: Duration },
    /// Corrupt the payload with probability `p` (seeded).
    CorruptPayload { p: f64 },
    /// Flip one seeded bit of the payload with probability `p` (seeded).
    FlipOneBit { p: f64 },
}

/// One armed fault: a (server, operation) filter plus an effect.
#[derive(Debug)]
struct FaultRule {
    /// `None` matches every server.
    server: Option<ServerId>,
    /// `None` matches every operation.
    op: Option<FabricOp>,
    kind: FaultKind,
}

impl FaultRule {
    fn matches(&self, server: ServerId, op: FabricOp) -> bool {
        self.server.is_none_or(|s| s == server) && self.op.is_none_or(|o| o == op)
    }
}

/// Counter snapshot: what actually fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations failed by injection (all kinds).
    pub failures_injected: u64,
    /// Delays applied.
    pub delays_injected: u64,
    /// Payloads corrupted.
    pub payloads_corrupted: u64,
    /// Injected failures broken down by operation, indexed like
    /// [`FaultStats::failures_for`].
    pub failures_by_op: [u64; 5],
}

impl FaultStats {
    /// Injected failure count for one operation.
    pub fn failures_for(&self, op: FabricOp) -> u64 {
        self.failures_by_op[op.index()]
    }

    /// Total number of injected events of any kind.
    pub fn total(&self) -> u64 {
        self.failures_injected + self.delays_injected + self.payloads_corrupted
    }
}

/// The per-operation verdict the cluster asks the plan for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Decision {
    /// Fail this operation with [`crate::XrdError::Injected`].
    pub fail: bool,
    /// Corrupt the payload moving through this operation.
    pub corrupt: Option<Corruption>,
}

/// How a payload is damaged in flight. Both keep its length: a real
/// fabric corrupts content, not framing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Corruption {
    /// Flip `0x20` in every 16th byte ([`FaultPlan::corrupt_payload`]):
    /// enough to break both query text and result payloads.
    Stride,
    /// Flip the single bit `draw % (8 × len)`
    /// ([`FaultPlan::flip_one_bit`]): what text parsing alone can miss —
    /// `'4' ^ 0x01` is `'5'`.
    Bit(u64),
}

impl Corruption {
    /// Damages `data` in place.
    pub(crate) fn apply(self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        match self {
            Corruption::Stride => {
                for i in (0..data.len()).step_by(16) {
                    data[i] ^= 0x20;
                }
            }
            Corruption::Bit(draw) => {
                let bit = draw % (8 * data.len() as u64);
                data[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A seeded fault schedule shared by every clone of one cluster.
///
/// A fresh plan has no rules and injects nothing; it costs one relaxed
/// atomic load per fabric sub-operation.
pub struct FaultPlan {
    seed: u64,
    /// The clock delay faults wait through. Defaults to the wall clock;
    /// chaos tests inject a shared virtual clock so injected latency
    /// advances virtual time instead of blocking dispatcher threads.
    clock: Mutex<SharedClock>,
    /// Fast path: number of armed rules (0 ⇒ skip all bookkeeping).
    armed: AtomicU64,
    rules: Mutex<Vec<FaultRule>>,
    /// Attempt numbers per (server, op, path), making probabilistic
    /// decisions deterministic under retry: attempt k of the same
    /// operation always draws the same verdict, attempt k+1 a fresh one.
    attempts: Mutex<HashMap<(ServerId, FabricOp, String), u64>>,
    failures: AtomicU64,
    delays: AtomicU64,
    corruptions: AtomicU64,
    failures_by_op: [AtomicU64; 5],
}

impl FaultPlan {
    /// An empty plan with the given decision seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            clock: Mutex::new(wall_clock()),
            armed: AtomicU64::new(0),
            rules: Mutex::new(Vec::new()),
            attempts: Mutex::new(HashMap::new()),
            failures: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            failures_by_op: Default::default(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the clock delay faults wait through (shared with the
    /// master's dispatch clock when injected via `ClusterBuilder`).
    pub fn set_clock(&self, clock: SharedClock) {
        *self.clock.lock() = clock;
    }

    /// The clock delay faults wait through.
    pub fn clock(&self) -> SharedClock {
        self.clock.lock().clone()
    }

    fn push(&self, rule: FaultRule) {
        self.rules.lock().push(rule);
        self.armed.fetch_add(1, Ordering::SeqCst);
    }

    /// Fails the next `n` operations matching `(server, op)`
    /// (`None` = wildcard).
    pub fn fail_next(&self, server: Option<ServerId>, op: Option<FabricOp>, n: u64) {
        self.push(FaultRule {
            server,
            op,
            kind: FaultKind::FailNext {
                remaining: AtomicU64::new(n),
            },
        });
    }

    /// Fails matching operations with probability `p`, decided
    /// deterministically from the plan seed.
    pub fn fail_with_probability(&self, server: Option<ServerId>, op: Option<FabricOp>, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.push(FaultRule {
            server,
            op,
            kind: FaultKind::FailWithProbability { p },
        });
    }

    /// Delays matching operations by `by` (injected latency).
    pub fn delay(&self, server: Option<ServerId>, op: Option<FabricOp>, by: Duration) {
        self.push(FaultRule {
            server,
            op,
            kind: FaultKind::Delay { by },
        });
    }

    /// Corrupts payloads of matching operations with probability `p`
    /// (seeded). Only meaningful for [`FabricOp::Write`] and
    /// [`FabricOp::Read`].
    pub fn corrupt_payload(&self, server: Option<ServerId>, op: Option<FabricOp>, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.push(FaultRule {
            server,
            op,
            kind: FaultKind::CorruptPayload { p },
        });
    }

    /// Flips one bit — its position drawn from the plan seed — in the
    /// payloads of matching operations, with probability `p` (seeded).
    /// Only meaningful for [`FabricOp::Write`] and [`FabricOp::Read`].
    pub fn flip_one_bit(&self, server: Option<ServerId>, op: Option<FabricOp>, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.push(FaultRule {
            server,
            op,
            kind: FaultKind::FlipOneBit { p },
        });
    }

    /// Disarms every rule (counters are kept).
    pub fn clear(&self) {
        self.rules.lock().clear();
        self.attempts.lock().clear();
        self.armed.store(0, Ordering::SeqCst);
    }

    /// Counter snapshot of everything that fired so far.
    pub fn stats(&self) -> FaultStats {
        let mut failures_by_op = [0u64; 5];
        for op in FabricOp::ALL {
            failures_by_op[op.index()] = self.failures_by_op[op.index()].load(Ordering::SeqCst);
        }
        FaultStats {
            failures_injected: self.failures.load(Ordering::SeqCst),
            delays_injected: self.delays.load(Ordering::SeqCst),
            payloads_corrupted: self.corruptions.load(Ordering::SeqCst),
            failures_by_op,
        }
    }

    /// Seeded 64 random bits for attempt `attempt` of
    /// `(server, op, path)`, stream-separated by `salt` so failure and
    /// corruption rules on the same operation draw independently.
    fn draw_bits(
        &self,
        server: ServerId,
        op: FabricOp,
        path: &str,
        attempt: u64,
        salt: u64,
    ) -> u64 {
        let key = self.seed.wrapping_mul(0x9E3779B97F4A7C15)
            ^ fnv1a(path.as_bytes())
            ^ (server as u64).wrapping_mul(0xA24BAED4963EE407)
            ^ (op.index() as u64).wrapping_mul(0x9FB21C651E98DF25)
            ^ attempt.wrapping_mul(0xD6E8FEB86659FD93)
            ^ salt.wrapping_mul(0xC2B2AE3D27D4EB4F);
        splitmix64(key)
    }

    /// Seeded coin flip in `[0, 1)`, drawn like [`FaultPlan::draw_bits`].
    fn draw(&self, server: ServerId, op: FabricOp, path: &str, attempt: u64, salt: u64) -> f64 {
        (self.draw_bits(server, op, path, attempt, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Evaluates every armed rule for one fabric sub-operation, applying
    /// delays inline and returning whether to fail and/or corrupt.
    pub(crate) fn decide(&self, server: ServerId, op: FabricOp, path: &str) -> Decision {
        if self.armed.load(Ordering::Relaxed) == 0 {
            return Decision::default();
        }
        let attempt = {
            let mut attempts = self.attempts.lock();
            let n = attempts.entry((server, op, path.to_string())).or_insert(0);
            *n += 1;
            *n
        };
        let mut decision = Decision::default();
        let mut delay_total = Duration::ZERO;
        let rules = self.rules.lock();
        for rule in rules.iter().filter(|r| r.matches(server, op)) {
            match &rule.kind {
                FaultKind::FailNext { remaining } => {
                    // Claim one failure slot if any remain.
                    let claimed = remaining
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok();
                    if claimed {
                        decision.fail = true;
                    }
                }
                FaultKind::FailWithProbability { p } => {
                    if self.draw(server, op, path, attempt, 1) < *p {
                        decision.fail = true;
                    }
                }
                FaultKind::Delay { by } => {
                    self.delays.fetch_add(1, Ordering::SeqCst);
                    delay_total += *by;
                }
                FaultKind::CorruptPayload { p } => {
                    if self.draw(server, op, path, attempt, 2) < *p {
                        decision.corrupt = Some(Corruption::Stride);
                    }
                }
                FaultKind::FlipOneBit { p } => {
                    if self.draw(server, op, path, attempt, 3) < *p {
                        let at = self.draw_bits(server, op, path, attempt, 4);
                        decision.corrupt = Some(Corruption::Bit(at));
                    }
                }
            }
        }
        drop(rules);
        if !delay_total.is_zero() {
            // Wait outside the rules lock so an injected (wall-clock)
            // latency never serializes other threads' fault decisions.
            let clock = self.clock.lock().clone();
            clock.sleep(delay_total);
        }
        if decision.fail {
            self.failures.fetch_add(1, Ordering::SeqCst);
            self.failures_by_op[op.index()].fetch_add(1, Ordering::SeqCst);
        }
        if decision.corrupt.is_some() {
            self.corruptions.fetch_add(1, Ordering::SeqCst);
        }
        decision
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rules", &*self.rules.lock())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserv_obs::Clock;

    #[test]
    fn unarmed_plan_is_inert() {
        let plan = FaultPlan::new(7);
        for op in FabricOp::ALL {
            assert_eq!(plan.decide(0, op, "/q"), Decision::default());
        }
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn fail_next_counts_down() {
        let plan = FaultPlan::new(7);
        plan.fail_next(None, Some(FabricOp::Write), 2);
        assert!(plan.decide(0, FabricOp::Write, "/a").fail);
        assert!(!plan.decide(0, FabricOp::Read, "/a").fail);
        assert!(plan.decide(1, FabricOp::Write, "/b").fail);
        assert!(!plan.decide(2, FabricOp::Write, "/c").fail);
        let stats = plan.stats();
        assert_eq!(stats.failures_injected, 2);
        assert_eq!(stats.failures_for(FabricOp::Write), 2);
        assert_eq!(stats.failures_for(FabricOp::Read), 0);
    }

    #[test]
    fn server_filter_applies() {
        let plan = FaultPlan::new(7);
        plan.fail_next(Some(3), None, 10);
        assert!(!plan.decide(0, FabricOp::Read, "/a").fail);
        assert!(plan.decide(3, FabricOp::Read, "/a").fail);
    }

    #[test]
    fn probability_is_seed_deterministic_and_attempt_sensitive() {
        let a = FaultPlan::new(42);
        let b = FaultPlan::new(42);
        for plan in [&a, &b] {
            plan.fail_with_probability(None, Some(FabricOp::Read), 0.5);
        }
        let seq_a: Vec<bool> = (0..64)
            .map(|i| a.decide(0, FabricOp::Read, &format!("/r/{i}")).fail)
            .collect();
        let seq_b: Vec<bool> = (0..64)
            .map(|i| b.decide(0, FabricOp::Read, &format!("/r/{i}")).fail)
            .collect();
        assert_eq!(seq_a, seq_b, "same seed ⇒ same verdicts");
        assert!(seq_a.iter().any(|&f| f) && seq_a.iter().any(|&f| !f));

        // A retry of the same path is a new attempt with its own verdict;
        // across many paths both outcomes must occur.
        let c = FaultPlan::new(9);
        c.fail_with_probability(None, Some(FabricOp::Read), 0.5);
        let mut changed = false;
        for i in 0..64 {
            let p = format!("/r/{i}");
            let first = c.decide(0, FabricOp::Read, &p).fail;
            let second = c.decide(0, FabricOp::Read, &p).fail;
            changed |= first != second;
        }
        assert!(changed, "retries must draw fresh verdicts");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1);
        let b = FaultPlan::new(2);
        for plan in [&a, &b] {
            plan.fail_with_probability(None, None, 0.5);
        }
        let seq_a: Vec<bool> = (0..64)
            .map(|i| a.decide(0, FabricOp::Read, &format!("/r/{i}")).fail)
            .collect();
        let seq_b: Vec<bool> = (0..64)
            .map(|i| b.decide(0, FabricOp::Read, &format!("/r/{i}")).fail)
            .collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn delay_fires_and_counts() {
        let plan = FaultPlan::new(7);
        plan.delay(None, Some(FabricOp::Open), Duration::from_millis(1));
        let t = std::time::Instant::now();
        let d = plan.decide(0, FabricOp::Open, "/a");
        assert!(!d.fail);
        assert!(t.elapsed() >= Duration::from_millis(1));
        assert_eq!(plan.stats().delays_injected, 1);
    }

    #[test]
    fn delay_advances_virtual_clock_without_wall_sleep() {
        let plan = FaultPlan::new(7);
        let vclock = qserv_obs::VirtualClock::shared();
        plan.set_clock(vclock.clone());
        plan.delay(None, Some(FabricOp::Open), Duration::from_secs(30));
        let wall = std::time::Instant::now();
        plan.decide(0, FabricOp::Open, "/a");
        plan.decide(1, FabricOp::Open, "/b");
        assert_eq!(vclock.now(), Duration::from_secs(60));
        assert_eq!(plan.stats().delays_injected, 2);
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "a 60s injected delay must not block the thread"
        );
    }

    #[test]
    fn corruption_flags_and_mutates() {
        let plan = FaultPlan::new(7);
        plan.corrupt_payload(None, Some(FabricOp::Read), 1.0);
        let corruption = plan.decide(0, FabricOp::Read, "/a").corrupt;
        assert_eq!(corruption, Some(Corruption::Stride));
        assert_eq!(plan.stats().payloads_corrupted, 1);
        let mut data = b"SELECT 1".to_vec();
        let orig = data.clone();
        Corruption::Stride.apply(&mut data);
        assert_ne!(data, orig);
        assert_eq!(data.len(), orig.len());
    }

    #[test]
    fn one_bit_flips_exactly_one_seeded_bit() {
        let draws = |seed: u64| {
            let plan = FaultPlan::new(seed);
            plan.flip_one_bit(None, Some(FabricOp::Read), 1.0);
            let d: Vec<_> = (0..16)
                .map(|i| plan.decide(0, FabricOp::Read, &format!("/r/{i}")).corrupt)
                .collect();
            assert_eq!(plan.stats().payloads_corrupted, 16);
            d
        };
        assert_eq!(draws(5), draws(5), "same seed ⇒ same bits");
        assert_ne!(draws(5), draws(6));
        let orig = b"SELECT objectId FROM Object".to_vec();
        let mut positions = std::collections::BTreeSet::new();
        for corruption in draws(5) {
            let Some(c @ Corruption::Bit(_)) = corruption else {
                panic!("expected a bit flip, got {corruption:?}");
            };
            let mut data = orig.clone();
            c.apply(&mut data);
            let flipped: u32 = data
                .iter()
                .zip(&orig)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1);
            positions.insert(data.iter().zip(&orig).position(|(a, b)| a != b));
        }
        assert!(positions.len() > 1, "the position is drawn, not fixed");
    }

    #[test]
    fn clear_disarms() {
        let plan = FaultPlan::new(7);
        plan.fail_next(None, None, 100);
        assert!(plan.decide(0, FabricOp::Write, "/a").fail);
        plan.clear();
        assert!(!plan.decide(0, FabricOp::Write, "/a").fail);
        // Counters survive clearing.
        assert_eq!(plan.stats().failures_injected, 1);
    }
}

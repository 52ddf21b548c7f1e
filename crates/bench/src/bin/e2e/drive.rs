//! The closed-loop driver: one thread per connection, each sending its
//! next statement only after the previous answer arrived, checking every
//! answer against the value precomputed from the generated catalog.

use crate::api::{Answer, Client, Value};
use crate::catalog::Catalog;
use crate::workloads::{Class, Rng, Round, Stmt};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One answered statement inside the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: Class,
    pub streamed: bool,
    /// When the answer was complete, in seconds since the connection's
    /// loop began (warm-up included).
    pub at_s: f64,
    pub latency_ns: u64,
    pub first_row_ns: u64,
    pub rows: u64,
}

/// What one connection did in the measured window. Only whole rounds
/// count, so every class has the same number of samples and the rate is
/// not biased by where in a round the window happened to end.
pub struct ClientRun {
    pub round: Round,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// `(end time in seconds since the loop began, wall time in ns)` of
    /// every measured round: drawing its parameters, sending its
    /// statements one after another, checking the answers.
    pub rounds: Vec<(f64, f64)>,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

/// Sends one statement the way its class is meant to be sent.
pub fn send(client: &mut Client, stmt: &Stmt) -> Result<Answer, String> {
    if stmt.stream {
        client.query_stream(&stmt.sql)
    } else {
        client.query(&stmt.sql)
    }
}

/// Row count and first-column checksum against the expected answer.
pub fn check(stmt: &Stmt, answer: &Answer) -> Result<(), String> {
    let rows = answer.table.rows.len() as u64;
    let mut sum0 = 0i64;
    for row in &answer.table.rows {
        match row.first() {
            Some(Value::Int(v)) => sum0 = sum0.wrapping_add(*v),
            other => return Err(format!("first column is {other:?}, not an integer")),
        }
    }
    if rows != stmt.expect.rows || sum0 != stmt.expect.sum0 {
        return Err(format!(
            "{}: got {rows} rows / checksum {sum0}, expected {} / {}: {}",
            stmt.class.name(),
            stmt.expect.rows,
            stmt.expect.sum0,
            stmt.sql
        ));
    }
    Ok(())
}

/// One connection's loop: warm-up rounds are sent but not recorded; a
/// round is recorded when it started inside the window.
fn client_loop(
    addr: SocketAddr,
    cat: &Catalog,
    round: Round,
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> ClientRun {
    let mut run = ClientRun {
        round,
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        rounds: Vec::new(),
        failures: Vec::new(),
    };
    fn fail(run: &mut ClientRun, why: String) {
        run.failed += 1;
        if run.failures.len() < 5 {
            run.failures.push(why);
        }
    }
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.attempted = 1;
            fail(&mut run, format!("connect: {e}"));
            return run;
        }
    };
    let mut rng = Rng::new(seed);
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        if now >= warmup + window {
            break;
        }
        let measured = now >= warmup;
        let stmts = round.draw(cat, &mut rng);
        for stmt in &stmts {
            let outcome = send(&mut client, stmt).and_then(|a| check(stmt, &a).map(|()| a));
            if !measured {
                continue;
            }
            run.attempted += 1;
            match outcome {
                Ok(a) => run.samples.push(Sample {
                    class: stmt.class,
                    streamed: stmt.stream,
                    at_s: start.elapsed().as_secs_f64(),
                    latency_ns: a.latency.as_nanos() as u64,
                    first_row_ns: a.first_row.as_nanos() as u64,
                    rows: a.table.rows.len() as u64,
                }),
                Err(e) => fail(&mut run, e),
            }
        }
        if measured {
            let end = start.elapsed();
            run.rounds
                .push((end.as_secs_f64(), (end - now).as_nanos() as f64));
        }
        // A dead server would otherwise spin here until the window ends.
        if run.failed > 100 && run.samples.is_empty() {
            break;
        }
    }
    run
}

/// Runs every connection of a workload side by side and returns what
/// each did. Connection `i` draws its parameters from `seed + i`.
pub fn run_window(
    addr: SocketAddr,
    cat: &Catalog,
    clients: &[Round],
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> Vec<ClientRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(i, &round)| {
                let seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
                scope.spawn(move || client_loop(addr, cat, round, seed, warmup, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    })
}

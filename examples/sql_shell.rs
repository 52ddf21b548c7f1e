//! An interactive SQL shell over a running cluster, connected through
//! the TCP proxy — the stand-in for the paper's MySQL Proxy front door
//! (§5.4): "queries can be submitted using any MySQL-compatible
//! client". Every statement travels the real wire protocol: rows print
//! incrementally as chunks fold (streaming `ROWS` frames), and the
//! proxy's session verbs work as typed-in SQL.
//!
//! ```sh
//! cargo run --release --example sql_shell
//! qserv> SELECT COUNT(*) FROM Object;
//! qserv> TRACE SELECT objectId FROM Object WHERE objectId = 42;
//! qserv> STATUS;
//! qserv> EXPLAIN SELECT count(*) FROM Object o1, Object o2 WHERE ...;
//! qserv> \q
//! ```

use qserv::ClusterBuilder;
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_proxy::{ProxyClient, ProxyServer};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn main() {
    let patch = Patch::generate(&CatalogConfig::small(3000, 99));
    let qserv = Arc::new(ClusterBuilder::new(6).build(&patch.objects, &patch.sources));
    let server = ProxyServer::start(Arc::clone(&qserv), "127.0.0.1:0").expect("proxy binds");
    let mut client = ProxyClient::connect(server.addr()).expect("shell connects");

    println!(
        "qserv shell — {} objects / {} sources over {} chunks on {} nodes, proxy at {}",
        patch.objects.len(),
        patch.sources.len(),
        qserv.placement().chunks().len(),
        qserv.workers().len(),
        server.addr()
    );
    println!("tables: Object(objectId, ra_PS, decl_PS, uFlux_PS..yFlux_PS, uFlux_SG, uRadius_PS, chunkId, subChunkId)");
    println!("        Source(sourceId, objectId, ra, decl, taiMidPoint, psfFlux, psfFluxErr, chunkId, subChunkId)");
    println!(
        "type SQL (\\q to quit; EXPLAIN <query> for the plan; TRACE <query>, KILL <qid>, STATUS pass through the proxy)\n"
    );

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("qserv> ");
        std::io::stdout().flush().expect("stdout flush");
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let input = line.trim().trim_end_matches(';').trim();
        if input.is_empty() {
            continue;
        }
        if input == "\\q" || input.eq_ignore_ascii_case("quit") {
            break;
        }
        // EXPLAIN travels the wire like everything else: the proxy
        // answers with the planner's item/value table.
        if let Some(rest) = qserv::strip_explain(input) {
            match client.explain(rest) {
                Ok(plan) => {
                    for row in &plan.rows {
                        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                        println!("{}", cells.join(" = "));
                    }
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        run_statement(&mut client, input);
    }
    drop(client);
    server.shutdown();
}

/// Streams one statement through the proxy, printing row batches as
/// they arrive (capped at 40 printed rows) and the `END` summary.
fn run_statement(client: &mut ProxyClient, sql: &str) {
    const PRINT_CAP: usize = 40;
    let started = std::time::Instant::now();
    let mut stream = match client.query_stream(sql) {
        Ok(s) => s,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    let mut printed_header = false;
    let mut printed = 0usize;
    let mut rows = 0usize;
    loop {
        match stream.next_batch() {
            Ok(Some(batch)) => {
                if !printed_header {
                    println!("{}", batch.columns.join(" | "));
                    printed_header = true;
                }
                for row in &batch.rows {
                    rows += 1;
                    if printed < PRINT_CAP {
                        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                        println!("{}", cells.join(" | "));
                        printed += 1;
                    }
                }
            }
            Ok(None) => break,
            Err(e) => {
                println!("error: {e}");
                return;
            }
        }
    }
    if rows > printed {
        println!("… {} more rows", rows - printed);
    }
    if let Some(trace) = stream.trace_json() {
        println!("trace: {trace}");
    }
    if let Some(stats) = stream.stats() {
        println!(
            "({} rows; {} chunks; {} B transferred; {:.1} ms)",
            stats.rows,
            stats.chunks_dispatched,
            stats.result_bytes,
            started.elapsed().as_secs_f64() * 1e3
        );
    }
}

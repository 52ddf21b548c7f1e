//! Metric names, units and bounds (the tables `BENCHMARK.json` is
//! generated from), the result JSON, and the run record.

use crate::workloads::{Class, WORKLOADS};
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every end-to-end metric is reported on every workload. Where the
/// definition in the README names one workload (`lv_lat_p50_ms`,
/// `scan_qps`: the two sides of `mixed`; `disk_bytes_per_row`: the
/// on-disk catalog) the other workloads report the stand-in the README
/// gives, so the set of keys never changes. Bounds are the widest the
/// contract allows for every timing: they were checked with `--repeat`
/// on the seed commit, and the shared machine holds nothing tighter.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("lat_p50_ms", "ms", "lower", 0.25),
    e2e("qps", "1/s", "higher", 0.25),
    e2e("result_rows_per_s", "1/s", "higher", 0.25),
    e2e("lv_lat_p50_ms", "ms", "lower", 0.25),
    e2e("scan_qps", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("disk_bytes_per_row", "B", "lower", 0.02),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric of the traced pass. No bound.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The per-layer metric table, in README order.
pub fn per_layer() -> Vec<Layer> {
    const FIXED: [(&str, &str, &str); 61] = [
        ("failed_share", "%", "lower"),
        ("proxy.overhead_us", "us", "lower"),
        ("proxy.encode_us_per_krow", "us", "lower"),
        ("proxy.decode_us_per_krow", "us", "lower"),
        ("sqlparse.parse_us", "us", "lower"),
        ("analysis.analyze_us", "us", "lower"),
        ("planner.explain_us", "us", "lower"),
        ("planner.chunks_selected", "count", "lower"),
        ("planner.chunks_pruned", "count", "higher"),
        ("rewrite.build_plan_us", "us", "lower"),
        ("rewrite.render_us_per_chunk", "us", "lower"),
        ("service.overhead_us", "us", "lower"),
        ("service.wait_ms_p50.interactive", "ms", "lower"),
        ("service.wait_ms_p50.scan", "ms", "lower"),
        ("service.rejected", "count", "lower"),
        ("master.query_ms", "ms", "lower"),
        ("master.serial_work_ms", "ms", "lower"),
        ("master.parallel_speedup", "x", "higher"),
        ("master.chunks_dispatched", "count", "lower"),
        ("master.result_bytes", "B", "lower"),
        ("xrd.roundtrip_us_per_chunk", "us", "lower"),
        ("xrd.overhead_us_per_chunk", "us", "lower"),
        ("worker.exec_us_per_chunk", "us", "lower"),
        ("worker.overhead_us_per_chunk", "us", "lower"),
        ("worker.tables_built", "count", "lower"),
        ("worker.vectorized_share", "%", "higher"),
        ("engine.exec_us_per_chunk", "us", "lower"),
        ("engine.rows_per_s", "1/s", "higher"),
        ("storage.decode_us_per_chunk", "us", "lower"),
        ("storage.decode_rows_per_s", "1/s", "higher"),
        ("storage.pages_scanned", "count", "lower"),
        ("storage.pages_pruned", "count", "higher"),
        ("storage.prune_share", "%", "higher"),
        ("storage.decode_share_of_scan", "%", "lower"),
        ("storage.resident_share", "%", "higher"),
        ("storage.bytes_per_row", "B", "lower"),
        ("dump.encode_us_per_chunk", "us", "lower"),
        ("dump.decode_us_per_chunk", "us", "lower"),
        ("dump.encode_mb_per_s", "MB/s", "higher"),
        ("dump.decode_mb_per_s", "MB/s", "higher"),
        ("dump.bytes_per_row", "B", "lower"),
        ("merge.fold_us_per_chunk", "us", "lower"),
        ("merge.finish_us", "us", "lower"),
        ("merge.rows_per_s", "1/s", "higher"),
        ("merge.peak_buffered_parts", "count", "lower"),
        ("obs.trace_overhead_pct", "%", "lower"),
        ("budget.frontend_ms", "ms", "lower"),
        ("budget.dispatch_ms", "ms", "lower"),
        ("budget.worker_ms", "ms", "lower"),
        ("budget.kernels_ms", "ms", "lower"),
        ("budget.page_decode_ms", "ms", "lower"),
        ("budget.results_ms", "ms", "lower"),
        ("budget.e2e_p50_ms", "ms", "lower"),
        ("budget.attributed_ms", "ms", "lower"),
        ("budget.unattributed_pct", "%", "lower"),
        ("replay.statements", "count", "higher"),
        ("replay.self_ms", "ms", "lower"),
        ("window.statements", "count", "higher"),
        ("window.lat_p95_ms", "ms", "lower"),
        ("window.lv_lat_p95_ms", "ms", "lower"),
        ("window.ttfr_p50_ms", "ms", "lower"),
    ];
    let mut out: Vec<Layer> = FIXED
        .iter()
        .map(|&(name, unit, better)| Layer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    out.extend(Class::ALL.iter().map(|c| Layer {
        name: format!("class.{}.p50_ms", c.name()),
        unit: "ms",
        better: "lower",
    }));
    out
}

/// Escapes a string for a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with all its digits.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The content of `BENCHMARK.json`, generated from the tables above so
/// the file and the program cannot drift apart.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/bench/src/bin/e2e\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_str(w.name),
            json_str(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            json_num(m.bound),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_str(&m.name),
            json_str(m.unit),
            json_str(m.better),
            if i + 1 < layers.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One run's outcome: the line the driver reads.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The one-line JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads the metric values back out of a result line (for
    /// `--repeat`, which runs this program as child processes).
    pub fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let Some((_, body)) = line.split_once("\"metrics\": {") else {
            return out;
        };
        for part in body.split("\"unit\"") {
            // …"name": {"value": 1.23, ⟨split here⟩
            let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
                continue;
            };
            let name = head.trim_end().trim_end_matches(':').trim_end();
            let Some(name) = name.rsplit('"').nth(1) else {
                continue;
            };
            if let Ok(v) = value.trim().trim_end_matches(',').trim().parse::<f64>() {
                out.insert(name.to_string(), v);
            }
        }
        out
    }
}

/// Where and how a run was made; written beside the result so a number
/// can always be traced to its conditions.
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub scale: String,
    pub objects: usize,
    pub sources: usize,
    pub chunks: usize,
    pub workers: usize,
    pub clients: usize,
    pub warmup_s: f64,
    pub window_s: f64,
    pub setup_repetitions: usize,
    pub traced: bool,
    /// Samples behind each timing, and the percentile `lat_p95_ms`
    /// actually used.
    pub sample_counts: Vec<(String, f64)>,
}

impl RunRecord {
    pub fn to_json(&self, outcome: &Outcome) -> String {
        let counts: Vec<String> = self
            .sample_counts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"git_sha\": {},\n  \"rustc\": {},\n  \
             \"nproc\": {},\n  \"catalog\": {{\"scale\": {}, \"objects\": {}, \"sources\": {}, \
             \"chunks\": {}, \"workers\": {}}},\n  \"loop\": \"closed\",\n  \"clients\": {},\n  \
             \"warmup_s\": {},\n  \"window_s\": {},\n  \"setup_repetitions\": {},\n  \
             \"traced\": {},\n  \"sample_counts\": {{{}}},\n  \"result\": {}\n}}\n",
            json_str(&self.workload),
            self.seed,
            json_str(&git_sha()),
            json_str(&rustc_version()),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            json_str(&self.scale),
            self.objects,
            self.sources,
            self.chunks,
            self.workers,
            self.clients,
            json_num(self.warmup_s),
            json_num(self.window_s),
            self.setup_repetitions,
            self.traced,
            counts.join(", "),
            outcome.to_json()
        )
    }
}

/// The checked-out commit, read from `.git` without starting a process;
/// "unknown" outside a git checkout (the driver's checkouts are not).
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("lat_p50_ms".to_string(), 1.2034, "ms"),
                ("class.LV1.p50_ms".to_string(), 0.5, "ms"),
                ("qps".to_string(), 1234.5678, "1/s"),
            ],
        };
        let line = o.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        let back = Outcome::parse_metrics(&line);
        assert_eq!(back.len(), 3);
        assert_eq!(back["lat_p50_ms"], 1.2034);
        assert_eq!(back["class.LV1.p50_ms"], 0.5);
        assert_eq!(back["qps"], 1234.5678);
    }

    #[test]
    fn tables_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "every name is used once");
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &layers {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json(10).len() < 64 * 1024);
    }

    /// `BENCHMARK.json` at the repo root is this program's own table.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let file = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                break candidate;
            }
            if !dir.pop() {
                return; // not inside the repo (a bare copy of the directory)
            }
        };
        let on_disk = std::fs::read_to_string(file).unwrap();
        let seconds: u64 = on_disk
            .split_once("\"run_seconds\": ")
            .and_then(|(_, rest)| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("run_seconds is a whole number");
        assert_eq!(on_disk, benchmark_json(seconds));
    }
}

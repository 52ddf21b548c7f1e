//! What a measured window says: latency and rate estimates from the
//! connections' samples.
//!
//! The benchmark machine is shared. Other tenants only ever make a
//! stretch of the window slower, by seconds at a time (an idle spin loop
//! on it varies between 350 and 580 ms per iteration), and a plain median
//! over the window moves by 15–20 % from run to run with them. So every
//! timing is taken per half-second slice first — the slice's median — and
//! the window reports the **lower quartile of the slice medians**: the
//! median as it is in the window's quieter seconds. Rates are the same
//! estimate of the round time, inverted. Run to run this holds within
//! 5–8 % where the plain median holds within 7–19 %.

use crate::drive::{ClientRun, Sample};
use crate::stats;
use crate::workloads::Class;
use std::collections::BTreeMap;

/// Length of a slice in seconds.
const SLICE_S: f64 = 0.5;

/// Lower quartile (nearest rank) over the slices of the per-slice median
/// of `(time in seconds, value)` points.
pub fn quiet_median(points: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    let mut slices: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (at_s, value) in points {
        slices
            .entry((at_s / SLICE_S) as u64)
            .or_default()
            .push(value);
    }
    let medians: Vec<f64> = slices.values().filter_map(|v| stats::median(v)).collect();
    stats::percentile(&stats::sorted(medians), 25.0)
}

/// [`quiet_median`] of `f` in ms, per statement class.
fn by_class_ms<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    f: impl Fn(&Sample) -> u64,
) -> BTreeMap<Class, f64> {
    let mut by_class: BTreeMap<Class, Vec<(f64, f64)>> = BTreeMap::new();
    for s in samples {
        by_class
            .entry(s.class)
            .or_default()
            .push((s.at_s, f(s) as f64 / 1e6));
    }
    by_class
        .into_iter()
        .filter_map(|(class, points)| quiet_median(points.into_iter()).map(|m| (class, m)))
        .collect()
}

/// The typical statement: [`by_class_ms`] averaged over the classes. (A
/// pooled median of two unlike classes sits on the boundary between them
/// and flips from run to run; the mean of class medians does not.)
fn typical_ms<'a>(samples: impl Iterator<Item = &'a Sample>, f: impl Fn(&Sample) -> u64) -> f64 {
    let per_class: Vec<f64> = by_class_ms(samples, f).into_values().collect();
    stats::mean(&per_class).unwrap_or(0.0)
}

/// Pooled tail latency in ms by the "ten samples beyond" rule.
pub struct Tail {
    pub ms: f64,
    pub percentile_used: f64,
    pub samples: usize,
}

fn tail<'a>(samples: impl Iterator<Item = &'a Sample>) -> Tail {
    let v = stats::sorted(samples.map(|s| s.latency_ns as f64 / 1e6).collect());
    let (ms, percentile_used) = stats::tail(&v, 95.0).unwrap_or((0.0, 0.0));
    Tail {
        ms,
        percentile_used,
        samples: v.len(),
    }
}

/// Statements per second of one connection: statements per round times
/// the inverse of its [`quiet_median`] round time.
fn statements_per_s(run: &ClientRun) -> f64 {
    run.samples.len() as f64 / run.rounds.len().max(1) as f64 * rounds_per_s(run)
}

fn rounds_per_s(run: &ClientRun) -> f64 {
    match quiet_median(run.rounds.iter().copied()) {
        Some(ns) if ns > 0.0 => 1e9 / ns,
        _ => 0.0,
    }
}

/// The connections of one measured window, with the workload-general
/// definition of every window metric (see the README's metric table).
pub struct Window<'a>(pub &'a [ClientRun]);

impl<'a> Window<'a> {
    fn all(&self) -> impl Iterator<Item = &'a Sample> {
        self.0.iter().flat_map(|r| &r.samples)
    }

    /// The latency-sensitive side: lookup connections where there are any
    /// (`lv_point`, and connection A of `mixed`), else every connection.
    fn lookups(&self) -> impl Iterator<Item = &'a Sample> {
        let any = self.0.iter().any(|r| r.round.is_lookup());
        self.0
            .iter()
            .filter(move |r| !any || r.round.is_lookup())
            .flat_map(|r| &r.samples)
    }

    /// The throughput side: scan and join connections where there are
    /// any (everything but `lv_point`), else every connection.
    fn scans(&self) -> impl Iterator<Item = &'a ClientRun> {
        let any = self.0.iter().any(|r| !r.round.is_lookup());
        self.0.iter().filter(move |r| !any || !r.round.is_lookup())
    }

    pub fn statements(&self) -> usize {
        self.all().count()
    }

    pub fn streamed_statements(&self) -> usize {
        self.all().filter(|s| s.streamed).count()
    }

    pub fn lat_p50_ms(&self) -> f64 {
        typical_ms(self.all(), |s| s.latency_ns)
    }

    pub fn lv_lat_p50_ms(&self) -> f64 {
        typical_ms(self.lookups(), |s| s.latency_ns)
    }

    /// Per-class latency behind [`Window::lat_p50_ms`].
    pub fn class_p50_ms(&self) -> BTreeMap<Class, f64> {
        by_class_ms(self.all(), |s| s.latency_ns)
    }

    pub fn qps(&self) -> f64 {
        self.0.iter().map(statements_per_s).sum()
    }

    pub fn scan_qps(&self) -> f64 {
        self.scans().map(statements_per_s).sum()
    }

    pub fn result_rows_per_s(&self) -> f64 {
        self.0
            .iter()
            .map(|run| {
                let rows: u64 = run.samples.iter().map(|s| s.rows).sum();
                rows as f64 / run.rounds.len().max(1) as f64 * rounds_per_s(run)
            })
            .sum()
    }

    pub fn lat_p95(&self) -> Tail {
        tail(self.all())
    }

    pub fn lv_lat_p95(&self) -> Tail {
        tail(self.lookups())
    }

    /// Send → first `ROWS` batch of the streamed statements; where
    /// nothing is streamed a first row is usable only at `END`, and this
    /// is the latency.
    pub fn ttfr_p50_ms(&self) -> f64 {
        let any = self.all().any(|s| s.streamed);
        typical_ms(self.all().filter(move |s| !any || s.streamed), |s| {
            s.first_row_ns
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_median_ignores_a_disturbed_half() {
        // Ten seconds at 4 points per slice: value 10, except that
        // seconds 3–7 (40 % of the slices) are disturbed to 15.
        let points: Vec<(f64, f64)> = (0..80)
            .map(|i| {
                let at = i as f64 * 0.125;
                (at, if (3.0..7.0).contains(&at) { 15.0 } else { 10.0 })
            })
            .collect();
        assert_eq!(quiet_median(points.iter().copied()), Some(10.0));
        // The plain median would still be 10 here, but not at 60 %:
        let mostly: Vec<(f64, f64)> = points
            .iter()
            .map(|&(at, _)| (at, if (2.0..8.0).contains(&at) { 15.0 } else { 10.0 }))
            .collect();
        assert_eq!(quiet_median(mostly.iter().copied()), Some(10.0));
        assert_eq!(
            stats::median(&mostly.iter().map(|p| p.1).collect::<Vec<_>>()),
            Some(15.0)
        );
        assert_eq!(quiet_median(std::iter::empty()), None);
    }
}

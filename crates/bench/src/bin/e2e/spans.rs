//! The benchmark's own spans: one per call into a layer's public
//! function, kept in memory and written out when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder
//! was made), the span that caused it, and the id of the replayed
//! statement it belongs to. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The replayed statement (shared by every span it caused).
    pub round: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Sets the statement id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span, child of the innermost open span; close it with
    /// [`Recorder::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        end_ns - self.spans[id].start_ns
    }

    /// Runs `f` inside a span named `name` and returns its value with
    /// the span's duration in ns.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name);
        let value = f();
        (value, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span, so overlapping or overhanging
/// children are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as a JSON array, one object per span in start order:
/// `{"id", "name", "start_ns", "end_ns", "self_ns", "parent", "round"}`.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {self_ns}, \"parent\": {parent}, \"round\": {}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.round,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1
            span(30, 60, Some(0)),  // 2: overlaps 1 on [30, 40)
            span(70, 80, Some(0)),  // 3
            span(35, 38, Some(2)),  // 4: grandchild, counted against 2 only
            span(90, 130, Some(0)), // 5: overhangs the root's end
        ];
        let selfs = self_times_ns(&spans);
        // Children cover [10, 60) ∪ [70, 80) ∪ [90, 100) = 70 of 100.
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[2], 27);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 3);
        assert_eq!(selfs[5], 40);
    }

    #[test]
    fn a_child_nested_in_another_child_interval_is_not_double_counted() {
        let spans = vec![
            span(0, 50, None),
            span(5, 45, Some(0)),
            span(10, 20, Some(0)), // wholly inside span 1's interval
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_rounds() {
        let mut rec = Recorder::new();
        rec.set_round(7);
        let outer = rec.open("outer");
        let (two, inner_ns) = rec.time("inner", || std::hint::black_box(1 + 1));
        let outer_ns = rec.close(outer);
        assert_eq!(two, 2);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.round == 7));
        assert!(outer_ns >= inner_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = to_json(spans);
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }
}

//! The harness's own spans: recorded in memory around each call into a layer's public
//! functions, written out once when the traced run ends.
//!
//! The program under test is not instrumented by this benchmark — every layer is
//! measured from outside — so a span here is "the harness called this public function
//! and it took this long". Spans of one request share its `request` number; `parent`
//! names the span that caused this one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log for one thread. Recorders of several threads share one
/// `epoch`, so their timestamps are comparable after [`Recorder::absorb`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let now = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span and returns its result with the span's microseconds.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        (out, self.spans[id as usize].duration_ns() as f64 / 1e3)
    }

    /// Records an interval measured elsewhere (e.g. by a transport wrapper) as a child of
    /// `parent`, or of the innermost open span when `parent` is `None`.
    pub fn interval(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: parent.or(self.open.last().copied()),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            request,
        });
        id
    }

    /// Appends another thread's finished spans, renumbering their ids.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.open.is_empty(), "absorbed recorder has open spans");
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration in microseconds of the spans called `name` (0 when there are none).
    pub fn median_us(&self, name: &str) -> f64 {
        stats::median(self.durations_us(name))
    }
}

/// Self time of every span, by id: its duration minus the part of that interval its
/// child spans cover. Children of one parent never overlap (one thread records them in
/// sequence), so the covered part is the sum of the children clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            covered[parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Per span name: `(count, median µs, median self µs)`, sorted by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let self_ns = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.duration_ns() as f64 / 1e3);
        entry.1.push(own as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (total, own))| {
            (
                name,
                (total.len(), stats::median(total), stats::median(own)),
            )
        })
        .collect()
}

/// The trace file body: a per-name summary followed by every span.
pub fn to_json(header: &[(&str, String)], spans: &[Span]) -> String {
    let mut out = String::from("{");
    for (key, value) in header {
        let _ = write!(out, "\"{key}\":{value},");
    }
    out.push_str("\"layers\":{");
    for (i, (name, (n, median, own))) in summarize(spans).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n\"{name}\":{{\"n\":{n},\"median_us\":{median},\"self_median_us\":{own}}}"
        );
    }
    out.push_str("},\n\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 90),
            span(3, Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent_and_never_drives_self_time_negative() {
        // Clock reads of a wrapper can straddle the parent's by a few nanoseconds.
        let spans = [span(0, None, 10, 20), span(1, Some(0), 5, 30)];
        assert_eq!(self_times_ns(&spans), vec![0, 25]);
    }

    #[test]
    fn recorder_nests_and_renumbers() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let outer = a.enter("outer", 7);
        let (value, _) = a.time("inner", 7, || 42);
        a.exit(outer);
        assert_eq!(value, 42);
        assert_eq!(a.spans()[1].parent, Some(outer));

        let mut b = Recorder::new(epoch);
        let root = b.enter("other", 8);
        b.interval("measured", 8, None, epoch, Instant::now());
        b.exit(root);
        a.absorb(b);
        let ids: Vec<u32> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.durations_us("inner").len(), 1);

        let json = to_json(&[("workload", "\"t\"".into())], a.spans());
        let parsed = wpinq_expr::Json::parse(&json).expect("trace file is JSON");
        assert_eq!(
            parsed.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(4)
        );
        assert!(parsed.get("layers").and_then(|l| l.get("inner")).is_some());
    }
}

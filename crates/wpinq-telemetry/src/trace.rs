//! Per-request structured tracing: explicit [`Span`] guards recording wall time and
//! typed fields into a [`Trace`], serializable as deterministic JSON and optionally
//! mirrored as JSONL to the `WPINQ_TRACE` sink.
//!
//! The design constraint is that tracing must be provably free when disabled: a
//! disabled [`Tracer`] holds `None`, so `span()` returns an inert guard without
//! reading the clock or allocating, and every `field` call is a branch on a `None`.
//! Code under trace therefore never needs `if enabled` checks of its own.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::metrics::json_escape;

/// A typed field value attached to a span or to the trace root.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
    /// Pre-serialized JSON embedded verbatim — for structured payloads (e.g. an
    /// EXPLAIN ANALYZE report) that already know how to render themselves.
    Raw(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl FieldValue {
    fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => format!("{v}"),
            FieldValue::F64(v) if v.is_finite() => format!("{v}"),
            FieldValue::F64(v) => format!("\"{v}\""),
            FieldValue::Str(s) => format!("\"{}\"", json_escape(s)),
            FieldValue::Bool(b) => format!("{b}"),
            FieldValue::Raw(json) => json.clone(),
        }
    }
}

/// One recorded span inside a finished [`Trace`].
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Operation name (`"parse"`, `"execute"`, ...).
    pub name: String,
    /// Index of the enclosing span in [`Trace::spans`], or `None` at the root.
    pub parent: Option<usize>,
    /// Microseconds since the tracer was created.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Structured fields, in the order they were recorded.
    pub fields: Vec<(String, FieldValue)>,
}

/// A finished trace: root fields plus the spans in creation order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub fields: Vec<(String, FieldValue)>,
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// Serializes the trace as one JSON object with stable field names and ordering
    /// (`{"fields":{...},"spans":[{"name":...,"parent":...,"start_us":...,
    /// "dur_us":...,"fields":{...}}]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"fields\":{");
        out.push_str(&fields_json(&self.fields));
        out.push_str("},\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{},\"start_us\":{},\"dur_us\":{},\"fields\":{{{}}}}}",
                json_escape(&span.name),
                span.parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                span.start_us,
                span.dur_us,
                fields_json(&span.fields)
            ));
        }
        out.push_str("]}");
        out
    }
}

fn fields_json(fields: &[(String, FieldValue)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(k), v.to_json()));
    }
    out
}

struct TraceData {
    origin: Instant,
    fields: Vec<(String, FieldValue)>,
    spans: Vec<TraceSpan>,
    /// Indices of the currently open spans, innermost last.
    stack: Vec<usize>,
}

/// A handle for recording one request's trace. Cloning shares the underlying trace;
/// [`Tracer::disabled`] costs nothing anywhere it is passed.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceData>>>,
}

impl Tracer {
    /// A tracer that records nothing: no clock reads, no allocation, ever.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A live tracer; its clock starts now.
    pub fn enabled() -> Self {
        Tracer::enabled_since(Instant::now())
    }

    /// A live tracer whose clock started at `origin` — for work that began before the
    /// caller could know it would be traced (see [`record_span_us`](Self::record_span_us)).
    pub fn enabled_since(origin: Instant) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceData {
                origin,
                fields: Vec::new(),
                spans: Vec::new(),
                stack: Vec::new(),
            }))),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(data: &Arc<Mutex<TraceData>>) -> MutexGuard<'_, TraceData> {
        data.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span; its wall time runs until the returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        let Some(data) = &self.inner else {
            return Span { slot: None };
        };
        let start = Instant::now();
        let mut guard = Self::lock(data);
        let start_us = start.duration_since(guard.origin).as_micros() as u64;
        let parent = guard.stack.last().copied();
        let index = guard.spans.len();
        guard.spans.push(TraceSpan {
            name: name.to_string(),
            parent,
            start_us,
            dur_us: 0,
            fields: Vec::new(),
        });
        guard.stack.push(index);
        drop(guard);
        Span {
            slot: Some(SpanHandle {
                data: data.clone(),
                index,
                start,
            }),
        }
    }

    /// Records a field on the trace root.
    pub fn field(&self, key: &str, value: impl Into<FieldValue>) {
        if let Some(data) = &self.inner {
            Self::lock(data)
                .fields
                .push((key.to_string(), value.into()));
        }
    }

    /// Records an already-measured leaf span under the currently open span.
    pub fn record_span_us(&self, name: &str, dur_us: u64) {
        if let Some(data) = &self.inner {
            let mut guard = Self::lock(data);
            let start_us = guard
                .origin
                .elapsed()
                .as_micros()
                .saturating_sub(dur_us as u128) as u64;
            let parent = guard.stack.last().copied();
            guard.spans.push(TraceSpan {
                name: name.to_string(),
                parent,
                start_us,
                dur_us,
                fields: Vec::new(),
            });
        }
    }

    /// Snapshots the trace recorded so far (`None` for a disabled tracer). Open
    /// spans are included with their duration measured up to this instant.
    pub fn finish(&self) -> Option<Trace> {
        let data = self.inner.as_ref()?;
        let guard = Self::lock(data);
        let now_us = guard.origin.elapsed().as_micros() as u64;
        let mut trace = Trace {
            fields: guard.fields.clone(),
            spans: guard.spans.clone(),
        };
        for &open in &guard.stack {
            trace.spans[open].dur_us = now_us.saturating_sub(trace.spans[open].start_us);
        }
        Some(trace)
    }
}

struct SpanHandle {
    data: Arc<Mutex<TraceData>>,
    index: usize,
    start: Instant,
}

/// RAII span guard: drops record the duration and close the span. Inert (zero-cost
/// drop) when produced by a disabled tracer.
pub struct Span {
    slot: Option<SpanHandle>,
}

impl Span {
    /// Records a field on this span.
    pub fn field(&self, key: &str, value: impl Into<FieldValue>) {
        if let Some(handle) = &self.slot {
            let mut guard = Tracer::lock(&handle.data);
            let index = handle.index;
            guard.spans[index]
                .fields
                .push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(handle) = self.slot.take() {
            let dur_us = handle.start.elapsed().as_micros() as u64;
            let mut guard = Tracer::lock(&handle.data);
            guard.spans[handle.index].dur_us = dur_us;
            if let Some(pos) = guard.stack.iter().rposition(|&i| i == handle.index) {
                guard.stack.remove(pos);
            }
        }
    }
}

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
}

fn sink() -> &'static Option<Sink> {
    static SINK: OnceLock<Option<Sink>> = OnceLock::new();
    SINK.get_or_init(|| match std::env::var("WPINQ_TRACE") {
        Ok(v) if v == "stderr" || v == "1" => Some(Sink::Stderr),
        Ok(path) if !path.is_empty() => std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .ok()
            .map(|f| Sink::File(Mutex::new(f))),
        _ => None,
    })
}

/// Whether the process-wide `WPINQ_TRACE` JSONL sink is configured (a file path, or
/// `stderr`/`1` for standard error). Checked once; the result is cached.
pub fn trace_sink_enabled() -> bool {
    sink().is_some()
}

/// Writes one trace as a JSONL line to the `WPINQ_TRACE` sink, if configured.
pub fn emit_to_sink(trace: &Trace) {
    match sink() {
        Some(Sink::Stderr) => eprintln!("{}", trace.to_json()),
        Some(Sink::File(file)) => {
            let mut f = file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = writeln!(f, "{}", trace.to_json());
        }
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let span = t.span("noop");
        span.field("k", 1u64);
        t.field("root", "x");
        t.record_span_us("pre", 42);
        drop(span);
        assert!(t.finish().is_none());
    }

    #[test]
    fn spans_nest_and_serialize() {
        let t = Tracer::enabled();
        t.field("analyst", "alice");
        {
            let outer = t.span("request");
            outer.field("epsilon", 0.5);
            {
                let _inner = t.span("execute");
                t.record_span_us("noise", 7);
            }
        }
        let trace = t.finish().expect("enabled tracer yields a trace");
        assert_eq!(
            trace.fields,
            vec![("analyst".to_string(), FieldValue::Str("alice".into()))]
        );
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].name, "request");
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].name, "execute");
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].name, "noise");
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[2].dur_us, 7);

        let json = trace.to_json();
        assert!(json.starts_with("{\"fields\":{\"analyst\":\"alice\"},\"spans\":["));
        assert!(json.contains("\"name\":\"request\",\"parent\":null"));
        assert!(json.contains("\"epsilon\":0.5"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn open_spans_are_closed_by_finish() {
        let t = Tracer::enabled();
        let _open = t.span("still-running");
        let trace = t.finish().expect("trace");
        assert_eq!(trace.spans.len(), 1);
        // finish() measures up to now; the guard is still alive, so the recorded
        // duration comes from the snapshot, not the drop.
    }

    #[test]
    fn raw_fields_embed_verbatim() {
        let t = Tracer::enabled();
        t.field("report", FieldValue::Raw("{\"nodes\":[]}".to_string()));
        let json = t.finish().expect("trace").to_json();
        assert!(json.contains("\"report\":{\"nodes\":[]}"));
    }
}

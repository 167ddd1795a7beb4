//! EXPLAIN ANALYZE for plan evaluation: per-operator wall time, output cardinalities,
//! and the kernel (columnar vs row) each expression operator chose, plus the worker-pool
//! dispatch delta folded in from the `wpinq-telemetry` registry.
//!
//! The collector rides inside the evaluation contexts ([`BatchCtx`](super::nodes) /
//! [`ShardCtx`](super::nodes)) as an `Option`: a `None` collector adds one branch per
//! node to the hot path and nothing else, which is what keeps analyzed and plain
//! evaluations bitwise identical — the data path is the very same code either way.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use wpinq_telemetry::metrics::{json_escape, Counter};
use wpinq_telemetry::registry;

/// Registry name of the counter of input rows processed by expression-operator kernels,
/// labelled `kernel="columnar"` (vectorized path) or `kernel="row"` (interpreter
/// fallback). Incremented on every evaluation, traced or not; read one series with
/// `registry().counter_value_with(KERNEL_ROWS_METRIC, &[("kernel", "columnar")])`.
pub const KERNEL_ROWS_METRIC: &str = "wpinq_kernel_rows_total";

fn kernel_rows_counter(kernel: &'static str) -> &'static Arc<Counter> {
    static COLUMNAR: OnceLock<Arc<Counter>> = OnceLock::new();
    static ROW: OnceLock<Arc<Counter>> = OnceLock::new();
    let slot = if kernel == "columnar" {
        &COLUMNAR
    } else {
        &ROW
    };
    slot.get_or_init(|| {
        registry().counter(
            KERNEL_ROWS_METRIC,
            &[("kernel", kernel)],
            "Input rows processed by expression-operator kernels, by kernel",
        )
    })
}

/// Bumps the process-global kernel-rows series. Called by the evaluation contexts on
/// every kernel decision, traced or not, so plain evaluations feed the metrics surface
/// too.
pub(crate) fn count_kernel_rows(kernel: &'static str, rows: u64) {
    if rows > 0 {
        kernel_rows_counter(kernel).add(rows);
    }
}

/// Rows resolved into canonical totals during one span, by resolution strategy — the
/// deltas of the `wpinq_resolved_rows_total` registry series (process-global: concurrent
/// evaluations in other threads bleed in, same caveat as the pool-dispatch counter).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Rows resolved by the radix-partitioned packed-key accumulator.
    pub radix: u64,
    /// Rows resolved by the packed-key sort-merge accumulator.
    pub sort_merge: u64,
    /// Rows resolved by hash-map accumulation (unpacked shapes and join fallbacks).
    pub hash: u64,
}

impl ResolveStats {
    fn snapshot() -> ResolveStats {
        // Cached series handles: three atomic loads. Traced evaluation snapshots on
        // every frame enter and exit, so a locked registry lookup here is a measurable
        // per-operator tax.
        let read = |strategy: &'static str| wpinq_expr::resolved_rows_counter(strategy).value();
        ResolveStats {
            radix: read(wpinq_expr::STRATEGY_RADIX),
            sort_merge: read(wpinq_expr::STRATEGY_SORT_MERGE),
            hash: read(wpinq_expr::STRATEGY_HASH),
        }
    }

    fn delta_since(&self, earlier: &ResolveStats) -> ResolveStats {
        ResolveStats {
            radix: self.radix.saturating_sub(earlier.radix),
            sort_merge: self.sort_merge.saturating_sub(earlier.sort_merge),
            hash: self.hash.saturating_sub(earlier.hash),
        }
    }

    fn is_zero(&self) -> bool {
        *self == ResolveStats::default()
    }

    fn render(&self) -> String {
        format!(
            "radix:{}/sort_merge:{}/hash:{}",
            self.radix, self.sort_merge, self.hash
        )
    }

    fn to_json(self) -> String {
        format!(
            "{{\"radix\":{},\"sort_merge\":{},\"hash\":{}}}",
            self.radix, self.sort_merge, self.hash
        )
    }
}

/// Timing and cardinality of one evaluated plan node (one frame of the walk).
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// Operator name (`Select`, `Where`, `Join`, ...).
    pub op: &'static str,
    /// One-line operator detail (expression payloads render readably).
    pub detail: String,
    /// Wall time of this node's evaluation, children included, in microseconds.
    /// Zero for memo hits.
    pub total_us: u64,
    /// Output record count (distinct records across all shards).
    pub rows_out: u64,
    /// The kernel an expression operator chose: `Some("columnar")` when the vectorized
    /// path ran, `Some("row")` when it fell back, `None` for operators with no
    /// columnar form.
    pub kernel: Option<&'static str>,
    /// Input rows the chosen kernel processed (zero when `kernel` is `None`).
    pub kernel_rows: u64,
    /// Rows resolved into canonical totals while this frame was open, by strategy.
    /// Children included, like `total_us`.
    pub resolved: ResolveStats,
    /// Index of the consumer frame that triggered this evaluation, `None` at the root.
    pub parent: Option<usize>,
    /// Nesting depth (root = 0), for rendering.
    pub depth: usize,
    /// Whether this frame is a re-reference of an already-evaluated (memoized) node.
    pub shared: bool,
}

/// The result of [`Plan::explain_analyze`](super::Plan::explain_analyze): one frame per
/// node evaluation in walk order, plus evaluation-wide totals.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// Executor description: `"sequential"` or `"sharded(n)"`.
    pub executor: String,
    /// Per-node frames in walk (pre-)order: the root is first and every frame's
    /// `parent` points at an earlier index.
    pub nodes: Vec<NodeStats>,
    /// Wall time of the whole evaluation (optimize pass included), microseconds.
    pub total_us: u64,
    /// Worker-pool dispatches during the evaluation (process-global registry delta;
    /// concurrent evaluations in other threads bleed in).
    pub pool_dispatches: u64,
    /// Rows resolved into canonical totals during the evaluation, by strategy
    /// (same caveat).
    pub resolved: ResolveStats,
}

impl AnalyzeReport {
    /// Renders the report as an indented text tree, one line per frame, root first.
    pub fn render(&self) -> String {
        let mut out = format!(
            "EXPLAIN ANALYZE ({}; total {} us; pool dispatches {}; resolved {})\n",
            self.executor,
            self.total_us,
            self.pool_dispatches,
            self.resolved.render()
        );
        // Frames are recorded in walk order (root first), which reads like
        // `Plan::render`.
        for stats in self.nodes.iter() {
            for _ in 0..stats.depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{} [{} us, {} rows{}{}{}]\n",
                stats.detail,
                stats.total_us,
                stats.rows_out,
                stats
                    .kernel
                    .map(|k| format!(", kernel={k}({} rows)", stats.kernel_rows))
                    .unwrap_or_default(),
                if stats.resolved.is_zero() {
                    String::new()
                } else {
                    format!(", resolved {}", stats.resolved.render())
                },
                if stats.shared { ", shared" } else { "" },
            ));
        }
        out
    }

    /// Serializes the report as deterministic JSON with stable field names.
    pub fn to_json(&self) -> String {
        let mut nodes = String::new();
        for (i, stats) in self.nodes.iter().enumerate() {
            if i > 0 {
                nodes.push(',');
            }
            nodes.push_str(&format!(
                "{{\"op\":\"{}\",\"detail\":\"{}\",\"total_us\":{},\"rows_out\":{},\
                 \"kernel\":{},\"kernel_rows\":{},\"resolved\":{},\"parent\":{},\
                 \"depth\":{},\"shared\":{}}}",
                json_escape(stats.op),
                json_escape(&stats.detail),
                stats.total_us,
                stats.rows_out,
                stats
                    .kernel
                    .map(|k| format!("\"{k}\""))
                    .unwrap_or_else(|| "null".to_string()),
                stats.kernel_rows,
                stats.resolved.to_json(),
                stats
                    .parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                stats.depth,
                stats.shared,
            ));
        }
        format!(
            "{{\"executor\":\"{}\",\"total_us\":{},\"pool_dispatches\":{},\
             \"resolved\":{},\"nodes\":[{}]}}",
            json_escape(&self.executor),
            self.total_us,
            self.pool_dispatches,
            self.resolved.to_json(),
            nodes
        )
    }
}

/// The in-flight collector carried by an evaluation context. Frames are appended when a
/// node's evaluation *starts* (walk order: a consumer precedes its inputs), with an
/// open-frame stack supplying parent indices and depths; `exit` back-fills duration
/// and cardinality.
pub(crate) struct AnalyzeCollector {
    nodes: Vec<NodeStats>,
    /// Frames that are open (entered, not yet exited). An open frame is already in
    /// `nodes` with a zero duration; `exit` fills it in from the recorded start time and
    /// resolution-counter snapshot.
    stack: Vec<OpenFrame>,
}

struct OpenFrame {
    index: usize,
    start: Instant,
    resolved: ResolveStats,
}

impl AnalyzeCollector {
    pub(crate) fn new() -> Self {
        AnalyzeCollector {
            nodes: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a frame for a node about to evaluate; returns its index for `exit`.
    pub(crate) fn enter(&mut self, op: &'static str, detail: String) -> usize {
        let parent = self.stack.last().map(|f| f.index);
        let index = self.nodes.len();
        self.nodes.push(NodeStats {
            op,
            detail,
            total_us: 0,
            rows_out: 0,
            kernel: None,
            kernel_rows: 0,
            resolved: ResolveStats::default(),
            parent,
            depth: self.stack.len(),
            shared: false,
        });
        self.stack.push(OpenFrame {
            index,
            start: Instant::now(),
            resolved: ResolveStats::snapshot(),
        });
        index
    }

    /// Closes the frame opened by the matching `enter`, recording duration, output
    /// cardinality, and the resolution-counter deltas over the frame.
    pub(crate) fn exit(&mut self, frame: usize, rows_out: u64) {
        if let Some(pos) = self.stack.iter().rposition(|f| f.index == frame) {
            let open = self.stack.remove(pos);
            self.nodes[frame].total_us = open.start.elapsed().as_micros() as u64;
            self.nodes[frame].resolved = ResolveStats::snapshot().delta_since(&open.resolved);
        }
        self.nodes[frame].rows_out = rows_out;
    }

    /// Records a re-reference of an already-evaluated node: a zero-cost shared frame.
    pub(crate) fn memo_hit(&mut self, op: &'static str, detail: String, rows_out: u64) {
        let parent = self.stack.last().map(|f| f.index);
        self.nodes.push(NodeStats {
            op,
            detail,
            total_us: 0,
            rows_out,
            kernel: None,
            kernel_rows: 0,
            resolved: ResolveStats::default(),
            parent,
            depth: self.stack.len(),
            shared: true,
        });
    }

    /// Tags the currently evaluating frame with the kernel its operator chose and the
    /// input rows it processed.
    pub(crate) fn note_kernel(&mut self, kernel: &'static str, rows: u64) {
        if let Some(frame) = self.stack.last() {
            let index = frame.index;
            self.nodes[index].kernel = Some(kernel);
            self.nodes[index].kernel_rows += rows;
        }
    }

    pub(crate) fn finish(self) -> Vec<NodeStats> {
        self.nodes
    }
}

/// Snapshot of the registry counters an [`AnalyzeReport`] folds in as deltas.
pub(crate) struct CounterBaseline {
    dispatches: u64,
    resolved: ResolveStats,
}

impl CounterBaseline {
    pub(crate) fn take() -> Self {
        CounterBaseline {
            dispatches: registry().counter_value(wpinq_core::shard::POOL_DISPATCHES_METRIC),
            resolved: ResolveStats::snapshot(),
        }
    }

    pub(crate) fn deltas(&self) -> (u64, ResolveStats) {
        let now = CounterBaseline::take();
        (
            now.dispatches.saturating_sub(self.dispatches),
            now.resolved.delta_since(&self.resolved),
        )
    }
}

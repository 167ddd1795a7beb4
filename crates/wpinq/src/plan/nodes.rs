//! Operator nodes of the plan IR and the per-evaluation contexts.
//!
//! Each node stores its parent plan(s) and the operator's closures, and knows how to
//! execute itself under every engine: `eval_batch` calls the sequential batch kernels in
//! [`wpinq_core::operators`], `eval_shards` calls the shard-parallel kernels in
//! [`wpinq_core::shard`], and `lower` emits the corresponding `wpinq-dataflow` operator.
//! Memoisation by node identity lives in [`Plan`](super::Plan)'s `eval_node` /
//! `eval_shards_node` / `lower_node` / `mult_node`, so node implementations here simply
//! recurse through their parents.
//!
//! Closures are stored as `Arc<dyn Fn … + Send + Sync>` so the sharded executor can call
//! them from its worker-pool threads by reference.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use wpinq_core::dataset::WeightedDataset;
use wpinq_core::operators as batch;
use wpinq_core::record::Record;
use wpinq_core::shard::{self, ShardedDataset, WorkerPool};
use wpinq_core::value::{Value, ValueType};
use wpinq_dataflow::{DataflowInput, Stream};
use wpinq_expr::{Expr, ReduceSpec, SpecNode};

use super::analyze::{self, AnalyzeCollector};
use super::bindings::{PlanBindings, StreamBindings};
use super::columnar;
use super::optimize::{ClosureId, NodeShape, OpTag, RefCounts, RewriteCtx};
use super::wire::SpecCtx;
use super::{InputId, Plan};

/// A shared one-to-many production function (the `SelectMany` payload).
type ProduceFn<T, U> = Arc<dyn Fn(&T) -> WeightedDataset<U> + Send + Sync>;
/// A shared group reducer (the `GroupBy` payload).
type ReduceFn<T, R> = Arc<dyn Fn(&[T]) -> R + Send + Sync>;
/// A shared per-record weight schedule (the `Shave` payload).
type ScheduleFn<T> = Arc<dyn Fn(&T) -> Box<dyn Iterator<Item = f64>> + Send + Sync>;
/// A shared join result selector.
type JoinResultFn<A, B, R> = Arc<dyn Fn(&A, &B) -> R + Send + Sync>;
/// A shared record selector (the `Select` payload).
type MapFn<T, U> = Arc<dyn Fn(&T) -> U + Send + Sync>;
/// A shared filter predicate (the `Where` payload).
pub(crate) type PredFn<T> = Arc<dyn Fn(&T) -> bool + Send + Sync>;
/// A shared join key extractor.
type KeyFn<T, K> = Arc<dyn Fn(&T) -> K + Send + Sync>;
/// A shared record-to-[`Value`] converter, captured where the `ExprRecord` bound is in
/// scope so expression analyses can build typed closures over `Record`-only generics.
pub(crate) type ToValueFn<T> = Arc<dyn Fn(&T) -> Value + Send + Sync>;

/// The expression payload of an expression-built join node: everything the optimizer
/// needs to analyse the join symbolically, plus the input converters for building pushed
/// predicate closures.
pub(crate) struct JoinExprs<A, B> {
    pub(crate) key_left: Expr,
    pub(crate) key_right: Expr,
    pub(crate) result: Expr,
    pub(crate) conv_left: ToValueFn<A>,
    pub(crate) conv_right: ToValueFn<B>,
}

/// The expression payload of an expression-built `SelectMany` node (unit-weight
/// productions, one record per expression).
pub(crate) struct SelectManyExprs<T> {
    pub(crate) exprs: Arc<Vec<Expr>>,
    pub(crate) conv: ToValueFn<T>,
}

impl<A, B> Clone for JoinExprs<A, B> {
    fn clone(&self) -> Self {
        JoinExprs {
            key_left: self.key_left.clone(),
            key_right: self.key_right.clone(),
            result: self.result.clone(),
            conv_left: self.conv_left.clone(),
            conv_right: self.conv_right.clone(),
        }
    }
}

impl<T> Clone for SelectManyExprs<T> {
    fn clone(&self) -> Self {
        SelectManyExprs {
            exprs: self.exprs.clone(),
            conv: self.conv.clone(),
        }
    }
}

/// Crude fan-out factor for the cardinality estimate of `SelectMany` and `Shave` outputs
/// (join-ordering heuristic only; never affects results).
const FANOUT_ESTIMATE: f64 = 4.0;

/// Behaviour of one plan node, dispatched through `Arc<dyn PlanNode<T>>`.
///
/// `Send + Sync` is a supertrait so `Plan<T>` itself is `Send + Sync`: every payload a
/// node stores is either plain data or an `Arc<dyn Fn … + Send + Sync>` closure, and the
/// concurrent measurement service relies on plans (and cached optimized plans) crossing
/// request threads freely.
pub(crate) trait PlanNode<T: Record>: Send + Sync {
    /// Evaluates this node in batch (parents via `Plan::eval_node` for memoisation).
    ///
    /// Returns a shared dataset so source nodes can hand out their binding without
    /// copying and evaluation results can be memoised by reference.
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<T>>;

    /// Evaluates this node shard-parallel (parents via `Plan::eval_shards_node`).
    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<T>>;

    /// Lowers this node onto the incremental dataflow graph.
    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<T>;

    /// Sums the source multiplicities of this node's parents (one per reference).
    fn multiplicities(&self, ctx: &mut MultCtx) -> BTreeMap<InputId, u32>;

    /// Records one reference per parent and recurses into first-seen parents (via
    /// `Plan::count_refs_node`); the counts drive the optimizer's sharing guard.
    fn count_refs(&self, ctx: &mut RefCounts);

    /// Rewrites this node for the optimizer: rewrite parents (via `Plan::rewrite_node`),
    /// apply any local rule, and hash-cons the result. `this` is the plan wrapping this
    /// node, so unchanged subgraphs can be returned without reallocation.
    fn rewrite(&self, this: &Plan<T>, ctx: &mut RewriteCtx<'_>) -> Plan<T>;

    /// Pushdown hook: absorb a `Where` predicate arriving from directly above this node,
    /// returning the rewritten subplan with the predicate sunk as deep as it provably
    /// (bitwise) goes. `None` means the operator cannot absorb filters; the caller then
    /// leaves the filter in place. Only called when this node has a single consumer.
    /// `pred_expr` is the predicate's expression form when it has one — the
    /// key-preservation analyses behind the Join/SelectMany pushdowns only fire for
    /// expression predicates over expression-built nodes.
    fn absorb_filter(
        &self,
        _pred: &PredFn<T>,
        _pred_id: &ClosureId,
        _pred_expr: Option<&Expr>,
        _ctx: &mut RewriteCtx<'_>,
    ) -> Option<Plan<T>> {
        None
    }

    /// Whether sinking a filter into this node gains anything: `true` for operators that
    /// consume predicates directly (`Where` fuses, the element-wise binaries distribute)
    /// and for `Select`s whose own input sinks further. Used as a peek by
    /// `SelectNode::absorb_filter` so a filter is only rewritten *through* a select when
    /// it lands somewhere useful — pushing it just below (onto a source, join, group-by,
    /// …) would re-evaluate the selector per record and materialise a near-input-sized
    /// filtered copy the authored plan never builds.
    fn sinks_filters(&self, _ctx: &RewriteCtx<'_>) -> bool {
        false
    }

    /// The input id when this node is a source, `None` otherwise.
    fn as_input(&self) -> Option<InputId> {
        None
    }

    /// Operator name for diagnostics.
    fn describe(&self) -> &'static str;

    /// One-line operator description with its payload: expression-built payloads render
    /// as readable expressions, closure-built payloads as an opaque `<fn>` placeholder.
    fn detail(&self) -> String {
        self.describe().to_string()
    }

    /// Renders this node's parents into the tree printer (via `Plan::render_node`).
    fn render_children(&self, _ctx: &mut RenderCtx) {}

    /// Serializes this node into a [`SpecCtx`], returning its spec index. `None` when
    /// the node (or anything it depends on) carries a closure payload with no expression
    /// form — such plans cannot cross a process boundary.
    fn to_spec(&self, _ctx: &mut SpecCtx) -> Option<u32> {
        None
    }
}

// ---------------------------------------------------------------------------------------
// Tree rendering (the `explain` pretty-printer)
// ---------------------------------------------------------------------------------------

/// State of one plan rendering: the output buffer, the current indentation, and the
/// labels assigned to already-printed nodes so shared subplans render once.
pub(crate) struct RenderCtx {
    out: String,
    depth: usize,
    seen: HashMap<usize, usize>,
}

impl RenderCtx {
    pub(crate) fn new() -> Self {
        RenderCtx {
            out: String::new(),
            depth: 0,
            seen: HashMap::new(),
        }
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Prints one node (label + detail) and recurses into its children, or prints a
    /// back-reference when the node was already rendered.
    pub(crate) fn node(&mut self, key: usize, node: &dyn NodeRender) {
        if let Some(label) = self.seen.get(&key) {
            let text = format!("#{label} {} (shared, rendered above)", node.detail_line());
            self.line(&text);
            return;
        }
        let label = self.seen.len() + 1;
        self.seen.insert(key, label);
        let text = format!("#{label} {}", node.detail_line());
        self.line(&text);
        self.depth += 1;
        node.children_into(self);
        self.depth -= 1;
    }
}

/// Object-safe rendering view of a node, independent of its record type.
pub(crate) trait NodeRender {
    fn detail_line(&self) -> String;
    fn children_into(&self, ctx: &mut RenderCtx);
}

impl<T: Record> NodeRender for &dyn PlanNode<T> {
    fn detail_line(&self) -> String {
        self.detail()
    }
    fn children_into(&self, ctx: &mut RenderCtx) {
        self.render_children(ctx);
    }
}

// ---------------------------------------------------------------------------------------
// Evaluation contexts (identity-keyed memo tables)
// ---------------------------------------------------------------------------------------

/// Context of one batch evaluation: source bindings plus a memo of already-evaluated
/// nodes (`Arc<WeightedDataset<T>>`, type-erased). An optional EXPLAIN ANALYZE
/// collector records per-node timings; `None` (the default) costs one branch per node.
pub(crate) struct BatchCtx<'a> {
    bindings: &'a PlanBindings,
    memo: HashMap<usize, Box<dyn Any>>,
    pub(crate) analyze: Option<AnalyzeCollector>,
}

impl<'a> BatchCtx<'a> {
    pub(crate) fn new(bindings: &'a PlanBindings) -> Self {
        BatchCtx {
            bindings,
            memo: HashMap::new(),
            analyze: None,
        }
    }

    pub(crate) fn with_analyze(bindings: &'a PlanBindings) -> Self {
        BatchCtx {
            bindings,
            memo: HashMap::new(),
            analyze: Some(AnalyzeCollector::new()),
        }
    }

    /// Records the kernel an expression operator chose and the input rows it processed:
    /// bumps the process-global `wpinq_kernel_rows_total` series (always) and tags the
    /// current EXPLAIN ANALYZE frame (when traced).
    pub(crate) fn note_kernel(&mut self, kernel: &'static str, rows: u64) {
        analyze::count_kernel_rows(kernel, rows);
        if let Some(collector) = self.analyze.as_mut() {
            collector.note_kernel(kernel, rows);
        }
    }

    pub(crate) fn lookup<T: Record>(&self, key: usize) -> Option<Arc<WeightedDataset<T>>> {
        self.memo.get(&key).map(|any| {
            any.downcast_ref::<Arc<WeightedDataset<T>>>()
                .expect("plan memo entry has the node's record type")
                .clone()
        })
    }

    pub(crate) fn store<T: Record>(&mut self, key: usize, value: Arc<WeightedDataset<T>>) {
        self.memo.insert(key, Box::new(value));
    }

    fn input<T: Record>(&self, id: InputId) -> Arc<WeightedDataset<T>> {
        self.bindings.get::<T>(id)
    }
}

/// Context of one sharded evaluation: source bindings, the shard count, and a memo of
/// already-evaluated nodes (`Arc<ShardedDataset<T>>`, type-erased). All intermediate
/// results of one evaluation are co-partitioned over the same `nshards`.
pub(crate) struct ShardCtx<'a> {
    bindings: &'a PlanBindings,
    nshards: usize,
    /// The executor's persistent worker pool, on which per-shard work is dispatched.
    pool: &'a WorkerPool,
    memo: HashMap<usize, Box<dyn Any>>,
    pub(crate) analyze: Option<AnalyzeCollector>,
}

impl<'a> ShardCtx<'a> {
    pub(crate) fn new(bindings: &'a PlanBindings, nshards: usize, pool: &'a WorkerPool) -> Self {
        ShardCtx {
            bindings,
            nshards: nshards.max(1),
            pool,
            memo: HashMap::new(),
            analyze: None,
        }
    }

    pub(crate) fn with_analyze(
        bindings: &'a PlanBindings,
        nshards: usize,
        pool: &'a WorkerPool,
    ) -> Self {
        let mut ctx = ShardCtx::new(bindings, nshards, pool);
        ctx.analyze = Some(AnalyzeCollector::new());
        ctx
    }

    /// Records the kernel an expression operator chose and the input rows it processed:
    /// bumps the process-global `wpinq_kernel_rows_total` series (always) and tags the
    /// current EXPLAIN ANALYZE frame (when traced).
    pub(crate) fn note_kernel(&mut self, kernel: &'static str, rows: u64) {
        analyze::count_kernel_rows(kernel, rows);
        if let Some(collector) = self.analyze.as_mut() {
            collector.note_kernel(kernel, rows);
        }
    }

    pub(crate) fn pool(&self) -> &'a WorkerPool {
        self.pool
    }

    pub(crate) fn lookup<T: Record>(&self, key: usize) -> Option<Arc<ShardedDataset<T>>> {
        self.memo.get(&key).map(|any| {
            any.downcast_ref::<Arc<ShardedDataset<T>>>()
                .expect("plan memo entry has the node's record type")
                .clone()
        })
    }

    pub(crate) fn store<T: Record>(&mut self, key: usize, value: Arc<ShardedDataset<T>>) {
        self.memo.insert(key, Box::new(value));
    }

    fn input<T: Record>(&self, id: InputId) -> Arc<ShardedDataset<T>> {
        // Partitions are cached on the bindings per (source, shard count): repeated
        // sharded evaluations against the same binding set reuse them instead of
        // re-hashing every source record per `eval_with` call.
        self.bindings.get_partitioned::<T>(id, self.nshards)
    }
}

/// Context of one lowering: source streams plus a memo of already-lowered nodes.
pub(crate) struct LowerCtx<'a> {
    bindings: &'a StreamBindings,
    memo: HashMap<usize, Box<dyn Any>>,
}

impl<'a> LowerCtx<'a> {
    pub(crate) fn new(bindings: &'a StreamBindings) -> Self {
        LowerCtx {
            bindings,
            memo: HashMap::new(),
        }
    }

    pub(crate) fn lookup<T: Record>(&self, key: usize) -> Option<Stream<T>> {
        self.memo.get(&key).map(|any| {
            any.downcast_ref::<Stream<T>>()
                .expect("plan memo entry has the node's record type")
                .clone()
        })
    }

    pub(crate) fn store<T: Record>(&mut self, key: usize, value: Stream<T>) {
        self.memo.insert(key, Box::new(value));
    }

    fn input<T: Record>(&self, id: InputId) -> Stream<T> {
        self.bindings.get::<T>(id)
    }
}

/// Context of one multiplicity computation.
pub(crate) struct MultCtx {
    memo: HashMap<usize, Arc<BTreeMap<InputId, u32>>>,
}

impl MultCtx {
    pub(crate) fn new() -> Self {
        MultCtx {
            memo: HashMap::new(),
        }
    }

    pub(crate) fn lookup(&self, key: usize) -> Option<Arc<BTreeMap<InputId, u32>>> {
        self.memo.get(&key).cloned()
    }

    pub(crate) fn store(&mut self, key: usize, value: Arc<BTreeMap<InputId, u32>>) {
        self.memo.insert(key, value);
    }
}

fn merge_mults(
    mut left: BTreeMap<InputId, u32>,
    right: &BTreeMap<InputId, u32>,
) -> BTreeMap<InputId, u32> {
    for (id, count) in right {
        *left.entry(*id).or_insert(0) += count;
    }
    left
}

/// Hash-conses a `Where` node over an already-rewritten parent (the pushdown fallback:
/// the predicate could not sink any further, so it lands here).
pub(crate) fn cons_filter<T: Record>(
    ctx: &mut RewriteCtx<'_>,
    parent: Plan<T>,
    pred: PredFn<T>,
    pred_id: ClosureId,
    pred_expr: Option<Expr>,
) -> Plan<T> {
    let card = ctx.card_of(parent.node_key());
    let shape = NodeShape::new::<T>(
        OpTag::Where,
        vec![parent.node_key()],
        vec![pred_id.clone()],
        0,
    );
    ctx.cons::<T>(shape, card, move || {
        Plan::from_node(Arc::new(FilterNode::from_parts(
            parent, pred, pred_id, pred_expr,
        )))
    })
}

/// Hash-conses the empty constant node (the `Except(X, X)` collapse target).
pub(crate) fn cons_empty<T: Record>(ctx: &mut RewriteCtx<'_>, ty: Option<ValueType>) -> Plan<T> {
    let shape = NodeShape::new::<T>(OpTag::Empty, Vec::new(), Vec::new(), 0);
    ctx.cons::<T>(shape, 0.0, move || {
        Plan::from_node(Arc::new(EmptyNode::new(ty)))
    })
}

// ---------------------------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------------------------

/// A source: records arrive from a bound dataset (batch) or stream (incremental).
///
/// A source built through `Plan::source_expr` additionally carries a stable **name** and
/// its declared [`ValueType`] — the identity that crosses the wire in a [`SpecNode`]
/// (process-local [`InputId`]s never leave the process).
pub(crate) struct InputNode<T: Record> {
    id: InputId,
    named: Option<(Arc<str>, ValueType)>,
    _record: std::marker::PhantomData<fn() -> T>,
}

impl<T: Record> InputNode<T> {
    pub(crate) fn new(id: InputId) -> Self {
        InputNode {
            id,
            named: None,
            _record: std::marker::PhantomData,
        }
    }

    pub(crate) fn named(id: InputId, name: &str, ty: ValueType) -> Self {
        InputNode {
            id,
            named: Some((Arc::from(name), ty)),
            _record: std::marker::PhantomData,
        }
    }
}

impl<T: Record> PlanNode<T> for InputNode<T> {
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<T>> {
        ctx.input::<T>(self.id)
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<T>> {
        // Partitioning is memoised per node by `Plan::eval_shards_node`, so each source is
        // sharded once per evaluation regardless of how many times the plan references it.
        ctx.input::<T>(self.id)
    }

    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<T> {
        ctx.input::<T>(self.id)
    }

    fn multiplicities(&self, _ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        BTreeMap::from([(self.id, 1)])
    }

    fn count_refs(&self, _ctx: &mut RefCounts) {}

    fn rewrite(&self, this: &Plan<T>, ctx: &mut RewriteCtx<'_>) -> Plan<T> {
        let shape = NodeShape::new::<T>(OpTag::Source, Vec::new(), Vec::new(), self.id.0);
        let card = ctx.source_size(self.id);
        let original = this.clone();
        ctx.cons::<T>(shape, card, move || original)
    }

    fn as_input(&self) -> Option<InputId> {
        Some(self.id)
    }

    fn describe(&self) -> &'static str {
        "Source"
    }

    fn detail(&self) -> String {
        match &self.named {
            Some((name, ty)) => format!("Source(\"{name}\": {ty})"),
            None => format!("Source(input {})", self.id.0),
        }
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let (name, ty) = self.named.as_ref()?;
        Some(ctx.push(SpecNode::Source {
            name: name.to_string(),
            ty: ty.clone(),
        }))
    }
}

/// The empty-dataset constant: no records under any binding, zero multiplicity against
/// every source (measuring it is free). Produced by [`Plan::empty`] and by the
/// `Except(X, X) → ∅` rewrite.
pub(crate) struct EmptyNode<T: Record> {
    /// The record type, when known (needed only for serialization).
    ty: Option<ValueType>,
    _record: std::marker::PhantomData<fn() -> T>,
}

impl<T: Record> EmptyNode<T> {
    pub(crate) fn new(ty: Option<ValueType>) -> Self {
        EmptyNode {
            ty,
            _record: std::marker::PhantomData,
        }
    }
}

impl<T: Record> PlanNode<T> for EmptyNode<T> {
    fn eval_batch(&self, _ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<T>> {
        Arc::new(WeightedDataset::new())
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<T>> {
        Arc::new(ShardedDataset::partition(
            &WeightedDataset::new(),
            ctx.nshards,
        ))
    }

    fn lower(&self, _ctx: &mut LowerCtx<'_>) -> Stream<T> {
        // A fresh input stream whose handle is dropped immediately: no delta ever flows,
        // so the lowered node is permanently empty.
        let (_input, stream) = DataflowInput::new();
        stream
    }

    fn multiplicities(&self, _ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        BTreeMap::new()
    }

    fn count_refs(&self, _ctx: &mut RefCounts) {}

    fn rewrite(&self, this: &Plan<T>, ctx: &mut RewriteCtx<'_>) -> Plan<T> {
        let shape = NodeShape::new::<T>(OpTag::Empty, Vec::new(), Vec::new(), 0);
        let original = this.clone();
        ctx.cons::<T>(shape, 0.0, move || original)
    }

    fn describe(&self) -> &'static str {
        "Empty"
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let ty = self.ty.clone()?;
        Some(ctx.push(SpecNode::Empty { ty }))
    }
}

/// `Select` (Section 2.4).
pub(crate) struct SelectNode<T: Record, U: Record> {
    parent: Plan<T>,
    f: MapFn<T, U>,
    f_id: ClosureId,
    expr: Option<Expr>,
}

impl<T: Record, U: Record> SelectNode<T, U> {
    pub(crate) fn new<F>(parent: Plan<T>, f: F) -> Self
    where
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let f_id = ClosureId::of(&f);
        SelectNode {
            parent,
            f,
            f_id,
            expr: None,
        }
    }

    /// An expression-built select: the closure interprets `expr`, and the node's closure
    /// identity is the expression's canonical serialization (stable across processes).
    pub(crate) fn from_expr(parent: Plan<T>, f: MapFn<T, U>, expr: Expr) -> Self {
        let f_id = ClosureId::expr(expr.canonical());
        SelectNode {
            parent,
            f,
            f_id,
            expr: Some(expr),
        }
    }

    fn from_parts(parent: Plan<T>, f: MapFn<T, U>, f_id: ClosureId, expr: Option<Expr>) -> Self {
        SelectNode {
            parent,
            f,
            f_id,
            expr,
        }
    }

    /// Hash-conses a select of `self`'s selector over an already-rewritten parent.
    fn cons_over(
        &self,
        parent: Plan<T>,
        original: Option<Plan<U>>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Plan<U> {
        let card = ctx.card_of(parent.node_key());
        let shape = NodeShape::new::<U>(
            OpTag::Select,
            vec![parent.node_key()],
            vec![self.f_id.clone()],
            0,
        );
        let (f, f_id) = (self.f.clone(), self.f_id.clone());
        let expr = self.expr.clone();
        ctx.cons::<U>(shape, card, move || {
            original.unwrap_or_else(|| {
                Plan::from_node(Arc::new(SelectNode::from_parts(parent, f, f_id, expr)))
            })
        })
    }
}

impl<T: Record, U: Record> PlanNode<U> for SelectNode<T, U> {
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<U>> {
        let parent = self.parent.eval_node(ctx);
        if let Some(expr) = &self.expr {
            let rows = parent.len() as u64;
            if let Some(out) = columnar::try_select(&parent, expr) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(batch::select(&parent, &*self.f))
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<U>> {
        let parent = self.parent.eval_shards_node(ctx);
        if let Some(expr) = &self.expr {
            let rows = parent.len() as u64;
            if let Some(out) = columnar::try_select_shards(&parent, expr, ctx.pool()) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(shard::select(&parent, &*self.f, ctx.pool()))
    }

    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<U> {
        let f = self.f.clone();
        self.parent.lower_node(ctx).select(move |r| f(r))
    }

    fn multiplicities(&self, ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        (*self.parent.mult_node(ctx)).clone()
    }

    fn count_refs(&self, ctx: &mut RefCounts) {
        self.parent.count_refs_node(ctx);
    }

    fn rewrite(&self, this: &Plan<U>, ctx: &mut RewriteCtx<'_>) -> Plan<U> {
        let parent = self.parent.rewrite_node(ctx);
        let original = (parent.node_key() == self.parent.node_key()).then(|| this.clone());
        self.cons_over(parent, original, ctx)
    }

    fn absorb_filter(
        &self,
        pred: &PredFn<U>,
        pred_id: &ClosureId,
        pred_expr: Option<&Expr>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Option<Plan<U>> {
        // Where(Select(x, f), p) = Select(Where(x, p ∘ f), f): the predicate depends only
        // on the output record, so whole collision groups pass or fail together and the
        // surviving groups keep their exact contribution multisets (bitwise identical).
        //
        // Only worth doing when the fused predicate keeps sinking (reaches another
        // filter to fuse with, or a binary to distribute into): parked directly below
        // this select it would re-run `f` per input record and materialise a filtered
        // copy of the input the authored plan never builds.
        if !self.parent.sinks_filters(ctx) {
            return None;
        }
        let f = self.f.clone();
        let p = pred.clone();
        let fused: PredFn<T> = Arc::new(move |x| p(&f(x)));
        // When both payloads have expression forms, the fused predicate keeps one too
        // (and its stable expression identity); otherwise fall back to a derived id.
        let fused_expr = match (pred_expr, &self.expr) {
            (Some(p), Some(f)) => Some(p.compose(f)),
            _ => None,
        };
        let fused_id = match &fused_expr {
            Some(expr) => ClosureId::expr(expr.canonical()),
            None => ClosureId::derived("where∘select", vec![pred_id.clone(), self.f_id.clone()]),
        };
        let inner = self
            .parent
            .rewrite_with_filter(&fused, &fused_id, fused_expr.as_ref(), ctx);
        Some(self.cons_over(inner, None, ctx))
    }

    fn sinks_filters(&self, ctx: &RewriteCtx<'_>) -> bool {
        self.parent.sinks_filters(ctx)
    }

    fn describe(&self) -> &'static str {
        "Select"
    }

    fn detail(&self) -> String {
        match &self.expr {
            Some(expr) => format!("Select({expr})"),
            None => "Select(<fn>)".to_string(),
        }
    }

    fn render_children(&self, ctx: &mut RenderCtx) {
        self.parent.render_node(ctx);
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let expr = self.expr.clone()?;
        let input = self.parent.spec_node(ctx)?;
        Some(ctx.push(SpecNode::Select { input, expr }))
    }
}

/// `Where` (Section 2.4).
pub(crate) struct FilterNode<T: Record> {
    parent: Plan<T>,
    predicate: PredFn<T>,
    pred_id: ClosureId,
    expr: Option<Expr>,
}

impl<T: Record> FilterNode<T> {
    pub(crate) fn new<P>(parent: Plan<T>, predicate: P) -> Self
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let predicate = Arc::new(predicate);
        let pred_id = ClosureId::of(&predicate);
        FilterNode {
            parent,
            predicate,
            pred_id,
            expr: None,
        }
    }

    /// An expression-built filter (stable closure identity, analysable predicate).
    pub(crate) fn from_expr(parent: Plan<T>, predicate: PredFn<T>, expr: Expr) -> Self {
        let pred_id = ClosureId::expr(expr.canonical());
        FilterNode {
            parent,
            predicate,
            pred_id,
            expr: Some(expr),
        }
    }

    pub(crate) fn from_parts(
        parent: Plan<T>,
        predicate: PredFn<T>,
        pred_id: ClosureId,
        expr: Option<Expr>,
    ) -> Self {
        FilterNode {
            parent,
            predicate,
            pred_id,
            expr,
        }
    }
}

impl<T: Record> PlanNode<T> for FilterNode<T> {
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<T>> {
        let parent = self.parent.eval_node(ctx);
        if let Some(expr) = &self.expr {
            let rows = parent.len() as u64;
            if let Some(out) = columnar::try_filter(&parent, expr) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(batch::filter(&parent, &*self.predicate))
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<T>> {
        let parent = self.parent.eval_shards_node(ctx);
        if let Some(expr) = &self.expr {
            let rows = parent.len() as u64;
            if let Some(out) = columnar::try_filter_shards(&parent, expr, ctx.pool()) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(shard::filter(&parent, &*self.predicate, ctx.pool()))
    }

    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<T> {
        let predicate = self.predicate.clone();
        self.parent.lower_node(ctx).filter(move |r| predicate(r))
    }

    fn multiplicities(&self, ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        (*self.parent.mult_node(ctx)).clone()
    }

    fn count_refs(&self, ctx: &mut RefCounts) {
        self.parent.count_refs_node(ctx);
    }

    fn rewrite(&self, _this: &Plan<T>, ctx: &mut RewriteCtx<'_>) -> Plan<T> {
        self.parent
            .rewrite_with_filter(&self.predicate, &self.pred_id, self.expr.as_ref(), ctx)
    }

    fn absorb_filter(
        &self,
        pred: &PredFn<T>,
        pred_id: &ClosureId,
        pred_expr: Option<&Expr>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Option<Plan<T>> {
        // Where(Where(x, p), q) = Where(x, p ∧ q): weights pass through filters
        // untouched, so fusing only changes how many map scans happen.
        let p = self.predicate.clone();
        let q = pred.clone();
        let fused: PredFn<T> = Arc::new(move |t| p(t) && q(t));
        let fused_expr = match (&self.expr, pred_expr) {
            (Some(p), Some(q)) => Some(p.clone().and(q.clone())),
            _ => None,
        };
        let fused_id = match &fused_expr {
            Some(expr) => ClosureId::expr(expr.canonical()),
            None => ClosureId::derived("where∧where", vec![self.pred_id.clone(), pred_id.clone()]),
        };
        Some(
            self.parent
                .rewrite_with_filter(&fused, &fused_id, fused_expr.as_ref(), ctx),
        )
    }

    fn sinks_filters(&self, _ctx: &RewriteCtx<'_>) -> bool {
        true
    }

    fn describe(&self) -> &'static str {
        "Where"
    }

    fn detail(&self) -> String {
        match &self.expr {
            Some(expr) => format!("Where({expr})"),
            None => "Where(<fn>)".to_string(),
        }
    }

    fn render_children(&self, ctx: &mut RenderCtx) {
        self.parent.render_node(ctx);
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let expr = self.expr.clone()?;
        let input = self.parent.spec_node(ctx)?;
        Some(ctx.push(SpecNode::Where { input, expr }))
    }
}

/// `SelectMany` (Section 2.4) with the data-dependent unit-norm rescaling.
pub(crate) struct SelectManyNode<T: Record, U: Record> {
    parent: Plan<T>,
    f: ProduceFn<T, U>,
    f_id: ClosureId,
    exprs: Option<SelectManyExprs<T>>,
}

impl<T: Record, U: Record> SelectManyNode<T, U> {
    pub(crate) fn new<F>(parent: Plan<T>, f: F) -> Self
    where
        F: Fn(&T) -> WeightedDataset<U> + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let f_id = ClosureId::of(&f);
        SelectManyNode {
            parent,
            f,
            f_id,
            exprs: None,
        }
    }

    /// An expression-built `SelectMany` with unit-weight productions (one record per
    /// expression). The closure identity is derived from the productions' canonical
    /// serializations, so structurally equal nodes unify across processes.
    pub(crate) fn from_exprs(
        parent: Plan<T>,
        f: ProduceFn<T, U>,
        exprs: SelectManyExprs<T>,
    ) -> Self {
        let f_id = ClosureId::expr(select_many_canonical(&exprs.exprs));
        SelectManyNode {
            parent,
            f,
            f_id,
            exprs: Some(exprs),
        }
    }

    fn from_parts(
        parent: Plan<T>,
        f: ProduceFn<T, U>,
        f_id: ClosureId,
        exprs: Option<SelectManyExprs<T>>,
    ) -> Self {
        SelectManyNode {
            parent,
            f,
            f_id,
            exprs,
        }
    }

    /// Hash-conses this node's operator over an already-rewritten parent.
    fn cons_over(
        &self,
        parent: Plan<T>,
        original: Option<Plan<U>>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Plan<U> {
        let card = ctx.card_of(parent.node_key()) * FANOUT_ESTIMATE;
        let shape = NodeShape::new::<U>(
            OpTag::SelectMany,
            vec![parent.node_key()],
            vec![self.f_id.clone()],
            0,
        );
        let (f, f_id) = (self.f.clone(), self.f_id.clone());
        let exprs = self.exprs.clone();
        ctx.cons::<U>(shape, card, move || {
            original.unwrap_or_else(|| {
                Plan::from_node(Arc::new(SelectManyNode::from_parts(parent, f, f_id, exprs)))
            })
        })
    }
}

/// The canonical identity string of a unit-production list.
fn select_many_canonical(exprs: &[Expr]) -> String {
    let mut out = String::from("select_many_unit:");
    for (i, expr) in exprs.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&expr.canonical());
    }
    out
}

impl<T: Record, U: Record> PlanNode<U> for SelectManyNode<T, U> {
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<U>> {
        let parent = self.parent.eval_node(ctx);
        if let Some(payload) = &self.exprs {
            let rows = parent.len() as u64;
            if let Some(out) = columnar::try_select_many_unit(&parent, &payload.exprs) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(batch::select_many(&parent, &*self.f))
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<U>> {
        let parent = self.parent.eval_shards_node(ctx);
        if let Some(payload) = &self.exprs {
            let rows = parent.len() as u64;
            if let Some(out) =
                columnar::try_select_many_unit_shards(&parent, &payload.exprs, ctx.pool())
            {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(shard::select_many(&parent, &*self.f, ctx.pool()))
    }

    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<U> {
        let f = self.f.clone();
        self.parent.lower_node(ctx).select_many(move |r| f(r))
    }

    fn multiplicities(&self, ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        (*self.parent.mult_node(ctx)).clone()
    }

    fn count_refs(&self, ctx: &mut RefCounts) {
        self.parent.count_refs_node(ctx);
    }

    fn rewrite(&self, this: &Plan<U>, ctx: &mut RewriteCtx<'_>) -> Plan<U> {
        let parent = self.parent.rewrite_node(ctx);
        let original = (parent.node_key() == self.parent.node_key()).then(|| this.clone());
        self.cons_over(parent, original, ctx)
    }

    /// Where-into-SelectMany pushdown, licensed by an expression analysis.
    ///
    /// In general a filter must **not** cross a `SelectMany`: the operator rescales each
    /// input record's production by the norm of the *unfiltered* produced dataset, so
    /// dropping productions early would change surviving weights. The sound special case
    /// — previously unreachable with opaque closures — is a predicate that provably
    /// decides each input record's **entire** production at once: when `pred ∘ prodᵢ` is
    /// the same expression `q` of the input record for every production `i`, a record
    /// either keeps its whole production (same norm, same weights, bitwise) or loses all
    /// of it, so `Where(SelectMany(x, es), p) = SelectMany(Where(x, q), es)` exactly.
    fn absorb_filter(
        &self,
        _pred: &PredFn<U>,
        _pred_id: &ClosureId,
        pred_expr: Option<&Expr>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Option<Plan<U>> {
        let payload = self.exprs.as_ref()?;
        let pred_expr = pred_expr?;
        let mut composed = payload
            .exprs
            .iter()
            .map(|prod| pred_expr.compose(prod).simplify());
        let q = composed.next()?;
        if !composed.all(|other| other == q) {
            // The productions disagree on the predicate for some conceivable input, so
            // survival is not a function of the input record alone.
            return None;
        }
        let conv = payload.conv.clone();
        let q_closure = {
            let q = q.clone();
            Arc::new(move |t: &T| q.eval_bool(&conv(t))) as PredFn<T>
        };
        let q_id = ClosureId::expr(q.canonical());
        let inner = self
            .parent
            .rewrite_with_filter(&q_closure, &q_id, Some(&q), ctx);
        Some(self.cons_over(inner, None, ctx))
    }

    fn describe(&self) -> &'static str {
        "SelectMany"
    }

    fn detail(&self) -> String {
        match &self.exprs {
            Some(payload) => {
                let items: Vec<String> = payload.exprs.iter().map(|e| e.to_string()).collect();
                format!("SelectMany([{}])", items.join(", "))
            }
            None => "SelectMany(<fn>)".to_string(),
        }
    }

    fn render_children(&self, ctx: &mut RenderCtx) {
        self.parent.render_node(ctx);
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let exprs = self.exprs.as_ref()?.exprs.as_ref().clone();
        let input = self.parent.spec_node(ctx)?;
        Some(ctx.push(SpecNode::SelectManyUnit { input, exprs }))
    }
}

/// `GroupBy` (Section 2.5).
pub(crate) struct GroupByNode<T: Record, K: Record, R: Record> {
    parent: Plan<T>,
    key: KeyFn<T, K>,
    reduce: ReduceFn<T, R>,
    key_id: ClosureId,
    reduce_id: ClosureId,
    exprs: Option<(Expr, ReduceSpec)>,
}

impl<T: Record, K: Record, R: Record> GroupByNode<T, K, R> {
    pub(crate) fn new<KF, RF>(parent: Plan<T>, key: KF, reduce: RF) -> Self
    where
        KF: Fn(&T) -> K + Send + Sync + 'static,
        RF: Fn(&[T]) -> R + Send + Sync + 'static,
    {
        let key = Arc::new(key);
        let key_id = ClosureId::of(&key);
        let reduce = Arc::new(reduce);
        let reduce_id = ClosureId::of(&reduce);
        GroupByNode {
            parent,
            key,
            reduce,
            key_id,
            reduce_id,
            exprs: None,
        }
    }

    /// An expression-built group-by: expression key, [`ReduceSpec`] reducer, stable
    /// closure identities derived from their canonical serializations.
    pub(crate) fn from_expr(
        parent: Plan<T>,
        key: KeyFn<T, K>,
        reduce: ReduceFn<T, R>,
        key_expr: Expr,
        reduce_spec: ReduceSpec,
    ) -> Self {
        let key_id = ClosureId::expr(key_expr.canonical());
        let reduce_id = ClosureId::expr(reduce_spec.canonical());
        GroupByNode {
            parent,
            key,
            reduce,
            key_id,
            reduce_id,
            exprs: Some((key_expr, reduce_spec)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        parent: Plan<T>,
        key: KeyFn<T, K>,
        reduce: ReduceFn<T, R>,
        key_id: ClosureId,
        reduce_id: ClosureId,
        exprs: Option<(Expr, ReduceSpec)>,
    ) -> Self {
        GroupByNode {
            parent,
            key,
            reduce,
            key_id,
            reduce_id,
            exprs,
        }
    }
}

impl<T: Record, K: Record, R: Record> PlanNode<(K, R)> for GroupByNode<T, K, R> {
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<(K, R)>> {
        let parent = self.parent.eval_node(ctx);
        if let Some((key, reduce)) = &self.exprs {
            let rows = parent.len() as u64;
            if let Some(out) = columnar::try_group_by(&parent, key, reduce) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(batch::group_by(&parent, &*self.key, &*self.reduce))
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<(K, R)>> {
        let parent = self.parent.eval_shards_node(ctx);
        if let Some((key, reduce)) = &self.exprs {
            let rows = parent.len() as u64;
            if let Some(out) = columnar::try_group_by_shards(&parent, key, reduce, ctx.pool()) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(shard::group_by(
            &parent,
            &*self.key,
            &*self.reduce,
            ctx.pool(),
        ))
    }

    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<(K, R)> {
        let key = self.key.clone();
        let reduce = self.reduce.clone();
        self.parent
            .lower_node(ctx)
            .group_by(move |r| key(r), move |g| reduce(g))
    }

    fn multiplicities(&self, ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        (*self.parent.mult_node(ctx)).clone()
    }

    fn count_refs(&self, ctx: &mut RefCounts) {
        self.parent.count_refs_node(ctx);
    }

    fn rewrite(&self, this: &Plan<(K, R)>, ctx: &mut RewriteCtx<'_>) -> Plan<(K, R)> {
        let parent = self.parent.rewrite_node(ctx);
        let card = ctx.card_of(parent.node_key());
        let shape = NodeShape::new::<(K, R)>(
            OpTag::GroupBy,
            vec![parent.node_key()],
            vec![self.key_id.clone(), self.reduce_id.clone()],
            0,
        );
        let original = (parent.node_key() == self.parent.node_key()).then(|| this.clone());
        let (key, reduce) = (self.key.clone(), self.reduce.clone());
        let (key_id, reduce_id) = (self.key_id.clone(), self.reduce_id.clone());
        let exprs = self.exprs.clone();
        ctx.cons::<(K, R)>(shape, card, move || {
            original.unwrap_or_else(|| {
                Plan::from_node(Arc::new(GroupByNode::from_parts(
                    parent, key, reduce, key_id, reduce_id, exprs,
                )))
            })
        })
    }

    fn describe(&self) -> &'static str {
        "GroupBy"
    }

    fn detail(&self) -> String {
        match &self.exprs {
            Some((key, reduce)) => format!("GroupBy(key={key}, reduce={reduce})"),
            None => "GroupBy(<fn>)".to_string(),
        }
    }

    fn render_children(&self, ctx: &mut RenderCtx) {
        self.parent.render_node(ctx);
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let (key, reduce) = self.exprs.clone()?;
        let input = self.parent.spec_node(ctx)?;
        Some(ctx.push(SpecNode::GroupBy { input, key, reduce }))
    }
}

/// `Shave` (Section 2.8) with a boxed-iterator weight schedule.
pub(crate) struct ShaveNode<T: Record> {
    parent: Plan<T>,
    schedule: ScheduleFn<T>,
    schedule_id: ClosureId,
    /// The constant per-slice weight when this node was built by `shave_const` — the
    /// serializable case (arbitrary schedule closures cannot cross the wire).
    step: Option<f64>,
}

impl<T: Record> ShaveNode<T> {
    pub(crate) fn new<F>(parent: Plan<T>, schedule: F) -> Self
    where
        F: Fn(&T) -> Box<dyn Iterator<Item = f64>> + Send + Sync + 'static,
    {
        let schedule = Arc::new(schedule);
        let schedule_id = ClosureId::of(&schedule);
        ShaveNode {
            parent,
            schedule,
            schedule_id,
            step: None,
        }
    }

    /// A shave node whose schedule identity is a known constant — `shave_const(step)`
    /// behaves identically for equal steps no matter which call site built it, so two
    /// such nodes hash-cons together even though their closures capture state.
    pub(crate) fn with_const_id<F>(parent: Plan<T>, schedule: F, step: f64) -> Self
    where
        F: Fn(&T) -> Box<dyn Iterator<Item = f64>> + Send + Sync + 'static,
    {
        let schedule = Arc::new(schedule);
        ShaveNode {
            parent,
            schedule,
            schedule_id: ClosureId::constant("shave-const", step.to_bits()),
            step: Some(step),
        }
    }

    fn from_parts(
        parent: Plan<T>,
        schedule: ScheduleFn<T>,
        schedule_id: ClosureId,
        step: Option<f64>,
    ) -> Self {
        ShaveNode {
            parent,
            schedule,
            schedule_id,
            step,
        }
    }
}

impl<T: Record> PlanNode<(T, u64)> for ShaveNode<T> {
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<(T, u64)>> {
        Arc::new(batch::shave(&self.parent.eval_node(ctx), &*self.schedule))
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<(T, u64)>> {
        let parent = self.parent.eval_shards_node(ctx);
        Arc::new(shard::shave(&parent, &*self.schedule, ctx.pool()))
    }

    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<(T, u64)> {
        let schedule = self.schedule.clone();
        self.parent.lower_node(ctx).shave(move |r| schedule(r))
    }

    fn multiplicities(&self, ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        (*self.parent.mult_node(ctx)).clone()
    }

    fn count_refs(&self, ctx: &mut RefCounts) {
        self.parent.count_refs_node(ctx);
    }

    fn rewrite(&self, this: &Plan<(T, u64)>, ctx: &mut RewriteCtx<'_>) -> Plan<(T, u64)> {
        let parent = self.parent.rewrite_node(ctx);
        let card = ctx.card_of(parent.node_key()) * FANOUT_ESTIMATE;
        let shape = NodeShape::new::<(T, u64)>(
            OpTag::Shave,
            vec![parent.node_key()],
            vec![self.schedule_id.clone()],
            0,
        );
        let original = (parent.node_key() == self.parent.node_key()).then(|| this.clone());
        let (schedule, schedule_id) = (self.schedule.clone(), self.schedule_id.clone());
        let step = self.step;
        ctx.cons::<(T, u64)>(shape, card, move || {
            original.unwrap_or_else(|| {
                Plan::from_node(Arc::new(ShaveNode::from_parts(
                    parent,
                    schedule,
                    schedule_id,
                    step,
                )))
            })
        })
    }

    fn describe(&self) -> &'static str {
        "Shave"
    }

    fn detail(&self) -> String {
        match self.step {
            Some(step) => format!("Shave(step={step})"),
            None => "Shave(<fn>)".to_string(),
        }
    }

    fn render_children(&self, ctx: &mut RenderCtx) {
        self.parent.render_node(ctx);
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let step = self.step?;
        let input = self.parent.spec_node(ctx)?;
        Some(ctx.push(SpecNode::ShaveConst { input, step }))
    }
}

/// The weight-rescaling equi-`Join` (Section 2.7).
pub(crate) struct JoinNode<A: Record, B: Record, K: Record, R: Record> {
    left: Plan<A>,
    right: Plan<B>,
    key_left: KeyFn<A, K>,
    key_right: KeyFn<B, K>,
    result: JoinResultFn<A, B, R>,
    key_left_id: ClosureId,
    key_right_id: ClosureId,
    result_id: ClosureId,
    exprs: Option<Arc<JoinExprs<A, B>>>,
}

impl<A: Record, B: Record, K: Record, R: Record> JoinNode<A, B, K, R> {
    pub(crate) fn new<KA, KB, RF>(
        left: Plan<A>,
        right: Plan<B>,
        key_left: KA,
        key_right: KB,
        result: RF,
    ) -> Self
    where
        KA: Fn(&A) -> K + Send + Sync + 'static,
        KB: Fn(&B) -> K + Send + Sync + 'static,
        RF: Fn(&A, &B) -> R + Send + Sync + 'static,
    {
        let key_left = Arc::new(key_left);
        let key_left_id = ClosureId::of(&key_left);
        let key_right = Arc::new(key_right);
        let key_right_id = ClosureId::of(&key_right);
        let result = Arc::new(result);
        let result_id = ClosureId::of(&result);
        JoinNode {
            left,
            right,
            key_left,
            key_right,
            result,
            key_left_id,
            key_right_id,
            result_id,
            exprs: None,
        }
    }

    /// An expression-built join: keys and result selector carry their expression forms
    /// (and expression-derived stable identities), enabling serialization, join-key
    /// equivalence detection, and the key-preservation filter pushdown.
    pub(crate) fn from_expr(
        left: Plan<A>,
        right: Plan<B>,
        key_left: KeyFn<A, K>,
        key_right: KeyFn<B, K>,
        result: JoinResultFn<A, B, R>,
        exprs: JoinExprs<A, B>,
    ) -> Self {
        let key_left_id = ClosureId::expr(exprs.key_left.canonical());
        let key_right_id = ClosureId::expr(exprs.key_right.canonical());
        let result_id = ClosureId::expr(exprs.result.canonical());
        JoinNode {
            left,
            right,
            key_left,
            key_right,
            result,
            key_left_id,
            key_right_id,
            result_id,
            exprs: Some(Arc::new(exprs)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        left: Plan<A>,
        right: Plan<B>,
        key_left: KeyFn<A, K>,
        key_right: KeyFn<B, K>,
        result: JoinResultFn<A, B, R>,
        key_left_id: ClosureId,
        key_right_id: ClosureId,
        result_id: ClosureId,
        exprs: Option<Arc<JoinExprs<A, B>>>,
    ) -> Self {
        JoinNode {
            left,
            right,
            key_left,
            key_right,
            result,
            key_left_id,
            key_right_id,
            result_id,
            exprs,
        }
    }

    /// Hash-conses this join over already-rewritten inputs, applying the cardinality-
    /// driven input reordering (bitwise neutral; see `rewrite`).
    fn cons_over(
        &self,
        left: Plan<A>,
        right: Plan<B>,
        original: Option<Plan<R>>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Plan<R> {
        let (card_l, card_r) = (ctx.card_of(left.node_key()), ctx.card_of(right.node_key()));
        let card = card_l + card_r;

        // Join input ordering: iterate the smaller estimated input's key groups. The
        // kernel computes `w_a·w_b / (‖A_k‖ + ‖B_k‖)` — both float ops commutative — and
        // accumulates canonically, so the swap is bitwise neutral.
        if ctx.level().reorder() && card_r < card_l {
            let swapped_exprs = self.exprs.as_ref().map(|payload| {
                let pair_swap = Expr::tuple(vec![Expr::input().field(1), Expr::input().field(0)]);
                JoinExprs {
                    key_left: payload.key_right.clone(),
                    key_right: payload.key_left.clone(),
                    result: payload.result.compose(&pair_swap),
                    conv_left: payload.conv_right.clone(),
                    conv_right: payload.conv_left.clone(),
                }
            });
            let swapped_result_id = match &swapped_exprs {
                Some(payload) => ClosureId::expr(payload.result.canonical()),
                None => ClosureId::derived("join-swap", vec![self.result_id.clone()]),
            };
            let shape = NodeShape::new::<R>(
                OpTag::Join,
                vec![right.node_key(), left.node_key()],
                vec![
                    self.key_right_id.clone(),
                    self.key_left_id.clone(),
                    swapped_result_id.clone(),
                ],
                0,
            );
            let (key_left, key_right) = (self.key_left.clone(), self.key_right.clone());
            let (kl_id, kr_id) = (self.key_left_id.clone(), self.key_right_id.clone());
            let result = self.result.clone();
            return ctx.cons::<R>(shape, card, move || {
                let swapped: JoinResultFn<B, A, R> = {
                    let result = result.clone();
                    Arc::new(move |b, a| result(a, b))
                };
                Plan::from_node(Arc::new(JoinNode::from_parts(
                    right,
                    left,
                    key_right,
                    key_left,
                    swapped,
                    kr_id,
                    kl_id,
                    swapped_result_id,
                    swapped_exprs.map(Arc::new),
                )))
            });
        }

        let shape = NodeShape::new::<R>(
            OpTag::Join,
            vec![left.node_key(), right.node_key()],
            vec![
                self.key_left_id.clone(),
                self.key_right_id.clone(),
                self.result_id.clone(),
            ],
            0,
        );
        let (key_left, key_right) = (self.key_left.clone(), self.key_right.clone());
        let (kl_id, kr_id) = (self.key_left_id.clone(), self.key_right_id.clone());
        let (result, result_id) = (self.result.clone(), self.result_id.clone());
        let exprs = self.exprs.clone();
        ctx.cons::<R>(shape, card, move || {
            original.unwrap_or_else(|| {
                Plan::from_node(Arc::new(JoinNode::from_parts(
                    left, right, key_left, key_right, result, kl_id, kr_id, result_id, exprs,
                )))
            })
        })
    }
}

impl<A: Record, B: Record, K: Record, R: Record> PlanNode<R> for JoinNode<A, B, K, R> {
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<R>> {
        let left = self.left.eval_node(ctx);
        let right = self.right.eval_node(ctx);
        if let Some(payload) = &self.exprs {
            let rows = (left.len() + right.len()) as u64;
            if let Some(out) = columnar::try_join(
                &left,
                &right,
                &payload.key_left,
                &payload.key_right,
                &payload.result,
            ) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(batch::join(
            &left,
            &right,
            &*self.key_left,
            &*self.key_right,
            &*self.result,
        ))
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<R>> {
        let left = self.left.eval_shards_node(ctx);
        let right = self.right.eval_shards_node(ctx);
        if let Some(payload) = &self.exprs {
            let rows = (left.len() + right.len()) as u64;
            if let Some(out) = columnar::try_join_shards(
                &left,
                &right,
                &payload.key_left,
                &payload.key_right,
                &payload.result,
                ctx.pool(),
            ) {
                ctx.note_kernel("columnar", rows);
                return Arc::new(out);
            }
            ctx.note_kernel("row", rows);
        }
        Arc::new(shard::join(
            &left,
            &right,
            &*self.key_left,
            &*self.key_right,
            &*self.result,
            ctx.pool(),
        ))
    }

    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<R> {
        let left = self.left.lower_node(ctx);
        let right = self.right.lower_node(ctx);
        let key_left = self.key_left.clone();
        let key_right = self.key_right.clone();
        let result = self.result.clone();
        left.join(
            &right,
            move |a| key_left(a),
            move |b| key_right(b),
            move |a, b| result(a, b),
        )
    }

    fn multiplicities(&self, ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        let left = self.left.mult_node(ctx);
        let right = self.right.mult_node(ctx);
        merge_mults((*left).clone(), &right)
    }

    fn count_refs(&self, ctx: &mut RefCounts) {
        self.left.count_refs_node(ctx);
        self.right.count_refs_node(ctx);
    }

    fn rewrite(&self, this: &Plan<R>, ctx: &mut RewriteCtx<'_>) -> Plan<R> {
        let left = self.left.rewrite_node(ctx);
        let right = self.right.rewrite_node(ctx);
        let unchanged =
            left.node_key() == self.left.node_key() && right.node_key() == self.right.node_key();
        let original = unchanged.then(|| this.clone());
        self.cons_over(left, right, original, ctx)
    }

    /// Where-into-Join pushdown, licensed by the key-preservation analysis.
    ///
    /// A filter generally must not cross the weight-rescaling join: the kernel divides
    /// by per-key input norms `‖A_k‖ + ‖B_k‖`, so removing records early would change
    /// surviving weights. The sound case the expression language unlocks: when the
    /// predicate (composed with the result selector) provably **factors through the join
    /// key** — `pred(result(a, b)) = q(k)` whenever `key_left(a) = key_right(b) = k` —
    /// it decides whole key groups at once. Filtering *both* inputs by `q ∘ key` then
    /// drops exactly the non-qualifying groups while every surviving group keeps both
    /// sides intact, so per-key norms, contribution multisets, and released bytes are
    /// unchanged — and the join no longer builds hash state for keys the analyst threw
    /// away.
    fn absorb_filter(
        &self,
        _pred: &PredFn<R>,
        _pred_id: &ClosureId,
        pred_expr: Option<&Expr>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Option<Plan<R>> {
        let payload = self.exprs.as_ref()?;
        let pred_expr = pred_expr?;
        // The predicate as an expression over the matched pair (a, b) — simplified, so
        // projections out of the tuple-building result selector reduce to plain paths…
        let composed = pred_expr.compose(&payload.result).simplify();
        // …and the key expressions lifted to the pair (within a match both compute k).
        let lifted_left = payload.key_left.compose(&Expr::input().field(0)).simplify();
        let lifted_right = payload
            .key_right
            .compose(&Expr::input().field(1))
            .simplify();
        let q = composed.factor_through(&[&lifted_left, &lifted_right])?;

        let left_pred = q.compose(&payload.key_left).simplify();
        let right_pred = q.compose(&payload.key_right).simplify();
        let left_closure: PredFn<A> = {
            let conv = payload.conv_left.clone();
            let e = left_pred.clone();
            Arc::new(move |a: &A| e.eval_bool(&conv(a)))
        };
        let right_closure: PredFn<B> = {
            let conv = payload.conv_right.clone();
            let e = right_pred.clone();
            Arc::new(move |b: &B| e.eval_bool(&conv(b)))
        };
        let left_id = ClosureId::expr(left_pred.canonical());
        let right_id = ClosureId::expr(right_pred.canonical());
        let left = self
            .left
            .rewrite_with_filter(&left_closure, &left_id, Some(&left_pred), ctx);
        let right =
            self.right
                .rewrite_with_filter(&right_closure, &right_id, Some(&right_pred), ctx);
        Some(self.cons_over(left, right, None, ctx))
    }

    fn describe(&self) -> &'static str {
        "Join"
    }

    fn detail(&self) -> String {
        match &self.exprs {
            Some(payload) => format!(
                "Join(key_left={}, key_right={}, result={})",
                payload.key_left, payload.key_right, payload.result
            ),
            None => "Join(<fn>)".to_string(),
        }
    }

    fn render_children(&self, ctx: &mut RenderCtx) {
        self.left.render_node(ctx);
        self.right.render_node(ctx);
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let payload = self.exprs.as_ref()?;
        let left = self.left.spec_node(ctx)?;
        let right = self.right.spec_node(ctx)?;
        Some(ctx.push(SpecNode::Join {
            left,
            right,
            key_left: payload.key_left.clone(),
            key_right: payload.key_right.clone(),
            result: payload.result.clone(),
        }))
    }
}

/// Which element-wise binary transformation a [`BinaryNode`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinaryKind {
    /// Element-wise maximum.
    Union,
    /// Element-wise minimum.
    Intersect,
    /// Element-wise addition.
    Concat,
    /// Element-wise subtraction.
    Except,
}

impl BinaryKind {
    fn op_tag(self) -> OpTag {
        match self {
            BinaryKind::Union => OpTag::Union,
            BinaryKind::Intersect => OpTag::Intersect,
            BinaryKind::Concat => OpTag::Concat,
            BinaryKind::Except => OpTag::Except,
        }
    }

    /// `op(X, X) = X` holds for the element-wise maximum and minimum (`max(w, w) =
    /// min(w, w) = w`, and the kernels never renormalise), so such nodes collapse onto
    /// their shared input — halving the privacy multiplicity charged through them.
    fn idempotent(self) -> bool {
        matches!(self, BinaryKind::Union | BinaryKind::Intersect)
    }
}

/// `Union` / `Intersect` / `Concat` / `Except` (Section 2.6).
pub(crate) struct BinaryNode<T: Record> {
    left: Plan<T>,
    right: Plan<T>,
    kind: BinaryKind,
}

impl<T: Record> BinaryNode<T> {
    pub(crate) fn new(left: Plan<T>, right: Plan<T>, kind: BinaryKind) -> Self {
        BinaryNode { left, right, kind }
    }

    /// Hash-conses a binary of this kind over rewritten inputs, applying the idempotent
    /// and `Except(X, X) → ∅` collapses first.
    fn cons_over(
        &self,
        left: Plan<T>,
        right: Plan<T>,
        original: Option<Plan<T>>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Plan<T> {
        if ctx.level().collapse() && self.kind.idempotent() && left.node_key() == right.node_key() {
            return left;
        }
        // Except(X, X) → ∅: element-wise `w − w = 0.0` exactly, and the kernel prunes
        // zero weights, so the unoptimized plan evaluates to the empty dataset bitwise.
        // Collapsing to the empty constant drops every source reference along both
        // branches — a measurement over the rewritten plan is charged 0·ε — which is
        // privacy-sound because the released function is the constant ∅, independent of
        // the data.
        if ctx.level().collapse()
            && self.kind == BinaryKind::Except
            && left.node_key() == right.node_key()
        {
            return cons_empty::<T>(ctx, None);
        }
        let (card_l, card_r) = (ctx.card_of(left.node_key()), ctx.card_of(right.node_key()));
        let card = match self.kind {
            BinaryKind::Intersect => card_l.min(card_r),
            BinaryKind::Except => card_l,
            BinaryKind::Union | BinaryKind::Concat => card_l + card_r,
        };
        let shape = NodeShape::new::<T>(
            self.kind.op_tag(),
            vec![left.node_key(), right.node_key()],
            Vec::new(),
            0,
        );
        let kind = self.kind;
        ctx.cons::<T>(shape, card, move || {
            original
                .unwrap_or_else(|| Plan::from_node(Arc::new(BinaryNode::new(left, right, kind))))
        })
    }
}

impl<T: Record> PlanNode<T> for BinaryNode<T> {
    fn eval_batch(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<T>> {
        let left = self.left.eval_node(ctx);
        let right = self.right.eval_node(ctx);
        Arc::new(match self.kind {
            BinaryKind::Union => batch::union(&left, &right),
            BinaryKind::Intersect => batch::intersect(&left, &right),
            BinaryKind::Concat => batch::concat(&left, &right),
            BinaryKind::Except => batch::except(&left, &right),
        })
    }

    fn eval_shards(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<T>> {
        let left = self.left.eval_shards_node(ctx);
        let right = self.right.eval_shards_node(ctx);
        let pool = ctx.pool();
        Arc::new(match self.kind {
            BinaryKind::Union => shard::union(&left, &right, pool),
            BinaryKind::Intersect => shard::intersect(&left, &right, pool),
            BinaryKind::Concat => shard::concat(&left, &right, pool),
            BinaryKind::Except => shard::except(&left, &right, pool),
        })
    }

    fn lower(&self, ctx: &mut LowerCtx<'_>) -> Stream<T> {
        let left = self.left.lower_node(ctx);
        let right = self.right.lower_node(ctx);
        match self.kind {
            BinaryKind::Union => left.union(&right),
            BinaryKind::Intersect => left.intersect(&right),
            BinaryKind::Concat => left.concat(&right),
            BinaryKind::Except => left.except(&right),
        }
    }

    fn multiplicities(&self, ctx: &mut MultCtx) -> BTreeMap<InputId, u32> {
        let left = self.left.mult_node(ctx);
        let right = self.right.mult_node(ctx);
        merge_mults((*left).clone(), &right)
    }

    fn count_refs(&self, ctx: &mut RefCounts) {
        self.left.count_refs_node(ctx);
        self.right.count_refs_node(ctx);
    }

    fn rewrite(&self, this: &Plan<T>, ctx: &mut RewriteCtx<'_>) -> Plan<T> {
        let left = self.left.rewrite_node(ctx);
        let right = self.right.rewrite_node(ctx);
        let unchanged =
            left.node_key() == self.left.node_key() && right.node_key() == self.right.node_key();
        let original = unchanged.then(|| this.clone());
        self.cons_over(left, right, original, ctx)
    }

    fn absorb_filter(
        &self,
        pred: &PredFn<T>,
        pred_id: &ClosureId,
        pred_expr: Option<&Expr>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Option<Plan<T>> {
        // All four set operations are element-wise on weights, so a filter above them
        // distributes into both inputs: per surviving record the kernel sees the exact
        // same weights, and filtered-out records are dropped either way. Only worth
        // doing when at least one branch keeps sinking the predicate — parked on both
        // branches it would run once per input record instead of once per (deduplicated)
        // output record, and the idempotent collapse fires in `rewrite` regardless.
        if !self.left.sinks_filters(ctx) && !self.right.sinks_filters(ctx) {
            return None;
        }
        let left = self.left.rewrite_with_filter(pred, pred_id, pred_expr, ctx);
        let right = self
            .right
            .rewrite_with_filter(pred, pred_id, pred_expr, ctx);
        Some(self.cons_over(left, right, None, ctx))
    }

    fn sinks_filters(&self, ctx: &RewriteCtx<'_>) -> bool {
        self.left.sinks_filters(ctx) || self.right.sinks_filters(ctx)
    }

    fn describe(&self) -> &'static str {
        match self.kind {
            BinaryKind::Union => "Union",
            BinaryKind::Intersect => "Intersect",
            BinaryKind::Concat => "Concat",
            BinaryKind::Except => "Except",
        }
    }

    fn render_children(&self, ctx: &mut RenderCtx) {
        self.left.render_node(ctx);
        self.right.render_node(ctx);
    }

    fn to_spec(&self, ctx: &mut SpecCtx) -> Option<u32> {
        let left = self.left.spec_node(ctx)?;
        let right = self.right.spec_node(ctx)?;
        Some(ctx.push(match self.kind {
            BinaryKind::Union => SpecNode::Union { left, right },
            BinaryKind::Intersect => SpecNode::Intersect { left, right },
            BinaryKind::Concat => SpecNode::Concat { left, right },
            BinaryKind::Except => SpecNode::Except { left, right },
        }))
    }
}

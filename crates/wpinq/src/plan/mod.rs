//! The wPINQ query-plan IR: one query definition, two execution engines.
//!
//! Historically this repository implemented the paper's operator algebra twice — once as
//! batch kernels over [`WeightedDataset`] and once as hand-wired incremental
//! [`Stream`] pipelines inside the MCMC engine — held consistent
//! only by property tests. This module replaces that duplication with a single typed IR:
//!
//! * [`Plan<T>`] — an immutable DAG of operator nodes (`Select`, `Where`, `SelectMany`,
//!   `GroupBy`, `Shave`, `Join`, `Union`, `Intersect`, `Concat`, `Except`) rooted at one or
//!   more [`Plan::source`] inputs, producing records of type `T`.
//! * A **batch evaluator** ([`Plan::eval`]): bind each source to a [`WeightedDataset`]
//!   through [`PlanBindings`] and fold the DAG through the batch kernels in
//!   [`wpinq_core::operators`]. *How* the fold runs is a pluggable [`Executor`]
//!   ([`Plan::eval_with`]): the [`SequentialExecutor`] single-threaded reference, or the
//!   [`ShardedExecutor`] which hash-partitions sources and evaluates shard-parallel with
//!   bitwise-identical results (see the [`Executor`] docs).
//! * An **incremental lowering** ([`Plan::lower`]): bind each source to a dataflow
//!   [`Stream`] through [`StreamBindings`] and compile the DAG into
//!   the `wpinq-dataflow` operator graph, so deltas pushed at the inputs propagate to the
//!   lowered output stream (and to any [`L1Scorer`](wpinq_dataflow::L1Scorer) sinks hung
//!   off it).
//! * **Privacy accounting from the IR** ([`Plan::multiplicities`]): the number of times a
//!   plan references each source — the `k` in PINQ's `k·ε` accounting rule — is computed
//!   structurally, so the [`Queryable`](crate::Queryable) front end, the analyses, and the
//!   MCMC scorers all charge budgets from the same definition they execute.
//! * [`Measurement<T>`] — a `NoisyCount` sink with its per-node `ε` annotation, evaluable
//!   as a batch [`NoisyCounts`](crate::NoisyCounts) release or lowerable as an incremental
//!   L1 scorer against an already-released measurement.
//!
//! Shared subplans are evaluated once and lowered once: nodes are memoised by identity, so
//! a plan that uses the same subquery twice (e.g. the length-two-path query intersected
//! with its own rotation) produces a shared dataflow node exactly like the former
//! hand-wired graphs did. Source *references*, by contrast, are counted once per use, which
//! is what makes a self-join cost `2ε` per measurement (Section 2.3 of the paper).
//!
//! ## Expression-built plans
//!
//! Operator payloads are ordinarily opaque Rust closures. Plans built through the
//! `*_expr` constructors ([`Plan::source_expr`], [`Plan::select_expr`],
//! [`Plan::filter_expr`], [`Plan::select_many_unit_expr`], [`Plan::group_by_expr`],
//! [`Plan::join_expr`]) instead carry their payloads as first-order
//! [`Expr`]essions — same evaluation, byte-identical releases — which makes them
//!
//! * **serializable**: [`Plan::to_spec`] emits the versioned `PlanSpec` wire format and
//!   [`plan_from_spec`] rebuilds an executable plan over dynamic
//!   [`Value`] records (the `wpinq-service` crate's
//!   measurement server is built on this);
//! * **readable**: [`Plan::render`] and [`Plan::explain`] pretty-print expression
//!   payloads (`Where((x.0 != x.2))`) where closures show an opaque `<fn>`;
//! * **more optimizable**: expression payloads have stable cross-process identities
//!   (CSE deduplicates equal plans regardless of where they were built) and license the
//!   key-preservation Where-into-`Join`/`SelectMany` pushdowns plus the
//!   `Except(X, X) → ∅` collapse onto the free [`Plan::empty`] constant.
//!
//! ```
//! use wpinq::plan::{Plan, PlanBindings};
//! use wpinq::WeightedDataset;
//!
//! // One definition…
//! let edges = Plan::<(u32, u32)>::source();
//! let degrees = edges.select(|e| e.0).shave_const(1.0).select(|(_, i)| *i);
//!
//! // …evaluated in batch:
//! let mut bindings = PlanBindings::new();
//! bindings.bind(&edges, WeightedDataset::from_records([(0u32, 1u32), (0, 2), (1, 2)]));
//! let ccdf = degrees.eval(&bindings);
//! assert_eq!(ccdf.weight(&0), 2.0); // two distinct sources: node 0 (twice) and node 1
//!
//! // …and the same definition lowers onto an incremental dataflow (see
//! // `StreamBindings`), which is how the MCMC scorers consume it.
//! assert_eq!(degrees.multiplicities().values().sum::<u32>(), 1);
//! ```

mod analyze;
mod bindings;
mod columnar;
mod executor;
mod measurement;
mod nodes;
mod optimize;
mod wire;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wpinq_core::dataset::WeightedDataset;
use wpinq_core::record::Record;
use wpinq_core::shard::{ShardedDataset, WorkerPool};
use wpinq_core::value::{ExprRecord, Value, ValueType};
use wpinq_dataflow::Stream;
use wpinq_expr::{Expr, PlanSpec, ReduceSpec};

pub use analyze::{AnalyzeReport, NodeStats, ResolveStats, KERNEL_ROWS_METRIC};
pub use bindings::{PlanBindings, StreamBindings};
pub use executor::{
    available_threads, default_executor, executor_for_threads, Executor, IncrementalEngine,
    SequentialExecutor, ShardedExecutor, MAX_SHARDS, THREADS_ENV,
};
pub use measurement::{Measurement, ReleaseTrace};
pub use optimize::{OptimizeLevel, PlanExplain, OPTIMIZE_ENV};
pub use wire::{dataset_to_values, plan_from_spec, DynPlan, DynSource};

use nodes::{
    BatchCtx, BinaryKind, BinaryNode, EmptyNode, FilterNode, GroupByNode, InputNode, JoinExprs,
    JoinNode, LowerCtx, MultCtx, PlanNode, PredFn, RenderCtx, SelectManyExprs, SelectManyNode,
    SelectNode, ShardCtx, ShaveNode,
};
use optimize::{ClosureId, RefCounts, RewriteCtx};
use wire::{decode_record, SpecCtx};

/// Identifies one source (input) of a plan.
///
/// Every [`Plan::source`] call mints a fresh id; bindings and privacy accounting are keyed
/// by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InputId(u64);

static NEXT_INPUT_ID: AtomicU64 = AtomicU64::new(0);

impl InputId {
    fn fresh() -> Self {
        InputId(NEXT_INPUT_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// A typed wPINQ query plan producing records of type `T`.
///
/// Plans are cheap to clone (shared-node DAG) and immutable; every operator method returns
/// a new plan referencing its parents. See the [module docs](self) for the big picture.
pub struct Plan<T: Record> {
    node: Arc<dyn PlanNode<T>>,
}

impl<T: Record> Clone for Plan<T> {
    fn clone(&self) -> Self {
        Plan {
            node: self.node.clone(),
        }
    }
}

impl<T: Record> std::fmt::Debug for Plan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Plan<{}>({})",
            std::any::type_name::<T>(),
            self.node.describe()
        )
    }
}

impl<T: Record> Plan<T> {
    fn from_node(node: Arc<dyn PlanNode<T>>) -> Self {
        Plan { node }
    }

    /// The identity key of the root node, used for evaluation memoisation.
    pub(crate) fn node_key(&self) -> usize {
        Arc::as_ptr(&self.node) as *const () as usize
    }

    // ---- sources ----------------------------------------------------------------------

    /// Creates a fresh source (input) plan. Bind it to a dataset with
    /// [`PlanBindings::bind`] before batch evaluation, or to a stream with
    /// [`StreamBindings::bind`] before lowering.
    pub fn source() -> Plan<T> {
        Plan::from_node(Arc::new(InputNode::new(InputId::fresh())))
    }

    /// The empty-dataset constant: evaluates to no records under any binding and has
    /// multiplicity 0 against every source, so measuring it is free. The optimizer's
    /// `Except(X, X) → ∅` rewrite produces this node.
    pub fn empty() -> Plan<T> {
        Plan::from_node(Arc::new(EmptyNode::new(None)))
    }

    /// The input id when this plan is a bare source, `None` otherwise.
    pub fn input_id(&self) -> Option<InputId> {
        self.node.as_input()
    }

    // ---- stable transformations -------------------------------------------------------

    /// Per-record transformation; weights of colliding outputs accumulate (Section 2.4).
    pub fn select<U, F>(&self, f: F) -> Plan<U>
    where
        U: Record,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        Plan::from_node(Arc::new(SelectNode::new(self.clone(), f)))
    }

    /// Per-record filtering (`Where`, Section 2.4).
    pub fn filter<P>(&self, predicate: P) -> Plan<T>
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        Plan::from_node(Arc::new(FilterNode::new(self.clone(), predicate)))
    }

    /// One-to-many transformation with data-dependent normalisation (Section 2.4).
    pub fn select_many<U, F>(&self, f: F) -> Plan<U>
    where
        U: Record,
        F: Fn(&T) -> WeightedDataset<U> + Send + Sync + 'static,
    {
        Plan::from_node(Arc::new(SelectManyNode::new(self.clone(), f)))
    }

    /// One-to-many transformation where each produced record carries unit weight.
    pub fn select_many_unit<U, I, F>(&self, f: F) -> Plan<U>
    where
        U: Record,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Send + Sync + 'static,
    {
        self.select_many(move |record| WeightedDataset::from_records(f(record)))
    }

    /// Groups records by key and reduces each group with the prefix-halving weight rule
    /// (Section 2.5).
    pub fn group_by<K, R, KF, RF>(&self, key: KF, reduce: RF) -> Plan<(K, R)>
    where
        K: Record,
        R: Record,
        KF: Fn(&T) -> K + Send + Sync + 'static,
        RF: Fn(&[T]) -> R + Send + Sync + 'static,
    {
        Plan::from_node(Arc::new(GroupByNode::new(self.clone(), key, reduce)))
    }

    /// Decomposes heavy records into indexed slices following a per-record weight schedule
    /// (Section 2.8).
    pub fn shave<F, I>(&self, schedule: F) -> Plan<(T, u64)>
    where
        F: Fn(&T) -> I + Send + Sync + 'static,
        I: IntoIterator<Item = f64>,
        I::IntoIter: 'static,
    {
        Plan::from_node(Arc::new(ShaveNode::new(self.clone(), move |record: &T| {
            Box::new(schedule(record).into_iter()) as Box<dyn Iterator<Item = f64>>
        })))
    }

    /// [`shave`](Self::shave) with a constant per-slice weight.
    ///
    /// Unlike a hand-written schedule closure, equal-step `shave_const` nodes are
    /// recognised as identical by the optimizer's common-subplan extraction no matter
    /// where they were built.
    ///
    /// # Panics
    /// Panics if `step` is not strictly positive and finite.
    pub fn shave_const(&self, step: f64) -> Plan<(T, u64)> {
        assert!(
            step > 0.0 && step.is_finite(),
            "shave step must be positive and finite, got {step}"
        );
        Plan::from_node(Arc::new(ShaveNode::with_const_id(
            self.clone(),
            move |_: &T| Box::new(std::iter::repeat(step)) as Box<dyn Iterator<Item = f64>>,
            step,
        )))
    }

    /// The weight-rescaling equi-join of Section 2.7. Source multiplicities of both inputs
    /// add, so a self-join doubles the privacy cost of its source.
    pub fn join<U, K, R, KA, KB, RF>(
        &self,
        other: &Plan<U>,
        key_self: KA,
        key_other: KB,
        result: RF,
    ) -> Plan<R>
    where
        U: Record,
        K: Record,
        R: Record,
        KA: Fn(&T) -> K + Send + Sync + 'static,
        KB: Fn(&U) -> K + Send + Sync + 'static,
        RF: Fn(&T, &U) -> R + Send + Sync + 'static,
    {
        Plan::from_node(Arc::new(JoinNode::new(
            self.clone(),
            other.clone(),
            key_self,
            key_other,
            result,
        )))
    }

    /// Element-wise maximum (Section 2.6).
    pub fn union(&self, other: &Plan<T>) -> Plan<T> {
        Plan::from_node(Arc::new(BinaryNode::new(
            self.clone(),
            other.clone(),
            BinaryKind::Union,
        )))
    }

    /// Element-wise minimum (Section 2.6).
    pub fn intersect(&self, other: &Plan<T>) -> Plan<T> {
        Plan::from_node(Arc::new(BinaryNode::new(
            self.clone(),
            other.clone(),
            BinaryKind::Intersect,
        )))
    }

    /// Element-wise addition (Section 2.6).
    pub fn concat(&self, other: &Plan<T>) -> Plan<T> {
        Plan::from_node(Arc::new(BinaryNode::new(
            self.clone(),
            other.clone(),
            BinaryKind::Concat,
        )))
    }

    /// Element-wise subtraction (Section 2.6).
    pub fn except(&self, other: &Plan<T>) -> Plan<T> {
        Plan::from_node(Arc::new(BinaryNode::new(
            self.clone(),
            other.clone(),
            BinaryKind::Except,
        )))
    }

    // ---- serialization and rendering --------------------------------------------------

    /// Serializes this plan into the [`PlanSpec`] wire format.
    ///
    /// Returns `None` when any reachable node carries a closure-only payload (plain
    /// `select`, `filter`, … calls): only plans built from expressions
    /// ([`source_expr`](Self::source_expr), [`select_expr`](Self::select_expr), …, plus
    /// the always-serializable `shave_const` and set operations) can cross a process
    /// boundary. Shared subplans serialize once, so the spec preserves the DAG.
    pub fn to_spec(&self) -> Option<PlanSpec> {
        let mut ctx = SpecCtx::new();
        let root = self.spec_node(&mut ctx)?;
        Some(ctx.finish(root))
    }

    pub(crate) fn spec_node(&self, ctx: &mut SpecCtx) -> Option<u32> {
        if let Some(hit) = ctx.lookup(self.node_key()) {
            return hit;
        }
        let result = self.node.to_spec(ctx);
        ctx.store(self.node_key(), result);
        result
    }

    /// Pretty-prints the plan tree. Expression-built payloads render as readable
    /// expressions (`Where((x.0 != x.2))`); closure-built payloads as `<fn>`. Shared
    /// subplans are labelled and rendered once.
    pub fn render(&self) -> String {
        let mut ctx = RenderCtx::new();
        self.render_node(&mut ctx);
        ctx.finish()
    }

    pub(crate) fn render_node(&self, ctx: &mut RenderCtx) {
        let node: &dyn PlanNode<T> = &*self.node;
        ctx.node(self.node_key(), &node);
    }

    // ---- sinks ------------------------------------------------------------------------

    /// Annotates this plan with a `NoisyCount(·, ε)` measurement sink.
    ///
    /// # Panics
    /// Panics if `epsilon` is not strictly positive and finite.
    pub fn noisy_count(&self, epsilon: f64) -> Measurement<T> {
        Measurement::new(self.clone(), epsilon)
    }

    // ---- evaluation -------------------------------------------------------------------

    /// Evaluates the plan in batch over the bound source datasets with the sequential
    /// reference executor. See [`eval_with`](Self::eval_with) to choose a strategy.
    ///
    /// The plan is first rewritten by the optimizer at the process-default
    /// [`OptimizeLevel`] (the `WPINQ_OPTIMIZE` environment variable); every level
    /// evaluates to bitwise-identical data. Shared subplans are computed once. The result
    /// is freshly computed on every call; callers that evaluate repeatedly should cache
    /// (as [`Queryable`](crate::Queryable) does).
    ///
    /// # Panics
    /// Panics if a source reached by the plan is unbound or bound at a different record
    /// type.
    pub fn eval(&self, bindings: &PlanBindings) -> WeightedDataset<T> {
        self.eval_with(bindings, &SequentialExecutor)
    }

    /// Evaluates the plan in batch under the given [`Executor`] strategy, after running
    /// the optimizer at the process-default [`OptimizeLevel`].
    ///
    /// Every executor and every optimize level produces **bitwise identical** results
    /// (the canonical accumulation order in `wpinq_core::accumulate` removes
    /// float-summation order from the semantics, and every rewrite preserves each
    /// record's contribution multiset), so the choices only affect wall-clock time and
    /// memory layout.
    pub fn eval_with(
        &self,
        bindings: &PlanBindings,
        executor: &dyn Executor,
    ) -> WeightedDataset<T> {
        self.eval_opt(bindings, executor, OptimizeLevel::from_env())
    }

    /// [`eval_with`](Self::eval_with) at an explicit [`OptimizeLevel`] (the A/B knob).
    pub fn eval_opt(
        &self,
        bindings: &PlanBindings,
        executor: &dyn Executor,
        level: OptimizeLevel,
    ) -> WeightedDataset<T> {
        let plan = self.optimize_for_bindings(level, bindings);
        let shards = executor.shard_count();
        if shards <= 1 {
            let shared = plan.eval_shared_raw(bindings);
            // The memo table is gone by now, so for any non-source root this is the only
            // reference and the dataset moves out without a copy.
            return Arc::try_unwrap(shared).unwrap_or_else(|rc| (*rc).clone());
        }
        let mut ctx = ShardCtx::new(bindings, shards, shard_pool(executor));
        let sharded = plan.eval_shards_node(&mut ctx);
        drop(ctx);
        Arc::try_unwrap(sharded)
            .map(ShardedDataset::into_merged)
            .unwrap_or_else(|rc| rc.merged())
    }

    /// [`eval`](Self::eval) returning a shared handle, for callers that keep the result
    /// alongside the bindings (avoids copying the dataset of source-rooted plans).
    pub fn eval_shared(&self, bindings: &PlanBindings) -> Arc<WeightedDataset<T>> {
        self.eval_shared_opt(bindings, &SequentialExecutor, OptimizeLevel::from_env())
    }

    /// [`eval_with`](Self::eval_with) returning a shared handle.
    pub fn eval_shared_with(
        &self,
        bindings: &PlanBindings,
        executor: &dyn Executor,
    ) -> Arc<WeightedDataset<T>> {
        self.eval_shared_opt(bindings, executor, OptimizeLevel::from_env())
    }

    /// [`eval_opt`](Self::eval_opt) returning a shared handle.
    pub fn eval_shared_opt(
        &self,
        bindings: &PlanBindings,
        executor: &dyn Executor,
        level: OptimizeLevel,
    ) -> Arc<WeightedDataset<T>> {
        if executor.shard_count() <= 1 {
            return self
                .optimize_for_bindings(level, bindings)
                .eval_shared_raw(bindings);
        }
        Arc::new(self.eval_opt(bindings, executor, level))
    }

    /// The un-optimized sequential fold (internal: callers go through the `*_opt`
    /// surface, which rewrites first).
    fn eval_shared_raw(&self, bindings: &PlanBindings) -> Arc<WeightedDataset<T>> {
        let mut ctx = BatchCtx::new(bindings);
        self.eval_node(&mut ctx)
    }

    /// EXPLAIN ANALYZE: evaluates the plan with the sequential reference executor and
    /// returns per-operator wall times, output cardinalities, the kernel (columnar vs
    /// row) each expression operator chose, and the worker-pool dispatch delta
    /// over the evaluation. The evaluated data is discarded; callers that need
    /// both go through [`Measurement::release_traced`](measurement::Measurement).
    pub fn explain_analyze(&self, bindings: &PlanBindings) -> AnalyzeReport {
        self.explain_analyze_with(bindings, &SequentialExecutor)
    }

    /// [`explain_analyze`](Self::explain_analyze) under an explicit [`Executor`].
    pub fn explain_analyze_with(
        &self,
        bindings: &PlanBindings,
        executor: &dyn Executor,
    ) -> AnalyzeReport {
        self.eval_analyzed(bindings, executor, OptimizeLevel::from_env())
            .1
    }

    /// The instrumented twin of [`eval_shared_opt`](Self::eval_shared_opt): one
    /// evaluation pass producing both the dataset and its [`AnalyzeReport`]. The data
    /// path is the same code as the uninstrumented evaluation (the collector only hooks
    /// the memoising node wrappers), so the returned dataset is bitwise identical to
    /// what `eval_shared_opt` returns.
    pub(crate) fn eval_analyzed(
        &self,
        bindings: &PlanBindings,
        executor: &dyn Executor,
        level: OptimizeLevel,
    ) -> (Arc<WeightedDataset<T>>, AnalyzeReport) {
        use std::time::Instant;
        let started = Instant::now();
        let baseline = analyze::CounterBaseline::take();
        let plan = self.optimize_for_bindings(level, bindings);
        let shards = executor.shard_count();
        let (result, nodes) = if shards <= 1 {
            let mut ctx = BatchCtx::with_analyze(bindings);
            let out = plan.eval_node(&mut ctx);
            let nodes = ctx.analyze.take().expect("analyze collector present");
            (out, nodes.finish())
        } else {
            let mut ctx = ShardCtx::with_analyze(bindings, shards, shard_pool(executor));
            let sharded = plan.eval_shards_node(&mut ctx);
            let nodes = ctx.analyze.take().expect("analyze collector present");
            drop(ctx);
            let merged = Arc::try_unwrap(sharded)
                .map(ShardedDataset::into_merged)
                .unwrap_or_else(|rc| rc.merged());
            (Arc::new(merged), nodes.finish())
        };
        let (pool_dispatches, resolved) = baseline.deltas();
        let report = AnalyzeReport {
            executor: if shards <= 1 {
                "sequential".to_string()
            } else {
                format!("sharded({shards})")
            },
            nodes,
            total_us: started.elapsed().as_micros() as u64,
            pool_dispatches,
            resolved,
        };
        (result, report)
    }

    pub(crate) fn eval_node(&self, ctx: &mut BatchCtx<'_>) -> Arc<WeightedDataset<T>> {
        if let Some(hit) = ctx.lookup::<T>(self.node_key()) {
            if let Some(collector) = ctx.analyze.as_mut() {
                collector.memo_hit(self.node.describe(), self.node.detail(), hit.len() as u64);
            }
            return hit;
        }
        let frame = ctx
            .analyze
            .as_mut()
            .map(|c| c.enter(self.node.describe(), self.node.detail()));
        let computed = self.node.eval_batch(ctx);
        if let Some(frame) = frame {
            if let Some(collector) = ctx.analyze.as_mut() {
                collector.exit(frame, computed.len() as u64);
            }
        }
        ctx.store::<T>(self.node_key(), computed.clone());
        computed
    }

    pub(crate) fn eval_shards_node(&self, ctx: &mut ShardCtx<'_>) -> Arc<ShardedDataset<T>> {
        if let Some(hit) = ctx.lookup::<T>(self.node_key()) {
            if let Some(collector) = ctx.analyze.as_mut() {
                collector.memo_hit(self.node.describe(), self.node.detail(), hit.len() as u64);
            }
            return hit;
        }
        let frame = ctx
            .analyze
            .as_mut()
            .map(|c| c.enter(self.node.describe(), self.node.detail()));
        let computed = self.node.eval_shards(ctx);
        if let Some(frame) = frame {
            if let Some(collector) = ctx.analyze.as_mut() {
                collector.exit(frame, computed.len() as u64);
            }
        }
        ctx.store::<T>(self.node_key(), computed.clone());
        computed
    }

    /// Compiles the plan into the incremental dataflow graph rooted at the bound source
    /// streams, returning the output stream.
    ///
    /// The optimizer runs first (process-default [`OptimizeLevel`]): structurally equal
    /// subplans hash-cons onto one node, so they lower to one shared dataflow node even
    /// when built separately. Deltas subsequently pushed into the source streams
    /// propagate through the compiled operators to the returned stream.
    ///
    /// # Panics
    /// Panics if a source reached by the plan is unbound or bound at a different record
    /// type.
    pub fn lower(&self, bindings: &StreamBindings) -> Stream<T> {
        self.lower_opt(bindings, OptimizeLevel::from_env())
    }

    /// [`lower`](Self::lower) at an explicit [`OptimizeLevel`] (the A/B knob). Join input
    /// ordering never applies here — cardinalities are a batch-bindings notion.
    pub fn lower_opt(&self, bindings: &StreamBindings, level: OptimizeLevel) -> Stream<T> {
        let plan = optimize::rewrite_plan(self, level, None);
        let mut ctx = LowerCtx::new(bindings);
        plan.lower_node(&mut ctx)
    }

    pub(crate) fn lower_node(&self, ctx: &mut LowerCtx<'_>) -> Stream<T> {
        if let Some(hit) = ctx.lookup::<T>(self.node_key()) {
            return hit;
        }
        let lowered = self.node.lower(ctx);
        ctx.store::<T>(self.node_key(), lowered.clone());
        lowered
    }

    // ---- optimizer --------------------------------------------------------------------

    /// Rewrites the plan at the process-default [`OptimizeLevel`] (the `WPINQ_OPTIMIZE`
    /// environment variable). See [`OptimizeLevel`] for the rewrite catalogue; every
    /// rewrite preserves evaluated data bitwise.
    pub fn optimize(&self) -> Plan<T> {
        self.optimize_at(OptimizeLevel::from_env())
    }

    /// Rewrites the plan at an explicit [`OptimizeLevel`].
    pub fn optimize_at(&self, level: OptimizeLevel) -> Plan<T> {
        optimize::rewrite_plan(self, level, None)
    }

    /// Rewrites the plan for batch evaluation over `bindings`: like
    /// [`optimize_at`](Self::optimize_at), plus join input ordering from the bound source
    /// cardinalities (which never changes multiplicities). Callers that go on to
    /// evaluate the returned plan should do so at [`OptimizeLevel::None`] — it is
    /// already fully rewritten (this is what the measurement service does to pay for
    /// the optimizer pass exactly once per request).
    pub fn optimize_for_bindings(&self, level: OptimizeLevel, bindings: &PlanBindings) -> Plan<T> {
        optimize::rewrite_plan(self, level, Some(bindings.source_sizes()))
    }

    /// The optimizer's debug report at the process-default [`OptimizeLevel`]: node counts
    /// and per-source multiplicities before and after rewriting. A strictly lower "after"
    /// multiplicity means a measurement over this plan charges strictly less ε for the
    /// same released bits.
    pub fn explain(&self) -> PlanExplain {
        self.explain_at(OptimizeLevel::from_env())
    }

    /// [`explain`](Self::explain) at an explicit [`OptimizeLevel`].
    pub fn explain_at(&self, level: OptimizeLevel) -> PlanExplain {
        let optimized = self.optimize_at(level);
        PlanExplain {
            level,
            nodes_before: self.node_count(),
            nodes_after: optimized.node_count(),
            before: self.multiplicities(),
            after: optimized.multiplicities(),
            tree: optimized.render(),
        }
    }

    /// The number of distinct nodes in the plan DAG (shared subplans count once).
    pub fn node_count(&self) -> usize {
        let mut refs = RefCounts::new();
        self.count_refs_node(&mut refs);
        refs.distinct()
    }

    pub(crate) fn count_refs_node(&self, ctx: &mut RefCounts) {
        if ctx.reference(self.node_key()) {
            self.node.count_refs(ctx);
        }
    }

    pub(crate) fn rewrite_node(&self, ctx: &mut RewriteCtx<'_>) -> Plan<T> {
        if let Some(hit) = ctx.memo_lookup::<T>(self.node_key()) {
            return hit;
        }
        let rewritten = self.node.rewrite(self, ctx);
        ctx.memo_store::<T>(self.node_key(), rewritten.clone());
        rewritten
    }

    /// Rewrites this plan with a `Where(pred)` arriving from directly above it, sinking
    /// the predicate as deep as the bitwise-preservation rules allow. Pushdown stops at
    /// nodes with more than one consumer (it would duplicate their work) and at operators
    /// that renormalise.
    pub(crate) fn rewrite_with_filter(
        &self,
        pred: &PredFn<T>,
        pred_id: &ClosureId,
        pred_expr: Option<&Expr>,
        ctx: &mut RewriteCtx<'_>,
    ) -> Plan<T> {
        if ctx.level().pushdown() && ctx.consumers(self.node_key()) <= 1 {
            if let Some(pushed) = self.node.absorb_filter(pred, pred_id, pred_expr, ctx) {
                return pushed;
            }
        }
        let parent = self.rewrite_node(ctx);
        nodes::cons_filter(
            ctx,
            parent,
            pred.clone(),
            pred_id.clone(),
            pred_expr.cloned(),
        )
    }

    /// Whether a filter pushed at this plan would actually sink somewhere useful (see
    /// `PlanNode::sinks_filters`); shared nodes never sink (pushdown would duplicate
    /// their work for the other consumers).
    pub(crate) fn sinks_filters(&self, ctx: &RewriteCtx<'_>) -> bool {
        ctx.consumers(self.node_key()) <= 1 && self.node.sinks_filters(ctx)
    }

    /// How many times this plan references each source — the `k` of the `k·ε` accounting
    /// rule. Shared subplans are *not* deduplicated: every reference along every path
    /// counts, so a self-join contributes 2.
    pub fn multiplicities(&self) -> BTreeMap<InputId, u32> {
        let mut ctx = MultCtx::new();
        (*self.mult_node(&mut ctx)).clone()
    }

    /// The multiplicity of one source (0 when the plan never touches it).
    pub fn multiplicity_of(&self, id: InputId) -> u32 {
        self.multiplicities().get(&id).copied().unwrap_or(0)
    }

    pub(crate) fn mult_node(&self, ctx: &mut MultCtx) -> Arc<BTreeMap<InputId, u32>> {
        if let Some(hit) = ctx.lookup(self.node_key()) {
            return hit;
        }
        let computed = Arc::new(self.node.multiplicities(ctx));
        ctx.store(self.node_key(), computed.clone());
        computed
    }
}

/// The worker pool a multi-shard evaluation dispatches on.
fn shard_pool(executor: &dyn Executor) -> &WorkerPool {
    executor
        .pool()
        .expect("an executor with more than one shard owns a worker pool")
}

/// Expression-built plan construction, available for record types the expression
/// language can represent (`ExprRecord`: integers, `bool`, `()`, and nested tuples).
///
/// These constructors mirror the closure-based operators but take [`Expr`] payloads:
/// the built nodes evaluate identically (the closure interprets the expression over the
/// record's [`Value`] form, releasing byte-identical measurements), while additionally
/// being **serializable** ([`Plan::to_spec`]), **pretty-printable** ([`Plan::render`]),
/// and **analysable** — carrying stable expression-derived closure identities, so the
/// optimizer deduplicates structurally equal plans across call sites *and processes*,
/// detects join-key equivalence, and runs the key-preservation filter pushdowns through
/// `Join`/`SelectMany`.
///
/// Every constructor type-checks its expressions against the typed signature eagerly
/// and panics on mismatch — the same failure mode as binding a plan source at the wrong
/// type, caught at plan-construction time instead of evaluation time.
impl<T: ExprRecord> Plan<T> {
    fn conv() -> nodes::ToValueFn<T> {
        Arc::new(|t: &T| t.to_value())
    }

    fn check(context: &str, expr: &Expr, input: &ValueType, expected: &ValueType) {
        let inferred = expr
            .infer(input)
            .unwrap_or_else(|e| panic!("{context}: ill-typed expression {expr}: {e}"));
        assert!(
            inferred == *expected,
            "{context}: expression {expr} has type {inferred}, expected {expected}"
        );
    }

    /// A fresh **named** source: like [`Plan::source`], but carrying the stable name and
    /// declared record type that identify it in the [`PlanSpec`] wire format (a
    /// measurement service binds its protected dataset of this name).
    pub fn source_expr(name: &str) -> Plan<T> {
        Plan::from_node(Arc::new(InputNode::named(
            InputId::fresh(),
            name,
            T::value_type(),
        )))
    }

    /// The empty constant with its record type attached (serializable, unlike
    /// [`Plan::empty`]).
    pub fn empty_expr() -> Plan<T> {
        Plan::from_node(Arc::new(EmptyNode::new(Some(T::value_type()))))
    }

    /// Expression-built [`select`](Plan::select): per-record transformation by `expr`.
    pub fn select_expr<U: ExprRecord>(&self, expr: Expr) -> Plan<U> {
        Self::check("select_expr", &expr, &T::value_type(), &U::value_type());
        let conv = Self::conv();
        let f = {
            let expr = expr.clone();
            Arc::new(move |t: &T| decode_record::<U>(expr.eval(&conv(t))))
        };
        Plan::from_node(Arc::new(SelectNode::from_expr(self.clone(), f, expr)))
    }

    /// Expression-built [`filter`](Plan::filter): `expr` must be a boolean predicate.
    pub fn filter_expr(&self, expr: Expr) -> Plan<T> {
        Self::check("filter_expr", &expr, &T::value_type(), &ValueType::Bool);
        let conv = Self::conv();
        let predicate = {
            let expr = expr.clone();
            Arc::new(move |t: &T| expr.eval_bool(&conv(t)))
        };
        Plan::from_node(Arc::new(FilterNode::from_expr(
            self.clone(),
            predicate,
            expr,
        )))
    }

    /// Expression-built [`select_many_unit`](Plan::select_many_unit): each expression
    /// produces one unit-weight record per input record.
    pub fn select_many_unit_expr<U: ExprRecord>(&self, exprs: Vec<Expr>) -> Plan<U> {
        assert!(
            !exprs.is_empty(),
            "select_many_unit_expr needs at least one production"
        );
        for expr in &exprs {
            Self::check(
                "select_many_unit_expr",
                expr,
                &T::value_type(),
                &U::value_type(),
            );
        }
        let conv = Self::conv();
        let produce = {
            let exprs = exprs.clone();
            let conv = conv.clone();
            Arc::new(move |t: &T| {
                let value = conv(t);
                WeightedDataset::from_records(
                    exprs.iter().map(|e| decode_record::<U>(e.eval(&value))),
                )
            })
        };
        let payload = SelectManyExprs {
            exprs: Arc::new(exprs),
            conv,
        };
        Plan::from_node(Arc::new(SelectManyNode::from_exprs(
            self.clone(),
            produce,
            payload,
        )))
    }

    /// Expression-built [`group_by`](Plan::group_by): an expression key and a
    /// [`ReduceSpec`] reducer.
    pub fn group_by_expr<K: ExprRecord, R: ExprRecord>(
        &self,
        key: Expr,
        reduce: ReduceSpec,
    ) -> Plan<(K, R)> {
        Self::check(
            "group_by_expr key",
            &key,
            &T::value_type(),
            &K::value_type(),
        );
        let reduce_ty = reduce
            .infer()
            .unwrap_or_else(|e| panic!("group_by_expr reducer: {e}"));
        assert!(
            reduce_ty == R::value_type(),
            "group_by_expr: reducer has type {reduce_ty}, expected {}",
            R::value_type()
        );
        let conv = Self::conv();
        let key_fn = {
            let key = key.clone();
            Arc::new(move |t: &T| decode_record::<K>(key.eval(&conv(t))))
        };
        let reduce_fn = {
            let reduce = reduce.clone();
            Arc::new(move |group: &[T]| decode_record::<R>(reduce.eval_count(group.len() as u64)))
        };
        Plan::from_node(Arc::new(GroupByNode::from_expr(
            self.clone(),
            key_fn,
            reduce_fn,
            key,
            reduce,
        )))
    }

    /// Expression-built [`join`](Plan::join): expression keys over each input and an
    /// expression result selector over the matched pair `(self_record, other_record)`.
    pub fn join_expr<U, K, R>(
        &self,
        other: &Plan<U>,
        key_self: Expr,
        key_other: Expr,
        result: Expr,
    ) -> Plan<R>
    where
        U: ExprRecord,
        K: ExprRecord,
        R: ExprRecord,
    {
        Self::check(
            "join_expr left key",
            &key_self,
            &T::value_type(),
            &K::value_type(),
        );
        Self::check(
            "join_expr right key",
            &key_other,
            &U::value_type(),
            &K::value_type(),
        );
        let pair_ty = ValueType::Tuple(vec![T::value_type(), U::value_type()]);
        Self::check("join_expr result", &result, &pair_ty, &R::value_type());
        let conv_left = Self::conv();
        let conv_right: nodes::ToValueFn<U> = Arc::new(|u: &U| u.to_value());
        let key_left_fn = {
            let e = key_self.clone();
            let conv = conv_left.clone();
            Arc::new(move |t: &T| decode_record::<K>(e.eval(&conv(t))))
        };
        let key_right_fn = {
            let e = key_other.clone();
            let conv = conv_right.clone();
            Arc::new(move |u: &U| decode_record::<K>(e.eval(&conv(u))))
        };
        let result_fn = {
            let e = result.clone();
            let conv_left = conv_left.clone();
            let conv_right = conv_right.clone();
            Arc::new(move |t: &T, u: &U| {
                decode_record::<R>(e.eval(&Value::Tuple(vec![conv_left(t), conv_right(u)])))
            })
        };
        let payload = JoinExprs {
            key_left: key_self,
            key_right: key_other,
            result,
            conv_left,
            conv_right,
        };
        Plan::from_node(Arc::new(JoinNode::from_expr(
            self.clone(),
            other.clone(),
            key_left_fn,
            key_right_fn,
            result_fn,
            payload,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use wpinq_core::operators as batch;
    use wpinq_dataflow::DataflowInput;

    fn edge_data() -> WeightedDataset<(u32, u32)> {
        WeightedDataset::from_records([
            (1u32, 2u32),
            (2, 1),
            (2, 3),
            (3, 2),
            (1, 3),
            (3, 1),
            (3, 4),
            (4, 3),
        ])
    }

    /// The paper's length-two-paths query as a plan over a symmetric edge source.
    fn paths_plan(edges: &Plan<(u32, u32)>) -> Plan<(u32, u32, u32)> {
        edges
            .join(edges, |e| e.1, |e| e.0, |x, y| (x.0, x.1, y.1))
            .filter(|p| p.0 != p.2)
    }

    #[test]
    fn batch_evaluation_matches_direct_operator_calls() {
        let edges = Plan::<(u32, u32)>::source();
        let plan = paths_plan(&edges);
        let mut bindings = PlanBindings::new();
        bindings.bind(&edges, edge_data());
        let via_plan = plan.eval(&bindings);
        let direct = batch::filter(
            &batch::join(
                &edge_data(),
                &edge_data(),
                |e| e.1,
                |e| e.0,
                |x, y| (x.0, x.1, y.1),
            ),
            |p| p.0 != p.2,
        );
        assert!(via_plan.approx_eq(&direct, 1e-12));
    }

    #[test]
    fn lowering_matches_batch_after_loading_the_dataset() {
        let edges = Plan::<(u32, u32)>::source();
        let paths = paths_plan(&edges);
        let tbi = paths.select(|p| (p.1, p.2, p.0)).intersect(&paths);

        let (input, stream) = DataflowInput::new();
        let mut streams = StreamBindings::new();
        streams.bind(&edges, stream);
        let out = tbi.lower(&streams).collect();
        input.push_dataset(&edge_data());

        let mut data = PlanBindings::new();
        data.bind(&edges, edge_data());
        assert!(out.snapshot().approx_eq(&tbi.eval(&data), 1e-9));
    }

    #[test]
    fn sharded_execution_is_bitwise_identical_to_sequential() {
        let edges = Plan::<(u32, u32)>::source();
        let paths = paths_plan(&edges);
        let tbi = paths.select(|p| (p.1, p.2, p.0)).intersect(&paths);
        let mut bindings = PlanBindings::new();
        bindings.bind(&edges, edge_data());
        let sequential = tbi.eval_with(&bindings, &SequentialExecutor);
        for shards in [1usize, 2, 3, 8] {
            let sharded = tbi.eval_with(&bindings, &ShardedExecutor::new(shards));
            assert_eq!(sharded.len(), sequential.len());
            for (record, weight) in sequential.iter() {
                assert_eq!(
                    weight.to_bits(),
                    sharded.weight(record).to_bits(),
                    "{shards}-shard weight of {record:?} differs from sequential"
                );
            }
        }
    }

    #[test]
    fn multiplicities_count_every_source_reference() {
        let edges = Plan::<(u32, u32)>::source();
        let id = edges.input_id().unwrap();
        let paths = paths_plan(&edges);
        assert_eq!(paths.multiplicity_of(id), 2);
        // TbI: paths intersected with their own rotation → 4 references.
        let tbi = paths.select(|p| (p.1, p.2, p.0)).intersect(&paths);
        assert_eq!(tbi.multiplicity_of(id), 4);
        // Unary chains keep multiplicity.
        let chain = edges.select(|e| e.0).shave_const(1.0).select(|(_, i)| *i);
        assert_eq!(chain.multiplicity_of(id), 1);
        // Unrelated sources do not appear.
        let other = Plan::<(u32, u32)>::source();
        assert_eq!(paths.multiplicity_of(other.input_id().unwrap()), 0);
    }

    #[test]
    fn two_source_plans_track_both_inputs() {
        let left = Plan::<u32>::source();
        let right = Plan::<u32>::source();
        let joined = left.join(&right, |x| *x % 2, |y| *y % 2, |x, y| (*x, *y));
        let mults = joined.multiplicities();
        assert_eq!(mults.len(), 2);
        assert!(mults.values().all(|m| *m == 1));

        let mut bindings = PlanBindings::new();
        bindings.bind(&left, WeightedDataset::from_records([1u32, 2, 3]));
        bindings.bind(&right, WeightedDataset::from_records([4u32, 5]));
        let out = joined.eval(&bindings);
        assert!(out.contains(&(2, 4)));
        assert!(out.contains(&(1, 5)));
        assert!(!out.contains(&(1, 4)));
    }

    #[test]
    fn shared_subplans_lower_to_a_shared_dataflow_node() {
        // If the shared `paths` subplan were lowered twice, each delta would reach the
        // intersect sink through two copies of the join and double-count. Equality with the
        // batch result (checked in `lowering_matches_batch_after_loading_the_dataset`)
        // rules that out; here we additionally check the memoisation is exercised.
        let edges = Plan::<(u32, u32)>::source();
        let paths = paths_plan(&edges);
        let rotated = paths.select(|p| (p.1, p.2, p.0));
        assert_eq!(paths.node_key(), paths.clone().node_key());
        assert_ne!(paths.node_key(), rotated.node_key());
    }

    #[test]
    fn select_many_and_group_by_round_trip_through_both_engines() {
        let source = Plan::<u32>::source();
        let plan = source
            .select_many_unit(|x| (0..(*x % 4)).collect::<Vec<_>>())
            .group_by(|x| x % 2, |g| g.len() as u64);

        let data: WeightedDataset<u32> = WeightedDataset::from_records([3u32, 5, 6, 9]);
        let mut bindings = PlanBindings::new();
        bindings.bind(&source, data.clone());
        let batch_out = plan.eval(&bindings);

        let (input, stream) = DataflowInput::new();
        let mut streams = StreamBindings::new();
        streams.bind(&source, stream);
        let collected = plan.lower(&streams).collect();
        for (r, w) in data.iter() {
            input.push(&[(*r, w)]);
        }
        assert!(collected.snapshot().approx_eq(&batch_out, 1e-9));
    }

    #[test]
    fn scorer_lowering_tracks_measurement_distance() {
        let source = Plan::<u32>::source();
        let plan = source.select(|x| x % 2);
        let (input, stream) = DataflowInput::new();
        let mut streams = StreamBindings::new();
        streams.bind(&source, stream);
        let scorer = plan
            .lower(&streams)
            .l1_scorer(HashMap::from([(0u32, 2.0), (1, 1.0)]));
        assert!((scorer.distance() - 3.0).abs() < 1e-12);
        input.push(&[(4, 1.0), (6, 1.0), (3, 1.0)]);
        assert!(scorer.distance().abs() < 1e-12);
    }

    #[test]
    fn empty_plans_cost_nothing_under_both_engines() {
        let edges = Plan::<(u32, u32)>::source();
        let plan = edges.select(|e| e.0).concat(&Plan::empty());
        assert_eq!(plan.multiplicity_of(edges.input_id().unwrap()), 1);

        let mut bindings = PlanBindings::new();
        bindings.bind(&edges, edge_data());
        let batch = plan.eval(&bindings);
        assert_eq!(batch.len(), 4);

        // The empty constant lowers to a delta-less stream; the rest flows normally.
        let (input, stream) = DataflowInput::new();
        let mut streams = StreamBindings::new();
        streams.bind(&edges, stream);
        let collected = plan.lower(&streams).collect();
        input.push_dataset(&edge_data());
        assert!(collected.snapshot().approx_eq(&batch, 1e-9));

        // A bare empty plan evaluates (and lowers) to nothing at all.
        let bare = Plan::<u32>::empty();
        assert!(bare.eval(&PlanBindings::new()).is_empty());
        assert!(bare.multiplicities().is_empty());
        assert!(bare
            .lower(&StreamBindings::new())
            .collect()
            .snapshot()
            .is_empty());
    }

    #[test]
    fn expression_plans_render_and_serialize() {
        use wpinq_core::value::ExprRecord;

        let edges = Plan::<(u32, u32)>::source_expr("edges");
        let paths = edges.join_expr::<(u32, u32), u32, (u32, u32, u32)>(
            &edges,
            Expr::input().field(1),
            Expr::input().field(0),
            Expr::tuple(vec![
                Expr::input().field(0).field(0),
                Expr::input().field(0).field(1),
                Expr::input().field(1).field(1),
            ]),
        );
        let filtered = paths.filter_expr(Expr::input().field(0).ne(Expr::input().field(2)));

        let tree = filtered.render();
        assert!(tree.contains("Where((x.0 != x.2))"), "{tree}");
        assert!(tree.contains("Source(\"edges\""), "{tree}");
        assert!(tree.contains("shared, rendered above"), "{tree}");

        // Round trip: spec → bytes → spec → dynamic plan, equal data.
        let spec = filtered.to_spec().expect("expr plan serializes");
        let spec2 = PlanSpec::from_json(&spec.to_json_string()).unwrap();
        let rebuilt = plan_from_spec(&spec2).unwrap();
        let mut typed = PlanBindings::new();
        typed.bind(&edges, edge_data());
        let mut dynamic = PlanBindings::new();
        dynamic.bind(&rebuilt.sources[0].plan, dataset_to_values(&edge_data()));
        let a = filtered.eval(&typed);
        let b = rebuilt.plan.eval(&dynamic);
        assert_eq!(a.len(), b.len());
        for (record, weight) in a.iter() {
            assert_eq!(weight.to_bits(), b.weight(&record.to_value()).to_bits());
        }

        // Closure plans refuse to serialize.
        assert!(filtered.filter(|p| p.1 > 0).to_spec().is_none());
    }

    #[test]
    #[should_panic(expected = "has type u64, expected bool")]
    fn ill_typed_expressions_are_rejected_at_construction() {
        let source = Plan::<(u32, u32)>::source_expr("edges");
        let _ = source.filter_expr(Expr::input().field(0)); // not a boolean
    }

    #[test]
    #[should_panic(expected = "unbound plan source")]
    fn evaluating_with_missing_binding_panics() {
        let source = Plan::<u32>::source();
        let plan = source.select(|x| *x);
        plan.eval(&PlanBindings::new());
    }
}

//! [`Queryable`]: the privacy-accounted front end over the query-plan IR.
//!
//! A `Queryable<T>` is the wPINQ analogue of PINQ's `PINQueryable`. Since the plan-IR
//! refactor it is a thin, budget-aware wrapper around a [`Plan<T>`](crate::plan::Plan):
//! every operator method extends the plan; the source datasets stay bound in a
//! [`PlanBindings`]; and the *multiplicity* of each protected source — the `k` in the
//! static accounting rule of Section 2.3 ("if dataset A is used k times in a query with an
//! ε-differentially-private aggregation, the result is kε-DP for A") — is derived
//! structurally from the IR instead of being threaded through every operator by hand.
//!
//! Evaluation is lazy: nothing is materialised until a measurement (or
//! [`inspect`](Queryable::inspect)) forces it, and the result is cached, so building a
//! deep query costs nothing and measuring it evaluates each shared subplan exactly once.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;

use crate::aggregation::NoisyCounts;
use crate::budget::BudgetHandle;
use crate::dataset::WeightedDataset;
use crate::error::WpinqError;
use crate::plan::{
    default_executor, Executor, InputId, OptimizeLevel, Plan, PlanBindings, PlanExplain,
};
use crate::protected::SourceId;
use crate::record::Record;
use crate::value::ExprRecord;
use wpinq_expr::{Expr, ReduceSpec};

/// One protected source feeding the query plan.
#[derive(Debug, Clone)]
struct SourceBinding {
    input: InputId,
    source: SourceId,
    budget: BudgetHandle,
}

/// A transformed view of one or more protected datasets, ready for further transformation
/// or differentially-private measurement.
///
/// Evaluation strategy is a property of the queryable, not of the query: the executor
/// handle (defaulting to [`default_executor`], i.e. the `WPINQ_THREADS` environment
/// variable) is threaded through every derived queryable, and every strategy produces
/// bitwise-identical data — so budgets, measurements and released values are entirely
/// executor-agnostic.
#[derive(Clone)]
pub struct Queryable<T: Record> {
    plan: Plan<T>,
    bindings: PlanBindings,
    sources: Vec<SourceBinding>,
    executor: Arc<dyn Executor>,
    optimize: OptimizeLevel,
    optimized: OnceCell<Plan<T>>,
    materialized: OnceCell<Arc<WeightedDataset<T>>>,
}

impl<T: Record> std::fmt::Debug for Queryable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Queryable({:?}, {} protected sources)",
            self.plan,
            self.sources.len()
        )
    }
}

impl<T: Record> Queryable<T> {
    pub(crate) fn from_source(
        data: WeightedDataset<T>,
        id: SourceId,
        budget: BudgetHandle,
    ) -> Self {
        let plan = Plan::<T>::source();
        let mut bindings = PlanBindings::new();
        bindings.bind(&plan, data);
        let input = plan.input_id().expect("Plan::source is a source");
        Queryable {
            plan,
            bindings,
            sources: vec![SourceBinding {
                input,
                source: id,
                budget,
            }],
            executor: default_executor(),
            optimize: OptimizeLevel::from_env(),
            optimized: OnceCell::new(),
            materialized: OnceCell::new(),
        }
    }

    /// Creates a queryable over public (non-sensitive) data: it has no protected sources,
    /// so measurements over it cost nothing. Useful for joining protected data with public
    /// reference tables.
    pub fn public(data: WeightedDataset<T>) -> Self {
        let plan = Plan::<T>::source();
        let mut bindings = PlanBindings::new();
        bindings.bind(&plan, data);
        Queryable {
            plan,
            bindings,
            sources: Vec::new(),
            executor: default_executor(),
            optimize: OptimizeLevel::from_env(),
            optimized: OnceCell::new(),
            materialized: OnceCell::new(),
        }
    }

    /// The underlying query plan (sources already bound; see [`Queryable::apply`] for
    /// deriving further queryables from plan-level definitions).
    pub fn plan(&self) -> &Plan<T> {
        &self.plan
    }

    /// Replaces the evaluation strategy of this queryable (dropping any cached
    /// materialisation). Every executor computes bitwise-identical data, so this never
    /// changes measurement semantics — only how the work is scheduled.
    pub fn with_executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = executor;
        self.materialized = OnceCell::new();
        self
    }

    /// The evaluation strategy this queryable (and everything derived from it) uses.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.executor
    }

    /// Replaces the [`OptimizeLevel`] of this queryable and everything derived from it
    /// (default: the `WPINQ_OPTIMIZE` environment variable). Both evaluation *and*
    /// privacy accounting go through the optimized plan, so at
    /// [`OptimizeLevel::Full`] a redundantly expressed query (e.g. the union of two
    /// identical requests) is charged for the deduplicated plan while releasing exactly
    /// the bytes the unoptimized plan would; [`OptimizeLevel::None`] is the A/B
    /// baseline. When two queryables with different levels are combined (join, union,
    /// …), the result keeps the **lower** of the two — an explicit opt-out on either
    /// side survives composition.
    pub fn with_optimize_level(mut self, level: OptimizeLevel) -> Self {
        self.optimize = level;
        self.optimized = OnceCell::new();
        self.materialized = OnceCell::new();
        self
    }

    /// The optimize level this queryable (and everything derived from it) uses.
    pub fn optimize_level(&self) -> OptimizeLevel {
        self.optimize
    }

    /// The optimizer's report for the underlying plan at this queryable's level (see
    /// [`Plan::explain`]): node counts and per-source ε multiplicities before/after.
    pub fn explain(&self) -> PlanExplain {
        self.plan.explain_at(self.optimize)
    }

    /// The rewritten plan that both accounting and evaluation run against, computed once
    /// per queryable. The rewrite includes the bindings-aware join ordering (which never
    /// changes multiplicities), so one pass serves both consumers.
    fn optimized_plan(&self) -> &Plan<T> {
        self.optimized.get_or_init(|| {
            self.plan
                .optimize_for_bindings(self.optimize, &self.bindings)
        })
    }

    fn derived<U: Record>(&self, plan: Plan<U>) -> Queryable<U> {
        Queryable {
            plan,
            bindings: self.bindings.clone(),
            sources: self.sources.clone(),
            executor: self.executor.clone(),
            optimize: self.optimize,
            optimized: OnceCell::new(),
            materialized: OnceCell::new(),
        }
    }

    fn combined<U: Record>(&self, other: &Queryable<impl Record>, plan: Plan<U>) -> Queryable<U> {
        let mut bindings = self.bindings.clone();
        bindings.merge(&other.bindings);
        let mut sources = self.sources.clone();
        for binding in &other.sources {
            if !sources.iter().any(|s| s.input == binding.input) {
                sources.push(binding.clone());
            }
        }
        Queryable {
            plan,
            bindings,
            sources,
            executor: self.executor.clone(),
            // Reconcile conservatively: if either side was pinned to a lower level
            // (e.g. the documented `OptimizeLevel::None` A/B baseline), the combined
            // query keeps it — silently adopting the left side's higher level would
            // charge the optimized (lower) ε for a branch the user explicitly opted
            // out of optimizing.
            optimize: self.optimize.min(other.optimize),
            optimized: OnceCell::new(),
            materialized: OnceCell::new(),
        }
    }

    /// Derives a new queryable by transforming the underlying plan — the bridge between
    /// plan-level query definitions (as the analyses crate provides) and budgeted
    /// execution. The optimizer pass runs over the result by default (this queryable's
    /// [`OptimizeLevel`]): both the privacy accounting and the evaluation of the derived
    /// queryable go through the rewritten plan, with
    /// [`with_optimize_level`](Self::with_optimize_level)`(OptimizeLevel::None)` as the
    /// A/B opt-out.
    ///
    /// ```
    /// use wpinq::prelude::*;
    ///
    /// let secret = ProtectedDataset::new(
    ///     WeightedDataset::from_records([(1u32, 2u32), (2, 1)]),
    ///     PrivacyBudget::new(1.0),
    /// );
    /// // A reusable plan-level query definition…
    /// fn sources(edges: &Plan<(u32, u32)>) -> Plan<u32> {
    ///     edges.select(|e| e.0)
    /// }
    /// // …applied to a protected dataset with accounting intact.
    /// let q = secret.queryable().apply(sources);
    /// assert_eq!(q.max_multiplicity(), 1);
    /// ```
    pub fn apply<U: Record, F: FnOnce(&Plan<T>) -> Plan<U>>(&self, build: F) -> Queryable<U> {
        self.derived(build(&self.plan))
    }

    /// Per-source multiplicities, summed per protected source id.
    ///
    /// Computed over the *optimized* plan: a rewrite that removes a redundant source
    /// reference (e.g. collapsing the union of two structurally identical subqueries)
    /// directly lowers the ε a measurement charges, while the released bytes stay
    /// identical to the unoptimized plan's.
    fn source_multiplicities(&self) -> Vec<(SourceId, BudgetHandle, u32)> {
        let by_input: BTreeMap<InputId, u32> = self.optimized_plan().multiplicities();
        let mut out: Vec<(SourceId, BudgetHandle, u32)> = Vec::new();
        for binding in &self.sources {
            let mult = by_input.get(&binding.input).copied().unwrap_or(0);
            if mult == 0 {
                continue;
            }
            if let Some(entry) = out.iter_mut().find(|(id, _, _)| *id == binding.source) {
                entry.2 += mult;
            } else {
                out.push((binding.source, binding.budget.clone(), mult));
            }
        }
        out
    }

    /// The total usage multiplicity of the source with the given id (0 when unused),
    /// derived from the query plan's structure.
    pub fn multiplicity_of(&self, id: SourceId) -> u32 {
        self.source_multiplicities()
            .iter()
            .find(|(source, _, _)| *source == id)
            .map(|(_, _, mult)| *mult)
            .unwrap_or(0)
    }

    /// The largest source multiplicity in this query plan; a measurement at `ε` costs at
    /// most `max_multiplicity() × ε` against any single budget.
    pub fn max_multiplicity(&self) -> u32 {
        self.source_multiplicities()
            .iter()
            .map(|(_, _, mult)| *mult)
            .max()
            .unwrap_or(0)
    }

    fn materialize(&self) -> &Arc<WeightedDataset<T>> {
        self.materialized.get_or_init(|| {
            // The cached plan is already fully rewritten (bindings included), so
            // evaluate it as-is instead of paying a second optimizer pass.
            self.optimized_plan().eval_shared_opt(
                &self.bindings,
                &*self.executor,
                OptimizeLevel::None,
            )
        })
    }

    /// Read-only access to the underlying weighted data, evaluated on first use and cached.
    ///
    /// **This bypasses differential privacy** — it exists for tests, for debugging, and for
    /// the incremental engine (which operates on the already-released measurements plus
    /// public synthetic candidates, never on protected data). Production analyses must only
    /// release values through [`noisy_count`](Self::noisy_count) and friends.
    pub fn inspect(&self) -> &WeightedDataset<T> {
        self.materialize()
    }

    // ---- stable transformations -------------------------------------------------------

    /// Per-record transformation; weights of colliding outputs accumulate (Section 2.4).
    pub fn select<U, F>(&self, f: F) -> Queryable<U>
    where
        U: Record,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        self.derived(self.plan.select(f))
    }

    /// Per-record filtering (`Where`, Section 2.4).
    pub fn filter<P>(&self, predicate: P) -> Queryable<T>
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        self.derived(self.plan.filter(predicate))
    }

    /// One-to-many transformation with data-dependent normalisation (Section 2.4).
    pub fn select_many<U, F>(&self, f: F) -> Queryable<U>
    where
        U: Record,
        F: Fn(&T) -> WeightedDataset<U> + Send + Sync + 'static,
    {
        self.derived(self.plan.select_many(f))
    }

    /// One-to-many transformation where each produced record carries unit weight.
    pub fn select_many_unit<U, I, F>(&self, f: F) -> Queryable<U>
    where
        U: Record,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Send + Sync + 'static,
    {
        self.derived(self.plan.select_many_unit(f))
    }

    /// Groups records by key and reduces each group (Section 2.5).
    pub fn group_by<K, R, KF, RF>(&self, key: KF, reduce: RF) -> Queryable<(K, R)>
    where
        K: Record,
        R: Record,
        KF: Fn(&T) -> K + Send + Sync + 'static,
        RF: Fn(&[T]) -> R + Send + Sync + 'static,
    {
        self.derived(self.plan.group_by(key, reduce))
    }

    /// Decomposes heavy records into indexed unit-ish slices (Section 2.8).
    pub fn shave<F, I>(&self, schedule: F) -> Queryable<(T, u64)>
    where
        F: Fn(&T) -> I + Send + Sync + 'static,
        I: IntoIterator<Item = f64>,
        I::IntoIter: 'static,
    {
        self.derived(self.plan.shave(schedule))
    }

    /// [`shave`](Self::shave) with a constant per-slice weight.
    pub fn shave_const(&self, step: f64) -> Queryable<(T, u64)> {
        self.derived(self.plan.shave_const(step))
    }

    /// The weight-rescaling equi-join of Section 2.7. Source multiplicities of both inputs
    /// add, so a self-join doubles the privacy cost of its source.
    pub fn join<U, K, R, KA, KB, RF>(
        &self,
        other: &Queryable<U>,
        key_self: KA,
        key_other: KB,
        result: RF,
    ) -> Queryable<R>
    where
        U: Record,
        K: Record,
        R: Record,
        KA: Fn(&T) -> K + Send + Sync + 'static,
        KB: Fn(&U) -> K + Send + Sync + 'static,
        RF: Fn(&T, &U) -> R + Send + Sync + 'static,
    {
        self.combined(
            other,
            self.plan.join(&other.plan, key_self, key_other, result),
        )
    }

    /// Element-wise maximum (Section 2.6).
    pub fn union(&self, other: &Queryable<T>) -> Queryable<T> {
        self.combined(other, self.plan.union(&other.plan))
    }

    /// Element-wise minimum (Section 2.6).
    pub fn intersect(&self, other: &Queryable<T>) -> Queryable<T> {
        self.combined(other, self.plan.intersect(&other.plan))
    }

    /// Element-wise addition (Section 2.6).
    pub fn concat(&self, other: &Queryable<T>) -> Queryable<T> {
        self.combined(other, self.plan.concat(&other.plan))
    }

    /// Element-wise subtraction (Section 2.6).
    pub fn except(&self, other: &Queryable<T>) -> Queryable<T> {
        self.combined(other, self.plan.except(&other.plan))
    }

    // ---- measurements -----------------------------------------------------------------

    /// The privacy cost that a measurement with parameter `epsilon` would charge against
    /// the budget of the given source.
    pub fn cost_for(&self, id: SourceId, epsilon: f64) -> f64 {
        self.multiplicity_of(id) as f64 * epsilon
    }

    /// Charges every source `multiplicity × epsilon`, all-or-nothing.
    ///
    /// Several protected sources may share one underlying budget (see
    /// [`ProtectedDataset::with_handle`](crate::ProtectedDataset::with_handle)), so costs
    /// are summed *per budget handle* before the affordability check — otherwise a
    /// rejected measurement could leave a shared budget partially debited.
    fn charge_all(&self, epsilon: f64) -> Result<(), WpinqError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(WpinqError::InvalidParameter(format!(
                "epsilon must be positive and finite, got {epsilon}"
            )));
        }
        let mut per_budget: Vec<(BudgetHandle, f64)> = Vec::new();
        for (_, budget, mult) in self.source_multiplicities() {
            let cost = mult as f64 * epsilon;
            if let Some(entry) = per_budget.iter_mut().find(|(h, _)| h.same_budget(&budget)) {
                entry.1 += cost;
            } else {
                per_budget.push((budget, cost));
            }
        }
        // Verify affordability before charging anyone.
        for (budget, cost) in &per_budget {
            if !budget.can_afford(*cost) {
                return Err(WpinqError::BudgetExceeded(crate::error::BudgetError {
                    requested: *cost,
                    remaining: budget.remaining(),
                }));
            }
        }
        for (budget, cost) in &per_budget {
            budget.charge(*cost).map_err(WpinqError::BudgetExceeded)?;
        }
        Ok(())
    }

    /// Takes a `NoisyCount(·, ε)` measurement (Section 2.2), charging every underlying
    /// source `multiplicity × ε` from its budget first.
    ///
    /// Fails with [`WpinqError::BudgetExceeded`] — without charging anything and without
    /// drawing noise — if any budget cannot afford its share, and with
    /// [`WpinqError::InvalidParameter`] when `epsilon` is not strictly positive.
    pub fn noisy_count<R: Rng + ?Sized>(
        &self,
        epsilon: f64,
        rng: &mut R,
    ) -> Result<NoisyCounts<T>, WpinqError> {
        // Evaluate before charging: if evaluation panics (unbound source, panicking user
        // closure), no budget has been consumed. Nothing is released until the charge
        // below succeeds, so the ordering is privacy-neutral.
        let data = self.materialize().clone();
        self.charge_all(epsilon)?;
        Ok(NoisyCounts::measure(&data, epsilon, rng))
    }

    /// A noisy sum of `f` over the records, clamped to 1-Lipschitz contributions, with the
    /// same accounting as [`noisy_count`](Self::noisy_count).
    pub fn noisy_sum<R, F>(&self, f: F, epsilon: f64, rng: &mut R) -> Result<f64, WpinqError>
    where
        R: Rng + ?Sized,
        F: Fn(&T) -> f64,
    {
        let data = self.materialize().clone();
        self.charge_all(epsilon)?;
        Ok(crate::aggregation::noisy_sum(&data, f, epsilon, rng))
    }
}

/// Expression-built transformations (see the [`Plan`] expression constructors): same
/// accounting and bitwise-identical measurements as the closure forms, but the derived
/// query stays serializable and its payloads render readably in
/// [`explain`](Queryable::explain) output.
impl<T: ExprRecord> Queryable<T> {
    /// Expression-built [`select`](Self::select).
    pub fn select_expr<U: ExprRecord>(&self, expr: Expr) -> Queryable<U> {
        self.derived(self.plan.select_expr(expr))
    }

    /// Expression-built [`filter`](Self::filter).
    pub fn filter_expr(&self, expr: Expr) -> Queryable<T> {
        self.derived(self.plan.filter_expr(expr))
    }

    /// Expression-built [`select_many_unit`](Self::select_many_unit).
    pub fn select_many_unit_expr<U: ExprRecord>(&self, exprs: Vec<Expr>) -> Queryable<U> {
        self.derived(self.plan.select_many_unit_expr(exprs))
    }

    /// Expression-built [`group_by`](Self::group_by).
    pub fn group_by_expr<K: ExprRecord, R: ExprRecord>(
        &self,
        key: Expr,
        reduce: ReduceSpec,
    ) -> Queryable<(K, R)> {
        self.derived(self.plan.group_by_expr(key, reduce))
    }

    /// Expression-built [`join`](Self::join).
    pub fn join_expr<U, K, R>(
        &self,
        other: &Queryable<U>,
        key_self: Expr,
        key_other: Expr,
        result: Expr,
    ) -> Queryable<R>
    where
        U: ExprRecord,
        K: ExprRecord,
        R: ExprRecord,
    {
        self.combined(
            other,
            self.plan
                .join_expr::<U, K, R>(&other.plan, key_self, key_other, result),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::PrivacyBudget;
    use crate::protected::ProtectedDataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn protected_edges(budget: f64) -> ProtectedDataset<(u32, u32)> {
        ProtectedDataset::new(
            WeightedDataset::from_records([(1u32, 2u32), (2, 3), (3, 1), (1, 4)]),
            PrivacyBudget::new(budget),
        )
    }

    #[test]
    fn unary_chain_keeps_multiplicity_one() {
        let edges = protected_edges(1.0);
        let q = edges
            .queryable()
            .select(|e| e.0)
            .filter(|v| *v != 4)
            .shave_const(1.0);
        assert_eq!(q.multiplicity_of(edges.id()), 1);
    }

    #[test]
    fn self_join_doubles_multiplicity() {
        let edges = protected_edges(10.0);
        let q = edges.queryable();
        let paths = q.join(&q, |e| e.1, |e| e.0, |a, b| (a.0, a.1, b.1));
        assert_eq!(paths.multiplicity_of(edges.id()), 2);
        let again = paths.join(&q, |p| p.2, |e| e.0, |p, _| *p);
        assert_eq!(again.multiplicity_of(edges.id()), 3);
    }

    #[test]
    fn concat_of_same_source_accumulates() {
        // The TbD query concatenates edges with their transpose: two uses of the source.
        let edges = protected_edges(10.0);
        let q = edges.queryable();
        let sym = q.select(|e| (e.1, e.0)).concat(&q);
        assert_eq!(sym.multiplicity_of(edges.id()), 2);
    }

    #[test]
    fn noisy_count_charges_multiplicity_times_epsilon() {
        let edges = protected_edges(1.0);
        let q = edges.queryable();
        let paths = q.join(&q, |e| e.1, |e| e.0, |a, b| (a.0, a.1, b.1));
        let mut rng = StdRng::seed_from_u64(0);
        paths.noisy_count(0.25, &mut rng).unwrap();
        assert!(crate::weights::approx_eq(edges.budget().spent(), 0.5));
    }

    #[test]
    fn budget_exhaustion_rejects_measurement_without_charging() {
        let edges = protected_edges(0.3);
        let q = edges.queryable();
        let paths = q.join(&q, |e| e.1, |e| e.0, |a, b| (a.0, a.1, b.1));
        let mut rng = StdRng::seed_from_u64(0);
        let err = paths.noisy_count(0.2, &mut rng).unwrap_err();
        assert!(matches!(err, WpinqError::BudgetExceeded(_)));
        assert_eq!(edges.budget().spent(), 0.0);
        // A cheaper measurement still fits.
        assert!(paths.noisy_count(0.1, &mut rng).is_ok());
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let edges = protected_edges(1.0);
        let q = edges.queryable();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            q.noisy_count(0.0, &mut rng),
            Err(WpinqError::InvalidParameter(_))
        ));
        assert!(matches!(
            q.noisy_count(f64::NAN, &mut rng),
            Err(WpinqError::InvalidParameter(_))
        ));
        assert_eq!(edges.budget().spent(), 0.0);
    }

    #[test]
    fn public_data_costs_nothing() {
        let edges = protected_edges(0.5);
        let public = Queryable::public(WeightedDataset::from_records([(1u32, 1u32)]));
        let joined = edges.queryable().join(&public, |e| e.0, |p| p.0, |e, _| *e);
        let mut rng = StdRng::seed_from_u64(0);
        joined.noisy_count(0.5, &mut rng).unwrap();
        assert!(crate::weights::approx_eq(edges.budget().spent(), 0.5));
        // Measuring purely public data charges no budget at all.
        public.noisy_count(100.0, &mut rng).unwrap();
    }

    #[test]
    fn two_sources_are_charged_independently() {
        let left = protected_edges(1.0);
        let right = ProtectedDataset::new(
            WeightedDataset::from_records([(2u32, 9u32), (3, 9)]),
            PrivacyBudget::new(2.0),
        );
        let joined = left
            .queryable()
            .join(&right.queryable(), |e| e.0, |e| e.0, |a, b| (a.1, b.1));
        let mut rng = StdRng::seed_from_u64(0);
        joined.noisy_count(0.75, &mut rng).unwrap();
        assert!(crate::weights::approx_eq(left.budget().spent(), 0.75));
        assert!(crate::weights::approx_eq(right.budget().spent(), 0.75));
    }

    #[test]
    fn shared_budget_rejection_charges_nothing() {
        // Two protected sources drawing from ONE budget: affordability must be checked on
        // the summed cost, otherwise the first charge would land before the second fails.
        use crate::budget::BudgetHandle;
        let handle = BudgetHandle::new(PrivacyBudget::new(1.0), "shared");
        let left = ProtectedDataset::with_handle(
            WeightedDataset::from_records([(1u32, 2u32)]),
            handle.clone(),
        );
        let right = ProtectedDataset::with_handle(
            WeightedDataset::from_records([(1u32, 3u32)]),
            handle.clone(),
        );
        let joined = left
            .queryable()
            .join(&right.queryable(), |e| e.0, |e| e.0, |a, b| (a.1, b.1));
        let mut rng = StdRng::seed_from_u64(0);
        // Per-source cost 0.6 is affordable; the summed cost 1.2 is not.
        let err = joined.noisy_count(0.6, &mut rng).unwrap_err();
        assert!(matches!(err, WpinqError::BudgetExceeded(_)));
        assert_eq!(
            handle.spent(),
            0.0,
            "rejected measurement must charge nothing"
        );
        // The summed cost 1.0 exactly fits and is charged once.
        joined.noisy_count(0.5, &mut rng).unwrap();
        assert!(crate::weights::approx_eq(handle.spent(), 1.0));
    }

    #[test]
    fn noisy_sum_is_accounted_like_noisy_count() {
        let edges = protected_edges(1.0);
        let q = edges.queryable();
        let mut rng = StdRng::seed_from_u64(0);
        let v = q.noisy_sum(|_| 1.0, 0.4, &mut rng).unwrap();
        assert!(v.is_finite());
        assert!(crate::weights::approx_eq(edges.budget().spent(), 0.4));
        assert!(q.noisy_sum(|_| 1.0, 0.7, &mut rng).is_err());
    }

    #[test]
    fn inspect_exposes_transformed_weights() {
        let edges = protected_edges(1.0);
        let degrees = edges.queryable().group_by(|e| e.0, |g| g.len() as u64);
        assert!(crate::weights::approx_eq(
            degrees.inspect().weight(&(1, 2)),
            0.5
        ));
    }

    #[test]
    fn apply_preserves_accounting() {
        let edges = protected_edges(1.0);
        let q = edges.queryable().apply(|plan| {
            let paths = plan.join(plan, |e| e.1, |e| e.0, |a, b| (a.0, a.1, b.1));
            paths.select(|p| (p.1, p.2, p.0)).intersect(&paths)
        });
        assert_eq!(q.multiplicity_of(edges.id()), 4);
    }

    #[test]
    fn redundant_union_is_charged_for_the_deduplicated_plan() {
        use crate::plan::OptimizeLevel;

        // Two independently-built copies of the same degree chain, merged by union —
        // the "two dashboard panels requesting the same query" workload shape.
        fn chain(plan: &Plan<(u32, u32)>) -> Plan<u64> {
            plan.select(|e| e.0).shave_const(1.0).select(|(_, i)| *i)
        }
        let edges = protected_edges(1.0);
        let q = edges
            .queryable()
            .apply(|plan| chain(plan).union(&chain(plan)));

        let optimized = q.clone().with_optimize_level(OptimizeLevel::Full);
        let baseline = q.clone().with_optimize_level(OptimizeLevel::None);
        assert_eq!(baseline.multiplicity_of(edges.id()), 2);
        assert_eq!(optimized.multiplicity_of(edges.id()), 1);
        assert!(optimized.explain().epsilon_saved());

        // Same released values (inspect is pre-noise data: must agree bitwise)…
        for (record, weight) in baseline.inspect().iter() {
            assert_eq!(
                weight.to_bits(),
                optimized.inspect().weight(record).to_bits()
            );
        }
        // …but the optimized measurement charges half the budget.
        let mut rng = StdRng::seed_from_u64(9);
        optimized.noisy_count(0.25, &mut rng).unwrap();
        assert!(crate::weights::approx_eq(edges.budget().spent(), 0.25));
    }

    #[test]
    fn optimize_level_propagates_to_derived_queryables() {
        use crate::plan::OptimizeLevel;
        let edges = protected_edges(1.0);
        let q = edges
            .queryable()
            .with_optimize_level(OptimizeLevel::None)
            .select(|e| e.0);
        assert_eq!(q.optimize_level(), OptimizeLevel::None);
        let combined = q.union(&q);
        assert_eq!(combined.optimize_level(), OptimizeLevel::None);
    }

    #[test]
    fn combining_mixed_levels_keeps_the_more_conservative_one() {
        use crate::plan::OptimizeLevel;
        let edges = protected_edges(1.0);
        let full = edges
            .queryable()
            .with_optimize_level(OptimizeLevel::Full)
            .select(|e| e.0);
        let baseline = edges
            .queryable()
            .with_optimize_level(OptimizeLevel::None)
            .select(|e| e.0);
        // An explicit A/B opt-out survives composition from either side.
        assert_eq!(full.union(&baseline).optimize_level(), OptimizeLevel::None);
        assert_eq!(baseline.union(&full).optimize_level(), OptimizeLevel::None);
    }

    #[test]
    fn inspect_is_cached_and_lazy() {
        let edges = protected_edges(1.0);
        let q = edges.queryable().select(|e| e.0);
        let first = q.inspect() as *const _;
        let second = q.inspect() as *const _;
        assert_eq!(first, second, "inspect must evaluate once and cache");
    }
}

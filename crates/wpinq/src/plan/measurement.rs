//! `NoisyCount` sinks: plans annotated with their measurement ε.

use std::collections::HashMap;

use rand::Rng;

use wpinq_core::aggregation::NoisyCounts;
use wpinq_core::record::Record;
use wpinq_dataflow::ScorerHandle;

use super::{InputId, Plan, PlanBindings, StreamBindings};

/// A plan with a `NoisyCount(·, ε)` sink attached — the unit the privacy accountant
/// reasons about.
///
/// The same annotated plan serves both phases of the paper's workflow:
///
/// * **Release** ([`Measurement::release`]): batch-evaluate the plan over protected data
///   and perturb every record weight with `Laplace(1/ε)` noise. No budget is charged here;
///   the [`Queryable`](crate::Queryable) front end owns accounting and calls this after
///   debiting [`cost_for`](Measurement::cost_for) from every source.
/// * **Scoring** ([`Measurement::lower_scorer`]): compile the plan into the incremental
///   dataflow over a *public* candidate stream and maintain `‖Q(A) − m‖₁` against the
///   released values — the energy the MCMC acceptance test uses (Section 4.2–4.3).
#[derive(Clone)]
pub struct Measurement<T: Record> {
    plan: Plan<T>,
    epsilon: f64,
}

impl<T: Record> Measurement<T> {
    pub(crate) fn new(plan: Plan<T>, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive and finite, got {epsilon}"
        );
        Measurement { plan, epsilon }
    }

    /// The ε annotation of the sink.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The measured plan.
    pub fn plan(&self) -> &Plan<T> {
        &self.plan
    }

    /// The privacy cost this measurement charges against the given source:
    /// `multiplicity × ε` (Section 2.3).
    pub fn cost_for(&self, id: InputId) -> f64 {
        self.plan.multiplicity_of(id) as f64 * self.epsilon
    }

    /// Batch-evaluates the plan and perturbs every record weight with `Laplace(1/ε)`.
    ///
    /// Performs **no privacy accounting**; see the type docs.
    pub fn release<R: Rng + ?Sized>(&self, bindings: &PlanBindings, rng: &mut R) -> NoisyCounts<T> {
        NoisyCounts::measure(&self.plan.eval_shared(bindings), self.epsilon, rng)
    }

    /// [`release`](Self::release) under an explicit [`Executor`](crate::plan::Executor)
    /// strategy. Every executor
    /// evaluates to bitwise-identical data, so given the same `rng` state the released
    /// measurement is identical too.
    pub fn release_with<R: Rng + ?Sized>(
        &self,
        bindings: &PlanBindings,
        executor: &dyn crate::plan::Executor,
        rng: &mut R,
    ) -> NoisyCounts<T> {
        NoisyCounts::measure(
            &self.plan.eval_shared_with(bindings, executor),
            self.epsilon,
            rng,
        )
    }

    /// [`release_with`](Self::release_with) at an explicit
    /// [`OptimizeLevel`](crate::plan::OptimizeLevel) — the A/B knob behind the guarantee
    /// that optimized and unoptimized releases are byte-identical for a fixed seed.
    pub fn release_opt<R: Rng + ?Sized>(
        &self,
        bindings: &PlanBindings,
        executor: &dyn crate::plan::Executor,
        level: crate::plan::OptimizeLevel,
        rng: &mut R,
    ) -> NoisyCounts<T> {
        NoisyCounts::measure(
            &self.plan.eval_shared_opt(bindings, executor, level),
            self.epsilon,
            rng,
        )
    }

    /// The optimizer's report for the measured plan (see [`Plan::explain`]).
    pub fn explain(&self) -> crate::plan::PlanExplain {
        self.plan.explain()
    }

    /// The instrumented twin of [`release_opt`](Self::release_opt): one evaluation pass
    /// producing both the released measurement and its EXPLAIN ANALYZE report plus the
    /// noise-application wall time.
    ///
    /// The data path is identical to `release_opt` — same optimizer pass, same
    /// evaluation code, same single `NoisyCounts::measure` call on the same `rng` — so
    /// for a fixed seed the released measurement is **byte-identical** with tracing on
    /// or off (the service's tests assert this).
    pub fn release_traced<R: Rng + ?Sized>(
        &self,
        bindings: &PlanBindings,
        executor: &dyn crate::plan::Executor,
        level: crate::plan::OptimizeLevel,
        rng: &mut R,
    ) -> (NoisyCounts<T>, ReleaseTrace) {
        let (data, analyze) = self.plan.eval_analyzed(bindings, executor, level);
        let noise_started = std::time::Instant::now();
        let released = NoisyCounts::measure(&data, self.epsilon, rng);
        let trace = ReleaseTrace {
            eval_us: analyze.total_us,
            noise_us: noise_started.elapsed().as_micros() as u64,
            analyze,
        };
        (released, trace)
    }

    /// Lowers the plan onto the bound candidate streams and attaches an incremental L1
    /// scorer against the observed part of a released measurement.
    pub fn lower_scorer(
        &self,
        bindings: &StreamBindings,
        released: &NoisyCounts<T>,
    ) -> ScorerHandle<T> {
        self.lower_scorer_targets(
            bindings,
            released
                .iter_observed()
                .map(|(record, weight)| (record.clone(), weight))
                .collect(),
        )
    }

    /// [`lower_scorer`](Self::lower_scorer) against an explicit target map, for
    /// measurements released in forms other than [`NoisyCounts`] (e.g. the single-number
    /// TbI signal).
    pub fn lower_scorer_targets(
        &self,
        bindings: &StreamBindings,
        targets: HashMap<T, f64>,
    ) -> ScorerHandle<T> {
        self.plan.lower(bindings).l1_scorer(targets)
    }
}

/// Timings of one traced release: the evaluation's EXPLAIN ANALYZE report plus the
/// wall time of the Laplace noise application.
#[derive(Clone, Debug)]
pub struct ReleaseTrace {
    /// Wall time of plan optimization + evaluation, microseconds.
    pub eval_us: u64,
    /// Wall time of the noise application, microseconds.
    pub noise_us: u64,
    /// The per-operator evaluation report.
    pub analyze: crate::plan::AnalyzeReport,
}

impl<T: Record> std::fmt::Debug for Measurement<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Measurement(epsilon = {}, {:?})",
            self.epsilon, self.plan
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wpinq_core::dataset::WeightedDataset;
    use wpinq_dataflow::DataflowInput;

    #[test]
    fn cost_follows_multiplicity_times_epsilon() {
        let edges = Plan::<(u32, u32)>::source();
        let id = edges.input_id().unwrap();
        let paths = edges.join(&edges, |e| e.1, |e| e.0, |x, y| (x.0, x.1, y.1));
        let m = paths.noisy_count(0.25);
        assert!((m.cost_for(id) - 0.5).abs() < 1e-12);
        assert_eq!(m.epsilon(), 0.25);
        let unrelated = Plan::<u32>::source();
        assert_eq!(m.cost_for(unrelated.input_id().unwrap()), 0.0);
    }

    #[test]
    fn release_then_score_round_trips_through_both_engines() {
        let source = Plan::<u32>::source();
        let plan = source.select(|x| x % 3);
        let measurement = plan.noisy_count(1e6);

        let data: WeightedDataset<u32> = WeightedDataset::from_records([1u32, 2, 3, 4, 5, 6]);
        let mut bindings = PlanBindings::new();
        bindings.bind(&source, data.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let released = measurement.release(&bindings, &mut rng);

        let (input, stream) = DataflowInput::new();
        let mut streams = StreamBindings::new();
        streams.bind(&source, stream);
        let scorer = measurement.lower_scorer(&streams, &released);
        // Loading the measured data leaves only the (tiny, ε = 10⁶) noise as distance.
        input.push_dataset(&data);
        assert!(scorer.distance() < 1e-3, "distance {}", scorer.distance());
        assert!((scorer.distance() - scorer.recompute_distance()).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn non_positive_epsilon_is_rejected() {
        let _ = Plan::<u32>::source().noisy_count(0.0);
    }

    #[test]
    fn release_is_identical_under_every_executor() {
        use crate::plan::{SequentialExecutor, ShardedExecutor};
        let source = Plan::<u32>::source();
        let plan = source
            .select(|x| x % 5)
            .shave_const(0.5)
            .select(|(x, _)| *x);
        let measurement = plan.noisy_count(0.75);
        let mut bindings = PlanBindings::new();
        bindings.bind(
            &source,
            WeightedDataset::from_records((0u32..40).flat_map(|i| (0..(i % 5)).map(move |_| i))),
        );
        let reference = measurement.release_with(
            &bindings,
            &SequentialExecutor,
            &mut StdRng::seed_from_u64(7),
        );
        for shards in [1usize, 2, 8] {
            let released = measurement.release_with(
                &bindings,
                &ShardedExecutor::new(shards),
                &mut StdRng::seed_from_u64(7),
            );
            for (record, value) in reference.sorted_observed() {
                assert_eq!(
                    value.to_bits(),
                    released.get(&record).to_bits(),
                    "{shards}-shard release differs at {record:?}"
                );
            }
        }
    }
}

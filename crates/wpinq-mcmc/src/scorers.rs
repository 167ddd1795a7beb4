//! Measurement scorers for candidate graphs, built from the analyses' *plan* definitions.
//!
//! Each scorer takes the very plan that produced the released measurement (degree CCDF /
//! sequence, TbD, TbI, JDD from `wpinq-analyses`), lowers it onto the candidate's
//! symmetric directed edge stream through the plan IR's incremental compiler, and attaches
//! an [`L1Scorer`](wpinq_dataflow::L1Scorer) sink against the released values. The sum of
//! the sink distances is the energy `‖Q(A) − m‖₁` the MCMC acceptance test uses.
//!
//! Before the plan IR existed this module hand-wired a second copy of every query as a
//! `Stream` pipeline; now batch measurement, incremental scoring, and privacy accounting
//! all flow from the single definition in `wpinq-analyses`. Lowering runs through the
//! plan optimizer (`wpinq::plan::OptimizeLevel`, default from `WPINQ_OPTIMIZE`), so
//! structurally duplicated subqueries — even ones built by separate plan-constructor
//! calls — compile to *one* shared dataflow node and every candidate edge delta is
//! processed once per distinct operator instead of once per authored copy.
//!
//! The pipelines run over *public* synthetic candidates and *released* measurements only;
//! no protected data is touched here, which is why no privacy accounting appears.

use std::collections::HashMap;

use wpinq::plan::Plan;
use wpinq::NoisyCounts;
use wpinq::Record;
use wpinq_analyses::degree::{degree_ccdf_plan, degree_sequence_plan};
use wpinq_analyses::edges::EdgeSource;
use wpinq_analyses::jdd::{jdd_plan, jdd_record_weight};
use wpinq_analyses::tbi::{tbi_plan, TbiMeasurement};
use wpinq_analyses::triangles::{tbd_plan, TbdMeasurement};
use wpinq_dataflow::{ScorerHandle, Stream};

/// A directed edge record, matching `wpinq_analyses::edges::Edge`.
pub type Edge = (u32, u32);

/// A candidate graph's edge delta stream — what the scorers lower analysis plans onto.
/// [`GraphCandidate::new`](crate::GraphCandidate::new) hands one to its scorer builder.
pub struct EdgeFlow(pub Stream<Edge>);

/// Anything that reports an incrementally maintained distance to its measurement target.
pub trait DistanceSink {
    /// The maintained `‖Q(A) − m‖₁` for this query.
    fn distance(&self) -> f64;
    /// Recomputes the distance from scratch (drift guard).
    fn recompute_distance(&self) -> f64;
    /// A short human-readable label for reporting.
    fn label(&self) -> &str;
}

/// A labelled [`ScorerHandle`].
pub struct LabelledScorer<T: Record> {
    handle: ScorerHandle<T>,
    label: String,
}

impl<T: Record> DistanceSink for LabelledScorer<T> {
    fn distance(&self) -> f64 {
        self.handle.distance()
    }

    fn recompute_distance(&self) -> f64 {
        self.handle.recompute_distance()
    }

    fn label(&self) -> &str {
        &self.label
    }
}

fn observed_targets<T: Record>(counts: &NoisyCounts<T>) -> HashMap<T, f64> {
    counts
        .iter_observed()
        .map(|(record, weight)| (record.clone(), weight))
        .collect()
}

/// Lowers an analysis plan onto the candidate's edge flow and scores it
/// against explicit measurement targets.
fn plan_scorer<T, F>(
    edges: &EdgeFlow,
    epsilon: f64,
    targets: HashMap<T, f64>,
    build: F,
    label: &str,
) -> Box<dyn DistanceSink>
where
    T: Record,
    F: FnOnce(&Plan<Edge>) -> Plan<T>,
{
    let source = EdgeSource::new();
    let measurement = build(source.plan()).noisy_count(epsilon);
    let handle = measurement.lower_scorer_targets(&source.bind_stream(edges.0.clone()), targets);
    Box::new(LabelledScorer {
        handle,
        label: label.to_string(),
    })
}

/// Scores the candidate's degree CCDF against a released noisy CCDF.
pub fn degree_ccdf_scorer(
    edges: &EdgeFlow,
    measurement: &NoisyCounts<u64>,
) -> Box<dyn DistanceSink> {
    plan_scorer(
        edges,
        measurement.epsilon(),
        observed_targets(measurement),
        degree_ccdf_plan,
        "degree-ccdf",
    )
}

/// Scores the candidate's (non-increasing) degree sequence against a released measurement.
pub fn degree_sequence_scorer(
    edges: &EdgeFlow,
    measurement: &NoisyCounts<u64>,
) -> Box<dyn DistanceSink> {
    plan_scorer(
        edges,
        measurement.epsilon(),
        observed_targets(measurement),
        degree_sequence_plan,
        "degree-sequence",
    )
}

/// Scores the candidate's Triangles-by-Intersect signal against a released [`TbiMeasurement`].
pub fn tbi_scorer(edges: &EdgeFlow, measurement: &TbiMeasurement) -> Box<dyn DistanceSink> {
    plan_scorer(
        edges,
        measurement.epsilon,
        HashMap::from([((), measurement.noisy_signal)]),
        tbi_plan,
        "triangles-by-intersect",
    )
}

/// Scores the candidate's (bucketed) Triangles-by-Degree weights against a released
/// [`TbdMeasurement`].
pub fn tbd_scorer(edges: &EdgeFlow, measurement: &TbdMeasurement) -> Box<dyn DistanceSink> {
    let bucket = measurement.bucket().max(1);
    plan_scorer(
        edges,
        measurement.epsilon(),
        observed_targets(measurement.counts()),
        |source| tbd_plan(source, bucket),
        "triangles-by-degree",
    )
}

/// Scores the candidate's joint degree distribution against released noisy JDD counts.
pub fn jdd_scorer(
    edges: &EdgeFlow,
    measurement: &NoisyCounts<(u64, u64)>,
) -> Box<dyn DistanceSink> {
    plan_scorer(
        edges,
        measurement.epsilon(),
        observed_targets(measurement),
        jdd_plan,
        "joint-degree-distribution",
    )
}

/// The expected JDD weight for a degree pair, re-exported for reporting convenience.
pub fn jdd_target_weight(da: u64, db: u64) -> f64 {
    jdd_record_weight(da, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wpinq::PrivacyBudget;
    use wpinq_analyses::degree::degree_ccdf_query;
    use wpinq_analyses::edges::{symmetric_edge_dataset, GraphEdges};
    use wpinq_analyses::tbi::tbi_exact_signal;
    use wpinq_dataflow::DataflowInput;
    use wpinq_graph::Graph;

    fn toy_graph() -> Graph {
        Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn tbi_scorer_distance_is_noise_only_when_candidate_is_the_truth() {
        let g = toy_graph();
        let edges = GraphEdges::new(&g, PrivacyBudget::unlimited());
        let mut rng = StdRng::seed_from_u64(1);
        let measurement = TbiMeasurement::measure(&edges.queryable(), 1e6, &mut rng).unwrap();

        let (input, stream) = DataflowInput::<Edge>::new();
        let sink = tbi_scorer(&EdgeFlow(stream), &measurement);
        // Before loading anything the distance is the full measured signal.
        assert!((sink.distance() - measurement.noisy_signal.abs()).abs() < 1e-9);
        input.push_dataset(&symmetric_edge_dataset(&g));
        // Loading the true graph leaves only the (tiny) measurement noise.
        assert!(sink.distance() < 1e-3, "distance {}", sink.distance());
        assert!((sink.distance() - sink.recompute_distance()).abs() < 1e-9);
        assert_eq!(sink.label(), "triangles-by-intersect");
        // And the exact signal matches the analyses helper.
        assert!((tbi_exact_signal(&g) - 7.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ccdf_scorer_matches_batch_query_distance() {
        let g = toy_graph();
        let edges = GraphEdges::new(&g, PrivacyBudget::unlimited());
        let mut rng = StdRng::seed_from_u64(2);
        let measurement = degree_ccdf_query(&edges.queryable())
            .noisy_count(0.5, &mut rng)
            .unwrap();

        let (input, stream) = DataflowInput::<Edge>::new();
        let sink = degree_ccdf_scorer(&EdgeFlow(stream), &measurement);
        input.push_dataset(&symmetric_edge_dataset(&g));
        // The candidate equals the measured graph, so the distance equals the total noise.
        let expected = measurement.l1_distance(degree_ccdf_query(&edges.queryable()).inspect());
        assert!(
            (sink.distance() - expected).abs() < 1e-9,
            "incremental {} vs batch {expected}",
            sink.distance()
        );
    }

    #[test]
    fn tbd_scorer_reacts_to_edge_changes() {
        let g = toy_graph();
        let edges = GraphEdges::new(&g, PrivacyBudget::unlimited());
        let mut rng = StdRng::seed_from_u64(3);
        let measurement = TbdMeasurement::measure(&edges.queryable(), 1e6, 1, &mut rng).unwrap();

        let (input, stream) = DataflowInput::<Edge>::new();
        let sink = tbd_scorer(&EdgeFlow(stream), &measurement);
        input.push_dataset(&symmetric_edge_dataset(&g));
        let with_truth = sink.distance();
        assert!(with_truth < 1e-3);
        // Remove the closing edge of the triangle: the distance jumps to the full signal.
        input.push(&[((0, 2), -1.0), ((2, 0), -1.0)]);
        assert!(sink.distance() > with_truth + 0.1);
        assert!((sink.distance() - sink.recompute_distance()).abs() < 1e-9);
    }

    #[test]
    fn jdd_scorer_initialises_to_measured_mass() {
        let g = toy_graph();
        let edges = GraphEdges::new(&g, PrivacyBudget::unlimited());
        let mut rng = StdRng::seed_from_u64(4);
        let measurement = wpinq_analyses::jdd::jdd_query(&edges.queryable())
            .noisy_count(1e6, &mut rng)
            .unwrap();
        let (input, stream) = DataflowInput::<Edge>::new();
        let sink = jdd_scorer(&EdgeFlow(stream), &measurement);
        assert!(sink.distance() > 0.0);
        input.push_dataset(&symmetric_edge_dataset(&g));
        assert!(sink.distance() < 1e-3);
        assert!((jdd_target_weight(2, 3) - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn optimized_lowering_scores_identically_to_the_unoptimized_lowering() {
        use wpinq::plan::OptimizeLevel;
        use wpinq_analyses::tbi::tbi_plan;

        let g = toy_graph();
        let edges = GraphEdges::new(&g, PrivacyBudget::unlimited());
        let mut rng = StdRng::seed_from_u64(11);
        let measurement = TbiMeasurement::measure(&edges.queryable(), 1e4, &mut rng).unwrap();
        let targets = HashMap::from([((), measurement.noisy_signal)]);

        let mut handles = Vec::new();
        let mut inputs = Vec::new();
        for level in [OptimizeLevel::None, OptimizeLevel::Full] {
            let source = EdgeSource::new();
            let annotated = tbi_plan(source.plan()).noisy_count(measurement.epsilon);
            let (input, stream) = DataflowInput::<Edge>::new();
            let handle = annotated
                .plan()
                .lower_opt(&source.bind_stream(stream), level)
                .l1_scorer(targets.clone());
            handles.push(handle);
            inputs.push(input);
        }
        for input in &inputs {
            input.push_dataset(&symmetric_edge_dataset(&g));
        }
        // The optimizer may reshape the lowered graph but never its maintained distance.
        assert!((handles[0].distance() - handles[1].distance()).abs() < 1e-12);
        assert!(
            (handles[1].distance() - handles[1].recompute_distance()).abs() < 1e-9,
            "optimized lowering drifted from its own recomputation"
        );
    }

    #[test]
    fn optimizer_level_leaves_scorer_distances_bitwise_unchanged() {
        // Seeded scoring is identical across `OptimizeLevel::{None, Full}`.
        use wpinq::plan::OptimizeLevel;
        use wpinq_analyses::tbi::tbi_plan;

        let g = toy_graph();
        let edges = GraphEdges::new(&g, PrivacyBudget::unlimited());
        let mut rng = StdRng::seed_from_u64(23);
        let measurement = TbiMeasurement::measure(&edges.queryable(), 1e4, &mut rng).unwrap();
        let targets = HashMap::from([((), measurement.noisy_signal)]);

        let distances: Vec<u64> = [OptimizeLevel::None, OptimizeLevel::Full]
            .into_iter()
            .map(|level| {
                let source = EdgeSource::new();
                let annotated = tbi_plan(source.plan()).noisy_count(measurement.epsilon);
                let (input, stream) = DataflowInput::<Edge>::new();
                let handle = annotated
                    .plan()
                    .lower_opt(&source.bind_stream(stream), level)
                    .l1_scorer(targets.clone());
                input.push_dataset(&symmetric_edge_dataset(&g));
                handle.distance().to_bits()
            })
            .collect();
        assert_eq!(
            distances[0], distances[1],
            "scorer distance depends on the optimize level"
        );
    }

    #[test]
    fn scorer_epsilon_annotation_matches_the_released_measurement() {
        // The Measurement sink carries the ε the release was taken at, so the scorer and
        // the accountant agree on the measurement's identity.
        let g = toy_graph();
        let edges = GraphEdges::new(&g, PrivacyBudget::unlimited());
        let mut rng = StdRng::seed_from_u64(5);
        let released = degree_ccdf_query(&edges.queryable())
            .noisy_count(0.25, &mut rng)
            .unwrap();
        assert_eq!(released.epsilon(), 0.25);
        let source = EdgeSource::new();
        let measurement = degree_ccdf_plan(source.plan()).noisy_count(released.epsilon());
        let id = source.plan().input_id().unwrap();
        assert!((measurement.cost_for(id) - 0.25).abs() < 1e-12);
    }
}

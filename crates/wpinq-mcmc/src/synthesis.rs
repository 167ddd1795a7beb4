//! The end-to-end graph-synthesis workflow of Section 5.1, as used by the experiments in
//! Sections 5.2 and 5.3.
//!
//! 1. **Measure.** Take the Phase-1 degree measurements (degree sequence, degree CCDF, node
//!    count; cost 3ε) plus one triangle measurement (TbD at 9ε or TbI at 4ε) from the
//!    protected graph. After this the protected graph is never touched again.
//! 2. **Seed.** Fit the degree measurements and generate a random graph with that degree
//!    sequence.
//! 3. **MCMC.** Run the edge-swap Metropolis–Hastings walk, scoring candidates by
//!    `‖Q(A) − m‖₁` maintained incrementally, and record the trajectory of triangle count
//!    and assortativity on the synthetic graph.

use std::time::Instant;

use rand::Rng;

use wpinq::{BudgetError, PrivacyBudget, WpinqError};
use wpinq_analyses::degree::DegreeMeasurements;
use wpinq_analyses::edges::GraphEdges;
use wpinq_analyses::tbi::TbiMeasurement;
use wpinq_analyses::triangles::TbdMeasurement;
use wpinq_graph::{stats, Graph};

use crate::graph_candidate::GraphCandidate;
use crate::metropolis::{CandidateState, MetropolisHastings, StepOutcome};
use crate::scorers;
use crate::seed::seed_graph_from_measurements;

/// Which triangle query drives Phase 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriangleQuery {
    /// Triangles-by-Degree with the given degree bucket size (Section 5.2; cost 9ε).
    TbD {
        /// Degrees are divided by this bucket size before being reported.
        bucket: u64,
    },
    /// Triangles-by-Intersect (Section 5.3; cost 4ε).
    TbI,
}

impl TriangleQuery {
    /// The privacy multiplicity of the query (how many times it uses the edges).
    pub fn multiplicity(&self) -> u32 {
        match self {
            TriangleQuery::TbD { .. } => 9,
            TriangleQuery::TbI => 4,
        }
    }
}

/// Configuration of a synthesis run.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisConfig {
    /// The per-measurement ε (the paper uses 0.1 in the headline experiments).
    pub epsilon: f64,
    /// The MCMC focusing exponent (the paper uses 10 000).
    pub pow: f64,
    /// Number of MCMC steps to run.
    pub mcmc_steps: u64,
    /// Record a trajectory point every this many steps (0 = only at the end).
    pub record_every: u64,
    /// Which triangle query to fit.
    pub triangle_query: TriangleQuery,
    /// Whether to also score the degree sequence and CCDF during MCMC (harmless — the walk
    /// preserves degrees — but useful when experimenting with other random walks).
    pub score_degrees: bool,
    /// Worker-thread count for the measurement phase's batch evaluation: `0` defers to the
    /// `WPINQ_THREADS` environment variable, `1` forces the sequential executor, `n > 1`
    /// evaluates on an `n`-way [`ShardedExecutor`](wpinq::plan::ShardedExecutor). Every
    /// setting produces bitwise-identical measurements (given the same RNG state).
    pub threads: usize,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            epsilon: 0.1,
            pow: 10_000.0,
            mcmc_steps: 50_000,
            record_every: 5_000,
            triangle_query: TriangleQuery::TbI,
            score_degrees: false,
            threads: 0,
        }
    }
}

impl SynthesisConfig {
    /// Builder-style override of the measurement-phase worker-thread count (see
    /// [`threads`](Self::threads)).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The total privacy cost of the workflow: 3ε for the seed measurements plus the
    /// triangle query's multiplicity times ε (7ε for TbI, 12ε for TbD — the paper's 0.7 and
    /// 1.2 at ε = 0.1).
    pub fn total_privacy_cost(&self) -> f64 {
        (3 + self.triangle_query.multiplicity()) as f64 * self.epsilon
    }
}

/// One recorded point of the MCMC trajectory (the series Figures 3 and 4 plot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// MCMC step at which the snapshot was taken.
    pub step: u64,
    /// Triangle count of the synthetic graph at that step.
    pub triangles: u64,
    /// Assortativity of the synthetic graph at that step.
    pub assortativity: f64,
    /// The scoring energy `‖Q(A) − m‖₁` at that step.
    pub energy: f64,
}

/// The result of a synthesis run.
#[derive(Debug)]
pub struct SynthesisResult {
    /// The final synthetic graph.
    pub synthetic: Graph,
    /// Statistics of the seed graph (step 0 of the trajectory).
    pub seed_summary: stats::GraphSummary,
    /// Statistics of the final synthetic graph.
    pub final_summary: stats::GraphSummary,
    /// Trajectory snapshots, including step 0 and the final step.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Number of accepted swaps.
    pub accepted: u64,
    /// Number of rejected proposals (including invalid swaps).
    pub rejected: u64,
    /// Total privacy cost charged against the protected graph.
    pub privacy_cost: f64,
    /// MCMC steps per second over the whole run.
    pub steps_per_second: f64,
}

/// Runs the full measure → seed → MCMC workflow against a secret graph.
///
/// The secret graph is only used to take the differentially-private measurements at the
/// start; everything after that operates on released values and public synthetic graphs.
pub fn synthesize<R: Rng + ?Sized>(
    secret: &Graph,
    config: &SynthesisConfig,
    rng: &mut R,
) -> Result<SynthesisResult, WpinqError> {
    let budget = PrivacyBudget::new(config.total_privacy_cost() + 1e-9);
    let edges = GraphEdges::new(secret, budget);
    // The thread knob selects the batch execution strategy for the measurement phase;
    // every strategy computes bitwise-identical data, so it cannot perturb releases.
    let queryable = edges
        .queryable()
        .with_executor(wpinq::plan::executor_for_threads(config.threads));

    // Phase 1: degree measurements and seed graph (3ε).
    let degree_measurements = DegreeMeasurements::measure(&queryable, config.epsilon, rng)?;
    let seed = seed_graph_from_measurements(&degree_measurements, rng);

    // Phase 2 measurement: the triangle query.
    enum TriangleMeasurement {
        TbD(TbdMeasurement),
        TbI(TbiMeasurement),
    }
    let triangle_measurement = match config.triangle_query {
        TriangleQuery::TbD { bucket } => TriangleMeasurement::TbD(TbdMeasurement::measure(
            &queryable,
            config.epsilon,
            bucket,
            rng,
        )?),
        TriangleQuery::TbI => {
            TriangleMeasurement::TbI(TbiMeasurement::measure(&queryable, config.epsilon, rng)?)
        }
    };
    let privacy_cost = edges.budget().spent();

    // Build the candidate with its incremental scorers. The secret graph is not used
    // below.
    let score_degrees = config.score_degrees;
    let candidate = GraphCandidate::new(seed.clone(), |flow| {
        let mut sinks = Vec::new();
        match &triangle_measurement {
            TriangleMeasurement::TbD(m) => sinks.push(scorers::tbd_scorer(flow, m)),
            TriangleMeasurement::TbI(m) => sinks.push(scorers::tbi_scorer(flow, m)),
        }
        if score_degrees {
            sinks.push(scorers::degree_ccdf_scorer(flow, &degree_measurements.ccdf));
            sinks.push(scorers::degree_sequence_scorer(
                flow,
                &degree_measurements.sequence,
            ));
        }
        sinks
    });

    let result = run_mcmc(candidate, seed, config, privacy_cost, rng);
    Ok(result)
}

/// Registry name of the cumulative MCMC step counter.
pub const MCMC_STEPS_METRIC: &str = "wpinq_mcmc_steps_total";
/// Registry name of the cumulative accepted-swap counter.
pub const MCMC_ACCEPTED_METRIC: &str = "wpinq_mcmc_accepted_total";
/// Registry name of the scorer-distance (energy) gauge of the current walk.
pub const MCMC_ENERGY_METRIC: &str = "wpinq_mcmc_energy";
/// Registry name of the steps-per-second gauge of the current walk.
pub const MCMC_STEPS_PER_SECOND_METRIC: &str = "wpinq_mcmc_steps_per_second";
/// Registry name of the acceptance-ratio gauge of the current walk.
pub const MCMC_ACCEPTANCE_RATIO_METRIC: &str = "wpinq_mcmc_acceptance_ratio";

/// Publishes one MCMC progress report onto the telemetry registry. Called at the
/// trajectory record points and once at run end — never per step, so the walk's hot
/// loop carries zero telemetry cost. Counters take the *delta* since the previous
/// report (they are process-global and outlive any one run); gauges describe the
/// current walk. Metric handles are cached after first use.
fn report_progress(
    new_steps: u64,
    new_accepted: u64,
    step: u64,
    accepted: u64,
    energy: f64,
    elapsed_secs: f64,
) {
    use std::sync::OnceLock;
    use wpinq_telemetry::{registry, Counter, Gauge};
    struct Handles {
        steps: std::sync::Arc<Counter>,
        accepted: std::sync::Arc<Counter>,
        energy: std::sync::Arc<Gauge>,
        steps_per_second: std::sync::Arc<Gauge>,
        acceptance_ratio: std::sync::Arc<Gauge>,
    }
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| Handles {
        steps: registry().counter(
            MCMC_STEPS_METRIC,
            &[],
            "Metropolis-Hastings steps taken across all synthesis runs.",
        ),
        accepted: registry().counter(
            MCMC_ACCEPTED_METRIC,
            &[],
            "Accepted swaps across all synthesis runs.",
        ),
        energy: registry().gauge(
            MCMC_ENERGY_METRIC,
            &[],
            "Scorer distance (L1 energy) of the current candidate graph.",
        ),
        steps_per_second: registry().gauge(
            MCMC_STEPS_PER_SECOND_METRIC,
            &[],
            "Throughput of the current MCMC walk.",
        ),
        acceptance_ratio: registry().gauge(
            MCMC_ACCEPTANCE_RATIO_METRIC,
            &[],
            "Accepted fraction of proposals in the current MCMC walk so far.",
        ),
    });
    handles.steps.add(new_steps);
    handles.accepted.add(new_accepted);
    handles.energy.set(energy);
    if elapsed_secs > 0.0 {
        handles.steps_per_second.set(step as f64 / elapsed_secs);
    }
    if step > 0 {
        handles.acceptance_ratio.set(accepted as f64 / step as f64);
    }
}

/// Runs the MCMC phase over an already-constructed candidate (used by [`synthesize`] and by
/// benches that want to time the walk in isolation).
pub fn run_mcmc<R: Rng + ?Sized>(
    mut candidate: GraphCandidate,
    seed: Graph,
    config: &SynthesisConfig,
    privacy_cost: f64,
    rng: &mut R,
) -> SynthesisResult {
    let driver = MetropolisHastings::new(config.epsilon, config.pow);
    let seed_summary = stats::summary(&seed);
    let mut trajectory = vec![TrajectoryPoint {
        step: 0,
        triangles: seed_summary.triangles,
        assortativity: seed_summary.assortativity,
        energy: candidate.energy(),
    }];

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut reported = (0u64, 0u64);
    let started = Instant::now();
    for step in 1..=config.mcmc_steps {
        match driver.step(&mut candidate, rng) {
            StepOutcome::Accepted => accepted += 1,
            StepOutcome::Rejected | StepOutcome::NoProposal => rejected += 1,
        }
        if config.record_every > 0 && step % config.record_every == 0 && step != config.mcmc_steps {
            trajectory.push(TrajectoryPoint {
                step,
                triangles: stats::triangle_count(candidate.graph()),
                assortativity: stats::assortativity(candidate.graph()),
                energy: candidate.energy(),
            });
            // Telemetry rides the existing record cadence (the hot step loop itself
            // stays untouched): progress counters plus walk-health gauges.
            report_progress(
                step - reported.0,
                accepted - reported.1,
                step,
                accepted,
                candidate.energy(),
                started.elapsed().as_secs_f64(),
            );
            reported = (step, accepted);
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    report_progress(
        config.mcmc_steps - reported.0,
        accepted - reported.1,
        config.mcmc_steps,
        accepted,
        candidate.energy(),
        elapsed,
    );

    let final_summary = stats::summary(candidate.graph());
    trajectory.push(TrajectoryPoint {
        step: config.mcmc_steps,
        triangles: final_summary.triangles,
        assortativity: final_summary.assortativity,
        energy: candidate.energy(),
    });

    SynthesisResult {
        synthetic: candidate.into_graph(),
        seed_summary,
        final_summary,
        trajectory,
        accepted,
        rejected,
        privacy_cost,
        steps_per_second: config.mcmc_steps as f64 / elapsed,
    }
}

/// Convenience: the error type raised when a synthesis run exceeds its planned budget
/// (should not happen — the workflow sizes the budget from the configuration).
pub fn budget_error(requested: f64, remaining: f64) -> WpinqError {
    WpinqError::BudgetExceeded(BudgetError {
        requested,
        remaining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wpinq_graph::generators;

    #[test]
    fn privacy_cost_matches_the_paper() {
        let tbi = SynthesisConfig {
            epsilon: 0.1,
            triangle_query: TriangleQuery::TbI,
            ..SynthesisConfig::default()
        };
        assert!((tbi.total_privacy_cost() - 0.7).abs() < 1e-12);
        let tbd = SynthesisConfig {
            epsilon: 0.1,
            triangle_query: TriangleQuery::TbD { bucket: 20 },
            ..SynthesisConfig::default()
        };
        assert!((tbd.total_privacy_cost() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn synthesis_recovers_triangles_on_a_small_graph() {
        let mut rng = StdRng::seed_from_u64(11);
        let secret = generators::powerlaw_cluster(80, 3, 0.9, &mut rng);
        let config = SynthesisConfig {
            epsilon: 2.0,
            pow: 1_000.0,
            mcmc_steps: 6_000,
            record_every: 2_000,
            triangle_query: TriangleQuery::TbI,
            score_degrees: false,
            threads: 0,
        };
        let result = synthesize(&secret, &config, &mut rng).unwrap();
        // The privacy cost is exactly what the configuration promised.
        assert!((result.privacy_cost - config.total_privacy_cost()).abs() < 1e-9);
        // The seed has (far) fewer triangles than the secret graph; MCMC recovers a chunk.
        let secret_triangles = stats::triangle_count(&secret);
        assert!(result.seed_summary.triangles < secret_triangles);
        assert!(
            result.final_summary.triangles > result.seed_summary.triangles,
            "triangles did not increase: {} -> {}",
            result.seed_summary.triangles,
            result.final_summary.triangles
        );
        // The trajectory includes the endpoints and is recorded in step order.
        assert!(result.trajectory.len() >= 3);
        assert_eq!(result.trajectory.first().unwrap().step, 0);
        assert_eq!(result.trajectory.last().unwrap().step, config.mcmc_steps);
        assert!(result.trajectory.windows(2).all(|w| w[0].step < w[1].step));
        assert!(result.steps_per_second > 0.0);
        assert!(result.accepted > 0);
        // The edge-swap walk preserves the seed's degree structure.
        assert_eq!(result.final_summary.edges, result.seed_summary.edges);
        assert_eq!(
            result.final_summary.max_degree,
            result.seed_summary.max_degree
        );
        assert_eq!(
            result.final_summary.sum_degree_squares,
            result.seed_summary.sum_degree_squares
        );
    }

    #[test]
    fn tbd_synthesis_runs_and_reports_energy() {
        let mut rng = StdRng::seed_from_u64(13);
        let secret = generators::powerlaw_cluster(50, 3, 0.8, &mut rng);
        let config = SynthesisConfig {
            epsilon: 1.0,
            pow: 1_000.0,
            mcmc_steps: 1_000,
            record_every: 500,
            triangle_query: TriangleQuery::TbD { bucket: 4 },
            score_degrees: true,
            threads: 0,
        };
        let result = synthesize(&secret, &config, &mut rng).unwrap();
        assert!((result.privacy_cost - 12.0).abs() < 1e-9);
        assert!(result.trajectory.iter().all(|p| p.energy.is_finite()));
    }
}

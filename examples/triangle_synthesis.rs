//! End-to-end private graph synthesis (the Section 5 workflow).
//!
//! Measures a synthetic collaboration graph with the Phase-1 degree queries plus the
//! Triangles-by-Intersect query (total privacy cost 7·epsilon), then runs the edge-swap
//! MCMC to produce a synthetic graph fitting those measurements, and reports how well the
//! synthetic graph reproduces statistics that were never queried directly.
//!
//! Run with `cargo run --release --example triangle_synthesis [-- steps]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_graph::stats;
use wpinq_mcmc::{SynthesisConfig, TriangleQuery};

fn main() {
    let steps: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000);

    // The "secret" graph: a reduced-scale collaboration network.
    let mut gen_rng = StdRng::seed_from_u64(3);
    let secret =
        wpinq_datasets::collaboration::collaboration_graph(1_200, 700, 2..=7, &mut gen_rng);
    let secret_stats = stats::summary(&secret);
    println!(
        "secret graph: {} nodes, {} edges, {} triangles, assortativity {:.3}",
        secret_stats.nodes, secret_stats.edges, secret_stats.triangles, secret_stats.assortativity
    );

    let config = SynthesisConfig {
        epsilon: 0.1,
        pow: 10_000.0,
        mcmc_steps: steps,
        record_every: steps / 8,
        triangle_query: TriangleQuery::TbI,
        score_degrees: false,
        threads: 0,
    };
    println!(
        "measuring with epsilon = {} (total privacy cost {:.1}), then running {} MCMC steps…",
        config.epsilon,
        config.total_privacy_cost(),
        config.mcmc_steps
    );

    let mut rng = StdRng::seed_from_u64(42);
    let result = wpinq_mcmc::synthesis::synthesize(&secret, &config, &mut rng)
        .expect("workflow stays within its planned budget");

    println!("\ntrajectory (step, triangles, assortativity, energy):");
    for point in &result.trajectory {
        println!(
            "  {:>8}  {:>8}  {:>7.3}  {:>10.2}",
            point.step, point.triangles, point.assortativity, point.energy
        );
    }

    println!("\nsummary:");
    println!(
        "  seed graph:      {:>8} triangles, assortativity {:>6.3}",
        result.seed_summary.triangles, result.seed_summary.assortativity
    );
    println!(
        "  synthetic graph: {:>8} triangles, assortativity {:>6.3}",
        result.final_summary.triangles, result.final_summary.assortativity
    );
    println!(
        "  secret graph:    {:>8} triangles, assortativity {:>6.3}",
        secret_stats.triangles, secret_stats.assortativity
    );
    println!(
        "  accepted {} swaps, {:.0} MCMC steps/second, privacy cost {:.2}",
        result.accepted, result.steps_per_second, result.privacy_cost
    );
}

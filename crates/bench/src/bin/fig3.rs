//! Figure 3: TbD-driven MCMC on CA-GrQc and Random(GrQc), with and without degree
//! bucketing (k = 20).
//!
//! Paper parameters: ε = 0.1 (seed 3ε + TbD 9ε = 1.2 total), 5×10⁶ steps. Defaults here:
//! reduced-scale GrQc stand-in and 40 000 steps. The qualitative result being reproduced:
//! without bucketing the TbD signal is buried in noise and MCMC barely separates the real
//! graph from the random one; with bucketing the separation appears.

use bench::report::{fmt_count, fmt_f, heading, Table};
use bench::{smallsets, HarnessArgs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_graph::stats;
use wpinq_mcmc::{SynthesisConfig, SynthesisResult, TriangleQuery};

fn run(
    graph: &wpinq_graph::Graph,
    bucket: u64,
    seed: u64,
    steps: u64,
    epsilon: f64,
    threads: usize,
) -> SynthesisResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = SynthesisConfig {
        epsilon,
        pow: 10_000.0,
        mcmc_steps: steps,
        record_every: (steps / 8).max(1),
        triangle_query: TriangleQuery::TbD { bucket },
        score_degrees: false,
        threads,
    };
    wpinq_mcmc::synthesis::synthesize(graph, &config, &mut rng).expect("synthesis within budget")
}

fn main() {
    let args = HarnessArgs::from_env();
    let steps = args.steps_or(40_000);
    let epsilon = args.epsilon_or(0.1);
    heading(&format!(
        "Figure 3 — TbD with and without bucketing on GrQc vs Random(GrQc) (epsilon = {epsilon}, {steps} steps)"
    ));

    let grqc = if args.full_scale {
        wpinq_datasets::ca_grqc()
    } else {
        smallsets::grqc_small()
    };
    let random = smallsets::randomized(&grqc, 77);
    println!(
        "GrQc stand-in: {} triangles, r = {:.3}; Random(GrQc): {} triangles, r = {:.3}",
        stats::triangle_count(&grqc),
        stats::assortativity(&grqc),
        stats::triangle_count(&random),
        stats::assortativity(&random),
    );
    println!();

    for (label, bucket) in [("no bucketing (k = 1)", 1u64), ("bucketed (k = 20)", 20)] {
        println!("-- {label} --");
        let real = run(
            &grqc,
            bucket,
            args.seed,
            steps,
            epsilon,
            args.threads_or_env(),
        );
        let rand_run = run(
            &random,
            bucket,
            args.seed + 1,
            steps,
            epsilon,
            args.threads_or_env(),
        );
        let mut table = Table::new([
            "step",
            "triangles (real)",
            "assortativity (real)",
            "triangles (random)",
            "assortativity (random)",
        ]);
        for (a, b) in real.trajectory.iter().zip(rand_run.trajectory.iter()) {
            table.row([
                fmt_count(a.step),
                fmt_count(a.triangles),
                fmt_f(a.assortativity, 3),
                fmt_count(b.triangles),
                fmt_f(b.assortativity, 3),
            ]);
        }
        table.print();
        println!();
    }
    println!("Shape check: with bucketing, the trajectory fed by the real graph's measurements");
    println!("acquires more triangles than the one fed by the random graph's; without bucketing");
    println!("the two remain hard to distinguish (the per-triple signal is below the noise).");
}

//! Figure 5: sensitivity of the TbI workflow to the privacy parameter ε.
//!
//! The paper repeats the GrQc/Random(GrQc) experiment for ε ∈ {0.01, 0.1, 1, 10} (total
//! cost 7ε) with five repetitions per setting and finds the behaviour essentially
//! unchanged, because the TbI signal is large relative to Laplace(1/ε) noise even at small
//! ε. The harness reports the mean and standard deviation of the final triangle count.

use bench::report::{fmt_count, fmt_f, heading, Table};
use bench::{smallsets, HarnessArgs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_graph::stats;
use wpinq_mcmc::{SynthesisConfig, TriangleQuery};

fn main() {
    let args = HarnessArgs::from_env();
    let steps = args.steps_or(30_000);
    let repeats = 5;
    heading(&format!(
        "Figure 5 — TbI synthesis for epsilon in {{0.01, 0.1, 1, 10}} ({steps} steps, {repeats} repeats)"
    ));

    let grqc = if args.full_scale {
        wpinq_datasets::ca_grqc()
    } else {
        smallsets::grqc_small()
    };
    let random = smallsets::randomized(&grqc, 55);
    println!(
        "GrQc stand-in triangles: {}; Random(GrQc) triangles: {}",
        stats::triangle_count(&grqc),
        stats::triangle_count(&random)
    );
    println!();

    let mut table = Table::new([
        "epsilon",
        "input",
        "final triangles (mean)",
        "std dev",
        "seed triangles (mean)",
    ]);
    for epsilon in [0.01, 0.1, 1.0, 10.0] {
        for (label, graph) in [("real", &grqc), ("random", &random)] {
            let mut finals = Vec::new();
            let mut seeds = Vec::new();
            for repeat in 0..repeats {
                let mut rng = StdRng::seed_from_u64(args.seed + repeat);
                let config = SynthesisConfig {
                    epsilon,
                    pow: 10_000.0,
                    mcmc_steps: steps,
                    record_every: 0,
                    triangle_query: TriangleQuery::TbI,
                    score_degrees: false,
                    threads: args.threads_or_env(),
                };
                let result = wpinq_mcmc::synthesis::synthesize(graph, &config, &mut rng)
                    .expect("synthesis within budget");
                finals.push(result.final_summary.triangles as f64);
                seeds.push(result.seed_summary.triangles as f64);
            }
            let mean = finals.iter().sum::<f64>() / finals.len() as f64;
            let var =
                finals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / finals.len() as f64;
            let seed_mean = seeds.iter().sum::<f64>() / seeds.len() as f64;
            table.row([
                fmt_f(epsilon, 2),
                label.to_string(),
                fmt_count(mean.round() as u64),
                fmt_f(var.sqrt(), 1),
                fmt_count(seed_mean.round() as u64),
            ]);
        }
    }
    table.print();
    println!();
    println!("Shape check: the mean recovered triangle count on the real graph is roughly flat in");
    println!(
        "epsilon (the TbI signal dominates the noise), with variance growing as epsilon shrinks;"
    );
    println!("the random graph stays near its seed count at every epsilon.");
}

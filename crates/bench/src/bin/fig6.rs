//! Figure 6: scalability of the incremental TbI engine.
//!
//! Left panel: memory footprint and MCMC step rate as a function of Σd² over the
//! Barabási–Albert suite. Right panel (with `--epinions`): the TbI trajectory on the
//! Epinions stand-in vs its random counterpart. The paper's absolute numbers (25–50 GB,
//! 10–80 steps/s at 100k nodes / 2M edges) are specific to their hardware and full-size
//! graphs; the shape — memory up and step rate down as Σd² grows — is what is reproduced.

use bench::memory::{fmt_bytes, measure_growth};
use bench::report::{fmt_count, fmt_f, heading, Table};
use bench::{smallsets, HarnessArgs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_graph::stats;
use wpinq_mcmc::{SynthesisConfig, TriangleQuery};

fn main() {
    let args = HarnessArgs::from_env();
    let steps = args.steps_or(5_000);
    let epsilon = args.epsilon_or(0.1);
    heading("Figure 6 (left) — TbI engine: memory and step rate vs sum of squared degrees");

    // A reduced Barabási–Albert suite so the sweep completes quickly; the paper's suite is
    // 100k nodes / 2M edges per graph.
    let (nodes, per_node) = if args.full_scale {
        (10_000, 20)
    } else {
        (3_000, 10)
    };
    let suite = wpinq_datasets::registry::barabasi_suite_scaled(nodes, per_node);

    let mut table = Table::new([
        "beta",
        "sum d^2 (measured)",
        "sum d^2 (paper, full scale)",
        "MCMC steps/s",
        "memory growth",
    ]);
    for entry in suite {
        let sum_sq = stats::sum_degree_squares(&entry.graph);
        let mut rng = StdRng::seed_from_u64(args.seed);
        let config = SynthesisConfig {
            epsilon,
            pow: 10_000.0,
            mcmc_steps: steps,
            record_every: 0,
            triangle_query: TriangleQuery::TbI,
            score_degrees: false,
            threads: args.threads_or_env(),
        };
        let (result, growth) = measure_growth(|| {
            wpinq_mcmc::synthesis::synthesize(&entry.graph, &config, &mut rng)
                .expect("synthesis within budget")
        });
        table.row([
            fmt_f(entry.beta, 2),
            fmt_count(sum_sq),
            fmt_count(entry.paper_sum_degree_squares),
            fmt_f(result.steps_per_second, 0),
            fmt_bytes(growth),
        ]);
    }
    table.print();
    println!();
    println!(
        "Shape check: as beta (and with it sum d^2) grows, the step rate falls and the memory"
    );
    println!(
        "needed by the incremental join/intersect state rises — the trend of Figure 6 (left)."
    );

    if args.epinions {
        heading("Figure 6 (right) — TbI on the Epinions stand-in vs Random(Epinions)");
        let epinions = if args.full_scale {
            wpinq_datasets::epinions()
        } else {
            smallsets::epinions_small()
        };
        let random = smallsets::randomized(&epinions, 3);
        let mut table = Table::new(["step", "triangles (Epinions)", "triangles (Random)"]);
        let run = |graph: &wpinq_graph::Graph, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = SynthesisConfig {
                epsilon,
                pow: 10_000.0,
                mcmc_steps: steps.max(20_000),
                record_every: (steps.max(20_000) / 10).max(1),
                triangle_query: TriangleQuery::TbI,
                score_degrees: false,
                threads: args.threads_or_env(),
            };
            wpinq_mcmc::synthesis::synthesize(graph, &config, &mut rng)
                .expect("synthesis within budget")
        };
        let real = run(&epinions, args.seed);
        let rand_run = run(&random, args.seed + 1);
        for (a, b) in real.trajectory.iter().zip(rand_run.trajectory.iter()) {
            table.row([
                fmt_count(a.step),
                fmt_count(a.triangles),
                fmt_count(b.triangles),
            ]);
        }
        table.print();
        println!();
        println!(
            "Original triangle counts — Epinions stand-in: {}, Random: {}",
            stats::triangle_count(&epinions),
            stats::triangle_count(&random)
        );
    }
}

//! Table 2: triangle counts before MCMC (seed), after MCMC with the TbI query, and in the
//! original graph, for the four collaboration/social graphs.
//!
//! Paper parameters: ε = 0.1, pow = 10 000, 5×10⁶ MCMC steps. The harness defaults to the
//! reduced-scale stand-ins and 150 000 steps (`--scale full --steps N` to override); the
//! shape — MCMC recovering a large share of the triangles the random seed lost — is the
//! result being reproduced.

use bench::report::{fmt_count, heading, Table};
use bench::{smallsets, HarnessArgs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_graph::stats;
use wpinq_mcmc::{SynthesisConfig, TriangleQuery};

fn main() {
    let args = HarnessArgs::from_env();
    let steps = args.steps_or(150_000);
    let epsilon = args.epsilon_or(0.1);
    heading(&format!(
        "Table 2 — triangles: seed vs MCMC (TbI) vs original (epsilon = {epsilon}, {steps} steps, total privacy cost 7·epsilon)"
    ));

    let mut table = Table::new([
        "graph",
        "seed",
        "after MCMC",
        "original",
        "paper (seed/MCMC/orig)",
    ]);
    let paper_rows = [
        ("CA-GrQc", "643 / 35,201 / 48,260"),
        ("CA-HepTh", "222 / 16,889 / 28,339"),
        ("CA-HepPh", "248,629 / 2,723,633 / 3,358,499"),
        ("Caltech", "45,170 / 129,475 / 119,563"),
    ];

    for (index, (name, graph)) in smallsets::figure4_graphs(args.full_scale)
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(args.seed + index as u64);
        let config = SynthesisConfig {
            epsilon,
            pow: 10_000.0,
            mcmc_steps: steps,
            record_every: 0,
            triangle_query: TriangleQuery::TbI,
            score_degrees: false,
            threads: args.threads_or_env(),
        };
        let result = wpinq_mcmc::synthesis::synthesize(&graph, &config, &mut rng)
            .expect("synthesis within budget");
        table.row([
            name.to_string(),
            fmt_count(result.seed_summary.triangles),
            fmt_count(result.final_summary.triangles),
            fmt_count(stats::triangle_count(&graph)),
            paper_rows
                .iter()
                .find(|(paper_name, _)| name.starts_with(paper_name))
                .map(|(_, row)| row.to_string())
                .unwrap_or_default(),
        ]);
        eprintln!(
            "  [{name}] accepted {} / rejected {} swaps, {:.0} steps/s, privacy cost {:.2}",
            result.accepted, result.rejected, result.steps_per_second, result.privacy_cost
        );
    }
    table.print();
    println!();
    println!("Shape check: the seed graph has far fewer triangles than the original; MCMC against");
    println!("the TbI measurement recovers a large share of them, as in the paper's Table 2.");
}

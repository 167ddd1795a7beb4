//! Property tests: incremental evaluation ≡ batch evaluation.
//!
//! For a random sequence of weight deltas pushed one at a time through a dataflow, every
//! sink must equal the corresponding batch operator applied to the accumulated input. This
//! is the correctness contract that lets the MCMC engine trust delta updates instead of
//! re-running queries from scratch (Section 4.3).
//!
//! Two layers are exercised:
//!
//! * the hand-built `Stream` combinators (the original tests below), and
//! * random multi-operator [`Plan`]s from the `wpinq` IR, where the *same* plan value is
//!   batch-evaluated and incrementally lowered — the end-to-end contract the plan layer
//!   gives every consumer (see `random_plans_agree_between_batch_and_incremental`).

use std::collections::HashMap;

use proptest::prelude::*;
use wpinq::operators as batch;
use wpinq::plan::{Plan, PlanBindings, StreamBindings};
use wpinq::WeightedDataset;
use wpinq_dataflow::{DataflowInput, Delta};

/// A random sequence of deltas over a small record domain.
fn delta_sequence() -> impl Strategy<Value = Vec<Delta<u32>>> {
    proptest::collection::vec((0u32..12, -2.0f64..2.0), 1..40)
}

/// A random sequence of unit-weight edge insertions/removals over a tiny node set.
fn edge_delta_sequence() -> impl Strategy<Value = Vec<Delta<(u32, u32)>>> {
    proptest::collection::vec(((0u32..6, 0u32..6), prop::bool::ANY), 1..30).prop_map(|raw| {
        raw.into_iter()
            .filter(|((a, b), _)| a != b)
            .map(|((a, b), add)| ((a, b), if add { 1.0 } else { -1.0 }))
            .collect()
    })
}

fn accumulate(deltas: &[Delta<u32>]) -> WeightedDataset<u32> {
    let mut d = WeightedDataset::new();
    for (r, w) in deltas {
        d.add_weight(*r, *w);
    }
    d
}

// ---------------------------------------------------------------------------------------
// Random multi-operator plans
// ---------------------------------------------------------------------------------------

/// One instruction of the random plan builder. A program is interpreted over a stack of
/// `Plan<u32>` values seeded with the source plan, so random programs produce arbitrarily
/// shaped operator DAGs — including *shared* subplans (via `Dup`) and self-joins — while
/// every intermediate stays at record type `u32`.
#[derive(Debug, Clone)]
enum PlanOp {
    /// Push another reference to the source (multiplicities beyond 1).
    PushSource,
    /// Push a duplicate of the top plan (shared-subplan DAGs).
    Dup,
    Select(u32),
    Filter(u32),
    SelectMany(u32),
    GroupBy(u32),
    Shave,
    Join(u32),
    Union,
    Intersect,
    Concat,
    Except,
}

fn plan_op() -> impl Strategy<Value = PlanOp> {
    (0u8..12, 1u32..6).prop_map(|(op, k)| match op {
        0 => PlanOp::PushSource,
        1 => PlanOp::Dup,
        2 => PlanOp::Select(k),
        3 => PlanOp::Filter(k),
        4 => PlanOp::SelectMany(k),
        5 => PlanOp::GroupBy(k),
        6 => PlanOp::Shave,
        7 => PlanOp::Join(k),
        8 => PlanOp::Union,
        9 => PlanOp::Intersect,
        10 => PlanOp::Concat,
        _ => PlanOp::Except,
    })
}

/// Builds a `Plan<u32>` from a random program. Binary instructions are skipped when the
/// stack holds a single plan; the final plan is the top of the stack.
fn build_plan(source: &Plan<u32>, program: &[PlanOp]) -> Plan<u32> {
    let mut stack: Vec<Plan<u32>> = vec![source.clone()];
    for op in program {
        match op {
            PlanOp::PushSource => stack.push(source.clone()),
            PlanOp::Dup => {
                let top = stack.last().expect("stack never empties").clone();
                stack.push(top);
            }
            PlanOp::Select(k) => {
                let m = 2 + *k;
                let top = stack.pop().unwrap();
                stack.push(top.select(move |x| x % m));
            }
            PlanOp::Filter(k) => {
                let m = 1 + *k;
                let top = stack.pop().unwrap();
                stack.push(top.filter(move |x| x % m != 0));
            }
            PlanOp::SelectMany(k) => {
                let m = 1 + *k % 4;
                let top = stack.pop().unwrap();
                stack.push(top.select_many_unit(move |x| (0..(x % m)).collect::<Vec<_>>()));
            }
            PlanOp::GroupBy(k) => {
                let m = 1 + *k;
                let top = stack.pop().unwrap();
                stack.push(
                    top.group_by(move |x| x % m, |g| g.len() as u64)
                        .select(|(key, count)| key.wrapping_mul(31).wrapping_add(*count as u32)),
                );
            }
            PlanOp::Shave => {
                let top = stack.pop().unwrap();
                stack.push(
                    top.shave_const(1.0)
                        .select(|(x, i)| x.wrapping_mul(17).wrapping_add(*i as u32)),
                );
            }
            PlanOp::Join(k) => {
                if stack.len() < 2 {
                    continue;
                }
                let m = 1 + *k;
                let right = stack.pop().unwrap();
                let left = stack.pop().unwrap();
                stack.push(left.join(
                    &right,
                    move |x| x % m,
                    move |y| y % m,
                    |x, y| x.wrapping_mul(7).wrapping_add(*y),
                ));
            }
            PlanOp::Union | PlanOp::Intersect | PlanOp::Concat | PlanOp::Except => {
                if stack.len() < 2 {
                    continue;
                }
                let right = stack.pop().unwrap();
                let left = stack.pop().unwrap();
                stack.push(match op {
                    PlanOp::Union => left.union(&right),
                    PlanOp::Intersect => left.intersect(&right),
                    PlanOp::Concat => left.concat(&right),
                    _ => left.except(&right),
                });
            }
        }
    }
    stack.pop().expect("stack never empties")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn select_filter_pipeline_equivalence(deltas in delta_sequence()) {
        let (input, stream) = DataflowInput::<u32>::new();
        let out = stream.select(|x| x % 5).filter(|x| *x != 2).collect();
        for d in &deltas {
            input.push(std::slice::from_ref(d));
        }
        let acc = accumulate(&deltas);
        let expected = batch::filter(&batch::select(&acc, |x| x % 5), |x| *x != 2);
        prop_assert!(out.snapshot().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn select_many_equivalence(deltas in delta_sequence()) {
        let (input, stream) = DataflowInput::<u32>::new();
        let out = stream.select_many_unit(|x| (0..(x % 4)).collect::<Vec<_>>()).collect();
        for d in &deltas {
            input.push(std::slice::from_ref(d));
        }
        let acc = accumulate(&deltas);
        let expected = batch::select_many_unit(&acc, |x| (0..(x % 4)).collect::<Vec<_>>());
        prop_assert!(out.snapshot().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn shave_equivalence(deltas in delta_sequence()) {
        let (input, stream) = DataflowInput::<u32>::new();
        let out = stream.shave_const(1.0).collect();
        for d in &deltas {
            input.push(std::slice::from_ref(d));
        }
        let expected = batch::shave_const(&accumulate(&deltas), 1.0);
        prop_assert!(out.snapshot().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn group_by_equivalence(deltas in delta_sequence()) {
        let (input, stream) = DataflowInput::<u32>::new();
        let out = stream.group_by(|x| x % 3, |g| g.len() as u64).collect();
        for d in &deltas {
            input.push(std::slice::from_ref(d));
        }
        let expected = batch::group_by(&accumulate(&deltas), |x| x % 3, |g| g.len() as u64);
        prop_assert!(out.snapshot().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn join_of_two_inputs_equivalence(left in delta_sequence(), right in delta_sequence()) {
        let (in_a, a) = DataflowInput::<u32>::new();
        let (in_b, b) = DataflowInput::<u32>::new();
        let out = a.join(&b, |x| x % 3, |x| x % 3, |x, y| (*x, *y)).collect();
        // Interleave the two inputs.
        let max_len = left.len().max(right.len());
        for i in 0..max_len {
            if let Some(d) = left.get(i) {
                in_a.push(std::slice::from_ref(d));
            }
            if let Some(d) = right.get(i) {
                in_b.push(std::slice::from_ref(d));
            }
        }
        let expected = batch::join(
            &accumulate(&left),
            &accumulate(&right),
            |x| x % 3,
            |x| x % 3,
            |x, y| (*x, *y),
        );
        prop_assert!(out.snapshot().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn set_operators_equivalence(left in delta_sequence(), right in delta_sequence()) {
        let (in_a, a) = DataflowInput::<u32>::new();
        let (in_b, b) = DataflowInput::<u32>::new();
        let union = a.union(&b).collect();
        let inter = a.intersect(&b).collect();
        let concat = a.concat(&b).collect();
        let except = a.except(&b).collect();
        for d in &left {
            in_a.push(std::slice::from_ref(d));
        }
        for d in &right {
            in_b.push(std::slice::from_ref(d));
        }
        let (da, db) = (accumulate(&left), accumulate(&right));
        prop_assert!(union.snapshot().approx_eq(&batch::union(&da, &db), 1e-6));
        prop_assert!(inter.snapshot().approx_eq(&batch::intersect(&da, &db), 1e-6));
        prop_assert!(concat.snapshot().approx_eq(&batch::concat(&da, &db), 1e-6));
        prop_assert!(except.snapshot().approx_eq(&batch::except(&da, &db), 1e-6));
    }

    #[test]
    fn triangle_like_pipeline_equivalence(deltas in edge_delta_sequence()) {
        // A miniature Triangles-by-Intersect pipeline: symmetric edges → length-two paths →
        // rotate → intersect, exercising join + select + filter + intersect together.
        let (input, edges) = DataflowInput::<(u32, u32)>::new();
        let paths = edges
            .join(&edges, |e| e.1, |e| e.0, |x, y| (x.0, x.1, y.1))
            .filter(|p| p.0 != p.2);
        let rotated = paths.select(|p| (p.1, p.2, p.0));
        let triangles = rotated.intersect(&paths).collect();

        let mut acc = WeightedDataset::new();
        for d in &deltas {
            // Keep edge weights in {0, 1} (a simple graph) by skipping no-op removals and
            // duplicate insertions, mirroring how the MCMC random walk mutates graphs.
            let current = acc.weight(&d.0);
            if d.1 > 0.0 && current > 0.5 {
                continue;
            }
            if d.1 < 0.0 && current < 0.5 {
                continue;
            }
            acc.add_weight(d.0, d.1);
            input.push(std::slice::from_ref(d));
        }

        let batch_paths = batch::filter(
            &batch::join(&acc, &acc, |e| e.1, |e| e.0, |x, y| (x.0, x.1, y.1)),
            |p| p.0 != p.2,
        );
        let batch_rotated = batch::select(&batch_paths, |p| (p.1, p.2, p.0));
        let expected = batch::intersect(&batch_rotated, &batch_paths);
        prop_assert!(triangles.snapshot().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn random_plans_agree_between_batch_and_incremental(
        program in proptest::collection::vec(plan_op(), 1..10),
        deltas in delta_sequence(),
    ) {
        let source = Plan::<u32>::source();
        let plan = build_plan(&source, &program);

        // Incremental: lower the plan onto a delta stream and feed deltas one at a time.
        let (input, stream) = DataflowInput::<u32>::new();
        let mut streams = StreamBindings::new();
        streams.bind(&source, stream);
        let lowered = plan.lower(&streams).collect();
        for d in &deltas {
            input.push(std::slice::from_ref(d));
        }

        // Batch: evaluate the very same plan value over the accumulated input.
        let mut bindings = PlanBindings::new();
        bindings.bind(&source, accumulate(&deltas));
        let expected = plan.eval(&bindings);

        prop_assert!(
            lowered.snapshot().approx_eq(&expected, 1e-6),
            "plan {program:?} diverged: incremental norm {} vs batch norm {}",
            lowered.snapshot().norm(),
            expected.norm()
        );
    }

    #[test]
    fn full_loads_agree_bitwise_between_batch_and_incremental_engine(
        program in proptest::collection::vec(plan_op(), 1..10),
        deltas in delta_sequence(),
    ) {
        // Loading a dataset into a lowered graph as one batch reproduces the batch
        // evaluator's output exactly — bit for bit (canonical consolidation aligns every
        // float-summation grouping, including the join's two-level per-key
        // accumulation). This is the "releases are bitwise engine-independent" guarantee
        // for the measurement phase.
        let source = Plan::<u32>::source();
        let plan = build_plan(&source, &program);
        let data = accumulate(&deltas);

        let mut bindings = PlanBindings::new();
        bindings.bind(&source, data.clone());
        let expected = plan.eval(&bindings);

        let (seq_input, seq_stream) = DataflowInput::<u32>::new();
        let mut seq_streams = StreamBindings::new();
        seq_streams.bind(&source, seq_stream);
        let seq_out = plan.lower(&seq_streams).collect();
        seq_input.push_dataset(&data);
        let seq_snapshot = seq_out.snapshot();
        prop_assert_eq!(seq_snapshot.len(), expected.len(), "sequential record set diverged");
        for (record, weight) in expected.iter() {
            prop_assert_eq!(
                weight.to_bits(),
                seq_snapshot.weight(record).to_bits(),
                "plan {:?}: sequential-incremental weight of {:?} differs from batch",
                &program, record
            );
        }
    }

    #[test]
    fn random_plan_scorers_track_batch_distance(
        program in proptest::collection::vec(plan_op(), 1..8),
        deltas in delta_sequence(),
    ) {
        let source = Plan::<u32>::source();
        let plan = build_plan(&source, &program);
        let targets: HashMap<u32, f64> = (0u32..6).map(|i| (i, i as f64 / 2.0)).collect();

        let (input, stream) = DataflowInput::<u32>::new();
        let mut streams = StreamBindings::new();
        streams.bind(&source, stream);
        let scorer = plan.lower(&streams).l1_scorer(targets.clone());
        for d in &deltas {
            input.push(std::slice::from_ref(d));
        }
        prop_assert!((scorer.distance() - scorer.recompute_distance()).abs() < 1e-6);

        let mut bindings = PlanBindings::new();
        bindings.bind(&source, accumulate(&deltas));
        let q = plan.eval(&bindings);
        let mut expected = 0.0;
        for (r, m) in &targets {
            expected += (q.weight(r) - m).abs();
        }
        for (r, w) in q.iter() {
            if !targets.contains_key(r) {
                expected += w.abs();
            }
        }
        prop_assert!(
            (scorer.distance() - expected).abs() < 1e-6,
            "plan {program:?}: scorer {} vs batch distance {expected}",
            scorer.distance()
        );
    }

    #[test]
    fn scorer_equals_recomputed_distance(deltas in delta_sequence()) {
        let (input, stream) = DataflowInput::<u32>::new();
        let target: HashMap<u32, f64> = (0u32..5).map(|i| (i, i as f64)).collect();
        let scorer = stream.select(|x| x % 5).l1_scorer(target.clone());
        for d in &deltas {
            input.push(std::slice::from_ref(d));
        }
        prop_assert!((scorer.distance() - scorer.recompute_distance()).abs() < 1e-6);

        // And the distance matches a from-scratch evaluation of ‖Q(A) − m‖₁.
        let q = batch::select(&accumulate(&deltas), |x| x % 5);
        let mut expected = 0.0;
        for (r, m) in &target {
            expected += (q.weight(r) - m).abs();
        }
        for (r, w) in q.iter() {
            if !target.contains_key(r) {
                expected += w.abs();
            }
        }
        prop_assert!((scorer.distance() - expected).abs() < 1e-6);
    }
}

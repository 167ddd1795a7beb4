//! Property tests: sharded evaluation ≡ sequential evaluation, **bitwise**.
//!
//! The `ShardedExecutor` promises more than approximate agreement: because every operator
//! resolves colliding float contributions in the canonical order of
//! `wpinq_core::accumulate`, a plan evaluated over `n` hash shards must produce the *same
//! bits* as the sequential reference fold, for every shard count. This file drives random
//! multi-operator plans (the same stack-program builder style as the batch ≡ incremental
//! tests in `wpinq-dataflow/tests/equivalence.rs`) over random delta-bound datasets and
//! asserts exact `WeightedDataset` equality (`==` compares weights with `f64::eq`).
//!
//! Exact equality is what makes the executor swappable mid-experiment: released
//! measurements, MCMC energies and regression baselines cannot drift when the thread
//! count changes.

use proptest::prelude::*;
use wpinq::plan::{Plan, PlanBindings, SequentialExecutor, ShardedExecutor};
use wpinq::WeightedDataset;

/// Shard counts every property is checked against.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// A random delta-bound dataset: a sequence of signed weight deltas over a small record
/// domain, accumulated into a weighted dataset (mirroring how the incremental engine's
/// inputs evolve, including negative and near-cancelled weights).
fn delta_dataset() -> impl Strategy<Value = WeightedDataset<u32>> {
    proptest::collection::vec((0u32..16, -2.0f64..2.0), 1..50).prop_map(|deltas| {
        let mut data = WeightedDataset::new();
        for (record, delta) in deltas {
            data.add_weight(record, delta);
        }
        data
    })
}

/// One instruction of the random plan builder (see the dataflow equivalence tests for the
/// original): programs are interpreted over a stack of `Plan<u32>` values, so random
/// programs produce arbitrarily shaped DAGs including shared subplans and self-joins.
#[derive(Debug, Clone)]
enum PlanOp {
    PushSource,
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

/// Asserts bitwise dataset equality with a per-record diagnostic.
fn assert_bitwise_eq(sharded: &WeightedDataset<u32>, sequential: &WeightedDataset<u32>, n: usize) {
    assert_eq!(
        sharded.len(),
        sequential.len(),
        "{n}-shard evaluation has a different record set"
    );
    for (record, weight) in sequential.iter() {
        assert_eq!(
            weight.to_bits(),
            sharded.weight(record).to_bits(),
            "{n}-shard weight of record {record} differs from sequential \
             ({} vs {weight})",
            sharded.weight(record),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multi-operator plans over one source evaluate bitwise-identically under
    /// every shard count.
    #[test]
    fn random_plans_are_bitwise_identical_across_executors(
        program in proptest::collection::vec(plan_op(), 1..10),
        data in delta_dataset(),
    ) {
        let source = Plan::<u32>::source();
        let plan = build_plan(&source, &program);
        let mut bindings = PlanBindings::new();
        bindings.bind(&source, data);
        let sequential = plan.eval_with(&bindings, &SequentialExecutor);
        for n in SHARD_COUNTS {
            let sharded = plan.eval_with(&bindings, &ShardedExecutor::new(n));
            assert_bitwise_eq(&sharded, &sequential, n);
        }
    }

    /// Two independent sources flowing into a join followed by a random unary tail stay
    /// bitwise identical (exercises the two-input exchange with distinct partitions).
    #[test]
    fn two_source_joins_are_bitwise_identical_across_executors(
        left in delta_dataset(),
        right in delta_dataset(),
        tail in proptest::collection::vec(plan_op(), 0..5),
        modulus in 1u32..8,
    ) {
        let a = Plan::<u32>::source();
        let b = Plan::<u32>::source();
        let joined = a.join(
            &b,
            move |x| x % modulus,
            move |y| y % modulus,
            |x, y| x.wrapping_mul(13).wrapping_add(*y),
        );
        let plan = build_plan(&joined, &tail);
        let mut bindings = PlanBindings::new();
        bindings.bind(&a, left);
        bindings.bind(&b, right);
        let sequential = plan.eval_with(&bindings, &SequentialExecutor);
        for n in SHARD_COUNTS {
            let sharded = plan.eval_with(&bindings, &ShardedExecutor::new(n));
            assert_bitwise_eq(&sharded, &sequential, n);
        }
    }

    /// The worker-pool dispatch path is bitwise-neutral: evaluating on a pooled executor
    /// (`ShardedExecutor::new`, persistent channel-fed workers) and the sequential
    /// reference produce the same bits for every shard count.
    #[test]
    fn pooled_and_sequential_executors_are_bitwise_identical(
        program in proptest::collection::vec(plan_op(), 1..10),
        data in delta_dataset(),
    ) {
        let source = Plan::<u32>::source();
        let plan = build_plan(&source, &program);
        let mut bindings = PlanBindings::new();
        bindings.bind(&source, data);
        let sequential = plan.eval_with(&bindings, &SequentialExecutor);
        for n in SHARD_COUNTS {
            let pooled = plan.eval_with(&bindings, &ShardedExecutor::new(n));
            assert_bitwise_eq(&pooled, &sequential, n);
        }
    }

    /// The `==` operator agrees too (it compares weights exactly), and the executors are
    /// also self-consistent across repeated evaluations.
    #[test]
    fn repeated_evaluations_are_stable(
        program in proptest::collection::vec(plan_op(), 1..8),
        data in delta_dataset(),
    ) {
        let source = Plan::<u32>::source();
        let plan = build_plan(&source, &program);
        let mut bindings = PlanBindings::new();
        bindings.bind(&source, data);
        let first = plan.eval_with(&bindings, &ShardedExecutor::new(2));
        let second = plan.eval_with(&bindings, &ShardedExecutor::new(2));
        prop_assert!(first == second, "2-shard evaluation is not self-stable");
        let sequential = plan.eval_with(&bindings, &SequentialExecutor);
        prop_assert!(first == sequential, "sharded != sequential under ==");
    }
}

/// Repeated `eval_with` calls against the same bindings reuse the cached source
/// partitions instead of re-hashing every record, and rebinding a source refreshes them.
#[test]
fn repeated_sharded_evaluations_reuse_cached_partitions() {
    let source = Plan::<u32>::source();
    let plan = source
        .group_by(|x| x % 3, |g| g.len() as u64)
        .select(|(k, c)| k + *c as u32);
    let mut bindings = PlanBindings::new();
    bindings.bind(
        &source,
        WeightedDataset::from_pairs([(1, 1.0), (2, 2.0), (5, 0.5)]),
    );
    let executor = ShardedExecutor::new(2);
    let first = plan.eval_with(&bindings, &executor);
    let second = plan.eval_with(&bindings, &executor);
    assert!(first == second);
    // Rebinding invalidates the cache: the new data (not a stale partition) is evaluated.
    bindings.bind(&source, WeightedDataset::from_pairs([(7, 4.0)]));
    let rebound = plan.eval_with(&bindings, &executor);
    assert!(
        rebound != first,
        "rebound source still evaluated stale partitions"
    );
    let sequential = plan.eval_with(&bindings, &SequentialExecutor);
    assert!(rebound == sequential);
}

/// `build_plan` with an empty program is the bare source: evaluation round-trips the
/// binding bit-for-bit through partition/merge.
#[test]
fn bare_source_round_trips_through_sharding() {
    let source = Plan::<u32>::source();
    let data: WeightedDataset<u32> =
        WeightedDataset::from_pairs([(1, 0.125), (2, -3.5), (9, 1e-3), (14, 7.25)]);
    let mut bindings = PlanBindings::new();
    bindings.bind(&source, data.clone());
    for n in SHARD_COUNTS {
        let out = source.eval_with(&bindings, &ShardedExecutor::new(n));
        assert_bitwise_eq(&out, &data, n);
    }
}

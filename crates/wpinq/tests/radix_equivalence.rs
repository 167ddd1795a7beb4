//! Property + scale tests: the radix-partitioned packed-key resolver is **bitwise
//! invisible**.
//!
//! The columnar engine resolves contribution rows into canonical per-record totals three
//! ways: radix partition + per-partition sort over packed `[u64; N]` keys (the default
//! above the partitioning threshold), a global packed-key sort-merge (`set_radix_override(Some(false))`,
//! and any merge below the threshold), and hash-map accumulation (shapes with no packed
//! form, and the row interpreter). All three must produce the same weighted dataset down
//! to the last float bit, over random plan shapes, duplicate-heavy keys, negative and
//! negligible weights, across executors {sequential, 2 shards, 8 shards}.
//!
//! The random-plan property stays small (it pins the packed/hash seams); the scale test
//! pushes tens of thousands of rows through one merge so the radix partitioner really
//! runs (it only engages above ~8k rows per merge).
//!
//! Both tests flip the process-wide columnar/radix overrides, and the test harness runs
//! tests on parallel threads, so each holds [`OVERRIDES`] for its whole run.

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;

use wpinq::expr::{set_columnar_override, set_radix_override};
use wpinq::plan::{
    dataset_to_values, plan_from_spec, Executor, OptimizeLevel, PlanBindings, SequentialExecutor,
    ShardedExecutor,
};
use wpinq::{Expr, Plan, ReduceSpec, Value, WeightedDataset};

type Rec = (u64, u64);

/// Serializes the tests that flip the process-wide overrides: without it, one test's
/// `run(.., None)` can switch the other's columnar run to the row interpreter mid-way.
static OVERRIDES: Mutex<()> = Mutex::new(());

/// Takes [`OVERRIDES`], recovering it if a failed test poisoned it.
fn lock_overrides() -> MutexGuard<'static, ()> {
    OVERRIDES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the process-wide overrides on scope exit, including the early returns
/// `prop_assert!` failures take.
struct OverrideGuard;

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        set_columnar_override(None);
        set_radix_override(None);
    }
}

/// A random delta-built dataset: duplicate-heavy low-cardinality keys, weights that are
/// negative, positive, occasionally huge, and occasionally so small that totals land
/// below the negligibility threshold and must be dropped identically by every resolver.
fn skewed_dataset() -> impl Strategy<Value = WeightedDataset<Rec>> {
    // (selector, raw) maps to the weight regime: mostly moderate, sometimes a
    // sub-negligibility sliver, sometimes huge.
    let delta = (0u8..6, -2.0f64..2.0).prop_map(|(selector, raw)| match selector {
        4 => raw * 5e-14,
        5 => raw * 5e5,
        _ => raw,
    });
    proptest::collection::vec(((0u64..8, 0u64..4), delta), 1..60).prop_map(|deltas| {
        let mut data = WeightedDataset::new();
        for (record, delta) in deltas {
            data.add_weight(record, delta);
        }
        data
    })
}

fn canon(data: &WeightedDataset<Value>) -> Vec<(Value, u64)> {
    let mut rows: Vec<(Value, u64)> = data
        .iter()
        .map(|(record, weight)| (record.clone(), weight.to_bits()))
        .collect();
    rows.sort();
    rows
}

/// A join/group-by plan whose packed-key merges carry every weight the operators can
/// produce: rescaled join weights, grouped counts, negated branches.
fn resolver_heavy_plan(source: &Plan<Rec>, k: u64) -> Plan<Rec> {
    let x = Expr::input;
    let joined = source.join_expr::<Rec, u64, Rec>(
        source,
        x().field(0).rem(Expr::u64(1 + k)),
        x().field(1).rem(Expr::u64(1 + k)),
        Expr::tuple(vec![x().field(0).field(0), x().field(1).field(1)]),
    );
    let grouped = joined
        .group_by_expr::<u64, u64>(
            x().field(0).rem(Expr::u64(2 + k)),
            ReduceSpec::CountThen(Expr::input()),
        )
        .select_expr::<Rec>(Expr::tuple(vec![x().field(0), x().field(1)]));
    grouped.except(&source.filter_expr(x().field(0).rem(Expr::u64(2)).eq(Expr::u64(0))))
}

/// Evaluates `plan` over `data` under one resolver configuration and returns the
/// bitwise-comparable rows. `radix: None` means the row interpreter (hash accumulation
/// everywhere); `Some(flag)` runs the columnar kernels with the radix partitioner forced
/// on or off.
fn run(
    plan: &Plan<Rec>,
    data: &WeightedDataset<Rec>,
    executor: &dyn Executor,
    radix: Option<bool>,
) -> Vec<(Value, u64)> {
    let spec = plan.to_spec().expect("expression-built plans serialize");
    let rebuilt = plan_from_spec(&spec).expect("validated spec rebuilds");
    let mut bindings = PlanBindings::new();
    for dyn_source in &rebuilt.sources {
        bindings.bind_shared(
            &dyn_source.plan,
            std::sync::Arc::new(dataset_to_values(data)),
        );
    }
    match radix {
        None => {
            set_columnar_override(Some(false));
            set_radix_override(None);
        }
        Some(flag) => {
            set_columnar_override(Some(true));
            set_radix_override(Some(flag));
        }
    }
    let out = rebuilt
        .plan
        .eval_opt(&bindings, executor, OptimizeLevel::Full);
    set_columnar_override(None);
    set_radix_override(None);
    canon(&out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn radix_sort_merge_and_hash_resolutions_are_bitwise_identical(
        k in 0u64..5,
        data in skewed_dataset(),
    ) {
        let _serial = lock_overrides();
        let _restore = OverrideGuard;
        let source = Plan::<Rec>::source_expr("records");
        let plan = resolver_heavy_plan(&source, k);

        let sharded2 = ShardedExecutor::new(2);
        let sharded8 = ShardedExecutor::new(8);
        let executors: [&dyn Executor; 3] = [&SequentialExecutor, &sharded2, &sharded8];
        for executor in executors {
            let hash = run(&plan, &data, executor, None);
            let sort_merge = run(&plan, &data, executor, Some(false));
            let radix = run(&plan, &data, executor, Some(true));
            prop_assert_eq!(
                sort_merge.clone(), hash.clone(),
                "sort-merge resolution drifted from hash accumulation ({} shards)",
                executor.shard_count()
            );
            prop_assert_eq!(
                radix, sort_merge,
                "radix resolution drifted from sort-merge ({} shards)",
                executor.shard_count()
            );
        }
    }
}

/// Enough rows through one merge that the radix partitioner actually engages (its
/// threshold is ~8k rows per merge): a 30k-row dataset with duplicate-heavy keys,
/// sign-mixed weights, and exact-cancellation pairs whose totals must be dropped as
/// negligible by every resolver.
#[test]
fn radix_partitioner_is_bitwise_invisible_at_scale() {
    let _serial = lock_overrides();
    let _restore = OverrideGuard;
    let mut data = WeightedDataset::new();
    for i in 0u64..30_000 {
        let record = (i % 4096, i % 7);
        let weight = match i % 5 {
            0 => 1.25,
            1 => -0.75,
            2 => 1e-14,
            3 => (i % 97) as f64 * 0.5,
            _ => -((i % 89) as f64) * 0.25,
        };
        data.add_weight(record, weight);
        if i % 11 == 0 {
            // An exact-cancellation pair: this record's total must vanish identically.
            data.add_weight((i % 4096 + 5000, i % 7), 2.0);
            data.add_weight((i % 4096 + 5000, i % 7), -2.0);
        }
    }

    let source = Plan::<Rec>::source_expr("records");
    let x = Expr::input;
    // Select + group-by keeps one merge large (no key-space collapse before merging).
    let plan = source
        .select_expr::<Rec>(Expr::tuple(vec![x().field(0), x().field(1)]))
        .group_by_expr::<u64, u64>(x().field(0), ReduceSpec::CountThen(Expr::input()))
        .select_expr::<Rec>(Expr::tuple(vec![x().field(0), x().field(1)]));

    let radix_rows = || {
        wpinq_telemetry::registry()
            .counter_value_with(wpinq::expr::RESOLVED_ROWS_METRIC, &[("strategy", "radix")])
            .unwrap_or(0)
    };
    let sharded2 = ShardedExecutor::new(2);
    let executors: [&dyn Executor; 2] = [&SequentialExecutor, &sharded2];
    for executor in executors {
        let hash = run(&plan, &data, executor, None);
        let sort_merge = run(&plan, &data, executor, Some(false));
        let radix_before = radix_rows();
        let radix = run(&plan, &data, executor, Some(true));
        assert!(
            radix_rows() > radix_before,
            "the dataset must be large enough that the radix partitioner actually runs"
        );
        assert_eq!(
            sort_merge,
            hash,
            "sort-merge drifted from hash at scale ({} shards)",
            executor.shard_count()
        );
        assert_eq!(
            radix,
            sort_merge,
            "radix drifted from sort-merge at scale ({} shards)",
            executor.shard_count()
        );
    }
}

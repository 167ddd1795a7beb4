//! The incremental join's per-step cost, as a checked number.
//!
//! A delta under join key `k` renormalises every match under `k`, so the paper's cost of
//! an MCMC step is the number of record pairs under the touched keys: on the left input
//! `|A_k ∪ A′_k| · |B_k|` (the left records before or after the delta, times the right
//! records), then the same on the right against the already-updated left. The join counts
//! the pairs it walks in `wpinq_join_pairs_total`; this test pushes one edge swap through
//! the length-two-paths self-join and asserts that count exactly.
//!
//! A degree-preserving swap leaves every touched key's norm unchanged on both sides, so
//! a match of an untouched record cannot change any output: with the injective path
//! selector the join accumulates only the touched records' matches, `Σ_k |ΔC_k| · |F_k|`
//! per side (`ΔC_k` the records the deltas touch under `k`), counted in
//! `wpinq_join_accumulated_pairs_total`.
//!
//! The counters are process-wide, so this file holds a single test.

use std::collections::BTreeSet;

use wpinq::plan::{Plan, StreamBindings};
use wpinq::WeightedDataset;
use wpinq_dataflow::{DataflowInput, Delta, JOIN_ACCUMULATED_PAIRS_METRIC, JOIN_PAIRS_METRIC};

type Edge = (u32, u32);
/// A join key selector over edges.
type KeyFn = fn(&Edge) -> u32;

fn pairs_total() -> u64 {
    wpinq_telemetry::registry().counter_value(JOIN_PAIRS_METRIC)
}

fn accumulated_total() -> u64 {
    wpinq_telemetry::registry().counter_value(JOIN_ACCUMULATED_PAIRS_METRIC)
}

/// Both orientations of each undirected edge.
fn symmetric(edges: &[Edge]) -> BTreeSet<Edge> {
    edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect()
}

/// The records of `edges` whose join key (`key`) is `k`.
fn part(edges: &BTreeSet<Edge>, key: KeyFn, k: u32) -> BTreeSet<Edge> {
    edges.iter().filter(|e| key(e) == k).copied().collect()
}

/// `Σ_k |C_k ∪ C′_k| · |F_k|` over the keys the deltas touch on the changed side: `C`/`C′`
/// are the changed side before/after, `F` the fixed side as the update sees it.
fn side_pairs(
    deltas: &[Delta<Edge>],
    changed_key: KeyFn,
    fixed_key: KeyFn,
    changed_before: &BTreeSet<Edge>,
    changed_after: &BTreeSet<Edge>,
    fixed: &BTreeSet<Edge>,
) -> u64 {
    let keys: BTreeSet<u32> = deltas.iter().map(|(e, _)| changed_key(e)).collect();
    keys.into_iter()
        .map(|k| {
            let union: BTreeSet<Edge> = part(changed_before, changed_key, k)
                .union(&part(changed_after, changed_key, k))
                .copied()
                .collect();
            (union.len() * part(fixed, fixed_key, k).len()) as u64
        })
        .sum()
}

/// `Σ_k |ΔC_k| · |F_k|` over the keys the deltas touch on the changed side: `ΔC_k` are the
/// records the deltas touch under `k`, `F` the fixed side as the update sees it.
fn touched_pairs(
    deltas: &[Delta<Edge>],
    changed_key: KeyFn,
    fixed_key: KeyFn,
    fixed: &BTreeSet<Edge>,
) -> u64 {
    let touched: BTreeSet<Edge> = deltas.iter().map(|(e, _)| *e).collect();
    touched
        .iter()
        .map(|e| part(fixed, fixed_key, changed_key(e)).len() as u64)
        .sum()
}

#[test]
fn one_swap_through_the_length_two_paths_self_join_walks_the_intrinsic_pairs() {
    // A small graph with hubs (0 and 4), so touched keys differ in size.
    let graph: Vec<Edge> = vec![
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 5),
        (0, 6),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (4, 6),
        (4, 7),
        (5, 7),
        (6, 7),
    ];
    // The degree-preserving swap (0, 1), (4, 7) → (0, 7), (4, 1): eight directed deltas.
    let (removed, inserted) = ([(0, 1), (4, 7)], [(0, 7), (4, 1)]);
    let mut swap: Vec<Delta<Edge>> = Vec::new();
    for &(a, b) in &removed {
        swap.extend([((a, b), -1.0), ((b, a), -1.0)]);
    }
    for &(a, b) in &inserted {
        swap.extend([((a, b), 1.0), ((b, a), 1.0)]);
    }

    let before = symmetric(&graph);
    let mut after = before.clone();
    for (edge, weight) in &swap {
        if *weight > 0.0 {
            assert!(after.insert(*edge), "swap inserts an existing edge");
        } else {
            assert!(after.remove(edge), "swap removes a missing edge");
        }
    }
    // `length_two_paths_plan`: `edges.join(edges, |x| x.1, |y| y.0, …)`. The left input
    // (keyed by destination) takes the batch first, against the right as it was; the
    // right (keyed by source) then takes it against the updated left.
    let (dst, src): (KeyFn, KeyFn) = (|e| e.1, |e| e.0);
    let expected = side_pairs(&swap, dst, src, &before, &after, &before)
        + side_pairs(&swap, src, dst, &before, &after, &after);
    assert!(expected > 0);
    let expected_accumulated =
        touched_pairs(&swap, dst, src, &before) + touched_pairs(&swap, src, dst, &after);
    assert!(expected_accumulated < expected);

    let source = Plan::<Edge>::source();
    let paths = source
        .join(&source, |x| x.1, |y| y.0, |x, y| (x.0, x.1, y.1))
        .filter(|p| p.0 != p.2);
    let load = WeightedDataset::from_records(before.iter().copied());

    let (input, stream) = DataflowInput::<Edge>::new();
    let mut streams = StreamBindings::new();
    streams.bind(&source, stream);
    let _sequential = paths.lower(&streams).collect();
    input.push_dataset(&load);
    let (start, start_accumulated) = (pairs_total(), accumulated_total());
    input.push(&swap);
    assert_eq!(pairs_total() - start, expected, "sequential engine");
    assert_eq!(
        accumulated_total() - start_accumulated,
        expected_accumulated,
        "accumulated pairs"
    );
}

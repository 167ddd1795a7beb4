//! Incremental implementations of the wPINQ operators.
//!
//! Stateless operators are linear in the record weights, so a weight delta maps directly to
//! an output delta. Stateful operators keep their inputs indexed by key (or by record) and,
//! when deltas arrive, update *only the affected keys*. `GroupBy` and `Shave` recompute a
//! key's restriction with the corresponding batch operator from `wpinq-core` and diff the
//! results. `Join` instead walks each touched key once, emitting the change of every match
//! with the same per-pair expression and canonical norms as the batch kernel, so its
//! deltas are bitwise those of a recompute-and-diff at a fraction of the cost. When the
//! deltas leave a key's norm bitwise unchanged (a degree-preserving edge swap does, at
//! every key it touches), a match of an untouched record contributes the same bits before
//! and after, so the walk accumulates it only where a changed match lands too. Either way
//! the incremental semantics agree with the batch semantics exactly, which the
//! equivalence property tests rely on.

use std::sync::{Arc, OnceLock};

use rustc_hash::FxHashMap;

use wpinq_core::accumulate::{canonical_norm, Contribution};
use wpinq_core::operators as batch;
use wpinq_core::{weights, Record, WeightedDataset};
use wpinq_telemetry::{registry, Counter};

use crate::delta::{consolidate, diff_datasets, Delta};

/// Registry name of the counter of `(changed record, fixed record)` pairs the incremental
/// join evaluates, cumulative over the process. A delta on one side under key `k` costs
/// `|A_k ∪ A′_k| · |B_k|` pairs (the changed side's records before or after the delta,
/// times the other side's records), which is the paper's per-step cost model made
/// countable: read it with `wpinq_telemetry::registry().counter_value(JOIN_PAIRS_METRIC)`.
pub const JOIN_PAIRS_METRIC: &str = "wpinq_join_pairs_total";

/// Registry name of the counter of evaluated pairs the incremental join pushes into its
/// per-output accumulators, a subset of [`JOIN_PAIRS_METRIC`]. Where a key's norm changes
/// every evaluated pair is accumulated. Where it holds bitwise, an untouched record's pair
/// is accumulated only if a changed record's pair reaches the same output record, so for
/// an injective result selector a delta under `k` accumulates `|ΔA_k| · |B_k|` pairs
/// (`ΔA_k` the records the delta touches).
pub const JOIN_ACCUMULATED_PAIRS_METRIC: &str = "wpinq_join_accumulated_pairs_total";

fn join_pairs_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            JOIN_PAIRS_METRIC,
            &[],
            "Record pairs evaluated by incremental joins under touched keys",
        )
    })
}

fn join_accumulated_pairs_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            JOIN_ACCUMULATED_PAIRS_METRIC,
            &[],
            "Evaluated join pairs pushed into output accumulators",
        )
    })
}

// ---------------------------------------------------------------------------------------
// Stateless (linear) operators
// ---------------------------------------------------------------------------------------

/// Incremental `Select`: each input delta becomes one output delta.
pub fn inc_select<T, U, F>(f: &F, deltas: &[Delta<T>]) -> Vec<Delta<U>>
where
    T: Record,
    U: Record,
    F: Fn(&T) -> U,
{
    consolidate(deltas.iter().map(|(r, w)| (f(r), *w)).collect())
}

/// Incremental `Where`: deltas for records failing the predicate are dropped.
pub fn inc_filter<T, P>(predicate: &P, deltas: &[Delta<T>]) -> Vec<Delta<T>>
where
    T: Record,
    P: Fn(&T) -> bool,
{
    consolidate(
        deltas
            .iter()
            .filter(|(r, _)| predicate(r))
            .cloned()
            .collect(),
    )
}

/// Incremental `SelectMany`: the operator is linear in the input weight, so each delta is
/// expanded through the (normalised) production of its record — the paper's
/// data-dependent normalisation rule (`scale = weight / max(‖production‖, 1)`; empty
/// productions contribute nothing).
pub fn inc_select_many<T, U, F>(f: &F, deltas: &[Delta<T>]) -> Vec<Delta<U>>
where
    T: Record,
    U: Record,
    F: Fn(&T) -> WeightedDataset<U>,
{
    let mut out = Vec::new();
    for (record, weight) in deltas {
        let produced = f(record);
        let norm = produced.norm();
        if norm == 0.0 {
            continue;
        }
        let scale = weight / norm.max(1.0);
        for (u, w) in produced.iter() {
            out.push((u.clone(), w * scale));
        }
    }
    consolidate(out)
}

/// Incremental `SelectMany` where each produced record has unit weight.
pub fn inc_select_many_unit<T, U, I, F>(f: &F, deltas: &[Delta<T>]) -> Vec<Delta<U>>
where
    T: Record,
    U: Record,
    I: IntoIterator<Item = U>,
    F: Fn(&T) -> I,
{
    inc_select_many(
        &|record: &T| WeightedDataset::from_records(f(record)),
        deltas,
    )
}

/// Incremental `Concat`: deltas from either input pass straight through.
pub fn inc_concat<T: Record>(deltas: &[Delta<T>]) -> Vec<Delta<T>> {
    consolidate(deltas.to_vec())
}

/// Incremental `Except`, right input: deltas pass through with their sign flipped.
pub fn inc_negate<T: Record>(deltas: &[Delta<T>]) -> Vec<Delta<T>> {
    consolidate(deltas.iter().map(|(r, w)| (r.clone(), -w)).collect())
}

// ---------------------------------------------------------------------------------------
// Stateful keyed operators
// ---------------------------------------------------------------------------------------

/// Incremental `Join` (equation (1)): inputs are indexed by key; a delta on either side
/// re-derives exactly the keys it touches, including the renormalisation of every match
/// under those keys (the paper notes this is the one place wPINQ's join is more expensive
/// than a relational incremental join). A delta on the left under key `k` costs one pass
/// over `|A_k ∪ A′_k| · |B_k|` pairs — the left records before or after the delta, times
/// the right records — and symmetrically on the right; see [`JOIN_PAIRS_METRIC`]. When
/// the delta leaves `‖A_k‖` bitwise unchanged, as a degree-preserving edge swap does, the
/// pairs of untouched left records only probe the outputs the touched records reach (see
/// [`JOIN_ACCUMULATED_PAIRS_METRIC`]).
pub struct IncrementalJoin<A, B, K, R, KA, KB, RF>
where
    A: Record,
    B: Record,
    K: Record,
    R: Record,
    KA: Fn(&A) -> K,
    KB: Fn(&B) -> K,
    RF: Fn(&A, &B) -> R,
{
    left: FxHashMap<K, WeightedDataset<A>>,
    right: FxHashMap<K, WeightedDataset<B>>,
    key_left: KA,
    key_right: KB,
    result: RF,
    // Per-key scratch of the fused update, emptied after every key with its capacity
    // kept, so a step does not allocate a fresh `|A_k|·|B_k|` map per touched key.
    /// Each output record's contributions under the key, before and after the deltas.
    outputs: FxHashMap<R, BeforeAfter>,
    /// The pre-delta weights of the left records the deltas touch.
    left_old: FxHashMap<A, f64>,
    /// The pre-delta weights of the right records the deltas touch.
    right_old: FxHashMap<B, f64>,
}

/// One output record's match contributions under a key, before and after the key's deltas.
#[derive(Default)]
struct BeforeAfter {
    before: Option<Contribution>,
    after: Option<Contribution>,
}

/// Adds one contribution to an optional accumulator.
fn push_contribution(slot: &mut Option<Contribution>, weight: f64) {
    match slot {
        Some(contribution) => contribution.push(weight),
        None => *slot = Some(Contribution::One(weight)),
    }
}

/// The pairs one fused key update evaluates, and the subset it accumulates.
#[derive(Default)]
struct JoinCost {
    pairs: u64,
    accumulated: u64,
}

impl JoinCost {
    fn record(self) {
        join_pairs_counter().add(self.pairs);
        join_accumulated_pairs_counter().add(self.accumulated);
    }
}

/// A record's resolved join weight: its contributions summed canonically, with a
/// negligible total counting as absent (exactly how the batch join prunes).
fn resolve(slot: Option<Contribution>) -> f64 {
    slot.map_or(0.0, |contribution| {
        weights::snap_to_zero(contribution.finish())
    })
}

/// The fused per-key update shared by both join sides. `changed` is the key's part on the
/// side the deltas (all under that key) arrive at, `fixed` the other side's part (if
/// any), and `result(changed_record, fixed_record)` the join's result selector with its
/// arguments in that order. The update:
///
/// 1. takes the part's canonical norm before the deltas and records each touched
///    record's old weight in `old`;
/// 2. applies the deltas;
/// 3. walks `(part before ∪ part after) × fixed` once, touched records first, pushing
///    each match's old contribution `w_old·w_y/d_old` and new one `w_new·w_y/d_new` into
///    the record's [`BeforeAfter`] — the expression and `canonical_norm` denominators
///    `wpinq_core::operators::join` uses, so each per-key total is bitwise the batch
///    join's;
/// 4. emits `resolve(after) − resolve(before)` per output record, skipping negligible
///    changes — bitwise `diff_datasets(join(after), join(before))`.
///
/// If `d_old` and `d_new` have the same bits, an untouched record's match pushes the same
/// bits into `before` and `after`. Step 3 then only probes `outputs` for such a match: on
/// a hit it pushes into both, as the full walk would; on a miss, every match reaching
/// that output record is untouched, so its before and after multisets are equal, its
/// canonical sums are equal, and the full walk would have emitted no change for it. The
/// result is bitwise the full walk's for every result selector.
///
/// Returns the pairs evaluated and accumulated.
fn fused_key_delta<C, F, R>(
    changed: &mut WeightedDataset<C>,
    fixed: Option<&WeightedDataset<F>>,
    deltas: Vec<Delta<C>>,
    result: impl Fn(&C, &F) -> R,
    old: &mut FxHashMap<C, f64>,
    outputs: &mut FxHashMap<R, BeforeAfter>,
    out: &mut Vec<Delta<R>>,
) -> JoinCost
where
    C: Record,
    F: Record,
    R: Record,
{
    let Some(fixed) = fixed else {
        // No match under this key before or after the deltas: only the state moves.
        for (record, weight) in deltas {
            changed.add_weight(record, weight);
        }
        return JoinCost::default();
    };
    let fixed_norm = canonical_norm(fixed.iter().map(|(_, w)| w));
    let old_norm = canonical_norm(changed.iter().map(|(_, w)| w));
    for (record, weight) in deltas {
        old.entry(record.clone())
            .or_insert_with(|| changed.weight(&record));
        changed.add_weight(record, weight);
    }
    let new_norm = canonical_norm(changed.iter().map(|(_, w)| w));
    // `‖changed‖ + ‖fixed‖`, bitwise the batch kernel's `‖build‖ + ‖probe‖` since float
    // `+` commutes.
    let (d_old, d_new) = (old_norm + fixed_norm, new_norm + fixed_norm);

    // Untouched records only probe `outputs` when the denominator holds (see above).
    let same_norm = d_old.to_bits() == d_new.to_bits();

    let mut cost = JoinCost::default();
    let mut walk = |record: &C, w_old: f64, w_new: f64, probe_only: bool| {
        // Absent on both sides of the delta (e.g. a negligible insertion): no match.
        if w_old == 0.0 && w_new == 0.0 {
            return;
        }
        cost.pairs += fixed.len() as u64;
        for (y, w_y) in fixed.iter() {
            let output = result(record, y);
            let slot = if probe_only {
                match outputs.get_mut(&output) {
                    Some(slot) => slot,
                    None => continue,
                }
            } else {
                outputs.entry(output).or_default()
            };
            cost.accumulated += 1;
            if w_old != 0.0 {
                push_contribution(&mut slot.before, w_old * w_y / d_old);
            }
            if w_new != 0.0 {
                push_contribution(&mut slot.after, w_new * w_y / d_new);
            }
        }
    };
    for (record, &w_old) in old.iter() {
        walk(record, w_old, changed.weight(record), false);
    }
    for (record, w) in changed.iter() {
        if !old.contains_key(record) {
            walk(record, w, w, same_norm);
        }
    }
    old.clear();

    for (record, slot) in outputs.drain() {
        let change = resolve(slot.after) - resolve(slot.before);
        if !weights::is_negligible(change) {
            out.push((record, change));
        }
    }
    cost
}

/// Groups deltas by key, preserving each key's delta order.
fn group_by_key<T: Record, K: Record>(
    deltas: &[Delta<T>],
    key: impl Fn(&T) -> K,
) -> FxHashMap<K, Vec<Delta<T>>> {
    let mut by_key: FxHashMap<K, Vec<Delta<T>>> = FxHashMap::default();
    for (record, weight) in deltas {
        by_key
            .entry(key(record))
            .or_default()
            .push((record.clone(), *weight));
    }
    by_key
}

impl<A, B, K, R, KA, KB, RF> IncrementalJoin<A, B, K, R, KA, KB, RF>
where
    A: Record,
    B: Record,
    K: Record,
    R: Record,
    KA: Fn(&A) -> K,
    KB: Fn(&B) -> K,
    RF: Fn(&A, &B) -> R,
{
    /// Creates an empty join with the given key selectors and result selector.
    pub fn new(key_left: KA, key_right: KB, result: RF) -> Self {
        IncrementalJoin {
            left: FxHashMap::default(),
            right: FxHashMap::default(),
            key_left,
            key_right,
            result,
            outputs: FxHashMap::default(),
            left_old: FxHashMap::default(),
            right_old: FxHashMap::default(),
        }
    }

    /// Number of distinct keys currently indexed (left and right), a proxy for the state
    /// size the paper's scalability discussion tracks.
    pub fn state_keys(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Total number of `(key, record)` entries held in the operator state.
    pub fn state_records(&self) -> usize {
        self.left.values().map(|d| d.len()).sum::<usize>()
            + self.right.values().map(|d| d.len()).sum::<usize>()
    }

    /// Feeds deltas into the left input, returning the induced output deltas.
    pub fn push_left(&mut self, deltas: &[Delta<A>]) -> Vec<Delta<R>> {
        consolidate(self.push_left_raw(deltas))
    }

    /// [`push_left`](Self::push_left) without the final consolidation: the returned
    /// contributions may repeat records (collisions across keys).
    fn push_left_raw(&mut self, deltas: &[Delta<A>]) -> Vec<Delta<R>> {
        let mut out = Vec::new();
        for (key, key_deltas) in group_by_key(deltas, &self.key_left) {
            let part = self.left.entry(key.clone()).or_default();
            fused_key_delta(
                part,
                self.right.get(&key),
                key_deltas,
                &self.result,
                &mut self.left_old,
                &mut self.outputs,
                &mut out,
            )
            .record();
            if part.is_empty() {
                self.left.remove(&key);
            }
        }
        out
    }

    /// Feeds deltas into the right input, returning the induced output deltas.
    pub fn push_right(&mut self, deltas: &[Delta<B>]) -> Vec<Delta<R>> {
        consolidate(self.push_right_raw(deltas))
    }

    /// [`push_right`](Self::push_right) without the final consolidation (see
    /// [`push_left_raw`](Self::push_left_raw)).
    fn push_right_raw(&mut self, deltas: &[Delta<B>]) -> Vec<Delta<R>> {
        let mut out = Vec::new();
        let result = &self.result;
        for (key, key_deltas) in group_by_key(deltas, &self.key_right) {
            let part = self.right.entry(key.clone()).or_default();
            fused_key_delta(
                part,
                self.left.get(&key),
                key_deltas,
                |b: &B, a: &A| result(a, b),
                &mut self.right_old,
                &mut self.outputs,
                &mut out,
            )
            .record();
            if part.is_empty() {
                self.right.remove(&key);
            }
        }
        out
    }
}

#[cfg(test)]
impl<A, B, K, R, KA, KB, RF> IncrementalJoin<A, B, K, R, KA, KB, RF>
where
    A: Record,
    B: Record,
    K: Record,
    R: Record,
    KA: Fn(&A) -> K,
    KB: Fn(&B) -> K,
    RF: Fn(&A, &B) -> R,
{
    /// The batch join of one key's restriction: the oracle the fused update is pinned to.
    fn recompute_key(&self, key: &K) -> WeightedDataset<R> {
        let empty_a = WeightedDataset::new();
        let empty_b = WeightedDataset::new();
        let a = self.left.get(key).unwrap_or(&empty_a);
        let b = self.right.get(key).unwrap_or(&empty_b);
        batch::join(a, b, &self.key_left, &self.key_right, &self.result)
    }

    /// The recompute-and-diff update: for every touched key, the batch join of the key
    /// before and after `apply` mutates the state, diffed.
    fn oracle_push_raw(&mut self, keys: Vec<K>, apply: impl FnOnce(&mut Self)) -> Vec<Delta<R>> {
        let before: Vec<_> = keys.iter().map(|key| self.recompute_key(key)).collect();
        apply(self);
        let mut out = Vec::new();
        for (key, before) in keys.iter().zip(&before) {
            out.extend(diff_datasets(&self.recompute_key(key), before));
        }
        out
    }

    /// [`push_left_raw`](Self::push_left_raw) by recompute-and-diff.
    fn oracle_push_left_raw(&mut self, deltas: &[Delta<A>]) -> Vec<Delta<R>> {
        let keys = group_by_key(deltas, &self.key_left).into_keys().collect();
        self.oracle_push_raw(keys, |join| {
            for (record, weight) in deltas {
                let key = (join.key_left)(record);
                let part = join.left.entry(key.clone()).or_default();
                part.add_weight(record.clone(), *weight);
                if part.is_empty() {
                    join.left.remove(&key);
                }
            }
        })
    }

    /// [`push_right_raw`](Self::push_right_raw) by recompute-and-diff.
    fn oracle_push_right_raw(&mut self, deltas: &[Delta<B>]) -> Vec<Delta<R>> {
        let keys = group_by_key(deltas, &self.key_right).into_keys().collect();
        self.oracle_push_raw(keys, |join| {
            for (record, weight) in deltas {
                let key = (join.key_right)(record);
                let part = join.right.entry(key.clone()).or_default();
                part.add_weight(record.clone(), *weight);
                if part.is_empty() {
                    join.right.remove(&key);
                }
            }
        })
    }
}

/// Incremental `GroupBy`: groups are indexed by key and re-reduced when any member changes.
pub struct IncrementalGroupBy<T, K, R, KF, RF>
where
    T: Record,
    K: Record,
    R: Record,
    KF: Fn(&T) -> K,
    RF: Fn(&[T]) -> R,
{
    parts: FxHashMap<K, WeightedDataset<T>>,
    key: KF,
    reduce: RF,
}

impl<T, K, R, KF, RF> IncrementalGroupBy<T, K, R, KF, RF>
where
    T: Record,
    K: Record,
    R: Record,
    KF: Fn(&T) -> K,
    RF: Fn(&[T]) -> R,
{
    /// Creates an empty incremental `GroupBy`.
    pub fn new(key: KF, reduce: RF) -> Self {
        IncrementalGroupBy {
            parts: FxHashMap::default(),
            key,
            reduce,
        }
    }

    fn recompute_key(&self, key: &K) -> WeightedDataset<(K, R)> {
        match self.parts.get(key) {
            Some(part) => batch::group_by(part, &self.key, &self.reduce),
            None => WeightedDataset::new(),
        }
    }

    /// Feeds deltas into the grouped input, returning the induced output deltas.
    pub fn push(&mut self, deltas: &[Delta<T>]) -> Vec<Delta<(K, R)>> {
        let mut out = Vec::new();
        for (key, key_deltas) in group_by_key(deltas, &self.key) {
            let before = self.recompute_key(&key);
            let part = self.parts.entry(key.clone()).or_default();
            for (record, weight) in key_deltas {
                part.add_weight(record, weight);
            }
            if part.is_empty() {
                self.parts.remove(&key);
            }
            let after = self.recompute_key(&key);
            out.extend(diff_datasets(&after, &before));
        }
        consolidate(out)
    }

    /// Number of groups currently indexed.
    pub fn state_keys(&self) -> usize {
        self.parts.len()
    }
}

/// Incremental `Shave`: each record's weight is tracked so that a change re-slices only
/// that record's output.
pub struct IncrementalShave<T, F, I>
where
    T: Record,
    F: Fn(&T) -> I,
    I: IntoIterator<Item = f64>,
{
    current: WeightedDataset<T>,
    schedule: F,
}

impl<T, F, I> IncrementalShave<T, F, I>
where
    T: Record,
    F: Fn(&T) -> I,
    I: IntoIterator<Item = f64>,
{
    /// Creates an empty incremental `Shave` with the given weight schedule.
    pub fn new(schedule: F) -> Self {
        IncrementalShave {
            current: WeightedDataset::new(),
            schedule,
        }
    }

    fn slice_record(&self, record: &T, weight: f64) -> WeightedDataset<(T, u64)> {
        if weight <= 0.0 {
            return WeightedDataset::new();
        }
        let single = WeightedDataset::from_pairs([(record.clone(), weight)]);
        batch::shave(&single, &self.schedule)
    }

    /// Feeds deltas into the shaved input, returning the induced output deltas.
    pub fn push(&mut self, deltas: &[Delta<T>]) -> Vec<Delta<(T, u64)>> {
        let mut out = Vec::new();
        for (record, weight) in consolidate(deltas.to_vec()) {
            let old_weight = self.current.weight(&record);
            let before = self.slice_record(&record, old_weight);
            self.current.add_weight(record.clone(), weight);
            let after = self.slice_record(&record, self.current.weight(&record));
            out.extend(diff_datasets(&after, &before));
        }
        consolidate(out)
    }
}

/// Incremental `Union` / `Intersect`: both inputs' weights are tracked per record, and a
/// delta on either side re-evaluates the element-wise max/min for that record.
pub struct IncrementalMinMax<T: Record> {
    left: WeightedDataset<T>,
    right: WeightedDataset<T>,
    /// `true` for Union (max), `false` for Intersect (min).
    take_max: bool,
}

impl<T: Record> IncrementalMinMax<T> {
    /// Creates an incremental `Union` (element-wise maximum).
    pub fn union() -> Self {
        IncrementalMinMax {
            left: WeightedDataset::new(),
            right: WeightedDataset::new(),
            take_max: true,
        }
    }

    /// Creates an incremental `Intersect` (element-wise minimum).
    pub fn intersect() -> Self {
        IncrementalMinMax {
            left: WeightedDataset::new(),
            right: WeightedDataset::new(),
            take_max: false,
        }
    }

    fn combine(&self, record: &T) -> f64 {
        let l = self.left.weight(record);
        let r = self.right.weight(record);
        if self.take_max {
            l.max(r)
        } else {
            l.min(r)
        }
    }

    fn push(&mut self, deltas: &[Delta<T>], is_left: bool) -> Vec<Delta<T>> {
        let mut out = Vec::new();
        for (record, weight) in consolidate(deltas.to_vec()) {
            let before = self.combine(&record);
            if is_left {
                self.left.add_weight(record.clone(), weight);
            } else {
                self.right.add_weight(record.clone(), weight);
            }
            let after = self.combine(&record);
            let change = after - before;
            if change != 0.0 {
                out.push((record, change));
            }
        }
        consolidate(out)
    }

    /// Feeds deltas into the left input.
    pub fn push_left(&mut self, deltas: &[Delta<T>]) -> Vec<Delta<T>> {
        self.push(deltas, true)
    }

    /// Feeds deltas into the right input.
    pub fn push_right(&mut self, deltas: &[Delta<T>]) -> Vec<Delta<T>> {
        self.push(deltas, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_operators_map_deltas_directly() {
        let deltas = vec![(3u32, 1.0), (4, 2.0), (3, 0.5)];
        assert_eq!(
            inc_select(&|x: &u32| x % 2, &deltas),
            vec![(1u32, 1.5), (0, 2.0)]
        );
        assert_eq!(inc_filter(&|x: &u32| *x > 3, &deltas), vec![(4u32, 2.0)]);
        assert_eq!(inc_negate(&deltas), vec![(3u32, -1.5), (4, -2.0)]);
        assert_eq!(inc_concat(&deltas), vec![(3u32, 1.5), (4, 2.0)]);
    }

    #[test]
    fn inc_select_many_normalises_per_record() {
        let deltas = vec![(4u32, 2.0)];
        let out = inc_select_many_unit(&|x: &u32| (0..*x).collect::<Vec<_>>(), &deltas);
        assert_eq!(out.len(), 4);
        for (_, w) in &out {
            assert!((w - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn incremental_join_matches_batch_on_insert_and_remove() {
        let key = |x: &u32| x % 2;
        let mut inc = IncrementalJoin::new(key, key, |a: &u32, b: &u32| (*a, *b));
        let mut left = WeightedDataset::new();
        let mut right = WeightedDataset::new();
        let mut output = WeightedDataset::new();

        let steps: Vec<(bool, u32, f64)> = vec![
            (true, 1, 1.0),
            (false, 3, 2.0),
            (true, 5, 1.0),
            (false, 2, 1.0),
            (true, 1, -1.0),
            (false, 3, -0.5),
        ];
        for (is_left, record, weight) in steps {
            let deltas = vec![(record, weight)];
            let out = if is_left {
                left.add_weight(record, weight);
                inc.push_left(&deltas)
            } else {
                right.add_weight(record, weight);
                inc.push_right(&deltas)
            };
            for (r, w) in out {
                output.add_weight(r, w);
            }
            let expected = batch::join(&left, &right, key, key, |a, b| (*a, *b));
            assert!(
                output.approx_eq(&expected, 1e-9),
                "divergence after ({is_left}, {record}, {weight})"
            );
        }
        assert!(inc.state_keys() > 0);
        assert!(inc.state_records() > 0);
    }

    /// The input(s) one oracle-test step feeds.
    #[derive(Clone, Copy, Debug)]
    enum Side {
        Left,
        Right,
        /// The same batch to the left input and then the right one, as a self-join's
        /// shared input delivers it.
        Both,
    }

    /// A delta weight from a small palette: unit insertions and removals, fractions, and
    /// weights within 10× of the prune threshold (some negligible on arrival).
    fn weight_of(choice: u8) -> f64 {
        let t = weights::PRUNE_THRESHOLD;
        match choice {
            0 => 1.0,
            1 => -1.0,
            2 => 0.375,
            3 => 2.5,
            4 => 0.2 * t,
            5 => 3.0 * t,
            6 => -4.0 * t,
            _ => 9.5 * t,
        }
    }

    /// A consolidated delta batch as sorted `(record, weight bits)`.
    fn bits<R: Record>(deltas: Vec<Delta<R>>) -> Vec<(R, u64)> {
        let mut out: Vec<(R, u64)> = consolidate(deltas)
            .into_iter()
            .map(|(r, w)| (r, w.to_bits()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// A swap-shaped batch under one key: remove a record of `part` (chosen by `pick`) and
    /// insert a record of `same_key` absent from `part` with the same weight, so the part's
    /// norm, the canonical sum of the same multiset, holds bitwise. Empty when `part` is
    /// empty or holds every record of `same_key`.
    fn swap_within<T: Record>(
        part: Option<&WeightedDataset<T>>,
        same_key: impl Iterator<Item = T>,
        pick: usize,
    ) -> Vec<Delta<T>> {
        let Some(part) = part else {
            return Vec::new();
        };
        let mut present: Vec<(&T, f64)> = part.iter().collect();
        present.sort_by(|a, b| a.0.cmp(b.0));
        let absent: Vec<T> = same_key.filter(|r| part.weight(r) == 0.0).collect();
        if present.is_empty() || absent.is_empty() {
            return Vec::new();
        }
        let (gone, weight) = present[pick % present.len()];
        vec![
            (gone.clone(), -weight),
            (absent[pick % absent.len()].clone(), weight),
        ]
    }

    /// Feeds `deltas` to `fused` through the fused update and to `oracle` by
    /// recompute-and-diff, asserting bitwise-equal consolidated outputs and equal state.
    fn push_both_ways<T, K, R, KA, KB, RF>(
        fused: &mut IncrementalJoin<T, T, K, R, KA, KB, RF>,
        oracle: &mut IncrementalJoin<T, T, K, R, KA, KB, RF>,
        side: Side,
        deltas: &[Delta<T>],
    ) where
        T: Record,
        K: Record,
        R: Record,
        KA: Fn(&T) -> K,
        KB: Fn(&T) -> K,
        RF: Fn(&T, &T) -> R,
    {
        let lefts: &[bool] = match side {
            Side::Left => &[true],
            Side::Right => &[false],
            Side::Both => &[true, false],
        };
        for &left in lefts {
            let (got, want) = if left {
                (
                    fused.push_left_raw(deltas),
                    oracle.oracle_push_left_raw(deltas),
                )
            } else {
                (
                    fused.push_right_raw(deltas),
                    oracle.oracle_push_right_raw(deltas),
                )
            };
            assert_eq!(bits(got), bits(want), "{side:?} (left: {left}) {deltas:?}");
            assert!(fused.left == oracle.left && fused.right == oracle.right);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn fused_join_matches_recompute_and_diff_bitwise(
            steps in proptest::collection::vec(
                (0u8..5, proptest::collection::vec((0u32..24, 0u8..8), 1..6)),
                1..40,
            ),
        ) {
            // Left keys 4 and 5 never occur on the right: keys present on one side only.
            let (key_l, key_r) = (|x: &u32| x % 6, |x: &u32| x % 4);
            // Non-injective within a key, so matches collide on output records.
            let colliding = |a: &u32, b: &u32| (a + b) % 5;
            let pairs = |a: &u32, b: &u32| (*a, *b);
            let mut fused_c = IncrementalJoin::new(key_l, key_r, colliding);
            let mut oracle_c = IncrementalJoin::new(key_l, key_r, colliding);
            let mut fused_p = IncrementalJoin::new(key_l, key_r, pairs);
            let mut oracle_p = IncrementalJoin::new(key_l, key_r, pairs);
            for (kind, raw) in &steps {
                let (side, deltas): (Side, Vec<Delta<u32>>) = match kind {
                    0 => (Side::Left, raw.iter().map(|&(r, w)| (r, weight_of(w))).collect()),
                    1 => (Side::Right, raw.iter().map(|&(r, w)| (r, weight_of(w))).collect()),
                    2 => (Side::Both, raw.iter().map(|&(r, w)| (r, weight_of(w))).collect()),
                    3 => {
                        // Remove every record under one key of one side: the key empties.
                        let probe = raw[0].0;
                        let (side, part) = if probe % 2 == 0 {
                            (Side::Left, oracle_c.left.get(&key_l(&probe)))
                        } else {
                            (Side::Right, oracle_c.right.get(&key_r(&probe)))
                        };
                        let deltas = part
                            .map(|p| p.iter().map(|(r, w)| (*r, -w)).collect())
                            .unwrap_or_default();
                        (side, deltas)
                    }
                    _ => {
                        // A swap under one key of one side: the key's norm holds, so its
                        // untouched records take the probe-only walk.
                        let (probe, pick) = (raw[0].0, usize::from(raw[0].1));
                        if probe % 2 == 0 {
                            let k = key_l(&probe);
                            let part = oracle_c.left.get(&k);
                            (Side::Left, swap_within(part, (0..24).filter(|x| key_l(x) == k), pick))
                        } else {
                            let k = key_r(&probe);
                            let part = oracle_c.right.get(&k);
                            (Side::Right, swap_within(part, (0..24).filter(|x| key_r(x) == k), pick))
                        }
                    }
                };
                push_both_ways(&mut fused_c, &mut oracle_c, side, &deltas);
                push_both_ways(&mut fused_p, &mut oracle_p, side, &deltas);
            }
        }

        #[test]
        fn fused_self_join_matches_recompute_and_diff_bitwise(
            steps in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(((0u32..7, 0u32..7), 0u8..8), 1..9)),
                1..30,
            ),
        ) {
            // Length-two paths over one edge input fed to both sides, with the injective
            // path selector and a colliding one ((a, b, c) and (c, b, a) share endpoints).
            let (key_l, key_r) = (|e: &(u32, u32)| e.1, |e: &(u32, u32)| e.0);
            let paths = |x: &(u32, u32), y: &(u32, u32)| (x.0, x.1, y.1);
            let ends = |x: &(u32, u32), y: &(u32, u32)| (x.0.min(y.1), x.0.max(y.1));
            let mut fused_p = IncrementalJoin::new(key_l, key_r, paths);
            let mut oracle_p = IncrementalJoin::new(key_l, key_r, paths);
            let mut fused_e = IncrementalJoin::new(key_l, key_r, ends);
            let mut oracle_e = IncrementalJoin::new(key_l, key_r, ends);
            for (kind, raw) in &steps {
                let deltas: Vec<Delta<(u32, u32)>> = if *kind == 0 {
                    // Swap one edge for another with the same destination (the left key)
                    // or the same source (the right key): that side's key keeps its norm.
                    let ((a, b), pick) = (raw[0].0, usize::from(raw[0].1));
                    if pick % 2 == 0 {
                        swap_within(oracle_p.left.get(&b), (0..7).map(|x| (x, b)), pick / 2)
                    } else {
                        swap_within(oracle_p.right.get(&a), (0..7).map(|y| (a, y)), pick / 2)
                    }
                } else {
                    raw.iter().map(|&(e, w)| (e, weight_of(w))).collect()
                };
                push_both_ways(&mut fused_p, &mut oracle_p, Side::Both, &deltas);
                push_both_ways(&mut fused_e, &mut oracle_e, Side::Both, &deltas);
            }
        }
    }

    #[test]
    fn incremental_group_by_matches_batch() {
        let key = |x: &u32| x % 3;
        let reduce = |g: &[u32]| g.len() as u64;
        let mut inc = IncrementalGroupBy::new(key, reduce);
        let mut input = WeightedDataset::new();
        let mut output = WeightedDataset::new();
        for (record, weight) in [(1u32, 1.0), (4, 1.0), (7, 1.0), (2, 1.0), (4, -1.0)] {
            input.add_weight(record, weight);
            for delta in inc.push(&[(record, weight)]) {
                output.add_weight(delta.0, delta.1);
            }
            let expected = batch::group_by(&input, key, reduce);
            assert!(output.approx_eq(&expected, 1e-9));
        }
        assert_eq!(inc.state_keys(), 2);
    }

    #[test]
    fn incremental_shave_matches_batch() {
        let mut inc = IncrementalShave::new(|_: &&str| std::iter::repeat(1.0));
        let mut input = WeightedDataset::new();
        let mut output = WeightedDataset::new();
        for (record, weight) in [("a", 2.5), ("b", 1.0), ("a", -1.0), ("b", 0.25)] {
            input.add_weight(record, weight);
            for delta in inc.push(&[(record, weight)]) {
                output.add_weight(delta.0, delta.1);
            }
            let expected = batch::shave_const(&input, 1.0);
            assert!(
                output.approx_eq(&expected, 1e-9),
                "after ({record}, {weight})"
            );
        }
    }

    #[test]
    fn incremental_union_and_intersect_match_batch() {
        let mut union = IncrementalMinMax::union();
        let mut inter = IncrementalMinMax::intersect();
        let mut left = WeightedDataset::new();
        let mut right = WeightedDataset::new();
        let mut union_out = WeightedDataset::new();
        let mut inter_out = WeightedDataset::new();
        let steps: Vec<(bool, &str, f64)> = vec![
            (true, "x", 1.0),
            (false, "x", 3.0),
            (true, "y", 2.0),
            (false, "y", 0.5),
            (true, "x", -1.0),
            (false, "z", 4.0),
        ];
        for (is_left, record, weight) in steps {
            let deltas = vec![(record, weight)];
            let (u_deltas, i_deltas) = if is_left {
                left.add_weight(record, weight);
                (union.push_left(&deltas), inter.push_left(&deltas))
            } else {
                right.add_weight(record, weight);
                (union.push_right(&deltas), inter.push_right(&deltas))
            };
            for (r, w) in u_deltas {
                union_out.add_weight(r, w);
            }
            for (r, w) in i_deltas {
                inter_out.add_weight(r, w);
            }
            assert!(union_out.approx_eq(&batch::union(&left, &right), 1e-9));
            assert!(inter_out.approx_eq(&batch::intersect(&left, &right), 1e-9));
        }
    }
}

//! Canonical floating-point accumulation for reproducible weight sums.
//!
//! Several operators sum many partial contributions into one record weight (`Select`
//! collisions, `SelectMany` productions, `Join` matches, shard merges). Floating-point
//! addition is not associative, so the *order* of those additions leaks into the result:
//! two evaluations that produce the same multiset of contributions in different orders —
//! a hash map iterated differently, or shards merged in a different interleaving — can
//! disagree in the last bits. That breaks exact reproducibility and makes it impossible to
//! assert that a sharded evaluation equals a sequential one.
//!
//! The fix is a *canonical accumulation order*: every contribution to a record is
//! collected first, the contributions are sorted by [`f64::total_cmp`], and only then
//! summed. The sum becomes a function of the contribution **multiset** alone, independent
//! of arrival order, so any two executors that produce the same contributions bitwise
//! produce the same dataset bitwise. [`Contributions`] is the accumulator implementing
//! this; [`canonical_sum`] and [`canonical_norm`] are the scalar helpers (`Join` uses the
//! latter for its per-key normalising denominators).

use rustc_hash::FxHashMap;

use crate::dataset::WeightedDataset;
use crate::record::Record;
use crate::weights;

/// Sums `values` in ascending [`f64::total_cmp`] order (sorting `values` in place).
///
/// The result depends only on the multiset of values, never on their initial order.
pub fn canonical_sum(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    values.iter().sum()
}

/// The canonical L1 norm of a weight multiset: `Σ |w|` summed in canonical order.
pub fn canonical_norm<I: IntoIterator<Item = f64>>(weights: I) -> f64 {
    let mut magnitudes: Vec<f64> = weights.into_iter().map(f64::abs).collect();
    canonical_sum(&mut magnitudes)
}

/// The contribution list of one record: almost all records receive exactly one
/// contribution, so the single-element case avoids a heap allocation.
///
/// Public so callers that keep their own record maps (e.g. the incremental engine's
/// delta consolidation) can resolve per-record totals in the same canonical order as
/// [`Contributions`].
#[derive(Debug, Clone)]
pub enum Contribution {
    /// Exactly one contribution so far.
    One(f64),
    /// Two or more contributions, resolved canonically by [`finish`](Contribution::finish).
    Many(Vec<f64>),
}

impl Contribution {
    /// Adds one more contribution.
    pub fn push(&mut self, weight: f64) {
        match self {
            Contribution::One(first) => *self = Contribution::Many(vec![*first, weight]),
            Contribution::Many(values) => values.push(weight),
        }
    }

    /// Resolves the total in canonical ([`canonical_sum`]) order.
    pub fn finish(self) -> f64 {
        match self {
            Contribution::One(w) => w,
            Contribution::Many(mut values) => canonical_sum(&mut values),
        }
    }
}

/// An order-insensitive weight accumulator: collects every `(record, weight)` contribution
/// and resolves each record's total in canonical order on
/// [`into_dataset`](Contributions::into_dataset).
///
/// Feeding the same contributions in any order yields a bitwise-identical dataset, which
/// is what lets the sharded executor guarantee exact equality with sequential evaluation.
#[derive(Debug, Clone)]
pub struct Contributions<T: Record> {
    entries: FxHashMap<T, Contribution>,
}

impl<T: Record> Default for Contributions<T> {
    fn default() -> Self {
        Contributions::new()
    }
}

impl<T: Record> Contributions<T> {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Contributions {
            entries: FxHashMap::default(),
        }
    }

    /// Creates an empty accumulator with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Contributions {
            entries: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// Records one contribution to `record`.
    pub fn push(&mut self, record: T, weight: f64) {
        use std::collections::hash_map::Entry;
        match self.entries.entry(record) {
            Entry::Occupied(mut entry) => entry.get_mut().push(weight),
            Entry::Vacant(entry) => {
                entry.insert(Contribution::One(weight));
            }
        }
    }

    /// Number of distinct records with at least one contribution.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no contribution has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolves every record's contributions in canonical order, dropping records whose
    /// total is negligible (see [`weights::is_negligible`]).
    pub fn into_dataset(self) -> WeightedDataset<T> {
        let mut out = WeightedDataset::with_capacity(self.entries.len());
        for (record, contribution) in self.entries {
            let total = contribution.finish();
            if !weights::is_negligible(total) {
                out.set_weight(record, total);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sum_is_permutation_invariant() {
        // Values chosen so naive left-to-right sums differ between orderings.
        let values = [1e16, 1.0, -1e16, 3.5, 1e-3, -2.75, 1e8, -1e8];
        let mut forward = values.to_vec();
        let mut reverse: Vec<f64> = values.iter().rev().copied().collect();
        let mut rotated: Vec<f64> = values[3..].iter().chain(&values[..3]).copied().collect();
        let a = canonical_sum(&mut forward);
        let b = canonical_sum(&mut reverse);
        let c = canonical_sum(&mut rotated);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), c.to_bits());
    }

    #[test]
    fn contributions_are_order_insensitive_bitwise() {
        let pairs = [
            ("x", 0.1),
            ("x", 0.2),
            ("y", 1e9),
            ("x", 0.3),
            ("y", -1e9),
            ("x", -0.4),
            ("y", 7.5e-7),
        ];
        let mut forward = Contributions::new();
        for (r, w) in pairs {
            forward.push(r, w);
        }
        let mut reverse = Contributions::new();
        for &(r, w) in pairs.iter().rev() {
            reverse.push(r, w);
        }
        let a = forward.into_dataset();
        let b = reverse.into_dataset();
        assert_eq!(a, b);
        for (record, w) in a.iter() {
            assert_eq!(w.to_bits(), b.weight(record).to_bits());
        }
    }

    #[test]
    fn negligible_totals_are_dropped() {
        let mut c = Contributions::new();
        c.push("x", 1.0);
        c.push("x", -1.0);
        c.push("y", 0.5);
        let out = c.into_dataset();
        assert!(!out.contains(&"x"));
        assert_eq!(out.weight(&"y"), 0.5);
    }

    #[test]
    fn canonical_norm_matches_manual_sorted_sum() {
        let n = canonical_norm([3.0, -1.0, 0.5]);
        let mut sorted = [3.0, 1.0, 0.5];
        assert_eq!(n, canonical_sum(&mut sorted));
        assert!((n - 4.5).abs() < 1e-12);
    }
}

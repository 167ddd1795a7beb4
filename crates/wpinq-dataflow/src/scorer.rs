//! Incremental maintenance of the MCMC scoring quantity `‖Q(A) − m‖₁`.

use std::collections::HashMap;

use wpinq_core::accumulate::canonical_sum;
use wpinq_core::{NoisyCounts, Record, WeightedDataset};

use crate::delta::{consolidate, Delta};

/// Maintains the L1 distance between a query's (incrementally updated) output `Q(A)` and a
/// fixed vector of released noisy measurements `m`.
///
/// This is the only quantity the Metropolis–Hastings acceptance ratio of Section 4.2 needs:
/// `Score(A) = exp(ε · ‖Q(A) − m‖₁ · pow)` is compared between the current and proposed
/// state, so maintaining the distance under deltas makes each MCMC step cheap.
///
/// Records that never appear in either the measurements or the query output contribute
/// nothing; records that appear in the output but were never measured are compared against
/// a target of `0.0` (matching [`NoisyCounts::l1_distance`]).
#[derive(Debug, Clone)]
pub struct L1Scorer<T: Record> {
    target: HashMap<T, f64>,
    current: WeightedDataset<T>,
    distance: f64,
}

impl<T: Record> L1Scorer<T> {
    /// Creates a scorer against an explicit target map (record → measured noisy weight).
    ///
    /// The initial query output is empty, so the initial distance is `Σ |m(x)|` — summed
    /// in canonical order, so two scorers over equal targets start bitwise identical no
    /// matter how their maps happen to iterate.
    pub fn new(target: HashMap<T, f64>) -> Self {
        let distance = canonical_sum(&mut target.values().map(|v| v.abs()).collect::<Vec<_>>());
        L1Scorer {
            target,
            current: WeightedDataset::new(),
            distance,
        }
    }

    /// Creates a scorer whose target is the observed portion of a released measurement.
    pub fn from_noisy_counts(counts: &NoisyCounts<T>) -> Self {
        Self::new(
            counts
                .iter_observed()
                .map(|(r, w)| (r.clone(), w))
                .collect(),
        )
    }

    fn target_of(&self, record: &T) -> f64 {
        self.target.get(record).copied().unwrap_or(0.0)
    }

    /// Applies output deltas of the query, updating the maintained distance.
    ///
    /// The batch is consolidated first and the per-record distance changes are summed in
    /// canonical order, so the maintained distance after a push depends only on the
    /// *multiset* of `(record, change)` pairs in the batch — never on their listed order.
    pub fn push(&mut self, deltas: &[Delta<T>]) {
        let batch = consolidate(deltas.to_vec());
        let mut changes: Vec<f64> = Vec::with_capacity(batch.len());
        for (record, change) in batch {
            let target = self.target_of(&record);
            let old = self.current.weight(&record);
            let new = old + change;
            changes.push((new - target).abs() - (old - target).abs());
            self.current.add_weight(record, change);
        }
        self.distance += canonical_sum(&mut changes);
    }

    /// The maintained `‖Q(A) − m‖₁`.
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// Recomputes the distance from scratch (used by tests and as a drift guard),
    /// summing the per-record terms canonically so the result is iteration-order-free.
    pub fn recompute_distance(&self) -> f64 {
        let mut terms = Vec::with_capacity(self.target.len() + self.current.len());
        for (record, target) in &self.target {
            terms.push((self.current.weight(record) - target).abs());
        }
        for (record, weight) in self.current.iter() {
            if !self.target.contains_key(record) {
                terms.push(weight.abs());
            }
        }
        canonical_sum(&mut terms)
    }

    /// The current (incrementally accumulated) query output.
    pub fn current(&self) -> &WeightedDataset<T> {
        &self.current
    }

    /// The measurement targets.
    pub fn target(&self) -> &HashMap<T, f64> {
        &self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_distance_is_the_target_mass() {
        let scorer: L1Scorer<&str> = L1Scorer::new(HashMap::from([("a", 2.0), ("b", -1.0)]));
        assert!((scorer.distance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pushing_towards_the_target_reduces_distance() {
        let mut scorer = L1Scorer::new(HashMap::from([("a", 2.0)]));
        scorer.push(&[("a", 1.0)]);
        assert!((scorer.distance() - 1.0).abs() < 1e-12);
        scorer.push(&[("a", 1.0)]);
        assert!(scorer.distance().abs() < 1e-12);
        scorer.push(&[("a", 1.0)]);
        assert!((scorer.distance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unmeasured_records_count_against_zero() {
        let mut scorer = L1Scorer::new(HashMap::from([("a", 2.0)]));
        scorer.push(&[("zzz", 3.0)]);
        assert!((scorer.distance() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_distance_matches_recompute_under_random_updates() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let target: HashMap<u32, f64> = (0..20).map(|i| (i, rng.gen_range(-3.0..3.0))).collect();
        let mut scorer = L1Scorer::new(target);
        for _ in 0..500 {
            let record = rng.gen_range(0..30u32);
            let delta = rng.gen_range(-1.0..1.0);
            scorer.push(&[(record, delta)]);
        }
        assert!(
            (scorer.distance() - scorer.recompute_distance()).abs() < 1e-6,
            "incremental {} vs recomputed {}",
            scorer.distance(),
            scorer.recompute_distance()
        );
    }
}

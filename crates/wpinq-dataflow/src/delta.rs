//! Weight deltas: the unit of communication between incremental operators.

use rustc_hash::{FxBuildHasher, FxHashMap};

use wpinq_core::accumulate::Contribution;
use wpinq_core::{weights, Record, WeightedDataset};

/// A change to the weight of one record. Positive deltas add weight, negative deltas
/// remove it; a record entering a dataset is `(r, +w)` and one leaving it is `(r, −w)`.
pub type Delta<T> = (T, f64);

/// Merges deltas that touch the same record and drops negligible residue, preserving the
/// first-seen order of records for determinism.
///
/// Colliding deltas are summed in the **canonical** order of
/// [`wpinq_core::accumulate`], so the merged totals depend only on the multiset of
/// contributions — never on the order they were listed in, so incremental deltas stay
/// bitwise equal to the batch kernels, which resolve the same way.
pub fn consolidate<T: Record>(deltas: Vec<Delta<T>>) -> Vec<Delta<T>> {
    let mut order: Vec<T> = Vec::with_capacity(deltas.len());
    let mut acc: FxHashMap<T, Contribution> =
        FxHashMap::with_capacity_and_hasher(deltas.len(), FxBuildHasher::default());
    for (record, weight) in deltas {
        match acc.entry(record.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().push(weight);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Contribution::One(weight));
                order.push(record);
            }
        }
    }
    order
        .into_iter()
        .filter_map(|record| {
            let w = acc
                .remove(&record)
                .expect("every ordered record was inserted")
                .finish();
            if weights::is_negligible(w) {
                None
            } else {
                Some((record, w))
            }
        })
        .collect()
}

/// The deltas that transform `old` into `new`: `new(x) − old(x)` for every record in either.
pub fn diff_datasets<T: Record>(
    new: &WeightedDataset<T>,
    old: &WeightedDataset<T>,
) -> Vec<Delta<T>> {
    let mut out = Vec::new();
    for (record, w_new) in new.iter() {
        let change = w_new - old.weight(record);
        if !weights::is_negligible(change) {
            out.push((record.clone(), change));
        }
    }
    for (record, w_old) in old.iter() {
        if !new.contains(record) && !weights::is_negligible(w_old) {
            out.push((record.clone(), -w_old));
        }
    }
    out
}

/// Applies a batch of deltas to a dataset in place.
pub fn apply_deltas<T: Record>(dataset: &mut WeightedDataset<T>, deltas: &[Delta<T>]) {
    for (record, weight) in deltas {
        dataset.add_weight(record.clone(), *weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidate_merges_and_prunes() {
        let deltas = vec![("a", 1.0), ("b", 2.0), ("a", -1.0), ("c", 0.5), ("c", 0.5)];
        let merged = consolidate(deltas);
        assert_eq!(merged, vec![("b", 2.0), ("c", 1.0)]);
    }

    #[test]
    fn consolidate_preserves_first_seen_order() {
        let merged = consolidate(vec![("z", 1.0), ("a", 1.0), ("z", 1.0)]);
        assert_eq!(merged, vec![("z", 2.0), ("a", 1.0)]);
    }

    #[test]
    fn diff_then_apply_roundtrips() {
        let old = WeightedDataset::from_pairs([("a", 1.0), ("b", 2.0)]);
        let new = WeightedDataset::from_pairs([("b", 0.5), ("c", 3.0)]);
        let deltas = diff_datasets(&new, &old);
        let mut rebuilt = old.clone();
        apply_deltas(&mut rebuilt, &deltas);
        assert!(rebuilt.approx_eq(&new, 1e-12));
    }

    #[test]
    fn diff_of_identical_datasets_is_empty() {
        let a = WeightedDataset::from_pairs([("a", 1.0), ("b", 2.0)]);
        assert!(diff_datasets(&a, &a).is_empty());
    }
}

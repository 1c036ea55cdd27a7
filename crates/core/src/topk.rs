//! Top-k finalisation and the CPU reference used throughout the tests.

use crate::model::ObjectId;

/// One top-k hit: an object and its match count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopHit {
    pub id: ObjectId,
    pub count: u32,
}

/// Reduce raw `(id, count)` candidates to the final top-k list.
///
/// Duplicate ids (the lock-free hash table can emit several entries for
/// one key) are merged by maximum count; entries below `threshold`
/// (`AT - 1`, per Theorem 3.1) are dropped; the survivors are sorted by
/// count descending. The paper breaks ties randomly — we break them by
/// ascending id so results are reproducible.
///
/// The merge map is pre-sized from the candidate iterator's size hint,
/// so the device-engine path (whose candidate download knows its exact
/// length) never rehashes mid-merge. Callers whose candidate stream is
/// already duplicate-free should use [`finalize_unique_candidates`],
/// which skips the map entirely.
pub fn finalize_candidates<I>(candidates: I, threshold: u32, k: usize) -> Vec<TopHit>
where
    I: IntoIterator<Item = (ObjectId, u32)>,
{
    let candidates = candidates.into_iter();
    let (lower, upper) = candidates.size_hint();
    let mut best: std::collections::HashMap<ObjectId, u32> =
        std::collections::HashMap::with_capacity(upper.unwrap_or(lower));
    for (id, count) in candidates {
        if count >= threshold {
            let e = best.entry(id).or_insert(0);
            *e = (*e).max(count);
        }
    }
    let hits: Vec<TopHit> = best
        .into_iter()
        .map(|(id, count)| TopHit { id, count })
        .collect();
    partial_top_k(hits, k)
}

/// [`finalize_candidates`] for candidate streams that are already
/// duplicate-free — one entry per object, as the CPU kernel's sparse
/// harvest and dense sweep both guarantee. No merge map is built: the
/// survivors go straight into the shared quickselect, so finalisation
/// costs `O(candidates + k log k)` with no hashing at all.
///
/// Feeding duplicates in violates the contract and double-lists the
/// object (checked by `debug_assert` in test builds); use
/// [`finalize_candidates`] for streams that can repeat ids.
pub fn finalize_unique_candidates<I>(candidates: I, threshold: u32, k: usize) -> Vec<TopHit>
where
    I: IntoIterator<Item = (ObjectId, u32)>,
{
    let hits: Vec<TopHit> = candidates
        .into_iter()
        .filter(|&(_, count)| count >= threshold)
        .map(|(id, count)| TopHit { id, count })
        .collect();
    debug_assert!(
        {
            let mut ids: Vec<ObjectId> = hits.iter().map(|h| h.id).collect();
            ids.sort_unstable();
            ids.windows(2).all(|w| w[0] != w[1])
        },
        "finalize_unique_candidates fed duplicate ids"
    );
    partial_top_k(hits, k)
}

/// Exact top-k of pre-scored hits: quickselect the k-th boundary by
/// (count descending, id ascending), truncate, and order the survivors
/// the same way. This is the one definition of the result-ordering
/// contract shared by the CPU backend, the shard merge and the CPU-Idx
/// baseline.
pub fn partial_top_k(mut hits: Vec<TopHit>, k: usize) -> Vec<TopHit> {
    if k == 0 {
        hits.clear();
        return hits;
    }
    let by_count_then_id = |a: &TopHit, b: &TopHit| b.count.cmp(&a.count).then(a.id.cmp(&b.id));
    if hits.len() > k {
        hits.select_nth_unstable_by(k - 1, by_count_then_id);
        hits.truncate(k);
    }
    hits.sort_unstable_by(by_count_then_id);
    hits
}

/// The final AuditThreshold Theorem 3.1 assigns to a finished top-k
/// list: `MC_k + 1` when `k` objects matched, else the initial 1 (the
/// gate never advances when fewer than `k` objects reach any count).
pub fn audit_threshold(hits: &[TopHit], k: usize) -> u32 {
    if hits.len() == k && k > 0 {
        hits[k - 1].count + 1
    } else {
        1
    }
}

/// Brute-force reference: the top-k of a dense count array, zero counts
/// excluded (an object no query item touches is not a candidate), ties
/// by ascending id.
pub fn reference_top_k(counts: &[u32], k: usize) -> Vec<TopHit> {
    let mut hits: Vec<TopHit> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(id, &count)| TopHit {
            id: id as ObjectId,
            count,
        })
        .collect();
    hits.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.id.cmp(&b.id)));
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_merges_duplicates_by_max() {
        let hits = finalize_candidates(vec![(1, 2), (1, 5), (2, 3)], 0, 10);
        assert_eq!(
            hits,
            vec![TopHit { id: 1, count: 5 }, TopHit { id: 2, count: 3 }]
        );
    }

    #[test]
    fn engine_path_still_merges_duplicates_after_presizing() {
        // regression for the pre-sized merge map: the lock-free hash
        // table can emit one object several times (chain displacement),
        // and the engine path must still keep the maximum count even
        // when duplicates push past the size hint's unique-id count
        let raw: Vec<(u32, u32)> = (0..64)
            .flat_map(|id| (1..=3).map(move |c| (id % 8, c)))
            .collect();
        let hits = finalize_candidates(raw, 1, 8);
        assert_eq!(hits.len(), 8);
        assert!(hits.iter().all(|h| h.count == 3), "max count per id wins");
        let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn unique_variant_matches_general_on_duplicate_free_input() {
        let pairs: Vec<(u32, u32)> = vec![(4, 9), (1, 1), (2, 5), (3, 4), (9, 5)];
        for threshold in 0..6 {
            for k in 1..6 {
                assert_eq!(
                    finalize_unique_candidates(pairs.clone(), threshold, k),
                    finalize_candidates(pairs.clone(), threshold, k),
                    "threshold {threshold}, k {k}"
                );
            }
        }
    }

    #[test]
    fn finalize_applies_threshold_and_k() {
        let hits = finalize_candidates(vec![(1, 1), (2, 5), (3, 4), (4, 9)], 4, 2);
        assert_eq!(
            hits,
            vec![TopHit { id: 4, count: 9 }, TopHit { id: 2, count: 5 }]
        );
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let hits = finalize_candidates(vec![(9, 3), (2, 3), (5, 3)], 0, 2);
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[1].id, 5);
    }

    #[test]
    fn partial_top_k_matches_reference() {
        let counts = [0u32, 4, 2, 4, 0, 1, 4];
        let hits: Vec<TopHit> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(id, &count)| TopHit {
                id: id as u32,
                count,
            })
            .collect();
        for k in 1..=counts.len() {
            assert_eq!(partial_top_k(hits.clone(), k), reference_top_k(&counts, k));
        }
    }

    #[test]
    fn audit_threshold_follows_theorem_3_1() {
        let hits = vec![
            TopHit { id: 1, count: 4 },
            TopHit { id: 3, count: 4 },
            TopHit { id: 2, count: 2 },
        ];
        assert_eq!(audit_threshold(&hits, 3), 3, "MC_3 = 2 -> AT = 3");
        assert_eq!(audit_threshold(&hits[..2], 2), 5, "MC_2 = 4 -> AT = 5");
        assert_eq!(audit_threshold(&hits, 5), 1, "fewer than k matched");
        assert_eq!(audit_threshold(&[], 1), 1, "nothing matched");
    }

    #[test]
    fn reference_ignores_zero_counts() {
        let hits = reference_top_k(&[0, 3, 0, 1], 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], TopHit { id: 1, count: 3 });
    }

    #[test]
    fn reference_and_finalize_agree() {
        let counts = [5u32, 0, 3, 3, 8, 1];
        let pairs: Vec<(u32, u32)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        assert_eq!(
            reference_top_k(&counts, 3),
            finalize_candidates(pairs, 1, 3)
        );
    }
}

//! The one way to partition a data set and merge its top-k: split it
//! across self-contained index shards and recombine per-shard answers
//! into the global one.
//!
//! Each [`Shard`] is a complete [`InvertedIndex`] over a subset of the
//! objects, carrying its own local→global id map, so any search backend
//! can serve a shard without knowing it is one of several. Every layer
//! that splits a data set uses this type: the serving layer registers
//! every collection as `S ≥ 1` shards (an unsharded one is a single
//! [`Shard::identity`]) and fans each wave out to all of them, the
//! live-mutation layer ([`crate::delta`]) mounts pending inserts as one
//! more shard, and the paper's multiple loading ([`crate::multiload`],
//! §III-D) pages device-sized shards through one device's memory. All
//! of them recombine per-shard answers with [`merge_shard_topk`] (or
//! its tombstone-filtering form).
//!
//! # Merge invariants
//!
//! Each object's match count is computed entirely within its own shard
//! (postings never cross shards), so per-shard counts equal the
//! unsharded counts. The merge therefore preserves the backend
//! contract end to end:
//!
//! * **Counts** — the merged top-k count profile is identical to an
//!   unsharded search: any object in the global top-k is, a fortiori,
//!   in its own shard's top-k, so it survives the per-shard truncation
//!   and reaches the merge.
//! * **AuditThreshold** — Theorem 3.1 is applied to the *merged* list:
//!   `AT = MC_k + 1` where `MC_k` is the k-th count of the merged
//!   answer (1 when fewer than `k` objects matched anywhere).
//! * **Ordering** — merged hits are ordered count-descending with
//!   ascending-id ties, exactly like every backend's own output.
//! * **Ids** — may differ from an unsharded run only among objects tied
//!   at the k-th count (the paper breaks those ties randomly). With
//!   backends that deterministically keep the lowest ids among ties
//!   (e.g. [`crate::backend::CpuBackend`]) the merged answer is
//!   bit-identical to the unsharded one, because each shard's
//!   local-id order is the global-id order restricted to the shard
//!   ([`ShardPlan`] assigns objects to shards in scan order, so every
//!   local→global map is strictly increasing).

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::index::{IndexBuilder, InvertedIndex, LoadBalanceConfig};
use crate::model::{Object, ObjectId};
use crate::topk::{audit_threshold, partial_top_k, TopHit};

/// Why a shard plan could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// `num_shards == 0` was requested; a plan needs at least one shard.
    ZeroShards,
    /// The explicit assignment names a different number of objects than
    /// the collection holds.
    AssignmentLength {
        /// Objects the assignment names.
        named: usize,
        /// Objects the collection holds.
        have: usize,
    },
    /// The assignment routes an object to a shard outside the plan.
    ShardOutOfRange {
        /// The offending shard id.
        shard: usize,
        /// Shards in the plan.
        num_shards: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "need at least one shard"),
            ShardError::AssignmentLength { named, have } => write!(
                f,
                "assignment names {named} objects but the collection has {have}"
            ),
            ShardError::ShardOutOfRange { shard, num_shards } => write!(
                f,
                "assignment names shard {shard} but the plan has {num_shards}"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// One self-contained index shard: a complete [`InvertedIndex`] over a
/// subset of the collection plus the map from its local object ids back
/// to collection-global ids.
#[derive(Clone)]
pub struct Shard {
    /// The shard's own inverted index (local ids `0..len`).
    pub index: Arc<InvertedIndex>,
    /// `global_ids[local]` is the collection-global id of the shard's
    /// local object `local`. Strictly increasing (objects are assigned
    /// in scan order), so local-id ordering is global-id ordering.
    pub global_ids: Arc<Vec<ObjectId>>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // summarise: dumping postings lists would swamp any log line
        f.debug_struct("Shard")
            .field("objects", &self.global_ids.len())
            .finish_non_exhaustive()
    }
}

impl Shard {
    /// Translate a shard-local hit list to collection-global ids. The
    /// relative order is unchanged: the local→global map is strictly
    /// increasing, so (count desc, id asc) ordering survives
    /// translation.
    pub fn to_global(&self, hits: &[TopHit]) -> Vec<TopHit> {
        hits.iter()
            .map(|h| TopHit {
                id: self.global_ids[h.id as usize],
                count: h.count,
            })
            .collect()
    }

    /// Whether the collection-global id `id` lives in this shard
    /// (binary search — `global_ids` is strictly increasing).
    pub fn contains_global(&self, id: ObjectId) -> bool {
        self.global_ids.binary_search(&id).is_ok()
    }

    /// Objects in this shard.
    pub fn len(&self) -> usize {
        self.global_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.global_ids.is_empty()
    }

    /// Wrap a whole-collection index as a single shard whose local ids
    /// *are* the global ids (`global_ids[i] == i`). This is how an
    /// unsharded collection is served: the existing index is the one
    /// base shard, without a rebuild.
    pub fn identity(index: Arc<InvertedIndex>) -> Self {
        let n = index.num_objects();
        Shard {
            index,
            global_ids: Arc::new((0..n).collect()),
        }
    }

    /// Rebuild this shard's `(stable id, object)` pairs by inverting its
    /// index and zipping with the local→global map. Keywords within an
    /// object come back sorted (the index stores them that way). The
    /// keyword multisets are exact, also for load-balance-capped
    /// indexes: splitting a list into sublists drops no posting (see
    /// [`InvertedIndex::reconstruct_objects`]).
    pub fn entries(&self) -> Vec<(ObjectId, Object)> {
        self.index
            .reconstruct_objects()
            .into_iter()
            .zip(self.global_ids.iter())
            .map(|(obj, &id)| (id, obj))
            .collect()
    }
}

/// How one collection's objects are split into [`Shard`]s.
///
/// Build one with [`ShardPlan::build`] (near-even contiguous split),
/// [`ShardPlan::from_assignment`] (arbitrary split, e.g. for tests or
/// locality-aware placement) or [`ShardPlan::from_index`] (re-shard a
/// data set only held as an index). Empty shards are dropped — every
/// retained shard serves at least one object (an empty *collection*
/// keeps a single empty shard so it can still be registered and
/// searched like its unsharded twin).
#[derive(Clone)]
pub struct ShardPlan {
    shards: Vec<Shard>,
    num_objects: usize,
}

impl ShardPlan {
    /// Split `objects` into at most `num_shards` near-even contiguous
    /// shards (the requested count is clamped to the number of
    /// objects — no shard is created empty). Each shard's index is
    /// built with `load_balance`, like an unsharded build.
    pub fn build(
        objects: &[Object],
        num_shards: usize,
        load_balance: Option<LoadBalanceConfig>,
    ) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let shards = num_shards.min(objects.len()).max(1);
        // `i * shards / n` yields contiguous runs whose sizes differ by
        // at most one AND hits every shard index — a ceil-sized chunk
        // split can leave trailing shards empty (6 objects / 4 shards
        // at chunk 2 fills only 3)
        let n = objects.len().max(1);
        let assignment: Vec<usize> = (0..objects.len()).map(|i| i * shards / n).collect();
        Self::from_assignment(objects, shards, &assignment, load_balance)
            .expect("contiguous assignment is always valid")
    }

    /// Split `objects` by an explicit per-object shard assignment
    /// (`assignment[i] < num_shards` names object `i`'s shard). Objects
    /// keep scan order within their shard, so every local→global map is
    /// strictly increasing. Shards that receive no objects are dropped.
    pub fn from_assignment(
        objects: &[Object],
        num_shards: usize,
        assignment: &[usize],
        load_balance: Option<LoadBalanceConfig>,
    ) -> Result<Self, ShardError> {
        if num_shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        if assignment.len() != objects.len() {
            return Err(ShardError::AssignmentLength {
                named: assignment.len(),
                have: objects.len(),
            });
        }
        if let Some(&bad) = assignment.iter().find(|&&s| s >= num_shards) {
            return Err(ShardError::ShardOutOfRange {
                shard: bad,
                num_shards,
            });
        }
        let mut ids: Vec<Vec<ObjectId>> = vec![Vec::new(); num_shards];
        for (global, &shard) in assignment.iter().enumerate() {
            ids[shard].push(global as ObjectId);
        }
        // one shard at a time, so only one builder's staged postings are
        // alive at once
        let mut shards: Vec<Shard> = ids
            .into_iter()
            .filter(|ids| !ids.is_empty())
            .map(|ids| {
                let mut builder = IndexBuilder::new();
                for &global in &ids {
                    builder.add_object(&objects[global as usize]);
                }
                Shard {
                    index: Arc::new(builder.build(load_balance)),
                    global_ids: Arc::new(ids),
                }
            })
            .collect();
        if shards.is_empty() {
            // an empty collection still needs one (empty) shard so it
            // can be registered and searched like its unsharded twin
            shards.push(Shard {
                index: Arc::new(IndexBuilder::new().build(load_balance)),
                global_ids: Arc::new(Vec::new()),
            });
        }
        Ok(Self {
            shards,
            num_objects: objects.len(),
        })
    }

    /// Re-shard a data set only held as an index: invert the index back
    /// into objects ([`InvertedIndex::reconstruct_objects`]) and
    /// [`build`](Self::build) a contiguous plan with the index's own
    /// load-balance configuration.
    ///
    /// `num_shards == 0` is a [`ShardError::ZeroShards`] error; a count
    /// larger than the collection is clamped (the documented
    /// [`build`](Self::build) behaviour — no shard is created empty).
    pub fn from_index(index: &InvertedIndex, num_shards: usize) -> Result<Self, ShardError> {
        if num_shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        Ok(Self::build(
            &index.reconstruct_objects(),
            num_shards,
            index.load_balance(),
        ))
    }

    /// The shards, in ascending global-id order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of (non-empty) shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Objects across all shards.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }
}

impl std::fmt::Debug for ShardPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlan")
            .field("num_shards", &self.num_shards())
            .field("num_objects", &self.num_objects)
            .field(
                "shard_sizes",
                &self.shards.iter().map(Shard::len).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Recombine per-shard top-k lists (already translated to global ids,
/// e.g. by [`Shard::to_global`]) into the collection-global top-k and
/// its Theorem 3.1 certificate: the merged hits ordered
/// (count desc, id asc) and truncated to `k`, plus `AT = MC_k + 1` on
/// the *merged* answer (1 when fewer than `k` objects matched). See the
/// [module docs](self) for why the merged counts equal an unsharded
/// search's.
pub fn merge_shard_topk(per_shard: Vec<Vec<TopHit>>, k: usize) -> (Vec<TopHit>, u32) {
    merge_shard_topk_filtered(per_shard, k, &BTreeSet::new())
}

/// [`merge_shard_topk`] for a collection with deletes pending: drop
/// tombstoned (deleted) ids from the flattened per-shard candidates
/// **before** truncating to `k`, then apply Theorem 3.1 to the filtered
/// merged answer.
///
/// Filtering before truncation is what makes the live answer identical
/// to a from-scratch rebuild without the deleted objects: as long as
/// every shard contributed at least its own top-`k` *surviving* objects
/// (the serving layer inflates the per-shard fetch by the tombstones
/// the shard holds, so at most that many of its hits can be dead),
/// every object of the true live top-k reaches the merge, and
/// `AT = MC_k + 1` is computed on live counts only.
pub fn merge_shard_topk_filtered(
    per_shard: Vec<Vec<TopHit>>,
    k: usize,
    tombstones: &BTreeSet<ObjectId>,
) -> (Vec<TopHit>, u32) {
    // grow the first list in place: a single-shard merge then moves
    // no hits and allocates nothing
    let mut lists = per_shard.into_iter();
    let mut candidates = lists.next().unwrap_or_default();
    candidates.extend(lists.flatten());
    if !tombstones.is_empty() {
        candidates.retain(|h| !tombstones.contains(&h.id));
    }
    let hits = partial_top_k(candidates, k);
    let at = audit_threshold(&hits, k);
    (hits, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{match_count, Query};
    use crate::topk::reference_top_k;

    fn objects(n: u32) -> Vec<Object> {
        (0..n)
            .map(|i| Object::new(vec![i % 7, 100 + i % 3]))
            .collect()
    }

    /// Per-shard brute-force top-k with global ids, the way a backend
    /// fleet would produce it.
    fn shard_topk(shard: &Shard, objects: &[Object], query: &Query, k: usize) -> Vec<TopHit> {
        let counts: Vec<u32> = shard
            .global_ids
            .iter()
            .map(|&g| match_count(query, &objects[g as usize]))
            .collect();
        shard.to_global(&reference_top_k(&counts, k))
    }

    #[test]
    fn contiguous_build_covers_all_objects_in_order() {
        let objs = objects(25);
        let plan = ShardPlan::build(&objs, 4, None);
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.num_objects(), 25);
        let mut seen: Vec<ObjectId> = Vec::new();
        for shard in plan.shards() {
            assert!(
                shard.global_ids.windows(2).all(|w| w[0] < w[1]),
                "local→global maps must be strictly increasing"
            );
            assert_eq!(shard.index.num_objects() as usize, shard.len());
            seen.extend(shard.global_ids.iter());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..25).collect::<Vec<_>>());
    }

    /// Regression: a ceil-sized chunk split left trailing shards empty
    /// (6 objects at 4 shards → chunks 2,2,2 → only 3 shards), so the
    /// plan delivered fewer shards than the documented clamp promises.
    #[test]
    fn build_fills_every_requested_shard_when_objects_suffice() {
        for (n, s) in [(6u32, 4usize), (5, 4), (7, 3), (50, 8), (9, 9)] {
            let plan = ShardPlan::build(&objects(n), s, None);
            assert_eq!(plan.num_shards(), s, "{n} objects / {s} shards");
            let sizes: Vec<usize> = plan.shards().iter().map(Shard::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "near-even split, got {sizes:?}");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_the_collection() {
        let plan = ShardPlan::build(&objects(3), 10, None);
        assert_eq!(plan.num_shards(), 3, "no empty shards");
        let one = ShardPlan::build(&objects(5), 1, None);
        assert_eq!(one.num_shards(), 1);
        assert_eq!(one.shards()[0].len(), 5);
    }

    #[test]
    fn empty_collection_keeps_one_empty_shard() {
        let plan = ShardPlan::build(&[], 4, None);
        assert_eq!(plan.num_shards(), 1, "registrable like its unsharded twin");
        assert_eq!(plan.num_objects(), 0);
        assert!(plan.shards()[0].is_empty());
        assert_eq!(plan.shards()[0].index.num_objects(), 0);
    }

    #[test]
    fn assignment_is_validated_and_drops_empty_shards() {
        let objs = objects(6);
        assert_eq!(
            ShardPlan::from_assignment(&objs, 0, &[], None).unwrap_err(),
            ShardError::ZeroShards,
        );
        assert_eq!(
            ShardPlan::from_assignment(&objs, 2, &[0, 1], None).unwrap_err(),
            ShardError::AssignmentLength { named: 2, have: 6 },
        );
        assert_eq!(
            ShardPlan::from_assignment(&objs, 2, &[0, 1, 2, 0, 1, 0], None).unwrap_err(),
            ShardError::ShardOutOfRange {
                shard: 2,
                num_shards: 2
            },
        );
        // shard 1 receives nothing and is dropped
        let plan = ShardPlan::from_assignment(&objs, 3, &[0, 2, 0, 2, 0, 2], None).unwrap();
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.shards()[0].global_ids.as_slice(), &[0, 2, 4]);
        assert_eq!(plan.shards()[1].global_ids.as_slice(), &[1, 3, 5]);
    }

    #[test]
    fn merged_topk_is_bit_identical_to_unsharded_reference() {
        let objs = objects(40);
        let queries = [
            Query::from_keywords(&[3, 101]),
            Query::from_keywords(&[0]),
            Query::from_keywords(&[999]), // matches nothing
        ];
        // an uneven, interleaved split
        let assignment: Vec<usize> = (0..objs.len()).map(|i| (i * i) % 3).collect();
        let plan = ShardPlan::from_assignment(&objs, 3, &assignment, None).unwrap();
        for query in &queries {
            let global_counts: Vec<u32> = objs.iter().map(|o| match_count(query, o)).collect();
            for k in [1, 3, 7, 40] {
                let per_shard: Vec<Vec<TopHit>> = plan
                    .shards()
                    .iter()
                    .map(|s| shard_topk(s, &objs, query, k))
                    .collect();
                let (merged, at) = merge_shard_topk(per_shard, k);
                let expected = reference_top_k(&global_counts, k);
                assert_eq!(merged, expected, "{query:?} k={k}");
                assert_eq!(
                    at,
                    audit_threshold(&expected, k),
                    "AT must be MC_k + 1 on the merged answer ({query:?} k={k})"
                );
            }
        }
    }

    #[test]
    fn from_index_round_trips_the_objects() {
        let objs = objects(17);
        let mut b = IndexBuilder::new();
        b.add_objects(objs.iter());
        let index = b.build(None);
        let plan = ShardPlan::from_index(&index, 4).unwrap();
        assert_eq!(plan.num_objects(), 17);
        let mut rebuilt: Vec<(ObjectId, Object)> = Vec::new();
        for shard in plan.shards() {
            for (local, obj) in shard.index.reconstruct_objects().into_iter().enumerate() {
                rebuilt.push((shard.global_ids[local], obj));
            }
        }
        rebuilt.sort_by_key(|(g, _)| *g);
        for (g, obj) in rebuilt {
            let mut want = objs[g as usize].keywords.clone();
            want.sort_unstable();
            assert_eq!(obj.keywords, want, "object {g}");
        }
    }

    #[test]
    fn merge_handles_underfull_and_empty_shards() {
        let (hits, at) = merge_shard_topk(vec![vec![], vec![]], 3);
        assert!(hits.is_empty());
        assert_eq!(at, 1, "nothing matched: AT stays at its initial 1");
        let (hits, at) = merge_shard_topk(
            vec![
                vec![TopHit { id: 4, count: 2 }],
                vec![TopHit { id: 1, count: 2 }],
            ],
            3,
        );
        assert_eq!(hits.len(), 2, "fewer than k matched");
        assert_eq!(hits[0].id, 1, "ties break by ascending global id");
        assert_eq!(at, 1, "AT advances only when k objects matched");
    }

    #[test]
    fn from_index_rejects_zero_shards() {
        let index = IndexBuilder::new().build(None);
        assert_eq!(
            ShardPlan::from_index(&index, 0).unwrap_err(),
            ShardError::ZeroShards
        );
        assert!(ShardError::ZeroShards.to_string().contains("shard"));
    }

    #[test]
    fn identity_shard_maps_local_ids_to_themselves() {
        let objs = objects(9);
        let mut b = IndexBuilder::new();
        b.add_objects(objs.iter());
        let shard = Shard::identity(Arc::new(b.build(None)));
        assert_eq!(shard.len(), 9);
        assert_eq!(
            shard.global_ids.as_slice(),
            (0..9).collect::<Vec<ObjectId>>().as_slice()
        );
        let entries = shard.entries();
        assert_eq!(entries.len(), 9);
        for (id, obj) in entries {
            let mut want = objs[id as usize].keywords.clone();
            want.sort_unstable();
            assert_eq!(obj.keywords, want);
        }
    }

    /// Filtering tombstones before truncation equals a brute-force
    /// rebuild without the deleted objects, provided each shard fetched
    /// k + |tombstones| hits.
    #[test]
    fn filtered_merge_equals_rebuild_without_tombstoned_objects() {
        let objs = objects(40);
        let tombstones: BTreeSet<ObjectId> = [0, 3, 7, 14, 21, 35].into_iter().collect();
        let assignment: Vec<usize> = (0..objs.len()).map(|i| (i * 5) % 3).collect();
        let plan = ShardPlan::from_assignment(&objs, 3, &assignment, None).unwrap();
        let query = Query::from_keywords(&[3, 101]);
        for k in [1usize, 3, 7, 40] {
            let k_eff = k + tombstones.len();
            let per_shard: Vec<Vec<TopHit>> = plan
                .shards()
                .iter()
                .map(|s| shard_topk(s, &objs, &query, k_eff))
                .collect();
            let (merged, at) = merge_shard_topk_filtered(per_shard, k, &tombstones);
            // brute force over the surviving objects, ids preserved
            let live_counts: Vec<TopHit> = objs
                .iter()
                .enumerate()
                .filter(|(i, _)| !tombstones.contains(&(*i as ObjectId)))
                .map(|(i, o)| TopHit {
                    id: i as ObjectId,
                    count: match_count(&query, o),
                })
                .filter(|h| h.count > 0)
                .collect();
            let expected = partial_top_k(live_counts, k);
            assert_eq!(merged, expected, "k={k}");
            assert_eq!(at, audit_threshold(&expected, k), "k={k}");
        }
    }
}

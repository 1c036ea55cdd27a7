//! Live mutations: a mutable **delta shard** plus a **tombstone set**
//! layered over immutable base [`Shard`]s, LSM-style, so a collection
//! can absorb inserts and deletes without a full reindex. Every served
//! collection carries a [`DeltaPlan`] from the moment it is registered
//! — a never-mutated one simply has an empty delta and no tombstones.
//!
//! # Model
//!
//! A [`DeltaPlan`] owns three pieces of state:
//!
//! * **base shards** — immutable [`Shard`]s (the collection as of the
//!   last build or compaction), each carrying stable global ids;
//! * **delta** — an append-only log of `(stable id, object)` inserts
//!   since the last compaction, servable as one more shard
//!   ([`DeltaPlan::delta_shard`]);
//! * **tombstones** — stable ids deleted since the last compaction.
//!   A tombstoned object may still appear in base or delta postings;
//!   it is filtered out of every answer by
//!   [`crate::shard::merge_shard_topk_filtered`] *before* truncation
//!   to `k`.
//!
//! Stable ids are assigned in insertion order, are dense in
//! `0..next_id`, and are **never reused** — they survive compaction, so
//! ids handed to callers (and the id-indexed item stores of the
//! stateful domains) stay valid forever.
//!
//! Membership is *derived*, not stored: an id is live iff it is not
//! tombstoned and some base shard's `global_ids` or the delta holds it
//! (both strictly increasing, so the lookup is a binary search). The
//! invariant that keeps [`len`](DeltaPlan::len) a subtraction: every
//! tombstone names exactly one entry still present in base ∪ delta —
//! [`delete`](DeltaPlan::delete) only tombstones live ids, and
//! [`apply_compaction`](DeltaPlan::apply_compaction) removes folded
//! tombstones and their entries together. So cloning a plan (what a
//! mutation batch stages on) costs O(shards + debt), not
//! O(collection).
//!
//! # Rebuild equivalence
//!
//! The invariant every layer above relies on: searching base + delta
//! with tombstone filtering returns exactly the hits, counts and
//! AuditThreshold of a from-scratch rebuild over the live item set.
//! Per-object match counts are computed entirely within one shard
//! (postings never cross shards), so they equal the rebuilt counts;
//! filtering dead ids before truncation means the live top-k is the
//! rebuilt top-k, provided each shard contributed its top
//! `k + num_tombstones` hits (at most `num_tombstones` of any shard's
//! hits can be dead). Theorem 3.1's `AT = MC_k + 1` is then computed on
//! the filtered merged list.
//!
//! # Compaction protocol
//!
//! Compaction folds delta + tombstones back into re-sharded base shards
//! without blocking concurrent mutations. It is split into a cheap
//! [`snapshot`](DeltaPlan::snapshot) (clone shard handles + delta
//! prefix under the collection lock), an expensive *pure*
//! [`CompactionSnapshot::compact`] (rebuild indexes lock-free, off
//! thread), and a cheap [`apply`](DeltaPlan::apply_compaction) (swap
//! under the lock). Mutations racing the off-lock rebuild are safe
//! because the delta is append-only and tombstones only grow:
//!
//! * inserts during compaction land *after* the snapshotted prefix and
//!   are kept as the new (smaller) delta;
//! * deletes during compaction add tombstones that are **not** in the
//!   snapshot, so `apply` keeps them active — they correctly mask the
//!   new base even if the deleted object was just folded into it.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::index::{IndexBuilder, LoadBalanceConfig};
use crate::model::{Object, ObjectId};
use crate::shard::{Shard, ShardPlan};

/// Mutation state of one collection: immutable base shards, an
/// append-only insert delta and a tombstone set. See the
/// [module docs](self) for the model and the compaction protocol.
#[derive(Clone)]
pub struct DeltaPlan {
    base: Vec<Shard>,
    /// Append-only since the last compaction; stable ids strictly
    /// increasing, so the delta shard's local→global map is too.
    delta: Vec<(ObjectId, Object)>,
    /// Ids deleted since the last compaction; each still appears in
    /// exactly one base shard or delta entry until then.
    tombstones: BTreeSet<ObjectId>,
    next_id: ObjectId,
    load_balance: Option<LoadBalanceConfig>,
}

impl DeltaPlan {
    /// Start a plan over existing base shards (e.g. the shards of a
    /// [`ShardPlan`], or a single [`Shard::identity`] wrapping an
    /// unsharded collection's index). All base objects start live; ids
    /// continue after the largest base id.
    pub fn from_base(base: Vec<Shard>, load_balance: Option<LoadBalanceConfig>) -> Self {
        let next_id = base
            .iter()
            .flat_map(|s| s.global_ids.iter())
            .max()
            .map_or(0, |&m| m + 1);
        Self {
            base,
            delta: Vec::new(),
            tombstones: BTreeSet::new(),
            next_id,
            load_balance,
        }
    }

    /// Rebuild a plan from externally persisted state (a snapshot plus
    /// replayed journal suffix), validating the invariants
    /// [`from_base`](Self::from_base)-built plans enjoy by construction.
    ///
    /// Unlike `from_base`, the caller supplies `next_id` explicitly:
    /// deriving it from the largest *live* id would reuse an id whenever
    /// the newest object had been tombstoned, violating the never-reuse
    /// contract that keeps caller-held ids and the id-indexed item
    /// stores valid across restarts.
    pub fn restore(
        base: Vec<Shard>,
        delta: Vec<(ObjectId, Object)>,
        tombstones: Vec<ObjectId>,
        next_id: ObjectId,
        load_balance: Option<LoadBalanceConfig>,
    ) -> Result<Self, RestoreError> {
        if !base
            .iter()
            .all(|s| s.global_ids.windows(2).all(|w| w[0] < w[1]))
        {
            return Err(RestoreError::UnsortedShardIds);
        }
        if !delta.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(RestoreError::UnsortedDeltaIds);
        }
        // every persisted entry id, sorted: duplicates become adjacent
        let mut ids: Vec<ObjectId> = base
            .iter()
            .flat_map(|s| s.global_ids.iter().copied())
            .chain(delta.iter().map(|(id, _)| *id))
            .collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(RestoreError::DuplicateId(dup[0]));
        }
        let max_seen = ids.last().into_iter().chain(&tombstones).max().copied();
        if let Some(max_seen) = max_seen.filter(|&m| next_id <= m) {
            return Err(RestoreError::NextIdTooSmall { next_id, max_seen });
        }
        // a tombstone without an entry masks nothing; dropping it keeps
        // the one-entry-per-tombstone invariant `len` relies on
        let tombstones = tombstones
            .into_iter()
            .filter(|id| ids.binary_search(id).is_ok())
            .collect();
        Ok(Self {
            base,
            delta,
            tombstones,
            next_id,
            load_balance,
        })
    }

    /// Insert an object, assigning the next stable id. O(1) amortized;
    /// the delta index itself is rebuilt by
    /// [`delta_shard`](Self::delta_shard) per mutation *batch*, not per
    /// insert.
    pub fn insert(&mut self, object: Object) -> ObjectId {
        let id = self.next_id;
        self.next_id += 1;
        self.delta.push((id, object));
        id
    }

    /// Delete a live object by stable id. Returns `false` (and changes
    /// nothing) if `id` was never assigned or is already dead.
    pub fn delete(&mut self, id: ObjectId) -> bool {
        self.contains(id) && self.tombstones.insert(id)
    }

    /// Is `id` currently live? Not tombstoned, and held by a base shard
    /// or the delta (binary searches — both id lists are strictly
    /// increasing).
    pub fn contains(&self, id: ObjectId) -> bool {
        !self.tombstones.contains(&id)
            && (self.base.iter().any(|s| s.contains_global(id))
                || self.delta.binary_search_by_key(&id, |(id, _)| *id).is_ok())
    }

    /// Live objects (base + delta minus tombstones).
    pub fn len(&self) -> usize {
        self.base.iter().map(Shard::len).sum::<usize>() + self.delta.len() - self.tombstones.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next id [`insert`](Self::insert) would assign (== total ids
    /// ever assigned).
    pub fn next_id(&self) -> ObjectId {
        self.next_id
    }

    /// The immutable base shards.
    pub fn base(&self) -> &[Shard] {
        &self.base
    }

    /// Inserts pending in the delta (including since-tombstoned ones).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// The pending `(stable id, object)` delta entries, in insertion
    /// order — what a durability layer must persist to replay the
    /// un-compacted suffix of the mutation history.
    pub fn delta_entries(&self) -> &[(ObjectId, Object)] {
        &self.delta
    }

    /// The load-balance config the delta shard (and any compaction) is
    /// built with.
    pub fn load_balance(&self) -> Option<LoadBalanceConfig> {
        self.load_balance
    }

    /// Ids deleted since the last compaction.
    pub fn num_tombstones(&self) -> usize {
        self.tombstones.len()
    }

    /// The current tombstone set, for merge-time filtering
    /// ([`crate::shard::merge_shard_topk_filtered`]).
    pub fn tombstones(&self) -> &BTreeSet<ObjectId> {
        &self.tombstones
    }

    /// All live stable ids, ascending (a derived view: base ∪ delta ids
    /// minus tombstones).
    pub fn live_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self
            .base
            .iter()
            .flat_map(|s| s.global_ids.iter().copied())
            .chain(self.delta.iter().map(|(id, _)| *id))
            .filter(|id| !self.tombstones.contains(id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Build the delta as one more servable [`Shard`] (local ids are
    /// delta positions, global ids the stable ids — strictly increasing
    /// like every shard's). `None` when the delta is empty. Tombstoned
    /// delta entries are included; the merge filter removes them.
    pub fn delta_shard(&self) -> Option<Shard> {
        if self.delta.is_empty() {
            return None;
        }
        let mut builder = IndexBuilder::new();
        let mut ids = Vec::with_capacity(self.delta.len());
        for (id, object) in &self.delta {
            builder.add_object(object);
            ids.push(*id);
        }
        Some(Shard {
            index: Arc::new(builder.build(self.load_balance)),
            global_ids: Arc::new(ids),
        })
    }

    /// Snapshot the state a compaction run needs: shard handles (Arc
    /// clones), the current delta prefix and the current tombstones.
    /// Cheap enough to run under the collection lock; the expensive
    /// [`CompactionSnapshot::compact`] then runs lock-free.
    pub fn snapshot(&self, num_shards: usize) -> CompactionSnapshot {
        CompactionSnapshot {
            base: self.base.clone(),
            delta: self.delta.clone(),
            tombstones: self.tombstones.clone(),
            num_shards: num_shards.max(1),
            load_balance: self.load_balance,
        }
    }

    /// Swap in a compacted base. Keeps the delta *suffix* past the
    /// snapshotted prefix and the tombstones added after the snapshot
    /// (see the [module docs](self) for why racing mutations are safe).
    pub fn apply_compaction(&mut self, compacted: CompactedBase) {
        self.delta.drain(..compacted.delta_len);
        for id in &compacted.tombstones {
            self.tombstones.remove(id);
        }
        self.base = compacted.shards;
    }
}

/// Why a persisted [`DeltaPlan`] state was rejected by
/// [`DeltaPlan::restore`] — each variant names the violated invariant,
/// so a recovery layer can surface *what* about the on-disk state was
/// inconsistent rather than panicking or serving wrong answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A base shard's local→global id map was not strictly increasing.
    UnsortedShardIds,
    /// Delta entry ids were not strictly increasing (they are assigned
    /// in insertion order and never reused, so any persisted delta must
    /// be too).
    UnsortedDeltaIds,
    /// The same stable id appeared twice across base shards + delta.
    DuplicateId(ObjectId),
    /// `next_id` was not past every persisted id — accepting it would
    /// eventually reuse an id.
    NextIdTooSmall {
        next_id: ObjectId,
        max_seen: ObjectId,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsortedShardIds => write!(f, "base shard ids not strictly increasing"),
            Self::UnsortedDeltaIds => write!(f, "delta ids not strictly increasing"),
            Self::DuplicateId(id) => write!(f, "stable id {id} appears twice"),
            Self::NextIdTooSmall { next_id, max_seen } => {
                write!(f, "next_id {next_id} <= max persisted id {max_seen}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl std::fmt::Debug for DeltaPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaPlan")
            .field("live", &self.len())
            .field(
                "base_sizes",
                &self.base.iter().map(Shard::len).collect::<Vec<_>>(),
            )
            .field("delta_len", &self.delta.len())
            .field("tombstones", &self.tombstones.len())
            .field("next_id", &self.next_id)
            .finish()
    }
}

/// Everything a compaction run needs, captured under the collection
/// lock by [`DeltaPlan::snapshot`]. Self-contained and `Send`, so the
/// expensive [`compact`](Self::compact) can run on a background thread.
pub struct CompactionSnapshot {
    base: Vec<Shard>,
    delta: Vec<(ObjectId, Object)>,
    tombstones: BTreeSet<ObjectId>,
    num_shards: usize,
    load_balance: Option<LoadBalanceConfig>,
}

impl CompactionSnapshot {
    /// Fold delta + tombstones into fresh near-even base shards. Pure
    /// and lock-free: reads only snapshotted state. The new shards'
    /// `global_ids` carry the *stable* ids (relabelled through the
    /// sorted live-id list), so ids survive compaction.
    pub fn compact(self) -> CompactedBase {
        let mut entries: Vec<(ObjectId, Object)> = self
            .base
            .iter()
            .flat_map(|s| s.entries())
            .chain(self.delta.iter().cloned())
            .filter(|(id, _)| !self.tombstones.contains(id))
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        let stable_ids: Vec<ObjectId> = entries.iter().map(|(id, _)| *id).collect();
        let objects: Vec<Object> = entries.into_iter().map(|(_, o)| o).collect();
        let plan = ShardPlan::build(&objects, self.num_shards, self.load_balance);
        let shards = plan
            .shards()
            .iter()
            .map(|s| Shard {
                index: Arc::clone(&s.index),
                // positions 0..live → stable ids (monotone, so the
                // local→global map stays strictly increasing)
                global_ids: Arc::new(
                    s.global_ids
                        .iter()
                        .map(|&pos| stable_ids[pos as usize])
                        .collect(),
                ),
            })
            .collect();
        CompactedBase {
            shards,
            delta_len: self.delta.len(),
            tombstones: self.tombstones,
        }
    }
}

/// The output of [`CompactionSnapshot::compact`], ready for
/// [`DeltaPlan::apply_compaction`].
pub struct CompactedBase {
    /// Fresh base shards over the snapshot's live objects, with stable
    /// global ids.
    pub shards: Vec<Shard>,
    /// How many delta entries were folded in (the prefix to drop).
    delta_len: usize,
    /// The tombstones that were folded in (to subtract on apply).
    tombstones: BTreeSet<ObjectId>,
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::model::{match_count, Query};
    use crate::shard::merge_shard_topk_filtered;
    use crate::topk::{partial_top_k, reference_top_k, TopHit};

    fn obj(words: &[u32]) -> Object {
        Object::new(words.to_vec())
    }

    fn base_plan(objects: &[Object], shards: usize) -> DeltaPlan {
        DeltaPlan::from_base(
            ShardPlan::build(objects, shards, None).shards().to_vec(),
            None,
        )
    }

    /// Brute-force search over the plan's live `(id, object)` pairs.
    fn rebuild_topk(plan: &DeltaPlan, query: &Query, k: usize) -> (Vec<TopHit>, u32) {
        let mut items: Vec<(ObjectId, Object)> = plan
            .base()
            .iter()
            .flat_map(|s| s.entries())
            .chain(plan.delta.iter().cloned())
            .filter(|(id, _)| plan.contains(*id))
            .collect();
        items.sort_unstable_by_key(|(id, _)| *id);
        let hits: Vec<TopHit> = items
            .iter()
            .map(|(id, o)| TopHit {
                id: *id,
                count: match_count(query, o),
            })
            .filter(|h| h.count > 0)
            .collect();
        let hits = partial_top_k(hits, k);
        let at = crate::topk::audit_threshold(&hits, k);
        (hits, at)
    }

    /// Search the live plan the way the serving layer does: fan out to
    /// base + delta with per-shard fetch k + |tombstones|, filter, merge.
    fn live_topk(plan: &DeltaPlan, query: &Query, k: usize) -> (Vec<TopHit>, u32) {
        let k_eff = k + plan.num_tombstones();
        let mut shards: Vec<Shard> = plan.base().to_vec();
        shards.extend(plan.delta_shard());
        let per_shard: Vec<Vec<TopHit>> = shards
            .iter()
            .map(|s| {
                let objs = s.index.reconstruct_objects();
                let counts: Vec<u32> = objs.iter().map(|o| match_count(query, o)).collect();
                s.to_global(&reference_top_k(&counts, k_eff))
            })
            .collect();
        merge_shard_topk_filtered(per_shard, k, plan.tombstones())
    }

    fn assert_equivalent(plan: &DeltaPlan, query: &Query, label: &str) {
        for k in [1usize, 2, 5, 100] {
            let (live, live_at) = live_topk(plan, query, k);
            let (rebuilt, rebuilt_at) = rebuild_topk(plan, query, k);
            assert_eq!(live, rebuilt, "{label} k={k}");
            assert_eq!(live_at, rebuilt_at, "{label} AT k={k}");
        }
    }

    #[test]
    fn ids_are_stable_dense_and_never_reused() {
        let mut plan = base_plan(&[obj(&[1]), obj(&[2])], 1);
        assert_eq!(plan.next_id(), 2);
        let a = plan.insert(obj(&[3]));
        assert_eq!(a, 2);
        assert!(plan.delete(a));
        let b = plan.insert(obj(&[3]));
        assert_eq!(b, 3, "deleted ids are never reused");
        assert!(!plan.contains(a));
        assert!(plan.contains(b));
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn delete_is_validated() {
        let mut plan = base_plan(&[obj(&[1])], 1);
        assert!(!plan.delete(7), "never-assigned id");
        assert!(plan.delete(0));
        assert!(!plan.delete(0), "double delete");
        assert_eq!(plan.num_tombstones(), 1, "one tombstone, not two");
        assert!(plan.is_empty());
    }

    #[test]
    fn live_search_equals_rebuild_through_mutations() {
        let objects: Vec<Object> = (0..30).map(|i| obj(&[i % 7, 100 + i % 3])).collect();
        let mut plan = base_plan(&objects, 3);
        let query = Query::from_keywords(&[3, 101]);
        assert_equivalent(&plan, &query, "pristine");
        for i in 0..12 {
            plan.insert(obj(&[i % 7, 100 + (i + 1) % 3]));
        }
        assert_equivalent(&plan, &query, "after inserts");
        for id in [0, 3, 10, 17, 24, 31, 38, 41] {
            assert!(plan.delete(id));
        }
        assert_equivalent(&plan, &query, "after deletes");
        // delete enough that fewer than k objects survive
        for id in plan.live_ids() {
            if id % 2 == 0 {
                plan.delete(id);
            }
        }
        assert_equivalent(&plan, &query, "sparse survivors");
    }

    #[test]
    fn compaction_folds_delta_and_tombstones_with_stable_ids() {
        let objects: Vec<Object> = (0..20).map(|i| obj(&[i % 5])).collect();
        let mut plan = base_plan(&objects, 2);
        for i in 0..8 {
            plan.insert(obj(&[i % 5]));
        }
        for id in [1, 5, 20, 26] {
            assert!(plan.delete(id));
        }
        let live_before = plan.live_ids();
        let query = Query::from_keywords(&[1, 3]);
        let (hits_before, at_before) = live_topk(&plan, &query, 5);

        plan.apply_compaction(plan.snapshot(3).compact());

        assert_eq!(plan.delta_len(), 0);
        assert_eq!(plan.num_tombstones(), 0);
        assert_eq!(plan.live_ids(), live_before, "stable ids survive");
        let base_ids: Vec<ObjectId> = plan
            .base()
            .iter()
            .flat_map(|s| s.global_ids.iter().copied())
            .collect();
        assert_eq!(base_ids, live_before, "base now holds exactly the live set");
        for shard in plan.base() {
            assert!(shard.global_ids.windows(2).all(|w| w[0] < w[1]));
        }
        let (hits_after, at_after) = live_topk(&plan, &query, 5);
        assert_eq!(hits_after, hits_before, "compaction is invisible to search");
        assert_eq!(at_after, at_before);
        assert_equivalent(&plan, &query, "compacted");
    }

    #[test]
    fn compaction_of_empty_delta_and_empty_collection() {
        let mut plan = base_plan(&[obj(&[1]), obj(&[2])], 1);
        plan.apply_compaction(plan.snapshot(2).compact());
        assert_eq!(plan.len(), 2, "empty delta: a no-op reshard");
        // now empty the collection entirely and compact again
        plan.delete(0);
        plan.delete(1);
        plan.apply_compaction(plan.snapshot(2).compact());
        assert!(plan.is_empty());
        assert_eq!(plan.base().len(), 1, "one empty shard stays registrable");
        assert!(plan.base()[0].is_empty());
        assert_eq!(plan.insert(obj(&[9])), 2, "ids still never reused");
    }

    #[test]
    fn restore_roundtrips_a_mutated_plan() {
        let objects: Vec<Object> = (0..12).map(|i| obj(&[i % 4, 50 + i % 3])).collect();
        let mut plan = base_plan(&objects, 2);
        for i in 0..5 {
            plan.insert(obj(&[i % 4, 50 + (i + 2) % 3]));
        }
        for id in [0, 4, 13, 16] {
            assert!(plan.delete(id));
        }
        let restored = DeltaPlan::restore(
            plan.base().to_vec(),
            plan.delta_entries().to_vec(),
            plan.tombstones().iter().copied().collect(),
            plan.next_id(),
            plan.load_balance(),
        )
        .expect("roundtrip restore");
        assert_eq!(restored.live_ids(), plan.live_ids());
        assert_eq!(restored.next_id(), plan.next_id());
        assert_eq!(restored.delta_len(), plan.delta_len());
        assert_eq!(restored.num_tombstones(), plan.num_tombstones());
        let query = Query::from_keywords(&[2, 51]);
        assert_equivalent(&restored, &query, "restored");
    }

    #[test]
    fn restore_preserves_next_id_past_tombstoned_tail() {
        // the newest id is dead: from_base would re-derive next_id = 2
        // and reuse id 2; restore must keep the explicit value
        let mut plan = base_plan(&[obj(&[1]), obj(&[2])], 1);
        let tail = plan.insert(obj(&[3]));
        assert!(plan.delete(tail));
        let mut restored = DeltaPlan::restore(
            plan.base().to_vec(),
            plan.delta_entries().to_vec(),
            plan.tombstones().iter().copied().collect(),
            plan.next_id(),
            None,
        )
        .unwrap();
        assert_eq!(restored.next_id(), 3);
        assert_eq!(restored.insert(obj(&[4])), 3, "no id reuse");
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let base = ShardPlan::build(&[obj(&[1]), obj(&[2])], 1, None)
            .shards()
            .to_vec();
        // duplicate id across base and delta
        let err = DeltaPlan::restore(base.clone(), vec![(1, obj(&[9]))], vec![], 3, None);
        assert_eq!(err.unwrap_err(), RestoreError::DuplicateId(1));
        // duplicate id across two base shards (each sorted on its own)
        let twin = Shard {
            index: base[0].index.clone(),
            global_ids: Arc::new(vec![1, 2]),
        };
        let err = DeltaPlan::restore(vec![base[0].clone(), twin], vec![], vec![], 3, None);
        assert_eq!(err.unwrap_err(), RestoreError::DuplicateId(1));
        // unsorted delta
        let err = DeltaPlan::restore(
            base.clone(),
            vec![(5, obj(&[9])), (3, obj(&[9]))],
            vec![],
            6,
            None,
        );
        assert_eq!(err.unwrap_err(), RestoreError::UnsortedDeltaIds);
        // next_id inside the persisted id range (incl. tombstones)
        let err = DeltaPlan::restore(base.clone(), vec![], vec![5], 4, None);
        assert!(matches!(
            err.unwrap_err(),
            RestoreError::NextIdTooSmall { next_id: 4, .. }
        ));
        // unsorted shard ids
        let bad = Shard {
            index: base[0].index.clone(),
            global_ids: Arc::new(vec![1, 0]),
        };
        let err = DeltaPlan::restore(vec![bad], vec![], vec![], 2, None);
        assert_eq!(err.unwrap_err(), RestoreError::UnsortedShardIds);
    }

    /// Mutations racing the lock-free compact(): inserts after the
    /// snapshot survive as the new delta; a delete *of a folded object*
    /// issued after the snapshot stays tombstoned against the new base.
    #[test]
    fn racing_mutations_survive_apply() {
        let objects: Vec<Object> = (0..10).map(|i| obj(&[i % 4])).collect();
        let mut plan = base_plan(&objects, 2);
        let snap = plan.snapshot(2);
        // race: one insert and two deletes land while compact() runs,
        // including a delete of object 3 which the snapshot folds in
        let new_id = plan.insert(obj(&[2, 3]));
        assert!(plan.delete(3));
        assert!(!plan.delete(new_id + 100));
        let compacted = snap.compact();
        plan.apply_compaction(compacted);
        assert_eq!(plan.delta_len(), 1, "post-snapshot insert kept");
        assert_eq!(plan.num_tombstones(), 1, "post-snapshot delete kept");
        assert!(!plan.contains(3));
        assert!(plan.contains(new_id));
        let query = Query::from_keywords(&[2, 3]);
        assert_equivalent(&plan, &query, "after racing apply");
        // the next compaction clears the carried-over tombstone
        plan.apply_compaction(plan.snapshot(2).compact());
        assert_eq!(plan.num_tombstones(), 0);
        assert_equivalent(&plan, &query, "second compaction");
    }

    /// A tombstone that names no persisted entry masks nothing: restore
    /// drops it (it still pushes `next_id` past itself), so `len` stays
    /// the entry count minus the tombstones that name one.
    #[test]
    fn restore_drops_tombstones_without_an_entry() {
        let base = ShardPlan::build(&[obj(&[1]), obj(&[2])], 1, None)
            .shards()
            .to_vec();
        let plan = DeltaPlan::restore(base, vec![], vec![1, 7], 8, None).unwrap();
        assert_eq!(plan.num_tombstones(), 1);
        assert_eq!(plan.live_ids(), vec![0]);
        assert_eq!(plan.len(), 1);
    }

    proptest! {
        /// Derived membership equals the stored set it replaced: under
        /// random insert / delete / snapshot / compact-apply
        /// interleavings (mutations racing an outstanding snapshot
        /// included) `contains`, `len`, `live_ids` and `next_id` agree
        /// with a plain `BTreeSet` model kept beside the plan.
        #[test]
        fn derived_membership_matches_a_set_model(
            base_n in 0u32..24,
            shards in 1usize..4,
            ops in proptest::collection::vec((0u8..5, 0u32..64), 0..60),
        ) {
            let objects: Vec<Object> = (0..base_n).map(|i| obj(&[i % 5])).collect();
            let mut plan = base_plan(&objects, shards);
            let mut model: BTreeSet<ObjectId> = (0..base_n).collect();
            let mut next_id = base_n;
            let mut pending: Option<CompactionSnapshot> = None;
            for (op, arg) in ops {
                match op {
                    0 | 1 => {
                        prop_assert_eq!(plan.insert(obj(&[arg % 5])), next_id);
                        model.insert(next_id);
                        next_id += 1;
                    }
                    2 => {
                        let id = arg % (next_id + 2);
                        prop_assert_eq!(plan.delete(id), model.remove(&id), "delete {}", id);
                    }
                    3 => pending = Some(plan.snapshot(1 + arg as usize % 3)),
                    _ => {
                        if let Some(snapshot) = pending.take() {
                            plan.apply_compaction(snapshot.compact());
                        }
                    }
                }
                prop_assert_eq!(plan.len(), model.len());
                prop_assert_eq!(plan.is_empty(), model.is_empty());
                prop_assert_eq!(plan.next_id(), next_id);
                prop_assert_eq!(plan.live_ids(), model.iter().copied().collect::<Vec<_>>());
                for id in 0..next_id + 2 {
                    prop_assert_eq!(plan.contains(id), model.contains(&id), "contains {}", id);
                }
            }
        }
    }
}

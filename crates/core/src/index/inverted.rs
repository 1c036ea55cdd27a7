//! Frozen inverted index: flat List Array + sorted Position Map.

use serde::{Deserialize, Serialize};

use super::load_balance::LoadBalanceConfig;
use crate::model::{KeywordId, ObjectId};

/// One Position-Map record: keyword plus the address of one of its
/// (sub)postings lists in the List Array. With load balancing enabled a
/// keyword owns several consecutive entries (the one-to-many map of
/// Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostingsEntry {
    pub keyword: KeywordId,
    pub start: u32,
    pub len: u32,
}

/// A contiguous slice of the List Array that a kernel block scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostingsSegment {
    pub start: u32,
    pub len: u32,
}

/// The frozen index (paper Figure 3).
///
/// * `list_array` lives in device global memory at query time (uploaded
///   by the engine, which records the H2D transfer).
/// * `entries` — the Position Map — stays in *host* memory, exactly as in
///   the paper: the host looks up postings addresses once per query item
///   and ships only `(start, len)` descriptors to the device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvertedIndex {
    pub(crate) entries: Vec<PostingsEntry>,
    pub(crate) list_array: Vec<ObjectId>,
    pub(crate) num_objects: ObjectId,
    pub(crate) max_object_len: usize,
    pub(crate) longest_list: usize,
    pub(crate) load_balance: Option<LoadBalanceConfig>,
}

impl InvertedIndex {
    /// Number of indexed objects.
    pub fn num_objects(&self) -> ObjectId {
        self.num_objects
    }

    /// Length of the longest keyword element list seen at build time.
    pub fn max_object_len(&self) -> usize {
        self.max_object_len
    }

    /// Length of the longest (pre-split) postings list.
    pub fn longest_list(&self) -> usize {
        self.longest_list
    }

    /// The load-balance configuration the index was built with, if any.
    pub fn load_balance(&self) -> Option<LoadBalanceConfig> {
        self.load_balance
    }

    /// The flat List Array (what gets uploaded to the device).
    pub fn list_array(&self) -> &[ObjectId] {
        &self.list_array
    }

    /// Number of Position-Map entries (sublists count individually).
    pub fn num_lists(&self) -> usize {
        self.entries.len()
    }

    /// Size of the device-resident part (the List Array) in bytes.
    pub fn device_bytes(&self) -> u64 {
        (self.list_array.len() * std::mem::size_of::<ObjectId>()) as u64
    }

    /// Size of the host-resident Position Map in bytes.
    pub fn host_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<PostingsEntry>()) as u64
    }

    /// All postings segments whose keyword lies in `[lo, hi]` (inclusive).
    /// This is the host-side Position-Map lookup done once per query item.
    pub fn segments_for_range(
        &self,
        lo: KeywordId,
        hi: KeywordId,
    ) -> impl Iterator<Item = PostingsSegment> + '_ {
        let from = self.entries.partition_point(|e| e.keyword < lo);
        self.entries[from..]
            .iter()
            .take_while(move |e| e.keyword <= hi)
            .map(|e| PostingsSegment {
                start: e.start,
                len: e.len,
            })
    }

    /// Like [`segments_for_range`](Self::segments_for_range), but with
    /// segments that are *adjacent in the List Array* merged into one
    /// [`PostingsSegment`].
    ///
    /// The builder lays consecutive keywords' postings lists (and a
    /// load-balanced keyword's sublists) out back-to-back, so a range
    /// item usually resolves to one long contiguous run instead of many
    /// short segments. Host scan loops want exactly that: one bounds
    /// check and one hot loop per run, long enough for the chunked
    /// counting kernel to amortise its setup. Load-balanced sublists are
    /// deliberately merged back together here — the split exists to
    /// balance *device blocks*, which host kernels do not have.
    ///
    /// Yields no zero-length segments; the postings visited (and their
    /// order) are identical to the uncoalesced iteration.
    pub fn coalesced_segments_for_range(
        &self,
        lo: KeywordId,
        hi: KeywordId,
    ) -> CoalescedSegments<'_> {
        let from = self.entries.partition_point(|e| e.keyword < lo);
        CoalescedSegments {
            entries: &self.entries[from..],
            pos: 0,
            hi,
            pending: None,
        }
    }

    /// Total postings whose keyword lies in `[lo, hi]` (inclusive) —
    /// the size of the List Array slice a counting scan of that range
    /// visits. Computed on the fly from the Position Map
    /// (`O(log lists + lists in range)`), so it needs no extra
    /// serialized state and stays correct for any index the
    /// persistence codec can produce.
    pub fn postings_in_range(&self, lo: KeywordId, hi: KeywordId) -> u64 {
        let from = self.entries.partition_point(|e| e.keyword < lo);
        self.entries[from..]
            .iter()
            .take_while(|e| e.keyword <= hi)
            .map(|e| e.len as u64)
            .sum()
    }

    /// Postings a full counting scan of `query` visits: the sum of
    /// [`postings_in_range`](Self::postings_in_range) over its items.
    /// This is the per-query scan-cost statistic the service's
    /// cost-aware wave packing consumes — match counting is one
    /// increment per posting, so predicted scan time is linear in this
    /// number.
    pub fn predicted_postings(&self, query: &crate::model::Query) -> u64 {
        query
            .items
            .iter()
            .map(|it| self.postings_in_range(it.lo, it.hi))
            .sum()
    }

    /// Raw Position-Map entries (persistence codec).
    pub fn entries_raw(&self) -> &[PostingsEntry] {
        &self.entries
    }

    /// Reassemble an index from its raw parts (persistence codec). The
    /// caller is responsible for structural validity; `crate::io`
    /// validates before calling this.
    pub fn from_parts(
        entries: Vec<PostingsEntry>,
        list_array: Vec<ObjectId>,
        num_objects: ObjectId,
        max_object_len: usize,
        longest_list: usize,
        load_balance: Option<LoadBalanceConfig>,
    ) -> Self {
        Self {
            entries,
            list_array,
            num_objects,
            max_object_len,
            longest_list,
            load_balance,
        }
    }

    /// Invert the index back into per-object keyword multisets.
    ///
    /// Every posting contributes one keyword occurrence to its object,
    /// so the reconstructed objects have exactly the original keyword
    /// multisets (in keyword order rather than insertion order — the
    /// match-count model is order-insensitive). Re-sharding a data set
    /// that is only held as an index
    /// ([`ShardPlan::from_index`](crate::shard::ShardPlan::from_index))
    /// uses this.
    pub fn reconstruct_objects(&self) -> Vec<crate::model::Object> {
        let mut objects = vec![crate::model::Object::default(); self.num_objects as usize];
        for e in &self.entries {
            let slice = &self.list_array[e.start as usize..(e.start + e.len) as usize];
            for &obj in slice {
                objects[obj as usize].keywords.push(e.keyword);
            }
        }
        objects
    }

    /// Materialised postings list of one keyword (test/debug helper).
    pub fn postings_of(&self, kw: KeywordId) -> Vec<ObjectId> {
        self.segments_for_range(kw, kw)
            .flat_map(|s| self.list_array[s.start as usize..(s.start + s.len) as usize].to_vec())
            .collect()
    }
}

/// Iterator of [`InvertedIndex::coalesced_segments_for_range`]: walks the
/// in-range Position-Map entries, folding each segment that starts where
/// the previous one ended into a single growing run.
pub struct CoalescedSegments<'a> {
    entries: &'a [PostingsEntry],
    pos: usize,
    hi: KeywordId,
    pending: Option<PostingsSegment>,
}

impl Iterator for CoalescedSegments<'_> {
    type Item = PostingsSegment;

    fn next(&mut self) -> Option<PostingsSegment> {
        while self.pos < self.entries.len() && self.entries[self.pos].keyword <= self.hi {
            let e = self.entries[self.pos];
            self.pos += 1;
            if e.len == 0 {
                continue;
            }
            match self.pending {
                Some(ref mut p) if p.start + p.len == e.start => p.len += e.len,
                Some(p) => {
                    self.pending = Some(PostingsSegment {
                        start: e.start,
                        len: e.len,
                    });
                    return Some(p);
                }
                None => {
                    self.pending = Some(PostingsSegment {
                        start: e.start,
                        len: e.len,
                    });
                }
            }
        }
        self.pending.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::model::Object;

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_object(&Object::new(vec![10, 20])); // O0
        b.add_object(&Object::new(vec![20, 30])); // O1
        b.add_object(&Object::new(vec![10, 30])); // O2
        b.build(None)
    }

    #[test]
    fn range_lookup_returns_matching_segments() {
        let idx = sample_index();
        let segs: Vec<_> = idx.segments_for_range(10, 20).collect();
        assert_eq!(segs.len(), 2);
        let all: Vec<_> = idx.segments_for_range(0, 100).collect();
        assert_eq!(all.len(), 3);
        let none: Vec<_> = idx.segments_for_range(11, 19).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn segments_address_the_list_array() {
        let idx = sample_index();
        let seg = idx.segments_for_range(30, 30).next().unwrap();
        let slice = &idx.list_array()[seg.start as usize..(seg.start + seg.len) as usize];
        assert_eq!(slice, &[1, 2]);
    }

    #[test]
    fn reconstruction_inverts_the_build() {
        let idx = sample_index();
        let objects = idx.reconstruct_objects();
        assert_eq!(objects.len(), 3);
        assert_eq!(objects[0].keywords, vec![10, 20]);
        assert_eq!(objects[1].keywords, vec![20, 30]);
        assert_eq!(objects[2].keywords, vec![10, 30]);
    }

    #[test]
    fn reconstruction_keeps_duplicate_keywords() {
        let mut b = IndexBuilder::new();
        b.add_object(&Object::new(vec![5, 5, 9]));
        let idx = b.build(None);
        let objects = idx.reconstruct_objects();
        assert_eq!(objects[0].keywords, vec![5, 5, 9]);
    }

    #[test]
    fn reconstruction_is_exact_under_load_balance() {
        use crate::index::LoadBalanceConfig;
        use crate::io::encode_index;
        // keyword 1 spans every object, so every cap splits it; keyword
        // 4 repeats inside object 2
        let objects: Vec<Object> = (0..7u32)
            .map(|i| match i {
                2 => Object::new(vec![4, 1, 4, 9]),
                _ => Object::new(vec![1, i % 3 + 4]),
            })
            .chain([Object::new(vec![])])
            .collect();
        for max_list_len in 1..=3 {
            let lb = Some(LoadBalanceConfig { max_list_len });
            let mut b = IndexBuilder::new();
            b.add_objects(&objects);
            let idx = b.build(lb);
            let mut rebuilt = IndexBuilder::new();
            rebuilt.add_objects(&idx.reconstruct_objects());
            assert_eq!(
                encode_index(&rebuilt.build(lb)),
                encode_index(&idx),
                "max_list_len {max_list_len}"
            );
        }
    }

    #[test]
    fn coalescing_merges_adjacent_segments() {
        let idx = sample_index();
        // keywords 10, 20, 30 occupy the List Array back-to-back, so a
        // full-range lookup collapses to one segment covering it all
        let all: Vec<_> = idx.coalesced_segments_for_range(0, 100).collect();
        assert_eq!(
            all,
            vec![PostingsSegment {
                start: 0,
                len: idx.list_array().len() as u32
            }]
        );
        // a sub-range coalesces only its own entries
        let lohi: Vec<_> = idx.coalesced_segments_for_range(10, 20).collect();
        assert_eq!(lohi, vec![PostingsSegment { start: 0, len: 4 }]);
        // and an empty range yields nothing
        assert!(idx.coalesced_segments_for_range(11, 19).next().is_none());
    }

    #[test]
    fn coalescing_visits_the_same_postings_in_the_same_order() {
        let idx = sample_index();
        for (lo, hi) in [(0, 100), (10, 20), (20, 30), (30, 30), (11, 19)] {
            let plain: Vec<u32> = idx
                .segments_for_range(lo, hi)
                .flat_map(|s| {
                    idx.list_array()[s.start as usize..(s.start + s.len) as usize].to_vec()
                })
                .collect();
            let coalesced: Vec<u32> = idx
                .coalesced_segments_for_range(lo, hi)
                .flat_map(|s| {
                    idx.list_array()[s.start as usize..(s.start + s.len) as usize].to_vec()
                })
                .collect();
            assert_eq!(plain, coalesced, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn coalescing_merges_load_balanced_sublists() {
        use crate::index::LoadBalanceConfig;
        let mut b = IndexBuilder::new();
        for _ in 0..20 {
            b.add_object(&Object::new(vec![7]));
        }
        let idx = b.build(Some(LoadBalanceConfig { max_list_len: 8 }));
        // the balanced index splits keyword 7 into three sublists...
        assert_eq!(idx.segments_for_range(7, 7).count(), 3);
        // ...which the host view folds back into one contiguous run
        let merged: Vec<_> = idx.coalesced_segments_for_range(7, 7).collect();
        assert_eq!(merged, vec![PostingsSegment { start: 0, len: 20 }]);
    }

    #[test]
    fn postings_in_range_sums_the_scanned_lists() {
        let idx = sample_index();
        // keywords 10, 20, 30 hold 2 postings each
        assert_eq!(idx.postings_in_range(10, 10), 2);
        assert_eq!(idx.postings_in_range(10, 20), 4);
        assert_eq!(idx.postings_in_range(0, 100), 6);
        assert_eq!(idx.postings_in_range(11, 19), 0);
        // the statistic is exactly the postings the scan visits
        for (lo, hi) in [(0, 100), (10, 20), (20, 30), (30, 30), (11, 19)] {
            let visited: u64 = idx.segments_for_range(lo, hi).map(|s| s.len as u64).sum();
            assert_eq!(idx.postings_in_range(lo, hi), visited);
        }
    }

    #[test]
    fn predicted_postings_sums_over_query_items() {
        use crate::model::{Query, QueryItem};
        let idx = sample_index();
        let q = Query::new(vec![
            QueryItem { lo: 10, hi: 20 },
            QueryItem { lo: 30, hi: 30 },
            QueryItem { lo: 99, hi: 99 },
        ]);
        assert_eq!(idx.predicted_postings(&q), 4 + 2);
        assert_eq!(idx.predicted_postings(&Query::default()), 0);
        // a load-balanced keyword's sublists all count
        use crate::index::LoadBalanceConfig;
        let mut b = IndexBuilder::new();
        for _ in 0..20 {
            b.add_object(&Object::new(vec![7]));
        }
        let balanced = b.build(Some(LoadBalanceConfig { max_list_len: 8 }));
        assert_eq!(balanced.postings_in_range(7, 7), 20);
    }

    #[test]
    fn sizes_are_accounted() {
        let idx = sample_index();
        assert_eq!(idx.device_bytes(), 6 * 4);
        assert!(idx.host_bytes() > 0);
        assert_eq!(idx.num_lists(), 3);
        assert_eq!(idx.longest_list(), 2);
    }
}

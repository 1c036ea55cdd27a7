//! Host-side index construction ("Index build" row of Table I).

use crate::model::{KeywordId, Object, ObjectId};

use super::inverted::{InvertedIndex, PostingsEntry};
use super::load_balance::LoadBalanceConfig;

/// Accumulates postings on the host before freezing them into the flat
/// [`InvertedIndex`] layout.
///
/// Every posting is staged as one packed `(keyword << 32) | id` word in a
/// single flat `Vec`. [`build`](Self::build) sorts that once, so the frozen
/// List Array is ordered by keyword — which is what lets a range query
/// item be answered with a binary search plus a contiguous scan — and,
/// because ids are assigned in ascending order, each keyword's postings
/// are ordered by id.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    postings: Vec<u64>,
    num_objects: ObjectId,
    max_object_len: usize,
}

impl IndexBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add the next object; objects receive consecutive ids starting at 0.
    /// Returns the id assigned to it.
    pub fn add_object(&mut self, object: &Object) -> ObjectId {
        let id = self.num_objects;
        self.postings.extend(
            object
                .keywords
                .iter()
                .map(|&kw| ((kw as u64) << 32) | id as u64),
        );
        self.max_object_len = self.max_object_len.max(object.keywords.len());
        self.num_objects += 1;
        id
    }

    /// Add every object of `objects` in order.
    pub fn add_objects<'a, I: IntoIterator<Item = &'a Object>>(&mut self, objects: I) {
        for o in objects {
            self.add_object(o);
        }
    }

    /// Freeze into the flat device layout. If `load_balance` is set, long
    /// postings lists are split into sublists of at most
    /// `max_list_len` entries (paper §III-B1, Figure 4) and the Position
    /// Map becomes one-to-many.
    pub fn build(self, load_balance: Option<LoadBalanceConfig>) -> InvertedIndex {
        let mut postings = self.postings;
        // a keyword repeated inside one object stages equal words, so an
        // unstable sort keeps its duplicate postings
        postings.sort_unstable();
        let max_list_len = load_balance.map_or(usize::MAX, |lb| lb.max_list_len.max(1));
        let mut list_array = Vec::with_capacity(postings.len());
        let mut entries = Vec::new();
        let mut longest_list = 0usize;
        for list in postings.chunk_by(|a, b| a >> 32 == b >> 32) {
            let keyword = (list[0] >> 32) as KeywordId;
            longest_list = longest_list.max(list.len());
            for chunk in list.chunks(max_list_len) {
                entries.push(PostingsEntry {
                    keyword,
                    start: list_array.len() as u32,
                    len: chunk.len() as u32,
                });
                list_array.extend(chunk.iter().map(|&p| p as ObjectId));
            }
        }
        InvertedIndex {
            entries,
            list_array,
            num_objects: self.num_objects,
            max_object_len: self.max_object_len,
            longest_list,
            load_balance,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::io::encode_index;

    /// The build this module had before the sorted staging: postings
    /// gathered per keyword in a `BTreeMap`. Kept as the oracle the
    /// sorted build must match byte for byte.
    fn btree_build(objects: &[Object], load_balance: Option<LoadBalanceConfig>) -> InvertedIndex {
        let mut postings: BTreeMap<KeywordId, Vec<ObjectId>> = BTreeMap::new();
        let mut max_object_len = 0;
        for (id, o) in objects.iter().enumerate() {
            for &kw in &o.keywords {
                postings.entry(kw).or_default().push(id as ObjectId);
            }
            max_object_len = max_object_len.max(o.keywords.len());
        }
        let mut list_array = Vec::new();
        let mut entries = Vec::with_capacity(postings.len());
        let mut longest_list = 0usize;
        for (kw, ids) in postings {
            longest_list = longest_list.max(ids.len());
            match load_balance {
                Some(lb) => {
                    for chunk in ids.chunks(lb.max_list_len.max(1)) {
                        entries.push(PostingsEntry {
                            keyword: kw,
                            start: list_array.len() as u32,
                            len: chunk.len() as u32,
                        });
                        list_array.extend_from_slice(chunk);
                    }
                }
                None => {
                    entries.push(PostingsEntry {
                        keyword: kw,
                        start: list_array.len() as u32,
                        len: ids.len() as u32,
                    });
                    list_array.extend_from_slice(&ids);
                }
            }
        }
        InvertedIndex {
            entries,
            list_array,
            num_objects: objects.len() as ObjectId,
            max_object_len,
            longest_list,
            load_balance,
        }
    }

    fn sorted_build(objects: &[Object], load_balance: Option<LoadBalanceConfig>) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_objects(objects);
        b.build(load_balance)
    }

    /// `None`, then every cap in `0..=8`; a cap of 0 is clamped to 1.
    fn load_balance_configs() -> impl Iterator<Item = Option<LoadBalanceConfig>> {
        std::iter::once(None)
            .chain((0..=8).map(|max_list_len| Some(LoadBalanceConfig { max_list_len })))
    }

    /// One keyword draw: the extremes `0` and `u32::MAX`, or a value from
    /// an alphabet of 8 (`small`) or of all of `u32`.
    fn keyword(small: bool, (pick, raw): (u8, u32)) -> KeywordId {
        match pick {
            0 => 0,
            1 => u32::MAX,
            _ if small => raw % 8,
            _ => raw,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sorted build freezes the same index as the `BTreeMap` build:
        /// empty objects, keywords repeated inside one object and the
        /// extreme keywords included, with and without load balance.
        #[test]
        fn sorted_build_matches_the_btree_oracle(
            small in 0u8..2,
            raw in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u32..=u32::MAX), 0..10),
                0..40,
            ),
        ) {
            let objects: Vec<Object> = raw
                .into_iter()
                .map(|kws| Object::new(kws.into_iter().map(|k| keyword(small == 1, k)).collect()))
                .collect();
            for lb in load_balance_configs() {
                let oracle = btree_build(&objects, lb);
                let sorted = sorted_build(&objects, lb);
                prop_assert_eq!(encode_index(&sorted), encode_index(&oracle), "{:?}", lb);
                prop_assert_eq!(sorted.num_objects(), oracle.num_objects());
                prop_assert_eq!(sorted.max_object_len(), oracle.max_object_len());
                prop_assert_eq!(sorted.longest_list(), oracle.longest_list());
            }
        }
    }

    #[test]
    fn keyword_order_inside_an_object_does_not_change_the_bytes() {
        let keywords = vec![9, 5, u32::MAX, 3, 5, 0, 9, 5];
        let mut permutations = vec![keywords.clone()];
        let mut reversed = keywords.clone();
        reversed.reverse();
        permutations.push(reversed);
        let mut sorted = keywords.clone();
        sorted.sort_unstable();
        permutations.push(sorted);
        let mut rotated = keywords.clone();
        rotated.rotate_left(3);
        permutations.push(rotated);
        for lb in load_balance_configs() {
            let bytes: Vec<Vec<u8>> = permutations
                .iter()
                .map(|kws| {
                    let objects = [
                        Object::new(vec![5, 7]),
                        Object::new(kws.clone()),
                        Object::new(vec![]),
                        Object::new(vec![9, 5]),
                    ];
                    encode_index(&sorted_build(&objects, lb))
                })
                .collect();
            assert!(bytes.windows(2).all(|w| w[0] == w[1]), "{lb:?}");
        }
    }

    #[test]
    fn assigns_consecutive_ids() {
        let mut b = IndexBuilder::new();
        assert_eq!(b.add_object(&Object::new(vec![1])), 0);
        assert_eq!(b.add_object(&Object::new(vec![1, 2])), 1);
        let idx = b.build(None);
        assert_eq!(idx.num_lists(), 2, "one list per distinct keyword");
        assert_eq!(idx.num_objects(), 2);
        assert_eq!(idx.max_object_len(), 2);
    }

    #[test]
    fn postings_are_grouped_and_ordered() {
        let mut b = IndexBuilder::new();
        b.add_object(&Object::new(vec![7, 3]));
        b.add_object(&Object::new(vec![3]));
        b.add_object(&Object::new(vec![7]));
        let idx = b.build(None);
        // keyword 3 -> [0, 1], keyword 7 -> [0, 2], ordered by keyword
        let segs: Vec<_> = idx.segments_for_range(0, u32::MAX).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(idx.postings_of(3), vec![0, 1]);
        assert_eq!(idx.postings_of(7), vec![0, 2]);
    }

    #[test]
    fn duplicate_keywords_in_one_object_create_duplicate_postings() {
        let mut b = IndexBuilder::new();
        b.add_object(&Object::new(vec![4, 4]));
        let idx = b.build(None);
        assert_eq!(idx.postings_of(4), vec![0, 0]);
    }

    #[test]
    fn load_balance_splits_long_lists() {
        let mut b = IndexBuilder::new();
        for _ in 0..10 {
            b.add_object(&Object::new(vec![1]));
        }
        let idx = b.build(Some(LoadBalanceConfig { max_list_len: 4 }));
        let segs: Vec<_> = idx.segments_for_range(1, 1).collect();
        assert_eq!(segs.len(), 3); // 4 + 4 + 2
        assert_eq!(segs.iter().map(|s| s.len).sum::<u32>(), 10);
        assert!(segs.iter().all(|s| s.len <= 4));
        // the union of sublists is still the full postings list
        assert_eq!(idx.postings_of(1).len(), 10);
    }
}

//! Host-side index construction ("Index build" row of Table I).

use std::collections::BTreeMap;

use crate::model::{KeywordId, Object, ObjectId};

use super::inverted::{InvertedIndex, PostingsEntry};
use super::load_balance::LoadBalanceConfig;

/// Accumulates postings on the host before freezing them into the flat
/// [`InvertedIndex`] layout.
///
/// Postings are gathered per keyword in a `BTreeMap` so the frozen List
/// Array is ordered by keyword — which is what lets a range query item be
/// answered with a binary search plus a contiguous scan.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    postings: BTreeMap<KeywordId, Vec<ObjectId>>,
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
        for &kw in &object.keywords {
            self.postings.entry(kw).or_default().push(id);
        }
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
        let mut list_array = Vec::new();
        let mut entries = Vec::with_capacity(self.postings.len());
        let mut longest_list = 0usize;
        for (kw, ids) in self.postings {
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
            num_objects: self.num_objects,
            max_object_len: self.max_object_len,
            longest_list,
            load_balance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Object;

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

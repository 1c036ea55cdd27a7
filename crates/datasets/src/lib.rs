//! # genie-datasets — synthetic stand-ins for the paper's corpora
//!
//! The paper evaluates on five external multi-gigabyte corpora (OCR,
//! SIFT, DBLP, Tweets, Adult). None are redistributable here, so every
//! experiment runs on a seeded generator reproducing the *distributional
//! shape* the corresponding experiment depends on (each generator's
//! module docs carry its substitution argument):
//!
//! * [`points::sift_like`] — clustered Gaussian descriptors (l2 / E2LSH
//!   experiments);
//! * [`points::ocr_like`] — labelled heavy-tailed high-dim points (the
//!   Laplacian-kernel / RBH and 1NN-classification experiments);
//! * [`sequences::dblp_like`] — Markov-generated article titles plus the
//!   controlled `modify_sequence` corruption of the accuracy tables;
//! * [`documents::tweets_like`] — Zipf-worded short documents;
//! * [`relational::adult_like`] — mixed categorical/numeric rows with
//!   the 20x row duplication that produces the extreme postings lists of
//!   the load-balance experiment.
//!
//! [`structures`] additionally generates random labelled trees and
//! graphs (with edit-bounded mutations) for the tree/graph SA
//! instantiations.
//!
//! All generators are deterministic in their seed.

pub mod documents;
pub mod points;
pub mod relational;
pub mod sequences;
pub mod structures;

/// Split a generated set into (data, queries): the paper reserves 10K
/// items as the query set and removes them from the data. Returns
/// `(data, queries)` where `queries` holds the last `num_queries` items.
pub fn holdout<T>(mut items: Vec<T>, num_queries: usize) -> (Vec<T>, Vec<T>) {
    assert!(
        num_queries < items.len(),
        "holdout larger than the data set"
    );
    let queries = items.split_off(items.len() - num_queries);
    (items, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holdout_splits_tail() {
        let (data, queries) = holdout((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(data, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(queries, vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "holdout larger")]
    fn holdout_rejects_oversized_split() {
        holdout(vec![1, 2], 2);
    }
}

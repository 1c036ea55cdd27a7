//! The five scaled dataset bundles of the evaluation.
//!
//! Sizes default to laptop-scale (tens of thousands of objects instead
//! of millions); every generator is seeded so runs are reproducible.

use std::sync::Arc;

use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{Object, Query};
use genie_datasets::documents::tweets_like;
use genie_datasets::points::{ocr_like, sift_like};
use genie_datasets::relational::{adult_like, adult_schema};
use genie_datasets::sequences::{corrupted_queries, dblp_like};
use genie_lsh::e2lsh::E2Lsh;
use genie_lsh::rbh::{mean_l1_kernel_width, RandomBinningHash};
use genie_lsh::transform::Transformer;
use genie_sa::document::DocumentIndex;
use genie_sa::ngram::ordered_ngrams;
use genie_sa::relational::{Condition, RelationalIndex, Value};

/// A workload in match-count form: what GENIE, GEN-SPQ, GPU-SPQ and
/// CPU-Idx consume directly.
pub struct MatchData {
    pub name: &'static str,
    pub objects: Vec<Object>,
    pub queries: Vec<Query>,
    /// Tight count bound for the c-PQ (number of hash functions /
    /// attributes / query grams).
    pub count_bound: u32,
}

/// The frozen inverted index over `objects`, as every bench serves it.
pub fn index_of(objects: &[Object]) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    b.add_objects(objects.iter());
    Arc::new(b.build(None))
}

impl MatchData {
    /// Restrict to the first `n` objects (cardinality sweeps). Queries
    /// are unchanged; objects are assumed id-dense.
    pub fn truncated(&self, n: usize) -> MatchData {
        MatchData {
            name: self.name,
            objects: self.objects[..n.min(self.objects.len())].to_vec(),
            queries: self.queries.clone(),
            count_bound: self.count_bound,
        }
    }
}

/// Extra raw data for the LSH baselines.
pub struct PointData {
    pub data: Vec<Vec<f32>>,
    pub queries: Vec<Vec<f32>>,
    pub labels: Option<Vec<u32>>,
    pub query_labels: Option<Vec<u32>>,
}

/// Extra raw data for the sequence baselines.
pub struct SequenceData {
    pub data: Vec<Vec<u8>>,
    pub queries: Vec<Vec<u8>>,
    pub ngram: usize,
}

/// Workload scale knobs shared by the experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Objects in the data set.
    pub n: usize,
    /// Queries available (experiments slice prefixes of this).
    pub num_queries: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            n: 10_000,
            num_queries: 1024,
        }
    }
}

/// OCR-like bundle: RBH in Laplacian-kernel space, m functions re-hashed
/// into D = 8192 buckets (paper §VI-A1).
pub fn ocr_bundle(scale: Scale, m: usize, seed: u64) -> (MatchData, PointData) {
    let dim = 64; // scaled stand-in for 1156-d OCR
    let lp = ocr_like(scale.n + scale.num_queries, dim, 10, seed);
    let labels = lp.labels;
    let (data, queries) = genie_datasets::holdout(lp.points, scale.num_queries);
    let query_labels = labels[scale.n..].to_vec();
    let data_labels = labels[..scale.n].to_vec();
    let sigma = mean_l1_kernel_width(&data[..200.min(data.len())]);
    let fam = RandomBinningHash::new(m, dim, sigma, seed ^ 0xAB);
    let t = Transformer::new(fam, 8192);
    let objects: Vec<Object> = data.iter().map(|p| t.to_object(&p[..])).collect();
    let mc_queries: Vec<Query> = queries.iter().map(|p| t.to_query(&p[..])).collect();
    (
        MatchData {
            name: "OCR",
            objects,
            queries: mc_queries,
            count_bound: m as u32,
        },
        PointData {
            data,
            queries,
            labels: Some(data_labels),
            query_labels: Some(query_labels),
        },
    )
}

/// SIFT-like bundle: E2LSH into 67-bucket-wide hash domains
/// (paper §VI-A1 follows the E2LSH bucket-width routine).
pub fn sift_bundle(scale: Scale, m: usize, seed: u64) -> (MatchData, PointData) {
    let dim = 32; // scaled stand-in for 128-d SIFT
    let all = sift_like(scale.n + scale.num_queries, dim, 100, seed);
    let (data, queries) = genie_datasets::holdout(all, scale.num_queries);
    let fam = E2Lsh::new(m, dim, 16.0, seed ^ 0xCD);
    let t = Transformer::new(fam, 4096);
    let objects: Vec<Object> = data.iter().map(|p| t.to_object(&p[..])).collect();
    let mc_queries: Vec<Query> = queries.iter().map(|p| t.to_query(&p[..])).collect();
    (
        MatchData {
            name: "SIFT",
            objects,
            queries: mc_queries,
            count_bound: m as u32,
        },
        PointData {
            data,
            queries,
            labels: None,
            query_labels: None,
        },
    )
}

/// DBLP-like bundle: 3-gram decomposition, 20%-corrupted queries of
/// length 40 (paper §VI-A1 defaults).
pub fn dblp_bundle(scale: Scale, seed: u64) -> (MatchData, SequenceData) {
    let n_gram = 3;
    let data = dblp_like(scale.n, 40, seed);
    let cq = corrupted_queries(&data, scale.num_queries, 0.2, seed ^ 0xEF);
    // vocabulary-mapped objects, shared between data and queries
    let mut vocab = std::collections::HashMap::new();
    let objects: Vec<Object> = data
        .iter()
        .map(|s| {
            Object::new(
                ordered_ngrams(s, n_gram)
                    .into_iter()
                    .map(|g| {
                        let next = vocab.len() as u32;
                        *vocab.entry(g).or_insert(next)
                    })
                    .collect(),
            )
        })
        .collect();
    let queries: Vec<Query> = cq
        .queries
        .iter()
        .map(|s| {
            Query::from_keywords(
                &ordered_ngrams(s, n_gram)
                    .into_iter()
                    .filter_map(|g| vocab.get(&g).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    (
        MatchData {
            name: "DBLP",
            objects,
            queries,
            count_bound: 40,
        },
        SequenceData {
            data,
            queries: cq.queries,
            ngram: n_gram,
        },
    )
}

/// Tweets-like bundle: word keywords, binary vector model.
pub fn tweets_bundle(scale: Scale, seed: u64) -> MatchData {
    let all = tweets_like(scale.n + scale.num_queries, 10_000, 4, 14, seed);
    let (data, queries) = genie_datasets::holdout(all, scale.num_queries);
    let index = DocumentIndex::build(&data);
    let objects: Vec<Object> = {
        // re-derive objects through the same vocabulary
        data.iter().map(|d| {
            let q = index.to_query(d);
            Object::new(q.items.iter().map(|i| i.lo).collect())
        })
    }
    .collect();
    let mc_queries: Vec<Query> = queries.iter().map(|d| index.to_query(d)).collect();
    MatchData {
        name: "Tweets",
        objects,
        queries: mc_queries,
        count_bound: 16,
    }
}

/// Adult-like bundle: 14 mixed attributes, rows duplicated 20x; queries
/// put a +/-50-bucket window around a sampled row's numeric values and
/// exact matches on its categorical values (paper §VI-A1).
pub fn adult_bundle(scale: Scale, seed: u64) -> (MatchData, RelationalIndex) {
    let buckets = 1024;
    let schema = adult_schema(buckets);
    let base = (scale.n / 20).max(1);
    let rows = adult_like(&schema, base, 20, seed);
    let rel = RelationalIndex::build(schema.clone(), &rows, None);
    let objects: Vec<Object> = rows.iter().map(|r| rel.encode_row(r)).collect();

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11);
    let queries: Vec<Query> = (0..scale.num_queries)
        .map(|_| {
            let row = &rows[rng.random_range(0..rows.len())];
            let conds: Vec<Condition> = row
                .iter()
                .enumerate()
                .map(|(a, v)| match *v {
                    Value::Cat(c) => Condition::CatEq { attr: a, value: c },
                    Value::Num(_) => {
                        let b = rel.bucket_of(a, *v);
                        Condition::BucketRange {
                            attr: a,
                            lo: b.saturating_sub(50),
                            hi: (b + 50).min(buckets - 1),
                        }
                    }
                })
                .collect();
            rel.encode_query(&conds)
                .expect("window conditions over sampled rows are valid")
        })
        .collect();
    (
        MatchData {
            name: "Adult",
            objects,
            queries,
            count_bound: 14,
        },
        rel,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_have_requested_shapes() {
        let scale = Scale {
            n: 500,
            num_queries: 16,
        };
        let (mc, pd) = sift_bundle(scale, 16, 1);
        assert_eq!(mc.objects.len(), 500);
        assert_eq!(mc.queries.len(), 16);
        assert_eq!(pd.data.len(), 500);
        assert!(mc.objects.iter().all(|o| o.keywords.len() == 16));

        let (mc, sd) = dblp_bundle(scale, 2);
        assert_eq!(mc.objects.len(), 500);
        assert_eq!(sd.queries.len(), 16);

        let mc = tweets_bundle(scale, 3);
        assert_eq!(mc.objects.len(), 500);

        let (mc, _) = adult_bundle(scale, 4);
        assert_eq!(mc.objects.len(), 500);
        assert!(mc.queries.iter().all(|q| q.items.len() == 14));

        let (mc, pd) = ocr_bundle(scale, 16, 5);
        assert_eq!(mc.objects.len(), 500);
        assert_eq!(pd.labels.as_ref().unwrap().len(), 500);
        assert_eq!(pd.query_labels.as_ref().unwrap().len(), 16);
    }

    #[test]
    fn truncation_preserves_queries() {
        let scale = Scale {
            n: 300,
            num_queries: 8,
        };
        let (mc, _) = sift_bundle(scale, 8, 9);
        let t = mc.truncated(100);
        assert_eq!(t.objects.len(), 100);
        assert_eq!(t.queries.len(), 8);
    }
}

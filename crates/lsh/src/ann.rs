//! End-to-end ANN search on the GENIE engine (paper §IV-A1).
//!
//! Build: transform every data point into a match-count object (one
//! keyword per hash function) and index the objects. Query: transform
//! the query point identically and run a top-k match-count search; by
//! Theorem 4.2 the top result is a τ-ANN of the query with τ = 2ε.
//!
//! [`AnnIndex`] implements [`Domain`] for `f32` point data under any
//! [`LshFamily`], so τ-ANN collections are served through the same
//! typed facade as every SA domain: `encode` validates the query point
//! (non-finite coordinates are a typed [`QueryBuildError`], not NaN
//! propagating into the hash maths) and `decode` returns the collision
//! counts whose `c/m` estimates similarity (Theorem 4.1).

use std::sync::Arc;

use genie_core::domain::{Domain, MatchHits};
use genie_core::index::IndexBuilder;
use genie_core::model::{Query, QueryBuildError};
use genie_core::topk::TopHit;

use crate::family::LshFamily;
use crate::tau_ann::max_required_m;
use crate::transform::Transformer;

/// Sizing parameters for an ANN index.
#[derive(Debug, Clone, Copy)]
pub struct AnnParams {
    /// Estimation error ε of Theorem 4.1 (the paper uses 0.06).
    pub epsilon: f64,
    /// Failure probability δ (the paper uses 0.06).
    pub delta: f64,
    /// Re-hash bucket domain `D` (the paper uses 8192 for OCR).
    pub domain: u32,
}

impl Default for AnnParams {
    fn default() -> Self {
        Self {
            epsilon: 0.06,
            delta: 0.06,
            domain: 8192,
        }
    }
}

impl AnnParams {
    /// Number of hash functions by the practical Eqn. 9 sizing rule
    /// (m = 237 at the paper's ε = δ = 0.06).
    pub fn num_functions(&self) -> usize {
        max_required_m(self.epsilon, self.delta, 4000)
    }

    /// The τ-ANN tolerance Theorem 4.2 guarantees: τ = 2ε.
    pub fn tau(&self) -> f64 {
        2.0 * self.epsilon
    }
}

/// An LSH-transformed data set indexed for the GENIE engine.
pub struct AnnIndex<F> {
    transformer: Transformer<F>,
    index: Arc<genie_core::index::InvertedIndex>,
}

impl<F> AnnIndex<F> {
    /// Transform and index `data` under `transformer`.
    pub fn build<'a, P, I>(transformer: Transformer<F>, data: I) -> Self
    where
        P: ?Sized + 'a,
        F: LshFamily<P>,
        I: IntoIterator<Item = &'a P>,
    {
        let mut builder = IndexBuilder::new();
        for x in data {
            builder.add_object(&transformer.to_object(x));
        }
        Self {
            transformer,
            index: Arc::new(builder.build(None)),
        }
    }

    pub fn transformer(&self) -> &Transformer<F> {
        &self.transformer
    }

    pub fn inverted_index(&self) -> &Arc<genie_core::index::InvertedIndex> {
        &self.index
    }
}

impl<F> Domain for AnnIndex<F>
where
    F: LshFamily<[f32]> + Send + Sync + 'static,
{
    type Config = Transformer<F>;
    type Item = Vec<f32>;
    type QuerySpec = Vec<f32>;
    type Response = MatchHits;

    fn name() -> &'static str {
        "tau-ann"
    }

    fn create(transformer: Transformer<F>, items: Vec<Vec<f32>>) -> Self {
        Self::build(transformer, items.iter().map(|p| &p[..]))
    }

    fn index(&self) -> &Arc<genie_core::index::InvertedIndex> {
        &self.index
    }

    /// A dimensionless point is a typed error, as is any NaN/infinite
    /// coordinate (which would otherwise flow into the hash projections
    /// and produce an arbitrary, irreproducible bucket).
    fn encode(&self, spec: &Vec<f32>) -> Result<Query, QueryBuildError> {
        if spec.is_empty() {
            return Err(QueryBuildError::EmptyQuery);
        }
        if spec.iter().any(|c| !c.is_finite()) {
            return Err(QueryBuildError::NonFinite {
                what: "query point coordinate".into(),
            });
        }
        Ok(self.transformer.to_query(&spec[..]))
    }

    /// Decompose one point exactly like [`AnnIndex::build`] does,
    /// validated like `encode`: the LSH transformer is fixed at build
    /// time, so a live insert is a pure transformation. Points are not
    /// stored (decode needs only the collision counts), so the default
    /// no-op `store_item` stands.
    fn decompose(&self, item: &Vec<f32>) -> Result<genie_core::model::Object, QueryBuildError> {
        if item.is_empty() {
            return Err(QueryBuildError::EmptyQuery);
        }
        if item.iter().any(|c| !c.is_finite()) {
            return Err(QueryBuildError::NonFinite {
                what: "data point coordinate".into(),
            });
        }
        Ok(self.transformer.to_object(&item[..]))
    }

    fn decode(
        &self,
        _spec: &Vec<f32>,
        hits: Vec<TopHit>,
        audit_threshold: u32,
        _k_candidates: usize,
        k: usize,
    ) -> MatchHits {
        let mut hits = hits;
        hits.truncate(k);
        MatchHits {
            hits,
            audit_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2lsh::E2Lsh;
    use crate::knn::{exact_knn, Metric};
    use genie_core::backend::SearchBackend;
    use genie_core::exec::Engine;
    use gpu_sim::Device;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let center = (i % 4) as f32 * 20.0;
                (0..dim)
                    .map(|_| center + rng.random::<f32>() * 2.0)
                    .collect()
            })
            .collect()
    }

    /// Direct path: encode, one backend batch, decode.
    fn search(
        ann: &AnnIndex<E2Lsh>,
        backend: &dyn SearchBackend,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<MatchHits> {
        let bindex = backend.upload(Arc::clone(Domain::index(ann))).unwrap();
        let qs: Vec<Query> = queries.iter().map(|q| ann.encode(q).unwrap()).collect();
        let out = backend.search_batch(&bindex, &qs, k);
        queries
            .iter()
            .zip(out.results.into_iter().zip(out.audit_thresholds))
            .map(|(q, (hits, at))| ann.decode(q, hits, at, k, k))
            .collect()
    }

    #[test]
    fn self_query_returns_self_first() {
        let points = clustered_points(200, 8, 3);
        let fam = E2Lsh::new(32, 8, 4.0, 7);
        let ann = AnnIndex::create(Transformer::new(fam, 1024), points.clone());
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let out = search(&ann, &engine, &[points[5].clone()], 1);
        assert_eq!(out[0].hits[0].id, 5);
        assert_eq!(out[0].hits[0].count, 32, "all functions collide");
    }

    #[test]
    fn ann_finds_points_in_the_right_cluster() {
        let points = clustered_points(400, 8, 11);
        let fam = E2Lsh::new(48, 8, 8.0, 13);
        let ann = AnnIndex::create(Transformer::new(fam, 2048), points.clone());
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        // query near cluster 2's centre (40.0)
        let q = vec![40.5f32; 8];
        let out = search(&ann, &engine, std::slice::from_ref(&q), 10);
        let truth = exact_knn(Metric::L2, &points, &q, 10);
        let true_ids: std::collections::HashSet<usize> = truth.iter().map(|&(i, _)| i).collect();
        // every returned id must at least be in the same cluster
        // (i % 4 == 2); most should be true kNNs
        let mut in_cluster = 0;
        let mut in_truth = 0;
        for hit in &out[0].hits {
            if hit.id as usize % 4 == 2 {
                in_cluster += 1;
            }
            if true_ids.contains(&(hit.id as usize)) {
                in_truth += 1;
            }
        }
        assert!(in_cluster >= 9, "cluster recall too low: {in_cluster}/10");
        assert!(in_truth >= 3, "kNN overlap too low: {in_truth}/10");
    }

    #[test]
    fn params_produce_paper_scale_m() {
        let m = AnnParams::default().num_functions();
        assert!((225..=250).contains(&m));
        assert!((AnnParams::default().tau() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn malformed_points_are_typed_errors() {
        let points = clustered_points(10, 4, 3);
        let ann = AnnIndex::create(Transformer::new(E2Lsh::new(8, 4, 4.0, 7), 64), points);
        assert_eq!(ann.encode(&vec![]), Err(QueryBuildError::EmptyQuery));
        assert_eq!(
            ann.encode(&vec![1.0, f32::NAN, 0.0, 0.0]),
            Err(QueryBuildError::NonFinite {
                what: "query point coordinate".into()
            })
        );
        assert_eq!(
            ann.encode(&vec![1.0, f32::INFINITY, 0.0, 0.0]),
            Err(QueryBuildError::NonFinite {
                what: "query point coordinate".into()
            })
        );
    }
}

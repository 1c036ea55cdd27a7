//! Property tests: the typed facade is transparent, per domain.
//!
//! For every one of the six domains, `Collection::<D>::search` — which
//! routes through the shared `GenieService` admission queue, the
//! micro-batching scheduler and the shard fan-out — must return exactly
//! what the pre-facade direct path returns on the same backend: encode
//! the spec with the same adapter, run one
//! `SearchBackend::search_batch` at the same candidate count, decode
//! with the same adapter. Counts, AuditThresholds and the ordering
//! contract (count-descending / distance-ascending with ascending-id
//! ties) must all agree, query for query.
//!
//! The backend is the deterministic `CpuBackend`, so full equality —
//! not just count profiles — is the right assertion.

use std::sync::Arc;

use genie_core::backend::{CpuBackend, SearchBackend};
use genie_core::domain::{Domain, MatchHits};
use genie_core::model::Query;
use genie_lsh::e2lsh::E2Lsh;
use genie_lsh::{AnnIndex, Transformer};
use genie_sa::relational::{Attribute, Condition, RelationalSchema, Value};
use genie_sa::{DocumentIndex, Graph, GraphIndex, RelationalIndex, SequenceIndex, Tree, TreeIndex};
use genie_service::{Collection, GenieDb};
use proptest::prelude::*;

fn db() -> (GenieDb, Arc<CpuBackend>) {
    let backend = Arc::new(CpuBackend::new());
    let db = GenieDb::single(backend.clone()).expect("db opens");
    (db, backend)
}

/// The pre-facade direct path: same adapter, same backend, one raw
/// batch at the same candidate count.
fn direct<D: Domain>(
    collection: &Collection<D>,
    backend: &dyn SearchBackend,
    spec: &D::QuerySpec,
    k: usize,
) -> D::Response {
    let domain = collection.domain();
    let kc = domain.candidates_for(k);
    let bindex = backend.upload(Arc::clone(domain.index())).expect("fits");
    let query: Query = domain.encode(spec).expect("valid spec");
    let out = backend.search_batch(&bindex, &[query], kc);
    domain.decode(spec, out.results[0].clone(), out.audit_thresholds[0], kc, k)
}

fn assert_match_hits_equal(facade: &MatchHits, direct: &MatchHits) {
    assert_eq!(facade.hits, direct.hits, "hit lists must be identical");
    assert_eq!(
        facade.audit_threshold, direct.audit_threshold,
        "AuditThresholds must agree"
    );
    // the ordering contract itself: count desc, id asc on ties
    for w in facade.hits.windows(2) {
        assert!(
            w[0].count > w[1].count || (w[0].count == w[1].count && w[0].id < w[1].id),
            "ordering contract violated: {w:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn document_facade_equals_direct_path(
        (docs, query, k) in (
            proptest::collection::vec(proptest::collection::vec(0u32..30, 1..8), 1..30),
            proptest::collection::vec(0u32..30, 1..8),
            1usize..6,
        ),
    ) {
        let words = |ids: &[u32]| ids.iter().map(|i| format!("w{i}")).collect::<Vec<String>>();
        let (db, backend) = db();
        let col = db
            .create_collection::<DocumentIndex>("docs", (), docs.iter().map(|d| words(d)).collect())
            .unwrap();
        let spec = words(&query);
        let facade = col.search(&spec, k).unwrap();
        let expected = direct(&col, backend.as_ref(), &spec, k);
        assert_match_hits_equal(&facade, &expected);
    }

    #[test]
    fn relational_facade_equals_direct_path(
        (rows, conds, k) in (
            proptest::collection::vec((0u32..4, 0u32..8, 0i32..100), 1..30),
            proptest::collection::vec((0usize..3, 0u32..4, 0u32..8), 1..4),
            1usize..6,
        ),
    ) {
        let schema = RelationalSchema {
            attrs: vec![
                Attribute::Categorical { cardinality: 4 },
                Attribute::Categorical { cardinality: 8 },
                Attribute::Numeric { min: -5.0, max: 5.0, buckets: 16 },
            ],
            load_balance: None,
        };
        let items: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(a, b, x)| {
                vec![
                    Value::Cat(a),
                    Value::Cat(b),
                    Value::Num(-5.0 + x as f64 * 0.1),
                ]
            })
            .collect();
        let spec: Vec<Condition> = conds
            .iter()
            .map(|&(attr, v, w)| match attr {
                0 => Condition::CatEq { attr: 0, value: v },
                1 => Condition::BucketRange { attr: 1, lo: v.min(w), hi: v.max(w) },
                _ => Condition::NumRange {
                    attr: 2,
                    lo: -5.0 + v as f64,
                    hi: -5.0 + (v + w) as f64,
                },
            })
            .collect();
        let (db, backend) = db();
        let col = db
            .create_collection::<RelationalIndex>("rows", schema, items)
            .unwrap();
        let facade = col.search(&spec, k).unwrap();
        let expected = direct(&col, backend.as_ref(), &spec, k);
        assert_match_hits_equal(&facade, &expected);
    }

    #[test]
    fn sequence_facade_equals_direct_path(
        (seqs, query, k) in (
            proptest::collection::vec(proptest::collection::vec(b'a'..b'e', 3..16), 1..20),
            proptest::collection::vec(b'a'..b'e', 3..16),
            1usize..4,
        ),
    ) {
        let (db, backend) = db();
        let col = db
            .create_collection::<SequenceIndex>("seqs", 3, seqs)
            .unwrap();
        let facade = col.search(&query, k).unwrap();
        let expected = direct(&col, backend.as_ref(), &query, k);
        assert_eq!(facade.hits, expected.hits, "verified hits must be identical");
        assert_eq!(facade.certified, expected.certified);
        assert_eq!(facade.k_candidates, expected.k_candidates);
        // ordering contract: ascending distance, ascending id on ties
        for w in facade.hits.windows(2) {
            prop_assert!(
                w[0].distance < w[1].distance
                    || (w[0].distance == w[1].distance && w[0].id < w[1].id)
            );
        }
    }

    #[test]
    fn tree_facade_equals_direct_path(
        (specs, pick, k) in (
            proptest::collection::vec(
                proptest::collection::vec((0u32..4, 0usize..6), 0..8),
                1..12,
            ),
            0usize..12,
            1usize..4,
        ),
    ) {
        let build = |spec: &[(u32, usize)]| {
            let mut t = Tree::leaf(0);
            for &(label, parent) in spec {
                let p = parent % t.len();
                t.add_child(p, label);
            }
            t
        };
        let trees: Vec<Tree> = specs.iter().map(|s| build(s)).collect();
        let query = trees[pick % trees.len()].clone();
        let (db, backend) = db();
        let col = db
            .create_collection::<TreeIndex>("trees", (), trees)
            .unwrap();
        let facade = col.search(&query, k).unwrap();
        let expected = direct(&col, backend.as_ref(), &query, k);
        assert_eq!(facade, expected, "verified tree hits must be identical");
        prop_assert!(facade[0].distance == 0, "query is an indexed tree");
    }

    #[test]
    fn graph_facade_equals_direct_path(
        (specs, pick, k) in (
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..4, 1..7),
                    proptest::collection::vec((0usize..7, 0usize..7), 0..10),
                ),
                1..10,
            ),
            0usize..10,
            1usize..4,
        ),
    ) {
        let build = |(labels, edges): &(Vec<u32>, Vec<(usize, usize)>)| {
            let mut g = Graph::new();
            for &l in labels {
                g.add_node(l);
            }
            for &(a, b) in edges {
                let (a, b) = (a % g.len(), b % g.len());
                if a != b {
                    g.add_edge(a, b);
                }
            }
            g
        };
        let graphs: Vec<Graph> = specs.iter().map(build).collect();
        let query = graphs[pick % graphs.len()].clone();
        let (db, backend) = db();
        let col = db
            .create_collection::<GraphIndex>("graphs", (), graphs)
            .unwrap();
        let facade = col.search(&query, k).unwrap();
        let expected = direct(&col, backend.as_ref(), &query, k);
        assert_eq!(facade, expected, "verified graph hits must be identical");
        prop_assert!(facade[0].distance == 0, "query is an indexed graph");
    }

    #[test]
    fn tau_ann_facade_equals_direct_path(
        (raw_points, qpick, k, m) in (
            proptest::collection::vec(
                proptest::collection::vec(-100i32..100, 4..5),
                2..24,
            ),
            0usize..24,
            1usize..6,
            4usize..24,
        ),
    ) {
        let points: Vec<Vec<f32>> = raw_points
            .iter()
            .map(|p| p.iter().map(|&c| c as f32 / 10.0).collect())
            .collect();
        let query = points[qpick % points.len()].clone();
        let (db, backend) = db();
        let col = db
            .create_collection::<AnnIndex<E2Lsh>>(
                "points",
                Transformer::new(E2Lsh::new(m, 4, 4.0, 17), 256),
                points,
            )
            .unwrap();
        let facade = col.search(&query, k).unwrap();
        let expected = direct(&col, backend.as_ref(), &query, k);
        assert_match_hits_equal(&facade, &expected);
        prop_assert_eq!(
            facade.hits[0].count as usize, m,
            "an indexed point collides with itself on all m functions"
        );
    }
}

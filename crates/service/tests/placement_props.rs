//! Property tests: shard **placement** is a pure performance degree of
//! freedom.
//!
//! Per-shard match counts do not depend on which backend scans the
//! shard, so routing each shard's sub-wave to *any* assigned subset of
//! the fleet must yield answers identical to broadcast dispatch — hit
//! for hit, `AT = MC_k + 1` included (see `genie_core::placement` for
//! the invariant). These tests drive that claim through the full
//! service stack across randomized shard counts, fleet sizes and
//! assignments; while placement plans are being swapped mid-traffic;
//! and while live mutations and compactions race rebalancing — always
//! comparing against broadcast dispatch or a from-scratch rebuild.
//!
//! The fleet is all-`CpuBackend` (deterministic), so full equality is
//! the right assertion.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_core::backend::{CpuBackend, SearchBackend};
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{Object, ObjectId, Query};
use genie_core::placement::PlacementPlan;
use genie_service::{GenieService, QueryScheduler, SchedulerConfig, ServiceConfig};
use proptest::prelude::*;

fn index_of(corpus: &[Vec<u32>]) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    for keywords in corpus {
        b.add_object(&Object {
            keywords: keywords.clone(),
        });
    }
    Arc::new(b.build(None))
}

fn fleet_service(backends: usize, config: ServiceConfig) -> GenieService {
    let fleet: Vec<Arc<dyn SearchBackend>> = (0..backends)
        .map(|_| Arc::new(CpuBackend::new()) as Arc<dyn SearchBackend>)
        .collect();
    GenieService::start_empty(
        QueryScheduler::new(fleet, SchedulerConfig::default()),
        config,
    )
    .expect("service starts")
}

/// No result cache (placement must be exercised, not memoised), no
/// cross-time batching, no automatic rebalancing unless a test opts in.
fn test_config() -> ServiceConfig {
    ServiceConfig {
        max_queue_delay: Duration::ZERO,
        cache_capacity: 0,
        rebalance_window: 0,
        ..Default::default()
    }
}

fn search(
    service: &GenieService,
    collection: u64,
    query: &Query,
    k: usize,
) -> (Vec<(u32, u32)>, u32) {
    let resp = service
        .submit_to(collection, query.clone(), k)
        .wait()
        .expect("search serves");
    (
        resp.hits.iter().map(|h| (h.id, h.count)).collect(),
        resp.audit_threshold,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any shard→backend assignment answers exactly like broadcast:
    /// random corpus, random shard count, random fleet size, random
    /// nonempty per-shard backend subsets.
    #[test]
    fn placement_routed_answers_equal_broadcast(
        (corpus, fleet, shards, masks) in (1usize..5, 1usize..5).prop_flat_map(|(fleet, shards)| {
            (
                proptest::collection::vec(proptest::collection::vec(0u32..20, 1..6), 8..24),
                Just(fleet),
                Just(shards),
                // one nonzero bitmask over the fleet per shard
                proptest::collection::vec(1usize..(1usize << fleet), shards..shards + 1),
            )
        }),
    ) {
        let index = index_of(&corpus);
        let broadcast = fleet_service(fleet, test_config());
        let placed = fleet_service(fleet, test_config());
        let cid_b = broadcast
            .add_collection_sharded("corpus", &index, shards)
            .expect("registers");
        let cid_p = placed
            .add_collection_sharded("corpus", &index, shards)
            .expect("registers");
        let base = placed
            .collection_placement(cid_p)
            .expect("known collection")
            .len();
        prop_assert_eq!(base, shards, "corpus is larger than the shard count");
        let assignments: Vec<Vec<usize>> = masks
            .iter()
            .map(|m| (0..fleet).filter(|b| m & (1 << b) != 0).collect())
            .collect();
        let strict_subset = shards >= 2 && assignments.iter().any(|a| a.len() < fleet);
        let plan = PlacementPlan::new(assignments, fleet).expect("nonempty in-range plan");
        placed
            .set_collection_placement(cid_p, plan)
            .expect("plan fits collection and fleet");

        let mut queries: Vec<Query> = corpus
            .iter()
            .take(5)
            .map(|kw| Query::from_keywords(kw))
            .collect();
        queries.push(Query::from_keywords(&[0, 1]));
        for query in &queries {
            for k in [1usize, 3, corpus.len() + 2] {
                let want = search(&broadcast, cid_b, query, k);
                let got = search(&placed, cid_p, query, k);
                prop_assert_eq!(
                    &got,
                    &want,
                    "placement-routed answers diverged from broadcast at k={}",
                    k
                );
            }
        }
        if strict_subset {
            prop_assert!(
                placed.stats().placed_shard_runs > 0,
                "a strict-subset plan over a sharded collection must route"
            );
        }
    }

    /// Rebalancing racing live mutations: interleave atomic mutation
    /// batches, synchronous compactions, explicit placement swaps and
    /// derived rebalances, with searcher threads hammering the
    /// collection throughout — the final state must equal a
    /// from-scratch rebuild over the surviving objects (under the
    /// stable-id → dense-id translation), and every concurrently
    /// served answer must respect the ordering contract.
    #[test]
    fn rebalance_races_mutations_and_equals_rebuild(
        ops in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..64, 0..3),
                proptest::collection::vec(proptest::collection::vec(0u32..20, 1..6), 0..3),
                0usize..4, // which placement action to take this round
            ),
            1..6,
        ),
    ) {
        let fleet = 3;
        let service = fleet_service(
            fleet,
            ServiceConfig {
                compact_after: 0, // compactions are explicit here
                ..test_config()
            },
        );
        let corpus: Vec<Vec<u32>> = (0..24u32)
            .map(|i| vec![i % 7, 7 + i % 5, 19])
            .collect();
        let cid = service
            .add_collection_sharded("raced", &index_of(&corpus), 3)
            .expect("registers");

        // searchers assert the ordering contract while plans swap
        let service = Arc::new(service);
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU32::new(0));
        let searchers: Vec<_> = (0..2)
            .map(|t: u32| {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    let mut rounds = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let query = Query::from_keywords(&[(rounds + t) % 7, 19]);
                        let resp = service
                            .submit_to(cid, query, 5)
                            .wait()
                            .expect("searches serve throughout");
                        for w in resp.hits.windows(2) {
                            assert!(
                                w[0].count > w[1].count
                                    || (w[0].count == w[1].count && w[0].id < w[1].id),
                                "ordering contract violated mid-rebalance: {w:?}"
                            );
                        }
                        rounds += 1;
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        // the model: surviving (stable id, keywords), insertion order
        let mut live: Vec<(ObjectId, Vec<u32>)> = corpus
            .iter()
            .enumerate()
            .map(|(i, kw)| (i as ObjectId, kw.clone()))
            .collect();
        for (round, (picks, inserts, action)) in ops.iter().enumerate() {
            let mut deletes = Vec::new();
            for &p in picks {
                if live.len() <= 1 {
                    break;
                }
                deletes.push(live.remove(p % live.len()).0);
            }
            let objects: Vec<Object> = inserts
                .iter()
                .map(|kw| Object {
                    keywords: kw.clone(),
                })
                .collect();
            let ids = service
                .mutate_collection(cid, &deletes, objects, &mut |_, _| {})
                .expect("valid batch applies");
            for (id, kw) in ids.into_iter().zip(inserts) {
                live.push((id, kw.clone()));
            }
            match action {
                0 => {
                    service.compact_collection(cid).expect("compaction runs");
                }
                1 => {
                    // an explicit skewed plan over the current base
                    let base = service
                        .collection_placement(cid)
                        .expect("known collection")
                        .len();
                    let plan = PlacementPlan::new(
                        (0..base).map(|s| vec![(s + round) % fleet]).collect(),
                        fleet,
                    )
                    .expect("one backend per shard is a valid plan");
                    service
                        .set_collection_placement(cid, plan)
                        .expect("plan covers the current base");
                }
                2 => {
                    // derive a plan from observed costs + learned models
                    service.rebalance_collection(cid).expect("rebalance runs");
                }
                _ => {} // mutation only
            }
        }

        // let the searchers demonstrably run against the final state
        let deadline = Instant::now() + Duration::from_secs(10);
        while served.load(Ordering::Relaxed) < 10 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        for s in searchers {
            s.join().expect("searcher clean");
        }

        // the mutated+rebalanced collection equals a from-scratch
        // rebuild over exactly the survivors
        let fresh = fleet_service(fleet, test_config());
        let fresh_cid = fresh
            .add_collection_sharded(
                "fresh",
                &index_of(&live.iter().map(|(_, kw)| kw.clone()).collect::<Vec<_>>()),
                3,
            )
            .expect("rebuild registers");
        let live_ids: Vec<ObjectId> = live.iter().map(|&(id, _)| id).collect();
        for hot in 0..7u32 {
            for k in [1usize, 4, live.len() + 5] {
                let query = Query::from_keywords(&[hot, 19]);
                let (hits, at) = search(&service, cid, &query, k);
                let (want_hits, want_at) = search(&fresh, fresh_cid, &query, k);
                let translated: Vec<(u32, u32)> = hits
                    .iter()
                    .map(|&(id, c)| {
                        let rank = live_ids
                            .binary_search(&id)
                            .expect("every returned id is live")
                            as u32;
                        (rank, c)
                    })
                    .collect();
                prop_assert_eq!(translated, want_hits, "diverged from rebuild at k={}", k);
                prop_assert_eq!(at, want_at, "AT must match the rebuild at k={}", k);
            }
        }
    }
}

/// The hot-shard detector end to end: skewed traffic over a sharded
/// collection trips the postings-share detector, the background
/// rebalancer applies a non-broadcast plan, subsequent runs are
/// placement-routed — and answers never change.
#[test]
fn hot_shard_detection_rebalances_without_changing_answers() {
    let service = fleet_service(
        2,
        ServiceConfig {
            rebalance_window: 4,
            skew_threshold: 0.6,
            ..test_config()
        },
    );
    // contiguous 2-shard split: objects 0..32 carry the hot keyword 0,
    // objects 32..64 never do — all keyword-0 postings live in shard 0
    let corpus: Vec<Vec<u32>> = (0..64u32)
        .map(|i| {
            if i < 32 {
                vec![0, 1 + i % 4]
            } else {
                vec![5 + i % 4]
            }
        })
        .collect();
    let cid = service
        .add_collection_sharded("skewed", &index_of(&corpus), 2)
        .expect("registers");

    let hot_query = Query::from_keywords(&[0]);
    let baseline = search(&service, cid, &hot_query, 5);

    // every wave scans shard-0 postings only: 100% share > 60%
    for _ in 0..8 {
        let _ = search(&service, cid, &hot_query, 5);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = service.stats();
        if stats.hot_shard_events >= 1 && stats.rebalances >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "detector or rebalancer never fired: {stats:?}"
        );
        // keep feeding skewed waves; detection needs full windows
        let _ = search(&service, cid, &hot_query, 5);
    }

    let placement = service.collection_placement(cid).expect("known collection");
    assert_eq!(placement.len(), 2);
    assert!(
        placement.iter().any(|backends| backends.len() < 2),
        "rebalancing a 2-shard/2-backend skew must split the fleet: {placement:?}"
    );
    // shard stats watched the same signal the detector used
    let shard_stats = service.shard_stats(cid).expect("known collection");
    assert_eq!(shard_stats.len(), 2);
    assert!(shard_stats[0].postings > 0, "hot shard scanned postings");
    assert!(
        shard_stats[0].postings > shard_stats[1].postings,
        "skew must be visible in the totals: {shard_stats:?}"
    );

    // placement-routed serving answers exactly like before
    let placed_runs_before = service.stats().placed_shard_runs;
    for _ in 0..4 {
        assert_eq!(
            search(&service, cid, &hot_query, 5),
            baseline,
            "rebalancing changed an answer"
        );
    }
    assert!(
        service.stats().placed_shard_runs > placed_runs_before,
        "post-rebalance waves must be placement-routed"
    );
}

/// Placement covers base shards only, so the mounted delta shard must
/// not vote in the hot-shard detector: an unsharded collection with one
/// pending insert serves two shard runs per wave (base + delta) and the
/// base holds ~all postings, but there is nothing to place.
#[test]
fn delta_shard_does_not_vote_in_the_hot_shard_detector() {
    let service = fleet_service(
        2,
        ServiceConfig {
            rebalance_window: 32,
            skew_threshold: 0.6,
            compact_after: 0,
            ..test_config()
        },
    );
    let corpus: Vec<Vec<u32>> = (0..64u32).map(|i| vec![0, 1 + i % 4]).collect();
    let cid = service
        .add_collection_sharded("unsharded", &index_of(&corpus), 1)
        .expect("registers");
    service
        .mutate_collection(cid, &[], vec![Object { keywords: vec![9] }], &mut |_, _| {})
        .expect("insert lands in the delta shard");

    let query = Query::from_keywords(&[0]);
    for _ in 0..100 {
        let _ = search(&service, cid, &query, 5);
    }
    // the lifetime totals keep their documented delta slot
    assert_eq!(service.shard_stats(cid).expect("known collection").len(), 2);
    let stats = service.stats();
    assert_eq!(
        (stats.hot_shard_events, stats.rebalances),
        (0, 0),
        "a one-base-shard collection has nothing to place: {stats:?}"
    );
}

/// Placement plans that do not fit the collection or fleet are typed
/// errors, and unknown collections are typed errors — never panics.
#[test]
fn invalid_placement_plans_are_rejected() {
    use genie_service::ServiceError;

    let service = fleet_service(2, test_config());
    let corpus: Vec<Vec<u32>> = (0..12u32).map(|i| vec![i % 5]).collect();
    let cid = service
        .add_collection_sharded("small", &index_of(&corpus), 3)
        .expect("registers");

    // wrong shard count
    let plan = PlacementPlan::broadcast(2, 2).unwrap();
    assert!(matches!(
        service.set_collection_placement(cid, plan),
        Err(ServiceError::InvalidPlacement(_))
    ));
    // wrong fleet size
    let plan = PlacementPlan::broadcast(3, 4).unwrap();
    assert!(matches!(
        service.set_collection_placement(cid, plan),
        Err(ServiceError::InvalidPlacement(_))
    ));
    // unknown collection
    let plan = PlacementPlan::broadcast(3, 2).unwrap();
    assert!(matches!(
        service.set_collection_placement(99, plan),
        Err(ServiceError::UnknownCollection(99))
    ));
    assert!(matches!(
        service.rebalance_collection(99),
        Err(ServiceError::UnknownCollection(99))
    ));
    // a fitting plan lands, and is observable
    let plan = PlacementPlan::new(vec![vec![0], vec![1], vec![0, 1]], 2).unwrap();
    service
        .set_collection_placement(cid, plan)
        .expect("fitting plan applies");
    assert_eq!(
        service.collection_placement(cid).unwrap(),
        vec![vec![0], vec![1], vec![0, 1]]
    );
    let _ = service.submit_to(cid, Query::from_keywords(&[1]), 3);
}

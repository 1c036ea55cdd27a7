//! Property tests: intra-collection sharding is transparent.
//!
//! For arbitrary data sets, query workloads, shard counts and
//! object→shard assignments, a sharded collection's routed answers must
//! agree with the unsharded collection served by the same fleet:
//!
//! * with a **deterministic homogeneous CPU fleet** the answers are
//!   **bit-identical** (ids, counts and AuditThresholds) — the CPU
//!   backend breaks k-th-count ties by lowest id, and each shard's
//!   local-id order is the global-id order restricted to the shard, so
//!   the merge reproduces the unsharded selection exactly;
//! * with the **simulated device engine** counts and AuditThresholds
//!   are identical (its c-PQ gate admits k-th-count ties in scan order,
//!   which sharding changes — the paper breaks those ties randomly);
//! * in both cases the merged answer carries the Theorem 3.1
//!   certificate computed against brute force: `AT = MC_k + 1` on the
//!   merged top-k, 1 when fewer than `k` objects matched.
//!
//! This mirrors `scheduler_props.rs`, one layer up: there the claim is
//! that *micro-batching* is transparent, here that *sharding* is.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_core::backend::CpuBackend;
use genie_core::exec::Engine;
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{match_count, Object, ObjectId, Query, QueryItem};
use genie_core::shard::ShardPlan;
use genie_core::topk::{audit_threshold, reference_top_k};
use genie_service::{GenieService, QueryRequest, QueryScheduler, SchedulerConfig, ServiceConfig};
use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;

fn index_of(objects: &[Object]) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    b.add_objects(objects.iter());
    Arc::new(b.build(None))
}

/// One-worker device: deterministic c-PQ update order (see
/// `scheduler_props.rs`).
fn deterministic_engine() -> Engine {
    Engine::new(Arc::new(Device::new(DeviceConfig {
        host_workers: 1,
        ..Default::default()
    })))
}

fn service_over(backend: Arc<dyn genie_core::backend::SearchBackend>) -> GenieService {
    GenieService::start_empty(
        QueryScheduler::new(
            vec![backend],
            SchedulerConfig {
                max_batch_queries: 8,
                cpq_budget_bytes: None,
                ..Default::default()
            },
        ),
        ServiceConfig {
            max_queue_delay: std::time::Duration::from_micros(200),
            ..Default::default()
        },
    )
    .expect("service starts")
}

fn arb_objects() -> impl Strategy<Value = Vec<Object>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..25, 1..6).prop_map(Object::new),
        1..60,
    )
}

fn arb_queries() -> impl Strategy<Value = Vec<Query>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..25, 0u32..4), 1..5).prop_map(|items| {
            Query::new(
                items
                    .into_iter()
                    .map(|(lo, w)| QueryItem::range(lo, (lo + w).min(24)))
                    .collect(),
            )
        }),
        1..16,
    )
}

/// Objects, queries, k, shard count, and a random object→shard
/// assignment of matching length.
type Case = (Vec<Object>, Vec<Query>, usize, usize, Vec<usize>);

fn arb_case() -> impl Strategy<Value = Case> {
    (arb_objects(), arb_queries(), 1usize..10, 1usize..6).prop_flat_map(
        |(objects, queries, k, shards)| {
            let n = objects.len();
            (
                Just(objects),
                Just(queries),
                Just(k),
                Just(shards),
                // the shim's `vec` takes a length range: exactly n
                proptest::collection::vec(0..shards, n..n + 1),
            )
        },
    )
}

/// Register the same data set twice in one service — unsharded and
/// split by `assignment` — and return both collection ids.
fn register_pair(
    service: &GenieService,
    objects: &[Object],
    shards: usize,
    assignment: &[usize],
) -> (u64, u64) {
    let whole = service
        .add_collection("whole", &index_of(objects))
        .expect("host index fits");
    let plan = ShardPlan::from_assignment(objects, shards, assignment, None)
        .expect("generated assignment is valid");
    let split = service
        .add_collection_plan("split", &plan)
        .expect("shards fit");
    (whole, split)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deterministic homogeneous CPU fleet: the sharded collection's
    /// answers are bit-identical to the unsharded one, and the AT is
    /// the Theorem 3.1 certificate of the brute-force merged answer.
    #[test]
    fn sharded_cpu_serving_is_bit_identical_to_unsharded(
        (objects, queries, k, shards, assignment) in arb_case(),
    ) {
        let service = service_over(Arc::new(CpuBackend::new()));
        let (whole, split) = register_pair(&service, &objects, shards, &assignment);
        for (qi, query) in queries.iter().enumerate() {
            let unsharded = service.submit_to(whole, query.clone(), k).wait().unwrap();
            let sharded = service.submit_to(split, query.clone(), k).wait().unwrap();
            prop_assert_eq!(&sharded.hits, &unsharded.hits, "query {} ids+counts", qi);
            prop_assert_eq!(
                sharded.audit_threshold,
                unsharded.audit_threshold,
                "query {} AT",
                qi
            );
            // AT = MC_k + 1 on the merged answer, against brute force
            let counts: Vec<u32> = objects.iter().map(|o| match_count(query, o)).collect();
            let expected = reference_top_k(&counts, k);
            prop_assert_eq!(&sharded.hits, &expected, "query {} vs brute force", qi);
            prop_assert_eq!(
                sharded.audit_threshold,
                audit_threshold(&expected, k),
                "query {} certificate",
                qi
            );
        }
        let stats = service.stats();
        prop_assert_eq!(stats.failed_requests, 0);
        // every sharded request's wave fanned out to one run per shard
        let expected_shards = service.collection_shards(split).unwrap() as u64;
        prop_assert!(stats.shard_runs >= expected_shards, "stats: {:?}", stats);
    }

    /// Simulated device engine: counts and ATs are shard-invariant (ids
    /// among k-th-count ties may differ — the gate admits those in scan
    /// order, which sharding changes).
    #[test]
    fn sharded_engine_serving_preserves_counts_and_certificates(
        (objects, queries, k, shards, assignment) in arb_case(),
    ) {
        let service = service_over(Arc::new(deterministic_engine()));
        let (whole, split) = register_pair(&service, &objects, shards, &assignment);
        for (qi, query) in queries.iter().enumerate() {
            let unsharded = service.submit_to(whole, query.clone(), k).wait().unwrap();
            let sharded = service.submit_to(split, query.clone(), k).wait().unwrap();
            let got: Vec<u32> = sharded.hits.iter().map(|h| h.count).collect();
            let want: Vec<u32> = unsharded.hits.iter().map(|h| h.count).collect();
            prop_assert_eq!(got, want, "query {} count profile", qi);
            prop_assert_eq!(sharded.audit_threshold, unsharded.audit_threshold);
            // every returned id's count is its true match count
            for hit in &sharded.hits {
                prop_assert_eq!(
                    match_count(query, &objects[hit.id as usize]),
                    hit.count,
                    "query {} object {}",
                    qi,
                    hit.id
                );
            }
        }
    }
}

/// `add_collection_sharded` over a shard-count sweep: identical answers
/// at every count, with the count clamped to the collection size — and
/// every group run counted as exactly one scheduler run per shard.
#[test]
fn shard_count_sweep_is_answer_invariant() {
    let objects: Vec<Object> = (0..50)
        .map(|i| Object::new(vec![i % 11, 50 + i % 7]))
        .collect();
    let index = index_of(&objects);
    let service = service_over(Arc::new(CpuBackend::new()));
    let query = Query::from_keywords(&[3, 52]);

    // the reference: one direct scheduler run, no service in between
    let direct = QueryScheduler::single(Arc::new(CpuBackend::new()));
    let prepared = direct.prepare(&index).expect("host index fits");
    let (responses, _) = direct
        .run_prepared(&prepared, &[QueryRequest::new(0, query.clone(), 7)])
        .expect("direct run");
    let baseline = &responses[0];

    // every way of registering ONE shard serves through the same
    // fan-out and must reproduce the direct run bit for bit
    let one_shard = [
        service.add_collection("whole", &index).unwrap(),
        service.add_collection_sharded("s1", &index, 1).unwrap(),
        service
            .add_collection_plan("p1", &ShardPlan::build(&objects, 1, None))
            .unwrap(),
    ];
    for id in one_shard {
        assert_eq!(service.collection_shards(id), Some(1));
        let resp = service.submit_to(id, query.clone(), 7).wait().unwrap();
        assert_eq!(resp.hits, baseline.hits, "collection {id}");
        assert_eq!(resp.audit_threshold, baseline.audit_threshold);
    }

    for shards in [1usize, 2, 3, 5, 8, 50, 200] {
        let id = service
            .add_collection_sharded(&format!("s{shards}"), &index, shards)
            .unwrap();
        let served_shards = shards.clamp(1, 50);
        assert_eq!(
            service.collection_shards(id),
            Some(served_shards),
            "{shards} requested"
        );
        // one awaited request = one wave = one group run
        let runs_before = service.stats().shard_runs;
        let resp = service.submit_to(id, query.clone(), 7).wait().unwrap();
        assert_eq!(
            service.stats().shard_runs - runs_before,
            served_shards as u64,
            "a group run over {served_shards} shards is {served_shards} shard runs"
        );
        assert_eq!(resp.hits, baseline.hits, "{shards} shards");
        assert_eq!(resp.audit_threshold, baseline.audit_threshold);
    }
}

/// Swapping a sharded collection re-shards the new index at the same
/// shard count, serves the new index at once, and leaves a sibling's
/// answers unchanged.
#[test]
fn sharded_swap_preserves_shards_and_invalidates_only_itself() {
    let before: Vec<Object> = (0..40).map(|i| Object::new(vec![i % 5])).collect();
    let after: Vec<Object> = (0..40).map(|i| Object::new(vec![i % 8])).collect();
    let service = GenieService::start_empty(
        QueryScheduler::single(Arc::new(CpuBackend::new())),
        ServiceConfig {
            max_queue_delay: std::time::Duration::from_micros(200),
            ..Default::default()
        },
    )
    .unwrap();
    let sharded = service
        .add_collection_sharded("sharded", &index_of(&before), 4)
        .unwrap();
    let sibling = service
        .add_collection("sibling", &index_of(&before))
        .unwrap();

    let query = Query::from_keywords(&[6]); // matches nothing before, 5 objects after
    assert!(service
        .submit_to(sharded, query.clone(), 5)
        .wait()
        .unwrap()
        .hits
        .is_empty());
    let sibling_answer = service.submit_to(sibling, query.clone(), 5).wait().unwrap();

    service.swap_collection(sharded, &index_of(&after)).unwrap();
    assert_eq!(
        service.collection_shards(sharded),
        Some(4),
        "swap must preserve the shard count"
    );
    let resp = service.submit_to(sharded, query.clone(), 5).wait().unwrap();
    assert_eq!(resp.hits.len(), 5, "stale answer after swap");
    assert_eq!(resp.audit_threshold, 2, "AT = MC_5 + 1 = 2 on the new data");

    // the sibling answers with the same bits
    let again = service.submit_to(sibling, query, 5).wait().unwrap();
    assert_eq!(again.hits, sibling_answer.hits);
    assert_eq!(again.audit_threshold, sibling_answer.audit_threshold);
}

/// Mixed per-request `k` within one sharded wave: each request's merged
/// top-k is truncated to its own `k` with its own certificate.
#[test]
fn sharded_waves_honour_per_request_k() {
    let objects: Vec<Object> = (0..30).map(|i| Object::new(vec![i % 3])).collect();
    let service = service_over(Arc::new(CpuBackend::new()));
    let id = service
        .add_collection_sharded("sharded", &index_of(&objects), 3)
        .unwrap();
    let query = Query::from_keywords(&[1]); // ten matching objects
    let tickets: Vec<_> = [1usize, 4, 10, 25]
        .iter()
        .map(|&k| (k, service.submit_to(id, query.clone(), k)))
        .collect();
    for (k, ticket) in tickets {
        let resp = ticket.wait().unwrap();
        assert_eq!(resp.hits.len(), k.min(10), "k={k}");
        let expected_at = if k <= 10 { 2 } else { 1 };
        assert_eq!(resp.audit_threshold, expected_at, "k={k}");
        assert!(resp.hits.iter().all(|h| h.count == 1));
    }
}

/// Facade-level: sharded serving on the new CPU counting kernel is
/// unchanged. Every answer routed through `GenieDb` — shard fan-out,
/// merge and all — must be bit-identical to the seed dense reference
/// path ([`genie_core::backend::kernel::reference_search_one`]) decoded
/// by the same domain adapter, on a first and a repeated pass alike,
/// each answered by its wave's shard runs.
#[test]
fn facade_sharded_serving_matches_the_seed_reference() {
    use genie_core::backend::kernel;
    use genie_core::domain::Domain;
    use genie_sa::DocumentIndex;
    use genie_service::GenieDb;

    let words = |ids: &[u32]| ids.iter().map(|i| format!("w{i}")).collect::<Vec<String>>();
    let docs: Vec<Vec<String>> = (0..120u32)
        .map(|i| words(&[i % 13, 13 + i % 7, 20 + i % 3]))
        .collect();
    let db = GenieDb::open(
        vec![Arc::new(CpuBackend::new())],
        SchedulerConfig {
            max_batch_queries: 8,
            cpq_budget_bytes: None,
            ..Default::default()
        },
        ServiceConfig {
            max_queue_delay: std::time::Duration::from_micros(200),
            ..Default::default()
        },
    )
    .expect("db opens");
    let col = db
        .create_collection_sharded::<DocumentIndex>("docs", (), docs, 3)
        .expect("collection builds");
    assert_eq!(col.shard_count(), 3);

    let k = 5;
    let specs: Vec<Vec<String>> = (0..20u32)
        .map(|i| words(&[i % 13, 13 + (i + 1) % 7]))
        .collect();
    let first: Vec<_> = specs.iter().map(|s| col.search(s, k).unwrap()).collect();
    let second: Vec<_> = specs.iter().map(|s| col.search(s, k).unwrap()).collect();
    let stats = db.stats();
    assert_eq!(stats.served, 2 * specs.len() as u64);
    assert_eq!(
        stats.batched_requests, stats.served,
        "both passes must be answered by shard runs: {stats:?}"
    );

    let domain = col.domain();
    let kc = domain.candidates_for(k);
    for ((spec, f), s) in specs.iter().zip(&first).zip(&second) {
        let query = domain.encode(spec).expect("valid spec");
        let (hits, at) = kernel::reference_search_one(domain.index(), &query, kc);
        let expected = domain.decode(spec, hits, at, kc, k);
        assert_eq!(f.hits, expected.hits, "sharded facade vs seed reference");
        assert_eq!(f.audit_threshold, expected.audit_threshold);
        assert_eq!(f.hits, s.hits, "repeated pass must be bit-identical");
        assert_eq!(f.audit_threshold, s.audit_threshold);
    }
}

/// A collection larger than one device is a sharded collection on a
/// fleet: on two 16 KiB devices the 24 000 B index is refused whole but
/// serves as six shards, each fitting one device — with brute-force
/// counts and certificates, and one multi-query batch per shard (the
/// c-PQ budget is sized against a shard, not the whole index).
#[test]
fn a_collection_larger_than_one_device_serves_as_shards_on_a_small_device_fleet() {
    let objects: Vec<Object> = (0..3000)
        .map(|i| Object::new(vec![i % 13, 50 + i % 5]))
        .collect();
    let index = index_of(&objects);
    let device_mem = 16_384u64;
    assert!(
        index.device_bytes() > device_mem,
        "the whole index must not fit"
    );

    let small_engine = || {
        Arc::new(Engine::new(Arc::new(Device::new(DeviceConfig {
            memory_bytes: device_mem,
            ..Default::default()
        })))) as Arc<dyn genie_core::backend::SearchBackend>
    };
    let service = GenieService::start_empty(
        QueryScheduler::new(
            vec![small_engine(), small_engine()],
            SchedulerConfig {
                max_batch_queries: 1024,
                cpq_budget_bytes: None,
                ..Default::default()
            },
        ),
        ServiceConfig {
            // long enough that the eight submissions share one wave
            max_queue_delay: std::time::Duration::from_millis(100),
            ..Default::default()
        },
    )
    .expect("service starts");

    assert!(
        service.add_collection("whole", &index).is_err(),
        "the unsharded index exceeds one device"
    );
    let id = service
        .add_collection_sharded("sharded", &index, 6)
        .expect("each shard fits one device");
    assert_eq!(service.collection_shards(id), Some(6));

    let k = 3;
    let queries: Vec<Query> = (0..8u32)
        .map(|i| Query::from_keywords(&[i % 13, 50 + i % 5]))
        .collect();
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| service.submit_to(id, q.clone(), k))
        .collect();
    for (qi, (query, ticket)) in queries.iter().zip(tickets).enumerate() {
        let resp = ticket.wait().expect("sharded request is served");
        let counts: Vec<u32> = objects.iter().map(|o| match_count(query, o)).collect();
        let expected = reference_top_k(&counts, k);
        let got: Vec<u32> = resp.hits.iter().map(|h| h.count).collect();
        let want: Vec<u32> = expected.iter().map(|h| h.count).collect();
        assert_eq!(got, want, "query {qi} count profile");
        assert_eq!(
            resp.audit_threshold,
            audit_threshold(&expected, k),
            "query {qi} AT"
        );
        for hit in &resp.hits {
            assert_eq!(
                counts[hit.id as usize], hit.count,
                "query {qi} object {}",
                hit.id
            );
        }
    }

    let stats = service.stats();
    assert_eq!(stats.failed_requests, 0);
    assert_eq!(
        stats.shard_runs, 6,
        "one wave fans out to six shards: {stats:?}"
    );
    assert_eq!(
        stats.batches, stats.shard_runs,
        "one multi-query batch per shard run: {stats:?}"
    );
}

/// A service over `backends` deterministic CPU backends; every shard
/// run is dispatched to the whole fleet.
fn fleet_service(backends: usize) -> GenieService {
    let fleet: Vec<Arc<dyn genie_core::backend::SearchBackend>> = (0..backends)
        .map(|_| Arc::new(CpuBackend::new()) as Arc<dyn genie_core::backend::SearchBackend>)
        .collect();
    GenieService::start_empty(
        QueryScheduler::new(fleet, SchedulerConfig::default()),
        ServiceConfig {
            max_queue_delay: Duration::ZERO,
            compact_after: 0, // compactions are explicit here
            ..Default::default()
        },
    )
    .expect("service starts")
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

    /// A 3-shard collection on a 3-backend fleet under racing writes:
    /// interleave atomic mutation batches and synchronous compactions,
    /// with searcher threads hammering the collection throughout — the
    /// final state must equal a from-scratch rebuild over the surviving
    /// objects (under the stable-id → dense-id translation), and every
    /// concurrently served answer must respect the ordering contract.
    #[test]
    fn fleet_serving_races_mutations_and_compactions_and_equals_rebuild(
        ops in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..64, 0..3),
                proptest::collection::vec(proptest::collection::vec(0u32..20, 1..6), 0..3),
                0usize..4, // 0 = compact after this round's batch
            ),
            1..6,
        ),
    ) {
        let fleet = 3;
        let service = fleet_service(fleet);
        let corpus: Vec<Object> = (0..24u32)
            .map(|i| Object::new(vec![i % 7, 7 + i % 5, 19]))
            .collect();
        let cid = service
            .add_collection_sharded("raced", &index_of(&corpus), 3)
            .expect("registers");

        // searchers assert the ordering contract while writes land
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
                                "ordering contract violated mid-swap: {w:?}"
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
            .map(|(i, o)| (i as ObjectId, o.keywords.clone()))
            .collect();
        for (picks, inserts, action) in &ops {
            let mut deletes = Vec::new();
            for &p in picks {
                if live.len() <= 1 {
                    break;
                }
                deletes.push(live.remove(p % live.len()).0);
            }
            let objects: Vec<Object> = inserts.iter().map(|kw| Object::new(kw.clone())).collect();
            let ids = service
                .mutate_collection(cid, &deletes, objects, &mut |_, _| {})
                .expect("valid batch applies");
            for (id, kw) in ids.into_iter().zip(inserts) {
                live.push((id, kw.clone()));
            }
            if *action == 0 {
                service.compact_collection(cid).expect("compaction runs");
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

        // the mutated collection equals a from-scratch rebuild over
        // exactly the survivors
        let fresh = fleet_service(fleet);
        let survivors: Vec<Object> = live.iter().map(|(_, kw)| Object::new(kw.clone())).collect();
        let fresh_cid = fresh
            .add_collection_sharded("fresh", &index_of(&survivors), 3)
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

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

use std::sync::Arc;

use genie_core::backend::CpuBackend;
use genie_core::exec::Engine;
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{match_count, Object, Query, QueryItem};
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
            cache_capacity: 0, // answers must come from the index, not the cache
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
        // one awaited request = one wave = one group run (no cache)
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
/// shard count and invalidates exactly its own cache entries.
#[test]
fn sharded_swap_preserves_shards_and_invalidates_only_itself() {
    let before: Vec<Object> = (0..40).map(|i| Object::new(vec![i % 5])).collect();
    let after: Vec<Object> = (0..40).map(|i| Object::new(vec![i % 8])).collect();
    let service = GenieService::start_empty(
        QueryScheduler::single(Arc::new(CpuBackend::new())),
        ServiceConfig {
            max_queue_delay: std::time::Duration::from_micros(200),
            cache_capacity: 64,
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
    assert_eq!(resp.hits.len(), 5, "stale cached answer after swap");
    assert_eq!(resp.audit_threshold, 2, "AT = MC_5 + 1 = 2 on the new data");

    // the sibling's cached entry survived: served from cache, same bits
    let hits_before = service.stats().cache_hits;
    let again = service.submit_to(sibling, query, 5).wait().unwrap();
    assert_eq!(again.hits, sibling_answer.hits);
    assert_eq!(
        service.stats().cache_hits,
        hits_before + 1,
        "sibling entry must still be cached"
    );
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

/// Facade-level: sharded + cached serving on the new CPU counting
/// kernel is unchanged. Every answer routed through `GenieDb` — shard
/// fan-out, merge, result cache and all — must be bit-identical to the
/// seed dense reference path
/// ([`genie_core::backend::kernel::reference_search_one`]) decoded by
/// the same domain adapter, on the first (scheduler) and second
/// (cache-served) passes alike.
#[test]
fn facade_sharded_cached_serving_matches_the_seed_reference() {
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
            cache_capacity: 256,
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
    assert!(
        db.stats().cache_hits >= specs.len() as u64,
        "the second pass must be served from the cache: {:?}",
        db.stats()
    );

    let domain = col.domain();
    let kc = domain.candidates_for(k);
    for ((spec, f), s) in specs.iter().zip(&first).zip(&second) {
        let query = domain.encode(spec).expect("valid spec");
        let (hits, at) = kernel::reference_search_one(domain.index(), &query, kc);
        let expected = domain.decode(spec, hits, at, kc, k);
        assert_eq!(f.hits, expected.hits, "sharded facade vs seed reference");
        assert_eq!(f.audit_threshold, expected.audit_threshold);
        assert_eq!(f.hits, s.hits, "cached pass must be bit-identical");
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
            cache_capacity: 0,
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

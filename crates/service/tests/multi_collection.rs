//! Multi-collection serving: per-collection cache invalidation and
//! cross-wave backend health, under concurrency.
//!
//! The contract under test: one `GenieService` serves many collections
//! through one admission queue, and swapping one collection's index
//! invalidates exactly that collection's `(query, k)` cache entries —
//! its siblings keep their entries, their hit rates and their answers,
//! even while swaps and searches race.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use genie_core::backend::{BackendCaps, BackendIndex, BackendKind, CpuBackend, SearchBackend};
use genie_core::exec::SearchOutput;
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{Object, Query};
use genie_service::{GenieService, QueryScheduler, SchedulerConfig, ServiceConfig};

mod common;
use common::{serve, SlowCpu};

/// An index where keyword `kw` maps to objects `kw % modulus == id % modulus`
/// — shifted by `offset` so two builds are distinguishable.
fn index_shifted(n: u32, modulus: u32, offset: u32) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    for i in 0..n {
        b.add_object(&Object::new(vec![(i + offset) % modulus]));
    }
    Arc::new(b.build(None))
}

fn service() -> GenieService {
    GenieService::start_empty(
        QueryScheduler::new(
            vec![Arc::new(CpuBackend::new())],
            SchedulerConfig {
                max_batch_queries: 64,
                cpq_budget_bytes: None,
                ..Default::default()
            },
        ),
        ServiceConfig {
            max_queue_delay: Duration::from_micros(300),
            dispatchers: 1,
            cache_capacity: 256,
            ..Default::default()
        },
    )
    .expect("service starts")
}

#[test]
fn swapping_one_collection_invalidates_only_its_cache_entries() {
    let service = service();
    let a = service
        .add_collection("a", &index_shifted(40, 5, 0))
        .unwrap();
    let b = service
        .add_collection("b", &index_shifted(40, 7, 0))
        .unwrap();

    let qa = Query::from_keywords(&[1]);
    let qb = Query::from_keywords(&[2]);

    // prime both caches
    let a_before = service.submit_to(a, qa.clone(), 4).wait().unwrap();
    let b_before = service.submit_to(b, qb.clone(), 4).wait().unwrap();
    assert_eq!(service.stats().cache_hits, 0);

    // both repeats are cache hits
    let a_repeat = service.submit_to(a, qa.clone(), 4).wait().unwrap();
    let b_repeat = service.submit_to(b, qb.clone(), 4).wait().unwrap();
    assert_eq!(service.stats().cache_hits, 2);
    assert_eq!(a_repeat.hits, a_before.hits);
    assert_eq!(b_repeat.hits, b_before.hits);

    // swap A's index: keyword 1 now matches different objects
    service
        .swap_collection(a, &index_shifted(40, 5, 1))
        .unwrap();

    // B's entry survived: another repeat is a cache hit with the same
    // bits
    let b_after = service.submit_to(b, qb.clone(), 4).wait().unwrap();
    assert_eq!(service.stats().cache_hits, 3, "B kept its cache entry");
    assert_eq!(b_after.hits, b_before.hits);

    // A's entry is gone: the same query re-runs against the new index
    // (no new cache hit, new answer)
    let a_after = service.submit_to(a, qa.clone(), 4).wait().unwrap();
    assert_eq!(service.stats().cache_hits, 3, "A was invalidated");
    assert_ne!(
        a_after.hits, a_before.hits,
        "answers must reflect the swapped index"
    );
    // ids under the shifted index: keyword 1 matches ids with
    // (i + 1) % 5 == 1, i.e. i % 5 == 0
    assert!(a_after.hits.iter().all(|h| h.id % 5 == 0));
}

#[test]
fn concurrent_swaps_never_disturb_the_sibling_collection() {
    let service = Arc::new(service());
    let a = service
        .add_collection("swapped", &index_shifted(60, 6, 0))
        .unwrap();
    let b = service
        .add_collection("stable", &index_shifted(60, 11, 0))
        .unwrap();

    let qb = Query::from_keywords(&[3]);
    let b_expected = service.submit_to(b, qb.clone(), 5).wait().unwrap();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // swapper: keeps re-indexing collection A
        let svc = &service;
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut gen = 0u32;
            while !stop_ref.load(Ordering::Relaxed) {
                gen = (gen + 1) % 6;
                svc.swap_collection(a, &index_shifted(60, 6, gen)).unwrap();
            }
        });
        // searchers: hammer both collections from several threads
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let svc = &service;
                let qb = qb.clone();
                let b_expected = b_expected.hits.clone();
                scope.spawn(move || {
                    for i in 0..60 {
                        // B must always answer bit-identically: its
                        // cache entries and its index are untouched by
                        // A's swaps
                        let rb = svc.submit_to(b, qb.clone(), 5).wait().unwrap();
                        assert_eq!(rb.hits, b_expected, "thread {t} iter {i}");
                        // A must always answer *consistently with some
                        // shift* (never a torn mix of indexes)
                        let ra = svc
                            .submit_to(a, Query::from_keywords(&[2]), 5)
                            .wait()
                            .unwrap();
                        assert!(
                            !ra.hits.is_empty(),
                            "every shift leaves keyword 2 populated"
                        );
                        let shift_of = |id: u32| (2 + 6 - id % 6) % 6;
                        let s0 = shift_of(ra.hits[0].id);
                        assert!(
                            ra.hits.iter().all(|h| shift_of(h.id) == s0),
                            "torn answer across index generations: {:?}",
                            ra.hits
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let stats = service.stats();
    assert_eq!(stats.failed_requests, 0, "no request was ever failed");
    assert!(
        stats.cache_hits > 0,
        "the stable collection's repeats hit its surviving cache entries"
    );
}

/// A backend that panics on every batch — for the health accumulator.
struct AlwaysPanics;

impl SearchBackend for AlwaysPanics {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            name: "always-panics",
            kind: BackendKind::Host,
            devices: 1,
            memory_bytes: None,
            reports_sim_time: false,
        }
    }
    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        Ok(BackendIndex::new(index, 0.0, ()))
    }
    fn search_batch(&self, _index: &BackendIndex, _queries: &[Query], _k: usize) -> SearchOutput {
        panic!("injected failure");
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn backend_failures_accumulate_across_waves() {
    // the slow CPU peer guarantees the flaky worker pops (and panics
    // on) a batch per wave before the queue drains
    let index = index_shifted(4_000, 5, 0);
    let scheduler = QueryScheduler::new(
        vec![Arc::new(SlowCpu::new()), Arc::new(AlwaysPanics)],
        SchedulerConfig {
            max_batch_queries: 4,
            cpq_budget_bytes: None,
            ..Default::default()
        },
    );
    let (service, cid) = serve(
        scheduler,
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_micros(200),
            dispatchers: 1,
            cache_capacity: 0, // every request must reach the scheduler
            ..Default::default()
        },
    );

    // several separate waves; distinct per-request ks force many
    // micro-batches per wave, so the flaky worker reliably pops (and
    // panics on) at least one before the CPU worker drains the rest
    for wave in 0..4 {
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                service.submit_to(
                    cid,
                    Query::from_keywords(&[(wave * 8 + i) % 5]),
                    1 + i as usize,
                )
            })
            .collect();
        for t in tickets {
            t.wait().expect("CPU backend serves every batch");
        }
    }

    let health = service.backend_health();
    assert_eq!(health.len(), 2);
    let cpu = health.iter().find(|h| h.name == "cpu").unwrap();
    let flaky = health.iter().find(|h| h.name == "always-panics").unwrap();
    assert_eq!(flaky.batches, 0, "its batches always failed over");
    assert!(
        flaky.failed >= 2,
        "failures must accumulate across waves inside one service \
         lifetime, got {}",
        flaky.failed
    );
    assert!(flaky
        .last_error
        .as_deref()
        .unwrap()
        .contains("injected failure"));
    assert!(cpu.failed == 0 && cpu.queries >= 32);
}

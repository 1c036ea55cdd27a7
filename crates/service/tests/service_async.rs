//! Concurrency tests for the [`GenieService`] admission queue: multiple
//! submitter threads, both wave triggers, cache semantics, worker-panic
//! isolation, and timing-precision regressions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use genie_core::backend::{BackendCaps, BackendIndex, BackendKind, CpuBackend, SearchBackend};
use genie_core::exec::{Engine, SearchOutput};
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{Object, Query};
use genie_service::{QueryRequest, QueryScheduler, SchedulerConfig, ServiceConfig};
use gpu_sim::Device;

mod common;
use common::{serve, SlowCpu};

fn index_of_mod(n: u32, modulus: u32) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    for i in 0..n {
        b.add_object(&Object::new(vec![i % modulus, 100 + i % 5]));
    }
    Arc::new(b.build(None))
}

/// N submitter threads x M requests each: every ticket resolves, and
/// every response's counts/AT equal a monolithic CpuBackend run of the
/// same query. The aggregate wave accounting must show batching across
/// submitters (fewer batches than requests) and strictly positive
/// host/wall timings.
#[test]
fn n_submitters_m_requests_resolve_and_match_monolithic_run() {
    const N: usize = 6;
    const M: usize = 20;
    let index = index_of_mod(300, 37);

    // mixed fleet: simulated device + host path, one shared service
    let scheduler = QueryScheduler::new(
        vec![
            Arc::new(Engine::new(Arc::new(Device::with_defaults()))),
            Arc::new(CpuBackend::new()),
        ],
        SchedulerConfig::default(),
    );
    let (service, cid) = serve(
        scheduler,
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_millis(40),
            dispatchers: 1,
            cache_capacity: 0, // isolate batching behaviour from caching
            ..Default::default()
        },
    );

    let barrier = Barrier::new(N);
    let responses: Vec<(Query, usize, genie_service::QueryResponse)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|t| {
                    let service = &service;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let tickets: Vec<_> = (0..M)
                            .map(|j| {
                                let kw = ((t * M + j) % 37) as u32;
                                let query = Query::from_keywords(&[kw, 100 + (j % 5) as u32]);
                                let k = 3 + t % 2 * 4; // two distinct ks across the fleet
                                (query.clone(), k, service.submit_to(cid, query, k))
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|(q, k, ticket)| {
                                let resp = ticket.wait().expect("every ticket resolves");
                                (q, k, resp)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });

    assert_eq!(responses.len(), N * M);

    // monolithic reference: one CpuBackend, one search per request
    let cpu = CpuBackend::new();
    let bindex = SearchBackend::upload(&cpu, Arc::clone(&index)).unwrap();
    for (query, k, resp) in &responses {
        let expected = cpu.search_batch(&bindex, std::slice::from_ref(query), *k);
        let got: Vec<u32> = resp.hits.iter().map(|h| h.count).collect();
        let want: Vec<u32> = expected.results[0].iter().map(|h| h.count).collect();
        assert_eq!(got, want, "count profile for {query:?} k={k}");
        assert_eq!(resp.audit_threshold, expected.audit_thresholds[0]);
    }

    let stats = service.stats();
    assert_eq!(stats.served, (N * M) as u64);
    assert_eq!(stats.batched_requests, (N * M) as u64);
    assert!(
        stats.batches < (N * M) as u64,
        "requests from different submitters must share batches: {} batches for {} requests",
        stats.batches,
        N * M
    );
    // the timing-truncation regression: sub-ms waves must not report 0
    assert!(stats.wall_us > 0.0, "wave wall-clock must be positive");
    assert!(
        stats.stages.host_us > 0.0,
        "host stage time must be positive"
    );
}

/// A repeated `(query, k)` is answered from the result cache with
/// bit-identical hits; a different `k` for the same query is a miss.
#[test]
fn cache_hits_return_bit_identical_results() {
    let index = index_of_mod(120, 11);
    let (service, cid) = serve(
        QueryScheduler::single(Arc::new(CpuBackend::new())),
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_millis(5),
            dispatchers: 1,
            cache_capacity: 64,
            ..Default::default()
        },
    );

    let query = Query::from_keywords(&[4, 102]);
    let first = service.submit_to(cid, query.clone(), 5).wait().unwrap();
    let second = service.submit_to(cid, query.clone(), 5).wait().unwrap();
    assert_eq!(first.hits, second.hits, "cache must be bit-identical");
    assert_eq!(first.audit_threshold, second.audit_threshold);

    let different_k = service.submit_to(cid, query, 2).wait().unwrap();
    assert!(different_k.hits.len() <= 2);

    let stats = service.stats();
    assert_eq!(
        stats.cache_hits, 1,
        "same (query,k) once, different k is a miss"
    );
    assert_eq!(stats.served, 3);
}

/// Re-preparing the index invalidates the cache: a query answered
/// against the old index must be recomputed against the new one.
#[test]
fn swap_index_invalidates_the_cache() {
    let sparse = index_of_mod(60, 60); // keyword 7 matches exactly 1 object
    let dense = index_of_mod(60, 3); // keyword 7: no object (only 0,1,2 used)
    let (service, cid) = serve(
        QueryScheduler::single(Arc::new(CpuBackend::new())),
        &sparse,
        ServiceConfig {
            max_queue_delay: Duration::from_millis(5),
            dispatchers: 1,
            cache_capacity: 64,
            ..Default::default()
        },
    );

    let query = Query::from_keywords(&[7]);
    let before = service.submit_to(cid, query.clone(), 4).wait().unwrap();
    assert_eq!(before.hits.len(), 1);

    service.swap_collection(cid, &dense).unwrap();
    let after = service.submit_to(cid, query, 4).wait().unwrap();
    assert!(
        after.hits.is_empty(),
        "stale cached answer served after re-prepare: {:?}",
        after.hits
    );
    assert_eq!(service.stats().cache_hits, 0);
}

/// Deadline trigger: a lone request (far from filling any batch) is
/// served once it ages past `max_queue_delay`, not stranded.
#[test]
fn deadline_trigger_serves_a_lone_request() {
    let index = index_of_mod(80, 13);
    let delay = Duration::from_millis(50);
    let (service, cid) = serve(
        QueryScheduler::single(Arc::new(CpuBackend::new())),
        &index,
        ServiceConfig {
            max_queue_delay: delay,
            dispatchers: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    );

    let started = Instant::now();
    let ticket = service.submit_to(cid, Query::from_keywords(&[3]), 4);
    let resp = ticket
        .wait_timeout(Duration::from_secs(5))
        .expect("lone request must not be stranded")
        .unwrap();
    let waited = started.elapsed();
    assert!(!resp.hits.is_empty());
    assert!(
        waited >= delay - Duration::from_millis(2),
        "served before its deadline could have fired: {waited:?}"
    );
    let stats = service.stats();
    assert_eq!(stats.deadline_triggers, 1);
    assert_eq!(stats.size_triggers, 0);
}

/// Size trigger: once a k-group can fill `max_batch_queries`, the wave
/// is cut immediately — long before a (deliberately huge) deadline.
#[test]
fn size_trigger_cuts_a_full_batch_before_the_deadline() {
    let index = index_of_mod(80, 13);
    let cap = 8usize;
    let (service, cid) = serve(
        QueryScheduler::new(
            vec![Arc::new(CpuBackend::new())],
            SchedulerConfig {
                max_batch_queries: cap,
                cpq_budget_bytes: None,
                ..Default::default()
            },
        ),
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_secs(600), // deadline can't be the trigger
            dispatchers: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    );

    let tickets: Vec<_> = (0..cap)
        .map(|i| service.submit_to(cid, Query::from_keywords(&[i as u32 % 13]), 5))
        .collect();
    for ticket in tickets {
        let resolved = ticket.wait_timeout(Duration::from_secs(5));
        assert!(
            resolved.is_some(),
            "size trigger did not fire: ticket still pending under a 10-minute deadline"
        );
        resolved.unwrap().unwrap();
    }
    let stats = service.stats();
    assert!(stats.size_triggers >= 1, "stats: {stats:?}");
    assert_eq!(stats.deadline_triggers, 0);
}

/// A backend whose `search_batch` panics (optionally only the first
/// `healthy_after` calls).
struct PanickyBackend {
    calls: AtomicUsize,
    healthy_after: usize,
}

impl PanickyBackend {
    fn always() -> Self {
        Self {
            calls: AtomicUsize::new(0),
            healthy_after: usize::MAX,
        }
    }
}

impl SearchBackend for PanickyBackend {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            name: "panicky",
            kind: BackendKind::Host,
            devices: 1,
            memory_bytes: None,
            reports_sim_time: false,
        }
    }

    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        // delegate: the healthy phase serves through a CpuBackend, which
        // needs its scratch-pool payload on the prepared index
        SearchBackend::upload(&CpuBackend::new(), index)
    }

    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.healthy_after {
            panic!("simulated backend crash");
        }
        CpuBackend::new().search_batch(index, queries, k)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A worker panic must not poison the wave: its batch fails over to the
/// surviving backend, every request is still answered, and the report
/// names the failed backend.
#[test]
fn worker_panic_fails_over_to_surviving_backends() {
    let index = index_of_mod(100, 13);
    let scheduler = QueryScheduler::new(
        vec![Arc::new(PanickyBackend::always()), Arc::new(SlowCpu::new())],
        SchedulerConfig {
            max_batch_queries: 4,
            cpq_budget_bytes: None,
            ..Default::default()
        },
    );
    let requests: Vec<QueryRequest> = (0..16)
        .map(|i| QueryRequest::new(i, Query::from_keywords(&[i as u32 % 13]), 3))
        .collect();
    let (responses, report) = scheduler.run(&index, &requests).unwrap();
    assert_eq!(responses.len(), 16);
    assert!(responses.iter().all(|r| !r.hits.is_empty()));

    let panicky = report
        .per_backend
        .iter()
        .find(|u| u.name == "panicky")
        .unwrap();
    assert_eq!(
        panicky.failed.as_deref(),
        Some("simulated backend crash"),
        "failed backend must be reported with its panic message"
    );
    let cpu = report.per_backend.iter().find(|u| u.name == "cpu").unwrap();
    assert!(cpu.failed.is_none());
    assert_eq!(cpu.queries, 16, "the healthy backend served the whole wave");
}

/// With no surviving backend the wave fails with an error naming the
/// panic — instead of the old behaviour of killing the caller's thread.
#[test]
fn all_backends_panicking_is_an_error_not_a_poisoned_wave() {
    let index = index_of_mod(40, 7);
    let scheduler = QueryScheduler::single(Arc::new(PanickyBackend::always()));
    let requests = vec![QueryRequest::new(0, Query::from_keywords(&[1]), 3)];
    let err = scheduler.run(&index, &requests).unwrap_err();
    assert!(err.contains("unserved"), "{err}");
    assert!(err.contains("simulated backend crash"), "{err}");
}

/// End to end through the service: a panicking fleet member is
/// transparent to clients.
#[test]
fn service_survives_a_panicking_fleet_member() {
    let index = index_of_mod(100, 13);
    let scheduler = QueryScheduler::new(
        vec![
            Arc::new(PanickyBackend::always()),
            Arc::new(CpuBackend::new()),
        ],
        SchedulerConfig::default(),
    );
    let (service, cid) = serve(
        scheduler,
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_millis(20),
            dispatchers: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let tickets: Vec<_> = (0..10)
        .map(|i| service.submit_to(cid, Query::from_keywords(&[i % 13]), 3))
        .collect();
    for ticket in tickets {
        let resp = ticket.wait().expect("failover keeps clients whole");
        assert!(!resp.hits.is_empty());
    }
    assert_eq!(service.stats().failed_waves, 0);
}

/// Circuit breaker: a backend that keeps panicking is retired after
/// `failure_threshold` failing runs and stops being handed batches —
/// its failure count freezes while the healthy peer keeps serving.
#[test]
fn circuit_breaker_retires_a_repeatedly_failing_backend() {
    let index = index_of_mod(100, 13);
    let scheduler = QueryScheduler::new(
        vec![Arc::new(PanickyBackend::always()), Arc::new(SlowCpu::new())],
        SchedulerConfig {
            // one query per batch: a wave of 8 requests is 8 batches,
            // so the panicky worker always gets to grab (and drop) one
            // while the slow peer sleeps
            max_batch_queries: 1,
            cpq_budget_bytes: None,
            ..Default::default()
        },
    );
    let (service, cid) = serve(
        scheduler,
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_millis(2),
            cache_capacity: 0,
            failure_threshold: 2,
            probe_after_runs: 1_000_000, // no probe during this test
            ..Default::default()
        },
    );

    for round in 0..12u32 {
        let tickets: Vec<_> = (0..8)
            .map(|i| service.submit_to(cid, Query::from_keywords(&[(round * 8 + i) % 13]), 3))
            .collect();
        for t in tickets {
            assert!(!t
                .wait()
                .expect("failover keeps clients whole")
                .hits
                .is_empty());
        }
    }

    let health = service.backend_health();
    let panicky = health.iter().find(|h| h.name == "panicky").unwrap();
    let cpu = health.iter().find(|h| h.name == "cpu").unwrap();
    assert!(panicky.retired, "threshold reached: must be retired");
    assert_eq!(
        panicky.failed, 2,
        "a retired backend is masked out, so its failure count freezes at the threshold"
    );
    assert_eq!(panicky.probes, 0, "probe interval was out of reach");
    assert!(!cpu.retired);
    assert!(cpu.queries >= 12 * 8 - 2, "cpu served (almost) everything");
    assert_eq!(service.stats().failed_waves, 0, "clients never noticed");
}

/// Re-admission probes: a backend that recovers after its first crashes
/// is probed while retired and rejoins the fleet once a probe run
/// passes without a failure.
#[test]
fn probe_readmits_a_recovered_backend() {
    let index = index_of_mod(100, 13);
    let flaky = Arc::new(PanickyBackend {
        calls: AtomicUsize::new(0),
        healthy_after: 2, // crashes twice, healthy from the third call on
    });
    let scheduler = QueryScheduler::new(
        vec![flaky, Arc::new(SlowCpu::new())],
        SchedulerConfig {
            max_batch_queries: 1,
            cpq_budget_bytes: None,
            ..Default::default()
        },
    );
    let (service, cid) = serve(
        scheduler,
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_millis(2),
            cache_capacity: 0,
            failure_threshold: 1, // first crash retires it
            probe_after_runs: 2,  // probed every other run
            ..Default::default()
        },
    );

    // keep serving waves until the breaker has walked the whole cycle:
    // retire -> failing probe (stays retired) -> passing probe -> back
    let mut recovered = false;
    for round in 0..40u32 {
        let tickets: Vec<_> = (0..8)
            .map(|i| service.submit_to(cid, Query::from_keywords(&[(round * 8 + i) % 13]), 3))
            .collect();
        for t in tickets {
            t.wait().expect("every ticket resolves");
        }
        let h = service.backend_health();
        let flaky = h.iter().find(|h| h.name == "panicky").unwrap();
        if !flaky.retired && flaky.probes >= 1 && flaky.failed >= 2 {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "recovered backend was never re-admitted");
    let health = service.backend_health();
    let flaky = health.iter().find(|h| h.name == "panicky").unwrap();
    assert_eq!(flaky.failed, 2, "exactly the two scripted crashes");
    assert!(
        flaky.probes >= 2,
        "the first probe fails (second scripted crash), a later one passes"
    );
}

/// Misconfiguration fails at construction, not at serve time.
#[test]
#[should_panic(expected = "max_batch_queries")]
fn zero_batch_cap_fails_at_scheduler_construction() {
    let _ = QueryScheduler::new(
        vec![Arc::new(CpuBackend::new())],
        SchedulerConfig {
            max_batch_queries: 0,
            cpq_budget_bytes: None,
            ..Default::default()
        },
    );
}

/// Dropping the service flushes queued requests instead of stranding
/// their tickets.
#[test]
fn shutdown_flushes_queued_requests() {
    let index = index_of_mod(60, 7);
    let (service, cid) = serve(
        QueryScheduler::single(Arc::new(CpuBackend::new())),
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_secs(600),
            dispatchers: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    // far below the size trigger, far before the deadline
    let tickets: Vec<_> = (0..3)
        .map(|i| service.submit_to(cid, Query::from_keywords(&[i % 7]), 2))
        .collect();
    drop(service); // graceful shutdown = final flush wave
    for ticket in tickets {
        let resp = ticket.wait().expect("shutdown must flush, not strand");
        assert!(!resp.hits.is_empty());
    }
}

/// `wait_timeout(Duration::ZERO)` is the non-blocking poll: `None`
/// while the request waits for its wave, the response once the
/// shutdown flush has served it.
#[test]
fn zero_timeout_polls_a_ticket_until_the_shutdown_flush_serves_it() {
    let index = index_of_mod(60, 7);
    let (service, cid) = serve(
        QueryScheduler::single(Arc::new(CpuBackend::new())),
        &index,
        ServiceConfig {
            max_queue_delay: Duration::from_secs(600),
            dispatchers: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    // one request: far below the size trigger, far before the deadline
    let ticket = service.submit_to(cid, Query::from_keywords(&[3]), 2);
    assert!(
        ticket.wait_timeout(Duration::ZERO).is_none(),
        "served before any trigger could fire"
    );
    drop(service); // the final flush answers before the dispatchers join
    let resp = ticket
        .wait_timeout(Duration::ZERO)
        .expect("the shutdown flush served the request")
        .expect("the flush wave succeeds");
    assert!(!resp.hits.is_empty());
}

//! The serving-workload runner: concurrent submitter threads driving a
//! [`GenieService`], reporting request-latency percentiles (p50/p95/
//! p99) and achieved batch occupancy as `max_queue_delay` varies.
//!
//! Where [`runners`](crate::runners) measures one pre-collected batch,
//! this module measures the *always-on* path: requests trickle in from
//! client threads, the admission queue accumulates them, and waves are
//! cut by the size/deadline triggers. The figure of merit is the
//! latency a client actually observes (submit → ticket resolution) and
//! how full the executed micro-batches were.
//!
//! Raw latencies are deliberately *not* gated — they are host property,
//! recorded for trend reading only. What is gated is completeness, the
//! triggers and cache a baseline row shows firing, and batch occupancy
//! (floor 0.4: wave cuts on a loaded host shift occupancy, but losing
//! batching altogether drops it to ~1).

use std::sync::Arc;
use std::time::Duration;

use genie_core::backend::kernel::KernelStatsSnapshot;
use genie_core::backend::CpuBackend;
use genie_core::model::Query;
use genie_service::{GenieService, QueryScheduler, SchedulerConfig, ServiceConfig, ServiceStats};

use crate::check::field;
use crate::harness::{Band, Bench, Cell, Col, Ctx, Invariant, Latency, Mode, Run, Section, Table};
use crate::json::Json;
use crate::workloads::{index_of, sift_bundle, MatchData, Scale};

/// One serving run's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServingWorkload {
    /// Concurrent submitter threads.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Per-client pause between submissions (the arrival process; zero
    /// = closed-loop flood).
    pub submit_pacing: Duration,
    /// Deadline trigger of the service under test.
    pub max_queue_delay: Duration,
    /// Batch cap of the wrapped scheduler (size trigger fires when a
    /// `k`-group can fill this).
    pub max_batch_queries: usize,
    /// Result-cache entries (0 disables).
    pub cache_capacity: usize,
    /// `k` every client asks for.
    pub k: usize,
    /// Index shards the collection is split across (1 = unsharded; >1
    /// fans every wave out to one scheduler run per shard and merges).
    pub shards: usize,
    /// Hot-key mix: every `hot_every`-th request of each client re-asks
    /// the pool's first query (0 disables). With a nonzero
    /// `cache_capacity` this is what makes the result cache — and its
    /// `cache_hits` counter — actually exercise in a baseline run.
    pub hot_every: usize,
}

impl Default for ServingWorkload {
    fn default() -> Self {
        Self {
            clients: 8,
            requests_per_client: 64,
            submit_pacing: Duration::ZERO,
            max_queue_delay: Duration::from_millis(2),
            max_batch_queries: 256,
            cache_capacity: 0,
            k: 10,
            shards: 1,
            hot_every: 0,
        }
    }
}

/// What one serving run measured.
#[derive(Debug, Clone)]
pub struct ServingReport {
    pub total_requests: usize,
    /// Client-observed submit→response latency, µs.
    pub latency: Latency,
    /// Mean queries per executed micro-batch.
    pub batch_occupancy: f64,
    /// The service's aggregate counters at shutdown.
    pub stats: ServiceStats,
    /// The CPU backend's kernel-decision counters for this run (sparse
    /// vs dense finalisation, intra-query parallel queries).
    pub kernel: KernelStatsSnapshot,
}

/// Run `workload` over `data` on a single [`CpuBackend`] service and
/// measure client-observed latency.
pub fn run_serving_workload(data: &MatchData, workload: ServingWorkload) -> ServingReport {
    let index = index_of(&data.objects);
    let backend = Arc::new(CpuBackend::new());
    let scheduler = QueryScheduler::new(
        vec![Arc::clone(&backend) as Arc<dyn genie_core::backend::SearchBackend>],
        SchedulerConfig {
            max_batch_queries: workload.max_batch_queries,
            cpq_budget_bytes: None,
            ..Default::default()
        },
    );
    let service = GenieService::start_empty(
        scheduler,
        ServiceConfig {
            max_queue_delay: workload.max_queue_delay,
            dispatchers: 1,
            cache_capacity: workload.cache_capacity,
            ..Default::default()
        },
    )
    .expect("config is valid");
    let collection = service
        .add_collection_sharded("bench", &index, workload.shards.max(1))
        .expect("host index always fits");

    // open loop: each client is a submitter thread (paced schedule,
    // piling requests into the admission queue) plus a waiter thread
    // resolving its tickets as responses arrive — so a ticket's latency
    // is submit → client-observed response, not submit → end-of-schedule
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..workload.clients)
            .map(|c| {
                let service = &service;
                let queries = &data.queries;
                let (tx, rx) = std::sync::mpsc::channel();
                scope.spawn(move || {
                    for j in 0..workload.requests_per_client {
                        let query: Query = if workload.hot_every > 0 && j % workload.hot_every == 0
                        {
                            queries[0].clone()
                        } else {
                            queries[(c * workload.requests_per_client + j) % queries.len()].clone()
                        };
                        let _ = tx.send(service.submit_to(collection, query, workload.k));
                        if !workload.submit_pacing.is_zero() {
                            std::thread::sleep(workload.submit_pacing);
                        }
                    }
                });
                scope.spawn(move || {
                    rx.iter()
                        .map(|ticket| {
                            let submitted = ticket.submitted_at();
                            ticket.wait().expect("serving loop answers every ticket");
                            submitted.elapsed().as_secs_f64() * 1e6
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        waiters
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let stats = service.stats();
    drop(service);
    // the timing-truncation regression, live on every run
    assert!(
        stats.wall_us > 0.0 && stats.stages.host_us > 0.0,
        "host/wall timings must be strictly positive: {stats:?}"
    );

    ServingReport {
        total_requests: latencies.len(),
        latency: Latency::of(latencies),
        batch_occupancy: stats.mean_batch_occupancy(),
        stats,
        kernel: backend.kernel_stats(),
    }
}

/// The one serving row schema: every sweep and the smoke share it, led
/// by the field naming the sweep point.
const COLS: &[Col<ServingReport>] = &[
    Col::json("requests", |r| r.total_requests.into()),
    Col::shown("p50_us", "p50(ms)", Cell::Ms, |r| r.latency.p50_us.into()),
    Col::shown("p95_us", "p95(ms)", Cell::Ms, |r| r.latency.p95_us.into()),
    Col::shown("p99_us", "p99(ms)", Cell::Ms, |r| r.latency.p99_us.into()),
    Col::shown("batch_occupancy", "occupancy", Cell::Fixed1, |r| {
        r.batch_occupancy.into()
    }),
    Col::shown("waves", "waves", Cell::Plain, |r| r.stats.waves.into()),
    Col::shown("size_triggers", "size", Cell::Plain, |r| {
        r.stats.size_triggers.into()
    }),
    Col::shown("deadline_triggers", "deadline", Cell::Plain, |r| {
        r.stats.deadline_triggers.into()
    }),
    Col::shown("shard_runs", "shard runs", Cell::Plain, |r| {
        r.stats.shard_runs.into()
    }),
    Col::shown("cache_hits", "cache hits", Cell::Plain, |r| {
        r.stats.cache_hits.into()
    }),
    Col::json("predicted_cost_us", |r| r.stats.predicted_cost_us.into()),
    Col::json("actual_cost_us", |r| r.stats.actual_cost_us.into()),
    Col::json("kernel_sparse_finalize", |r| {
        r.kernel.sparse_finalize.into()
    }),
    Col::json("kernel_dense_finalize", |r| r.kernel.dense_finalize.into()),
    Col::json("kernel_parallel_queries", |r| {
        r.kernel.parallel_queries.into()
    }),
];

const fn table(key: &'static str, title: &'static str) -> Table<ServingReport> {
    let id = Some((key, title, 11));
    Table { id, cols: COLS }
}

/// The paced delay-sweep shape: the deadline knob trades per-request
/// latency against batch occupancy (a flood would fill one wave
/// regardless of the delay).
fn delay_workload(delay_ms: u64) -> ServingWorkload {
    ServingWorkload {
        max_queue_delay: Duration::from_millis(delay_ms),
        submit_pacing: Duration::from_micros(300),
        ..Default::default()
    }
}

fn shard_workload(shards: u64) -> ServingWorkload {
    ServingWorkload {
        shards: shards as usize,
        submit_pacing: Duration::from_micros(300),
        ..Default::default()
    }
}

/// The burst phase: a fast trickle against a small batch cap under a
/// generous deadline, with the result cache on and a hot-key mix (every
/// `100 / hot_percent`-th request re-asks one query). This is the shape
/// that exercises the *size* trigger (arrivals fill same-`k` groups to
/// the 32-cap long before the 20 ms deadline) and the result cache in
/// the checked-in baseline — both counters were permanently zero under
/// the paced sweeps above. The pacing is slight but deliberately
/// nonzero: the cache is consulted when a wave is *cut*, so a pure
/// closed-loop flood lands every request in wave 1 before anything is
/// cached and can never hit; a 200 µs trickle spreads the run across
/// many size-cut waves, and hot keys re-asked after their first wave
/// resolve from the cache.
fn burst_workload(hot_percent: u64) -> ServingWorkload {
    ServingWorkload {
        submit_pacing: Duration::from_micros(200),
        max_batch_queries: 32,
        max_queue_delay: Duration::from_millis(20),
        cache_capacity: 256,
        hot_every: if hot_percent == 0 {
            0
        } else {
            100 / hot_percent as usize
        },
        ..Default::default()
    }
}

/// The dataset every serving phase (and check trial) runs over.
fn serving_data(n: usize, num_queries: usize) -> MatchData {
    sift_bundle(Scale { n, num_queries }, 8, 77).0
}

/// `--serving`: latency and occupancy as `max_queue_delay` sweeps — the
/// batching-vs-latency trade-off the admission queue exists to expose —
/// then across shard counts, then the hot-key burst phase.
fn setup(ctx: &Ctx) -> crate::harness::Trial {
    // `--quick` numbers are not comparable with the checked-in
    // full-scale baseline; the document records which it was
    let quick = ctx.mode == Mode::Quick;
    let data = serving_data(if quick { 2_000 } else { 5_000 }, 256);
    Box::new(move || {
        let sweep = |title: &str,
                     table: Table<ServingReport>,
                     points: &[u64],
                     workload: fn(u64) -> ServingWorkload| {
            println!("\n--- {title} ---");
            table.header();
            let rows = points
                .iter()
                .map(|&point| table.row(point, &run_serving_workload(&data, workload(point))));
            Json::Arr(rows.collect())
        };
        let delay = sweep(
            "request latency vs max_queue_delay",
            table("delay_ms", "delay(ms)"),
            &[1, 2, 5, 10],
            delay_workload,
        );
        let shard = sweep(
            "request latency vs shard count",
            table("shards", "shards"),
            &[1, 2, 4, 8],
            shard_workload,
        );
        let burst = sweep(
            "hot-key burst: size trigger + result cache",
            table("hot_percent", "hot(%)"),
            &[0, 25, 50],
            burst_workload,
        );
        let shape = ServingWorkload::default();
        Run {
            head: vec![
                ("n", data.objects.len().into()),
                ("query_pool", data.queries.len().into()),
                ("quick", quick.into()),
            ],
            body: vec![
                ("clients", shape.clients.into()),
                ("requests_per_client", shape.requests_per_client.into()),
                ("delay_sweep", delay),
                ("shard_sweep", shard),
                ("burst_sweep", burst),
            ],
        }
    })
}

const ALL_TICKETS_RESOLVED: Invariant = Invariant::new("all_tickets_resolved", |row, doc| {
    field(row, "requests") == field(doc, "clients") * field(doc, "requests_per_client")
});
const SIZE_TRIGGERS: Invariant = Invariant::new("size_triggers_nonzero", |row, _| {
    field(row, "size_triggers") > 0.0
});
const CACHE_HITS: Invariant = Invariant::new("cache_hits_nonzero", |row, _| {
    field(row, "cache_hits") > 0.0
});
const OCCUPANCY: Band = Band {
    name: "batch_occupancy",
    value: |row| field(row, "batch_occupancy"),
    floor: |_, _| 0.4,
};

const fn sweep_section(key: &'static str, invariants: &'static [Invariant]) -> Section {
    Section {
        at: Some(key),
        name: "",
        invariants,
        bands: &[OCCUPANCY],
    }
}

/// The paced sweeps fire the size trigger and the cache only by
/// accident of timing: gate them where the reference row shows them.
const PACED: &[Invariant] = &[
    ALL_TICKETS_RESOLVED,
    SIZE_TRIGGERS.when(|shown| field(shown, "size_triggers") > 0.0),
    CACHE_HITS.when(|shown| field(shown, "cache_hits") > 0.0),
];
const SECTIONS: &[Section] = &[
    sweep_section("delay_sweep", PACED),
    sweep_section("shard_sweep", PACED),
    // the whole point of the burst phase: the baseline must show the
    // size trigger firing on every row and the cache on every hot one
    sweep_section(
        "burst_sweep",
        &[
            ALL_TICKETS_RESOLVED,
            SIZE_TRIGGERS,
            CACHE_HITS.when(|shown| {
                field(shown, "hot_percent") > 0.0 || field(shown, "cache_hits") > 0.0
            }),
        ],
    ),
];

/// The two smoke phases, by row name. Flood: a closed-loop burst against
/// a tiny batch cap under a deadline generous enough that size triggers
/// fire first, small enough that a sub-cap tail can't stall CI for
/// long. Trickle: paced far below the batch cap, so only the deadline
/// can cut.
fn smoke_workloads(shards: usize) -> [(&'static str, ServingWorkload); 2] {
    let flood = ServingWorkload {
        clients: 4,
        requests_per_client: 16,
        max_batch_queries: 8,
        max_queue_delay: Duration::from_millis(300),
        shards,
        ..Default::default()
    };
    let trickle = ServingWorkload {
        clients: 2,
        requests_per_client: 4,
        submit_pacing: Duration::from_millis(8),
        max_batch_queries: 1024,
        max_queue_delay: Duration::from_millis(2),
        shards,
        ..Default::default()
    };
    [("flood", flood), ("trickle", trickle)]
}

/// `--serving-smoke`: a tiny dataset driven through the live serving
/// loop with *both* triggers provably exercised, over `--shards N` index
/// shards (`> 1` drives the sharded fan-out + merge dispatcher path).
fn smoke_setup(ctx: &Ctx) -> crate::harness::Trial {
    let shards = ctx.shards;
    let data = serving_data(400, 64);
    Box::new(move || {
        let table = table("name", "phase");
        table.header();
        let rows = smoke_workloads(shards)
            .map(|(name, workload)| table.row(name, &run_serving_workload(&data, workload)));
        Run {
            head: vec![
                ("smoke", true.into()),
                ("shards", shards.into()),
                ("n", data.objects.len().into()),
                ("query_pool", data.queries.len().into()),
            ],
            body: vec![("rows", Json::Arr(rows.into()))],
        }
    })
}

fn phase_is(row: &Json, name: &str) -> bool {
    row.get("name").and_then(Json::as_str) == Some(name)
}

const SMOKE_SECTIONS: &[Section] = &[Section {
    at: Some("rows"),
    name: "",
    invariants: &[
        Invariant::new("all_tickets_resolved", |row, _| {
            smoke_workloads(1).iter().any(|(name, w)| {
                let expected = (w.clients * w.requests_per_client) as f64;
                phase_is(row, name) && field(row, "requests") == expected
            })
        }),
        Invariant::new("size_trigger_fired", |row, _| {
            field(row, "size_triggers") >= 1.0
        })
        .when(|row| phase_is(row, "flood")),
        Invariant::new("deadline_trigger_fired", |row, _| {
            field(row, "deadline_triggers") >= 1.0
        })
        .when(|row| phase_is(row, "trickle")),
        // every wave must fan out to one scheduler run per shard
        Invariant::new("waves_fan_out_per_shard", |row, doc| {
            let shards = field(doc, "shards");
            shards <= 1.0 || field(row, "shard_runs") >= field(row, "waves") * shards
        }),
        Invariant::new("latency_positive", |row, _| field(row, "p50_us") > 0.0),
    ],
    bands: &[],
}];

pub const BENCH: Bench = Bench {
    name: "serving",
    flag: "--serving",
    in_all: true,
    // a check always runs the baseline's scale: quick numbers have
    // nothing checked in to compare against
    mode: |flags| {
        if flags.has("--quick") && !flags.has("--check") {
            Mode::Quick
        } else {
            Mode::Full
        }
    },
    trials: |_| 3,
    sections: |_| SECTIONS,
    setup,
};

/// Deliberately not part of `--all`: a fixed-size CI gate. Its check
/// audits the same checked-in `BENCH_serving.json` as [`BENCH`]'s.
pub const SMOKE_BENCH: Bench = Bench {
    name: "serving",
    flag: "--serving-smoke",
    in_all: false,
    mode: |_| Mode::Smoke,
    trials: |_| 1,
    sections: |mode| match mode {
        Mode::Smoke => SMOKE_SECTIONS,
        _ => SECTIONS,
    },
    setup: smoke_setup,
};

#[cfg(test)]
mod tests {
    use super::*;
    use genie_service::percentile_us;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_us(&s, 0.50), 51.0);
        assert_eq!(percentile_us(&s, 0.95), 95.0);
        assert_eq!(percentile_us(&s, 0.99), 99.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn serving_workload_resolves_every_ticket_with_batching() {
        let (data, _) = sift_bundle(
            Scale {
                n: 300,
                num_queries: 32,
            },
            8,
            9,
        );
        let report = run_serving_workload(
            &data,
            ServingWorkload {
                clients: 4,
                requests_per_client: 8,
                max_queue_delay: Duration::from_millis(20),
                max_batch_queries: 256,
                ..Default::default()
            },
        );
        assert_eq!(report.total_requests, 32);
        assert!(report.latency.p50_us > 0.0 && report.latency.p99_us >= report.latency.p50_us);
        assert!(
            report.stats.batches < 32,
            "closed-loop flood must batch across clients: {:?}",
            report.stats
        );
        assert!(report.batch_occupancy > 1.0);
    }
}

//! The skew-aware placement workload: a heterogeneous fleet (one
//! full-speed CPU backend plus two artificially throttled "sim"
//! devices) serves a skewed corpus where one shard owns nearly all the
//! scanned postings. Static broadcast dispatch drags every wave down
//! to the slowest device; the placement loop — online per-backend cost
//! model, hot-shard detection, background rebalancing — learns the
//! fleet asymmetry from served traffic alone and converges request
//! p95 down by routing shards off the throttled devices.
//!
//! As with the other service benches, raw microseconds are recorded
//! for trend reading but never gated; the invariants are dimensionless
//! indicators (every request resolved, answers identical to broadcast,
//! the detector and rebalancer fired, the cost model separated the
//! fleet, placed p95 beat broadcast p95) that hold on any host — the
//! ~1.5 ms/query throttle dwarfs host noise by design, which is also why
//! the smoke workload can be checked against the full-scale baseline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_core::backend::{BackendCaps, BackendIndex, CpuBackend, SearchBackend};
use genie_core::exec::SearchOutput;
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{Object, Query};
use genie_service::{
    BackendHealth, CollectionId, GenieService, QueryScheduler, SchedulerConfig, ServiceConfig,
    ServiceStats,
};

use crate::check::{field, flag};
use crate::harness::{Bench, Cell, Col, Ctx, Invariant, Mode, Run, Section, Table};
use crate::json::Json;
use crate::ms;

/// The keyword carried by every hot-shard object (and by ~80% of the
/// query stream): all of its postings live in shard 0.
const HOT_KEYWORD: u32 = 0;

/// A [`CpuBackend`] throttled to a fixed per-query latency — a stand-in
/// for a congested or simply slower device in a heterogeneous fleet.
/// Results are exactly the CPU backend's (the throttle is pure sleep),
/// so any placement over this fleet answers identically; only the
/// latency differs, which is the property the bench isolates.
pub struct ThrottledSim {
    inner: CpuBackend,
    per_query: Duration,
}

impl ThrottledSim {
    pub fn new(per_query: Duration) -> Self {
        Self {
            inner: CpuBackend::new(),
            per_query,
        }
    }
}

impl SearchBackend for ThrottledSim {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            name: "sim-throttled",
            ..self.inner.capabilities()
        }
    }
    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        self.inner.upload(index)
    }
    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        std::thread::sleep(self.per_query * queries.len() as u32);
        self.inner.search_batch(index, queries, k)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One placement run's shape.
#[derive(Debug, Clone, Copy)]
pub struct PlacementWorkload {
    /// Corpus size; split contiguously across `shards`, with every
    /// object of shard 0 carrying `HOT_KEYWORD`.
    pub objects: usize,
    pub shards: usize,
    /// Requests per dispatch wave (each wave is one group run, i.e.
    /// one sample in the hot-shard detector's sliding window).
    pub wave_size: usize,
    /// Warm-up waves driven before the measured phase (broadcast) /
    /// before convergence polling starts (placed).
    pub warmup_waves: usize,
    /// Requests in the measured phase of each scenario.
    pub measured_requests: usize,
    /// Waves per recorded convergence phase of the placed scenario.
    pub phase_waves: usize,
    /// Convergence phases driven before giving up.
    pub max_phases: usize,
    pub k: usize,
    /// The sim devices' per-query throttle.
    pub throttle_us: u64,
    /// Hot-shard detector window (group runs) for the placed scenario.
    pub rebalance_window: usize,
    /// Postings-share threshold beyond which a shard is hot.
    pub skew_threshold: f64,
}

/// The latency summary of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50_us: f64,
    pub p95_us: f64,
}

impl Latency {
    /// The p50 and p95 of `samples_us` (order irrelevant), as
    /// `percentile_us` defines them.
    pub fn of(mut samples_us: Vec<f64>) -> Self {
        samples_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Self {
            p50_us: percentile_us(&samples_us, 0.50),
            p95_us: percentile_us(&samples_us, 0.95),
        }
    }
}

/// The `p`-quantile of an ascending-sorted latency sample: the sample
/// at index `round((N - 1) * p)` (0 for an empty sample). That is the
/// linearly interpolated rank rounded to a sample, not the nearest
/// rank `ceil(N * p)`: p50 of `1..=100` is 51, not 50.
fn percentile_us(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// What one placement run measured.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// Measured-phase latency under static broadcast dispatch.
    pub broadcast: Latency,
    /// Measured-phase latency on the converged plan.
    pub placed: Latency,
    /// p95 of each convergence phase of the placed scenario, in order —
    /// the "p95 converges down" trajectory.
    pub phase_p95_us: Vec<f64>,
    pub expected: usize,
    pub resolved: usize,
    /// Placed answers equal broadcast answers (ids, counts, `AT`) on a
    /// query sample.
    pub answers_identical: bool,
    /// The background rebalancer applied at least one plan.
    pub rebalance_fired: bool,
    /// Every throttled backend's learned per-query cost (priced at the
    /// collection's representative postings volume) exceeds the CPU
    /// backend's — the online model separated the fleet.
    pub cost_model_learned: bool,
    /// The final plan routes no shard to a throttled backend.
    pub converged: bool,
    /// Final placement (per base shard, assigned backend indexes).
    pub placement: Vec<Vec<usize>>,
    /// The placed service's per-backend health (queries served, learned
    /// cost model), in fleet order.
    pub backends: Vec<BackendHealth>,
    pub placed_stats: ServiceStats,
}

fn skewed_corpus(workload: &PlacementWorkload) -> Arc<InvertedIndex> {
    let hot = workload.objects / workload.shards.max(1);
    let mut b = IndexBuilder::new();
    for i in 0..workload.objects {
        let keywords = if i < hot {
            // shard 0: the hot keyword plus a small hot vocabulary
            vec![HOT_KEYWORD, 1 + (i as u32) % 7]
        } else {
            // the cold shards share a disjoint, thinner vocabulary
            vec![10 + (i as u32) % 13]
        };
        b.add_object(&Object { keywords });
    }
    Arc::new(b.build(None))
}

/// The query mix: ~80% hot (every posting in shard 0), ~20% cold.
fn query_for(j: usize) -> Query {
    if j % 5 < 4 {
        Query::from_keywords(&[HOT_KEYWORD, 1 + (j as u32) % 7])
    } else {
        Query::from_keywords(&[10 + (j as u32) % 13])
    }
}

/// Distinct `k` values cycled across each wave's requests. Micro-batches
/// never span `(collection, k)` groups and the dispatcher's size trigger
/// fires once one group reaches `max_batch_queries`, so cycling `k`
/// keeps whole `wave_size`-request bursts together as one wave of
/// `K_SPREAD` micro-batches. One batch per wave would re-reduce the
/// broadcast baseline to a thread-spawn race (whoever pops first wins,
/// usually the CPU); several batches guarantee the throttled devices
/// pull real work under broadcast — the load the placement loop exists
/// to route around.
const K_SPREAD: usize = 4;

/// One scenario: a service over the skewed corpus, the position it has
/// reached in the shared query stream, and its request tally.
struct Scenario<'a> {
    workload: &'a PlacementWorkload,
    service: GenieService,
    collection: CollectionId,
    cursor: usize,
    expected: usize,
    resolved: usize,
}

impl<'a> Scenario<'a> {
    /// `rebalance_window == 0` disables the placement loop (broadcast).
    fn new(workload: &'a PlacementWorkload, rebalance_window: usize) -> Self {
        let throttle = Duration::from_micros(workload.throttle_us);
        let fleet: Vec<Arc<dyn SearchBackend>> = vec![
            Arc::new(CpuBackend::new()),
            Arc::new(ThrottledSim::new(throttle)),
            Arc::new(ThrottledSim::new(throttle)),
        ];
        // one micro-batch per (collection, k) group per wave: every wave
        // splits into K_SPREAD batches across the fleet, so the throttled
        // devices actually serve under broadcast — both to drag latency
        // (the baseline being beaten) and to feed the online cost model
        // the observations rebalancing decides from
        let scheduler = QueryScheduler::new(
            fleet,
            SchedulerConfig {
                max_batch_queries: (workload.wave_size / K_SPREAD).max(1),
                ..SchedulerConfig::default()
            },
        );
        let service = GenieService::start_empty(
            scheduler,
            ServiceConfig {
                max_queue_delay: Duration::from_millis(1),
                dispatchers: 1,
                cache_capacity: 0, // repeated hot queries must execute, not memoise
                compact_after: 0,
                rebalance_window,
                skew_threshold: workload.skew_threshold,
                ..Default::default()
            },
        )
        .expect("config is valid");
        let collection = service
            .add_collection_sharded("skewed", &skewed_corpus(workload), workload.shards)
            .expect("corpus always fits");
        Self {
            workload,
            service,
            collection,
            cursor: 0,
            expected: 0,
            resolved: 0,
        }
    }

    /// Drive `waves` waves of `wave_size` requests from the cursor on;
    /// returns the per-request latencies of those that resolved.
    fn drive(&mut self, waves: usize) -> Vec<f64> {
        let mut latencies = Vec::new();
        for _ in 0..waves {
            let tickets: Vec<_> = (0..self.workload.wave_size)
                .map(|i| {
                    let q = query_for(self.cursor);
                    self.cursor += 1;
                    self.expected += 1;
                    // cycle k so the burst forms one multi-batch wave (see
                    // K_SPREAD); answers are audited at workload.k alone
                    let k = self.workload.k + (i % K_SPREAD);
                    self.service.submit_to(self.collection, q, k)
                })
                .collect();
            for ticket in tickets {
                let submitted = ticket.submitted_at();
                if ticket.wait().is_ok() {
                    self.resolved += 1;
                    latencies.push(submitted.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        latencies
    }

    fn placement(&self) -> Vec<Vec<usize>> {
        self.service
            .collection_placement(self.collection)
            .expect("collection is registered")
    }

    /// The rebalancer has applied a plan and it routes no shard to a
    /// throttled device (fleet order is fixed: backend 0 is the CPU).
    fn routed_around_sims(&self) -> bool {
        let on_cpu_only = |backends: &Vec<usize>| backends.iter().all(|&b| b == 0);
        self.service.stats().rebalances >= 1 && self.placement().iter().all(on_cpu_only)
    }
}

/// Run `workload`: a static-broadcast scenario and a placement-enabled
/// scenario over the same skewed corpus and query stream, then audit
/// that placement changed only the latency.
pub fn run_placement_workload(workload: &PlacementWorkload) -> PlacementReport {
    let measured_waves = workload.measured_requests.div_ceil(workload.wave_size);

    // --- scenario 1: static broadcast (rebalancing disabled) ---
    let mut bcast = Scenario::new(workload, 0);
    bcast.drive(workload.warmup_waves);
    let bcast_lat = bcast.drive(measured_waves);

    // --- scenario 2: placement loop on, same corpus and stream ---
    let mut placed = Scenario::new(workload, workload.rebalance_window);
    let mut phase_p95 = vec![Latency::of(placed.drive(workload.warmup_waves)).p95_us];
    // keep serving phases until the plan routes around the throttled
    // devices (each phase feeds the detector window and the online
    // cost model, so convergence is self-reinforcing) or we give up
    let mut converged = false;
    for _ in 0..workload.max_phases {
        if placed.routed_around_sims() {
            converged = true;
            break;
        }
        phase_p95.push(Latency::of(placed.drive(workload.phase_waves)).p95_us);
        // the detector hands plans to the background rebalancer; give
        // it a beat before deciding the phase did not converge
        let deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < deadline && !placed.routed_around_sims() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    converged |= placed.routed_around_sims();
    let placement = placed.placement();

    // measured phase on the converged plan
    let placed_latency = Latency::of(placed.drive(measured_waves));
    phase_p95.push(placed_latency.p95_us);
    let (expected, resolved) = (
        bcast.expected + placed.expected,
        bcast.resolved + placed.resolved,
    );
    let (broadcast, bcast_col) = (bcast.service, bcast.collection);
    let (placed, placed_col) = (placed.service, placed.collection);

    // --- audit: placement changed the latency, not one answer ---
    let mut answers_identical = true;
    for j in 0..32 {
        let q = query_for(j);
        let a = broadcast
            .submit_to(bcast_col, q.clone(), workload.k)
            .wait()
            .expect("broadcast serves");
        let b = placed
            .submit_to(placed_col, q, workload.k)
            .wait()
            .expect("placed serves");
        let a_pairs: Vec<(u32, u32)> = a.hits.iter().map(|h| (h.id, h.count)).collect();
        let b_pairs: Vec<(u32, u32)> = b.hits.iter().map(|h| (h.id, h.count)).collect();
        if a_pairs != b_pairs || a.audit_threshold != b.audit_threshold {
            answers_identical = false;
        }
    }

    let placed_stats = placed.stats();
    let health = placed.backend_health();
    // the fleet separation the model must learn is *per query*, not per
    // posting — a pure-sleep throttle lands in base_us — so price each
    // backend's model at the collection's representative per-query
    // postings volume, exactly as the rebalancer scores capacity
    let rep_postings = placed
        .shard_stats(placed_col)
        .map(|totals| {
            let (queries, postings) = totals
                .iter()
                .fold((0u64, 0u64), |(q, p), t| (q + t.queries, p + t.postings));
            if queries > 0 {
                postings as f64 / queries as f64
            } else {
                0.0
            }
        })
        .unwrap_or(0.0);
    let per_query =
        |h: &BackendHealth| h.cost_model.base_us + h.cost_model.us_per_posting * rep_postings;
    let cpu_cost = health
        .iter()
        .find(|h| h.name == "cpu")
        .map(per_query)
        .unwrap_or(0.0);
    let cost_model_learned = health
        .iter()
        .filter(|h| h.name == "sim-throttled")
        .all(|h| h.cost_observations > 0 && per_query(h) > cpu_cost);
    PlacementReport {
        broadcast: Latency::of(bcast_lat),
        placed: placed_latency,
        phase_p95_us: phase_p95,
        expected,
        resolved,
        answers_identical,
        rebalance_fired: placed_stats.rebalances >= 1,
        cost_model_learned,
        converged,
        placement,
        backends: health,
        placed_stats,
    }
}

fn workload_for(smoke: bool) -> PlacementWorkload {
    // waves are deliberately large relative to `max_batch_queries`:
    // each shard run must hold more micro-batches than the CPU backend
    // can drain before the throttled workers' threads wake, or
    // broadcast never actually engages the slow devices and the
    // baseline being beaten is a coin flip of thread-spawn latency
    let full = PlacementWorkload {
        objects: 4_096,
        shards: 4,
        wave_size: 64,
        warmup_waves: 16,
        measured_requests: 512,
        phase_waves: 8,
        max_phases: 8,
        k: 10,
        throttle_us: 1_500,
        rebalance_window: 8,
        skew_threshold: 0.5,
    };
    if !smoke {
        return full;
    }
    // the corpus stays full-size: CPU batches must cost more than a
    // thread spawn or broadcast never engages the sims (smoke saves
    // time through fewer and smaller waves, not a smaller index)
    PlacementWorkload {
        wave_size: 32,
        warmup_waves: 12,
        measured_requests: 128,
        max_phases: 6,
        ..full
    }
}

const TABLE: Table<PlacementReport> = Table {
    id: None,
    cols: &[
        Col::shown("broadcast_p50_us", "bcast p50", Cell::Ms, |r| {
            r.broadcast.p50_us.into()
        }),
        Col::shown("broadcast_p95_us", "bcast p95", Cell::Ms, |r| {
            r.broadcast.p95_us.into()
        }),
        Col::shown("placed_p50_us", "placed p50", Cell::Ms, |r| {
            r.placed.p50_us.into()
        }),
        Col::shown("placed_p95_us", "placed p95", Cell::Ms, |r| {
            r.placed.p95_us.into()
        }),
        Col::json("phase_p95_us", |r| {
            Json::Arr(r.phase_p95_us.iter().map(|&v| v.into()).collect())
        }),
        Col::json("expected", |r| r.expected.into()),
        Col::json("resolved", |r| r.resolved.into()),
        Col::json("answers_identical", |r| r.answers_identical.into()),
        Col::json("rebalance_fired", |r| r.rebalance_fired.into()),
        Col::json("cost_model_learned", |r| r.cost_model_learned.into()),
        Col::shown("converged", "converged", Cell::Plain, |r| {
            r.converged.into()
        }),
        Col::json("placement", |r| {
            let shard =
                |backends: &Vec<usize>| Json::Arr(backends.iter().map(|&b| b.into()).collect());
            Json::Arr(r.placement.iter().map(shard).collect())
        }),
        Col::json("backends", |r| {
            let backend = |h: &BackendHealth| {
                Json::obj(vec![
                    ("name", h.name.into()),
                    ("queries", h.queries.into()),
                    ("learned_base_us", h.cost_model.base_us.into()),
                    ("learned_us_per_posting", h.cost_model.us_per_posting.into()),
                    ("cost_observations", h.cost_observations.into()),
                ])
            };
            Json::Arr(r.backends.iter().map(backend).collect())
        }),
        Col::json("placed_shard_runs", |r| {
            r.placed_stats.placed_shard_runs.into()
        }),
        Col::shown("hot_shard_events", "hot events", Cell::Plain, |r| {
            r.placed_stats.hot_shard_events.into()
        }),
        Col::shown("rebalances", "rebalances", Cell::Plain, |r| {
            r.placed_stats.rebalances.into()
        }),
        Col::json("stale_rebalances", |r| {
            r.placed_stats.stale_rebalances.into()
        }),
    ],
};

/// `--placement [--smoke]`: static broadcast vs the learning placement
/// loop over the same corpus and stream. Not part of `--all` (the
/// throttle spins real wall-clock).
fn setup(ctx: &Ctx) -> crate::harness::Trial {
    let smoke = ctx.mode == Mode::Smoke;
    let workload = workload_for(smoke);
    Box::new(move || {
        println!(
            "n = {}, {} shards, fleet = cpu + 2 sims throttled {} us/query",
            workload.objects, workload.shards, workload.throttle_us
        );
        let report = run_placement_workload(&workload);
        let run = TABLE.object(&report);
        let trajectory: Vec<String> = report.phase_p95_us.iter().map(|&v| ms(v)).collect();
        println!(
            "convergence p95 trajectory (ms): {}",
            trajectory.join(" -> ")
        );
        println!("final placement: {:?}", report.placement);
        for h in &report.backends {
            println!(
                "  backend {}: {} queries, learned {:.1} us + {:.4} us/posting ({} observations)",
                h.name,
                h.queries,
                h.cost_model.base_us,
                h.cost_model.us_per_posting,
                h.cost_observations
            );
        }
        Run {
            head: vec![
                ("smoke", smoke.into()),
                ("objects", workload.objects.into()),
                ("shards", workload.shards.into()),
                ("wave_size", workload.wave_size.into()),
                ("throttle_us", workload.throttle_us.into()),
                ("rebalance_window", workload.rebalance_window.into()),
                ("skew_threshold", workload.skew_threshold.into()),
            ],
            body: vec![("run", run)],
        }
    })
}

/// A placement run that loses a request, changes an answer, never
/// rebalances, never separates the fleet, or fails to beat broadcast is
/// broken regardless of host timing. Latency is gated only as the
/// ordering `placed p95 < broadcast p95`, which the 1.5 ms/query
/// throttle makes host-independent.
const SECTIONS: &[Section] = &[Section {
    at: Some("run"),
    name: "placement",
    invariants: &[
        Invariant::new("all_requests_resolved", |run, _| {
            field(run, "resolved") == field(run, "expected")
        }),
        // the invariant the whole layer rests on
        Invariant::new("answers_identical", |run, _| flag(run, "answers_identical")),
        Invariant::new("rebalance_fired", |run, _| flag(run, "rebalance_fired")),
        Invariant::new("cost_model_learned", |run, _| {
            flag(run, "cost_model_learned")
        }),
        // the final plan routes nothing to a throttled device
        Invariant::new("converged", |run, _| flag(run, "converged")),
        Invariant::new("placed_beats_broadcast_p95", |run, _| {
            field(run, "placed_p95_us") < field(run, "broadcast_p95_us")
        }),
    ],
    bands: &[],
}];

pub const BENCH: Bench = Bench {
    name: "placement",
    flag: "--placement",
    in_all: false,
    trials: |mode| if mode == Mode::Full { 3 } else { 2 },
    sections: |_| SECTIONS,
    setup,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_the_sample_at_the_rounded_index() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_us(&s, 0.50), 51.0);
        assert_eq!(percentile_us(&s, 0.95), 95.0);
        assert_eq!(percentile_us(&s, 0.99), 99.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tiny_workload_converges_and_answers_match() {
        let workload = PlacementWorkload {
            objects: 2_048,
            shards: 2,
            wave_size: 32,
            warmup_waves: 10,
            measured_requests: 64,
            phase_waves: 8,
            max_phases: 6,
            k: 5,
            throttle_us: 1_500,
            rebalance_window: 4,
            skew_threshold: 0.5,
        };
        let report = run_placement_workload(&workload);
        assert_eq!(report.resolved, report.expected);
        assert!(report.answers_identical);
        assert!(report.rebalance_fired);
        assert!(report.converged, "placement: {:?}", report.placement);
        // the placed-beats-broadcast latency ordering is asserted by
        // the full-size workload (`repro --placement [--smoke]`), not
        // here: at this tiny measured phase (two waves) the ordering
        // degenerates to a thread-spawn race
    }

    #[test]
    fn throttled_sim_answers_exactly_like_the_cpu() {
        let mut b = IndexBuilder::new();
        for i in 0..64u32 {
            b.add_object(&Object {
                keywords: vec![i % 5, 5 + i % 3],
            });
        }
        let index = Arc::new(b.build(None));
        let cpu = CpuBackend::new();
        let sim = ThrottledSim::new(Duration::from_micros(50));
        let ci = cpu.upload(Arc::clone(&index)).expect("upload");
        let si = sim.upload(index).expect("upload");
        let queries = vec![Query::from_keywords(&[0, 5]), Query::from_keywords(&[4])];
        let a = cpu.search_batch(&ci, &queries, 5);
        let b = sim.search_batch(&si, &queries, 5);
        assert_eq!(a.results, b.results);
        assert_eq!(a.audit_thresholds, b.audit_thresholds);
    }
}

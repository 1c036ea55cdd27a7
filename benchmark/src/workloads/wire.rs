//! The three wire workloads. They share one shape: an in-process
//! `NetServer` on `127.0.0.1:0` over a `GenieService` with one
//! `CpuBackend`, real `genie_client::Client` connections, k = 10; they
//! differ in corpus, query stream and how the load is offered.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_client::Client;
use genie_core::backend::{CpuBackend, SearchBackend};
use genie_core::model::{Object, Query};
use genie_net::server::{NetServer, ServerConfig, ServerHandle};
use genie_service::{GenieDb, SchedulerConfig};
use genie_store::{DiskVfs, Vfs};

use super::{
    another_setup, dir_bytes, gained, layer_counters, layer_metrics, peak_rss_mb, ratio,
    service_config, thin, Counters, Metrics, Outcome, RunOpts, Tally, TempDir, AUDIT_CAP, K,
    KEEP_EVERY, SEGMENTS, TRACED_SEGMENTS, WARMUP_S,
};
use crate::gen;
use crate::json::Json;
use crate::ladder;
use crate::load::{
    closed_loop_search, open_loop_search, scheduled_mutations, summarize, BatchPicker, BatchShape,
    Clock, Kept, LatencySummary, MutateRecord, Schedule, SearchLog, SearchSample, Segments, Target,
};
use crate::model::Model;
use crate::provenance;
use crate::stats;
use crate::trace::{write_trace, ClientSpan, Recorder, Span, TracingBackend, TracingVfs};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PointOpen,
    ScanPipelined,
    MixedDurable,
}

/// `wire_point_open`: the fixed schedule, requests per second.
const POINT_RATE: f64 = 1000.0;
/// `wire_scan_pipelined`: requests in flight per connection.
const SCAN_DEPTH: usize = 16;
/// `wire_mixed_durable`: reader pipeline depth, writer schedule.
const READER_DEPTH: usize = 4;
/// Mutation batches per second the writer offers. Fixed, not closed
/// loop: search latency on this workload is an end-to-end metric and
/// mutation throughput is not, so a faster write path must lower the
/// reader's latency instead of raising the write pressure on it.
const WRITE_RATE: f64 = 100.0;
const BATCH: BatchShape = BatchShape {
    inserts: 16,
    deletes: 16,
    keywords: 8,
    universe: 4000,
};
/// Queries the post-recovery audit asks.
const RECOVERY_AUDIT: usize = 256;

struct Shape {
    name: &'static str,
    objects: usize,
    keywords: usize,
    universe: u32,
    shards: usize,
    durable: bool,
    limit_us: f64,
    generator_threads: usize,
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            // ~2 postings per keyword, 8 exact items: ~16 postings a
            // query, the kernel's sparse regime (~1 us)
            Kind::PointOpen => Shape {
                name: "wire_point_open",
                objects: 250_000,
                keywords: 8,
                universe: 1_000_000,
                shards: 1,
                durable: false,
                limit_us: 10_000.0,
                generator_threads: 1,
            },
            // 16k postings per keyword, 4 ranges of width 8: ~460k
            // postings a query, dense finalize (~300 us)
            Kind::ScanPipelined => Shape {
                name: "wire_scan_pipelined",
                objects: 100_000,
                keywords: 8,
                universe: 50,
                shards: 1,
                durable: false,
                limit_us: 50_000.0,
                generator_threads: 2,
            },
            // 200 postings per keyword, 12 exact items: ~2.4k postings
            Kind::MixedDurable => Shape {
                name: "wire_mixed_durable",
                objects: 100_000,
                keywords: BATCH.keywords,
                universe: BATCH.universe,
                shards: 4,
                durable: true,
                limit_us: 50_000.0,
                generator_threads: 2,
            },
        }
    }

    /// Query stream `lane` of `lanes`.
    fn queries(self, seed: u64, lane: u64, lanes: u64) -> Box<dyn Iterator<Item = Query> + Send> {
        let shape = self.shape();
        match self {
            Kind::PointOpen => Box::new(gen::HotColdQueries::new(
                seed,
                0x100 + lane,
                256,
                0.2,
                8,
                shape.universe,
            )),
            Kind::ScanPipelined => Box::new(gen::UniqueRangeQueries::new(
                seed,
                lane,
                lanes,
                4,
                8,
                shape.universe,
            )),
            Kind::MixedDurable => Box::new(gen::PoolQueries::new(
                seed,
                0x100 + lane,
                4096,
                12,
                shape.universe,
            )),
        }
    }
}

/// One set-up of the program: index, service, server, connections.
/// Fields drop in declaration order: connections close, the server
/// drains, then the service shuts down.
struct Stack {
    clients: Vec<Client>,
    server: ServerHandle,
    db: GenieDb,
    cpu: Arc<CpuBackend>,
    collection: u64,
}

struct SetupTiming {
    setup_s: f64,
    build_s: f64,
    host_bytes: u64,
    postings: u64,
}

fn backend_of(cpu: &Arc<CpuBackend>, rec: Option<&Arc<Recorder>>) -> Arc<dyn SearchBackend> {
    match rec {
        Some(rec) => Arc::new(TracingBackend::new(cpu.clone(), rec.clone())),
        None => cpu.clone(),
    }
}

fn vfs_of(rec: Option<&Arc<Recorder>>) -> Arc<dyn Vfs> {
    match rec {
        Some(rec) => Arc::new(TracingVfs::new(Arc::new(DiskVfs), rec.clone())),
        None => Arc::new(DiskVfs),
    }
}

fn open_db(
    cpu: &Arc<CpuBackend>,
    dir: Option<&Path>,
    rec: Option<&Arc<Recorder>>,
) -> Result<GenieDb, String> {
    let backends = vec![backend_of(cpu, rec)];
    match dir {
        Some(dir) => GenieDb::open_at_vfs(
            vfs_of(rec),
            dir,
            backends,
            SchedulerConfig::default(),
            service_config(),
        ),
        None => GenieDb::open(backends, SchedulerConfig::default(), service_config()),
    }
    .map_err(|e| e.to_string())
}

impl Stack {
    /// Everything `setup_s` covers: index build, collection
    /// registration (backend prepared, shards split, journal `Create`),
    /// server spawn, client handshakes.
    fn build(
        corpus: &[Object],
        shape: &Shape,
        dir: Option<&Path>,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<(Self, SetupTiming), String> {
        let started = Instant::now();
        let cpu = Arc::new(CpuBackend::new());
        let db = open_db(&cpu, dir, rec)?;
        let build_started = Instant::now();
        let index = ladder::build_index(corpus);
        let build_s = build_started.elapsed().as_secs_f64();
        let collection = db
            .service()
            .add_collection_sharded("bench", &index, shape.shards)
            .map_err(|e| e.to_string())?;
        let server = NetServer::spawn(db.service_handle(), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("cannot bind 127.0.0.1:0: {e}"))?;
        let clients = (0..2)
            .map(|_| Client::connect(server.addr()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let timing = SetupTiming {
            setup_s: started.elapsed().as_secs_f64(),
            build_s,
            host_bytes: index.host_bytes(),
            postings: index.list_array().len() as u64,
        };
        Ok((
            Self {
                clients,
                server,
                db,
                cpu,
                collection,
            },
            timing,
        ))
    }

    fn counters(&self) -> Counters {
        layer_counters(
            &self.db.stats(),
            &self.cpu.kernel_stats(),
            Some(&self.server.net_stats()),
        )
    }
}

fn pick<T: Clone>(per_segment: &[Vec<T>], which: &[usize]) -> Vec<Vec<T>> {
    which.iter().map(|&i| per_segment[i].clone()).collect()
}

struct LoadLogs {
    search: SearchLog,
    mutations: Vec<MutateRecord>,
    delta_len_max: usize,
    tombstones_max: usize,
}

/// When the load starts and ends, and the segment boundaries between.
struct Timeline {
    start: Instant,
    end: Instant,
    /// Start of each timed segment, plus the end of the last one.
    boundaries: Vec<Instant>,
}

/// Offer the workload's load over `timeline`. `at_boundary(b)` runs on
/// the calling thread at boundary `b`.
fn offer_load(
    kind: Kind,
    stack: &Stack,
    seed: u64,
    timeline: &Timeline,
    clock: Clock,
    mut at_boundary: impl FnMut(usize),
) -> LoadLogs {
    let (start, end) = (timeline.start, timeline.end);
    let target = Target {
        collection: stack.collection,
        k: K as u32,
        keep_every: KEEP_EVERY,
        clock,
    };
    let until_start = move || std::thread::sleep(start.saturating_duration_since(Instant::now()));
    std::thread::scope(|s| {
        let mut searchers = Vec::new();
        let mut writer = None;
        match kind {
            Kind::PointOpen => {
                searchers.push(s.spawn(move || {
                    let mut queries = kind.queries(seed, 0, 1);
                    let schedule = Schedule::per_second(start, POINT_RATE, seed);
                    open_loop_search(&stack.clients, target, &mut *queries, schedule, end)
                }));
            }
            Kind::ScanPipelined => {
                for (lane, client) in stack.clients.iter().enumerate() {
                    searchers.push(s.spawn(move || {
                        let mut queries = kind.queries(seed, lane as u64, 2);
                        until_start();
                        closed_loop_search(client, target, &mut *queries, SCAN_DEPTH, end)
                    }));
                }
            }
            Kind::MixedDurable => {
                let (write_client, read_client) = (&stack.clients[0], &stack.clients[1]);
                searchers.push(s.spawn(move || {
                    let mut queries = kind.queries(seed, 0, 1);
                    until_start();
                    closed_loop_search(read_client, target, &mut *queries, READER_DEPTH, end)
                }));
                let service = stack.db.service();
                let collection = stack.collection;
                let objects = kind.shape().objects;
                writer = Some(s.spawn(move || {
                    let mut picker = BatchPicker::new(gen::stream(seed, 0x3), objects, BATCH);
                    let (mut delta_max, mut tomb_max) = (0, 0);
                    let records = scheduled_mutations(
                        write_client,
                        collection,
                        &mut picker,
                        Schedule::per_second(start, WRITE_RATE, seed),
                        end,
                        clock,
                        &mut || {
                            if let Some(status) = service.mutation_status(collection) {
                                delta_max = delta_max.max(status.delta);
                                tomb_max = tomb_max.max(status.tombstones);
                            }
                        },
                    );
                    (records, delta_max, tomb_max)
                }));
            }
        }
        for (b, &when) in timeline.boundaries.iter().enumerate() {
            std::thread::sleep(when.saturating_duration_since(Instant::now()));
            at_boundary(b);
        }
        let search = searchers
            .into_iter()
            .map(|h| h.join().expect("load generator panicked"))
            .fold(SearchLog::default(), SearchLog::merge);
        let (mutations, delta_len_max, tombstones_max) = writer
            .map(|h| h.join().expect("writer panicked"))
            .unwrap_or_default();
        LoadLogs {
            search,
            mutations,
            delta_len_max,
            tombstones_max,
        }
    })
}

/// Replay the acknowledged batches into the model; returns, per
/// version `v >= 1`, when batch `v` was sent and when it was acked.
fn apply_mutations(
    model: &mut Model,
    records: &[MutateRecord],
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let (mut sent, mut acked) = (Vec::new(), Vec::new());
    tally.attempt(records.len() as u64);
    for r in records {
        match &r.assigned {
            Some(ids) => match model.apply(&r.deletes, &r.inserts, ids) {
                Ok(()) => {
                    sent.push(r.sent_us);
                    acked.push(r.acked_us);
                }
                Err(e) => tally.fail(1, || format!("mutation broke the id contract: {e}")),
            },
            None => tally.fail(1, || "a mutation batch was not acknowledged".into()),
        }
    }
    (sent, acked)
}

/// Brute-force audit of the kept replies, on two threads. A reply in
/// flight over `[sent, done]` may have observed any version from "the
/// batches acked before it was sent" to "the batches sent before it was
/// done".
fn audit(model: &Model, kept: &[Kept], versions: &(Vec<f64>, Vec<f64>), tally: &mut Tally) {
    let (batch_sent, batch_acked) = versions;
    let check = |item: &Kept| {
        let lo = batch_acked.partition_point(|&t| t <= item.sent_us) as u32;
        let hi = batch_sent.partition_point(|&t| t < item.done_us) as u32;
        model.check(&item.query, K, (lo, hi), &item.hits, item.audit_threshold)
    };
    let (left, right) = kept.split_at(kept.len() / 2);
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let other = s.spawn(|| right.iter().map(check).collect::<Vec<_>>());
        let mut mine: Vec<_> = left.iter().map(check).collect();
        mine.extend(other.join().expect("audit thread panicked"));
        mine
    });
    for r in results {
        tally.check(r.map_err(|e| format!("audit: {e}")));
    }
}

struct Recovered {
    recover_s: f64,
    disk_bytes: u64,
    replayed_events: usize,
    read_bytes: u64,
}

/// `wire_mixed_durable` only: shut down the way `genie-server` does
/// (drain, then a final checkpoint), measure the directory, open it
/// again and audit what came back.
fn shutdown_and_recover(
    stack: Stack,
    dir: &Path,
    model: &Model,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
    tally: &mut Tally,
) -> Result<Recovered, String> {
    let Stack {
        clients,
        mut server,
        db,
        ..
    } = stack;
    drop(clients);
    tally.check(
        server
            .shutdown()
            .then_some(())
            .ok_or_else(|| "server drain timed out".into()),
    );
    tally.check(
        db.checkpoint()
            .map(|_| ())
            .map_err(|e| format!("final checkpoint: {e}")),
    );
    drop(server);
    drop(db);
    let disk_bytes = dir_bytes(dir);

    if let Some(rec) = rec {
        rec.drain();
        rec.set_enabled(true);
    }
    let cpu = Arc::new(CpuBackend::new());
    let started = Instant::now();
    let db = open_db(&cpu, Some(dir), rec)?;
    let recover_s = started.elapsed().as_secs_f64();
    let read_bytes = rec.map_or(0, |rec| {
        rec.set_enabled(false);
        rec.drain()
            .iter()
            .filter(|s| s.op == "read")
            .map(|s| s.a)
            .sum()
    });
    let replayed_events = db.recovery().map_or(0, |r| r.events_replayed);

    let service = db.service();
    let collection = service
        .collection_names()
        .into_iter()
        .find(|(_, name)| name == "bench")
        .map(|(id, _)| id);
    let Some(collection) = collection else {
        tally.check(Err("the collection did not come back from recovery".into()));
        return Ok(Recovered {
            recover_s,
            disk_bytes,
            replayed_events,
            read_bytes,
        });
    };
    let len = service.collection_len(collection).unwrap_or(0);
    tally.check((len == model.live_len()).then_some(()).ok_or_else(|| {
        format!(
            "recovered {len} objects, {} were acknowledged live",
            model.live_len()
        )
    }));
    let queries: Vec<Query> = Kind::MixedDurable
        .queries(seed, 0x77, 1)
        .take(RECOVERY_AUDIT)
        .collect();
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| service.submit_to(collection, q.clone(), K))
        .collect();
    let last = model.version();
    for (query, ticket) in queries.iter().zip(tickets) {
        tally.check(match ticket.wait() {
            Ok(resp) => model
                .check(query, K, (last, last), &resp.hits, resp.audit_threshold)
                .map_err(|e| format!("after recovery: {e}")),
            Err(e) => Err(format!("after recovery: {e}")),
        });
    }
    Ok(Recovered {
        recover_s,
        disk_bytes,
        replayed_events,
        read_bytes,
    })
}

fn store_metrics(metrics: &mut Metrics, spans: &[Span], gained: &Counters, measured_us: f64) {
    let of = |op: &str| -> Vec<&Span> { spans.iter().filter(|s| s.op == op).collect() };
    let durs = |ss: &[&Span]| stats::sort(ss.iter().map(|s| s.dur_us()).collect());
    let bytes = |ss: &[&Span]| ss.iter().map(|s| s.a as f64).sum::<f64>();
    let (appends, atomics) = (of("append_sync"), of("write_atomic"));
    let user_bytes = 4.0 * (gained["inserted"] * BATCH.keywords as f64 + gained["deleted"]);
    let store_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.layer == "store")
        .map(Span::interval)
        .collect();
    metrics.extend([
        ("store.appends", appends.len() as f64),
        ("store.append_bytes", bytes(&appends)),
        (
            "store.append_sync_p50_us",
            stats::percentile(&durs(&appends), 0.5),
        ),
        (
            "store.append_sync_p99_us",
            stats::percentile(&durs(&appends), 0.99),
        ),
        ("store.atomic_writes", atomics.len() as f64),
        ("store.atomic_write_bytes", bytes(&atomics)),
        (
            "store.atomic_write_p50_us",
            stats::percentile(&durs(&atomics), 0.5),
        ),
        (
            "store.fsyncs_per_batch",
            ratio(
                (appends.len() + atomics.len()) as f64,
                gained["mutation_batches"],
            ),
        ),
        (
            "store.write_amp",
            ratio(bytes(&appends) + bytes(&atomics), user_bytes),
        ),
        (
            "store.busy_share",
            stats::union_us(&store_spans) / measured_us,
        ),
    ]);
}

/// Set the program up, repeatedly on an untraced run so `setup_s` is a
/// median; the last set-up is the one the load runs against.
fn set_up(
    corpus: &[Object],
    shape: &Shape,
    opts: &RunOpts,
    rec: Option<&Arc<Recorder>>,
) -> Result<(Stack, Option<TempDir>, Vec<SetupTiming>), String> {
    let mut timings: Vec<SetupTiming> = Vec::new();
    let mut built: Option<(Stack, Option<TempDir>)> = None;
    while another_setup(
        opts.trace,
        timings.len(),
        timings.iter().map(|t| t.setup_s).sum(),
    ) {
        // the previous stack goes first, then its directory
        drop(built.take());
        let dir = shape
            .durable
            .then(|| TempDir::create(&opts.out_dir, shape.name))
            .transpose()?;
        let (stack, timing) = Stack::build(corpus, shape, dir.as_ref().map(TempDir::path), rec)?;
        timings.push(timing);
        built = Some((stack, dir));
    }
    let (stack, dir) = built.expect("at least one set-up");
    Ok((stack, dir, timings))
}

/// How a run's load is cut up: warm-up, then the timed phase in
/// segments. An untraced run measures every segment. A traced run
/// spends half its seconds on load, alternating untraced reference
/// segments (even) and traced ones (odd), and the rest on the ladder.
struct Phases {
    segments: Segments,
    timeline: Timeline,
    measured: Vec<usize>,
    reference: Vec<usize>,
}

impl Phases {
    fn plan(opts: &RunOpts, clock: Clock) -> Self {
        let (timed_s, count) = if opts.trace {
            (opts.seconds / 2.0, TRACED_SEGMENTS)
        } else {
            (opts.seconds, SEGMENTS)
        };
        let start = Instant::now() + Duration::from_millis(50);
        let timed_start = start + Duration::from_secs_f64(WARMUP_S);
        let boundary =
            |b: usize| timed_start + Duration::from_secs_f64(timed_s * b as f64 / count as f64);
        let (measured, reference) = if opts.trace {
            (0..count).partition(|seg| seg % 2 == 1)
        } else {
            ((0..count).collect(), Vec::new())
        };
        Self {
            segments: Segments::new(clock.us(timed_start), timed_s * 1e6, count),
            timeline: Timeline {
                start,
                end: boundary(count),
                boundaries: (0..=count).map(boundary).collect(),
            },
            measured,
            reference,
        }
    }

    fn is_measured(&self, t_us: f64) -> bool {
        self.segments
            .of(t_us)
            .is_some_and(|seg| self.measured.contains(&seg))
    }

    fn measured_us(&self) -> f64 {
        self.segments.segment_us * self.measured.len() as f64
    }

    /// Items per measured segment, times `weight`.
    fn counts(&self, per_segment: &[Vec<f64>], weight: f64) -> Vec<f64> {
        self.measured
            .iter()
            .map(|&i| per_segment[i].len() as f64 * weight)
            .collect()
    }
}

/// Latencies by the segment a request was due in, goodput by the
/// segment it completed in; measured segments only.
fn summarize_searches(phases: &Phases, samples: &[SearchSample], limit_us: f64) -> LatencySummary {
    let latencies = phases
        .segments
        .split(samples, |s| s.due_us, |s| s.ok.then(|| s.latency_us()));
    let good = phases.segments.split(
        samples,
        |s| s.sent_us + s.full_us,
        |s| (s.ok && s.latency_us() <= limit_us).then_some(1.0),
    );
    summarize(
        &phases.segments,
        &pick(&latencies, &phases.measured),
        &phases.counts(&good, 1.0),
    )
}

fn summarize_mutations(phases: &Phases, records: &[MutateRecord], limit_us: f64) -> LatencySummary {
    let acked = |r: &MutateRecord| r.assigned.is_some();
    let latencies =
        phases
            .segments
            .split(records, |r| r.due_us, |r| acked(r).then(|| r.latency_us()));
    let good = phases.segments.split(
        records,
        |r| r.acked_us,
        |r| (acked(r) && r.latency_us() <= limit_us).then_some(1.0),
    );
    summarize(
        &phases.segments,
        &pick(&latencies, &phases.measured),
        &phases.counts(&good, (BATCH.inserts + BATCH.deletes) as f64),
    )
}

pub fn run(kind: Kind, opts: &RunOpts) -> Result<Outcome, String> {
    let shape = kind.shape();
    let mut tally = Tally::default();

    // inputs, from the seed alone
    let corpus = gen::uniform_corpus(
        &mut gen::stream(opts.seed, 1),
        shape.objects,
        shape.keywords,
        shape.universe,
    );
    let input_checksum = gen::checksum(&corpus, kind.queries(opts.seed, 0, 1));

    let rec = opts.trace.then(|| Recorder::new(Instant::now()));
    let clock = Clock {
        origin: rec.as_ref().map_or_else(Instant::now, |r| r.origin()),
    };
    let (stack, data_dir, timings) = set_up(&corpus, &shape, opts, rec.as_ref())?;
    let fs_type = data_dir
        .as_ref()
        .map(|d| provenance::fs_type(d.path()))
        .unwrap_or_default();

    // the load, with the counters read at every segment boundary
    let phases = Phases::plan(opts, clock);
    let mut snapshots: Vec<Counters> = Vec::new();
    let logs = offer_load(kind, &stack, opts.seed, &phases.timeline, clock, |b| {
        snapshots.push(stack.counters());
        if let Some(rec) = &rec {
            rec.set_enabled(phases.measured.contains(&b));
        }
    });
    // the high-water mark of program + load generator: read before the
    // audit builds its model
    let peak_rss = peak_rss_mb();
    let spans = rec.as_ref().map(|r| r.drain()).unwrap_or_default();
    let learned_us_per_posting = stack.db.stats().learned_us_per_posting;

    // every operation sent counts, warm-up included
    let samples = &logs.search.samples;
    tally.attempt(samples.len() as u64);
    let unanswered = samples.iter().filter(|s| !s.ok).count() as u64;
    tally.fail(unanswered, || {
        format!("{unanswered} searches got an error or no reply")
    });
    let mut model = Model::new(corpus.iter().map(|o| o.keywords.as_slice()));
    let versions = apply_mutations(&mut model, &logs.mutations, &mut tally);
    let kept = thin(logs.search.kept, AUDIT_CAP);
    audit(&model, &kept, &versions, &mut tally);

    let search = summarize_searches(&phases, samples, shape.limit_us);
    let mut detail = vec![
        ("objects", Json::count(shape.objects as u64)),
        ("keywords_per_object", Json::count(shape.keywords as u64)),
        ("keyword_universe", Json::count(u64::from(shape.universe))),
        ("shards", Json::count(shape.shards as u64)),
        ("durable", Json::Bool(shape.durable)),
        ("data_dir_fs_type", Json::str(fs_type)),
        ("latency_limit_us", Json::num(shape.limit_us)),
        (
            "generator_threads",
            Json::count(shape.generator_threads as u64),
        ),
        (
            "input_checksum_fnv64",
            Json::str(format!("{input_checksum:016x}")),
        ),
        ("setups", Json::count(timings.len() as u64)),
        ("warmup_s", Json::num(WARMUP_S)),
        ("segments", Json::count(phases.measured.len() as u64)),
        ("segment_s", Json::num(phases.segments.segment_s())),
        (
            "searches_in_smallest_segment",
            Json::count(search.min_segment_samples as u64),
        ),
        ("search_per_segment", search.per_segment.clone()),
        ("searches_sent", Json::count(samples.len() as u64)),
        (
            "mutation_batches_sent",
            Json::count(logs.mutations.len() as u64),
        ),
        ("replies_audited", Json::count(kept.len() as u64)),
        ("model_versions", Json::count(u64::from(model.version()))),
    ];

    // the durable workload ends with a restart
    let recovered = match (kind, &data_dir) {
        (Kind::MixedDurable, Some(dir)) => Some((
            model.live_keywords(),
            shutdown_and_recover(
                stack,
                dir.path(),
                &model,
                opts.seed,
                rec.as_ref(),
                &mut tally,
            )?,
        )),
        _ => {
            drop(stack);
            None
        }
    };
    if let Some((live_keywords, r)) = &recovered {
        detail.extend([
            ("recover_s", Json::num(r.recover_s)),
            ("disk_bytes", Json::count(r.disk_bytes)),
            ("live_keywords", Json::count(*live_keywords as u64)),
        ]);
    }
    drop(data_dir);

    let mut metrics;
    if !opts.trace {
        metrics = Metrics::end_to_end();
        metrics.extend([
            (
                "setup_s",
                stats::median(&timings.iter().map(|t| t.setup_s).collect::<Vec<_>>()),
            ),
            ("search_p50_us", search.p50_us),
            ("search_p99_us", search.p99_us),
            ("search_qps", search.good_per_s),
            ("peak_rss_mb", peak_rss),
        ]);
    } else {
        metrics = Metrics::per_layer();
        let gained = gained(&snapshots, &phases.measured);
        let measured_us = phases.measured_us();
        let measured_samples: Vec<&SearchSample> = samples
            .iter()
            .filter(|s| phases.is_measured(s.due_us))
            .collect();
        // p50 over the measured segments of one figure of each search
        let p50_of = |over: &[usize], f: &dyn Fn(&SearchSample) -> f64| {
            let per_segment = phases
                .segments
                .split(samples, |s| s.due_us, |s| s.ok.then(|| f(s)));
            stats::median_of_segments(&pick(&per_segment, over), |s| stats::percentile(s, 0.5))
        };
        let late = stats::sort(measured_samples.iter().map(|s| s.late_us()).collect());
        let mutate = summarize_mutations(&phases, &logs.mutations, shape.limit_us);
        let last_setup = timings.last().expect("at least one set-up");
        metrics.extend([
            (
                "client.server_p50_us",
                p50_of(&phases.measured, &|s| s.server_us),
            ),
            (
                "client.decode_p50_us",
                p50_of(&phases.measured, &|s| s.full_us - s.server_us),
            ),
            ("client.search_p999_us", search.p999_us),
            ("client.sent", measured_samples.len() as f64),
            (
                "client.replies",
                measured_samples.iter().filter(|s| s.ok).count() as f64,
            ),
            (
                "client.remote_errors",
                measured_samples.iter().filter(|s| s.remote_error).count() as f64,
            ),
            ("client.mutate_p50_us", mutate.p50_us),
            ("client.mutate_p99_us", mutate.p99_us),
            ("client.mutate_rows_per_s", mutate.good_per_s),
            ("loadgen.late_p99_us", stats::percentile(&late, 0.99)),
            (
                "loadgen.offered_rps",
                measured_samples.len() as f64 / (measured_us / 1e6),
            ),
            ("loadgen.generator_threads", shape.generator_threads as f64),
            (
                "service.scheduler.learned_us_per_posting",
                learned_us_per_posting,
            ),
            ("core.index.build_s", last_setup.build_s),
            ("core.index.host_bytes", last_setup.host_bytes as f64),
            ("core.index.postings", last_setup.postings as f64),
            ("core.delta.delta_len_max", logs.delta_len_max as f64),
            ("core.delta.tombstones_max", logs.tombstones_max as f64),
            (
                "trace.overhead_share",
                ratio(
                    search.p50_us,
                    p50_of(&phases.reference, &|s| s.latency_us()),
                ) - 1.0,
            ),
            ("trace.spans", (spans.len() + measured_samples.len()) as f64),
        ]);
        layer_metrics(&mut metrics, &gained, &spans, measured_us);
        store_metrics(&mut metrics, &spans, &gained, measured_us);
        if let Some((live_keywords, r)) = &recovered {
            metrics.extend([
                ("store.recover_replayed_events", r.replayed_events as f64),
                ("store.recover_read_bytes", r.read_bytes as f64),
                ("store.recover_s", r.recover_s),
                (
                    "store.disk_bytes_per_user_byte",
                    ratio(r.disk_bytes as f64, 4.0 * *live_keywords as f64),
                ),
            ]);
        }

        // the ladder: the workload's own requests, unloaded, in groups
        // of the requests that shared a wave under load
        let time_box = Duration::from_secs_f64(opts.seconds / 20.0);
        let ladder_queries: Vec<Query> = kind.queries(opts.seed, 0x1ad, 1).take(2048).collect();
        let group = (ratio(gained["batched_requests"], gained["waves"]).round() as usize).max(1);
        let searched =
            ladder::search_ladder(&corpus, &ladder_queries, group, shape.shards, time_box)?;
        metrics.extend(searched.metrics.iter().copied());
        // the loaded p50 is per request, the wire rung's per group of
        // requests that wait for each other as they did in one wave
        metrics.set(
            "trace.ladder_over_loaded",
            ratio(searched.wire_p50_us, search.p50_us),
        );
        let mut rungs = searched.rungs;
        if kind == Kind::MixedDurable {
            let mutated = ladder::mutation_ladder(
                &corpus,
                shape.shards,
                BATCH,
                opts.seed,
                128,
                &opts.out_dir,
            )?;
            metrics.extend(mutated.metrics.iter().copied());
            rungs.extend(mutated.rungs);
        }

        let requests: Vec<ClientSpan> = measured_samples
            .iter()
            .map(|s| s.client_span())
            .chain(
                logs.mutations
                    .iter()
                    .filter(|r| phases.is_measured(r.due_us))
                    .map(MutateRecord::client_span),
            )
            .collect();
        write_trace(
            opts,
            shape.name,
            &requests,
            &spans,
            ladder::ladder_json(&rungs),
        )?;
        let audited = kept.len() + recovered.as_ref().map_or(0, |_| RECOVERY_AUDIT);
        metrics.extend([
            ("audit.audited", audited as f64),
            (
                "audit.failed_share",
                ratio(tally.failed as f64, tally.attempted as f64),
            ),
        ]);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail: Json::obj(detail),
        failures: tally.failures,
    })
}

//! `batch_domains`: the paper's own measure — time to answer a batch —
//! through the typed facade, in process. Two typed collections, rounds
//! of 1024 fresh τ-ANN queries + 1024 fresh corrupted titles, all 2048
//! through `Collection::submit` from one thread, then waited on in
//! order. Waves are size-triggered; there are no sockets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_core::backend::{CpuBackend, SearchBackend};
use genie_core::domain::Domain;
use genie_core::exec::Engine;
use genie_core::model::Query;
use genie_datasets::points::sift_like;
use genie_datasets::sequences::{dblp_like, modify_sequence};
use genie_lsh::e2lsh::E2Lsh;
use genie_lsh::{AnnIndex, Transformer};
use genie_sa::{SequenceIndex, SequenceSearchReport};
use genie_service::{Collection, GenieDb, QueryRequest, QueryScheduler, SchedulerConfig};
use gpu_sim::Device;
use rand::rngs::StdRng;
use rand::Rng;

use super::{
    another_setup, gained, layer_counters, layer_metrics, peak_rss_mb, ratio, service_config, thin,
    Counters, Metrics, Outcome, RunOpts, Tally, K, KEEP_EVERY,
};
use crate::gen::{self, Fnv64};
use crate::json::Json;
use crate::ladder::{replay, us, Rung};
use crate::model::Model;
use crate::stats;
use crate::trace::{write_trace, ClientSpan, Recorder, TracingBackend};

const POINTS: usize = 50_000;
const DIM: usize = 32;
const CLUSTERS: usize = 64;
/// E2LSH: functions, bucket width, re-hash domain.
const LSH_M: usize = 64;
const LSH_W: f32 = 16.0;
const LSH_DOMAIN: u32 = 4096;
/// Noise added to a corpus point to make a fresh query.
const QUERY_SIGMA: f32 = 2.0;
const TITLES: usize = 20_000;
const TITLE_LEN: usize = 40;
const NGRAM: usize = 3;
/// Share of a title's characters a query corrupts.
const EDIT_SHARE: f64 = 0.2;
/// Queries per domain per round.
const PER_DOMAIN: usize = 1024;
/// Sequence replies audited per run: each costs a brute-force edit
/// distance against every title.
const SEQUENCE_AUDITS: usize = 32;
const ANN_AUDITS: usize = 128;
/// The simulated-device batch of the traced run.
const ENGINE_QUERIES: usize = 256;
const ENGINE_OBJECTS: usize = 10_000;

type Ann = AnnIndex<E2Lsh>;

struct Inputs {
    points: Vec<Vec<f32>>,
    titles: Vec<Vec<u8>>,
    lsh_seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        Self {
            points: sift_like(POINTS, DIM, CLUSTERS, seed ^ 0x51f7),
            titles: dblp_like(TITLES, TITLE_LEN, seed ^ 0xdb19),
            lsh_seed: seed ^ 0x15a,
        }
    }

    fn transformer(&self) -> Transformer<E2Lsh> {
        Transformer::new(E2Lsh::new(LSH_M, DIM, LSH_W, self.lsh_seed), LSH_DOMAIN)
    }

    fn ann_queries(&self, rng: &mut StdRng, n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| gen::noisy_point(rng, &self.points, QUERY_SIGMA))
            .collect()
    }

    fn title_queries(&self, rng: &mut StdRng, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                let source = &self.titles[rng.random_range(0..self.titles.len())];
                modify_sequence(source, EDIT_SHARE, rng)
            })
            .collect()
    }

    fn checksum(&self, seed: u64) -> u64 {
        let mut h = Fnv64::default();
        let mut rng = gen::stream(seed, 2);
        let queries = self.ann_queries(&mut rng, 256);
        for p in self.points.iter().chain(&queries) {
            p.iter().for_each(|c| h.bytes(&c.to_le_bytes()));
        }
        for t in self.titles.iter().chain(&self.title_queries(&mut rng, 256)) {
            h.bytes(t);
        }
        h.finish()
    }
}

/// One set-up: the database and its two typed collections.
struct Stack {
    ann: Collection<Ann>,
    titles: Collection<SequenceIndex>,
    db: GenieDb,
    cpu: Arc<CpuBackend>,
}

impl Stack {
    /// Returns the stack and `(setup_s, index build share of it)`.
    /// Cloning the items happens before the clock starts.
    fn build(inputs: &Inputs, rec: Option<&Arc<Recorder>>) -> Result<(Self, f64), String> {
        let (points, titles) = (inputs.points.clone(), inputs.titles.clone());
        let started = Instant::now();
        let cpu = Arc::new(CpuBackend::new());
        let backend: Arc<dyn SearchBackend> = match rec {
            Some(rec) => Arc::new(TracingBackend::new(cpu.clone(), rec.clone())),
            None => cpu.clone(),
        };
        let db = GenieDb::open(vec![backend], SchedulerConfig::default(), service_config())
            .map_err(|e| e.to_string())?;
        let ann = db
            .create_collection::<Ann>("points", inputs.transformer(), points)
            .map_err(|e| e.to_string())?;
        let titles = db
            .create_collection::<SequenceIndex>("titles", NGRAM, titles)
            .map_err(|e| e.to_string())?;
        let setup_s = started.elapsed().as_secs_f64();
        Ok((
            Self {
                ann,
                titles,
                db,
                cpu,
            },
            setup_s,
        ))
    }

    fn counters(&self) -> Counters {
        layer_counters(&self.db.stats(), &self.cpu.kernel_stats(), None)
    }
}

enum KeptReply {
    Ann(Vec<f32>, genie_core::domain::MatchHits),
    Title(Vec<u8>, SequenceSearchReport),
}

struct Round {
    started_us: f64,
    wall_us: f64,
    submit_us: f64,
    wait_us: f64,
    /// Submit -> decoded typed answer, per query, sorted.
    latencies_us: Vec<f64>,
    answered: usize,
    certified: usize,
    kept: Vec<KeptReply>,
}

/// One round: submit all 2048, then wait on them in order.
fn round(
    stack: &Stack,
    ann_specs: Vec<Vec<f32>>,
    title_specs: Vec<Vec<u8>>,
    origin: Instant,
    sent_before: u64,
    tally: &mut Tally,
) -> Round {
    let started = Instant::now();
    let mut failed = 0u64;
    let ann_tickets: Vec<_> = ann_specs
        .into_iter()
        .filter_map(|spec| stack.ann.submit(spec, K).map_err(|_| failed += 1).ok())
        .collect();
    let title_tickets: Vec<_> = title_specs
        .into_iter()
        .filter_map(|spec| stack.titles.submit(spec, K).map_err(|_| failed += 1).ok())
        .collect();
    let submitted = Instant::now();
    let mut latencies_us = Vec::with_capacity(2 * PER_DOMAIN);
    let mut kept = Vec::new();
    let mut certified = 0;
    let mut n = sent_before;
    for ticket in ann_tickets {
        let keep = n.is_multiple_of(KEEP_EVERY).then(|| ticket.spec().clone());
        n += 1;
        let at = ticket.submitted_at();
        match ticket.wait() {
            Ok(hits) => {
                latencies_us.push(us(at.elapsed()));
                kept.extend(keep.map(|spec| KeptReply::Ann(spec, hits)));
            }
            Err(_) => failed += 1,
        }
    }
    for ticket in title_tickets {
        let keep = n.is_multiple_of(KEEP_EVERY).then(|| ticket.spec().clone());
        n += 1;
        let at = ticket.submitted_at();
        match ticket.wait() {
            Ok(report) => {
                latencies_us.push(us(at.elapsed()));
                certified += usize::from(report.certified);
                kept.extend(keep.map(|spec| KeptReply::Title(spec, report)));
            }
            Err(_) => failed += 1,
        }
    }
    let done = Instant::now();
    tally.attempt(2 * PER_DOMAIN as u64);
    tally.fail(failed, || {
        format!("{failed} typed searches failed in one round")
    });
    Round {
        started_us: us(started.duration_since(origin)),
        wall_us: us(done.duration_since(started)),
        submit_us: us(submitted.duration_since(started)),
        wait_us: us(done.duration_since(submitted)),
        answered: latencies_us.len(),
        latencies_us: stats::sort(latencies_us),
        certified,
        kept,
    }
}

/// Plain two-row edit distance, the audit's own.
fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
    let mut cur = vec![0u32; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            cur[j + 1] = (prev[j] + u32::from(ca != cb))
                .min(prev[j + 1] + 1)
                .min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// A sequence answer is right when every hit carries its true edit
/// distance, hits are in ascending distance, and — when the answer
/// claims the Theorem 5.2 certificate — its distances are exactly the
/// k smallest over the whole corpus.
fn check_titles(
    titles: &[Vec<u8>],
    query: &[u8],
    report: &SequenceSearchReport,
) -> Result<(), String> {
    let got: Vec<u32> = report.hits.iter().map(|h| h.distance).collect();
    if !got.windows(2).all(|w| w[0] <= w[1]) {
        return Err("sequence hits are not in ascending distance".into());
    }
    for hit in &report.hits {
        let title = titles
            .get(hit.id as usize)
            .ok_or_else(|| format!("sequence hit names unknown id {}", hit.id))?;
        let want = edit_distance(query, title);
        if want != hit.distance {
            return Err(format!(
                "title {} reported at distance {}, brute force says {want}",
                hit.id, hit.distance
            ));
        }
    }
    if report.certified {
        let mut all: Vec<u32> = titles.iter().map(|t| edit_distance(query, t)).collect();
        all.sort_unstable();
        all.truncate(K);
        if all != got {
            return Err(format!(
                "certified answer {got:?} is not the true top-k {all:?}"
            ));
        }
    }
    Ok(())
}

fn audit(stack: &Stack, inputs: &Inputs, kept: Vec<KeptReply>, tally: &mut Tally) -> usize {
    let ann_domain = stack.ann.domain();
    let objects: Vec<_> = inputs
        .points
        .iter()
        .map(|p| ann_domain.decompose(p).expect("corpus points are finite"))
        .collect();
    let model = Model::new(objects.iter().map(|o| o.keywords.as_slice()));
    let (mut anns, mut seqs) = (Vec::new(), Vec::new());
    for reply in kept {
        match reply {
            KeptReply::Ann(spec, hits) => anns.push((spec, hits)),
            KeptReply::Title(spec, report) => seqs.push((spec, report)),
        }
    }
    let (anns, seqs) = (thin(anns, ANN_AUDITS), thin(seqs, SEQUENCE_AUDITS));
    let audited = anns.len() + seqs.len();
    let (ann_results, seq_results) = std::thread::scope(|s| {
        let other = s.spawn(|| {
            seqs.iter()
                .map(|(spec, report)| check_titles(&inputs.titles, spec, report))
                .collect::<Vec<_>>()
        });
        let mine: Vec<_> = anns
            .iter()
            .map(|(spec, hits)| {
                let query = ann_domain.encode(spec).map_err(|e| e.to_string())?;
                model.check(&query, K, (0, 0), &hits.hits, hits.audit_threshold)
            })
            .collect();
        (mine, other.join().expect("audit thread panicked"))
    });
    for r in ann_results.into_iter().chain(seq_results) {
        tally.check(r.map_err(|e| format!("audit: {e}")));
    }
    audited
}

/// Encode -> kernel -> decode of one domain, each timed directly, and
/// the rungs above them; all per query, over groups of one round.
struct DomainLadder {
    encode_us: f64,
    kernel_us: f64,
    decode_us: f64,
    rungs: Vec<Rung>,
    /// (raw `submit_to` rung, facade rung), microseconds per query.
    submit_to_us: f64,
    facade_us: f64,
}

fn domain_ladder<D: Domain>(
    name: [&'static str; 5],
    collection: &Collection<D>,
    service: &genie_service::GenieService,
    specs: &[D::QuerySpec],
    time_box: Duration,
) -> Result<DomainLadder, String>
where
    D::QuerySpec: Clone,
{
    let domain = collection.domain();
    let kc = domain.candidates_for(K);
    let group = PER_DOMAIN.min(specs.len());
    let mut queries: Vec<Query> = Vec::new();
    let encoded = replay(name[0], specs, group, time_box, |g| {
        queries.extend(
            g.iter()
                .map(|s| domain.encode(s).expect("generated specs encode")),
        );
    });
    let queries = &queries[..];

    let cpu = CpuBackend::new();
    let bindex = cpu.upload(Arc::clone(domain.index()))?;
    let mut outputs = Vec::new();
    let kernel = replay(name[1], queries, group, time_box, |g| {
        let out = cpu.search_batch(&bindex, g, kc);
        outputs.extend(out.results.into_iter().zip(out.audit_thresholds));
    });
    let mut decoded = 0usize;
    let t = Instant::now();
    for (spec, (hits, at)) in specs.iter().zip(outputs) {
        std::hint::black_box(domain.decode(spec, hits, at, kc, K));
        decoded += 1;
    }
    let decode_us = us(t.elapsed()) / decoded.max(1) as f64;

    let scheduler = QueryScheduler::new(
        vec![Arc::new(CpuBackend::new())],
        SchedulerConfig::default(),
    );
    let prepared = scheduler.prepare(domain.index())?;
    let requests: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| QueryRequest::new(i as u64, q.clone(), kc))
        .collect();
    let scheduled = replay(name[2], &requests, group, time_box, |g| {
        std::hint::black_box(scheduler.run_prepared(&prepared, g).expect("wave served"));
    });
    let raw = replay(name[3], queries, group, time_box, |g| {
        let tickets: Vec<_> = g
            .iter()
            .map(|q| service.submit_to(collection.id(), q.clone(), kc))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("ladder request served");
        }
    });
    let facade = replay(name[4], specs, group, time_box, |g| {
        let tickets: Vec<_> = g
            .iter()
            .map(|s| {
                collection
                    .submit(s.clone(), K)
                    .expect("generated specs encode")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().expect("ladder request served");
        }
    });
    Ok(DomainLadder {
        encode_us: encoded.us_per_request(),
        kernel_us: kernel.us_per_request(),
        decode_us,
        submit_to_us: raw.us_per_request(),
        facade_us: facade.us_per_request(),
        rungs: vec![encoded, kernel, scheduled, raw, facade],
    })
}

/// One batch on the simulated device: the only place the paper's c-PQ
/// pipeline is visible. The modelled times are counts that repeat
/// exactly; they move no end-to-end metric.
fn engine_metrics(inputs: &Inputs, rng: &mut StdRng) -> Result<Vec<(&'static str, f64)>, String> {
    let prefix = &inputs.points[..ENGINE_OBJECTS];
    let ann = Ann::create(inputs.transformer(), prefix.to_vec());
    let queries: Vec<Query> = (0..ENGINE_QUERIES)
        .map(|_| ann.encode(&gen::noisy_point(rng, prefix, QUERY_SIGMA)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let engine = Engine::new(Arc::new(Device::with_defaults()));
    let dindex = engine.upload(Arc::clone(ann.index()))?;
    let out = engine.search(&dindex, &queries, K);
    let per_query = |v: f64| v / ENGINE_QUERIES as f64;
    Ok(vec![
        (
            "core.engine.sim_match_us_per_query",
            per_query(out.profile.match_us),
        ),
        (
            "core.engine.sim_select_us_per_query",
            per_query(out.profile.select_us),
        ),
        (
            "core.engine.sim_query_transfer_us",
            out.profile.query_transfer_us,
        ),
        (
            "core.engine.cpq_bytes_per_query",
            out.cpq_bytes_per_query as f64,
        ),
        (
            "core.engine.host_us_per_query",
            per_query(out.profile.host_us),
        ),
    ])
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let inputs = Inputs::new(opts.seed);
    let input_checksum = inputs.checksum(opts.seed);
    let rec = opts.trace.then(|| Recorder::new(Instant::now()));
    let origin = rec.as_ref().map_or_else(Instant::now, |r| r.origin());

    let mut setups = Vec::new();
    let mut built = None;
    while another_setup(opts.trace, setups.len(), setups.iter().sum()) {
        drop(built.take());
        let (stack, setup_s) = Stack::build(&inputs, rec.as_ref())?;
        setups.push(setup_s);
        built = Some(stack);
    }
    let stack = built.expect("at least one set-up");

    // one warm-up round (scratch pools, lazy set-up), then rounds for
    // the run's seconds; a traced run alternates untraced and traced
    // rounds for half its seconds and spends the rest on the ladder
    let mut rng = gen::stream(opts.seed, 3);
    let timed_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let fresh = |rng: &mut StdRng| {
        (
            inputs.ann_queries(rng, PER_DOMAIN),
            inputs.title_queries(rng, PER_DOMAIN),
        )
    };
    let (a, t) = fresh(&mut rng);
    round(&stack, a, t, origin, 1, &mut Tally::default());
    let mut rounds: Vec<Round> = Vec::new();
    let mut snapshots: Vec<Counters> = vec![stack.counters()];
    let timed_start = Instant::now();
    // an even number of rounds, so traced and untraced ones pair up
    while timed_start.elapsed().as_secs_f64() < timed_s || rounds.len() % 2 == 1 {
        let (a, t) = fresh(&mut rng);
        if let Some(rec) = &rec {
            rec.set_enabled(rounds.len() % 2 == 1);
        }
        let sent_before = (rounds.len() * 2 * PER_DOMAIN) as u64;
        rounds.push(round(&stack, a, t, origin, sent_before, &mut tally));
        snapshots.push(stack.counters());
    }
    // read before the audit builds its model
    let peak_rss = peak_rss_mb();
    let spans = rec.as_ref().map(|r| r.drain()).unwrap_or_default();
    let kept: Vec<KeptReply> = rounds.iter_mut().flat_map(|r| r.kept.drain(..)).collect();
    let measured: Vec<usize> = (0..rounds.len())
        .filter(|i| !opts.trace || i % 2 == 1)
        .collect();
    let of_measured = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> {
        measured.iter().map(|&i| f(&rounds[i])).collect()
    };
    let qps = stats::median(&of_measured(&|r| r.answered as f64 / (r.wall_us / 1e6)));
    let p50 = stats::median(&of_measured(&|r| stats::percentile(&r.latencies_us, 0.5)));
    let p99 = stats::median(&of_measured(&|r| stats::percentile(&r.latencies_us, 0.99)));
    let learned_us_per_posting = stack.db.stats().learned_us_per_posting;

    let audited = audit(&stack, &inputs, kept, &mut tally);

    let detail = Json::obj(vec![
        ("points", Json::count(POINTS as u64)),
        ("point_dimensions", Json::count(DIM as u64)),
        ("lsh_functions", Json::count(LSH_M as u64)),
        ("lsh_bucket_width", Json::num(LSH_W)),
        ("lsh_rehash_domain", Json::count(u64::from(LSH_DOMAIN))),
        ("titles", Json::count(TITLES as u64)),
        ("ngram", Json::count(NGRAM as u64)),
        ("queries_per_round", Json::count(2 * PER_DOMAIN as u64)),
        ("rounds", Json::count(measured.len() as u64)),
        ("setups", Json::count(setups.len() as u64)),
        ("generator_threads", Json::count(1)),
        (
            "input_checksum_fnv64",
            Json::str(format!("{input_checksum:016x}")),
        ),
        ("replies_audited", Json::count(audited as u64)),
    ]);

    let mut metrics;
    if !opts.trace {
        metrics = Metrics::end_to_end();
        metrics.extend([
            ("setup_s", stats::median(&setups)),
            ("search_p50_us", p50),
            ("search_p99_us", p99),
            ("search_qps", qps),
        ]);
    } else {
        metrics = Metrics::per_layer();
        let gained = gained(&snapshots, &measured);
        let measured_us: f64 = of_measured(&|r| r.wall_us).iter().sum();
        layer_metrics(&mut metrics, &gained, &spans, measured_us);
        let untraced: Vec<f64> = rounds.iter().step_by(2).map(|r| r.wall_us).collect();
        let per_query = |f: &dyn Fn(&Round) -> f64| {
            stats::median(&of_measured(&|r| f(r) / (2 * PER_DOMAIN) as f64))
        };
        let answered: usize = measured.iter().map(|&i| rounds[i].answered).sum();
        let certified: usize = measured.iter().map(|&i| rounds[i].certified).sum();
        metrics.extend([
            ("loadgen.offered_rps", qps),
            ("loadgen.generator_threads", 1.0),
            (
                "service.scheduler.learned_us_per_posting",
                learned_us_per_posting,
            ),
            (
                "service.facade.submit_us_per_query",
                per_query(&|r| r.submit_us),
            ),
            (
                "service.facade.wait_decode_us_per_query",
                per_query(&|r| r.wait_us),
            ),
            // from outside, building the two indexes cannot be told from
            // the rest of create_collection: the whole set-up is reported
            ("core.index.build_s", stats::median(&setups)),
            (
                "core.index.host_bytes",
                (stack.ann.domain().index().host_bytes()
                    + stack.titles.domain().index().host_bytes()) as f64,
            ),
            (
                "core.index.postings",
                (stack.ann.domain().index().list_array().len()
                    + stack.titles.domain().index().list_array().len()) as f64,
            ),
            (
                "sa.sequence.certified_share",
                ratio(certified as f64, (measured.len() * PER_DOMAIN) as f64),
            ),
            (
                "trace.overhead_share",
                ratio(
                    stats::median(&of_measured(&|r| r.wall_us)),
                    stats::median(&untraced),
                ) - 1.0,
            ),
            ("trace.spans", (spans.len() + answered) as f64),
        ]);

        // the ladder, one domain at a time, on the stack the rounds used
        // (unloaded now); specs are fresh, so the cache cannot answer
        let time_box = Duration::from_secs_f64(opts.seconds / 40.0);
        let (ann_specs, title_specs) = (
            inputs.ann_queries(&mut rng, 2 * PER_DOMAIN),
            inputs.title_queries(&mut rng, 2 * PER_DOMAIN),
        );
        let ann = domain_ladder(
            [
                "AnnIndex::encode",
                "CpuBackend::search_batch (tau-ANN)",
                "QueryScheduler::run_prepared (tau-ANN)",
                "GenieService::submit_to(..).wait() (tau-ANN)",
                "Collection::submit(..).wait() (tau-ANN)",
            ],
            &stack.ann,
            stack.db.service(),
            &ann_specs,
            time_box,
        )?;
        let seq = domain_ladder(
            [
                "SequenceIndex::encode",
                "CpuBackend::search_batch (sequence)",
                "QueryScheduler::run_prepared (sequence)",
                "GenieService::submit_to(..).wait() (sequence)",
                "Collection::submit(..).wait() (sequence)",
            ],
            &stack.titles,
            stack.db.service(),
            &title_specs,
            time_box,
        )?;
        let facade_us = (ann.facade_us + seq.facade_us) / 2.0;
        metrics.extend([
            ("lsh.ann.encode_us_per_query", ann.encode_us),
            ("lsh.ann.kernel_us_per_query", ann.kernel_us),
            ("lsh.ann.decode_us_per_query", ann.decode_us),
            ("sa.sequence.encode_us_per_query", seq.encode_us),
            ("sa.sequence.kernel_us_per_query", seq.kernel_us),
            ("sa.sequence.decode_us_per_query", seq.decode_us),
            (
                "service.facade.overhead_us_per_query",
                facade_us - (ann.submit_to_us + seq.submit_to_us) / 2.0,
            ),
            (
                "core.kernel.direct_us_per_query",
                (ann.kernel_us + seq.kernel_us) / 2.0,
            ),
            // one round through the facade, unloaded, against the same
            // round under the benchmark's back-to-back rounds
            (
                "trace.ladder_over_loaded",
                ratio(
                    facade_us * (2 * PER_DOMAIN) as f64,
                    stats::median(&of_measured(&|r| r.wall_us)),
                ),
            ),
        ]);
        metrics.extend(engine_metrics(&inputs, &mut rng)?);

        let requests: Vec<ClientSpan> = measured
            .iter()
            .map(|&i| {
                let r = &rounds[i];
                ClientSpan {
                    op: "round of 2048 typed searches",
                    due_us: r.started_us,
                    sent_us: r.started_us,
                    first_byte_us: r.started_us + r.submit_us,
                    decoded_us: r.started_us + r.wall_us,
                }
            })
            .collect();
        let rungs: Vec<Rung> = ann.rungs.into_iter().chain(seq.rungs).collect();
        write_trace(
            opts,
            "batch_domains",
            &requests,
            &spans,
            crate::ladder::ladder_json(&rungs),
        )?;
        metrics.set("audit.audited", audited as f64);
        metrics.set(
            "audit.failed_share",
            ratio(tally.failed as f64, tally.attempted as f64),
        );
    }
    drop(stack);
    if !opts.trace {
        metrics.set("peak_rss_mb", peak_rss);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
        failures: tally.failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_edit_distance_agrees_with_the_textbook_cases() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"", b"abc"), 3);
        assert_eq!(edit_distance(b"abc", b""), 3);
        assert_eq!(edit_distance(b"same", b"same"), 0);
        assert_eq!(edit_distance(b"flaw", b"lawn"), 2);
    }

    #[test]
    fn sequence_audit_catches_a_wrong_distance_and_a_false_certificate() {
        use genie_sa::verify::VerifiedHit;
        let titles: Vec<Vec<u8>> = [&b"parallel index"[..], b"parallel indexes", b"graph mining"]
            .iter()
            .map(|t| t.to_vec())
            .collect();
        let report = |hits: Vec<(u32, u32)>, certified| SequenceSearchReport {
            hits: hits
                .into_iter()
                .map(|(id, distance)| VerifiedHit { id, distance })
                .collect(),
            certified,
            k_candidates: 32,
        };
        let query = b"parallel index";
        // K = 10 > corpus size: the true top-k is all three titles
        let far = edit_distance(query, &titles[2]);
        check_titles(
            &titles,
            query,
            &report(vec![(0, 0), (1, 2), (2, far)], true),
        )
        .unwrap();
        check_titles(&titles, query, &report(vec![(0, 0)], false)).unwrap();
        assert!(check_titles(&titles, query, &report(vec![(0, 1)], false)).is_err());
        assert!(check_titles(&titles, query, &report(vec![(1, 2), (0, 0)], false)).is_err());
        assert!(check_titles(&titles, query, &report(vec![(0, 0)], true)).is_err());
    }
}

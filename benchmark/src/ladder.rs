//! The ladder replay: a workload's own requests, unloaded, through
//! each nesting rung of the stack. A layer's self time is its rung's
//! p50 minus the rung below it.
//!
//! Requests travel in groups of the occupancy the loaded run observed,
//! so a rung times "one wave's worth of requests through this level":
//! `search_batch(group)`, `run_prepared(group)`, `submit_to` x group
//! then wait for all, `Client::send` x group then wait for all. Every
//! rung runs on a fresh stack built from the corpus, never on the stack
//! the load ran against.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_client::Client;
use genie_core::backend::{CpuBackend, SearchBackend};
use genie_core::delta::DeltaPlan;
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{Object, Query};
use genie_core::shard::{merge_shard_topk, ShardPlan};
use genie_core::topk::TopHit;
use genie_net::frame::{self, Request, Response};
use genie_net::server::{NetServer, ServerConfig};
use genie_service::{
    plan_batches_with_cost, GenieDb, GenieService, QueryRequest, QueryScheduler, SchedulerConfig,
};

use crate::json::Json;
use crate::load::{BatchPicker, BatchShape};
use crate::stats;
use crate::workloads::{service_config, TempDir, K};

/// Requests replayed through a rung, unless its time box closes first.
const RUNG_REQUESTS: usize = 2048;
/// Groups a rung runs at least, time box or not.
const MIN_GROUPS: usize = 4;
/// Explicit compactions the mutation ladder times.
const COMPACTIONS: usize = 6;

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn build_index(corpus: &[Object]) -> Arc<InvertedIndex> {
    let mut builder = IndexBuilder::new();
    builder.add_objects(corpus.iter());
    Arc::new(builder.build(None))
}

/// One rung's timings: microseconds per group.
pub struct Rung {
    pub name: &'static str,
    pub group: usize,
    pub per_group_us: Vec<f64>,
}

impl Rung {
    pub fn p50_us(&self) -> f64 {
        stats::median(&self.per_group_us)
    }

    pub fn us_per_request(&self) -> f64 {
        let requests = self.group * self.per_group_us.len();
        self.per_group_us.iter().sum::<f64>() / requests.max(1) as f64
    }

    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("rung", Json::str(self.name)),
            ("requests_per_group", Json::count(self.group as u64)),
            ("groups", Json::count(self.per_group_us.len() as u64)),
            ("p50_us_per_group", Json::num(self.p50_us())),
            ("us_per_request", Json::num(self.us_per_request())),
        ])
    }
}

/// Time `call` on successive groups of `queries` until `RUNG_REQUESTS`
/// went through or `time_box` closed (after at least `MIN_GROUPS`).
pub fn replay<Q>(
    name: &'static str,
    queries: &[Q],
    group: usize,
    time_box: Duration,
    mut call: impl FnMut(&[Q]),
) -> Rung {
    let started = Instant::now();
    let mut per_group_us = Vec::new();
    for chunk in queries.chunks(group).filter(|c| c.len() == group) {
        let done = per_group_us.len();
        if done * group >= RUNG_REQUESTS || (done >= MIN_GROUPS && started.elapsed() > time_box) {
            break;
        }
        let t = Instant::now();
        call(chunk);
        per_group_us.push(us(t.elapsed()));
    }
    Rung {
        name,
        group,
        per_group_us,
    }
}

fn requests_of(queries: &[Query]) -> Vec<QueryRequest> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| QueryRequest::new(i as u64, q.clone(), K))
        .collect()
}

/// A non-durable service over `index` with the pinned config.
fn plain_service(
    index: &Arc<InvertedIndex>,
    shards: usize,
) -> Result<(Arc<GenieService>, u64), String> {
    let db = GenieDb::open(
        vec![Arc::new(CpuBackend::new())],
        SchedulerConfig::default(),
        service_config(),
    )
    .map_err(|e| e.to_string())?;
    let collection = db
        .service()
        .add_collection_sharded("ladder", index, shards)
        .map_err(|e| e.to_string())?;
    Ok((db.service_handle(), collection))
}

fn submit_and_wait(service: &GenieService, collection: u64, group: &[Query]) {
    let tickets: Vec<_> = group
        .iter()
        .map(|q| service.submit_to(collection, q.clone(), K))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("ladder request served");
    }
}

pub struct SearchLadder {
    pub rungs: Vec<Rung>,
    pub metrics: Vec<(&'static str, f64)>,
    /// p50 of the outermost (wire) rung, microseconds per group.
    pub wire_p50_us: f64,
}

/// The search ladder of a wire workload.
pub fn search_ladder(
    corpus: &[Object],
    queries: &[Query],
    occupancy: usize,
    shards: usize,
    time_box: Duration,
) -> Result<SearchLadder, String> {
    let group = occupancy.clamp(1, queries.len());
    let index = build_index(corpus);
    let mut metrics = Vec::new();
    let mut rungs = Vec::new();

    // rung 2 first: its answers are the response frames of rung 1
    let cpu = CpuBackend::new();
    let bindex = cpu.upload(Arc::clone(&index))?;
    let mut answers: Vec<(Vec<TopHit>, u32)> = Vec::new();
    let kernel = replay("CpuBackend::search_batch", queries, group, time_box, |g| {
        let out = std::hint::black_box(cpu.search_batch(&bindex, g, K));
        answers.extend(out.results.into_iter().zip(out.audit_thresholds));
    });
    metrics.push(("core.kernel.direct_us_per_query", kernel.us_per_request()));

    // rung 1: frame encode/decode, one request at a time
    let n = answers.len().min(queries.len()).max(1);
    let frames: Vec<(Request, Response)> = queries
        .iter()
        .zip(&answers)
        .map(|(q, (hits, at))| {
            (
                Request::Search {
                    collection: 0,
                    k: K as u32,
                    query: q.clone(),
                },
                Response::Search {
                    rounds: 1,
                    audit_threshold: *at,
                    hits: hits.clone(),
                },
            )
        })
        .collect();
    let t = Instant::now();
    let request_frames: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .map(|(i, (req, _))| frame::encode_request(i as u64 + 1, req))
        .collect();
    let encode_request_ns = us(t.elapsed()) * 1e3 / n as f64;
    let t = Instant::now();
    for bytes in &request_frames {
        std::hint::black_box(frame::decode_request(&bytes[4..]).expect("own frame decodes"));
    }
    let decode_request_ns = us(t.elapsed()) * 1e3 / n as f64;
    let t = Instant::now();
    let response_frames: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .map(|(i, (_, resp))| frame::encode_response(i as u64 + 1, resp))
        .collect();
    let encode_response_ns = us(t.elapsed()) * 1e3 / n as f64;
    let t = Instant::now();
    for bytes in &response_frames {
        std::hint::black_box(frame::decode_response(&bytes[4..]).expect("own frame decodes"));
    }
    let decode_response_ns = us(t.elapsed()) * 1e3 / n as f64;
    let mean_len = |fs: &[Vec<u8>]| fs.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    metrics.extend([
        ("net.frame.encode_request_ns", encode_request_ns),
        ("net.frame.decode_request_ns", decode_request_ns),
        ("net.frame.encode_response_ns", encode_response_ns),
        ("net.frame.decode_response_ns", decode_response_ns),
        ("net.frame.request_bytes", mean_len(&request_frames)),
        ("net.frame.response_bytes", mean_len(&response_frames)),
    ]);
    let frame_us_per_request =
        (encode_request_ns + decode_request_ns + encode_response_ns + decode_response_ns) / 1e3;
    rungs.push(Rung {
        name: "frame::{encode,decode}_{request,response}",
        group,
        per_group_us: vec![frame_us_per_request * group as f64],
    });

    // rung 3: the scheduler over the same backend kind
    let scheduler = QueryScheduler::new(
        vec![Arc::new(CpuBackend::new())],
        SchedulerConfig::default(),
    );
    let prepared = scheduler.prepare(&index)?;
    let requests = requests_of(queries);
    let scheduled = replay(
        "QueryScheduler::run_prepared",
        &requests,
        group,
        time_box,
        |g| {
            std::hint::black_box(scheduler.run_prepared(&prepared, g).expect("wave served"));
        },
    );
    let planned = replay("plan_batches_with_cost", &requests, group, time_box, |g| {
        std::hint::black_box(plan_batches_with_cost(
            g,
            index.num_objects() as usize,
            index.max_object_len(),
            scheduler.config().max_batch_queries,
            None,
            None,
            None,
        ));
    });
    metrics.push(("service.scheduler.plan_us_per_wave", planned.p50_us()));

    // rung 4: the admission service, unsharded
    let (service, collection) = plain_service(&index, 1)?;
    let served = replay(
        "GenieService::submit_to(..).wait()",
        queries,
        group,
        time_box,
        |g| submit_and_wait(&service, collection, g),
    );
    metrics.push((
        "service.admission.queue_wait_p50_us",
        served.p50_us() - scheduled.p50_us(),
    ));
    drop(service);

    // rung 4 again at the workload's shard count: fan-out and merge
    let (shaped, shaped_collection) = plain_service(&index, shards)?;
    let mut below_wire_p50 = served.p50_us();
    let mut fanout_rung = None;
    if shards > 1 {
        let fanned = replay(
            "GenieService::submit_to(..).wait(), sharded",
            queries,
            group,
            time_box,
            |g| submit_and_wait(&shaped, shaped_collection, g),
        );
        metrics.push((
            "core.shard.fanout_overhead_p50_us",
            fanned.p50_us() - served.p50_us(),
        ));
        below_wire_p50 = fanned.p50_us();
        fanout_rung = Some(fanned);

        let plan = ShardPlan::from_index(&index, shards).map_err(|e| e.to_string())?;
        let mut merge_us = 0.0;
        let mut merged = 0usize;
        for g in queries.chunks(group).take(MIN_GROUPS * 4) {
            let per_shard: Vec<Vec<Vec<TopHit>>> = plan
                .shards()
                .iter()
                .map(|shard| {
                    let b = cpu.upload(Arc::clone(&shard.index)).expect("cpu upload");
                    let out = cpu.search_batch(&b, g, K);
                    out.results
                        .iter()
                        .map(|hits| shard.to_global(hits))
                        .collect()
                })
                .collect();
            for qi in 0..g.len() {
                let lists: Vec<Vec<TopHit>> = per_shard.iter().map(|s| s[qi].clone()).collect();
                let t = Instant::now();
                std::hint::black_box(merge_shard_topk(lists, K));
                merge_us += us(t.elapsed());
                merged += 1;
            }
        }
        metrics.push((
            "core.shard.merge_us_per_query",
            merge_us / merged.max(1) as f64,
        ));
    }

    // rung 6: the wire, over the workload-shaped service
    let mut server = NetServer::spawn(Arc::clone(&shaped), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let wire = replay("Client::call", queries, group, time_box, |g| {
        let pending: Vec<_> = g
            .iter()
            .map(|q| {
                client
                    .send(&Request::Search {
                        collection: shaped_collection,
                        k: K as u32,
                        query: q.clone(),
                    })
                    .expect("ladder send")
            })
            .collect();
        for p in pending {
            p.wait().expect("ladder reply");
        }
    });
    drop(client);
    server.shutdown();
    metrics.push(("net.server.self_p50_us", wire.p50_us() - below_wire_p50));

    let wire_p50_us = wire.p50_us();
    rungs.extend([kernel, planned, scheduled, served]);
    rungs.extend(fanout_rung);
    rungs.push(wire);
    Ok(SearchLadder {
        rungs,
        metrics,
        wire_p50_us,
    })
}

pub struct MutationLadder {
    pub rungs: Vec<Rung>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The mutation ladder of `wire_mixed_durable`: `DeltaPlan` staging ->
/// `mutate_collection` without a store -> with the store ->
/// `Client::mutate`, plus explicit compactions on the way.
pub fn mutation_ladder(
    corpus: &[Object],
    shards: usize,
    shape: BatchShape,
    seed: u64,
    batches: usize,
    scratch: &Path,
) -> Result<MutationLadder, String> {
    let index = build_index(corpus);
    let compact_after = service_config().compact_after;
    let rows = shape.inserts + shape.deletes;
    let picker = |lane: u64| BatchPicker::new(crate::gen::stream(seed, lane), corpus.len(), shape);
    let to_objects =
        |inserts: Vec<Vec<u32>>| inserts.into_iter().map(Object::new).collect::<Vec<_>>();

    // staging alone: clone the plan, apply the batch, rebuild the delta
    // shard — what mutate_collection does before it touches a backend
    let base = ShardPlan::from_index(&index, shards)
        .map_err(|e| e.to_string())?
        .shards()
        .to_vec();
    let fresh = DeltaPlan::from_base(base, None);
    let mut plan = fresh.clone();
    let mut pick = picker(0x51);
    let mut stage_us = Vec::new();
    for _ in 0..batches {
        // debt folds away at compact_after, as the compactor would do
        if plan.delta_len() + plan.num_tombstones() >= compact_after {
            plan = fresh.clone();
            pick = picker(0x51);
        }
        let (deletes, inserts) = pick.pick();
        let inserts = to_objects(inserts);
        let t = Instant::now();
        let mut staged = plan.clone();
        for &id in &deletes {
            assert!(staged.delete(id), "picker deletes live ids");
        }
        let ids: Vec<u32> = inserts.into_iter().map(|o| staged.insert(o)).collect();
        std::hint::black_box(staged.delta_shard());
        stage_us.push(us(t.elapsed()));
        plan = staged;
        pick.acked(&ids);
    }
    let staged = Rung {
        name: "DeltaPlan clone + apply + delta_shard",
        group: 1,
        per_group_us: stage_us,
    };

    // mutate_collection with no store attached (the background
    // compactor folds debt at compact_after, as under load)
    let (service, collection) = plain_service(&index, shards)?;
    let mut pick = picker(0x52);
    let mutate = |service: &GenieService, pick: &mut BatchPicker| -> Result<f64, String> {
        let (deletes, inserts) = pick.pick();
        let inserts = to_objects(inserts);
        let t = Instant::now();
        let ids = service
            .mutate_collection(collection, &deletes, inserts, &mut |_, _| {})
            .map_err(|e| e.to_string())?;
        let took = us(t.elapsed());
        pick.acked(&ids);
        Ok(took)
    };
    let mut inproc_us = Vec::new();
    for _ in 0..batches {
        inproc_us.push(mutate(&service, &mut pick)?);
    }
    // explicit compactions at half the automatic threshold of debt
    let mut compact_ms = Vec::new();
    for _ in 0..COMPACTIONS {
        service
            .compact_collection(collection)
            .map_err(|e| e.to_string())?;
        for _ in 0..(compact_after / 2 / rows).max(1) {
            mutate(&service, &mut pick)?;
        }
        let t = Instant::now();
        if service
            .compact_collection(collection)
            .map_err(|e| e.to_string())?
        {
            compact_ms.push(us(t.elapsed()) / 1e3);
        }
    }
    drop(service);
    let inproc = Rung {
        name: "mutate_collection, no store",
        group: 1,
        per_group_us: inproc_us,
    };

    // the same with the journal attached, then through the wire
    let dir = TempDir::create(scratch, "ladder")?;
    let db = GenieDb::open_at(
        dir.path(),
        vec![Arc::new(CpuBackend::new())],
        SchedulerConfig::default(),
        service_config(),
    )
    .map_err(|e| e.to_string())?;
    let collection = db
        .service()
        .add_collection_sharded("ladder", &index, shards)
        .map_err(|e| e.to_string())?;
    let mut pick = picker(0x53);
    let mut durable_us = Vec::new();
    for _ in 0..batches {
        let (deletes, inserts) = pick.pick();
        let inserts = to_objects(inserts);
        let t = Instant::now();
        let ids = db
            .service()
            .mutate_collection(collection, &deletes, inserts, &mut |_, _| {})
            .map_err(|e| e.to_string())?;
        durable_us.push(us(t.elapsed()));
        pick.acked(&ids);
    }
    let durable = Rung {
        name: "mutate_collection, journaled + fsynced",
        group: 1,
        per_group_us: durable_us,
    };
    let mut server = NetServer::spawn(db.service_handle(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut wire_us = Vec::new();
    for _ in 0..batches {
        let (deletes, inserts) = pick.pick();
        let t = Instant::now();
        let ids = client
            .mutate(collection, deletes, inserts)
            .map_err(|e| e.to_string())?;
        wire_us.push(us(t.elapsed()));
        pick.acked(&ids);
    }
    drop(client);
    server.shutdown();
    drop(server);
    drop(db);
    let wire = Rung {
        name: "Client::mutate",
        group: 1,
        per_group_us: wire_us,
    };

    let metrics = vec![
        ("core.delta.stage_us_per_batch", staged.us_per_request()),
        ("service.mutate.inproc_p50_us", inproc.p50_us()),
        ("core.delta.compact_ms_p50", stats::median(&compact_ms)),
    ];
    Ok(MutationLadder {
        rungs: vec![staged, inproc, durable, wire],
        metrics,
    })
}

pub fn ladder_json(rungs: &[Rung]) -> Json {
    Json::obj(vec![
        (
            "how_to_read",
            Json::str(
                "Rungs are listed innermost first. A layer's self time is its rung's \
                 p50_us_per_group minus the rung below it.",
            ),
        ),
        ("rungs", Json::Arr(rungs.iter().map(Rung::json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn replay_stops_at_the_request_cap_and_honours_the_minimum() {
        let items: Vec<u32> = (0..10_000).collect();
        let mut seen = 0usize;
        let rung = replay("cap", &items, 64, Duration::from_secs(60), |g| {
            seen += g.len()
        });
        assert_eq!(rung.per_group_us.len(), RUNG_REQUESTS / 64);
        assert_eq!(seen, RUNG_REQUESTS);
        // a closed time box still runs MIN_GROUPS groups
        let rung = replay("box", &items, 8, Duration::ZERO, |_| {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert_eq!(rung.per_group_us.len(), MIN_GROUPS);
        // a ragged tail group is never timed
        let rung = replay("tail", &items[..20], 8, Duration::from_secs(60), |g| {
            assert_eq!(g.len(), 8)
        });
        assert_eq!(rung.per_group_us.len(), 2);
    }

    #[test]
    fn a_small_search_ladder_nests() {
        let corpus = gen::uniform_corpus(&mut gen::stream(5, 1), 2000, 8, 500);
        let queries: Vec<Query> = (0..64)
            .map(|_| gen::exact_query(&mut gen::stream(5, 2), 4, 500))
            .collect();
        let ladder = search_ladder(&corpus, &queries, 4, 2, Duration::from_millis(200)).unwrap();
        let p50 = |needle: &str| {
            ladder
                .rungs
                .iter()
                .find(|r| r.name.contains(needle))
                .unwrap_or_else(|| panic!("no rung {needle}"))
                .p50_us()
        };
        // the deadline wait dominates the service rung: it cannot be
        // cheaper than the bare scheduler run it contains
        assert!(p50("submit_to(..).wait()") > p50("run_prepared"));
        assert!(p50("Client::call") > 0.0);
        assert!(ladder
            .metrics
            .iter()
            .any(|(n, _)| *n == "core.shard.merge_us_per_query"));
        assert!(ladder.wire_p50_us > 0.0);
    }
}

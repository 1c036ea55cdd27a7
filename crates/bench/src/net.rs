//! The network-serving load generator (`repro --net`): a sky-bench
//! style harness driving a loopback [`NetServer`] through real
//! `genie-client` connections.
//!
//! Where [`serving`](crate::serving) measures the in-process admission
//! queue, this module measures the full network path: framed requests
//! over TCP, per-connection pipelining, completion-order reply
//! streaming — reporting **server latency** (send → first response
//! byte) and **full latency** (send → response decoded) percentiles
//! separately, the way sky-bench does, so protocol overhead and
//! serving time are attributable apart.
//!
//! The invariants are structural and dimensionless (every reply
//! received, zero transport errors, pipelining actually batching, the
//! latency split ordered, wire results identical to in-process
//! results); raw latencies are recorded for trend reading, never gated.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use genie_client::Client;
use genie_core::backend::CpuBackend;
use genie_core::model::{Object, Query};
use genie_net::frame::{Request, Response};
use genie_net::server::{NetServer, NetStats, ServerConfig};
use genie_service::{GenieService, QueryScheduler, ServiceConfig, ServiceStats};

use crate::check::{field, flag};
use crate::harness::{
    smoke_or_quick, Bench, Cell, Col, Ctx, Invariant, Latency, Mode, Run, Section, Table,
};
use crate::json::Json;
use crate::workloads::{index_of, sift_bundle, MatchData, Scale};

/// Request mixes the load generator cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// ~94% searches, ~6% mutation batches.
    SearchHeavy,
    /// Alternating searches and mutation batches.
    MutateHeavy,
    /// ~80% searches, ~20% mutation batches.
    Mixed,
}

impl Mix {
    pub fn name(self) -> &'static str {
        match self {
            Mix::SearchHeavy => "search_heavy",
            Mix::MutateHeavy => "mutate_heavy",
            Mix::Mixed => "mixed",
        }
    }

    /// Every how-many-th request is a mutation batch.
    fn mutate_every(self) -> usize {
        match self {
            Mix::SearchHeavy => 16,
            Mix::MutateHeavy => 2,
            Mix::Mixed => 5,
        }
    }
}

/// One network run's shape.
#[derive(Debug, Clone, Copy)]
pub struct NetWorkload {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests each connection issues.
    pub requests_per_connection: usize,
    /// In-flight requests each connection keeps pipelined.
    pub pipeline_depth: usize,
    pub mix: Mix,
    /// `k` every search asks for.
    pub k: usize,
    /// Tear the connection down and re-dial after this many requests
    /// (0 = one connection for the whole run) — the churn phase.
    pub churn_every: usize,
}

impl Default for NetWorkload {
    fn default() -> Self {
        Self {
            connections: 8,
            requests_per_connection: 120,
            pipeline_depth: 8,
            mix: Mix::SearchHeavy,
            k: 10,
            churn_every: 0,
        }
    }
}

/// What one network run measured.
#[derive(Debug, Clone)]
pub struct NetReport {
    pub total_requests: usize,
    /// Replies actually received (anything less means a request was
    /// silently dropped — the cardinal sin the drain barrier prevents).
    pub replies: usize,
    /// Replies that were typed Error frames (0 in a healthy run).
    pub remote_errors: usize,
    /// Send → first response byte.
    pub server: Latency,
    /// Send → response decoded.
    pub full: Latency,
    /// Mean queries per executed service micro-batch — pipelined
    /// connections must push this above 1.
    pub batch_occupancy: f64,
    pub net: NetStats,
    pub stats: ServiceStats,
}

/// Stand up a loopback server over `data` and drive `workload`
/// through real client connections.
pub fn run_net_workload(data: &MatchData, workload: NetWorkload) -> NetReport {
    let index = index_of(&data.objects);
    let scheduler = QueryScheduler::single(Arc::new(CpuBackend::new()));
    let service = Arc::new(
        GenieService::start_empty(
            scheduler,
            ServiceConfig {
                max_queue_delay: Duration::from_millis(2),
                dispatchers: 1,
                ..Default::default()
            },
        )
        .expect("config is valid"),
    );
    let collection = service
        .add_collection("bench", &index)
        .expect("host index always fits");
    let handle = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");
    let addr = handle.addr();

    struct ConnTally {
        server_us: Vec<f64>,
        full_us: Vec<f64>,
        remote_errors: usize,
    }

    let tallies: Vec<ConnTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.connections)
            .map(|c| {
                let queries = &data.queries;
                scope.spawn(move || {
                    let mut tally = ConnTally {
                        server_us: Vec::with_capacity(workload.requests_per_connection),
                        full_us: Vec::with_capacity(workload.requests_per_connection),
                        remote_errors: 0,
                    };
                    let resolve = |tally: &mut ConnTally, pending: genie_client::Pending| {
                        let reply = pending.wait().expect("the server answers every request");
                        if matches!(reply.response, Response::Error { .. }) {
                            tally.remote_errors += 1;
                        }
                        tally.server_us.push(reply.server_latency_us);
                        tally.full_us.push(reply.full_latency_us);
                    };
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut window: VecDeque<genie_client::Pending> = VecDeque::new();
                    let mutate_every = workload.mix.mutate_every();
                    for j in 0..workload.requests_per_connection {
                        if workload.churn_every > 0 && j > 0 && j % workload.churn_every == 0 {
                            // churn: flush the window, hang up, re-dial
                            while let Some(p) = window.pop_front() {
                                resolve(&mut tally, p);
                            }
                            client = Client::connect(addr).expect("client reconnects");
                        }
                        let request = if (j + 1) % mutate_every == 0 {
                            Request::Mutate {
                                collection,
                                deletes: vec![],
                                inserts: vec![vec![
                                    (c as u32 * 31 + j as u32) % 997,
                                    (j as u32 * 7) % 997,
                                ]],
                            }
                        } else {
                            let q = &queries
                                [(c * workload.requests_per_connection + j) % queries.len()];
                            Request::Search {
                                collection,
                                k: workload.k as u32,
                                query: q.clone(),
                            }
                        };
                        window.push_back(client.send(&request).expect("send"));
                        while window.len() >= workload.pipeline_depth.max(1) {
                            let p = window.pop_front().expect("window non-empty");
                            resolve(&mut tally, p);
                        }
                    }
                    while let Some(p) = window.pop_front() {
                        resolve(&mut tally, p);
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let net = handle.net_stats();
    drop(handle); // shuts down + drains before we read the final stats
    let stats = service.stats();

    let server_us: Vec<f64> = tallies.iter().flat_map(|t| t.server_us.clone()).collect();
    let full_us: Vec<f64> = tallies.iter().flat_map(|t| t.full_us.clone()).collect();
    NetReport {
        total_requests: workload.connections * workload.requests_per_connection,
        replies: full_us.len(),
        remote_errors: tallies.iter().map(|t| t.remote_errors).sum(),
        server: Latency::of(server_us),
        full: Latency::of(full_us),
        batch_occupancy: stats.mean_batch_occupancy(),
        net,
        stats,
    }
}

/// The in-process side of an identity probe: `objects` served by a
/// default single-CPU service, the reference a wire answer must equal.
pub(crate) struct Truth {
    pub service: Arc<GenieService>,
    pub collection: u64,
}

impl Truth {
    pub(crate) fn over(objects: &[Object]) -> Self {
        let scheduler = QueryScheduler::single(Arc::new(CpuBackend::new()));
        let service = GenieService::start_empty(scheduler, ServiceConfig::default());
        let service = Arc::new(service.expect("config is valid"));
        let collection = service
            .add_collection("truth", &index_of(objects))
            .expect("host index always fits");
        Self {
            service,
            collection,
        }
    }

    /// `query` asked through `client` and through `submit_to`: hits and
    /// audit threshold must agree exactly.
    pub(crate) fn agrees(&self, client: &Client, wire_collection: u64, query: &Query) -> bool {
        const K: usize = 10;
        let wire = client
            .search(wire_collection, K as u32, query.clone())
            .expect("wire search serves");
        let truth = self
            .service
            .submit_to(self.collection, query.clone(), K)
            .wait()
            .expect("in-process search serves");
        wire.hits == truth.hits && wire.audit_threshold == truth.audit_threshold
    }
}

/// Wire-vs-in-process identity probe: one loopback server, the same
/// `probes` queries asked over the wire and in process. Returns whether
/// every query agreed.
pub fn identity_probe(data: &MatchData, probes: usize) -> bool {
    let truth = Truth::over(&data.objects);
    let server = Arc::clone(&truth.service);
    let handle =
        NetServer::spawn(server, "127.0.0.1:0", ServerConfig::default()).expect("loopback bind");
    let client = Client::connect(handle.addr()).expect("client connects");
    let mut queries = data.queries.iter().cycle().take(probes);
    queries.all(|query| truth.agrees(&client, truth.collection, query))
}

const TABLE: Table<NetReport> = Table {
    id: Some(("name", "workload", 18)),
    cols: &[
        Col::shown("requests", "requests", Cell::Plain, |r| {
            r.total_requests.into()
        }),
        Col::shown("replies", "replies", Cell::Plain, |r| r.replies.into()),
        Col::shown("remote_errors", "errors", Cell::Plain, |r| {
            r.remote_errors.into()
        }),
        Col::shown("server_p50_us", "srv p50", Cell::Ms, |r| {
            r.server.p50_us.into()
        }),
        Col::json("server_p95_us", |r| r.server.p95_us.into()),
        Col::shown("server_p99_us", "srv p99", Cell::Ms, |r| {
            r.server.p99_us.into()
        }),
        Col::shown("full_p50_us", "full p50", Cell::Ms, |r| {
            r.full.p50_us.into()
        }),
        Col::json("full_p95_us", |r| r.full.p95_us.into()),
        Col::shown("full_p99_us", "full p99", Cell::Ms, |r| {
            r.full.p99_us.into()
        }),
        Col::shown("batch_occupancy", "occupancy", Cell::Fixed1, |r| {
            r.batch_occupancy.into()
        }),
        Col::json("frames_in", |r| r.net.frames_in.into()),
        Col::json("frames_out", |r| r.net.frames_out.into()),
        Col::json("protocol_errors", |r| r.net.protocol_errors.into()),
        Col::json("io_drops", |r| r.net.io_drops.into()),
        Col::json("slow_reader_drops", |r| r.net.slow_reader_drops.into()),
        Col::json("accepted", |r| r.net.accepted.into()),
        Col::json("waves", |r| r.stats.waves.into()),
        Col::json("mutation_batches", |r| r.stats.mutation_batches.into()),
    ],
};

/// The sweep grid: pipeline depths, workload mixes, and a churn phase
/// that re-dials four times per connection.
fn sweep(requests_per_connection: usize) -> Vec<(String, NetWorkload)> {
    let base = NetWorkload {
        requests_per_connection,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for depth in [1usize, 4, 16] {
        rows.push((
            format!("depth={depth}"),
            NetWorkload {
                pipeline_depth: depth,
                ..base
            },
        ));
    }
    for mix in [Mix::SearchHeavy, Mix::MutateHeavy, Mix::Mixed] {
        rows.push((format!("mix={}", mix.name()), NetWorkload { mix, ..base }));
    }
    rows.push((
        "churn".into(),
        NetWorkload {
            pipeline_depth: 4,
            churn_every: (requests_per_connection / 4).max(1),
            ..base
        },
    ));
    rows
}

fn net_data(scale: Scale) -> MatchData {
    let (data, _) = sift_bundle(
        Scale {
            n: scale.n.min(5_000),
            num_queries: 256,
        },
        8,
        77,
    );
    data
}

/// `--net [--smoke]`: every sweep row, then the identity probe. Not part
/// of `--all` (it spins sockets and threads).
fn setup(ctx: &Ctx) -> crate::harness::Trial {
    let smoke = ctx.mode == Mode::Smoke;
    let (scale, requests) = if smoke {
        let scale = Scale {
            n: 400,
            num_queries: 64,
        };
        (scale, 32)
    } else {
        (Scale::default(), 120)
    };
    let data = net_data(scale);
    Box::new(move || {
        TABLE.header();
        let rows = sweep(requests)
            .into_iter()
            .map(|(name, workload)| TABLE.row(name, &run_net_workload(&data, workload)));
        let rows: Vec<Json> = rows.collect();
        let identity_ok = identity_probe(&data, 16);
        println!("identity probe: wire == in-process on 16 queries: {identity_ok}");
        Run {
            head: vec![
                ("n", data.objects.len().into()),
                ("query_pool", data.queries.len().into()),
                ("smoke", smoke.into()),
                ("connections", NetWorkload::default().connections.into()),
                ("requests_per_connection", requests.into()),
                ("identity_ok", identity_ok.into()),
            ],
            body: vec![("rows", rows.into())],
        }
    })
}

const SECTIONS: &[Section] = &[
    Section {
        at: Some("rows"),
        name: "",
        invariants: &[
            Invariant::new("all_replies_received", |row, _| {
                field(row, "replies") == field(row, "requests")
            }),
            Invariant::new("zero_transport_errors", |row, _| {
                let zero = |counter| field(row, counter) == 0.0;
                zero("remote_errors") && zero("protocol_errors") && zero("io_drops")
            }),
            // the deep pipeline must batch across requests at any scale;
            // the other rows wherever the reference shows it
            Invariant::new("pipelining_batches", |row, _| {
                field(row, "batch_occupancy") > 1.0
            })
            .when(|shown| {
                shown.get("name").and_then(Json::as_str) == Some("depth=16")
                    || field(shown, "batch_occupancy") > 1.0
            }),
            Invariant::new("latency_split_ordered", |row, _| {
                let server = field(row, "server_p50_us");
                server > 0.0 && server <= field(row, "full_p50_us")
            }),
        ],
        bands: &[],
    },
    Section {
        at: None,
        name: "identity",
        invariants: &[Invariant::new("wire_equals_in_process", |doc, _| {
            flag(doc, "identity_ok")
        })],
        bands: &[],
    },
];

pub const BENCH: Bench = Bench {
    name: "net",
    flag: "--net",
    in_all: false,
    mode: smoke_or_quick,
    trials: |mode| if mode == Mode::Full { 3 } else { 1 },
    sections: |_| SECTIONS,
    setup,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_net_workload_is_complete_and_clean() {
        let data = net_data(Scale {
            n: 300,
            num_queries: 32,
        });
        let report = run_net_workload(
            &data,
            NetWorkload {
                connections: 3,
                requests_per_connection: 12,
                pipeline_depth: 4,
                mix: Mix::Mixed,
                ..Default::default()
            },
        );
        assert_eq!(report.total_requests, 36);
        assert_eq!(report.replies, 36);
        assert_eq!(report.remote_errors, 0);
        assert_eq!(report.net.protocol_errors, 0);
        assert!(report.server.p50_us > 0.0);
        assert!(report.server.p50_us <= report.full.p50_us);
        assert!(report.stats.mutation_batches > 0, "the mix must mutate");
    }

    #[test]
    fn churn_reconnects_and_still_answers_everything() {
        let data = net_data(Scale {
            n: 300,
            num_queries: 32,
        });
        let report = run_net_workload(
            &data,
            NetWorkload {
                connections: 2,
                requests_per_connection: 20,
                pipeline_depth: 2,
                churn_every: 5,
                ..Default::default()
            },
        );
        assert_eq!(report.replies, 40);
        assert!(
            report.net.accepted >= 8,
            "churn must re-dial: {:?}",
            report.net
        );
    }

    #[test]
    fn identity_probe_agrees() {
        let data = net_data(Scale {
            n: 300,
            num_queries: 32,
        });
        assert!(identity_probe(&data, 8));
    }
}

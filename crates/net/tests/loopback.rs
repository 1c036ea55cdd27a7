//! Loopback integration: real sockets, real threads, results compared
//! against the same service queried in-process.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{objects, query, start_server};
use genie_client::{Client, ClientConfig, ClientError};
use genie_core::model::Query;
use genie_net::frame::{Request, Response, WireError};
use genie_net::server::ServerConfig;

const UNIVERSE: u32 = 96;

/// ≥4 concurrent connections, each pipelining searches, must return
/// hit-for-hit what the in-process facade returns — and per-thread
/// mutation batches must land atomically in per-thread collections.
#[test]
fn concurrent_pipelined_clients_match_in_process() {
    let data = objects(300, UNIVERSE, 8, 0x5eed);
    let (service, cid, handle) = start_server(&data, ServerConfig::default());
    let addr = handle.addr();
    let bursts: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let client = Client::connect(addr).expect("connect");
                // pipeline a burst: send everything, then resolve
                let queries: Vec<Query> = (0..24).map(|i| query(UNIVERSE, t * 1000 + i)).collect();
                let pendings: Vec<_> = queries
                    .iter()
                    .map(|q| {
                        client
                            .send(&Request::Search {
                                collection: cid,
                                k: 10,
                                query: q.clone(),
                            })
                            .expect("send")
                    })
                    .collect();
                let replies: Vec<_> = pendings
                    .into_iter()
                    .map(|pending| pending.wait().expect("reply"))
                    .collect();
                (client, queries, replies)
            })
        })
        .collect();
    let bursts: Vec<_> = bursts
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    // a pipelined burst lands inside one admission window: its requests
    // share micro-batches instead of paying one scheduler run each. So
    // far the service has served the 4 x 24 wire searches and nothing
    // else (a wave's stats may land just after its last reply).
    let served = service.stats();
    assert!(served.batched_requests <= 4 * 24, "{served:?}");
    assert!(
        served.batches < served.batched_requests,
        "pipelined requests never shared a micro-batch: {served:?}"
    );

    let threads: Vec<_> = (0..4)
        .zip(bursts)
        .map(|(t, (client, queries, replies))| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for (q, reply) in queries.iter().zip(replies) {
                    let truth = service
                        .submit_to(cid, q.clone(), 10)
                        .wait()
                        .expect("in-process search");
                    match reply.response {
                        Response::Search {
                            audit_threshold,
                            hits,
                            ..
                        } => {
                            assert_eq!(hits, truth.hits, "wire hits must match in-process");
                            assert_eq!(audit_threshold, truth.audit_threshold);
                        }
                        other => panic!("wanted a Search reply, got {other:?}"),
                    }
                    assert!(reply.server_latency_us <= reply.full_latency_us);
                }
                // a private collection: mutation batches + identity
                let base = objects(40, UNIVERSE, 6, 0xbeef ^ t);
                let coll = client
                    .create_collection(&format!("t{t}"), 1, base)
                    .expect("create");
                let ids = client
                    .mutate(coll, vec![], vec![vec![1, 2, 3], vec![4, 5]])
                    .expect("insert batch");
                assert_eq!(ids.len(), 2);
                client.delete(coll, vec![ids[0]]).expect("delete");
                let (live, _, tombstones, _, _) = client.mutation_status(coll).expect("status");
                assert_eq!(live, 41, "40 base + 2 inserted - 1 deleted");
                assert!(tombstones >= 1);
                let q = query(UNIVERSE, 7 + t);
                let wire = client.search(coll, 5, q.clone()).expect("search");
                let truth = service
                    .submit_to(coll, q, 5)
                    .wait()
                    .expect("in-process search");
                assert_eq!(wire.hits, truth.hits);
                assert_eq!(wire.audit_threshold, truth.audit_threshold);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let stats = handle.net_stats();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.io_drops, 0);
    assert!(stats.frames_in >= 4 * 24);
}

/// The shutdown-drain regression: requests the server *accepted* must
/// be answered even when shutdown lands while they are in flight.
#[test]
fn shutdown_drains_accepted_requests() {
    let data = objects(200, UNIVERSE, 8, 0xd1a1);
    let (_service, cid, mut handle) = start_server(&data, ServerConfig::default());
    let client = Client::connect(handle.addr()).expect("connect");
    let pendings: Vec<_> = (0..16)
        .map(|i| {
            client
                .send(&Request::Search {
                    collection: cid,
                    k: 8,
                    query: query(UNIVERSE, i),
                })
                .expect("send")
        })
        .collect();
    // let the reader decode and admit the burst, then pull the plug
    std::thread::sleep(Duration::from_millis(50));
    let drained = handle.shutdown();
    assert!(drained, "drain must complete within the timeout");
    for pending in pendings {
        let reply = pending
            .wait()
            .expect("an accepted request is never silently dropped");
        assert!(
            matches!(reply.response, Response::Search { .. }),
            "accepted searches resolve with real results, got {:?}",
            reply.response
        );
    }
    // post-drain the listener is gone: fresh connections fail fast
    assert!(Client::connect(handle.addr()).is_err());
}

/// Adaptive schedules consume rounds until saturation.
#[test]
fn adaptive_search_over_the_wire() {
    let data = objects(120, UNIVERSE, 8, 0xada);
    let (_service, cid, handle) = start_server(&data, ServerConfig::default());
    let client = Client::connect(handle.addr()).expect("connect");
    // a schedule whose last round asks for more than the collection
    // holds: some round must saturate, and hits stay capped at k
    let reply = client
        .search_adaptive(cid, 10, vec![1, 4, 1000], query(UNIVERSE, 3))
        .expect("adaptive search");
    assert!((1..=3).contains(&reply.rounds));
    assert!(reply.hits.len() <= 10);
    for pair in reply.hits.windows(2) {
        assert!(
            pair[0].count > pair[1].count
                || (pair[0].count == pair[1].count && pair[0].id < pair[1].id),
            "hits stay count-desc / id-asc over the wire"
        );
    }
}

/// Semantic failures answer the one request and leave the connection
/// (and its neighbors) serving.
#[test]
fn typed_errors_are_request_scoped() {
    let data = objects(100, UNIVERSE, 8, 0xe44);
    let (_service, cid, handle) = start_server(&data, ServerConfig::default());
    let client = Client::connect(handle.addr()).expect("connect");
    let err = client.search(999, 5, query(UNIVERSE, 1)).unwrap_err();
    assert_eq!(err, ClientError::Remote(WireError::UnknownCollection(999)));
    let err = client.search(cid, 5, Query::new(vec![])).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Remote(WireError::Build(
                genie_core::model::QueryBuildError::EmptyQuery
            ))
        ),
        "empty query surfaces the typed build error, got {err:?}"
    );
    let err = client.search(cid, 0, query(UNIVERSE, 1)).unwrap_err();
    assert!(matches!(err, ClientError::Remote(WireError::Service(_))));
    let err = client.delete(cid, vec![9_999_999]).unwrap_err();
    assert_eq!(err, ClientError::Remote(WireError::UnknownId(9_999_999)));
    // after all that abuse the connection still serves
    let ok = client
        .search(cid, 5, query(UNIVERSE, 2))
        .expect("connection survives request-scoped errors");
    assert!(ok.hits.len() <= 5);
    assert_eq!(handle.net_stats().io_drops, 0);
}

/// Handshake rejection paths: wrong version, wrong token.
#[test]
fn handshake_rejects_are_typed() {
    let data = objects(50, UNIVERSE, 6, 0x4a11);
    let config = ServerConfig {
        auth_token: Some("sesame".into()),
        ..ServerConfig::default()
    };
    let (_service, _cid, handle) = start_server(&data, config);
    let err = match Client::connect(handle.addr()) {
        Err(e) => e,
        Ok(_) => panic!("a tokenless handshake must be rejected"),
    };
    assert!(
        matches!(err, ClientError::Rejected(WireError::Auth(_))),
        "missing token must be a typed Auth reject, got {err:?}"
    );
    let ok = Client::connect_with(
        handle.addr(),
        ClientConfig {
            token: "sesame".into(),
            ..ClientConfig::default()
        },
    );
    assert!(ok.is_ok(), "the right token handshakes");
    assert_eq!(handle.net_stats().handshake_rejects, 1);
}

/// Connection churn: many short-lived connections leave no residue.
#[test]
fn connection_churn_leaves_no_residue() {
    let data = objects(80, UNIVERSE, 6, 0xc4c4);
    let (_service, cid, handle) = start_server(&data, ServerConfig::default());
    for i in 0..25 {
        let client = Client::connect(handle.addr()).expect("connect");
        let reply = client.search(cid, 5, query(UNIVERSE, i)).expect("search");
        assert!(reply.hits.len() <= 5);
        drop(client);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "all churned connections must unregister"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.net_stats();
    assert_eq!(stats.accepted, 25);
    assert_eq!(stats.protocol_errors, 0);
}

/// A client that stops draining its socket is dropped by the write
/// timeout instead of wedging the server.
#[test]
fn slow_reader_is_dropped_not_served_forever() {
    use std::io::Write;

    let data = objects(60, UNIVERSE, 6, 0x510);
    let config = ServerConfig {
        write_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let (_service, cid, handle) = start_server(&data, config);
    // raw socket: handshake, then request floods of Stats replies
    // without ever reading them
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(&genie_net::frame::encode_request(
            0,
            &Request::Hello {
                version: genie_net::frame::PROTOCOL_VERSION,
                token: String::new(),
            },
        ))
        .expect("hello");
    let stats_frame = genie_net::frame::encode_request(1, &Request::Stats);
    let deadline = Instant::now() + Duration::from_secs(30);
    'flood: while Instant::now() < deadline {
        for _ in 0..64 {
            if stream.write_all(&stats_frame).is_err() {
                break 'flood; // server already dropped us
            }
        }
        if handle.net_stats().slow_reader_drops > 0 {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.net_stats().slow_reader_drops == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        handle.net_stats().slow_reader_drops > 0,
        "a never-draining client must trip the write timeout"
    );
    // the server still serves new clients afterwards
    let client = Client::connect(handle.addr()).expect("connect after drop");
    client
        .search(cid, 5, query(UNIVERSE, 9))
        .expect("post-drop search");
}

/// Stats frames expose both service counters and net counters.
#[test]
fn stats_frame_merges_service_and_net_counters() {
    let data = objects(50, UNIVERSE, 6, 0x57a7);
    let (_service, cid, handle) = start_server(&data, ServerConfig::default());
    let client = Client::connect(handle.addr()).expect("connect");
    client.search(cid, 5, query(UNIVERSE, 0)).expect("search");
    let fields = client.stats().expect("stats");
    let get = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("stats must carry {name}"))
            .1
    };
    assert!(get("service/submitted") >= 1.0);
    assert!(get("service/served") >= 1.0);
    assert_eq!(get("net/accepted"), 1.0);
    assert!(get("net/frames_in") >= 1.0);
    assert_eq!(get("net/active_connections"), 1.0);
    assert!(get("net/protocol_errors") == 0.0);
}

/// The placement extension's trailing Stats rows: fleet-health and
/// learned-cost fields ride behind the v1 rows (`backend/{i}/...` per
/// backend plus the new `service/...` counters), and the client's
/// `fleet_health` regrouping recovers them per backend.
#[test]
fn stats_frame_carries_fleet_health_and_learned_costs() {
    let data = objects(50, UNIVERSE, 6, 0x0f1e);
    let (_service, cid, handle) = start_server(&data, ServerConfig::default());
    let client = Client::connect(handle.addr()).expect("connect");
    client.search(cid, 5, query(UNIVERSE, 1)).expect("search");
    let fields = client.stats().expect("stats");
    let get = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("stats must carry {name}"))
            .1
    };
    // new service counters exist (placement inactive: zeros are fine)
    assert_eq!(get("service/rebalances"), 0.0);
    assert_eq!(get("service/hot_shard_events"), 0.0);
    // the learned model starts at the (positive) seed and has already
    // folded this search's wave
    assert!(get("service/learned_base_us") > 0.0);
    assert!(get("service/learned_us_per_posting") > 0.0);
    assert!(get("service/cost_observations") >= 1.0);
    // per-backend rows: the single-cpu fleet of start_server
    assert!(get("backend/0/cpu/queries") >= 1.0);
    assert_eq!(get("backend/0/cpu/retired"), 0.0);
    assert!(get("backend/0/cpu/learned_us_per_posting") > 0.0);
    // the client-side regrouping sees the same backend
    let fleet = client.fleet_health().expect("fleet health");
    assert_eq!(fleet.len(), 1);
    assert_eq!(fleet[0].0, "0/cpu");
    let rows = &fleet[0].1;
    let row = |name: &str| {
        rows.iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("fleet health must carry {name}"))
            .1
    };
    assert!(row("queries") >= 1.0);
    assert!(row("cost_observations") >= 1.0);
    assert_eq!(row("queries"), get("backend/0/cpu/queries"));
}

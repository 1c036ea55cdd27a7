//! Serve GENIE over TCP and query it with pipelined network clients.
//!
//! Demonstrates the network subsystem end to end, all inside one
//! process over loopback:
//!
//! 1. a [`NetServer`] is spawned in front of a running `GenieService`
//!    (the same facade `GenieDb` uses), so every in-process feature —
//!    micro-batch waves, live mutations, multiple collections — is
//!    reachable over the versioned frame protocol;
//! 2. several `genie-client` connections pipeline searches without
//!    waiting for earlier replies, and the server streams responses
//!    back in *completion* order, matched by request id;
//! 3. every reply carries the sky-bench latency split: **server
//!    latency** (send → first response byte) vs **full latency**
//!    (send → reply decoded);
//! 4. one client mutates its collection over the wire and reads the
//!    mutation debt back; shutdown drains in-flight requests before
//!    the listener goes away.
//!
//! ```text
//! cargo run --example network_serving
//! ```

use std::sync::Arc;

use genie::core::backend::CpuBackend;
use genie::core::index::IndexBuilder;
use genie::core::model::{Object, Query};
use genie::net::server::{NetServer, ServerConfig};
use genie::prelude::*;
use genie_client::Client;

fn main() {
    // a small synthetic corpus of keyword multisets
    let universe = 200u32;
    let objects: Vec<Object> = (0..5_000u32)
        .map(|i| Object {
            keywords: (0..4).map(|j| (i * 13 + j * 31) % universe).collect(),
        })
        .collect();
    let mut builder = IndexBuilder::new();
    builder.add_objects(objects.iter());
    let index = Arc::new(builder.build(None));

    let service = Arc::new(
        GenieService::start_empty(
            QueryScheduler::single(Arc::new(CpuBackend::new())),
            ServiceConfig::default(),
        )
        .expect("service starts"),
    );
    let corpus = service
        .add_collection("corpus", &index)
        .expect("index fits the backend");

    // port 0: the OS picks a free port, handle.addr() reports it
    let mut handle = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");
    let addr = handle.addr();
    println!("serving {} objects on {addr}", objects.len());

    // several concurrent clients, each pipelining a burst of searches
    std::thread::scope(|scope| {
        for c in 0..3u32 {
            scope.spawn(move || {
                let client = Client::connect(addr).expect("connect");
                let queries: Vec<Query> = (0..8)
                    .map(|i| {
                        Query::from_keywords(&[
                            (c * 29 + i * 7) % universe,
                            (c * 17 + i * 3) % universe,
                            (i * 11) % universe,
                        ])
                    })
                    .collect();
                // fire the whole burst before reading a single reply
                let pendings: Vec<_> = queries
                    .iter()
                    .map(|q| {
                        client
                            .send(&genie::net::frame::Request::Search {
                                collection: corpus,
                                k: 5,
                                query: q.clone(),
                            })
                            .expect("send")
                    })
                    .collect();
                for pending in pendings {
                    let reply = pending.wait().expect("reply");
                    if let genie::net::frame::Response::Search { hits, .. } = &reply.response {
                        assert!(hits.len() <= 5);
                    }
                    assert!(reply.server_latency_us <= reply.full_latency_us);
                }
                println!("client {c}: 8 pipelined searches answered");
            });
        }
    });

    // the full facade travels over the wire: collections + mutations
    let client = Client::connect(addr).expect("connect");
    let coll = client
        .create_collection("live", 1, vec![vec![1, 2, 3], vec![2, 3, 4]])
        .expect("create collection over the wire");
    let ids = client
        .mutate(coll, vec![], vec![vec![1, 2], vec![3, 4, 5]])
        .expect("insert batch");
    client.delete(coll, vec![ids[0]]).expect("delete");
    let (live, delta, tombstones, _, _) = client.mutation_status(coll).expect("status");
    println!("collection {coll}: {live} live objects, delta {delta}, tombstones {tombstones}");
    let reply = client
        .search(coll, 2, Query::from_keywords(&[3, 4]))
        .expect("search the mutated collection");
    println!(
        "wire search: {} hits, server {:.2} ms / full {:.2} ms",
        reply.hits.len(),
        reply.server_latency_us / 1000.0,
        reply.full_latency_us / 1000.0
    );

    // shutdown drains in-flight connections before unbinding
    let drained = handle.shutdown();
    let net = handle.net_stats();
    println!(
        "drained: {drained}; accepted {} connections, {} frames in / {} out",
        net.accepted, net.frames_in, net.frames_out
    );
}

//! Shared loopback-server scaffolding for the genie-net test suites.

use std::sync::Arc;

use genie_core::backend::CpuBackend;
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{Object, Query, QueryItem};
use genie_net::server::{NetServer, ServerConfig, ServerHandle};
use genie_service::{CollectionId, GenieService, QueryScheduler, ServiceConfig};

/// Deterministic keyword multisets (xorshift — no dependency, no
/// global RNG state shared between tests).
pub fn objects(n: usize, universe: u32, max_len: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let len = 1 + (next() as usize) % max_len;
            (0..len).map(|_| (next() as u32) % universe).collect()
        })
        .collect()
}

pub fn index_of(objects: &[Vec<u32>]) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    for keywords in objects {
        b.add_object(&Object {
            keywords: keywords.clone(),
        });
    }
    Arc::new(b.build(None))
}

/// One CPU-backed service with `objects` registered as its one
/// collection (whose id is returned), fronted by a loopback server.
pub fn start_server(
    objects: &[Vec<u32>],
    config: ServerConfig,
) -> (Arc<GenieService>, CollectionId, ServerHandle) {
    let service = Arc::new(
        GenieService::start_empty(
            QueryScheduler::single(Arc::new(CpuBackend::new())),
            ServiceConfig::default(),
        )
        .expect("service starts"),
    );
    let collection = service
        .add_collection("default", &index_of(objects))
        .expect("index fits the backend");
    let handle = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0", config)
        .expect("server binds loopback");
    (service, collection, handle)
}

/// A deterministic query family over `universe` (mixes exacts and
/// ranges so postings scans of different widths batch together).
pub fn query(universe: u32, i: u64) -> Query {
    let a = (i * 7 + 3) as u32 % universe;
    let b = (i * 13 + 5) as u32 % universe;
    let (lo, hi) = (a.min(b), a.max(b));
    Query::new(vec![
        QueryItem::exact(a),
        QueryItem::range(lo, hi),
        QueryItem::exact((i as u32 * 31 + 11) % universe),
    ])
}

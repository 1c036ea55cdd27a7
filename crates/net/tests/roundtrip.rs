//! Round-trip identity: encode → frame → decode is the identity for
//! queries and results from every domain, and a genie-client search
//! over loopback returns exactly what the in-process typed facade
//! returns.

mod common;

use std::sync::Arc;

use common::{objects, start_server};
use genie_client::Client;
use genie_core::backend::CpuBackend;
use genie_core::domain::Domain;
use genie_core::model::{Query, QueryItem};
use genie_core::topk::TopHit;
use genie_net::frame::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use genie_net::server::{NetServer, ServerConfig};
use genie_sa::document::DocumentIndex;
use genie_sa::relational::{Attribute, Condition, RelationalIndex, RelationalSchema, Value};
use genie_sa::sequence::SequenceIndex;
use genie_service::GenieDb;
use proptest::prelude::*;

fn roundtrip_request(request: &Request) -> Request {
    let frame = encode_request(42, request);
    let (id, decoded) = decode_request(&frame[4..]).expect("valid frames decode");
    assert_eq!(id, 42);
    decoded
}

fn roundtrip_response(response: &Response) -> Response {
    let frame = encode_response(43, response);
    let (id, decoded) = decode_response(&frame[4..]).expect("valid frames decode");
    assert_eq!(id, 43);
    decoded
}

proptest! {
    /// Arbitrary raw queries survive the wire byte-for-byte.
    #[test]
    fn raw_queries_roundtrip(
        items in proptest::collection::vec((0u32..500, 0u32..500), 1..12),
        k in 1u32..100,
        collection in 0u64..10,
    ) {
        let query = Query::new(
            items
                .iter()
                .map(|&(a, b)| QueryItem::range(a.min(b), a.max(b)))
                .collect(),
        );
        let request = Request::Search { collection, k, query };
        prop_assert_eq!(roundtrip_request(&request), request);
    }

    /// Arbitrary result sets survive the wire byte-for-byte.
    #[test]
    fn result_sets_roundtrip(
        hits in proptest::collection::vec((0u32..100_000, 0u32..64), 0..60),
        audit_threshold in 0u32..64,
        rounds in 1u32..8,
    ) {
        let response = Response::Search {
            rounds,
            audit_threshold,
            hits: hits.iter().map(|&(id, count)| TopHit { id, count }).collect(),
        };
        prop_assert_eq!(roundtrip_response(&response), response);
    }

    /// Mutation batches (the other payload-heavy frame) round-trip.
    #[test]
    fn mutation_batches_roundtrip(
        deletes in proptest::collection::vec(0u32..10_000, 0..20),
        inserts in proptest::collection::vec(
            proptest::collection::vec(0u32..500, 0..10),
            0..10,
        ),
        collection in 0u64..10,
    ) {
        let request = Request::Mutate { collection, deletes, inserts };
        prop_assert_eq!(roundtrip_request(&request), request);
    }
}

/// Queries produced by each typed domain's encoder — document,
/// relational, sequence, plus raw keywords — round-trip through the
/// frame codec unchanged.
#[test]
fn domain_encoded_queries_roundtrip() {
    let mut encoded: Vec<Query> = Vec::new();

    let docs: Vec<Vec<String>> = vec![
        vec!["genie".into(), "inverted".into(), "index".into()],
        vec!["match".into(), "count".into(), "genie".into()],
        vec!["gpu".into(), "batch".into()],
    ];
    let doc_index = DocumentIndex::build(&docs);
    encoded.push(
        doc_index
            .encode(&vec!["genie".into(), "batch".into()])
            .expect("document query encodes"),
    );

    let schema = RelationalSchema {
        attrs: vec![
            Attribute::Categorical { cardinality: 8 },
            Attribute::Numeric {
                min: 0.0,
                max: 100.0,
                buckets: 32,
            },
        ],
        load_balance: None,
    };
    let rows = vec![
        vec![Value::Cat(3), Value::Num(12.5)],
        vec![Value::Cat(5), Value::Num(77.0)],
    ];
    let rel_index = RelationalIndex::build(schema.attrs.clone(), &rows, None);
    encoded.push(
        rel_index
            .encode(&vec![
                Condition::CatEq { attr: 0, value: 3 },
                Condition::NumRange {
                    attr: 1,
                    lo: 10.0,
                    hi: 80.0,
                },
            ])
            .expect("relational query encodes"),
    );

    let seqs: Vec<Vec<u8>> = vec![b"GATTACA".to_vec(), b"CATCATG".to_vec()];
    let seq_index = SequenceIndex::create(3, seqs);
    encoded.push(
        seq_index
            .encode(&b"GATCAT".to_vec())
            .expect("sequence query encodes"),
    );

    encoded.push(Query::from_keywords(&[1, 5, 9]));

    for query in encoded {
        let request = Request::Search {
            collection: 0,
            k: 10,
            query: query.clone(),
        };
        match roundtrip_request(&request) {
            Request::Search { query: back, .. } => {
                assert_eq!(back, query, "domain-encoded query must survive the wire")
            }
            other => panic!("round-trip changed the request kind: {other:?}"),
        }
    }
}

/// End-to-end identity: a genie-client search over loopback returns
/// hit-for-hit (ids, counts, AT) what `Collection::search` returns
/// in-process on the same typed collection.
#[test]
fn client_search_matches_in_process_collection_search() {
    let db = GenieDb::single(Arc::new(CpuBackend::new())).expect("db opens");
    let vocab = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    ];
    let docs: Vec<Vec<String>> = (0..120)
        .map(|i: usize| {
            (0..1 + i % 5)
                .map(|j| vocab[(i * 7 + j * 3) % vocab.len()].to_string())
                .collect()
        })
        .collect();
    let coll = db
        .create_collection::<DocumentIndex>("docs", (), docs)
        .expect("collection builds");
    let handle = NetServer::spawn(db.service_handle(), "127.0.0.1:0", ServerConfig::default())
        .expect("server binds");
    let client = Client::connect(handle.addr()).expect("connect");
    for i in 0..10usize {
        let spec: Vec<String> = vec![
            vocab[i % vocab.len()].to_string(),
            vocab[(i * 3 + 1) % vocab.len()].to_string(),
        ];
        let truth = coll.search(&spec, 10).expect("in-process search");
        let query = coll.domain().encode(&spec).expect("spec encodes");
        let wire = client.search(coll.id(), 10, query).expect("wire search");
        assert_eq!(
            wire.hits, truth.hits,
            "wire hits == Collection::search hits"
        );
        assert_eq!(wire.audit_threshold, truth.audit_threshold);
    }
}

/// The raw keyword path agrees too: the one collection, handmade
/// queries, wire vs `submit_to`.
#[test]
fn client_search_matches_in_process_submit() {
    let data = objects(150, 80, 7, 0x1d);
    let (service, cid, handle) = start_server(&data, ServerConfig::default());
    let client = Client::connect(handle.addr()).expect("connect");
    for i in 0..10u64 {
        let query = common::query(80, i);
        let truth = service
            .submit_to(cid, query.clone(), 8)
            .wait()
            .expect("in-process");
        let wire = client.search(cid, 8, query).expect("wire search");
        assert_eq!(wire.hits, truth.hits);
        assert_eq!(wire.audit_threshold, truth.audit_threshold);
    }
}

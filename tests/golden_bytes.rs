//! Golden bytes: every byte format the system writes, pinned.
//!
//! The fixtures under `tests/golden/` were dumped by the encoders of
//! the commit *before* the byte codecs were unified into
//! `genie_core::codec`; each test asserts `encode(value) == fixture`
//! and `decode(fixture) == value`. A failure here means a wire frame,
//! a journal record, a snapshot or an index payload moved a byte —
//! which needs a protocol / on-disk version bump, not a fixture edit.
//! (On a deliberate, versioned change: the failure message prints the
//! regenerated fixture file to paste.)
//!
//! Fixture format: one case per line, `name hex-bytes`; `#` comments.

use std::sync::Arc;

use genie::core::index::{IndexBuilder, InvertedIndex, LoadBalanceConfig};
use genie::core::io::{decode_index, encode_index};
use genie::core::model::{Object, Query, QueryBuildError, QueryItem};
use genie::core::shard::{Shard, ShardPlan};
use genie::core::topk::TopHit;
use genie::net::frame::{
    decode_request, decode_response, encode_request, encode_response, CollectionInfo, Request,
    Response, WireError, PROTOCOL_VERSION,
};
use genie::store::state::{decode_event, decode_state, encode_event, encode_state};
use genie::store::{CollectionState, JournalEvent, PlacementSpec};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd-length hex");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn parse(fixture: &str) -> Vec<(String, Vec<u8>)> {
    fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, bytes) = l.split_once(' ').expect("`name hex` line");
            (name.to_string(), unhex(bytes))
        })
        .collect()
}

/// `encoded` (what this build writes) must equal the checked-in
/// fixture, case for case and byte for byte. Returns the fixture's
/// bytes for the decode half of each test.
fn assert_golden(file: &str, fixture: &str, encoded: &[(String, Vec<u8>)]) -> Vec<Vec<u8>> {
    let golden = parse(fixture);
    let regenerated: String = encoded
        .iter()
        .map(|(name, bytes)| format!("{name} {}\n", hex(bytes)))
        .collect();
    assert_eq!(
        golden.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        encoded.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "tests/golden/{file}: case list differs; regenerated file:\n{regenerated}"
    );
    for ((name, want), (_, got)) in golden.iter().zip(encoded) {
        assert!(
            want == got,
            "tests/golden/{file}: `{name}` moved a byte\n  fixture {}\n  encoded {}\n\
             regenerated file:\n{regenerated}",
            hex(want),
            hex(got)
        );
    }
    golden.into_iter().map(|(_, bytes)| bytes).collect()
}

// ---- wire frames ---------------------------------------------------

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "hello",
            Request::Hello {
                version: PROTOCOL_VERSION,
                token: "secret".into(),
            },
        ),
        (
            "search",
            Request::Search {
                collection: 3,
                k: 10,
                query: Query::new(vec![QueryItem::range(2, 9), QueryItem::exact(40)]),
            },
        ),
        (
            "search_adaptive",
            Request::SearchAdaptive {
                collection: 0,
                k: 5,
                schedule: vec![5, 10, 20],
                query: Query::from_keywords(&[1, 2, 3]),
            },
        ),
        (
            "insert",
            Request::Insert {
                collection: 1,
                keywords: vec![7, 7, 9],
            },
        ),
        (
            "delete",
            Request::Delete {
                collection: 1,
                ids: vec![0, 4],
            },
        ),
        (
            "upsert",
            Request::Upsert {
                collection: 1,
                id: 2,
                keywords: vec![11],
            },
        ),
        (
            "mutate",
            Request::Mutate {
                collection: 2,
                deletes: vec![5],
                inserts: vec![vec![1, 2], vec![], vec![3]],
            },
        ),
        ("compact", Request::Compact { collection: 2 }),
        ("mutation_status", Request::MutationStatus { collection: 2 }),
        (
            "create_collection",
            Request::CreateCollection {
                name: "dócs".into(),
                shards: 4,
                objects: vec![vec![0, 1], vec![2]],
            },
        ),
        (
            "reindex",
            Request::Reindex {
                collection: 0,
                objects: vec![vec![9]],
            },
        ),
        ("list_collections", Request::ListCollections),
        ("stats", Request::Stats),
    ]
}

/// Every `WireError` code of `genie_net::protocol`'s table.
fn wire_errors() -> Vec<WireError> {
    vec![
        WireError::Protocol("bad frame".into()),
        WireError::TooLarge {
            len: 1 << 40,
            max: 8 << 20,
        },
        WireError::UnsupportedVersion { got: 2, want: 1 },
        WireError::Auth("token mismatch".into()),
        WireError::ShuttingDown,
        WireError::UnknownCollection(3),
        WireError::UnknownId(77),
        WireError::NoBackends,
        WireError::InvalidShards("zero shards".into()),
        WireError::Service("backend gone".into()),
        QueryBuildError::EmptyQuery.into(),
        QueryBuildError::EmptyRange { lo: 5, hi: 2 }.into(),
        QueryBuildError::KeywordOutOfRange {
            keyword: 9,
            universe: 4,
        }
        .into(),
        QueryBuildError::NonFinite {
            what: "weight".into(),
        }
        .into(),
        QueryBuildError::Negative {
            what: "radius".into(),
        }
        .into(),
        QueryBuildError::EmptyNumericRange {
            attr: 1,
            lo: 3.0,
            hi: 1.0,
        }
        .into(),
        QueryBuildError::UnknownAttribute {
            attr: 9,
            num_attributes: 3,
        }
        .into(),
        QueryBuildError::TypeMismatch {
            attr: 0,
            expected: "numeric".into(),
        }
        .into(),
        QueryBuildError::ValueOutOfRange {
            attr: 2,
            value: 9,
            cardinality: 4,
        }
        .into(),
        QueryBuildError::RowArity {
            got: 2,
            expected: 3,
        }
        .into(),
    ]
}

fn responses() -> Vec<(String, Response)> {
    let mut out: Vec<(String, Response)> = vec![
        (
            "welcome".into(),
            Response::Welcome {
                version: PROTOCOL_VERSION,
            },
        ),
        (
            "reject".into(),
            Response::Reject {
                error: WireError::UnsupportedVersion { got: 9, want: 1 },
            },
        ),
        (
            "search_ok".into(),
            Response::Search {
                rounds: 2,
                audit_threshold: 4,
                hits: vec![TopHit { id: 8, count: 3 }, TopHit { id: 2, count: 3 }],
            },
        ),
        ("ids".into(), Response::Ids { ids: vec![10, 11] }),
        ("ack".into(), Response::Ack),
        ("compacted".into(), Response::Compacted { applied: true }),
        (
            "mutation_status".into(),
            Response::MutationStatus {
                live: 100,
                delta: 3,
                tombstones: 1,
                base_shards: 2,
                next_id: 104,
            },
        ),
        ("created".into(), Response::Created { collection: 7 }),
        (
            "reindexed".into(),
            Response::Reindexed {
                upload_sim_us: 123.5,
            },
        ),
        (
            "collections".into(),
            Response::Collections {
                entries: vec![CollectionInfo {
                    id: 0,
                    name: "default".into(),
                    shards: 1,
                    len: 42,
                }],
            },
        ),
        (
            "stats".into(),
            Response::Stats {
                fields: vec![("served".into(), 9.0), ("net/frames_in".into(), 21.0)],
            },
        ),
    ];
    for error in wire_errors() {
        out.push((format!("error_{}", error.code()), Response::Error { error }));
    }
    out
}

#[test]
fn request_frames_are_pinned() {
    let cases = requests();
    let encoded: Vec<(String, Vec<u8>)> = cases
        .iter()
        .enumerate()
        .map(|(i, (name, req))| (name.to_string(), encode_request(i as u64 + 1, req)))
        .collect();
    let golden = assert_golden(
        "requests.hex",
        include_str!("golden/requests.hex"),
        &encoded,
    );
    for (i, (frame, (name, req))) in golden.iter().zip(&cases).enumerate() {
        let (id, back) = decode_request(&frame[4..]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!((id, &back), (i as u64 + 1, req), "{name}");
    }
}

#[test]
fn response_frames_and_every_error_code_are_pinned() {
    let cases = responses();
    let encoded: Vec<(String, Vec<u8>)> = cases
        .iter()
        .enumerate()
        .map(|(i, (name, resp))| (name.clone(), encode_response(i as u64 + 100, resp)))
        .collect();
    let golden = assert_golden(
        "responses.hex",
        include_str!("golden/responses.hex"),
        &encoded,
    );
    for (i, (frame, (name, resp))) in golden.iter().zip(&cases).enumerate() {
        let (id, back) = decode_response(&frame[4..]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!((id, &back), (i as u64 + 100, resp), "{name}");
    }
}

// ---- index payloads, journal records, snapshots --------------------

fn objects(n: u32) -> Vec<Object> {
    (0..n)
        .map(|i| Object::new(vec![i % 5, 50 + i % 3]))
        .collect()
}

fn index(n: u32, lb: Option<LoadBalanceConfig>) -> InvertedIndex {
    let mut b = IndexBuilder::new();
    b.add_objects(&objects(n));
    b.build(lb)
}

fn shards(n: u32, shards: usize, lb: Option<LoadBalanceConfig>) -> Vec<Shard> {
    ShardPlan::build(&objects(n), shards, lb).shards().to_vec()
}

fn assert_same_index(a: &InvertedIndex, b: &InvertedIndex, what: &str) {
    assert_eq!(a.entries_raw(), b.entries_raw(), "{what}: entries");
    assert_eq!(a.list_array(), b.list_array(), "{what}: list array");
    assert_eq!(a.num_objects(), b.num_objects(), "{what}: num_objects");
    assert_eq!(a.max_object_len(), b.max_object_len(), "{what}: max len");
    assert_eq!(a.longest_list(), b.longest_list(), "{what}: longest");
    assert_eq!(a.load_balance(), b.load_balance(), "{what}: load balance");
}

fn assert_same_shards(a: &[Shard], b: &[Shard], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: shard count");
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.global_ids, b.global_ids, "{what}: id map");
        assert_same_index(&a.index, &b.index, what);
    }
}

#[test]
fn index_payloads_are_pinned() {
    let cases = vec![
        ("plain", index(12, None)),
        (
            "load_balanced",
            index(12, Some(LoadBalanceConfig { max_list_len: 2 })),
        ),
    ];
    let encoded: Vec<(String, Vec<u8>)> = cases
        .iter()
        .map(|(name, idx)| (name.to_string(), encode_index(idx).to_vec()))
        .collect();
    let golden = assert_golden("indexes.hex", include_str!("golden/indexes.hex"), &encoded);
    for (bytes, (name, idx)) in golden.iter().zip(&cases) {
        let back = decode_index(&bytes[..]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_index(&back, idx, name);
    }
}

fn events() -> Vec<(&'static str, JournalEvent)> {
    vec![
        (
            "create",
            JournalEvent::Create {
                collection: 0,
                seq: 1,
                name: "corpus".into(),
                configured_shards: 3,
                load_balance: None,
                base: shards(9, 3, None),
            },
        ),
        (
            "swap",
            JournalEvent::Swap {
                collection: 0,
                seq: 2,
                load_balance: Some(LoadBalanceConfig { max_list_len: 4 }),
                base: shards(6, 1, Some(LoadBalanceConfig { max_list_len: 4 })),
            },
        ),
        (
            "mutate",
            JournalEvent::Mutate {
                collection: 7,
                seq: 9,
                first_id: 40,
                deletes: vec![1, 3],
                inserts: vec![
                    Object::new(vec![1]),
                    Object::new(vec![]),
                    Object::new(vec![2, 2, 4]),
                ],
            },
        ),
        (
            "placement_dropped",
            JournalEvent::Placement {
                collection: 7,
                seq: 10,
                placement: None,
            },
        ),
        (
            "placement_applied",
            JournalEvent::Placement {
                collection: 7,
                seq: 11,
                placement: Some(PlacementSpec {
                    num_backends: 2,
                    assignments: vec![vec![0], vec![0, 1]],
                }),
            },
        ),
    ]
}

fn assert_same_event(a: &JournalEvent, b: &JournalEvent, what: &str) {
    assert_eq!(
        (a.collection(), a.seq()),
        (b.collection(), b.seq()),
        "{what}"
    );
    match (a, b) {
        (
            JournalEvent::Create {
                name: n1,
                configured_shards: c1,
                load_balance: l1,
                base: b1,
                ..
            },
            JournalEvent::Create {
                name: n2,
                configured_shards: c2,
                load_balance: l2,
                base: b2,
                ..
            },
        ) => {
            assert_eq!((n1, c1, l1), (n2, c2, l2), "{what}");
            assert_same_shards(b1, b2, what);
        }
        (
            JournalEvent::Swap {
                load_balance: l1,
                base: b1,
                ..
            },
            JournalEvent::Swap {
                load_balance: l2,
                base: b2,
                ..
            },
        ) => {
            assert_eq!(l1, l2, "{what}");
            assert_same_shards(b1, b2, what);
        }
        (
            JournalEvent::Mutate {
                first_id: f1,
                deletes: d1,
                inserts: i1,
                ..
            },
            JournalEvent::Mutate {
                first_id: f2,
                deletes: d2,
                inserts: i2,
                ..
            },
        ) => assert_eq!((f1, d1, i1), (f2, d2, i2), "{what}"),
        (
            JournalEvent::Placement { placement: p1, .. },
            JournalEvent::Placement { placement: p2, .. },
        ) => assert_eq!(p1, p2, "{what}"),
        _ => panic!("{what}: decoded a different event kind: {a:?}"),
    }
}

#[test]
fn journal_records_are_pinned() {
    let cases = events();
    let encoded: Vec<(String, Vec<u8>)> = cases
        .iter()
        .map(|(name, event)| (name.to_string(), encode_event(event)))
        .collect();
    let golden = assert_golden("journal.hex", include_str!("golden/journal.hex"), &encoded);
    for (bytes, (name, event)) in golden.iter().zip(&cases) {
        let back = decode_event(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_event(&back, event, name);
    }
}

fn states() -> Vec<(&'static str, CollectionState)> {
    let lb = LoadBalanceConfig { max_list_len: 8 };
    vec![
        (
            // one identity-mapped shard, nothing pending
            "identity",
            CollectionState {
                id: 0,
                seq: 1,
                name: "plain".into(),
                configured_shards: 1,
                load_balance: None,
                base: vec![Shard::identity(Arc::new(index(6, None)))],
                delta: vec![],
                tombstones: vec![],
                next_id: 6,
                placement: None,
            },
        ),
        (
            // explicit id maps, delta, tombstones, placement, load balance
            "explicit_ids_placed_tombstoned",
            CollectionState {
                id: 3,
                seq: 17,
                name: "docs".into(),
                configured_shards: 2,
                load_balance: Some(lb),
                base: shards(10, 2, Some(lb)),
                delta: vec![(10, Object::new(vec![1, 2])), (11, Object::new(vec![3]))],
                tombstones: vec![4, 10],
                next_id: 12,
                placement: Some(PlacementSpec {
                    num_backends: 3,
                    assignments: vec![vec![0, 2], vec![1]],
                }),
            },
        ),
    ]
}

#[test]
fn snapshots_are_pinned() {
    let cases = states();
    let encoded: Vec<(String, Vec<u8>)> = cases
        .iter()
        .map(|(name, state)| (name.to_string(), encode_state(state)))
        .collect();
    let golden = assert_golden(
        "snapshots.hex",
        include_str!("golden/snapshots.hex"),
        &encoded,
    );
    for (bytes, (name, state)) in golden.iter().zip(&cases) {
        let back = decode_state(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (back.id, back.seq, &back.name, back.configured_shards),
            (state.id, state.seq, &state.name, state.configured_shards),
            "{name}"
        );
        assert_eq!(back.load_balance, state.load_balance, "{name}");
        assert_same_shards(&back.base, &state.base, name);
        assert_eq!(back.delta, state.delta, "{name}");
        assert_eq!(back.tombstones, state.tombstones, "{name}");
        assert_eq!(back.next_id, state.next_id, "{name}");
        assert_eq!(back.placement, state.placement, "{name}");
        // and the decoded state is servable
        back.into_plan().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

//! Adversarial input: truncated, oversized, mis-versioned and garbage
//! frames must produce a typed error frame or a clean drop — never a
//! panic, and never corruption of neighboring connections.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use common::{objects, query, start_server};
use genie_client::Client;
use genie_core::codec::DecodeError;
use genie_core::model::Query;
use genie_net::frame::{
    decode_request, decode_response, encode_request, read_frame, Request, Response, WireError,
    PROTOCOL_VERSION,
};
use genie_net::server::{ServerConfig, ServerHandle};
use genie_service::{CollectionId, GenieService};
use proptest::prelude::*;

const UNIVERSE: u32 = 64;
const TORTURE_FRAME_CAP: u32 = 64 * 1024;

struct Fixture {
    _service: Arc<GenieService>,
    collection: CollectionId,
    handle: Mutex<ServerHandle>,
    addr: std::net::SocketAddr,
}

/// One server shared by every proptest case in this file — the point
/// is exactly that hundreds of hostile connections hit the *same*
/// server and it keeps serving.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = objects(80, UNIVERSE, 6, 0x70a7);
        let config = ServerConfig {
            // keep hostile half-open connections from pinning threads
            handshake_timeout: Duration::from_millis(500),
            max_frame_len: TORTURE_FRAME_CAP,
            ..ServerConfig::default()
        };
        let (service, collection, handle) = start_server(&data, config);
        let addr = handle.addr();
        Fixture {
            _service: service,
            collection,
            handle: Mutex::new(handle),
            addr,
        }
    })
}

/// The health probe: a fresh well-behaved client must still be served.
fn assert_server_healthy(tag: &str) {
    let client = Client::connect(fixture().addr)
        .unwrap_or_else(|e| panic!("server unreachable after {tag}: {e}"));
    let reply = client
        .search(fixture().collection, 5, query(UNIVERSE, 1))
        .unwrap_or_else(|e| panic!("server unhealthy after {tag}: {e}"));
    assert!(reply.hits.len() <= 5);
}

fn handshake(stream: &mut TcpStream) {
    stream
        .write_all(&encode_request(
            0,
            &Request::Hello {
                version: PROTOCOL_VERSION,
                token: String::new(),
            },
        ))
        .expect("hello");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    read_frame(stream, TORTURE_FRAME_CAP)
        .expect("welcome readable")
        .expect("welcome present");
}

/// Read frames until the peer closes; never blocks forever.
fn drain_until_close(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => return,
        }
    }
}

fn sample_request(i: usize) -> Request {
    match i % 4 {
        0 => Request::Search {
            collection: fixture().collection,
            k: 5,
            query: query(UNIVERSE, i as u64),
        },
        1 => Request::Mutate {
            collection: fixture().collection,
            deletes: vec![],
            inserts: vec![vec![1, 2], vec![3]],
        },
        2 => Request::ListCollections,
        _ => Request::Stats,
    }
}

/// One of the three request kinds that carry a variable-width list,
/// with the list empty, and the fewest bytes one of its elements can
/// occupy (an object needs its own 4-byte count, a query item 8).
fn list_request(kind: usize) -> (Request, usize) {
    match kind % 3 {
        0 => (
            Request::CreateCollection {
                name: "forged".into(),
                shards: 1,
                objects: vec![],
            },
            4,
        ),
        1 => (
            Request::Mutate {
                collection: fixture().collection,
                deletes: vec![],
                inserts: vec![],
            },
            4,
        ),
        _ => (
            Request::Search {
                collection: fixture().collection,
                k: 5,
                query: Query::new(vec![]),
            },
            8,
        ),
    }
}

/// `request`'s frame with its (empty, trailing) list's count forged to
/// `n` and `filler` zero bytes where the elements should be.
fn forge_count(request: &Request, n: usize, filler: usize) -> Vec<u8> {
    let mut frame = encode_request(7, request);
    // the empty list's count is the frame's last four bytes
    let count_at = frame.len() - 4;
    frame[count_at..].copy_from_slice(&(n as u32).to_le_bytes());
    frame.resize(frame.len() + filler, 0);
    let body_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame
}

proptest! {
    /// A count that would fit at one byte per element but not at the
    /// element's real width is refused on the count alone — before a
    /// `Vec` is sized from it (one forged 8 MiB frame used to reserve
    /// 24× its size) — with the typed `Protocol` error.
    #[test]
    fn forged_counts_are_refused_before_allocating(
        kind in 0usize..3,
        filler in 64usize..8192,
        slack_bp in 0usize..10_000,
    ) {
        let (request, min_elem_bytes) = list_request(kind);
        let fits = filler / min_elem_bytes;
        let n = fits + 1 + (filler - fits - 1) * slack_bp / 10_000;
        let frame = forge_count(&request, n, filler);
        match decode_request(&frame[4..]) {
            Err(DecodeError::LengthOverrun { declared, remaining, .. }) => {
                prop_assert_eq!((declared, remaining), (n as u64, filler));
                prop_assert!(declared as usize > remaining / min_elem_bytes);
            }
            other => panic!("count {n} over {filler} bytes was not refused up front: {other:?}"),
        }
        // one element fewer than the bytes could hold is not an overrun
        // (it fails later, or decodes): the rule is exact, not a cap
        prop_assert!(!matches!(
            decode_request(&forge_count(&request, fits, filler)[4..]),
            Err(DecodeError::LengthOverrun { .. })
        ));

        let mut stream = TcpStream::connect(fixture().addr).expect("connect");
        handshake(&mut stream);
        stream.write_all(&frame).expect("forged frame");
        let body = read_frame(&mut stream, TORTURE_FRAME_CAP)
            .expect("error readable")
            .expect("error present");
        match decode_response(&body).expect("typed error") {
            (7, Response::Error { error: WireError::Protocol(detail) }) => {
                prop_assert!(detail.contains("declares"), "{detail}");
            }
            other => panic!("wanted a Protocol error for request 7, got {other:?}"),
        }
        drain_until_close(&mut stream);
        assert_server_healthy("a forged count");
    }

    /// A valid frame truncated at any byte → clean drop or typed
    /// error; the server survives every time.
    #[test]
    fn truncated_frames_never_wedge_the_server(which in 0usize..4, cut_bp in 0u32..10_000) {
        let mut stream = TcpStream::connect(fixture().addr).expect("connect");
        handshake(&mut stream);
        let full = encode_request(7, &sample_request(which));
        let cut = (full.len() - 1) * cut_bp as usize / 10_000;
        stream.write_all(&full[..cut]).expect("write truncated");
        // half-close: the server sees EOF mid-frame
        let _ = stream.shutdown(std::net::Shutdown::Write);
        drain_until_close(&mut stream);
        assert_server_healthy("a truncated frame");
    }

    /// Arbitrary garbage after a valid handshake → typed error frame
    /// or drop, never a panic.
    #[test]
    fn garbage_after_handshake_degrades_cleanly(
        bytes in proptest::collection::vec(0u8..=255, 1..200),
    ) {
        let mut stream = TcpStream::connect(fixture().addr).expect("connect");
        handshake(&mut stream);
        let _ = stream.write_all(&bytes);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        drain_until_close(&mut stream);
        assert_server_healthy("garbage bytes");
    }

    /// Garbage *instead of* a handshake.
    #[test]
    fn garbage_handshakes_are_rejected(
        bytes in proptest::collection::vec(0u8..=255, 1..64),
    ) {
        let mut stream = TcpStream::connect(fixture().addr).expect("connect");
        let _ = stream.write_all(&bytes);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        drain_until_close(&mut stream);
        assert_server_healthy("a garbage handshake");
    }

    /// Any version other than 1 is rejected with the typed
    /// UnsupportedVersion error naming the wanted version.
    #[test]
    fn wrong_versions_get_typed_rejects(raw in 2u16..1000) {
        // map one value onto 0 so the below-current case is covered too
        let version = if raw == 2 { 0 } else { raw };
        let mut stream = TcpStream::connect(fixture().addr).expect("connect");
        stream
            .write_all(&encode_request(0, &Request::Hello { version, token: String::new() }))
            .expect("hello");
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let body = read_frame(&mut stream, TORTURE_FRAME_CAP)
            .expect("reject readable")
            .expect("reject present");
        let (id, response) = decode_response(&body).expect("typed reject");
        prop_assert_eq!(id, 0);
        match response {
            Response::Reject { error: WireError::UnsupportedVersion { got, want } } => {
                prop_assert_eq!(got, version);
                prop_assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("wanted UnsupportedVersion, got {other:?}"),
        }
        drain_until_close(&mut stream);
        assert_server_healthy("a mis-versioned hello");
    }

    /// Length prefixes beyond the cap are refused without reading the
    /// body, while a *neighbor* connection keeps serving mid-abuse.
    #[test]
    fn oversized_lengths_are_refused_without_allocation(
        declared in TORTURE_FRAME_CAP + 1..u32::MAX,
    ) {
        let neighbor = Client::connect(fixture().addr).expect("neighbor connects");
        let mut stream = TcpStream::connect(fixture().addr).expect("connect");
        handshake(&mut stream);
        let before = fixture().handle.lock().unwrap().net_stats().oversized_frames;
        stream.write_all(&declared.to_le_bytes()).expect("length prefix");
        // no body follows — the declared length alone must get us dropped
        drain_until_close(&mut stream);
        let after = fixture().handle.lock().unwrap().net_stats().oversized_frames;
        prop_assert!(after > before, "the oversize counter must bump");
        // the neighbor never noticed
        let reply = neighbor
            .search(fixture().collection, 5, query(UNIVERSE, 2))
            .expect("neighbor survives sibling abuse");
        prop_assert!(reply.hits.len() <= 5);
    }
}

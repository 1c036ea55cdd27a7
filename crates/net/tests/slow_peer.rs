//! Slow and stalled peers: frames that arrive slower than the reader
//! poll interval must still decode intact (no stream desync), and a
//! peer that stalls mid-prefix must not pin its connection thread
//! past the handshake timeout or block a server drain.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{objects, query, start_server};
use genie_client::Client;
use genie_net::frame::{
    decode_response, encode_request, read_frame, Request, Response, PROTOCOL_VERSION,
};
use genie_net::server::ServerConfig;

const UNIVERSE: u32 = 64;
const FRAME_CAP: u32 = 64 * 1024;

/// Short poll so every test tick is cheap; sleeps between trickled
/// chunks are comfortably longer than this, so the server reader is
/// guaranteed to hit its read timeout mid-frame.
const READ_POLL: Duration = Duration::from_millis(20);

fn config() -> ServerConfig {
    ServerConfig {
        read_poll: READ_POLL,
        handshake_timeout: Duration::from_millis(250),
        drain_timeout: Duration::from_secs(5),
        max_frame_len: FRAME_CAP,
        ..ServerConfig::default()
    }
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
    read_frame(stream, FRAME_CAP)
        .expect("welcome readable")
        .expect("welcome present");
}

/// Regression: a frame delivered slower than the reader poll used to
/// desync the stream — the reader dropped the partially-read body and
/// re-parsed mid-body bytes as a fresh length prefix. Trickling a
/// request in small chunks with pauses longer than `read_poll` must
/// yield a correct answer, and the *next* request on the same
/// connection must still line up.
#[test]
fn slow_frame_delivery_does_not_desync_the_stream() {
    let data = objects(80, UNIVERSE, 6, 0x5701);
    let (_service, cid, mut handle) = start_server(&data, config());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    handshake(&mut stream);

    let request = encode_request(
        11,
        &Request::Search {
            collection: cid,
            k: 5,
            query: query(UNIVERSE, 3),
        },
    );
    // Pause inside the length prefix, on the prefix/body boundary, and
    // inside the body — every spot the old reader could lose bytes at.
    let cuts = [2usize, 4, 4 + (request.len() - 4) / 2, request.len()];
    let mut at = 0;
    for &cut in &cuts {
        stream.write_all(&request[at..cut]).expect("trickled chunk");
        at = cut;
        std::thread::sleep(3 * READ_POLL);
    }

    let body = read_frame(&mut stream, FRAME_CAP)
        .expect("response readable")
        .expect("response present");
    let (id, response) = decode_response(&body).expect("response decodes");
    assert_eq!(id, 11, "response must answer the trickled request");
    match response {
        Response::Search { hits, .. } => assert!(hits.len() <= 5),
        other => panic!("wanted Search, got {other:?}"),
    }

    // A second, normally-paced request on the same connection: if the
    // reader had mis-framed above, this one reads garbage or hangs.
    stream
        .write_all(&encode_request(12, &Request::Stats))
        .expect("follow-up request");
    let body = read_frame(&mut stream, FRAME_CAP)
        .expect("follow-up readable")
        .expect("follow-up present");
    let (id, response) = decode_response(&body).expect("follow-up decodes");
    assert_eq!(id, 12, "stream must still be frame-aligned");
    assert!(matches!(response, Response::Stats { .. }));

    assert!(handle.shutdown(), "drain must complete");
}

/// Regression: a peer that sends a few prefix bytes and stalls used to
/// spin the reader in an unbounded retry loop that never observed the
/// shutdown flag, so a drain had to ride out `drain_timeout`. The
/// reader must now surface each poll tick and exit promptly.
#[test]
fn stalled_mid_prefix_peer_does_not_block_shutdown() {
    let data = objects(80, UNIVERSE, 6, 0x5702);
    let (_service, _cid, mut handle) = start_server(&data, config());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    handshake(&mut stream);

    // Two bytes of a length prefix, then silence.
    stream.write_all(&[0x10, 0x00]).expect("partial prefix");
    // Give the server a moment to consume them so the reader is
    // genuinely parked mid-prefix when the drain begins.
    std::thread::sleep(3 * READ_POLL);

    let started = Instant::now();
    assert!(
        handle.shutdown(),
        "drain must complete despite a stalled mid-prefix peer"
    );
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "drain took {:?}; reader ignored the shutdown flag",
        started.elapsed()
    );
}

/// Regression companion: the same stall *before* the handshake — a
/// client trickling its Hello one byte at a time must be cut off at
/// `handshake_timeout`, not held forever.
#[test]
fn trickled_handshake_is_bounded_by_the_timeout() {
    let data = objects(80, UNIVERSE, 6, 0x5703);
    let (_service, cid, mut handle) = start_server(&data, config());

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&[0x09]).expect("lone prefix byte");
    // Wait past handshake_timeout (250ms) for the reject to land.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if handle.net_stats().handshake_rejects > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "handshake never timed out for a stalled peer"
        );
        std::thread::sleep(READ_POLL);
    }

    // The server is unscathed: a well-behaved client still gets served.
    let client = Client::connect(handle.addr()).expect("healthy client connects");
    let reply = client
        .search(cid, 5, query(UNIVERSE, 1))
        .expect("healthy client served");
    assert!(reply.hits.len() <= 5);

    drop(stream);
    assert!(handle.shutdown(), "drain must complete");
}

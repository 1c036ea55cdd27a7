//! The serving loop: [`NetServer`] accepts TCP connections and fronts
//! a [`GenieService`] with the framed protocol of
//! [`protocol`](crate::protocol).
//!
//! # Per-connection architecture
//!
//! Every accepted connection gets a **reader** thread (the spawned
//! connection thread itself) and a **writer** thread joined by one
//! channel, the writer's inbox:
//!
//! * The reader performs the handshake, then decodes request frames.
//!   Searches are admitted to the service's batching queue with a
//!   completion that pushes the result into the inbox
//!   ([`GenieService::submit_with`]), which is what makes the
//!   connection *pipelined*: the reader is already decoding the next
//!   frame while earlier searches wait for their wave. Mutations and
//!   admin requests execute inline (they are synchronous in the
//!   service) and ship to the writer as finished frames.
//! * The writer blocks on the inbox and streams replies in
//!   **completion order**: it is *notified* of each finished frame and
//!   each resolved search round, never polls for them — a slow search
//!   never blocks a later quick mutation's reply, and a peer that
//!   stops reading stalls only this thread, never a dispatcher.
//!
//! Failures degrade per the protocol's rules: semantic errors answer
//! the one request; undecodable/oversized frames and dead sockets get
//! a best-effort error frame, a counter bump, and the connection is
//! dropped. Sibling connections never notice, and the server never
//! panics on input.
//!
//! # Shutdown drain
//!
//! [`ServerHandle::shutdown`] stops the accept loop, flips the shared
//! [`ConnectionRegistry`] into draining and waits (bounded by
//! [`ServerConfig::drain_timeout`]) for every connection to flush its
//! accepted replies — the no-silently-dropped-request guarantee.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use genie_core::index::IndexBuilder;
use genie_core::model::{Object, Query};
use genie_core::shard::ShardError;
use genie_service::{
    BackendHealth, ConnectionRegistry, GenieService, ServiceError, ServiceStats, TicketResult,
};

use crate::frame::{
    self, CollectionInfo, FrameProgress, FrameReadError, FrameReader, Request, Response, WireError,
    HANDSHAKE_REQUEST_ID, PROTOCOL_VERSION,
};

/// Knobs of one [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Required auth token; `None` accepts any Hello token.
    pub auth_token: Option<String>,
    /// Per-frame body cap; larger declared lengths drop the connection
    /// without reading the body.
    pub max_frame_len: u32,
    /// How long a fresh connection may take to send its Hello frame.
    pub handshake_timeout: Duration,
    /// Reader poll interval — bounds how quickly an idle connection
    /// notices server shutdown.
    pub read_poll: Duration,
    /// Socket write timeout; tripping it marks the client a slow
    /// reader and drops the connection.
    pub write_timeout: Duration,
    /// Bound on the shutdown drain barrier.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            auth_token: None,
            max_frame_len: frame::DEFAULT_MAX_FRAME_LEN,
            handshake_timeout: Duration::from_secs(5),
            read_poll: Duration::from_millis(50),
            write_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Lifetime connection/frame counters of one server, snapshot via
/// [`ServerHandle::net_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Connections accepted and handed to a reader/writer pair.
    pub accepted: u64,
    /// Connections turned away because the server was draining.
    pub rejected_draining: u64,
    /// Handshakes rejected (bad magic/version/token, or no Hello
    /// within the handshake timeout).
    pub handshake_rejects: u64,
    /// Frames that failed to decode (connection dropped each time).
    pub protocol_errors: u64,
    /// Frames rejected on their declared length alone.
    pub oversized_frames: u64,
    /// Connections dropped by socket errors or mid-frame EOF.
    pub io_drops: u64,
    /// Connections dropped because the client stopped draining its
    /// socket and the write timeout tripped.
    pub slow_reader_drops: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Response frames fully written.
    pub frames_out: u64,
    /// Search requests admitted to the service queue.
    pub requests_admitted: u64,
    /// Error frames sent (request-scoped failures).
    pub errors_sent: u64,
}

impl NetStats {
    /// Flat `net/...` name→value rows, the server's share of a
    /// [`Response::Stats`] payload.
    pub fn fields(&self) -> Vec<(String, f64)> {
        vec![
            ("net/accepted".into(), self.accepted as f64),
            (
                "net/rejected_draining".into(),
                self.rejected_draining as f64,
            ),
            (
                "net/handshake_rejects".into(),
                self.handshake_rejects as f64,
            ),
            ("net/protocol_errors".into(), self.protocol_errors as f64),
            ("net/oversized_frames".into(), self.oversized_frames as f64),
            ("net/io_drops".into(), self.io_drops as f64),
            (
                "net/slow_reader_drops".into(),
                self.slow_reader_drops as f64,
            ),
            ("net/frames_in".into(), self.frames_in as f64),
            ("net/frames_out".into(), self.frames_out as f64),
            (
                "net/requests_admitted".into(),
                self.requests_admitted as f64,
            ),
            ("net/errors_sent".into(), self.errors_sent as f64),
        ]
    }
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    rejected_draining: AtomicU64,
    handshake_rejects: AtomicU64,
    protocol_errors: AtomicU64,
    oversized_frames: AtomicU64,
    io_drops: AtomicU64,
    slow_reader_drops: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    requests_admitted: AtomicU64,
    errors_sent: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> NetStats {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        NetStats {
            accepted: ld(&self.accepted),
            rejected_draining: ld(&self.rejected_draining),
            handshake_rejects: ld(&self.handshake_rejects),
            protocol_errors: ld(&self.protocol_errors),
            oversized_frames: ld(&self.oversized_frames),
            io_drops: ld(&self.io_drops),
            slow_reader_drops: ld(&self.slow_reader_drops),
            frames_in: ld(&self.frames_in),
            frames_out: ld(&self.frames_out),
            requests_admitted: ld(&self.requests_admitted),
            errors_sent: ld(&self.errors_sent),
        }
    }
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

struct Shared {
    service: Arc<GenieService>,
    config: ServerConfig,
    registry: ConnectionRegistry,
    counters: Counters,
    shutdown: AtomicBool,
}

/// Namespace for [`NetServer::spawn`].
pub struct NetServer;

impl NetServer {
    /// Bind `addr`, start the accept loop, and serve `service` until
    /// the returned handle shuts down. Bind to port 0 for an
    /// OS-assigned port (see [`ServerHandle::addr`]).
    pub fn spawn(
        service: Arc<GenieService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config,
            registry: ConnectionRegistry::new(),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("genie-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// A running server. Dropping it shuts the server down (draining
/// in-flight connections); call [`shutdown`](Self::shutdown) directly
/// to observe whether the drain completed in time.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (the actual port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the connection/frame counters.
    pub fn net_stats(&self) -> NetStats {
        self.shared.counters.snapshot()
    }

    /// Connections currently registered (handshaken or flushing).
    pub fn active_connections(&self) -> usize {
        self.shared.registry.active()
    }

    /// Stop accepting, drain every live connection (bounded by
    /// [`ServerConfig::drain_timeout`]) and join the accept loop.
    /// Returns whether the drain fully completed; idempotent —
    /// repeat calls return `true` without re-draining.
    pub fn shutdown(&mut self) -> bool {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return true;
        }
        self.shared.registry.begin_drain();
        // unblock the accept loop with a throwaway connection
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared
            .registry
            .await_drained(self.shared.config.drain_timeout)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // a persistent accept error (EMFILE under connection
                // pressure, say) must not spin this thread at 100% CPU
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return; // the self-connect wakeup, or a late arrival
        }
        let Some(guard) = shared.registry.register() else {
            bump(&shared.counters.rejected_draining);
            reject_and_drop(stream, &shared, WireError::ShuttingDown);
            continue;
        };
        bump(&shared.counters.accepted);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("genie-net-conn".into())
            .spawn(move || {
                serve_connection(stream, conn_shared, guard);
            });
        if spawned.is_err() {
            bump(&shared.counters.io_drops);
        }
    }
}

/// Best-effort typed reject on a connection we will not serve.
fn reject_and_drop(mut stream: TcpStream, shared: &Shared, error: WireError) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let body = frame::encode_response(HANDSHAKE_REQUEST_ID, &Response::Reject { error });
    let _ = stream.write_all(&body);
    let _ = stream.shutdown(Shutdown::Both);
}

/// What lands in a connection writer's inbox.
enum Outbound {
    /// A finished frame, writable immediately.
    Frame(Vec<u8>),
    /// One resolved round of an admitted search, pushed by the
    /// service's completion for it.
    Round {
        search: Arc<Search>,
        round: usize,
        result: TicketResult,
    },
}

/// One admitted Search / SearchAdaptive request.
struct Search {
    request_id: u64,
    final_k: u32,
    /// Candidate count of each round; all rounds ride the same wave.
    schedule: Vec<u32>,
}

/// Fold resolved schedule rounds into one Search reply: the first
/// *saturated* round (fewer hits than its candidate count — a larger K
/// cannot add more) or the last round, truncated to the requested `k`.
fn assemble_search_reply(search: &Search, results: Vec<TicketResult>) -> Response {
    let chosen = results
        .iter()
        .zip(&search.schedule)
        .position(|(result, &kc)| matches!(result, Ok(resp) if resp.hits.len() < kc as usize))
        .unwrap_or(results.len() - 1);
    match results.into_iter().nth(chosen).expect("chosen is in range") {
        Ok(resp) => {
            let mut hits = resp.hits;
            hits.truncate(search.final_k as usize);
            Response::Search {
                rounds: (chosen + 1) as u32,
                audit_threshold: resp.audit_threshold,
                hits,
            }
        }
        Err(e) => Response::Error { error: e.into() },
    }
}

/// The service's typed error on the wire taxonomy — a
/// variant-for-variant mapping, never a classification of message
/// strings.
impl From<ServiceError> for WireError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::ShuttingDown => Self::ShuttingDown,
            ServiceError::UnknownCollection(id) => Self::UnknownCollection(id),
            ServiceError::UnknownId(id) => Self::UnknownId(id),
            // the wire path refuses `k = 0` itself, with this message
            ServiceError::ZeroK => Self::Service(e.to_string()),
            ServiceError::InvalidShards(e) => Self::InvalidShards(e.to_string()),
            ServiceError::Persist(e) => Self::Service(format!("persistence failure: {e}")),
            ServiceError::Internal(e) => Self::Service(e),
        }
    }
}

/// Serve one handshaken-or-not connection to completion. This is the
/// reader thread; it owns the writer thread it spawns.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>, guard: genie_service::ConnectionGuard) {
    // the guard must outlive the writer join below: every accepted
    // request's reply is flushed before the drain barrier releases
    let _guard = guard;
    let Some((mut read_half, write_half)) = handshake(stream, &shared) else {
        return;
    };
    let (tx, rx) = channel::<Outbound>();
    let writer_shared = Arc::clone(&shared);
    let writer = std::thread::Builder::new()
        .name("genie-net-write".into())
        .spawn(move || writer_loop(write_half, rx, writer_shared));
    let Ok(writer) = writer else {
        bump(&shared.counters.io_drops);
        return;
    };
    reader_loop(&mut read_half, &shared, &tx);
    // the writer exits once every sender is gone: this one, and the
    // clone inside each admitted search's completion — so everything
    // accepted is flushed first, and the socket shuts down only then
    drop(tx);
    let _ = writer.join();
    let _ = read_half.shutdown(Shutdown::Both);
}

/// Run the handshake: first frame must be a well-formed Hello with the
/// right version and token. Returns the reader/writer socket halves on
/// success; on failure the connection is rejected/dropped here.
fn handshake(stream: TcpStream, shared: &Shared) -> Option<(TcpStream, TcpStream)> {
    let config = &shared.config;
    let _ = stream.set_nodelay(true);
    // poll-grade read timeout: the Hello may trickle in byte by byte,
    // and the loop below enforces the *total* handshake deadline (and
    // notices server shutdown) between polls — a client stalling
    // mid-prefix can neither desync the stream nor pin this thread (and
    // its drain guard) past the handshake timeout
    if stream.set_read_timeout(Some(config.read_poll)).is_err() {
        bump(&shared.counters.io_drops);
        return None;
    }
    let mut read_half = stream;
    let deadline = Instant::now() + config.handshake_timeout;
    let mut reader = FrameReader::new();
    let body = loop {
        match reader.read(&mut read_half, config.max_frame_len) {
            Ok(FrameProgress::Frame(body)) => break body,
            Ok(FrameProgress::Eof) => {
                // connected and went away without a word — the shutdown
                // self-connect does exactly this
                return None;
            }
            Ok(FrameProgress::TimedOut { .. }) => {
                if shared.shutdown.load(Ordering::Acquire) || Instant::now() >= deadline {
                    // no complete Hello within the handshake window
                    bump(&shared.counters.handshake_rejects);
                    return None;
                }
            }
            Err(FrameReadError::TooLarge { len, max }) => {
                bump(&shared.counters.oversized_frames);
                bump(&shared.counters.handshake_rejects);
                reject_and_drop(read_half, shared, WireError::TooLarge { len, max });
                return None;
            }
            Err(FrameReadError::Io(_)) => {
                bump(&shared.counters.handshake_rejects);
                return None;
            }
        }
    };
    let error = match frame::decode_request(&body) {
        Ok((HANDSHAKE_REQUEST_ID, Request::Hello { version, token })) => {
            if version != PROTOCOL_VERSION {
                Some(WireError::UnsupportedVersion {
                    got: version,
                    want: PROTOCOL_VERSION,
                })
            } else {
                match &config.auth_token {
                    Some(want) if *want != token => {
                        Some(WireError::Auth("invalid auth token".into()))
                    }
                    _ => None,
                }
            }
        }
        Ok(_) => Some(WireError::Protocol(
            "first frame must be Hello with request id 0".into(),
        )),
        Err(e) => Some(WireError::Protocol(format!("bad hello frame: {e}"))),
    };
    if let Some(error) = error {
        bump(&shared.counters.handshake_rejects);
        reject_and_drop(read_half, shared, error);
        return None;
    }
    let Ok(mut write_half) = read_half.try_clone() else {
        bump(&shared.counters.io_drops);
        return None;
    };
    let _ = write_half.set_write_timeout(Some(config.write_timeout));
    let welcome = frame::encode_response(
        HANDSHAKE_REQUEST_ID,
        &Response::Welcome {
            version: PROTOCOL_VERSION,
        },
    );
    if write_half.write_all(&welcome).is_err() {
        bump(&shared.counters.io_drops);
        return None;
    }
    bump(&shared.counters.frames_out);
    // the read timeout is already read_poll — exactly what the serving
    // reader_loop polls with
    Some((read_half, write_half))
}

/// Decode frames and dispatch them until EOF, a protocol breach, a
/// socket error, or server shutdown.
///
/// The [`FrameReader`] persists across poll ticks: a frame whose bytes
/// straddle the `read_poll` timeout (large frames, congested links,
/// incremental writers) resumes exactly where it stopped instead of
/// re-parsing mid-body bytes as a fresh length prefix, and a stalled
/// mid-frame sender still lets this thread observe server shutdown on
/// every tick.
fn reader_loop(read_half: &mut TcpStream, shared: &Shared, tx: &Sender<Outbound>) {
    let mut reader = FrameReader::new();
    loop {
        let body = match reader.read(read_half, shared.config.max_frame_len) {
            Ok(FrameProgress::Frame(body)) => body,
            Ok(FrameProgress::Eof) => return, // clean close
            Ok(FrameProgress::TimedOut { .. }) => {
                // poll tick: keep serving unless shutting down (partial
                // frame bytes stay buffered in the reader)
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(FrameReadError::TooLarge { len, max }) => {
                bump(&shared.counters.oversized_frames);
                send_error(
                    tx,
                    shared,
                    HANDSHAKE_REQUEST_ID,
                    WireError::TooLarge { len, max },
                );
                return;
            }
            Err(FrameReadError::Io(_)) => {
                bump(&shared.counters.io_drops);
                return;
            }
        };
        bump(&shared.counters.frames_in);
        let (request_id, request) = match frame::decode_request(&body) {
            Ok(decoded) => decoded,
            Err(e) => {
                bump(&shared.counters.protocol_errors);
                // the id field may still be intact — tag the error with
                // it so the client can match the failure to a request
                let id = salvage_request_id(&body);
                send_error(tx, shared, id, WireError::Protocol(e.to_string()));
                return; // stream may be out of sync: drop
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            send_error(tx, shared, request_id, WireError::ShuttingDown);
            return;
        }
        if request_id == HANDSHAKE_REQUEST_ID {
            bump(&shared.counters.protocol_errors);
            send_error(
                tx,
                shared,
                request_id,
                WireError::Protocol("request id 0 is reserved for the handshake".into()),
            );
            return;
        }
        if let Some(frame) = dispatch(shared, tx, request_id, request) {
            if tx.send(Outbound::Frame(frame)).is_err() {
                return; // writer already dropped the connection
            }
        }
    }
}

/// Best-effort undecodable-frame id salvage: the `u64` after the kind
/// byte, when the body got that far.
fn salvage_request_id(body: &[u8]) -> u64 {
    match body.get(1..9) {
        Some(bytes) => u64::from_le_bytes(bytes.try_into().expect("sliced to 8 bytes")),
        None => HANDSHAKE_REQUEST_ID,
    }
}

fn send_error(tx: &Sender<Outbound>, shared: &Shared, request_id: u64, error: WireError) {
    let _ = tx.send(Outbound::Frame(error_frame(shared, request_id, error)));
}

fn error_frame(shared: &Shared, request_id: u64, error: WireError) -> Vec<u8> {
    bump(&shared.counters.errors_sent);
    frame::encode_response(request_id, &Response::Error { error })
}

/// Serve one decoded request: the finished reply frame for everything
/// the service answers synchronously, `None` for an admitted search
/// (its rounds reach the writer through their completions).
fn dispatch(
    shared: &Shared,
    tx: &Sender<Outbound>,
    request_id: u64,
    request: Request,
) -> Option<Vec<u8>> {
    let service = &shared.service;
    // pre-check the collection so unknown ids answer with the typed
    // error instead of a formatted Service string at wave time
    if let Some(collection) = request.collection() {
        if service.collection_len(collection).is_none() {
            let error = WireError::UnknownCollection(collection);
            return Some(error_frame(shared, request_id, error));
        }
    }
    let mutate = |collection, deletes: &[u32], inserts: Vec<Vec<u32>>| {
        let inserts = inserts.into_iter().map(Object::new).collect();
        service.mutate_collection(collection, deletes, inserts, &mut |_, _| {})
    };
    let outcome: Result<Response, WireError> = match request {
        Request::Hello { .. } => Err(WireError::Protocol(
            "Hello is only valid as the first frame".into(),
        )),
        Request::Search {
            collection,
            k,
            query,
        } => return submit_rounds(shared, tx, request_id, collection, k, vec![k], query),
        Request::SearchAdaptive {
            collection,
            k,
            schedule,
            query,
        } => return submit_rounds(shared, tx, request_id, collection, k, schedule, query),
        Request::Insert {
            collection,
            keywords,
        } => mutate(collection, &[], vec![keywords])
            .map(|ids| Response::Ids { ids })
            .map_err(WireError::from),
        Request::Delete { collection, ids } => mutate(collection, &ids, Vec::new())
            .map(|_| Response::Ack)
            .map_err(WireError::from),
        Request::Upsert {
            collection,
            id,
            keywords,
        } => mutate(collection, &[id], vec![keywords])
            .map(|ids| Response::Ids { ids })
            .map_err(WireError::from),
        Request::Mutate {
            collection,
            deletes,
            inserts,
        } => mutate(collection, &deletes, inserts)
            .map(|ids| Response::Ids { ids })
            .map_err(WireError::from),
        Request::Compact { collection } => service
            .compact_collection(collection)
            .map(|applied| Response::Compacted { applied })
            .map_err(WireError::from),
        Request::MutationStatus { collection } => service
            .mutation_status(collection)
            .map(|s| Response::MutationStatus {
                live: s.live as u64,
                delta: s.delta as u64,
                tombstones: s.tombstones as u64,
                base_shards: s.base_shards as u64,
                next_id: s.next_id,
            })
            .ok_or(WireError::UnknownCollection(collection)),
        // mirror GenieDb::create_collection_sharded: a zero shard count
        // is a typed validation error, not a silent clamp
        Request::CreateCollection { shards: 0, .. } => {
            Err(WireError::InvalidShards(ShardError::ZeroShards.to_string()))
        }
        Request::CreateCollection {
            name,
            shards,
            objects,
        } => service
            .add_collection_sharded(&name, &build_index(&objects), shards as usize)
            .map(|collection| Response::Created { collection })
            .map_err(WireError::from),
        Request::Reindex {
            collection,
            objects,
        } => service
            .swap_collection(collection, &build_index(&objects))
            .map(|upload_sim_us| Response::Reindexed { upload_sim_us })
            .map_err(WireError::from),
        Request::ListCollections => {
            let entries = service
                .collection_names()
                .into_iter()
                .map(|(id, name)| CollectionInfo {
                    id,
                    name,
                    shards: service.collection_shards(id).unwrap_or(0) as u32,
                    len: service.collection_len(id).unwrap_or(0) as u64,
                })
                .collect();
            Ok(Response::Collections { entries })
        }
        Request::Stats => {
            let mut fields = service_stats_fields(&service.stats());
            fields.extend(backend_health_fields(&service.backend_health()));
            fields.extend(shared.counters.snapshot().fields());
            fields.push((
                "net/active_connections".into(),
                shared.registry.active() as f64,
            ));
            Ok(Response::Stats { fields })
        }
    };
    Some(match outcome {
        Ok(response) => frame::encode_response(request_id, &response),
        Err(error) => error_frame(shared, request_id, error),
    })
}

/// Validate and admit one search round per schedule entry (they land
/// in the same wave); each round's completion notifies the writer.
/// Returns the error frame when validation refuses the request.
fn submit_rounds(
    shared: &Shared,
    tx: &Sender<Outbound>,
    request_id: u64,
    collection: u64,
    k: u32,
    schedule: Vec<u32>,
    query: Query,
) -> Option<Vec<u8>> {
    let refused = if schedule.is_empty() {
        Some(WireError::Service(
            "adaptive schedule must be non-empty".into(),
        ))
    } else if k == 0 || schedule.contains(&0) {
        Some(WireError::Service("k must be at least 1".into()))
    } else {
        Query::try_new(query.items.clone())
            .err()
            .map(WireError::from)
    };
    if let Some(error) = refused {
        return Some(error_frame(shared, request_id, error));
    }
    let search = Arc::new(Search {
        request_id,
        final_k: k,
        schedule,
    });
    for (round, &kc) in search.schedule.iter().enumerate() {
        bump(&shared.counters.requests_admitted);
        let (tx, search) = (tx.clone(), Arc::clone(&search));
        shared
            .service
            .submit_with(collection, query.clone(), kc as usize, move |result| {
                let _ = tx.send(Outbound::Round {
                    search,
                    round,
                    result,
                });
            });
    }
    None
}

fn build_index(objects: &[Vec<u32>]) -> Arc<genie_core::index::InvertedIndex> {
    let mut builder = IndexBuilder::new();
    for keywords in objects {
        builder.add_object(&Object {
            keywords: keywords.clone(),
        });
    }
    Arc::new(builder.build(None))
}

impl Request {
    /// The collection id a request targets, if any — what the serving
    /// loop pre-validates.
    fn collection(&self) -> Option<u64> {
        match self {
            Request::Search { collection, .. }
            | Request::SearchAdaptive { collection, .. }
            | Request::Insert { collection, .. }
            | Request::Delete { collection, .. }
            | Request::Upsert { collection, .. }
            | Request::Mutate { collection, .. }
            | Request::Compact { collection }
            | Request::MutationStatus { collection }
            | Request::Reindex { collection, .. } => Some(*collection),
            Request::Hello { .. }
            | Request::CreateCollection { .. }
            | Request::ListCollections
            | Request::Stats => None,
        }
    }
}

/// Flatten the service counters into name→value rows for the Stats
/// frame (mirrors [`ServiceStats`] field for field).
pub fn service_stats_fields(s: &ServiceStats) -> Vec<(String, f64)> {
    vec![
        ("service/submitted".into(), s.submitted as f64),
        ("service/served".into(), s.served as f64),
        ("service/failed_requests".into(), s.failed_requests as f64),
        ("service/cache_hits".into(), s.cache_hits as f64),
        ("service/size_triggers".into(), s.size_triggers as f64),
        (
            "service/deadline_triggers".into(),
            s.deadline_triggers as f64,
        ),
        ("service/shutdown_flushes".into(), s.shutdown_flushes as f64),
        ("service/waves".into(), s.waves as f64),
        ("service/failed_waves".into(), s.failed_waves as f64),
        ("service/batches".into(), s.batches as f64),
        ("service/shard_runs".into(), s.shard_runs as f64),
        ("service/batched_requests".into(), s.batched_requests as f64),
        ("service/wall_us".into(), s.wall_us),
        ("service/predicted_cost_us".into(), s.predicted_cost_us),
        ("service/actual_cost_us".into(), s.actual_cost_us),
        ("service/mutation_batches".into(), s.mutation_batches as f64),
        ("service/inserted".into(), s.inserted as f64),
        ("service/deleted".into(), s.deleted as f64),
        ("service/compactions".into(), s.compactions as f64),
        (
            "service/stale_compactions".into(),
            s.stale_compactions as f64,
        ),
        (
            "service/mean_batch_occupancy".into(),
            s.mean_batch_occupancy(),
        ),
        // fleet + learned-cost counters ride behind the v1 rows: Stats
        // consumers look names up by key, so appending rows is
        // wire-compatible (see `genie_net::protocol`, "Compatibility");
        // the three placement rows are always 0 and stay for readers
        // that look them up
        (
            "service/placed_shard_runs".into(),
            s.placed_shard_runs as f64,
        ),
        ("service/hot_shard_events".into(), s.hot_shard_events as f64),
        ("service/rebalances".into(), s.rebalances as f64),
        ("service/learned_base_us".into(), s.learned_base_us),
        (
            "service/learned_us_per_posting".into(),
            s.learned_us_per_posting,
        ),
        (
            "service/cost_observations".into(),
            s.cost_observations as f64,
        ),
        ("service/journaled_events".into(), s.journaled_events as f64),
        ("service/checkpoints".into(), s.checkpoints as f64),
        ("service/persist_errors".into(), s.persist_errors as f64),
    ]
}

/// Flatten the fleet's health table into name→value rows for the Stats
/// frame: `backend/{i}/{name}/...` per backend, in fleet order. The
/// learned cost-model rows surface the scheduler's online EWMA (see
/// [`BackendHealth`]) so remote operators watch per-backend capacity
/// without shell access to the server.
pub fn backend_health_fields(health: &[BackendHealth]) -> Vec<(String, f64)> {
    let mut fields = Vec::with_capacity(health.len() * 8);
    for (i, b) in health.iter().enumerate() {
        let key = |stat: &str| format!("backend/{i}/{}/{stat}", b.name);
        fields.push((key("batches"), b.batches as f64));
        fields.push((key("queries"), b.queries as f64));
        fields.push((key("failed"), b.failed as f64));
        fields.push((key("retired"), u64::from(b.retired) as f64));
        fields.push((key("probes"), b.probes as f64));
        fields.push((key("learned_base_us"), b.cost_model.base_us));
        fields.push((key("learned_us_per_posting"), b.cost_model.us_per_posting));
        fields.push((key("cost_observations"), b.cost_observations as f64));
    }
    fields
}

/// Stream replies in completion order: block on the inbox, write each
/// finished frame, and write a search's reply when its last round
/// arrives. Ends when every sender is gone (the reader hung up and no
/// admitted search is still unanswered) or the socket dies.
fn writer_loop(mut stream: TcpStream, rx: Receiver<Outbound>, shared: Arc<Shared>) {
    // rounds still waiting for their siblings, keyed by the search they
    // belong to (its address: request ids are the client's to repeat)
    let mut partial: HashMap<*const Search, Vec<Option<TicketResult>>> = HashMap::new();
    while let Ok(outbound) = rx.recv() {
        let bytes = match outbound {
            Outbound::Frame(bytes) => bytes,
            Outbound::Round {
                search,
                round,
                result,
            } => {
                let slots = partial
                    .entry(Arc::as_ptr(&search))
                    .or_insert_with(|| vec![None; search.schedule.len()]);
                slots[round] = Some(result);
                if slots.iter().any(Option::is_none) {
                    continue;
                }
                let results = partial
                    .remove(&Arc::as_ptr(&search))
                    .expect("entry filled above")
                    .into_iter()
                    .flatten()
                    .collect();
                frame::encode_response(search.request_id, &assemble_search_reply(&search, results))
            }
        };
        if let Err(e) = stream.write_all(&bytes) {
            use std::io::ErrorKind;
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                bump(&shared.counters.slow_reader_drops);
            } else {
                bump(&shared.counters.io_drops);
            }
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        bump(&shared.counters.frames_out);
    }
}

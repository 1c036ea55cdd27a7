//! Frame codec: typed [`Request`]/[`Response`] values ⇄ length-prefixed
//! wire frames, plus the [`WireError`] taxonomy that mirrors the
//! in-process error types on the wire.
//!
//! See the [`protocol`](crate::protocol) module for the normative frame
//! layout, handshake state machine and error-code table. Everything
//! here is pure buffer work — no sockets — so the torture suite can
//! hammer the decoder with truncated/garbage/oversized inputs directly.

use genie_core::codec::{DecodeError, Reader, Writer};
use genie_core::model::{Query, QueryBuildError};
use genie_core::topk::TopHit;

/// The protocol version this build speaks. A [`Request::Hello`]
/// carrying any other version is rejected with
/// [`WireError::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u16 = 1;

/// The handshake magic leading every [`Request::Hello`] payload. A
/// connection whose first frame does not carry it is not speaking this
/// protocol at all and is dropped after a typed reject.
pub const HELLO_MAGIC: [u8; 4] = *b"GNET";

/// Default cap on one frame's body length (kind byte + request id +
/// payload). Frames declaring more are answered with
/// [`WireError::TooLarge`] and the connection is dropped without
/// reading (let alone allocating) the oversized body.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Request ids `0` is reserved for handshake frames (Hello / Welcome /
/// Reject), which precede pipelining.
pub const HANDSHAKE_REQUEST_ID: u64 = 0;

// Frame kind bytes. Requests sit below 0x80, responses at or above it.
const KIND_HELLO: u8 = 0x01;
const KIND_SEARCH: u8 = 0x10;
const KIND_SEARCH_ADAPTIVE: u8 = 0x11;
const KIND_INSERT: u8 = 0x12;
const KIND_DELETE: u8 = 0x13;
const KIND_UPSERT: u8 = 0x14;
const KIND_MUTATE: u8 = 0x15;
const KIND_COMPACT: u8 = 0x16;
const KIND_MUTATION_STATUS: u8 = 0x17;
const KIND_CREATE_COLLECTION: u8 = 0x18;
const KIND_REINDEX: u8 = 0x19;
const KIND_LIST_COLLECTIONS: u8 = 0x1A;
const KIND_STATS: u8 = 0x1B;

const KIND_WELCOME: u8 = 0x81;
const KIND_REJECT: u8 = 0x82;
const KIND_SEARCH_OK: u8 = 0x90;
const KIND_IDS_OK: u8 = 0x91;
const KIND_ACK: u8 = 0x92;
const KIND_COMPACT_OK: u8 = 0x93;
const KIND_STATUS_OK: u8 = 0x94;
const KIND_CREATED: u8 = 0x95;
const KIND_REINDEXED: u8 = 0x96;
const KIND_COLLECTIONS: u8 = 0x97;
const KIND_STATS_OK: u8 = 0x98;
const KIND_ERROR: u8 = 0xE0;

/// One client→server frame body (request id carried alongside).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake opener: protocol version + optional auth token
    /// (empty string = none). Must be the first frame on a connection.
    Hello { version: u16, token: String },
    /// Top-`k` match-count search against one collection.
    Search {
        collection: u64,
        k: u32,
        query: Query,
    },
    /// Adaptive search: one search per candidate count in `schedule`,
    /// answered by the first *saturated* round (fewer hits than asked —
    /// a larger K cannot add more) or the last round otherwise.
    SearchAdaptive {
        collection: u64,
        k: u32,
        schedule: Vec<u32>,
        query: Query,
    },
    /// Insert one object (its keyword multiset); replies with the
    /// assigned stable id.
    Insert { collection: u64, keywords: Vec<u32> },
    /// Delete objects by id.
    Delete { collection: u64, ids: Vec<u32> },
    /// Delete `id` and insert a replacement in one atomic batch;
    /// replies with the replacement's new id.
    Upsert {
        collection: u64,
        id: u32,
        keywords: Vec<u32>,
    },
    /// General mutation batch: deletes then inserts, atomic.
    Mutate {
        collection: u64,
        deletes: Vec<u32>,
        inserts: Vec<Vec<u32>>,
    },
    /// Fold pending delta + tombstones into fresh base shards.
    Compact { collection: u64 },
    /// Live/delta/tombstone bookkeeping of one collection.
    MutationStatus { collection: u64 },
    /// Build a new collection from raw objects, sharded `shards` ways.
    CreateCollection {
        name: String,
        shards: u32,
        objects: Vec<Vec<u32>>,
    },
    /// Rebuild an existing collection over new objects.
    Reindex {
        collection: u64,
        objects: Vec<Vec<u32>>,
    },
    /// Registered collections with shard counts and live sizes.
    ListCollections,
    /// Server + service counters snapshot.
    Stats,
}

/// One entry of a [`Response::Collections`] listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionInfo {
    pub id: u64,
    pub name: String,
    pub shards: u32,
    pub len: u64,
}

/// One server→client frame body (request id carried alongside).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted; the server speaks `version`.
    Welcome { version: u16 },
    /// Handshake rejected; the connection closes after this frame.
    Reject { error: WireError },
    /// Answer to `Search`/`SearchAdaptive`. `rounds` is 1 for plain
    /// searches, the number of schedule rounds consumed for adaptive.
    Search {
        rounds: u32,
        audit_threshold: u32,
        hits: Vec<TopHit>,
    },
    /// Ids assigned by `Insert`/`Upsert`/`Mutate` (in insert order).
    Ids { ids: Vec<u32> },
    /// Success without payload (`Delete`).
    Ack,
    /// Whether a `Compact` actually folded anything.
    Compacted { applied: bool },
    /// Answer to `MutationStatus`.
    MutationStatus {
        live: u64,
        delta: u64,
        tombstones: u64,
        base_shards: u64,
        next_id: u32,
    },
    /// Id of a freshly created collection.
    Created { collection: u64 },
    /// Simulated upload time of a `Reindex` swap.
    Reindexed { upload_sim_us: f64 },
    /// Answer to `ListCollections`.
    Collections { entries: Vec<CollectionInfo> },
    /// Answer to `Stats`: flat name→value counters (service counters
    /// first, then the server's `net/...` connection counters).
    Stats { fields: Vec<(String, f64)> },
    /// Typed failure of the tagged request — see [`WireError`].
    Error { error: WireError },
}

/// The full wire error taxonomy — what an [`Response::Error`] (or a
/// handshake [`Response::Reject`]) carries. Mirrors the in-process
/// types: a `QueryBuildError` travels as itself inside
/// [`WireError::Build`], `ServiceError`/`DbError` variants → the
/// corresponding variants here, plus the transport-only conditions
/// (malformed frame, oversized frame, version mismatch, auth failure,
/// shutdown).
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame could not be decoded (truncated body, unknown kind,
    /// trailing bytes, bad UTF-8 ...). The connection is dropped after
    /// this frame — the stream can no longer be trusted to be in sync.
    Protocol(String),
    /// A frame declared a body longer than the server's cap.
    TooLarge { len: u64, max: u64 },
    /// Handshake version mismatch.
    UnsupportedVersion { got: u16, want: u16 },
    /// Handshake token mismatch.
    Auth(String),
    /// The server is draining; no new requests are admitted.
    ShuttingDown,
    /// A request named a collection id the service does not have.
    UnknownCollection(u64),
    /// A delete/upsert named an object id that is not live
    /// (mirrors `ServiceError::UnknownId`; the batch was not applied).
    UnknownId(u32),
    /// Mirrors `DbError::NoBackends`.
    NoBackends,
    /// Mirrors `DbError::InvalidShards`.
    InvalidShards(String),
    /// Operational service failure (mirrors `DbError::Service`).
    Service(String),
    /// The query/item failed typed validation.
    Build(QueryBuildError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Protocol(d) => write!(f, "protocol error: {d}"),
            Self::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            Self::UnsupportedVersion { got, want } => {
                write!(
                    f,
                    "unsupported protocol version {got} (server speaks {want})"
                )
            }
            Self::Auth(d) => write!(f, "authentication failed: {d}"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::UnknownCollection(id) => write!(f, "unknown collection id {id}"),
            Self::UnknownId(id) => write!(f, "cannot delete unknown object id {id}"),
            Self::NoBackends => write!(f, "no backends configured"),
            Self::InvalidShards(d) => write!(f, "invalid shard configuration: {d}"),
            Self::Service(d) => write!(f, "service error: {d}"),
            Self::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<QueryBuildError> for WireError {
    fn from(e: QueryBuildError) -> Self {
        Self::Build(e)
    }
}

// ---- error codes (see crate::protocol for the normative table) ----

const ERR_PROTOCOL: u16 = 1;
const ERR_TOO_LARGE: u16 = 2;
const ERR_UNSUPPORTED_VERSION: u16 = 3;
const ERR_AUTH: u16 = 4;
const ERR_SHUTTING_DOWN: u16 = 5;
const ERR_UNKNOWN_COLLECTION: u16 = 6;
const ERR_UNKNOWN_ID: u16 = 7;
const ERR_NO_BACKENDS: u16 = 8;
const ERR_INVALID_SHARDS: u16 = 9;
const ERR_SERVICE: u16 = 10;
const ERR_BUILD_EMPTY_QUERY: u16 = 100;
const ERR_BUILD_EMPTY_RANGE: u16 = 101;
const ERR_BUILD_KEYWORD_OUT_OF_RANGE: u16 = 102;
const ERR_BUILD_NON_FINITE: u16 = 103;
const ERR_BUILD_NEGATIVE: u16 = 104;
const ERR_BUILD_EMPTY_NUMERIC_RANGE: u16 = 105;
const ERR_BUILD_UNKNOWN_ATTRIBUTE: u16 = 106;
const ERR_BUILD_TYPE_MISMATCH: u16 = 107;
const ERR_BUILD_VALUE_OUT_OF_RANGE: u16 = 108;
const ERR_BUILD_ROW_ARITY: u16 = 109;

impl WireError {
    /// The numeric code this error travels under (protocol §errors).
    pub fn code(&self) -> u16 {
        match self {
            Self::Protocol(_) => ERR_PROTOCOL,
            Self::TooLarge { .. } => ERR_TOO_LARGE,
            Self::UnsupportedVersion { .. } => ERR_UNSUPPORTED_VERSION,
            Self::Auth(_) => ERR_AUTH,
            Self::ShuttingDown => ERR_SHUTTING_DOWN,
            Self::UnknownCollection(_) => ERR_UNKNOWN_COLLECTION,
            Self::UnknownId(_) => ERR_UNKNOWN_ID,
            Self::NoBackends => ERR_NO_BACKENDS,
            Self::InvalidShards(_) => ERR_INVALID_SHARDS,
            Self::Service(_) => ERR_SERVICE,
            Self::Build(b) => match b {
                QueryBuildError::EmptyQuery => ERR_BUILD_EMPTY_QUERY,
                QueryBuildError::EmptyRange { .. } => ERR_BUILD_EMPTY_RANGE,
                QueryBuildError::KeywordOutOfRange { .. } => ERR_BUILD_KEYWORD_OUT_OF_RANGE,
                QueryBuildError::NonFinite { .. } => ERR_BUILD_NON_FINITE,
                QueryBuildError::Negative { .. } => ERR_BUILD_NEGATIVE,
                QueryBuildError::EmptyNumericRange { .. } => ERR_BUILD_EMPTY_NUMERIC_RANGE,
                QueryBuildError::UnknownAttribute { .. } => ERR_BUILD_UNKNOWN_ATTRIBUTE,
                QueryBuildError::TypeMismatch { .. } => ERR_BUILD_TYPE_MISMATCH,
                QueryBuildError::ValueOutOfRange { .. } => ERR_BUILD_VALUE_OUT_OF_RANGE,
                QueryBuildError::RowArity { .. } => ERR_BUILD_ROW_ARITY,
            },
        }
    }

    fn encode(&self, w: &mut Writer) {
        use QueryBuildError as B;
        w.put_u16(self.code());
        match self {
            Self::Protocol(d) | Self::Auth(d) | Self::InvalidShards(d) | Self::Service(d) => {
                w.put_str(d)
            }
            Self::TooLarge { len, max } => {
                w.put_u64(*len);
                w.put_u64(*max);
            }
            Self::UnsupportedVersion { got, want } => {
                w.put_u16(*got);
                w.put_u16(*want);
            }
            Self::ShuttingDown | Self::NoBackends => {}
            Self::UnknownCollection(id) => w.put_u64(*id),
            Self::UnknownId(id) => w.put_u32(*id),
            Self::Build(b) => match b {
                B::EmptyQuery => {}
                B::EmptyRange { lo, hi } => {
                    w.put_u32(*lo);
                    w.put_u32(*hi);
                }
                B::KeywordOutOfRange { keyword, universe } => {
                    w.put_u32(*keyword);
                    w.put_u32(*universe);
                }
                B::NonFinite { what } | B::Negative { what } => w.put_str(what),
                B::EmptyNumericRange { attr, lo, hi } => {
                    w.put_usize(*attr);
                    w.put_f64(*lo);
                    w.put_f64(*hi);
                }
                B::UnknownAttribute {
                    attr,
                    num_attributes,
                } => {
                    w.put_usize(*attr);
                    w.put_usize(*num_attributes);
                }
                B::TypeMismatch { attr, expected } => {
                    w.put_usize(*attr);
                    w.put_str(expected);
                }
                B::ValueOutOfRange {
                    attr,
                    value,
                    cardinality,
                } => {
                    w.put_usize(*attr);
                    w.put_u32(*value);
                    w.put_u32(*cardinality);
                }
                B::RowArity { got, expected } => {
                    w.put_usize(*got);
                    w.put_usize(*expected);
                }
            },
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        use QueryBuildError as B;
        let code = r.get_u16("error code")?;
        Ok(match code {
            ERR_PROTOCOL => Self::Protocol(r.get_str("protocol detail")?),
            ERR_TOO_LARGE => Self::TooLarge {
                len: r.get_u64("oversized len")?,
                max: r.get_u64("frame cap")?,
            },
            ERR_UNSUPPORTED_VERSION => Self::UnsupportedVersion {
                got: r.get_u16("got version")?,
                want: r.get_u16("want version")?,
            },
            ERR_AUTH => Self::Auth(r.get_str("auth detail")?),
            ERR_SHUTTING_DOWN => Self::ShuttingDown,
            ERR_UNKNOWN_COLLECTION => Self::UnknownCollection(r.get_u64("collection id")?),
            ERR_UNKNOWN_ID => Self::UnknownId(r.get_u32("object id")?),
            ERR_NO_BACKENDS => Self::NoBackends,
            ERR_INVALID_SHARDS => Self::InvalidShards(r.get_str("shards detail")?),
            ERR_SERVICE => Self::Service(r.get_str("service detail")?),
            ERR_BUILD_EMPTY_QUERY => Self::Build(B::EmptyQuery),
            ERR_BUILD_EMPTY_RANGE => Self::Build(B::EmptyRange {
                lo: r.get_u32("range lo")?,
                hi: r.get_u32("range hi")?,
            }),
            ERR_BUILD_KEYWORD_OUT_OF_RANGE => Self::Build(B::KeywordOutOfRange {
                keyword: r.get_u32("keyword")?,
                universe: r.get_u32("universe")?,
            }),
            ERR_BUILD_NON_FINITE => Self::Build(B::NonFinite {
                what: r.get_str("what")?.into(),
            }),
            ERR_BUILD_NEGATIVE => Self::Build(B::Negative {
                what: r.get_str("what")?.into(),
            }),
            ERR_BUILD_EMPTY_NUMERIC_RANGE => Self::Build(B::EmptyNumericRange {
                attr: r.get_usize("attr")?,
                lo: r.get_f64("numeric lo")?,
                hi: r.get_f64("numeric hi")?,
            }),
            ERR_BUILD_UNKNOWN_ATTRIBUTE => Self::Build(B::UnknownAttribute {
                attr: r.get_usize("attr")?,
                num_attributes: r.get_usize("num attributes")?,
            }),
            ERR_BUILD_TYPE_MISMATCH => Self::Build(B::TypeMismatch {
                attr: r.get_usize("attr")?,
                expected: r.get_str("expected kind")?.into(),
            }),
            ERR_BUILD_VALUE_OUT_OF_RANGE => Self::Build(B::ValueOutOfRange {
                attr: r.get_usize("attr")?,
                value: r.get_u32("value")?,
                cardinality: r.get_u32("cardinality")?,
            }),
            ERR_BUILD_ROW_ARITY => Self::Build(B::RowArity {
                got: r.get_usize("got arity")?,
                expected: r.get_usize("expected arity")?,
            }),
            _ => {
                return Err(DecodeError::BadTag {
                    what: "error code",
                    tag: (code & 0xFF) as u8,
                })
            }
        })
    }
}

/// Encode one request as a complete frame (length prefix included).
pub fn encode_request(request_id: u64, request: &Request) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.put_u32(0); // length backpatched below
    match request {
        Request::Hello { version, token } => {
            w.put_u8(KIND_HELLO);
            w.put_u64(request_id);
            w.put_raw(&HELLO_MAGIC);
            w.put_u16(*version);
            w.put_str(token);
        }
        Request::Search {
            collection,
            k,
            query,
        } => {
            w.put_u8(KIND_SEARCH);
            w.put_u64(request_id);
            w.put_u64(*collection);
            w.put_u32(*k);
            w.put_query(query);
        }
        Request::SearchAdaptive {
            collection,
            k,
            schedule,
            query,
        } => {
            w.put_u8(KIND_SEARCH_ADAPTIVE);
            w.put_u64(request_id);
            w.put_u64(*collection);
            w.put_u32(*k);
            w.put_u32s(schedule);
            w.put_query(query);
        }
        Request::Insert {
            collection,
            keywords,
        } => {
            w.put_u8(KIND_INSERT);
            w.put_u64(request_id);
            w.put_u64(*collection);
            w.put_u32s(keywords);
        }
        Request::Delete { collection, ids } => {
            w.put_u8(KIND_DELETE);
            w.put_u64(request_id);
            w.put_u64(*collection);
            w.put_u32s(ids);
        }
        Request::Upsert {
            collection,
            id,
            keywords,
        } => {
            w.put_u8(KIND_UPSERT);
            w.put_u64(request_id);
            w.put_u64(*collection);
            w.put_u32(*id);
            w.put_u32s(keywords);
        }
        Request::Mutate {
            collection,
            deletes,
            inserts,
        } => {
            w.put_u8(KIND_MUTATE);
            w.put_u64(request_id);
            w.put_u64(*collection);
            w.put_u32s(deletes);
            w.put_objects(inserts.iter().map(Vec::as_slice));
        }
        Request::Compact { collection } => {
            w.put_u8(KIND_COMPACT);
            w.put_u64(request_id);
            w.put_u64(*collection);
        }
        Request::MutationStatus { collection } => {
            w.put_u8(KIND_MUTATION_STATUS);
            w.put_u64(request_id);
            w.put_u64(*collection);
        }
        Request::CreateCollection {
            name,
            shards,
            objects,
        } => {
            w.put_u8(KIND_CREATE_COLLECTION);
            w.put_u64(request_id);
            w.put_str(name);
            w.put_u32(*shards);
            w.put_objects(objects.iter().map(Vec::as_slice));
        }
        Request::Reindex {
            collection,
            objects,
        } => {
            w.put_u8(KIND_REINDEX);
            w.put_u64(request_id);
            w.put_u64(*collection);
            w.put_objects(objects.iter().map(Vec::as_slice));
        }
        Request::ListCollections => {
            w.put_u8(KIND_LIST_COLLECTIONS);
            w.put_u64(request_id);
        }
        Request::Stats => {
            w.put_u8(KIND_STATS);
            w.put_u64(request_id);
        }
    }
    finish_frame(w)
}

/// Encode one response as a complete frame (length prefix included).
pub fn encode_response(request_id: u64, response: &Response) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.put_u32(0); // length backpatched below
    match response {
        Response::Welcome { version } => {
            w.put_u8(KIND_WELCOME);
            w.put_u64(request_id);
            w.put_u16(*version);
        }
        Response::Reject { error } => {
            w.put_u8(KIND_REJECT);
            w.put_u64(request_id);
            error.encode(&mut w);
        }
        Response::Search {
            rounds,
            audit_threshold,
            hits,
        } => {
            w.put_u8(KIND_SEARCH_OK);
            w.put_u64(request_id);
            w.put_u32(*rounds);
            w.put_u32(*audit_threshold);
            w.put_count(hits.len());
            for h in hits {
                w.put_u32(h.id);
                w.put_u32(h.count);
            }
        }
        Response::Ids { ids } => {
            w.put_u8(KIND_IDS_OK);
            w.put_u64(request_id);
            w.put_u32s(ids);
        }
        Response::Ack => {
            w.put_u8(KIND_ACK);
            w.put_u64(request_id);
        }
        Response::Compacted { applied } => {
            w.put_u8(KIND_COMPACT_OK);
            w.put_u64(request_id);
            w.put_u8(u8::from(*applied));
        }
        Response::MutationStatus {
            live,
            delta,
            tombstones,
            base_shards,
            next_id,
        } => {
            w.put_u8(KIND_STATUS_OK);
            w.put_u64(request_id);
            w.put_u64(*live);
            w.put_u64(*delta);
            w.put_u64(*tombstones);
            w.put_u64(*base_shards);
            w.put_u32(*next_id);
        }
        Response::Created { collection } => {
            w.put_u8(KIND_CREATED);
            w.put_u64(request_id);
            w.put_u64(*collection);
        }
        Response::Reindexed { upload_sim_us } => {
            w.put_u8(KIND_REINDEXED);
            w.put_u64(request_id);
            w.put_f64(*upload_sim_us);
        }
        Response::Collections { entries } => {
            w.put_u8(KIND_COLLECTIONS);
            w.put_u64(request_id);
            w.put_count(entries.len());
            for e in entries {
                w.put_u64(e.id);
                w.put_str(&e.name);
                w.put_u32(e.shards);
                w.put_u64(e.len);
            }
        }
        Response::Stats { fields } => {
            w.put_u8(KIND_STATS_OK);
            w.put_u64(request_id);
            w.put_count(fields.len());
            for (name, value) in fields {
                w.put_str(name);
                w.put_f64(*value);
            }
        }
        Response::Error { error } => {
            w.put_u8(KIND_ERROR);
            w.put_u64(request_id);
            error.encode(&mut w);
        }
    }
    finish_frame(w)
}

/// Backpatch the 4-byte length prefix over the assembled frame.
fn finish_frame(w: Writer) -> Vec<u8> {
    let mut bytes = w.into_vec();
    let body_len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&body_len.to_le_bytes());
    bytes
}

/// Decode one request frame body (everything after the length prefix).
pub fn decode_request(body: &[u8]) -> Result<(u64, Request), DecodeError> {
    let mut r = Reader::new(body);
    let kind = r.get_u8("frame kind")?;
    let request_id = r.get_u64("request id")?;
    let request = match kind {
        KIND_HELLO => {
            let magic = r.take(4, "hello magic")?;
            if magic != HELLO_MAGIC {
                return Err(DecodeError::BadTag {
                    what: "hello magic",
                    tag: magic[0],
                });
            }
            Request::Hello {
                version: r.get_u16("hello version")?,
                token: r.get_str("hello token")?,
            }
        }
        KIND_SEARCH => Request::Search {
            collection: r.get_u64("collection id")?,
            k: r.get_u32("k")?,
            query: r.get_query()?,
        },
        KIND_SEARCH_ADAPTIVE => Request::SearchAdaptive {
            collection: r.get_u64("collection id")?,
            k: r.get_u32("k")?,
            schedule: r.get_u32s("schedule")?,
            query: r.get_query()?,
        },
        KIND_INSERT => Request::Insert {
            collection: r.get_u64("collection id")?,
            keywords: r.get_u32s("keywords")?,
        },
        KIND_DELETE => Request::Delete {
            collection: r.get_u64("collection id")?,
            ids: r.get_u32s("ids")?,
        },
        KIND_UPSERT => Request::Upsert {
            collection: r.get_u64("collection id")?,
            id: r.get_u32("object id")?,
            keywords: r.get_u32s("keywords")?,
        },
        KIND_MUTATE => Request::Mutate {
            collection: r.get_u64("collection id")?,
            deletes: r.get_u32s("deletes")?,
            inserts: r.get_objects("inserts")?,
        },
        KIND_COMPACT => Request::Compact {
            collection: r.get_u64("collection id")?,
        },
        KIND_MUTATION_STATUS => Request::MutationStatus {
            collection: r.get_u64("collection id")?,
        },
        KIND_CREATE_COLLECTION => Request::CreateCollection {
            name: r.get_str("collection name")?,
            shards: r.get_u32("shards")?,
            objects: r.get_objects("objects")?,
        },
        KIND_REINDEX => Request::Reindex {
            collection: r.get_u64("collection id")?,
            objects: r.get_objects("objects")?,
        },
        KIND_LIST_COLLECTIONS => Request::ListCollections,
        KIND_STATS => Request::Stats,
        tag => {
            return Err(DecodeError::BadTag {
                what: "request kind",
                tag,
            })
        }
    };
    r.finish()?;
    Ok((request_id, request))
}

/// Decode one response frame body (everything after the length prefix).
pub fn decode_response(body: &[u8]) -> Result<(u64, Response), DecodeError> {
    let mut r = Reader::new(body);
    let kind = r.get_u8("frame kind")?;
    let request_id = r.get_u64("request id")?;
    let response = match kind {
        KIND_WELCOME => Response::Welcome {
            version: r.get_u16("welcome version")?,
        },
        KIND_REJECT => Response::Reject {
            error: WireError::decode(&mut r)?,
        },
        KIND_SEARCH_OK => {
            let rounds = r.get_u32("rounds")?;
            let audit_threshold = r.get_u32("audit threshold")?;
            let n = r.count(8, "hits")?;
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                let id = r.get_u32("hit id")?;
                let count = r.get_u32("hit count")?;
                hits.push(TopHit { id, count });
            }
            Response::Search {
                rounds,
                audit_threshold,
                hits,
            }
        }
        KIND_IDS_OK => Response::Ids {
            ids: r.get_u32s("ids")?,
        },
        KIND_ACK => Response::Ack,
        KIND_COMPACT_OK => Response::Compacted {
            applied: r.get_u8("applied")? != 0,
        },
        KIND_STATUS_OK => Response::MutationStatus {
            live: r.get_u64("live")?,
            delta: r.get_u64("delta")?,
            tombstones: r.get_u64("tombstones")?,
            base_shards: r.get_u64("base shards")?,
            next_id: r.get_u32("next id")?,
        },
        KIND_CREATED => Response::Created {
            collection: r.get_u64("collection id")?,
        },
        KIND_REINDEXED => Response::Reindexed {
            upload_sim_us: r.get_f64("upload time")?,
        },
        KIND_COLLECTIONS => {
            // id + name count + shards + len
            let n = r.count(24, "collection entries")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(CollectionInfo {
                    id: r.get_u64("collection id")?,
                    name: r.get_str("collection name")?,
                    shards: r.get_u32("shards")?,
                    len: r.get_u64("len")?,
                });
            }
            Response::Collections { entries }
        }
        KIND_STATS_OK => {
            // name count + value
            let n = r.count(12, "stats fields")?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.get_str("field name")?;
                let value = r.get_f64("field value")?;
                fields.push((name, value));
            }
            Response::Stats { fields }
        }
        KIND_ERROR => Response::Error {
            error: WireError::decode(&mut r)?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                what: "response kind",
                tag,
            })
        }
    };
    r.finish()?;
    Ok((request_id, response))
}

/// What [`read_frame`] can fail with.
#[derive(Debug)]
pub enum FrameReadError {
    /// The socket failed mid-frame (includes EOF *inside* a frame —
    /// only an EOF exactly on a frame boundary is a clean close).
    Io(std::io::Error),
    /// The length prefix declared a body beyond the cap. The body was
    /// **not** read; the stream is unusable past this point.
    TooLarge { len: u64, max: u64 },
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error reading frame: {e}"),
            Self::TooLarge { len, max } => {
                write!(
                    f,
                    "incoming frame of {len} bytes exceeds the {max}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for FrameReadError {}

/// What one [`FrameReader::read`] call produced.
#[derive(Debug)]
pub enum FrameProgress {
    /// One complete frame body.
    Frame(Vec<u8>),
    /// Clean close: EOF exactly on a frame boundary.
    Eof,
    /// The read timed out (`WouldBlock`/`TimedOut` on a socket with a
    /// read timeout). Partial prefix/body bytes are retained in the
    /// reader — call [`FrameReader::read`] again to continue the same
    /// frame. `mid_frame` says whether a frame has started, so pollers
    /// can tell an idle tick from a stalled sender.
    TimedOut {
        /// Some bytes of the current frame have already arrived.
        mid_frame: bool,
    },
}

/// Incremental length-prefixed frame decoder that survives read
/// timeouts.
///
/// Serving loops poll sockets with short read timeouts (to notice
/// shutdown); a frame whose bytes straddle a timeout must not lose the
/// bytes already consumed, or the stream desyncs and mid-body bytes
/// get parsed as a fresh length prefix. `FrameReader` keeps the
/// partial prefix/body across [`FrameProgress::TimedOut`] returns and
/// resumes exactly where it stopped — the caller decides how long a
/// stalled frame may keep waiting (and can check shutdown flags or
/// deadlines between calls, so a trickling peer can never pin its
/// thread forever).
#[derive(Debug, Default)]
pub struct FrameReader {
    len_bytes: [u8; 4],
    /// Prefix bytes read so far (0..=4).
    prefix_filled: usize,
    /// Allocated once the prefix is complete and under the cap.
    body: Option<Vec<u8>>,
    body_filled: usize,
}

impl FrameReader {
    /// A reader positioned on a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Some bytes of the current frame have arrived but the frame is
    /// not complete.
    pub fn mid_frame(&self) -> bool {
        self.prefix_filled > 0 || self.body.is_some()
    }

    /// Pull bytes from `r` until a full frame, EOF, or a timeout.
    ///
    /// A frame whose prefix declares more than `max_len` bytes is
    /// rejected without allocating or reading its body; the stream is
    /// unusable past that point. Interrupted reads are retried; EOF
    /// mid-frame is an [`FrameReadError::Io`] with `UnexpectedEof`.
    pub fn read(
        &mut self,
        r: &mut impl std::io::Read,
        max_len: u32,
    ) -> Result<FrameProgress, FrameReadError> {
        loop {
            let mid_frame = self.mid_frame();
            let (buf, filled) = match &mut self.body {
                Some(body) => (&mut body[..], &mut self.body_filled),
                None => (&mut self.len_bytes[..], &mut self.prefix_filled),
            };
            if *filled < buf.len() {
                match r.read(&mut buf[*filled..]) {
                    Ok(0) if !mid_frame => return Ok(FrameProgress::Eof),
                    Ok(0) => {
                        return Err(FrameReadError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        )))
                    }
                    Ok(n) => {
                        *filled += n;
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Ok(FrameProgress::TimedOut { mid_frame })
                    }
                    Err(e) => return Err(FrameReadError::Io(e)),
                }
            }
            if self.body.is_none() {
                let len = u32::from_le_bytes(self.len_bytes);
                if len > max_len {
                    return Err(FrameReadError::TooLarge {
                        len: len as u64,
                        max: max_len as u64,
                    });
                }
                self.body = Some(vec![0u8; len as usize]);
                self.body_filled = 0;
                continue;
            }
            let body = self.body.take().expect("checked above");
            self.prefix_filled = 0;
            self.body_filled = 0;
            return Ok(FrameProgress::Frame(body));
        }
    }
}

/// Read one length-prefixed frame body from `r`, blocking-style.
///
/// Returns `Ok(None)` on a clean close (EOF exactly at a frame
/// boundary). A frame longer than `max_len` is rejected without
/// reading or allocating its body. Interrupted reads are retried; a
/// read timeout (at any point in the frame) surfaces as
/// [`FrameReadError::Io`] with `TimedOut`. Poll-style callers that
/// must survive timeouts without losing frame bytes use
/// [`FrameReader`] directly.
pub fn read_frame(
    r: &mut impl std::io::Read,
    max_len: u32,
) -> Result<Option<Vec<u8>>, FrameReadError> {
    match FrameReader::new().read(r, max_len)? {
        FrameProgress::Frame(body) => Ok(Some(body)),
        FrameProgress::Eof => Ok(None),
        FrameProgress::TimedOut { mid_frame } => Err(FrameReadError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            if mid_frame {
                "read timed out mid-frame"
            } else {
                "read timed out on a frame boundary"
            },
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_core::model::QueryItem;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
                token: "secret".into(),
            },
            Request::Search {
                collection: 3,
                k: 10,
                query: Query::new(vec![QueryItem::range(2, 9), QueryItem::exact(40)]),
            },
            Request::SearchAdaptive {
                collection: 0,
                k: 5,
                schedule: vec![5, 10, 20],
                query: Query::from_keywords(&[1, 2, 3]),
            },
            Request::Insert {
                collection: 1,
                keywords: vec![7, 7, 9],
            },
            Request::Delete {
                collection: 1,
                ids: vec![0, 4],
            },
            Request::Upsert {
                collection: 1,
                id: 2,
                keywords: vec![11],
            },
            Request::Mutate {
                collection: 2,
                deletes: vec![5],
                inserts: vec![vec![1, 2], vec![], vec![3]],
            },
            Request::Compact { collection: 2 },
            Request::MutationStatus { collection: 2 },
            Request::CreateCollection {
                name: "docs".into(),
                shards: 4,
                objects: vec![vec![0, 1], vec![2]],
            },
            Request::Reindex {
                collection: 0,
                objects: vec![vec![9]],
            },
            Request::ListCollections,
            Request::Stats,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Welcome {
                version: PROTOCOL_VERSION,
            },
            Response::Reject {
                error: WireError::UnsupportedVersion { got: 9, want: 1 },
            },
            Response::Search {
                rounds: 2,
                audit_threshold: 4,
                hits: vec![TopHit { id: 8, count: 3 }, TopHit { id: 2, count: 3 }],
            },
            Response::Ids { ids: vec![10, 11] },
            Response::Ack,
            Response::Compacted { applied: true },
            Response::MutationStatus {
                live: 100,
                delta: 3,
                tombstones: 1,
                base_shards: 2,
                next_id: 104,
            },
            Response::Created { collection: 7 },
            Response::Reindexed {
                upload_sim_us: 123.5,
            },
            Response::Collections {
                entries: vec![CollectionInfo {
                    id: 0,
                    name: "default".into(),
                    shards: 1,
                    len: 42,
                }],
            },
            Response::Stats {
                fields: vec![("served".into(), 9.0), ("net/frames_in".into(), 21.0)],
            },
            Response::Error {
                error: WireError::Build(QueryBuildError::KeywordOutOfRange {
                    keyword: 900,
                    universe: 100,
                }),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (i, req) in sample_requests().into_iter().enumerate() {
            let frame = encode_request(i as u64 + 1, &req);
            let body = &frame[4..];
            assert_eq!(
                u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize,
                body.len()
            );
            let (id, back) = decode_request(body).unwrap();
            assert_eq!(id, i as u64 + 1);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for (i, resp) in sample_responses().into_iter().enumerate() {
            let frame = encode_response(i as u64 + 100, &resp);
            let (id, back) = decode_response(&frame[4..]).unwrap();
            assert_eq!(id, i as u64 + 100);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn every_wire_error_round_trips_with_its_code() {
        let errors = vec![
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
            WireError::Build(QueryBuildError::EmptyQuery),
            WireError::Build(QueryBuildError::EmptyRange { lo: 5, hi: 2 }),
            WireError::Build(QueryBuildError::KeywordOutOfRange {
                keyword: 9,
                universe: 4,
            }),
            WireError::Build(QueryBuildError::NonFinite {
                what: "weight".into(),
            }),
            WireError::Build(QueryBuildError::Negative {
                what: "radius".into(),
            }),
            WireError::Build(QueryBuildError::EmptyNumericRange {
                attr: 1,
                lo: 3.0,
                hi: 1.0,
            }),
            WireError::Build(QueryBuildError::UnknownAttribute {
                attr: 9,
                num_attributes: 3,
            }),
            WireError::Build(QueryBuildError::TypeMismatch {
                attr: 0,
                expected: "numeric".into(),
            }),
            WireError::Build(QueryBuildError::ValueOutOfRange {
                attr: 2,
                value: 9,
                cardinality: 4,
            }),
            WireError::Build(QueryBuildError::RowArity {
                got: 2,
                expected: 3,
            }),
        ];
        let mut seen_codes = std::collections::HashSet::new();
        for e in errors {
            assert!(seen_codes.insert(e.code()), "duplicate code {}", e.code());
            let frame = encode_response(5, &Response::Error { error: e.clone() });
            let (_, back) = decode_response(&frame[4..]).unwrap();
            assert_eq!(back, Response::Error { error: e });
        }
    }

    #[test]
    fn build_errors_mirror_query_build_error_displays() {
        // the client-facing message matches the in-process one — also
        // after the wire turned the validator's literals into received
        // strings — so an application can switch transports without
        // changing its error handling
        let cases: Vec<QueryBuildError> = vec![
            QueryBuildError::EmptyQuery,
            QueryBuildError::NonFinite {
                what: "weight".into(),
            },
            QueryBuildError::TypeMismatch {
                attr: 0,
                expected: "numeric".into(),
            },
            QueryBuildError::RowArity {
                got: 2,
                expected: 3,
            },
        ];
        for e in cases {
            let frame = encode_response(
                1,
                &Response::Error {
                    error: e.clone().into(),
                },
            );
            let (_, back) = decode_response(&frame[4..]).unwrap();
            let Response::Error { error } = back else {
                panic!("decoded a different kind: {back:?}");
            };
            assert_eq!(error, WireError::Build(e.clone()));
            assert_eq!(error.to_string(), e.to_string());
        }
    }

    #[test]
    fn truncated_frames_never_panic() {
        for req in sample_requests() {
            let frame = encode_request(1, &req);
            let body = &frame[4..];
            for cut in 0..body.len() {
                assert!(decode_request(&body[..cut]).is_err());
            }
        }
        for resp in sample_responses() {
            let frame = encode_response(1, &resp);
            let body = &frame[4..];
            for cut in 0..body.len() {
                assert!(decode_response(&body[..cut]).is_err());
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = encode_request(1, &Request::Stats);
        frame.push(0xAB);
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn read_frame_enforces_the_cap_and_handles_eof() {
        use std::io::Cursor;
        // clean EOF at a boundary
        assert!(read_frame(&mut Cursor::new(vec![]), 1024)
            .unwrap()
            .is_none());
        // EOF mid-prefix
        assert!(read_frame(&mut Cursor::new(vec![1, 0]), 1024).is_err());
        // EOF mid-body
        let mut partial = 10u32.to_le_bytes().to_vec();
        partial.extend_from_slice(&[1, 2, 3]);
        assert!(read_frame(&mut Cursor::new(partial), 1024).is_err());
        // over-cap length prefix rejected without reading the body
        let huge = u32::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(huge), 1024),
            Err(FrameReadError::TooLarge { .. })
        ));
        // a well-formed frame comes back whole
        let frame = encode_request(9, &Request::ListCollections);
        let body = read_frame(&mut Cursor::new(frame.clone()), 1024)
            .unwrap()
            .unwrap();
        assert_eq!(body, frame[4..].to_vec());
    }

    /// Yields one byte per read, returning `WouldBlock` between every
    /// pair of bytes — the worst-case trickling sender against a socket
    /// with a read timeout.
    struct TrickleRead {
        bytes: Vec<u8>,
        pos: usize,
        give_next: bool,
    }

    impl std::io::Read for TrickleRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.bytes.len() {
                return Ok(0);
            }
            if !self.give_next {
                self.give_next = true;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "simulated poll timeout",
                ));
            }
            self.give_next = false;
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    /// Timeouts at *every* byte boundary — inside the prefix and inside
    /// the body — must never desync the stream: every frame decodes
    /// whole and in order (the REVIEW regression for mid-body
    /// timeouts being parsed as fresh length prefixes).
    #[test]
    fn frame_reader_survives_timeouts_at_every_byte() {
        let requests = sample_requests();
        let mut wire = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            wire.extend_from_slice(&encode_request(i as u64, req));
        }
        let mut r = TrickleRead {
            bytes: wire,
            pos: 0,
            give_next: false,
        };
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut timeouts = 0usize;
        loop {
            match reader.read(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap() {
                FrameProgress::Frame(body) => {
                    decoded.push(decode_request(&body).unwrap());
                }
                FrameProgress::Eof => break,
                FrameProgress::TimedOut { .. } => timeouts += 1,
            }
        }
        assert!(timeouts > 0, "the trickle must actually time out");
        assert_eq!(decoded.len(), requests.len());
        for (i, (req, (id, got))) in requests.iter().zip(&decoded).enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(got, req);
        }
    }

    /// A frame boundary timeout reports `mid_frame: false`; once any
    /// byte of the prefix has arrived it reports `mid_frame: true`.
    #[test]
    fn frame_reader_reports_mid_frame() {
        let frame = encode_request(3, &Request::Stats);
        let mut r = TrickleRead {
            bytes: frame,
            pos: 0,
            give_next: false,
        };
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.read(&mut r, 1024).unwrap(),
            FrameProgress::TimedOut { mid_frame: false }
        ));
        assert!(!reader.mid_frame());
        // consume one byte, then hit the next timeout
        match reader.read(&mut r, 1024).unwrap() {
            FrameProgress::TimedOut { mid_frame } => {
                assert!(mid_frame);
                assert!(reader.mid_frame());
            }
            other => panic!("expected a mid-frame timeout, got {other:?}"),
        }
    }
}

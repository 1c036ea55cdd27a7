//! The normative GENIE wire-protocol specification (v1).
//!
//! This module is documentation only — the frame codec lives in
//! [`frame`](crate::frame), the serving loop in
//! [`server`](crate::server). Everything a third-party client needs to
//! interoperate is specified here, in terms of the byte-level
//! primitives (`u32`, `f64`, `usize`, `str`, `u32s`, `objects`,
//! `query`, and the count rule) that [`genie_core::codec`] defines.
//!
//! # Transport and frame layout
//!
//! The protocol runs over one TCP connection. Both directions carry a
//! stream of *frames*; every frame is:
//!
//! ```text
//! ┌───────────┬──────────┬──────────────┬─────────────┐
//! │ len: u32  │ kind: u8 │ request: u64 │ payload ... │
//! └───────────┴──────────┴──────────────┴─────────────┘
//!   little-endian; `len` counts kind + request id + payload
//! ```
//!
//! * Every field is a [`genie_core::codec`] primitive; `x...` below
//!   is a count-prefixed sequence of `x`, and a count that the rest of
//!   the frame could not hold is a protocol error before anything is
//!   allocated for it.
//! * `len` must not exceed the receiver's frame cap
//!   ([`DEFAULT_MAX_FRAME_LEN`](crate::frame::DEFAULT_MAX_FRAME_LEN) by
//!   default). An oversized frame is answered with error code 2
//!   (`TooLarge`) and the connection is dropped **without reading the
//!   body** — the declared length alone is the offence.
//! * A frame must decode to exactly `len` bytes: trailing bytes inside
//!   the payload are a protocol error (the stream is out of sync).
//!
//! Request kinds occupy `0x01..0x80`, response kinds `0x80..0xFF`; see
//! the tables below.
//!
//! # Handshake state machine
//!
//! ```text
//!             ┌─────────┐  Hello{magic,version,token}   ┌──────────┐
//!   connect──▶│ EXPECT  │──────────────────────────────▶│ VALIDATE │
//!             │  HELLO  │                               └────┬─────┘
//!             └────┬────┘             version == 1, token ok │  bad version /
//!                  │ anything else                           │  bad token /
//!                  │ first                                   │  bad magic
//!                  ▼                                         ▼
//!             ┌─────────┐        ┌───────────┐          ┌────────┐
//!             │  DROP   │◀───────│ PIPELINED │◀─Welcome─│ Reject │──▶ close
//!             └─────────┘        │ EXCHANGE  │          └────────┘
//!                                └───────────┘
//! ```
//!
//! 1. The client's **first frame** must be `Hello` (kind `0x01`,
//!    request id 0): the 4-byte magic `"GNET"`, the client's protocol
//!    version (`u16`), and an auth token string (empty = none).
//! 2. The server validates in order: magic, version, token. Failure
//!    answers with a `Reject` frame (kind `0x82`, request id 0)
//!    carrying the typed error — code 3 (`UnsupportedVersion`, payload
//!    `got: u16, want: u16`) or code 4 (`Auth`) — then closes. Any
//!    first frame that is not a well-formed `Hello` is answered with a
//!    code-1 `Protocol` reject (when a reply can still be framed) and
//!    dropped.
//! 3. Success answers `Welcome` (kind `0x81`, request id 0) carrying
//!    the server's version, and the connection enters the pipelined
//!    exchange.
//!
//! ## Version negotiation
//!
//! Version 1 requires an exact match: the `Welcome.version` equals the
//! `Hello.version` or the handshake was rejected. The `want` field of
//! the code-3 reject tells a newer client which version to re-dial
//! with — negotiation is reconnect-based, keeping the accepted-path
//! state machine trivial.
//!
//! # Pipelined exchange
//!
//! After `Welcome`, the client may send any number of request frames
//! without waiting for replies. Every request carries a client-chosen
//! nonzero `request` id (id 0 is reserved for the handshake); ids
//! should be unique among in-flight requests on the connection. The
//! server answers **every** accepted request with exactly one response
//! frame tagged with the same id, **in completion order** — not
//! submission order (the connection's writer is notified of each
//! finished reply; it does not poll). Searches batched into one service wave complete
//! together; a slow search does not block a later quick mutation's
//! reply. Clients must therefore match replies by id, not position.
//!
//! | kind | request            | payload |
//! |------|--------------------|---------|
//! | 0x01 | Hello              | magic `[u8;4]`, version u16, token str |
//! | 0x10 | Search             | collection u64, k u32, items (lo u32, hi u32)... |
//! | 0x11 | SearchAdaptive     | collection u64, k u32, schedule u32..., items ... |
//! | 0x12 | Insert             | collection u64, keywords u32... |
//! | 0x13 | Delete             | collection u64, ids u32... |
//! | 0x14 | Upsert             | collection u64, id u32, keywords u32... |
//! | 0x15 | Mutate             | collection u64, deletes u32..., objects (keywords u32...)... |
//! | 0x16 | Compact            | collection u64 |
//! | 0x17 | MutationStatus     | collection u64 |
//! | 0x18 | CreateCollection   | name str, shards u32, objects ... |
//! | 0x19 | Reindex            | collection u64, objects ... |
//! | 0x1A | ListCollections    | — |
//! | 0x1B | Stats              | — |
//!
//! | kind | response       | payload |
//! |------|----------------|---------|
//! | 0x81 | Welcome        | version u16 |
//! | 0x82 | Reject         | error (see below) |
//! | 0x90 | Search         | rounds u32, audit_threshold u32, hits (id u32, count u32)... |
//! | 0x91 | Ids            | ids u32... |
//! | 0x92 | Ack            | — |
//! | 0x93 | Compacted      | applied u8 |
//! | 0x94 | MutationStatus | live u64, delta u64, tombstones u64, base_shards u64, next_id u32 |
//! | 0x95 | Created        | collection u64 |
//! | 0x96 | Reindexed      | upload_sim_us f64 |
//! | 0x97 | Collections    | entries (id u64, name str, shards u32, len u64)... |
//! | 0x98 | Stats          | fields (name str, value f64)... |
//! | 0xE0 | Error          | error (see below) |
//!
//! `SearchAdaptive` semantics: the server runs one search per candidate
//! count in `schedule` (all submitted at once, so they batch into the
//! same wave) and replies with the first **saturated** round — one that
//! returned fewer hits than its candidate count asked for, proving a
//! larger K could not add more — or the last round otherwise. `rounds`
//! reports how many schedule entries were consumed.
//!
//! # Stats fields and compatibility
//!
//! The `Stats` response is a flat list of `(name, value)` rows — a
//! self-describing map, not a positional struct. Clients MUST look
//! names up by key and ignore rows they do not recognise; servers MAY
//! append new rows in any release without a version bump. That is the
//! protocol's only extension mechanism, and it keeps every v1 client
//! compatible with every v1 server.
//!
//! Three row families are currently emitted:
//!
//! * `service/...` — the serving counters, mirroring
//!   [`ServiceStats`](genie_service::ServiceStats) field for field
//!   (e.g. `service/waves`, `service/cache_hits`).
//!   `service/shard_runs` counts per-shard scheduler runs of **every**
//!   collection: each group run adds one per shard it fans out to, so
//!   an unsharded collection adds 1 (servers before the one-shape
//!   collapse counted 0 for those and only sharded collections
//!   contributed). Since the placement extension this family also
//!   carries `service/placed_shard_runs`,
//!   `service/hot_shard_events`, `service/rebalances`,
//!   `service/stale_rebalances`, and the fleet-mean learned cost model
//!   (`service/learned_base_us`, `service/learned_us_per_posting`,
//!   `service/cost_observations`).
//! * `backend/{i}/{name}/...` — one group per fleet backend, in fleet
//!   order: lifetime usage (`batches`, `queries`, `failed`, `retired`,
//!   `probes` — booleans encode as 0/1) and the backend's **learned**
//!   scan-cost model (`learned_base_us`, `learned_us_per_posting`,
//!   `cost_observations`), the scheduler's online EWMA of
//!   predicted-vs-actual wave cost. `retired`/`failed` expose circuit-
//!   breaker state remotely; the learned rows expose per-backend
//!   capacity as rebalancing sees it.
//! * `net/...` — transport counters of the serving process
//!   (`net/frames_in`, `net/active_connections`, ...).
//!
//! # Error frames and codes
//!
//! A failed request is answered with an `Error` frame (kind `0xE0`)
//! tagged with its request id: `code: u16` followed by a code-specific
//! payload. The codes mirror the in-process error taxonomy — a network
//! client sees exactly the errors an embedded caller sees, plus the
//! transport-only codes 1–5. Codes 100–109 carry a
//! [`QueryBuildError`](genie_core::model::QueryBuildError) itself, one
//! code per variant: the client decodes the same type the server's
//! validator returned.
//!
//! | code | meaning                 | payload | mirrors |
//! |------|-------------------------|---------|---------|
//! | 1    | Protocol                | detail str | — (malformed frame) |
//! | 2    | TooLarge                | len u64, max u64 | — |
//! | 3    | UnsupportedVersion      | got u16, want u16 | — |
//! | 4    | Auth                    | detail str | — |
//! | 5    | ShuttingDown            | — | service shutdown |
//! | 6    | UnknownCollection       | id u64 | `ServiceError::UnknownCollection` |
//! | 7    | UnknownId               | id u32 | `ServiceError::UnknownId` / `DbError::UnknownId` |
//! | 8    | NoBackends              | — | `DbError::NoBackends` |
//! | 9    | InvalidShards           | detail str | `ServiceError::InvalidShards` / `DbError::InvalidShards` |
//! | 10   | Service                 | detail str | any other `ServiceError` |
//! | 100  | `QueryBuildError::EmptyQuery`        | — | itself |
//! | 101  | `QueryBuildError::EmptyRange`        | lo u32, hi u32 | itself |
//! | 102  | `QueryBuildError::KeywordOutOfRange` | keyword u32, universe u32 | itself |
//! | 103  | `QueryBuildError::NonFinite`         | what str | itself |
//! | 104  | `QueryBuildError::Negative`          | what str | itself |
//! | 105  | `QueryBuildError::EmptyNumericRange` | attr usize, lo f64, hi f64 | itself |
//! | 106  | `QueryBuildError::UnknownAttribute`  | attr usize, num_attributes usize | itself |
//! | 107  | `QueryBuildError::TypeMismatch`      | attr usize, expected str | itself |
//! | 108  | `QueryBuildError::ValueOutOfRange`   | attr usize, value u32, cardinality u32 | itself |
//! | 109  | `QueryBuildError::RowArity`          | got usize, expected usize | itself |
//!
//! ## Degradation rules
//!
//! Failures are scoped to the *request* when the stream is still in
//! sync, and to the *connection* when it is not. Specifically:
//!
//! * A semantically invalid request on a well-formed frame (unknown
//!   collection, bad query, unknown id ...) → `Error` frame, connection
//!   lives on.
//! * A frame that cannot be decoded, an oversized length prefix, or a
//!   half-closed socket → one best-effort `Error`/`Reject` frame, then
//!   the connection is dropped (and a server-side counter bumped). The
//!   server never kills sibling connections and never crashes.
//! * A slow reader (client not draining its socket) trips the server's
//!   write timeout; the connection is dropped and counted.
//!
//! # Shutdown drain
//!
//! On shutdown the server stops accepting, then signals every
//! connection to stop *reading* while their writers flush all accepted
//! requests' replies. Connections park in a
//! [`ConnectionRegistry`](genie_service::ConnectionRegistry); the
//! listener waits on its barrier (bounded by the configured drain
//! timeout) before the service itself is torn down — an accepted
//! request is never silently dropped.

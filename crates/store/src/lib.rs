//! Durability for GENIE collections: per-collection snapshots plus an
//! append-only journal, with crash recovery torture-tested down to the
//! byte (`tests/recovery_props.rs`).
//!
//! This module doc is the **normative on-disk format specification**,
//! in the same spirit as `genie_net::protocol`. Any reader/writer of a
//! store directory must follow it; the structs in [`state`] and
//! [`store`] are the reference implementation. Record payloads are
//! sequences of the byte-level primitives [`genie_core::codec`]
//! defines (`u32`, `usize`, `str`, `bytes`, `u32s`, `objects`, and the
//! count rule that bounds every count by the bytes left); this
//! document only says which primitive goes where.
//!
//! # Directory layout
//!
//! ```text
//! <root>/
//!   MANIFEST                 which snapshot generation is current
//!   journal/
//!     000001.log             journal generation 1 (zero-padded, ascending)
//!     000002.log             ...
//!   snapshots/
//!     3/                     snapshot generation 3
//!       c0.snap              collection id 0
//!       c1.snap              collection id 1
//! ```
//!
//! Generations are `u64`s that only ever grow, even across failed
//! attempts (a failed journal rotation *burns* its generation number so
//! a half-written file is never appended to twice).
//!
//! # File header
//!
//! Every file begins with a 14-byte header:
//!
//! ```text
//! magic: [u8; 4]    "GMAN" manifest | "GJNL" journal | "GSNP" snapshot
//! version: u16 le   format version, currently 1
//! gen: u64 le       the file's generation (0 in MANIFEST's header;
//!                   the manifest's *payload* carries the snapshot gen)
//! ```
//!
//! A journal or snapshot file whose header generation disagrees with
//! the generation encoded in its path is rejected.
//!
//! # Record frame
//!
//! After the header, a file is a sequence of frames:
//!
//! ```text
//! len: u32 le       payload length, in (0, 2^30]
//! crc: u32 le       CRC-32 (IEEE, reflected 0xEDB88320) of payload
//! payload: [u8; len]
//! ```
//!
//! Scanning a frame ends in exactly one of: a verified record; clean
//! end-of-file on a boundary; a **torn tail** (header or payload runs
//! past EOF — the signature of a crash mid-append, tolerated and
//! dropped); a **checksum mismatch** (complete record, wrong CRC — bit
//! rot, a typed [`RecoverError::ChecksumMismatch`]); or a **bad
//! length** (zero or absurd — [`RecoverError::CorruptFrame`]). A torn
//! tail may appear in *any* journal file, not just the newest: when an
//! append fails partway, the store marks the tail dirty and the next
//! append rotates to a fresh generation, so a torn region is always an
//! un-acknowledged suffix of its file. Genuine holes in history are
//! caught by the sequence chain (below), not by file position.
//!
//! # Manifest
//!
//! One frame whose payload is a single `u64 le`: the current snapshot
//! generation. Written atomically (temp file, fsync, rename, parent
//! directory fsync); absence means "no checkpoint yet — replay every
//! journal from generation 0".
//!
//! # Snapshot payload ([`CollectionState`])
//!
//! One frame per `c<id>.snap` file, payload written/read by
//! [`state::encode_state`] / [`state::decode_state`]:
//!
//! ```text
//! id: u64           collection id (must match the filename)
//! seq: u64          last event sequence folded into this snapshot
//! name: str
//! configured_shards: u32
//! has_lb: u8        0 | 1, then if 1:
//!   max_list_len: usize
//! base: shards      count, then per shard:
//!   id_mode: u8     1 = identity ids (then their u32 count), 0 =
//!                   explicit (then u32s, strictly increasing)
//!   index: bytes    a genie_core::io::encode_index payload
//! delta:            count, then per pending insert:
//!   id: u32, keywords: u32s
//! tombstones: u32s  (strictly increasing)
//! next_id: u32
//! has_placement: u8 0 | 1, then if 1:
//!   num_backends: u32, assignments: count × u32s
//! ```
//!
//! # Journal event payload ([`JournalEvent`])
//!
//! One event per frame, written/read by [`state::encode_event`] /
//! [`state::decode_event`]. Every event starts `tag: u8, collection:
//! u64, seq: u64`:
//!
//! ```text
//! tag 1 Create     name, configured_shards, has_lb?, base shards
//! tag 2 Swap       has_lb?, base shards       (reindex/compaction swap)
//! tag 3 Mutate     first_id: u32, deletes: u32s, inserts: objects
//! tag 4 Placement  placement spec (as in snapshots)
//! ```
//!
//! `seq` is a per-collection chain starting at 1 with `Create` and
//! incrementing by exactly 1 per event. Replay is idempotent: events
//! with `seq <=` the collection's snapshot/replayed seq are skipped; a
//! gap (`seq > current + 1`) is a typed [`RecoverError::Replay`].
//!
//! # Recovery algorithm
//!
//! 1. Read `MANIFEST` → snapshot generation `G` (or 0 if absent).
//! 2. Decode every `snapshots/G/c*.snap` into per-collection state.
//! 3. Replay every `journal/*.log` with generation `>= G`, ascending;
//!    skip a file whose header is itself torn; stop a file at its torn
//!    tail; fail typed on checksum/length corruption or seq gaps.
//! 4. Materialize each collection via `DeltaPlan::restore` — which
//!    re-validates id ordering, duplicates, and `next_id` so a corrupt
//!    but checksum-valid state still cannot produce wrong answers.
//!
//! # Why crashes are safe (checkpoint protocol)
//!
//! [`DurableStore::checkpoint_with`] orders: **rotate** the journal to
//! a fresh generation `N` → **capture** collection states → write each
//! snapshot atomically → atomically swap `MANIFEST` to `N` → delete
//! journals `< N` and snapshot dirs `!= N` (best effort). Every crash
//! window is covered: before the manifest swap, the old manifest still
//! points at old snapshots and *all* journals `>= old G` (including the
//! freshly rotated one) replay on top; after the swap, stale files are
//! simply ignored and re-deleted later. Mutations racing the capture
//! are safe because each is journaled (in generation `N`) *before* it
//! commits in memory, and replay skips any event whose `seq` the
//! captured snapshot already covers. Checkpoints run one at a time
//! (appends do not wait for them): two overlapping ones would each
//! prune the generation the other is committing.
//!
//! Appends follow write-ahead discipline end to end: an event is
//! framed, appended, and fsynced *before* the mutation applies in
//! memory; a failed append surfaces as a typed error and the mutation
//! does not happen.

pub mod format;
pub mod fsck;
pub mod state;
pub mod store;
pub mod vfs;

pub use format::{FormatError, MAX_RECORD};
pub use fsck::{fsck, FsckReport};
pub use state::{CollectionState, JournalEvent, PlacementSpec};
pub use store::{
    DurableStore, RecoverError, RecoveredCollection, RecoveredStore, RecoveryReport, StoreError,
};
pub use vfs::{DiskVfs, FaultyVfs, MemVfs, Vfs};

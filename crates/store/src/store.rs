//! The [`DurableStore`]: generation-chained manifest + snapshots +
//! journals, with crash-safe append, checkpoint and recovery. The
//! normative directory layout and crash-ordering argument live in the
//! [crate docs](crate).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use genie_core::codec::{Reader, Writer};
use genie_core::delta::DeltaPlan;

use crate::format::{self, FormatError, Frame};
use crate::state::{
    decode_event, decode_state, encode_event, encode_state, CollectionState, JournalEvent,
    PlacementSpec,
};
use crate::vfs::Vfs;

pub(crate) const MANIFEST_MAGIC: &[u8; 4] = b"GMAN";
pub(crate) const JOURNAL_MAGIC: &[u8; 4] = b"GJNL";
pub(crate) const SNAPSHOT_MAGIC: &[u8; 4] = b"GSNP";
pub(crate) const FORMAT_VERSION: u16 = 1;
/// Bytes of `magic | version u16 | gen u64` at the head of a journal
/// or snapshot file.
pub(crate) const FILE_HEADER: usize = 4 + 2 + 8;

/// A write-side store failure (append or checkpoint). The in-memory
/// state the caller was about to persist is *not* applied when these
/// surface — the WAL ordering contract.
#[derive(Debug, Clone)]
pub enum StoreError {
    /// The underlying Vfs failed; at most a torn record tail (or an
    /// unreferenced tmp/snapshot file) reached storage.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store I/O: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// Why a store directory could not be recovered. Every variant names
/// where and what — recovery never panics and never silently serves a
/// state it cannot prove is a valid prefix of the journaled history.
#[derive(Debug, Clone)]
pub enum RecoverError {
    /// The underlying Vfs failed while reading.
    Io(String),
    /// The manifest exists but is unreadable — without it the snapshot
    /// generation is unknown, and guessing could serve stale data.
    BadManifest(String),
    /// A snapshot file referenced by the manifest failed to decode.
    BadSnapshot { file: String, why: String },
    /// A journal file's header is wrong (magic/version/generation).
    BadJournalHeader { gen: u64, why: String },
    /// A complete journal record failed its CRC — bit rot, not a torn
    /// write.
    ChecksumMismatch { gen: u64, offset: usize },
    /// A record frame was structurally garbage (length prefix of zero
    /// or beyond [`format::MAX_RECORD`]).
    CorruptFrame { gen: u64, offset: usize },
    /// A record decoded but could not be applied (seq gap, unknown
    /// collection, id mismatch…): the journal contradicts itself.
    Replay {
        gen: u64,
        collection: u64,
        seq: u64,
        why: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "recovery I/O: {e}"),
            Self::BadManifest(why) => write!(f, "bad manifest: {why}"),
            Self::BadSnapshot { file, why } => write!(f, "bad snapshot {file}: {why}"),
            Self::BadJournalHeader { gen, why } => {
                write!(f, "bad journal header (gen {gen}): {why}")
            }
            Self::ChecksumMismatch { gen, offset } => {
                write!(f, "journal gen {gen}: checksum mismatch at byte {offset}")
            }
            Self::CorruptFrame { gen, offset } => {
                write!(
                    f,
                    "journal gen {gen}: corrupt record frame at byte {offset}"
                )
            }
            Self::Replay {
                gen,
                collection,
                seq,
                why,
            } => write!(
                f,
                "journal gen {gen}: cannot apply event seq {seq} of collection {collection}: {why}"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

/// One recovered collection, ready to be re-registered with the
/// service under its original id.
#[derive(Debug)]
pub struct RecoveredCollection {
    pub id: u64,
    /// Last applied journal seq; the service continues from here.
    pub seq: u64,
    pub name: String,
    pub configured_shards: usize,
    pub plan: DeltaPlan,
    pub placement: Option<PlacementSpec>,
}

/// What recovery did — surfaced through `GenieDb::open_at` and
/// `genie-server --data-dir` startup logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The manifest's snapshot generation (0 = no checkpoint yet).
    pub snapshot_gen: u64,
    pub snapshots_loaded: usize,
    pub journal_files: usize,
    /// Events applied on top of the snapshots.
    pub events_replayed: usize,
    /// Events skipped because a snapshot already contained them.
    pub events_skipped: usize,
    /// Bytes of torn record dropped from the final journal's tail
    /// (non-zero exactly when the last session crashed mid-append).
    pub torn_tail_bytes: usize,
}

/// The result of opening a store directory: the store (ready for new
/// appends), the recovered collections, and the recovery report.
#[derive(Debug)]
pub struct RecoveredStore {
    pub store: DurableStore,
    pub collections: Vec<RecoveredCollection>,
    pub report: RecoveryReport,
}

struct StoreInner {
    /// Generation of the journal new appends go to.
    journal_gen: u64,
    /// Highest generation a header write was ever *attempted* for —
    /// never reused, even when the attempt failed and left a partial
    /// file (recovery skips torn-header files).
    last_created: u64,
    /// Set when an append failed mid-record: the journal tail is
    /// suspect, so the next append first rotates to a fresh file
    /// (recovery treats the torn tail as end-of-journal and continues
    /// with the next generation).
    tail_dirty: bool,
}

/// Handle to one store directory. Thread-safe: appends serialize on an
/// internal mutex; checkpoints rotate the journal under the same mutex
/// and do the expensive snapshot writes outside it.
pub struct DurableStore {
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
    inner: Mutex<StoreInner>,
}

fn journal_dir(root: &Path) -> PathBuf {
    root.join("journal")
}

fn snapshots_dir(root: &Path) -> PathBuf {
    root.join("snapshots")
}

fn manifest_path(root: &Path) -> PathBuf {
    root.join("MANIFEST")
}

pub(crate) fn journal_path(root: &Path, gen: u64) -> PathBuf {
    journal_dir(root).join(format!("{gen:06}.log"))
}

fn snapshot_dir(root: &Path, gen: u64) -> PathBuf {
    snapshots_dir(root).join(format!("{gen}"))
}

fn snapshot_path(root: &Path, gen: u64, collection: u64) -> PathBuf {
    snapshot_dir(root, gen).join(format!("c{collection}.snap"))
}

fn file_header(magic: &[u8; 4], gen: u64) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&gen.to_le_bytes());
    out
}

/// Parse a `magic | version | gen` file header.
pub(crate) fn parse_header(magic: &[u8; 4], bytes: &[u8]) -> Result<(u64, usize), FormatError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "magic")? != magic {
        return Err(FormatError::BadMagic);
    }
    let version = r.get_u16("format version")?;
    if version != FORMAT_VERSION {
        return Err(FormatError::UnsupportedVersion(version));
    }
    let gen = r.get_u64("generation")?;
    Ok((gen, FILE_HEADER))
}

/// List the numeric generations of the journal directory, ascending.
pub(crate) fn journal_gens(vfs: &dyn Vfs, root: &Path) -> Result<Vec<u64>, RecoverError> {
    let mut gens = Vec::new();
    for name in vfs
        .list(&journal_dir(root))
        .map_err(|e| RecoverError::Io(e.to_string()))?
    {
        if let Some(stem) = name.strip_suffix(".log") {
            if let Ok(gen) = stem.parse::<u64>() {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Read the manifest: `Ok(None)` when absent (a store that has never
/// checkpointed), the snapshot generation otherwise.
pub(crate) fn read_manifest(vfs: &dyn Vfs, root: &Path) -> Result<Option<u64>, RecoverError> {
    let path = manifest_path(root);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    let bytes = vfs
        .read(&path)
        .map_err(|e| RecoverError::Io(e.to_string()))?;
    let (_, header_len) = parse_header(MANIFEST_MAGIC, &bytes)
        .map_err(|e| RecoverError::BadManifest(e.to_string()))?;
    match format::scan_frame(&bytes, header_len) {
        Frame::Ok { payload, next } => {
            if next != bytes.len() {
                return Err(RecoverError::BadManifest("trailing bytes".into()));
            }
            let mut r = Reader::new(payload);
            let gen = r
                .get_u64("snapshot generation")
                .map_err(|e| RecoverError::BadManifest(e.to_string()))?;
            r.finish()
                .map_err(|e| RecoverError::BadManifest(e.to_string()))?;
            Ok(Some(gen))
        }
        other => Err(RecoverError::BadManifest(format!(
            "manifest record unreadable ({other:?})"
        ))),
    }
}

/// Load the snapshot files of generation `gen`.
fn load_snapshots(
    vfs: &dyn Vfs,
    root: &Path,
    gen: u64,
) -> Result<Vec<CollectionState>, RecoverError> {
    let dir = snapshot_dir(root, gen);
    let mut states = Vec::new();
    let mut names = vfs
        .list(&dir)
        .map_err(|e| RecoverError::Io(e.to_string()))?;
    names.sort();
    for name in names {
        if !name.ends_with(".snap") {
            continue;
        }
        let path = dir.join(&name);
        let bad = |why: String| RecoverError::BadSnapshot {
            file: name.clone(),
            why,
        };
        let bytes = vfs.read(&path).map_err(|e| bad(e.to_string()))?;
        let (header_gen, header_len) =
            parse_header(SNAPSHOT_MAGIC, &bytes).map_err(|e| bad(e.to_string()))?;
        if header_gen != gen {
            return Err(bad(format!("header gen {header_gen} != dir gen {gen}")));
        }
        match format::scan_frame(&bytes, header_len) {
            Frame::Ok { payload, next } if next == bytes.len() => {
                states.push(decode_state(payload).map_err(|e| bad(e.to_string()))?);
            }
            other => return Err(bad(format!("snapshot record unreadable ({other:?})"))),
        }
    }
    states.sort_by_key(|s| s.id);
    Ok(states)
}

/// The in-flight recovery image of one collection.
struct Recovering {
    seq: u64,
    name: String,
    configured_shards: usize,
    plan: DeltaPlan,
    placement: Option<PlacementSpec>,
}

fn apply_event(
    map: &mut std::collections::BTreeMap<u64, Recovering>,
    event: JournalEvent,
    gen: u64,
    report: &mut RecoveryReport,
) -> Result<(), RecoverError> {
    let collection = event.collection();
    let seq = event.seq();
    let replay_err = |why: String| RecoverError::Replay {
        gen,
        collection,
        seq,
        why,
    };
    // idempotent replay: a snapshot captured after this event was
    // journaled already contains its effect
    if let Some(existing) = map.get(&collection) {
        if seq <= existing.seq {
            report.events_skipped += 1;
            return Ok(());
        }
        if seq != existing.seq + 1 {
            return Err(replay_err(format!(
                "sequence gap: have {}, got {seq}",
                existing.seq
            )));
        }
    }
    match event {
        JournalEvent::Create {
            name,
            configured_shards,
            load_balance,
            base,
            ..
        } => {
            if map.contains_key(&collection) {
                return Err(replay_err("create of an existing collection".into()));
            }
            if seq != 1 {
                return Err(replay_err(format!("create must carry seq 1, got {seq}")));
            }
            map.insert(
                collection,
                Recovering {
                    seq,
                    name,
                    configured_shards,
                    plan: DeltaPlan::from_base(base, load_balance),
                    placement: None,
                },
            );
        }
        JournalEvent::Swap {
            load_balance, base, ..
        } => {
            let slot = map
                .get_mut(&collection)
                .ok_or_else(|| replay_err("swap of an unknown collection".into()))?;
            slot.plan = DeltaPlan::from_base(base, load_balance);
            slot.placement = None;
            slot.seq = seq;
        }
        JournalEvent::Mutate {
            first_id,
            deletes,
            inserts,
            ..
        } => {
            let slot = map
                .get_mut(&collection)
                .ok_or_else(|| replay_err("mutation of an unknown collection".into()))?;
            if first_id != slot.plan.next_id() {
                return Err(replay_err(format!(
                    "insert ids diverge: journal says {first_id}, replay is at {}",
                    slot.plan.next_id()
                )));
            }
            for id in deletes {
                if !slot.plan.delete(id) {
                    return Err(replay_err(format!("delete of dead id {id}")));
                }
            }
            for object in inserts {
                slot.plan.insert(object);
            }
            slot.seq = seq;
        }
        JournalEvent::Placement { placement, .. } => {
            let slot = map
                .get_mut(&collection)
                .ok_or_else(|| replay_err("placement for an unknown collection".into()))?;
            slot.placement = placement;
            slot.seq = seq;
        }
    }
    report.events_replayed += 1;
    Ok(())
}

/// Rebuild the collection image a store directory encodes, without
/// touching it — the shared read-only core of [`DurableStore::open`]
/// and [`crate::fsck`].
pub(crate) fn recover_image(
    vfs: &dyn Vfs,
    root: &Path,
) -> Result<(Vec<RecoveredCollection>, RecoveryReport), RecoverError> {
    let snapshot_gen = read_manifest(vfs, root)?.unwrap_or(0);
    let mut report = RecoveryReport {
        snapshot_gen,
        ..Default::default()
    };

    let mut map = std::collections::BTreeMap::new();
    if snapshot_gen > 0 {
        for state in load_snapshots(vfs, root, snapshot_gen)? {
            let id = state.id;
            let seq = state.seq;
            let name = state.name.clone();
            let configured_shards = state.configured_shards;
            let (plan, placement) = state.into_plan().map_err(|e| RecoverError::BadSnapshot {
                file: format!("c{id}.snap"),
                why: e.to_string(),
            })?;
            map.insert(
                id,
                Recovering {
                    seq,
                    name,
                    configured_shards,
                    plan,
                    placement,
                },
            );
            report.snapshots_loaded += 1;
        }
    }

    let gens: Vec<u64> = journal_gens(vfs, root)?
        .into_iter()
        .filter(|&g| g >= snapshot_gen)
        .collect();
    report.journal_files = gens.len();
    for &gen in &gens {
        let bytes = vfs
            .read(&journal_path(root, gen))
            .map_err(|e| RecoverError::Io(e.to_string()))?;
        let mut pos = match parse_header(JOURNAL_MAGIC, &bytes) {
            Ok((header_gen, len)) => {
                if header_gen != gen {
                    return Err(RecoverError::BadJournalHeader {
                        gen,
                        why: format!("header says gen {header_gen}"),
                    });
                }
                len
            }
            // a journal file torn inside its own header: the rotation
            // that created it crashed (or hit a failing disk) before
            // any event could be appended — nothing acked lives here
            Err(FormatError::Eof) => {
                report.torn_tail_bytes += bytes.len();
                continue;
            }
            Err(e) => {
                return Err(RecoverError::BadJournalHeader {
                    gen,
                    why: e.to_string(),
                })
            }
        };
        loop {
            match format::scan_frame(&bytes, pos) {
                Frame::End => break,
                Frame::Ok { payload, next } => {
                    let event = decode_event(payload).map_err(|e| RecoverError::Replay {
                        gen,
                        collection: 0,
                        seq: 0,
                        why: e.to_string(),
                    })?;
                    apply_event(&mut map, event, gen, &mut report)?;
                    pos = next;
                }
                Frame::Torn => {
                    // a record half-written when the process (or the
                    // disk under it) died. Appends stop at the first
                    // failure and rotate to a new generation, so a
                    // torn region is always an un-acked suffix of its
                    // file; any later acked event lives in a later
                    // generation, and a genuine mid-history hole is
                    // caught by the seq chain.
                    report.torn_tail_bytes += bytes.len() - pos;
                    break;
                }
                Frame::ChecksumMismatch => {
                    return Err(RecoverError::ChecksumMismatch { gen, offset: pos })
                }
                Frame::BadLength => return Err(RecoverError::CorruptFrame { gen, offset: pos }),
            }
        }
    }

    let collections = map
        .into_iter()
        .map(|(id, rec)| RecoveredCollection {
            id,
            seq: rec.seq,
            name: rec.name,
            configured_shards: rec.configured_shards,
            plan: rec.plan,
            placement: rec.placement,
        })
        .collect();
    Ok((collections, report))
}

impl DurableStore {
    /// Open (or initialise) the store at `root`, recovering whatever a
    /// previous session — cleanly shut down or crashed mid-write —
    /// left behind. See the [crate docs](crate) for the recovery
    /// algorithm and its crash-window argument.
    ///
    /// A fresh journal generation is always started: the store never
    /// appends after a possibly-torn tail.
    pub fn open(vfs: Arc<dyn Vfs>, root: impl AsRef<Path>) -> Result<RecoveredStore, RecoverError> {
        let root = root.as_ref().to_path_buf();
        for dir in [journal_dir(&root), snapshots_dir(&root)] {
            vfs.create_dir_all(&dir)
                .map_err(|e| RecoverError::Io(e.to_string()))?;
        }

        let (collections, report) = recover_image(vfs.as_ref(), &root)?;

        // never append after a recovered (possibly torn) tail: start a
        // fresh generation for this session's events
        let max_gen = journal_gens(vfs.as_ref(), &root)?
            .last()
            .copied()
            .unwrap_or(0);
        let journal_gen = max_gen.max(report.snapshot_gen) + 1;
        vfs.append_sync(
            &journal_path(&root, journal_gen),
            &file_header(JOURNAL_MAGIC, journal_gen),
        )
        .map_err(|e| RecoverError::Io(e.to_string()))?;

        Ok(RecoveredStore {
            store: DurableStore {
                vfs,
                root,
                inner: Mutex::new(StoreInner {
                    journal_gen,
                    last_created: journal_gen,
                    tail_dirty: false,
                }),
            },
            collections,
            report,
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The generation current appends go to.
    pub fn journal_gen(&self) -> u64 {
        self.inner.lock().unwrap().journal_gen
    }

    /// Start a fresh journal generation. A failed header write burns
    /// the generation number — re-appending a header to a partial file
    /// would corrupt it.
    fn rotate_locked(&self, inner: &mut StoreInner) -> Result<u64, StoreError> {
        let gen = inner.last_created + 1;
        inner.last_created = gen;
        self.vfs
            .append_sync(
                &journal_path(&self.root, gen),
                &file_header(JOURNAL_MAGIC, gen),
            )
            .map_err(io_err)?;
        inner.journal_gen = gen;
        inner.tail_dirty = false;
        Ok(gen)
    }

    /// Append one event and fsync before returning — the commit point
    /// of the WAL protocol: callers apply the event in memory only
    /// after this returns `Ok`.
    ///
    /// After a failed append the journal tail is suspect, so the next
    /// append rotates to a fresh generation first (recovery reads the
    /// torn tail as end-of-file and continues with the next file).
    pub fn append(&self, event: &JournalEvent) -> Result<(), StoreError> {
        let mut record = Vec::new();
        format::frame(&mut record, &encode_event(event));
        let mut inner = self.inner.lock().unwrap();
        if inner.tail_dirty {
            self.rotate_locked(&mut inner)?;
        }
        let path = journal_path(&self.root, inner.journal_gen);
        match self.vfs.append_sync(&path, &record) {
            Ok(()) => Ok(()),
            Err(e) => {
                inner.tail_dirty = true;
                Err(io_err(e))
            }
        }
    }

    /// Checkpoint: rotate the journal, *then* capture states via
    /// `capture`, write them as the next snapshot generation, and
    /// atomically swap the manifest. Returns the new generation.
    ///
    /// The rotate-before-capture order is what makes the checkpoint
    /// safe without a global pause: any event journaled between the
    /// rotation and its collection's capture lands in the new journal
    /// *and* in the snapshot — replay skips it by `seq`. A crash at
    /// any point leaves the old manifest pointing at a complete
    /// snapshot + journal chain.
    pub fn checkpoint_with<F>(&self, capture: F) -> Result<u64, StoreError>
    where
        F: FnOnce() -> Vec<CollectionState>,
    {
        let new_gen = {
            let mut inner = self.inner.lock().unwrap();
            self.rotate_locked(&mut inner)?
        };

        let states = capture();

        let dir = snapshot_dir(&self.root, new_gen);
        self.vfs.create_dir_all(&dir).map_err(io_err)?;
        for state in &states {
            let mut bytes = file_header(SNAPSHOT_MAGIC, new_gen);
            format::frame(&mut bytes, &encode_state(state));
            self.vfs
                .write_atomic(&snapshot_path(&self.root, new_gen, state.id), &bytes)
                .map_err(io_err)?;
        }

        // the commit point: after this rename, recovery starts from
        // the new generation (the manifest's own header gen field is
        // unused — it is not itself generational)
        let mut manifest = file_header(MANIFEST_MAGIC, 0);
        let mut payload = Writer::new();
        payload.put_u64(new_gen);
        format::frame(&mut manifest, &payload.into_vec());
        self.vfs
            .write_atomic(&manifest_path(&self.root), &manifest)
            .map_err(io_err)?;

        // best-effort cleanup of superseded generations; failures leave
        // garbage that the next checkpoint (or fsck) will report, never
        // an unrecoverable store
        if let Ok(gens) = journal_gens(self.vfs.as_ref(), &self.root) {
            for gen in gens.into_iter().filter(|&g| g < new_gen) {
                let _ = self.vfs.remove_file(&journal_path(&self.root, gen));
            }
        }
        if let Ok(dirs) = self.vfs.list(&snapshots_dir(&self.root)) {
            for name in dirs {
                if name.parse::<u64>().is_ok_and(|g| g != new_gen) {
                    let _ = self
                        .vfs
                        .remove_dir_all(&snapshots_dir(&self.root).join(name));
                }
            }
        }
        Ok(new_gen)
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("root", &self.root)
            .field("journal_gen", &self.journal_gen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultyVfs, MemVfs};
    use genie_core::model::Object;
    use genie_core::shard::{Shard, ShardPlan};

    const ROOT: &str = "/store";

    fn obj(words: &[u32]) -> Object {
        Object::new(words.to_vec())
    }

    fn base_shards(n: usize) -> Vec<Shard> {
        let objects: Vec<Object> = (0..n as u32).map(|i| obj(&[i % 4, 9])).collect();
        ShardPlan::build(&objects, 2, None).shards().to_vec()
    }

    fn create(collection: u64, n: usize) -> JournalEvent {
        JournalEvent::Create {
            collection,
            seq: 1,
            name: format!("c{collection}"),
            configured_shards: 2,
            load_balance: None,
            base: base_shards(n),
        }
    }

    fn mutate(collection: u64, seq: u64, first_id: u32, inserts: usize) -> JournalEvent {
        JournalEvent::Mutate {
            collection,
            seq,
            first_id,
            deletes: Vec::new(),
            inserts: (0..inserts as u32).map(|i| obj(&[i])).collect(),
        }
    }

    fn open(vfs: &Arc<MemVfs>) -> RecoveredStore {
        DurableStore::open(Arc::clone(vfs) as Arc<dyn Vfs>, ROOT).unwrap()
    }

    #[test]
    fn open_empty_then_reopen_replays_the_journal() {
        let vfs = Arc::new(MemVfs::new());
        let first = open(&vfs);
        assert!(first.collections.is_empty());
        assert_eq!(first.report, RecoveryReport::default());
        first.store.append(&create(0, 6)).unwrap();
        first.store.append(&mutate(0, 2, 6, 3)).unwrap();
        first.store.append(&create(1, 4)).unwrap();

        let second = open(&vfs);
        assert_eq!(second.report.events_replayed, 3);
        assert_eq!(second.report.snapshot_gen, 0);
        let [c0, c1] = &second.collections[..] else {
            panic!("expected two collections");
        };
        assert_eq!(
            (c0.id, c0.seq, c0.plan.len(), c0.plan.next_id()),
            (0, 2, 9, 9)
        );
        assert_eq!((c1.id, c1.seq, c1.plan.len()), (1, 1, 4));
        // each open starts a fresh generation, never appending after a
        // recovered tail
        assert!(second.store.journal_gen() > first.store.journal_gen());
    }

    #[test]
    fn checkpoint_prunes_journals_and_survives_reopen() {
        let vfs = Arc::new(MemVfs::new());
        let first = open(&vfs);
        first.store.append(&create(0, 6)).unwrap();
        first.store.append(&mutate(0, 2, 6, 2)).unwrap();

        let mut plan = DeltaPlan::from_base(base_shards(6), None);
        plan.insert(obj(&[0]));
        plan.insert(obj(&[1]));
        let gen = first
            .store
            .checkpoint_with(|| vec![CollectionState::capture(0, 2, "c0", 2, &plan, None)])
            .unwrap();

        // superseded journal generations are gone; only the post-rotate
        // generation (possibly plus the reopened one) remains
        let gens = journal_gens(vfs.as_ref(), Path::new(ROOT)).unwrap();
        assert!(gens.iter().all(|&g| g >= gen), "pruned: {gens:?}");

        // an event journaled after the checkpoint still replays on top
        first.store.append(&mutate(0, 3, 8, 1)).unwrap();
        let second = open(&vfs);
        assert_eq!(second.report.snapshot_gen, gen);
        assert_eq!(second.report.snapshots_loaded, 1);
        assert_eq!(
            second.report.events_replayed, 1,
            "only the post-checkpoint event"
        );
        let c0 = &second.collections[0];
        assert_eq!((c0.seq, c0.plan.len(), c0.plan.next_id()), (3, 9, 9));
    }

    #[test]
    fn skipped_events_in_the_rotated_journal_are_idempotent() {
        // an event journaled between rotation and capture lands in the
        // new journal AND in the snapshot; replay must skip it by seq
        let vfs = Arc::new(MemVfs::new());
        let first = open(&vfs);
        first.store.append(&create(0, 4)).unwrap();
        let mut plan = DeltaPlan::from_base(base_shards(4), None);
        first
            .store
            .checkpoint_with(|| {
                // the "race": a mutation commits after the rotation but
                // before this capture runs
                first.store.append(&mutate(0, 2, 4, 1)).unwrap();
                plan.insert(obj(&[0]));
                vec![CollectionState::capture(0, 2, "c0", 2, &plan, None)]
            })
            .unwrap();
        let second = open(&vfs);
        assert_eq!(second.report.events_skipped, 1);
        assert_eq!(second.report.events_replayed, 0);
        assert_eq!(second.collections[0].plan.len(), 5);
    }

    #[test]
    fn torn_tail_is_dropped_and_prefix_recovered() {
        let vfs = Arc::new(MemVfs::new());
        let first = open(&vfs);
        first.store.append(&create(0, 5)).unwrap();
        first.store.append(&mutate(0, 2, 5, 2)).unwrap();
        let path = journal_path(Path::new(ROOT), first.store.journal_gen());
        let len = vfs.len_of(&path).unwrap();
        // crash 3 bytes into a trailing half-written record
        vfs.append_sync(&path, &[0x42, 0x42, 0x42]).unwrap();
        drop(first);

        let second = open(&vfs);
        assert_eq!(second.report.torn_tail_bytes, 3);
        assert_eq!(second.report.events_replayed, 2);
        assert_eq!(second.collections[0].plan.len(), 7);
        let _ = len;
    }

    #[test]
    fn bit_rot_is_a_typed_checksum_error_not_a_panic() {
        let vfs = Arc::new(MemVfs::new());
        let first = open(&vfs);
        first.store.append(&create(0, 5)).unwrap();
        let path = journal_path(Path::new(ROOT), first.store.journal_gen());
        // flip one payload byte of the first record (past header+frame)
        vfs.flip(&path, FILE_HEADER + 8 + 4, 0x10);
        match DurableStore::open(Arc::clone(&vfs) as Arc<dyn Vfs>, ROOT) {
            Err(RecoverError::ChecksumMismatch { offset, .. }) => {
                assert_eq!(offset, FILE_HEADER);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn failed_append_rotates_to_a_fresh_generation() {
        let mem = Arc::new(MemVfs::new());
        let first = open(&mem);
        first.store.append(&create(0, 5)).unwrap();
        drop(first);

        let faulty = Arc::new(FaultyVfs::new(Arc::clone(&mem) as Arc<dyn Vfs>, i64::MAX));
        let second = DurableStore::open(Arc::clone(&faulty) as Arc<dyn Vfs>, ROOT).unwrap();
        let gen_before = second.store.journal_gen();
        // the disk dies 5 bytes into the next record: torn write
        faulty.set_budget(5);
        let err = second.store.append(&mutate(0, 2, 5, 1)).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        // disk replaced: the next append rotates past the dirty tail
        faulty.set_budget(i64::MAX);
        second.store.append(&mutate(0, 2, 5, 1)).unwrap();
        assert!(second.store.journal_gen() > gen_before);

        // recovery sees the torn record as an un-acked suffix and the
        // re-issued event (same seq) in the fresh generation
        let third = open(&mem);
        assert_eq!(third.report.torn_tail_bytes, 5);
        assert_eq!(third.report.events_replayed, 2);
        assert_eq!(third.collections[0].plan.len(), 6);
    }

    #[test]
    fn failed_checkpoint_leaves_the_old_state_recoverable() {
        let mem = Arc::new(MemVfs::new());
        let faulty = Arc::new(FaultyVfs::new(Arc::clone(&mem) as Arc<dyn Vfs>, i64::MAX));
        let first = DurableStore::open(Arc::clone(&faulty) as Arc<dyn Vfs>, ROOT).unwrap();
        first.store.append(&create(0, 6)).unwrap();
        let plan = DeltaPlan::from_base(base_shards(6), None);
        // enough budget to rotate the journal but not to finish the
        // snapshot: the checkpoint dies before the manifest swap
        faulty.set_budget(FILE_HEADER as i64 + 4);
        let err = first
            .store
            .checkpoint_with(|| vec![CollectionState::capture(0, 1, "c0", 2, &plan, None)])
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));

        let second = open(&mem);
        assert_eq!(second.report.snapshot_gen, 0, "manifest never swapped");
        assert_eq!(second.report.events_replayed, 1);
        assert_eq!(second.collections[0].plan.len(), 6);
    }

    #[test]
    fn seq_gap_is_a_typed_replay_error() {
        let vfs = Arc::new(MemVfs::new());
        let first = open(&vfs);
        first.store.append(&create(0, 4)).unwrap();
        // seq jumps 1 -> 3: a hole in history
        first.store.append(&mutate(0, 3, 4, 1)).unwrap();
        match DurableStore::open(Arc::clone(&vfs) as Arc<dyn Vfs>, ROOT) {
            Err(RecoverError::Replay {
                collection, seq, ..
            }) => {
                assert_eq!((collection, seq), (0, 3));
            }
            other => panic!("expected replay error, got {other:?}"),
        }
    }

    #[test]
    fn fsck_reports_damage_without_modifying_the_store() {
        let vfs = Arc::new(MemVfs::new());
        let first = open(&vfs);
        first.store.append(&create(0, 5)).unwrap();
        let mut plan = DeltaPlan::from_base(base_shards(5), None);
        first
            .store
            .checkpoint_with(|| vec![CollectionState::capture(0, 1, "c0", 2, &plan, None)])
            .unwrap();
        plan.insert(obj(&[7]));
        first.store.append(&mutate(0, 2, 5, 1)).unwrap();

        let before = vfs.paths();
        let report = crate::fsck::fsck(vfs.as_ref(), ROOT);
        assert_eq!(vfs.paths(), before, "fsck is read-only");
        assert!(report.healthy(), "healthy store: {report}");
        let rec = report.recovery.as_ref().unwrap();
        assert_eq!(rec.collections, vec![(0, "c0".to_string(), 6)]);

        // torn tail: still healthy (legal crash signature)
        let path = journal_path(Path::new(ROOT), first.store.journal_gen());
        vfs.append_sync(&path, &[1, 2, 3, 4, 5]).unwrap();
        let report = crate::fsck::fsck(vfs.as_ref(), ROOT);
        assert!(report.healthy(), "torn tail is legal: {report}");
        assert_eq!(report.journals.last().unwrap().torn_tail_bytes, 5);

        // bit rot: damaged, typed, printable
        vfs.flip(&path, FILE_HEADER + 10, 0x01);
        let report = crate::fsck::fsck(vfs.as_ref(), ROOT);
        assert!(!report.healthy());
        assert!(report.recovery.is_err());
        assert!(format!("{report}").contains("DAMAGED"));
    }
}

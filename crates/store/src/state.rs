//! What is persisted, and how it is encoded: the per-collection
//! [`CollectionState`] snapshots and the [`JournalEvent`] stream.
//!
//! The store persists collections at the **raw match-count level**:
//! base shards are [`genie_core::io::encode_index`] payloads plus their
//! stable-id maps, delta entries and mutation batches are raw
//! [`Object`]s (keyword multisets). Typed domain adapters (vocabulary
//! tables, LSH transformers) are *not* serialized — a recovered
//! collection serves count/AT-identical answers to any raw query, which
//! is exactly what the network protocol transports. See
//! `GenieDb::open_at` for how the typed facade layers back on top.
//!
//! Payload layouts are normative and versioned by the enclosing file
//! headers (see the [crate docs](crate));
//! written and read in the primitives of [`genie_core::codec`] (counts
//! validated against the remaining bytes before any allocation).

use std::sync::Arc;

use genie_core::delta::DeltaPlan;
use genie_core::index::LoadBalanceConfig;
use genie_core::io::{decode_index, encode_index};
use genie_core::model::{Object, ObjectId};
use genie_core::shard::Shard;

use genie_core::codec::{Reader, Writer};

use crate::format::FormatError;

/// A persisted placement plan: which backends each shard fans out to,
/// over a fleet of `num_backends`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementSpec {
    pub num_backends: usize,
    /// `assignments[shard]` = backend indexes that serve the shard.
    pub assignments: Vec<Vec<usize>>,
}

/// Everything needed to rebuild one collection: the payload of a
/// snapshot file, and (via [`DeltaPlan::restore`]) the state journal
/// replay advances.
#[derive(Debug, Clone)]
pub struct CollectionState {
    /// The collection's service id (stable across restarts).
    pub id: u64,
    /// Last journal event folded into this state — replay skips
    /// events with `seq <= this`, making recovery idempotent.
    pub seq: u64,
    pub name: String,
    /// How many base shards compaction rebuilds into.
    pub configured_shards: usize,
    pub load_balance: Option<LoadBalanceConfig>,
    pub base: Vec<Shard>,
    pub delta: Vec<(ObjectId, Object)>,
    pub tombstones: Vec<ObjectId>,
    pub next_id: ObjectId,
    pub placement: Option<PlacementSpec>,
}

impl CollectionState {
    /// Capture a live plan as a snapshot-ready state — the inverse of
    /// [`CollectionState::into_plan`] (base shards are `Arc`-shared, so
    /// this is cheap: no index data is copied).
    pub fn capture(
        id: u64,
        seq: u64,
        name: &str,
        configured_shards: usize,
        plan: &DeltaPlan,
        placement: Option<PlacementSpec>,
    ) -> Self {
        Self {
            id,
            seq,
            name: name.to_string(),
            configured_shards,
            load_balance: plan.load_balance(),
            base: plan.base().to_vec(),
            delta: plan.delta_entries().to_vec(),
            tombstones: plan.tombstones().iter().copied().collect(),
            next_id: plan.next_id(),
            placement,
        }
    }

    /// Validate and convert into a servable [`DeltaPlan`].
    pub fn into_plan(self) -> Result<(DeltaPlan, Option<PlacementSpec>), FormatError> {
        let plan = DeltaPlan::restore(
            self.base,
            self.delta,
            self.tombstones,
            self.next_id,
            self.load_balance,
        )
        .map_err(|_| FormatError::Invalid("persisted DeltaPlan violates its invariants"))?;
        Ok((plan, self.placement))
    }
}

/// One entry in the append-only journal: a lifecycle or mutation step
/// of one collection. `seq` is per-collection and strictly sequential
/// (`Create` carries `seq == 1`); a gap on replay is corruption.
#[derive(Debug, Clone)]
pub enum JournalEvent {
    /// A collection came into being with these base shards (covers
    /// `create_collection`, sharded creation, and reindex-free
    /// registration paths alike).
    Create {
        collection: u64,
        seq: u64,
        name: String,
        configured_shards: usize,
        load_balance: Option<LoadBalanceConfig>,
        base: Vec<Shard>,
    },
    /// The collection's index was rebuilt and swapped (reindex): the
    /// previous history is superseded by these base shards.
    Swap {
        collection: u64,
        seq: u64,
        load_balance: Option<LoadBalanceConfig>,
        base: Vec<Shard>,
    },
    /// One committed mutation batch: deletes validated against the
    /// live set, then inserts assigned ids starting at `first_id`.
    /// Replay re-derives identical stable ids or fails typed.
    Mutate {
        collection: u64,
        seq: u64,
        first_id: ObjectId,
        deletes: Vec<ObjectId>,
        inserts: Vec<Object>,
    },
    /// A placement plan was applied (`Some`) or dropped (`None`).
    Placement {
        collection: u64,
        seq: u64,
        placement: Option<PlacementSpec>,
    },
}

impl JournalEvent {
    pub fn collection(&self) -> u64 {
        match self {
            Self::Create { collection, .. }
            | Self::Swap { collection, .. }
            | Self::Mutate { collection, .. }
            | Self::Placement { collection, .. } => *collection,
        }
    }

    pub fn seq(&self) -> u64 {
        match self {
            Self::Create { seq, .. }
            | Self::Swap { seq, .. }
            | Self::Mutate { seq, .. }
            | Self::Placement { seq, .. } => *seq,
        }
    }
}

const TAG_CREATE: u8 = 1;
const TAG_SWAP: u8 = 2;
const TAG_MUTATE: u8 = 3;
const TAG_PLACEMENT: u8 = 4;

fn write_load_balance(w: &mut Writer, lb: Option<LoadBalanceConfig>) {
    match lb {
        None => w.put_u8(0),
        Some(cfg) => {
            w.put_u8(1);
            w.put_usize(cfg.max_list_len);
        }
    }
}

fn read_load_balance(r: &mut Reader<'_>) -> Result<Option<LoadBalanceConfig>, FormatError> {
    match r.get_u8("load-balance flag")? {
        0 => Ok(None),
        1 => Ok(Some(LoadBalanceConfig {
            max_list_len: r.get_usize("load-balance limit")?,
        })),
        _ => Err(FormatError::Invalid("unknown load-balance flag")),
    }
}

/// `1` + count when the id map is the identity (the overwhelmingly
/// common single-shard case), else `0` + the explicit map.
fn write_shard(w: &mut Writer, shard: &Shard) {
    let ids = &shard.global_ids;
    if ids.iter().enumerate().all(|(i, &id)| id as usize == i) {
        w.put_u8(1);
        w.put_count(ids.len());
    } else {
        w.put_u8(0);
        w.put_u32s(ids);
    }
    w.put_bytes(&encode_index(&shard.index));
}

fn read_shard(r: &mut Reader<'_>) -> Result<Shard, FormatError> {
    let ids: Vec<ObjectId> = match r.get_u8("shard id-map flag")? {
        1 => (0..r.get_u32("shard size")?).collect(),
        0 => {
            let ids = r.get_u32s("shard ids")?;
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err(FormatError::Invalid("shard ids not strictly increasing"));
            }
            ids
        }
        _ => return Err(FormatError::Invalid("unknown shard id-map flag")),
    };
    let index = decode_index(r.get_bytes("shard index")?)?;
    if index.num_objects() as usize != ids.len() {
        return Err(FormatError::Invalid("shard id map length != index objects"));
    }
    Ok(Shard {
        index: Arc::new(index),
        global_ids: Arc::new(ids),
    })
}

fn write_shards(w: &mut Writer, shards: &[Shard]) {
    w.put_count(shards.len());
    for s in shards {
        write_shard(w, s);
    }
}

fn read_shards(r: &mut Reader<'_>) -> Result<Vec<Shard>, FormatError> {
    // every shard needs at least an id-map flag, a count and an index
    // length prefix — 9 bytes — so the count is bounded by remaining/9
    let n = r.count(9, "shards")?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(read_shard(r)?);
    }
    Ok(shards)
}

fn write_placement(w: &mut Writer, placement: Option<&PlacementSpec>) {
    match placement {
        None => w.put_u8(0),
        Some(spec) => {
            w.put_u8(1);
            w.put_count(spec.num_backends);
            w.put_count(spec.assignments.len());
            for shard in &spec.assignments {
                w.put_count(shard.len());
                for &b in shard {
                    w.put_count(b);
                }
            }
        }
    }
}

fn read_placement(r: &mut Reader<'_>) -> Result<Option<PlacementSpec>, FormatError> {
    match r.get_u8("placement flag")? {
        0 => Ok(None),
        1 => {
            let num_backends = r.get_u32("fleet size")? as usize;
            let shards = r.count(4, "placed shards")?;
            let mut assignments = Vec::with_capacity(shards);
            for _ in 0..shards {
                let n = r.count(4, "shard backends")?;
                let mut backends = Vec::with_capacity(n);
                for _ in 0..n {
                    let b = r.get_u32("backend index")? as usize;
                    if b >= num_backends {
                        return Err(FormatError::Invalid("placement backend out of range"));
                    }
                    backends.push(b);
                }
                assignments.push(backends);
            }
            Ok(Some(PlacementSpec {
                num_backends,
                assignments,
            }))
        }
        _ => Err(FormatError::Invalid("unknown placement flag")),
    }
}

/// Encode one journal event into a frame payload.
pub fn encode_event(event: &JournalEvent) -> Vec<u8> {
    let mut w = Writer::new();
    match event {
        JournalEvent::Create {
            collection,
            seq,
            name,
            configured_shards,
            load_balance,
            base,
        } => {
            w.put_u8(TAG_CREATE);
            w.put_u64(*collection);
            w.put_u64(*seq);
            w.put_str(name);
            w.put_count(*configured_shards);
            write_load_balance(&mut w, *load_balance);
            write_shards(&mut w, base);
        }
        JournalEvent::Swap {
            collection,
            seq,
            load_balance,
            base,
        } => {
            w.put_u8(TAG_SWAP);
            w.put_u64(*collection);
            w.put_u64(*seq);
            write_load_balance(&mut w, *load_balance);
            write_shards(&mut w, base);
        }
        JournalEvent::Mutate {
            collection,
            seq,
            first_id,
            deletes,
            inserts,
        } => {
            w.put_u8(TAG_MUTATE);
            w.put_u64(*collection);
            w.put_u64(*seq);
            w.put_u32(*first_id);
            w.put_u32s(deletes);
            w.put_objects(inserts.iter().map(|o| o.keywords.as_slice()));
        }
        JournalEvent::Placement {
            collection,
            seq,
            placement,
        } => {
            w.put_u8(TAG_PLACEMENT);
            w.put_u64(*collection);
            w.put_u64(*seq);
            write_placement(&mut w, placement.as_ref());
        }
    }
    w.into_vec()
}

/// Decode one journal event from a verified frame payload.
pub fn decode_event(payload: &[u8]) -> Result<JournalEvent, FormatError> {
    let mut r = Reader::new(payload);
    let tag = r.get_u8("event tag")?;
    let collection = r.get_u64("collection id")?;
    let seq = r.get_u64("event seq")?;
    let event = match tag {
        TAG_CREATE => JournalEvent::Create {
            collection,
            seq,
            name: r.get_str("collection name")?,
            configured_shards: r.get_u32("configured shards")? as usize,
            load_balance: read_load_balance(&mut r)?,
            base: read_shards(&mut r)?,
        },
        TAG_SWAP => JournalEvent::Swap {
            collection,
            seq,
            load_balance: read_load_balance(&mut r)?,
            base: read_shards(&mut r)?,
        },
        TAG_MUTATE => JournalEvent::Mutate {
            collection,
            seq,
            first_id: r.get_u32("first id")?,
            deletes: r.get_u32s("deletes")?,
            inserts: r.get_objects("inserts")?,
        },
        TAG_PLACEMENT => JournalEvent::Placement {
            collection,
            seq,
            placement: read_placement(&mut r)?,
        },
        _ => return Err(FormatError::Invalid("unknown journal event tag")),
    };
    r.finish()?;
    Ok(event)
}

/// Encode one collection snapshot into a frame payload.
pub fn encode_state(state: &CollectionState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(state.id);
    w.put_u64(state.seq);
    w.put_str(&state.name);
    w.put_count(state.configured_shards);
    write_load_balance(&mut w, state.load_balance);
    write_shards(&mut w, &state.base);
    w.put_count(state.delta.len());
    for (id, object) in &state.delta {
        w.put_u32(*id);
        w.put_u32s(&object.keywords);
    }
    w.put_u32s(&state.tombstones);
    w.put_u32(state.next_id);
    write_placement(&mut w, state.placement.as_ref());
    w.into_vec()
}

/// Decode one collection snapshot from a verified frame payload.
pub fn decode_state(payload: &[u8]) -> Result<CollectionState, FormatError> {
    let mut r = Reader::new(payload);
    let id = r.get_u64("collection id")?;
    let seq = r.get_u64("snapshot seq")?;
    let name = r.get_str("collection name")?;
    let configured_shards = r.get_u32("configured shards")? as usize;
    let load_balance = read_load_balance(&mut r)?;
    let base = read_shards(&mut r)?;
    let delta_len = r.count(8, "delta entries")?;
    let mut delta = Vec::with_capacity(delta_len);
    for _ in 0..delta_len {
        let id = r.get_u32("delta id")?;
        delta.push((id, Object::new(r.get_u32s("delta keywords")?)));
    }
    let tombstones = r.get_u32s("tombstones")?;
    let next_id = r.get_u32("next id")?;
    let placement = read_placement(&mut r)?;
    r.finish()?;
    Ok(CollectionState {
        id,
        seq,
        name,
        configured_shards,
        load_balance,
        base,
        delta,
        tombstones,
        next_id,
        placement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_core::shard::ShardPlan;

    fn obj(words: &[u32]) -> Object {
        Object::new(words.to_vec())
    }

    fn sample_shards(n: usize, shards: usize) -> Vec<Shard> {
        let objects: Vec<Object> = (0..n as u32).map(|i| obj(&[i % 5, 50 + i % 3])).collect();
        ShardPlan::build(&objects, shards, None).shards().to_vec()
    }

    fn sample_state() -> CollectionState {
        CollectionState {
            id: 3,
            seq: 17,
            name: "docs".into(),
            configured_shards: 2,
            load_balance: Some(LoadBalanceConfig { max_list_len: 8 }),
            base: sample_shards(20, 2),
            delta: vec![(20, obj(&[1, 2])), (21, obj(&[3]))],
            tombstones: vec![4, 20],
            next_id: 22,
            placement: Some(PlacementSpec {
                num_backends: 3,
                assignments: vec![vec![0, 2], vec![1]],
            }),
        }
    }

    #[test]
    fn state_roundtrip_preserves_everything() {
        let state = sample_state();
        let back = decode_state(&encode_state(&state)).unwrap();
        assert_eq!(back.id, state.id);
        assert_eq!(back.seq, state.seq);
        assert_eq!(back.name, state.name);
        assert_eq!(back.configured_shards, state.configured_shards);
        assert_eq!(back.load_balance, state.load_balance);
        assert_eq!(back.tombstones, state.tombstones);
        assert_eq!(back.next_id, state.next_id);
        assert_eq!(back.placement, state.placement);
        assert_eq!(back.delta, state.delta);
        assert_eq!(back.base.len(), state.base.len());
        for (a, b) in back.base.iter().zip(&state.base) {
            assert_eq!(a.global_ids, b.global_ids);
            assert_eq!(a.index.list_array(), b.index.list_array());
        }
        let (plan, placement) = back.into_plan().unwrap();
        assert_eq!(plan.next_id(), 22);
        assert_eq!(plan.len(), 20, "20 base + 2 delta - 2 tombstones");
        assert!(placement.is_some());
    }

    #[test]
    fn event_roundtrips() {
        let events = vec![
            JournalEvent::Create {
                collection: 0,
                seq: 1,
                name: "corpus".into(),
                configured_shards: 3,
                load_balance: None,
                base: sample_shards(12, 3),
            },
            JournalEvent::Swap {
                collection: 0,
                seq: 2,
                load_balance: Some(LoadBalanceConfig { max_list_len: 4 }),
                base: sample_shards(6, 1),
            },
            JournalEvent::Mutate {
                collection: 7,
                seq: 9,
                first_id: 40,
                deletes: vec![1, 3],
                inserts: vec![obj(&[1]), obj(&[2, 2, 4])],
            },
            JournalEvent::Placement {
                collection: 7,
                seq: 10,
                placement: None,
            },
            JournalEvent::Placement {
                collection: 7,
                seq: 11,
                placement: Some(PlacementSpec {
                    num_backends: 2,
                    assignments: vec![vec![0], vec![0, 1]],
                }),
            },
        ];
        for event in &events {
            let back = decode_event(&encode_event(event)).unwrap();
            assert_eq!(back.collection(), event.collection());
            assert_eq!(back.seq(), event.seq());
            // spot-check the interesting payloads
            if let (
                JournalEvent::Mutate {
                    first_id,
                    deletes,
                    inserts,
                    ..
                },
                JournalEvent::Mutate {
                    first_id: f2,
                    deletes: d2,
                    inserts: i2,
                    ..
                },
            ) = (event, &back)
            {
                assert_eq!(first_id, f2);
                assert_eq!(deletes, d2);
                assert_eq!(inserts, i2);
            }
        }
    }

    #[test]
    fn identity_id_maps_are_stored_compactly() {
        let shards = sample_shards(100, 1);
        let mut w = Writer::new();
        write_shards(&mut w, &shards);
        let compact = w.into_vec();
        // a non-identity map of the same shard costs ~4 bytes per id more
        let offset = Shard {
            index: shards[0].index.clone(),
            global_ids: Arc::new((1..=100).collect()),
        };
        let mut w = Writer::new();
        write_shards(&mut w, &[offset]);
        assert!(compact.len() + 350 < w.into_vec().len());
    }

    #[test]
    fn decode_rejects_structural_lies() {
        // id map length disagreeing with the embedded index
        let shard = &sample_shards(10, 1)[0];
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u32s(&[0, 1, 2]); // 3 ids for a 10-object index
        w.put_bytes(&encode_index(&shard.index));
        let mut r = Reader::new(w.into_vec().leak());
        assert!(matches!(read_shard(&mut r), Err(FormatError::Invalid(_))));

        // unsorted id map
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u32s(&[5, 4, 3, 2, 1, 0, 6, 7, 8, 9]);
        w.put_bytes(&encode_index(&shard.index));
        let mut r = Reader::new(w.into_vec().leak());
        assert!(matches!(read_shard(&mut r), Err(FormatError::Invalid(_))));

        // placement pointing past the fleet
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_count(2); // num_backends = 2
        w.put_count(1); // one shard
        w.put_count(1); // one backend entry
        w.put_count(5); // backend index 5 >= 2
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            read_placement(&mut r),
            Err(FormatError::Invalid(_))
        ));

        // truncate the state payload at every byte: typed errors only
        let full = encode_state(&sample_state());
        for cut in 0..full.len() {
            assert!(decode_state(&full[..cut]).is_err(), "cut {cut}");
        }
    }
}

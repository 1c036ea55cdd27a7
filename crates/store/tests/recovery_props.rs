//! Recovery-equivalence torture suite.
//!
//! The durability contract under test (see `genie_store`'s format
//! spec): a store image truncated at **any** byte, or bit-flipped
//! anywhere, either recovers to the state after some *acked* prefix of
//! operations (mutation batches all-or-nothing, never half a batch) or
//! reports a typed [`RecoverError`] — it never panics and never serves
//! answers that no acked prefix would have served.
//!
//! Three layers:
//!
//! 1. **Store-level, exhaustive**: a scripted multi-collection journal
//!    (create / mutate / placement / swap / checkpoint) is truncated at
//!    *every* byte of *every* file and bit-flipped at every byte; each
//!    damaged image must recover to a recorded prefix digest or fail
//!    typed.
//! 2. **Service-level, all six domains**: documents, sequences,
//!    relational rows, trees, graphs, and ANN points each run a
//!    create → mutate → delete → compact history through
//!    `GenieDb::open_at_vfs`; clean reopen and crash-cut reopens must
//!    answer count/AT-identically to an acked prefix.
//! 3. **Fault injection**: a [`FaultyVfs`] tears appends and fails
//!    checkpoints mid-write; unacknowledged operations must not be
//!    applied in memory, and healing + reopening must recover exactly
//!    the acked history.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use genie_core::backend::CpuBackend;
use genie_core::domain::Domain;
use genie_core::index::IndexBuilder;
use genie_core::model::{Object, ObjectId, Query};
use genie_core::shard::{Shard, ShardPlan};
use genie_core::topk::TopHit;
use genie_lsh::e2lsh::E2Lsh;
use genie_lsh::{AnnIndex, Transformer};
use genie_sa::graph::{Graph, GraphIndex};
use genie_sa::relational::{Attribute, Condition, RelationalIndex, RelationalSchema, Value};
use genie_sa::tree::{Tree, TreeIndex};
use genie_sa::{DocumentIndex, SequenceIndex};
use genie_service::{
    CollectionId, DbError, GenieDb, GenieService, SchedulerConfig, ServiceConfig, ServiceError,
};
use genie_store::{
    CollectionState, DurableStore, FaultyVfs, JournalEvent, MemVfs, PlacementSpec, RecoveredStore,
    Vfs,
};

const ROOT: &str = "db";

fn obj(keywords: &[u32]) -> Object {
    Object {
        keywords: keywords.to_vec(),
    }
}

fn identity_base(objects: &[&[u32]]) -> Vec<Shard> {
    let mut b = IndexBuilder::new();
    for kws in objects {
        b.add_object(&obj(kws));
    }
    vec![Shard::identity(Arc::new(b.build(None)))]
}

/// Read-only probe of the current image: recovery over a *fork*, so
/// the probe's own journal-generation rotation never touches the
/// image under test.
fn probe(vfs: &MemVfs) -> RecoveredStore {
    DurableStore::open(Arc::new(vfs.fork()) as Arc<dyn Vfs>, ROOT).expect("acked image recovers")
}

/// Everything observable about a recovered image, comparable across
/// recoveries: per collection `(id, seq, live ids, next id, placement
/// fan-in)`.
type Digest = Vec<(u64, u64, Vec<ObjectId>, ObjectId, Option<usize>)>;

fn digest(store: &RecoveredStore) -> Digest {
    store
        .collections
        .iter()
        .map(|c| {
            (
                c.id,
                c.seq,
                c.plan.live_ids(),
                c.plan.next_id(),
                c.placement.as_ref().map(|p| p.num_backends),
            )
        })
        .collect()
}

/// The scripted store: two collections, every event kind, a
/// mid-history checkpoint. Returns the vfs and the digest after every
/// acked step (index 0 = empty store).
fn scripted_image() -> (Arc<MemVfs>, Vec<Digest>) {
    let vfs = Arc::new(MemVfs::new());
    let opened = DurableStore::open(Arc::clone(&vfs) as Arc<dyn Vfs>, ROOT).unwrap();
    let mut expected = vec![digest(&opened)];
    let store = opened.store;
    // after every acked step, a fork+open of the image defines the
    // expected-prefix oracle
    let ack = |expected: &mut Vec<Digest>| expected.push(digest(&probe(&vfs)));

    store
        .append(&JournalEvent::Create {
            collection: 0,
            seq: 1,
            name: "alpha".into(),
            configured_shards: 1,
            load_balance: None,
            base: identity_base(&[&[1, 2], &[2, 3]]),
        })
        .unwrap();
    ack(&mut expected);
    store
        .append(&JournalEvent::Mutate {
            collection: 0,
            seq: 2,
            first_id: 2,
            deletes: vec![0],
            inserts: vec![obj(&[1, 4]), obj(&[4, 5])],
        })
        .unwrap();
    ack(&mut expected);
    store
        .append(&JournalEvent::Create {
            collection: 1,
            seq: 1,
            name: "beta".into(),
            configured_shards: 1,
            load_balance: None,
            base: identity_base(&[&[9]]),
        })
        .unwrap();
    ack(&mut expected);
    store
        .append(&JournalEvent::Placement {
            collection: 0,
            seq: 3,
            placement: Some(PlacementSpec {
                num_backends: 2,
                assignments: vec![vec![0]],
            }),
        })
        .unwrap();
    ack(&mut expected);
    // checkpoint mid-history: snapshots + manifest + journal pruning
    store
        .checkpoint_with(|| {
            probe(&vfs)
                .collections
                .into_iter()
                .map(|c| {
                    genie_store::CollectionState::capture(
                        c.id,
                        c.seq,
                        &c.name,
                        c.configured_shards,
                        &c.plan,
                        c.placement,
                    )
                })
                .collect()
        })
        .unwrap();
    ack(&mut expected);
    store
        .append(&JournalEvent::Swap {
            collection: 1,
            seq: 2,
            load_balance: None,
            base: identity_base(&[&[7], &[7, 8]]),
        })
        .unwrap();
    ack(&mut expected);
    store
        .append(&JournalEvent::Mutate {
            collection: 1,
            seq: 3,
            first_id: 2,
            deletes: vec![],
            inserts: vec![obj(&[8, 9])],
        })
        .unwrap();
    ack(&mut expected);
    (vfs, expected)
}

#[test]
fn truncation_at_every_byte_recovers_an_acked_prefix_or_fails_typed() {
    let (vfs, expected) = scripted_image();
    // sanity: the untouched image recovers to the final digest
    assert_eq!(digest(&probe(&vfs)), *expected.last().unwrap());

    let mut cuts = 0usize;
    let mut typed_errors = 0usize;
    for path in vfs.paths() {
        let len = vfs.len_of(&path).expect("listed file exists");
        let is_journal = path.to_string_lossy().contains("journal");
        for cut in 0..len {
            let fork = Arc::new(vfs.fork());
            fork.truncate(&path, cut);
            cuts += 1;
            match DurableStore::open(Arc::clone(&fork) as Arc<dyn Vfs>, ROOT) {
                Ok(recovered) => {
                    let got = digest(&recovered);
                    assert!(
                        expected.contains(&got),
                        "truncating {path:?} at {cut}/{len} recovered a state no \
                         acked prefix ever had: {got:?}"
                    );
                }
                Err(e) => {
                    // snapshot/manifest damage is a typed refusal;
                    // journal truncation is always a recoverable torn
                    // tail (the whole point of the frame format)
                    assert!(
                        !is_journal,
                        "journal cut {path:?}@{cut} must recover, got {e}"
                    );
                    typed_errors += 1;
                }
            }
        }
    }
    assert!(
        cuts > 500,
        "the script should produce a real image ({cuts} cuts)"
    );
    assert!(typed_errors > 0, "manifest/snapshot cuts must fail typed");
}

#[test]
fn bit_flips_recover_an_acked_prefix_or_fail_typed_never_panic() {
    let (vfs, expected) = scripted_image();
    for path in vfs.paths() {
        let len = vfs.len_of(&path).expect("listed file exists");
        for offset in 0..len {
            let fork = Arc::new(vfs.fork());
            fork.flip(&path, offset, 0x40);
            // typed refusal (Err) is the other legal outcome
            if let Ok(recovered) = DurableStore::open(Arc::clone(&fork) as Arc<dyn Vfs>, ROOT) {
                // a flip the CRC chain tolerates can only land in
                // bytes recovery never trusts (torn tail, pruned
                // generation): the state must still be a prefix
                let got = digest(&recovered);
                assert!(
                    expected.contains(&got),
                    "flip {path:?}@{offset} produced a non-prefix state: {got:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Service level: all six domains answer count/AT-identically after
// clean restarts and crash-cut restarts.
// ---------------------------------------------------------------------

fn db_over(vfs: &Arc<MemVfs>) -> GenieDb {
    GenieDb::open_at_vfs(
        Arc::clone(vfs) as Arc<dyn Vfs>,
        ROOT,
        vec![Arc::new(CpuBackend::new())],
        SchedulerConfig {
            max_batch_queries: 64,
            ..Default::default()
        },
        ServiceConfig {
            max_queue_delay: Duration::ZERO,
            dispatchers: 1,
            compact_after: 0, // only explicit compactions: deterministic files
            ..Default::default()
        },
    )
    .expect("durable open over MemVfs")
}

/// One probe sweep: raw count answers + audit threshold per query.
type Answers = Vec<(Vec<TopHit>, u32)>;

fn answers(service: &GenieService, id: CollectionId, queries: &[Query], k: usize) -> Answers {
    queries
        .iter()
        .map(|q| {
            let r = service
                .submit_to(id, q.clone(), k)
                .wait()
                .expect("probe query serves");
            (r.hits, r.audit_threshold)
        })
        .collect()
}

/// Deterministic cut offsets for a file of `len` bytes: the ends, the
/// file-header boundary, and a spread through the middle.
fn sample_cuts(len: usize) -> Vec<usize> {
    let mut cuts = vec![
        0,
        1,
        13,
        14,
        15,
        len / 4,
        len / 2,
        len / 2 + 1,
        (3 * len) / 4,
        len.saturating_sub(2),
        len.saturating_sub(1),
    ];
    cuts.retain(|&c| c < len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Create → insert → delete → compact one typed collection over a
/// durable `MemVfs`, recording raw answers after every acked step,
/// then check the three recovery equivalences:
///
/// 1. compaction + checkpoint change no answer,
/// 2. a clean reopen answers exactly like the final state,
/// 3. any crash-cut reopen answers exactly like *some* acked step (or
///    has not created the collection yet, or refuses typed).
fn torture_domain<D: Domain>(
    name: &str,
    config: D::Config,
    items: Vec<D::Item>,
    extras: Vec<D::Item>,
    specs: &[D::QuerySpec],
    k: usize,
) {
    let vfs = Arc::new(MemVfs::new());
    let db = db_over(&vfs);
    let col = db
        .create_collection::<D>(name, config, items)
        .unwrap_or_else(|e| panic!("{name}: create failed: {e}"));
    let id = col.id();
    let queries: Vec<Query> = specs
        .iter()
        .map(|s| col.domain().encode(s).expect("probe spec encodes"))
        .collect();
    let service = db.service_handle();

    let mut log: Vec<Answers> = vec![answers(&service, id, &queries, k)];
    col.mutate(&[], extras)
        .unwrap_or_else(|e| panic!("{name}: insert failed: {e}"));
    log.push(answers(&service, id, &queries, k));
    col.delete(0)
        .unwrap_or_else(|e| panic!("{name}: delete failed: {e}"));
    log.push(answers(&service, id, &queries, k));

    // the crash image: full journal, no snapshot yet
    let crash_image = vfs.fork();

    // compaction folds the debt and checkpoints — answers must not move
    assert!(col.compact().unwrap_or_else(|e| panic!("{name}: {e}")));
    assert_eq!(
        answers(&service, id, &queries, k),
        *log.last().unwrap(),
        "{name}: compaction changed an answer"
    );
    drop(col);
    drop(service);
    drop(db);

    // clean reopen (snapshot + empty journal): identical final answers
    let db2 = db_over(&vfs);
    let report = db2.recovery().expect("durable db carries a report").clone();
    assert!(report.snapshot_gen > 0, "{name}: checkpoint must have run");
    assert_eq!(
        answers(db2.service(), id, &queries, k),
        *log.last().unwrap(),
        "{name}: clean recovery changed an answer"
    );
    drop(db2);

    // crash-cut reopens over both images: every recovered state must
    // answer like an acked step
    for image in [Arc::new(crash_image), vfs] {
        for path in image.paths() {
            let len = image.len_of(&path).expect("listed file exists");
            for cut in sample_cuts(len) {
                let fork = Arc::new(image.fork());
                fork.truncate(&path, cut);
                match GenieDb::open_at_vfs(
                    Arc::clone(&fork) as Arc<dyn Vfs>,
                    ROOT,
                    vec![Arc::new(CpuBackend::new())],
                    SchedulerConfig::default(),
                    ServiceConfig {
                        max_queue_delay: Duration::ZERO,
                        dispatchers: 1,
                        ..Default::default()
                    },
                ) {
                    Ok(db3) => {
                        let registered = db3
                            .service()
                            .collection_names()
                            .iter()
                            .any(|(cid, _)| *cid == id);
                        if !registered {
                            continue; // cut before the create committed
                        }
                        let got = answers(db3.service(), id, &queries, k);
                        assert!(
                            log.contains(&got),
                            "{name}: cut {path:?}@{cut} served answers no acked \
                             prefix ever served"
                        );
                    }
                    Err(DbError::Recover(_)) => {} // typed refusal
                    Err(e) => panic!("{name}: cut {path:?}@{cut}: unexpected {e}"),
                }
            }
        }
    }
}

#[test]
fn documents_recover_identically() {
    let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    torture_domain::<DocumentIndex>(
        "docs",
        (),
        vec![
            toks("gpu similarity search"),
            toks("inverted index framework"),
            toks("match count certificates"),
        ],
        vec![
            toks("gpu match count search"),
            toks("framework certificates"),
        ],
        &[
            toks("gpu similarity search"),
            toks("inverted framework"),
            toks("match count"),
        ],
        3,
    );
}

#[test]
fn sequences_recover_identically() {
    let seq = |s: &str| s.as_bytes().to_vec();
    torture_domain::<SequenceIndex>(
        "seqs",
        3,
        vec![
            seq("genie on gpu"),
            seq("genie on cpu"),
            seq("inverted index"),
        ],
        vec![seq("genie off gpu"), seq("generic index")],
        &[seq("genie on gpy"), seq("inverted index")],
        3,
    );
}

#[test]
fn relational_rows_recover_identically() {
    let schema = RelationalSchema {
        attrs: vec![
            Attribute::Categorical { cardinality: 4 },
            Attribute::Numeric {
                min: 0.0,
                max: 10.0,
                buckets: 8,
            },
        ],
        load_balance: None,
    };
    torture_domain::<RelationalIndex>(
        "rows",
        schema,
        vec![
            vec![Value::Cat(1), Value::Num(2.0)],
            vec![Value::Cat(2), Value::Num(9.0)],
            vec![Value::Cat(3), Value::Num(5.0)],
        ],
        vec![
            vec![Value::Cat(2), Value::Num(4.5)],
            vec![Value::Cat(0), Value::Num(0.5)],
        ],
        &[
            vec![
                Condition::CatEq { attr: 0, value: 2 },
                Condition::NumRange {
                    attr: 1,
                    lo: 3.0,
                    hi: 10.0,
                },
            ],
            vec![Condition::CatEq { attr: 0, value: 3 }],
        ],
        2,
    );
}

#[test]
fn trees_recover_identically() {
    let mut t1 = Tree::leaf(1);
    t1.add_child(0, 2);
    let mut t2 = Tree::leaf(1);
    t2.add_child(0, 3);
    let mut t3 = t1.clone();
    let c = t3.add_child(0, 4);
    t3.add_child(c, 5);
    let mut t4 = t2.clone();
    t4.add_child(0, 2);
    torture_domain::<TreeIndex>(
        "forest",
        (),
        vec![t1.clone(), t2, t3.clone()],
        vec![t4, t3],
        &[t1.clone(), t1],
        2,
    );
}

#[test]
fn graphs_recover_identically() {
    let mut g1 = Graph::new();
    let a = g1.add_node(1);
    let b = g1.add_node(2);
    g1.add_edge(a, b);
    let mut g2 = g1.clone();
    let c = g2.add_node(3);
    g2.add_edge(a, c);
    let mut g3 = Graph::new();
    let d = g3.add_node(4);
    let e = g3.add_node(5);
    g3.add_edge(d, e);
    torture_domain::<GraphIndex>(
        "graphs",
        (),
        vec![g1.clone(), g2.clone(), g3],
        vec![g2.clone(), g1.clone()],
        &[g1, g2],
        2,
    );
}

#[test]
fn ann_points_recover_identically() {
    let points: Vec<Vec<f32>> = (0..12).map(|i| vec![i as f32, (i % 3) as f32]).collect();
    let extras: Vec<Vec<f32>> = vec![vec![2.5, 1.0], vec![7.5, 0.0]];
    let probes: Vec<Vec<f32>> = vec![points[5].clone(), vec![3.1, 2.0]];
    torture_domain::<AnnIndex<E2Lsh>>(
        "points",
        Transformer::new(E2Lsh::new(16, 2, 4.0, 7), 64),
        points,
        extras,
        &probes,
        3,
    );
}

// ---------------------------------------------------------------------
// Fault injection: torn appends and failed checkpoints.
// ---------------------------------------------------------------------

#[test]
fn torn_appends_are_never_applied_and_heal_on_the_next_generation() {
    let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let mem = Arc::new(MemVfs::new());
    let faulty = Arc::new(FaultyVfs::new(Arc::clone(&mem) as Arc<dyn Vfs>, i64::MAX));
    let db = GenieDb::open_at_vfs(
        Arc::clone(&faulty) as Arc<dyn Vfs>,
        ROOT,
        vec![Arc::new(CpuBackend::new())],
        SchedulerConfig::default(),
        ServiceConfig {
            max_queue_delay: Duration::ZERO,
            dispatchers: 1,
            compact_after: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let col = db
        .create_collection::<DocumentIndex>(
            "docs",
            (),
            vec![toks("alpha beta"), toks("beta gamma")],
        )
        .unwrap();
    let id = col.id();
    let queries = vec![
        col.domain().encode(&toks("alpha beta")).unwrap(),
        col.domain().encode(&toks("gamma delta")).unwrap(),
    ];
    col.insert(toks("gamma delta")).unwrap();
    let acked = answers(db.service(), id, &queries, 2);

    // tear the next append mid-record: the batch must not be applied
    faulty.set_budget(5);
    let err = col.insert(toks("never lands")).unwrap_err();
    assert!(
        matches!(err, DbError::Service(ServiceError::Persist(_))),
        "torn append must surface as a typed persistence error, got {err}"
    );
    assert_eq!(
        answers(db.service(), id, &queries, 2),
        acked,
        "an unacknowledged batch leaked into the serving state"
    );
    assert_eq!(db.stats().persist_errors, 1);

    // heal: the store rotates past the torn tail on the next append.
    // The new document reuses tokens the probe queries encode, so it
    // must move an answer.
    faulty.set_budget(i64::MAX);
    col.insert(toks("alpha beta gamma")).unwrap();
    let healed = answers(db.service(), id, &queries, 2);
    assert_ne!(healed, acked, "the healed insert must be visible");

    // a failed checkpoint is tolerated: answers keep flowing, the
    // journal still covers the acked history
    faulty.set_budget(20);
    assert!(col.compact().unwrap());
    assert!(db.stats().persist_errors >= 2, "checkpoint failure counted");
    faulty.set_budget(i64::MAX);
    assert_eq!(answers(db.service(), id, &queries, 2), healed);
    drop(col);
    drop(db);

    // reopen over the *inner* vfs (torn bytes and all): exactly the
    // acked history comes back
    let db2 = db_over(&mem);
    let report = db2.recovery().unwrap();
    assert!(
        report.torn_tail_bytes > 0,
        "the torn append must be visible to recovery: {report:?}"
    );
    assert_eq!(
        answers(db2.service(), id, &queries, 2),
        healed,
        "recovery must serve exactly the acked history"
    );
}

// ---------------------------------------------------------------------
// Randomized interleavings: seeds drive event sequences; every cut of
// the resulting image recovers an acked prefix.
// ---------------------------------------------------------------------

/// Tiny deterministic generator (SplitMix64) — keeps the test free of
/// RNG-crate details and reproducible from the printed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn random_interleavings_crash_cut_to_acked_prefixes() {
    for seed in 0..6u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5DEE_CE66).wrapping_add(11));
        let vfs = Arc::new(MemVfs::new());
        let opened = DurableStore::open(Arc::clone(&vfs) as Arc<dyn Vfs>, ROOT).unwrap();
        let mut expected: Vec<Digest> = vec![digest(&opened)];
        let store = opened.store;
        let mut created = 0u64;

        for _ in 0..12 {
            // the authoritative current state drives valid next events
            let now = probe(&vfs);
            let op = rng.below(4);
            let event = if created == 0 || (op == 0 && created < 3) {
                created += 1;
                JournalEvent::Create {
                    collection: created - 1,
                    seq: 1,
                    name: format!("c{}", created - 1),
                    configured_shards: 1,
                    load_balance: None,
                    base: identity_base(&[&[1, 2], &[3]]),
                }
            } else {
                let pick = rng.below(now.collections.len());
                let c = &now.collections[pick];
                match op {
                    1 if !c.plan.live_ids().is_empty() => {
                        let live = c.plan.live_ids();
                        let victim = live[rng.below(live.len())];
                        JournalEvent::Mutate {
                            collection: c.id,
                            seq: c.seq + 1,
                            first_id: c.plan.next_id(),
                            deletes: vec![victim],
                            inserts: vec![obj(&[rng.below(16) as u32])],
                        }
                    }
                    2 => JournalEvent::Swap {
                        collection: c.id,
                        seq: c.seq + 1,
                        load_balance: None,
                        base: identity_base(&[&[rng.below(16) as u32, 5]]),
                    },
                    3 => JournalEvent::Placement {
                        collection: c.id,
                        seq: c.seq + 1,
                        placement: Some(PlacementSpec {
                            num_backends: 1 + rng.below(3),
                            assignments: vec![vec![0]],
                        }),
                    },
                    _ => JournalEvent::Mutate {
                        collection: c.id,
                        seq: c.seq + 1,
                        first_id: c.plan.next_id(),
                        deletes: vec![],
                        inserts: vec![obj(&[rng.below(16) as u32, 7])],
                    },
                }
            };
            store.append(&event).unwrap();
            expected.push(digest(&probe(&vfs)));
        }

        // cut everywhere (the journal is the only file: no checkpoint)
        let paths: Vec<PathBuf> = vfs.paths();
        for path in paths {
            let len = vfs.len_of(&path).expect("listed file exists");
            for cut in 0..len {
                let fork = Arc::new(vfs.fork());
                fork.truncate(&path, cut);
                let recovered = DurableStore::open(Arc::clone(&fork) as Arc<dyn Vfs>, ROOT)
                    .unwrap_or_else(|e| panic!("seed {seed}: journal cut @{cut} refused: {e}"));
                let got = digest(&recovered);
                assert!(
                    expected.contains(&got),
                    "seed {seed}: cut {path:?}@{cut} recovered a non-prefix state"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stores that recorded a shard→backend placement: the service drops the
// plan on recovery and answers as if it had never been recorded.
// ---------------------------------------------------------------------

/// One 2-shard collection: create, a mutation batch, a checkpoint, and
/// a later batch journaled after it. With `placed`, a tag-4 `Placement`
/// event is journaled before the checkpoint and again before the later
/// batch, whose seq continues the chain, and the snapshot carries
/// `has_placement = 1`.
fn image_with_placements(placed: bool) -> Arc<MemVfs> {
    let vfs = Arc::new(MemVfs::new());
    let store = DurableStore::open(Arc::clone(&vfs) as Arc<dyn Vfs>, ROOT)
        .unwrap()
        .store;
    let mut b = IndexBuilder::new();
    for i in 0..12u32 {
        b.add_object(&obj(&[i % 4, 4 + i % 3]));
    }
    let base = ShardPlan::from_index(&b.build(None), 2)
        .unwrap()
        .shards()
        .to_vec();
    let spec = PlacementSpec {
        num_backends: 1,
        assignments: vec![vec![0]; 2],
    };
    let placement = |seq| JournalEvent::Placement {
        collection: 0,
        seq,
        placement: Some(spec.clone()),
    };

    let mut seq = 1;
    store
        .append(&JournalEvent::Create {
            collection: 0,
            seq,
            name: "placed".into(),
            configured_shards: 2,
            load_balance: None,
            base,
        })
        .unwrap();
    seq += 1;
    store
        .append(&JournalEvent::Mutate {
            collection: 0,
            seq,
            first_id: 12,
            deletes: vec![3],
            inserts: vec![obj(&[1, 5]), obj(&[9])],
        })
        .unwrap();
    if placed {
        seq += 1;
        store.append(&placement(seq)).unwrap();
    }
    let now = probe(&vfs);
    store
        .checkpoint_with(|| {
            now.collections
                .iter()
                .map(|c| {
                    CollectionState::capture(
                        c.id,
                        c.seq,
                        &c.name,
                        c.configured_shards,
                        &c.plan,
                        placed.then(|| spec.clone()),
                    )
                })
                .collect()
        })
        .unwrap();
    if placed {
        seq += 1;
        store.append(&placement(seq)).unwrap();
    }
    seq += 1;
    store
        .append(&JournalEvent::Mutate {
            collection: 0,
            seq,
            first_id: 14,
            deletes: vec![7],
            inserts: vec![obj(&[9, 2])],
        })
        .unwrap();
    vfs
}

#[test]
fn recorded_placements_are_dropped_on_recovery_and_change_no_answer() {
    let placed = image_with_placements(true);
    let plain = image_with_placements(false);

    // the image holds both records: a snapshot with has_placement = 1,
    // then a tag-4 event and the later batch replayed on top of it
    let recorded = probe(&placed);
    assert!(recorded.report.snapshot_gen > 0, "{:?}", recorded.report);
    assert_eq!(recorded.report.events_replayed, 2, "{:?}", recorded.report);
    assert!(recorded.collections[0].placement.is_some());
    assert_eq!(recorded.collections[0].seq, 5);
    assert_eq!(probe(&plain).collections[0].seq, 3);

    let db_placed = db_over(&placed);
    let db_plain = db_over(&plain);
    let queries: Vec<Query> = [&[9][..], &[1, 5], &[2], &[0, 4], &[3, 6]]
        .iter()
        .map(|kws| Query::from_keywords(kws))
        .collect();
    for k in [1, 3, 20] {
        assert_eq!(
            answers(db_placed.service(), 0, &queries, k),
            answers(db_plain.service(), 0, &queries, k),
            "a recorded placement changed an answer at k={k}"
        );
    }
    // the later batch is present: its insert is the second object
    // carrying keyword 9
    let (hits, at) = &answers(db_placed.service(), 0, &queries[..1], 3)[0];
    let ids: Vec<ObjectId> = hits.iter().map(|h| h.id).collect();
    assert_eq!(ids, vec![13, 14]);
    assert_eq!(*at, 1, "fewer than k matched");

    // the service writes no placement: its next snapshot drops the plan
    db_placed.checkpoint().unwrap();
    assert!(probe(&placed).collections[0].placement.is_none());
}

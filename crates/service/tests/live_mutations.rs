//! Property tests: live mutations are **rebuild-equivalent**, per
//! domain.
//!
//! For every domain, apply an arbitrary interleaving of atomic
//! mutation batches (deletes of live ids + inserts) to a collection,
//! then compare its answers against a collection built from scratch
//! over exactly the surviving items. The two must agree query for
//! query — ids (under the monotone stable-id → dense-id translation),
//! counts/distances, and the Theorem 3.1 `AT = MC_k + 1` certificate —
//! and must *keep* agreeing after compaction folds the delta shard and
//! tombstones into fresh base shards.
//!
//! The backend is the deterministic `CpuBackend`, so full equality is
//! the right assertion. Query specs are drawn from the surviving items
//! so both adapters (the live one, whose vocabulary kept growing, and
//! the fresh one, which only ever saw survivors) can encode them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use genie_core::backend::{BackendCaps, BackendIndex, CpuBackend, SearchBackend};
use genie_core::domain::{Domain, MatchHits};
use genie_core::exec::SearchOutput;
use genie_core::index::{IndexBuilder, InvertedIndex};
use genie_core::model::{Object, ObjectId, Query};
use genie_lsh::e2lsh::E2Lsh;
use genie_lsh::{AnnIndex, Transformer};
use genie_sa::relational::{Attribute, RelationalSchema, Value};
use genie_sa::sequence::SequenceSearchReport;
use genie_sa::{DocumentIndex, Graph, GraphIndex, RelationalIndex, SequenceIndex, Tree, TreeIndex};
use genie_service::{
    Collection, DbError, GenieDb, GenieService, QueryScheduler, ServiceConfig, ServiceError,
};
use proptest::prelude::*;

fn db() -> GenieDb {
    GenieDb::single(Arc::new(CpuBackend::new())).expect("db opens")
}

/// A uniform (id, score) view over every domain's response type so one
/// checker serves match-count and verify domains alike.
trait HitView {
    fn pairs(&self) -> Vec<(u32, u32)>;
    /// The Theorem 3.1 certificate, for domains that surface it.
    fn audit(&self) -> Option<u32> {
        None
    }
}

impl HitView for MatchHits {
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.hits.iter().map(|h| (h.id, h.count)).collect()
    }
    fn audit(&self) -> Option<u32> {
        Some(self.audit_threshold)
    }
}

impl HitView for SequenceSearchReport {
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.hits.iter().map(|h| (h.id, h.distance)).collect()
    }
}

impl HitView for Vec<genie_sa::tree::TreeHit> {
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.iter().map(|h| (h.id, h.distance)).collect()
    }
}

impl HitView for Vec<genie_sa::graph::GraphHit> {
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.iter().map(|h| (h.id, h.distance)).collect()
    }
}

/// The model a mutated collection must match: the surviving items with
/// their stable ids, ascending (removals keep order, new ids are
/// larger than every earlier id).
struct Model<T> {
    live: Vec<(ObjectId, T)>,
    next_id: ObjectId,
}

impl<T: Clone> Model<T> {
    fn new(initial: &[T]) -> Self {
        Self {
            live: initial
                .iter()
                .enumerate()
                .map(|(i, t)| (i as ObjectId, t.clone()))
                .collect(),
            next_id: initial.len() as ObjectId,
        }
    }

    /// Turn delete *picks* (arbitrary indices) into distinct live ids,
    /// never deleting the last survivor, and remove them from the
    /// model.
    fn pick_deletes(&mut self, picks: &[usize]) -> Vec<ObjectId> {
        let mut ids = Vec::new();
        for &p in picks {
            if self.live.len() <= 1 {
                break;
            }
            ids.push(self.live.remove(p % self.live.len()).0);
        }
        ids
    }

    fn record_inserts(&mut self, ids: &[ObjectId], items: &[T]) {
        assert_eq!(ids.len(), items.len());
        for (&id, item) in ids.iter().zip(items) {
            assert_eq!(id, self.next_id, "stable ids are dense insert order");
            self.live.push((id, item.clone()));
            self.next_id += 1;
        }
    }

    fn live_ids(&self) -> Vec<ObjectId> {
        self.live.iter().map(|&(id, _)| id).collect()
    }

    fn live_items(&self) -> Vec<T> {
        self.live.iter().map(|(_, t)| t.clone()).collect()
    }
}

/// The core assertion: for every spec and k, the mutated collection's
/// answer equals the from-scratch rebuild's, hit for hit, under the
/// monotone id translation (stable live id → its rank among live ids).
fn assert_rebuild_equivalent<D: Domain>(
    mutated: &Collection<D>,
    fresh: &Collection<D>,
    live_ids: &[ObjectId],
    specs: &[D::QuerySpec],
    ks: &[usize],
) where
    D::Response: HitView,
{
    for spec in specs {
        for &k in ks {
            let live = mutated.search(spec, k).expect("live search serves");
            let rebuilt = fresh.search(spec, k).expect("fresh search serves");
            let translated: Vec<(u32, u32)> = live
                .pairs()
                .iter()
                .map(|&(id, s)| {
                    let rank = live_ids
                        .binary_search(&id)
                        .expect("every returned id is live") as u32;
                    (rank, s)
                })
                .collect();
            assert_eq!(
                translated,
                rebuilt.pairs(),
                "mutated collection diverged from rebuild at k={k}"
            );
            assert_eq!(live.audit(), rebuilt.audit(), "AT must match the rebuild");
        }
    }
}

/// Drive one interleaving end-to-end and check equivalence at every
/// checkpoint: mid-stream, after the final batch, and after an
/// explicit compaction (which must change no answer).
#[allow(clippy::too_many_arguments)]
fn run_interleaving<D: Domain, FD, FS>(
    initial: Vec<D::Item>,
    ops: Vec<(Vec<usize>, Vec<D::Item>)>,
    shards: usize,
    config: FD,
    spec_of: FS,
    ks: &[usize],
) where
    D::Item: Clone,
    D::Response: HitView,
    FD: Fn() -> D::Config,
    FS: Fn(&D::Item) -> D::QuerySpec,
{
    let mutated = db()
        .create_collection_sharded::<D>("live", config(), initial.clone(), shards)
        .expect("collection builds");
    let mut model = Model::new(&initial);
    let checkpoint = ops.len() / 2;
    for (round, (picks, inserts)) in ops.into_iter().enumerate() {
        let deletes = model.pick_deletes(&picks);
        let ids = mutated
            .mutate(&deletes, inserts.clone())
            .expect("valid batch applies");
        model.record_inserts(&ids, &inserts);
        assert_eq!(mutated.len(), model.live.len());
        if round == checkpoint {
            let fresh = db()
                .create_collection::<D>("fresh", config(), model.live_items())
                .expect("rebuild builds");
            let specs: Vec<D::QuerySpec> =
                model.live.iter().take(3).map(|(_, t)| spec_of(t)).collect();
            assert_rebuild_equivalent(&mutated, &fresh, &model.live_ids(), &specs, ks);
        }
    }
    let fresh = db()
        .create_collection::<D>("fresh", config(), model.live_items())
        .expect("rebuild builds");
    let live_ids = model.live_ids();
    // specs from the survivors, plus a k far past the corpus size
    let specs: Vec<D::QuerySpec> = model.live.iter().take(4).map(|(_, t)| spec_of(t)).collect();
    let mut ks_all = ks.to_vec();
    ks_all.push(model.live.len() + 5);
    assert_rebuild_equivalent(&mutated, &fresh, &live_ids, &specs, &ks_all);

    // compaction folds the debt and must change nothing
    let status = mutated.mutation_status();
    let compacted = mutated.compact().expect("compaction runs");
    assert_eq!(
        compacted,
        status.delta > 0 || status.tombstones > 0,
        "compaction applies exactly when there is debt"
    );
    let after = mutated.mutation_status();
    assert_eq!(after.delta, 0, "delta folded into base");
    assert_eq!(after.tombstones, 0, "tombstones folded into base");
    assert_eq!(after.live, model.live.len());
    assert_eq!(after.next_id, model.next_id, "ids survive compaction");
    assert_rebuild_equivalent(&mutated, &fresh, &live_ids, &specs, &ks_all);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn document_mutations_equal_rebuild(
        (initial, ops, shards) in (
            proptest::collection::vec(proptest::collection::vec(0u32..30, 1..8), 1..12),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..64, 0..3),
                    proptest::collection::vec(proptest::collection::vec(0u32..30, 1..8), 0..3),
                ),
                1..5,
            ),
            1usize..4,
        ),
    ) {
        let words = |ids: &Vec<u32>| ids.iter().map(|i| format!("w{i}")).collect::<Vec<String>>();
        run_interleaving::<DocumentIndex, _, _>(
            initial.iter().map(&words).collect(),
            ops.iter()
                .map(|(d, ins)| (d.clone(), ins.iter().map(&words).collect()))
                .collect(),
            shards,
            || (),
            |item| item.clone(),
            &[1, 3],
        );
    }

    #[test]
    fn relational_mutations_equal_rebuild(
        (initial, ops, shards) in (
            proptest::collection::vec((0u32..4, 0u32..8, 0i32..100), 1..12),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..64, 0..3),
                    proptest::collection::vec((0u32..4, 0u32..8, 0i32..100), 0..3),
                ),
                1..5,
            ),
            1usize..4,
        ),
    ) {
        let schema = || RelationalSchema {
            attrs: vec![
                Attribute::Categorical { cardinality: 4 },
                Attribute::Categorical { cardinality: 8 },
                Attribute::Numeric { min: -5.0, max: 5.0, buckets: 16 },
            ],
            load_balance: None,
        };
        let row = |&(a, b, x): &(u32, u32, i32)| {
            vec![Value::Cat(a), Value::Cat(b), Value::Num(-5.0 + x as f64 * 0.1)]
        };
        run_interleaving::<RelationalIndex, _, _>(
            initial.iter().map(row).collect(),
            ops.iter()
                .map(|(d, ins)| (d.clone(), ins.iter().map(row).collect()))
                .collect(),
            shards,
            schema,
            |item| {
                // a row matches itself on every attribute
                item.iter()
                    .enumerate()
                    .map(|(attr, v)| match v {
                        Value::Cat(c) => genie_sa::relational::Condition::CatEq {
                            attr,
                            value: *c,
                        },
                        Value::Num(x) => genie_sa::relational::Condition::NumRange {
                            attr,
                            lo: *x - 0.05,
                            hi: *x + 0.05,
                        },
                    })
                    .collect()
            },
            &[1, 3],
        );
    }

    #[test]
    fn sequence_mutations_equal_rebuild(
        (initial, ops, shards) in (
            proptest::collection::vec(proptest::collection::vec(b'a'..b'e', 3..12), 1..10),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..64, 0..3),
                    proptest::collection::vec(proptest::collection::vec(b'a'..b'e', 3..12), 0..3),
                ),
                1..4,
            ),
            1usize..3,
        ),
    ) {
        run_interleaving::<SequenceIndex, _, _>(
            initial,
            ops,
            shards,
            || 3,
            |item| item.clone(),
            &[1, 2],
        );
    }

    #[test]
    fn tree_mutations_equal_rebuild(
        (initial, ops, shards) in (
            proptest::collection::vec(
                proptest::collection::vec((0u32..4, 0usize..6), 0..8),
                1..8,
            ),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..64, 0..2),
                    proptest::collection::vec(
                        proptest::collection::vec((0u32..4, 0usize..6), 0..8),
                        0..3,
                    ),
                ),
                1..4,
            ),
            1usize..3,
        ),
    ) {
        let build = |spec: &Vec<(u32, usize)>| {
            let mut t = Tree::leaf(0);
            for &(label, parent) in spec {
                let p = parent % t.len();
                t.add_child(p, label);
            }
            t
        };
        run_interleaving::<TreeIndex, _, _>(
            initial.iter().map(build).collect(),
            ops.iter()
                .map(|(d, ins)| (d.clone(), ins.iter().map(build).collect()))
                .collect(),
            shards,
            || (),
            |item| item.clone(),
            &[1, 2],
        );
    }

    #[test]
    fn graph_mutations_equal_rebuild(
        (initial, ops, shards) in (
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..4, 1..6),
                    proptest::collection::vec((0usize..6, 0usize..6), 0..8),
                ),
                1..8,
            ),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..64, 0..2),
                    proptest::collection::vec(
                        (
                            proptest::collection::vec(0u32..4, 1..6),
                            proptest::collection::vec((0usize..6, 0usize..6), 0..8),
                        ),
                        0..3,
                    ),
                ),
                1..4,
            ),
            1usize..3,
        ),
    ) {
        let build = |(labels, edges): &(Vec<u32>, Vec<(usize, usize)>)| {
            let mut g = Graph::new();
            for &l in labels {
                g.add_node(l);
            }
            for &(a, b) in edges {
                let (a, b) = (a % g.len(), b % g.len());
                if a != b {
                    g.add_edge(a, b);
                }
            }
            g
        };
        run_interleaving::<GraphIndex, _, _>(
            initial.iter().map(build).collect(),
            ops.iter()
                .map(|(d, ins)| (d.clone(), ins.iter().map(build).collect()))
                .collect(),
            shards,
            || (),
            |item| item.clone(),
            &[1, 2],
        );
    }

    #[test]
    fn tau_ann_mutations_equal_rebuild(
        (initial, ops, shards, m) in (
            proptest::collection::vec(proptest::collection::vec(-100i32..100, 4..5), 1..12),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..64, 0..3),
                    proptest::collection::vec(
                        proptest::collection::vec(-100i32..100, 4..5),
                        0..3,
                    ),
                ),
                1..5,
            ),
            1usize..3,
            4usize..16,
        ),
    ) {
        let point = |p: &Vec<i32>| p.iter().map(|&c| c as f32 / 10.0).collect::<Vec<f32>>();
        // identical (family, seed, domain) twice => identical transform
        let config = move || Transformer::new(E2Lsh::new(m, 4, 4.0, 17), 256);
        run_interleaving::<AnnIndex<E2Lsh>, _, _>(
            initial.iter().map(point).collect(),
            ops.iter()
                .map(|(d, ins)| (d.clone(), ins.iter().map(point).collect()))
                .collect(),
            shards,
            config,
            |item| item.clone(),
            &[1, 3],
        );
    }
}

/// Mutation edge cases, spelled out once (satellite 3).
#[test]
fn mutation_edge_cases() {
    let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let db = db();
    let col = db
        .create_collection::<DocumentIndex>(
            "edge",
            (),
            vec![toks("alpha beta"), toks("beta gamma")],
        )
        .unwrap();

    // delete of a nonexistent id: typed error, nothing applied
    assert_eq!(col.delete(99), Err(DbError::UnknownId(99)));
    assert_eq!(col.len(), 2);
    assert_eq!(col.mutation_status().tombstones, 0);

    // an unknown id poisons the whole batch atomically
    let err = col.mutate(&[0, 99], vec![toks("delta")]).unwrap_err();
    assert_eq!(err, DbError::UnknownId(99));
    assert_eq!(col.len(), 2, "atomic batch: the valid delete did not apply");

    // "double insert" of identical content is two distinct objects
    let a = col.insert(toks("twin doc")).unwrap();
    let b = col.insert(toks("twin doc")).unwrap();
    assert_ne!(a, b);
    assert_eq!(col.search(&toks("twin doc"), 3).unwrap().hits.len(), 2);

    // upsert replaces under a fresh id; the old id is dead
    let c = col.upsert(a, toks("twin doc revised")).unwrap();
    assert!(c > b);
    assert_eq!(col.delete(a), Err(DbError::UnknownId(a)));

    // delete-then-reinsert never resurrects the old id
    col.delete(b).unwrap();
    let d = col.insert(toks("twin doc")).unwrap();
    assert!(d > c);

    // compaction of an empty delta is a no-op that reports `false`
    assert!(col.compact().unwrap(), "there is debt to fold");
    assert!(!col.compact().unwrap(), "nothing left to fold");

    // k far beyond the surviving corpus: every survivor, no ghosts
    let all = col.search(&toks("beta twin doc"), 50).unwrap();
    assert!(all.hits.len() <= col.len());
    assert!(all.hits.iter().all(|h| h.id != a && h.id != b));
}

/// The mounted delta shard is one more scheduler run per wave: an
/// S-shard collection fans a wave out to S runs while frozen, S + 1
/// from the first insert on, and S again once compaction folds the debt.
#[test]
fn delta_shard_adds_one_scheduler_run_per_wave() {
    const SHARDS: u64 = 3;
    let toks = |i: u32| vec![format!("w{}", i % 7), "common".to_string()];
    let db = db();
    let docs = (0..30).map(toks).collect();
    let col = db
        .create_collection_sharded::<DocumentIndex>("debt", (), docs, SHARDS as usize)
        .unwrap();
    // one awaited search = one wave, answered by its shard runs; a
    // fresh query each time
    let mut fresh = 0;
    let mut runs_of_one_wave = || {
        let before = db.stats().shard_runs;
        fresh += 1;
        col.search(&toks(fresh), 5).unwrap();
        db.stats().shard_runs - before
    };
    assert_eq!(runs_of_one_wave(), SHARDS, "frozen: base shards only");
    col.insert(toks(100)).unwrap();
    assert_eq!(runs_of_one_wave(), SHARDS + 1, "the delta shard is mounted");
    assert!(col.compact().unwrap());
    assert_eq!(runs_of_one_wave(), SHARDS, "debt folded: base shards only");
}

/// Background compaction: with a small `compact_after`, mutation debt
/// is folded without any explicit `compact` call, and answers never
/// change while it happens.
#[test]
fn background_compaction_folds_debt_automatically() {
    let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let db = GenieDb::open(
        vec![Arc::new(CpuBackend::new())],
        Default::default(),
        ServiceConfig {
            compact_after: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let col = db
        .create_collection::<DocumentIndex>("auto", (), vec![toks("seed doc")])
        .unwrap();
    for i in 0..4 {
        col.insert(toks(&format!("doc number {i}"))).unwrap();
    }
    // The compactor is only guaranteed to fold the debt that existed
    // when its trigger fired: if it runs between the 3rd and 4th
    // insert, one insert legitimately stays in the delta (debt 1 <
    // compact_after) — so wait for the debt to drop BELOW the trigger
    // threshold, not for zero.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let status = col.mutation_status();
        if status.delta < 3 && status.tombstones == 0 && db.stats().compactions >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background compactor never folded the debt: {status:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(db.stats().compactions >= 1);
    assert_eq!(col.len(), 5);
    assert_eq!(col.search(&toks("doc number 2"), 1).unwrap().hits[0].id, 3);
}

/// Compaction racing live searches and further mutations: every
/// concurrently-served answer respects the ordering contract and the
/// final state equals a from-scratch rebuild.
#[test]
fn compaction_races_searches_and_mutations() {
    let toks = |i: u32| {
        vec![
            format!("w{}", i % 7),
            format!("w{}", i % 5),
            "common".into(),
        ]
    };
    let db = db();
    let col = db
        .create_collection_sharded::<DocumentIndex>("raced", (), (0..32).map(toks).collect(), 3)
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let searchers: Vec<_> = (0..2)
        .map(|t| {
            let col = col.clone();
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                let mut rounds = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let spec = vec![format!("w{}", (rounds + t) % 7), "common".to_string()];
                    let out = col.search(&spec, 5).expect("searches serve throughout");
                    for w in out.hits.windows(2) {
                        assert!(
                            w[0].count > w[1].count
                                || (w[0].count == w[1].count && w[0].id < w[1].id),
                            "ordering contract violated mid-compaction: {w:?}"
                        );
                    }
                    rounds += 1;
                    served.fetch_add(1, Ordering::Relaxed);
                }
                rounds
            })
        })
        .collect();

    let mut model = Model::new(&(0..32).map(toks).collect::<Vec<_>>());
    for round in 0u32..12 {
        let deletes = model.pick_deletes(&[round as usize * 3]);
        let items = vec![toks(100 + round)];
        let ids = col.mutate(&deletes, items.clone()).expect("batch applies");
        model.record_inserts(&ids, &items);
        if round % 3 == 2 {
            col.compact().expect("compaction runs");
        }
    }
    // keep mutated state live until the searchers have demonstrably
    // run against it, then shut them down
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while served.load(Ordering::Relaxed) < 20 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let total: u32 = searchers
        .into_iter()
        .map(|s| s.join().expect("searcher clean"))
        .sum();
    assert!(total >= 20, "searchers barely ran: {total}");

    let fresh = db
        .create_collection::<DocumentIndex>("fresh", (), model.live_items())
        .unwrap();
    let specs: Vec<Vec<String>> = (0..7)
        .map(|i| vec![format!("w{i}"), "common".into()])
        .collect();
    assert_rebuild_equivalent(&col, &fresh, &model.live_ids(), &specs, &[1, 4, 40]);
}

/// A [`CpuBackend`] whose `upload` fails, or parks until released, on
/// cue — the fault a compaction's staging must survive.
struct CueBackend {
    inner: CpuBackend,
    /// Fail the next upload (one-shot).
    fail_next: AtomicBool,
    /// The next upload reports in on the sender, then parks on the
    /// receiver until the test releases it (one-shot).
    park_next: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl SearchBackend for CueBackend {
    fn capabilities(&self) -> BackendCaps {
        self.inner.capabilities()
    }
    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        if self.fail_next.swap(false, Ordering::SeqCst) {
            return Err("upload refused on cue".into());
        }
        let parked = self.park_next.lock().unwrap().take();
        if let Some((reached, resume)) = parked {
            reached.send(()).unwrap();
            resume.recv().unwrap();
        }
        self.inner.upload(index)
    }
    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        self.inner.search_batch(index, queries, k)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Regression: a compaction whose residual-delta upload failed used to
/// return `Err` with the plan already compacted and the epoch already
/// advanced, under shards that were never installed. A failed
/// compaction — refused while uploading the rebuilt base, or while
/// uploading the delta an insert racing the rebuild left behind — must
/// leave status and answers exactly as they were, and the next
/// compaction must run as if the failed ones never had.
#[test]
fn failed_compaction_leaves_the_collection_untouched() {
    let backend = Arc::new(CueBackend {
        inner: CpuBackend::new(),
        fail_next: AtomicBool::new(false),
        park_next: Mutex::new(None),
    });
    let service = GenieService::start_empty(
        QueryScheduler::single(Arc::clone(&backend) as Arc<dyn SearchBackend>),
        ServiceConfig {
            compact_after: 0, // only explicit compactions
            max_queue_delay: std::time::Duration::from_micros(200),
            ..Default::default()
        },
    )
    .unwrap();
    let mut builder = IndexBuilder::new();
    for i in 0..20u32 {
        builder.add_object(&Object::new(vec![i % 4, 10 + i % 3]));
    }
    let cid = service
        .add_collection("cued", &Arc::new(builder.build(None)))
        .unwrap();
    let mutate = |deletes: &[ObjectId], insert: Object| {
        service
            .mutate_collection(cid, deletes, vec![insert], &mut |_, _| {})
            .expect("batch applies")
    };
    let answer = || {
        let resp = service
            .submit_to(cid, Query::from_keywords(&[1, 11]), 6)
            .wait()
            .expect("search serves");
        (resp.hits, resp.audit_threshold)
    };
    let status = || service.mutation_status(cid).unwrap();
    let refused = |outcome: Result<bool, ServiceError>| {
        assert!(
            matches!(outcome, Err(ServiceError::Internal(_))),
            "a refused upload must fail the compaction: {outcome:?}"
        );
    };
    mutate(&[1], Object::new(vec![1, 11]));
    let (status_before, answer_before) = (status(), answer());
    assert_eq!((status_before.delta, status_before.tombstones), (1, 1));

    // the rebuilt base is refused
    backend.fail_next.store(true, Ordering::SeqCst);
    refused(service.compact_collection(cid));
    assert_eq!(status(), status_before);
    assert_eq!(answer(), answer_before);

    // an insert lands while the compactor uploads its rebuilt base
    // off-lock; the residual delta it leaves behind is then refused
    let (reached_tx, reached_rx) = channel();
    let (resume_tx, resume_rx) = channel();
    *backend.park_next.lock().unwrap() = Some((reached_tx, resume_rx));
    let (status_raced, answer_raced) = std::thread::scope(|scope| {
        let compaction = scope.spawn(|| service.compact_collection(cid));
        reached_rx.recv().unwrap();
        mutate(&[], Object::new(vec![1, 11, 3]));
        let raced = (status(), answer());
        backend.fail_next.store(true, Ordering::SeqCst);
        resume_tx.send(()).unwrap();
        refused(compaction.join().unwrap());
        raced
    });
    assert_eq!(status_raced.delta, 2);
    assert_eq!(status(), status_raced, "nothing may be half-applied");
    assert_eq!(answer(), answer_raced);
    assert_eq!(service.stats().compactions, 0);

    // the next compaction folds everything, answers unchanged
    assert_eq!(service.compact_collection(cid), Ok(true));
    let folded = status();
    assert_eq!((folded.delta, folded.tombstones), (0, 0));
    assert_eq!((folded.live, folded.next_id), (21, 22));
    assert_eq!(answer(), answer_raced);
    assert_eq!(service.stats().compactions, 1);
}

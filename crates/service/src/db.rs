//! The typed facade: one `GenieDb` over every match-count domain.
//!
//! The paper's genericity claim, as an API: a [`GenieDb`] owns one
//! backend fleet and one always-on [`GenieService`]; each
//! [`create_collection`](GenieDb::create_collection) indexes a typed
//! data set under any [`Domain`] implementation and returns a
//! [`Collection<D>`] handle whose [`search`](Collection::search) /
//! [`submit`](Collection::submit) speak the domain's own types —
//! documents, rows, sequences, trees, graphs, points — while every
//! query, regardless of domain, is admitted, micro-batched and
//! dispatched by the *same* scheduler/service stack. No caller
//! assembles a raw [`Query`](genie_core::model::Query) or touches a
//! backend handle.
//!
//! ```text
//! Collection<DocumentIndex>   Collection<SequenceIndex>   Collection<AnnIndex<_>> ...
//!        │ encode/decode              │ encode/verify             │ encode/decode
//!        └──────────────┬─────────────┴───────────┬───────────────┘
//!                       ▼                         ▼
//!                 GenieDb ──────────────► GenieService (shared admission,
//!                                          per-collection swap)
//! ```

use std::sync::{Arc, RwLock};

use genie_core::backend::SearchBackend;
use genie_core::domain::Domain;
use genie_core::model::{ObjectId, QueryBuildError};
use genie_core::shard::ShardError;

use crate::service::{
    BackendHealth, CollectionId, GenieService, MutationStatus, ResponseTicket, ServiceConfig,
    ServiceError, ServiceStats,
};
use crate::{QueryScheduler, SchedulerConfig};

/// Why a [`GenieDb`] / [`Collection`] operation failed: typed searches,
/// opening the database, creating collections, reindexing, and live
/// mutations all fail with this one type.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// An item or query spec failed the domain's typed validation;
    /// nothing was indexed, mutated or submitted.
    Build(QueryBuildError),
    /// [`GenieDb::open`] was given an empty backend fleet.
    NoBackends,
    /// A degenerate shard count was requested (zero shards).
    InvalidShards(ShardError),
    /// A delete named an id that is not live in the collection (it
    /// never existed, or was already deleted). The whole batch was
    /// rejected — mutations are atomic.
    UnknownId(ObjectId),
    /// [`GenieDb::open_at`] could not recover the on-disk state: a
    /// typed [`genie_store::RecoverError`], flattened to its message.
    /// Nothing was registered — the caller decides between fsck,
    /// restore-from-backup, and starting fresh.
    Recover(String),
    /// The durability layer could not journal or checkpoint. The
    /// operation was **not** applied (write-ahead discipline).
    Persist(String),
    /// The serving layer failed (backend preparation, wave failure,
    /// shutdown, unknown collection).
    Service(ServiceError),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Build(e) => write!(f, "build error: {e}"),
            Self::NoBackends => f.write_str("GenieDb needs at least one backend"),
            Self::InvalidShards(e) => write!(f, "invalid shard count: {e}"),
            Self::UnknownId(id) => {
                write!(
                    f,
                    "cannot delete object {id}: not a live id of this collection"
                )
            }
            Self::Recover(e) => write!(f, "recovery failed: {e}"),
            Self::Persist(e) => write!(f, "persistence failure: {e}"),
            Self::Service(e) => write!(f, "service error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<QueryBuildError> for DbError {
    fn from(e: QueryBuildError) -> Self {
        Self::Build(e)
    }
}

impl From<ShardError> for DbError {
    fn from(e: ShardError) -> Self {
        Self::InvalidShards(e)
    }
}

impl From<ServiceError> for DbError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::UnknownId(id) => Self::UnknownId(id),
            e => Self::Service(e),
        }
    }
}

/// The unified typed entry point: one backend fleet, one admission
/// service, any number of typed collections — every domain the paper
/// claims, behind one audited surface.
///
/// ```
/// use std::sync::Arc;
/// use genie_core::backend::CpuBackend;
/// use genie_sa::DocumentIndex;
/// use genie_service::GenieDb;
///
/// let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
/// let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
/// let docs = db
///     .create_collection::<DocumentIndex>(
///         "tweets",
///         (),
///         vec![toks("gpu similarity search"), toks("inverted index framework")],
///     )
///     .unwrap();
/// let found = docs.search(&toks("generic inverted index"), 1).unwrap();
/// assert_eq!(found.hits[0].id, 1, "doc 1 shares two words");
/// assert_eq!(found.hits[0].count, 2);
/// ```
pub struct GenieDb {
    service: Arc<GenieService>,
    backends: Vec<Arc<dyn SearchBackend>>,
    /// What [`open_at`](Self::open_at) recovered (`None` for the
    /// in-memory constructors).
    recovery: Option<genie_store::RecoveryReport>,
}

impl std::fmt::Debug for GenieDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenieDb")
            .field("backends", &self.backends.len())
            .field("recovery", &self.recovery)
            .field("service", &self.service)
            .finish()
    }
}

impl GenieDb {
    /// Open a database over `backends` with explicit batching/serving
    /// knobs. The fleet is shared by every collection.
    pub fn open(
        backends: Vec<Arc<dyn SearchBackend>>,
        scheduler: SchedulerConfig,
        service: ServiceConfig,
    ) -> Result<Self, DbError> {
        if backends.is_empty() {
            return Err(DbError::NoBackends);
        }
        let sched = QueryScheduler::new(backends.clone(), scheduler);
        let service = GenieService::start_empty(sched, service)?;
        Ok(Self {
            service: Arc::new(service),
            backends,
            recovery: None,
        })
    }

    /// Single-backend database with default knobs.
    pub fn single(backend: Arc<dyn SearchBackend>) -> Result<Self, DbError> {
        Self::open(
            vec![backend],
            SchedulerConfig::default(),
            ServiceConfig::default(),
        )
    }

    /// Open a **durable** database rooted at `path`: recover whatever a
    /// previous process persisted there (snapshots + journal replay,
    /// re-registered under their original collection ids), then journal
    /// every collection lifecycle and mutation event from here on.
    /// A fresh/empty directory is a valid empty database; damaged state
    /// is a typed [`DbError::Recover`] — never a panic, never partial
    /// registration. See [`genie_store`] for the format and crash
    /// guarantees, and [`recovery`](Self::recovery) for what was found.
    ///
    /// Recovered collections come back at the raw match-count level
    /// (the journal stores encoded objects, not domain items), so they
    /// are served via [`service`](Self::service) by id/name; typed
    /// [`Collection`] handles exist for collections created through
    /// *this* facade instance, whose in-memory domain adapters do the
    /// encoding. Front-ends that need typed answers across restarts
    /// re-create their adapters (e.g. the server re-indexes its corpus
    /// configuration) — answers are identical either way.
    pub fn open_at(
        path: impl AsRef<std::path::Path>,
        backends: Vec<Arc<dyn SearchBackend>>,
        scheduler: SchedulerConfig,
        service: ServiceConfig,
    ) -> Result<Self, DbError> {
        Self::open_at_vfs(
            Arc::new(genie_store::DiskVfs),
            path,
            backends,
            scheduler,
            service,
        )
    }

    /// [`open_at`](Self::open_at) over an explicit [`genie_store::Vfs`]
    /// — what the crash-recovery property tests run against (in-memory
    /// and fault-injecting filesystems).
    pub fn open_at_vfs(
        vfs: Arc<dyn genie_store::Vfs>,
        path: impl AsRef<std::path::Path>,
        backends: Vec<Arc<dyn SearchBackend>>,
        scheduler: SchedulerConfig,
        service: ServiceConfig,
    ) -> Result<Self, DbError> {
        let mut db = Self::open(backends, scheduler, service)?;
        let recovered = genie_store::DurableStore::open(vfs, path)
            .map_err(|e| DbError::Recover(e.to_string()))?;
        db.service.restore_collections(recovered.collections)?;
        db.service.attach_store(Arc::new(recovered.store));
        db.recovery = Some(recovered.report);
        Ok(db)
    }

    /// What [`open_at`](Self::open_at) recovered; `None` for purely
    /// in-memory databases.
    pub fn recovery(&self) -> Option<&genie_store::RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Snapshot every collection into the durable store and prune
    /// superseded journal generations (also runs automatically after
    /// background compactions). `Ok(None)` when the database is not
    /// durable.
    pub fn checkpoint(&self) -> Result<Option<u64>, DbError> {
        self.service.checkpoint().map_err(|e| match e {
            ServiceError::Persist(msg) => DbError::Persist(msg),
            other => DbError::Service(other),
        })
    }

    /// Index `items` under domain `D` and register the result as a new
    /// collection; all of its queries route through this database's
    /// shared service.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use genie_core::backend::CpuBackend;
    /// use genie_sa::relational::{Attribute, Condition, RelationalIndex, RelationalSchema, Value};
    /// use genie_service::GenieDb;
    ///
    /// let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
    /// let schema = RelationalSchema {
    ///     attrs: vec![
    ///         Attribute::Categorical { cardinality: 4 },
    ///         Attribute::Numeric { min: 0.0, max: 10.0, buckets: 16 },
    ///     ],
    ///     load_balance: None,
    /// };
    /// let rows = vec![
    ///     vec![Value::Cat(1), Value::Num(2.0)],
    ///     vec![Value::Cat(2), Value::Num(9.0)],
    /// ];
    /// let table = db
    ///     .create_collection::<RelationalIndex>("rows", schema, rows)
    ///     .unwrap();
    /// let top = table
    ///     .search(
    ///         &vec![
    ///             Condition::CatEq { attr: 0, value: 2 },
    ///             Condition::NumRange { attr: 1, lo: 5.0, hi: 10.0 },
    ///         ],
    ///         1,
    ///     )
    ///     .unwrap();
    /// assert_eq!(top.hits[0].id, 1, "row 1 satisfies both conditions");
    /// assert_eq!(top.hits[0].count, 2);
    /// // malformed specs are typed errors, not panics:
    /// assert!(table.search(&vec![Condition::CatEq { attr: 0, value: 99 }], 1).is_err());
    /// ```
    pub fn create_collection<D: Domain>(
        &self,
        name: &str,
        config: D::Config,
        items: Vec<D::Item>,
    ) -> Result<Collection<D>, DbError> {
        self.create_collection_sharded(name, config, items, 1)
    }

    /// [`create_collection`](Self::create_collection) with the indexed
    /// data set split across `shards` self-contained index shards.
    /// `shards == 0` is a typed [`DbError::InvalidShards`]; a count
    /// larger than the number of objects is **clamped** to it (every
    /// shard then holds exactly one object — documented, not an error,
    /// because the corpus may legitimately be smaller than the
    /// configured fan-out); `1` is the unsharded path. Queries are
    /// unchanged for callers: every wave fans out to one scheduler run
    /// per shard and the per-shard top-k lists are merged into the
    /// global answer with the Theorem 3.1 certificate on the merged
    /// list (see [`genie_core::shard`]). [`Collection::reindex`] keeps
    /// the shard count.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use genie_core::backend::CpuBackend;
    /// use genie_sa::DocumentIndex;
    /// use genie_service::GenieDb;
    ///
    /// let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    /// let docs: Vec<Vec<String>> = (0..64)
    ///     .map(|i| toks(&format!("doc number {} of shard demo corpus", i % 7)))
    ///     .collect();
    /// let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
    /// let sharded = db
    ///     .create_collection_sharded::<DocumentIndex>("docs", (), docs.clone(), 4)
    ///     .unwrap();
    /// assert_eq!(sharded.shard_count(), 4);
    /// let found = sharded.search(&toks("shard demo corpus"), 3).unwrap();
    /// assert_eq!(found.hits.len(), 3);
    /// assert_eq!(found.hits[0].count, 3, "all three words shared");
    /// ```
    pub fn create_collection_sharded<D: Domain>(
        &self,
        name: &str,
        config: D::Config,
        items: Vec<D::Item>,
        shards: usize,
    ) -> Result<Collection<D>, DbError> {
        if shards == 0 {
            return Err(DbError::InvalidShards(ShardError::ZeroShards));
        }
        let domain = D::create(config, items);
        let id = self
            .service
            .add_collection_sharded(name, domain.index(), shards)?;
        Ok(Collection {
            inner: Arc::new(CollectionInner {
                name: name.to_owned(),
                id,
                domain: RwLock::new(Arc::new(domain)),
                service: Arc::clone(&self.service),
            }),
        })
    }

    /// The shared admission service underneath (counters, raw submits).
    pub fn service(&self) -> &GenieService {
        &self.service
    }

    /// An owning handle on the shared service, for front-ends that
    /// outlive this facade value (e.g. a network server's connection
    /// threads). The service shuts down when the last handle drops.
    pub fn service_handle(&self) -> Arc<GenieService> {
        Arc::clone(&self.service)
    }

    /// The backend fleet, in scheduler order.
    pub fn backends(&self) -> &[Arc<dyn SearchBackend>] {
        &self.backends
    }

    /// Snapshot of the shared service's counters.
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Per-backend lifetime usage/failure counts of the shared fleet.
    pub fn backend_health(&self) -> Vec<BackendHealth> {
        self.service.backend_health()
    }
}

struct CollectionInner<D: Domain> {
    name: String,
    id: CollectionId,
    /// The domain adapter (vocabularies, schemas, transformers). The
    /// slot is swapped whole by [`Collection::reindex`]; readers clone
    /// the `Arc` so encode and decode of one request always use the
    /// same adapter.
    domain: RwLock<Arc<D>>,
    service: Arc<GenieService>,
}

/// A typed handle on one indexed data set inside a [`GenieDb`].
///
/// Cloning is cheap (the clones share state). All query traffic —
/// blocking [`search`](Self::search), async [`submit`](Self::submit),
/// the adaptive loop ([`search_adaptive`](Self::search_adaptive)) —
/// routes through the database's shared [`GenieService`].
///
/// ```
/// use std::sync::Arc;
/// use genie_core::backend::CpuBackend;
/// use genie_sa::tree::{Tree, TreeIndex};
/// use genie_service::GenieDb;
///
/// let mut t1 = Tree::leaf(1);
/// t1.add_child(0, 2);
/// let mut t2 = Tree::leaf(1);
/// t2.add_child(0, 3);
/// let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
/// let forest = db
///     .create_collection::<TreeIndex>("forest", (), vec![t1.clone(), t2])
///     .unwrap();
/// let hits = forest.search(&t1, 2).unwrap();
/// assert_eq!(hits[0].id, 0);
/// assert_eq!(hits[0].distance, 0, "exact tree found at distance 0");
/// ```
pub struct Collection<D: Domain> {
    inner: Arc<CollectionInner<D>>,
}

impl<D: Domain> Clone for Collection<D> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<D: Domain> std::fmt::Debug for Collection<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.inner.name)
            .field("id", &self.inner.id)
            .field("domain", &D::name())
            .finish()
    }
}

impl<D: Domain> Collection<D> {
    /// The name the collection was created under.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The service-level collection id.
    pub fn id(&self) -> CollectionId {
        self.inner.id
    }

    /// Index shards this collection is served from (1 = unsharded).
    pub fn shard_count(&self) -> usize {
        self.inner
            .service
            .collection_shards(self.inner.id)
            .unwrap_or(1)
    }

    /// The current domain adapter (encoding state + frozen index).
    pub fn domain(&self) -> Arc<D> {
        Arc::clone(&self.inner.domain.read().expect("domain lock"))
    }

    /// Number of currently-live objects: base + delta minus tombstones
    /// for a mutated collection, the indexed count otherwise.
    pub fn len(&self) -> usize {
        self.inner
            .service
            .collection_len(self.inner.id)
            .unwrap_or_else(|| self.domain().index().num_objects() as usize)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Typed blocking search: encode the spec, route it through the
    /// shared service (admission queue, micro-batching), decode
    /// the hits. The candidate count is the domain's
    /// [`candidates_for`](Domain::candidates_for).
    pub fn search(&self, spec: &D::QuerySpec, k: usize) -> Result<D::Response, DbError> {
        let domain = self.domain();
        let kc = domain.candidates_for(k);
        self.search_on(&domain, spec, kc, k)
    }

    /// [`search`](Self::search) with an explicit candidate count
    /// (filter-and-verify domains: the paper's K).
    pub fn search_with_candidates(
        &self,
        spec: &D::QuerySpec,
        k_candidates: usize,
        k: usize,
    ) -> Result<D::Response, DbError> {
        self.search_on(&self.domain(), spec, k_candidates, k)
    }

    fn search_on(
        &self,
        domain: &Arc<D>,
        spec: &D::QuerySpec,
        k_candidates: usize,
        k: usize,
    ) -> Result<D::Response, DbError> {
        let query = domain.encode(spec)?;
        let response = self
            .inner
            .service
            .submit_to(self.inner.id, query, k_candidates)
            .wait()?;
        Ok(domain.decode(
            spec,
            response.hits,
            response.audit_threshold,
            k_candidates,
            k,
        ))
    }

    /// The paper's multi-round retrieval strategy, domain-generically:
    /// run the schedule of candidate counts in turn, returning the
    /// first response the domain certifies exact
    /// ([`Domain::is_exact`]), or the last round's response. Domains
    /// whose answers are always exact return after one round.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use genie_core::backend::CpuBackend;
    /// use genie_sa::SequenceIndex;
    /// use genie_service::GenieDb;
    ///
    /// let titles: Vec<Vec<u8>> = ["genie on gpu", "genie on cpu", "inverted index"]
    ///     .iter()
    ///     .map(|s| s.as_bytes().to_vec())
    ///     .collect();
    /// let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
    /// let seqs = db
    ///     .create_collection::<SequenceIndex>("titles", 3, titles)
    ///     .unwrap();
    /// let report = seqs
    ///     .search_adaptive(&b"genie on gpy".to_vec(), &[2, 4, 8], 1)
    ///     .unwrap();
    /// assert_eq!(report.hits[0].id, 0);
    /// assert_eq!(report.hits[0].distance, 1, "one substitution away");
    /// ```
    pub fn search_adaptive(
        &self,
        spec: &D::QuerySpec,
        schedule: &[usize],
        k: usize,
    ) -> Result<D::Response, DbError> {
        assert!(!schedule.is_empty(), "schedule must name at least one K");
        let domain = self.domain();
        let mut last = None;
        for &kc in schedule {
            let response = self.search_on(&domain, spec, kc, k)?;
            if D::is_exact(&response) {
                return Ok(response);
            }
            last = Some(response);
        }
        Ok(last.expect("schedule is non-empty"))
    }

    /// Asynchronous typed submit: encodes now (typed validation error
    /// before anything is queued), returns a [`TypedTicket`] that
    /// decodes on resolution.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use genie_core::backend::CpuBackend;
    /// use genie_lsh::e2lsh::E2Lsh;
    /// use genie_lsh::{AnnIndex, Transformer};
    /// use genie_service::GenieDb;
    ///
    /// let points: Vec<Vec<f32>> = (0..32)
    ///     .map(|i| vec![i as f32, (i % 4) as f32])
    ///     .collect();
    /// let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
    /// let ann = db
    ///     .create_collection::<AnnIndex<E2Lsh>>(
    ///         "points",
    ///         Transformer::new(E2Lsh::new(16, 2, 4.0, 7), 256),
    ///         points.clone(),
    ///     )
    ///     .unwrap();
    /// let ticket = ann.submit(points[5].clone(), 1).unwrap();
    /// let nn = ticket.wait().unwrap();
    /// assert_eq!(nn.hits[0].id, 5, "a point collides with itself on every function");
    /// ```
    pub fn submit(&self, spec: D::QuerySpec, k: usize) -> Result<TypedTicket<D>, QueryBuildError> {
        let domain = self.domain();
        let k_candidates = domain.candidates_for(k);
        let query = domain.encode(&spec)?;
        let ticket = self
            .inner
            .service
            .submit_to(self.inner.id, query, k_candidates);
        Ok(TypedTicket {
            ticket,
            domain,
            spec,
            k_candidates,
            k,
        })
    }

    /// Rebuild the collection over new items and swap the new index in.
    /// Sibling collections are untouched. Returns the simulated upload
    /// time.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use genie_core::backend::CpuBackend;
    /// use genie_sa::graph::{Graph, GraphIndex};
    /// use genie_service::GenieDb;
    ///
    /// let mut g = Graph::new();
    /// let a = g.add_node(1);
    /// let b = g.add_node(2);
    /// g.add_edge(a, b);
    /// let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
    /// let graphs = db
    ///     .create_collection::<GraphIndex>("graphs", (), vec![g.clone()])
    ///     .unwrap();
    /// assert_eq!(graphs.search(&g, 1).unwrap()[0].distance, 0);
    /// // re-index with an extra graph: same handle, fresh index
    /// let mut h = g.clone();
    /// let c = h.add_node(3);
    /// h.add_edge(0, c);
    /// graphs.reindex((), vec![g.clone(), h.clone()]).unwrap();
    /// assert_eq!(graphs.len(), 2);
    /// assert_eq!(graphs.search(&h, 1).unwrap()[0].id, 1);
    /// ```
    pub fn reindex(&self, config: D::Config, items: Vec<D::Item>) -> Result<f64, DbError> {
        let domain = Arc::new(D::create(config, items));
        // The write lock spans the service swap so the visible adapter
        // and the served index switch together. Same in-flight
        // semantics as a raw `swap_collection` since PR 2: a request
        // encoded just before the swap may be answered under the new
        // index (its old-vocabulary query runs against the new data) —
        // a transiently stale answer for that caller only; later
        // callers encode with the new adapter.
        let mut slot = self.inner.domain.write().expect("domain lock");
        let upload_sim_us = self
            .inner
            .service
            .swap_collection(self.inner.id, domain.index())?;
        *slot = domain;
        Ok(upload_sim_us)
    }

    /// Apply one **atomic mutation batch**: tombstone every id in
    /// `deletes`, then append `inserts` to the collection's delta
    /// shard, returning the stable [`ObjectId`]s assigned to the
    /// inserts (insert order; never reused, surviving compaction).
    /// Items are decomposed ([`Domain::decompose`]) and validated
    /// up front — a malformed item or an unknown delete id is a typed
    /// error and **nothing** is applied.
    ///
    /// Searches issued after this returns see exactly what a
    /// from-scratch rebuild over the live items would return (ids,
    /// counts, `AT` — see [`genie_core::delta`]). Accumulated debt is
    /// folded into fresh base shards by background compaction
    /// ([`crate::ServiceConfig::compact_after`]) or an explicit
    /// [`compact`](Self::compact) — neither changes any answer.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use genie_core::backend::CpuBackend;
    /// use genie_sa::DocumentIndex;
    /// use genie_service::GenieDb;
    ///
    /// let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    /// let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
    /// let docs = db
    ///     .create_collection::<DocumentIndex>("live", (), vec![toks("old doc")])
    ///     .unwrap();
    /// let ids = docs.mutate(&[0], vec![toks("fresh gpu doc")]).unwrap();
    /// assert_eq!(ids, vec![1], "ids are stable and never reused");
    /// assert_eq!(docs.len(), 1);
    /// assert_eq!(docs.search(&toks("fresh doc"), 1).unwrap().hits[0].id, 1);
    /// assert!(docs.search(&toks("old"), 2).unwrap().hits.is_empty());
    /// ```
    pub fn mutate(
        &self,
        deletes: &[ObjectId],
        inserts: Vec<D::Item>,
    ) -> Result<Vec<ObjectId>, DbError> {
        // Hold the adapter read lock across the whole batch so a racing
        // reindex cannot swap the adapter between decompose and commit
        // (lock order adapter-then-entry, the same as `reindex`).
        let domain = self.inner.domain.read().expect("domain lock");
        let objects = inserts
            .iter()
            .map(|item| domain.decompose(item))
            .collect::<Result<Vec<_>, _>>()?;
        let mut items: Vec<Option<D::Item>> = inserts.into_iter().map(Some).collect();
        let ids = self.inner.service.mutate_collection(
            self.inner.id,
            deletes,
            objects,
            // fires after ids are final but before the serving swap, so
            // the store holds the item before any search can return it
            &mut |pos, id| {
                let item = items[pos].take().expect("each insert is assigned one id");
                domain.store_item(id, item);
            },
        )?;
        Ok(ids)
    }

    /// Insert one item; returns its stable id.
    pub fn insert(&self, item: D::Item) -> Result<ObjectId, DbError> {
        Ok(self.mutate(&[], vec![item])?[0])
    }

    /// Delete one live object by id. Deleting an id that is not live
    /// (never existed, or already deleted) is [`DbError::UnknownId`].
    pub fn delete(&self, id: ObjectId) -> Result<(), DbError> {
        self.mutate(&[id], Vec::new()).map(|_| ())
    }

    /// Replace the live object `id` with `item` in one atomic batch;
    /// returns the **new** id (ids are never reused, so a replacement
    /// is a fresh identity — delete-then-reinsert behaves the same).
    pub fn upsert(&self, id: ObjectId, item: D::Item) -> Result<ObjectId, DbError> {
        Ok(self.mutate(&[id], vec![item])?[0])
    }

    /// Fold the pending delta shard and tombstones into fresh base
    /// shards now (re-sharded at the configured count), instead of
    /// waiting for the background compactor. Searches and mutations
    /// proceed throughout; no answer changes. Returns whether a
    /// compaction was applied (`false`: nothing to fold, or the base
    /// moved underneath and the rebuild was discarded as stale).
    pub fn compact(&self) -> Result<bool, DbError> {
        Ok(self.inner.service.compact_collection(self.inner.id)?)
    }

    /// Live-mutation debt: delta size, tombstone count, base shards,
    /// next stable id. A never-mutated collection reports zero debt.
    pub fn mutation_status(&self) -> MutationStatus {
        self.inner
            .service
            .mutation_status(self.inner.id)
            .expect("collection is registered for the life of the handle")
    }
}

/// A claim on one typed submit's future response: resolves to the
/// domain's typed answer (decoded with the adapter that encoded it).
pub struct TypedTicket<D: Domain> {
    ticket: ResponseTicket,
    domain: Arc<D>,
    spec: D::QuerySpec,
    k_candidates: usize,
    k: usize,
}

impl<D: Domain> TypedTicket<D> {
    /// The client id assigned at admission.
    pub fn client_id(&self) -> u64 {
        self.ticket.client_id()
    }

    /// When the request was admitted (for client-side latency).
    pub fn submitted_at(&self) -> std::time::Instant {
        self.ticket.submitted_at()
    }

    /// The spec this ticket will answer.
    pub fn spec(&self) -> &D::QuerySpec {
        &self.spec
    }

    /// Block until the response arrives, then decode it.
    pub fn wait(self) -> Result<D::Response, DbError> {
        let response = self.ticket.wait()?;
        Ok(self.domain.decode(
            &self.spec,
            response.hits,
            response.audit_threshold,
            self.k_candidates,
            self.k,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_core::backend::CpuBackend;
    use genie_core::domain::MatchHits;
    use genie_core::index::{IndexBuilder, InvertedIndex};
    use genie_core::model::Query;
    use genie_core::topk::TopHit;

    /// Minimal in-crate domain so the facade is testable without the
    /// real domain crates (those are exercised in tests/facade_props).
    struct KeywordDomain {
        index: Arc<InvertedIndex>,
        universe: u32,
    }

    impl Domain for KeywordDomain {
        type Config = u32;
        type Item = Vec<u32>;
        type QuerySpec = Vec<u32>;
        type Response = MatchHits;

        fn name() -> &'static str {
            "keyword"
        }
        fn create(universe: u32, items: Vec<Vec<u32>>) -> Self {
            let mut b = IndexBuilder::new();
            for kws in &items {
                b.add_object(&kws.clone().into());
            }
            Self {
                index: Arc::new(b.build(None)),
                universe,
            }
        }
        fn index(&self) -> &Arc<InvertedIndex> {
            &self.index
        }
        fn encode(&self, spec: &Vec<u32>) -> Result<Query, QueryBuildError> {
            Query::try_from_keywords(spec, self.universe)
        }
        fn decompose(&self, item: &Vec<u32>) -> Result<genie_core::model::Object, QueryBuildError> {
            if let Some(&kw) = item.iter().find(|&&kw| kw >= self.universe) {
                return Err(QueryBuildError::KeywordOutOfRange {
                    keyword: kw,
                    universe: self.universe,
                });
            }
            Ok(item.clone().into())
        }
        fn decode(
            &self,
            _spec: &Vec<u32>,
            hits: Vec<TopHit>,
            audit_threshold: u32,
            _kc: usize,
            k: usize,
        ) -> MatchHits {
            let mut hits = hits;
            hits.truncate(k);
            MatchHits {
                hits,
                audit_threshold,
            }
        }
    }

    fn db() -> GenieDb {
        GenieDb::single(Arc::new(CpuBackend::new())).unwrap()
    }

    #[test]
    fn open_rejects_an_empty_fleet() {
        let err = GenieDb::open(vec![], SchedulerConfig::default(), ServiceConfig::default())
            .unwrap_err();
        assert_eq!(err, DbError::NoBackends);
        assert!(err.to_string().contains("backend"), "{err}");
    }

    #[test]
    fn zero_shards_is_a_typed_error_and_oversharding_clamps() {
        let db = db();
        let err = db
            .create_collection_sharded::<KeywordDomain>("z", 10, vec![vec![1]], 0)
            .unwrap_err();
        assert_eq!(
            err,
            DbError::InvalidShards(genie_core::shard::ShardError::ZeroShards)
        );
        // more shards than objects: documented clamp, not an error
        let col = db
            .create_collection_sharded::<KeywordDomain>("c", 10, vec![vec![1], vec![2]], 8)
            .unwrap();
        assert_eq!(col.shard_count(), 2);
        assert_eq!(col.search(&vec![2], 1).unwrap().hits[0].id, 1);
    }

    #[test]
    fn mutations_flow_through_the_typed_facade() {
        let db = db();
        let col = db
            .create_collection::<KeywordDomain>("kw", 100, vec![vec![1, 2], vec![2, 3]])
            .unwrap();
        let id = col.insert(vec![1, 2, 3]).unwrap();
        assert_eq!(id, 2);
        assert_eq!(col.len(), 3);
        assert_eq!(col.search(&vec![1, 2, 3], 1).unwrap().hits[0].id, 2);
        col.delete(0).unwrap();
        assert_eq!(col.len(), 2);
        assert_eq!(col.delete(0), Err(DbError::UnknownId(0)), "already deleted");
        // malformed insert: typed error, nothing applied
        let before = col.mutation_status();
        assert_eq!(
            col.insert(vec![999]),
            Err(DbError::Build(QueryBuildError::KeywordOutOfRange {
                keyword: 999,
                universe: 100
            }))
        );
        assert_eq!(col.mutation_status(), before);
        // upsert: old id dies, a fresh id is born
        let new_id = col.upsert(1, vec![7]).unwrap();
        assert_eq!(new_id, 3);
        assert_eq!(col.search(&vec![7], 1).unwrap().hits[0].id, 3);
        assert!(col.compact().unwrap());
        assert_eq!(col.mutation_status().tombstones, 0);
        assert_eq!(col.search(&vec![7], 1).unwrap().hits[0].id, 3);
    }

    #[test]
    fn typed_search_and_submit_agree() {
        let db = db();
        let col = db
            .create_collection::<KeywordDomain>("kw", 100, vec![vec![1, 2], vec![2, 3], vec![3]])
            .unwrap();
        assert_eq!(col.name(), "kw");
        assert_eq!(col.len(), 3);
        let blocking = col.search(&vec![2, 3], 2).unwrap();
        let ticket = col.submit(vec![2, 3], 2).unwrap();
        let async_answer = ticket.wait().unwrap();
        assert_eq!(blocking, async_answer);
        assert_eq!(blocking.hits[0], TopHit { id: 1, count: 2 });
    }

    #[test]
    fn build_errors_surface_before_admission() {
        let db = db();
        let col = db
            .create_collection::<KeywordDomain>("kw", 10, vec![vec![1]])
            .unwrap();
        let submitted_before = db.stats().submitted;
        assert_eq!(
            col.search(&vec![99], 1),
            Err(DbError::Build(QueryBuildError::KeywordOutOfRange {
                keyword: 99,
                universe: 10
            }))
        );
        assert!(col.submit(vec![], 1).is_err());
        assert_eq!(
            db.stats().submitted,
            submitted_before,
            "nothing was admitted for malformed specs"
        );
    }

    #[test]
    fn collections_share_one_service() {
        let db = db();
        let a = db
            .create_collection::<KeywordDomain>("a", 10, vec![vec![1]])
            .unwrap();
        let b = db
            .create_collection::<KeywordDomain>("b", 10, vec![vec![2], vec![2, 3]])
            .unwrap();
        assert_ne!(a.id(), b.id());
        let ra = a.search(&vec![1], 1).unwrap();
        let rb = b.search(&vec![2], 2).unwrap();
        assert_eq!(ra.hits.len(), 1);
        assert_eq!(rb.hits.len(), 2);
        assert_eq!(db.stats().served, 2, "both went through the one service");
        assert_eq!(db.service().collection_names().len(), 2);
    }

    #[test]
    fn reindex_swaps_data_under_the_same_handle() {
        let db = db();
        let col = db
            .create_collection::<KeywordDomain>("kw", 10, vec![vec![1]])
            .unwrap();
        assert_eq!(col.search(&vec![1], 1).unwrap().hits.len(), 1);
        col.reindex(10, vec![vec![2], vec![2]]).unwrap();
        assert_eq!(col.len(), 2);
        assert!(col.search(&vec![1], 1).unwrap().hits.is_empty());
        assert_eq!(col.search(&vec![2], 2).unwrap().hits.len(), 2);
    }
}

//! The always-on serving front-end: an admission queue over the
//! [`QueryScheduler`], serving any number of named *collections*.
//!
//! [`QueryScheduler::run_prepared`] serves one *pre-collected* wave
//! against one index; a real serving system instead sees requests
//! trickle in from many threads over time, against *many* indexed data
//! sets, and the paper's throughput premise (§III: one c-PQ batch of up
//! to 1024 queries per device pass) only pays off if those trickles are
//! accumulated into big batches. [`GenieService`] does exactly that:
//!
//! * **Collections** — each [`add_collection`](GenieService::add_collection)
//!   prepares one [`InvertedIndex`] on every backend and registers it
//!   under a [`CollectionId`]. Collections are swapped independently
//!   ([`swap_collection`](GenieService::swap_collection)): re-indexing
//!   one data set invalidates only *its* cache entries, never its
//!   neighbours'.
//! * **One shape** — every collection is served the same way from the
//!   moment it is registered: `S ≥ 1` self-contained base shards, each
//!   prepared on every backend (an unsharded collection is one
//!   identity shard;
//!   [`add_collection_sharded`](GenieService::add_collection_sharded)
//!   splits contiguously, [`add_collection_plan`](GenieService::add_collection_plan)
//!   takes an explicit [`ShardPlan`]), plus the pending inserts mounted
//!   as one more shard and a tombstone set — both empty until the
//!   first write. A wave's requests fan out to one scheduler run per
//!   shard (concurrently), and a merge stage recombines the per-shard
//!   `(count, id)` top-k into the global answer with the Theorem 3.1
//!   certificate computed on the *merged* list (`AT = MC_k + 1`) — see
//!   [`genie_core::shard`] for the merge invariants and
//!   [`genie_core::delta`] for the mutation model. Swapping a
//!   collection re-shards the new index at the same shard count, and
//!   cache invalidation stays per-collection.
//! * **Admission** — any thread calls
//!   [`submit_to`](GenieService::submit_to); the request lands in a
//!   queue and the caller gets a [`ResponseTicket`] it can block on
//!   ([`ResponseTicket::wait`]) or poll
//!   ([`wait_timeout(Duration::ZERO)`](ResponseTicket::wait_timeout)).
//!   A queued request is answered through a completion; a ticket is
//!   the completion that sends to its own channel, and
//!   [`submit_with`](GenieService::submit_with) takes the caller's.
//! * **Wave cutting** — background dispatcher threads cut the queue
//!   into a wave when either trigger fires:
//!   - **size trigger**: the queued requests are enough to fill a
//!     micro-batch — some `(collection, k)`-group reaches
//!     [`SchedulerConfig::max_batch_queries`](crate::SchedulerConfig::max_batch_queries),
//!     or the c-PQ memory budget — or, when
//!     [`SchedulerConfig::batch_cost_budget_us`](crate::SchedulerConfig::batch_cost_budget_us)
//!     is set, the predicted-scan-cost budget — closes a batch early
//!     (detected with the same cost-aware
//!     [`plan_batches_with_cost`] the scheduler executes, so a backlog
//!     of few-but-expensive dense queries cuts a wave as readily as
//!     many cheap ones);
//!   - **deadline trigger**: the *oldest* queued request has waited
//!     [`ServiceConfig::max_queue_delay`] — a lone request is never
//!     stranded longer than the configured delay.
//! * **Execution** — the wave is split by collection and each group
//!   fans out over its collection's prepared shards.
//! * **Result cache** — answers are memoised by
//!   `(collection, query, k)`; a repeated query short-circuits
//!   admission entirely and returns bit-identical hits. Swapping a
//!   collection's index invalidates exactly that collection's entries.
//! * **Backend health & circuit breaking** — per-backend usage and
//!   failure counts accumulate across waves for the service's lifetime
//!   ([`backend_health`](GenieService::backend_health)). A backend
//!   reported [`failed`](crate::BackendUsage::failed) in
//!   [`ServiceConfig::failure_threshold`] scheduler runs since its last
//!   (re-)admission is **retired**: masked out of every subsequent run
//!   instead of being handed batches it will drop. Every
//!   [`ServiceConfig::probe_after_runs`] runs, a retired backend gets
//!   one re-admission probe — it rejoins the fleet for that run, comes
//!   back for good if it reports no failure, and goes straight back to
//!   retirement if it fails again (one probe per backend in flight at
//!   a time). Whenever no non-retired backend is available for a run,
//!   the service fails open (serves with every backend) rather than
//!   stranding tickets or letting a lone probe's failure reach
//!   clients.
//!
//! Shutdown is graceful: dropping the service flushes every queued
//! request through one final wave before the dispatchers exit, so no
//! ticket is ever left dangling.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use genie_core::delta::DeltaPlan;
use genie_core::index::{InvertedIndex, LoadBalanceConfig};
use genie_core::model::{Object, ObjectId, Query};
use genie_core::placement::PlacementPlan;
use genie_core::shard::{merge_shard_topk_filtered, Shard, ShardError, ShardPlan};
use genie_core::topk::TopHit;
use genie_store::{
    CollectionState, DurableStore, JournalEvent, PlacementSpec, RecoveredCollection,
};

use crate::{
    plan_batches_with_cost, Batch, PreparedIndex, QueryRequest, QueryResponse, QueryScheduler,
    ScheduleReport, StageProfile,
};

/// Identifier of one registered collection (assigned by
/// [`GenieService::add_collection`] in registration order).
pub type CollectionId = u64;

/// Knobs of the serving loop (batching policy itself lives in the
/// wrapped scheduler's [`SchedulerConfig`](crate::SchedulerConfig)).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Longest the oldest queued request may wait before a wave is cut
    /// regardless of batch occupancy (the deadline trigger).
    ///
    /// **Zero means "cut immediately"**: a wave is cut as soon as the
    /// queue is non-empty, so no request ever waits for company.
    /// Requests that arrive together (or while a wave is executing)
    /// still share a wave and its micro-batches — only *waiting* for
    /// batching is disabled, and the dispatcher still parks on the
    /// queue condvar when idle (no busy spin).
    pub max_queue_delay: Duration,
    /// Background dispatcher threads cutting and serving waves. One is
    /// enough for most fleets (a wave already fans out across all
    /// backends); more overlap wave planning with execution.
    pub dispatchers: usize,
    /// Entries the `(collection, query, k)` result cache holds (FIFO
    /// eviction); 0 disables caching.
    pub cache_capacity: usize,
    /// Circuit breaker: retire a backend once it has been reported
    /// `failed` in this many scheduler runs since its last
    /// (re-)admission. 0 disables retirement (failures are still
    /// counted in [`backend_health`](GenieService::backend_health)).
    pub failure_threshold: u64,
    /// Scheduler runs a retired backend sits out before it is granted
    /// one re-admission probe run (a probe that fails re-retires it on
    /// the spot; a probe with no failure re-admits it).
    pub probe_after_runs: u64,
    /// Mutation debt — pending delta inserts plus tombstones — at which
    /// a mutation batch schedules a **background compaction** of its
    /// collection (folding delta + tombstones into fresh base shards
    /// behind the serving swap; see
    /// [`mutate_collection`](GenieService::mutate_collection)). 0
    /// disables automatic compaction; explicit
    /// [`compact_collection`](GenieService::compact_collection) calls
    /// still work.
    pub compact_after: usize,
    /// Hot-shard detector: a base shard of a sharded collection is
    /// **hot** when its share of the base shards' postings scanned
    /// across the observation window exceeds this fraction (postings
    /// are the device-independent cost signal — see
    /// [`genie_core::placement`] for the heuristic). A hot shard queues
    /// a background rebalance of its collection.
    pub skew_threshold: f64,
    /// Group runs per sliding observation window; detection fires only
    /// on a full window. 0 disables hot-shard detection and automatic
    /// rebalancing (explicit
    /// [`rebalance_collection`](GenieService::rebalance_collection)
    /// calls still work).
    pub rebalance_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_queue_delay: Duration::from_millis(5),
            dispatchers: 1,
            cache_capacity: 1024,
            failure_threshold: 3,
            probe_after_runs: 8,
            compact_after: 1024,
            skew_threshold: 0.6,
            rebalance_window: 32,
        }
    }
}

/// Why a wave was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Queued requests could fill a micro-batch.
    Size,
    /// The oldest queued request aged past `max_queue_delay`.
    Deadline,
    /// Service shutdown flushed the remaining queue.
    Shutdown,
}

/// Aggregate serving counters, readable at any time via
/// [`GenieService::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests admitted through `submit_to`/`submit_with`.
    pub submitted: u64,
    /// Requests answered successfully (scheduler-served + cache hits).
    pub served: u64,
    /// Requests that only received an error (their run failed or their
    /// collection is unknown).
    pub failed_requests: u64,
    /// Requests answered straight from the result cache.
    pub cache_hits: u64,
    /// Waves cut by each trigger.
    pub size_triggers: u64,
    pub deadline_triggers: u64,
    pub shutdown_flushes: u64,
    /// Waves executed (including shutdown flushes). One wave may span
    /// several collections (one scheduler run per collection group).
    pub waves: u64,
    /// Waves in which at least one collection's scheduler run failed.
    pub failed_waves: u64,
    /// Micro-batches executed across all waves.
    pub batches: u64,
    /// Per-shard scheduler runs executed: every collection group run
    /// contributes one per shard it fans out to — 1 for an unsharded
    /// collection, S for an S-shard one, plus 1 while a delta shard is
    /// mounted.
    pub shard_runs: u64,
    /// Requests that went through the scheduler (excludes cache hits) —
    /// `batched_requests / batches` is the achieved batch occupancy.
    pub batched_requests: u64,
    /// Scheduler wall-clock summed over waves, microseconds.
    pub wall_us: f64,
    /// Predicted scan cost of all served batches summed over waves,
    /// microseconds (the planner's [`ScanCostModel`](crate::ScanCostModel)
    /// view — see [`ScheduleReport::predicted_cost_us`]).
    pub predicted_cost_us: f64,
    /// Host wall-clock the `search_batch` calls actually took, summed
    /// over waves, microseconds. `predicted_cost_us / actual_cost_us`
    /// is the cost model's lifetime fit on this traffic.
    pub actual_cost_us: f64,
    /// Mutation batches applied through
    /// [`mutate_collection`](GenieService::mutate_collection).
    pub mutation_batches: u64,
    /// Objects inserted live (delta inserts) across all collections.
    pub inserted: u64,
    /// Objects deleted live (tombstones written) across all collections.
    pub deleted: u64,
    /// Compactions applied (delta + tombstones folded into fresh base
    /// shards).
    pub compactions: u64,
    /// Compaction runs discarded because the collection was swapped or
    /// compacted by someone else while the rebuild ran off-lock.
    pub stale_compactions: u64,
    /// Shard runs routed to a strict subset of the fleet by a
    /// [`PlacementPlan`] (broadcast runs don't count).
    pub placed_shard_runs: u64,
    /// Times the hot-shard detector fired (a shard's postings share
    /// exceeded [`ServiceConfig::skew_threshold`] over a full window).
    pub hot_shard_events: u64,
    /// Placement plans applied by rebalancing (background or explicit).
    pub rebalances: u64,
    /// Rebalance runs discarded because the collection's base changed
    /// (swap/compaction) while the plan was being derived.
    pub stale_rebalances: u64,
    /// Learned fleet-mean cost model (filled at snapshot time from the
    /// scheduler's online per-backend models — see
    /// [`OnlineCostModel`](crate::OnlineCostModel)): fixed per-query
    /// microseconds...
    pub learned_base_us: f64,
    /// ...and marginal microseconds per scanned posting.
    pub learned_us_per_posting: f64,
    /// Wave observations folded into the per-backend cost models so
    /// far, summed over the fleet (0 = still at the configured seed).
    pub cost_observations: u64,
    /// Events appended (and fsynced) to the attached
    /// [`DurableStore`]'s journal. 0 when no store is attached.
    pub journaled_events: u64,
    /// Snapshot checkpoints completed against the attached store.
    pub checkpoints: u64,
    /// Journal appends or checkpoints that failed. A failed append
    /// also failed its operation (write-ahead discipline); a failed
    /// checkpoint is tolerated — the journal still covers the history.
    pub persist_errors: u64,
    /// Stage totals summed over waves.
    pub stages: StageProfile,
}

impl ServiceStats {
    /// Mean queries per executed micro-batch.
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

/// One backend's cumulative share of the service's lifetime — the
/// across-wave accumulation of the per-run
/// [`BackendUsage`](crate::BackendUsage) reports, kept so persistent
/// misbehaviour is visible beyond the single wave that observed it
/// (the circuit-breaker groundwork).
#[derive(Debug, Clone)]
pub struct BackendHealth {
    /// The backend's capability name ("gpu-sim", "cpu", ...), in fleet
    /// order.
    pub name: &'static str,
    /// Micro-batches this backend served.
    pub batches: u64,
    /// Queries this backend served.
    pub queries: u64,
    /// Scheduler runs in which this backend was reported `failed`
    /// (its worker panicked and the batch failed over).
    pub failed: u64,
    /// Message of the most recent failure, if any.
    pub last_error: Option<String>,
    /// Whether the circuit breaker currently masks this backend out of
    /// scheduler runs (it reached
    /// [`ServiceConfig::failure_threshold`] failures since its last
    /// admission and has not yet passed a re-admission probe).
    pub retired: bool,
    /// Re-admission probe runs this backend has been granted while
    /// retired.
    pub probes: u64,
    /// This backend's **learned** scan-cost model (EWMA of observed
    /// predicted-vs-actual per wave — see
    /// [`OnlineCostModel`](crate::OnlineCostModel)). Its reciprocal
    /// `us_per_posting` is the capacity score rebalancing places shards
    /// by.
    pub cost_model: crate::ScanCostModel,
    /// Wave observations folded into `cost_model` (0 = still the seed).
    pub cost_observations: u64,
}

/// Lifetime per-shard run accounting of one collection, in shard order
/// (the last slot is the delta shard while one is mounted) — what
/// [`GenieService::shard_stats`] reports and the hot-shard detector
/// watches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardRunStats {
    /// Queries fanned out to this shard (every group request visits
    /// every shard).
    pub queries: u64,
    /// Postings this shard's index predicted it would scan for those
    /// queries — the device-independent work measure.
    pub postings: u64,
    /// Host wall-clock its scheduler runs' `search_batch` calls took,
    /// microseconds.
    pub observed_us: f64,
}

/// Private circuit-breaker state tracked next to one backend's public
/// [`BackendHealth`].
#[derive(Debug, Default, Clone, Copy)]
struct Breaker {
    /// `failed` count at the moment the backend was last (re-)admitted;
    /// the breaker trips on `failed - baseline`.
    baseline: u64,
    /// Scheduler runs sat out since retirement (reset by each probe).
    runs_since_retired: u64,
    /// A probe run was granted and has not reported back yet. Guards
    /// against concurrent shard runs granting the same backend several
    /// simultaneous probes (whose verdicts would race each other).
    probe_in_flight: bool,
}

/// Why the serving layer failed a request or a collection-management
/// operation — the typed taxonomy front-ends (the network server, the
/// typed facade) translate without parsing message strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service is shutting down; the request was not served.
    ShuttingDown,
    /// No collection is registered under this id.
    UnknownCollection(CollectionId),
    /// A mutation batch deleted an id that is not live in the collection
    /// (it never existed, or was already deleted). Batches are atomic:
    /// nothing was applied.
    UnknownId(ObjectId),
    /// A search asked for `k = 0` results; it was refused at admission.
    ZeroK,
    /// A degenerate shard plan was requested.
    InvalidShards(ShardError),
    /// A placement plan does not fit the collection or the fleet (wrong
    /// shard count, wrong fleet size, or a degenerate plan). The
    /// message is diagnostic only, like [`Internal`](Self::Internal).
    InvalidPlacement(String),
    /// The durability layer could not journal or checkpoint the
    /// operation. Write-ahead discipline holds: the in-memory state the
    /// caller tried to change was **not** applied. The message is
    /// diagnostic only, like [`Internal`](Self::Internal).
    Persist(String),
    /// Backend preparation or wave execution failed. The message is
    /// diagnostic only — front-ends must not match on its contents.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShuttingDown => f.write_str("service is shutting down"),
            Self::UnknownCollection(id) => write!(f, "unknown collection id {id}"),
            Self::UnknownId(id) => write!(
                f,
                "cannot delete object {id}: not a live id of this collection"
            ),
            Self::ZeroK => f.write_str("k must be at least 1"),
            Self::InvalidShards(e) => write!(f, "invalid shard plan: {e}"),
            Self::InvalidPlacement(e) => write!(f, "invalid placement: {e}"),
            Self::Persist(e) => write!(f, "persistence failure: {e}"),
            Self::Internal(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a ticket resolves to: the routed response, or the error that
/// stopped its wave.
pub type TicketResult = Result<QueryResponse, ServiceError>;

/// What a queued request is answered through; see
/// [`GenieService::submit_with`].
type Completion = Box<dyn FnOnce(TicketResult) + Send>;

/// A claim on one submitted request's future response: the receiving
/// end of a completion that sends to its own channel.
///
/// Resolve it blocking ([`wait`](Self::wait) /
/// [`wait_timeout`](Self::wait_timeout)); `wait_timeout(Duration::ZERO)`
/// polls.
pub struct ResponseTicket {
    client_id: u64,
    submitted_at: Instant,
    rx: Receiver<TicketResult>,
}

impl ResponseTicket {
    /// The client id the response will carry.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// When the request was admitted (for client-side latency).
    pub fn submitted_at(&self) -> Instant {
        self.submitted_at
    }

    /// Block until the response arrives.
    pub fn wait(self) -> TicketResult {
        self.rx.recv().unwrap_or_else(|_| Err(dropped_unserved()))
    }

    /// Block up to `timeout`; `None` means not served yet.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<TicketResult> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(dropped_unserved())),
        }
    }
}

fn dropped_unserved() -> ServiceError {
    ServiceError::Internal("service dropped the request without serving it".into())
}

/// One admitted request waiting for its wave.
struct Pending {
    collection: CollectionId,
    request: QueryRequest,
    enqueued_at: Instant,
    reply: Reply,
}

/// The completion of one queued request, behind a drop guard: a
/// request dropped unanswered (a dispatcher unwinding mid-wave, the
/// queue torn down) still completes — with the "dropped unserved"
/// error — so no ticket waits forever and no connection's drain hangs
/// on a reply that will never come.
struct Reply(Option<Completion>);

impl Reply {
    fn send(mut self, result: TicketResult) {
        if let Some(done) = self.0.take() {
            done(result);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(done) = self.0.take() {
            done(Err(dropped_unserved()));
        }
    }
}

struct QueueState {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

/// `(collection, query items, k)` — the memoisation key of the result
/// cache.
type CacheKey = (CollectionId, Vec<(u32, u32)>, usize);

fn cache_key(collection: CollectionId, query: &Query, k: usize) -> CacheKey {
    (
        collection,
        query.items.iter().map(|it| (it.lo, it.hi)).collect(),
        k,
    )
}

/// Bounded `(collection, query, k) -> (hits, AT)` map with FIFO
/// eviction.
///
/// Each collection has its own `generation`, bumped on invalidation: a
/// run computed against generation `g` may only insert while the
/// collection is still at `g`, so results from an old index can never
/// repopulate entries [`GenieService::swap_collection`] cleared
/// mid-wave. Invalidation is *per collection* — swapping one index
/// leaves every other collection's entries (and hit rates) intact.
struct ResultCache {
    capacity: usize,
    generations: HashMap<CollectionId, u64>,
    map: HashMap<CacheKey, (Vec<TopHit>, u32)>,
    order: VecDeque<CacheKey>,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            generations: HashMap::new(),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn generation(&self, collection: CollectionId) -> u64 {
        self.generations.get(&collection).copied().unwrap_or(0)
    }

    fn get(&self, key: &CacheKey) -> Option<&(Vec<TopHit>, u32)> {
        self.map.get(key)
    }

    fn insert(&mut self, key: CacheKey, value: (Vec<TopHit>, u32)) {
        // map and queue must shrink together on invalidation; a stale
        // key left in `order` would keep occupying capacity and make
        // eviction pop ghosts instead of live entries
        debug_assert_eq!(self.order.len(), self.map.len());
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.map.remove(&evicted);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }

    /// Drop exactly `collection`'s entries — from the map AND the FIFO
    /// queue, so the freed capacity is immediately reusable and later
    /// evictions cannot land on a sibling collection's live entries
    /// while ghosts of this one age out — and bump its generation.
    fn invalidate_collection(&mut self, collection: CollectionId) {
        self.map.retain(|k, _| k.0 != collection);
        self.order.retain(|k| k.0 != collection);
        *self.generations.entry(collection).or_insert(0) += 1;
    }
}

/// One shard prepared on every backend: the [`Shard`] (index +
/// local→global id map) plus its per-backend prepared handles.
struct PreparedShard {
    prepared: PreparedIndex,
    shard: Shard,
}

/// One registered collection. Every collection has the same shape from
/// the moment it is registered: `S ≥ 1` immutable base shards (an
/// unsharded collection is one [`Shard::identity`]), the pending
/// inserts prepared as one more shard, and the plan's tombstones
/// filtered out of every merged answer *before* truncation to `k` (see
/// [`genie_core::delta`] for why that equals a from-scratch rebuild).
/// A never-mutated collection simply has no delta and no tombstones.
struct CollectionEntry {
    name: String,
    /// Shard count this collection was registered with;
    /// [`GenieService::swap_collection`] re-shards new indexes (and
    /// compaction re-shards the live set) at this count.
    configured_shards: usize,
    /// Membership, delta log, tombstones and stable-id assignment.
    plan: DeltaPlan,
    /// Prepared counterparts of `plan.base()`, index-aligned. A
    /// mutation batch re-prepares only the delta, never the base.
    base: Vec<PreparedShard>,
    /// `plan.delta_shard()` prepared (`None` while the delta is empty).
    delta: Option<PreparedShard>,
    /// A background compaction has been queued and not yet resolved;
    /// suppresses duplicate enqueues while the compactor works.
    compaction_queued: bool,
    /// Bumped whenever base state is replaced wholesale (compaction
    /// applied, index swapped). A compaction built against an older
    /// epoch is discarded instead of applied.
    epoch: u64,
    /// Shard→backend assignment of the **base** shards (`None` =
    /// broadcast; the delta shard always broadcasts). Honored only
    /// while it covers exactly the current base shards and the whole
    /// fleet — a compaction that changes the shard count drops it back
    /// to broadcast. Answers are count/AT-identical under any
    /// assignment (see [`genie_core::placement`]), so swapping a plan
    /// never invalidates the result cache.
    placement: Option<Arc<PlacementPlan>>,
    /// Sequence number of the last journal event persisted for this
    /// collection (1 = the `Create` event; restored collections resume
    /// from their recovered seq). Recovery skips replayed events at or
    /// below the snapshot's seq, so this chain is what makes replay
    /// idempotent. Advanced even with no store attached, so attaching
    /// one later still yields a gap the recovery path reports typed.
    persist_seq: u64,
}

impl CollectionEntry {
    /// The shards a wave fans out to: base, then the delta if mounted.
    fn shards(&self) -> impl Iterator<Item = &PreparedShard> {
        self.base.iter().chain(&self.delta)
    }

    /// The prepared index the size trigger plans against: the largest
    /// shard — per-shard c-PQ footprints grow with shard size, so the
    /// largest shard's batches close earliest and waiting longer cannot
    /// improve *its* first batch.
    fn planning_index(&self) -> &PreparedIndex {
        &self
            .shards()
            .max_by_key(|s| s.prepared.index().num_objects())
            .expect("a collection has at least one base shard")
            .prepared
    }
}

/// Live-mutation debt of one collection — what
/// [`GenieService::mutation_status`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationStatus {
    /// Currently-live objects (what [`GenieService::collection_len`]
    /// returns).
    pub live: usize,
    /// Inserts pending in the delta shard (folded away by compaction).
    pub delta: usize,
    /// Deleted ids still being filtered at merge time (cleared by
    /// compaction).
    pub tombstones: usize,
    /// Base shards currently serving.
    pub base_shards: usize,
    /// Stable ids assigned so far (ids are never reused, so this only
    /// grows).
    pub next_id: ObjectId,
}

struct ServiceInner {
    scheduler: QueryScheduler,
    /// Registered collections. The outer lock is held only for
    /// registry lookups/registration (never across a scheduler run);
    /// the per-entry lock is read-held while a run executes against
    /// the entry's prepared index and write-held by swaps.
    collections: RwLock<HashMap<CollectionId, Arc<RwLock<CollectionEntry>>>>,
    queue: Mutex<QueueState>,
    wakeup: Condvar,
    cache: Mutex<ResultCache>,
    stats: Mutex<ServiceStats>,
    health: Mutex<HealthState>,
    max_queue_delay: Duration,
    /// Circuit-breaker knobs (see [`ServiceConfig`]).
    failure_threshold: u64,
    probe_after_runs: u64,
    /// Mutation debt that schedules a background compaction (see
    /// [`ServiceConfig::compact_after`]).
    compact_after: usize,
    /// Hot-shard knobs (see [`ServiceConfig::skew_threshold`] /
    /// [`ServiceConfig::rebalance_window`]).
    skew_threshold: f64,
    rebalance_window: usize,
    /// Per-collection shard observation windows + lifetime totals.
    shard_stats: Mutex<HashMap<CollectionId, ShardWindow>>,
    /// Queue feeding the rebalancer thread; dropped (→ `None`) at
    /// shutdown so the thread's `recv` unblocks.
    rebalance_tx: Mutex<Option<Sender<CollectionId>>>,
    /// Largest backlog length the budget-aware size check has already
    /// planned and found *not* triggering. The backlog only grows
    /// between waves (waves drain it whole), so re-planning below this
    /// length cannot change the answer — this bounds the `plan_batches`
    /// calls under the queue lock to one per new backlog length.
    planned_len: AtomicUsize,
    /// Durability layer, if one was attached. Lifecycle and mutation
    /// events are journaled (write-ahead) before they commit in memory;
    /// compaction triggers a snapshot checkpoint instead of an event
    /// (replaying the pre-compaction history rebuilds an
    /// answer-equivalent plan — see [`genie_store`]'s format spec).
    store: RwLock<Option<Arc<DurableStore>>>,
}

/// The lifetime health table plus the breaker state riding beside it.
struct HealthState {
    slots: Vec<BackendHealth>,
    breakers: Vec<Breaker>,
}

/// One group run's per-shard observation, shard order (delta shard
/// last).
struct ShardSample {
    queries: u64,
    postings: u64,
    actual_us: f64,
}

/// One collection's sliding shard-observation window plus lifetime
/// totals.
#[derive(Default)]
struct ShardWindow {
    /// Newest-last per-run postings samples of the **base** shards
    /// (one `Vec` per observed group run), truncated to
    /// [`ServiceConfig::rebalance_window`] runs.
    window: VecDeque<Vec<u64>>,
    totals: Vec<ShardRunStats>,
    /// A rebalance is queued and not yet resolved; suppresses duplicate
    /// enqueues while the rebalancer works.
    rebalance_queued: bool,
}

/// The load-balance config a collection's delta shard (and replay's)
/// is built with — taken from the first base shard.
fn load_balance_of(shards: &[Shard]) -> Option<LoadBalanceConfig> {
    shards.first().and_then(|s| s.index.load_balance())
}

/// A [`PlacementPlan`] reduced to the journal's serializable spec.
fn placement_spec(plan: &PlacementPlan) -> PlacementSpec {
    PlacementSpec {
        num_backends: plan.num_backends(),
        assignments: plan.assignments().to_vec(),
    }
}

impl ServiceInner {
    fn entry(&self, collection: CollectionId) -> Option<Arc<RwLock<CollectionEntry>>> {
        self.collections
            .read()
            .expect("collections lock")
            .get(&collection)
            .cloned()
    }

    /// Does the queued backlog already fill a micro-batch? Detected
    /// with the scheduler's own [`plan_batches_with_cost`]: a planned
    /// batch at the query cap, or a same-`k` group spilling into a
    /// second batch (closed early by the c-PQ memory budget or the
    /// predicted-scan-cost budget), means waiting longer cannot improve
    /// occupancy of the first batch. With a cost budget configured, the
    /// trigger thereby cuts waves by predicted scan *microseconds*, not
    /// query count: a handful of dense-regime queries whose summed
    /// predicted cost fills a batch fires it just like a thousand
    /// sparse ones. Batches never span collections, so all checks group
    /// by `(collection, k)`.
    fn size_trigger(&self, pending: &VecDeque<Pending>) -> bool {
        let cap = self.scheduler.config().max_batch_queries;
        let cost_budget = self.scheduler.config().batch_cost_budget_us;
        if pending.len() < cap.min(2) {
            return false;
        }
        // cheap pre-check without planning: some (collection, k)-group
        // reaches the cap
        let mut per_group: HashMap<(CollectionId, usize), usize> = HashMap::new();
        for p in pending {
            let c = per_group.entry((p.collection, p.request.k)).or_insert(0);
            *c += 1;
            if *c >= cap {
                return true;
            }
        }
        if pending.len() <= self.planned_len.load(Ordering::Relaxed) {
            return false; // already planned at this backlog size
        }
        // budget-aware check, one plan per collection present
        let mut by_collection: HashMap<CollectionId, Vec<QueryRequest>> = HashMap::new();
        for p in pending {
            by_collection
                .entry(p.collection)
                .or_default()
                .push(p.request.clone());
        }
        for (cid, requests) in by_collection {
            let Some(entry) = self.entry(cid) else {
                continue; // unknown collection: resolved to errors at serve time
            };
            let entry = entry.read().expect("collection lock");
            // plan against the largest shard: its per-query c-PQ
            // footprint is the binding one
            let prepared = entry.planning_index();
            let budget = self.scheduler.effective_budget(prepared);
            if budget.is_none() && cost_budget.is_none() {
                continue; // unbounded: only the cap can close a batch
            }
            // the *learned* fleet model, so a drifted fleet cuts waves
            // by its actual microseconds, not the hand-tuned seed's
            let costs = cost_budget
                .map(|_| prepared.predicted_costs(&requests, &self.scheduler.cost_model()));
            let batches = plan_batches_with_cost(
                &requests,
                prepared.index().num_objects() as usize,
                prepared.index().max_object_len(),
                cap,
                budget,
                costs.as_deref(),
                cost_budget,
            );
            if batches_closed_by_budget(&batches) {
                return true;
            }
        }
        self.planned_len.store(pending.len(), Ordering::Relaxed);
        false
    }

    /// Serve one cut wave: answer cache hits, split the misses by
    /// collection, fan each group out over its collection's shards,
    /// memoise, route everything back through the tickets.
    fn serve_wave(&self, wave: Vec<Pending>, trigger: Trigger) {
        let mut misses: Vec<Pending> = Vec::new();
        let mut hits: Vec<(Pending, (Vec<TopHit>, u32))> = Vec::new();
        {
            let cache = self.cache.lock().expect("cache lock");
            for p in wave {
                match cache.get(&cache_key(p.collection, &p.request.query, p.request.k)) {
                    Some(v) => hits.push((p, v.clone())),
                    None => misses.push(p),
                }
            }
        }
        let cache_hits = hits.len() as u64;

        // group misses by collection, preserving admission order inside
        // each group
        let mut group_order: Vec<CollectionId> = Vec::new();
        let mut groups: HashMap<CollectionId, Vec<Pending>> = HashMap::new();
        for p in misses {
            if !groups.contains_key(&p.collection) {
                group_order.push(p.collection);
            }
            groups.entry(p.collection).or_default().push(p);
        }

        let mut wave_batches = 0u64;
        let mut wave_shard_runs = 0u64;
        let mut wave_placed_runs = 0u64;
        let mut wave_wall_us = 0.0;
        let mut wave_predicted_us = 0.0;
        let mut wave_actual_us = 0.0;
        let mut wave_stages = StageProfile::default();
        let mut served_misses = 0u64;
        let mut failed_misses = 0u64;
        let mut any_failed = false;
        // (group, outcome) pairs resolved after stats are accounted
        type GroupOutcome = (Vec<Pending>, Result<Vec<QueryResponse>, ServiceError>);
        let mut outcomes: Vec<GroupOutcome> = Vec::new();

        for cid in group_order {
            let group = groups.remove(&cid).expect("grouped above");
            let Some(entry) = self.entry(cid) else {
                failed_misses += group.len() as u64;
                any_failed = true;
                outcomes.push((group, Err(ServiceError::UnknownCollection(cid))));
                continue;
            };
            let requests: Vec<QueryRequest> = group.iter().map(|p| p.request.clone()).collect();
            // remember which cache generation this run computes against
            // *while holding the entry lock*: swap_collection cannot
            // invalidate between the generation read and the run
            let (run, run_generation, num_base) = {
                let entry = entry.read().expect("collection lock");
                let generation = self.cache.lock().expect("cache lock").generation(cid);
                (
                    self.run_group(&entry, &requests),
                    generation,
                    entry.base.len(),
                )
            };
            match run {
                Ok((responses, report)) => {
                    wave_batches += report.batches;
                    wave_shard_runs += report.shard_runs;
                    wave_wall_us += report.wall_us;
                    wave_predicted_us += report.predicted_cost_us;
                    wave_actual_us += report.actual_cost_us;
                    wave_placed_runs += report.placed_runs;
                    wave_stages.accumulate(&report.stages);
                    self.observe_shard_run(cid, &report.per_shard, num_base);
                    served_misses += group.len() as u64;
                    let mut cache = self.cache.lock().expect("cache lock");
                    // a swap_collection mid-run bumped the generation:
                    // these answers describe the old index and must not
                    // repopulate the cleared entries
                    if cache.generation(cid) == run_generation {
                        for (p, resp) in group.iter().zip(&responses) {
                            cache.insert(
                                cache_key(cid, &p.request.query, p.request.k),
                                (resp.hits.clone(), resp.audit_threshold),
                            );
                        }
                    }
                    drop(cache);
                    outcomes.push((group, Ok(responses)));
                }
                Err(e) => {
                    failed_misses += group.len() as u64;
                    any_failed = true;
                    outcomes.push((group, Err(e)));
                }
            }
        }

        // account the wave *before* resolving any ticket: a client that
        // sees its response must also see the wave in `stats()`
        {
            let mut stats = self.stats.lock().expect("stats lock");
            stats.waves += 1;
            stats.cache_hits += cache_hits;
            stats.batches += wave_batches;
            stats.shard_runs += wave_shard_runs;
            stats.placed_shard_runs += wave_placed_runs;
            stats.wall_us += wave_wall_us;
            stats.predicted_cost_us += wave_predicted_us;
            stats.actual_cost_us += wave_actual_us;
            stats.stages.accumulate(&wave_stages);
            stats.served += cache_hits + served_misses;
            // failed requests were neither served nor batched; counting
            // them as batched would inflate mean_batch_occupancy
            stats.batched_requests += served_misses;
            stats.failed_requests += failed_misses;
            if any_failed {
                stats.failed_waves += 1;
            }
            match trigger {
                Trigger::Size => stats.size_triggers += 1,
                Trigger::Deadline => stats.deadline_triggers += 1,
                Trigger::Shutdown => stats.shutdown_flushes += 1,
            }
        }

        for (p, (cached_hits, at)) in hits {
            p.reply.send(Ok(QueryResponse {
                client_id: p.request.client_id,
                hits: cached_hits,
                audit_threshold: at,
            }));
        }
        for (group, outcome) in outcomes {
            match outcome {
                Ok(responses) => {
                    for (p, resp) in group.into_iter().zip(responses) {
                        p.reply.send(Ok(resp));
                    }
                }
                Err(e) => {
                    for p in group {
                        p.reply.send(Err(e.clone()));
                    }
                }
            }
        }
    }

    /// Serve one collection group: fan out over the collection's base
    /// shards plus its delta shard, honoring the placement plan only
    /// while it still describes the current base shards and the whole
    /// fleet (a plan raced by swap/compaction silently broadcasts).
    fn run_group(
        &self,
        entry: &CollectionEntry,
        requests: &[QueryRequest],
    ) -> Result<(Vec<QueryResponse>, GroupReport), ServiceError> {
        let placement: Option<&PlacementPlan> = entry.placement.as_deref().filter(|p| {
            p.num_shards() == entry.base.len()
                && p.num_backends() == self.scheduler.backends().len()
        });
        let shards: Vec<&PreparedShard> = entry.shards().collect();
        self.run_fanout(&shards, placement, requests, entry.plan.tombstones())
    }

    /// The concurrent per-shard fan-out every collection is served by:
    /// one scheduler run per shard, each request's per-shard top-k
    /// lists translated to global ids and recombined by
    /// [`merge_shard_topk_filtered`] — ordered (count desc, id asc),
    /// tombstone-filtered *before* truncation to the request's own `k`,
    /// and certified with `AT = MC_k + 1` on the merged answer. Any
    /// shard failing fails the whole group (a partial answer would
    /// violate the count contract). One shard runs on the calling
    /// dispatcher thread and only the remaining `S − 1` are spawned, so
    /// a single-shard collection spawns nothing.
    ///
    /// With tombstones present, each shard's fetch is inflated to
    /// `k + dead(shard)` where `dead(shard)` counts only the tombstones
    /// whose ids live in *that* shard — at most that many of the
    /// shard's hits can be dead, so each shard still contributes its
    /// full surviving top-`k` and the filtered merge is exact (see
    /// [`genie_core::delta`]). (Inflating by the *total* tombstone
    /// count is also exact but over-fetches from every shard holding
    /// none of the dead ids.)
    ///
    /// With a [`PlacementPlan`], each base shard's scheduler run is
    /// masked to its assigned backends; shards past the plan (the delta
    /// shard) broadcast.
    fn run_fanout(
        &self,
        shards: &[&PreparedShard],
        placement: Option<&PlacementPlan>,
        requests: &[QueryRequest],
        tombstones: &BTreeSet<ObjectId>,
    ) -> Result<(Vec<QueryResponse>, GroupReport), ServiceError> {
        let started = Instant::now();
        // per-shard fetch inflation (None = the shard holds no dead ids
        // and can borrow the shared request slice unchanged)
        let inflated: Vec<Option<Vec<QueryRequest>>> = shards
            .iter()
            .map(|shard| {
                let dead = tombstones
                    .iter()
                    .filter(|&&id| shard.shard.contains_global(id))
                    .count();
                (dead > 0).then(|| {
                    requests
                        .iter()
                        .map(|r| {
                            let mut r = r.clone();
                            r.k += dead;
                            r
                        })
                        .collect()
                })
            })
            .collect();
        // per-shard backend masks (None = broadcast)
        let masks: Vec<Option<Vec<bool>>> = (0..shards.len())
            .map(|i| placement.and_then(|p| (i < p.num_shards()).then(|| p.mask_of(i))))
            .collect();
        let run_shard = |i: usize| {
            let reqs: &[QueryRequest] = inflated[i].as_deref().unwrap_or(requests);
            self.run_scheduler(&shards[i].prepared, reqs, masks[i].as_deref())
        };
        let per_shard: Vec<Result<(Vec<QueryResponse>, ScheduleReport), ServiceError>> =
            std::thread::scope(|scope| {
                let spawned: Vec<_> = (1..shards.len())
                    .map(|i| scope.spawn(move || run_shard(i)))
                    .collect();
                std::iter::once(run_shard(0))
                    .chain(
                        spawned
                            .into_iter()
                            .map(|h| h.join().expect("shard driver thread panicked")),
                    )
                    .collect()
            });

        let mut report = GroupReport {
            batches: 0,
            shard_runs: shards.len() as u64,
            wall_us: 0.0,
            predicted_cost_us: 0.0,
            actual_cost_us: 0.0,
            stages: StageProfile::default(),
            per_shard: Vec::with_capacity(shards.len()),
            placed_runs: masks
                .iter()
                .filter(|m| m.as_ref().is_some_and(|m| m.iter().any(|&b| !b)))
                .count() as u64,
        };
        // per request: one global-id hit list per shard
        let mut gathered: Vec<Vec<Vec<TopHit>>> =
            vec![Vec::with_capacity(shards.len()); requests.len()];
        for (shard, run) in shards.iter().zip(per_shard) {
            let (responses, shard_report) = run?;
            report.batches += shard_report.batches as u64;
            report.predicted_cost_us += shard_report.predicted_cost_us;
            report.actual_cost_us += shard_report.actual_cost_us;
            report.stages.accumulate(&shard_report.stages);
            report.per_shard.push(ShardSample {
                queries: requests.len() as u64,
                postings: shard_report.per_backend.iter().map(|u| u.postings).sum(),
                actual_us: shard_report.actual_cost_us,
            });
            for (slot, resp) in gathered.iter_mut().zip(responses) {
                slot.push(shard.shard.to_global(&resp.hits));
            }
        }
        let responses = requests
            .iter()
            .zip(gathered)
            .map(|(req, lists)| {
                let (hits, audit_threshold) = merge_shard_topk_filtered(lists, req.k, tombstones);
                QueryResponse {
                    client_id: req.client_id,
                    hits,
                    audit_threshold,
                }
            })
            .collect();
        // shards ran concurrently: the group's latency is this
        // fan-out's wall clock, not the sum over shards
        report.wall_us = genie_core::exec::elapsed_us(started);
        Ok((responses, report))
    }

    /// One breaker-aware scheduler run: compute the admitted-backend
    /// mask (granting due probes), execute, and fold the run's
    /// per-backend usage back into health and breaker state.
    ///
    /// `assigned` is a placement mask over the fleet (`None` =
    /// broadcast). Backends granted a re-admission probe join the mask
    /// even when unassigned — a probe's verdict must never be starved
    /// by placement — and the scheduler fails open to the full active
    /// set if the placement excludes every live backend.
    fn run_scheduler(
        &self,
        prepared: &PreparedIndex,
        requests: &[QueryRequest],
        assigned: Option<&[bool]>,
    ) -> Result<(Vec<QueryResponse>, ScheduleReport), ServiceError> {
        let (active, probing) = self.admit_backends();
        let run = match assigned {
            Some(assigned) => {
                let assigned: Vec<bool> = assigned
                    .iter()
                    .zip(&probing)
                    .map(|(&a, &p)| a || p)
                    .collect();
                self.scheduler
                    .run_prepared_placed(prepared, requests, &active, &assigned)
            }
            None => self
                .scheduler
                .run_prepared_active(prepared, requests, &active),
        };
        match &run {
            Ok((_, report)) => self.accumulate_health(&report.per_backend, &active, &probing),
            // the run died without per-backend usage: release any probe
            // it carried (leaving it in flight would block all future
            // probes and retire the backend forever), verdictless
            Err(_) => self.abort_probes(&probing),
        }
        run.map_err(ServiceError::Internal)
    }

    /// Clear the in-flight flag of probes whose run never reported
    /// back; the backend stays retired and will be probed again.
    fn abort_probes(&self, probing: &[bool]) {
        if !probing.iter().any(|&p| p) {
            return;
        }
        let mut health = self.health.lock().expect("health lock");
        for (breaker, &probed) in health.breakers.iter_mut().zip(probing) {
            if probed {
                breaker.probe_in_flight = false;
            }
        }
    }

    /// The breaker's admission decision for one scheduler run: every
    /// non-retired backend, plus any retired backend that has sat out
    /// [`ServiceConfig::probe_after_runs`] runs (granted a probe; at
    /// most one probe per backend is in flight at a time, so
    /// concurrent shard runs cannot race probe verdicts). If no
    /// non-retired backend would serve the run — the whole fleet is
    /// retired, probe due or not — the service fails open and admits
    /// everyone (keeping a granted probe's verdict): a wave must never
    /// be unservable, or fail for clients, by policy alone.
    fn admit_backends(&self) -> (Vec<bool>, Vec<bool>) {
        let mut health = self.health.lock().expect("health lock");
        let n = health.slots.len();
        if self.failure_threshold == 0 {
            return (vec![true; n], vec![false; n]);
        }
        let mut active = vec![false; n];
        let mut probing = vec![false; n];
        let state = &mut *health;
        for (i, (slot, breaker)) in state.slots.iter_mut().zip(&mut state.breakers).enumerate() {
            if !slot.retired {
                active[i] = true;
            } else {
                breaker.runs_since_retired += 1;
                if !breaker.probe_in_flight
                    && breaker.runs_since_retired >= self.probe_after_runs.max(1)
                {
                    breaker.runs_since_retired = 0;
                    breaker.probe_in_flight = true;
                    slot.probes += 1;
                    active[i] = true;
                    probing[i] = true;
                }
            }
        }
        // fail open unless some *non-probe* backend is active: a run
        // carried by a probe alone would turn the probed backend's
        // failure into client-visible errors even though retired (but
        // possibly healthy) peers exist as failover
        if !active.iter().zip(&probing).any(|(&a, &p)| a && !p) {
            return (vec![true; n], probing);
        }
        (active, probing)
    }

    /// Fold one run's per-backend usage into the lifetime health table
    /// and advance the circuit breaker: a failure trips retirement once
    /// `failure_threshold` failures accumulate since the backend's last
    /// admission (and instantly re-retires a probing backend); a probe
    /// run with no failure re-admits.
    fn accumulate_health(&self, usages: &[crate::BackendUsage], active: &[bool], probing: &[bool]) {
        let mut health = self.health.lock().expect("health lock");
        let state = &mut *health;
        for (i, (slot, usage)) in state.slots.iter_mut().zip(usages).enumerate() {
            slot.batches += usage.batches as u64;
            slot.queries += usage.queries as u64;
            if !active[i] {
                continue; // masked out: the idle placeholder proves nothing
            }
            let breaker = &mut state.breakers[i];
            if let Some(msg) = &usage.failed {
                slot.failed += 1;
                slot.last_error = Some(msg.clone());
                if self.failure_threshold > 0
                    && (probing[i] || slot.failed - breaker.baseline >= self.failure_threshold)
                {
                    slot.retired = true;
                    breaker.runs_since_retired = 0;
                }
            } else if probing[i] {
                // the probe saw no failure: re-admit with a clean slate
                // (an unused probe counts as success — no evidence of
                // misbehaviour is how healthy backends look too)
                slot.retired = false;
                breaker.baseline = slot.failed;
            }
            if probing[i] {
                breaker.probe_in_flight = false; // the probe reported back
            }
        }
    }

    /// Fold one fan-out run's per-shard samples into the collection's
    /// lifetime totals and sliding window, and fire the hot-shard
    /// detector: once the window is full, a base shard whose share of
    /// the windowed base postings exceeds `skew_threshold` queues a
    /// background rebalance. Only the first `num_base` samples vote —
    /// placement covers base shards, never the delta shard. Postings
    /// (not microseconds) are the skew signal — see
    /// [`genie_core::placement`] for why.
    fn observe_shard_run(
        &self,
        collection: CollectionId,
        samples: &[ShardSample],
        num_base: usize,
    ) {
        let mut stats = self.shard_stats.lock().expect("shard stats lock");
        let state = stats.entry(collection).or_default();
        if state.totals.len() != samples.len() {
            // shard count changed (mutation mounted/dropped the delta
            // shard, compaction re-sharded): lifetime totals restart and
            // the window's stale rows no longer vote
            state.totals = vec![ShardRunStats::default(); samples.len()];
            state.window.clear();
        }
        for (t, s) in state.totals.iter_mut().zip(samples) {
            t.queries += s.queries;
            t.postings += s.postings;
            t.observed_us += s.actual_us;
        }
        let base = &samples[..num_base.min(samples.len())];
        if self.rebalance_window == 0 || base.len() < 2 {
            return; // detection disabled, or nothing to place
        }
        if state.window.back().is_some_and(|r| r.len() != base.len()) {
            state.window.clear(); // re-sharded base: older rows describe other shards
        }
        state
            .window
            .push_back(base.iter().map(|s| s.postings).collect());
        while state.window.len() > self.rebalance_window {
            state.window.pop_front();
        }
        if state.window.len() < self.rebalance_window || state.rebalance_queued {
            return;
        }
        let mut sums = vec![0u64; base.len()];
        for row in &state.window {
            for (sum, &p) in sums.iter_mut().zip(row) {
                *sum += p;
            }
        }
        let total: u64 = sums.iter().sum();
        let hot = total > 0
            && sums
                .iter()
                .any(|&s| s as f64 / total as f64 > self.skew_threshold);
        if !hot {
            return;
        }
        state.rebalance_queued = true;
        drop(stats);
        self.stats.lock().expect("stats lock").hot_shard_events += 1;
        if let Some(tx) = &*self.rebalance_tx.lock().expect("rebalance queue lock") {
            let _ = tx.send(collection);
        }
    }

    /// Derive and apply a fresh [`PlacementPlan`] for `collection` from
    /// the windowed per-shard postings (shard costs) and the learned
    /// per-backend cost models (capacity scores, retired backends
    /// scoring zero). The derivation runs under the *read* lock; the
    /// apply re-checks the epoch under the write lock and discards the
    /// plan as stale if the base changed underneath. Applying a plan
    /// bumps neither the epoch nor the cache generation — placement
    /// never changes answers (see [`genie_core::placement`]), only who
    /// computes them. Returns whether a new plan was applied.
    fn rebalance_now(&self, collection: CollectionId) -> Result<bool, ServiceError> {
        // every attempt — applied, stale, or no-op — resets the window
        // and the queued flag: detection starts a fresh observation
        // period (the cooldown that stops rebalance thrash)
        let finish = |applied: bool| {
            let mut stats = self.shard_stats.lock().expect("shard stats lock");
            if let Some(state) = stats.get_mut(&collection) {
                state.window.clear();
                state.rebalance_queued = false;
            }
            Ok(applied)
        };
        let Some(entry) = self.entry(collection) else {
            return finish(false);
        };
        let (num_base, epoch) = {
            let slot = entry.read().expect("collection lock");
            (slot.base.len(), slot.epoch)
        };
        if num_base < 2 {
            return finish(false); // a single shard has nowhere to move
        }
        // shard costs: windowed postings sums (uniform when the window
        // holds no usable rows — e.g. an explicit rebalance before any
        // traffic)
        let mut costs = vec![0.0f64; num_base];
        let rep_postings = {
            let stats = self.shard_stats.lock().expect("shard stats lock");
            let mut rep = 0.0f64;
            if let Some(state) = stats.get(&collection) {
                for row in state.window.iter().filter(|r| r.len() == num_base) {
                    for (c, &p) in costs.iter_mut().zip(row) {
                        *c += p as f64;
                    }
                }
                // representative per-query postings volume of one shard
                // run on this collection, from the lifetime totals
                let (queries, postings) = state
                    .totals
                    .iter()
                    .fold((0u64, 0u64), |(q, p), t| (q + t.queries, p + t.postings));
                if queries > 0 {
                    rep = postings as f64 / queries as f64;
                }
            }
            rep
        };
        if costs.iter().all(|&c| c <= 0.0) {
            costs = vec![1.0; num_base];
        }
        // capacity scores: the reciprocal of each backend's learned
        // *per-query* cost at this collection's representative postings
        // volume — base_us must participate, because a slow device's
        // overhead is per query, not per posting (a pure-sleep throttle
        // lands entirely in base_us). Retired backends score zero
        // (excluded); a backend with no observations yet keeps its
        // optimistic seed score — if the optimism is misplaced, serving
        // the shards it wins produces exactly the observations the next
        // window corrects it with.
        let models = self.scheduler.backend_cost_models();
        let retired: Vec<bool> = {
            let health = self.health.lock().expect("health lock");
            health.slots.iter().map(|s| s.retired).collect()
        };
        let scores: Vec<f64> = models
            .iter()
            .zip(&retired)
            .map(|(m, &r)| {
                if r {
                    0.0
                } else {
                    let per_query = m.model.base_us + m.model.us_per_posting * rep_postings;
                    1.0 / per_query.max(f64::MIN_POSITIVE)
                }
            })
            .collect();
        let plan = PlacementPlan::balanced(&costs, &scores)
            .map_err(|e| ServiceError::InvalidPlacement(e.to_string()))?;
        let mut slot = entry.write().expect("collection lock");
        if slot.epoch != epoch {
            self.stats.lock().expect("stats lock").stale_rebalances += 1;
            return finish(false);
        }
        let unchanged = match &slot.placement {
            Some(current) => **current == plan,
            None => plan.is_broadcast(),
        };
        if unchanged {
            return finish(false);
        }
        let seq = slot.persist_seq + 1;
        if let Err(e) = self.journal(&JournalEvent::Placement {
            collection,
            seq,
            placement: Some(placement_spec(&plan)),
        }) {
            drop(slot);
            let _ = finish(false); // reset the window either way
            return Err(e);
        }
        slot.persist_seq = seq;
        slot.placement = Some(Arc::new(plan));
        drop(slot);
        self.stats.lock().expect("stats lock").rebalances += 1;
        finish(true)
    }

    /// Prepare one shard on every backend.
    fn prepare_shard(&self, shard: Shard) -> Result<PreparedShard, ServiceError> {
        let prepared = self
            .scheduler
            .prepare(&shard.index)
            .map_err(ServiceError::Internal)?;
        Ok(PreparedShard { prepared, shard })
    }

    fn prepare_base(&self, shards: &[Shard]) -> Result<Vec<PreparedShard>, ServiceError> {
        shards
            .iter()
            .map(|shard| self.prepare_shard(shard.clone()))
            .collect()
    }

    /// Build and prepare `plan`'s pending inserts as one more shard
    /// (`None` while the delta is empty).
    fn prepare_delta(&self, plan: &DeltaPlan) -> Result<Option<PreparedShard>, ServiceError> {
        plan.delta_shard()
            .map(|shard| self.prepare_shard(shard))
            .transpose()
    }

    /// One full compaction cycle for `collection`: snapshot under the
    /// read lock, fold delta + tombstones into fresh base shards and
    /// prepare them on every backend *lock-free* (searches and
    /// mutations keep flowing against the old shards the whole time),
    /// then swap under the write lock. The swap is invisible to
    /// searches — rebuild equivalence means the answers before and
    /// after are identical, so the result cache is deliberately NOT
    /// invalidated. Returns `Ok(true)` if applied, `Ok(false)` when
    /// there was nothing to fold or the collection's base changed
    /// underneath (swap or concurrent compaction — the run is
    /// discarded as stale). An `Err` (a backend refused an upload)
    /// leaves the collection exactly as it was.
    fn compact_now(&self, collection: CollectionId) -> Result<bool, ServiceError> {
        let Some(entry) = self.entry(collection) else {
            return Ok(false);
        };
        let (snapshot, epoch) = {
            let slot = entry.read().expect("collection lock");
            if slot.plan.delta_len() == 0 && slot.plan.num_tombstones() == 0 {
                return Ok(false); // no debt: the base is already exact
            }
            (slot.plan.snapshot(slot.configured_shards), slot.epoch)
        };
        // the expensive part, off-lock: pure rebuild + backend uploads
        let compacted = snapshot.compact();
        let base = self.prepare_base(&compacted.shards);

        let mut slot = entry.write().expect("collection lock");
        slot.compaction_queued = false;
        // stage everything fallible before committing anything: a
        // failed upload must not leave the plan compacted (or the epoch
        // advanced) under shards that were never installed
        let staged = base.and_then(|base| {
            if slot.epoch != epoch {
                return Ok(None);
            }
            // mutations that raced the rebuild survive: the delta
            // suffix past the snapshot is re-prepared as the new delta
            // shard and the post-snapshot tombstones stay in the plan
            let mut plan = slot.plan.clone();
            plan.apply_compaction(compacted);
            let delta = self.prepare_delta(&plan)?;
            Ok(Some((plan, base, delta)))
        });
        let (plan, base, delta) = match staged {
            Ok(Some(staged)) => staged,
            Ok(None) => {
                self.stats.lock().expect("stats lock").stale_compactions += 1;
                return Ok(false);
            }
            Err(e) => {
                self.stats.lock().expect("stats lock").stale_compactions += 1;
                return Err(ServiceError::Internal(format!(
                    "compaction of collection {collection} aborted: {e}"
                )));
            }
        };
        slot.epoch += 1;
        // a placement plan only remains honored while it covers exactly
        // the current base shards; compaction at a different count drops
        // it back to broadcast (the rebalancer will re-derive one)
        if slot
            .placement
            .as_ref()
            .is_some_and(|p| p.num_shards() != base.len())
        {
            slot.placement = None;
        }
        slot.plan = plan;
        slot.base = base;
        slot.delta = delta;
        drop(slot);
        self.stats.lock().expect("stats lock").compactions += 1;
        // Compaction is NOT journaled: replaying the pre-compaction
        // history rebuilds an answer-equivalent plan. A checkpoint here
        // folds the compacted state into a fresh snapshot so the old
        // journal (and the delta it re-derives) can be pruned. Failure
        // is tolerated (counted in `persist_errors` by `checkpoint_now`)
        // — the journal still covers the full history.
        let _ = self.checkpoint_now();
        Ok(true)
    }

    /// The attached durability layer, if any.
    fn store(&self) -> Option<Arc<DurableStore>> {
        self.store.read().expect("store lock").clone()
    }

    /// Write-ahead append: persist `event` (fsynced) *before* the
    /// caller commits the matching in-memory change. No attached store
    /// is a no-op; a journal failure is a typed [`ServiceError::Persist`]
    /// and the caller must leave its state untouched.
    fn journal(&self, event: &JournalEvent) -> Result<(), ServiceError> {
        let Some(store) = self.store() else {
            return Ok(());
        };
        match store.append(event) {
            Ok(()) => {
                self.stats.lock().expect("stats lock").journaled_events += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.lock().expect("stats lock").persist_errors += 1;
                Err(ServiceError::Persist(e.to_string()))
            }
        }
    }

    /// Capture every registered collection as a snapshot-ready state,
    /// id-ascending. Per-entry read locks only — concurrent mutations
    /// serialize against each entry and land either in its captured
    /// state (higher `persist_seq`) or in the journal generations the
    /// checkpoint keeps; replay's seq skip makes both orders converge.
    fn persist_states(&self) -> Vec<CollectionState> {
        let entries: Vec<(CollectionId, Arc<RwLock<CollectionEntry>>)> = {
            let map = self.collections.read().expect("collections lock");
            let mut pairs: Vec<_> = map.iter().map(|(id, e)| (*id, Arc::clone(e))).collect();
            pairs.sort_by_key(|(id, _)| *id);
            pairs
        };
        entries
            .into_iter()
            .map(|(id, entry)| {
                let slot = entry.read().expect("collection lock");
                CollectionState::capture(
                    id,
                    slot.persist_seq,
                    &slot.name,
                    slot.configured_shards,
                    &slot.plan,
                    slot.placement.as_deref().map(placement_spec),
                )
            })
            .collect()
    }

    /// Snapshot every collection and prune superseded journal/snapshot
    /// generations. `Ok(None)` when no store is attached; failures are
    /// counted in [`ServiceStats::persist_errors`] *and* returned.
    fn checkpoint_now(&self) -> Result<Option<u64>, ServiceError> {
        let Some(store) = self.store() else {
            return Ok(None);
        };
        match store.checkpoint_with(|| self.persist_states()) {
            Ok(gen) => {
                self.stats.lock().expect("stats lock").checkpoints += 1;
                Ok(Some(gen))
            }
            Err(e) => {
                self.stats.lock().expect("stats lock").persist_errors += 1;
                Err(ServiceError::Persist(e.to_string()))
            }
        }
    }

    fn dispatcher_loop(&self) {
        loop {
            let (wave, trigger) = {
                let mut q = self.queue.lock().expect("queue lock");
                let trigger = loop {
                    if q.pending.is_empty() {
                        if q.shutdown {
                            return;
                        }
                        q = self.wakeup.wait(q).expect("queue lock");
                        continue;
                    }
                    if q.shutdown {
                        break Trigger::Shutdown;
                    }
                    let oldest_age = q.pending.front().expect("non-empty").enqueued_at.elapsed();
                    if oldest_age >= self.max_queue_delay {
                        break Trigger::Deadline;
                    }
                    if self.size_trigger(&q.pending) {
                        break Trigger::Size;
                    }
                    let remaining = self.max_queue_delay - oldest_age;
                    let (guard, _) = self.wakeup.wait_timeout(q, remaining).expect("queue lock");
                    q = guard;
                };
                // the backlog restarts from empty: the size check must
                // plan again from scratch for the next wave
                self.planned_len.store(0, Ordering::Relaxed);
                (q.pending.drain(..).collect::<Vec<_>>(), trigger)
            };
            self.serve_wave(wave, trigger);
        }
    }
}

/// Aggregated accounting for one collection group's execution inside a
/// wave (the shard fan-out's merged totals).
struct GroupReport {
    batches: u64,
    shard_runs: u64,
    wall_us: f64,
    predicted_cost_us: f64,
    actual_cost_us: f64,
    stages: StageProfile,
    /// Per-shard observations of the fan-out, feeding the hot-shard
    /// detector.
    per_shard: Vec<ShardSample>,
    /// Shard runs this group routed to a strict subset of the fleet.
    placed_runs: u64,
}

/// `plan_batches` emits batches in ascending-`k` order, so a same-`k`
/// group split across adjacent batches means the first one was closed
/// by the memory budget — it is as full as it can get.
fn batches_closed_by_budget(batches: &[Batch]) -> bool {
    batches.windows(2).any(|w| w[0].k == w[1].k)
}

/// The base shards `index` is served as at `shards` shards: the index
/// itself as one [`Shard::identity`] (no rebuild) for `shards <= 1`, a
/// contiguous near-even re-shard otherwise.
fn split_index(index: &Arc<InvertedIndex>, shards: usize) -> Result<Vec<Shard>, ServiceError> {
    if shards <= 1 {
        return Ok(vec![Shard::identity(Arc::clone(index))]);
    }
    let plan = ShardPlan::from_index(index, shards).map_err(ServiceError::InvalidShards)?;
    Ok(plan.shards().to_vec())
}

/// The always-on serving front-end: admission queue + dispatcher
/// threads over a [`QueryScheduler`] and its registered collections.
/// See the [crate docs](crate) for the trigger semantics. The typed
/// per-domain surface over this is [`GenieDb`](crate::GenieDb).
pub struct GenieService {
    inner: Arc<ServiceInner>,
    dispatchers: Vec<JoinHandle<()>>,
    /// The background compactor thread draining `compact_tx`.
    compactor: Option<JoinHandle<()>>,
    /// Queue feeding the compactor; dropped (→ `None`) at shutdown so
    /// the thread's `recv` unblocks.
    compact_tx: Mutex<Option<Sender<CollectionId>>>,
    /// The background rebalancer thread draining
    /// [`ServiceInner::rebalance_tx`] (the sender lives on the inner so
    /// the hot-shard detector can enqueue from inside a wave).
    rebalancer: Option<JoinHandle<()>>,
    next_client: AtomicU64,
    next_collection: AtomicU64,
}

impl std::fmt::Debug for GenieService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenieService")
            .field("dispatchers", &self.dispatchers.len())
            .field("collections", &self.collection_names())
            .field("queue_len", &self.queue_len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl GenieService {
    /// Start the dispatcher threads with *no* collections registered
    /// yet; [`add_collection`](Self::add_collection) brings data sets
    /// online one by one. Fails with a clear message on misconfigured
    /// knobs.
    pub fn start_empty(
        scheduler: QueryScheduler,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let spawn_failed = |what: &str, e: std::io::Error| {
            ServiceError::Internal(format!("cannot spawn {what}: {e}"))
        };
        if scheduler.config().max_batch_queries == 0 {
            // unreachable through QueryScheduler::new, which validates
            // the same invariant — kept so *this* constructor also
            // fails closed if scheduler construction ever changes
            return Err(ServiceError::Internal(
                "GenieService needs max_batch_queries >= 1 (a micro-batch cannot hold zero \
                 queries)"
                    .into(),
            ));
        }
        if config.dispatchers == 0 {
            return Err(ServiceError::Internal(
                "GenieService needs at least one dispatcher thread".into(),
            ));
        }
        // a zero max_queue_delay is legal: it means "cut a wave as soon
        // as the queue is non-empty" (no cross-time batching; the
        // dispatcher still parks on the condvar when idle)
        let seed_model = scheduler.config().cost_model;
        let slots: Vec<BackendHealth> = scheduler
            .backends()
            .iter()
            .map(|b| BackendHealth {
                name: b.capabilities().name,
                batches: 0,
                queries: 0,
                failed: 0,
                last_error: None,
                retired: false,
                probes: 0,
                cost_model: seed_model,
                cost_observations: 0,
            })
            .collect();
        let health = HealthState {
            breakers: vec![Breaker::default(); slots.len()],
            slots,
        };
        let inner = Arc::new(ServiceInner {
            scheduler,
            collections: RwLock::new(HashMap::new()),
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            stats: Mutex::new(ServiceStats::default()),
            health: Mutex::new(health),
            max_queue_delay: config.max_queue_delay,
            failure_threshold: config.failure_threshold,
            probe_after_runs: config.probe_after_runs,
            compact_after: config.compact_after,
            skew_threshold: config.skew_threshold,
            rebalance_window: config.rebalance_window,
            shard_stats: Mutex::new(HashMap::new()),
            rebalance_tx: Mutex::new(None),
            planned_len: AtomicUsize::new(0),
            store: RwLock::new(None),
        });
        let dispatchers = (0..config.dispatchers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("genie-dispatch-{i}"))
                    .spawn(move || inner.dispatcher_loop())
                    .map_err(|e| spawn_failed("dispatcher", e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (compact_tx, compact_rx) = channel::<CollectionId>();
        let compactor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("genie-compact".into())
                .spawn(move || {
                    // a failed compaction leaves the old (equivalent)
                    // serving in place; the error is recorded as a
                    // stale_compactions tick inside compact_now
                    while let Ok(cid) = compact_rx.recv() {
                        let _ = inner.compact_now(cid);
                    }
                })
                .map_err(|e| spawn_failed("compactor", e))?
        };
        let (rebalance_tx, rebalance_rx) = channel::<CollectionId>();
        let rebalancer = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("genie-rebalance".into())
                .spawn(move || {
                    // a failed derivation leaves the old (equivalent)
                    // placement in place; stale applies are counted
                    // inside rebalance_now
                    while let Ok(cid) = rebalance_rx.recv() {
                        let _ = inner.rebalance_now(cid);
                    }
                })
                .map_err(|e| spawn_failed("rebalancer", e))?
        };
        *inner.rebalance_tx.lock().expect("rebalance queue lock") = Some(rebalance_tx);
        Ok(Self {
            inner,
            dispatchers,
            compactor: Some(compactor),
            compact_tx: Mutex::new(Some(compact_tx)),
            rebalancer: Some(rebalancer),
            next_client: AtomicU64::new(0),
            next_collection: AtomicU64::new(0),
        })
    }

    /// Prepare `index` on every backend and register it as a new
    /// single-shard collection. Returns the id requests target via
    /// [`submit_to`](Self::submit_to).
    pub fn add_collection(
        &self,
        name: &str,
        index: &Arc<InvertedIndex>,
    ) -> Result<CollectionId, ServiceError> {
        self.add_collection_sharded(name, index, 1)
    }

    /// Register `index`'s data set split across `shards` self-contained
    /// index shards (a contiguous near-even [`ShardPlan`]; the count is
    /// clamped to the number of objects). Every shard is prepared on
    /// every backend; at serve time a wave fans out to one scheduler
    /// run per shard and the per-shard top-k lists are merged into the
    /// global answer with `AT = MC_k + 1` on the merged list. `shards
    /// <= 1` serves `index` itself as the one shard (no rebuild).
    pub fn add_collection_sharded(
        &self,
        name: &str,
        index: &Arc<InvertedIndex>,
        shards: usize,
    ) -> Result<CollectionId, ServiceError> {
        self.register(name, shards.max(1), split_index(index, shards)?)
    }

    /// Register a collection from an explicit [`ShardPlan`] (arbitrary
    /// object→shard assignment). A later
    /// [`swap_collection`](Self::swap_collection) re-shards the new
    /// index *contiguously* at the same shard count — a custom
    /// assignment is not remembered across swaps.
    pub fn add_collection_plan(
        &self,
        name: &str,
        plan: &ShardPlan,
    ) -> Result<CollectionId, ServiceError> {
        self.register(name, plan.num_shards(), plan.shards().to_vec())
    }

    fn register(
        &self,
        name: &str,
        configured_shards: usize,
        shards: Vec<Shard>,
    ) -> Result<CollectionId, ServiceError> {
        let base = self.inner.prepare_base(&shards)?;
        let load_balance = load_balance_of(&shards);
        let id = self.next_collection.fetch_add(1, Ordering::Relaxed);
        // write-ahead: a journal failure means no registration at all
        // (the burned id is harmless — ids need not be dense)
        if self.inner.store().is_some() {
            self.inner.journal(&JournalEvent::Create {
                collection: id,
                seq: 1,
                name: name.to_owned(),
                configured_shards,
                load_balance,
                base: shards.clone(),
            })?;
        }
        let entry = CollectionEntry {
            name: name.to_owned(),
            configured_shards,
            plan: DeltaPlan::from_base(shards, load_balance),
            base,
            delta: None,
            compaction_queued: false,
            epoch: 0,
            placement: None,
            persist_seq: 1,
        };
        self.inner
            .collections
            .write()
            .expect("collections lock")
            .insert(id, Arc::new(RwLock::new(entry)));
        Ok(id)
    }

    /// Re-prepare a (new) index on every backend and swap it into
    /// `collection`, preserving the collection's shard count (a sharded
    /// collection re-shards the new index contiguously at the same
    /// count). Exactly that collection's cache entries are
    /// invalidated — every other collection keeps its entries and its
    /// hit rate. Returns the simulated upload time.
    pub fn swap_collection(
        &self,
        collection: CollectionId,
        index: &Arc<InvertedIndex>,
    ) -> Result<f64, ServiceError> {
        let entry = self
            .inner
            .entry(collection)
            .ok_or(ServiceError::UnknownCollection(collection))?;
        let configured = entry.read().expect("collection lock").configured_shards;
        let shards = split_index(index, configured)?;
        let base = self.inner.prepare_base(&shards)?;
        let load_balance = load_balance_of(&shards);
        let upload_sim_us = base.iter().map(|s| s.prepared.upload_sim_us).sum();
        {
            let mut slot = entry.write().expect("collection lock");
            // write-ahead: journal the swap before committing it — a
            // persistence failure leaves the old shards fully intact
            let seq = slot.persist_seq + 1;
            if self.inner.store().is_some() {
                self.inner.journal(&JournalEvent::Swap {
                    collection,
                    seq,
                    load_balance,
                    base: shards.clone(),
                })?;
            }
            slot.persist_seq = seq;
            // a full reindex supersedes any pending delta/tombstones,
            // and invalidates any compaction racing against the old base
            slot.plan = DeltaPlan::from_base(shards, load_balance);
            slot.base = base;
            slot.delta = None;
            slot.compaction_queued = false;
            slot.epoch += 1;
            // the plan described the old base shards; rebalancing will
            // derive a fresh one from post-swap traffic
            slot.placement = None;
        }
        self.inner
            .cache
            .lock()
            .expect("cache lock")
            .invalidate_collection(collection);
        // index dimensions changed: the cached no-trigger verdict may
        // no longer hold
        self.inner.planned_len.store(0, Ordering::Relaxed);
        Ok(upload_sim_us)
    }

    /// Registered collections as `(id, name)` pairs, id-ascending.
    pub fn collection_names(&self) -> Vec<(CollectionId, String)> {
        let mut out: Vec<(CollectionId, String)> = self
            .inner
            .collections
            .read()
            .expect("collections lock")
            .iter()
            .map(|(id, e)| (*id, e.read().expect("collection lock").name.clone()))
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Number of index shards `collection` is currently served from
    /// (its base shards plus the delta shard while one is mounted;
    /// `None` for unknown ids).
    pub fn collection_shards(&self, collection: CollectionId) -> Option<usize> {
        self.inner
            .entry(collection)
            .map(|e| e.read().expect("collection lock").shards().count())
    }

    /// Currently-live objects in `collection` (`None` for unknown ids):
    /// base + delta minus tombstones — the corpus a from-scratch
    /// rebuild would index.
    pub fn collection_len(&self, collection: CollectionId) -> Option<usize> {
        self.mutation_status(collection).map(|status| status.live)
    }

    /// Live-mutation debt of `collection` (`None` for unknown ids). A
    /// collection that has never been mutated reports zero delta and
    /// tombstones.
    pub fn mutation_status(&self, collection: CollectionId) -> Option<MutationStatus> {
        let entry = self.inner.entry(collection)?;
        let slot = entry.read().expect("collection lock");
        Some(MutationStatus {
            live: slot.plan.len(),
            delta: slot.plan.delta_len(),
            tombstones: slot.plan.num_tombstones(),
            base_shards: slot.base.len(),
            next_id: slot.plan.next_id(),
        })
    }

    /// Apply one **atomic mutation batch** to `collection`: validate
    /// and tombstone every id in `deletes`, then append `inserts` to
    /// the delta shard, assigning each a stable [`ObjectId`] (insert
    /// order, never reused, surviving compaction). The whole batch is
    /// validated and its delta shard prepared *before* anything becomes
    /// visible, so a failed batch leaves the collection untouched.
    ///
    /// `on_assigned(position, id)` fires once per insert, after ids are
    /// final but **before** the new delta shard is swapped in — the
    /// typed facade uses it to stash items into the domain's id-indexed
    /// store so no search can ever return an id whose item is missing.
    ///
    /// Searches over the mutated collection return exactly what a
    /// from-scratch rebuild over the live set would (counts, ids,
    /// `AT = MC_k + 1` — see [`genie_core::delta`]); the collection's
    /// result-cache entries are invalidated per batch. When the
    /// accumulated debt (delta + tombstones) reaches
    /// [`ServiceConfig::compact_after`], a background compaction is
    /// scheduled automatically.
    pub fn mutate_collection(
        &self,
        collection: CollectionId,
        deletes: &[ObjectId],
        inserts: Vec<Object>,
        on_assigned: &mut dyn FnMut(usize, ObjectId),
    ) -> Result<Vec<ObjectId>, ServiceError> {
        if deletes.is_empty() && inserts.is_empty() {
            return Ok(Vec::new());
        }
        let num_inserts = inserts.len() as u64;
        let entry = self
            .inner
            .entry(collection)
            .ok_or(ServiceError::UnknownCollection(collection))?;
        let mut slot = entry.write().expect("collection lock");
        // the journal needs its own copy of the inserts (staging
        // consumes them); skip the clone entirely when nothing persists
        let journal_inserts = self.inner.store().is_some().then(|| inserts.clone());
        let seq = slot.persist_seq + 1;
        let first_id = slot.plan.next_id();
        // stage the batch on a clone: a bad delete or a failed delta
        // upload must not leave half a batch applied
        let mut plan = slot.plan.clone();
        for &id in deletes {
            if !plan.delete(id) {
                return Err(ServiceError::UnknownId(id));
            }
        }
        let ids: Vec<ObjectId> = inserts.into_iter().map(|o| plan.insert(o)).collect();
        let delta = self.inner.prepare_delta(&plan)?;
        // write-ahead: the batch is fsynced in the journal before any
        // search can observe it — a persistence failure aborts the
        // batch with nothing applied. Replay re-runs the same deletes
        // and re-assigns ids from the same `first_id`, so recovery
        // re-derives exactly the ids handed out here.
        if let Some(journal_inserts) = journal_inserts {
            self.inner.journal(&JournalEvent::Mutate {
                collection,
                seq,
                first_id,
                deletes: deletes.to_vec(),
                inserts: journal_inserts,
            })?;
        }
        // ids are final: let the caller stash the items before any
        // search can return them
        for (pos, &id) in ids.iter().enumerate() {
            on_assigned(pos, id);
        }
        let debt = plan.delta_len() + plan.num_tombstones();
        let want_compaction = self.inner.compact_after > 0
            && debt >= self.inner.compact_after
            && !slot.compaction_queued;
        slot.compaction_queued |= want_compaction;
        slot.plan = plan;
        slot.delta = delta;
        slot.persist_seq = seq;
        drop(slot);
        {
            let mut stats = self.inner.stats.lock().expect("stats lock");
            stats.mutation_batches += 1;
            stats.inserted += num_inserts;
            stats.deleted += deletes.len() as u64;
        }
        self.inner
            .cache
            .lock()
            .expect("cache lock")
            .invalidate_collection(collection);
        self.inner.planned_len.store(0, Ordering::Relaxed);
        if want_compaction {
            if let Some(tx) = &*self.compact_tx.lock().expect("compact queue lock") {
                let _ = tx.send(collection);
            }
        }
        Ok(ids)
    }

    /// Compact `collection` synchronously: fold the pending delta and
    /// tombstones into fresh base shards (re-sharded at the configured
    /// count), with the expensive rebuild running off-lock — searches
    /// and mutations proceed throughout, and the final swap is
    /// invisible to results (rebuild equivalence). Returns whether a
    /// compaction was applied (`false`: nothing to fold, or the base
    /// changed underneath and the run was discarded as stale).
    pub fn compact_collection(&self, collection: CollectionId) -> Result<bool, ServiceError> {
        self.inner.compact_now(collection)
    }

    /// Attach a durability layer: from here on, collection lifecycle
    /// and mutation events are journaled (write-ahead, fsynced) before
    /// they commit, and compactions trigger snapshot checkpoints.
    ///
    /// Attach **before** creating collections (or right after
    /// [`restore_collections`](Self::restore_collections)) — events for
    /// collections created while detached were never journaled, so a
    /// later recovery would report their seq chain as gapped.
    pub fn attach_store(&self, store: Arc<DurableStore>) {
        *self.inner.store.write().expect("store lock") = Some(store);
    }

    /// Re-register collections recovered by [`DurableStore::open`]
    /// under their original ids, preparing every base (and delta) shard
    /// on every backend. Restoration journals nothing — the recovered
    /// seq chain continues where it left off. Fails if an id is already
    /// taken (restore into an empty service, before creating new
    /// collections) or a persisted placement no longer fits the fleet
    /// (the plan is dropped to broadcast, not an error).
    pub fn restore_collections(
        &self,
        recovered: Vec<RecoveredCollection>,
    ) -> Result<(), ServiceError> {
        let fleet = self.inner.scheduler.backends().len();
        for rec in recovered {
            if self.inner.entry(rec.id).is_some() {
                return Err(ServiceError::Internal(format!(
                    "cannot restore collection {} ({:?}): id already registered",
                    rec.id, rec.name
                )));
            }
            let base = self.inner.prepare_base(rec.plan.base())?;
            let delta = self.inner.prepare_delta(&rec.plan)?;
            // a persisted plan is only honored if it still fits this
            // fleet and the recovered base — placement never changes
            // answers, so dropping to broadcast is always safe
            let placement = rec.placement.and_then(|spec| {
                (spec.num_backends == fleet)
                    .then(|| PlacementPlan::new(spec.assignments, spec.num_backends).ok())
                    .flatten()
                    .filter(|p| p.num_shards() == base.len())
                    .map(Arc::new)
            });
            let entry = Arc::new(RwLock::new(CollectionEntry {
                name: rec.name,
                configured_shards: rec.configured_shards,
                plan: rec.plan,
                base,
                delta,
                compaction_queued: false,
                epoch: 0,
                placement,
                persist_seq: rec.seq,
            }));
            self.inner
                .collections
                .write()
                .expect("collections lock")
                .insert(rec.id, entry);
            self.next_collection
                .fetch_max(rec.id + 1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Snapshot every collection into the attached store and prune the
    /// superseded journal/snapshot generations (what compaction does in
    /// the background). Returns the new snapshot generation, or
    /// `Ok(None)` when no store is attached.
    pub fn checkpoint(&self) -> Result<Option<u64>, ServiceError> {
        self.inner.checkpoint_now()
    }

    /// Admit one query against `collection` from any thread; the
    /// returned ticket resolves when its wave is served (or errs if the
    /// service shuts down first). Client ids are assigned in admission
    /// order. Unknown collection ids resolve the ticket with an error
    /// at wave time.
    pub fn submit_to(&self, collection: CollectionId, query: Query, k: usize) -> ResponseTicket {
        let (tx, rx) = channel();
        let (client_id, submitted_at) = self.admit(
            collection,
            query,
            k,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        ResponseTicket {
            client_id,
            submitted_at,
            rx,
        }
    }

    /// [`submit_to`](Self::submit_to) without the ticket: `done` is
    /// called instead, exactly once, with the outcome — on whichever
    /// thread resolves the request (a dispatcher, or this one when the
    /// service is already shutting down), so it must be quick and must
    /// not block. Front-ends that already own an outbound queue (the
    /// network server's per-connection writer) are notified through it
    /// rather than polling tickets.
    pub fn submit_with(
        &self,
        collection: CollectionId,
        query: Query,
        k: usize,
        done: impl FnOnce(TicketResult) + Send + 'static,
    ) {
        self.admit(collection, query, k, Box::new(done));
    }

    fn admit(
        &self,
        collection: CollectionId,
        query: Query,
        k: usize,
        done: Completion,
    ) -> (u64, Instant) {
        let client_id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let submitted_at = Instant::now();
        let reply = Reply(Some(done));
        if k == 0 {
            // refused before the queue lock is taken: `QueryRequest::new`
            // asserts `k >= 1`, and a panic under the lock would poison
            // the queue for every later submitter
            reply.send(Err(ServiceError::ZeroK));
            return (client_id, submitted_at);
        }
        let refused = {
            let mut q = self.inner.queue.lock().expect("queue lock");
            if q.shutdown {
                Some(reply)
            } else {
                q.pending.push_back(Pending {
                    collection,
                    request: QueryRequest::new(client_id, query, k),
                    enqueued_at: submitted_at,
                    reply,
                });
                self.inner.stats.lock().expect("stats lock").submitted += 1;
                None
            }
        };
        match refused {
            // answered off the queue lock: the completion is foreign code
            Some(reply) => reply.send(Err(ServiceError::ShuttingDown)),
            None => self.inner.wakeup.notify_one(),
        }
        (client_id, submitted_at)
    }

    /// Snapshot of the serving counters. The `learned_*` fields are
    /// filled at snapshot time from the scheduler's online per-backend
    /// cost models (fleet mean).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = *self.inner.stats.lock().expect("stats lock");
        let fleet = self.inner.scheduler.cost_model();
        stats.learned_base_us = fleet.base_us;
        stats.learned_us_per_posting = fleet.us_per_posting;
        stats.cost_observations = self
            .inner
            .scheduler
            .backend_cost_models()
            .iter()
            .map(|m| m.observations)
            .sum();
        stats
    }

    /// Per-backend lifetime usage and failure counts (fleet order) —
    /// see [`BackendHealth`]. Each slot carries the backend's current
    /// **learned** cost model from the scheduler's online EWMA.
    pub fn backend_health(&self) -> Vec<BackendHealth> {
        let mut slots = self.inner.health.lock().expect("health lock").slots.clone();
        for (slot, learned) in slots
            .iter_mut()
            .zip(self.inner.scheduler.backend_cost_models())
        {
            slot.cost_model = learned.model;
            slot.cost_observations = learned.observations;
        }
        slots
    }

    /// Lifetime per-shard run accounting of `collection`, shard order
    /// (`None` for unknown ids; empty until its first group run — a
    /// single-shard collection reports one slot). The hot-shard
    /// detector watches the same postings signal over a sliding window.
    pub fn shard_stats(&self, collection: CollectionId) -> Option<Vec<ShardRunStats>> {
        self.inner.entry(collection)?;
        Some(
            self.inner
                .shard_stats
                .lock()
                .expect("shard stats lock")
                .get(&collection)
                .map(|s| s.totals.clone())
                .unwrap_or_default(),
        )
    }

    /// The shard→backend assignment `collection` is currently served
    /// with, one backend list per **base** shard (`None` for unknown
    /// ids). A collection without an applied plan reports the broadcast
    /// assignment (every shard on every backend).
    pub fn collection_placement(&self, collection: CollectionId) -> Option<Vec<Vec<usize>>> {
        let entry = self.inner.entry(collection)?;
        let slot = entry.read().expect("collection lock");
        Some(match &slot.placement {
            Some(plan) => plan.assignments().to_vec(),
            None => {
                let fleet: Vec<usize> = (0..self.inner.scheduler.backends().len()).collect();
                vec![fleet; slot.base.len()]
            }
        })
    }

    /// Install an explicit [`PlacementPlan`] for `collection`'s base
    /// shards (rebalancing may later replace it). The plan must cover
    /// exactly the current base shard count and the whole fleet.
    /// Answers are unchanged by construction — the result cache is
    /// deliberately not invalidated.
    pub fn set_collection_placement(
        &self,
        collection: CollectionId,
        plan: PlacementPlan,
    ) -> Result<(), ServiceError> {
        let entry = self
            .inner
            .entry(collection)
            .ok_or(ServiceError::UnknownCollection(collection))?;
        let mut slot = entry.write().expect("collection lock");
        let num_base = slot.base.len();
        if plan.num_shards() != num_base {
            return Err(ServiceError::InvalidPlacement(format!(
                "plan covers {} shards but the collection serves {num_base} base shards",
                plan.num_shards()
            )));
        }
        let fleet = self.inner.scheduler.backends().len();
        if plan.num_backends() != fleet {
            return Err(ServiceError::InvalidPlacement(format!(
                "plan assumes {} backends but the fleet has {fleet}",
                plan.num_backends()
            )));
        }
        // write-ahead: recovery re-applies the plan (placement never
        // changes answers, but the operator's routing choice survives)
        let seq = slot.persist_seq + 1;
        self.inner.journal(&JournalEvent::Placement {
            collection,
            seq,
            placement: Some(placement_spec(&plan)),
        })?;
        slot.persist_seq = seq;
        slot.placement = Some(Arc::new(plan));
        Ok(())
    }

    /// Derive and apply a placement plan for `collection` *now*, from
    /// the observed shard costs and the learned per-backend capacities
    /// (what the background rebalancer does when the hot-shard detector
    /// fires). Returns whether a new plan was applied (`false`: nothing
    /// to place, the derived plan equals the current one, or the base
    /// changed underneath and the run was discarded as stale).
    pub fn rebalance_collection(&self, collection: CollectionId) -> Result<bool, ServiceError> {
        self.inner
            .entry(collection)
            .ok_or(ServiceError::UnknownCollection(collection))?;
        self.inner.rebalance_now(collection)
    }

    /// Requests currently queued (admitted, wave not yet cut).
    pub fn queue_len(&self) -> usize {
        self.inner.queue.lock().expect("queue lock").pending.len()
    }

    /// The wrapped scheduler (read-only).
    pub fn scheduler(&self) -> &QueryScheduler {
        &self.inner.scheduler
    }
}

impl Drop for GenieService {
    /// Graceful shutdown: flush the remaining queue through one final
    /// wave, then join the dispatchers. No ticket is left dangling.
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock().expect("queue lock");
            q.shutdown = true;
        }
        self.inner.wakeup.notify_all();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
        // dropping the sender unblocks the compactor's recv; any queued
        // compactions are abandoned (the serving state stays valid — a
        // compaction only trades debt for freshness, never correctness)
        *self.compact_tx.lock().expect("compact queue lock") = None;
        if let Some(handle) = self.compactor.take() {
            let _ = handle.join();
        }
        // same protocol for the rebalancer; an abandoned rebalance only
        // forgoes a performance improvement, never correctness
        *self
            .inner
            .rebalance_tx
            .lock()
            .expect("rebalance queue lock") = None;
        if let Some(handle) = self.rebalancer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_core::backend::CpuBackend;
    use genie_core::index::IndexBuilder;
    use genie_core::model::Object;

    fn tiny_index() -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        for i in 0..50u32 {
            b.add_object(&Object::new(vec![i % 7]));
        }
        Arc::new(b.build(None))
    }

    /// A service over `scheduler` with [`tiny_index`] registered as its
    /// one collection.
    fn serve_tiny(
        scheduler: QueryScheduler,
        config: ServiceConfig,
    ) -> (GenieService, CollectionId) {
        let service = GenieService::start_empty(scheduler, config).expect("legal knobs");
        let id = service
            .add_collection("tiny", &tiny_index())
            .expect("index fits");
        (service, id)
    }

    fn cpu_scheduler() -> QueryScheduler {
        QueryScheduler::single(Arc::new(CpuBackend::new()))
    }

    #[test]
    fn constructor_rejects_bad_knobs() {
        let err = GenieService::start_empty(
            cpu_scheduler(),
            ServiceConfig {
                dispatchers: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("dispatcher"), "{err}");
    }

    /// A `k = 0` submit used to panic inside the queue lock and poison
    /// it: every later submit then died on `.expect("queue lock")`.
    #[test]
    fn zero_k_is_refused_and_the_service_keeps_serving() {
        let (service, cid) = serve_tiny(cpu_scheduler(), ServiceConfig::default());
        let refused = service.submit_to(cid, Query::from_keywords(&[1]), 0).wait();
        assert_eq!(refused.unwrap_err(), ServiceError::ZeroK);
        let served = service
            .submit_to(cid, Query::from_keywords(&[1]), 1)
            .wait()
            .expect("a valid submit after a refused one is served");
        assert_eq!(served.hits.len(), 1);
        assert_eq!(service.stats().submitted, 1, "the refusal was never queued");
    }

    /// `max_queue_delay = 0` is "cut immediately when non-empty", not a
    /// misconfiguration (and not a busy spin: the dispatcher parks on
    /// the condvar whenever the queue is empty).
    #[test]
    fn zero_queue_delay_cuts_immediately() {
        // a zero deadline is a legal configuration
        let (service, cid) = serve_tiny(
            cpu_scheduler(),
            ServiceConfig {
                max_queue_delay: Duration::ZERO,
                cache_capacity: 0,
                ..Default::default()
            },
        );
        for i in 0..4 {
            let resp = service
                .submit_to(cid, Query::from_keywords(&[i % 7]), 3)
                .wait()
                .expect("zero-delay service answers every ticket");
            assert!(!resp.hits.is_empty());
        }
        let stats = service.stats();
        assert_eq!(stats.served, 4);
        assert!(
            stats.deadline_triggers >= 1,
            "an aged-zero request must cut by deadline: {stats:?}"
        );
    }

    #[test]
    fn cache_evicts_fifo_and_invalidates_per_collection() {
        let mut cache = ResultCache::new(3);
        let key = |cid: CollectionId, i: u32| cache_key(cid, &Query::from_keywords(&[i]), 3);
        cache.insert(key(0, 1), (vec![], 1));
        cache.insert(key(1, 1), (vec![], 1));
        cache.insert(key(0, 2), (vec![], 1));
        cache.insert(key(0, 3), (vec![], 1)); // evicts key(0, 1)
        assert!(cache.get(&key(0, 1)).is_none());
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(0, 2)).is_some());
        // invalidating collection 0 leaves collection 1's entry alone
        let g0 = cache.generation(0);
        let g1 = cache.generation(1);
        cache.invalidate_collection(0);
        assert!(cache.get(&key(0, 2)).is_none());
        assert!(cache.get(&key(0, 3)).is_none());
        assert!(cache.get(&key(1, 1)).is_some(), "other collection kept");
        assert_eq!(cache.generation(0), g0 + 1);
        assert_eq!(cache.generation(1), g1, "other generation untouched");
    }

    /// Regression: invalidation must purge a collection's keys from the
    /// FIFO `order` queue, not only the map. A leaky invalidate left
    /// ghost keys occupying `cache_capacity`, so one hot collection's
    /// swaps made eviction pop siblings' *live* entries (and let the
    /// map outgrow its capacity once eviction started landing on
    /// ghosts).
    #[test]
    fn invalidation_frees_queue_capacity_and_spares_siblings() {
        let capacity = 3;
        let mut cache = ResultCache::new(capacity);
        let key = |cid: CollectionId, i: u32| cache_key(cid, &Query::from_keywords(&[i]), 3);
        // a sibling entry that must survive collection 0's churn
        cache.insert(key(1, 1), (vec![], 1));
        for round in 0..10u32 {
            cache.insert(key(0, 100 + round), (vec![], 1));
            cache.invalidate_collection(0);
            assert_eq!(
                cache.order.len(),
                cache.map.len(),
                "round {round}: ghost keys left in the FIFO queue"
            );
        }
        assert!(
            cache.get(&key(1, 1)).is_some(),
            "sibling evicted by a hot collection's swap churn"
        );
        // the freed capacity is actually reusable: the sibling plus two
        // fresh entries fit without any eviction
        cache.insert(key(0, 7), (vec![], 1));
        cache.insert(key(0, 8), (vec![], 1));
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(0, 7)).is_some());
        assert!(cache.get(&key(0, 8)).is_some());
        assert!(cache.map.len() <= capacity, "map outgrew its capacity");
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let mut cache = ResultCache::new(0);
        let key = cache_key(0, &Query::from_keywords(&[1]), 3);
        cache.insert(key.clone(), (vec![], 1));
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn budget_closed_batches_are_detected() {
        let b = |k: usize| Batch {
            k,
            requests: vec![0],
        };
        assert!(batches_closed_by_budget(&[b(3), b(3)]));
        assert!(!batches_closed_by_budget(&[b(3), b(5)]));
        assert!(!batches_closed_by_budget(&[b(3)]));
    }

    #[test]
    fn unknown_collection_resolves_to_an_error_ticket() {
        let (service, _) = serve_tiny(cpu_scheduler(), ServiceConfig::default());
        let err = service
            .submit_to(99, Query::from_keywords(&[1]), 3)
            .wait()
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownCollection(99));
        let stats = service.stats();
        assert_eq!(stats.failed_requests, 1);
        assert_eq!(stats.served, 0);
    }

    /// A completion is called exactly once: with the wave's outcome,
    /// or — when the queued request is dropped unanswered — with the
    /// "dropped unserved" error, so nothing waits on it forever.
    #[test]
    fn completions_fire_once_even_when_dropped_unserved() {
        let (service, cid) = serve_tiny(cpu_scheduler(), ServiceConfig::default());
        let (tx, rx) = channel();
        let served = tx.clone();
        service.submit_with(cid, Query::from_keywords(&[1]), 3, move |r| {
            served.send(r).unwrap()
        });
        assert!(rx.recv().unwrap().is_ok());
        drop(Reply(Some(Box::new(move |r| tx.send(r).unwrap()))));
        assert_eq!(rx.recv().unwrap().unwrap_err(), dropped_unserved());
        assert!(rx.recv().is_err(), "each completion fired exactly once");
    }

    #[test]
    fn collections_are_registered_in_order() {
        let service =
            GenieService::start_empty(cpu_scheduler(), ServiceConfig::default()).expect("starts");
        assert!(service.collection_names().is_empty());
        let a = service.add_collection("alpha", &tiny_index()).unwrap();
        let b = service.add_collection("beta", &tiny_index()).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(
            service.collection_names(),
            vec![(0, "alpha".to_string()), (1, "beta".to_string())]
        );
        // submits against both collections are served
        let ta = service.submit_to(a, Query::from_keywords(&[1]), 2);
        let tb = service.submit_to(b, Query::from_keywords(&[1]), 2);
        assert!(ta.wait().is_ok());
        assert!(tb.wait().is_ok());
    }

    /// An admission where only a probe would be active fails open: the
    /// retired (but possibly healthy) peers serve as failover so a
    /// failing probe never becomes a client-visible wave error. And a
    /// backend whose probe is still in flight is not granted a second
    /// concurrent probe.
    #[test]
    fn probe_only_admission_fails_open_and_probes_are_exclusive() {
        let scheduler = QueryScheduler::new(
            vec![Arc::new(CpuBackend::new()), Arc::new(CpuBackend::new())],
            crate::SchedulerConfig::default(),
        );
        let service = GenieService::start_empty(
            scheduler,
            ServiceConfig {
                failure_threshold: 1,
                probe_after_runs: 3,
                ..Default::default()
            },
        )
        .unwrap();
        {
            let mut health = service.inner.health.lock().unwrap();
            for slot in &mut health.slots {
                slot.retired = true;
            }
            // backend 1 is due for a probe on the next run
            health.breakers[1].runs_since_retired = 10;
        }
        let (active, probing) = service.inner.admit_backends();
        assert_eq!(active, vec![true, true], "fail open: peers back the probe");
        assert_eq!(probing, vec![false, true]);
        // while that probe is in flight, a concurrent admission must
        // not grant backend 1 another one
        let (active2, probing2) = service.inner.admit_backends();
        assert_eq!(probing2, vec![false, false]);
        assert_eq!(active2, vec![true, true], "still failing open");
        assert_eq!(service.backend_health()[1].probes, 1);
        // an erroring probe run reports no verdict but releases the
        // in-flight flag so the backend can be probed again
        service.inner.abort_probes(&probing);
        assert!(!service.inner.health.lock().unwrap().breakers[1].probe_in_flight);
        assert!(
            service.backend_health()[1].retired,
            "verdictless: stays out"
        );
    }

    /// With a predicted-scan-cost budget, a backlog whose *predicted
    /// microseconds* (not query count) fill a batch cuts a size wave —
    /// here two ~1 µs requests against a 1.5 µs budget, far below any
    /// count or memory limit.
    #[test]
    fn cost_budget_fires_the_size_trigger() {
        let scheduler = QueryScheduler::new(
            vec![Arc::new(CpuBackend::new())],
            crate::SchedulerConfig {
                batch_cost_budget_us: Some(1.5),
                ..Default::default()
            },
        );
        let (service, cid) = serve_tiny(
            scheduler,
            ServiceConfig {
                // only the size trigger can cut before this deadline
                max_queue_delay: Duration::from_secs(30),
                cache_capacity: 0,
                ..Default::default()
            },
        );
        let t1 = service.submit_to(cid, Query::from_keywords(&[1]), 3);
        let t2 = service.submit_to(cid, Query::from_keywords(&[2]), 3);
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        let stats = service.stats();
        assert!(
            stats.size_triggers >= 1,
            "two over-budget requests must cut by predicted cost: {stats:?}"
        );
        assert_eq!(stats.deadline_triggers, 0, "{stats:?}");
        assert!(stats.predicted_cost_us > 0.0);
        assert!(stats.actual_cost_us > 0.0);
    }

    #[test]
    fn backend_health_starts_clean_and_counts_usage() {
        let (service, cid) = serve_tiny(cpu_scheduler(), ServiceConfig::default());
        let health = service.backend_health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].name, "cpu");
        assert_eq!((health[0].batches, health[0].failed), (0, 0));
        service
            .submit_to(cid, Query::from_keywords(&[1]), 2)
            .wait()
            .unwrap();
        let health = service.backend_health();
        assert_eq!(health[0].batches, 1);
        assert_eq!(health[0].queries, 1);
        assert_eq!(health[0].failed, 0);
        assert!(health[0].last_error.is_none());
    }
}

//! # genie-service — the serving stack: typed facade, admission, scheduling
//!
//! The core engine answers one synchronous batch at a time. A serving
//! system sees something very different: many concurrent clients, each
//! submitting *typed* queries (documents, rows, sequences, trees,
//! graphs, points) with its *own* `k`, against many indexed data sets,
//! *over time*. This crate bridges the two at three levels:
//!
//! * [`GenieDb`] / [`Collection`] — the **typed facade**: one database
//!   over a backend fleet; every
//!   [`Domain`](genie_core::domain::Domain) implementation becomes a
//!   [`Collection`] whose `search`/`submit` speak the domain's own
//!   types and route through the shared service. No caller assembles a
//!   raw [`Query`]. Collections are **live**: typed
//!   [`insert`](Collection::insert) / [`delete`](Collection::delete) /
//!   [`upsert`](Collection::upsert) batches absorb into a delta shard
//!   and tombstone set (no reindex), every answer provably equal to a
//!   from-scratch rebuild, and a background compactor folds the debt
//!   behind a generation swap. Failures are typed ([`DbError`] over
//!   [`ServiceError`]) end to end.
//! * [`GenieService`] — the **always-on front-end**: an admission queue
//!   any thread can [`submit_to`](GenieService::submit_to) for a
//!   [`ResponseTicket`], with background dispatcher threads that cut
//!   micro-batch waves on a **size trigger** (queued requests can fill
//!   `max_batch_queries` under the c-PQ budget, detected with the same
//!   [`plan_batches`] the scheduler executes) or a **deadline trigger**
//!   (the oldest queued request has aged `max_queue_delay`), and
//!   per-backend lifetime health counters ([`BackendHealth`]). Every
//!   admitted request is answered by its wave's shard runs. See
//!   [`GenieService`] for the full trigger semantics.
//! * [`QueryScheduler`] — the synchronous wave engine underneath:
//!
//! 1. **Admission** — clients submit [`QueryRequest`]s (query + per-client
//!    `k`); the scheduler owns the batching policy.
//! 2. **Micro-batching** ([`plan_batches`]) — requests are grouped by `k`
//!    (a c-PQ batch shares one `k`) and packed into device-sized batches:
//!    at most `max_batch_queries` per batch, and, when the executing
//!    backend has bounded memory, total c-PQ footprint within budget. The
//!    footprint is computed from the same [`CpqLayout`] the engine
//!    allocates, with the count bound from
//!    [`genie_core::model::count_bound`] — so the plan's
//!    memory math is exactly the engine's. Packing can additionally be
//!    **cost-aware** ([`plan_batches_with_cost`], enabled by
//!    [`SchedulerConfig::batch_cost_budget_us`]): each request carries a
//!    *predicted scan cost* in microseconds — its postings count from
//!    the index Position Map
//!    ([`BackendIndex::predicted_scan_postings`](genie_core::backend::BackendIndex::predicted_scan_postings)),
//!    priced by a [`ScanCostModel`] — and a batch also closes when the
//!    next request would push its summed predicted cost past the
//!    budget. Per-query scan cost varies by orders of magnitude between
//!    sparse and dense regimes, so cutting waves by predicted
//!    microseconds rather than query count keeps wave latency bounded
//!    regardless of regime mix. Cost packing changes only the
//!    *grouping*; the results are bit-identical to count-packed plans
//!    (property-tested in `tests/scheduler_props.rs`).
//! 3. **Dispatch** — one worker per [`SearchBackend`] drains the batch
//!    queue concurrently (a GPU engine and the CPU backend can serve the
//!    same traffic side by side).
//! 4. **Routing** — per-query results are merged back into per-request
//!    [`QueryResponse`]s in submission order, with per-stage
//!    [`StageProfile`] totals aggregated per backend and overall.
//!
//! Batching is *transparent*: counts and AuditThresholds are always
//! identical to a monolithic `Engine::search` over the same queries,
//! and with a homogeneous deterministic fleet (e.g. single-worker
//! engines) the returned ids are identical too — property-tested
//! across randomized batch splits in `tests/scheduler_props.rs`. With
//! a *mixed* fleet, ids among objects tied at the k-th count depend on
//! which backend serves the batch (each backend breaks such ties its
//! own way, as the paper permits), so only counts and ATs are
//! fleet-independent.
//!
//! **Fault isolation**: a backend whose `search_batch` panics mid-wave
//! no longer poisons the other in-flight clients — the worker catches
//! the panic, hands the batch back to the queue for the surviving
//! backends, and the backend is reported in
//! [`BackendUsage::failed`]. Only when *no* backend can serve a batch
//! does the wave fail, as an `Err` naming the panics.
//!
//! **Timing precision**: every wall-clock figure here
//! ([`ScheduleReport::wall_us`], the per-stage
//! [`StageProfile`] totals) is computed
//! with [`genie_core::exec::elapsed_us`], which keeps *fractional*
//! microseconds. The previous `as_micros()` conversion truncated to
//! whole µs, collapsing sub-µs stages to exactly 0 and silently
//! under-reporting precisely the short, highly-batched waves this
//! serving path exists to produce.

mod db;
mod drain;
mod service;

pub use db::{Collection, DbError, GenieDb, TypedTicket};
pub use drain::{ConnectionGuard, ConnectionRegistry};
// the durability types that appear in this crate's public signatures
// ([`GenieDb::open_at_vfs`], [`GenieService::attach_store`], ...)
pub use genie_store::{DiskVfs, DurableStore, MemVfs, RecoveredCollection, RecoveryReport, Vfs};
pub use service::{
    BackendHealth, CollectionId, GenieService, MutationStatus, ResponseTicket, ServiceConfig,
    ServiceError, ServiceStats, TicketResult, Trigger,
};

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use genie_core::backend::{BackendIndex, SearchBackend};
use genie_core::cpq::CpqLayout;
use genie_core::exec::{elapsed_us, StageProfile};
use genie_core::index::InvertedIndex;
use genie_core::model::{count_bound, Query};
use genie_core::topk::TopHit;

/// One client's query: what to search and how many results to return.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Caller-chosen id, echoed in the response (e.g. a connection id).
    pub client_id: u64,
    pub query: Query,
    pub k: usize,
}

impl QueryRequest {
    pub fn new(client_id: u64, query: Query, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            client_id,
            query,
            k,
        }
    }
}

/// The routed answer for one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    pub client_id: u64,
    /// Up to `k` hits, count-descending.
    pub hits: Vec<TopHit>,
    /// Final AuditThreshold (`AT - 1` is the k-th match count).
    pub audit_threshold: u32,
}

/// Batching policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Hard ceiling on queries per micro-batch (the paper submits 1024
    /// queries per batch on a TITAN X).
    pub max_batch_queries: usize,
    /// Device-memory budget for one batch's c-PQ state. `None` derives
    /// it from the backends' capability reports (smallest bounded
    /// backend, minus the index's device footprint); backends that
    /// report no bound leave batches limited by `max_batch_queries`
    /// only.
    pub cpq_budget_bytes: Option<u64>,
    /// Predicted-scan-cost budget for one micro-batch, in microseconds.
    /// `Some(b)` closes a batch once the *predicted* scan cost of its
    /// requests (postings counts priced by [`ScanCostModel`]) would
    /// exceed `b` — the size trigger then cuts waves by predicted scan
    /// microseconds rather than query count, so one dense-regime query
    /// (100k+ postings) no longer rides in the same batch as a thousand
    /// sparse ones. `None` (the default) packs by count and memory
    /// only. Cost packing never changes results, only grouping.
    pub batch_cost_budget_us: Option<f64>,
    /// The **seed** for the online per-backend cost model: every
    /// backend starts pricing predicted postings with this
    /// [`ScanCostModel`], then drifts toward its own observed
    /// predicted-vs-actual ratio after every wave (see
    /// [`OnlineCostModel`]). Wave packing and the predicted-vs-actual
    /// accounting in [`ScheduleReport`] use the *learned* fleet model
    /// ([`QueryScheduler::cost_model`]), not this constant — the hand
    /// calibration only decides where learning starts.
    pub cost_model: ScanCostModel,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_batch_queries: 1024,
            cpq_budget_bytes: None,
            batch_cost_budget_us: None,
            cost_model: ScanCostModel::default(),
        }
    }
}

/// Linear scan-cost model: `predicted_us = base_us + us_per_posting *
/// postings`. Match counting is one table increment per posting, so a
/// linear model captures the dominant term; `base_us` absorbs the
/// per-query fixed overhead (Position-Map lookups, scratch reset,
/// top-k finalisation floor) that dominates sparse queries.
///
/// The defaults are calibrated against `BENCH_cpu_kernel.json` on the
/// bench host: the dense row scans ~512k postings in ~290 µs
/// (≈ 0.0006 µs/posting) and the sparse row answers ~16-posting
/// queries in ~1 µs. Absolute accuracy is *not* required — the model
/// only decides grouping, never results, and [`ScheduleReport`]'s
/// predicted-vs-actual columns exist precisely to observe and refit
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanCostModel {
    /// Fixed per-query cost, microseconds.
    pub base_us: f64,
    /// Marginal cost per scanned posting, microseconds.
    pub us_per_posting: f64,
}

impl Default for ScanCostModel {
    fn default() -> Self {
        Self {
            base_us: 1.0,
            us_per_posting: 0.0006,
        }
    }
}

impl ScanCostModel {
    /// Predicted scan microseconds for a query visiting `postings`
    /// postings (see
    /// [`BackendIndex::predicted_scan_postings`](genie_core::backend::BackendIndex::predicted_scan_postings)).
    pub fn predict_us(&self, postings: u64) -> f64 {
        self.base_us + self.us_per_posting * postings as f64
    }

    /// Predicted microseconds for a whole batch: `queries` queries
    /// scanning `postings` postings in total.
    pub fn predict_batch_us(&self, queries: u64, postings: u64) -> f64 {
        self.base_us * queries as f64 + self.us_per_posting * postings as f64
    }
}

/// One backend's learned [`ScanCostModel`] plus how many wave
/// observations shaped it.
#[derive(Debug, Clone, Copy)]
pub struct BackendCostModel {
    pub model: ScanCostModel,
    /// Waves with at least one query on this backend folded so far;
    /// `0` means the model is still the configured seed.
    pub observations: u64,
}

/// Per-backend scan-cost models learned **online** from
/// predicted-vs-actual gaps.
///
/// Every backend starts at the configured seed
/// ([`SchedulerConfig::cost_model`]). After each wave, every backend
/// that served at least one query contributes one observation: the
/// ratio of its measured `search_batch` wall-clock to what its *own
/// current* model predicted for the queries/postings it served. Both
/// coefficients move toward the observation with a multiplicative EWMA,
/// each weighted by its share of the prediction — `base_us` learns from
/// sparse (per-query-overhead-dominated) waves, `us_per_posting` from
/// dense ones:
///
/// ```text
/// ratio  = clamp(actual / predicted, 1/32, 32)
/// w_base = base_us * queries / predicted      (w_post = 1 - w_base)
/// base_us        *= 1 + α·w_base·(ratio - 1)
/// us_per_posting *= 1 + α·w_post·(ratio - 1)
/// ```
///
/// At the fixed point each backend's model predicts its own wall-clock.
/// This replaces the hand-calibrated constants for wave packing — the
/// scheduler packs with the learned fleet-mean model
/// ([`QueryScheduler::cost_model`]).
pub struct OnlineCostModel {
    alpha: f64,
    state: Mutex<Vec<BackendCostModel>>,
}

/// A single observation may move the model by at most this factor.
const MAX_OBSERVED_RATIO: f64 = 32.0;

impl OnlineCostModel {
    /// EWMA weight of one observation.
    pub const ALPHA: f64 = 0.2;

    /// All `num_backends` models start at `seed`.
    pub fn new(seed: ScanCostModel, num_backends: usize) -> Self {
        Self {
            alpha: Self::ALPHA,
            state: Mutex::new(vec![
                BackendCostModel {
                    model: seed,
                    observations: 0,
                };
                num_backends
            ]),
        }
    }

    /// Fold one wave's per-backend usage into the models.
    pub fn observe(&self, per_backend: &[BackendUsage]) {
        let mut state = self.state.lock().expect("cost model poisoned");
        for (s, u) in state.iter_mut().zip(per_backend) {
            if u.queries == 0 || u.actual_cost_us <= 0.0 {
                continue;
            }
            let predicted = s.model.predict_batch_us(u.queries as u64, u.postings);
            if predicted <= 0.0 || !predicted.is_finite() {
                continue;
            }
            let ratio =
                (u.actual_cost_us / predicted).clamp(1.0 / MAX_OBSERVED_RATIO, MAX_OBSERVED_RATIO);
            let w_base = (s.model.base_us * u.queries as f64) / predicted;
            let w_post = 1.0 - w_base;
            s.model.base_us *= 1.0 + self.alpha * w_base * (ratio - 1.0);
            s.model.us_per_posting *= 1.0 + self.alpha * w_post * (ratio - 1.0);
            s.observations += 1;
        }
    }

    /// Snapshot of every backend's learned model, fleet order.
    pub fn snapshot(&self) -> Vec<BackendCostModel> {
        self.state.lock().expect("cost model poisoned").clone()
    }

    /// The fleet model used for wave packing: the mean of the backends
    /// that have observations (any backend may take any batch off the
    /// shared queue), or the seed while nothing has been observed.
    pub fn fleet_model(&self) -> ScanCostModel {
        let state = self.state.lock().expect("cost model poisoned");
        let observed: Vec<&BackendCostModel> =
            state.iter().filter(|s| s.observations > 0).collect();
        if observed.is_empty() {
            return state[0].model;
        }
        let n = observed.len() as f64;
        ScanCostModel {
            base_us: observed.iter().map(|s| s.model.base_us).sum::<f64>() / n,
            us_per_posting: observed.iter().map(|s| s.model.us_per_posting).sum::<f64>() / n,
        }
    }
}

/// One planned micro-batch: positions into the request slice, all
/// sharing `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub k: usize,
    pub requests: Vec<usize>,
}

/// Aggregated execution accounting for one [`QueryScheduler::run`].
#[derive(Debug, Clone, Default)]
pub struct ScheduleReport {
    /// Micro-batches executed.
    pub batches: usize,
    /// Stage totals over every batch on every backend.
    pub stages: StageProfile,
    /// Simulated H2D time of the per-backend index uploads.
    pub upload_sim_us: f64,
    /// Wall-clock of the whole run (admission to routing), microseconds.
    pub wall_us: f64,
    /// Summed [`ScanCostModel`] prediction over every served batch —
    /// what the planner *believed* this wave would cost. Compare with
    /// [`actual_cost_us`](Self::actual_cost_us) to observe model fit
    /// (fleet-routing groundwork).
    pub predicted_cost_us: f64,
    /// Summed host wall-clock of the `search_batch` calls that served
    /// this wave, microseconds. Unlike [`wall_us`](Self::wall_us) this
    /// excludes planning and routing, so it is the directly comparable
    /// "actual" to [`predicted_cost_us`](Self::predicted_cost_us).
    pub actual_cost_us: f64,
    pub per_backend: Vec<BackendUsage>,
}

/// A request's routed result while it waits for the rest of its wave:
/// the hits plus the final AuditThreshold.
type ResultSlot = Option<(Vec<TopHit>, u32)>;

/// An index uploaded to every backend of a scheduler, reusable across
/// request waves (see [`QueryScheduler::prepare`]).
pub struct PreparedIndex {
    index: Arc<InvertedIndex>,
    bindexes: Vec<BackendIndex>,
    /// Total simulated H2D time of the per-backend uploads.
    pub upload_sim_us: f64,
}

impl PreparedIndex {
    pub fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// Predicted scan cost of each request in microseconds: its
    /// postings count, read off the prepared handle
    /// ([`BackendIndex::predicted_scan_postings`](genie_core::backend::BackendIndex::predicted_scan_postings)),
    /// priced by `model`. This is the `predicted_cost_us` argument
    /// [`plan_batches_with_cost`] consumes.
    pub fn predicted_costs(&self, requests: &[QueryRequest], model: &ScanCostModel) -> Vec<f64> {
        let bindex = &self.bindexes[0]; // every backend shares the index
        requests
            .iter()
            .map(|r| model.predict_us(bindex.predicted_scan_postings(&r.query)))
            .collect()
    }

    /// Predicted postings scanned by each request (the raw,
    /// model-independent quantity behind
    /// [`predicted_costs`](Self::predicted_costs)).
    pub fn predicted_postings(&self, requests: &[QueryRequest]) -> Vec<u64> {
        let bindex = &self.bindexes[0]; // every backend shares the index
        requests
            .iter()
            .map(|r| bindex.predicted_scan_postings(&r.query))
            .collect()
    }
}

/// One backend's share of a run.
#[derive(Debug, Clone)]
pub struct BackendUsage {
    pub name: &'static str,
    pub batches: usize,
    pub queries: usize,
    /// Predicted postings scanned by the batches this backend served —
    /// the device-independent work measure the online cost model prices.
    pub postings: u64,
    pub stages: StageProfile,
    /// Predicted scan cost of the batches this backend served,
    /// microseconds (see [`ScheduleReport::predicted_cost_us`]).
    pub predicted_cost_us: f64,
    /// Host wall-clock its `search_batch` calls actually took,
    /// microseconds.
    pub actual_cost_us: f64,
    /// `Some(panic message)` when the backend's `search_batch` panicked
    /// mid-wave. The failing batch is handed back to the queue for the
    /// remaining backends; this backend serves nothing further in the
    /// wave.
    pub failed: Option<String>,
}

/// Group requests into executable micro-batches.
///
/// Requests are grouped by `k` (one c-PQ batch shares a single `k`),
/// keeping submission order within each group, then greedily packed
/// while both limits hold:
///
/// * at most `max_batch_queries` requests per batch;
/// * when `budget` is given, the batch's total c-PQ bytes — computed
///   with the engine's own [`CpqLayout`] under the count bound of the
///   queries packed so far — stay within it. A single request whose
///   lone-query footprint already exceeds the budget still gets its own
///   batch (the engine is left to reject or absorb it; splitting can't
///   help).
///
/// This is [`plan_batches_with_cost`] with cost packing disabled.
pub fn plan_batches(
    requests: &[QueryRequest],
    num_objects: usize,
    max_object_len: usize,
    max_batch_queries: usize,
    budget: Option<u64>,
) -> Vec<Batch> {
    plan_batches_with_cost(
        requests,
        num_objects,
        max_object_len,
        max_batch_queries,
        budget,
        None,
        None,
    )
}

/// [`plan_batches`] with an additional *predicted-scan-cost* limit.
///
/// `predicted_cost_us` gives each request's predicted scan cost in
/// microseconds (same indexing as `requests`; typically
/// [`PreparedIndex::predicted_costs`]); `cost_budget_us` is the ceiling
/// one batch's summed predicted cost may reach. A batch then closes on
/// whichever limit binds first — query count, c-PQ bytes, or predicted
/// microseconds. A lone request whose own predicted cost already
/// exceeds the budget still gets its own batch (splitting a single
/// query can't help), mirroring the memory-budget rule. When either
/// cost argument is `None`, cost packing is off and the plan is
/// exactly [`plan_batches`]'s.
///
/// Any cost budget produces the *same results* as any other (only the
/// grouping differs): batching is transparent, so responses are
/// bit-identical to count-packed plans — property-tested in
/// `tests/scheduler_props.rs`.
pub fn plan_batches_with_cost(
    requests: &[QueryRequest],
    num_objects: usize,
    max_object_len: usize,
    max_batch_queries: usize,
    budget: Option<u64>,
    predicted_cost_us: Option<&[f64]>,
    cost_budget_us: Option<f64>,
) -> Vec<Batch> {
    assert!(max_batch_queries >= 1, "batches must hold at least 1 query");
    if let Some(costs) = predicted_cost_us {
        assert_eq!(
            costs.len(),
            requests.len(),
            "one predicted cost per request"
        );
    }
    // group by k, stable in submission order
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| requests[i].k);

    let fits = |n_queries: usize, bound: u32, k: usize| -> bool {
        match budget {
            None => true,
            Some(b) => {
                let layout = CpqLayout {
                    num_queries: n_queries,
                    num_objects,
                    bound,
                    k,
                };
                layout.total_bytes() <= b
            }
        }
    };
    let cost_of = |i: usize| -> f64 { predicted_cost_us.map_or(0.0, |costs| costs[i]) };
    let cost_fits = |batch_cost: f64| -> bool {
        match cost_budget_us {
            None => true,
            Some(b) => batch_cost <= b,
        }
    };

    let mut batches: Vec<Batch> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_k = 0usize;
    let mut current_bound = 1u32;
    let mut current_cost = 0.0f64;

    for &i in &order {
        let r = &requests[i];
        let r_bound = count_bound(std::slice::from_ref(&r.query), max_object_len);
        let grown_bound = current_bound.max(r_bound);
        let same_k = !current.is_empty() && r.k == current_k;
        if same_k
            && current.len() < max_batch_queries
            && fits(current.len() + 1, grown_bound, current_k)
            && cost_fits(current_cost + cost_of(i))
        {
            current.push(i);
            current_bound = grown_bound;
            current_cost += cost_of(i);
        } else {
            if !current.is_empty() {
                batches.push(Batch {
                    k: current_k,
                    requests: std::mem::take(&mut current),
                });
            }
            current.push(i);
            current_k = r.k;
            current_bound = r_bound;
            current_cost = cost_of(i);
        }
    }
    if !current.is_empty() {
        batches.push(Batch {
            k: current_k,
            requests: current,
        });
    }
    batches
}

/// The scheduler: owns a set of backends and serves request waves
/// against a shared index.
pub struct QueryScheduler {
    backends: Vec<Arc<dyn SearchBackend>>,
    config: SchedulerConfig,
    /// Per-backend scan-cost models, learned from every wave served.
    online: OnlineCostModel,
}

impl QueryScheduler {
    /// Build a scheduler over `backends` with `config`.
    ///
    /// Misconfiguration fails here, at construction, not at serve time:
    /// a `max_batch_queries` of 0 used to survive until a deep
    /// `assert!` inside [`plan_batches`] fired on the first wave.
    pub fn new(backends: Vec<Arc<dyn SearchBackend>>, config: SchedulerConfig) -> Self {
        assert!(!backends.is_empty(), "need at least one backend");
        assert!(
            config.max_batch_queries >= 1,
            "SchedulerConfig::max_batch_queries must be at least 1 \
             (a micro-batch cannot hold zero queries)"
        );
        if let Some(b) = config.cpq_budget_bytes {
            assert!(
                b > 0,
                "SchedulerConfig::cpq_budget_bytes must be positive when set \
                 (use None to derive the budget from backend capabilities)"
            );
        }
        if let Some(b) = config.batch_cost_budget_us {
            assert!(
                b > 0.0 && b.is_finite(),
                "SchedulerConfig::batch_cost_budget_us must be positive and finite when set \
                 (use None to pack by count and memory only)"
            );
        }
        let online = OnlineCostModel::new(config.cost_model, backends.len());
        Self {
            backends,
            config,
            online,
        }
    }

    /// Single-backend scheduler with default batching policy.
    pub fn single(backend: Arc<dyn SearchBackend>) -> Self {
        Self::new(vec![backend], SchedulerConfig::default())
    }

    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The learned fleet-mean [`ScanCostModel`] wave packing and the
    /// size trigger price postings with — starts at the configured
    /// seed, then tracks observed `search_batch` wall-clock (see
    /// [`OnlineCostModel`]).
    pub fn cost_model(&self) -> ScanCostModel {
        self.online.fleet_model()
    }

    /// Every backend's learned cost model, fleet order.
    pub fn backend_cost_models(&self) -> Vec<BackendCostModel> {
        self.online.snapshot()
    }

    /// The fleet this scheduler dispatches over, in construction order.
    pub fn backends(&self) -> &[Arc<dyn SearchBackend>] {
        &self.backends
    }

    /// The c-PQ budget one batch must respect: the configured override,
    /// or the tightest of the backends' own batch budgets for their
    /// prepared handles.
    pub(crate) fn effective_budget(&self, prepared: &PreparedIndex) -> Option<u64> {
        if let Some(b) = self.config.cpq_budget_bytes {
            return Some(b);
        }
        self.backends
            .iter()
            .zip(&prepared.bindexes)
            .filter_map(|(backend, bindex)| backend.batch_memory_budget(bindex))
            .min()
    }

    /// Upload `index` to every backend once. The returned handle can
    /// serve any number of [`QueryScheduler::run_prepared`] waves —
    /// serving loops should prepare once per index, not per wave.
    pub fn prepare(&self, index: &Arc<InvertedIndex>) -> Result<PreparedIndex, String> {
        let mut bindexes = Vec::with_capacity(self.backends.len());
        let mut upload_sim_us = 0.0;
        for backend in &self.backends {
            let bindex = backend.upload(Arc::clone(index))?;
            upload_sim_us += bindex.upload_sim_us;
            bindexes.push(bindex);
        }
        Ok(PreparedIndex {
            index: Arc::clone(index),
            bindexes,
            upload_sim_us,
        })
    }

    /// Convenience: prepare + serve one wave. Re-pays the per-backend
    /// index upload every call; long-lived serving should
    /// [`prepare`](Self::prepare) once and call
    /// [`run_prepared`](Self::run_prepared) per wave.
    pub fn run(
        &self,
        index: &Arc<InvertedIndex>,
        requests: &[QueryRequest],
    ) -> Result<(Vec<QueryResponse>, ScheduleReport), String> {
        let prepared = self.prepare(index)?;
        self.run_prepared(&prepared, requests)
    }

    /// Serve one wave of requests against an index prepared with
    /// [`prepare`](Self::prepare): plan micro-batches, dispatch them
    /// across all backends concurrently, route merged results back in
    /// submission order.
    pub fn run_prepared(
        &self,
        prepared: &PreparedIndex,
        requests: &[QueryRequest],
    ) -> Result<(Vec<QueryResponse>, ScheduleReport), String> {
        self.run_prepared_active(prepared, requests, &vec![true; self.backends.len()])
    }

    /// [`run_prepared`](Self::run_prepared) restricted to the backends
    /// `active` marks `true` (fleet order). Inactive backends spawn no
    /// worker and appear in [`ScheduleReport::per_backend`] with an
    /// all-zero idle [`BackendUsage`], so reports stay fleet-indexed.
    /// This is the dispatch surface of the service's circuit breaker: a
    /// retired backend is masked out of a run without rebuilding the
    /// scheduler. At least one backend must be active.
    pub fn run_prepared_active(
        &self,
        prepared: &PreparedIndex,
        requests: &[QueryRequest],
        active: &[bool],
    ) -> Result<(Vec<QueryResponse>, ScheduleReport), String> {
        assert_eq!(
            active.len(),
            self.backends.len(),
            "active mask must cover the whole fleet"
        );
        if !active.iter().any(|&a| a) {
            return Err("no active backend: the mask retired the entire fleet".into());
        }
        let started = Instant::now();
        let index = &prepared.index;
        let bindexes = &prepared.bindexes;
        let mut report = ScheduleReport {
            upload_sim_us: prepared.upload_sim_us,
            ..Default::default()
        };

        let budget = self.effective_budget(prepared);
        // per-request predicted scan cost: drives cost packing when the
        // budget is set, and the predicted-vs-actual report either way.
        // Priced with the *learned* fleet model, not the seed constants.
        let model = self.cost_model();
        let postings = prepared.predicted_postings(requests);
        let costs: Vec<f64> = postings.iter().map(|&p| model.predict_us(p)).collect();
        let batches = plan_batches_with_cost(
            requests,
            index.num_objects() as usize,
            index.max_object_len(),
            self.config.max_batch_queries,
            budget,
            Some(&costs),
            self.config.batch_cost_budget_us,
        );
        report.batches = batches.len();

        // Work queue + per-request result slots. `in_flight` keeps idle
        // workers parked while a busy peer might still panic and hand
        // its batch back: a worker may only exit once the queue is
        // empty AND no batch can return to it.
        struct WaveQueue {
            batches: VecDeque<Batch>,
            in_flight: usize,
        }
        let queue = Mutex::new(WaveQueue {
            batches: batches.into(),
            in_flight: 0,
        });
        let queue_cv = Condvar::new();
        let slots: Mutex<Vec<ResultSlot>> = Mutex::new(vec![None; requests.len()]);

        let idle = |backend: &Arc<dyn SearchBackend>| BackendUsage {
            name: backend.capabilities().name,
            batches: 0,
            queries: 0,
            postings: 0,
            stages: StageProfile::default(),
            predicted_cost_us: 0.0,
            actual_cost_us: 0.0,
            failed: None,
        };
        // one backend's worker loop: drain batches until the queue is
        // empty for good
        let serve = |backend: &Arc<dyn SearchBackend>, bindex: &BackendIndex| {
            let mut usage = idle(backend);
            loop {
                let batch = {
                    let mut q = queue.lock().expect("queue poisoned");
                    loop {
                        if let Some(b) = q.batches.pop_front() {
                            q.in_flight += 1;
                            break Some(b);
                        }
                        if q.in_flight == 0 {
                            break None; // drained for good
                        }
                        // a busy peer may panic and return its batch —
                        // park, don't exit
                        q = queue_cv.wait(q).expect("queue poisoned");
                    }
                };
                let batch = match batch {
                    Some(b) => b,
                    None => break,
                };
                let queries: Vec<Query> = batch
                    .requests
                    .iter()
                    .map(|&i| requests[i].query.clone())
                    .collect();
                // a panicking backend must not poison the whole wave:
                // hand its batch back for the surviving backends and
                // retire this worker
                let batch_started = Instant::now();
                let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    backend.search_batch(bindex, &queries, batch.k)
                })) {
                    Ok(out) => out,
                    Err(payload) => {
                        {
                            let mut q = queue.lock().expect("queue poisoned");
                            q.in_flight -= 1;
                            q.batches.push_front(batch);
                        }
                        queue_cv.notify_all();
                        usage.failed = Some(panic_message(payload.as_ref()));
                        break;
                    }
                };
                usage.actual_cost_us += elapsed_us(batch_started);
                usage.predicted_cost_us += batch.requests.iter().map(|&i| costs[i]).sum::<f64>();
                usage.postings += batch.requests.iter().map(|&i| postings[i]).sum::<u64>();
                usage.batches += 1;
                usage.queries += batch.requests.len();
                usage.stages.accumulate(&out.profile);
                {
                    let mut slots = slots.lock().expect("slots poisoned");
                    for (pos, (&req_idx, hits)) in
                        batch.requests.iter().zip(out.results).enumerate()
                    {
                        slots[req_idx] = Some((hits, out.audit_thresholds[pos]));
                    }
                }
                {
                    let mut q = queue.lock().expect("queue poisoned");
                    q.in_flight -= 1;
                }
                queue_cv.notify_all();
            }
            usage
        };

        // The caller takes one share: it serves the first active
        // backend itself and spawns a worker only for each further one
        // (a one-backend fleet spawns nothing). Masked-out backends
        // keep their idle, fleet-ordered placeholder.
        let mine = active.iter().position(|&a| a).expect("checked above");
        let mut usages: Vec<BackendUsage> = self.backends.iter().map(idle).collect();
        std::thread::scope(|scope| {
            let serve = &serve;
            let spawned: Vec<_> = (0..self.backends.len())
                .filter(|&i| active[i] && i != mine)
                .map(|i| {
                    (
                        i,
                        scope.spawn(move || serve(&self.backends[i], &bindexes[i])),
                    )
                })
                .collect();
            usages[mine] = serve(&self.backends[mine], &bindexes[mine]);
            for (i, worker) in spawned {
                usages[i] = worker.join().expect("backend worker panicked");
            }
        });

        for usage in &usages {
            report.stages.accumulate(&usage.stages);
            report.predicted_cost_us += usage.predicted_cost_us;
            report.actual_cost_us += usage.actual_cost_us;
        }
        // every wave is a calibration sample: fold predicted-vs-actual
        // into the per-backend online cost models
        self.online.observe(&usages);
        report.per_backend = usages;
        report.wall_us = elapsed_us(started);

        let slots = slots.into_inner().expect("slots poisoned");
        let unserved = slots.iter().filter(|s| s.is_none()).count();
        if unserved > 0 {
            let failures: Vec<String> = report
                .per_backend
                .iter()
                .filter_map(|u| u.failed.as_ref().map(|m| format!("{}: {m}", u.name)))
                .collect();
            return Err(format!(
                "{unserved} request(s) left unserved: every backend able to take their \
                 batches failed [{}]",
                failures.join("; ")
            ));
        }
        let responses = slots
            .into_iter()
            .zip(requests)
            .map(|(slot, req)| {
                let (hits, audit_threshold) =
                    slot.expect("every request is a member of exactly one batch");
                QueryResponse {
                    client_id: req.client_id,
                    hits,
                    audit_threshold,
                }
            })
            .collect();
        Ok((responses, report))
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "backend panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_core::backend::CpuBackend;
    use genie_core::index::IndexBuilder;
    use genie_core::model::Object;

    fn requests(ks: &[usize]) -> Vec<QueryRequest> {
        ks.iter()
            .enumerate()
            .map(|(i, &k)| QueryRequest::new(i as u64, Query::from_keywords(&[i as u32 % 5]), k))
            .collect()
    }

    #[test]
    fn batches_group_by_k_and_respect_the_size_cap() {
        let reqs = requests(&[5, 3, 5, 3, 5, 5, 3]);
        let batches = plan_batches(&reqs, 100, 4, 2, None);
        // k=3 group: requests 1,3,6 -> two batches; k=5 group: 0,2,4,5 -> two
        assert_eq!(batches.len(), 4);
        for b in &batches {
            assert!(b.requests.len() <= 2);
            assert!(b.requests.windows(2).all(|w| w[0] < w[1]), "stable order");
            for &i in &b.requests {
                assert_eq!(reqs[i].k, b.k);
            }
        }
        let mut covered: Vec<usize> = batches.iter().flat_map(|b| b.requests.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn batches_respect_the_cpq_memory_budget() {
        let reqs = requests(&[4; 12]);
        let bound = count_bound(std::slice::from_ref(&reqs[0].query), 6);
        let per_query = CpqLayout {
            num_queries: 1,
            num_objects: 500,
            bound,
            k: 4,
        }
        .bytes_per_query();
        // room for three queries per batch
        let budget = per_query * 3;
        let batches = plan_batches(&reqs, 500, 6, 1024, Some(budget));
        assert_eq!(batches.len(), 4);
        for b in &batches {
            assert_eq!(b.requests.len(), 3);
            let layout = CpqLayout {
                num_queries: b.requests.len(),
                num_objects: 500,
                bound,
                k: b.k,
            };
            assert!(layout.total_bytes() <= budget);
        }
    }

    #[test]
    fn an_oversized_request_still_gets_a_batch() {
        let reqs = requests(&[4]);
        let batches = plan_batches(&reqs, 1_000_000, 50, 1024, Some(16));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].requests, vec![0]);
    }

    #[test]
    fn cost_budget_closes_batches_by_predicted_microseconds() {
        let reqs = requests(&[3; 6]);
        // two cheap, one expensive, three cheap: the expensive request
        // must not share a batch with anything under a 5 µs budget
        let costs = [2.0, 2.0, 40.0, 2.0, 2.0, 2.0];
        let batches = plan_batches_with_cost(&reqs, 100, 4, 1024, None, Some(&costs), Some(5.0));
        for b in &batches {
            let total: f64 = b.requests.iter().map(|&i| costs[i]).sum();
            assert!(
                total <= 5.0 || b.requests.len() == 1,
                "batch {:?} predicted {total} µs over budget",
                b.requests
            );
        }
        // the 40 µs request rides alone even though it exceeds the
        // budget by itself (splitting one query can't help)
        assert!(batches.iter().any(|b| b.requests == vec![2]));
        // every request is covered exactly once
        let mut covered: Vec<usize> = batches.iter().flat_map(|b| b.requests.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn disabled_cost_packing_is_plain_plan_batches() {
        let reqs = requests(&[5, 3, 5, 3, 5, 5, 3]);
        let costs = vec![1000.0; reqs.len()]; // huge, but no budget set
        assert_eq!(
            plan_batches_with_cost(&reqs, 100, 4, 2, None, Some(&costs), None),
            plan_batches(&reqs, 100, 4, 2, None)
        );
        assert_eq!(
            plan_batches_with_cost(&reqs, 100, 4, 2, None, None, Some(0.5)),
            plan_batches(&reqs, 100, 4, 2, None),
            "a budget without per-request costs has nothing to bind on"
        );
    }

    #[test]
    fn scan_cost_model_is_linear_in_postings() {
        let model = ScanCostModel {
            base_us: 2.0,
            us_per_posting: 0.5,
        };
        assert_eq!(model.predict_us(0), 2.0);
        assert_eq!(model.predict_us(10), 7.0);
    }

    #[test]
    fn empty_request_wave_is_fine() {
        let index = {
            let mut b = IndexBuilder::new();
            b.add_object(&Object::new(vec![1]));
            Arc::new(b.build(None))
        };
        let scheduler = QueryScheduler::single(Arc::new(CpuBackend::new()));
        let (responses, report) = scheduler.run(&index, &[]).unwrap();
        assert!(responses.is_empty());
        assert_eq!(report.batches, 0);
    }

    #[test]
    fn prepared_index_serves_many_waves_without_reupload() {
        use genie_core::exec::Engine;
        use gpu_sim::Device;

        let objects: Vec<Object> = (0..30).map(|i| Object::new(vec![i % 6])).collect();
        let index = {
            let mut b = IndexBuilder::new();
            b.add_objects(objects.iter());
            Arc::new(b.build(None))
        };
        let scheduler =
            QueryScheduler::single(Arc::new(Engine::new(Arc::new(Device::with_defaults()))));
        let prepared = scheduler.prepare(&index).unwrap();
        assert!(prepared.upload_sim_us > 0.0);

        let mut first_wave_upload = 0.0;
        for wave in 0..3 {
            let reqs = vec![QueryRequest::new(wave, Query::from_keywords(&[2]), 4)];
            let (responses, report) = scheduler.run_prepared(&prepared, &reqs).unwrap();
            assert_eq!(responses[0].client_id, wave);
            assert!(!responses[0].hits.is_empty());
            if wave == 0 {
                first_wave_upload = report.upload_sim_us;
            } else {
                // the reported upload cost is the one-time prepare cost,
                // not a growing per-wave charge
                assert_eq!(report.upload_sim_us, first_wave_upload);
            }
        }
    }

    #[test]
    fn responses_come_back_in_submission_order_with_client_ids() {
        let objects: Vec<Object> = (0..20).map(|i| Object::new(vec![i % 5])).collect();
        let index = {
            let mut b = IndexBuilder::new();
            b.add_objects(objects.iter());
            Arc::new(b.build(None))
        };
        // interleaved ks force the scheduler to reorder internally
        let reqs: Vec<QueryRequest> = (0..10)
            .map(|i| {
                QueryRequest::new(
                    100 + i as u64,
                    Query::from_keywords(&[i as u32 % 5]),
                    if i % 2 == 0 { 3 } else { 7 },
                )
            })
            .collect();
        let scheduler = QueryScheduler::new(
            vec![Arc::new(CpuBackend::new())],
            SchedulerConfig {
                max_batch_queries: 3,
                cpq_budget_bytes: None,
                ..Default::default()
            },
        );
        let (responses, report) = scheduler.run(&index, &reqs).unwrap();
        assert_eq!(responses.len(), 10);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.client_id, 100 + i as u64);
            let expected_k = if i % 2 == 0 { 3 } else { 7 };
            assert!(resp.hits.len() <= expected_k);
            assert!(!resp.hits.is_empty(), "every keyword has matches");
        }
        assert!(report.batches >= 4, "5 + 5 requests at cap 3");
        assert_eq!(report.per_backend.len(), 1);
        assert_eq!(
            report.per_backend[0].queries, 10,
            "every query ran somewhere"
        );
        // cost accounting rides along even without a cost budget: the
        // prediction covers every request (>= base_us each) and the
        // actual is the measured search_batch wall-clock
        assert!(
            report.predicted_cost_us >= 10.0 * ScanCostModel::default().base_us,
            "predicted {} µs",
            report.predicted_cost_us
        );
        assert!(report.actual_cost_us > 0.0);
        assert_eq!(
            report.predicted_cost_us,
            report.per_backend[0].predicted_cost_us
        );
    }

    fn small_index() -> Arc<genie_core::index::InvertedIndex> {
        let objects: Vec<Object> = (0..20).map(|i| Object::new(vec![i % 5])).collect();
        let mut b = IndexBuilder::new();
        b.add_objects(objects.iter());
        Arc::new(b.build(None))
    }

    #[test]
    fn active_mask_routes_only_to_active_backends() {
        let index = small_index();
        let scheduler = QueryScheduler::new(
            vec![Arc::new(CpuBackend::new()), Arc::new(CpuBackend::new())],
            SchedulerConfig::default(),
        );
        let prepared = scheduler.prepare(&index).unwrap();
        let reqs: Vec<QueryRequest> = (0..6)
            .map(|i| QueryRequest::new(i, Query::from_keywords(&[i as u32 % 5]), 3))
            .collect();
        let (responses, report) = scheduler
            .run_prepared_active(&prepared, &reqs, &[false, true])
            .unwrap();
        assert_eq!(responses.len(), 6);
        assert_eq!(report.per_backend[0].queries, 0, "inactive backend idle");
        assert_eq!(report.per_backend[1].queries, 6);
    }

    #[test]
    fn online_model_learns_each_backend_toward_its_observed_cost() {
        let seed = ScanCostModel::default();
        let online = OnlineCostModel::new(seed, 2);
        let usage = |queries: usize, postings: u64, actual: f64| BackendUsage {
            name: "t",
            batches: 1,
            queries,
            postings,
            stages: StageProfile::default(),
            predicted_cost_us: 0.0,
            actual_cost_us: actual,
            failed: None,
        };
        // backend 0 runs 10x slower than the seed predicts on a dense
        // wave; backend 1 matches the seed exactly
        for _ in 0..60 {
            let dense_predicted = seed.predict_batch_us(4, 100_000);
            online.observe(&[
                usage(4, 100_000, 10.0 * dense_predicted),
                usage(4, 100_000, dense_predicted),
            ]);
        }
        let models = online.snapshot();
        assert!(models[0].observations >= 60);
        assert!(
            models[0].model.us_per_posting > 5.0 * seed.us_per_posting,
            "slow backend's dense coefficient must inflate, got {}",
            models[0].model.us_per_posting
        );
        assert!(
            models[1].model.us_per_posting < 2.0 * seed.us_per_posting,
            "well-predicted backend stays near the seed"
        );
        // the packing model follows the observed fleet, not the seed
        let fleet = online.fleet_model();
        assert!(fleet.us_per_posting > seed.us_per_posting);

        // sparse waves steer base_us instead
        let sparse = OnlineCostModel::new(seed, 1);
        for _ in 0..60 {
            let sparse_predicted = seed.predict_batch_us(8, 0);
            sparse.observe(&[usage(8, 0, 4.0 * sparse_predicted)]);
        }
        let m = sparse.snapshot()[0].model;
        assert!(m.base_us > 2.0 * seed.base_us);
        assert!(
            (m.us_per_posting - seed.us_per_posting).abs() < 1e-9,
            "no postings observed, the dense coefficient must not move"
        );
    }

    #[test]
    fn scheduler_folds_observations_after_every_wave() {
        let index = small_index();
        let scheduler = QueryScheduler::single(Arc::new(CpuBackend::new()));
        let prepared = scheduler.prepare(&index).unwrap();
        assert_eq!(scheduler.backend_cost_models()[0].observations, 0);
        for wave in 0..3 {
            let reqs = vec![QueryRequest::new(wave, Query::from_keywords(&[1]), 4)];
            scheduler.run_prepared(&prepared, &reqs).unwrap();
        }
        let m = scheduler.backend_cost_models()[0];
        assert_eq!(m.observations, 3);
        assert!(m.model.base_us > 0.0 && m.model.us_per_posting > 0.0);
    }
}

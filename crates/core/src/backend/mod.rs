//! Pluggable search backends.
//!
//! The seed engine hard-wired every caller to the simulated-GPU
//! [`Engine`]. This module abstracts execution behind the
//! [`SearchBackend`] trait so the type-mapping layers (`genie-lsh`,
//! `genie-sa`), the bench harness, the CLI and the `genie-service`
//! scheduler can run the *same* match-count pipeline on any of:
//!
//! * [`Engine`] — the paper-faithful gpu-sim pipeline (c-PQ on the
//!   simulated device, per-stage cost-model timing);
//! * [`CpuBackend`] — a pure-host rayon implementation with no device
//!   simulation overhead, built on the sparse-aware counting kernel of
//!   [`kernel`] (epoch-stamped reusable scratch, coalesced chunked
//!   postings scans, adaptive sparse/dense finalisation, one worker
//!   per query) plus the same deterministic top-k
//!   finalisation (the "as fast as the hardware allows" serving path).
//!
//! Several devices are a fleet of backends serving a sharded collection
//! (`genie-service`), not a backend of their own.
//!
//! Both return the engine's [`SearchOutput`] shape: per-query
//! [`TopHit`](crate::topk::TopHit) lists with deterministic
//! (count-descending, id-ascending) ordering, final AuditThresholds and
//! a per-stage [`StageProfile`](crate::exec::StageProfile).

mod cpu;
pub mod kernel;

pub use cpu::CpuBackend;

use std::any::Any;
use std::sync::Arc;

use crate::exec::{DeviceIndex, Engine, SearchOutput};
use crate::index::InvertedIndex;
use crate::model::Query;

/// What a backend is and how much it can hold — the scheduler uses this
/// to size micro-batches and pick dispatch targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// Short stable identifier ("gpu-sim", "cpu").
    pub name: &'static str,
    pub kind: BackendKind,
    /// Underlying execution units (simulated devices or host threads).
    pub devices: usize,
    /// Memory available for index + c-PQ state, if the backend enforces
    /// a budget (`None` = host memory, effectively unbounded here).
    pub memory_bytes: Option<u64>,
    /// Whether [`StageProfile`](crate::exec::StageProfile) carries
    /// simulated device time (`false` = host wall-clock only).
    pub reports_sim_time: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One simulated SIMT device.
    SimulatedDevice,
    /// Pure host execution.
    Host,
}

/// An inverted index prepared for one specific backend: the shared
/// host-resident index plus whatever backend-private state `upload`
/// produced (device-resident List Array, CPU-side scan state).
pub struct BackendIndex {
    index: Arc<InvertedIndex>,
    /// Simulated microseconds the upload's H2D transfers took (0 for
    /// host backends).
    pub upload_sim_us: f64,
    payload: Box<dyn Any + Send + Sync>,
}

impl BackendIndex {
    pub fn new(
        index: Arc<InvertedIndex>,
        upload_sim_us: f64,
        payload: impl Any + Send + Sync,
    ) -> Self {
        Self {
            index,
            upload_sim_us,
            payload: Box::new(payload),
        }
    }

    pub fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    pub fn num_objects(&self) -> u32 {
        self.index.num_objects()
    }

    /// Backend-private state, if it is a `T`. A mismatch means the
    /// handle was produced by a different backend.
    pub fn payload<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Postings a counting scan of `query` visits on this prepared
    /// index — the per-query scan-cost statistic
    /// (see [`InvertedIndex::predicted_postings`]) that the service
    /// scheduler's cost-aware wave packing turns into predicted
    /// microseconds. Surfaced on the prepared handle so schedulers
    /// price queries against exactly the index a backend will scan.
    pub fn predicted_scan_postings(&self, query: &Query) -> u64 {
        self.index.predicted_postings(query)
    }
}

/// A search execution engine: upload an index once, run top-k
/// match-count batches against it many times.
///
/// Implementations must agree with the brute-force
/// [`match_count`](crate::model::match_count) model on counts, order
/// results count-descending with ascending-id tie-breaks, and report
/// final AuditThresholds with the Theorem 3.1 semantics
/// (`AT - 1 = MC_k`, `AT = 1` when fewer than `k` objects matched).
pub trait SearchBackend: Send + Sync {
    /// Capability and memory report.
    fn capabilities(&self) -> BackendCaps;

    /// Prepare `index` for searching on this backend. Fails (with a
    /// human-readable reason) if the index cannot fit.
    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String>;

    /// Run one batch of queries, returning each query's top `k`.
    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput;

    /// Memory left for one batch's c-PQ state once `index` is resident,
    /// for batch-sizing by a scheduler. `None` = no bound. The default
    /// subtracts the whole index's device footprint from the reported
    /// memory.
    fn batch_memory_budget(&self, index: &BackendIndex) -> Option<u64> {
        self.capabilities()
            .memory_bytes
            .map(|m| m.saturating_sub(index.index().device_bytes()))
    }

    /// Escape hatch for callers that need a concrete backend (e.g. the
    /// GEN-SPQ baseline scanning the device-resident List Array).
    fn as_any(&self) -> &dyn Any;
}

impl SearchBackend for Engine {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            name: "gpu-sim",
            kind: BackendKind::SimulatedDevice,
            devices: 1,
            memory_bytes: Some(self.device().config().memory_bytes),
            reports_sim_time: true,
        }
    }

    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        let dindex = Engine::upload(self, index)?;
        Ok(BackendIndex::new(
            Arc::clone(&dindex.index),
            dindex.upload_sim_us,
            dindex,
        ))
    }

    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        let dindex = index
            .payload::<DeviceIndex>()
            .expect("index was uploaded to a different backend than this Engine");
        Engine::search(self, dindex, queries, k)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::model::Object;
    use gpu_sim::Device;

    fn small_index() -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        b.add_objects(
            [
                Object::new(vec![1, 5]),
                Object::new(vec![1, 6]),
                Object::new(vec![2, 5]),
            ]
            .iter(),
        );
        Arc::new(b.build(None))
    }

    #[test]
    fn engine_works_through_the_trait_object() {
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let backend: &dyn SearchBackend = &engine;
        assert_eq!(backend.capabilities().name, "gpu-sim");
        assert!(backend.capabilities().reports_sim_time);
        let bindex = backend.upload(small_index()).unwrap();
        assert!(bindex.upload_sim_us > 0.0);
        let out = backend.search_batch(&bindex, &[Query::from_keywords(&[1, 5])], 2);
        assert_eq!(out.results[0][0].id, 0);
        assert_eq!(out.results[0][0].count, 2);
    }

    #[test]
    fn engine_trait_upload_respects_device_memory() {
        let cfg = gpu_sim::DeviceConfig {
            memory_bytes: 8,
            ..Default::default()
        };
        let engine = Engine::new(Arc::new(Device::new(cfg)));
        let backend: &dyn SearchBackend = &engine;
        assert!(backend.upload(small_index()).is_err());
        assert_eq!(backend.capabilities().memory_bytes, Some(8));
    }

    #[test]
    fn payload_mismatch_is_detectable() {
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let cpu = CpuBackend::new();
        let bindex = SearchBackend::upload(&cpu, small_index()).unwrap();
        // an Engine cannot search a CPU-prepared handle
        assert!(bindex.payload::<DeviceIndex>().is_none());
        let _ = engine; // the downcast above is what search_batch asserts
    }
}

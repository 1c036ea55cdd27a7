//! Helpers shared by the service integration-test binaries.

use std::sync::Arc;
use std::time::Duration;

use genie_core::backend::{BackendCaps, BackendIndex, CpuBackend, SearchBackend};
use genie_core::exec::SearchOutput;
use genie_core::index::InvertedIndex;
use genie_core::model::Query;
use genie_service::{CollectionId, GenieService, QueryScheduler, ServiceConfig};

/// A service over `scheduler` with `index` registered as its one
/// collection — the single-collection serving setup most suites drive.
pub fn serve(
    scheduler: QueryScheduler,
    index: &Arc<InvertedIndex>,
    config: ServiceConfig,
) -> (GenieService, CollectionId) {
    let service = GenieService::start_empty(scheduler, config).expect("service starts");
    let id = service
        .add_collection("default", index)
        .expect("index fits the fleet");
    (service, id)
}

/// A [`CpuBackend`] that pauses before every batch. The failover,
/// circuit-breaker and health-accumulation tests need the *other*
/// worker to pop at least one micro-batch per run; with a full-speed
/// healthy peer on a busy (or single-core) host, the peer's worker can
/// drain the whole queue before the flaky worker's thread is ever
/// scheduled, turning those assertions into a scheduling lottery. The
/// sleep yields the CPU between batches, making the interleaving
/// deterministic.
pub struct SlowCpu(pub CpuBackend);

impl SlowCpu {
    pub fn new() -> Self {
        Self(CpuBackend::new())
    }
}

impl SearchBackend for SlowCpu {
    fn capabilities(&self) -> BackendCaps {
        self.0.capabilities() // keeps the "cpu" name the tests look up
    }
    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        self.0.upload(index)
    }
    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        std::thread::sleep(Duration::from_millis(1));
        self.0.search_batch(index, queries, k)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

//! The multi-device backend: several simulated devices, each paging
//! device-sized index shards through memory.
//!
//! This wraps the multiple loading of [`crate::multiload`] (paper
//! §III-D) behind the [`SearchBackend`] interface: `upload` re-splits
//! the data set into [`Shard`]s ("parts") that fit the smallest device
//! and assigns them round-robin; `search_batch` fans the batch out to
//! one host thread per device, swaps each device's parts through its
//! memory, and merges the per-part top-k into the global answer
//! ([`crate::shard::merge_shard_topk`]). Part H2D swap time is reported
//! in [`StageProfile::index_swap_us`](crate::exec::StageProfile).

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

use crate::cpq::CpqLayout;
use crate::exec::{elapsed_us, Engine, SearchOutput, StageProfile};
use crate::index::InvertedIndex;
use crate::model::{count_bound, Query};
use crate::multiload::multi_device_search;
use crate::shard::{Shard, ShardPlan};

use super::{BackendCaps, BackendIndex, BackendKind, SearchBackend};

/// Several engines (one per simulated device) sharing one logical index.
pub struct MultiDeviceBackend {
    engines: Vec<Engine>,
    part_size: usize,
}

struct MultiPayload {
    parts: Vec<Shard>,
}

impl MultiDeviceBackend {
    /// Wrap `engines` (one per device), splitting uploaded data sets
    /// into parts of at most `part_size` objects.
    pub fn from_engines(engines: Vec<Engine>, part_size: usize) -> Self {
        assert!(!engines.is_empty(), "need at least one device");
        assert!(part_size > 0, "part size must be positive");
        Self { engines, part_size }
    }

    /// Convenience: `devices` default-configured engines.
    pub fn with_default_devices(devices: usize, part_size: usize) -> Self {
        let engines = (0..devices.max(1))
            .map(|_| Engine::new(Arc::new(gpu_sim::Device::with_defaults())))
            .collect();
        Self::from_engines(engines, part_size)
    }

    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    fn smallest_device_memory(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.device().config().memory_bytes)
            .min()
            .expect("at least one engine")
    }
}

impl SearchBackend for MultiDeviceBackend {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            name: "multi-device",
            kind: BackendKind::MultiDevice,
            devices: self.engines.len(),
            // parts are swapped through each device, so the budget that
            // matters for batch sizing is one device's memory
            memory_bytes: Some(self.smallest_device_memory()),
            reports_sim_time: true,
        }
    }

    /// Re-partition the indexed data set into device-sized parts. No
    /// transfers happen here — parts are swapped in at search time, and
    /// the swap cost lands in `StageProfile::index_swap_us`.
    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        let objects = index.reconstruct_objects();
        // the fewest near-even shards none of which exceeds part_size
        let num_parts = objects.len().div_ceil(self.part_size).max(1);
        let parts = ShardPlan::build(&objects, num_parts, index.load_balance())
            .shards()
            .to_vec();
        let budget = self.smallest_device_memory();
        for (i, part) in parts.iter().enumerate() {
            let bytes = part.index.device_bytes();
            if bytes > budget {
                return Err(format!(
                    "part {i} needs {bytes} B but the smallest device holds {budget} B; \
                     lower part_size ({})",
                    self.part_size
                ));
            }
        }
        Ok(BackendIndex::new(index, 0.0, MultiPayload { parts }))
    }

    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        let payload = index
            .payload::<MultiPayload>()
            .expect("index was uploaded to a different backend than this MultiDeviceBackend");
        let started = Instant::now();
        let (results, reports) = multi_device_search(&self.engines, &payload.parts, queries, k);

        let mut profile = StageProfile::default();
        for report in &reports {
            profile.accumulate(&report.stages);
            profile.index_swap_us += report.index_transfer_us;
        }
        // devices ran concurrently: latency is the wall clock of this
        // call, not the sum of per-device host times
        profile.host_us = elapsed_us(started);

        // Theorem 3.1 on the *merged* answer: AT = global MC_k + 1
        let audit_thresholds = results
            .iter()
            .map(|hits| crate::topk::audit_threshold(hits, k))
            .collect();

        // worst part's c-PQ footprint (no per-engine count_bound
        // override is assumed here)
        let cpq_bytes_per_query = payload
            .parts
            .iter()
            .map(|p| {
                CpqLayout {
                    num_queries: queries.len().max(1),
                    num_objects: p.index.num_objects() as usize,
                    bound: count_bound(queries, p.index.max_object_len()),
                    k,
                }
                .bytes_per_query()
            })
            .max()
            .unwrap_or(0);

        SearchOutput {
            results,
            profile,
            cpq_bytes_per_query,
            audit_thresholds,
        }
    }

    /// Only one part is resident per device at a time, so the c-PQ
    /// budget is the smallest device minus the *largest part* — not
    /// minus the whole index (which may well exceed a single device;
    /// that is what this backend is for).
    fn batch_memory_budget(&self, index: &BackendIndex) -> Option<u64> {
        let largest_part = index
            .payload::<MultiPayload>()
            .map(|p| {
                p.parts
                    .iter()
                    .map(|part| part.index.device_bytes())
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or_else(|| index.index().device_bytes());
        Some(self.smallest_device_memory().saturating_sub(largest_part))
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
    use gpu_sim::{Device, DeviceConfig};

    fn objects(n: u32) -> Vec<Object> {
        (0..n)
            .map(|i| Object::new(vec![i % 7, 100 + i % 3]))
            .collect()
    }

    fn index_of(objects: &[Object]) -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        b.add_objects(objects.iter());
        Arc::new(b.build(None))
    }

    #[test]
    fn multi_device_matches_single_engine() {
        let objs = objects(60);
        let index = index_of(&objs);
        let queries = vec![
            Query::from_keywords(&[3, 101]),
            Query::new(vec![crate::model::QueryItem::range(0, 2)]),
        ];
        let k = 10;

        let single = Engine::new(Arc::new(Device::with_defaults()));
        let dindex = Engine::upload(&single, Arc::clone(&index)).unwrap();
        let expected = single.search(&dindex, &queries, k);

        let multi = MultiDeviceBackend::with_default_devices(3, 17);
        let bindex = SearchBackend::upload(&multi, index).unwrap();
        let got = multi.search_batch(&bindex, &queries, k);

        // per-part AT evolution can admit different ids among k-th-count
        // ties than the whole-set scan; counts and ATs must match
        for q in 0..queries.len() {
            let e: Vec<u32> = expected.results[q].iter().map(|h| h.count).collect();
            let g: Vec<u32> = got.results[q].iter().map(|h| h.count).collect();
            assert_eq!(e, g, "query {q} count profile");
        }
        assert_eq!(expected.audit_thresholds, got.audit_thresholds);
        assert!(got.profile.index_swap_us > 0.0, "part swaps must be timed");
        assert!(got.profile.sim_total_us() > got.profile.index_swap_us);
    }

    #[test]
    fn upload_rejects_parts_larger_than_a_device() {
        let tiny = DeviceConfig {
            memory_bytes: 64, // 16 words
            ..Default::default()
        };
        let engines = vec![Engine::new(Arc::new(Device::new(tiny)))];
        let multi = MultiDeviceBackend::from_engines(engines, 1000);
        assert!(SearchBackend::upload(&multi, index_of(&objects(200))).is_err());
    }

    #[test]
    fn small_parts_fit_small_devices() {
        // each part of <= 8 objects has <= 16 postings = 64 B
        let tiny = DeviceConfig {
            memory_bytes: 64,
            ..Default::default()
        };
        let engines = (0..2)
            .map(|_| Engine::new(Arc::new(Device::new(tiny.clone()))))
            .collect();
        let multi = MultiDeviceBackend::from_engines(engines, 8);
        let index = index_of(&objects(40));
        let bindex = SearchBackend::upload(&multi, Arc::clone(&index)).unwrap();
        let out = multi.search_batch(&bindex, &[Query::from_keywords(&[5])], 40);
        // keyword 5 appears on objects 5, 12, 19, 26, 33
        let ids: Vec<u32> = out.results[0].iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![5, 12, 19, 26, 33]);
        assert_eq!(multi.capabilities().devices, 2);
        assert_eq!(multi.capabilities().memory_bytes, Some(64));
    }
}

//! Multiple loading (paper §III-D, Figure 6; Tables II & III).
//!
//! When the index exceeds device memory, the data set is split into
//! device-sized [`Shard`]s ([`crate::shard::ShardPlan::build`] — a
//! contiguous part *is* a shard whose id map is `offset..offset + len`),
//! each indexed separately on the host. A query batch is run against
//! every shard in turn — swap the shard's List Array in, run the
//! match/select pipeline, collect per-shard top-k — and the host merges
//! the per-shard lists into the global answer with
//! [`merge_shard_topk`] (correct because each object's match count is
//! computed entirely within its own shard).
//!
//! This is the paper's single-device swap loop. Several devices serve
//! the same shards as a sharded collection on a fleet of backends
//! (`genie-service`), one shard resident per backend.

use std::sync::Arc;
use std::time::Instant;

use crate::exec::{elapsed_us, Engine, StageProfile};
use crate::model::Query;
use crate::shard::{merge_shard_topk, Shard};
use crate::topk::TopHit;

/// Timing breakdown of a multi-load search (Tables II/III): the extra
/// steps — per-part index swapping and final result merging — are
/// reported separately from the search pipeline itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiLoadReport {
    /// Simulated time spent swapping part indexes into device memory.
    pub index_transfer_us: f64,
    /// Accumulated search-stage profile over all parts.
    pub stages: StageProfile,
    /// Host wall-clock of the final merge, microseconds.
    pub merge_host_us: f64,
    pub parts: usize,
}

impl MultiLoadReport {
    /// Total simulated time (transfers + kernels).
    pub fn sim_total_us(&self) -> f64 {
        self.index_transfer_us + self.stages.sim_total_us()
    }
}

/// Search `queries` over all `parts`, merging per-part top-k into the
/// global top-k per query.
pub fn multi_load_search(
    engine: &Engine,
    parts: &[Shard],
    queries: &[Query],
    k: usize,
) -> (Vec<Vec<TopHit>>, MultiLoadReport) {
    let mut report = MultiLoadReport {
        parts: parts.len(),
        ..Default::default()
    };
    // per query: one global-id hit list per part
    let mut gathered: Vec<Vec<Vec<TopHit>>> = vec![Vec::with_capacity(parts.len()); queries.len()];

    for part in parts {
        // swap this part's List Array into device memory
        let dindex = engine
            .upload(Arc::clone(&part.index))
            .expect("a single part must fit in device memory");
        report.index_transfer_us += dindex.upload_sim_us;

        let out = engine.search(&dindex, queries, k);
        report.stages.accumulate(&out.profile);
        for (lists, hits) in gathered.iter_mut().zip(&out.results) {
            lists.push(part.to_global(hits));
        }
    }

    let merge_started = Instant::now();
    let merged = merge_per_query(gathered, k);
    report.merge_host_us = elapsed_us(merge_started);
    (merged, report)
}

/// [`merge_shard_topk`] per query (the AuditThreshold it certifies is
/// recomputed by callers that report one).
fn merge_per_query(gathered: Vec<Vec<Vec<TopHit>>>, k: usize) -> Vec<Vec<TopHit>> {
    gathered
        .into_iter()
        .map(|lists| merge_shard_topk(lists, k).0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    use crate::model::{Object, QueryItem};
    use crate::shard::ShardPlan;

    /// Device-sized parts: the fewest near-even shards none of which
    /// exceeds `part_size` objects.
    fn parts_of(objects: &[Object], part_size: usize) -> Vec<Shard> {
        ShardPlan::build(objects, objects.len().div_ceil(part_size), None)
            .shards()
            .to_vec()
    }

    fn objects(n: u32) -> Vec<Object> {
        // object i holds keywords {i % 7, 100 + i % 3}
        (0..n)
            .map(|i| Object::new(vec![i % 7, 100 + i % 3]))
            .collect()
    }

    #[test]
    fn parts_cover_all_objects_with_offsets() {
        let objs = objects(25);
        let parts = parts_of(&objs, 10);
        assert_eq!(parts.len(), 3);
        // contiguous: each part's id map is offset..offset + len
        let mut offset = 0;
        for part in &parts {
            assert!(part.len() <= 10, "no part exceeds the part size");
            assert_eq!(part.index.num_objects() as usize, part.len());
            let want: Vec<u32> = (offset..offset + part.len() as u32).collect();
            assert_eq!(part.global_ids.as_slice(), want.as_slice());
            offset += part.len() as u32;
        }
        assert_eq!(offset, 25);
    }

    #[test]
    fn multi_load_equals_single_load() {
        let objs = objects(64);
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let queries = vec![
            Query::new(vec![QueryItem::exact(3), QueryItem::exact(101)]),
            Query::new(vec![QueryItem::range(0, 2)]),
        ];
        let k = 12;

        // single load
        let single_parts = parts_of(&objs, objs.len());
        let (single, _) = multi_load_search(&engine, &single_parts, &queries, k);
        // four parts
        let parts = parts_of(&objs, 17);
        let (multi, report) = multi_load_search(&engine, &parts, &queries, k);

        assert_eq!(report.parts, 4);
        for q in 0..queries.len() {
            let s: Vec<u32> = single[q].iter().map(|h| h.count).collect();
            let m: Vec<u32> = multi[q].iter().map(|h| h.count).collect();
            assert_eq!(s, m, "query {q} count profile differs");
        }
        assert!(report.index_transfer_us > 0.0);
        assert!(report.sim_total_us() > report.index_transfer_us);
    }

    #[test]
    fn merge_respects_global_ids() {
        let objs = objects(30);
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let parts = parts_of(&objs, 7);
        let (results, _) = multi_load_search(&engine, &parts, &[Query::from_keywords(&[5])], 30);
        // objects with keyword 5 are ids 5, 12, 19, 26
        let mut ids: Vec<u32> = results[0].iter().map(|h| h.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![5, 12, 19, 26]);
    }
}

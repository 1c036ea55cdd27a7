//! The pure-CPU backend: the match-count pipeline on host cores.
//!
//! No device simulation runs here — queries run through the sparse-aware
//! host counting kernel of [`kernel`](super::kernel): epoch-stamped
//! scratch tables reused from a per-index pool (no per-query allocation
//! or zeroing), coalesced postings runs counted in fixed-width chunks,
//! candidate harvesting that keeps cost at `O(postings + matched)` with
//! an adaptive dense fallback, and — for waves smaller than the host
//! fleet — intra-query segment parallelism so a single low-latency
//! request still saturates every core. This is the latency-honest
//! serving path: where the [`Engine`](crate::exec::Engine) reports
//! cost-model *simulated* time, this backend's profile carries real host
//! wall-clock only.
//!
//! Results are exact: every object's count comes from a full postings
//! scan, the top-k is ordered count-descending with ascending-id ties,
//! and the reported AuditThreshold reproduces Theorem 3.1
//! (`AT = MC_k + 1`, or 1 when fewer than `k` objects matched). The
//! kernel is property-tested bit-identical to the seed dense path
//! ([`kernel::reference_search_one`]). The device engine agrees on the
//! count profile and on every returned count, but may return *different
//! ids among objects tied at the k-th count*: its gate only admits ties
//! that reach `MC_k` before the AuditThreshold advances past it
//! (scan-order dependent — the paper breaks such ties randomly), whereas
//! this backend deterministically keeps the lowest ids.
//!
//! [`SearchOutput::cpq_bytes_per_query`] reports the *actual* scratch
//! footprint: the per-index pool's resident bytes amortised over the
//! batch — the honest host analogue of the paper's Table IV memory
//! column under scratch reuse, not a pretend fresh dense table per
//! query.

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;

use crate::exec::{elapsed_us, SearchOutput, StageProfile};
use crate::index::InvertedIndex;
use crate::model::Query;
use crate::topk::TopHit;

use super::kernel::{self, KernelConfig, KernelStats, KernelStatsSnapshot, ScratchPool};
use super::{BackendCaps, BackendIndex, BackendKind, SearchBackend};

/// Host-side execution backend on the sparse-aware counting kernel.
#[derive(Debug, Clone, Default)]
pub struct CpuBackend {
    config: KernelConfig,
    stats: Arc<KernelStats>,
}

impl CpuBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// A backend with explicit kernel tuning (thresholds of the
    /// adaptive dense/sparse and intra-query-parallel decisions).
    pub fn with_config(config: KernelConfig) -> Self {
        Self {
            config,
            stats: Arc::default(),
        }
    }

    /// Lifetime kernel-decision counters (sparse vs dense finalisation,
    /// intra-query parallel runs, postings scanned). Clones of this
    /// backend share the counters.
    pub fn kernel_stats(&self) -> KernelStatsSnapshot {
        self.stats.snapshot()
    }
}

impl SearchBackend for CpuBackend {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            name: "cpu",
            kind: BackendKind::Host,
            devices: rayon::current_num_threads(),
            memory_bytes: None,
            reports_sim_time: false,
        }
    }

    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        // the index is already host-resident; nothing to transfer. The
        // payload is this index's scratch pool: counting state is tied
        // to one object-id space and reused across every batch.
        Ok(BackendIndex::new(index, 0.0, ScratchPool::new()))
    }

    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        assert!(k >= 1, "k must be at least 1");
        let started = Instant::now();
        let idx = index.index();
        let pool = index
            .payload::<ScratchPool>()
            .expect("index was uploaded to a different backend than this CpuBackend");

        let threads = rayon::current_num_threads();
        // Parallelism policy: the batch is ALWAYS the outer parallel
        // dimension (waves of any size keep at least the seed's
        // one-core-per-query occupancy). When the wave is smaller than
        // the fleet, the spare threads/Q workers additionally fan out
        // INSIDE each query ([`kernel::search_one_parallel`]) — sparse
        // spans merging by epoch, dense spans element-wise over their
        // lane arrays; queries that decline the fan-out (too small, or
        // dense with too few postings per object to amortise the
        // per-span zero + merge) degrade to the plain per-query kernel
        // on their own batch worker, never to a single-core wave.
        let workers_per_query = if queries.is_empty() {
            1
        } else {
            (threads / queries.len()).max(1)
        };
        let per_query: Vec<(Vec<TopHit>, u32)> = queries
            .par_iter()
            .map(|q| {
                if workers_per_query > 1 {
                    kernel::search_one_parallel(
                        idx,
                        q,
                        k,
                        pool,
                        workers_per_query,
                        &self.config,
                        &self.stats,
                    )
                } else {
                    let mut scratch = pool.acquire();
                    let out =
                        kernel::search_one(idx, q, k, &mut scratch, &self.config, &self.stats);
                    pool.release(scratch);
                    out
                }
            })
            .collect();

        let mut results = Vec::with_capacity(per_query.len());
        let mut audit_thresholds = Vec::with_capacity(per_query.len());
        for (hits, at) in per_query {
            results.push(hits);
            audit_thresholds.push(at);
        }
        let profile = StageProfile {
            host_us: elapsed_us(started),
            ..Default::default()
        };
        SearchOutput {
            results,
            profile,
            // the honest Table IV host analogue: the bytes of every
            // scratch the pool owns (loaned ones included, so the
            // number stays stable under concurrent dispatchers),
            // amortised over the queries that just shared them
            cpq_bytes_per_query: pool.resident_bytes() / queries.len().max(1) as u64,
            audit_thresholds,
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Engine;
    use crate::index::IndexBuilder;
    use crate::model::{Object, QueryItem};
    use gpu_sim::Device;

    fn index_of(objects: &[Object]) -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        b.add_objects(objects.iter());
        Arc::new(b.build(None))
    }

    #[test]
    fn figure_1_example_on_the_cpu() {
        let enc = |d: u32, v: u32| d * 4 + v;
        let objects = vec![
            Object::new(vec![enc(0, 1), enc(1, 2), enc(2, 1)]),
            Object::new(vec![enc(0, 2), enc(1, 1), enc(2, 3)]),
            Object::new(vec![enc(0, 1), enc(1, 3), enc(2, 2)]),
        ];
        let q1 = Query::new(vec![
            QueryItem::range(enc(0, 1), enc(0, 2)),
            QueryItem::range(enc(1, 1), enc(1, 1)),
            QueryItem::range(enc(2, 2), enc(2, 3)),
        ]);
        let cpu = CpuBackend::new();
        let bindex = SearchBackend::upload(&cpu, index_of(&objects)).unwrap();
        let out = cpu.search_batch(&bindex, &[q1], 1);
        assert_eq!(out.results[0][0].id, 1, "O2 is the top-1");
        assert_eq!(out.results[0][0].count, 3);
        assert_eq!(out.audit_thresholds[0], 4, "Example 3.1: AT ends at 4");
        assert!(!out.profile.sim_total_us().is_nan());
        assert_eq!(out.profile.sim_total_us(), 0.0, "host backend: no sim time");
    }

    #[test]
    fn cpu_and_engine_agree_on_counts_and_audit_thresholds() {
        use crate::model::match_count;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let objects: Vec<Object> = (0..60)
            .map(|_| {
                let len = rng.random_range(1..6usize);
                Object::new((0..len).map(|_| rng.random_range(0..25u32)).collect())
            })
            .collect();
        let queries: Vec<Query> = (0..12)
            .map(|_| {
                let len = rng.random_range(1..5usize);
                Query::new(
                    (0..len)
                        .map(|_| {
                            let lo = rng.random_range(0..25u32);
                            QueryItem::range(lo, (lo + rng.random_range(0..3)).min(24))
                        })
                        .collect(),
                )
            })
            .collect();
        let index = index_of(&objects);

        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let dindex = Engine::upload(&engine, Arc::clone(&index)).unwrap();
        let device_out = engine.search(&dindex, &queries, 7);

        let cpu = CpuBackend::new();
        let bindex = SearchBackend::upload(&cpu, index).unwrap();
        let cpu_out = cpu.search_batch(&bindex, &queries, 7);

        // ids may differ among objects tied at the k-th count (the
        // device gate admits ties in scan order); the count profile,
        // per-id counts and ATs must be identical
        assert_eq!(device_out.audit_thresholds, cpu_out.audit_thresholds);
        for (qi, q) in queries.iter().enumerate() {
            let dev_counts: Vec<u32> = device_out.results[qi].iter().map(|h| h.count).collect();
            let cpu_counts: Vec<u32> = cpu_out.results[qi].iter().map(|h| h.count).collect();
            assert_eq!(dev_counts, cpu_counts, "query {qi} count profile");
            for hit in &cpu_out.results[qi] {
                assert_eq!(
                    match_count(q, &objects[hit.id as usize]),
                    hit.count,
                    "query {qi} object {}",
                    hit.id
                );
            }
        }
    }

    #[test]
    fn tiny_profile_keeps_fractional_microseconds() {
        // regression: with `as_micros() as f64` a sub-µs search
        // truncated to exactly 0 and latency accounting went dark
        let cpu = CpuBackend::new();
        let bindex = SearchBackend::upload(&cpu, index_of(&[Object::new(vec![1])])).unwrap();
        let out = cpu.search_batch(&bindex, &[Query::from_keywords(&[1])], 1);
        assert!(
            out.profile.host_us > 0.0,
            "a timed profile must be strictly positive, got {}",
            out.profile.host_us
        );
    }

    #[test]
    fn empty_batch_and_empty_matches() {
        let cpu = CpuBackend::new();
        let bindex = SearchBackend::upload(&cpu, index_of(&[Object::new(vec![1])])).unwrap();
        let out = cpu.search_batch(&bindex, &[], 3);
        assert!(out.results.is_empty());
        let out = cpu.search_batch(&bindex, &[Query::from_keywords(&[99])], 3);
        assert!(out.results[0].is_empty());
        assert_eq!(out.audit_thresholds[0], 1);
    }

    #[test]
    fn memory_accounting_reports_reused_scratch_not_fresh_tables() {
        // the honest Table IV host analogue: a batch of B queries
        // served from one reused scratch must report the pool footprint
        // amortised over B — far below the seed's pretend fresh dense
        // `4 * n` bytes per query
        let n = 4_096u32;
        let objects: Vec<Object> = (0..n).map(|i| Object::new(vec![i % 97])).collect();
        let cpu = CpuBackend::new();
        let bindex = SearchBackend::upload(&cpu, index_of(&objects)).unwrap();
        let queries: Vec<Query> = (0..64).map(|i| Query::from_keywords(&[i % 97])).collect();

        let out = cpu.search_batch(&bindex, &queries, 5);
        let pool = bindex.payload::<ScratchPool>().unwrap();
        assert_eq!(
            out.cpq_bytes_per_query,
            pool.resident_bytes() / queries.len() as u64,
            "reported memory must be the real pool footprint, amortised"
        );
        // the undercut claim needs enough queries per scratch to
        // amortise (one scratch lives per worker, ~16n bytes worst
        // case); on a fleet wider than queries/4 the margin vanishes,
        // so only the honesty equality above is asserted there
        let threads = rayon::current_num_threads();
        if threads * 4 <= queries.len() {
            assert!(
                out.cpq_bytes_per_query < n as u64 * 4,
                "reuse must undercut the seed's fresh dense table claim \
                 ({} >= {})",
                out.cpq_bytes_per_query,
                n * 4
            );
        }
        // further batches reuse the warmed pool. How many scratches a
        // batch materialises depends on how far its workers happened to
        // overlap, so the footprint need not be flat between two
        // particular batches — but it never outgrows one scratch per
        // worker thread, each at most the stamped table (8n), the dense
        // array (4n), a doubling-grown touched list (< 8n) and a few
        // run segments
        let worst_scratch_bytes = 24 * n as u64;
        for batch in 0..4 {
            cpu.search_batch(&bindex, &queries, 5);
            assert!(
                pool.resident_scratches() <= threads,
                "batch {batch}: {} scratches for {threads} workers",
                pool.resident_scratches()
            );
            assert!(
                pool.resident_bytes() <= threads as u64 * worst_scratch_bytes,
                "batch {batch}: {} resident bytes",
                pool.resident_bytes()
            );
        }
    }

    #[test]
    fn kernel_stats_expose_decisions() {
        let objects: Vec<Object> = (0..600).map(|i| Object::new(vec![i % 5, 50 + i])).collect();
        let cpu = CpuBackend::new();
        let bindex = SearchBackend::upload(&cpu, index_of(&objects)).unwrap();
        // selective singleton lists -> sparse; the % 5 hot lists -> dense
        cpu.search_batch(&bindex, &[Query::from_keywords(&[70])], 3);
        cpu.search_batch(&bindex, &[Query::new(vec![QueryItem::range(0, 4)])], 3);
        let snap = cpu.kernel_stats();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.sparse_finalize, 1);
        assert_eq!(snap.dense_finalize, 1);
        assert!(snap.postings_scanned > 0);
        let clone = cpu.clone();
        assert_eq!(clone.kernel_stats(), snap, "clones share lifetime counters");
    }
}

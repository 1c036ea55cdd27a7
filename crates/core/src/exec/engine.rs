//! The batched search engine: upload once, search many (Figure 3).

use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{Device, GlobalU32, GlobalU64, LaunchConfig};

use crate::cpq::{Cpq, CpqLayout, RobinHoodTable, EMPTY_SLOT};
use crate::index::InvertedIndex;
use crate::model::{count_bound, Query};
use crate::topk::{finalize_candidates, TopHit};

use super::elapsed_us;
use super::match_kernel::{build_scan_tasks, encode_tasks, TASK_WORDS};

/// An inverted index whose List Array has been uploaded to the device.
/// The Position Map (inside [`InvertedIndex`]) stays host-resident.
pub struct DeviceIndex {
    /// The device-resident List Array (public so alternative pipelines —
    /// e.g. the GEN-SPQ baseline — can scan the same uploaded index).
    pub list: GlobalU32,
    pub index: Arc<InvertedIndex>,
    /// Simulated microseconds the H2D index copy took ("Index transfer"
    /// row of Table I).
    pub upload_sim_us: f64,
}

impl DeviceIndex {
    pub fn num_objects(&self) -> u32 {
        self.index.num_objects()
    }
}

/// Per-stage timing of one batch, both simulated (device cost model) and
/// host wall-clock. Mirrors the row structure of Table I.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageProfile {
    /// H2D copy of query descriptors (scan tasks).
    pub query_transfer_us: f64,
    /// The match kernel: scanning postings lists and updating c-PQ.
    pub match_us: f64,
    /// Selection kernel + D2H of candidates + host finalisation.
    pub select_us: f64,
    /// Host wall-clock of the whole search call, microseconds.
    pub host_us: f64,
}

impl StageProfile {
    /// Simulated total (excludes host-only bookkeeping).
    pub fn sim_total_us(&self) -> f64 {
        self.query_transfer_us + self.match_us + self.select_us
    }

    /// Accumulate another profile (multiple loading sums parts).
    pub fn accumulate(&mut self, other: &StageProfile) {
        self.query_transfer_us += other.query_transfer_us;
        self.match_us += other.match_us;
        self.select_us += other.select_us;
        self.host_us += other.host_us;
    }
}

/// Result of one batched search.
#[derive(Debug, Clone)]
pub struct SearchOutput {
    /// Per query: up to k `(object, count)` hits, count-descending.
    pub results: Vec<Vec<TopHit>>,
    pub profile: StageProfile,
    /// Device bytes the c-PQ consumed per query (Table IV metric).
    pub cpq_bytes_per_query: u64,
    /// Final AuditThreshold per query; `AT - 1` is the k-th match count
    /// (Theorem 3.1), which the SA verification layer uses as a bound.
    pub audit_thresholds: Vec<u32>,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Lanes per block for the match kernel. Paper-style default: 256.
    pub block_dim: usize,
    /// Override the automatically derived count bound (needed when the
    /// caller knows a tighter bound, e.g. the number of LSH functions).
    pub count_bound: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            block_dim: 256,
            count_bound: None,
        }
    }
}

/// The GENIE engine: owns a device and runs batched top-k match-count
/// queries against uploaded inverted indexes.
pub struct Engine {
    device: Arc<Device>,
    config: EngineConfig,
}

impl Engine {
    pub fn new(device: Arc<Device>) -> Self {
        Self {
            device,
            config: EngineConfig::default(),
        }
    }

    pub fn with_config(device: Arc<Device>, config: EngineConfig) -> Self {
        Self { device, config }
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Upload an index's List Array to the device, recording the H2D
    /// transfer. Fails if the array exceeds simulated device memory.
    pub fn upload(&self, index: Arc<InvertedIndex>) -> Result<DeviceIndex, String> {
        let bytes = index.device_bytes();
        self.device.check_fits(bytes)?;
        let list = GlobalU32::from_host(index.list_array());
        self.device.record_h2d(bytes);
        let upload_sim_us = self.device.cost_model().transfer_us(bytes);
        Ok(DeviceIndex {
            list,
            index,
            upload_sim_us,
        })
    }

    /// Run a batch of `queries` returning the top `k` objects of each by
    /// match count. This is the full pipeline: Position-Map lookup,
    /// task upload, match kernel (Algorithm 1 per posting), selection
    /// kernel (single hash-table scan), candidate download, host top-k.
    pub fn search(&self, dindex: &DeviceIndex, queries: &[Query], k: usize) -> SearchOutput {
        assert!(k >= 1, "k must be at least 1");
        let started = Instant::now();
        let num_queries = queries.len();
        let num_objects = dindex.index.num_objects() as usize;
        let mut profile = StageProfile::default();

        if num_queries == 0 || num_objects == 0 {
            return SearchOutput {
                results: vec![Vec::new(); num_queries],
                profile,
                cpq_bytes_per_query: 0,
                audit_thresholds: vec![1; num_queries],
            };
        }

        let bound = self
            .config
            .count_bound
            .unwrap_or_else(|| count_bound(queries, dindex.index.max_object_len()));
        let layout = CpqLayout {
            num_queries,
            num_objects,
            bound,
            k,
        };
        let cpq = Cpq::new(layout);

        // --- query transfer: ship scan tasks to the device -------------
        let tasks = build_scan_tasks(&dindex.index, queries);
        let task_words = encode_tasks(&tasks);
        let task_bytes = (task_words.len() * 4) as u64;
        let tasks_dev = GlobalU32::from_host(&task_words);
        self.device.record_h2d(task_bytes);
        profile.query_transfer_us = self.device.cost_model().transfer_us(task_bytes);

        // --- match kernel: one block per scan task ----------------------
        if !tasks.is_empty() {
            let cfg = LaunchConfig::new(tasks.len(), self.config.block_dim);
            let list = &dindex.list;
            let cpq_ref = &cpq;
            let tasks_ref = &tasks_dev;
            let stats = self.device.launch("genie_match", cfg, move |ctx| {
                let t = ctx.block_idx * TASK_WORDS;
                let query = tasks_ref.load(ctx, t) as usize;
                let start = tasks_ref.load(ctx, t + 1) as usize;
                let len = tasks_ref.load(ctx, t + 2) as usize;
                let mut i = ctx.thread_idx;
                while i < len {
                    let object = list.load(ctx, start + i);
                    cpq_ref.update(ctx, query, object);
                    i += ctx.block_dim;
                }
            });
            profile.match_us = stats.sim_us(self.device.cost_model());
        }

        // --- selection: scan each query's hash table once ---------------
        let (results, audit_thresholds, select_us) = self.select(&cpq, num_queries, k);
        profile.select_us = select_us;
        profile.host_us = elapsed_us(started);

        SearchOutput {
            results,
            profile,
            cpq_bytes_per_query: layout.bytes_per_query(),
            audit_thresholds,
        }
    }

    /// The selection stage: device kernel compacts qualifying entries
    /// (count >= AT-1), host downloads the compact candidate lists and
    /// finishes the top-k.
    fn select(&self, cpq: &Cpq, num_queries: usize, k: usize) -> (Vec<Vec<TopHit>>, Vec<u32>, f64) {
        let slots = cpq.table().slots_per_query();
        let cap = cpq.layout().select_out_per_query();
        let out = GlobalU64::zeroed(num_queries * cap);
        let out_len = GlobalU32::zeroed(num_queries);
        let table = cpq.table();
        let at_buf = cpq.at_buffer();
        let out_ref = &out;
        let len_ref = &out_len;

        let cfg = LaunchConfig::new(num_queries, self.config.block_dim.min(slots).max(1));
        let stats = self.device.launch("genie_select", cfg, move |ctx| {
            let q = ctx.block_idx;
            let threshold = at_buf.load(ctx, q).saturating_sub(1);
            let mut i = ctx.thread_idx;
            while i < slots {
                let slot = table.load_slot(ctx, q, i);
                if slot != EMPTY_SLOT {
                    let (_, count) = RobinHoodTable::decode(slot);
                    if count >= threshold {
                        let pos = len_ref.atomic_add(ctx, q, 1) as usize;
                        if pos < cap {
                            out_ref.store(ctx, q * cap + pos, slot);
                        }
                        // overflowing candidates are ties at the
                        // threshold beyond what top-k can use; the paper
                        // breaks such ties randomly anyway
                    }
                }
                i += ctx.block_dim;
            }
        });
        let mut select_us = stats.sim_us(self.device.cost_model());

        // D2H: candidate counts + used slots + final ATs
        let lens = out_len.to_host();
        let used: u64 = lens.iter().map(|&l| (l as usize).min(cap) as u64).sum();
        let d2h_bytes = used * 8 + num_queries as u64 * 8;
        self.device.record_d2h(d2h_bytes);
        select_us += self.device.cost_model().transfer_us(d2h_bytes);

        let mut results = Vec::with_capacity(num_queries);
        let mut ats = Vec::with_capacity(num_queries);
        let raw = out.to_host();
        for q in 0..num_queries {
            let at = cpq.final_audit_threshold(q);
            ats.push(at);
            let used = (lens[q] as usize).min(cap);
            let candidates = raw[q * cap..q * cap + used]
                .iter()
                .map(|&slot| RobinHoodTable::decode(slot));
            results.push(finalize_candidates(candidates, at.saturating_sub(1), k));
        }
        (results, ats, select_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::model::{match_count, Object, QueryItem};
    use crate::topk::reference_top_k;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> Engine {
        Engine::new(Arc::new(Device::with_defaults()))
    }

    fn index_of(objects: &[Object]) -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        b.add_objects(objects.iter());
        Arc::new(b.build(None))
    }

    #[test]
    fn figure_1_running_example_end_to_end() {
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
        let eng = engine();
        let didx = eng.upload(index_of(&objects)).unwrap();
        let out = eng.search(&didx, &[q1], 1);
        assert_eq!(out.results[0][0].id, 1, "O2 is the top-1");
        assert_eq!(out.results[0][0].count, 3);
        assert_eq!(out.audit_thresholds[0], 4, "Example 3.1: AT ends at 4");
    }

    #[test]
    fn engine_matches_brute_force_on_random_workload() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 300usize;
        let universe = 50u32;
        let objects: Vec<Object> = (0..n)
            .map(|_| {
                let len = rng.random_range(1..8usize);
                let mut kws: Vec<u32> = (0..len).map(|_| rng.random_range(0..universe)).collect();
                kws.sort_unstable();
                kws.dedup();
                Object::new(kws)
            })
            .collect();
        let queries: Vec<Query> = (0..16)
            .map(|_| {
                let len = rng.random_range(1..6usize);
                let items = (0..len)
                    .map(|_| {
                        let lo = rng.random_range(0..universe);
                        let hi = (lo + rng.random_range(0..4)).min(universe - 1);
                        QueryItem::range(lo, hi)
                    })
                    .collect();
                Query::new(items)
            })
            .collect();

        let eng = engine();
        let didx = eng.upload(index_of(&objects)).unwrap();
        let k = 10;
        let out = eng.search(&didx, &queries, k);

        for (qi, q) in queries.iter().enumerate() {
            let counts: Vec<u32> = objects.iter().map(|o| match_count(q, o)).collect();
            let expected = reference_top_k(&counts, k);
            let got = &out.results[qi];
            // same multiset of counts (ties may resolve differently)
            let got_counts: Vec<u32> = got.iter().map(|h| h.count).collect();
            let exp_counts: Vec<u32> = expected.iter().map(|h| h.count).collect();
            assert_eq!(got_counts, exp_counts, "query {qi}");
            // and every returned id really has the claimed count
            for hit in got {
                assert_eq!(counts[hit.id as usize], hit.count, "query {qi}");
            }
        }
    }

    #[test]
    fn fewer_matches_than_k_returns_what_exists() {
        let objects = vec![Object::new(vec![1]), Object::new(vec![2])];
        let eng = engine();
        let didx = eng.upload(index_of(&objects)).unwrap();
        let out = eng.search(&didx, &[Query::from_keywords(&[1])], 10);
        assert_eq!(out.results[0].len(), 1);
        assert_eq!(out.results[0][0], TopHit { id: 0, count: 1 });
    }

    #[test]
    fn query_with_no_matching_keywords_returns_empty() {
        let objects = vec![Object::new(vec![1])];
        let eng = engine();
        let didx = eng.upload(index_of(&objects)).unwrap();
        let out = eng.search(&didx, &[Query::from_keywords(&[42])], 5);
        assert!(out.results[0].is_empty());
    }

    #[test]
    fn empty_batch_is_fine() {
        let objects = vec![Object::new(vec![1])];
        let eng = engine();
        let didx = eng.upload(index_of(&objects)).unwrap();
        let out = eng.search(&didx, &[], 5);
        assert!(out.results.is_empty());
    }

    #[test]
    fn profile_reports_all_stages() {
        let objects: Vec<Object> = (0..100).map(|i| Object::new(vec![i % 10])).collect();
        let eng = engine();
        let didx = eng.upload(index_of(&objects)).unwrap();
        assert!(didx.upload_sim_us > 0.0);
        let queries: Vec<Query> = (0..4).map(|i| Query::from_keywords(&[i])).collect();
        let out = eng.search(&didx, &queries, 3);
        assert!(out.profile.match_us > 0.0);
        assert!(out.profile.select_us > 0.0);
        assert!(out.profile.query_transfer_us > 0.0);
        assert!(out.cpq_bytes_per_query > 0);
    }

    #[test]
    fn upload_respects_device_memory() {
        let cfg = gpu_sim::DeviceConfig {
            memory_bytes: 16, // 4 words
            ..Default::default()
        };
        let eng = Engine::new(Arc::new(Device::new(cfg)));
        let objects: Vec<Object> = (0..100).map(|i| Object::new(vec![i])).collect();
        assert!(eng.upload(index_of(&objects)).is_err());
    }
}

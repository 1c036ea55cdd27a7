//! The simulated device: launches kernels, runs blocks in parallel on
//! host threads, and aggregates cost-model statistics.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::counters::{block_simd_cost, makespan, CostModel, DeviceCounters, LaunchStats};
use crate::grid::{LaunchConfig, ThreadCtx};

/// Device construction parameters.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Host worker threads used to execute blocks in parallel. Defaults to
    /// the number of available CPUs.
    pub host_workers: usize,
    /// Cost-model constants of the simulated hardware.
    pub cost_model: CostModel,
    /// Simulated global-memory capacity in bytes (12 GB mirrors the
    /// GTX TITAN X used in the paper). Enforced by [`Device::check_fits`]
    /// so the multiple-loading path is exercised the same way it is on
    /// real hardware.
    pub memory_bytes: u64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            host_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cost_model: CostModel::default(),
            memory_bytes: 12 * 1024 * 1024 * 1024,
        }
    }
}

/// The software SIMT device.
///
/// A `Device` executes [`Device::launch`] calls: the kernel closure runs
/// once per lane of the grid, blocks execute concurrently across host
/// worker threads, and all inter-lane communication happens through the
/// atomic [`crate::GlobalU32`]/[`crate::GlobalU64`] buffers the closure
/// captures — exactly the discipline CUDA kernels obey.
pub struct Device {
    config: DeviceConfig,
    counters: Mutex<DeviceCounters>,
}

impl Device {
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            config,
            counters: Mutex::new(DeviceCounters::default()),
        }
    }

    /// A device with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(DeviceConfig::default())
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.config.cost_model
    }

    /// Returns an error if `bytes` exceeds the simulated memory capacity.
    pub fn check_fits(&self, bytes: u64) -> Result<(), String> {
        if bytes > self.config.memory_bytes {
            Err(format!(
                "allocation of {bytes} bytes exceeds device memory of {} bytes",
                self.config.memory_bytes
            ))
        } else {
            Ok(())
        }
    }

    /// Record a host-to-device transfer of `bytes` (index/query uploads).
    pub fn record_h2d(&self, bytes: u64) {
        self.counters.lock().h2d_bytes += bytes;
    }

    /// Record a device-to-host transfer of `bytes` (result downloads).
    pub fn record_d2h(&self, bytes: u64) {
        self.counters.lock().d2h_bytes += bytes;
    }

    /// Snapshot of the cumulative counters.
    pub fn counters(&self) -> DeviceCounters {
        self.counters.lock().clone()
    }

    /// Launch `kernel` over `cfg`. The closure is invoked once per lane
    /// with that lane's [`ThreadCtx`]; blocks run in parallel over the
    /// host worker pool. Returns the launch's cost statistics.
    ///
    /// # Panics
    /// Panics if the launch configuration violates hardware limits; this
    /// mirrors a CUDA launch failure and always indicates a caller bug.
    pub fn launch<K>(&self, name: &str, cfg: LaunchConfig, kernel: K) -> LaunchStats
    where
        K: Fn(&ThreadCtx) + Sync,
    {
        cfg.validate().expect("invalid launch configuration");

        let next_block = AtomicUsize::new(0);
        let workers = self.config.host_workers.max(1).min(cfg.grid_dim);
        let results: Mutex<Vec<BlockReport>> = Mutex::new(Vec::with_capacity(cfg.grid_dim));

        let run_block = |block_idx: usize| -> BlockReport {
            let mut lane_work = Vec::with_capacity(cfg.block_dim);
            let mut report = BlockReport::default();
            for thread_idx in 0..cfg.block_dim {
                let ctx = ThreadCtx::new(block_idx, thread_idx, &cfg);
                kernel(&ctx);
                let lane = ctx.drain();
                report.total_work += lane.work;
                report.atomic_retries += lane.atomic_retries;
                report.mem_ops += lane.mem_ops;
                lane_work.push(lane.work);
            }
            let (simd, cost) = block_simd_cost(&lane_work);
            report.simd_cycles = simd;
            report.block_cost = cost;
            report
        };

        if workers <= 1 {
            let mut local = Vec::with_capacity(cfg.grid_dim);
            for b in 0..cfg.grid_dim {
                local.push(run_block(b));
            }
            *results.lock() = local;
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let b = next_block.fetch_add(1, Ordering::Relaxed);
                            if b >= cfg.grid_dim {
                                break;
                            }
                            local.push(run_block(b));
                        }
                        results.lock().extend(local);
                    });
                }
            });
        }

        let reports = results.into_inner();
        let mut block_costs: Vec<u64> = reports.iter().map(|r| r.block_cost).collect();
        let mut stats = LaunchStats {
            name: name.to_string(),
            blocks: cfg.grid_dim,
            threads: cfg.total_threads(),
            ..Default::default()
        };
        for r in &reports {
            stats.total_work += r.total_work;
            stats.simd_cycles += r.simd_cycles;
            stats.atomic_retries += r.atomic_retries;
            stats.mem_ops += r.mem_ops;
        }
        stats.makespan_cycles = makespan(&mut block_costs, self.config.cost_model.num_sm)
            + self.config.cost_model.launch_overhead_cycles;

        self.counters.lock().absorb(&stats);
        stats
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct BlockReport {
    total_work: u64,
    simd_cycles: u64,
    block_cost: u64,
    atomic_retries: u64,
    mem_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::GlobalU32;

    #[test]
    fn launch_runs_every_lane_exactly_once() {
        let device = Device::with_defaults();
        let n = 10_000usize;
        let hits = GlobalU32::zeroed(n);
        let cfg = LaunchConfig::cover(n, 256);
        let buf = hits.clone();
        device.launch("touch", cfg, move |ctx| {
            let gid = ctx.global_id();
            if gid < n {
                buf.atomic_add(ctx, gid, 1);
            }
        });
        assert!(hits.to_host().iter().all(|&v| v == 1));
    }

    #[test]
    fn concurrent_atomic_adds_do_not_lose_updates() {
        let device = Device::with_defaults();
        let counter = GlobalU32::zeroed(1);
        let cfg = LaunchConfig::new(64, 256);
        let buf = counter.clone();
        device.launch("contend", cfg, move |ctx| {
            buf.atomic_add(ctx, 0, 1);
        });
        assert_eq!(counter.read_host(0), (64 * 256) as u32);
    }

    #[test]
    fn launch_stats_account_work() {
        let device = Device::with_defaults();
        let cfg = LaunchConfig::new(4, 32);
        let stats = device.launch("tick", cfg, |ctx| ctx.tick(10));
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.threads, 128);
        assert_eq!(stats.total_work, 128 * 10);
        // 4 blocks of one warp each, each warp costs max(lane)=10
        assert_eq!(stats.simd_cycles, 40);
        assert!(stats.makespan_cycles >= 10);
        let counters = device.counters();
        assert_eq!(counters.launches, 1);
        assert_eq!(counters.total_work, 1280);
    }

    #[test]
    fn divergence_shows_up_in_efficiency() {
        let device = Device::with_defaults();
        let cfg = LaunchConfig::new(1, 32);
        let stats = device.launch("diverge", cfg, |ctx| {
            // one lane of the warp does 32x the work
            if ctx.thread_idx == 0 {
                ctx.tick(320);
            } else {
                ctx.tick(10);
            }
        });
        assert!(stats.simd_efficiency() < 0.2);
    }

    #[test]
    fn few_blocks_cannot_fill_the_device() {
        // A launch with 1 block has the same makespan as its block cost,
        // no matter how many SMs exist — this is the GPU-LSH effect.
        let device = Device::with_defaults();
        let one = device.launch("one", LaunchConfig::new(1, 32), |ctx| ctx.tick(1000));
        let many = device.launch("many", LaunchConfig::new(24, 32), |ctx| ctx.tick(1000));
        // 24 blocks spread over 24 SMs: same makespan as 1 block
        assert_eq!(
            one.makespan_cycles, many.makespan_cycles,
            "independent blocks should run fully in parallel"
        );
        assert_eq!(many.total_work, 24 * one.total_work);
    }

    #[test]
    fn memory_capacity_is_enforced() {
        let cfg = DeviceConfig {
            memory_bytes: 1024,
            ..Default::default()
        };
        let device = Device::new(cfg);
        assert!(device.check_fits(1000).is_ok());
        assert!(device.check_fits(2000).is_err());
    }

    #[test]
    fn transfer_counters_accumulate() {
        let device = Device::with_defaults();
        device.record_h2d(100);
        device.record_h2d(50);
        device.record_d2h(25);
        let c = device.counters();
        assert_eq!(c.h2d_bytes, 150);
        assert_eq!(c.d2h_bytes, 25);
    }

    #[test]
    fn single_worker_path_matches_parallel_path() {
        let cfg = DeviceConfig {
            host_workers: 1,
            ..Default::default()
        };
        let device = Device::new(cfg);
        let n = 1000usize;
        let out = GlobalU32::zeroed(n);
        let buf = out.clone();
        device.launch("seq", LaunchConfig::cover(n, 128), move |ctx| {
            let gid = ctx.global_id();
            if gid < n {
                buf.store(ctx, gid, gid as u32 * 2);
            }
        });
        let host = out.to_host();
        assert_eq!(host[499], 998);
    }
}

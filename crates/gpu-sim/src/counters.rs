//! The device cost model: turning per-lane work into simulated time.
//!
//! The model is deliberately simple but preserves the effects GENIE's
//! evaluation depends on:
//!
//! * **SIMD lock-step** — a warp costs the *maximum* of its lanes' work,
//!   so divergent branches (lanes doing unequal work) slow the warp.
//! * **Occupancy** — block costs are scheduled onto `num_sm` streaming
//!   multiprocessors (longest-processing-time makespan). A launch with
//!   few blocks cannot use the whole device, which is exactly why the
//!   paper's GPU-LSH (one *thread* per query) is flat in the number of
//!   queries while GENIE (one *block* per query item) keeps scaling.
//! * **Transfers** — H2D/D2H bytes are converted to time with a PCIe-like
//!   bandwidth so Table I's "index transfer" row is reproducible.

use crate::grid::WARP_WIDTH;

/// Tunable constants of the simulated device.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Number of streaming multiprocessors blocks are scheduled over.
    pub num_sm: usize,
    /// Simulated clock in cycles per microsecond (1000 = 1 GHz).
    pub cycles_per_us: u64,
    /// Host<->device copy bandwidth in bytes per microsecond
    /// (12_000 ~ 12 GB/s PCIe 3.0 x16).
    pub transfer_bytes_per_us: u64,
    /// Fixed per-launch overhead in cycles (driver + scheduling).
    pub launch_overhead_cycles: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            num_sm: 24,
            cycles_per_us: 1000,
            transfer_bytes_per_us: 12_000,
            launch_overhead_cycles: 5_000,
        }
    }
}

impl CostModel {
    /// Simulated microseconds to move `bytes` across the bus.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        bytes as f64 / self.transfer_bytes_per_us as f64
    }

    /// Simulated microseconds for `cycles` of device work.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cycles_per_us as f64
    }
}

/// Statistics of a single kernel launch.
#[derive(Debug, Clone, Default)]
pub struct LaunchStats {
    /// Kernel name (for profiling output).
    pub name: String,
    pub blocks: usize,
    pub threads: usize,
    /// Sum of all lanes' work (cycles of raw work issued).
    pub total_work: u64,
    /// Sum over blocks of (sum over warps of max-lane work): the SIMD cost.
    pub simd_cycles: u64,
    /// Makespan after scheduling block costs on `num_sm` SMs, plus launch
    /// overhead — the simulated execution time of this launch, in cycles.
    pub makespan_cycles: u64,
    /// Total failed CAS attempts (atomic contention).
    pub atomic_retries: u64,
    /// Total global-memory operations issued.
    pub mem_ops: u64,
}

impl LaunchStats {
    /// Simulated execution time of this launch in microseconds.
    pub fn sim_us(&self, model: &CostModel) -> f64 {
        model.cycles_to_us(self.makespan_cycles)
    }

    /// Fraction of SIMD lane-slots doing useful work (1.0 = every lane of
    /// every warp busy for the warp's whole duration; lower = divergence).
    pub fn simd_efficiency(&self) -> f64 {
        if self.simd_cycles == 0 {
            return 1.0;
        }
        self.total_work as f64 / (self.simd_cycles * WARP_WIDTH as u64) as f64
    }
}

/// Cumulative counters across the lifetime of one [`crate::Device`].
#[derive(Debug, Clone, Default)]
pub struct DeviceCounters {
    pub launches: u64,
    pub total_work: u64,
    pub simd_cycles: u64,
    pub makespan_cycles: u64,
    pub atomic_retries: u64,
    pub mem_ops: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
}

impl DeviceCounters {
    pub(crate) fn absorb(&mut self, stats: &LaunchStats) {
        self.launches += 1;
        self.total_work += stats.total_work;
        self.simd_cycles += stats.simd_cycles;
        self.makespan_cycles += stats.makespan_cycles;
        self.atomic_retries += stats.atomic_retries;
        self.mem_ops += stats.mem_ops;
    }

    /// Total simulated device time (kernels + transfers), microseconds.
    pub fn sim_us(&self, model: &CostModel) -> f64 {
        model.cycles_to_us(self.makespan_cycles)
            + model.transfer_us(self.h2d_bytes + self.d2h_bytes)
    }
}

/// Longest-processing-time makespan of `block_costs` on `num_sm` machines.
///
/// Blocks are sorted descending and greedily assigned to the least-loaded
/// SM; the returned makespan is the simulated parallel execution time.
pub(crate) fn makespan(block_costs: &mut [u64], num_sm: usize) -> u64 {
    if block_costs.is_empty() || num_sm == 0 {
        return 0;
    }
    block_costs.sort_unstable_by(|a, b| b.cmp(a));
    let mut sms = vec![0u64; num_sm.min(block_costs.len())];
    for &cost in block_costs.iter() {
        // least-loaded SM; linear scan is fine for the SM counts we use
        let (idx, _) = sms
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| **load)
            .expect("sms is non-empty");
        sms[idx] += cost;
    }
    sms.into_iter().max().unwrap_or(0)
}

/// Concurrent warp slots per SM (the TITAN X's SMM has 4 warp
/// schedulers, i.e. 128 lanes issuing per cycle).
pub const WARP_SLOTS_PER_SM: u64 = 4;

/// Fold per-lane work of one block into (simd_cycles, block_cost):
///
/// * `simd_cycles` — sum over warps of the max lane work (total SIMD
///   slot-time; the denominator of divergence efficiency);
/// * `block_cost` — the block's simulated residency time on an SM: its
///   warps are interleaved over [`WARP_SLOTS_PER_SM`] schedulers, so the
///   block takes `max(ceil(simd / slots), slowest warp)` cycles. This is
///   what makes a single 1024-lane block only ~8x slower than a 32-lane
///   one, not 32x — and why thread-per-query designs (GPU-LSH) are flat
///   in batch size until the device fills.
pub(crate) fn block_simd_cost(lane_work: &[u64]) -> (u64, u64) {
    let mut total = 0u64;
    let mut slowest = 0u64;
    for warp in lane_work.chunks(WARP_WIDTH) {
        let w = warp.iter().copied().max().unwrap_or(0);
        total += w;
        slowest = slowest.max(w);
    }
    let scheduled = total.div_ceil(WARP_SLOTS_PER_SM);
    (total, scheduled.max(slowest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_single_sm_is_sum() {
        let mut costs = vec![3, 1, 2];
        assert_eq!(makespan(&mut costs, 1), 6);
    }

    #[test]
    fn makespan_many_sms_is_max() {
        let mut costs = vec![3, 1, 2];
        assert_eq!(makespan(&mut costs, 8), 3);
    }

    #[test]
    fn makespan_balances_load() {
        let mut costs = vec![4, 3, 3, 2];
        // LPT on 2 machines: {4,2}, {3,3} -> makespan 6
        assert_eq!(makespan(&mut costs, 2), 6);
    }

    #[test]
    fn makespan_empty() {
        assert_eq!(makespan(&mut [], 4), 0);
        assert_eq!(makespan(&mut [5], 0), 0);
    }

    #[test]
    fn simd_cost_is_warp_max_sum() {
        // one full warp with a straggler + one partial warp
        let mut lanes = vec![1u64; 32];
        lanes[7] = 10;
        lanes.extend_from_slice(&[2, 2]);
        let (simd, cost) = block_simd_cost(&lanes);
        assert_eq!(simd, 10 + 2);
        // 12 cycles of warp time over 4 slots, but the slowest warp (10)
        // lower-bounds the block
        assert_eq!(cost, 10);
    }

    #[test]
    fn block_cost_interleaves_warps_over_slots() {
        // 8 uniform warps of cost 10: 80 slot-cycles over 4 schedulers
        let lanes = vec![10u64; 8 * 32];
        let (simd, cost) = block_simd_cost(&lanes);
        assert_eq!(simd, 80);
        assert_eq!(cost, 20);
    }

    #[test]
    fn simd_efficiency_reflects_divergence() {
        let stats = LaunchStats {
            total_work: 1600,
            simd_cycles: 100,
            ..Default::default()
        };
        assert!((stats.simd_efficiency() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cost_model_transfer_time() {
        let m = CostModel::default();
        // 12 MB at 12 GB/s is 1000 us
        assert!((m.transfer_us(12_000_000) - 1000.0).abs() < 1e-6);
    }
}

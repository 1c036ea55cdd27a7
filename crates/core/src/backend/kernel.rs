//! The host counting kernel behind [`CpuBackend`](super::CpuBackend).
//!
//! Match-count top-k is a *counting* problem: throughput is bounded by
//! how fast postings can be streamed into a per-query counter structure
//! and the touched counters reduced to a top-k list. The seed CPU path
//! paid three `O(n)` taxes per query that have nothing to do with the
//! postings actually scanned: allocating a fresh dense `vec![0u32; n]`,
//! zeroing it, and sweeping all `n` slots to collect candidates. This
//! module replaces that loop with a kernel whose cost tracks
//! `O(postings scanned + objects matched)`:
//!
//! * **Epoch-stamped scratch** ([`CountScratch`]) — every counter cell
//!   carries the epoch that last wrote it. A new query bumps the epoch
//!   (one integer increment); stale cells from earlier queries are
//!   *logically* zero because their stamp no longer matches, so nothing
//!   is ever re-zeroed and nothing is allocated after warm-up. Scratches
//!   live in a per-index [`ScratchPool`] and are reused across queries,
//!   batches and worker threads.
//! * **Sparse candidate harvesting** — the first posting that touches an
//!   object records its id in a touched list; finalisation walks that
//!   list instead of sweeping all `n` slots. When a query turns out to
//!   be dense after all (the touched fraction crosses
//!   [`KernelConfig::dense_touched_fraction`], checked once per counted
//!   chunk), harvesting switches off mid-scan: the harvested counts are
//!   replayed into the plain dense array and the rest of the scan
//!   continues on the lane-split dense path below — the adaptive regime
//!   keeps the worst case at dense-kernel cost while selective queries
//!   skip the `O(n)` work entirely. Queries whose postings volume alone
//!   predicts a dense outcome
//!   ([`KernelConfig::dense_postings_per_object`]) skip harvesting up
//!   front and count into the dense array directly: stamped bumps carry
//!   twice the memory traffic, which is the right trade only while the
//!   stamps are actually saving an `O(n)` reset.
//! * **Lane-split dense counting** — the dense scatter
//!   (`counts[obj] += 1`) cannot be vectorized (the increments conflict
//!   on arbitrary addresses), and on wide out-of-order cores it is not
//!   bandwidth-bound either: a single increment chain leaves the store
//!   pipeline idle waiting on counter-line latency. The dense path
//!   therefore splits every postings run into
//!   [`KernelConfig::dense_lanes`] equal contiguous sub-runs advanced in
//!   lockstep — `L` independent load-increment-store chains per
//!   iteration, far enough apart to never collide on a cache line —
//!   with the `run.len() % lanes` remainder counted scalar. Measured on
//!   the baseline host this takes the saturating-workload scatter from
//!   ~1.9 to ~1.0 cycles per posting (see `BENCH_cpu_kernel.json`).
//!   Finalisation no longer collects every nonzero counter into a
//!   `partial_top_k` quickselect: a 4-lane count histogram (lanes again
//!   break the store-forward stalls on hot buckets) finds the k-th
//!   boundary count, and a [`screen_chunk`]-vectorized scan collects
//!   only the few qualifying objects. Counts beyond the histogram range
//!   fall back to the full sweep — either way the result is
//!   bit-identical to [`partial_top_k`] (count descending, id
//!   ascending, same boundary ties).
//! * **Segment coalescing + chunked counting** — postings runs come from
//!   [`InvertedIndex::coalesced_segments_for_range`], which merges
//!   segments adjacent in the List Array (including load-balanced
//!   sublists, whose split only exists to balance *device* blocks) into
//!   single contiguous slices. Each run is counted in fixed-width chunks
//!   ([`CHUNK`] postings) so the inner loop is branch-light and
//!   unrollable; the adaptive harvest check runs per chunk, not per
//!   posting.
//!
//! ## Contract
//!
//! The kernel is result-identical to the seed dense path (kept
//! executable as [`reference_search_one`]): counts equal brute-force
//! [`match_count`](crate::model::match_count), hits are ordered (count
//! descending, id ascending), and the final AuditThreshold follows
//! Theorem 3.1 (`AT = MC_k + 1`, or 1 when fewer than `k` objects
//! matched). Property tests in `crates/core/tests/kernel_props.rs` prove
//! bit-identity (ids, counts, AT) across randomized workloads.
//!
//! ## Scratch-epoch invariants
//!
//! * A stamped cell's `count` is meaningful if and only if
//!   `stamp == epoch`.
//! * `CountScratch::begin` bumps the epoch for stamped (harvesting)
//!   queries; on wrap-around (once per `u32::MAX` queries) every cell
//!   is physically re-zeroed so stale stamps can never alias the
//!   restarted epoch. A dense-up-front query instead memsets the
//!   separate plain array and leaves the stamped table (and its epoch
//!   discipline) untouched.
//! * The touched list holds exactly the ids first-touched while
//!   harvesting was on; if harvesting was switched off at any point the
//!   list is incomplete and finalisation *must* use the dense sweep
//!   (tracked by the `harvesting` flag).
//! * Scratches may only be shared across queries of the *same* index
//!   (the pool lives in the per-upload
//!   [`BackendIndex`](super::BackendIndex) payload, which pins it to one
//!   index and one object-id space).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::index::{InvertedIndex, PostingsSegment};
use crate::model::{ObjectId, Query};
use crate::topk::{audit_threshold, finalize_unique_candidates, partial_top_k, TopHit};

/// Width of the fixed-size counting chunks: long enough to amortise the
/// per-chunk adaptive check and give the compiler an unrollable body,
/// short enough that harvesting reacts to a dense query within a few
/// hundred postings.
pub const CHUNK: usize = 64;

/// Tuning knobs of the adaptive kernel. The defaults were measured with
/// `repro --cpu-kernel` on the baseline host (Xeon @ 2.1 GHz, AVX-512;
/// see `BENCH_cpu_kernel.json` for the recorded sweep); the measured
/// crossover points below are per-field.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Skip harvesting up front when the query's total postings volume
    /// reaches this many postings *per indexed object* (the scan will
    /// touch most objects anyway, so recording first-touches is wasted
    /// work on top of the unavoidable dense sweep).
    ///
    /// **Tuning.** The trade is stamped-bump traffic (two words per
    /// counter) plus a wasted touched list against one `O(n)` memset.
    /// On the baseline host the sparse workload (~16 postings/query,
    /// `n = 100k`) runs at ~11 µs/query harvested vs ~800 µs dense,
    /// while the saturating workload (~4.7 postings/object) regresses
    /// ~35% if forced to harvest. The regimes separate cleanly around
    /// one posting per object; values in `[0.5, 2.0]` measure within
    /// noise of each other, so the default sits at `1.0`.
    pub dense_postings_per_object: f64,
    /// Abort harvesting mid-scan once more than this fraction of the
    /// object universe has been touched; the harvested counts are
    /// replayed into the dense lane array and the scan continues on the
    /// vectorized dense path.
    ///
    /// **Tuning.** Only mispredicted queries (sparse postings volume,
    /// dense touch pattern) ever reach this limit, and the flip now
    /// *switches* regimes rather than merely degrading, so the knob is
    /// forgiving: it must only stop the touched list before its
    /// replay-into-dense cost (one store per touched id) rivals the
    /// counting itself. Half the universe keeps the replay under one
    /// memset-equivalent; measured end-to-end latency on mispredicted
    /// queries is flat within noise for fractions in `[0.25, 0.75]`.
    pub dense_touched_fraction: f64,
    /// Number of independent increment chains the dense counting path
    /// drives per postings run (each run is split into this many equal
    /// contiguous sub-runs advanced in lockstep; the remainder is
    /// counted scalar). Values are clamped to the nearest of
    /// `{1, 2, 4, 8}`.
    ///
    /// **Tuning.** The dense scatter is latency-bound, not
    /// bandwidth-bound: one chain leaves the store pipeline idle on
    /// counter-line round-trips. Measured on the baseline host's
    /// saturating workload (~470k postings/query, `n = 100k`):
    /// 1 lane ≈ 1.9 cycles/posting, 2 lanes ≈ 1.25, 4 lanes ≈ 1.0,
    /// 8 lanes within noise of 4 (the four extra chains only add
    /// sub-run bookkeeping once the load/store ports saturate). The
    /// crossover to diminishing returns sits at 4 on every core wide
    /// enough to retire 2 loads + 1 store per cycle.
    pub dense_lanes: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            dense_postings_per_object: 1.0,
            dense_touched_fraction: 0.5,
            dense_lanes: 4,
        }
    }
}

impl KernelConfig {
    fn harvest_up_front(&self, total_postings: u64, num_objects: usize) -> bool {
        (total_postings as f64) < self.dense_postings_per_object * num_objects as f64
    }

    fn touched_limit(&self, num_objects: usize) -> usize {
        (self.dense_touched_fraction * num_objects as f64) as usize
    }

    /// `dense_lanes` clamped to the lane counts the counting loop is
    /// actually compiled for.
    fn effective_lanes(&self) -> usize {
        match self.dense_lanes {
            0 | 1 => 1,
            2 | 3 => 2,
            4..=7 => 4,
            _ => 8,
        }
    }
}

/// Lifetime counters of one [`CpuBackend`](super::CpuBackend)'s kernel
/// decisions, kept on atomics so worker threads record without
/// coordination. Snapshot with [`KernelStats::snapshot`].
#[derive(Debug, Default)]
pub struct KernelStats {
    queries: AtomicU64,
    sparse_finalize: AtomicU64,
    dense_finalize: AtomicU64,
    postings_scanned: AtomicU64,
    candidates: AtomicU64,
}

/// One consistent read of [`KernelStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStatsSnapshot {
    /// Queries the kernel served.
    pub queries: u64,
    /// Queries finalised from the harvested touched list.
    pub sparse_finalize: u64,
    /// Queries finalised with the dense epoch-filtered sweep (chosen up
    /// front or by the mid-scan fallback).
    pub dense_finalize: u64,
    /// Always 0: every query is counted by one worker. Kept because
    /// `benchmark/` reads it.
    pub parallel_queries: u64,
    /// Postings streamed through the counting loops.
    pub postings_scanned: u64,
    /// Candidate objects that reached finalisation.
    pub candidates: u64,
}

impl KernelStats {
    fn record(&self, sparse: bool, postings: u64, candidates: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if sparse {
            self.sparse_finalize.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dense_finalize.fetch_add(1, Ordering::Relaxed);
        }
        self.postings_scanned.fetch_add(postings, Ordering::Relaxed);
        self.candidates.fetch_add(candidates, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> KernelStatsSnapshot {
        KernelStatsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            sparse_finalize: self.sparse_finalize.load(Ordering::Relaxed),
            dense_finalize: self.dense_finalize.load(Ordering::Relaxed),
            parallel_queries: 0,
            postings_scanned: self.postings_scanned.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
        }
    }
}

/// One counter cell: `count` is valid only while `stamp` equals the
/// scratch's current epoch.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    count: u32,
    stamp: u32,
}

/// Reusable per-query counting state: the epoch-stamped counter table,
/// the harvested touched list and the coalesced-run buffer. Acquire from
/// a [`ScratchPool`]; never share across different indexes.
#[derive(Debug, Default)]
pub struct CountScratch {
    cells: Vec<Cell>,
    epoch: u32,
    /// Objects the scratch's counters currently describe (the table may
    /// be longer after reuse, but never shorter).
    active: usize,
    touched: Vec<ObjectId>,
    harvesting: bool,
    /// Dense mode (up-front prediction or mid-scan flip): counting runs
    /// on the plain `u32` array `dense` through the lane-split scatter
    /// (half the memory traffic of a stamped bump), zeroed at `begin`
    /// but reused across queries instead of freshly allocated.
    zeroed: bool,
    /// The zeroed-mode counter array; allocated lazily, only if a
    /// dense query ever arrives at this scratch.
    dense: Vec<u32>,
    touched_limit: usize,
    /// Independent increment chains of the dense scatter
    /// ([`KernelConfig::dense_lanes`], normalized).
    lanes: usize,
    runs: Vec<PostingsSegment>,
    /// Bytes already folded into the owning pool's tracked footprint
    /// (maintained by [`ScratchPool::release`]).
    accounted_bytes: u64,
}

impl CountScratch {
    /// Start a new query over `num_objects` objects.
    ///
    /// With `harvesting` on, the epoch is bumped (a single increment
    /// logically zeroes every counter) and first-touches are recorded;
    /// cells are physically re-zeroed only on epoch wrap-around. With
    /// `harvesting` off the query was predicted dense up front: the
    /// counters are memset instead (a reused buffer, so still no
    /// allocation) and counting runs the cheaper unstamped loop.
    fn begin(&mut self, num_objects: usize, harvesting: bool, config: &KernelConfig) {
        if self.cells.len() < num_objects {
            self.cells.resize(num_objects, Cell::default());
        }
        self.active = num_objects;
        self.zeroed = !harvesting;
        if self.zeroed {
            // the stamped table is untouched (its epochs stay valid);
            // only the plain dense array is re-zeroed, one memset
            if self.dense.len() < num_objects {
                self.dense.resize(num_objects, 0);
            }
            self.dense[..num_objects].fill(0);
        } else if self.epoch == u32::MAX {
            self.cells.fill(Cell::default());
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.touched.clear();
        self.harvesting = harvesting;
        self.touched_limit = config.touched_limit(num_objects);
        self.lanes = config.effective_lanes();
    }

    /// The mid-scan sparse→dense flip: the touched list is complete up
    /// to this point, so the harvested counts are replayed into the
    /// dense array and the rest of the scan lands on the vectorized
    /// lane path (instead of limping on with stamped bumps and an
    /// `O(n)` epoch-filtered sweep at the end).
    fn switch_to_dense(&mut self) {
        self.harvesting = false;
        if self.dense.len() < self.active {
            self.dense.resize(self.active, 0);
        }
        self.dense[..self.active].fill(0);
        for &id in &self.touched {
            self.dense[id as usize] = self.cells[id as usize].count;
        }
        self.touched.clear();
        self.zeroed = true;
    }

    #[inline]
    fn bump_harvest(&mut self, obj: ObjectId) {
        let cell = &mut self.cells[obj as usize];
        if cell.stamp == self.epoch {
            cell.count += 1;
        } else {
            cell.stamp = self.epoch;
            cell.count = 1;
            self.touched.push(obj);
        }
    }

    /// Stream one contiguous postings run through the counters.
    /// Harvesting counts in [`CHUNK`]-wide pieces with the adaptive
    /// dense check between chunks; dense mode (up front or after the
    /// flip) runs the lane-split scatter.
    fn count_run(&mut self, run: &[ObjectId]) {
        let mut rest = run;
        if self.harvesting {
            let mut consumed = 0;
            for chunk in run.chunks(CHUNK) {
                for &obj in chunk {
                    self.bump_harvest(obj);
                }
                consumed += chunk.len();
                if self.touched.len() > self.touched_limit {
                    // too dense to stay sparse: replay the (complete)
                    // harvest into the dense array and continue there
                    self.switch_to_dense();
                    break;
                }
            }
            if self.harvesting {
                return;
            }
            rest = &run[consumed..];
        }
        debug_assert!(self.zeroed, "non-harvesting counting is always dense");
        match self.lanes {
            8 => count_lanes::<8>(&mut self.dense, rest),
            4 => count_lanes::<4>(&mut self.dense, rest),
            2 => count_lanes::<2>(&mut self.dense, rest),
            _ => count_lanes::<1>(&mut self.dense, rest),
        }
    }

    /// Reduce the touched counters to the final `(top-k, AT)` answer.
    /// Returns the candidate count alongside for stats.
    fn finalize(&self, k: usize) -> (Vec<TopHit>, u32, u64) {
        let (hits, candidates) = if self.harvesting {
            let hits = finalize_unique_candidates(
                self.touched
                    .iter()
                    .map(|&id| (id, self.cells[id as usize].count)),
                1,
                k,
            );
            (hits, self.touched.len() as u64)
        } else if let Some(out) = self.finalize_dense_hist(k) {
            out
        } else {
            // a count overflowed the histogram range: fall back to the
            // full collect + quickselect (bit-identical, just slower)
            let dense: Vec<TopHit> = self.dense[..self.active]
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(id, &count)| TopHit {
                    id: id as ObjectId,
                    count,
                })
                .collect();
            let candidates = dense.len() as u64;
            (partial_top_k(dense, k), candidates)
        };
        let at = audit_threshold(&hits, k);
        (hits, at, candidates)
    }

    /// Dense finalisation without the `O(candidates)` quickselect: a
    /// 4-lane count histogram locates the k-th boundary count, then a
    /// [`screen_chunk`]-vectorized scan collects only the qualifying
    /// objects (all counts above the boundary, plus the lowest-id ties
    /// exactly as [`partial_top_k`] would keep them). Returns `None`
    /// when some count reaches the histogram's clamp bucket — the
    /// caller then takes the sweeping fallback.
    fn finalize_dense_hist(&self, k: usize) -> Option<(Vec<TopHit>, u64)> {
        const HB: usize = HIST_BUCKETS;
        let counts = &self.dense[..self.active];
        // four interleaved histograms: saturating workloads hammer a
        // handful of buckets, and a single histogram serializes on
        // store-to-load forwarding of those hot counters
        let mut hist = [[0u32; HB]; 4];
        let quarter = counts.len() / 4;
        for i in 0..quarter {
            hist[0][(counts[i] as usize).min(HB - 1)] += 1;
            hist[1][(counts[quarter + i] as usize).min(HB - 1)] += 1;
            hist[2][(counts[2 * quarter + i] as usize).min(HB - 1)] += 1;
            hist[3][(counts[3 * quarter + i] as usize).min(HB - 1)] += 1;
        }
        for &c in &counts[4 * quarter..] {
            hist[0][(c as usize).min(HB - 1)] += 1;
        }
        let [h0, h1, h2, h3] = &mut hist;
        for b in 0..HB {
            h0[b] += h1[b] + h2[b] + h3[b];
        }
        if h0[HB - 1] > 0 {
            // the clamp bucket mixes counts >= HB-1: boundary order
            // inside it is unknown, so this path cannot stay exact
            return None;
        }
        let candidates = (counts.len() - h0[0] as usize) as u64;

        // walk down to the k-th boundary: after the loop, `thresh` is
        // the k-th largest count and `quota` how many boundary ties the
        // top-k has room for (0/0 when fewer than k objects matched)
        let mut need = k;
        let mut thresh = 0usize;
        let mut quota = 0usize;
        for c in (1..HB - 1).rev() {
            let at_c = h0[c] as usize;
            if at_c >= need {
                thresh = c;
                quota = need;
                break;
            }
            need -= at_c;
        }

        let screen = thresh.max(1) as u32;
        let mut hits: Vec<TopHit> = Vec::with_capacity(k.min(candidates as usize));
        let mut ties = 0usize;
        let mut base = 0usize;
        for chunk in counts.chunks(CHUNK) {
            if screen_chunk(chunk, screen) {
                for (off, &count) in chunk.iter().enumerate() {
                    let c = count as usize;
                    if c > thresh {
                        hits.push(TopHit {
                            id: (base + off) as ObjectId,
                            count,
                        });
                    } else if c == thresh && thresh > 0 && ties < quota {
                        // ascending scan order = lowest-id ties first,
                        // exactly the quickselect's boundary choice
                        hits.push(TopHit {
                            id: (base + off) as ObjectId,
                            count,
                        });
                        ties += 1;
                    }
                }
            }
            base += chunk.len();
        }
        hits.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.id.cmp(&b.id)));
        Some((hits, candidates))
    }

    /// Test-only hook: force the stamped table's epoch so integration
    /// tests can drive the wrap-around re-zero path without running
    /// `u32::MAX` queries first.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Resident bytes of this scratch (counter table + touched list +
    /// run buffer capacities).
    pub fn bytes(&self) -> u64 {
        (self.cells.capacity() * std::mem::size_of::<Cell>()
            + self.dense.capacity() * std::mem::size_of::<u32>()
            + self.touched.capacity() * std::mem::size_of::<ObjectId>()
            + self.runs.capacity() * std::mem::size_of::<PostingsSegment>()) as u64
    }
}

/// A pool of [`CountScratch`]es shared by every query run against one
/// uploaded index. The pool grows to the peak number of concurrently
/// counting workers and then stays flat — per-query allocation and
/// zeroing are gone after warm-up, which is the whole point. Its
/// resident footprint is what
/// [`SearchOutput::cpq_bytes_per_query`](crate::exec::SearchOutput)
/// reports (amortised over the batch), the honest host analogue of the
/// paper's Table IV memory column.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<CountScratch>>,
    /// Bytes of every scratch this pool owns — including scratches
    /// currently loaned to a worker (at their size as of last release).
    /// A pure free-list sum would nondeterministically undercount when
    /// concurrent batches (`dispatchers > 1`) hold scratches checked
    /// out while a sibling batch reads the footprint.
    tracked_bytes: AtomicU64,
}

impl ScratchPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a scratch (reusing a warmed one when available). The
    /// scratch stays accounted in [`resident_bytes`](Self::resident_bytes)
    /// while loaned out.
    pub fn acquire(&self) -> CountScratch {
        self.lock().pop().unwrap_or_default()
    }

    /// Return a scratch for reuse, folding any growth since it was last
    /// accounted into the pool's tracked footprint.
    pub fn release(&self, mut scratch: CountScratch) {
        let bytes = scratch.bytes();
        let grown = bytes.saturating_sub(scratch.accounted_bytes);
        scratch.accounted_bytes = bytes;
        if grown > 0 {
            self.tracked_bytes.fetch_add(grown, Ordering::Relaxed);
        }
        self.lock().push(scratch);
    }

    /// Total bytes of every scratch this pool owns (free or loaned, the
    /// latter at their last-released size): the kernel's whole resident
    /// scratch footprint, stable even while sibling batches are
    /// mid-flight on the same index.
    pub fn resident_bytes(&self) -> u64 {
        self.tracked_bytes.load(Ordering::Relaxed)
    }

    /// Number of scratches currently in the free list.
    pub fn resident_scratches(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<CountScratch>> {
        // a poisoned pool only means a worker panicked mid-count; the
        // scratches themselves are epoch-guarded, so reuse stays sound
        self.free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Buckets of the dense finalisation histogram: counts in
/// `[0, HIST_BUCKETS - 2]` resolve exactly; any count reaching the top
/// (clamp) bucket sends finalisation to the sweeping fallback.
const HIST_BUCKETS: usize = 256;

/// The lane-split dense scatter: `run` is divided into `L` equal
/// contiguous sub-runs advanced in lockstep, giving the core `L`
/// independent load-increment-store chains per iteration (the scatter
/// itself cannot be vectorized — increments conflict on arbitrary
/// addresses — but it is latency-bound, and contiguous sub-runs keep
/// the chains on distinct cache lines). The `run.len() % L` remainder
/// is counted scalar.
fn count_lanes<const L: usize>(dense: &mut [u32], run: &[ObjectId]) {
    let part = run.len() / L;
    for i in 0..part {
        for l in 0..L {
            dense[run[l * part + i] as usize] += 1;
        }
    }
    for &obj in &run[L * part..] {
        dense[obj as usize] += 1;
    }
}

/// Branch-free "does any count in `chunk` reach `screen`?" test used to
/// skip whole chunks during dense candidate collection; written as a
/// reduction over the chunk so the autovectorizer turns it into wide
/// compares.
#[inline(never)]
pub fn screen_chunk(chunk: &[u32], screen: u32) -> bool {
    let mut any = false;
    for &c in chunk {
        any |= c >= screen;
    }
    any
}

/// Resolve `query` against the Position Map into coalesced contiguous
/// runs (stored in `runs`), returning the total postings volume.
fn gather_runs(index: &InvertedIndex, query: &Query, runs: &mut Vec<PostingsSegment>) -> u64 {
    runs.clear();
    let mut total = 0u64;
    for item in &query.items {
        for seg in index.coalesced_segments_for_range(item.lo, item.hi) {
            total += seg.len as u64;
            runs.push(seg);
        }
    }
    total
}

/// One query's exact top-k plus its final AuditThreshold, counted on a
/// single worker with `scratch`.
pub fn search_one(
    index: &InvertedIndex,
    query: &Query,
    k: usize,
    scratch: &mut CountScratch,
    config: &KernelConfig,
    stats: &KernelStats,
) -> (Vec<TopHit>, u32) {
    let mut runs = std::mem::take(&mut scratch.runs);
    let total = gather_runs(index, query, &mut runs);
    let n = index.num_objects() as usize;
    let list = index.list_array();
    scratch.begin(n, config.harvest_up_front(total, n), config);
    for seg in &runs {
        scratch.count_run(&list[seg.start as usize..(seg.start + seg.len) as usize]);
    }
    scratch.runs = runs;
    let (hits, at, candidates) = scratch.finalize(k);
    stats.record(scratch.harvesting, total, candidates);
    (hits, at)
}

/// The seed dense counting path, kept executable as the reference the
/// optimised kernel is property-tested bit-identical against (and the
/// baseline `repro --cpu-kernel` measures speedups over): fresh dense
/// `vec![0u32; n]` per query, full postings scan over uncoalesced
/// segments, `O(n)` candidate sweep, shared top-k finalisation.
pub fn reference_search_one(index: &InvertedIndex, query: &Query, k: usize) -> (Vec<TopHit>, u32) {
    let n = index.num_objects() as usize;
    let list = index.list_array();
    let mut counts = vec![0u32; n];
    for item in &query.items {
        for seg in index.segments_for_range(item.lo, item.hi) {
            for &obj in &list[seg.start as usize..(seg.start + seg.len) as usize] {
                counts[obj as usize] += 1;
            }
        }
    }
    let candidates: Vec<TopHit> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(id, &count)| TopHit {
            id: id as ObjectId,
            count,
        })
        .collect();
    let hits = partial_top_k(candidates, k);
    let at = audit_threshold(&hits, k);
    (hits, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::model::{Object, QueryItem};
    use std::sync::Arc;

    fn index_of(objects: &[Object]) -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        b.add_objects(objects.iter());
        Arc::new(b.build(None))
    }

    fn clustered_objects(n: u32) -> Vec<Object> {
        (0..n)
            .map(|i| Object::new(vec![i % 7, 100 + i % 3, 200 + (i % 11)]))
            .collect()
    }

    #[test]
    fn kernel_matches_reference_in_both_modes() {
        let objects = clustered_objects(500);
        let index = index_of(&objects);
        let config = KernelConfig::default();
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        let queries = [
            Query::from_keywords(&[3, 101]),            // selective
            Query::new(vec![QueryItem::range(0, 300)]), // touches everything
            Query::new(vec![QueryItem::range(50, 90)]), // matches nothing
            Query::new(vec![QueryItem::range(0, 6), QueryItem::range(3, 6)]), // overlap
        ];
        for (qi, q) in queries.iter().enumerate() {
            for k in [1, 5, 1000] {
                let expected = reference_search_one(&index, q, k);
                let got = search_one(&index, q, k, &mut scratch, &config, &stats);
                assert_eq!(expected, got, "query {qi}, k {k}");
            }
        }
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 12);
        assert!(snap.sparse_finalize > 0 && snap.dense_finalize > 0);
    }

    #[test]
    fn epoch_reuse_never_leaks_previous_counts() {
        let objects = clustered_objects(100);
        let index = index_of(&objects);
        let config = KernelConfig::default();
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        // a heavy query stamps nearly every cell...
        search_one(
            &index,
            &Query::new(vec![QueryItem::range(0, 300)]),
            10,
            &mut scratch,
            &config,
            &stats,
        );
        // ...then a disjoint selective query must see pristine counters
        let q = Query::from_keywords(&[205]);
        let got = search_one(&index, &q, 100, &mut scratch, &config, &stats);
        assert_eq!(got, reference_search_one(&index, &q, 100));
        assert!(got.0.iter().all(|h| h.count == 1));
    }

    #[test]
    fn epoch_wraparound_rezeroes_physically() {
        let objects = clustered_objects(50);
        let index = index_of(&objects);
        let config = KernelConfig::default();
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        let q = Query::from_keywords(&[3]);
        let expected = reference_search_one(&index, &q, 50);
        search_one(&index, &q, 50, &mut scratch, &config, &stats);
        // force the wrap: the next begin() must re-zero, not alias
        scratch.epoch = u32::MAX;
        let got = search_one(&index, &q, 50, &mut scratch, &config, &stats);
        assert_eq!(got, expected);
        assert_eq!(scratch.epoch, 1);
        let again = search_one(&index, &q, 50, &mut scratch, &config, &stats);
        assert_eq!(again, expected);
    }

    #[test]
    fn mid_scan_fallback_switches_to_dense_finalize() {
        let objects = clustered_objects(400);
        let index = index_of(&objects);
        // postings volume predicts sparse, but every object matches:
        // harvesting must abort mid-scan, replay onto the dense lane
        // path, and the dense finalisation must agree
        let config = KernelConfig {
            dense_postings_per_object: 100.0, // never dense up front
            dense_touched_fraction: 0.1,      // overflow almost at once
            ..Default::default()
        };
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        let q = Query::new(vec![QueryItem::range(0, 300)]);
        let got = search_one(&index, &q, 25, &mut scratch, &config, &stats);
        assert_eq!(got, reference_search_one(&index, &q, 25));
        assert_eq!(stats.snapshot().dense_finalize, 1);
        assert!(scratch.zeroed, "the flip must land on the dense path");
        assert!(!scratch.harvesting);
    }

    #[test]
    fn every_lane_config_counts_identically() {
        let objects = clustered_objects(700);
        let index = index_of(&objects);
        let stats = KernelStats::default();
        // force the dense path so the lane scatter is what's under test
        for lanes in [0, 1, 2, 3, 4, 5, 7, 8, 9, 64] {
            let config = KernelConfig {
                dense_postings_per_object: 0.0,
                dense_lanes: lanes,
                ..Default::default()
            };
            let mut scratch = CountScratch::default();
            for q in [
                Query::new(vec![QueryItem::range(0, 300)]),
                Query::from_keywords(&[3, 101]),
                Query::new(vec![QueryItem::range(50, 90)]), // matches nothing
            ] {
                let expected = reference_search_one(&index, &q, 9);
                let got = search_one(&index, &q, 9, &mut scratch, &config, &stats);
                assert_eq!(expected, got, "lanes = {lanes}");
            }
        }
        assert_eq!(stats.snapshot().sparse_finalize, 0);
    }

    #[test]
    fn histogram_overflow_falls_back_to_the_sweep() {
        // one object matched more times than the histogram can bucket:
        // finalisation must take the clamp fallback and stay exact
        let mut objects = vec![Object::new(vec![5; 2 * HIST_BUCKETS])];
        objects.extend((0..6).map(|i| Object::new(vec![i])));
        let index = index_of(&objects);
        let config = KernelConfig::default();
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        let q = Query::new(vec![QueryItem::range(0, 10)]);
        let got = search_one(&index, &q, 3, &mut scratch, &config, &stats);
        assert_eq!(got, reference_search_one(&index, &q, 3));
        assert_eq!(got.0[0].count, 2 * HIST_BUCKETS as u32);
        assert_eq!(stats.snapshot().dense_finalize, 1, "dense up front");
    }

    #[test]
    fn boundary_ties_keep_the_lowest_ids() {
        // 40 objects all tied at count 2 in dense mode: the histogram
        // path must pick the same lowest-id boundary ties as the
        // quickselect it replaces
        let objects: Vec<Object> = (0..40).map(|_| Object::new(vec![1, 2])).collect();
        let index = index_of(&objects);
        let config = KernelConfig::default();
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        let q = Query::new(vec![QueryItem::range(1, 2)]);
        for k in [1, 7, 39, 40, 50] {
            let got = search_one(&index, &q, k, &mut scratch, &config, &stats);
            assert_eq!(got, reference_search_one(&index, &q, k), "k = {k}");
            let ids: Vec<u32> = got.0.iter().map(|h| h.id).collect();
            let want: Vec<u32> = (0..k.min(40) as u32).collect();
            assert_eq!(ids, want, "k = {k}");
        }
        assert!(stats.snapshot().dense_finalize > 0);
    }

    #[test]
    fn simd_helpers_compute_what_the_scalar_loops_would() {
        assert!(!screen_chunk(&[0, 1, 2, 3], 4));
        assert!(screen_chunk(&[0, 1, 2, 4], 4));
        assert!(!screen_chunk(&[], 1));
    }

    #[test]
    fn pool_reuses_scratches_across_queries() {
        let objects = clustered_objects(200);
        let index = index_of(&objects);
        let config = KernelConfig::default();
        let stats = KernelStats::default();
        let pool = ScratchPool::new();
        for i in 0..20 {
            let mut scratch = pool.acquire();
            search_one(
                &index,
                &Query::from_keywords(&[i % 7]),
                3,
                &mut scratch,
                &config,
                &stats,
            );
            pool.release(scratch);
        }
        assert_eq!(
            pool.resident_scratches(),
            1,
            "sequential queries share one scratch"
        );
    }

    #[test]
    fn empty_query_and_empty_index() {
        let config = KernelConfig::default();
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        let empty_index = IndexBuilder::new().build(None);
        let (hits, at) = search_one(
            &empty_index,
            &Query::from_keywords(&[1]),
            3,
            &mut scratch,
            &config,
            &stats,
        );
        assert!(hits.is_empty());
        assert_eq!(at, 1);

        let index = index_of(&clustered_objects(10));
        let (hits, at) = search_one(
            &index,
            &Query::new(vec![]),
            3,
            &mut scratch,
            &config,
            &stats,
        );
        assert!(hits.is_empty());
        assert_eq!(at, 1);
    }
}

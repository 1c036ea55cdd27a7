//! Offline stand-in for the `rayon` crate.
//!
//! Implements exactly the surface this workspace uses —
//! `slice.par_iter().map(f).collect::<Vec<_>>()` and
//! [`current_num_threads`] — on plain `std::thread::scope` with one
//! chunk per available core, the calling thread mapping the first.
//! There is no work-stealing pool; for the coarse per-query parallelism
//! this workspace needs, static chunking is equivalent. Swapping in
//! real rayon is a Cargo.toml change only.

pub mod iter;

pub mod prelude {
    pub use crate::iter::{IntoParallelRefIterator, ParallelIterator};
}

/// Number of worker threads parallel operations will use.
///
/// Memoised: `available_parallelism` is a syscall (it may read cgroup
/// limits), and hot paths ask per batch — real rayon reads its
/// constructed pool size, which is equally a cached value.
pub fn current_num_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_works_on_empty_slices() {
        let xs: Vec<u8> = Vec::new();
        let out: Vec<u8> = xs.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        // the last item lands in a spawned worker's chunk whenever
        // there are two or more threads
        let xs: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            xs.par_iter()
                .map(|&x| {
                    if x == 63 {
                        panic!("boom at {x}");
                    }
                    x
                })
                .collect::<Vec<u32>>()
        })
        .expect_err("the panic must reach the caller");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("boom at 63")
        );
    }
}

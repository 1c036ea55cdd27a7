//! Property tests of the sparse-aware host counting kernel: across
//! randomized objects, queries and `k` — including overlapping range
//! items that credit one object through several postings segments,
//! queries that match nothing, and `k` larger than the match set — the
//! kernel must be **bit-identical** (ids, counts, AT) to the seed dense path
//! it replaced, which stays executable as
//! [`kernel::reference_search_one`].

use std::sync::Arc;

use genie_core::backend::kernel::{self, CountScratch, KernelConfig, KernelStats};
use genie_core::backend::{CpuBackend, SearchBackend};
use genie_core::index::{IndexBuilder, InvertedIndex, LoadBalanceConfig};
use genie_core::model::{Object, Query, QueryItem};
use proptest::prelude::*;

const UNIVERSE: u32 = 60;

fn index_of(objects: &[Object], lb: Option<LoadBalanceConfig>) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    b.add_objects(objects.iter());
    Arc::new(b.build(lb))
}

fn objects_strategy() -> impl Strategy<Value = Vec<Object>> {
    proptest::collection::vec(proptest::collection::vec(0u32..UNIVERSE, 1..7), 1..120)
        .prop_map(|keyword_sets| keyword_sets.into_iter().map(Object::new).collect())
}

/// Queries with deliberately *overlapping* range items: one object can
/// be credited by several items, and one range can span many segments.
fn query_strategy() -> impl Strategy<Value = Query> {
    proptest::collection::vec((0u32..UNIVERSE, 0u32..20), 1..6).prop_map(|ranges| {
        Query::new(
            ranges
                .into_iter()
                .map(|(lo, span)| QueryItem::range(lo, (lo + span).min(UNIVERSE - 1)))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_is_bit_identical_to_the_seed_dense_path(
        objects in objects_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..8),
        k in 1usize..200,
        balanced in 0u32..2,
    ) {
        let lb = (balanced == 1).then_some(LoadBalanceConfig { max_list_len: 5 });
        let index = index_of(&objects, lb);
        // exercise both adaptive regimes across the case set: default
        // thresholds plus a config that forces the mid-scan fallback
        let configs = [
            KernelConfig::default(),
            KernelConfig {
                dense_postings_per_object: f64::INFINITY,
                dense_touched_fraction: 0.01,
                ..Default::default()
            },
        ];
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        for q in &queries {
            let expected = kernel::reference_search_one(&index, q, k);
            for config in &configs {
                let got = kernel::search_one(&index, q, k, &mut scratch, config, &stats);
                prop_assert_eq!(&expected, &got, "sequential kernel");
            }
        }
    }

    /// The lane-split dense scatter handles every run-length residue:
    /// forcing the dense path (`dense_postings_per_object: 0`) over
    /// tiny object sets sweeps runs shorter than the lane count, runs
    /// whose length is not a lane multiple (scalar tail), and empty
    /// runs — all of which must stay bit-identical to the seed path
    /// at every configured lane count (including out-of-range values
    /// the config clamps).
    #[test]
    fn dense_lane_split_is_bit_identical_at_any_run_length(
        objects in proptest::collection::vec(
            proptest::collection::vec(0u32..UNIVERSE, 1..7), 1..40,
        ).prop_map(|sets| sets.into_iter().map(Object::new).collect::<Vec<Object>>()),
        queries in proptest::collection::vec(query_strategy(), 1..5),
        k in 1usize..20,
        lanes in 0usize..10,
    ) {
        let index = index_of(&objects, None);
        let config = KernelConfig {
            dense_postings_per_object: 0.0, // predict dense up front
            dense_lanes: lanes,
            ..Default::default()
        };
        let stats = KernelStats::default();
        let mut scratch = CountScratch::default();
        for q in &queries {
            let expected = kernel::reference_search_one(&index, q, k);
            let got = kernel::search_one(&index, q, k, &mut scratch, &config, &stats);
            prop_assert_eq!(&expected, &got, "lanes = {}, n = {}", lanes, objects.len());
        }
        prop_assert_eq!(stats.snapshot().sparse_finalize, 0, "dense was forced");
    }

    #[test]
    fn backend_batches_match_the_seed_path_query_by_query(
        objects in objects_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..6),
        k in 1usize..30,
    ) {
        let index = index_of(&objects, None);
        let cpu = CpuBackend::new();
        let bindex = SearchBackend::upload(&cpu, Arc::clone(&index)).unwrap();
        let out = cpu.search_batch(&bindex, &queries, k);
        for (qi, q) in queries.iter().enumerate() {
            let (hits, at) = kernel::reference_search_one(&index, q, k);
            prop_assert_eq!(&hits, &out.results[qi], "query {}", qi);
            prop_assert_eq!(at, out.audit_thresholds[qi], "query {}", qi);
        }
    }
}

#[test]
fn one_object_credited_through_many_segments_and_items() {
    // object 0 holds every keyword 0..24: a [0, 23] range item walks 24
    // postings segments that all credit it; a second overlapping item
    // credits part of the same span again
    let mut objects = vec![Object::new((0..24).collect())];
    objects.extend((0..40).map(|i| Object::new(vec![i % 24])));
    let index = index_of(&objects, None);
    let q = Query::new(vec![QueryItem::range(0, 23), QueryItem::range(10, 30)]);
    let stats = KernelStats::default();
    let mut scratch = CountScratch::default();
    for k in [1, 3, 41, 100] {
        let expected = kernel::reference_search_one(&index, &q, k);
        let got = kernel::search_one(
            &index,
            &q,
            k,
            &mut scratch,
            &KernelConfig::default(),
            &stats,
        );
        assert_eq!(expected, got, "k = {k}");
    }
    // the top hit is object 0 with count 24 + 14
    let (hits, at) = kernel::reference_search_one(&index, &q, 1);
    assert_eq!(hits[0].id, 0);
    assert_eq!(hits[0].count, 38);
    assert_eq!(at, 39);
}

/// Explicit lane-boundary object counts: below the 4-lane width, one
/// off a lane multiple, prime, and a query mixing matching items with
/// an item that matches nothing (an empty postings range).
#[test]
fn lane_boundary_sizes_and_empty_runs_stay_bit_identical() {
    let stats = KernelStats::default();
    for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 31, 33] {
        let objects: Vec<Object> = (0..n).map(|i| Object::new(vec![i as u32 % 7, 7])).collect();
        let index = index_of(&objects, None);
        // keyword 40 is indexed by nobody: its range contributes zero
        // postings runs between two contributing items
        let q = Query::new(vec![
            QueryItem::range(0, 6),
            QueryItem::range(40, 50),
            QueryItem::range(7, 7),
        ]);
        for lanes in [1usize, 2, 4, 8] {
            let config = KernelConfig {
                dense_postings_per_object: 0.0,
                dense_lanes: lanes,
                ..Default::default()
            };
            let mut scratch = CountScratch::default();
            for k in [1, 2, n, n + 3] {
                let expected = kernel::reference_search_one(&index, &q, k);
                let got = kernel::search_one(&index, &q, k, &mut scratch, &config, &stats);
                assert_eq!(expected, got, "n = {n}, lanes = {lanes}, k = {k}");
            }
        }
    }
}

/// Epoch wrap-around of the reused scratch is transparent: counters
/// stamped by pre-wrap queries must never leak into post-wrap answers,
/// including when dense-mode queries (which bypass the epoch) are
/// interleaved right across the wrap.
#[test]
fn epoch_wrap_of_the_reused_scratch_is_transparent() {
    let objects: Vec<Object> = (0..60)
        .map(|i| Object::new(vec![i % 13, 13 + i % 5, 20]))
        .collect();
    let index = index_of(&objects, None);
    let stats = KernelStats::default();
    let sparse_config = KernelConfig::default();
    let dense_config = KernelConfig {
        dense_postings_per_object: 0.0,
        ..Default::default()
    };

    let mut scratch = CountScratch::default();
    // a first query allocates and stamps the table, then the test hook
    // parks the epoch two steps short of the wrap
    let warm = Query::from_keywords(&[1, 20]);
    let _ = kernel::search_one(&index, &warm, 5, &mut scratch, &sparse_config, &stats);
    scratch.force_epoch(u32::MAX - 2);

    // each sparse `begin` advances the epoch: MAX - 1, MAX, then the
    // wrap (full re-zero, epoch 1) — with dense queries in between so
    // both counting modes cross the boundary in one scratch
    for round in 0u32..6 {
        for (cfg, name) in [(&sparse_config, "sparse"), (&dense_config, "dense")] {
            let q = Query::new(vec![
                QueryItem::range(round % 13, (round % 13) + 2),
                QueryItem::range(20, 20),
            ]);
            for k in [1, 7, 100] {
                let expected = kernel::reference_search_one(&index, &q, k);
                let got = kernel::search_one(&index, &q, k, &mut scratch, cfg, &stats);
                assert_eq!(expected, got, "round {round}, {name} config, k = {k}");
            }
        }
    }
}

#[test]
fn empty_matches_and_k_beyond_the_match_set() {
    let objects: Vec<Object> = (0..30).map(|i| Object::new(vec![i])).collect();
    let index = index_of(&objects, None);
    let stats = KernelStats::default();
    let mut scratch = CountScratch::default();
    let config = KernelConfig::default();

    // nothing matches: empty hits, AT stays at its initial 1
    let miss = Query::new(vec![QueryItem::range(100, 200)]);
    let (hits, at) = kernel::search_one(&index, &miss, 5, &mut scratch, &config, &stats);
    assert!(hits.is_empty());
    assert_eq!(at, 1);
    assert_eq!(kernel::reference_search_one(&index, &miss, 5), (hits, at));

    // k far beyond the match set: all matches returned, AT stays 1
    let q = Query::from_keywords(&[3, 4]);
    let expected = kernel::reference_search_one(&index, &q, 25);
    let got = kernel::search_one(&index, &q, 25, &mut scratch, &config, &stats);
    assert_eq!(expected, got);
    assert_eq!(got.0.len(), 2, "two singleton matches");
    assert_eq!(got.1, 1, "fewer than k matched: AT never advances");
}

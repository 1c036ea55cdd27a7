//! Property-based cross-crate invariants: for *arbitrary* generated
//! workloads, the device engine agrees with the brute-force match-count
//! model, and multiple loading agrees with single loading.

use std::sync::Arc;

use genie::core::model::match_count;
use genie::core::multiload::multi_load_search;
use genie::prelude::*;
use proptest::prelude::*;

fn arb_objects() -> impl Strategy<Value = Vec<Object>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..30, 1..6).prop_map(|mut kws| {
            kws.sort_unstable();
            kws.dedup();
            Object::new(kws)
        }),
        1..80,
    )
}

fn arb_queries() -> impl Strategy<Value = Vec<Query>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..30, 0u32..4), 1..5).prop_map(|items| {
            Query::new(
                items
                    .into_iter()
                    .map(|(lo, w)| genie::core::model::QueryItem::range(lo, (lo + w).min(29)))
                    .collect(),
            )
        }),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The device pipeline (index + c-PQ + selection) returns exactly the
    /// brute-force top-k count profile for arbitrary inputs.
    #[test]
    fn engine_equals_brute_force((objects, queries, k) in (arb_objects(), arb_queries(), 1usize..12)) {
        let mut builder = IndexBuilder::new();
        builder.add_objects(objects.iter());
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let didx = engine.upload(Arc::new(builder.build(None))).unwrap();
        let out = engine.search(&didx, &queries, k);
        for (qi, q) in queries.iter().enumerate() {
            let counts: Vec<u32> = objects.iter().map(|o| match_count(q, o)).collect();
            let expected: Vec<u32> = reference_top_k(&counts, k).iter().map(|h| h.count).collect();
            let got: Vec<u32> = out.results[qi].iter().map(|h| h.count).collect();
            prop_assert_eq!(got, expected, "query {}", qi);
            for hit in &out.results[qi] {
                prop_assert_eq!(counts[hit.id as usize], hit.count);
            }
        }
    }

    /// Splitting the data into arbitrary part sizes never changes the
    /// merged result.
    #[test]
    fn multiload_equals_single_load(
        (objects, queries, k, part) in (arb_objects(), arb_queries(), 1usize..8, 1usize..40)
    ) {
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let single = ShardPlan::build(&objects, 1, None);
        let parts = ShardPlan::build(&objects, objects.len().div_ceil(part), None);
        let (a, _) = multi_load_search(&engine, single.shards(), &queries, k);
        let (b, _) = multi_load_search(&engine, parts.shards(), &queries, k);
        for qi in 0..queries.len() {
            let ca: Vec<u32> = a[qi].iter().map(|h| h.count).collect();
            let cb: Vec<u32> = b[qi].iter().map(|h| h.count).collect();
            prop_assert_eq!(ca, cb, "query {}", qi);
        }
    }

    /// Load balancing is invisible to results for any sublist cap.
    #[test]
    fn load_balance_is_transparent(
        (objects, queries, cap) in (arb_objects(), arb_queries(), 1usize..20)
    ) {
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let mut plain = IndexBuilder::new();
        plain.add_objects(objects.iter());
        let mut lb = IndexBuilder::new();
        lb.add_objects(objects.iter());
        let d1 = engine.upload(Arc::new(plain.build(None))).unwrap();
        let d2 = engine
            .upload(Arc::new(lb.build(Some(LoadBalanceConfig { max_list_len: cap }))))
            .unwrap();
        let k = 5;
        let o1 = engine.search(&d1, &queries, k);
        let o2 = engine.search(&d2, &queries, k);
        for qi in 0..queries.len() {
            let c1: Vec<u32> = o1.results[qi].iter().map(|h| h.count).collect();
            let c2: Vec<u32> = o2.results[qi].iter().map(|h| h.count).collect();
            prop_assert_eq!(c1, c2, "query {}", qi);
        }
    }
}

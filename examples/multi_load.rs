//! Multiple loading (paper §III-D): searching a data set whose index
//! exceeds device memory by swapping index shards through the device —
//! the Table II/III scenario — then the same data served through the
//! typed facade as a sharded collection on a fleet of two small
//! devices, where each shard stays resident on a device and
//! `Collection::search` fans out and merges.
//!
//! Run with: `cargo run --release --example multi_load`

use std::sync::Arc;

use genie::core::domain::Domain;
use genie::core::multiload::multi_load_search;
use genie::datasets::points::sift_like;
use genie::lsh::e2lsh::E2Lsh;
use genie::prelude::*;

fn main() {
    let dim = 16;
    let n = 40_000;
    let num_queries = 32;
    let k = 10;

    println!("generating {n} descriptors...");
    let all = sift_like(n + num_queries, dim, 40, 3);
    let (data, query_points) = genie::datasets::holdout(all, num_queries);

    // the τ-ANN domain adapter does every point -> object/query
    // conversion; no raw query assembly anywhere
    let transformer = Transformer::new(E2Lsh::new(32, dim, 12.0, 5), 2048);
    let ann = AnnIndex::create(transformer, data.clone());
    let queries: Vec<Query> = query_points
        .iter()
        .map(|p| ann.encode(p).expect("finite point"))
        .collect();

    // a deliberately tiny device: the whole index will not fit
    let config = DeviceConfig {
        memory_bytes: 3 * 1024 * 1024, // 3 MiB
        ..Default::default()
    };
    let engine = Engine::new(Arc::new(Device::new(config.clone())));

    // whole-index upload must fail...
    let whole = Arc::clone(ann.index());
    assert!(
        engine.upload(Arc::clone(&whole)).is_err(),
        "the full index should exceed the 3 MiB device"
    );
    println!(
        "full index is {} KiB — exceeds the 3 MiB device, splitting into parts",
        whole.device_bytes() / 1024
    );

    // ...so split into parts that do fit and run the multi-load search
    let objects = whole.reconstruct_objects();
    let parts = ShardPlan::build(&objects, objects.len().div_ceil(10_000), None);
    println!("running {} parts through the device...", parts.num_shards());
    let (results, report) = multi_load_search(&engine, parts.shards(), &queries, k);

    println!(
        "index swapping: {:.1} us, matching: {:.1} us, merging: {:.1} us host",
        report.index_transfer_us, report.stages.match_us, report.merge_host_us
    );

    // sanity: multi-load equals single-load on a big enough device
    let big_engine = Engine::new(Arc::new(Device::with_defaults()));
    let didx = big_engine.upload(whole).unwrap();
    let single = big_engine.search(&didx, &queries, k);
    for (q, (m, s)) in results.iter().zip(&single.results).enumerate() {
        let mc: Vec<u32> = m.iter().map(|h| h.count).collect();
        let sc: Vec<u32> = s.iter().map(|h| h.count).collect();
        assert_eq!(mc, sc, "query {q}: multi-load must equal single-load");
    }
    println!("multi-load results verified identical to single-load.");

    // the serving view of the same parts: a sharded collection on a
    // fleet of two small devices — each shard fits one device, and
    // callers just search the typed collection
    println!(
        "\nserving the same points through GenieDb as {} shards on 2 small devices...",
        parts.num_shards()
    );
    let fleet: Vec<Arc<dyn SearchBackend>> = (0..2)
        .map(|_| Arc::new(Engine::new(Arc::new(Device::new(config.clone())))) as _)
        .collect();
    let db = GenieDb::open(fleet, SchedulerConfig::default(), ServiceConfig::default())
        .expect("db opens");
    let points = db
        .create_collection_sharded::<AnnIndex<E2Lsh>>(
            "sift",
            Transformer::new(E2Lsh::new(32, dim, 12.0, 5), 2048),
            data,
            parts.num_shards(),
        )
        .expect("every shard fits one device");
    let served = points
        .search(&query_points[0].clone(), k)
        .expect("finite point");
    let expected: Vec<u32> = single.results[0].iter().map(|h| h.count).collect();
    let got: Vec<u32> = served.hits.iter().map(|h| h.count).collect();
    assert_eq!(got, expected, "facade counts equal the single-load counts");
    println!("typed facade over a sharded collection on a small-device fleet verified.");
}

//! Intra-collection sharding: one collection split across index
//! shards, served with bit-identical merged answers.
//!
//! The same corpus is registered twice in one `GenieDb` — unsharded and
//! split across four self-contained index shards. Every query against
//! the sharded collection fans out to one scheduler run per shard; the
//! per-shard top-k lists come back with local ids, are translated to
//! global ids and merged under Theorem 3.1 (`AT = MC_k + 1` on the
//! *merged* answer). On this CPU fleet the merged results are
//! bit-identical to the unsharded collection's, which the example
//! asserts. A re-index at the end shows that swapping a sharded
//! collection keeps its shard count and leaves its sibling alone.
//!
//! Run with: `cargo run --release --example sharded_serving`

use std::sync::Arc;

use genie::core::backend::CpuBackend;
use genie::prelude::*;

fn main() {
    let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let corpus: Vec<Vec<String>> = (0..200)
        .map(|i| {
            toks(&format!(
                "record {} topic{} about inverted index serving shard{}",
                i,
                i % 13,
                i % 4
            ))
        })
        .collect();

    let db = GenieDb::single(Arc::new(CpuBackend::new())).expect("db opens");
    let whole = db
        .create_collection::<DocumentIndex>("corpus", (), corpus.clone())
        .expect("collection indexes");
    let sharded = db
        .create_collection_sharded::<DocumentIndex>("corpus-x4", (), corpus.clone(), 4)
        .expect("sharded collection indexes");
    println!(
        "one corpus, twice: '{}' (1 shard) and '{}' ({} shards)",
        whole.name(),
        sharded.name(),
        sharded.shard_count()
    );

    // the same queries against both: the merged sharded answer must be
    // bit-identical (ids, counts, certificate) on this deterministic
    // CPU fleet
    for query in ["inverted index serving", "topic7 shard3", "record 42"] {
        let spec = toks(query);
        let a = whole.search(&spec, 5).expect("whole answers");
        let b = sharded.search(&spec, 5).expect("sharded answers");
        assert_eq!(a.hits, b.hits, "sharding changed an answer");
        assert_eq!(a.audit_threshold, b.audit_threshold);
        println!(
            "  '{}' -> top doc {} ({} shared words), AT {} — identical on both",
            query, b.hits[0].id, b.hits[0].count, b.audit_threshold
        );
    }

    let stats = db.stats();
    println!(
        "{} requests over {} waves; {} shard scheduler runs for the sharded collection",
        stats.served, stats.waves, stats.shard_runs
    );

    // a sharded re-index keeps the shard count and leaves the sibling
    // unsharded collection alone
    let smaller: Vec<Vec<String>> = corpus[..50].to_vec();
    sharded.reindex((), smaller).expect("re-index swaps");
    println!(
        "after reindex: {} docs across {} shards (sibling '{}' untouched)",
        sharded.len(),
        sharded.shard_count(),
        whole.name()
    );
    assert_eq!(sharded.shard_count(), 4);
    let after = sharded.search(&toks("inverted index serving"), 3).unwrap();
    assert!(after.hits.iter().all(|h| h.id < 50));
    println!("top hit after reindex: doc {}", after.hits[0].id);
}

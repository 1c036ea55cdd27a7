//! One `GenieDb`, every domain: the paper's genericity claim end to
//! end. Six typed collections — documents, relational rows, sequences,
//! trees, graphs and τ-ANN points — live side by side in one database,
//! share one backend fleet and one admission/scheduling stack, and
//! are swapped independently (re-indexing one collection leaves the
//! others' answers unchanged).
//!
//! Run with: `cargo run --release --example multi_domain`

use std::sync::Arc;

use genie::core::backend::CpuBackend;
use genie::lsh::e2lsh::E2Lsh;
use genie::prelude::*;
use genie::sa::graph::{Graph, GraphIndex};
use genie::sa::relational::{Attribute, Condition, RelationalIndex, RelationalSchema, Value};
use genie::sa::tree::{Tree, TreeIndex};

fn main() {
    // one fleet: the simulated device plus the host CPU path
    let db = GenieDb::open(
        vec![
            Arc::new(Engine::new(Arc::new(Device::with_defaults()))),
            Arc::new(CpuBackend::new()),
        ],
        SchedulerConfig::default(),
        ServiceConfig::default(),
    )
    .expect("db opens");
    let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();

    // 1. documents — shared-word ranking
    let docs = db
        .create_collection::<DocumentIndex>(
            "docs",
            (),
            vec![
                toks("generic inverted index framework"),
                toks("similarity search on the gpu"),
                toks("query scheduling for inverted indexes"),
            ],
        )
        .unwrap();
    let hit = docs.search(&toks("inverted index search"), 1).unwrap();
    println!(
        "[document]   best doc {} ({} shared words)",
        hit.hits[0].id, hit.hits[0].count
    );

    // 2. relational — count of satisfied range conditions
    let table = db
        .create_collection::<RelationalIndex>(
            "rows",
            RelationalSchema {
                attrs: vec![
                    Attribute::Categorical { cardinality: 3 },
                    Attribute::Numeric {
                        min: 0.0,
                        max: 100.0,
                        buckets: 64,
                    },
                ],
                load_balance: None,
            },
            vec![
                vec![Value::Cat(0), Value::Num(15.0)],
                vec![Value::Cat(1), Value::Num(55.0)],
                vec![Value::Cat(2), Value::Num(95.0)],
            ],
        )
        .unwrap();
    let hit = table
        .search(
            &vec![
                Condition::CatEq { attr: 0, value: 1 },
                Condition::NumRange {
                    attr: 1,
                    lo: 40.0,
                    hi: 70.0,
                },
            ],
            1,
        )
        .unwrap();
    println!(
        "[relational] best row {} ({} conditions met)",
        hit.hits[0].id, hit.hits[0].count
    );

    // 3. sequences — edit distance with verification + certificate
    let titles = db
        .create_collection::<SequenceIndex>(
            "titles",
            3,
            ["approximate matching", "exact matching", "joins on gpus"]
                .iter()
                .map(|s| s.as_bytes().to_vec())
                .collect(),
        )
        .unwrap();
    let rep = titles.search(&b"approximate matchina".to_vec(), 1).unwrap();
    println!(
        "[sequence]   best title {} at edit distance {} (certified {})",
        rep.hits[0].id, rep.hits[0].distance, rep.certified
    );

    // 4. trees — binary branches + Zhang–Shasha verification
    let mut t1 = Tree::leaf(1);
    let c = t1.add_child(0, 2);
    t1.add_child(c, 3);
    let mut t2 = Tree::leaf(1);
    t2.add_child(0, 9);
    let forest = db
        .create_collection::<TreeIndex>("trees", (), vec![t1.clone(), t2])
        .unwrap();
    let hits = forest.search(&t1, 1).unwrap();
    println!(
        "[tree]       best tree {} at TED {}",
        hits[0].id, hits[0].distance
    );

    // 5. graphs — stars + Hungarian star-mapping verification
    let mut g1 = Graph::new();
    let a = g1.add_node(1);
    let b = g1.add_node(2);
    g1.add_edge(a, b);
    let mut g2 = g1.clone();
    let c = g2.add_node(3);
    g2.add_edge(0, c);
    let nets = db
        .create_collection::<GraphIndex>("graphs", (), vec![g1, g2.clone()])
        .unwrap();
    let hits = nets.search(&g2, 1).unwrap();
    println!(
        "[graph]      best graph {} at mu {}",
        hits[0].id, hits[0].distance
    );

    // 6. τ-ANN — LSH collision counting
    let points: Vec<Vec<f32>> = (0..64)
        .map(|i| vec![(i % 8) as f32 * 4.0, (i / 8) as f32])
        .collect();
    let ann = db
        .create_collection::<AnnIndex<E2Lsh>>(
            "points",
            Transformer::new(E2Lsh::new(24, 2, 4.0, 11), 512),
            points.clone(),
        )
        .unwrap();
    let hit = ann.search(&points[17].clone(), 1).unwrap();
    println!(
        "[tau-ann]    nearest point {} ({} colliding functions)",
        hit.hits[0].id, hit.hits[0].count
    );
    assert_eq!(hit.hits[0].id, 17);

    // per-collection swap: re-index the documents; every other
    // collection answers exactly as before
    let nets_answer_before = nets.search(&g2, 1).unwrap();
    docs.reindex((), vec![toks("an entirely new corpus")])
        .unwrap();
    let fresh = docs.search(&toks("new corpus"), 1).unwrap();
    assert_eq!(
        (fresh.hits[0].id, fresh.hits[0].count),
        (0, 2),
        "the swapped collection serves its new index at once"
    );
    let nets_answer_after = nets.search(&g2, 1).unwrap();
    assert_eq!(
        nets_answer_before, nets_answer_after,
        "the sibling's answer changed across the swap"
    );

    let stats = db.stats();
    println!(
        "\n{} collections, one service: {} requests served, {} waves",
        db.service().collection_names().len(),
        stats.served,
        stats.waves
    );
    for h in db.backend_health() {
        println!(
            "backend {}: {} batches / {} queries, {} failures",
            h.name, h.batches, h.queries, h.failed
        );
    }
}

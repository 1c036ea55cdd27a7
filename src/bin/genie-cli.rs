//! genie-cli — the client: similarity search over plain-text files on
//! the typed `GenieDb` facade, and the operator's view of a running
//! `genie-server`.
//!
//! ```text
//! genie-cli docs  <corpus.txt> --query "<words>"  [-k 5] [--backend sim|cpu]
//! genie-cli fuzzy <corpus.txt> --query "<string>" [-k 3] [-K 64] [-n 3] [--backend ...]
//! genie-cli net-query <addr> [--query "<words>"] [--stats] [-k 5] [--collection 0] [--token T]
//! genie-cli store-fsck <data-dir>
//! ```
//!
//! `docs` ranks lines by the number of distinct shared words (the
//! short-document collection); `fuzzy` ranks lines by edit distance via
//! n-gram filtering plus verification (the sequence collection). Both
//! index the file, answer the one query and exit. The `--backend` flag
//! picks the execution engine: the simulated SIMT device (default,
//! prints device counters) or the pure-CPU backend.
//!
//! `net-query` connects to a `genie-server`, hashes the query words
//! under the [`genie_client::keyword_of`] convention the server indexed
//! its corpus with, and prints the hits alongside the sky-bench
//! server/full latency split; `--stats` prints the remote fleet's
//! health. `store-fsck` inspects a server `--data-dir` offline.
//!
//! This binary never listens and never generates load: `genie-server`
//! is the one listener, `benchmark/` the one load driver.

use std::process::exit;
use std::sync::Arc;

use genie::prelude::*;
use genie_client::{keyword_of, Client, ClientConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  genie-cli docs  <corpus.txt> --query \"<words>\"  [-k N] [--backend sim|cpu]\n  \
         genie-cli fuzzy <corpus.txt> --query \"<string>\" [-k N] [-K CANDS] [-n NGRAM] [--backend sim|cpu]\n  \
         genie-cli net-query <addr> [--query \"<words>\"] [--stats] [-k N] [--collection C] [--token T]\n  \
         genie-cli store-fsck <data-dir>"
    );
    exit(2);
}

struct Args {
    mode: String,
    corpus: String,
    query: String,
    k: usize,
    big_k: usize,
    ngram: usize,
    backend: String,
    token: String,
    collection: u64,
    stats: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() < 2 {
        usage();
    }
    let mut args = Args {
        mode: argv[0].clone(),
        corpus: argv[1].clone(),
        query: String::new(),
        k: 5,
        big_k: 64,
        ngram: 3,
        backend: "sim".to_string(),
        token: String::new(),
        collection: 0,
        stats: false,
    };
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--query" => {
                i += 1;
                args.query = argv.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--backend" => {
                i += 1;
                args.backend = argv.get(i).unwrap_or_else(|| usage()).clone();
            }
            "-k" => {
                i += 1;
                args.k = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "-K" => {
                i += 1;
                args.big_k = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "-n" => {
                i += 1;
                args.ngram = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--token" => {
                i += 1;
                args.token = argv.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--collection" => {
                i += 1;
                args.collection = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--stats" => args.stats = true,
            _ => usage(),
        }
        i += 1;
    }
    if args.query.is_empty()
        && args.mode != "store-fsck"
        && !(args.mode == "net-query" && args.stats)
    {
        usage();
    }
    args
}

/// Offline inspector for a server `--data-dir`: a physical scan of
/// every snapshot and journal file (frame-by-frame, CRC-checked) plus
/// a logical recovery dry-run — strictly read-only, so it is safe on a
/// directory another process is serving from. Exit code 0 = healthy
/// (torn journal tails from a crash are legal and count as healthy),
/// 1 = damaged.
fn store_fsck(dir: &str) -> ! {
    let report = genie::store::fsck(&genie::store::DiskVfs, std::path::Path::new(dir));
    print!("{report}");
    exit(if report.healthy() { 0 } else { 1 });
}

fn make_backend(name: &str) -> Arc<dyn SearchBackend> {
    match name {
        "sim" => Arc::new(Engine::new(Arc::new(Device::with_defaults()))),
        "cpu" => Arc::new(CpuBackend::new()),
        _ => usage(),
    }
}

fn tokenize(line: &str) -> Vec<String> {
    line.split_whitespace().map(|w| w.to_lowercase()).collect()
}

fn open_db(backend: &str) -> (GenieDb, Arc<dyn SearchBackend>) {
    let backend = make_backend(backend);
    let caps = backend.capabilities();
    println!(
        "backend: {} ({} execution unit{})",
        caps.name,
        caps.devices,
        if caps.devices == 1 { "" } else { "s" }
    );
    let db = GenieDb::open(
        vec![Arc::clone(&backend)],
        SchedulerConfig {
            max_batch_queries: 256,
            cpq_budget_bytes: None,
            ..Default::default()
        },
        ServiceConfig {
            // a one-shot query has no company to wait for
            max_queue_delay: std::time::Duration::ZERO,
            dispatchers: 1,
            cache_capacity: 1024,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot open GenieDb: {e}");
        exit(1);
    });
    (db, backend)
}

fn main() {
    let args = parse_args();
    if args.mode == "net-query" {
        // here the positional argument is a server address, not a file
        net_query(&args);
        return;
    }
    if args.mode == "store-fsck" {
        // here the positional argument is a data directory, not a file
        store_fsck(&args.corpus);
    }
    let raw = match std::fs::read_to_string(&args.corpus) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.corpus);
            exit(1);
        }
    };
    let lines: Vec<&str> = raw.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        eprintln!("{} holds no non-empty lines", args.corpus);
        exit(1);
    }
    println!("{} lines loaded from {}", lines.len(), args.corpus);
    let (db, backend) = open_db(&args.backend);

    match args.mode.as_str() {
        "docs" => {
            let docs: Vec<Vec<String>> = lines.iter().map(|l| tokenize(l)).collect();
            let built = std::time::Instant::now();
            let col = db
                .create_collection::<DocumentIndex>("corpus", (), docs)
                .unwrap_or_else(|e| {
                    eprintln!("cannot index corpus: {e}");
                    exit(1);
                });
            let domain = col.domain();
            println!(
                "indexed {} docs / {} distinct words in {:?}",
                domain.num_documents(),
                domain.vocabulary_size(),
                built.elapsed()
            );
            match col.search(&tokenize(&args.query), args.k) {
                Ok(found) => {
                    println!("\ntop-{} lines by shared words:", args.k);
                    for hit in &found.hits {
                        println!("  [{} shared] {}", hit.count, lines[hit.id as usize]);
                    }
                }
                Err(e) => {
                    eprintln!("query rejected: {e}");
                    exit(1);
                }
            }
        }
        "fuzzy" => {
            let seqs: Vec<Vec<u8>> = lines.iter().map(|l| l.as_bytes().to_vec()).collect();
            let built = std::time::Instant::now();
            let col = db
                .create_collection::<SequenceIndex>("corpus", args.ngram, seqs)
                .unwrap_or_else(|e| {
                    eprintln!("cannot index corpus: {e}");
                    exit(1);
                });
            println!(
                "indexed {} sequences ({}–grams) in {:?}",
                col.domain().num_sequences(),
                args.ngram,
                built.elapsed()
            );
            match col.search_with_candidates(&args.query.clone().into_bytes(), args.big_k, args.k) {
                Ok(report) => {
                    println!(
                        "\ntop-{} lines by edit distance (K = {}, provably exact: {}):",
                        args.k, args.big_k, report.certified
                    );
                    for hit in &report.hits {
                        println!("  [ed {}] {}", hit.distance, lines[hit.id as usize]);
                    }
                }
                Err(e) => {
                    eprintln!("query rejected: {e}");
                    exit(1);
                }
            }
        }
        _ => usage(),
    }

    device_counters(&*backend);
}

/// Print the simulated device's counters or the host kernel's decision
/// stats, depending on what the backend is.
fn device_counters(backend: &dyn SearchBackend) {
    // device-specific counters only exist on the simulated engine
    if let Some(engine) = backend.as_any().downcast_ref::<Engine>() {
        let c = engine.device().counters();
        println!(
            "\ndevice: {} launches, {:.1} us simulated, {} B transferred",
            c.launches,
            c.sim_us(engine.device().cost_model()),
            c.h2d_bytes + c.d2h_bytes
        );
    }
    // the host path reports how its adaptive counting kernel ran
    if let Some(cpu) = backend.as_any().downcast_ref::<CpuBackend>() {
        let s = cpu.kernel_stats();
        println!(
            "\ncpu kernel: {} queries ({} sparse / {} dense finalize, {} intra-parallel), \
             {} postings scanned, {} candidates",
            s.queries,
            s.sparse_finalize,
            s.dense_finalize,
            s.parallel_queries,
            s.postings_scanned,
            s.candidates
        );
    }
}

/// `net-query`: connect to a genie-net server, hash the query words
/// the way `genie-server` hashed the corpus, print hits
/// plus the sky-bench latency split. `--stats` additionally (or, with
/// no `--query`, exclusively) prints the remote fleet's health and
/// learned per-backend cost models from the Stats frame.
fn net_query(args: &Args) {
    let config = ClientConfig {
        token: args.token.clone(),
        ..ClientConfig::default()
    };
    let client = Client::connect_with(args.corpus.as_str(), config).unwrap_or_else(|e| {
        eprintln!("cannot connect to {}: {e}", args.corpus);
        exit(1);
    });
    if args.stats {
        net_stats(&client);
        if args.query.is_empty() {
            return;
        }
    }
    let keywords: Vec<u32> = args.query.split_whitespace().map(keyword_of).collect();
    let reply = client
        .search(
            args.collection,
            args.k as u32,
            Query::from_keywords(&keywords),
        )
        .unwrap_or_else(|e| {
            eprintln!("query rejected: {e}");
            exit(1);
        });
    println!(
        "top-{} of collection {} by shared words (audit threshold {}):",
        args.k, args.collection, reply.audit_threshold
    );
    for hit in &reply.hits {
        println!("  [{} shared] object {}", hit.count, hit.id);
    }
    println!(
        "server latency {:.2} ms, full latency {:.2} ms",
        reply.server_latency_us / 1000.0,
        reply.full_latency_us / 1000.0
    );
    match client.list_collections() {
        Ok(collections) => {
            let names: Vec<String> = collections
                .iter()
                .map(|c| format!("{} = {:?} ({} objects)", c.id, c.name, c.len))
                .collect();
            println!("served collections: {}", names.join(", "));
        }
        Err(e) => eprintln!("list-collections failed: {e}"),
    }
}

/// Remote fleet health: the `backend/...` and placement-related
/// `service/...` rows of the Stats frame, regrouped per backend.
fn net_stats(client: &Client) {
    let fields = client.stats().unwrap_or_else(|e| {
        eprintln!("stats rejected: {e}");
        exit(1);
    });
    let get = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    println!(
        "service: {} served / {} waves, {} placed shard runs, {} hot-shard events, \
         {} rebalances ({} stale)",
        get("service/served"),
        get("service/waves"),
        get("service/placed_shard_runs"),
        get("service/hot_shard_events"),
        get("service/rebalances"),
        get("service/stale_rebalances"),
    );
    println!(
        "learned fleet cost model: base {:.3} us/query + {:.6} us/posting \
         ({} wave observations)",
        get("service/learned_base_us"),
        get("service/learned_us_per_posting"),
        get("service/cost_observations"),
    );
    match client.fleet_health() {
        Ok(groups) if !groups.is_empty() => {
            for (backend, rows) in groups {
                let row = |name: &str| {
                    rows.iter()
                        .find(|(n, _)| n == name)
                        .map(|&(_, v)| v)
                        .unwrap_or(0.0)
                };
                println!(
                    "backend {backend}: {} batches / {} queries, {} failures{}, learned \
                     {:.3} us/query + {:.6} us/posting ({} obs)",
                    row("batches"),
                    row("queries"),
                    row("failed"),
                    if row("retired") > 0.0 {
                        " [RETIRED]"
                    } else {
                        ""
                    },
                    row("learned_base_us"),
                    row("learned_us_per_posting"),
                    row("cost_observations"),
                );
            }
        }
        Ok(_) => println!("server reports no backend rows (pre-placement server?)"),
        Err(e) => eprintln!("fleet-health failed: {e}"),
    }
}

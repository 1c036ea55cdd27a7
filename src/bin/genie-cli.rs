//! genie-cli — command-line similarity search over plain-text files,
//! on the typed `GenieDb` facade.
//!
//! ```text
//! genie-cli docs  <corpus.txt> --query "<words>"  [-k 5] [--backend sim|cpu|multi]
//! genie-cli fuzzy <corpus.txt> --query "<string>" [-k 3] [-K 64] [-n 3] [--backend ...]
//! genie-cli serve <corpus.txt> [--domain docs|fuzzy] [--clients 8] [--requests 32]
//!                              [--delay-ms 3] [--shards 1] [--mutate 0] [-k 5]
//!                              [--backend ...]
//! genie-cli net-serve <corpus.txt> [--listen 127.0.0.1:7007] [--token T] [--backend ...]
//! genie-cli net-query <addr> [--query "<words>"] [--stats] [-k 5] [--collection 0] [--token T]
//! ```
//!
//! `docs` ranks lines by the number of distinct shared words (the
//! short-document collection); `fuzzy` ranks lines by edit distance via
//! n-gram filtering plus verification (the sequence collection);
//! `serve` starts the always-on service over the corpus — indexed under
//! the `--domain` of choice — and drives it with concurrent submitter
//! threads (each line doubles as a query), reporting per-request
//! latency percentiles, wave triggers, batch occupancy and backend
//! health. `--shards N` splits the served collection across `N` index
//! shards: every wave fans out to one scheduler run per shard and the
//! per-shard top-k lists are merged into the global answer
//! (bit-compatible counts, `AT = MC_k + 1` on the merged list).
//! `--mutate B` additionally runs a live-mutation workload while the
//! submitters are searching: `B` batches, each inserting a copy of a
//! corpus line into the served collection and deleting a previously
//! inserted copy, all absorbed by the delta shard + tombstone set
//! without any reindex or downtime; the run ends with an explicit
//! compaction and a report of the mutation debt before/after.
//! `--delay-ms 0` cuts a wave as soon as any request is queued. The `--backend` flag picks the execution engine: the
//! simulated SIMT device (default, prints device counters), the
//! pure-CPU backend, or a two-device multi-load backend.
//!
//! `net-serve` exposes the corpus over the genie-net TCP protocol
//! (each line indexed under the hashed-word convention of
//! [`genie_client::keyword_of`]) until stdin reaches EOF; `net-query`
//! connects to such a server — or to the standalone `genie-server`
//! binary — hashes the query words the same way, and prints the hits
//! alongside the sky-bench server/full latency split.

use std::process::exit;
use std::sync::Arc;

use genie::prelude::*;
use genie::sa::SequenceSearchReport;
use genie_client::{keyword_of, Client, ClientConfig};
use genie_net::server::{NetServer, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  genie-cli docs  <corpus.txt> --query \"<words>\"  [-k N] [--backend sim|cpu|multi]\n  \
         genie-cli fuzzy <corpus.txt> --query \"<string>\" [-k N] [-K CANDS] [-n NGRAM] [--backend sim|cpu|multi]\n  \
         genie-cli serve <corpus.txt> [--domain docs|fuzzy] [--clients N] [--requests M] [--delay-ms D] [--shards S] [--mutate B] [-k N] [--backend sim|cpu|multi]\n  \
         genie-cli net-serve <corpus.txt> [--listen ADDR] [--token T] [--backend sim|cpu|multi]\n  \
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
    domain: String,
    clients: usize,
    requests: usize,
    delay_ms: u64,
    shards: usize,
    mutate: usize,
    listen: String,
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
        domain: "docs".to_string(),
        clients: 8,
        requests: 32,
        delay_ms: 3,
        shards: 1,
        mutate: 0,
        listen: "127.0.0.1:7007".to_string(),
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
            "--domain" => {
                i += 1;
                args.domain = argv.get(i).unwrap_or_else(|| usage()).clone();
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
                    .unwrap_or_else(|| usage());
            }
            "--clients" => {
                i += 1;
                args.clients = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--requests" => {
                i += 1;
                args.requests = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--delay-ms" => {
                i += 1;
                args.delay_ms = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--shards" => {
                i += 1;
                args.shards = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&s: &usize| s >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--mutate" => {
                i += 1;
                args.mutate = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--listen" => {
                i += 1;
                args.listen = argv.get(i).unwrap_or_else(|| usage()).clone();
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
        && args.mode != "serve"
        && args.mode != "net-serve"
        && args.mode != "store-fsck"
        && !(args.mode == "net-query" && args.stats)
    {
        usage();
    }
    if args.domain != "docs" && args.domain != "fuzzy" {
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

fn make_backend(name: &str, corpus_lines: usize) -> Arc<dyn SearchBackend> {
    match name {
        "sim" => Arc::new(Engine::new(Arc::new(Device::with_defaults()))),
        "cpu" => Arc::new(CpuBackend::new()),
        "multi" => Arc::new(MultiDeviceBackend::with_default_devices(
            2,
            corpus_lines.div_ceil(2).max(1),
        )),
        _ => usage(),
    }
}

fn tokenize(line: &str) -> Vec<String> {
    line.split_whitespace().map(|w| w.to_lowercase()).collect()
}

fn open_db(args: &Args, lines: usize) -> (GenieDb, Arc<dyn SearchBackend>) {
    let backend = make_backend(&args.backend, lines);
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
            // 0 is meaningful: cut a wave as soon as anything is queued
            max_queue_delay: std::time::Duration::from_millis(args.delay_ms),
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
    let (db, backend) = open_db(&args, lines.len());

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
        "serve" => {
            serve(&args, &lines, &db);
            device_counters(&*backend);
            return;
        }
        "net-serve" => {
            net_serve(&args, &lines, &db);
            device_counters(&*backend);
            return;
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

/// Drive one typed collection with `--clients` concurrent submitter
/// threads; each request queries with one of the corpus lines itself.
/// `resolve` turns a line into a typed submit + wait and returns
/// whether the answer was non-trivial.
fn drive<S, W>(args: &Args, lines: usize, submit: S, wait: W) -> Vec<f64>
where
    S: Fn(usize) -> Option<W::Ticket> + Sync,
    W: Resolver + Sync,
{
    let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let submit = &submit;
                let wait = &wait;
                scope.spawn(move || {
                    let tickets: Vec<_> = (0..args.requests)
                        .filter_map(|j| submit((c * args.requests + j) % lines))
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| wait.resolve(t))
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    latencies_us
}

/// How a serve-mode domain resolves its typed tickets into latencies.
trait Resolver {
    type Ticket;
    fn resolve(&self, ticket: Self::Ticket) -> f64;
}

struct DocResolver;
impl Resolver for DocResolver {
    type Ticket = TypedTicket<DocumentIndex>;
    fn resolve(&self, t: Self::Ticket) -> f64 {
        let submitted = t.submitted_at();
        t.wait().expect("service answers every ticket");
        submitted.elapsed().as_secs_f64() * 1e6
    }
}

struct SeqResolver;
impl Resolver for SeqResolver {
    type Ticket = TypedTicket<SequenceIndex>;
    fn resolve(&self, t: Self::Ticket) -> f64 {
        let submitted = t.submitted_at();
        // lines shorter than the n-gram length legitimately match
        // nothing, so only the ticket resolution is asserted
        let _report: SequenceSearchReport = t.wait().expect("service answers every ticket");
        submitted.elapsed().as_secs_f64() * 1e6
    }
}

/// Run `batches` insert+delete rounds against the served collection
/// while the submitter threads are searching it. Each round inserts a
/// copy of one corpus line and, once a small window has built up,
/// deletes the oldest previously inserted copy — original corpus ids
/// are never touched, so every concurrent search still sees the full
/// base corpus. All of it is absorbed by the delta shard + tombstone
/// set; no reindex, no downtime.
fn mutate_while_serving<D, F>(col: &Collection<D>, batches: usize, item_of: F, lines: usize)
where
    D: Domain,
    F: Fn(usize) -> D::Item,
{
    let mut window: std::collections::VecDeque<ObjectId> = std::collections::VecDeque::new();
    let (mut ins, mut del) = (0usize, 0usize);
    for b in 0..batches {
        let deletes: Vec<ObjectId> = if window.len() > 4 {
            window.pop_front().into_iter().collect()
        } else {
            Vec::new()
        };
        match col.mutate(&deletes, vec![item_of(b % lines)]) {
            Ok(ids) => {
                ins += ids.len();
                del += deletes.len();
                window.extend(ids);
            }
            Err(e) => {
                eprintln!("mutation batch rejected: {e}");
                return;
            }
        }
        // leave room for searches to interleave with the batches
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    println!("mutator: {ins} inserts / {del} deletes absorbed while serving");
}

/// Compact whatever mutation debt the run left behind and report the
/// before/after status of the collection.
fn mutation_summary<D: Domain>(col: &Collection<D>) {
    let before = col.mutation_status();
    match col.compact() {
        Ok(folded) => {
            let after = col.mutation_status();
            println!(
                "mutation debt: delta {} + tombstones {} -> compacted ({}); {} live objects \
                 across {} base shard(s), next id {}",
                before.delta,
                before.tombstones,
                if folded {
                    "base rebuilt"
                } else {
                    "nothing to fold"
                },
                after.live,
                after.base_shards,
                after.next_id
            );
        }
        Err(e) => eprintln!("compaction failed: {e}"),
    }
}

/// `net-serve`: index the corpus under the shared hashed-word
/// convention, expose the service over TCP, run until stdin EOF, then
/// drain and report.
fn net_serve(args: &Args, lines: &[&str], db: &GenieDb) {
    use std::io::Read;

    let objects: Vec<Object> = lines
        .iter()
        .map(|l| Object {
            keywords: l.split_whitespace().map(keyword_of).collect(),
        })
        .collect();
    let mut builder = IndexBuilder::new();
    builder.add_objects(objects.iter());
    let index = Arc::new(builder.build(None));
    let service = db.service_handle();
    let collection = service
        .add_collection_sharded(&args.corpus, &index, args.shards)
        .unwrap_or_else(|e| {
            eprintln!("cannot register corpus: {e}");
            exit(1);
        });
    let config = ServerConfig {
        auth_token: (!args.token.is_empty()).then(|| args.token.clone()),
        ..ServerConfig::default()
    };
    let mut handle = NetServer::spawn(service, args.listen.as_str(), config).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", args.listen);
        exit(1);
    });
    println!(
        "serving {} lines as collection {collection} on {} — query with \
         `genie-cli net-query {} --query \"...\" --collection {collection}`",
        lines.len(),
        handle.addr(),
        handle.addr(),
    );
    println!("stdin EOF stops the server");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    println!("draining ...");
    let drained = handle.shutdown();
    let net = handle.net_stats();
    println!(
        "drained: {drained}; {} connections accepted, {} frames in / {} out, \
         {} protocol errors",
        net.accepted, net.frames_in, net.frames_out, net.protocol_errors
    );
}

/// `net-query`: connect to a genie-net server, hash the query words
/// the way `net-serve`/`genie-server` hashed the corpus, print hits
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

/// `serve`: index the corpus under `--domain`, start the shared
/// service, drive it concurrently, report latency/occupancy/health.
fn serve(args: &Args, lines: &[&str], db: &GenieDb) {
    println!(
        "serving domain '{}' with {} client threads x {} requests (deadline {} ms, {} shard{})",
        args.domain,
        args.clients,
        args.requests,
        args.delay_ms,
        args.shards,
        if args.shards == 1 { "" } else { "s" }
    );
    let latencies_us = match args.domain.as_str() {
        "docs" => {
            let docs: Vec<Vec<String>> = lines.iter().map(|l| tokenize(l)).collect();
            let col = db
                .create_collection_sharded::<DocumentIndex>("corpus", (), docs.clone(), args.shards)
                .unwrap_or_else(|e| {
                    eprintln!("cannot index corpus: {e}");
                    exit(1);
                });
            println!(
                "indexed {} docs / {} distinct words across {} shard(s)",
                col.domain().num_documents(),
                col.domain().vocabulary_size(),
                col.shard_count()
            );
            let lat = std::thread::scope(|scope| {
                let mutator = (args.mutate > 0).then(|| {
                    let mcol = col.clone();
                    scope.spawn(move || {
                        mutate_while_serving(
                            &mcol,
                            args.mutate,
                            |i| tokenize(lines[i]),
                            lines.len(),
                        )
                    })
                });
                let lat = drive(
                    args,
                    docs.len(),
                    |i| col.submit(docs[i].clone(), args.k).ok(),
                    DocResolver,
                );
                if let Some(m) = mutator {
                    m.join().expect("mutator thread never panics");
                }
                lat
            });
            if args.mutate > 0 {
                mutation_summary(&col);
            }
            lat
        }
        _ => {
            let seqs: Vec<Vec<u8>> = lines.iter().map(|l| l.as_bytes().to_vec()).collect();
            let col = db
                .create_collection_sharded::<SequenceIndex>(
                    "corpus",
                    args.ngram,
                    seqs.clone(),
                    args.shards,
                )
                .unwrap_or_else(|e| {
                    eprintln!("cannot index corpus: {e}");
                    exit(1);
                });
            println!(
                "indexed {} sequences ({}-grams) across {} shard(s)",
                seqs.len(),
                args.ngram,
                col.shard_count()
            );
            let lat = std::thread::scope(|scope| {
                let mutator = (args.mutate > 0).then(|| {
                    let mcol = col.clone();
                    scope.spawn(move || {
                        mutate_while_serving(
                            &mcol,
                            args.mutate,
                            |i| lines[i].as_bytes().to_vec(),
                            lines.len(),
                        )
                    })
                });
                let lat = drive(
                    args,
                    seqs.len(),
                    |i| col.submit(seqs[i].clone(), args.k).ok(),
                    SeqResolver,
                );
                if let Some(m) = mutator {
                    m.join().expect("mutator thread never panics");
                }
                lat
            });
            if args.mutate > 0 {
                mutation_summary(&col);
            }
            lat
        }
    };

    let pct = |p: f64| percentile_us(&latencies_us, p);
    let stats = db.stats();
    println!(
        "\n{} requests over {} waves ({} size / {} deadline triggered), {} micro-batches, \
         occupancy {:.1} queries/batch",
        stats.served,
        stats.waves,
        stats.size_triggers,
        stats.deadline_triggers,
        stats.batches,
        stats.mean_batch_occupancy()
    );
    if args.shards > 1 {
        println!(
            "sharded dispatch: {} scheduler runs across {} shards ({} placement-routed)",
            stats.shard_runs, args.shards, stats.placed_shard_runs
        );
    }
    if stats.hot_shard_events > 0 || stats.rebalances > 0 {
        println!(
            "placement: {} hot-shard events, {} rebalances ({} stale)",
            stats.hot_shard_events, stats.rebalances, stats.stale_rebalances
        );
    }
    if stats.cost_observations > 0 {
        println!(
            "learned fleet cost model: base {:.3} us/query + {:.6} us/posting \
             ({} wave observations)",
            stats.learned_base_us, stats.learned_us_per_posting, stats.cost_observations
        );
    }
    if stats.mutation_batches > 0 {
        println!(
            "mutations: {} batches ({} inserts / {} deletes), {} compaction(s) ({} stale)",
            stats.mutation_batches,
            stats.inserted,
            stats.deleted,
            stats.compactions,
            stats.stale_compactions
        );
    }
    println!(
        "cache: {} hits / {} requests; scheduler wall {:.2} ms",
        stats.cache_hits,
        stats.served,
        stats.wall_us / 1000.0
    );
    println!(
        "request latency: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        pct(0.50) / 1000.0,
        pct(0.95) / 1000.0,
        pct(0.99) / 1000.0
    );
    for h in db.backend_health() {
        println!(
            "backend {}: {} batches / {} queries served, {} failures{}, learned \
             {:.3} us/query + {:.6} us/posting ({} obs){}",
            h.name,
            h.batches,
            h.queries,
            h.failed,
            if h.retired { " [RETIRED]" } else { "" },
            h.cost_model.base_us,
            h.cost_model.us_per_posting,
            h.cost_observations,
            h.last_error
                .as_deref()
                .map(|e| format!(" (last: {e})"))
                .unwrap_or_default()
        );
    }
}

//! genie-server — serve a plain-text corpus over the genie-net TCP
//! protocol.
//!
//! ```text
//! genie-server <corpus.txt> [--listen 127.0.0.1:7007] [--token T]
//!              [--backend sim|cpu] [--delay-ms 2] [--shards 1]
//!              [--data-dir DIR]
//! ```
//!
//! Each non-empty line of the corpus becomes one object whose keywords
//! are the FNV-hashed lowercased words of the line (the
//! [`genie_client::keyword_of`] convention, so remote clients can build
//! queries without the server's vocabulary). The collection is served
//! as the default collection; clients may create further collections
//! over the wire.
//!
//! How long it runs is decided by what stdin *is*. A terminal, pipe,
//! FIFO or regular file is a control channel: the server runs until it
//! reaches EOF (Ctrl-D, or the parent closing the pipe), then drains
//! in-flight connections, checkpoints a `--data-dir` and reports its
//! counters. Any other character device (`</dev/null`, as under
//! `nohup`, systemd or a container) or a closed fd 0 is no control
//! channel: the server runs until killed, which durable mode recovers
//! from at any point. (Off unix, stdin is always read to EOF.)
//!
//! Query it with `genie-cli net-query <addr> --query "words"`, a
//! [`genie_client::Client`], or anything speaking the versioned frame
//! protocol documented in [`genie_net::protocol`].
//!
//! With `--data-dir DIR` the server is **durable**: on startup it
//! recovers every collection a previous process journaled there
//! (snapshots + write-ahead journal replay — crash-safe at any kill
//! point, see [`genie::store`]), and from then on every collection
//! lifecycle and mutation event is fsynced to the journal before it is
//! acknowledged. A corpus collection recovered under the same name is
//! reused as-is instead of being re-indexed. Inspect a data directory
//! offline with `genie-cli store-fsck DIR`.

use std::io::Read;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use genie::prelude::*;
use genie_client::keyword_of;
use genie_net::server::{NetServer, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: genie-server <corpus.txt> [--listen ADDR] [--token T] \
         [--backend sim|cpu] [--delay-ms D] [--shards S] [--data-dir DIR]"
    );
    exit(2);
}

struct Args {
    corpus: String,
    listen: String,
    token: Option<String>,
    backend: String,
    delay_ms: u64,
    shards: usize,
    data_dir: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let mut args = Args {
        corpus: argv[0].clone(),
        listen: "127.0.0.1:7007".to_string(),
        token: None,
        backend: "cpu".to_string(),
        delay_ms: 2,
        shards: 1,
        data_dir: None,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => {
                i += 1;
                args.listen = argv.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--token" => {
                i += 1;
                args.token = Some(argv.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--backend" => {
                i += 1;
                args.backend = argv.get(i).unwrap_or_else(|| usage()).clone();
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
            "--data-dir" => {
                i += 1;
                args.data_dir = Some(argv.get(i).unwrap_or_else(|| usage()).clone());
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

/// Whether EOF on stdin is a stop signal. A terminal, pipe, FIFO or
/// regular file reaches EOF because somebody ended it; a non-terminal
/// character device (`/dev/null`) is at EOF from the first read and an
/// unreadable fd 0 never delivers one, so neither can mean "stop".
#[cfg(unix)]
fn stdin_is_control_channel() -> bool {
    use std::io::IsTerminal;
    use std::os::fd::AsFd;
    use std::os::unix::fs::FileTypeExt;

    let stdin = std::io::stdin();
    stdin.is_terminal()
        || stdin
            .as_fd()
            .try_clone_to_owned()
            .and_then(|fd| std::fs::File::from(fd).metadata())
            .is_ok_and(|meta| !meta.file_type().is_char_device())
}

#[cfg(not(unix))]
fn stdin_is_control_channel() -> bool {
    true
}

fn main() {
    let args = parse_args();
    let raw = match std::fs::read_to_string(&args.corpus) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.corpus);
            exit(1);
        }
    };
    let objects: Vec<Object> = raw
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Object {
            keywords: l.split_whitespace().map(keyword_of).collect(),
        })
        .collect();
    if objects.is_empty() {
        eprintln!("{} holds no non-empty lines", args.corpus);
        exit(1);
    }

    let backend: Arc<dyn SearchBackend> = match args.backend.as_str() {
        "cpu" => Arc::new(CpuBackend::new()),
        "sim" => Arc::new(Engine::new(Arc::new(Device::with_defaults()))),
        _ => usage(),
    };
    let service = Arc::new(
        GenieService::start_empty(
            QueryScheduler::single(backend),
            ServiceConfig {
                max_queue_delay: Duration::from_millis(args.delay_ms),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot start service: {e}");
            exit(1);
        }),
    );

    // durable mode: recover what a previous process journaled here,
    // then write-ahead journal every event from now on
    if let Some(dir) = &args.data_dir {
        let recovered = genie::store::DurableStore::open(Arc::new(genie::store::DiskVfs), dir)
            .unwrap_or_else(|e| {
                eprintln!("cannot recover {dir}: {e}");
                eprintln!("inspect the damage offline with `genie-cli store-fsck {dir}`");
                exit(1);
            });
        let report = recovered.report.clone();
        let count = recovered.collections.len();
        service
            .restore_collections(recovered.collections)
            .unwrap_or_else(|e| {
                eprintln!("cannot re-register recovered collections: {e}");
                exit(1);
            });
        service.attach_store(Arc::new(recovered.store));
        println!(
            "recovered {count} collection(s) from {dir}: snapshot gen {}, \
             {} journal event(s) replayed ({} skipped), {} torn byte(s) dropped",
            report.snapshot_gen,
            report.events_replayed,
            report.events_skipped,
            report.torn_tail_bytes
        );
    }

    // a collection recovered under the corpus name is served as-is
    // (its journaled mutations included); otherwise index and register
    let collection = match service
        .collection_names()
        .into_iter()
        .find(|(_, name)| name == &args.corpus)
    {
        Some((id, _)) => {
            println!("reusing recovered collection {id} for {}", args.corpus);
            id
        }
        None => {
            let mut builder = IndexBuilder::new();
            builder.add_objects(objects.iter());
            let index = Arc::new(builder.build(None));
            service
                .add_collection_sharded(&args.corpus, &index, args.shards)
                .unwrap_or_else(|e| {
                    eprintln!("cannot register corpus: {e}");
                    exit(1);
                })
        }
    };

    let config = ServerConfig {
        auth_token: args.token.clone(),
        ..ServerConfig::default()
    };
    let mut handle = match NetServer::spawn(Arc::clone(&service), args.listen.as_str(), config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.listen);
            exit(1);
        }
    };
    println!(
        "serving {} objects from {} (collection id {}, {} shard{}) on {}{}",
        service.collection_len(collection).unwrap_or(objects.len()),
        args.corpus,
        collection,
        args.shards,
        if args.shards == 1 { "" } else { "s" },
        handle.addr(),
        if args.token.is_some() {
            " [token required]"
        } else {
            ""
        },
    );
    if !stdin_is_control_channel() {
        println!("stdin is /dev/null or closed — serving until killed");
        loop {
            std::thread::park();
        }
    }
    println!("stdin EOF stops the server (run with </dev/null to serve until killed)");

    // block until stdin closes — the portable no-dependency stop signal
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);

    println!("stdin closed — draining in-flight connections ...");
    let drained = handle.shutdown();
    if args.data_dir.is_some() {
        // graceful exit: fold the journal into a fresh snapshot so the
        // next start replays nothing (a kill here is still safe — the
        // journal alone recovers the same state)
        match service.checkpoint() {
            Ok(generation) => println!(
                "checkpointed data dir at snapshot gen {}",
                generation.unwrap_or(0)
            ),
            Err(e) => eprintln!("final checkpoint failed (journal still recovers): {e}"),
        }
    }
    let net = handle.net_stats();
    let stats = service.stats();
    println!(
        "drained: {drained}; {} connections accepted, {} frames in / {} out, \
         {} requests admitted, {} protocol errors, {} io drops",
        net.accepted,
        net.frames_in,
        net.frames_out,
        net.requests_admitted,
        net.protocol_errors,
        net.io_drops
    );
    println!(
        "service: {} served over {} waves, occupancy {:.1} queries/batch, \
         {} mutation batches",
        stats.served,
        stats.waves,
        stats.mean_batch_occupancy(),
        stats.mutation_batches
    );
}

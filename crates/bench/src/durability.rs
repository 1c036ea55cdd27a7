//! The kill-and-restart durability gate (`repro --durability`).
//!
//! Where `crates/store/tests/recovery_props.rs` proves recovery
//! correctness against *simulated* crashes (truncate-at-every-byte,
//! bit flips, fault-injected writes), this harness proves it against
//! the real thing: it spawns the actual `genie-server` binary with
//! `--data-dir`, drives acknowledged mutations over real TCP through
//! `genie-client`, **SIGKILLs the process mid-load**, restarts it, and
//! gates on
//!
//! * **acked durability** — every acknowledged insert is present after
//!   the restart, at its original id;
//! * **prefix atomicity** — of the requests still in flight when the
//!   process died, exactly a prefix (in connection order) survives;
//! * **answer identity** — after the restart (and an over-the-wire
//!   compaction) every probe query answers hit-for-hit and
//!   AT-identically to a fresh in-process index built over the known
//!   surviving objects;
//! * **checkpoint hygiene** — a graceful shutdown folds the journal
//!   into a snapshot, and the next start replays zero events.
//!
//! All invariants are structural booleans (they hold on any host at
//! any speed); recovery wall-clock is recorded for trend reading, never
//! gated. The runner additionally asserts, cycle by cycle, that no acked
//! insert vanished and no unsent object appeared — a failed assert there
//! names the cycle, which a document-level boolean cannot.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_client::{keyword_of, Client};
use genie_core::backend::CpuBackend;
use genie_core::model::{Object, Query, QueryItem};
use genie_net::frame::Request;
use genie_service::{GenieService, QueryScheduler, ServiceConfig};

use crate::check::{field, flag};
use crate::harness::{Bench, Cell, Col, Ctx, Invariant, Mode, Run, Section, Table};
use crate::json::Json;
use crate::workloads::index_of;

/// One run's shape.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityWorkload {
    /// Lines in the corpus the server indexes at first boot.
    pub corpus_n: usize,
    /// SIGKILL cycles (each: load → kill → restart → verify).
    pub cycles: usize,
    /// Acknowledged inserts per cycle before the kill.
    pub inserts_per_cycle: usize,
    /// Requests fired without awaiting their replies just before the
    /// kill — the genuinely in-flight load whose surviving prefix the
    /// restart must reconcile.
    pub inflight_at_kill: usize,
    /// `k` every probe search asks for.
    pub k: usize,
}

impl Default for DurabilityWorkload {
    fn default() -> Self {
        Self {
            corpus_n: 400,
            cycles: 2,
            inserts_per_cycle: 48,
            inflight_at_kill: 3,
            k: 10,
        }
    }
}

/// What one boot of the server reported on stdout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Boot {
    pub recovered_collections: usize,
    pub snapshot_gen: u64,
    pub events_replayed: usize,
    pub events_skipped: usize,
    pub torn_tail_bytes: usize,
    pub serving_len: usize,
    pub collection: u64,
    pub addr: String,
}

/// One boot's row in the report table.
#[derive(Debug, Clone)]
pub struct BootRow {
    pub name: String,
    pub boot: Boot,
    pub boot_ms: f64,
}

/// What one full kill-and-restart run measured.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    pub corpus_n: usize,
    pub acked_inserts: usize,
    /// In-flight requests at each kill that turned out to have been
    /// journaled (summed) — the surviving prefixes.
    pub inflight_recovered: usize,
    /// Probe queries compared wire-vs-mirror, across all restarts.
    pub identity_probes: usize,
    pub identity_ok: bool,
    /// Every restart served exactly the reconciled object count.
    pub lengths_ok: bool,
    /// A post-checkpoint boot observed `snapshot_gen > 0`.
    pub snapshot_recovery_used: bool,
    /// Events replayed by the boot after the graceful (checkpointing)
    /// shutdown — must be 0.
    pub clean_restart_replayed: usize,
    pub boots: Vec<BootRow>,
}

// ---------------------------------------------------------------------
// Server process plumbing
// ---------------------------------------------------------------------

/// Locate the `genie-server` binary next to the running executable
/// (`target/<profile>/`), tolerating test harnesses under `deps/`.
pub fn server_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent()?;
    }
    let candidate = dir.join(format!("genie-server{}", std::env::consts::EXE_SUFFIX));
    candidate.is_file().then_some(candidate)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NONCE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "genie-durability-{tag}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir creates");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Server {
    child: Child,
    /// Held open: the server runs until its stdin reaches EOF.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    boot: Boot,
    boot_ms: f64,
}

/// Parse `recovered {n} collection(s) from {dir}: snapshot gen {g},
/// {r} journal event(s) replayed ({s} skipped), {t} torn byte(s)
/// dropped` — the directory may contain digits, so everything after
/// the colon is parsed positionally.
fn parse_recovered(line: &str) -> Option<(usize, u64, usize, usize, usize)> {
    let rest = line.strip_prefix("recovered ")?;
    let count: usize = rest.split_whitespace().next()?.parse().ok()?;
    let tail = rest.split_once(": snapshot gen ")?.1;
    let mut nums = tail
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().ok());
    let gen = nums.next()??;
    let replayed = nums.next()?? as usize;
    let skipped = nums.next()?? as usize;
    let torn = nums.next()?? as usize;
    Some((count, gen, replayed, skipped, torn))
}

/// Parse `serving {len} objects from {path} (collection id {c}, ...)
/// on {addr}[ [token required]]`.
fn parse_serving(line: &str) -> Option<(usize, u64, String)> {
    let rest = line.strip_prefix("serving ")?;
    let len: usize = rest.split_whitespace().next()?.parse().ok()?;
    let after_id = rest.split_once("(collection id ")?.1;
    let collection: u64 = after_id
        .split(&[',', ')'][..])
        .next()?
        .trim()
        .parse()
        .ok()?;
    let addr = rest.rsplit_once(" on ")?.1.split_whitespace().next()?;
    Some((len, collection, addr.to_string()))
}

/// Parse `checkpointed data dir at snapshot gen {g}`.
fn parse_checkpoint_gen(line: &str) -> Option<u64> {
    line.strip_prefix("checkpointed data dir at snapshot gen ")?
        .trim()
        .parse()
        .ok()
}

fn spawn_server(bin: &Path, corpus: &Path, data_dir: &Path) -> Server {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .arg(corpus)
        .args(["--listen", "127.0.0.1:0", "--backend", "cpu"])
        .arg("--data-dir")
        .arg(data_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
    let stdin = child.stdin.take();
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));

    let mut recovered = None;
    let mut serving = None;
    let mut line = String::new();
    while serving.is_none() {
        line.clear();
        let n = stdout.read_line(&mut line).expect("server stdout readable");
        assert!(n > 0, "genie-server exited before serving (see stderr)");
        let line = line.trim_end();
        if let Some(r) = parse_recovered(line) {
            recovered = Some(r);
        } else if let Some(s) = parse_serving(line) {
            serving = Some(s);
        }
    }
    let (serving_len, collection, addr) = serving.expect("loop exits on serving line");
    let (recovered_collections, snapshot_gen, events_replayed, events_skipped, torn_tail_bytes) =
        recovered.expect("durable boots always print the recovery line");
    Server {
        child,
        stdin,
        stdout,
        boot: Boot {
            recovered_collections,
            snapshot_gen,
            events_replayed,
            events_skipped,
            torn_tail_bytes,
            serving_len,
            collection,
            addr,
        },
        boot_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

impl Server {
    /// This boot's row in the report table.
    fn row(&self, name: String) -> BootRow {
        BootRow {
            name,
            boot: self.boot.clone(),
            boot_ms: self.boot_ms,
        }
    }

    /// SIGKILL — no drain, no checkpoint, mid-whatever-it-was-doing.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL delivers");
        let _ = self.child.wait();
    }

    /// Graceful stop: close stdin, let the server drain and
    /// checkpoint, return the checkpointed snapshot generation.
    fn stop(mut self) -> Option<u64> {
        drop(self.stdin.take());
        let mut gen = None;
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            if let Some(g) = parse_checkpoint_gen(line.trim_end()) {
                gen = Some(g);
            }
        }
        let _ = self.child.wait();
        gen
    }
}

// ---------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------

fn write_corpus(dir: &Path, n: usize) -> PathBuf {
    let path = dir.join("corpus.txt");
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("alpha{i} beta{} corpus shared\n", i % 7));
    }
    std::fs::write(&path, text).expect("corpus writes");
    path
}

/// The local mirror of one corpus line — must match the server's
/// `keyword_of`-per-word convention exactly.
fn corpus_object(i: usize) -> Object {
    Object {
        keywords: format!("alpha{i} beta{} corpus shared", i % 7)
            .split_whitespace()
            .map(keyword_of)
            .collect(),
    }
}

/// Keywords of the `seq`-th inserted object: one (mostly) unique
/// keyword plus a tag shared by every insert.
fn insert_keywords(seq: usize) -> Vec<u32> {
    vec![
        (0xABCD_u32.wrapping_mul(seq as u32 + 1)) & 0xf_ffff,
        keyword_of("durability"),
    ]
}

/// Probe queries covering inserted uniques, the shared tag, and
/// corpus words.
fn probe_queries(total_inserts: usize) -> Vec<Query> {
    let mut queries = vec![
        Query::new(vec![QueryItem::exact(keyword_of("durability"))]),
        Query::new(vec![
            QueryItem::exact(keyword_of("corpus")),
            QueryItem::exact(keyword_of("shared")),
        ]),
        Query::new(vec![
            QueryItem::exact(keyword_of("alpha3")),
            QueryItem::exact(keyword_of("beta3")),
        ]),
    ];
    for seq in (0..total_inserts).step_by(3) {
        queries.push(Query::new(vec![
            QueryItem::exact(insert_keywords(seq)[0]),
            QueryItem::exact(keyword_of("durability")),
        ]));
    }
    queries
}

/// Wire answers vs a fresh in-process index over `mirror` (served by a
/// default single-CPU service): hits and audit thresholds must agree
/// exactly. Returns probes compared and whether all agreed.
fn identity_probe(
    client: &Client,
    collection: u64,
    mirror: &[Object],
    queries: &[Query],
) -> (usize, bool) {
    const K: usize = 10;
    let scheduler = QueryScheduler::single(Arc::new(CpuBackend::new()));
    let truth =
        GenieService::start_empty(scheduler, ServiceConfig::default()).expect("config is valid");
    let truth_collection = truth
        .add_collection("truth", &index_of(mirror))
        .expect("host index always fits");
    let agrees = |query: &Query| {
        let wire = client
            .search(collection, K as u32, query.clone())
            .expect("wire search serves");
        let truth = truth
            .submit_to(truth_collection, query.clone(), K)
            .wait()
            .expect("in-process search serves");
        wire.hits == truth.hits && wire.audit_threshold == truth.audit_threshold
    };
    (queries.len(), queries.iter().all(agrees))
}

/// Run the full kill-and-restart cycle against a real `genie-server`.
pub fn run_kill_restart(workload: DurabilityWorkload) -> DurabilityReport {
    let bin = server_binary().expect(
        "genie-server binary not found next to this executable — \
         build it first (cargo build --bin genie-server)",
    );
    let dir = TempDir::new("kill");
    let corpus = write_corpus(&dir.0, workload.corpus_n);
    let data_dir = dir.0.join("data");

    // the mirror: every object the server must be serving, in id order
    let mut mirror: Vec<Object> = (0..workload.corpus_n).map(corpus_object).collect();
    let mut seq = 0usize; // global insert sequence → keywords
    let mut boots = Vec::new();
    let mut acked_inserts = 0usize;
    let mut inflight_recovered = 0usize;
    let mut identity_probes = 0usize;
    let mut identity_ok = true;
    let mut snapshot_recovery_used = false;

    let mut server = spawn_server(&bin, &corpus, &data_dir);
    assert_eq!(server.boot.recovered_collections, 0, "first boot is empty");
    assert_eq!(server.boot.serving_len, workload.corpus_n);
    let collection = server.boot.collection;
    boots.push(server.row("boot".into()));

    for cycle in 0..workload.cycles {
        let client = Client::connect(server.boot.addr.as_str()).expect("client connects");

        // acked load: every reply in hand before the kill, so each of
        // these objects MUST survive, at its assigned id
        for _ in 0..workload.inserts_per_cycle {
            let kws = insert_keywords(seq);
            let id = client.insert(collection, kws.clone()).expect("insert acks");
            assert_eq!(
                id as usize,
                mirror.len(),
                "ids are assigned sequentially on one connection"
            );
            mirror.push(Object { keywords: kws });
            acked_inserts += 1;
            seq += 1;
            if seq.is_multiple_of(8) {
                // interleave searches: the kill lands mid-serving too
                let q = Query::new(vec![QueryItem::exact(keyword_of("durability"))]);
                let reply = client.search(collection, workload.k as u32, q);
                assert!(reply.is_ok(), "search under load serves");
            }
        }

        // in-flight load: fire and do NOT await — the kill races the
        // server's journal appends, and exactly a prefix may survive
        let inflight: Vec<Vec<u32>> = (0..workload.inflight_at_kill)
            .map(|j| insert_keywords(seq + j))
            .collect();
        for kws in &inflight {
            let _ = client.send(&Request::Insert {
                collection,
                keywords: kws.clone(),
            });
        }
        std::thread::sleep(Duration::from_millis(20));
        server.kill();
        drop(client);

        // restart: journal replay must bring back every acked insert
        // plus a prefix (possibly empty) of the in-flight ones
        server = spawn_server(&bin, &corpus, &data_dir);
        assert_eq!(server.boot.recovered_collections, 1, "corpus recovers");
        assert_eq!(server.boot.collection, collection, "stable collection id");
        snapshot_recovery_used |= server.boot.snapshot_gen > 0;
        let survivors = server.boot.serving_len;
        let floor = mirror.len();
        assert!(
            survivors >= floor,
            "cycle {cycle}: an acked insert vanished: {survivors} < {floor}"
        );
        assert!(
            survivors <= floor + inflight.len(),
            "cycle {cycle}: more objects than were ever sent: {survivors}"
        );
        // reconcile: the survivors are a prefix of the in-flight sends
        for kws in inflight.iter().take(survivors - floor) {
            mirror.push(Object {
                keywords: kws.clone(),
            });
            inflight_recovered += 1;
        }
        seq += survivors - floor;
        boots.push(server.row(format!("kill{}", cycle + 1)));

        // fold the replayed delta over the wire, then the identity
        // gate: wire answers == fresh in-process index over the mirror
        let client = Client::connect(server.boot.addr.as_str()).expect("client reconnects");
        client.compact(collection).expect("remote compaction runs");
        let queries = probe_queries(seq);
        let (probes, ok) = identity_probe(&client, collection, &mirror, &queries);
        identity_probes += probes;
        identity_ok &= ok;
        assert!(
            ok,
            "cycle {cycle}: recovered answers diverged from the mirror"
        );
        drop(client);
    }

    // graceful shutdown checkpoints; the next boot must replay nothing
    let checkpoint_gen = server.stop();
    assert!(
        checkpoint_gen.is_some_and(|g| g > 0),
        "graceful shutdown must checkpoint"
    );
    let server = spawn_server(&bin, &corpus, &data_dir);
    let clean_restart_replayed = server.boot.events_replayed;
    // the per-cycle counts were asserted above, naming the cycle
    let lengths_ok = server.boot.serving_len == mirror.len();
    snapshot_recovery_used |= server.boot.snapshot_gen > 0;
    boots.push(server.row("clean".into()));
    let client = Client::connect(server.boot.addr.as_str()).expect("client connects");
    let queries = probe_queries(seq);
    let (probes, ok) = identity_probe(&client, collection, &mirror, &queries);
    identity_probes += probes;
    identity_ok &= ok;
    drop(client);
    server.stop();

    DurabilityReport {
        corpus_n: workload.corpus_n,
        acked_inserts,
        inflight_recovered,
        identity_probes,
        identity_ok,
        lengths_ok,
        snapshot_recovery_used,
        clean_restart_replayed,
        boots,
    }
}

// ---------------------------------------------------------------------
// The bench definition
// ---------------------------------------------------------------------

const BOOTS: Table<BootRow> = Table {
    id: Some(("name", "boot", 8)),
    cols: &[
        Col::shown("recovered", "recovered", Cell::Plain, |b| {
            b.boot.recovered_collections.into()
        }),
        Col::shown("snapshot_gen", "snapshot gen", Cell::Plain, |b| {
            b.boot.snapshot_gen.into()
        }),
        Col::shown("replayed", "replayed", Cell::Plain, |b| {
            b.boot.events_replayed.into()
        }),
        Col::shown("skipped", "skipped", Cell::Plain, |b| {
            b.boot.events_skipped.into()
        }),
        Col::json("torn_bytes", |b| b.boot.torn_tail_bytes.into()),
        Col::shown("serving_len", "serving len", Cell::Plain, |b| {
            b.boot.serving_len.into()
        }),
        Col::shown("boot_ms", "boot ms", Cell::Fixed3, |b| b.boot_ms.into()),
    ],
};

/// `--durability [--smoke]`: one kill-and-restart run. Not part of
/// `--all` (it spawns processes and binds sockets); needs
/// `cargo build --bin genie-server` first.
fn setup(ctx: &Ctx) -> crate::harness::Trial {
    let smoke = ctx.mode == Mode::Smoke;
    let workload = if smoke {
        DurabilityWorkload {
            corpus_n: 120,
            cycles: 1,
            inserts_per_cycle: 16,
            inflight_at_kill: 3,
            k: 10,
        }
    } else {
        DurabilityWorkload::default()
    };
    Box::new(move || {
        let report = run_kill_restart(workload);
        BOOTS.header();
        let rows = report.boots.iter().map(|b| BOOTS.row(b.name.as_str(), b));
        let rows: Vec<Json> = rows.collect();
        println!(
            "{} acked insert(s), {} in-flight survivor(s), identity {} over {} probe(s), \
             clean restart replayed {}",
            report.acked_inserts,
            report.inflight_recovered,
            if report.identity_ok { "OK" } else { "DIVERGED" },
            report.identity_probes,
            report.clean_restart_replayed
        );
        Run {
            head: vec![
                ("smoke", smoke.into()),
                ("corpus_n", report.corpus_n.into()),
                ("cycles", workload.cycles.into()),
                ("acked_inserts", report.acked_inserts.into()),
                ("inflight_recovered", report.inflight_recovered.into()),
                ("identity_probes", report.identity_probes.into()),
                ("identity_ok", report.identity_ok.into()),
                ("lengths_ok", report.lengths_ok.into()),
                (
                    "snapshot_recovery_used",
                    report.snapshot_recovery_used.into(),
                ),
                (
                    "clean_restart_replayed",
                    report.clean_restart_replayed.into(),
                ),
            ],
            body: vec![("rows", rows.into())],
        }
    })
}

const SECTIONS: &[Section] = &[
    Section {
        at: None,
        name: "durability",
        invariants: &[
            // recovered answers match the mirror, hit for hit
            Invariant::new("identity_after_sigkill", |doc, _| flag(doc, "identity_ok")),
            // every restart served exactly the reconciled count
            Invariant::new("acked_inserts_all_recovered", |doc, _| {
                flag(doc, "lengths_ok")
            }),
            Invariant::new("snapshot_recovery_used", |doc, _| {
                flag(doc, "snapshot_recovery_used")
            }),
            // a graceful shutdown's checkpoint folds the journal
            Invariant::new("clean_restart_replays_zero", |doc, _| {
                field(doc, "clean_restart_replayed") == 0.0
            }),
        ],
        bands: &[],
    },
    Section {
        at: Some("rows"),
        name: "",
        // the first boot finds an empty data dir; every later one must
        // find the collection
        invariants: &[Invariant::new("recovers_collection", |row, _| {
            let first = row.get("name").and_then(Json::as_str) == Some("boot");
            field(row, "recovered") == if first { 0.0 } else { 1.0 }
        })],
        bands: &[],
    },
];

pub const BENCH: Bench = Bench {
    name: "durability",
    flag: "--durability",
    in_all: false,
    trials: |mode| if mode == Mode::Full { 2 } else { 1 },
    sections: |_| SECTIONS,
    setup,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_line_parses() {
        let line = "recovered 1 collection(s) from /tmp/genie-42-7/data: snapshot gen 2, \
                    17 journal event(s) replayed (3 skipped), 5 torn byte(s) dropped";
        assert_eq!(parse_recovered(line), Some((1, 2, 17, 3, 5)));
        assert_eq!(parse_recovered("serving 10 objects"), None);
    }

    #[test]
    fn serving_line_parses_with_digits_in_paths() {
        let line = "serving 403 objects from /tmp/genie-9/corpus.txt (collection id 7, \
                    2 shards) on 127.0.0.1:45123 [token required]";
        assert_eq!(
            parse_serving(line),
            Some((403, 7, "127.0.0.1:45123".to_string()))
        );
    }

    #[test]
    fn checkpoint_line_parses() {
        assert_eq!(
            parse_checkpoint_gen("checkpointed data dir at snapshot gen 4"),
            Some(4)
        );
        assert_eq!(parse_checkpoint_gen("drained: true"), None);
    }

    #[test]
    fn mirror_matches_server_keyword_convention() {
        // the corpus writer and the mirror must agree word-for-word
        let dir = TempDir::new("unit");
        let path = write_corpus(&dir.0, 9);
        let raw = std::fs::read_to_string(path).unwrap();
        for (i, line) in raw.lines().enumerate() {
            let server_view: Vec<u32> = line.split_whitespace().map(keyword_of).collect();
            assert_eq!(server_view, corpus_object(i).keywords);
        }
    }

    #[test]
    fn insert_keywords_carry_the_shared_tag() {
        for seq in 0..50 {
            let kws = insert_keywords(seq);
            assert_eq!(kws.len(), 2);
            assert_eq!(kws[1], keyword_of("durability"));
            assert!(kws[0] <= 0xf_ffff);
        }
    }
}

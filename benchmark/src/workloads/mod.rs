//! The four workloads and what they share: the pinned program
//! configuration, run options, the result shape, temp directories.

pub mod batch;
pub mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use genie_core::backend::kernel::KernelStatsSnapshot;
use genie_net::server::{NetStats, ServerConfig};
use genie_service::{SchedulerConfig, ServiceConfig, ServiceStats};

use crate::json::Json;
use crate::spec;
use crate::stats;
use crate::trace::Span;

/// Results asked of every search.
pub const K: usize = 10;
/// Load that runs before the timed phase and is thrown away.
pub const WARMUP_S: f64 = 2.0;
/// Segments the timed phase of an untraced run is cut into. The
/// sandbox stalls the whole process for 30-60 ms a few times per run and
/// each stall spoils the tail of one segment, so the median needs clearly
/// more than twice as many segments as stalls; but a segment must also
/// hold enough samples for its own p99 (the reader of
/// `wire_mixed_durable` sends ~700 a second). Measured with 4, 5, 7 and
/// 9 segments: 7 is where the p99 spreads of `wire_point_open` and
/// `wire_mixed_durable` cross. Odd, so the median is one segment's value.
pub const SEGMENTS: usize = 7;
/// A traced run alternates untraced reference and traced segments.
pub const TRACED_SEGMENTS: usize = 8;
/// Every `KEEP_EVERY`th search reply is kept for the audit ...
pub const KEEP_EVERY: u64 = 64;
/// ... and the kept ones are thinned evenly to at most this many, so
/// the brute-force pass fits the run's time budget.
pub const AUDIT_CAP: usize = 256;
/// Set-ups per untraced run: at least `MIN_SETUPS`, then more while
/// they are cheap (until `SETUP_BUDGET_S` is spent or `MAX_SETUPS` are
/// done); `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 9;
pub const SETUP_BUDGET_S: f64 = 3.0;

/// Whether an untraced run sets up once more after `done` set-ups that
/// took `spent_s` together. A traced run sets up once.
pub fn another_setup(traced: bool, done: usize, spent_s: f64) -> bool {
    match done {
        0 => true,
        _ if traced => false,
        n if n < MIN_SETUPS => true,
        n => n < MAX_SETUPS && spent_s < SETUP_BUDGET_S,
    }
}

/// The service configuration `genie-server` ships today
/// (`--delay-ms 2`, everything else `ServiceConfig::default()`).
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_queue_delay: Duration::from_millis(2),
        dispatchers: 1,
        cache_capacity: 1024,
        compact_after: 1024,
        ..ServiceConfig::default()
    }
}

/// The pinned configuration, echoed into every result file.
pub fn config_json() -> Json {
    let svc = service_config();
    let sched = SchedulerConfig::default();
    let server = ServerConfig::default();
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::obj(vec![
        (
            "service",
            Json::obj(vec![
                (
                    "max_queue_delay_ms",
                    Json::num(svc.max_queue_delay.as_secs_f64() * 1e3),
                ),
                ("dispatchers", Json::count(svc.dispatchers as u64)),
                ("cache_capacity", Json::count(svc.cache_capacity as u64)),
                ("failure_threshold", Json::count(svc.failure_threshold)),
                ("probe_after_runs", Json::count(svc.probe_after_runs)),
                ("compact_after", Json::count(svc.compact_after as u64)),
                ("skew_threshold", Json::num(svc.skew_threshold)),
                ("rebalance_window", Json::count(svc.rebalance_window as u64)),
            ]),
        ),
        (
            "scheduler",
            Json::obj(vec![
                (
                    "max_batch_queries",
                    Json::count(sched.max_batch_queries as u64),
                ),
                (
                    "cpq_budget_bytes",
                    opt(sched.cpq_budget_bytes.map(|b| b as f64)),
                ),
                ("batch_cost_budget_us", opt(sched.batch_cost_budget_us)),
                ("cost_model_base_us", Json::num(sched.cost_model.base_us)),
                (
                    "cost_model_us_per_posting",
                    Json::num(sched.cost_model.us_per_posting),
                ),
            ]),
        ),
        (
            "server",
            Json::obj(vec![
                ("auth_token", Json::Bool(server.auth_token.is_some())),
                (
                    "max_frame_len",
                    Json::count(u64::from(server.max_frame_len)),
                ),
                (
                    "handshake_timeout_ms",
                    Json::num(server.handshake_timeout.as_secs_f64() * 1e3),
                ),
                (
                    "read_poll_ms",
                    Json::num(server.read_poll.as_secs_f64() * 1e3),
                ),
                (
                    "write_timeout_ms",
                    Json::num(server.write_timeout.as_secs_f64() * 1e3),
                ),
                (
                    "drain_timeout_ms",
                    Json::num(server.drain_timeout.as_secs_f64() * 1e3),
                ),
            ]),
        ),
        ("backends", Json::str("one CpuBackend")),
        ("k", Json::count(K as u64)),
    ])
}

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out`: result files, trace files, temp data.
    pub out_dir: PathBuf,
}

/// Named values of one run, in the order of their spec table and
/// checked against it.
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Every per-layer metric, at 0 until a layer reports it: a layer a
    /// workload does not cross stays 0.
    pub fn per_layer() -> Self {
        Self(spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn end_to_end() -> Self {
        Self(spec::END_TO_END.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the spec tables"));
        // an empty f64 sum is -0.0; print it as 0
        slot.1 = value + 0.0;
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.set(name, value);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Operations attempted (searches and mutation batches sent, plus
    /// post-run checks) and how many of them failed: not answered,
    /// answered with an error, or answered wrongly in the audit.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Workload facts for the result file: sizes, checksums, counts.
    pub detail: Json,
    /// The first few failures, in words.
    pub failures: Vec<String>,
}

/// Collects failures while a run proceeds.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// One checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempt(1);
        if let Err(e) = result {
            self.fail(1, || e);
        }
    }
}

pub fn run(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match workload {
        "wire_point_open" => wire::run(wire::Kind::PointOpen, opts),
        "wire_scan_pipelined" => wire::run(wire::Kind::ScanPipelined, opts),
        "wire_mixed_durable" => wire::run(wire::Kind::MixedDurable, opts),
        "batch_domains" => batch::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The public counters of every layer, flat, as read at one instant.
pub type Counters = BTreeMap<&'static str, f64>;

pub fn layer_counters(s: &ServiceStats, k: &KernelStatsSnapshot, n: Option<&NetStats>) -> Counters {
    let c = |v: u64| v as f64;
    let n = n.copied().unwrap_or_default();
    BTreeMap::from([
        ("submitted", c(s.submitted)),
        ("served", c(s.served)),
        ("failed_requests", c(s.failed_requests)),
        ("cache_hits", c(s.cache_hits)),
        ("size_triggers", c(s.size_triggers)),
        ("deadline_triggers", c(s.deadline_triggers)),
        ("waves", c(s.waves)),
        ("failed_waves", c(s.failed_waves)),
        ("batches", c(s.batches)),
        ("shard_runs", c(s.shard_runs)),
        ("batched_requests", c(s.batched_requests)),
        ("wall_us", s.wall_us),
        ("predicted_cost_us", s.predicted_cost_us),
        ("actual_cost_us", s.actual_cost_us),
        ("mutation_batches", c(s.mutation_batches)),
        ("inserted", c(s.inserted)),
        ("deleted", c(s.deleted)),
        ("compactions", c(s.compactions)),
        ("stale_compactions", c(s.stale_compactions)),
        ("placed_shard_runs", c(s.placed_shard_runs)),
        ("hot_shard_events", c(s.hot_shard_events)),
        ("rebalances", c(s.rebalances)),
        ("journaled_events", c(s.journaled_events)),
        ("checkpoints", c(s.checkpoints)),
        ("persist_errors", c(s.persist_errors)),
        ("frames_in", c(n.frames_in)),
        ("frames_out", c(n.frames_out)),
        ("requests_admitted", c(n.requests_admitted)),
        ("errors_sent", c(n.errors_sent)),
        ("protocol_errors", c(n.protocol_errors)),
        ("io_drops", c(n.io_drops)),
        ("slow_reader_drops", c(n.slow_reader_drops)),
        ("kernel_queries", c(k.queries)),
        ("kernel_sparse", c(k.sparse_finalize)),
        ("kernel_parallel", c(k.parallel_queries)),
        ("kernel_postings", c(k.postings_scanned)),
        ("kernel_candidates", c(k.candidates)),
    ])
}

/// What the counters gained over the measured spans of the run:
/// `snapshots[b]` was read at boundary `b`, and span `i` runs from
/// boundary `i` to boundary `i + 1`.
pub fn gained(snapshots: &[Counters], measured: &[usize]) -> Counters {
    let mut total: Counters = snapshots[0].keys().map(|k| (*k, 0.0)).collect();
    for &i in measured {
        for (name, slot) in total.iter_mut() {
            *slot += snapshots[i + 1][name] - snapshots[i][name];
        }
    }
    total
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics every workload reads the same way: counter
/// gains of the service, the net server and the kernel, plus the
/// backend spans of the traced time (`measured_us` long).
pub fn layer_metrics(metrics: &mut Metrics, gained: &Counters, spans: &[Span], measured_us: f64) {
    let g = |name: &str| gained[name];
    let kernel_spans: Vec<&Span> = spans.iter().filter(|s| s.op == "search_batch").collect();
    let kernel_calls = kernel_spans.len() as f64;
    let kernel_us: f64 = kernel_spans.iter().map(|s| s.dur_us()).sum();
    let kernel_queries: f64 = kernel_spans.iter().map(|s| s.a as f64).sum();
    let kernel_busy_us = stats::union_us(
        &kernel_spans
            .iter()
            .map(|s| s.interval())
            .collect::<Vec<_>>(),
    );
    metrics.extend([
        ("net.server.frames_in", g("frames_in")),
        ("net.server.frames_out", g("frames_out")),
        ("net.server.requests_admitted", g("requests_admitted")),
        ("net.server.errors_sent", g("errors_sent")),
        ("net.server.protocol_errors", g("protocol_errors")),
        ("net.server.io_drops", g("io_drops")),
        ("net.server.slow_reader_drops", g("slow_reader_drops")),
        ("service.admission.submitted", g("submitted")),
        ("service.admission.served", g("served")),
        ("service.admission.failed_requests", g("failed_requests")),
        ("service.admission.waves", g("waves")),
        ("service.admission.failed_waves", g("failed_waves")),
        ("service.admission.size_triggers", g("size_triggers")),
        (
            "service.admission.deadline_triggers",
            g("deadline_triggers"),
        ),
        (
            "service.admission.batch_occupancy",
            ratio(g("batched_requests"), g("batches")),
        ),
        ("service.cache.hits", g("cache_hits")),
        (
            "service.cache.hit_share",
            ratio(g("cache_hits"), g("submitted")),
        ),
        ("service.scheduler.batches", g("batches")),
        (
            "service.scheduler.wall_us_per_wave",
            ratio(g("wall_us"), g("waves")),
        ),
        (
            "service.scheduler.self_us_per_wave",
            ratio(g("wall_us") - kernel_busy_us, g("waves")),
        ),
        (
            "service.scheduler.predicted_over_actual",
            ratio(g("predicted_cost_us"), g("actual_cost_us")),
        ),
        ("service.mutate.batches", g("mutation_batches")),
        ("service.mutate.inserted", g("inserted")),
        ("service.mutate.deleted", g("deleted")),
        ("core.kernel.calls", kernel_calls),
        (
            "core.kernel.queries_per_call",
            ratio(kernel_queries, kernel_calls),
        ),
        ("core.kernel.us_per_query", ratio(kernel_us, kernel_queries)),
        ("core.kernel.busy_share", kernel_busy_us / measured_us),
        (
            "core.kernel.postings_per_query",
            ratio(g("kernel_postings"), g("kernel_queries")),
        ),
        (
            "core.kernel.candidates_per_query",
            ratio(g("kernel_candidates"), g("kernel_queries")),
        ),
        (
            "core.kernel.sparse_finalize_share",
            ratio(g("kernel_sparse"), g("kernel_queries")),
        ),
        ("core.kernel.parallel_queries", g("kernel_parallel")),
        ("core.shard.shard_runs", g("shard_runs")),
        (
            "core.shard.runs_per_wave",
            ratio(g("shard_runs"), g("waves")),
        ),
        ("core.delta.compactions", g("compactions")),
        ("core.delta.stale_compactions", g("stale_compactions")),
        ("core.placement.placed_shard_runs", g("placed_shard_runs")),
        ("core.placement.rebalances", g("rebalances")),
        ("core.placement.hot_shard_events", g("hot_shard_events")),
        ("store.journaled_events", g("journaled_events")),
        ("store.checkpoints", g("checkpoints")),
        ("store.persist_errors", g("persist_errors")),
    ]);
}

/// A directory under `benchmark/out/tmp` that is removed when the value
/// drops — on success, on an error return and on a panic alike.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(out_dir: &Path, tag: &str) -> Result<Self, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = out_dir
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `VmHWM` of this process, megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Keep at most `cap` items, evenly spaced.
pub fn thin<T>(items: Vec<T>, cap: usize) -> Vec<T> {
    let n = items.len();
    if n <= cap {
        return items;
    }
    items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| (i * cap) / n != ((i + 1) * cap) / n)
        .map(|(_, item)| item)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_vanish_on_drop_and_on_panic() {
        let out = std::env::temp_dir().join(format!("genie-bench-test-{}", std::process::id()));
        let kept;
        {
            let dir = TempDir::create(&out, "t").unwrap();
            std::fs::write(dir.path().join("f"), b"12345").unwrap();
            std::fs::create_dir(dir.path().join("sub")).unwrap();
            std::fs::write(dir.path().join("sub/g"), b"678").unwrap();
            assert_eq!(dir_bytes(dir.path()), 8);
            kept = dir.path().to_path_buf();
        }
        assert!(!kept.exists());
        let out2 = out.clone();
        let panicked = std::panic::catch_unwind(move || {
            let dir = TempDir::create(&out2, "p").unwrap();
            let path = dir.path().to_path_buf();
            assert!(path.exists());
            std::panic::panic_any(path);
        })
        .unwrap_err();
        let path = panicked.downcast::<PathBuf>().unwrap();
        assert!(!path.exists(), "removed while unwinding");
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn cheap_set_ups_repeat_more_often_and_traced_runs_set_up_once() {
        assert!(another_setup(true, 0, 0.0));
        assert!(!another_setup(true, 1, 0.01));
        assert!(
            another_setup(false, 2, 100.0),
            "never fewer than MIN_SETUPS"
        );
        assert!(
            !another_setup(false, 3, 3.3),
            "an expensive set-up stops at 3"
        );
        assert!(another_setup(false, 8, 0.3));
        assert!(
            !another_setup(false, 9, 0.3),
            "a cheap one stops at MAX_SETUPS"
        );
    }

    #[test]
    fn thin_keeps_an_even_sample() {
        let kept = thin((0..1000).collect::<Vec<_>>(), 10);
        assert_eq!(kept.len(), 10);
        assert!(kept.windows(2).all(|w| w[1] - w[0] == 100));
        assert_eq!(thin(vec![1, 2, 3], 10), vec![1, 2, 3]);
    }

    #[test]
    fn metrics_only_accept_names_from_the_tables() {
        let mut m = Metrics::per_layer();
        m.set("core.kernel.calls", 3.0);
        m.set("store.appends", -0.0);
        assert!(m.iter().any(|(n, v)| n == "core.kernel.calls" && v == 3.0));
        assert!(
            m.iter().all(|(_, v)| v.is_sign_positive()),
            "-0.0 is stored as 0"
        );
        assert_eq!(m.iter().count(), spec::PER_LAYER.len());
        assert!(std::panic::catch_unwind(move || m.set("no.such.metric", 1.0)).is_err());
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        assert!(peak_rss_mb() > 1.0);
    }
}

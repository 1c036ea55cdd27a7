//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end
//! metric each should move. `BENCHMARK.json` at the repository root is
//! rendered from these tables (`--print-benchmark-json`) and a unit
//! test keeps the two identical.

use crate::json::Json;

/// How long one run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_point_open",
        why: "Independent users, open loop 1000 req/s of ~16-posting queries: latency is admission deadline + wire + thread hand-offs, kernel <1%; kernel work must show no change here",
    },
    Workload {
        name: "wire_scan_pipelined",
        why: "Application servers pipelining dense ~460k-posting range scans, closed loop 2x16 in flight: bound by kernel and scheduler; wire and admission-floor fixes should move it little",
    },
    Workload {
        name: "wire_mixed_durable",
        why: "Reads beside journaled writes on a 4-shard durable collection: the only workload crossing shard fan-out, delta + tombstones, compaction, fsync, checkpoints and cache invalidation",
    },
    Workload {
        name: "batch_domains",
        why: "The paper's measure through the typed facade: rounds of 1024 tau-ANN + 1024 sequence queries in process, size-triggered waves, no sockets; wire fixes must show no change here",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// Every one of these is measured on every workload and is never 0 —
/// the driver requires both. The issue's workload-specific end-to-end
/// metrics (mutation latency, recovery, disk amplification) therefore
/// ride as per-layer metrics; see README "Demotions".
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "Index build + collection registration (backends prepared, shards split, journal Create) + server spawn + client handshakes; median of 3 to 9 set-ups per run. Corpus generation is excluded.",
    },
    EndToEnd {
        name: "search_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.18,
        what: "Full latency of a search, from due time (open loop) or send (closed loop) to decoded reply; on batch_domains from Collection::submit to the decoded typed answer. Median of the per-segment medians.",
    },
    EndToEnd {
        name: "search_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "Same, 99th percentile per segment (>= 10 samples beyond it), median over segments.",
    },
    EndToEnd {
        name: "search_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.18,
        what: "Correct search replies that met the workload's latency limit, per second of timed phase (goodput against the 1000/s schedule on wire_point_open; 2048 / round wall time on batch_domains, the issue's batch_qps).",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process at the end of the timed phase: program + load generator + generated inputs, before the audit builds its model.",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this should move, and where.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const M_CLIENT: &str = "search_p50_us on the wire workloads";
const M_LOADGEN: &str = "nothing: above 1 ms late the wire_point_open numbers are the generator's";
const M_FRAME: &str = "search_qps on wire_scan_pipelined (per-request CPU)";
const M_NET: &str =
    "search_p50_us / search_p99_us on wire_point_open; client.mutate_p50_us on wire_mixed_durable";
const M_ADMIT: &str = "search_p50_us on wire_point_open (largest single share)";
const M_CACHE: &str = "search_p50_us on wire_mixed_durable if invalidation becomes finer";
const M_SCHED: &str = "search_qps on wire_scan_pipelined and batch_domains";
const M_FACADE: &str = "search_qps on batch_domains only";
const M_MUTATE: &str =
    "client.mutate_p50_us, client.mutate_rows_per_s; search_p99_us on wire_mixed_durable";
const M_INDEX: &str = "setup_s, peak_rss_mb on all workloads";
const M_KERNEL: &str = "search_qps and search_p50_us on wire_scan_pipelined, search_qps on batch_domains; nothing on wire_point_open";
const M_SHARD: &str = "search_p50_us on wire_mixed_durable only";
const M_DELTA: &str =
    "client.mutate_p50_us; search_p99_us on wire_mixed_durable (compaction stalls)";
const M_PLACE: &str = "nothing: non-zero on a one-backend fleet means the workload drifted";
const M_ENGINE: &str =
    "no end-to-end metric (modelled counts; the only view of the paper's c-PQ pipeline)";
const M_STORE: &str = "client.mutate_*, store.recover_s, store.disk_bytes_per_user_byte; search_p99_us on wire_mixed_durable (fsync under the collection lock)";
const M_DOMAIN: &str = "search_qps on batch_domains";
const M_TRACE: &str = "nothing: validity of the traced numbers";
const M_DEMOTED: &str = "end-to-end in the issue; demoted because the driver needs every end-to-end metric on every workload";

pub const PER_LAYER: [PerLayer; 109] = [
    // genie-client
    pl("client.server_p50_us", "us", Lower, M_CLIENT),
    pl("client.decode_p50_us", "us", Lower, M_CLIENT),
    pl("client.search_p999_us", "us", Lower, M_CLIENT),
    pl("client.sent", "count", Higher, M_CLIENT),
    pl("client.replies", "count", Higher, M_CLIENT),
    pl("client.remote_errors", "count", Lower, M_CLIENT),
    pl("client.mutate_p50_us", "us", Lower, M_DEMOTED),
    pl("client.mutate_p99_us", "us", Lower, M_DEMOTED),
    pl("client.mutate_rows_per_s", "1/s", Higher, M_DEMOTED),
    // the harness itself
    pl("loadgen.late_p99_us", "us", Lower, M_LOADGEN),
    pl("loadgen.offered_rps", "1/s", Higher, M_LOADGEN),
    pl("loadgen.generator_threads", "count", Lower, M_LOADGEN),
    // genie_net::frame
    pl("net.frame.encode_request_ns", "ns", Lower, M_FRAME),
    pl("net.frame.decode_request_ns", "ns", Lower, M_FRAME),
    pl("net.frame.encode_response_ns", "ns", Lower, M_FRAME),
    pl("net.frame.decode_response_ns", "ns", Lower, M_FRAME),
    pl("net.frame.request_bytes", "bytes", Lower, M_FRAME),
    pl("net.frame.response_bytes", "bytes", Lower, M_FRAME),
    // NetServer
    pl("net.server.frames_in", "count", Higher, M_NET),
    pl("net.server.frames_out", "count", Higher, M_NET),
    pl("net.server.requests_admitted", "count", Higher, M_NET),
    pl("net.server.errors_sent", "count", Lower, M_NET),
    pl("net.server.protocol_errors", "count", Lower, M_NET),
    pl("net.server.io_drops", "count", Lower, M_NET),
    pl("net.server.slow_reader_drops", "count", Lower, M_NET),
    pl("net.server.self_p50_us", "us", Lower, M_NET),
    // GenieService admission
    pl("service.admission.submitted", "count", Higher, M_ADMIT),
    pl("service.admission.served", "count", Higher, M_ADMIT),
    pl("service.admission.failed_requests", "count", Lower, M_ADMIT),
    pl("service.admission.waves", "count", Lower, M_ADMIT),
    pl("service.admission.failed_waves", "count", Lower, M_ADMIT),
    pl("service.admission.size_triggers", "count", Higher, M_ADMIT),
    pl(
        "service.admission.deadline_triggers",
        "count",
        Lower,
        M_ADMIT,
    ),
    pl(
        "service.admission.batch_occupancy",
        "ratio",
        Higher,
        M_ADMIT,
    ),
    pl("service.admission.queue_wait_p50_us", "us", Lower, M_ADMIT),
    // result cache
    pl("service.cache.hits", "count", Higher, M_CACHE),
    pl("service.cache.hit_share", "ratio", Higher, M_CACHE),
    // QueryScheduler
    pl("service.scheduler.batches", "count", Lower, M_SCHED),
    pl("service.scheduler.wall_us_per_wave", "us", Lower, M_SCHED),
    pl("service.scheduler.self_us_per_wave", "us", Lower, M_SCHED),
    pl("service.scheduler.plan_us_per_wave", "us", Lower, M_SCHED),
    pl(
        "service.scheduler.predicted_over_actual",
        "ratio",
        Higher,
        M_SCHED,
    ),
    pl(
        "service.scheduler.learned_us_per_posting",
        "us",
        Lower,
        M_SCHED,
    ),
    // GenieDb / Collection<D>
    pl("service.facade.submit_us_per_query", "us", Lower, M_FACADE),
    pl(
        "service.facade.wait_decode_us_per_query",
        "us",
        Lower,
        M_FACADE,
    ),
    pl(
        "service.facade.overhead_us_per_query",
        "us",
        Lower,
        M_FACADE,
    ),
    // mutate_collection
    pl("service.mutate.batches", "count", Higher, M_MUTATE),
    pl("service.mutate.inserted", "count", Higher, M_MUTATE),
    pl("service.mutate.deleted", "count", Higher, M_MUTATE),
    pl("service.mutate.inproc_p50_us", "us", Lower, M_MUTATE),
    // index build
    pl("core.index.build_s", "s", Lower, M_INDEX),
    pl("core.index.host_bytes", "bytes", Lower, M_INDEX),
    pl("core.index.postings", "count", Lower, M_INDEX),
    // backend::kernel via CpuBackend
    pl("core.kernel.calls", "count", Lower, M_KERNEL),
    pl("core.kernel.queries_per_call", "ratio", Higher, M_KERNEL),
    pl("core.kernel.us_per_query", "us", Lower, M_KERNEL),
    pl("core.kernel.busy_share", "ratio", Lower, M_KERNEL),
    pl("core.kernel.postings_per_query", "ratio", Lower, M_KERNEL),
    pl("core.kernel.candidates_per_query", "ratio", Lower, M_KERNEL),
    pl(
        "core.kernel.sparse_finalize_share",
        "ratio",
        Higher,
        M_KERNEL,
    ),
    pl("core.kernel.parallel_queries", "count", Higher, M_KERNEL),
    pl("core.kernel.direct_us_per_query", "us", Lower, M_KERNEL),
    // shard fan-out and merge
    pl("core.shard.shard_runs", "count", Lower, M_SHARD),
    pl("core.shard.runs_per_wave", "ratio", Lower, M_SHARD),
    pl("core.shard.merge_us_per_query", "us", Lower, M_SHARD),
    pl("core.shard.fanout_overhead_p50_us", "us", Lower, M_SHARD),
    // delta shard, tombstones, compaction
    pl("core.delta.delta_len_max", "count", Lower, M_DELTA),
    pl("core.delta.tombstones_max", "count", Lower, M_DELTA),
    pl("core.delta.compactions", "count", Higher, M_DELTA),
    pl("core.delta.stale_compactions", "count", Lower, M_DELTA),
    pl("core.delta.compact_ms_p50", "ms", Lower, M_DELTA),
    pl("core.delta.stage_us_per_batch", "us", Lower, M_DELTA),
    // placement
    pl("core.placement.placed_shard_runs", "count", Lower, M_PLACE),
    pl("core.placement.rebalances", "count", Lower, M_PLACE),
    pl("core.placement.hot_shard_events", "count", Lower, M_PLACE),
    // exec::Engine, simulated device
    pl("core.engine.sim_match_us_per_query", "us", Lower, M_ENGINE),
    pl("core.engine.sim_select_us_per_query", "us", Lower, M_ENGINE),
    pl("core.engine.sim_query_transfer_us", "us", Lower, M_ENGINE),
    pl("core.engine.cpq_bytes_per_query", "bytes", Lower, M_ENGINE),
    pl("core.engine.host_us_per_query", "us", Lower, M_ENGINE),
    // genie-store through the Vfs wrapper
    pl("store.appends", "count", Lower, M_STORE),
    pl("store.append_bytes", "bytes", Lower, M_STORE),
    pl("store.append_sync_p50_us", "us", Lower, M_STORE),
    pl("store.append_sync_p99_us", "us", Lower, M_STORE),
    pl("store.atomic_writes", "count", Lower, M_STORE),
    pl("store.atomic_write_bytes", "bytes", Lower, M_STORE),
    pl("store.atomic_write_p50_us", "us", Lower, M_STORE),
    pl("store.fsyncs_per_batch", "ratio", Lower, M_STORE),
    pl("store.write_amp", "ratio", Lower, M_STORE),
    pl("store.busy_share", "ratio", Lower, M_STORE),
    pl("store.journaled_events", "count", Higher, M_STORE),
    pl("store.checkpoints", "count", Lower, M_STORE),
    pl("store.persist_errors", "count", Lower, M_STORE),
    pl("store.recover_replayed_events", "count", Lower, M_STORE),
    pl("store.recover_read_bytes", "bytes", Lower, M_STORE),
    pl("store.recover_s", "s", Lower, M_DEMOTED),
    pl("store.disk_bytes_per_user_byte", "ratio", Lower, M_DEMOTED),
    // genie-lsh AnnIndex
    pl("lsh.ann.encode_us_per_query", "us", Lower, M_DOMAIN),
    pl("lsh.ann.kernel_us_per_query", "us", Lower, M_DOMAIN),
    pl("lsh.ann.decode_us_per_query", "us", Lower, M_DOMAIN),
    // genie-sa SequenceIndex
    pl("sa.sequence.encode_us_per_query", "us", Lower, M_DOMAIN),
    pl("sa.sequence.kernel_us_per_query", "us", Lower, M_DOMAIN),
    pl("sa.sequence.decode_us_per_query", "us", Lower, M_DOMAIN),
    pl("sa.sequence.certified_share", "ratio", Higher, M_DOMAIN),
    // the tracing itself
    pl("trace.overhead_share", "ratio", Lower, M_TRACE),
    pl("trace.spans", "count", Lower, M_TRACE),
    pl("trace.ladder_over_loaded", "ratio", Higher, M_TRACE),
    // operations that failed or were answered wrongly
    pl("audit.failed_share", "ratio", Lower, M_DEMOTED),
    pl("audit.audited", "count", Higher, M_TRACE),
];

/// The command the driver runs; it appends
/// `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

/// What a result file says about the metric `name`: unit, direction,
/// and its definition and bound (end-to-end) or the end-to-end metric
/// it should move (per-layer).
pub fn definition(name: &str) -> Option<Json> {
    let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| {
        Json::obj(vec![
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::num(m.bound)),
            ("definition", Json::str(m.what)),
        ])
    });
    e2e.or_else(|| {
        PER_LAYER.iter().find(|m| m.name == name).map(|m| {
            Json::obj(vec![
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("moves", Json::str(m.moves)),
            ])
        })
    })
}

/// `BENCHMARK.json`, with exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::count(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_respect_the_drivers_limits() {
        let mut names = HashSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
        // 4 + 22 runs per workload, two builds: all within 3420 s
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 12) + 2 * 60 <= 3420);
    }

    #[test]
    fn benchmark_json_at_the_root_is_rendered_from_these_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json().pretty(),
            "regenerate with: cargo run --release --offline --manifest-path \
             benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}

//! The `--check` perf-regression gate: noise-banded comparison of a
//! fresh re-run against the checked-in baselines.
//!
//! `repro --cpu-kernel --check` re-runs the sweep several times,
//! summarises each gated metric as **median ± MAD** across the trials,
//! and fails (nonzero exit) if any row regresses beyond its noise band
//! vs `BENCH_cpu_kernel.json`. Only *dimensionless* metrics are gated —
//! speedup ratios, batch occupancy, structural counters — because raw
//! microseconds are host-specific and a baseline recorded on one
//! machine would spuriously gate another.
//!
//! The band is deliberately two-sided-generous: a row passes when
//!
//! ```text
//! median(trials) >= floor * baseline - min(slack_mad * MAD(trials), floor * baseline / 2)
//! ```
//!
//! where `floor` absorbs host-to-host variation and the MAD term
//! absorbs run-to-run jitter measured *on this host, right now*. The
//! MAD slack is capped at half the floor, so the threshold stays
//! positive: trials noisy enough to widen the band past zero would
//! otherwise make a gate that cannot fail. A
//! genuine regression — e.g. the dense path losing its vectorised
//! sweep — moves the median far below any plausible band, which the
//! injected-regression self-test in CI demonstrates
//! (`GENIE_BENCH_INJECT_REGRESSION=1` must make this gate fail).
//!
//! Every check writes a machine-readable report (`CHECK_<bench>*.json`,
//! gitignored; CI uploads them as artifacts) recording trials, medians,
//! MADs, bands and verdicts, so a red gate in CI is diagnosable from the
//! artifact alone. Which gates a bench has, how many trials it runs and
//! where the report lands is the [harness](crate::harness)'s business;
//! this module is only the arithmetic.

use std::path::Path;

use crate::harness::{Cell, Col, Table};
use crate::json::Json;

/// Median of a sample (mean-of-middle-two for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Median absolute deviation — the robust spread estimate behind the
/// noise band (unlike stddev, one cold-cache outlier barely moves it).
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let dev: Vec<f64> = samples.iter().map(|s| (s - m).abs()).collect();
    median(&dev)
}

/// One gated metric: its fresh trials vs the baseline value.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// `"<row>/<metric>"`, e.g. `"sparse/speedup_single_query"`.
    pub name: String,
    pub baseline: f64,
    pub trials: Vec<f64>,
    /// Relative floor: the fraction of `baseline` the median must
    /// reach before MAD slack is added (host / scale headroom).
    pub floor: f64,
}

/// The verdict for one gate row.
#[derive(Debug, Clone)]
pub struct GateVerdict {
    pub row: GateRow,
    pub median: f64,
    pub mad: f64,
    /// `floor * baseline - min(SLACK_MADS * mad, MAX_SLACK_SHARE *
    /// floor * baseline)`: the pass threshold.
    pub threshold: f64,
    pub pass: bool,
}

/// How many MADs of same-host jitter the band tolerates on top of the
/// relative floor.
pub const SLACK_MADS: f64 = 3.0;

/// The largest share of `floor * baseline` the MAD slack may take off
/// the threshold, so that a positive baseline keeps a positive
/// threshold however noisy the trials.
pub const MAX_SLACK_SHARE: f64 = 0.5;

/// The one place a boolean-per-trial becomes a gate: each trial scores
/// 1 when the invariant held and the median must reach 1. The harness
/// separately fails a check in which *any* trial broke an invariant, so
/// a two-of-three majority cannot hide a flaky structural failure.
pub fn indicator(name: String, held: &[bool]) -> GateRow {
    GateRow {
        name,
        baseline: 1.0,
        trials: held.iter().map(|&ok| ok as u64 as f64).collect(),
        floor: 1.0,
    }
}

/// Judge one metric: median of the trials against the banded floor.
pub fn judge(row: GateRow) -> GateVerdict {
    let med = median(&row.trials);
    let spread = mad(&row.trials);
    let floor = row.floor * row.baseline;
    let threshold = floor - (SLACK_MADS * spread).min(MAX_SLACK_SHARE * floor);
    GateVerdict {
        median: med,
        mad: spread,
        threshold,
        pass: med >= threshold,
        row,
    }
}

/// The gate row schema: the printed verdict table and the report's
/// `gates` entries.
const GATES: Table<GateVerdict> = Table {
    id: ("name", "gate", 46),
    cols: &[
        Col::shown("baseline", "baseline", Cell::Fixed3, |v| {
            v.row.baseline.into()
        }),
        Col::json("floor", |v| v.row.floor.into()),
        Col::json("trials", |v| {
            Json::Arr(v.row.trials.iter().map(|&t| t.into()).collect())
        }),
        Col::shown("median", "median", Cell::Fixed3, |v| v.median.into()),
        Col::shown("mad", "mad", Cell::Fixed3, |v| v.mad.into()),
        Col::shown("threshold", "threshold", Cell::Fixed3, |v| {
            v.threshold.into()
        }),
        Col::shown("pass", "pass", Cell::Plain, |v| v.pass.into()),
    ],
};

/// Print the verdict table, write the machine-readable report to
/// `report_path` (`CHECK_<check name>.json`), and return whether every
/// row passed.
pub fn report(verdicts: &[GateVerdict], report_path: &Path) -> bool {
    let stem = report_path.file_stem().expect("a report is a file");
    let check_name = stem.to_string_lossy();
    let check_name = check_name.trim_start_matches("CHECK_");
    // a red row must be findable by name: `<row>/<invariant>` is unique
    // by construction, and a bench that breaks that is a harness bug
    let mut names: Vec<&str> = verdicts.iter().map(|v| v.row.name.as_str()).collect();
    names.sort_unstable();
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        panic!("check {check_name} has two gates named {:?}", dup[0]);
    }
    GATES.header();
    let gates = verdicts.iter().map(|v| GATES.row(v.row.name.as_str(), v));
    let gates: Vec<Json> = gates.collect();

    let all_pass = verdicts.iter().all(|v| v.pass);
    let doc = Json::obj(vec![
        ("check", check_name.into()),
        ("slack_mads", SLACK_MADS.into()),
        ("pass", all_pass.into()),
        ("gates", gates.into()),
    ]);
    let shown = report_path.display();
    doc.write_to_file(report_path)
        .unwrap_or_else(|e| panic!("cannot write {shown}: {e}"));
    println!(
        "check report written to {shown} — {}",
        if all_pass { "PASS" } else { "FAIL" }
    );
    all_pass
}

/// Load a checked-in baseline, or explain exactly what to run.
pub fn load_baseline(path: &Path) -> Json {
    let shown = path.display();
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read baseline {shown}: {e} — run the bench without --check to create it")
    });
    Json::parse(&text).unwrap_or_else(|e| panic!("corrupt baseline {shown}: {e}"))
}

/// Read a required numeric field out of a row.
pub fn field(row: &Json, name: &str) -> f64 {
    row.get(name)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("row missing numeric field {name:?}"))
}

/// Read a required boolean field out of a row.
pub fn flag(row: &Json, name: &str) -> bool {
    row.get(name)
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("row missing boolean field {name:?}"))
}

/// True when the injected-regression self-test hook is armed. The
/// bench runners consult this inside their timed loops; CI sets it and
/// asserts the gate *fails*, proving the band cannot mask a real
/// slowdown.
pub fn regression_injected() -> bool {
    std::env::var("GENIE_BENCH_INJECT_REGRESSION").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Busy-wait ~`us` microseconds inside a timed region (the injected
/// "regression"). Spins rather than sleeps so the cost lands in the
/// measured wall-clock exactly like slow kernel code would.
pub fn inject_spin(us: u64) {
    let start = std::time::Instant::now();
    while start.elapsed().as_micros() < us as u128 {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust_to_one_outlier() {
        let samples = [8.0, 8.2, 7.9, 8.1, 42.0];
        assert_eq!(median(&samples), 8.1);
        assert!(mad(&samples) < 0.3, "mad = {}", mad(&samples));
    }

    #[test]
    fn median_of_even_sample_averages_the_middle() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn judge_passes_within_band_and_fails_far_below() {
        let ok = judge(GateRow {
            name: "sparse/speedup".into(),
            baseline: 8.0,
            trials: vec![7.0, 7.2, 6.9],
            floor: 0.6,
        });
        assert!(ok.pass, "{ok:?}");

        let bad = judge(GateRow {
            name: "sparse/speedup".into(),
            baseline: 8.0,
            trials: vec![1.1, 1.0, 1.2],
            floor: 0.6,
        });
        assert!(!bad.pass, "{bad:?}");
    }

    #[test]
    fn mad_slack_tolerates_genuinely_noisy_metrics() {
        // trials straddle the floor but their own spread widens the band
        let v = judge(GateRow {
            name: "mid/speedup".into(),
            baseline: 3.0,
            trials: vec![2.0, 1.4, 2.6],
            floor: 0.7,
        });
        // floor alone: 2.1 > median 2.0 — but MAD slack (0.6 * 3) saves it
        assert!(v.pass, "{v:?}");
    }

    #[test]
    fn mad_slack_cannot_push_the_threshold_below_zero() {
        // a noisy run of the dense single-query speedup gate (floor
        // 0.5, baseline 1.489): uncapped, 3 MADs of 0.27 put the
        // threshold at 0.745 - 0.81 < 0, a gate that could not fail
        let dense = |trials: Vec<f64>| {
            judge(GateRow {
                name: "dense/speedup_single_query".into(),
                baseline: 1.489,
                trials,
                floor: 0.5,
            })
        };
        let uncapped = |v: &GateVerdict| v.row.floor * v.row.baseline - SLACK_MADS * v.mad;

        let noisy = dense(vec![1.58, 1.31, 1.85]);
        assert!(uncapped(&noisy) < 0.0, "{noisy:?}");
        assert!(noisy.threshold > 0.0, "{noisy:?}");
        assert!(noisy.pass, "{noisy:?}");

        // the same spread around a collapsed median: it cleared the
        // uncapped threshold, and now fails
        let collapsed = dense(vec![0.30, 0.03, 0.57]);
        assert!(collapsed.median >= uncapped(&collapsed), "{collapsed:?}");
        assert!(collapsed.threshold > 0.0, "{collapsed:?}");
        assert!(!collapsed.pass, "{collapsed:?}");
    }

    #[test]
    fn report_writes_a_parseable_verdict_file() {
        let v = judge(GateRow {
            name: "dense/speedup".into(),
            baseline: 2.5,
            trials: vec![2.4, 2.6, 2.5],
            floor: 0.6,
        });
        let path = std::env::temp_dir().join("CHECK_unit_test.json");
        assert!(report(&[v], &path));
        let doc = load_baseline(&path);
        assert_eq!(doc.get("check").and_then(Json::as_str), Some("unit_test"));
        assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[should_panic(expected = "two gates named")]
    fn report_refuses_two_gates_with_one_name() {
        let twice = || judge(indicator("row/invariant".into(), &[true]));
        let path = std::env::temp_dir().join("CHECK_unit_test_dup.json");
        report(&[twice(), twice()], &path);
    }
}

//! # genie-bench — the evaluation harness
//!
//! Two things live here. The paper side regenerates every table and
//! figure of the paper's §VI on the scaled synthetic workloads:
//!
//! * [`workloads`] — the five dataset bundles (OCR/SIFT/DBLP/Tweets/
//!   Adult stand-ins) in match-count form plus the raw data the LSH and
//!   sequence baselines need;
//! * [`runners`] — uniform "run method X on bundle Y, return its time"
//!   wrappers around GENIE and all baselines;
//! * [`experiments`] — one function per table/figure, printing the same
//!   rows/series the paper reports ([`experiments::ALL`] is the index).
//!
//! Device-side methods report *simulated* time (the cost model of
//! `gpu-sim`); host-side methods report wall-clock. Comparisons across
//! the two are shape-level only (ROADMAP.md, "Architecture").
//!
//! The trajectory side records and gates this repo's own performance
//! baselines, for the two things `benchmark/` (the repo's one
//! end-to-end measuring stick: real sockets, four workloads, audited
//! replies) has no workload for: [`cpu_kernel`] (a micro-gate with an
//! injected-regression self-test) and [`durability`] (SIGKILL of a real
//! `genie-server`). They are *definitions* registered with one
//! [`harness`]; their module docs say only why the workload has the
//! shape it has. What follows is the one normative description of
//! everything they share.
//!
//! ## Modes and files
//!
//! | mode  | selected by            | records                          | checks into               |
//! |-------|------------------------|----------------------------------|---------------------------|
//! | full  | the bench's flag alone | `BENCH_<name>.json` (checked in) | `CHECK_<name>.json`       |
//! | smoke | `--smoke` or `--quick` | `BENCH_<name>_smoke.json`        | `CHECK_<name>_smoke.json` |
//!
//! Only the full files are checked in; every other output is
//! gitignored and uploaded by CI as an artifact. `repro --cpu-kernel
//! --durability` re-records both at one revision; a
//! recording never replaces a baseline whose `host_parallelism` is
//! larger than this host's — that bench is refused before it runs, the
//! other still records, the process exits nonzero (delete the file to
//! override).
//! Every document starts with `bench`, ends its header with the
//! provenance block (`threads`, `host_parallelism`, `git_revision`) and
//! keeps its rows in named sections.
//!
//! ## One row, rendered once
//!
//! A row is described by a [`harness::Table`]: per field its JSON key
//! and value and, if it shows in the printed table, its title, width
//! and format. The printed line and the JSON object come from that one
//! list. Array rows are named by their first field (`sparse`, `kill1`)
//! after the section's prefix, if it has one (`smoke/sparse`); the
//! document's own top-level fields by their section's name.
//!
//! ## The three uses of an invariant
//!
//! A bench lists named [`harness::Invariant`]s per section — structural,
//! dimensionless facts such as "every reply received". The harness
//! applies the same list in three places:
//!
//! 1. **recording** — a row that breaks one fails the run (the row is
//!    printed, nothing is written);
//! 2. **check trials** — each becomes one indicator gate
//!    `<row>/<invariant>` scoring 1 per trial it held in, and a check in
//!    which any trial broke one is red whatever the median says;
//! 3. **baseline audit** — a smoke check, and `cargo test`, apply the
//!    list to the checked-in `BENCH_<name>.json` itself as gates
//!    `baseline/<row>/<invariant>` (plus `baseline/<section>/nonempty`),
//!    so a stale or hand-mangled baseline fails without a full re-run.
//!
//! An invariant may be guarded ("only when the row shows it"): the guard
//! reads the baseline's row in a full-scale check and the row itself
//! everywhere else.
//!
//! ## The band
//!
//! Numeric gates ([`harness::Band`], `<row>/<band>`) are restricted to
//! dimensionless metrics — speedup ratios, occupancy, fractions —
//! because raw microseconds are host property. A band passes when
//!
//! ```text
//! median(trials) >= floor * baseline
//!                   - min(SLACK_MADS * MAD(trials), MAX_SLACK_SHARE * floor * baseline)
//! ```
//!
//! ([`check::judge`]; the floor is per band; the cap keeps the
//! threshold of a positive baseline positive). The baseline value is
//! always the same-named row of the same section, so a bench whose
//! ratios depend on scale records its smoke-scale rows in the baseline
//! too ([`cpu_kernel`]'s `smoke_rows`) and a smoke check compares like
//! with like. A smoke check also leaves its first trial as
//! `BENCH_<name>_smoke.json`.

pub mod check;
pub mod cpu_kernel;
pub mod durability;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod runners;
pub mod workloads;

/// Format a microsecond quantity as milliseconds with 2 decimals.
pub fn ms(us: f64) -> String {
    format!("{:.2}", us / 1000.0)
}

/// Print one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_formats_microseconds() {
        assert_eq!(ms(1500.0), "1.50");
        assert_eq!(ms(0.0), "0.00");
    }
}

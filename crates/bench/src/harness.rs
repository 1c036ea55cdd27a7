//! The one record/check driver behind every `BENCH_*.json` and
//! `CHECK_*.json` (the [crate docs](crate) are the normative
//! description of modes, file naming, invariants and bands).
//!
//! A bench module contributes a *definition* — a [`Bench`] constant
//! naming its flag, its trial counts, a `setup` that builds the data
//! once and returns a closure running one trial, and per-section lists
//! of [`Invariant`]s and [`Band`]s over the JSON rows that trial emits.
//! Everything else lives here: rendering a [`Table`] row once into both
//! the printed line and the JSON object, provenance, (bench, mode) →
//! file names, the trial loop, applying the invariant list to a
//! recording run / the check trials / the checked-in baseline, and the
//! argument parser `repro` walks the registry with.

use std::path::{Path, PathBuf};

use genie_core::backend::{CpuBackend, SearchBackend};

use crate::check::{self, GateRow};
use crate::json::Json;
use crate::workloads::Scale;

/// The scale a bench runs at; also the suffix of the files it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The checked-in baseline's scale: `BENCH_<name>.json`.
    Full,
    /// The CI-sized run: gitignored `BENCH_<name>_smoke.json`.
    Smoke,
}

/// What one run of a bench is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub mode: Mode,
    pub checking: bool,
    /// Directory holding the baselines and receiving every output.
    pub dir: PathBuf,
}

/// What one trial measured: the document's fields before and after the
/// provenance block (the harness adds `bench` and provenance itself).
pub struct Run {
    pub head: Vec<(&'static str, Json)>,
    pub body: Vec<(&'static str, Json)>,
}

/// One trial of a set-up bench; called once to record, N times to check.
pub type Trial = Box<dyn FnMut() -> Run>;

/// A named structural fact about one row. The same list is applied to a
/// recording run (which it fails), to every check trial (one indicator
/// gate per invariant) and to the checked-in baseline's rows.
#[derive(Clone, Copy)]
pub struct Invariant {
    pub name: &'static str,
    /// `(row, document)` → does the fact hold?
    pub holds: fn(&Json, &Json) -> bool,
    /// Applies only when the *reference* row shows this: the checked-in
    /// baseline's row in a full-scale check, the row itself everywhere
    /// else (recording, smoke trials, and the baseline audit, where the
    /// row is the baseline).
    pub guard: Option<fn(&Json) -> bool>,
}

impl Invariant {
    pub const fn new(name: &'static str, holds: fn(&Json, &Json) -> bool) -> Self {
        let guard = None;
        Self { name, holds, guard }
    }

    pub const fn when(self, shown: fn(&Json) -> bool) -> Self {
        let guard = Some(shown);
        Self { guard, ..self }
    }
}

/// A banded numeric gate: `median(trials) >= floor * baseline - slack`.
pub struct Band {
    pub name: &'static str,
    pub value: fn(&Json) -> f64,
    /// Relative floor: the fraction of the baseline the median must reach.
    pub floor: f64,
}

/// Where a document keeps some of its rows, and what must hold of them.
pub struct Section {
    /// `Some(key)`: the array of rows under that top-level key. `None`:
    /// the document's own top-level fields, as one row.
    pub at: Option<&'static str>,
    /// The row name of a `None` section. Array rows are named by
    /// their first field — its string, or `key=number` — after this
    /// prefix, which keeps two arrays with the same first fields apart.
    pub name: &'static str,
    pub invariants: &'static [Invariant],
    pub bands: &'static [Band],
}

/// One registered bench.
pub struct Bench {
    /// `BENCH_<name>*.json` / `CHECK_<name>*.json`.
    pub name: &'static str,
    pub flag: &'static str,
    pub in_all: bool,
    pub trials: fn(Mode) -> usize,
    /// The schema of the documents this bench emits in `mode`
    /// (`Mode::Full` is the schema of the checked-in baseline).
    pub sections: fn(Mode) -> &'static [Section],
    /// Build the data once, return the per-trial closure.
    pub setup: fn(&Ctx) -> Trial,
}

/// Every bench `repro` can record or check, in run order.
pub const REGISTRY: [&Bench; 2] = [&crate::cpu_kernel::BENCH, &crate::durability::BENCH];

// ---------------------------------------------------------------------
// One row schema: table line and JSON row from the same column list
// ---------------------------------------------------------------------

/// How a shown column formats its value.
#[derive(Clone, Copy)]
pub enum Cell {
    /// Strings and booleans as they are, numbers without a fraction.
    Plain,
    Fixed1,
    Fixed3,
    /// A ratio, `3.1x`.
    Times,
}

impl Cell {
    fn render(self, value: &Json) -> String {
        let n = value.as_f64().unwrap_or(f64::NAN);
        match (self, value) {
            (Cell::Plain, Json::Str(s)) => s.clone(),
            (Cell::Plain, Json::Bool(b)) => b.to_string(),
            (Cell::Plain, _) => format!("{n:.0}"),
            (Cell::Fixed1, _) => format!("{n:.1}"),
            (Cell::Fixed3, _) => format!("{n:.3}"),
            (Cell::Times, _) => format!("{n:.1}x"),
        }
    }
}

/// One field of a row: its JSON key and value, and — when it also shows
/// in the printed table — its title and cell format.
pub struct Col<R: 'static> {
    pub key: &'static str,
    pub value: fn(&R) -> Json,
    pub show: Option<(&'static str, Cell)>,
}

impl<R> Col<R> {
    /// A field recorded in the JSON row only.
    pub const fn json(key: &'static str, value: fn(&R) -> Json) -> Self {
        let show = None;
        Self { key, value, show }
    }

    /// A field recorded in the JSON row and printed under `title`.
    pub const fn shown(
        key: &'static str,
        title: &'static str,
        cell: Cell,
        value: fn(&R) -> Json,
    ) -> Self {
        let show = Some((title, cell));
        Self { key, value, show }
    }
}

/// A row schema. `id` is the leading field that names each row of an
/// array section, as `(JSON key, title, width)` — names run long, the
/// other columns are as wide as their titles.
pub struct Table<R: 'static> {
    pub id: (&'static str, &'static str, usize),
    pub cols: &'static [Col<R>],
}

impl<R> Table<R> {
    /// Title and width of every printed column, the id first.
    fn shown(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        let (_, title, width) = self.id;
        let cols = self.cols.iter().filter_map(|c| c.show);
        std::iter::once((title, width)).chain(cols.map(|(title, _)| (title, title.len().max(9))))
    }

    fn print(&self, cells: Vec<String>) {
        let widths: Vec<usize> = self.shown().map(|(_, width)| width).collect();
        crate::row(&cells, &widths);
    }

    pub fn header(&self) {
        self.print(self.shown().map(|(title, _)| title.to_string()).collect());
    }

    /// Render `report` once: print its table line, return its JSON row.
    pub fn row(&self, id: impl Into<Json>, report: &R) -> Json {
        let mut fields = Vec::with_capacity(self.cols.len() + 1);
        let id = id.into();
        let mut cells = vec![Cell::Plain.render(&id)];
        fields.push((self.id.0.to_string(), id));
        for col in self.cols {
            let value = (col.value)(report);
            if let Some((_, cell)) = col.show {
                cells.push(cell.render(&value));
            }
            fields.push((col.key.to_string(), value));
        }
        self.print(cells);
        Json::Obj(fields)
    }
}

// ---------------------------------------------------------------------
// Documents: naming, provenance, rows
// ---------------------------------------------------------------------

/// The files one run of bench `name` reads and writes.
pub struct Paths {
    pub bench: PathBuf,
    pub check: PathBuf,
    /// The checked-in full-scale baseline every check compares against.
    pub baseline: PathBuf,
}

/// The one (bench, mode) → file-name rule.
pub fn paths(name: &str, ctx: &Ctx) -> Paths {
    let suffix = match ctx.mode {
        Mode::Full => "",
        Mode::Smoke => "_smoke",
    };
    Paths {
        bench: ctx.dir.join(format!("BENCH_{name}{suffix}.json")),
        check: ctx.dir.join(format!("CHECK_{name}{suffix}.json")),
        baseline: ctx.dir.join(format!("BENCH_{name}.json")),
    }
}

/// The CPUs this process may run on.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Who measured this: backend threads, host CPUs, source revision.
fn provenance() -> Vec<(String, Json)> {
    let threads = CpuBackend::new().capabilities().devices;
    let host = host_parallelism();
    // "unknown" outside a work tree, e.g. an unpacked source artifact
    let revision = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("threads".into(), threads.into()),
        ("host_parallelism".into(), host.into()),
        ("git_revision".into(), revision.into()),
    ]
}

fn document(bench: &Bench, provenance: &[(String, Json)], run: Run) -> Json {
    let own = |fields: Vec<(&'static str, Json)>| fields.into_iter().map(|(k, v)| (k.into(), v));
    let mut fields = vec![("bench".to_string(), bench.name.into())];
    fields.extend(own(run.head));
    fields.extend(provenance.iter().cloned());
    fields.extend(own(run.body));
    Json::Obj(fields)
}

/// Why a full-scale recording to `path` must not happen, if it must
/// not: a checked-in baseline recorded on a host with more CPUs is
/// never replaced. Deleting the file is the only override.
fn downgrade(path: &Path) -> Option<String> {
    let existing = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let theirs = existing.get("host_parallelism").and_then(Json::as_f64)?;
    let ours = host_parallelism();
    ((ours as f64) < theirs).then(|| {
        format!(
            "refusing to downgrade {}: it was recorded with host_parallelism {theirs}, \
             this host has {ours} — delete the file to record here anyway",
            path.display()
        )
    })
}

/// The one writer of `BENCH_*.json`.
fn write_bench(doc: &Json, path: &Path) {
    doc.write_to_file(path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("baseline written to {}", path.display());
}

fn row_name(row: &Json) -> String {
    match row {
        Json::Obj(fields) => match fields.first() {
            Some((_, Json::Str(s))) => s.clone(),
            Some((key, Json::Num(n))) => format!("{key}={n}"),
            _ => panic!("a row's first field must name it: {row:?}"),
        },
        _ => panic!("a row must be an object: {row:?}"),
    }
}

/// The named rows `section` locates in `doc`.
fn rows<'a>(section: &Section, doc: &'a Json) -> Vec<(String, &'a Json)> {
    let Some(key) = section.at else {
        return vec![(section.name.to_string(), doc)];
    };
    match doc.get(key) {
        Some(Json::Arr(items)) => {
            let named = |r| (format!("{}{}", section.name, row_name(r)), r);
            items.iter().map(named).collect()
        }
        _ => panic!("document has no {key:?} section — re-record the baseline"),
    }
}

fn find<'a>(rows: &[(String, &'a Json)], name: &str) -> Option<&'a Json> {
    rows.iter().find(|(n, _)| n == name).map(|&(_, r)| r)
}

/// Each row of `section` in the first document, with the same-named row
/// of every document (trials of one bench emit the same rows).
fn matched<'a>(section: &Section, docs: &'a [Json]) -> Vec<(String, Vec<&'a Json>)> {
    let per_doc: Vec<_> = docs.iter().map(|doc| rows(section, doc)).collect();
    let in_every_doc = |name: &String| -> Vec<&'a Json> {
        let lost = || panic!("a trial lost row {name}");
        let same = per_doc
            .iter()
            .map(|rows| find(rows, name).unwrap_or_else(lost));
        same.collect()
    };
    let first = per_doc[0].iter();
    first
        .map(|(name, _)| (name.clone(), in_every_doc(name)))
        .collect()
}

/// One `(row/invariant, held per document)` for every invariant of
/// `sections` that applies to a row of `docs`, plus `<section>/nonempty`
/// per array section. `reference(section, name, row)` is the row an
/// invariant's guard reads.
fn verdicts<'a>(
    sections: &[Section],
    docs: &'a [Json],
    reference: impl Fn(&Section, &str, &'a Json) -> &'a Json,
) -> Vec<(String, Vec<bool>)> {
    let mut out = Vec::new();
    for section in sections {
        let rows = matched(section, docs);
        if let Some(key) = section.at {
            out.push((
                format!("{key}/nonempty"),
                vec![!rows.is_empty(); docs.len()],
            ));
        }
        for (name, rows) in &rows {
            for invariant in section.invariants {
                let held = rows.iter().zip(docs).map(|(&row, doc)| {
                    let shows = |shown: fn(&Json) -> bool| shown(reference(section, name, row));
                    let applies = invariant.guard.is_none_or(shows);
                    let held = applies.then(|| (invariant.holds)(row, doc));
                    if held == Some(false) {
                        println!("{name} breaks {}: {}", invariant.name, row.render());
                    }
                    held
                });
                let held: Vec<Option<bool>> = held.collect();
                if held.iter().any(Option::is_some) {
                    let held = held.iter().map(|h| h.unwrap_or(true)).collect();
                    out.push((format!("{name}/{}", invariant.name), held));
                }
            }
        }
    }
    out
}

/// The invariant list applied to one document on its own, every row
/// its own reference: `(row/invariant, held)`.
fn audit(sections: &[Section], doc: &Json) -> impl Iterator<Item = (String, bool)> {
    let held = verdicts(sections, std::slice::from_ref(doc), |_, _, row| row);
    held.into_iter().map(|(name, held)| (name, held[0]))
}

/// The baseline audit: the invariant list applied to a checked-in
/// `BENCH_<name>.json`, as `(baseline/<row>/<invariant>, held)`.
pub fn audit_baseline(bench: &Bench, baseline: &Json) -> Vec<(String, bool)> {
    let named = |(name, held)| (format!("baseline/{name}"), held);
    audit((bench.sections)(Mode::Full), baseline)
        .map(named)
        .collect()
}

// ---------------------------------------------------------------------
// The two flows
// ---------------------------------------------------------------------

/// Record or check `bench` as `ctx` asks; `false` for a red check or a
/// refused recording.
pub fn run(bench: &Bench, ctx: &Ctx) -> bool {
    if ctx.checking {
        check(bench, ctx)
    } else {
        record(bench, ctx)
    }
}

/// Run one trial and write `BENCH_<name><mode>.json`. A full-scale
/// recording over a checked-in baseline from a host with more CPUs is
/// refused before any work — `false`, nothing run, nothing written.
/// Panics — writing nothing — when a row breaks an invariant.
pub fn record(bench: &Bench, ctx: &Ctx) -> bool {
    println!("\n=== {} — recording ({:?}) ===", bench.name, ctx.mode);
    let path = paths(bench.name, ctx).bench;
    if let Some(refusal) = downgrade(&path).filter(|_| ctx.mode == Mode::Full) {
        eprintln!("{refusal}");
        return false;
    }
    let doc = document(bench, &provenance(), (bench.setup)(ctx)());
    let broken =
        audit((bench.sections)(ctx.mode), &doc).filter_map(|(name, held)| (!held).then_some(name));
    let broken = broken.collect::<Vec<_>>().join(", ");
    assert!(broken.is_empty(), "{} run broke: {broken}", bench.name);
    write_bench(&doc, &path);
    true
}

/// Run the mode's trials against the checked-in baseline and write
/// `CHECK_<name><mode>.json`: one indicator gate per (row, invariant),
/// one banded gate per (row, band). A smoke check also audits the
/// baseline itself and leaves its first trial as `BENCH_<name>_smoke.json`.
pub fn check(bench: &Bench, ctx: &Ctx) -> bool {
    let paths = paths(bench.name, ctx);
    let trials = (bench.trials)(ctx.mode);
    let full = ctx.mode == Mode::Full;
    println!(
        "\n=== {} — check ({:?}): {trials} trial(s) vs checked-in {} ===",
        bench.name,
        ctx.mode,
        paths.baseline.display()
    );
    let baseline = check::load_baseline(&paths.baseline);
    let provenance = provenance();
    let mut trial = (bench.setup)(ctx);
    let mut docs = Vec::new();
    for t in 1..=trials {
        println!("trial {t}/{trials} ...");
        docs.push(document(bench, &provenance, trial()));
    }

    // a full-scale row must have its baseline counterpart; the smoke's
    // own rows (a different workload) need none unless a band reads it
    let sections = (bench.sections)(ctx.mode);
    let base_row = |section: &Section, name: &str| {
        find(&rows(section, &baseline), name)
            .unwrap_or_else(|| panic!("baseline has no row {name} — re-record it"))
    };
    let held = verdicts(sections, &docs, |section, name, row| {
        if full {
            base_row(section, name)
        } else {
            row
        }
    });
    let every_trial_held = held.iter().all(|(_, held)| held.iter().all(|&h| h));
    let mut gates: Vec<GateRow> = held
        .into_iter()
        .map(|(name, held)| check::indicator(name, &held))
        .collect();
    for section in sections.iter().filter(|s| !s.bands.is_empty()) {
        for (name, fresh) in matched(section, &docs) {
            let base = base_row(section, &name);
            gates.extend(section.bands.iter().map(|band| GateRow {
                name: format!("{name}/{}", band.name),
                baseline: (band.value)(base),
                trials: fresh.iter().map(|row| (band.value)(row)).collect(),
                floor: band.floor,
            }));
        }
    }
    if !full {
        let audit = audit_baseline(bench, &baseline);
        gates.extend(
            audit
                .into_iter()
                .map(|(name, held)| check::indicator(name, &[held])),
        );
        write_bench(&docs[0], &paths.bench);
    }

    let verdicts: Vec<_> = gates.into_iter().map(check::judge).collect();
    check::report(&verdicts, &paths.check) && every_trial_held
}

// ---------------------------------------------------------------------
// The `repro` command line
// ---------------------------------------------------------------------

/// A parsed `repro` invocation: the flags given, all of them known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    flags: Vec<String>,
}

impl Invocation {
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The paper experiments' dataset scale.
    pub fn scale(&self) -> Scale {
        let mut scale = Scale::default();
        if self.has("--quick") {
            scale.n = 2_000;
        }
        scale
    }

    /// What `bench` should do under this invocation, if selected.
    /// `--smoke` and `--quick` both mean the CI-sized run.
    pub fn ctx_for(&self, bench: &Bench) -> Option<Ctx> {
        let selected = self.has(bench.flag) || (self.has("--all") && bench.in_all);
        let smoke = self.has("--smoke") || self.has("--quick");
        selected.then(|| Ctx {
            mode: if smoke { Mode::Smoke } else { Mode::Full },
            checking: self.has("--check"),
            dir: PathBuf::new(),
        })
    }
}

/// The usage line, generated from the experiment table and the registry.
pub fn usage() -> String {
    let mut out = String::from("usage: repro [--quick] [--all]");
    for (flags, _) in crate::experiments::ALL {
        out.push_str(&format!(" [{}]", flags[0]));
    }
    for bench in REGISTRY {
        out.push_str(&format!(" [{}]", bench.flag));
    }
    out + " [--smoke] [--check]"
}

/// Parse `repro`'s arguments. An unknown flag is an error, not a no-op:
/// a typo in CI must not silently drop the gate it meant to run.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let experiments = crate::experiments::ALL
        .iter()
        .flat_map(|(flags, _)| flags.iter().copied());
    let selecting: Vec<&str> = experiments.chain(REGISTRY.iter().map(|b| b.flag)).collect();
    let mut invocation = Invocation { flags: Vec::new() };
    for arg in args {
        match arg.as_str() {
            "--quick" | "--smoke" | "--check" | "--all" => invocation.flags.push(arg.clone()),
            flag if selecting.contains(&flag) => invocation.flags.push(arg.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !invocation.has("--all")
        && !invocation
            .flags
            .iter()
            .any(|f| selecting.contains(&f.as_str()))
    {
        return Err("nothing selected".into());
    }
    Ok(invocation)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        replies: u64,
        speedup: f64,
    }

    const FAKE_ROWS: Table<Fake> = Table {
        id: ("name", "row", 8),
        cols: &[
            Col::shown("replies", "replies", Cell::Plain, |r| r.replies.into()),
            Col::json("speedup", |r| r.speedup.into()),
        ],
    };

    /// One trial of the fake bench: rows `a` and `b` of 4 requests each,
    /// `a` answering `a_replies` of them.
    fn trial(a_replies: u64) -> Trial {
        Box::new(move || {
            let a = Fake {
                replies: a_replies,
                speedup: 2.0,
            };
            let b = Fake {
                replies: 4,
                speedup: 0.9,
            };
            let rows = vec![FAKE_ROWS.row("a", &a), FAKE_ROWS.row("b", &b)];
            Run {
                head: vec![("requests", 4u64.into())],
                body: vec![("rows", rows.into())],
            }
        })
    }

    const FAKE_SECTIONS: &[Section] = &[Section {
        at: Some("rows"),
        name: "",
        invariants: &[
            Invariant::new("all_replies", |row, doc| {
                check::field(row, "replies") == check::field(doc, "requests")
            }),
            Invariant::new("speeds_up", |row, _| check::field(row, "speedup") > 1.0)
                .when(|shown| check::field(shown, "speedup") > 1.0),
        ],
        bands: &[Band {
            name: "speedup",
            value: |row| check::field(row, "speedup"),
            floor: 0.5,
        }],
    }];

    const fn fake(setup: fn(&Ctx) -> Trial) -> Bench {
        Bench {
            name: "fake",
            flag: "--fake",
            in_all: false,
            trials: |_| 2,
            sections: |_| FAKE_SECTIONS,
            setup,
        }
    }
    const HEALTHY: Bench = fake(|_| trial(4));
    /// Row `a` loses a reply.
    const LOSSY: Bench = fake(|_| trial(3));

    fn ctx(tag: &str, mode: Mode) -> Ctx {
        let dir = std::env::temp_dir().join(format!("genie-harness-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Ctx {
            mode,
            checking: false,
            dir,
        }
    }

    fn gate<'a>(report: &'a Json, name: &str) -> Option<&'a Json> {
        let gates = report.get("gates").and_then(Json::as_arr).unwrap();
        gates
            .iter()
            .find(|g| g.get("name").and_then(Json::as_str) == Some(name))
    }

    #[test]
    fn record_writes_header_provenance_and_rows_under_the_modes_path() {
        let ctx = ctx("record", Mode::Smoke);
        record(&HEALTHY, &ctx);
        let doc = check::load_baseline(&ctx.dir.join("BENCH_fake_smoke.json"));
        let keys: Vec<&str> = match &doc {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            [
                "bench",
                "requests",
                "threads",
                "host_parallelism",
                "git_revision",
                "rows"
            ]
        );
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("fake"));
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(check::field(&rows[1], "replies"), 4.0);
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn a_broken_invariant_fails_record_naming_the_row_and_writes_nothing() {
        let ctx = ctx("broken-record", Mode::Full);
        let dir = ctx.dir.clone();
        let failure = std::panic::catch_unwind(move || record(&LOSSY, &ctx));
        let message = *failure.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("a/all_replies"), "{message}");
        assert!(!dir.join("BENCH_fake.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_gates_each_invariant_per_row_and_skips_guarded_ones() {
        let mut ctx = ctx("check", Mode::Full);
        record(&HEALTHY, &ctx);
        ctx.checking = true;

        assert!(check(&HEALTHY, &ctx));
        let report = check::load_baseline(&ctx.dir.join("CHECK_fake.json"));
        assert_eq!(report.get("check").and_then(Json::as_str), Some("fake"));
        for name in ["a/all_replies", "b/all_replies", "a/speeds_up", "a/speedup"] {
            assert_eq!(
                gate(&report, name).and_then(|g| g.get("pass")),
                Some(&Json::Bool(true)),
                "{name}"
            );
        }
        // the baseline's row `b` does not speed up: the guard skips it
        assert!(gate(&report, "b/speeds_up").is_none());
        assert_eq!(
            check::field(gate(&report, "a/all_replies").unwrap(), "baseline"),
            1.0
        );

        // the same baseline, a run that loses a reply on row `a`
        assert!(!check(&LOSSY, &ctx));
        let report = check::load_baseline(&ctx.dir.join("CHECK_fake.json"));
        assert_eq!(report.get("pass"), Some(&Json::Bool(false)));
        let red = gate(&report, "a/all_replies").unwrap();
        assert_eq!(red.get("pass"), Some(&Json::Bool(false)));
        assert_eq!(
            gate(&report, "b/all_replies").unwrap().get("pass"),
            Some(&Json::Bool(true))
        );
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn smoke_check_audits_the_baseline_and_leaves_the_smoke_document() {
        let mut ctx = ctx("smoke-check", Mode::Full);
        record(&HEALTHY, &ctx);
        ctx.mode = Mode::Smoke;
        ctx.checking = true;
        assert!(check(&HEALTHY, &ctx));
        assert!(ctx.dir.join("BENCH_fake_smoke.json").exists());
        let report = check::load_baseline(&ctx.dir.join("CHECK_fake_smoke.json"));
        for name in [
            "baseline/rows/nonempty",
            "baseline/a/all_replies",
            "baseline/a/speeds_up",
        ] {
            assert!(gate(&report, name).is_some(), "{name}");
        }
        // guarded on the row itself in an audit: `b` never claims it
        assert!(gate(&report, "baseline/b/speeds_up").is_none());

        // a hand-mangled baseline goes red in the audit
        let mangled = std::fs::read_to_string(ctx.dir.join("BENCH_fake.json")).unwrap();
        let mangled = mangled.replacen("\"replies\": 4", "\"replies\": 1", 1);
        std::fs::write(ctx.dir.join("BENCH_fake.json"), mangled).unwrap();
        assert!(!check(&HEALTHY, &ctx));
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn recording_over_a_baseline_from_a_larger_host_is_refused() {
        let ctx = ctx("downgrade", Mode::Full);
        record(&HEALTHY, &ctx);
        let path = ctx.dir.join("BENCH_fake.json");
        let ours = check::field(&check::load_baseline(&path), "host_parallelism");
        let larger = std::fs::read_to_string(&path).unwrap().replacen(
            &format!("\"host_parallelism\": {ours}"),
            "\"host_parallelism\": 4096",
            1,
        );
        std::fs::write(&path, &larger).unwrap();

        // refused before the bench is even set up, both values named
        const NEVER_RUN: Bench = fake(|_| panic!("a refused recording must not run"));
        assert!(!record(&NEVER_RUN, &ctx));
        let refusal = downgrade(&path).unwrap();
        assert!(
            refusal.contains("4096") && refusal.contains(&format!("has {ours}")),
            "{refusal}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), larger);

        // only the checked-in baseline is protected, and deleting it is
        // the override
        let smoke = Ctx {
            mode: Mode::Smoke,
            ..ctx.clone()
        };
        std::fs::write(ctx.dir.join("BENCH_fake_smoke.json"), &larger).unwrap();
        assert!(record(&HEALTHY, &smoke));
        std::fs::remove_file(&path).unwrap();
        assert!(record(&HEALTHY, &ctx));
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }

    /// Every checked-in `BENCH_<name>.json` loads under the harness and
    /// satisfies its bench's invariants — JSON reads only, no workload.
    #[test]
    fn every_checked_in_baseline_passes_its_audit() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for bench in REGISTRY {
            let baseline = check::load_baseline(&root.join(format!("BENCH_{}.json", bench.name)));
            let audit = audit_baseline(bench, &baseline);
            assert!(audit.len() > 1, "{}: nothing audited", bench.name);
            for (i, (name, held)) in audit.iter().enumerate() {
                assert!(held, "BENCH_{}.json fails {name}", bench.name);
                let twice = audit[..i].iter().any(|(earlier, _)| earlier == name);
                assert!(!twice, "{}: two gates named {name}", bench.name);
            }
        }
    }

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn every_documented_flag_parses() {
        let usage = usage();
        let documented: Vec<&str> = usage
            .split([' ', '[', ']'])
            .filter(|word| word.starts_with("--"))
            .collect();
        assert!(documented.contains(&"--durability") && documented.contains(&"--fig9"));
        for flag in documented {
            let invocation = parse(&["--all", flag]).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert!(invocation.has(flag));
        }
        // the undocumented aliases of the merged tables stay accepted
        assert!(parse(&["--table3"]).is_ok() && parse(&["--table7"]).is_ok());
    }

    #[test]
    fn unknown_and_retired_flags_are_rejected() {
        assert!(parse(&["--durabilty", "--smoke", "--check"]).is_err());
        assert!(parse(&["--durability", "extra"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--quick", "--check"]).is_err(), "nothing selected");
        // the retired benches' flags: `benchmark/` measures what the
        // serving ones did; `--placement` measured the deleted adaptive
        // placement loop
        for retired in [
            "--serving",
            "--net",
            "--mutations",
            "--serving-smoke",
            "--shards",
            "--placement",
        ] {
            assert_eq!(
                parse(&["--cpu-kernel", retired]).unwrap_err(),
                format!("unknown argument {retired:?}")
            );
        }
        assert!(parse(&["--cpu-kernel", "--shards", "2"]).is_err());
    }

    #[test]
    fn smoke_and_quick_select_smoke_mode_for_every_bench() {
        let mode_of = |args: &[&str], bench: &Bench| {
            let invocation = parse(args).unwrap();
            invocation.ctx_for(bench).map(|ctx| ctx.mode)
        };
        for bench in REGISTRY {
            // --all is the paper experiments plus the cpu-kernel sweep
            let covered = bench.flag == "--cpu-kernel";
            assert_eq!(mode_of(&["--all"], bench).is_some(), covered);
            assert_eq!(mode_of(&[bench.flag], bench), Some(Mode::Full));
            assert_eq!(mode_of(&[bench.flag, "--check"], bench), Some(Mode::Full));
            for small in ["--smoke", "--quick"] {
                assert_eq!(mode_of(&[bench.flag, small], bench), Some(Mode::Smoke));
                let checked = mode_of(&[bench.flag, small, "--check"], bench);
                assert_eq!(checked, Some(Mode::Smoke));
            }
        }
    }
}

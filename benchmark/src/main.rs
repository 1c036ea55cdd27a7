//! genie-benchmark — the one benchmark for the whole stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --all --seed 1
//! ```
//!
//! runs the four workloads, each in a fresh child process, untraced
//! (end-to-end metrics) and then traced (per-layer metrics, the span
//! trace, the ladder), audits every answer it samples against a
//! brute-force model and writes `benchmark/out/result.json`. See
//! `benchmark/README.md`.

mod gen;
mod json;
mod ladder;
mod load;
mod model;
mod provenance;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use workloads::RunOpts;

/// A workload that has not finished by then has hung: it is killed (or
/// kills itself) and counts as failed.
const CEILING: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: genie-benchmark
  --workload <name> --seed <u64> --seconds <n> --trace <0|1>   one run, result JSON on the last line
  --all [--seed <u64>] [--seconds <n>]                         every workload, untraced then traced
  --repeat <n> [--seed <u64>] [--seconds <n>]                  n untraced sets, spread against each bound
  --print-benchmark-json                                       BENCHMARK.json from the spec tables
workloads: wire_point_open wire_scan_pipelined wire_mixed_durable batch_domains";

enum Mode {
    One { workload: String, trace: bool },
    All,
    Repeat(usize),
    PrintSpec,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = None;
    let mut all = false;
    let mut repeat = None;
    let mut print_spec = false;
    let mut seed = None;
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = Some(
                    value("a u64")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("a number")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--all" => all = true,
            "--repeat" => {
                let n = value("a count")?
                    .parse::<usize>()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 sets to have a spread".into());
                }
                repeat = Some(n);
            }
            "--print-benchmark-json" => print_spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = match (workload, all, repeat, print_spec) {
        (Some(workload), false, None, false) => {
            if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
                return Err(format!("unknown workload {workload:?}"));
            }
            Mode::One {
                workload,
                trace: trace.ok_or("--workload needs --trace 0 or --trace 1")?,
            }
        }
        (None, true, None, false) => Mode::All,
        (None, false, Some(n), false) => Mode::Repeat(n),
        (None, false, None, true) => Mode::PrintSpec,
        _ => {
            return Err(
                "pick exactly one of --workload, --all, --repeat, --print-benchmark-json".into(),
            )
        }
    };
    if trace.is_some() && !matches!(mode, Mode::One { .. }) {
        return Err("--trace goes with --workload".into());
    }
    Ok(Args {
        mode,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(spec::RUN_SECONDS as f64),
    })
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Remove the temp data directories process `pid` left under
/// `out/tmp` (their names carry the pid): what a run that is cut short
/// cannot do for itself.
fn remove_temp_dirs_of(pid: u32) {
    let marker = format!("-{pid}-");
    let tmp = out_dir().join("tmp");
    for entry in std::fs::read_dir(tmp).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().contains(&marker) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// One run in this process: the driver's entry point, and what the
/// children of `--all` and `--repeat` execute.
fn run_one(workload: &str, trace: bool, args: &Args) -> ExitCode {
    // a hang is a failed workload, not a hung benchmark
    std::thread::spawn(|| {
        std::thread::sleep(CEILING);
        eprintln!("genie-benchmark: no result after {CEILING:?}, giving up");
        remove_temp_dirs_of(std::process::id());
        std::process::exit(3);
    });

    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("genie-benchmark: cannot create {:?}: {e}", opts.out_dir);
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let mut outcome = match workloads::run(workload, &opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("genie-benchmark: {workload} did not run: {e}");
            return ExitCode::from(2);
        }
    };
    let mut metrics: Vec<(&'static str, f64)> = outcome.metrics.iter().collect();
    for (name, value) in &mut metrics {
        if !value.is_finite() {
            outcome.failed += 1;
            outcome
                .failures
                .push(format!("{name} is not a finite number"));
            *value = 0.0;
        }
    }
    let correct = outcome.failed == 0;

    println!(
        "{workload} seed {} seconds {} trace {}: {} operations attempted, {} failed, {:.1} s wall",
        args.seed,
        args.seconds,
        u8::from(trace),
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    for (name, value) in &metrics {
        println!("  {name:<44} {value:>16.4} {}", unit_of(name));
    }
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::count(outcome.attempted)),
        ("failed", Json::count(outcome.failed)),
        ("metrics", metrics_json),
    ]);
    let file = Json::obj(vec![
        ("workload", Json::str(workload)),
        ("traced", Json::Bool(trace)),
        ("claim", Json::Null),
        ("result", result.clone()),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        (
            "definitions",
            Json::Obj(
                metrics
                    .iter()
                    .filter_map(|(name, _)| Some((name.to_string(), spec::definition(name)?)))
                    .collect(),
            ),
        ),
        ("detail", outcome.detail),
        ("config", workloads::config_json()),
        (
            "provenance",
            provenance::provenance(args.seed, args.seconds),
        ),
    ]);
    let path = opts
        .out_dir
        .join(format!("result-{workload}-trace{}.json", u8::from(trace)));
    if let Err(e) = std::fs::write(&path, file.pretty()) {
        eprintln!("genie-benchmark: cannot write {path:?}: {e}");
        return ExitCode::from(2);
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// What the parent keeps of one child run.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Run one workload in a fresh child process (so set-up time and peak
/// memory are its own), echo its report, and read its metrics back from
/// the `  <name> <value> <unit>` lines.
fn run_child(workload: &str, trace: bool, seed: u64, seconds: f64) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    // drain the pipe while the child runs, so a long report can never
    // fill it and block the child
    let mut pipe = child.stdout.take()?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut pipe, &mut text).map(|_| text)
    });
    // the child's own watchdog fires at CEILING; this is the backstop
    let deadline = Instant::now() + CEILING + Duration::from_secs(10);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(100)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                remove_temp_dirs_of(child.id());
                eprintln!("genie-benchmark: {workload} hung and was killed");
                return None;
            }
        }
    };
    let stdout = reader.join().ok()?.ok()?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop()?;
    lines.iter().for_each(|l| println!("{l}"));
    if !status.success() {
        eprintln!("genie-benchmark: {workload} exited with {status}");
        return None;
    }
    let metrics = lines
        .iter()
        .filter_map(|l| {
            let mut words = l.strip_prefix("  ")?.split_whitespace();
            let name = words.next()?;
            let value = words.next()?.parse::<f64>().ok()?;
            // only lines that name a metric of the spec tables
            (!unit_of(name).is_empty()).then(|| (name.to_owned(), value))
        })
        .collect();
    Some(ChildResult {
        correct: last.starts_with("{\"correct\":true,"),
        metrics,
    })
}

/// `--all`: every workload, untraced then traced, and one result file.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut sections = Vec::new();
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            match run_child(w.name, trace, args.seed, args.seconds) {
                Some(child) => ok &= child.correct,
                None => ok = false,
            }
            let path = out_dir().join(format!("result-{}-trace{}.json", w.name, u8::from(trace)));
            if let Ok(text) = std::fs::read_to_string(&path) {
                sections.push(text.trim_end().to_owned());
            }
        }
    }
    // the children's files are JSON already: splice them
    let combined = format!("[\n{}\n]\n", sections.join(",\n"));
    let path = out_dir().join("result.json");
    if let Err(e) = std::fs::write(&path, combined) {
        eprintln!("genie-benchmark: cannot write {path:?}: {e}");
        ok = false;
    }
    println!(
        "{}: results in {}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED"
        },
        path.display()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: N untraced sets with seeds `seed..seed+N`, then each
/// end-to-end metric's min / median / max and its spread (quartile
/// distance over median, the driver's statistic) against its bound.
/// `setup_s` is reported but not judged, as in the driver.
fn run_repeat(n: usize, args: &Args) -> ExitCode {
    let mut ok = true;
    let mut table: Vec<(String, &spec::EndToEnd, Vec<f64>)> = Vec::new();
    for w in &spec::WORKLOADS {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for i in 0..n {
            match run_child(w.name, false, args.seed + i as u64, args.seconds) {
                Some(child) => {
                    ok &= child.correct;
                    runs.push(child.metrics);
                }
                None => ok = false,
            }
        }
        for m in &spec::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(name, _)| name == m.name).map(|(_, v)| *v))
                .collect();
            table.push((w.name.to_owned(), m, values));
        }
    }
    println!(
        "\n{:<22} {:<16} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (workload, m, values) in &table {
        if values.len() < 2 {
            println!("{workload:<22} {:<16} too few runs", m.name);
            ok = false;
            continue;
        }
        let sorted = stats::sort(values.clone());
        let spread = stats::quartile_spread(values);
        let judged = m.name != "setup_s";
        let verdict = match (judged, spread <= m.bound) {
            (false, _) => "(not judged)",
            (true, true) => "",
            (true, false) => "EXCEEDS BOUND",
        };
        ok &= !judged || spread <= m.bound;
        println!(
            "{workload:<22} {:<16} {:>12.3} {:>12.3} {:>12.3} {:>8.4} {:>7.2} {verdict}",
            m.name,
            sorted[0],
            stats::median(values),
            sorted[sorted.len() - 1],
            spread,
            m.bound,
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: a workload failed or a spread exceeds its bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("genie-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.mode {
        Mode::One { workload, trace } => run_one(workload, *trace, &args),
        Mode::All => run_all(&args),
        Mode::Repeat(n) => run_repeat(*n, &args),
        Mode::PrintSpec => {
            print!("{}", spec::benchmark_json().pretty());
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_args(&argv(
            "--workload wire_point_open --seed 9 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert!(
            matches!(args.mode, Mode::One { ref workload, trace: true } if workload == "wire_point_open")
        );
        assert_eq!((args.seed, args.seconds), (9, 20.0));
        let args = parse_args(&argv("--all")).unwrap();
        assert!(matches!(args.mode, Mode::All));
        assert_eq!(args.seconds, spec::RUN_SECONDS as f64);
        assert!(matches!(
            parse_args(&argv("--repeat 5 --seed 3")).unwrap().mode,
            Mode::Repeat(5)
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload batch_domains --seed 1 --seconds 5",
            "--workload batch_domains --seed 1 --seconds 5 --trace 2",
            "--all --trace 1",
            "--all --repeat 3",
            "--repeat 1",
            "--seconds 0 --all",
            "--seconds 61 --all",
            "--seed minus --all",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}

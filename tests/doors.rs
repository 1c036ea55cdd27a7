//! The two binaries, end to end: every surviving `genie-cli` mode, the
//! one listener `genie-server`, and the retired modes and flags.
//!
//! One door per job: `genie-server` serves, `genie-cli` asks
//! (`net-query`, `store-fsck`) or searches a file offline (`docs`,
//! `fuzzy`), and load comes from `benchmark/`. `genie-cli serve` /
//! `net-serve` and their seven flags are gone and must stay usage
//! errors, not aliases; so is `--backend multi` (several devices are a
//! sharded collection on a fleet, reached through the library).

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};

const CLI: &str = env!("CARGO_BIN_EXE_genie-cli");
const SERVER: &str = env!("CARGO_BIN_EXE_genie-server");

/// A fresh directory holding the three-line sample corpus.
fn scratch(test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("genie-doors-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let corpus = dir.join("corpus.txt");
    std::fs::write(&corpus, "alpha beta gamma\nalpha delta\nepsilon zeta\n").expect("corpus");
    (dir, corpus)
}

fn cli(args: &[&str]) -> Output {
    Command::new(CLI)
        .args(args)
        .output()
        .expect("genie-cli runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_usage(args: &[&str]) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(
        stderr.starts_with("usage:"),
        "{args:?} must print the usage: {stderr}"
    );
}

/// The bracketed numbers of the result lines, e.g. `[2 shared]` → 2.
fn bracketed(text: &str, unit_before: &str, unit_after: &str) -> Vec<u32> {
    text.lines()
        .filter_map(|l| l.trim().strip_prefix('[')?.split_once(']'))
        .filter_map(|(inner, _)| {
            inner
                .strip_prefix(unit_before)?
                .strip_suffix(unit_after)?
                .trim()
                .parse()
                .ok()
        })
        .collect()
}

/// Spawn the server on port 0 and read its address off the banner.
fn spawn_server(
    corpus: &Path,
    extra: &[&str],
    stdin: Stdio,
) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(SERVER)
        .arg(corpus)
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdin(stdin)
        .stdout(Stdio::piped())
        .spawn()
        .expect("genie-server spawns");
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = out.read_line(&mut line).expect("server stdout readable");
        assert!(n > 0, "genie-server exited before its serving banner");
        if line.starts_with("serving ") {
            let addr = line.split(" on ").nth(1).expect("banner names the address");
            break addr.split_whitespace().next().expect("address").to_string();
        }
    };
    (child, out, addr)
}

#[test]
fn retired_modes_and_flags_and_bad_arguments_exit_2() {
    let (dir, corpus) = scratch("usage");
    let c = corpus.to_str().unwrap();
    assert_usage(&["serve", c]);
    assert_usage(&["net-serve", c]);
    for (flag, value) in [
        ("--domain", "docs"),
        ("--clients", "2"),
        ("--requests", "2"),
        ("--delay-ms", "0"),
        ("--shards", "2"),
        ("--mutate", "1"),
        ("--listen", "127.0.0.1:0"),
    ] {
        assert_usage(&["docs", c, "--query", "alpha", flag, value]);
    }
    assert_usage(&["fuzzy", c, "--query", "alpha", "-n", "0"]);
    assert_usage(&["docs", c, "--query", "alpha", "-k", "many"]);
    assert_usage(&["docs", c]);
    assert_usage(&["docs", c, "--query", "x", "--backend", "multi"]);

    let missing = dir.join("no-such-file.txt");
    let out = cli(&["docs", missing.to_str().unwrap(), "--query", "alpha"]);
    assert_eq!(out.status.code(), Some(1), "an unreadable corpus exits 1");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn docs_and_fuzzy_answer_on_every_backend() {
    let (dir, corpus) = scratch("offline");
    let c = corpus.to_str().unwrap();
    for backend in ["sim", "cpu"] {
        let out = cli(&[
            "docs",
            c,
            "--query",
            "alpha beta",
            "-k",
            "2",
            "--backend",
            backend,
        ]);
        assert!(out.status.success(), "docs --backend {backend} failed");
        // counts, not lines: objects tied at the k-th count may differ
        assert_eq!(
            bracketed(&stdout(&out), "", "shared"),
            [2, 1],
            "docs --backend {backend}: {}",
            stdout(&out)
        );
    }
    let out = cli(&["fuzzy", c, "--query", "alpha beta gamma", "-k", "1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("provably exact: true"), "{text}");
    assert_eq!(bracketed(&text, "ed", ""), [0], "{text}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn server_answers_net_query_checkpoints_at_eof_and_passes_fsck() {
    let (dir, corpus) = scratch("durable");
    let data = dir.join("data");
    let (mut server, mut banner, addr) = spawn_server(
        &corpus,
        &["--data-dir", data.to_str().unwrap()],
        Stdio::piped(),
    );

    let out = cli(&["net-query", &addr, "--query", "alpha beta", "-k", "2"]);
    assert!(out.status.success(), "net-query failed: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("[2 shared] object 0"), "{text}");
    assert!(text.contains("[1 shared] object 1"), "{text}");

    let out = cli(&["net-query", &addr, "--stats"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("service: 1 served / 1 waves"), "{text}");
    assert!(text.contains("learned fleet cost model:"), "{text}");
    assert!(text.contains("backend 0/cpu:"), "{text}");

    // closing the pipe is the graceful stop
    drop(server.stdin.take());
    let mut rest = String::new();
    banner
        .read_to_string(&mut rest)
        .expect("drain report readable");
    assert_eq!(
        server.wait().expect("server exits").code(),
        Some(0),
        "{rest}"
    );
    assert!(rest.contains("checkpointed data dir"), "{rest}");

    let out = cli(&["store-fsck", data.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("verdict: healthy"),
        "{}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `</dev/null` is at EOF from the first read: it is no control
/// channel, and the server must keep serving until killed.
#[cfg(unix)]
#[test]
fn server_with_null_stdin_serves_until_killed() {
    let (dir, corpus) = scratch("unattended");
    let (mut server, _banner, addr) = spawn_server(&corpus, &[], Stdio::null());
    std::thread::sleep(std::time::Duration::from_millis(300));
    let out = cli(&["net-query", &addr, "--query", "alpha beta", "-k", "2"]);
    let still_running = server.try_wait().expect("child status").is_none();
    server.kill().expect("kill");
    server.wait().expect("reaped");
    assert!(
        still_running,
        "server exited on its own with a /dev/null stdin"
    );
    assert!(out.status.success(), "no answer 300 ms after start");
    assert_eq!(bracketed(&stdout(&out), "", "shared"), [2, 1]);
    let _ = std::fs::remove_dir_all(dir);
}

//! Where and on what a result was measured. Written into every result
//! file, so numbers from different hosts or revisions are never
//! compared by accident.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// Cores the kernel reports online (`nproc`).
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Filesystem type of the mount that holds `path`, from
/// `/proc/self/mountinfo` (longest mount point that prefixes it).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "... <mount point> <options> [optional fields] - <fs type> ..."
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            let fs = tail.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

pub fn provenance(seed: u64, seconds: f64) -> Json {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unknown = || "unknown".to_owned();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let nproc = online_cpus();
    Json::obj(vec![
        (
            "git_revision",
            Json::str(
                command_line("git", &["rev-parse", "HEAD"], manifest_dir).unwrap_or_else(unknown),
            ),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"], manifest_dir).unwrap_or_else(unknown)),
        ),
        ("nproc", Json::count(nproc as u64)),
        ("available_parallelism", Json::count(parallelism as u64)),
        // server and load generator share this process: below two
        // cores they time each other
        ("undersized_host", Json::Bool(parallelism < 2)),
        ("seed", Json::count(seed)),
        ("seconds", Json::num(seconds)),
        (
            "out_dir_fs_type",
            Json::str(fs_type(&manifest_dir.join("out"))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_type_finds_the_mount_of_an_existing_path() {
        let fs = fs_type(Path::new("/proc/self"));
        assert_eq!(fs, "proc");
        assert_ne!(fs_type(Path::new(env!("CARGO_MANIFEST_DIR"))), "");
    }

    #[test]
    fn provenance_names_the_host() {
        let Json::Obj(pairs) = provenance(7, 20.0) else {
            panic!("provenance is an object")
        };
        let get = |k: &str| {
            pairs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("seed"), Some(Json::count(7)));
        assert!(matches!(get("available_parallelism"), Some(Json::Num(n)) if n >= 1.0));
        assert!(matches!(get("rustc"), Some(Json::Str(_))));
    }
}

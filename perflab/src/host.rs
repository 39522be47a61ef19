//! Where a result was measured: recorded in every result file so two
//! sets are only ever compared knowingly.

use std::process::Command;

use crate::json::Json;

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Threads the harness may run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Host metadata. The git fields are `unknown` outside a git checkout.
pub fn metadata() -> Json {
    let unknown = || "unknown".to_string();
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = first_line_of("git", &["-C", repo, "rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .map(|_| first_line_of("git", &["-C", repo, "status", "--porcelain"]).is_some());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpu",
            Json::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "kernel",
            Json::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        ),
        (
            "rustc",
            Json::Str(first_line_of("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("git_commit", Json::Str(commit.unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
    ])
}

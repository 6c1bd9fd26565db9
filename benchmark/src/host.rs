//! What the numbers were measured on: every result is stamped with it.

use crate::json::quote;
use std::process::Command;

/// Peak resident set size of this process so far, in megabytes (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` does not exist or lacks the field; the
/// metric has no meaning there.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kb / 1e3
}

/// First line of a command's output, or `unknown` if it cannot be run (a
/// checkout that is not a git repository has no commit to report).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp as a JSON object. Every timing depends on
/// `available_parallelism`: the launcher spawns that many threads per launch.
pub fn stamp(seed: u64, seconds: u64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let nproc: u64 = first_line("nproc", &[]).parse().unwrap_or(0);
    format!(
        "{{\"commit\": {}, \"rustc\": {}, \"nproc\": {nproc}, \
         \"available_parallelism\": {parallelism}, \"seed\": {seed}, \"seconds\": {seconds}}}",
        quote(&first_line("git", &["rev-parse", "HEAD"])),
        quote(&first_line("rustc", &["--version"])),
    )
}

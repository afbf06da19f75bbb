//! The run stamp: what a result was measured on and with.

use crate::json::quote;

/// The commit of the checkout, read from `.git` in the working directory
/// when there is one (never from a parent directory).
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None => head.to_string(),
    }
}

fn clocksource() -> String {
    std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Host and build fields of the stamp.
pub fn host() -> Vec<(String, String)> {
    vec![
        ("git_rev".into(), quote(&git_rev())),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("clocksource".into(), quote(&clocksource())),
        ("rustc".into(), quote(env!("SERVEBENCH_RUSTC"))),
    ]
}

/// The host's CPU counters, `(steal, total)` in ticks, from the first line
/// of `/proc/stat`; zeros where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the hypervisor gave to others between two
/// [`cpu_ticks`] readings: a run measured under heavy steal is noisy.
pub fn steal_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

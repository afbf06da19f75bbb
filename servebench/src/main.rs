//! The served-path benchmark: stands up the KOSR fleet, drives one named
//! workload against its HTTP edge from this process, checks every answer
//! and prints the metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload route_cold --seed 1 --seconds 6 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! measured phase, then the layer ladder, and prints the per-layer ones.

mod client;
mod drive;
mod fleet;
mod inputs;
mod json;
mod ladder;
mod stamp;
mod stats;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{Inputs, Workload, HOT_RATE, LIVE_READS_PER_UPDATE};
use json::{num, object, quote};
use stats::{after_warmup, blocked_tail, median, Outcome, Samples, Tally};

const USAGE: &str =
    "usage: servebench --workload <route_cold|route_hot|live_updates> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the span dump goes: the build directory, which is never
/// committed.
fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("servebench/target"), PathBuf::from);
    dir.join("servebench-traces")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}

struct Report {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
    stamp: Vec<(String, String)>,
    table: Vec<String>,
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed, args.seconds);
    let mut tally = Tally::default();
    let mut stamp = vec![
        ("workload".to_string(), quote(w.name())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
    ];
    stamp.extend(stamp::host());
    stamp.extend(fleet::resolved_config());
    stamp.extend(inputs.describe());
    let determinism = inputs.determinism_check(args.seed, args.seconds);
    tally.add(&if determinism.is_ok() {
        Outcome::Ok
    } else {
        Outcome::Mismatch
    });
    stamp.push((
        "determinism".into(),
        quote(
            &determinism
                .err()
                .unwrap_or_else(|| "same seed same inputs, next seed different".into()),
        ),
    ));

    // Set up (several times for set-up time, keeping the last fleet),
    // measure, read memory, then check answers.
    let repeats = if args.trace { 1 } else { w.setup_repeats() };
    let mut setups = Vec::with_capacity(repeats);
    let mut fleet = None;
    for _ in 0..repeats {
        drop(fleet.take());
        let (f, seconds) =
            fleet::setup(w, &inputs.subscriptions).map_err(|e| format!("set-up: {e}"))?;
        setups.push(seconds);
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one set-up");
    let ticks = stamp::cpu_ticks();
    let mut m = drive::run(w, &fleet, &inputs, args.seconds);
    let steal = stamp::steal_ratio(ticks, stamp::cpu_ticks());
    let mem_mb = fleet::rss_mib();
    let public = if args.trace {
        ladder::fleet_metrics(&fleet, &m)
    } else {
        ladder::Metrics::default()
    };
    let verdict = verify::verify(w, &inputs, &mut m, &fleet);
    drop(fleet);
    tally.merge(m.tally);

    let (read_window, tail_window) = w.windows(args.seconds);
    let (route_timed, route_qps) = after_warmup(&m.route_latency, m.route_window.as_secs_f64());
    let (update_timed, update_rate) =
        after_warmup(&m.update_latency, m.update_window.as_secs_f64());
    let routes = Samples::new(route_timed.iter().map(|s| s.ms).collect());
    let updates = Samples::new(update_timed.iter().map(|s| s.ms).collect());
    let (route_tail, route_q) = blocked_tail(&route_timed);
    let (update_tail, update_q) = blocked_tail(&update_timed);
    let offered = match w {
        Workload::RouteHot => HOT_RATE,
        _ => 0.0,
    };
    stamp.extend([
        ("read_seconds".to_string(), num(read_window.as_secs_f64())),
        ("write_tail_seconds".into(), num(tail_window.as_secs_f64())),
        ("offered_rate_per_s".into(), num(offered)),
        ("achieved_route_rate_per_s".into(), num(route_qps)),
        (
            "reads_per_update".into(),
            if w == Workload::LiveUpdates {
                LIVE_READS_PER_UPDATE.to_string()
            } else {
                "null".into()
            },
        ),
        ("achieved_update_rate_per_s".into(), num(update_rate)),
        ("warmup_seconds".into(), num(stats::WARMUP_S)),
        ("setup_runs".into(), setups.len().to_string()),
        ("route_samples".into(), routes.len().to_string()),
        ("route_tail_ms".into(), num(route_tail)),
        ("route_tail_percentile".into(), num(route_q * 100.0)),
        ("update_samples".into(), updates.len().to_string()),
        ("update_tail_ms".into(), num(update_tail)),
        ("update_tail_percentile".into(), num(update_q * 100.0)),
        ("stream_exhausted".into(), m.exhausted.to_string()),
        ("host_steal_ratio".into(), num(steal)),
        ("oracle_checked".into(), verdict.oracle_checked.to_string()),
        ("sample_checked".into(), verdict.sample_checked.to_string()),
        (
            "sessions_checked".into(),
            verdict.sessions_checked.to_string(),
        ),
        ("mismatches".into(), verdict.oracle_mismatches.to_string()),
        ("resyncs".into(), verdict.resyncs.to_string()),
        ("fail_ratio".into(), num(tally.ratio())),
    ]);

    let mut table = Vec::new();
    let metrics = if args.trace {
        let mut rec = ladder::Recorder::new();
        let ladder = ladder::run(w, &inputs, &mut rec)?;
        tally.merge(ladder.tally);
        let path = trace_path(args);
        rec.write(&path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        stamp.push(("spans".into(), quote(&path.display().to_string())));
        stamp.push(("ladder_mismatches".into(), ladder.tally.failed.to_string()));
        table = ladder.table;
        let mut metrics = ladder.metrics.0;
        metrics.extend(public.0);
        metrics.push(("tail.route_p99_ms".into(), route_tail, "ms"));
        metrics.push(("tail.update_p99_ms".into(), update_tail, "ms"));
        metrics.push(("bench.fail_ratio".into(), tally.ratio(), "1"));
        metrics
    } else {
        vec![
            ("setup_s".into(), median(&setups), "s"),
            ("mem_mb".into(), mem_mb, "MiB"),
            ("route_p50_ms".into(), routes.p50(), "ms"),
            ("route_qps".into(), route_qps, "1/s"),
            ("update_p50_ms".into(), updates.p50(), "ms"),
        ]
    };
    Ok(Report {
        tally,
        metrics,
        stamp,
        table,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("stamp {}", object(&report.stamp));
    for line in &report.table {
        println!("{line}");
    }
    let metrics: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                object(&[("value".into(), num(*value)), ("unit".into(), quote(unit))]),
            )
        })
        .collect();
    let t = report.tally;
    println!(
        "{}",
        object(&[
            ("correct".into(), (t.failed == 0).to_string()),
            ("attempted".into(), t.attempted.max(1).to_string()),
            ("failed".into(), t.failed.to_string()),
            ("metrics".into(), object(&metrics)),
        ])
    );
    ExitCode::SUCCESS
}

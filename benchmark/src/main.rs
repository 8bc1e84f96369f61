//! The repo benchmark: compile-time ladders and daemon round-trips.
//!
//! ```text
//! satmapit-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in a fresh process. With `--trace 0`
//! it measures for `--seconds` and reports every end-to-end metric; with
//! `--trace 1` it makes one traced pass and reports every per-layer
//! metric, plus a Chrome trace under `benchmark/out/`. The last line of
//! stdout is the result object `BENCHMARK.json`'s contract describes;
//! progress and tables go to stderr through `satmapit-obs`. See
//! `README.md` next to this package.

#![forbid(unsafe_code)]

mod cells;
mod ladder;
mod metrics;
mod procfs;
mod service;
mod spans;
mod stats;

use ladder::Ladder;
use metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use satmapit_obs as obs;
use satmapit_service::Json;
use service::Service;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Log target of the harness's progress lines.
pub const LOG_TARGET: &str = "satmapit::benchmark";

/// The workloads, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 6] = [
    "ladder_refute",
    "ladder_feasible",
    "ladder_wide",
    "service_hit",
    "service_cold",
    "service_restart",
];

/// Where traces and scratch stores go: `out/` next to this package's
/// manifest, inside the checkout whatever the working directory is.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Logs how much was timed and each cell's own row.
pub fn log_rounds(cells: &[&str], rounds: &metrics::Rounds) -> Result<(), String> {
    let (tail_q, beyond) = rounds.tail();
    obs::info!(
        LOG_TARGET,
        "{} timed operations in {} rounds over {} cells; wait_tail_ms is a round's p{:.0}, \
         {beyond} operations lie beyond it",
        rounds.ops(),
        rounds.len(),
        cells.len(),
        tail_q * 100.0
    );
    if rounds.len() > 1 && beyond < stats::MIN_BEYOND {
        obs::warn!(
            LOG_TARGET,
            "wait_tail_ms has fewer than {} operations beyond it: the run was too short",
            stats::MIN_BEYOND
        );
    }
    obs::info!(LOG_TARGET, "per cell, the lower quartile across rounds:");
    for (cell, ms) in cells.iter().zip(rounds.cell_rows_ms()?) {
        obs::info!(LOG_TARGET, "  {cell:22} {ms:10.3} ms");
    }
    Ok(())
}

/// Logs total and self time of every span name of a traced run.
pub fn log_span_table(totals: &BTreeMap<&'static str, spans::NameTotals>) {
    obs::info!(
        LOG_TARGET,
        "  {:26} {:>8} {:>12} {:>12}",
        "span",
        "count",
        "total ms",
        "self ms"
    );
    for (name, t) in totals {
        obs::info!(
            LOG_TARGET,
            "  {name:26} {:8} {:12.3} {:12.3}",
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3
        );
    }
}

/// Writes the traced pass's spans as Chrome `trace_event` JSON.
pub fn write_trace(path: &Path, recorders: &[&spans::Recorder]) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        spans::write_chrome(&mut out, recorders)?;
        out.flush()
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))?;
    obs::info!(LOG_TARGET, "trace written to {}", path.display());
    Ok(())
}

/// Peak resident set size of the workload, measured in a child process
/// of its own that does the workload's fixed minimum — one set-up and
/// one round, in table order (`--memory-probe 1`) — under a single
/// malloc arena.
///
/// In the measuring process itself `VmHWM` grows with the number of
/// rounds the run happened to afford, and — in the daemon workloads,
/// whose engine races solves on several threads — with how many of
/// glibc's per-thread arenas the scheduler happened to populate: 60 to
/// 85 MiB for identical `service_hit` runs. One arena reports the
/// memory the program holds, but its lock slows the races by 40 %, so
/// the timed process keeps the default.
fn probe_peak_rss(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.to_string();
    let child = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", "--memory-probe", "1"])
        .env("MALLOC_ARENA_MAX", "1")
        .output()
        .map_err(|e| format!("memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let peak = stdout
        .lines()
        .last()
        .and_then(|line| satmapit_service::json::parse(line).ok())
        .filter(|doc| doc.get("correct").and_then(|c| c.as_bool()) == Some(true))
        .and_then(|doc| {
            doc.get("metrics")?
                .get("peak_rss_mb")?
                .get("value")
                .cloned()
        });
    match peak {
        Some(Json::Float(peak)) if child.status.success() => Ok(peak),
        _ => Err(format!(
            "memory probe failed ({}): {}",
            child.status,
            String::from_utf8_lossy(&child.stderr).trim_end()
        )),
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Do the workload's fixed minimum and report this process's peak
    /// memory (what [`probe_peak_rss`] starts).
    memory_probe: bool,
}

fn usage() -> String {
    format!(
        "usage: satmapit-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--memory-probe <0|1>]",
        WORKLOADS.join("|")
    )
}

fn flag01(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1")),
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut memory_probe = false;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => trace = Some(flag01(&flag, &value)?),
            "--memory-probe" => memory_probe = flag01(&flag, &value)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        memory_probe,
    })
}

fn run(args: &Args) -> Result<(Report, &'static [MetricDef]), String> {
    let out = out_dir();
    let trace_out = out.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let ladder = match args.workload.as_str() {
        "ladder_refute" => Some(Ladder::Refute),
        "ladder_feasible" => Some(Ladder::Feasible),
        "ladder_wide" => Some(Ladder::Wide),
        _ => None,
    };
    let service = match args.workload.as_str() {
        "service_hit" => Some(Service::Hit),
        "service_cold" => Some(Service::Cold),
        "service_restart" => Some(Service::Restart),
        _ => None,
    };
    let seconds = (!args.memory_probe).then_some(args.seconds);
    let mut report = match (ladder, service, args.trace) {
        (Some(kind), _, false) => ladder::run_untraced(kind, args.seed, seconds)?,
        (Some(kind), _, true) => ladder::run_traced(kind, args.seed, &trace_out)?,
        (_, Some(kind), false) => service::run_untraced(kind, args.seed, seconds, &out)?,
        (_, Some(kind), true) => service::run_traced(kind, args.seed, &out, &trace_out)?,
        (None, None, _) => unreachable!("parse_args admits only known workloads"),
    };
    if !args.trace {
        let peak = if args.memory_probe {
            procfs::peak_rss_mb()?
        } else {
            probe_peak_rss(args)?
        };
        report.values.set("peak_rss_mb", peak);
    }
    Ok((report, if args.trace { PER_LAYER } else { END_TO_END }))
}

fn main() -> ExitCode {
    // Progress is informative by default; SATMAPIT_LOG still overrides.
    if std::env::var_os("SATMAPIT_LOG").is_none() {
        obs::log::set_filter("warn,satmapit::benchmark=info");
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            obs::error!(LOG_TARGET, "{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    obs::info!(
        LOG_TARGET,
        "workload {} seed {} seconds {} trace {} ({} hardware threads)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
    let (report, defs) = match run(&args) {
        Ok(done) => done,
        Err(why) => {
            obs::error!(LOG_TARGET, "{} did not complete: {why}", args.workload);
            return ExitCode::from(3);
        }
    };
    for why in &report.failures {
        obs::error!(LOG_TARGET, "failed operation: {why}");
    }
    let line = match report.to_json(defs) {
        Ok(json) => json.to_string(),
        Err(why) => {
            obs::error!(LOG_TARGET, "cannot report: {why}");
            return ExitCode::from(3);
        }
    };
    // The metric table is this binary's result: stdout is its contract.
    for d in defs {
        println!(
            "{:32} {:>18.6} {}",
            d.name,
            report.values.get(d.name),
            d.unit
        );
    }
    println!("{line}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "service_hit",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "service_hit");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "ladder_wide",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "ladder_wide",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "ladder_wide",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "ladder_wide", "--seed", "1", "--seconds", "1"]).is_err());
    }
}

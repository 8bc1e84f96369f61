//! `satmapit` — command-line front-end to the mapper toolchain.
//!
//! ```sh
//! satmapit kernels                      # list the benchmark suite
//! satmapit dot <kernel>                 # dump a kernel's DFG as Graphviz
//! satmapit map <kernel> [flags]         # map one kernel, verify by execution
//! satmapit sweep <kernel> [flags]       # one Figure-6 column (2x2..5x5)
//! satmapit batch [flags]                # the whole suite through the engine
//! satmapit serve [flags]                # the mapping daemon (JSON over TCP)
//! satmapit submit [flags]               # submit one job to a daemon
//! ```
//!
//! Run `satmapit <subcommand> --help` for per-subcommand flags. Unknown
//! flags are an error, not silently ignored.

#![forbid(unsafe_code)]

use sat_mapit::cgra::Cgra;
use sat_mapit::core::routing::map_with_routing;
use sat_mapit::core::{codegen, Mapper, MapperConfig};
use sat_mapit::dfg::dot::to_dot;
use sat_mapit::engine::{
    BackendKind, CacheLifecycle, Counters, DurabilityPolicy, Engine, EngineConfig, Job,
};
use sat_mapit::kernels;
use sat_mapit::morph::MorphMapper;
use sat_mapit::obs;
use sat_mapit::schedule::{mii, rec_mii, res_mii};
use sat_mapit::service::client::RetryPolicy;
use sat_mapit::service::wire::{self, MapRequest};
use sat_mapit::service::{Client, Json, Server, ServerConfig};
use sat_mapit::sim::verify_mapping;
use std::process::exit;
use std::time::Duration;

const TOP_HELP: &str = "satmapit — SAT-based modulo-scheduling mapper for CGRAs

USAGE:
    satmapit <SUBCOMMAND> [ARGS]

SUBCOMMANDS:
    kernels    List the 11-kernel MiBench/Rodinia benchmark suite
    dot        Dump a kernel's DFG as Graphviz
    map        Map one kernel onto a square mesh and verify by execution
    sweep      Map one kernel on every mesh size 2x2..5x5 (one Fig. 6 column)
    batch      Map the whole suite across mesh sizes through the batch engine
    serve      Run the mapping daemon (line-delimited JSON over TCP)
    submit     Submit one mapping job to a running daemon

Run `satmapit <SUBCOMMAND> --help` for that subcommand's flags.";

fn main() {
    // The fault-injection plane (chaos testing; see docs/robustness.md)
    // arms itself from SATMAPIT_FAULTS. A malformed plan is fatal: the
    // operator asked for specific faults, so running without them would
    // silently test nothing.
    if let Err(e) = sat_mapit::faults::init_from_env() {
        // lint: allow(log-discipline) -- usage errors are stderr's contract
        eprintln!("invalid {}: {e}", sat_mapit::faults::ENV_VAR);
        exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("kernels") => cmd_kernels(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("map") => cmd_map(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => println!("{TOP_HELP}"),
        Some(other) => {
            // lint: allow(log-discipline) -- usage errors are stderr's contract
            eprintln!("unknown subcommand `{other}`\n\n{TOP_HELP}");
            exit(2);
        }
        None => {
            // lint: allow(log-discipline) -- usage errors are stderr's contract
            eprintln!("{TOP_HELP}");
            exit(2);
        }
    }
}

/// One recognized flag: name, whether it takes a value, and help text.
struct FlagSpec {
    name: &'static str,
    takes_value: bool,
    help: &'static str,
}

/// Parsed command line: positional arguments and flag values.
struct Parsed {
    positional: Vec<String>,
    values: Vec<(&'static str, String)>,
}

impl Parsed {
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                // lint: allow(log-discipline) -- usage errors are stderr's contract
                eprintln!("invalid value `{raw}` for {name}");
                exit(2);
            }),
        }
    }
}

/// Parses `args` against `spec`, printing `help` and exiting on `--help`,
/// and erroring out on any unrecognized flag.
fn parse_args(args: &[String], spec: &[FlagSpec], help: &str) -> Parsed {
    let mut parsed = Parsed {
        positional: Vec::new(),
        values: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--help" || arg == "-h" {
            println!("{help}");
            exit(0);
        }
        if let Some(flag) = spec.iter().find(|f| f.name == arg) {
            if flag.takes_value {
                let Some(value) = args.get(i + 1) else {
                    // lint: allow(log-discipline) -- usage errors are stderr's contract
                    eprintln!("flag {} expects a value", flag.name);
                    exit(2);
                };
                parsed.values.push((flag.name, value.clone()));
                i += 2;
            } else {
                parsed.values.push((flag.name, String::from("true")));
                i += 1;
            }
            continue;
        }
        // A lone `-` is the conventional stdin positional, not a flag.
        if arg.starts_with('-') && arg != "-" {
            let known: Vec<&str> = spec.iter().map(|f| f.name).collect();
            // lint: allow(log-discipline) -- usage errors are stderr's contract
            eprintln!(
                "unknown flag `{arg}`; recognized flags: {}",
                if known.is_empty() {
                    String::from("(none)")
                } else {
                    known.join(", ")
                }
            );
            exit(2);
        }
        parsed.positional.push(arg.clone());
        i += 1;
    }
    parsed
}

fn render_help(usage: &str, about: &str, spec: &[FlagSpec]) -> String {
    let mut out = format!("{about}\n\nUSAGE:\n    {usage}\n");
    if !spec.is_empty() {
        out.push_str("\nFLAGS:\n");
        for flag in spec {
            let name = if flag.takes_value {
                format!("{} <value>", flag.name)
            } else {
                flag.name.to_string()
            };
            out.push_str(&format!("    {name:<22} {}\n", flag.help));
        }
    }
    out.push_str("    --help                 Print this help\n");
    out
}

/// Rejects positional arguments beyond the `expected` count (mirrors the
/// strict unknown-flag handling: surplus arguments are an error, not noise).
fn reject_extra_positionals(parsed: &Parsed, expected: usize) {
    if let Some(extra) = parsed.positional.get(expected) {
        // lint: allow(log-discipline) -- usage errors are stderr's contract
        eprintln!("unexpected argument `{extra}`");
        exit(2);
    }
}

/// The `--backend` flag, shared by every mapping subcommand: which exact
/// engine attempts the II ladder (see docs/backends.md).
const BACKEND_FLAG: FlagSpec = FlagSpec {
    name: "--backend",
    takes_value: true,
    help: "Mapping backend: `sat` (CDCL ladder, default) or `morph` (monomorphism search)",
};

fn backend_flag(parsed: &Parsed) -> BackendKind {
    let raw = parsed.value("--backend").unwrap_or("sat");
    BackendKind::parse(raw).unwrap_or_else(|| {
        // lint: allow(log-discipline) -- usage errors are stderr's contract
        eprintln!("invalid value `{raw}` for --backend; expected sat or morph");
        exit(2);
    })
}

/// Runs one mapping job through the chosen backend's sequential ladder.
fn run_backend(
    dfg: &sat_mapit::dfg::Dfg,
    cgra: &Cgra,
    config: MapperConfig,
    backend: BackendKind,
) -> sat_mapit::core::MapOutcome {
    match backend {
        BackendKind::Sat => Mapper::new(dfg, cgra).with_config(config).run(),
        BackendKind::Morph => MorphMapper::new(dfg, cgra).with_config(config).run(),
    }
}

fn kernel_or_exit(name: Option<&String>) -> kernels::Kernel {
    let Some(name) = name else {
        // lint: allow(log-discipline) -- usage errors are stderr's contract
        eprintln!("expected a kernel name; try `satmapit kernels`");
        exit(2);
    };
    if name == "paper-example" {
        return kernels::paper_example();
    }
    kernels::by_name(name).unwrap_or_else(|| {
        // lint: allow(log-discipline) -- usage errors are stderr's contract
        eprintln!(
            "unknown kernel `{name}`; available: {:?} + paper-example",
            kernels::NAMES
        );
        exit(2);
    })
}

fn cmd_kernels(args: &[String]) {
    let help = render_help(
        "satmapit kernels",
        "List the benchmark suite: name, size and description of each kernel.",
        &[],
    );
    let parsed = parse_args(args, &[], &help);
    reject_extra_positionals(&parsed, 0);
    println!("{:<14} {:>5} {:>5}  description", "name", "nodes", "edges");
    for k in kernels::all() {
        println!(
            "{:<14} {:>5} {:>5}  {}",
            k.name(),
            k.dfg.num_nodes(),
            k.dfg.num_edges(),
            k.description
        );
    }
}

fn cmd_dot(args: &[String]) {
    let help = render_help(
        "satmapit dot <kernel>",
        "Dump a kernel's data-flow graph in Graphviz DOT format.",
        &[],
    );
    let parsed = parse_args(args, &[], &help);
    reject_extra_positionals(&parsed, 1);
    let kernel = kernel_or_exit(parsed.positional.first());
    print!("{}", to_dot(&kernel.dfg));
}

fn cmd_map(args: &[String]) {
    let spec = [
        FlagSpec {
            name: "--size",
            takes_value: true,
            help: "Mesh edge length N for an NxN CGRA (default 3)",
        },
        FlagSpec {
            name: "--timeout",
            takes_value: true,
            help: "Wall-clock budget in seconds (default 60)",
        },
        FlagSpec {
            name: "--routing",
            takes_value: true,
            help: "Allow up to this many routing (copy) nodes (default 0)",
        },
        BACKEND_FLAG,
    ];
    let help = render_help(
        "satmapit map <kernel> [--size N] [--timeout S] [--routing R] [--backend sat|morph]",
        "Map one kernel onto an NxN mesh, print the kernel program and verify\nthe mapping by executing it against reference semantics.",
        &spec,
    );
    let parsed = parse_args(args, &spec, &help);
    reject_extra_positionals(&parsed, 1);
    let kernel = kernel_or_exit(parsed.positional.first());
    let size: u16 = parsed.parse_num("--size", 3);
    if size == 0 {
        // lint: allow(log-discipline) -- usage errors are stderr's contract
        eprintln!("--size must be at least 1");
        exit(2);
    }
    let timeout = Duration::from_secs(parsed.parse_num("--timeout", 60u64));
    let routes: u32 = parsed.parse_num("--routing", 0);
    let backend = backend_flag(&parsed);
    if routes > 0 && backend != BackendKind::Sat {
        // lint: allow(log-discipline) -- usage errors are stderr's contract
        eprintln!("--routing currently requires the SAT backend");
        exit(2);
    }
    let cgra = Cgra::square(size);
    let config = MapperConfig {
        timeout: Some(timeout),
        ..MapperConfig::default()
    };

    let fmt_bound = |b: Option<u32>| b.map_or_else(|| "∞".to_string(), |v| v.to_string());
    println!(
        "kernel `{}` on {} | MII = max(Res {}, Rec {}) = {}",
        kernel.name(),
        cgra,
        fmt_bound(res_mii(&kernel.dfg, &cgra)),
        rec_mii(&kernel.dfg),
        fmt_bound(mii(&kernel.dfg, &cgra))
    );

    let (dfg, outcome, used_routes) = if routes > 0 {
        let routed = map_with_routing(&kernel.dfg, &cgra, &config, routes);
        (routed.dfg, routed.outcome, routed.routes)
    } else {
        let outcome = run_backend(&kernel.dfg, &cgra, config, backend);
        (kernel.dfg.clone(), outcome, 0)
    };

    match outcome.result {
        Ok(mapped) => {
            println!(
                "mapped at II={} ({} routing nodes) in {:?}",
                mapped.ii(),
                used_routes,
                outcome.elapsed
            );
            let program = codegen::kernel_program(&dfg, &cgra, &mapped.mapping, &mapped.registers);
            println!("\n{program}");
            println!("utilization: {:.0}%", program.utilization() * 100.0);
            match verify_mapping(&dfg, &cgra, &mapped, kernel.memory.clone(), 8) {
                Ok(sim) => println!(
                    "verified 8 iterations by execution ({} cycles) ✓",
                    sim.cycles
                ),
                Err(e) => {
                    // lint: allow(log-discipline) -- failure outcomes are stderr's contract
                    eprintln!("VERIFICATION FAILED: {e}");
                    exit(1);
                }
            }
        }
        Err(e) => {
            // lint: allow(log-discipline) -- failure outcomes are stderr's contract
            eprintln!("mapping failed: {e} (after {:?})", outcome.elapsed);
            exit(1);
        }
    }
}

fn cmd_sweep(args: &[String]) {
    let spec = [
        FlagSpec {
            name: "--timeout",
            takes_value: true,
            help: "Wall-clock budget in seconds per mesh size (default 60)",
        },
        BACKEND_FLAG,
    ];
    let help = render_help(
        "satmapit sweep <kernel> [--timeout S] [--backend sat|morph]",
        "Map one kernel on every mesh size 2x2..5x5 — one column of the\npaper's Figure 6.",
        &spec,
    );
    let parsed = parse_args(args, &spec, &help);
    reject_extra_positionals(&parsed, 1);
    let kernel = kernel_or_exit(parsed.positional.first());
    let timeout = Duration::from_secs(parsed.parse_num("--timeout", 60u64));
    let config = MapperConfig {
        timeout: Some(timeout),
        ..MapperConfig::default()
    };
    let backend = backend_flag(&parsed);
    println!(" size | MII | II  | time");
    for n in 2..=5u16 {
        let cgra = Cgra::square(n);
        let outcome = run_backend(&kernel.dfg, &cgra, config.clone(), backend);
        let lower = mii(&kernel.dfg, &cgra).map_or_else(|| "∞".to_string(), |v| v.to_string());
        match outcome.ii() {
            Some(ii) => println!(" {n}x{n}  | {lower:>3} | {ii:>3} | {:?}", outcome.elapsed),
            None => println!(" {n}x{n}  | {lower:>3} |  ✕  | {:?}", outcome.elapsed),
        }
    }
}

/// What a `batch --stats` row counts, where the counter's name leaves it
/// open (the full definitions are the `CacheStats` field docs).
fn stat_note(name: &str) -> &'static str {
    match name {
        "bound_starts" => "  (misses whose II ladder started above MII from a proven bound)",
        "arena_wasted" => "  (words: the largest dead-clause residue any solve carried)",
        _ => "",
    }
}

fn cmd_batch(args: &[String]) {
    let spec = [
        FlagSpec {
            name: "--sizes",
            takes_value: true,
            help: "Comma-separated mesh edge lengths (default 3,4,5)",
        },
        FlagSpec {
            name: "--kernels",
            takes_value: true,
            help: "Comma-separated kernel subset (default: all 11)",
        },
        FlagSpec {
            name: "--timeout",
            takes_value: true,
            help: "Wall-clock budget in seconds per job (default 120)",
        },
        FlagSpec {
            name: "--workers",
            takes_value: true,
            help: "Jobs mapped at once (default 0 = one per hardware thread)",
        },
        FlagSpec {
            name: "--repeat",
            takes_value: true,
            help: "Submit the batch this many times (exercises the cache; default 1)",
        },
        FlagSpec {
            name: "--stats",
            takes_value: false,
            help: "Print full cache statistics (hits/misses, proven-bound ladder starts) and per-outcome latency percentiles after the run",
        },
        FlagSpec {
            name: "--trace",
            takes_value: true,
            help: "Record a flight-recorder trace of the run and write it as Chrome trace JSON (open in Perfetto)",
        },
        BACKEND_FLAG,
    ];
    let help = render_help(
        "satmapit batch [--sizes 3,4,5] [--kernels a,b] [--timeout S] [--workers N] [--backend sat|morph] [--repeat R] [--stats] [--trace FILE]",
        "Map the benchmark suite across mesh sizes through the batch engine\n(one sequential II ladder per job), with content-hash result caching.",
        &spec,
    );
    let parsed = parse_args(args, &spec, &help);
    reject_extra_positionals(&parsed, 0);

    let sizes: Vec<u16> = parsed
        .value("--sizes")
        .unwrap_or("3,4,5")
        .split(',')
        .map(|s| {
            let size: u16 = s.trim().parse().unwrap_or_else(|_| {
                // lint: allow(log-discipline) -- usage errors are stderr's contract
                eprintln!("invalid mesh size `{s}` in --sizes");
                exit(2);
            });
            if size == 0 {
                // lint: allow(log-discipline) -- usage errors are stderr's contract
                eprintln!("mesh sizes must be at least 1 (got `{s}`)");
                exit(2);
            }
            size
        })
        .collect();
    let kernel_names: Vec<String> = match parsed.value("--kernels") {
        None => kernels::NAMES.iter().map(|s| s.to_string()).collect(),
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
    };
    let timeout = Duration::from_secs(parsed.parse_num("--timeout", 120u64));
    let repeat: usize = parsed.parse_num("--repeat", 1usize).max(1);

    let config = EngineConfig {
        mapper: MapperConfig {
            timeout: Some(timeout),
            ..MapperConfig::default()
        },
        workers: parsed.parse_num("--workers", 0usize),
        backend: backend_flag(&parsed),
        ..EngineConfig::default()
    };

    let mut jobs = Vec::new();
    for name in &kernel_names {
        let kernel = kernel_or_exit(Some(name));
        for &size in &sizes {
            jobs.push(Job::new(
                format!("{name}@{size}x{size}"),
                kernel.dfg.clone(),
                Cgra::square(size),
            ));
        }
    }

    let trace_path = parsed.value("--trace").map(std::path::PathBuf::from);
    if trace_path.is_some() {
        obs::trace::set_enabled(true);
    }

    let engine = Engine::new(config);
    println!(
        "batch: {} jobs ({} kernels x {} sizes), {} worker threads",
        jobs.len(),
        kernel_names.len(),
        sizes.len(),
        engine.config().effective_workers(),
    );

    let mut any_failed = false;
    // Per-outcome latency histograms over every item of every round:
    // the same classes the daemon's `stats` response reports.
    let mut lat_hit = obs::Histogram::new();
    let mut lat_solved = obs::Histogram::new();
    let mut lat_timeout = obs::Histogram::new();
    for round in 0..repeat {
        if repeat > 1 {
            println!("--- round {} ---", round + 1);
        }
        let t0 = std::time::Instant::now();
        let items = engine.map_batch(jobs.clone());
        let wall = t0.elapsed();
        println!(
            "{:<28} {:>4} {:>4} {:>10} {:>7}",
            "job", "MII", "II", "time", "cached"
        );
        let mut failures = 0usize;
        for item in &items {
            let elapsed_us = item.elapsed.as_micros() as u64;
            if item.cached {
                lat_hit.record(elapsed_us);
            } else if matches!(
                item.outcome.outcome.result,
                Err(sat_mapit::core::MapFailure::Timeout { .. })
            ) {
                lat_timeout.record(elapsed_us);
            } else {
                lat_solved.record(elapsed_us);
            }
            let ii = match item.outcome.ii() {
                Some(ii) => ii.to_string(),
                None => {
                    failures += 1;
                    "✕".to_string()
                }
            };
            let mii_s = item
                .outcome
                .outcome
                .result
                .as_ref()
                .map(|m| m.mii.to_string())
                .unwrap_or_else(|_| "-".to_string());
            println!(
                "{:<28} {:>4} {:>4} {:>10.3?} {:>7}",
                item.name,
                mii_s,
                ii,
                item.elapsed,
                if item.cached { "yes" } else { "no" },
            );
        }
        let stats = engine.cache_stats();
        println!(
            "round wall-clock {wall:.3?} | cache: {} entries, {} hits, {} misses",
            stats.entries, stats.hits, stats.misses
        );
        if failures > 0 {
            obs::warn!("satmapit::cli", "{failures} job(s) failed to map");
            any_failed = true;
        }
    }
    if parsed.value("--stats").is_some() {
        let stats = engine.cache_stats();
        println!("\ncache statistics");
        println!("  {:<21} {}", "entries", stats.entries);
        println!("  {:<21} {}", "bound_entries", stats.bound_entries);
        println!(
            "  {:<21} {}",
            "persistent_entries", stats.persistent_entries
        );
        for (name, _, value) in stats.fields() {
            println!("  {name:<21} {value}{}", stat_note(name));
        }
        println!("\nlatency by outcome (us)");
        println!(
            "  {:<12} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "class", "count", "p50", "p90", "p99", "max"
        );
        for (class, hist) in [
            ("cache_hit", &lat_hit),
            ("solved", &lat_solved),
            ("timeout", &lat_timeout),
        ] {
            let snap = hist.snapshot();
            println!(
                "  {:<12} {:>7} {:>10} {:>10} {:>10} {:>10}",
                class, snap.count, snap.p50, snap.p90, snap.p99, snap.max
            );
        }
    }
    if let Some(path) = &trace_path {
        let events = obs::trace::drain();
        let rungs = events
            .iter()
            .filter(|e| e.cat == obs::Category::Rung)
            .count();
        match std::fs::write(path, obs::trace::export_chrome(&events)) {
            Ok(()) => println!(
                "trace: {} events ({} rung spans, {} dropped) -> {}",
                events.len(),
                rungs,
                obs::trace::dropped(),
                path.display()
            ),
            Err(e) => {
                obs::error!(
                    "satmapit::cli",
                    "failed to write trace {}: {e}",
                    path.display()
                );
                exit(1);
            }
        }
    }
    if any_failed {
        exit(1);
    }
}

fn cmd_serve(args: &[String]) {
    let spec = [
        FlagSpec {
            name: "--addr",
            takes_value: true,
            help: "Listen address (default 127.0.0.1:7421; port 0 = ephemeral)",
        },
        FlagSpec {
            name: "--cache-dir",
            takes_value: true,
            help: "Directory for the persistent result/bound caches (default: in-memory only)",
        },
        FlagSpec {
            name: "--workers",
            takes_value: true,
            help: "Solver worker threads (default 0 = one per hardware thread)",
        },
        FlagSpec {
            name: "--queue",
            takes_value: true,
            help: "Admission queue capacity; beyond it requests are rejected (default 64)",
        },
        FlagSpec {
            name: "--timeout",
            takes_value: true,
            help: "Default wall-clock budget in seconds per job (default 120)",
        },
        FlagSpec {
            name: "--trace-dir",
            takes_value: true,
            help: "Enable the flight recorder; `trace` requests drain spans into Chrome trace files in this directory",
        },
        FlagSpec {
            name: "--slow-ms",
            takes_value: true,
            help: "Log the per-II ladder of any solve slower than this many milliseconds (default: off)",
        },
        FlagSpec {
            name: "--max-line-bytes",
            takes_value: true,
            help: "Longest accepted request line in bytes; a client exceeding it gets an error and is disconnected (default 4194304)",
        },
        FlagSpec {
            name: "--cache-entries",
            takes_value: true,
            help: "Result-cache size bound; beyond it the least-recently-used entry is evicted (default 0 = unbounded)",
        },
        FlagSpec {
            name: "--cache-age",
            takes_value: true,
            help: "Result-cache age bound in seconds; older entries are swept on insert (default: none)",
        },
        FlagSpec {
            name: "--compact-every",
            takes_value: true,
            help: "Compact the persistent stores after this many appends instead of only at shutdown (default 256; 0 = shutdown only)",
        },
        FlagSpec {
            name: "--fsync-every",
            takes_value: true,
            help: "fsync the persistent stores after this many appends (default 1 = every append; 0 = never, rely on the OS)",
        },
        FlagSpec {
            name: "--max-append-failures",
            takes_value: true,
            help: "Consecutive append failures before the engine goes degraded memory-only until restart (default 3; 0 = never degrade)",
        },
        BACKEND_FLAG,
    ];
    let help = render_help(
        "satmapit serve [--addr HOST:PORT] [--cache-dir DIR] [--workers N] [--queue N] [--timeout S] [--backend sat|morph] [--trace-dir DIR] [--slow-ms N] [--max-line-bytes N] [--cache-entries N] [--cache-age S] [--compact-every N] [--fsync-every N] [--max-append-failures N]",
        "Run the mapping daemon: line-delimited JSON requests over TCP, a\nbounded admission queue and worker pool over the engine, and result/bound\ncaches persisted to --cache-dir across restarts.\n\nProtocol reference: docs/service.md. Stop it with\n`echo '{\"op\":\"shutdown\"}' | nc HOST PORT` or a `shutdown` request\nfrom any client; shutdown compacts the on-disk caches.",
        &spec,
    );
    let parsed = parse_args(args, &spec, &help);
    reject_extra_positionals(&parsed, 0);

    let addr = parsed
        .value("--addr")
        .unwrap_or("127.0.0.1:7421")
        .to_string();
    let timeout = Duration::from_secs(parsed.parse_num("--timeout", 120u64));
    let config = ServerConfig {
        workers: parsed.parse_num("--workers", 0usize),
        queue_capacity: parsed.parse_num("--queue", 64usize).max(1),
        engine: EngineConfig {
            mapper: MapperConfig {
                timeout: Some(timeout),
                ..MapperConfig::default()
            },
            backend: backend_flag(&parsed),
            lifecycle: CacheLifecycle {
                max_entries: parsed.parse_num("--cache-entries", 0usize),
                max_age: parsed
                    .value("--cache-age")
                    .map(|_| Duration::from_secs(parsed.parse_num("--cache-age", 0u64))),
                compact_every: parsed.parse_num("--compact-every", 256u64),
            },
            durability: DurabilityPolicy {
                fsync_every: parsed.parse_num("--fsync-every", 1u64),
                max_append_failures: parsed.parse_num("--max-append-failures", 3u64),
                ..DurabilityPolicy::default()
            },
            ..EngineConfig::default()
        },
        cache_dir: parsed.value("--cache-dir").map(std::path::PathBuf::from),
        trace_dir: parsed.value("--trace-dir").map(std::path::PathBuf::from),
        slow_solve: parsed
            .value("--slow-ms")
            .map(|_| Duration::from_millis(parsed.parse_num("--slow-ms", 0u64))),
        max_line_bytes: parsed
            .parse_num("--max-line-bytes", 4 * 1024 * 1024usize)
            .max(1),
        panic_on_name: None,
    };

    let server = Server::bind(&addr, config).unwrap_or_else(|e| {
        obs::error!("satmapit::cli", "failed to start daemon on {addr}: {e}");
        exit(1);
    });
    let stats = server.engine().cache_stats();
    println!(
        "satmapit-service listening on {} ({} persistent result entries, {} proven bounds{})",
        server.local_addr(),
        stats.persistent_entries,
        stats.bound_entries,
        match server.engine().cache_dir() {
            Some(dir) => format!(", cache dir {}", dir.display()),
            None => String::from(", in-memory cache only"),
        }
    );
    if let Err(e) = server.run() {
        obs::error!("satmapit::cli", "daemon failed: {e}");
        exit(1);
    }
    println!("daemon stopped; caches compacted");
}

/// Reads the `submit` DFG: a kernel name, `--file path`, or `-` (stdin),
/// expecting the wire JSON DFG format for the latter two.
fn submit_dfg(parsed: &Parsed) -> sat_mapit::dfg::Dfg {
    use std::io::Read;
    let positional = parsed.positional.first();
    match (positional.map(String::as_str), parsed.value("--file")) {
        (Some(name), None) if name != "-" => kernel_or_exit(Some(&name.to_string())).dfg,
        (source, file) => {
            let text = match (source, file) {
                (_, Some(path)) => std::fs::read_to_string(path).unwrap_or_else(|e| {
                    // lint: allow(log-discipline) -- failure outcomes are stderr's contract
                    eprintln!("cannot read {path}: {e}");
                    exit(2);
                }),
                (Some("-"), None) | (None, None) => {
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .unwrap_or_else(|e| {
                            // lint: allow(log-discipline) -- failure outcomes are stderr's contract
                            eprintln!("cannot read stdin: {e}");
                            exit(2);
                        });
                    buf
                }
                _ => unreachable!("first match arm covers bare kernel names"),
            };
            wire::dfg_from_str(text.trim()).unwrap_or_else(|e| {
                // lint: allow(log-discipline) -- failure outcomes are stderr's contract
                eprintln!("DFG JSON is malformed: {e}");
                exit(2);
            })
        }
    }
}

fn cmd_submit(args: &[String]) {
    let spec = [
        FlagSpec {
            name: "--addr",
            takes_value: true,
            help: "Daemon address (default 127.0.0.1:7421)",
        },
        FlagSpec {
            name: "--file",
            takes_value: true,
            help: "Read the DFG from this JSON file instead of a kernel name",
        },
        FlagSpec {
            name: "--size",
            takes_value: true,
            help: "Mesh edge length N for an NxN CGRA (default 3)",
        },
        FlagSpec {
            name: "--timeout",
            takes_value: true,
            help: "Per-request wall-clock budget in seconds (default: server's)",
        },
        FlagSpec {
            name: "--timeout-ms",
            takes_value: true,
            help: "Socket budget in milliseconds for connect/read/write; a stalled daemon fails fast instead of hanging (default: none)",
        },
        FlagSpec {
            name: "--retries",
            takes_value: true,
            help: "Total attempts on connection failure, reconnecting between tries (default 1 = no retry; submits are idempotent)",
        },
        FlagSpec {
            name: "--backoff-ms",
            takes_value: true,
            help: "Backoff before the first retry in milliseconds, doubling (with jitter) each further retry (default 50)",
        },
        FlagSpec {
            name: "--json",
            takes_value: false,
            help: "Print the raw JSON response instead of the human summary",
        },
        FlagSpec {
            name: "--stats",
            takes_value: false,
            help: "Also fetch and print the daemon's statistics",
        },
    ];
    let help = render_help(
        "satmapit submit [<kernel> | --file dfg.json | -] [--addr HOST:PORT] [--size N] [--timeout S] [--timeout-ms MS] [--retries N] [--backoff-ms MS] [--json] [--stats]",
        "Submit one mapping job to a running daemon. The DFG comes from a\nbenchmark kernel name, a JSON file (--file), or stdin (`-`), in the\nwire format documented in docs/service.md.",
        &spec,
    );
    let parsed = parse_args(args, &spec, &help);
    reject_extra_positionals(&parsed, 1);

    let addr = parsed.value("--addr").unwrap_or("127.0.0.1:7421");
    let size: u16 = parsed.parse_num("--size", 3);
    if size == 0 {
        // lint: allow(log-discipline) -- usage errors are stderr's contract
        eprintln!("--size must be at least 1");
        exit(2);
    }
    let dfg = submit_dfg(&parsed);
    let request = MapRequest {
        id: Some(1),
        name: format!("{}@{size}x{size}", dfg.name()),
        dfg,
        cgra: Cgra::square(size),
        timeout_ms: parsed
            .value("--timeout")
            .map(|_| parsed.parse_num("--timeout", 120u64) * 1000),
    };

    let socket_budget = parsed
        .value("--timeout-ms")
        .map(|_| parsed.parse_num("--timeout-ms", 0u64))
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis);
    let report_failure = |e: &sat_mapit::service::ClientError| {
        match socket_budget {
            // lint: allow(log-discipline) -- failure outcomes are stderr's contract
            Some(budget) if e.is_timeout() => eprintln!(
                "submit failed: no response from {addr} within --timeout-ms {}; the daemon may be overloaded or the request may need a larger budget",
                budget.as_millis()
            ),
            // lint: allow(log-discipline) -- failure outcomes are stderr's contract
            _ => eprintln!("submit failed: {e}"),
        }
    };
    let retries: u32 = parsed.parse_num("--retries", 1);
    let (reply, stats) = if retries > 1 {
        // Submits are idempotent (deterministic solves, cached), so a
        // reconnect-and-replay loop is safe; see docs/robustness.md.
        let mut client = Client::with_retry(
            addr,
            RetryPolicy {
                attempts: retries,
                backoff: Duration::from_millis(parsed.parse_num("--backoff-ms", 50u64)),
                socket_timeout: socket_budget,
                ..RetryPolicy::default()
            },
        );
        let reply = client.map(&request).unwrap_or_else(|e| {
            report_failure(&e);
            exit(1);
        });
        let stats = parsed.value("--stats").is_some().then(|| client.stats());
        (reply, stats)
    } else {
        let connect = match socket_budget {
            Some(budget) => Client::connect_timeout(addr, budget),
            None => Client::connect(addr),
        };
        let mut client = connect.unwrap_or_else(|e| {
            // lint: allow(log-discipline) -- failure outcomes are stderr's contract
            eprintln!("cannot reach daemon at {addr}: {e}");
            exit(1);
        });
        let reply = client.map(&request).unwrap_or_else(|e| {
            report_failure(&e);
            exit(1);
        });
        let stats = parsed.value("--stats").is_some().then(|| client.stats());
        (reply, stats)
    };

    if parsed.value("--json").is_some() {
        println!("{reply}");
    } else {
        print_submit_summary(&request.name, &reply);
    }
    match stats {
        Some(Ok(stats)) => println!("stats: {stats}"),
        Some(Err(e)) => obs::warn!("satmapit::cli", "stats unavailable: {e}"),
        None => {}
    }
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        exit(1);
    }
    let mapped = reply
        .get("result")
        .and_then(|r| r.get("status"))
        .and_then(Json::as_str)
        == Some("mapped");
    if !mapped {
        exit(1);
    }
}

fn print_submit_summary(name: &str, reply: &Json) {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed response");
        // lint: allow(log-discipline) -- failure outcomes are stderr's contract
        eprintln!("daemon rejected `{name}`: {error}");
        return;
    }
    let provenance = match (
        reply.get("cached").and_then(Json::as_bool),
        reply.get("persistent").and_then(Json::as_bool),
    ) {
        (Some(true), Some(true)) => "persistent cache hit",
        (Some(true), _) => "cache hit",
        _ => "solved",
    };
    let elapsed_us = reply.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0);
    let Some(result) = reply.get("result") else {
        // lint: allow(log-discipline) -- failure outcomes are stderr's contract
        eprintln!("malformed response: no result");
        return;
    };
    match result.get("status").and_then(Json::as_str) {
        Some("mapped") => {
            let ii = result.get("ii").and_then(Json::as_u64).unwrap_or(0);
            let mii = result.get("mii").and_then(Json::as_u64).unwrap_or(0);
            println!(
                "{name}: mapped at II={ii} (MII {mii}) — {provenance}, {:.3} ms",
                elapsed_us as f64 / 1000.0
            );
        }
        Some("failed") => {
            let error = result
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown failure");
            println!(
                "{name}: failed — {error} ({provenance}, {:.3} ms)",
                elapsed_us as f64 / 1000.0
            );
        }
        // lint: allow(log-discipline) -- failure outcomes are stderr's contract
        _ => eprintln!("malformed response: unknown result status"),
    }
}

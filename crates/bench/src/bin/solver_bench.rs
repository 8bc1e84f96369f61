//! The SAT-core bench: the live II ladder (the scratch-loop, transfer-off
//! and GC-off columns were retired with their options; `docs/solver.md`
//! records their final numbers), a SAT-vs-morph
//! backend head-to-head on every grid (`ladder_latency_us.<grid>.<backend>`),
//! and the arena-waste measurement after a full multi-rung ladder —
//! emitted as machine-readable JSON (`BENCH_solver.json`) so CI and the
//! bench trajectory can track the solver hot path across PRs.
//!
//! ```sh
//! cargo run --release -p satmapit-bench --bin solver_bench -- [--reps N] [--out PATH]
//! ```
//!
//! Wall-clock numbers are the minimum over `--reps` repetitions (minimum,
//! not mean: scheduling noise only ever adds time). Run on an idle
//! machine in `--release`.

#![forbid(unsafe_code)]

use satmapit_cgra::Cgra;
use satmapit_core::{Mapper, MapperConfig};
use satmapit_engine::{map_raced, BackendKind, EngineConfig, ShareConfig};
use satmapit_kernels::Kernel;
use satmapit_morph::MorphMapper;
use satmapit_obs as obs;
use satmapit_obs::Histogram;
use satmapit_sat::SolveLimits;
use std::fmt::Write as _;
use std::time::Instant;

/// The kernels whose 2x2/3x3 searches climb through UNSAT rungs before
/// mapping — the regime where the live ladder's GC earns or loses its
/// keep.
const MULTI_RUNG: [&str; 4] = ["sha", "gsm", "bitcount", "stringsearch"];

fn multi_rung_kernels() -> Vec<Kernel> {
    MULTI_RUNG
        .iter()
        .map(|name| satmapit_kernels::by_name(name).expect("suite kernel"))
        .collect()
}

/// Wall-clock of mapping every kernel in `set` on `cgra` under `config`,
/// once. Each kernel's individual ladder time also lands in `latency`
/// (microseconds), so the suite total and the per-kernel distribution
/// come from the same passes.
fn time_suite_once(
    set: &[Kernel],
    cgra: &Cgra,
    config: &MapperConfig,
    latency: &mut Histogram,
) -> f64 {
    let t0 = Instant::now();
    for kernel in set {
        let k0 = Instant::now();
        let outcome = Mapper::new(&kernel.dfg, cgra)
            .with_config(config.clone())
            .run();
        latency.record(k0.elapsed().as_micros() as u64);
        assert!(outcome.ii().is_some(), "{} must map", kernel.name());
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Per-variant minima over `reps` repetitions, with the variants
/// *interleaved* inside each repetition: on a shared/1-CPU box, machine
/// load drifts over the minutes a grid takes, and running all of one
/// variant's repetitions back-to-back would let that drift masquerade as
/// a variant difference. Adjacent passes see the same neighbours.
fn time_variants(
    set: &[Kernel],
    cgra: &Cgra,
    variants: &[Variant],
    reps: u32,
) -> (Vec<f64>, Vec<Histogram>) {
    let mut best = vec![f64::INFINITY; variants.len()];
    let mut latencies = vec![Histogram::new(); variants.len()];
    for _ in 0..reps {
        for (vi, variant) in variants.iter().enumerate() {
            best[vi] = best[vi].min(time_suite_once(
                set,
                cgra,
                &variant.config,
                &mut latencies[vi],
            ));
        }
    }
    (best, latencies)
}

/// The mapping backends compared head-to-head on every ladder grid.
/// The race is excluded here — its wall-clock mixes both backends and
/// is covered by the portfolio section below.
const BACKENDS: [(&str, BackendKind); 2] =
    [("sat", BackendKind::Sat), ("morph", BackendKind::Morph)];

/// Wall-clock of mapping every kernel in `set` on `cgra` through one
/// backend, once — same shape as [`time_suite_once`] so the per-backend
/// `ladder_latency_us` entries are directly comparable to the variant
/// ablation's.
fn time_backend_once(
    set: &[Kernel],
    cgra: &Cgra,
    backend: BackendKind,
    config: &MapperConfig,
    latency: &mut Histogram,
) -> f64 {
    let t0 = Instant::now();
    for kernel in set {
        let k0 = Instant::now();
        let ii = match backend {
            BackendKind::Sat => Mapper::new(&kernel.dfg, cgra)
                .with_config(config.clone())
                .run()
                .ii(),
            BackendKind::Morph => MorphMapper::new(&kernel.dfg, cgra)
                .with_config(config.clone())
                .run()
                .ii(),
            BackendKind::Race => map_raced(
                &kernel.dfg,
                cgra,
                &EngineConfig {
                    mapper: config.clone(),
                    backend,
                    ..EngineConfig::default()
                },
            )
            .ii(),
        };
        latency.record(k0.elapsed().as_micros() as u64);
        assert!(ii.is_some(), "{} must map under {backend}", kernel.name());
    }
    t0.elapsed().as_secs_f64() * 1e3
}

struct Variant {
    label: &'static str,
    config: MapperConfig,
}

fn variants() -> Vec<Variant> {
    vec![Variant {
        label: "incremental",
        config: MapperConfig::default(),
    }]
}

/// Drives one full live ladder by hand (rung after rung until the
/// kernel maps) and reports the live solver's arena occupancy afterwards —
/// the number the GC exists to bound.
fn arena_after_ladder(kernel: &Kernel, cgra: &Cgra) -> (u32, satmapit_sat::SolverStats) {
    let mapper = Mapper::new(&kernel.dfg, cgra);
    let prepared = mapper.prepare().expect("suite kernels prepare");
    let mut ladder = prepared.ladder().expect("ladder opens");
    let mut ii = prepared.start_ii();
    loop {
        assert!(ii <= 50, "{} never mapped", kernel.name());
        let report = ladder
            .attempt_ii(ii, &SolveLimits::none())
            .expect("no limits set");
        if report.mapped.is_some() {
            return (ii, ladder.solver_stats().clone());
        }
        assert!(!report.proven_unmappable, "{} is mappable", kernel.name());
        ii += 1;
    }
}

fn json_num(v: f64) -> String {
    format!("{:.3}", v)
}

/// Aggregate traffic of one portfolio pass over a kernel set.
#[derive(Default)]
struct ShareTraffic {
    exported: u64,
    imported: u64,
    dropped: u64,
}

/// Wall-clock of racing every kernel in `set` on `cgra` with a 3-variant
/// portfolio, sharing on or off, once. Four workers force sibling
/// concurrency even on a 1-CPU runner (where one worker per hardware
/// thread would serialize the portfolio out of existence).
fn time_portfolio_once(set: &[Kernel], cgra: &Cgra, share: ShareConfig) -> (f64, ShareTraffic) {
    let config = EngineConfig {
        portfolio: 3,
        race_width: 2,
        workers: 4,
        share,
        ..EngineConfig::default()
    };
    let mut traffic = ShareTraffic::default();
    let t0 = Instant::now();
    for kernel in set {
        let raced = map_raced(&kernel.dfg, cgra, &config);
        assert!(raced.ii().is_some(), "{} must map", kernel.name());
        traffic.exported += raced.stats.shared_exported;
        traffic.imported += raced.stats.shared_imported;
        traffic.dropped += raced.stats.shared_dropped;
    }
    (t0.elapsed().as_secs_f64() * 1e3, traffic)
}

fn main() {
    // Progress tables go through obs at info level; keep them visible by
    // default unless the user asked for a specific filter.
    if std::env::var("SATMAPIT_LOG").is_err() {
        obs::log::set_filter("info");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps: u32 = 3;
    let mut out = String::from("BENCH_solver.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out takes a path").clone();
            }
            other => {
                // lint: allow(log-discipline) -- usage errors are stderr's contract
                eprintln!("usage: solver_bench [--reps N] [--out PATH] (got {other:?})");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(reps > 0, "--reps must be positive");

    let multi_rung = multi_rung_kernels();
    let suite = satmapit_kernels::all();
    let mut json = String::from("{\n  \"bench\": \"solver\",\n");
    let _ = writeln!(json, "  \"reps\": {reps},");

    // 1. Wall-clock ablation grid: (kernel set × mesh) × variant.
    let grids: [(&str, &[Kernel], usize); 3] = [
        ("ladder_2x2_suite", &suite, 2),
        ("ladder_2x2_multi_rung", &multi_rung, 2),
        ("ladder_3x3_multi_rung", &multi_rung, 3),
    ];
    let mut grid_latencies: Vec<(&str, Vec<(&'static str, Histogram)>)> = Vec::new();
    json.push_str("  \"ladders_ms\": {\n");
    for (gi, (grid_label, set, size)) in grids.iter().enumerate() {
        let cgra = Cgra::square(*size as u16);
        let _ = write!(json, "    \"{grid_label}\": {{");
        let variant_set = variants();
        let (minima, latencies) = time_variants(set, &cgra, &variant_set, reps);
        for (vi, (variant, &ms)) in variant_set.iter().zip(&minima).enumerate() {
            obs::info!(
                "satmapit::bench::solver",
                "{grid_label:24} {:24} {:>9.1} ms",
                variant.label,
                ms
            );
            let sep = if vi == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{}\": {}", variant.label, json_num(ms));
        }
        let sep = if gi + 1 == grids.len() { "" } else { "," };
        let _ = writeln!(json, "}}{sep}");
        let mut per_grid: Vec<(&'static str, Histogram)> =
            variant_set.iter().map(|v| v.label).zip(latencies).collect();

        // Head-to-head backend pass on the same grid: the default-config
        // SAT ladder vs the monomorphism backend, interleaved per
        // repetition like the variants. Each backend must map every
        // kernel in the set (asserted inside `time_backend_once`), so a
        // morph regression that stops solving suite kernels fails the
        // bench outright. The full-suite grid is excluded: `hotspot`
        // sits in morph's small-mesh blind spot (its feasible rung at
        // 2x2/3x3 has a huge candidate space with sparse solutions and
        // does not finish in bench budget; it maps fine at 4x4, pinned
        // by the cross-backend agreement suite).
        if *grid_label == "ladder_2x2_suite" {
            grid_latencies.push((grid_label, per_grid));
            continue;
        }
        let backend_config = MapperConfig::default();
        let mut backend_best = [f64::INFINITY; BACKENDS.len()];
        let mut backend_lat = vec![Histogram::new(); BACKENDS.len()];
        for _ in 0..reps {
            for (bi, &(_, kind)) in BACKENDS.iter().enumerate() {
                backend_best[bi] = backend_best[bi].min(time_backend_once(
                    set,
                    &cgra,
                    kind,
                    &backend_config,
                    &mut backend_lat[bi],
                ));
            }
        }
        for (&(label, _), (&ms, hist)) in BACKENDS.iter().zip(backend_best.iter().zip(backend_lat))
        {
            obs::info!(
                "satmapit::bench::solver",
                "{grid_label:24} backend:{label:16} {ms:>9.1} ms"
            );
            per_grid.push((label, hist));
        }
        grid_latencies.push((grid_label, per_grid));
    }
    json.push_str("  },\n");

    // Per-kernel ladder-time distributions from the same passes: every
    // individual kernel solve (all repetitions pooled) lands in a
    // log-bucketed histogram, and p50/p99 go into the JSON so the bench
    // trajectory tracks tail latency, not just suite totals.
    json.push_str("  \"ladder_latency_us\": {\n");
    for (gi, (grid_label, per_variant)) in grid_latencies.iter().enumerate() {
        let _ = writeln!(json, "    \"{grid_label}\": {{");
        for (vi, (label, hist)) in per_variant.iter().enumerate() {
            let snap = hist.snapshot();
            obs::info!(
                "satmapit::bench::solver",
                "{grid_label:24} {label:24} p50={:>8} us  p99={:>8} us  (n={})",
                snap.p50,
                snap.p99,
                snap.count
            );
            let sep = if vi + 1 == per_variant.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "      \"{label}\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}{sep}",
                snap.count, snap.p50, snap.p99, snap.max,
            );
        }
        let sep = if gi + 1 == grid_latencies.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "    }}{sep}");
    }
    json.push_str("  },\n");

    // 2. Portfolio clause-sharing ablation: the multi-rung kernels at 2x2
    //    through a 3-variant portfolio race, sharing off vs on,
    //    interleaved per repetition like the ladder grid. The share-on
    //    pass must show real traffic (`shared_imported > 0`) — asserted
    //    here so CI fails the moment sharing rots into a silent no-op.
    {
        let cgra = Cgra::square(2);
        let mut best = [f64::INFINITY; 2];
        let mut imported_any = 0u64;
        let mut last_traffic = ShareTraffic::default();
        for _ in 0..reps {
            for (vi, share) in [ShareConfig::off(), ShareConfig::on()]
                .into_iter()
                .enumerate()
            {
                let (ms, traffic) = time_portfolio_once(&multi_rung, &cgra, share);
                best[vi] = best[vi].min(ms);
                if share.enabled {
                    imported_any += traffic.imported;
                    last_traffic = traffic;
                }
            }
        }
        obs::info!(
            "satmapit::bench::solver",
            "portfolio_share_2x2      share_off                {:>9.1} ms",
            best[0]
        );
        obs::info!(
            "satmapit::bench::solver",
            "portfolio_share_2x2      share_on                 {:>9.1} ms  (exported={} imported={} dropped={})",
            best[1],
            last_traffic.exported,
            last_traffic.imported,
            last_traffic.dropped
        );
        let _ = writeln!(
            json,
            "  \"portfolio_share_2x2_ms\": {{\"share_off\": {}, \"share_on\": {}}},",
            json_num(best[0]),
            json_num(best[1]),
        );
        let _ = writeln!(
            json,
            "  \"portfolio_share_2x2_traffic\": {{\"exported\": {}, \"imported\": {}, \"dropped\": {}}},",
            last_traffic.exported, last_traffic.imported, last_traffic.dropped,
        );
        assert!(
            imported_any > 0,
            "share-on portfolio runs must import sibling clauses; \
             0 imports means sharing has rotted into a no-op"
        );
    }

    // 3. Arena waste after a full multi-rung ladder (GC on, default
    //    config): the acceptance bound is waste ≤ 25 % of the arena.
    json.push_str("  \"arena_after_ladder\": [\n");
    let arena_cells: Vec<(&Kernel, u16)> = multi_rung
        .iter()
        .flat_map(|k| [(k, 2u16), (k, 3u16)])
        .collect();
    for (ki, &(kernel, size)) in arena_cells.iter().enumerate() {
        let (ii, stats) = arena_after_ladder(kernel, &Cgra::square(size));
        let fraction = stats.arena_wasted as f64 / stats.arena_words.max(1) as f64;
        obs::info!(
            "satmapit::bench::solver",
            "arena {:14} {size}x{size} ii={ii:<3} words={:<9} wasted={:<8} ({:.1} %) gc_runs={} lits_reclaimed={}",
            kernel.name(),
            stats.arena_words,
            stats.arena_wasted,
            fraction * 100.0,
            stats.gc_runs,
            stats.lits_reclaimed,
        );
        let sep = if ki + 1 == arena_cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"cgra\": \"{size}x{size}\", \"mapped_ii\": {ii}, \
             \"arena_words\": {}, \"arena_wasted\": {}, \"waste_fraction\": {}, \
             \"gc_runs\": {}, \"lits_reclaimed\": {}}}{sep}",
            kernel.name(),
            stats.arena_words,
            stats.arena_wasted,
            json_num(fraction),
            stats.gc_runs,
            stats.lits_reclaimed,
        );
        assert!(
            fraction <= 0.25,
            "post-ladder arena waste must stay below 25 % (got {:.1} %)",
            fraction * 100.0
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out, &json).expect("write BENCH_solver.json");
    println!("{json}");
    obs::info!("satmapit::bench::solver", "wrote {out}");
}

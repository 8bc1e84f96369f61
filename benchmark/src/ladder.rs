//! The compile-time workloads: in-process, sequential `Mapper::run` over
//! a set of cells — what a compiler driver calling `satmapit map` waits
//! for.

use crate::cells::{build_cells, labels, Cell, ExpectedRow, Rng};
use crate::metrics::{Report, Round, Rounds};
use crate::spans::{self, Recorder};
use crate::{procfs, stats, LOG_TARGET};
use satmapit_core::encoder::{encode_with_options, EncodeOptions};
use satmapit_core::{
    allocate_registers, decode_model, validate_mapping, AttemptOutcome, MapFailure, MapOutcome,
    MappedLoop, Mapper, MapperConfig,
};
use satmapit_morph::MorphMapper;
use satmapit_obs as obs;
use satmapit_sat::{SolveLimits, SolveResult, Solver};
use satmapit_schedule::{mii, Kms, MobilitySchedule};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of one monomorphism rung in the traced pass. The
/// backend closes most UNSAT rungs at the root in microseconds and loses
/// dense feasible searches by orders of magnitude; the budget keeps a
/// traced run inside the benchmark's time cap and the timeouts are
/// counted, not hidden.
const MORPH_RUNG_BUDGET: Duration = Duration::from_millis(150);

/// One of the three ladder workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ladder {
    /// Cells at 2x2/3x3/4x4 whose minimal II lies above MII: the ladder
    /// climbs through UNSAT rungs, so CDCL refutation dominates.
    /// `patricia` 4x4 is left out: at 1.5 s it is 40 % of the other 22
    /// cells together and would halve the repetitions a run affords.
    Refute,
    /// All cells at 2x2/3x3/4x4 started at their minimal II, as the
    /// engine starts a ladder from a proven bound: one SAT rung each.
    Feasible,
    /// The ten kernels other than `patricia` at 5x5/6x6/7x7: clause
    /// generation and clause loading dominate.
    Wide,
}

impl Ladder {
    fn meshes(self) -> &'static [u16] {
        match self {
            Ladder::Refute | Ladder::Feasible => &[2, 3, 4],
            Ladder::Wide => &[5, 6, 7],
        }
    }

    fn keeps(self, row: &ExpectedRow) -> bool {
        match self {
            Ladder::Refute => row.ii > row.mii,
            Ladder::Feasible | Ladder::Wide => true,
        }
    }

    fn config(self, cell: &Cell) -> MapperConfig {
        match self {
            Ladder::Refute | Ladder::Wide => MapperConfig::default(),
            Ladder::Feasible => MapperConfig {
                start_ii: Some(cell.ii),
                ..MapperConfig::default()
            },
        }
    }

    /// The II the first rung of `cell` must carry.
    fn first_rung(self, cell: &Cell) -> u32 {
        match self {
            Ladder::Refute | Ladder::Wide => cell.mii,
            Ladder::Feasible => cell.ii,
        }
    }

    fn build(self, seed: u64) -> Result<Vec<Cell>, String> {
        let salt = Rng::new(seed, 1).salt();
        build_cells(self.meshes(), salt, |row| self.keeps(row))
    }
}

/// Checks one finished `Mapper::run` against the pinned table.
fn check_outcome(kind: Ladder, cell: &Cell, outcome: &MapOutcome) -> Result<(), String> {
    match outcome.ii() {
        Some(ii) if ii == cell.ii => {}
        Some(ii) => return Err(format!("{}: II {ii}, expected {}", cell.label, cell.ii)),
        None => {
            return Err(format!(
                "{}: no mapping ({:?}), expected II {}",
                cell.label,
                outcome.result.as_ref().err(),
                cell.ii
            ))
        }
    }
    let first = outcome.attempts.first().map(|a| a.ii);
    if first != Some(kind.first_rung(cell)) {
        return Err(format!(
            "{}: ladder started at {first:?}, expected {}",
            cell.label,
            kind.first_rung(cell)
        ));
    }
    Ok(())
}

/// Validates a mapping independently and executes it against the
/// reference interpreter. Returns the time spent.
pub fn verify(cell: &Cell, mapped: &MappedLoop) -> (Result<(), String>, Duration) {
    let t = Instant::now();
    let result = (|| {
        validate_mapping(&cell.kernel.dfg, &cell.cgra, &mapped.mapping)
            .map_err(|v| format!("{}: mapping violates {v:?}", cell.label))?;
        satmapit_sim::verify_mapping(
            &cell.kernel.dfg,
            &cell.cgra,
            mapped,
            cell.kernel.memory.clone(),
            cell.kernel.sim_iterations,
        )
        .map_err(|e| format!("{}: execution mismatch: {e}", cell.label))?;
        Ok(())
    })();
    (result, t.elapsed())
}

fn timed_run(cell: &Cell, config: &MapperConfig) -> (MapOutcome, f64) {
    let t = Instant::now();
    let outcome = Mapper::new(black_box(&cell.kernel.dfg), black_box(&cell.cgra))
        .with_config(config.clone())
        .run();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (black_box(outcome), ms)
}

/// Builds the workload's inputs, timing the construction.
fn timed_build(kind: Ladder, seed: u64, setups: &mut Vec<f64>) -> Result<Vec<Cell>, String> {
    let t = Instant::now();
    let cells = black_box(kind.build(seed)?);
    setups.push(t.elapsed().as_secs_f64());
    Ok(cells)
}

/// `wait_tail_ms` of the ladder workloads: four loops in five map
/// within it (the 19th of 23 cells, the 27th of 33, the 24th of 30).
const TAIL_QUANTILE: f64 = 0.8;

/// The untraced run: every end-to-end metric. Without `seconds` it is
/// the memory probe: one set-up and one round, nothing else.
pub fn run_untraced(kind: Ladder, seed: u64, seconds: Option<f64>) -> Result<Report, String> {
    let mut report = Report::new();
    // Set-up is sub-millisecond here: it is repeated after every round
    // (outside the timed regions) so that `setup_s` samples the whole
    // run like the waits do.
    let mut setups = Vec::new();
    let cells = timed_build(kind, seed, &mut setups)?;
    let configs: Vec<MapperConfig> = cells.iter().map(|c| kind.config(c)).collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut rng = Rng::new(seed, 2);

    let mut rounds = Rounds::new(cells.len(), TAIL_QUANTILE);
    let mut last: Vec<Option<MapOutcome>> = vec![None; cells.len()];
    let t0 = Instant::now();
    // A round visits every cell once, so a cell's repetitions are spread
    // over the whole run and drift hits all cells alike. The first round
    // is in table order, so that the memory probe allocates in the same
    // sequence whatever the seed; later rounds are shuffled. There is no
    // warm-up: the first round pays for the cold allocator and caches,
    // and the quiet quartile across rounds leaves it out.
    while rounds.len() == 0 || t0.elapsed().as_secs_f64() < seconds.unwrap_or(0.0) {
        if rounds.len() > 0 {
            rng.shuffle(&mut order);
        }
        let cpu0 = procfs::cpu_seconds()?;
        let mut waits_ms = Vec::with_capacity(cells.len());
        for &i in &order {
            let (outcome, ms) = timed_run(&cells[i], &configs[i]);
            waits_ms.push((i, ms));
            report.op(check_outcome(kind, &cells[i], &outcome));
            last[i] = Some(outcome);
        }
        rounds.push(Round {
            wall_s: waits_ms.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3,
            cpu_s: procfs::cpu_seconds()? - cpu0,
            waits_ms,
        });
        if seconds.is_some() {
            timed_build(kind, seed, &mut setups)?;
        }
    }
    report.values.set("setup_s", stats::median(&mut setups));
    rounds.summarise(&mut report.values)?;

    // Correctness, outside every timed region.
    for (cell, outcome) in cells.iter().zip(&last) {
        if let Some(Ok(mapped)) = outcome.as_ref().map(|o| &o.result) {
            if let (Err(why), _) = verify(cell, mapped) {
                report.fail(why);
            }
        }
    }
    crate::log_rounds(&labels(&cells), &rounds)?;
    Ok(report)
}

/// What the sequential ladder did on one rung: the part of a run that
/// must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RungCounts {
    ii: u32,
    mapped: bool,
    conflicts: u64,
    propagations: u64,
    clauses: usize,
}

fn rung_counts(attempts: &[satmapit_core::IiAttempt]) -> Vec<RungCounts> {
    attempts
        .iter()
        .map(|a| {
            let stats = a.solver_stats.clone().unwrap_or_default();
            RungCounts {
                ii: a.ii,
                mapped: a.outcome == AttemptOutcome::Mapped,
                conflicts: stats.conflicts,
                propagations: stats.propagations,
                clauses: a.encode_stats.clauses,
            }
        })
        .collect()
}

/// What [`traced_production`] saw of one cell's ladder.
struct Production {
    attempts: Vec<satmapit_core::IiAttempt>,
    mapped: Option<MappedLoop>,
    /// Microseconds in `core.rung` spans, by verdict: `[unsat, sat]`.
    rung_us: [f64; 2],
}

/// The production ladder of one cell, rung by rung under spans — the
/// same calls `Mapper::run` makes, from the harness.
fn traced_production(
    rec: &mut Recorder,
    op: u32,
    cell: &Cell,
    config: &MapperConfig,
) -> Result<Production, MapFailure> {
    let mapper = Mapper::new(&cell.kernel.dfg, &cell.cgra).with_config(config.clone());
    let (prepared, _) = rec.time("core.prepare", op, || mapper.prepare());
    let prepared = prepared?;
    let (ladder, _) = rec.time("core.ladder_open", op, || prepared.ladder());
    let mut ladder = ladder?;
    let mut production = Production {
        attempts: Vec::new(),
        mapped: None,
        rung_us: [0.0; 2],
    };
    let mut ii = prepared.start_ii();
    while ii <= config.max_ii {
        let (result, d) = rec.time("core.rung", op, || {
            ladder.attempt_ii(ii, &SolveLimits::none())
        });
        let rung = result?;
        production.rung_us[usize::from(rung.mapped.is_some())] += d.as_secs_f64() * 1e6;
        production.attempts.push(rung.attempt);
        if rung.mapped.is_some() || rung.proven_unmappable {
            production.mapped = rung.mapped;
            break;
        }
        ii += 1;
    }
    Ok(production)
}

/// Totals of the replayed pipeline, split by the production verdict of
/// the rung being replayed.
#[derive(Debug, Default)]
struct Replay {
    /// Replayed parts of all rungs, microseconds.
    parts_us: f64,
    solve_us_unsat: f64,
    solve_us_sat: f64,
    propagations: u64,
}

/// Replays one production rung from scratch through the public pipeline,
/// one span per call.
#[allow(clippy::too_many_arguments)] // one rung's worth of context
fn replay_rung(
    rec: &mut Recorder,
    op: u32,
    cell: &Cell,
    config: &MapperConfig,
    ms: &MobilitySchedule,
    rung: &RungCounts,
    replay: &mut Replay,
    report: &mut Report,
) {
    let dfg = &cell.kernel.dfg;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let slack = config.slack.slack(rung.ii);
    let (kms, d) = rec.time("schedule.kms_fold", op, || {
        Kms::build_with_slack(ms, rung.ii, slack)
    });
    replay.parts_us += us(d);
    let options = EncodeOptions {
        amo: config.amo,
        register_pressure: config.register_pressure,
    };
    let (enc, d) = rec.time("core.encode", op, || {
        encode_with_options(dfg, &cell.cgra, &kms, options)
    });
    replay.parts_us += us(d);
    let enc = match enc {
        Ok(enc) => enc,
        Err(e) => return report.fail(format!("{}: replay encode failed: {e}", cell.label)),
    };
    report
        .values
        .add("core.encode_vars", enc.stats.total_vars as f64);
    report
        .values
        .add("core.encode_clauses", enc.stats.clauses as f64);
    if enc.stats.clauses != rung.clauses {
        report.fail(format!(
            "{} II={}: replay encoded {} clauses, production {}",
            cell.label, rung.ii, enc.stats.clauses, rung.clauses
        ));
    }
    let (mut solver, d) = rec.time("sat.load", op, || {
        Solver::from_cnf_with(&enc.formula, &config.solver)
    });
    replay.parts_us += us(d);
    let (verdict, d) = rec.time("sat.solve", op, || solver.solve());
    replay.parts_us += us(d);
    replay.propagations += solver.stats().propagations;
    if rung.mapped {
        replay.solve_us_sat += us(d);
    } else {
        replay.solve_us_unsat += us(d);
    }
    // The scratch formulation must agree with the incremental ladder on
    // every verdict (register-allocation cuts aside, which the default
    // suite never needs — `core.ra_cuts` reports them).
    match (verdict, rung.mapped) {
        (SolveResult::Sat, true) | (SolveResult::Unsat, false) => {}
        (other, _) => {
            return report.fail(format!(
                "{} II={}: replay says {other:?}, production mapped={}",
                cell.label, rung.ii, rung.mapped
            ))
        }
    }
    if verdict != SolveResult::Sat {
        return;
    }
    let model = solver.model().expect("SAT result has a model");
    let (mapping, d) = rec.time("core.decode", op, || {
        decode_model(dfg, &kms, &enc.varmap, model)
    });
    replay.parts_us += us(d);
    let mapping = match mapping {
        Ok(mapping) => mapping,
        Err(e) => return report.fail(format!("{}: replay decode failed: {e}", cell.label)),
    };
    let (valid, d) = rec.time("core.validate", op, || {
        validate_mapping(dfg, &cell.cgra, &mapping)
    });
    replay.parts_us += us(d);
    if let Err(v) = valid {
        report.fail(format!("{}: replayed mapping violates {v:?}", cell.label));
    }
    let (registers, d) = rec.time("regalloc.allocate", op, || {
        allocate_registers(dfg, &cell.cgra, &mapping, config.regalloc_budget)
    });
    replay.parts_us += us(d);
    if registers.is_err() {
        report.values.add("regalloc.failures", 1.0);
    }
}

/// The monomorphism backend on the rungs the production ladder visited.
fn morph_rungs(
    rec: &mut Recorder,
    op: u32,
    cell: &Cell,
    config: &MapperConfig,
    rungs: &[RungCounts],
    report: &mut Report,
    root_refuted: &mut u64,
) {
    let prepared = match MorphMapper::new(&cell.kernel.dfg, &cell.cgra)
        .with_config(config.clone())
        .prepare()
    {
        Ok(p) => p,
        Err(e) => return report.fail(format!("{}: morph prepare failed: {e}", cell.label)),
    };
    for rung in rungs {
        let limits = SolveLimits::none().with_timeout(MORPH_RUNG_BUDGET);
        let name = if rung.mapped {
            "morph.rung_sat"
        } else {
            "morph.rung_unsat"
        };
        let (result, _) = rec.time(name, op, || prepared.attempt_ii(rung.ii, &limits));
        match result {
            Err(MapFailure::Timeout { .. }) => {
                let counter = if rung.mapped {
                    "morph.sat_rung_timeouts"
                } else {
                    "morph.unsat_rung_timeouts"
                };
                report.values.add(counter, 1.0);
            }
            Err(e) => report.fail(format!("{} II={}: morph failed: {e}", cell.label, rung.ii)),
            Ok(attempt) => {
                // Two exact backends must agree wherever both finish.
                let mapped = attempt.attempt.outcome == AttemptOutcome::Mapped;
                if mapped != rung.mapped {
                    report.fail(format!(
                        "{} II={}: morph says {:?}, SAT mapped={}",
                        cell.label, rung.ii, attempt.attempt.outcome, rung.mapped
                    ));
                }
                let dead_ends = attempt.attempt.solver_stats.map_or(0, |s| s.conflicts);
                if !mapped && dead_ends == 0 {
                    *root_refuted += 1;
                }
            }
        }
    }
}

/// The traced run: every per-layer metric, the determinism check, and
/// the Chrome trace.
pub fn run_traced(kind: Ladder, seed: u64, trace_out: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::new();
    let cells = kind.build(seed)?;
    let configs: Vec<MapperConfig> = cells.iter().map(|c| kind.config(c)).collect();
    let mut rec = Recorder::new(Instant::now(), 1);

    // Warm-up, as before the untraced run's timed rounds: without it
    // pass A would pay for the cold allocator and caches and the traced
    // pass B would look cheaper than the untraced one.
    for (cell, config) in cells.iter().zip(&configs) {
        let (outcome, _) = timed_run(cell, config);
        report.op(check_outcome(kind, cell, &outcome));
    }

    // Pass A — untraced production: the reference for the tracing
    // overhead and the first of the two determinism samples.
    let mut untraced_ms = 0.0;
    let mut counts_a = Vec::with_capacity(cells.len());
    for (cell, config) in cells.iter().zip(&configs) {
        let (outcome, ms) = timed_run(cell, config);
        untraced_ms += ms;
        report.op(check_outcome(kind, cell, &outcome));
        counts_a.push(rung_counts(&outcome.attempts));
    }

    // Pass B — the same ladder, driven rung by rung under spans.
    let mut counts_b = Vec::with_capacity(cells.len());
    let mut mapped_b = Vec::with_capacity(cells.len());
    let mut rung_us = [0.0f64; 2];
    for (i, (cell, config)) in cells.iter().zip(&configs).enumerate() {
        rec.enter("harness.op", i as u32);
        let result = traced_production(&mut rec, i as u32, cell, config);
        rec.exit();
        match result {
            Ok(Production {
                attempts,
                mapped,
                rung_us: cell_rung_us,
            }) => {
                rung_us[0] += cell_rung_us[0];
                rung_us[1] += cell_rung_us[1];
                let v = &mut report.values;
                for a in &attempts {
                    v.add("core.ra_cuts", f64::from(a.ra_cuts));
                    if let Some(s) = &a.solver_stats {
                        v.add("sat.conflicts", s.conflicts as f64);
                        v.add("sat.propagations", s.propagations as f64);
                        v.add("sat.decisions", s.decisions as f64);
                        v.add("sat.restarts", s.restarts as f64);
                        v.add("sat.gc_runs", s.gc_runs as f64);
                        let peak = v.get("sat.arena_words_peak").max(s.arena_words as f64);
                        v.set("sat.arena_words_peak", peak);
                    }
                }
                let kept = attempts
                    .last()
                    .and_then(|a| a.solver_stats.as_ref())
                    .map_or(0, |s| s.learnt_clauses);
                v.add("sat.learnt_kept", kept as f64);
                let ii = mapped.as_ref().map(MappedLoop::ii);
                report.op(if ii == Some(cell.ii) {
                    Ok(())
                } else {
                    Err(format!("{}: traced ladder ended on {ii:?}", cell.label))
                });
                counts_b.push(rung_counts(&attempts));
                mapped_b.push(mapped);
            }
            Err(e) => {
                report.op(Err(format!("{}: traced ladder failed: {e}", cell.label)));
                counts_b.push(Vec::new());
                mapped_b.push(None);
            }
        }
    }
    let deterministic = counts_a == counts_b;
    if !deterministic {
        report.fail("sequential ladder counters differ between two runs".to_string());
    }

    // Pass C — every visited rung again, from scratch, part by part.
    let mut replay = Replay::default();
    for (i, (cell, config)) in cells.iter().zip(&configs).enumerate() {
        let op = i as u32;
        rec.enter("harness.replay", op);
        let (ms, _) = rec.time("schedule.prepare", op, || {
            let ms = MobilitySchedule::compute(&cell.kernel.dfg);
            black_box(mii(&cell.kernel.dfg, &cell.cgra));
            ms
        });
        match ms {
            Ok(ms) => {
                for rung in &counts_b[i] {
                    replay_rung(
                        &mut rec,
                        op,
                        cell,
                        config,
                        &ms,
                        rung,
                        &mut replay,
                        &mut report,
                    );
                }
            }
            Err(e) => report.fail(format!("{}: mobility schedule failed: {e}", cell.label)),
        }
        rec.exit();
    }

    // Pass D — the second backend on the same rungs.
    let mut root_refuted = 0;
    for (i, (cell, config)) in cells.iter().zip(&configs).enumerate() {
        rec.enter("harness.morph", i as u32);
        morph_rungs(
            &mut rec,
            i as u32,
            cell,
            config,
            &counts_b[i],
            &mut report,
            &mut root_refuted,
        );
        rec.exit();
    }

    // Correctness of pass B's mappings, outside every span.
    let mut verify_us = 0.0;
    for (cell, mapped) in cells.iter().zip(&mapped_b) {
        if let Some(mapped) = mapped {
            let (result, d) = verify(cell, mapped);
            verify_us += d.as_secs_f64() * 1e6;
            if let Err(why) = result {
                report.fail(why);
            }
        }
    }

    let totals = spans::totals_by_name(&[&rec]);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_us);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64;
    let rungs_unsat: u64 = counts_b.iter().flatten().filter(|r| !r.mapped).count() as u64;
    let rungs_sat: u64 = counts_b.iter().flatten().filter(|r| r.mapped).count() as u64;
    let clauses = report.values.get("core.encode_clauses");
    let v = &mut report.values;
    v.set("schedule.prepare_us", total("schedule.prepare"));
    v.set("schedule.kms_fold_us", total("schedule.kms_fold"));
    v.set("core.prepare_us", total("core.prepare"));
    v.set("core.ladder_open_us", total("core.ladder_open"));
    v.set("core.rung_us_unsat", rung_us[0]);
    v.set("core.rung_us_sat", rung_us[1]);
    v.set("core.rungs_unsat", rungs_unsat as f64);
    v.set("core.rungs_sat", rungs_sat as f64);
    v.set("core.replay_gap_us", total("core.rung") - replay.parts_us);
    v.set("core.encode_us", total("core.encode"));
    v.set(
        "core.encode_ns_per_clause",
        total("core.encode") * 1e3 / clauses.max(1.0),
    );
    v.set("core.decode_us", total("core.decode"));
    v.set("core.validate_us", total("core.validate"));
    v.set("sat.load_us", total("sat.load"));
    v.set(
        "sat.load_ns_per_clause",
        total("sat.load") * 1e3 / clauses.max(1.0),
    );
    v.set("sat.solve_us_unsat", replay.solve_us_unsat);
    v.set("sat.solve_us_sat", replay.solve_us_sat);
    v.set(
        "sat.props_per_us",
        replay.propagations as f64 / total("sat.solve").max(1e-9),
    );
    v.set("regalloc.allocate_us", total("regalloc.allocate"));
    v.set("morph.rung_us_unsat", total("morph.rung_unsat"));
    v.set("morph.rung_us_sat", total("morph.rung_sat"));
    v.set(
        "morph.root_refuted_ratio",
        root_refuted as f64 / count("morph.rung_unsat").max(1.0),
    );
    v.set("sim.verify_us", verify_us);
    let traced_ms = total("harness.op") / 1e3;
    v.set("obs.trace_overhead_ratio", traced_ms / untraced_ms);
    let covered = total("core.prepare") + total("core.ladder_open") + total("core.rung");
    v.set("harness.span_coverage_ratio", covered / total("harness.op"));

    // The shares the workloads were chosen for, for the human reader.
    let parts = replay.parts_us.max(1e-9);
    obs::info!(
        LOG_TARGET,
        "deterministic: {deterministic}; replayed rungs: CDCL {:.1} % (unsat {:.1} %), \
         encode {:.1} %, load {:.1} %, fold+decode+validate+regalloc {:.1} %; \
         production rungs {:.1} ms vs replayed parts {:.1} ms",
        100.0 * total("sat.solve") / parts,
        100.0 * replay.solve_us_unsat / parts,
        100.0 * total("core.encode") / parts,
        100.0 * total("sat.load") / parts,
        100.0
            * (total("schedule.kms_fold")
                + total("core.decode")
                + total("core.validate")
                + total("regalloc.allocate"))
            / parts,
        total("core.rung") / 1e3,
        parts / 1e3,
    );
    crate::write_trace(trace_out, &[&rec])?;
    crate::log_span_table(&totals);
    Ok(report)
}

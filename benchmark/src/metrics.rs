//! The benchmark's metric names, and the result a run reports.
//!
//! `BENCHMARK.json` at the repo root declares the same names; a unit
//! test keeps the two in step. Every workload reports every end-to-end
//! metric in an untraced run and every per-layer metric in a traced run
//! (a layer the workload bypasses reads 0).

use crate::stats;
use satmapit_service::Json;
use std::collections::BTreeMap;

/// Name and unit of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The name used in `BENCHMARK.json`, the README and the output.
    pub name: &'static str,
    /// The unit printed next to every value.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system feels; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("peak_rss_mb", "MiB"),
    def("wait_sum_ms", "ms"),
    def("wait_geomean_ms", "ms"),
    def("wait_max_ms", "ms"),
    def("wait_p50_ms", "ms"),
    def("wait_tail_ms", "ms"),
    def("ops_per_s", "1/s"),
    def("cpu_ms_per_op", "ms"),
];

/// Single layers (the prefix is the crate name); measured in the traced
/// pass, from spans around the harness's calls into the layer.
pub const PER_LAYER: &[MetricDef] = &[
    def("schedule.prepare_us", "us"),
    def("schedule.kms_fold_us", "us"),
    def("core.prepare_us", "us"),
    def("core.ladder_open_us", "us"),
    def("core.rung_us_unsat", "us"),
    def("core.rung_us_sat", "us"),
    def("core.rungs_unsat", "count"),
    def("core.rungs_sat", "count"),
    def("core.ra_cuts", "count"),
    def("core.replay_gap_us", "us"),
    def("core.encode_us", "us"),
    def("core.encode_ns_per_clause", "ns"),
    def("core.encode_vars", "count"),
    def("core.encode_clauses", "count"),
    def("core.decode_us", "us"),
    def("core.validate_us", "us"),
    def("sat.load_us", "us"),
    def("sat.load_ns_per_clause", "ns"),
    def("sat.solve_us_unsat", "us"),
    def("sat.solve_us_sat", "us"),
    def("sat.props_per_us", "1/us"),
    def("sat.conflicts", "count"),
    def("sat.propagations", "count"),
    def("sat.decisions", "count"),
    def("sat.restarts", "count"),
    def("sat.learnt_kept", "count"),
    def("sat.gc_runs", "count"),
    def("sat.arena_words_peak", "count"),
    def("regalloc.allocate_us", "us"),
    def("regalloc.failures", "count"),
    def("morph.rung_us_unsat", "us"),
    def("morph.rung_us_sat", "us"),
    def("morph.root_refuted_ratio", "ratio"),
    def("morph.unsat_rung_timeouts", "count"),
    def("morph.sat_rung_timeouts", "count"),
    def("engine.fingerprint_us", "us"),
    def("engine.cache_probe_us", "us"),
    def("engine.map_cold_us", "us"),
    def("engine.race_overhead_ratio", "ratio"),
    def("engine.race_tasks_started", "count"),
    def("engine.race_cancelled_ratio", "ratio"),
    def("engine.persist_encode_us", "us"),
    def("engine.persist_append_us", "us"),
    def("engine.persist_record_bytes", "B"),
    def("engine.persist_load_us_per_record", "us"),
    def("engine.persist_hit_us", "us"),
    def("service.wire_decode_us", "us"),
    def("service.wire_encode_us", "us"),
    def("service.request_bytes", "B"),
    def("service.response_bytes", "B"),
    def("service.client_encode_us", "us"),
    def("service.server_hit_us_p50", "us"),
    def("service.queue_wait_us_p50", "us"),
    def("service.solve_us_mean", "us"),
    def("net.health_rtt_us_p50", "us"),
    def("sim.verify_us", "us"),
    def("obs.trace_overhead_ratio", "ratio"),
    def("harness.span_coverage_ratio", "ratio"),
];

/// The values of one run, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` (which must be a declared metric of `defs` — checked
    /// when the report is rendered).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Adds to `name`, starting from 0.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// The value of `name`, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one invocation of the benchmark reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted (timed, warm-up and set-up operations alike).
    pub attempted: u64,
    /// Operations whose result was wrong, late or refused.
    pub failed: u64,
    /// Why operations failed, for the human-readable output.
    pub failures: Vec<String>,
    /// The metric values.
    pub values: Values,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: Values::default(),
        }
    }

    /// Books one attempted operation; `check` says what was wrong with
    /// it, if anything.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.fail(why);
        }
    }

    /// Books a failure that is not tied to a newly attempted operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// The result object the contract asks for as the last stdout line:
    /// every metric of `defs`, by name, with its unit.
    ///
    /// # Errors
    ///
    /// A value set under a name `defs` does not declare, or a value that
    /// is not a finite number: both are harness bugs worth failing on.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Json, String> {
        if let Some(stray) = self
            .values
            .0
            .keys()
            .find(|k| !defs.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric `{stray}` is not declared for this pass"));
        }
        let mut metrics = Vec::new();
        for d in defs {
            let value = self.values.get(d.name);
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite: {value}", d.name));
            }
            metrics.push((
                d.name,
                Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(d.unit.to_string())),
                ]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ]))
    }
}

/// The quantile across a run's rounds that a time-like metric reports:
/// the lower quartile (throughput reports the mirror image, the upper
/// quartile).
///
/// The reference box has stretches, from a second to most of a run, in
/// which everything takes 1.2x to 2.4x as long, so a median over rounds
/// reports what the neighbours were doing. The lower quartile reports
/// the program as long as a quarter of the rounds fall into a quiet
/// stretch, and with eight or more rounds it is not the single fastest
/// round either.
pub const QUIET_QUANTILE: f64 = 0.25;

/// The [`QUIET_QUANTILE`] of time-like samples (nearest rank).
///
/// # Panics
///
/// On no samples.
pub fn quiet(mut samples: Vec<f64>) -> f64 {
    stats::sort(&mut samples);
    stats::quantile(&samples, QUIET_QUANTILE)
}

/// One round of a timed run: every cell of the workload at least once.
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall seconds the round's operations took: the sum of the waits
    /// for a sequential caller, the span from the first request to the
    /// last reply for concurrent ones.
    pub wall_s: f64,
    /// User + system CPU seconds of the process over the round.
    pub cpu_s: f64,
    /// `(cell, milliseconds)` of every timed operation.
    pub waits_ms: Vec<(usize, f64)>,
}

/// The seven wait metrics of one round.
#[derive(Debug, Clone, Copy)]
struct RoundStats {
    sum_ms: f64,
    geomean_ms: f64,
    max_ms: f64,
    p50_ms: f64,
    tail_ms: f64,
    ops_per_s: f64,
    cpu_ms_per_op: f64,
}

/// The timed rounds of one untraced run.
#[derive(Debug, Clone)]
pub struct Rounds {
    cells: usize,
    tail_q: f64,
    rounds: Vec<Round>,
}

impl Rounds {
    /// Rounds over `cells` cells whose `wait_tail_ms` is the
    /// `tail_q`-quantile of a round's operations.
    pub fn new(cells: usize, tail_q: f64) -> Rounds {
        Rounds {
            cells,
            tail_q,
            rounds: Vec::new(),
        }
    }

    /// Adds a finished round.
    pub fn push(&mut self, round: Round) {
        self.rounds.push(round);
    }

    /// Rounds so far.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Timed operations so far.
    pub fn ops(&self) -> usize {
        self.rounds.iter().map(|r| r.waits_ms.len()).sum()
    }

    /// The percentile `wait_tail_ms` reports of each round, as a
    /// fraction, and how many operations of the whole run lie beyond it
    /// (a supported tail has [`stats::MIN_BEYOND`]).
    pub fn tail(&self) -> (f64, usize) {
        let beyond = self
            .rounds
            .iter()
            .map(|r| stats::samples_beyond(r.waits_ms.len(), self.tail_q))
            .sum();
        (self.tail_q, beyond)
    }

    /// The wait of each cell in `round`: the median of its operations
    /// there (the one operation, where a round visits a cell once).
    fn cell_waits(&self, round: &Round) -> Result<Vec<f64>, String> {
        let mut per_cell = vec![Vec::new(); self.cells];
        for &(cell, ms) in &round.waits_ms {
            per_cell[cell].push(ms);
        }
        per_cell
            .iter_mut()
            .enumerate()
            .map(|(cell, samples)| {
                if samples.is_empty() {
                    return Err(format!("cell {cell} was not timed in every round"));
                }
                Ok(stats::median(samples))
            })
            .collect()
    }

    fn round_stats(&self, round: &Round) -> Result<RoundStats, String> {
        let cells = self.cell_waits(round)?;
        let mut ops: Vec<f64> = round.waits_ms.iter().map(|&(_, ms)| ms).collect();
        stats::sort(&mut ops);
        Ok(RoundStats {
            sum_ms: cells.iter().sum(),
            geomean_ms: stats::geomean(&cells),
            max_ms: cells.iter().copied().fold(0.0, f64::max),
            p50_ms: stats::quantile(&ops, 0.5),
            tail_ms: stats::quantile(&ops, self.tail_q),
            ops_per_s: ops.len() as f64 / round.wall_s,
            cpu_ms_per_op: round.cpu_s * 1e3 / ops.len() as f64,
        })
    }

    /// Fills in the seven wait metrics: each is computed per round, and
    /// the run reports its [`QUIET_QUANTILE`] across rounds.
    ///
    /// # Errors
    ///
    /// No rounds, or a round that missed a cell.
    pub fn summarise(&self, values: &mut Values) -> Result<(), String> {
        if self.rounds.is_empty() {
            return Err("no timed round".to_string());
        }
        let stats = self
            .rounds
            .iter()
            .map(|r| self.round_stats(r))
            .collect::<Result<Vec<_>, _>>()?;
        for (k, (r, s)) in self.rounds.iter().zip(&stats).enumerate() {
            satmapit_obs::debug!(
                crate::LOG_TARGET,
                "round {k}: {:.4} s wall, {:.2} s CPU, {s:?}",
                r.wall_s,
                r.cpu_s
            );
        }
        let over_rounds = |f: fn(&RoundStats) -> f64| quiet(stats.iter().map(f).collect());
        values.set("wait_sum_ms", over_rounds(|s| s.sum_ms));
        values.set("wait_geomean_ms", over_rounds(|s| s.geomean_ms));
        values.set("wait_max_ms", over_rounds(|s| s.max_ms));
        values.set("wait_p50_ms", over_rounds(|s| s.p50_ms));
        values.set("wait_tail_ms", over_rounds(|s| s.tail_ms));
        // Higher is better: the quiet quartile is the upper one.
        values.set("ops_per_s", -over_rounds(|s| -s.ops_per_s));
        values.set("cpu_ms_per_op", over_rounds(|s| s.cpu_ms_per_op));
        Ok(())
    }

    /// Each cell's own row for the log: the [`QUIET_QUANTILE`] across
    /// rounds of its wait.
    ///
    /// # Errors
    ///
    /// No rounds, or a round that missed a cell.
    pub fn cell_rows_ms(&self) -> Result<Vec<f64>, String> {
        let per_round = self
            .rounds
            .iter()
            .map(|r| self.cell_waits(r))
            .collect::<Result<Vec<_>, _>>()?;
        if per_round.is_empty() {
            return Err("no timed round".to_string());
        }
        Ok((0..self.cells)
            .map(|cell| quiet(per_round.iter().map(|waits| waits[cell]).collect()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = satmapit_service::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    fn round(wall_s: f64, cpu_s: f64, waits_ms: &[(usize, f64)]) -> Round {
        Round {
            wall_s,
            cpu_s,
            waits_ms: waits_ms.to_vec(),
        }
    }

    #[test]
    fn metrics_are_per_round_and_the_run_reports_the_quiet_quartile() {
        // Two cells; the first is visited twice a round.
        let mut rounds = Rounds::new(2, 0.9);
        // Eight rounds, every k-th slowed down by a factor 1 + k.
        for k in 0..8 {
            let slow = 1.0 + f64::from(k);
            rounds.push(round(
                0.010 * slow,
                0.012 * slow,
                &[(0, 1.0 * slow), (1, 8.0 * slow), (0, 3.0 * slow)],
            ));
        }
        assert_eq!((rounds.len(), rounds.ops()), (8, 24));
        let mut values = Values::default();
        rounds.summarise(&mut values).unwrap();
        // The lower quartile of eight rounds is the second fastest
        // (slow = 2); a cell's wait in a round is its median there.
        assert_eq!(values.get("wait_sum_ms"), (2.0 + 8.0) * 2.0);
        assert!((values.get("wait_geomean_ms") - 4.0 * 2.0).abs() < 1e-12);
        assert_eq!(values.get("wait_max_ms"), 8.0 * 2.0);
        // Over operations, not cells: 1, 3, 8 → median 3, p90 8.
        assert_eq!(values.get("wait_p50_ms"), 3.0 * 2.0);
        assert_eq!(values.get("wait_tail_ms"), 8.0 * 2.0);
        assert!((values.get("ops_per_s") - 3.0 / 0.020).abs() < 1e-9);
        assert!((values.get("cpu_ms_per_op") - 24.0 / 3.0).abs() < 1e-9);
        assert_eq!(rounds.cell_rows_ms().unwrap(), vec![4.0, 16.0]);
    }

    #[test]
    fn a_round_that_misses_a_cell_is_an_error() {
        let mut rounds = Rounds::new(2, 0.9);
        assert!(rounds.summarise(&mut Values::default()).is_err());
        rounds.push(round(0.001, 0.001, &[(0, 1.0)]));
        assert!(rounds.summarise(&mut Values::default()).is_err());
        assert!(rounds.cell_rows_ms().is_err());
    }

    #[test]
    fn report_refuses_undeclared_and_non_finite_values() {
        let mut report = Report::new();
        report.op(Ok(()));
        report.op(Err("wrong II".into()));
        for d in END_TO_END {
            report.values.set(d.name, 1.5);
        }
        let json = report.to_json(END_TO_END).unwrap();
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("attempted").and_then(Json::as_i64), Some(2));
        assert_eq!(json.get("failed").and_then(Json::as_i64), Some(1));
        let line = json.to_string();
        assert!(
            line.contains(r#""setup_s":{"value":1.5,"unit":"s"}"#),
            "{line}"
        );

        report.values.set("sat.conflicts", 3.0);
        assert!(report.to_json(END_TO_END).is_err());
        let mut nan = Report::new();
        nan.values.set("setup_s", f64::NAN);
        assert!(nan.to_json(END_TO_END).is_err());
    }
}

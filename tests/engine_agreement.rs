//! Engine/sequential agreement: for every kernel in the suite that maps
//! on a 4x4 mesh, the engine must return the sequential mapper's best II
//! — and, rung for rung, the scratch oracle's trace and mapping — and the
//! result cache must return a byte-identical mapping on the second
//! lookup.

use sat_mapit::cgra::Cgra;
use sat_mapit::core::{
    run_ladder, validate_mapping, AttemptOutcome, MapOutcome, Mapper, MapperConfig,
};
use sat_mapit::dfg::Dfg;
use sat_mapit::engine::{solve, Engine, EngineConfig, Job};
use sat_mapit::kernels;
use sat_mapit::sim::verify_mapping;
use std::sync::Arc;
use std::time::Duration;

fn config_with_timeout() -> EngineConfig {
    EngineConfig {
        mapper: MapperConfig {
            timeout: Some(Duration::from_secs(120)),
            ..MapperConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// The paper's scratch loop, kept as a test oracle only: the shared II
/// driver over the one-shot `PreparedMapper::attempt_ii` — a fresh solver
/// per II, nothing carried between rungs.
fn scratch_run(dfg: &Dfg, cgra: &Cgra, config: &MapperConfig) -> MapOutcome {
    run_ladder(format_args!("scratch {}", dfg.name()), config, |rungs| {
        let prepared = Mapper::new(dfg, cgra)
            .with_config(config.clone())
            .prepare()?;
        rungs.climb(prepared.start_ii(), |ii, limits| {
            prepared.attempt_ii(ii, limits)
        })
    })
}

#[test]
fn incremental_ladder_matches_scratch_on_4x4_for_every_kernel() {
    // The tentpole guarantee: the incremental ladder (one live solver,
    // learned clauses carried across IIs, UNSAT-core bound tightening)
    // returns the same best II as the paper's scratch loop on the whole
    // suite.
    let cgra = Cgra::square(4);
    let base = config_with_timeout().mapper;
    for kernel in kernels::all() {
        let scratch = scratch_run(&kernel.dfg, &cgra, &base);
        let incremental = Mapper::new(&kernel.dfg, &cgra)
            .with_config(base.clone())
            .run();
        let scratch_ii = scratch
            .ii()
            .unwrap_or_else(|| panic!("{} should map (scratch) on 4x4", kernel.name()));
        assert_eq!(
            incremental.ii(),
            Some(scratch_ii),
            "{}: incremental ladder must return the scratch ladder's best II",
            kernel.name()
        );
        // The per-II traces agree rung for rung, not just on the answer.
        let scratch_trace: Vec<u32> = scratch.attempts.iter().map(|a| a.ii).collect();
        let incr_trace: Vec<u32> = incremental.attempts.iter().map(|a| a.ii).collect();
        assert_eq!(incr_trace, scratch_trace, "{}", kernel.name());
        // And the incremental winner is independently valid + executable.
        let mapped = incremental.result.expect("mapped above");
        assert!(validate_mapping(&kernel.dfg, &cgra, &mapped.mapping).is_ok());
        verify_mapping(&kernel.dfg, &cgra, &mapped, kernel.memory.clone(), 4)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    }
}

/// What a rung's trace entry pins: the II, its verdict and the search
/// effort that reached it — `(conflicts, decisions)`, when a solver ran
/// (wall-clock fields excluded).
type Rung = (u32, AttemptOutcome, Option<(u64, u64)>);

fn rung_trace(outcome: &MapOutcome) -> Vec<Rung> {
    outcome
        .attempts
        .iter()
        .map(|a| {
            let effort = a.solver_stats.as_ref().map(|s| (s.conflicts, s.decisions));
            (a.ii, a.outcome.clone(), effort)
        })
        .collect()
}

#[test]
fn engine_matches_sequential_on_4x4_for_every_kernel() {
    // The engine's miss path is the shared II driver over the backend's
    // one-shot attempts — the sequential scratch oracle, by construction:
    // the same per-II trace (II, outcome, conflicts, decisions) and the
    // same mapping, hence (by the test above) the live ladder's best II.
    // This is the pin that default-configuration answers (and every
    // cached record's `outcome_signature`) do not move.
    let cgra = Cgra::square(4);
    let config = config_with_timeout();
    for kernel in kernels::all() {
        let scratch = scratch_run(&kernel.dfg, &cgra, &config.mapper);
        let solved = solve(&kernel.dfg, &cgra, &config, None);
        assert!(
            scratch.ii().is_some(),
            "{} should map on 4x4",
            kernel.name()
        );
        assert_eq!(
            rung_trace(&solved.outcome),
            rung_trace(&scratch),
            "{}: engine trace must be the scratch oracle's",
            kernel.name()
        );
        assert_eq!(solved.stats.tasks_started as usize, scratch.attempts.len());
        let mapped = solved.outcome.result.expect("mapped above");
        let oracle = scratch.result.expect("same trace, so mapped too");
        assert_eq!(
            mapped.mapping,
            oracle.mapping,
            "{}: engine mapping must be the scratch oracle's",
            kernel.name()
        );
        // The engine's mapping is independently valid and executes to
        // the same values as the reference semantics.
        assert!(validate_mapping(&kernel.dfg, &cgra, &mapped.mapping).is_ok());
        verify_mapping(&kernel.dfg, &cgra, &mapped, kernel.memory.clone(), 4)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    }
}

#[test]
fn cache_returns_byte_identical_mapping_on_second_lookup() {
    let cgra = Cgra::square(4);
    let engine = Engine::new(config_with_timeout());
    for name in ["srand", "sha", "hotspot"] {
        let kernel = kernels::by_name(name).unwrap();
        let (first, cached_first) = engine.map(&kernel.dfg, &cgra);
        let (second, cached_second) = engine.map(&kernel.dfg, &cgra);
        assert!(!cached_first, "{name}: first lookup must solve");
        assert!(cached_second, "{name}: second lookup must hit the cache");
        assert!(
            Arc::ptr_eq(&first, &second),
            "{name}: cache must return the same allocation"
        );
        // Byte-identical down to the rendered representation.
        let a = format!("{:?}", first.outcome.result);
        let b = format!("{:?}", second.outcome.result);
        assert_eq!(a, b, "{name}");
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 3);
}

#[test]
fn batch_frontend_maps_the_suite_across_three_mesh_sizes() {
    // The acceptance scenario behind `satmapit batch`: the full suite
    // across 3x3, 4x4 and 5x5 through the engine, every job mapping.
    let engine = Engine::new(config_with_timeout());
    let mut jobs = Vec::new();
    for kernel in kernels::all() {
        for size in [3u16, 4, 5] {
            jobs.push(Job::new(
                format!("{}@{size}x{size}", kernel.name()),
                kernel.dfg.clone(),
                Cgra::square(size),
            ));
        }
    }
    let expected = jobs.len();
    let items = engine.map_batch(jobs);
    assert_eq!(items.len(), expected);
    for item in &items {
        assert!(
            item.outcome.ii().is_some(),
            "{} failed: {:?}",
            item.name,
            item.outcome.outcome.result
        );
    }
    assert_eq!(engine.cache_stats().entries, expected, "all jobs distinct");
}

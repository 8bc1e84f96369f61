//! Cross-backend agreement: the SAT ladder and the monomorphism backend
//! must pin the same best II on the whole suite, and the engine must
//! drive either of them to the answer of its sequential ladder. See
//! docs/backends.md for the soundness argument these tests pin down.

use sat_mapit::cgra::Cgra;
use sat_mapit::core::{validate_mapping, Mapper};
use sat_mapit::dfg::{Dfg, Op};
use sat_mapit::engine::{solve, BackendKind, Engine, EngineConfig};
use sat_mapit::kernels;
use sat_mapit::morph::MorphMapper;
use sat_mapit::sim::verify_mapping;
use std::time::Duration;

fn config(backend: BackendKind) -> EngineConfig {
    // Safety-net budget, not a real bound: the slowest arm of the suite
    // (sequential morph on `patricia` at 4x4) takes ~2 s in release but
    // ~106 s unoptimized, so debug builds get a far larger net to keep
    // the agreement assertions from degrading into timeout flakes on a
    // loaded machine.
    let timeout = if cfg!(debug_assertions) { 900 } else { 120 };
    EngineConfig {
        mapper: sat_mapit::core::MapperConfig {
            timeout: Some(Duration::from_secs(timeout)),
            ..sat_mapit::core::MapperConfig::default()
        },
        backend,
        ..EngineConfig::default()
    }
}

/// 1 const fanning out to 5 negations: on a 1x2 mesh the MII is 3 but
/// the first rungs are UNSAT, so a ladder must prove real infeasible IIs
/// before it maps.
fn fanout() -> (Dfg, Cgra) {
    let mut dfg = Dfg::new("fanout");
    let c = dfg.add_const(7);
    for _ in 0..5 {
        let n = dfg.add_node(Op::Neg);
        dfg.add_edge(c, n, 0);
    }
    (dfg, Cgra::new(1, 2))
}

/// On the full 11-kernel suite at 4x4, the sequential morph ladder
/// returns the sequential SAT mapper's best II, and its mapping is
/// independently valid and executable.
#[test]
fn all_backends_pin_the_same_best_ii_on_4x4_for_every_kernel() {
    let cgra = Cgra::square(4);
    let config = config(BackendKind::Morph);
    for kernel in kernels::all() {
        let sat = Mapper::new(&kernel.dfg, &cgra)
            .with_config(config.mapper.clone())
            .run();
        let sat_ii = sat
            .ii()
            .unwrap_or_else(|| panic!("{} should map (sat) on 4x4", kernel.name()));
        let morph = MorphMapper::new(&kernel.dfg, &cgra)
            .with_config(config.mapper.clone())
            .run();
        assert_eq!(
            morph.ii(),
            Some(sat_ii),
            "{}: morph best II must equal the SAT ladder's",
            kernel.name()
        );
        let mapped = morph.result.expect("mapped above");
        assert!(validate_mapping(&kernel.dfg, &cgra, &mapped.mapping).is_ok());
        verify_mapping(&kernel.dfg, &cgra, &mapped, kernel.memory.clone(), 4)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    }
}

/// `BackendKind::Morph` re-hosts the engine entirely on the morph
/// backend: same best II as the sequential morph ladder, and the win
/// counters attribute the mapping to morph.
#[test]
fn morph_backend_through_the_engine_matches_sequential_morph() {
    let cgra = Cgra::square(3);
    let cfg = config(BackendKind::Morph);
    for name in ["srand", "gsm", "nw"] {
        let kernel = kernels::by_name(name).unwrap();
        let sequential = MorphMapper::new(&kernel.dfg, &cgra)
            .with_config(cfg.mapper.clone())
            .run();
        let solved = solve(&kernel.dfg, &cgra, &cfg, None);
        assert_eq!(solved.ii(), sequential.ii(), "{name}");
        assert_eq!(
            solved.stats.sat_wins, 0,
            "{name}: the SAT backend never ran"
        );
        assert_eq!(solved.stats.morph_wins, 1, "{name}");
        let mapped = solved.outcome.result.expect("3x3 maps");
        assert!(validate_mapping(&kernel.dfg, &cgra, &mapped.mapping).is_ok());
    }
}

/// The batch engine aggregates the per-solve win counters into its
/// fleet-level cache statistics (what the daemon's `stats` response and
/// `satmapit batch --stats` report), and a bound one backend proved is a
/// rung the other never attempts: the proven-bound cache is keyed on the
/// problem alone.
#[test]
fn batch_engine_aggregates_cross_backend_counters() {
    let (dfg, cgra) = fanout();
    let sat = Engine::new(config(BackendKind::Sat));
    let (outcome, cached) = sat.map(&dfg, &cgra);
    assert!(!cached);
    let best = outcome.ii().expect("fanout maps on 1x2");
    assert!(outcome.outcome.attempts.len() > 1, "UNSAT rungs first");
    let stats = sat.cache_stats();
    assert_eq!((stats.sat_wins, stats.morph_wins), (1, 0), "{stats:?}");
    assert_eq!(sat.proven_bound(&dfg, &cgra), Some(best));

    let morph = Engine::new(config(BackendKind::Morph));
    let (outcome, _) = morph.map(&dfg, &cgra);
    assert_eq!(outcome.ii(), Some(best), "backends agree on fanout");
    let stats = morph.cache_stats();
    assert_eq!((stats.sat_wins, stats.morph_wins), (0, 1), "{stats:?}");

    // The SAT-proven bound lifts the morph backend's start: one rung.
    let lifted = solve(&dfg, &cgra, &config(BackendKind::Morph), Some(best));
    assert_eq!(lifted.ii(), Some(best));
    assert_eq!(lifted.outcome.attempts.len(), 1, "lower rungs skipped");
}

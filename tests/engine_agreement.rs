//! Engine/sequential agreement: for every kernel in the suite that maps
//! on a 4x4 mesh, the parallel engine must return the same best II as the
//! sequential mapper, and the result cache must return a byte-identical
//! mapping on the second lookup.

use proptest::prelude::*;
use sat_mapit::cgra::Cgra;
use sat_mapit::core::{run_ladder, validate_mapping, MapOutcome, Mapper, MapperConfig};
use sat_mapit::dfg::Dfg;
use sat_mapit::engine::{map_raced, Engine, EngineConfig, Job, ShareConfig};
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

#[test]
fn engine_matches_sequential_on_4x4_for_every_kernel() {
    let cgra = Cgra::square(4);
    let config = config_with_timeout();
    for kernel in kernels::all() {
        let sequential = Mapper::new(&kernel.dfg, &cgra)
            .with_config(config.mapper.clone())
            .run();
        let raced = map_raced(&kernel.dfg, &cgra, &config);
        let seq_ii = sequential
            .ii()
            .unwrap_or_else(|| panic!("{} should map sequentially on 4x4", kernel.name()));
        assert_eq!(
            raced.ii(),
            Some(seq_ii),
            "{}: engine best II must equal the sequential mapper's",
            kernel.name()
        );
        // The engine's winning mapping is independently valid and executes
        // to the same values as the reference semantics.
        let mapped = raced.outcome.result.expect("mapped above");
        assert!(validate_mapping(&kernel.dfg, &cgra, &mapped.mapping).is_ok());
        verify_mapping(&kernel.dfg, &cgra, &mapped, kernel.memory.clone(), 4)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    }
}

#[test]
fn engine_portfolio_matches_sequential_on_small_kernels() {
    let cgra = Cgra::square(4);
    let mut config = config_with_timeout();
    config.portfolio = 3;
    config.race_width = 2;
    for name in ["srand", "basicmath", "gsm", "nw"] {
        let kernel = kernels::by_name(name).unwrap();
        let sequential = Mapper::new(&kernel.dfg, &cgra)
            .with_config(config.mapper.clone())
            .run();
        let raced = map_raced(&kernel.dfg, &cgra, &config);
        assert_eq!(raced.ii(), sequential.ii(), "{name}");
    }
}

/// Clause sharing off (the default) is bit-identical to the pre-share
/// engine: no pools are allocated, no share traffic appears in the
/// telemetry, and a single-worker portfolio race — which executes its
/// tasks in a deterministic order — reproduces its result exactly.
#[test]
fn share_off_portfolio_race_is_bit_identical_and_the_default() {
    assert_eq!(ShareConfig::default(), ShareConfig::off());
    let cgra = Cgra::square(2);
    let mut config = config_with_timeout();
    config.portfolio = 2;
    config.race_width = 1;
    config.workers = 1;
    config.share = ShareConfig::off();
    for name in ["srand", "gsm", "stringsearch"] {
        let kernel = kernels::by_name(name).unwrap();
        let a = map_raced(&kernel.dfg, &cgra, &config);
        let b = map_raced(&kernel.dfg, &cgra, &config);
        assert_eq!(
            format!("{:?}", a.outcome.result),
            format!("{:?}", b.outcome.result),
            "{name}: share-off single-worker races must be reproducible"
        );
        assert_eq!(a.stats.shared_exported, 0, "{name}: no pool may exist");
        assert_eq!(a.stats.shared_imported, 0, "{name}");
        let sequential = Mapper::new(&kernel.dfg, &cgra)
            .with_config(config.mapper.clone())
            .run();
        assert_eq!(a.ii(), sequential.ii(), "{name}");
    }
}

/// The tentpole acceptance on real kernels: a sharing portfolio racing
/// the 2x2 suite returns the same best II as the sequential mapper (the
/// default search is exact, so every closure is a proof and sharing can
/// only change *which* model wins, never the II), and clauses actually
/// travel between siblings on the multi-rung kernels.
#[test]
fn share_on_portfolio_matches_sequential_on_the_2x2_suite() {
    let cgra = Cgra::square(2);
    let mut config = config_with_timeout();
    config.portfolio = 3;
    config.race_width = 2;
    config.share = ShareConfig::on();
    // Force sibling concurrency even on a 1-CPU runner: with the default
    // (one worker per hardware thread) a single-core box would run one
    // variant per II to completion and the portfolio — and therefore
    // sharing — would never materialize.
    config.workers = 4;
    let mut total_imported = 0u64;
    for kernel in kernels::all() {
        let sequential = Mapper::new(&kernel.dfg, &cgra)
            .with_config(config.mapper.clone())
            .run();
        let raced = map_raced(&kernel.dfg, &cgra, &config);
        assert_eq!(
            raced.ii(),
            sequential.ii(),
            "{}: sharing must not change the best II",
            kernel.name()
        );
        let mapped = raced.outcome.result.expect("2x2 suite maps");
        assert!(validate_mapping(&kernel.dfg, &cgra, &mapped.mapping).is_ok());
        total_imported += raced.stats.shared_imported;
    }
    assert!(
        total_imported > 0,
        "across the whole suite at portfolio 3, at least one sibling \
         clause must actually be imported"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Share-on never reports a *worse* (higher) best II than share-off,
    /// across randomly drawn suite kernels and share knobs. (With the
    /// exact default search both are equal; `<=` is what sharing's
    /// soundness argument guarantees even under freak scheduling.)
    #[test]
    fn share_on_is_never_worse_than_share_off_on_2x2(
        kernel_index in 0usize..11,
        lbd_max in 2u32..8,
        ring_cap in 64usize..2048,
        portfolio in 2usize..4,
    ) {
        let kernel = kernels::by_name(kernels::NAMES[kernel_index]).unwrap();
        let cgra = Cgra::square(2);
        let mut off = config_with_timeout();
        off.portfolio = portfolio;
        off.race_width = 2;
        off.workers = 4; // sibling concurrency even on a 1-CPU runner
        off.share = ShareConfig::off();
        let mut on = off.clone();
        on.share = ShareConfig {
            enabled: true,
            share_lbd_max: lbd_max,
            share_len_max: 24,
            share_ring_cap: ring_cap,
        };
        let base = map_raced(&kernel.dfg, &cgra, &off);
        let shared = map_raced(&kernel.dfg, &cgra, &on);
        let base_ii = base.ii().expect("2x2 suite maps");
        let shared_ii = shared.ii().expect("2x2 suite maps under sharing");
        prop_assert!(
            shared_ii <= base_ii,
            "{}: share-on II {} worse than share-off II {}",
            kernel.name(), shared_ii, base_ii
        );
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

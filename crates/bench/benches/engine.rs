//! Sequential mapper vs. parallel engine, wall-clock, on the 11-kernel
//! suite: the headline numbers for the II-race. Also measures the cache's
//! hit path and the portfolio overhead on a single kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use satmapit_cgra::Cgra;
use satmapit_core::Mapper;
use satmapit_engine::{map_raced, Engine, EngineConfig, Job};

fn bench_suite_sequential_vs_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("suite_3x3");
    group.sample_size(10);

    group.bench_function("sequential_all_kernels", |b| {
        b.iter(|| {
            for kernel in satmapit_kernels::all() {
                let cgra = Cgra::square(3);
                let outcome = Mapper::new(&kernel.dfg, &cgra).run();
                assert!(outcome.ii().is_some(), "{}", kernel.name());
            }
        })
    });

    group.bench_function("engine_all_kernels", |b| {
        b.iter(|| {
            let config = EngineConfig::default();
            for kernel in satmapit_kernels::all() {
                let cgra = Cgra::square(3);
                let outcome = map_raced(&kernel.dfg, &cgra, &config);
                assert!(outcome.ii().is_some(), "{}", kernel.name());
            }
        })
    });

    group.bench_function("engine_batch_all_kernels", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig::default());
            let jobs: Vec<Job> = satmapit_kernels::all()
                .into_iter()
                .map(|k| Job::new(k.name().to_string(), k.dfg, Cgra::square(3)))
                .collect();
            let items = engine.map_batch(jobs);
            assert!(items.iter().all(|i| i.outcome.ii().is_some()));
        })
    });

    group.finish();
}

fn bench_single_kernel_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotspot_3x3");
    group.sample_size(10);
    let kernel = satmapit_kernels::by_name("hotspot").unwrap();
    let cgra = Cgra::square(3);

    group.bench_function("sequential", |b| {
        b.iter(|| Mapper::new(&kernel.dfg, &cgra).run())
    });
    for (label, config) in [
        ("race_w4", EngineConfig::default()),
        (
            "race_w4_portfolio3",
            EngineConfig {
                portfolio: 3,
                ..EngineConfig::default()
            },
        ),
        (
            "race_w1",
            EngineConfig {
                race_width: 1,
                ..EngineConfig::default()
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("engine", label), &config, |b, config| {
            b.iter(|| map_raced(&kernel.dfg, &cgra, config))
        });
    }
    group.finish();
}

fn bench_cache_hit_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_cache");
    let kernel = satmapit_kernels::by_name("srand").unwrap();
    let cgra = Cgra::square(3);
    let engine = Engine::new(EngineConfig::default());
    let _ = engine.map(&kernel.dfg, &cgra); // warm the cache
    group.bench_function("hit", |b| {
        b.iter(|| {
            let (outcome, cached) = engine.map(&kernel.dfg, &cgra);
            assert!(cached);
            outcome
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_suite_sequential_vs_engine,
    bench_single_kernel_modes,
    bench_cache_hit_path
);
criterion_main!(benches);

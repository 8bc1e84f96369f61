//! Sequential mapper vs. the engine's miss path vs. the batch frontend,
//! wall-clock, on the 11-kernel suite — and the cache's hit path.

use criterion::{criterion_group, criterion_main, Criterion};
use satmapit_cgra::Cgra;
use satmapit_core::Mapper;
use satmapit_engine::{solve, Engine, EngineConfig, Job};

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
                let outcome = solve(&kernel.dfg, &cgra, &config, None);
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
    bench_cache_hit_path
);
criterion_main!(benches);

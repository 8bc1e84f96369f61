//! Demonstrates the batch engine: one solve against the sequential
//! mapper, then the whole suite through the batch frontend and its
//! result cache.
//!
//! ```sh
//! cargo run --release --example engine_batch
//! ```

use sat_mapit::cgra::Cgra;
use sat_mapit::core::Mapper;
use sat_mapit::engine::{solve, Engine, EngineConfig, Job};
use sat_mapit::kernels;
use std::time::Instant;

fn main() {
    // 1. One kernel, mapper vs engine: the same II ladder, the same II.
    let kernel = kernels::by_name("hotspot").expect("suite kernel");
    let cgra = Cgra::square(3);

    let t0 = Instant::now();
    let sequential = Mapper::new(&kernel.dfg, &cgra).run();
    let t_seq = t0.elapsed();

    let t0 = Instant::now();
    let solved = solve(&kernel.dfg, &cgra, &EngineConfig::default(), None);
    let t_solve = t0.elapsed();

    println!(
        "hotspot on 3x3: Mapper::run II={:?} in {t_seq:.2?} | engine::solve II={:?} in \
         {t_solve:.2?} ({} rungs from II={})",
        sequential.ii(),
        solved.ii(),
        solved.stats.tasks_started,
        solved.stats.race_start,
    );
    assert_eq!(sequential.ii(), solved.ii(), "one II loop, one answer");

    // 2. Batch + cache: the whole suite on 3x3, submitted twice.
    let engine = Engine::new(EngineConfig::default());
    let jobs: Vec<Job> = kernels::all()
        .into_iter()
        .map(|k| Job::new(k.name().to_string(), k.dfg, Cgra::square(3)))
        .collect();

    let t0 = Instant::now();
    let first = engine.map_batch(jobs.clone());
    let cold = t0.elapsed();
    let t0 = Instant::now();
    let second = engine.map_batch(jobs);
    let warm = t0.elapsed();

    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.outcome.ii(), b.outcome.ii());
        assert!(b.cached, "second submission must be cache-served");
    }
    let stats = engine.cache_stats();
    println!(
        "batch of {} jobs: cold {cold:.2?}, warm {warm:.2?} | cache {} entries, {} hits, {} proven bounds",
        first.len(),
        stats.entries,
        stats.hits,
        stats.bound_entries,
    );
}

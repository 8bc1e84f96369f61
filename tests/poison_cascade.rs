//! Regression coverage for the lock-poison cascade (PR 7): a panic
//! inside one solve must cost exactly that request, not the engine.
//! Before the fix, a panicking solver thread poisoned a shared mutex and
//! every later `.lock().expect(..)` in the engine — `cache_stats`, the
//! next `map` call — panicked in sympathy, turning one bad solve into a
//! dead daemon.
//!
//! The fault is injected through `EngineConfig::panic_on_name`
//! (`#[doc(hidden)]`, test-only): every rung attempt for a DFG with that
//! name panics before touching the solver.

use sat_mapit::cgra::Cgra;
use sat_mapit::core::MapFailure;
use sat_mapit::dfg::{Dfg, Op};
use sat_mapit::engine::{Engine, EngineConfig};
use sat_mapit::kernels;

fn engine_with_fault(victim: &str) -> Engine {
    Engine::new(EngineConfig {
        panic_on_name: Some(victim.into()),
        ..EngineConfig::default()
    })
}

/// A three-node chain that maps in well under a second — the tests
/// below care about engine liveness, not solver throughput.
fn tiny(name: &str) -> Dfg {
    let mut dfg = Dfg::new(name);
    let a = dfg.add_const(3);
    let b = dfg.add_node(Op::Neg);
    let c = dfg.add_node(Op::Abs);
    dfg.add_edge(a, b, 0);
    dfg.add_edge(b, c, 0);
    dfg
}

#[test]
fn injected_worker_panic_is_contained_to_one_request() {
    let cgra = Cgra::square(3);
    let victim = kernels::paper_example();
    let bystander = tiny("bystander");
    let engine = engine_with_fault(victim.dfg.name());

    // The injected request fails with `Internal`, not a process abort.
    let (outcome, cached) = engine.map(&victim.dfg, &cgra);
    let err = outcome
        .outcome
        .result
        .as_ref()
        .expect_err("injected panic must surface as a failure");
    assert!(
        matches!(err, MapFailure::Internal(msg) if msg.contains("panicked")),
        "expected Internal(panic message), got {err:?}"
    );
    assert!(!cached, "first solve cannot be a cache hit");

    // Engine telemetry still answers after the panic: these lock the
    // mutexes the panicking solve's in-flight guard released.
    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 0);

    // A subsequent, unrelated request on the same engine maps normally.
    let (ok, _) = engine.map(&bystander, &cgra);
    assert!(
        ok.outcome.result.is_ok(),
        "bystander request must still map after the injected panic: {:?}",
        ok.outcome.result
    );

    // `Internal` is transient: the failed request is never memoized, so
    // retrying it solves again (and, with the fault still armed, fails
    // again) instead of replaying a cached panic as a cache hit.
    let (again, cached) = engine.map(&victim.dfg, &cgra);
    assert!(!cached, "Internal failures must not be served from cache");
    assert!(matches!(again.outcome.result, Err(MapFailure::Internal(_))));
    assert_eq!(
        engine.cache_stats().hits,
        0,
        "neither victim retry may count as a cache hit"
    );
}

#[test]
fn faulted_name_recovers_once_the_fault_is_gone() {
    // Same problem, fresh engine without the fault: the earlier failures
    // left nothing behind (no cache entry, no bound) that would stop a
    // healthy engine from mapping it.
    let cgra = Cgra::square(3);
    let victim = kernels::paper_example();

    let faulty = engine_with_fault(victim.dfg.name());
    let (outcome, _) = faulty.map(&victim.dfg, &cgra);
    assert!(outcome.outcome.result.is_err());

    let healthy = Engine::new(EngineConfig::default());
    let (outcome, _) = healthy.map(&victim.dfg, &cgra);
    assert!(
        outcome.outcome.result.is_ok(),
        "kernel must map once the fault is removed: {:?}",
        outcome.outcome.result
    );
}

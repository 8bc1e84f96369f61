//! The monomorphism backend against the SAT mapper: same verdicts, same
//! best IIs, honored limits.

use satmapit_cgra::{Cgra, MemoryPolicy};
use satmapit_core::{AttemptOutcome, Backend, MapFailure, Mapper, MapperConfig};
use satmapit_dfg::{Dfg, Op};
use satmapit_morph::MorphMapper;
use satmapit_sat::SolveLimits;
use std::time::{Duration, Instant};

fn config() -> MapperConfig {
    MapperConfig {
        timeout: Some(Duration::from_secs(120)),
        ..MapperConfig::default()
    }
}

#[test]
fn agrees_with_sat_on_small_kernels() {
    for kernel in ["srand", "bitcount", "sha"] {
        let dfg = satmapit_kernels::by_name(kernel).expect("suite kernel").dfg;
        let cgra = Cgra::square(4);
        let sat = Mapper::new(&dfg, &cgra).with_config(config()).run();
        let morph = MorphMapper::new(&dfg, &cgra).with_config(config()).run();
        eprintln!(
            "{kernel}: sat {:?} morph {:?} (sat ii {:?}, morph ii {:?})",
            sat.elapsed,
            morph.elapsed,
            sat.ii(),
            morph.ii()
        );
        let sat_ii = sat.ii().expect("sat maps the suite at 4x4");
        let morph_ii = morph.ii().expect("morph maps the suite at 4x4");
        assert_eq!(sat_ii, morph_ii, "{kernel}: best II disagrees");
    }
}

#[test]
fn proves_the_same_unsat_rungs_as_sat() {
    // 1 const fanning out to 5 negations on a 1x2 mesh: MII is 3 but the
    // ladder must climb UNSAT rungs first. Both backends must reject the
    // same rungs and settle on the same II.
    let mut dfg = Dfg::new("fanout");
    let c = dfg.add_const(7);
    for _ in 0..5 {
        let n = dfg.add_node(Op::Neg);
        dfg.add_edge(c, n, 0);
    }
    let cgra = Cgra::new(1, 2);
    let sat = Mapper::new(&dfg, &cgra).prepare().unwrap();
    let morph = MorphMapper::new(&dfg, &cgra).prepare().unwrap();
    assert_eq!(Backend::mii(&sat), Backend::mii(&morph));
    let mut ii = Backend::start_ii(&morph);
    loop {
        let s = sat.attempt_ii(ii, &SolveLimits::none()).unwrap();
        let m = morph.attempt_ii(ii, &SolveLimits::none()).unwrap();
        match (&s.attempt.outcome, &m.attempt.outcome) {
            (AttemptOutcome::Unsat, AttemptOutcome::Unsat) => ii += 1,
            (AttemptOutcome::Mapped, AttemptOutcome::Mapped) => break,
            (a, b) => panic!("ii={ii}: sat={a:?} morph={b:?}"),
        }
        assert!(ii < 20, "runaway ladder");
    }
}

#[test]
fn morph_mapping_passes_the_independent_validator() {
    let dfg = satmapit_kernels::by_name("gsm").expect("suite kernel").dfg;
    let cgra = Cgra::square(3);
    let morph = MorphMapper::new(&dfg, &cgra).with_config(config()).run();
    let mapped = morph.result.expect("gsm maps at 3x3");
    satmapit_core::validate_mapping(&dfg, &cgra, &mapped.mapping).expect("independent validation");
    assert!(mapped.mapping.ii >= mapped.mii);
}

#[test]
fn detects_unmappable_split_memory_loop() {
    // A load in column 0 feeding a store in column 3 of a 1x4
    // SplitLoadStore mesh: the PEs are never adjacent, at any II. The
    // PE-level relaxation must prove it without a search.
    let mut dfg = Dfg::new("split");
    let addr = dfg.add_const(0);
    let ld = dfg.add_node(Op::Load);
    dfg.add_edge(addr, ld, 0);
    let st = dfg.add_node(Op::Store);
    dfg.add_edge(addr, st, 0);
    dfg.add_edge(ld, st, 1);
    let cgra = Cgra::new(1, 4).with_memory_policy(MemoryPolicy::SplitLoadStore);
    let morph = MorphMapper::new(&dfg, &cgra).prepare().unwrap();
    assert!(Backend::proven_unmappable(&morph));
    let report = morph.attempt_ii(2, &SolveLimits::none()).unwrap();
    assert_eq!(report.attempt.outcome, AttemptOutcome::Unsat);
    assert!(report.proven_unmappable);
}

#[test]
fn mid_search_deadline_honors_the_poll_cadence() {
    // A deadline 20 ms into a search grinding an UNSAT rung: the attempt
    // must come back as a timeout (not run to exhaustion) within the poll
    // cadence's latency.
    let mut dfg = Dfg::new("fanout");
    let c = dfg.add_const(7);
    for _ in 0..8 {
        let n = dfg.add_node(Op::Neg);
        dfg.add_edge(c, n, 0);
    }
    let cgra = Cgra::new(1, 2);
    let morph = MorphMapper::new(&dfg, &cgra).prepare().unwrap();
    let limits = SolveLimits::none().with_timeout(Duration::from_millis(20));
    // II=2 is deep in the UNSAT region for this shape; the exhaustive
    // proof takes far longer than the deadline.
    let t0 = Instant::now();
    match morph.attempt_ii(2, &limits) {
        Err(MapFailure::Timeout { at_ii }) => {
            assert_eq!(at_ii, 2);
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "deadline overrun: {:?}",
                t0.elapsed()
            );
        }
        // The search may legitimately finish before the deadline on a
        // fast machine; the only acceptable alternative is the real
        // verdict.
        Ok(report) => assert_eq!(report.attempt.outcome, AttemptOutcome::Unsat),
        Err(e) => panic!("unexpected failure {e}"),
    }
}

//! Both backends' sequential searches run under the one II driver
//! (`satmapit_core::run_ladder`), so their `ladder` spans must carry the
//! same arguments with the same labels — and so must their `rung` spans,
//! which share `satmapit_core::traced_rung` and the domain filter that
//! closes a rung before either backend searches. One test only: the
//! flight recorder is process-global.

use satmapit_cgra::Cgra;
use satmapit_core::{Mapper, MapperConfig};
use satmapit_dfg::{Dfg, Op};
use satmapit_morph::MorphMapper;
use satmapit_obs::trace::{self, ArgValue, Category, Event};
use std::time::Duration;

fn arg<'e>(event: &'e Event, key: &str) -> Option<&'e ArgValue> {
    event.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

#[test]
fn sat_and_morph_ladder_spans_have_the_same_shape() {
    // a -> b -> c -> a: RecMII = 3, so a search started at II = 1 climbs
    // two UNSAT rungs before it maps.
    let mut dfg = Dfg::new("rec");
    let a = dfg.add_node(Op::Neg);
    let b = dfg.add_node(Op::Neg);
    let c = dfg.add_node(Op::Neg);
    dfg.add_edge(a, b, 0);
    dfg.add_edge(b, c, 0);
    dfg.add_back_edge(c, a, 0, 1, 0);
    let cgra = Cgra::square(2);
    let climbing = MapperConfig {
        start_ii: Some(1),
        ..MapperConfig::default()
    };
    let expired = MapperConfig {
        timeout: Some(Duration::ZERO),
        ..MapperConfig::default()
    };

    trace::set_enabled(true);
    for config in [climbing, expired] {
        let _ = Mapper::new(&dfg, &cgra).with_config(config.clone()).run();
        let _ = MorphMapper::new(&dfg, &cgra).with_config(config).run();
    }
    trace::set_enabled(false);

    let events = trace::drain();
    // II = 1 and 2 fall to the domain filter in both backends, and the
    // rung span says so.
    let rung_outcomes: Vec<&ArgValue> = events
        .iter()
        .filter(|e| e.cat == Category::Rung)
        .map(|e| arg(e, "outcome").expect("every rung span has an outcome"))
        .collect();
    let one_ladder = ["unsat_filter", "unsat_filter", "mapped"].map(|o| ArgValue::Str(o.into()));
    let expected: Vec<&ArgValue> = one_ladder.iter().chain(&one_ladder).collect();
    assert_eq!(rung_outcomes, expected);

    let ladders: Vec<Event> = events
        .into_iter()
        .filter(|e| e.cat == Category::Ladder)
        .collect();
    let names: Vec<&str> = ladders.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "ladder rec",
            "ladder rec (morph)",
            "ladder rec",
            "ladder rec (morph)"
        ]
    );
    for mapped in &ladders[..2] {
        assert_eq!(arg(mapped, "rungs"), Some(&ArgValue::Int(3)), "{mapped:?}");
        assert_eq!(arg(mapped, "ii"), Some(&ArgValue::Int(3)), "{mapped:?}");
        assert_eq!(
            arg(mapped, "status"),
            Some(&ArgValue::Str("mapped".into())),
            "{mapped:?}"
        );
    }
    for timed_out in &ladders[2..] {
        assert_eq!(
            arg(timed_out, "rungs"),
            Some(&ArgValue::Int(0)),
            "{timed_out:?}"
        );
        assert_eq!(
            arg(timed_out, "status"),
            Some(&ArgValue::Str("timeout".into())),
            "{timed_out:?}"
        );
    }
}

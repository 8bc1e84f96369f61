//! Observability integration: exported Chrome traces parse with the
//! service's strict JSON parser, the flight recorder is a pure
//! observer — turning it on changes no fingerprint and no answer — and a
//! cache hit answered on the daemon's event loop still emits its
//! `request` span.

use satmapit_cgra::Cgra;
use satmapit_dfg::{Dfg, Op};
use satmapit_engine::fingerprint::fingerprint;
use satmapit_engine::{solve, EngineConfig};
use satmapit_obs as obs;
use satmapit_service::json::{parse, Json};
use satmapit_service::wire::{outcome_signature, MapRequest};
use satmapit_service::{Client, Server, ServerConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Tracing is process-global; every test that toggles it takes this
/// gate so the parallel test runner cannot interleave drains.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sample_dfg() -> Dfg {
    let mut dfg = Dfg::new("obs-sample");
    let a = dfg.add_const(2);
    let b = dfg.add_node(Op::Add);
    dfg.add_edge(a, b, 0);
    dfg.add_back_edge(b, b, 1, 1, 0);
    dfg
}

#[test]
fn chrome_trace_round_trips_through_the_service_json_parser() {
    let _gate = serial();
    obs::trace::set_enabled(true);
    obs::trace::drain();
    {
        let mut span = obs::trace::Span::begin(obs::trace::Category::Rung, "rung ii=3");
        span.arg("conflicts", 41);
        span.arg_str("outcome", "unsat\nwith newline");
    }
    let events = obs::trace::drain();
    obs::trace::set_enabled(false);
    let text = obs::trace::export_chrome(&events);

    let doc = parse(&text).expect("exported trace must be strict JSON");
    let trace_events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let rung = trace_events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("rung ii=3"))
        .expect("the recorded span survives the round trip");
    assert_eq!(rung.get("ph").and_then(Json::as_str), Some("X"));
    assert_eq!(rung.get("cat").and_then(Json::as_str), Some("rung"));
    let args = rung.get("args").expect("args object");
    assert_eq!(args.get("conflicts").and_then(Json::as_i64), Some(41));
    assert_eq!(
        args.get("outcome").and_then(Json::as_str),
        Some("unsat\nwith newline")
    );
}

#[test]
fn tracing_is_fingerprint_neutral_and_changes_no_answer() {
    let _gate = serial();
    let dfg = sample_dfg();
    let cgra = Cgra::square(2);
    let config = EngineConfig::default();

    obs::trace::set_enabled(false);
    let key_off = fingerprint(&dfg, &cgra, &config);
    let answer_off = outcome_signature(&solve(&dfg, &cgra, &config, None));

    obs::trace::set_enabled(true);
    let key_on = fingerprint(&dfg, &cgra, &config);
    let answer_on = outcome_signature(&solve(&dfg, &cgra, &config, None));
    let events = obs::trace::drain();
    obs::trace::set_enabled(false);

    assert_eq!(key_off, key_on, "tracing must never enter a cache key");
    assert_eq!(answer_off, answer_on, "tracing must never change an answer");
    // And the traced run actually recorded its ladder: at least one
    // rung span with the solve's counters.
    assert!(
        events
            .iter()
            .any(|e| e.cat == obs::Category::Rung && e.name.starts_with("rung ii=")),
        "a traced solve records rung spans"
    );
}

#[test]
fn a_hit_answered_on_the_event_loop_emits_its_request_span() {
    let _gate = serial();
    let trace_dir = std::env::temp_dir().join(format!("satmapit-obs-hit-{}", std::process::id()));
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            trace_dir: Some(trace_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(&addr).expect("client connect");
    let request = MapRequest {
        id: Some(1),
        name: "obs-hit".to_string(),
        dfg: sample_dfg(),
        cgra: Cgra::square(2),
        timeout_ms: None,
    };
    obs::trace::drain();
    client.map(&request).expect("cold map");
    let hit = client.map(&request).expect("repeat map");
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));

    let drained = client.trace().expect("trace");
    let path = drained
        .get("path")
        .and_then(Json::as_str)
        .expect("trace file path")
        .to_string();
    let doc = parse(&std::fs::read_to_string(&path).expect("trace file")).expect("strict JSON");
    let classes: Vec<(String, i64)> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("request"))
        .map(|e| {
            let args = e.get("args").expect("request span args");
            (
                args.get("class")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                args.get("queue_us").and_then(Json::as_i64).unwrap_or(-1),
            )
        })
        .collect();
    assert!(
        classes.iter().any(|(class, _)| class == "solved"),
        "{classes:?}"
    );
    assert!(
        classes.contains(&("memory_hit".to_string(), 0)),
        "the loop-answered hit records a request span with its class: {classes:?}"
    );

    client.shutdown().expect("shutdown ack");
    handle.join().expect("server thread");
    obs::trace::set_enabled(false);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

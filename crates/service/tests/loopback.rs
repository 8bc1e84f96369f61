//! Loopback integration: concurrent `submit` clients against one `serve`
//! process agree with a sequential [`Engine::map_batch`], and a daemon
//! restart answers repeated jobs from the persistent cache with no
//! solver work.

use satmapit_cgra::Cgra;
use satmapit_dfg::{Dfg, Op};
use satmapit_engine::{Engine, EngineConfig, Job};
use satmapit_service::wire::{outcome_signature, MapRequest};
use satmapit_service::{Client, Json, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "satmapit-loopback-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create temp cache dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn chain(n: usize) -> Dfg {
    let mut dfg = Dfg::new(format!("chain{n}"));
    let mut prev = dfg.add_const(1);
    for _ in 1..n {
        let next = dfg.add_node(Op::Neg);
        dfg.add_edge(prev, next, 0);
        prev = next;
    }
    dfg
}

fn recurrence() -> Dfg {
    let mut dfg = Dfg::new("rec");
    let a = dfg.add_node(Op::Neg);
    let b = dfg.add_node(Op::Neg);
    let c = dfg.add_node(Op::Neg);
    dfg.add_edge(a, b, 0);
    dfg.add_edge(b, c, 0);
    dfg.add_back_edge(c, a, 0, 1, 0);
    dfg
}

fn fanout() -> Dfg {
    let mut dfg = Dfg::new("fan5");
    let src = dfg.add_const(1);
    for _ in 0..5 {
        let n = dfg.add_node(Op::Neg);
        dfg.add_edge(src, n, 0);
    }
    dfg
}

/// The job mix: synthetic loops exercising UNSAT climbs and recurrences,
/// plus two real benchmark kernels, across two mesh sizes.
fn jobs() -> Vec<Job> {
    let mut jobs = vec![
        Job::new("chain4@2x2", chain(4), Cgra::square(2)),
        Job::new("rec@1x1", recurrence(), Cgra::square(1)),
        Job::new("fan5@1x2", fanout(), Cgra::new(1, 2)),
        Job::new("chain4@2x2-dup", chain(4), Cgra::square(2)),
    ];
    for name in ["srand", "nw"] {
        let kernel = satmapit_kernels::by_name(name).unwrap();
        jobs.push(Job::new(
            format!("{name}@2x2"),
            kernel.dfg.clone(),
            Cgra::square(2),
        ));
    }
    jobs
}

fn request_for(job: &Job, id: i64) -> MapRequest {
    MapRequest {
        id: Some(id),
        name: job.name.clone(),
        dfg: job.dfg.clone(),
        cgra: job.cgra.clone(),
        timeout_ms: None,
    }
}

fn start_server(cache_dir: Option<PathBuf>) -> (String, std::thread::JoinHandle<()>) {
    start_server_with(ServerConfig {
        workers: 2,
        queue_capacity: 32,
        engine: EngineConfig::default(),
        cache_dir,
        ..ServerConfig::default()
    })
}

fn start_server_with(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let ack = client.shutdown().expect("shutdown ack");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("server thread");
}

#[test]
fn concurrent_clients_agree_with_sequential_map_batch() {
    // The reference answers, computed locally with the same engine
    // configuration the server runs.
    let reference = Engine::new(EngineConfig::default());
    let expected: Vec<Json> = reference
        .map_batch(jobs())
        .iter()
        .map(|item| outcome_signature(&item.outcome))
        .collect();
    clients_agree_with(&expected, 4, 32);
    // A burst no default queue holds (at capacity 32 most of it is,
    // correctly, shed): with room for it, every one of 128 simultaneously
    // open connections is answered and none is lost.
    clients_agree_with(&expected, 128, 512);
}

/// `num_clients` connections, all open at once, each submit the whole job
/// mix to a fresh daemon with the given queue capacity; every reply must
/// carry the `expected` signature of its job.
fn clients_agree_with(expected: &[Json], num_clients: usize, queue_capacity: usize) {
    let (addr, handle) = start_server_with(ServerConfig {
        workers: 2,
        queue_capacity,
        ..ServerConfig::default()
    });

    // Each client submits on its own connection, half of them in reverse
    // order to interleave the queue; nobody submits before everybody has
    // connected.
    let all_jobs = jobs();
    let all_connected = std::sync::Barrier::new(num_clients);
    let results: Vec<Vec<Json>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..num_clients)
            .map(|c| {
                let addr = addr.clone();
                let all_jobs = &all_jobs;
                let all_connected = &all_connected;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("client connect");
                    all_connected.wait();
                    let mut order: Vec<usize> = (0..all_jobs.len()).collect();
                    if c % 2 == 1 {
                        order.reverse();
                    }
                    let mut replies = vec![Json::Null; all_jobs.len()];
                    for index in order {
                        let request = request_for(&all_jobs[index], index as i64);
                        let reply = client.map(&request).expect("map roundtrip");
                        assert_eq!(
                            reply.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "{reply}"
                        );
                        assert_eq!(reply.get("id").and_then(Json::as_i64), Some(index as i64));
                        replies[index] = reply;
                    }
                    replies
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (client_index, replies) in results.iter().enumerate() {
        for (job_index, reply) in replies.iter().enumerate() {
            let result = reply.get("result").expect("result present");
            assert_eq!(
                result, &expected[job_index],
                "client {client_index}, job `{}`: daemon answer diverges from Engine::map_batch",
                all_jobs[job_index].name
            );
        }
    }

    // The duplicate job and the cross-client repeats were all cache hits:
    // 5 distinct problems were solved, ever.
    let mut client = Client::connect(&addr).expect("stats connect");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache stats");
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(5));
    assert_eq!(
        cache.get("hits").and_then(Json::as_u64),
        Some(num_clients as u64 * all_jobs.len() as u64 - 5)
    );

    // Health and malformed-request handling on the same connection.
    let health = client.health().expect("health");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("healthy"));
    let bad = client
        .roundtrip(&Json::obj(vec![("op", Json::Str("map".into()))]))
        .expect("error roundtrip");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

    shutdown(&addr, handle);
}

#[test]
fn daemon_restart_answers_from_the_persistent_cache() {
    let dir = TempDir::new("restart");
    let all_jobs = jobs();

    // Cold daemon: everything solves.
    let (addr, handle) = start_server(Some(dir.0.clone()));
    let mut first_answers = Vec::new();
    {
        let mut client = Client::connect(&addr).expect("client connect");
        for (index, job) in all_jobs.iter().enumerate() {
            let reply = client
                .map(&request_for(job, index as i64))
                .expect("map roundtrip");
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(
                reply.get("persistent").and_then(Json::as_bool),
                Some(false),
                "cold run cannot hit the persistent store"
            );
            first_answers.push(reply);
        }
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats
                .get("solves")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(5),
            "five distinct problems solved"
        );
    }
    shutdown(&addr, handle);

    // Warm daemon on the same cache dir: 100% persistent hits, zero
    // solver work, byte-identical fingerprints and results.
    let (addr, handle) = start_server(Some(dir.0.clone()));
    {
        let mut client = Client::connect(&addr).expect("client connect");
        for (index, job) in all_jobs.iter().enumerate() {
            let reply = client
                .map(&request_for(job, index as i64))
                .expect("map roundtrip");
            assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
            assert_eq!(
                reply.get("persistent").and_then(Json::as_bool),
                Some(true),
                "job `{}` must be a persistent-cache hit",
                job.name
            );
            assert_eq!(
                reply.get("result"),
                first_answers[index].get("result"),
                "job `{}`: restart changed the answer",
                job.name
            );
            assert_eq!(
                reply.get("fingerprint"),
                first_answers[index].get("fingerprint")
            );
        }
        let stats = client.stats().expect("stats");
        let cache = stats.get("cache").expect("cache stats");
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(0));
        assert_eq!(
            cache.get("persistent_hits").and_then(Json::as_u64),
            Some(all_jobs.len() as u64)
        );
        assert_eq!(
            stats
                .get("solves")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(0),
            "the warm daemon never touched the SAT solver"
        );
    }
    shutdown(&addr, handle);
}

/// The ISSUE's end-to-end acceptance: the full 11-kernel suite through a
/// daemon with an empty cache dir, then a restart — the second run is
/// 100% persistent-cache hits, byte-identical, zero SAT solves. Ignored
/// by default (it solves the whole suite); CI runs it in `--release`
/// with `-- --ignored`.
#[test]
#[ignore = "full 11-kernel suite; CI runs it in release with -- --ignored"]
fn full_suite_restart_is_all_persistent_hits() {
    let dir = TempDir::new("full-suite");
    let suite: Vec<Job> = satmapit_kernels::all()
        .into_iter()
        .map(|k| Job::new(k.name().to_string(), k.dfg, Cgra::square(2)))
        .collect();
    assert_eq!(suite.len(), 11);

    let (addr, handle) = start_server(Some(dir.0.clone()));
    let mut first = Vec::new();
    {
        let mut client = Client::connect(&addr).expect("client connect");
        for (index, job) in suite.iter().enumerate() {
            let reply = client
                .map(&request_for(job, index as i64))
                .expect("map roundtrip");
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{}: {reply}",
                job.name
            );
            first.push(reply);
        }
    }
    shutdown(&addr, handle);

    let (addr, handle) = start_server(Some(dir.0.clone()));
    {
        let mut client = Client::connect(&addr).expect("client connect");
        for (index, job) in suite.iter().enumerate() {
            let reply = client
                .map(&request_for(job, index as i64))
                .expect("map roundtrip");
            assert_eq!(
                reply.get("persistent").and_then(Json::as_bool),
                Some(true),
                "kernel `{}` must be a persistent-cache hit",
                job.name
            );
            assert_eq!(
                reply.get("result"),
                first[index].get("result"),
                "kernel `{}`: restart changed the answer",
                job.name
            );
        }
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats
                .get("cache")
                .and_then(|c| c.get("misses"))
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            stats
                .get("solves")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(0),
            "the warm daemon never touched the SAT solver"
        );
    }
    shutdown(&addr, handle);
}

/// Satellite regression: a panicking solve used to poison `inner.queue`,
/// after which every later lock attempt (`.expect("queue poisoned")`)
/// aborted its thread — one bad request killed the whole daemon. The
/// worker now catches the unwind, answers *that* request with an error,
/// and the daemon keeps serving.
#[test]
fn daemon_survives_a_panicking_worker() {
    let (addr, handle) = start_server_with(ServerConfig {
        workers: 2,
        queue_capacity: 32,
        engine: EngineConfig::default(),
        cache_dir: None,
        panic_on_name: Some("boom".to_string()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("client connect");

    // The fault-injected request panics the worker mid-solve…
    let poison = Job::new("boom", chain(3), Cgra::square(2));
    let reply = client.map(&request_for(&poison, 1)).expect("map roundtrip");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "a panicking solve must become a per-request error: {reply}"
    );
    assert!(
        reply
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("panicked")),
        "{reply}"
    );

    // …and the daemon still serves: same connection, new connections,
    // queue-touching endpoints, repeatedly.
    for round in 0..2 {
        let job = Job::new(format!("after-{round}"), chain(4), Cgra::square(2));
        let reply = client.map(&request_for(&job, 10 + round)).expect("map");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let result = reply.get("result").expect("result");
        assert_eq!(result.get("status").and_then(Json::as_str), Some("mapped"));
    }
    let mut fresh = Client::connect(&addr).expect("fresh connection");
    let health = fresh.health().expect("health");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("healthy"));
    let stats = fresh.stats().expect("stats");
    assert_eq!(
        stats.get("panics").and_then(Json::as_u64),
        Some(1),
        "the caught panic is counted: {stats}"
    );

    shutdown(&addr, handle);
}

/// Satellite regression: `timeout_ms: 0` used to be admitted with an
/// already-expired deadline, wasting a queue slot and a worker wakeup on
/// a foregone conclusion. It is now answered at admission — same
/// response shape, zero solver work.
#[test]
fn zero_timeout_is_answered_at_admission_without_a_worker() {
    let (addr, handle) = start_server(None);
    let mut client = Client::connect(&addr).expect("client connect");

    let job = Job::new("chain6@2x2", chain(6), Cgra::square(2));
    let mut request = request_for(&job, 3);
    request.timeout_ms = Some(0);
    let reply = client.map(&request).expect("map roundtrip");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let result = reply.get("result").expect("result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("failed"));
    assert_eq!(result.get("kind").and_then(Json::as_str), Some("timeout"));
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false));
    // The expired answer carries the key the loop's cache probe missed
    // under: the one the solve below is cached under.
    let expired_key = reply.get("fingerprint").cloned().expect("fingerprint");

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("expired_at_admission").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    assert_eq!(
        stats
            .get("solves")
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64),
        Some(0),
        "no worker solve may happen for an expired deadline: {stats}"
    );

    // A real budget afterwards still solves normally (nothing was cached
    // or poisoned by the fast path).
    request.timeout_ms = Some(120_000);
    let reply = client.map(&request).expect("map roundtrip");
    let result = reply.get("result").expect("result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("mapped"));
    assert_eq!(reply.get("fingerprint"), Some(&expired_key));

    // Once the answer is cached, a zero budget gets it anyway: "answer
    // only if you already have it" must not regress to a reflexive
    // timeout (the fast path probes the cache before synthesizing one).
    request.timeout_ms = Some(0);
    let reply = client.map(&request).expect("map roundtrip");
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
    let result = reply.get("result").expect("result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("mapped"));

    shutdown(&addr, handle);
}

/// The per-outcome latency histograms classify exactly the request mix
/// the daemon served: cold solves land in `solved`, repeats in
/// `memory_hit`, a worker-path deadline expiry in `timeout` — and every
/// queued request (the misses; hits are answered on the loop) records a
/// queue wait.
#[test]
fn latency_histograms_classify_the_request_mix() {
    let (addr, handle) = start_server(None);
    let mut client = Client::connect(&addr).expect("client connect");

    // Two cold solves…
    let cold = [
        Job::new("lat-chain4", chain(4), Cgra::square(2)),
        Job::new("lat-fan5", fanout(), Cgra::new(1, 2)),
    ];
    for (i, job) in cold.iter().enumerate() {
        let reply = client.map(&request_for(job, i as i64)).expect("map");
        assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false));
    }
    // …the same two again (memory hits, answered on the event loop)…
    for (i, job) in cold.iter().enumerate() {
        let reply = client.map(&request_for(job, 10 + i as i64)).expect("map");
        assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("queue_us").and_then(Json::as_u64), Some(0));
    }
    // …and one worker-path timeout: a 1 ms budget is admitted (not yet
    // expired) but cannot survive a cold chain-16 solve.
    let mut slow = request_for(&Job::new("lat-slow", chain(16), Cgra::square(2)), 20);
    slow.timeout_ms = Some(1);
    let reply = client.map(&slow).expect("map");
    let result = reply.get("result").expect("result");
    assert_eq!(result.get("kind").and_then(Json::as_str), Some("timeout"));

    let stats = client.stats().expect("stats");
    let latency = stats.get("latency").expect("latency block");
    let count = |class: &str| {
        latency
            .get(class)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("latency.{class}.count in {stats}"))
    };
    assert_eq!(count("solved"), 2, "{stats}");
    assert_eq!(count("memory_hit"), 2, "{stats}");
    assert_eq!(count("timeout"), 1, "{stats}");
    assert_eq!(count("persistent_hit"), 0, "{stats}");
    assert_eq!(count("error"), 0, "{stats}");
    assert_eq!(
        count("queue_wait"),
        3,
        "every queued request waits; the two hits never queue"
    );
    // Percentile sanity on a populated class: ordered and bounded by
    // the recorded extremes.
    let solved = latency.get("solved").expect("solved block");
    let field = |key: &str| solved.get(key).and_then(Json::as_u64).expect("field");
    assert!(field("p50_us") <= field("p90_us"));
    assert!(field("p90_us") <= field("p99_us"));
    assert!(field("min_us") <= field("p50_us") && field("p99_us") <= field("max_us").max(1));
    // The legacy solves block still matches: 2 solved + 1 timeout.
    assert_eq!(
        stats
            .get("solves")
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64),
        Some(3),
        "{stats}"
    );
    // Version is reported on both stats and health.
    assert!(
        stats.get("version").and_then(Json::as_str).is_some(),
        "{stats}"
    );
    let health = client.health().expect("health");
    assert!(
        health.get("version").and_then(Json::as_str).is_some(),
        "{health}"
    );

    shutdown(&addr, handle);
}

/// A daemon started with a trace directory records request and rung
/// spans and drains them into a Perfetto-loadable Chrome trace file on
/// a `trace` request.
#[test]
fn trace_endpoint_writes_a_chrome_trace_file() {
    let trace_dir = TempDir::new("trace");
    let (addr, handle) = start_server_with(ServerConfig {
        workers: 2,
        queue_capacity: 32,
        engine: EngineConfig::default(),
        trace_dir: Some(trace_dir.0.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("client connect");

    let job = Job::new("traced-chain5", chain(5), Cgra::square(2));
    let reply = client.map(&request_for(&job, 1)).expect("map");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    let drained = client.trace().expect("trace");
    assert_eq!(
        drained.get("ok").and_then(Json::as_bool),
        Some(true),
        "{drained}"
    );
    assert!(
        drained.get("events").and_then(Json::as_u64).unwrap_or(0) > 0,
        "{drained}"
    );
    let path = drained
        .get("path")
        .and_then(Json::as_str)
        .expect("trace file path")
        .to_string();
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let doc = satmapit_service::json::parse(&text).expect("trace file is strict JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let cats = |cat: &str| {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some(cat))
            .count()
    };
    assert!(cats("rung") >= 1, "per-II rung spans in the trace");
    assert!(cats("request") >= 1, "per-request span in the trace");

    shutdown(&addr, handle);
}

/// A cache hit does not wait behind a cold solve: while the only worker
/// is busy with one connection's slow request, a repeat from another
/// connection is answered from the cache on the event loop
/// (`cached: true`, `queue_us: 0`) before the solve replies.
#[test]
fn a_cache_hit_is_answered_while_the_only_worker_solves() {
    let (addr, handle) = start_server_with(ServerConfig {
        workers: 1,
        queue_capacity: 32,
        ..ServerConfig::default()
    });
    let warm = Job::new("warm-chain4", chain(4), Cgra::square(2));
    let mut client = Client::connect(&addr).expect("client connect");
    let reply = client.map(&request_for(&warm, 1)).expect("warm-up map");
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false));

    // The slow solve goes over a raw socket so its reply can be polled.
    // Its deadline bounds the test's wall time on any machine.
    let kernel = satmapit_kernels::by_name("patricia").expect("patricia kernel");
    let mut slow = request_for(&Job::new("slow", kernel.dfg, Cgra::square(4)), 2);
    slow.timeout_ms = Some(3_000);
    let mut solving = TcpStream::connect(&addr).expect("connect slow client");
    writeln!(solving, "{}", slow.to_json()).expect("send slow request");
    // Wait until the loop has admitted it and the lone worker has popped
    // it: `requests` counts the warm-up map, the slow map and every
    // `stats` poll so far.
    let mut polls = 0;
    loop {
        let stats = client.stats().expect("stats");
        polls += 1;
        let field = |key: &str| stats.get(key).and_then(Json::as_u64);
        if field("requests") == Some(2 + polls) && field("queue_depth") == Some(0) {
            break;
        }
        assert!(
            polls < 1000,
            "the slow request was never picked up: {stats}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let hit = client.map(&request_for(&warm, 3)).expect("repeat map");
    assert_eq!(
        hit.get("cached").and_then(Json::as_bool),
        Some(true),
        "{hit}"
    );
    assert_eq!(hit.get("queue_us").and_then(Json::as_u64), Some(0), "{hit}");
    solving.set_nonblocking(true).expect("nonblocking");
    let mut byte = [0u8; 1];
    match solving.read(&mut byte) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("the slow solve answered before the cache hit: {other:?}"),
    }
    solving.set_nonblocking(false).expect("blocking");
    let mut line = String::new();
    BufReader::new(solving)
        .read_line(&mut line)
        .expect("slow reply");
    let reply = satmapit_service::json::parse(line.trim()).expect("slow reply is JSON");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );

    shutdown(&addr, handle);
}

#[test]
fn per_request_deadline_times_out_and_is_not_poisoning() {
    let (addr, handle) = start_server(None);
    let mut client = Client::connect(&addr).expect("client connect");

    // A zero-millisecond budget forces Timeout…
    let job = Job::new("chain6@2x2", chain(6), Cgra::square(2));
    let mut request = request_for(&job, 7);
    request.timeout_ms = Some(0);
    let reply = client.map(&request).expect("map roundtrip");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let result = reply.get("result").expect("result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("failed"));
    assert_eq!(result.get("kind").and_then(Json::as_str), Some("timeout"));

    // …and the timeout is not cached: the unconstrained retry solves.
    request.timeout_ms = None;
    let reply = client.map(&request).expect("map roundtrip");
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false));
    let result = reply.get("result").expect("result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("mapped"));

    shutdown(&addr, handle);
}

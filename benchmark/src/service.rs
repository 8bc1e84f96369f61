//! The daemon workloads: an in-process `Server` on an ephemeral port,
//! driven closed-loop over real TCP by two connections (one per core) —
//! what a compiler driver calling `satmapit submit` waits for, and what
//! an operator restarting the daemon waits for.

use crate::cells::{build_cells, labels, variant, Cell, Rng};
use crate::ladder::verify;
use crate::metrics::{Report, Round, Rounds};
use crate::spans::{self, Recorder};
use crate::{procfs, stats};
use satmapit_core::{MappedLoop, Mapper, Mapping, Placement, TransferKind};
use satmapit_engine::fingerprint::fingerprint;
use satmapit_engine::persist::{self, Appender, StoreKind};
use satmapit_engine::{Engine, EngineConfig, EngineOutcome, Fingerprint};
use satmapit_regalloc::RegAllocation;
use satmapit_service::wire::{self, MapRequest};
use satmapit_service::{json, Json, Server, ServerConfig};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connections of the load generator: closed-loop, each blocking in
/// `read` for its reply like `satmapit submit` does — one per core of
/// the reference box, against the daemon's two workers, so that requests
/// queue and the waiting clients leave both cores to the daemon.
const CONNECTIONS: usize = 2;

/// Connections of a run that measures for `seconds`, or of the memory
/// probe: the probe submits from one connection, because which two
/// solves overlap moves the daemon's peak memory by a fifth (30 to
/// 38 MiB for identical `service_cold` rounds).
fn connections(seconds: Option<f64>) -> usize {
    if seconds.is_some() {
        CONNECTIONS
    } else {
        1
    }
}

/// A reply that takes longer than this fails its operation (and the
/// read returns, so the run cannot hang past the contract's limit).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Every how many replies the cheap field scan is backed by a full parse.
const FULL_PARSE_EVERY: usize = 64;

/// Synthetic records a restarted daemon has to load next to the real
/// ones (a store that has served a team for a while).
const PADDING_RECORDS: usize = 50_000;

/// One of the three daemon workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Replay of cached cells: wire, net, fingerprint, cache probe.
    Hit,
    /// Guaranteed misses against a daemon with a cache directory: queue,
    /// race, solve, persist append + fsync, response.
    Cold,
    /// Restart on a populated cache directory until the first answer
    /// from disk: store load, bind, first round-trips.
    Restart,
}

/// How often a run repeats the set-ups that solve; `setup_s` is their
/// median. (The set-ups that take milliseconds are repeated after every
/// round.)
const SETUP_REPS: usize = 3;

/// The cells `service_hit` replays: the suite at 2x2, 3x3 and 4x4.
/// Pre-warming them is the workload's set-up.
fn hit_cells(salt: i64) -> Result<Vec<Cell>, String> {
    build_cells(&[2, 3, 4], salt, |_| true)
}

/// The cells `service_cold` submits variants of: the suite at 2x2, and
/// at 3x3 without its two slowest kernels (`patricia`, `hotspot`: 1.2 s
/// of a 2.2 s round), so that a run affords ten rounds, not four.
fn cold_cells() -> Result<Vec<Cell>, String> {
    build_cells(&[2, 3], 0, |row| {
        row.mesh == 2 || !["patricia", "hotspot"].contains(&row.kernel.as_str())
    })
}

/// The cells whose results `service_restart` finds on disk: the six
/// 2x2 kernels the engine solves in under 40 ms each, so that building
/// the stores [`SETUP_REPS`] times stays a small part of a run.
fn restart_cells(salt: i64) -> Result<Vec<Cell>, String> {
    const CHEAP: [&str; 6] = [
        "nw",
        "srand",
        "hotspot",
        "sha2",
        "basicmath",
        "stringsearch",
    ];
    build_cells(&[2], salt, |row| CHEAP.contains(&row.kernel.as_str()))
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// A running in-process daemon.
struct Daemon {
    addr: String,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Binds an ephemeral port (loading the stores of `cache_dir`, if
    /// any) and starts serving on a thread.
    fn start(cache_dir: Option<&Path>) -> Result<Daemon, String> {
        let config = ServerConfig {
            cache_dir: cache_dir.map(Path::to_path_buf),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| io_err("bind", e))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread })
    }

    /// Requests a graceful shutdown and waits for the serving thread.
    fn stop(self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        let ack = conn.roundtrip(b"{\"op\":\"shutdown\"}\n")?;
        if !ack.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {ack}"));
        }
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| io_err("daemon exited with", e))
    }
}

/// A raw client connection: pre-serialised request lines out, reply
/// lines in, nothing else on the measured path.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| io_err("set_read_timeout", e))?;
        let writer = stream.try_clone().map_err(|e| io_err("clone socket", e))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            reply: String::new(),
        })
    }

    /// Sends one newline-terminated request, returns the reply line.
    fn roundtrip(&mut self, line: &[u8]) -> Result<&str, String> {
        self.writer.write_all(line).map_err(|e| io_err("send", e))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(io_err("receive", e)),
        }
    }
}

/// One pre-serialised `map` request and what its reply must say.
#[derive(Debug, Clone)]
struct Prepared {
    /// Index into the workload's cells.
    cell: usize,
    /// The request line, newline included.
    line: Vec<u8>,
    /// The pinned II.
    ii: u32,
}

fn request_line(cell: &Cell, id: usize) -> Vec<u8> {
    let mut line = MapRequest {
        id: Some(id as i64),
        name: cell.label.clone(),
        dfg: cell.kernel.dfg.clone(),
        cgra: cell.cgra.clone(),
        timeout_ms: None,
    }
    .to_json()
    .to_string();
    line.push('\n');
    line.into_bytes()
}

fn prepare_all(cells: &[Cell]) -> Vec<Prepared> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| Prepared {
            cell: i,
            line: request_line(cell, i),
            ii: cell.ii,
        })
        .collect()
}

/// Where a reply must say the answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    /// `cached:false` — solved for this request.
    Solved,
    /// `cached:true` — the in-memory result cache.
    Memory,
    /// `cached:true`, `persistent:true` — loaded from the on-disk store.
    Disk,
}

impl Provenance {
    fn flags(self) -> (bool, bool) {
        match self {
            Provenance::Solved => (false, false),
            Provenance::Memory => (true, false),
            Provenance::Disk => (true, true),
        }
    }

    /// The two fields as the daemon prints them.
    fn fields(self) -> [&'static str; 2] {
        match self {
            Provenance::Solved => ["\"cached\":false", "\"persistent\":false"],
            Provenance::Memory => ["\"cached\":true", "\"persistent\":false"],
            Provenance::Disk => ["\"cached\":true", "\"persistent\":true"],
        }
    }
}

/// The unsigned number that follows the first `key` in `reply`.
fn number_after(reply: &str, key: &str) -> Option<u64> {
    let digits = &reply[reply.find(key)? + key.len()..];
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// The cheap check every reply gets: a field scan, no allocation.
fn scan_reply(reply: &str, ii: u32, provenance: Provenance) -> Result<(), String> {
    if !reply.contains("\"ok\":true") {
        return Err(format!("not ok: {}", &reply[..reply.len().min(200)]));
    }
    if !provenance
        .fields()
        .iter()
        .all(|field| reply.contains(field))
    {
        return Err(format!("expected {:?}", provenance.fields()));
    }
    let got = number_after(reply, "\"status\":\"mapped\",\"ii\":");
    if got != Some(u64::from(ii)) {
        return Err(format!("II {got:?}, expected {ii}"));
    }
    Ok(())
}

/// The full check a sampled reply gets: parse the document and read the
/// same facts from its structure.
fn parse_reply(reply: &str, ii: u32, provenance: Provenance) -> Result<Json, String> {
    let doc = json::parse(reply).map_err(|e| io_err("reply is not JSON", e))?;
    let (cached, persistent) = provenance.flags();
    let flag = |key: &str| doc.get(key).and_then(Json::as_bool);
    if flag("ok") != Some(true) {
        return Err(format!("not ok: {}", &reply[..reply.len().min(200)]));
    }
    if flag("cached") != Some(cached) || flag("persistent") != Some(persistent) {
        return Err(format!("expected cached={cached} persistent={persistent}"));
    }
    let result = doc.get("result").ok_or("reply has no result")?;
    if result.get("status").and_then(Json::as_str) != Some("mapped") {
        return Err("result is not mapped".to_string());
    }
    let got = result.get("ii").and_then(Json::as_u64);
    if got != Some(u64::from(ii)) {
        return Err(format!("II {got:?}, expected {ii}"));
    }
    Ok(doc)
}

/// Rebuilds the mapped loop a reply carries, so it can be validated and
/// executed like an in-process result.
fn mapped_from_reply(doc: &Json) -> Result<MappedLoop, String> {
    let result = doc.get("result").ok_or("reply has no result")?;
    let mapping = result.get("mapping").ok_or("result has no mapping")?;
    let num = |v: Option<&Json>, what: &str| -> Result<u32, String> {
        v.and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("bad `{what}` in reply"))
    };
    let mut placements = Vec::new();
    for p in mapping
        .get("placements")
        .and_then(Json::as_arr)
        .ok_or("mapping has no placements")?
    {
        let triple = p.as_arr().filter(|t| t.len() == 3).ok_or("bad placement")?;
        let pe = num(triple.first(), "pe")?;
        placements.push(Placement {
            pe: satmapit_cgra::PeId(u16::try_from(pe).map_err(|_| "PE out of range")?),
            cycle: num(triple.get(1), "cycle")?,
            fold: num(triple.get(2), "fold")?,
        });
    }
    let mut transfers = Vec::new();
    for t in mapping
        .get("transfers")
        .and_then(Json::as_arr)
        .ok_or("mapping has no transfers")?
    {
        transfers.push(match t.as_str() {
            Some("reg") => TransferKind::SamePeRegister,
            Some("out") => TransferKind::NeighborOutput,
            _ => return Err("bad transfer kind".to_string()),
        });
    }
    let mut per_pe = Vec::new();
    for pe in result
        .get("registers")
        .and_then(Json::as_arr)
        .ok_or("result has no registers")?
    {
        let mut values = Vec::new();
        for pair in pe.as_arr().ok_or("bad register list")? {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad register pair")?;
            let reg = num(pair.get(1), "register")?;
            values.push((
                num(pair.first(), "value")?,
                u8::try_from(reg).map_err(|_| "register out of range")?,
            ));
        }
        per_pe.push(values);
    }
    Ok(MappedLoop {
        mapping: Mapping {
            ii: num(mapping.get("ii"), "mapping.ii")?,
            folds: num(mapping.get("folds"), "folds")?,
            placements,
            transfers,
        },
        registers: RegAllocation::from_per_pe(per_pe),
        mii: num(result.get("mii"), "mii")?,
    })
}

/// Full check of one reply, including validation and execution of the
/// mapping it carries. Returns the time spent verifying.
fn verify_reply(
    cell: &Cell,
    reply: &str,
    provenance: Provenance,
) -> (Result<(), String>, Duration) {
    let mapped = parse_reply(reply, cell.ii, provenance).and_then(|doc| mapped_from_reply(&doc));
    match mapped {
        Ok(mapped) => verify(cell, &mapped),
        Err(why) => (Err(format!("{}: {why}", cell.label)), Duration::ZERO),
    }
}

/// What one [`drive`] call observed.
#[derive(Debug, Default)]
struct Driven {
    /// `(cell, milliseconds)` of every checked round-trip.
    samples: Vec<(usize, f64)>,
    /// Why round-trips failed.
    failures: Vec<String>,
    /// `(cell, reply)` of every round-trip, when asked to keep them.
    kept: Vec<(usize, String)>,
    /// Seconds from the first request to the last reply.
    wall_s: f64,
}

/// Drives `requests`, `laps` times over, closed-loop from `connections`
/// connections: each claims the next request, sends it, and blocks for
/// the reply. Replies are kept when `keep` is set (for
/// verification after the timed region).
fn drive(
    addr: &str,
    requests: &[Prepared],
    laps: usize,
    connections: usize,
    provenance: Provenance,
    keep: bool,
) -> Result<Driven, String> {
    let next = AtomicUsize::new(0);
    let mut conns = Vec::new();
    for _ in 0..connections {
        conns.push(Conn::open(addr)?);
    }
    let t0 = Instant::now();
    let per_conn = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut seen = Driven::default();
                    loop {
                        // ordering: a work-claim ticket; it publishes no
                        // other data, uniqueness is all that is needed.
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        if ticket >= requests.len() * laps {
                            break;
                        }
                        let request = &requests[ticket % requests.len()];
                        let t = Instant::now();
                        let reply = conn.roundtrip(&request.line);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let checked = reply.and_then(|reply| {
                            scan_reply(reply, request.ii, provenance)?;
                            if ticket.is_multiple_of(FULL_PARSE_EVERY) {
                                parse_reply(reply, request.ii, provenance)?;
                            }
                            if keep {
                                seen.kept.push((request.cell, reply.to_string()));
                            }
                            Ok(())
                        });
                        match checked {
                            Ok(()) => seen.samples.push((request.cell, ms)),
                            Err(why) => seen.failures.push(why),
                        }
                    }
                    seen
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "load generator thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut all = Driven {
        wall_s: t0.elapsed().as_secs_f64(),
        ..Driven::default()
    };
    for seen in per_conn {
        all.samples.extend(seen.samples);
        all.failures.extend(seen.failures);
        all.kept.extend(seen.kept);
    }
    Ok(all)
}

/// Books a driven batch into the report; hands back the checked
/// round-trips' waits and the kept replies.
#[allow(clippy::type_complexity)] // two flat lists
fn book(driven: Driven, report: &mut Report) -> (Vec<(usize, f64)>, Vec<(usize, String)>) {
    report.attempted += (driven.samples.len() + driven.failures.len()) as u64;
    for why in driven.failures {
        report.fail(why);
    }
    (driven.samples, driven.kept)
}

/// Drives one timed round and books it; hands back the kept replies.
fn timed_round(
    addr: &str,
    requests: &[Prepared],
    laps: usize,
    connections: usize,
    provenance: Provenance,
    keep: bool,
    report: &mut Report,
) -> Result<(Round, Vec<(usize, String)>), String> {
    let cpu0 = procfs::cpu_seconds()?;
    let driven = drive(addr, requests, laps, connections, provenance, keep)?;
    let cpu_s = procfs::cpu_seconds()? - cpu0;
    let wall_s = driven.wall_s;
    let (waits_ms, kept) = book(driven, report);
    let round = Round {
        wall_s,
        cpu_s,
        waits_ms,
    };
    Ok((round, kept))
}

/// Verifies kept replies outside the timed region; returns microseconds
/// spent.
fn verify_kept(
    cells: &[Cell],
    kept: &[(usize, String)],
    provenance: Provenance,
    report: &mut Report,
) -> f64 {
    let mut us = 0.0;
    for (cell, reply) in kept {
        let (result, d) = verify_reply(&cells[*cell], reply, provenance);
        us += d.as_secs_f64() * 1e6;
        if let Err(why) = result {
            report.fail(why);
        }
    }
    us
}

/// A scratch directory under the benchmark's own `out/`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<out>/<name>-<pid>` afresh.
    pub fn new(out: &Path, name: &str) -> Result<Scratch, String> {
        let dir = out.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create scratch dir", e))?;
        Ok(Scratch(dir))
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// service_hit
// ---------------------------------------------------------------------

/// Laps over the cells in one `service_hit` round: about 8000 requests
/// in 0.7 s, so that a round's 99th percentile has eighty samples
/// beyond it, the 10 ms steps of the process's CPU clock are 1 % of a
/// round, and a run still has some twenty rounds.
const HIT_LAPS: usize = 240;

/// `wait_tail_ms` of `service_hit`: the 99th percentile of a round's
/// round-trips.
const HIT_TAIL_QUANTILE: f64 = 0.99;

/// `wait_tail_ms` of `service_cold`: four of a round's twenty requests
/// take longer.
const COLD_TAIL_QUANTILE: f64 = 0.8;

/// `wait_tail_ms` of `service_restart`: the sixth of a round's eight
/// restarts, the second fastest on the padded store.
const RESTART_TAIL_QUANTILE: f64 = 0.75;

/// Starts a daemon and fills its cache with every cell, over the wire.
/// Returns the daemon and the (cold) replies for later verification.
fn start_prewarmed(
    requests: &[Prepared],
    connections: usize,
    report: &mut Report,
) -> Result<(Daemon, Vec<(usize, String)>), String> {
    let daemon = Daemon::start(None)?;
    let driven = drive(
        &daemon.addr,
        requests,
        1,
        connections,
        Provenance::Solved,
        true,
    )?;
    Ok((daemon, book(driven, report).1))
}

fn run_hit(seed: u64, seconds: Option<f64>, report: &mut Report) -> Result<(), String> {
    let salt = Rng::new(seed, 1).salt();
    let connections = connections(seconds);
    let mut setups = Vec::new();
    let mut live = None;
    let setup_reps = if seconds.is_some() { SETUP_REPS } else { 1 };
    for _ in 0..setup_reps {
        if let Some((_, _, daemon, _)) = live.take() {
            Daemon::stop(daemon)?;
        }
        let t = Instant::now();
        let cells = hit_cells(salt)?;
        let requests = prepare_all(&cells);
        let (daemon, replies) = start_prewarmed(&requests, connections, report)?;
        setups.push(t.elapsed().as_secs_f64());
        live = Some((cells, requests, daemon, replies));
    }
    report.values.set("setup_s", stats::median(&mut setups));
    let (cells, requests, daemon, cold_replies) = live.expect("at least one set-up");

    let mut rounds = Rounds::new(cells.len(), HIT_TAIL_QUANTILE);
    let t0 = Instant::now();
    while rounds.len() == 0 || t0.elapsed().as_secs_f64() < seconds.unwrap_or(0.0) {
        let (round, _) = timed_round(
            &daemon.addr,
            &requests,
            HIT_LAPS,
            connections,
            Provenance::Memory,
            false,
            report,
        )?;
        rounds.push(round);
    }
    rounds.summarise(&mut report.values)?;

    // One more reply per cell, fully checked: a hit must carry the same
    // executable mapping the cold solve produced.
    let driven = drive(
        &daemon.addr,
        &requests,
        1,
        connections,
        Provenance::Memory,
        true,
    )?;
    let (_, hit_replies) = book(driven, report);
    daemon.stop()?;
    verify_kept(&cells, &cold_replies, Provenance::Solved, report);
    verify_kept(&cells, &hit_replies, Provenance::Memory, report);
    crate::log_rounds(&labels(&cells), &rounds)
}

// ---------------------------------------------------------------------
// service_cold
// ---------------------------------------------------------------------

/// The cells of one cold round: every base cell under a salt no earlier
/// round (or run with this seed) has used — the first round in table
/// order, so that the memory probe allocates in the same sequence
/// whatever the seed (the order moves the peak by a fifth), later ones
/// in seed-shuffled order.
fn cold_round(base: &[Cell], rng: &mut Rng, first: bool) -> (Vec<Cell>, Vec<Prepared>) {
    let cells: Vec<Cell> = base
        .iter()
        .map(|cell| {
            let mut fresh = cell.clone();
            fresh.kernel.dfg = variant(&cell.kernel.dfg, rng.salt());
            fresh
        })
        .collect();
    let mut requests = prepare_all(&cells);
    if !first {
        rng.shuffle(&mut requests);
    }
    (cells, requests)
}

fn run_cold(
    seed: u64,
    seconds: Option<f64>,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let scratch = Scratch::new(out, "cold")?;
    let mut rng = Rng::new(seed, 3);
    // Set-up — a daemon on a fresh cache directory plus one round's
    // request lines — takes milliseconds: it is repeated after every
    // round (outside the timed region) so that `setup_s` samples the
    // whole run like the waits do.
    let mut setups = Vec::new();
    let mut stores = 0;
    let mut set_up = |rng: &mut Rng| -> Result<_, String> {
        let t = Instant::now();
        let base = cold_cells()?;
        let daemon = Daemon::start(Some(&scratch.join(&format!("store-{stores}"))))?;
        let round = cold_round(&base, rng, stores == 0);
        setups.push(t.elapsed().as_secs_f64());
        stores += 1;
        Ok((base, daemon, round))
    };
    let (base, daemon, mut next) = set_up(&mut rng)?;

    let mut rounds = Rounds::new(base.len(), COLD_TAIL_QUANTILE);
    let mut to_verify = Vec::new();
    let t0 = Instant::now();
    loop {
        let (cells, requests) = next;
        let (round, kept) = timed_round(
            &daemon.addr,
            &requests,
            1,
            connections(seconds),
            Provenance::Solved,
            true,
            report,
        )?;
        rounds.push(round);
        to_verify.push((cells, kept));
        if t0.elapsed().as_secs_f64() >= seconds.unwrap_or(0.0) {
            break;
        }
        // The next round's requests come from one more set-up; its
        // daemon is not needed.
        let (_, spare, fresh) = set_up(&mut rng)?;
        spare.stop()?;
        next = fresh;
    }
    report.values.set("setup_s", stats::median(&mut setups));
    rounds.summarise(&mut report.values)?;
    daemon.stop()?;
    for (cells, kept) in &to_verify {
        verify_kept(cells, kept, Provenance::Solved, report);
    }
    crate::log_rounds(&labels(&base), &rounds)
}

// ---------------------------------------------------------------------
// service_restart
// ---------------------------------------------------------------------

/// Writes a store directory holding the real results of `cells`, solved
/// through the engine's own persistent path. Returns the outcomes.
fn populate_store(dir: &Path, cells: &[Cell]) -> Result<Vec<Arc<EngineOutcome>>, String> {
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir)
        .map_err(|e| io_err("open cache dir", e))?;
    let outcomes = cells
        .iter()
        .map(|cell| engine.map(&cell.kernel.dfg, &cell.cgra).0)
        .collect();
    Ok(outcomes)
}

/// Appends `count` records under synthetic keys, cycling through real
/// outcomes, through the public record codec and appender.
fn pad_store(
    dir: &Path,
    outcomes: &[Arc<EngineOutcome>],
    count: usize,
    rng: &mut Rng,
) -> Result<(), String> {
    let mut appender = Appender::open(&dir.join(persist::RESULTS_FILE), StoreKind::Results)
        .map_err(|e| io_err("open results store", e))?;
    for k in 0..count {
        let key = Fingerprint((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()));
        let record = persist::encode_result_record(key, &outcomes[k % outcomes.len()]);
        appender
            .append(&record)
            .map_err(|e| io_err("append padding", e))?;
    }
    appender.sync().map_err(|e| io_err("sync padding", e))
}

fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| io_err("create store dir", e))?;
    for name in [persist::RESULTS_FILE, persist::BOUNDS_FILE] {
        if from.join(name).exists() {
            std::fs::copy(from.join(name), to.join(name)).map_err(|e| io_err("copy store", e))?;
        }
    }
    Ok(())
}

/// The two stores a restart is timed on: the real records alone, and
/// the same behind [`PADDING_RECORDS`] synthetic ones.
fn build_stores(
    scratch: &Scratch,
    rep: usize,
    cells: &[Cell],
    rng: &mut Rng,
    report: &mut Report,
) -> Result<[PathBuf; 2], String> {
    let small = scratch.join(&format!("small-{rep}"));
    let padded = scratch.join(&format!("padded-{rep}"));
    let outcomes = populate_store(&small, cells)?;
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        report.op(if outcome.ii() == Some(cell.ii) {
            Ok(())
        } else {
            Err(format!("{}: engine II {:?}", cell.label, outcome.ii()))
        });
    }
    copy_store(&small, &padded)?;
    pad_store(&padded, &outcomes, PADDING_RECORDS, rng)?;
    Ok([small, padded])
}

/// Restarts of each store in one `service_restart` round: the process's
/// CPU clock ticks in 10 ms steps, which is 6 % of one padded restart.
const RESTARTS_PER_ROUND: usize = 4;

/// Runs `f`, inside a span when there is a recorder.
fn spanned<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    op: u32,
    f: impl FnOnce() -> T,
) -> T {
    match rec.as_deref_mut() {
        Some(rec) => rec.time(name, op, f).0,
        None => f(),
    }
}

/// One restart: bind on `dir`, serve, and wait until a `health` probe
/// and the first `map` request have both been answered — the latter
/// from disk. Returns the wait and the still-running daemon. With a
/// recorder the three steps are spans.
fn timed_restart(
    dir: &Path,
    first: &Prepared,
    mut rec: Option<&mut Recorder>,
    op: u32,
) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = spanned(&mut rec, "service.bind", op, || Daemon::start(Some(dir)))?;
    let mut conn = Conn::open(&daemon.addr)?;
    spanned(&mut rec, "net.first_health", op, || {
        let health = conn.roundtrip(b"{\"op\":\"health\"}\n")?;
        if health.contains("\"ok\":true") && health.contains("\"status\":\"healthy\"") {
            Ok(())
        } else {
            Err(format!("unhealthy after restart: {health}"))
        }
    })?;
    spanned(&mut rec, "service.first_map", op, || {
        let reply = conn.roundtrip(&first.line)?;
        scan_reply(reply, first.ii, Provenance::Disk)
    })?;
    Ok((daemon, t.elapsed().as_secs_f64() * 1e3))
}

fn run_restart(
    seed: u64,
    seconds: Option<f64>,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let scratch = Scratch::new(out, "restart")?;
    let mut rng = Rng::new(seed, 4);
    let salt = Rng::new(seed, 1).salt();

    let mut setups = Vec::new();
    let mut built = None;
    let setup_reps = if seconds.is_some() { SETUP_REPS } else { 1 };
    for rep in 0..setup_reps {
        let t = Instant::now();
        let cells = restart_cells(salt)?;
        let requests = prepare_all(&cells);
        let stores = build_stores(&scratch, rep, &cells, &mut rng, report)?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((cells, requests, stores));
    }
    report.values.set("setup_s", stats::median(&mut setups));
    let (cells, requests, stores) = built.expect("at least one set-up");
    let labels = [
        format!("{} records", cells.len()),
        format!("{} records", cells.len() + PADDING_RECORDS),
    ];

    let mut rounds = Rounds::new(stores.len(), RESTART_TAIL_QUANTILE);
    let mut kept = Vec::new();
    let mut restarts = 0;
    let restarts_per_round = if seconds.is_some() {
        RESTARTS_PER_ROUND
    } else {
        1
    };
    let t0 = Instant::now();
    while rounds.len() == 0 || t0.elapsed().as_secs_f64() < seconds.unwrap_or(0.0) {
        let mut waits_ms = Vec::new();
        let mut cpu_s = 0.0;
        for _ in 0..restarts_per_round {
            for (store, dir) in stores.iter().enumerate() {
                let first = &requests[restarts % requests.len()];
                let cpu0 = procfs::cpu_seconds()?;
                let (daemon, ms) = timed_restart(dir, first, None, 0)
                    .map_err(|why| format!("restart on {}: {why}", dir.display()))?;
                cpu_s += procfs::cpu_seconds()? - cpu0;
                waits_ms.push((store, ms));
                report.op(Ok(()));
                // Untimed: everything the store held is answered from
                // disk, and (checked once per store) still executes
                // correctly.
                let driven = drive(
                    &daemon.addr,
                    &requests,
                    1,
                    CONNECTIONS,
                    Provenance::Disk,
                    restarts == 0,
                )?;
                kept.extend(book(driven, report).1);
                daemon.stop()?;
            }
            restarts += 1;
        }
        rounds.push(Round {
            wall_s: waits_ms.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3,
            cpu_s,
            waits_ms,
        });
    }
    rounds.summarise(&mut report.values)?;
    verify_kept(&cells, &kept, Provenance::Disk, report);
    crate::log_rounds(&[&labels[0], &labels[1]], &rounds)
}

/// The untraced run: every end-to-end metric. Without `seconds` it is
/// the memory probe: one set-up and one round, nothing else.
pub fn run_untraced(
    kind: Service,
    seed: u64,
    seconds: Option<f64>,
    out: &Path,
) -> Result<Report, String> {
    let mut report = Report::new();
    match kind {
        Service::Hit => run_hit(seed, seconds, &mut report)?,
        Service::Cold => run_cold(seed, seconds, out, &mut report)?,
        Service::Restart => run_restart(seed, seconds, out, &mut report)?,
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of per-call microseconds.
fn p50(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples)
    }
}

/// Reads `latency.<class>.p50_us` style numbers out of a `stats` reply.
fn stats_number(doc: &Json, path: &[&str]) -> f64 {
    let mut at = doc;
    for key in path {
        match at.get(key) {
            Some(next) => at = next,
            None => return 0.0,
        }
    }
    at.as_i64().unwrap_or(0) as f64
}

/// `health` round-trips: the smallest request the daemon answers.
fn health_rtts(addr: &str, rec: &mut Recorder, n: usize) -> Result<Vec<f64>, String> {
    let mut conn = Conn::open(addr)?;
    let mut rtts = Vec::with_capacity(n);
    for k in 0..n {
        rec.enter("net.health_rtt", k as u32);
        let ok = conn
            .roundtrip(b"{\"op\":\"health\"}\n")
            .map(|r| r.contains("\"ok\":true"));
        rtts.push(us(rec.exit()));
        if ok != Ok(true) {
            return Err("health probe failed".to_string());
        }
    }
    Ok(rtts)
}

/// What sequential round-trips on one connection took.
#[derive(Debug, Default, Clone, Copy)]
struct Roundtrips {
    /// Client-side milliseconds, summed.
    total_ms: f64,
    /// Milliseconds the replies themselves account for (`queue_us` +
    /// `elapsed_us`, the daemon's own clock), summed.
    served_ms: f64,
}

/// Sequential round-trips on one connection. With a recorder each is a
/// `service.rtt` span; without, the same loop gives the untraced
/// reference for the tracing overhead.
fn roundtrips(
    addr: &str,
    mut rec: Option<&mut Recorder>,
    requests: &[Prepared],
    provenance: Provenance,
    rounds: usize,
    report: &mut Report,
) -> Result<Roundtrips, String> {
    let mut conn = Conn::open(addr)?;
    let mut sum = Roundtrips::default();
    for round in 0..rounds {
        for request in requests {
            let op = (round * requests.len() + request.cell) as u32;
            if let Some(rec) = rec.as_deref_mut() {
                rec.enter("service.rtt", op);
            }
            let t = Instant::now();
            let reply = conn.roundtrip(&request.line);
            let elapsed = match rec.as_deref_mut() {
                Some(rec) => rec.exit(),
                None => t.elapsed(),
            };
            sum.total_ms += elapsed.as_secs_f64() * 1e3;
            report.op(reply.and_then(|r| {
                let served = number_after(r, "\"queue_us\":").unwrap_or(0)
                    + number_after(r, "\"elapsed_us\":").unwrap_or(0);
                sum.served_ms += served as f64 / 1e3;
                scan_reply(r, request.ii, provenance)
            }));
        }
    }
    Ok(sum)
}

/// Times the wire codec and the engine's hit path from the harness:
/// the calls a cached `map` request makes, one layer at a time.
fn hit_path_layers(
    rec: &mut Recorder,
    engine: &Engine,
    cells: &[Cell],
    requests: &[Prepared],
    report: &mut Report,
) {
    const ROUNDS: usize = 20;
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    let mut client = Vec::new();
    let mut print = Vec::new();
    let mut probe = Vec::new();
    let mut request_bytes = 0usize;
    let mut response_bytes = 0usize;
    for round in 0..ROUNDS {
        for (cell, request) in cells.iter().zip(requests) {
            let op = (round * cells.len() + request.cell) as u32;
            let (line, d) = rec.time("service.client_encode", op, || {
                request_line(cell, op as usize)
            });
            client.push(us(d));
            request_bytes += line.len();
            let text = std::str::from_utf8(&request.line).expect("request lines are UTF-8");
            let (parsed, d) = rec.time("service.wire_decode", op, || {
                wire::parse_request(text.trim_end())
            });
            decode.push(us(d));
            if parsed.is_err() {
                report.fail(format!("{}: request does not parse", cell.label));
            }
            let (_, d) = rec.time("engine.fingerprint", op, || {
                black_box(fingerprint(&cell.kernel.dfg, &cell.cgra, engine.config()))
            });
            print.push(us(d));
            let (served, d) = rec.time("engine.cache_probe", op, || {
                engine.lookup_cached(&cell.kernel.dfg, &cell.cgra)
            });
            // `lookup_cached` fingerprints again before probing: the
            // whole call is what a hit costs the engine.
            probe.push(us(d));
            let Some(served) = served else {
                report.fail(format!("{}: cache probe missed", cell.label));
                continue;
            };
            let (reply, d) = rec.time("service.wire_encode", op, || {
                wire::map_response(
                    Some(i64::from(op)),
                    &cell.label,
                    served.key,
                    &served.outcome,
                    served.cached,
                    served.persistent,
                    0,
                    0,
                )
                .to_string()
            });
            encode.push(us(d));
            response_bytes += reply.len();
        }
    }
    let n = (ROUNDS * cells.len()) as f64;
    let v = &mut report.values;
    v.set("service.wire_decode_us", p50(&mut decode));
    v.set("service.wire_encode_us", p50(&mut encode));
    v.set("service.client_encode_us", p50(&mut client));
    v.set("service.request_bytes", request_bytes as f64 / n);
    v.set("service.response_bytes", response_bytes as f64 / n);
    v.set("engine.fingerprint_us", p50(&mut print));
    v.set("engine.cache_probe_us", p50(&mut probe));
}

fn daemon_stats(addr: &str, report: &mut Report) -> Result<(), String> {
    let mut conn = Conn::open(addr)?;
    let reply = conn.roundtrip(b"{\"op\":\"stats\"}\n")?;
    let doc = json::parse(reply).map_err(|e| io_err("stats reply", e))?;
    let v = &mut report.values;
    let hit = stats_number(&doc, &["latency", "memory_hit", "p50_us"])
        .max(stats_number(&doc, &["latency", "persistent_hit", "p50_us"]));
    v.set("service.server_hit_us_p50", hit);
    v.set(
        "service.queue_wait_us_p50",
        stats_number(&doc, &["latency", "queue_wait", "p50_us"]),
    );
    v.set(
        "service.solve_us_mean",
        stats_number(&doc, &["solves", "mean_us"]),
    );
    Ok(())
}

fn trace_hit(seed: u64, rec: &mut Recorder, report: &mut Report) -> Result<(), String> {
    let cells = hit_cells(Rng::new(seed, 1).salt())?;
    let requests = prepare_all(&cells);

    // The hit path layer by layer, on an engine filled in-process.
    let engine = Engine::new(EngineConfig::default());
    for cell in &cells {
        let (outcome, _) = engine.map(&cell.kernel.dfg, &cell.cgra);
        report.op(if outcome.ii() == Some(cell.ii) {
            Ok(())
        } else {
            Err(format!("{}: engine II {:?}", cell.label, outcome.ii()))
        });
    }
    hit_path_layers(rec, &engine, &cells, &requests, report);

    // The same requests over the wire.
    let (daemon, cold_replies) = start_prewarmed(&requests, CONNECTIONS, report)?;
    let mut health = health_rtts(&daemon.addr, rec, 2000)?;
    report.values.set("net.health_rtt_us_p50", p50(&mut health));
    const ROUNDS: usize = 50;
    roundtrips(&daemon.addr, None, &requests, Provenance::Memory, 5, report)?;
    let plain = roundtrips(
        &daemon.addr,
        None,
        &requests,
        Provenance::Memory,
        ROUNDS,
        report,
    )?;
    let traced = roundtrips(
        &daemon.addr,
        Some(&mut *rec),
        &requests,
        Provenance::Memory,
        ROUNDS,
        report,
    )?;
    let v = &mut report.values;
    v.set("obs.trace_overhead_ratio", traced.total_ms / plain.total_ms);
    v.set(
        "harness.span_coverage_ratio",
        traced.served_ms / traced.total_ms,
    );
    daemon_stats(&daemon.addr, report)?;
    daemon.stop()?;
    let verify_us = verify_kept(&cells, &cold_replies, Provenance::Solved, report);
    report.values.set("sim.verify_us", verify_us);
    Ok(())
}

/// The persistent write path, call by call: record encode, append + sync.
fn persist_layers(
    rec: &mut Recorder,
    dir: &Path,
    outcomes: &[Arc<EngineOutcome>],
    report: &mut Report,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create store dir", e))?;
    let mut appender = Appender::open(&dir.join(persist::RESULTS_FILE), StoreKind::Results)
        .map_err(|e| io_err("open results store", e))?;
    let mut encode = Vec::new();
    let mut append = Vec::new();
    let mut bytes = 0usize;
    for round in 0..5u32 {
        for (k, outcome) in outcomes.iter().enumerate() {
            let op = round * outcomes.len() as u32 + k as u32;
            let key = Fingerprint(u128::from(op) + 1);
            let (record, d) = rec.time("engine.persist_encode", op, || {
                persist::encode_result_record(key, outcome)
            });
            encode.push(us(d));
            bytes += record.len();
            let (written, d) = rec.time("engine.persist_append", op, || {
                appender.append(&record).and_then(|()| appender.sync())
            });
            append.push(us(d));
            written.map_err(|e| io_err("append + sync", e))?;
        }
    }
    let v = &mut report.values;
    v.set(
        "engine.persist_record_bytes",
        bytes as f64 / encode.len() as f64,
    );
    v.set("engine.persist_encode_us", p50(&mut encode));
    v.set("engine.persist_append_us", p50(&mut append));
    Ok(())
}

fn trace_cold(
    seed: u64,
    out: &Path,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let scratch = Scratch::new(out, "cold-trace")?;
    let mut rng = Rng::new(seed, 3);
    let base = cold_cells()?;

    // What the race costs over the sequential ladder, in-process: the
    // engine as the daemon configures it (one race worker per solve when
    // both daemon workers are busy), on fresh variants of every cell.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let (cells, _) = cold_round(&base, &mut rng, false);
    let mut sequential_us = 0.0;
    let mut raced_us = 0.0;
    let mut started = 0u64;
    let mut cancelled = 0u64;
    let mut outcomes = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let op = i as u32;
        let (outcome, d) = rec.time("core.mapper_run", op, || {
            Mapper::new(&cell.kernel.dfg, &cell.cgra).run()
        });
        sequential_us += us(d);
        let ((raced, cached), d) = rec.time("engine.map_cold", op, || {
            engine.map(&cell.kernel.dfg, &cell.cgra)
        });
        raced_us += us(d);
        started += raced.stats.tasks_started;
        cancelled += raced.stats.tasks_cancelled;
        report.op(
            if cached || raced.ii() != Some(cell.ii) || outcome.ii() != Some(cell.ii) {
                Err(format!(
                    "{}: sequential II {:?}, raced II {:?}, cached {cached}",
                    cell.label,
                    outcome.ii(),
                    raced.ii()
                ))
            } else {
                Ok(())
            },
        );
        outcomes.push(raced);
    }
    let v = &mut report.values;
    v.set("engine.map_cold_us", raced_us);
    v.set("engine.race_overhead_ratio", raced_us / sequential_us);
    v.set("engine.race_tasks_started", started as f64);
    v.set(
        "engine.race_cancelled_ratio",
        cancelled as f64 / (started as f64).max(1.0),
    );
    persist_layers(rec, &scratch.join("layers"), &outcomes, report)?;

    // One cold pass over the wire, traced; one more untraced before it
    // for the overhead ratio.
    let daemon = Daemon::start(Some(&scratch.join("store")))?;
    let (_, requests) = cold_round(&base, &mut rng, false);
    let plain = roundtrips(&daemon.addr, None, &requests, Provenance::Solved, 1, report)?;
    let (_, requests) = cold_round(&base, &mut rng, false);
    let traced = roundtrips(
        &daemon.addr,
        Some(&mut *rec),
        &requests,
        Provenance::Solved,
        1,
        report,
    )?;
    let v = &mut report.values;
    v.set("obs.trace_overhead_ratio", traced.total_ms / plain.total_ms);
    v.set(
        "harness.span_coverage_ratio",
        traced.served_ms / traced.total_ms,
    );
    // And one with both connections, so queue waiting shows.
    let (cells2, requests2) = cold_round(&base, &mut rng, false);
    let driven = drive(
        &daemon.addr,
        &requests2,
        1,
        CONNECTIONS,
        Provenance::Solved,
        true,
    )?;
    let (_, kept) = book(driven, report);
    daemon_stats(&daemon.addr, report)?;
    daemon.stop()?;
    let verify_us = verify_kept(&cells2, &kept, Provenance::Solved, report);
    report.values.set("sim.verify_us", verify_us);
    Ok(())
}

fn trace_restart(
    seed: u64,
    out: &Path,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let scratch = Scratch::new(out, "restart-trace")?;
    let mut rng = Rng::new(seed, 4);
    let cells = restart_cells(Rng::new(seed, 1).salt())?;
    let requests = prepare_all(&cells);
    let stores = build_stores(&scratch, 0, &cells, &mut rng, report)?;

    // Store load through the public loader, per record.
    let mut per_record = Vec::new();
    for k in 0..5 {
        let (loaded, d) = rec.time("engine.persist_load", k, || {
            persist::load_results(&stores[1])
        });
        let (map, warnings) = loaded.map_err(|e| io_err("load store", e))?;
        if !warnings.is_empty() || map.len() != cells.len() + PADDING_RECORDS {
            report.fail(format!(
                "padded store loaded {} records with {} warnings",
                map.len(),
                warnings.len()
            ));
        }
        per_record.push(us(d) / map.len() as f64);
    }
    report
        .values
        .set("engine.persist_load_us_per_record", p50(&mut per_record));

    // A hit on an entry that came from disk, in-process.
    let engine = Engine::with_cache_dir(EngineConfig::default(), &stores[0])
        .map_err(|e| io_err("open cache dir", e))?;
    let mut hits = Vec::new();
    for round in 0..50u32 {
        for (k, cell) in cells.iter().enumerate() {
            let op = round * cells.len() as u32 + k as u32;
            let (served, d) = rec.time("engine.persist_hit", op, || {
                engine.lookup_cached(&cell.kernel.dfg, &cell.cgra)
            });
            hits.push(us(d));
            if !served.is_some_and(|s| s.persistent) {
                report.fail(format!("{}: not a persistent hit", cell.label));
            }
        }
    }
    report.values.set("engine.persist_hit_us", p50(&mut hits));
    drop(engine);

    // Restarts under spans, and without for the overhead ratio.
    let mut plain = 0.0;
    let mut traced = 0.0;
    let mut kept = Vec::new();
    for pass in 0..5 {
        for (store, dir) in stores.iter().enumerate() {
            let first = &requests[pass % requests.len()];
            let (daemon, ms) = timed_restart(dir, first, None, 0)?;
            plain += ms;
            daemon.stop()?;
            let op = (pass * stores.len() + store) as u32;
            rec.enter("service.restart", op);
            let restarted = timed_restart(dir, first, Some(&mut *rec), op);
            traced += rec.exit().as_secs_f64() * 1e3;
            let (daemon, _) = restarted?;
            report.op(Ok(()));
            if pass == 0 && store == 1 {
                let driven = drive(
                    &daemon.addr,
                    &requests,
                    1,
                    CONNECTIONS,
                    Provenance::Disk,
                    true,
                )?;
                kept = book(driven, report).1;
                let mut health = health_rtts(&daemon.addr, rec, 500)?;
                report.values.set("net.health_rtt_us_p50", p50(&mut health));
                daemon_stats(&daemon.addr, report)?;
            }
            daemon.stop()?;
        }
    }
    report
        .values
        .set("obs.trace_overhead_ratio", traced / plain);
    let verify_us = verify_kept(&cells, &kept, Provenance::Disk, report);
    report.values.set("sim.verify_us", verify_us);
    Ok(())
}

/// The traced run: every per-layer metric (0 for layers the workload
/// bypasses) and the Chrome trace.
pub fn run_traced(
    kind: Service,
    seed: u64,
    out: &Path,
    trace_out: &Path,
) -> Result<Report, String> {
    let mut report = Report::new();
    let mut rec = Recorder::new(Instant::now(), 1);
    match kind {
        Service::Hit => trace_hit(seed, &mut rec, &mut report)?,
        Service::Cold => trace_cold(seed, out, &mut rec, &mut report)?,
        Service::Restart => trace_restart(seed, out, &mut rec, &mut report)?,
    }
    let totals = spans::totals_by_name(&[&rec]);
    if let Some(restart) = totals.get("service.restart") {
        // A restart's three steps are spans of their own; what is left
        // is the daemon thread's start and the connect.
        let covered = 1.0 - restart.self_us / restart.total_us;
        report.values.set("harness.span_coverage_ratio", covered);
    }
    crate::write_trace(trace_out, &[&rec])?;
    crate::log_span_table(&totals);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = r#"{"id":3,"ok":true,"name":"sha@2x2","fingerprint":"ab","cached":true,"persistent":false,"elapsed_us":5,"queue_us":1,"result":{"status":"mapped","ii":5,"mii":4,"mapping":{"ii":5,"folds":2,"placements":[[0,1,0],[3,4,1]],"transfers":["reg","out"]},"registers":[[[0,1]],[],[],[]],"attempts":[{"ii":4,"outcome":"unsat"},{"ii":5,"outcome":"mapped"}]}}"#;

    #[test]
    fn field_scan_and_full_parse_agree() {
        for check in [scan_reply, |r: &str, ii, p| {
            parse_reply(r, ii, p).map(|_| ())
        }] {
            assert!(check(REPLY, 5, Provenance::Memory).is_ok());
            assert!(check(REPLY, 4, Provenance::Memory).is_err(), "wrong II");
            assert!(check(REPLY, 5, Provenance::Solved).is_err(), "was cached");
            assert!(check(REPLY, 5, Provenance::Disk).is_err(), "not from disk");
            let refused = r#"{"ok":false,"error":"queue full"}"#;
            assert!(check(refused, 5, Provenance::Memory).is_err());
        }
    }

    #[test]
    fn replies_decode_into_mapped_loops() {
        let doc = parse_reply(REPLY, 5, Provenance::Memory).unwrap();
        let mapped = mapped_from_reply(&doc).unwrap();
        assert_eq!(mapped.ii(), 5);
        assert_eq!(mapped.mii, 4);
        assert_eq!(mapped.mapping.folds, 2);
        assert_eq!(mapped.mapping.placements.len(), 2);
        assert_eq!(mapped.mapping.placements[1].pe.index(), 3);
        assert_eq!(mapped.mapping.placements[1].cycle, 4);
        assert_eq!(mapped.mapping.transfers[1], TransferKind::NeighborOutput);
        assert_eq!(mapped.registers.reg_of(0, 0), Some(1));
        let broken = REPLY.replace("\"reg\"", "\"wire\"");
        let doc = parse_reply(&broken, 5, Provenance::Memory).unwrap();
        assert!(mapped_from_reply(&doc).is_err());
    }

    #[test]
    fn a_daemon_round_trip_verifies_end_to_end() {
        // The whole client path on the cheapest cell: cold, then cached.
        let cells = build_cells(&[2], 11, |r| r.kernel == "basicmath").unwrap();
        let requests = prepare_all(&cells);
        let daemon = Daemon::start(None).unwrap();
        let mut report = Report::new();
        let driven = drive(
            &daemon.addr,
            &requests,
            1,
            CONNECTIONS,
            Provenance::Solved,
            true,
        )
        .unwrap();
        let (_, cold) = book(driven, &mut report);
        let (round, hot) = timed_round(
            &daemon.addr,
            &requests,
            1,
            CONNECTIONS,
            Provenance::Memory,
            true,
            &mut report,
        )
        .unwrap();
        daemon.stop().unwrap();
        verify_kept(&cells, &cold, Provenance::Solved, &mut report);
        verify_kept(&cells, &hot, Provenance::Memory, &mut report);
        assert_eq!(
            (report.attempted, report.failed),
            (2, 0),
            "{:?}",
            report.failures
        );
        assert_eq!(round.waits_ms.len(), 1);
        assert!(round.wall_s * 1e3 >= round.waits_ms[0].1);
    }
}

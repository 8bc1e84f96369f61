//! The wire format: JSON encodings of DFGs, CGRAs, requests and
//! responses, shared by the server, the `satmapit submit` client and the
//! tests (which use [`outcome_signature`] to compare a daemon's answers
//! against a local [`Engine::map_batch`](satmapit_engine::Engine) run).
//!
//! Every request and response is one JSON object per line (`\n`
//! terminated). See `docs/service.md` for the full protocol reference;
//! round-trip fidelity over arbitrary inputs is pinned by proptests in
//! `tests/wire_roundtrip.rs`.

use crate::json::Json;
use satmapit_cgra::{Cgra, MemoryPolicy, Topology};
use satmapit_core::{AttemptOutcome, MapFailure};
use satmapit_dfg::{Dfg, Op};
use satmapit_engine::EngineOutcome;
use std::fmt;

/// A malformed wire document: what was wrong, in one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl WireError {
    fn new(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Op / enum names
// ---------------------------------------------------------------------------

/// The wire name of an operation (its canonical enum name).
pub fn op_name(op: Op) -> &'static str {
    match op {
        Op::Const => "Const",
        Op::Add => "Add",
        Op::Sub => "Sub",
        Op::Mul => "Mul",
        Op::Div => "Div",
        Op::Rem => "Rem",
        Op::And => "And",
        Op::Or => "Or",
        Op::Xor => "Xor",
        Op::Not => "Not",
        Op::Neg => "Neg",
        Op::Abs => "Abs",
        Op::Shl => "Shl",
        Op::Shr => "Shr",
        Op::Ror => "Ror",
        Op::Min => "Min",
        Op::Max => "Max",
        Op::Eq => "Eq",
        Op::Ne => "Ne",
        Op::Lt => "Lt",
        Op::Le => "Le",
        Op::Gt => "Gt",
        Op::Ge => "Ge",
        Op::Select => "Select",
        Op::Load => "Load",
        Op::Store => "Store",
        Op::Route => "Route",
    }
}

/// Parses an operation's wire name.
pub fn op_from_name(name: &str) -> Option<Op> {
    Some(match name {
        "Const" => Op::Const,
        "Add" => Op::Add,
        "Sub" => Op::Sub,
        "Mul" => Op::Mul,
        "Div" => Op::Div,
        "Rem" => Op::Rem,
        "And" => Op::And,
        "Or" => Op::Or,
        "Xor" => Op::Xor,
        "Not" => Op::Not,
        "Neg" => Op::Neg,
        "Abs" => Op::Abs,
        "Shl" => Op::Shl,
        "Shr" => Op::Shr,
        "Ror" => Op::Ror,
        "Min" => Op::Min,
        "Max" => Op::Max,
        "Eq" => Op::Eq,
        "Ne" => Op::Ne,
        "Lt" => Op::Lt,
        "Le" => Op::Le,
        "Gt" => Op::Gt,
        "Ge" => Op::Ge,
        "Select" => Op::Select,
        "Load" => Op::Load,
        "Store" => Op::Store,
        "Route" => Op::Route,
        _ => return None,
    })
}

fn topology_name(t: Topology) -> &'static str {
    match t {
        Topology::Mesh4 => "Mesh4",
        Topology::Mesh8 => "Mesh8",
        Topology::Torus4 => "Torus4",
    }
}

fn topology_from_name(name: &str) -> Option<Topology> {
    Some(match name {
        "Mesh4" => Topology::Mesh4,
        "Mesh8" => Topology::Mesh8,
        "Torus4" => Topology::Torus4,
        _ => return None,
    })
}

fn memory_policy_name(p: MemoryPolicy) -> &'static str {
    match p {
        MemoryPolicy::AllPes => "AllPes",
        MemoryPolicy::LeftColumn => "LeftColumn",
        MemoryPolicy::None => "None",
        MemoryPolicy::SplitLoadStore => "SplitLoadStore",
    }
}

fn memory_policy_from_name(name: &str) -> Option<MemoryPolicy> {
    Some(match name {
        "AllPes" => MemoryPolicy::AllPes,
        "LeftColumn" => MemoryPolicy::LeftColumn,
        "None" => MemoryPolicy::None,
        "SplitLoadStore" => MemoryPolicy::SplitLoadStore,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    value
        .get(key)
        .ok_or_else(|| WireError::new(format!("missing field `{key}`")))
}

fn u64_field(value: &Json, key: &str) -> Result<u64, WireError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("field `{key}` must be a non-negative integer")))
}

fn i64_field(value: &Json, key: &str) -> Result<i64, WireError> {
    field(value, key)?
        .as_i64()
        .ok_or_else(|| WireError::new(format!("field `{key}` must be an integer")))
}

fn str_field<'a>(value: &'a Json, key: &str) -> Result<&'a str, WireError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("field `{key}` must be a string")))
}

fn narrow<T: TryFrom<u64>>(v: u64, key: &str) -> Result<T, WireError> {
    T::try_from(v).map_err(|_| WireError::new(format!("field `{key}` out of range")))
}

// ---------------------------------------------------------------------------
// DFG / CGRA codecs
// ---------------------------------------------------------------------------

/// Encodes a DFG, preserving everything — name and labels included — so
/// decode reproduces a structurally *equal* graph.
pub fn dfg_to_json(dfg: &Dfg) -> Json {
    let nodes: Vec<Json> = dfg
        .node_ids()
        .map(|n| {
            let node = dfg.node(n);
            Json::obj(vec![
                ("op", Json::Str(op_name(node.op).to_string())),
                ("imm", Json::Int(node.imm)),
                ("label", Json::Str(node.label.clone())),
            ])
        })
        .collect();
    let edges: Vec<Json> = dfg
        .edges()
        .map(|(_, e)| {
            Json::obj(vec![
                ("src", Json::Int(i64::from(e.src.0))),
                ("dst", Json::Int(i64::from(e.dst.0))),
                ("operand", Json::Int(i64::from(e.operand))),
                ("distance", Json::Int(i64::from(e.distance))),
                ("init", Json::Int(e.init)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("name", Json::Str(dfg.name().to_string())),
        ("nodes", Json::Arr(nodes)),
        ("edges", Json::Arr(edges)),
    ])
}

/// Decodes a DFG written by [`dfg_to_json`] (or hand-written in the same
/// shape). Edge endpoints are bounds-checked here — a malformed document
/// is an error, never a panic.
pub fn dfg_from_json(value: &Json) -> Result<Dfg, WireError> {
    let name = str_field(value, "name")?;
    let mut dfg = Dfg::new(name);
    let nodes = field(value, "nodes")?
        .as_arr()
        .ok_or_else(|| WireError::new("`nodes` must be an array"))?;
    for node in nodes {
        let op_str = str_field(node, "op")?;
        let op =
            op_from_name(op_str).ok_or_else(|| WireError::new(format!("unknown op `{op_str}`")))?;
        let imm = i64_field(node, "imm")?;
        let label = str_field(node, "label")?;
        dfg.add_node_labeled(op, imm, label);
    }
    let edges = field(value, "edges")?
        .as_arr()
        .ok_or_else(|| WireError::new("`edges` must be an array"))?;
    for edge in edges {
        let src = u64_field(edge, "src")?;
        let dst = u64_field(edge, "dst")?;
        if src >= nodes.len() as u64 || dst >= nodes.len() as u64 {
            return Err(WireError::new(format!(
                "edge {src}->{dst} references a node outside 0..{}",
                nodes.len()
            )));
        }
        let operand: u8 = narrow(u64_field(edge, "operand")?, "operand")?;
        let distance: u32 = narrow(u64_field(edge, "distance")?, "distance")?;
        let init = i64_field(edge, "init")?;
        // `add_back_edge` is the general constructor: it stores distance
        // and init verbatim (distance 0 = intra-iteration), which keeps
        // the decode structurally equal to the encoded graph.
        dfg.add_back_edge(
            satmapit_dfg::NodeId(src as u32),
            satmapit_dfg::NodeId(dst as u32),
            operand,
            distance,
            init,
        );
    }
    Ok(dfg)
}

/// Encodes a CGRA instance.
pub fn cgra_to_json(cgra: &Cgra) -> Json {
    Json::obj(vec![
        ("rows", Json::Int(i64::from(cgra.rows()))),
        ("cols", Json::Int(i64::from(cgra.cols()))),
        (
            "topology",
            Json::Str(topology_name(cgra.topology()).to_string()),
        ),
        ("regs_per_pe", Json::Int(i64::from(cgra.regs_per_pe()))),
        (
            "memory_policy",
            Json::Str(memory_policy_name(cgra.memory_policy()).to_string()),
        ),
    ])
}

/// Decodes a CGRA written by [`cgra_to_json`]. Missing `topology`,
/// `regs_per_pe` or `memory_policy` fall back to the paper's defaults.
pub fn cgra_from_json(value: &Json) -> Result<Cgra, WireError> {
    let rows: u16 = narrow(u64_field(value, "rows")?, "rows")?;
    let cols: u16 = narrow(u64_field(value, "cols")?, "cols")?;
    if rows == 0 || cols == 0 {
        return Err(WireError::new("CGRA dimensions must be positive"));
    }
    let mut cgra = Cgra::new(rows, cols);
    if let Some(t) = value.get("topology") {
        let name = t
            .as_str()
            .ok_or_else(|| WireError::new("`topology` must be a string"))?;
        cgra = cgra.with_topology(
            topology_from_name(name)
                .ok_or_else(|| WireError::new(format!("unknown topology `{name}`")))?,
        );
    }
    if let Some(r) = value.get("regs_per_pe") {
        let regs = r
            .as_u64()
            .ok_or_else(|| WireError::new("`regs_per_pe` must be a non-negative integer"))?;
        cgra = cgra.with_regs_per_pe(narrow(regs, "regs_per_pe")?);
    }
    if let Some(p) = value.get("memory_policy") {
        let name = p
            .as_str()
            .ok_or_else(|| WireError::new("`memory_policy` must be a string"))?;
        cgra = cgra.with_memory_policy(
            memory_policy_from_name(name)
                .ok_or_else(|| WireError::new(format!("unknown memory policy `{name}`")))?,
        );
    }
    Ok(cgra)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One mapping job as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRequest {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: Option<i64>,
    /// Display name for logs and human output.
    pub name: String,
    /// The loop body.
    pub dfg: Dfg,
    /// The target array.
    pub cgra: Cgra,
    /// Per-request wall-clock budget; the server turns it into a deadline
    /// the moment the request is admitted.
    pub timeout_ms: Option<u64>,
}

impl MapRequest {
    /// Encodes the request as one wire object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("op", Json::Str("map".to_string()))];
        if let Some(id) = self.id {
            pairs.push(("id", Json::Int(id)));
        }
        pairs.push(("name", Json::Str(self.name.clone())));
        pairs.push(("dfg", dfg_to_json(&self.dfg)));
        pairs.push(("cgra", cgra_to_json(&self.cgra)));
        if let Some(ms) = self.timeout_ms {
            pairs.push(("timeout_ms", Json::Int(ms as i64)));
        }
        Json::obj(pairs)
    }
}

/// Every request the daemon understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Map one DFG onto one CGRA.
    Map(Box<MapRequest>),
    /// Cache/queue/latency counters.
    Stats,
    /// Liveness probe.
    Health,
    /// Drain the flight recorder: collect every recorded span, write a
    /// Chrome trace file when the daemon has a trace directory, answer
    /// with the event count.
    Trace,
    /// Graceful shutdown: drain, compact caches, exit.
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let value = crate::json::parse(line).map_err(|e| WireError::new(format!("bad JSON: {e}")))?;
    let op = str_field(&value, "op")?;
    match op {
        "map" => {
            let id = value.get("id").and_then(Json::as_i64);
            let name = value
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("unnamed")
                .to_string();
            let dfg = dfg_from_json(field(&value, "dfg")?)?;
            let cgra = cgra_from_json(field(&value, "cgra")?)?;
            let timeout_ms = match value.get("timeout_ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    WireError::new("`timeout_ms` must be a non-negative integer")
                })?),
            };
            Ok(Request::Map(Box::new(MapRequest {
                id,
                name,
                dfg,
                cgra,
                timeout_ms,
            })))
        }
        "stats" => Ok(Request::Stats),
        "health" => Ok(Request::Health),
        "trace" => Ok(Request::Trace),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError::new(format!("unknown op `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

pub(crate) fn attempt_outcome_name(outcome: &AttemptOutcome) -> String {
    match outcome {
        AttemptOutcome::Mapped => "mapped".to_string(),
        AttemptOutcome::Unsat => "unsat".to_string(),
        AttemptOutcome::RegAllocFailed(e) => format!("regalloc_failed({e})"),
        AttemptOutcome::SolverBudget(r) => format!("solver_budget({r:?})"),
    }
}

fn failure_kind(e: &MapFailure) -> &'static str {
    match e {
        MapFailure::InvalidDfg(_) => "invalid_dfg",
        MapFailure::Structural(_) => "structural",
        MapFailure::Timeout { .. } => "timeout",
        MapFailure::IiCapReached { .. } => "ii_cap_reached",
        MapFailure::InvalidIi { .. } => "invalid_ii",
        MapFailure::Internal(_) => "internal",
    }
}

/// The *deterministic* content of an outcome: result (full mapping and
/// register file, or the failure), MII, and the per-II attempt trace by
/// (II, outcome kind). Wall-clock fields (elapsed, solver effort, race
/// telemetry) are excluded — two runs of the same problem produce the
/// same signature, which is exactly what the loopback agreement tests
/// compare between a daemon and a local `Engine::map_batch`.
pub fn outcome_signature(outcome: &EngineOutcome) -> Json {
    let attempts: Vec<Json> = outcome
        .outcome
        .attempts
        .iter()
        .map(|a| {
            Json::obj(vec![
                ("ii", Json::Int(i64::from(a.ii))),
                ("outcome", Json::Str(attempt_outcome_name(&a.outcome))),
            ])
        })
        .collect();
    match &outcome.outcome.result {
        Ok(mapped) => {
            let placements: Vec<Json> = mapped
                .mapping
                .placements
                .iter()
                .map(|p| {
                    Json::Arr(vec![
                        Json::Int(i64::from(p.pe.0)),
                        Json::Int(i64::from(p.cycle)),
                        Json::Int(i64::from(p.fold)),
                    ])
                })
                .collect();
            let transfers: Vec<Json> = mapped
                .mapping
                .transfers
                .iter()
                .map(|t| {
                    Json::Str(match t {
                        satmapit_core::TransferKind::SamePeRegister => "reg".to_string(),
                        satmapit_core::TransferKind::NeighborOutput => "out".to_string(),
                    })
                })
                .collect();
            let registers: Vec<Json> = mapped
                .registers
                .per_pe()
                .iter()
                .map(|pe| {
                    Json::Arr(
                        pe.iter()
                            .map(|&(value, reg)| {
                                Json::Arr(vec![
                                    Json::Int(i64::from(value)),
                                    Json::Int(i64::from(reg)),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect();
            Json::obj(vec![
                ("status", Json::Str("mapped".to_string())),
                ("ii", Json::Int(i64::from(mapped.ii()))),
                ("mii", Json::Int(i64::from(mapped.mii))),
                (
                    "mapping",
                    Json::obj(vec![
                        ("ii", Json::Int(i64::from(mapped.mapping.ii))),
                        ("folds", Json::Int(i64::from(mapped.mapping.folds))),
                        ("placements", Json::Arr(placements)),
                        ("transfers", Json::Arr(transfers)),
                    ]),
                ),
                ("registers", Json::Arr(registers)),
                ("attempts", Json::Arr(attempts)),
            ])
        }
        Err(e) => Json::obj(vec![
            ("status", Json::Str("failed".to_string())),
            ("kind", Json::Str(failure_kind(e).to_string())),
            ("error", Json::Str(e.to_string())),
            ("proven_unmappable", Json::Bool(outcome.proven_unmappable)),
            ("attempts", Json::Arr(attempts)),
        ]),
    }
}

/// Builds the full `map` response line content. `elapsed_us` is solve
/// time only; `queue_us` is the time the request waited for a worker
/// (0 for answers that never queued: cache hits at admission, expired
/// deadlines).
#[allow(clippy::too_many_arguments)]
pub fn map_response(
    id: Option<i64>,
    name: &str,
    fingerprint: satmapit_engine::Fingerprint,
    outcome: &EngineOutcome,
    cached: bool,
    persistent: bool,
    elapsed_us: u64,
    queue_us: u64,
) -> Json {
    let mut pairs = Vec::new();
    if let Some(id) = id {
        pairs.push(("id", Json::Int(id)));
    }
    pairs.push(("ok", Json::Bool(true)));
    pairs.push(("name", Json::Str(name.to_string())));
    pairs.push(("fingerprint", Json::Str(fingerprint.to_string())));
    pairs.push(("cached", Json::Bool(cached)));
    pairs.push(("persistent", Json::Bool(persistent)));
    pairs.push(("elapsed_us", Json::Int(elapsed_us as i64)));
    pairs.push(("queue_us", Json::Int(queue_us as i64)));
    pairs.push(("result", outcome_signature(outcome)));
    Json::obj(pairs)
}

/// Builds an error response line content.
pub fn error_response(id: Option<i64>, message: &str) -> Json {
    let mut pairs = Vec::new();
    if let Some(id) = id {
        pairs.push(("id", Json::Int(id)));
    }
    pairs.push(("ok", Json::Bool(false)));
    pairs.push(("error", Json::Str(message.to_string())));
    Json::obj(pairs)
}

/// Encodes the engine's cache statistics (shared by `stats` responses
/// and `satmapit batch --stats`): the occupancy figures, every counter of
/// the [`satmapit_engine::CacheStats`] table under its own name, and the
/// degraded latch.
pub fn cache_stats_to_json(stats: &satmapit_engine::CacheStats) -> Json {
    use satmapit_engine::Counters;
    let mut pairs = vec![
        ("entries", Json::Int(stats.entries as i64)),
        ("bound_entries", Json::Int(stats.bound_entries as i64)),
        (
            "persistent_entries",
            Json::Int(stats.persistent_entries as i64),
        ),
    ];
    pairs.extend(
        stats
            .fields()
            .map(|(name, _, value)| (name, Json::Int(value as i64))),
    );
    pairs.push(("degraded", Json::Bool(stats.degraded)));
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_dfg() -> Dfg {
        // acc = acc + 7 — exercises a loop-carried edge with a live-in.
        let mut dfg = Dfg::new("sample");
        let a = dfg.add_const(7);
        let acc = dfg.add_node(Op::Add);
        dfg.add_edge(a, acc, 0);
        dfg.add_back_edge(acc, acc, 1, 1, -3);
        dfg
    }

    #[test]
    fn dfg_round_trips_through_json_text() {
        let dfg = sample_dfg();
        let text = dfg_to_json(&dfg).to_string();
        let decoded = dfg_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, dfg);
    }

    #[test]
    fn cgra_round_trips() {
        let cgra = Cgra::new(2, 5)
            .with_topology(Topology::Torus4)
            .with_regs_per_pe(7)
            .with_memory_policy(MemoryPolicy::SplitLoadStore);
        let text = cgra_to_json(&cgra).to_string();
        assert_eq!(cgra_from_json(&parse(&text).unwrap()).unwrap(), cgra);
    }

    #[test]
    fn cgra_defaults_apply_when_fields_missing() {
        let cgra = cgra_from_json(&parse(r#"{"rows":3,"cols":3}"#).unwrap()).unwrap();
        assert_eq!(cgra, Cgra::square(3));
    }

    #[test]
    fn request_round_trips() {
        let request = MapRequest {
            id: Some(42),
            name: "sample@2x2".to_string(),
            dfg: sample_dfg(),
            cgra: Cgra::square(2),
            timeout_ms: Some(5000),
        };
        let line = request.to_json().to_string();
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Map(Box::new(request))
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
        assert_eq!(parse_request(r#"{"op":"trace"}"#).unwrap(), Request::Trace);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_errors() {
        for bad in [
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"op":"map"}"#,
            r#"{"op":"map","dfg":{"name":"x","nodes":[],"edges":[]},"cgra":{"rows":0,"cols":1}}"#,
            // Edge pointing outside the node list must not panic.
            r#"{"op":"map","dfg":{"name":"x","nodes":[{"op":"Const","imm":0,"label":"c"}],"edges":[{"src":0,"dst":9,"operand":0,"distance":0,"init":0}]},"cgra":{"rows":1,"cols":1}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn signature_excludes_wall_clock_but_keeps_the_mapping() {
        let dfg = sample_dfg();
        let cgra = Cgra::square(2);
        let config = satmapit_engine::EngineConfig::default();
        let a = satmapit_engine::solve(&dfg, &cgra, &config, None);
        let b = satmapit_engine::solve(&dfg, &cgra, &config, None);
        assert_eq!(outcome_signature(&a), outcome_signature(&b));
        let sig = outcome_signature(&a);
        assert_eq!(sig.get("status").and_then(Json::as_str), Some("mapped"));
        assert!(sig.get("mapping").is_some());
    }

    /// The `stats` object's keys are API: a counter added to the
    /// `CacheStats` table shows up here on its own, and none may vanish
    /// or be renamed.
    #[test]
    fn cache_stats_keep_their_wire_keys() {
        let stats = satmapit_engine::CacheStats {
            hits: 3,
            degraded: true,
            ..Default::default()
        };
        let Json::Obj(pairs) = cache_stats_to_json(&stats) else {
            panic!("stats encode as an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "entries",
                "bound_entries",
                "persistent_entries",
                "hits",
                "misses",
                "persistent_hits",
                "bound_starts",
                "gc_runs",
                "lits_reclaimed",
                "arena_wasted",
                "shared_exported",
                "shared_imported",
                "shared_dropped",
                "sat_wins",
                "morph_wins",
                "bound_exchanges",
                "evicted_size",
                "evicted_age",
                "compactions",
                "append_errors",
                "fsyncs",
                "degraded",
            ]
        );
        let json = Json::Obj(pairs);
        assert_eq!(json.get("hits").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("degraded").and_then(Json::as_bool), Some(true));
    }
}

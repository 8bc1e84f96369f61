//! The wire format: JSON encodings of DFGs, CGRAs, requests and
//! responses, shared by the server, the `satmapit submit` client and the
//! tests (which use [`outcome_signature`] to compare a daemon's answers
//! against a local [`Engine::map_batch`](satmapit_engine::Engine) run).
//!
//! Every request and response is one JSON object per line (`\n`
//! terminated). See `docs/service.md` for the full protocol reference;
//! round-trip fidelity over arbitrary inputs is pinned by proptests in
//! `tests/wire_roundtrip.rs`.

use crate::json::{Event, Json, JsonError, Reader};
use satmapit_cgra::{Cgra, MemoryPolicy, Topology};
use satmapit_core::{AttemptOutcome, MapFailure};
use satmapit_dfg::{Dfg, Op};
use satmapit_engine::EngineOutcome;
use std::borrow::Cow;
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
// Decoding helpers
// ---------------------------------------------------------------------------

/// Why a document failed to decode: it is not JSON at all, or it is JSON
/// that does not describe what was asked for.
enum Fault {
    Json(JsonError),
    Wire(WireError),
}

impl From<JsonError> for Fault {
    fn from(e: JsonError) -> Fault {
        Fault::Json(e)
    }
}

impl From<WireError> for Fault {
    fn from(e: WireError) -> Fault {
        Fault::Wire(e)
    }
}

type Decoded<T> = Result<T, Fault>;

fn bad_json(e: JsonError) -> WireError {
    WireError::new(format!("bad JSON: {e}"))
}

fn missing(key: &str) -> WireError {
    WireError::new(format!("missing field `{key}`"))
}

/// Decodes all of `text` with `decode`, in one pass. The document is read
/// to its end either way, and malformed JSON is reported ahead of any
/// semantic error.
fn decode_document<'a, T>(
    text: &'a str,
    decode: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Result<T, WireError> {
    let mut reader = Reader::new(text);
    let decoded = settle(&mut reader, decode).map_err(bad_json)?;
    reader.finish().map_err(bad_json)?;
    decoded
}

/// Runs `decode` over the value at the reader. A semantic error comes
/// back as the inner `Err` once the rest of that value has been read, so
/// the caller keeps checking the document's syntax and decides later
/// whether the error matters (a `dfg` member only does for a `map`).
fn settle<'a, T>(
    reader: &mut Reader<'a>,
    decode: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Result<Result<T, WireError>, JsonError> {
    let depth = reader.depth();
    match decode(reader) {
        Ok(value) => Ok(Ok(value)),
        Err(Fault::Json(e)) => Err(e),
        Err(Fault::Wire(e)) => reader.skip_to(depth).map(|()| Err(e)),
    }
}

/// Reads one value: an integer, or `None` for any other value.
fn int_value(reader: &mut Reader<'_>) -> Result<Option<i64>, JsonError> {
    match reader.event()? {
        Event::Int(v) => Ok(Some(v)),
        other => reader.skip(&other).map(|()| None),
    }
}

/// Reads one value: a string, or `None` for any other value.
fn str_value<'a>(reader: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    match reader.event()? {
        Event::Str(s) => Ok(Some(s)),
        other => reader.skip(&other).map(|()| None),
    }
}

fn i64_field(reader: &mut Reader<'_>, key: &str) -> Decoded<i64> {
    int_value(reader)?
        .ok_or_else(|| WireError::new(format!("field `{key}` must be an integer")).into())
}

fn u64_field(reader: &mut Reader<'_>, key: &str) -> Decoded<u64> {
    int_value(reader)?
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| {
            WireError::new(format!("field `{key}` must be a non-negative integer")).into()
        })
}

fn str_field<'a>(reader: &mut Reader<'a>, key: &str) -> Decoded<Cow<'a, str>> {
    str_value(reader)?
        .ok_or_else(|| WireError::new(format!("field `{key}` must be a string")).into())
}

fn narrow<T: TryFrom<u64>>(v: u64, key: &str) -> Result<T, WireError> {
    T::try_from(v).map_err(|_| WireError::new(format!("field `{key}` out of range")))
}

/// Checks that a value whose first event is `first` is an object.
fn object(first: &Event<'_>, what: &str) -> Result<(), WireError> {
    match first {
        Event::ObjectStart => Ok(()),
        _ => Err(WireError::new(format!("`{what}` must be an object"))),
    }
}

/// Reads an array, decoding each item from its first event.
fn array<'a, T>(
    reader: &mut Reader<'a>,
    what: &str,
    mut item: impl FnMut(&mut Reader<'a>, Event<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    if reader.event()? != Event::ArrayStart {
        return Err(WireError::new(format!("`{what}` must be an array")).into());
    }
    let mut items = Vec::new();
    while let Some(first) = reader.next_item()? {
        items.push(item(reader, first)?);
    }
    Ok(items)
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
/// shape). Members may come in any order, unknown ones are skipped and
/// the first of duplicate keys wins. Edge endpoints are bounds-checked
/// once the object closes — a malformed document is an error, never a
/// panic.
pub fn dfg_from_str(text: &str) -> Result<Dfg, WireError> {
    decode_document(text, decode_dfg)
}

/// One `edges` entry, its endpoints not yet checked against the nodes.
struct EdgeDoc {
    src: u64,
    dst: u64,
    operand: u8,
    distance: u32,
    init: i64,
}

fn decode_dfg(reader: &mut Reader<'_>) -> Decoded<Dfg> {
    object(&reader.event()?, "dfg")?;
    let (mut name, mut nodes, mut edges) = (None, None, None);
    while let Some(key) = reader.next_key()? {
        match &*key {
            "name" if name.is_none() => name = Some(str_field(reader, "name")?),
            "nodes" if nodes.is_none() => nodes = Some(array(reader, "nodes", decode_node)?),
            "edges" if edges.is_none() => edges = Some(array(reader, "edges", decode_edge)?),
            _ => reader.skip_value()?,
        }
    }
    let mut dfg = Dfg::new(name.ok_or_else(|| missing("name"))?);
    let nodes = nodes.ok_or_else(|| missing("nodes"))?;
    let count = nodes.len() as u64;
    for (op, imm, label) in nodes {
        dfg.add_node_labeled(op, imm, label);
    }
    for EdgeDoc {
        src,
        dst,
        operand,
        distance,
        init,
    } in edges.ok_or_else(|| missing("edges"))?
    {
        if src >= count || dst >= count {
            return Err(WireError::new(format!(
                "edge {src}->{dst} references a node outside 0..{count}"
            ))
            .into());
        }
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

fn decode_node<'a>(reader: &mut Reader<'a>, first: Event<'a>) -> Decoded<(Op, i64, String)> {
    object(&first, "node")?;
    let (mut op, mut imm, mut label) = (None, None, None);
    while let Some(key) = reader.next_key()? {
        match &*key {
            "op" if op.is_none() => {
                let name = str_field(reader, "op")?;
                op = Some(
                    op_from_name(&name)
                        .ok_or_else(|| WireError::new(format!("unknown op `{name}`")))?,
                );
            }
            "imm" if imm.is_none() => imm = Some(i64_field(reader, "imm")?),
            "label" if label.is_none() => label = Some(str_field(reader, "label")?),
            _ => reader.skip_value()?,
        }
    }
    Ok((
        op.ok_or_else(|| missing("op"))?,
        imm.ok_or_else(|| missing("imm"))?,
        label.ok_or_else(|| missing("label"))?.into_owned(),
    ))
}

fn decode_edge<'a>(reader: &mut Reader<'a>, first: Event<'a>) -> Decoded<EdgeDoc> {
    object(&first, "edge")?;
    let (mut src, mut dst, mut operand, mut distance, mut init) = (None, None, None, None, None);
    while let Some(key) = reader.next_key()? {
        match &*key {
            "src" if src.is_none() => src = Some(u64_field(reader, "src")?),
            "dst" if dst.is_none() => dst = Some(u64_field(reader, "dst")?),
            "operand" if operand.is_none() => {
                operand = Some(narrow(u64_field(reader, "operand")?, "operand")?);
            }
            "distance" if distance.is_none() => {
                distance = Some(narrow(u64_field(reader, "distance")?, "distance")?);
            }
            "init" if init.is_none() => init = Some(i64_field(reader, "init")?),
            _ => reader.skip_value()?,
        }
    }
    Ok(EdgeDoc {
        src: src.ok_or_else(|| missing("src"))?,
        dst: dst.ok_or_else(|| missing("dst"))?,
        operand: operand.ok_or_else(|| missing("operand"))?,
        distance: distance.ok_or_else(|| missing("distance"))?,
        init: init.ok_or_else(|| missing("init"))?,
    })
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
pub fn cgra_from_str(text: &str) -> Result<Cgra, WireError> {
    decode_document(text, decode_cgra)
}

fn decode_cgra(reader: &mut Reader<'_>) -> Decoded<Cgra> {
    object(&reader.event()?, "cgra")?;
    let (mut rows, mut cols, mut topology, mut regs, mut policy) = (None, None, None, None, None);
    while let Some(key) = reader.next_key()? {
        match &*key {
            "rows" if rows.is_none() => rows = Some(narrow(u64_field(reader, "rows")?, "rows")?),
            "cols" if cols.is_none() => cols = Some(narrow(u64_field(reader, "cols")?, "cols")?),
            "topology" if topology.is_none() => {
                let name = str_field(reader, "topology")?;
                topology = Some(
                    topology_from_name(&name)
                        .ok_or_else(|| WireError::new(format!("unknown topology `{name}`")))?,
                );
            }
            "regs_per_pe" if regs.is_none() => {
                regs = Some(narrow(u64_field(reader, "regs_per_pe")?, "regs_per_pe")?);
            }
            "memory_policy" if policy.is_none() => {
                let name = str_field(reader, "memory_policy")?;
                policy =
                    Some(memory_policy_from_name(&name).ok_or_else(|| {
                        WireError::new(format!("unknown memory policy `{name}`"))
                    })?);
            }
            _ => reader.skip_value()?,
        }
    }
    let rows: u16 = rows.ok_or_else(|| missing("rows"))?;
    let cols: u16 = cols.ok_or_else(|| missing("cols"))?;
    if rows == 0 || cols == 0 {
        return Err(WireError::new("CGRA dimensions must be positive").into());
    }
    let mut cgra = Cgra::new(rows, cols);
    if let Some(topology) = topology {
        cgra = cgra.with_topology(topology);
    }
    if let Some(regs) = regs {
        cgra = cgra.with_regs_per_pe(regs);
    }
    if let Some(policy) = policy {
        cgra = cgra.with_memory_policy(policy);
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

/// Parses one request line in a single pass over its bytes: a `map`
/// decodes straight into its [`Dfg`] and [`Cgra`], with no JSON tree in
/// between. Members may come in any order, unknown ones are skipped and
/// the first of duplicate keys wins; a non-integer `id` is ignored, and a
/// missing or non-string `name` reads as `"unnamed"`.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    decode_document(line, decode_request)
}

fn decode_request(reader: &mut Reader<'_>) -> Decoded<Request> {
    if reader.event()? != Event::ObjectStart {
        return Err(missing("op").into());
    }
    let (mut op, mut id, mut name) = (None, None, None);
    let (mut dfg, mut cgra, mut timeout_ms) = (None, None, None);
    while let Some(key) = reader.next_key()? {
        match &*key {
            "op" if op.is_none() => op = Some(str_value(reader)?),
            "id" if id.is_none() => id = Some(int_value(reader)?),
            "name" if name.is_none() => name = Some(str_value(reader)?),
            // Only a `map` needs these, and `op` may come last: their
            // semantic errors wait until the object has closed.
            "dfg" if dfg.is_none() => dfg = Some(settle(reader, decode_dfg)?),
            "cgra" if cgra.is_none() => cgra = Some(settle(reader, decode_cgra)?),
            "timeout_ms" if timeout_ms.is_none() => {
                timeout_ms = Some(settle(reader, decode_timeout)?);
            }
            _ => reader.skip_value()?,
        }
    }
    let op = op
        .ok_or_else(|| missing("op"))?
        .ok_or_else(|| WireError::new("field `op` must be a string"))?;
    Ok(match &*op {
        "map" => Request::Map(Box::new(MapRequest {
            id: id.flatten(),
            name: name
                .flatten()
                .map_or_else(|| "unnamed".to_string(), String::from),
            dfg: dfg.ok_or_else(|| missing("dfg"))??,
            cgra: cgra.ok_or_else(|| missing("cgra"))??,
            timeout_ms: timeout_ms.transpose()?.flatten(),
        })),
        "stats" => Request::Stats,
        "health" => Request::Health,
        "trace" => Request::Trace,
        "shutdown" => Request::Shutdown,
        other => return Err(WireError::new(format!("unknown op `{other}`")).into()),
    })
}

fn decode_timeout(reader: &mut Reader<'_>) -> Decoded<Option<u64>> {
    match reader.event()? {
        Event::Null => Ok(None),
        Event::Int(ms) if ms >= 0 => Ok(Some(ms as u64)),
        _ => Err(WireError::new("`timeout_ms` must be a non-negative integer").into()),
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
        let decoded = dfg_from_str(&text).unwrap();
        assert_eq!(decoded, dfg);
    }

    #[test]
    fn cgra_round_trips() {
        let cgra = Cgra::new(2, 5)
            .with_topology(Topology::Torus4)
            .with_regs_per_pe(7)
            .with_memory_policy(MemoryPolicy::SplitLoadStore);
        let text = cgra_to_json(&cgra).to_string();
        assert_eq!(cgra_from_str(&text).unwrap(), cgra);
    }

    #[test]
    fn cgra_defaults_apply_when_fields_missing() {
        let cgra = cgra_from_str(r#"{"rows":3,"cols":3}"#).unwrap();
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

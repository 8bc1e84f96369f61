//! Property coverage for the wire format: requests, DFGs and CGRAs
//! survive encode→serialize→parse→decode for arbitrary inputs, including
//! hostile labels (quotes, newlines, non-ASCII) and extreme immediates;
//! and the one-pass request decoder agrees with a tree-walking oracle on
//! mutated documents (reordered, unknown and duplicate keys, escapes,
//! wrong types, out-of-range endpoints, trailing bytes, depth bombs).

use proptest::prelude::*;
use satmapit_cgra::{Cgra, MemoryPolicy, Topology};
use satmapit_dfg::gen::{random_dfg, RandomDfgConfig};
use satmapit_dfg::{Dfg, Op};
use satmapit_service::json::{self, Json};
use satmapit_service::wire::{
    cgra_from_str, cgra_to_json, dfg_from_str, dfg_to_json, parse_request, MapRequest, Request,
    WireError,
};

fn arbitrary_cgra(rows: u16, cols: u16, topo: u8, regs: u8, policy: u8) -> Cgra {
    Cgra::new(rows.clamp(1, 8), cols.clamp(1, 8))
        .with_topology(match topo % 3 {
            0 => Topology::Mesh4,
            1 => Topology::Mesh8,
            _ => Topology::Torus4,
        })
        .with_regs_per_pe(regs)
        .with_memory_policy(match policy % 4 {
            0 => MemoryPolicy::AllPes,
            1 => MemoryPolicy::LeftColumn,
            2 => MemoryPolicy::None,
            _ => MemoryPolicy::SplitLoadStore,
        })
}

/// Random structural DFG plus hostile decorations the generator never
/// produces: extreme immediates and labels needing JSON escapes.
fn decorated_dfg(config: &RandomDfgConfig, imm: i64, label_salt: u64) -> Dfg {
    let base = random_dfg(config);
    let mut dfg = Dfg::new(format!("k\"{}\"\n\t✓{label_salt}", base.name()));
    for n in base.node_ids() {
        let node = base.node(n);
        let hostile = format!("{}\\\"{}\u{1}é{imm}", node.label, label_salt);
        dfg.add_node_labeled(node.op, node.imm.wrapping_add(imm), hostile);
    }
    for (_, e) in base.edges() {
        dfg.add_back_edge(
            e.src,
            e.dst,
            e.operand,
            e.distance,
            e.init.wrapping_sub(imm),
        );
    }
    dfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dfg_json_round_trips(
        nodes in 1usize..20,
        back_edges in 0usize..3,
        memory_ops in any::<bool>(),
        seed in any::<u64>(),
        imm in any::<i64>(),
    ) {
        let config = RandomDfgConfig { nodes, back_edges, memory_ops, seed };
        let dfg = decorated_dfg(&config, imm, seed ^ 0xABCD);
        let text = dfg_to_json(&dfg).to_string();
        let decoded = dfg_from_str(&text).expect("decodes");
        prop_assert_eq!(&decoded, &dfg);
        // Stability: encoding the decoded graph reproduces the same text.
        prop_assert_eq!(dfg_to_json(&decoded).to_string(), text);
    }

    #[test]
    fn cgra_json_round_trips(
        rows in 1u16..9, cols in 1u16..9,
        topo in any::<u8>(), regs in any::<u8>(), policy in any::<u8>(),
    ) {
        let cgra = arbitrary_cgra(rows, cols, topo, regs, policy);
        let text = cgra_to_json(&cgra).to_string();
        let decoded = cgra_from_str(&text).expect("decodes");
        prop_assert_eq!(decoded, cgra);
    }

    #[test]
    fn map_requests_round_trip(
        nodes in 1usize..12,
        seed in any::<u64>(),
        id in any::<i64>(),
        timeout_ms in 0u64..1_000_000,
        with_timeout in any::<bool>(),
        rows in 1u16..6,
    ) {
        let config = RandomDfgConfig { nodes, back_edges: 1, memory_ops: false, seed };
        let request = MapRequest {
            id: Some(id),
            name: format!("job \"{seed}\" ✓"),
            dfg: random_dfg(&config),
            cgra: arbitrary_cgra(rows, rows, seed as u8, 4, seed as u8),
            timeout_ms: with_timeout.then_some(timeout_ms),
        };
        let line = request.to_json().to_string();
        prop_assert!(!line.contains('\n'), "wire lines must be single-line");
        match parse_request(&line).expect("request decodes") {
            Request::Map(decoded) => prop_assert_eq!(*decoded, request),
            other => prop_assert!(false, "wrong request kind: {:?}", other),
        }
    }

    /// The JSON layer itself is total over arbitrary value trees built
    /// from integers and strings: print→parse is the identity.
    #[test]
    fn json_value_trees_round_trip(a in any::<i64>(), b in any::<u64>(), s in any::<u64>()) {
        let tree = Json::obj(vec![
            ("int", Json::Int(a)),
            ("nested", Json::Arr(vec![
                Json::Int(i64::MIN),
                Json::Int(i64::MAX),
                Json::Str(format!("\u{8}\u{c}\"\\/{s}\u{7f}")),
                Json::Null,
                Json::Bool(b.is_multiple_of(2)),
            ])),
            ("float", Json::Float((b as f64) / 7.0)),
        ]);
        let reparsed = json::parse(&tree.to_string()).expect("parses");
        prop_assert_eq!(reparsed, tree);
    }
}

/// Op coverage is exhaustive, not sampled: every variant must have a wire
/// name that parses back.
#[test]
fn every_op_round_trips_by_name() {
    use satmapit_service::wire::{op_from_name, op_name};
    for op in [
        Op::Const,
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Rem,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Not,
        Op::Neg,
        Op::Abs,
        Op::Shl,
        Op::Shr,
        Op::Ror,
        Op::Min,
        Op::Max,
        Op::Eq,
        Op::Ne,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
        Op::Select,
        Op::Load,
        Op::Store,
        Op::Route,
    ] {
        assert_eq!(op_from_name(op_name(op)), Some(op), "{op:?}");
    }
}

// ---------------------------------------------------------------------------
// The one-pass decoder against the tree-walking oracle
// ---------------------------------------------------------------------------

/// The request decoder as it was before the one-pass reader: parse the
/// whole line into a [`Json`] tree, then walk it. Kept here, test-only,
/// as the oracle the one-pass decoder must agree with.
mod oracle {
    use satmapit_cgra::{Cgra, MemoryPolicy, Topology};
    use satmapit_dfg::Dfg;
    use satmapit_service::json::{self, Json};
    use satmapit_service::wire::{op_from_name, MapRequest, Request, WireError};

    fn err(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }

    fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, WireError> {
        value
            .get(key)
            .ok_or_else(|| err(format!("missing field `{key}`")))
    }

    fn u64_field(value: &Json, key: &str) -> Result<u64, WireError> {
        field(value, key)?
            .as_u64()
            .ok_or_else(|| err(format!("field `{key}` must be a non-negative integer")))
    }

    fn i64_field(value: &Json, key: &str) -> Result<i64, WireError> {
        field(value, key)?
            .as_i64()
            .ok_or_else(|| err(format!("field `{key}` must be an integer")))
    }

    fn str_field<'a>(value: &'a Json, key: &str) -> Result<&'a str, WireError> {
        field(value, key)?
            .as_str()
            .ok_or_else(|| err(format!("field `{key}` must be a string")))
    }

    fn narrow<T: TryFrom<u64>>(v: u64, key: &str) -> Result<T, WireError> {
        T::try_from(v).map_err(|_| err(format!("field `{key}` out of range")))
    }

    fn dfg_from_json(value: &Json) -> Result<Dfg, WireError> {
        let name = str_field(value, "name")?;
        let mut dfg = Dfg::new(name);
        let nodes = field(value, "nodes")?
            .as_arr()
            .ok_or_else(|| err("`nodes` must be an array"))?;
        for node in nodes {
            let op_str = str_field(node, "op")?;
            let op = op_from_name(op_str).ok_or_else(|| err(format!("unknown op `{op_str}`")))?;
            let imm = i64_field(node, "imm")?;
            let label = str_field(node, "label")?;
            dfg.add_node_labeled(op, imm, label);
        }
        let edges = field(value, "edges")?
            .as_arr()
            .ok_or_else(|| err("`edges` must be an array"))?;
        for edge in edges {
            let src = u64_field(edge, "src")?;
            let dst = u64_field(edge, "dst")?;
            if src >= nodes.len() as u64 || dst >= nodes.len() as u64 {
                return Err(err("edge references a node outside the node list"));
            }
            let operand: u8 = narrow(u64_field(edge, "operand")?, "operand")?;
            let distance: u32 = narrow(u64_field(edge, "distance")?, "distance")?;
            let init = i64_field(edge, "init")?;
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

    fn cgra_from_json(value: &Json) -> Result<Cgra, WireError> {
        let rows: u16 = narrow(u64_field(value, "rows")?, "rows")?;
        let cols: u16 = narrow(u64_field(value, "cols")?, "cols")?;
        if rows == 0 || cols == 0 {
            return Err(err("CGRA dimensions must be positive"));
        }
        let mut cgra = Cgra::new(rows, cols);
        if let Some(t) = value.get("topology") {
            cgra = cgra.with_topology(match t.as_str() {
                Some("Mesh4") => Topology::Mesh4,
                Some("Mesh8") => Topology::Mesh8,
                Some("Torus4") => Topology::Torus4,
                _ => return Err(err("bad topology")),
            });
        }
        if let Some(r) = value.get("regs_per_pe") {
            let regs = r.as_u64().ok_or_else(|| err("bad regs_per_pe"))?;
            cgra = cgra.with_regs_per_pe(narrow(regs, "regs_per_pe")?);
        }
        if let Some(p) = value.get("memory_policy") {
            cgra = cgra.with_memory_policy(match p.as_str() {
                Some("AllPes") => MemoryPolicy::AllPes,
                Some("LeftColumn") => MemoryPolicy::LeftColumn,
                Some("None") => MemoryPolicy::None,
                Some("SplitLoadStore") => MemoryPolicy::SplitLoadStore,
                _ => return Err(err("bad memory policy")),
            });
        }
        Ok(cgra)
    }

    pub fn parse_request(line: &str) -> Result<Request, WireError> {
        let value = json::parse(line).map_err(|e| err(format!("bad JSON: {e}")))?;
        match str_field(&value, "op")? {
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
                    Some(v) => Some(v.as_u64().ok_or_else(|| err("bad timeout_ms"))?),
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
            other => Err(err(format!("unknown op `{other}`"))),
        }
    }
}

/// A splitmix64 stream: one proptest seed drives a whole document.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True one time in `n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// `depth` nested arrays around a `0`: a depth bomb when the document's
/// own nesting pushes the total past the parser's cap (128).
fn nested(depth: usize) -> Json {
    (0..depth).fold(Json::Int(0), |inner, _| Json::Arr(vec![inner]))
}

/// A value of any type, small, sometimes a depth bomb.
fn junk(rng: &mut Rng) -> Json {
    match rng.below(12) {
        0 => Json::Null,
        1 => Json::Bool(rng.one_in(2)),
        2 => Json::Int(rng.next() as i64),
        3 => Json::Int(-(rng.below(3) as i64) - 1),
        4 => Json::Int(rng.below(300) as i64),
        5 => Json::Float(rng.below(1000) as f64 / 8.0),
        6 => Json::Str(
            rng.pick(&["", "x", "Add", "Mesh4", "map", "\u{1}\"\\é😀"])
                .to_string(),
        ),
        7 => Json::Arr((0..rng.below(3)).map(|i| Json::Int(i as i64)).collect()),
        8 => Json::obj(vec![("op", Json::Str("Add".into())), ("k", Json::Null)]),
        9 => nested(120 + rng.below(12)),
        _ => Json::Int(rng.below(8) as i64),
    }
}

const ODD_KEYS: &[&str] = &[
    "x",
    "extra",
    "ID",
    "opp",
    "",
    "rows",
    "nodes",
    "label",
    "ét\u{e9}",
];

/// Random structural damage, each kind at roughly one in `rate` sites:
/// reordered, unknown, duplicated, removed and retyped members.
fn mutate(value: &mut Json, rng: &mut Rng, rate: usize) {
    match value {
        Json::Obj(pairs) => {
            for (_, v) in pairs.iter_mut() {
                mutate(v, rng, rate);
            }
            if rng.one_in(3) {
                // Any member order is valid: Fisher-Yates.
                for i in (1..pairs.len()).rev() {
                    pairs.swap(i, rng.below(i + 1));
                }
            }
            if rng.one_in(rate) {
                let at = rng.below(pairs.len() + 1);
                pairs.insert(at, (rng.pick(ODD_KEYS).to_string(), junk(rng)));
            }
            if !pairs.is_empty() && rng.one_in(rate) {
                // A duplicate key, ahead of or behind the original: the
                // first one wins.
                let (key, original) = pairs[rng.below(pairs.len())].clone();
                let value = if rng.one_in(2) { junk(rng) } else { original };
                let at = rng.below(pairs.len() + 1);
                pairs.insert(at, (key, value));
            }
            if !pairs.is_empty() && rng.one_in(rate * 3) {
                pairs.remove(rng.below(pairs.len()));
            }
        }
        Json::Arr(items) => {
            for item in items.iter_mut() {
                mutate(item, rng, rate);
            }
            if !items.is_empty() && rng.one_in(rate * 3) {
                items.remove(rng.below(items.len()));
            }
        }
        _ => {
            if rng.one_in(rate * 4) {
                *value = junk(rng);
            }
        }
    }
}

fn member<'a>(value: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match value {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Serializes with random insignificant whitespace and random `\u`
/// escapes of ordinary characters, keys included.
fn emit(value: &Json, rng: &mut Rng, out: &mut String) {
    let ws = |rng: &mut Rng, out: &mut String| {
        if rng.one_in(10) {
            out.push(*rng.pick(&[' ', '\t', '\n', '\r']));
        }
    };
    ws(rng, out);
    match value {
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                emit_str(key, rng, out);
                ws(rng, out);
                out.push(':');
                emit(v, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Str(s) => emit_str(s, rng, out),
        scalar => out.push_str(&scalar.to_string()),
    }
    ws(rng, out);
}

fn emit_str(s: &str, rng: &mut Rng, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if matches!(c, '"' | '\\') || (c as u32) < 0x20 || rng.one_in(12) {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
}

const TRAILING_GARBAGE: [&str; 6] = [" x", "}", "{}", "0", "\"\"", ","];
const TRAILING_SPACE: [&str; 3] = [" ", "\n", "\r\n\t"];

/// One request line derived from `seed`: a valid `map` request, then
/// targeted and random damage.
fn mutated_request_line(seed: u64) -> String {
    let mut rng = Rng(seed);
    let config = RandomDfgConfig {
        nodes: 1 + rng.below(8),
        back_edges: rng.below(2),
        memory_ops: rng.one_in(2),
        seed,
    };
    let request = MapRequest {
        id: Some(rng.next() as i64),
        name: format!("job \"{seed}\"\n✓"),
        dfg: decorated_dfg(&config, rng.next() as i64, seed),
        cgra: arbitrary_cgra(
            1 + rng.below(5) as u16,
            1 + rng.below(5) as u16,
            rng.next() as u8,
            rng.next() as u8,
            rng.next() as u8,
        ),
        timeout_ms: rng.one_in(2).then(|| rng.below(10_000) as u64),
    };
    let mut doc = request.to_json();
    if rng.one_in(4) {
        // A non-integer (or absent) `id` is ignored, not an error.
        *member(&mut doc, "id").expect("id") = junk(&mut rng);
    }
    if rng.one_in(8) {
        *member(&mut doc, "op").expect("op") = rng
            .pick(&[
                Json::Str("stats".into()),
                Json::Str("health".into()),
                Json::Str("nope".into()),
                Json::Int(1),
            ])
            .clone();
    }
    if rng.one_in(6) {
        *member(&mut doc, "timeout_ms").unwrap_or(&mut Json::Null) = junk(&mut rng);
    }
    if let Some(Json::Obj(cgra)) = member(&mut doc, "cgra") {
        // Optional CGRA members fall back to defaults when missing.
        cgra.retain(|(key, _)| {
            !matches!(key.as_str(), "topology" | "regs_per_pe" | "memory_policy") || !rng.one_in(3)
        });
    }
    if rng.one_in(6) {
        // An out-of-range endpoint or operand: bounds-checked, never a
        // panic.
        let dfg = member(&mut doc, "dfg").expect("dfg");
        if let Some(Json::Arr(edges)) = member(dfg, "edges") {
            if let Some(edge) = edges.first_mut() {
                let key = *rng.pick(&["src", "dst", "operand", "distance"]);
                let bad = *rng.pick(&[-1, 9, 256, 1 << 32]);
                *member(edge, key).expect("edge member") = Json::Int(bad);
            }
        }
    }
    if rng.one_in(8) {
        let at = rng.pick(&["top", "dfg"]);
        let bomb = ("bomb".to_string(), nested(124 + rng.below(8)));
        let target = if *at == "top" {
            &mut doc
        } else {
            member(&mut doc, "dfg").expect("dfg")
        };
        if let Json::Obj(pairs) = target {
            pairs.insert(0, bomb);
        }
    }
    let rate = *rng.pick(&[usize::MAX, 40, 12]);
    if rate != usize::MAX {
        mutate(&mut doc, &mut rng, rate);
    }
    let mut line = String::new();
    emit(&doc, &mut rng, &mut line);
    match rng.below(10) {
        0 => {
            let tail = rng.pick(&TRAILING_GARBAGE);
            line.push_str(tail);
        }
        1 => {
            let tail = rng.pick(&TRAILING_SPACE);
            line.push_str(tail);
        }
        2 => {
            let cut = rng.below(line.len());
            let cut = (0..=cut)
                .rev()
                .find(|&i| line.is_char_boundary(i))
                .unwrap_or(0);
            line.truncate(cut);
        }
        _ => {}
    }
    line
}

/// Both decoders on one line: equal `Ok` values, or both `Err`.
fn agree(line: &str) -> Result<bool, String> {
    let fast = parse_request(line);
    let tree = oracle::parse_request(line);
    match (&fast, &tree) {
        (Ok(a), Ok(b)) if a == b => Ok(true),
        (Err(_), Err(_)) => Ok(false),
        _ => Err(format!(
            "decoders disagree on {line:?}:\n  one pass: {fast:?}\n  oracle:   {tree:?}"
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_decoder_matches_the_tree_oracle(seed in any::<u64>()) {
        let line = mutated_request_line(seed);
        if let Err(report) = agree(&line) {
            prop_assert!(false, "{}", report);
        }
    }
}

/// The generator exercises both sides of the contract: a fixed sweep
/// of seeds yields plenty of documents both decoders accept and plenty
/// both reject.
#[test]
fn mutated_documents_cover_accepts_and_rejects() {
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..2000 {
        match agree(&mutated_request_line(seed)) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(report) => panic!("{report}"),
        }
    }
    assert!(
        accepted >= 300 && rejected >= 300,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// Hand-written cases for each rule the decoder documents.
#[test]
fn decoder_rules_by_example() {
    let dfg = r#"{"edges":[{"init":0,"distance":0,"operand":0,"dst":1,"src":0}],"name":"d","nodes":[{"label":"c","imm":1,"op":"Const"},{"op":"Neg","imm":0,"label":"n"}]}"#;
    let cgra = r#"{"cols":2,"rows":2}"#;
    let map = |extra: &str| format!(r#"{{{extra}"cgra":{cgra},"dfg":{dfg},"op":"map"}}"#);
    let Ok(Request::Map(request)) = parse_request(&map("")) else {
        panic!("edges before nodes and members in any order decode");
    };
    assert_eq!(request.name, "unnamed");
    assert_eq!(request.id, None);
    assert_eq!(request.dfg.num_edges(), 1);
    assert_eq!(request.cgra, Cgra::square(2));
    let Ok(Request::Map(request)) = parse_request(&map(r#""id":1.5,"name":7,"zz":[{}],"#)) else {
        panic!("a non-integer id, a non-string name and unknown keys are tolerated");
    };
    assert_eq!((request.id, request.name.as_str()), (None, "unnamed"));
    assert_eq!(
        parse_request(&map(r#""op":"stats","#)),
        Ok(Request::Stats),
        "the first of duplicate keys wins"
    );
    assert_eq!(
        parse_request(r#"{"dfg":{"nodes":7},"\u006fp":"health"}"#),
        Ok(Request::Health),
        "escaped keys compare unescaped; a bad dfg only matters to a map"
    );
    for bad in [
        map(r#""timeout_ms":-1,"#),
        map("").replace(r#""dst":1"#, r#""dst":2"#),
        map("") + " x",
        format!(r#"{{"op":"health","pad":{}}}"#, nested(130)),
    ] {
        assert!(
            matches!(parse_request(&bad), Err(WireError(_))),
            "`{bad}` should fail"
        );
    }
}

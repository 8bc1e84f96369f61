//! Content fingerprinting for the result cache.
//!
//! A mapping request is fully determined by the DFG structure, the CGRA
//! instance and the engine configuration, so the cache keys on a 128-bit
//! content hash of exactly those three. Node labels and the DFG name are
//! deliberately excluded: they are presentation metadata and two renamed
//! copies of the same loop body should share a cache entry.

use satmapit_cgra::Cgra;
use satmapit_dfg::Dfg;

use crate::EngineConfig;

/// A 128-bit content hash (two independent 64-bit FNV-1a streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental FNV-1a hasher over two de-correlated streams.
#[derive(Debug, Clone)]
pub struct Hasher {
    a: u64,
    b: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Default for Hasher {
    fn default() -> Hasher {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher.
    pub fn new() -> Hasher {
        Hasher {
            a: FNV_OFFSET,
            // A distinct offset basis de-correlates the second stream.
            b: FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte ^ 0xA5)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs an integer (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a signed integer (little-endian).
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a string with a length prefix (prevents concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs an optional integer distinguishably from its absence.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.write(&[1]);
                self.write_u64(v);
            }
            None => self.write(&[0]),
        }
    }

    /// The accumulated 128-bit fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint((u128::from(self.a) << 64) | u128::from(self.b))
    }
}

/// Absorbs the structural content of a DFG: ops, immediates and the full
/// edge relation. Names and labels are excluded (see module docs).
pub fn hash_dfg(h: &mut Hasher, dfg: &Dfg) {
    h.write_u64(dfg.num_nodes() as u64);
    for n in dfg.node_ids() {
        let node = dfg.node(n);
        h.write_str(&format!("{:?}", node.op));
        h.write_i64(node.imm);
    }
    h.write_u64(dfg.num_edges() as u64);
    for (_, e) in dfg.edges() {
        h.write_u64(e.src.index() as u64);
        h.write_u64(e.dst.index() as u64);
        h.write_u64(u64::from(e.operand));
        h.write_u64(u64::from(e.distance));
        h.write_i64(e.init);
    }
}

/// Absorbs a CGRA instance: geometry, topology, registers, memory policy.
pub fn hash_cgra(h: &mut Hasher, cgra: &Cgra) {
    h.write_u64(u64::from(cgra.rows()));
    h.write_u64(u64::from(cgra.cols()));
    h.write_str(&format!("{:?}", cgra.topology()));
    h.write_u64(u64::from(cgra.regs_per_pe()));
    h.write_str(&format!("{:?}", cgra.memory_policy()));
}

/// Absorbs every result-affecting knob of an [`EngineConfig`].
pub fn hash_config(h: &mut Hasher, config: &EngineConfig) {
    let m = &config.mapper;
    h.write_u64(u64::from(m.max_ii));
    h.write_opt_u64(m.timeout.map(|d| d.as_nanos() as u64));
    h.write_str(&format!("{:?}", m.amo));
    // The retired per-II conflict budget was hashed here as an absent
    // `Option` (its default): one 0 byte.
    h.write(&[0]);
    h.write_u64(m.regalloc_budget);
    h.write_opt_u64(m.start_ii.map(u64::from));
    h.write_str(&format!("{:?}", m.slack));
    // The register-allocation cut budget, a knob until it became a
    // constant; hashed as before.
    h.write_u64(u64::from(satmapit_core::RA_CUT_BUDGET));
    h.write(&[u8::from(m.register_pressure)]);
    // Two retired ladder switches (live-vs-scratch ladder, rung-to-rung
    // heuristic transfer; see docs/solver.md) were hashed here as one
    // byte each, both on by default; their constant bytes stay so every
    // key written under the defaults stays warm.
    h.write(&[1, 1]);
    // The retired solver options — the Luby restart base (100) and an
    // absent phase seed — were hashed here; their constants stay too.
    h.write_u64(100);
    h.write(&[0]);
    // The retired arena-GC ablation switch (always on now) was hashed
    // here as one byte; its constant stays, like the two above.
    h.write(&[1]);
    // The retired II-race hashed its window (`race_width`, default 4)
    // and its solver `portfolio` size (default 1) here as one u64 each;
    // the constants stay, like the bytes above.
    h.write_u64(4);
    h.write_u64(1);
    // The backend choice can change which (equally valid) model is found
    // for a feasible II, so non-default kinds move the result key — but
    // the default (Sat) hashes nothing, keeping every pre-backend
    // persistent cache byte-identically warm. (The *problem* fingerprint
    // below stays backend-blind: both backends search the same KMS
    // candidate space, so UNSAT proofs transfer between them.)
    if config.backend != crate::BackendKind::Sat {
        h.write_str("backend");
        h.write_str(config.backend.as_str());
    }
}

/// The cache key for one mapping request under `config`.
pub fn fingerprint(dfg: &Dfg, cgra: &Cgra, config: &EngineConfig) -> Fingerprint {
    let mut h = Hasher::new();
    hash_dfg(&mut h, dfg);
    hash_cgra(&mut h, cgra);
    hash_config(&mut h, config);
    h.finish()
}

/// The key of the *problem semantics* only: the DFG structure, the CGRA,
/// and the two configuration knobs that change which IIs are feasible
/// (mobility-window slack and the C4 register-pressure constraints).
///
/// Unlike [`fingerprint`], execution knobs — timeouts, worker counts,
/// solver seeds, AMO encoding — are excluded: an
/// `Unsat` proof at some II transfers between any two configurations that
/// agree on this key. The engine's proven-II-bound cache is keyed on it,
/// so a retried job (longer timeout, different parallelism) starts its
/// ladder above everything already proven infeasible.
pub fn problem_fingerprint(
    dfg: &Dfg,
    cgra: &Cgra,
    mapper: &satmapit_core::MapperConfig,
) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_str("problem-semantics-v1");
    hash_dfg(&mut h, dfg);
    hash_cgra(&mut h, cgra);
    h.write_str(&format!("{:?}", mapper.slack));
    h.write(&[u8::from(mapper.register_pressure)]);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use satmapit_dfg::Op;

    fn sample_dfg(name: &str) -> Dfg {
        let mut dfg = Dfg::new(name);
        let a = dfg.add_const(7);
        let b = dfg.add_node(Op::Neg);
        dfg.add_edge(a, b, 0);
        dfg
    }

    #[test]
    fn stable_across_calls() {
        let dfg = sample_dfg("x");
        let cgra = Cgra::square(3);
        let config = EngineConfig::default();
        assert_eq!(
            fingerprint(&dfg, &cgra, &config),
            fingerprint(&dfg, &cgra, &config)
        );
    }

    #[test]
    fn name_is_cosmetic() {
        let cgra = Cgra::square(3);
        let config = EngineConfig::default();
        assert_eq!(
            fingerprint(&sample_dfg("a"), &cgra, &config),
            fingerprint(&sample_dfg("b"), &cgra, &config)
        );
    }

    #[test]
    fn structure_and_architecture_matter() {
        let cgra = Cgra::square(3);
        let config = EngineConfig::default();
        let base = fingerprint(&sample_dfg("x"), &cgra, &config);

        let mut bigger = sample_dfg("x");
        let _ = bigger.add_const(9);
        assert_ne!(base, fingerprint(&bigger, &cgra, &config));

        assert_ne!(
            base,
            fingerprint(&sample_dfg("x"), &Cgra::square(4), &config)
        );

        let mut other_config = EngineConfig::default();
        other_config.mapper.max_ii = 7;
        assert_ne!(base, fingerprint(&sample_dfg("x"), &cgra, &other_config));
    }

    /// Pins the module-docs promise: two structurally identical DFGs that
    /// differ only in node labels and graph name share a fingerprint.
    #[test]
    fn node_labels_and_graph_name_are_cosmetic() {
        let cgra = Cgra::square(3);
        let config = EngineConfig::default();

        let mut plain = Dfg::new("kernel-a");
        let a = plain.add_node_labeled(Op::Const, 7, "x");
        let b = plain.add_node_labeled(Op::Neg, 0, "y");
        plain.add_edge(a, b, 0);

        let mut renamed = Dfg::new("kernel-b-entirely-different-name");
        let a = renamed.add_node_labeled(Op::Const, 7, "loop_invariant_base_pointer");
        let b = renamed.add_node_labeled(Op::Neg, 0, "negated_offset");
        renamed.add_edge(a, b, 0);

        assert_eq!(
            fingerprint(&plain, &cgra, &config),
            fingerprint(&renamed, &cgra, &config)
        );
        assert_eq!(
            problem_fingerprint(&plain, &cgra, &config.mapper),
            problem_fingerprint(&renamed, &cgra, &config.mapper)
        );
    }

    #[test]
    fn problem_fingerprint_ignores_execution_knobs_only() {
        let dfg = sample_dfg("x");
        let cgra = Cgra::square(3);
        let base = EngineConfig::default();
        let key = problem_fingerprint(&dfg, &cgra, &base.mapper);

        // Execution knobs do not move the problem key…
        let mut exec = base.clone();
        exec.mapper.timeout = Some(std::time::Duration::from_secs(1));
        exec.mapper.amo = satmapit_sat::encode::AmoEncoding::Sequential;
        assert_eq!(key, problem_fingerprint(&dfg, &cgra, &exec.mapper));

        // …but semantic knobs do.
        let mut semantic = base.clone();
        semantic.mapper.register_pressure = false;
        assert_ne!(key, problem_fingerprint(&dfg, &cgra, &semantic.mapper));
        let mut semantic = base;
        semantic.mapper.slack = satmapit_core::SlackPolicy::Zero;
        assert_ne!(key, problem_fingerprint(&dfg, &cgra, &semantic.mapper));
    }

    /// Golden keys, computed on the commit before the two ladder
    /// switches above were retired (the daemon's, on the commit before
    /// the solver options, the per-II conflict budget and the cut-budget
    /// knob were retired). Every `results.smc` /
    /// `bounds.smc` record on disk is addressed by these hashes: if this
    /// test fails, the change under review silently discards every user's
    /// warm cache — restore the byte stream instead of updating the values
    /// (or bump `FORMAT_VERSION` deliberately and say so).
    #[test]
    fn cache_keys_match_the_golden_values() {
        let mut dfg = Dfg::new("golden");
        let a = dfg.add_const(7);
        let b = dfg.add_node(Op::Neg);
        let c = dfg.add_node(Op::Add);
        dfg.add_edge(a, b, 0);
        dfg.add_edge(b, c, 0);
        dfg.add_back_edge(c, c, 1, 1, 3);
        let cgra = Cgra::square(3);
        let default_config = EngineConfig::default();
        let morph = EngineConfig {
            backend: crate::BackendKind::Morph,
            ..EngineConfig::default()
        };
        assert_eq!(
            fingerprint(&dfg, &cgra, &default_config).to_string(),
            "2ba0cd866fe37195d968fcf37c9dbb7b"
        );
        assert_eq!(
            fingerprint(&dfg, &cgra, &morph).to_string(),
            "a229f6ebf43cd82752fddbac15374bf9"
        );
        // `satmapit serve`'s engine: the defaults with a 120 s timeout.
        let mut serve = EngineConfig::default();
        serve.mapper.timeout = Some(std::time::Duration::from_secs(120));
        assert_eq!(
            fingerprint(&dfg, &cgra, &serve).to_string(),
            "9e0065e598394583f78335ec157b0d55"
        );
        for config in [&default_config, &morph, &serve] {
            assert_eq!(
                problem_fingerprint(&dfg, &cgra, &config.mapper).to_string(),
                "9a13606de74170fabb2fca09e0c3469f"
            );
        }
    }

    #[test]
    fn default_backend_keys_are_bit_identical_to_pre_backend_keys() {
        // The backend field only joins the hash when it is not Sat: a
        // default config must hash exactly like builds that predate the
        // field (warm caches), while morph moves the result key but
        // never the problem key (UNSAT proofs are backend-independent).
        let dfg = sample_dfg("x");
        let cgra = Cgra::square(3);
        let default_config = EngineConfig::default();
        let explicit_sat = EngineConfig {
            backend: crate::BackendKind::Sat,
            ..EngineConfig::default()
        };
        assert_eq!(
            fingerprint(&dfg, &cgra, &default_config),
            fingerprint(&dfg, &cgra, &explicit_sat)
        );
        let morph = EngineConfig {
            backend: crate::BackendKind::Morph,
            ..EngineConfig::default()
        };
        assert_ne!(
            fingerprint(&dfg, &cgra, &default_config),
            fingerprint(&dfg, &cgra, &morph)
        );
        assert_eq!(
            problem_fingerprint(&dfg, &cgra, &morph.mapper),
            problem_fingerprint(&dfg, &cgra, &default_config.mapper)
        );
    }

    #[test]
    fn immediates_matter() {
        let cgra = Cgra::square(2);
        let config = EngineConfig::default();
        let mut a = Dfg::new("k");
        let _ = a.add_const(1);
        let mut b = Dfg::new("k");
        let _ = b.add_const(2);
        assert_ne!(
            fingerprint(&a, &cgra, &config),
            fingerprint(&b, &cgra, &config)
        );
    }
}

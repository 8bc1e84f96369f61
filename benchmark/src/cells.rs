//! The benchmark's inputs: suite kernels on square meshes, the pinned
//! table of their expected results, and seed-derived variants.

use satmapit_cgra::Cgra;
use satmapit_dfg::Dfg;
use satmapit_kernels::Kernel;

/// The hand-committed table of expected results (see the file's header).
pub const EXPECTED_II: &str = include_str!("../expected_ii.txt");

/// One line of the expected-results table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedRow {
    /// Side of the square mesh.
    pub mesh: u16,
    /// Suite kernel name.
    pub kernel: String,
    /// The MII the ladder must start from.
    pub mii: u32,
    /// The minimal II the ladder must end on.
    pub ii: u32,
}

/// Parses the expected-results table: `NxN kernel mii ii` per line, `#`
/// comments and blank lines ignored.
pub fn parse_expected(text: &str) -> Result<Vec<ExpectedRow>, String> {
    let mut rows = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("expected_ii.txt:{}: {what}: `{line}`", number + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [mesh, kernel, mii, ii] = fields[..] else {
            return Err(bad("want `NxN kernel mii ii`"));
        };
        let mesh = match mesh.split_once('x') {
            Some((rows, cols)) if rows == cols => rows.parse::<u16>().ok(),
            _ => None,
        }
        .filter(|&n| n > 0)
        .ok_or_else(|| bad("mesh must be a square `NxN`"))?;
        let mii: u32 = mii.parse().map_err(|_| bad("mii must be a number"))?;
        let ii: u32 = ii.parse().map_err(|_| bad("ii must be a number"))?;
        if mii == 0 || ii < mii {
            return Err(bad("need 1 <= mii <= ii"));
        }
        if rows
            .iter()
            .any(|r: &ExpectedRow| r.mesh == mesh && r.kernel == kernel)
        {
            return Err(bad("duplicate cell"));
        }
        rows.push(ExpectedRow {
            mesh,
            kernel: kernel.to_string(),
            mii,
            ii,
        });
    }
    Ok(rows)
}

/// One benchmark input: a (variant of a) suite kernel on a square mesh,
/// with its pinned expected result.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `kernel@NxN`.
    pub label: String,
    /// The loop to map, with the memory image and iteration count its
    /// verification by execution uses.
    pub kernel: Kernel,
    /// The target array.
    pub cgra: Cgra,
    /// The MII the ladder must start from.
    pub mii: u32,
    /// The minimal II the ladder must end on.
    pub ii: u32,
}

/// The cells' labels, for the log.
pub fn labels(cells: &[Cell]) -> Vec<&str> {
    cells.iter().map(|c| c.label.as_str()).collect()
}

/// Builds the cells of the table rows `keep` selects, on `meshes`, in
/// table order. Every kernel is replaced by its `salt` variant (see
/// [`variant`]).
pub fn build_cells(
    meshes: &[u16],
    salt: i64,
    keep: impl Fn(&ExpectedRow) -> bool,
) -> Result<Vec<Cell>, String> {
    let rows = parse_expected(EXPECTED_II)?;
    let suite = satmapit_kernels::all();
    let mut cells = Vec::new();
    for row in rows.iter().filter(|r| meshes.contains(&r.mesh) && keep(r)) {
        let base = suite
            .iter()
            .find(|k| k.name() == row.kernel)
            .ok_or_else(|| format!("expected_ii.txt names unknown kernel `{}`", row.kernel))?;
        let mut kernel = base.clone();
        kernel.dfg = variant(&base.dfg, salt);
        cells.push(Cell {
            label: format!("{}@{}x{}", row.kernel, row.mesh, row.mesh),
            kernel,
            cgra: Cgra::square(row.mesh),
            mii: row.mii,
            ii: row.ii,
        });
    }
    if cells.is_empty() {
        return Err(format!("no cells on meshes {meshes:?}"));
    }
    Ok(cells)
}

/// Rebuilds `dfg` with every loop-carried edge's initial value offset by
/// `salt`.
///
/// The structure — and with it the SAT encoding, the solve cost and the
/// minimal II — is exactly the base kernel's, but both the result
/// fingerprint and the problem fingerprint differ, so a daemon that has
/// seen other salts can answer from neither its result cache nor its
/// proven-bound cache. The executed values differ too, so verification
/// by execution is a fresh check per salt.
pub fn variant(dfg: &Dfg, salt: i64) -> Dfg {
    let mut out = Dfg::new(dfg.name());
    for n in dfg.node_ids() {
        let node = dfg.node(n);
        out.add_node_labeled(node.op, node.imm, node.label.clone());
    }
    for (_, e) in dfg.edges() {
        let init = if e.distance > 0 {
            e.init.wrapping_add(salt)
        } else {
            e.init
        };
        out.add_back_edge(e.src, e.dst, e.operand, e.distance, init);
    }
    out
}

/// SplitMix64: the harness's only randomness, fully determined by
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one run (`seed`).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A salt for [`variant`]: nonzero and small enough that offsetting
    /// any kernel's initial values cannot overflow.
    pub fn salt(&mut self) -> i64 {
        (self.next_u64() % (1 << 40)) as i64 + 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satmapit_core::Mapper;
    use satmapit_engine::fingerprint::fingerprint;
    use satmapit_engine::{problem_fingerprint, EngineConfig};
    use std::collections::HashSet;

    #[test]
    fn the_committed_table_parses_and_covers_every_workload_mesh() {
        let rows = parse_expected(EXPECTED_II).unwrap();
        for mesh in [2, 3, 4] {
            assert_eq!(rows.iter().filter(|r| r.mesh == mesh).count(), 11);
        }
        for mesh in [5, 6, 7] {
            let on_mesh: Vec<_> = rows.iter().filter(|r| r.mesh == mesh).collect();
            assert_eq!(on_mesh.len(), 10);
            assert!(on_mesh.iter().all(|r| r.kernel != "patricia"));
        }
        let refuted = rows.iter().filter(|r| r.mesh <= 4 && r.ii > r.mii).count();
        assert_eq!(refuted, 23, "ladder_refute: these, less patricia 4x4");
    }

    #[test]
    fn malformed_tables_are_rejected() {
        assert!(parse_expected("2x2 sha 4").is_err());
        assert!(parse_expected("2x3 sha 4 5").is_err());
        assert!(parse_expected("2x2 sha 5 4").is_err());
        assert!(parse_expected("2x2 sha 4 5\n2x2 sha 4 5").is_err());
        assert_eq!(
            parse_expected("# only a comment\n\n3x3 nw 3 4 # trailing").unwrap(),
            vec![ExpectedRow {
                mesh: 3,
                kernel: "nw".into(),
                mii: 3,
                ii: 4
            }]
        );
    }

    #[test]
    fn salts_give_distinct_fingerprints_for_every_kernel() {
        let config = EngineConfig::default();
        let cgra = Cgra::square(3);
        for kernel in satmapit_kernels::all() {
            let mut results = HashSet::new();
            let mut problems = HashSet::new();
            results.insert(fingerprint(&kernel.dfg, &cgra, &config));
            problems.insert(problem_fingerprint(&kernel.dfg, &cgra, &config.mapper));
            let mut rng = Rng::new(7, 1);
            for _ in 0..8 {
                let v = variant(&kernel.dfg, rng.salt());
                assert_eq!(v.num_nodes(), kernel.dfg.num_nodes());
                assert_eq!(v.num_edges(), kernel.dfg.num_edges());
                v.validate().unwrap();
                results.insert(fingerprint(&v, &cgra, &config));
                problems.insert(problem_fingerprint(&v, &cgra, &config.mapper));
            }
            assert_eq!(results.len(), 9, "{}: result fingerprints", kernel.name());
            assert_eq!(problems.len(), 9, "{}: problem fingerprints", kernel.name());
        }
    }

    #[test]
    fn variants_keep_the_base_kernels_ii() {
        // The cheap 2x2 cells: a variant must land on the pinned II.
        let cells = build_cells(&[2], Rng::new(42, 1).salt(), |r| {
            ["srand", "basicmath", "stringsearch", "sha2"].contains(&r.kernel.as_str())
        })
        .unwrap();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            let outcome = Mapper::new(&cell.kernel.dfg, &cell.cgra).run();
            assert_eq!(outcome.ii(), Some(cell.ii), "{}", cell.label);
            assert_eq!(outcome.attempts[0].ii, cell.mii, "{}", cell.label);
        }
    }

    /// The cross-check `expected_ii.txt` cites: the independent
    /// monomorphism backend, 10 s per cell, must confirm every II it
    /// finishes. Run once when the table changes:
    /// `cargo test --release -- --ignored --nocapture the_table_agrees`.
    #[test]
    #[ignore = "one-off cross-check of expected_ii.txt; takes minutes"]
    fn the_table_agrees_with_the_monomorphism_backend() {
        use satmapit_core::MapFailure;
        use satmapit_morph::MorphMapper;
        let mut confirmed = Vec::new();
        let mut unfinished = Vec::new();
        for cell in build_cells(&[2, 3, 4, 5, 6, 7], 0, |_| true).unwrap() {
            let outcome = MorphMapper::new(&cell.kernel.dfg, &cell.cgra)
                .with_timeout(std::time::Duration::from_secs(10))
                .run();
            match outcome.result {
                Ok(mapped) => {
                    assert_eq!(mapped.ii(), cell.ii, "{}", cell.label);
                    assert_eq!(mapped.mii, cell.mii, "{}", cell.label);
                    confirmed.push(cell.label);
                }
                Err(MapFailure::Timeout { .. }) => unfinished.push(cell.label),
                Err(e) => panic!("{}: {e}", cell.label),
            }
        }
        println!("confirmed {}: {confirmed:?}", confirmed.len());
        println!("unfinished {}: {unfinished:?}", unfinished.len());
    }

    #[test]
    fn the_rng_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (rng.next_u64(), rng.salt())
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(2, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        let mut order: Vec<u32> = (0..20).collect();
        Rng::new(5, 0).shuffle(&mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(order, sorted);
    }
}

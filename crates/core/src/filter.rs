//! The domain filter: arc consistency over the KMS candidate space,
//! run after the fold and before any clause exists.
//!
//! Every node starts with the domain the encoder would give it
//! variables for — `KMS position × allowed PE` — and the filter revises
//! those domains to the arc-consistent fixpoint of one binary
//! constraint per dependency `s → d`: the pair predicate of C3's
//! compatibility clause, `1 ≤ t_d − t_s + dist·II ≤ II` on the same PE
//! or on interconnect neighbours. A candidate with no partner left
//! across some incident edge can appear in no mapping (C1 gives each
//! endpoint exactly one placement, C3 demands that the two be
//! compatible), so removing it is exact; a node whose domain empties
//! therefore **refutes the rung** — no search, no formula.
//!
//! Deliberately ignored: C2 slot exclusivity (so a same-PE transfer
//! with `Δ = II`, which C2 excludes, still counts as support), the
//! output-register guards and C4. The filter is a relaxation of the
//! encoded formula — it may keep candidates the formula excludes,
//! never the reverse — and it uses the same predicate as the
//! monomorphism backend's maintained arc consistency, which seeds its
//! root domains from here.
//!
//! The revision is a bitset kernel. A domain is one PE bitset per KMS
//! position; revising `y` against `x` over an edge first collapses
//! each position of `x` to the PEs its live candidates can exchange a
//! value with (`⋃ reach[pe]`), then intersects each position of `y`
//! with the union of those sets over the time-compatible positions of
//! `x`. That is `O(|pos_x|·|PE| + |pos_x|·|pos_y|)` word operations
//! per arc where a candidate-pair scan pays `O(|D_x|·|D_y|)` checks.

use satmapit_cgra::{Cgra, PeId};
use satmapit_dfg::{Dfg, EdgeId, NodeId};
use satmapit_schedule::Kms;
use std::collections::VecDeque;

/// The candidates that survived the filter: per node and KMS position
/// (indexed as in [`Kms::positions`]), the set of PEs still possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domains {
    /// `u64` words per PE set.
    words: usize,
    /// Per node, the index of its first position's PE set; one extra
    /// entry closes the last node.
    first: Vec<usize>,
    /// The PE sets, position-major, `words` words each.
    bits: Vec<u64>,
}

impl Domains {
    /// Whether placing `n` at its `pos_idx`-th KMS position on `pe` is
    /// still possible.
    pub fn contains(&self, n: NodeId, pos_idx: usize, pe: PeId) -> bool {
        let set = self.first[n.index()] + pos_idx;
        debug_assert!(set < self.first[n.index() + 1]);
        self.bits[set * self.words + pe.index() / 64] >> (pe.index() % 64) & 1 == 1
    }

    /// Number of surviving candidates over all nodes.
    pub fn num_candidates(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The PE sets of node `n`, all positions concatenated.
    fn node(&self, n: usize) -> &[u64] {
        &self.bits[self.first[n] * self.words..self.first[n + 1] * self.words]
    }
}

/// A refutation: revising `node` along `edge` left it no candidate, so
/// no mapping exists at this II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wipeout {
    /// The node whose domain emptied.
    pub node: NodeId,
    /// The dependency whose revision removed its last candidate.
    pub edge: EdgeId,
}

/// One direction of a dependency, as seen from the node being popped:
/// the domain of `other` is revised against the popped node's.
struct Revision {
    edge: EdgeId,
    /// The node at the other end of the edge.
    other: usize,
    /// Whether the popped node is the edge's producer.
    from_src: bool,
    /// `dist·II`, the loop-carried term of C3's latency.
    carried: i64,
}

/// Collapses each position of a domain (`live`, one PE set of `words`
/// words per position) to the PEs its live candidates can exchange a
/// value with: `into[k] = ⋃ reach[pe]` over the PEs in `live[k]`.
fn collapse(live: &[u64], reach: &[u64], words: usize, into: &mut [u64]) {
    into.fill(0);
    for (set, into) in live.chunks_exact(words).zip(into.chunks_exact_mut(words)) {
        for (w, &word) in set.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let pe = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                for (acc, r) in into.iter_mut().zip(&reach[pe * words..]) {
                    *acc |= r;
                }
            }
        }
    }
}

/// Filters the candidate space of `dfg` on `cgra` folded as `kms` to its
/// arc-consistent fixpoint (see the module docs).
///
/// Every node must have a PE able to execute it — the structural
/// condition [`crate::encoder::EncodeError::NoPeForOp`] reports and
/// every caller checks first.
///
/// # Errors
///
/// A [`Wipeout`] proves that no mapping exists at the II of `kms`.
pub fn filter(dfg: &Dfg, cgra: &Cgra, kms: &Kms) -> Result<Domains, Wipeout> {
    let num_nodes = dfg.num_nodes();
    let num_pes = cgra.num_pes();
    let words = num_pes.div_ceil(64);
    let ii = i64::from(kms.ii());

    // reach[0][p]: the PEs a value produced on `p` can be consumed on —
    // `p` itself (register file) or a neighbour (output register);
    // reach[1][q]: the PEs that can feed `q`.
    let adjacent = cgra.adjacency_matrix();
    let mut reach = [vec![0u64; num_pes * words], vec![0u64; num_pes * words]];
    for p in 0..num_pes {
        for q in 0..num_pes {
            if p == q || adjacent[p * num_pes + q] {
                reach[0][p * words + q / 64] |= 1 << (q % 64);
                reach[1][q * words + p / 64] |= 1 << (p % 64);
            }
        }
    }

    let mut first = Vec::with_capacity(num_nodes + 1);
    let mut bits: Vec<u64> = Vec::new();
    let mut times: Vec<i64> = Vec::new();
    let mut allowed = vec![0u64; words];
    for n in dfg.node_ids() {
        first.push(times.len());
        allowed.fill(0);
        let op = dfg.node(n).op;
        for pe in cgra.pes().filter(|&pe| cgra.supports_op(pe, op)) {
            allowed[pe.index() / 64] |= 1 << (pe.index() % 64);
        }
        for &pos in kms.positions(n) {
            times.push(i64::from(kms.unfolded_time(pos)));
            bits.extend_from_slice(&allowed);
        }
    }
    first.push(times.len());
    let mut domains = Domains { words, first, bits };

    let mut arcs: Vec<Vec<Revision>> = (0..num_nodes).map(|_| Vec::new()).collect();
    for (edge, e) in dfg.edges() {
        // A self-dependency has distance 1 (the encoder rejects anything
        // else): Δ = II on the node's own PE, whatever the placement.
        if e.src == e.dst {
            continue;
        }
        let carried = i64::from(e.distance) * ii;
        for (here, there, from_src) in [(e.src, e.dst, true), (e.dst, e.src, false)] {
            arcs[here.index()].push(Revision {
                edge,
                other: there.index(),
                from_src,
                carried,
            });
        }
    }

    let most_positions = (0..num_nodes)
        .map(|n| domains.first[n + 1] - domains.first[n])
        .max()
        .unwrap_or(0);
    // Per position of the popped node: the PEs some live candidate there
    // can exchange a value with.
    let mut support = vec![0u64; most_positions * words];
    let mut union = vec![0u64; words];
    let mut queue: VecDeque<usize> = (0..num_nodes).collect();
    let mut queued = vec![true; num_nodes];
    while let Some(x) = queue.pop_front() {
        queued[x] = false;
        let (x_lo, x_hi) = (domains.first[x], domains.first[x + 1]);
        for arc in &arcs[x] {
            let support = &mut support[..(x_hi - x_lo) * words];
            collapse(
                domains.node(x),
                &reach[usize::from(!arc.from_src)],
                words,
                support,
            );
            let y = arc.other;
            let (y_lo, y_hi) = (domains.first[y], domains.first[y + 1]);
            let mut changed = false;
            let mut alive = false;
            for ky in y_lo..y_hi {
                let set = &mut domains.bits[ky * words..(ky + 1) * words];
                if set.iter().all(|&w| w == 0) {
                    continue;
                }
                union.fill(0);
                for kx in x_lo..x_hi {
                    let (t_s, t_d) = if arc.from_src {
                        (times[kx], times[ky])
                    } else {
                        (times[ky], times[kx])
                    };
                    let delta = t_d - t_s + arc.carried;
                    if (1..=ii).contains(&delta) {
                        let from = &support[(kx - x_lo) * words..];
                        for (acc, s) in union.iter_mut().zip(from) {
                            *acc |= s;
                        }
                    }
                }
                for (live, allowed) in set.iter_mut().zip(&union) {
                    let kept = *live & allowed;
                    changed |= kept != *live;
                    alive |= kept != 0;
                    *live = kept;
                }
            }
            if !alive {
                return Err(Wipeout {
                    node: NodeId(y as u32),
                    edge: arc.edge,
                });
            }
            if changed && !queued[y] {
                queued[y] = true;
                queue.push_back(y);
            }
        }
    }
    Ok(domains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_clauses, encode_with_options, EncodeError, EncodeOptions};
    use crate::SlackPolicy;
    use satmapit_cgra::{MemoryPolicy, Topology};
    use satmapit_dfg::gen::{random_dfg, RandomDfgConfig};
    use satmapit_dfg::Op;
    use satmapit_sat::{SolveResult, Solver};
    use satmapit_schedule::{mii, MobilitySchedule};

    /// `(mesh side, kernel, mii, ii)` rows of the benchmark's pinned table.
    fn pinned() -> Vec<(u16, &'static str, u32, u32)> {
        include_str!("../../../benchmark/expected_ii.txt")
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let side = f[0].split('x').next().unwrap().parse().unwrap();
                (side, f[1], f[2].parse().unwrap(), f[3].parse().unwrap())
            })
            .collect()
    }

    fn full_wheel(dfg: &Dfg, ii: u32) -> Kms {
        let ms = MobilitySchedule::compute(dfg).unwrap();
        Kms::build_with_slack(&ms, ii, ii - 1)
    }

    /// The fixpoint by the textbook route: explicit candidate lists, the
    /// C3 pair predicate spelled out, revise until nothing changes.
    fn naive_fixpoint(dfg: &Dfg, cgra: &Cgra, kms: &Kms) -> Option<Vec<Vec<(usize, PeId)>>> {
        let ii = i64::from(kms.ii());
        let mut domains: Vec<Vec<(usize, PeId)>> = dfg
            .node_ids()
            .map(|n| {
                let pes = cgra.supported_pes(dfg.node(n).op);
                (0..kms.positions(n).len())
                    .flat_map(|k| pes.iter().map(move |&pe| (k, pe)))
                    .collect()
            })
            .collect();
        let time = |n: NodeId, k: usize| i64::from(kms.unfolded_time(kms.positions(n)[k]));
        loop {
            let mut changed = false;
            for (_, e) in dfg.edges().filter(|(_, e)| e.src != e.dst) {
                let compatible = |(ks, ps): (usize, PeId), (kd, pd): (usize, PeId)| {
                    let delta = time(e.dst, kd) - time(e.src, ks) + i64::from(e.distance) * ii;
                    (1..=ii).contains(&delta) && cgra.adjacent_or_same(ps, pd)
                };
                let (s, d) = (e.src.index(), e.dst.index());
                let kept_s: Vec<_> = domains[s]
                    .iter()
                    .copied()
                    .filter(|&cs| domains[d].iter().any(|&cd| compatible(cs, cd)))
                    .collect();
                let kept_d: Vec<_> = domains[d]
                    .iter()
                    .copied()
                    .filter(|&cd| kept_s.iter().any(|&cs| compatible(cs, cd)))
                    .collect();
                changed |= kept_s.len() != domains[s].len() || kept_d.len() != domains[d].len();
                domains[s] = kept_s;
                domains[d] = kept_d;
            }
            if domains.iter().any(Vec::is_empty) {
                return None;
            }
            if !changed {
                return Some(domains);
            }
        }
    }

    fn assert_matches_naive(dfg: &Dfg, cgra: &Cgra, kms: &Kms, label: &str) {
        let naive = naive_fixpoint(dfg, cgra, kms);
        match filter(dfg, cgra, kms) {
            Err(_) => assert!(naive.is_none(), "{label}: only the kernel wipes out"),
            Ok(domains) => {
                let naive = naive.unwrap_or_else(|| panic!("{label}: only the scan wipes out"));
                assert_eq!(
                    domains.num_candidates(),
                    naive.iter().map(Vec::len).sum::<usize>(),
                    "{label}"
                );
                for n in dfg.node_ids() {
                    for &(k, pe) in &naive[n.index()] {
                        assert!(domains.contains(n, k, pe), "{label}: {n} pos {k} {pe}");
                    }
                }
            }
        }
    }

    /// What one rung showed: whether the filter refuted it and what a
    /// fresh solver says about the unfiltered formula.
    struct Rung {
        refuted: bool,
        verdict: SolveResult,
    }

    /// The exactness claim on one rung: a wipe-out implies the unfiltered
    /// formula is unsatisfiable, and every placement of a model lies in
    /// the surviving set.
    fn assert_sound(dfg: &Dfg, cgra: &Cgra, kms: &Kms, label: &str) -> Rung {
        let filtered = filter(dfg, cgra, kms);
        let enc = encode_clauses(dfg, cgra, kms, EncodeOptions::default());
        let mut solver = Solver::from_cnf(&enc.formula);
        let verdict = solver.solve();
        match &filtered {
            Err(w) => assert_eq!(
                verdict,
                SolveResult::Unsat,
                "{label}: the filter refuted a satisfiable rung ({w:?})"
            ),
            Ok(domains) if verdict == SolveResult::Sat => {
                let model = solver.model().unwrap();
                for v in (0..enc.varmap.num_vars()).filter(|&v| model[v]) {
                    let (n, pos, pe) = enc.varmap.decode(satmapit_sat::Var::new(v as u32));
                    let k = kms.positions(n).iter().position(|&p| p == pos).unwrap();
                    assert!(
                        domains.contains(n, k, pe),
                        "{label}: the model places {n} at {pos:?} on {pe}, which the filter removed"
                    );
                }
            }
            Ok(_) => {}
        }
        Rung {
            refuted: filtered.is_err(),
            verdict,
        }
    }

    #[test]
    fn bitset_kernel_matches_the_pair_scan_on_the_suite() {
        for (side, kernel, mii, ii) in pinned().into_iter().filter(|r| r.0 <= 5) {
            let dfg = satmapit_kernels::by_name(kernel).unwrap().dfg;
            let cgra = Cgra::square(side);
            for rung in mii..=ii {
                let label = format!("{kernel} {side}x{side} II={rung}");
                assert_matches_naive(&dfg, &cgra, &full_wheel(&dfg, rung), &label);
            }
        }
    }

    #[test]
    fn sound_on_every_suite_rung_up_to_5x5() {
        let mut refuted = 0;
        for (side, kernel, mii, ii) in pinned().into_iter().filter(|r| r.0 <= 5) {
            let dfg = satmapit_kernels::by_name(kernel).unwrap().dfg;
            let cgra = Cgra::square(side);
            for rung in mii..=ii {
                let kms = full_wheel(&dfg, rung);
                // A rung below the pinned II that survives the filter is
                // unsatisfiable by the table, so neither half of the claim
                // speaks about it — and those are the expensive solves.
                if rung < ii && filter(&dfg, &cgra, &kms).is_ok() {
                    continue;
                }
                let label = format!("{kernel} {side}x{side} II={rung}");
                let seen = assert_sound(&dfg, &cgra, &kms, &label);
                assert_eq!(seen.verdict == SolveResult::Sat, rung == ii, "{label}");
                refuted += usize::from(seen.refuted);
            }
        }
        assert!(refuted >= 20, "only {refuted} suite rungs refuted");
    }

    /// 300 generated loop bodies on `topology` × every memory policy that
    /// leaves a memory port × every slack policy (rotated, so each body
    /// meets each once across the policies), every rung from MII until
    /// the formula is satisfiable (at most three).
    fn random_bodies_are_sound(topology: Topology) {
        let policies = [
            MemoryPolicy::AllPes,
            MemoryPolicy::LeftColumn,
            MemoryPolicy::SplitLoadStore,
        ];
        let slacks = [
            SlackPolicy::Zero,
            SlackPolicy::Fixed(1),
            SlackPolicy::FullWheel,
        ];
        // The single row is where same-PE transfers carry the support.
        let meshes = [(1, 3), (2, 2), (2, 3), (3, 3)];
        let (mut rungs, mut refuted, mut sat) = (0, 0, 0);
        for seed in 0..300u64 {
            let dfg = random_dfg(&RandomDfgConfig {
                nodes: 3 + (seed % 7) as usize,
                back_edges: (seed % 3) as usize,
                memory_ops: seed % 2 == 0,
                seed,
            });
            let ms = MobilitySchedule::compute(&dfg).unwrap();
            let (rows, cols) = meshes[(seed % 4) as usize];
            for (p, policy) in policies.into_iter().enumerate() {
                let cgra = Cgra::new(rows, cols)
                    .with_topology(topology)
                    .with_memory_policy(policy);
                let slack = slacks[(seed as usize / 3 + p) % 3];
                let start = mii(&dfg, &cgra).expect("every policy here has memory PEs");
                for ii in start..start + 3 {
                    let kms = Kms::build_with_slack(&ms, ii, slack.slack(ii));
                    if encode_with_options(&dfg, &cgra, &kms, EncodeOptions::default()).is_err() {
                        break; // a planted self-edge of distance 2
                    }
                    let label = format!(
                        "seed {seed} {rows}x{cols} {topology:?} {policy:?} {slack:?} II={ii}"
                    );
                    assert_matches_naive(&dfg, &cgra, &kms, &label);
                    let seen = assert_sound(&dfg, &cgra, &kms, &label);
                    rungs += 1;
                    refuted += usize::from(seen.refuted);
                    if seen.verdict == SolveResult::Sat {
                        sat += 1;
                        break;
                    }
                }
            }
        }
        // The sample must exercise both halves of the claim.
        assert!(refuted * 10 >= rungs, "{refuted} of {rungs} rungs refuted");
        assert!(sat * 10 >= rungs, "{sat} of {rungs} rungs satisfiable");
    }

    #[test]
    fn sound_on_random_bodies_mesh4() {
        random_bodies_are_sound(Topology::Mesh4);
    }

    #[test]
    fn sound_on_random_bodies_mesh8() {
        random_bodies_are_sound(Topology::Mesh8);
    }

    #[test]
    fn sound_on_random_bodies_torus4() {
        random_bodies_are_sound(Topology::Torus4);
    }

    #[test]
    fn pinned_final_iis_are_never_refuted() {
        for (side, kernel, _, ii) in pinned() {
            let dfg = satmapit_kernels::by_name(kernel).unwrap().dfg;
            let survived = filter(&dfg, &Cgra::square(side), &full_wheel(&dfg, ii));
            assert!(
                survived.is_ok(),
                "{kernel} {side}x{side} II={ii}: {survived:?}"
            );
        }
    }

    #[test]
    fn a_distance_one_self_edge_prunes_nothing() {
        // x = -x' : the node's only dependency is on itself, one
        // iteration back. Δ = II on its own PE wherever it sits.
        let mut dfg = Dfg::new("flip");
        let x = dfg.add_node(Op::Neg);
        dfg.add_back_edge(x, x, 0, 1, 1);
        let cgra = Cgra::square(3);
        for ii in 1..=3 {
            let kms = full_wheel(&dfg, ii);
            let seen = assert_sound(&dfg, &cgra, &kms, &format!("II={ii}"));
            assert_eq!(seen.verdict, SolveResult::Sat);
            let domains = filter(&dfg, &cgra, &kms).unwrap();
            assert_eq!(
                domains.num_candidates(),
                kms.positions(x).len() * cgra.num_pes()
            );
        }
    }

    #[test]
    fn a_back_edge_carries_distance_times_ii() {
        // a -> b, b -> a carried over `distance` iterations, strict windows:
        // t_a = 0, t_b = 1, so the back-edge's Δ is `distance·II − 1`.
        let cycle = |distance| {
            let mut dfg = Dfg::new("cycle");
            let a = dfg.add_node(Op::Neg);
            let b = dfg.add_node(Op::Neg);
            dfg.add_edge(a, b, 0);
            dfg.add_back_edge(b, a, 0, distance, 0);
            dfg
        };
        let cgra = Cgra::square(2);
        let strict = |dfg: &Dfg, ii| Kms::build(&MobilitySchedule::compute(dfg).unwrap(), ii);
        // distance 2 at II = 1: Δ = 1, inside 1..=II. With a `distance` of
        // 1 in the term the filter would read Δ = 0 and refute.
        let two = cycle(2);
        let seen = assert_sound(&two, &cgra, &strict(&two, 1), "distance 2, II=1");
        assert!(!seen.refuted);
        assert_eq!(seen.verdict, SolveResult::Sat);
        // distance 3 at II = 1: Δ = 2 > II, for the filter and for C3 alike.
        let three = cycle(3);
        let seen = assert_sound(&three, &cgra, &strict(&three, 1), "distance 3, II=1");
        assert!(seen.refuted);
        // …and at II = 2 the forward edge is what fails: Δ = 1 holds there
        // (t_b − t_a = 1) while the back-edge reads Δ = 5 > 2.
        let seen = assert_sound(&three, &cgra, &strict(&three, 2), "distance 3, II=2");
        assert!(seen.refuted);
    }

    #[test]
    fn structural_rejections_stay_encode_errors() {
        let options = EncodeOptions::default();
        // A load on a fabric without memory ports.
        let mut dfg = Dfg::new("ld");
        let addr = dfg.add_const(0);
        let ld = dfg.add_node(Op::Load);
        dfg.add_edge(addr, ld, 0);
        let cgra = Cgra::square(2).with_memory_policy(MemoryPolicy::None);
        let kms = full_wheel(&dfg, 1);
        assert_eq!(
            encode_with_options(&dfg, &cgra, &kms, options).unwrap_err(),
            EncodeError::NoPeForOp { node: ld }
        );
        // A self-dependency of distance 2, inside a recurrence whose first
        // rungs the filter would otherwise refute.
        let mut dfg = Dfg::new("fib");
        let f = dfg.add_node(Op::Add);
        let g = dfg.add_node(Op::Neg);
        dfg.add_edge(f, g, 0);
        dfg.add_back_edge(g, f, 0, 1, 1);
        let twice = dfg.add_back_edge(f, f, 1, 2, 0);
        let kms = full_wheel(&dfg, 1);
        assert!(filter(&dfg, &Cgra::square(2), &kms).is_err());
        assert_eq!(
            encode_with_options(&dfg, &Cgra::square(2), &kms, options).unwrap_err(),
            EncodeError::SelfEdgeDistance { edge: twice }
        );
    }
}

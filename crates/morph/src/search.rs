//! The per-II monomorphism search.
//!
//! ## The target: the time-expanded routing graph
//!
//! For a candidate II the CGRA unrolls into a slot graph with one vertex
//! per `(PE, kernel cycle)` pair and one arc per single-cycle value hop:
//! `(p, c) → (p', (c+1) mod II)` for every `p'` that is `p` itself (the
//! register file) or an interconnect neighbour (the output register).
//! A valid mapping is an embedding of the DFG into this graph: each node
//! lands on a slot whose PE supports its op, no two nodes share a slot
//! (injectivity — the *mono* in monomorphism), and each dependency
//! follows arcs of the slot graph with a latency `Δ = t_d − t_s +
//! dist·II` inside `1..=II` whose producer-side output register survives
//! untouched for `Δ` cycles. The candidate *times* per node are exactly
//! the kernel-mobility-schedule positions the SAT encoder enumerates
//! ([`Kms::positions`]) — both backends search the same space, which is
//! what makes their `Unsat` verdicts interchangeable.
//!
//! ## The search
//!
//! Exact backtracking with forward checking: per-node candidate domains
//! (`KMS position × supporting PE`), dynamic most-constrained-first
//! variable order, and trail-based undo. Assigning a node prunes from
//! every unassigned domain the taken slot, every timing/adjacency
//! violation along incident edges, and every slot inside a newly closed
//! cross-PE edge's output-register window; an emptied domain backtracks.
//! Complete embeddings go to register allocation — a failure there is
//! counted against [`satmapit_core::RA_CUT_BUDGET`]
//! and the search resumes, exactly like the SAT backend's blocking cuts.
//!
//! Exhaustion with zero register-allocation failures is a **proof** of
//! infeasibility (`Unsat`); with failures it is only a definitive
//! give-up (`RegAllocFailed`), mirroring the SAT ladder's semantics.
//!
//! The deadline in [`SolveLimits`] is polled every
//! [`LIMIT_POLL_INTERVAL`] search steps (decisions and dead-ends both
//! count), the SAT core's cadence.

use crate::PreparedMorph;
use satmapit_cgra::{Cgra, PeId};
use satmapit_core::encoder::EncodeStats;
use satmapit_core::filter::{self, Domains};
use satmapit_core::{
    allocate_registers, validate_mapping, AttemptOutcome, AttemptReport, IiAttempt, MapFailure,
    MappedLoop, Mapping, Placement, TransferKind, RA_CUT_BUDGET,
};
use satmapit_dfg::{Dfg, NodeId};
use satmapit_graphs::DiGraph;
use satmapit_regalloc::RegAllocError;
use satmapit_sat::{SolveLimits, SolverStats, LIMIT_POLL_INTERVAL};
use satmapit_schedule::Kms;
use std::collections::VecDeque;
use std::time::Instant;

/// One candidate slot for a node: a KMS position on a supporting PE.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// PE index (dense).
    pe: usize,
    /// Kernel cycle, `< ii`.
    cycle: u32,
    /// Fold label.
    fold: u32,
    /// Unfolded time `cycle + fold·ii`.
    time: i64,
}

/// An open output-register window: the producer of a completed cross-PE
/// edge holds its output register for `delta` cycles.
#[derive(Debug, Clone, Copy)]
struct Guard {
    src: usize,
    pe: usize,
    cycle: u32,
    delta: u32,
}

/// Why the search stopped before exhausting the space.
enum Halt {
    Deadline,
    RaBudget,
    Internal(String),
}

enum SearchResult {
    Found(Box<MappedLoop>),
    /// This subtree (or the whole space, at the root) holds no embedding.
    Dead,
    Halt(Halt),
}

/// Builds the time-expanded routing graph for one II: vertex `pe·II + c`
/// is slot `(pe, c)`, arcs are the single-cycle value hops.
fn slot_graph(cgra: &Cgra, ii: u32) -> DiGraph {
    let ii_us = ii as usize;
    let mut g = DiGraph::new(cgra.num_pes() * ii_us);
    for pe in cgra.pes() {
        for c in 0..ii_us {
            let from = pe.index() * ii_us + c;
            let tc = (c + 1) % ii_us;
            g.add_edge(from, pe.index() * ii_us + tc);
            for nb in cgra.neighbors(pe) {
                g.add_edge(from, nb.index() * ii_us + tc);
            }
        }
    }
    g
}

/// Projects the slot graph's arc set down to the PE relation "can hand a
/// value to in one cycle" (self or interconnect neighbour) — the
/// adjacency test every cross-slot dependency must pass.
fn hop_relation(cgra: &Cgra, ii: u32, slots: &DiGraph) -> Vec<bool> {
    let np = cgra.num_pes();
    let ii_us = ii as usize;
    let mut adj = vec![false; np * np];
    for pe in 0..np {
        for to in slots.successors(pe * ii_us) {
            adj[pe * np + to / ii_us] = true;
        }
    }
    adj
}

struct Search<'p> {
    dfg: &'p Dfg,
    cgra: &'p Cgra,
    limits: &'p SolveLimits,
    ii: u32,
    folds: u32,
    num_nodes: usize,
    /// PE×PE single-hop relation from the time-expanded graph.
    adj: Vec<bool>,
    num_pes: usize,
    /// Per-node candidate slots.
    cands: Vec<Vec<Cand>>,
    /// Per-node per-candidate liveness under the current partial
    /// assignment.
    active: Vec<Vec<bool>>,
    active_count: Vec<usize>,
    /// Chosen candidate index per node.
    assigned: Vec<Option<usize>>,
    num_assigned: usize,
    /// Slot occupancy: `pe·II + cycle → node`.
    slot_occ: Vec<Option<usize>>,
    /// Undo log of `(node, candidate)` prunes.
    trail: Vec<(usize, usize)>,
    /// Nodes whose domains the last [`Search::assign`] shrank — the
    /// seed set for [`Search::propagate`].
    dirty: Vec<usize>,
    /// Work queue of [`Search::propagate`] and its membership flags,
    /// kept here so a search node does not allocate them.
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    /// Open output-register windows of completed cross-PE edges.
    guards: Vec<Guard>,
    regalloc_budget: u64,
    mii: u32,
    ra_failures: u32,
    last_ra_error: Option<RegAllocError>,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    steps: u64,
}

impl<'p> Search<'p> {
    fn new(p: &'p PreparedMorph<'p>, kms: &Kms, ii: u32, limits: &'p SolveLimits) -> Search<'p> {
        let dfg = p.dfg;
        let cgra = p.cgra;
        let slots = slot_graph(cgra, ii);
        let adj = hop_relation(cgra, ii, &slots);
        let num_pes = cgra.num_pes();
        let mut cands: Vec<Vec<Cand>> = Vec::with_capacity(dfg.num_nodes());
        for n in dfg.node_ids() {
            let op = dfg.node(n).op;
            let mut dom = Vec::new();
            for pos in kms.positions(n) {
                for pe in cgra.supported_pes(op) {
                    dom.push(Cand {
                        pe: pe.index(),
                        cycle: pos.cycle,
                        fold: pos.fold,
                        time: i64::from(pos.cycle) + i64::from(pos.fold) * i64::from(ii),
                    });
                }
            }
            cands.push(dom);
        }
        let active = cands.iter().map(|d| vec![true; d.len()]).collect();
        let active_count = cands.iter().map(Vec::len).collect();
        Search {
            dfg,
            cgra,
            limits,
            ii,
            folds: kms.folds(),
            num_nodes: dfg.num_nodes(),
            adj,
            num_pes,
            cands,
            active,
            active_count,
            assigned: vec![None; dfg.num_nodes()],
            num_assigned: 0,
            slot_occ: vec![None; num_pes * ii as usize],
            trail: Vec::new(),
            dirty: Vec::new(),
            queue: VecDeque::new(),
            queued: vec![false; dfg.num_nodes()],
            guards: Vec::new(),
            regalloc_budget: p.config.regalloc_budget,
            mii: p.mii,
            ra_failures: 0,
            last_ra_error: None,
            decisions: 0,
            conflicts: 0,
            propagations: 0,
            steps: 0,
        }
    }

    /// Drops every candidate the shared domain filter removed — the
    /// root-level arc consistency, computed once for both backends.
    /// Off the trail: nothing below the root may revive them.
    fn seed(&mut self, kms: &Kms, domains: &Domains) {
        for n in 0..self.num_nodes {
            let node = NodeId(n as u32);
            let width = self.cands[n].len() / kms.positions(node).len();
            for (ci, cand) in self.cands[n].iter().enumerate() {
                if !domains.contains(node, ci / width, PeId(cand.pe as u16)) {
                    self.active[n][ci] = false;
                    self.active_count[n] -= 1;
                }
            }
        }
    }

    fn hop_ok(&self, from_pe: usize, to_pe: usize) -> bool {
        self.adj[from_pe * self.num_pes + to_pe]
    }

    fn slot(&self, pe: usize, cycle: u32) -> usize {
        pe * self.ii as usize + cycle as usize
    }

    /// Is `(pe, cycle)` inside the window of `guard` (excluding the
    /// producer itself, which legally occupies the window's base slot)?
    fn in_guard(&self, guard: &Guard, node: usize, pe: usize, cycle: u32) -> bool {
        if guard.pe != pe || node == guard.src {
            return false;
        }
        (1..guard.delta).any(|k| (guard.cycle + k) % self.ii == cycle)
    }

    /// The timing/adjacency check for edge `e` with both endpoints
    /// placed.
    fn edge_ok(&self, src: &Cand, dst: &Cand, distance: u32) -> bool {
        let delta = dst.time - src.time + i64::from(distance) * i64::from(self.ii);
        delta >= 1 && delta <= i64::from(self.ii) && self.hop_ok(src.pe, dst.pe)
    }

    /// Prunes candidate `ci` of node `m`, recording it on the trail.
    fn prune(&mut self, m: usize, ci: usize) {
        if self.active[m][ci] {
            self.active[m][ci] = false;
            self.active_count[m] -= 1;
            self.trail.push((m, ci));
            self.propagations += 1;
        }
    }

    /// Checks candidate `ci` for `node` against the assigned prefix,
    /// then commits it and forward-prunes the unassigned domains.
    /// Returns `false` (no state change) if the candidate is
    /// inconsistent with the assignment.
    fn assign(&mut self, node: usize, ci: usize) -> bool {
        let cand = self.cands[node][ci];
        if self.slot_occ[self.slot(cand.pe, cand.cycle)].is_some() {
            return false;
        }
        // Existing output-register windows forbid this slot?
        for g in &self.guards {
            if self.in_guard(g, node, cand.pe, cand.cycle) {
                return false;
            }
        }
        // Edges whose second endpoint this assignment closes: timing,
        // adjacency, and (cross-PE) a clear output-register window.
        let nid = NodeId(node as u32);
        let mut new_guards: Vec<Guard> = Vec::new();
        for eid in self
            .dfg
            .in_edges(nid)
            .into_iter()
            .chain(self.dfg.out_edges(nid))
        {
            let e = self.dfg.edge(eid);
            let (s, d) = (e.src.index(), e.dst.index());
            let other = if s == node { d } else { s };
            if other == node {
                // Self-dependency: distance 1 (checked at prepare), so
                // Δ = II and the transfer stays on-PE. Always fine.
                continue;
            }
            let Some(oi) = self.assigned[other] else {
                continue;
            };
            let o = self.cands[other][oi];
            let (sc, dc) = if s == node { (cand, o) } else { (o, cand) };
            if !self.edge_ok(&sc, &dc, e.distance) {
                return false;
            }
            if sc.pe != dc.pe {
                let delta = (dc.time - sc.time + i64::from(e.distance) * i64::from(self.ii)) as u32;
                let guard = Guard {
                    src: s,
                    pe: sc.pe,
                    cycle: sc.cycle,
                    delta,
                };
                // The window must already be clear of assigned nodes…
                for k in 1..delta {
                    let w = self.slot(sc.pe, (sc.cycle + k) % self.ii);
                    if let Some(m) = self.slot_occ[w] {
                        if m != s {
                            return false;
                        }
                    }
                }
                new_guards.push(guard);
            }
        }
        // Commit.
        self.assigned[node] = Some(ci);
        self.num_assigned += 1;
        let taken = self.slot(cand.pe, cand.cycle);
        self.slot_occ[taken] = Some(node);
        // Forward-check the unassigned domains.
        self.dirty.clear();
        for m in 0..self.num_nodes {
            if self.assigned[m].is_some() {
                continue;
            }
            let before = self.active_count[m];
            for mi in 0..self.cands[m].len() {
                if !self.active[m][mi] {
                    continue;
                }
                let mc = self.cands[m][mi];
                // …the taken slot (injectivity),
                if mc.pe == cand.pe && mc.cycle == cand.cycle {
                    self.prune(m, mi);
                    continue;
                }
                // …new output-register windows,
                if new_guards
                    .iter()
                    .any(|g| self.in_guard(g, m, mc.pe, mc.cycle))
                {
                    self.prune(m, mi);
                    continue;
                }
                // …and timing/adjacency along edges to the new node.
                let mid = NodeId(m as u32);
                let mut dead = false;
                for eid in self.dfg.in_edges(mid) {
                    let e = self.dfg.edge(eid);
                    if e.src.index() == node && !self.edge_ok(&cand, &mc, e.distance) {
                        dead = true;
                        break;
                    }
                }
                if !dead {
                    for eid in self.dfg.out_edges(mid) {
                        let e = self.dfg.edge(eid);
                        if e.dst.index() == node && !self.edge_ok(&mc, &cand, e.distance) {
                            dead = true;
                            break;
                        }
                    }
                }
                if dead {
                    self.prune(m, mi);
                }
            }
            if self.active_count[m] < before {
                self.dirty.push(m);
            }
        }
        self.guards.extend(new_guards);
        true
    }

    /// Maintains arc consistency over the timing/adjacency constraints:
    /// starting from [`Search::dirty`] (nodes whose domains just shrank), prune
    /// every unassigned candidate left without a support in a
    /// constraining neighbour's domain, to a fixpoint. All prunes land
    /// on the trail; returns `false` on a domain wipe-out (the branch is
    /// dead). Sound for the exactness of `Unsat`: a value without
    /// support under one edge constraint can appear in no embedding.
    fn propagate(&mut self) -> bool {
        // A wipe-out returns mid-queue; start from a clean one.
        self.queue.clear();
        self.queued.fill(false);
        for &x in &self.dirty {
            self.queue.push_back(x);
            self.queued[x] = true;
        }
        while let Some(x) = self.queue.pop_front() {
            self.queued[x] = false;
            if self.active_count[x] == 0 && self.assigned[x].is_none() {
                return false;
            }
            let xid = NodeId(x as u32);
            for eid in self
                .dfg
                .in_edges(xid)
                .into_iter()
                .chain(self.dfg.out_edges(xid))
            {
                let e = self.dfg.edge(eid);
                let (s, d) = (e.src.index(), e.dst.index());
                let y = if s == x { d } else { s };
                if y == x || self.assigned[y].is_some() || self.assigned[x].is_some() {
                    continue;
                }
                let y_is_src = s == y;
                let mut changed = false;
                for yi in 0..self.cands[y].len() {
                    if !self.active[y][yi] {
                        continue;
                    }
                    let yc = self.cands[y][yi];
                    let supported = (0..self.cands[x].len()).any(|xi| {
                        if !self.active[x][xi] {
                            return false;
                        }
                        let xc = self.cands[x][xi];
                        if y_is_src {
                            self.edge_ok(&yc, &xc, e.distance)
                        } else {
                            self.edge_ok(&xc, &yc, e.distance)
                        }
                    });
                    if !supported {
                        self.prune(y, yi);
                        changed = true;
                        if self.active_count[y] == 0 {
                            return false;
                        }
                    }
                }
                if changed && !self.queued[y] {
                    self.queued[y] = true;
                    self.queue.push_back(y);
                }
            }
        }
        true
    }

    /// Reverts one [`Search::assign`]: trail prunes, guards, occupancy.
    fn undo(&mut self, node: usize, trail_mark: usize, guard_mark: usize) {
        while self.trail.len() > trail_mark {
            let (m, ci) = self.trail.pop().expect("trail above mark");
            self.active[m][ci] = true;
            self.active_count[m] += 1;
        }
        self.guards.truncate(guard_mark);
        let ci = self.assigned[node].take().expect("undoing an assignment");
        let cand = self.cands[node][ci];
        let freed = self.slot(cand.pe, cand.cycle);
        self.slot_occ[freed] = None;
        self.num_assigned -= 1;
    }

    /// Most-constrained unassigned node (fail-first).
    fn pick_node(&self) -> usize {
        let mut best = usize::MAX;
        let mut best_count = usize::MAX;
        for n in 0..self.num_nodes {
            if self.assigned[n].is_none() && self.active_count[n] < best_count {
                best = n;
                best_count = self.active_count[n];
            }
        }
        best
    }

    /// A complete embedding: decode, validate, allocate registers.
    fn complete(&mut self) -> SearchResult {
        let placements: Vec<Placement> = (0..self.num_nodes)
            .map(|n| {
                let c = self.cands[n][self.assigned[n].expect("complete assignment")];
                Placement {
                    pe: PeId(c.pe as u16),
                    cycle: c.cycle,
                    fold: c.fold,
                }
            })
            .collect();
        let transfers: Vec<TransferKind> = self
            .dfg
            .edges()
            .map(|(_, e)| {
                if placements[e.src.index()].pe == placements[e.dst.index()].pe {
                    TransferKind::SamePeRegister
                } else {
                    TransferKind::NeighborOutput
                }
            })
            .collect();
        let mapping = Mapping {
            ii: self.ii,
            folds: self.folds,
            placements,
            transfers,
        };
        if let Err(violations) = validate_mapping(self.dfg, self.cgra, &mapping) {
            return SearchResult::Halt(Halt::Internal(format!(
                "morph embedding failed validation: {violations:?}"
            )));
        }
        match allocate_registers(self.dfg, self.cgra, &mapping, self.regalloc_budget) {
            Ok(registers) => SearchResult::Found(Box::new(MappedLoop {
                mapping,
                registers,
                mii: self.mii,
            })),
            Err(e) => {
                self.ra_failures += 1;
                self.last_ra_error = Some(e);
                if self.ra_failures > RA_CUT_BUDGET {
                    SearchResult::Halt(Halt::RaBudget)
                } else {
                    // Keep searching: some other embedding may allocate.
                    SearchResult::Dead
                }
            }
        }
    }

    fn search(&mut self) -> SearchResult {
        if self.num_assigned == self.num_nodes {
            return self.complete();
        }
        let node = self.pick_node();
        let order: Vec<usize> = (0..self.cands[node].len())
            .filter(|&ci| self.active[node][ci])
            .collect();
        for ci in order {
            self.steps += 1;
            // Uniform deadline poll, same cadence as the SAT core.
            if self.steps.is_multiple_of(LIMIT_POLL_INTERVAL) && self.limits.expired() {
                return SearchResult::Halt(Halt::Deadline);
            }
            self.decisions += 1;
            let trail_mark = self.trail.len();
            let guard_mark = self.guards.len();
            if self.assign(node, ci) {
                if self.propagate() {
                    match self.search() {
                        SearchResult::Dead => {}
                        other => return other,
                    }
                }
                self.undo(node, trail_mark, guard_mark);
            }
            self.steps += 1;
            self.conflicts += 1;
        }
        SearchResult::Dead
    }

    fn solver_stats(&self) -> SolverStats {
        SolverStats {
            decisions: self.decisions,
            conflicts: self.conflicts,
            propagations: self.propagations,
            ..SolverStats::default()
        }
    }

    fn encode_stats(&self) -> EncodeStats {
        EncodeStats {
            placement_vars: self.cands.iter().map(Vec::len).sum(),
            total_vars: self.cands.iter().map(Vec::len).sum(),
            ..EncodeStats::default()
        }
    }
}

/// Attempts one candidate II for a prepared session; the
/// [`satmapit_core::PreparedMapper::attempt_ii`] contract.
pub(crate) fn attempt(
    p: &PreparedMorph<'_>,
    ii: u32,
    limits: &SolveLimits,
) -> Result<AttemptReport, MapFailure> {
    let t_ii = Instant::now();
    if p.proven_unmappable() {
        return Ok(AttemptReport::unmappable(ii, t_ii.elapsed()));
    }
    let kms = Kms::build_with_slack(&p.ms, ii, p.config.slack.slack(ii));
    let mut s = Search::new(p, &kms, ii, limits);
    // Root-level arc consistency is the core's domain filter — the one
    // the SAT encoder runs; a wipe-out there is already a proof.
    match filter::filter(p.dfg, p.cgra, &kms) {
        Ok(domains) => s.seed(&kms, &domains),
        Err(_) => {
            return Ok(AttemptReport::filter_refuted(
                ii,
                s.encode_stats(),
                t_ii.elapsed(),
            ))
        }
    }
    let result = s.search();
    let report = |s: &Search<'_>, outcome, mapped, stats| AttemptReport {
        attempt: IiAttempt {
            ii,
            encode_stats: s.encode_stats(),
            outcome,
            solver_stats: stats,
            ra_cuts: s.ra_failures,
            elapsed: t_ii.elapsed(),
        },
        mapped,
        proven_unmappable: false,
    };
    match result {
        SearchResult::Found(mapped) => Ok(report(
            &s,
            AttemptOutcome::Mapped,
            Some(*mapped),
            Some(s.solver_stats()),
        )),
        SearchResult::Dead => {
            // The space is exhausted. With register-allocation failures
            // along the way this is a give-up, not a proof — exactly the
            // SAT ladder's Unsat-after-cuts semantics.
            let outcome = match s.last_ra_error {
                Some(e) if s.ra_failures > 0 => AttemptOutcome::RegAllocFailed(e),
                _ => AttemptOutcome::Unsat,
            };
            Ok(report(&s, outcome, None, Some(s.solver_stats())))
        }
        SearchResult::Halt(Halt::RaBudget) => {
            let e = s.last_ra_error.expect("budget implies a failure");
            Ok(report(
                &s,
                AttemptOutcome::RegAllocFailed(e),
                None,
                Some(s.solver_stats()),
            ))
        }
        SearchResult::Halt(Halt::Deadline) => Err(MapFailure::Timeout { at_ii: ii }),
        SearchResult::Halt(Halt::Internal(msg)) => Err(MapFailure::Internal(msg)),
    }
}

/// The PE-level relaxation probe: ignore time entirely and ask whether
/// *any* node→PE assignment satisfies op support and per-edge
/// adjacency-or-same. Every valid mapping at every II induces one, so an
/// infeasible relaxation proves the loop unmappable outright — the
/// monomorphism twin of the SAT ladder's II-invariant prefix core.
///
/// Bounded by `budget` node expansions; past it the probe answers
/// `false` ("not proven"), which is always sound.
pub(crate) fn pe_relaxation_infeasible(dfg: &Dfg, cgra: &Cgra, budget: u64) -> bool {
    struct Relax<'a> {
        cgra: &'a Cgra,
        domains: Vec<Vec<PeId>>,
        /// Per node: the other endpoints of its non-self edges.
        contacts: Vec<Vec<usize>>,
        assignment: Vec<Option<PeId>>,
        expansions: u64,
        budget: u64,
    }
    impl Relax<'_> {
        /// `Some(true)` = a PE assignment exists, `Some(false)` = none
        /// exists, `None` = budget exhausted (unknown).
        fn feasible(&mut self, node: usize) -> Option<bool> {
            if node == self.assignment.len() {
                return Some(true);
            }
            for i in 0..self.domains[node].len() {
                let pe = self.domains[node][i];
                self.expansions += 1;
                if self.expansions > self.budget {
                    return None;
                }
                let ok = self.contacts[node].iter().all(|&m| {
                    self.assignment[m].is_none_or(|mp| self.cgra.adjacent_or_same(pe, mp))
                });
                if !ok {
                    continue;
                }
                self.assignment[node] = Some(pe);
                match self.feasible(node + 1) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
                self.assignment[node] = None;
            }
            Some(false)
        }
    }

    let n = dfg.num_nodes();
    let domains: Vec<Vec<PeId>> = dfg
        .node_ids()
        .map(|id| cgra.supported_pes(dfg.node(id).op))
        .collect();
    if domains.iter().any(Vec::is_empty) {
        return true;
    }
    let mut contacts = vec![Vec::new(); n];
    for (_, e) in dfg.edges() {
        if e.src != e.dst {
            contacts[e.src.index()].push(e.dst.index());
            contacts[e.dst.index()].push(e.src.index());
        }
    }
    let mut relax = Relax {
        cgra,
        domains,
        contacts,
        assignment: vec![None; n],
        expansions: 0,
        budget,
    };
    matches!(relax.feasible(0), Some(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use satmapit_dfg::Op;

    fn chain(n: usize) -> Dfg {
        let mut dfg = Dfg::new("chain");
        let mut prev = dfg.add_const(1);
        for _ in 1..n {
            let next = dfg.add_node(Op::Neg);
            dfg.add_edge(prev, next, 0);
            prev = next;
        }
        dfg
    }

    #[test]
    fn slot_graph_has_one_arc_per_hop() {
        let cgra = Cgra::square(2);
        let g = slot_graph(&cgra, 3);
        assert_eq!(g.num_nodes(), 4 * 3);
        // Each of the 12 slots hops to itself-next-cycle plus each
        // neighbour-next-cycle (2 neighbours per PE on a 2x2 mesh).
        assert_eq!(g.num_edges(), 12 * 3);
    }

    #[test]
    fn hop_relation_matches_adjacent_or_same() {
        let cgra = Cgra::square(3);
        let g = slot_graph(&cgra, 2);
        let adj = hop_relation(&cgra, 2, &g);
        for a in cgra.pes() {
            for b in cgra.pes() {
                assert_eq!(
                    adj[a.index() * cgra.num_pes() + b.index()],
                    cgra.adjacent_or_same(a, b),
                    "{a:?} -> {b:?}"
                );
            }
        }
    }

    /// The root domains now come from the core's filter; the search's own
    /// propagation, run from every node on untouched domains, must leave
    /// exactly the same candidates — on every suite kernel, 2x2 to 5x5,
    /// every rung from MII to the pinned II.
    #[test]
    fn own_root_propagation_and_the_core_filter_keep_the_same_candidates() {
        let rows = include_str!("../../../benchmark/expected_ii.txt")
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty());
        let limits = SolveLimits::none();
        let mut wipeouts = 0;
        for row in rows {
            let f: Vec<&str> = row.split_whitespace().collect();
            let side: u16 = f[0].split('x').next().unwrap().parse().unwrap();
            if side > 5 {
                continue;
            }
            let (mii, ii): (u32, u32) = (f[2].parse().unwrap(), f[3].parse().unwrap());
            let dfg = satmapit_kernels::by_name(f[1]).expect("suite kernel").dfg;
            let cgra = Cgra::square(side);
            let p = crate::MorphMapper::new(&dfg, &cgra).prepare().unwrap();
            for rung in mii..=ii {
                let kms = Kms::build_with_slack(&p.ms, rung, p.config.slack.slack(rung));
                let mut own = Search::new(&p, &kms, rung, &limits);
                own.dirty = (0..own.num_nodes).collect();
                let alive = own.propagate();
                match filter::filter(&dfg, &cgra, &kms) {
                    Err(_) => {
                        assert!(!alive, "{row} II={rung}: only the filter wipes out");
                        wipeouts += 1;
                    }
                    Ok(domains) => {
                        assert!(alive, "{row} II={rung}: only the search wipes out");
                        let mut seeded = Search::new(&p, &kms, rung, &limits);
                        seeded.seed(&kms, &domains);
                        assert_eq!(own.active, seeded.active, "{row} II={rung}");
                        assert_eq!(own.active_count, seeded.active_count, "{row} II={rung}");
                    }
                }
            }
        }
        assert!(
            wipeouts >= 20,
            "only {wipeouts} root wipe-outs on the suite"
        );
    }

    #[test]
    fn relaxation_feasible_for_a_chain() {
        let dfg = chain(4);
        assert!(!pe_relaxation_infeasible(&dfg, &Cgra::square(2), 100_000));
    }
}

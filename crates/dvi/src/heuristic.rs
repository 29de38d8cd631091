//! The fast TPL-aware DVI heuristic (paper Algorithm 3).
//!
//! Candidates are drawn from a priority queue ordered by the *DVI
//! penalty*
//!
//! ```text
//! DP(DVIC_j of via_i) = δ·|feasible DVICs of via_i|
//!                     + λ·|conflicting DVICs of DVIC_j|
//!                     + μ·|DVICs killed by inserting DVIC_j|
//! ```
//!
//! (smaller is better: protect constrained vias first, prefer
//! insertions that conflict with and kill few other options). Entries
//! are updated lazily: a popped entry whose stored penalty is stale is
//! re-pushed with its current value; a popped entry that is no longer
//! valid — its via already protected, a conflicting candidate already
//! inserted, or insertion would create an FVP — is discarded.
//!
//! After insertion, redundant vias are TPL-colored first-fit, in
//! insertion order, against the Welsh–Powell pre-coloring of the
//! existing vias; any uncolorable redundant via is un-inserted, so via
//! layers stay TPL decomposable.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use sadp_grid::{DenseGrid, GridPoint};
use sadp_trace::{Phase, RouteObserver};
use tpl_decomp::{conflict_offsets, welsh_powell, DecompGraph, FvpIndex};

use crate::candidates::{DviProblem, LocIndex};
use crate::report::DviOutcome;

/// Weights of the DVI-penalty terms (paper Table II: δ = λ = μ = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DviParams {
    /// Weight of the via's feasible-DVIC count.
    pub delta: i64,
    /// Weight of the candidate's conflicting-DVIC count.
    pub lambda: i64,
    /// Weight of the candidate's killed-DVIC count.
    pub mu: i64,
}

impl Default for DviParams {
    fn default() -> Self {
        DviParams {
            delta: 1,
            lambda: 1,
            mu: 1,
        }
    }
}

struct HeurState<'p> {
    problem: &'p DviProblem,
    params: DviParams,
    /// Indexed by via layer: incremental FVP index over existing +
    /// inserted vias.
    fvp: Vec<FvpIndex>,
    conflict_adj: Vec<Vec<u32>>,
    inserted: Vec<bool>,
    protected: Vec<bool>,
    /// Candidate indices by (via_layer, x, y) of their location.
    cand_by_loc: LocIndex,
    /// Reused buffer of [`HeurState::killed_count`].
    nearby: Vec<u32>,
}

impl<'p> HeurState<'p> {
    fn new(problem: &'p DviProblem, params: DviParams) -> HeurState<'p> {
        let w = problem.grid_width().max(3);
        let h = problem.grid_height().max(3);
        // Per-via-layer FVP index construction fans out on the
        // execution pool (one independent index per layer).
        let layers: Vec<u8> = (0..problem.via_layer_bound()).collect();
        let fvp = sadp_exec::map(&layers, |&layer| {
            let mut idx = FvpIndex::new(w, h);
            for (x, y) in problem.existing_on_layer(layer) {
                idx.add_via(x, y);
            }
            idx
        });
        let mut conflict_adj = vec![Vec::new(); problem.candidates().len()];
        for &(a, b) in problem.conflicts() {
            conflict_adj[a as usize].push(b);
            conflict_adj[b as usize].push(a);
        }
        let cand_by_loc = problem.candidate_loc_index();
        HeurState {
            problem,
            params,
            fvp,
            conflict_adj,
            inserted: vec![false; problem.candidates().len()],
            protected: vec![false; problem.via_count()],
            cand_by_loc,
            nearby: Vec::new(),
        }
    }

    /// The validity triple-check of Algorithm 3.
    fn is_valid(&self, c: u32) -> bool {
        let cand = &self.problem.candidates()[c as usize];
        if self.protected[cand.via_idx as usize] {
            return false;
        }
        if self.conflict_adj[c as usize]
            .iter()
            .any(|&o| self.inserted[o as usize])
        {
            return false;
        }
        !self.fvp[cand.via_layer as usize].would_create_fvp(cand.loc.0, cand.loc.1)
    }

    fn feasible_count(&self, via_idx: u32) -> i64 {
        self.problem.vias()[via_idx as usize]
            .candidates
            .iter()
            .filter(|&&c| self.is_valid(c))
            .count() as i64
    }

    fn conflicting_count(&self, c: u32) -> i64 {
        self.conflict_adj[c as usize]
            .iter()
            .filter(|&&o| {
                let ov = self.problem.candidates()[o as usize].via_idx;
                !self.protected[ov as usize] && self.is_valid(o)
            })
            .count() as i64
    }

    /// How many currently-valid candidates of *other* vias would be
    /// FVP-killed by inserting `c`.
    fn killed_count(&mut self, c: u32) -> i64 {
        let cand = &self.problem.candidates()[c as usize];
        let (layer, (cx, cy)) = (cand.via_layer, cand.loc);
        let via_idx = cand.via_idx;
        // Collect nearby candidates that are currently valid.
        let mut nearby = std::mem::take(&mut self.nearby);
        nearby.clear();
        for dx in -2..=2 {
            for dy in -2..=2 {
                for o in self.cand_by_loc.at(layer, cx + dx, cy + dy) {
                    if o != c
                        && self.problem.candidates()[o as usize].via_idx != via_idx
                        && self.is_valid(o)
                    {
                        nearby.push(o);
                    }
                }
            }
        }
        // Simulate the insertion.
        let idx = &mut self.fvp[layer as usize];
        idx.add_via(cx, cy);
        let killed = nearby
            .iter()
            .filter(|&&o| {
                let oc = &self.problem.candidates()[o as usize];
                idx.would_create_fvp(oc.loc.0, oc.loc.1)
            })
            .count() as i64;
        idx.remove_via(cx, cy);
        self.nearby = nearby;
        killed
    }

    fn penalty(&mut self, c: u32) -> i64 {
        let via_idx = self.problem.candidates()[c as usize].via_idx;
        self.params.delta * self.feasible_count(via_idx)
            + self.params.lambda * self.conflicting_count(c)
            + self.params.mu * self.killed_count(c)
    }

    fn insert(&mut self, c: u32) {
        let cand = &self.problem.candidates()[c as usize];
        self.inserted[c as usize] = true;
        self.protected[cand.via_idx as usize] = true;
        self.fvp[cand.via_layer as usize].add_via(cand.loc.0, cand.loc.1);
    }

    fn uninsert(&mut self, c: u32) {
        let cand = &self.problem.candidates()[c as usize];
        self.inserted[c as usize] = false;
        self.fvp[cand.via_layer as usize].remove_via(cand.loc.0, cand.loc.1);
    }
}

/// Pre-colors the existing vias per via layer with Welsh–Powell.
/// Layers are independent decomposition graphs, so the coloring fans
/// out per layer and merges in layer order (deterministic for any
/// thread count).
fn precolor(problem: &DviProblem) -> (Vec<Option<u8>>, usize) {
    let layers = problem.via_layers();
    let per_layer: Vec<(Vec<usize>, Vec<Option<u8>>)> = sadp_exec::map(&layers, |&layer| {
        let idxs: Vec<usize> = problem
            .vias()
            .iter()
            .enumerate()
            .filter(|(_, pv)| pv.via.below == layer)
            .map(|(i, _)| i)
            .collect();
        let pos = |i: usize| (problem.vias()[i].via.x, problem.vias()[i].via.y);
        let graph = DecompGraph::from_positions(idxs.iter().map(|&i| pos(i)));
        let colors = welsh_powell(&graph, 3).colors;
        // The graph collapses co-located vias (a shorted solution) into
        // one vertex: each via takes the color of its position's vertex.
        let vertex: HashMap<(i32, i32), usize> =
            (0..graph.len()).map(|v| (graph.position(v), v)).collect();
        let via_colors = idxs.iter().map(|&i| colors[vertex[&pos(i)]]).collect();
        (idxs, via_colors)
    });
    let mut colors: Vec<Option<u8>> = vec![None; problem.via_count()];
    let mut uncolorable = 0usize;
    for (idxs, layer_colors) in per_layer {
        for (&i, color) in idxs.iter().zip(layer_colors) {
            colors[i] = color;
            uncolorable += usize::from(color.is_none());
        }
    }
    (colors, uncolorable)
}

/// Runs Algorithm 3 on a DVI problem.
///
/// Cost by stage, for `V` single vias, `C` candidates, `I` inserted
/// redundant vias and a grid of `A` cells per via layer:
///
/// * pre-coloring: `O(V log V)` (position-hashed decomposition graph,
///   Welsh–Powell degree order);
/// * set-up: `O(A)` per via layer to allocate the dense FVP and
///   by-location grids, then `O(V + C)` to fill them;
/// * penalties: `O(1)` each — a candidate's via (≤ 4 candidates), its
///   conflict list and its 5×5 FVP reach — so `O(C)` to seed the heap;
/// * greedy: `O(P log C)` for `P` heap pops. A pop re-pushes its
///   candidate only when the penalty changed since the push, and only
///   insertions in the candidate's constant neighbourhood change it,
///   so `P` is `C` times a local constant;
/// * final coloring: `O(A)` per via layer for the color-mask grid,
///   then `O(V + I)` — each redundant via reads its 20 conflict cells
///   and takes the first free color.
///
/// ```
/// use sadp_grid::{Axis, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid,
///                 RoutingSolution, SadpKind, Via, WireEdge};
/// use dvi::{solve_heuristic, DviParams, DviProblem};
///
/// let mut nl = Netlist::new();
/// nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(8, 4)]));
/// let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
/// sol.set_route(NetId(0), RoutedNet::new(
///     (4..8).map(|x| WireEdge::new(1, x, 4, Axis::Horizontal)).collect(),
///     vec![Via::new(0, 4, 4), Via::new(0, 8, 4)],
/// ));
/// let p = DviProblem::build(SadpKind::Sim, &sol);
/// let out = solve_heuristic(&p, &DviParams::default());
/// assert_eq!(out.dead_via_count, 0);
/// ```
pub fn solve_heuristic(problem: &DviProblem, params: &DviParams) -> DviOutcome {
    solve_with::<Local>(problem, params, 0)
}

/// [`solve_heuristic`] wrapped in a [`sadp_trace::Phase::Dvi`] span,
/// reporting dead-via / uncolorable / inserted counts to `obs`.
pub fn solve_heuristic_observed(
    problem: &DviProblem,
    params: &DviParams,
    obs: &mut impl RouteObserver,
) -> DviOutcome {
    observe_dvi(obs, || solve_with::<Local>(problem, params, 0))
}

/// Algorithm 3 followed by up to `swap_passes` rounds of 1-swap local
/// improvement — **our extension beyond the paper**: for every via
/// left dead, if one of its candidates is blocked by exactly one
/// inserted redundant via, try moving that insertion to another valid
/// candidate of its own via; on success both vias end up protected.
///
/// Keeps all invariants of the base heuristic (one redundant via per
/// single via, conflict-free, FVP-free, final coloring with un-insert
/// of uncolorable vias) and narrows the gap to the exact ILP at a
/// small extra cost: each pass is `O(V + C)`, every blocker lookup
/// reading a constant neighbourhood.
pub fn solve_heuristic_improved(problem: &DviProblem, params: &DviParams) -> DviOutcome {
    solve_with::<Local>(problem, params, 3)
}

/// [`solve_heuristic_improved`] wrapped in a
/// [`sadp_trace::Phase::Dvi`] span.
pub fn solve_heuristic_improved_observed(
    problem: &DviProblem,
    params: &DviParams,
    obs: &mut impl RouteObserver,
) -> DviOutcome {
    observe_dvi(obs, || solve_with::<Local>(problem, params, 3))
}

/// Runs a DVI solver body inside a [`Phase::Dvi`] span and emits the
/// outcome counters (shared by every `*_observed` entry point).
pub(crate) fn observe_dvi(
    obs: &mut impl RouteObserver,
    body: impl FnOnce() -> DviOutcome,
) -> DviOutcome {
    obs.phase_start(Phase::Dvi);
    let outcome = body();
    outcome.emit_counters(obs);
    obs.phase_end(Phase::Dvi);
    outcome
}

/// The two stages whose scans are bounded by the conflict radius: the
/// FVP-blocker lookup of the 1-swap pass and the final coloring. The
/// production form is [`Local`]; the tests keep the original
/// whole-problem scans as a differential oracle.
trait Stages {
    /// The inserted candidates that may FVP-block candidate `c`: those
    /// within the 5×5 classification-window reach of its location, in
    /// ascending order, at most six.
    fn fvp_blockers(state: &HeurState<'_>, c: u32) -> Vec<u32>;

    /// Colors `insertion_order` first-fit against the fixed
    /// pre-coloring `via_colors`, un-inserting uncolorable ones;
    /// returns the kept insertions and their colors.
    fn color(
        state: &mut HeurState<'_>,
        via_colors: &[Option<u8>],
        insertion_order: &[u32],
    ) -> (Vec<u32>, Vec<u8>);
}

/// By-location lookups: each query touches a constant neighbourhood.
struct Local;

impl Stages for Local {
    fn fvp_blockers(state: &HeurState<'_>, c: u32) -> Vec<u32> {
        let cand = &state.problem.candidates()[c as usize];
        let (layer, (cx, cy)) = (cand.via_layer, cand.loc);
        let mut near = Vec::new();
        for dx in -2..=2 {
            for dy in -2..=2 {
                near.extend(
                    state
                        .cand_by_loc
                        .at(layer, cx + dx, cy + dy)
                        .filter(|&o| state.inserted[o as usize]),
                );
            }
        }
        // Ascending ids: the order decides which 1-swap is tried first.
        near.sort_unstable();
        near.truncate(6);
        near
    }

    fn color(
        state: &mut HeurState<'_>,
        via_colors: &[Option<u8>],
        insertion_order: &[u32],
    ) -> (Vec<u32>, Vec<u8>) {
        let problem = state.problem;
        // Per (via_layer, x, y): bit k set when color k is used there.
        let mut used: DenseGrid<u8> = DenseGrid::new(
            problem.via_layer_bound(),
            problem.grid_width().max(1),
            problem.grid_height().max(1),
            0,
        );
        for (pv, color) in problem.vias().iter().zip(via_colors) {
            let cell = used.get_mut(GridPoint::new(pv.via.below, pv.via.x, pv.via.y));
            if let (Some(cell), Some(col)) = (cell, color) {
                *cell |= 1 << col;
            }
        }
        let mut kept = Vec::new();
        let mut colors = Vec::new();
        for &c in insertion_order {
            let cand = &problem.candidates()[c as usize];
            let (layer, (x, y)) = (cand.via_layer, cand.loc);
            let taken = conflict_offsets()
                .filter_map(|(dx, dy)| used.get(GridPoint::new(layer, x + dx, y + dy)))
                .fold(0u8, |acc, &m| acc | m);
            match (0..3u8).find(|&k| taken & (1 << k) == 0) {
                Some(col) => {
                    if let Some(cell) = used.get_mut(GridPoint::new(layer, x, y)) {
                        *cell |= 1 << col;
                    }
                    kept.push(c);
                    colors.push(col);
                }
                None => state.uninsert(c),
            }
        }
        (kept, colors)
    }
}

fn solve_with<S: Stages>(
    problem: &DviProblem,
    params: &DviParams,
    swap_passes: usize,
) -> DviOutcome {
    let start = Instant::now();
    let (via_colors, uncolorable) = precolor(problem);
    let (mut state, mut insertion_order) = greedy(problem, params);

    for _ in 0..swap_passes {
        if !one_swap_pass::<S>(problem, &mut state, &mut insertion_order) {
            break;
        }
    }

    // TPL coloring of the inserted redundant vias against the fixed
    // pre-coloring; uncolorable ones are un-inserted.
    let (inserted, inserted_colors) = S::color(&mut state, &via_colors, &insertion_order);

    DviOutcome {
        dead_via_count: problem.via_count() - inserted.len(),
        inserted,
        via_colors,
        inserted_colors,
        uncolorable_count: uncolorable,
        runtime: start.elapsed(),
    }
}

/// Algorithm 3's lazy priority-queue insertion; returns the state and
/// the candidates inserted, in order.
fn greedy<'p>(problem: &'p DviProblem, params: &DviParams) -> (HeurState<'p>, Vec<u32>) {
    let mut state = HeurState::new(problem, *params);
    let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
    for c in 0..problem.candidates().len() as u32 {
        let dp = state.penalty(c);
        heap.push(Reverse((dp, c)));
    }
    let mut insertion_order: Vec<u32> = Vec::new();
    while let Some(Reverse((dp, c))) = heap.pop() {
        if !state.is_valid(c) {
            continue;
        }
        let now = state.penalty(c);
        if now != dp {
            heap.push(Reverse((now, c)));
            continue;
        }
        state.insert(c);
        insertion_order.push(c);
    }
    (state, insertion_order)
}

/// One pass of 1-swap improvement; returns `true` when at least one
/// additional via was protected.
///
/// For every dead via and each of its candidates `c`, the pass
/// collects the inserted redundant vias preventing `c` — either the
/// single conflicting insertion, or (when `c` is only FVP-blocked)
/// the nearby insertions inside the offending windows — and tries to
/// re-home one of them onto another valid candidate of its own via so
/// that `c` becomes insertable. Success protects one more via; any
/// failed attempt is fully reverted.
fn one_swap_pass<S: Stages>(
    problem: &DviProblem,
    state: &mut HeurState<'_>,
    insertion_order: &mut Vec<u32>,
) -> bool {
    // Position of each inserted candidate in `insertion_order` (every
    // inserted candidate is there).
    let mut slot = vec![0usize; problem.candidates().len()];
    for (pos, &c) in insertion_order.iter().enumerate() {
        slot[c as usize] = pos;
    }
    let mut improved = false;
    for (v, pv) in problem.vias().iter().enumerate() {
        if state.protected[v] {
            continue;
        }
        'candidates: for &c in &pv.candidates {
            let conflict_blockers: Vec<u32> = state.conflict_adj[c as usize]
                .iter()
                .copied()
                .filter(|&o| state.inserted[o as usize])
                .collect();
            let removal_candidates: Vec<u32> = match conflict_blockers.len() {
                1 => conflict_blockers,
                // FVP-blocked: inserted redundant vias within the
                // classification window reach of the location.
                0 => S::fvp_blockers(state, c),
                _ => continue, // multiple conflicts: a 1-swap cannot help
            };
            for b in removal_candidates {
                let b_via = problem.candidates()[b as usize].via_idx;
                state.uninsert(b);
                state.protected[b_via as usize] = false;
                if !state.is_valid(c) {
                    state.insert(b);
                    continue;
                }
                state.insert(c);
                // Re-home the removed insertion on another candidate.
                let alt = problem.vias()[b_via as usize]
                    .candidates
                    .iter()
                    .copied()
                    .find(|&a| a != b && state.is_valid(a));
                match alt {
                    Some(a) => {
                        state.insert(a);
                        let pos = slot[b as usize];
                        insertion_order[pos] = a;
                        slot[a as usize] = pos;
                        slot[c as usize] = insertion_order.len();
                        insertion_order.push(c);
                        improved = true;
                        break 'candidates;
                    }
                    None => {
                        state.uninsert(c);
                        state.protected[v] = false;
                        state.insert(b);
                    }
                }
            }
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{solve_ilp, IlpOptions};
    use sadp_grid::{
        Axis, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid, RoutingSolution, SadpKind, Via,
        WireEdge,
    };
    use tpl_decomp::vias_conflict;

    /// The differential oracle: the original whole-problem scans —
    /// every candidate per FVP-blocked candidate, every via and every
    /// colored insertion per inserted candidate.
    struct Quadratic;

    impl Stages for Quadratic {
        fn fvp_blockers(state: &HeurState<'_>, c: u32) -> Vec<u32> {
            let cand = &state.problem.candidates()[c as usize];
            let mut near = Vec::new();
            for (i, other) in state.problem.candidates().iter().enumerate() {
                if state.inserted[i]
                    && other.via_layer == cand.via_layer
                    && (other.loc.0 - cand.loc.0).abs() <= 2
                    && (other.loc.1 - cand.loc.1).abs() <= 2
                {
                    near.push(i as u32);
                }
            }
            near.truncate(6);
            near
        }

        fn color(
            state: &mut HeurState<'_>,
            via_colors: &[Option<u8>],
            insertion_order: &[u32],
        ) -> (Vec<u32>, Vec<u8>) {
            let problem = state.problem;
            let mut kept = Vec::new();
            let mut colors = Vec::new();
            let mut colored_positions: Vec<(u8, i32, i32, u8)> = Vec::new();
            for &c in insertion_order {
                let cand = &problem.candidates()[c as usize];
                let mut used = [false; 3];
                for (i, pv) in problem.vias().iter().enumerate() {
                    if pv.via.below == cand.via_layer
                        && vias_conflict(pv.via.x - cand.loc.0, pv.via.y - cand.loc.1)
                    {
                        if let Some(col) = via_colors[i] {
                            used[col as usize] = true;
                        }
                    }
                }
                for &(layer, x, y, col) in &colored_positions {
                    if layer == cand.via_layer && vias_conflict(x - cand.loc.0, y - cand.loc.1) {
                        used[col as usize] = true;
                    }
                }
                match (0..3u8).find(|&k| !used[k as usize]) {
                    Some(col) => {
                        kept.push(c);
                        colors.push(col);
                        colored_positions.push((cand.via_layer, cand.loc.0, cand.loc.1, col));
                    }
                    None => state.uninsert(c),
                }
            }
            (kept, colors)
        }
    }

    /// Runs the local solver and the quadratic oracle, base and
    /// improved, and requires identical outcomes; also compares the
    /// FVP-blocker lists of every candidate after the greedy stage
    /// (their order decides which 1-swap is tried first).
    fn assert_matches_oracle(p: &DviProblem, what: &str) {
        let params = DviParams::default();
        let (state, _) = greedy(p, &params);
        for c in 0..p.candidates().len() as u32 {
            assert_eq!(
                Local::fvp_blockers(&state, c),
                Quadratic::fvp_blockers(&state, c),
                "{what}: FVP blockers of candidate {c}"
            );
        }
        for passes in [0, 3] {
            let local = solve_with::<Local>(p, &params, passes);
            let oracle = solve_with::<Quadratic>(p, &params, passes);
            assert_eq!(
                local.inserted, oracle.inserted,
                "{what}, {passes} swap passes"
            );
            assert_eq!(local.inserted_colors, oracle.inserted_colors, "{what}");
            assert_eq!(local.via_colors, oracle.via_colors, "{what}");
            assert_eq!(local.dead_via_count, oracle.dead_via_count, "{what}");
        }
    }

    #[test]
    fn local_stages_match_the_quadratic_oracle_on_chains() {
        for (n, spacing) in [(3, 8), (4, 2), (5, 2), (6, 2), (6, 3)] {
            let p = DviProblem::build(SadpKind::Sim, &chain_solution(n, spacing));
            assert_matches_oracle(&p, &format!("chain {n}x{spacing}"));
        }
    }

    #[test]
    fn local_stages_match_the_quadratic_oracle_on_routed_circuits() {
        for name in ["ecc", "alu"] {
            let spec = benchgen::BenchSpec::by_name(name)
                .expect("a paper-suite circuit")
                .scaled(0.25);
            for kind in [SadpKind::Sim, SadpKind::Sid] {
                let out = sadp_router::Router::new(
                    spec.grid(),
                    spec.generate(1),
                    sadp_router::RouterConfig::full(kind),
                )
                .try_run(&mut sadp_trace::NoopObserver)
                .expect("benchgen circuits route");
                let p = DviProblem::build(kind, &out.solution);
                assert!(p.via_count() > 0 && !p.candidates().is_empty());
                assert_matches_oracle(&p, &format!("{name}-0.25 {kind:?}"));
            }
        }
    }

    /// Two nets with a via each at one position (a shorted solution):
    /// the decomposition graph collapses them into one vertex, and
    /// both vias take that vertex's color.
    #[test]
    fn precolor_handles_co_located_vias() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(8, 4)]));
        nl.push(Net::new("b", vec![Pin::new(4, 4), Pin::new(4, 8)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
        sol.set_route(
            NetId(0),
            RoutedNet::new(Vec::new(), vec![Via::new(0, 4, 4)]),
        );
        sol.set_route(
            NetId(1),
            RoutedNet::new(Vec::new(), vec![Via::new(0, 4, 4), Via::new(0, 6, 4)]),
        );
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let at = |x: i32, y: i32| -> Vec<usize> {
            (0..p.via_count())
                .filter(|&i| (p.vias()[i].via.x, p.vias()[i].via.y) == (x, y))
                .collect()
        };
        let co_located = at(4, 4);
        assert_eq!(co_located.len(), 2);
        let (colors, uncolorable) = precolor(&p);
        assert_eq!(uncolorable, 0);
        assert!(colors[co_located[0]].is_some());
        assert_eq!(colors[co_located[0]], colors[co_located[1]]);
        assert_ne!(colors[co_located[0]], colors[at(6, 4)[0]]);
        let out = solve_heuristic(&p, &DviParams::default());
        assert_eq!(out.via_colors, colors);
    }

    fn chain_solution(n: i32, spacing: i32) -> RoutingSolution {
        let mut nl = Netlist::new();
        for k in 0..n {
            nl.push(Net::new(
                format!("n{k}"),
                vec![Pin::new(4, 4 + k * spacing), Pin::new(9, 4 + k * spacing)],
            ));
        }
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(20, 64), &nl);
        for k in 0..n {
            let y = 4 + k * spacing;
            let edges = (4..9)
                .map(|x| WireEdge::new(1, x, y, Axis::Horizontal))
                .collect();
            sol.set_route(
                NetId(k as u32),
                RoutedNet::new(edges, vec![Via::new(0, 4, y), Via::new(0, 9, y)]),
            );
        }
        sol
    }

    #[test]
    fn isolated_vias_all_protected() {
        let sol = chain_solution(3, 8);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        assert_eq!(out.dead_via_count, 0);
        assert_eq!(out.inserted_count(), p.via_count());
        assert_eq!(out.uncolorable_count, 0);
    }

    #[test]
    fn no_fvp_after_insertion() {
        let sol = chain_solution(6, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        // Rebuild an FVP index with all final vias.
        for layer in p.via_layers() {
            let mut idx = FvpIndex::new(20, 64);
            for (x, y) in p.existing_on_layer(layer) {
                idx.add_via(x, y);
            }
            for (k, &c) in out.inserted.iter().enumerate() {
                let _ = k;
                let cand = &p.candidates()[c as usize];
                if cand.via_layer == layer {
                    idx.add_via(cand.loc.0, cand.loc.1);
                }
            }
            assert!(idx.fvp_windows().is_empty(), "layer {layer} has FVPs");
        }
    }

    #[test]
    fn respects_one_per_via_and_conflicts() {
        let sol = chain_solution(5, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        let mut per_via = vec![0usize; p.via_count()];
        for &c in &out.inserted {
            per_via[p.candidates()[c as usize].via_idx as usize] += 1;
        }
        assert!(per_via.iter().all(|&k| k <= 1));
        for &(a, b) in p.conflicts() {
            let both = out.inserted.contains(&a) && out.inserted.contains(&b);
            assert!(!both, "conflicting candidates {a} and {b} both inserted");
        }
    }

    #[test]
    fn final_coloring_is_proper() {
        let sol = chain_solution(5, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        let mut all: Vec<((u8, i32, i32), u8)> = Vec::new();
        for (i, pv) in p.vias().iter().enumerate() {
            if let Some(c) = out.via_colors[i] {
                all.push(((pv.via.below, pv.via.x, pv.via.y), c));
            }
        }
        for (k, &ci) in out.inserted.iter().enumerate() {
            let cand = &p.candidates()[ci as usize];
            all.push((
                (cand.via_layer, cand.loc.0, cand.loc.1),
                out.inserted_colors[k],
            ));
        }
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                let ((la, xa, ya), ca) = all[i];
                let ((lb, xb, yb), cb) = all[j];
                if la == lb && vias_conflict(xb - xa, yb - ya) {
                    assert_ne!(ca, cb);
                }
            }
        }
    }

    #[test]
    fn heuristic_close_to_ilp_on_small_instances() {
        let sol = chain_solution(4, 2);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let heur = solve_heuristic(&p, &DviParams::default());
        let (ilp, raw) = solve_ilp(&p, &IlpOptions::default());
        assert!(raw.is_optimal());
        // The ILP is the optimum: the heuristic can only match or do
        // worse, and must be within the paper's ~10% band on these
        // tiny instances (allow slack of 2 vias).
        assert!(heur.dead_via_count >= ilp.dead_via_count);
        assert!(heur.dead_via_count <= ilp.dead_via_count + 2);
    }

    #[test]
    fn constrained_via_wins_shared_location() {
        // Two vias on the same via layer whose only shared candidate
        // location is between them; the via with fewer feasible
        // options must be served first (delta term).
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(4, 6)]));
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(16, 16), &nl);
        sol.set_route(
            NetId(0),
            RoutedNet::new(
                vec![
                    WireEdge::new(2, 4, 4, Axis::Vertical),
                    WireEdge::new(2, 4, 5, Axis::Vertical),
                ],
                vec![
                    Via::new(0, 4, 4),
                    Via::new(1, 4, 4),
                    Via::new(1, 4, 6),
                    Via::new(0, 4, 6),
                ],
            ),
        );
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        // All four vias should still be protectable (plenty of space).
        assert!(out.dead_via_count <= 1);
    }

    #[test]
    fn improved_never_worse_and_keeps_invariants() {
        for spacing in [2, 3] {
            let sol = chain_solution(6, spacing);
            let p = DviProblem::build(SadpKind::Sim, &sol);
            let base = solve_heuristic(&p, &DviParams::default());
            let better = solve_heuristic_improved(&p, &DviParams::default());
            assert!(better.dead_via_count <= base.dead_via_count);
            // Invariants: one per via, conflict-free, FVP-free.
            let mut per_via = vec![0usize; p.via_count()];
            for &c in &better.inserted {
                per_via[p.candidates()[c as usize].via_idx as usize] += 1;
            }
            assert!(per_via.iter().all(|&k| k <= 1));
            for &(a, b) in p.conflicts() {
                assert!(!(better.inserted.contains(&a) && better.inserted.contains(&b)));
            }
            for layer in p.via_layers() {
                let mut idx = FvpIndex::new(20, 64);
                for (x, y) in p.existing_on_layer(layer) {
                    idx.add_via(x, y);
                }
                for &c in &better.inserted {
                    let cand = &p.candidates()[c as usize];
                    if cand.via_layer == layer {
                        idx.add_via(cand.loc.0, cand.loc.1);
                    }
                }
                assert!(idx.fvp_windows().is_empty());
            }
        }
    }

    #[test]
    fn empty_problem() {
        let nl = {
            let mut nl = Netlist::new();
            nl.push(Net::new("a", vec![Pin::new(0, 0), Pin::new(1, 0)]));
            nl
        };
        let sol = RoutingSolution::new(RoutingGrid::three_layer(8, 8), &nl);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let out = solve_heuristic(&p, &DviParams::default());
        assert_eq!(out.inserted_count(), 0);
        assert_eq!(out.dead_via_count, 0);
    }
}

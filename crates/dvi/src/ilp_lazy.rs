//! The exact TPL-aware DVI solver: a lazy-cut ILP.
//!
//! The literal C1–C8 model ([`crate::ilp`]) ties every via of a layer
//! into one giant branch-and-bound component through the color
//! indicator variables, which makes proving optimality hopeless at
//! realistic sizes (the paper's Gurobi runs take 1500–6500 s on
//! circuits of this scale). This solver uses the classic remedy —
//! delayed constraint generation:
//!
//! 1. solve the **insertion relaxation** exactly: variables `D_ij`
//!    only, constraints C1 (one redundant via per single via) and C2
//!    (conflicting candidates) plus all cuts accumulated so far; its
//!    optimum is an upper bound on the full model's, because every
//!    C1–C8-feasible insertion set is feasible here;
//! 2. check the proposed insertion set for TPL feasibility: no FVP in
//!    any 3×3 window and a 3-colorable decomposition graph per via
//!    layer (Welsh–Powell, with exact backtracking on small failing
//!    components);
//! 3. on a violation, add a *no-good cut* — at most `|T| − 1` of the
//!    inserted candidates `T` involved in the violating window or
//!    component — and re-solve.
//!
//! The loop terminates (each cut excludes at least one assignment);
//! on success the result is optimal up to the exactness of the
//! coloring check (components larger than
//! [`EXACT_COLORING_LIMIT`] fall back to Welsh–Powell, which may
//! over-cut — in practice such components do not survive the router's
//! TPL phase). Uncolorable components that contain *no* inserted
//! candidate are pre-existing layout defects: their vias are counted
//! in `#UV` and excluded from further checks, matching the ILP's
//! `uV` semantics.
//!
//! Only a relaxation solution that passed the check is ever decoded.
//! When the loop stops early (deadline, round cap, or an infeasible or
//! unknown relaxation) before one passed, the result is the warm-start
//! heuristic's own outcome, so [`solve_exact`] always returns a legal
//! insertion set; [`LazyStats::proven_optimal`] says whether it is
//! optimal.
//!
//! A solver bug (or an injected fault) must never take the whole
//! routing session down: a panic inside the lazy loop and the
//! `dvi.solver_abort` failpoint degrade to the heuristic (Algorithm 3),
//! and the substitution is recorded on the observer as the
//! `dvi_solver` / `dvi_fallback` notes.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bilp::{Model, Sense, SolveOptions, SolveStatus, VarId};
use sadp_grid::RouteError;
use sadp_trace::{Counter, Phase, RouteObserver};
use tpl_decomp::{exact_color, welsh_powell, DecompGraph, FvpIndex};

use crate::candidates::DviProblem;
use crate::heuristic::{solve_heuristic, DviParams};
use crate::report::DviOutcome;

/// Components up to this size are checked by exact backtracking when
/// the greedy coloring fails.
pub const EXACT_COLORING_LIMIT: usize = 32;

/// Cut-generation rounds before the lazy loop gives up on proving
/// optimality.
const MAX_ROUNDS: usize = 50;

/// Failpoint name: when armed, the exact solver "aborts" and the call
/// degrades to the heuristic.
const FAILPOINT_SOLVER_ABORT: &str = "dvi.solver_abort";

/// Statistics of a lazy-cut solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyStats {
    /// Cut-generation rounds executed.
    pub rounds: usize,
    /// Cuts added in total.
    pub cuts: usize,
    /// `true` when the final relaxation was solved to optimality and
    /// needed no further cuts.
    pub proven_optimal: bool,
    /// Upper bound on the number of insertable redundant vias.
    pub best_bound: i64,
}

/// What [`solve_exact`] produced and how.
#[derive(Debug, Clone)]
pub struct ExactRun {
    /// The DVI outcome: always a legal insertion set.
    pub outcome: DviOutcome,
    /// Statistics of the lazy loop (all zero after a fallback).
    pub stats: LazyStats,
    /// Why the heuristic produced `outcome` instead of the lazy ILP
    /// (a contained panic or the `dvi.solver_abort` failpoint).
    pub fallback_reason: Option<String>,
}

/// Solves TPL-aware DVI exactly by the lazy-cut decomposition, within
/// `time_limit` when one is given.
///
/// Runs inside a [`Phase::Dvi`] observer span: the observer receives
/// the outcome counters, the cut-round count as
/// [`Counter::Iterations`], the producing solver as the `dvi_solver`
/// note (`"ilp_lazy"` or `"heuristic"`) and, on degradation, the cause
/// as the `dvi_fallback` note. A deadline or round-cap stop does not
/// degrade: the result is legal and `stats.proven_optimal` is `false`.
///
/// # Errors
///
/// [`RouteError::Solver`] only when the heuristic fallback itself
/// panics — there is no further fallback.
pub fn solve_exact(
    problem: &DviProblem,
    time_limit: Option<Duration>,
    obs: &mut impl RouteObserver,
) -> Result<ExactRun, RouteError> {
    obs.phase_start(Phase::Dvi);
    let result = match run_lazy_contained(problem, time_limit) {
        Ok((outcome, stats)) => Ok(ExactRun {
            outcome,
            stats,
            fallback_reason: None,
        }),
        Err(reason) => catch_unwind(AssertUnwindSafe(|| {
            solve_heuristic(problem, &DviParams::default())
        }))
        .map(|outcome| ExactRun {
            outcome,
            stats: LazyStats::default(),
            fallback_reason: Some(reason),
        })
        .map_err(|p| RouteError::Solver {
            solver: "heuristic".to_string(),
            reason: format!("fallback heuristic panicked: {}", panic_text(p.as_ref())),
        }),
    };
    if let Ok(run) = &result {
        match &run.fallback_reason {
            None => obs.note("dvi_solver", "ilp_lazy"),
            Some(reason) => {
                obs.note("dvi_solver", "heuristic");
                obs.note("dvi_fallback", reason);
            }
        }
        run.outcome.emit_counters(obs);
        obs.counter(Phase::Dvi, Counter::Iterations, run.stats.rounds as i64);
    }
    obs.phase_end(Phase::Dvi);
    result
}

/// The lazy loop behind the failpoint and a panic guard: `Err` is the
/// human-readable reason the heuristic must take over.
fn run_lazy_contained(
    problem: &DviProblem,
    time_limit: Option<Duration>,
) -> Result<(DviOutcome, LazyStats), String> {
    if faultinject::should_fail(FAILPOINT_SOLVER_ABORT) {
        return Err(format!("fault injected: {FAILPOINT_SOLVER_ABORT}"));
    }
    catch_unwind(AssertUnwindSafe(|| {
        solve_lazy(problem, time_limit, MAX_ROUNDS)
    }))
    .map_err(|p| format!("lazy ilp solver panicked: {}", panic_text(p.as_ref())))
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The lazy-cut loop: at most `max_rounds` relaxation solves.
fn solve_lazy(
    problem: &DviProblem,
    time_limit: Option<Duration>,
    max_rounds: usize,
) -> (DviOutcome, LazyStats) {
    let start = Instant::now();
    let deadline = time_limit.map(|d| start + d);

    // Base model: D variables, C1, C2.
    let mut model = Model::maximize();
    let d_vars: Vec<VarId> = problem
        .candidates()
        .iter()
        .map(|_| model.add_var())
        .collect();
    for &v in &d_vars {
        model.set_objective_coeff(v, 1);
    }
    for pv in problem.vias() {
        if pv.candidates.len() > 1 {
            model.add_constraint(
                pv.candidates.iter().map(|&c| (d_vars[c as usize], 1)),
                Sense::Le,
                1,
            );
        }
    }
    for &(a, b) in problem.conflicts() {
        model.add_constraint(
            [(d_vars[a as usize], 1), (d_vars[b as usize], 1)],
            Sense::Le,
            1,
        );
    }

    // Warm start from the heuristic in every round (the solver ignores
    // a warm start that later cuts made infeasible).
    let heur = solve_heuristic(problem, &DviParams::default());
    let mut warm = vec![false; d_vars.len()];
    for &c in &heur.inserted {
        warm[c as usize] = true;
    }

    // Vias in pre-existing uncolorable components (counted as #UV and
    // excluded from coloring checks).
    let mut dead_existing: HashSet<usize> = HashSet::new();
    let mut stats = LazyStats::default();
    // The first relaxation solution that passed the TPL check.
    let mut accepted: Option<Vec<u32>> = None;

    for round in 0..max_rounds {
        let remaining = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
        if matches!(remaining, Some(d) if d.is_zero()) {
            break;
        }
        let sol = model.solve(&SolveOptions {
            time_limit: remaining,
            warm_start: Some(warm.clone()),
        });
        if sol.status == SolveStatus::Infeasible || sol.status == SolveStatus::Unknown {
            break;
        }
        // A round counts once its relaxation is solved.
        stats.rounds = round + 1;
        stats.best_bound = sol.best_bound;
        let inserted: Vec<u32> = (0..d_vars.len() as u32)
            .filter(|&c| sol.values[c as usize])
            .collect();

        let violations = find_violations(problem, &inserted, &mut dead_existing);
        if violations.is_empty() {
            stats.proven_optimal = sol.is_optimal();
            accepted = Some(inserted);
            break;
        }
        for cut in violations {
            stats.cuts += 1;
            let k = cut.len() as i64;
            model.add_constraint(
                cut.iter().map(|&c| (d_vars[c as usize], 1)),
                Sense::Le,
                k - 1,
            );
        }
    }

    let outcome = match accepted {
        Some(inserted) => decode(problem, &inserted, &dead_existing, start),
        // No checked solution: the heuristic's outcome is legal as it
        // stands (re-decoding its insertions could fail to color where
        // its own coloring succeeded).
        None => DviOutcome {
            runtime: start.elapsed(),
            ..heur
        },
    };
    (outcome, stats)
}

/// Checks an insertion set; returns no-good cuts (sets of inserted
/// candidate indices that must not all be chosen together). Existing
/// vias in uncolorable insertion-free components are added to
/// `dead_existing`.
fn find_violations(
    problem: &DviProblem,
    inserted: &[u32],
    dead_existing: &mut HashSet<usize>,
) -> Vec<Vec<u32>> {
    let mut cuts: Vec<Vec<u32>> = Vec::new();
    let w = problem.grid_width().max(3);
    let h = problem.grid_height().max(3);
    for layer in problem.via_layers() {
        // Existing via index (for exclusion bookkeeping).
        let existing: Vec<(usize, (i32, i32))> = problem
            .vias()
            .iter()
            .enumerate()
            .filter(|(i, pv)| pv.via.below == layer && !dead_existing.contains(i))
            .map(|(i, pv)| (i, (pv.via.x, pv.via.y)))
            .collect();
        let ins: Vec<(u32, (i32, i32))> = inserted
            .iter()
            .copied()
            .filter(|&c| problem.candidates()[c as usize].via_layer == layer)
            .map(|c| (c, problem.candidates()[c as usize].loc))
            .collect();

        // FVP windows.
        let mut idx = FvpIndex::new(w, h);
        for &(_, p) in &existing {
            idx.add_via(p.0, p.1);
        }
        for &(_, p) in &ins {
            idx.add_via(p.0, p.1);
        }
        for (ox, oy) in idx.fvp_windows() {
            let members: Vec<u32> = ins
                .iter()
                .filter(|(_, (x, y))| (ox..ox + 3).contains(x) && (oy..oy + 3).contains(y))
                .map(|&(c, _)| c)
                .collect();
            if !members.is_empty() {
                cuts.push(members);
            }
            // An FVP among existing vias alone cannot be cut; it will
            // surface as an uncolorable component below.
        }
        if !cuts.is_empty() {
            continue; // fix FVPs first; coloring may change anyway
        }

        // Coloring check on the combined graph.
        let positions: Vec<(i32, i32)> = existing
            .iter()
            .map(|&(_, p)| p)
            .chain(ins.iter().map(|&(_, p)| p))
            .collect();
        let graph = DecompGraph::from_positions(positions.iter().copied());
        let greedy = welsh_powell(&graph, 3);
        if greedy.is_complete() {
            continue;
        }
        let uncol: HashSet<u32> = greedy.uncolorable.iter().copied().collect();
        for comp in graph.components() {
            if !comp.iter().any(|v| uncol.contains(v)) {
                continue;
            }
            if comp.len() <= EXACT_COLORING_LIMIT {
                let sub =
                    DecompGraph::from_positions(comp.iter().map(|&v| graph.position(v as usize)));
                if exact_color(&sub, 3).is_some() {
                    continue; // greedy artifact, actually colorable
                }
            }
            // Truly (or assumed) uncolorable component.
            let members: Vec<u32> = comp
                .iter()
                .filter(|&&v| (v as usize) >= existing.len())
                .map(|&v| ins[v as usize - existing.len()].0)
                .collect();
            if members.is_empty() {
                // Pre-existing defect: count the component's vias as
                // uncolorable and stop checking them.
                for &v in &comp {
                    dead_existing.insert(existing[v as usize].0);
                }
            } else {
                cuts.push(members);
            }
        }
    }
    cuts
}

/// Builds the final outcome: colors all surviving vias layer by layer.
fn decode(
    problem: &DviProblem,
    inserted: &[u32],
    dead_existing: &HashSet<usize>,
    start: Instant,
) -> DviOutcome {
    let mut via_colors: Vec<Option<u8>> = vec![None; problem.via_count()];
    let mut inserted_colors: Vec<u8> = vec![0; inserted.len()];
    for layer in problem.via_layers() {
        let existing: Vec<usize> = problem
            .vias()
            .iter()
            .enumerate()
            .filter(|(i, pv)| pv.via.below == layer && !dead_existing.contains(i))
            .map(|(i, _)| i)
            .collect();
        let ins: Vec<usize> = inserted
            .iter()
            .enumerate()
            .filter(|(_, &c)| problem.candidates()[c as usize].via_layer == layer)
            .map(|(k, _)| k)
            .collect();
        let positions: Vec<(i32, i32)> = existing
            .iter()
            .map(|&i| {
                let v = problem.vias()[i].via;
                (v.x, v.y)
            })
            .chain(
                ins.iter()
                    .map(|&k| problem.candidates()[inserted[k] as usize].loc),
            )
            .collect();
        let graph = DecompGraph::from_positions(positions.iter().copied());
        let coloring = match exact_small_or_greedy(&graph) {
            Some(c) => c,
            None => welsh_powell(&graph, 3).colors,
        };
        for (slot, &i) in existing.iter().enumerate() {
            via_colors[i] = coloring.get(slot).copied().flatten();
        }
        for (off, &k) in ins.iter().enumerate() {
            inserted_colors[k] = coloring
                .get(existing.len() + off)
                .copied()
                .flatten()
                .unwrap_or(0);
        }
    }
    DviOutcome {
        dead_via_count: problem.via_count() - inserted.len(),
        inserted: inserted.to_vec(),
        via_colors,
        inserted_colors,
        uncolorable_count: dead_existing.len(),
        runtime: start.elapsed(),
    }
}

/// Exact coloring when all components are small; `None` otherwise.
fn exact_small_or_greedy(graph: &DecompGraph) -> Option<Vec<Option<u8>>> {
    if graph
        .components()
        .iter()
        .all(|c| c.len() <= EXACT_COLORING_LIMIT)
    {
        exact_color(graph, 3).map(|v| v.into_iter().map(Some).collect())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::DviProblem;
    use crate::ilp::{solve_ilp, IlpOptions};
    use sadp_grid::{
        Axis, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid, RoutingSolution, SadpKind, Via,
        WireEdge,
    };
    use sadp_trace::JsonReport;

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

    fn unlimited(p: &DviProblem) -> (DviOutcome, LazyStats) {
        solve_lazy(p, None, MAX_ROUNDS)
    }

    /// No FVP window on any via layer after insertion, and a proper
    /// 3-coloring of the existing and inserted vias together.
    fn assert_legal(p: &DviProblem, out: &DviOutcome, what: &str) {
        for layer in p.via_layers() {
            let mut idx = FvpIndex::new(20, 64);
            for (x, y) in p.existing_on_layer(layer) {
                idx.add_via(x, y);
            }
            for &c in &out.inserted {
                let cand = &p.candidates()[c as usize];
                if cand.via_layer == layer {
                    idx.add_via(cand.loc.0, cand.loc.1);
                }
            }
            let windows = idx.fvp_windows();
            assert!(windows.is_empty(), "{what}: {} FVP windows", windows.len());
        }
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
                if la == lb && tpl_decomp::vias_conflict(xb - xa, yb - ya) {
                    assert_ne!(ca, cb, "{what}: {:?} and {:?}", all[i], all[j]);
                }
            }
        }
    }

    #[test]
    fn lazy_matches_monolithic_on_small_instances() {
        for spacing in [2, 3, 6] {
            let sol = chain_solution(3, spacing);
            let p = DviProblem::build(SadpKind::Sim, &sol);
            let (mono, raw) = solve_ilp(&p, &IlpOptions::default());
            let (lazy, stats) = unlimited(&p);
            assert!(raw.is_optimal());
            assert!(stats.proven_optimal, "spacing {spacing}");
            assert_eq!(
                lazy.inserted_count(),
                mono.inserted_count(),
                "spacing {spacing}"
            );
            assert_eq!(lazy.uncolorable_count, mono.uncolorable_count);
        }
    }

    #[test]
    fn lazy_result_has_no_fvp_and_proper_colors() {
        let p = DviProblem::build(SadpKind::Sim, &chain_solution(6, 2));
        let (out, stats) = unlimited(&p);
        assert!(stats.proven_optimal);
        assert_legal(&p, &out, "unlimited");
    }

    /// A round cap that stops the loop before any relaxation solution
    /// passes the TPL check must not hand that solution out.
    #[test]
    fn round_cap_stop_returns_a_legal_set() {
        for n in [6, 12] {
            let p = DviProblem::build(SadpKind::Sim, &chain_solution(n, 2));
            let (out, stats) = solve_lazy(&p, None, 1);
            assert!(!stats.proven_optimal, "{n} nets");
            assert_legal(&p, &out, &format!("{n} nets, 1 round"));
        }
    }

    #[test]
    fn lazy_never_loses_to_heuristic() {
        for n in [4, 6, 8] {
            let sol = chain_solution(n, 2);
            let p = DviProblem::build(SadpKind::Sim, &sol);
            let heur = solve_heuristic(&p, &DviParams::default());
            let (lazy, _) = unlimited(&p);
            assert!(
                lazy.dead_via_count <= heur.dead_via_count,
                "n={n}: lazy {} vs heur {}",
                lazy.dead_via_count,
                heur.dead_via_count
            );
        }
    }

    #[test]
    fn empty_problem_is_trivial() {
        let mut nl = Netlist::new();
        nl.push(Net::new("a", vec![Pin::new(0, 0), Pin::new(1, 1)]));
        let sol = RoutingSolution::new(RoutingGrid::three_layer(8, 8), &nl);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let (out, stats) = unlimited(&p);
        assert_eq!(out.inserted_count(), 0);
        assert!(stats.proven_optimal);
    }

    #[test]
    fn exact_run_notes_the_lazy_solver() {
        let p = DviProblem::build(SadpKind::Sim, &chain_solution(2, 8));
        let mut report = JsonReport::new("dvi");
        let run = solve_exact(&p, None, &mut report).expect("the lazy ilp runs");
        assert!(run.fallback_reason.is_none());
        assert!(run.stats.proven_optimal);
        assert_eq!(run.outcome.inserted_count(), 4);
        assert_eq!(report.note_value("dvi_solver"), Some("ilp_lazy"));
        assert_eq!(report.note_value("dvi_fallback"), None);
    }

    #[test]
    fn zero_deadline_returns_a_legal_unproven_result_without_fallback() {
        let p = DviProblem::build(SadpKind::Sim, &chain_solution(2, 8));
        let mut report = JsonReport::new("dvi");
        let run = solve_exact(&p, Some(Duration::ZERO), &mut report).expect("never degrades");
        assert!(run.fallback_reason.is_none());
        assert!(!run.stats.proven_optimal);
        // No relaxation was solved, so no round is reported.
        assert_eq!(run.stats.rounds, 0);
        assert_eq!(report.total(Phase::Dvi, Counter::Iterations), 0);
        assert_eq!(report.note_value("dvi_solver"), Some("ilp_lazy"));
        assert_eq!(report.note_value("dvi_fallback"), None);
        // The heuristic's set stands in, and it solves the instance.
        assert_eq!(run.outcome.inserted_count(), 4);
        assert_legal(&p, &run.outcome, "zero deadline");
    }
}

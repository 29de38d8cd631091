//! The literal ILP formulation of TPL-aware DVI (paper §III-E,
//! constraints C1–C8), emitted into the [`bilp`] solver.
//!
//! Per single via `i`: binary color indicators `oV_i`, `gV_i`, `bV_i`
//! and the uncolorable indicator `uV_i`. Per feasible candidate
//! `DVIC_j` of via `i`: the insertion variable `D_ij` and its color
//! indicators `oD_ij`, `gD_ij`, `bD_ij`.
//!
#![allow(clippy::needless_range_loop)]
//! Objective: `maximize Σ D_ij − B·Σ uV_i` with `B` larger than the
//! total candidate count, so avoiding a single uncolorable via always
//! dominates any number of insertions.
//!
//! This is the paper's reference model, kept to reproduce its
//! cost-of-exactness observation and to cross-check the lazy-cut
//! solver on small instances. It proves optimality only on tiny
//! problems; [`crate::solve_exact`] is the exact solver to call.

use std::time::Instant;

use bilp::{Model, Sense, Solution, SolveOptions, VarId};
use tpl_decomp::vias_conflict;

use crate::candidates::DviProblem;
use crate::heuristic::{solve_heuristic, DviParams};
use crate::report::DviOutcome;

/// Mapping between problem entities and ILP variables, used to decode
/// solutions and build warm starts.
#[derive(Debug, Clone)]
pub struct IlpMapping {
    /// `[oV, gV, bV, uV]` per via.
    pub via_vars: Vec<[VarId; 4]>,
    /// `[D, oD, gD, bD]` per candidate.
    pub cand_vars: Vec<[VarId; 4]>,
}

/// Options for [`solve_ilp`].
#[derive(Debug, Clone, Default)]
pub struct IlpOptions {
    /// Time limit handed to the branch-and-bound solver.
    pub time_limit: Option<std::time::Duration>,
    /// Warm-start the solver from the heuristic solution (recommended
    /// for large instances; the paper's ILP runs cold).
    pub warm_start: bool,
}

/// Builds the C1–C8 model for a DVI problem.
pub fn build_ilp(problem: &DviProblem) -> (Model, IlpMapping) {
    let mut m = Model::maximize();
    let n_vias = problem.via_count();
    let n_cands = problem.candidates().len();
    let big_b: i64 = n_cands as i64 + 1;
    const BIG_B2: i64 = 3;

    let via_vars: Vec<[VarId; 4]> = (0..n_vias)
        .map(|_| [m.add_var(), m.add_var(), m.add_var(), m.add_var()])
        .collect();
    let cand_vars: Vec<[VarId; 4]> = (0..n_cands)
        .map(|_| [m.add_var(), m.add_var(), m.add_var(), m.add_var()])
        .collect();

    // Objective: maximize insertions, heavily penalize uncolorable.
    for cv in &cand_vars {
        m.set_objective_coeff(cv[0], 1);
    }
    for vv in &via_vars {
        m.set_objective_coeff(vv[3], -big_b);
    }

    // C1: at most one redundant via per single via.
    for pv in problem.vias() {
        if !pv.candidates.is_empty() {
            m.add_constraint(
                pv.candidates.iter().map(|&c| (cand_vars[c as usize][0], 1)),
                Sense::Le,
                1,
            );
        }
    }

    // C2: conflicting candidates are mutually exclusive.
    for &(a, b) in problem.conflicts() {
        m.add_constraint(
            [(cand_vars[a as usize][0], 1), (cand_vars[b as usize][0], 1)],
            Sense::Le,
            1,
        );
    }

    // C3: every via takes exactly one of {orange, green, blue,
    // uncolorable}.
    for vv in &via_vars {
        m.add_constraint(
            [(vv[0], 1), (vv[1], 1), (vv[2], 1), (vv[3], 1)],
            Sense::Eq,
            1,
        );
    }

    // C4: an inserted redundant via takes exactly one color; an
    // uninserted one is unconstrained.
    for cv in &cand_vars {
        // oD + gD + bD - B'(D-1) >= 1  ==  oD+gD+bD - B'·D >= 1 - B'
        m.add_constraint(
            [(cv[1], 1), (cv[2], 1), (cv[3], 1), (cv[0], -BIG_B2)],
            Sense::Ge,
            1 - BIG_B2,
        );
        // oD + gD + bD + B'(D-1) <= 1  ==  oD+gD+bD + B'·D <= 1 + B'
        m.add_constraint(
            [(cv[1], 1), (cv[2], 1), (cv[3], 1), (cv[0], BIG_B2)],
            Sense::Le,
            1 + BIG_B2,
        );
    }

    // Spatial index of vias per layer for C5/C6 lookups.
    let mut via_at: std::collections::HashMap<(u8, i32, i32), u32> =
        std::collections::HashMap::new();
    for (i, pv) in problem.vias().iter().enumerate() {
        via_at.insert((pv.via.below, pv.via.x, pv.via.y), i as u32);
    }

    // C5: existing vias within the same-color pitch take different
    // colors.
    for (i, pv) in problem.vias().iter().enumerate() {
        for (dx, dy) in tpl_decomp::conflict_offsets() {
            if let Some(&j) = via_at.get(&(pv.via.below, pv.via.x + dx, pv.via.y + dy)) {
                if (j as usize) > i {
                    for color in 0..3 {
                        m.add_constraint(
                            [(via_vars[i][color], 1), (via_vars[j as usize][color], 1)],
                            Sense::Le,
                            1,
                        );
                    }
                }
            }
        }
    }

    // C6: an existing via and an inserted redundant via within pitch
    // take different colors (only binding when D = 1).
    for (c, cand) in problem.candidates().iter().enumerate() {
        for dx in -2..=2 {
            for dy in -2..=2 {
                if !vias_conflict(dx, dy) {
                    continue;
                }
                if let Some(&i) = via_at.get(&(cand.via_layer, cand.loc.0 + dx, cand.loc.1 + dy)) {
                    for color in 0..3 {
                        // oV_i + oD + B'(D-1) <= 1
                        m.add_constraint(
                            [
                                (via_vars[i as usize][color], 1),
                                (cand_vars[c][color + 1], 1),
                                (cand_vars[c][0], BIG_B2),
                            ],
                            Sense::Le,
                            1 + BIG_B2,
                        );
                    }
                }
            }
        }
    }

    // C7: two inserted redundant vias within pitch take different
    // colors. Index candidates by location for the lookup.
    let cands_at = problem.candidate_loc_index();
    for (a, ca) in problem.candidates().iter().enumerate() {
        for dx in -2..=2 {
            for dy in -2..=2 {
                if !vias_conflict(dx, dy) {
                    continue;
                }
                for b in cands_at.at(ca.via_layer, ca.loc.0 + dx, ca.loc.1 + dy) {
                    if (b as usize) <= a || ca.via_idx == problem.candidates()[b as usize].via_idx {
                        continue;
                    }
                    for color in 0..3 {
                        // oD_a + oD_b + B'(D_a + D_b - 2) <= 1
                        m.add_constraint(
                            [
                                (cand_vars[a][color + 1], 1),
                                (cand_vars[b as usize][color + 1], 1),
                                (cand_vars[a][0], BIG_B2),
                                (cand_vars[b as usize][0], BIG_B2),
                            ],
                            Sense::Le,
                            1 + 2 * BIG_B2,
                        );
                    }
                }
            }
        }
    }

    (
        m,
        IlpMapping {
            via_vars,
            cand_vars,
        },
    )
}

/// Solves the TPL-aware DVI problem by the ILP formulation.
///
/// Returns the decoded outcome plus the raw solver solution (for
/// status / gap inspection).
pub fn solve_ilp(problem: &DviProblem, options: &IlpOptions) -> (DviOutcome, Solution) {
    let start = Instant::now();
    let (model, mapping) = build_ilp(problem);
    let mut solve_opts = SolveOptions {
        time_limit: options.time_limit,
        warm_start: None,
    };
    if options.warm_start {
        let heur = solve_heuristic(problem, &DviParams::default());
        solve_opts.warm_start = Some(warm_start_vector(&mapping, &model, &heur));
    }
    let sol = model.solve(&solve_opts);
    let outcome = decode(problem, &mapping, &sol, start);
    (outcome, sol)
}

/// Builds a full feasible assignment from a heuristic outcome.
fn warm_start_vector(mapping: &IlpMapping, model: &Model, heur: &DviOutcome) -> Vec<bool> {
    let mut values = vec![false; model.var_count()];
    for (i, color) in heur.via_colors.iter().enumerate() {
        let slot = match color {
            Some(c) => *c as usize,
            None => 3,
        };
        values[mapping.via_vars[i][slot].index()] = true;
    }
    for (k, &cand) in heur.inserted.iter().enumerate() {
        values[mapping.cand_vars[cand as usize][0].index()] = true;
        let c = heur.inserted_colors[k] as usize;
        values[mapping.cand_vars[cand as usize][c + 1].index()] = true;
    }
    values
}

fn decode(
    problem: &DviProblem,
    mapping: &IlpMapping,
    sol: &Solution,
    start: Instant,
) -> DviOutcome {
    let mut inserted = Vec::new();
    let mut inserted_colors = Vec::new();
    for (c, cv) in mapping.cand_vars.iter().enumerate() {
        if sol.values[cv[0].index()] {
            inserted.push(c as u32);
            let color = (0..3).find(|&k| sol.values[cv[k + 1].index()]).unwrap_or(0) as u8;
            inserted_colors.push(color);
        }
    }
    let mut via_colors = Vec::with_capacity(problem.via_count());
    let mut uncolorable = 0usize;
    for vv in &mapping.via_vars {
        if sol.values[vv[3].index()] {
            uncolorable += 1;
            via_colors.push(None);
        } else {
            let color = (0..3).find(|&k| sol.values[vv[k].index()]).unwrap_or(0);
            via_colors.push(Some(color as u8));
        }
    }
    DviOutcome {
        dead_via_count: problem.via_count() - inserted.len(),
        inserted,
        via_colors,
        inserted_colors,
        uncolorable_count: uncolorable,
        runtime: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_grid::{
        Axis, Net, NetId, Netlist, Pin, RoutedNet, RoutingGrid, RoutingSolution, SadpKind, Via,
        WireEdge,
    };

    fn straight_net_solution(n_vias: i32, spacing: i32) -> RoutingSolution {
        // A chain of nets, each a horizontal M2 wire with two pin
        // vias, spaced vertically.
        let mut nl = Netlist::new();
        for k in 0..n_vias {
            nl.push(Net::new(
                format!("n{k}"),
                vec![Pin::new(4, 4 + k * spacing), Pin::new(9, 4 + k * spacing)],
            ));
        }
        let mut sol = RoutingSolution::new(RoutingGrid::three_layer(20, 40), &nl);
        for k in 0..n_vias {
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
    fn ilp_protects_all_isolated_vias() {
        let sol = straight_net_solution(2, 8);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let (outcome, raw) = solve_ilp(&p, &IlpOptions::default());
        assert!(raw.is_optimal());
        assert_eq!(outcome.dead_via_count, 0);
        assert_eq!(outcome.inserted_count(), p.via_count());
        assert_eq!(outcome.uncolorable_count, 0);
    }

    #[test]
    fn ilp_solution_satisfies_model() {
        let sol = straight_net_solution(3, 4);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let (model, mapping) = build_ilp(&p);
        let bsol = model.solve(&SolveOptions::default());
        assert!(model.is_feasible(&bsol.values));
        // Every via has exactly one color slot set.
        for vv in &mapping.via_vars {
            let set = vv.iter().filter(|v| bsol.values[v.index()]).count();
            assert_eq!(set, 1);
        }
    }

    #[test]
    fn ilp_respects_c1() {
        let sol = straight_net_solution(1, 4);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let (outcome, _) = solve_ilp(&p, &IlpOptions::default());
        // Each via gets at most one redundant via.
        let mut per_via = vec![0usize; p.via_count()];
        for &c in &outcome.inserted {
            per_via[p.candidates()[c as usize].via_idx as usize] += 1;
        }
        assert!(per_via.iter().all(|&k| k <= 1));
    }

    #[test]
    fn warm_start_matches_cold_optimum() {
        let sol = straight_net_solution(3, 6);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let (cold, raw_cold) = solve_ilp(&p, &IlpOptions::default());
        let (warm, raw_warm) = solve_ilp(
            &p,
            &IlpOptions {
                warm_start: true,
                ..IlpOptions::default()
            },
        );
        assert!(raw_cold.is_optimal() && raw_warm.is_optimal());
        assert_eq!(cold.inserted_count(), warm.inserted_count());
        assert_eq!(cold.uncolorable_count, warm.uncolorable_count);
    }

    #[test]
    fn colors_of_inserted_vias_are_proper() {
        let sol = straight_net_solution(2, 3);
        let p = DviProblem::build(SadpKind::Sim, &sol);
        let (outcome, raw) = solve_ilp(&p, &IlpOptions::default());
        assert!(raw.is_optimal());
        // Check pairwise TPL conflicts among all final vias.
        let mut all: Vec<((u8, i32, i32), u8)> = Vec::new();
        for (i, pv) in p.vias().iter().enumerate() {
            if let Some(c) = outcome.via_colors[i] {
                all.push(((pv.via.below, pv.via.x, pv.via.y), c));
            }
        }
        for (k, &ci) in outcome.inserted.iter().enumerate() {
            let cand = &p.candidates()[ci as usize];
            all.push((
                (cand.via_layer, cand.loc.0, cand.loc.1),
                outcome.inserted_colors[k],
            ));
        }
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                let ((la, xa, ya), ca) = all[i];
                let ((lb, xb, yb), cb) = all[j];
                if la == lb && vias_conflict(xb - xa, yb - ya) {
                    assert_ne!(ca, cb, "{:?} vs {:?}", all[i], all[j]);
                }
            }
        }
    }
}

//! Output checks made from public fields only.

use std::collections::HashSet;

use dvi::{DviOutcome, DviProblem};
use sadp_router::RoutingOutcome;

/// Checks a DVI outcome against its problem:
/// - every inserted candidate exists, and no via gets two;
/// - no two inserted candidates conflict;
/// - one colour per insertion, each in {0, 1, 2};
/// - `dead_via_count == via_count - inserted_count`;
/// - no uncoloured via (`#UV == 0`).
pub fn dvi_outcome(problem: &DviProblem, out: &DviOutcome) -> Result<(), String> {
    let cands = problem.candidates();
    let mut vias = HashSet::new();
    for &c in &out.inserted {
        let cand = cands
            .get(c as usize)
            .ok_or_else(|| format!("inserted candidate {c} does not exist"))?;
        if !vias.insert(cand.via_idx) {
            return Err(format!("via {} has two insertions", cand.via_idx));
        }
    }
    let inserted: HashSet<u32> = out.inserted.iter().copied().collect();
    if let Some(&(a, b)) = problem
        .conflicts()
        .iter()
        .find(|(a, b)| inserted.contains(a) && inserted.contains(b))
    {
        return Err(format!("inserted candidates {a} and {b} conflict"));
    }
    if out.inserted_colors.len() != out.inserted.len() {
        return Err(format!(
            "{} colours for {} insertions",
            out.inserted_colors.len(),
            out.inserted.len()
        ));
    }
    if let Some(c) = out.inserted_colors.iter().find(|&&c| c > 2) {
        return Err(format!("insertion colour {c} is not a TPL mask"));
    }
    let expect_dead = problem.via_count().checked_sub(out.inserted_count());
    if expect_dead != Some(out.dead_via_count) {
        return Err(format!(
            "#DV {} but {} vias minus {} insertions",
            out.dead_via_count,
            problem.via_count(),
            out.inserted_count()
        ));
    }
    if out.uncolorable_count > 0 {
        return Err(format!("#UV = {}", out.uncolorable_count));
    }
    Ok(())
}

/// Checks the routing outcome's quality flags.
pub fn routing_outcome(out: &RoutingOutcome) -> Result<(), String> {
    let flags = [
        ("routed_all", out.routed_all),
        ("congestion_free", out.congestion_free),
        ("fvp_free", out.fvp_free),
        ("colorable", out.colorable),
    ];
    match flags.iter().find(|(_, ok)| !ok) {
        Some((name, _)) => Err(format!("{name} is false")),
        None => Ok(()),
    }
}

/// A fingerprint of a DVI result: the inserted set and its colours.
pub fn dvi_fingerprint(out: &DviOutcome) -> u64 {
    let mut bytes = Vec::with_capacity(out.inserted.len() * 5);
    for (&c, &color) in out.inserted.iter().zip(&out.inserted_colors) {
        bytes.extend_from_slice(&c.to_le_bytes());
        bytes.push(color);
    }
    sadp_trace::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::BenchSpec;
    use dvi::{solve_heuristic, DviParams};
    use sadp_grid::SadpKind;
    use sadp_router::{RouterConfig, RoutingSession};
    use sadp_trace::NoopObserver;

    fn solved() -> (RoutingOutcome, DviProblem, DviOutcome) {
        let spec = BenchSpec::by_name("ecc")
            .expect("paper suite has ecc")
            .scaled(0.03);
        let (grid, netlist) = (spec.grid(), spec.generate(1));
        let session = RoutingSession::try_new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
            .expect("a generated circuit is valid");
        let outcome = session.try_finish(&mut NoopObserver).expect("routes");
        let problem = DviProblem::build(SadpKind::Sim, &outcome.solution);
        let dvi = solve_heuristic(&problem, &DviParams::default());
        (outcome, problem, dvi)
    }

    #[test]
    fn a_solver_outcome_passes_and_each_tampering_fails() {
        let (outcome, problem, dvi) = solved();
        routing_outcome(&outcome).expect("flags hold");
        dvi_outcome(&problem, &dvi).expect("solver output is legal");
        assert!(dvi.inserted_count() > 0, "the check must see insertions");

        let mut twice = dvi.clone();
        twice.inserted.push(dvi.inserted[0]);
        twice.inserted_colors.push(0);
        assert!(
            dvi_outcome(&problem, &twice).is_err(),
            "two insertions on one via"
        );

        let mut color = dvi.clone();
        color.inserted_colors[0] = 3;
        assert!(
            dvi_outcome(&problem, &color).is_err(),
            "colour out of range"
        );

        let mut dead = dvi.clone();
        dead.dead_via_count += 1;
        assert!(
            dvi_outcome(&problem, &dead).is_err(),
            "dead count off by one"
        );

        let mut uv = dvi.clone();
        uv.uncolorable_count = 1;
        assert!(dvi_outcome(&problem, &uv).is_err(), "#UV > 0");

        let cands = problem.candidates();
        let &(a, b) = problem
            .conflicts()
            .iter()
            .find(|&&(a, b)| cands[a as usize].via_idx != cands[b as usize].via_idx)
            .expect("a conflict between two vias' candidates");
        let mut clash = DviOutcome {
            inserted: vec![a, b],
            inserted_colors: vec![0, 0],
            dead_via_count: problem.via_count() - 2,
            ..dvi.clone()
        };
        assert!(dvi_outcome(&problem, &clash).is_err(), "conflicting pair");
        clash.inserted = vec![a];
        clash.inserted_colors = vec![0];
        clash.dead_via_count += 1;
        dvi_outcome(&problem, &clash).expect("one of the pair alone is legal");

        let mut unrouted = outcome;
        unrouted.fvp_free = false;
        assert!(routing_outcome(&unrouted).is_err());
    }
}

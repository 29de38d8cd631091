//! Cross-crate property-based tests (proptest): random netlists and
//! layouts must uphold the suite's invariants end to end.

use proptest::prelude::*;

use sadp_dvi::grid::{Dir, TurnKind};
use sadp_dvi::prelude::*;
use sadp_dvi::sadp::{classify_turn, stub_turn_ok, TurnClass};
use sadp_dvi::tpl::{welsh_powell, window_is_3colorable_bruteforce, window_is_fvp, DecompGraph};

/// Strategy: a handful of pins with enforced spacing on a small grid.
fn arb_netlist(grid: i32) -> impl Strategy<Value = Netlist> {
    proptest::collection::vec((2..grid - 2, 2..grid - 2), 4..16).prop_map(move |raw| {
        // Enforce pairwise Chebyshev spacing >= 3 by filtering.
        let mut pins: Vec<(i32, i32)> = Vec::new();
        for (x, y) in raw {
            if pins
                .iter()
                .all(|&(px, py)| (px - x).abs().max((py - y).abs()) >= 3)
            {
                pins.push((x, y));
            }
        }
        let mut nl = Netlist::new();
        // Pair consecutive pins into 2-pin nets.
        for pair in pins.chunks(2) {
            if let [a, b] = pair {
                nl.push(Net::new(
                    format!("n{}", nl.len()),
                    vec![Pin::new(a.0, a.1), Pin::new(b.0, b.1)],
                ));
            }
        }
        if nl.is_empty() {
            nl.push(Net::new("fallback", vec![Pin::new(2, 2), Pin::new(8, 8)]));
        }
        nl
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the random netlist, the full flow yields a clean,
    /// audited solution and a UV-free DVI pass.
    #[test]
    fn random_netlists_route_clean(nl in arb_netlist(28), sim in any::<bool>()) {
        let kind = if sim { SadpKind::Sim } else { SadpKind::Sid };
        let grid = RoutingGrid::three_layer(28, 28);
        let out = RoutingSession::try_new(&grid, &nl, RouterConfig::full(kind))
.and_then(|s| s.try_finish(&mut NoopObserver))
            .expect("full flow");
        prop_assert!(out.routed_all);
        let audit = full_audit(kind, &out.solution, &nl);
        prop_assert!(audit.is_clean(), "{audit:?}");
        let problem = DviProblem::build(kind, &out.solution);
        let dvi = solve_heuristic(&problem, &DviParams::default());
        prop_assert_eq!(dvi.uncolorable_count, 0);
        prop_assert!(dvi.inserted_count() + dvi.dead_via_count == problem.via_count());
    }

    /// The O(1) FVP rules agree with brute-force window coloring on
    /// arbitrary via subsets (beyond the exhaustive 512 unit test,
    /// this exercises the duplicate-handling path).
    #[test]
    fn fvp_rules_match_bruteforce(mask in 0u32..512, dup in 0usize..9) {
        let mut vias: Vec<(i32, i32)> = (0..9)
            .filter(|b| mask & (1 << b) != 0)
            .map(|b| (b % 3, b / 3))
            .collect();
        if !vias.is_empty() {
            let d = vias[dup % vias.len()];
            vias.push(d); // duplicates must not change the answer
        }
        prop_assert_eq!(window_is_fvp(&vias), !window_is_3colorable_bruteforce(&vias));
    }

    /// Welsh–Powell colorings are always proper, on any via cloud.
    #[test]
    fn greedy_colorings_are_proper(
        pts in proptest::collection::vec((0i32..20, 0i32..20), 0..40)
    ) {
        let g = DecompGraph::from_positions(pts);
        let out = welsh_powell(&g, 3);
        prop_assert!(g.coloring_conflicts(&out.colors).is_empty());
    }

    /// Turn classification is parity-periodic and stub exceptions only
    /// ever relax (never tighten) the classification.
    #[test]
    fn stub_rules_only_relax(x in -8i32..8, y in -8i32..8, sim in any::<bool>()) {
        let kind = if sim { SadpKind::Sim } else { SadpKind::Sid };
        for t in TurnKind::ALL {
            prop_assert_eq!(
                classify_turn(kind, x, y, t),
                classify_turn(kind, x + 4, y - 6, t)
            );
        }
        for wire in [Dir::East, Dir::West] {
            for stub in [Dir::North, Dir::South] {
                let t = TurnKind::from_arms(wire, stub).unwrap();
                if classify_turn(kind, x, y, t) != TurnClass::Forbidden {
                    prop_assert!(stub_turn_ok(kind, x, y, wire, stub));
                }
            }
        }
    }
}

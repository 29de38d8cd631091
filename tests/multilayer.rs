//! Four-metal-layer stacks: the paper's Fig. 6(b) shows stacked vias
//! (M2–M4); everything in the suite is layer-count generic, which
//! these tests pin down.

use sadp_dvi::grid::LayerRole;
use sadp_dvi::prelude::*;

fn four_layer(width: i32, height: i32) -> RoutingGrid {
    RoutingGrid::new(
        width,
        height,
        vec![
            LayerRole::PinOnly,
            LayerRole::Routing(Axis::Horizontal),
            LayerRole::Routing(Axis::Vertical),
            LayerRole::Routing(Axis::Horizontal),
        ],
    )
}

fn netlist() -> Netlist {
    let mut nl = Netlist::new();
    nl.push(Net::new("a", vec![Pin::new(4, 4), Pin::new(20, 4)]));
    nl.push(Net::new("b", vec![Pin::new(4, 8), Pin::new(20, 12)]));
    nl.push(Net::new(
        "c",
        vec![Pin::new(8, 16), Pin::new(16, 6), Pin::new(12, 20)],
    ));
    nl.push(Net::new("d", vec![Pin::new(6, 12), Pin::new(18, 18)]));
    nl
}

#[test]
fn four_layer_grid_has_three_via_layers() {
    let g = four_layer(24, 24);
    assert_eq!(g.layer_count(), 4);
    assert_eq!(g.via_layer_count(), 3);
    assert_eq!(g.preferred_axis(3), Some(Axis::Horizontal));
}

#[test]
fn routes_and_audits_on_four_layers() {
    for kind in SadpKind::ALL {
        let nl = netlist();
        let out = RoutingSession::try_new(&four_layer(24, 24), &nl, RouterConfig::full(kind))
            .and_then(|s| s.try_finish(&mut NoopObserver))
            .expect("full flow");
        assert!(out.routed_all, "{kind}");
        assert!(out.congestion_free, "{kind}");
        assert!(out.fvp_free, "{kind}");
        let audit = full_audit(kind, &out.solution, &nl);
        assert!(audit.is_clean(), "{kind}: {audit:?}");
    }
}

#[test]
fn dvi_handles_stacked_vias() {
    let nl = netlist();
    let out = RoutingSession::try_new(&four_layer(24, 24), &nl, RouterConfig::full(SadpKind::Sim))
        .and_then(|s| s.try_finish(&mut NoopObserver))
        .expect("full flow");
    let problem = DviProblem::build(SadpKind::Sim, &out.solution);
    // Vias may exist on via layers 0, 1 and 2.
    let layers = problem.via_layers();
    assert!(layers.contains(&0));
    let dvi = solve_heuristic(&problem, &DviParams::default());
    assert_eq!(dvi.uncolorable_count, 0);
    assert_eq!(
        dvi.inserted_count() + dvi.dead_via_count,
        problem.via_count()
    );
    // Candidate via layers match their single via's layer.
    for &c in &dvi.inserted {
        let cand = &problem.candidates()[c as usize];
        let pv = &problem.vias()[cand.via_idx as usize];
        assert_eq!(cand.via_layer, pv.via.below);
    }
}

#[test]
fn m3_wires_can_stack_between_m2_and_m4() {
    // A net whose best route climbs to M4 (horizontal express lane)
    // still verifies: force it by congesting M2.
    let mut nl = Netlist::new();
    for k in 0..8 {
        nl.push(Net::new(
            format!("h{k}"),
            vec![Pin::new(3, 4 + 2 * k), Pin::new(21, 4 + 2 * k)],
        ));
    }
    let out = RoutingSession::try_new(&four_layer(25, 25), &nl, RouterConfig::full(SadpKind::Sim))
        .and_then(|s| s.try_finish(&mut NoopObserver))
        .expect("full flow");
    assert!(out.routed_all && out.congestion_free);
    let audit = full_audit(SadpKind::Sim, &out.solution, &nl);
    assert!(audit.is_clean(), "{audit:?}");
}

//! Quickstart: route a small placed netlist with full DVI + TPL
//! consideration, audit the result, and protect the vias with
//! redundant vias.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sadp_dvi::prelude::*;

fn main() {
    // A 32x32 grid with three metal layers: M1 pins only, M2
    // horizontal, M3 vertical.
    let grid = RoutingGrid::three_layer(32, 32);

    // A handful of placed nets (pins live on M1 grid points).
    let mut netlist = Netlist::new();
    netlist.push(Net::new(
        "clk",
        vec![Pin::new(4, 4), Pin::new(24, 4), Pin::new(14, 20)],
    ));
    netlist.push(Net::new("d0", vec![Pin::new(8, 8), Pin::new(20, 16)]));
    netlist.push(Net::new("d1", vec![Pin::new(8, 12), Pin::new(20, 24)]));
    netlist.push(Net::new("en", vec![Pin::new(12, 28), Pin::new(28, 8)]));

    // Route with both DVI optimization and via-layer TPL
    // manufacturability (the paper's "consider DVI & via layer TPL").
    let config = RouterConfig::builder(SadpKind::Sim)
        .dvi(true)
        .tpl(true)
        .build()
        .expect("valid config");
    let outcome = RoutingSession::new(&grid, &netlist, config).finish(&mut NoopObserver);

    println!("routed all nets : {}", outcome.routed_all);
    println!("wirelength      : {}", outcome.stats.wirelength);
    println!("vias            : {}", outcome.stats.vias);
    println!("FVP-free        : {}", outcome.fvp_free);
    println!("TPL colorable   : {}", outcome.colorable);

    // Independent audit: connectivity, shorts, SADP turn legality,
    // FVPs, colorability.
    let audit = full_audit(SadpKind::Sim, &outcome.solution, &netlist);
    println!("audit clean     : {}  ({audit:?})", audit.is_clean());
    assert!(audit.is_clean());

    // Post-routing TPL-aware double via insertion (fast heuristic).
    let problem = DviProblem::build(SadpKind::Sim, &outcome.solution);
    let dvi = solve_heuristic(&problem, &DviParams::default());
    println!(
        "DVI             : {} of {} vias protected, {} dead, {} uncolorable",
        dvi.inserted_count(),
        problem.via_count(),
        dvi.dead_via_count,
        dvi.uncolorable_count
    );
}

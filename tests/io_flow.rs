//! Persisting and reloading a routed design through the text formats,
//! then re-auditing it — the workflow a downstream user scripting the
//! suite would follow.

use sadp_dvi::grid::{read_netlist, read_solution, write_netlist, write_solution};
use sadp_dvi::prelude::*;

#[test]
fn route_save_reload_audit() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let netlist = spec.generate(21);
    let out = RoutingSession::try_new(&spec.grid(), &netlist, RouterConfig::full(SadpKind::Sim))
        .and_then(|s| s.try_finish(&mut NoopObserver))
        .expect("full flow");
    assert!(out.routed_all);

    // Save both artifacts.
    let nl_text = write_netlist(&spec.grid(), &netlist);
    let sol_text = write_solution(&out.solution);

    // Reload into fresh objects.
    let (grid2, netlist2) = read_netlist(&nl_text).expect("netlist parses");
    assert_eq!(netlist, netlist2);
    let solution2 = read_solution(grid2, &netlist2, &sol_text).expect("solution parses");
    assert_eq!(out.solution.stats(), solution2.stats());

    // The reloaded solution audits exactly like the original.
    let a = full_audit(SadpKind::Sim, &out.solution, &netlist);
    let b = full_audit(SadpKind::Sim, &solution2, &netlist2);
    assert_eq!(a, b);
    assert!(b.is_clean());
}

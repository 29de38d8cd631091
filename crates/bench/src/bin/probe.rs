//! Scratch probe: route one circuit at one scale/arm and report (used
//! for sizing experiment campaigns; not part of the table suite).

use benchgen::BenchSpec;
use dvi::{solve_exact, solve_heuristic, DviParams, DviProblem};
use sadp_grid::SadpKind;
use sadp_router::{RouterConfig, RoutingSession};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ecc".into());
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let arm = std::env::args().nth(3).unwrap_or_else(|| "full".into());
    let spec = BenchSpec::paper_suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("circuit name")
        .scaled(scale);
    let nl = spec.generate(1);
    let config = match arm.as_str() {
        "base" => RouterConfig::baseline(SadpKind::Sim),
        "dvi" => RouterConfig::with_dvi(SadpKind::Sim),
        "tpl" => RouterConfig::with_tpl(SadpKind::Sim),
        _ => RouterConfig::full(SadpKind::Sim),
    };
    println!(
        "{} nets={} grid={}x{} arm={arm}",
        spec.name,
        nl.len(),
        spec.width,
        spec.height
    );
    let t = std::time::Instant::now();
    let out = RoutingSession::try_new(&spec.grid(), &nl, config)
        .and_then(|s| s.try_finish(&mut sadp_trace::NoopObserver))
        .expect("full flow");
    println!(
        "route: ok={} cong={} fvp={} col={} WL={} vias={} in {:.1?}",
        out.routed_all,
        out.congestion_free,
        out.fvp_free,
        out.colorable,
        out.stats.wirelength,
        out.stats.vias,
        t.elapsed()
    );
    let problem = DviProblem::build(SadpKind::Sim, &out.solution);
    let h = solve_heuristic(&problem, &DviParams::default());
    println!(
        "heur: dead={} uv={} in {:.1?}",
        h.dead_via_count, h.uncolorable_count, h.runtime
    );
    let exact = solve_exact(
        &problem,
        Some(std::time::Duration::from_secs(900)),
        &mut sadp_trace::NoopObserver,
    )
    .expect("the heuristic fallback of the exact solver succeeds");
    let l = &exact.outcome;
    println!(
        "lazy: dead={} uv={} in {:.1?} optimal={}",
        l.dead_via_count, l.uncolorable_count, l.runtime, exact.stats.proven_optimal
    );
}

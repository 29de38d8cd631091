//! `paper-flow`: the paper's Fig. 8 flow under the headline arm on
//! ecc-1.0 and alu-1.0, for SIM and SID.

use std::time::Instant;

use benchgen::BenchSpec;
use dvi::{solve_heuristic_observed, DviOutcome, DviParams, DviProblem};
use sadp_grid::{Netlist, RoutingGrid, SadpKind};
use sadp_router::{RouterConfig, RoutingOutcome, RoutingSession};
use sadp_service::outcome_fingerprint;
use sadp_trace::{JsonReport, NoopObserver, RouteObserver};

use crate::check;
use crate::measure::{connections, record_report, Pass, Spans};

/// The circuits of the workload, at full size.
const CIRCUITS: [&str; 2] = ["ecc", "alu"];

/// Set-up (netlist generation) repeats; the median is reported.
const SETUP_REPEATS: usize = 5;

/// Seconds of `--seconds` one pass over the four flows stands for.
const SECONDS_PER_PASS: u64 = 6;

/// What one flow produced: the routing outcome, and the DVI problem
/// built from it with its solution.
type Flow = (RoutingOutcome, DviProblem, DviOutcome);

/// One Fig. 8 flow through the public entry points, every call timed
/// when `spans` is on.
fn flow(
    grid: &RoutingGrid,
    netlist: &Netlist,
    kind: SadpKind,
    obs: &mut impl RouteObserver,
    spans: &mut Spans,
) -> Result<Flow, String> {
    let config = RouterConfig::full(kind);
    let mut session = spans
        .time("router.session_new", || {
            RoutingSession::try_new(grid, netlist, config)
        })
        .map_err(|e| format!("session: {e}"))?;
    spans.time("router.initial_route", || session.initial_route(obs).len());
    spans.time("router.negotiate", || session.negotiate(obs));
    spans.time("router.tpl_removal", || session.tpl_removal(obs));
    spans.time("router.ensure_colorable", || session.ensure_colorable(obs));
    let outcome = spans
        .time("router.finish", || session.try_finish(obs))
        .map_err(|e| format!("finish: {e}"))?;
    let problem = spans.time("dvi.build", || DviProblem::build(kind, &outcome.solution));
    let dvi = spans.time("dvi.solve", || {
        solve_heuristic_observed(&problem, &DviParams::default(), obs)
    });
    Ok((outcome, problem, dvi))
}

/// Runs the workload once.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Pass {
    let mut pass = Pass::new(traced);
    pass.input_rss_mib = crate::measure::rss_mib();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        inputs = CIRCUITS
            .iter()
            .map(|name| {
                let spec = BenchSpec::by_name(name).expect("a paper-suite circuit");
                (name, spec.grid(), spec.generate(seed))
            })
            .collect::<Vec<_>>();
        pass.setup_s.push(t.elapsed().as_secs_f64());
    }

    let (mut nets, mut flow_s, mut dead) = (0usize, 0.0f64, 0usize);
    let (mut conns, mut via_count, mut inserted) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    for round in 0..(seconds / SECONDS_PER_PASS).max(1) {
        let pass_start = Instant::now();
        let mut pass_failed = false;
        for (name, grid, netlist) in &inputs {
            for kind in [SadpKind::Sim, SadpKind::Sid] {
                pass.attempted += 1;
                let t = Instant::now();
                let result = if traced {
                    let mut report = JsonReport::new(format!("{name}/{kind}"));
                    let r = flow(grid, netlist, kind, &mut report, &mut pass.spans);
                    record_report(&mut pass.spans, &report);
                    r
                } else {
                    flow(grid, netlist, kind, &mut NoopObserver, &mut pass.spans)
                };
                let secs = t.elapsed().as_secs_f64();
                let checked = result.and_then(|(outcome, problem, dvi)| {
                    check::routing_outcome(&outcome)?;
                    check::dvi_outcome(&problem, &dvi)?;
                    Ok((outcome, problem, dvi))
                });
                match checked {
                    Ok((outcome, problem, dvi)) => {
                        // Passes repeat the same flows: the quality
                        // sums are those of one pass.
                        if round == 0 {
                            pass.wirelength += outcome.stats.wirelength;
                            pass.vias += outcome.stats.vias;
                            dead += dvi.dead_via_count;
                        }
                        pass.fingerprints.push(outcome_fingerprint(&outcome));
                        pass.fingerprints.push(check::dvi_fingerprint(&dvi));
                        nets += netlist.len();
                        flow_s += secs;
                        conns += connections(netlist);
                        via_count += problem.via_count();
                        inserted += dvi.inserted_count();
                    }
                    Err(e) => {
                        pass_failed = true;
                        pass.failures.push(format!("{name}/{kind}: {e}"));
                    }
                }
            }
        }
        // The item is the whole pass (the two circuits' rows of the
        // paper's tables); output checks run outside the flow timings
        // but inside the pass, as they are cheap next to a flow.
        pass.item_ms.push(if pass_failed {
            f64::INFINITY
        } else {
            pass_start.elapsed().as_secs_f64() * 1e3
        });
    }
    pass.wall_s = start.elapsed().as_secs_f64();

    let sum = |k: &str| crate::stats::total(pass.spans.get(k));
    let ratio = |a: f64, b: usize| if b == 0 { 0.0 } else { a / b as f64 };
    let figures = [
        (
            "flow_nets_per_s",
            if flow_s > 0.0 {
                nets as f64 / flow_s
            } else {
                0.0
            },
        ),
        ("dead_vias", dead as f64),
        (
            "router.initial_route.ns_per_conn",
            ratio(sum("router.initial_route") * 1e6, conns),
        ),
        (
            "dvi.solve.ns_per_via",
            ratio(sum("dvi.solve") * 1e6, via_count),
        ),
        ("dvi.protection_rate", ratio(inserted as f64, via_count)),
    ];
    pass.figures.extend(figures);
    pass
}

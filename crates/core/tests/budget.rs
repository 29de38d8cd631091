//! Integration tests of the session resource budget: exhaustion must
//! yield a valid, tagged partial outcome, and a resumed session (fresh
//! budget, same session value) must continue where it stopped —
//! reaching the exact final state an unbudgeted run produces.

use std::time::Duration;

use benchgen::BenchSpec;
use sadp_grid::SadpKind;
use sadp_router::{outcome_fingerprint, RouteBudget, RouterConfig, RoutingSession, Termination};
use sadp_trace::{JsonReport, NoopObserver, RouteObserver};

/// Drives every phase as far as the active budget allows.
fn step(session: &mut RoutingSession, obs: &mut impl RouteObserver) {
    session.initial_route(obs);
    session.negotiate(obs);
    session.tpl_removal(obs);
    session.ensure_colorable(obs);
}

#[test]
fn iteration_capped_session_resumes_to_the_unbudgeted_fingerprint() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let (grid, netlist) = (spec.grid(), spec.generate(7));
    let config = RouterConfig::full(SadpKind::Sim);

    let unbudgeted = RoutingSession::new(&grid, &netlist, config).finish(&mut NoopObserver);

    // Interleave no-progress deadline stops (the budget expired before
    // the activation could run an iteration) with tiny iteration-cap
    // slices. Deadline and iteration-cap stops both land *between*
    // iterations, so the resumed session walks the identical sequence.
    let mut session = RoutingSession::new(&grid, &netlist, config);
    let mut obs = NoopObserver;
    let mut activations = 0usize;
    while !session.converged() {
        session.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
        step(&mut session, &mut obs);
        assert!(
            session.converged() || session.termination() == Termination::Deadline,
            "zero deadline must stop with a Deadline tag, got {}",
            session.termination()
        );
        session.set_budget(RouteBudget::unlimited().with_max_phase_iters(3));
        step(&mut session, &mut obs);
        activations += 1;
        assert!(activations < 100_000, "resumed session makes no progress");
    }
    assert!(
        activations > 1,
        "instance too small to exercise budget stops"
    );
    session.set_budget(RouteBudget::unlimited());
    let resumed = session.finish(&mut obs);

    assert_eq!(resumed.termination, Termination::Converged);
    assert_eq!(
        outcome_fingerprint(&resumed),
        outcome_fingerprint(&unbudgeted)
    );
}

#[test]
fn iteration_cap_is_reported_while_unconverged() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let (grid, netlist) = (spec.grid(), spec.generate(1));
    let mut session = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim));
    session.set_budget(RouteBudget::unlimited().with_max_phase_iters(1));
    let mut obs = NoopObserver;
    step(&mut session, &mut obs);
    // One iteration routes one net; the suite circuit has many.
    assert!(!session.converged());
    assert_eq!(session.termination(), Termination::IterationCap);
}

#[test]
fn zero_deadline_outcome_is_valid_and_tagged() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let (grid, netlist) = (spec.grid(), spec.generate(1));
    let mut session = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim));
    session.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
    let out = session.finish(&mut NoopObserver);
    assert_eq!(out.termination, Termination::Deadline);
    assert!(!out.routed_all, "nothing could have been routed");
    // The partial outcome still records into a report, flagged
    // unconverged with its stop reason.
    let mut report = JsonReport::new("budget");
    out.record_into(&mut report);
    assert_eq!(report.flag("converged"), Some(false));
    assert_eq!(report.note_value("termination"), Some("deadline"));
}

#[test]
fn expansion_capped_session_resumes_to_completion() {
    let spec = BenchSpec::paper_suite()[0].scaled(0.02);
    let (grid, netlist) = (spec.grid(), spec.generate(3));
    let mut session = RoutingSession::new(&grid, &netlist, RouterConfig::full(SadpKind::Sim));
    session.set_budget(RouteBudget::unlimited().with_max_expansions(1));
    let mut obs = NoopObserver;
    step(&mut session, &mut obs);
    assert!(!session.converged());
    assert_eq!(session.termination(), Termination::ExpansionCap);
    session.set_budget(RouteBudget::unlimited());
    let out = session.finish(&mut obs);
    assert_eq!(out.termination, Termination::Converged);
    assert!(out.routed_all);
}

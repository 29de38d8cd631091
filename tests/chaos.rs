//! Chaos suite: deterministic fault injection against the full
//! routing flow.
//!
//! The resilience contract under test: **any** combination of armed
//! failpoints and resource budgets (including a zero budget) yields
//! either `Ok(outcome)` — possibly partial, tagged with its
//! [`Termination`] reason — or a typed [`RouteError`]. Never a panic,
//! never a hang.
//!
//! The fault plan is process-global, so every test serializes on one
//! mutex; within a test the plan is seeded and therefore the whole
//! suite is deterministic.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use faultinject::FaultSpec;
use sadp_dvi::prelude::*;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock poisons it; the data
    // is `()`, so the poison carries no hazard.
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The four experiment arms of the paper's tables.
fn arms(kind: SadpKind) -> [RouterConfig; 4] {
    [
        RouterConfig::baseline(kind),
        RouterConfig::with_dvi(kind),
        RouterConfig::with_tpl(kind),
        RouterConfig::full(kind),
    ]
}

fn tiny_instance() -> (RoutingGrid, Netlist) {
    let spec = BenchSpec::paper_suite()[0].scaled(0.01);
    (spec.grid(), spec.generate(1))
}

/// Runs one session to the end under whatever faults are armed and
/// asserts the resilience contract. Returns the outcome when the run
/// finished without a contained fault.
fn assert_contract(
    grid: &RoutingGrid,
    netlist: &Netlist,
    config: RouterConfig,
) -> Option<RoutingOutcome> {
    let session = RoutingSession::try_new(grid, netlist, config).expect("inputs are valid");
    match session.try_finish(&mut NoopObserver) {
        Ok(outcome) => {
            // A partial outcome must still be internally consistent.
            outcome
                .solution
                .validate()
                .expect("outcome solution is well-formed");
            Some(outcome)
        }
        Err(RouteError::TaskPanicked { .. }) | Err(RouteError::Solver { .. }) => None,
        Err(other) => panic!("unexpected error class: {other}"),
    }
}

#[test]
fn worker_panics_never_escape_any_arm() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    for kind in [SadpKind::Sim, SadpKind::Sid] {
        for config in arms(kind) {
            for p in [0.5, 1.0] {
                let _f = faultinject::arm(42, FaultSpec::new().point("exec.task_panic", p));
                assert_contract(&grid, &netlist, config);
            }
        }
    }
}

#[test]
fn coloring_fanout_panics_are_contained_and_never_poison_occupancy() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    for threads in [2usize, 4] {
        sadp_exec::with_threads(threads, || {
            let mut session =
                RoutingSession::try_new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
                    .expect("inputs are valid");
            let (clean, _) = session.tpl_removal(&mut NoopObserver);
            assert!(clean, "threads={threads}: the R&R phases end clean");
            {
                // The per-via-layer coloring fan-out is the contained
                // fan-out a session makes: every task panics, and the
                // check reports the layers unverified instead of
                // unwinding.
                let _f = faultinject::arm(7, FaultSpec::new().point("exec.task_panic", 1.0));
                assert!(
                    !session.ensure_colorable(&mut NoopObserver),
                    "threads={threads}: the armed fan-out must be reached"
                );
            }
            session
                .solution()
                .validate()
                .expect("occupancy survives a contained fan-out panic");
            let out = session.finish(&mut NoopObserver);
            out.solution
                .validate()
                .expect("finished solution is well-formed");
            assert!(out.routed_all, "threads={threads}");
            assert!(
                !out.colorable,
                "threads={threads}: unverified is not colorable"
            );
        });
    }
}

#[test]
fn slow_phases_respect_the_deadline() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    let _f = faultinject::arm(
        7,
        FaultSpec::new()
            .point("core.slow_phase", 1.0)
            .delay(Duration::from_millis(30)),
    );
    let start = Instant::now();
    let mut session = RoutingSession::try_new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
        .expect("inputs are valid");
    session.set_budget(RouteBudget::unlimited().with_deadline(Duration::from_millis(1)));
    let out = session
        .try_finish(&mut NoopObserver)
        .expect("no worker faults armed");
    // The injected delay outlives the deadline before the first
    // routing iteration: a valid partial outcome, tagged.
    assert_eq!(out.termination, Termination::Deadline);
    assert!(!out.routed_all);
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "budgeted run must stay bounded"
    );
}

#[test]
fn zero_budget_yields_tagged_partial_outcomes_everywhere() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    for kind in [SadpKind::Sim, SadpKind::Sid] {
        for config in arms(kind) {
            let mut session =
                RoutingSession::try_new(&grid, &netlist, config).expect("inputs are valid");
            session.set_budget(RouteBudget::unlimited().with_deadline(Duration::ZERO));
            let out = session
                .try_finish(&mut NoopObserver)
                .expect("no faults armed");
            assert_eq!(out.termination, Termination::Deadline);
            assert!(!out.routed_all);
        }
    }
}

#[test]
fn dvi_solver_abort_degrades_to_the_heuristic() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    let outcome = RoutingSession::try_new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
        .expect("inputs are valid")
        .try_finish(&mut NoopObserver)
        .expect("routing succeeds without faults");
    let problem =
        DviProblem::try_build(SadpKind::Sim, &outcome.solution).expect("solution is valid");
    let _f = faultinject::arm(3, FaultSpec::new().point("dvi.solver_abort", 1.0));
    let mut report = JsonReport::new("dvi");
    let run = solve_exact(&problem, None, &mut report)
        .expect("the heuristic fallback must produce a result");
    let reason = run.fallback_reason.expect("the abort degrades");
    assert!(reason.contains("dvi.solver_abort"), "{reason}");
    assert_eq!(report.note_value("dvi_solver"), Some("heuristic"));
    assert_eq!(report.note_value("dvi_fallback"), Some(reason.as_str()));
    let direct = solve_heuristic(&problem, &DviParams::default());
    assert_eq!(run.outcome.inserted, direct.inserted);
}

#[test]
fn all_failpoints_at_once_hold_the_contract() {
    let _g = lock();
    let (grid, netlist) = tiny_instance();
    let start = Instant::now();
    let mut aborted_solves = 0;
    for seed in [1u64, 2, 3] {
        let mut finished = Vec::new();
        {
            let _f = faultinject::arm(
                seed,
                FaultSpec::new()
                    .point("exec.task_panic", 0.3)
                    .point("core.slow_phase", 0.5)
                    .point("dvi.solver_abort", 1.0)
                    .delay(Duration::from_millis(5)),
            );
            for kind in [SadpKind::Sim, SadpKind::Sid] {
                for config in arms(kind) {
                    if let Some(out) = assert_contract(&grid, &netlist, config) {
                        finished.push((kind, out));
                    }
                }
            }
        }
        // The exact DVI solve of every finished run must degrade to a
        // legal heuristic set. `exec.task_panic` stays disarmed here:
        // the DVI build and the heuristic fan out through the
        // propagating `sadp_exec::map`.
        let _f = faultinject::arm(seed, FaultSpec::new().point("dvi.solver_abort", 1.0));
        for (kind, out) in &finished {
            let problem = DviProblem::build(*kind, &out.solution);
            let mut report = JsonReport::new("dvi");
            let run = solve_exact(&problem, None, &mut report)
                .expect("the heuristic fallback must produce a result");
            let reason = run.fallback_reason.expect("the armed abort is reached");
            assert!(reason.contains("dvi.solver_abort"), "{reason}");
            assert_eq!(report.note_value("dvi_fallback"), Some(reason.as_str()));
            let heuristic = solve_heuristic(&problem, &DviParams::default());
            assert_eq!(run.outcome.inserted, heuristic.inserted);
            let mut per_via = vec![0usize; problem.via_count()];
            for &c in &run.outcome.inserted {
                per_via[problem.candidates()[c as usize].via_idx as usize] += 1;
            }
            assert!(per_via.iter().all(|&k| k <= 1), "one insertion per via");
            for &(a, b) in problem.conflicts() {
                assert!(
                    !(run.outcome.inserted.contains(&a) && run.outcome.inserted.contains(&b)),
                    "conflicting candidates {a} and {b} both inserted"
                );
            }
            aborted_solves += 1;
        }
    }
    assert!(aborted_solves > 0, "no run finished, so no DVI solve ran");
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "chaos matrix must stay bounded"
    );
}

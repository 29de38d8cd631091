//! Property tests of the execution layer's determinism contract and
//! of the `RoutingOutcome` quality flags.
//!
//! Two invariants, checked on randomly scaled/seeded generator
//! instances of the paper circuits:
//!
//! 1. The full routing flow produces *identical* outcomes (routes,
//!    stats, quality flags, and the routing counter totals of its
//!    event log) whether the execution pool runs with one thread or
//!    four — the pool's task-index merge rule at work.
//! 2. `congestion_free` is consistent with the final solution: when
//!    the flag is set, the installed routes share no metal points.

use benchgen::BenchSpec;
use proptest::prelude::*;
use sadp_grid::SadpKind;
use sadp_router::{outcome_fingerprint, RouterConfig, RoutingOutcome, RoutingSession};
use sadp_trace::{Counter, EventLog, Phase, RouteObserver};

fn route_observed(
    spec: &BenchSpec,
    seed: u64,
    kind: SadpKind,
    obs: &mut impl RouteObserver,
) -> RoutingOutcome {
    RoutingSession::try_new(&spec.grid(), &spec.generate(seed), RouterConfig::full(kind))
        .and_then(|s| s.try_finish(obs))
        .expect("full flow")
}

fn route(spec: &BenchSpec, seed: u64, kind: SadpKind) -> RoutingOutcome {
    route_observed(spec, seed, kind, &mut sadp_trace::NoopObserver)
}

/// The fingerprint of a full SIM run plus its event log's totals of
/// the seven routing counters in each R&R phase.
fn fingerprint_and_totals(spec: &BenchSpec, seed: u64) -> (u64, [[i64; 3]; 7]) {
    let mut log = EventLog::new();
    let out = route_observed(spec, seed, SadpKind::Sim, &mut log);
    let totals = [
        Counter::Iterations,
        Counter::Reroutes,
        Counter::RerouteFailures,
        Counter::CongestionHits,
        Counter::CostDelta,
        Counter::FailedNets,
        Counter::BudgetStops,
    ]
    .map(|c| {
        [
            Phase::InitialRouting,
            Phase::CongestionNegotiation,
            Phase::TplViolationRemoval,
        ]
        .map(|p| log.total(p, c))
    });
    (outcome_fingerprint(&out), totals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Serial (1 thread) and parallel (4 threads) runs of the complete
    /// flow — routing, TPL R&R, audits, the coloring check — are
    /// byte-identical, and so are their routing counter totals.
    #[test]
    fn outcome_is_identical_for_any_thread_count(
        circuit in 0usize..6,
        seed in 0u64..1000,
    ) {
        let spec = BenchSpec::paper_suite()[circuit].scaled(0.02);
        let serial = sadp_exec::with_threads(1, || fingerprint_and_totals(&spec, seed));
        let parallel = sadp_exec::with_threads(4, || fingerprint_and_totals(&spec, seed));
        prop_assert_eq!(serial.0, parallel.0);
        prop_assert_eq!(serial.1, parallel.1);
    }

    /// The `congestion_free` flag never misreports: when set, the
    /// final installed routes share no metal point (no shorts), for
    /// both SADP process variants.
    #[test]
    fn congestion_free_flag_is_consistent_with_solution(
        circuit in 0usize..6,
        seed in 0u64..1000,
    ) {
        let spec = BenchSpec::paper_suite()[circuit].scaled(0.02);
        for kind in [SadpKind::Sim, SadpKind::Sid] {
            let out = route(&spec, seed, kind);
            if out.congestion_free {
                prop_assert!(
                    out.solution.shorts().is_empty(),
                    "{} ({kind}): congestion_free set but solution has shorts",
                    spec.name
                );
            }
        }
    }
}

//! Property tests of the execution layer's determinism contract and
//! of the `RoutingOutcome` quality flags.
//!
//! Two invariants, checked on randomly scaled/seeded generator
//! instances of the paper circuits:
//!
//! 1. The full routing flow produces *identical* outcomes (routes,
//!    stats, and quality flags) whether the execution pool runs with
//!    one thread or four — the pool's task-index merge rule at work.
//! 2. `congestion_free` is consistent with the final solution: when
//!    the flag is set, the installed routes share no metal points.

use benchgen::BenchSpec;
use proptest::prelude::*;
use sadp_grid::SadpKind;
use sadp_router::{outcome_fingerprint, RouterConfig, RoutingOutcome, RoutingSession};

fn route(spec: &BenchSpec, seed: u64, kind: SadpKind) -> RoutingOutcome {
    RoutingSession::try_new(&spec.grid(), &spec.generate(seed), RouterConfig::full(kind))
        .and_then(|s| s.try_finish(&mut sadp_trace::NoopObserver))
        .expect("full flow")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Serial (1 thread) and parallel (4 threads) runs of the complete
    /// flow — routing, TPL R&R, audits, DVI candidate generation — are
    /// byte-identical.
    #[test]
    fn outcome_is_identical_for_any_thread_count(
        circuit in 0usize..6,
        seed in 0u64..1000,
    ) {
        let spec = BenchSpec::paper_suite()[circuit].scaled(0.02);
        let serial = sadp_exec::with_threads(1, || route(&spec, seed, SadpKind::Sim));
        let parallel = sadp_exec::with_threads(4, || route(&spec, seed, SadpKind::Sim));
        prop_assert_eq!(outcome_fingerprint(&serial), outcome_fingerprint(&parallel));
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

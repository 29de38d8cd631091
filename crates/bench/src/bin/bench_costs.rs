//! Before/after benchmark of the occupancy-index hot path: routes
//! table1/table2-class workloads once, then drives the
//! cost-assignment / DVI-feasibility query mix — route
//! uninstall/reinstall, per-point occupancy probes, and
//! `feasible_candidate` checks — against both the dense
//! [`dvi::LayoutView`] and the pre-dense hash reference, and emits
//! `BENCH_costs.json` with ns/op for both and the speedup.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_costs \
//!     [-- --scale f --seed n --reps k --circuits a,b --out path
//!      --baseline BENCH_costs.json]
//! ```
//!
//! With `--baseline`, the run compares each circuit's *speedup*
//! against the named report and exits non-zero when any circuit's
//! speedup dropped by more than [`TOLERANCE_PCT`] percent, or when the
//! geomean speedup falls below the [`MIN_GEOMEAN_SPEEDUP`] floor — the
//! CI gate that keeps
//! the occupancy index O(1) in practice, not just on paper. The gate
//! works on speedups rather than raw ns/op because both
//! implementations run interleaved on the same host, so load and
//! thermal drift cancel out of the ratio.
//!
//! Both implementations answer the exact same query sequence over the
//! same routed solution, so the ns/op figures divide out to an honest
//! per-query speedup.

use std::hint::black_box;
use std::time::Instant;

use bench_suite::gate::{self, Better, Check};
use bench_suite::RunArgs;
use dvi::candidates::reference;
use dvi::{feasible_candidate, LayoutView};
use sadp_grid::{Dir, NetId, RoutedNet, RoutingSolution, SadpKind};
use sadp_router::{RouterConfig, RoutingSession};

struct PassRun {
    total_ns: u128,
    ops: u64,
    checksum: u64,
}

impl PassRun {
    fn ns_per_op(&self) -> f64 {
        self.total_ns as f64 / self.ops.max(1) as f64
    }
}

/// The query mix of one net: uninstall/reinstall its route, probe
/// occupancy at every covered point (the cost-assignment pattern),
/// and test every DVI candidate direction of its vias (the
/// feasibility pattern). Ops are counted identically for both
/// implementations; the checksum keeps the work observable.
macro_rules! drive_pass {
    ($view:expr, $routes:expr, $feasible:path) => {{
        let mut run = PassRun {
            total_ns: 0,
            ops: 0,
            checksum: 0,
        };
        let t0 = Instant::now();
        for (id, route) in $routes {
            let (id, route): (NetId, &RoutedNet) = (*id, route);
            $view.remove_route(id, route);
            $view.add_route(id, route);
            run.ops += 2;
            for &p in route.covered_points_sorted() {
                run.checksum += $view.occupied_by_other(p, id) as u64;
                run.checksum += $view.distinct_others(p, id) as u64;
                run.ops += 2;
            }
            for &via in route.vias() {
                for dir in Dir::PLANAR {
                    if let Some(c) = $feasible(SadpKind::Sim, &$view, route, id, via, dir) {
                        run.checksum += c.stubs.len() as u64 + 1;
                    }
                    run.ops += 1;
                }
            }
        }
        run.total_ns = t0.elapsed().as_nanos();
        run.checksum = black_box(run.checksum);
        run
    }};
}

fn run_dense(solution: &RoutingSolution, routes: &[(NetId, RoutedNet)]) -> PassRun {
    let mut view = LayoutView::from_solution(solution);
    drive_pass!(
        view,
        routes.iter().map(|(id, r)| (id, r)),
        feasible_candidate
    )
}

fn run_reference(solution: &RoutingSolution, routes: &[(NetId, RoutedNet)]) -> PassRun {
    let mut view = reference::LayoutView::from_solution(solution);
    drive_pass!(
        view,
        routes.iter().map(|(id, r)| (id, r)),
        reference::feasible_candidate_reference
    )
}

/// Largest allowed per-circuit speedup drop vs the baseline, percent.
const TOLERANCE_PCT: f64 = 30.0;

/// The dense index must beat the reference by at least this geomean
/// factor whenever the baseline gate runs — the headline invariant,
/// enforced independently of the committed baseline numbers.
const MIN_GEOMEAN_SPEEDUP: f64 = 3.0;

fn main() {
    let mut args = RunArgs {
        scale: 0.1,
        circuits: Some(gate::list("ecc,efc,ctl,alu")),
        ..RunArgs::default()
    };
    let mut reps = 5usize;
    let mut out = String::from("BENCH_costs.json");
    let mut baseline: Option<String> = None;
    gate::read_flags(
        "[--scale f] [--seed n] [--reps k] [--circuits a,b,...] [--out path] [--baseline path]",
        |flag, val| {
            match flag {
                "--scale" => args.scale = gate::value(flag, val, "a float"),
                "--seed" => args.seed = gate::value(flag, val, "an integer"),
                "--reps" => reps = gate::value(flag, val, "an integer"),
                "--circuits" => args.circuits = Some(gate::list(val)),
                "--out" => out = val.to_string(),
                "--baseline" => baseline = Some(val.to_string()),
                _ => return false,
            }
            true
        },
    );
    let (suite, seed) = (args.suite(), args.seed);

    // One task per circuit; both implementations stay interleaved
    // within a task so contention hits both sides of each ratio
    // equally.
    let per_spec: Vec<(String, f64)> = sadp_exec::map(&suite, |spec| {
        let netlist = spec.generate(seed);
        let outcome =
            RoutingSession::try_new(&spec.grid(), &netlist, RouterConfig::full(SadpKind::Sim))
                .and_then(|s| s.try_finish(&mut sadp_trace::NoopObserver))
                .expect("full flow");
        let solution = outcome.solution;
        let routes: Vec<(NetId, RoutedNet)> = solution
            .iter()
            .map(|(id, route)| (id, route.clone()))
            .collect();
        let via_count: usize = routes.iter().map(|(_, r)| r.vias().len()).sum();
        // Best of `reps` per implementation, interleaved so
        // thermal/cache drift hits both sides equally.
        let mut refr: Option<PassRun> = None;
        let mut dense: Option<PassRun> = None;
        for _ in 0..reps.max(1) {
            let r = run_reference(&solution, &routes);
            if refr.as_ref().is_none_or(|best| r.total_ns < best.total_ns) {
                refr = Some(r);
            }
            let d = run_dense(&solution, &routes);
            if dense.as_ref().is_none_or(|best| d.total_ns < best.total_ns) {
                dense = Some(d);
            }
        }
        let (refr, dense) = (refr.unwrap(), dense.unwrap());
        assert_eq!(
            refr.checksum, dense.checksum,
            "{}: implementations disagree on the query stream",
            spec.name
        );
        assert_eq!(refr.ops, dense.ops, "{}: op counts diverged", spec.name);
        let speedup = refr.ns_per_op() / dense.ns_per_op();
        let metrics = format!(
            "\"nets\": {}, \"vias\": {}, \"grid\": [{}, {}], \
             \"ops\": {}, \"reference_ns_per_op\": {:.1}, \"dense_ns_per_op\": {:.1}, \
             \"speedup\": {:.3}",
            routes.len(),
            via_count,
            spec.width,
            spec.height,
            dense.ops,
            refr.ns_per_op(),
            dense.ns_per_op(),
            speedup
        );
        (metrics, speedup)
    });
    let mut report = gate::Report::new(
        "occupancy-costs",
        seed,
        &[("scale", &args.scale), ("reps", &reps)],
    );
    let mut log_speedup_sum = 0.0f64;
    for (spec, (metrics, speedup)) in suite.iter().zip(per_spec) {
        log_speedup_sum += speedup.ln();
        report.rung(spec.name, &metrics);
    }
    let geomean = (log_speedup_sum / suite.len() as f64).exp();
    report.rung("all", &format!("\"geomean_speedup\": {geomean:.3}"));
    let json = report.to_json();
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("geomean speedup: {geomean:.2}x -> {out}");

    // The gate compares *speedups*, not absolute ns/op: both sides of
    // each ratio run interleaved on the same host, so machine load and
    // thermal drift divide out where raw nanoseconds would not.
    let mut checks = vec![Check::Regression("speedup", Better::Higher, TOLERANCE_PCT)];
    if baseline.is_some() {
        checks.push(Check::Limit(
            "all",
            "geomean_speedup",
            Better::Higher,
            MIN_GEOMEAN_SPEEDUP,
        ));
    }
    gate::enforce(&json, baseline.as_deref(), &checks);
}

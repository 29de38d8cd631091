//! Before/after benchmark of the maze-routing search kernel: routes
//! table1/table2-class workloads once with the reference hash-based
//! Dijkstra and once with the dense A* kernel, then emits
//! `BENCH_search.json` with ns/connection for both and the speedup.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_search \
//!     [-- --scale f --seed n --reps k --circuits a,b --out path
//!      --baseline BENCH_search.json]
//! ```
//!
//! With `--baseline`, the run compares each circuit's dense
//! ns/connection against the named report and exits non-zero when any
//! circuit is slower by more than [`TOLERANCE_PCT`] percent — the CI
//! gate that keeps the observer plumbing (a `NoopObserver`
//! monomorphizes to nothing) from taxing the search hot path.
//!
//! Both kernels route the same netlists in the same HPWL order with
//! routes installed as they land (the initial-routing workload, which
//! dominates router runtime). Equal-cost tie-breaks may give the two
//! kernels slightly different installed routes mid-run; the per-kernel
//! connection counts are reported so the ns/connection figures stay
//! honest.

use std::time::Instant;

use bench_suite::gate::{self, Better, Check};
use bench_suite::RunArgs;
use benchgen::BenchSpec;
use sadp_grid::{NetId, SadpKind};
use sadp_router::dijkstra::route_net_with;
use sadp_router::search::{route_connection, route_connection_reference};
use sadp_router::state::RouterState;
use sadp_router::{CostParams, SearchScratch};

struct KernelRun {
    total_ns: u128,
    connections: u64,
    routed: usize,
    failed: usize,
}

impl KernelRun {
    fn ns_per_connection(&self) -> f64 {
        self.total_ns as f64 / self.connections.max(1) as f64
    }
}

/// Routes every net of the instance with one kernel, timing only the
/// per-net search calls (install/bookkeeping excluded).
fn run_kernel(spec: &BenchSpec, seed: u64, dense: bool) -> KernelRun {
    let netlist = spec.generate(seed);
    let mut state = RouterState::new(
        spec.grid(),
        &netlist,
        SadpKind::Sim,
        CostParams::default(),
        true,
        true,
    );
    let mut order: Vec<NetId> = netlist.iter().map(|(id, _)| id).collect();
    order.sort_by_key(|&id| (netlist[id].hpwl(), id));
    let mut scratch = SearchScratch::new();
    let mut run = KernelRun {
        total_ns: 0,
        connections: 0,
        routed: 0,
        failed: 0,
    };
    for id in order {
        let t0 = Instant::now();
        let routed = route_net_with(&state, id, &netlist[id], |st, id, src, tree, tgt, win| {
            run.connections += 1;
            if dense {
                route_connection(st, id, src, tree, tgt, win, &mut scratch)
            } else {
                route_connection_reference(st, id, src, tree, tgt, win)
            }
        });
        run.total_ns += t0.elapsed().as_nanos();
        match routed {
            Some(route) => {
                state.install_route(id, route);
                run.routed += 1;
            }
            None => run.failed += 1,
        }
    }
    run
}

/// Largest allowed dense ns/connection regression vs the baseline,
/// percent.
const TOLERANCE_PCT: f64 = 3.0;

fn main() {
    let mut args = RunArgs {
        scale: 0.1,
        circuits: Some(gate::list("ecc,efc,ctl,alu")),
        ..RunArgs::default()
    };
    let mut reps = 3usize;
    let mut out = String::from("BENCH_search.json");
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

    // One task per circuit. Both kernels stay interleaved *within* a
    // task, so even when circuits time concurrently the contention
    // hits both sides of each speedup ratio equally; rungs merge in
    // suite order.
    let per_spec: Vec<(String, f64)> = sadp_exec::map(&suite, |spec| {
        // Best of `reps` per kernel, interleaved so thermal/cache
        // drift hits both sides equally.
        let mut reference: Option<KernelRun> = None;
        let mut dense: Option<KernelRun> = None;
        for _ in 0..reps.max(1) {
            let r = run_kernel(spec, seed, false);
            if reference
                .as_ref()
                .is_none_or(|best| r.total_ns < best.total_ns)
            {
                reference = Some(r);
            }
            let d = run_kernel(spec, seed, true);
            if dense.as_ref().is_none_or(|best| d.total_ns < best.total_ns) {
                dense = Some(d);
            }
        }
        let (reference, dense) = (reference.unwrap(), dense.unwrap());
        assert_eq!(
            reference.failed, 0,
            "{}: reference kernel failed nets",
            spec.name
        );
        assert_eq!(dense.failed, 0, "{}: dense kernel failed nets", spec.name);
        let speedup = reference.ns_per_connection() / dense.ns_per_connection();
        let metrics = format!(
            "\"nets\": {}, \"grid\": [{}, {}], \
             \"reference_ns_per_connection\": {:.1}, \"reference_connections\": {}, \
             \"dense_ns_per_connection\": {:.1}, \"dense_connections\": {}, \
             \"speedup\": {:.3}",
            reference.routed,
            spec.width,
            spec.height,
            reference.ns_per_connection(),
            reference.connections,
            dense.ns_per_connection(),
            dense.connections,
            speedup
        );
        (metrics, speedup)
    });
    let mut report = gate::Report::new(
        "search-kernel",
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
    gate::enforce(
        &json,
        baseline.as_deref(),
        &[Check::Regression(
            "dense_ns_per_connection",
            Better::Lower,
            TOLERANCE_PCT,
        )],
    );
}

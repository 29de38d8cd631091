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
//!      --baseline BENCH_costs.json --tolerance 3.0]
//! ```
//!
//! With `--baseline`, the run compares each circuit's *speedup*
//! against the named report and exits non-zero when any circuit's
//! speedup dropped by more than `--tolerance` percent, or when the
//! geomean speedup falls below the 3x floor — the CI gate that keeps
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

use benchgen::BenchSpec;
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

fn parse_or_die<T: std::str::FromStr>(val: &str, flag: &str, what: &str) -> T {
    val.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes {what}, got {val:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut scale = 0.1f64;
    let mut seed = 1u64;
    let mut reps = 5usize;
    let mut circuits: Vec<String> = ["ecc", "efc", "ctl", "alu"].map(String::from).to_vec();
    let mut out = String::from("BENCH_costs.json");
    let mut baseline: Option<String> = None;
    let mut tolerance = 3.0f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--scale" => scale = parse_or_die(need(i), "--scale", "a float"),
            "--seed" => seed = parse_or_die(need(i), "--seed", "an integer"),
            "--reps" => reps = parse_or_die(need(i), "--reps", "an integer"),
            "--circuits" => circuits = need(i).split(',').map(|s| s.trim().to_string()).collect(),
            "--out" => out = need(i).clone(),
            "--baseline" => baseline = Some(need(i).clone()),
            "--tolerance" => tolerance = parse_or_die(need(i), "--tolerance", "a percentage"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--scale f] [--seed n] [--reps k] [--circuits a,b,...] [--out path] \
                     [--baseline path] [--tolerance pct]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let suite: Vec<BenchSpec> = BenchSpec::paper_suite()
        .into_iter()
        .filter(|s| circuits.iter().any(|n| n == s.name))
        .map(|s| s.scaled(scale))
        .collect();
    if suite.is_empty() {
        eprintln!("no circuits matched {:?} (try --help)", circuits.join(","));
        std::process::exit(2);
    }

    // One task per circuit; both implementations stay interleaved
    // within a task so contention hits both sides of each ratio
    // equally.
    let per_spec: Vec<(String, f64, String)> = sadp_exec::map(&suite, |spec| {
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
        let log = format!(
            "  {}: {} nets, {} vias, {} ops, reference {:.1} ns/op, dense {:.1} ns/op -> {:.2}x",
            spec.name,
            routes.len(),
            via_count,
            dense.ops,
            refr.ns_per_op(),
            dense.ns_per_op(),
            speedup
        );
        let row = format!(
            "    {{\"name\": \"{}\", \"nets\": {}, \"vias\": {}, \"grid\": [{}, {}], \
             \"ops\": {}, \"reference_ns_per_op\": {:.1}, \"dense_ns_per_op\": {:.1}, \
             \"speedup\": {:.3}}}",
            spec.name,
            routes.len(),
            via_count,
            spec.width,
            spec.height,
            dense.ops,
            refr.ns_per_op(),
            dense.ns_per_op(),
            speedup
        );
        (row, speedup, log)
    });
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0f64;
    for (row, speedup, log) in per_spec {
        eprintln!("{log}");
        log_speedup_sum += speedup.ln();
        rows.push(row);
    }
    let geomean = (log_speedup_sum / suite.len() as f64).exp();
    let json = format!(
        "{{\n  \"bench\": \"occupancy-costs\",\n  \"seed\": {seed},\n  \"scale\": {scale},\n  \
         \"reps\": {reps},\n  \"workloads\": [\n{}\n  ],\n  \"geomean_speedup\": {geomean:.3}\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("geomean speedup: {geomean:.2}x -> {out}");

    // The gate compares *speedups*, not absolute ns/op: both sides of
    // each ratio run interleaved on the same host, so machine load and
    // thermal drift divide out where raw nanoseconds would not.
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failures = 0usize;
        for spec in &suite {
            let Some(base) = circuit_speedup(&text, spec.name) else {
                eprintln!("  baseline {path} has no entry for {}; skipping", spec.name);
                continue;
            };
            let now = circuit_speedup(&json, spec.name).expect("own report has the circuit");
            let delta = (now - base) / base * 100.0;
            let verdict = if delta < -tolerance { "FAIL" } else { "ok" };
            eprintln!(
                "  baseline check {}: {now:.2}x vs {base:.2}x baseline ({delta:+.1}%) {verdict}",
                spec.name
            );
            if delta < -tolerance {
                failures += 1;
            }
        }
        if geomean < MIN_GEOMEAN_SPEEDUP {
            eprintln!("geomean speedup {geomean:.2}x is below the {MIN_GEOMEAN_SPEEDUP:.1}x floor");
            failures += 1;
        }
        if failures > 0 {
            eprintln!("{failures} check(s) regressed more than {tolerance}% vs {path}");
            std::process::exit(1);
        }
        println!("baseline check passed: all speedups within {tolerance}% of {path}");
    }
}

/// The dense index must beat the reference by at least this geomean
/// factor whenever the baseline gate runs — the headline invariant,
/// enforced independently of the committed baseline numbers.
const MIN_GEOMEAN_SPEEDUP: f64 = 3.0;

/// Pulls `"speedup"` for one circuit out of a `BENCH_costs.json`
/// document (string scan — the workspace has no JSON parser
/// dependency).
fn circuit_speedup(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let key = "\"speedup\": ";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find([',', '}'])?;
    v[..end].trim().parse().ok()
}

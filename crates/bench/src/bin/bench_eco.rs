//! Warm-start (ECO) speedup sweep: routes a base circuit to
//! convergence, perturbs it with pad-move deltas of increasing size,
//! and compares `RoutingSession::apply_delta` + warm finish against a
//! from-scratch route of the edited layout. Emits `BENCH_eco.json`
//! with per-rung wall clocks and the geomean speedup per delta size.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_eco \
//!     [-- --rungs small|medium|full --seed n --reps k --out path
//!      --baseline BENCH_eco.json]
//! ```
//!
//! Every run gates the geomean of the 1-net-delta rows at
//! [`MIN_SPEEDUP`] — the headline claim that editing one net must not
//! cost a full reroute. `--baseline` additionally compares every row's
//! speedup against a committed report at [`TOLERANCE_PCT`] percent
//! slack (speedups are ratios of two same-host measurements, so they
//! travel better across machines than absolute times, but still
//! breathe with load).

use std::collections::HashSet;
use std::time::Instant;

use bench_suite::gate::{self, Better, Check};
use benchgen::BenchSpec;
use sadp_grid::{LayoutDelta, NetId, Netlist, Pin, RoutingGrid, SadpKind};
use sadp_router::{eco, RouterConfig, RoutingSession};
use sadp_trace::NoopObserver;

/// One sweep rung: display name + fully resolved spec.
struct Rung {
    name: &'static str,
    spec: BenchSpec,
}

/// The sweep ladder. `level` 0 = small (PR-fast), 1 = medium (the
/// committed baseline), 2 = full (nightly).
fn ladder(level: u8) -> Vec<Rung> {
    let ecc = BenchSpec::by_name("ecc").expect("paper suite has ecc");
    let mut rungs = vec![
        Rung {
            name: "ecc-0.25",
            spec: ecc.scaled(0.25),
        },
        Rung {
            name: "ecc-1.0",
            spec: ecc,
        },
    ];
    if level >= 1 {
        rungs.push(Rung {
            name: "alu-1.0",
            spec: BenchSpec::by_name("alu").expect("paper suite has alu"),
        });
        rungs.push(Rung {
            name: "div-1.0",
            spec: BenchSpec::by_name("div").expect("paper suite has div"),
        });
    }
    if level >= 2 {
        rungs.push(Rung {
            name: "top-1.0",
            spec: BenchSpec::by_name("top").expect("paper suite has top"),
        });
    }
    rungs
}

const DELTA_SIZES: [usize; 3] = [1, 8, 64];

/// The nearest cell to `(x, y)` not covered by any pad in `used`,
/// by expanding Chebyshev rings (deterministic scan order).
fn nearest_free(x: i32, y: i32, grid: &RoutingGrid, used: &HashSet<(i32, i32)>) -> (i32, i32) {
    let reach = grid.width().max(grid.height());
    for r in 1..reach {
        for dy in -r..=r {
            for dx in -r..=r {
                if dx.abs().max(dy.abs()) != r {
                    continue;
                }
                let (nx, ny) = (x + dx, y + dy);
                if nx >= 0
                    && ny >= 0
                    && nx < grid.width()
                    && ny < grid.height()
                    && !used.contains(&(nx, ny))
                {
                    return (nx, ny);
                }
            }
        }
    }
    panic!("die has no free cell near ({x},{y})");
}

/// A `k`-net ECO: moves the first pad of `k` evenly spaced nets to
/// the nearest free cell. Targets avoid every pad (original or newly
/// placed) — co-located pads of different nets overlap permanently
/// through their pin stubs, which would make the edit unroutable for
/// warm and cold alike.
fn make_delta(grid: &RoutingGrid, nl: &Netlist, k: usize) -> LayoutDelta {
    let mut used: HashSet<(i32, i32)> = nl
        .iter()
        .flat_map(|(_, n)| n.pins().iter().map(|p| (p.x, p.y)))
        .collect();
    let stride = (nl.len() / k).max(1);
    let mut d = LayoutDelta::new();
    for i in 0..k {
        let id = NetId((i * stride) as u32);
        let from = nl[id].pins()[0];
        let to = nearest_free(from.x, from.y, grid, &used);
        used.insert(to);
        d.move_pad(id, from, Pin::new(to.0, to.1));
    }
    d
}

struct Row {
    name: String,
    nets: usize,
    delta_nets: usize,
    victims: usize,
    warm_ms: f64,
    cold_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(1e-6)
    }
}

/// Measures one (rung, delta size) cell: best-of-`reps` warm and cold
/// wall clocks over identical edits.
fn run_cell(rung: &Rung, k: usize, seed: u64, reps: usize) -> Row {
    let grid = rung.spec.grid();
    let nl = rung.spec.generate(seed);
    let delta = make_delta(&grid, &nl, k);
    let mut edited = nl.clone();
    delta.apply_to_netlist(&mut edited);
    let config = RouterConfig::full(SadpKind::Sim);
    let mut obs = NoopObserver;

    let mut victims = 0usize;
    let mut warm_best = f64::MAX;
    let mut cold_best = f64::MAX;
    for _ in 0..reps.max(1) {
        // Warm: converge the base (untimed), then time the delta
        // application plus the warm finish. Both arms end in
        // `try_finish`, so both wall clocks include one final audit.
        let mut base =
            RoutingSession::try_new(&grid, &nl, config).expect("paper circuits are valid");
        assert!(
            base.ensure_colorable(&mut obs),
            "{}: base must converge",
            rung.name
        );
        victims = eco::analyze(base.state(), &nl, &delta).victims.len();
        let t0 = Instant::now();
        base.apply_delta(&edited, &delta, &mut obs)
            .expect("bench delta is valid");
        let warm_out = base.try_finish(&mut obs).expect("warm finish");
        warm_best = warm_best.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            warm_out.routed_all,
            "{}: warm run must route all after a {k}-net delta",
            rung.name
        );

        // Cold: route the edited layout from scratch.
        let t0 = Instant::now();
        let cold = RoutingSession::try_new(&grid, &edited, config).expect("edited layout is valid");
        let cold_out = cold.try_finish(&mut obs).expect("cold finish");
        cold_best = cold_best.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            cold_out.routed_all,
            "{}: cold run must route all",
            rung.name
        );
    }

    Row {
        name: format!("{}/d{k}", rung.name),
        nets: nl.len(),
        delta_nets: k,
        victims,
        warm_ms: warm_best,
        cold_ms: cold_best,
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Floor of the geomean warm-vs-cold speedup of the 1-net edits.
const MIN_SPEEDUP: f64 = 5.0;

/// Largest allowed per-row speedup drop vs the baseline, percent.
const TOLERANCE_PCT: f64 = 40.0;

fn main() {
    let mut level = 1u8;
    let mut seed = 1u64;
    let mut reps = 2usize;
    let mut out = String::from("BENCH_eco.json");
    let mut baseline: Option<String> = None;
    gate::read_flags(
        "[--rungs small|medium|full] [--seed n] [--reps k] [--out path] [--baseline path]",
        |flag, val| {
            match flag {
                "--rungs" => level = gate::ladder_level(flag, val),
                "--seed" => seed = gate::value(flag, val, "an integer"),
                "--reps" => reps = gate::value(flag, val, "an integer"),
                "--out" => out = val.to_string(),
                "--baseline" => baseline = Some(val.to_string()),
                _ => return false,
            }
            true
        },
    );

    let mut report = gate::Report::new("eco-warm-start", seed, &[("reps", &reps)]);
    let mut rows: Vec<Row> = Vec::new();
    for rung in ladder(level) {
        for k in DELTA_SIZES {
            let r = run_cell(&rung, k, seed, reps);
            report.rung(
                &r.name,
                &format!(
                    "\"nets\": {}, \"delta_nets\": {k}, \"victims\": {}, \"warm_ms\": {:.2}, \
                     \"cold_ms\": {:.2}, \"speedup\": {:.2}",
                    r.nets,
                    r.victims,
                    r.warm_ms,
                    r.cold_ms,
                    r.speedup()
                ),
            );
            rows.push(r);
        }
    }
    let all: Vec<String> = DELTA_SIZES
        .iter()
        .map(|&k| {
            let g = geomean(rows.iter().filter(|r| r.delta_nets == k).map(Row::speedup));
            format!("\"geomean_speedup_d{k}\": {g:.2}")
        })
        .collect();
    report.rung("all", &all.join(", "));
    let json = report.to_json();
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{} row(s) -> {out}", rows.len());
    gate::enforce(
        &json,
        baseline.as_deref(),
        &[
            Check::Limit("all", "geomean_speedup_d1", Better::Higher, MIN_SPEEDUP),
            Check::Regression("speedup", Better::Higher, TOLERANCE_PCT),
        ],
    );
}

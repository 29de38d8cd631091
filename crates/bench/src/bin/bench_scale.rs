//! Scale sweep of the routing kernel: initial-routes instances from
//! bench scale 0.05 up through the full paper circuits and a 10⁵-net
//! synthetic, then emits `BENCH_scale.json` with ns/connection and
//! peak RSS per rung.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_scale \
//!     [-- --rungs small|medium|full --seed n --reps k --out path
//!      --baseline BENCH_scale.json]
//! ```
//!
//! Rungs run in ascending instance size. Peak RSS is the process
//! high-water mark (`VmHWM`) sampled after each rung, so a rung's
//! figure includes everything smaller that ran before it — with
//! ascending order the largest rung dominates its own number, which is
//! the quantity the regression gate cares about.
//!
//! With `--baseline`, every rung present in both the run and the named
//! report is compared on ns/connection ([`TOLERANCE_PCT`]) and peak RSS
//! ([`RSS_TOLERANCE_PCT`]); rungs present in only one side are skipped
//! with a note, so the PR-sized `--rungs small`/`medium` runs gate
//! cleanly against the committed full-sweep baseline. A zero RSS on
//! either side means `/proc/self/status` was unreadable for that run
//! (e.g. a non-Linux host), so the RSS leg is skipped, not gated.

use std::time::Instant;

use bench_suite::gate::{self, Better, Check};
use benchgen::BenchSpec;
use sadp_grid::{NetId, SadpKind};
use sadp_router::dijkstra::route_net;
use sadp_router::state::RouterState;
use sadp_router::{CostParams, SearchScratch};

/// One sweep rung: display name + fully resolved spec.
struct Rung {
    name: &'static str,
    spec: BenchSpec,
}

/// The sweep ladder, ascending by net count. `level` 0 = small
/// (PR-fast), 1 = medium, 2 = full (nightly / baseline refresh).
fn ladder(level: u8) -> Vec<Rung> {
    let ecc = BenchSpec::by_name("ecc").expect("paper suite has ecc");
    let mut rungs = vec![
        Rung {
            name: "ecc-0.05",
            spec: ecc.scaled(0.05),
        },
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
            name: "div-1.0",
            spec: BenchSpec::by_name("div").expect("paper suite has div"),
        });
    }
    if level >= 2 {
        rungs.push(Rung {
            name: "top-1.0",
            spec: BenchSpec::by_name("top").expect("paper suite has top"),
        });
        rungs.push(Rung {
            name: "synth-100k",
            spec: BenchSpec::synthetic(100_000),
        });
    }
    rungs
}

struct RungResult {
    connections: u64,
    routed: usize,
    failed: usize,
    total_ns: u128,
    peak_rss_kb: u64,
}

impl RungResult {
    fn ns_per_connection(&self) -> f64 {
        self.total_ns as f64 / self.connections.max(1) as f64
    }
}

/// Initial-routes the instance once in HPWL order (the workload that
/// dominates router runtime), timing the per-net search calls.
fn run_rung(spec: &BenchSpec, seed: u64) -> RungResult {
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
    let mut result = RungResult {
        connections: 0,
        routed: 0,
        failed: 0,
        total_ns: 0,
        peak_rss_kb: 0,
    };
    for id in order {
        let before = scratch.searches;
        let t0 = Instant::now();
        let routed = route_net(&state, id, &netlist[id], &mut scratch);
        result.total_ns += t0.elapsed().as_nanos();
        result.connections += scratch.searches - before;
        match routed {
            Some(route) => {
                state.install_route(id, route);
                result.routed += 1;
            }
            None => result.failed += 1,
        }
    }
    result.peak_rss_kb = peak_rss_kb();
    result
}

/// Process peak resident set (`VmHWM`) in KiB, 0 if unreadable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Largest allowed ns/connection regression vs the baseline, percent.
const TOLERANCE_PCT: f64 = 25.0;

/// Largest allowed peak-RSS regression vs the baseline, percent.
const RSS_TOLERANCE_PCT: f64 = 50.0;

fn main() {
    let mut level = 2u8;
    let mut seed = 1u64;
    let mut reps = 1usize;
    let mut out = String::from("BENCH_scale.json");
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

    // Serial, ascending: rung order is what keeps the cumulative
    // VmHWM figures attributable (see module docs).
    let mut report = gate::Report::new("scale-sweep", seed, &[("reps", &reps)]);
    let ladder = ladder(level);
    for rung in &ladder {
        let mut best: Option<RungResult> = None;
        for _ in 0..reps.max(1) {
            let r = run_rung(&rung.spec, seed);
            if best.as_ref().is_none_or(|b| r.total_ns < b.total_ns) {
                best = Some(r);
            }
        }
        let r = best.expect("at least one rep ran");
        assert_eq!(
            r.failed, 0,
            "{}: initial routing failed {} nets",
            rung.name, r.failed
        );
        report.rung(
            rung.name,
            &format!(
                "\"nets\": {}, \"grid\": [{}, {}], \"connections\": {}, \
                 \"ns_per_connection\": {:.1}, \"total_ms\": {:.1}, \"peak_rss_kb\": {}",
                r.routed,
                rung.spec.width,
                rung.spec.height,
                r.connections,
                r.ns_per_connection(),
                r.total_ns as f64 / 1e6,
                r.peak_rss_kb
            ),
        );
    }
    let json = report.to_json();
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{} rung(s) -> {out}", ladder.len());
    gate::enforce(
        &json,
        baseline.as_deref(),
        &[
            Check::Regression("ns_per_connection", Better::Lower, TOLERANCE_PCT),
            Check::Regression("peak_rss_kb", Better::Lower, RSS_TOLERANCE_PCT),
        ],
    );
}

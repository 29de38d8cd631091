//! Durability cost/benefit bench: what the write-ahead journal costs
//! per job, how long a restart spends scanning journals of growing
//! size, and what a checkpoint warm-restart saves over a cold re-run.
//! Emits `BENCH_recovery.json`.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_recovery \
//!     [-- --jobs n --workers w --seed n --out path
//!      --baseline BENCH_recovery.json]
//! ```
//!
//! Hard gates: every job terminal, identical fingerprints between the
//! plain and durable runs, warm-restart outcome identical to cold, and
//! journal overhead within [`MAX_OVERHEAD_PCT`] percent. With
//! `--baseline`, durable throughput and recovery-scan speed are also
//! gated against the committed numbers at [`TOLERANCE_PCT`]
//! (latency-style metrics swing with host io, so the tolerance is
//! generous).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bench_suite::gate::{self, Better, Check};
use sadp_grid::SadpKind;
use sadp_router::{RouteBudget, RouterConfig, RoutingSession};
use sadp_service::{
    DurabilityConfig, JobId, JobOutcome, JobSource, Journal, Priority, RouteRequest, Service,
    ServiceConfig,
};
use sadp_trace::NoopObserver;

/// The job mix both the plain and durable legs run: medium synthetic
/// instances across kinds and priority bands, big enough that routing
/// work dominates and the two fsyncs per job are the measured margin.
fn make_request(i: usize, seed: u64) -> RouteRequest {
    let mut request = RouteRequest::new(
        JobSource::Synthetic {
            nets: 30 + (i % 5) * 10,
            seed: seed.wrapping_add(i as u64),
        },
        if i.is_multiple_of(2) {
            SadpKind::Sim
        } else {
            SadpKind::Sid
        },
    );
    request.priority = match i % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    };
    request
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sadp-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits the mix, drains it, and returns (wall, fingerprints in job
/// order). Exits on any non-terminal or failed job — a durability
/// bench over broken runs would be meaningless.
fn run_leg(service: &Service, jobs: usize, seed: u64) -> (Duration, Vec<u64>) {
    let t0 = Instant::now();
    let ids: Vec<JobId> = (0..jobs)
        .map(|i| {
            service.submit(make_request(i, seed)).unwrap_or_else(|e| {
                eprintln!("submit {i} rejected: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    let fingerprints: Vec<u64> = ids
        .iter()
        .map(|id| {
            let response = service.wait(*id).unwrap_or_else(|| {
                eprintln!("{id} unknown to the service");
                std::process::exit(1);
            });
            match response.outcome {
                JobOutcome::Completed { summary, .. } => summary.fingerprint,
                other => {
                    eprintln!("{id} did not complete: {}", other.name());
                    std::process::exit(1);
                }
            }
        })
        .collect();
    (t0.elapsed(), fingerprints)
}

/// Times a recovery scan over a journal holding `records` live accepts.
fn time_recovery_scan(records: usize, seed: u64) -> Duration {
    let dir = scratch_dir(&format!("scan-{records}"));
    {
        let (mut journal, _, _) = Journal::open(&dir).expect("fresh journal");
        for i in 0..records {
            journal
                .append_accept(JobId(i as u64 + 1), &make_request(i, seed))
                .expect("append accept");
        }
    }
    let t0 = Instant::now();
    let (_, recovered, truncated) = Journal::open(&dir).expect("scan journal");
    let wall = t0.elapsed();
    assert_eq!(recovered.len(), records);
    assert!(!truncated);
    let _ = std::fs::remove_dir_all(&dir);
    wall
}

/// Largest allowed write-ahead journal cost, percent of plain wall.
const MAX_OVERHEAD_PCT: f64 = 10.0;

/// Largest allowed worsening of durable throughput and recovery-scan
/// time vs the baseline, percent.
const TOLERANCE_PCT: f64 = 60.0;

fn main() {
    let mut jobs = 200usize;
    let mut workers = 0usize;
    let mut seed = 1u64;
    let mut out = String::from("BENCH_recovery.json");
    let mut baseline: Option<String> = None;
    gate::read_flags(
        "[--jobs n] [--workers w] [--seed n] [--out path] [--baseline path]",
        |flag, val| {
            match flag {
                "--jobs" => jobs = gate::value(flag, val, "an integer"),
                "--workers" => workers = gate::value(flag, val, "an integer"),
                "--seed" => seed = gate::value(flag, val, "an integer"),
                "--out" => out = val.to_string(),
                "--baseline" => baseline = Some(val.to_string()),
                _ => return false,
            }
            true
        },
    );

    let config = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };

    // Leg 1: the same mixed load on a plain and on a durable service.
    let plain = Service::start(config);
    let pool = plain.workers();
    eprintln!("journal overhead: {jobs} job(s) on {pool} worker(s), plain vs durable");
    let (plain_wall, plain_fps) = run_leg(&plain, jobs, seed);
    plain.shutdown();

    let dir = scratch_dir("overhead");
    let (durable, report) =
        Service::start_durable(config, DurabilityConfig::new(&dir)).expect("fresh durable service");
    assert!(report.requeued.is_empty() && report.replayed.is_empty());
    let (durable_wall, durable_fps) = run_leg(&durable, jobs, seed);
    durable.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if plain_fps != durable_fps {
        eprintln!("FATAL: durable run diverged from plain run on the same requests");
        std::process::exit(1);
    }
    let plain_s = plain_wall.as_secs_f64();
    let durable_s = durable_wall.as_secs_f64();
    let overhead_pct = (durable_s - plain_s) / plain_s * 100.0;
    let overhead_us_per_job = (durable_s - plain_s) * 1e6 / jobs as f64;
    let plain_jps = jobs as f64 / plain_s;
    let durable_jps = jobs as f64 / durable_s;

    // Leg 2: recovery-scan time as the journal grows.
    let scan_sizes = [50usize, 200, 800];
    let scan_ms: Vec<f64> = scan_sizes
        .iter()
        .map(|&n| {
            let wall = time_recovery_scan(n, seed);
            let ms = wall.as_secs_f64() * 1e3;
            eprintln!("recovery scan: {n} live record(s) in {ms:.2} ms");
            ms
        })
        .collect();
    let recover_us_per_record = scan_ms[2] * 1e3 / scan_sizes[2] as f64;

    // Leg 3: checkpoint warm-restart vs cold re-run on a circuit that
    // takes several negotiation slices to converge.
    let spec_request = {
        let mut r = RouteRequest::new(
            JobSource::Spec {
                name: "ecc".into(),
                scale: 0.02,
                seed: 7,
            },
            SadpKind::Sim,
        );
        r.arm = sadp_service::Arm::Full;
        r
    };
    let (grid, netlist) = spec_request
        .source
        .materialize()
        .expect("spec materializes");
    let router_config: RouterConfig = spec_request.router_config().expect("config builds");
    let mut obs = NoopObserver;
    let t0 = Instant::now();
    let cold = RoutingSession::try_new(&grid, &netlist, router_config)
        .expect("session builds")
        .finish(&mut obs);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The snapshot a crashed worker would have left mid-run.
    let checkpoint = {
        let mut session =
            RoutingSession::try_new(&grid, &netlist, router_config).expect("session builds");
        session.set_budget(RouteBudget::unlimited().with_max_phase_iters(3));
        session.initial_route(&mut obs);
        session.negotiate(&mut obs);
        session.tpl_removal(&mut obs);
        session.ensure_colorable(&mut obs);
        assert!(
            !session.converged(),
            "instance converged before a slice cut"
        );
        session.checkpoint()
    };
    let t0 = Instant::now();
    let mut warm_session = RoutingSession::restore(&grid, &netlist, router_config, &checkpoint)
        .expect("checkpoint restores");
    warm_session.set_budget(RouteBudget::unlimited());
    let warm = warm_session.finish(&mut obs);
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    if (
        warm.stats.wirelength,
        warm.stats.vias,
        warm.routed_all,
        warm.colorable,
    ) != (
        cold.stats.wirelength,
        cold.stats.vias,
        cold.routed_all,
        cold.colorable,
    ) {
        eprintln!("FATAL: warm restart diverged from the cold run");
        std::process::exit(1);
    }
    let warm_speedup = cold_ms / warm_ms.max(1e-6);

    let mut report = gate::Report::new("recovery", seed, &[("workers", &pool), ("jobs", &jobs)]);
    report.rung(
        "all",
        &format!(
            "\"plain_jobs_per_sec\": {plain_jps:.1}, \"durable_jobs_per_sec\": {durable_jps:.1}, \
             \"journal_overhead_pct\": {overhead_pct:.2}, \
             \"journal_overhead_us_per_job\": {overhead_us_per_job:.1}, \
             \"recover_ms_50\": {:.3}, \"recover_ms_200\": {:.3}, \"recover_ms_800\": {:.3}, \
             \"recover_us_per_record\": {recover_us_per_record:.2}, \
             \"cold_route_ms\": {cold_ms:.1}, \"warm_restore_ms\": {warm_ms:.1}, \
             \"warm_speedup\": {warm_speedup:.2}, \"all_terminal\": true",
            scan_ms[0], scan_ms[1], scan_ms[2],
        ),
    );
    let json = report.to_json();
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{jobs} job(s) -> {out}");
    gate::enforce(
        &json,
        baseline.as_deref(),
        &[
            Check::Limit(
                "all",
                "journal_overhead_pct",
                Better::Lower,
                MAX_OVERHEAD_PCT,
            ),
            Check::Regression("durable_jobs_per_sec", Better::Higher, TOLERANCE_PCT),
            Check::Regression("recover_us_per_record", Better::Lower, TOLERANCE_PCT),
        ],
    );
}

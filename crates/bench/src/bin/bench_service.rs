//! Load generator for the routing service: a mixed-priority stream of
//! small interactive jobs plus a handful of bulk instances, measured
//! from the client side. Emits `BENCH_service.json` with throughput
//! (jobs/sec), submit→completion latency (p50/p99), and the
//! deadline-miss rate of deadline-budgeted jobs.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_service \
//!     [-- --jobs n --workers w --seed n --out path
//!      --baseline BENCH_service.json]
//! ```
//!
//! With `--baseline`, throughput is gated (a drop beyond
//! [`TOLERANCE_PCT`] fails the run); latency percentiles and the miss
//! rate are reported but not hard-gated — they swing with host speed,
//! while a throughput collapse or a non-terminal job is a real
//! regression on any host.
//! `all_terminal` is always a hard gate: every submitted job must
//! reach a typed terminal outcome for the run to count at all.

use std::time::{Duration, Instant};

use bench_suite::gate::{self, Better, Check};
use sadp_grid::SadpKind;
use sadp_router::Termination;
use sadp_service::{
    JobBudget, JobId, JobOutcome, JobSource, Priority, RouteRequest, Service, ServiceConfig,
};

struct JobRecord {
    id: JobId,
    submitted: Instant,
    has_deadline: bool,
    completed: Option<Instant>,
    outcome: Option<&'static str>,
    deadline_missed: bool,
}

/// The job mix: mostly small interactive instances across all three
/// priority bands, every 6th with a wall-clock deadline, and every
/// 40th a bulk low-priority instance an order of magnitude larger.
fn make_request(i: usize, seed: u64) -> RouteRequest {
    let bulk = i % 40 == 39;
    let nets = if bulk { 600 } else { 30 + (i % 7) * 8 };
    let mut request = RouteRequest::new(
        JobSource::Synthetic {
            nets,
            seed: seed.wrapping_add(i as u64),
        },
        if i.is_multiple_of(2) {
            SadpKind::Sim
        } else {
            SadpKind::Sid
        },
    );
    request.priority = if bulk {
        Priority::Low
    } else {
        match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        }
    };
    if !bulk && i.is_multiple_of(6) {
        // Generous for the job size: misses stay rare on a healthy
        // service and spike when scheduling or slicing regresses.
        request.budget = JobBudget {
            deadline_ms: Some(2_000),
            ..JobBudget::unlimited()
        };
    }
    request
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Largest allowed throughput drop vs the baseline, percent
/// (generous: the baseline host and a CI runner differ in core count;
/// a real scheduling or slicing regression costs integer factors).
const TOLERANCE_PCT: f64 = 60.0;

fn main() {
    let mut jobs = 400usize;
    let mut workers = 0usize;
    let mut seed = 1u64;
    let mut out = String::from("BENCH_service.json");
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

    let service = Service::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let pool = service.workers();
    eprintln!("submitting {jobs} job(s) to {pool} worker(s)");

    let t0 = Instant::now();
    let mut records: Vec<JobRecord> = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let request = make_request(i, seed);
        let has_deadline = request.budget.deadline_ms.is_some();
        let submitted = Instant::now();
        let id = service.submit(request).unwrap_or_else(|e| {
            eprintln!("submit {i} rejected: {e}");
            std::process::exit(1);
        });
        records.push(JobRecord {
            id,
            submitted,
            has_deadline,
            completed: None,
            outcome: None,
            deadline_missed: false,
        });
    }

    // Client-side completion sampling: poll every pending job on a
    // short period and stamp the first observation. The sampling
    // period (1ms) bounds the latency measurement error.
    let mut pending = jobs;
    while pending > 0 {
        for record in records.iter_mut().filter(|r| r.completed.is_none()) {
            let Some(status) = service.poll(record.id) else {
                continue;
            };
            let Some(response) = status.response else {
                continue;
            };
            record.completed = Some(Instant::now());
            record.outcome = Some(match &response.outcome {
                JobOutcome::Completed { summary, .. } => {
                    if record.has_deadline && summary.termination == Termination::Deadline {
                        record.deadline_missed = true;
                    }
                    "completed"
                }
                JobOutcome::Failed { .. } => "failed",
                JobOutcome::Cancelled => "cancelled",
            });
            pending -= 1;
        }
        if pending > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let wall = t0.elapsed();
    let done = service.shutdown();

    let all_terminal = done == jobs && records.iter().all(|r| r.outcome.is_some());
    let completed = records
        .iter()
        .filter(|r| r.outcome == Some("completed"))
        .count();
    let failed = records
        .iter()
        .filter(|r| r.outcome == Some("failed"))
        .count();
    let mut latencies_ms: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            r.completed
                .map(|t| t.duration_since(r.submitted).as_secs_f64() * 1e3)
        })
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let deadline_jobs = records.iter().filter(|r| r.has_deadline).count();
    let deadline_missed = records.iter().filter(|r| r.deadline_missed).count();
    let jobs_per_sec = jobs as f64 / wall.as_secs_f64();
    let p50 = percentile(&latencies_ms, 50.0);
    let p99 = percentile(&latencies_ms, 99.0);
    let miss_rate = deadline_missed as f64 / deadline_jobs.max(1) as f64;

    eprintln!(
        "  {jobs} jobs in {:.2} s: {jobs_per_sec:.1} jobs/s, p50 {p50:.1} ms, p99 {p99:.1} ms, \
         {completed} completed / {failed} failed, {deadline_missed}/{deadline_jobs} deadline miss",
        wall.as_secs_f64()
    );
    if !all_terminal {
        eprintln!("FATAL: not every job reached a terminal outcome ({done}/{jobs} terminal)");
        std::process::exit(1);
    }

    let mut report =
        gate::Report::new("service-load", seed, &[("workers", &pool), ("jobs", &jobs)]);
    report.rung(
        "all",
        &format!(
            "\"jobs_per_sec\": {jobs_per_sec:.1}, \"p50_ms\": {p50:.2}, \"p99_ms\": {p99:.2}, \
             \"deadline_miss_rate\": {miss_rate:.4}, \"completed\": {completed}, \
             \"failed\": {failed}, \"all_terminal\": {all_terminal}"
        ),
    );
    let json = report.to_json();
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{jobs} job(s) -> {out}");
    gate::enforce(
        &json,
        baseline.as_deref(),
        &[Check::Regression(
            "jobs_per_sec",
            Better::Higher,
            TOLERANCE_PCT,
        )],
    );
}

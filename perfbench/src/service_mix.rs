//! `service-mix`: an in-process durable `Service` under an open loop
//! of mostly small synthetic jobs, one in ten an ECO job over one
//! repeated spec base.
//!
//! The synthetic job sizes are the small jobs of the repository's
//! load generator (`bench_service`): 30–78 nets. Its 600-net bulk job
//! every 40th is left out: it turns the p90 into a queueing figure
//! that swings past the benchmark's bound between runs of one seed
//! (see README). The ECO base is ecc at scale 0.05 (84 nets), the
//! size of the largest small jobs, so an ECO job is a small job too.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use benchgen::BenchSpec;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use sadp_grid::{write_delta, SadpKind};
use sadp_service::{
    wire, Arm, DurabilityConfig, JobId, JobOutcome, JobSource, JobState, Journal, Priority,
    RouteRequest, RouteResponse, Service, ServiceConfig,
};

use crate::edits::random_edit;
use crate::measure::{connections, record_report, rss_mib, Pass};
use crate::schedule::{latency_ms, OpenLoop};
use crate::stats;

/// Offered load, jobs per second: well below the two workers'
/// capacity on this mix (see README), so latency is not queue growth.
const RATE: f64 = 40.0;

/// Service workers.
const WORKERS: usize = 2;

/// Every `ECO_EVERY`-th job is an ECO job.
const ECO_EVERY: usize = 10;

/// The ECO jobs' shared base: ecc at this scale.
const ECO_SCALE: f64 = 0.05;

/// Net count of synthetic job `i`, as in `bench_service`.
fn synthetic_nets(i: usize) -> usize {
    30 + (i % 7) * 8
}

/// Set-up (service start) repeats; the median is reported. A start
/// takes well under a millisecond, mostly the journal header's fsync,
/// so the repeats are spread over a second to sample the host's disk
/// over more than one instant.
const SETUP_REPEATS: usize = 25;
const SETUP_GAP: Duration = Duration::from_millis(40);

/// How often the collector polls unfinished jobs.
const POLL_EVERY: Duration = Duration::from_micros(200);

/// One generated job: the request and the connections it routes
/// (Σ(pins − 1) of its netlist; 0 for ECO jobs).
struct Job {
    request: RouteRequest,
    connections: usize,
}

/// The job mix of a run: arms, kinds and priority bands rotate with
/// coprime periods; seeds and ECO edits come from `seed`.
fn jobs(seed: u64, count: usize) -> Vec<Job> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e1);
    let eco_spec = BenchSpec::by_name("ecc")
        .expect("a paper-suite circuit")
        .scaled(ECO_SCALE);
    let eco_seed = rng.next_u64() >> 16;
    let eco_grid = eco_spec.grid();
    let eco_base = eco_spec.generate(eco_seed);
    (0..count)
        .map(|i| {
            let (source, conns, arm) = if i % ECO_EVERY == ECO_EVERY - 1 {
                let delta = random_edit(&eco_grid, &eco_base, &mut rng);
                let base = JobSource::Spec {
                    name: "ecc".into(),
                    scale: ECO_SCALE,
                    seed: eco_seed,
                };
                let source = JobSource::Eco {
                    base: Box::new(base),
                    delta: write_delta(&delta),
                };
                // ECO jobs take their own turn through the arms, so
                // each arm's base is cached too.
                (source, 0, (i / ECO_EVERY) % 4)
            } else {
                let nets = synthetic_nets(i);
                let seed = rng.next_u64() >> 16;
                let netlist = BenchSpec::synthetic(nets).generate(seed);
                (
                    JobSource::Synthetic { nets, seed },
                    connections(&netlist),
                    i % 4,
                )
            };
            let mut request =
                RouteRequest::new(source, [SadpKind::Sim, SadpKind::Sid][(i / 4) % 2]);
            request.arm = [Arm::Baseline, Arm::Dvi, Arm::Tpl, Arm::Full][arm];
            request.priority = [Priority::High, Priority::Normal, Priority::Low][i % 3];
            Job {
                request,
                connections: conns,
            }
        })
        .collect()
}

/// A fresh journal directory inside the working directory (the
/// checkout's own disk).
fn journal_dir(tag: usize) -> PathBuf {
    let dir = PathBuf::from(".perfbench_run").join(format!("journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &Path) -> Result<Service, String> {
    let config = ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    };
    Service::start_durable(config, DurabilityConfig::new(dir))
        .map(|(service, _)| service)
        .map_err(|e| format!("service start: {e}"))
}

/// Bytes per job of a journal holding every job's accept and
/// completion record: the run's records written again through the
/// service's own `Journal`, into a fresh file with compaction off.
/// (The service's live journal compacts as jobs retire, and its size
/// read around `submit` races the workers' completion writes.)
fn journal_bytes_per_job(
    dir: &Path,
    accepted: &[(JobId, &RouteRequest)],
    responses: &[RouteResponse],
) -> Result<f64, String> {
    let (mut journal, _, _) = Journal::open(dir).map_err(|e| format!("journal: {e}"))?;
    journal.set_compact_after(usize::MAX);
    let size = |j: &Journal| std::fs::metadata(j.path()).map_or(0, |m| m.len());
    let header = size(&journal);
    for &(id, request) in accepted {
        journal
            .append_accept(id, request)
            .map_err(|e| format!("journal: {e}"))?;
    }
    for response in responses {
        journal
            .append_complete(response)
            .map_err(|e| format!("journal: {e}"))?;
    }
    Ok((size(&journal) - header) as f64 / accepted.len().max(1) as f64)
}

/// What the generator thread hands the collector per request.
struct Sent {
    index: usize,
    due: Instant,
    id: Result<JobId, String>,
}

/// Runs the workload once.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Pass {
    let mut pass = Pass::new(traced);
    let count = (RATE * seconds as f64).round().max(100.0) as usize;
    // The job list is the benchmark's own input: built before set-up
    // and left out of both set-up time and peak memory.
    let jobs = jobs(seed, count);
    pass.input_rss_mib = rss_mib();
    // Every start completes before any service is shut down, so no
    // timed start shares the disk with another's teardown.
    let mut started = Vec::with_capacity(SETUP_REPEATS);
    for k in 0..SETUP_REPEATS {
        let dir = journal_dir(k);
        let t = Instant::now();
        let service = start(&dir);
        pass.setup_s.push(t.elapsed().as_secs_f64());
        started.push((service, dir));
        std::thread::sleep(SETUP_GAP);
    }
    let (mut live, mut error) = (Vec::new(), None);
    for (service, dir) in started {
        match service {
            Ok(service) => live.push((service, dir)),
            Err(e) => {
                error.get_or_insert(e);
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    let kept = if error.is_none() { live.pop() } else { None };
    for (old, old_dir) in live {
        old.shutdown();
        let _ = std::fs::remove_dir_all(old_dir);
    }
    let Some((service, dir)) = kept else {
        pass.fail(format!("set-up: {}", error.unwrap_or_default()));
        return pass;
    };

    let lp = OpenLoop { rate: RATE, count };
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut fingerprints = vec![0u64; count];
    let mut done = 0usize;
    let (mut synth_conns, mut synth_initial_ms) = (0usize, 0.0f64);
    let start_at = Instant::now();
    let (jobs_ref, service_ref) = (&jobs, &service);
    let mut accepted: Vec<(JobId, &RouteRequest)> = Vec::new();
    let mut responses: Vec<RouteResponse> = Vec::new();
    let lags = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut spans = crate::measure::Spans::new(traced);
            let lags = lp.drive(Instant::now(), |index, due| {
                let request = spans.time("wire.codec", || {
                    let mut text = String::new();
                    wire::encode_request(&mut text, &jobs_ref[index].request);
                    wire::parse(&text).and_then(|v| wire::decode_request(&v))
                });
                let id = match request {
                    Ok(r) => spans
                        .time("service.submit", || service_ref.submit(r))
                        .map_err(|e| format!("submit: {e}")),
                    Err(e) => Err(format!("wire: {e}")),
                };
                let _ = tx.send(Sent { index, due, id });
            });
            drop(tx);
            (lags, spans)
        });

        let mut pending: Vec<(usize, Instant, JobId)> = Vec::new();
        let mut open = true;
        while open || !pending.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok(Sent { index, due, id }) => match id {
                        Ok(id) => {
                            pending.push((index, due, id));
                            if traced {
                                accepted.push((id, &jobs[index].request));
                            }
                        }
                        Err(e) => {
                            pass.fail(format!("job {index}: {e}"));
                            done += 1;
                        }
                    },
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            pending.retain(|&(index, due, id)| {
                let Some(status) = service.poll(id) else {
                    pass.fail(format!("job {index}: unknown id {}", id.0));
                    return false;
                };
                if status.state != JobState::Done {
                    return true;
                }
                let ms = latency_ms(due, Instant::now());
                done += 1;
                if let (true, Some(response)) = (traced, &status.response) {
                    responses.push(response.clone());
                }
                match status.response.map(|r| r.outcome) {
                    Some(JobOutcome::Completed { summary, report }) => {
                        // Arms without via-layer TPL promise neither
                        // FVP freedom nor colorability (the paper's
                        // baseline columns report #UV > 0).
                        let tpl = matches!(jobs[index].request.arm, Arm::Tpl | Arm::Full);
                        let flags = [
                            ("routed_all", summary.routed_all),
                            ("congestion_free", summary.congestion_free),
                            ("fvp_free", summary.fvp_free || !tpl),
                            ("colorable", summary.colorable || !tpl),
                            ("converged", summary.termination.is_converged()),
                        ];
                        if let Some((flag, _)) = flags.iter().find(|(_, ok)| !ok) {
                            pass.fail(format!("job {index}: {flag} is false"));
                            return false;
                        }
                        pass.item_ms.push(ms);
                        pass.wirelength += summary.wirelength;
                        pass.vias += summary.vias;
                        fingerprints[index] = summary.fingerprint;
                        if traced {
                            record_report(&mut pass.spans, &report);
                            if jobs[index].connections > 0 {
                                synth_conns += jobs[index].connections;
                                synth_initial_ms += crate::measure::phase_ms(
                                    &report,
                                    sadp_trace::Phase::InitialRouting,
                                );
                            }
                        }
                    }
                    Some(other) => pass.fail(format!("job {index}: {}", other.name())),
                    None => pass.fail(format!("job {index}: done without a response")),
                }
                false
            });
            if open || !pending.is_empty() {
                std::thread::sleep(POLL_EVERY);
            }
        }
        let (lags, spans) = generator.join().expect("the generator thread panicked");
        for name in ["wire.codec", "service.submit"] {
            for &ms in spans.get(name) {
                pass.spans.record(name, ms);
            }
        }
        lags
    });
    pass.wall_s = start_at.elapsed().as_secs_f64();

    let service_stats = service.stats();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let journal_bytes = if traced {
        let side = journal_dir(SETUP_REPEATS);
        let bytes = journal_bytes_per_job(&side, &accepted, &responses);
        let _ = std::fs::remove_dir_all(&side);
        bytes.unwrap_or_else(|e| {
            pass.failures.push(e);
            0.0
        })
    } else {
        0.0
    };
    let _ = std::fs::remove_dir(".perfbench_run");

    if done != count {
        pass.fail(format!(
            "{} of {count} jobs reached no terminal state",
            count - done
        ));
    }
    pass.fingerprints = fingerprints;
    let lookups = service_stats.cache_hits + service_stats.cache_misses;
    let lag_ms: Vec<f64> = lags.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let figures = [
        (
            "service.cache_hit_rate",
            if lookups == 0 {
                0.0
            } else {
                service_stats.cache_hits as f64 / lookups as f64
            },
        ),
        ("journal.bytes_per_job", journal_bytes),
        (
            "gen.lag_ms_max",
            stats::percentile(&lag_ms, 1.0).map_or(0.0, |p| p.value),
        ),
        (
            "router.initial_route.ns_per_conn",
            if synth_conns == 0 {
                0.0
            } else {
                synth_initial_ms * 1e6 / synth_conns as f64
            },
        ),
    ];
    pass.figures.extend(figures);
    pass
}

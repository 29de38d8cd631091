//! Serial-vs-parallel benchmark of the experiment matrix, in two
//! dimensions:
//!
//! * **Across instances** — runs the circuit × arm matrix once with
//!   the execution pool pinned to one thread and once at the requested
//!   width (`speedup`): the pre-existing task-level parallelism.
//! * **Within one instance** — runs the same matrix *sequentially*,
//!   so each routing session's sharded R&R scheduler is the only
//!   parallelism (`intra_speedup`).
//!
//! Both dimensions must produce byte-identical fingerprints at every
//! width (the determinism contract); the intra sweep additionally
//! checks thread counts 2/4/8. Emits `BENCH_matrix.json` with one rung
//! per circuit × arm carrying its fingerprint, and the wall-clocks and
//! both speedups in the `all` rung.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_matrix \
//!     [-- --scale f --seed n --threads k --circuits a,b --out path \
//!         --baseline BENCH_matrix.json]
//! ```
//!
//! With `--baseline`, the run turns into a regression gate: it fails
//! (exit 1) when any fingerprint rung is missing, extra or different
//! from the committed baseline, or — on hosts with ≥ 4 cores at ≥ 4
//! threads — when `intra_speedup` falls below [`MIN_INTRA_SPEEDUP`].
//! Speedups reflect the machine: on a single-core container both are
//! ~1.0x by construction, so the floor is only enforced on multi-core
//! hosts.

use std::time::Instant;

use bench_suite::gate::{self, Better, Check};
use bench_suite::{four_arms, run_arm, ArmInput, ArmMetrics, RunArgs};
use sadp_grid::SadpKind;

/// Floor of the intra-instance (sharded) speedup, enforced with a
/// baseline on hosts with ≥ 4 cores at ≥ 4 threads.
const MIN_INTRA_SPEEDUP: f64 = 1.5;

/// One arm's rung: its `circuit/arm` name and the metrics body holding
/// everything deterministic about its outcome — CPU times are
/// excluded, they legitimately differ run to run. The routing side is
/// the service's full-solution `outcome_fingerprint`; `dv`/`uv` cover
/// the post-routing DVI pass.
type Print = (String, String);

fn fingerprint(circuit: &str, arm: &str, m: &ArmMetrics) -> Print {
    (
        format!("{circuit}/{arm}"),
        format!(
            "\"fp\": \"{:016x}\", \"dv\": {}, \"uv\": {}",
            m.fingerprint, m.dv, m.uv
        ),
    )
}

fn run_matrix(inputs: &[ArmInput], args: &RunArgs, threads: usize) -> (Vec<Print>, f64) {
    let arms = four_arms(SadpKind::Sim);
    let tasks: Vec<(usize, usize)> = (0..inputs.len())
        .flat_map(|s| (0..arms.len()).map(move |a| (s, a)))
        .collect();
    let t0 = Instant::now();
    let metrics = sadp_exec::with_threads(threads, || {
        sadp_exec::map(&tasks, |&(s, a)| run_arm(&inputs[s], arms[a].1, args))
    });
    let secs = t0.elapsed().as_secs_f64();
    let prints = tasks
        .iter()
        .zip(&metrics)
        .map(|(&(s, a), m)| fingerprint(&inputs[s].name, arms[a].0, m))
        .collect();
    (prints, secs)
}

/// The intra-instance leg: the matrix tasks run strictly one after
/// another on the main thread, so the only concurrency is each
/// session's sharded R&R scheduler on the pool.
fn run_matrix_intra(inputs: &[ArmInput], args: &RunArgs, threads: usize) -> (Vec<Print>, f64) {
    let arms = four_arms(SadpKind::Sim);
    let t0 = Instant::now();
    let mut prints = Vec::with_capacity(inputs.len() * arms.len());
    sadp_exec::with_threads(threads, || {
        for input in inputs {
            for (name, config) in arms {
                let m = run_arm(input, config, args);
                prints.push(fingerprint(&input.name, name, &m));
            }
        }
    });
    (prints, t0.elapsed().as_secs_f64())
}

fn main() {
    let mut run_args = RunArgs {
        scale: 0.05,
        circuits: Some(gate::list("ecc,efc,ctl,alu")),
        ..RunArgs::default()
    };
    let mut threads = 4usize;
    let mut out = String::from("BENCH_matrix.json");
    let mut baseline: Option<String> = None;
    gate::read_flags(
        "[--scale f] [--seed n] [--threads k] [--circuits a,b,...] [--out path] [--baseline path]",
        |flag, val| {
            match flag {
                "--scale" => run_args.scale = gate::value(flag, val, "a float"),
                "--seed" => run_args.seed = gate::value(flag, val, "an integer"),
                "--threads" => threads = gate::value(flag, val, "an integer"),
                "--circuits" => run_args.circuits = Some(gate::list(val)),
                "--out" => out = val.to_string(),
                "--baseline" => baseline = Some(val.to_string()),
                _ => return false,
            }
            true
        },
    );
    let (suite, scale, seed) = (run_args.suite(), run_args.scale, run_args.seed);

    eprintln!(
        "matrix: {} circuits x 4 arms, scale {scale}, seed {seed} \
         (host has {} hardware threads)",
        suite.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let inputs: Vec<ArmInput> = suite
        .iter()
        .map(|spec| ArmInput::prepare(spec, seed))
        .collect();
    let (serial_fp, serial_secs) = run_matrix(&inputs, &run_args, 1);
    eprintln!("  across, serial (1 thread):    {serial_secs:.2}s");
    let (parallel_fp, parallel_secs) = run_matrix(&inputs, &run_args, threads);
    eprintln!("  across, parallel ({threads} threads): {parallel_secs:.2}s");

    // The determinism contract: identical metrics for any width.
    for (s, p) in serial_fp.iter().zip(&parallel_fp) {
        assert_eq!(s, p, "serial and parallel matrix results diverged");
    }

    // Intra-instance leg: instances strictly sequential, sharded R&R
    // inside each. The sweep widths double as determinism probes.
    let (intra_serial_fp, intra_serial_secs) = run_matrix_intra(&inputs, &run_args, 1);
    eprintln!("  intra, serial (1 thread):     {intra_serial_secs:.2}s");
    for (s, p) in serial_fp.iter().zip(&intra_serial_fp) {
        assert_eq!(s, p, "sequential and pooled serial runs diverged");
    }
    let mut intra_parallel_secs = intra_serial_secs;
    for sweep in [2usize, 4, 8] {
        let (fp, secs) = run_matrix_intra(&inputs, &run_args, sweep);
        eprintln!("  intra, sharded ({sweep} threads):   {secs:.2}s");
        for (s, p) in serial_fp.iter().zip(&fp) {
            assert_eq!(s, p, "sharded run at {sweep} threads diverged from serial");
        }
        if sweep == threads {
            intra_parallel_secs = secs;
        }
    }
    if !([2usize, 4, 8].contains(&threads)) {
        let (fp, secs) = run_matrix_intra(&inputs, &run_args, threads);
        for (s, p) in serial_fp.iter().zip(&fp) {
            assert_eq!(
                s, p,
                "sharded run at {threads} threads diverged from serial"
            );
        }
        intra_parallel_secs = secs;
    }
    eprintln!(
        "  determinism: all {} arm fingerprints identical across every width",
        serial_fp.len()
    );

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = serial_secs / parallel_secs.max(1e-9);
    let intra_speedup = intra_serial_secs / intra_parallel_secs.max(1e-9);
    let mut report = gate::Report::new(
        "experiment-matrix",
        seed,
        &[
            ("scale", &scale),
            ("circuits", &suite.len()),
            ("arms", &4),
            ("threads", &threads),
        ],
    );
    for (name, metrics) in &serial_fp {
        report.rung(name, metrics);
    }
    report.rung(
        "all",
        &format!(
            "\"serial_secs\": {serial_secs:.3}, \"parallel_secs\": {parallel_secs:.3}, \
             \"speedup\": {speedup:.3}, \"intra_serial_secs\": {intra_serial_secs:.3}, \
             \"intra_parallel_secs\": {intra_parallel_secs:.3}, \
             \"intra_speedup\": {intra_speedup:.3}, \"identical_outputs\": true"
        ),
    );
    let json = report.to_json();
    std::fs::write(&out, &json).expect("write benchmark json");
    println!(
        "matrix speedup at {threads} threads: across {speedup:.2}x, intra {intra_speedup:.2}x \
         -> {out}"
    );

    let mut checks = vec![Check::Exact(&["fp", "dv", "uv"])];
    // The speedup floor only means something with real cores.
    if baseline.is_some() {
        if host_cores >= 4 && threads >= 4 {
            checks.push(Check::Limit(
                "all",
                "intra_speedup",
                Better::Higher,
                MIN_INTRA_SPEEDUP,
            ));
        } else {
            eprintln!("  speedup floor skipped ({host_cores} cores, {threads} threads)");
        }
    }
    gate::enforce(&json, baseline.as_deref(), &checks);
}

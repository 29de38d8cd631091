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
//! checks thread counts 2/4/8. Emits `BENCH_matrix.json` with the
//! wall-clocks, both speedups, and the 16 fingerprints.
//!
//! ```text
//! cargo run --release -p bench-suite --bin bench_matrix \
//!     [-- --scale f --seed n --threads k --circuits a,b --out path \
//!         --baseline BENCH_matrix.json --min-intra-speedup 1.5]
//! ```
//!
//! With `--baseline`, the run turns into a regression gate: it fails
//! (exit 1) when any fingerprint differs from the committed baseline,
//! or — on hosts with ≥ 4 cores at ≥ 4 threads — when `intra_speedup`
//! falls below the floor. Speedups reflect the machine: on a
//! single-core container both are ~1.0x by construction, so the floor
//! is only enforced on multi-core hosts.

use std::time::Instant;

use bench_suite::{four_arms, run_arm, ArmInput, ArmMetrics, RunArgs};
use sadp_grid::SadpKind;

/// Everything deterministic about one arm's outcome — CPU times are
/// excluded, they legitimately differ run to run. The routing side is
/// the service's full-solution `outcome_fingerprint`; `dv`/`uv` cover
/// the post-routing DVI pass.
fn fingerprint(m: &ArmMetrics) -> String {
    format!("fp={:016x} dv={} uv={}", m.fingerprint, m.dv, m.uv)
}

fn run_matrix(inputs: &[ArmInput], args: &RunArgs, threads: usize) -> (Vec<String>, f64) {
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
        .map(|(&(s, a), m)| format!("{}/{}: {}", inputs[s].name, arms[a].0, fingerprint(m)))
        .collect();
    (prints, secs)
}

/// The intra-instance leg: the matrix tasks run strictly one after
/// another on the main thread, so the only concurrency is each
/// session's sharded R&R scheduler on the pool.
fn run_matrix_intra(inputs: &[ArmInput], args: &RunArgs, threads: usize) -> (Vec<String>, f64) {
    let arms = four_arms(SadpKind::Sim);
    let t0 = Instant::now();
    let mut prints = Vec::with_capacity(inputs.len() * arms.len());
    sadp_exec::with_threads(threads, || {
        for input in inputs {
            for (name, config) in arms {
                let m = run_arm(input, config, args);
                prints.push(format!("{}/{}: {}", input.name, name, fingerprint(&m)));
            }
        }
    });
    (prints, t0.elapsed().as_secs_f64())
}

/// Pulls the `"fingerprints"` array out of a committed
/// `BENCH_matrix.json` (the writer below is the only producer, so a
/// line-oriented scan is enough — no JSON parser in the workspace).
fn baseline_fingerprints(text: &str) -> Vec<String> {
    let mut fps = Vec::new();
    let mut in_array = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"fingerprints\"") {
            in_array = true;
            continue;
        }
        if in_array {
            if t.starts_with(']') {
                break;
            }
            let t = t.trim_end_matches(',').trim_matches('"');
            if !t.is_empty() {
                fps.push(t.replace("\\\"", "\""));
            }
        }
    }
    fps
}

fn parse_or_die<T: std::str::FromStr>(val: &str, flag: &str, what: &str) -> T {
    val.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes {what}, got {val:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut scale = 0.05f64;
    let mut seed = 1u64;
    let mut threads = 4usize;
    let mut circuits: Vec<String> = ["ecc", "efc", "ctl", "alu"].map(String::from).to_vec();
    let mut out = String::from("BENCH_matrix.json");
    let mut baseline: Option<String> = None;
    let mut min_intra_speedup = 1.5f64;
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
            "--threads" => threads = parse_or_die(need(i), "--threads", "an integer"),
            "--circuits" => circuits = need(i).split(',').map(|s| s.trim().to_string()).collect(),
            "--out" => out = need(i).clone(),
            "--baseline" => baseline = Some(need(i).clone()),
            "--min-intra-speedup" => {
                min_intra_speedup = parse_or_die(need(i), "--min-intra-speedup", "a float");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--scale f] [--seed n] [--threads k] [--circuits a,b,...] \
                     [--out path] [--baseline path] [--min-intra-speedup f]"
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

    let run_args = RunArgs {
        scale,
        seed,
        circuits: Some(circuits.clone()),
        ..RunArgs::default()
    };
    let suite = run_args.suite();
    if suite.is_empty() {
        eprintln!("no circuits matched {:?} (try --help)", circuits.join(","));
        std::process::exit(2);
    }

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
    let arm_lines: Vec<String> = serial_fp
        .iter()
        .map(|fp| format!("    \"{}\"", fp.replace('"', "\\\"")))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"experiment-matrix\",\n  \"seed\": {seed},\n  \"scale\": {scale},\n  \
         \"circuits\": {},\n  \"arms\": 4,\n  \"threads\": {threads},\n  \
         \"host_cores\": {host_cores},\n  \
         \"serial_secs\": {serial_secs:.3},\n  \"parallel_secs\": {parallel_secs:.3},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"intra_serial_secs\": {intra_serial_secs:.3},\n  \
         \"intra_parallel_secs\": {intra_parallel_secs:.3},\n  \
         \"intra_speedup\": {intra_speedup:.3},\n  \
         \"identical_outputs\": true,\n  \"fingerprints\": [\n{}\n  ]\n}}\n",
        suite.len(),
        arm_lines.join(",\n")
    );
    std::fs::write(&out, &json).expect("write benchmark json");
    println!(
        "matrix speedup at {threads} threads: across {speedup:.2}x, intra {intra_speedup:.2}x \
         -> {out}"
    );

    // Regression gate against a committed baseline.
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let committed = baseline_fingerprints(&text);
        if committed.is_empty() {
            eprintln!("baseline {path} has no fingerprints");
            std::process::exit(2);
        }
        if committed != serial_fp {
            eprintln!("FAIL: fingerprints diverged from baseline {path}");
            for (c, s) in committed.iter().zip(&serial_fp) {
                if c != s {
                    eprintln!("  baseline: {c}\n  current:  {s}");
                }
            }
            std::process::exit(1);
        }
        eprintln!(
            "  baseline: all {} fingerprints match {path}",
            committed.len()
        );
        // The speedup floor only means something with real cores.
        if host_cores >= 4 && threads >= 4 {
            if intra_speedup < min_intra_speedup {
                eprintln!(
                    "FAIL: intra_speedup {intra_speedup:.2}x below the floor \
                     {min_intra_speedup:.2}x on a {host_cores}-core host"
                );
                std::process::exit(1);
            }
            eprintln!("  baseline: intra_speedup {intra_speedup:.2}x >= {min_intra_speedup:.2}x");
        } else {
            eprintln!("  baseline: speedup floor skipped ({host_cores} cores, {threads} threads)");
        }
    }
}

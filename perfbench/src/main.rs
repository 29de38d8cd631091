//! The repo benchmark: the paper's full flow, an ECO edit stream and
//! a durable service load, timed end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-flow|eco-edits|service-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload once untraced and prints the
//! end-to-end metrics. `--trace 1` runs it untraced and then traced on
//! the same seed, checks that both produced the same outputs, and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object; a readable table goes to standard error.

mod check;
mod eco_edits;
mod edits;
mod measure;
mod metrics;
mod paper_flow;
mod schedule;
mod service_mix;
mod stats;

use std::process::ExitCode;

use measure::Pass;
use metrics::Metric;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 8 flow on ecc-1.0 and alu-1.0, SIM and SID.
    PaperFlow,
    /// A chain of small edits through one converged ecc-1.0 session.
    EcoEdits,
    /// A durable service under an open loop of small jobs.
    ServiceMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFlow,
        Workload::EcoEdits,
        Workload::ServiceMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFlow => "paper-flow",
            Workload::EcoEdits => "eco-edits",
            Workload::ServiceMix => "service-mix",
        }
    }

    fn run(self, seed: u64, seconds: u64, traced: bool) -> Pass {
        match self {
            Workload::PaperFlow => paper_flow::run(seed, seconds, traced),
            Workload::EcoEdits => eco_edits::run(seed, seconds, traced),
            Workload::ServiceMix => service_mix::run(seed, seconds, traced),
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The first `SADP_*` variable in `vars`: each of them changes how the
/// measured program runs, so the benchmark refuses to run with one set.
fn sadp_override(vars: impl Iterator<Item = std::ffi::OsString>) -> Option<String> {
    vars.map(|k| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("SADP_"))
}

/// Positions where two passes' fingerprints differ, counting a length
/// difference as mismatches too.
fn mismatches(a: &[u64], b: &[u64]) -> usize {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    differing + a.len().abs_diff(b.len())
}

fn print_table(workload: Workload, metrics: &[Metric]) {
    eprintln!("{}:", workload.name());
    for m in metrics {
        let count = m
            .pct
            .map(|p| format!("  (n={}, {} beyond)", p.n, p.beyond))
            .unwrap_or_default();
        eprintln!("  {:<34} {:>16.4} {}{count}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-flow|eco-edits|service-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = sadp_override(std::env::vars_os().map(|(k, _)| k)) {
        eprintln!("perfbench: refusing to run: {var} is set and would change the measured program");
        return ExitCode::from(2);
    }

    let plain = args.workload.run(args.seed, args.seconds, false);
    let (metrics, attempted, mut failures) = if args.trace {
        let traced = args.workload.run(args.seed, args.seconds, true);
        let mut failures: Vec<String> = plain.failures.clone();
        failures.extend(traced.failures.iter().cloned());
        let diff = mismatches(&plain.fingerprints, &traced.fingerprints);
        failures.extend((0..diff).map(|_| "traced output differs from untraced".to_string()));
        let attempted = plain.attempted() + traced.attempted();
        (
            metrics::per_layer(args.workload, &plain, &traced),
            attempted,
            failures,
        )
    } else {
        let attempted = plain.attempted();
        (
            metrics::end_to_end(&plain),
            attempted,
            plain.failures.clone(),
        )
    };

    print_table(args.workload, &metrics);
    eprintln!(
        "  attempted {attempted}, failed {} (failed_frac {:.4})",
        failures.len(),
        failures.len() as f64 / attempted.max(1) as f64
    );
    failures.truncate(5);
    for f in &failures {
        eprintln!("  failure: {f}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                metrics::json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        failures.is_empty(),
        attempted.max(1),
        failures.len(),
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "eco-edits",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            a,
            Args {
                workload: Workload::EcoEdits,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "paper-flow",
            "--seed",
            "x",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "paper-flow", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
    }

    #[test]
    fn any_sadp_variable_is_refused_by_name() {
        let vars = |names: &[&str]| {
            names
                .iter()
                .map(std::ffi::OsString::from)
                .collect::<Vec<_>>()
        };
        for name in [
            "SADP_EXEC_THREADS",
            "SADP_SHARD",
            "SADP_SHARD_REGION",
            "SADP_SEARCH_QUEUE",
        ] {
            assert_eq!(
                sadp_override(vars(&["PATH", name, "HOME"]).into_iter()),
                Some(name.to_string())
            );
        }
        assert_eq!(sadp_override(vars(&["PATH", "HOME"]).into_iter()), None);
    }

    #[test]
    fn fingerprint_mismatches_count_length_differences() {
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(mismatches(&[1, 2, 3], &[1, 9, 3]), 1);
        assert_eq!(mismatches(&[1, 2, 3], &[1]), 2);
    }
}

//! The one bench gate every `bench_*` binary shares: a `--flag value`
//! reader, the common report shape, and one check of a fresh report
//! against a committed `BENCH_*.json` baseline.
//!
//! Every report has the shape
//!
//! ```text
//! {"bench": "...", "seed": n, "host_cores": n | null, <run inputs>,
//!  "rungs": [{"name": "...", "metrics": {...}}, ...]}
//! ```
//!
//! with one rung per measured instance (circuit, scale rung, matrix
//! arm) and results of the whole run in a rung named `all`. Both the
//! fresh report and the baseline are read through
//! [`sadp_trace::json::parse`], so a metric is always looked up inside
//! its own rung.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

use sadp_trace::json::{self, escape, Value};

/// Prints `msg` and exits with status 2, the usage-error status of
/// every bench binary.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Walks `std::env::args()` as `--flag value` pairs, handing each to
/// `set`, which returns `false` for a flag it does not know. `--help`
/// prints `usage: {usage}` and exits 0; an unknown flag or a missing
/// value is a usage error.
pub fn read_flags(usage: &str, mut set: impl FnMut(&str, &str) -> bool) {
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            eprintln!("usage: {usage}");
            std::process::exit(0);
        }
        let Some(val) = args.next() else {
            usage_error(&format!("missing value for {flag}"));
        };
        if !set(&flag, &val) {
            usage_error(&format!("unknown argument {flag} (try --help)"));
        }
    }
}

/// Parses a flag's value, or exits 2 with `{flag} takes {what}, got
/// {val:?}`.
pub fn value<T: FromStr>(flag: &str, val: &str, what: &str) -> T {
    val.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} takes {what}, got {val:?}")))
}

/// A comma-separated list value (`--circuits ecc,alu`).
pub fn list(val: &str) -> Vec<String> {
    val.split(',').map(|s| s.trim().to_string()).collect()
}

/// A `--rungs small|medium|full` value as a ladder level 0, 1 or 2.
pub fn ladder_level(flag: &str, val: &str) -> u8 {
    match val {
        "small" => 0,
        "medium" => 1,
        "full" => 2,
        _ => usage_error(&format!("{flag} takes small|medium|full, got {val:?}")),
    }
}

/// A report in the common shape, built rung by rung.
#[derive(Debug, Clone)]
pub struct Report {
    head: String,
    rungs: Vec<String>,
}

impl Report {
    /// Starts a report of `bench` run with `seed` on this host; `inputs`
    /// are the run's other input fields, written in order.
    pub fn new(bench: &str, seed: u64, inputs: &[(&str, &dyn Display)]) -> Report {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut head = format!(
            "{{\n  \"bench\": \"{}\",\n  \"seed\": {seed},\n  \"host_cores\": {cores},\n",
            escape(bench)
        );
        for (key, v) in inputs {
            let _ = writeln!(head, "  \"{key}\": {v},");
        }
        Report {
            head,
            rungs: Vec::new(),
        }
    }

    /// Appends a rung and logs it to stderr; `metrics` is the body of
    /// its metrics object (`"nets": 167, "speedup": 9.842`).
    pub fn rung(&mut self, name: &str, metrics: &str) {
        eprintln!("  {name}: {metrics}");
        self.rungs.push(format!(
            "    {{\"name\": \"{}\", \"metrics\": {{{metrics}}}}}",
            escape(name)
        ));
    }

    /// The report as JSON text.
    pub fn to_json(&self) -> String {
        let rungs = self.rungs.join(",\n");
        format!("{}  \"rungs\": [\n{rungs}\n  ]\n}}\n", self.head)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (speedups, throughput).
    Higher,
}

/// One gate condition.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// `(metric, better, tolerance)`: in every rung on both sides,
    /// `metric` may be worse than its baseline value by at most
    /// `tolerance` percent. A rung on one side only is skipped with a
    /// note; a rung carrying the metric on one side only fails as
    /// missing. A lower-is-better metric (a time, a size) is never
    /// really zero, so a zero on either side is an unavailable
    /// measurement and is skipped with a note. Needs a baseline.
    Regression(&'static str, Better, f64),
    /// `(rung, metric, better, limit)`: in the fresh report, `metric`
    /// of `rung` must not be worse than `limit` (a floor when higher is
    /// better, else a ceiling). Needs no baseline.
    Limit(&'static str, &'static str, Better, f64),
    /// Every rung carrying any of these metrics must exist on both
    /// sides, in the same order, with identical values. Needs a
    /// baseline.
    Exact(&'static [&'static str]),
}

/// The outcome of [`evaluate`]: one line per comparison, note or
/// failure, and the failure count.
#[derive(Debug, Default)]
struct Verdict {
    lines: Vec<String>,
    failures: usize,
}

impl Verdict {
    fn judge(&mut self, line: String, fail: bool) {
        self.lines
            .push(format!("{line} {}", if fail { "FAIL" } else { "ok" }));
        self.failures += usize::from(fail);
    }
}

type Rungs<'a> = Vec<(&'a str, &'a Value)>;

/// The `(name, metrics)` pairs of a report; empty when `doc` is not in
/// the common shape.
fn rungs(doc: &Value) -> Rungs<'_> {
    let all = doc.get("rungs").and_then(Value::as_array).unwrap_or(&[]);
    let pairs = all
        .iter()
        .map(|r| Some((r.get("name")?.as_str()?, r.get("metrics")?)));
    pairs.collect::<Option<_>>().unwrap_or_default()
}

fn find<'a>(rungs: &Rungs<'a>, name: &str) -> Option<&'a Value> {
    rungs.iter().find(|r| r.0 == name).map(|r| r.1)
}

fn show(v: Option<&Value>) -> String {
    match v {
        None => "missing".into(),
        Some(Value::Num(n)) => n.to_string(),
        Some(Value::Str(s)) => s.clone(),
        Some(other) => format!("{other:?}"),
    }
}

/// Evaluates `checks` on the fresh report `run` against `baseline`.
/// Without a baseline only [`Check::Limit`] runs. With one, a run
/// none of whose rungs could be compared fails.
fn evaluate(run: &Value, baseline: Option<&Value>, checks: &[Check]) -> Verdict {
    let mut v = Verdict::default();
    let now = rungs(run);
    let base = baseline.map(rungs);
    let mut compared = 0usize;
    if let Some(base) = &base {
        if checks.iter().any(|c| matches!(c, Check::Regression(..))) {
            for (name, _) in base.iter().filter(|r| find(&now, r.0).is_none()) {
                v.lines.push(format!("{name}: not in this run; skipped"));
            }
            for (name, _) in now.iter().filter(|r| find(base, r.0).is_none()) {
                v.lines
                    .push(format!("{name}: not in the baseline; skipped"));
            }
        }
    }
    for check in checks {
        match (*check, &base) {
            (Check::Limit(rung, metric, better, limit), _) => {
                let x = find(&now, rung).and_then(|m| m.get(metric)?.as_f64());
                let (kind, fail) = match (better, x) {
                    (_, None) => ("bound", true),
                    (Better::Higher, Some(x)) => ("floor", x < limit),
                    (Better::Lower, Some(x)) => ("ceiling", x > limit),
                };
                let x = show(x.map(Value::Num).as_ref());
                v.judge(format!("{rung} {metric}: {x} vs {kind} {limit}"), fail);
            }
            (Check::Regression(metric, better, tolerance), Some(base)) => {
                for (name, now_m) in &now {
                    let Some(base_m) = find(base, name) else {
                        continue;
                    };
                    let line = format!("{name} {metric}");
                    let (x, b) = match (now_m.get(metric), base_m.get(metric)) {
                        (None, None) => continue,
                        (Some(Value::Num(x)), Some(Value::Num(b))) => (*x, *b),
                        (x, b) => {
                            v.judge(format!("{line}: {} vs baseline {}", show(x), show(b)), true);
                            continue;
                        }
                    };
                    compared += 1;
                    if better == Better::Lower && (x == 0.0 || b == 0.0) {
                        v.lines
                            .push(format!("{line}: {x} vs {b}: zero is unavailable; skipped"));
                        continue;
                    }
                    let worse = match better {
                        Better::Lower => x - b,
                        Better::Higher => b - x,
                    };
                    let change = (x - b) * 100.0 / b;
                    let line = format!("{line}: {x} vs {b} ({change:+.1}%, {tolerance}% allowed)");
                    v.judge(line, worse * 100.0 / b > tolerance);
                }
            }
            (Check::Exact(metrics), Some(base)) => {
                let carries = |r: &&(&str, &Value)| metrics.iter().any(|k| r.1.get(k).is_some());
                let now_list: Rungs = now.iter().filter(carries).copied().collect();
                let base_list: Rungs = base.iter().filter(carries).copied().collect();
                let failures = v.failures;
                for (name, base_m) in &base_list {
                    let Some(now_m) = find(&now_list, name) else {
                        v.judge(format!("{name}: missing from this run"), true);
                        continue;
                    };
                    compared += 1;
                    for k in metrics {
                        let (x, b) = (now_m.get(k), base_m.get(k));
                        if x != b {
                            v.judge(
                                format!("{name} {k}: {} vs baseline {}", show(x), show(b)),
                                true,
                            );
                        }
                    }
                }
                for (name, _) in now_list.iter().filter(|r| find(&base_list, r.0).is_none()) {
                    v.judge(format!("{name}: not in the baseline"), true);
                }
                let order = now_list
                    .iter()
                    .map(|r| r.0)
                    .eq(base_list.iter().map(|r| r.0));
                if v.failures == failures {
                    let line = match order {
                        true => format!("all {} rungs match the baseline", base_list.len()),
                        false => "rung order differs from the baseline".into(),
                    };
                    v.judge(line, !order);
                }
            }
            (_, None) => {}
        }
    }
    let relative = checks.iter().any(|c| !matches!(c, Check::Limit(..)));
    if base.is_some() && relative && compared == 0 {
        v.judge(
            "no rung of this run is in the baseline; nothing gated".into(),
            true,
        );
    }
    v
}

/// Evaluates `checks` on the fresh `report` (its JSON text) against
/// the baseline file at `baseline`, prints the verdict, and exits 1 on
/// any failure. An unreadable baseline is a usage error.
pub fn enforce(report: &str, baseline: Option<&str>, checks: &[Check]) {
    let run = json::parse(report).expect("bench reports are valid JSON");
    let base = baseline.map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read baseline {path}: {e}")));
        json::parse(&text)
            .unwrap_or_else(|e| usage_error(&format!("cannot parse baseline {path}: {e}")))
    });
    let verdict = evaluate(&run, base.as_ref(), checks);
    if verdict.lines.is_empty() {
        return;
    }
    for line in &verdict.lines {
        eprintln!("  gate: {line}");
    }
    let against = baseline.map_or(String::new(), |p| format!(" (baseline {p})"));
    if verdict.failures > 0 {
        eprintln!("{} gate check(s) failed{against}", verdict.failures);
        std::process::exit(1);
    }
    println!("gate passed{against}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rungs: &[(&str, &str)]) -> Value {
        let mut r = Report::new("t\"", 1, &[("scale", &0.5)]);
        for (name, metrics) in rungs {
            r.rung(name, metrics);
        }
        json::parse(&r.to_json()).expect("report parses")
    }

    fn gate(run: &[(&str, &str)], base: &[(&str, &str)], checks: &[Check]) -> Verdict {
        evaluate(&doc(run), Some(&doc(base)), checks)
    }

    const LOWER: [Check; 1] = [Check::Regression("x", Better::Lower, 3.0)];
    const HIGHER: [Check; 1] = [Check::Regression("x", Better::Higher, 3.0)];

    #[test]
    fn report_shape_round_trips() {
        let d = doc(&[("ecc", "\"grid\": [1, 2], \"fp\": \"ab\"")]);
        assert_eq!(d.get("bench").and_then(Value::as_str), Some("t\""));
        assert_eq!(d.get("seed").and_then(Value::as_u64), Some(1));
        assert!(d.get("host_cores").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(d.get("scale").and_then(Value::as_f64), Some(0.5));
        let rs = rungs(&d);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].1.get("fp").and_then(Value::as_str), Some("ab"));
    }

    #[test]
    fn one_sided_rungs_are_skipped_with_a_note() {
        let v = gate(
            &[("a", "\"x\": 1"), ("new", "\"x\": 50")],
            &[("a", "\"x\": 1"), ("old", "\"x\": 1")],
            &LOWER,
        );
        assert_eq!(v.failures, 0, "{:?}", v.lines);
        assert!(v
            .lines
            .contains(&"new: not in the baseline; skipped".into()));
        assert!(v.lines.contains(&"old: not in this run; skipped".into()));
    }

    #[test]
    fn zero_compared_rungs_fail() {
        let exact = [Check::Exact(&["x"])];
        for checks in [&LOWER[..], &exact] {
            let v = gate(&[("a", "\"x\": 1")], &[("b", "\"x\": 1")], checks);
            assert!(
                v.lines.last().unwrap().contains("nothing gated FAIL"),
                "{v:?}"
            );
        }
        let v = gate(&[("a", "\"x\": 1")], &[("a", "\"y\": 1")], &LOWER);
        assert_eq!(v.failures, 2, "missing, then nothing gated: {v:?}");
    }

    #[test]
    fn a_missing_metric_is_never_read_from_the_next_rung() {
        // Rung `a` lacks `x` on one side while rung `b` right after it
        // has a passing value, which a text scan from `"name": "a"`
        // would read. The gate reports a's as missing instead.
        let both = [("a", "\"x\": 100"), ("b", "\"x\": 100")];
        let holed = [("a", "\"y\": 1"), ("b", "\"x\": 100")];
        let v = gate(&both, &holed, &LOWER);
        assert_eq!(v.failures, 1, "{v:?}");
        assert!(v
            .lines
            .contains(&"a x: 100 vs baseline missing FAIL".into()));
        let v = gate(&holed, &both, &LOWER);
        assert!(v
            .lines
            .contains(&"a x: missing vs baseline 100 FAIL".into()));
    }

    #[test]
    fn regressions_pass_at_the_exact_boundary_and_fail_past_it() {
        let base = [("a", "\"x\": 200")];
        for (checks, at, past, improved) in [
            (&LOWER, "206", "206.02", "1"),
            (&HIGHER, "194", "193.98", "1000"),
        ] {
            for (x, failures) in [(at, 0), (past, 1), (improved, 0)] {
                let v = gate(&[("a", &format!("\"x\": {x}"))], &base, checks);
                assert_eq!(v.failures, failures, "{checks:?} at {x}: {v:?}");
            }
        }
    }

    #[test]
    fn zero_readings_skip_only_where_unavailable() {
        let (zero, real) = ([("a", "\"x\": 0")], [("a", "\"x\": 100")]);
        let v = gate(&zero, &real, &LOWER);
        assert_eq!(v.failures, 0, "{v:?}");
        assert!(v.lines[0].ends_with("skipped"));
        assert_eq!(gate(&real, &zero, &LOWER).failures, 0);
        // A zero speedup is a real collapse, not a missing reading.
        assert_eq!(gate(&zero, &real, &HIGHER).failures, 1);
    }

    #[test]
    fn limits_are_floors_or_ceilings_and_need_no_baseline() {
        let run = doc(&[("all", "\"g\": 3")]);
        for (metric, better, limit, failures) in [
            ("g", Better::Higher, 3.0, 0),
            ("g", Better::Higher, 3.01, 1),
            ("g", Better::Lower, 3.0, 0),
            ("g", Better::Lower, 2.99, 1),
            ("h", Better::Higher, 0.0, 1),
        ] {
            let v = evaluate(&run, None, &[Check::Limit("all", metric, better, limit)]);
            assert_eq!(v.failures, failures, "{metric} {better:?} {limit}: {v:?}");
        }
        assert!(evaluate(&run, None, &LOWER).lines.is_empty());
    }

    #[test]
    fn exact_check_fails_on_missing_extra_changed_or_reordered_rungs() {
        let fp = [Check::Exact(&["fp", "dv"])];
        let (a, b) = (
            ("a", "\"fp\": \"01\", \"dv\": 3"),
            ("b", "\"fp\": \"02\", \"dv\": 1"),
        );
        let base = [a, b, ("all", "\"secs\": 1.5")];
        let v = gate(&[a, b, ("all", "\"secs\": 9.0")], &base, &fp);
        assert_eq!(v.failures, 0, "{v:?}");
        for run in [
            &[a][..],
            &[a, b, ("c", "\"fp\": \"03\", \"dv\": 0")],
            &[a, ("b", "\"fp\": \"ff\", \"dv\": 1")],
            &[a, ("b", "\"fp\": \"02\", \"dv\": 2")],
            &[a, ("b", "\"fp\": \"02\"")],
            &[b, a],
        ] {
            assert_eq!(gate(run, &base, &fp).failures, 1, "{run:?}");
        }
    }
}

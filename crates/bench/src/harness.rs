//! Experiment runner shared by the table binaries.

use std::time::Duration;

use benchgen::BenchSpec;
use dvi::{solve_exact, solve_heuristic_observed, DviParams, DviProblem};
use sadp_grid::{Netlist, RoutingGrid, SadpKind};
use sadp_router::{RouteBudget, RouterConfig, RoutingSession};
use sadp_trace::{merge_reports, JsonReport, NoopObserver, RouteObserver};

use crate::gate;

/// Which solver computes the post-routing TPL-aware DVI metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DviMode {
    /// The exact lazy-cut ILP (`dvi::solve_exact`, optimality
    /// reference).
    Ilp,
    /// Algorithm 3 (fast).
    Heuristic,
}

/// Command-line arguments shared by all table binaries.
///
/// ```text
/// --scale f        benchmark scale factor in (0,1]   (default 0.2)
/// --seed n         generator seed                     (default 1)
/// --dvi ilp|heur   post-routing DVI solver            (default heur)
/// --ilp-limit s    ILP time limit per circuit, secs   (default 600)
/// --time-budget s  routing wall-clock budget per arm  (default none)
/// --circuits a,b   subset of circuit names            (default all)
/// --report path    write a merged per-phase JSON report
/// ```
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Benchmark scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// DVI solver for #DV / #UV columns.
    pub dvi_mode: DviMode,
    /// ILP time limit per circuit.
    pub ilp_limit: Duration,
    /// Routing wall-clock budget per arm; exhaustion yields a partial
    /// outcome tagged with its [`sadp_router::Termination`] reason
    /// instead of running to convergence.
    pub time_budget: Option<Duration>,
    /// Circuit-name filter (`None` = the full suite).
    pub circuits: Option<Vec<String>>,
    /// Path to write the merged per-phase JSON run report to.
    pub report: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            scale: 0.2,
            seed: 1,
            dvi_mode: DviMode::Heuristic,
            ilp_limit: Duration::from_secs(600),
            time_budget: None,
            circuits: None,
            report: None,
        }
    }
}

impl RunArgs {
    /// Parses `std::env::args()` through [`gate::read_flags`]; a bad
    /// flag or value exits 2 with a one-line message.
    pub fn parse() -> RunArgs {
        let mut out = RunArgs::default();
        gate::read_flags(
            "[--scale f] [--seed n] [--dvi ilp|heur] [--ilp-limit secs] \
             [--time-budget secs] [--circuits a,b,...] [--report path]",
            |flag, val| {
                match flag {
                    "--scale" => out.scale = gate::value(flag, val, "a float"),
                    "--seed" => out.seed = gate::value(flag, val, "an integer"),
                    "--dvi" => {
                        out.dvi_mode = match val {
                            "ilp" => DviMode::Ilp,
                            "heur" | "heuristic" => DviMode::Heuristic,
                            _ => gate::usage_error(&format!("unknown --dvi mode {val}")),
                        }
                    }
                    "--ilp-limit" => {
                        out.ilp_limit = Duration::from_secs(gate::value(flag, val, "seconds"))
                    }
                    "--time-budget" => {
                        out.time_budget =
                            Some(Duration::from_secs_f64(gate::value(flag, val, "seconds")))
                    }
                    "--circuits" => out.circuits = Some(gate::list(val)),
                    "--report" => out.report = Some(val.to_string()),
                    _ => return false,
                }
                true
            },
        );
        out
    }

    /// The benchmark suite selected by these arguments; a filter that
    /// matches no circuit is a usage error (exit 2).
    pub fn suite(&self) -> Vec<BenchSpec> {
        let suite: Vec<BenchSpec> = BenchSpec::paper_suite()
            .into_iter()
            .filter(|s| {
                self.circuits
                    .as_ref()
                    .is_none_or(|list| list.iter().any(|n| n == s.name))
            })
            .map(|s| s.scaled(self.scale))
            .collect();
        if suite.is_empty() {
            let filter = self.circuits.as_deref().unwrap_or_default().join(",");
            gate::usage_error(&format!("no circuits matched {filter:?} (try --help)"));
        }
        suite
    }
}

/// Metrics of one experiment arm on one circuit — the table columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmMetrics {
    /// Total wirelength.
    pub wl: u64,
    /// Total via count.
    pub vias: u64,
    /// Detailed-routing CPU seconds.
    pub cpu: f64,
    /// Dead via count after post-routing DVI.
    pub dv: usize,
    /// Uncolorable via count.
    pub uv: usize,
    /// DVI-pass CPU seconds.
    pub dvi_cpu: f64,
    /// 100% routability achieved.
    pub routed: bool,
    /// [`sadp_router::outcome_fingerprint`] of the routing outcome:
    /// the full solution plus its quality flags and headline stats.
    pub fingerprint: u64,
}

/// One circuit's generated inputs, prepared **once** and borrowed by
/// every arm: the staged [`RoutingSession`] takes `&RoutingGrid` and
/// `&Netlist`, so running the four-arm matrix no longer clones the
/// netlist or rebuilds the grid per arm.
#[derive(Debug, Clone)]
pub struct ArmInput {
    /// Circuit name (table row label).
    pub name: String,
    /// The routing grid.
    pub grid: RoutingGrid,
    /// The generated placed netlist.
    pub netlist: Netlist,
}

impl ArmInput {
    /// Generates the circuit's grid and netlist from its spec.
    pub fn prepare(spec: &BenchSpec, seed: u64) -> ArmInput {
        ArmInput {
            name: spec.name.to_string(),
            grid: spec.grid(),
            netlist: spec.generate(seed),
        }
    }
}

/// Routes one circuit under `config` and evaluates post-routing
/// TPL-aware DVI with the chosen solver.
pub fn run_arm(input: &ArmInput, config: RouterConfig, args: &RunArgs) -> ArmMetrics {
    run_arm_observed(input, config, args, &mut NoopObserver)
}

/// [`run_arm`] with an observer: routing phases and the DVI pass
/// report their spans and counters into `obs`.
pub fn run_arm_observed(
    input: &ArmInput,
    config: RouterConfig,
    args: &RunArgs,
    obs: &mut impl RouteObserver,
) -> ArmMetrics {
    let mut session = RoutingSession::new(&input.grid, &input.netlist, config);
    if let Some(deadline) = args.time_budget {
        session.set_budget(RouteBudget::unlimited().with_deadline(deadline));
    }
    let outcome = session.finish(obs);
    let problem = DviProblem::build(config.sadp, &outcome.solution);
    let (dv, uv, dvi_cpu) = match args.dvi_mode {
        DviMode::Heuristic => {
            let h = solve_heuristic_observed(&problem, &DviParams::default(), obs);
            (
                h.dead_via_count,
                h.uncolorable_count,
                h.runtime.as_secs_f64(),
            )
        }
        DviMode::Ilp => {
            let o = solve_exact(&problem, Some(args.ilp_limit), obs)
                .expect("the heuristic fallback of the exact solver succeeds")
                .outcome;
            (
                o.dead_via_count,
                o.uncolorable_count,
                o.runtime.as_secs_f64(),
            )
        }
    };
    ArmMetrics {
        wl: outcome.stats.wirelength,
        vias: outcome.stats.vias,
        cpu: outcome.runtime.as_secs_f64(),
        dv,
        uv,
        dvi_cpu,
        routed: outcome.routed_all && outcome.congestion_free,
        fingerprint: sadp_router::outcome_fingerprint(&outcome),
    }
}

/// The four experiment arms of Tables III/IV, in paper order.
pub fn four_arms(kind: SadpKind) -> [(&'static str, RouterConfig); 4] {
    [
        ("SADP-aware routing", RouterConfig::baseline(kind)),
        ("Consider DVI", RouterConfig::with_dvi(kind)),
        ("Consider via layer TPL", RouterConfig::with_tpl(kind)),
        ("Consider DVI & via layer TPL", RouterConfig::full(kind)),
    ]
}

/// Runs and prints a Tables III/IV-style four-arm comparison for one
/// SADP process (shared by the `table3` and `table4` binaries).
pub fn arm_table(kind: SadpKind, title: &str) {
    use crate::table::{num, text};
    let args = RunArgs::parse();
    let dvi_label = match args.dvi_mode {
        DviMode::Ilp => "ILP",
        DviMode::Heuristic => "heuristic",
    };
    let arms = four_arms(kind);
    let mut headers = vec!["CKT".to_string()];
    let mut decimals = vec![0usize];
    for (name, _) in &arms {
        for col in ["WL", "#Vias", "CPU(s)", "#DV", "#UV"] {
            headers.push(format!("{col}|{}", short(name)));
            decimals.push(if col == "CPU(s)" { 1 } else { 0 });
        }
    }
    let mut t = crate::table::TableBuilder::new(
        format!(
            "{title}: {kind} SADP-aware detailed routing considering DVI and via layer TPL \
             (scale {}, seed {}, post-routing DVI: {dvi_label})",
            args.scale, args.seed
        ),
        headers,
        decimals,
    );
    // Normalize each arm's metric against the baseline arm's metric.
    for a in 0..arms.len() {
        for c in 0..5 {
            t.normalize(1 + a * 5 + c, 1 + c);
        }
    }
    // The circuit × arm matrix is embarrassingly parallel: generate
    // each circuit's inputs once, flatten the matrix into independent
    // tasks that borrow them (each router run owns its own scratch),
    // and replay the buffered progress logs in task order afterwards,
    // so the output is byte-identical to the serial run. Each task
    // fills its own JsonReport; `sadp_exec::map` returns results in
    // task-index order, so the merged report is deterministic for any
    // `SADP_EXEC_THREADS`.
    let suite = args.suite();
    let inputs: Vec<ArmInput> = suite
        .iter()
        .map(|spec| ArmInput::prepare(spec, args.seed))
        .collect();
    let tasks: Vec<(usize, usize)> = (0..inputs.len())
        .flat_map(|s| (0..arms.len()).map(move |a| (s, a)))
        .collect();
    let results: Vec<(ArmMetrics, String, JsonReport)> = sadp_exec::map(&tasks, |&(s, a)| {
        let input = &inputs[s];
        let mut report = JsonReport::new(format!("{kind}/{}/{}", input.name, short(arms[a].0)));
        let m = run_arm_observed(input, arms[a].1, &args, &mut report);
        report.set_flag("routed", m.routed);
        report.set_metric("wirelength", m.wl as i64);
        report.set_metric("vias", m.vias as i64);
        report.set_metric("dead_vias", m.dv as i64);
        report.set_metric("uncolorable_vias", m.uv as i64);
        let log = format!(
            "  [{}] {}: WL={} vias={} cpu={:.1}s dv={} uv={}",
            kind, input.name, m.wl, m.vias, m.cpu, m.dv, m.uv
        );
        (m, log, report)
    });
    for (s, input) in inputs.iter().enumerate() {
        let mut cells = vec![text(&input.name)];
        for a in 0..arms.len() {
            let (m, log, _) = &results[s * arms.len() + a];
            assert!(m.routed, "{}: routability below 100%", input.name);
            cells.extend([
                num(m.wl as f64),
                num(m.vias as f64),
                num(m.cpu),
                num(m.dv as f64),
                num(m.uv as f64),
            ]);
            eprintln!("{log}");
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(arm columns: base = plain SADP-aware routing, +DVI, +TPL, +both; \
              all normalized against base)"
    );
    if let Some(path) = &args.report {
        let reports: Vec<JsonReport> = results.into_iter().map(|(_, _, r)| r).collect();
        std::fs::write(path, merge_reports(title, &reports)).expect("write report");
        eprintln!("per-phase run report written to {path}");
    }
}

fn short(arm: &str) -> &'static str {
    match arm {
        "SADP-aware routing" => "base",
        "Consider DVI" => "+DVI",
        "Consider via layer TPL" => "+TPL",
        _ => "+both",
    }
}

/// Runs and prints a Tables VI/VII-style ILP-vs-heuristic comparison
/// (shared by the `table6` and `table7` binaries). The routing arm is
/// always "consider DVI & via layer TPL", as in the paper.
pub fn ilp_vs_heuristic_table(kind: SadpKind, title: &str) {
    use crate::table::{num, text};
    let args = RunArgs::parse();
    let mut t = crate::table::TableBuilder::new(
        format!(
            "{title}: TPL-aware DVI for {kind} SADP-aware detailed routing \
             (scale {}, seed {}, ILP limit {:?})",
            args.scale, args.seed, args.ilp_limit
        ),
        vec![
            "CKT".into(),
            "#DV|ILP".into(),
            "#UV|ILP".into(),
            "CPU(s)|ILP".into(),
            "gap|ILP".into(),
            "#DV|Heur".into(),
            "#UV|Heur".into(),
            "CPU(s)|Heur".into(),
        ],
        vec![0, 0, 0, 1, 0, 0, 0, 3],
    );
    // Paper normalizes against the heuristic columns.
    t.normalize(1, 5)
        .normalize(3, 7)
        .normalize(5, 5)
        .normalize(7, 7);
    // One task per circuit; logs buffered and replayed in suite order.
    let suite = args.suite();
    let inputs: Vec<ArmInput> = suite
        .iter()
        .map(|spec| ArmInput::prepare(spec, args.seed))
        .collect();
    let rows: Vec<([f64; 7], String)> = sadp_exec::map(&inputs, |input| {
        let outcome = RoutingSession::new(&input.grid, &input.netlist, RouterConfig::full(kind))
            .finish(&mut NoopObserver);
        assert!(outcome.routed_all, "{}: unroutable", input.name);
        let problem = DviProblem::build(kind, &outcome.solution);
        let heur = solve_heuristic_observed(&problem, &DviParams::default(), &mut NoopObserver);
        let exact = solve_exact(&problem, Some(args.ilp_limit), &mut NoopObserver)
            .expect("the heuristic fallback of the exact solver succeeds");
        let (ilp, stats) = (exact.outcome, exact.stats);
        let gap = (stats.best_bound - ilp.inserted_count() as i64).max(0);
        let log = format!(
            "  [{}] {}: ILP dv={} uv={} cpu={:.1}s (optimal={}, gap {}, rounds {}, cuts {}) |              heur dv={} uv={} cpu={:.3}s",
            kind,
            input.name,
            ilp.dead_via_count,
            ilp.uncolorable_count,
            ilp.runtime.as_secs_f64(),
            stats.proven_optimal,
            gap,
            stats.rounds,
            stats.cuts,
            heur.dead_via_count,
            heur.uncolorable_count,
            heur.runtime.as_secs_f64()
        );
        (
            [
                ilp.dead_via_count as f64,
                ilp.uncolorable_count as f64,
                ilp.runtime.as_secs_f64(),
                gap as f64,
                heur.dead_via_count as f64,
                heur.uncolorable_count as f64,
                heur.runtime.as_secs_f64(),
            ],
            log,
        )
    });
    for (input, (vals, log)) in inputs.iter().zip(&rows) {
        eprintln!("{log}");
        let mut cells = vec![text(&input.name)];
        cells.extend(vals.iter().map(|&v| num(v)));
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(gap = proven optimality gap of the branch-and-bound ILP at the time limit; \
              0 means optimal)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args() {
        let a = RunArgs::default();
        assert_eq!(a.scale, 0.2);
        assert_eq!(a.dvi_mode, DviMode::Heuristic);
        assert_eq!(a.suite().len(), 6);
    }

    #[test]
    fn suite_filter() {
        let a = RunArgs {
            circuits: Some(vec!["ecc".into(), "alu".into()]),
            ..RunArgs::default()
        };
        let suite = a.suite();
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].name, "ecc");
    }

    #[test]
    fn tiny_arm_runs_end_to_end() {
        let args = RunArgs {
            scale: 0.01,
            ..RunArgs::default()
        };
        let spec = BenchSpec::paper_suite()[0].scaled(args.scale);
        let input = ArmInput::prepare(&spec, args.seed);
        let m = run_arm(&input, RouterConfig::full(SadpKind::Sim), &args);
        assert!(m.routed);
        assert!(m.wl > 0);
        assert_eq!(m.uv, 0);
    }

    #[test]
    fn observed_arm_matches_noop_arm() {
        let args = RunArgs {
            scale: 0.01,
            ..RunArgs::default()
        };
        let spec = BenchSpec::paper_suite()[0].scaled(args.scale);
        let input = ArmInput::prepare(&spec, args.seed);
        let config = RouterConfig::full(SadpKind::Sim);
        let plain = run_arm(&input, config, &args);
        let mut report = JsonReport::new("unit");
        let observed = run_arm_observed(&input, config, &args, &mut report);
        // The observer must not perturb the solution.
        assert_eq!(plain.wl, observed.wl);
        assert_eq!(plain.vias, observed.vias);
        assert_eq!(plain.dv, observed.dv);
        assert_eq!(plain.uv, observed.uv);
        // All phases present: routing spans plus the DVI span.
        assert!(report.spans_of(sadp_trace::Phase::InitialRouting).count() == 1);
        assert!(report.spans_of(sadp_trace::Phase::Dvi).count() == 1);
    }
}

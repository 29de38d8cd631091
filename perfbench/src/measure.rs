//! What a pass over a workload records: per-item latencies, output
//! checks and fingerprints, and (on a traced pass) spans around the
//! public calls into each layer.

use std::collections::BTreeMap;
use std::time::Instant;

use sadp_grid::Netlist;
use sadp_trace::{Counter, JsonReport, Phase};

/// Connections a netlist asks the router for: Σ(pins − 1).
pub fn connections(netlist: &Netlist) -> usize {
    netlist
        .iter()
        .map(|(_, n)| n.pins().len().saturating_sub(1))
        .sum()
}

/// Spans the benchmark records around public calls, in milliseconds,
/// one sample per call. A disabled recorder only runs the calls.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            samples: BTreeMap::new(),
        }
    }

    /// Runs `f`, recording its wall time under `name` when on.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.record(name, t.elapsed().as_secs_f64() * 1e3);
        r
    }

    /// Adds one sample (ms) under `name` when on.
    pub fn record(&mut self, name: &'static str, ms: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(ms);
        }
    }

    /// Every sample recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Wall milliseconds of every span of `phase` in a report.
pub fn phase_ms(report: &JsonReport, phase: Phase) -> f64 {
    report
        .spans_of(phase)
        .fold(0.0, |ms, s| ms + s.wall.as_secs_f64() * 1e3)
}

/// Records a run report's per-phase times (under `phase.*`) and R&R
/// counters as one sample each.
pub fn record_report(spans: &mut Spans, report: &JsonReport) {
    use Counter as C;
    use Phase as P;
    spans.record("phase.initial_route", phase_ms(report, P::InitialRouting));
    spans.record(
        "phase.negotiate",
        phase_ms(report, P::CongestionNegotiation),
    );
    spans.record(
        "phase.tpl_removal",
        phase_ms(report, P::TplViolationRemoval),
    );
    spans.record("phase.coloring", phase_ms(report, P::ColoringFix));
    spans.record("phase.audit", phase_ms(report, P::Audit));
    let count = |phase, counter| report.total(phase, counter) as f64;
    spans.record("waves", count(P::InitialRouting, C::Waves));
    spans.record("wave_spills", count(P::InitialRouting, C::WaveSpills));
    spans.record("eco_victims", count(P::InitialRouting, C::EcoVictims));
    spans.record("eco_reused", count(P::InitialRouting, C::EcoReused));
    spans.record("neg_reroutes", count(P::CongestionNegotiation, C::Reroutes));
    spans.record(
        "neg_failures",
        count(P::CongestionNegotiation, C::RerouteFailures),
    );
    spans.record(
        "tpl_iterations",
        count(P::TplViolationRemoval, C::Iterations),
    );
    spans.record("tpl_reroutes", count(P::TplViolationRemoval, C::Reroutes));
    spans.record(
        "tpl_failures",
        count(P::TplViolationRemoval, C::RerouteFailures),
    );
    spans.record("tpl_fvp_hits", count(P::TplViolationRemoval, C::FvpHits));
}

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of each set-up repeat.
    pub setup_s: Vec<f64>,
    /// Resident set (MiB) once the benchmark's own inputs are built,
    /// just before set-up: the part of the peak that is not the
    /// program's.
    pub input_rss_mib: f64,
    /// Latency of each item (flow, edit or job) in ms; a failed item
    /// reads `f64::INFINITY`.
    pub item_ms: Vec<f64>,
    /// Why each failed item failed.
    pub failures: Vec<String>,
    /// Checked outputs attempted, when an item holds several (a
    /// paper-flow pass holds four flows); else the item count.
    pub attempted: usize,
    /// Wirelength summed over the final layouts or job summaries.
    pub wirelength: u64,
    /// Vias summed likewise.
    pub vias: u64,
    /// Deterministic output fingerprints, in item order.
    pub fingerprints: Vec<u64>,
    /// Wall seconds of the measured part of the pass.
    pub wall_s: f64,
    /// Spans and counters (traced pass only).
    pub spans: Spans,
    /// Workload figures by metric name (see `metrics`).
    pub figures: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// An empty pass whose span recorder is on when `traced`.
    pub fn new(traced: bool) -> Pass {
        Pass {
            spans: Spans::new(traced),
            ..Pass::default()
        }
    }

    /// Outputs attempted: at least one per item.
    pub fn attempted(&self) -> usize {
        self.attempted.max(self.item_ms.len())
    }

    /// Records a failed item: infinite latency plus its reason.
    pub fn fail(&mut self, why: String) {
        self.item_ms.push(f64::INFINITY);
        self.failures.push(why);
    }
}

/// A memory figure of this process from `/proc/self/status` (`VmHWM`
/// for the peak, `VmRSS` for now), in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set of this process now (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

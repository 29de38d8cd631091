//! The metric sets a run prints: end-to-end from an untraced pass,
//! per-layer from a traced pass of the same seed.

use crate::measure::Pass;
use crate::stats::{self, Pct};
use crate::Workload;

/// End-to-end metrics `(name, unit)`, printed on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_ms_p50", "ms"),
    ("work_ms_p90", "ms"),
    ("wirelength", "tracks"),
    ("vias", "count"),
];

/// Per-layer metrics `(name, unit)`, printed on every workload; a
/// layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("router.session_new_ms", "ms"),
    ("router.initial_route_ms", "ms"),
    ("router.initial_route.ns_per_conn", "ns"),
    ("router.initial_route.waves", "count"),
    ("router.initial_route.wave_spills", "count"),
    ("router.negotiate_ms", "ms"),
    ("router.negotiate.reroutes", "count"),
    ("router.negotiate.reroute_failures", "count"),
    ("router.tpl_removal_ms", "ms"),
    ("router.tpl_removal.iterations", "count"),
    ("router.tpl_removal.reroutes", "count"),
    ("router.tpl_removal.fvp_hits", "count"),
    ("router.reroute_yield", "ratio"),
    ("router.ensure_colorable_ms", "ms"),
    ("router.finish_ms", "ms"),
    ("router.apply_delta_ms", "ms"),
    ("eco.victims_per_edit", "count"),
    ("eco.reused_per_edit", "count"),
    ("dvi.build_ms", "ms"),
    ("dvi.solve_ms", "ms"),
    ("dvi.solve.ns_per_via", "ns"),
    ("dvi.protection_rate", "ratio"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p90", "us"),
    ("service.cache_hit_rate", "ratio"),
    ("journal.bytes_per_job", "B"),
    ("wire.codec_us", "us"),
    ("gen.lag_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
    ("host_cores", "count"),
    ("exec_threads", "count"),
    ("failed_frac", "ratio"),
    ("flow_nets_per_s", "1/s"),
    ("dead_vias", "count"),
    ("edit_ms_p50", "ms"),
    ("edit_ms_p90", "ms"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
];

/// One printed metric; `pct` carries the sample count of a percentile.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// The percentile's sample count, when the value is one.
    pub pct: Option<Pct>,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Outputs that failed, as a share of those attempted.
pub fn failed_frac(pass: &Pass) -> f64 {
    pass.failures.len() as f64 / pass.attempted().max(1) as f64
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let p50 = stats::at(&pass.item_ms, 0.5);
    let p90 = stats::at(&pass.item_ms, 0.9);
    let setup = stats::median(&pass.setup_s);
    let value = |p: Option<Pct>| p.map_or(f64::INFINITY, |p| p.value);
    let rows = [
        ("setup_s", value(setup), setup),
        (
            "peak_rss_mb",
            crate::measure::peak_rss_mib() - pass.input_rss_mib,
            None,
        ),
        ("work_ms_p50", value(p50), p50),
        ("work_ms_p90", value(p90), p90),
        ("wirelength", pass.wirelength as f64, None),
        ("vias", pass.vias as f64, None),
    ];
    rows.into_iter()
        .map(|(name, value, pct)| Metric {
            name,
            unit: unit_of(&END_TO_END, name),
            value,
            pct,
        })
        .collect()
}

/// The per-layer metrics: spans and counters from the traced pass,
/// the workload's own end-to-end figures from the untraced one.
pub fn per_layer(workload: Workload, plain: &Pass, traced: &Pass) -> Vec<Metric> {
    let spans = &traced.spans;
    // Times per item: a mean over paper-flow's four heterogeneous
    // flows, a median over the hundreds of edits or jobs elsewhere.
    let per_item = |key: &str| {
        let s = spans.get(key);
        match workload {
            Workload::PaperFlow => stats::mean(s),
            _ => stats::median(s).map_or(0.0, |p| p.value),
        }
    };
    let mean = |key: &str| stats::mean(spans.get(key));
    let sum = |key: &str| stats::total(spans.get(key));
    let figure = |pass: &Pass, key: &str| pass.figures.get(key).copied().unwrap_or(0.0);
    // Paper-flow times its public calls itself; elsewhere the phases
    // run inside a call and come from the run report. A key a workload
    // never records reads 0.
    let own = workload == Workload::PaperFlow;
    let phase = |call: &str, phase: &str| per_item(if own { call } else { phase });
    let us = |key: &str, q: f64| {
        stats::at(spans.get(key), q).map_or((0.0, None), |p| (p.value * 1e3, Some(p)))
    };
    let attempts =
        sum("neg_reroutes") + sum("neg_failures") + sum("tpl_reroutes") + sum("tpl_failures");
    let overhead = if plain.wall_s > 0.0 {
        (traced.wall_s / plain.wall_s - 1.0) * 100.0
    } else {
        0.0
    };
    let item_pct = |w: Workload, q: f64| match stats::at(&plain.item_ms, q) {
        Some(p) if workload == w => (p.value, Some(p)),
        _ => (0.0, None),
    };
    let eco = workload == Workload::EcoEdits;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (submit50, submit50_pct) = us("service.submit", 0.5);
    let (submit90, submit90_pct) = us("service.submit", 0.9);
    let (codec, codec_pct) = us("wire.codec", 0.5);
    let mut rows: Vec<(&'static str, f64, Option<Pct>)> = vec![
        (
            "router.session_new_ms",
            per_item("router.session_new"),
            None,
        ),
        (
            "router.initial_route_ms",
            phase("router.initial_route", "phase.initial_route"),
            None,
        ),
        (
            "router.initial_route.ns_per_conn",
            figure(traced, "router.initial_route.ns_per_conn"),
            None,
        ),
        ("router.initial_route.waves", mean("waves"), None),
        (
            "router.initial_route.wave_spills",
            mean("wave_spills"),
            None,
        ),
        (
            "router.negotiate_ms",
            phase("router.negotiate", "phase.negotiate"),
            None,
        ),
        ("router.negotiate.reroutes", mean("neg_reroutes"), None),
        (
            "router.negotiate.reroute_failures",
            mean("neg_failures"),
            None,
        ),
        (
            "router.tpl_removal_ms",
            phase("router.tpl_removal", "phase.tpl_removal"),
            None,
        ),
        (
            "router.tpl_removal.iterations",
            mean("tpl_iterations"),
            None,
        ),
        ("router.tpl_removal.reroutes", mean("tpl_reroutes"), None),
        ("router.tpl_removal.fvp_hits", mean("tpl_fvp_hits"), None),
        (
            "router.reroute_yield",
            if attempts > 0.0 {
                (sum("neg_reroutes") + sum("tpl_reroutes")) / attempts
            } else {
                0.0
            },
            None,
        ),
        (
            "router.ensure_colorable_ms",
            if workload == Workload::ServiceMix {
                per_item("phase.coloring")
            } else {
                per_item("router.ensure_colorable")
            },
            None,
        ),
        (
            "router.finish_ms",
            if workload == Workload::ServiceMix {
                per_item("phase.audit")
            } else {
                per_item("router.finish")
            },
            None,
        ),
        (
            "router.apply_delta_ms",
            per_item("router.apply_delta"),
            None,
        ),
        (
            "eco.victims_per_edit",
            if eco { mean("eco_victims") } else { 0.0 },
            None,
        ),
        (
            "eco.reused_per_edit",
            if eco { mean("eco_reused") } else { 0.0 },
            None,
        ),
        ("dvi.build_ms", per_item("dvi.build"), None),
        ("dvi.solve_ms", per_item("dvi.solve"), None),
        (
            "dvi.solve.ns_per_via",
            figure(traced, "dvi.solve.ns_per_via"),
            None,
        ),
        (
            "dvi.protection_rate",
            figure(traced, "dvi.protection_rate"),
            None,
        ),
        ("service.submit_us_p50", submit50, submit50_pct),
        ("service.submit_us_p90", submit90, submit90_pct),
        (
            "service.cache_hit_rate",
            figure(traced, "service.cache_hit_rate"),
            None,
        ),
        (
            "journal.bytes_per_job",
            figure(traced, "journal.bytes_per_job"),
            None,
        ),
        ("wire.codec_us", codec, codec_pct),
        ("gen.lag_ms_max", figure(traced, "gen.lag_ms_max"), None),
        ("trace.overhead_pct", overhead, None),
        ("host_cores", host_cores as f64, None),
        ("exec_threads", sadp_exec::thread_count() as f64, None),
        ("failed_frac", failed_frac(plain), None),
        ("flow_nets_per_s", figure(plain, "flow_nets_per_s"), None),
        ("dead_vias", figure(plain, "dead_vias"), None),
    ];
    for (name, w, q) in [
        ("edit_ms_p50", Workload::EcoEdits, 0.5),
        ("edit_ms_p90", Workload::EcoEdits, 0.9),
        ("job_ms_p50", Workload::ServiceMix, 0.5),
        ("job_ms_p90", Workload::ServiceMix, 0.9),
    ] {
        let (v, p) = item_pct(w, q);
        rows.push((name, v, p));
    }
    rows.into_iter()
        .map(|(name, value, pct)| Metric {
            name,
            unit: unit_of(&PER_LAYER, name),
            value,
            pct,
        })
        .collect()
}

/// Formats a value for JSON: JSON has no infinity, so a failed item's
/// infinite latency is written as `1e308`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e308".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_service::wire::{self, Value};

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = wire::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Value::Arr(rows)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            let listed: Vec<(&str, &str)> = rows
                .iter()
                .map(|r| {
                    (
                        r.get("name").and_then(Value::as_str).unwrap_or(""),
                        r.get("unit").and_then(Value::as_str).unwrap_or(""),
                    )
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads is not a list");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name).to_vec());
    }

    #[test]
    fn infinite_latency_is_written_as_a_json_number() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::INFINITY), "1e308");
    }
}

//! `eco-edits`: ecc-1.0 routed to convergence in set-up, then a chain
//! of small seeded edits through one session, each `apply_delta`
//! followed by `ensure_colorable`.

use std::time::Instant;

use benchgen::BenchSpec;
use sadp_grid::{LayoutDelta, Netlist, RoutingGrid, SadpKind};
use sadp_router::{RouterConfig, RoutingSession};
use sadp_service::outcome_fingerprint;
use sadp_trace::{JsonReport, NoopObserver, RouteObserver};

use crate::check;
use crate::edits::edit_chain;
use crate::measure::{record_report, rss_mib, Pass, Spans};

/// Set-up (generation plus the base route) repeats; the median is
/// reported.
const SETUP_REPEATS: usize = 5;

/// Edits per second of `--seconds`; a run makes at least 100.
const EDITS_PER_SECOND: u64 = 40;

/// The workload's circuit.
fn spec() -> BenchSpec {
    BenchSpec::by_name("ecc").expect("a paper-suite circuit")
}

/// Routes the base to convergence.
fn base_session<'a>(grid: &RoutingGrid, base: &'a Netlist) -> Result<RoutingSession<'a>, String> {
    let mut session = RoutingSession::try_new(grid, base, RouterConfig::full(SadpKind::Sim))
        .map_err(|e| format!("base session: {e}"))?;
    if !session.ensure_colorable(&mut NoopObserver) || !session.converged() {
        return Err("the base layout did not converge".into());
    }
    Ok(session)
}

/// One edit: `apply_delta`, then `ensure_colorable`.
fn edit<'a>(
    session: &mut RoutingSession<'a>,
    edited: &'a Netlist,
    delta: &LayoutDelta,
    obs: &mut impl RouteObserver,
    spans: &mut Spans,
) -> Result<bool, String> {
    spans
        .time("router.apply_delta", || {
            session.apply_delta(edited, delta, obs)
        })
        .map_err(|e| format!("apply_delta: {e}"))?;
    Ok(spans.time("router.ensure_colorable", || session.ensure_colorable(obs)))
}

/// The session's quality flags after an edit, read from its public
/// state.
fn audit(
    session: &mut RoutingSession<'_>,
    grid: &RoutingGrid,
    colorable: bool,
) -> Result<(), String> {
    if !colorable {
        return Err("colorable is false".into());
    }
    if !session.converged() {
        return Err(format!("stopped: {}", session.termination()));
    }
    // On a converged session this only reads the unrouted-net list.
    if !session.initial_route(&mut NoopObserver).is_empty() {
        return Err("routed_all is false".into());
    }
    let state = session.state();
    if !state.congested_points().is_empty() {
        return Err("congestion_free is false".into());
    }
    let fvp: usize = (0..grid.via_layer_count())
        .map(|vl| state.fvp[vl as usize].fvp_window_count())
        .sum();
    if fvp > 0 {
        return Err(format!("fvp_free is false ({fvp} windows)"));
    }
    Ok(())
}

/// Runs the workload once.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Pass {
    let mut pass = Pass::new(traced);
    let edits = (seconds * EDITS_PER_SECOND).max(100) as usize;
    // The chain is the benchmark's own input: built before set-up and
    // left out of both set-up time and peak memory.
    let grid = spec().grid();
    let chain = edit_chain(&grid, spec().generate(seed), edits, seed);
    pass.input_rss_mib = rss_mib();
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let base = spec().generate(seed);
        let routed = base_session(&grid, &base);
        pass.setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = routed {
            pass.fail(format!("set-up: {e}"));
            return pass;
        }
    }
    let t = Instant::now();
    let base = spec().generate(seed);
    let routed = base_session(&grid, &base);
    pass.setup_s.push(t.elapsed().as_secs_f64());
    let mut session = match routed {
        Ok(s) if base == chain.netlists[0] => s,
        Ok(_) => {
            pass.fail("set-up: generation differs from the chain's base".into());
            return pass;
        }
        Err(e) => {
            pass.fail(format!("set-up: {e}"));
            return pass;
        }
    };

    let start = Instant::now();
    let mut stats_trail = Vec::with_capacity(edits * 16);
    for (i, delta) in chain.deltas.iter().enumerate() {
        let edited = &chain.netlists[i + 1];
        let t = Instant::now();
        let result = if traced {
            let mut report = JsonReport::new(format!("edit-{i}"));
            let r = edit(&mut session, edited, delta, &mut report, &mut pass.spans);
            record_report(&mut pass.spans, &report);
            r
        } else {
            edit(
                &mut session,
                edited,
                delta,
                &mut NoopObserver,
                &mut pass.spans,
            )
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let applied = result.is_ok();
        match result.and_then(|colorable| audit(&mut session, &grid, colorable)) {
            Ok(()) => pass.item_ms.push(ms),
            Err(e) => pass.fail(format!("edit {i}: {e}")),
        }
        if !applied {
            // The session kept the previous layout, which the rest of
            // the chain does not edit.
            for j in i + 1..chain.deltas.len() {
                pass.fail(format!("edit {j}: skipped after a rejected edit"));
            }
            break;
        }
        let s = session.solution().stats();
        stats_trail.extend(s.wirelength.to_le_bytes());
        stats_trail.extend(s.vias.to_le_bytes());
    }
    pass.wall_s = start.elapsed().as_secs_f64();

    match pass
        .spans
        .time("router.finish", || session.try_finish(&mut NoopObserver))
    {
        Ok(outcome) => {
            if let Err(e) = check::routing_outcome(&outcome) {
                pass.fail(format!("final layout: {e}"));
            }
            pass.wirelength = outcome.stats.wirelength;
            pass.vias = outcome.stats.vias;
            pass.fingerprints.push(outcome_fingerprint(&outcome));
        }
        Err(e) => pass.fail(format!("final layout: {e}")),
    }
    pass.fingerprints.push(sadp_trace::fnv1a(&stats_trail));
    pass
}

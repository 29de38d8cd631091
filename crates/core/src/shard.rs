//! Deterministic spatial sharding: intra-instance parallel rip-up and
//! reroute.
//!
//! The serial R&R loops process one violation at a time; their wall
//! clock is dominated by windowed A* searches that are spatially
//! local. This module runs those searches concurrently **without
//! changing a single byte of the output**, by speculating only where
//! speculation is provably equivalent to the serial schedule:
//!
//! 1. **Plan (serial, read-only).** Walk the violation queue front and
//!    admit a *wave*: the longest prefix whose entries have pairwise
//!    disjoint *footprint rectangles* — the bounding box of everything
//!    a rip of that entry can read or write (old route, pins, the
//!    congested point), inflated by the worst-case window escalation
//!    of the first margin rung plus the cost-update write radius.
//!    Disjointness is tracked on a coarse region bitmap (cell size
//!    [`SHARD_REGION`]): coarser granularity only
//!    makes admission more conservative, never unsound. Victim
//!    selection uses a *virtual* rotation (start rotation + rips
//!    planned so far), so the planned victims equal the serial ones.
//! 2. **Stage (serial).** For every planned rip, apply the serial
//!    pre-search mutations: bump the history at the congested point
//!    and suspend the victim's route journal-preservingly
//!    ([`RouterState::suspend_route`]). Disjointness confines each
//!    entry's mutations to its own footprint, so entry *k*'s search
//!    window sees exactly the state the serial schedule would show it.
//! 3. **Search (parallel).** The calling thread and parked workers of
//!    the persistent execution pool ([`sadp_exec::try_map_with`])
//!    route the victims with the first-rung window only
//!    ([`route_net_windowed`]) against a shared `&RouterState`, each
//!    participant on its own scratch from the session's scratch pool
//!    (the caller on the first). A net that would need window
//!    escalation reports a *spill* instead of a route.
//! 4. **Commit (serial, task order).** Replay the wave in queue
//!    order: per entry, budget check first (exactly like the serial
//!    loop's pre-pop check), then counters, install, and requeues. A
//!    spill rolls back the not-yet-committed suffix (resume + unbump,
//!    violations returned to the queue front) and re-runs the spilled
//!    entry serially with the full window ladder — the state at that
//!    point is byte-identical to the serial schedule's, so escalated
//!    searches may roam freely. A worker panic rolls back the whole
//!    wave and surfaces as a typed [`sadp_exec::TaskPanicked`]; the
//!    occupancy index is never poisoned.
//!
//! Because every committed step reproduces the serial mutation
//! sequence exactly, the routing outcome (and every phase counter) is
//! byte-identical for any pool width and any region size — the
//! property pinned by this module's tests, `tests/shard_determinism.rs`
//! and the committed `BENCH_matrix.json` fingerprints.
//!
//! The scheduler runs exactly when the pool is wider than one thread
//! (see [`should_shard`]); width 1 is the serial reference.

use sadp_grid::{GridPoint, Net, NetId, Netlist, RoutedNet};
use sadp_trace::{Counter, Phase, RouteObserver};

use crate::budget::{PhaseLimits, Termination};
use crate::dijkstra::{route_net_windowed, WINDOW_MARGINS};
use crate::rnr::{
    congestion_step, initial_step, requeue_after_reroute, reroute_uninstalled, rip_candidate_at,
    seed_congestion_queue, seed_initial_order, CongestionWork, InitialWork, PinIndex, RnrStats,
};
use crate::search::SearchScratch;
use crate::state::{RouterState, SuspendedRoute};

/// Region cell size of the claim bitmap that sessions use. Smaller
/// regions admit more concurrent work per wave but cost more admission
/// checks; no size changes routing output (the unit tests sweep it).
pub(crate) const SHARD_REGION: i32 = 16;

/// Maximum entries admitted per wave. Fixed (never derived from the
/// pool width) so the planned waves are identical on every host.
const MAX_WAVE: usize = 64;

/// `true` when the sharded scheduler applies to a phase activation.
///
/// Sharding requires: more than one pool thread, not already inside
/// a pool worker (nested fan-out runs inline and would
/// gain nothing), no expansion cap (a capped search can stop mid-net,
/// which is inherently schedule-dependent), and no blocked-via
/// enforcement (the TPL phase's `refresh_blocked_around` reads a ±4
/// window, wider than the footprint write margin).
pub(crate) fn should_shard(limits: &PhaseLimits, state: &RouterState) -> bool {
    limits.expansion_stop.is_none()
        && !state.enforce_blocked
        && !sadp_exec::in_worker()
        && sadp_exec::thread_count() > 1
}

/// An inclusive rectangle of grid cells (layer-agnostic: footprints
/// cover all layers of their x/y extent).
#[derive(Debug, Clone, Copy)]
struct Rect {
    x0: i32,
    y0: i32,
    x1: i32,
    y1: i32,
}

impl Rect {
    fn point(x: i32, y: i32) -> Rect {
        Rect {
            x0: x,
            y0: y,
            x1: x,
            y1: y,
        }
    }

    fn cover(&mut self, x: i32, y: i32) {
        self.x0 = self.x0.min(x);
        self.y0 = self.y0.min(y);
        self.x1 = self.x1.max(x);
        self.y1 = self.y1.max(y);
    }

    fn inflate(self, m: i32) -> Rect {
        Rect {
            x0: self.x0.saturating_sub(m),
            y0: self.y0.saturating_sub(m),
            x1: self.x1.saturating_add(m),
            y1: self.y1.saturating_add(m),
        }
    }
}

/// Everything a rip/route of one net can touch: its pins, its current
/// route, the violation point, inflated by the worst first-rung window
/// escalation (`8 × (pins − 1)` for a tree of `pins − 1` connections)
/// plus the cost-update write radius (conflict offsets span ±3; +4
/// covers them).
fn footprint_margin(net: &Net) -> i32 {
    let connections = (net.pins().len() as i32 - 1).max(1);
    WINDOW_MARGINS[0] * connections + 4
}

/// Region-bitmap claim tracker: maps footprint rectangles to coarse
/// cells and refuses rectangles that touch an already-claimed cell.
struct RegionClaims {
    region: i32,
    cols: i32,
    rows: i32,
    width: i32,
    height: i32,
    claimed: Vec<bool>,
    touched: Vec<usize>,
}

impl RegionClaims {
    fn new(width: i32, height: i32, region: i32) -> RegionClaims {
        let region = region.max(1);
        let cols = (width + region - 1) / region;
        let rows = (height + region - 1) / region;
        RegionClaims {
            region,
            cols: cols.max(1),
            rows: rows.max(1),
            width,
            height,
            claimed: vec![false; (cols.max(1) as usize) * (rows.max(1) as usize)],
            touched: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for &c in &self.touched {
            self.claimed[c] = false;
        }
        self.touched.clear();
    }

    /// The claim cells a rectangle maps to, clamped to the grid.
    fn cell_range(&self, r: Rect) -> (i32, i32, i32, i32) {
        let x0 = r.x0.clamp(0, self.width - 1) / self.region;
        let y0 = r.y0.clamp(0, self.height - 1) / self.region;
        let x1 = r.x1.clamp(0, self.width - 1) / self.region;
        let y1 = r.y1.clamp(0, self.height - 1) / self.region;
        (x0, y0, x1.min(self.cols - 1), y1.min(self.rows - 1))
    }

    fn conflicts(&self, r: Rect) -> bool {
        let (x0, y0, x1, y1) = self.cell_range(r);
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                if self.claimed[(cy * self.cols + cx) as usize] {
                    return true;
                }
            }
        }
        false
    }

    fn claim(&mut self, r: Rect) {
        let (x0, y0, x1, y1) = self.cell_range(r);
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                let c = (cy * self.cols + cx) as usize;
                if !self.claimed[c] {
                    self.claimed[c] = true;
                    self.touched.push(c);
                }
            }
        }
    }
}

/// One planned wave entry of the congestion phase.
enum Planned {
    /// The queue entry is stale at its serial turn: consumed silently.
    Stale(GridPoint),
    /// A rip of `victim` at `p`; `has_route` is `false` only in the
    /// defensive no-installed-route case (serial `reroute` fails
    /// immediately there).
    Rip {
        p: GridPoint,
        victim: NetId,
        has_route: bool,
    },
}

/// A planned entry plus its staged pre-search state.
struct WaveEntry {
    planned: Planned,
    suspended: Option<SuspendedRoute>,
}

/// A worker's speculative verdict for one wave entry.
enum Spec {
    /// Routed within the first window rung; deltas are the worker's
    /// search-effort counters for this task.
    Routed {
        route: RoutedNet,
        expanded: u64,
        searches: u64,
    },
    /// Needs window escalation (or found no path): redo serially.
    Spill,
    /// Nothing to search (stale or no-route entry).
    Skip,
}

/// Rolls back staged entries `entries[k..]` and returns their
/// violations to the queue front in original order. State-wise the
/// entries are independent (disjoint footprints), so only the queue
/// order matters here.
fn rollback(state: &mut RouterState, work: &mut CongestionWork, entries: &mut [WaveEntry]) {
    for e in entries.iter_mut().rev() {
        match e.planned {
            Planned::Stale(p) => work.queue.push_front(p),
            Planned::Rip { p, .. } => {
                if let Some(s) = e.suspended.take() {
                    state.resume_route(route_id(&e.planned), s);
                }
                state.unbump_history(p);
                work.queue.push_front(p);
            }
        }
    }
}

fn route_id(p: &Planned) -> NetId {
    match p {
        Planned::Stale(_) => NetId(0),
        Planned::Rip { victim, .. } => *victim,
    }
}

/// Sharded [`crate::rnr::negotiate_congestion`]: identical
/// output and counters, overlapped searches. Returns the serial pair
/// plus a contained worker panic, if any (the state is rolled back to
/// a valid between-iterations serial state before the error is
/// returned).
#[allow(clippy::too_many_arguments)]
pub(crate) fn negotiate_congestion_sharded(
    state: &mut RouterState,
    netlist: &Netlist,
    pins: &PinIndex,
    limits: PhaseLimits,
    work: &mut CongestionWork,
    scratch: &mut SearchScratch,
    pool: &mut Vec<SearchScratch>,
    region: i32,
    obs: &mut impl RouteObserver,
) -> (Result<bool, sadp_exec::TaskPanicked>, RnrStats) {
    const PHASE: Phase = Phase::CongestionNegotiation;
    let mut stats = RnrStats::default();
    seed_congestion_queue(work, state);
    let mut claims = RegionClaims::new(state.grid.width(), state.grid.height(), region);

    'outer: loop {
        // The serial loop's pre-pop budget check.
        if let Some(t) = limits.stop_reason(stats.iterations, scratch.expanded) {
            stats.termination = t;
            obs.counter(PHASE, Counter::BudgetStops, 1);
            break;
        }
        if work.queue.is_empty() {
            break;
        }

        // ---- Plan: admit the longest disjoint-footprint prefix. ----
        claims.clear();
        let mut entries: Vec<WaveEntry> = Vec::new();
        let mut rips = 0usize;
        while entries.len() < MAX_WAVE {
            let Some(&p) = work.queue.front() else {
                break;
            };
            let mut victims = std::mem::take(&mut work.victims);
            let candidate = rip_candidate_at(state, pins, p, work.rotation + rips, &mut victims);
            work.victims = victims;
            match candidate {
                None => {
                    // Stale iff nothing committed earlier in the wave
                    // can change the owners at `p`.
                    if claims.conflicts(Rect::point(p.x, p.y)) {
                        break;
                    }
                    work.queue.pop_front();
                    entries.push(WaveEntry {
                        planned: Planned::Stale(p),
                        suspended: None,
                    });
                }
                Some(victim) => {
                    let net = &netlist[victim];
                    let mut rect = Rect::point(p.x, p.y);
                    for pin in net.pins() {
                        rect.cover(pin.x, pin.y);
                    }
                    let has_route = match state.solution.route(victim) {
                        Some(route) => {
                            for &q in route.covered_points_sorted() {
                                rect.cover(q.x, q.y);
                            }
                            true
                        }
                        None => false,
                    };
                    let rect = rect.inflate(footprint_margin(net));
                    if !entries.is_empty() && claims.conflicts(rect) {
                        break;
                    }
                    claims.claim(rect);
                    work.queue.pop_front();
                    entries.push(WaveEntry {
                        planned: Planned::Rip {
                            p,
                            victim,
                            has_route,
                        },
                        suspended: None,
                    });
                    rips += 1;
                }
            }
        }

        // Degenerate wave: run one serial step instead (planning was
        // read-only, so returning the entries restores the exact
        // pre-plan queue).
        if rips < 2 {
            for e in entries.iter().rev() {
                match e.planned {
                    Planned::Stale(p) | Planned::Rip { p, .. } => work.queue.push_front(p),
                }
            }
            if !congestion_step(state, netlist, pins, work, &mut stats, scratch, obs) {
                break;
            }
            continue;
        }

        // ---- Stage: serial pre-search mutations, in queue order. ----
        for e in entries.iter_mut() {
            if let Planned::Rip {
                p,
                victim,
                has_route,
            } = e.planned
            {
                state.bump_history(p);
                if has_route {
                    e.suspended = state.suspend_route(victim);
                }
            }
        }

        // ---- Search: speculative first-rung routing, in parallel. ----
        obs.counter(PHASE, Counter::Waves, 1);
        let state_ref: &RouterState = state;
        let entries_ref: &[WaveEntry] = &entries;
        let specs = sadp_exec::try_map_with(
            entries.len(),
            pool,
            SearchScratch::new,
            |s: &mut SearchScratch, i: usize| match entries_ref[i].planned {
                Planned::Rip {
                    victim,
                    has_route: true,
                    ..
                } => {
                    let (e0, s0) = (s.expanded, s.searches);
                    match route_net_windowed(state_ref, victim, &netlist[victim], s) {
                        Some(route) => Spec::Routed {
                            route,
                            expanded: s.expanded - e0,
                            searches: s.searches - s0,
                        },
                        None => Spec::Spill,
                    }
                }
                _ => Spec::Skip,
            },
        );
        let specs = match specs {
            Ok(specs) => specs,
            Err(panic) => {
                // Roll the whole wave back: the state returns to the
                // wave-start serial state, nothing is half-applied.
                rollback(state, work, &mut entries);
                return (Err(panic), stats);
            }
        };

        // ---- Commit: replay the wave in serial order. ----
        for (k, spec) in specs.into_iter().enumerate() {
            if let Some(t) = limits.stop_reason(stats.iterations, scratch.expanded) {
                stats.termination = t;
                obs.counter(PHASE, Counter::BudgetStops, 1);
                rollback(state, work, &mut entries[k..]);
                break 'outer;
            }
            let Planned::Rip {
                p,
                victim,
                has_route,
            } = entries[k].planned
            else {
                continue; // stale: consumed, no counters
            };
            work.rotation += 1;
            stats.iterations += 1;
            obs.counter(PHASE, Counter::Iterations, 1);
            obs.counter(PHASE, Counter::CongestionHits, 1);
            obs.counter(PHASE, Counter::CostDelta, state.params.history_step());
            match spec {
                Spec::Routed {
                    route,
                    expanded,
                    searches,
                } => {
                    scratch.expanded += expanded;
                    scratch.searches += searches;
                    // Serial `reroute` discarded the old journal at
                    // uninstall; dropping the suspension does the same.
                    entries[k].suspended = None;
                    state.install_route(victim, route);
                    stats.reroutes += 1;
                    obs.counter(PHASE, Counter::Reroutes, 1);
                    requeue_after_reroute(state, work, victim, p);
                }
                Spec::Spill => {
                    obs.counter(PHASE, Counter::WaveSpills, 1);
                    // Restore the suffix *first*: the serial retry may
                    // escalate its window into their footprints.
                    rollback(state, work, &mut entries[k + 1..]);
                    let ok = match entries[k].suspended.take() {
                        Some(s) => {
                            reroute_uninstalled(state, netlist, victim, s.into_route(), scratch)
                        }
                        None => false,
                    };
                    if ok {
                        stats.reroutes += 1;
                        obs.counter(PHASE, Counter::Reroutes, 1);
                    } else {
                        stats.failures += 1;
                        obs.counter(PHASE, Counter::RerouteFailures, 1);
                    }
                    requeue_after_reroute(state, work, victim, p);
                    break; // replan from the post-spill state
                }
                Spec::Skip => {
                    // No installed route: serial `reroute` fails fast.
                    debug_assert!(!has_route);
                    stats.failures += 1;
                    obs.counter(PHASE, Counter::RerouteFailures, 1);
                    requeue_after_reroute(state, work, victim, p);
                }
            }
        }
    }
    (Ok(state.congested_points().is_empty()), stats)
}

/// Sharded [`crate::rnr::initial_routing`]: identical output,
/// overlapped first-rung searches. Entries are speculated in HPWL
/// order; a net needing escalation (or failing outright) spills to the
/// serial full-ladder path. A worker panic commits nothing and is
/// returned typed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn initial_routing_sharded(
    state: &mut RouterState,
    netlist: &Netlist,
    limits: PhaseLimits,
    work: &mut InitialWork,
    failed: &mut Vec<NetId>,
    scratch: &mut SearchScratch,
    pool: &mut Vec<SearchScratch>,
    region: i32,
    obs: &mut impl RouteObserver,
) -> Result<Termination, sadp_exec::TaskPanicked> {
    const PHASE: Phase = Phase::InitialRouting;
    seed_initial_order(work, netlist);
    let mut claims = RegionClaims::new(state.grid.width(), state.grid.height(), region);
    let mut done_here = 0usize;

    while work.pos < work.order.len() {
        if let Some(t) = limits.stop_reason(done_here, scratch.expanded) {
            obs.counter(PHASE, Counter::BudgetStops, 1);
            return Ok(t);
        }

        // Plan: longest disjoint prefix of the remaining HPWL order.
        claims.clear();
        let remaining = work.order.len() - work.pos;
        let mut wave = 0usize;
        while wave < MAX_WAVE.min(remaining) {
            let net = &netlist[work.order[work.pos + wave]];
            let mut rect = match net.pins().first() {
                Some(p0) => Rect::point(p0.x, p0.y),
                None => Rect::point(0, 0),
            };
            for pin in net.pins() {
                rect.cover(pin.x, pin.y);
            }
            let rect = rect.inflate(footprint_margin(net));
            if wave > 0 && claims.conflicts(rect) {
                break;
            }
            claims.claim(rect);
            wave += 1;
        }

        if wave < 2 {
            done_here += 1;
            initial_step(state, netlist, work, failed, scratch, obs);
            continue;
        }

        obs.counter(PHASE, Counter::Waves, 1);
        let ids: Vec<NetId> = work.order[work.pos..work.pos + wave].to_vec();
        let state_ref: &RouterState = state;
        let specs = sadp_exec::try_map_with(
            ids.len(),
            pool,
            SearchScratch::new,
            |s: &mut SearchScratch, i: usize| {
                let id = ids[i];
                let (e0, s0) = (s.expanded, s.searches);
                match route_net_windowed(state_ref, id, &netlist[id], s) {
                    Some(route) => Spec::Routed {
                        route,
                        expanded: s.expanded - e0,
                        searches: s.searches - s0,
                    },
                    None => Spec::Spill,
                }
            },
        )?; // a panic commits nothing: work.pos still points at the wave start

        for spec in specs {
            if let Some(t) = limits.stop_reason(done_here, scratch.expanded) {
                obs.counter(PHASE, Counter::BudgetStops, 1);
                return Ok(t);
            }
            done_here += 1;
            match spec {
                Spec::Routed {
                    route,
                    expanded,
                    searches,
                } => {
                    scratch.expanded += expanded;
                    scratch.searches += searches;
                    let id = work.order[work.pos];
                    work.pos += 1;
                    state.install_route(id, route);
                }
                Spec::Spill | Spec::Skip => {
                    obs.counter(PHASE, Counter::WaveSpills, 1);
                    // Full serial ladder on the main scratch; also
                    // handles the genuinely unroutable case.
                    initial_step(state, netlist, work, failed, scratch, obs);
                    // The remaining speculation raced against a state
                    // that may now change: discard and replan.
                    break;
                }
            }
        }
    }
    Ok(Termination::Converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostParams;
    use crate::rnr::{initial_routing, negotiate_congestion};
    use sadp_grid::{Net, Pin, RoutingGrid, SadpKind};
    use sadp_trace::NoopObserver;

    fn build(nets: Vec<Net>, w: i32, h: i32) -> (Netlist, RouterState) {
        let mut nl = Netlist::new();
        for n in nets {
            nl.push(n);
        }
        let grid = RoutingGrid::three_layer(w, h);
        let st = RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), true, true);
        (nl, st)
    }

    #[test]
    fn region_claims_detect_overlap_at_any_granularity() {
        for region in [1, 4, 16, 64] {
            let mut claims = RegionClaims::new(64, 64, region);
            let a = Rect {
                x0: 0,
                y0: 0,
                x1: 10,
                y1: 10,
            };
            let b = Rect {
                x0: 5,
                y0: 5,
                x1: 20,
                y1: 20,
            };
            assert!(!claims.conflicts(a), "region={region}");
            claims.claim(a);
            assert!(claims.conflicts(b), "region={region}");
            claims.clear();
            assert!(!claims.conflicts(b), "region={region}");
        }
    }

    #[test]
    fn claims_are_conservative_under_coarsening() {
        // Two rects disjoint at region=1 may conflict at region=32 —
        // never the other way around.
        let a = Rect {
            x0: 0,
            y0: 0,
            x1: 7,
            y1: 7,
        };
        let b = Rect {
            x0: 24,
            y0: 24,
            x1: 30,
            y1: 30,
        };
        let mut fine = RegionClaims::new(64, 64, 1);
        fine.claim(a);
        assert!(!fine.conflicts(b));
        let mut coarse = RegionClaims::new(64, 64, 32);
        coarse.claim(a);
        assert!(coarse.conflicts(b), "coarse cells merge the two rects");
    }

    #[test]
    fn out_of_bounds_rects_clamp() {
        let mut claims = RegionClaims::new(24, 24, 16);
        let r = Rect {
            x0: -50,
            y0: -50,
            x1: 100,
            y1: 100,
        };
        assert!(!claims.conflicts(r));
        claims.claim(r);
        assert!(claims.conflicts(Rect::point(12, 12)));
    }

    #[test]
    fn footprint_margin_scales_with_pins() {
        let two = Net::new("a", vec![Pin::new(1, 1), Pin::new(5, 5)]);
        let four = Net::new(
            "b",
            vec![
                Pin::new(1, 1),
                Pin::new(5, 5),
                Pin::new(9, 9),
                Pin::new(2, 9),
            ],
        );
        assert_eq!(footprint_margin(&two), 12);
        assert_eq!(footprint_margin(&four), 28);
    }

    #[test]
    fn sharded_initial_matches_serial() {
        let nets: Vec<Net> = (0..8)
            .map(|k| {
                Net::new(
                    format!("n{k}"),
                    vec![Pin::new(3, 3 + 5 * k), Pin::new(40, 3 + 5 * k)],
                )
            })
            .collect();
        let (nl, mut serial_st) = build(nets.clone(), 48, 48);
        let mut failed = Vec::new();
        initial_routing(
            &mut serial_st,
            &nl,
            PhaseLimits::unlimited(),
            &mut InitialWork::default(),
            &mut failed,
            &mut SearchScratch::new(),
            &mut NoopObserver,
        );
        assert!(failed.is_empty());

        for threads in [2, 4] {
            let (nl2, mut st) = build(nets.clone(), 48, 48);
            let mut work = InitialWork::default();
            let mut failed2 = Vec::new();
            let mut pool = Vec::new();
            let t = sadp_exec::with_threads(threads, || {
                initial_routing_sharded(
                    &mut st,
                    &nl2,
                    PhaseLimits::unlimited(),
                    &mut work,
                    &mut failed2,
                    &mut SearchScratch::new(),
                    &mut pool,
                    8,
                    &mut NoopObserver,
                )
            })
            .expect("no faults armed");
            assert_eq!(t, Termination::Converged);
            assert!(failed2.is_empty());
            for (id, _) in nl.iter() {
                assert_eq!(
                    serial_st.solution.route(id),
                    st.solution.route(id),
                    "threads={threads} {id:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_congestion_matches_serial() {
        use sadp_grid::RoutedNet;

        let nets: Vec<Net> = (0..6)
            .map(|k| {
                Net::new(
                    format!("n{k}"),
                    vec![Pin::new(2, 3 + 3 * k), Pin::new(21, 3 + 3 * k)],
                )
            })
            .collect();

        let congest = |st: &mut RouterState| {
            for k in [0u32, 2, 4] {
                let donor = st
                    .solution
                    .route(NetId(k + 1))
                    .expect("routed")
                    .edges()
                    .to_vec();
                st.uninstall_route(NetId(k));
                st.install_route(NetId(k), RoutedNet::new(donor, Vec::new()));
            }
        };

        let (nl, mut serial_st) = build(nets.clone(), 24, 24);
        let pins = PinIndex::build(&serial_st.grid, &nl);
        let mut scratch = SearchScratch::new();
        initial_routing(
            &mut serial_st,
            &nl,
            PhaseLimits::unlimited(),
            &mut InitialWork::default(),
            &mut Vec::new(),
            &mut scratch,
            &mut NoopObserver,
        );
        congest(&mut serial_st);
        let (clean, serial_stats) = negotiate_congestion(
            &mut serial_st,
            &nl,
            &pins,
            PhaseLimits::iters_only(10_000),
            &mut CongestionWork::default(),
            &mut scratch,
            &mut NoopObserver,
        );
        assert!(clean);

        for threads in [2, 4, 8] {
            for region in [4, 16, 24] {
                let (nl2, mut st) = build(nets.clone(), 24, 24);
                let pins2 = PinIndex::build(&st.grid, &nl2);
                let mut sc = SearchScratch::new();
                initial_routing(
                    &mut st,
                    &nl2,
                    PhaseLimits::unlimited(),
                    &mut InitialWork::default(),
                    &mut Vec::new(),
                    &mut sc,
                    &mut NoopObserver,
                );
                congest(&mut st);
                let mut work = CongestionWork::default();
                let mut pool = Vec::new();
                let (result, stats) = sadp_exec::with_threads(threads, || {
                    negotiate_congestion_sharded(
                        &mut st,
                        &nl2,
                        &pins2,
                        PhaseLimits::iters_only(10_000),
                        &mut work,
                        &mut sc,
                        &mut pool,
                        region,
                        &mut NoopObserver,
                    )
                });
                assert!(result.expect("no faults armed"), "threads={threads}");
                assert_eq!(
                    (stats.iterations, stats.reroutes, stats.failures),
                    (
                        serial_stats.iterations,
                        serial_stats.reroutes,
                        serial_stats.failures
                    ),
                    "threads={threads} region={region}"
                );
                for (id, _) in nl.iter() {
                    assert_eq!(
                        serial_st.solution.route(id),
                        st.solution.route(id),
                        "threads={threads} region={region} {id:?}"
                    );
                }
            }
        }
    }

    /// The determinism contract end to end: on a generated
    /// paper-suite instance, every pool width × region size routes to
    /// the serial (width 1) outcome, route for route, in both the
    /// baseline and the full arm.
    #[test]
    fn sharded_outcomes_are_identical_across_threads_and_regions() {
        use crate::flow::{RouterConfig, RoutingOutcome, RoutingSession};
        use benchgen::BenchSpec;

        let spec = BenchSpec::paper_suite()[0].scaled(0.02);
        let (grid, netlist) = (spec.grid(), spec.generate(1));
        let run = |config: RouterConfig, threads: usize, region: i32| -> RoutingOutcome {
            sadp_exec::with_threads(threads, || {
                let mut session = RoutingSession::new(&grid, &netlist, config);
                session.shard_region = region;
                session.finish(&mut NoopObserver)
            })
        };
        for config in [
            RouterConfig::baseline(SadpKind::Sim),
            RouterConfig::full(SadpKind::Sim),
        ] {
            let serial = run(config, 1, SHARD_REGION);
            assert!(serial.routed_all, "fixture must route fully");
            for threads in [2, 4, 8] {
                for region in [4, 16, 64] {
                    let what = format!("threads={threads} region={region}");
                    let sharded = run(config, threads, region);
                    assert_eq!(serial.stats, sharded.stats, "{what}: stats diverged");
                    assert_eq!(
                        (
                            serial.routed_all,
                            serial.congestion_free,
                            serial.fvp_free,
                            serial.colorable
                        ),
                        (
                            sharded.routed_all,
                            sharded.congestion_free,
                            sharded.fvp_free,
                            sharded.colorable
                        ),
                        "{what}: flags diverged"
                    );
                    assert_eq!(
                        serial.solution.routed_count(),
                        sharded.solution.routed_count(),
                        "{what}: route count diverged"
                    );
                    for (id, route) in serial.solution.iter() {
                        assert_eq!(
                            Some(route),
                            sharded.solution.route(id),
                            "{what}: route of {id:?} diverged"
                        );
                    }
                }
            }
        }
    }
}

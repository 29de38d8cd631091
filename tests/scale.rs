//! Scale-axis contracts: benchgen must produce stable, correctly
//! scaled instances from factor 0.05 up to full size plus the 10⁵-net
//! synthetic range, and the routing kernel must survive the largest
//! of them.

use benchgen::BenchSpec;
use sadp_grid::{read_netlist, write_netlist, SadpKind};
use sadp_router::dijkstra::route_net;
use sadp_router::state::RouterState;
use sadp_router::{CostParams, SearchScratch};

/// FNV-1a over a text document: the fingerprint primitive used across
/// the repo's determinism pins.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One rounding rule across the whole scale axis: `scaled` rounds the
/// net count, and `generate_bus_style` must round the bus share the
/// same way instead of truncating (the issue-7 drift bug).
#[test]
fn factor_sweep_applies_one_rounding_rule() {
    for spec in BenchSpec::paper_suite() {
        for factor in [0.05, 0.1, 0.25, 0.5, 1.0] {
            let s = spec.scaled(factor);
            assert_eq!(
                s.nets,
                ((spec.nets as f64 * factor).round() as usize).max(1),
                "{} @ {factor}: net count must round",
                spec.name
            );
            assert!(s.width >= 24 && s.height >= 24);
            if factor == 1.0 {
                assert_eq!(s, spec, "factor 1.0 must be the identity");
            }
        }
    }
    // Bus share at a small factor: ecc @ 0.05 = 84 nets, fraction 0.1
    // -> 8.4 -> 8 bus nets (was non-deterministically lower with the
    // truncation bug only when the product had a fractional part; the
    // pinned generator hits the rounded target on this loose die).
    let s = BenchSpec::by_name("ecc").unwrap().scaled(0.05);
    let nl = s.generate_bus_style(1, 0.1);
    let bus = nl.iter().filter(|(_, n)| n.name().contains("_bus")).count();
    assert_eq!(bus, ((s.nets as f64 * 0.1).round() as usize).min(s.nets));
}

/// Generated instances at the existing benchmark scales are pinned by
/// fingerprint: any change to the generator shifts every committed
/// benchmark baseline, so it must be loud.
#[test]
fn generation_fingerprints_are_stable_at_existing_scales() {
    let pins = [
        ("ecc", 0.05, 1u64, 0x5247c822cf35d742u64),
        ("ecc", 0.1, 1, 0x6ed74674e7a8c7a8),
        ("alu", 0.1, 1, 0x93ff3c80921f925e),
    ];
    for (name, factor, seed, want) in pins {
        let spec = BenchSpec::by_name(name).unwrap().scaled(factor);
        let text = write_netlist(&spec.grid(), &spec.generate(seed));
        assert_eq!(
            fnv(&text),
            want,
            "{name} @ {factor} seed {seed}: generator output drifted \
             (got 0x{:016x})",
            fnv(&text)
        );
    }
}

/// A 10⁵-net synthetic instance survives the full data path —
/// generation, serialization round-trip, state construction, and
/// routing a sample of nets — without panicking or tripping a cap.
/// Ignored by default: takes minutes at full size.
#[test]
#[ignore = "10^5-net instance: run explicitly with --ignored"]
fn synthetic_100k_net_instance_routes_without_panic() {
    let spec = BenchSpec::synthetic(100_000);
    let nl = spec.generate(1);
    assert!(
        nl.len() >= 95_000,
        "die too crowded: only {} of 100000 nets placed",
        nl.len()
    );
    // io round-trip preserves the instance exactly.
    let text = write_netlist(&spec.grid(), &nl);
    let (grid2, nl2) = read_netlist(&text).expect("roundtrip parse");
    assert_eq!(nl2, nl);
    assert_eq!(grid2.width(), spec.width);
    // Route a deterministic sample spread across the instance; the
    // interesting part is that big-coordinate state keys, paged
    // windows, and the Dial queue all engage without panic.
    let st = RouterState::new(grid2, &nl, SadpKind::Sim, CostParams::default(), true, true);
    let mut scratch = SearchScratch::new();
    let mut routed = 0usize;
    for (id, net) in nl.iter().step_by(97).take(400) {
        if route_net(&st, id, net, &mut scratch).is_some() {
            routed += 1;
        }
    }
    assert!(routed >= 390, "only {routed}/400 sampled nets routed");
}

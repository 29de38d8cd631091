//! Export a routed block as SVG: metal layers, TPL-colored vias, and
//! the synthesized SADP masks (mandrel + cut/trim) of one layer.
//!
//! ```text
//! cargo run --release --example mask_export [-- out.svg]
//! ```

use std::fmt::Write as _;

use sadp_dvi::prelude::*;
use sadp_dvi::sadp::decompose_layer;
use sadp_dvi::tpl::{welsh_powell, DecompGraph};

const TRACK: f64 = 12.0; // pixels per track
const COLORS: [&str; 3] = ["#e07a2f", "#3fa34d", "#3b6fd4"]; // orange/green/blue

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "routed_block.svg".into());
    let grid = RoutingGrid::three_layer(28, 28);
    let mut netlist = Netlist::new();
    netlist.push(Net::new(
        "a",
        vec![Pin::new(4, 4), Pin::new(22, 4), Pin::new(12, 18)],
    ));
    netlist.push(Net::new("b", vec![Pin::new(4, 10), Pin::new(22, 14)]));
    netlist.push(Net::new("c", vec![Pin::new(8, 22), Pin::new(20, 8)]));
    netlist.push(Net::new("d", vec![Pin::new(6, 16), Pin::new(18, 22)]));
    let outcome = RoutingSession::try_new(&grid, &netlist, RouterConfig::full(SadpKind::Sim))
        .and_then(|s| s.try_finish(&mut NoopObserver))
        .expect("full flow");
    assert!(outcome.routed_all && outcome.fvp_free);

    let size = 28.0 * TRACK + 2.0 * TRACK;
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">"##
    );
    let _ = writeln!(
        svg,
        r##"<rect width="100%" height="100%" fill="#fafafa"/>"##
    );

    let px = |t: i32| (t as f64 + 1.0) * TRACK;
    let flip = |y: f64| size - y;

    // Wires: M2 red-ish, M3 teal-ish.
    let mut m2_edges: Vec<WireEdge> = Vec::new();
    for (_, route) in outcome.solution.iter() {
        for e in route.edges() {
            let [a, b] = e.endpoints();
            let color = if e.layer == 1 { "#c65353" } else { "#4b9aa8" };
            let _ = writeln!(
                svg,
                r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{color}" stroke-width="4" stroke-linecap="round" opacity="0.85"/>"##,
                px(a.x),
                flip(px(a.y)),
                px(b.x),
                flip(px(b.y)),
            );
            if e.layer == 1 {
                m2_edges.push(*e);
            }
        }
    }

    // Vias on the M2/M3 cut layer, filled with their TPL color.
    let vias: Vec<(i32, i32)> = outcome
        .solution
        .vias_on_layer(1)
        .into_iter()
        .map(|(_, v)| (v.x, v.y))
        .collect();
    let graph = DecompGraph::from_positions(vias.iter().copied());
    let coloring = welsh_powell(&graph, 3);
    assert!(coloring.is_complete(), "router guarantees colorability");
    for (i, &(x, y)) in vias.iter().enumerate() {
        let c = COLORS[coloring.colors[i].unwrap() as usize];
        let _ = writeln!(
            svg,
            r##"<rect x="{:.1}" y="{:.1}" width="7" height="7" fill="{c}" stroke="#222" stroke-width="0.8"/>"##,
            px(x) - 3.5,
            flip(px(y)) - 3.5,
        );
    }

    // Pin vias as hollow squares.
    for (_, route) in outcome.solution.iter() {
        for v in route.vias() {
            if v.below == 0 {
                let _ = writeln!(
                    svg,
                    r##"<rect x="{:.1}" y="{:.1}" width="6" height="6" fill="none" stroke="#555" stroke-width="1"/>"##,
                    px(v.x) - 3.0,
                    flip(px(v.y)) - 3.0,
                );
            }
        }
    }

    // SADP masks of M2, drawn faintly under everything (mask geometry
    // is in quarter-track units: coordinate 4*t maps to track t).
    let masks = decompose_layer(SadpKind::Sim, &m2_edges).expect("router output decomposes");
    let mq = |q: i32| (q as f64 / 4.0 + 1.0) * TRACK;
    let mut mask_layer = String::new();
    for r in &masks.mandrel {
        let _ = writeln!(
            mask_layer,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#caa54e" opacity="0.25"/>"##,
            mq(r.x0),
            flip(mq(r.y1)),
            mq(r.x1) - mq(r.x0),
            mq(r.y1) - mq(r.y0),
        );
    }
    for r in &masks.aux {
        let _ = writeln!(
            mask_layer,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#8868b0" opacity="0.2"/>"##,
            mq(r.x0),
            flip(mq(r.y1)),
            mq(r.x1) - mq(r.x0),
            mq(r.y1) - mq(r.y0),
        );
    }
    // Prepend the mask layer so wires render on top.
    svg = svg.replacen(
        "<rect width=\"100%\" height=\"100%\" fill=\"#fafafa\"/>\n",
        &format!("<rect width=\"100%\" height=\"100%\" fill=\"#fafafa\"/>\n{mask_layer}"),
        1,
    );
    svg.push_str("</svg>\n");
    std::fs::write(&path, &svg).expect("write svg");
    println!(
        "wrote {path}: {} wires, {} cut-layer vias (3 TPL colors), {} mandrel + {} cut shapes",
        outcome.stats.wirelength,
        vias.len(),
        masks.mandrel.len(),
        masks.aux.len()
    );
}

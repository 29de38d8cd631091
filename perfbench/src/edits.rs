//! Seeded input generation: the ECO edit chain.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use benchgen::spec::PIN_SPACING;
use sadp_grid::{LayoutDelta, NetId, Netlist, Pin, RoutingGrid};

/// How far, in tracks, an edit moves a pad.
const MOVE_REACH: i32 = 4;

/// Pads stay this far inside the die, like the generator's margin.
const EDGE_MARGIN: i32 = 2;

/// Pin positions of a netlist, counted, for spacing checks.
struct PinMap(HashMap<(i32, i32), u32>);

impl PinMap {
    fn of(netlist: &Netlist) -> PinMap {
        let mut map = HashMap::new();
        for (_, net) in netlist.iter() {
            for p in net.pins() {
                *map.entry((p.x, p.y)).or_insert(0) += 1;
            }
        }
        PinMap(map)
    }

    fn add(&mut self, p: Pin) {
        *self.0.entry((p.x, p.y)).or_insert(0) += 1;
    }

    fn remove(&mut self, p: Pin) {
        if let Some(c) = self.0.get_mut(&(p.x, p.y)) {
            *c -= 1;
            if *c == 0 {
                self.0.remove(&(p.x, p.y));
            }
        }
    }

    /// `true` when no pin lies within `PIN_SPACING - 1` tracks
    /// (Chebyshev) of `(x, y)`.
    fn spaced(&self, x: i32, y: i32) -> bool {
        let r = PIN_SPACING - 1;
        (-r..=r).all(|dy| (-r..=r).all(|dx| !self.0.contains_key(&(x + dx, y + dy))))
    }
}

/// One pad move of `net`, honouring the generator's pin spacing
/// against every other pin; `None` when the pad has no legal target.
fn pad_move(
    grid: &RoutingGrid,
    netlist: &Netlist,
    pins: &mut PinMap,
    net: NetId,
    rng: &mut SmallRng,
) -> Option<(Pin, Pin)> {
    let pads = netlist.get(net)?.pins();
    let from = pads[rng.gen_range(0..pads.len())];
    pins.remove(from);
    let mut targets = Vec::new();
    for dy in -MOVE_REACH..=MOVE_REACH {
        for dx in -MOVE_REACH..=MOVE_REACH {
            let (x, y) = (from.x + dx, from.y + dy);
            let inside = x >= EDGE_MARGIN
                && y >= EDGE_MARGIN
                && x < grid.width() - EDGE_MARGIN
                && y < grid.height() - EDGE_MARGIN;
            if (dx, dy) != (0, 0) && inside && pins.spaced(x, y) {
                targets.push(Pin::new(x, y));
            }
        }
    }
    if targets.is_empty() {
        pins.add(from);
        return None;
    }
    let to = targets[rng.gen_range(0..targets.len())];
    pins.add(to);
    Some((from, to))
}

/// A small random edit of `netlist`: one or two pad moves on distinct
/// nets.
pub fn random_edit(grid: &RoutingGrid, netlist: &Netlist, rng: &mut SmallRng) -> LayoutDelta {
    let mut pins = PinMap::of(netlist);
    let moves = rng.gen_range(1..=2);
    let mut delta = LayoutDelta::new();
    let mut moved: Vec<NetId> = Vec::new();
    for _ in 0..64 {
        if moved.len() == moves {
            break;
        }
        let net = NetId(rng.gen_range(0..netlist.len()) as u32);
        if moved.contains(&net) || netlist.get(net).is_none() {
            continue;
        }
        if let Some((from, to)) = pad_move(grid, netlist, &mut pins, net, rng) {
            delta.move_pad(net, from, to);
            moved.push(net);
        }
    }
    delta
}

/// A chain of `edits` successive edits of `base`: `netlists[0]` is the
/// base, `netlists[i + 1]` is `netlists[i]` with `deltas[i]` applied.
#[derive(Debug)]
pub struct EditChain {
    /// The base and every edited netlist, in order.
    pub netlists: Vec<Netlist>,
    /// The edits, in order.
    pub deltas: Vec<LayoutDelta>,
}

/// Builds an edit chain from `seed`.
pub fn edit_chain(grid: &RoutingGrid, base: Netlist, edits: usize, seed: u64) -> EditChain {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xec0);
    let mut netlists = Vec::with_capacity(edits + 1);
    let mut deltas = Vec::with_capacity(edits);
    netlists.push(base);
    for _ in 0..edits {
        let last = netlists.last().expect("the chain starts with its base");
        let delta = random_edit(grid, last, &mut rng);
        let mut next = last.clone();
        delta.apply_to_netlist(&mut next);
        netlists.push(next);
        deltas.push(delta);
    }
    EditChain { netlists, deltas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::BenchSpec;

    #[test]
    fn every_delta_validates_against_its_predecessor() {
        let spec = BenchSpec::by_name("ecc")
            .expect("paper suite has ecc")
            .scaled(0.1);
        let grid = spec.grid();
        let chain = edit_chain(&grid, spec.generate(7), 60, 7);
        assert_eq!(chain.deltas.len(), 60);
        assert_eq!(chain.netlists.len(), 61);
        for (i, delta) in chain.deltas.iter().enumerate() {
            assert!(
                (1..=2).contains(&delta.len()),
                "edit {i}: {} ops",
                delta.len()
            );
            delta
                .validate(&grid, &chain.netlists[i])
                .unwrap_or_else(|e| panic!("edit {i} rejected: {e}"));
            let mut applied = chain.netlists[i].clone();
            delta.apply_to_netlist(&mut applied);
            assert_eq!(applied, chain.netlists[i + 1]);
            chain.netlists[i + 1]
                .validate(&grid)
                .unwrap_or_else(|e| panic!("netlist {} invalid: {e}", i + 1));
        }
    }

    #[test]
    fn edits_keep_the_generator_pin_spacing() {
        let spec = BenchSpec::by_name("ecc")
            .expect("paper suite has ecc")
            .scaled(0.1);
        let grid = spec.grid();
        let chain = edit_chain(&grid, spec.generate(3), 40, 3);
        let last = chain.netlists.last().expect("non-empty chain");
        let pins: Vec<Pin> = last
            .iter()
            .flat_map(|(_, n)| n.pins().iter().copied())
            .collect();
        for (i, a) in pins.iter().enumerate() {
            for b in &pins[i + 1..] {
                let d = (a.x - b.x).abs().max((a.y - b.y).abs());
                assert!(d >= PIN_SPACING, "pins {a} and {b} are {d} apart");
            }
        }
    }

    #[test]
    fn the_seed_names_the_chain() {
        let spec = BenchSpec::by_name("ecc")
            .expect("paper suite has ecc")
            .scaled(0.05);
        let grid = spec.grid();
        let a = edit_chain(&grid, spec.generate(1), 10, 5);
        let b = edit_chain(&grid, spec.generate(1), 10, 5);
        let c = edit_chain(&grid, spec.generate(1), 10, 6);
        assert_eq!(a.deltas, b.deltas);
        assert_ne!(a.deltas, c.deltas);
    }
}

//! The dense, window-local A* search kernel — the maze-routing hot
//! path shared by every phase of the flow (initial routing, negotiated
//! congestion, and the Algorithm-2 via-layer R&R).
//!
//! Search states are `(grid point, incoming direction)` so that turn
//! penalties and forbidden-turn pruning are exact: the cost of
//! entering a point depends on how the wire leaves the previous one.
//!
//! # Why dense
//!
//! The original kernel (kept as [`route_connection_reference`] for
//! differential testing and benchmarking) ran textbook Dijkstra over
//! `HashMap` dist/parent maps with a fresh `BinaryHeap` per pin
//! connection, paying a hash + allocate on every expanded state. This
//! kernel instead indexes flat arrays by
//! `(layer, x − x0, y − y0, in_dir)` over the active [`Window`] and
//! reuses them across connections, nets, and R&R iterations through a
//! caller-owned [`SearchScratch`]:
//!
//! * **Epoch-stamped lazy clearing** — each search bumps an epoch
//!   counter instead of zeroing the arrays; a slot whose stamp is not
//!   the current epoch reads as "unvisited". Buffers are only ever
//!   grown, never cleared.
//! * **A\* ordering** — an admissible, consistent lower bound (see
//!   `SearchScratch::heuristic`) turns Dijkstra into A*, which cuts
//!   the expanded-state count sharply on the escalating-window
//!   retries where the window is much larger than the route.
//! * **Tree marks** — the partial tree a connection starts from is
//!   stamped once per search into a window-local mark array (epoch
//!   stamped, paged with the search state), so "is this neighbour on
//!   the tree?" is an array read rather than a hash probe.
//! * **Compact parent encoding** — instead of a parent *key* per
//!   state, only the predecessor's incoming-direction code is stored
//!   (1 byte): the predecessor point is recovered by stepping
//!   backwards along the state's own incoming direction.
//! * **Dial bucket-queue open set** — integer costs and a consistent
//!   heuristic make the popped f-sequence monotone, so the open set
//!   is a Dial bucket queue (O(1) push, near-O(1) pop) instead of a binary
//!   heap; its pop order is *identical* to the heap's, so routes are
//!   byte-for-byte the same under either. The heap survives only as a
//!   test oracle ([`SearchScratch::with_reference_heap`], behind the
//!   same gate as [`route_connection_reference`]).
//! * **Paged windows** — windows whose state count exceeds
//!   [`FLAT_SLOT_LIMIT`] switch from the flat arrays to lazily
//!   allocated 32×32-track tile pages, so a full-grid escalation on a
//!   million-net instance allocates memory proportional to the states
//!   actually touched, not the window area.
//!
//! The 64-bit `key`/`unkey` state packing survives only as the
//! open-set payload, where it keeps queue nodes at 16 bytes and gives
//! a deterministic tie-break order.

#[cfg(any(test, feature = "reference-search"))]
use std::cmp::Reverse;
#[cfg(any(test, feature = "reference-search"))]
use std::collections::BinaryHeap;
use std::collections::{HashMap, HashSet};

use sadp_decomp::{classify_turn, TurnClass};
use sadp_grid::{Dir, GridPoint, NetId, TurnKind, Via, WireEdge};

use crate::bucket::DialQueue;
use crate::state::RouterState;

/// A rectangular search window in track coordinates (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Left bound.
    pub x0: i32,
    /// Bottom bound.
    pub y0: i32,
    /// Right bound.
    pub x1: i32,
    /// Top bound.
    pub y1: i32,
}

impl Window {
    /// The window spanning a set of points, inflated by `margin` and
    /// clamped to the grid. Returns `None` when `points` is empty (an
    /// empty set has no bounding window).
    pub fn around<I: IntoIterator<Item = (i32, i32)>>(
        points: I,
        margin: i32,
        width: i32,
        height: i32,
    ) -> Option<Window> {
        let (mut x0, mut y0, mut x1, mut y1) = (i32::MAX, i32::MAX, i32::MIN, i32::MIN);
        let mut any = false;
        for (x, y) in points {
            any = true;
            x0 = x0.min(x);
            y0 = y0.min(y);
            x1 = x1.max(x);
            y1 = y1.max(y);
        }
        if !any {
            return None;
        }
        Some(Window {
            x0: x0.saturating_sub(margin).max(0),
            y0: y0.saturating_sub(margin).max(0),
            x1: x1.saturating_add(margin).min(width - 1),
            y1: y1.saturating_add(margin).min(height - 1),
        })
    }

    /// `true` when `(x, y)` lies inside the window.
    #[inline]
    pub fn contains(&self, x: i32, y: i32) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    /// Window width in tracks.
    #[inline]
    pub fn width(&self) -> i32 {
        self.x1 - self.x0 + 1
    }

    /// Window height in tracks.
    #[inline]
    pub fn height(&self) -> i32 {
        self.y1 - self.y0 + 1
    }
}

/// A path found by [`route_connection`].
#[derive(Debug, Clone, Default)]
pub struct FoundPath {
    /// New wire edges.
    pub edges: Vec<WireEdge>,
    /// New vias.
    pub vias: Vec<Via>,
    /// Total cost in [`crate::costs::SCALE`] units.
    pub cost: i64,
}

/// Incoming-direction code for source states (no incoming wire).
pub(crate) const IN_NONE: u8 = 6;

/// Number of incoming-direction codes per grid point (6 dirs + none).
const STATES_PER_POINT: usize = 7;

/// Parent sentinel: the state is a search source.
const PARENT_SOURCE: u8 = 0xFF;

#[inline]
pub(crate) fn dir_code(d: Dir) -> u8 {
    match d {
        Dir::East => 0,
        Dir::West => 1,
        Dir::North => 2,
        Dir::South => 3,
        Dir::Up => 4,
        Dir::Down => 5,
    }
}

#[inline]
pub(crate) fn code_dir(c: u8) -> Option<Dir> {
    Some(match c {
        0 => Dir::East,
        1 => Dir::West,
        2 => Dir::North,
        3 => Dir::South,
        4 => Dir::Up,
        5 => Dir::Down,
        _ => return None,
    })
}

/// Packs a search state into 64 bits: layer in the top byte, then 24
/// bits each of x and y, then the incoming-direction code.
///
/// Coordinates must fit in 24 bits signed (`|x|, |y| < 2^23`); grids
/// anywhere near that size are far beyond the paper's benchmarks (the
/// largest, `top`, is 1176 × 1179).
#[inline]
pub(crate) fn key(p: GridPoint, in_code: u8) -> u64 {
    debug_assert!(
        (-(1 << 23)..1 << 23).contains(&p.x) && (-(1 << 23)..1 << 23).contains(&p.y),
        "coordinates exceed the 24-bit key budget: {p}"
    );
    ((p.layer as u64) << 56)
        | ((p.x as u32 as u64 & 0xFFFFFF) << 32)
        | ((p.y as u32 as u64 & 0xFFFFFF) << 8)
        | in_code as u64
}

/// Inverse of [`key`], sign-extending the 24-bit coordinates.
#[inline]
pub(crate) fn unkey(k: u64) -> (GridPoint, u8) {
    let layer = (k >> 56) as u8;
    let x = ((k >> 32) & 0xFFFFFF) as u32;
    let y = ((k >> 8) & 0xFFFFFF) as u32;
    let sx = ((x << 8) as i32) >> 8;
    let sy = ((y << 8) as i32) >> 8;
    (GridPoint::new(layer, sx, sy), (k & 0xFF) as u8)
}

/// The open set behind [`SearchScratch`]: either kind pops strictly
/// in ascending `(f, key)` order, including entries pushed mid-drain.
/// Production builds have only the Dial queue; the binary heap is the
/// differential oracle.
#[derive(Debug, Clone)]
enum OpenSet {
    /// Dial bucket queue.
    Dial(DialQueue),
    /// Reference binary heap (test oracle).
    #[cfg(any(test, feature = "reference-search"))]
    Heap(BinaryHeap<Reverse<(i64, u64)>>),
}

impl OpenSet {
    fn clear(&mut self) {
        match self {
            OpenSet::Dial(q) => q.clear(),
            #[cfg(any(test, feature = "reference-search"))]
            OpenSet::Heap(h) => h.clear(),
        }
    }

    #[inline]
    fn push(&mut self, f: i64, key: u64) {
        match self {
            OpenSet::Dial(q) => q.push(f, key),
            #[cfg(any(test, feature = "reference-search"))]
            OpenSet::Heap(h) => h.push(Reverse((f, key))),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(i64, u64)> {
        match self {
            OpenSet::Dial(q) => q.pop(),
            #[cfg(any(test, feature = "reference-search"))]
            OpenSet::Heap(h) => h.pop().map(|Reverse(p)| p),
        }
    }
}

/// Tile edge (in tracks) of one paged-window page.
const TILE: usize = 32;
const TILE_SHIFT: usize = 5;

/// Windows with more states than this use lazily allocated tile pages
/// instead of the flat arrays: `2^22` slots ≈ 54 MB of flat scratch,
/// comfortably covering every full-grid window of the paper's
/// mid-size circuits while keeping full-scale `div`/`top` and the
/// 10⁵–10⁶-net synthetic instances from pinning gigabytes per worker.
pub const FLAT_SLOT_LIMIT: usize = 1 << 22;

/// Bits reserved for the within-page offset in a paged slot address.
/// A page holds `layers × 32 × 32 × 7` states — at the 255-layer
/// maximum that is 1,827,840 < 2^21.
const PAGE_ADDR_SHIFT: usize = 21;
const PAGE_ADDR_MASK: usize = (1 << PAGE_ADDR_SHIFT) - 1;

/// One lazily allocated 32×32-track tile of search state (all layers
/// × all incoming-direction codes), plus the tile's tree marks (all
/// layers).
#[derive(Debug, Clone)]
struct Page {
    stamp: Box<[u32]>,
    dist: Box<[i64]>,
    parent: Box<[u8]>,
    tree: Box<[u32]>,
}

impl Page {
    fn zeroed(slots: usize) -> Page {
        Page {
            stamp: vec![0u32; slots].into_boxed_slice(),
            dist: vec![0i64; slots].into_boxed_slice(),
            parent: vec![0u8; slots].into_boxed_slice(),
            tree: vec![0u32; slots / STATES_PER_POINT].into_boxed_slice(),
        }
    }
}

/// Reusable search buffers: dist/parent/visited state and tree marks
/// over the active window, plus the open set.
///
/// One scratch serves any number of searches; state is lazily
/// "cleared" by bumping an epoch. Small windows index flat arrays
/// that grow to the largest such window seen; windows above
/// [`FLAT_SLOT_LIMIT`] states switch to 32×32-track tile pages
/// allocated on first touch, so memory tracks the states a search
/// actually visits rather than the window area. Create one scratch
/// per routing thread and pass it to every [`route_connection`] /
/// [`crate::dijkstra::route_net`] call.
#[derive(Debug, Clone)]
pub struct SearchScratch {
    /// Epoch a flat slot was last written in; `!= epoch` = unvisited.
    stamp: Vec<u32>,
    /// Best known cost from the sources (valid when stamped).
    dist: Vec<i64>,
    /// Incoming-direction code of the predecessor state, or
    /// [`PARENT_SOURCE`] (valid when stamped).
    parent: Vec<u8>,
    /// Per grid point of the flat window: the epoch in which the point
    /// was marked as part of the source tree (`== epoch` = on the tree).
    tree: Vec<u32>,
    /// Tile pages of the paged mode (`None` = never touched).
    pages: Vec<Option<Box<Page>>>,
    /// States per page (`layer_count × 32 × 32 × 7`).
    page_slots: usize,
    /// Pages per tile row of the active window.
    tiles_x: usize,
    /// `true` when the active window is in paged mode.
    paged: bool,
    /// Open set: `(f = g + h, packed state key)`.
    queue: OpenSet,
    /// Current search epoch (0 = no search begun).
    epoch: u32,
    /// Active window geometry.
    x0: i32,
    y0: i32,
    w: usize,
    h: usize,
    /// Statistics: states expanded (open-set pops that were not
    /// stale) since construction. Drives the kernel benchmarks.
    pub expanded: u64,
    /// Statistics: searches begun since construction.
    pub searches: u64,
    /// When set, [`route_connection`] refuses to *start* a search
    /// once `expanded` has reached this value (the budget's expansion
    /// cap). Checked only at search entry — never inside the inner
    /// loop — so the kernel's per-node cost is unchanged.
    expansion_stop: Option<u64>,
}

impl Default for SearchScratch {
    fn default() -> SearchScratch {
        SearchScratch::new()
    }
}

impl SearchScratch {
    /// A scratch with empty buffers (they grow on first use) and a
    /// Dial bucket-queue open set.
    pub fn new() -> SearchScratch {
        SearchScratch::with_open_set(OpenSet::Dial(DialQueue::new()))
    }

    /// A scratch whose open set is the reference `BinaryHeap`: the
    /// oracle the Dial queue is tested against. Routes, expansion and
    /// search counts are identical to [`SearchScratch::new`]'s.
    #[cfg(any(test, feature = "reference-search"))]
    pub fn with_reference_heap() -> SearchScratch {
        SearchScratch::with_open_set(OpenSet::Heap(BinaryHeap::new()))
    }

    fn with_open_set(queue: OpenSet) -> SearchScratch {
        SearchScratch {
            stamp: Vec::new(),
            dist: Vec::new(),
            parent: Vec::new(),
            tree: Vec::new(),
            pages: Vec::new(),
            page_slots: 0,
            tiles_x: 0,
            paged: false,
            queue,
            epoch: 0,
            x0: 0,
            y0: 0,
            w: 0,
            h: 0,
            expanded: 0,
            searches: 0,
            expansion_stop: None,
        }
    }

    /// Installs (or lifts, with `None`) the absolute expansion-count
    /// stop value: searches no longer start once [`Self::expanded`]
    /// reaches it.
    pub fn set_expansion_stop(&mut self, stop: Option<u64>) {
        self.expansion_stop = stop;
    }

    /// Prepares the buffers for one search over `window` ×
    /// `layer_count` metal layers: picks flat or paged mode from the
    /// window's state count, grows the backing storage if needed, and
    /// bumps the epoch so every slot reads as unvisited without
    /// clearing.
    fn begin(&mut self, window: Window, layer_count: u8) {
        self.x0 = window.x0;
        self.y0 = window.y0;
        self.w = window.width() as usize;
        self.h = window.height() as usize;
        let cap = self.w * self.h * layer_count as usize * STATES_PER_POINT;
        self.paged = cap > FLAT_SLOT_LIMIT;
        if self.paged {
            let slots = layer_count as usize * TILE * TILE * STATES_PER_POINT;
            if self.page_slots != slots {
                // Layer count changed under us: page geometry is
                // stale, drop every page.
                self.pages.clear();
                self.page_slots = slots;
            }
            self.tiles_x = self.w.div_ceil(TILE);
            let tiles_y = self.h.div_ceil(TILE);
            let n_pages = self.tiles_x * tiles_y;
            if self.pages.len() < n_pages {
                self.pages.resize_with(n_pages, || None);
            }
        } else if self.stamp.len() < cap {
            self.stamp.resize(cap, 0);
            self.dist.resize(cap, 0);
            self.parent.resize(cap, 0);
            self.tree.resize(cap / STATES_PER_POINT, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrapped after 2^32 searches: hard-reset stamps
                // once so stale slots cannot alias the new epoch.
                self.stamp.fill(0);
                self.tree.fill(0);
                for page in self.pages.iter_mut().flatten() {
                    page.stamp.fill(0);
                    page.tree.fill(0);
                }
                1
            }
        };
        self.queue.clear();
        self.searches += 1;
    }

    /// Address of a grid point inside the active window: a flat index
    /// in flat mode, `(page << PAGE_ADDR_SHIFT) | offset` in paged
    /// mode. Indexes the tree marks directly.
    #[inline]
    fn point_slot(&self, p: GridPoint) -> usize {
        let lx = (p.x - self.x0) as usize;
        let ly = (p.y - self.y0) as usize;
        if !self.paged {
            (p.layer as usize * self.h + ly) * self.w + lx
        } else {
            let page = (ly >> TILE_SHIFT) * self.tiles_x + (lx >> TILE_SHIFT);
            let off = (p.layer as usize * TILE + (ly & (TILE - 1))) * TILE + (lx & (TILE - 1));
            (page << PAGE_ADDR_SHIFT) | off
        }
    }

    /// Address of a state inside the active window, in the same two
    /// forms as [`Self::point_slot`].
    #[inline]
    fn slot(&self, p: GridPoint, in_code: u8) -> usize {
        debug_assert!(in_code as usize <= IN_NONE as usize);
        let point = self.point_slot(p);
        if !self.paged {
            point * STATES_PER_POINT + in_code as usize
        } else {
            (point & !PAGE_ADDR_MASK)
                | ((point & PAGE_ADDR_MASK) * STATES_PER_POINT + in_code as usize)
        }
    }

    /// Marks `p` as a point of the source tree for the current search,
    /// allocating its page on first touch in paged mode.
    #[inline]
    fn mark_tree(&mut self, p: GridPoint) {
        let slot = self.point_slot(p);
        if !self.paged {
            self.tree[slot] = self.epoch;
        } else {
            let slots = self.page_slots;
            let page = self.pages[slot >> PAGE_ADDR_SHIFT]
                .get_or_insert_with(|| Box::new(Page::zeroed(slots)));
            page.tree[slot & PAGE_ADDR_MASK] = self.epoch;
        }
    }

    /// `true` when `p` was marked by [`Self::mark_tree`] in the current
    /// search.
    #[inline]
    fn on_tree(&self, p: GridPoint) -> bool {
        let slot = self.point_slot(p);
        if !self.paged {
            self.tree[slot] == self.epoch
        } else {
            self.pages[slot >> PAGE_ADDR_SHIFT]
                .as_ref()
                .is_some_and(|page| page.tree[slot & PAGE_ADDR_MASK] == self.epoch)
        }
    }

    /// Best known cost of a state, or `i64::MAX` when unvisited this
    /// epoch (including never-touched pages).
    #[inline]
    fn dist_at(&self, slot: usize) -> i64 {
        if !self.paged {
            if self.stamp[slot] == self.epoch {
                self.dist[slot]
            } else {
                i64::MAX
            }
        } else {
            match &self.pages[slot >> PAGE_ADDR_SHIFT] {
                Some(page) if page.stamp[slot & PAGE_ADDR_MASK] == self.epoch => {
                    page.dist[slot & PAGE_ADDR_MASK]
                }
                _ => i64::MAX,
            }
        }
    }

    /// Predecessor incoming-direction code of a stamped state. For an
    /// unstamped state (a programming error) this degrades to
    /// [`PARENT_SOURCE`], which safely terminates reconstruction.
    #[inline]
    fn parent_at(&self, slot: usize) -> u8 {
        if !self.paged {
            self.parent[slot]
        } else {
            match &self.pages[slot >> PAGE_ADDR_SHIFT] {
                Some(page) => page.parent[slot & PAGE_ADDR_MASK],
                None => PARENT_SOURCE,
            }
        }
    }

    /// Stamps a state with cost `g` and predecessor `parent_code`,
    /// allocating its page on first touch in paged mode.
    #[inline]
    fn write(&mut self, slot: usize, g: i64, parent_code: u8) {
        if !self.paged {
            self.stamp[slot] = self.epoch;
            self.dist[slot] = g;
            self.parent[slot] = parent_code;
        } else {
            let slots = self.page_slots;
            let page = self.pages[slot >> PAGE_ADDR_SHIFT]
                .get_or_insert_with(|| Box::new(Page::zeroed(slots)));
            let off = slot & PAGE_ADDR_MASK;
            page.stamp[off] = self.epoch;
            page.dist[off] = g;
            page.parent[off] = parent_code;
        }
    }

    /// Number of currently allocated tile pages (memory diagnostics).
    pub fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    #[inline]
    fn relax(&mut self, to: GridPoint, in_code: u8, g: i64, parent_code: u8, f: i64) {
        let slot = self.slot(to, in_code);
        if g < self.dist_at(slot) {
            self.write(slot, g, parent_code);
            self.queue.push(f, key(to, in_code));
        }
    }

    /// The admissible A* lower bound from `p` to `target`:
    /// Manhattan distance × the minimum preferred-direction step cost
    /// plus layer distance × the minimum via cost.
    ///
    /// Admissibility: every planar step reduces the Manhattan term by
    /// at most one and costs at least
    /// [`crate::costs::CostParams::min_wire_step`]; every via reduces
    /// the layer term by at most one and costs at least
    /// [`crate::costs::CostParams::min_via_step`]; all vertex / usage
    /// / history penalties are non-negative. The bound is consistent
    /// (each step changes `h` by at most its own cost), so the first
    /// pop of the target is optimal, exactly like Dijkstra.
    #[inline]
    fn heuristic(p: GridPoint, target: GridPoint, min_step: i64, min_via: i64) -> i64 {
        p.manhattan(target) as i64 * min_step + p.via_span(target) as i64 * min_via
    }
}

/// Searches a minimum-cost path from the source tree to `target`
/// using the dense A* kernel.
///
/// * `sources` — tree points on routing layers with their existing
///   arm directions (turn legality at branch points is checked
///   against them);
/// * `tree_points` — all tree points; they cannot be traversed (a
///   path may only *start* at the tree);
/// * `target` — the pad to reach (on a routing layer);
/// * `scratch` — reusable buffers (see [`SearchScratch`]).
///
/// Source points outside `window` are ignored; the search never
/// leaves the window. Returns `None` when no path exists inside it.
///
/// The returned path has exactly the cost Dijkstra would find; only
/// tie-breaking among equal-cost paths may differ from
/// [`route_connection_reference`].
pub fn route_connection(
    state: &RouterState,
    net: NetId,
    sources: &HashMap<GridPoint, Vec<Dir>>,
    tree_points: &HashSet<GridPoint>,
    target: GridPoint,
    window: Window,
    scratch: &mut SearchScratch,
) -> Option<FoundPath> {
    let params = &state.params;
    let grid = &state.grid;
    if !window.contains(target.x, target.y) {
        return None;
    }
    if scratch
        .expansion_stop
        .is_some_and(|s| scratch.expanded >= s)
    {
        return None; // expansion budget exhausted: refuse to search
    }
    let min_step = params.min_wire_step();
    let min_via = params.min_via_step();

    scratch.begin(window, grid.layer_count());
    // Stamp the tree once (O(|tree|)) so both relaxation sites below
    // read an array instead of hashing. The target stays traversable;
    // points outside the window are never reached, and their window-
    // local index would alias a point inside it.
    for &t in tree_points {
        if t != target && window.contains(t.x, t.y) {
            scratch.mark_tree(t);
        }
    }
    for &p in sources.keys() {
        if !window.contains(p.x, p.y) {
            continue;
        }
        let h = SearchScratch::heuristic(p, target, min_step, min_via);
        scratch.relax(p, IN_NONE, 0, PARENT_SOURCE, h);
    }

    let mut goal: Option<(GridPoint, u8)> = None;
    while let Some((f, k)) = scratch.queue.pop() {
        let (p, in_code) = unkey(k);
        let slot = scratch.slot(p, in_code);
        let g = scratch.dist_at(slot);
        if f > g + SearchScratch::heuristic(p, target, min_step, min_via) {
            continue; // stale open-set entry: the state was re-relaxed
        }
        scratch.expanded += 1;
        if p == target {
            goal = Some((p, in_code));
            break;
        }
        let in_dir = code_dir(in_code);

        // Planar moves.
        for dir in Dir::PLANAR {
            if let Some(in_d) = in_dir {
                if in_d.is_planar() && dir == in_d.opposite() {
                    continue; // no immediate U-turn
                }
            }
            let mut extra = 0i64;
            // Turn legality mid-path.
            if let Some(in_d) = in_dir {
                if in_d.is_planar() && in_d.axis() != dir.axis() {
                    let arm = in_d.opposite();
                    let Some(turn) = TurnKind::from_arms(arm, dir) else {
                        continue; // arms share an axis: not a turn
                    };
                    match classify_turn(state.kind, p.x, p.y, turn) {
                        TurnClass::Forbidden => continue,
                        TurnClass::NonPreferred => extra += params.turn_penalty(),
                        TurnClass::Preferred => {}
                    }
                }
            }
            // Turn legality at branch points (source states).
            if in_dir.is_none() {
                if let Some(arms) = sources.get(&p) {
                    let mut ok = true;
                    for &arm in arms {
                        if arm.axis() == dir.axis() {
                            continue;
                        }
                        let Some(turn) = TurnKind::from_arms(arm, dir) else {
                            continue; // arms share an axis: not a turn
                        };
                        match classify_turn(state.kind, p.x, p.y, turn) {
                            TurnClass::Forbidden => {
                                ok = false;
                                break;
                            }
                            TurnClass::NonPreferred => extra += params.turn_penalty(),
                            TurnClass::Preferred => {}
                        }
                    }
                    if !ok {
                        continue;
                    }
                }
            }
            let v = p.stepped(dir);
            if !grid.in_bounds(v) || !window.contains(v.x, v.y) {
                continue;
            }
            if scratch.on_tree(v) {
                continue; // never traverse the existing tree
            }
            if state.wire_blocked[v] {
                continue; // hard layout blockage
            }
            let preferred = grid.preferred_axis(p.layer) == dir.axis();
            let step = params.wire_step(preferred) + state.vertex_cost(v, net) + extra;
            let g2 = g + step;
            let f2 = g2 + SearchScratch::heuristic(v, target, min_step, min_via);
            scratch.relax(v, dir_code(dir), g2, in_code, f2);
        }

        // Via moves between adjacent routing layers.
        for dir in [Dir::Up, Dir::Down] {
            let v = p.stepped(dir);
            if v.layer >= grid.layer_count() || !grid.is_routing_layer(v.layer) {
                continue;
            }
            if let Some(in_d) = in_dir {
                if !in_d.is_planar() && dir == in_d.opposite() {
                    continue;
                }
            }
            if scratch.on_tree(v) {
                continue;
            }
            if state.wire_blocked[v] {
                continue; // hard layout blockage
            }
            let vl = p.layer.min(v.layer);
            let Some(via_cost) = state.via_cost(vl, p.x, p.y) else {
                continue; // blocked via location
            };
            let step = via_cost + state.vertex_cost(v, net);
            let g2 = g + step;
            let f2 = g2 + SearchScratch::heuristic(v, target, min_step, min_via);
            scratch.relax(v, dir_code(dir), g2, in_code, f2);
        }
    }

    let (mut p, mut in_code) = goal?;
    let cost = scratch.dist_at(scratch.slot(p, in_code));
    // Reconstruct by walking incoming directions back to a source.
    let mut edges = Vec::new();
    let mut vias = Vec::new();
    loop {
        let slot = scratch.slot(p, in_code);
        let parent_code = scratch.parent_at(slot);
        if parent_code == PARENT_SOURCE {
            break;
        }
        // Non-source states always carry an incoming direction and
        // adjacent same-layer states always form a wire edge; bail out
        // of the search (rather than panic) if either invariant is
        // ever violated.
        let dir = code_dir(in_code)?;
        let prev = p.stepped(dir.opposite());
        if prev.layer == p.layer {
            edges.push(WireEdge::between(prev, p)?);
        } else {
            vias.push(Via::new(prev.layer.min(p.layer), p.x, p.y));
        }
        p = prev;
        in_code = parent_code;
    }
    Some(FoundPath { edges, vias, cost })
}

/// The original hash-based Dijkstra kernel, kept verbatim as the
/// reference for differential tests and the before/after benchmark
/// (`reference-search` feature; always available to unit tests).
#[cfg(any(test, feature = "reference-search"))]
#[allow(clippy::expect_used)] // kept verbatim as the differential reference
pub fn route_connection_reference(
    state: &RouterState,
    net: NetId,
    sources: &HashMap<GridPoint, Vec<Dir>>,
    tree_points: &HashSet<GridPoint>,
    target: GridPoint,
    window: Window,
) -> Option<FoundPath> {
    let params = &state.params;
    let grid = &state.grid;
    let mut dist: HashMap<u64, i64> = HashMap::new();
    let mut parent: HashMap<u64, u64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(i64, u64)>> = BinaryHeap::new();

    let relax = |dist: &mut HashMap<u64, i64>,
                 parent: &mut HashMap<u64, u64>,
                 heap: &mut BinaryHeap<Reverse<(i64, u64)>>,
                 from: u64,
                 to: u64,
                 cost: i64| {
        let cur = dist.get(&to).copied().unwrap_or(i64::MAX);
        if cost < cur {
            dist.insert(to, cost);
            parent.insert(to, from);
            heap.push(Reverse((cost, to)));
        }
    };

    for &p in sources.keys() {
        let k = key(p, IN_NONE);
        dist.insert(k, 0);
        heap.push(Reverse((0, k)));
    }

    let mut goal_key: Option<u64> = None;
    while let Some(Reverse((d, k))) = heap.pop() {
        if dist.get(&k).copied().unwrap_or(i64::MAX) < d {
            continue;
        }
        let (p, in_code) = unkey(k);
        if p == target {
            goal_key = Some(k);
            break;
        }
        let in_dir = code_dir(in_code);

        for dir in Dir::PLANAR {
            if let Some(in_d) = in_dir {
                if in_d.is_planar() && dir == in_d.opposite() {
                    continue;
                }
            }
            let mut extra = 0i64;
            if let Some(in_d) = in_dir {
                if in_d.is_planar() && in_d.axis() != dir.axis() {
                    let arm = in_d.opposite();
                    let turn = TurnKind::from_arms(arm, dir).expect("perpendicular");
                    match classify_turn(state.kind, p.x, p.y, turn) {
                        TurnClass::Forbidden => continue,
                        TurnClass::NonPreferred => extra += params.turn_penalty(),
                        TurnClass::Preferred => {}
                    }
                }
            }
            if in_dir.is_none() {
                if let Some(arms) = sources.get(&p) {
                    let mut ok = true;
                    for &arm in arms {
                        if arm.axis() == dir.axis() {
                            continue;
                        }
                        let turn = TurnKind::from_arms(arm, dir).expect("perpendicular");
                        match classify_turn(state.kind, p.x, p.y, turn) {
                            TurnClass::Forbidden => {
                                ok = false;
                                break;
                            }
                            TurnClass::NonPreferred => extra += params.turn_penalty(),
                            TurnClass::Preferred => {}
                        }
                    }
                    if !ok {
                        continue;
                    }
                }
            }
            let v = p.stepped(dir);
            if !grid.in_bounds(v) || !window.contains(v.x, v.y) {
                continue;
            }
            if tree_points.contains(&v) && v != target {
                continue;
            }
            if state.wire_blocked[v] {
                continue; // hard layout blockage
            }
            let preferred = grid.preferred_axis(p.layer) == dir.axis();
            let step = params.wire_step(preferred) + state.vertex_cost(v, net) + extra;
            relax(
                &mut dist,
                &mut parent,
                &mut heap,
                k,
                key(v, dir_code(dir)),
                d + step,
            );
        }

        for dir in [Dir::Up, Dir::Down] {
            let v = p.stepped(dir);
            if v.layer >= grid.layer_count() || !grid.is_routing_layer(v.layer) {
                continue;
            }
            if let Some(in_d) = in_dir {
                if !in_d.is_planar() && dir == in_d.opposite() {
                    continue;
                }
            }
            if tree_points.contains(&v) && v != target {
                continue;
            }
            if state.wire_blocked[v] {
                continue; // hard layout blockage
            }
            let vl = p.layer.min(v.layer);
            let Some(via_cost) = state.via_cost(vl, p.x, p.y) else {
                continue;
            };
            let step = via_cost + state.vertex_cost(v, net);
            relax(
                &mut dist,
                &mut parent,
                &mut heap,
                k,
                key(v, dir_code(dir)),
                d + step,
            );
        }
    }

    let goal = goal_key?;
    let mut edges = Vec::new();
    let mut vias = Vec::new();
    let mut cur = goal;
    let cost = dist[&goal];
    while let Some(&prev) = parent.get(&cur) {
        let (cp, _) = unkey(cur);
        let (pp, _) = unkey(prev);
        if cp.layer == pp.layer {
            edges.push(WireEdge::between(pp, cp).expect("adjacent"));
        } else {
            vias.push(Via::new(cp.layer.min(pp.layer), cp.x, cp.y));
        }
        cur = prev;
    }
    Some(FoundPath { edges, vias, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostParams;
    use crate::dijkstra::{route_net, route_net_with};
    use benchgen::BenchSpec;
    use sadp_grid::{Net, Netlist, Pin, RoutedNet, RoutingGrid, SadpKind};

    fn state_with(nets: Vec<Net>) -> (Netlist, RouterState) {
        let mut nl = Netlist::new();
        for n in nets {
            nl.push(n);
        }
        let grid = RoutingGrid::three_layer(24, 24);
        let st = RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), true, true);
        (nl, st)
    }

    #[test]
    fn window_around_empty_is_none() {
        assert_eq!(Window::around(std::iter::empty(), 8, 24, 24), None);
    }

    #[test]
    fn window_clamps_to_grid() {
        let w = Window::around([(0, 0), (5, 5)], 10, 24, 24).unwrap();
        assert_eq!(
            w,
            Window {
                x0: 0,
                y0: 0,
                x1: 15,
                y1: 15
            }
        );
        assert!(w.contains(0, 0));
        assert!(!w.contains(16, 0));
        assert_eq!(w.width(), 16);
        assert_eq!(w.height(), 16);
    }

    #[test]
    fn window_margin_does_not_overflow() {
        let w = Window::around([(3, 3)], i32::MAX / 4, 24, 24).unwrap();
        assert_eq!(
            w,
            Window {
                x0: 0,
                y0: 0,
                x1: 23,
                y1: 23
            }
        );
    }

    #[test]
    fn key_round_trips() {
        let p = GridPoint::new(2, 1175, 1178);
        for c in 0..7u8 {
            let (q, cc) = unkey(key(p, c));
            assert_eq!((q, cc), (p, c));
        }
    }

    #[test]
    fn key_round_trips_at_24_bit_edge() {
        // The largest representable coordinate.
        let p = GridPoint::new(1, (1 << 23) - 1, (1 << 23) - 1);
        let (q, c) = unkey(key(p, IN_NONE));
        assert_eq!((q, c), (p, IN_NONE));
        // Negative coordinates sign-extend correctly.
        let n = GridPoint::new(0, -5, -(1 << 23));
        let (qn, _) = unkey(key(n, 0));
        assert_eq!(qn, n);
    }

    #[test]
    #[should_panic(expected = "24-bit key budget")]
    fn key_rejects_oversized_coordinates() {
        // 2^23 itself no longer fits 24-bit signed; debug builds catch
        // it instead of silently aliasing to -2^23.
        let _ = key(GridPoint::new(0, 1 << 23, 0), 0);
    }

    #[test]
    fn scratch_reuse_across_searches_is_clean() {
        // Two different connections through one scratch: the second
        // search must not see the first search's state.
        let (nl, st) = state_with(vec![
            Net::new("a", vec![Pin::new(4, 6), Pin::new(12, 6)]),
            Net::new("b", vec![Pin::new(2, 2), Pin::new(20, 20)]),
        ]);
        let mut scratch = SearchScratch::new();
        let ra = route_net(&st, NetId(0), &nl[NetId(0)], &mut scratch).expect("routable");
        let rb = route_net(&st, NetId(1), &nl[NetId(1)], &mut scratch).expect("routable");
        let mut fresh = SearchScratch::new();
        let ra2 = route_net(&st, NetId(0), &nl[NetId(0)], &mut fresh).expect("routable");
        let rb2 = route_net(&st, NetId(1), &nl[NetId(1)], &mut fresh).expect("routable");
        assert_eq!(ra, ra2);
        assert_eq!(rb, rb2);
        assert!(scratch.searches >= 2);
        assert!(scratch.expanded > 0);
    }

    #[test]
    fn astar_expands_fewer_states_than_reference_visits() {
        // On a plain two-pin connection in a generous window, the
        // Manhattan lower bound must focus the search: expanded states
        // stay well below the full state space.
        let (nl, st) = state_with(vec![Net::new("a", vec![Pin::new(2, 12), Pin::new(21, 12)])]);
        let mut scratch = SearchScratch::new();
        route_net(&st, NetId(0), &nl[NetId(0)], &mut scratch).expect("routable");
        let state_space = 24 * 24 * 3 * 7;
        assert!(
            scratch.expanded < state_space / 4,
            "A* expanded {} of {} states",
            scratch.expanded,
            state_space
        );
    }

    /// The acceptance-criteria differential test: on randomized
    /// benchgen instances, the dense A* kernel must return paths with
    /// exactly the cost the hash-based Dijkstra reference finds, for
    /// every connection of every net, including under installed-route
    /// penalties and history costs.
    #[test]
    fn dense_kernel_matches_reference_cost_on_random_instances() {
        let mut instances = 0usize;
        let mut connections = 0usize;
        for seed in 0..10u64 {
            for spec in [
                BenchSpec {
                    name: "diff-a",
                    nets: 14,
                    width: 28,
                    height: 28,
                },
                BenchSpec {
                    name: "diff-b",
                    nets: 20,
                    width: 36,
                    height: 30,
                },
            ] {
                instances += 1;
                let nl = spec.generate(seed);
                let mut st = RouterState::new(
                    spec.grid(),
                    &nl,
                    if seed % 2 == 0 {
                        SadpKind::Sim
                    } else {
                        SadpKind::Sid
                    },
                    CostParams::default(),
                    true,
                    true,
                );
                // Sprinkle history so the cost landscape is nontrivial.
                for k in 0..spec.width.min(spec.height) {
                    st.bump_history(GridPoint::new(1 + (k % 2) as u8, k, (k * 7) % spec.height));
                }
                let mut scratch = SearchScratch::new();
                let ids: Vec<NetId> = nl.iter().map(|(id, _)| id).collect();
                for id in ids {
                    let routed = route_net_with(
                        &st,
                        id,
                        &nl[id],
                        |st, id, sources, tree, target, window| {
                            let dense = route_connection(
                                st,
                                id,
                                sources,
                                tree,
                                target,
                                window,
                                &mut scratch,
                            );
                            let reference =
                                route_connection_reference(st, id, sources, tree, target, window);
                            match (&dense, &reference) {
                                (Some(a), Some(b)) => {
                                    assert_eq!(
                                        a.cost, b.cost,
                                        "kernel cost mismatch routing {id:?} to {target}"
                                    );
                                    connections += 1;
                                }
                                (None, None) => {}
                                _ => panic!(
                                    "kernel reachability mismatch routing {id:?} to {target}: \
                                     dense={dense:?} reference={reference:?}"
                                ),
                            }
                            dense
                        },
                    );
                    // Install found routes so later nets search a
                    // penalized, partially occupied graph.
                    if let Some(r) = routed {
                        st.install_route(id, r);
                    }
                }
            }
        }
        assert!(
            instances >= 20,
            "need >= 20 randomized instances, got {instances}"
        );
        assert!(
            connections > 100,
            "differential test exercised too few connections"
        );
    }

    /// Routes every net of `nl` in id order on a fresh state (seeded by
    /// `prepare`), installing each route, once with the Dial queue and
    /// once with the reference heap, and asserts both runs produce the
    /// same routes, expansion and search counts.
    fn assert_queues_route_identically(
        spec: &BenchSpec,
        nl: &Netlist,
        kind: SadpKind,
        prepare: impl Fn(&mut RouterState),
        what: &str,
    ) {
        let mut runs = Vec::new();
        for mut scratch in [SearchScratch::new(), SearchScratch::with_reference_heap()] {
            let mut st = RouterState::new(spec.grid(), nl, kind, CostParams::default(), true, true);
            prepare(&mut st);
            let mut routes = Vec::new();
            for (id, net) in nl.iter() {
                if let Some(r) = route_net(&st, id, net, &mut scratch) {
                    st.install_route(id, r.clone());
                    routes.push((id, r));
                }
            }
            runs.push((routes, scratch.expanded, scratch.searches));
        }
        let (dial, heap) = (&runs[0], &runs[1]);
        assert_eq!(dial.0, heap.0, "{what}: route divergence between queues");
        assert_eq!(dial.1, heap.1, "{what}: expansion-count divergence");
        assert_eq!(dial.2, heap.2, "{what}: search-count divergence");
    }

    /// Tentpole differential: the Dial bucket queue must leave every
    /// route *byte-identical* to the heap kernel's, not just equal in
    /// cost — the two open sets pop in the same order by construction
    /// and this pins it end to end on randomized instances.
    #[test]
    fn dial_and_heap_kernels_route_identically() {
        let spec = BenchSpec {
            name: "dial-diff",
            nets: 18,
            width: 32,
            height: 32,
        };
        for seed in 0..8u64 {
            let kind = if seed % 2 == 0 {
                SadpKind::Sim
            } else {
                SadpKind::Sid
            };
            let bump = |st: &mut RouterState| {
                for k in 0..24 {
                    st.bump_history(GridPoint::new(1 + (k % 2) as u8, k, (k * 5) % 32));
                }
            };
            let what = format!("seed {seed}");
            assert_queues_route_identically(&spec, &spec.generate(seed), kind, bump, &what);
        }
    }

    /// The same differential at a scale large enough to exercise
    /// window escalation and installed-route penalties (ecc at 0.1).
    #[test]
    fn dial_and_heap_queues_route_identically_at_scale() {
        let spec = BenchSpec::by_name("ecc").unwrap().scaled(0.1);
        let nl = spec.generate(1);
        assert_queues_route_identically(&spec, &nl, SadpKind::Sim, |_| {}, "ecc-0.1");
    }

    #[test]
    fn paged_scratch_matches_flat_scratch() {
        // Force one scratch into paged mode by shrinking the flat
        // threshold indirectly: route through a scratch whose `paged`
        // flag we flip by hand after `begin` picks the mode. Instead of
        // reaching into private state mid-search, route the same
        // instance through a scratch that *starts* paged because its
        // window exceeds the limit — emulated here by checking the two
        // addressing modes agree through the public route path on a
        // grid small enough to run flat, plus a direct unit check of
        // the paged address map.
        let (nl, st) = state_with(vec![
            Net::new("a", vec![Pin::new(2, 2), Pin::new(20, 20), Pin::new(4, 18)]),
            Net::new("b", vec![Pin::new(6, 3), Pin::new(18, 9)]),
        ]);
        let mut flat = SearchScratch::new();
        let mut paged = SearchScratch::new();
        // Drop the paged scratch into tile mode for the same window
        // geometry the flat one uses.
        let window = Window::around([(0, 0), (23, 23)], 0, 24, 24).unwrap();
        paged.begin(window, 3);
        paged.paged = true;
        paged.page_slots = 3 * TILE * TILE * STATES_PER_POINT;
        paged.tiles_x = paged.w.div_ceil(TILE);
        let tiles_y = paged.h.div_ceil(TILE);
        paged.pages.clear();
        paged.pages.resize_with(paged.tiles_x * tiles_y, || None);
        // Same state written through both addressing modes reads back
        // identically.
        flat.begin(window, 3);
        for (x, y, layer, code) in [(0, 0, 0u8, 0u8), (23, 23, 2, 6), (7, 15, 1, 3)] {
            let p = GridPoint::new(layer, x, y);
            let fs = flat.slot(p, code);
            let ps = paged.slot(p, code);
            flat.write(fs, 42 + x as i64, code);
            paged.write(ps, 42 + x as i64, code);
            assert_eq!(flat.dist_at(fs), paged.dist_at(ps));
            assert_eq!(flat.parent_at(fs), paged.parent_at(ps));
        }
        assert!(paged.allocated_pages() >= 1);
        // Untouched state reads unvisited in both modes.
        let q = GridPoint::new(1, 11, 3);
        assert_eq!(flat.dist_at(flat.slot(q, 2)), i64::MAX);
        assert_eq!(paged.dist_at(paged.slot(q, 2)), i64::MAX);
        // And a full route through each mode agrees end to end: run
        // the paged scratch through the public path (its next `begin`
        // re-picks flat mode for this small window, so instead compare
        // two independent fresh scratches for determinism).
        let mut s1 = SearchScratch::new();
        let mut s2 = SearchScratch::new();
        for id in [NetId(0), NetId(1)] {
            let r1 = route_net(&st, id, &nl[id], &mut s1);
            let r2 = route_net(&st, id, &nl[id], &mut s2);
            assert_eq!(r1, r2);
        }
    }

    /// End-to-end paged-mode differential: route on a grid whose full
    /// window genuinely exceeds [`FLAT_SLOT_LIMIT`] so the scratch
    /// switches to tile pages, and check every connection against the
    /// hash-based reference kernel on the same full window.
    #[test]
    fn paged_window_routes_match_reference_kernel() {
        // 480 x 480 x 3 layers x 7 codes = 4.8M slots > FLAT_SLOT_LIMIT.
        let grid = RoutingGrid::three_layer(480, 480);
        let mut nl = Netlist::new();
        nl.push(Net::new(
            "long",
            vec![Pin::new(6, 10), Pin::new(460, 430), Pin::new(30, 400)],
        ));
        nl.push(Net::new(
            "short",
            vec![Pin::new(100, 100), Pin::new(140, 108)],
        ));
        let st = RouterState::new(grid, &nl, SadpKind::Sim, CostParams::default(), true, true);
        let full = Window::around([(0, 0), (479, 479)], 0, 480, 480).unwrap();
        let cap = full.width() as usize * full.height() as usize * 3 * STATES_PER_POINT;
        assert!(cap > FLAT_SLOT_LIMIT, "window must trigger paged mode");
        let mut scratch = SearchScratch::new();
        for id in [NetId(0), NetId(1)] {
            let routed = route_net_with(&st, id, &nl[id], |st, id, sources, tree, target, _w| {
                // Substitute the full window so the dense kernel runs
                // in paged mode; the reference kernel is window-exact.
                let dense = route_connection(st, id, sources, tree, target, full, &mut scratch);
                let reference = route_connection_reference(st, id, sources, tree, target, full);
                match (&dense, &reference) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.cost, b.cost, "paged-kernel cost mismatch for {id:?}")
                    }
                    (None, None) => {}
                    _ => panic!("paged-kernel reachability mismatch for {id:?}"),
                }
                dense
            });
            assert!(routed.is_some(), "full-window search must route {id:?}");
        }
        assert!(scratch.allocated_pages() > 0, "paged mode never engaged");
        assert!(
            scratch.allocated_pages() < scratch.pages.len(),
            "every page allocated — lazy paging saved nothing ({}/{})",
            scratch.allocated_pages(),
            scratch.pages.len()
        );
    }

    /// The sources and tree points a routed net presents to the kernel
    /// when it is the partial tree of a later connection.
    fn tree_of(
        st: &RouterState,
        route: &RoutedNet,
    ) -> (HashMap<GridPoint, Vec<Dir>>, HashSet<GridPoint>) {
        let mut tree = HashSet::new();
        for e in route.edges() {
            tree.extend(e.endpoints());
        }
        for v in route.vias() {
            tree.insert(v.bottom());
            tree.insert(v.top());
        }
        let sources = tree
            .iter()
            .filter(|t| st.grid.is_routing_layer(t.layer))
            .map(|&t| (t, route.arm_dirs(t)))
            .collect();
        (sources, tree)
    }

    /// Runs one connection through the dense kernel and the reference
    /// (fed only the in-window sources, which is what the dense kernel
    /// searches from), asserts equal reachability and cost, checks the
    /// scratch's tree marks point by point, and checks that the dense
    /// path touches the tree only at its start.
    fn differential(
        st: &RouterState,
        net: NetId,
        (sources, tree): &(HashMap<GridPoint, Vec<Dir>>, HashSet<GridPoint>),
        target: GridPoint,
        window: Window,
        scratch: &mut SearchScratch,
    ) -> Option<FoundPath> {
        let in_window: HashMap<GridPoint, Vec<Dir>> = sources
            .iter()
            .filter(|(p, _)| window.contains(p.x, p.y))
            .map(|(&p, arms)| (p, arms.clone()))
            .collect();
        let dense = route_connection(st, net, sources, tree, target, window, scratch);
        // Every in-window point reads as marked exactly when it is a
        // tree point other than the target (no aliasing, no leaks).
        for layer in 0..st.grid.layer_count() {
            for x in window.x0..=window.x1 {
                for y in window.y0..=window.y1 {
                    let p = GridPoint::new(layer, x, y);
                    let expect = tree.contains(&p) && p != target;
                    assert_eq!(scratch.on_tree(p), expect, "tree mark at {p}");
                }
            }
        }
        let reference = route_connection_reference(st, net, &in_window, tree, target, window);
        match (&dense, &reference) {
            (Some(a), Some(b)) => {
                assert_eq!(a.cost, b.cost, "cost mismatch routing to {target}");
                let mut points: HashSet<GridPoint> = HashSet::new();
                for e in &a.edges {
                    points.extend(e.endpoints());
                }
                for v in &a.vias {
                    points.insert(v.bottom());
                    points.insert(v.top());
                }
                let touched = points.iter().filter(|p| tree.contains(p)).count();
                let expect = if tree.contains(&target) { 0 } else { 1 };
                assert_eq!(touched, expect, "path to {target} traverses the tree");
            }
            (None, None) => {}
            _ => panic!(
                "reachability mismatch routing to {target}: dense={dense:?} reference={reference:?}"
            ),
        }
        dense
    }

    /// A target right next to the tree must stay reachable in one step
    /// while every other tree cell stays blocked.
    #[test]
    fn tree_marks_targets_adjacent_to_the_tree() {
        let (nl, st) = state_with(vec![
            Net::new("t", vec![Pin::new(4, 8), Pin::new(16, 14)]),
            Net::new("u", vec![Pin::new(2, 20), Pin::new(20, 3)]),
        ]);
        let mut scratch = SearchScratch::new();
        let route = route_net(&st, NetId(0), &nl[NetId(0)], &mut scratch).expect("routable");
        let tree = tree_of(&st, &route);
        let window = Window::around([(0, 0), (23, 23)], 0, 24, 24).unwrap();
        let mut checked = 0;
        for &t in tree.1.iter().filter(|t| st.grid.is_routing_layer(t.layer)) {
            for dir in Dir::PLANAR {
                let target = t.stepped(dir);
                if !st.grid.in_bounds(target) || tree.1.contains(&target) {
                    continue;
                }
                let found = differential(&st, NetId(0), &tree, target, window, &mut scratch);
                assert!(found.is_some(), "adjacent target {target} unreachable");
                checked += 1;
            }
        }
        assert!(checked > 10, "too few adjacent targets ({checked})");
        // A target on the tree itself is reached at no cost, and is the
        // one tree point left unmarked.
        let on_tree = GridPoint::new(1, 4, 8);
        assert!(tree.1.contains(&on_tree));
        let found = differential(&st, NetId(0), &tree, on_tree, window, &mut scratch);
        assert_eq!(found.map(|f| f.cost), Some(0));
    }

    /// Tree points outside the window are neither sources nor marks:
    /// the window-local mark array must not alias them onto cells
    /// inside the window.
    #[test]
    fn tree_marks_ignore_tree_points_outside_the_window() {
        let (nl, st) = state_with(vec![Net::new(
            "t",
            vec![Pin::new(1, 2), Pin::new(22, 21), Pin::new(3, 20)],
        )]);
        let mut scratch = SearchScratch::new();
        let route = route_net(&st, NetId(0), &nl[NetId(0)], &mut scratch).expect("routable");
        let tree = tree_of(&st, &route);
        let mut partial = 0;
        for (x0, y0, x1, y1) in [
            (0, 0, 11, 11),
            (6, 6, 17, 17),
            (12, 0, 23, 11),
            (0, 12, 9, 23),
        ] {
            let window = Window { x0, y0, x1, y1 };
            let outside = tree.1.iter().filter(|t| !window.contains(t.x, t.y)).count();
            let inside = tree.1.len() - outside;
            if outside == 0 || inside == 0 {
                continue;
            }
            partial += 1;
            for (tx, ty) in [(x0, y0), (x1, y1), ((x0 + x1) / 2, (y0 + y1) / 2), (x0, y1)] {
                let target = GridPoint::new(1, tx, ty);
                if !tree.1.contains(&target) {
                    differential(&st, NetId(0), &tree, target, window, &mut scratch);
                }
            }
        }
        assert!(partial >= 2, "windows must cut the tree ({partial})");
    }

    /// Paged windows keep their tree marks in the tile pages.
    #[test]
    fn tree_marks_in_paged_windows() {
        let grid = RoutingGrid::three_layer(480, 480);
        let mut nl = Netlist::new();
        nl.push(Net::new("t", vec![Pin::new(40, 60), Pin::new(90, 75)]));
        let st = RouterState::new(grid, &nl, SadpKind::Sid, CostParams::default(), true, true);
        let mut scratch = SearchScratch::new();
        let route = route_net(&st, NetId(0), &nl[NetId(0)], &mut scratch).expect("routable");
        let tree = tree_of(&st, &route);
        let full = Window::around([(0, 0), (479, 479)], 0, 480, 480).unwrap();
        for target in [
            GridPoint::new(1, 41, 60),
            GridPoint::new(2, 65, 80),
            GridPoint::new(1, 130, 40),
        ] {
            assert!(!tree.1.contains(&target));
            let found = differential(&st, NetId(0), &tree, target, full, &mut scratch);
            assert!(found.is_some(), "paged search must reach {target}");
            assert!(scratch.paged, "window must run in paged mode");
        }
    }

    /// Back-to-back searches on one scratch: the previous search's tree
    /// cells must be traversable again, in the same window and in a
    /// differently shaped one, and routes must match a fresh scratch.
    #[test]
    fn tree_marks_do_not_leak_between_searches() {
        let (nl, st) = state_with(vec![
            Net::new("a", vec![Pin::new(4, 12), Pin::new(20, 12)]),
            Net::new("b", vec![Pin::new(12, 3), Pin::new(12, 21)]),
        ]);
        let mut fresh = SearchScratch::new();
        let a = tree_of(
            &st,
            &route_net(&st, NetId(0), &nl[NetId(0)], &mut fresh).unwrap(),
        );
        let on_a = GridPoint::new(1, 12, 12);
        assert!(a.1.contains(&on_a), "a runs straight along y = 12");
        let b_pad = GridPoint::new(1, 12, 3);
        let b = (HashMap::from([(b_pad, Vec::new())]), HashSet::from([b_pad]));
        let whole = Window::around([(0, 0), (23, 23)], 0, 24, 24).unwrap();
        let narrow = Window::around([(12, 3), (12, 21)], 3, 24, 24).unwrap();
        for b_window in [whole, narrow] {
            // One target on a's former tree, one across it.
            for b_target in [on_a, GridPoint::new(1, 12, 21)] {
                let mut scratch = SearchScratch::new();
                differential(
                    &st,
                    NetId(0),
                    &a,
                    GridPoint::new(1, 12, 16),
                    whole,
                    &mut scratch,
                );
                let reused = differential(&st, NetId(1), &b, b_target, b_window, &mut scratch)
                    .expect("b routes onto and across a's former tree");
                let clean = route_connection(
                    &st,
                    NetId(1),
                    &b.0,
                    &b.1,
                    b_target,
                    b_window,
                    &mut SearchScratch::new(),
                )
                .unwrap();
                assert_eq!(
                    (reused.edges, reused.vias, reused.cost),
                    (clean.edges, clean.vias, clean.cost)
                );
            }
        }
    }
}

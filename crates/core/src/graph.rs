//! The routing graph Γ_n and subgraph Γ_n^s (§II-B, §II-C).

use sprout_geom::stitch::GridFrame;
use sprout_geom::{IntervalSet, Point, PolygonSet, Rect};

/// Identifier of a node (tile) in a [`RoutingGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A tile node: one cell of the available space (Algorithm 1).
#[derive(Debug, Clone)]
pub struct TileNode {
    /// Lattice cell `(i, j)` of the tile.
    pub cell: (i64, i64),
    /// The rectangular extent of the cell, clipped to the design space.
    pub rect: Rect,
    /// Tile area (mm²) — the rect area for full cells, the clipped area
    /// for irregular boundary cells (Fig. 7).
    pub area_mm2: f64,
    /// Clipped geometry for irregular cells; `None` when the tile covers
    /// its whole `rect`.
    pub pieces: Option<PolygonSet>,
}

impl TileNode {
    /// The tile centre (centroid of the clipped geometry for irregular
    /// cells).
    pub fn center(&self) -> Point {
        match &self.pieces {
            None => self.rect.center(),
            Some(set) => {
                // Area-weighted centroid of the pieces.
                let mut acc = Point::ORIGIN;
                let mut total = 0.0;
                for p in set.iter() {
                    let a = p.area();
                    acc = acc + p.centroid() * a;
                    total += a;
                }
                if total > 0.0 {
                    acc / total
                } else {
                    self.rect.center()
                }
            }
        }
    }

    /// Vertical cross-section of the tile at `x` (interval set of `y`).
    pub fn cross_section_x(&self, x: f64) -> IntervalSet {
        match &self.pieces {
            None => {
                if x >= self.rect.min().x && x <= self.rect.max().x {
                    IntervalSet::from_interval(self.rect.min().y, self.rect.max().y)
                } else {
                    IntervalSet::new()
                }
            }
            Some(set) => set.cross_section_x(x),
        }
    }

    /// Horizontal cross-section of the tile at `y` (interval set of `x`).
    pub fn cross_section_y(&self, y: f64) -> IntervalSet {
        match &self.pieces {
            None => {
                if y >= self.rect.min().y && y <= self.rect.max().y {
                    IntervalSet::from_interval(self.rect.min().x, self.rect.max().x)
                } else {
                    IntervalSet::new()
                }
            }
            Some(set) => set.cross_section_y(y),
        }
    }

    /// `true` if the tile contains the point.
    pub fn contains_point(&self, p: Point) -> bool {
        match &self.pieces {
            None => self.rect.contains_point(p),
            Some(set) => set.contains_point(p),
        }
    }
}

/// A weighted edge between adjacent tiles. The weight is the
/// *dimensionless conductance* `contact_width / centre_distance` (Fig. 6:
/// conductance proportional to the contact width); multiply by the layer
/// sheet conductance to get siemens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphEdge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Dimensionless conductance weight.
    pub weight: f64,
}

/// The equivalent graph Γ_n of the available space (§II-B).
#[derive(Debug, Clone)]
pub struct RoutingGraph {
    frame: GridFrame,
    nodes: Vec<TileNode>,
    edges: Vec<GraphEdge>,
    /// Compressed adjacency: node `n`'s neighbors (with the connecting
    /// edge index) are `adj[adj_start[n]..adj_start[n + 1]]`, in edge
    /// order.
    adj_start: Vec<u32>,
    adj: Vec<(NodeId, u32)>,
    cells: CellIndex,
}

/// Dense lattice index over the bounding box of the nodes' cells.
#[derive(Debug, Clone, Default)]
struct CellIndex {
    i0: i64,
    j0: i64,
    width: i64,
    height: i64,
    /// Node per cell, row by row; `u32::MAX` for a cell without one.
    node: Vec<u32>,
}

impl CellIndex {
    fn new(nodes: &[TileNode]) -> CellIndex {
        let Some(first) = nodes.first() else {
            return CellIndex::default();
        };
        let (mut lo, mut hi) = (first.cell, first.cell);
        for n in nodes {
            lo = (lo.0.min(n.cell.0), lo.1.min(n.cell.1));
            hi = (hi.0.max(n.cell.0), hi.1.max(n.cell.1));
        }
        let (width, height) = (hi.0 - lo.0 + 1, hi.1 - lo.1 + 1);
        let mut node = vec![u32::MAX; (width * height) as usize];
        for (k, n) in nodes.iter().enumerate() {
            node[((n.cell.1 - lo.1) * width + n.cell.0 - lo.0) as usize] = k as u32;
        }
        CellIndex {
            i0: lo.0,
            j0: lo.1,
            width,
            height,
            node,
        }
    }

    fn get(&self, (i, j): (i64, i64)) -> Option<NodeId> {
        let (di, dj) = (i.wrapping_sub(self.i0), j.wrapping_sub(self.j0));
        if !(0..self.width).contains(&di) || !(0..self.height).contains(&dj) {
            return None;
        }
        match self.node[(dj * self.width + di) as usize] {
            u32::MAX => None,
            k => Some(NodeId(k)),
        }
    }
}

impl RoutingGraph {
    /// Assembles a graph from parts (used by the tiling stage).
    pub(crate) fn assemble(frame: GridFrame, nodes: Vec<TileNode>, edges: Vec<GraphEdge>) -> Self {
        let mut adj_start = vec![0u32; nodes.len() + 1];
        for e in &edges {
            adj_start[e.a.index() + 1] += 1;
            adj_start[e.b.index() + 1] += 1;
        }
        for n in 0..nodes.len() {
            adj_start[n + 1] += adj_start[n];
        }
        let mut fill = adj_start.clone();
        let mut adj = vec![(NodeId(0), 0u32); 2 * edges.len()];
        for (k, e) in edges.iter().enumerate() {
            for (from, to) in [(e.a, e.b), (e.b, e.a)] {
                let slot = &mut fill[from.index()];
                adj[*slot as usize] = (to, k as u32);
                *slot += 1;
            }
        }
        let cells = CellIndex::new(&nodes);
        RoutingGraph {
            frame,
            nodes,
            edges,
            adj_start,
            adj,
            cells,
        }
    }

    /// The lattice frame (origin and pitch).
    pub fn frame(&self) -> GridFrame {
        self.frame
    }

    /// Number of nodes `|V_n|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E_n|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TileNode] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics for an id from a different graph.
    pub fn node(&self, id: NodeId) -> &TileNode {
        &self.nodes[id.index()]
    }

    /// All edges.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// An edge by index.
    pub fn edge(&self, idx: u32) -> &GraphEdge {
        &self.edges[idx as usize]
    }

    /// Neighbors of a node with the connecting edge index.
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, u32)] {
        let n = id.index();
        &self.adj[self.adj_start[n] as usize..self.adj_start[n + 1] as usize]
    }

    /// The node occupying lattice cell `(i, j)`, if any.
    pub fn node_at_cell(&self, cell: (i64, i64)) -> Option<NodeId> {
        self.cells.get(cell)
    }

    /// The node whose tile contains `p`, or the nearest node within a
    /// search radius of `max_rings` lattice rings.
    pub fn node_near(&self, p: Point, max_rings: i64) -> Option<NodeId> {
        let i = ((p.x - self.frame.origin.x) / self.frame.dx).floor() as i64;
        let j = ((p.y - self.frame.origin.y) / self.frame.dy).floor() as i64;
        if let Some(id) = self.node_at_cell((i, j)) {
            return Some(id);
        }
        let mut best: Option<(f64, NodeId)> = None;
        for ring in 1..=max_rings {
            for di in -ring..=ring {
                for dj in -ring..=ring {
                    if di.abs() != ring && dj.abs() != ring {
                        continue;
                    }
                    if let Some(id) = self.node_at_cell((i + di, j + dj)) {
                        let d = self.node(id).center().distance(p);
                        if best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, id));
                        }
                    }
                }
            }
            if best.is_some() {
                break; // nearest in lattice rings is good enough
            }
        }
        best.map(|(_, id)| id)
    }

    /// Total available area (mm²) — the area of `A_n`.
    pub fn total_area_mm2(&self) -> f64 {
        self.nodes.iter().map(|n| n.area_mm2).sum()
    }

    /// `true` if `targets` are all in one connected component of the
    /// graph.
    pub fn connects(&self, targets: &[NodeId]) -> bool {
        let (first, rest) = match targets.split_first() {
            Some(x) => x,
            None => return true,
        };
        if rest.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[first.index()] = true;
        queue.push_back(*first);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        targets.iter().all(|t| seen[t.index()])
    }
}

/// A subgraph Γ_n^s ⊆ Γ_n under construction (§II-C through §II-F).
#[derive(Debug, Clone)]
pub struct Subgraph {
    in_set: Vec<bool>,
    members: Vec<NodeId>,
    area_mm2: f64,
}

impl Subgraph {
    /// An empty subgraph of `graph`.
    pub fn new(graph: &RoutingGraph) -> Self {
        Subgraph {
            in_set: vec![false; graph.node_count()],
            members: Vec::new(),
            area_mm2: 0.0,
        }
    }

    /// Number of member nodes (the order `|V_n^s|`).
    pub fn order(&self) -> usize {
        self.members.len()
    }

    /// Member area (mm²) — the `A(Γ_n^s)` of Eq. 5.
    pub fn area_mm2(&self) -> f64 {
        self.area_mm2
    }

    /// Member nodes (unordered).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// `true` if `id` is a member.
    pub fn contains(&self, id: NodeId) -> bool {
        self.in_set[id.index()]
    }

    /// Inserts a node (no-op if present).
    pub fn insert(&mut self, graph: &RoutingGraph, id: NodeId) {
        if !self.in_set[id.index()] {
            self.in_set[id.index()] = true;
            self.members.push(id);
            self.area_mm2 += graph.node(id).area_mm2;
        }
    }

    /// Removes a node (no-op if absent).
    pub fn remove(&mut self, graph: &RoutingGraph, id: NodeId) {
        if self.in_set[id.index()] {
            self.in_set[id.index()] = false;
            let pos = self
                .members
                .iter()
                .position(|&m| m == id)
                .expect("member list consistent with bitmap");
            self.members.swap_remove(pos);
            self.area_mm2 -= graph.node(id).area_mm2;
        }
    }

    /// The boundary set `C`: nodes of Γ_n adjacent to, but not in, the
    /// subgraph (§II-D).
    pub fn boundary(&self, graph: &RoutingGraph) -> Vec<NodeId> {
        let mut seen = vec![false; graph.node_count()];
        let mut out = Vec::new();
        for &m in &self.members {
            for &(v, _) in graph.neighbors(m) {
                if !self.in_set[v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    out.push(v);
                }
            }
        }
        out
    }

    /// Edges of Γ_n with both endpoints in the subgraph (the induced
    /// subgraph's edges).
    pub fn induced_edges<'g>(
        &'g self,
        graph: &'g RoutingGraph,
    ) -> impl Iterator<Item = &'g GraphEdge> + 'g {
        graph
            .edges()
            .iter()
            .filter(move |e| self.in_set[e.a.index()] && self.in_set[e.b.index()])
    }

    /// `true` if all `targets` are members connected to each other
    /// through member nodes.
    pub fn connects(&self, graph: &RoutingGraph, targets: &[NodeId]) -> bool {
        let (first, rest) = match targets.split_first() {
            Some(x) => x,
            None => return true,
        };
        if !self.contains(*first) {
            return false;
        }
        if rest.is_empty() {
            return true;
        }
        let mut seen = vec![false; graph.node_count()];
        let mut queue = std::collections::VecDeque::new();
        seen[first.index()] = true;
        queue.push_back(*first);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in graph.neighbors(u) {
                if self.in_set[v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        targets.iter().all(|t| seen[t.index()])
    }

    /// `true` if removing `id` leaves the subgraph a *single* connected
    /// component containing all `targets`.
    ///
    /// Checking full connectivity (not just target-to-target paths)
    /// matters for the refinement and erosion stages: a removal that
    /// orphans a non-terminal blob would leave the subgraph's grounded
    /// Laplacian singular at the next metric evaluation.
    pub fn connected_without(
        &mut self,
        graph: &RoutingGraph,
        id: NodeId,
        targets: &[NodeId],
    ) -> bool {
        if !self.contains(id) {
            return self.connects(graph, targets);
        }
        self.remove(graph, id);
        let ok = match targets.iter().find(|t| self.contains(**t)) {
            None => self.order() == 0,
            Some(&anchor) => {
                let mut seen = vec![false; graph.node_count()];
                let mut queue = std::collections::VecDeque::new();
                let mut reached = 1usize;
                seen[anchor.index()] = true;
                queue.push_back(anchor);
                while let Some(u) = queue.pop_front() {
                    for &(v, _) in graph.neighbors(u) {
                        if self.contains(v) && !seen[v.index()] {
                            seen[v.index()] = true;
                            reached += 1;
                            queue.push_back(v);
                        }
                    }
                }
                reached == self.order() && targets.iter().all(|t| seen[t.index()])
            }
        };
        self.insert(graph, id);
        ok
    }
}

/// Reusable workspace for fast removal-connectivity checks.
///
/// [`Subgraph::connected_without`] answers "does removing this node keep
/// the subgraph connected?" with a full BFS over the subgraph per
/// candidate — the dominant non-solver cost of the refinement and
/// erosion sweeps, which test hundreds of candidates per round. This
/// check reaches the same verdict *locally*: when the subgraph is
/// connected (which every router path maintains — seeds are connected,
/// growth adds boundary nodes, and removals are gated on this very
/// check), removing `id` keeps it connected **iff** the member-neighbors
/// of `id` stay mutually reachable with `id` masked out. A BFS from one
/// neighbor stops as soon as the others are seen, touching tens of nodes
/// instead of the whole subgraph.
///
/// The visit marks are epoch-stamped so repeated checks inside one sweep
/// allocate nothing.
#[derive(Debug, Default)]
pub struct RemovalCheck {
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
    nbrs: Vec<NodeId>,
}

impl RemovalCheck {
    /// An empty workspace (sized lazily on first use).
    pub fn new() -> Self {
        RemovalCheck::default()
    }

    /// Verdict of [`Subgraph::connected_without`] for removing `id`,
    /// computed without mutating `sub`.
    ///
    /// Exact under the precondition that `sub` is connected (see the
    /// type docs). The "disconnects" direction needs no precondition:
    /// if the local search cannot rejoin the neighbors, the removal
    /// provably splits the subgraph.
    pub fn keeps_connected(
        &mut self,
        graph: &RoutingGraph,
        sub: &Subgraph,
        id: NodeId,
        targets: &[NodeId],
    ) -> bool {
        if !sub.contains(id) {
            return sub.connects(graph, targets);
        }
        debug_assert!(
            {
                let mut probe = RemovalCheck::new();
                sub.order() <= 1
                    || probe.component_size(graph, sub, sub.members()[0], None) == sub.order()
            },
            "RemovalCheck requires a connected subgraph"
        );
        let contains_after = |n: NodeId| n != id && sub.contains(n);
        let Some(&anchor) = targets.iter().find(|&&t| contains_after(t)) else {
            // No target survives the removal: `connected_without` only
            // accepts this when the remainder is empty.
            return sub.order() == 1;
        };
        if targets.iter().any(|&t| !contains_after(t)) {
            return false;
        }
        self.nbrs.clear();
        self.nbrs.extend(
            graph
                .neighbors(id)
                .iter()
                .map(|&(v, _)| v)
                .filter(|&v| sub.contains(v)),
        );
        if self.nbrs.is_empty() {
            // `id` is an isolated member (precondition violated unless
            // it is the whole subgraph): fall back to the exact check.
            return self.component_size(graph, sub, anchor, Some(id)) == sub.order() - 1;
        }
        // Local early-exit BFS in `sub ∖ {id}` from one neighbor of
        // `id`: connected iff every other neighbor is reached.
        self.begin(graph.node_count());
        let epoch = self.epoch;
        self.stamp[id.index()] = epoch; // mask the removed node
        let start = self.nbrs[0];
        self.stamp[start.index()] = epoch;
        let goal = self.nbrs.len();
        let mut found = 1usize;
        self.queue.clear();
        self.queue.push(start);
        let mut head = 0usize;
        while head < self.queue.len() && found < goal {
            let u = self.queue[head];
            head += 1;
            for &(v, _) in graph.neighbors(u) {
                if sub.contains(v) && self.stamp[v.index()] != epoch {
                    self.stamp[v.index()] = epoch;
                    if self.nbrs.contains(&v) {
                        found += 1;
                    }
                    self.queue.push(v);
                }
            }
        }
        found == goal
    }

    /// Size of `anchor`'s connected component within `sub`, optionally
    /// masking out one node (exact fallback and debug probe).
    fn component_size(
        &mut self,
        graph: &RoutingGraph,
        sub: &Subgraph,
        anchor: NodeId,
        without: Option<NodeId>,
    ) -> usize {
        self.begin(graph.node_count());
        let epoch = self.epoch;
        if let Some(w) = without {
            self.stamp[w.index()] = epoch;
        }
        self.stamp[anchor.index()] = epoch;
        self.queue.clear();
        self.queue.push(anchor);
        let mut head = 0usize;
        let mut reached = 1usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &(v, _) in graph.neighbors(u) {
                if sub.contains(v) && self.stamp[v.index()] != epoch {
                    self.stamp[v.index()] = epoch;
                    reached += 1;
                    self.queue.push(v);
                }
            }
        }
        reached
    }

    /// Starts a new epoch, (re)sizing the stamp buffer for `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.stamp = vec![0; n];
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3×3 full grid graph with unit cells.
    fn grid3() -> RoutingGraph {
        let frame = GridFrame {
            origin: Point::ORIGIN,
            dx: 1.0,
            dy: 1.0,
        };
        let mut nodes = Vec::new();
        for j in 0..3i64 {
            for i in 0..3i64 {
                nodes.push(TileNode {
                    cell: (i, j),
                    rect: Rect::new(
                        Point::new(i as f64, j as f64),
                        Point::new(i as f64 + 1.0, j as f64 + 1.0),
                    )
                    .unwrap(),
                    area_mm2: 1.0,
                    pieces: None,
                });
            }
        }
        let id = |i: i64, j: i64| NodeId((j * 3 + i) as u32);
        let mut edges = Vec::new();
        for j in 0..3i64 {
            for i in 0..3i64 {
                if i + 1 < 3 {
                    edges.push(GraphEdge {
                        a: id(i, j),
                        b: id(i + 1, j),
                        weight: 1.0,
                    });
                }
                if j + 1 < 3 {
                    edges.push(GraphEdge {
                        a: id(i, j),
                        b: id(i, j + 1),
                        weight: 1.0,
                    });
                }
            }
        }
        RoutingGraph::assemble(frame, nodes, edges)
    }

    #[test]
    fn graph_structure() {
        let g = grid3();
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.neighbors(NodeId(4)).len(), 4); // centre
        assert_eq!(g.neighbors(NodeId(0)).len(), 2); // corner
        assert!((g.total_area_mm2() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn cell_and_point_lookup() {
        let g = grid3();
        assert_eq!(g.node_at_cell((1, 1)), Some(NodeId(4)));
        assert_eq!(g.node_at_cell((5, 5)), None);
        assert_eq!(g.node_near(Point::new(1.5, 1.5), 2), Some(NodeId(4)));
        // Outside the grid but within the ring search.
        assert!(g.node_near(Point::new(3.5, 1.5), 2).is_some());
        assert_eq!(g.node_near(Point::new(30.0, 30.0), 2), None);
    }

    #[test]
    fn graph_connectivity() {
        let g = grid3();
        assert!(g.connects(&[NodeId(0), NodeId(8)]));
        assert!(g.connects(&[NodeId(3)]));
        assert!(g.connects(&[]));
    }

    #[test]
    fn subgraph_insert_remove() {
        let g = grid3();
        let mut s = Subgraph::new(&g);
        s.insert(&g, NodeId(0));
        s.insert(&g, NodeId(1));
        s.insert(&g, NodeId(1)); // idempotent
        assert_eq!(s.order(), 2);
        assert!((s.area_mm2() - 2.0).abs() < 1e-12);
        s.remove(&g, NodeId(0));
        assert_eq!(s.order(), 1);
        assert!(!s.contains(NodeId(0)));
        s.remove(&g, NodeId(0)); // idempotent
        assert_eq!(s.order(), 1);
    }

    #[test]
    fn subgraph_boundary() {
        let g = grid3();
        let mut s = Subgraph::new(&g);
        s.insert(&g, NodeId(4)); // centre
        let mut b = s.boundary(&g);
        b.sort();
        assert_eq!(b, vec![NodeId(1), NodeId(3), NodeId(5), NodeId(7)]);
    }

    #[test]
    fn subgraph_induced_edges() {
        let g = grid3();
        let mut s = Subgraph::new(&g);
        for id in [0u32, 1, 2] {
            s.insert(&g, NodeId(id)); // bottom row
        }
        assert_eq!(s.induced_edges(&g).count(), 2);
    }

    #[test]
    fn subgraph_connectivity_and_articulation() {
        let g = grid3();
        let mut s = Subgraph::new(&g);
        // An L: 0-1-2 + 2-5.
        for id in [0u32, 1, 2, 5] {
            s.insert(&g, NodeId(id));
        }
        let targets = [NodeId(0), NodeId(5)];
        assert!(s.connects(&g, &targets));
        // Node 1 is an articulation point between 0 and 5.
        assert!(!s.connected_without(&g, NodeId(1), &targets));
        // Node 2 is too.
        assert!(!s.connected_without(&g, NodeId(2), &targets));
        // Add the alternative path 0-3-4-5: node 1 stops being critical.
        s.insert(&g, NodeId(3));
        s.insert(&g, NodeId(4));
        assert!(s.connected_without(&g, NodeId(1), &targets));
    }

    #[test]
    fn removal_check_matches_connected_without() {
        let g = grid3();
        // Sweep every connected subgraph shape we can easily build, every
        // removal candidate, and several target sets: the fast local
        // check must agree with the exact one everywhere.
        let shapes: [&[u32]; 4] = [
            &[0, 1, 2, 5],                // L
            &[0, 1, 2, 3, 4, 5],          // two rows
            &[0, 1, 2, 3, 4, 5, 6, 7, 8], // full grid
            &[4],                         // single node
        ];
        let target_sets: [&[u32]; 3] = [&[0, 5], &[0], &[4]];
        let mut check = RemovalCheck::new();
        for shape in shapes {
            let mut s = Subgraph::new(&g);
            for &id in shape {
                s.insert(&g, NodeId(id));
            }
            for cand in 0..9u32 {
                for ts in target_sets {
                    let targets: Vec<NodeId> = ts.iter().map(|&t| NodeId(t)).collect();
                    let fast = check.keeps_connected(&g, &s, NodeId(cand), &targets);
                    let exact = s.connected_without(&g, NodeId(cand), &targets);
                    assert_eq!(
                        fast, exact,
                        "shape {shape:?} candidate {cand} targets {ts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn irregular_tile_cross_sections() {
        use sprout_geom::Polygon;
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        let node = TileNode {
            cell: (0, 0),
            rect: Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)).unwrap(),
            area_mm2: 0.5,
            pieces: Some(PolygonSet::from_polygon(tri)),
        };
        let cs = node.cross_section_x(0.25);
        assert!((cs.total_length() - 0.75).abs() < 1e-9);
        assert!(node.contains_point(Point::new(0.2, 0.2)));
        assert!(!node.contains_point(Point::new(0.9, 0.9)));
        // The centroid of the triangle, not the rect centre.
        assert!(node
            .center()
            .approx_eq(Point::new(1.0 / 3.0, 1.0 / 3.0), 1e-9));
    }
}

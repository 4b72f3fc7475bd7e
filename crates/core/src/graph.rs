//! Graph-typed cell topologies: per-cell neighbour lists with handover
//! split weights.
//!
//! The paper's validation setup is the closed 7-cell wraparound ring
//! with a uniform 1/6 handover split. [`CellGraph`] generalizes that
//! topology to arbitrary connected cell graphs — hex grids, highway
//! corridors, full metro adjacency lists — while keeping the ring as a
//! **bit-exact degenerate case**: [`CellGraph::ring7`] stores the
//! legacy neighbour order and unit weights, so the flux split
//! `out·w/W = out·1.0/6.0` and the sampling bin `⌊u·6⌋` reproduce the
//! pre-graph pipeline bit for bit (`tests/graph_equivalence.rs` pins
//! this against fixtures captured before the graph machinery existed).
//!
//! # Representation
//!
//! Weights are stored **raw** (unnormalized) together with each cell's
//! weight total. The split fraction of edge `i → j` is `w_ij / W_i`,
//! computed at use sites as `flux · w / W` — never as a precomputed
//! normalized fraction, because `fl(1/6)·x` and `x/6` differ in the
//! last ulp for some `x`, which would break the ring-degeneration
//! contract. Incoming edges are precomputed per cell in **ascending
//! source order**, which reproduces the legacy accumulation order of
//! `neighbors(j)` on the ring (mid cell first, then the ring cells in
//! index order).
//!
//! # Defining a topology
//!
//! ```
//! use gprs_core::graph::CellGraph;
//!
//! // The legacy 7-cell wraparound ring (uniform 1/6 split).
//! let ring = CellGraph::ring7();
//! assert_eq!(ring.num_cells(), 7);
//! assert!(ring.is_flow_balanced());
//!
//! // A 4×5 hexagonal torus: every cell has six neighbours.
//! let torus = CellGraph::hex_torus(4, 5)?;
//! assert_eq!(torus.num_cells(), 20);
//! assert!(torus.is_flow_balanced());
//!
//! // A 100-cell highway corridor (path graph).
//! let corridor = CellGraph::corridor(100)?;
//! assert_eq!(corridor.degree(0)?, 1);
//! assert_eq!(corridor.degree(50)?, 2);
//!
//! // Arbitrary adjacency with per-edge weights: a star whose centre
//! // hands 80% of its outflow to cell 1.
//! let star = CellGraph::from_weighted_adjacency(vec![
//!     vec![(1, 8.0), (2, 1.0), (3, 1.0)],
//!     vec![(0, 1.0)],
//!     vec![(0, 1.0)],
//!     vec![(0, 1.0)],
//! ])?;
//! assert!(!star.is_flow_balanced());
//! # Ok::<(), gprs_core::ModelError>(())
//! ```

use crate::error::ModelError;

/// One incoming handover edge of a cell: the source cell, the raw edge
/// weight, and the source's weight total. The inflow contribution is
/// `out[source] · weight / source_total`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InEdge {
    /// Source cell index.
    pub source: usize,
    /// Raw (unnormalized) weight of the `source → this` edge.
    pub weight: f64,
    /// The source cell's total outgoing weight `W_source`.
    pub source_total: f64,
}

/// A connected cell topology: per-cell out-neighbour lists with raw
/// handover split weights. See the [module docs](self) for the
/// representation contract.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGraph {
    /// Out-neighbour lists: `out[i]` is `(target, raw weight)` in the
    /// order handover sampling bins them.
    out: Vec<Vec<(usize, f64)>>,
    /// Per-cell raw weight totals `W_i`.
    totals: Vec<f64>,
    /// Per-cell flag: all out-weights bitwise equal (uniform split),
    /// enabling the legacy `⌊u·degree⌋` sampling fast path.
    uniform: Vec<bool>,
    /// Incoming edges per cell, ascending source order.
    in_edges: Vec<Vec<InEdge>>,
}

fn topology_err(reason: impl Into<String>) -> ModelError {
    ModelError::Topology {
        reason: reason.into(),
    }
}

impl CellGraph {
    /// The legacy closed 7-cell wraparound ring with unit weights: cell
    /// 0 (the mid cell) neighbours the six ring cells; each ring cell
    /// neighbours the mid cell plus the five other ring cells — the
    /// exact neighbour *order* of the pre-graph `neighbors()` function,
    /// so lowering any scenario through this graph is bit-identical to
    /// the fixed 7-cell pipeline.
    #[allow(
        clippy::expect_used,
        reason = "the fixed ring7 lists are a valid topology, as the tests check"
    )]
    pub fn ring7() -> Self {
        let mut lists: Vec<Vec<(usize, f64)>> = Vec::with_capacity(7);
        lists.push((1..7).map(|t| (t, 1.0)).collect());
        for cell in 1..7 {
            let mut nbrs = Vec::with_capacity(6);
            nbrs.push((0usize, 1.0));
            for other in 1..7 {
                if other != cell {
                    nbrs.push((other, 1.0));
                }
            }
            lists.push(nbrs);
        }
        Self::from_weighted_adjacency(lists).expect("ring7 is a valid topology")
    }

    /// A `rows × cols` hexagonal torus (triangular lattice with
    /// wraparound): cell `(r, c)` neighbours `(r, c±1)`, `(r±1, c)` and
    /// `(r+1, c−1)`, `(r−1, c+1)`, all mod the grid dimensions — every
    /// cell has exactly six neighbours, uniform weights. The balanced,
    /// edge-free analogue of a metro-wide hex deployment; with uniform
    /// cells its fixed point matches the homogeneous single-cell model
    /// (the torus oracle test).
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if either dimension is below 3 (smaller
    /// tori alias neighbours onto each other).
    pub fn hex_torus(rows: usize, cols: usize) -> Result<Self, ModelError> {
        if rows < 3 || cols < 3 {
            return Err(topology_err(format!(
                "hex torus needs both dimensions >= 3 to avoid duplicate edges, got {rows}x{cols}"
            )));
        }
        let idx = |r: usize, c: usize| r * cols + c;
        let mut lists = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let rm = (r + rows - 1) % rows;
                let rp = (r + 1) % rows;
                let cm = (c + cols - 1) % cols;
                let cp = (c + 1) % cols;
                lists.push(vec![
                    (idx(r, cm), 1.0),
                    (idx(r, cp), 1.0),
                    (idx(rm, c), 1.0),
                    (idx(rp, c), 1.0),
                    (idx(rp, cm), 1.0),
                    (idx(rm, cp), 1.0),
                ]);
            }
        }
        Self::from_weighted_adjacency(lists)
    }

    /// An `n`-cell highway corridor: the path graph `0 — 1 — … — n−1`
    /// with uniform weights (interior cells split 1/2 each way, end
    /// cells hand everything to their single neighbour). Deliberately
    /// *not* flow-balanced at the ends — the stress case for the
    /// graph-ordered sweeps and the template-dedup scale tests.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `n < 2`.
    pub fn corridor(n: usize) -> Result<Self, ModelError> {
        if n < 2 {
            return Err(topology_err(format!("corridor needs >= 2 cells, got {n}")));
        }
        let mut lists = Vec::with_capacity(n);
        for i in 0..n {
            let mut nbrs = Vec::with_capacity(2);
            if i > 0 {
                nbrs.push((i - 1, 1.0));
            }
            if i + 1 < n {
                nbrs.push((i + 1, 1.0));
            }
            lists.push(nbrs);
        }
        Self::from_weighted_adjacency(lists)
    }

    /// Builds a graph from plain adjacency lists with uniform (unit)
    /// weights.
    ///
    /// # Errors
    ///
    /// As [`CellGraph::from_weighted_adjacency`].
    pub fn from_adjacency(lists: Vec<Vec<usize>>) -> Result<Self, ModelError> {
        Self::from_weighted_adjacency(
            lists
                .into_iter()
                .map(|nbrs| nbrs.into_iter().map(|t| (t, 1.0)).collect())
                .collect(),
        )
    }

    /// The general constructor: one `(target, raw weight)` list per
    /// cell. Cell 0 is the statistics (mid) cell by convention.
    ///
    /// Validation: at least two cells; every cell has at least one
    /// neighbour; targets in range, no self-loops, no duplicate
    /// targets; weights positive and finite; the adjacency is
    /// *symmetric* (an edge `i → j` requires some edge `j → i` —
    /// handover is bidirectional motion, though the two directions may
    /// carry different weights); and the graph is connected.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] describing the first violated
    /// constraint.
    pub fn from_weighted_adjacency(lists: Vec<Vec<(usize, f64)>>) -> Result<Self, ModelError> {
        let n = lists.len();
        if n < 2 {
            return Err(topology_err(format!(
                "a cell graph needs >= 2 cells, got {n}"
            )));
        }
        for (i, nbrs) in lists.iter().enumerate() {
            if nbrs.is_empty() {
                return Err(topology_err(format!(
                    "cell {i} has no neighbours (every cell must have a handover target)"
                )));
            }
            let mut seen = vec![false; n];
            for &(t, w) in nbrs {
                if t >= n {
                    return Err(topology_err(format!(
                        "cell {i} lists neighbour {t}, but the graph has {n} cells"
                    )));
                }
                if t == i {
                    return Err(topology_err(format!("cell {i} neighbours itself")));
                }
                if seen[t] {
                    return Err(topology_err(format!("cell {i} lists neighbour {t} twice")));
                }
                seen[t] = true;
                if !(w.is_finite() && w > 0.0) {
                    return Err(topology_err(format!(
                        "edge {i} -> {t} has non-positive or non-finite weight {w}"
                    )));
                }
            }
        }
        // Symmetry: handover moves users both ways along an edge.
        for (i, nbrs) in lists.iter().enumerate() {
            for &(t, _) in nbrs {
                if !lists[t].iter().any(|&(back, _)| back == i) {
                    return Err(topology_err(format!(
                        "edge {i} -> {t} has no reverse edge {t} -> {i} \
                         (handover topologies must be symmetric)"
                    )));
                }
            }
        }
        // Connectivity (BFS from cell 0).
        let mut visited = vec![false; n];
        let mut queue = vec![0usize];
        visited[0] = true;
        let mut reached = 1usize;
        while let Some(i) = queue.pop() {
            for &(t, _) in &lists[i] {
                if !visited[t] {
                    visited[t] = true;
                    reached += 1;
                    queue.push(t);
                }
            }
        }
        if reached != n {
            return Err(topology_err(format!(
                "graph is disconnected: only {reached} of {n} cells reachable from cell 0"
            )));
        }

        let totals: Vec<f64> = lists
            .iter()
            .map(|nbrs| nbrs.iter().map(|&(_, w)| w).sum())
            .collect();
        let uniform: Vec<bool> = lists
            .iter()
            .map(|nbrs| {
                let first = nbrs[0].1.to_bits();
                nbrs.iter().all(|&(_, w)| w.to_bits() == first)
            })
            .collect();
        // In-edges in ascending source order: on the ring this equals
        // the legacy `neighbors(j)` accumulation order, keeping the
        // inflow sums bit-identical.
        let mut in_edges: Vec<Vec<InEdge>> = vec![Vec::new(); n];
        for (source, nbrs) in lists.iter().enumerate() {
            for &(t, w) in nbrs {
                in_edges[t].push(InEdge {
                    source,
                    weight: w,
                    source_total: totals[source],
                });
            }
        }
        for edges in &mut in_edges {
            edges.sort_by_key(|e| e.source);
        }
        Ok(CellGraph {
            out: lists,
            totals,
            uniform,
            in_edges,
        })
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.out.len()
    }

    fn check_cell(&self, cell: usize) -> Result<(), ModelError> {
        if cell >= self.num_cells() {
            return Err(topology_err(format!(
                "cell {cell} out of range (graph has {} cells)",
                self.num_cells()
            )));
        }
        Ok(())
    }

    /// The out-neighbours of `cell` as `(target, raw weight)` pairs, in
    /// sampling order.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `cell` is out of range.
    pub fn neighbors(&self, cell: usize) -> Result<&[(usize, f64)], ModelError> {
        self.check_cell(cell)?;
        Ok(&self.out[cell])
    }

    /// Every cell's [`neighbors`](Self::neighbors) list, by cell index.
    pub(crate) fn adjacency(&self) -> &[Vec<(usize, f64)>] {
        &self.out
    }

    /// The number of neighbours of `cell`.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `cell` is out of range.
    pub fn degree(&self, cell: usize) -> Result<usize, ModelError> {
        self.check_cell(cell)?;
        Ok(self.out[cell].len())
    }

    /// The total outgoing raw weight `W_cell`.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `cell` is out of range.
    pub fn weight_total(&self, cell: usize) -> Result<f64, ModelError> {
        self.check_cell(cell)?;
        Ok(self.totals[cell])
    }

    /// The incoming edges of `cell` in ascending source order — the
    /// accumulation order of the cluster fixed point's inflow sums.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `cell` is out of range.
    pub fn in_edges(&self, cell: usize) -> Result<&[InEdge], ModelError> {
        self.check_cell(cell)?;
        Ok(&self.in_edges[cell])
    }

    /// Picks a handover target for a user leaving `cell` from a uniform
    /// draw `u ∈ [0, 1]` — the sampling counterpart of the analytical
    /// `w/W` flux split.
    ///
    /// Uniform-weight cells use half-open binning `⌊u·degree⌋` with the
    /// measure-zero draw `u = 1.0` clamped onto the last neighbour —
    /// on [`CellGraph::ring7`] this is bit-identical to the legacy
    /// `⌊u·6⌋` sampler. Weighted cells scan the cumulative raw weights:
    /// neighbour `i` owns `[Σ_{j<i} w_j, Σ_{j≤i} w_j) / W`, with
    /// `u = 1.0` again landing on the last neighbour.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `cell` is out of range or `u` lies
    /// outside `[0, 1]`.
    pub fn handover_target(&self, cell: usize, u: f64) -> Result<usize, ModelError> {
        self.check_cell(cell)?;
        if !(0.0..=1.0).contains(&u) {
            return Err(topology_err(format!("u must lie in [0, 1], got {u}")));
        }
        let nbrs = &self.out[cell];
        let deg = nbrs.len();
        if self.uniform[cell] {
            return Ok(nbrs[((u * deg as f64) as usize).min(deg - 1)].0);
        }
        let target = u * self.totals[cell];
        let mut acc = 0.0;
        for &(t, w) in &nbrs[..deg - 1] {
            acc += w;
            if target < acc {
                return Ok(t);
            }
        }
        Ok(nbrs[deg - 1].0)
    }

    /// Whether every cell's split is uniform over its neighbours (all
    /// raw weights equal per cell).
    pub fn is_uniform_split(&self) -> bool {
        self.uniform.iter().all(|&u| u)
    }

    /// Whether the topology preserves a homogeneous flow: for every
    /// cell, the incoming split fractions sum to 1 (`Σ_i w_ij/W_i = 1`),
    /// so identical per-cell outflows reproduce themselves as inflows.
    /// This is the graph-side condition for the uniform-cells oracle
    /// (cluster fixed point == homogeneous single-cell model): the ring
    /// and hex tori qualify, corridors do not (their end cells receive
    /// only half of an interior neighbour's outflow).
    pub fn is_flow_balanced(&self) -> bool {
        self.in_edges.iter().all(|edges| {
            let colsum: f64 = edges.iter().map(|e| e.weight / e.source_total).sum();
            (colsum - 1.0).abs() <= 1e-12
        })
    }

    /// Splits the cells into `shards` **contiguous** shards for the
    /// sharded cluster fixed point: cells are taken in BFS order from
    /// cell 0 (the deterministic traversal the connectivity check
    /// already defines), the order is cut into `shards` near-equal
    /// consecutive chunks, and each chunk becomes one shard. BFS
    /// contiguity keeps most handover edges shard-internal, so the
    /// halo sets — the boundary cells whose fluxes must be exchanged
    /// between outer iterations — stay small.
    ///
    /// `shards` is clamped to the cell count (never more shards than
    /// cells); `shards == 1` yields the trivial whole-graph partition.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `shards == 0`.
    pub fn partition(&self, shards: usize) -> Result<Partition, ModelError> {
        Partition::contiguous(self, shards)
    }

    /// Deterministic BFS order from cell 0 over the out-neighbour
    /// lists — every cell exactly once (the graph is connected by
    /// construction).
    fn bfs_order(&self) -> Vec<usize> {
        let n = self.num_cells();
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(0usize);
        visited[0] = true;
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &(t, _) in &self.out[i] {
                if !visited[t] {
                    visited[t] = true;
                    queue.push_back(t);
                }
            }
        }
        debug_assert_eq!(order.len(), n);
        order
    }

    /// A greedy colouring of the cells (ascending index, first free
    /// colour): cells of one colour class share no edge, so a
    /// Gauss–Seidel sweep may solve each class in parallel while still
    /// propagating every update across edges within the sweep. Classes
    /// are returned in colour order, each ascending — deterministic for
    /// a given graph.
    pub fn color_classes(&self) -> Vec<Vec<usize>> {
        let n = self.num_cells();
        let mut color = vec![usize::MAX; n];
        let mut num_colors = 0usize;
        let mut used = Vec::new();
        for i in 0..n {
            used.clear();
            used.resize(num_colors, false);
            for &(t, _) in &self.out[i] {
                if color[t] != usize::MAX {
                    used[color[t]] = true;
                }
            }
            let c = used.iter().position(|&taken| !taken).unwrap_or_else(|| {
                num_colors += 1;
                num_colors - 1
            });
            color[i] = c;
        }
        let mut classes = vec![Vec::new(); num_colors];
        for (i, &c) in color.iter().enumerate() {
            classes[c].push(i);
        }
        classes
    }
}

/// A partition of a [`CellGraph`]'s cells into shards with explicit
/// **halo sets** — the machinery under the sharded cluster fixed
/// point. Each shard owns a disjoint set of cells; its halo is the
/// exact set of *foreign* cells some owned cell imports handover flux
/// from (the sources of cross-shard in-edges). Between outer fixed-
/// point iterations a shard needs precisely its halo cells' boundary
/// fluxes and nothing else.
///
/// # Invariants (validated at construction)
///
/// * every cell belongs to exactly one shard;
/// * every shard is non-empty and stores its cells in ascending order;
/// * `halo(s)` is sorted, duplicate-free, disjoint from `shard(s)`,
///   and equals the exact cross-shard in-edge source complement:
///   a cell `c` is in `halo(s)` iff `c ∉ shard(s)` and some edge
///   `c → d` exists with `d ∈ shard(s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Shard index per cell.
    assignment: Vec<usize>,
    /// Owned cells per shard, each ascending.
    shards: Vec<Vec<usize>>,
    /// Halo per shard: foreign flux-source cells, sorted ascending.
    halos: Vec<Vec<usize>>,
}

impl Partition {
    /// The contiguity-based partitioner behind
    /// [`CellGraph::partition`]: BFS order from cell 0, cut into
    /// `shards` near-equal consecutive chunks (clamped to the cell
    /// count).
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `shards == 0`.
    pub fn contiguous(graph: &CellGraph, shards: usize) -> Result<Self, ModelError> {
        let n = graph.num_cells();
        if shards == 0 {
            return Err(topology_err("a partition needs >= 1 shard, got 0"));
        }
        let k = shards.min(n);
        let order = graph.bfs_order();
        let mut assignment = vec![0usize; n];
        // Near-equal consecutive chunks: the first `n % k` shards get
        // one extra cell.
        let base = n / k;
        let extra = n % k;
        let mut start = 0usize;
        for (s, chunk) in (0..k).map(|s| base + usize::from(s < extra)).enumerate() {
            for &cell in &order[start..start + chunk] {
                assignment[cell] = s;
            }
            start += chunk;
        }
        Self::from_assignment(graph, assignment)
    }

    /// Builds a partition from an explicit cell → shard assignment and
    /// derives the halo sets from `graph`.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `assignment` does not cover exactly
    /// `graph.num_cells()` cells, or the shard indices are not the
    /// dense range `0..num_shards` (every shard must own at least one
    /// cell).
    pub fn from_assignment(graph: &CellGraph, assignment: Vec<usize>) -> Result<Self, ModelError> {
        let n = graph.num_cells();
        if assignment.len() != n {
            return Err(topology_err(format!(
                "assignment covers {} cells, but the graph has {n}",
                assignment.len()
            )));
        }
        let k = match assignment.iter().max() {
            Some(&max) => max + 1,
            None => return Err(topology_err("a partition needs >= 1 shard, got 0")),
        };
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (cell, &s) in assignment.iter().enumerate() {
            shards[s].push(cell);
        }
        if let Some(empty) = shards.iter().position(|cells| cells.is_empty()) {
            return Err(topology_err(format!(
                "shard {empty} owns no cells (shard indices must be dense)"
            )));
        }
        // Ascending by construction (cells enumerated in order); the
        // halo of shard s: foreign sources of in-edges into s.
        let mut halos: Vec<Vec<usize>> = Vec::with_capacity(k);
        for (s, cells) in shards.iter().enumerate() {
            let mut halo: Vec<usize> = Vec::new();
            for &cell in cells {
                for e in graph.in_edges(cell)? {
                    if assignment[e.source] != s {
                        halo.push(e.source);
                    }
                }
            }
            halo.sort_unstable();
            halo.dedup();
            halos.push(halo);
        }
        Ok(Partition {
            assignment,
            shards,
            halos,
        })
    }

    /// Number of shards (at least 1).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of cells across all shards.
    pub fn num_cells(&self) -> usize {
        self.assignment.len()
    }

    fn check_shard(&self, shard: usize) -> Result<(), ModelError> {
        if shard >= self.num_shards() {
            return Err(topology_err(format!(
                "shard {shard} out of range (partition has {} shards)",
                self.num_shards()
            )));
        }
        Ok(())
    }

    /// The cells owned by `shard`, ascending.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> Result<&[usize], ModelError> {
        self.check_shard(shard)?;
        Ok(&self.shards[shard])
    }

    /// The halo of `shard`: the foreign cells whose boundary fluxes the
    /// shard imports, sorted ascending.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `shard` is out of range.
    pub fn halo(&self, shard: usize) -> Result<&[usize], ModelError> {
        self.check_shard(shard)?;
        Ok(&self.halos[shard])
    }

    /// The shard owning `cell`.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if `cell` is out of range.
    pub fn shard_of(&self, cell: usize) -> Result<usize, ModelError> {
        if cell >= self.assignment.len() {
            return Err(topology_err(format!(
                "cell {cell} out of range (partition covers {} cells)",
                self.assignment.len()
            )));
        }
        Ok(self.assignment[cell])
    }

    /// The full cell → shard assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring7_matches_the_legacy_neighbour_order() {
        let g = CellGraph::ring7();
        assert_eq!(g.num_cells(), 7);
        let mid: Vec<usize> = g.neighbors(0).unwrap().iter().map(|&(t, _)| t).collect();
        assert_eq!(mid, vec![1, 2, 3, 4, 5, 6]);
        let c3: Vec<usize> = g.neighbors(3).unwrap().iter().map(|&(t, _)| t).collect();
        assert_eq!(c3, vec![0, 1, 2, 4, 5, 6]);
        assert!(g.is_uniform_split());
        assert!(g.is_flow_balanced());
        for cell in 0..7 {
            assert_eq!(g.weight_total(cell).unwrap(), 6.0);
        }
    }

    #[test]
    fn ring7_in_edges_follow_ascending_source_order() {
        let g = CellGraph::ring7();
        let sources: Vec<usize> = g.in_edges(0).unwrap().iter().map(|e| e.source).collect();
        assert_eq!(sources, vec![1, 2, 3, 4, 5, 6]);
        let sources: Vec<usize> = g.in_edges(4).unwrap().iter().map(|e| e.source).collect();
        assert_eq!(sources, vec![0, 1, 2, 3, 5, 6]);
        for e in g.in_edges(4).unwrap() {
            assert_eq!(e.weight, 1.0);
            assert_eq!(e.source_total, 6.0);
        }
    }

    #[test]
    fn hex_torus_has_six_symmetric_neighbours_everywhere() {
        let g = CellGraph::hex_torus(3, 4).unwrap();
        assert_eq!(g.num_cells(), 12);
        for cell in 0..12 {
            assert_eq!(g.degree(cell).unwrap(), 6, "cell {cell}");
        }
        assert!(g.is_flow_balanced());
        assert!(CellGraph::hex_torus(2, 5).is_err());
        assert!(CellGraph::hex_torus(5, 2).is_err());
    }

    #[test]
    fn corridor_ends_are_unbalanced() {
        let g = CellGraph::corridor(5).unwrap();
        assert_eq!(g.degree(0).unwrap(), 1);
        assert_eq!(g.degree(2).unwrap(), 2);
        assert_eq!(g.degree(4).unwrap(), 1);
        assert!(!g.is_flow_balanced());
        assert!(CellGraph::corridor(1).is_err());
    }

    #[test]
    fn invalid_topologies_are_rejected_with_typed_errors() {
        let reject =
            |lists: Vec<Vec<(usize, f64)>>, needle: &str| match CellGraph::from_weighted_adjacency(
                lists,
            ) {
                Err(ModelError::Topology { reason }) => {
                    assert!(reason.contains(needle), "{reason:?} missing {needle:?}")
                }
                other => panic!("expected Topology error about {needle:?}, got {other:?}"),
            };
        reject(vec![vec![(0, 1.0)]], ">= 2 cells");
        reject(vec![vec![(1, 1.0)], vec![]], "no neighbours");
        reject(vec![vec![(5, 1.0)], vec![(0, 1.0)]], "has 2 cells");
        reject(vec![vec![(0, 1.0)], vec![(0, 1.0)]], "neighbours itself");
        reject(vec![vec![(1, 1.0), (1, 2.0)], vec![(0, 1.0)]], "twice");
        reject(vec![vec![(1, -1.0)], vec![(0, 1.0)]], "weight");
        reject(vec![vec![(1, f64::NAN)], vec![(0, 1.0)]], "weight");
        // Asymmetric: 0 -> 1 without 1 -> 0.
        reject(
            vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![(1, 1.0)]],
            "reverse edge",
        );
        // Disconnected: two separate dumbbells.
        reject(
            vec![
                vec![(1, 1.0)],
                vec![(0, 1.0)],
                vec![(3, 1.0)],
                vec![(2, 1.0)],
            ],
            "disconnected",
        );
    }

    #[test]
    fn out_of_range_access_is_a_typed_error_not_a_panic() {
        let g = CellGraph::ring7();
        for result in [
            g.neighbors(7).map(|_| ()),
            g.degree(7).map(|_| ()),
            g.in_edges(9).map(|_| ()),
            g.weight_total(7).map(|_| ()),
            g.handover_target(7, 0.5).map(|_| ()),
        ] {
            match result {
                Err(ModelError::Topology { reason }) => {
                    assert!(reason.contains("out of range"), "{reason}")
                }
                other => panic!("expected out-of-range Topology error, got {other:?}"),
            }
        }
        match g.handover_target(0, 1.5) {
            Err(ModelError::Topology { reason }) => assert!(reason.contains("[0, 1]")),
            other => panic!("expected u-range error, got {other:?}"),
        }
    }

    #[test]
    fn uniform_sampling_matches_the_legacy_binning() {
        let g = CellGraph::ring7();
        for cell in 0..7 {
            let legacy: Vec<usize> = if cell == 0 {
                vec![1, 2, 3, 4, 5, 6]
            } else {
                let mut v = vec![0];
                v.extend((1..7).filter(|&o| o != cell));
                v
            };
            for i in 0..=600 {
                let u = i as f64 / 600.0;
                let expect = legacy[((u * 6.0) as usize).min(5)];
                assert_eq!(g.handover_target(cell, u).unwrap(), expect, "u={u}");
            }
        }
    }

    #[test]
    fn weighted_sampling_respects_cumulative_intervals() {
        let g = CellGraph::from_weighted_adjacency(vec![
            vec![(1, 1.0), (2, 3.0)],
            vec![(0, 1.0), (2, 1.0)],
            vec![(0, 1.0), (1, 1.0)],
        ])
        .unwrap();
        // Cell 0 splits 1:3 → neighbour 1 owns [0, 0.25), 2 owns [0.25, 1].
        assert_eq!(g.handover_target(0, 0.0).unwrap(), 1);
        assert_eq!(g.handover_target(0, 0.2499).unwrap(), 1);
        assert_eq!(g.handover_target(0, 0.25).unwrap(), 2);
        assert_eq!(g.handover_target(0, 0.99).unwrap(), 2);
        // Inclusive boundary clamps to the last neighbour.
        assert_eq!(g.handover_target(0, 1.0).unwrap(), 2);
        assert_eq!(g.handover_target(1, 1.0).unwrap(), 2);
    }

    #[test]
    fn color_classes_partition_without_internal_edges() {
        for g in [
            CellGraph::ring7(),
            CellGraph::hex_torus(3, 3).unwrap(),
            CellGraph::corridor(10).unwrap(),
        ] {
            let classes = g.color_classes();
            let mut seen = vec![false; g.num_cells()];
            for class in &classes {
                for &i in class {
                    assert!(!seen[i]);
                    seen[i] = true;
                    for &(t, _) in g.neighbors(i).unwrap() {
                        assert!(!class.contains(&t), "edge {i}-{t} inside a class");
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
        // A corridor is bipartite: exactly two classes.
        assert_eq!(CellGraph::corridor(10).unwrap().color_classes().len(), 2);
    }

    #[test]
    fn contiguous_partition_covers_every_cell_exactly_once() {
        for (g, k) in [
            (CellGraph::ring7(), 1),
            (CellGraph::ring7(), 3),
            (CellGraph::ring7(), 7),
            (CellGraph::hex_torus(4, 5).unwrap(), 4),
            (CellGraph::corridor(23).unwrap(), 5),
        ] {
            let p = g.partition(k).unwrap();
            assert_eq!(p.num_shards(), k);
            assert_eq!(p.num_cells(), g.num_cells());
            let mut seen = vec![false; g.num_cells()];
            for s in 0..p.num_shards() {
                let cells = p.shard(s).unwrap();
                assert!(!cells.is_empty(), "shard {s} empty");
                assert!(
                    cells.windows(2).all(|w| w[0] < w[1]),
                    "shard {s} not ascending"
                );
                for &c in cells {
                    assert!(!seen[c], "cell {c} in two shards");
                    seen[c] = true;
                    assert_eq!(p.shard_of(c).unwrap(), s);
                }
            }
            assert!(seen.iter().all(|&s| s), "uncovered cell");
        }
    }

    #[test]
    fn halos_are_the_exact_cross_shard_in_edge_complement() {
        let g = CellGraph::corridor(12).unwrap();
        let p = g.partition(3).unwrap();
        for s in 0..p.num_shards() {
            let own = p.shard(s).unwrap();
            let halo = p.halo(s).unwrap();
            assert!(
                halo.windows(2).all(|w| w[0] < w[1]),
                "halo {s} not sorted/deduped"
            );
            // Exact complement: c in halo(s) iff c foreign and c is the
            // source of some in-edge into the shard.
            for c in 0..g.num_cells() {
                let expected = !own.contains(&c)
                    && own
                        .iter()
                        .any(|&d| g.in_edges(d).unwrap().iter().any(|e| e.source == c));
                assert_eq!(halo.contains(&c), expected, "shard {s} cell {c}");
            }
        }
        // The trivial partition has empty halos.
        let whole = g.partition(1).unwrap();
        assert!(whole.halo(0).unwrap().is_empty());
        assert_eq!(whole.shard(0).unwrap().len(), 12);
    }

    #[test]
    fn contiguous_shards_are_bfs_contiguous_on_a_corridor() {
        // BFS order on a corridor is 0, 1, 2, …, so the chunks are
        // index ranges — the halo of an interior shard is exactly its
        // two boundary neighbours.
        let g = CellGraph::corridor(12).unwrap();
        let p = g.partition(3).unwrap();
        assert_eq!(p.shard(0).unwrap(), &[0, 1, 2, 3]);
        assert_eq!(p.shard(1).unwrap(), &[4, 5, 6, 7]);
        assert_eq!(p.shard(2).unwrap(), &[8, 9, 10, 11]);
        assert_eq!(p.halo(1).unwrap(), &[3, 8]);
    }

    #[test]
    fn partition_shard_count_is_clamped_and_zero_rejected() {
        let g = CellGraph::ring7();
        let p = g.partition(100).unwrap();
        assert_eq!(p.num_shards(), 7);
        for s in 0..7 {
            assert_eq!(p.shard(s).unwrap().len(), 1);
        }
        match g.partition(0) {
            Err(ModelError::Topology { reason }) => assert!(reason.contains(">= 1 shard")),
            other => panic!("expected Topology error, got {other:?}"),
        }
    }

    #[test]
    fn from_assignment_rejects_bad_assignments() {
        let g = CellGraph::ring7();
        let reject =
            |assignment: Vec<usize>, needle: &str| match Partition::from_assignment(&g, assignment)
            {
                Err(ModelError::Topology { reason }) => {
                    assert!(reason.contains(needle), "{reason:?} missing {needle:?}")
                }
                other => panic!("expected Topology error about {needle:?}, got {other:?}"),
            };
        reject(vec![0; 6], "covers 6 cells");
        reject(vec![0, 0, 0, 2, 2, 2, 2], "shard 1 owns no cells");
        let p = Partition::from_assignment(&g, vec![0, 1, 0, 1, 0, 1, 0]).unwrap();
        assert_eq!(p.shard(0).unwrap(), &[0, 2, 4, 6]);
        assert_eq!(p.shard(1).unwrap(), &[1, 3, 5]);
        // On the complete-ish ring every foreign cell is a halo cell.
        assert_eq!(p.halo(0).unwrap(), &[1, 3, 5]);
        assert_eq!(p.halo(1).unwrap(), &[0, 2, 4, 6]);
        match p.shard(2) {
            Err(ModelError::Topology { reason }) => assert!(reason.contains("out of range")),
            other => panic!("expected out-of-range error, got {other:?}"),
        }
    }
}

//! Heterogeneous multi-cell fixed-point model on the 7-cell cluster.
//!
//! The paper's Markov model describes **one** cell and balances its
//! handover flows under the homogeneity assumption: every cell carries
//! identical load, so incoming handover flow equals outgoing flow and
//! the scalar Erlang iteration of `gprs_queueing::handover` closes the
//! model. Real deployments are not homogeneous — a hot-spot cell next to
//! lightly loaded neighbours receives *less* handover traffic than its
//! own outflow, which the scalar balance cannot represent.
//!
//! [`ClusterModel`] drops the assumption. It holds one [`CellConfig`]
//! per cell of a [`CellGraph`] topology (the paper's closed 7-cell
//! wraparound ring for the classic scenarios, the same topology the
//! `gprs-sim` network simulator moves users over). Workloads are
//! described once as a [`Scenario`] and lowered with
//! [`Scenario::to_cluster`]. The model iterates a
//! **cluster-wide fixed point on the handover arrival vectors**:
//!
//! 1. solve each cell's CTMC under its current incoming handover rates
//!    `(λ_h,GSM[i], λ_h,GPRS[i])` — via
//!    [`crate::GprsModel::with_handover_arrivals`], lowered through one
//!    [`crate::template::GeneratorTemplate`] per cell that persists
//!    across all outer iterations (shared state space, solver
//!    workspace and CSR pattern; each pass only refills rates) and
//!    warm-starts from the cell's previous iterate;
//! 2. read the mean populations `E[n_i]`, `E[m_i]` off the stationary
//!    distributions and form the outgoing fluxes `μ_h,GSM·E[n_i]` and
//!    `μ_h,GPRS·E[m_i]`, split uniformly over the six neighbours
//!    (matching the simulator's uniform handover-target choice);
//! 3. set each cell's next incoming rate to the sum of its neighbours'
//!    per-neighbour fluxes and repeat until the vector is stationary.
//!
//! Under uniform load the fixed point coincides with the scalar balance
//! (every cell's inflow equals its own outflow), which is both the
//! initialization and the oracle the test suite checks against. The
//! per-iteration cell solves are independent, so the one fixed-point
//! engine (`gprs_core::shard`) hands them to persistent workers that
//! own the cells' templates, while one coordinator holds the handover
//! vectors and runs every cross-cell sum in a fixed order — results are
//! bit-identical for any shard and thread count.
//!
//! # Example
//!
//! ```
//! use gprs_core::cluster::ClusterSolveOptions;
//! use gprs_core::{CellConfig, Scenario};
//! use gprs_traffic::TrafficModel;
//!
//! // Ring cells at 0.3 calls/s, mid cell overloaded at 0.6 calls/s
//! // (small buffer keeps the doc test fast).
//! let base = CellConfig::builder()
//!     .traffic_model(TrafficModel::Model3)
//!     .buffer_capacity(6)
//!     .max_gprs_sessions(2)
//!     .call_arrival_rate(0.3)
//!     .build()?;
//! let cluster = Scenario::hot_spot(base, 0.6)?.to_cluster()?;
//! let solved = cluster.solve(&ClusterSolveOptions::quick())?;
//! // The hot mid cell receives less handover inflow than it emits:
//! // its lightly loaded neighbours cannot match its outflow.
//! let mid = solved.mid();
//! assert!(mid.gsm_handover_in < mid.gsm_handover_out);
//! assert_eq!(solved.cells().len(), 7);
//! # Ok::<(), gprs_core::ModelError>(())
//! ```

use crate::config::CellConfig;
use crate::error::ModelError;
use crate::graph::CellGraph;
use crate::health::SolveHealth;
use crate::measures::Measures;
use crate::scenario::Scenario;
use crate::template::TemplateRegistry;
use gprs_ctmc::solver::SolveOptions;
use gprs_exec::num_threads;
use gprs_queueing::handover::{balance_default, HandoverParams};

/// Number of cells in the 7-cell ring cluster ([`CellGraph::ring7`]) —
/// the topology of the classic [`Scenario`] constructors and the
/// paper's validation setup. Graph-typed clusters
/// ([`ClusterModel::from_graph`]) may have any size; query
/// [`ClusterModel::num_cells`] instead.
pub const NUM_CELLS: usize = 7;

/// Index of the mid (statistics) cell — cell 0 on every topology.
pub const MID_CELL: usize = 0;

/// The sweep ordering of the cluster fixed point over the cell graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepOrdering {
    /// Classic simultaneous (Jacobi) sweeps: every cell is solved at
    /// the *previous* iteration's arrival vector, then the whole
    /// vector updates at once. On the 7-cell ring this is the
    /// historical bit-exact iteration that the ring7 fixtures pin. Ask
    /// for it explicitly
    /// (`with_ordering(SweepOrdering::Jacobi)`, or `"ordering":
    /// "jacobi"` in a campaign spec).
    Jacobi,
    /// Graph-ordered block Gauss–Seidel sweeps: the cells are greedily
    /// coloured ([`CellGraph::color_classes`]), colour classes run
    /// sequentially, and each class sees the *latest* outflows of the
    /// classes before it — within-sweep propagation that typically
    /// converges in fewer outer iterations on elongated topologies
    /// (corridors) where Jacobi information crawls one hop per sweep.
    /// Cells within a class share no edge, so the per-class solves
    /// still run in parallel across shards and results stay
    /// bit-identical for any shard and thread count.
    ///
    /// The default: it reaches the Jacobi fixed point within the outer
    /// tolerance in fewer outer iterations on every topology measured
    /// (at [`ClusterSolveOptions::quick`] tolerances, 4,288 vs 7,784
    /// over 200 solves of 48-cell metro items; 8 vs 11 on the ring7
    /// hot spot). Both orderings run plain — no damping and no
    /// extrapolation — so a strongly coupled cluster under a tight
    /// `max_iterations` ends `BalanceNotConverged` under either; a
    /// campaign's retry ladder rescues it by doubling the budget.
    #[default]
    GaussSeidel,
}

/// Options for the cluster fixed point.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSolveOptions {
    /// Convergence tolerance on the handover arrival vector: the maximum
    /// relative change of any of the `2·NUM_CELLS` entries between
    /// successive iterations.
    pub tolerance: f64,
    /// Cap on outer (cluster) iterations.
    pub max_iterations: usize,
    /// Options for the inner per-cell CTMC solves.
    pub solve: SolveOptions,
    /// Worker threads; `0` (the default) uses
    /// [`gprs_exec::num_threads`]. In a cluster solve it only sets the
    /// default shard count (see [`shards`](Self::shards)), which is the
    /// number of threads the solve runs on. In a [`sweep_load_scales`]
    /// it is instead the number of points solved side by side, each on
    /// one thread. Results are identical for any value.
    pub threads: usize,
    /// Sweep ordering over the cell graph (default
    /// [`SweepOrdering::GaussSeidel`], which needs fewer outer
    /// iterations). [`SweepOrdering::Jacobi`] is the historical
    /// bit-exact iteration the ring7 fixtures pin; a campaign spec
    /// selects it with `"ordering": "jacobi"`, and a spec without an
    /// `ordering` key runs Gauss–Seidel. Both orderings run plain.
    pub ordering: SweepOrdering,
    /// Use the predict-and-verify surrogate for inner cell solves
    /// (default `false`, which keeps the fixed point bit-identical to
    /// the plain iteration of either ordering — under Jacobi, the
    /// historical bit-exact iteration). When on, each cell solve runs
    /// with [`crate::template::WarmStart::Predicted`]: once a cell's
    /// warm-start chain has two predecessors, the extrapolated iterate
    /// is residual-checked first and served without solver sweeps when
    /// it already meets `solve.tolerance` — outer iterations near the
    /// fixed point, where the arrival vector barely moves, become
    /// nearly free. Every served point still satisfies the same
    /// residual contract as a full solve;
    /// [`SolvedCluster::surrogate_solves`] reports how often the
    /// shortcut fired.
    pub surrogate: bool,
    /// Worker count of the fixed-point engine (`gprs_core::shard`):
    /// the cells go to that many persistent workers as near-equal
    /// consecutive index ranges, and each worker holds its cells'
    /// templates for the entire solve and solves the cells the
    /// coordinator sends it, at the arrival rates it sends. `0` (the
    /// default) uses the effective thread count
    /// ([`threads`](Self::threads)); `1` runs every cell inline on the
    /// calling thread. The count is clamped to `1..=cells`. Results
    /// are **bitwise identical** for every value — sharding is purely
    /// an execution strategy.
    pub shards: usize,
}

impl Default for ClusterSolveOptions {
    fn default() -> Self {
        ClusterSolveOptions {
            tolerance: 1e-10,
            max_iterations: 500,
            solve: SolveOptions::default(),
            threads: 0,
            ordering: SweepOrdering::GaussSeidel,
            surrogate: false,
            shards: 0,
        }
    }
}

impl ClusterSolveOptions {
    /// A looser profile for quick exploration.
    pub fn quick() -> Self {
        ClusterSolveOptions {
            tolerance: 1e-8,
            solve: SolveOptions::quick(),
            ..Self::default()
        }
    }

    /// Sets the outer tolerance, returning `self` for chaining.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets the worker count, returning `self` for chaining.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the inner solver options, returning `self` for chaining.
    pub fn with_solve(mut self, solve: SolveOptions) -> Self {
        self.solve = solve;
        self
    }

    /// Sets the sweep ordering, returning `self` for chaining.
    pub fn with_ordering(mut self, ordering: SweepOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Enables or disables the predict-and-verify surrogate for inner
    /// cell solves, returning `self` for chaining.
    pub fn with_surrogate(mut self, on: bool) -> Self {
        self.surrogate = on;
        self
    }

    /// Sets the worker count of the fixed-point engine (see the
    /// [`shards`](Self::shards) field), returning `self` for chaining.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The shard count for a graph of `cells` cells: `0` resolves to
    /// the effective thread count, and the result is clamped to
    /// `1..=cells`.
    fn effective_shards(&self, cells: usize) -> usize {
        let shards = match (self.shards, self.threads) {
            (0, 0) => num_threads(),
            (0, threads) => threads,
            (shards, _) => shards,
        };
        shards.min(cells).max(1)
    }
}

/// One cell of a solved cluster.
#[derive(Debug, Clone)]
pub struct SolvedCell {
    /// The full single-cell performance measures (Eqs. 6–11) under the
    /// converged handover arrival rates.
    pub measures: Measures,
    /// Converged incoming GSM handover rate `λ_h,GSM`.
    pub gsm_handover_in: f64,
    /// Converged incoming GPRS handover rate `λ_h,GPRS`.
    pub gprs_handover_in: f64,
    /// Outgoing GSM handover flux `μ_h,GSM·E[n]` at the fixed point.
    pub gsm_handover_out: f64,
    /// Outgoing GPRS handover flux `μ_h,GPRS·E[m]` at the fixed point.
    pub gprs_handover_out: f64,
    /// Mean voice-call population `E[n]` from the stationary chain.
    pub mean_voice_calls: f64,
    /// Mean GPRS session population `E[m]` from the stationary chain.
    pub mean_sessions: f64,
    /// Inner solver sweeps accumulated over all outer iterations.
    pub sweeps: usize,
    /// Balance residual of the final solve.
    pub residual: f64,
    /// Health report of the cell's final (reporting-pass) solve: which
    /// rung of the fallback ladder produced it.
    pub health: SolveHealth,
}

/// A converged cluster fixed point (assembled by `crate::shard`).
#[derive(Debug, Clone)]
pub struct SolvedCluster {
    pub(crate) cells: Vec<SolvedCell>,
    pub(crate) iterations: usize,
    pub(crate) handover_delta: f64,
    pub(crate) symbolic_setups: usize,
    pub(crate) surrogate_solves: usize,
}

impl SolvedCluster {
    /// All cells, in cell order (index [`MID_CELL`] first).
    pub fn cells(&self) -> &[SolvedCell] {
        &self.cells
    }

    /// The mid (statistics) cell.
    pub fn mid(&self) -> &SolvedCell {
        &self.cells[MID_CELL]
    }

    /// Outer iterations the fixed point took.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Final maximum relative change of the handover arrival vector.
    pub fn handover_delta(&self) -> f64 {
        self.handover_delta
    }

    /// Whether any cell's final solve had to leave the primary solver
    /// path (see [`SolveHealth::degraded`]).
    pub fn degraded(&self) -> bool {
        self.cells.iter().any(|c| c.health.degraded())
    }

    /// How many distinct cell shapes the solve's [`TemplateRegistry`]
    /// has seen — one per shape, not one per cell: a 1000-cell
    /// corridor with 5 cell kinds reports 5. The count spans the
    /// registry's lifetime, so against a registry shared across
    /// solves ([`ClusterModel::solve_with_registry`]) it includes the
    /// shapes of earlier solves; [`ClusterModel::solve`] uses a fresh
    /// registry and counts this cluster's shapes only.
    pub fn symbolic_setups(&self) -> usize {
        self.symbolic_setups
    }

    /// How many inner cell solves, summed over *all* outer iterations,
    /// were served by the predict-and-verify surrogate (zero solver
    /// sweeps — see [`ClusterSolveOptions::surrogate`]). Always `0`
    /// with the surrogate off.
    pub fn surrogate_solves(&self) -> usize {
        self.surrogate_solves
    }

    /// The cluster-wide flow conservation defect: relative difference
    /// between total incoming and total outgoing handover flux (GSM +
    /// GPRS). The cluster is closed, so this is ~0 at a genuine fixed
    /// point regardless of heterogeneity.
    pub fn flow_imbalance(&self) -> f64 {
        let total_in: f64 = self
            .cells
            .iter()
            .map(|c| c.gsm_handover_in + c.gprs_handover_in)
            .sum();
        let total_out: f64 = self
            .cells
            .iter()
            .map(|c| c.gsm_handover_out + c.gprs_handover_out)
            .sum();
        (total_in - total_out).abs() / total_in.max(total_out).max(1e-300)
    }
}

/// The heterogeneous analytical cluster model: one configuration per
/// cell of a [`CellGraph`] topology, solved to a cluster-wide handover
/// fixed point. Build one by lowering a [`Scenario`]
/// ([`Scenario::to_cluster`]) or, for a hand-made topology, with
/// [`ClusterModel::from_graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterModel {
    graph: CellGraph,
    configs: Vec<CellConfig>,
}

impl ClusterModel {
    /// Builds a cluster on an arbitrary topology: one configuration per
    /// cell of `graph` (index [`MID_CELL`] is the statistics cell).
    ///
    /// The handover split is a rate split, so cells may differ in any
    /// parameter — coding schemes, buffers, channel splits, traffic
    /// models, arrival rates. The network simulator accepts the same
    /// generality (`gprs_sim::SimConfig` holds one `CellConfig` per
    /// cell), so every cluster this model solves can be
    /// cross-validated end to end.
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if the configuration count does not
    /// match the graph size, [`ModelError::Config`] if any cell
    /// configuration is invalid.
    pub fn from_graph(graph: CellGraph, configs: Vec<CellConfig>) -> Result<Self, ModelError> {
        if configs.len() != graph.num_cells() {
            return Err(ModelError::Topology {
                reason: format!(
                    "cluster topology has {} cells but {} configurations were given",
                    graph.num_cells(),
                    configs.len()
                ),
            });
        }
        for (i, cfg) in configs.iter().enumerate() {
            cfg.validate().map_err(|e| ModelError::Config {
                reason: format!("cell {i}: {e}"),
            })?;
        }
        Ok(ClusterModel { graph, configs })
    }

    /// The per-cell configurations.
    pub fn configs(&self) -> &[CellConfig] {
        &self.configs
    }

    /// The cell topology.
    pub fn graph(&self) -> &CellGraph {
        &self.graph
    }

    /// The number of cells in the cluster (`graph().num_cells()`).
    pub fn num_cells(&self) -> usize {
        self.graph.num_cells()
    }

    /// Runs the cluster fixed point to convergence.
    ///
    /// Initialization: each cell starts from its own *scalar* balance
    /// (`gprs_queueing::handover::balance_default`) — exact under
    /// uniform load, a good neighbourhood for heterogeneous loads. Each
    /// outer iteration solves every cell on its shard's worker (see
    /// [`ClusterSolveOptions::shards`]) and warm-starts it from its
    /// previous stationary distribution; once the handover arrival
    /// vector moves less than `opts.tolerance` (relative), one final
    /// pass at the converged rates produces the reported measures.
    /// Results are deterministic and bit-identical for any shard and
    /// thread count.
    ///
    /// # Errors
    ///
    /// * [`ModelError::Queueing`] with
    ///   [`gprs_queueing::QueueingError::BalanceNotConverged`] if
    ///   `opts.max_iterations` outer iterations do not converge.
    /// * Any cell construction or inner solver error, attributed to the
    ///   lowest failing cell index (deterministic across shard and
    ///   thread counts).
    ///
    /// Convergence hardening: each cell solve runs through the
    /// fallback ladder of
    /// [`crate::template::GeneratorTemplate::solve_resilient`]
    /// (health reported per cell in [`SolvedCell::health`]). The outer
    /// iteration runs plain under both orderings: every refresh assigns
    /// the new inflows verbatim, with no damping or extrapolation.
    /// Strongly coupled clusters (short dwell times: handover rate far
    /// above completion rate) contract at a ratio near `1`, and one that
    /// overruns `max_iterations` returns `BalanceNotConverged`; a
    /// campaign's retry ladder answers it with a doubled budget.
    pub fn solve(&self, opts: &ClusterSolveOptions) -> Result<SolvedCluster, ModelError> {
        self.solve_with_registry(opts, &TemplateRegistry::new())
    }

    /// [`ClusterModel::solve`] against a caller-supplied
    /// [`TemplateRegistry`]: identical numerics (the registry shares
    /// nothing between templates; it only records the cell shapes it
    /// has seen). One registry may span many solves — a campaign's
    /// items, say — and then [`SolvedCluster::symbolic_setups`] counts
    /// the distinct shapes across all of them.
    ///
    /// # Errors
    ///
    /// As [`ClusterModel::solve`].
    pub fn solve_with_registry(
        &self,
        opts: &ClusterSolveOptions,
        registry: &TemplateRegistry,
    ) -> Result<SolvedCluster, ModelError> {
        let shards = opts.effective_shards(self.num_cells());
        crate::shard::solve_sharded(self, opts, registry, shards)
    }

    /// Scalar-balance initialization, per cell and per class: the
    /// handover arrival vector at which each cell's inflow equals its
    /// own outflow — exact under uniform load on a flow-balanced
    /// graph, a good neighbourhood otherwise.
    pub(crate) fn initial_rates(&self) -> Result<(Vec<f64>, Vec<f64>), ModelError> {
        let n = self.num_cells();
        let mut lam_gsm = Vec::with_capacity(n);
        let mut lam_gprs = Vec::with_capacity(n);
        for cfg in &self.configs {
            lam_gsm.push(
                balance_default(&HandoverParams {
                    new_arrival_rate: cfg.gsm_arrival_rate(),
                    completion_rate: cfg.gsm_completion_rate(),
                    handover_rate: cfg.gsm_handover_rate(),
                    servers: cfg.gsm_channels(),
                })?
                .handover_arrival_rate,
            );
            lam_gprs.push(
                balance_default(&HandoverParams {
                    new_arrival_rate: cfg.gprs_arrival_rate(),
                    completion_rate: cfg.gprs_completion_rate(),
                    handover_rate: cfg.gprs_handover_rate(),
                    servers: cfg.max_gprs_sessions,
                })?
                .handover_arrival_rate,
            );
        }
        Ok((lam_gsm, lam_gprs))
    }
}

/// One point of a cluster load sweep.
#[derive(Debug, Clone)]
pub struct ClusterSweepPoint {
    /// The load scale this point was solved at.
    pub scale: f64,
    /// The mid cell's call arrival rate at this scale.
    pub mid_rate: f64,
    /// The converged cluster.
    pub solved: SolvedCluster,
}

/// Solves `scenario` at each load scale, fanning the points out across
/// [`opts.threads`](ClusterSolveOptions::threads) workers. Point `s` is
/// `scenario.clone().with_load_scale(s)?.to_cluster()?` solved on one
/// thread (`threads` and [`shards`](ClusterSolveOptions::shards) both
/// pinned to 1, so a sweep never runs more than `threads` threads) —
/// the same load-scaling path as every other lowering of the
/// scenario ([`Scenario::with_load_scale`]), so a sweep point and a
/// homogeneous or simulator reference at the same scale see the same
/// rates. The parallelism budget goes to the points; results are
/// returned in scale order, bit-identical for any worker count.
///
/// # Errors
///
/// Propagates the error of the lowest-index failing point.
pub fn sweep_load_scales(
    scenario: &Scenario,
    scales: &[f64],
    opts: &ClusterSolveOptions,
) -> Result<Vec<ClusterSweepPoint>, ModelError> {
    // Scale points drain a load-balanced queue. Each point is solved
    // by the same deterministic code whichever worker picks it up (no
    // per-worker state), so results stay bit-identical for any worker
    // count.
    let threads = match opts.threads {
        0 => num_threads(),
        threads => threads,
    };
    gprs_exec::par_map_tasks(scales.len(), threads, |i| {
        solve_scale_point(scenario, scales[i], opts)
    })
    .into_iter()
    .collect()
}

fn solve_scale_point(
    scenario: &Scenario,
    scale: f64,
    opts: &ClusterSolveOptions,
) -> Result<ClusterSweepPoint, ModelError> {
    // Inner solves run sequentially: the sweep already saturates the
    // workers with points. An explicit shard count would win over the
    // thread count, so both are pinned.
    let point_opts = opts.clone().with_threads(1).with_shards(1);
    let cluster = scenario.clone().with_load_scale(scale)?.to_cluster()?;
    let solved = cluster.solve(&point_opts)?;
    Ok(ClusterSweepPoint {
        scale,
        mid_rate: cluster.configs()[MID_CELL].call_arrival_rate,
        solved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_queueing::QueueingError;
    use gprs_traffic::TrafficModel;

    fn tiny(rate: f64) -> CellConfig {
        CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(5)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(2)
            .call_arrival_rate(rate)
            .build()
            .unwrap()
    }

    fn homogeneous(cell: CellConfig) -> ClusterModel {
        Scenario::homogeneous(cell).unwrap().to_cluster().unwrap()
    }

    fn hot_spot(ring: CellConfig, mid_arrival_rate: f64) -> ClusterModel {
        Scenario::hot_spot(ring, mid_arrival_rate)
            .unwrap()
            .to_cluster()
            .unwrap()
    }

    /// The default cluster topology's neighbour list of `cell`.
    fn ring_neighbors(cell: usize) -> Vec<usize> {
        let g = CellGraph::ring7();
        g.neighbors(cell).unwrap().iter().map(|&(t, _)| t).collect()
    }

    #[test]
    fn topology_mid_cell_neighbours_are_the_ring() {
        assert_eq!(ring_neighbors(MID_CELL), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn topology_every_cell_has_six_distinct_neighbours() {
        for c in 0..NUM_CELLS {
            let mut n = ring_neighbors(c);
            n.sort_unstable();
            n.dedup();
            assert_eq!(n.len(), 6, "cell {c}");
            assert!(!n.contains(&c), "cell {c} neighbours itself");
        }
    }

    #[test]
    fn topology_is_symmetric() {
        // If b is a neighbour of a, then a is a neighbour of b — needed
        // for handover flow balance.
        for a in 0..NUM_CELLS {
            for b in ring_neighbors(a) {
                assert!(
                    ring_neighbors(b).contains(&a),
                    "asymmetry between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn topology_handover_target_covers_all_neighbours() {
        let g = CellGraph::ring7();
        let mut seen = std::collections::HashSet::new();
        for i in 0..6 {
            let u = (i as f64 + 0.5) / 6.0;
            seen.insert(g.handover_target(MID_CELL, u).unwrap());
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn topology_handover_target_accepts_the_inclusive_boundary() {
        // Inclusive-range uniform draws may produce exactly 1.0; the
        // measure-zero boundary clamps onto the last neighbour instead
        // of failing.
        let g = CellGraph::ring7();
        for cell in 0..NUM_CELLS {
            let t = g.handover_target(cell, 1.0).unwrap();
            assert_eq!(t, ring_neighbors(cell)[5], "cell {cell}");
            assert_ne!(t, cell);
        }
        // Just below the boundary agrees with the clamped value.
        assert_eq!(
            g.handover_target(0, 1.0).unwrap(),
            g.handover_target(0, 1.0 - 1e-12).unwrap()
        );
    }

    #[test]
    fn handover_target_stays_in_range() {
        // Inclusive upper boundary: i == 12 drives u to exactly 1.0,
        // which clamps onto the last neighbour rather than panicking.
        let g = CellGraph::ring7();
        for cell in 0..NUM_CELLS {
            for i in 0..=12 {
                let u = i as f64 / 12.0;
                let t = g.handover_target(cell, u).unwrap();
                assert!(t < NUM_CELLS);
                assert_ne!(t, cell);
            }
        }
    }

    #[test]
    fn topology_handover_target_rejects_above_one() {
        let g = CellGraph::ring7();
        for u in [1.0 + 1e-9, -1e-9, f64::NAN] {
            match g.handover_target(0, u) {
                Err(ModelError::Topology { reason }) => assert!(reason.contains("[0, 1]")),
                other => panic!("u = {u}: expected Topology error, got {other:?}"),
            }
        }
    }

    #[test]
    fn topology_bad_cell_is_a_typed_error() {
        let g = CellGraph::ring7();
        match g.neighbors(NUM_CELLS) {
            Err(ModelError::Topology { reason }) => assert!(reason.contains("out of range")),
            other => panic!("expected Topology error, got {other:?}"),
        }
        match g.handover_target(NUM_CELLS, 0.5) {
            Err(ModelError::Topology { .. }) => {}
            other => panic!("expected Topology error, got {other:?}"),
        }
    }

    #[test]
    fn shard_count_defaults_to_the_thread_count() {
        let opts = |threads, shards| ClusterSolveOptions {
            threads,
            shards,
            ..ClusterSolveOptions::default()
        };
        assert_eq!(opts(3, 0).effective_shards(7), 3);
        assert_eq!(opts(3, 0).effective_shards(2), 2, "clamped to the cells");
        assert_eq!(opts(3, 5).effective_shards(7), 5, "explicit count wins");
        assert_eq!(opts(3, 64).effective_shards(7), 7);
        assert_eq!(opts(1, 0).effective_shards(7), 1);
        assert_eq!(
            opts(0, 0).effective_shards(1000),
            num_threads().min(1000),
            "0 threads is the machine's thread count"
        );
    }

    #[test]
    fn from_graph_rejects_config_count_mismatch_with_typed_error() {
        let graph = CellGraph::corridor(5).unwrap();
        match ClusterModel::from_graph(graph, vec![tiny(0.4); 4]) {
            Err(ModelError::Topology { reason }) => {
                assert!(reason.contains("5 cells"), "{reason}");
            }
            other => panic!("expected Topology error, got {other:?}"),
        }
    }

    #[test]
    fn uniform_cluster_balances_every_cell() {
        let cluster = homogeneous(tiny(0.5));
        let solved = cluster.solve(&ClusterSolveOptions::default()).unwrap();
        assert!(solved.iterations() >= 1);
        assert!(solved.flow_imbalance() < 1e-8);
        for cell in solved.cells() {
            // Homogeneity: inflow equals own outflow, per class.
            assert!(
                (cell.gsm_handover_in - cell.gsm_handover_out).abs()
                    < 1e-8 * cell.gsm_handover_out.max(1e-12),
                "GSM inflow {} vs outflow {}",
                cell.gsm_handover_in,
                cell.gsm_handover_out
            );
            assert!(
                (cell.gprs_handover_in - cell.gprs_handover_out).abs()
                    < 1e-8 * cell.gprs_handover_out.max(1e-12)
            );
        }
    }

    #[test]
    fn hot_spot_mid_cell_exports_load_to_the_ring() {
        let cluster = hot_spot(tiny(0.3), 0.9);
        let solved = cluster.solve(&ClusterSolveOptions::default()).unwrap();
        let mid = solved.mid();
        // The hot cell emits more than its light neighbours send back.
        assert!(mid.gsm_handover_out > mid.gsm_handover_in);
        // Ring cells are net importers, and by symmetry identical.
        let ring = &solved.cells()[1..];
        for cell in ring {
            assert!(cell.gsm_handover_in > cell.gsm_handover_out);
            assert!(
                (cell.gsm_handover_in - ring[0].gsm_handover_in).abs() < 1e-9,
                "ring cells must stay symmetric"
            );
        }
        // The closed cluster still conserves flow overall.
        assert!(solved.flow_imbalance() < 1e-7);
        // And the hot cell carries visibly more voice than the ring.
        assert!(mid.measures.carried_voice_traffic > ring[0].measures.carried_voice_traffic);
    }

    #[test]
    fn ring_load_raises_mid_cell_inflow() {
        // Heavier ring cells push more handover traffic into the mid
        // cell, even at a fixed mid-cell arrival rate.
        let mut light_cfgs = vec![tiny(0.2); NUM_CELLS];
        light_cfgs[MID_CELL] = tiny(0.4);
        let mut heavy_cfgs = vec![tiny(0.8); NUM_CELLS];
        heavy_cfgs[MID_CELL] = tiny(0.4);
        let light = ClusterModel::from_graph(CellGraph::ring7(), light_cfgs)
            .unwrap()
            .solve(&ClusterSolveOptions::default())
            .unwrap();
        let heavy = ClusterModel::from_graph(CellGraph::ring7(), heavy_cfgs)
            .unwrap()
            .solve(&ClusterSolveOptions::default())
            .unwrap();
        assert!(heavy.mid().gsm_handover_in > light.mid().gsm_handover_in);
        assert!(heavy.mid().gprs_handover_in > light.mid().gprs_handover_in);
    }

    #[test]
    fn sweep_points_come_back_in_scale_order() {
        let scenario = Scenario::hot_spot(tiny(0.3), 0.6).unwrap();
        let scales = [0.5, 1.0, 1.5];
        let opts = ClusterSolveOptions::quick();
        let seq = sweep_load_scales(&scenario, &scales, &opts).unwrap();
        assert_eq!(seq.len(), 3);
        for (p, &s) in seq.iter().zip(&scales) {
            assert_eq!(p.scale, s);
            assert!((p.mid_rate - 0.6 * s).abs() < 1e-12);
        }
        // Load monotonicity along the sweep.
        assert!(
            seq[2].solved.mid().measures.carried_voice_traffic
                > seq[0].solved.mid().measures.carried_voice_traffic
        );
    }

    #[test]
    fn sweep_points_are_the_scaled_scenario_solves() {
        // The sweep and every other lowering of a scenario scale load
        // through one path: each point is bit-identical to solving
        // `with_load_scale(s)` of the same scenario on one thread.
        let scenario = Scenario::hot_spot(tiny(0.3), 0.6).unwrap();
        let scales = [0.5, 1.0, 1.5];
        let opts = ClusterSolveOptions::quick();
        let points = sweep_load_scales(&scenario, &scales, &opts).unwrap();
        for (p, &s) in points.iter().zip(&scales) {
            let cluster = scenario
                .clone()
                .with_load_scale(s)
                .unwrap()
                .to_cluster()
                .unwrap();
            let direct = cluster.solve(&opts.clone().with_threads(1)).unwrap();
            assert_eq!(p.scale, s);
            assert_eq!(
                p.mid_rate.to_bits(),
                cluster.configs()[MID_CELL].call_arrival_rate.to_bits()
            );
            assert_eq!(p.solved.iterations(), direct.iterations(), "scale {s}");
            for (a, b) in p.solved.cells().iter().zip(direct.cells()) {
                assert_eq!(a.measures, b.measures, "scale {s}");
                assert_eq!(a.sweeps, b.sweeps, "scale {s}");
                assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "scale {s}");
            }
        }
    }

    #[test]
    fn convergence_exactly_at_the_cap_still_succeeds() {
        // Uniform load converges after the first balance update (the
        // scalar init is already the fixed point), so a cap of 1 leaves
        // no loop slot for the reporting pass — which must run anyway.
        let cluster = homogeneous(tiny(0.5));
        let opts = ClusterSolveOptions {
            max_iterations: 1,
            ..ClusterSolveOptions::default()
        };
        let solved = cluster.solve(&opts).unwrap();
        assert_eq!(solved.iterations(), 2); // balance pass + reporting pass
        assert!(solved.handover_delta() <= opts.tolerance);
    }

    #[test]
    fn cluster_reports_healthy_primary_solves() {
        let cluster = homogeneous(tiny(0.5));
        let solved = cluster.solve(&ClusterSolveOptions::default()).unwrap();
        assert!(!solved.degraded());
        for cell in solved.cells() {
            assert!(!cell.health.degraded());
            assert_eq!(cell.health.rung, crate::health::SolveRung::Primary);
        }
    }

    #[test]
    fn surrogate_cluster_matches_the_plain_fixed_point() {
        let cluster = homogeneous(tiny(0.5));
        let plain = cluster.solve(&ClusterSolveOptions::default()).unwrap();
        let surr = cluster
            .solve(&ClusterSolveOptions::default().with_surrogate(true))
            .unwrap();
        // Off by default: the plain path never reports surrogate hits.
        assert_eq!(plain.surrogate_solves(), 0);
        // Near the fixed point the arrival vector barely moves, so the
        // extrapolated iterate passes its residual check: the surrogate
        // fires and is not a degradation.
        assert!(surr.surrogate_solves() > 0);
        assert!(!surr.degraded());
        // Both runs answer the same fixed point at solver accuracy.
        for (p, s) in plain.cells().iter().zip(surr.cells()) {
            assert!(
                (p.measures.carried_data_traffic - s.measures.carried_data_traffic).abs() < 1e-6
            );
            assert!((p.gsm_handover_in - s.gsm_handover_in).abs() < 1e-6);
        }
        // Served points skip solver sweeps, so the surrogate run does
        // strictly less iterative work.
        let plain_sweeps: usize = plain.cells().iter().map(|c| c.sweeps).sum();
        let surr_sweeps: usize = surr.cells().iter().map(|c| c.sweeps).sum();
        assert!(
            surr_sweeps < plain_sweeps,
            "{surr_sweeps} vs {plain_sweeps}"
        );
    }

    #[test]
    fn iteration_cap_reports_balance_not_converged() {
        let cluster = hot_spot(tiny(0.3), 0.9);
        for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
            let opts = ClusterSolveOptions {
                max_iterations: 1,
                tolerance: 1e-15,
                ..ClusterSolveOptions::default().with_ordering(ordering)
            };
            match cluster.solve(&opts) {
                Err(ModelError::Queueing(QueueingError::BalanceNotConverged { .. })) => {}
                other => panic!("{ordering:?}: expected BalanceNotConverged, got {other:?}"),
            }
        }
    }

    #[test]
    fn gauss_seidel_reaches_the_jacobi_fixed_point() {
        // Same fixed point, different sweep ordering — on the ring and
        // on a corridor (where Jacobi's information crawls).
        let ring = hot_spot(tiny(0.3), 0.9);
        let corridor_cfgs: Vec<CellConfig> = (0..6).map(|i| tiny(0.2 + 0.1 * i as f64)).collect();
        let corridor =
            ClusterModel::from_graph(CellGraph::corridor(6).unwrap(), corridor_cfgs).unwrap();
        for cluster in [ring, corridor] {
            let jac = cluster
                .solve(&ClusterSolveOptions::default().with_ordering(SweepOrdering::Jacobi))
                .unwrap();
            let gs = cluster
                .solve(&ClusterSolveOptions::default().with_ordering(SweepOrdering::GaussSeidel))
                .unwrap();
            for (a, b) in jac.cells().iter().zip(gs.cells()) {
                assert!(
                    (a.gsm_handover_in - b.gsm_handover_in).abs()
                        < 1e-7 * a.gsm_handover_in.max(1e-9),
                    "gsm {} vs {}",
                    a.gsm_handover_in,
                    b.gsm_handover_in
                );
                assert!(
                    (a.measures.carried_voice_traffic - b.measures.carried_voice_traffic).abs()
                        < 1e-7
                );
            }
            assert!(gs.flow_imbalance() < 1e-7);
        }
    }

    #[test]
    fn corridor_cluster_solves_and_conserves_flow() {
        let configs: Vec<CellConfig> = (0..8).map(|i| tiny(0.2 + 0.05 * i as f64)).collect();
        let cluster = ClusterModel::from_graph(CellGraph::corridor(8).unwrap(), configs).unwrap();
        let solved = cluster.solve(&ClusterSolveOptions::quick()).unwrap();
        assert_eq!(solved.cells().len(), 8);
        assert!(
            solved.flow_imbalance() < 1e-6,
            "{}",
            solved.flow_imbalance()
        );
        // One shape across all eight cells → one symbolic setup.
        assert_eq!(solved.symbolic_setups(), 1);
        // The degree-1 end cell receives only half of its neighbour's
        // outflow share, so it is a net exporter.
        let end = &solved.cells()[0];
        assert!(end.gsm_handover_in < end.gsm_handover_out);
    }

    #[test]
    fn symbolic_setups_counts_every_shape_the_registry_has_seen() {
        let opts = ClusterSolveOptions::quick();
        let shallow = homogeneous(tiny(0.5));
        let mut deep_cell = tiny(0.5);
        deep_cell.buffer_capacity = 7;
        let deep = homogeneous(deep_cell);
        // Alone, each cluster has one shape.
        assert_eq!(deep.solve(&opts).unwrap().symbolic_setups(), 1);
        // Against one registry, the second solve also counts the
        // first's shape.
        let registry = TemplateRegistry::new();
        let first = shallow.solve_with_registry(&opts, &registry).unwrap();
        assert_eq!(first.symbolic_setups(), 1);
        let second = deep.solve_with_registry(&opts, &registry).unwrap();
        assert_eq!(second.symbolic_setups(), 2);
    }

    #[test]
    fn uniform_hex_torus_balances_like_the_ring() {
        let cluster =
            ClusterModel::from_graph(CellGraph::hex_torus(3, 3).unwrap(), vec![tiny(0.5); 9])
                .unwrap();
        let solved = cluster.solve(&ClusterSolveOptions::default()).unwrap();
        for cell in solved.cells() {
            assert!(
                (cell.gsm_handover_in - cell.gsm_handover_out).abs()
                    < 1e-8 * cell.gsm_handover_out.max(1e-12)
            );
        }
        assert!(solved.flow_imbalance() < 1e-8);
    }
}

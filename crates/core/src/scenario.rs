//! One scenario description for the whole pipeline: analytical model,
//! cluster fixed point, and network simulator.
//!
//! Before this layer existed every validation scenario was hand-wired
//! *twice* — once as a `SimConfig` for the simulator and once as a
//! [`GprsModel`]/[`ClusterModel`] configuration — and the two copies
//! had to be kept in sync by hand. A [`Scenario`] is the single source
//! of truth: the 7-cell topology with per-cell traffic, the radio/TCP
//! knobs, and a load scale, lowered on demand
//!
//! * to the heterogeneous cluster fixed point via
//!   [`Scenario::to_cluster`],
//! * to the paper's homogeneous single-cell model via
//!   [`Scenario::to_model`] (uniform scenarios only — the single-cell
//!   model *is* the homogeneity assumption),
//! * and to the simulator via `gprs_sim::SimConfig::for_scenario`,
//!   which consumes the same effective per-cell configurations and TCP
//!   switch verbatim — one `CellConfig` per simulated cell, no
//!   uniformity restriction (the simulator crate depends on this one,
//!   so that lowering lives there).
//!
//! # How to add a scenario
//!
//! A new scenario is one constructor (or one call chain) — no new
//! plumbing on either side of the model/simulator divide. *Any* cell
//! parameter may vary per cell; the same value drives the analytical
//! fixed point and the network simulator:
//!
//! ```
//! use gprs_core::scenario::Scenario;
//! use gprs_core::CellConfig;
//! use gprs_traffic::TrafficModel;
//!
//! let base = CellConfig::builder()
//!     .traffic_model(TrafficModel::Model3)
//!     .buffer_capacity(8)
//!     .max_gprs_sessions(2)
//!     .call_arrival_rate(0.3)
//!     .build()?;
//!
//! // Hot spot: mid cell at twice the ring load.
//! let hot = Scenario::hot_spot(base.clone(), 0.6)?;
//!
//! // Asymmetric ring: a load gradient across the six ring cells.
//! let ring = Scenario::asymmetric_ring(
//!     base.clone(),
//!     [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
//! )?;
//!
//! // No-TCP variant of any scenario: one combinator flips the model's
//! // flow-control threshold *and* the simulator's TCP sources.
//! let no_tcp = hot.clone().without_tcp();
//!
//! // Mixed per-cell parameters via from_cells: an upgraded CS-3 mid
//! // cell with a deeper buffer inside a CS-2 ring. This lowers to the
//! // cluster model *and* to the simulator
//! // (`gprs_sim::SimConfig::for_scenario`), which runs each cell at
//! // its own coding scheme and buffer size — see
//! // tests/model_vs_simulator.rs for the cross-validation of exactly
//! // such scenarios.
//! let mut cells = vec![base; 7];
//! cells[0].coding_scheme = gprs_core::CodingScheme::Cs3;
//! cells[0].buffer_capacity = 16;
//! let mixed = Scenario::from_cells("mixed-coding", cells)?;
//!
//! // Every scenario lowers to the cluster model the same way:
//! assert_eq!(hot.cell_rates()[0], 0.6);
//! assert_eq!(ring.cell_rates()[3], 0.3);
//! let _cluster = no_tcp.to_cluster()?;
//! assert!(!mixed.is_uniform());
//! let _mixed_cluster = mixed.to_cluster()?;
//! # Ok::<(), gprs_core::ModelError>(())
//! ```
//!
//! Sweeping the load axis keeps the heterogeneity pattern fixed and
//! multiplies every cell's arrival rate: [`Scenario::with_load_scale`]
//! is the cluster analogue of the paper's arrival-rate x-axis and the
//! only load-scaling path. [`crate::cluster::sweep_load_scales`]
//! solves `with_load_scale(s)` lowered through
//! [`Scenario::to_cluster`] at each scale `s`.

use crate::cluster::{ClusterModel, MID_CELL, NUM_CELLS};
use crate::config::CellConfig;
use crate::error::ModelError;
use crate::generator::GprsModel;
use crate::graph::CellGraph;

/// A complete workload description on a [`CellGraph`] topology (the
/// classic constructors use the paper's 7-cell wraparound ring):
/// per-cell traffic and radio knobs, the TCP switch, and a load scale.
///
/// Construct via [`Scenario::homogeneous`], [`Scenario::hot_spot`],
/// [`Scenario::asymmetric_ring`], [`Scenario::from_cells`] or — for
/// arbitrary topologies — [`Scenario::from_graph`]; refine with
/// [`Scenario::with_load_scale`] / [`Scenario::without_tcp`];
/// lower with [`Scenario::to_model`] / [`Scenario::to_cluster`] /
/// `gprs_sim::SimConfig::for_scenario`.
///
/// # Walkthrough: a scenario on an arbitrary graph
///
/// [`Scenario::from_graph`] takes the topology and one configuration
/// per graph cell; everything downstream — cluster fixed point, load
/// sweeps, the simulator lowering — follows the graph automatically:
///
/// ```
/// use gprs_core::graph::CellGraph;
/// use gprs_core::cluster::ClusterSolveOptions;
/// use gprs_core::{CellConfig, Scenario};
/// use gprs_traffic::TrafficModel;
///
/// let base = CellConfig::builder()
///     .total_channels(4)
///     .reserved_pdchs(1)
///     .buffer_capacity(5)
///     .traffic_model(TrafficModel::Model3)
///     .max_gprs_sessions(2)
///     .call_arrival_rate(0.3)
///     .build()?;
///
/// // 1. Pick a topology: a 5-cell highway corridor whose load rises
/// //    toward the far end.
/// let graph = CellGraph::corridor(5)?;
/// let cells: Vec<CellConfig> = (0..5)
///     .map(|i| {
///         let mut c = base.clone();
///         c.call_arrival_rate = 0.2 + 0.1 * i as f64;
///         c
///     })
///     .collect();
///
/// // 2. One constructor; combinators compose as on the ring.
/// let scenario = Scenario::from_graph("corridor-ramp", graph, cells)?
///     .with_load_scale(1.5)?;
/// assert_eq!(scenario.num_cells(), 5);
///
/// // 3. Lower and solve: the fixed point runs graph-ordered sweeps
/// //    and conserves handover flow across the corridor.
/// let solved = scenario.to_cluster()?.solve(&ClusterSolveOptions::quick())?;
/// assert!(solved.flow_imbalance() < 1e-6);
/// # Ok::<(), gprs_core::ModelError>(())
/// ```
///
/// The ring constructors are the degenerate case
/// `from_graph(name, CellGraph::ring7(), cells)` and stay bit-identical
/// to the historical fixed 7-cell pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    /// The cell topology ([`CellGraph::ring7`] for the classic
    /// constructors).
    graph: CellGraph,
    /// Base (unscaled) per-cell configurations, [`MID_CELL`] first.
    cells: Vec<CellConfig>,
    load_scale: f64,
    tcp_enabled: bool,
}

impl Scenario {
    /// A homogeneous cluster: all seven cells run `base` — the paper's
    /// validation setup. Lowers to the single-cell model *and* to a
    /// simulator config without per-cell overrides.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if `base` is invalid.
    pub fn homogeneous(base: CellConfig) -> Result<Self, ModelError> {
        Self::from_cells("homogeneous", vec![base; NUM_CELLS])
    }

    /// A hot-spot cluster: the six ring cells run `ring` unchanged, the
    /// mid cell runs at `mid_arrival_rate` calls/s.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if any resulting cell is invalid.
    pub fn hot_spot(ring: CellConfig, mid_arrival_rate: f64) -> Result<Self, ModelError> {
        let mut cells = vec![ring; NUM_CELLS];
        cells[MID_CELL].call_arrival_rate = mid_arrival_rate;
        Self::from_cells("hot-spot", cells)
    }

    /// An asymmetric ring: the mid cell keeps `base`'s arrival rate,
    /// the six ring cells run at `ring_rates` calls/s (cells 1–6 in
    /// order) — a load gradient no scalar balance can represent.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if any resulting cell is invalid.
    pub fn asymmetric_ring(base: CellConfig, ring_rates: [f64; 6]) -> Result<Self, ModelError> {
        let mut cells = vec![base; NUM_CELLS];
        for (cell, rate) in cells[1..].iter_mut().zip(ring_rates) {
            cell.call_arrival_rate = rate;
        }
        Self::from_cells("asymmetric-ring", cells)
    }

    /// The general ring constructor: exactly [`NUM_CELLS`] per-cell
    /// configurations on [`CellGraph::ring7`] (index [`MID_CELL`] is
    /// the mid/statistics cell), free to differ in *any* parameter —
    /// arrival rates, coding schemes, buffer sizes, channel splits.
    /// Both lowerings accept the full generality: the analytical
    /// cluster solves one CTMC per cell, and the simulator
    /// (`gprs_sim::SimConfig::for_scenario`) runs one `CellConfig` per
    /// cell.
    ///
    /// # Errors
    ///
    /// As [`Scenario::from_graph`]: [`ModelError::Topology`] if the
    /// count is not [`NUM_CELLS`], [`ModelError::Config`] if a cell is
    /// invalid.
    pub fn from_cells(name: impl Into<String>, cells: Vec<CellConfig>) -> Result<Self, ModelError> {
        Self::from_graph(name, CellGraph::ring7(), cells)
    }

    /// The graph-typed general constructor: an arbitrary connected
    /// [`CellGraph`] topology with one configuration per graph cell
    /// (index [`MID_CELL`] is the mid/statistics cell). See the
    /// [walkthrough](Scenario#walkthrough-a-scenario-on-an-arbitrary-graph)
    /// on the type. `from_graph(name, CellGraph::ring7(), cells)` is
    /// bit-identical to [`Scenario::from_cells`].
    ///
    /// # Errors
    ///
    /// [`ModelError::Topology`] if the configuration count does not
    /// match the graph size, [`ModelError::Config`] if a cell is
    /// invalid.
    pub fn from_graph(
        name: impl Into<String>,
        graph: CellGraph,
        cells: Vec<CellConfig>,
    ) -> Result<Self, ModelError> {
        if cells.len() != graph.num_cells() {
            return Err(ModelError::Topology {
                reason: format!(
                    "scenario topology has {} cells but {} configurations were given",
                    graph.num_cells(),
                    cells.len()
                ),
            });
        }
        for (i, cell) in cells.iter().enumerate() {
            cell.validate().map_err(|e| ModelError::Config {
                reason: format!("scenario cell {i}: {e}"),
            })?;
        }
        Ok(Scenario {
            name: name.into(),
            graph,
            cells,
            load_scale: 1.0,
            tcp_enabled: true,
        })
    }

    /// Multiplies every cell's arrival rate by `scale` (heterogeneity
    /// pattern preserved) — the load axis of the paper's figures.
    /// Scales compose: `s.with_load_scale(2.0)?.with_load_scale(3.0)?`
    /// runs at 6× the base load.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if `scale` is not positive and finite.
    pub fn with_load_scale(mut self, scale: f64) -> Result<Self, ModelError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(ModelError::Config {
                reason: format!("load scale must be positive and finite, got {scale}"),
            });
        }
        self.load_scale *= scale;
        Ok(self)
    }

    /// Disables TCP flow control: the analytical model gets `η = 1`
    /// (throttling never engages), the simulator gets pure IPP sources
    /// (`without_tcp`). One switch, both sides consistent.
    pub fn without_tcp(mut self) -> Self {
        self.tcp_enabled = false;
        self
    }

    /// Renames the scenario (constructors pick a generic name).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The scenario's name (for logs and figure captions).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell topology.
    pub fn graph(&self) -> &CellGraph {
        &self.graph
    }

    /// The number of cells in the topology.
    pub fn num_cells(&self) -> usize {
        self.graph.num_cells()
    }

    /// The *base* per-cell configurations, before load scaling and the
    /// TCP switch are applied; see [`Scenario::effective_cells`].
    pub fn base_cells(&self) -> &[CellConfig] {
        &self.cells
    }

    /// The accumulated load scale.
    pub fn load_scale(&self) -> f64 {
        self.load_scale
    }

    /// Whether TCP flow control is active.
    pub fn tcp_enabled(&self) -> bool {
        self.tcp_enabled
    }

    /// Whether all (base) cells are identical — together with a
    /// flow-balanced topology, the condition for lowering to the
    /// paper's single-cell model.
    pub fn is_uniform(&self) -> bool {
        self.cells[1..].iter().all(|c| *c == self.cells[MID_CELL])
    }

    /// The effective per-cell arrival rates (load scale applied),
    /// [`MID_CELL`] first.
    pub fn cell_rates(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|c| c.call_arrival_rate * self.load_scale)
            .collect()
    }

    /// The effective per-cell configurations: load scale applied to the
    /// arrival rates and, with TCP disabled, `η = 1` (the model's
    /// "no flow control" encoding). Revalidated, since scaling can push
    /// a rate out of range.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if a scaled cell fails validation.
    pub fn effective_cells(&self) -> Result<Vec<CellConfig>, ModelError> {
        let cells: Vec<CellConfig> = self
            .cells
            .iter()
            .map(|c| {
                let mut cell = c.clone();
                cell.call_arrival_rate *= self.load_scale;
                if !self.tcp_enabled {
                    cell.tcp_threshold = 1.0;
                }
                cell
            })
            .collect();
        for (i, cell) in cells.iter().enumerate() {
            cell.validate().map_err(|e| ModelError::Config {
                reason: format!("scenario cell {i} at load scale {}: {e}", self.load_scale),
            })?;
        }
        Ok(cells)
    }

    /// The effective mid-cell configuration (statistics cell).
    ///
    /// # Errors
    ///
    /// As [`Scenario::effective_cells`].
    pub fn mid_config(&self) -> Result<CellConfig, ModelError> {
        Ok(self.effective_cells()?.swap_remove(MID_CELL))
    }

    /// A homogeneous scenario in which every cell is a copy of this
    /// scenario's effective cell `cell` — the "what would the paper's
    /// homogeneity assumption predict for this cell" reference.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if `cell >= self.num_cells()` or the
    /// effective cells fail validation.
    pub fn homogeneous_at(&self, cell: usize) -> Result<Self, ModelError> {
        if cell >= self.num_cells() {
            return Err(ModelError::Config {
                reason: format!(
                    "cell {cell} out of range (cluster has {})",
                    self.num_cells()
                ),
            });
        }
        let reference = self.effective_cells()?.swap_remove(cell);
        let mut scenario = Self::homogeneous(reference)?;
        scenario.tcp_enabled = self.tcp_enabled;
        Ok(scenario.named(format!("{}/homogeneous@{cell}", self.name)))
    }

    /// Lowers to the paper's homogeneous single-cell Markov model.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if the scenario is not uniform — the
    /// single-cell model *is* the homogeneity assumption; lower
    /// heterogeneous scenarios with [`Scenario::to_cluster`] (or take
    /// an explicit reference via [`Scenario::homogeneous_at`]).
    /// [`ModelError::Topology`] if the topology is not flow-balanced
    /// ([`CellGraph::is_flow_balanced`]): on an unbalanced graph (e.g.
    /// a corridor's degree-1 ends) identical cells do *not* reproduce
    /// the scalar handover balance, so the single-cell model would not
    /// describe any cell of the cluster.
    pub fn to_model(&self) -> Result<GprsModel, ModelError> {
        if !self.is_uniform() {
            return Err(ModelError::Config {
                reason: format!(
                    "scenario '{}' is heterogeneous; the single-cell model assumes \
                     homogeneity — use to_cluster() or homogeneous_at()",
                    self.name
                ),
            });
        }
        if !self.graph.is_flow_balanced() {
            return Err(ModelError::Topology {
                reason: format!(
                    "scenario '{}' runs on a topology that is not flow-balanced; \
                     the single-cell model assumes every cell sees its own outflow \
                     back — use to_cluster()",
                    self.name
                ),
            });
        }
        GprsModel::new(self.mid_config()?)
    }

    /// Lowers to the heterogeneous cluster fixed-point model on this
    /// scenario's topology.
    ///
    /// # Errors
    ///
    /// As [`Scenario::effective_cells`] /
    /// [`ClusterModel::from_graph`].
    pub fn to_cluster(&self) -> Result<ClusterModel, ModelError> {
        ClusterModel::from_graph(self.graph.clone(), self.effective_cells()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSolveOptions;
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

    #[test]
    fn homogeneous_scenario_is_uniform_and_lowers_to_both_models() {
        let s = Scenario::homogeneous(tiny(0.5)).unwrap();
        assert!(s.is_uniform());
        assert_eq!(s.cell_rates(), vec![0.5; NUM_CELLS]);
        let _model = s.to_model().unwrap();
        let cluster = s.to_cluster().unwrap();
        assert_eq!(cluster.configs().len(), NUM_CELLS);
    }

    #[test]
    fn hot_spot_scenario_overrides_only_the_mid_cell() {
        let s = Scenario::hot_spot(tiny(0.3), 0.9).unwrap();
        assert!(!s.is_uniform());
        let rates = s.cell_rates();
        assert!((rates[MID_CELL] - 0.9).abs() < 1e-12);
        for r in &rates[1..] {
            assert!((r - 0.3).abs() < 1e-12);
        }
        // Heterogeneous scenarios refuse the single-cell lowering...
        assert!(s.to_model().is_err());
        // ...but the homogeneous reference at the hot cell is explicit.
        let reference = s.homogeneous_at(MID_CELL).unwrap();
        assert!(reference.is_uniform());
        assert!((reference.cell_rates()[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_ring_sets_the_gradient() {
        let rates = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        let s = Scenario::asymmetric_ring(tiny(0.3), rates).unwrap();
        let got = s.cell_rates();
        assert!((got[0] - 0.3).abs() < 1e-12);
        for (g, w) in got[1..].iter().zip(rates) {
            assert!((g - w).abs() < 1e-12);
        }
        // One-constructor scenario, straight to the cluster model.
        let solved = s
            .to_cluster()
            .unwrap()
            .solve(&ClusterSolveOptions::quick())
            .unwrap();
        // The lightest ring cell imports handover flow from its heavier
        // neighbours.
        let light = &solved.cells()[1];
        assert!(light.gsm_handover_in > light.gsm_handover_out);
    }

    #[test]
    fn load_scale_composes_and_preserves_the_pattern() {
        let s = Scenario::hot_spot(tiny(0.3), 0.6)
            .unwrap()
            .with_load_scale(2.0)
            .unwrap()
            .with_load_scale(0.5)
            .unwrap();
        assert!((s.load_scale() - 1.0).abs() < 1e-12);
        let scaled = s.with_load_scale(3.0).unwrap();
        let rates = scaled.cell_rates();
        assert!((rates[MID_CELL] - 1.8).abs() < 1e-12);
        assert!((rates[1] - 0.9).abs() < 1e-12);
        // Effective cells carry the scaled rates.
        let cells = scaled.effective_cells().unwrap();
        assert!((cells[MID_CELL].call_arrival_rate - 1.8).abs() < 1e-12);
        assert!(Scenario::homogeneous(tiny(0.3))
            .unwrap()
            .with_load_scale(-1.0)
            .is_err());
    }

    #[test]
    fn without_tcp_sets_eta_to_one_in_the_model_lowering() {
        let s = Scenario::homogeneous(tiny(0.5)).unwrap().without_tcp();
        assert!(!s.tcp_enabled());
        let cells = s.effective_cells().unwrap();
        for c in &cells {
            assert!((c.tcp_threshold - 1.0).abs() < 1e-12);
        }
        // The homogeneous reference inherits the switch.
        let reference = s.homogeneous_at(0).unwrap();
        assert!(!reference.tcp_enabled());
    }

    #[test]
    fn uniform_scenario_cluster_matches_its_single_cell_model() {
        // The scenario layer must not perturb the oracle identity:
        // uniform cluster fixed point == single-cell model.
        let s = Scenario::homogeneous(tiny(0.5)).unwrap();
        let single = s.to_model().unwrap().solve_default().unwrap();
        let solved = s
            .to_cluster()
            .unwrap()
            .solve(&ClusterSolveOptions::default())
            .unwrap();
        let rel = (solved.mid().measures.carried_data_traffic
            - single.measures().carried_data_traffic)
            .abs()
            / single.measures().carried_data_traffic;
        assert!(rel < 1e-6, "rel {rel:.2e}");
    }

    #[test]
    fn wrong_cell_count_and_bad_cells_are_rejected() {
        assert!(Scenario::from_cells("bad", vec![tiny(0.3); 6]).is_err());
        let mut cells = vec![tiny(0.3); NUM_CELLS];
        cells[3].call_arrival_rate = -1.0;
        assert!(Scenario::from_cells("bad", cells).is_err());
        assert!(Scenario::hot_spot(tiny(0.3), 0.9)
            .unwrap()
            .homogeneous_at(7)
            .is_err());
    }

    #[test]
    fn cluster_needs_exactly_seven_cells() {
        match Scenario::from_cells("short", vec![tiny(0.4); 6]) {
            Err(ModelError::Topology { reason }) => {
                assert!(reason.contains("7 cells"), "{reason}");
                assert!(reason.contains('6'), "{reason}");
            }
            other => panic!("expected Topology error, got {other:?}"),
        }
        assert!(Scenario::from_cells("ring", vec![tiny(0.4); 7]).is_ok());
    }

    #[test]
    fn mixed_coding_schemes_are_one_constructor_away() {
        use crate::coding::CodingScheme;
        let mut cells = vec![tiny(0.3); NUM_CELLS];
        cells[MID_CELL].coding_scheme = CodingScheme::Cs3;
        let s = Scenario::from_cells("mixed-coding", cells).unwrap();
        assert!(!s.is_uniform());
        let cluster = s.to_cluster().unwrap();
        assert_eq!(cluster.configs()[MID_CELL].coding_scheme, CodingScheme::Cs3);
        assert_eq!(cluster.configs()[1].coding_scheme, CodingScheme::Cs2);
    }
}

//! Simulator configuration.

use crate::cluster::{MID_CELL, NUM_CELLS};
use crate::supervision::SupervisionConfig;
use gprs_core::{CellConfig, CellGraph, ModelError, Scenario};

/// How the radio link serves the BSC buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RadioModel {
    /// Aggregate processor sharing: the head packet completes at rate
    /// `min(N − n, 8k)·μ_service` — the same abstraction level as the
    /// Markov model. Fast; use for long calibration runs.
    #[default]
    ProcessorSharing,
    /// Per-20 ms TDMA radio-block scheduling with the multislot caps
    /// (≤ 8 slots per packet, one packet per slot per block). Packets
    /// are segmented into blocks; this is the paper's "more detailed"
    /// wireless-link model.
    TdmaBlocks,
}

/// TCP behaviour of the simulated sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Whether TCP windowing is simulated at all. With `false`, sources
    /// inject packets straight into the BSC (pure IPP traffic — what the
    /// Markov model with `η = 1` describes).
    pub enabled: bool,
    /// Initial slow-start threshold, packets.
    pub initial_ssthresh: f64,
    /// Receiver window (max in-flight packets).
    pub receiver_window: u32,
    /// Minimum retransmission timeout, seconds.
    pub min_rto: f64,
    /// Maximum retransmission timeout, seconds.
    pub max_rto: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            enabled: true,
            initial_ssthresh: 16.0,
            receiver_window: 32,
            min_rto: 0.5,
            max_rto: 60.0,
        }
    }
}

/// Full simulator configuration: one [`CellConfig`] **per cluster
/// cell** (the same type the Markov model uses, so experiments are
/// guaranteed to compare like with like) plus simulation-only knobs.
///
/// Cells are free to differ in *any* parameter — coding schemes,
/// buffer sizes, channel splits, traffic models, arrival rates — which
/// is exactly the generality of the analytical
/// [`ClusterModel`](gprs_core::cluster::ClusterModel), so every
/// scenario the fixed point accepts can now be cross-validated by the
/// simulator. A uniform vector (the [`SimConfig::builder`] special
/// case) reproduces the legacy shared-parameter simulator bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cell topology: neighbour lists and handover split weights. The
    /// simulator draws every handover target from this graph. Defaults
    /// to [`CellGraph::ring7`], which reproduces the legacy 7-cell
    /// wraparound-ring simulator bit for bit.
    pub graph: CellGraph,
    /// Per-cell parameterizations, one entry per graph cell with the
    /// mid (statistics) cell at index [`MID_CELL`].
    pub cells: Vec<CellConfig>,
    /// Master RNG seed.
    pub seed: u64,
    /// Warm-up period discarded before statistics start, seconds.
    pub warmup: f64,
    /// Number of batches for batch-means confidence intervals.
    pub num_batches: usize,
    /// Duration of each batch, seconds.
    pub batch_duration: f64,
    /// One-way wired (core network + Internet) delay between the TCP
    /// source and the BSC, seconds.
    pub wired_delay: f64,
    /// Radio service fidelity.
    pub radio: RadioModel,
    /// TCP source behaviour.
    pub tcp: TcpConfig,
    /// Online PDCH re-dimensioning (capacity on demand). `None` keeps
    /// the static reservation of the Markov model.
    pub supervision: Option<SupervisionConfig>,
}

impl SimConfig {
    /// Starts a builder for a **uniform** cluster: all seven cells run
    /// `cell`. Sensible defaults (10 batches × 2000 s, 1000 s warm-up,
    /// 50 ms wired delay, processor-sharing radio, TCP enabled).
    pub fn builder(cell: CellConfig) -> SimConfigBuilder {
        Self::builder_cells(vec![cell; NUM_CELLS])
    }

    /// Starts a builder from explicit per-cell configurations (mid cell
    /// first) on the legacy [`CellGraph::ring7`] topology. The vector
    /// is validated at [`SimConfigBuilder::build`] time: exactly
    /// [`NUM_CELLS`] entries, each individually valid.
    pub fn builder_cells(cells: Vec<CellConfig>) -> SimConfigBuilder {
        Self::builder_graph(CellGraph::ring7(), cells)
    }

    /// Starts a builder from an arbitrary topology plus per-cell
    /// configurations (one per graph cell, statistics cell first). The
    /// vector is validated at [`SimConfigBuilder::build`] time: one
    /// entry per graph cell, each individually valid.
    pub fn builder_graph(graph: CellGraph, cells: Vec<CellConfig>) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                graph,
                cells,
                seed: 1,
                warmup: 1_000.0,
                num_batches: 10,
                batch_duration: 2_000.0,
                wired_delay: 0.05,
                radio: RadioModel::ProcessorSharing,
                tcp: TcpConfig::default(),
                supervision: None,
            },
            rate_override: None,
        }
    }

    /// Starts a builder from a [`Scenario`] — the same workload
    /// description the analytical lowerings (`Scenario::to_model`,
    /// `Scenario::to_cluster`) consume, so model and simulator are
    /// guaranteed to run the *same* scenario. The builder arrives
    /// preloaded with the scenario's effective cells (load scale
    /// applied, one [`CellConfig`] per cluster cell — heterogeneous
    /// scenarios lower verbatim, with no uniformity restriction) and
    /// TCP switch; run-length knobs (seed, warm-up, batches) stay with
    /// the caller.
    ///
    /// One field is model-side only: [`CellConfig::tcp_threshold`]
    /// (`η`) is the Markov model's *abstraction* of TCP feedback, which
    /// the simulator replaces with an explicit TCP implementation
    /// ([`TcpConfig`]) — the lowering carries `η` through untouched and
    /// the simulator never reads it, so per-cell `η` differences only
    /// affect the analytical side of a cross-validation.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if the scenario's effective cells fail
    /// validation (e.g. a load scale pushed an arrival rate out of
    /// range).
    pub fn for_scenario(scenario: &Scenario) -> Result<SimConfigBuilder, ModelError> {
        let cells = scenario.effective_cells()?;
        let mut builder = SimConfig::builder_graph(scenario.graph().clone(), cells);
        if !scenario.tcp_enabled() {
            builder = builder.without_tcp();
        }
        Ok(builder)
    }

    /// Total simulated horizon: warm-up plus all batches.
    pub fn horizon(&self) -> f64 {
        self.warmup + self.num_batches as f64 * self.batch_duration
    }

    /// Number of cells in the topology (and hence in
    /// [`SimConfig::cells`]).
    pub fn num_cells(&self) -> usize {
        self.graph.num_cells()
    }

    /// The configuration of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= self.num_cells()`.
    pub fn cell(&self, cell: usize) -> &CellConfig {
        assert!(cell < self.num_cells(), "cell {cell} out of range");
        &self.cells[cell]
    }

    /// Whether all cells are identical — the legacy shared-parameter
    /// special case.
    pub fn is_uniform(&self) -> bool {
        self.cells[1..].iter().all(|c| *c == self.cells[MID_CELL])
    }

    /// The combined call arrival rate of `cell` (calls/s).
    ///
    /// # Panics
    ///
    /// Panics if `cell >= self.num_cells()`.
    pub fn arrival_rate_in(&self, cell: usize) -> f64 {
        self.cell(cell).call_arrival_rate
    }

    /// New-GSM-call arrival rate in `cell`,
    /// `λ_GSM = (1 − f_GPRS)·λ_cell`.
    pub fn gsm_arrival_rate_in(&self, cell: usize) -> f64 {
        self.cell(cell).gsm_arrival_rate()
    }

    /// New-GPRS-session arrival rate in `cell`, `λ_GPRS = f_GPRS·λ_cell`.
    pub fn gprs_arrival_rate_in(&self, cell: usize) -> f64 {
        self.cell(cell).gprs_arrival_rate()
    }

    /// Asserts the structural invariants the simulator relies on: one
    /// cell configuration per graph cell, each individually valid
    /// (which guarantees, among others, `buffer_capacity >= 1` — the
    /// supervision occupancy divisor — and
    /// `reserved_pdchs <= total_channels`).
    ///
    /// [`SimConfigBuilder::build`] runs this;
    /// [`GprsSimulator::new`](crate::simulator::GprsSimulator::new) re-runs it so
    /// hand-constructed configurations fail fast with a clear message
    /// instead of underflowing mid-run.
    ///
    /// # Panics
    ///
    /// Panics with the first violated constraint.
    pub fn assert_valid(&self) {
        assert_eq!(
            self.cells.len(),
            self.num_cells(),
            "need one cell config per cluster cell"
        );
        for (i, cell) in self.cells.iter().enumerate() {
            if let Err(e) = cell.validate() {
                panic!("cell {i}: {e}");
            }
        }
        if let Some(sup) = &self.supervision {
            sup.validate();
        }
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
    /// Pending per-cell arrival-rate override, applied to the cells at
    /// [`SimConfigBuilder::build`] time (last call wins).
    rate_override: Option<Vec<f64>>,
}

impl SimConfigBuilder {
    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the warm-up duration (seconds).
    pub fn warmup(mut self, secs: f64) -> Self {
        self.config.warmup = secs;
        self
    }

    /// Sets batch count and per-batch duration (seconds).
    pub fn batches(mut self, count: usize, duration: f64) -> Self {
        self.config.num_batches = count;
        self.config.batch_duration = duration;
        self
    }

    /// Sets the one-way wired delay (seconds).
    pub fn wired_delay(mut self, secs: f64) -> Self {
        self.config.wired_delay = secs;
        self
    }

    /// Selects the radio service fidelity.
    pub fn radio(mut self, radio: RadioModel) -> Self {
        self.config.radio = radio;
        self
    }

    /// Sets the TCP source behaviour.
    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.config.tcp = tcp;
        self
    }

    /// Disables TCP windowing (pure IPP sources).
    pub fn without_tcp(mut self) -> Self {
        self.config.tcp.enabled = false;
        self
    }

    /// Enables online load supervision (dynamic PDCH re-dimensioning).
    pub fn supervision(mut self, sup: SupervisionConfig) -> Self {
        self.config.supervision = Some(sup);
        self
    }

    /// Sets per-cell combined call arrival rates (one per cluster cell,
    /// mid cell first), overriding each cell's configured rate.
    ///
    /// [`SimConfigBuilder::cell_arrival_rates`] and
    /// [`SimConfigBuilder::hot_spot`] both assign the *entire* per-cell
    /// rate vector: **the last call wins**, replacing whatever an
    /// earlier call of either method set (they do not merge). Cells'
    /// other parameters are untouched.
    pub fn cell_arrival_rates(mut self, rates: Vec<f64>) -> Self {
        self.rate_override = Some(rates);
        self
    }

    /// Hot-spot convenience: the mid cell runs at `mid_rate` calls/s,
    /// the six ring cells keep their configured arrival rates.
    ///
    /// Like [`SimConfigBuilder::cell_arrival_rates`], this assigns the
    /// *entire* per-cell rate vector — **the last call wins**: a
    /// `hot_spot` after `cell_arrival_rates` rebuilds all seven rates
    /// from the configured cells (discarding the earlier vector), and a
    /// `cell_arrival_rates` after `hot_spot` replaces the hot-spot
    /// pattern wholesale.
    pub fn hot_spot(self, mid_rate: f64) -> Self {
        let mut rates: Vec<f64> = self
            .config
            .cells
            .iter()
            .map(|c| c.call_arrival_rate)
            .collect();
        rates[MID_CELL] = mid_rate;
        self.cell_arrival_rates(rates)
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if warm-up/batch parameters are not positive, fewer than
    /// two batches are requested, the cell vector is not exactly
    /// [`NUM_CELLS`] valid configurations, a rate override is
    /// malformed, or a supervision range cannot leave at least one
    /// voice channel in every cell.
    pub fn build(mut self) -> SimConfig {
        if let Some(rates) = self.rate_override.take() {
            assert_eq!(
                rates.len(),
                self.config.num_cells(),
                "need one arrival rate per cluster cell"
            );
            assert!(
                rates.iter().all(|r| r.is_finite() && *r > 0.0),
                "per-cell arrival rates must be finite and positive"
            );
            assert_eq!(
                self.config.cells.len(),
                self.config.num_cells(),
                "need one cell config per cluster cell"
            );
            for (cell, rate) in self.config.cells.iter_mut().zip(rates) {
                cell.call_arrival_rate = rate;
            }
        }
        let c = &self.config;
        assert!(c.warmup >= 0.0, "warmup must be >= 0");
        assert!(c.num_batches >= 2, "need at least two batches for CIs");
        assert!(c.batch_duration > 0.0, "batch duration must be positive");
        assert!(
            c.wired_delay >= 0.0 && c.wired_delay.is_finite(),
            "wired delay must be finite and >= 0"
        );
        c.assert_valid();
        if let Some(sup) = &c.supervision {
            for (i, cell) in c.cells.iter().enumerate() {
                assert!(
                    sup.max_reserved < cell.total_channels,
                    "supervision must leave at least one voice channel: max_reserved {} \
                     vs cell {i} total_channels {}",
                    sup.max_reserved,
                    cell.total_channels
                );
            }
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_core::CodingScheme;
    use gprs_traffic::TrafficModel;

    fn cell() -> CellConfig {
        CellConfig::builder()
            .traffic_model(TrafficModel::Model3)
            .call_arrival_rate(0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_and_horizon() {
        let cfg = SimConfig::builder(cell()).build();
        assert_eq!(cfg.num_batches, 10);
        assert!((cfg.horizon() - (1_000.0 + 10.0 * 2_000.0)).abs() < 1e-9);
        assert!(cfg.tcp.enabled);
        assert_eq!(cfg.radio, RadioModel::ProcessorSharing);
        assert_eq!(cfg.cells.len(), NUM_CELLS);
        assert!(cfg.is_uniform());
    }

    #[test]
    fn builder_setters() {
        let cfg = SimConfig::builder(cell())
            .seed(99)
            .warmup(10.0)
            .batches(4, 100.0)
            .wired_delay(0.02)
            .radio(RadioModel::TdmaBlocks)
            .without_tcp()
            .build();
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.num_batches, 4);
        assert!(!cfg.tcp.enabled);
        assert_eq!(cfg.radio, RadioModel::TdmaBlocks);
    }

    #[test]
    #[should_panic(expected = "at least two batches")]
    fn one_batch_rejected() {
        let _ = SimConfig::builder(cell()).batches(1, 100.0).build();
    }

    #[test]
    fn homogeneous_default_uses_the_shared_rate() {
        let cfg = SimConfig::builder(cell()).build();
        assert!(cfg.is_uniform());
        for c in 0..NUM_CELLS {
            assert!((cfg.arrival_rate_in(c) - 0.5).abs() < 1e-12);
        }
        assert!((cfg.gsm_arrival_rate_in(0) - 0.95 * 0.5).abs() < 1e-12);
        assert!((cfg.gprs_arrival_rate_in(0) - 0.05 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn hot_spot_overrides_only_the_mid_cell() {
        let cfg = SimConfig::builder(cell()).hot_spot(1.2).build();
        assert!((cfg.arrival_rate_in(MID_CELL) - 1.2).abs() < 1e-12);
        for c in 1..NUM_CELLS {
            assert!((cfg.arrival_rate_in(c) - 0.5).abs() < 1e-12, "cell {c}");
        }
    }

    #[test]
    fn per_cell_rate_setters_are_last_call_wins() {
        // hot_spot after cell_arrival_rates: the earlier vector is
        // discarded wholesale, every ring cell reverts to the base rate.
        let cfg = SimConfig::builder(cell())
            .cell_arrival_rates(vec![9.0; NUM_CELLS])
            .hot_spot(1.2)
            .build();
        assert!((cfg.arrival_rate_in(MID_CELL) - 1.2).abs() < 1e-12);
        for c in 1..NUM_CELLS {
            assert!((cfg.arrival_rate_in(c) - 0.5).abs() < 1e-12, "cell {c}");
        }

        // cell_arrival_rates after hot_spot: the hot-spot pattern is
        // replaced, not merged.
        let cfg = SimConfig::builder(cell())
            .hot_spot(1.2)
            .cell_arrival_rates(vec![0.7; NUM_CELLS])
            .build();
        for c in 0..NUM_CELLS {
            assert!((cfg.arrival_rate_in(c) - 0.7).abs() < 1e-12, "cell {c}");
        }
    }

    #[test]
    fn builder_cells_accepts_full_heterogeneity() {
        let mut cells = vec![cell(); NUM_CELLS];
        cells[0].coding_scheme = CodingScheme::Cs4;
        cells[2].buffer_capacity = 40;
        cells[3].total_channels = 16;
        cells[4].max_gprs_sessions = 5;
        cells[5].call_arrival_rate = 0.9;
        let cfg = SimConfig::builder_cells(cells.clone()).build();
        assert!(!cfg.is_uniform());
        assert_eq!(cfg.cells, cells);
        assert_eq!(cfg.cell(0).coding_scheme, CodingScheme::Cs4);
        assert_eq!(cfg.cell(2).buffer_capacity, 40);
        assert!((cfg.arrival_rate_in(5) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn scenario_lowering_matches_hand_wiring() {
        use gprs_core::Scenario;
        // Homogeneous: a uniform cell vector, TCP on — exactly the
        // legacy builder output.
        let s = Scenario::homogeneous(cell()).unwrap();
        let lowered = SimConfig::for_scenario(&s).unwrap().seed(7).build();
        let legacy = SimConfig::builder(cell()).seed(7).build();
        assert_eq!(lowered, legacy);

        // Hot spot: per-cell rates match the hot_spot() convenience.
        let s = Scenario::hot_spot(cell(), 1.2).unwrap();
        let lowered = SimConfig::for_scenario(&s).unwrap().seed(7).build();
        let legacy = SimConfig::builder(cell()).seed(7).hot_spot(1.2).build();
        assert_eq!(
            lowered.cells, legacy.cells,
            "scenario lowering must reproduce the hand-wired rate vector"
        );
        assert!((lowered.arrival_rate_in(MID_CELL) - 1.2).abs() < 1e-12);

        // The TCP switch crosses the layer.
        let s = Scenario::homogeneous(cell()).unwrap().without_tcp();
        let lowered = SimConfig::for_scenario(&s).unwrap().build();
        assert!(!lowered.tcp.enabled);

        // Load scale applies to every cell.
        let s = Scenario::hot_spot(cell(), 1.2)
            .unwrap()
            .with_load_scale(2.0)
            .unwrap();
        let lowered = SimConfig::for_scenario(&s).unwrap().build();
        assert!((lowered.arrival_rate_in(MID_CELL) - 2.4).abs() < 1e-12);
        assert!((lowered.arrival_rate_in(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_scenarios_lower_verbatim() {
        use gprs_core::Scenario;
        // Mixed buffers, coding schemes and channel splits — the
        // scenarios the analytical cluster was always able to represent
        // now survive the simulator lowering unchanged.
        let mut cells = vec![cell(); NUM_CELLS];
        cells[1].buffer_capacity = 60;
        cells[2].coding_scheme = CodingScheme::Cs1;
        cells[3].total_channels = 24;
        let s = Scenario::from_cells("mixed", cells).unwrap();
        let lowered = SimConfig::for_scenario(&s).unwrap().build();
        assert_eq!(lowered.cells, s.effective_cells().unwrap());
        assert!(!lowered.is_uniform());
    }

    #[test]
    #[should_panic(expected = "one arrival rate per cluster cell")]
    fn wrong_rate_count_rejected() {
        let _ = SimConfig::builder(cell())
            .cell_arrival_rates(vec![0.5; 3])
            .build();
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_rate_rejected() {
        let mut rates = vec![0.5; NUM_CELLS];
        rates[3] = 0.0;
        let _ = SimConfig::builder(cell()).cell_arrival_rates(rates).build();
    }

    #[test]
    #[should_panic(expected = "one cell config per cluster cell")]
    fn wrong_cell_count_rejected() {
        let _ = SimConfig::builder_cells(vec![cell(); 3]).build();
    }

    #[test]
    #[should_panic(expected = "cell 4:")]
    fn invalid_cell_is_attributed() {
        let mut cells = vec![cell(); NUM_CELLS];
        cells[4].buffer_capacity = 0;
        let _ = SimConfig::builder_cells(cells).build();
    }

    #[test]
    #[should_panic(expected = "at least one voice channel")]
    fn supervision_must_fit_every_cell() {
        // The range fits the base cells but not the shrunken cell 3 —
        // the per-cell validation must catch it.
        let mut cells = vec![cell(); NUM_CELLS];
        cells[3].total_channels = 4;
        cells[3].reserved_pdchs = 1;
        let sup = SupervisionConfig {
            max_reserved: 6,
            ..SupervisionConfig::default()
        };
        let _ = SimConfig::builder_cells(cells).supervision(sup).build();
    }
}

//! Property-based guarantees of the per-cell configuration layer:
//!
//! * a **uniform** per-cell `SimConfig` is bit-identical to the legacy
//!   single-cell builder path — same seeds, same `SimResults`, for any
//!   cell parameterization and any construction route (uniform builder,
//!   explicit cell vector, scenario lowering);
//! * **heterogeneous** per-cell configurations survive the
//!   `SimConfig::for_scenario` lowering unchanged (round-trip), so the
//!   simulator provably runs exactly the cells the analytical
//!   `ClusterModel` solves.

use gprs_core::cluster::NUM_CELLS;
use gprs_core::{CellConfig, CellGraph, CodingScheme, Scenario};
use gprs_sim::{GprsSimulator, SimConfig};
use gprs_traffic::TrafficModel;
use proptest::prelude::*;

fn coding(ix: u8) -> CodingScheme {
    match ix % 4 {
        0 => CodingScheme::Cs1,
        1 => CodingScheme::Cs2,
        2 => CodingScheme::Cs3,
        _ => CodingScheme::Cs4,
    }
}

/// A small but freely parameterized cell — tiny state spaces keep each
/// simulator run fast enough for property testing.
fn cell_strategy() -> impl Strategy<Value = CellConfig> {
    (
        4usize..=8,    // total channels
        0usize..=2,    // reserved PDCHs
        5usize..=15,   // buffer capacity
        2usize..=4,    // max GPRS sessions
        0u8..4,        // coding scheme
        0.1f64..0.8,   // call arrival rate
        0.05f64..0.25, // GPRS fraction
    )
        .prop_map(|(n, res, k, m, cs, rate, frac)| {
            CellConfig::builder()
                .traffic_model(TrafficModel::Model3)
                .total_channels(n)
                .reserved_pdchs(res)
                .buffer_capacity(k)
                .max_gprs_sessions(m)
                .coding_scheme(coding(cs))
                .call_arrival_rate(rate)
                .gprs_fraction(frac)
                .build()
                .expect("strategy produces valid cells")
        })
}

proptest! {
    // Each case runs the simulator three times; keep the budget small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn uniform_per_cell_configs_are_bit_identical_to_the_legacy_path(
        cell in cell_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let finish = |b: gprs_sim::SimConfigBuilder| {
            b.seed(seed).warmup(50.0).batches(2, 150.0).build()
        };
        let legacy = finish(SimConfig::builder(cell.clone()));
        let explicit = finish(SimConfig::builder_graph(
            CellGraph::ring7(),
            vec![cell.clone(); NUM_CELLS],
        ));
        let scenario = Scenario::homogeneous(cell).expect("valid scenario");
        let lowered = finish(SimConfig::for_scenario(&scenario).expect("lowerable"));
        // The configs themselves coincide...
        prop_assert_eq!(&legacy, &explicit);
        prop_assert_eq!(&legacy, &lowered);
        // ...and so do the full sample paths, bit for bit.
        let a = GprsSimulator::new(legacy).run();
        let b = GprsSimulator::new(explicit).run();
        let c = GprsSimulator::new(lowered).run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn per_cell_configs_survive_the_scenario_lowering_unchanged(
        cells in proptest::collection::vec(cell_strategy(), NUM_CELLS),
        scale in 0.5f64..1.5,
    ) {
        let scenario = Scenario::from_cells("proptest-mixed", cells)
            .expect("valid cells")
            .with_load_scale(scale)
            .expect("valid scale");
        let cfg = SimConfig::for_scenario(&scenario).expect("lowerable").build();
        // Round trip: the simulator runs exactly the scenario's
        // effective cells (load scale applied), nothing shared, nothing
        // dropped.
        prop_assert_eq!(cfg.cells, scenario.effective_cells().expect("valid"));
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn heterogeneous_runs_are_deterministic_per_seed(
        cells in proptest::collection::vec(cell_strategy(), NUM_CELLS),
        seed in 0u64..1_000_000,
    ) {
        // The per-cell routing must not introduce nondeterminism: two
        // runs of the same fully heterogeneous config coincide bit for
        // bit.
        let scenario = Scenario::from_cells("proptest-det", cells).expect("valid cells");
        let mk = || {
            SimConfig::for_scenario(&scenario)
                .expect("lowerable")
                .seed(seed)
                .warmup(20.0)
                .batches(2, 80.0)
                .build()
        };
        prop_assert_eq!(mk(), mk());
        let a = GprsSimulator::new(mk()).run();
        let b = GprsSimulator::new(mk()).run();
        prop_assert_eq!(a, b);
    }
}

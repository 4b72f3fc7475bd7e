//! The closed-form population contract of the cluster fixed point.
//!
//! A cell's phase process `(n, m, r)` is autonomous and product-form
//! (`GprsModel::phase_marginal`): at any handover inflow, the voice and
//! session populations are the Erlang loss systems that
//! `GprsModel::with_handover_arrivals` builds, `N_GSM` servers at
//! offered load `(λ_GSM + λ_h,GSM)/(μ_GSM + μ_h,GSM)` and `M` servers
//! at `(λ_GPRS + λ_h,GPRS)/(μ_GPRS + μ_h,GPRS)`. So at the converged
//! inflows, every cell's `E[n]` and `E[m]` are `MmccQueue::mean_busy`
//! of those queues, and its out-fluxes are `μ_h·E[n]` and `μ_h·E[m]`.
//! This file pins that invariant on the ring7 fixture families, the
//! short-dwell hot spot under both orderings and the metro district
//! city at both buffer depths and two loads.
//!
//! The fixed point iterates on those closed forms, so each cell's CTMC
//! is solved once, at the converged inflows: the second test pins every
//! reported cell to a standalone cold solve of its fresh template.

use gprs_core::cluster::ClusterSolveOptions;
use gprs_core::codec::{graph_from_json_value, parse_json};
use gprs_core::{CellConfig, ClusterModel, GeneratorTemplate, Scenario, SweepOrdering, WarmStart};
use gprs_queueing::mmcc::MmccQueue;
use gprs_traffic::TrafficModel;

/// Relative agreement the closed form must reach: far below the outer
/// and solver tolerances (1e-8), so only rounding separates the two.
const TOLERANCE: f64 = 1e-12;

fn cell(buffer: usize, rate: f64) -> CellConfig {
    CellConfig::builder()
        .total_channels(4)
        .reserved_pdchs(1)
        .buffer_capacity(buffer)
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(2)
        .call_arrival_rate(rate)
        .build()
        .unwrap()
}

/// The four ring7 families of `tests/graph_equivalence.rs`, under the
/// Jacobi sweeps that fixture pins.
fn ring7_cases() -> Vec<(String, ClusterModel, ClusterSolveOptions)> {
    let tiny = |rate| cell(5, rate);
    let mut mixed = vec![tiny(0.4); 7];
    mixed[0].coding_scheme = gprs_core::CodingScheme::Cs3;
    mixed[0].buffer_capacity = 8;
    let jacobi = ClusterSolveOptions::quick().with_ordering(SweepOrdering::Jacobi);
    [
        Scenario::homogeneous(tiny(0.5)).unwrap().named("uniform"),
        Scenario::hot_spot(tiny(0.3), 0.9).unwrap(),
        Scenario::asymmetric_ring(tiny(0.3), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]).unwrap(),
        Scenario::from_cells("mixed-coding", mixed).unwrap(),
    ]
    .into_iter()
    .map(|s| {
        (
            format!("ring7/{}", s.name()),
            s.to_cluster().unwrap(),
            jacobi.clone(),
        )
    })
    .collect()
}

/// The ring7 hot spot at 0.5 s dwell, whose fixed point contracts at a
/// ratio near 1, under both orderings at the default tolerances.
fn short_dwell_cases() -> Vec<(String, ClusterModel, ClusterSolveOptions)> {
    let mut ring = cell(5, 0.3);
    ring.gsm_dwell_time = 0.5;
    ring.gprs_dwell_time = 0.5;
    let model = Scenario::hot_spot(ring, 0.9).unwrap().to_cluster().unwrap();
    [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel]
        .into_iter()
        .map(|ordering| {
            (
                format!("short-dwell/{ordering:?}"),
                model.clone(),
                ClusterSolveOptions::default().with_ordering(ordering),
            )
        })
        .collect()
}

/// The 48-cell `metro_city` under the district profile of
/// `tests/district_fixture.rs`, every buffer at K = 8 or the downtown
/// ones at K = 10, at load scales 1.0 and 1.2, with the campaign
/// options.
fn metro_cases() -> Vec<(String, ClusterModel, ClusterSolveOptions)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/metro_city.json");
    let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let graph = graph_from_json_value(&doc, "metro_city").unwrap();
    let district = |deep_downtown: bool| -> Vec<CellConfig> {
        (0..graph.num_cells())
            .map(|i| {
                let calls = match i {
                    0..=15 => 0.060,
                    16..=27 => 0.040,
                    _ => 0.030 - 0.004 * ((i - 28) % 5) as f64,
                };
                let buffer = if deep_downtown && i <= 15 { 10 } else { 8 };
                CellConfig::builder()
                    .traffic_model(TrafficModel::Model3)
                    .total_channels(6)
                    .reserved_pdchs(1)
                    .buffer_capacity(buffer)
                    .max_gprs_sessions(3)
                    .call_arrival_rate(calls)
                    .build()
                    .unwrap()
            })
            .collect()
    };
    let opts = ClusterSolveOptions::quick();
    let mut out = Vec::new();
    for (depth, deep) in [("k8", false), ("k10", true)] {
        for scale in [1.0, 1.2] {
            let model = Scenario::from_graph("metro-district", graph.clone(), district(deep))
                .and_then(|s| s.with_load_scale(scale))
                .and_then(|s| s.to_cluster())
                .unwrap();
            out.push((format!("metro/{depth}/x{scale}"), model, opts.clone()));
        }
    }
    out
}

fn cases() -> Vec<(String, ClusterModel, ClusterSolveOptions)> {
    let mut out = ring7_cases();
    out.extend(short_dwell_cases());
    out.extend(metro_cases());
    out
}

fn relative(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1e-300)
}

/// Every cell's reported populations are the Erlang means of its
/// converged inflow, and its out-fluxes are `μ_h` times them.
#[test]
fn cluster_populations_are_the_erlang_means_of_the_converged_inflows() {
    for (name, model, opts) in cases() {
        let solved = model.solve(&opts).unwrap();
        let mut largest = 0.0f64;
        for (i, (cfg, cell)) in model.configs().iter().zip(solved.cells()).enumerate() {
            let what = format!("{name}: cell {i}");
            let voice = MmccQueue::new(
                cfg.gsm_channels(),
                cfg.gsm_arrival_rate() + cell.gsm_handover_in,
                cfg.gsm_completion_rate() + cfg.gsm_handover_rate(),
            )
            .unwrap()
            .mean_busy();
            let sessions = MmccQueue::new(
                cfg.max_gprs_sessions,
                cfg.gprs_arrival_rate() + cell.gprs_handover_in,
                cfg.gprs_completion_rate() + cfg.gprs_handover_rate(),
            )
            .unwrap()
            .mean_busy();
            let checks = [
                ("E[n]", cell.mean_voice_calls, voice),
                ("E[m]", cell.mean_sessions, sessions),
                (
                    "GSM out-flux",
                    cell.gsm_handover_out,
                    cfg.gsm_handover_rate() * voice,
                ),
                (
                    "GPRS out-flux",
                    cell.gprs_handover_out,
                    cfg.gprs_handover_rate() * sessions,
                ),
            ];
            for (field, got, want) in checks {
                largest = largest.max(relative(got, want));
                assert!(
                    relative(got, want) <= TOLERANCE,
                    "{what}: {field} {got:e} vs closed form {want:e} ({:e} relative)",
                    relative(got, want)
                );
            }
        }
        eprintln!(
            "{name}: {} iterations, largest relative deviation {largest:e}",
            solved.iterations()
        );
    }
}

/// Each reported cell — measures, residual, sweeps and health — is bit
/// for bit one cold solve of the cell's fresh template at its converged
/// inflows: the cluster solve makes exactly one CTMC solve per cell.
#[test]
fn each_cell_is_one_cold_solve_at_the_converged_inflows() {
    for (name, model, opts) in cases() {
        let solved = model.solve(&opts).unwrap();
        for (i, (cfg, cell)) in model.configs().iter().zip(solved.cells()).enumerate() {
            let mut template = GeneratorTemplate::new(cfg).unwrap();
            let cold = template
                .model_with_handovers(cfg.clone(), cell.gsm_handover_in, cell.gprs_handover_in)
                .and_then(|m| template.solve_resilient(&m, &opts.solve, WarmStart::Cold))
                .unwrap();
            // Debug renders every float round-trip exactly.
            let what = format!("{name}: cell {i}");
            assert_eq!(
                format!("{:?}", cell.measures),
                format!("{:?}", cold.measures),
                "{what}: measures"
            );
            assert_eq!(
                cell.residual.to_bits(),
                cold.residual.to_bits(),
                "{what}: residual"
            );
            assert_eq!(cell.sweeps, cold.sweeps, "{what}: sweeps");
            assert_eq!(
                format!("{:?}", cell.health),
                format!("{:?}", cold.health),
                "{what}: health"
            );
        }
        assert_eq!(solved.surrogate_solves(), 0, "{name}");
    }
}

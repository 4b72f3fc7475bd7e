//! The ring-degeneration contract: the graph-typed topology must
//! reproduce the legacy fixed 7-cell wraparound pipeline **bitwise**.
//!
//! The fixtures under `tests/fixtures/` were pinned from the pre-graph
//! implementation (fixed `NUM_CELLS = 7`, hard-wired `neighbors()` and
//! uniform 1/6 split). Every `Scenario` constructor lowered through
//! `CellGraph::ring7()` must render the exact same bit patterns — for
//! the analytical cluster fixed point *and* the network simulator — so
//! all oracles, figures and cross-validations built on the 7-cell ring
//! carry over unchanged.
//!
//! Regenerate with
//! `cargo test --test graph_equivalence -- --ignored regenerate`
//! (only legitimate when the *legacy* pipeline itself changes). One
//! such change re-rendered `ring7_model.txt`: the fixed point moved to
//! closed-form Erlang means with one cold CTMC solve per cell. No
//! iteration count changed; rates, fluxes and means moved by at most
//! 9e-16 relative, mid-cell measures by at most 8.4e-9, against outer
//! and solver tolerances of 1e-8. `ring7_sim.txt` did not move.

use gprs_core::cluster::ClusterSolveOptions;
use gprs_core::{CellConfig, Scenario, SweepOrdering};
use gprs_sim::{GprsSimulator, SimConfig};
use gprs_traffic::TrafficModel;
use std::fmt::Write as _;
use std::path::PathBuf;

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

/// The four scenario families of the contract: uniform, hot-spot,
/// asymmetric-ring and mixed-coding (per-cell coding scheme + buffer
/// depth, i.e. heterogeneous *shapes*, not just rates).
fn scenarios() -> Vec<Scenario> {
    let uniform = Scenario::homogeneous(tiny(0.5)).unwrap().named("uniform");
    let hot = Scenario::hot_spot(tiny(0.3), 0.9).unwrap();
    let ring = Scenario::asymmetric_ring(tiny(0.3), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]).unwrap();
    let mut cells = vec![tiny(0.4); 7];
    cells[0].coding_scheme = gprs_core::CodingScheme::Cs3;
    cells[0].buffer_capacity = 8;
    let mixed = Scenario::from_cells("mixed-coding", cells).unwrap();
    vec![uniform, hot, ring, mixed]
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The pre-graph pipeline iterated Jacobi sweeps; the default ordering
/// is Gauss–Seidel, so the fixtures name the ordering they pin.
fn legacy_options() -> ClusterSolveOptions {
    ClusterSolveOptions::quick().with_ordering(SweepOrdering::Jacobi)
}

/// Renders every analytically solved quantity of every scenario as
/// 64-bit patterns: handover in/out rates and mean populations per
/// cell, the full mid-cell measures, and the iteration count.
fn render_model_fixture() -> String {
    let opts = legacy_options();
    let mut out = String::new();
    for scenario in scenarios() {
        let name = scenario.name().to_string();
        let solved = scenario.to_cluster().unwrap().solve(&opts).unwrap();
        writeln!(out, "{name}/iterations {}", solved.iterations()).unwrap();
        for (i, cell) in solved.cells().iter().enumerate() {
            writeln!(
                out,
                "{name}/cell{i} {} {} {} {} {} {}",
                bits(cell.gsm_handover_in),
                bits(cell.gprs_handover_in),
                bits(cell.gsm_handover_out),
                bits(cell.gprs_handover_out),
                bits(cell.mean_voice_calls),
                bits(cell.mean_sessions),
            )
            .unwrap();
        }
        let m = &solved.mid().measures;
        writeln!(
            out,
            "{name}/mid-measures {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            bits(m.call_arrival_rate),
            bits(m.carried_data_traffic),
            bits(m.mean_queue_length),
            bits(m.offered_packet_rate),
            bits(m.accepted_packet_rate),
            bits(m.data_throughput),
            bits(m.packet_loss_probability),
            bits(m.queueing_delay),
            bits(m.throughput_per_user_pkts),
            bits(m.throughput_per_user_kbps),
            bits(m.carried_voice_traffic),
            bits(m.avg_gprs_sessions),
            bits(m.gsm_blocking_probability),
            bits(m.gprs_blocking_probability),
            bits(m.gsm_handover_rate),
            bits(m.gprs_handover_rate),
        )
        .unwrap();
    }
    out
}

/// Renders a short deterministic simulator run of every scenario as
/// bit patterns: every confidence interval, the event count (a full
/// trace fingerprint — one diverging RNG draw changes it), and the
/// simulated horizon.
fn render_sim_fixture() -> String {
    let mut out = String::new();
    for scenario in scenarios() {
        let name = scenario.name().to_string();
        let cfg = SimConfig::for_scenario(&scenario)
            .unwrap()
            .seed(11)
            .warmup(100.0)
            .batches(3, 200.0)
            .build();
        let r = GprsSimulator::new(cfg).run();
        let ci = |label: &str, c: &gprs_des::ConfidenceInterval, out: &mut String| {
            writeln!(
                out,
                "{name}/{label} {} {} {}",
                bits(c.mean),
                bits(c.half_width),
                c.batches
            )
            .unwrap();
        };
        ci("cdt", &r.carried_data_traffic, &mut out);
        ci("cvt", &r.carried_voice_traffic, &mut out);
        ci("plp", &r.packet_loss_probability, &mut out);
        ci("qd", &r.queueing_delay, &mut out);
        ci("atu", &r.throughput_per_user_kbps, &mut out);
        ci("ags", &r.avg_gprs_sessions, &mut out);
        ci("gsm-block", &r.gsm_blocking_probability, &mut out);
        ci("gprs-block", &r.gprs_blocking_probability, &mut out);
        ci("ho-in", &r.gprs_handover_in_rate, &mut out);
        ci("reserved", &r.avg_reserved_pdchs, &mut out);
        writeln!(
            out,
            "{name}/trace {} {} {} {}",
            r.events_processed,
            bits(r.simulated_time),
            r.tcp_retransmissions,
            bits(r.call_arrival_rate),
        )
        .unwrap();
    }
    out
}

fn fixture_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file)
}

fn compare(rendered: &str, file: &str) {
    let pinned = std::fs::read_to_string(fixture_path(file))
        .unwrap_or_else(|e| panic!("fixture {file} unreadable ({e}); regenerate first"));
    if rendered != pinned {
        for (line, (got, want)) in rendered.lines().zip(pinned.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "fixture {file} line {} diverges from the pre-graph pipeline",
                line + 1
            );
        }
        panic!(
            "fixture {file} length mismatch: {} vs {} lines",
            rendered.lines().count(),
            pinned.lines().count()
        );
    }
}

/// Tier-1 anchor: the analytical cluster pipeline is bit-identical to
/// the pinned pre-graph outputs for all four scenario families.
#[test]
fn ring7_model_results_match_pregraph_fixture() {
    compare(&render_model_fixture(), "ring7_model.txt");
}

/// Tier-1 anchor: the simulator pipeline (RNG draw sequence, event
/// trace and every estimate) is bit-identical to the pinned pre-graph
/// outputs for all four scenario families.
#[test]
fn ring7_sim_results_match_pregraph_fixture() {
    compare(&render_sim_fixture(), "ring7_sim.txt");
}

/// The graph-typed constructor degenerates exactly: lowering the same
/// cells through an explicit `Scenario::from_graph(.., ring7, ..)` is
/// indistinguishable from the legacy `from_cells` path — equal as
/// values, and bit-identical through the cluster solve.
#[test]
fn explicit_ring7_graph_scenarios_degenerate_to_the_legacy_path() {
    use gprs_core::CellGraph;
    let opts = legacy_options();
    for legacy in scenarios() {
        let explicit = Scenario::from_graph(
            legacy.name(),
            CellGraph::ring7(),
            legacy.base_cells().to_vec(),
        )
        .unwrap();
        assert_eq!(explicit, legacy, "{}", legacy.name());

        let a = legacy.to_cluster().unwrap().solve(&opts).unwrap();
        let b = explicit.to_cluster().unwrap().solve(&opts).unwrap();
        assert_eq!(a.iterations(), b.iterations());
        for (x, y) in a.cells().iter().zip(b.cells()) {
            assert_eq!(bits(x.gsm_handover_in), bits(y.gsm_handover_in));
            assert_eq!(bits(x.gprs_handover_in), bits(y.gprs_handover_in));
            assert_eq!(bits(x.mean_voice_calls), bits(y.mean_voice_calls));
            assert_eq!(bits(x.mean_sessions), bits(y.mean_sessions));
            assert_eq!(
                bits(x.measures.data_throughput),
                bits(y.measures.data_throughput)
            );
        }
    }
}

/// Rewrites the fixtures from the current implementation. Only
/// legitimate when the legacy pipeline itself changes semantics.
#[test]
#[ignore]
fn regenerate_fixtures() {
    let dir = fixture_path("");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(fixture_path("ring7_model.txt"), render_model_fixture()).unwrap();
    std::fs::write(fixture_path("ring7_sim.txt"), render_sim_fixture()).unwrap();
}

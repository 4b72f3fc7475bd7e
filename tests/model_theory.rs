//! Cross-crate integration tests: the solved CTMC against queueing
//! theory and closed forms, exercising the full public API through the
//! umbrella crate.

use gprs_repro::core::{CellConfig, GprsModel, Measures};
use gprs_repro::ctmc::gth::solve_gth;
use gprs_repro::ctmc::transitions::balance_residual;
use gprs_repro::ctmc::SolveOptions;
use gprs_repro::queueing::erlang;
use gprs_repro::traffic::TrafficModel;

fn small_config(rate: f64) -> CellConfig {
    CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .total_channels(8)
        .reserved_pdchs(1)
        .buffer_capacity(12)
        .max_gprs_sessions(4)
        .call_arrival_rate(rate)
        .build()
        .expect("valid config")
}

#[test]
fn production_solution_is_stationary_for_the_flat_generator() {
    // The block solver works on the MBD view; verify its output balances
    // the independently-implemented flat Table 1 generator.
    let model = GprsModel::new(small_config(0.6)).unwrap();
    let solved = model.solve_default().unwrap();
    let sparse = model.assemble_sparse().unwrap();
    let res = balance_residual(&sparse, solved.stationary().as_slice());
    assert!(res < 1e-9, "residual {res}");
}

#[test]
fn three_solvers_agree_end_to_end() {
    let model = GprsModel::new(small_config(0.4)).unwrap();
    let block = model.solve_default().unwrap();
    let point = model
        .solve_gauss_seidel(&SolveOptions::default(), None)
        .unwrap();
    let sparse = model.assemble_sparse().unwrap();
    let direct = solve_gth(&sparse).unwrap();
    for i in 0..model.space().num_states() {
        assert!(
            (block.stationary()[i] - direct[i]).abs() < 1e-8,
            "block vs gth at {i}"
        );
        assert!(
            (point.stationary()[i] - direct[i]).abs() < 1e-7,
            "gs vs gth at {i}"
        );
    }
}

#[test]
fn voice_marginal_is_erlang_b_exactly() {
    let model = GprsModel::new(small_config(0.8)).unwrap();
    let solved = model.solve_default().unwrap();
    let space = *model.space();
    let marginal = solved
        .stationary()
        .marginal(space.n_gsm() + 1, |idx| space.decode(idx).n);
    // Erlang distribution with the balanced arrival rate.
    let q = &model.balanced_gsm().queue;
    let erl = erlang::mmcc_distribution(q.servers(), q.offered_load()).unwrap();
    for (n, (&a, &b)) in marginal.iter().zip(&erl).enumerate() {
        assert!((a - b).abs() < 1e-8, "n={n}: {a} vs {b}");
    }
}

#[test]
fn zero_buffer_pressure_when_gprs_share_is_tiny() {
    // With a near-zero GPRS share, data measures collapse to ~zero and
    // voice behaves like a pure Erlang system.
    let mut cfg = small_config(0.5);
    cfg.gprs_fraction = 1e-6;
    let model = GprsModel::new(cfg).unwrap();
    let solved = model.solve_default().unwrap();
    let m = solved.measures();
    assert!(m.carried_data_traffic < 1e-3);
    assert!(m.avg_gprs_sessions < 1e-3);
    let b = erlang::erlang_b(
        model.balanced_gsm().queue.servers(),
        model.balanced_gsm().queue.offered_load(),
    )
    .unwrap();
    assert!((m.gsm_blocking_probability - b).abs() < 1e-12);
}

#[test]
fn little_law_holds_for_the_bsc_buffer() {
    // QD = E[k] / throughput by construction; verify the identity holds
    // numerically through the public API and that throughput equals the
    // accepted rate.
    let model = GprsModel::new(small_config(0.7)).unwrap();
    let solved = model.solve_default().unwrap();
    let m: &Measures = solved.measures();
    assert!(
        (m.queueing_delay * m.data_throughput - m.mean_queue_length).abs() < 1e-9,
        "Little's law violated"
    );
    assert!(
        (m.accepted_packet_rate - m.data_throughput).abs() < 1e-6 * m.data_throughput.max(1e-12)
    );
}

#[test]
fn loss_increases_with_offered_traffic() {
    let lo = GprsModel::new(small_config(0.2))
        .unwrap()
        .solve_default()
        .unwrap();
    let hi = GprsModel::new(small_config(2.0))
        .unwrap()
        .solve_default()
        .unwrap();
    assert!(hi.measures().packet_loss_probability >= lo.measures().packet_loss_probability);
    assert!(hi.measures().gsm_blocking_probability > lo.measures().gsm_blocking_probability);
}

#[test]
fn reserving_more_pdchs_helps_data_hurts_voice() {
    let mut base = small_config(1.0);
    base.reserved_pdchs = 0;
    let none = GprsModel::new(base.clone())
        .unwrap()
        .solve_default()
        .unwrap();
    base.reserved_pdchs = 3;
    let three = GprsModel::new(base).unwrap().solve_default().unwrap();
    // Data: better (or equal) loss and delay with reservations.
    assert!(
        three.measures().packet_loss_probability <= none.measures().packet_loss_probability + 1e-12
    );
    // Voice: higher blocking with fewer voice channels.
    assert!(three.measures().gsm_blocking_probability >= none.measures().gsm_blocking_probability);
}

#[test]
fn transient_solution_approaches_steady_state() {
    let model = GprsModel::new(small_config(0.5)).unwrap();
    let solved = model.solve_default().unwrap();
    let n = model.space().num_states();
    // Start empty and run a few mixing times. The slowest mode of this
    // cell is the session population (mean residence ≈ 90 s with the
    // dwell clock), so 5 000 s is ≈ 50 relaxation times — uniformization
    // cost scales linearly in the horizon, and 50 000 s would buy
    // nothing but wall-clock.
    let mut pi0 = vec![0.0; n];
    pi0[0] = 1.0;
    let sparse = model.assemble_sparse().unwrap();
    let pi_t = gprs_repro::ctmc::transient::solve_transient(&sparse, &pi0, 5_000.0).unwrap();
    let mut max_err: f64 = 0.0;
    for (i, &p_t) in pi_t.iter().enumerate() {
        max_err = max_err.max((p_t - solved.stationary()[i]).abs());
    }
    assert!(
        max_err < 1e-4,
        "transient did not reach steady state: {max_err}"
    );
}

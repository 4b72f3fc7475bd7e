//! Property-based tests of the symbolic/numeric split: solving through
//! a reused [`GeneratorTemplate`] (pattern refill + solver workspace)
//! must be **bit-identical** to the historical fresh path
//! (`GprsModel::new` + `assemble_sparse` + allocating solve) across
//! random configurations, rates and thread counts.

use gprs_core::sweep::{par_sweep_arrival_rates_threads, rate_grid, sweep_arrival_rates};
use gprs_core::template::{GeneratorTemplate, WarmStart};
use gprs_core::{CellConfig, GprsModel};
use gprs_ctmc::mbd::{mbd_residual_of, solve_mbd_projected_inplace_ws};
use gprs_ctmc::{BlockedMbd, SolveOptions, SolveWorkspace};
use gprs_traffic::SessionParams;
use proptest::prelude::*;

/// Strategy for small but varied cell configurations.
fn config_strategy() -> impl Strategy<Value = CellConfig> {
    (
        2usize..7,    // total channels
        0usize..3,    // reserved pdchs (clamped below)
        1usize..7,    // buffer capacity
        1usize..4,    // max sessions
        0.05f64..2.0, // arrival rate
        0.01f64..0.5, // gprs fraction
        0.3f64..1.0,  // eta
        1.0f64..30.0, // reading time
        0.05f64..2.0, // packet interarrival
    )
        .prop_map(|(n, reserved, k, m, rate, frac, eta, read, dd)| {
            CellConfig::builder()
                .total_channels(n)
                .reserved_pdchs(reserved.min(n - 1))
                .buffer_capacity(k)
                .max_gprs_sessions(m)
                .call_arrival_rate(rate)
                .gprs_fraction(frac)
                .tcp_threshold(eta)
                .traffic_params(SessionParams::new(3.0, read, 5.0, dd))
                .build()
                .expect("strategy yields valid configs")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Refilled CSR matrices equal fresh assemblies bit for bit, for
    /// every rate relowered through the same template.
    #[test]
    fn refilled_matrix_equals_fresh_assembly(
        cfg in config_strategy(),
        rate_steps in proptest::collection::vec(0.1f64..3.0, 1..4),
    ) {
        let mut template = GeneratorTemplate::new(&cfg).unwrap();
        // Populate the pattern at the base rate...
        let base = GprsModel::new(cfg.clone()).unwrap();
        template.sparse_for(&base).unwrap();
        // ...then refill at each perturbed rate and compare bitwise.
        for step in rate_steps {
            let mut perturbed = cfg.clone();
            perturbed.call_arrival_rate = cfg.call_arrival_rate * step;
            let model = GprsModel::new(perturbed).unwrap();
            let fresh = model.assemble_sparse().unwrap();
            let refilled = template.sparse_for(&model).unwrap();
            prop_assert!(refilled.same_pattern(&fresh));
            prop_assert_eq!(refilled.num_nonzeros(), fresh.num_nonzeros());
            for s in 0..fresh.num_states() {
                prop_assert_eq!(refilled.row(s), fresh.row(s), "row {}", s);
                prop_assert_eq!(refilled.column(s), fresh.column(s), "column {}", s);
            }
            prop_assert_eq!(refilled.exit_rates(), fresh.exit_rates());
        }
    }

    /// A cold template solve is bit-identical to the fresh allocating
    /// path (`GprsModel::new` + `solve(opts, None)`): same stationary
    /// vector (exact `==`), same measures, same diagnostics.
    #[test]
    fn cold_template_solve_is_bit_identical_to_fresh_solve(cfg in config_strategy()) {
        let opts = SolveOptions::quick();
        let model = GprsModel::new(cfg.clone()).unwrap();
        let fresh = model.solve(&opts, None).unwrap();
        let mut template = GeneratorTemplate::new(&cfg).unwrap();
        // Solve twice through the template (forcing Cold the second
        // time): reusing the workspace must not perturb a single bit.
        for _ in 0..2 {
            let point = template.solve(&model, &opts, WarmStart::Cold).unwrap();
            prop_assert_eq!(template.stationary(), fresh.stationary().as_slice());
            prop_assert_eq!(point.measures, *fresh.measures());
            prop_assert_eq!(point.sweeps, fresh.sweeps());
            prop_assert_eq!(point.residual.to_bits(), fresh.residual().to_bits());
        }
    }

    /// The chunked warm-start contract makes sequential and parallel
    /// sweeps bit-identical at every thread count (1/2/8), including
    /// across chunk boundaries.
    #[test]
    fn sweeps_are_bit_identical_across_thread_counts(cfg in config_strategy()) {
        let opts = SolveOptions::quick();
        // Spans more than one WARM_CHUNK so chained starts, chunk heads
        // and ragged final chunks are all exercised.
        let rates = rate_grid(0.1, 1.0, 10);
        let seq = sweep_arrival_rates(&cfg, &rates, &opts).unwrap();
        for threads in [1usize, 2, 8] {
            let par = par_sweep_arrival_rates_threads(&cfg, &rates, &opts, threads).unwrap();
            prop_assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(&seq) {
                prop_assert_eq!(p.measures, s.measures, "threads {}", threads);
                prop_assert_eq!(p.sweeps, s.sweeps);
                prop_assert_eq!(p.residual.to_bits(), s.residual.to_bits());
                prop_assert_eq!(p.health.rung, s.health.rung);
            }
        }
    }

    /// The production solve — the blocked kernel over a one-shot
    /// capture — is bit-identical to the matrix-free scalar oracle
    /// staged from the same start: same sweeps, residual bits and
    /// stationary bits, from the product-form guess, a neighbouring
    /// rate's solution and an arbitrary ramp. The blocked residual
    /// evaluator also matches the scalar one bit for bit on every
    /// solution.
    #[test]
    fn blocked_kernel_is_bit_identical_to_scalar(cfg in config_strategy()) {
        let opts = SolveOptions::quick();
        let models: Vec<GprsModel> = rate_grid(0.1, 1.0, 6)
            .iter()
            .map(|&rate| {
                let mut c = cfg.clone();
                c.call_arrival_rate = rate;
                GprsModel::new(c).unwrap()
            })
            .collect();
        let cold: Vec<Vec<f64>> = models
            .iter()
            .map(|m| m.solve(&opts, None).unwrap().stationary().as_slice().to_vec())
            .collect();
        let n = models[0].space().num_states();
        let ramp: Vec<f64> = (0..n).map(|i| (i % 7 + 1) as f64).collect();
        let mut scratch = Vec::new();
        for (i, model) in models.iter().enumerate() {
            let guess = model.product_form_guess();
            let neighbour = &cold[if i == 0 { 1 } else { i - 1 }];
            let marginal = model.phase_marginal();
            let mut blocked = BlockedMbd::new();
            blocked.capture(model);
            let rate = model.config().call_arrival_rate;
            for (start, label) in [(None, "guess"), (Some(neighbour), "neighbour"), (Some(&ramp), "ramp")] {
                let solved = model.solve(&opts, start.map(Vec::as_slice)).unwrap();
                let mut ws = SolveWorkspace::new();
                ws.set_pi(start.unwrap_or(&guess));
                let oracle =
                    solve_mbd_projected_inplace_ws(model, &marginal, &opts, &mut ws).unwrap();
                prop_assert_eq!(solved.sweeps(), oracle.sweeps, "rate {} from {}", rate, label);
                prop_assert_eq!(solved.residual().to_bits(), oracle.residual.to_bits());
                let pi = solved.stationary().as_slice();
                prop_assert_eq!(pi.len(), ws.pi().len());
                for (s, (a, b)) in pi.iter().zip(ws.pi()).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "state {}, rate {} from {}", s, rate, label);
                }
                prop_assert_eq!(
                    blocked.residual(pi, &mut scratch).to_bits(),
                    mbd_residual_of(model, pi).to_bits(),
                    "residual evaluators, rate {} from {}", rate, label
                );
            }
        }
    }
}

/// [`gprs_core::TemplateStats`] accumulate across the template's whole
/// lifetime — chain resets preserve them, only an explicit
/// [`GeneratorTemplate::reset_stats`] clears.
#[test]
fn template_stats_accumulate_across_chain_resets() {
    let cfg = CellConfig::builder()
        .total_channels(4)
        .reserved_pdchs(1)
        .buffer_capacity(5)
        .max_gprs_sessions(2)
        .call_arrival_rate(0.4)
        .build()
        .unwrap();
    let opts = SolveOptions::quick();
    let mut template = GeneratorTemplate::new(&cfg).unwrap();

    let solve_rates = |template: &mut GeneratorTemplate, rates: &[f64]| {
        for &rate in rates {
            let mut c = cfg.clone();
            c.call_arrival_rate = rate;
            let model = template.model_for(c).unwrap();
            template.solve(&model, &opts, WarmStart::Chained).unwrap();
        }
    };

    solve_rates(&mut template, &[0.3, 0.35, 0.4]);
    let first = template.stats();
    assert_eq!(first.solves, 3);
    assert!(first.total_sweeps > 0);
    assert!(first.residual_checks > 0);

    // A chain reset (as at every sweep-chunk head) must NOT clear the
    // lifetime counters.
    template.reset_chain();
    solve_rates(&mut template, &[0.45, 0.5]);
    let second = template.stats();
    assert_eq!(second.solves, first.solves + 2);
    assert!(second.total_sweeps > first.total_sweeps);
    assert!(second.residual_checks > first.residual_checks);

    template.reset_stats();
    assert_eq!(template.stats(), gprs_core::TemplateStats::default());
}

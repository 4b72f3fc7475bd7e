//! Property-based tests of the Table 1 generator over randomized
//! configurations: the forward and MBD views must agree, the chain must
//! be a valid irreducible generator, and the measures must stay
//! physical.

use gprs_core::{CellConfig, GprsModel};
use gprs_ctmc::mbd::ModulatedBirthDeath;
use gprs_ctmc::Transitions;
use gprs_traffic::SessionParams;
use proptest::prelude::*;

/// Strategy for small but varied cell configurations.
fn config_strategy() -> impl Strategy<Value = CellConfig> {
    (
        2usize..8,    // total channels
        0usize..3,    // reserved pdchs (clamped below)
        1usize..8,    // buffer capacity
        1usize..5,    // max sessions
        0.05f64..3.0, // arrival rate
        0.01f64..0.6, // gprs fraction
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forward_and_mbd_views_agree(cfg in config_strategy()) {
        let model = GprsModel::new(cfg).unwrap();
        let n = model.num_states();
        let levels = model.space().k_cap() + 1;

        // The MBD view must reproduce the forward transitions.
        for s in 0..n {
            let st = model.space().decode(s);
            let phase = model.space().phase_index(st.n, st.m, st.r);
            let mut mbd: Vec<(usize, f64)> = Vec::new();
            let birth = model.birth_rate(phase, st.k);
            if birth > 0.0 { mbd.push((s + 1, birth)); }
            let death = model.death_rate(phase, st.k);
            if death > 0.0 { mbd.push((s - 1, death)); }
            model.for_each_phase_outgoing(phase, &mut |q, r| {
                mbd.push((q * levels + st.k, r));
            });
            mbd.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut flat: Vec<(usize, f64)> = Vec::new();
            model.for_each_outgoing(s, &mut |t, r| flat.push((t, r)));
            flat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(mbd.len(), flat.len());
            for (a, b) in mbd.iter().zip(&flat) {
                prop_assert_eq!(a.0, b.0);
                prop_assert!((a.1 - b.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn chain_is_always_irreducible(cfg in config_strategy()) {
        let model = GprsModel::new(cfg).unwrap();
        let sparse = model.assemble_sparse().unwrap();
        prop_assert!(sparse.is_irreducible());
    }

    #[test]
    fn measures_are_physical_for_random_configs(cfg in config_strategy()) {
        let n_total = cfg.total_channels as f64;
        let k_cap = cfg.buffer_capacity as f64;
        let m_cap = cfg.max_gprs_sessions as f64;
        let model = GprsModel::new(cfg).unwrap();
        let solved = model.solve(&gprs_ctmc::SolveOptions::quick(), None).unwrap();
        let m = solved.measures();
        prop_assert!(m.carried_data_traffic >= -1e-12);
        prop_assert!(m.carried_data_traffic <= n_total + 1e-9);
        prop_assert!(m.carried_voice_traffic <= n_total + 1e-9);
        prop_assert!(m.mean_queue_length <= k_cap + 1e-9);
        prop_assert!((0.0..=1.0).contains(&m.packet_loss_probability));
        prop_assert!((0.0..=1.0).contains(&m.gsm_blocking_probability));
        prop_assert!((0.0..=1.0).contains(&m.gprs_blocking_probability));
        prop_assert!(m.avg_gprs_sessions <= m_cap + 1e-9);
        prop_assert!(m.queueing_delay >= 0.0);
        // Flow balance: accepted == throughput.
        prop_assert!(
            (m.accepted_packet_rate - m.data_throughput).abs()
                <= 1e-5 * m.data_throughput.max(1e-9)
        );
        // Offered >= accepted.
        prop_assert!(m.offered_packet_rate >= m.accepted_packet_rate - 1e-12);
    }

    #[test]
    fn phase_marginal_matches_solved_chain(cfg in config_strategy()) {
        let model = GprsModel::new(cfg).unwrap();
        let solved = model.solve(&gprs_ctmc::SolveOptions::default(), None).unwrap();
        let marginal = model.phase_marginal();
        let space = *model.space();
        let got = solved.stationary().marginal(space.num_phases(), |idx| {
            let s = space.decode(idx);
            space.phase_index(s.n, s.m, s.r)
        });
        for (p, (&a, &b)) in got.iter().zip(&marginal).enumerate() {
            prop_assert!((a - b).abs() < 1e-7, "phase {}: {} vs {}", p, a, b);
        }
    }
}

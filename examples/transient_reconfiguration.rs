//! Transient analysis: how fast does the cell settle after a PDCH
//! re-configuration?
//!
//! The paper's future-work direction — adaptive performance management
//! (Lindemann, Lohmann & Thümmler 2002) — adjusts the number of
//! reserved PDCHs to the current load, which raises a question the
//! steady-state model cannot answer: *how long after a switch is the
//! steady-state analysis valid again?* Uniformization
//! (`gprs_ctmc::transient`) answers it two ways:
//!
//! 1. the realistic switch — start from the OLD configuration's
//!    stationary law, mapped onto the new state space
//!    (`adaptive::reconfiguration_transient`), and
//! 2. the worst case — start from an empty cell.
//!
//! ```text
//! cargo run --release --example transient_reconfiguration
//! ```

use gprs_repro::core::adaptive::reconfiguration_transient;
use gprs_repro::core::{CellConfig, GprsModel, Measures};
use gprs_repro::ctmc::{transient, SolveOptions, StationaryDistribution};
use gprs_repro::traffic::TrafficModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Small buffer keeps the example interactive.
    let base = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .buffer_capacity(15)
        .max_gprs_sessions(8)
        .call_arrival_rate(0.6);

    // Old world: 1 reserved PDCH. New world: 4 reserved PDCHs.
    let old_cfg = base.clone().reserved_pdchs(1).build()?;
    let new_cfg = base.reserved_pdchs(4).build()?;
    let opts = SolveOptions::quick();

    let old = GprsModel::new(old_cfg.clone())?;
    let new = GprsModel::new(new_cfg.clone())?;
    let old_solved = old.solve(&opts, None)?;
    let new_solved = new.solve(&opts, None)?;
    println!(
        "steady-state PLP: old (1 PDCH) = {:.3e}, new (4 PDCHs) = {:.3e}",
        old_solved.measures().packet_loss_probability,
        new_solved.measures().packet_loss_probability
    );

    // --- The realistic switch -----------------------------------------
    // Start from the old stationary law (voice counts above the new cap
    // are censored to the boundary) and relax under the new generator.
    let times = [1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 900.0];
    println!("\nafter switching 1 -> 4 reserved PDCHs under load:");
    println!("  t [s]    CDT      PLP        distance to new steady state");
    for p in reconfiguration_transient(&old_cfg, &new_cfg, &times, &opts)? {
        println!(
            "  {:>5.0}  {:>7.3}  {:>9.3e}  {:>9.3e}",
            p.time,
            p.measures.carried_data_traffic,
            p.measures.packet_loss_probability,
            p.distance_to_steady_state
        );
    }

    // --- The worst case -------------------------------------------------
    // An empty cell is maximally out of equilibrium: this bounds how
    // long any reconfiguration transient can last.
    let new_csr = new.assemble_sparse()?;
    let n = new.space().num_states();
    let mut pi0 = vec![0.0; n];
    pi0[0] = 1.0;
    println!("\nrelaxation of the new configuration from an empty cell:");
    println!("  t [s]    CDT      PLP        distance to steady state");
    for &t in &times {
        let pi_t = transient::solve_transient(&new_csr, &pi0, t)?;
        let dist: f64 = pi_t
            .iter()
            .zip(new_solved.stationary().as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0; // total variation
        let m = Measures::compute(&new, &StationaryDistribution::new(pi_t));
        println!(
            "  {t:>5.0}  {:>7.3}  {:>9.3e}  {dist:>9.3e}",
            m.carried_data_traffic, m.packet_loss_probability
        );
    }
    println!(
        "\nrule of thumb: measures are trustworthy once the total-variation \
         distance drops below ~1e-2. The realistic switch settles much \
         faster than the worst case — the buffer and session populations \
         carry over; only the voice tail must drain. An adaptive \
         controller's decision epoch must respect the slower of the two."
    );
    Ok(())
}

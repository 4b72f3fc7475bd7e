//! The default seven-cell hexagonal cluster and its handover topology.
//!
//! The topology is **shared with the analytical side**: it lives in
//! [`gprs_core::cluster`] and is re-exported here so the simulator and
//! the heterogeneous fixed-point model ([`gprs_core::cluster::ClusterModel`])
//! provably move users over the same graph. Cell 0 is the *mid cell*
//! (where statistics are collected, as in the paper); cells 1–6 form the
//! surrounding ring, and the cluster is closed under handover —
//! movements that would leave it wrap back onto it under the standard
//! 7-cell tiling of the plane.
//!
//! From the mid cell a handover target is uniform over the ring; from a
//! ring cell it is uniform over the mid cell and the other five ring
//! cells — exactly the uniform 1/6 flux split the analytical cluster
//! model assumes. The neighbour lists and the handover sampler live on
//! [`gprs_core::CellGraph::ring7`], the default graph of both sides.
//!
//! Arbitrary topologies (hex tori, corridors, weighted adjacency)
//! enter the simulator through [`gprs_core::CellGraph`] via
//! [`SimConfig::builder_graph`](crate::config::SimConfig::builder_graph);
//! these constants describe the legacy ring default.

pub use gprs_core::cluster::{MID_CELL, NUM_CELLS};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use gprs_core::cluster::ClusterModel;
    use gprs_core::CellConfig;

    fn default_config() -> SimConfig {
        SimConfig::builder(CellConfig::builder().build().unwrap()).build()
    }

    #[test]
    fn reexported_topology_matches_the_analytical_model() {
        // The simulator's graph *is* the model's graph.
        assert_eq!(NUM_CELLS, 7);
        assert_eq!(MID_CELL, 0);
        let model = ClusterModel::uniform(CellConfig::builder().build().unwrap()).unwrap();
        let sim = default_config();
        assert_eq!(&sim.graph, model.graph());
        let n: Vec<usize> = sim
            .graph
            .neighbors(3)
            .unwrap()
            .iter()
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(n, vec![MID_CELL, 1, 2, 4, 5, 6]);
    }

    #[test]
    fn handover_target_stays_in_range() {
        // Inclusive upper boundary: i == 12 drives u to exactly 1.0,
        // which clamps onto the last neighbour rather than panicking.
        let graph = default_config().graph;
        for cell in 0..NUM_CELLS {
            for i in 0..=12 {
                let u = i as f64 / 12.0;
                let t = graph.handover_target(cell, u).unwrap();
                assert!(t < NUM_CELLS);
                assert_ne!(t, cell);
            }
        }
    }
}

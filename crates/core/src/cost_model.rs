//! The analytic cost comparison of Table II.
//!
//! For a graph with average degree `ḡ`, average dimension `d̄`, `L` layers,
//! `T` iterations, average remote degree `ḡ_rmt` and compression width `B`:
//!
//! | cost | ML-centered | EC-Graph |
//! |---|---|---|
//! | memory | `O(ḡ^L · d̄)` | `O(ḡ · d̄)` |
//! | compute | `O(ḡ^{L-1} · d̄²)` | `O(L · d̄²)` |
//! | communication | `O(ḡ^L · d₀)` | `O(T·L·ḡ_rmt·d̄ / (32/B))` |

/// Workload parameters for the analytic model.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Average vertex degree `ḡ`.
    pub avg_degree: f64,
    /// Average embedding dimension `d̄`.
    pub avg_dim: f64,
    /// Input feature dimension `d₀`.
    pub input_dim: f64,
    /// Number of GNN layers `L`.
    pub layers: u32,
    /// Number of training iterations `T`.
    pub iterations: u32,
    /// Average number of remote 1-hop neighbours `ḡ_rmt`.
    pub avg_remote_degree: f64,
    /// Compression bit width `B` (32 = uncompressed).
    pub bits: u32,
}

/// Per-vertex costs of one framework, in abstract units (floats cached /
/// multiply-adds / floats transferred).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Memory footprint per target vertex.
    pub memory: f64,
    /// Computation per target vertex per iteration.
    pub compute: f64,
    /// Communication per target vertex over the whole run.
    pub communication: f64,
}

/// Table II, ML-centered column: `L`-hop caching with redundant compute.
pub fn ml_centered_costs(p: &CostParams) -> CostEstimate {
    let g_l = p.avg_degree.powi(p.layers as i32);
    CostEstimate {
        memory: g_l * p.avg_dim,
        compute: p.avg_degree.powi(p.layers as i32 - 1) * p.avg_dim * p.avg_dim,
        communication: g_l * p.input_dim,
    }
}

/// Table II, EC-Graph column: graph-centered with `B`-bit compression.
pub fn ec_graph_costs(p: &CostParams) -> CostEstimate {
    CostEstimate {
        memory: p.avg_degree * p.avg_dim,
        compute: p.layers as f64 * p.avg_dim * p.avg_dim,
        communication: p.iterations as f64 * p.layers as f64 * p.avg_remote_degree * p.avg_dim
            / (32.0 / p.bits as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams {
            avg_degree: 50.0,
            avg_dim: 128.0,
            input_dim: 128.0,
            layers: 3,
            iterations: 100,
            avg_remote_degree: 5.0,
            bits: 32,
        }
    }

    #[test]
    fn ml_centered_memory_explodes_with_layers() {
        let mut p = params();
        let m3 = ml_centered_costs(&p).memory;
        p.layers = 4;
        let m4 = ml_centered_costs(&p).memory;
        assert!((m4 / m3 - p.avg_degree).abs() < 1e-6, "memory must grow ×ḡ per layer");
    }

    #[test]
    fn ec_graph_memory_is_layer_independent() {
        let mut p = params();
        let m3 = ec_graph_costs(&p).memory;
        p.layers = 4;
        assert_eq!(ec_graph_costs(&p).memory, m3);
    }

    #[test]
    fn compression_divides_communication_by_32_over_b() {
        let mut p = params();
        let full = ec_graph_costs(&p).communication;
        p.bits = 2;
        let compressed = ec_graph_costs(&p).communication;
        assert!((full / compressed - 16.0).abs() < 1e-9);
    }

    #[test]
    fn ec_graph_wins_on_dense_deep_settings() {
        // The regime the paper targets: large ḡ, L = 3.
        let p = params();
        let ml = ml_centered_costs(&p);
        let ec = ec_graph_costs(&p);
        assert!(ec.memory < ml.memory / 100.0);
        assert!(ec.compute < ml.compute / 100.0);
    }

    #[test]
    fn ml_centered_can_win_communication_for_tiny_t() {
        // One-shot pull can beat T iterations of message passing on sparse
        // graphs — the trade-off Table II encodes.
        let mut p = params();
        p.avg_degree = 2.0;
        p.iterations = 10_000;
        let ml = ml_centered_costs(&p);
        let ec = ec_graph_costs(&p);
        assert!(ml.communication < ec.communication);
    }
}

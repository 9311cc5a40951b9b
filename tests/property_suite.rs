//! Cross-crate property tests: invariants that must hold for *arbitrary*
//! inputs, not just the fixtures the unit tests use.

use ec_graph_repro::comm::codec;
use ec_graph_repro::compress::Quantized;
use ec_graph_repro::data::{generators, normalize, Graph};
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::ldg::LdgPartitioner;
use ec_graph_repro::partition::metis::MetisLikePartitioner;
use ec_graph_repro::partition::{metrics, Partitioner};
use ec_graph_repro::tensor::{ops, CsrMatrix, Matrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any edge list yields a graph satisfying every structural invariant.
    #[test]
    fn graph_from_arbitrary_edges_is_well_formed(
        n in 1usize..60,
        edges in proptest::collection::vec((0u32..60, 0u32..60), 0..200),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges);
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.num_edges() <= edges.len());
    }

    /// The GCN-normalized adjacency of any graph has spectral-safe rows:
    /// every entry in (0, 1] and row sums ≤ ~1 + degree bound effects.
    #[test]
    fn normalized_adjacency_entries_bounded(
        n in 1usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges);
        let a = normalize::gcn_normalized_adjacency(&g);
        for r in 0..n {
            for (_, v) in a.row_entries(r) {
                prop_assert!(v > 0.0 && v <= 1.0, "entry {v} out of (0,1]");
            }
        }
    }

    /// Every partitioner assigns every vertex exactly once, to a valid part.
    #[test]
    fn partitioners_cover_every_vertex(
        n in 2usize..120,
        m_frac in 0.0f64..3.0,
        parts in 1usize..8,
        seed in any::<u64>(),
    ) {
        let m = ((n as f64 * m_frac) as usize).min(n * (n - 1) / 2);
        let g = generators::erdos_renyi(n, m, seed);
        for p in [
            HashPartitioner::default().partition(&g, parts),
            LdgPartitioner::default().partition(&g, parts),
            MetisLikePartitioner::default().partition(&g, parts),
        ] {
            prop_assert_eq!(p.num_vertices(), n);
            prop_assert_eq!(p.part_sizes().iter().sum::<usize>(), n);
            // Edge-cut is within [0, |E|].
            let cut = metrics::edge_cut(&g, &p);
            prop_assert!(cut <= g.num_edges());
        }
    }

    /// Quantization never inflates: wire size strictly below raw f32 for
    /// B ≤ 16 on any non-trivial matrix, and decompression round-trips
    /// within the analytic bound.
    #[test]
    fn quantization_wire_and_error_bounds(
        rows in 1usize..20,
        cols in 1usize..20,
        bits in 1u8..=16,
        seed in any::<u64>(),
    ) {
        let m = Matrix::from_fn(rows, cols, |r, c| {
            let x = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((r * 31 + c) as u64);
            ((x % 2000) as f32) / 100.0 - 10.0
        });
        let q = Quantized::compress(&m, bits);
        if m.len() >= 16 {
            prop_assert!(q.wire_size() < m.len() * 4, "no compression at B={bits}");
        }
        let d = q.decompress();
        let bound = q.max_error() + 1e-4;
        for (a, b) in m.as_slice().iter().zip(d.as_slice()) {
            prop_assert!((a - b).abs() <= bound);
        }
    }

    /// The codec never panics on arbitrary bytes — it errors cleanly.
    #[test]
    fn codec_survives_fuzzed_input(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut slice = bytes.as_slice();
        let _ = codec::get_matrix(&mut slice);
        let mut slice = bytes.as_slice();
        let _ = codec::get_u32s(&mut slice);
        let mut slice = bytes.as_slice();
        let _ = codec::get_u8s(&mut slice);
    }

    /// The quantized wire format never panics on arbitrary bytes either.
    #[test]
    fn quantized_from_bytes_survives_fuzzed_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Quantized::from_bytes(&bytes);
    }

    /// SpMM against an arbitrary sparse matrix equals the dense reference.
    #[test]
    fn spmm_matches_dense_reference(
        rows in 1usize..12,
        cols in 1usize..12,
        inner in 1usize..12,
        triples in proptest::collection::vec((0usize..12, 0usize..12, -5.0f32..5.0), 0..40),
        seed in any::<u64>(),
    ) {
        let triples: Vec<(usize, usize, f32)> = triples
            .into_iter()
            .map(|(r, c, v)| (r % rows, c % inner, v))
            .collect();
        let s = CsrMatrix::from_triples(rows, inner, &triples);
        let b = Matrix::from_fn(inner, cols, |r, c| {
            ((seed.wrapping_add((r * 7 + c) as u64) % 100) as f32) / 50.0 - 1.0
        });
        let sparse = s.spmm(&b);
        let dense = ops::matmul(&s.to_dense(), &b);
        prop_assert!(sparse.approx_eq(&dense, 1e-3));
    }

    /// Distributed SpMM over any partition reproduces the global product —
    /// the identity the whole engine rests on.
    #[test]
    fn partitioned_aggregation_matches_global(
        n in 4usize..40,
        m_frac in 0.5f64..2.0,
        parts in 2usize..5,
        seed in any::<u64>(),
    ) {
        use ec_graph_repro::ecgraph::context::build_worker_contexts;
        use std::sync::Arc;
        let m = ((n as f64 * m_frac) as usize).min(n * (n - 1) / 2);
        let g = generators::erdos_renyi(n, m, seed);
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&g));
        let partition = HashPartitioner::new(seed).partition(&g, parts);
        let ctxs = build_worker_contexts(&[Arc::clone(&adj)], &partition);
        let h = Matrix::from_fn(n, 3, |r, c| ((seed as usize + r * 3 + c) % 17) as f32 * 0.1);
        let global = adj.spmm(&h);
        for ctx in &ctxs {
            let topo = &ctx.layers[0];
            let h_cat = h
                .gather_rows(&ctx.local_vertices)
                .vstack(&h.gather_rows(&topo.remote_deps));
            let local = topo.adj_local.spmm(&h_cat);
            let expected = global.gather_rows(&ctx.local_vertices);
            prop_assert!(local.approx_eq(&expected, 1e-4), "worker {}", ctx.worker_id);
        }
    }
}

/// Tier-1 anchor for the engine's aggregation kernel (`cargo test -q` does
/// not run `crates/tensor/tests/kernel_equivalence.rs`): over real worker
/// topologies — including a single worker, whose remote half is empty —
/// the split-operand SpMM equals SpMM over the stacked operand bit for
/// bit at every thread count, non-finite rows included.
#[test]
fn split_spmm_is_the_stacked_spmm_bit_for_bit() {
    use ec_graph_repro::ecgraph::context::build_worker_contexts;
    use ec_graph_repro::tensor::parallel;
    use std::sync::Arc;
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    // Small ragged cases, then two big enough that the kernel really
    // splits into row bands (`parallel::MIN_BAND_WORK` per band).
    let small = (0u64..12).map(|seed| (seed, 30 + 7 * seed as usize, 3, 9));
    for (seed, n, degree, cols) in small.chain([(12, 900, 16, 48), (15, 900, 16, 48)]) {
        let g = generators::erdos_renyi(n, degree * n, seed);
        let adj = Arc::new(normalize::gcn_normalized_adjacency(&g));
        let partition = HashPartitioner::new(seed).partition(&g, 1 + seed as usize % 5);
        let mut h =
            Matrix::from_fn(n, cols, |r, c| ((seed as usize + r * cols + c) % 23) as f32 - 11.0);
        if seed % 3 == 0 {
            h.set(seed as usize, 0, f32::INFINITY);
            h.set(n - 1, cols - 1, f32::NAN);
        }
        for ctx in &build_worker_contexts(&[adj], &partition) {
            let topo = &ctx.layers[0];
            let local = h.gather_rows(&ctx.local_vertices);
            let remote = h.gather_rows(&topo.remote_deps);
            let want = bits(&topo.adj_local.spmm(&local.vstack(&remote)));
            for threads in [1usize, 2, 3, 5] {
                let got = parallel::spmm_split(&topo.adj_local, &local, &remote, threads);
                assert_eq!(bits(&got), want, "seed {seed} worker {}", ctx.worker_id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ReqEC-FP's Selector can never reconstruct worse than plain
    /// compression at the same bit width — for arbitrary embedding
    /// sequences, at every step of the trend group.
    #[test]
    fn reqec_never_worse_than_plain_compression(
        rows in 1usize..12,
        cols in 1usize..8,
        bits in 1u8..=8,
        t_tr in 2usize..8,
        seeds in proptest::collection::vec(any::<u32>(), 2..10),
    ) {
        use ec_graph_repro::ecgraph::fp::{reqec_step, respond_compressed, TrendState};
        use ec_graph_repro::tensor::stats;
        let mut st = TrendState::default();
        for (t, &seed) in seeds.iter().enumerate() {
            let h = Matrix::from_fn(rows, cols, |r, c| {
                ((seed as usize + r * 13 + c * 7) % 100) as f32 / 50.0 - 1.0
            });
            let out = reqec_step(&mut st, &h, bits, t_tr, t);
            if !out.exact_sent {
                let (plain, _) = respond_compressed(&h, bits);
                let ec_err: f32 =
                    stats::rowwise_l1_distance(&out.reconstructed, &h).iter().sum();
                let plain_err: f32 =
                    stats::rowwise_l1_distance(&plain, &h).iter().sum();
                prop_assert!(ec_err <= plain_err + 1e-4,
                    "t={t}: EC {ec_err} > plain {plain_err}");
            } else {
                prop_assert!(out.reconstructed.approx_eq(&h, 1e-6));
            }
        }
    }

    /// ResEC-BP's residual stays bounded for arbitrary gradient sequences
    /// (the substance of Theorem 1), and every shipped message plus the
    /// retained residual exactly reconstructs the compensated gradient.
    #[test]
    fn resec_residual_bounded_and_consistent(
        rows in 1usize..10,
        cols in 1usize..6,
        bits in 2u8..=8,
        seeds in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        use ec_graph_repro::ecgraph::bp::{resec_step, ResidualState};
        use ec_graph_repro::tensor::stats;
        let mut st = ResidualState::default();
        let mut max_g_norm_sq = 1e-6f32;
        for &seed in &seeds {
            let g = Matrix::from_fn(rows, cols, |r, c| {
                ((seed as usize + r * 11 + c * 3) % 64) as f32 / 32.0 - 1.0
            });
            max_g_norm_sq = max_g_norm_sq.max(stats::l2_norm_sq(&g));
            let (_, _) = resec_step(&mut st, &g, bits);
            // ‖δ‖² stays within a constant multiple of the largest gradient
            // norm seen so far — the Theorem-1 `G²` is a history bound, not
            // a per-step one (a zero gradient does not erase the residual).
            prop_assert!(
                st.residual_norm_sq() <= 4.0 * max_g_norm_sq,
                "residual {} vs max gradient {}",
                st.residual_norm_sq(),
                max_g_norm_sq
            );
        }
    }
}

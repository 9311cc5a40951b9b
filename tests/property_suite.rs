//! Cross-crate property tests: invariants that must hold for *arbitrary*
//! inputs, not just the fixtures the unit tests use.

use ec_graph_repro::comm::codec;
use ec_graph_repro::compress::{Quantized, RangeBlock};
use ec_graph_repro::data::{generators, normalize, Graph};
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::partition::ldg::LdgPartitioner;
use ec_graph_repro::partition::metis::MetisLikePartitioner;
use ec_graph_repro::partition::{metrics, Partitioner};
use ec_graph_repro::tensor::isa::Tier;
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
    }

    /// The quantized wire format never panics on arbitrary bytes either.
    #[test]
    fn quantized_from_bytes_survives_fuzzed_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Quantized::from_bytes(&bytes, RangeBlock::Message);
        let _ = Quantized::from_bytes(&bytes, RangeBlock::Row);
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
/// the split-operand SpMM over the owner-major remote operand and its
/// `remote_row` map equals SpMM over the stacked operand in column order
/// bit for bit at every thread count, non-finite rows included.
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
            let stacked = local.vstack(&h.gather_rows(&topo.remote_deps));
            let want = bits(&topo.adj_local.spmm(&stacked));
            let remote = topo.remote_operand(&h);
            for threads in [1usize, 2, 3, 5] {
                let map = &topo.remote_row;
                let got = parallel::spmm_split(&topo.adj_local, &local, &remote, map, threads);
                assert_eq!(bits(&got), want, "seed {seed} worker {}", ctx.worker_id);
            }
        }
    }
}

/// Tier-1 anchor for the tiled compute kernels (`cargo test -q` does not
/// run `crates/tensor/tests/kernel_equivalence.rs`): the four products of
/// one forward and backward pass of a 3-layer model, on the per-worker
/// operands `build_worker_contexts` yields — dense features, ReLU-sparse
/// hidden activations, widths that are no multiple of the column tile —
/// against `ops::reference`, bit for bit, sequential, on 3 threads, and at
/// every instruction-set tier the host supports (the pool-dispatched calls
/// run the best one; the `*_kernel` calls name each). And the serving path's
/// products: the one-row reference `ModelWeights::project_row` against the
/// matching row of the batched kernel, and the batched `project_rows_into`
/// against it at small and large batch sizes, at every tier.
#[test]
fn compute_kernels_match_the_reference_on_worker_shapes() {
    use ec_graph_repro::ecgraph::config::ModelKind;
    use ec_graph_repro::ecgraph::context::build_worker_contexts;
    use ec_graph_repro::ecgraph::infer::ModelWeights;
    use ec_graph_repro::tensor::isa::{self, Tier};
    use ec_graph_repro::tensor::ops::reference;
    use ec_graph_repro::tensor::{activations, parallel};
    use std::sync::Arc;
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    // `$kernel(.., 0, out)` over a whole zeroed `rows × cols` output, at `tier`.
    macro_rules! product_at {
        ($tier:expr, $rows:expr, $cols:expr, |$out:ident| $kernel:expr) => {{
            let mut product = Matrix::zeros($rows, $cols);
            let $out = product.as_mut_slice();
            isa::dispatch_on($tier, $kernel);
            product
        }};
    }
    let wave = |rows: usize, cols: usize, salt: usize| {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17 + salt) as f32 * 0.37).sin())
    };

    let dims = [70usize, 24, 19, 5];
    let n = 1200;
    let g = generators::erdos_renyi(n, 8 * n, 7);
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&g));
    let partition = HashPartitioner::new(7).partition(&g, 3);
    let weights: Vec<Matrix> = (0..3).map(|l| wave(dims[l], dims[l + 1], 100 + l)).collect();
    // Global activations per layer (every worker block is a gather of
    // them): dense features, then ReLU outputs — about half exact zeros.
    let h: Vec<Matrix> = (0..3)
        .map(|l| if l == 0 { wave(n, dims[0], 1) } else { activations::relu(&wave(n, dims[l], l)) })
        .collect();
    let zeros = h[1].as_slice().iter().filter(|&&v| v == 0.0).count();
    assert!((n * dims[1] / 3..n * dims[1] * 2 / 3).contains(&zeros), "H¹ must be ReLU-sparse");

    for ctx in &build_worker_contexts(&[Arc::clone(&adj)], &partition) {
        let topo = &ctx.layers[0];
        for threads in [1usize, 3] {
            for l in 0..3 {
                let local = h[l].gather_rows(&ctx.local_vertices);
                let remote = topo.remote_operand(&h[l]);
                let map = &topo.remote_row;
                let tag = format!("worker {} layer {l} threads {threads}", ctx.worker_id);
                // Â_w·[H_local | H_remote], then ·W.
                let agg = parallel::spmm_split(&topo.adj_local, &local, &remote, map, threads);
                let stacked = local.vstack(&h[l].gather_rows(&topo.remote_deps));
                assert_eq!(
                    bits(&agg),
                    bits(&reference::spmm(&topo.adj_local, &stacked)),
                    "spmm {tag}"
                );
                let z = parallel::matmul(&agg, &weights[l], threads);
                assert_eq!(bits(&z), bits(&reference::matmul(&agg, &weights[l])), "A·B {tag}");
                // Hᵀ·G (H is ReLU-sparse past layer 0) and G·Wᵀ.
                let grad = wave(local.rows(), dims[l + 1], 200 + l);
                assert_eq!(
                    bits(&parallel::matmul_at_b(&local, &grad, threads)),
                    bits(&reference::matmul_at_b(&local, &grad)),
                    "AᵀB {tag}"
                );
                assert_eq!(
                    bits(&parallel::matmul_a_bt(&grad, &weights[l], threads)),
                    bits(&reference::matmul_a_bt(&grad, &weights[l])),
                    "A·Bᵀ {tag}"
                );
                if threads > 1 {
                    continue;
                }
                let (w, wt) = (&weights[l], weights[l].transpose());
                let (rows, adj_w) = (local.rows(), &topo.adj_local);
                for tier in Tier::supported() {
                    let got = product_at!(tier, rows, dims[l], |out| {
                        adj_w.spmm_split_kernel(&local, &remote, map, 0, out)
                    });
                    assert_eq!(bits(&got), bits(&agg), "spmm {tag} {tier}");
                    let got = product_at!(tier, rows, dims[l + 1], |out| {
                        ops::matmul_kernel(&agg, w, 0, out)
                    });
                    assert_eq!(bits(&got), bits(&z), "A·B {tag} {tier}");
                    let got = product_at!(tier, dims[l], dims[l + 1], |out| {
                        ops::matmul_at_b_kernel(&local, &grad, 0, out)
                    });
                    let want = reference::matmul_at_b(&local, &grad);
                    assert_eq!(bits(&got), bits(&want), "AᵀB {tag} {tier}");
                    let got = product_at!(tier, rows, dims[l], |out| {
                        ops::matmul_a_bt_kernel(&grad, &wt, 0, out)
                    });
                    let want = reference::matmul_a_bt(&grad, w);
                    assert_eq!(bits(&got), bits(&want), "A·Bᵀ {tag} {tier}");
                }
            }
        }
    }

    // Serving multiplies one embedding row at a time; its accumulation
    // order is the batched kernel's. A 2-layer prefix of the model makes
    // the projected width 19: one full column tile and a shifted one.
    let slots = weights[..2].iter().map(|w| (w.clone(), vec![0.0; w.cols()])).collect();
    let model = ModelWeights::from_parts(ModelKind::Gcn, slots);
    let batched = ops::matmul(&h[1], &weights[1]);
    for r in (0..n).step_by(97) {
        let row = model.project_row(h[1].row(r));
        assert_eq!(
            row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            batched.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "project_row {r}"
        );
    }
    // Serving's batched form: `project_rows_into` over the leading rows of a
    // taller arena, against `project_row` row by row, at batch sizes around
    // every tier's row group (2 / 4 / 8 rows) — through the dispatching
    // entry point, and through the kernel it dispatches to at each tier.
    let flat_bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for m in [0usize, 1, 2, 7, 8, 9, 300] {
        let want: Vec<f32> = (0..m).flat_map(|r| model.project_row(h[1].row(r))).collect();
        let mut got = vec![f32::NAN; m * dims[2]];
        model.project_rows_into(&h[1], &mut got);
        assert_eq!(flat_bits(&got), flat_bits(&want), "project_rows_into, {m} rows");
        for tier in Tier::supported() {
            let got = product_at!(tier, m, dims[2], |out| {
                ops::matmul_kernel(&h[1], &weights[1], 0, out)
            });
            assert_eq!(bits(&got), flat_bits(&want), "batched projection, {m} rows, {tier}");
        }
    }
}

/// Tier-1 anchors for the single-pass exchange kernels (`cargo test -q` does
/// not run the crates' own proptests): one deterministic case per kernel,
/// each against a reference written here from scratch — scalar `i64`
/// quantizer, bit-at-a-time packer, left-to-right min/max.
#[test]
fn codec_kernels_match_scalar_references_bit_for_bit() {
    use ec_graph_repro::tensor::stats;
    let bits_of = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

    // min_max: finite entries only, zero bounds reported as +0.0.
    let mut xs: Vec<f32> = (0..83).map(|i| ((i * 29 % 31) as f32 - 9.0) * 0.25).collect();
    (xs[5], xs[17], xs[40], xs[64]) = (f32::NAN, f32::INFINITY, -0.0, f32::NEG_INFINITY);
    let finite = xs.iter().copied().filter(|x| x.is_finite());
    let want = finite.fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), x| {
        (if x < lo { x } else { lo }, if x > hi { x } else { hi })
    });
    assert_eq!(
        bits_of(&[stats::min_max(&xs).0, stats::min_max(&xs).1]),
        bits_of(&[want.0, want.1])
    );
    assert_eq!(bits_of(&[stats::min_max(&[-0.0, 0.0, -0.0]).0]), bits_of(&[0.0]));
    assert_eq!(stats::min_max(&[f32::NAN, f32::INFINITY]), (0.0, 0.0));

    // compress / decompress at every width, over lengths that leave a
    // ragged final block, word and byte.
    for bits in 1u8..=16 {
        for len in [1usize, 7, 63, 64, 65, 131, 200] {
            let m = Matrix::from_fn(1, len, |_, c| ((c * 37 + 11) as f32 * 0.37).sin() * 3.0);
            let q = Quantized::compress(&m, bits);
            let (min, max) = q.range(0);
            let (scale, top) = ((1u32 << bits) as f32 / (max - min), (1i64 << bits) - 1);
            let codes: Vec<u32> = m
                .as_slice()
                .iter()
                .map(|&x| (((x - min) * scale) as i64).clamp(0, top) as u32)
                .collect();
            let mut packed = vec![0u8; (len * bits as usize).div_ceil(8)];
            for (i, &code) in codes.iter().enumerate() {
                for b in 0..bits as usize {
                    let pos = i * bits as usize + b;
                    packed[pos / 8] |= ((code >> b & 1) as u8) << (pos % 8);
                }
            }
            assert_eq!(q.to_bytes()[17..], packed[..], "bits={bits} len={len}");
            let width = (max - min) / (1u32 << bits) as f32;
            let midpoints: Vec<f32> =
                codes.iter().map(|&c| min + (c as f32 + 0.5) * width).collect();
            assert_eq!(bits_of(q.decompress().as_slice()), bits_of(&midpoints), "bits={bits}");
            let mut row = vec![0.0f32; len];
            let per_row = Quantized::compress_at(Tier::best(), &m, bits, RangeBlock::Row);
            per_row.decompress_block_into(0, &mut row);
            assert_eq!(bits_of(&row), bits_of(&midpoints));
        }
    }

    // Non-finite input neither panics nor moves the finite entries' buckets.
    let mut hostile = Matrix::from_fn(2, 40, |r, c| (r * 40 + c) as f32 / 79.0);
    let clean = Quantized::compress(&hostile, 4).decompress();
    hostile.set(0, 3, f32::INFINITY);
    hostile.set(1, 9, f32::NAN);
    let d = Quantized::compress(&hostile, 4).decompress();
    assert_eq!(d.get(0, 3), clean.get(1, 39));
    assert_eq!(d.get(1, 9), clean.get(0, 0));
    assert_eq!(d.get(0, 4), clean.get(0, 4));
    let none = Quantized::compress(&Matrix::filled(3, 3, f32::NAN), 2);
    assert!(none.decompress().as_slice().iter().all(|&x| x == 0.0));
}

/// Same anchor for the fused ReqEC-Selector pass and the in-place ResEC
/// step: over three trend groups each must equal the multi-pass
/// formulation assembled here from the public matrix ops.
#[test]
fn fused_exchange_steps_match_the_multi_pass_formulation() {
    use ec_graph_repro::ecgraph::bp::{resec_step, ResidualState};
    use ec_graph_repro::ecgraph::fp::{reqec_step, TrendState, SELECT_PDT};
    use ec_graph_repro::tensor::{init, stats};
    let bits_of = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let (rows, cols, t_tr, bits) = (21usize, 19usize, 4usize, 4u8);
    let start = init::uniform(rows, cols, 0.0, 1.0, 1);
    let rate = init::uniform(rows, cols, -0.05, 0.05, 2);

    let mut trend = TrendState::default();
    let mut residual = ResidualState::default();
    let mut decisions = [0u32; 3];
    for t in 0..3 * t_tr {
        let jitter = init::uniform(rows, cols, -0.03, 0.03, 10 + t as u64);
        let h = Matrix::from_fn(rows, cols, |r, c| {
            let noise = (r % 4) as f32 * jitter.get(r, c);
            (start.get(r, c) + rate.get(r, c) * t as f32 + noise).max(0.0)
        });
        let (base, m_cr, base_t) = trend.to_parts();
        let before = base.cloned().zip(m_cr.cloned()).map(|(b, m)| (b, m, base_t));
        let out = reqec_step(&mut trend, &h, bits, t_tr, t);
        match before {
            Some((base, m_cr, base_t)) if !out.exact_sent => {
                let mut pdt = base;
                ops::axpy(&mut pdt, &m_cr, (t - base_t) as f32);
                let cps = Quantized::compress(&h, bits).decompress();
                let avg = ops::scale(&ops::add(&pdt, &cps), 0.5);
                let candidates = [&cps, &pdt, &avg];
                let d = candidates.map(|m| stats::rowwise_l1_distance(m, &h));
                let mut want = Matrix::zeros(rows, cols);
                let mut selected = [0u32; 3];
                for v in 0..rows {
                    let sid = stats::argmin(&d.each_ref().map(|per_row| per_row[v]));
                    selected[sid] += 1;
                    want.set_row(v, candidates[sid].row(v));
                }
                assert_eq!(bits_of(&out.reconstructed), bits_of(&want), "t={t}");
                assert_eq!(out.selected, selected, "t={t}");
                let err: f32 = stats::rowwise_l1_distance(&want, &h).iter().sum();
                assert_eq!(out.recon_l1.to_bits(), err.to_bits(), "t={t}");
                assert_eq!(out.proportion, selected[SELECT_PDT as usize] as f32 / rows as f32);
                for (acc, c) in decisions.iter_mut().zip(selected) {
                    *acc += c;
                }
            }
            before => {
                assert!(out.exact_sent && out.reconstructed == h, "t={t}");
                let (base, m_cr, base_t) = trend.to_parts();
                assert_eq!(base, Some(&h));
                assert_eq!(base_t, t);
                let want = match before {
                    Some((old, _, old_t)) => {
                        ops::scale(&ops::sub(&h, &old), 1.0 / (t - old_t).max(1) as f32)
                    }
                    None => Matrix::zeros(rows, cols),
                };
                assert_eq!(m_cr.map(bits_of), Some(bits_of(&want)), "t={t}");
            }
        }

        let g = init::normal(rows, cols, 0.01, 100 + t as u64);
        let compensated = match residual.residual() {
            Some(delta) => ops::add(&g, delta),
            None => g.clone(),
        };
        let q = Quantized::compress(&compensated, bits);
        let (sent, wire) = resec_step(&mut residual, &g, bits);
        assert_eq!(bits_of(&sent), bits_of(&q.decompress()), "t={t}");
        assert_eq!(wire, q.wire_size() as u64);
        let delta = ops::sub(&compensated, &q.decompress());
        assert_eq!(residual.residual().map(bits_of), Some(bits_of(&delta)), "t={t}");
    }
    assert!(decisions.iter().all(|&c| c > 0), "Selector coverage {decisions:?}");
}

/// Bit pattern with every NaN folded to one value: which NaN payload an
/// operation on NaNs keeps is the compiler's choice, not part of the
/// contract.
fn canonical_bits(m: &Matrix) -> Vec<u32> {
    let fold = |x: f32| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() };
    m.as_slice().iter().map(|&x| fold(x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A requester rebuilds the trend group from the wire alone: fed only
    /// the `H` of each boundary message — encoded, decoded — through
    /// `absorb_boundary`, its state equals the responder's bit for bit
    /// after every boundary, and between boundaries its `H_base + M_cr·k`
    /// is the responder's predicted candidate. Trend groups of 1, 2, 3 and
    /// 10 epochs, the shorter bootstrap group (`t = 0 → T_tr − 1`), and
    /// NaN / ±Inf planted in the rows.
    #[test]
    fn a_requester_rebuilds_the_trend_group_from_boundary_h_alone(
        rows in 1usize..9,
        cols in 1usize..40,
        bits in 1u8..=8,
        t_tr in 0usize..4,
        steps in 1usize..24,
        seed in any::<u64>(),
        planted in proptest::collection::vec((0usize..24, 0usize..320, 0usize..3), 0..5),
    ) {
        use ec_graph_repro::ecgraph::fp::{reqec_step, TrendState};
        use ec_graph_repro::ecgraph::wire::FpMessage;
        use ec_graph_repro::tensor::init;
        let t_tr = [1usize, 2, 3, 10][t_tr];
        let start = init::uniform(rows, cols, 0.0, 1.0, seed);
        let rate = init::uniform(rows, cols, -0.05, 0.05, seed ^ 0x5A5A);
        let (mut responder, mut requester) = (TrendState::default(), TrendState::default());
        let mut boundaries = Vec::new();
        for t in 0..steps {
            let jitter = init::uniform(rows, cols, -0.02, 0.02, seed.wrapping_add(t as u64 + 1));
            let mut h = Matrix::from_fn(rows, cols, |r, c| {
                start.get(r, c) + rate.get(r, c) * t as f32 + jitter.get(r, c)
            });
            for &(at_t, at, value) in &planted {
                if at_t == t {
                    h.as_mut_slice()[at % (rows * cols)] =
                        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][value];
                }
            }
            let out = reqec_step(&mut responder, &h, bits, t_tr, t);
            if out.exact_sent {
                boundaries.push(t);
                let message = FpMessage::Exact { h: out.reconstructed, m_cr: Matrix::zeros(0, 0) };
                let bytes = message.to_bytes();
                prop_assert_eq!(bytes.len() as u64, 1 + out.wire);
                let Ok(FpMessage::Exact { h: shipped, .. }) = FpMessage::from_bytes(&bytes) else {
                    panic!("t={t}: a boundary message decodes");
                };
                requester.absorb_boundary(&shipped, t);
                let (want, got) = (responder.to_parts(), requester.to_parts());
                prop_assert_eq!(want.0.map(canonical_bits), got.0.map(canonical_bits), "t={}", t);
                prop_assert_eq!(want.1.map(canonical_bits), got.1.map(canonical_bits), "t={}", t);
                prop_assert_eq!(want.2, got.2, "t={}", t);
            } else {
                let (Some(base), Some(m_cr), base_t) = requester.to_parts() else {
                    panic!("t={t}: a non-boundary step follows a boundary");
                };
                let k = (t - base_t) as f32;
                let derived: Vec<f32> =
                    base.as_slice().iter().zip(m_cr.as_slice()).map(|(&b, &m)| b + m * k).collect();
                let derived = Matrix::from_vec(rows, cols, derived);
                let pdt = responder.predict(t).expect("the responder's trend group");
                prop_assert_eq!(canonical_bits(&derived), canonical_bits(&pdt), "t={}", t);
            }
        }
        let want: Vec<usize> = (0..steps).filter(|&t| t == 0 || (t + 1) % t_tr == 0).collect();
        prop_assert_eq!(boundaries, want);
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

//! Reverse-mode automatic differentiation over dense matrices.
//!
//! A [`Tape`] records a DAG of matrix operations during the forward pass;
//! [`Tape::backward`] then propagates gradients from any node back to every
//! leaf in one reverse sweep over the recording order (which is already a
//! topological order).
//!
//! The op set is exactly what full-batch GNN training needs: dense matmul,
//! sparse aggregation (`Â · H`), bias broadcast, ReLU and elementwise add.
//! Ops that need constants (the adjacency) share them via `Arc` so a tape
//! can be rebuilt every epoch without copying the graph structure.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use ec_tensor::{activations, ops, parallel, CsrMatrix, Matrix};
use std::sync::Arc;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarId(usize);

enum Op {
    /// Input or parameter; no inputs.
    Leaf,
    /// `C = A · B`.
    MatMul(usize, usize),
    /// `Y = S · X` for a constant sparse `S`.
    Spmm(Arc<CsrMatrix>, usize),
    /// `Y = X + 1·bᵀ` (bias is a `1 × d` node, broadcast over rows).
    AddBias(usize, usize),
    /// `Y = max(X, 0)`.
    Relu(usize),
    /// `Y = A + B`.
    Add(usize, usize),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// A gradient tape.
pub struct Tape {
    nodes: Vec<Node>,
    threads: usize,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape with sequential (single-threaded) kernels.
    pub fn new() -> Self {
        Self { nodes: Vec::new(), threads: 1 }
    }

    /// Creates an empty tape whose dense kernels (`matmul` and its two
    /// transpose-gradient forms, plus `spmm`) use up to `threads`-way
    /// band parallelism on the process-wide persistent
    /// [`ec_tensor::pool`]. `0` means auto; any explicit count is capped
    /// at the physical parallelism the pool reported at construction, so
    /// kernels never oversubscribe the host. Results are bit-identical to
    /// the sequential tape for any thread count; only `spmm_t` (a column
    /// scatter, not band-parallelizable) stays sequential.
    pub fn with_threads(threads: usize) -> Self {
        Self { nodes: Vec::new(), threads }
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> VarId {
        self.nodes.push(Node { value, grad: None, op, needs_grad });
        VarId(self.nodes.len() - 1)
    }

    /// Registers a constant (no gradient will be accumulated for it).
    pub fn constant(&mut self, value: Matrix) -> VarId {
        self.push(value, Op::Leaf, false)
    }

    /// Registers a trainable parameter (gradient accumulated on backward).
    pub fn parameter(&mut self, value: Matrix) -> VarId {
        self.push(value, Op::Leaf, true)
    }

    /// The current value of a node.
    pub fn value(&self, id: VarId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// The accumulated gradient of a node (`None` before `backward`, or for
    /// constants).
    pub fn grad(&self, id: VarId) -> Option<&Matrix> {
        self.nodes[id.0].grad.as_ref()
    }

    fn child_needs(&self, inputs: &[usize]) -> bool {
        inputs.iter().any(|&i| self.nodes[i].needs_grad)
    }

    /// `C = A · B`.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = parallel::matmul(&self.nodes[a.0].value, &self.nodes[b.0].value, self.threads);
        let needs = self.child_needs(&[a.0, b.0]);
        self.push(value, Op::MatMul(a.0, b.0), needs)
    }

    /// `Y = S · X` for the constant sparse matrix `S` (the graph
    /// aggregation `Â · H`).
    pub fn spmm(&mut self, s: Arc<CsrMatrix>, x: VarId) -> VarId {
        let value = parallel::spmm(&s, &self.nodes[x.0].value, self.threads);
        let needs = self.nodes[x.0].needs_grad;
        self.push(value, Op::Spmm(s, x.0), needs)
    }

    /// `Y = X + bias` where `bias` is a `1 × d` node broadcast over rows.
    ///
    /// # Panics
    /// Panics if `bias` is not `1 × X.cols()`.
    pub fn add_bias(&mut self, x: VarId, bias: VarId) -> VarId {
        let b = &self.nodes[bias.0].value;
        assert_eq!(b.rows(), 1, "bias must be a single row");
        assert_eq!(b.cols(), self.nodes[x.0].value.cols(), "bias width mismatch");
        let value = ops::add_bias(&self.nodes[x.0].value, b.row(0));
        let needs = self.child_needs(&[x.0, bias.0]);
        self.push(value, Op::AddBias(x.0, bias.0), needs)
    }

    /// `Y = ReLU(X)`.
    pub fn relu(&mut self, x: VarId) -> VarId {
        let value = activations::relu(&self.nodes[x.0].value);
        let needs = self.nodes[x.0].needs_grad;
        self.push(value, Op::Relu(x.0), needs)
    }

    /// `Y = A + B` (shapes must match).
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let value = ops::add(&self.nodes[a.0].value, &self.nodes[b.0].value);
        let needs = self.child_needs(&[a.0, b.0]);
        self.push(value, Op::Add(a.0, b.0), needs)
    }

    /// Runs the reverse sweep, seeding node `root` with `seed` (typically
    /// `∂loss/∂root` computed by the loss function).
    ///
    /// # Panics
    /// Panics if `seed`'s shape differs from `root`'s value.
    pub fn backward(&mut self, root: VarId, seed: Matrix) {
        assert_eq!(seed.shape(), self.nodes[root.0].value.shape(), "seed gradient shape mismatch");
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[root.0].grad = Some(seed);
        for i in (0..=root.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(g) = self.nodes[i].grad.clone() else { continue };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.nodes[a].needs_grad {
                        let ga = parallel::matmul_a_bt(&g, &self.nodes[b].value, self.threads);
                        self.accumulate(a, ga);
                    }
                    if self.nodes[b].needs_grad {
                        let gb = parallel::matmul_at_b(&self.nodes[a].value, &g, self.threads);
                        self.accumulate(b, gb);
                    }
                }
                Op::Spmm(s, x) => {
                    let x = *x;
                    if self.nodes[x].needs_grad {
                        let gx = s.spmm_t(&g);
                        self.accumulate(x, gx);
                    }
                }
                Op::AddBias(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    if self.nodes[x].needs_grad {
                        self.accumulate(x, g.clone());
                    }
                    if self.nodes[bias].needs_grad {
                        let sums = ops::column_sums(&g);
                        let gb = Matrix::from_vec(1, sums.len(), sums);
                        self.accumulate(bias, gb);
                    }
                }
                Op::Relu(x) => {
                    let x = *x;
                    if self.nodes[x].needs_grad {
                        let mask = activations::relu_grad(&self.nodes[x].value);
                        self.accumulate(x, ops::hadamard(&g, &mask));
                    }
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.nodes[a].needs_grad {
                        self.accumulate(a, g.clone());
                    }
                    if self.nodes[b].needs_grad {
                        self.accumulate(b, g.clone());
                    }
                }
            }
        }
    }

    fn accumulate(&mut self, id: usize, g: Matrix) {
        match &mut self.nodes[id].grad {
            Some(existing) => ops::add_assign(existing, &g),
            slot @ None => *slot = Some(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_tensor::stats;

    /// Finite-difference check of `d(sum f(X)) / dX` against the tape.
    fn check_grad(build: impl Fn(&mut Tape, VarId) -> VarId, x0: Matrix, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.parameter(x0.clone());
        let y = build(&mut tape, x);
        let seed = Matrix::filled(tape.value(y).rows(), tape.value(y).cols(), 1.0);
        tape.backward(y, seed);
        let analytic = tape.grad(x).unwrap().clone();

        let eps = 1e-3f32;
        for r in 0..x0.rows() {
            for c in 0..x0.cols() {
                let mut xp = x0.clone();
                xp.set(r, c, xp.get(r, c) + eps);
                let mut xm = x0.clone();
                xm.set(r, c, xm.get(r, c) - eps);
                let f = |m: Matrix| {
                    let mut t = Tape::new();
                    let v = t.parameter(m);
                    let out = build(&mut t, v);
                    t.value(out).as_slice().iter().sum::<f32>()
                };
                let numeric = (f(xp) - f(xm)) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "({r},{c}): analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn matmul_gradients_match_finite_differences() {
        let w = Matrix::from_fn(3, 2, |r, c| 0.3 * r as f32 - 0.2 * c as f32 + 0.1);
        check_grad(
            move |t, x| {
                let w = t.constant(w.clone());
                t.matmul(x, w)
            },
            Matrix::from_fn(2, 3, |r, c| 0.5 * (r + c) as f32 - 0.4),
            1e-2,
        );
    }

    #[test]
    fn matmul_weight_gradient_matches() {
        let x = Matrix::from_fn(4, 3, |r, c| (r as f32 * 0.2) - (c as f32 * 0.1));
        check_grad(
            move |t, w| {
                let x = t.constant(x.clone());
                t.matmul(x, w)
            },
            Matrix::from_fn(3, 2, |r, c| 0.05 * (r * 2 + c) as f32),
            1e-2,
        );
    }

    #[test]
    fn relu_gradient_matches() {
        check_grad(
            |t, x| t.relu(x),
            Matrix::from_fn(3, 3, |r, c| (r as f32 - 1.2) * (c as f32 + 0.7) - 0.5),
            1e-2,
        );
    }

    #[test]
    fn spmm_gradient_matches() {
        let s = Arc::new(CsrMatrix::from_triples(
            3,
            3,
            &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0), (2, 0, 0.3), (2, 2, 0.7)],
        ));
        check_grad(
            move |t, x| t.spmm(Arc::clone(&s), x),
            Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.25),
            1e-2,
        );
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32));
        let b = tape.parameter(Matrix::zeros(1, 3));
        let y = tape.add_bias(x, b);
        tape.backward(y, Matrix::filled(4, 3, 1.0));
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[4.0, 4.0, 4.0]);
    }

    #[test]
    fn chained_ops_compose() {
        // y = ReLU(X·W + b) · W2: a 1-layer MLP — gradient flows to all.
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.3));
        let w1 = tape.parameter(Matrix::from_fn(3, 4, |r, c| 0.1 * (r as f32 - c as f32)));
        let b1 = tape.parameter(Matrix::zeros(1, 4));
        let w2 = tape.parameter(Matrix::from_fn(4, 2, |r, c| 0.2 * (r + c) as f32));
        let h = tape.matmul(x, w1);
        let h = tape.add_bias(h, b1);
        let h = tape.relu(h);
        let y = tape.matmul(h, w2);
        tape.backward(y, Matrix::filled(2, 2, 1.0));
        assert!(tape.grad(w1).is_some());
        assert!(tape.grad(b1).is_some());
        assert!(tape.grad(w2).is_some());
        assert!(tape.grad(x).is_none(), "constants receive no gradient");
    }

    #[test]
    fn fanout_accumulates_gradients() {
        // y = x + x ⇒ dy/dx = 2.
        let mut tape = Tape::new();
        let x = tape.parameter(Matrix::filled(2, 2, 3.0));
        let y = tape.add(x, x);
        tape.backward(y, Matrix::filled(2, 2, 1.0));
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[2.0; 4]);
    }

    #[test]
    fn backward_resets_previous_grads() {
        let mut tape = Tape::new();
        let x = tape.parameter(Matrix::filled(1, 1, 1.0));
        let y = tape.add(x, x);
        tape.backward(y, Matrix::filled(1, 1, 1.0));
        tape.backward(y, Matrix::filled(1, 1, 1.0));
        assert_eq!(
            tape.grad(x).unwrap().get(0, 0),
            2.0,
            "grads must not accumulate across backwards"
        );
    }

    #[test]
    fn threaded_tape_is_bit_identical_to_sequential() {
        let run = |threads: usize| {
            let mut tape = Tape::with_threads(threads);
            let s = Arc::new(CsrMatrix::from_triples(
                5,
                5,
                &[(0, 1, 0.5), (1, 0, 0.5), (2, 3, 1.0), (3, 2, 1.0), (4, 4, 1.0), (0, 4, 0.25)],
            ));
            let x = tape.constant(Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin()));
            let w1 = tape.parameter(Matrix::from_fn(3, 4, |r, c| 0.1 * (r as f32 - c as f32)));
            let w2 = tape.parameter(Matrix::from_fn(4, 2, |r, c| 0.2 * (r + c) as f32 - 0.3));
            let h = tape.matmul(x, w1);
            let h = tape.spmm(Arc::clone(&s), h);
            let h = tape.relu(h);
            let y = tape.matmul(h, w2);
            let (rows, cols) = tape.value(y).shape();
            tape.backward(y, Matrix::filled(rows, cols, 1.0));
            (
                tape.value(y).as_slice().to_vec(),
                tape.grad(w1).unwrap().as_slice().to_vec(),
                tape.grad(w2).unwrap().as_slice().to_vec(),
            )
        };
        let base = run(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(run(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn gradient_norm_is_finite_on_deep_chains() {
        let mut tape = Tape::new();
        let x = tape.parameter(Matrix::from_fn(4, 4, |r, c| ((r * 4 + c) as f32).sin()));
        let shrink = tape.constant(Matrix::from_fn(4, 4, |r, c| if r == c { 0.9 } else { 0.0 }));
        let mut h = x;
        for _ in 0..16 {
            h = tape.relu(h);
            h = tape.matmul(h, shrink);
        }
        let shape = tape.value(h).shape();
        tape.backward(h, Matrix::filled(shape.0, shape.1, 1.0));
        assert!(stats::l2_norm(tape.grad(x).unwrap()).is_finite());
    }
}

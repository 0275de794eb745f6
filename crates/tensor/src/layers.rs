//! Dense layers: `Linear` (affine) and `Mlp` (stack of Linear + ReLU).
//!
//! What a layer keeps between `forward` and `backward` — its input, the
//! ReLU masks — lives in the layer and is overwritten in place each
//! step; everything else (outputs, input gradients, the weight-gradient
//! temporary) is a [`Scratch`] loan, so a step at a repeated shape
//! allocates nothing.

use crate::activation::{relu_backward, relu_inplace};
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{HasParams, ParamVisitor};
use crate::scratch::Scratch;
use het_rng::Rng;

/// An affine layer `y = x W + b` with gradient accumulation.
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
    gw: Matrix,
    gb: Vec<f32>,
    last_input: Option<Matrix>,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            w: xavier_uniform(rng, in_dim, out_dim),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
            last_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Immutable view of the weights (for tests/inspection).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Forward pass; copies the input into the layer for backward.
    pub fn forward(&mut self, x: &Matrix) -> Scratch {
        self.last_input
            .get_or_insert_with(Matrix::default)
            .clone_from(x);
        self.forward_inference(x)
    }

    /// Inference-only forward pass; does not store activations.
    pub fn forward_inference(&self, x: &Matrix) -> Scratch {
        let mut y = Scratch::new(x.rows(), self.out_dim());
        x.matmul_into(&self.w, &mut y);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass: accumulates `gW += xᵀ dy`, `gb += Σ_rows dy` and
    /// returns `dx = dy Wᵀ`. Both sums are formed in a temporary first
    /// and then added, so what accumulates is independent of what `gW`
    /// and `gb` already hold.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Scratch {
        let x = self
            .last_input
            .as_ref()
            .expect("Linear::backward called before forward");
        {
            let mut sum = Scratch::new(self.in_dim(), self.out_dim());
            x.matmul_tn_into(dy, &mut sum);
            self.gw.axpy(1.0, &sum);
            dy.col_sums_into(&mut sum);
            for (g, &d) in self.gb.iter_mut().zip(sum.as_slice()) {
                *g += d;
            }
            // `sum` goes back before `dx` and its packed `Wᵀ` are taken.
        }
        let mut dx = Scratch::new(dy.rows(), self.in_dim());
        dy.matmul_nt_into(&self.w, &mut dx);
        dx
    }

    /// Forward+backward FLOPs per batch of `batch` examples (three
    /// matmuls of the same size).
    pub fn flops(&self, batch: usize) -> f64 {
        3.0 * Matrix::matmul_flops(batch, self.in_dim(), self.out_dim())
    }
}

impl HasParams for Linear {
    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        v.visit(self.w.as_mut_slice(), self.gw.as_mut_slice());
        v.visit(&mut self.b, &mut self.gb);
    }
}

/// A multi-layer perceptron: Linear layers with ReLU between them (no
/// activation after the final layer, which usually feeds a loss).
pub struct Mlp {
    layers: Vec<Linear>,
    /// `masks[i]` is the ReLU mask of layer `i`'s output.
    masks: Vec<Matrix>,
}

impl Mlp {
    /// Creates an MLP given the full dimension chain, e.g.
    /// `[in, hidden, hidden, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two dimensions are given.
    pub fn new<R: Rng>(rng: &mut R, dims: &[usize]) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers: Vec<Linear> = dims
            .windows(2)
            .map(|w| Linear::new(rng, w[0], w[1]))
            .collect();
        let masks = vec![Matrix::default(); layers.len() - 1];
        Mlp { layers, masks }
    }

    /// Number of Linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output dimension of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Forward pass, storing ReLU masks for backward.
    pub fn forward(&mut self, x: &Matrix) -> Scratch {
        let (first, rest) = self.layers.split_first_mut().expect("at least one layer");
        let mut h = first.forward(x);
        for (layer, mask) in rest.iter_mut().zip(&mut self.masks) {
            relu_inplace(&mut h, mask);
            h = layer.forward(&h);
        }
        h
    }

    /// Inference-only forward pass.
    pub fn forward_inference(&self, x: &Matrix) -> Scratch {
        let (first, rest) = self.layers.split_first().expect("at least one layer");
        let mut h = first.forward_inference(x);
        for layer in rest {
            for v in h.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            h = layer.forward_inference(&h);
        }
        h
    }

    /// Backward pass; returns the gradient w.r.t. the MLP input. The mask
    /// stored for layer `i`'s output is applied when the gradient crosses
    /// that activation on the way down.
    pub fn backward(&mut self, dy: &Matrix) -> Scratch {
        let (last, rest) = self.layers.split_last_mut().expect("at least one layer");
        let mut g = last.backward(dy);
        for (layer, mask) in rest.iter_mut().zip(&self.masks).rev() {
            relu_backward(&mut g, mask);
            g = layer.backward(&g);
        }
        g
    }

    /// Forward+backward FLOPs per batch.
    pub fn flops(&self, batch: usize) -> f64 {
        self.layers.iter().map(|l| l.flops(batch)).sum()
    }
}

impl HasParams for Mlp {
    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        for layer in &mut self.layers {
            layer.visit_params(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FlatGrads;
    use het_rng::rngs::StdRng;
    use het_rng::SeedableRng;

    /// Finite-difference check of Linear gradients w.r.t. both the input
    /// and the weights, using the scalar loss `L = Σ y`.
    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);

        let y = layer.forward(&x);
        let dy = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        layer.zero_grads();
        let dx = layer.backward(&dy);

        let eps = 1e-3f32;
        // d(Σy)/dx via finite differences.
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let fp: f32 = layer.forward_inference(&xp).as_slice().iter().sum();
                let fm: f32 = layer.forward_inference(&xm).as_slice().iter().sum();
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - dx.get(r, c)).abs() < 1e-2,
                    "dx[{r},{c}]: numeric {num} vs analytic {}",
                    dx.get(r, c)
                );
            }
        }

        // d(Σy)/dW via finite differences, compared against gw.
        let mut flat = FlatGrads::new();
        flat.export_from(&mut layer);
        // First 6 entries of the flat buffer are gW (3x2 row-major).
        let in_dim = 3;
        let out_dim = 2;
        for i in 0..in_dim {
            for j in 0..out_dim {
                let orig = layer.w.get(i, j);
                layer.w.set(i, j, orig + eps);
                let fp: f32 = layer.forward_inference(&x).as_slice().iter().sum();
                layer.w.set(i, j, orig - eps);
                let fm: f32 = layer.forward_inference(&x).as_slice().iter().sum();
                layer.w.set(i, j, orig);
                let num = (fp - fm) / (2.0 * eps);
                let analytic = flat.as_slice()[i * out_dim + j];
                assert!(
                    (num - analytic).abs() < 1e-2,
                    "gW[{i},{j}]: numeric {num} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&mut rng, &[4, 8, 1]);
        let x = Matrix::from_vec(3, 4, (0..12).map(|i| (i as f32 - 6.0) / 4.0).collect());

        let y = mlp.forward(&x);
        let dy = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows()]);
        mlp.zero_grads();
        let dx = mlp.backward(&dy);

        let eps = 1e-3f32;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let fp: f32 = mlp.forward_inference(&xp).as_slice().iter().sum();
                let fm: f32 = mlp.forward_inference(&xm).as_slice().iter().sum();
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - dx.get(r, c)).abs() < 2e-2,
                    "dx[{r},{c}]: numeric {num} vs analytic {}",
                    dx.get(r, c)
                );
            }
        }
    }

    #[test]
    fn forward_and_inference_agree() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut mlp = Mlp::new(&mut rng, &[5, 7, 3]);
        let x = Matrix::from_vec(2, 5, (0..10).map(|i| i as f32 * 0.1 - 0.5).collect());
        let a = mlp.forward(&x);
        let b = mlp.forward_inference(&x);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn mlp_shape_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut rng, &[16, 32, 8, 1]);
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.out_dim(), 1);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_with_one_dim_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Mlp::new(&mut rng, &[16]);
    }

    #[test]
    fn flops_positive_and_additive() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut rng, &[16, 32, 1]);
        let f = mlp.flops(128);
        let expect = 3.0 * (Matrix::matmul_flops(128, 16, 32) + Matrix::matmul_flops(128, 32, 1));
        assert_eq!(f, expect);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&mut rng, &[4, 3, 2]);
        // (4*3 + 3) + (3*2 + 2) = 15 + 8 = 23
        assert_eq!(mlp.n_params(), 23);
    }
}

//! The Deep&Cross Network cross layer (Wang et al., ADKDD'17), used by
//! the paper's DCN workload.
//!
//! One layer computes, per example, `y = x0 · (xlᵀ w) + b + xl`, i.e. an
//! explicit bounded-degree feature cross with a residual connection. The
//! parameters are a weight vector and a bias vector of the input width.

use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{HasParams, ParamVisitor};
use crate::scratch::Scratch;
use het_rng::Rng;

/// One cross layer `y = x0 ⊙ (xl·w) + b + xl`.
pub struct CrossLayer {
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    last_x0: Option<Matrix>,
    last_xl: Option<Matrix>,
}

impl CrossLayer {
    /// Creates a cross layer of width `dim`.
    pub fn new<R: Rng>(rng: &mut R, dim: usize) -> Self {
        let w = xavier_uniform(rng, dim, 1).as_slice().to_vec();
        CrossLayer {
            w,
            b: vec![0.0; dim],
            gw: vec![0.0; dim],
            gb: vec![0.0; dim],
            last_x0: None,
            last_xl: None,
        }
    }

    /// Layer width.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Forward pass. `x0` is the network input, `xl` the previous cross
    /// output; both `(batch × dim)`.
    pub fn forward(&mut self, x0: &Matrix, xl: &Matrix) -> Scratch {
        self.forward_impl(x0, xl, true)
    }

    /// Inference-only forward pass (no activation storage).
    pub fn forward_inference(&self, x0: &Matrix, xl: &Matrix) -> Scratch {
        assert_eq!(x0.cols(), self.dim(), "x0 width must equal layer dim");
        assert_eq!(xl.cols(), self.dim(), "xl width must equal layer dim");
        let mut y = Scratch::new(x0.rows(), self.dim());
        for r in 0..x0.rows() {
            let s: f32 = xl.row(r).iter().zip(&self.w).map(|(&x, &w)| x * w).sum();
            let yr = y.row_mut(r);
            for ((o, &x0v), (&bv, &xlv)) in yr
                .iter_mut()
                .zip(x0.row(r))
                .zip(self.b.iter().zip(xl.row(r)))
            {
                *o = x0v * s + bv + xlv;
            }
        }
        y
    }

    fn forward_impl(&mut self, x0: &Matrix, xl: &Matrix, store: bool) -> Scratch {
        let y = self.forward_inference(x0, xl);
        if store {
            self.last_x0
                .get_or_insert_with(Matrix::default)
                .clone_from(x0);
            self.last_xl
                .get_or_insert_with(Matrix::default)
                .clone_from(xl);
        }
        y
    }

    /// Backward pass: returns `(dx0, dxl)` and accumulates `gw`, `gb`.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> (Scratch, Scratch) {
        let x0 = self
            .last_x0
            .as_ref()
            .expect("CrossLayer::backward before forward");
        let xl = self
            .last_xl
            .as_ref()
            .expect("CrossLayer::backward before forward");
        let d = self.dim();
        let mut dx0 = Scratch::new(dy.rows(), d);
        let mut dxl = Scratch::new(dy.rows(), d);
        for r in 0..dy.rows() {
            let dy_r = dy.row(r);
            let x0_r = x0.row(r);
            let xl_r = xl.row(r);
            let s: f32 = xl_r.iter().zip(&self.w).map(|(&x, &w)| x * w).sum();
            let dy_dot_x0: f32 = dy_r.iter().zip(x0_r).map(|(&a, &b)| a * b).sum();
            for j in 0..d {
                dx0.row_mut(r)[j] = dy_r[j] * s;
                dxl.row_mut(r)[j] = dy_r[j] + self.w[j] * dy_dot_x0;
                self.gw[j] += dy_dot_x0 * xl_r[j];
                self.gb[j] += dy_r[j];
            }
        }
        (dx0, dxl)
    }

    /// Forward+backward FLOPs per batch of `batch` examples.
    pub fn flops(&self, batch: usize) -> f64 {
        // ~6 ops per element forward, ~8 backward.
        14.0 * batch as f64 * self.dim() as f64
    }
}

impl HasParams for CrossLayer {
    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        v.visit(&mut self.w, &mut self.gw);
        v.visit(&mut self.b, &mut self.gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_rng::rngs::StdRng;
    use het_rng::SeedableRng;

    fn scalar_loss(layer: &CrossLayer, x0: &Matrix, xl: &Matrix) -> f32 {
        layer.forward_inference(x0, xl).as_slice().iter().sum()
    }

    #[test]
    fn forward_matches_formula() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = CrossLayer::new(&mut rng, 2);
        layer.w = vec![1.0, 2.0];
        layer.b = vec![0.5, -0.5];
        let x0 = Matrix::from_vec(1, 2, vec![1.0, 3.0]);
        let xl = Matrix::from_vec(1, 2, vec![2.0, 4.0]);
        // s = 2*1 + 4*2 = 10; y = x0*10 + b + xl = [10+0.5+2, 30-0.5+4]
        let y = layer.forward(&x0, &xl);
        assert_eq!(y.as_slice(), &[12.5, 33.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut layer = CrossLayer::new(&mut rng, 3);
        let x0 = Matrix::from_vec(2, 3, vec![0.3, -0.5, 0.8, 1.1, 0.2, -0.4]);
        let xl = Matrix::from_vec(2, 3, vec![0.6, 0.1, -0.9, -0.2, 0.7, 0.5]);

        let y = layer.forward(&x0, &xl);
        let dy = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; 6]);
        layer.zero_grads();
        let (dx0, dxl) = layer.backward(&dy);

        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                // dx0
                let mut p = x0.clone();
                p.set(r, c, x0.get(r, c) + eps);
                let mut m2 = x0.clone();
                m2.set(r, c, x0.get(r, c) - eps);
                let num =
                    (scalar_loss(&layer, &p, &xl) - scalar_loss(&layer, &m2, &xl)) / (2.0 * eps);
                assert!((num - dx0.get(r, c)).abs() < 1e-2, "dx0[{r},{c}]");
                // dxl
                let mut p = xl.clone();
                p.set(r, c, xl.get(r, c) + eps);
                let mut m2 = xl.clone();
                m2.set(r, c, xl.get(r, c) - eps);
                let num =
                    (scalar_loss(&layer, &x0, &p) - scalar_loss(&layer, &x0, &m2)) / (2.0 * eps);
                assert!((num - dxl.get(r, c)).abs() < 1e-2, "dxl[{r},{c}]");
            }
        }

        // Weight gradient.
        for j in 0..3 {
            let orig = layer.w[j];
            layer.w[j] = orig + eps;
            let lp = scalar_loss(&layer, &x0, &xl);
            layer.w[j] = orig - eps;
            let lm = scalar_loss(&layer, &x0, &xl);
            layer.w[j] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - layer.gw[j]).abs() < 1e-2,
                "gw[{j}]: {num} vs {}",
                layer.gw[j]
            );
        }
    }

    #[test]
    fn residual_passes_through_at_zero_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = CrossLayer::new(&mut rng, 2);
        layer.w = vec![0.0, 0.0];
        layer.b = vec![0.0, 0.0];
        let x0 = Matrix::from_vec(1, 2, vec![5.0, 6.0]);
        let xl = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(layer.forward(&x0, &xl).as_slice(), xl.as_slice());
    }

    #[test]
    fn param_count_is_two_vectors() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = CrossLayer::new(&mut rng, 8);
        assert_eq!(layer.n_params(), 16);
        assert!(layer.flops(128) > 0.0);
    }
}

//! Activation functions and their derivatives.

use crate::matrix::Matrix;

/// Numerically stable logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// In-place ReLU; writes the mask [`relu_backward`] needs over `mask`
/// (reshaped to `x`'s shape). A NaN is not an inactive unit: it passes
/// through with mask 1, so a poisoned activation reaches the loss
/// instead of being zeroed on the way.
pub fn relu_inplace(x: &mut Matrix, mask: &mut Matrix) {
    mask.reshape(x.rows(), x.cols());
    for (v, m) in x.as_mut_slice().iter_mut().zip(mask.as_mut_slice()) {
        if *v <= 0.0 {
            *v = 0.0;
            *m = 0.0;
        } else {
            *m = 1.0;
        }
    }
}

/// Applies the ReLU mask to an upstream gradient in place.
pub fn relu_backward(dy: &mut Matrix, mask: &Matrix) {
    assert_eq!(
        (dy.rows(), dy.cols()),
        (mask.rows(), mask.cols()),
        "relu mask shape mismatch"
    );
    for (g, &m) in dy.as_mut_slice().iter_mut().zip(mask.as_slice()) {
        *g *= m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        for x in [-15.0f32, -3.0, -0.5, 0.5, 3.0, 15.0] {
            let s = sigmoid(x);
            assert!(s > 0.0 && s < 1.0);
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_extremes_do_not_overflow() {
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    #[test]
    fn relu_zeroes_negatives_and_masks() {
        let mut x = Matrix::from_vec(1, 4, vec![-1.0, -0.0, 2.0, -3.0]);
        let mut mask = Matrix::from_vec(2, 1, vec![f32::NAN; 2]);
        relu_inplace(&mut x, &mut mask);
        assert_eq!(x.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        assert!(x.get(0, 1).is_sign_positive(), "-0.0 becomes +0.0");
        assert_eq!(mask.as_slice(), &[0.0, 0.0, 1.0, 0.0]);

        let mut dy = Matrix::from_vec(1, 4, vec![5.0, 5.0, 5.0, 5.0]);
        relu_backward(&mut dy, &mask);
        assert_eq!(dy.as_slice(), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn relu_lets_nan_through() {
        let mut x = Matrix::from_vec(1, 2, vec![f32::NAN, f32::NEG_INFINITY]);
        let mut mask = Matrix::default();
        relu_inplace(&mut x, &mut mask);
        assert!(x.get(0, 0).is_nan());
        assert_eq!((x.get(0, 1), mask.as_slice()), (0.0, &[1.0, 0.0][..]));
    }
}

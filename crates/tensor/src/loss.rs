//! Losses: binary cross-entropy with logits (CTR models) and softmax
//! cross-entropy (GNN node classification).
//!
//! Both return the mean loss over the batch together with the gradient
//! w.r.t. the logits, already divided by the batch size, so the models
//! can feed the gradient straight into `backward`.

use crate::activation::sigmoid;
use crate::matrix::Matrix;
use crate::scratch::Scratch;

/// Mean binary cross-entropy over a batch of logits with {0,1} labels.
/// Returns `(loss, dlogits)`.
///
/// # Panics
/// Panics if shapes disagree or `logits` is not a column.
pub fn bce_with_logits(logits: &Matrix, labels: &[f32]) -> (f32, Scratch) {
    assert_eq!(logits.cols(), 1, "bce expects a (batch x 1) logit column");
    assert_eq!(logits.rows(), labels.len(), "label count must match batch");
    let n = labels.len().max(1) as f32;
    let mut grad = Scratch::new(logits.rows(), 1);
    let mut loss = 0.0f64;
    for (i, &y) in labels.iter().enumerate() {
        let z = logits.get(i, 0);
        // log(1 + e^{-|z|}) + max(z,0) - z*y, the stable BCE-with-logits.
        let max_term = z.max(0.0);
        loss += (max_term - z * y + (1.0 + (-z.abs()).exp()).ln()) as f64;
        grad.set(i, 0, (sigmoid(z) - y) / n);
    }
    ((loss / n as f64) as f32, grad)
}

/// Mean softmax cross-entropy over a batch of `(batch × classes)` logits
/// with integer class labels. Returns `(loss, dlogits)`.
///
/// # Panics
/// Panics on shape mismatch or an out-of-range label.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Scratch) {
    assert_eq!(logits.rows(), labels.len(), "label count must match batch");
    let classes = logits.cols();
    let n = labels.len().max(1) as f32;
    let mut grad = Scratch::new(logits.rows(), classes);
    let mut loss = 0.0f64;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < classes, "label {y} out of range for {classes} classes");
        let row = logits.row(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let sum_exp: f32 = row.iter().map(|&v| (v - max).exp()).sum();
        let log_sum = max + sum_exp.ln();
        loss += (log_sum - row[y]) as f64;
        let grow = grad.row_mut(i);
        for (c, g) in grow.iter_mut().enumerate() {
            let p = (row[c] - log_sum).exp();
            *g = (p - if c == y { 1.0 } else { 0.0 }) / n;
        }
    }
    ((loss / n as f64) as f32, grad)
}

/// Batch accuracy of argmax predictions against integer labels.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(i, &y)| {
            let row = logits.row(*i);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(c, _)| c)
                .unwrap_or(0);
            argmax == y
        })
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_at_zero_logit_is_ln2() {
        let logits = Matrix::from_vec(2, 1, vec![0.0, 0.0]);
        let (loss, grad) = bce_with_logits(&logits, &[0.0, 1.0]);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-6);
        // grad = (sigmoid(0) - y)/n = (0.5 - y)/2
        assert!((grad.get(0, 0) - 0.25).abs() < 1e-6);
        assert!((grad.get(1, 0) + 0.25).abs() < 1e-6);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let z0 = 0.7f32;
        let labels = [1.0f32];
        let eps = 1e-3;
        let lp = bce_with_logits(&Matrix::from_vec(1, 1, vec![z0 + eps]), &labels).0;
        let lm = bce_with_logits(&Matrix::from_vec(1, 1, vec![z0 - eps]), &labels).0;
        let num = (lp - lm) / (2.0 * eps);
        let (_, grad) = bce_with_logits(&Matrix::from_vec(1, 1, vec![z0]), &labels);
        assert!((num - grad.get(0, 0)).abs() < 1e-3);
    }

    #[test]
    fn bce_is_stable_for_extreme_logits() {
        let logits = Matrix::from_vec(2, 1, vec![60.0, -60.0]);
        let (loss, grad) = bce_with_logits(&logits, &[1.0, 0.0]);
        assert!(loss.is_finite());
        assert!(loss < 1e-6, "confident correct predictions have ~0 loss");
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn softmax_ce_uniform_logits() {
        let logits = Matrix::zeros(1, 4);
        let (loss, grad) = softmax_cross_entropy(&logits, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-6);
        // p = 0.25 everywhere; grad = p - onehot.
        assert!((grad.get(0, 0) - 0.25).abs() < 1e-6);
        assert!((grad.get(0, 2) + 0.75).abs() < 1e-6);
    }

    #[test]
    fn softmax_ce_gradient_matches_finite_difference() {
        let base = vec![0.3f32, -0.2, 0.9];
        let labels = [1usize];
        let eps = 1e-3f32;
        let (_, grad) = softmax_cross_entropy(&Matrix::from_vec(1, 3, base.clone()), &labels);
        for c in 0..3 {
            let mut p = base.clone();
            p[c] += eps;
            let lp = softmax_cross_entropy(&Matrix::from_vec(1, 3, p), &labels).0;
            let mut m = base.clone();
            m[c] -= eps;
            let lm = softmax_cross_entropy(&Matrix::from_vec(1, 3, m), &labels).0;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - grad.get(0, c)).abs() < 1e-3, "class {c}");
        }
    }

    #[test]
    fn softmax_ce_stable_for_large_logits() {
        let logits = Matrix::from_vec(1, 3, vec![1000.0, 0.0, -1000.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn softmax_ce_rejects_bad_label() {
        let logits = Matrix::zeros(1, 3);
        let _ = softmax_cross_entropy(&logits, &[3]);
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.9, 0.1]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }
}

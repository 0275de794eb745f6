//! Server-side optimiser for embedding rows.
//!
//! The paper trains with plain SGD (§5), the only optimiser compatible
//! with the HET cache's read-my-updates approximation (the client applies
//! the same rule locally).

/// How the server applies pushed gradients to an embedding row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServerOptimizer {
    /// `x -= lr * g` — the paper's setting.
    Sgd,
}

impl ServerOptimizer {
    /// Applies one update to `row` with learning rate `lr`.
    pub fn apply(&self, row: &mut [f32], grad: &[f32], lr: f32) {
        debug_assert_eq!(row.len(), grad.len());
        match *self {
            ServerOptimizer::Sgd => {
                for (p, &g) in row.iter_mut().zip(grad) {
                    *p -= lr * g;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_applies_plain_step() {
        let mut row = vec![1.0f32, -1.0];
        ServerOptimizer::Sgd.apply(&mut row, &[2.0, -2.0], 0.5);
        assert_eq!(row, vec![0.0, 0.0]);
    }
}

//! Per-thread scratch matrices for values that carry nothing from one
//! call to the next.
//!
//! A dense step needs the same handful of temporaries every time — the
//! packed panel of a product, a weight-gradient temporary, the input
//! gradient on its way down an MLP, a loss gradient, the gathered
//! embedding input. [`Scratch::new`] lends one from a pool owned by the
//! calling thread and the guard's `Drop` puts it back, so after the
//! first step at a given set of shapes none of them touches the
//! allocator.
//!
//! The rule for which buffers live here: a buffer that holds **state**
//! between a layer's `forward` and its `backward` (the retained input,
//! the ReLU masks) belongs to the layer; a buffer that holds **nothing**
//! between calls comes from here. The pool is per thread rather than per
//! model replica because the simulator runs every replica of a job on
//! one thread: eight WDL replicas with ≈ 0.75 MB of private temporaries
//! each would add ≈ 6 MB to a 41 MiB process, one shared pool adds it
//! once.
//!
//! A lent matrix has **unspecified contents** — whatever its last
//! borrower left, NaN in builds with debug assertions — and every user
//! overwrites all of it; [`Scratch::zeros`] is the form for accumulators.

use crate::matrix::Matrix;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Buffers the pool keeps; one returned to a full pool is freed instead.
/// A dense step has about a dozen loans out at its peak.
const POOL_SLOTS: usize = 64;

/// Takes the pooled buffer that fits `len` most tightly, but none more
/// than twice as large — a small loan must not occupy the one big buffer
/// and send the next big loan to the allocator. A miss allocates.
fn take(len: usize) -> Vec<f32> {
    let pooled = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let pick = (0..pool.len())
            .filter(|&i| (len..=2 * len).contains(&pool[i].capacity()))
            .min_by_key(|&i| pool[i].capacity());
        pick.map(|i| pool.swap_remove(i))
    });
    // `try_with` fails only while the thread is shutting down.
    let mut buf = pooled.ok().flatten().unwrap_or_default();
    buf.resize(len, 0.0);
    if cfg!(debug_assertions) {
        buf.fill(f32::NAN);
    }
    buf
}

/// A matrix on loan from the calling thread's scratch pool; dropping it
/// returns the buffer. Dereferences to [`Matrix`].
pub struct Scratch(Matrix);

impl Scratch {
    /// A `rows × cols` matrix with unspecified contents.
    pub fn new(rows: usize, cols: usize) -> Scratch {
        Scratch(Matrix::from_vec(rows, cols, take(rows * cols)))
    }

    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Scratch {
        let mut m = Scratch::new(rows, cols);
        m.fill_zero();
        m
    }
}

impl Deref for Scratch {
    type Target = Matrix;
    fn deref(&self) -> &Matrix {
        &self.0
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut Matrix {
        &mut self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0).into_vec();
        // Failing means the thread is shutting down: the buffer is freed.
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_SLOTS {
                pool.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests may share a thread (`--test-threads=1`), and so a pool.
    fn empty_pool() {
        POOL.with(|p| p.borrow_mut().clear());
    }

    #[test]
    fn a_returned_buffer_is_lent_again() {
        empty_pool();
        let first = {
            let m = Scratch::new(3, 5);
            m.as_slice().as_ptr()
        };
        let again = Scratch::new(5, 3);
        assert_eq!(again.as_slice().as_ptr(), first);
        assert_eq!((again.rows(), again.cols()), (5, 3));
    }

    #[test]
    fn the_tightest_fit_within_twice_the_size_is_chosen() {
        empty_pool();
        let (small, big) = {
            let small = Scratch::new(1, 8);
            let big = Scratch::new(1, 64);
            (small.as_slice().as_ptr(), big.as_slice().as_ptr())
        };
        {
            let s = Scratch::new(1, 6);
            assert_eq!(s.as_slice().as_ptr(), small, "8 floats fit 6 tighter");
            let other = Scratch::new(1, 6);
            assert_ne!(
                other.as_slice().as_ptr(),
                big,
                "64 floats are too many for 6"
            );
            let b = Scratch::new(1, 40);
            assert_eq!(b.as_slice().as_ptr(), big);
        }
        assert_eq!(POOL.with(|p| p.borrow().len()), 3);
    }

    #[test]
    fn a_full_pool_frees_what_comes_back() {
        empty_pool();
        let loans: Vec<Scratch> = (0..POOL_SLOTS + 5).map(|_| Scratch::new(1, 4)).collect();
        drop(loans);
        assert_eq!(POOL.with(|p| p.borrow().len()), POOL_SLOTS);
    }

    #[test]
    fn zeros_clears_what_the_last_borrower_left() {
        {
            let mut m = Scratch::new(2, 2);
            m.as_mut_slice().fill(7.0);
        }
        assert_eq!(Scratch::zeros(2, 2).as_slice(), &[0.0; 4]);
    }
}

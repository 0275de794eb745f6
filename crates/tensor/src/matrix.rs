//! Row-major f32 matrices and the handful of BLAS-level operations the
//! embedding models need.
//!
//! # One product kernel
//!
//! `matmul`, `matmul_tn` and `matmul_nt` are one computation,
//! `C[i][j] = Σ_p A(i,p)·B(p,j)`, and run on one register-tiled kernel
//! (`gemm`). It first packs `B` into contiguous `k × NR` panels, one per
//! [`NR`] columns of `C` (read transposed for `matmul_nt`), then takes
//! `A` sixteen rows at a time and packs them into `k × MR` strips (read
//! transposed for `matmul_tn`); `tile` — the only multiply-accumulate
//! loop nest here — multiplies one strip with one panel, holding the
//! [`MR`]` × `[`NR`] partial sums in local accumulators across the whole
//! `p` loop. Ragged edges are zero-padded in the packed copies, so the
//! loop only ever sees full tiles; the padding's outputs are not stored.
//! Strips and panels are [`Scratch`] loans, not allocations.
//!
//! # The accumulation-order contract
//!
//! Every element of every product is computed as
//! `acc = +0.0; for p ascending { acc += a * b }` — one `f32` multiply,
//! then one `f32` add, never fused, never re-associated. That is the
//! order the original per-product loop nests used, so results are
//! bit-equal to them, to the naive triple loop, and to each other across
//! tile sizes; the simulator's byte-identical reports rest on it.
//! Nothing here may introduce FMA, a `target-cpu` flag, runtime CPU
//! dispatch or a split of the `p` loop into partial sums.
//!
//! # Non-finite operands
//!
//! The kernel multiplies every pair it is given: `0.0 · ∞` and
//! `0.0 · NaN` are `NaN` and reach the output. (The loop nests this
//! kernel replaced skipped a term whose left factor was `0.0`; for
//! finite operands that never changed a bit — an accumulator that starts
//! at `+0.0` is never `-0.0`, so adding `±0.0` is the identity — but it
//! hid a non-finite weight behind every zero input.)

use crate::scratch::Scratch;
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, keeping `self`'s buffer when it is
    /// large enough (the derive would allocate a new one).
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

/// Rows of `C` per packed strip of `A`.
pub const MR: usize = 2;
/// Columns of `C` per packed panel of `B`. `MR × NR = 2 × 16` is eight
/// SSE accumulators, which leaves baseline x86-64 (16 vector registers,
/// no FMA) room for the four `B` vectors and the broadcast `A` value; it
/// measured fastest of the shapes tried — see EXPERIMENTS.md.
pub const NR: usize = 16;

/// The multiply-accumulate loop: `acc[r][j] = Σ_p strip[p][r]·panel[p][j]`
/// over a `k × MR` strip of `A` and a `k × NR` panel of `B`, each sum
/// taken in ascending `p` from `+0.0`. Kept out of line so its code does
/// not depend on the caller it would be inlined into.
#[inline(never)]
fn tile(strip: &[f32], panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in strip.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        for (acc, &a) in acc.iter_mut().zip(a) {
            for (o, &b) in acc.iter_mut().zip(b) {
                *o += a * b;
            }
        }
    }
    acc
}

/// Rows of `A` packed together, as `MC / MR` strips: one cache line of a
/// transposed `A`, so each line is fetched once rather than once per strip.
const MC: usize = 16;

/// Packs rows `i0..i0+mc` (`mc ≤ MC`) of `A` (`m × k`) into `strips`
/// (`MC / MR` strips of `k × MR`, zero-padded): row `i0+r` goes to strip
/// `r / MR`, `strip[p][r % MR] = A(i0+r, p)`. `A(i,p)` is `lhs[i·k + p]`,
/// or `lhs[p·m + i]` when `transposed` (then `lhs` holds `Aᵀ`, `k × m`).
fn pack_a(
    lhs: &[f32],
    transposed: bool,
    (m, k): (usize, usize),
    (i0, mc): (usize, usize),
    strips: &mut [f32],
) {
    if mc < MC {
        strips.fill(0.0);
    }
    if transposed {
        for (p, src) in lhs[i0..].chunks(m).enumerate() {
            for (s, rows) in src[..mc].chunks(MR).enumerate() {
                for (dst, &v) in strips[(s * k + p) * MR..][..MR].iter_mut().zip(rows) {
                    *dst = v;
                }
            }
        }
    } else {
        for (r, row) in lhs[i0 * k..(i0 + mc) * k].chunks_exact(k).enumerate() {
            let strip = &mut strips[r / MR * k * MR..][..k * MR];
            for (dst, &v) in strip.chunks_exact_mut(MR).zip(row) {
                dst[r % MR] = v;
            }
        }
    }
}

/// Packs `B` (`k × n`) into `packed`, one `k × NR` panel after another,
/// the last zero-padded. `B[p][j]` is `rhs[p·n + j]`, or `rhs[j·k + p]`
/// when `transposed` (then `rhs` holds `Bᵀ`, `n × k`).
fn pack_b(rhs: &[f32], transposed: bool, (k, n): (usize, usize), packed: &mut [f32]) {
    for (j0, panel) in (0..n).step_by(NR).zip(packed.chunks_exact_mut(k * NR)) {
        let nr = NR.min(n - j0);
        if nr < NR {
            panel.fill(0.0);
        }
        if transposed {
            for (j, col) in rhs[j0 * k..(j0 + nr) * k].chunks_exact(k).enumerate() {
                for (dst, &v) in panel.chunks_exact_mut(NR).zip(col) {
                    dst[j] = v;
                }
            }
        } else {
            for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                dst[..nr].copy_from_slice(&rhs[p * n + j0..p * n + j0 + nr]);
            }
        }
    }
}

/// The one product: `out[i][j] = Σ_p A(i,p)·B(p,j)` for an `m × k` `A`
/// held in `lhs` and a `k × n` `B` held in `rhs`, either of them possibly
/// stored transposed (see [`pack_a`], [`pack_b`]). Overwrites all of
/// `out` (`m × n`, row-major).
fn gemm(
    (m, k, n): (usize, usize, usize),
    (lhs, lhs_transposed): (&[f32], bool),
    (rhs, rhs_transposed): (&[f32], bool),
    out: &mut [f32],
) {
    if k == 0 {
        return out.fill(0.0);
    }
    let mut packed = Scratch::new(n.div_ceil(NR) * k, NR);
    pack_b(rhs, rhs_transposed, (k, n), packed.as_mut_slice());
    let mut strips = Scratch::new(k, MC);
    for i0 in (0..m).step_by(MC) {
        let mc = MC.min(m - i0);
        pack_a(lhs, lhs_transposed, (m, k), (i0, mc), strips.as_mut_slice());
        for (i, strip) in (i0..i0 + mc)
            .step_by(MR)
            .zip(strips.as_slice().chunks_exact(k * MR))
        {
            let mr = MR.min(m - i);
            for (j0, panel) in (0..n)
                .step_by(NR)
                .zip(packed.as_slice().chunks_exact(k * NR))
            {
                let nr = NR.min(n - j0);
                let acc = tile(strip, panel);
                for (r, acc) in acc.iter().enumerate().take(mr) {
                    let at = (i + r) * n + j0;
                    out[at..at + nr].copy_from_slice(&acc[..nr]);
                }
            }
        }
    }
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Gives the buffer back, the inverse of [`Matrix::from_vec`].
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Changes the shape in place, keeping the buffer when it is large
    /// enough. The contents afterwards are unspecified: callers overwrite
    /// every element.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Fills the matrix with zeros, keeping its allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self @ rhs` — matrix product `(m×k) @ (k×n) = (m×n)`, written
    /// over `out`, which is reshaped to `m × n` first (its buffer is kept
    /// when large enough; whatever it held is gone).
    ///
    /// Every element is `Σ_p self[i][p]·rhs[p][j]` accumulated in
    /// ascending `p` from `+0.0`, multiply then add — see the module
    /// docs. No term is skipped: a non-finite factor on either side
    /// reaches the output even when it meets a zero.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimensions must match");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.reshape(m, n);
        gemm(
            (m, k, n),
            (&self.data, false),
            (&rhs.data, false),
            &mut out.data,
        );
    }

    /// `selfᵀ @ rhs` into `out` — used for weight gradients:
    /// `gW = xᵀ @ dy`. Same contract as [`Matrix::matmul_into`].
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn outer dimensions must match");
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        out.reshape(m, n);
        gemm(
            (m, k, n),
            (&self.data, true),
            (&rhs.data, false),
            &mut out.data,
        );
    }

    /// `self @ rhsᵀ` into `out` — used for input gradients:
    /// `dx = dy @ Wᵀ`. Same contract as [`Matrix::matmul_into`].
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt inner dimensions must match");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.reshape(m, n);
        gemm(
            (m, k, n),
            (&self.data, false),
            (&rhs.data, true),
            &mut out.data,
        );
    }

    /// [`Matrix::matmul_into`] into a new matrix.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_tn_into`] into a new matrix.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_nt_into`] into a new matrix.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// Adds a row vector (broadcast over rows), e.g. a bias.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, v: &[f32]) {
        assert_eq!(
            v.len(),
            self.cols,
            "broadcast vector must match column count"
        );
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(v) {
                *o += b;
            }
        }
    }

    /// Element-wise `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise (Hadamard) product into a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of each column, e.g. a bias gradient, written over `out`
    /// (reshaped to `1 × cols`): each sum starts at `0.0` and adds the
    /// rows top to bottom.
    pub fn col_sums_into(&self, out: &mut Matrix) {
        out.reshape(1, self.cols);
        out.fill_zero();
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Sum of each row.
    pub fn row_sums(&self) -> Vec<f32> {
        self.data
            .chunks_exact(self.cols.max(1))
            .map(|row| row.iter().sum())
            .collect()
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hcat(&self, other: &Matrix) -> Scratch {
        assert_eq!(self.rows, other.rows, "hcat row counts must match");
        let mut out = Scratch::new(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let (left, right) = out.row_mut(r).split_at_mut(self.cols);
            left.copy_from_slice(self.row(r));
            right.copy_from_slice(other.row(r));
        }
        out
    }

    /// Splits columns at `at`, the inverse of [`Matrix::hcat`].
    pub fn hsplit(&self, at: usize) -> (Scratch, Scratch) {
        assert!(at <= self.cols, "split point beyond column count");
        let mut left = Scratch::new(self.rows, at);
        let mut right = Scratch::new(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }

    /// Vertical concatenation `[self; other]`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vcat(&self, other: &Matrix) -> Scratch {
        assert_eq!(self.cols, other.cols, "vcat column counts must match");
        let mut out = Scratch::new(self.rows + other.rows, self.cols);
        let (top, bottom) = out.data.split_at_mut(self.data.len());
        top.copy_from_slice(&self.data);
        bottom.copy_from_slice(&other.data);
        out
    }

    /// Splits rows at `at`, the inverse of [`Matrix::vcat`].
    pub fn vsplit(&self, at: usize) -> (Scratch, Scratch) {
        assert!(at <= self.rows, "split point beyond row count");
        let mut top = Scratch::new(at, self.cols);
        let mut bottom = Scratch::new(self.rows - at, self.cols);
        let (above, below) = self.data.split_at(at * self.cols);
        top.data.copy_from_slice(above);
        bottom.data.copy_from_slice(below);
        (top, bottom)
    }

    /// FLOPs of `a.matmul(b)` for cost accounting (2·m·k·n).
    pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
        2.0 * m as f64 * k as f64 * n as f64
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3x2
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]); // 3x2
                                                          // aT (2x3) @ b (3x2) = 2x2
        let c = a.matmul_tn(&b);
        let at = Matrix::from_fn(2, 3, |r, c2| a.get(c2, r));
        let expect = at.matmul(&b);
        assert_eq!(c.as_slice(), expect.as_slice());
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 2x3
        let b = m(4, 3, &[1.0; 12]); // 4x3
        let c = a.matmul_nt(&b); // 2x4
        let bt = Matrix::from_fn(3, 4, |r, c2| b.get(c2, r));
        let expect = a.matmul(&bt);
        assert_eq!(c.as_slice(), expect.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn broadcast_and_axpy() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let b = m(2, 2, &[1.0; 4]);
        a.axpy(-1.0, &b);
        assert_eq!(a.as_slice(), &[10.0, 21.0, 12.0, 23.0]);
    }

    #[test]
    fn sums_and_norm() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut cols = Matrix::from_vec(2, 1, vec![f32::NAN; 2]);
        a.col_sums_into(&mut cols);
        assert_eq!((cols.rows(), cols.as_slice()), (1, &[5.0, 7.0, 9.0][..]));
        assert_eq!(a.row_sums(), vec![6.0, 15.0]);
        let b = m(1, 2, &[3.0, 4.0]);
        assert!((b.frob_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn hcat_then_hsplit_round_trips() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[9.0, 8.0]);
        let c = a.hcat(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        let (l, r) = c.hsplit(2);
        assert_eq!(l.as_slice(), a.as_slice());
        assert_eq!(r.as_slice(), b.as_slice());
    }

    #[test]
    fn vcat_then_vsplit_round_trips() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = a.vcat(&b);
        assert_eq!((c.rows(), c.cols()), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
        let (t, bt) = c.vsplit(1);
        assert_eq!(t.as_slice(), a.as_slice());
        assert_eq!(bt.as_slice(), b.as_slice());
    }

    #[test]
    fn hadamard_elementwise() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[2.0, 2.0, 0.5, 0.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[2.0, 4.0, 1.5, 0.0]);
    }

    #[test]
    fn fill_zero_keeps_shape() {
        let mut a = m(2, 2, &[1.0; 4]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0; 4]);
        assert_eq!((a.rows(), a.cols()), (2, 2));
    }

    #[test]
    fn flops_formula() {
        assert_eq!(Matrix::matmul_flops(2, 3, 4), 48.0);
    }
}

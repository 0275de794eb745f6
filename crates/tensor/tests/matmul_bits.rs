//! The three products against the naive triple loop, bit for bit.
//!
//! The reference is the accumulation-order contract written out:
//! `acc = 0.0; for p ascending { acc += a * b }`, no term skipped. The
//! kernel tiles, packs and pads but may not change a single bit of any
//! output, whatever the shape and whatever zeros, negative zeros,
//! subnormals or cancelling pairs the operands carry.

use het_rng::rngs::StdRng;
use het_rng::{Rng, SeedableRng};
use het_tensor::matrix::{MR, NR};
use het_tensor::Matrix;

/// `C[i][j] = Σ_p a(i,p)·b(p,j)` for operands given as accessors.
fn reference(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut c = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            c.push(acc);
        }
    }
    c
}

/// Values in `(-1, 1)` salted with the cases that break sloppy kernels:
/// both zeros, subnormals, and — written by [`salted`] — adjacent
/// entries that cancel exactly.
fn salt(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..10u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)), // subnormal
        3 => -f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
        4 => rng.gen_range(-1.0f32..1.0) * 1e-30,
        _ => rng.gen_range(-1.0f32..1.0),
    }
}

fn salted(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::from_fn(rows, cols, |_, _| salt(rng));
    // Exact-cancellation pairs: x, -x side by side, along both axes, so
    // some partial sums pass through zero whichever way the matrix is read.
    for _ in 0..(rows * cols) / 8 {
        let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
        let v = m.get(r, c);
        if c + 1 < cols {
            m.set(r, c + 1, -v);
        }
        if r + 1 < rows {
            m.set(r + 1, c, -v);
        }
    }
    m
}

fn assert_bits(label: &str, shape: (usize, usize, usize), got: &Matrix, want: &[f32]) {
    assert_eq!(
        (got.rows(), got.cols()),
        (shape.0, shape.2),
        "{label} {shape:?}: shape"
    );
    for (at, (g, w)) in got.as_slice().iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label} {shape:?}: element {at} is {g:e}, the reference says {w:e}"
        );
    }
}

/// Checks all three products, allocating and `_into`, at one shape. The
/// `_into` forms get an `out` of another shape filled with NaN: they
/// must reshape it and overwrite every element, not accumulate into it.
fn check(rng: &mut StdRng, (m, k, n): (usize, usize, usize)) {
    let shape = (m, k, n);
    let a = salted(rng, m, k);
    let b = salted(rng, k, n);
    let at = Matrix::from_fn(k, m, |r, c| a.get(c, r));
    let bt = Matrix::from_fn(n, k, |r, c| b.get(c, r));
    let want = reference(shape, |i, p| a.get(i, p), |p, j| b.get(p, j));
    let dirty = || Matrix::from_vec(3, 5, vec![f32::NAN; 15]);

    assert_bits("matmul", shape, &a.matmul(&b), &want);
    assert_bits("matmul_tn", shape, &at.matmul_tn(&b), &want);
    assert_bits("matmul_nt", shape, &a.matmul_nt(&bt), &want);

    let mut out = dirty();
    a.matmul_into(&b, &mut out);
    assert_bits("matmul_into", shape, &out, &want);
    let mut out = dirty();
    at.matmul_tn_into(&b, &mut out);
    assert_bits("matmul_tn_into", shape, &out, &want);
    let mut out = dirty();
    a.matmul_nt_into(&bt, &mut out);
    assert_bits("matmul_nt_into", shape, &out, &want);
}

#[test]
fn every_product_is_bit_equal_to_the_naive_loop_at_the_edge_sizes() {
    // Around every blocking constant (the packing block is NR rows too),
    // plus the empty and the unit case.
    let edges = [0, 1, MR - 1, MR + 1, NR - 1, NR, NR + 1, 2 * NR + 1];
    let mut rng = StdRng::seed_from_u64(19);
    for &m in &edges {
        for &k in &edges {
            for &n in &edges {
                check(&mut rng, (m, k, n));
            }
        }
    }
}

#[test]
fn every_product_is_bit_equal_to_the_naive_loop_at_seeded_random_shapes() {
    // 832 is the WDL input width; it takes each role in turn with small
    // partners so the reference stays cheap.
    let sizes = [0, 1, MR - 1, MR + 1, NR - 1, NR + 1, 832];
    let mut rng = StdRng::seed_from_u64(0x19_19);
    let mut wide = 0;
    for _ in 0..60 {
        let mut pick = || sizes[rng.gen_range(0..sizes.len())];
        let shape = (pick(), pick(), pick());
        let big = [shape.0, shape.1, shape.2]
            .iter()
            .filter(|&&d| d == 832)
            .count();
        if big > 1 {
            continue;
        }
        wide += big;
        check(&mut rng, shape);
    }
    assert!(wide >= 5, "the sample must reach the wide shapes");
    // The benchmark's own first-layer shapes, all three roles of 832.
    check(&mut rng, (128, 832, 64));
    check(&mut rng, (832, 128, 64));
    check(&mut rng, (128, 64, 832));
}

#[test]
fn a_zero_does_not_hide_a_non_finite_factor() {
    // 0·∞ and 0·NaN are NaN and reach the output, from either side and
    // through all three products; the finite column beside them is
    // untouched.
    for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let zero_row = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let w = Matrix::from_vec(2, 2, vec![bad, 2.0, 3.0, 4.0]);
        let wt = Matrix::from_fn(2, 2, |r, c| w.get(c, r));
        let zt = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        for y in [
            zero_row.matmul(&w),
            zt.matmul_tn(&w),
            zero_row.matmul_nt(&wt),
        ] {
            assert!(y.get(0, 0).is_nan(), "0·{bad} must surface as NaN");
            assert_eq!(y.get(0, 1), 4.0);
        }
        // ... and from the left operand against a zero on the right.
        let x = Matrix::from_vec(1, 2, vec![bad, 1.0]);
        let z = Matrix::from_vec(2, 1, vec![0.0, 5.0]);
        assert!(x.matmul(&z).get(0, 0).is_nan());
    }
}

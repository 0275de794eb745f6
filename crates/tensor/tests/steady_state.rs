//! A dense step at a repeated shape allocates nothing, and what scratch
//! buffers held before never shows in a result.

use het_rng::rngs::StdRng;
use het_rng::SeedableRng;
use het_tensor::loss::bce_with_logits;
use het_tensor::{FlatGrads, Matrix, Mlp, Scratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations (tests run on threads of
/// their own, so one test's count is not another's).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// `const`-initialised `Cell` without a destructor, so touching it neither
// allocates nor runs after the thread-local is gone (`try_with` covers
// thread shutdown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn input(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) % 23) as f32 / 23.0 - 0.4
    })
}

/// One training step; returns every bit it produced: loss, logits, input
/// gradient and the accumulated weight and bias gradients.
fn step(mlp: &mut Mlp, x: &Matrix, labels: &[f32]) -> Vec<u32> {
    let y = mlp.forward(x);
    let (loss, dy) = bce_with_logits(&y, labels);
    let dx = mlp.backward(&dy);
    let mut grads = FlatGrads::new();
    grads.export_from(mlp);
    let values = y
        .as_slice()
        .iter()
        .chain(dx.as_slice())
        .chain(grads.as_slice());
    std::iter::once(&loss)
        .chain(values)
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn mlp_forward_backward_allocates_nothing_after_the_first_step() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut mlp = Mlp::new(&mut rng, &[52, 24, 9, 1]);
    let x = input(33, 52);
    let labels: Vec<f32> = (0..33).map(|i| (i % 3 == 0) as u8 as f32).collect();
    let run = |mlp: &mut Mlp| {
        let y = mlp.forward(&x);
        let (_, dy) = bce_with_logits(&y, &labels);
        mlp.backward(&dy);
    };
    assert!(
        allocations_during(|| run(&mut mlp)) > 0,
        "the counter works"
    );
    for step in 2..6 {
        let n = allocations_during(|| run(&mut mlp));
        assert_eq!(n, 0, "step {step} allocated {n} times");
    }
    // Inference borrows its input and reuses the same pool.
    let _ = mlp.forward_inference(&x);
    let n = allocations_during(|| {
        mlp.forward_inference(&x);
    });
    assert_eq!(n, 0, "forward_inference allocated {n} times");
}

#[test]
fn dirty_scratch_never_leaks_into_a_result() {
    let x = input(19, 37);
    let labels: Vec<f32> = (0..19).map(|i| (i % 2) as f32).collect();
    let fresh_model = || Mlp::new(&mut StdRng::seed_from_u64(8), &[37, 18, 5, 1]);

    // Reference: a thread whose pool starts empty.
    let clean = std::thread::scope(|s| {
        s.spawn(|| {
            let mut mlp = fresh_model();
            (step(&mut mlp, &x, &labels), step(&mut mlp, &x, &labels))
        })
        .join()
        .expect("reference thread")
    });

    let finite = |bits: &[u32]| bits.iter().all(|&b| f32::from_bits(b).is_finite());
    assert!(finite(&clean.0) && finite(&clean.1));

    // Same steps over a pool stocked with buffers of every size the step
    // will ask for, each filled with a value that would wreck any sum it
    // leaked into.
    for poison in [f32::NAN, f32::INFINITY, 1e30] {
        let stock: Vec<Scratch> = [1, 5, 18, 37, 64, 37 * 18, 19 * 37, 2 * 19 * 37]
            .iter()
            .flat_map(|&len| [len, len])
            .map(|len| {
                let mut m = Scratch::new(1, len);
                m.as_mut_slice().fill(poison);
                m
            })
            .collect();
        drop(stock);
        let mut again = fresh_model();
        assert_eq!(step(&mut again, &x, &labels), clean.0, "poison {poison}");
        assert_eq!(step(&mut again, &x, &labels), clean.1, "poison {poison}");
    }
}

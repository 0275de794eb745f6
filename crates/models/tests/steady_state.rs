//! `WideDeep::forward_backward` in steady state allocates its result —
//! the per-key gradient map — and nothing else.

use het_data::{CtrBatch, CtrConfig, CtrDataset};
use het_models::{EmbeddingModel, EmbeddingStore, SparseGrads, WideDeep};
use het_rng::rngs::StdRng;
use het_rng::SeedableRng;
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

fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn resolve(batch: &CtrBatch, dim: usize) -> EmbeddingStore {
    let mut store = EmbeddingStore::new(dim);
    for k in batch.unique_keys() {
        let v = (0..dim)
            .map(|i| ((k.wrapping_mul(31).wrapping_add(i as u64) % 97) as f32 / 97.0 - 0.5) * 0.2)
            .collect();
        store.insert(k, v);
    }
    store
}

#[test]
fn forward_backward_allocates_only_the_gradients_it_returns() {
    let ds = CtrDataset::new(CtrConfig::tiny(4));
    let dim = 8;
    let mut model = WideDeep::new(&mut StdRng::seed_from_u64(6), 4, dim, &[16, 8]);
    // Two batches of one shape: the steady state is the shape repeating,
    // not the keys.
    let batches = [ds.train_batch(0, 32), ds.train_batch(1, 32)];
    let stores = [resolve(&batches[0], dim), resolve(&batches[1], dim)];
    model.forward_backward(&batches[0], &stores[0]);

    for step in 1..5 {
        let (batch, store) = (&batches[step % 2], &stores[step % 2]);
        // What the returned value costs on its own: the same keys entering
        // an empty map in the same order (one vector per new key, plus the
        // table's growth steps).
        let (result_only, replay) = allocations_during(|| {
            let mut g = SparseGrads::new(dim);
            for i in 0..batch.len() {
                for &k in batch.example_keys(i) {
                    g.slot_mut(k);
                }
            }
            g
        });
        let (n, (_, grads)) = allocations_during(|| model.forward_backward(batch, store));
        assert_eq!(grads.len(), replay.len());
        assert!(result_only >= grads.len() as u64);
        assert_eq!(
            n,
            result_only,
            "step {step}: {n} allocations for a result that costs {result_only} ({} keys)",
            grads.len()
        );
    }
}

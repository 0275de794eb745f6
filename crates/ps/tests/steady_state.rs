//! Batched server operations over resident rows allocate nothing once
//! the calling thread's grouping buffers and the caller's output
//! buffers have grown to the batch.

use het_ps::{Key, PsConfig, PsServer};
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

const DIM: usize = 8;

fn server() -> PsServer {
    let mut cfg = PsConfig::new(DIM);
    cfg.n_shards = 8;
    PsServer::new(cfg)
}

#[test]
fn batched_pulls_pushes_and_clock_queries_allocate_nothing_after_the_first() {
    let server = server();
    // A GNN-sized batch of distinct keys spread over every shard.
    let keys: Vec<Key> = (0..2_000u64).map(|i| i * 7_919 % 100_003).collect();
    let items: Vec<(Key, Vec<f32>)> = keys.iter().map(|&k| (k, vec![0.01; DIM])).collect();
    let (mut rows, mut clocks) = (Vec::new(), Vec::new());
    let mut batch = || {
        rows.clear();
        clocks.clear();
        server.pull_into(&keys, &mut rows, &mut clocks);
        clocks.clear();
        server.clocks_of(&keys, &mut clocks);
        server.push_inc_many(&items, |(_, g)| g);
        server.push_with_clock_many(&items, |(_, g)| (g, 7));
    };
    // The first batch materialises the rows and grows every buffer.
    assert!(allocations_during(&mut batch) > 0);
    for round in 2..=6 {
        assert_eq!(allocations_during(&mut batch), 0, "batch {round}");
    }
    assert_eq!(rows.len(), keys.len() * DIM);
}

#[test]
fn single_key_calls_allocate_only_the_row_they_return() {
    let server = server();
    let grad = vec![0.01; DIM];
    let _ = server.pull(42);
    assert_eq!(
        allocations_during(|| {
            server.push_inc(42, &grad);
            server.push_with_clock(42, &grad, 9);
            assert_eq!(server.clock_of(42), 9);
        }),
        0
    );
    assert_eq!(allocations_during(|| drop(server.pull(42))), 1);
}

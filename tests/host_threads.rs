//! Host parallelism inside a simulated BSP round (DESIGN.md §3.2): the
//! stages no other worker reads — sampling, forward/backward, the dense
//! step — run on helper threads, the server stages in worker order on
//! the event loop's thread. What the simulator reports and traces may
//! not depend on how many host threads it had:
//!
//! * the ledger's training families — sync, prefetch, policy zoo,
//!   tiered store, colocated — match `tests/golden/digests.tsv` with a
//!   round pinned to 1, 2 and 4 host threads, on any host;
//! * a forward pass that panics on a helper fails the run with its own
//!   message, instead of leaving the event loop waiting for it;
//! * a one-worker job computes on the event loop's thread alone.

mod cells;

use het::prelude::*;
use het::tensor::{HasParams, ParamVisitor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

#[test]
fn ledger_training_cells_match_at_1_2_and_4_host_threads() {
    for threads in [1, 2, 4] {
        for family in ["sync/", "prefetch/", "policy/", "tiered/", "colocate/"] {
            // Shown with the failure: which pinning moved a cell.
            eprintln!("checking {family} at {threads} host threads");
            cells::check_family_at(family, Some(threads));
        }
    }
}

/// Wide&Deep that notes the thread of every forward/backward pass and,
/// when built `n`-th with `n == panics`, panics in its first one.
struct Probe {
    inner: WideDeep,
    panics: bool,
    threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl Probe {
    /// Replicas are built in worker order: the `n`-th built is worker
    /// `n`'s.
    fn factory(
        panics: Option<usize>,
        threads: Arc<Mutex<Vec<ThreadId>>>,
    ) -> impl Fn(&mut het_rng::rngs::StdRng) -> Probe {
        let built = AtomicUsize::new(0);
        move |rng| Probe {
            inner: WideDeep::new(rng, 4, 8, &[16]),
            panics: panics == Some(built.fetch_add(1, Ordering::SeqCst)),
            threads: Arc::clone(&threads),
        }
    }
}

impl HasParams for Probe {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        self.inner.visit_params(visitor);
    }
}

impl EmbeddingModel for Probe {
    type Batch = CtrBatch;
    fn embedding_dim(&self) -> usize {
        self.inner.embedding_dim()
    }
    fn forward_backward(&mut self, batch: &CtrBatch, store: &EmbeddingStore) -> (f32, SparseGrads) {
        assert!(!self.panics, "injected: worker 5's forward pass failed");
        self.threads.lock().unwrap().push(thread::current().id());
        self.inner.forward_backward(batch, store)
    }
    fn evaluate(&self, batch: &CtrBatch, store: &EmbeddingStore) -> het::models::EvalChunk {
        self.inner.evaluate(batch, store)
    }
    fn metric_kind(&self) -> MetricKind {
        self.inner.metric_kind()
    }
    fn flops_per_batch(&self, n: usize) -> f64 {
        self.inner.flops_per_batch(n)
    }
}

fn config(workers: usize) -> TrainerConfig {
    let mut config = TrainerConfig::tiny(SystemPreset::HetCache { staleness: 10 });
    config.cluster = ClusterSpec::cluster_a(workers, 1);
    config.max_iterations = 48;
    config
}

#[test]
fn a_panicking_compute_fails_the_run_instead_of_hanging_it() {
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| {
            let dataset = CtrDataset::new(CtrConfig::tiny(3));
            let model = Probe::factory(Some(5), Arc::default());
            Trainer::new(config(8), dataset, model)
                .with_host_threads(4)
                .run()
        });
        let _ = tx.send(outcome.map(|_| ()));
    });
    let payload = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run hung after a compute panicked")
        .expect_err("the injected panic never reached Trainer::run");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    assert_eq!(message, Some("injected: worker 5's forward pass failed"));
}

#[test]
fn one_worker_computes_on_the_event_loop_thread() {
    let threads = Arc::new(Mutex::new(Vec::new()));
    let dataset = CtrDataset::new(CtrConfig::tiny(3));
    let model = Probe::factory(None, Arc::clone(&threads));
    let report = Trainer::new(config(1), dataset, model)
        .with_host_threads(4)
        .run();
    let threads = threads.lock().unwrap();
    assert_eq!(threads.len() as u64, report.total_iterations);
    assert!(threads.iter().all(|&t| t == thread::current().id()));
}

//! Helper threads for the stages of a simulated BSP round that no other
//! worker reads (DESIGN.md §3.2, *Host parallelism inside a BSP round*).
//!
//! [`Helpers::run`] starts `n` scoped helper threads beside the calling
//! thread, the event loop's, for the length of one closure. Jobs go on
//! one FIFO queue; a helper takes the oldest. The calling thread keeps
//! the ordered work — every server call, fault draw and trace emission —
//! and when it must wait for a job's result ([`Helpers::wait`]) it runs
//! queued jobs itself instead of idling. With no helpers every job runs
//! on the calling thread, at the point it is waited for or, if an
//! earlier wait reaches it first, there — in the order it was queued.
//!
//! A job that panics does not take its thread down: the panic is kept
//! as the job's result and resumed on the calling thread by the `wait`
//! for that job, so it unwinds out of the round (and out of
//! `Trainer::run`) instead of leaving the loop waiting on a result that
//! never comes. Leaving the closure, by return or by unwind, drops the
//! jobs still queued and lets the helpers go.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

type Job<'j> = Box<dyn FnOnce() + Send + 'j>;

struct Queue<'j> {
    jobs: VecDeque<Job<'j>>,
    /// Cleared when the closure ends: the helpers then leave.
    open: bool,
}

/// A queued job's result, taken by [`Helpers::wait`].
pub(super) struct Ticket<T>(Arc<Mutex<Option<thread::Result<T>>>>);

/// A job queue served by helper threads and by the thread that waits on
/// it. Jobs may borrow anything that outlives the [`Helpers::run`] call.
pub(super) struct Helpers<'j> {
    queue: Mutex<Queue<'j>>,
    /// Signals a queued job (to helpers) and a finished one (to `wait`).
    changed: Condvar,
}

impl<'j> Helpers<'j> {
    /// Runs `body` with `helpers` helper threads serving its jobs; no
    /// thread is started when `helpers` is 0.
    pub(super) fn run<R>(helpers: usize, body: impl FnOnce(&Helpers<'j>) -> R) -> R {
        let pool = Helpers {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
            }),
            changed: Condvar::new(),
        };
        /// Closes the queue on the way out of the scope, unwinding too,
        /// so the scope's join finds every helper leaving.
        struct Close<'a, 'j>(&'a Helpers<'j>);
        impl Drop for Close<'_, '_> {
            fn drop(&mut self) {
                let mut queue = self.0.lock();
                queue.open = false;
                queue.jobs.clear();
                self.0.changed.notify_all();
            }
        }
        thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(|| pool.serve());
            }
            let _close = Close(&pool);
            body(&pool)
        })
    }

    fn lock(&self) -> MutexGuard<'_, Queue<'j>> {
        // Jobs run outside the lock and their panics are caught, so no
        // holder of it unwinds; a poisoned lock is still sound to use.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `job`; its result is collected with [`Helpers::wait`].
    pub(super) fn spawn<T: Send + 'j>(&self, job: impl FnOnce() -> T + Send + 'j) -> Ticket<T> {
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let job: Job<'j> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            *out.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        });
        self.lock().jobs.push_back(job);
        self.changed.notify_all();
        Ticket(slot)
    }

    /// The result of `ticket`'s job, running queued jobs (oldest first)
    /// on this thread until it is ready. Resumes the job's panic, if it
    /// panicked.
    pub(super) fn wait<T>(&self, ticket: Ticket<T>) -> T {
        let mut queue = self.lock();
        loop {
            // Checked under the queue lock, which a finishing helper
            // takes to signal: a result cannot land unseen between this
            // check and the wait below.
            let done = ticket.0.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(result) = done {
                drop(queue);
                return result.unwrap_or_else(|panic| resume_unwind(panic));
            }
            queue = match queue.jobs.pop_front() {
                Some(job) => {
                    drop(queue);
                    job();
                    self.lock()
                }
                None => self.changed.wait(queue).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }

    /// A helper thread's loop: run the oldest job until the queue closes.
    fn serve(&self) {
        let mut queue = self.lock();
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                drop(queue);
                job();
                queue = self.lock();
                self.changed.notify_all();
            } else if !queue.open {
                return;
            } else {
                queue = self.changed.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn without_helpers_jobs_run_on_the_caller_in_queue_order() {
        let order = Mutex::new(Vec::new());
        let caller = thread::current().id();
        Helpers::run(0, |pool| {
            let log = |i| {
                let order = &order;
                move || {
                    assert_eq!(thread::current().id(), caller);
                    order.lock().unwrap().push(i);
                    i
                }
            };
            // Waiting for the third runs the first two on the way.
            let [a, b, c, d] = [0, 1, 2, 3].map(|i| pool.spawn(log(i)));
            assert_eq!(pool.wait(c), 2);
            assert_eq!(*order.lock().unwrap(), [0, 1, 2]);
            assert_eq!([pool.wait(a), pool.wait(b), pool.wait(d)], [0, 1, 3]);
        });
        assert_eq!(*order.into_inner().unwrap(), [0, 1, 2, 3]);
    }

    #[test]
    fn helpers_run_borrowing_jobs_and_every_result_comes_back() {
        let mut slots = [0u64; 16];
        let ran = AtomicUsize::new(0);
        let sum: u64 = Helpers::run(3, |pool| {
            let tickets: Vec<_> = (slots.iter_mut().enumerate())
                .map(|(i, slot)| {
                    let ran = &ran;
                    pool.spawn(move || {
                        *slot = (i * i) as u64;
                        ran.fetch_add(1, Ordering::SeqCst);
                        *slot
                    })
                })
                .collect();
            tickets.into_iter().map(|t| pool.wait(t)).sum()
        });
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        assert_eq!(sum, (0..16u64).map(|i| i * i).sum());
        assert_eq!(slots[5], 25);
    }

    #[test]
    fn a_panicking_job_unwinds_out_of_the_wait_for_it() {
        let caught = catch_unwind(|| {
            Helpers::run(2, |pool| {
                let fine = pool.spawn(|| 1);
                let bad = pool.spawn(|| -> u32 { panic!("job 1 failed") });
                let after = pool.spawn(|| 3);
                assert_eq!(pool.wait(fine), 1);
                pool.wait(bad);
                pool.wait(after)
            })
        });
        let panic = caught.expect_err("the job's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"job 1 failed"));
    }
}

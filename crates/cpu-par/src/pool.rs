//! A persistent fork-join thread pool.
//!
//! Each [`Pool::run`] call is one parallel region: every worker repeatedly
//! claims task indices from a shared atomic counter and invokes the caller's
//! closure. The caller blocks until all tasks have finished, which is what
//! makes it sound to smuggle a borrowed closure across the thread boundary —
//! the borrow provably outlives the region.
//!
//! A one-worker pool spawns no thread: its regions run on the calling
//! thread, so a one-worker process keeps all its allocations in one heap.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

thread_local! {
    /// The `Shared` state of the pool whose worker this thread is (null on
    /// threads no pool owns): how [`Pool::run`] recognizes a nested call.
    static WORKER_OF: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
}

/// A task body: called with `(task_index, worker_index)`.
type Task<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// Type-erased pointer to the current region's task body.
///
/// Stored as a raw wide pointer so the pool can be `'static` while the task
/// borrows from the caller's stack. Soundness argument: the pointer is only
/// dereferenced between the region's start and the completion signal, and
/// [`Pool::run`] does not return until the completion signal fires.
#[derive(Clone, Copy)]
struct TaskPtr(*const Task<'static>);
// SAFETY: dereferenced only while `Pool::run` blocks on the completion
// signal, so the pointee (a `Sync` closure) is live; see the doc above.
unsafe impl Send for TaskPtr {}
// SAFETY: the pointee is `Sync`, so shared access from workers is sound.
unsafe impl Sync for TaskPtr {}

struct Region {
    task: TaskPtr,
    /// Total number of task indices in this region.
    num_tasks: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Set if any task panicked.
    poisoned: AtomicUsize,
}

struct Shared {
    /// Current region, replaced for every `run` call. The `u64` is a region
    /// sequence number so sleeping workers can tell a new region arrived.
    region: Mutex<(u64, Option<Arc<Region>>)>,
    /// Workers that still hold the current region. A worker drops its
    /// handle before it counts itself out, so the caller of `Pool::run`
    /// always frees the region: which thread frees it never depends on
    /// scheduling, and neither does the layout of the allocator's heaps.
    active: AtomicUsize,
    work_ready: Condvar,
    region_done: Condvar,
    shutdown: AtomicUsize,
}

/// A persistent fork-join worker pool.
pub struct Pool {
    shared: Arc<Shared>,
    /// Held for a whole region: `Shared` has one region slot, so a second
    /// caller must wait until the first caller's region has drained.
    run_lock: Mutex<()>,
    /// Worker threads; none for a one-worker pool, which runs its regions
    /// on the caller's thread.
    handles: Vec<std::thread::JoinHandle<()>>,
    num_threads: usize,
}

impl Pool {
    /// Creates a pool with `num_threads` workers (minimum 1). One worker
    /// is the calling thread itself: no thread is spawned.
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        let shared = Arc::new(Shared {
            region: Mutex::new((0, None)),
            active: AtomicUsize::new(0),
            work_ready: Condvar::new(),
            region_done: Condvar::new(),
            shutdown: AtomicUsize::new(0),
        });
        let spawned = if num_threads == 1 { 0 } else { num_threads };
        let handles = (0..spawned)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cpu-par-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            run_lock: Mutex::new(()),
            handles,
            num_threads,
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs one parallel region: `task(i, worker)` is invoked exactly once for
    /// every `i in 0..num_tasks`, distributed dynamically over the workers.
    ///
    /// Blocks until every task has completed. Panics (after the region has
    /// fully drained) if any task panicked. Concurrent callers on one pool
    /// run their regions one after another.
    ///
    /// # Panics
    /// If called from a task of this same pool: the region would wait for
    /// the worker that is waiting on it, so the call panics instead of
    /// deadlocking (the outer region then reports the panicked task).
    pub fn run<'a>(&self, num_tasks: usize, task: &(dyn Fn(usize, usize) + Sync + 'a)) {
        if num_tasks == 0 {
            return;
        }
        assert!(
            WORKER_OF.get() != Arc::as_ptr(&self.shared),
            "cpu-par: Pool::run nested inside a task of the same pool would deadlock"
        );
        let _region = self.run_lock.lock();
        if self.handles.is_empty() {
            return run_inline(&self.shared, num_tasks, task);
        }
        // Erase the closure lifetime; see `TaskPtr` for the soundness argument.
        // SAFETY: only the lifetime is transmuted; `run` does not return
        // until every worker has dropped its reference (see `TaskPtr`).
        let erased: TaskPtr =
            TaskPtr(unsafe { std::mem::transmute::<*const Task<'a>, *const Task<'static>>(task) });
        let region = Arc::new(Region {
            task: erased,
            num_tasks,
            next: AtomicUsize::new(0),
            poisoned: AtomicUsize::new(0),
        });
        {
            let mut guard = self.shared.region.lock();
            self.shared
                .active
                .store(self.num_threads, Ordering::Release);
            guard.0 += 1;
            guard.1 = Some(Arc::clone(&region));
            self.shared.work_ready.notify_all();
        }
        // Wait for all workers to drain the region.
        {
            let mut guard = self.shared.region.lock();
            while self.shared.active.load(Ordering::Acquire) != 0 {
                self.shared.region_done.wait(&mut guard);
            }
            // Clear the region so late wake-ups observe no work.
            guard.1 = None;
        }
        if region.poisoned.load(Ordering::Acquire) != 0 {
            panic!("cpu-par: a parallel task panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(1, Ordering::Release);
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A one-worker region on the calling thread: every task in index order as
/// worker 0, each panic caught and reported once the region has drained.
/// The thread counts as the pool's worker meanwhile, so a nested
/// [`Pool::run`] panics as it would on a spawned worker.
fn run_inline(shared: &Shared, num_tasks: usize, task: &Task<'_>) {
    let outer = WORKER_OF.replace(shared);
    let mut poisoned = false;
    for index in 0..num_tasks {
        poisoned |= catch_unwind(AssertUnwindSafe(|| task(index, 0))).is_err();
    }
    WORKER_OF.set(outer);
    if poisoned {
        panic!("cpu-par: a parallel task panicked");
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    WORKER_OF.set(shared);
    let mut seen_seq = 0u64;
    loop {
        let region = {
            let mut guard = shared.region.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) != 0 {
                    return;
                }
                if guard.0 != seen_seq {
                    if let Some(region) = guard.1.clone() {
                        seen_seq = guard.0;
                        break region;
                    }
                    // Region already drained and cleared; skip its sequence.
                    seen_seq = guard.0;
                }
                shared.work_ready.wait(&mut guard);
            }
        };
        // Claim and execute tasks until the region is exhausted.
        // SAFETY: the region is only handed to workers while `Pool::run`
        // blocks, which keeps the erased closure alive (see `TaskPtr`).
        let task: &Task<'static> = unsafe { &*region.task.0 };
        loop {
            let index = region.next.fetch_add(1, Ordering::Relaxed);
            if index >= region.num_tasks {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| task(index, worker))).is_err() {
                region.poisoned.store(1, Ordering::Release);
            }
        }
        drop(region);
        let remaining = shared.active.fetch_sub(1, Ordering::AcqRel) - 1;
        if remaining == 0 {
            let _guard = shared.region.lock();
            shared.region_done.notify_all();
        }
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Returns the process-wide pool, created on first use with one worker per
/// logical core (overridable via the `CPU_PAR_THREADS` environment variable).
pub fn global_pool() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let threads = std::env::var("CPU_PAR_THREADS")
            .ok()
            .and_then(|value| value.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Pool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(1000, &|i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reusable_across_regions() {
        let pool = Pool::new(3);
        for round in 0..50 {
            let total = AtomicUsize::new(0);
            pool.run(round + 1, &|i, _| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
            let n = round + 1;
            assert_eq!(total.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = Pool::new(2);
        pool.run(0, &|_, _| panic!("must not run"));
    }

    #[test]
    fn worker_index_is_in_range() {
        let pool = Pool::new(5);
        pool.run(200, &|_, worker| assert!(worker < 5));
    }

    #[test]
    fn single_thread_pool_works() {
        // One worker is the caller itself: no thread is spawned.
        let pool = Pool::new(1);
        assert!(pool.handles.is_empty());
        let caller = std::thread::current().id();
        let total = AtomicUsize::new(0);
        pool.run(64, &|i, worker| {
            assert_eq!(worker, 0);
            assert_eq!(std::thread::current().id(), caller);
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 * 63 / 2);
    }

    #[test]
    fn panicking_task_poisons_region() {
        for workers in [1, 2] {
            let pool = Pool::new(workers);
            let ran = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, &|i, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 3 {
                        panic!("boom");
                    }
                });
            }));
            // Reported once the region has drained.
            let payload = outcome.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"cpu-par: a parallel task panicked")
            );
            assert_eq!(ran.load(Ordering::Relaxed), 8, "{workers} worker(s)");
            assert!(WORKER_OF.get().is_null(), "the caller is no worker");
            // Pool remains usable after a poisoned region.
            let total = AtomicUsize::new(0);
            pool.run(4, &|i, _| {
                total.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 6);
        }
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = global_pool() as *const Pool;
        let b = global_pool() as *const Pool;
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_callers_each_run_every_task_once() {
        const CALLERS: usize = 4;
        const TASKS: usize = 300;
        for threads in 1..=8 {
            let pool = Pool::new(threads);
            let start = std::sync::Barrier::new(CALLERS);
            let hits: Vec<Vec<AtomicU64>> = (0..CALLERS)
                .map(|_| (0..TASKS).map(|_| AtomicU64::new(0)).collect())
                .collect();
            std::thread::scope(|scope| {
                for caller in &hits {
                    let (pool, start) = (&pool, &start);
                    scope.spawn(move || {
                        start.wait();
                        for _ in 0..20 {
                            pool.run(TASKS, &|i, _| {
                                caller[i].fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            for caller in &hits {
                assert!(
                    caller.iter().all(|h| h.load(Ordering::Relaxed) == 20),
                    "pool of {threads}: a task ran other than once per region"
                );
            }
        }
    }

    #[test]
    fn nested_run_on_the_same_pool_panics_instead_of_deadlocking() {
        for workers in [1, 2] {
            nested_run_panics(workers);
        }
    }

    fn nested_run_panics(workers: usize) {
        // Waited on through a channel with a timeout, so a regression fails
        // the test instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let pool = Pool::new(workers);
            let inner = Mutex::new(None);
            let outer = catch_unwind(AssertUnwindSafe(|| {
                pool.run(2, &|_, _| {
                    let nested = catch_unwind(AssertUnwindSafe(|| pool.run(1, &|_, _| {})));
                    if let Err(payload) = nested {
                        *inner.lock() = payload.downcast_ref::<&str>().map(|s| s.to_string());
                        std::panic::resume_unwind(payload);
                    }
                });
            }));
            let inner = inner.lock().take();
            // Another pool's tasks may still run regions of this one.
            let other = Pool::new(1);
            let total = AtomicUsize::new(0);
            other.run(1, &|_, _| {
                pool.run(3, &|i, _| {
                    total.fetch_add(i, Ordering::Relaxed);
                });
            });
            let _ = done.send((outer.is_err(), inner, total.load(Ordering::Relaxed)));
        });
        let (outer_panicked, inner, total) = finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("a nested Pool::run deadlocked at {workers} worker(s)"));
        runner.join().expect("the runner thread finished cleanly");
        assert!(
            outer_panicked,
            "{workers} worker(s): the nested call's panic must reach the caller"
        );
        let inner = inner.expect("the nested call panicked with a message");
        assert!(inner.contains("nested"), "panic message: {inner}");
        assert_eq!(total, 3);
    }

    #[test]
    fn borrows_caller_stack_data() {
        let pool = Pool::new(4);
        let data = vec![2u64; 512];
        let total = AtomicU64::new(0);
        pool.run(512, &|i, _| {
            total.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1024);
    }
}

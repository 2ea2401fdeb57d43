//! The worker pool: a worker count plus one primitive,
//! [`WorkerPool::map`], a *blocking* parallel indexed map built on
//! `std::thread::scope`. Nothing persists between calls — no threads, no
//! queue — so there is nothing to shut down, and the borrow checker (not
//! a latch) proves the helpers are gone before `map` returns.
//!
//! Determinism: the input is cut into chunks which the caller and its
//! helpers claim from a shared iterator; every chunk's results are
//! tagged with the chunk's index and concatenated in chunk order, so
//! the output is in input order and bit-identical to the sequential run
//! (for a pure `f`) at every worker count. The engine relies on this:
//! both fan-outs (per-cluster confidence, join probing) must produce the
//! same decomposition at worker counts 1, 2 and N.
//!
//! Cost: one `map` call pays a thread spawn + join per helper (tens of
//! µs), so callers fan out only where the items dwarf that — see
//! `prob::walk_clusters`.
//!
//! Sizing: [`default_workers`] honours the `MAYBMS_WORKERS` environment
//! variable and falls back to `std::thread::available_parallelism`.

use std::sync::{Arc, Mutex, OnceLock};

use maybms_obs::Counter;

/// `pool.tasks`: helper threads asked for, resolved once. Deterministic
/// for a fixed worker count and input.
fn tasks_metric() -> &'static Counter {
    static M: OnceLock<Arc<Counter>> = OnceLock::new();
    M.get_or_init(|| maybms_obs::counter("pool.tasks"))
}

/// A worker count. `WorkerPool::new(1)` runs everything inline on the
/// caller.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

/// Worker count from the environment: `MAYBMS_WORKERS` if set (clamped
/// to 1..=256), else the machine's available parallelism.
pub fn default_workers() -> usize {
    std::env::var("MAYBMS_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, 256))
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
}

/// The process-wide shared pool, sized by [`default_workers`] once per
/// process. Sessions default to this.
pub fn global_pool() -> Arc<WorkerPool> {
    static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(default_workers()))).clone()
}

impl WorkerPool {
    /// A pool of `workers` total workers (the calling thread counts as
    /// one: a `map` on `new(4)` runs up to 3 helper threads).
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool { workers: workers.max(1) }
    }

    /// The shared one-worker pool: `map` runs inline.
    pub fn sequential() -> &'static WorkerPool {
        static SEQ: WorkerPool = WorkerPool { workers: 1 };
        &SEQ
    }

    /// Total worker count (including the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Parallel indexed map over a shared slice: `out[i] = f(i, &items[i])`,
    /// in input order. Runs inline when the pool is sequential or the
    /// input is a single item. A panic in `f` on any thread is re-raised
    /// on the caller once every helper has stopped.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        // Chunked claiming amortizes the lock on fine-grained items while
        // still balancing uneven per-item costs.
        let chunk = (n / (workers * 8)).max(1);
        let todo = Mutex::new(items.chunks(chunk).enumerate());
        // Each claimant returns its chunks tagged with the chunk index.
        // `todo` is never held across `f`, so it cannot be poisoned.
        let drain = || {
            let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
            while let Some((ci, part)) = todo.lock().ok().and_then(|mut it| it.next()) {
                let base = ci * chunk;
                mine.push((ci, part.iter().enumerate().map(|(j, t)| f(base + j, t)).collect()));
            }
            mine
        };
        tasks_metric().add(workers as u64 - 1);
        let mut parts = std::thread::scope(|s| {
            // A failed spawn (resource exhaustion) only means the caller
            // drains more of the chunks itself.
            let helpers: Vec<_> = (1..workers)
                .filter_map(|i| {
                    let name = format!("maybms-worker-{i}");
                    std::thread::Builder::new().name(name).spawn_scoped(s, drain).ok()
                })
                .collect();
            let mut parts = drain();
            for h in helpers {
                match h.join() {
                    Ok(theirs) => parts.extend(theirs),
                    // the scope joins the remaining helpers, then unwinds
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            parts
        });
        parts.sort_unstable_by_key(|&(ci, _)| ci);
        parts.into_iter().flat_map(|(_, out)| out).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn map_preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..1000).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 4, 8] {
            let pool = WorkerPool::new(workers);
            let got = pool.map(&items, |_, &x| x * 3);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn nested_map_completes() {
        let pool = WorkerPool::new(4);
        let outer: Vec<u64> = (0..16).collect();
        let inner: Vec<u64> = (0..100).collect();
        let got = pool.map(&outer, |_, &a| pool.map(&inner, |_, &b| a * b).iter().sum::<u64>());
        let expect: Vec<u64> = outer.iter().map(|a| a * 4950).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(r.is_err(), "panic must propagate to the caller");
        // the pool keeps working afterwards
        let ok = pool.map(&items, |_, &x| x + 1);
        assert_eq!(ok[63], 64);
    }

    #[test]
    fn concurrent_maps_from_multiple_threads() {
        let pool = Arc::new(WorkerPool::new(4));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let p = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let items: Vec<u64> = (0..500).collect();
                let out = p.map(&items, |_, &x| x + t);
                assert_eq!(out[499], 499 + t);
            }));
        }
        for j in joins {
            j.join().expect("no deadlock, no panic");
        }
    }

    #[test]
    fn default_workers_honours_env_shape() {
        // can't mutate the env safely in tests; just sanity-check range
        let n = default_workers();
        assert!((1..=256).contains(&n));
        assert!(WorkerPool::sequential().workers() == 1);
        assert!(global_pool().workers() >= 1);
    }
}

//! Deterministic replication-level parallelism.
//!
//! The paper's Section 5.2 evaluation is a replication study: many
//! independent runs of the same middleware simulation, each seeded from
//! its own derived RNG streams, merged into one table. Those
//! replications share no state, so they can be fanned out over a worker
//! pool — *provided* the merge is performed in replication order, so
//! that every report, metrics snapshot and trace is byte-identical
//! whatever the worker count.
//!
//! [`par_map`] is that runner: it executes `f(0), f(1), …, f(count-1)`
//! on up to [`Jobs`] worker threads (plain `std::thread::scope`, no
//! dependencies) and returns the results **indexed in replication
//! order**. Each replication must derive all the randomness it needs
//! from its own index (e.g. via
//! [`MasterSeed::indexed_stream`](crate::rng::MasterSeed::indexed_stream)
//! or per-replication named streams) and own all the state it mutates;
//! the closure only gets shared (`&`/`Sync`) access to its environment,
//! so the compiler enforces the latter.
//!
//! # Determinism contract
//!
//! For any `jobs` values `a` and `b`, `par_map(a, n, f)` and
//! `par_map(b, n, f)` return equal vectors, provided `f(i)` depends
//! only on `i` and immutable captures. Work-stealing order, thread
//! count and scheduling jitter never leak into results — only into
//! wall-clock time.
//!
//! # Example
//!
//! ```
//! use wsu_simcore::par::{par_map, Jobs};
//! use wsu_simcore::rng::MasterSeed;
//!
//! let seed = MasterSeed::new(7);
//! let sequential = par_map(Jobs::serial(), 8, |i| {
//!     seed.indexed_stream("replication", i as u64).next_u64()
//! });
//! let parallel = par_map(Jobs::new(4), 8, |i| {
//!     seed.indexed_stream("replication", i as u64).next_u64()
//! });
//! assert_eq!(sequential, parallel);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Worker count for a parallel replication sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// Exactly one worker: replications run sequentially on the calling
    /// thread, with no thread spawned at all.
    pub const fn serial() -> Jobs {
        Jobs(NonZeroUsize::MIN)
    }

    /// `n` workers; `0` is clamped to 1.
    pub fn new(n: usize) -> Jobs {
        Jobs(NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN))
    }

    /// One worker per available hardware thread (the `--jobs` default).
    pub fn auto() -> Jobs {
        Jobs(thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Jobs {
    /// Defaults to [`Jobs::auto`].
    fn default() -> Jobs {
        Jobs::auto()
    }
}

/// Runs `f(0)..f(count)` on up to `jobs` workers and returns the
/// results in index (replication) order.
///
/// With one worker (or one replication) everything runs inline on the
/// calling thread. Otherwise workers pull the next unclaimed index from
/// a shared counter — coarse-grained work stealing, which keeps long
/// and short replications balanced — and deposit each result in its
/// own slot, so the returned vector is always `[f(0), f(1), …]`
/// regardless of completion order.
///
/// # Panics
///
/// Propagates a panic from any replication (the scope joins every
/// worker first).
pub fn par_map<T, F>(jobs: Jobs, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.get().min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let value = f(index);
                *slots[index].lock().expect("unpoisoned replication slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("unpoisoned replication slot")
                .expect("every replication index was claimed and completed")
        })
        .collect()
}

/// [`par_map`] over a slice: runs `f(i, &items[i])` for every item and
/// returns the results in item order.
pub fn par_map_slice<'a, I, T, F>(jobs: Jobs, items: &'a [I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &'a I) -> T + Sync,
{
    par_map(jobs, items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MasterSeed;

    #[test]
    fn serial_and_parallel_agree() {
        let seed = MasterSeed::new(11);
        let work = |i: usize| {
            let mut rng = seed.indexed_stream("rep", i as u64);
            (0..1_000).map(|_| rng.next_u64() >> 32).sum::<u64>()
        };
        let serial = par_map(Jobs::serial(), 17, work);
        for jobs in [2, 3, 4, 8, 32] {
            assert_eq!(par_map(Jobs::new(jobs), 17, work), serial, "jobs {jobs}");
        }
    }

    #[test]
    fn results_are_in_replication_order() {
        let out = par_map(Jobs::new(4), 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_counts() {
        assert_eq!(par_map(Jobs::new(4), 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(Jobs::new(4), 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn slice_variant_passes_items() {
        let items = ["a", "bb", "ccc"];
        let lens = par_map_slice(Jobs::new(2), &items, |i, s| (i, s.len()));
        assert_eq!(lens, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(par_map(Jobs::new(64), 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn jobs_constructors() {
        assert_eq!(Jobs::serial().get(), 1);
        assert_eq!(Jobs::new(0).get(), 1);
        assert_eq!(Jobs::new(6).get(), 6);
        assert!(Jobs::default().get() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(Jobs::new(2), 8, |i| {
                if i == 5 {
                    panic!("replication 5 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}

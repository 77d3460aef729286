//! Deterministic parallel execution of independent work items.
//!
//! The experiment grids of the reproduction (scheme × application × seed ×
//! λ) are embarrassingly parallel: every cell owns its own [`crate::SimRng`]
//! seed and shares no mutable state with its siblings. This module provides
//! the small std-only engine that exploits that — the container has no
//! crates registry, so no rayon.
//!
//! # Threading model
//!
//! [`par_map`] runs a closure over a vector of items on a scoped thread
//! pool. Workers claim items through a single atomic cursor (dynamic
//! work-stealing-by-index, so one slow cell cannot stall a whole stripe)
//! and write each result into the slot of its *submission index*. The
//! output vector is therefore in input order, independent of which worker
//! computed which item and of how the OS scheduled the threads.
//!
//! Only grid entry points size a pool (the figure suite, the router's
//! `run_cells_with`, a few independent sweeps): the work inside one cell,
//! ORACLE's offline profiling included, runs serially on the worker that
//! claimed the cell, so a grid of `threads` workers never oversubscribes
//! them.
//!
//! # Determinism guarantee
//!
//! Parallel output is **byte-identical to the serial run** as long as the
//! closure is a pure function of its item (no shared mutable state, no
//! ambient randomness). Every experiment cell seeds its own RNG from its
//! config, so running cells concurrently cannot perturb their draws —
//! pinned by `tests/par_determinism.rs` at the workspace root.
//!
//! # Panics
//!
//! A panic inside the closure is propagated to the caller with its original
//! payload once all workers have stopped; results computed so far are
//! dropped.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Raises `flag` if its thread unwinds — how workers tell their siblings
/// to stop claiming new items once one of them has panicked.
struct PanicSignal<'a>(&'a AtomicBool);

impl Drop for PanicSignal<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Number of worker threads to use by default: the `CLOVER_THREADS`
/// environment variable when set, otherwise the machine's available
/// parallelism (1 when that cannot be determined).
///
/// # Panics
/// Panics if `CLOVER_THREADS` is set to anything but an integer ≥ 1.
pub fn default_threads() -> usize {
    threads_from(std::env::var("CLOVER_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count a `CLOVER_THREADS` value pins; unset means none. A
/// value that is not an integer ≥ 1 panics rather than fall back to full
/// parallelism, so a typo cannot silently undo a pinned thread count.
fn threads_from(value: Option<&str>) -> Option<usize> {
    let v = value?;
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => panic!("CLOVER_THREADS={v:?}: expected an integer >= 1"),
    }
}

/// Maps `f` over `items` on `threads` scoped worker threads, returning the
/// results **in submission order**.
///
/// With `threads <= 1` (or a single item) this degenerates to a plain
/// serial map on the calling thread — no pool, no synchronization — which
/// is also the reference behavior the parallel path must reproduce exactly.
///
/// # Panics
/// Re-raises the first panic observed among the workers. A panicking
/// worker also stops its siblings from *claiming further items* (items
/// already in flight finish), so a failing grid reports promptly instead
/// of draining the whole backlog first.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_ordered(items, threads, None, f)
}

/// [`par_map`] with **LPT (longest-processing-time-first) dispatch**: items
/// are *claimed* in descending `weight` order (ties broken by submission
/// index, so the order is deterministic) while results are still deposited
/// at their submission index.
///
/// Use this when item costs are known to be uneven — e.g. an experiment
/// grid mixing 10M-event `FullEpoch` cells with sub-second representative
/// windows. Greedy largest-first claiming is the classic LPT list-scheduling
/// heuristic: starting the heaviest items first bounds makespan at
/// `(4/3 − 1/3m) × OPT`, whereas submission-order claiming can strand the
/// heaviest item on an otherwise-drained pool and serialize the whole grid
/// behind it.
///
/// The output is byte-identical to [`par_map`] (and to the serial map) for
/// any pure closure — only wall-clock scheduling changes, never results or
/// their order.
pub fn par_map_lpt<T, R, W, F>(items: Vec<T>, threads: usize, weight: W, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    W: Fn(&T) -> f64,
    F: Fn(T) -> R + Sync,
{
    let mut order: Vec<usize> = (0..items.len()).collect();
    // Stable descending sort by weight; NaN weights sink to the back so a
    // degenerate cost model degrades to submission order, not a panic.
    order.sort_by(|&a, &b| {
        weight(&items[b])
            .partial_cmp(&weight(&items[a]))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    par_map_ordered(items, threads, Some(order), f)
}

/// Shared engine behind [`par_map`] and [`par_map_lpt`]: `claim_order`,
/// when given, is the permutation in which workers pick up items; deposit
/// order is always submission order.
fn par_map_ordered<T, R, F>(
    items: Vec<T>,
    threads: usize,
    claim_order: Option<Vec<usize>>,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if let Some(order) = &claim_order {
        debug_assert_eq!(order.len(), n, "claim order must be a permutation");
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        // Serial reference path: claim order is irrelevant because a single
        // worker produces identical results either way — run in submission
        // order and skip the pool entirely.
        return items.into_iter().map(f).collect();
    }

    // Items are claimed by index through `cursor`; each slot mutex is taken
    // exactly once per phase (claim / deposit), so there is no contention —
    // the mutexes only make the shared access safe without unsafe code.
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let f = &f;
    let claim_order = &claim_order;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let _signal = PanicSignal(&abort);
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break; // a sibling panicked: stop claiming work
                        }
                        let next = cursor.fetch_add(1, Ordering::Relaxed);
                        if next >= n {
                            break;
                        }
                        let i = match claim_order {
                            Some(order) => order[next],
                            None => next,
                        };
                        let item = tasks[i]
                            .lock()
                            .expect("task slot poisoned")
                            .take()
                            .expect("task claimed twice");
                        let result = f(item);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("worker left slot {i} unfilled"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_submission_order() {
        // Make early items the slowest so out-of-order completion is
        // guaranteed; the output must still be in input order.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(items, 8, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(8 - i));
            }
            i * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_map_exactly() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&i| i.wrapping_mul(0x9E37)).collect();
        let parallel = par_map(items, 4, |i| i.wrapping_mul(0x9E37));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_items_yield_empty_output() {
        let out: Vec<u64> = par_map(Vec::<u64>::new(), 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_and_single_thread_degenerate_to_serial() {
        assert_eq!(par_map(vec![7], 16, |i: i32| i + 1), vec![8]);
        assert_eq!(par_map(vec![1, 2, 3], 1, |i: i32| i * 2), vec![2, 4, 6]);
        assert_eq!(par_map(vec![1, 2, 3], 0, |i: i32| i * 2), vec![2, 4, 6]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map((0..3).collect::<Vec<u32>>(), 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map((0..1000u64).collect::<Vec<_>>(), 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn panics_propagate_with_payload() {
        let caught = std::panic::catch_unwind(|| {
            par_map((0..16u32).collect::<Vec<_>>(), 4, |i| {
                if i == 9 {
                    panic!("cell nine exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("wrong payload type");
        assert_eq!(msg, "cell nine exploded");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn threads_are_unpinned_when_unset_and_accept_positive_integers() {
        assert_eq!(threads_from(None), None);
        assert_eq!(threads_from(Some("1")), Some(1));
        assert_eq!(threads_from(Some("8")), Some(8));
    }

    #[test]
    fn threads_reject_every_value_below_one_or_not_an_integer() {
        for bad in ["", "0", "two", "-1", "1.5", " 2"] {
            let err = std::panic::catch_unwind(|| threads_from(Some(bad)))
                .expect_err(&format!("{bad:?} was accepted"));
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(
                msg.contains("CLOVER_THREADS") && msg.contains(">= 1"),
                "{bad:?}: {msg}"
            );
        }
    }

    #[test]
    fn lpt_matches_plain_par_map_and_serial() {
        let items: Vec<u64> = (0..200).collect();
        let serial: Vec<u64> = items.iter().map(|&i| i.wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map_lpt(
                items.clone(),
                threads,
                |&i| (i % 13) as f64, // uneven, repeating weights (ties)
                |i| i.wrapping_mul(0x9E37),
            );
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn lpt_claims_heaviest_first() {
        // One worker thread over the pool path (2 threads, but record claim
        // order globally): heaviest item must be claimed before lighter ones
        // when a single worker drains the queue. Use threads=2 with an
        // ordering log and verify the *claim sequence* is weight-descending
        // per the shared cursor (the log is claim-ordered by construction).
        let log = Mutex::new(Vec::new());
        let items: Vec<u64> = vec![3, 9, 1, 7, 5];
        let _ = par_map_lpt(
            items,
            2,
            |&i| i as f64,
            |i| {
                log.lock().unwrap().push(i);
                i
            },
        );
        let mut seen = log.into_inner().unwrap();
        // Claims may interleave across two workers, but the multiset is
        // exact and the first claim is always the global heaviest.
        assert_eq!(seen[0], 9);
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn lpt_nan_weights_degrade_gracefully() {
        let items: Vec<u64> = (0..32).collect();
        let out = par_map_lpt(items, 4, |_| f64::NAN, |i| i + 1);
        assert_eq!(out, (1..33).collect::<Vec<_>>());
    }
}

//! Work-stealing parallel executor for campaign grids.
//!
//! Every paper table is an embarrassingly-parallel grid — Table II
//! alone is defects × case-studies, each hiding a resistance bisection
//! of full Newton solves — so the campaign drivers fan their grid
//! points across cores through [`parallel_map_isolated`], all of them
//! via the campaign runner [`crate::campaign::run_grid`]. The design
//! constraints, in order of importance:
//!
//! 1. **Determinism.** The table a campaign prints, the rows it
//!    checkpoints, and its coverage footer must be byte-identical
//!    regardless of `--jobs`. Every result carries its grid index;
//!    the caller's `on_ready` callback fires in strict index order
//!    (out-of-order completions are parked until the prefix is
//!    contiguous), and the returned `Vec` is in grid order. Workers
//!    never touch shared mutable campaign state.
//! 2. **No new dependencies.** The build is offline: plain
//!    `std::thread::scope`, a shared atomic work index for stealing,
//!    and an `mpsc` channel for completions. `--jobs 1` (or a
//!    single-item grid) takes a purely sequential inline path that
//!    reproduces the pre-parallel executors bit-for-bit.
//! 3. **Observability survives the join.** Worker threads flush their
//!    thread-local obs buffers ([`obs::flush`]) before exiting the
//!    scope, so counters and histograms recorded on workers are
//!    visible in the registry snapshot the moment
//!    [`parallel_map_isolated`] returns — run manifests and JSONL
//!    sinks don't silently drop tail events.
//!
//! Wall-clock accounting: the executor is why [`crate::Coverage`]
//! merges `elapsed_s` by `max` rather than `+` — sub-results computed
//! concurrently must not inflate the campaign's throughput figure.
//! Campaign drivers stamp wall-clock once, at the top level, around
//! all of their fan-outs.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The machine's available parallelism (1 when it cannot be queried).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a requested `--jobs` value: `0` means "auto" (available
/// parallelism); anything else is taken literally.
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        available_jobs()
    } else {
        requested
    }
}

/// One work item's outcome under per-point panic isolation
/// ([`parallel_map_isolated`]): either the closure's result or the
/// message of the panic that killed it.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkOutcome<R> {
    /// The work closure returned normally.
    Done(R),
    /// The work closure panicked; the point is lost but the campaign
    /// is not.
    Panicked {
        /// The panic payload, when it was a `&str` or `String`
        /// (`panic!` and all `assert!` macros), else a placeholder.
        message: String,
    },
}

impl<R> WorkOutcome<R> {
    /// The result, when the point completed.
    pub fn as_done(&self) -> Option<&R> {
        match self {
            WorkOutcome::Done(r) => Some(r),
            WorkOutcome::Panicked { .. } => None,
        }
    }

    /// The panic message, when the point panicked.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            WorkOutcome::Done(_) => None,
            WorkOutcome::Panicked { message } => Some(message),
        }
    }

    /// Unwraps the result, synthesizing one from the panic message for
    /// lost points — the hook campaign drivers use to turn a panic into
    /// a recordable per-point error value.
    pub fn unwrap_or_else(self, on_panic: impl FnOnce(String) -> R) -> R {
        match self {
            WorkOutcome::Done(r) => r,
            WorkOutcome::Panicked { message } => on_panic(message),
        }
    }
}

/// Renders a caught panic payload as a message string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `work` over `items` on up to `jobs` worker threads, delivering
/// results in grid order, with per-point panic isolation.
///
/// * `jobs == 0` resolves to the machine's available parallelism;
///   `jobs == 1` (or fewer items than 2) runs inline on the calling
///   thread with no thread machinery at all — bit-for-bit the
///   sequential behavior.
/// * `work(index, &items[index])` runs on a worker thread; items are
///   claimed from a shared atomic index (idle workers steal the next
///   unclaimed item, so an expensive point never serializes the rest
///   behind it).
/// * A panic inside `work` is caught on the worker, counted in the
///   `executor.panic` obs counter, and delivered as
///   [`WorkOutcome::Panicked`] at that item's index — every other item
///   still runs, and the call never unwinds because of `work`.
/// * `on_ready(index, &outcome)` runs on the *calling* thread, in
///   strict index order, as soon as the contiguous prefix up to
///   `index` has completed — this is the single-writer hook for
///   checkpoint appends and progress lines. Out-of-order completions
///   are parked until their turn.
/// * The returned `Vec` holds every outcome in item order.
///
/// Worker threads flush their thread-local obs buffers before the
/// scope joins, so metrics recorded inside `work` are globally visible
/// when this function returns.
///
/// This is the executor contract campaign drivers build on: one
/// poisoned grid point becomes one recorded casualty, not the loss of
/// a multi-hour campaign's in-flight results.
pub fn parallel_map_isolated<T, R>(
    jobs: usize,
    items: &[T],
    work: impl Fn(usize, &T) -> R + Sync,
    mut on_ready: impl FnMut(usize, &WorkOutcome<R>),
) -> Vec<WorkOutcome<R>>
where
    T: Sync,
    R: Send,
{
    let guarded = |i: usize, item: &T| -> WorkOutcome<R> {
        match panic::catch_unwind(AssertUnwindSafe(|| work(i, item))) {
            Ok(r) => WorkOutcome::Done(r),
            Err(payload) => {
                obs::counter_add("executor.panic", 1);
                // The panicking closure unwound past its own flush
                // points: drain the thread-local metric buffers now so
                // counters recorded before the panic are not lost, and
                // capture the point's in-flight convergence trajectory
                // — a panicked point is exactly the kind the flight
                // recorder exists to explain.
                obs::flush();
                if let Some(traj) = obs::flight_take() {
                    obs::record_trace(&format!("grid item {i}"), "panicked", 0.0, traj);
                }
                WorkOutcome::Panicked {
                    message: panic_message(payload.as_ref()),
                }
            }
        }
    };

    let jobs = effective_jobs(jobs).min(items.len());
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let r = guarded(i, item);
                on_ready(i, &r);
                r
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, WorkOutcome<R>)>();
    let mut slots: Vec<Option<WorkOutcome<R>>> = Vec::new();
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let guarded = &guarded;
            scope.spawn(move || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = guarded(i, &items[i]);
                    if tx.send((i, r)).is_err() {
                        break; // receiver gone: the scope is unwinding
                    }
                }
                // Drain this worker's thread-local metric buffers into
                // the global registry before the scope joins — without
                // this, counters recorded on workers below the flush
                // threshold would sit invisible until thread teardown
                // raced the caller's snapshot.
                obs::flush();
            });
        }
        drop(tx); // the receive loop ends when the last worker exits

        let mut emit_next = 0usize;
        for (i, r) in rx {
            slots[i] = Some(r);
            while let Some(Some(ready)) = slots.get(emit_next) {
                on_ready(emit_next, ready);
                emit_next += 1;
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every item either completed or was caught panicking"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn effective_jobs_resolves_auto() {
        assert_eq!(effective_jobs(1), 1);
        assert_eq!(effective_jobs(7), 7);
        assert!(effective_jobs(0) >= 1);
    }

    /// The results of a run in which no item panicked.
    fn done<R>(outcomes: Vec<WorkOutcome<R>>) -> Vec<R> {
        outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|m| panic!("unexpected panic: {m}")))
            .collect()
    }

    #[test]
    fn sequential_path_preserves_order_and_results() {
        let items: Vec<u64> = (0..10).collect();
        let mut log = Vec::new();
        let out = parallel_map_isolated(1, &items, |i, x| x * x + i as u64, |i, _| log.push(i));
        assert_eq!(
            done(out),
            items
                .iter()
                .enumerate()
                .map(|(i, x)| x * x + i as u64)
                .collect::<Vec<_>>()
        );
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_results_are_in_item_order() {
        let items: Vec<u64> = (0..200).collect();
        let out = parallel_map_isolated(4, &items, |_, x| x * 3, |_, _| {});
        assert_eq!(done(out), items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn on_ready_fires_in_strict_index_order_under_parallelism() {
        // Stagger the work so later indices routinely finish first;
        // the callback order must stay 0,1,2,... regardless.
        let items: Vec<u64> = (0..64).collect();
        let mut log = Vec::new();
        let out = parallel_map_isolated(
            8,
            &items,
            |i, x| {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
                x + 1
            },
            |i, _| log.push(i),
        );
        assert_eq!(log, (0..64).collect::<Vec<_>>());
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn empty_and_singleton_grids() {
        let out = parallel_map_isolated(8, &Vec::<u32>::new(), |_, x| *x, |_, _| {});
        assert!(out.is_empty());
        let out = parallel_map_isolated(8, &[41u32], |_, x| x + 1, |_, _| {});
        assert_eq!(done(out), vec![42]);
    }

    #[test]
    fn every_item_is_claimed_exactly_once() {
        let hits = AtomicU64::new(0);
        let items: Vec<usize> = (0..100).collect();
        parallel_map_isolated(
            6,
            &items,
            |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
            |_, _| {},
        );
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn isolated_panic_is_delivered_at_its_index_only() {
        let _obs = crate::campaign::tests::obs_lock();
        let items: Vec<u64> = (0..32).collect();
        for jobs in [1, 4] {
            let mut log = Vec::new();
            let before = obs::snapshot()
                .counters
                .get("executor.panic")
                .copied()
                .unwrap_or(0);
            let out = parallel_map_isolated(
                jobs,
                &items,
                |i, x| {
                    assert!(i != 13, "poisoned point 13");
                    x * 2
                },
                |i, _| log.push(i),
            );
            // Strict index order survives the panic, with a hole at 13.
            assert_eq!(log, (0..32).collect::<Vec<_>>());
            assert_eq!(out.len(), 32);
            for (i, o) in out.iter().enumerate() {
                if i == 13 {
                    assert!(
                        o.panic_message().is_some_and(|m| m.contains("poisoned")),
                        "jobs={jobs}: {o:?}"
                    );
                } else {
                    assert_eq!(o.as_done(), Some(&(i as u64 * 2)), "jobs={jobs}");
                }
            }
            obs::flush();
            let after = obs::snapshot()
                .counters
                .get("executor.panic")
                .copied()
                .unwrap_or(0);
            assert_eq!(after - before, 1, "jobs={jobs}: one panic, one count");
        }
    }

    #[test]
    fn isolated_outcomes_are_identical_across_job_counts() {
        let _obs = crate::campaign::tests::obs_lock();
        let items: Vec<u64> = (0..50).collect();
        let run = |jobs| {
            parallel_map_isolated(
                jobs,
                &items,
                |i, x| {
                    assert!(i % 17 != 3, "grid point {i} is poisoned");
                    x + 100
                },
                |_, _| {},
            )
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn unwrap_or_else_synthesizes_a_value_for_panics() {
        let done: WorkOutcome<i32> = WorkOutcome::Done(5);
        assert_eq!(done.unwrap_or_else(|_| -1), 5);
        let lost: WorkOutcome<i32> = WorkOutcome::Panicked {
            message: "boom".into(),
        };
        assert_eq!(
            lost.unwrap_or_else(|m| if m == "boom" { -1 } else { -2 }),
            -1
        );
    }

    #[test]
    fn panicked_points_flush_buffers_and_surrender_their_trajectory() {
        // A panic unwinds past the worker's normal flush points; the
        // catch_unwind arm must drain the thread-local counter buffers
        // (so pre-panic increments survive) and hand the in-flight
        // convergence ring to the registry as a "panicked" trace. Both
        // must already be visible when on_ready fires for that index —
        // on the inline jobs=1 path there is no later flush at all.
        let key = "executor.test.pre_panic_events";
        let items: Vec<u64> = (0..8).collect();
        let _obs = crate::campaign::tests::obs_lock();
        for jobs in [1usize, 4] {
            obs::flight_enable(obs::DEFAULT_CAPACITY);
            let before = obs::snapshot().counters.get(key).copied().unwrap_or(0);
            let mut at_ready: Option<obs::Snapshot> = None;
            parallel_map_isolated(
                jobs,
                &items,
                |i, _| {
                    if i == 3 {
                        obs::counter_add(key, 1);
                        obs::flight_begin();
                        obs::flight_record(0.5, 1.0);
                        panic!("poisoned point 3");
                    }
                },
                |i, _| {
                    if i == 3 {
                        at_ready = Some(obs::snapshot());
                    }
                },
            );
            obs::flight_disable();
            let snap = at_ready.expect("on_ready fired for index 3");
            assert_eq!(
                snap.counters.get(key).copied().unwrap_or(0) - before,
                1,
                "jobs={jobs}: pre-panic counter must be flushed before delivery"
            );
            assert!(
                snap.traces
                    .iter()
                    .any(|t| t.key == "grid item 3" && t.outcome == "panicked"),
                "jobs={jobs}: the panicked point's trajectory must reach the registry"
            );
        }
    }

    #[test]
    fn worker_thread_obs_buffers_drain_at_join() {
        // Thread-local counter buffers only reach the global registry
        // on flush; the executor guarantees workers flush before the
        // scope joins, so a snapshot taken right after the call sees
        // every worker-side increment. Delta-based so it never races
        // other tests sharing the process-global registry.
        let key = "executor.test.worker_events";
        let before = obs::snapshot().counters.get(key).copied().unwrap_or(0);
        let items: Vec<u64> = (0..32).collect();
        parallel_map_isolated(4, &items, |_, _| obs::counter_add(key, 1), |_, _| {});
        let after = obs::snapshot().counters.get(key).copied().unwrap_or(0);
        assert_eq!(
            after - before,
            32,
            "worker-thread obs buffers must be visible immediately after the join"
        );
    }
}

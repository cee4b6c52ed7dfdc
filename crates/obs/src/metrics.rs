//! Named counters, gauges, histograms, span timings and point records,
//! behind a thread-safe global registry.
//!
//! The hot producers (one record per Newton solve) write into a
//! thread-local buffer that is folded into the global registry every
//! `FLUSH_THRESHOLD` operations, when [`flush`] is called, and when
//! the thread exits — so instrumentation costs an uncontended
//! `RefCell` touch on the fast path instead of a global mutex.
//! [`snapshot`] flushes the calling thread first, which is exact for
//! the single-threaded experiment executors.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};

use crate::flight::{PointTrajectory, TraceSample};
use crate::hist::Histogram;

/// Buffered operations accumulated before an automatic fold into the
/// global registry.
const FLUSH_THRESHOLD: usize = 1024;

/// Bounded lengths of the slowest-point / retry-hot-spot lists.
const MAX_POINTS: usize = 64;

/// Retained flight-recorder trajectories: every failed point up to
/// this many…
const MAX_FAILED_TRACES: usize = 32;

/// …and the slowest-k points that succeeded.
const MAX_SLOW_TRACES: usize = 8;

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Completed spans under this path.
    pub count: u64,
    /// Total wall-clock, seconds.
    pub total_s: f64,
    /// Slowest single span, seconds.
    pub max_s: f64,
}

impl SpanStat {
    fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.total_s += seconds;
        self.max_s = self.max_s.max(seconds);
    }
}

/// One campaign grid point's cost record.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Stable point key, e.g. `df16/cs1 @ fs/1.0V/125C`.
    pub key: String,
    /// Wall-clock spent on the point, seconds.
    pub seconds: f64,
    /// Solver retries the point needed.
    pub retries: u64,
    /// Newton iterations the point consumed.
    pub iterations: u64,
}

/// One retained flight-recorder trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Stable point key, e.g. `df16/cs1 @ fs/1.0V/125C`.
    pub key: String,
    /// `"ok"`, `"failed"` or `"panicked"`.
    pub outcome: String,
    /// Wall-clock spent on the point, seconds.
    pub seconds: f64,
    /// Total Newton iterations recorded (the trajectory keeps the
    /// last `samples.len()` of them).
    pub recorded: u64,
    /// Per-iteration samples, chronological.
    pub samples: Vec<TraceSample>,
}

/// A consistent copy of the registry contents.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges: last-write-wins, or run totals built up by `gauge_add`.
    pub gauges: BTreeMap<String, f64>,
    /// Log-scale histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Aggregated span timings keyed by hierarchical path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Slowest points, descending by seconds (bounded).
    pub slowest: Vec<PointRecord>,
    /// Points with the most retries, descending (bounded; only points
    /// that retried at all).
    pub retry_hot: Vec<PointRecord>,
    /// Retained convergence trajectories: failed points first, then
    /// the slowest successes (both bounded).
    pub traces: Vec<TraceRecord>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
    slowest: Vec<PointRecord>,
    retry_hot: Vec<PointRecord>,
    traces_failed: Vec<TraceRecord>,
    traces_slow: Vec<TraceRecord>,
}

/// Inserts into a bounded list kept sorted descending by `rank`.
fn bounded_insert(list: &mut Vec<PointRecord>, record: PointRecord, rank: fn(&PointRecord) -> f64) {
    let pos = list
        .binary_search_by(|r| {
            rank(&record)
                .partial_cmp(&rank(r))
                .expect("ranks are finite")
        })
        .unwrap_or_else(|p| p);
    if pos < MAX_POINTS {
        list.insert(pos, record);
        list.truncate(MAX_POINTS);
    }
}

/// A metrics registry. The process-wide one is reached through the
/// free functions ([`counter_add`], [`hist_record`], …); tests can use
/// private instances directly.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned metrics mutex must never take the experiment down.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        *self.lock().counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Adds `delta` to the named gauge (an absent gauge reads as 0).
    pub fn gauge_add(&self, name: &str, delta: f64) {
        *self.lock().gauges.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Records one observation into the named histogram.
    pub fn hist_record(&self, name: &str, value: f64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records one completed span under `path`.
    pub fn record_span(&self, path: &str, seconds: f64) {
        self.lock()
            .spans
            .entry(path.to_string())
            .or_default()
            .record(seconds);
    }

    /// Records one campaign point's cost (feeds the slowest-point and
    /// retry-hot-spot lists plus the `campaign.point_seconds`
    /// histogram).
    pub fn record_point(&self, key: &str, seconds: f64, retries: u64, iterations: u64) {
        let record = PointRecord {
            key: key.to_string(),
            seconds,
            retries,
            iterations,
        };
        let mut inner = self.lock();
        inner
            .histograms
            .entry("campaign.point_seconds".to_string())
            .or_default()
            .record(seconds);
        if retries > 0 {
            bounded_insert(&mut inner.retry_hot, record.clone(), |r| r.retries as f64);
        }
        bounded_insert(&mut inner.slowest, record, |r| r.seconds);
    }

    /// Retains a point's convergence trajectory: every failed point
    /// (up to `MAX_FAILED_TRACES`) and the slowest `MAX_SLOW_TRACES`
    /// successes.
    pub fn record_trace(&self, key: &str, outcome: &str, seconds: f64, traj: PointTrajectory) {
        let record = TraceRecord {
            key: key.to_string(),
            outcome: outcome.to_string(),
            seconds,
            recorded: traj.recorded,
            samples: traj.samples,
        };
        let mut inner = self.lock();
        if outcome == "ok" {
            let pos = inner
                .traces_slow
                .binary_search_by(|r| {
                    record
                        .seconds
                        .partial_cmp(&r.seconds)
                        .expect("seconds are finite")
                })
                .unwrap_or_else(|p| p);
            if pos < MAX_SLOW_TRACES {
                inner.traces_slow.insert(pos, record);
                inner.traces_slow.truncate(MAX_SLOW_TRACES);
            }
        } else if inner.traces_failed.len() < MAX_FAILED_TRACES {
            inner.traces_failed.push(record);
        }
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut traces = inner.traces_failed.clone();
        traces.extend(inner.traces_slow.iter().cloned());
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
            spans: inner.spans.clone(),
            slowest: inner.slowest.clone(),
            retry_hot: inner.retry_hot.clone(),
            traces,
        }
    }

    /// Clears every metric (used between CLI runs and by tests).
    pub fn reset(&self) {
        *self.lock() = Inner::default();
    }

    fn fold_local(&self, buf: &mut LocalBuf) {
        if buf.pending == 0 {
            return;
        }
        let mut inner = self.lock();
        for (name, delta) in buf.counters.drain() {
            *inner.counters.entry(name).or_insert(0) += delta;
        }
        for (name, h) in buf.histograms.drain() {
            inner.histograms.entry(name).or_default().merge(&h);
        }
        buf.pending = 0;
    }
}

fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[derive(Default)]
struct LocalBuf {
    counters: HashMap<String, u64>,
    histograms: HashMap<String, Histogram>,
    pending: usize,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        global().fold_local(self);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::default();
}

/// Runs `f` on the thread-local buffer, auto-flushing past the
/// threshold. Falls back to the global registry during thread teardown.
fn with_local(f: impl FnOnce(&mut LocalBuf)) -> bool {
    LOCAL
        .try_with(|buf| {
            let mut buf = buf.borrow_mut();
            f(&mut buf);
            buf.pending += 1;
            if buf.pending >= FLUSH_THRESHOLD {
                global().fold_local(&mut buf);
            }
        })
        .is_ok()
}

/// Adds `delta` to the named global counter (buffered). Allocates the
/// key only on its first use since the last flush.
pub fn counter_add(name: &str, delta: u64) {
    let done = with_local(|buf| match buf.counters.get_mut(name) {
        Some(count) => *count += delta,
        None => {
            buf.counters.insert(name.to_string(), delta);
        }
    });
    if !done {
        global().counter_add(name, delta);
    }
}

/// Records one observation into the named global histogram (buffered).
pub fn hist_record(name: &str, value: f64) {
    let done = with_local(|buf| {
        buf.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    });
    if !done {
        global().hist_record(name, value);
    }
}

/// Sets a global gauge (unbuffered; gauges are rare and last-write-wins).
pub fn gauge_set(name: &str, value: f64) {
    global().gauge_set(name, value);
}

/// Adds to a global gauge (unbuffered), for totals that several
/// publishers of one run accumulate.
pub fn gauge_add(name: &str, delta: f64) {
    global().gauge_add(name, delta);
}

/// Records one completed span under `path` (unbuffered).
pub fn record_span(path: &str, seconds: f64) {
    global().record_span(path, seconds);
}

/// Records one campaign point's cost (unbuffered).
pub fn record_point(key: &str, seconds: f64, retries: u64, iterations: u64) {
    global().record_point(key, seconds, retries, iterations);
}

/// Retains a point's convergence trajectory in the global registry
/// (unbuffered; see [`Registry::record_trace`] for the retention
/// policy).
pub fn record_trace(key: &str, outcome: &str, seconds: f64, traj: PointTrajectory) {
    global().record_trace(key, outcome, seconds, traj);
}

/// Cumulative per-thread solver work: monotonic within a thread, so a
/// campaign executor can diff it around one grid point to attribute
/// solver cost to that point without touching the global registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTally {
    /// Newton iterations recorded on this thread so far.
    pub iterations: u64,
    /// Whole-solve retries recorded on this thread so far.
    pub retries: u64,
}

impl SolverTally {
    /// The work done since `earlier` (same-thread snapshots).
    pub fn since(&self, earlier: &SolverTally) -> SolverTally {
        SolverTally {
            iterations: self.iterations.saturating_sub(earlier.iterations),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }
}

thread_local! {
    static TALLY: std::cell::Cell<SolverTally> = const {
        std::cell::Cell::new(SolverTally {
            iterations: 0,
            retries: 0,
        })
    };
}

/// Adds solver work to the calling thread's cumulative tally (called by
/// the instrumented solver alongside its histogram records).
pub fn tally_add(iterations: u64, retries: u64) {
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        v.iterations += iterations;
        v.retries += retries;
        t.set(v);
    });
}

/// The calling thread's cumulative solver tally.
pub fn tally() -> SolverTally {
    TALLY.try_with(std::cell::Cell::get).unwrap_or_default()
}

/// Folds this thread's buffered metrics into the global registry.
pub fn flush() {
    let _ = LOCAL.try_with(|buf| global().fold_local(&mut buf.borrow_mut()));
}

/// Flushes the calling thread, then snapshots the global registry.
pub fn snapshot() -> Snapshot {
    flush();
    global().snapshot()
}

/// Flushes the calling thread, then clears the global registry.
///
/// Other threads' unflushed buffers survive a reset and fold in later;
/// single-threaded drivers (the CLI) see an exact reset.
pub fn reset() {
    flush();
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_all_kinds() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        r.gauge_add("total", 1.5);
        r.gauge_add("total", 2.0);
        r.hist_record("h", 4.0);
        r.record_span("x/y", 0.5);
        r.record_span("x/y", 1.5);
        let s = r.snapshot();
        assert_eq!(s.counters["a"], 5);
        assert_eq!(s.gauges["g"], 2.5);
        assert_eq!(s.gauges["total"], 3.5);
        assert_eq!(s.histograms["h"].count(), 1);
        assert_eq!(s.spans["x/y"].count, 2);
        assert!((s.spans["x/y"].total_s - 2.0).abs() < 1e-12);
        assert!((s.spans["x/y"].max_s - 1.5).abs() < 1e-12);
        r.reset();
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn point_lists_are_bounded_and_sorted() {
        let r = Registry::new();
        for i in 0..(MAX_POINTS + 20) {
            let retries = u64::from(i % 3 == 0);
            r.record_point(&format!("p{i}"), i as f64 * 1.0e-3, retries, 10);
        }
        let s = r.snapshot();
        assert_eq!(s.slowest.len(), MAX_POINTS);
        assert!(s.slowest.windows(2).all(|w| w[0].seconds >= w[1].seconds));
        // Only retried points make the hot-spot list.
        assert!(!s.retry_hot.is_empty());
        assert!(s.retry_hot.iter().all(|p| p.retries > 0));
        assert_eq!(
            s.histograms["campaign.point_seconds"].count(),
            (MAX_POINTS + 20) as u64
        );
    }

    #[test]
    fn trace_retention_keeps_failures_and_slowest_successes() {
        let traj = |n: u64| PointTrajectory {
            samples: vec![
                TraceSample {
                    stage: "plain",
                    attempt: 0,
                    residual: 1.0,
                    alpha: 1.0,
                };
                n as usize
            ],
            recorded: n,
        };
        let r = Registry::new();
        for i in 0..(MAX_SLOW_TRACES + 5) {
            r.record_trace(&format!("ok{i}"), "ok", i as f64, traj(3));
        }
        for i in 0..(MAX_FAILED_TRACES + 5) {
            r.record_trace(&format!("bad{i}"), "failed", 0.1, traj(2));
        }
        let s = r.snapshot();
        let failed: Vec<&TraceRecord> = s.traces.iter().filter(|t| t.outcome == "failed").collect();
        let ok: Vec<&TraceRecord> = s.traces.iter().filter(|t| t.outcome == "ok").collect();
        assert_eq!(failed.len(), MAX_FAILED_TRACES);
        assert_eq!(ok.len(), MAX_SLOW_TRACES);
        // Failures come first, successes sorted slowest-first.
        assert_eq!(s.traces[0].outcome, "failed");
        assert!(ok.windows(2).all(|w| w[0].seconds >= w[1].seconds));
        assert_eq!(ok[0].key, format!("ok{}", MAX_SLOW_TRACES + 4));
        assert_eq!(ok[0].samples.len(), 3);
        r.reset();
        assert!(r.snapshot().traces.is_empty());
    }

    #[test]
    fn buffered_globals_fold_in_on_flush() {
        // Unique names: the global registry is shared across tests.
        counter_add("test.metrics.buffered_counter", 7);
        hist_record("test.metrics.buffered_hist", 3.0);
        flush();
        let s = snapshot();
        assert_eq!(s.counters["test.metrics.buffered_counter"], 7);
        assert_eq!(s.histograms["test.metrics.buffered_hist"].count(), 1);
    }

    #[test]
    fn cross_thread_records_survive_thread_exit() {
        std::thread::spawn(|| {
            counter_add("test.metrics.cross_thread", 11);
        })
        .join()
        .unwrap();
        // The spawned thread's Drop flush folded its buffer in.
        let s = snapshot();
        assert_eq!(s.counters["test.metrics.cross_thread"], 11);
    }
}

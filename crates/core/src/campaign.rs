//! Resilient campaign machinery shared by the experiment executors.
//!
//! The paper's tables are products of thousands of operating-point
//! solves over a (defect × case-study × PVT) grid. A single
//! pathological point used to abort a whole campaign; this module
//! provides the pieces that let an executor *record* such a point and
//! keep going:
//!
//! * [`run_grid`] — the one runner every campaign's grid points go
//!   through: it times each point, keeps its solver trajectory under
//!   the outcome's label, turns a panic into a recordable error, hands
//!   each outcome to the campaign's in-order hook as it settles and
//!   folds results, failures and coverage in grid order ([`Settled`]);
//! * [`PointFailure`] — a structured record of one grid point that
//!   stayed unsolved after the full
//!   [`anasim::newton::solve_with_retry`] escalation, was turned away
//!   by the pre-flight gate, or panicked;
//! * [`Coverage`] — attempted/completed accounting rendered as the
//!   completeness percentage of a partial table;
//! * [`Checkpoint`] — an append-only tab-separated log of completed
//!   rows (plain `std`, no dependencies), headed by the settings that
//!   computed them, that lets an interrupted campaign resume without
//!   recomputing finished cells.
//!
//! Only *recordable* errors ([`anasim::Error::is_recordable`]) are
//! downgraded to failures: the retryable solver outcomes, a caught
//! panic, plus [`anasim::Error::PreflightRejected`] from the static ERC
//! gate ([`preflight_netlist`]), which turns a structurally broken grid
//! point away with a named-node diagnostic *before* any Newton
//! iteration is spent on it. Other structural errors (invalid
//! netlists, bad time axes) still abort, because they mean the
//! campaign itself is misconfigured.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;

use process::PvtCondition;
use regulator::Defect;

use crate::executor::{parallel_map_isolated, WorkOutcome};

/// Static ERC pre-flight over a netlist a campaign is about to solve.
///
/// Runs the generic rule set ([`erc::check_netlist`]) and rejects on
/// any error-severity finding, returning the total diagnostic count
/// otherwise. Records the `erc.preflight.checked`,
/// `erc.preflight.rejected`, and `erc.diagnostics` observability
/// counters, so every run manifest shows how many points the gate
/// examined and turned away.
///
/// The returned [`anasim::Error::PreflightRejected`] is *recordable*
/// ([`anasim::Error::is_recordable`]) but not retryable: executors
/// log it as a [`PointFailure`] with `attempts: 0` — no rescue rung
/// can reconnect a floating node.
///
/// # Errors
///
/// [`anasim::Error::PreflightRejected`] carrying the first
/// error-severity diagnostic's code and message.
pub fn preflight_netlist(nl: &anasim::Netlist) -> Result<usize, anasim::Error> {
    let report = erc::check_netlist(nl);
    obs::counter_add("erc.preflight.checked", 1);
    obs::counter_add("erc.diagnostics", report.len() as u64);
    match report.reject_on_error() {
        Ok(()) => Ok(report.len()),
        Err(e) => {
            obs::counter_add("erc.preflight.rejected", 1);
            Err(e)
        }
    }
}

/// One grid point (or shared sub-computation) a campaign could not
/// evaluate after exhausting the solver's rescue ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// The defect under characterization (`None` when the failure hit
    /// a defect-independent context, e.g. a DRV or array-load build).
    pub defect: Option<Defect>,
    /// The case-study column, if the point had one.
    pub case_study: Option<u8>,
    /// The grid condition, if the point had one.
    pub pvt: Option<PvtCondition>,
    /// The terminal solver error.
    pub error: anasim::Error,
    /// Solve attempts spent before giving up:
    /// [`anasim::newton::SOLVE_ATTEMPTS`] for a retryable solver
    /// error, 0 for any other (a pre-flight ERC rejection, which no
    /// solve was tried for, or a panic).
    pub attempts: usize,
    /// Whether this failure records a *panic* caught by the executor's
    /// per-point isolation ([`crate::executor::parallel_map_isolated`])
    /// rather than a solver error — a worker died evaluating the point
    /// and the campaign kept going.
    pub panicked: bool,
}

impl PointFailure {
    /// A failure record for one grid point; the attempt count and the
    /// `panicked` marker are derived from the error
    /// ([`anasim::Error::is_retryable`], [`anasim::Error::is_panic`]).
    pub fn new(
        defect: Option<Defect>,
        case_study: Option<u8>,
        pvt: Option<PvtCondition>,
        error: anasim::Error,
    ) -> Self {
        let attempts = if error.is_retryable() {
            anasim::newton::SOLVE_ATTEMPTS
        } else {
            0
        };
        let panicked = error.is_panic();
        PointFailure {
            defect,
            case_study,
            pvt,
            error,
            attempts,
            panicked,
        }
    }
}

impl fmt::Display for PointFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.defect {
            Some(d) => write!(f, "{d}")?,
            None => f.write_str("(context)")?,
        }
        if let Some(cs) = self.case_study {
            write!(f, " × CS{cs}")?;
        }
        if let Some(pvt) = self.pvt {
            write!(f, " @ {pvt}")?;
        }
        write!(f, " — {} (after {} attempts)", self.error, self.attempts)?;
        if self.panicked {
            f.write_str(" [panicked]")?;
        }
        Ok(())
    }
}

/// Attempted/completed accounting of a campaign's grid points.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coverage {
    /// Grid points the campaign tried to evaluate.
    pub attempted: usize,
    /// Points that produced a result (including "no fault found").
    pub completed: usize,
    /// Campaign wall-clock, seconds (0 until the executor stamps it).
    pub elapsed_s: f64,
}

impl Coverage {
    /// Records one successfully evaluated point.
    pub fn record_ok(&mut self) {
        self.attempted += 1;
        self.completed += 1;
    }

    /// Records one point that stayed unsolved.
    pub fn record_failure(&mut self) {
        self.attempted += 1;
    }

    /// Folds a sub-campaign's accounting into this one. Point counts
    /// add; wall-clock takes the *max*, because sub-results may have
    /// been computed concurrently by the parallel executor — summing
    /// would overstate elapsed time and understate throughput. The
    /// true campaign wall-clock is stamped once, at the executor top
    /// level, after every sub-result has merged (a merged-in resumed
    /// cell carries `elapsed_s: 0` and never perturbs it).
    pub fn merge(&mut self, other: Coverage) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Completed points per wall-clock second (0 until the elapsed
    /// time is stamped).
    pub fn points_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.completed as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Completion percentage (100 for an empty campaign).
    pub fn percent(&self) -> f64 {
        if self.attempted == 0 {
            100.0
        } else {
            self.completed as f64 / self.attempted as f64 * 100.0
        }
    }

    /// Whether every attempted point completed.
    pub fn is_complete(&self) -> bool {
        self.completed == self.attempted
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} grid points ({:.1}%)",
            self.completed,
            self.attempted,
            self.percent()
        )
    }
}

/// Renders the completeness footer every partial-capable report
/// appends below its table: a coverage line (with wall-clock and
/// throughput once the executor stamped `elapsed_s`), then one line
/// per unresolved point.
pub fn completeness_footer(coverage: &Coverage, failures: &[PointFailure]) -> String {
    let mut out = format!("coverage: {coverage}");
    if coverage.elapsed_s > 0.0 {
        out.push_str(&format!(
            " — {:.1} s wall-clock, {:.2} points/s",
            coverage.elapsed_s,
            coverage.points_per_sec()
        ));
    }
    for failure in failures {
        out.push_str("\n  unresolved: ");
        out.push_str(&failure.to_string());
    }
    out
}

/// Publishes a campaign's final coverage by adding it to the obs
/// gauges the manifest builder reads ([`obs::RunManifest::from_snapshot`]).
/// Each campaign publishes once, so a run of several campaigns (the
/// CLI's `all`) reports their summed points and wall-clock.
pub fn publish_coverage(coverage: &Coverage) {
    obs::gauge_add(obs::GAUGE_COVERAGE_ATTEMPTED, coverage.attempted as f64);
    obs::gauge_add(obs::GAUGE_COVERAGE_COMPLETED, coverage.completed as f64);
    obs::gauge_add(obs::GAUGE_COVERAGE_ELAPSED_S, coverage.elapsed_s);
}

/// Where one grid point sits: the key its cost and trajectory are
/// recorded under, and the coordinates its [`PointFailure`] names.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Trace key, e.g. `df16/cs1 @ fs, 1.00V, 125°C`.
    pub key: String,
    /// The defect under characterization, if any.
    pub defect: Option<Defect>,
    /// The case-study column, if any.
    pub case_study: Option<u8>,
    /// The grid condition, if any.
    pub pvt: Option<PvtCondition>,
}

impl GridPoint {
    /// A grid point with its key and coordinates.
    pub fn new(
        key: String,
        defect: Option<Defect>,
        case_study: Option<u8>,
        pvt: Option<PvtCondition>,
    ) -> Self {
        GridPoint {
            key,
            defect,
            case_study,
            pvt,
        }
    }
}

/// A campaign's grid points, settled in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct Settled<R> {
    /// One entry per grid point: its result, or `None` where it failed.
    pub results: Vec<Option<R>>,
    /// The points that failed recordably, in grid order.
    pub failures: Vec<PointFailure>,
    /// Attempted/completed accounting (no wall-clock: the campaign
    /// stamps that once around all of its work).
    pub coverage: Coverage,
}

impl<R> Default for Settled<R> {
    fn default() -> Self {
        Settled {
            results: Vec::new(),
            failures: Vec::new(),
            coverage: Coverage::default(),
        }
    }
}

impl<R> Settled<R> {
    /// Folds the next point's outcome: a result completes the point, a
    /// recordable error ([`anasim::Error::is_recordable`]) becomes a
    /// [`PointFailure`] at `at`, and any other error is returned, for
    /// the campaign to abort on.
    ///
    /// # Errors
    ///
    /// The outcome's error when it is not recordable.
    pub fn push(
        &mut self,
        at: &GridPoint,
        outcome: Result<R, anasim::Error>,
    ) -> Result<(), anasim::Error> {
        match outcome {
            Ok(r) => {
                self.coverage.record_ok();
                self.results.push(Some(r));
            }
            Err(e) if e.is_recordable() => {
                self.coverage.record_failure();
                self.results.push(None);
                self.failures
                    .push(PointFailure::new(at.defect, at.case_study, at.pvt, e));
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

/// Runs every grid point of a campaign through
/// [`parallel_map_isolated`], settling each the same way: `work(item)`
/// runs under a point timer keyed by `point(index, item)`, which
/// records the point's cost and keeps its solver trajectory labelled
/// `ok`, `failed` or `panicked`; a panic becomes
/// [`anasim::Error::Panicked`]; and the outcomes fold in grid order
/// ([`Settled::push`]), so the result is identical for every `jobs`
/// value.
///
/// `settled(index, outcome)` hears of each point's outcome on the
/// calling thread, in grid order, as soon as it and every earlier
/// point have settled, while later points may still be running: the
/// hook a campaign reports a finished row, series or cell from while
/// it runs rather than after the fan-out.
///
/// # Errors
///
/// The lowest-index error that is not recordable. Every point still
/// runs before it is returned.
pub fn run_grid<T, R>(
    jobs: usize,
    items: &[T],
    point: impl Fn(usize, &T) -> GridPoint + Sync,
    work: impl Fn(&T) -> Result<R, anasim::Error> + Sync,
    mut settled: impl FnMut(usize, &Result<R, anasim::Error>),
) -> Result<Settled<R>, anasim::Error>
where
    T: Sync,
    R: Send,
{
    let panicked = |what: String| Err(anasim::Error::Panicked { what });
    let outcomes = parallel_map_isolated(
        jobs,
        items,
        |i, item| {
            // Timed points must not nest: each timer opens the thread's
            // flight-recorder bracket afresh.
            let mut timer = PointTimer::start(&point(i, item).key);
            let outcome = work(item);
            timer.outcome = if outcome.is_ok() { "ok" } else { "failed" };
            outcome
        },
        |i, outcome| match outcome {
            WorkOutcome::Done(outcome) => settled(i, outcome),
            WorkOutcome::Panicked { message } => settled(i, &panicked(message.clone())),
        },
    );
    let mut fold = Settled::default();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        fold.push(&point(i, &items[i]), outcome.unwrap_or_else(panicked))?;
    }
    Ok(fold)
}

/// Scope timer for one campaign grid point: snapshots the wall clock
/// and the thread's solver tally at construction, and attributes the
/// deltas to the point's key when dropped.
#[derive(Debug)]
struct PointTimer {
    key: String,
    start: std::time::Instant,
    tally0: obs::SolverTally,
    /// The label the point's trajectory is kept under; a timer dropped
    /// by a panic unwinding through its point keeps `panicked`.
    outcome: &'static str,
}

impl PointTimer {
    /// Starts timing the point identified by `key`, and opens a
    /// flight-recorder bracket so the solver's per-iteration residual
    /// trajectory can be retained if this point turns out interesting
    /// (a no-op unless the recorder is enabled).
    fn start(key: &str) -> Self {
        obs::flight_begin();
        PointTimer {
            key: key.to_string(),
            start: std::time::Instant::now(),
            tally0: obs::tally(),
            outcome: "panicked",
        }
    }
}

impl Drop for PointTimer {
    /// Records the point's wall-clock, iterations and retries into the
    /// obs registry, emits a `point` trace event when a sink is
    /// installed, and closes the flight-recorder bracket.
    fn drop(&mut self) {
        let seconds = self.start.elapsed().as_secs_f64();
        let work = obs::tally().since(&self.tally0);
        obs::record_point(&self.key, seconds, work.retries, work.iterations);
        if obs::sink_installed() {
            obs::emit(
                "point",
                vec![
                    ("key".to_string(), obs::Json::Str(self.key.clone())),
                    (
                        "outcome".to_string(),
                        obs::Json::Str(self.outcome.to_string()),
                    ),
                    ("seconds".to_string(), obs::Json::Num(seconds)),
                    (
                        "iterations".to_string(),
                        obs::Json::Num(work.iterations as f64),
                    ),
                    ("retries".to_string(), obs::Json::Num(work.retries as f64)),
                ],
            );
        }
        // The registry keeps the trajectory only for failures and the
        // slowest-k successes.
        if let Some(traj) = obs::flight_take() {
            obs::record_trace(&self.key, self.outcome, seconds, traj);
        }
    }
}

/// Periodic campaign progress snapshots with ETA and stall detection.
///
/// A campaign creates one heartbeat and calls
/// [`tick`](Heartbeat::tick) from [`run_grid`]'s in-order hook;
/// at most one `heartbeat` event is emitted every 5 s, carrying
/// completed/total, throughput, and the ETA a streaming consumer
/// needs. When no point completes for 30 s, the next tick flags the
/// snapshot as stalled, counts it in `campaign.heartbeat.stalls`, and
/// warns via [`obs::progress`].
#[derive(Debug)]
pub struct Heartbeat {
    artifact: String,
    total: usize,
    started: std::time::Instant,
    last_emit: Option<std::time::Instant>,
    last_change: (usize, std::time::Instant),
    stall_reported: bool,
}

/// Seconds a [`Heartbeat`] waits between two emitted events.
const HEARTBEAT_INTERVAL_S: f64 = 5.0;

/// Seconds without a completed point after which a [`Heartbeat`]
/// flags the campaign as stalled.
const STALL_AFTER_S: f64 = 30.0;

/// One emitted heartbeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatSnapshot {
    /// Points completed so far.
    pub completed: usize,
    /// Points in the whole campaign.
    pub total: usize,
    /// Seconds since the campaign started.
    pub elapsed_s: f64,
    /// Completed points per second so far.
    pub points_per_sec: f64,
    /// Estimated seconds to completion (infinite while throughput is
    /// still zero).
    pub eta_s: f64,
    /// Whether no progress was observed for the stall window.
    pub stalled: bool,
}

impl Heartbeat {
    /// A heartbeat for a campaign of `total` points.
    pub fn new(artifact: impl Into<String>, total: usize) -> Self {
        let now = std::time::Instant::now();
        Heartbeat {
            artifact: artifact.into(),
            total,
            started: now,
            last_emit: None,
            last_change: (0, now),
            stall_reported: false,
        }
    }

    /// Reports progress; emits a `heartbeat` event (and returns the
    /// snapshot) when the interval elapsed or a stall began.
    pub fn tick(&mut self, completed: usize) -> Option<HeartbeatSnapshot> {
        self.tick_at(completed, std::time::Instant::now())
    }

    /// [`tick`](Heartbeat::tick) against an explicit clock (tests
    /// drive this with synthetic instants).
    pub fn tick_at(
        &mut self,
        completed: usize,
        now: std::time::Instant,
    ) -> Option<HeartbeatSnapshot> {
        if completed != self.last_change.0 {
            self.last_change = (completed, now);
            self.stall_reported = false;
        }
        let stalled = now.duration_since(self.last_change.1).as_secs_f64() >= STALL_AFTER_S;
        let due = match self.last_emit {
            None => true,
            Some(t) => now.duration_since(t).as_secs_f64() >= HEARTBEAT_INTERVAL_S,
        };
        // A fresh stall jumps the schedule so the warning is prompt.
        let fresh_stall = stalled && !self.stall_reported;
        if !due && !fresh_stall {
            return None;
        }
        self.last_emit = Some(now);
        let elapsed_s = now.duration_since(self.started).as_secs_f64();
        let points_per_sec = if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        };
        let remaining = self.total.saturating_sub(completed);
        let eta_s = if points_per_sec > 0.0 {
            remaining as f64 / points_per_sec
        } else {
            f64::INFINITY
        };
        let snap = HeartbeatSnapshot {
            completed,
            total: self.total,
            elapsed_s,
            points_per_sec,
            eta_s,
            stalled,
        };
        self.publish(&snap);
        Some(snap)
    }

    fn publish(&mut self, snap: &HeartbeatSnapshot) {
        obs::gauge_set("campaign.heartbeat.completed", snap.completed as f64);
        if snap.eta_s.is_finite() {
            obs::gauge_set("campaign.heartbeat.eta_s", snap.eta_s);
        }
        if obs::sink_installed() {
            obs::emit(
                "heartbeat",
                vec![
                    (
                        "artifact".to_string(),
                        obs::Json::Str(self.artifact.clone()),
                    ),
                    (
                        "completed".to_string(),
                        obs::Json::Num(snap.completed as f64),
                    ),
                    ("total".to_string(), obs::Json::Num(snap.total as f64)),
                    (
                        "elapsed_s".to_string(),
                        obs::Json::finite_num(snap.elapsed_s),
                    ),
                    // Throughput and ETA are infinite (or, on a clock
                    // with sub-tick resolution, NaN-prone) until the
                    // first point lands; the event stream records that
                    // honestly as null rather than a bogus number.
                    (
                        "points_per_sec".to_string(),
                        obs::Json::finite_num(snap.points_per_sec),
                    ),
                    ("eta_s".to_string(), obs::Json::finite_num(snap.eta_s)),
                    ("stalled".to_string(), obs::Json::Bool(snap.stalled)),
                ],
            );
        }
        if snap.stalled && !self.stall_reported {
            self.stall_reported = true;
            obs::counter_add("campaign.heartbeat.stalls", 1);
            obs::progress(&format!(
                "{}: no progress for {:.0} s ({}/{} points)",
                self.artifact, STALL_AFTER_S, snap.completed, snap.total
            ));
        }
    }
}

/// An append-only tab-separated checkpoint log.
///
/// Each completed row of a campaign is appended as one line whose
/// first field is a stable key (e.g. `df16/cs1`); a rerun pointed at
/// the same file skips keys already present. Lines starting with `#`
/// are comments; the first line of a log a campaign opens
/// ([`Checkpoint::open`]) names the settings its rows were computed
/// under. Plain `std` I/O — no serialization dependency.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    path: PathBuf,
}

impl Checkpoint {
    /// A checkpoint backed by `path` (the file need not exist yet),
    /// read and appended as it stands.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Checkpoint { path: path.into() }
    }

    /// The checkpoint at `path` for a campaign whose settings render as
    /// the one line `settings`. A missing or empty file is started with
    /// `# <settings>`; a file holding anything else must begin with
    /// that line, so no row is ever resumed under settings other than
    /// those that computed it. A header torn by a crash mid-write counts
    /// as empty.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] naming the file when its first
    /// line differs or is missing, and other I/O errors.
    pub fn open(path: impl Into<PathBuf>, settings: &str) -> io::Result<Self> {
        let checkpoint = Checkpoint::new(path);
        let header = format!("# {settings}");
        let text = match fs::read_to_string(&checkpoint.path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        match text.split_once('\n') {
            None => checkpoint.append(&[header])?,
            Some((first, _)) if first == header => {}
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} was written under other settings than this run's; \
                         delete it to start afresh",
                        checkpoint.path.display()
                    ),
                ))
            }
        }
        Ok(checkpoint)
    }

    /// Every logged row, split into fields. Later rows win when a key
    /// repeats (the map form; here duplicates are all returned in file
    /// order).
    ///
    /// A file that does not end in a newline has a *torn* final row —
    /// a crash interrupted [`append`](Checkpoint::append) mid-write.
    /// A torn row is silently dropped rather than parsed: a truncated
    /// numeric field like `976.5` (cut from `976.56`) parses cleanly
    /// but is *wrong*, so the only safe reading is "this cell was
    /// never logged" — the resuming campaign recomputes it.
    ///
    /// # Errors
    ///
    /// I/O errors other than "file not found".
    pub fn rows(&self) -> io::Result<Vec<Vec<String>>> {
        let text = match fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut lines: Vec<&str> = text.lines().collect();
        if !text.is_empty() && !text.ends_with('\n') {
            lines.pop(); // torn final row: crash mid-append, recompute it
        }
        Ok(lines
            .into_iter()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| l.split('\t').map(str::to_string).collect())
            .collect())
    }

    /// As [`rows`](Checkpoint::rows), but keyed by the first field;
    /// later duplicates overwrite earlier ones.
    ///
    /// # Errors
    ///
    /// I/O errors other than "file not found".
    pub fn rows_by_key(&self) -> io::Result<HashMap<String, Vec<String>>> {
        Ok(self
            .rows()?
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(|mut r| {
                let key = r.remove(0);
                (key, r)
            })
            .collect())
    }

    /// Appends one row (fields joined by tabs), creating the file and
    /// its parent directories on first use.
    ///
    /// If a previous run crashed mid-append and left a torn final row
    /// (no trailing newline), the torn fragment is first truncated
    /// away: sealing it with a newline instead would turn a truncated
    /// numeric field into a parseable-but-wrong complete row on the
    /// next read. The row itself goes out as a single `write_all` of
    /// one newline-terminated buffer, flushed before returning, so
    /// each append is crash-atomic at line granularity on any POSIX
    /// filesystem that honors `O_APPEND`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&self, fields: &[String]) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            use std::io::{Read as _, Seek as _, SeekFrom};
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                // Torn final row from a crashed run: discard the
                // fragment so the new row starts on a clean line.
                let mut bytes = Vec::new();
                file.seek(SeekFrom::Start(0))?;
                file.read_to_end(&mut bytes)?;
                let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                file.set_len(keep as u64)?;
            }
        }
        let mut line = fields.join("\t");
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes the tests that arm the process-global flight recorder
    /// or count deliberate panics in the global `executor.panic` counter.
    pub(crate) fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn runner_hook_hears_each_outcome_before_the_next_point_runs() {
        let _obs = obs_lock();
        let log = std::sync::Mutex::new(Vec::<String>::new());
        let items: Vec<usize> = (0..4).collect();
        let settled = run_grid(
            1,
            &items,
            |i, _| GridPoint::new(format!("hook-test #{i}"), None, None, None),
            |&i| {
                log.lock().unwrap().push(format!("point {i}"));
                match i {
                    1 => Err(anasim::Error::NoConvergence {
                        iterations: 1,
                        residual: 1.0,
                    }),
                    2 => panic!("poisoned point {i}"),
                    _ => Ok(i),
                }
            },
            |i, outcome| {
                let heard = match outcome {
                    Ok(r) => format!("ok {r}"),
                    Err(e) if e.is_panic() => "panicked".to_string(),
                    Err(_) => "failed".to_string(),
                };
                log.lock().unwrap().push(format!("settled {i}: {heard}"));
            },
        )
        .expect("no point fails fatally");
        assert_eq!(settled.results, vec![Some(0), None, None, Some(3)]);
        assert_eq!(
            *log.lock().unwrap(),
            [
                "point 0",
                "settled 0: ok 0",
                "point 1",
                "settled 1: failed",
                "point 2",
                "settled 2: panicked",
                "point 3",
                "settled 3: ok 3",
            ]
        );
    }

    #[test]
    fn runner_settles_every_kind_of_point_alike_at_any_job_count() {
        let _obs = obs_lock();
        // Items are (kind, tag): 0 succeeds, 1 fails recordably, 2
        // panics, 3 fails fatally. Each records one solver sample.
        let run = |jobs: usize, items: &[(u8, usize)]| {
            run_grid(
                jobs,
                items,
                |i, _| {
                    GridPoint::new(
                        format!("runner-test j{jobs} #{i}"),
                        None,
                        Some(i as u8),
                        None,
                    )
                },
                |&(kind, tag)| {
                    obs::flight_record(1.0, 1.0);
                    match kind {
                        0 => Ok(tag),
                        1 => Err(anasim::Error::NoConvergence {
                            iterations: 1,
                            residual: 1.0,
                        }),
                        2 => panic!("poisoned point {tag}"),
                        _ => Err(anasim::Error::InvalidValue {
                            device: format!("point {tag}"),
                            what: "fatal".into(),
                        }),
                    }
                },
                |_, _| {},
            )
        };
        obs::flight_enable(obs::DEFAULT_CAPACITY);
        let items = [(0, 10), (1, 11), (2, 12), (0, 13)];
        let sequential = run(1, &items).expect("no point fails fatally");
        let parallel = run(4, &items).expect("no point fails fatally");
        let fatal: Vec<_> = [1, 4]
            .into_iter()
            .map(|jobs| run(jobs, &[(2, 0), (0, 1), (3, 2), (1, 3), (3, 4)]).expect_err("fatal"))
            .collect();
        obs::flight_disable();

        assert_eq!(sequential, parallel);
        assert_eq!(sequential.results, vec![Some(10), None, None, Some(13)]);
        assert_eq!(
            (sequential.coverage.attempted, sequential.coverage.completed),
            (4, 2)
        );
        let [failed, panicked] = &sequential.failures[..] else {
            panic!("two failures: {:?}", sequential.failures);
        };
        assert_eq!(failed.case_study, Some(1));
        assert!(failed.error.is_retryable() && !failed.panicked);
        assert_eq!(panicked.case_study, Some(2));
        assert!(panicked.panicked && panicked.error.to_string().contains("poisoned point 12"));

        let traces = obs::snapshot().traces;
        for jobs in [1, 4] {
            for (i, outcome) in [(1, "failed"), (2, "panicked")] {
                let key = format!("runner-test j{jobs} #{i}");
                assert!(
                    traces.iter().any(|t| t.key == key && t.outcome == outcome),
                    "{key} kept as {outcome}"
                );
            }
        }
        for err in fatal {
            assert!(
                err.to_string().contains("point 2"),
                "lowest-index fatal error: {err}"
            );
        }
    }

    #[test]
    fn coverage_accounting_and_percent() {
        let mut c = Coverage::default();
        assert_eq!(c.percent(), 100.0);
        assert!(c.is_complete());
        c.record_ok();
        c.record_ok();
        c.record_failure();
        assert_eq!(c.attempted, 3);
        assert_eq!(c.completed, 2);
        assert!(!c.is_complete());
        assert!((c.percent() - 66.666).abs() < 0.01);
        let mut d = Coverage::default();
        d.record_ok();
        d.merge(c);
        assert_eq!(d.attempted, 4);
        assert_eq!(d.completed, 3);
        assert_eq!(d.to_string(), "3/4 grid points (75.0%)");
    }

    #[test]
    fn heartbeat_paces_emits_and_computes_eta() {
        use std::time::{Duration, Instant};
        let t0 = Instant::now();
        let mut hb = Heartbeat::new("test-hb", 100);
        hb.started = t0;
        hb.last_change = (0, t0);
        // First tick always emits (a baseline snapshot).
        let s = hb.tick_at(0, t0).expect("first tick emits");
        assert_eq!(s.completed, 0);
        assert!(!s.stalled);
        // Inside the interval: silent.
        assert!(hb.tick_at(10, t0 + Duration::from_secs(2)).is_none());
        // Past the interval: emits with throughput and ETA.
        let s = hb
            .tick_at(20, t0 + Duration::from_secs(10))
            .expect("due tick emits");
        assert!((s.points_per_sec - 2.0).abs() < 1e-9);
        assert!((s.eta_s - 40.0).abs() < 1e-9, "80 left at 2/s");
        assert!(!s.stalled);
    }

    #[test]
    fn heartbeat_event_stays_valid_json_on_sub_resolution_runs() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};
        use std::time::Instant;

        /// A Write backed by a shared byte buffer.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        // Regression: a run that finishes inside one clock tick has
        // elapsed_s == 0, so the snapshot's ETA is infinite. The
        // emitted JSONL line used to carry Json::Num(inf); it must
        // still parse, with eta_s degraded to null and the finite
        // fields intact.
        let t0 = Instant::now();
        let mut hb = Heartbeat::new("test-hb-subres", 100);
        hb.started = t0;
        hb.last_change = (0, t0);
        let buf = Arc::new(Mutex::new(Vec::new()));
        obs::install_writer(Box::new(Shared(buf.clone())));
        let s = hb.tick_at(0, t0).expect("first tick emits");
        obs::close_sink();
        assert!(s.eta_s.is_infinite(), "no throughput yet");
        assert_eq!(s.points_per_sec, 0.0);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("test-hb-subres"))
            .expect("heartbeat event written");
        let doc = obs::json::parse(line).expect("line is valid JSON");
        assert_eq!(doc.get("eta_s"), Some(&obs::Json::Null));
        assert_eq!(
            doc.get("points_per_sec").and_then(|v| v.as_f64()),
            Some(0.0)
        );
        assert_eq!(doc.get("total").and_then(|v| v.as_u64()), Some(100));
    }

    #[test]
    fn heartbeat_flags_a_stall_once_and_recovers() {
        use std::time::{Duration, Instant};
        let t0 = Instant::now();
        let mut hb = Heartbeat::new("test-hb-stall", 10);
        hb.started = t0;
        hb.last_change = (0, t0);
        let s = hb
            .tick_at(4, t0 + Duration::from_secs(6))
            .expect("progress tick");
        assert!(!s.stalled);
        // 30 s with no completed change: stalled, even off-schedule.
        assert!(hb.tick_at(4, t0 + Duration::from_secs(8)).is_none());
        let s = hb
            .tick_at(4, t0 + Duration::from_secs(37))
            .expect("stall jumps the schedule");
        assert!(s.stalled);
        // Progress clears the stall.
        let s = hb
            .tick_at(5, t0 + Duration::from_secs(50))
            .expect("due tick");
        assert!(!s.stalled);
    }

    #[test]
    fn point_failure_renders_coordinates() {
        let f = PointFailure::new(
            Some(Defect::new(16)),
            Some(1),
            Some(PvtCondition::nominal()),
            anasim::Error::NoConvergence {
                iterations: 400,
                residual: 1.0e-2,
            },
        );
        let s = f.to_string();
        assert!(s.contains("Df16"), "{s}");
        assert!(s.contains("CS1"), "{s}");
        assert!(s.contains("after 4 attempts"), "{s}");
        assert!(!f.panicked && !s.contains("[panicked]"), "{s}");
        let ctx = PointFailure { defect: None, ..f };
        assert!(ctx.to_string().starts_with("(context)"));
    }

    #[test]
    fn panicked_point_failure_is_marked() {
        let f = PointFailure::new(
            Some(Defect::new(3)),
            Some(2),
            None,
            anasim::Error::Panicked {
                what: "index out of bounds".into(),
            },
        );
        assert!(f.panicked);
        let s = f.to_string();
        assert!(s.contains("worker panicked"), "{s}");
        assert!(s.ends_with("[panicked]"), "{s}");
    }

    #[test]
    fn point_failure_derives_attempts_from_the_error() {
        let attempts = |error| PointFailure::new(None, None, None, error).attempts;
        // A retryable solver error ran the whole escalation schedule.
        assert_eq!(
            attempts(anasim::Error::NoConvergence {
                iterations: 400,
                residual: 1.0e-2,
            }),
            anasim::newton::SOLVE_ATTEMPTS
        );
        // The pre-flight gate turns a point away before any solve, and
        // a panic is no solver verdict.
        assert_eq!(
            attempts(anasim::Error::PreflightRejected {
                code: "ERC001".into(),
                what: "floating node `x`".into(),
            }),
            0
        );
        assert_eq!(
            attempts(anasim::Error::Panicked {
                what: "index out of bounds".into(),
            }),
            0
        );
    }

    #[test]
    fn footer_lists_unresolved_points() {
        let mut c = Coverage::default();
        c.record_ok();
        c.record_failure();
        let failures = vec![PointFailure::new(
            Some(Defect::new(8)),
            Some(2),
            None,
            anasim::Error::SingularMatrix {
                pivot_row: 3,
                unknown: None,
            },
        )];
        let footer = completeness_footer(&c, &failures);
        assert!(footer.starts_with("coverage: 1/2"), "{footer}");
        assert!(footer.contains("unresolved: Df8 × CS2"), "{footer}");
        // Unstamped coverage shows no timing.
        assert!(!footer.contains("wall-clock"), "{footer}");
    }

    #[test]
    fn footer_reports_wall_clock_and_throughput() {
        let mut c = Coverage::default();
        for _ in 0..6 {
            c.record_ok();
        }
        c.elapsed_s = 12.0;
        assert!((c.points_per_sec() - 0.5).abs() < 1e-12);
        let footer = completeness_footer(&c, &[]);
        assert!(
            footer.contains("12.0 s wall-clock") && footer.contains("0.50 points/s"),
            "{footer}"
        );
        // Merging takes the max of elapsed times: sub-results may have
        // been computed concurrently, and the executor stamps the real
        // wall-clock at the top level.
        let mut total = Coverage::default();
        total.merge(c);
        total.merge(c);
        assert!((total.elapsed_s - 12.0).abs() < 1e-12);
        assert_eq!(total.completed, 12);
    }

    #[test]
    fn merge_does_not_sum_concurrent_wall_clock() {
        // Regression: merge used to sum elapsed_s ("sub-campaigns run
        // sequentially"), which under the parallel executor overstated
        // wall-clock N-fold and understated points_per_sec by the same
        // factor. Two 12 s sub-campaigns of 6 points each that ran
        // concurrently are 12 points in 12 s — 1.0 points/s, not 0.5.
        let mut sub = Coverage::default();
        for _ in 0..6 {
            sub.record_ok();
        }
        sub.elapsed_s = 12.0;
        let mut total = Coverage::default();
        total.merge(sub);
        total.merge(sub);
        assert_eq!(total.completed, 12);
        assert!((total.elapsed_s - 12.0).abs() < 1e-12);
        assert!((total.points_per_sec() - 1.0).abs() < 1e-12);
        // A resumed cell merged with elapsed_s: 0 never perturbs the
        // stamped wall-clock.
        total.merge(Coverage {
            attempted: 3,
            completed: 3,
            elapsed_s: 0.0,
        });
        assert!((total.elapsed_s - 12.0).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_roundtrip_and_resume() {
        let dir = std::env::temp_dir().join("drftest-campaign-test");
        let path = dir.join("nested").join("table2.tsv");
        let _ = fs::remove_file(&path);
        let cp = Checkpoint::new(&path);
        // Absent file: empty, not an error.
        assert!(cp.rows_by_key().unwrap().is_empty());
        cp.append(&["df16/cs1".into(), "976.56".into(), "fs".into()])
            .unwrap();
        cp.append(&["df19/cs1".into(), "-".into(), "-".into()])
            .unwrap();
        // Re-log a key: the later row wins in the keyed view.
        cp.append(&["df16/cs1".into(), "980.00".into(), "sf".into()])
            .unwrap();
        let by_key = cp.rows_by_key().unwrap();
        assert_eq!(by_key.len(), 2);
        assert_eq!(by_key["df16/cs1"][0], "980.00");
        assert_eq!(by_key["df19/cs1"][0], "-");
        assert_eq!(cp.rows().unwrap().len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_row_is_skipped_and_repaired() {
        // Crash simulation: a run dies mid-append, leaving a partial
        // final line with no trailing newline. The torn row must read
        // as "never logged" (its truncated numeric field would parse
        // cleanly but wrong), and a subsequent append must not
        // concatenate onto the fragment.
        let dir = std::env::temp_dir().join("drftest-campaign-torn-test");
        let path = dir.join("table2.tsv");
        let _ = fs::remove_dir_all(&dir);
        let cp = Checkpoint::new(&path);
        cp.append(&["df16/cs1".into(), "976.56".into(), "fs".into()])
            .unwrap();
        cp.append(&["df19/cs1".into(), "1234.5".into(), "sf".into()])
            .unwrap();

        // Truncate the file mid-row: "1234.5" loses its tail and the
        // line its newline — exactly what a crash mid-write leaves.
        let full = fs::read_to_string(&path).unwrap();
        let cut = full.len() - 5; // strips "5\tsf\n"
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);
        let torn = fs::read_to_string(&path).unwrap();
        assert!(!torn.ends_with('\n'), "setup must leave a torn row");

        // The torn row is invisible to readers: df19/cs1 gets
        // recomputed on resume instead of resuming from a truncated
        // (and silently wrong) value.
        let keys = cp.rows_by_key().unwrap();
        assert!(keys.contains_key("df16/cs1"));
        assert!(!keys.contains_key("df19/cs1"), "torn row must not count");
        assert_eq!(cp.rows().unwrap().len(), 1);

        // The resumed run re-appends the recomputed row; the torn
        // fragment must not corrupt it.
        cp.append(&["df19/cs1".into(), "1234.5".into(), "sf".into()])
            .unwrap();
        let by_key = cp.rows_by_key().unwrap();
        assert_eq!(by_key.len(), 2);
        assert_eq!(by_key["df19/cs1"], vec!["1234.5", "sf"]);
        let healed = fs::read_to_string(&path).unwrap();
        assert!(healed.ends_with('\n'));
        assert!(
            !healed.contains("1234.df19"),
            "torn fragment concatenated with the recomputed row: {healed:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_opens_only_under_its_own_settings() {
        let dir = std::env::temp_dir().join("drftest-campaign-settings-test");
        let path = dir.join("table2.tsv");
        let _ = fs::remove_dir_all(&dir);
        // A new log starts with its settings line, and reopens under it.
        let cp = Checkpoint::open(&path, "grid=a").unwrap();
        cp.append(&["df16/cs1".into(), "976.56".into()]).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "# grid=a\ndf16/cs1\t976.56\n"
        );
        let reopened = Checkpoint::open(&path, "grid=a").unwrap();
        assert_eq!(reopened.rows_by_key().unwrap()["df16/cs1"], ["976.56"]);
        // Other settings, or no settings line at all, are refused by
        // name, and the file is left as it was.
        let refused = Checkpoint::open(&path, "grid=b").expect_err("other settings");
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert!(refused.to_string().contains("table2.tsv"), "{refused}");
        fs::write(&path, "df16/cs1\t976.56\n").unwrap();
        assert!(Checkpoint::open(&path, "grid=a").is_err());
        assert_eq!(fs::read_to_string(&path).unwrap(), "df16/cs1\t976.56\n");
        // An empty file, or a settings line torn mid-write, starts afresh.
        for start in ["", "# gri"] {
            fs::write(&path, start).unwrap();
            Checkpoint::open(&path, "grid=a").unwrap();
            assert_eq!(fs::read_to_string(&path).unwrap(), "# grid=a\n");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

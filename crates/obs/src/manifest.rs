//! Per-experiment run manifests.
//!
//! A [`RunManifest`] is the machine-readable account an experiment
//! leaves behind: what was computed (artifact + config echo + coverage),
//! under which build (git-describe-style version), how long each phase
//! took (span timings), and how hard the solver worked (counters and
//! log-scale histograms, slowest points, retry hot spots). It
//! serializes to pretty JSON, parses back, and renders as a
//! human-readable summary for the CLI's `summary` subcommand.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::hist::Histogram;
use crate::json::{self, Json, JsonError};
use crate::metrics::{PointRecord, Snapshot};

/// Schema tag written into every manifest.
pub const MANIFEST_SCHEMA: &str = "lp-sram-suite/run-manifest/v1";

/// Gauge names the experiment executors add each campaign's coverage
/// to (see `drftest::campaign::publish_coverage`), so a run of several
/// campaigns reports their total.
pub const GAUGE_COVERAGE_ATTEMPTED: &str = "campaign.coverage.attempted";
/// Completed-points gauge.
pub const GAUGE_COVERAGE_COMPLETED: &str = "campaign.coverage.completed";
/// Campaign wall-clock gauge, seconds.
pub const GAUGE_COVERAGE_ELAPSED_S: &str = "campaign.coverage.elapsed_s";

/// Aggregated timing of one span path (manifest form).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Hierarchical span path, e.g. `table2/context`.
    pub path: String,
    /// Completed spans under the path.
    pub count: u64,
    /// Total wall-clock, seconds.
    pub total_s: f64,
    /// Slowest single span, seconds.
    pub max_s: f64,
}

/// One grid point's cost (manifest form).
#[derive(Debug, Clone, PartialEq)]
pub struct PointTiming {
    /// Stable point key.
    pub key: String,
    /// Wall-clock spent, seconds.
    pub seconds: f64,
    /// Solver retries needed.
    pub retries: u64,
    /// Newton iterations consumed.
    pub iterations: u64,
}

impl From<&PointRecord> for PointTiming {
    fn from(r: &PointRecord) -> Self {
        PointTiming {
            key: r.key.clone(),
            seconds: r.seconds,
            retries: r.retries,
            iterations: r.iterations,
        }
    }
}

/// A histogram reduced to its serializable summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Observations `<= 0`.
    pub zeros: u64,
    /// Non-empty power-of-two buckets as `(exponent, count)`.
    pub buckets: Vec<(i32, u64)>,
}

impl From<&Histogram> for HistogramSummary {
    fn from(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            zeros: h.zeros(),
            buckets: h.buckets().collect(),
        }
    }
}

impl HistogramSummary {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile over the serialized buckets, mirroring
    /// [`Histogram::quantile`]: geometric bucket midpoint clamped to
    /// the observed range, exact at the extremes. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        if rank + 1 >= self.count {
            return self.max;
        }
        if rank < self.zeros {
            return self.min.min(0.0);
        }
        let mut seen = self.zeros;
        for &(e, n) in &self.buckets {
            seen += n;
            if rank < seen {
                let mid = 2f64.powi(e) * std::f64::consts::SQRT_2;
                return mid.clamp(self.min.max(0.0), self.max);
            }
        }
        self.max
    }
}

/// One flight-recorder sample (manifest form; stages become owned
/// strings so a parsed manifest round-trips).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSampleSummary {
    /// Rescue-ladder stage label.
    pub stage: String,
    /// Whole-solve retry attempt (0-based).
    pub attempt: u64,
    /// Residual infinity-norm after the iteration.
    pub residual: f64,
    /// Damping factor applied.
    pub alpha: f64,
}

/// One retained convergence trajectory (manifest form).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Stable point key.
    pub key: String,
    /// `"ok"`, `"failed"` or `"panicked"`.
    pub outcome: String,
    /// Wall-clock spent on the point, seconds.
    pub seconds: f64,
    /// Total iterations recorded (the samples keep the last N).
    pub recorded: u64,
    /// Per-iteration samples, chronological.
    pub samples: Vec<TraceSampleSummary>,
}

impl From<&crate::metrics::TraceRecord> for TraceSummary {
    fn from(r: &crate::metrics::TraceRecord) -> Self {
        TraceSummary {
            key: r.key.clone(),
            outcome: r.outcome.clone(),
            seconds: r.seconds,
            recorded: r.recorded,
            samples: r
                .samples
                .iter()
                .map(|s| TraceSampleSummary {
                    stage: s.stage.to_string(),
                    attempt: u64::from(s.attempt),
                    residual: s.residual,
                    alpha: s.alpha,
                })
                .collect(),
        }
    }
}

/// Campaign completeness, with throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSummary {
    /// Grid points attempted.
    pub attempted: u64,
    /// Points that produced a result.
    pub completed: u64,
    /// Completion percentage.
    pub percent: f64,
    /// Campaign wall-clock, seconds.
    pub elapsed_s: f64,
    /// Completed points per second (0 when the clock never ran).
    pub points_per_sec: f64,
}

/// The end-of-run record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Build identity, git-describe-style.
    pub version: String,
    /// The artifact regenerated (e.g. `table2`).
    pub artifact: String,
    /// Unix timestamp of manifest creation, seconds.
    pub created_unix: u64,
    /// Whole-run wall-clock, seconds.
    pub elapsed_s: f64,
    /// Echo of the configuration that produced the run.
    pub config: BTreeMap<String, String>,
    /// Per-phase span timings.
    pub phases: Vec<PhaseTiming>,
    /// Counters at end of run.
    pub counters: BTreeMap<String, u64>,
    /// Gauges at end of run.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms at end of run.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Campaign coverage, when the artifact ran one.
    pub coverage: Option<CoverageSummary>,
    /// Slowest grid points, descending.
    pub slowest: Vec<PointTiming>,
    /// Points needing the most solver retries, descending.
    pub retry_hot: Vec<PointTiming>,
    /// Retained convergence trajectories (failed points first, then
    /// slowest successes), when the flight recorder ran.
    pub traces: Vec<TraceSummary>,
}

/// The build identity: `git describe --always --dirty --tags` when a
/// repository is reachable, otherwise the crate version.
pub fn describe_version() -> String {
    let fallback = concat!("v", env!("CARGO_PKG_VERSION")).to_string();
    match std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
    {
        Ok(out) if out.status.success() => {
            let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if text.is_empty() {
                fallback
            } else {
                format!("{fallback}-g{text}")
            }
        }
        _ => fallback,
    }
}

impl RunManifest {
    /// Builds a manifest from a metrics snapshot. Coverage is read from
    /// the `campaign.coverage.*` gauges when the executor published
    /// them.
    pub fn from_snapshot(
        artifact: &str,
        config: BTreeMap<String, String>,
        snapshot: &Snapshot,
        elapsed_s: f64,
    ) -> Self {
        let coverage = snapshot.gauges.get(GAUGE_COVERAGE_ATTEMPTED).map(|&att| {
            let completed = snapshot
                .gauges
                .get(GAUGE_COVERAGE_COMPLETED)
                .copied()
                .unwrap_or(0.0);
            let elapsed = snapshot
                .gauges
                .get(GAUGE_COVERAGE_ELAPSED_S)
                .copied()
                .unwrap_or(0.0);
            CoverageSummary {
                attempted: att as u64,
                completed: completed as u64,
                percent: if att > 0.0 {
                    completed / att * 100.0
                } else {
                    100.0
                },
                elapsed_s: elapsed,
                points_per_sec: if elapsed > 0.0 {
                    completed / elapsed
                } else {
                    0.0
                },
            }
        });
        RunManifest {
            version: describe_version(),
            artifact: artifact.to_string(),
            created_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            elapsed_s,
            config,
            phases: snapshot
                .spans
                .iter()
                .map(|(path, s)| PhaseTiming {
                    path: path.clone(),
                    count: s.count,
                    total_s: s.total_s,
                    max_s: s.max_s,
                })
                .collect(),
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            histograms: snapshot
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), HistogramSummary::from(h)))
                .collect(),
            coverage,
            slowest: snapshot.slowest.iter().map(PointTiming::from).collect(),
            retry_hot: snapshot.retry_hot.iter().map(PointTiming::from).collect(),
            traces: snapshot.traces.iter().map(TraceSummary::from).collect(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json_string(&self) -> String {
        let hist_json = |h: &HistogramSummary| {
            Json::obj([
                ("count".into(), Json::Num(h.count as f64)),
                ("sum".into(), Json::Num(h.sum)),
                ("min".into(), Json::Num(h.min)),
                ("max".into(), Json::Num(h.max)),
                ("zeros".into(), Json::Num(h.zeros as f64)),
                (
                    "buckets".into(),
                    Json::Arr(
                        h.buckets
                            .iter()
                            .map(|&(e, n)| {
                                Json::Arr(vec![Json::Num(f64::from(e)), Json::Num(n as f64)])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let point_json = |p: &PointTiming| {
            Json::obj([
                ("key".into(), Json::Str(p.key.clone())),
                ("seconds".into(), Json::Num(p.seconds)),
                ("retries".into(), Json::Num(p.retries as f64)),
                ("iterations".into(), Json::Num(p.iterations as f64)),
            ])
        };
        let doc = Json::obj([
            ("schema".into(), Json::Str(MANIFEST_SCHEMA.into())),
            ("version".into(), Json::Str(self.version.clone())),
            ("artifact".into(), Json::Str(self.artifact.clone())),
            ("created_unix".into(), Json::Num(self.created_unix as f64)),
            ("elapsed_s".into(), Json::Num(self.elapsed_s)),
            (
                "config".into(),
                Json::obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            (
                "phases".into(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("path".into(), Json::Str(p.path.clone())),
                                ("count".into(), Json::Num(p.count as f64)),
                                ("total_s".into(), Json::Num(p.total_s)),
                                ("max_s".into(), Json::Num(p.max_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v as f64))),
                ),
            ),
            (
                "gauges".into(),
                Json::obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Json::Num(v)))),
            ),
            (
                "histograms".into(),
                Json::obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), hist_json(h))),
                ),
            ),
            (
                "coverage".into(),
                match &self.coverage {
                    None => Json::Null,
                    Some(c) => Json::obj([
                        ("attempted".into(), Json::Num(c.attempted as f64)),
                        ("completed".into(), Json::Num(c.completed as f64)),
                        ("percent".into(), Json::Num(c.percent)),
                        ("elapsed_s".into(), Json::Num(c.elapsed_s)),
                        ("points_per_sec".into(), Json::Num(c.points_per_sec)),
                    ]),
                },
            ),
            (
                "slowest".into(),
                Json::Arr(self.slowest.iter().map(point_json).collect()),
            ),
            (
                "retry_hot".into(),
                Json::Arr(self.retry_hot.iter().map(point_json).collect()),
            ),
            (
                "traces".into(),
                Json::Arr(
                    self.traces
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("key".into(), Json::Str(t.key.clone())),
                                ("outcome".into(), Json::Str(t.outcome.clone())),
                                ("seconds".into(), Json::Num(t.seconds)),
                                ("recorded".into(), Json::Num(t.recorded as f64)),
                                (
                                    "samples".into(),
                                    // Compact row form: [stage, attempt,
                                    // residual, alpha] per iteration.
                                    Json::Arr(
                                        t.samples
                                            .iter()
                                            .map(|s| {
                                                Json::Arr(vec![
                                                    Json::Str(s.stage.clone()),
                                                    Json::Num(s.attempt as f64),
                                                    Json::Num(s.residual),
                                                    Json::Num(s.alpha),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        doc.to_pretty()
    }

    /// Parses a manifest back from its JSON form.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON or a document that is not a
    /// manifest.
    pub fn parse(text: &str) -> Result<RunManifest, JsonError> {
        let doc = json::parse(text)?;
        let bad = |msg: &str| JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        if doc.get("schema").and_then(Json::as_str) != Some(MANIFEST_SCHEMA) {
            return Err(bad("missing or unknown manifest schema tag"));
        }
        let str_field = |key: &str| -> Result<String, JsonError> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing string field `{key}`")))
        };
        let num_field = |key: &str| -> Result<f64, JsonError> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("missing numeric field `{key}`")))
        };
        let parse_point = |v: &Json| -> Result<PointTiming, JsonError> {
            Ok(PointTiming {
                key: v
                    .get("key")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("point without key"))?
                    .to_string(),
                seconds: v.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
                retries: v.get("retries").and_then(Json::as_u64).unwrap_or(0),
                iterations: v.get("iterations").and_then(Json::as_u64).unwrap_or(0),
            })
        };
        let points = |key: &str| -> Result<Vec<PointTiming>, JsonError> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(parse_point)
                .collect()
        };
        let mut histograms = BTreeMap::new();
        if let Some(pairs) = doc.get("histograms").and_then(Json::as_obj) {
            for (name, h) in pairs {
                let mut buckets = Vec::new();
                for b in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
                    let pair = b.as_arr().ok_or_else(|| bad("bucket is not a pair"))?;
                    if pair.len() != 2 {
                        return Err(bad("bucket is not a pair"));
                    }
                    buckets.push((
                        pair[0].as_f64().ok_or_else(|| bad("bad bucket exponent"))? as i32,
                        pair[1].as_u64().ok_or_else(|| bad("bad bucket count"))?,
                    ));
                }
                histograms.insert(
                    name.clone(),
                    HistogramSummary {
                        count: h.get("count").and_then(Json::as_u64).unwrap_or(0),
                        sum: h.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                        min: h.get("min").and_then(Json::as_f64).unwrap_or(0.0),
                        max: h.get("max").and_then(Json::as_f64).unwrap_or(0.0),
                        zeros: h.get("zeros").and_then(Json::as_u64).unwrap_or(0),
                        buckets,
                    },
                );
            }
        }
        let mut phases = Vec::new();
        for p in doc.get("phases").and_then(Json::as_arr).unwrap_or(&[]) {
            phases.push(PhaseTiming {
                path: p
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("phase without path"))?
                    .to_string(),
                count: p.get("count").and_then(Json::as_u64).unwrap_or(0),
                total_s: p.get("total_s").and_then(Json::as_f64).unwrap_or(0.0),
                max_s: p.get("max_s").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        let str_map = |key: &str| -> BTreeMap<String, String> {
            doc.get(key)
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                .collect()
        };
        let coverage = match doc.get("coverage") {
            None | Some(Json::Null) => None,
            Some(c) => Some(CoverageSummary {
                attempted: c.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                completed: c.get("completed").and_then(Json::as_u64).unwrap_or(0),
                percent: c.get("percent").and_then(Json::as_f64).unwrap_or(0.0),
                elapsed_s: c.get("elapsed_s").and_then(Json::as_f64).unwrap_or(0.0),
                points_per_sec: c
                    .get("points_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            }),
        };
        // Older v1 manifests predate traces; missing → empty.
        let mut traces = Vec::new();
        for t in doc.get("traces").and_then(Json::as_arr).unwrap_or(&[]) {
            let mut samples = Vec::new();
            for s in t.get("samples").and_then(Json::as_arr).unwrap_or(&[]) {
                let row = s.as_arr().ok_or_else(|| bad("trace sample is not a row"))?;
                if row.len() != 4 {
                    return Err(bad("trace sample is not a 4-element row"));
                }
                samples.push(TraceSampleSummary {
                    stage: row[0]
                        .as_str()
                        .ok_or_else(|| bad("bad trace stage"))?
                        .to_string(),
                    attempt: row[1].as_u64().ok_or_else(|| bad("bad trace attempt"))?,
                    residual: row[2].as_f64().ok_or_else(|| bad("bad trace residual"))?,
                    alpha: row[3].as_f64().ok_or_else(|| bad("bad trace alpha"))?,
                });
            }
            traces.push(TraceSummary {
                key: t
                    .get("key")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("trace without key"))?
                    .to_string(),
                outcome: t
                    .get("outcome")
                    .and_then(Json::as_str)
                    .unwrap_or("ok")
                    .to_string(),
                seconds: t.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
                recorded: t.get("recorded").and_then(Json::as_u64).unwrap_or(0),
                samples,
            });
        }
        Ok(RunManifest {
            version: str_field("version")?,
            artifact: str_field("artifact")?,
            created_unix: num_field("created_unix")? as u64,
            elapsed_s: num_field("elapsed_s")?,
            config: str_map("config"),
            phases,
            counters: doc
                .get("counters")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect(),
            gauges: doc
                .get("gauges")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
            histograms,
            coverage,
            slowest: points("slowest")?,
            retry_hot: points("retry_hot")?,
            traces,
        })
    }

    /// Renders the manifest as a human-readable summary: header,
    /// coverage and throughput, per-phase timings, counters, histogram
    /// sketches, top-`top_k` slowest points and retry hot spots.
    pub fn render_summary(&self, top_k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run manifest — {} ({}), {}",
            self.artifact,
            self.version,
            format_seconds(self.elapsed_s)
        );
        if let Some(c) = &self.coverage {
            let _ = writeln!(
                out,
                "coverage: {}/{} grid points ({:.1}%) — {} campaign, {:.2} points/s",
                c.completed,
                c.attempted,
                c.percent,
                format_seconds(c.elapsed_s),
                c.points_per_sec
            );
        }
        if !self.config.is_empty() {
            let pairs: Vec<String> = self
                .config
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(out, "config: {}", pairs.join(" "));
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphases (wall-clock by span path):");
            let mut phases: Vec<&PhaseTiming> = self.phases.iter().collect();
            phases.sort_by(|a, b| b.total_s.partial_cmp(&a.total_s).expect("finite"));
            for p in phases {
                let _ = writeln!(
                    out,
                    "  {:<40} ×{:<7} total {:>10}  max {:>10}",
                    p.path,
                    p.count,
                    format_seconds(p.total_s),
                    format_seconds(p.max_s)
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {value}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: n={} mean={} min={} max={}",
                    h.count,
                    compact(h.mean()),
                    compact(h.min),
                    compact(h.max)
                );
                let _ = write!(out, "{}", sketch(h));
            }
        }
        render_points(&mut out, "slowest points", &self.slowest, top_k, |p| {
            format!(
                "{:<44} {:>10}  {} retries, {} iterations",
                p.key,
                format_seconds(p.seconds),
                p.retries,
                p.iterations
            )
        });
        render_points(&mut out, "retry hot spots", &self.retry_hot, top_k, |p| {
            format!(
                "{:<44} {} retries  {:>10}",
                p.key,
                p.retries,
                format_seconds(p.seconds)
            )
        });
        out
    }

    /// Renders the retained convergence trajectories (`summary
    /// --traces`): per point, a header line and the last
    /// `samples_per_trace` recorded iterations.
    pub fn render_traces(&self, samples_per_trace: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\nconvergence traces:");
        if self.traces.is_empty() {
            let _ = writeln!(
                out,
                "  (none recorded — run with --trace or --metrics to enable the flight recorder)"
            );
            return out;
        }
        for t in &self.traces {
            let _ = writeln!(
                out,
                "  {} — {} after {} iterations, {}",
                t.key,
                t.outcome,
                t.recorded,
                format_seconds(t.seconds)
            );
            let shown = t.samples.len().min(samples_per_trace);
            let skipped = t.recorded as usize - shown;
            if skipped > 0 {
                let _ = writeln!(out, "    … {skipped} earlier iterations");
            }
            let first_shown = t.recorded as usize - shown;
            for (i, s) in t.samples[t.samples.len() - shown..].iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    #{:<6} {:<18} attempt {}  residual {:>10}  alpha {:.3}",
                    first_shown + i,
                    s.stage,
                    s.attempt,
                    compact(s.residual),
                    s.alpha
                );
            }
        }
        out
    }

    /// Machine-readable digest of the manifest (`summary --json`):
    /// the render_summary content as structured JSON, with derived
    /// histogram statistics (mean, p50/p90/p99) precomputed.
    pub fn summary_json(&self, top_k: usize) -> Json {
        let point_json = |p: &PointTiming| {
            Json::obj([
                ("key".into(), Json::Str(p.key.clone())),
                ("seconds".into(), Json::Num(p.seconds)),
                ("retries".into(), Json::Num(p.retries as f64)),
                ("iterations".into(), Json::Num(p.iterations as f64)),
            ])
        };
        Json::obj([
            (
                "schema".into(),
                Json::Str("lp-sram-suite/summary/v1".into()),
            ),
            ("artifact".into(), Json::Str(self.artifact.clone())),
            ("version".into(), Json::Str(self.version.clone())),
            ("elapsed_s".into(), Json::Num(self.elapsed_s)),
            (
                "coverage".into(),
                match &self.coverage {
                    None => Json::Null,
                    Some(c) => Json::obj([
                        ("attempted".into(), Json::Num(c.attempted as f64)),
                        ("completed".into(), Json::Num(c.completed as f64)),
                        ("percent".into(), Json::Num(c.percent)),
                        ("elapsed_s".into(), Json::Num(c.elapsed_s)),
                        ("points_per_sec".into(), Json::Num(c.points_per_sec)),
                    ]),
                },
            ),
            (
                "phases".into(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("path".into(), Json::Str(p.path.clone())),
                                ("count".into(), Json::Num(p.count as f64)),
                                ("total_s".into(), Json::Num(p.total_s)),
                                ("max_s".into(), Json::Num(p.max_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v as f64))),
                ),
            ),
            (
                "histograms".into(),
                Json::obj(self.histograms.iter().map(|(k, h)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("count".into(), Json::Num(h.count as f64)),
                            ("mean".into(), Json::Num(h.mean())),
                            ("min".into(), Json::Num(h.min)),
                            ("max".into(), Json::Num(h.max)),
                            ("p50".into(), Json::Num(h.quantile(0.50))),
                            ("p90".into(), Json::Num(h.quantile(0.90))),
                            ("p99".into(), Json::Num(h.quantile(0.99))),
                        ]),
                    )
                })),
            ),
            (
                "slowest".into(),
                Json::Arr(self.slowest.iter().take(top_k).map(point_json).collect()),
            ),
            (
                "retry_hot".into(),
                Json::Arr(self.retry_hot.iter().take(top_k).map(point_json).collect()),
            ),
            (
                "traces".into(),
                Json::Arr(
                    self.traces
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("key".into(), Json::Str(t.key.clone())),
                                ("outcome".into(), Json::Str(t.outcome.clone())),
                                ("seconds".into(), Json::Num(t.seconds)),
                                ("recorded".into(), Json::Num(t.recorded as f64)),
                                ("retained".into(), Json::Num(t.samples.len() as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn render_points(
    out: &mut String,
    title: &str,
    points: &[PointTiming],
    top_k: usize,
    line: impl Fn(&PointTiming) -> String,
) {
    let _ = writeln!(out, "\n{title}:");
    if points.is_empty() {
        let _ = writeln!(out, "  (none recorded)");
        return;
    }
    for p in points.iter().take(top_k) {
        let _ = writeln!(out, "  {}", line(p));
    }
    if points.len() > top_k {
        let _ = writeln!(out, "  … {} more", points.len() - top_k);
    }
}

/// ASCII sketch of a histogram: one bar per non-empty bucket, scaled to
/// the fullest bucket.
fn sketch(h: &HistogramSummary) -> String {
    const WIDTH: usize = 30;
    let mut out = String::new();
    let tallest = h
        .buckets
        .iter()
        .map(|&(_, n)| n)
        .max()
        .unwrap_or(0)
        .max(h.zeros);
    if tallest == 0 {
        return out;
    }
    let bar = |n: u64| {
        let len = ((n as f64 / tallest as f64) * WIDTH as f64).ceil() as usize;
        "#".repeat(len.max(1))
    };
    if h.zeros > 0 {
        let _ = writeln!(out, "    {:>22} {:<WIDTH$} {}", "0", bar(h.zeros), h.zeros);
    }
    for &(e, n) in &h.buckets {
        let lo = 2f64.powi(e);
        let hi = 2f64.powi(e + 1);
        let label = format!("[{}, {})", compact(lo), compact(hi));
        let _ = writeln!(out, "    {label:>22} {:<WIDTH$} {n}", bar(n));
    }
    out
}

/// Compact float rendering (`%.4g`-style): fixed point in a sane
/// range, exponential outside it.
fn compact(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if (1.0e-3..1.0e6).contains(&a) {
        let s = format!("{v:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    } else {
        format!("{v:.3e}")
    }
}

/// Human time formatting: µs/ms/s as appropriate.
fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1.0e-3 {
        format!("{:.2} ms", s * 1.0e3)
    } else {
        format!("{:.1} µs", s * 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut h = Histogram::new();
        for v in [3.0, 17.0, 200.0, 0.0] {
            h.record(v);
        }
        RunManifest {
            version: "v0.1.0-gabc123".into(),
            artifact: "table2".into(),
            created_unix: 1_700_000_000,
            elapsed_s: 12.5,
            config: BTreeMap::from([("mode".to_string(), "quick".to_string())]),
            phases: vec![PhaseTiming {
                path: "table2/context".into(),
                count: 4,
                total_s: 3.25,
                max_s: 1.5,
            }],
            counters: BTreeMap::from([("anasim.solve.count".to_string(), 977_u64)]),
            gauges: BTreeMap::from([("campaign.coverage.attempted".to_string(), 4.0)]),
            histograms: BTreeMap::from([(
                "anasim.solve.iterations".to_string(),
                HistogramSummary::from(&h),
            )]),
            coverage: Some(CoverageSummary {
                attempted: 4,
                completed: 3,
                percent: 75.0,
                elapsed_s: 10.0,
                points_per_sec: 0.3,
            }),
            slowest: vec![PointTiming {
                key: "df16/cs1".into(),
                seconds: 2.0,
                retries: 1,
                iterations: 400,
            }],
            retry_hot: vec![PointTiming {
                key: "df16/cs1".into(),
                seconds: 2.0,
                retries: 1,
                iterations: 400,
            }],
            traces: vec![TraceSummary {
                key: "df16/cs1 @ fs/1.0V/125C".into(),
                outcome: "failed".into(),
                seconds: 4.5,
                recorded: 1200,
                samples: vec![
                    TraceSampleSummary {
                        stage: "plain".into(),
                        attempt: 0,
                        residual: 1.25e-3,
                        alpha: 1.0,
                    },
                    TraceSampleSummary {
                        stage: "gmin-stepping".into(),
                        attempt: 1,
                        residual: 6.0e-4,
                        alpha: 0.5,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let m = sample();
        let text = m.to_json_string();
        let back = RunManifest::parse(&text).expect("parses");
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_non_manifest_documents() {
        assert!(RunManifest::parse("{}").is_err());
        assert!(RunManifest::parse("not json").is_err());
        assert!(RunManifest::parse(r#"{"schema": "something/else"}"#).is_err());
    }

    #[test]
    fn summary_renders_every_section() {
        let text = sample().render_summary(10);
        for needle in [
            "run manifest — table2",
            "coverage: 3/4",
            "mode=quick",
            "table2/context",
            "anasim.solve.count",
            "anasim.solve.iterations",
            "slowest points",
            "retry hot spots",
            "df16/cs1",
            "#",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_point_lists_render_placeholder() {
        let mut m = sample();
        m.slowest.clear();
        m.retry_hot.clear();
        m.coverage = None;
        let text = m.render_summary(5);
        assert!(text.contains("(none recorded)"));
        assert!(!text.contains("coverage:"));
    }

    #[test]
    fn traces_render_and_survive_missing_field() {
        let m = sample();
        let text = m.render_traces(10);
        assert!(text.contains("df16/cs1 @ fs/1.0V/125C"));
        assert!(text.contains("failed after 1200 iterations"));
        assert!(text.contains("gmin-stepping"));
        assert!(text.contains("… 1198 earlier iterations"));
        // A pre-traces manifest parses with an empty list.
        let mut doc = m.to_json_string();
        let cut = doc.find("\"traces\"").expect("traces serialized");
        doc.truncate(cut);
        doc.truncate(doc.rfind(',').expect("trailing comma"));
        doc.push_str("\n}");
        let back = RunManifest::parse(&doc).expect("parses without traces");
        assert!(back.traces.is_empty());
        assert!(back.render_traces(10).contains("(none recorded"));
    }

    #[test]
    fn summary_json_is_parseable_and_has_derived_stats() {
        let m = sample();
        let doc = crate::json::parse(&m.summary_json(5).to_pretty()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("lp-sram-suite/summary/v1")
        );
        let h = doc
            .get("histograms")
            .and_then(|h| h.get("anasim.solve.iterations"))
            .expect("histogram digest");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(4));
        assert!(h.get("p50").and_then(Json::as_f64).is_some());
        let traces = doc.get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].get("outcome").and_then(Json::as_str),
            Some("failed")
        );
        let c = doc.get("coverage").expect("coverage");
        assert_eq!(c.get("completed").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn histogram_summary_quantiles_match_the_histogram() {
        let mut h = Histogram::new();
        for i in 0..1000 {
            h.record(f64::from(i));
        }
        let s = HistogramSummary::from(&h);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), h.quantile(q), "q={q}");
        }
    }

    #[test]
    fn describe_version_is_nonempty() {
        let v = describe_version();
        assert!(v.starts_with('v'), "{v}");
    }

    #[test]
    fn from_snapshot_reads_coverage_gauges() {
        let r = crate::metrics::Registry::new();
        r.gauge_set(GAUGE_COVERAGE_ATTEMPTED, 10.0);
        r.gauge_set(GAUGE_COVERAGE_COMPLETED, 8.0);
        r.gauge_set(GAUGE_COVERAGE_ELAPSED_S, 4.0);
        r.counter_add("c", 1);
        r.hist_record("h", 2.0);
        r.record_span("p", 0.25);
        let m = RunManifest::from_snapshot("fig4", BTreeMap::new(), &r.snapshot(), 5.0);
        let c = m.coverage.expect("gauges produce coverage");
        assert_eq!(c.attempted, 10);
        assert_eq!(c.completed, 8);
        assert!((c.percent - 80.0).abs() < 1e-9);
        assert!((c.points_per_sec - 2.0).abs() < 1e-9);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.counters["c"], 1);
        assert!(m.histograms.contains_key("h"));
    }
}

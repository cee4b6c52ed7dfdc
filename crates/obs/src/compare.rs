//! Run comparison & regression engine.
//!
//! [`MetricSet::from_json_str`] flattens a
//! [`RunManifest`](crate::manifest::RunManifest) into a flat
//! `name → value` map of deterministic-ish metrics;
//! [`Report::build`] diffs two such sets and applies
//! [`Threshold`]s (`--fail-over march.ops=0%`) to decide the CI
//! verdict. Exit-code contract:
//!
//! - `0` — no thresholded metric grew past its allowance,
//! - `1` — at least one did (or a thresholded metric disappeared),
//! - `2` — usage or parse error, including a document that is not a
//!   run manifest and a threshold that matches no metric of either
//!   document (decided by the CLI caller).
//!
//! Only *growth* fails a threshold: an iteration count falling 15 %
//! is an improvement, not a regression. Volatile provenance fields
//! (version, timestamps, config echo, per-phase wall-clock) are
//! excluded from the flattening so comparing a file against itself
//! always yields an empty delta.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::manifest::MANIFEST_SCHEMA;

/// Schema tag of the JSON compare report.
pub const COMPARE_SCHEMA: &str = "lp-sram-suite/compare/v1";

/// A flat, comparable view of one run manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    /// Flattened dot-separated metric names to values.
    pub metrics: BTreeMap<String, f64>,
}

impl MetricSet {
    /// Flattens a run-manifest JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON or a schema other
    /// than [`MANIFEST_SCHEMA`].
    pub fn from_json_str(text: &str) -> Result<MetricSet, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(MANIFEST_SCHEMA) => Ok(flatten_manifest(&doc)),
            Some(other) => Err(format!("unsupported schema `{other}`")),
            None => Err("document has no `schema` tag".to_string()),
        }
    }
}

fn flatten_manifest(doc: &Json) -> MetricSet {
    let mut metrics = BTreeMap::new();
    if let Some(pairs) = doc.get("counters").and_then(Json::as_obj) {
        for (name, v) in pairs {
            if let Some(n) = v.as_f64() {
                metrics.insert(name.clone(), n);
            }
        }
    }
    if let Some(pairs) = doc.get("histograms").and_then(Json::as_obj) {
        for (name, h) in pairs {
            for field in ["count", "sum", "max"] {
                if let Some(n) = h.get(field).and_then(Json::as_f64) {
                    metrics.insert(format!("{name}.{field}"), n);
                }
            }
            let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            let sum = h.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
            if count > 0.0 {
                metrics.insert(format!("{name}.mean"), sum / count);
            }
        }
    }
    if let Some(c) = doc.get("coverage").filter(|c| !matches!(c, Json::Null)) {
        for field in ["attempted", "completed", "elapsed_s", "points_per_sec"] {
            if let Some(n) = c.get(field).and_then(Json::as_f64) {
                metrics.insert(format!("coverage.{field}"), n);
            }
        }
    }
    if let Some(n) = doc.get("elapsed_s").and_then(Json::as_f64) {
        metrics.insert("elapsed_s".to_string(), n);
    }
    MetricSet { metrics }
}

/// One `--fail-over name=pct%` allowance.
#[derive(Debug, Clone, PartialEq)]
pub struct Threshold {
    /// Full flattened metric name, or a bare last segment (`max`
    /// matches `<histogram>.max` of every histogram).
    pub key: String,
    /// Allowed relative growth as a fraction (`10%` → `0.10`).
    pub max_growth: f64,
}

impl Threshold {
    /// Parses `name=pct%` (the `%` is optional).
    ///
    /// # Errors
    ///
    /// A usage message when the spec is malformed.
    pub fn parse(spec: &str) -> Result<Threshold, String> {
        let (key, pct) = spec
            .split_once('=')
            .ok_or_else(|| format!("`{spec}`: expected name=percent%"))?;
        let pct = pct.trim().trim_end_matches('%');
        let value: f64 = pct
            .parse()
            .map_err(|_| format!("`{spec}`: `{pct}` is not a number"))?;
        if key.is_empty() || !value.is_finite() || value < 0.0 {
            return Err(format!(
                "`{spec}`: expected name=percent% with percent >= 0"
            ));
        }
        Ok(Threshold {
            key: key.to_string(),
            max_growth: value / 100.0,
        })
    }

    /// Whether this threshold governs the named metric.
    pub fn matches(&self, metric: &str) -> bool {
        metric == self.key || metric.rsplit('.').next() == Some(self.key.as_str())
    }
}

/// One metric that differs between the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Flattened metric name.
    pub name: String,
    /// Value in the old (baseline) document.
    pub old: f64,
    /// Value in the new document.
    pub new: f64,
    /// Relative change `(new - old) / |old|`; infinite when the
    /// baseline was zero.
    pub rel: f64,
    /// Set when a threshold governs this metric and its growth
    /// exceeded the allowance.
    pub failed: bool,
}

/// The comparison verdict over two metric sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Metrics that changed, sorted by name.
    pub deltas: Vec<Delta>,
    /// Metrics present only in the baseline.
    pub missing_in_new: Vec<String>,
    /// Metrics present only in the new document.
    pub missing_in_old: Vec<String>,
    /// Thresholded metrics that vanished from the new document (a
    /// counter the new run never recorded fails its thresholds).
    pub failed_missing: Vec<String>,
    /// Metrics compared in total.
    pub compared: usize,
}

impl Report {
    /// Diffs `old` against `new` under the given thresholds.
    ///
    /// # Errors
    ///
    /// A usage message naming every threshold that matches no metric
    /// of either document: such a gate (a typo, or one left behind
    /// after its metric was removed) would otherwise pass silently.
    pub fn build(
        old: &MetricSet,
        new: &MetricSet,
        thresholds: &[Threshold],
    ) -> Result<Report, String> {
        let unmatched: Vec<&str> = thresholds
            .iter()
            .filter(|t| {
                !old.metrics
                    .keys()
                    .chain(new.metrics.keys())
                    .any(|name| t.matches(name))
            })
            .map(|t| t.key.as_str())
            .collect();
        if !unmatched.is_empty() {
            return Err(format!(
                "no metric in either document matches `{}`",
                unmatched.join("`, `")
            ));
        }
        let mut report = Report::default();
        let allowance = |name: &str| {
            thresholds
                .iter()
                .filter(|t| t.matches(name))
                .map(|t| t.max_growth)
                .min_by(|a, b| a.partial_cmp(b).expect("finite"))
        };
        for (name, &old_v) in &old.metrics {
            match new.metrics.get(name) {
                None => {
                    if allowance(name).is_some() {
                        report.failed_missing.push(name.clone());
                    }
                    report.missing_in_new.push(name.clone());
                }
                Some(&new_v) => {
                    report.compared += 1;
                    if old_v == new_v {
                        continue;
                    }
                    let rel = if old_v != 0.0 {
                        (new_v - old_v) / old_v.abs()
                    } else if new_v > old_v {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    };
                    let failed = matches!(allowance(name), Some(max) if rel > max);
                    report.deltas.push(Delta {
                        name: name.clone(),
                        old: old_v,
                        new: new_v,
                        rel,
                        failed,
                    });
                }
            }
        }
        for name in new.metrics.keys() {
            if !old.metrics.contains_key(name) {
                report.missing_in_old.push(name.clone());
            }
        }
        Ok(report)
    }

    /// Whether any thresholded metric regressed.
    pub fn failed(&self) -> bool {
        !self.failed_missing.is_empty() || self.deltas.iter().any(|d| d.failed)
    }

    /// The CLI exit code: 0 pass, 1 regression. (2, usage/parse
    /// error, is decided by the caller before a report exists.)
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed())
    }

    /// Stable human-readable report. With `all` false, only changed
    /// metrics are listed.
    pub fn render_text(&self, all: bool) -> String {
        let mut out = String::new();
        if self.deltas.is_empty() && self.failed_missing.is_empty() {
            let _ = writeln!(
                out,
                "compare: empty delta — {} metrics identical",
                self.compared
            );
        } else {
            let _ = writeln!(
                out,
                "compare: {} of {} metrics changed",
                self.deltas.len(),
                self.compared
            );
            for d in &self.deltas {
                let verdict = if d.failed { "FAIL" } else { "  ok" };
                let _ = writeln!(
                    out,
                    "{verdict} {:<52} {} -> {} ({})",
                    d.name,
                    fmt_value(d.old),
                    fmt_value(d.new),
                    fmt_rel(d.rel)
                );
            }
        }
        for name in &self.failed_missing {
            let _ = writeln!(out, "FAIL {name}: thresholded metric missing from new run");
        }
        if all {
            for name in &self.missing_in_new {
                if !self.failed_missing.contains(name) {
                    let _ = writeln!(out, "note {name}: only in baseline");
                }
            }
            for name in &self.missing_in_old {
                let _ = writeln!(out, "note {name}: only in new run");
            }
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.failed() { "FAIL" } else { "PASS" }
        );
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema".into(), Json::Str(COMPARE_SCHEMA.into())),
            ("compared".into(), Json::Num(self.compared as f64)),
            ("pass".into(), Json::Bool(!self.failed())),
            (
                "deltas".into(),
                Json::Arr(
                    self.deltas
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("name".into(), Json::Str(d.name.clone())),
                                ("old".into(), Json::Num(d.old)),
                                ("new".into(), Json::Num(d.new)),
                                ("rel".into(), Json::Num(d.rel)),
                                ("failed".into(), Json::Bool(d.failed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "missing_in_new".into(),
                Json::Arr(
                    self.missing_in_new
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "missing_in_old".into(),
                Json::Arr(
                    self.missing_in_old
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

fn fmt_rel(rel: f64) -> String {
    if rel.is_infinite() {
        if rel > 0.0 { "new" } else { "gone" }.to_string()
    } else {
        format!("{:+.1}%", rel * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run manifest whose `anasim.solve.iterations` histogram sums to
    /// `iterations`.
    fn manifest_doc(iterations: u64) -> String {
        format!(
            r#"{{
  "schema": "lp-sram-suite/run-manifest/v1",
  "version": "v0.1.0-gdeadbeef", "artifact": "table2",
  "created_unix": 1700000000,
  "counters": {{"anasim.solve.count": 11898, "anasim.solve.failed": 0}},
  "histograms": {{"anasim.solve.iterations": {{"count": 11898, "sum": {iterations}, "min": 1, "max": 40, "zeros": 0, "buckets": []}}}}
}}"#
        )
    }

    const ITERATIONS: &str = "anasim.solve.iterations.sum";

    #[test]
    fn unknown_schema_is_a_parse_error() {
        assert!(MetricSet::from_json_str(r#"{"schema": "nope/v9"}"#).is_err());
        assert!(MetricSet::from_json_str("not json").is_err());
        assert!(MetricSet::from_json_str("{}").is_err());
        // Run manifests are the only input: the retired bench-baseline
        // files are rejected like any other schema.
        let bench = r#"{"schema": "lp-sram-suite/bench-baseline/v5", "variants": {}}"#;
        let err = MetricSet::from_json_str(bench).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn self_compare_is_an_empty_delta_with_exit_zero() {
        let m = MetricSet::from_json_str(&manifest_doc(28846)).unwrap();
        let t = vec![Threshold::parse(&format!("{ITERATIONS}=10%")).unwrap()];
        let r = Report::build(&m, &m, &t).unwrap();
        assert!(r.deltas.is_empty());
        assert_eq!(r.exit_code(), 0);
        assert!(r.render_text(false).contains("empty delta"));
    }

    #[test]
    fn growth_past_threshold_fails_with_exit_one() {
        let old = MetricSet::from_json_str(&manifest_doc(28846)).unwrap();
        let new = MetricSet::from_json_str(&manifest_doc(28846 * 115 / 100)).unwrap();
        let t = vec![Threshold::parse(&format!("{ITERATIONS}=10%")).unwrap()];
        let r = Report::build(&old, &new, &t).unwrap();
        assert_eq!(r.exit_code(), 1);
        let text = r.render_text(false);
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains(ITERATIONS), "{text}");
        // Shrinking is an improvement, never a failure.
        let r = Report::build(&new, &old, &t).unwrap();
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn zero_baseline_growth_is_infinite_and_fails_a_zero_threshold() {
        let old = r#"{"schema": "lp-sram-suite/run-manifest/v1", "counters": {"anasim.solve.failed": 0}}"#;
        let new = r#"{"schema": "lp-sram-suite/run-manifest/v1", "counters": {"anasim.solve.failed": 3}}"#;
        let old = MetricSet::from_json_str(old).unwrap();
        let new = MetricSet::from_json_str(new).unwrap();
        let t = vec![Threshold::parse("anasim.solve.failed=0%").unwrap()];
        let r = Report::build(&old, &new, &t).unwrap();
        assert_eq!(r.exit_code(), 1);
        assert!(r.deltas[0].rel.is_infinite());
    }

    #[test]
    fn missing_thresholded_metric_fails() {
        let old = MetricSet::from_json_str(&manifest_doc(28846)).unwrap();
        let new = MetricSet::default();
        let t = vec![Threshold::parse(&format!("{ITERATIONS}=10%")).unwrap()];
        let r = Report::build(&old, &new, &t).unwrap();
        assert_eq!(r.exit_code(), 1);
        assert!(!r.failed_missing.is_empty());
        // Without thresholds the same diff is informational only.
        let r = Report::build(&old, &new, &[]).unwrap();
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn threshold_matching_no_metric_is_a_usage_error() {
        let old = MetricSet::from_json_str(&manifest_doc(28846)).unwrap();
        let new = MetricSet::from_json_str(&manifest_doc(28846)).unwrap();
        let t = vec![
            Threshold::parse(&format!("{ITERATIONS}=10%")).unwrap(),
            Threshold::parse("anasim.solve.iteration.sum=10%").unwrap(),
            Threshold::parse("rank1_fallbacks=10%").unwrap(),
        ];
        let err = Report::build(&old, &new, &t).expect_err("dead gates must not pass");
        assert!(err.contains("`anasim.solve.iteration.sum`"), "{err}");
        assert!(err.contains("`rank1_fallbacks`"), "{err}");
        assert!(!err.contains(&format!("`{ITERATIONS}`")), "{err}");
        // A metric present in only one document still counts as matched.
        let empty = MetricSet::default();
        assert!(Report::build(&empty, &new, &t[..1]).is_ok());
    }

    #[test]
    fn threshold_parsing_accepts_percent_and_rejects_garbage() {
        let t = Threshold::parse("sum=10%").unwrap();
        assert!((t.max_growth - 0.10).abs() < 1e-12);
        assert!(t.matches(ITERATIONS));
        assert!(t.matches("sum"));
        assert!(!t.matches("sum.count"));
        assert!(Threshold::parse("oops").is_err());
        assert!(Threshold::parse("x=abc").is_err());
        assert!(Threshold::parse("x=-5%").is_err());
        assert!(Threshold::parse("=5%").is_err());
    }

    #[test]
    fn manifest_documents_flatten_counters_and_histograms() {
        let text = r#"{
  "schema": "lp-sram-suite/run-manifest/v1",
  "version": "v0.1.0", "artifact": "table1",
  "created_unix": 1700000000, "elapsed_s": 2.5,
  "counters": {"anasim.solve.count": 42},
  "histograms": {"anasim.solve.iterations": {"count": 4, "sum": 100, "min": 10, "max": 40, "zeros": 0, "buckets": []}},
  "coverage": {"attempted": 10, "completed": 9, "percent": 90, "elapsed_s": 2.0, "points_per_sec": 4.5}
}"#;
        let m = MetricSet::from_json_str(text).unwrap();
        assert_eq!(m.metrics["anasim.solve.count"], 42.0);
        assert_eq!(m.metrics["anasim.solve.iterations.mean"], 25.0);
        assert_eq!(m.metrics["coverage.completed"], 9.0);
        assert_eq!(m.metrics["elapsed_s"], 2.5);
        assert!(!m.metrics.contains_key("created_unix"));
        // Provenance fields are not metrics.
        assert!(!m.metrics.keys().any(|k| k.contains("version")));
    }

    #[test]
    fn json_report_round_trips_through_the_parser() {
        let old = MetricSet::from_json_str(&manifest_doc(100)).unwrap();
        let new = MetricSet::from_json_str(&manifest_doc(120)).unwrap();
        let r = Report::build(
            &old,
            &new,
            &[Threshold::parse(&format!("{ITERATIONS}=10")).unwrap()],
        )
        .unwrap();
        let doc = json::parse(&r.to_json().to_pretty()).expect("valid JSON");
        assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(COMPARE_SCHEMA)
        );
    }
}

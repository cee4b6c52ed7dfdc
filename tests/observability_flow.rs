//! End-to-end exercise of the observability toolchain added on top of
//! the span/metrics layer: a traced campaign run feeding the profiler,
//! the run-comparison engine's exit-code contract, and the convergence
//! flight recorder surfacing a failed point's trajectory.
//!
//! Everything here shares the process-global obs registry and sink, so
//! every test takes the same lock and resets state up front.

use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

use lp_sram_suite::anasim;
use lp_sram_suite::drftest;
use lp_sram_suite::obs;

use anasim::mna::AnalysisMode;
use anasim::newton::solve_with_retry;
use anasim::{Netlist, NewtonOptions};
use drftest::campaign::{run_grid, GridPoint};
use drftest::experiments::{array, table2};
use drftest::{ArrayRetentionOptions, Table2Options};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A Write backed by a shared byte buffer, for capturing the JSONL
/// trace in memory.
#[derive(Clone)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn profile_reproduces_campaign_wall_clock_from_the_trace() {
    let _guard = obs_lock();
    obs::reset();
    obs::flight_enable(obs::DEFAULT_CAPACITY);
    let trace = Arc::new(Mutex::new(Vec::new()));
    obs::install_writer(Box::new(Shared(trace.clone())));

    let mut opts = Table2Options::quick();
    opts.jobs = 1;
    let report = table2::run(&opts).expect("quick campaign solves");
    obs::flush();
    obs::close_sink();
    obs::flight_disable();

    let text = String::from_utf8(trace.lock().unwrap().clone()).unwrap();
    let profile = obs::Profile::from_jsonl(&text);
    assert_eq!(profile.unclosed, 0, "every span closed");

    // The first tick always emits, and it follows the first cell's
    // coverage merge, so it counts that cell.
    let heartbeat = text
        .lines()
        .filter_map(|line| obs::json::parse(line).ok())
        .find(|event| event.get("kind").and_then(obs::Json::as_str) == Some("heartbeat"))
        .expect("the campaign emitted a heartbeat");
    assert_eq!(
        heartbeat.get("completed").and_then(obs::Json::as_u64),
        Some(1),
        "first heartbeat: {}",
        heartbeat.to_compact()
    );

    // The `table2` root span brackets exactly the campaign the
    // coverage footer timed; folding the span stream back must land
    // within 1% of the recorded wall-clock.
    let span_total = profile
        .total_s("table2")
        .expect("the campaign root span is in the trace");
    let elapsed = report.table.coverage.elapsed_s;
    assert!(elapsed > 0.0, "coverage carries wall-clock");
    let rel = (span_total - elapsed).abs() / elapsed;
    assert!(
        rel < 0.01,
        "profile total {span_total:.4}s vs coverage {elapsed:.4}s ({:.2}% off)",
        rel * 100.0
    );

    // The collapsed-stack export carries the same tree, one line per
    // weighted node, flamegraph-ready.
    let collapsed = profile.to_collapsed();
    assert!(
        collapsed.lines().any(|l| l.starts_with("table2 ")),
        "collapsed export:\n{collapsed}"
    );

    // The quick campaign's solver work is deterministic, so it is
    // pinned exactly: a weaker warm start, a lost continuation stage or
    // deeper use of the rescue ladder moves one of these counts.
    let snap = obs::snapshot();
    let measured: Vec<(&str, u64)> = QUICK_TABLE2_SOLVER_WORK
        .iter()
        .map(|&(name, _)| (name, snap.counters.get(name).copied().unwrap_or(0)))
        .collect();
    assert_eq!(measured, QUICK_TABLE2_SOLVER_WORK);
    let iterations = snap
        .histograms
        .get("anasim.solve.iterations")
        .map_or(0.0, obs::Histogram::sum);
    assert_eq!(iterations, 38_313.0, "Newton iterations");
    // Every solve converged on its first attempt: a change that starts
    // relying on the retry escalation moves this sum off zero.
    let retries = snap
        .histograms
        .get("anasim.solve.retries")
        .map_or(f64::NAN, obs::Histogram::sum);
    assert_eq!(retries, 0.0, "whole-solve retries");
}

#[test]
fn array_solves_reach_the_solver_metrics_and_the_profile() {
    // Each point of the quick retention map is one solve: it counts in
    // `anasim.solve.*` and charges its Newton iterations to the
    // `array_solve` span that ran it.
    let _guard = obs_lock();
    obs::reset();
    let trace = Arc::new(Mutex::new(Vec::new()));
    obs::install_writer(Box::new(Shared(trace.clone())));
    let opts = ArrayRetentionOptions {
        jobs: 1,
        ..ArrayRetentionOptions::quick()
    };
    let report = array::run(&opts).expect("quick map solves");
    obs::flush();
    obs::close_sink();

    let snap = obs::snapshot();
    assert_eq!(report.points.len(), 6);
    assert_eq!(snap.counters.get("anasim.solve.count"), Some(&6));
    assert_eq!(snap.counters.get("anasim.solve.failed"), None);
    let iterations = &snap.histograms["anasim.solve.iterations"];
    assert_eq!(iterations.count(), 6);
    assert_eq!(iterations.sum(), 28.0, "the quick map's Newton iterations");

    let text = String::from_utf8(trace.lock().unwrap().clone()).unwrap();
    let profile = obs::Profile::from_jsonl(&text);
    let in_solve_spans: u64 = profile
        .nodes
        .values()
        .filter(|node| node.path.rsplit('/').next() == Some("array_solve"))
        .map(|node| node.iterations)
        .sum();
    assert_eq!(in_solve_spans, 28, "profile:\n{}", profile.render(20));
}

/// Solver counters of the quick Table II campaign at one worker with
/// warm starts. All 120 of its activation transients end before their
/// 50-step window, once the rail can no longer cross DRV.
const QUICK_TABLE2_SOLVER_WORK: [(&str, u64); 8] = [
    ("anasim.solve.count", 6_965),
    ("anasim.solve.failed", 0),
    ("anasim.rescue.plain", 6_959),
    ("anasim.rescue.gmin-regularized", 3),
    ("anasim.rescue.gmin-stepping", 3),
    ("anasim.transient.steps", 1_067),
    ("characterize.warm_seed.applied", 75),
    ("regulator.activation.ended_early", 120),
];

/// A run manifest whose `anasim.solve.iterations` histogram sums to
/// `iterations`.
fn manifest_doc(iterations: f64) -> String {
    format!(
        r#"{{
  "schema": "{schema}",
  "version": "v0.1.0", "artifact": "table2",
  "counters": {{ "anasim.solve.count": 900 }},
  "histograms": {{ "anasim.solve.iterations": {{ "count": 900, "sum": {iterations}, "max": 9 }} }}
}}"#,
        schema = obs::MANIFEST_SCHEMA
    )
}

#[test]
fn compare_passes_on_self_and_fails_on_injected_regression() {
    let old = obs::MetricSet::from_json_str(&manifest_doc(1000.0)).expect("baseline parses");
    let thresholds =
        [obs::Threshold::parse("anasim.solve.iterations.sum=10%").expect("spec parses")];

    // Identical inputs: empty delta, exit 0 — the CI self-smoke.
    let same = obs::MetricSet::from_json_str(&manifest_doc(1000.0)).expect("parses");
    let self_report = obs::Report::build(&old, &same, &thresholds).expect("gate matches");
    assert!(!self_report.failed());
    assert_eq!(self_report.exit_code(), 0);
    assert!(
        self_report.deltas.iter().all(|d| d.rel == 0.0),
        "self-compare must be an empty delta: {:?}",
        self_report.deltas
    );

    // +15% iteration growth against a 10% gate: exit 1, and the
    // offending metric is named in the report.
    let regressed = obs::MetricSet::from_json_str(&manifest_doc(1150.0)).expect("parses");
    let fail_report = obs::Report::build(&old, &regressed, &thresholds).expect("gate matches");
    assert!(fail_report.failed());
    assert_eq!(fail_report.exit_code(), 1);
    assert!(fail_report
        .deltas
        .iter()
        .any(|d| d.failed && d.name == "anasim.solve.iterations.sum"));
    assert!(fail_report.render_text(false).contains("FAIL"));

    // Shrinkage is an improvement, never a failure.
    let improved = obs::MetricSet::from_json_str(&manifest_doc(850.0)).expect("parses");
    assert_eq!(
        obs::Report::build(&old, &improved, &thresholds)
            .expect("gate matches")
            .exit_code(),
        0
    );
}

#[test]
fn compare_cli_rejects_a_gate_that_matches_no_metric() {
    let dir = std::env::temp_dir().join(format!("lp-sram-compare-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("manifest.json");
    std::fs::write(&path, manifest_doc(1000.0)).expect("manifest written");
    let compare = |gate: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_lp-sram-suite"))
            .arg("compare")
            .arg(&path)
            .arg(&path)
            .args(["--fail-over", gate])
            .output()
            .expect("CLI runs")
    };

    let ok = compare("anasim.solve.iterations.sum=10%");
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");

    // A typo gates nothing, so it must fail as a usage error that
    // names the threshold instead of passing silently.
    let typo = compare("anasim.solve.iteration.sum=10%");
    assert_eq!(typo.status.code(), Some(2), "{typo:?}");
    let stderr = String::from_utf8_lossy(&typo.stderr);
    assert!(stderr.contains("`anasim.solve.iteration.sum`"), "{stderr}");

    // Only run manifests are compared: a retired bench-baseline file is
    // an unsupported schema, so the same usage error.
    let bench = dir.join("bench.json");
    std::fs::write(
        &bench,
        r#"{"schema": "lp-sram-suite/bench-baseline/v5", "variants": {}}"#,
    )
    .expect("bench-baseline file written");
    let retired = std::process::Command::new(env!("CARGO_BIN_EXE_lp-sram-suite"))
        .arg("compare")
        .arg(&bench)
        .arg(&path)
        .output()
        .expect("CLI runs");
    assert_eq!(retired.status.code(), Some(2), "{retired:?}");
    let stderr = String::from_utf8_lossy(&retired.stderr);
    assert!(stderr.contains("unsupported schema"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn failed_point_trajectory_lands_in_the_summary() {
    let _guard = obs_lock();
    obs::reset();
    obs::flight_enable(obs::DEFAULT_CAPACITY);

    // A divider fed by a NaN source: every iteration proposes a
    // non-finite iterate, so every stage of every retry attempt fails
    // and the flight recorder holds the whole escalation.
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let mid = nl.node("mid");
    nl.vsource("V", a, Netlist::GND, f64::NAN);
    nl.resistor("R1", a, mid, 1.0e3).expect("valid resistance");
    nl.resistor("R2", mid, Netlist::GND, 1.0e3)
        .expect("valid resistance");

    // The campaign runner settles the point: it fails recordably.
    let settled = run_grid(
        1,
        &[nl],
        |_, _| GridPoint::new("df16/cs1 @ tt, 0.30V, 25°C".to_string(), None, None, None),
        |nl| solve_with_retry(nl, &NewtonOptions::default(), None, AnalysisMode::Dc),
        |_, _| {},
    )
    .expect("a failed solve is recordable");
    obs::flight_disable();
    obs::flush();
    assert_eq!(settled.coverage.completed, 0);
    let err = &settled.failures[0].error;

    let snap = obs::snapshot();
    let trace = snap
        .traces
        .iter()
        .find(|t| t.key.starts_with("df16/cs1"))
        .expect("failed point retained its trajectory");
    assert_eq!(trace.outcome, "failed");
    let attempts: std::collections::BTreeSet<u16> =
        trace.samples.iter().map(|s| s.attempt).collect();
    assert_eq!(
        attempts.len(),
        anasim::newton::SOLVE_ATTEMPTS,
        "every retry attempt sampled"
    );
    // Each attempt runs its plain stage once (it fails on its first,
    // non-finite proposal), and reports that stage's failure without
    // running it again.
    let plain = trace.samples.iter().filter(|s| s.stage == "plain").count();
    assert_eq!(
        plain,
        anasim::newton::SOLVE_ATTEMPTS,
        "one plain iteration per attempt"
    );
    // The failed solve reports, and charges the point, every iteration
    // its attempts ran — as many as the flight recorder sampled.
    let ran = trace.recorded;
    assert!(
        matches!(err, anasim::Error::NoConvergence { iterations, .. } if *iterations as u64 == ran),
        "{err} vs {ran} recorded iterations"
    );
    let point = snap
        .slowest
        .iter()
        .find(|p| p.key == trace.key)
        .expect("the point's cost is recorded");
    assert_eq!(point.iterations, ran);

    // The manifest renders it, round-trips it, and the summary digest
    // names it.
    let manifest =
        obs::RunManifest::from_snapshot("table2", std::collections::BTreeMap::new(), &snap, 0.1);
    let rendered = manifest.render_traces(8);
    assert!(
        rendered.contains("df16/cs1 @ tt, 0.30V, 25°C — failed after"),
        "rendered:\n{rendered}"
    );
    assert!(rendered.contains("residual"));

    let reparsed = obs::RunManifest::parse(&manifest.to_json_string()).expect("round-trips");
    assert_eq!(reparsed, manifest);
    let digest = reparsed.summary_json(5);
    let traces = digest
        .get("traces")
        .and_then(obs::Json::as_arr)
        .expect("digest lists traces");
    assert!(
        traces.iter().any(|t| {
            t.get("key").and_then(obs::Json::as_str) == Some(trace.key.as_str())
                && t.get("outcome").and_then(obs::Json::as_str) == Some("failed")
        }),
        "digest: {}",
        digest.to_compact()
    );
}

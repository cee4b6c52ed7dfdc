//! Zero-dependency observability for the lp-sram-suite workspace.
//!
//! This crate provides the instrumentation layer the experiment
//! executors and solvers record into:
//!
//! - **Spans** ([`span`]) — hierarchical wall-clock scopes keyed by a
//!   `/`-joined path, aggregated per path in the global registry.
//! - **Metrics** ([`counter_add`], [`gauge_set`], [`gauge_add`],
//!   [`hist_record`], [`record_point`]) — named counters, gauges, log-scale
//!   [`Histogram`]s, and bounded slowest-point / retry-hot-spot lists.
//! - **Events** ([`install_jsonl`], [`emit`], [`progress`]) — an
//!   optional JSONL sink for `--trace`, plus a stderr progress channel
//!   for `--progress`.
//! - **Manifests** ([`RunManifest`]) — the end-of-run record for
//!   `--metrics`, parseable back for the `summary` subcommand.
//!
//! Everything is built on `std` alone (the workspace builds air-gapped)
//! and is safe to call from any thread; with no sink installed and no
//! snapshot taken, a flag-less run writes no files.

pub mod compare;
pub mod flight;
pub mod hist;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod span;

pub use compare::{MetricSet, Report, Threshold};
pub use flight::{
    flight_begin, flight_disable, flight_enable, flight_enabled, flight_record, flight_set_attempt,
    flight_set_stage, flight_take, PointTrajectory, TraceSample, DEFAULT_CAPACITY,
};
pub use hist::Histogram;
pub use json::{parse as parse_json, Json, JsonError};
pub use manifest::{
    describe_version, CoverageSummary, HistogramSummary, PhaseTiming, PointTiming, RunManifest,
    TraceSampleSummary, TraceSummary, GAUGE_COVERAGE_ATTEMPTED, GAUGE_COVERAGE_COMPLETED,
    GAUGE_COVERAGE_ELAPSED_S, MANIFEST_SCHEMA,
};
pub use metrics::{
    counter_add, flush, gauge_add, gauge_set, hist_record, record_point, record_span, record_trace,
    reset, snapshot, tally, tally_add, PointRecord, Registry, Snapshot, SolverTally, SpanStat,
    TraceRecord,
};
pub use profile::{Profile, ProfileNode};
pub use sink::{
    close_sink, emit, install_jsonl, install_writer, progress, set_progress, sink_installed,
    thread_id,
};
pub use span::{span, Span};

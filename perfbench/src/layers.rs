//! Per-layer metrics of a traced repetition.
//!
//! Three sources: the spans of the repetition's trace file (folded with
//! `obs::Profile`, the fold `lp-sram-suite profile` uses, plus the
//! per-span durations for quantiles), the counters and histograms the
//! library records in the `obs` registry, and unit costs the benchmark
//! times itself after the workload. `run.py` adds the metrics that need
//! the untraced neighbours' pass times: `anasim.newton.us_per_iteration`
//! and `obs.trace_overhead_ratio`.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use anasim::matrix::{DenseMatrix, LuWorkspace};
use anasim::mna::{assemble_planned, AnalysisMode, StampPlan};
use anasim::newton::solve_with_scratch;
use anasim::{solve_array, ArraySolveOptions, NewtonOptions, SolveScratch};
use drftest::experiments::table2;
use drftest::{tap_for_vdd, CaseStudy, Table2Options};
use obs::{Json, Profile, Snapshot};
use process::{ProcessCorner, PvtCondition};
use regulator::{activation_transient, CharacterizeOptions, Defect, RegulatorDesign};
use sram::cell::build_retention_netlist;
use sram::{ArrayLoad, ArraySpec, CellInstance, CellPopulation, StoredBit};

use crate::probe::process_cpu_s;
use crate::workloads::{bridged_cells, Check, Workload, ARRAY_COLS, ARRAY_ROWS, ARRAY_SUPPLIES};

/// Share of the traced wall time that must fall inside the spans the
/// benchmark opens around its calls into each layer.
const MIN_LAYER_COVERAGE: f64 = 0.9;

/// A per-layer metric: its `BENCHMARK.json` name and its value.
pub type Metric = (&'static str, f64);

/// Measures the per-layer metrics of the repetition that just ran with
/// its spans streaming to `trace` (the sink must be closed), and checks
/// that the layer spans cover the traced wall time.
///
/// # Errors
///
/// An unreadable trace, a trace without the workload's root span, or a
/// failed unit-cost solve.
pub fn measure(
    workload: Workload,
    seed: u64,
    trace: &Path,
) -> Result<(Vec<Metric>, Check), String> {
    let snapshot = obs::snapshot();
    let text = std::fs::read_to_string(trace)
        .map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
    let profile = Profile::from_jsonl(&text);
    let spans = span_ends(&text);
    let root_path = format!("bench.{}", workload.name());
    let root = profile
        .nodes
        .get(&root_path)
        .ok_or_else(|| format!("{} holds no `{root_path}` span", trace.display()))?;
    let coverage = ratio(root.total_s - root.self_s, root.total_s);
    let mut metrics = workload_metrics(&snapshot, &profile, &spans, root.total_s);
    metrics.extend(unit_costs().map_err(|e| format!("unit costs: {e}"))?);
    metrics.extend(array_point(workload, seed).map_err(|e| format!("array point: {e}"))?);
    metrics.extend(executor(workload).map_err(|e| format!("executor: {e}"))?);
    metrics.push(("obs.layer_coverage_ratio", coverage));
    let check = Check::new(
        "layer_coverage",
        coverage >= MIN_LAYER_COVERAGE,
        format!(
            "{:.1} % of the traced wall time is inside layer spans",
            100.0 * coverage
        ),
    );
    Ok((metrics, check))
}

/// Metrics of the workload's own calls, from its spans and the registry.
fn workload_metrics(
    snapshot: &Snapshot,
    profile: &Profile,
    spans: &[SpanEnd],
    traced_wall_s: f64,
) -> Vec<Metric> {
    let count = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_sum = |name: &str| snapshot.histograms.get(name).map_or(0.0, |h| h.sum());
    let searches = SpanStats::of(spans, "min_resistance");
    let drv = SpanStats::of(spans, "drv_ds");
    let solves = count("anasim.solve.count");
    let iterations = hist_sum("anasim.solve.iterations");
    let chain_applied = count("characterize.chain_seed.applied");
    let chain_cold = count("characterize.chain_seed.cold");
    let cache_hit = count("refactor.cache.hit");
    let cache_miss = count("refactor.cache.miss");
    let rank1_applied = count("rank1.applied");
    let rank1_fallback = count("rank1.fallback");
    let shared = count("schur.blocks_shared");
    let rebuilt = count("schur.blocks_rebuilt");
    let march_ops = count("march.ops");
    vec![
        ("table2.context.self_s", self_s(profile, "context")),
        (
            "table2.healthy_seed.self_s",
            self_s(profile, "healthy_seed"),
        ),
        (
            "table2.min_resistance.self_s",
            self_s(profile, "min_resistance"),
        ),
        ("regulator.min_resistance.calls", searches.calls),
        ("regulator.min_resistance.p50_ms", searches.p50_ms),
        ("regulator.min_resistance.p90_ms", searches.p90_ms),
        (
            "regulator.min_resistance.iterations_per_call",
            searches.iterations_per_call,
        ),
        ("regulator.solves_per_search", ratio(solves, searches.calls)),
        (
            "regulator.warm_seed.applied",
            count("characterize.warm_seed.applied"),
        ),
        (
            "regulator.warm_seed.rejected",
            count("characterize.warm_seed.rejected"),
        ),
        ("regulator.chain_seed.applied", chain_applied),
        ("regulator.chain_seed.cold", chain_cold),
        (
            "regulator.chain_seed.hit_ratio",
            ratio(chain_applied, chain_applied + chain_cold),
        ),
        ("anasim.transient.steps", count("anasim.transient.steps")),
        ("sram.drv_ds.calls", drv.calls),
        ("sram.drv_ds.p50_ms", drv.p50_ms),
        ("sram.drv_ds.p90_ms", drv.p90_ms),
        ("sram.drv_ds.iterations_per_call", drv.iterations_per_call),
        ("anasim.solve.count", solves),
        ("anasim.solve.iterations", iterations),
        (
            "anasim.solve.iterations_per_solve",
            ratio(iterations, solves),
        ),
        ("anasim.solve.failed", count("anasim.solve.failed")),
        ("anasim.solve.retries", hist_sum("anasim.solve.retries")),
        ("anasim.rescue.plain", count("anasim.rescue.plain")),
        (
            "anasim.rescue.gmin-regularized",
            count("anasim.rescue.gmin-regularized"),
        ),
        (
            "anasim.rescue.gmin-stepping",
            count("anasim.rescue.gmin-stepping"),
        ),
        (
            "anasim.rescue.source-stepping",
            count("anasim.rescue.source-stepping"),
        ),
        (
            "anasim.rescue.damped-warm-start",
            count("anasim.rescue.damped-warm-start"),
        ),
        (
            "anasim.rescue.damped-gmin",
            count("anasim.rescue.damped-gmin"),
        ),
        (
            "anasim.newton.plain_ratio",
            ratio(count("anasim.rescue.plain"), solves),
        ),
        // The solver's per-thread tally is fed from these same counts.
        ("anasim.lu.factorizations", cache_miss),
        ("anasim.lu.chord_steps", rank1_applied),
        ("schur.blocks_shared", shared),
        ("schur.blocks_rebuilt", rebuilt),
        ("schur.hit_ratio", ratio(shared, shared + rebuilt)),
        ("refactor.cache.hit", cache_hit),
        ("refactor.cache.miss", cache_miss),
        (
            "refactor.cache.hit_ratio",
            ratio(cache_hit, cache_hit + cache_miss),
        ),
        ("rank1.applied", rank1_applied),
        ("rank1.fallback", rank1_fallback),
        (
            "rank1.useful_ratio",
            ratio(rank1_applied, rank1_applied + rank1_fallback),
        ),
        ("march.ops", march_ops),
        ("march.ops_per_s", ratio(march_ops, traced_wall_s)),
        ("march.exhaustive_s", total_s(profile, "mprove.exhaustive")),
        (
            "mprove.prove_library_s",
            total_s(profile, "mprove.prove_library"),
        ),
    ]
}

/// One `span_end` event of a trace.
struct SpanEnd {
    path: String,
    seconds: f64,
    iterations: u64,
}

fn span_ends(text: &str) -> Vec<SpanEnd> {
    text.lines()
        .filter_map(|line| obs::parse_json(line).ok())
        .filter(|event| event.get("kind").and_then(Json::as_str) == Some("span_end"))
        .filter_map(|event| {
            Some(SpanEnd {
                path: event.get("path")?.as_str()?.to_string(),
                seconds: event.get("seconds")?.as_f64()?,
                iterations: event.get("iterations").and_then(Json::as_u64).unwrap_or(0),
            })
        })
        .collect()
}

/// The last segment of a `/`-joined span path: the span's own name.
fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Calls, median and 90th-percentile duration, and Newton iterations
/// per call of every span with one name, at any depth on any thread.
struct SpanStats {
    calls: f64,
    p50_ms: f64,
    p90_ms: f64,
    iterations_per_call: f64,
}

impl SpanStats {
    fn of(spans: &[SpanEnd], name: &str) -> SpanStats {
        let named: Vec<&SpanEnd> = spans.iter().filter(|s| leaf(&s.path) == name).collect();
        let mut ms: Vec<f64> = named.iter().map(|s| s.seconds * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let calls = named.len() as f64;
        let iterations: u64 = named.iter().map(|s| s.iterations).sum();
        SpanStats {
            calls,
            p50_ms: quantile(&ms, 0.5),
            p90_ms: quantile(&ms, 0.9),
            iterations_per_call: ratio(iterations as f64, calls),
        }
    }
}

/// Nearest-rank quantile of the ascending `sorted`; 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Self time of every profile node named `name`, summed over threads.
fn self_s(profile: &Profile, name: &str) -> f64 {
    profile
        .nodes
        .values()
        .filter(|n| leaf(&n.path) == name)
        .map(|n| n.self_s)
        .sum()
}

/// Total time of every profile node named `name`, summed over threads.
fn total_s(profile: &Profile, name: &str) -> f64 {
    profile
        .nodes
        .values()
        .filter(|n| leaf(&n.path) == name)
        .map(|n| n.total_s)
        .sum()
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median per-call time of `f` in microseconds, over seven batches of
/// at least 10 ms each.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        if start.elapsed() >= Duration::from_millis(10) {
            break;
        }
        calls *= 2;
    }
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Unit costs of the solver layers on the 6T retention cell (the system
/// every DRV search solves), and of one Df8 activation transient.
fn unit_costs() -> Result<Vec<Metric>, anasim::Error> {
    let cell = CellInstance::symmetric(PvtCondition::nominal());
    let (netlist, nodes) = build_retention_netlist(&cell, 0.77)?;
    let mut guess = netlist.zero_state();
    netlist.set_guess(&mut guess, nodes.s, 0.77);
    netlist.set_guess(&mut guess, nodes.vddc, 0.77);
    let n = netlist.num_unknowns();
    let plan = StampPlan::build(&netlist);
    let mut matrix = DenseMatrix::zeros(n);
    let mut rhs = vec![0.0; n];
    let assemble_us = per_call_us(|| {
        assemble_planned(
            &netlist,
            &plan,
            black_box(&guess),
            0.0,
            1.0,
            AnalysisMode::Dc,
            &mut matrix,
            &mut rhs,
        );
        black_box(&rhs);
    });
    let mut lu = LuWorkspace::new();
    lu.factor_from(&matrix)?;
    let factor_us = per_call_us(|| {
        black_box(lu.factor_from(black_box(&matrix)).is_ok());
    });
    let mut x = vec![0.0; n];
    let lu_solve_us = per_call_us(|| {
        lu.solve_into(black_box(&rhs), &mut x);
        black_box(&x);
    });
    let options = NewtonOptions::default();
    let mut scratch = SolveScratch::new();
    solve_with_scratch(
        &netlist,
        &options,
        Some(&guess),
        AnalysisMode::Dc,
        &mut scratch,
    )?;
    let newton_us = per_call_us(|| {
        let solved = solve_with_scratch(
            &netlist,
            &options,
            Some(black_box(&guess)),
            AnalysisMode::Dc,
            &mut scratch,
        );
        black_box(solved.is_ok());
    });

    // A Df8 point of the table2_slice grid: fs, 125 °C, 1.0 V, CS1 load.
    let pvt = PvtCondition::new(ProcessCorner::FastNSlowP, 1.0, 125.0);
    let cs1 = CaseStudy::new(1, StoredBit::One);
    let population = CellPopulation {
        pattern: cs1.pattern(),
        count: cs1.cell_count(),
        stored: StoredBit::One,
    };
    let load = ArrayLoad::build(
        &CellInstance::symmetric(pvt),
        &[population],
        256 * 1024,
        1.3,
        9,
    )?;
    let design = RegulatorDesign::lp40nm();
    let characterize = CharacterizeOptions::default();
    let transient = || {
        activation_transient(
            &design,
            pvt,
            tap_for_vdd(pvt.vdd),
            Defect::new(8),
            1.0e7,
            &load,
            characterize.transient_window,
            characterize.transient_dt,
        )
    };
    transient()?;
    let transient_ms = per_call_us(|| {
        black_box(transient().is_ok());
    }) / 1e3;
    Ok(vec![
        ("anasim.mna.assemble_us", assemble_us),
        ("anasim.matrix.factor_us", factor_us),
        ("anasim.matrix.solve_us", lu_solve_us),
        ("anasim.newton.solve_us", newton_us),
        ("regulator.activation_transient_ms", transient_ms),
    ])
}

/// Busy share and idle CPU time of the campaign executor fanning the
/// 125 °C condition of the Table II slice (85 cells) over every CPU the
/// process may use; zeros for the other workloads. The timed passes run
/// single-threaded, so this is where fan-out and stragglers show.
fn executor(workload: Workload) -> Result<Vec<Metric>, anasim::Error> {
    let names = ["executor.busy_ratio", "executor.idle_s"];
    if workload != Workload::Table2Slice {
        return Ok(names.into_iter().map(|name| (name, 0.0)).collect());
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let options = Table2Options {
        corners: vec![ProcessCorner::FastNSlowP],
        temperatures: vec![125.0],
        supplies: vec![1.0],
        jobs,
        ..Table2Options::paper()
    };
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    table2::run(&options)?;
    let capacity_s = start.elapsed().as_secs_f64() * jobs as f64;
    let busy_s = process_cpu_s() - cpu_start;
    Ok(vec![
        ("executor.busy_ratio", ratio(busy_s, capacity_s)),
        ("executor.idle_s", (capacity_s - busy_s).max(0.0)),
    ])
}

/// Build, solve and verdict times of one array point at the deep
/// retention supply, each call timed on its own; zeros for the other
/// workloads, which never build an array.
fn array_point(workload: Workload, seed: u64) -> Result<Vec<Metric>, anasim::Error> {
    let names = [
        "sram.array_build_s",
        "anasim.solve_array_s",
        "sram.array_verdict_s",
        "schur.interface_unknowns",
        "anasim.sparse.lu_nnz",
    ];
    if workload != Workload::Array4kx64 {
        return Ok(names.into_iter().map(|name| (name, 0.0)).collect());
    }
    let mut spec = ArraySpec::retention(
        ARRAY_ROWS,
        ARRAY_COLS,
        ARRAY_SUPPLIES[1],
        CellInstance::symmetric(PvtCondition::nominal()),
    );
    spec.active = bridged_cells(seed);
    let start = Instant::now();
    let built = spec.build()?;
    let build_s = start.elapsed().as_secs_f64();
    let guess = built.guess();
    let mut scratch = SolveScratch::new();
    let start = Instant::now();
    let solution = solve_array(
        &built.netlist,
        &built.partition,
        &ArraySolveOptions::default(),
        Some(&guess),
        &mut scratch,
    )?;
    let solve_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(built.retained(&solution));
    let verdict_s = start.elapsed().as_secs_f64();

    // The Schur path keeps its interface factors private, so the sparse
    // backend's fill-in is read from a monolithic solve of a 16×8 slice.
    let slice = ArraySpec::retention(16, 8, ARRAY_SUPPLIES[1], spec.base).build()?;
    let mut monolithic = SolveScratch::new();
    solve_array(
        &slice.netlist,
        &slice.partition,
        &ArraySolveOptions {
            schur: false,
            ..ArraySolveOptions::default()
        },
        Some(&slice.guess()),
        &mut monolithic,
    )?;
    let values = [
        build_s,
        solve_s,
        verdict_s,
        scratch.schur_interface_unknowns().unwrap_or(0) as f64,
        monolithic.sparse_lu_nnz().unwrap_or(0) as f64,
    ];
    Ok(names.into_iter().zip(values).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn span_statistics_match_the_leaf_name_on_every_thread() {
        let trace = "\
{\"ts\":0,\"tid\":1,\"kind\":\"span_end\",\"path\":\"table2/min_resistance\",\"seconds\":0.002,\"iterations\":10,\"retries\":0}
{\"ts\":0,\"tid\":2,\"kind\":\"span_end\",\"path\":\"min_resistance\",\"seconds\":0.004,\"iterations\":30,\"retries\":0}
{\"ts\":0,\"tid\":2,\"kind\":\"span_end\",\"path\":\"context/drv_ds\",\"seconds\":0.001,\"iterations\":5,\"retries\":0}";
        let stats = SpanStats::of(&span_ends(trace), "min_resistance");
        assert_eq!(stats.calls, 2.0);
        assert_eq!(stats.p50_ms, 2.0);
        assert_eq!(stats.p90_ms, 4.0);
        assert_eq!(stats.iterations_per_call, 20.0);
    }
}

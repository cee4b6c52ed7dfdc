//! Emits `BENCH_table2.json`: a small committed baseline of the
//! Table II campaign's throughput and solver cost at the quick setting.
//!
//! ```text
//! cargo run --release -p bench --bin table2_baseline [out.json] [--allow-dirty]
//! ```
//!
//! A dirty working tree is refused (exit 2) unless `--allow-dirty` is
//! passed: a baseline stamped `-dirty` cannot be reproduced from any
//! commit, so it must never be the committed reference.
//!
//! Two variants of the same campaign are timed back to back:
//!
//! * `sequential_cold` — one worker, every Newton solve starts from the
//!   cold DC guess (`jobs: 1`, `warm_start: false`); this is the
//!   pre-executor behaviour and the reference point;
//! * `sequential_warm` — one worker, each grid cell's solves seeded
//!   from the healthy converged state of its (case-study, PVT)
//!   condition (`jobs: 1`, `warm_start: true`).
//!
//! Both run on one worker: the solver counters are identical at any
//! `--jobs` count, and wall-clock is measured by `perfbench/`, not
//! here.
//!
//! A fully deterministic `sparse_ladder` pseudo-variant solves a
//! 150-segment resistor ladder (above `anasim::sparse::SPARSE_THRESHOLD`
//! unknowns, so the Newton path auto-selects the sparse backend) and
//! records `unknowns`, `iterations` and `lu_nnz` — a host-independent
//! fill-in fingerprint that catches ordering or pivoting regressions in
//! the sparse factorization.
//!
//! A `full_array` pseudo-variant solves a 512×8 retention array
//! with three bridged cells through the hierarchical block-Schur path
//! and the monolithic sparse path, asserts both land on the same node
//! voltages, and records the factorized-unknowns `reduction_ratio`
//! (must stay ≥ 5×) plus the `schur_blocks_shared`/`schur_blocks_rebuilt`
//! macromodel-cache counters the CI gate thresholds.
//!
//! The file records per-variant points/sec and solver iteration totals
//! so a future change that regresses the campaign (more Newton
//! iterations, deeper rescue-ladder use, lower throughput) shows up as
//! a diff against the committed numbers. Timing-derived fields vary by
//! host — `host_cores` records how many cores the committed numbers
//! had to work with; the iteration/retry totals are deterministic for
//! a given variant.
//!
//! `allocs_per_iteration` is measured in-process with a counting
//! global allocator: the heap-allocation count of a long cold Newton
//! solve minus that of a short warm solve, divided by the iteration
//! difference. The scratch-based solver core keeps this at exactly
//! zero — every per-iteration buffer lives in the reused
//! [`anasim::SolveScratch`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use anasim::devices::mosfet::MosParams;
use anasim::mna::AnalysisMode;
use anasim::newton::solve_with_scratch;
use anasim::{solve_array, ArraySolveOptions, Netlist, NewtonOptions, SolveScratch};
use drftest::experiments::table2;
use drftest::Table2Options;
use obs::Json;
use process::PvtCondition;
use sram::{ActiveCell, ArraySpec, CellInstance, StoredBit};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation slope of the plain-Newton path, in heap allocations per
/// iteration. A cold solve of a threshold-biased CMOS inverter runs
/// many damped iterations; a warm solve from the converged state runs
/// very few. Dividing the allocation-count difference by the
/// iteration-count difference cancels the per-solve constant (the
/// returned solution vector) and isolates the per-iteration term.
fn measure_allocs_per_iteration() -> f64 {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let input = nl.node("in");
    let out = nl.node("out");
    nl.vsource("VDD", vdd, Netlist::GND, 1.1);
    nl.vsource("VIN", input, Netlist::GND, 0.55);
    nl.mosfet("MP", out, input, vdd, MosParams::pmos(4.0e-4, 0.45))
        .expect("library PMOS card validates");
    nl.mosfet(
        "MN",
        out,
        input,
        Netlist::GND,
        MosParams::nmos(4.0e-4, 0.45),
    )
    .expect("library NMOS card validates");
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();
    // Size the scratch before measuring.
    let first =
        solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch).expect("solves");
    let x0 = first.raw().to_vec();

    let before_cold = ALLOCATIONS.load(Ordering::Relaxed);
    let cold =
        solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch).expect("solves cold");
    let cold_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before_cold;

    let before_warm = ALLOCATIONS.load(Ordering::Relaxed);
    let warm = solve_with_scratch(&nl, &opts, Some(&x0), AnalysisMode::Dc, &mut scratch)
        .expect("solves warm");
    let warm_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before_warm;

    assert!(
        warm.iterations < cold.iterations,
        "measurement needs distinct iteration counts"
    );
    (cold_allocs as f64 - warm_allocs as f64) / (cold.iterations as f64 - warm.iterations as f64)
}

struct Variant {
    name: &'static str,
    warm_start: bool,
}

/// The deterministic sparse-backend fingerprint: a uniform 150-segment
/// ladder crosses `SPARSE_THRESHOLD`, so the Newton path factors it
/// through the CSR backend; the fill-in count is a pure function of
/// the ordering and pivoting code, independent of host speed.
fn run_sparse_ladder() -> Json {
    let mut nl = Netlist::new();
    let top = nl.node("n0");
    nl.vsource("V", top, Netlist::GND, 1.0);
    let mut prev = top;
    const SEGMENTS: usize = 150;
    for k in 0..SEGMENTS {
        let next = nl.node(&format!("n{}", k + 1));
        nl.resistor(&format!("R{k}"), prev, next, 1.0e3)
            .expect("valid resistance, unique name");
        prev = next;
    }
    nl.resistor("RT", prev, Netlist::GND, 1.0e3)
        .expect("valid resistance, unique name");
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();
    let sol = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("ladder solves");
    let lu_nnz = scratch
        .sparse_lu_nnz()
        .expect("a 151-unknown system runs on the sparse backend");
    eprintln!(
        "sparse_ladder: {} unknowns, {} iterations, {} LU nonzeros",
        nl.num_unknowns(),
        sol.iterations,
        lu_nnz
    );
    Json::obj([
        ("unknowns".to_string(), Json::Num(nl.num_unknowns() as f64)),
        ("iterations".to_string(), Json::Num(sol.iterations as f64)),
        ("lu_nnz".to_string(), Json::Num(lu_nnz as f64)),
    ])
}

/// The deterministic hierarchical-reduction fingerprint: a full
/// `rows`×8 retention array with three bridged cells is solved twice —
/// through the block-Schur macromodel path and through the monolithic
/// sparse path — from the same warm guess.
///
/// The acceptance metric is `reduction_ratio`: total factorized
/// unknowns of the monolithic solve (`n` per Newton iteration) over
/// the Schur path's (the reduced interface per iteration plus every
/// macromodel actually factored). Both solves must land on the same
/// node voltages to solver tolerance — the reduction is exact block
/// elimination, not an approximation — and at 512×8 the ratio must
/// clear 5× (it lands far above; the committed baseline pins it).
fn run_full_array(rows: usize) -> Json {
    let base = CellInstance::symmetric(PvtCondition::nominal());
    let mut spec = ArraySpec::retention(rows, 8, 0.5, base);
    for &(r, c) in &[(1usize, 2usize), (7, 5), (12, 0)] {
        spec.active
            .push(ActiveCell::bridged(r, c, StoredBit::One, 1.0e3));
    }
    let built = spec.build().expect("array builds");
    let guess = built.guess();
    let n = built.netlist.num_unknowns();

    let opts = ArraySolveOptions::default();
    let mut schur_scratch = SolveScratch::new();
    let t0 = std::time::Instant::now();
    let reduced = solve_array(
        &built.netlist,
        &built.partition,
        &opts,
        Some(&guess),
        &mut schur_scratch,
    )
    .expect("schur path solves");
    let schur_s = t0.elapsed().as_secs_f64();
    let counters = schur_scratch.counters();
    let ni = schur_scratch
        .schur_interface_unknowns()
        .expect("the schur path ran partitioned");

    let mono_opts = ArraySolveOptions {
        schur: false,
        ..ArraySolveOptions::default()
    };
    let mut mono_scratch = SolveScratch::new();
    let t0 = std::time::Instant::now();
    let mono = solve_array(
        &built.netlist,
        &built.partition,
        &mono_opts,
        Some(&guess),
        &mut mono_scratch,
    )
    .expect("monolithic path solves");
    let mono_s = t0.elapsed().as_secs_f64();

    // Exactness check: both paths sit on the same operating point.
    for (k, (a, b)) in reduced.raw().iter().zip(mono.raw().iter()).enumerate() {
        let tol = opts.newton.vntol + opts.newton.reltol * a.abs().max(b.abs());
        assert!(
            (a - b).abs() <= tol,
            "unknown {k}: schur {a:.9e} vs monolithic {b:.9e}"
        );
    }

    // Every macromodel rebuild factors one 2-unknown cell block; the
    // interface is factored once per Newton iteration.
    let factorized_schur =
        (ni * reduced.iterations + 2 * counters.schur_blocks_rebuilt as usize) as f64;
    let factorized_mono = (n * mono.iterations) as f64;
    let reduction_ratio = factorized_mono / factorized_schur;
    if rows >= 512 {
        assert!(
            reduction_ratio >= 5.0,
            "512x8 reduction ratio {reduction_ratio:.1} below the 5x floor"
        );
    }
    eprintln!(
        "full_array {rows}x8: {n} unknowns, interface {ni}; schur {} it \
         ({}/{} macromodels hit/built, {schur_s:.3}s) vs monolithic {} it \
         ({mono_s:.3}s); factorized {factorized_schur:.0} vs \
         {factorized_mono:.0} = {reduction_ratio:.1}x",
        reduced.iterations,
        counters.schur_blocks_shared,
        counters.schur_blocks_rebuilt,
        mono.iterations,
    );
    Json::obj([
        ("unknowns".to_string(), Json::Num(n as f64)),
        ("interface_unknowns".to_string(), Json::Num(ni as f64)),
        (
            "iterations".to_string(),
            Json::Num(reduced.iterations as f64),
        ),
        (
            "schur_blocks_shared".to_string(),
            Json::Num(counters.schur_blocks_shared as f64),
        ),
        (
            "schur_blocks_rebuilt".to_string(),
            Json::Num(counters.schur_blocks_rebuilt as f64),
        ),
        (
            "factorized_unknowns_schur".to_string(),
            Json::Num(factorized_schur),
        ),
        (
            "factorized_unknowns_monolithic".to_string(),
            Json::Num(factorized_mono),
        ),
        ("reduction_ratio".to_string(), Json::Num(reduction_ratio)),
    ])
}

fn run_variant(v: &Variant, allocs_per_iteration: f64) -> Json {
    obs::reset();
    let mut opts = Table2Options::quick();
    opts.jobs = 1;
    opts.warm_start = v.warm_start;
    let report = table2::run(&opts).expect("quick campaign solves");
    obs::flush();
    let snapshot = obs::snapshot();
    let counter = |name: &str| *snapshot.counters.get(name).unwrap_or(&0);
    let hist_sum = |name: &str| {
        snapshot
            .histograms
            .get(name)
            .map(|h| h.sum())
            .unwrap_or(0.0)
    };
    let coverage = report.table.coverage;
    eprintln!(
        "{}: {} points at {:.2} points/s ({} solves, {} iterations)",
        v.name,
        coverage.completed,
        coverage.points_per_sec(),
        counter("anasim.solve.count"),
        hist_sum("anasim.solve.iterations"),
    );
    Json::obj([
        ("jobs".to_string(), Json::Num(1.0)),
        ("warm_start".to_string(), Json::Bool(v.warm_start)),
        (
            "points_attempted".to_string(),
            Json::Num(coverage.attempted as f64),
        ),
        (
            "points_completed".to_string(),
            Json::Num(coverage.completed as f64),
        ),
        ("elapsed_s".to_string(), Json::Num(coverage.elapsed_s)),
        (
            "points_per_sec".to_string(),
            Json::Num(coverage.points_per_sec()),
        ),
        (
            "allocs_per_iteration".to_string(),
            Json::Num(allocs_per_iteration),
        ),
        (
            "solver".to_string(),
            Json::obj([
                (
                    "solves".to_string(),
                    Json::Num(counter("anasim.solve.count") as f64),
                ),
                (
                    "failed".to_string(),
                    Json::Num(counter("anasim.solve.failed") as f64),
                ),
                (
                    "iterations_total".to_string(),
                    Json::Num(hist_sum("anasim.solve.iterations")),
                ),
                (
                    "retries_total".to_string(),
                    Json::Num(hist_sum("anasim.solve.retries")),
                ),
                (
                    "warm_seeds_applied".to_string(),
                    Json::Num(counter("characterize.warm_seed.applied") as f64),
                ),
                (
                    "warm_seeds_rejected".to_string(),
                    Json::Num(counter("characterize.warm_seed.rejected") as f64),
                ),
                (
                    "rescue_plain".to_string(),
                    Json::Num(counter("anasim.rescue.plain") as f64),
                ),
                (
                    "rescue_gmin_regularized".to_string(),
                    Json::Num(counter("anasim.rescue.gmin-regularized") as f64),
                ),
                (
                    "rescue_gmin_stepping".to_string(),
                    Json::Num(counter("anasim.rescue.gmin-stepping") as f64),
                ),
                (
                    "transient_steps".to_string(),
                    Json::Num(counter("anasim.transient.steps") as f64),
                ),
            ]),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let allow_dirty = args.iter().any(|a| a == "--allow-dirty");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_table2.json".to_string());
    // A baseline stamped `-dirty` can never be reproduced: nobody can
    // check out the tree that produced it. Refuse by default so the
    // committed file always carries a reachable commit id.
    let version = obs::describe_version();
    if version.contains("-dirty") {
        if allow_dirty {
            eprintln!(
                "WARNING: working tree is dirty ({version}); this baseline \
                 is NOT reproducible from any commit. Do not commit it."
            );
        } else {
            eprintln!(
                "error: refusing to write a baseline from a dirty tree ({version});\n\
                 commit or stash your changes, or pass --allow-dirty for a\n\
                 throwaway local measurement"
            );
            std::process::exit(2);
        }
    }
    let allocs_per_iteration = measure_allocs_per_iteration();
    eprintln!("allocs/iteration on the plain-Newton path: {allocs_per_iteration}");
    let variants = [
        Variant {
            name: "sequential_cold",
            warm_start: false,
        },
        Variant {
            name: "sequential_warm",
            warm_start: true,
        },
    ];
    let mut results: Vec<(String, Json)> = variants
        .iter()
        .map(|v| (v.name.to_string(), run_variant(v, allocs_per_iteration)))
        .collect();
    results.push(("sparse_ladder".to_string(), run_sparse_ladder()));
    // The 64×8 run is informational (README scaling table); only the
    // paper-scale 512×8 reduction lands in the committed baseline.
    let _ = run_full_array(64);
    results.push(("full_array".to_string(), run_full_array(512)));
    let doc = Json::obj([
        (
            "schema".to_string(),
            Json::Str("lp-sram-suite/bench-baseline/v5".to_string()),
        ),
        ("artifact".to_string(), Json::Str("table2".to_string())),
        ("mode".to_string(), Json::Str("quick".to_string())),
        ("version".to_string(), Json::Str(obs::describe_version())),
        (
            "host_cores".to_string(),
            Json::Num(drftest::available_jobs() as f64),
        ),
        ("variants".to_string(), Json::obj(results)),
    ]);
    std::fs::write(&out, doc.to_pretty()).expect("baseline written");
    eprintln!("wrote {out}");
}

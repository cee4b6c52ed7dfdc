//! Allocation-profile contract of the scratch-based Newton core: once a
//! [`SolveScratch`] is sized, a solve allocates only its returned
//! [`Solution`] vector — nothing per iteration. Verified with a counting
//! global allocator: a cold solve and a warm solve run very different
//! iteration counts, so equal allocation counts mean the per-iteration
//! slope is exactly zero. The same allocator pins the netlist builder's
//! cost: one allocation per device plus amortized buffer growth.
//!
//! The counter is per thread, so tests running concurrently in this
//! binary never see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anasim::devices::mosfet::MosParams;
use anasim::mna::AnalysisMode;
use anasim::newton::solve_with_scratch;
use anasim::{
    solve_array, ArraySolveOptions, Netlist, NewtonOptions, NodeId, Partition, SolveScratch,
};

struct CountingAllocator;

thread_local! {
    // Const-initialized and drop-free: reading it never allocates and
    // stays valid through thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A CMOS inverter biased at its switching threshold: nonlinear enough
/// that a cold plain-Newton solve takes many damped iterations, while a
/// warm solve from the converged state takes very few.
fn threshold_inverter() -> Netlist {
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
    nl
}

#[test]
fn plain_newton_path_allocates_nothing_per_iteration() {
    let nl = threshold_inverter();
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();

    // First solve sizes the scratch (and the allocator's own warmup).
    let first = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves");

    // Cold solve: many damped iterations through the transition region.
    let before_cold = allocations();
    let cold = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves");
    let cold_allocs = allocations() - before_cold;

    // Warm solve from the converged state: almost no iterations.
    let x0 = first.raw().to_vec();
    let before_warm = allocations();
    let warm = solve_with_scratch(&nl, &opts, Some(&x0), AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves warm");
    let warm_allocs = allocations() - before_warm;

    assert!(
        warm.stats.iterations < cold.stats.iterations,
        "warm ({}) must need fewer iterations than cold ({})",
        warm.stats.iterations,
        cold.stats.iterations
    );
    assert_eq!(
        cold_allocs, warm_allocs,
        "allocations must not scale with iteration count \
         (cold: {} iters / {} allocs, warm: {} iters / {} allocs)",
        cold.stats.iterations, cold_allocs, warm.stats.iterations, warm_allocs
    );
    // The absolute budget: the returned Solution's state vector. Leave
    // headroom of one more for the Solution box itself if the layout
    // ever changes, but a per-iteration term is out.
    assert!(
        cold_allocs <= 2,
        "a scratch solve may only allocate its result, got {cold_allocs}"
    );
}

/// A chain of cross-coupled latches sharing one supply rail — the
/// pure-`anasim` miniature of the SRAM array netlist: every cell past
/// `active` is a 2-unknown Schur block with the rail as its boundary.
fn latch_chain(cells: usize, active: usize) -> (Netlist, Vec<NodeId>, Partition) {
    let mut nl = Netlist::new();
    let supply = nl.node("vdd_supply");
    let rail = nl.node("vdd_rail");
    nl.vsource("VDD", supply, Netlist::GND, 1.1);
    nl.resistor("Rsup", supply, rail, 5.0).expect("valid");
    let mut highs = Vec::new();
    let mut blocks = Vec::new();
    for i in 0..cells {
        let a = nl.node(&format!("a{i}"));
        let b = nl.node(&format!("b{i}"));
        if i >= active {
            blocks.push((a.index() - 1, 2));
        }
        nl.mosfet(
            &format!("MPa{i}"),
            a,
            b,
            rail,
            MosParams::pmos(1.0e-4, 0.55),
        )
        .expect("valid card");
        nl.mosfet(
            &format!("MNa{i}"),
            a,
            b,
            Netlist::GND,
            MosParams::nmos(2.0e-4, 0.55),
        )
        .expect("valid card");
        nl.mosfet(
            &format!("MPb{i}"),
            b,
            a,
            rail,
            MosParams::pmos(1.0e-4, 0.55),
        )
        .expect("valid card");
        nl.mosfet(
            &format!("MNb{i}"),
            b,
            a,
            Netlist::GND,
            MosParams::nmos(2.0e-4, 0.55),
        )
        .expect("valid card");
        highs.push(a);
    }
    let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid partition");
    (nl, highs, partition)
}

#[test]
fn warm_partitioned_array_resolve_allocates_nothing_per_iteration() {
    // Steady-state contract of the block-Schur path: once the scratch
    // is sized and the macromodel cache holds every value class of the
    // converged operating point, a re-solve allocates only its returned
    // Solution — assembly, cache lookups, interface factorization and
    // block back-substitution all run in held buffers.
    let (nl, highs, partition) = latch_chain(8, 1);
    let opts = ArraySolveOptions::default();
    let mut scratch = SolveScratch::new();

    let mut guess = nl.zero_state();
    nl.set_guess(&mut guess, nl.find_node("vdd_supply").expect("node"), 1.1);
    nl.set_guess(&mut guess, nl.find_node("vdd_rail").expect("node"), 1.1);
    for &a in &highs {
        nl.set_guess(&mut guess, a, 1.1);
    }

    // Cold solve sizes the scratch and seeds the macromodel cache;
    // pre-roll warm re-solves until the iterate is a bitwise fixed
    // point, so the measured solve's every assembly is a cache hit.
    let mut x = solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch)
        .expect("latch chain solves")
        .raw()
        .to_vec();
    for _ in 0..4 {
        x = solve_array(&nl, &partition, &opts, Some(&x), &mut scratch)
            .expect("latch chain re-solves")
            .raw()
            .to_vec();
    }
    // Drain the pre-roll counter history so the assertions below see
    // only the measured solve.
    scratch.flush_obs_counters();

    let before = allocations();
    let warm = solve_array(&nl, &partition, &opts, Some(&x), &mut scratch)
        .expect("latch chain re-solves warm");
    let warm_allocs = allocations() - before;

    assert!(
        warm.stats.iterations >= 1,
        "a solve runs at least one iteration"
    );
    let counters = scratch.counters();
    assert_eq!(
        counters.schur_blocks_rebuilt, 0,
        "at the fixed point every macromodel must come from the cache"
    );
    assert!(counters.schur_blocks_shared > 0);
    assert!(
        warm_allocs <= 2,
        "a warm partitioned re-solve may only allocate its result, got {warm_allocs}"
    );
}

#[test]
fn flight_recorder_adds_no_allocations_per_iteration() {
    // The convergence flight recorder samples every Newton iteration
    // when armed. Its ring is reserved once at `flight_begin`; from
    // then on recording must be an index write — the same
    // cold-vs-warm allocation-slope measurement as above, with the
    // recorder live, must still come out flat.
    let nl = threshold_inverter();
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();

    obs::flight_enable(obs::DEFAULT_CAPACITY);
    let first = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves");
    let x0 = first.raw().to_vec();

    // Arm this thread's ring outside the measured windows: the one
    // reserve happens here, not per solve or per iteration.
    obs::flight_begin();

    let before_cold = allocations();
    let cold = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves cold");
    let cold_allocs = allocations() - before_cold;

    let before_warm = allocations();
    let warm = solve_with_scratch(&nl, &opts, Some(&x0), AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves warm");
    let warm_allocs = allocations() - before_warm;

    let trajectory = obs::flight_take().expect("the armed ring captured the solves");
    obs::flight_disable();

    assert!(
        trajectory.recorded >= (cold.stats.iterations + warm.stats.iterations) as u64,
        "every iteration of both solves must be sampled \
         (recorded {}, cold {} + warm {})",
        trajectory.recorded,
        cold.stats.iterations,
        warm.stats.iterations
    );
    assert!(
        warm.stats.iterations < cold.stats.iterations,
        "warm ({}) must need fewer iterations than cold ({})",
        warm.stats.iterations,
        cold.stats.iterations
    );
    assert_eq!(
        cold_allocs, warm_allocs,
        "the flight recorder must not allocate per iteration \
         (cold: {} iters / {} allocs, warm: {} iters / {} allocs)",
        cold.stats.iterations, cold_allocs, warm.stats.iterations, warm_allocs
    );
}

#[test]
fn netlist_build_allocates_one_box_per_device() {
    // Names live in the netlist's interned tables, not in the devices:
    // with the names formatted beforehand, adding N nodes and N MOSFETs
    // costs the N boxed device models plus amortized growth of a fixed
    // set of buffers (device list, branch offsets, and each namespace's
    // arena, end offsets and index) — O(log N), not a few per device.
    const N: usize = 50_000;
    let node_names: Vec<String> = (0..N).map(|i| format!("s{i}")).collect();
    let device_names: Vec<String> = (0..N).map(|i| format!("MN{i}")).collect();
    let card = MosParams::nmos(2.0e-4, 0.55);
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");

    let before = allocations();
    for (node, device) in node_names.iter().zip(&device_names) {
        let s = nl.node(node);
        nl.mosfet(device, s, vdd, Netlist::GND, card)
            .expect("valid card");
    }
    let allocs = allocations() - before;

    assert_eq!(nl.num_devices(), N);
    let log_n = usize::BITS - N.leading_zeros();
    let growth_budget = 16 * u64::from(log_n);
    assert!(
        allocs <= N as u64 + growth_budget,
        "adding {N} nodes and {N} MOSFETs made {allocs} allocations; \
         the budget is one per device plus {growth_budget} for buffer growth"
    );
}

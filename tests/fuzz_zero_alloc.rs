//! Zero-allocation contract under fuzzed topologies: for *any*
//! ERC-clean generated netlist (not just the hand-written inverter in
//! `anasim`'s own allocation test), a sized scratch solve allocates at
//! most its returned `Solution`.
//!
//! Single test in this binary on purpose — the counting allocator is
//! process-global, and a concurrent test would pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use anasim::mna::AnalysisMode;
use anasim::newton::solve_with_scratch;
use anasim::{NewtonOptions, SolveScratch};
use drftest::fuzz::{random_netlist, DEFAULT_SEED};
use drill::Rng;

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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn fuzzed_netlists_keep_the_scratch_solve_allocation_free() {
    let mut rng = Rng::seeded(DEFAULT_SEED);
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();
    let mut solved = 0usize;
    for _ in 0..24 {
        let nl = random_netlist(&mut rng);
        // Sizing solve: allowed to allocate (scratch growth).
        let Ok(_) = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch) else {
            continue; // structured failures are the fuzzer's concern
        };
        // Sized solve: only the returned Solution may allocate.
        let before = allocations();
        let again = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
            .expect("same netlist, same outcome");
        let allocs = allocations() - before;
        assert!(
            allocs <= 2,
            "netlist with {} unknowns allocated {allocs} times in a sized solve \
             ({} iterations)",
            nl.num_unknowns(),
            again.stats.iterations
        );
        solved += 1;
    }
    assert!(solved >= 16, "only {solved} of 24 topologies solved");
}

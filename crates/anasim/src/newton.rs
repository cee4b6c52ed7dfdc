//! Damped Newton–Raphson with gmin and source stepping continuation.

use crate::error::Error;
use crate::mna::{assemble_planned, AnalysisMode};
use crate::netlist::{Netlist, NodeId};
use crate::scratch::SolveScratch;
use crate::sparse::SPARSE_THRESHOLD;

/// Tuning knobs for the nonlinear solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Iteration cap per continuation stage.
    pub max_iterations: usize,
    /// Absolute convergence tolerance on unknown updates (volts/amps).
    pub vntol: f64,
    /// Relative convergence tolerance on unknown updates.
    pub reltol: f64,
    /// Per-component damping clamp: no unknown moves more than this per
    /// iteration (volts). Large steps out of the EKV exponential region
    /// are what this guards against.
    pub max_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 200,
            vntol: 1.0e-9,
            reltol: 2.0e-4,
            max_step: 0.3,
        }
    }
}

/// Which continuation stage ultimately produced a converged solution.
///
/// Ordered from cheapest to most desperate: comparing two stages with
/// `<`/`max` answers "which run needed the heavier rescue".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RescueStage {
    /// Plain Newton from the provided starting point.
    Plain,
    /// The gmin-stepping continuation ladder.
    GminStepping,
    /// The source-stepping continuation ladder.
    SourceStepping,
    /// Heavily damped iteration restarted from the caller's warm start.
    DampedWarmStart,
    /// Heavily damped gmin ladder.
    DampedGmin,
    /// Accepted with a permanent 1 nS regularizing shunt.
    GminRegularized,
}

impl RescueStage {
    /// The obs counter name for this stage, as a static string so the
    /// hot solve-accounting path never formats (and never allocates).
    pub fn counter_key(self) -> &'static str {
        match self {
            RescueStage::Plain => "anasim.rescue.plain",
            RescueStage::GminStepping => "anasim.rescue.gmin-stepping",
            RescueStage::SourceStepping => "anasim.rescue.source-stepping",
            RescueStage::DampedWarmStart => "anasim.rescue.damped-warm-start",
            RescueStage::DampedGmin => "anasim.rescue.damped-gmin",
            RescueStage::GminRegularized => "anasim.rescue.gmin-regularized",
        }
    }

    /// The stage's human-readable label, as a static string so the
    /// flight recorder can tag samples without allocating.
    pub fn label(self) -> &'static str {
        match self {
            RescueStage::Plain => "plain",
            RescueStage::GminStepping => "gmin-stepping",
            RescueStage::SourceStepping => "source-stepping",
            RescueStage::DampedWarmStart => "damped-warm-start",
            RescueStage::DampedGmin => "damped-gmin",
            RescueStage::GminRegularized => "gmin-regularized",
        }
    }
}

impl std::fmt::Display for RescueStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Telemetry for one solve: how hard the solver had to work, and which
/// rescue tier, if any, saved the operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverStats {
    /// Newton iterations run across all continuation stages and retry
    /// attempts, including those of stages and attempts that failed.
    pub iterations: usize,
    /// Whole-solve retries taken by the [`solve_with_retry`]
    /// escalation (0 = the first attempt converged).
    pub retries: usize,
    /// The continuation stage that produced the accepted solution.
    pub rescued_by: RescueStage,
}

/// A converged solution of one analysis point.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    x: Vec<f64>,
    node_unknowns: usize,
    /// How the solver got here: iterations, retries, and the rescue
    /// tier that produced the accepted answer.
    pub stats: SolverStats,
}

impl Solution {
    /// Voltage at `node` (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the netlist this solution was
    /// computed from.
    pub fn voltage(&self, node: NodeId) -> f64 {
        match node.unknown_index() {
            None => 0.0,
            Some(i) => self.x[i],
        }
    }

    /// Voltage at `node`, or `None` when the node does not belong to
    /// the netlist this solution was computed from.
    ///
    /// Campaign and diagnostic paths prefer this over [`voltage`]:
    /// a stray node becomes a recordable failure instead of a panic
    /// that aborts the whole table.
    ///
    /// [`voltage`]: Solution::voltage
    pub fn try_voltage(&self, node: NodeId) -> Option<f64> {
        match node.unknown_index() {
            None => Some(0.0),
            Some(i) if i < self.node_unknowns => self.x.get(i).copied(),
            Some(_) => None,
        }
    }

    /// Branch current of the named device (only voltage sources carry
    /// branch unknowns). The convention is current flowing from the
    /// positive terminal through the device.
    pub fn branch_current(&self, netlist: &Netlist, device: &str) -> Option<f64> {
        netlist.branch_unknown(device).map(|i| self.x[i])
    }

    /// Raw unknown vector (node voltages then branch currents).
    pub fn raw(&self) -> &[f64] {
        &self.x
    }

    /// Consumes the solution, returning the raw unknown vector — the
    /// warm-start format accepted by the analyses.
    pub fn into_raw(self) -> Vec<f64> {
        self.x
    }
}

/// Why a Newton ladder stage gave up. `Singular` carries the pivot row
/// at which elimination failed so the final error can name the
/// offending unknown.
enum StageFailure {
    NoConvergence { residual: f64 },
    Singular(usize),
}

/// One continuation stage of damped Newton iteration, running entirely
/// in the scratch buffers: planned assembly into the reused matrix,
/// in-place LU refactorization, and solve into the reused proposal
/// vector — zero heap allocations per iteration. The starting iterate
/// is read from (and the converged one left in) `scratch.x`; each
/// iteration begun, whether it converges, fails or meets a singular
/// matrix, adds one to `scratch.iterations`.
fn newton_stage(
    netlist: &Netlist,
    opts: &NewtonOptions,
    scratch: &mut SolveScratch,
    gmin: f64,
    source_scale: f64,
    mode: AnalysisMode<'_>,
    partitioned: bool,
) -> Result<(), StageFailure> {
    // Field-level destructuring gives the loop disjoint borrows of
    // every buffer without moving anything out of the scratch.
    let SolveScratch {
        matrix,
        rhs,
        x,
        x_new,
        prev_update,
        lu,
        plan,
        sparse,
        schur,
        counters,
        iterations,
        ..
    } = scratch;
    // The partitioned path never sizes the dense matrix (a 512×8 array
    // would need a ~10k-order monolith), so the system order must come
    // from the iterate, which both paths size.
    let n = x.len();
    // The sparse backend takes over on large systems. The partitioned
    // path does its own backend selection on the reduced interface
    // system.
    let use_sparse = !partitioned && n >= SPARSE_THRESHOLD;
    let mut last_delta = f64::INFINITY;
    // Damping exists to tame the exponential regions of nonlinear
    // devices; a linear system solves exactly in one step, so clamping
    // its update would only add iterations.
    let damp = netlist.is_nonlinear();
    // Adaptive relaxation: a two-point limit cycle (typical of weakly
    // driven operating points such as a starved amplifier) shows up as
    // successive update vectors pointing in nearly opposite directions.
    // When that happens, shrink the applied step until the fixed-point
    // map becomes contractive; recover geometrically while updates stay
    // aligned.
    let mut alpha = 1.0f64;
    prev_update.iter_mut().for_each(|v| *v = 0.0);
    for _ in 0..opts.max_iterations {
        *iterations += 1;
        if partitioned {
            // Block-Schur replacement for the assemble/factor/solve
            // triple below: partitioned assembly, per-block macromodel
            // lookup, reduced interface solve, back-substitution. The
            // surrounding damping/convergence logic is shared.
            if let Err(e) = schur.step(netlist, x, gmin, source_scale, x_new, counters) {
                return Err(match e {
                    Error::SingularMatrix { pivot_row, .. } => StageFailure::Singular(pivot_row),
                    _ => StageFailure::Singular(0),
                });
            }
        } else {
            // Only the monolithic path reads the stamp plan; the
            // partitioned path never builds one (its partition plan
            // lives in `schur`).
            let plan = plan
                .as_ref()
                .expect("stamp plan ensured on the monolithic path");
            assemble_planned(netlist, plan, x, gmin, source_scale, mode, matrix, rhs);
            let factored = if use_sparse {
                sparse.factor(matrix, plan.structural_fp(), plan.touched_offsets())
            } else {
                let structure = plan
                    .lu_structure()
                    .expect("stamp plans below SPARSE_THRESHOLD carry the LU structure");
                lu.factor_planned(matrix, structure)
            };
            if let Err(e) = factored {
                return Err(match e {
                    Error::SingularMatrix { pivot_row, .. } => StageFailure::Singular(pivot_row),
                    _ => StageFailure::Singular(0),
                });
            }
            if use_sparse {
                sparse.solve_into(rhs, x_new);
            } else {
                lu.solve_into(rhs, x_new);
            }
        }
        // Per-component convergence: each unknown must settle within
        // vntol + reltol·|value|. (Node voltages and branch currents
        // live on very different scales; a global norm would let
        // microamp currents ride on volt-scale tolerances.)
        let mut max_delta = 0.0f64;
        let mut converged = true;
        let mut finite = true;
        for (xi, &xn) in x.iter().zip(x_new.iter()) {
            let delta = (xn - xi).abs();
            max_delta = max_delta.max(delta);
            finite &= xn.is_finite();
            if delta > opts.vntol + opts.reltol * xn.abs() {
                converged = false;
            }
        }
        // Flight recorder: allocation-free when enabled, one relaxed
        // atomic load when not. Never touches the iterate.
        obs::flight_record(max_delta, alpha);
        // A NaN delta passes the `>` test above, so a non-finite
        // proposal (a NaN or infinite source, an overflowed Jacobian)
        // would otherwise be accepted as converged. It fails the stage
        // instead, and the rescue ladder takes over.
        if !finite {
            return Err(StageFailure::NoConvergence {
                residual: f64::INFINITY,
            });
        }
        if converged {
            // The accepted answer is the undamped proposal; swap it
            // into the iterate slot for the caller.
            std::mem::swap(x, x_new);
            return Ok(());
        }
        if damp {
            // Oscillation detection: cosine of the angle between the
            // previous applied update and the newly proposed one.
            let mut dot = 0.0;
            let mut norm_prev = 0.0;
            let mut norm_new = 0.0;
            for ((&xp, xi), &xn) in prev_update.iter().zip(x.iter()).zip(x_new.iter()) {
                let d = xn - xi;
                dot += xp * d;
                norm_prev += xp * xp;
                norm_new += d * d;
            }
            let denom = (norm_prev * norm_new).sqrt();
            if denom > 0.0 && dot < -0.3 * denom {
                alpha = (alpha * 0.5).max(1.0 / 64.0);
            } else {
                alpha = (alpha * 1.4).min(1.0);
            }
        }
        // Damped update.
        for ((xi, &xn), slot) in x.iter_mut().zip(x_new.iter()).zip(prev_update.iter_mut()) {
            let delta = if damp {
                alpha * (xn - *xi).clamp(-opts.max_step, opts.max_step)
            } else {
                xn - *xi
            };
            *xi += delta;
            *slot = delta;
        }
        last_delta = max_delta;
    }
    Err(StageFailure::NoConvergence {
        residual: last_delta,
    })
}

/// A gmin-stepping ladder from a zero iterate: converge under a shunt
/// of 10 mS on every node, then under each tenfold smaller shunt down
/// to 1 pS, each rung starting from the previous rung's answer, and
/// finally with no shunt. True when every rung converged, leaving the
/// gmin-free answer in `scratch.x`.
fn gmin_ladder(
    netlist: &Netlist,
    opts: &NewtonOptions,
    scratch: &mut SolveScratch,
    mode: AnalysisMode<'_>,
    partitioned: bool,
) -> bool {
    scratch.x.iter_mut().for_each(|v| *v = 0.0);
    let mut gmin = 1.0e-2;
    while gmin > 1.0e-13 {
        if newton_stage(netlist, opts, scratch, gmin, 1.0, mode, partitioned).is_err() {
            return false;
        }
        gmin /= 10.0;
    }
    newton_stage(netlist, opts, scratch, 0.0, 1.0, mode, partitioned).is_ok()
}

/// Solves the netlist at the given analysis mode, starting from `x0`
/// (zeros when `None`), escalating through the continuation stages
/// (gmin stepping, source stepping, damped restarts, a gmin-regularized
/// accept) if plain Newton fails.
///
/// # Errors
///
/// When no stage converges, the plain stage's failure:
/// [`Error::NoConvergence`], or [`Error::SingularMatrix`] when the
/// topology itself is unsolvable (a loop of voltage sources, which no
/// node shunt regularizes).
pub fn solve(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
) -> Result<Solution, Error> {
    let mut scratch = SolveScratch::new();
    solve_with_scratch(netlist, opts, x0, mode, &mut scratch)
}

/// As [`solve`], but running in caller-provided scratch buffers.
///
/// The first solve sizes the scratch to the netlist (building its
/// [stamp plan](crate::mna::StampPlan)); every subsequent solve against
/// the same structure reuses matrix, right-hand side, iterate, and LU
/// buffers across all iterations, continuation stages, and rescue
/// rungs — zero per-iteration heap allocations. Results are
/// bit-identical to [`solve`] with a fresh scratch.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with_scratch(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
    scratch: &mut SolveScratch,
) -> Result<Solution, Error> {
    scratch.ensure(netlist);
    solve_impl(netlist, opts, x0, mode, scratch, false)
}

/// As [`solve_with_scratch`], but running every linear solve through
/// the block-Schur reduction described by `partition` (see
/// [`crate::schur`]). The dense monolithic matrix is never allocated.
///
/// # Errors
///
/// As [`solve_with_scratch`]; additionally [`Error::InvalidPartition`]
/// when the partition does not describe this netlist.
pub(crate) fn solve_partitioned_with_scratch(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
    scratch: &mut SolveScratch,
    partition: &crate::schur::Partition,
) -> Result<Solution, Error> {
    // The macromodel cache keys on the iterate, gmin, the source scale
    // and the netlist tables, never on transient history.
    assert!(
        matches!(mode, AnalysisMode::Dc),
        "the block-Schur path solves DC operating points only"
    );
    scratch.ensure_partitioned(netlist, partition)?;
    solve_impl(netlist, opts, x0, mode, scratch, true)
}

/// Shared continuation-ladder body of the monolithic and partitioned
/// entry points; expects the scratch to be ensured for the matching
/// path already.
fn solve_impl(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
    scratch: &mut SolveScratch,
    partitioned: bool,
) -> Result<Solution, Error> {
    let n = netlist.num_unknowns();
    let node_unknowns = netlist.num_nodes() - 1;
    match x0 {
        Some(x) => {
            assert_eq!(x.len(), n, "warm start has wrong dimension");
            scratch.start.copy_from_slice(x);
        }
        None => scratch.start.iter_mut().for_each(|v| *v = 0.0),
    }
    scratch.iterations = 0;
    // The converged iterate, charged every iteration this solve ran.
    let accept = |scratch: &SolveScratch, stage: RescueStage| Solution {
        x: scratch.x.clone(),
        node_unknowns,
        stats: SolverStats {
            iterations: scratch.iterations,
            retries: 0,
            rescued_by: stage,
        },
    };

    // Stage 1: plain Newton from the provided start. A singular
    // Jacobian here may come from fully-off device stacks, which the
    // gmin rungs regularize, so every failure goes on to the rescue
    // stages; if none converges, this failure is the one reported.
    obs::flight_set_stage(RescueStage::Plain.label());
    scratch.load_start();
    let Err(plain) = newton_stage(netlist, opts, scratch, 0.0, 1.0, mode, partitioned) else {
        return Ok(accept(scratch, RescueStage::Plain));
    };

    // Stage 2: gmin stepping.
    obs::flight_set_stage(RescueStage::GminStepping.label());
    if gmin_ladder(netlist, opts, scratch, mode, partitioned) {
        return Ok(accept(scratch, RescueStage::GminStepping));
    }

    // Stage 3: source stepping, each step starting from the last.
    obs::flight_set_stage(RescueStage::SourceStepping.label());
    scratch.x.iter_mut().for_each(|v| *v = 0.0);
    let stepped = (1..=20).all(|step| {
        let scale = step as f64 / 20.0;
        newton_stage(netlist, opts, scratch, 0.0, scale, mode, partitioned).is_ok()
    });
    if stepped {
        return Ok(accept(scratch, RescueStage::SourceStepping));
    }

    // Stage 3.5: heavily damped iteration from the caller's warm start
    // (when one was provided, it is near the solution; tiny steps keep
    // the iterate inside the basin).
    let damped = NewtonOptions {
        max_step: 0.01,
        max_iterations: 2000,
        ..*opts
    };
    if x0.is_some() {
        obs::flight_set_stage(RescueStage::DampedWarmStart.label());
        scratch.load_start();
        if newton_stage(netlist, &damped, scratch, 0.0, 1.0, mode, partitioned).is_ok() {
            return Ok(accept(scratch, RescueStage::DampedWarmStart));
        }
    }

    // Stage 4: heavily damped gmin ladder — slow, but settles the
    // two-branch oscillations that starved-amplifier operating points
    // can provoke in the plain iteration.
    obs::flight_set_stage(RescueStage::DampedGmin.label());
    if gmin_ladder(netlist, &damped, scratch, mode, partitioned) {
        return Ok(accept(scratch, RescueStage::DampedGmin));
    }

    // Stage 5: accept a gmin-regularized solution. A permanent 1 nS
    // shunt per node perturbs microamp-scale circuits by ~0.1 % — far
    // below the tolerances of any analysis in this suite — and gives
    // pathological off-state operating points a well-defined answer.
    obs::flight_set_stage(RescueStage::GminRegularized.label());
    let rung = NewtonOptions {
        max_step: 0.05,
        max_iterations: 1000,
        ..*opts
    };
    scratch.best.iter_mut().for_each(|v| *v = 0.0);
    let mut gmin = 1.0e-2;
    while gmin > 1.5e-9 {
        // A failed rung is not fatal: keep the best iterate so far
        // and let the next rung (or the final accept) retry.
        scratch.x.copy_from_slice(&scratch.best);
        if newton_stage(netlist, &rung, scratch, gmin, 1.0, mode, partitioned).is_ok() {
            scratch.best.copy_from_slice(&scratch.x);
        }
        gmin /= 10.0;
    }
    // The accepted answer keeps the 1 nS shunt, settled under the
    // tightest damping.
    let settle = NewtonOptions {
        max_step: 0.005,
        max_iterations: 4000,
        ..*opts
    };
    scratch.x.copy_from_slice(&scratch.best);
    if newton_stage(netlist, &settle, scratch, 1.0e-9, 1.0, mode, partitioned).is_ok() {
        return Ok(accept(scratch, RescueStage::GminRegularized));
    }

    // No stage converged: the attempt fails with its plain stage's
    // outcome, charged every iteration the attempt ran.
    Err(match plain {
        StageFailure::Singular(row) => Error::SingularMatrix {
            pivot_row: row,
            unknown: Some(netlist.unknown_label(row)),
        },
        StageFailure::NoConvergence { residual } => Error::NoConvergence {
            iterations: scratch.iterations,
            residual,
        },
    })
}

/// Whole-solve attempts [`solve_with_retry`] makes on a
/// [retryable](Error::is_retryable) failure before surfacing it.
pub const SOLVE_ATTEMPTS: usize = 4;

/// The options of retry attempt `attempt` (0-based), derived from the
/// caller's `base` options by the schedule [`solve_with_retry`]
/// documents.
fn options_for_attempt(base: &NewtonOptions, attempt: usize) -> NewtonOptions {
    let mut opts = *base;
    if attempt >= 1 {
        opts.max_iterations = opts.max_iterations.saturating_mul(2);
    }
    if attempt >= 2 {
        opts.max_step *= 0.5;
    }
    if attempt >= 3 {
        opts.reltol *= 10.0;
    }
    opts
}

/// [`solve`] wrapped in a fixed escalation schedule of
/// [`SOLVE_ATTEMPTS`] attempts. Escalations are cumulative:
///
/// 1. the caller's options, unchanged;
/// 2. twice the iteration cap;
/// 3. additionally half the `max_step` clamp (tighter damping tames
///    oscillating iterates);
/// 4. additionally ten times the relative tolerance.
///
/// Retries only on [retryable](Error::is_retryable) errors; structural
/// failures (invalid devices, bad time axes) surface immediately. The
/// schedule trades accuracy for completion *only* on points that would
/// otherwise produce no answer at all: a point that converges on the
/// first attempt is bit-identical to a plain [`solve`]. The returned
/// solution's [`SolverStats::retries`] records how many escalations
/// were needed, and its iterations include those of failed attempts.
///
/// # Errors
///
/// The last attempt's error when every attempt fails.
pub fn solve_with_retry(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
) -> Result<Solution, Error> {
    let mut scratch = SolveScratch::new();
    solve_with_retry_in(netlist, opts, x0, mode, &mut scratch)
}

/// Publishes the scratch's accumulated fast-path counters to `obs`
/// and resets them. One flush per retry-ladder solve keeps the
/// per-iteration hot path free of atomic traffic.
pub(crate) fn flush_fast_path_counters(scratch: &mut SolveScratch) {
    let c = scratch.counters.take();
    if c.schur_blocks_shared > 0 {
        obs::counter_add("schur.blocks_shared", c.schur_blocks_shared);
    }
    if c.schur_blocks_rebuilt > 0 {
        obs::counter_add("schur.blocks_rebuilt", c.schur_blocks_rebuilt);
    }
    if c.schur_interface_unknowns > 0 {
        obs::counter_add("schur.interface_unknowns", c.schur_interface_unknowns);
    }
}

/// As [`solve_with_retry`], but running every attempt in the
/// caller-provided [`SolveScratch`]. Results are bit-identical to
/// [`solve_with_retry`]; only the allocation profile differs.
///
/// # Errors
///
/// As [`solve_with_retry`].
pub fn solve_with_retry_in(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
    scratch: &mut SolveScratch,
) -> Result<Solution, Error> {
    let mut iters_burned = 0usize;
    for attempt in 0..SOLVE_ATTEMPTS {
        obs::flight_set_attempt(attempt as u16);
        let attempt_opts = options_for_attempt(opts, attempt);
        let outcome = solve_with_scratch(netlist, &attempt_opts, x0, mode, scratch);
        flush_fast_path_counters(scratch);
        match outcome {
            Ok(mut sol) => {
                sol.stats.retries = attempt;
                sol.stats.iterations += iters_burned;
                obs::counter_add("anasim.solve.count", 1);
                obs::counter_add(sol.stats.rescued_by.counter_key(), 1);
                obs::hist_record("anasim.solve.iterations", sol.stats.iterations as f64);
                obs::hist_record("anasim.solve.retries", sol.stats.retries as f64);
                obs::tally_add(sol.stats.iterations as u64, sol.stats.retries as u64);
                return Ok(sol);
            }
            Err(e) if e.is_retryable() && attempt + 1 < SOLVE_ATTEMPTS => {
                // Failed attempts ran the whole continuation ladder.
                iters_burned += scratch.iterations;
            }
            Err(mut e) => {
                // A failed solve still charges every iteration its
                // attempts ran, and reports that count.
                let iterations = iters_burned + scratch.iterations;
                if let Error::NoConvergence {
                    iterations: ran, ..
                } = &mut e
                {
                    *ran = iterations;
                }
                obs::counter_add("anasim.solve.failed", 1);
                obs::hist_record("anasim.solve.iterations", iterations as f64);
                obs::tally_add(iterations as u64, attempt as u64);
                return Err(e);
            }
        }
    }
    unreachable!("retry loop always returns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::mosfet::MosParams;
    use crate::mna::AnalysisMode;

    #[test]
    fn linear_circuit_converges_in_two_iterations() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("linear divider always solves");
        assert!(sol.stats.iterations <= 2, "{:?}", sol.stats);
        assert!((sol.voltage(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_source_fails_instead_of_converging() {
        // A NaN proposal passes every per-component `delta > tol` test,
        // so without the finiteness check this divider returned Ok with
        // NaN voltages after one iteration.
        for volts in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let mid = nl.node("mid");
            nl.vsource("V", a, Netlist::GND, volts);
            nl.resistor("R1", a, mid, 1.0e3)
                .expect("valid resistance, unique name");
            nl.resistor("R2", mid, Netlist::GND, 1.0e3)
                .expect("valid resistance, unique name");
            let r = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc);
            assert!(
                matches!(r, Err(Error::NoConvergence { .. })),
                "source {volts}: {r:?}"
            );
        }
    }

    /// A resistor chain from a 1 V source to ground with two parallel
    /// voltage sources, `Vloop` and `Vloop2`, from its midpoint to
    /// ground: `chain` chain nodes and three source branches make
    /// `chain + 3` unknowns. The two loop branches are linearly
    /// dependent on every rung of the rescue ladder (gmin shunts only
    /// node diagonals, source stepping scales both sources alike), so
    /// every stage meets a singular matrix.
    fn chain_with_source_loop(chain: usize) -> Netlist {
        let mut nl = Netlist::new();
        let top = nl.node("c0");
        nl.vsource("V", top, Netlist::GND, 1.0);
        let mut prev = top;
        for i in 1..chain {
            let node = nl.node(&format!("c{i}"));
            nl.resistor(&format!("R{i}"), prev, node, 1.0e3)
                .expect("valid resistance, unique name");
            if i == chain / 2 {
                nl.vsource("Vloop", node, Netlist::GND, 0.5);
                nl.vsource("Vloop2", node, Netlist::GND, 0.5);
            }
            prev = node;
        }
        nl.resistor("Rend", prev, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        nl
    }

    #[test]
    fn singular_solve_names_the_dependent_branch_on_both_backends() {
        // 24 unknowns factor densely, 204 through the sparse backend,
        // whose RCM order permutes the columns; both must report the
        // global index of the branch that lost its pivot, and name it.
        for (chain, sparse, source) in [(21, false, "Vloop2"), (201, true, "Vloop")] {
            let nl = chain_with_source_loop(chain);
            assert_eq!(nl.num_unknowns(), chain + 3);
            let branch = nl.branch_unknown(source).expect("sources carry a branch");
            let mut scratch = SolveScratch::new();
            let err = solve_with_scratch(
                &nl,
                &NewtonOptions::default(),
                None,
                AnalysisMode::Dc,
                &mut scratch,
            )
            .expect_err("a voltage-source loop is singular");
            assert_eq!(scratch.sparse_lu_nnz().is_some(), sparse, "{err}");
            let label = format!("branch current of `{source}`");
            match &err {
                Error::SingularMatrix { pivot_row, unknown } => {
                    assert_eq!(*pivot_row, branch, "{err}");
                    assert_eq!(unknown.as_deref(), Some(label.as_str()), "{err}");
                }
                other => panic!("expected SingularMatrix, got {other}"),
            }
            assert!(err.to_string().contains(&format!("check {label}")), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "warm start has wrong dimension")]
    fn warm_start_dimension_checked() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let bad = vec![0.0; 1]; // needs 2 unknowns
        let _ = solve(&nl, &NewtonOptions::default(), Some(&bad), AnalysisMode::Dc);
    }

    #[test]
    fn nonlinear_inverter_converges_with_continuation() {
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
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("default continuation solves the inverter");
        let v = sol.voltage(out);
        assert!((0.0..=1.1).contains(&v), "inverter mid output {v}");
    }

    /// A CMOS inverter biased at its switching threshold: the
    /// high-gain transition region makes undamped iterates overshoot,
    /// so plain Newton on a tight iteration budget fails.
    fn threshold_inverter() -> (Netlist, crate::netlist::NodeId) {
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
        (nl, out)
    }

    #[test]
    fn iterations_count_failed_stages() {
        // The flight recorder samples every iteration that reaches the
        // convergence check, apart from the solver's own accounting.
        // The solve below meets no singular matrix, so the two counts
        // must agree, the failed plain stage included.
        let (nl, _) = threshold_inverter();
        obs::flight_enable(obs::DEFAULT_CAPACITY);
        obs::flight_begin();
        // Plain Newton runs out of iterations; gmin stepping rescues.
        let starved = NewtonOptions {
            max_iterations: 6,
            ..NewtonOptions::default()
        };
        let sol = solve(&nl, &starved, None, AnalysisMode::Dc).expect("the point is rescued");
        let trajectory = obs::flight_take().expect("the recorder saw the solve");
        obs::flight_disable();
        assert_eq!(sol.stats.rescued_by, RescueStage::GminStepping);
        assert_eq!(
            sol.stats.iterations as u64, trajectory.recorded,
            "{:?}",
            sol.stats
        );
    }

    #[test]
    fn regularized_rung_pins_a_floating_node() {
        // A node with no DC path to ground is singular under plain
        // Newton and at the gmin-free end of every ladder; the final
        // rung keeps its 1 nS shunt and yields a (shunt-defined)
        // answer on the first attempt.
        let mut nl = Netlist::new();
        let c = nl.node("c");
        nl.isource("I1", Netlist::GND, c, 1e-3);
        let sol = solve_with_retry(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("the gmin-regularized rung pins the node");
        assert_eq!(sol.stats.retries, 0, "stats: {:?}", sol.stats);
        assert_eq!(sol.stats.rescued_by, RescueStage::GminRegularized);
    }

    #[test]
    fn escalation_schedule_is_cumulative() {
        let base = NewtonOptions::default();
        let a0 = options_for_attempt(&base, 0);
        assert_eq!(a0, base);
        let a1 = options_for_attempt(&base, 1);
        assert_eq!(a1.max_iterations, base.max_iterations * 2);
        assert_eq!(a1.max_step, base.max_step);
        let a2 = options_for_attempt(&base, 2);
        assert_eq!(a2.max_iterations, base.max_iterations * 2);
        assert!((a2.max_step - base.max_step * 0.5).abs() < 1e-12);
        assert_eq!(a2.reltol, base.reltol);
        // The last attempt carries every escalation.
        assert_eq!(SOLVE_ATTEMPTS, 4);
        let a3 = options_for_attempt(&base, SOLVE_ATTEMPTS - 1);
        assert_eq!(a3.max_iterations, base.max_iterations * 2);
        assert!((a3.max_step - base.max_step * 0.5).abs() < 1e-12);
        assert!((a3.reltol - base.reltol * 10.0).abs() < 1e-12);
        assert_eq!(a3.vntol, base.vntol);
    }

    #[test]
    fn first_attempt_success_reports_zero_retries() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let sol = solve_with_retry(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("linear divider solves on the first attempt");
        assert_eq!(sol.stats.retries, 0);
        assert_eq!(sol.stats.rescued_by, RescueStage::Plain);
    }

    #[test]
    fn try_voltage_distinguishes_foreign_nodes() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 2.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("linear divider always solves");
        assert_eq!(sol.try_voltage(Netlist::GND), Some(0.0));
        assert!((sol.try_voltage(a).expect("a belongs to this netlist") - 2.0).abs() < 1e-9);
        // A node index from a bigger, unrelated netlist.
        let mut big = Netlist::new();
        let _ = big.node("x");
        let _ = big.node("y");
        let foreign = big.node("z");
        assert_eq!(sol.try_voltage(foreign), None);
    }

    #[test]
    fn rescue_stages_order_by_desperation() {
        assert!(RescueStage::Plain < RescueStage::GminStepping);
        assert!(RescueStage::GminStepping < RescueStage::SourceStepping);
        assert!(RescueStage::DampedGmin < RescueStage::GminRegularized);
        assert_eq!(RescueStage::GminRegularized.to_string(), "gmin-regularized");
    }

    #[test]
    fn solution_accessors() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 2.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("linear divider always solves");
        assert_eq!(sol.raw().len(), 2);
        assert!(sol.branch_current(&nl, "V").is_some());
        assert!(sol.branch_current(&nl, "R").is_none());
        let raw = sol.clone().into_raw();
        assert_eq!(raw.len(), 2);
        assert_eq!(sol.voltage(Netlist::GND), 0.0);
    }

    /// The seed solver's plain-Newton loop, re-implemented with
    /// per-iteration allocations (full assembly + a fresh LU workspace).
    /// The production path must reproduce its iterate sequence
    /// bit-for-bit.
    fn reference_plain_newton(nl: &Netlist, opts: &NewtonOptions) -> Option<(Vec<f64>, usize)> {
        use crate::matrix::{DenseMatrix, LuWorkspace};
        use crate::mna::assemble;
        let n = nl.num_unknowns();
        let mut matrix = DenseMatrix::zeros(n);
        let mut rhs = vec![0.0; n];
        let mut x = vec![0.0; n];
        let damp = nl.is_nonlinear();
        let mut alpha = 1.0f64;
        let mut prev_update = vec![0.0; n];
        for iter in 0..opts.max_iterations {
            assemble(nl, &x, 0.0, 1.0, AnalysisMode::Dc, &mut matrix, &mut rhs);
            let mut lu = LuWorkspace::new();
            lu.factor_from(&matrix).ok()?;
            let mut x_new = vec![0.0; n];
            lu.solve_into(&rhs, &mut x_new);
            let converged = x
                .iter()
                .zip(x_new.iter())
                .all(|(xi, &xn)| (xn - xi).abs() <= opts.vntol + opts.reltol * xn.abs());
            if converged {
                return Some((x_new, iter + 1));
            }
            if damp {
                let mut dot = 0.0;
                let mut norm_prev = 0.0;
                let mut norm_new = 0.0;
                for ((&xp, xi), &xn) in prev_update.iter().zip(x.iter()).zip(x_new.iter()) {
                    let d = xn - xi;
                    dot += xp * d;
                    norm_prev += xp * xp;
                    norm_new += d * d;
                }
                let denom = (norm_prev * norm_new).sqrt();
                if denom > 0.0 && dot < -0.3 * denom {
                    alpha = (alpha * 0.5).max(1.0 / 64.0);
                } else {
                    alpha = (alpha * 1.4).min(1.0);
                }
            }
            for ((xi, &xn), slot) in x.iter_mut().zip(x_new.iter()).zip(prev_update.iter_mut()) {
                let delta = if damp {
                    alpha * (xn - *xi).clamp(-opts.max_step, opts.max_step)
                } else {
                    xn - *xi
                };
                *xi += delta;
                *slot = delta;
            }
        }
        None
    }

    #[test]
    fn scratch_solver_matches_reference_iterates() {
        // A nonlinear circuit exercising damping, and a linear one
        // exercising the undamped single-step path.
        let (inverter, _) = threshold_inverter();
        let mut divider = Netlist::new();
        let a = divider.node("a");
        divider.vsource("V", a, Netlist::GND, 1.5);
        divider
            .resistor("R", a, Netlist::GND, 2.0e3)
            .expect("valid resistance, unique name");
        for nl in [&inverter, &divider] {
            let opts = NewtonOptions::default();
            let (ref_x, ref_iters) =
                reference_plain_newton(nl, &opts).expect("reference plain Newton converges");
            let sol = solve(nl, &opts, None, AnalysisMode::Dc).expect("production solve converges");
            assert_eq!(
                sol.stats.rescued_by,
                RescueStage::Plain,
                "reference covers only the plain stage"
            );
            assert_eq!(
                sol.stats.iterations, ref_iters,
                "iteration counts must match"
            );
            let got: Vec<u64> = sol.raw().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = ref_x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "iterate sequence diverged from the seed solver");
        }
    }

    #[test]
    fn sparse_backend_solves_large_ladders_through_the_newton_path() {
        // 150 series segments push the system past SPARSE_THRESHOLD;
        // the voltage profile along an unloaded uniform ladder is
        // linear, which pins the sparse solve against closed form.
        let segments = 150usize;
        let mut nl = Netlist::new();
        let top = nl.node("n0");
        nl.vsource("V", top, Netlist::GND, 1.0);
        let mut prev = top;
        for i in 1..=segments {
            let node = nl.node(&format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, node, 1.0e3)
                .expect("valid resistance, unique name");
            prev = node;
        }
        nl.resistor("Rend", prev, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        assert!(nl.num_unknowns() >= crate::sparse::SPARSE_THRESHOLD);
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("sparse ladder solves");
        let total = segments as f64 + 1.0;
        for i in [1usize, segments / 2, segments] {
            let node = nl.find_node(&format!("n{i}")).expect("node exists");
            let want = 1.0 - i as f64 / total;
            let got = sol.voltage(node);
            assert!(
                (got - want).abs() < 1e-9,
                "node n{i}: sparse {got} vs analytic {want}"
            );
        }
    }

    /// A uniform resistor ladder with `segments + 2` unknowns.
    fn ladder(segments: usize) -> Netlist {
        let mut nl = Netlist::new();
        let top = nl.node("n0");
        nl.vsource("V", top, Netlist::GND, 1.0);
        let mut prev = top;
        for i in 1..=segments {
            let node = nl.node(&format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, node, 1.0e3)
                .expect("valid resistance, unique name");
            prev = node;
        }
        nl.resistor("Rend", prev, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        nl
    }

    #[test]
    fn sparse_ladder_fill_in_is_pinned() {
        // The L+U nonzero count of the sparse backend is a pure function
        // of its ordering and pivoting, so any change to either moves it.
        let nl = ladder(150);
        let mut scratch = SolveScratch::new();
        let sol = solve_with_scratch(
            &nl,
            &NewtonOptions::default(),
            None,
            AnalysisMode::Dc,
            &mut scratch,
        )
        .expect("sparse ladder solves");
        assert_eq!(
            (
                nl.num_unknowns(),
                sol.stats.iterations,
                scratch.sparse_lu_nnz()
            ),
            (152, 2, Some(453)),
            "(unknowns, Newton iterations, L+U nonzeros)"
        );
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        let (inverter, _) = threshold_inverter();
        let mut divider = Netlist::new();
        let a = divider.node("a");
        divider.vsource("V", a, Netlist::GND, 3.3);
        divider
            .resistor("R", a, Netlist::GND, 4.7e3)
            .expect("valid resistance, unique name");
        let opts = NewtonOptions::default();
        let mut reused = SolveScratch::new();
        // Alternate between two structurally different netlists so the
        // reuse path exercises plan rebuilds, then re-solve each with
        // the warm iterate of the other still in the buffers.
        for _ in 0..2 {
            for nl in [&inverter, &divider] {
                let fresh = solve(nl, &opts, None, AnalysisMode::Dc)
                    .expect("fresh-scratch solve converges");
                let reused_sol = solve_with_scratch(nl, &opts, None, AnalysisMode::Dc, &mut reused)
                    .expect("reused-scratch solve converges");
                assert_eq!(fresh.stats.iterations, reused_sol.stats.iterations);
                let f: Vec<u64> = fresh.raw().iter().map(|v| v.to_bits()).collect();
                let r: Vec<u64> = reused_sol.raw().iter().map(|v| v.to_bits()).collect();
                assert_eq!(f, r, "scratch reuse must not change results");
            }
        }
    }
}

//! How fast the core runs the benchmark right now.
//!
//! On a shared host the same single-threaded call runs up to twice as
//! slowly while other tenants load the machine, and the load changes
//! over minutes. A probe thread pinned to the workload thread's core
//! wakes every [`PERIOD`] and times a fixed kernel. Its mean speed over
//! a pass, relative to [`REFERENCE_S`], scales the pass's time to that
//! of an unloaded core, so runs made minutes apart compare.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between two probe samples.
pub const PERIOD: Duration = Duration::from_millis(5);
/// Time of one kernel on an unloaded core of the reference host (Intel
/// Xeon, 2 vCPUs): the speed every pass is scaled to.
pub const REFERENCE_S: f64 = 1.0e-4;

/// A running probe thread and the samples it has taken.
pub struct Probe {
    /// The calling thread's CPU set before it was pinned.
    unpinned: Option<CpuSet>,
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    thread: Option<JoinHandle<()>>,
}

impl Probe {
    /// Pins the calling thread to the core it runs on and starts a probe
    /// thread pinned to the same core. Without a core to pin to, both
    /// stay unpinned and the probe measures the machine instead.
    /// Dropping the probe unpins the calling thread again.
    pub fn start() -> Probe {
        let unpinned = cpu_set();
        let cpu = current_cpu();
        if let Some(cpu) = cpu {
            pin_to(cpu);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
            std::thread::spawn(move || {
                if let Some(cpu) = cpu {
                    pin_to(cpu);
                }
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    let start = Instant::now();
                    kernel();
                    let seconds = start.elapsed().as_secs_f64();
                    samples
                        .lock()
                        .expect("probe samples poisoned")
                        .push((start, seconds));
                }
            })
        };
        Probe {
            unpinned,
            stop,
            samples,
            thread: Some(thread),
        }
    }

    /// The core's mean speed relative to an unloaded one over the
    /// samples taken between `from` and `to`, and their count; speed 1
    /// when none was taken.
    pub fn speed(&self, from: Instant, to: Instant) -> (f64, usize) {
        let samples = self.samples.lock().expect("probe samples poisoned");
        let inside: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| *at >= from && *at <= to)
            .map(|(_, seconds)| REFERENCE_S / seconds)
            .collect();
        if inside.is_empty() {
            return (1.0, 0);
        }
        (
            inside.iter().sum::<f64>() / inside.len() as f64,
            inside.len(),
        )
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        if let Some(set) = &self.unpinned {
            set_cpu_set(set);
        }
    }
}

/// The fixed kernel: 16×16 LU factorisations with partial pivoting of a
/// matrix whose entries need `exp`, the mix of a small-system Newton
/// step. About [`REFERENCE_S`] on an unloaded reference core. Changing
/// it changes every figure and the fit of `SPEED_EXPONENT` in `run.py`.
#[allow(clippy::needless_range_loop)]
fn kernel() {
    const N: usize = 16;
    let mut checksum = 0.0;
    for rep in 0..40 {
        let mut a = [[0.0f64; N]; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                let d = i.abs_diff(j) as f64;
                *x = (-0.3 * d - 1e-3 * f64::from(rep)).exp() + if i == j { 4.0 } else { 0.0 };
            }
        }
        for k in 0..N {
            let p = (k..N)
                .max_by(|&x, &y| a[x][k].abs().total_cmp(&a[y][k].abs()))
                .unwrap_or(k);
            a.swap(k, p);
            for i in k + 1..N {
                let f = a[i][k] / a[k][k];
                for j in k..N {
                    a[i][j] -= f * a[k][j];
                }
            }
        }
        checksum += black_box(a[N - 1][N - 1]);
    }
    black_box(checksum);
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    cpu_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds the process has used so far, every thread included.
pub fn process_cpu_s() -> f64 {
    cpu_s(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set of up to 1024 CPUs, glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

fn cpu_s(clock: i32) -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec (64-bit Linux layout)
    // and both CPU-time clock ids are constants the kernel accepts.
    let status = unsafe { clock_gettime(clock, &mut now) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// The core the calling thread runs on, if it fits a 64-bit mask.
fn current_cpu() -> Option<u32> {
    // SAFETY: sched_getcpu takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    u32::try_from(cpu).ok().filter(|&c| c < 64)
}

/// The calling thread's CPU set.
fn cpu_set() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread and `set` is a writable
    // buffer of the size passed.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (status == 0).then_some(set)
}

/// Sets the calling thread's CPU set; a refused set leaves it as it was.
fn set_cpu_set(set: &CpuSet) {
    // SAFETY: pid 0 names the calling thread and `set` is a readable
    // buffer of the size passed.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// Pins the calling thread to `cpu`.
fn pin_to(cpu: u32) {
    let mut set: CpuSet = [0; 16];
    set[0] = 1 << cpu;
    set_cpu_set(&set);
}

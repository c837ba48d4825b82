//! What the benchmark does about the host it runs on: it owns one CPU, it
//! reads the process CPU clock, and it measures how fast that CPU is
//! running right now.
//!
//! **One CPU.** A serving round has two busy threads, the load generator
//! and the server worker, and nearly all of a `hot_zipf` op is the wake-ups
//! between them. Left to the scheduler they drift between "same CPU" and
//! "different CPUs" within a run, and on a shared 2-vCPU VM a cross-CPU
//! wake-up goes through the hypervisor, so its cost follows the host's
//! state, not the program: on the reference host the 90th-percentile
//! segment rate of `hot_zipf` spread 7–8 % between runs unpinned or pinned
//! to two CPUs, and 3 % with both threads on one. So a run pins itself to
//! one allowed CPU before it starts any thread (threads inherit the mask).
//! With one generator and one worker there is next to no parallel lock
//! contention to lose by this. It also means the process CPU clock never
//! runs faster than the wall clock, which the next point relies on.
//!
//! **Reference speed.** The same host slows every CPU-bound op by up to
//! 15 % for minutes at a time (no hypervisor steal is reported while it
//! does; a neighbour on the sibling hardware thread would look like this).
//! Twenty back-to-back runs of `train_eval` with one seed gave a
//! 10th-percentile op time between 54.3 and 61.0 ms — and a fixed
//! arithmetic loop timed between the ops slowed by the same factor each
//! time, leaving the ratio of the two within ±1.5 %. So every timed
//! interval is split by the process CPU clock into time the program
//! *waited* (timers, fsync, an idle queue) and time it *computed*, and only
//! the computing part is scaled to the speed the calibration loop runs at
//! on a quiet reference host:
//!
//! ```text
//! reported = (wall − cpu) + cpu × speed,   speed = NOMINAL / measured loop time
//! ```
//!
//! A change to the product moves `cpu` or `wall − cpu` and shows in full; a
//! change in the host's mood moves `cpu` and `speed` in opposite directions
//! and cancels. Raw wall-clock values are still printed beside the gated
//! ones.
//!
//! `std` has neither an affinity call nor a CPU clock, and the container
//! has no `libc` crate to depend on, so the three libc functions are
//! declared here. Linux only: elsewhere nothing is pinned, the CPU clock
//! reads as the wall clock's zero (so nothing is rescaled), and the host
//! block says so.

use crate::stats::quantile;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

#[cfg(target_os = "linux")]
mod imp {
    /// A `cpu_set_t` of 1024 bits, as glibc defines it.
    const WORDS: usize = 16;
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    /// CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; `false` if the kernel refused.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    /// CPU time consumed by all threads of this process, in nanoseconds.
    pub fn process_cpu_ns() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a writable `timespec` with the 64-bit Linux layout.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }

    pub fn process_cpu_ns() -> Option<u64> {
        None
    }
}

/// Keeps the calling thread — and every thread it starts meanwhile — on one
/// CPU until dropped, then gives the calling thread its old mask back (also
/// when a check fails on the way).
pub struct OneCpu {
    before: Vec<usize>,
    cpu: Option<usize>,
}

impl OneCpu {
    /// Pins to the highest-numbered allowed CPU (CPU 0 tends to take the
    /// machine's interrupts).
    pub fn hold() -> Self {
        let before = imp::allowed();
        let cpu = match before.as_slice() {
            [.., last] if before.len() >= 2 && imp::pin(&[*last]) => Some(*last),
            _ => None,
        };
        OneCpu { before, cpu }
    }

    /// The CPU the run is pinned to, if it is.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }

    /// How many CPUs the process was allowed before pinning (0: unknown).
    pub fn allowed_before(&self) -> usize {
        self.before.len()
    }

    pub fn describe(&self) -> String {
        match self.cpu {
            Some(cpu) => format!("all threads on cpu {cpu} (of {:?})", self.before),
            None => format!("not pinned (allowed CPUs: {:?})", self.before),
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if self.cpu.is_some() {
            imp::pin(&self.before);
        }
    }
}

/// A wall-clock interval and the process CPU time spent inside it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Span2 {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Span2 {
    /// The interval at reference speed: waiting counts as it is, computing
    /// is scaled by `speed` (see the module docs).
    pub fn at_reference_speed(&self, speed: f64) -> f64 {
        // The two clocks are read a few hundred nanoseconds apart, so a
        // fully busy interval can show cpu a hair above wall.
        let cpu = self.cpu_s.min(self.wall_s);
        (self.wall_s - cpu) + cpu * speed
    }
}

/// Both clocks, read together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: Option<u64>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu_ns: imp::process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Span2 {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = match (self.cpu_ns, imp::process_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
            _ => 0.0,
        };
        Span2 { wall_s, cpu_s }
    }
}

/// Seconds the calibration loop takes on a quiet reference host (the 25th
/// percentile of its samples there). A constant of the benchmark: it only
/// fixes the scale of the reported numbers, and is the same for the parent
/// and the change of any comparison.
pub const NOMINAL_LOOP_S: f64 = 1.17e-3;

/// Samples of the calibration loop taken at one point of a run.
const SAMPLES_PER_MARK: usize = 8;

/// The quantile of a run's calibration samples that stands for its speed.
/// Chosen on 33 recorded runs (all four workloads, a noisy hour): against
/// the 10th, 25th and 50th percentile and the per-mark minima, the 25th
/// left the smallest run-to-run spread of the gated estimators overall
/// (the 10th tracks single lucky samples, the median the bursts).
const FAST_TAIL: f64 = 0.25;

/// The calibration loop: a fixed, cache-resident block of multiply-adds
/// (a 64×64 matrix product accumulated 60 times). Benchmark-owned code, so
/// no change to the product changes it.
fn calibration_loop(a: &[f32; 4096], acc: &mut [[f32; 64]; 64]) {
    for _ in 0..60 {
        for i in 0..64 {
            for k in 0..64 {
                let aik = a[i * 64 + k];
                for j in 0..64 {
                    acc[i][j] += aik * a[k * 64 + j];
                }
            }
        }
    }
}

/// Measures how fast the CPU runs during a run. The workloads call `mark`
/// between their ops and segments (never inside a timed interval), dozens
/// of times spread over the whole run.
///
/// One speed per run, from the fast tail of all its samples — the same
/// tail of the same period that the gated estimators (10th-percentile
/// latency, 90th-percentile segment, fastest set-up) take of the ops. The
/// host's slowdowns come on two time scales: a drift of up to 15 % that
/// lasts minutes, which moves the fast tails of ops and calibration loop
/// alike and is what the speed corrects; and bursts of 1.4–2× that last
/// tens of milliseconds, which the fast-tail estimators already step
/// around and which a per-phase speed would only alias into the result.
pub struct Calibrator {
    samples: RefCell<Vec<f64>>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            samples: RefCell::new(Vec::new()),
        }
    }

    /// Times the calibration loop a few times (≈ 10 ms in all).
    pub fn mark(&self) {
        let a: [f32; 4096] = std::array::from_fn(|i| (i % 7) as f32 * 0.25);
        let mut acc = [[0f32; 64]; 64];
        let mut samples = self.samples.borrow_mut();
        for _ in 0..SAMPLES_PER_MARK {
            let t0 = Instant::now();
            calibration_loop(black_box(&a), &mut acc);
            black_box(&acc);
            samples.push(t0.elapsed().as_secs_f64());
        }
    }

    /// How many times the loop was timed so far.
    pub fn samples(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Speed of the CPU over the run so far, relative to the reference
    /// (1.0 = reference speed, below 1 = slowed). 1.0 when nothing was
    /// marked or there is no CPU clock to split intervals with.
    pub fn speed(&self) -> f64 {
        let samples = self.samples.borrow();
        if samples.is_empty() || imp::process_cpu_ns().is_none() {
            return 1.0;
        }
        NOMINAL_LOOP_S / quantile(&samples, FAST_TAIL)
    }

    /// Share of samples more than 15 % slower than the fast tail: how much
    /// of the run fell into the host's slow bursts.
    pub fn slow_share(&self) -> f64 {
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return 0.0;
        }
        let fast = quantile(&samples, FAST_TAIL);
        samples.iter().filter(|&&s| s > 1.15 * fast).count() as f64 / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_inherited_and_undone() {
        // On its own thread, so the test runner's threads keep their masks.
        std::thread::spawn(|| {
            let before = imp::allowed();
            let held = OneCpu::hold();
            let Some(cpu) = held.cpu else {
                return; // a single allowed CPU: nothing to pin
            };
            assert_eq!(imp::allowed(), [cpu]);
            let child = std::thread::spawn(imp::allowed).join().unwrap();
            assert_eq!(child, [cpu]);
            drop(held);
            assert_eq!(imp::allowed(), before);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn waiting_counts_as_it_is_and_computing_is_scaled() {
        let slowed = Span2 {
            wall_s: 10.0,
            cpu_s: 6.0,
        };
        // The host ran at 0.8 of reference speed: 6 s of computing would
        // have been 4.8 s; 4 s of waiting stays 4 s.
        assert!((slowed.at_reference_speed(0.8) - 8.8).abs() < 1e-12);
        assert_eq!(slowed.at_reference_speed(1.0), 10.0);
        // Clock skew never produces negative waiting.
        let skewed = Span2 {
            wall_s: 1.0,
            cpu_s: 1.001,
        };
        assert_eq!(skewed.at_reference_speed(0.5), 0.5);
    }

    #[test]
    fn the_cpu_clock_follows_work_not_sleep() {
        if imp::process_cpu_ns().is_none() {
            return;
        }
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = sw.elapsed();
        assert!(slept.wall_s >= 0.03);
        // Other test threads may be computing meanwhile, so only the
        // calibrator's own claim is checked: marks produce a sane speed.
        let cal = Calibrator::new();
        assert_eq!((cal.speed(), cal.samples()), (1.0, 0));
        cal.mark();
        let speed = cal.speed();
        assert!(speed > 0.05 && speed < 20.0, "speed {speed}");
        assert!(cal.samples() > 0 && (0.0..=1.0).contains(&cal.slow_share()));
    }
}

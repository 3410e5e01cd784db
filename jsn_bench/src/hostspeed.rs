//! Host speed, measured beside the workload.
//!
//! The reference host is a virtual machine whose two vCPUs share physical
//! cores with other tenants. While a neighbour runs, the simulator —
//! branchy code with a large instruction footprint — slows by up to a
//! factor of two, on one vCPU or both, for seconds to minutes at a time,
//! while a tight arithmetic loop barely slows and a pointer chase slows
//! far less. No statistic within one run removes a slowdown that lasts
//! the whole run. So every timed unit of work is followed by a reference
//! timed on the vCPUs the unit ran on, and the unit's host time is divided
//! by how much slower than nominal the reference ran. Replay slices and
//! shard runs are scaled by the frozen copy of the simulator
//! ([`crate::reference`]); served sessions and set-ups, which spend most
//! of their time outside the simulator, by the [`RefKernel`] here.
//!
//! The kernel is standard-library code: it formats integers and floats,
//! splits and parses them back, and sorts short strings. Of the kernels
//! tried on the reference host (arithmetic chains, pointer chases, ordered
//! and hashed maps, heaps, number sorts, a small cache model), these two
//! slowed most like the simulator. The kernel does identical work on
//! every call and belongs to the benchmark, so a change to the program
//! under test moves the workload's time and not the kernel's.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Host nanoseconds one [`RefKernel::run`] takes on the reference host
/// when no neighbour slows it: the speed host times are scaled to.
pub const NOMINAL_NS: f64 = 3.2e6;

/// Numbers formatted and parsed back per call.
const FORMATS: u64 = 4000;

/// Lists of sixteen short strings sorted per call.
const SORTS: u64 = 1500;

/// The reference kernel and the buffers it reuses between calls.
pub struct RefKernel {
    text: String,
    words: Vec<String>,
}

impl Default for RefKernel {
    fn default() -> RefKernel {
        RefKernel::new()
    }
}

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl RefKernel {
    /// A kernel, run once so that later calls find its code and memory
    /// warm.
    pub fn new() -> RefKernel {
        let mut kernel =
            RefKernel { text: String::with_capacity(64), words: Vec::with_capacity(16) };
        kernel.run();
        kernel
    }

    /// One call: the same operations on the same values every time.
    fn work(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..FORMATS {
            let v = next(&mut x);
            self.text.clear();
            let _ = write!(self.text, "{} {:.3} {:x}", v >> 20, (v >> 11) as f64 / 1e6, v);
            acc += self.text.split(' ').map(|f| f.len() as u64).sum::<u64>();
            let mut fields = self.text.split(' ');
            acc += fields.next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0) & 1;
            acc += fields.next().and_then(|f| f.parse::<f64>().ok()).map_or(0, |f| f as u64 & 1);
        }
        for _ in 0..SORTS {
            self.words.clear();
            for _ in 0..16 {
                self.words.push(format!("{:x}", next(&mut x) >> 30));
            }
            self.words.sort();
            acc += self.words[3].len() as u64;
        }
        acc
    }

    /// Run the kernel once on the calling thread; returns the host
    /// nanoseconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.work());
        t.elapsed().as_nanos() as f64
    }

    /// How much slower than nominal the kernel runs on the calling
    /// thread's vCPU: the slowdown of single-threaded work that just ran
    /// on this thread. A host time divided by it is the time at reference
    /// speed.
    pub fn slowdown(&mut self) -> f64 {
        self.run() / NOMINAL_NS
    }

    /// The mean slowdown over every vCPU the process may run on, the
    /// kernel run on each in turn: the slowdown of work whose threads
    /// spread over the host. Where the thread cannot be moved, the
    /// slowdown on the calling thread's vCPU.
    pub fn slowdown_all_cpus(&mut self) -> f64 {
        let Some(allowed) = affinity::get() else {
            return self.slowdown();
        };
        let cpus = affinity::cpus(&allowed);
        let mut sum = 0.0;
        for &cpu in &cpus {
            affinity::set(&affinity::only(cpu));
            sum += self.slowdown();
        }
        affinity::set(&allowed);
        sum / cpus.len() as f64
    }

    /// The slowdown on the `n`th vCPU the calling thread may run on (see
    /// [`Pinned::nth`]): the slowdown of work pinned there.
    pub fn slowdown_on(&mut self, n: usize) -> f64 {
        let _pinned = Pinned::nth(n);
        self.slowdown()
    }
}

/// Keeps the calling thread on the vCPU it runs on until dropped, so that
/// single-threaded work and the kernel timed after it share a vCPU.
pub struct Pinned {
    saved: Option<affinity::Mask>,
}

impl Pinned {
    /// Pin the calling thread to its current vCPU; a no-op where that
    /// cannot be done.
    pub fn here() -> Pinned {
        let saved = affinity::get();
        if let (Some(_), Some(cpu)) = (&saved, affinity::current()) {
            affinity::set(&affinity::only(cpu));
        }
        Pinned { saved }
    }

    /// Pin the calling thread to the `n`th vCPU it may run on, counting
    /// round the allowed vCPUs; a no-op where that cannot be done.
    pub fn nth(n: usize) -> Pinned {
        let saved = affinity::get();
        if let Some(allowed) = &saved {
            let cpus = affinity::cpus(allowed);
            affinity::set(&affinity::only(cpus[n % cpus.len()]));
        }
        Pinned { saved }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(mask) = &self.saved {
            affinity::set(mask);
        }
    }
}

/// The calling thread's CPU affinity, through `sched_getaffinity(2)`,
/// `sched_setaffinity(2)` and `sched_getcpu(3)`, which std links on
/// Linux.
#[cfg(target_os = "linux")]
mod affinity {
    /// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// The vCPU the calling thread runs on.
    pub fn current() -> Option<usize> {
        // SAFETY: takes no arguments and only reads the caller's CPU.
        let cpu = unsafe { sched_getcpu() };
        usize::try_from(cpu).ok().filter(|&c| c < 1024)
    }

    /// The calling thread's mask, or `None` when it cannot be read.
    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0 && mask.iter().any(|&w| w != 0)).then_some(mask)
    }

    /// Restrict the calling thread to `mask`. A failure leaves the thread
    /// where it was, which costs precision, not correctness.
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }

    /// The CPUs set in `mask`.
    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..mask.len() * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).collect()
    }

    /// A mask holding `cpu` alone.
    pub fn only(cpu: usize) -> Mask {
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type Mask = ();
    pub fn get() -> Option<Mask> {
        None
    }
    pub fn current() -> Option<usize> {
        None
    }
    pub fn set(_: &Mask) {}
    pub fn cpus(_: &Mask) -> Vec<usize> {
        Vec::new()
    }
    pub fn only(_: usize) -> Mask {}
}

/// Host times of a run's units of work, as measured and at reference
/// speed.
#[derive(Debug, Clone, Default)]
pub struct Times {
    /// As measured.
    pub raw: Vec<f64>,
    /// Divided by the slowdown measured right after each.
    pub reference: Vec<f64>,
}

impl Times {
    /// Record a host time that ran at `slowdown`.
    pub fn push(&mut self, raw: f64, slowdown: f64) {
        self.raw.push(raw);
        self.reference.push(raw / slowdown);
    }

    /// The median slowdown of the units.
    pub fn slowdown(&self) -> f64 {
        let ratios: Vec<f64> = self.raw.iter().zip(&self.reference).map(|(r, s)| r / s).collect();
        crate::metrics::median(&ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_does_the_same_work() {
        let mut k = RefKernel::new();
        let first = k.work();
        assert_eq!(k.work(), first);
        assert!(k.slowdown() > 0.0);
        assert!(k.slowdown_all_cpus() > 0.0);
    }

    #[test]
    fn pinning_is_undone_on_drop() {
        let before = affinity::get();
        {
            let _pinned = Pinned::here();
            if let Some(mask) = affinity::get() {
                assert_eq!(affinity::cpus(&mask).len(), 1);
            }
        }
        assert_eq!(affinity::get(), before);
    }

    #[test]
    fn reference_time_undoes_the_slowdown() {
        let mut t = Times::default();
        t.push(2.0, 2.0);
        t.push(3.0, 0.5);
        assert_eq!(t.raw, vec![2.0, 3.0]);
        assert_eq!(t.reference, vec![1.0, 6.0]);
        assert_eq!(t.slowdown(), 1.25);
    }
}

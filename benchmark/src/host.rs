//! What the harness reads from the host: a clock, the peak resident set, CPU
//! affinity, two calibration kernels and an allocation counter.
//!
//! There are no hardware counters in the sandbox (`perf_event_open` returns
//! `ENOENT`), so host time is the only speed signal there is. Everything
//! here exists to say how much a host-time number can be trusted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the time base of every
/// span, so that a trace file's timestamps share one origin.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 when `/proc` does
/// not say.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `cpu_set_t` of glibc: 1 024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, ascending; empty when the host does not
/// say.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid 0
        // is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0 {
            return (0..64 * set.len())
                .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Pins the calling thread — and every process it starts from now on, which
/// inherits the mask — to `cpu`. `false` when the host refuses.
pub fn pin_this_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        if let Some(word) = set.get_mut(cpu / 64) {
            *word = 1 << (cpu % 64);
            // SAFETY: `set` is a readable `cpu_set_t` of the size passed;
            // pid 0 is the calling thread.
            return unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } == 0;
        }
    }
    let _ = cpu;
    false
}

/// One step of the 64-bit xorshift generator the harness's synthetic inputs
/// come from.
#[inline]
pub fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The two fixed calibration kernels. Neither touches the program under
/// test, so their times move only with the host: a dependent walk along one
/// random cycle through all of a 16 MiB array (cache and memory contention
/// from co-tenants) and a 256 KiB xorshift loop (core frequency).
///
/// They are *recorded, not divided by*: normalising by the memory kernel cut
/// the Clos run-to-run spread from 9 % to 2.5 % in a calm period but tripled
/// `buf_worstcase`'s (2.6 % to 9.7 %), and the compute kernel helped neither.
/// A calibration pair far from its neighbours marks a contaminated run in
/// the log; it never rescales a metric.
#[derive(Debug)]
pub struct Calibration {
    mem: Vec<u32>,
    at: usize,
    cpu: Vec<u32>,
}

/// One reading of the two kernels, ns per step of each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibReading {
    /// ns per dependent load of the 16 MiB random walk.
    pub mem_ns: f64,
    /// ns per xorshift-and-store step over the 256 KiB array.
    pub cpu_ns: f64,
}

const MEM_WORDS: usize = 4 << 20; // 16 MiB of u32
const CPU_WORDS: usize = 64 << 10; // 256 KiB of u32
const MEM_STEPS: u64 = 100_000; // about 15 ms of dependent loads
const CPU_STEPS: u64 = 6_000_000; // about 15 ms of register arithmetic

impl Calibration {
    /// Allocates and fills both arrays (a fixed fill: calibration must not
    /// depend on the workload seed).
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        // Sattolo's shuffle: a permutation with a single cycle, so the walk
        // visits every word before it repeats (a random *function* would
        // fall into a cycle of a thousand-odd words that fits the L1).
        let mut mem: Vec<u32> = (0..MEM_WORDS as u32).collect();
        for i in (1..MEM_WORDS).rev() {
            x = xorshift(x);
            mem.swap(i, (x % i as u64) as usize);
        }
        let cpu = (0..CPU_WORDS)
            .map(|_| {
                x = xorshift(x);
                (x >> 16) as u32
            })
            .collect();
        Calibration { mem, at: 0, cpu }
    }

    /// Runs both kernels once (about 30 ms together).
    pub fn read(&mut self) -> CalibReading {
        let start = Instant::now();
        let mut idx = self.at;
        for _ in 0..MEM_STEPS {
            // The next index is the loaded word: no two loads overlap.
            idx = self.mem[idx] as usize;
        }
        self.at = black_box(idx);
        let mem_ns = start.elapsed().as_nanos() as f64 / MEM_STEPS as f64;

        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..CPU_STEPS {
            x = xorshift(x);
            let slot = (x as usize) & (CPU_WORDS - 1);
            self.cpu[slot] = self.cpu[slot].wrapping_add(x as u32);
        }
        black_box(&self.cpu);
        let cpu_ns = start.elapsed().as_nanos() as f64 / CPU_STEPS as f64;
        CalibReading { mem_ns, cpu_ns }
    }
}

/// Cost of one back-to-back `Instant::now()` pair, ns: subtracted from every
/// sampled single-call timing, where it is the same size as the call.
pub fn timer_overhead_ns() -> f64 {
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        let start = Instant::now();
        for _ in 0..256 {
            black_box(Instant::now());
        }
        samples.push(start.elapsed().as_nanos() as f64 / 256.0);
    }
    crate::stats::lower_quartile(&samples)
}

/// Times `op` (which reports how many operations it performed) in batches
/// for about `budget_ms` and returns the lower quartile of ns per operation:
/// the estimator of every isolated per-layer kernel.
pub fn time_per_op(budget_ms: u64, mut op: impl FnMut() -> u64) -> f64 {
    let deadline = Instant::now() + std::time::Duration::from_millis(budget_ms);
    let mut samples = Vec::new();
    // One untimed call fills caches and lazy state.
    black_box(op());
    while samples.len() < 5 || Instant::now() < deadline {
        let start = Instant::now();
        let ops = black_box(op()).max(1);
        samples.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    crate::stats::lower_quartile(&samples)
}

/// The process allocator: every call goes to `System`'s own entry point
/// (`realloc` and `alloc_zeroed` included, so in-place growth and lazily
/// zeroed pages behave as in the program's own binaries), plus counters
/// that run only while a traced child has switched them on. The end-to-end
/// children never switch them on: their allocations pay one relaxed load.
#[derive(Debug)]
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation call that made `grown` bytes live and released
/// `released`. The counters are plain statistics that publish no memory, so
/// `Relaxed` suffices.
#[inline]
fn count(grown: usize, released: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    if grown > 0 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    // Saturating: blocks allocated before counting began are freed against
    // a counter that never saw them.
    let update = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some((live + grown as u64).saturating_sub(released as u64))
    });
    if let Ok(before) = update {
        let live = (before + grown as u64).saturating_sub(released as u64);
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to the `System` method of the same name
// with the caller's layout, pointer and size unchanged, so `System`'s own
// contract is what the caller gets; counting touches only the atomics above.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: `ptr` came from `System` with this layout, and the caller
        // vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off for this process.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Highest live heap the counter has seen, MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_rss_is_known() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert!(peak_rss_mib() > 0.0, "VmHWM must be readable on Linux");
    }

    #[test]
    fn pinning_moves_one_thread_and_leaves_the_others() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "sched_getaffinity works on Linux");
        let last = *cpus.last().unwrap();
        std::thread::spawn(move || {
            assert!(pin_this_thread(last));
            assert_eq!(allowed_cpus(), [last]);
        })
        .join()
        .unwrap();
        assert_eq!(allowed_cpus(), cpus);
        assert!(!pin_this_thread(usize::MAX), "no such CPU");
    }

    #[test]
    fn time_per_op_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 1u64;
                for _ in 0..n {
                    x = black_box(xorshift(x));
                }
                black_box(x);
                n
            }
        };
        let per_op = time_per_op(5, spin(10_000));
        assert!(per_op > 0.0 && per_op < 1_000.0, "{per_op} ns per xorshift");
    }
}

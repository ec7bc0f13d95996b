//! Host-speed normalisation of the timed runs.
//!
//! On a shared host the speed of this simulator drifts by up to 2x, in
//! spells of a few seconds to many minutes, and each vCPU drifts on its own.
//! Code with a deep dependency chain barely moves; code that loads, branches
//! and allocates like the simulator does slows by 1.3x to 1.6x (see
//! `README.md`). No single window of a run is free of it, so the benchmark
//! measures the host's speed *while* it measures the program: the timed
//! thread and a sampler thread are pinned to the same CPU, and the sampler
//! wakes every [`PERIOD`] to time one slice of a fixed reference kernel, a
//! small discrete-event simulation with the same mix of heap, hash-table and
//! allocation work as the simulator. A span of host time is then rescaled to
//! *nominal* time, the time it would have taken at the speed where one
//! reference slice takes [`NOMINAL_SLICE_NS`], assuming that the simulator's
//! time grows as the [`ELASTICITY`]-th power of the slice's.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between the starts of two reference slices on one CPU.
pub const PERIOD: Duration = Duration::from_millis(10);

/// Duration of one reference slice that defines nominal speed, a typical
/// slice on a 2-vCPU Sapphire Rapids KVM guest (the fastest are about
/// 0.17 ms, the slowest about 0.3 ms).
pub const NOMINAL_SLICE_NS: f64 = 250_000.0;

/// How host time of the simulator scales with the reference slice's: the
/// slope of log run time on log mean slice time across whole runs, 1.3–1.8
/// for both workloads on the development host (see `README.md`).
pub const ELASTICITY: f64 = 1.5;

/// Fewest slices that a span's speed is estimated from; shorter
/// spans borrow the slices nearest to their middle.
pub const MIN_SLICES: usize = 16;

/// A slice more than this many times the median of its window was
/// preempted, and is left out.
const OUTLIER: f64 = 2.0;

/// Entities of the reference simulation.
const REF_ENTITIES: usize = 256;

/// Events of one reference slice.
const REF_EVENTS: u32 = 2_000;

#[derive(Clone, Copy, Default)]
struct Entity {
    busy: bool,
    since: u64,
    busy_for: u64,
    flips: u32,
    history: [u64; 4],
}

/// One slice of the reference kernel: a fixed discrete-event simulation of
/// [`REF_ENTITIES`] entities that pops timed events from a binary heap,
/// flips per-entity state, keeps a hashed ledger and a work queue, and
/// schedules the next event. The same seed gives the same work and the
/// same checksum.
pub fn reference_slice(seed: u64) -> u64 {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut entities = vec![Entity::default(); REF_ENTITIES];
    let mut heap = BinaryHeap::with_capacity(REF_ENTITIES);
    let mut ledger: HashMap<u64, u64> = HashMap::new();
    let mut queue: Vec<u64> = Vec::new();
    for i in 0..REF_ENTITIES {
        heap.push(Reverse((next() % 1_000, i)));
    }
    let mut sum = 0u64;
    for _ in 0..REF_EVENTS {
        let Reverse((t, i)) = heap.pop().expect("one event per entity");
        let e = &mut entities[i];
        if e.busy {
            e.busy_for += t - e.since;
        }
        e.busy = !e.busy;
        e.since = t;
        e.flips += 1;
        e.history[(e.flips % 4) as usize] = t;
        let key = next() % (REF_ENTITIES as u64 * 4);
        *ledger.entry(key).or_insert(0) += t;
        if e.busy {
            queue.push(key);
        } else if let Some(k) = queue.pop() {
            sum ^= ledger.get(&k).copied().unwrap_or(0);
        }
        heap.push(Reverse((t + 1 + next() % 5_000, i)));
    }
    let busy: u64 = entities.iter().map(|e| e.busy_for).sum();
    sum ^ busy ^ ledger.len() as u64
}

/// One timed reference slice.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// When it started.
    pub at: Instant,
    /// How long it took.
    pub ns: u64,
}

/// A sampler thread pinned to the caller's CPU.
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<Vec<Slice>>,
    pinned: bool,
}

impl SpeedProbe {
    /// Pins the calling thread to the first CPU it may run on and starts a
    /// sampler pinned to the same CPU. If pinning fails the sampler still
    /// runs, and [`SpeedProbe::pinned`] says so.
    pub fn start() -> SpeedProbe {
        let cpu = affinity::allowed().first().copied();
        let caller = cpu.is_some_and(affinity::pin);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let _ = tx.send(cpu.is_some_and(affinity::pin));
            sample(&flag)
        });
        let pinned = caller && rx.recv().unwrap_or(false);
        SpeedProbe {
            stop,
            sampler,
            pinned,
        }
    }

    /// Whether the caller and the sampler are pinned.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Stops the sampler, waits for it, and returns its slices.
    pub fn finish(self) -> Result<Speed, String> {
        // The flag publishes no data: the slices come back through `join`.
        self.stop.store(true, Ordering::Relaxed);
        let slices = self
            .sampler
            .join()
            .map_err(|_| "the speed sampler panicked".to_string())?;
        Ok(Speed { slices })
    }
}

fn sample(stop: &AtomicBool) -> Vec<Slice> {
    let mut slices = Vec::new();
    let mut wake = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let at = Instant::now();
        black_box(reference_slice(black_box(0x5eed)));
        slices.push(Slice {
            at,
            ns: at.elapsed().as_nanos() as u64,
        });
        wake += PERIOD;
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        } else {
            wake = now;
        }
    }
    slices
}

/// The reference slices of a run, in time order.
pub struct Speed {
    slices: Vec<Slice>,
}

impl Speed {
    /// Builds from recorded slices, in time order.
    pub fn from_slices(slices: Vec<Slice>) -> Speed {
        Speed { slices }
    }

    /// Slices recorded.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    /// The fastest slice recorded, in nanoseconds.
    pub fn fastest_ns(&self) -> u64 {
        self.slices.iter().map(|s| s.ns).min().unwrap_or(0)
    }

    /// Host slowdown over `[a, b]`: the mean reference slice over the
    /// span over [`NOMINAL_SLICE_NS`]. 1 when no slice was recorded.
    pub fn slowdown(&self, a: Instant, b: Instant) -> f64 {
        window_mean_ns(&self.slices, a, b).map_or(1.0, |ns| ns / NOMINAL_SLICE_NS)
    }

    /// Nominal seconds of the host span `[a, b]`.
    pub fn nominal_s(&self, a: Instant, b: Instant) -> f64 {
        b.saturating_duration_since(a).as_secs_f64() / self.slowdown(a, b).powf(ELASTICITY)
    }
}

/// Mean slice over the slices that start within `[a, b]`, or the
/// [`MIN_SLICES`] nearest to its middle if fewer do, without preempted
/// outliers.
fn window_mean_ns(slices: &[Slice], a: Instant, b: Instant) -> Option<f64> {
    if slices.is_empty() {
        return None;
    }
    let lo = slices.partition_point(|s| s.at < a);
    let hi = slices.partition_point(|s| s.at <= b);
    let (lo, hi) = if hi - lo >= MIN_SLICES {
        (lo, hi)
    } else if slices.len() <= MIN_SLICES {
        (0, slices.len())
    } else {
        let mid = a + b.saturating_duration_since(a) / 2;
        let centre = slices.partition_point(|s| s.at < mid);
        let lo = centre
            .saturating_sub(MIN_SLICES / 2)
            .min(slices.len() - MIN_SLICES);
        (lo, lo + MIN_SLICES)
    };
    let mut ns: Vec<u64> = slices[lo..hi].iter().map(|s| s.ns).collect();
    ns.sort_unstable();
    let cap = ns[ns.len() / 2] as f64 * OUTLIER;
    let kept: Vec<f64> = ns.iter().map(|&n| n as f64).filter(|&n| n <= cap).collect();
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// CPU affinity through the C library's `sched_getaffinity` and
/// `sched_setaffinity` (Linux).
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on, in ascending order.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpu`; false if refused.
    pub fn pin(cpu: usize) -> bool {
        if cpu >= WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

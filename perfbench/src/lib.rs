//! Building blocks of the Condor benchmark: the output digest, the
//! cross-checked run counts, and the traced run that attributes host time
//! to layers (engine build, owner flips, coordinator polls, the job
//! lifecycle, and the attached observer sinks).
//!
//! Everything here calls only public entry points of the simulator, so the
//! spans are taken from outside the program, around the calls into each
//! layer. See `README.md` beside this crate for the metric definitions.

pub mod speed;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use condor_core::cluster::{Cluster, RunOutput, Totals};
use condor_core::config::ClusterConfig;
use condor_core::job::{JobSpec, JobState};
use condor_core::telemetry::{GaugeSample, TraceSink};
use condor_core::trace::{TraceEvent, TraceKind};
use condor_metrics::summary::RunSummary;
use condor_sim::engine::Engine;
use condor_sim::time::{SimDuration, SimTime};

/// Largest share of the traced wall that may stay unattributed before the
/// traced run counts as failed.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.01;

/// The layer a stepped engine event is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// A coordinator poll cycle, including any placements and priority
    /// preemptions it orders.
    Poll,
    /// A job lifecycle step: image arrival and start, suspension, resume,
    /// checkpoint, kill, or completion.
    Lifecycle,
    /// An owner flip that touched no job.
    Flip,
    /// Anything else: arrivals, grace timers, steps that emit nothing.
    Other,
}

impl StepClass {
    /// Number of classes.
    pub const COUNT: usize = 4;

    /// Dense index in `0..COUNT`, in priority order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The bit this class sets in a step's seen-classes mask.
    fn bit(self) -> u64 {
        1 << self.index()
    }

    /// The class a single trace kind votes for, if any.
    pub fn of_kind(kind: &TraceKind) -> Option<StepClass> {
        use TraceKind::*;
        match kind {
            CoordinatorPolled { .. } => Some(StepClass::Poll),
            PlacementStarted { .. }
            | PlacementDiskRejected { .. }
            | JobGranted { .. }
            | JobStarted { .. }
            | JobSuspended { .. }
            | JobResumedInPlace { .. }
            | CheckpointStarted { .. }
            | CheckpointCompleted { .. }
            | JobKilled { .. }
            | PeriodicCheckpoint { .. }
            | JobCompleted { .. } => Some(StepClass::Lifecycle),
            OwnerActive { .. } | OwnerIdle { .. } => Some(StepClass::Flip),
            _ => None,
        }
    }

    /// Classifies a step by priority over every kind it emitted, not by
    /// the first one: a poll that places emits `PlacementStarted` before
    /// `CoordinatorPolled` and is still a poll, and an owner return that
    /// suspends a job is lifecycle work.
    pub fn of_mask(mask: u64) -> StepClass {
        [StepClass::Poll, StepClass::Lifecycle, StepClass::Flip]
            .into_iter()
            .find(|c| mask & c.bit() != 0)
            .unwrap_or(StepClass::Other)
    }

    /// [`StepClass::of_mask`] over a list of kinds.
    pub fn of_kinds<'a>(kinds: impl IntoIterator<Item = &'a TraceKind>) -> StepClass {
        let mask = kinds
            .into_iter()
            .filter_map(StepClass::of_kind)
            .fold(0, |m, c| m | c.bit());
        StepClass::of_mask(mask)
    }
}

/// FNV-1a over the run's observable outcome: every [`Totals`] counter,
/// the [`RunSummary`], and each job's completion instant (in job order).
/// Identical simulations give identical digests.
pub fn digest(out: &RunOutput, summary: &RunSummary) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{:?}", out.totals).as_bytes());
    h.write(format!("{summary:?}").as_bytes());
    for job in &out.jobs {
        let done = job.completed_at.map_or(u64::MAX, SimTime::as_millis);
        h.write(&done.to_le_bytes());
    }
    h.0
}

/// Folds several digests (one per run of a pass) into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The counts a traced run must reproduce exactly from an untraced run of
/// the same scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Engine events dispatched.
    pub events: u64,
    /// Coordinator poll cycles.
    pub polls: u64,
    /// Polls answered by the memo fast path.
    pub poll_memo_hits: u64,
    /// Placements started.
    pub placements: u64,
    /// Transfers booked on the bus.
    pub bus_transfers: u64,
    /// Bytes moved over the bus.
    pub bus_bytes: u64,
    /// Jobs completed within the horizon.
    pub jobs_completed: u64,
}

impl Counts {
    /// The counts of a finished run.
    pub fn of_output(out: &RunOutput) -> Counts {
        Counts {
            events: out.events_dispatched,
            polls: out.totals.polls,
            poll_memo_hits: out.totals.poll_memo_hits,
            placements: out.totals.placements,
            bus_transfers: out.bus_transfers,
            bus_bytes: out.bus_bytes_moved,
            jobs_completed: out.completed_jobs().count() as u64,
        }
    }
}

/// State shared between a [`ProbeSink`] inside the cluster and the loop
/// that steps the engine from outside.
#[derive(Debug, Default)]
pub struct Probe {
    classes: AtomicU64,
    inner_ns: AtomicU64,
    events: AtomicU64,
    polls: AtomicU64,
    useful_polls: AtomicU64,
    bus_transfers: AtomicU64,
    bus_bytes: AtomicU64,
}

// One thread steps the engine and reads the probe between steps (the
// sharded runner replays events to sinks on its main thread), so every
// access is Relaxed: the counters publish no other data.
fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Probe {
    /// Returns and clears the classes seen and the inner-sink nanoseconds
    /// spent since the last call.
    fn take_step(&self) -> (u64, u64) {
        (
            self.classes.swap(0, Ordering::Relaxed),
            self.inner_ns.swap(0, Ordering::Relaxed),
        )
    }

    /// Events observed.
    pub fn events(&self) -> u64 {
        get(&self.events)
    }

    /// `CoordinatorPolled` events observed.
    pub fn polls(&self) -> u64 {
        get(&self.polls)
    }

    /// Polls that ordered at least one placement or preemption.
    pub fn useful_polls(&self) -> u64 {
        get(&self.useful_polls)
    }

    /// Bus transfers implied by the event stream.
    pub fn bus_transfers(&self) -> u64 {
        get(&self.bus_transfers)
    }

    /// Bus bytes implied by the event stream.
    pub fn bus_bytes(&self) -> u64 {
        get(&self.bus_bytes)
    }
}

/// The benchmark's own observer: notes which classes each event votes
/// for, counts polls and bus traffic from the event stream, and times the
/// `record` calls of the observer sinks it wraps.
#[derive(Debug)]
pub struct ProbeSink {
    probe: Arc<Probe>,
    inner: Vec<Box<dyn TraceSink + Send>>,
    /// Image size per job id, to price placements and periodic
    /// checkpoints, whose events do not carry their size.
    image_bytes: Vec<u64>,
}

impl ProbeSink {
    /// Wraps `inner` (possibly empty) for a run over `specs`.
    pub fn new(
        probe: Arc<Probe>,
        specs: &[JobSpec],
        inner: Vec<Box<dyn TraceSink + Send>>,
    ) -> Self {
        ProbeSink {
            probe,
            inner,
            image_bytes: specs.iter().map(|s| s.image_bytes).collect(),
        }
    }

    fn timed_inner(&mut self, f: impl Fn(&mut Box<dyn TraceSink + Send>)) {
        if self.inner.is_empty() {
            return;
        }
        let t = Instant::now();
        self.inner.iter_mut().for_each(f);
        bump(&self.probe.inner_ns, t.elapsed().as_nanos() as u64);
    }
}

impl TraceSink for ProbeSink {
    fn record(&mut self, ev: &TraceEvent) {
        let p = &self.probe;
        bump(&p.events, 1);
        if let Some(class) = StepClass::of_kind(&ev.kind) {
            p.classes.fetch_or(class.bit(), Ordering::Relaxed);
        }
        match ev.kind {
            TraceKind::CoordinatorPolled {
                placements,
                preemptions,
                ..
            } => {
                bump(&p.polls, 1);
                if placements + preemptions > 0 {
                    bump(&p.useful_polls, 1);
                }
            }
            TraceKind::PlacementStarted { job, .. } | TraceKind::PeriodicCheckpoint { job, .. } => {
                bump(&p.bus_transfers, 1);
                bump(&p.bus_bytes, self.image_bytes[job.0 as usize]);
            }
            TraceKind::CheckpointStarted { bytes, .. } => {
                bump(&p.bus_transfers, 1);
                bump(&p.bus_bytes, bytes);
            }
            _ => {}
        }
        self.timed_inner(|s| s.record(ev));
    }

    fn sample(&mut self, s: &GaugeSample) {
        self.timed_inner(|sink| sink.sample(s));
    }

    fn finish(&mut self, at: SimTime) {
        self.timed_inner(|s| s.finish(at));
    }
}

/// Host time of one traced run split into layers, in nanoseconds. The
/// parts plus [`Attribution::unattributed_ns`] equal `wall_ns` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// From the start of `Cluster::new` to the end of the final
    /// `run_until`.
    pub wall_ns: u64,
    /// `Cluster::new`, sink attachment, `Engine::new` and `Cluster::prime`.
    pub build_ns: u64,
    /// Self time of the stepped events per [`StepClass`] (sink time
    /// excluded).
    pub class_ns: [u64; StepClass::COUNT],
    /// Stepped events per [`StepClass`].
    pub class_steps: [u64; StepClass::COUNT],
    /// Time inside the wrapped observer sinks' calls.
    pub sink_ns: u64,
}

impl Attribution {
    /// Sum of the attributed parts.
    pub fn parts_ns(&self) -> u64 {
        self.build_ns + self.class_ns.iter().sum::<u64>() + self.sink_ns
    }

    /// Traced wall not covered by any part (loop control outside the
    /// timed steps and the closing `run_until`). Negative only if the
    /// clock went backwards.
    pub fn unattributed_ns(&self) -> i64 {
        self.wall_ns as i64 - self.parts_ns() as i64
    }

    /// Whether the parts add up to the wall within
    /// [`UNATTRIBUTED_TOLERANCE`].
    pub fn adds_up(&self) -> bool {
        (self.unattributed_ns().unsigned_abs() as f64)
            <= UNATTRIBUTED_TOLERANCE * self.wall_ns as f64
    }

    /// Adds another run's attribution into this one.
    pub fn add(&mut self, o: &Attribution) {
        self.wall_ns += o.wall_ns;
        self.build_ns += o.build_ns;
        self.sink_ns += o.sink_ns;
        for i in 0..StepClass::COUNT {
            self.class_ns[i] += o.class_ns[i];
            self.class_steps[i] += o.class_steps[i];
        }
    }
}

/// Everything a traced run reports.
#[derive(Debug)]
pub struct Traced {
    /// Host time by layer.
    pub attribution: Attribution,
    /// Counts to compare with an untraced run of the same scenario.
    pub counts: Counts,
    /// The run's aggregate counters.
    pub totals: Totals,
    /// The probe the run's sink fed.
    pub probe: Arc<Probe>,
}

/// Runs a serial (single-pool) scenario by stepping `Engine<Cluster>` from
/// outside: `Cluster::new`, `Cluster::prime`, then `Engine::step` for
/// every event before the horizon, then `run_until(horizon)`. Each step is
/// timed and charged to the [`StepClass`] of the kinds the probe saw
/// during it; time inside `inner` sinks is charged to the sink layer.
pub fn traced_run(
    config: ClusterConfig,
    specs: Vec<JobSpec>,
    horizon: SimDuration,
    inner: Vec<Box<dyn TraceSink + Send>>,
) -> Traced {
    let probe = Arc::new(Probe::default());
    let sink = ProbeSink::new(Arc::clone(&probe), &specs, inner);
    let end = SimTime::ZERO + horizon;
    let mut a = Attribution::default();

    let start = Instant::now();
    let mut cluster = Cluster::new(config, specs);
    cluster.attach_sink(Box::new(sink));
    let mut engine = Engine::new(cluster);
    Cluster::prime(&mut engine);
    probe.take_step();
    let mut last = Instant::now();
    a.build_ns = (last - start).as_nanos() as u64;

    while engine.next_event_time().is_some_and(|t| t < end) {
        engine.step();
        let now = Instant::now();
        let (mask, inner_ns) = probe.take_step();
        let class = StepClass::of_mask(mask).index();
        let step_ns = (now - last).as_nanos() as u64;
        a.class_ns[class] += step_ns.saturating_sub(inner_ns);
        a.class_steps[class] += 1;
        a.sink_ns += inner_ns;
        last = now;
    }
    engine.run_until(end);
    a.wall_ns = start.elapsed().as_nanos() as u64;

    let cluster = engine.model();
    let totals = *cluster.totals();
    let counts = Counts {
        events: engine.events_dispatched(),
        polls: totals.polls,
        poll_memo_hits: totals.poll_memo_hits,
        placements: totals.placements,
        bus_transfers: probe.bus_transfers(),
        bus_bytes: probe.bus_bytes(),
        jobs_completed: cluster
            .jobs()
            .iter()
            .filter(|j| j.state == JobState::Completed)
            .count() as u64,
    };
    Traced {
        attribution: a,
        counts,
        totals,
        probe,
    }
}

//! Streaming telemetry: trace sinks and the O(1)-memory run summary.
//!
//! The legacy [`Trace`] buffers every event and is
//! scanned after the run — fine for a simulated month, infeasible for the
//! horizons the benchmarks target. This module inverts the flow: the
//! cluster pushes each [`TraceEvent`] into any number of [`TraceSink`]s *as
//! it happens*, so observers choose their own memory/accuracy trade-off:
//!
//! * [`StatsSink`] — aggregates into a [`Telemetry`] summary (per-kind
//!   counters, log-bucketed histograms, coarsened gauge series) in O(1)
//!   memory; always attached, so even `record_trace: false` runs report.
//! * [`VecSink`] — buffers everything, like the legacy trace.
//! * [`RingSink`] — keeps only the last *N* events (crash forensics).
//! * [`FanoutSink`] — broadcasts to several sinks.
//! * [`SharedSink`] — a cloneable handle so the caller keeps access to a
//!   sink after handing it to the cluster.
//! * `Trace` itself implements [`TraceSink`], closing the loop.
//!
//! Sinks also receive periodic [`GaugeSample`]s — instantaneous cluster
//! state (bus backlog, free machines, Up-Down index) captured at each
//! coordinator poll, which no discrete event carries.
//!
//! Each sink declares its [`Interest`] — the event kinds it reads and
//! whether it reads samples — and producers skip the calls it does not
//! need; see [`TraceSink::interest`].

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use condor_sim::series::CoarseSeries;
use condor_sim::stats::LogHistogram;
use condor_sim::time::{SimDuration, SimTime};

use crate::job::JobId;
use crate::trace::{Trace, TraceEvent, TraceKind, TraceParseError};

/// Instantaneous cluster state sampled at each coordinator poll.
///
/// Gauges are not discrete events: nothing "happens" when the bus backlog
/// is 3 s, yet the paper's bus-occupancy figures need exactly that signal.
/// The cluster captures one sample per poll cycle and offers it to every
/// sink alongside the event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Queued work on the shared bus ahead of a transfer booked now.
    pub bus_backlog: SimDuration,
    /// Machines currently able to host a foreign job.
    pub free_machines: u32,
    /// Jobs waiting across all station queues.
    pub waiting_jobs: u32,
    /// Mean Up-Down schedule index across stations (`None` under other
    /// allocation policies).
    pub updown_mean_index: Option<f64>,
}

/// Which parts of the stream a sink reads: a set of [`TraceKind`]s and
/// whether it reads [`GaugeSample`]s.
///
/// # Examples
///
/// ```
/// use condor_core::telemetry::Interest;
/// use condor_core::trace::TraceKind;
///
/// let quiet = Interest::ALL.without_kinds(&["chaos_poll_lost"]).without_samples();
/// assert!(!quiet.wants(&TraceKind::ChaosPollLost));
/// assert!(quiet.wants(&TraceKind::ChaosCoordDown));
/// assert!(!quiet.wants_samples());
/// assert_eq!(quiet.union(Interest::ALL), Interest::ALL);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Bit [`TraceKind::index`] set ⇔ the sink reads that kind.
    kinds: u64,
    samples: bool,
}

// One mask bit per kind.
const _: () = assert!(
    TraceKind::COUNT <= u64::BITS as usize,
    "TraceKind::COUNT exceeds the Interest mask width"
);

impl Interest {
    /// Every event kind and every gauge sample — the default.
    pub const ALL: Interest = Interest {
        kinds: u64::MAX >> (u64::BITS as usize - TraceKind::COUNT),
        samples: true,
    };

    /// Nothing at all.
    pub const NONE: Interest = Interest { kinds: 0, samples: false };

    /// Whether the sink reads events of `kind`'s kind.
    #[inline]
    pub fn wants(self, kind: &TraceKind) -> bool {
        self.wants_index(kind.index())
    }

    /// Whether the sink reads events whose [`TraceKind::index`] is `index`.
    #[inline]
    pub fn wants_index(self, index: usize) -> bool {
        self.kinds >> index & 1 == 1
    }

    /// Whether the sink reads gauge samples.
    #[inline]
    pub fn wants_samples(self) -> bool {
        self.samples
    }

    /// The same interest, without gauge samples.
    pub fn without_samples(self) -> Interest {
        Interest { samples: false, ..self }
    }

    /// The same interest, plus the named kinds (snake_case, as in
    /// [`TraceKind::names`]).
    ///
    /// # Panics
    ///
    /// Panics on a name that matches no kind.
    pub fn with_kinds(self, names: &[&str]) -> Interest {
        Interest { kinds: self.kinds | kind_bits(names), ..self }
    }

    /// The same interest, minus the named kinds.
    ///
    /// # Panics
    ///
    /// Panics on a name that matches no kind.
    pub fn without_kinds(self, names: &[&str]) -> Interest {
        Interest { kinds: self.kinds & !kind_bits(names), ..self }
    }

    /// Everything either interest reads.
    pub fn union(self, other: Interest) -> Interest {
        Interest { kinds: self.kinds | other.kinds, samples: self.samples || other.samples }
    }
}

/// Mask bits of the named kinds.
fn kind_bits(names: &[&str]) -> u64 {
    names.iter().fold(0, |bits, name| {
        let i = TraceKind::index_of_name(name)
            .unwrap_or_else(|| panic!("unknown trace kind name {name:?}"));
        bits | 1 << i
    })
}

/// An observer of the cluster's event stream.
///
/// The cluster calls [`record`](TraceSink::record) once per
/// [`TraceEvent`] in simulation order, [`sample`](TraceSink::sample) once
/// per coordinator poll, and [`finish`](TraceSink::finish) exactly once
/// when the run ends — skipping the `record` and `sample` calls the
/// sink's [`interest`](TraceSink::interest) excludes. Implementations
/// must be `Send` so runs stay usable from the parallel replication
/// harness.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Observes one event, in simulation order.
    fn record(&mut self, ev: &TraceEvent);

    /// Observes one periodic gauge sample. Default: ignored — so a sink
    /// that overrides this must also keep samples in its
    /// [`interest`](TraceSink::interest).
    fn sample(&mut self, _s: &GaugeSample) {}

    /// Called once when the run reaches its horizon. Default: no-op.
    fn finish(&mut self, _at: SimTime) {}

    /// The event kinds this sink reads and whether it reads samples.
    /// Producers — the cluster, the sharded runner's replay,
    /// [`SharedSink`], [`KindFilterSink`] — read this once, when the sink
    /// is attached or wrapped, and may skip every call it excludes; so
    /// the answer must not change afterwards, and the sink must reach the
    /// same results whether or not it is also offered what it excludes.
    /// Default: [`Interest::ALL`].
    fn interest(&self) -> Interest {
        Interest::ALL
    }

    /// For pure fan-out containers: surrenders the child sinks so the
    /// cluster can attach them directly, flattening nested fan-outs to one
    /// virtual call per leaf per event. Default: `None` (not a container —
    /// any sink with behavior of its own, filtering included, must keep
    /// the default).
    fn take_children(&mut self) -> Option<Vec<Box<dyn TraceSink + Send>>> {
        None
    }
}

impl TraceSink for Trace {
    fn record(&mut self, ev: &TraceEvent) {
        Trace::record(self, ev.at, ev.kind);
    }
}

/// A sink that buffers every event, like the legacy trace.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, yielding the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// A bounded sink keeping only the most recent events.
///
/// Memory is O(capacity) regardless of run length — attach one to a long
/// run and, when something goes wrong, the tail tells you what led up
/// to it.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    seen: u64,
}

impl RingSink {
    /// Creates a sink retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingSink capacity must be positive");
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            seen: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Consumes the sink, yielding the retained events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into_iter().collect()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever observed (including evicted ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(*ev);
        self.seen += 1;
    }
}

/// Broadcasts every event, sample, and finish to a set of child sinks.
#[derive(Debug, Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn TraceSink + Send>>,
}

impl FanoutSink {
    /// Creates an empty fan-out.
    pub fn new() -> Self {
        FanoutSink::default()
    }

    /// Adds a child sink (builder style).
    pub fn with(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a child sink.
    pub fn push(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.sinks.push(sink);
    }

    /// Number of child sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// `true` when no child sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for FanoutSink {
    fn record(&mut self, ev: &TraceEvent) {
        for s in &mut self.sinks {
            s.record(ev);
        }
    }

    fn sample(&mut self, s: &GaugeSample) {
        for sink in &mut self.sinks {
            sink.sample(s);
        }
    }

    fn finish(&mut self, at: SimTime) {
        for s in &mut self.sinks {
            s.finish(at);
        }
    }

    fn interest(&self) -> Interest {
        self.sinks.iter().fold(Interest::NONE, |acc, s| acc.union(s.interest()))
    }

    fn take_children(&mut self) -> Option<Vec<Box<dyn TraceSink + Send>>> {
        Some(std::mem::take(&mut self.sinks))
    }
}

/// Forwards only events whose [`TraceKind`] is enabled to an inner sink;
/// gauge samples and `finish` always pass through.
///
/// Backs `condor trace --kind a,b`: wrap the printing/exporting sink so a
/// month-scale run streams only the event families of interest. Its
/// [`interest`](TraceSink::interest) is the inner sink's narrowed to the
/// enabled kinds, so an attached filter is never even offered the
/// disabled ones.
///
/// # Examples
///
/// ```
/// use condor_core::telemetry::{KindFilterSink, TraceSink, VecSink};
/// use condor_core::trace::{TraceEvent, TraceKind};
/// use condor_core::job::JobId;
/// use condor_sim::time::SimTime;
///
/// let mut only_arrivals =
///     KindFilterSink::from_names(VecSink::new(), ["job_arrived"]).unwrap();
/// only_arrivals.record(&TraceEvent {
///     at: SimTime::ZERO,
///     kind: TraceKind::JobArrived { job: JobId(0) },
/// });
/// only_arrivals.record(&TraceEvent {
///     at: SimTime::ZERO,
///     kind: TraceKind::JobCompleted { job: JobId(0), on: condor_net::NodeId::new(0) },
/// });
/// assert_eq!(only_arrivals.inner().len(), 1);
/// assert_eq!(only_arrivals.passed(), 1);
/// ```
#[derive(Debug)]
pub struct KindFilterSink<S> {
    mask: [bool; TraceKind::COUNT],
    inner: S,
    passed: u64,
}

impl<S> KindFilterSink<S> {
    /// Wraps `inner` with an explicit per-kind mask (indexed by
    /// [`TraceKind::index`]).
    pub fn new(inner: S, mask: [bool; TraceKind::COUNT]) -> Self {
        KindFilterSink { mask, inner, passed: 0 }
    }

    /// Wraps `inner`, enabling exactly the named kinds (snake_case, as in
    /// [`TraceKind::names`]).
    ///
    /// # Errors
    ///
    /// [`TraceParseError::UnknownKind`] for a name that matches no kind.
    pub fn from_names<'a, I>(inner: S, names: I) -> Result<Self, TraceParseError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut mask = [false; TraceKind::COUNT];
        for name in names {
            let idx = TraceKind::index_of_name(name)
                .ok_or_else(|| TraceParseError::UnknownKind(name.to_string()))?;
            mask[idx] = true;
        }
        Ok(KindFilterSink::new(inner, mask))
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the filter, yielding the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Events forwarded so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }
}

impl<S: TraceSink> TraceSink for KindFilterSink<S> {
    fn record(&mut self, ev: &TraceEvent) {
        if self.mask[ev.kind.index()] {
            self.passed += 1;
            self.inner.record(ev);
        }
    }

    fn sample(&mut self, s: &GaugeSample) {
        self.inner.sample(s);
    }

    fn finish(&mut self, at: SimTime) {
        self.inner.finish(at);
    }

    fn interest(&self) -> Interest {
        let enabled = self
            .mask
            .iter()
            .enumerate()
            .fold(0, |bits, (i, &on)| bits | u64::from(on) << i);
        let inner = self.inner.interest();
        Interest { kinds: inner.kinds & enabled, ..inner }
    }
}

/// One buffered call to a sink: an event or a gauge sample, kept in
/// emission order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Emission {
    Event(TraceEvent),
    Sample(GaugeSample),
}

impl Emission {
    /// When the event happened or the sample was taken.
    pub(crate) fn at(&self) -> SimTime {
        match self {
            Emission::Event(ev) => ev.at,
            Emission::Sample(s) => s.at,
        }
    }

    /// Whether a sink with `interest` reads this call.
    #[inline]
    pub(crate) fn wanted_by(&self, interest: Interest) -> bool {
        match self {
            Emission::Event(ev) => interest.wants(&ev.kind),
            Emission::Sample(_) => interest.wants_samples(),
        }
    }

    /// Delivers this call to `sink`.
    #[inline]
    pub(crate) fn deliver(&self, sink: &mut (impl TraceSink + ?Sized)) {
        match self {
            Emission::Event(ev) => sink.record(ev),
            Emission::Sample(s) => sink.sample(s),
        }
    }
}

/// A cloneable handle to a sink, so the caller keeps access after the
/// cluster takes ownership of a boxed copy.
///
/// Every handle shares one sink behind a mutex. A handle that is fed
/// events (the one handed to the cluster) buffers them, and samples, in
/// order, and delivers each [`BATCH`](SharedSink::BATCH) of them under a
/// single lock; it delivers what remains on [`finish`](TraceSink::finish),
/// when it is dropped, and in [`try_into_inner`](SharedSink::try_into_inner).
/// So another handle's [`with`](SharedSink::with) sees the whole stream
/// once the run has finished or the fed handle is gone. The handle also
/// applies the wrapped sink's [`interest`](TraceSink::interest), read
/// once at [`new`](SharedSink::new): excluded calls are dropped before
/// they reach the buffer.
///
/// # Examples
///
/// ```
/// use condor_core::telemetry::{RingSink, SharedSink, TraceSink};
///
/// let tail = SharedSink::new(RingSink::new(100));
/// let for_cluster: Box<dyn TraceSink + Send> = Box::new(tail.clone());
/// // … run the cluster with `for_cluster` attached …
/// drop(for_cluster);
/// let events = tail.with(|r| r.len());
/// assert_eq!(events, 0);
/// ```
#[derive(Debug)]
pub struct SharedSink<S: TraceSink> {
    inner: Arc<Mutex<S>>,
    interest: Interest,
    /// Calls recorded through this handle, not yet delivered.
    pending: Vec<Emission>,
}

impl<S: TraceSink> Clone for SharedSink<S> {
    /// Another handle to the same sink, with an empty buffer of its own.
    fn clone(&self) -> Self {
        SharedSink {
            inner: Arc::clone(&self.inner),
            interest: self.interest,
            pending: Vec::new(),
        }
    }
}

impl<S: TraceSink> SharedSink<S> {
    /// Calls a handle buffers before delivering them under one lock.
    pub const BATCH: usize = 256;

    /// Wraps a sink in a shared handle.
    pub fn new(sink: S) -> Self {
        SharedSink {
            interest: sink.interest(),
            inner: Arc::new(Mutex::new(sink)),
            pending: Vec::new(),
        }
    }

    /// Runs `f` with exclusive access to the inner sink. Calls still
    /// buffered in *this* handle are not yet delivered (see the type
    /// docs); a handle that is only read from never buffers any.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.inner.lock().expect("sink lock poisoned"))
    }

    /// Delivers this handle's buffered calls and recovers the inner sink.
    /// Returns `None` if other handles are still alive.
    pub fn try_into_inner(self) -> Option<S> {
        let inner = Arc::clone(&self.inner);
        drop(self); // delivers this handle's buffered calls
        Arc::try_unwrap(inner)
            .ok()
            .map(|m| m.into_inner().expect("sink lock poisoned"))
    }

    #[inline]
    fn push(&mut self, e: Emission) {
        self.pending.push(e);
        if self.pending.len() >= Self::BATCH {
            self.flush();
        }
    }

    /// Delivers the buffered calls under one lock.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut sink = self.inner.lock().expect("sink lock poisoned");
        for e in self.pending.drain(..) {
            e.deliver(&mut *sink);
        }
    }
}

impl<S: TraceSink> Drop for SharedSink<S> {
    fn drop(&mut self) {
        // While unwinding, a panic inside the sink would abort.
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    #[inline]
    fn record(&mut self, ev: &TraceEvent) {
        if self.interest.wants(&ev.kind) {
            self.push(Emission::Event(*ev));
        }
    }

    #[inline]
    fn sample(&mut self, s: &GaugeSample) {
        if self.interest.wants_samples() {
            self.push(Emission::Sample(*s));
        }
    }

    fn finish(&mut self, at: SimTime) {
        self.flush();
        self.with(|s| s.finish(at));
    }

    fn interest(&self) -> Interest {
        self.interest
    }
}

/// The O(1)-memory run summary built by [`StatsSink`].
///
/// Counters and histogram/series aggregates are exact where cheap (counts,
/// sums, min/max) and bounded-resolution where exactness would cost
/// unbounded memory (histogram quantiles are log₂-bucketed; gauge series
/// are pair-merge coarsened). Deterministic for a given seed: identical
/// runs produce identical summaries.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Total events observed.
    pub events_total: u64,
    /// Per-kind event counts, indexed by [`TraceKind::index`].
    pub counts: [u64; TraceKind::COUNT],
    /// Time from entering a queue to the subsequent start, in
    /// milliseconds (arrival→start, checkpoint-home→restart, kill→restart).
    pub queue_wait_ms: LogHistogram,
    /// Length of each uninterrupted execution burst, in milliseconds.
    pub remote_burst_ms: LogHistogram,
    /// Checkpoint image sizes put on the wire, in bytes.
    pub checkpoint_bytes: LogHistogram,
    /// Bus backlog (ms of queued transfer work) sampled at each poll.
    pub bus_backlog_ms: CoarseSeries,
    /// Mean Up-Down schedule index sampled at each poll (empty under
    /// non-Up-Down policies).
    pub updown_index: CoarseSeries,
    /// Timestamp of the first event, if any.
    pub first_event: Option<SimTime>,
    /// Timestamp of the last event, if any.
    pub last_event: Option<SimTime>,
    /// The run horizon passed to [`TraceSink::finish`].
    pub finished_at: SimTime,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            events_total: 0,
            counts: [0; TraceKind::COUNT],
            queue_wait_ms: LogHistogram::new(),
            remote_burst_ms: LogHistogram::new(),
            checkpoint_bytes: LogHistogram::new(),
            bus_backlog_ms: CoarseSeries::new(CoarseSeries::DEFAULT_CAPACITY),
            updown_index: CoarseSeries::new(CoarseSeries::DEFAULT_CAPACITY),
            first_event: None,
            last_event: None,
            finished_at: SimTime::ZERO,
        }
    }
}

impl Telemetry {
    /// Count of one event kind.
    pub fn count_of(&self, kind: &TraceKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Per-kind counts as `(name, count)`, nonzero kinds only, in
    /// [`TraceKind::index`] order.
    pub fn nonzero_counts(&self) -> Vec<(&'static str, u64)> {
        TraceKind::names()
            .iter()
            .zip(self.counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&n, &c)| (n, c))
            .collect()
    }

    /// `true` when no events were observed.
    pub fn is_empty(&self) -> bool {
        self.events_total == 0
    }

    /// Merges another summary into this one — counters and histograms add
    /// losslessly, gauge series interleave by time, and the event-span
    /// bounds widen. Used by the sharded runner to combine per-pool
    /// summaries into the fleet-wide one; deterministic in the inputs.
    pub fn merge(&mut self, other: &Telemetry) {
        self.events_total += other.events_total;
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.queue_wait_ms.merge(&other.queue_wait_ms);
        self.remote_burst_ms.merge(&other.remote_burst_ms);
        self.checkpoint_bytes.merge(&other.checkpoint_bytes);
        self.bus_backlog_ms.absorb(&other.bus_backlog_ms);
        self.updown_index.absorb(&other.updown_index);
        self.first_event = match (self.first_event, other.first_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_event = match (self.last_event, other.last_event) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.finished_at = self.finished_at.max(other.finished_at);
    }
}

/// What [`StatsSink::record`] must do with an event's per-job marks,
/// precomputed per [`TraceKind::index`] so the hot path branches off a
/// table lookup instead of re-matching the full kind enum. Most events
/// (owner flips, polls) map to `None` and skip mark handling entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MarkAction {
    /// No per-job bookkeeping.
    None,
    /// Job entered the queue: set the queued mark.
    Queue,
    /// Job started: close the queue wait, set the running mark.
    Start,
    /// Job resumed in place: set the running mark.
    Resume,
    /// Job stopped producing: close the running burst.
    EndBurst,
    /// Checkpoint out: close the burst and record the image size.
    Checkpoint,
    /// Immediate kill: close the burst, job requeues at home.
    Kill,
}

/// Indexed by [`TraceKind::index`]; must stay in sync with it (checked by
/// the `mark_action_table_matches_kinds` test).
static MARK_ACTIONS: [MarkAction; TraceKind::COUNT] = [
    MarkAction::Queue,      // JobArrived
    MarkAction::None,       // JobRejected
    MarkAction::None,       // PlacementStarted
    MarkAction::None,       // PlacementDiskRejected
    MarkAction::Start,      // JobStarted
    MarkAction::EndBurst,   // JobSuspended
    MarkAction::Resume,     // JobResumedInPlace
    MarkAction::Checkpoint, // CheckpointStarted
    MarkAction::Queue,      // CheckpointCompleted (image landed at home)
    MarkAction::Kill,       // JobKilled
    MarkAction::None,       // PeriodicCheckpoint
    MarkAction::EndBurst,   // JobCompleted
    MarkAction::None,       // OwnerActive
    MarkAction::None,       // OwnerIdle
    MarkAction::None,       // StationFailed
    MarkAction::None,       // StationRecovered
    MarkAction::EndBurst,   // CrashRollback
    MarkAction::None,       // ReservationStarted
    MarkAction::None,       // ReservationEnded
    MarkAction::None,       // CoordinatorPolled
    MarkAction::None,       // ChaosPollLost
    MarkAction::None,       // ChaosPollDelayed
    MarkAction::None,       // ChaosDupDropped
    MarkAction::None,       // ChaosCkptCorrupted (retry keeps the job Checkpointing)
    MarkAction::None,       // ChaosLinkDown
    MarkAction::None,       // ChaosLinkUp
    MarkAction::None,       // ChaosCoordDown
    MarkAction::None,       // ChaosCoordUp
    MarkAction::None,       // ChaosLocalStart (the paired JobStarted marks)
    MarkAction::None,       // JobForwarded (stub leaves this pool; wait closes in the adopter)
    MarkAction::Queue,      // JobAdopted (entered a queue in the new pool)
    MarkAction::None,       // JobGranted (annotation; the paired JobStarted marks)
    MarkAction::None,       // ReplicaSpawned (primary's own events mark)
    MarkAction::None,       // ReplicaCancelled (wasted work is accounting, not a wait edge)
];

/// Dense per-job timestamp marks (job ids are the dense sequence `0..n`).
/// Replaces a `HashMap<JobId, SimTime>` on the per-event hot path.
#[derive(Debug, Default)]
struct JobMarks(Vec<Option<SimTime>>);

impl JobMarks {
    #[inline]
    fn insert(&mut self, job: JobId, at: SimTime) {
        let i = job.0 as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(at);
    }

    #[inline]
    fn remove(&mut self, job: JobId) -> Option<SimTime> {
        self.0.get_mut(job.0 as usize).and_then(Option::take)
    }
}

/// Aggregates the event stream into a [`Telemetry`] summary.
///
/// Tracks per-job "queued since" / "running since" marks to turn the event
/// stream into queue-wait and execution-burst samples; everything else is
/// direct counting. Memory is O(max job id + fixed aggregates),
/// independent of run length.
#[derive(Debug, Default)]
pub struct StatsSink {
    telemetry: Telemetry,
    queued_since: JobMarks,
    running_since: JobMarks,
}

impl StatsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// The summary accumulated so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Consumes the sink, yielding the summary.
    pub fn into_telemetry(self) -> Telemetry {
        self.telemetry
    }
}

impl TraceSink for StatsSink {
    fn record(&mut self, ev: &TraceEvent) {
        let t = &mut self.telemetry;
        t.events_total += 1;
        let index = ev.kind.index();
        t.counts[index] += 1;
        if t.first_event.is_none() {
            t.first_event = Some(ev.at);
        }
        t.last_event = Some(ev.at);
        let action = MARK_ACTIONS[index];
        if action == MarkAction::None {
            return; // owner flips and polls — the bulk of the stream
        }
        let Some(job) = ev.kind.job() else { return };
        match action {
            MarkAction::None => unreachable!(),
            MarkAction::Queue => {
                self.queued_since.insert(job, ev.at);
            }
            MarkAction::Start => {
                if let Some(since) = self.queued_since.remove(job) {
                    t.queue_wait_ms.record(ev.at.since(since).as_millis());
                }
                self.running_since.insert(job, ev.at);
            }
            MarkAction::Resume => {
                self.running_since.insert(job, ev.at);
            }
            MarkAction::EndBurst => {
                if let Some(since) = self.running_since.remove(job) {
                    t.remote_burst_ms.record(ev.at.since(since).as_millis());
                }
            }
            MarkAction::Checkpoint => {
                // Under grace-then-checkpoint the job was already suspended
                // (no running mark left); under direct vacate this closes
                // the burst.
                if let Some(since) = self.running_since.remove(job) {
                    t.remote_burst_ms.record(ev.at.since(since).as_millis());
                }
                if let TraceKind::CheckpointStarted { bytes, .. } = ev.kind {
                    t.checkpoint_bytes.record(bytes);
                }
            }
            MarkAction::Kill => {
                if let Some(since) = self.running_since.remove(job) {
                    t.remote_burst_ms.record(ev.at.since(since).as_millis());
                }
                // An immediate-kill requeues the job at home.
                self.queued_since.insert(job, ev.at);
            }
        }
    }

    fn sample(&mut self, s: &GaugeSample) {
        self.telemetry
            .bus_backlog_ms
            .push(s.at, s.bus_backlog.as_millis() as f64);
        if let Some(idx) = s.updown_mean_index {
            self.telemetry.updown_index.push(s.at, idx);
        }
    }

    fn finish(&mut self, at: SimTime) {
        self.telemetry.finished_at = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_net::NodeId;

    fn ev(secs: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_secs(secs), kind }
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let mut s = VecSink::new();
        assert!(s.is_empty());
        s.record(&ev(1, TraceKind::JobArrived { job: JobId(0) }));
        s.record(&ev(2, TraceKind::JobArrived { job: JobId(1) }));
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0].at, SimTime::from_secs(1));
        assert_eq!(s.into_events().len(), 2);
    }

    #[test]
    fn ring_sink_keeps_the_tail() {
        let mut s = RingSink::new(3);
        for i in 0..10 {
            s.record(&ev(i, TraceKind::JobArrived { job: JobId(i) }));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.seen(), 10);
        let tail: Vec<u64> = s
            .events()
            .map(|e| match e.kind {
                TraceKind::JobArrived { job } => job.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tail, vec![7, 8, 9]);
    }

    #[test]
    fn fanout_broadcasts() {
        let a = SharedSink::new(VecSink::new());
        let b = SharedSink::new(RingSink::new(1));
        let mut fan = FanoutSink::new()
            .with(Box::new(a.clone()))
            .with(Box::new(b.clone()));
        assert_eq!(fan.len(), 2);
        fan.record(&ev(1, TraceKind::OwnerIdle { station: NodeId::new(0) }));
        fan.record(&ev(2, TraceKind::OwnerActive { station: NodeId::new(0) }));
        fan.finish(SimTime::from_secs(3));
        assert_eq!(a.with(|s| s.len()), 2);
        assert_eq!(b.with(|s| s.seen()), 2);
    }

    /// Logs every call it receives, events and samples alike, in order.
    #[derive(Debug, Default)]
    struct CallLog {
        calls: Vec<(&'static str, u64)>,
        finished: Option<SimTime>,
    }

    impl TraceSink for CallLog {
        fn record(&mut self, ev: &TraceEvent) {
            self.calls.push(("event", ev.at.as_secs()));
        }

        fn sample(&mut self, s: &GaugeSample) {
            self.calls.push(("sample", s.at.as_secs()));
        }

        fn finish(&mut self, at: SimTime) {
            self.finished = Some(at);
        }
    }

    fn gauge(secs: u64) -> GaugeSample {
        GaugeSample {
            at: SimTime::from_secs(secs),
            bus_backlog: SimDuration::ZERO,
            free_machines: 0,
            waiting_jobs: 0,
            updown_mean_index: None,
        }
    }

    /// Feeds `fed` more than two batches, every third call a sample, and
    /// returns the calls in feeding order.
    fn feed(fed: &mut SharedSink<CallLog>) -> Vec<(&'static str, u64)> {
        let n = 2 * SharedSink::<CallLog>::BATCH as u64 + 7;
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    fed.sample(&gauge(i));
                    ("sample", i)
                } else {
                    fed.record(&ev(i, TraceKind::OwnerIdle { station: NodeId::new(0) }));
                    ("event", i)
                }
            })
            .collect()
    }

    #[test]
    fn shared_sink_delivers_batches_in_order_on_finish() {
        let reader = SharedSink::new(CallLog::default());
        let mut fed = reader.clone();
        let expected = feed(&mut fed);
        // Whole batches are delivered as they fill; the tail waits.
        let batch = SharedSink::<CallLog>::BATCH;
        assert_eq!(reader.with(|l| l.calls.len()), 2 * batch);
        fed.finish(SimTime::from_secs(9_999));
        reader.with(|l| {
            assert_eq!(l.calls, expected);
            assert_eq!(l.finished, Some(SimTime::from_secs(9_999)));
        });
    }

    #[test]
    fn shared_sink_delivers_the_tail_when_dropped_unfinished() {
        let reader = SharedSink::new(CallLog::default());
        let mut fed = reader.clone();
        let expected = feed(&mut fed);
        drop(fed);
        reader.with(|l| {
            assert_eq!(l.calls, expected);
            assert_eq!(l.finished, None);
        });
    }

    #[test]
    fn shared_sink_delivers_the_tail_in_try_into_inner() {
        let reader = SharedSink::new(CallLog::default());
        let mut fed = reader.clone();
        let expected = feed(&mut fed);
        // Still shared, so no sink comes back — but the tail is delivered.
        assert!(fed.try_into_inner().is_none());
        let log = reader.try_into_inner().expect("last handle");
        assert_eq!(log.calls, expected);
    }

    /// A call log that declares it reads arrivals only.
    #[derive(Debug, Default)]
    struct ArrivalsOnly(CallLog);

    impl TraceSink for ArrivalsOnly {
        fn record(&mut self, ev: &TraceEvent) {
            self.0.record(ev);
        }

        fn sample(&mut self, s: &GaugeSample) {
            self.0.sample(s);
        }

        fn interest(&self) -> Interest {
            Interest::NONE.with_kinds(&["job_arrived"])
        }
    }

    #[test]
    fn shared_sink_drops_what_its_sink_does_not_read() {
        let mut shared = SharedSink::new(ArrivalsOnly::default());
        shared.record(&ev(1, TraceKind::JobArrived { job: JobId(0) }));
        shared.record(&ev(2, TraceKind::OwnerIdle { station: NodeId::new(0) }));
        shared.sample(&gauge(3));
        let log = shared.try_into_inner().expect("sole handle");
        assert_eq!(log.0.calls, vec![("event", 1)]);
    }

    /// One exemplar event per kind, in `TraceKind::index` order — the
    /// fixture the table-sync test walks.
    fn one_of_each_kind() -> Vec<TraceKind> {
        let job = JobId(0);
        let n = NodeId::new(1);
        vec![
            TraceKind::JobArrived { job },
            TraceKind::JobRejected { job },
            TraceKind::PlacementStarted { job, target: n },
            TraceKind::PlacementDiskRejected { job, target: n },
            TraceKind::JobStarted { job, on: n },
            TraceKind::JobSuspended { job, on: n },
            TraceKind::JobResumedInPlace { job, on: n },
            TraceKind::CheckpointStarted {
                job,
                from: n,
                reason: crate::job::PreemptReason::OwnerReturned,
                bytes: 1,
            },
            TraceKind::CheckpointCompleted { job, from: n, bytes: 1 },
            TraceKind::JobKilled { job, on: n },
            TraceKind::PeriodicCheckpoint { job, on: n },
            TraceKind::JobCompleted { job, on: n },
            TraceKind::OwnerActive { station: n },
            TraceKind::OwnerIdle { station: n },
            TraceKind::StationFailed { station: n },
            TraceKind::StationRecovered { station: n },
            TraceKind::CrashRollback { job, on: n },
            TraceKind::ReservationStarted { holder: n, machines: 2 },
            TraceKind::ReservationEnded { holder: n },
            TraceKind::CoordinatorPolled {
                free_machines: 1,
                waiting_jobs: 1,
                placements: 1,
                preemptions: 0,
            },
            TraceKind::ChaosPollLost,
            TraceKind::ChaosPollDelayed { delay_ms: 1 },
            TraceKind::ChaosDupDropped,
            TraceKind::ChaosCkptCorrupted { job, from: n, attempt: 1 },
            TraceKind::ChaosLinkDown { station: n },
            TraceKind::ChaosLinkUp { station: n },
            TraceKind::ChaosCoordDown,
            TraceKind::ChaosCoordUp,
            TraceKind::ChaosLocalStart { job, on: n },
            TraceKind::JobForwarded { job, to_pool: 1 },
            TraceKind::JobAdopted { job, on: n },
            TraceKind::JobGranted { job, on: n, cpu_milli: 500, mem_milli: 500, tag_milli: 0 },
            TraceKind::ReplicaSpawned { job, on: n },
            TraceKind::ReplicaCancelled { job, on: n, wasted_ms: 1_000 },
        ]
    }

    /// The promise `MARK_ACTIONS` makes in its doc comment: the table
    /// stays in sync with `TraceKind::index`. Classifies every kind the
    /// slow way (a full match) and checks the table agrees, and that every
    /// kind the table acts on actually carries a job id.
    #[test]
    fn mark_action_table_matches_kinds() {
        let kinds = one_of_each_kind();
        assert_eq!(kinds.len(), TraceKind::COUNT, "fixture covers every kind");
        for (i, kind) in kinds.iter().enumerate() {
            assert_eq!(kind.index(), i, "fixture out of index order at {i}");
            let expected = match kind {
                TraceKind::JobArrived { .. }
                | TraceKind::CheckpointCompleted { .. }
                | TraceKind::JobAdopted { .. } => MarkAction::Queue,
                TraceKind::JobStarted { .. } => MarkAction::Start,
                TraceKind::JobResumedInPlace { .. } => MarkAction::Resume,
                TraceKind::JobSuspended { .. }
                | TraceKind::JobCompleted { .. }
                | TraceKind::CrashRollback { .. } => MarkAction::EndBurst,
                TraceKind::CheckpointStarted { .. } => MarkAction::Checkpoint,
                TraceKind::JobKilled { .. } => MarkAction::Kill,
                _ => MarkAction::None,
            };
            assert_eq!(
                MARK_ACTIONS[kind.index()],
                expected,
                "table disagrees with the reference classification for {kind:?}"
            );
            if expected != MarkAction::None {
                assert!(
                    kind.job().is_some(),
                    "{kind:?} is acted on but carries no job id"
                );
            }
        }
    }

    #[test]
    fn stats_sink_counts_and_waits() {
        let mut s = StatsSink::new();
        let n = NodeId::new(4);
        s.record(&ev(0, TraceKind::JobArrived { job: JobId(0) }));
        s.record(&ev(60, TraceKind::JobStarted { job: JobId(0), on: n }));
        s.record(&ev(600, TraceKind::JobSuspended { job: JobId(0), on: n }));
        s.record(&ev(
            700,
            TraceKind::CheckpointStarted {
                job: JobId(0),
                from: n,
                reason: crate::job::PreemptReason::OwnerReturned,
                bytes: 1_000_000,
            },
        ));
        s.record(&ev(
            800,
            TraceKind::CheckpointCompleted { job: JobId(0), from: n, bytes: 1_000_000 },
        ));
        s.record(&ev(900, TraceKind::JobStarted { job: JobId(0), on: n }));
        s.record(&ev(2_000, TraceKind::JobCompleted { job: JobId(0), on: n }));
        s.finish(SimTime::from_hours(1));

        let t = s.telemetry();
        assert_eq!(t.events_total, 7);
        assert_eq!(t.count_of(&TraceKind::JobArrived { job: JobId(0) }), 1);
        assert_eq!(t.count_of(&TraceKind::JobStarted { job: JobId(0), on: n }), 2);
        // Two queue waits: 60 s after arrival, 100 s after the checkpoint.
        assert_eq!(t.queue_wait_ms.count(), 2);
        assert_eq!(t.queue_wait_ms.min(), Some(60_000));
        assert_eq!(t.queue_wait_ms.max(), Some(100_000));
        // Two bursts: 540 s then 1100 s; the checkpoint after the suspend
        // does not double-count.
        assert_eq!(t.remote_burst_ms.count(), 2);
        assert_eq!(t.checkpoint_bytes.count(), 1);
        assert_eq!(t.checkpoint_bytes.max(), Some(1_000_000));
        assert_eq!(t.finished_at, SimTime::from_hours(1));
        assert_eq!(t.first_event, Some(SimTime::ZERO));
        assert_eq!(t.last_event, Some(SimTime::from_secs(2_000)));
        assert!(!t.is_empty());
        let names: Vec<&str> = t.nonzero_counts().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"job_arrived") && names.contains(&"checkpoint_started"));
    }

    #[test]
    fn stats_sink_gauge_samples() {
        let mut s = StatsSink::new();
        for i in 0..100u64 {
            s.sample(&GaugeSample {
                at: SimTime::from_secs(i * 30),
                bus_backlog: SimDuration::from_millis(i * 10),
                free_machines: 5,
                waiting_jobs: 2,
                updown_mean_index: (i % 2 == 0).then_some(i as f64),
            });
        }
        let t = s.telemetry();
        assert_eq!(t.bus_backlog_ms.samples(), 100);
        assert_eq!(t.updown_index.samples(), 50);
        assert_eq!(t.bus_backlog_ms.max(), Some(990.0));
    }

    #[test]
    fn trace_is_a_sink() {
        let mut trace = Trace::new();
        let sink: &mut (dyn TraceSink + Send) = &mut trace;
        sink.record(&ev(5, TraceKind::JobArrived { job: JobId(9) }));
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].at, SimTime::from_secs(5));
    }
}

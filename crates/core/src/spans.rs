//! Per-job lifecycle spans, folded online from the event stream.
//!
//! The paper's evaluation is entirely about *where a job's time goes*:
//! queue wait at the home station (wait ratio, Fig. 4), remote execution
//! bursts, and checkpoint/transfer leverage (Fig. 9). Counters and
//! histograms answer "how much overall"; this module answers "why did job
//! 17 take 9 hours of wall clock for 2 hours of CPU?" — by folding the
//! [`TraceEvent`] stream into contiguous per-job **spans**, one per
//! lifecycle phase:
//!
//! * [`SpanPhase::Queued`] — waiting at home (arrival→placement,
//!   checkpoint-landed→next placement, dependency holds);
//! * [`SpanPhase::Transfer`] — placement image in flight to the target;
//! * [`SpanPhase::Running`] — executing on a foreign machine;
//! * [`SpanPhase::Suspended`] — stopped in place pending the grace period;
//! * [`SpanPhase::Checkpointing`] — checkpoint image in flight back home.
//!
//! [`SpanSink`] is a [`TraceSink`]: attach it to a run (or replay a saved
//! JSONL trace into it) and it produces a [`SpanLog`] — per-job span lists,
//! a per-station occupancy timeline, and instant markers for preemptions.
//! The folding state is O(active jobs); the log itself grows with the
//! spans it records, like any trace.
//!
//! Spans are **gapless by construction**: every transition closes the
//! current span at the instant the next opens, so a job's phase durations
//! sum exactly to its wall clock (arrival → completion, or → horizon for
//! unfinished jobs). [`SpanLog::breakdown`] exploits that to compute
//! per-job and aggregate where-time-went fractions plus the critical path
//! of the run's makespan.

use std::cell::OnceCell;
use std::collections::BTreeMap;

use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use crate::idhash::IdMap;
use crate::job::JobId;
use crate::telemetry::{Interest, TraceSink};
use crate::trace::{TraceEvent, TraceKind};

/// A lifecycle phase a job passes through, as observable from the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Waiting in the home station's queue (includes dependency holds).
    Queued,
    /// Placement image in flight to the target machine.
    Transfer,
    /// Executing on a foreign machine.
    Running,
    /// Stopped in place by owner activity, pending the grace period.
    Suspended,
    /// Checkpoint image in flight back to the home station.
    Checkpointing,
}

impl SpanPhase {
    /// Number of distinct phases.
    pub const COUNT: usize = 5;

    /// All phases, in [`SpanPhase::index`] order.
    pub const ALL: [SpanPhase; SpanPhase::COUNT] = [
        SpanPhase::Queued,
        SpanPhase::Transfer,
        SpanPhase::Running,
        SpanPhase::Suspended,
        SpanPhase::Checkpointing,
    ];

    /// Dense index of this phase in `0..COUNT`.
    pub fn index(self) -> usize {
        match self {
            SpanPhase::Queued => 0,
            SpanPhase::Transfer => 1,
            SpanPhase::Running => 2,
            SpanPhase::Suspended => 3,
            SpanPhase::Checkpointing => 4,
        }
    }

    /// Stable lowercase name of this phase.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Queued => "queued",
            SpanPhase::Transfer => "transfer",
            SpanPhase::Running => "running",
            SpanPhase::Suspended => "suspended",
            SpanPhase::Checkpointing => "checkpointing",
        }
    }
}

/// One contiguous phase interval in a job's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The phase.
    pub phase: SpanPhase,
    /// When the phase began.
    pub from: SimTime,
    /// When the phase ended (next transition, completion, or horizon).
    pub until: SimTime,
    /// The machine involved: the host for `Transfer`/`Running`/
    /// `Suspended`/`Checkpointing` (the gang lead for parallel programs),
    /// `None` while `Queued` at home.
    pub station: Option<NodeId>,
}

impl Span {
    /// Length of the span.
    pub fn duration(&self) -> SimDuration {
        self.until.since(self.from)
    }
}

/// The complete span history of one job.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobSpans {
    /// When the job entered the system.
    pub arrived: SimTime,
    /// When it delivered all demand, if it did within the horizon.
    pub completed: Option<SimTime>,
    /// Contiguous spans from arrival to completion/horizon, in order.
    pub spans: Vec<Span>,
    /// Total checkpoint-image bytes shipped home on this job's behalf:
    /// the sum of every [`TraceKind::CheckpointCompleted`] event's `bytes`
    /// field (one event per gang member on parallel programs).
    pub transfer_bytes: u64,
}

impl JobSpans {
    /// Wall clock from arrival to completion (or the log's horizon).
    pub fn wall(&self, horizon: SimTime) -> SimDuration {
        self.completed.unwrap_or(horizon).since(self.arrived)
    }

    /// Total time per phase, indexed by [`SpanPhase::index`]. Because
    /// spans are gapless, these sum exactly to [`JobSpans::wall`].
    pub fn phase_totals(&self) -> [SimDuration; SpanPhase::COUNT] {
        let mut totals = [SimDuration::ZERO; SpanPhase::COUNT];
        for s in &self.spans {
            totals[s.phase.index()] += s.duration();
        }
        totals
    }
}

/// One interval during which a station hosted a foreign job (from
/// placement start to the completion/checkpoint/kill/crash that freed it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// The hosted job.
    pub job: JobId,
    /// When the placement transfer began.
    pub from: SimTime,
    /// When the station was freed.
    pub until: SimTime,
    /// Granted CPU in milli-units (1000 = the whole machine). Fractional
    /// grants come from [`TraceKind::JobGranted`], which the cluster emits
    /// just before the placement whenever a job demands less than a whole
    /// machine; whole-machine placements never emit it and stay at 1000.
    pub cpu_milli: u32,
}

/// An instantaneous lifecycle marker (rendered as an instant event in the
/// Perfetto export): preemptions, kills, resumes, crash rollbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanMarker {
    /// When it happened.
    pub at: SimTime,
    /// The job concerned.
    pub job: JobId,
    /// The machine concerned.
    pub station: NodeId,
    /// Stable label: `suspended`, `resumed_in_place`, `killed`,
    /// `checkpoint_out`, `periodic_checkpoint`, `crash_rollback`,
    /// `chaos_ckpt_corrupted`, `chaos_local_start`, `adopted`,
    /// `replica_spawned`, or `replica_cancelled`.
    pub label: &'static str,
}

/// Everything [`SpanSink`] produces: per-job span lists, the per-station
/// occupancy timeline, and instant markers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanLog {
    /// Span history per job, in job-id order.
    pub jobs: BTreeMap<JobId, JobSpans>,
    /// Foreign-occupancy intervals per station, in start order.
    pub stations: BTreeMap<NodeId, Vec<Occupancy>>,
    /// Instant markers in simulation order.
    pub markers: Vec<SpanMarker>,
    /// The horizon open spans were closed at.
    pub finished_at: SimTime,
}

/// Per-job row of a [`Breakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobBreakdown {
    /// The job.
    pub job: JobId,
    /// Wall clock (arrival → completion or horizon).
    pub wall: SimDuration,
    /// Time per phase, indexed by [`SpanPhase::index`]; sums to `wall`.
    pub by_phase: [SimDuration; SpanPhase::COUNT],
    /// Whether the job completed within the horizon.
    pub completed: bool,
}

/// The where-time-went summary derived from a [`SpanLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breakdown {
    /// One row per job, in job-id order.
    pub per_job: Vec<JobBreakdown>,
    /// Sum of all jobs' per-phase time, indexed by [`SpanPhase::index`].
    pub aggregate: [SimDuration; SpanPhase::COUNT],
    /// Sum of all jobs' wall clocks (equals the aggregate's sum).
    pub total_wall: SimDuration,
    /// First arrival → last completion (or the horizon while jobs remain).
    pub makespan: SimDuration,
    /// The job whose completion closes the makespan — with independent
    /// jobs, the critical path of the batch is exactly this job's span
    /// chain. `None` for an empty log.
    pub critical: Option<JobBreakdown>,
}

impl SpanLog {
    /// Computes the where-time-went breakdown.
    pub fn breakdown(&self) -> Breakdown {
        let mut per_job = Vec::with_capacity(self.jobs.len());
        let mut aggregate = [SimDuration::ZERO; SpanPhase::COUNT];
        let mut total_wall = SimDuration::ZERO;
        let mut first_arrival: Option<SimTime> = None;
        let mut makespan_end: Option<SimTime> = None;
        let mut any_unfinished = false;
        for (&job, js) in &self.jobs {
            let by_phase = js.phase_totals();
            let wall = js.wall(self.finished_at);
            for (agg, d) in aggregate.iter_mut().zip(by_phase) {
                *agg += d;
            }
            total_wall += wall;
            first_arrival = Some(first_arrival.map_or(js.arrived, |f| f.min(js.arrived)));
            match js.completed {
                Some(c) => makespan_end = Some(makespan_end.map_or(c, |m| m.max(c))),
                None => any_unfinished = true,
            }
            per_job.push(JobBreakdown { job, wall, by_phase, completed: js.completed.is_some() });
        }
        let end = if any_unfinished {
            self.finished_at
        } else {
            makespan_end.unwrap_or(self.finished_at)
        };
        let makespan = first_arrival.map_or(SimDuration::ZERO, |f| end.saturating_since(f));
        // The critical job: last to complete — or, while jobs are still in
        // flight at the horizon, the unfinished job that arrived first
        // (the longest-open chain).
        let critical = if any_unfinished {
            per_job
                .iter()
                .filter(|b| !b.completed)
                .max_by_key(|b| b.wall)
                .copied()
        } else {
            makespan_end.and_then(|last| {
                self.jobs
                    .iter()
                    .find(|(_, js)| js.completed == Some(last))
                    .and_then(|(&job, _)| per_job.iter().find(|b| b.job == job))
                    .copied()
            })
        };
        Breakdown { per_job, aggregate, total_wall, makespan, critical }
    }
}

/// Folding state for one in-flight job: its open span and the stations it
/// currently holds. This — not the [`SpanLog`] — is what stays O(active
/// jobs).
#[derive(Debug, Clone)]
struct OpenJob {
    phase: SpanPhase,
    since: SimTime,
    station: Option<NodeId>,
    /// Stations this job occupies, with the occupancy start (one for a
    /// plain job, k for a width-k gang).
    holding: Vec<(NodeId, SimTime)>,
    /// Granted CPU milli-fraction, set by `JobGranted` ahead of the
    /// placement it describes; 1000 when no grant event was seen.
    cpu_milli: u32,
}

impl OpenJob {
    /// A job entering a queue at `at`.
    fn queued(at: SimTime) -> Self {
        OpenJob {
            phase: SpanPhase::Queued,
            since: at,
            station: None,
            holding: Vec::new(),
            cpu_milli: 1000,
        }
    }

    /// The open span, closed at `until`.
    fn span_until(&self, until: SimTime) -> Span {
        Span { phase: self.phase, from: self.since, until, station: self.station }
    }
}

/// Everything known about one job: its history so far and, while it is
/// in flight, its open span.
#[derive(Debug, Clone, Default)]
struct JobFold {
    spans: JobSpans,
    open: Option<OpenJob>,
}

/// Occupancy intervals per station, in release order.
type StationLog = IdMap<NodeId, Vec<Occupancy>>;

/// Appends a released occupancy to its station's list.
fn occupied(stations: &mut StationLog, node: NodeId, occ: Occupancy) {
    stations.entry(node).or_default().push(occ);
}

impl JobFold {
    /// Closes the open span at `at` and opens the next phase.
    fn transition(&mut self, at: SimTime, phase: SpanPhase, station: Option<NodeId>) {
        let Some(open) = &mut self.open else { return };
        if open.phase == phase {
            return; // gang members repeat the collective transition
        }
        self.spans.spans.push(open.span_until(at));
        open.phase = phase;
        open.since = at;
        open.station = station;
    }

    /// Closes the open span at `at` and retires it, releasing every held
    /// station. Returns whether the job was open.
    fn close(&mut self, job: JobId, at: SimTime, stations: &mut StationLog) -> bool {
        let Some(open) = self.open.take() else { return false };
        self.spans.spans.push(open.span_until(at));
        for (node, since) in open.holding {
            let occ = Occupancy { job, from: since, until: at, cpu_milli: open.cpu_milli };
            occupied(stations, node, occ);
        }
        true
    }

    /// Releases one station the job holds (checkpoint landed, kill).
    fn release_station(&mut self, job: JobId, node: NodeId, at: SimTime, stations: &mut StationLog) {
        let Some(open) = &mut self.open else { return };
        if let Some(pos) = open.holding.iter().position(|(n, _)| *n == node) {
            let (_, since) = open.holding.swap_remove(pos);
            let occ = Occupancy { job, from: since, until: at, cpu_milli: open.cpu_milli };
            occupied(stations, node, occ);
        }
    }

    /// Releases every station the job holds (crash teardown).
    fn release_all(&mut self, job: JobId, at: SimTime, stations: &mut StationLog) {
        let Some(open) = &mut self.open else { return };
        for (node, since) in std::mem::take(&mut open.holding) {
            let occ = Occupancy { job, from: since, until: at, cpu_milli: open.cpu_milli };
            occupied(stations, node, occ);
        }
    }
}

/// The fold's working tables, keyed by id for one cheap lookup per
/// event; [`Fold::into_log`] turns them into the ordered [`SpanLog`].
#[derive(Debug, Clone, Default)]
struct Fold {
    jobs: IdMap<JobId, JobFold>,
    stations: StationLog,
    markers: Vec<SpanMarker>,
    finished_at: SimTime,
}

impl Fold {
    /// The log, moving every history out of the tables.
    fn into_log(self) -> SpanLog {
        SpanLog {
            jobs: self.jobs.into_iter().map(|(job, f)| (job, f.spans)).collect(),
            stations: self.stations.into_iter().collect(),
            markers: self.markers,
            finished_at: self.finished_at,
        }
    }

    /// The tables of a finished log (no job still open).
    fn from_log(log: SpanLog) -> Self {
        Fold {
            jobs: log
                .jobs
                .into_iter()
                .map(|(job, spans)| (job, JobFold { spans, open: None }))
                .collect(),
            stations: log.stations.into_iter().collect(),
            markers: log.markers,
            finished_at: log.finished_at,
        }
    }
}

/// A [`TraceSink`] that folds the event stream into a [`SpanLog`] online.
///
/// The transition rules mirror the cluster's lifecycle exactly, including
/// the gang-scheduling corners (k placement starts and k checkpoint
/// completions per migration collapse into single `Transfer` /
/// `Checkpointing` spans on the gang lead). Feeding the same events in the
/// same order — live or replayed from a JSONL file — produces an identical
/// log.
///
/// # Examples
///
/// ```
/// use condor_core::spans::{SpanPhase, SpanSink};
/// use condor_core::telemetry::TraceSink;
/// use condor_core::trace::{TraceEvent, TraceKind};
/// use condor_core::job::JobId;
/// use condor_net::NodeId;
/// use condor_sim::time::SimTime;
///
/// let mut sink = SpanSink::new();
/// let job = JobId(0);
/// let on = NodeId::new(3);
/// for (t, kind) in [
///     (0, TraceKind::JobArrived { job }),
///     (60, TraceKind::PlacementStarted { job, target: on }),
///     (65, TraceKind::JobStarted { job, on }),
///     (300, TraceKind::JobCompleted { job, on }),
/// ] {
///     sink.record(&TraceEvent { at: SimTime::from_secs(t), kind });
/// }
/// sink.finish(SimTime::from_secs(400));
/// let log = sink.into_log();
/// let spans = &log.jobs[&job].spans;
/// assert_eq!(spans.len(), 3);
/// assert_eq!(spans[0].phase, SpanPhase::Queued);
/// assert_eq!(spans[2].phase, SpanPhase::Running);
/// ```
#[derive(Debug, Default)]
pub struct SpanSink {
    fold: Fold,
    /// The ordered log: built by `finish` from the moved-out tables
    /// (`sealed`), or copied from them when [`log`](SpanSink::log) is
    /// asked for mid-run.
    log: OnceCell<SpanLog>,
    sealed: bool,
}

impl SpanSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        SpanSink::default()
    }

    /// The log accumulated so far (open spans not yet closed).
    pub fn log(&self) -> &SpanLog {
        self.log.get_or_init(|| self.fold.clone().into_log())
    }

    /// Consumes the sink, yielding the log. Call after
    /// [`finish`](TraceSink::finish) so open spans are closed at the
    /// horizon.
    pub fn into_log(mut self) -> SpanLog {
        match self.log.take() {
            Some(log) if self.sealed => log,
            _ => self.fold.into_log(),
        }
    }

    /// Rebuilds a span log from a recorded event sequence, closing open
    /// spans at `horizon`.
    pub fn fold(events: &[TraceEvent], horizon: SimTime) -> SpanLog {
        let mut sink = SpanSink::new();
        for ev in events {
            sink.record(ev);
        }
        sink.finish(horizon);
        sink.into_log()
    }

    /// Drops a log built before this call, moving a finished one back
    /// into the tables, so the fold can go on.
    fn unseal(&mut self) {
        if let Some(log) = self.log.take() {
            if std::mem::take(&mut self.sealed) {
                self.fold = Fold::from_log(log);
            }
        }
    }
}

fn mark(markers: &mut Vec<SpanMarker>, at: SimTime, job: JobId, station: NodeId, label: &'static str) {
    markers.push(SpanMarker { at, job, station, label });
}

impl TraceSink for SpanSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.unseal();
        let Some(job) = ev.kind.job() else { return };
        let at = ev.at;
        let Fold { jobs, stations, markers, .. } = &mut self.fold;
        match ev.kind {
            TraceKind::JobArrived { .. } => {
                let f = jobs.entry(job).or_default();
                f.spans.arrived = at;
                f.open = Some(OpenJob::queued(at));
                return;
            }
            TraceKind::JobAdopted { on, .. } => {
                // Adoption opens the job's life in the destination pool,
                // exactly like an arrival; the marker records the station
                // whose queue adopted it.
                let f = jobs.entry(job).or_default();
                if f.spans.spans.is_empty() && f.spans.arrived == SimTime::ZERO {
                    f.spans.arrived = at;
                }
                f.open = Some(OpenJob::queued(at));
                mark(markers, at, job, on, "adopted");
                return;
            }
            _ => {}
        }
        // Every other kind concerns a job already seen; markers are kept
        // even for one that is not.
        let f = jobs.get_mut(&job);
        match ev.kind {
            TraceKind::JobGranted { cpu_milli, .. } => {
                // Emitted immediately ahead of the placement it describes;
                // the grant is fixed for the job's stay on that station.
                if let Some(open) = f.and_then(|f| f.open.as_mut()) {
                    open.cpu_milli = cpu_milli;
                }
            }
            TraceKind::PlacementStarted { target, .. } => {
                if let Some(f) = f {
                    f.transition(at, SpanPhase::Transfer, Some(target));
                    if let Some(open) = &mut f.open {
                        open.holding.push((target, at));
                    }
                }
            }
            TraceKind::JobStarted { on, .. } => {
                if let Some(f) = f {
                    f.transition(at, SpanPhase::Running, Some(on));
                }
            }
            TraceKind::JobSuspended { on, .. } => {
                if let Some(f) = f {
                    f.transition(at, SpanPhase::Suspended, Some(on));
                }
                mark(markers, at, job, on, "suspended");
            }
            TraceKind::JobResumedInPlace { on, .. } => {
                // The cluster emits `JobStarted` alongside this marker (in
                // either order, depending on the gang path), so the
                // transition below is usually a no-op for one of the two.
                if let Some(f) = f {
                    f.transition(at, SpanPhase::Running, Some(on));
                }
                mark(markers, at, job, on, "resumed_in_place");
            }
            TraceKind::CheckpointStarted { from, .. } => {
                if let Some(f) = f {
                    f.transition(at, SpanPhase::Checkpointing, Some(from));
                }
                mark(markers, at, job, from, "checkpoint_out");
            }
            TraceKind::CheckpointCompleted { from, bytes, .. } => {
                if let Some(f) = f {
                    f.transition(at, SpanPhase::Queued, None);
                    f.release_station(job, from, at, stations);
                    f.spans.transfer_bytes += bytes;
                }
            }
            TraceKind::JobKilled { on, .. } => {
                if let Some(f) = f {
                    f.transition(at, SpanPhase::Queued, None);
                    f.release_station(job, on, at, stations);
                }
                mark(markers, at, job, on, "killed");
            }
            TraceKind::PeriodicCheckpoint { on, .. } => {
                mark(markers, at, job, on, "periodic_checkpoint");
            }
            TraceKind::CrashRollback { on, .. } => {
                if let Some(f) = f {
                    f.transition(at, SpanPhase::Queued, None);
                    f.release_all(job, at, stations);
                }
                mark(markers, at, job, on, "crash_rollback");
            }
            TraceKind::JobCompleted { .. } => {
                if let Some(f) = f {
                    if f.close(job, at, stations) {
                        f.spans.completed = Some(at);
                    }
                }
            }
            TraceKind::ChaosCkptCorrupted { from, .. } => {
                // The job stays Checkpointing; the marker records the retry.
                mark(markers, at, job, from, "chaos_ckpt_corrupted");
            }
            TraceKind::ChaosLocalStart { on, .. } => {
                // An autonomous start occupies the home station just like a
                // placed image; the paired `JobStarted` does the phase
                // transition.
                if let Some(open) = f.and_then(|f| f.open.as_mut()) {
                    open.holding.push((on, at));
                }
                mark(markers, at, job, on, "chaos_local_start");
            }
            TraceKind::JobForwarded { .. } => {
                // The job leaves this pool mid-queue: end its open span
                // here without marking it completed. Forwarded jobs hold
                // no stations, so there is nothing to release.
                if let Some(f) = f {
                    if let Some(open) = f.open.take() {
                        f.spans.spans.push(open.span_until(at));
                    }
                }
            }
            // Replicas never alter the primary's phase timeline — the job
            // stays Queued (or Running elsewhere) while copies race. The
            // markers record where and when the redundancy budget went.
            TraceKind::ReplicaSpawned { on, .. } => {
                mark(markers, at, job, on, "replica_spawned");
            }
            TraceKind::ReplicaCancelled { on, .. } => {
                mark(markers, at, job, on, "replica_cancelled");
            }
            TraceKind::JobArrived { .. }
            | TraceKind::JobAdopted { .. }
            | TraceKind::JobRejected { .. }
            | TraceKind::PlacementDiskRejected { .. }
            | TraceKind::OwnerActive { .. }
            | TraceKind::OwnerIdle { .. }
            | TraceKind::StationFailed { .. }
            | TraceKind::StationRecovered { .. }
            | TraceKind::ReservationStarted { .. }
            | TraceKind::ReservationEnded { .. }
            | TraceKind::CoordinatorPolled { .. }
            | TraceKind::ChaosPollLost
            | TraceKind::ChaosPollDelayed { .. }
            | TraceKind::ChaosDupDropped
            | TraceKind::ChaosLinkDown { .. }
            | TraceKind::ChaosLinkUp { .. }
            | TraceKind::ChaosCoordDown
            | TraceKind::ChaosCoordUp => {}
        }
    }

    fn finish(&mut self, at: SimTime) {
        self.unseal();
        let fold = &mut self.fold;
        fold.finished_at = at;
        // Close open spans and occupancies at the horizon, in job order so
        // the output is deterministic regardless of hash order.
        let mut pending: Vec<JobId> = fold
            .jobs
            .iter()
            .filter(|(_, f)| f.open.is_some())
            .map(|(&job, _)| job)
            .collect();
        pending.sort_unstable();
        for job in pending {
            let f = fold.jobs.get_mut(&job).expect("key listed");
            f.close(job, at, &mut fold.stations);
        }
        // Occupancy lists fill in release order; present them in start
        // order per station.
        for occ in fold.stations.values_mut() {
            occ.sort_by_key(|o| o.from);
        }
        let log = std::mem::take(fold).into_log();
        self.log = OnceCell::from(log);
        self.sealed = true;
    }

    /// Only the lifecycle kinds that move a span, an occupancy, or a
    /// marker; no gauge samples.
    fn interest(&self) -> Interest {
        Interest::ALL
            .without_kinds(&[
                "job_rejected",
                "placement_disk_rejected",
                "owner_active",
                "owner_idle",
                "station_failed",
                "station_recovered",
                "reservation_started",
                "reservation_ended",
                "coordinator_polled",
                "chaos_poll_lost",
                "chaos_poll_delayed",
                "chaos_dup_dropped",
                "chaos_link_down",
                "chaos_link_up",
                "chaos_coord_down",
                "chaos_coord_up",
            ])
            .without_samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PreemptReason;

    fn ev(secs: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_secs(secs), kind }
    }

    #[test]
    fn single_job_lifecycle_spans_are_gapless() {
        let job = JobId(0);
        let on = NodeId::new(2);
        let events = vec![
            ev(0, TraceKind::JobArrived { job }),
            ev(100, TraceKind::PlacementStarted { job, target: on }),
            ev(110, TraceKind::JobStarted { job, on }),
            ev(500, TraceKind::JobSuspended { job, on }),
            ev(560, TraceKind::JobStarted { job, on }),
            ev(560, TraceKind::JobResumedInPlace { job, on }),
            ev(900, TraceKind::JobSuspended { job, on }),
            ev(1200, TraceKind::CheckpointStarted {
                job,
                from: on,
                reason: PreemptReason::OwnerReturned,
                bytes: 1_000,
            }),
            ev(1300, TraceKind::CheckpointCompleted { job, from: on, bytes: 1_000 }),
            ev(1500, TraceKind::PlacementStarted { job, target: on }),
            ev(1510, TraceKind::JobStarted { job, on }),
            ev(2000, TraceKind::JobCompleted { job, on }),
        ];
        let log = SpanSink::fold(&events, SimTime::from_secs(3000));
        let js = &log.jobs[&job];
        assert_eq!(js.completed, Some(SimTime::from_secs(2000)));
        assert_eq!(js.transfer_bytes, 1_000);
        // Gapless: spans tile [arrival, completion].
        let mut cursor = js.arrived;
        for s in &js.spans {
            assert_eq!(s.from, cursor, "gap before {s:?}");
            cursor = s.until;
        }
        assert_eq!(cursor, SimTime::from_secs(2000));
        // Phase totals sum to wall clock.
        let wall: SimDuration = js.wall(log.finished_at);
        let total: SimDuration = js
            .phase_totals()
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + *d);
        assert_eq!(total, wall);
        // The resume produced one suspended span of 60 s.
        let suspended = js.phase_totals()[SpanPhase::Suspended.index()];
        assert_eq!(suspended, SimDuration::from_secs(60 + 300));
        // Occupancy: two visits to the station.
        assert_eq!(log.stations[&on].len(), 2);
        // Markers recorded in order.
        let labels: Vec<&str> = log.markers.iter().map(|m| m.label).collect();
        assert_eq!(
            labels,
            vec!["suspended", "resumed_in_place", "suspended", "checkpoint_out"]
        );
    }

    #[test]
    fn gang_events_collapse_into_single_spans() {
        let job = JobId(3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let events = vec![
            ev(0, TraceKind::JobArrived { job }),
            ev(10, TraceKind::PlacementStarted { job, target: a }),
            ev(10, TraceKind::PlacementStarted { job, target: b }),
            ev(20, TraceKind::JobStarted { job, on: a }),
            ev(90, TraceKind::CheckpointStarted {
                job,
                from: a,
                reason: PreemptReason::PriorityPreemption,
                bytes: 500,
            }),
            ev(90, TraceKind::CheckpointStarted {
                job,
                from: b,
                reason: PreemptReason::PriorityPreemption,
                bytes: 500,
            }),
            ev(100, TraceKind::CheckpointCompleted { job, from: a, bytes: 500 }),
            ev(120, TraceKind::CheckpointCompleted { job, from: b, bytes: 500 }),
        ];
        let log = SpanSink::fold(&events, SimTime::from_secs(200));
        let js = &log.jobs[&job];
        // One transfer span, one checkpointing span, despite 2 members.
        let phases: Vec<SpanPhase> = js.spans.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                SpanPhase::Queued,
                SpanPhase::Transfer,
                SpanPhase::Running,
                SpanPhase::Checkpointing,
                SpanPhase::Queued, // still open at horizon, closed by finish
            ]
        );
        assert_eq!(js.transfer_bytes, 1_000);
        // Both stations held from placement to their own checkpoint landing.
        assert_eq!(log.stations[&a][0].until, SimTime::from_secs(100));
        assert_eq!(log.stations[&b][0].until, SimTime::from_secs(120));
    }

    #[test]
    fn breakdown_sums_and_critical_path() {
        let (j0, j1) = (JobId(0), JobId(1));
        let on = NodeId::new(1);
        let events = vec![
            ev(0, TraceKind::JobArrived { job: j0 }),
            ev(50, TraceKind::JobArrived { job: j1 }),
            ev(100, TraceKind::PlacementStarted { job: j0, target: on }),
            ev(110, TraceKind::JobStarted { job: j0, on }),
            ev(400, TraceKind::JobCompleted { job: j0, on }),
            ev(500, TraceKind::PlacementStarted { job: j1, target: on }),
            ev(520, TraceKind::JobStarted { job: j1, on }),
            ev(1000, TraceKind::JobCompleted { job: j1, on }),
        ];
        let log = SpanSink::fold(&events, SimTime::from_secs(2000));
        let b = log.breakdown();
        assert_eq!(b.per_job.len(), 2);
        for row in &b.per_job {
            let sum = row
                .by_phase
                .iter()
                .fold(SimDuration::ZERO, |acc, d| acc + *d);
            assert_eq!(sum, row.wall, "phase totals sum to wall for {:?}", row.job);
        }
        // Makespan: first arrival (0) to last completion (1000).
        assert_eq!(b.makespan, SimDuration::from_secs(1000));
        assert_eq!(b.critical.expect("non-empty").job, j1);
        let agg_sum = b
            .aggregate
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + *d);
        assert_eq!(agg_sum, b.total_wall);
    }

    #[test]
    fn crash_rollback_requeues_and_frees_stations() {
        let job = JobId(0);
        let on = NodeId::new(4);
        let events = vec![
            ev(0, TraceKind::JobArrived { job }),
            ev(10, TraceKind::PlacementStarted { job, target: on }),
            ev(20, TraceKind::JobStarted { job, on }),
            ev(300, TraceKind::StationFailed { station: on }),
            ev(300, TraceKind::CrashRollback { job, on }),
        ];
        let log = SpanSink::fold(&events, SimTime::from_secs(500));
        let js = &log.jobs[&job];
        assert_eq!(js.completed, None);
        assert_eq!(js.spans.last().unwrap().phase, SpanPhase::Queued);
        assert_eq!(log.stations[&on][0].until, SimTime::from_secs(300));
        assert_eq!(log.markers.last().unwrap().label, "crash_rollback");
    }
}


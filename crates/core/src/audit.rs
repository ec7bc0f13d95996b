//! Online protocol auditing: a [`TraceSink`] that checks the cluster's
//! observable invariants *as the events stream past*.
//!
//! The invariants are the ones `tests/protocol.rs` replays offline —
//! promoted here into a reusable state machine so they can run against a
//! live simulation (attach an [`AuditSink`] to `run_cluster_with_sinks`)
//! or against a saved JSONL trace (`condor audit --jsonl trace.jsonl`):
//!
//! 1. **Per-job lifecycle legality** — one arrival per job, placements
//!    only after arrival, starts only after placement, a completion is
//!    terminal, and every transition follows the phase machine (including
//!    the gang corners: k same-instant placement starts, k checkpoint
//!    completions, resume markers paired with restarts).
//! 2. **Station capacity conservation** — the demand vectors of a
//!    machine's resident foreign jobs never sum past its capacity in any
//!    dimension (for whole-machine streams this degenerates to the classic
//!    at-most-one-resident exclusivity), and every occupancy is closed by
//!    the job that opened it. Station capacities default to whole machines;
//!    pin a fleet's profile with [`AuditSink::with_capacities`].
//! 3. **Owner alternation** — per-station activity transitions alternate
//!    (never active-while-active or idle-while-idle).
//! 4. **Coordinator cadence** — polls tick at a fixed interval (gaps are
//!    exact positive multiples of it while the coordinator host is down),
//!    and placement starts never bunch tighter than that interval.
//!
//! Violations are *recorded, not panicked*: the auditor keeps streaming so
//! one corruption early in a trace still yields a full report. The first
//! [`AuditSink::MAX_RECORDED`] violations are kept verbatim; beyond that
//! only the count grows. Auditing state is O(active jobs + stations).

use std::collections::hash_map::Entry;
use std::fmt;

use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use crate::idhash::IdMap;
use crate::job::JobId;
use crate::telemetry::{Interest, TraceSink};
use crate::trace::{TraceEvent, TraceKind};

/// Phase a job occupies in the auditor's replica of the lifecycle machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Queued,
    Transfer,
    Running,
    Suspended,
    Checkpointing,
    /// Terminal: completed, or rejected at admission.
    Done,
}

impl JobPhase {
    fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Transfer => "transfer",
            JobPhase::Running => "running",
            JobPhase::Suspended => "suspended",
            JobPhase::Checkpointing => "checkpointing",
            JobPhase::Done => "done",
        }
    }
}

/// Auditor-side record for one job that has entered the system.
#[derive(Debug)]
struct JobAudit {
    phase: JobPhase,
    /// Checkpoint transfers in flight (started, not yet completed).
    ckpt_in_flight: u32,
    /// Instant of the gang fan-out currently in progress, if any: extra
    /// same-instant `PlacementStarted` / `CheckpointStarted` events for
    /// the same job are legal only at exactly this time.
    fanout_at: Option<SimTime>,
    /// Instant of the last `JobStarted`, pairing the two legal
    /// resume-event orders (start-then-marker and marker-then-start).
    started_at: Option<SimTime>,
    /// Instant of the last `JobResumedInPlace`.
    resumed_at: Option<SimTime>,
    /// Instant of the last `ChaosLocalStart` (an autonomous start while
    /// the coordinator is unreachable); the paired same-instant
    /// `JobStarted` is legal straight from `Queued`.
    local_start_at: Option<SimTime>,
    /// Resource demand, set by `JobGranted` ahead of a fractional
    /// placement; whole-machine jobs never emit the grant and stay here.
    demand: ResourceVec,
    /// Every station the job holds (k for gangs, plus live replicas).
    held: Vec<NodeId>,
    /// Stations holding a live speculative replica of the job (see
    /// [`crate::redundancy`]); each must be closed by a
    /// `ReplicaCancelled` or consumed by the job's completion.
    replicas: Vec<NodeId>,
}

impl JobAudit {
    fn new(phase: JobPhase) -> Self {
        JobAudit {
            phase,
            ckpt_in_flight: 0,
            fanout_at: None,
            started_at: None,
            resumed_at: None,
            local_start_at: None,
            demand: ResourceVec::WHOLE,
            held: Vec::new(),
            replicas: Vec::new(),
        }
    }
}

/// One invariant breach, with the instant it was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// When the offending event was recorded (for end-of-run checks, the
    /// finish horizon).
    pub at: SimTime,
    /// What went wrong.
    pub kind: AuditViolationKind,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.at, self.kind)
    }
}

/// The typed invariant breaches [`AuditSink`] can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolationKind {
    /// A job emitted `JobArrived` more than once.
    DuplicateArrival {
        /// The job.
        job: JobId,
    },
    /// A lifecycle event referenced a job that never arrived.
    EventBeforeArrival {
        /// The job.
        job: JobId,
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// A lifecycle event arrived for a job already completed or rejected.
    EventAfterTerminal {
        /// The job.
        job: JobId,
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// An event was illegal in the job's current phase.
    IllegalTransition {
        /// The job.
        job: JobId,
        /// Phase the auditor had the job in.
        phase: &'static str,
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// `CheckpointCompleted` with no matching start in flight.
    UnmatchedCheckpointCompletion {
        /// The job.
        job: JobId,
        /// Claimed source station.
        station: NodeId,
    },
    /// Checkpoint starts outnumber completions at end of run for a job
    /// that is *not* mid-checkpoint (a transfer was silently lost).
    CheckpointImbalance {
        /// The job.
        job: JobId,
        /// Starts minus completions.
        in_flight: u32,
    },
    /// A placement targeted a station already hosting a foreign job.
    ///
    /// Reported for whole-machine placements only: a whole-machine demand
    /// can never legally share, so naming the resident is more useful than
    /// the raw capacity arithmetic. Fractional overcommits report
    /// [`AuditViolationKind::CapacityExceeded`] instead.
    DoubleOccupancy {
        /// The station.
        station: NodeId,
        /// The job already resident.
        resident: JobId,
        /// The job being placed onto it.
        incoming: JobId,
    },
    /// A placement pushed a station's granted capacity past its limit in
    /// some dimension.
    CapacityExceeded {
        /// The station.
        station: NodeId,
        /// Dimension name: `cpu`, `mem`, or `tag`.
        dimension: &'static str,
        /// Milli-units granted in that dimension after the placement.
        granted_milli: u32,
        /// The station's capacity in that dimension, in milli-units.
        capacity_milli: u32,
        /// The job being placed.
        incoming: JobId,
    },
    /// A completion/checkpoint/kill named a station the job did not hold.
    WrongStationRelease {
        /// The station named by the event.
        station: NodeId,
        /// The job.
        job: JobId,
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// An owner went active twice (or idle twice) in a row.
    OwnerTransitionRepeated {
        /// The station.
        station: NodeId,
        /// `true` for double-active, `false` for double-idle.
        active: bool,
    },
    /// A poll gap was not a positive whole multiple of the cadence.
    PollCadenceBroken {
        /// The observed gap.
        gap: SimDuration,
        /// The established cadence.
        cadence: SimDuration,
    },
    /// Two placement fan-outs bunched tighter than the poll cadence.
    PlacementThrottleBroken {
        /// The observed gap.
        gap: SimDuration,
        /// The established cadence.
        cadence: SimDuration,
    },
    /// A chaos recovery event (`chaos_coord_up` / `chaos_link_up`) with
    /// no matching outage or partition in effect.
    UnmatchedChaosRecovery {
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// `ReplicaSpawned` for a station already holding a live replica of
    /// the same job.
    DuplicateReplica {
        /// The job.
        job: JobId,
        /// The station.
        station: NodeId,
    },
    /// `ReplicaCancelled` naming a (job, station) pair with no live
    /// replica there.
    UnmatchedReplicaCancel {
        /// The job.
        job: JobId,
        /// The station.
        station: NodeId,
    },
    /// Replica conservation broken: spawned copies neither cancelled nor
    /// consumed by the job's completion (observed at completion or at the
    /// end of the run).
    ReplicaLeaked {
        /// The job.
        job: JobId,
        /// Live replicas left dangling.
        live: u32,
    },
}

impl fmt::Display for AuditViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AuditViolationKind as K;
        match self {
            K::DuplicateArrival { job } => write!(f, "{job:?} arrived twice"),
            K::EventBeforeArrival { job, event } => {
                write!(f, "{event} for {job:?} before it arrived")
            }
            K::EventAfterTerminal { job, event } => {
                write!(f, "{event} for {job:?} after it completed/was rejected")
            }
            K::IllegalTransition { job, phase, event } => {
                write!(f, "{event} illegal for {job:?} while {phase}")
            }
            K::UnmatchedCheckpointCompletion { job, station } => {
                write!(f, "checkpoint_completed for {job:?} from {station} with none in flight")
            }
            K::CheckpointImbalance { job, in_flight } => {
                write!(f, "{job:?} ended with {in_flight} checkpoint transfer(s) lost")
            }
            K::DoubleOccupancy { station, resident, incoming } => {
                write!(f, "{station} received {incoming:?} while hosting {resident:?}")
            }
            K::CapacityExceeded { station, dimension, granted_milli, capacity_milli, incoming } => {
                write!(
                    f,
                    "{station} {dimension} over capacity: {granted_milli}/{capacity_milli} milli \
                     after placing {incoming:?}"
                )
            }
            K::WrongStationRelease { station, job, event } => {
                write!(f, "{event} for {job:?} names {station}, which it does not hold")
            }
            K::OwnerTransitionRepeated { station, active } => {
                let what = if *active { "active" } else { "idle" };
                write!(f, "{station} owner went {what} twice in a row")
            }
            K::PollCadenceBroken { gap, cadence } => {
                write!(f, "poll gap {gap} is not a whole multiple of cadence {cadence}")
            }
            K::PlacementThrottleBroken { gap, cadence } => {
                write!(f, "placements {gap} apart violate the {cadence} throttle")
            }
            K::UnmatchedChaosRecovery { event } => {
                write!(f, "{event} with no matching chaos fault in effect")
            }
            K::DuplicateReplica { job, station } => {
                write!(f, "{station} spawned a second live replica of {job:?}")
            }
            K::UnmatchedReplicaCancel { job, station } => {
                write!(f, "replica_cancelled for {job:?} on {station} with no live replica there")
            }
            K::ReplicaLeaked { job, live } => {
                write!(f, "{job:?} left {live} replica(s) neither cancelled nor completed")
            }
        }
    }
}

/// Returns whether `gap` is a positive whole multiple of `cadence`.
fn whole_multiple(gap: SimDuration, cadence: SimDuration) -> bool {
    !gap.is_zero() && !cadence.is_zero() && cadence * (gap / cadence) == gap
}

/// A [`TraceSink`] that audits the protocol invariants online.
///
/// # Examples
///
/// ```
/// use condor_core::audit::AuditSink;
/// use condor_core::telemetry::TraceSink;
/// use condor_core::trace::{TraceEvent, TraceKind};
/// use condor_core::job::JobId;
/// use condor_net::NodeId;
/// use condor_sim::time::SimTime;
///
/// let mut audit = AuditSink::new();
/// // A start with no preceding arrival or placement: two violations.
/// audit.record(&TraceEvent {
///     at: SimTime::from_secs(5),
///     kind: TraceKind::JobStarted { job: JobId(9), on: NodeId::new(0) },
/// });
/// audit.finish(SimTime::from_secs(10));
/// assert!(!audit.is_clean());
/// ```
#[derive(Debug, Default)]
pub struct AuditSink {
    jobs: IdMap<JobId, JobAudit>,
    stations: Stations,
    /// Last owner transition per station (`true` = active).
    owner_active: IdMap<NodeId, bool>,
    /// Established poll cadence; inferred from observed gaps unless pinned
    /// via [`AuditSink::with_poll_interval`].
    cadence: Option<SimDuration>,
    cadence_pinned: bool,
    /// Independent coordinators feeding this stream (>1 for merged
    /// sharded-run traces). Zero means one. With several coordinators the
    /// pools tick one shared grid, so same-instant polls and fan-outs are
    /// legal cross-pool ties; only those zero gaps are exempt from the
    /// poll-cadence and placement-throttle checks. Every per-job and
    /// per-station check applies regardless.
    pools: usize,
    last_poll: Option<SimTime>,
    /// Last placement fan-out instant and job (gang members share one).
    last_placement: Option<(SimTime, JobId)>,
    /// Off-grid poll instant announced by `ChaosPollDelayed`: the
    /// same-instant `CoordinatorPolled` (and any placements it fans out)
    /// is exempt from the cadence and throttle checks and does not move
    /// either baseline.
    delayed_poll_at: Option<SimTime>,
    /// Nesting depth of chaos coordinator-outage windows.
    chaos_coord_depth: u32,
    /// Nesting depth of chaos partitions, per cut-off station.
    chaos_link_depth: IdMap<NodeId, u32>,
    /// `ReplicaSpawned` events observed.
    replicas_spawned: u64,
    /// `ReplicaCancelled` events observed.
    replicas_cancelled: u64,
    /// Sum of the `wasted_ms` carried by cancellations.
    replica_wasted_ms: u64,
    events: u64,
    report: Report,
}

/// The violations found so far.
#[derive(Debug, Default)]
struct Report {
    total: u64,
    violations: Vec<AuditViolation>,
}

impl Report {
    fn push(&mut self, at: SimTime, kind: AuditViolationKind) {
        self.total += 1;
        if self.violations.len() < AuditSink::MAX_RECORDED {
            self.violations.push(AuditViolation { at, kind });
        }
    }

    fn illegal(&mut self, at: SimTime, job: JobId, phase: JobPhase, event: &'static str) {
        self.push(at, AuditViolationKind::IllegalTransition { job, phase: phase.name(), event });
    }
}

/// The record of the job a lifecycle event names, or `None` — after
/// reporting it — when the job never arrived or is already terminal (the
/// event is then dropped).
fn live_job<'a>(
    jobs: &'a mut IdMap<JobId, JobAudit>,
    report: &mut Report,
    at: SimTime,
    job: JobId,
    event: &'static str,
) -> Option<&'a mut JobAudit> {
    match jobs.get_mut(&job) {
        None => {
            report.push(at, AuditViolationKind::EventBeforeArrival { job, event });
            None
        }
        Some(a) if a.phase == JobPhase::Done => {
            report.push(at, AuditViolationKind::EventAfterTerminal { job, event });
            None
        }
        Some(a) => Some(a),
    }
}

/// Station-side capacity state.
#[derive(Debug, Default)]
struct Stations {
    /// The foreign jobs each station currently hosts, with their granted
    /// demand vectors (several residents are legal when every dimension
    /// stays within the station's capacity).
    residents: IdMap<NodeId, Vec<(JobId, ResourceVec)>>,
    /// Per-station capacity vectors, indexed by station id; stations past
    /// the end (or an empty vector) default to a whole machine.
    capacities: Vec<ResourceVec>,
}

impl Stations {
    /// The audited capacity of a station (whole machine unless pinned).
    fn capacity_of(&self, station: NodeId) -> ResourceVec {
        self.capacities
            .get(station.as_usize())
            .copied()
            .unwrap_or(ResourceVec::WHOLE)
    }

    /// Admits `job` (record `a`) onto `station`, checking per-dimension
    /// capacity conservation against the residents already there.
    /// Whole-machine demands landing on an occupied station report the
    /// classic `DoubleOccupancy`; fractional overcommits report the
    /// offending dimension.
    fn admit(
        &mut self,
        report: &mut Report,
        a: &mut JobAudit,
        at: SimTime,
        job: JobId,
        station: NodeId,
    ) {
        let demand = a.demand;
        let capacity = self.capacity_of(station);
        let list = self.residents.entry(station).or_default();
        let used = list
            .iter()
            .fold(ResourceVec::ZERO, |acc, &(_, d)| acc.add(d));
        let first_resident = list.first().map(|&(j, _)| j);
        list.push((job, demand));
        a.held.push(station);
        let granted = used.add(demand);
        if granted.fits(capacity) {
            return;
        }
        if let (true, Some(resident)) = (demand.is_whole(), first_resident) {
            report.push(at, AuditViolationKind::DoubleOccupancy { station, resident, incoming: job });
            return;
        }
        let over = [
            ("cpu", granted.cpu_milli, capacity.cpu_milli),
            ("mem", granted.mem_milli, capacity.mem_milli),
            ("tag", granted.tag_milli, capacity.tag_milli),
        ];
        for (dimension, granted_milli, capacity_milli) in over {
            if granted_milli > capacity_milli {
                report.push(
                    at,
                    AuditViolationKind::CapacityExceeded {
                        station,
                        dimension,
                        granted_milli,
                        capacity_milli,
                        incoming: job,
                    },
                );
                return;
            }
        }
    }

    /// Removes `job` from `station`'s residents.
    fn evict(&mut self, job: JobId, station: NodeId) {
        if let Some(list) = self.residents.get_mut(&station) {
            if let Some(p) = list.iter().position(|&(j, _)| j == job) {
                list.swap_remove(p);
            }
        }
    }

    /// Removes one station from the job's holdings, reporting a
    /// wrong-station release if it was not held.
    fn release(
        &mut self,
        report: &mut Report,
        a: &mut JobAudit,
        at: SimTime,
        job: JobId,
        station: NodeId,
        event: &'static str,
    ) {
        if let Some(pos) = a.held.iter().position(|&n| n == station) {
            a.held.swap_remove(pos);
            self.evict(job, station);
        } else {
            report.push(at, AuditViolationKind::WrongStationRelease { station, job, event });
        }
    }

    /// Frees every station the job holds (completion or crash teardown).
    fn release_all(&mut self, a: &mut JobAudit, job: JobId) {
        for station in std::mem::take(&mut a.held) {
            self.evict(job, station);
        }
    }
}

impl AuditSink {
    /// Violations kept verbatim; beyond this only the total count grows.
    pub const MAX_RECORDED: usize = 1024;

    /// Creates an auditor that infers the poll cadence from the trace.
    pub fn new() -> Self {
        AuditSink::default()
    }

    /// Pins the expected coordinator poll cadence instead of inferring it
    /// from the first observed gap.
    pub fn with_poll_interval(mut self, cadence: SimDuration) -> Self {
        self.cadence = Some(cadence);
        self.cadence_pinned = true;
        self
    }

    /// Declares how many independent pool coordinators feed this stream
    /// (the pool count of a sharded run). With more than one, same-instant
    /// polls and placement fan-outs are treated as legal cross-pool ties
    /// on the shared grid; nonzero gaps still get the full poll-cadence
    /// and placement-throttle checks, so a single pool's violations stay
    /// visible even in a merged trace. Job-lifecycle and station-capacity
    /// checks are unaffected.
    pub fn with_pools(mut self, pools: usize) -> Self {
        self.pools = pools;
        self
    }

    /// Pins the fleet's per-station capacity vectors (indexed by station
    /// id). Without this, every station is audited as a whole machine —
    /// matching [`ClusterConfig`](crate::config::ClusterConfig)'s default
    /// capacity profile. Stations past the end of the vector default to
    /// whole machines.
    pub fn with_capacities(mut self, capacities: Vec<ResourceVec>) -> Self {
        self.stations.capacities = capacities;
        self
    }

    /// Events inspected so far.
    pub fn events_seen(&self) -> u64 {
        self.events
    }

    /// Total violations observed (including any beyond the recorded cap).
    pub fn total_violations(&self) -> u64 {
        self.report.total
    }

    /// The recorded violations, in observation order (first
    /// [`AuditSink::MAX_RECORDED`] only).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.report.violations
    }

    /// Whether no invariant was breached.
    pub fn is_clean(&self) -> bool {
        self.report.total == 0
    }

    /// Replica accounting observed so far: `(spawned, cancelled,
    /// wasted_ms)`. With the conservation invariant clean,
    /// `spawned - cancelled` is exactly the number of completions a
    /// replica delivered, and `wasted_ms` sums the work the cancelled
    /// copies threw away.
    pub fn replica_totals(&self) -> (u64, u64, u64) {
        (self.replicas_spawned, self.replicas_cancelled, self.replica_wasted_ms)
    }

    /// Consumes the auditor, yielding the recorded violations.
    pub fn into_violations(self) -> Vec<AuditViolation> {
        self.report.violations
    }

    /// A job's first appearance (arrival, rejection, or per-pool
    /// adoption) in `phase`; a second arrival or rejection is reported.
    fn enter(&mut self, at: SimTime, job: JobId, phase: JobPhase) {
        match self.jobs.entry(job) {
            Entry::Occupied(_) => {
                self.report.push(at, AuditViolationKind::DuplicateArrival { job });
            }
            Entry::Vacant(slot) => {
                slot.insert(JobAudit::new(phase));
            }
        }
    }

    /// The poll-cadence check for a `CoordinatorPolled` at `at`.
    fn check_poll(&mut self, at: SimTime) {
        // A chaos-delayed poll is off the grid by construction; it
        // neither gets the cadence check nor becomes the baseline
        // the next on-grid poll is measured against.
        if self.delayed_poll_at == Some(at) {
            return;
        }
        if let Some(prev) = self.last_poll {
            let gap = at.since(prev);
            // Merged multi-pool streams tick one shared grid:
            // same-instant polls are distinct pools tying, which a
            // single coordinator can never legally produce. Only
            // that zero gap is exempt; nonzero gaps keep the check.
            if self.pools > 1 && gap.is_zero() {
                return;
            }
            match self.cadence {
                None => self.cadence = Some(gap),
                Some(cadence) => {
                    if !whole_multiple(gap, cadence) {
                        // A shorter gap that evenly divides the
                        // inferred cadence means the first gap we
                        // saw spanned coordinator downtime:
                        // re-baseline rather than report.
                        if !self.cadence_pinned && gap < cadence && whole_multiple(cadence, gap) {
                            self.cadence = Some(gap);
                        } else {
                            self.report
                                .push(at, AuditViolationKind::PollCadenceBroken { gap, cadence });
                        }
                    }
                }
            }
        }
        self.last_poll = Some(at);
    }

    /// The checks for an event naming `job`, other than its first
    /// appearance: one table lookup, then the phase machine.
    fn job_event(&mut self, at: SimTime, job: JobId, kind: &TraceKind) {
        let event = kind.name();
        let Some(a) = live_job(&mut self.jobs, &mut self.report, at, job, event) else {
            return;
        };
        let report = &mut self.report;
        let phase = a.phase;
        match *kind {
            TraceKind::JobGranted { cpu_milli, mem_milli, tag_milli, .. } => {
                // Announces the fractional demand of the placement that
                // follows at this same instant; the demand is fixed for
                // the job's life, so it persists across re-placements.
                a.demand = ResourceVec { cpu_milli, mem_milli, tag_milli };
                if phase != JobPhase::Queued {
                    report.illegal(at, job, phase, event);
                }
            }
            TraceKind::PlacementStarted { target, .. } => {
                // Gang fan-out: extra members at the same instant.
                let gang_member = phase == JobPhase::Transfer && a.fanout_at == Some(at);
                match phase {
                    _ if gang_member => {}
                    // Throttle: fan-outs for *different* placements
                    // must sit at least one poll cadence apart. A
                    // fan-out from a chaos-delayed poll is off the grid
                    // by construction and is not remembered, so the next
                    // on-grid fan-out is measured against the previous
                    // on-grid one. In a merged multi-pool stream,
                    // same-instant fan-outs are distinct pools ticking
                    // the shared grid together — only that zero gap is
                    // exempt.
                    JobPhase::Queued if self.delayed_poll_at != Some(at) => {
                        if let (Some((prev, _)), Some(cadence)) = (self.last_placement, self.cadence)
                        {
                            let gap = at.since(prev);
                            let cross_pool_tie = self.pools > 1 && gap.is_zero();
                            if gap < cadence && !cross_pool_tie {
                                report.push(
                                    at,
                                    AuditViolationKind::PlacementThrottleBroken { gap, cadence },
                                );
                            }
                        }
                        self.last_placement = Some((at, job));
                    }
                    JobPhase::Queued => {}
                    // Report, then follow the event anyway so one
                    // corruption does not cascade into noise.
                    phase => report.illegal(at, job, phase, event),
                }
                if !gang_member {
                    a.phase = JobPhase::Transfer;
                    a.fanout_at = Some(at);
                }
                self.stations.admit(report, a, at, job, target);
            }
            TraceKind::PlacementDiskRejected { .. }
            | TraceKind::JobForwarded { .. } => {
                // A forwarded job leaves this pool while still queued; it
                // stays tracked so a merged trace can follow it into
                // adoption.
                if phase != JobPhase::Queued {
                    report.illegal(at, job, phase, event);
                }
            }
            TraceKind::JobStarted { .. } => {
                // Legal from a landed transfer or a suspension; also as
                // the restart notification paired with a same-instant
                // resume marker (the gang event order), or straight
                // from the queue when paired with a same-instant
                // autonomous chaos start.
                let legal = matches!(phase, JobPhase::Transfer | JobPhase::Suspended)
                    || (phase == JobPhase::Running && a.resumed_at == Some(at))
                    || (phase == JobPhase::Queued && a.local_start_at == Some(at));
                a.started_at = Some(at);
                a.phase = JobPhase::Running;
                if !legal {
                    report.illegal(at, job, phase, event);
                }
            }
            TraceKind::JobResumedInPlace { .. } => {
                // Legal from a suspension; also as the marker paired
                // with a same-instant restart (single-job event order).
                let legal = phase == JobPhase::Suspended
                    || (phase == JobPhase::Running && a.started_at == Some(at));
                a.resumed_at = Some(at);
                a.phase = JobPhase::Running;
                if !legal {
                    report.illegal(at, job, phase, event);
                }
            }
            TraceKind::JobSuspended { .. } => {
                a.phase = JobPhase::Suspended;
                // Transfer → Suspended is legal: the owner was already
                // active when the placement image landed.
                if !matches!(phase, JobPhase::Running | JobPhase::Transfer) {
                    report.illegal(at, job, phase, event);
                }
            }
            TraceKind::CheckpointStarted { .. } => {
                a.ckpt_in_flight += 1;
                a.phase = JobPhase::Checkpointing;
                // Gang checkpoint-out repeats at the same instant.
                let gang_member = phase == JobPhase::Checkpointing && a.fanout_at == Some(at);
                if !gang_member {
                    a.fanout_at = Some(at);
                }
                let legal = matches!(phase, JobPhase::Running | JobPhase::Suspended) || gang_member;
                if !legal {
                    report.illegal(at, job, phase, event);
                }
            }
            TraceKind::CheckpointCompleted { from, .. } => {
                if a.ckpt_in_flight == 0 {
                    report.push(
                        at,
                        AuditViolationKind::UnmatchedCheckpointCompletion { job, station: from },
                    );
                } else {
                    a.ckpt_in_flight -= 1;
                    if a.ckpt_in_flight == 0 {
                        a.phase = JobPhase::Queued;
                    }
                }
                self.stations.release(report, a, at, job, from, event);
            }
            TraceKind::JobKilled { on, .. } => {
                a.phase = JobPhase::Queued;
                if !matches!(phase, JobPhase::Transfer | JobPhase::Running | JobPhase::Suspended) {
                    report.illegal(at, job, phase, event);
                }
                self.stations.release(report, a, at, job, on, event);
            }
            TraceKind::PeriodicCheckpoint { .. } => {
                if phase != JobPhase::Running {
                    report.illegal(at, job, phase, event);
                }
            }
            TraceKind::JobCompleted { on, .. } => {
                // A completion delivered by a live replica on `on` is
                // legal from *any* primary phase: the win tears the
                // primary down wherever it was — queued, mid-transfer,
                // suspended, even mid-checkpoint (that transfer will
                // never complete, so its in-flight count is forgiven).
                let replica_win = a.replicas.contains(&on);
                if phase != JobPhase::Running && !replica_win {
                    report.illegal(at, job, phase, event);
                }
                a.phase = JobPhase::Done;
                if replica_win {
                    a.ckpt_in_flight = 0;
                }
                if !a.held.contains(&on) {
                    report.push(
                        at,
                        AuditViolationKind::WrongStationRelease { station: on, job, event },
                    );
                }
                self.stations.release_all(a, job);
                // Completion consumes at most the winning replica;
                // rivals must have been cancelled beforehand.
                let mut rivals = std::mem::take(&mut a.replicas);
                rivals.retain(|&n| n != on);
                if !rivals.is_empty() {
                    report.push(
                        at,
                        AuditViolationKind::ReplicaLeaked { job, live: rivals.len() as u32 },
                    );
                }
            }
            TraceKind::CrashRollback { .. } => {
                a.phase = JobPhase::Queued;
                // The crash tears down any in-flight checkpoint
                // transfer: the completion will never come.
                a.ckpt_in_flight = 0;
                self.stations.release_all(a, job);
            }
            TraceKind::ChaosLocalStart { on, .. } => {
                a.local_start_at = Some(at);
                if phase != JobPhase::Queued {
                    report.illegal(at, job, phase, event);
                }
                self.stations.admit(report, a, at, job, on);
            }
            TraceKind::ChaosCkptCorrupted { .. } => {
                // The retry keeps the transfer in flight: phase and
                // `ckpt_in_flight` are both unchanged.
                if phase != JobPhase::Checkpointing {
                    report.illegal(at, job, phase, event);
                }
            }
            TraceKind::ReplicaSpawned { on, .. } => {
                // Replicas are phase-independent of the primary (they
                // spawn alongside its placement and outlive its evictions)
                // but still occupy real capacity on their station.
                if a.replicas.contains(&on) {
                    report.push(at, AuditViolationKind::DuplicateReplica { job, station: on });
                } else {
                    a.replicas.push(on);
                }
                self.replicas_spawned += 1;
                self.stations.admit(report, a, at, job, on);
            }
            TraceKind::ReplicaCancelled { on, wasted_ms, .. } => {
                match a.replicas.iter().position(|&n| n == on) {
                    Some(p) => {
                        a.replicas.swap_remove(p);
                    }
                    None => report
                        .push(at, AuditViolationKind::UnmatchedReplicaCancel { job, station: on }),
                }
                self.replicas_cancelled += 1;
                self.replica_wasted_ms += wasted_ms;
                self.stations.release(report, a, at, job, on, event);
            }
            _ => unreachable!("`record` routes only lifecycle events here, not {event}"),
        }
    }
}

impl TraceSink for AuditSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events += 1;
        let at = ev.at;
        match ev.kind {
            TraceKind::JobArrived { job } => self.enter(at, job, JobPhase::Queued),
            // Rejection replaces arrival; both for one job is illegal.
            TraceKind::JobRejected { job } => self.enter(at, job, JobPhase::Done),
            TraceKind::JobAdopted { job, on: _ } => {
                // Adoption is the destination-pool arrival of a forwarded
                // job. In a merged trace the job is already tracked (it
                // was forwarded while queued); in a per-pool trace this is
                // its first appearance and plays the role of an arrival.
                match self.jobs.entry(job) {
                    Entry::Occupied(mut slot) => {
                        let phase = slot.get().phase;
                        slot.get_mut().phase = JobPhase::Queued;
                        if phase != JobPhase::Queued {
                            self.report.illegal(at, job, phase, "job_adopted");
                        }
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(JobAudit::new(JobPhase::Queued));
                    }
                }
            }
            TraceKind::OwnerActive { station } => {
                if self.owner_active.insert(station, true) == Some(true) {
                    self.report.push(
                        at,
                        AuditViolationKind::OwnerTransitionRepeated { station, active: true },
                    );
                }
            }
            TraceKind::OwnerIdle { station } => {
                if self.owner_active.insert(station, false) == Some(false) {
                    self.report.push(
                        at,
                        AuditViolationKind::OwnerTransitionRepeated { station, active: false },
                    );
                }
            }
            TraceKind::CoordinatorPolled { .. } => self.check_poll(at),
            TraceKind::ChaosPollDelayed { .. } => {
                self.delayed_poll_at = Some(at);
            }
            TraceKind::ChaosCoordDown => self.chaos_coord_depth += 1,
            TraceKind::ChaosCoordUp => {
                if self.chaos_coord_depth == 0 {
                    self.report.push(
                        at,
                        AuditViolationKind::UnmatchedChaosRecovery { event: "chaos_coord_up" },
                    );
                } else {
                    self.chaos_coord_depth -= 1;
                }
            }
            TraceKind::ChaosLinkDown { station } => {
                *self.chaos_link_depth.entry(station).or_insert(0) += 1;
            }
            TraceKind::ChaosLinkUp { station } => match self.chaos_link_depth.get_mut(&station) {
                Some(depth) if *depth > 0 => *depth -= 1,
                _ => self.report.push(
                    at,
                    AuditViolationKind::UnmatchedChaosRecovery { event: "chaos_link_up" },
                ),
            },
            TraceKind::ChaosPollLost
            | TraceKind::ChaosDupDropped
            | TraceKind::StationFailed { .. }
            | TraceKind::StationRecovered { .. }
            | TraceKind::ReservationStarted { .. }
            | TraceKind::ReservationEnded { .. } => {}
            TraceKind::JobGranted { job, .. }
            | TraceKind::PlacementStarted { job, .. }
            | TraceKind::PlacementDiskRejected { job, .. }
            | TraceKind::JobStarted { job, .. }
            | TraceKind::JobResumedInPlace { job, .. }
            | TraceKind::JobSuspended { job, .. }
            | TraceKind::CheckpointStarted { job, .. }
            | TraceKind::CheckpointCompleted { job, .. }
            | TraceKind::JobKilled { job, .. }
            | TraceKind::PeriodicCheckpoint { job, .. }
            | TraceKind::JobCompleted { job, .. }
            | TraceKind::CrashRollback { job, .. }
            | TraceKind::ChaosLocalStart { job, .. }
            | TraceKind::ChaosCkptCorrupted { job, .. }
            | TraceKind::JobForwarded { job, .. }
            | TraceKind::ReplicaSpawned { job, .. }
            | TraceKind::ReplicaCancelled { job, .. } => self.job_event(at, job, &ev.kind),
        }
    }

    fn finish(&mut self, at: SimTime) {
        // Transfers still in flight at the horizon are legal only while
        // the job is mid-checkpoint; anything else lost a completion.
        let mut imbalanced: Vec<(JobId, u32)> = self
            .jobs
            .iter()
            .filter(|(_, a)| a.ckpt_in_flight > 0 && a.phase != JobPhase::Checkpointing)
            .map(|(&job, a)| (job, a.ckpt_in_flight))
            .collect();
        imbalanced.sort_unstable_by_key(|&(job, _)| job);
        for (job, in_flight) in imbalanced {
            self.report.push(at, AuditViolationKind::CheckpointImbalance { job, in_flight });
        }
        // Replica conservation: every spawned copy must have been
        // cancelled or consumed by its job's completion by the horizon
        // (the simulation cancels survivors in `finalize`).
        let mut leaked: Vec<(JobId, u32)> = self
            .jobs
            .iter()
            .filter(|(_, a)| !a.replicas.is_empty())
            .map(|(&job, a)| (job, a.replicas.len() as u32))
            .collect();
        leaked.sort_unstable_by_key(|&(job, _)| job);
        for (job, live) in leaked {
            self.report.push(at, AuditViolationKind::ReplicaLeaked { job, live });
        }
    }

    /// Every event kind (each counts toward
    /// [`events_seen`](AuditSink::events_seen)), no gauge samples.
    fn interest(&self) -> Interest {
        Interest::ALL.without_samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(secs: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_secs(secs), kind }
    }

    fn audit(events: &[TraceEvent]) -> AuditSink {
        let mut sink = AuditSink::new();
        for e in events {
            sink.record(e);
        }
        sink.finish(events.last().map_or(SimTime::ZERO, |e| e.at));
        sink
    }

    #[test]
    fn clean_lifecycle_passes() {
        let job = JobId(0);
        let on = NodeId::new(1);
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job }),
            ev(120, TraceKind::PlacementStarted { job, target: on }),
            ev(130, TraceKind::JobStarted { job, on }),
            ev(400, TraceKind::JobCompleted { job, on }),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
        assert_eq!(sink.events_seen(), 4);
    }

    #[test]
    fn start_before_placement_is_flagged() {
        let job = JobId(0);
        let on = NodeId::new(1);
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job }),
            ev(10, TraceKind::JobStarted { job, on }),
        ]);
        assert_eq!(sink.total_violations(), 1);
        assert!(matches!(
            sink.violations()[0].kind,
            AuditViolationKind::IllegalTransition { event: "job_started", .. }
        ));
    }

    #[test]
    fn double_occupancy_is_flagged() {
        let (j0, j1) = (JobId(0), JobId(1));
        let on = NodeId::new(2);
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job: j0 }),
            ev(0, TraceKind::JobArrived { job: j1 }),
            ev(120, TraceKind::PlacementStarted { job: j0, target: on }),
            ev(240, TraceKind::PlacementStarted { job: j1, target: on }),
        ]);
        assert!(sink
            .violations()
            .iter()
            .any(|v| matches!(v.kind, AuditViolationKind::DoubleOccupancy { .. })));
    }

    #[test]
    fn events_after_completion_are_flagged() {
        let job = JobId(0);
        let on = NodeId::new(0);
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job }),
            ev(120, TraceKind::PlacementStarted { job, target: on }),
            ev(121, TraceKind::JobStarted { job, on }),
            ev(200, TraceKind::JobCompleted { job, on }),
            ev(201, TraceKind::JobSuspended { job, on }),
        ]);
        assert!(sink.violations().iter().any(|v| matches!(
            v.kind,
            AuditViolationKind::EventAfterTerminal { event: "job_suspended", .. }
        )));
    }

    #[test]
    fn lost_checkpoint_transfer_is_flagged_at_finish() {
        let job = JobId(0);
        let on = NodeId::new(0);
        let mut sink = AuditSink::new();
        for e in [
            ev(0, TraceKind::JobArrived { job }),
            ev(120, TraceKind::PlacementStarted { job, target: on }),
            ev(121, TraceKind::JobStarted { job, on }),
            ev(300, TraceKind::CheckpointStarted {
                job,
                from: on,
                reason: crate::job::PreemptReason::OwnerReturned,
                bytes: 10,
            }),
            // Completion never arrives, and the job (illegally) restarts.
            ev(400, TraceKind::JobStarted { job, on }),
        ] {
            sink.record(&e);
        }
        sink.finish(SimTime::from_secs(1000));
        assert!(sink.violations().iter().any(|v| matches!(
            v.kind,
            AuditViolationKind::CheckpointImbalance { in_flight: 1, .. }
        )));
        // In-flight at the horizon while still checkpointing is fine:
        let mut ok = AuditSink::new();
        for e in [
            ev(0, TraceKind::JobArrived { job }),
            ev(120, TraceKind::PlacementStarted { job, target: on }),
            ev(121, TraceKind::JobStarted { job, on }),
            ev(300, TraceKind::CheckpointStarted {
                job,
                from: on,
                reason: crate::job::PreemptReason::OwnerReturned,
                bytes: 10,
            }),
        ] {
            ok.record(&e);
        }
        ok.finish(SimTime::from_secs(1000));
        assert!(ok.is_clean(), "{:?}", ok.violations());
    }

    #[test]
    fn owner_double_active_is_flagged() {
        let station = NodeId::new(3);
        let sink = audit(&[
            ev(10, TraceKind::OwnerActive { station }),
            ev(20, TraceKind::OwnerActive { station }),
        ]);
        assert_eq!(sink.total_violations(), 1);
    }

    #[test]
    fn poll_cadence_allows_downtime_multiples_only() {
        let polled = TraceKind::CoordinatorPolled {
            free_machines: 0,
            waiting_jobs: 0,
            placements: 0,
            preemptions: 0,
        };
        // 120 s cadence with one 360 s downtime gap: clean.
        let sink = audit(&[
            ev(120, polled),
            ev(240, polled),
            ev(600, polled),
            ev(720, polled),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
        // An off-cadence poll: flagged.
        let sink = audit(&[
            ev(120, polled),
            ev(240, polled),
            ev(330, polled),
        ]);
        assert!(matches!(
            sink.violations()[0].kind,
            AuditViolationKind::PollCadenceBroken { .. }
        ));
        // First observed gap spans downtime; later true-cadence gaps
        // re-baseline instead of reporting.
        let sink = audit(&[
            ev(120, polled),
            ev(480, polled), // 360 s (down for two cycles)
            ev(600, polled), // 120 s — re-baseline
            ev(720, polled),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
    }

    #[test]
    fn placement_throttle_uses_inferred_cadence() {
        let polled = TraceKind::CoordinatorPolled {
            free_machines: 1,
            waiting_jobs: 1,
            placements: 1,
            preemptions: 0,
        };
        let (j0, j1) = (JobId(0), JobId(1));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job: j0 }),
            ev(0, TraceKind::JobArrived { job: j1 }),
            ev(120, polled),
            ev(240, polled),
            ev(240, TraceKind::PlacementStarted { job: j0, target: a }),
            // 30 s later: tighter than the 120 s cadence.
            ev(270, TraceKind::PlacementStarted { job: j1, target: b }),
        ]);
        assert!(sink.violations().iter().any(|v| matches!(
            v.kind,
            AuditViolationKind::PlacementThrottleBroken { .. }
        )));
    }

    #[test]
    fn chaos_local_start_pairs_with_job_started() {
        let job = JobId(0);
        let on = NodeId::new(4);
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job }),
            ev(60, TraceKind::ChaosCoordDown),
            ev(90, TraceKind::ChaosLocalStart { job, on }),
            ev(90, TraceKind::JobStarted { job, on }),
            ev(200, TraceKind::ChaosCoordUp),
            ev(400, TraceKind::JobCompleted { job, on }),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
        // Without the paired marker, Queued → Running stays illegal.
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job }),
            ev(90, TraceKind::JobStarted { job, on }),
        ]);
        assert!(!sink.is_clean());
    }

    #[test]
    fn chaos_recovery_without_fault_is_flagged() {
        let sink = audit(&[ev(10, TraceKind::ChaosCoordUp)]);
        assert!(matches!(
            sink.violations()[0].kind,
            AuditViolationKind::UnmatchedChaosRecovery { event: "chaos_coord_up" }
        ));
        let sink = audit(&[ev(10, TraceKind::ChaosLinkUp { station: NodeId::new(2) })]);
        assert!(matches!(
            sink.violations()[0].kind,
            AuditViolationKind::UnmatchedChaosRecovery { event: "chaos_link_up" }
        ));
        // Matched pairs are clean, including nested partitions.
        let s = NodeId::new(2);
        let sink = audit(&[
            ev(10, TraceKind::ChaosLinkDown { station: s }),
            ev(15, TraceKind::ChaosLinkDown { station: s }),
            ev(20, TraceKind::ChaosLinkUp { station: s }),
            ev(25, TraceKind::ChaosLinkUp { station: s }),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
    }

    #[test]
    fn chaos_delayed_poll_is_cadence_exempt() {
        let polled = TraceKind::CoordinatorPolled {
            free_machines: 0,
            waiting_jobs: 0,
            placements: 0,
            preemptions: 0,
        };
        // An off-grid poll at 270 s is announced by the delay marker and
        // does not break the 120 s cadence or re-baseline it.
        let sink = audit(&[
            ev(120, polled),
            ev(240, polled),
            ev(270, TraceKind::ChaosPollDelayed { delay_ms: 30_000 }),
            ev(270, polled),
            ev(360, polled),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
        // The same off-grid poll without the marker is flagged (cadence
        // pinned: an inferring auditor would re-baseline to the divisor).
        let mut sink = AuditSink::new().with_poll_interval(SimDuration::from_secs(120));
        for e in [ev(120, polled), ev(240, polled), ev(270, polled)] {
            sink.record(&e);
        }
        sink.finish(SimTime::from_secs(270));
        assert!(!sink.is_clean());
    }

    #[test]
    fn chaos_ckpt_corrupted_requires_checkpointing_phase() {
        let job = JobId(0);
        let on = NodeId::new(0);
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job }),
            ev(120, TraceKind::PlacementStarted { job, target: on }),
            ev(121, TraceKind::JobStarted { job, on }),
            ev(300, TraceKind::CheckpointStarted {
                job,
                from: on,
                reason: crate::job::PreemptReason::OwnerReturned,
                bytes: 10,
            }),
            ev(310, TraceKind::ChaosCkptCorrupted { job, from: on, attempt: 1 }),
            ev(340, TraceKind::CheckpointCompleted { job, from: on, bytes: 10 }),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
        // Corruption outside a checkpoint is illegal.
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job }),
            ev(120, TraceKind::PlacementStarted { job, target: on }),
            ev(121, TraceKind::JobStarted { job, on }),
            ev(130, TraceKind::ChaosCkptCorrupted { job, from: on, attempt: 1 }),
        ]);
        assert!(matches!(
            sink.violations()[0].kind,
            AuditViolationKind::IllegalTransition { event: "chaos_ckpt_corrupted", .. }
        ));
    }

    #[test]
    fn gang_fanout_at_same_instant_is_legal() {
        let job = JobId(0);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job }),
            ev(120, TraceKind::PlacementStarted { job, target: a }),
            ev(120, TraceKind::PlacementStarted { job, target: b }),
            ev(130, TraceKind::JobStarted { job, on: a }),
            ev(300, TraceKind::CheckpointStarted {
                job,
                from: a,
                reason: crate::job::PreemptReason::PriorityPreemption,
                bytes: 5,
            }),
            ev(300, TraceKind::CheckpointStarted {
                job,
                from: b,
                reason: crate::job::PreemptReason::PriorityPreemption,
                bytes: 5,
            }),
            ev(310, TraceKind::CheckpointCompleted { job, from: a, bytes: 5 }),
            ev(330, TraceKind::CheckpointCompleted { job, from: b, bytes: 5 }),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
    }

    fn poll(free: u32) -> TraceKind {
        TraceKind::CoordinatorPolled {
            free_machines: free,
            waiting_jobs: 0,
            placements: 0,
            preemptions: 0,
        }
    }

    /// Regression: `with_pools` used to skip the cadence checks wholesale.
    /// The skip is scoped to cross-pool *ties* (zero gaps); a merged
    /// stream whose polls come from a single pool still has its nonzero
    /// gaps held to the established cadence.
    #[test]
    fn single_pool_stream_through_with_pools_still_enforces_cadence() {
        let mut sink = AuditSink::new()
            .with_pools(2)
            .with_poll_interval(SimDuration::from_secs(120));
        for e in [
            ev(120, poll(3)),
            ev(240, poll(3)),
            ev(330, poll(3)), // 90 s gap: off-cadence, must be flagged
        ] {
            sink.record(&e);
        }
        sink.finish(SimTime::from_secs(400));
        assert!(sink.violations().iter().any(|v| matches!(
            v.kind,
            AuditViolationKind::PollCadenceBroken { .. }
        )));
    }

    /// Same-instant polls from sibling pools share one grid tick; the
    /// zero gaps between them are exempt, and the nonzero gaps between
    /// ticks still audit clean when they match the cadence.
    #[test]
    fn cross_pool_poll_ties_are_exempt_from_cadence() {
        let mut sink = AuditSink::new()
            .with_pools(2)
            .with_poll_interval(SimDuration::from_secs(120));
        for e in [
            ev(120, poll(2)),
            ev(120, poll(4)),
            ev(240, poll(2)),
            ev(240, poll(4)),
        ] {
            sink.record(&e);
        }
        sink.finish(SimTime::from_secs(300));
        assert!(sink.is_clean(), "{:?}", sink.violations());
    }

    /// Two half-CPU residents share one station: within capacity on every
    /// dimension, so the capacity-conservation invariant holds.
    #[test]
    fn fractional_co_residency_within_capacity_is_clean() {
        let (j0, j1) = (JobId(0), JobId(1));
        let on = NodeId::new(2);
        let grant = |job| TraceKind::JobGranted { job, on, cpu_milli: 500, mem_milli: 400, tag_milli: 0 };
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job: j0 }),
            ev(0, TraceKind::JobArrived { job: j1 }),
            ev(120, grant(j0)),
            ev(120, TraceKind::PlacementStarted { job: j0, target: on }),
            ev(240, grant(j1)),
            ev(240, TraceKind::PlacementStarted { job: j1, target: on }),
            ev(250, TraceKind::JobStarted { job: j0, on }),
            ev(260, TraceKind::JobStarted { job: j1, on }),
            ev(900, TraceKind::JobCompleted { job: j0, on }),
            ev(950, TraceKind::JobCompleted { job: j1, on }),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
    }

    /// A second resident whose demand overflows the CPU dimension trips
    /// `CapacityExceeded` naming the offending dimension.
    #[test]
    fn capacity_overcommit_is_flagged_per_dimension() {
        let (j0, j1) = (JobId(0), JobId(1));
        let on = NodeId::new(0);
        let grant = |job| TraceKind::JobGranted { job, on, cpu_milli: 600, mem_milli: 100, tag_milli: 0 };
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job: j0 }),
            ev(0, TraceKind::JobArrived { job: j1 }),
            ev(120, grant(j0)),
            ev(120, TraceKind::PlacementStarted { job: j0, target: on }),
            ev(240, grant(j1)),
            ev(240, TraceKind::PlacementStarted { job: j1, target: on }),
        ]);
        assert!(sink.violations().iter().any(|v| matches!(
            v.kind,
            AuditViolationKind::CapacityExceeded { dimension: "cpu", granted_milli: 1200, capacity_milli: 1000, .. }
        )), "{:?}", sink.violations());
    }

    /// Freed capacity is reusable: once the first resident completes, a
    /// demand that would have overflowed alongside it fits cleanly.
    #[test]
    fn released_capacity_admits_new_residents() {
        let (j0, j1) = (JobId(0), JobId(1));
        let on = NodeId::new(0);
        let grant = |job| TraceKind::JobGranted { job, on, cpu_milli: 700, mem_milli: 700, tag_milli: 0 };
        let sink = audit(&[
            ev(0, TraceKind::JobArrived { job: j0 }),
            ev(0, TraceKind::JobArrived { job: j1 }),
            ev(120, grant(j0)),
            ev(120, TraceKind::PlacementStarted { job: j0, target: on }),
            ev(130, TraceKind::JobStarted { job: j0, on }),
            ev(300, TraceKind::JobCompleted { job: j0, on }),
            ev(360, grant(j1)),
            ev(360, TraceKind::PlacementStarted { job: j1, target: on }),
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
    }

    /// `with_capacities` audits against per-station capacity vectors, so
    /// a grant that fits the default whole machine can still overflow a
    /// smaller station.
    #[test]
    fn with_capacities_enforces_per_station_limits() {
        let job = JobId(0);
        let on = NodeId::new(1);
        let mut sink = AuditSink::new()
            .with_capacities(vec![ResourceVec::WHOLE, ResourceVec::new(400, 1000)]);
        for e in [
            ev(0, TraceKind::JobArrived { job }),
            ev(120, TraceKind::JobGranted { job, on, cpu_milli: 500, mem_milli: 200, tag_milli: 0 }),
            ev(120, TraceKind::PlacementStarted { job, target: on }),
        ] {
            sink.record(&e);
        }
        sink.finish(SimTime::from_secs(200));
        assert!(sink.violations().iter().any(|v| matches!(
            v.kind,
            AuditViolationKind::CapacityExceeded { dimension: "cpu", granted_milli: 500, capacity_milli: 400, .. }
        )), "{:?}", sink.violations());
    }
}

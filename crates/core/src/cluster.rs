//! The complete Condor cluster simulation.
//!
//! [`Cluster`] is a [`condor_sim::engine::Model`] binding together all the
//! moving parts of the paper's system:
//!
//! * per-station **owner processes** (condor-model) deciding when machines
//!   are usable;
//! * per-station **local schedulers**: a background queue, owner-activity
//!   detection on the 30-second grid, the 5-minute eviction grace period,
//!   and checkpoint logistics;
//! * the **central coordinator**: a 2-minute poll loop feeding an
//!   [`AllocationPolicy`] (Up-Down in production) and executing its
//!   placement/preemption orders — at most one placement per poll, per the
//!   paper's §4 throttle;
//! * the **shared network** (condor-net) serialising image transfers;
//! * the **shadow cost ledgers**: every placement, checkpoint, and remote
//!   system call charges the home workstation, feeding the leverage
//!   numbers of Fig. 9.
//!
//! Use [`run_cluster`] for the common case: build, run to a horizon, and
//! collect a [`RunOutput`].

use std::collections::BTreeMap;

use condor_model::owner::{build_fleet, OwnerState};
use condor_model::station::ResourceVec;
use condor_net::{NodeId, SharedBus};
use condor_sim::engine::{Engine, Model, Scheduler};
use condor_sim::event::EventToken;
use condor_sim::series::{BucketAccumulator, StepSeries};
use condor_sim::time::{SimDuration, SimTime};

use crate::bits::Bits;
use crate::chaos::{ChaosConfig, Fault};
use crate::config::{ClusterConfig, ConfigError, EvictionStrategy, PolicyKind};
use crate::job::{Job, JobId, JobSpec, JobState, PreemptReason, UserId};
use crate::policy::{
    AllocationPolicy, CapacityIndex, FifoPolicy, FracPolicy, Order, PollInput, RandomPolicy,
    RedundantPolicy, RoundRobinPolicy, StationView,
};
use crate::queue::BackgroundQueue;
use crate::redundancy::CkptTiming;
use crate::telemetry::{GaugeSample, Interest, StatsSink, Telemetry, TraceSink};
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::updown::UpDown;

/// Events driving the cluster simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A job reaches its home station's queue.
    Arrival(JobId),
    /// A station's owner switches between active and idle.
    OwnerFlip {
        /// Station index.
        station: u32,
    },
    /// The local scheduler's 30-second-grid check fires.
    DetectOwner {
        /// Station index.
        station: u32,
    },
    /// The coordinator's poll cycle.
    Poll,
    /// A placement image transfer finished.
    PlacementDone {
        /// The job placed.
        job: JobId,
        /// Destination station.
        target: u32,
        /// The transfer sequence this completion belongs to; completions of
        /// transfers that died with a crashed station are stale and dropped.
        seq: u32,
    },
    /// A checkpoint transfer back home finished.
    CheckpointDone {
        /// The job moved.
        job: JobId,
        /// Station vacated.
        from: u32,
        /// Transfer sequence (see [`Event::PlacementDone::seq`]).
        seq: u32,
    },
    /// A running job delivered all its demand.
    Finish {
        /// The job.
        job: JobId,
        /// Hosting station.
        on: u32,
    },
    /// The eviction grace period expired with the owner still around.
    GraceOver {
        /// Station index.
        station: u32,
        /// The suspended job.
        job: JobId,
    },
    /// Periodic while-running checkpoint (immediate-kill strategy).
    PeriodicCkpt {
        /// The job.
        job: JobId,
        /// Hosting station.
        on: u32,
        /// Run epoch the checkpoint belongs to (stale epochs are ignored).
        epoch: u32,
    },
    /// A reservation window opens.
    ReservationStart {
        /// Index into the config's reservation list.
        idx: u32,
    },
    /// A reservation window closes.
    ReservationEnd {
        /// Index into the config's reservation list.
        idx: u32,
    },
    /// A workstation crashes (failure injection).
    StationCrash {
        /// Station index.
        station: u32,
    },
    /// A crashed workstation comes back online.
    StationRecover {
        /// Station index.
        station: u32,
    },
    /// A scheduled chaos fault fires.
    ChaosFault {
        /// Index into [`crate::chaos::ChaosSchedule::entries`].
        idx: u32,
    },
    /// A windowed chaos fault's window closes.
    ChaosHeal {
        /// Index of the schedule entry whose window ends.
        idx: u32,
    },
    /// The body of a poll postponed by [`Fault::CtrlDelay`].
    ChaosDelayedPoll {
        /// How late the body runs, for the trace announcement.
        delay_ms: u64,
    },
    /// Periodic local-scheduler pass starting queued jobs autonomously
    /// while the coordinator is unreachable (outage or partition).
    ChaosAutonomySweep,
    /// Re-send of a corrupted checkpoint transfer after backoff.
    ChaosCkptRetry {
        /// The job mid-checkpoint.
        job: JobId,
        /// Station the image leaves.
        from: u32,
        /// Transfer sequence (stale retries are dropped).
        seq: u32,
    },
    /// A speculative replica's image transfer finished (see
    /// [`crate::redundancy`]). Cancellation is by [`EventToken`], so no
    /// staleness sequence is needed.
    ReplicaPlaced {
        /// The replicated job.
        job: JobId,
        /// Destination station.
        target: u32,
    },
    /// A running replica delivered the job's remaining demand before the
    /// primary copy did: the replica wins, every rival is cancelled.
    ReplicaFinish {
        /// The replicated job.
        job: JobId,
        /// Hosting station.
        on: u32,
    },
    /// Hazard-driven checkpoint evaluation for a running primary under
    /// [`CkptTiming::Opportunistic`].
    OpportunisticCkpt {
        /// The job.
        job: JobId,
        /// Hosting station.
        on: u32,
        /// Run epoch the timer chain belongs to (stale epochs are ignored).
        epoch: u32,
    },
}

/// Phase of a foreign job occupying a station.
#[derive(Debug)]
enum Phase {
    /// Image inbound.
    Arriving,
    /// Member of a multi-machine gang (paper §5(2) parallel programs);
    /// the gang's collective state lives in the cluster's gang table, and
    /// its timers in [`GangState`], not in per-station slots.
    GangMember,
    /// Executing; `finish` is the pending completion event.
    Running { finish: EventToken },
    /// Stopped by owner activity; `grace` is the pending eviction timer.
    Suspended { grace: EventToken },
    /// Image outbound.
    Departing,
    /// Speculative copy racing the primary (see [`crate::redundancy`]).
    /// Replicas carry their own lifecycle in [`ReplicaState`] — never the
    /// job's: `Job::state` always describes the primary copy.
    Replica(ReplicaState),
}

/// Lifecycle of one speculative replica slot.
#[derive(Debug)]
enum ReplicaState {
    /// Image inbound; `arrive` is the pending [`Event::ReplicaPlaced`].
    Arriving { arrive: EventToken },
    /// Executing from the job's last checkpoint; `finish` is the pending
    /// [`Event::ReplicaFinish`].
    Running { started: SimTime, finish: EventToken },
}

#[derive(Debug)]
struct ForeignSlot {
    job: JobId,
    /// Capacity granted to this resident: fixed at placement to the job's
    /// demand vector and never rescaled while the job stays on the
    /// station, so scheduled finish events remain exact.
    demand: ResourceVec,
    phase: Phase,
}

/// Collective state of a width-k gang occupying k stations.
#[derive(Debug)]
struct GangState {
    /// Member stations, lead first.
    members: Vec<u32>,
    /// Members whose inbound image has arrived.
    staged: u32,
    /// Members whose outbound checkpoint has completed.
    departed: u32,
    /// Pending completion event while running.
    finish: Option<EventToken>,
    /// Pending eviction timer while suspended.
    grace: Option<EventToken>,
    /// All members executing.
    running: bool,
    /// Checkpoint-out in progress.
    departing: bool,
}

/// Per-station simulation state (the "local scheduler" plus hardware).
#[derive(Debug)]
struct Station {
    owner: condor_model::owner::OwnerProcess,
    /// Persistent per-station stream for owner dwell draws.
    rng: condor_sim::rng::SimRng,
    owner_state: OwnerState,
    queue: BackgroundQueue,
    /// Foreign jobs resident on this station. Whole-machine demands (the
    /// default) keep this at most one entry long; fractional demands pack
    /// jobs until the capacity vector is exhausted.
    residents: Vec<ForeignSlot>,
    /// The station's resource capacity (a whole machine by default).
    capacity: ResourceVec,
    disk_capacity: u64,
    disk_used: u64,
    detection_pending: bool,
    /// Crashed and not yet repaired.
    failed: bool,
    /// Fenced for a reservation holder: only that station's queue may be
    /// served here while set.
    reserved_for: Option<NodeId>,
    /// Owner-active intervals overlapping the current run segment (owner
    /// flickers shorter than the detection interval). Excised from the
    /// remote utilization deposit so a machine never accounts as more than
    /// 100% busy in any bucket.
    run_overlaps: Vec<(SimTime, SimTime)>,
}

impl Station {
    /// Sum of the residents' granted capacity, folded from scratch — the
    /// reference the rescan check compares the maintained
    /// [`StationHot::used_cap`] total against.
    fn used(&self) -> ResourceVec {
        self.residents
            .iter()
            .fold(ResourceVec::ZERO, |acc, slot| acc.add(slot.demand))
    }

    fn resident(&self, job: JobId) -> Option<&ForeignSlot> {
        self.residents.iter().find(|slot| slot.job == job)
    }

    fn resident_mut(&mut self, job: JobId) -> Option<&mut ForeignSlot> {
        self.residents.iter_mut().find(|slot| slot.job == job)
    }

    /// Removes and returns `job`'s resident slot, if present.
    fn remove_resident(&mut self, job: JobId) -> Option<ForeignSlot> {
        let idx = self.residents.iter().position(|slot| slot.job == job)?;
        Some(self.residents.remove(idx))
    }
}

/// Struct-of-arrays hot state: the per-station scalars the owner-flip,
/// utilization-deposit, and view-refresh paths touch on every event.
/// Keeping them in dense parallel arrays (a few hundred KB at 100k
/// stations) means those paths stay cache-resident instead of scattering
/// reads across the much larger [`Station`] structs.
#[derive(Debug)]
struct StationHot {
    /// Start of the current owner-active stretch (`None` while idle).
    owner_active_since: Vec<Option<SimTime>>,
    /// Start of the current owner-idle stretch (`None` while active).
    idle_since: Vec<Option<SimTime>>,
    /// EWMA of completed idle-interval lengths, seconds (history-aware
    /// placement score).
    ewma_idle_secs: Vec<f64>,
    /// Sum of resident demands — the capacity remainder's complement —
    /// maintained at every slot insert/remove so `compute_view` and
    /// admission checks read `capacity − used` without folding the
    /// residents list.
    used_cap: Vec<ResourceVec>,
}

impl StationHot {
    fn new(stations: usize) -> Self {
        StationHot {
            owner_active_since: vec![None; stations],
            idle_since: vec![Some(SimTime::ZERO); stations],
            ewma_idle_secs: vec![0.0; stations],
            used_cap: vec![ResourceVec::ZERO; stations],
        }
    }
}

/// Wall-clock time needed to deliver a whole-machine wall segment at a
/// granted CPU fraction of `cpu_milli` thousandths. Exact identity for a
/// whole grant, so default traces are bit-identical.
fn inflate_wall(wall: SimDuration, cpu_milli: u32) -> SimDuration {
    if cpu_milli == 1000 {
        return wall;
    }
    SimDuration::from_millis((wall.as_millis() as u128 * 1000 / cpu_milli as u128) as u64)
}

/// Work actually delivered over a wall segment whose whole-machine work
/// would be `work`, at a granted CPU fraction of `cpu_milli` thousandths.
/// Exact identity for a whole grant.
fn scale_work(work: SimDuration, cpu_milli: u32) -> SimDuration {
    if cpu_milli == 1000 {
        return work;
    }
    SimDuration::from_millis((work.as_millis() as u128 * cpu_milli as u128 / 1000) as u64)
}

/// Weight of accumulated history in the idle-interval EWMA that feeds
/// history-aware placement. Together with
/// [`IDLE_EWMA_SAMPLE_WEIGHT`] this sets the smoothing horizon: at
/// 0.7/0.3 a completed idle interval's influence halves roughly every
/// two owner departures.
pub const IDLE_EWMA_HISTORY_WEIGHT: f64 = 0.7;

/// Weight of the newest completed idle interval in the idle-interval
/// EWMA. Must satisfy `IDLE_EWMA_HISTORY_WEIGHT + IDLE_EWMA_SAMPLE_WEIGHT
/// == 1.0` so the estimate stays a convex combination of observations.
pub const IDLE_EWMA_SAMPLE_WEIGHT: f64 = 0.3;

/// One EWMA update step for a completed owner-idle interval. The first
/// observation seeds the estimate directly.
fn ewma_idle_update(prev_secs: f64, sample_secs: f64) -> f64 {
    if prev_secs == 0.0 {
        sample_secs
    } else {
        IDLE_EWMA_HISTORY_WEIGHT * prev_secs + IDLE_EWMA_SAMPLE_WEIGHT * sample_secs
    }
}

/// Incrementally maintained coordinator-poll state.
///
/// Every station transition that can change its [`StationView`] marks the
/// station dirty; the 2-minute poll refreshes only the dirty stations and
/// reads the free/requester/host sets straight from bitsets. Poll cost
/// therefore scales with the number of stations that *changed* since the
/// last poll, not with fleet size. Debug builds cross-check the cache
/// against a full rescan on every poll, so a forgotten dirty-mark fails
/// loudly in tests (including the golden-trace run) rather than silently
/// skewing placement.
#[derive(Debug)]
struct CoordCache {
    /// Cached per-station views, kept equal to what a full rescan would
    /// produce whenever `dirty` is empty.
    views: Vec<StationView>,
    /// Membership set: `can_host`, with a maintained count and a summary
    /// level so the poll extracts its free head in O(head + active words).
    free_bits: Bits,
    /// Membership set: `waiting_jobs > 0`.
    req_bits: Bits,
    /// Membership set: `hosting_for.is_some()`.
    host_bits: Bits,
    /// Bucketed free-capacity index over the hostable set, maintained in
    /// lockstep with `free_bits` (same transitions, keyed by the view's
    /// `free_cpu_milli`). Handed to capacity-aware policies each poll.
    capacity: CapacityIndex,
    /// Bit per station: queued for refresh (dedupes `dirty`).
    dirty_bits: Vec<u64>,
    /// Stations awaiting refresh.
    dirty: Vec<u32>,
    /// Raw per-station queue lengths — *not* masked by `failed`, unlike
    /// `StationView::waiting_jobs`. The `CoordinatorPolled` event reports
    /// the raw total.
    raw_queue: Vec<u32>,
    /// Sum of `raw_queue`, maintained by refresh deltas.
    raw_queue_total: u32,
    /// Stations currently fenced by a reservation; lets the poll skip the
    /// reservation pass entirely in the common no-reservations case.
    reserved_count: u32,
    // Reusable poll scratch buffers (kept warm between polls).
    free: Vec<NodeId>,
    requesters: Vec<NodeId>,
    hosts: Vec<NodeId>,
    /// Machines granted so far this poll — the exclusion list that lets
    /// order execution iterate the live free set lazily instead of
    /// copying and shrinking a pool vector.
    granted: Vec<NodeId>,
    machines: Vec<NodeId>,
    service: Vec<JobId>,
}

impl CoordCache {
    fn new(stations: usize) -> Self {
        let mut cache = CoordCache {
            views: (0..stations)
                .map(|i| StationView {
                    node: NodeId::new(i as u32),
                    can_host: false,
                    hosting_for: None,
                    waiting_jobs: 0,
                    free_cpu_milli: 0,
                })
                .collect(),
            free_bits: Bits::new(stations),
            req_bits: Bits::new(stations),
            host_bits: Bits::new(stations),
            capacity: CapacityIndex::new(stations),
            dirty_bits: vec![0; stations.div_ceil(64)],
            dirty: Vec::with_capacity(stations),
            raw_queue: vec![0; stations],
            raw_queue_total: 0,
            reserved_count: 0,
            free: Vec::new(),
            requesters: Vec::new(),
            hosts: Vec::new(),
            granted: Vec::new(),
            machines: Vec::new(),
            service: Vec::new(),
        };
        for i in 0..stations {
            cache.mark(i);
        }
        cache
    }

    /// Queues a station for view refresh. Cheap and idempotent; marking a
    /// station whose view did not actually change is harmless, so call
    /// sites can over-approximate.
    #[inline]
    fn mark(&mut self, station: usize) {
        let word = station / 64;
        let bit = 1u64 << (station % 64);
        if self.dirty_bits[word] & bit == 0 {
            self.dirty_bits[word] |= bit;
            self.dirty.push(station as u32);
        }
    }
}

/// Where `execute_assign` finds fallback machines when the policy's
/// preferred target cannot serve the job it negotiates for.
enum AssignFallback<'a> {
    /// No fallback: the grant is for this fenced machine or nothing
    /// (reservation pass).
    None,
    /// The coordinator's free set in ascending id order — the default
    /// preference order, iterated lazily off the bitset.
    FreeSet,
    /// An explicit preference-ordered list (history-aware placement).
    List(&'a [NodeId]),
}

/// Aggregate counters over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Placements started (initial and migratory).
    pub placements: u64,
    /// Checkpoint migrations completed (job moved off a machine).
    pub migrations: u64,
    /// Periodic while-running checkpoints taken.
    pub periodic_checkpoints: u64,
    /// Jobs killed without an outgoing checkpoint.
    pub kills: u64,
    /// Evictions caused by returning owners.
    pub preemptions_owner: u64,
    /// Evictions ordered by the coordinator's policy.
    pub preemptions_priority: u64,
    /// Suspended jobs that resumed in place within the grace period.
    pub resumes_in_place: u64,
    /// Placements abandoned because the target disk was full.
    pub placement_disk_rejections: u64,
    /// Grants wasted because none of the home's waiting jobs had a binary
    /// for (or was unbound from) the granted machine's architecture.
    pub arch_starvation: u64,
    /// Jobs rejected at submission (home disk full).
    pub submit_rejections: u64,
    /// Coordinator poll cycles executed.
    pub polls: u64,
    /// Poll cycles answered from the memo fast path: nothing changed since
    /// the last poll and the policy was provably quiescent, so the
    /// coordinator emitted its telemetry without running `decide` at all.
    pub poll_memo_hits: u64,
    /// Owner-active time overlapping a running foreign job (detection
    /// latency interference), in milliseconds.
    pub interference_ms: u64,
    /// Placements made onto fenced machines for reservation holders.
    pub reservation_placements: u64,
    /// Gang (width > 1) placements started.
    pub gang_placements: u64,
    /// Station crashes injected.
    pub station_failures: u64,
    /// Jobs rolled back to their last checkpoint by a host crash.
    pub crash_rollbacks: u64,
    /// Autonomous local starts while the coordinator was unreachable
    /// (chaos outage or partition).
    pub local_starts: u64,
    /// Corrupted checkpoint transfers detected and re-sent (chaos).
    pub ckpt_retries: u64,
    /// Jobs handed to another pool at a window barrier (sharded runs).
    pub jobs_forwarded: u64,
    /// Jobs received from another pool at a window barrier (sharded runs).
    pub jobs_adopted: u64,
    /// Speculative replicas spawned (redundancy policy).
    pub replicas_spawned: u64,
    /// Replicas cancelled — by a rival copy finishing first, a returning
    /// owner, a crash, a reservation fence, a policy preemption, or the
    /// horizon. Replicas that *win* complete instead of cancelling, so
    /// `replicas_spawned - replicas_cancelled` is the number of jobs a
    /// replica finished.
    pub replicas_cancelled: u64,
    /// Reference-machine work thrown away with cancelled replicas, in
    /// milliseconds — the price paid for the speculation.
    pub wasted_replica_work: u64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// Name of the allocation policy used.
    pub policy_name: String,
    /// Number of stations simulated.
    pub stations: usize,
    /// The run horizon (end of observation).
    pub horizon: SimTime,
    /// Final job table (index = job id).
    pub jobs: Vec<Job>,
    /// The event trace (empty if disabled).
    pub trace: Trace,
    /// Aggregate counters.
    pub totals: Totals,
    /// Jobs in the system over time (queued + placed + running — the
    /// paper's Fig. 3/7 "queue length" counts jobs in service).
    pub queue_total: StepSeries,
    /// Per-user queue lengths.
    pub queue_by_user: BTreeMap<UserId, StepSeries>,
    /// Owner-active CPU-milliseconds per hourly bucket (local utilization
    /// numerator).
    pub local_busy: BucketAccumulator,
    /// Foreign-job CPU-milliseconds per hourly bucket (remote utilization
    /// numerator).
    pub remote_busy: BucketAccumulator,
    /// Total payload bytes moved over the network.
    pub bus_bytes_moved: u64,
    /// Bulk transfers booked on the network.
    pub bus_transfers: u64,
    /// Simulation events dispatched by the engine over the run — the
    /// denominator for events/sec throughput reporting.
    pub events_dispatched: u64,
    /// The O(1)-memory telemetry summary, populated on every run — even
    /// with `record_trace: false`, so long horizons still report.
    pub telemetry: Telemetry,
}

impl RunOutput {
    /// Folds the buffered trace into per-job lifecycle spans.
    ///
    /// Returns an empty log for a run with `record_trace: false` — attach
    /// a live [`crate::spans::SpanSink`] via [`run_cluster_with_sinks`]
    /// for span folding without the trace buffer.
    pub fn spans(&self) -> crate::spans::SpanLog {
        crate::spans::SpanSink::fold(self.trace.events(), self.horizon)
    }

    /// Station-hours the fleet was available for remote execution
    /// (owner idle), the paper's "12438 hours were available" figure.
    pub fn available_station_hours(&self) -> f64 {
        let total = self.horizon.as_hours_f64() * self.stations as f64;
        total - self.local_busy.total() / 3_600_000.0
    }

    /// CPU-hours actually consumed by remote execution (the paper's 4771).
    pub fn consumed_cpu_hours(&self) -> f64 {
        self.remote_busy.total() / 3_600_000.0
    }

    /// Mean local (owner) utilization over the run.
    pub fn mean_local_utilization(&self) -> f64 {
        self.local_busy.total() / (self.horizon.as_millis() as f64 * self.stations as f64)
    }

    /// Mean system utilization (owners + foreign jobs).
    pub fn mean_system_utilization(&self) -> f64 {
        (self.local_busy.total() + self.remote_busy.total())
            / (self.horizon.as_millis() as f64 * self.stations as f64)
    }

    /// Hourly local-utilization series (fractions of fleet capacity).
    pub fn local_utilization_hourly(&self) -> Vec<f64> {
        let n = (self.horizon.as_millis() / 3_600_000) as usize;
        let cap = 3_600_000.0 * self.stations as f64;
        self.local_busy
            .bucket_totals(n)
            .into_iter()
            .map(|v| v / cap)
            .collect()
    }

    /// Hourly system-utilization series (local + remote fractions).
    pub fn system_utilization_hourly(&self) -> Vec<f64> {
        let n = (self.horizon.as_millis() / 3_600_000) as usize;
        let cap = 3_600_000.0 * self.stations as f64;
        let local = self.local_busy.bucket_totals(n);
        let remote = self.remote_busy.bucket_totals(n);
        local
            .into_iter()
            .zip(remote)
            .map(|(l, r)| (l + r) / cap)
            .collect()
    }

    /// Completed jobs only.
    pub fn completed_jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.state == JobState::Completed)
    }
}

/// The cluster model. Most users go through [`run_cluster`]; direct use
/// allows mid-run inspection and fault injection (see
/// [`Cluster::set_coordinator_down`]).
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    stations: Vec<Station>,
    /// Parallel hot-state arrays for `stations` (struct-of-arrays).
    hot: StationHot,
    jobs: Vec<Job>,
    policy: PolicyHolder,
    bus: SharedBus,
    trace: Trace,
    /// Always-on telemetry aggregation (cheap: O(1) per event).
    stats: StatsSink,
    /// Caller-attached observers with their interest, read once at
    /// attachment; fed before the legacy trace.
    extra_sinks: Vec<(Interest, Box<dyn TraceSink + Send>)>,
    totals: Totals,
    queue_total: StepSeries,
    /// Per-user queue series, indexed by dense user slot (see
    /// `user_ids`). Rebuilt into the `RunOutput` map at the end of a run.
    queue_by_user: Vec<StepSeries>,
    /// Distinct submitting users, ascending id; `user_slots` maps jobs
    /// onto indices of this table.
    user_ids: Vec<UserId>,
    /// Dense user slot per job (index = job id).
    user_slots: Vec<u32>,
    /// User slots whose series ever changed — only these appear in the
    /// output map, matching the old lazily-populated `BTreeMap` exactly
    /// (a user whose every job was rejected never shows up).
    user_touched: Vec<bool>,
    local_busy: BucketAccumulator,
    remote_busy: BucketAccumulator,
    coordinator_down: bool,
    /// Reverse dependency edges, indexed by job id: completing job `i` may
    /// release the jobs in `dependents[i]` (paper §5(2) pipelines / DAGs).
    dependents: Vec<Vec<JobId>>,
    /// Outstanding dependency count per job.
    pending_deps: Vec<u32>,
    /// Gangs currently holding stations, indexed by job id. Boxed so the
    /// common width-1 fleet pays one pointer per job, and a `Vec` (not a
    /// hash map) so iteration order is deterministic.
    gangs: Vec<Option<Box<GangState>>>,
    /// Incrementally maintained poll snapshot.
    coord: CoordCache,
    /// Live fault-injection state; `None` (no [`ChaosConfig`]) keeps the
    /// chaos machinery to a single branch on the hot paths.
    chaos: Option<ChaosState>,
    /// Live replica bookkeeping for [`PolicyKind::Redundant`]; `None`
    /// (any other policy) keeps the replica machinery to a single branch
    /// on the hot paths and the trace bit-identical.
    redundancy: Option<RedundancyRuntime>,
}

/// Runtime state of the speculative-replication policy (see
/// [`crate::redundancy`]).
#[derive(Debug)]
struct RedundancyRuntime {
    /// Maximum live replicas per job (`0` disables spawning entirely).
    k: u32,
    /// Which checkpoint timer running primaries use.
    ckpt: CkptTiming,
    /// Stations currently holding a replica of each job (index = job id).
    /// Kept tiny (≤ k entries) so cancel-on-first-finish is O(k).
    by_job: Vec<Vec<u32>>,
}

/// Runtime state of the injected fault schedule (see [`crate::chaos`]).
#[derive(Debug)]
struct ChaosState {
    /// The injected configuration: schedule plus retry-backoff knobs.
    cfg: ChaosConfig,
    /// Nesting depth of open coordinator-outage windows.
    outage_depth: u32,
    /// Per-station nesting depth of open partition windows.
    partition_depth: Vec<u32>,
    /// Control-loss window end: polls before this instant are dropped.
    ctrl_loss_until: SimTime,
    /// Corruption window end: non-gang checkpoint transfers completing
    /// before this instant land damaged and are re-sent.
    ckpt_corrupt_until: SimTime,
    /// One-shot: the next executed poll sees (and discards) a duplicate.
    dup_pending: bool,
    /// One-shot: the next on-grid poll runs this much later instead.
    delay_pending: Option<SimDuration>,
    /// Consecutive corrupted attempts per job (index = job id), cleared
    /// by a clean checkpoint completion.
    retry_attempts: Vec<u32>,
    /// Whether an autonomy-sweep chain is already scheduled.
    sweep_pending: bool,
}

impl ChaosState {
    fn new(cfg: ChaosConfig, stations: usize, jobs: usize) -> Self {
        ChaosState {
            cfg,
            outage_depth: 0,
            partition_depth: vec![0; stations],
            ctrl_loss_until: SimTime::ZERO,
            ckpt_corrupt_until: SimTime::ZERO,
            dup_pending: false,
            delay_pending: None,
            retry_attempts: vec![0; jobs],
            sweep_pending: false,
        }
    }

    /// Whether `station` currently cannot reach the coordinator.
    fn unreachable(&self, station: usize) -> bool {
        self.outage_depth > 0 || self.partition_depth[station] > 0
    }
}

/// Owned polymorphic policy (kept concrete-debuggable).
#[derive(Debug)]
enum PolicyHolder {
    UpDown(UpDown),
    Fifo(FifoPolicy),
    RoundRobin(RoundRobinPolicy),
    Random(RandomPolicy),
    Frac(FracPolicy),
    Redundant(RedundantPolicy),
}

impl PolicyHolder {
    fn as_dyn(&mut self) -> &mut dyn AllocationPolicy {
        match self {
            PolicyHolder::UpDown(p) => p,
            PolicyHolder::Fifo(p) => p,
            PolicyHolder::RoundRobin(p) => p,
            PolicyHolder::Random(p) => p,
            PolicyHolder::Frac(p) => p,
            PolicyHolder::Redundant(p) => p,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            PolicyHolder::UpDown(_) => "up-down",
            PolicyHolder::Fifo(_) => "fifo",
            PolicyHolder::RoundRobin(_) => "round-robin",
            PolicyHolder::Random(_) => "random",
            PolicyHolder::Frac(_) => "frac",
            PolicyHolder::Redundant(_) => "redundant",
        }
    }
}

impl Cluster {
    /// Builds a cluster from a configuration and the complete set of job
    /// submissions (arrival events are planted by [`run_cluster`] /
    /// [`Cluster::prime`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or job ids are not the dense
    /// sequence `0..n` in order; [`Cluster::try_new`] reports the same
    /// conditions as a [`ConfigError`] instead.
    pub fn new(config: ClusterConfig, specs: Vec<JobSpec>) -> Self {
        match Cluster::try_new(config, specs) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Cluster::new`]: rejects invalid configurations
    /// and malformed job sets with a typed error.
    pub fn try_new(config: ClusterConfig, specs: Vec<JobSpec>) -> Result<Self, ConfigError> {
        config.check()?;
        for (i, s) in specs.iter().enumerate() {
            if s.id.0 as usize != i {
                return Err(ConfigError::JobIdsNotDense);
            }
            if s.home.as_usize() >= config.stations {
                return Err(ConfigError::JobHomeOutsideFleet { job: s.id, home: s.home });
            }
            for dep in &s.depends_on {
                if dep.0 >= s.id.0 {
                    return Err(ConfigError::JobDependencyOrder { job: s.id, dep: *dep });
                }
            }
            if s.width == 0 {
                return Err(ConfigError::JobZeroWidth { job: s.id });
            }
            if s.width as usize > config.stations {
                return Err(ConfigError::JobWidthExceedsFleet {
                    job: s.id,
                    width: s.width as usize,
                    stations: config.stations,
                });
            }
            if s.resources.cpu_milli == 0 {
                return Err(ConfigError::JobZeroCpuDemand { job: s.id });
            }
            // Gangs coordinate whole machines; fractional members would
            // break the collective suspend/checkpoint protocol.
            if s.width > 1 && !s.resources.is_whole() {
                return Err(ConfigError::GangFractionalResources { job: s.id });
            }
        }
        let owners = build_fleet(
            config.stations,
            &config.owner,
            config.owner_heterogeneity,
            config.seed,
        );
        let root = condor_sim::rng::SimRng::seed_from(config.seed);
        let stations = owners
            .into_iter()
            .enumerate()
            .map(|(i, owner)| {
                let owner_state = owner.state();
                Station {
                    rng: root.substream(config.seed, &format!("station-dwell-{i}")),
                    owner,
                    owner_state,
                    queue: BackgroundQueue::new(config.local_order),
                    residents: Vec::new(),
                    capacity: config.capacity_profiles[i % config.capacity_profiles.len()],
                    disk_capacity: config.station.disk_capacity,
                    disk_used: 0,
                    detection_pending: false,
                    failed: false,
                    reserved_for: None,
                    run_overlaps: Vec::new(),
                }
            })
            .collect();
        let policy = match config.policy {
            PolicyKind::UpDown(ud) => PolicyHolder::UpDown(UpDown::new(ud)),
            PolicyKind::Fifo => PolicyHolder::Fifo(FifoPolicy::new()),
            PolicyKind::RoundRobin => PolicyHolder::RoundRobin(RoundRobinPolicy::new()),
            PolicyKind::Random => PolicyHolder::Random(RandomPolicy::new(config.seed)),
            PolicyKind::Frac => PolicyHolder::Frac(FracPolicy::new()),
            PolicyKind::Redundant(rc) => PolicyHolder::Redundant(RedundantPolicy::new(rc)),
        };
        let redundancy = match config.policy {
            PolicyKind::Redundant(rc) => Some(RedundancyRuntime {
                k: rc.replicas,
                ckpt: rc.checkpointing,
                by_job: vec![Vec::new(); specs.len()],
            }),
            _ => None,
        };
        let trace = if config.record_trace {
            Trace::new()
        } else {
            Trace::disabled()
        };
        let bus = SharedBus::new(config.bus);
        let mut dependents: Vec<Vec<JobId>> = vec![Vec::new(); specs.len()];
        let pending_deps: Vec<u32> = specs
            .iter()
            .map(|s| {
                for dep in &s.depends_on {
                    dependents[dep.0 as usize].push(s.id);
                }
                s.depends_on.len() as u32
            })
            .collect();
        // Intern users into dense slots so per-job bookkeeping indexes a
        // `Vec` instead of probing a map keyed by sparse user ids.
        let mut user_ids: Vec<UserId> = specs.iter().map(|s| s.user).collect();
        user_ids.sort_unstable();
        user_ids.dedup();
        let user_slots: Vec<u32> = specs
            .iter()
            .map(|s| user_ids.binary_search(&s.user).expect("interned user") as u32)
            .collect();
        let coord = CoordCache::new(config.stations);
        let chaos = config
            .chaos
            .as_ref()
            .map(|c| ChaosState::new(c.clone(), config.stations, specs.len()));
        Ok(Cluster {
            hot: StationHot::new(config.stations),
            stations,
            dependents,
            pending_deps,
            gangs: specs.iter().map(|_| None).collect(),
            queue_by_user: user_ids.iter().map(|_| StepSeries::new(0.0)).collect(),
            user_touched: vec![false; user_ids.len()],
            user_ids,
            user_slots,
            jobs: specs.into_iter().map(Job::new).collect(),
            policy,
            bus,
            trace,
            stats: StatsSink::new(),
            extra_sinks: Vec::new(),
            totals: Totals::default(),
            queue_total: StepSeries::new(0.0),
            local_busy: BucketAccumulator::new(SimDuration::HOUR),
            remote_busy: BucketAccumulator::new(SimDuration::HOUR),
            coordinator_down: false,
            coord,
            chaos,
            redundancy,
            config,
        })
    }

    /// Plants the initial event set: job arrivals, owner transitions, and
    /// the first coordinator poll. Call once before running the engine.
    pub fn prime(engine: &mut Engine<Cluster>) {
        let first_poll = engine.model().config.costs.coordinator_poll_interval;
        let n_jobs = engine.model().jobs.len();
        let n_stations = engine.model().stations.len();
        // Owner processes: fix initial active intervals and first flips.
        for i in 0..n_stations {
            let (dwell, state) = {
                let st = &mut engine.model_mut().stations[i];
                let dwell = st.owner.dwell_and_flip(SimTime::ZERO, &mut st.rng);
                (dwell, st.owner_state)
            };
            if state == OwnerState::Active {
                let hot = &mut engine.model_mut().hot;
                hot.owner_active_since[i] = Some(SimTime::ZERO);
                hot.idle_since[i] = None;
            }
            engine
                .scheduler()
                .at(SimTime::ZERO + dwell, Event::OwnerFlip { station: i as u32 });
        }
        for j in 0..n_jobs {
            let at = engine.model().jobs[j].spec.arrival;
            engine.scheduler().at(at, Event::Arrival(JobId(j as u64)));
        }
        let reservations = engine.model().config.reservations.clone();
        for (idx, r) in reservations.iter().enumerate() {
            engine
                .scheduler()
                .at(r.from, Event::ReservationStart { idx: idx as u32 });
            engine
                .scheduler()
                .at(r.until, Event::ReservationEnd { idx: idx as u32 });
        }
        if let Some(failures) = engine.model().config.failures {
            for i in 0..n_stations {
                let ttf = {
                    let st = &mut engine.model_mut().stations[i];
                    SimDuration::from_secs_f64(st.rng.exponential(failures.mtbf.as_secs_f64()))
                        .max(SimDuration::SECOND)
                };
                engine
                    .scheduler()
                    .at(SimTime::ZERO + ttf, Event::StationCrash { station: i as u32 });
            }
        }
        // Chaos schedules are pre-expanded data: each entry plants one
        // fault event, so an empty schedule perturbs nothing at all.
        let n_faults = engine
            .model()
            .chaos
            .as_ref()
            .map_or(0, |c| c.cfg.schedule.entries.len());
        for idx in 0..n_faults {
            let at = engine.model().chaos.as_ref().expect("chaos configured").cfg.schedule.entries
                [idx]
                .at;
            engine.scheduler().at(at, Event::ChaosFault { idx: idx as u32 });
        }
        engine.scheduler().at(SimTime::ZERO + first_poll, Event::Poll);
    }

    /// Takes the coordinator offline (`true`) or back online. While down,
    /// polls are skipped: no new placements or priority preemptions, but
    /// running jobs, owner detection, grace timers, and checkpoints proceed
    /// untouched — the paper's §2.1 failure-isolation property.
    pub fn set_coordinator_down(&mut self, down: bool) {
        self.coordinator_down = down;
    }

    /// The job table (current states mid-run).
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The telemetry summary accumulated so far.
    pub fn telemetry(&self) -> &Telemetry {
        self.stats.telemetry()
    }

    /// Attaches an additional observer of the event stream. Sinks see every
    /// event of the kinds their [`TraceSink::interest`] names (read once,
    /// here) from this point on, in simulation order, and gauge samples
    /// if it names those; their `finish` runs when the cluster finalizes.
    /// Use a [`SharedSink`](crate::telemetry::SharedSink) handle to keep
    /// access to the sink after the run.
    pub fn attach_sink(&mut self, mut sink: Box<dyn TraceSink + Send>) {
        // Flatten fan-out containers: their children become direct members
        // of `extra_sinks`, so each event pays one virtual call per leaf
        // sink instead of one per nesting level per leaf.
        match sink.take_children() {
            Some(children) => {
                for child in children {
                    self.attach_sink(child);
                }
            }
            None => self.extra_sinks.push((sink.interest(), sink)),
        }
    }

    /// Routes one event through every observer: the always-on stats sink,
    /// caller-attached sinks, then the legacy trace.
    fn emit(&mut self, at: SimTime, kind: TraceKind) {
        let ev = TraceEvent { at, kind };
        self.stats.record(&ev);
        if !self.extra_sinks.is_empty() {
            self.emit_extra(&ev);
        }
        self.trace.record(at, kind);
    }

    /// The attached-observer fan-out, out of line so the common
    /// no-extra-sinks emit path stays branch-and-return small.
    #[cold]
    fn emit_extra(&mut self, ev: &TraceEvent) {
        let index = ev.kind.index();
        for (interest, s) in &mut self.extra_sinks {
            if interest.wants_index(index) {
                s.record(ev);
            }
        }
    }

    /// Routes one gauge sample through every observer that reads samples.
    fn emit_sample(&mut self, s: GaugeSample) {
        self.stats.sample(&s);
        for (interest, sink) in &mut self.extra_sinks {
            if interest.wants_samples() {
                sink.sample(&s);
            }
        }
    }

    /// Aggregate counters so far.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// The Up-Down schedule index of a station, if the Up-Down policy is in
    /// force.
    pub fn updown_index(&self, node: NodeId) -> Option<f64> {
        match &self.policy {
            PolicyHolder::UpDown(p) => Some(p.index_of(node)),
            PolicyHolder::Redundant(p) => Some(p.inner().index_of(node)),
            _ => None,
        }
    }

    /// The architecture of station `i` under the configured pattern.
    pub fn station_arch(&self, i: usize) -> condor_model::station::Arch {
        self.config.arch_pattern[i % self.config.arch_pattern.len()]
    }

    /// Whether `station` hosts `job` in a phase accepted by `phase_pred`.
    fn slot_is(&self, station: usize, job: JobId, phase_pred: impl Fn(&Phase) -> bool) -> bool {
        self.stations[station]
            .resident(job)
            .is_some_and(|slot| phase_pred(&slot.phase))
    }

    // ----- queue-length bookkeeping -------------------------------------

    fn queue_delta(&mut self, now: SimTime, job: JobId, delta: f64) {
        self.queue_total.add(now, delta);
        let slot = self.user_slots[job.0 as usize] as usize;
        self.user_touched[slot] = true;
        self.queue_by_user[slot].add(now, delta);
    }

    // ----- pool-shard support -------------------------------------------

    /// Capacity summary for window-barrier forwarding decisions:
    /// `(free_stations, waiting_jobs)` after refreshing the coordinator
    /// cache. Free stations are those the coordinator could place on right
    /// now; waiting jobs is the raw queued total across the shard.
    pub(crate) fn capacity_snapshot(&mut self) -> (u32, u32) {
        self.flush_dirty();
        (self.coord.free_bits.count(), self.coord.raw_queue_total)
    }

    /// Pulls one forwardable job out of this shard's queues for delivery
    /// to `to_pool`, or `None` if nothing movable is waiting.
    ///
    /// Only simple jobs move: queued, width 1, no dependency edges in
    /// either direction, and never placed (no work accrued, no image in
    /// flight). The job leaves its local queue, frees the standing image
    /// on its home disk, and its state becomes [`JobState::Forwarded`];
    /// the returned spec is everything the destination pool needs to
    /// adopt it.
    pub(crate) fn extract_forwardable(&mut self, now: SimTime, to_pool: u32) -> Option<JobSpec> {
        // Longest raw queue first (ties: lowest station id) so forwarding
        // relieves the most backed-up corner of the shard.
        let src = (0..self.stations.len())
            .max_by_key(|&i| (self.stations[i].queue.len(), std::cmp::Reverse(i)))?;
        let job = self.stations[src].queue.iter().find(|j| {
            let job = &self.jobs[j.0 as usize];
            job.state == JobState::Queued
                && job.spec.width == 1
                && job.spec.depends_on.is_empty()
                && self.dependents[j.0 as usize].is_empty()
                && job.work_done.is_zero()
                && job.placements == 0
                // A job with live replicas must finish (or cancel them)
                // in this pool; forwarding it would orphan the copies.
                && self
                    .redundancy
                    .as_ref()
                    .is_none_or(|r| r.by_job[j.0 as usize].is_empty())
        })?;
        self.stations[src].queue.remove(job);
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        if !self.config.checkpoint_server {
            self.stations[src].disk_used = self.stations[src].disk_used.saturating_sub(image);
        }
        self.jobs[job.0 as usize].state = JobState::Forwarded;
        self.coord.mark(src);
        self.queue_delta(now, job, -1.0);
        self.totals.jobs_forwarded += 1;
        self.emit(now, TraceKind::JobForwarded { job, to_pool });
        Some(self.jobs[job.0 as usize].spec.clone())
    }

    /// Registers a job forwarded from another pool. Returns the local id
    /// the job arrives under; the caller schedules the arrival event at
    /// the delivery instant. The shortest local queue (ties: lowest
    /// station id) becomes the job's new home.
    pub(crate) fn adopt_spec(&mut self, spec: JobSpec) -> JobId {
        let local = JobId(self.jobs.len() as u64);
        // Prefer a home whose capacity can ever grant the job's demand —
        // a fractional fleet may mix machine sizes — falling back to the
        // plain shortest queue when nothing in this shard fits.
        let home = (0..self.stations.len())
            .filter(|&i| spec.resources.fits(self.stations[i].capacity))
            .min_by_key(|&i| (self.stations[i].queue.len(), i))
            .or_else(|| (0..self.stations.len()).min_by_key(|&i| (self.stations[i].queue.len(), i)))
            .expect("shard has stations");
        let slot = match self.user_ids.binary_search(&spec.user) {
            Ok(pos) => pos,
            Err(pos) => {
                // A user this shard has never seen: splice a new dense
                // slot in and shift every existing mapping above it.
                self.user_ids.insert(pos, spec.user);
                self.queue_by_user.insert(pos, StepSeries::new(0.0));
                self.user_touched.insert(pos, false);
                for s in &mut self.user_slots {
                    if *s as usize >= pos {
                        *s += 1;
                    }
                }
                pos
            }
        };
        self.user_slots.push(slot as u32);
        let spec =
            JobSpec { id: local, home: NodeId::new(home as u32), depends_on: Vec::new(), ..spec };
        let mut job = Job::new(spec);
        job.adopted = true;
        self.jobs.push(job);
        self.dependents.push(Vec::new());
        self.pending_deps.push(0);
        self.gangs.push(None);
        if let Some(c) = self.chaos.as_mut() {
            c.retry_attempts.push(0);
        }
        if let Some(r) = self.redundancy.as_mut() {
            r.by_job.push(Vec::new());
        }
        local
    }

    // ----- coordinator-view cache ---------------------------------------

    /// Capacity still unclaimed by station `i`'s residents, from the
    /// incrementally maintained occupancy total.
    #[inline]
    fn free_capacity(&self, i: usize) -> ResourceVec {
        self.stations[i].capacity.sub(self.hot.used_cap[i])
    }

    /// History-aware placement score: the longer of the current idle
    /// streak and the EWMA of completed idle intervals.
    fn idle_score(&self, i: usize, now: SimTime) -> f64 {
        let current_streak = self.hot.idle_since[i]
            .map(|t| now.saturating_since(t).as_secs_f64())
            .unwrap_or(0.0);
        self.hot.ewma_idle_secs[i].max(current_streak)
    }

    /// Removes `job`'s slot from station `i`, keeping the struct-of-arrays
    /// occupancy total in lockstep with the residents list.
    fn remove_resident(&mut self, i: usize, job: JobId) -> Option<ForeignSlot> {
        let slot = self.stations[i].remove_resident(job)?;
        self.hot.used_cap[i] = self.hot.used_cap[i].sub_exact(slot.demand);
        Some(slot)
    }

    /// Recomputes one station's view from scratch — the single source of
    /// truth shared by cache refresh and the debug full-rescan check.
    fn compute_view(&self, i: usize) -> StationView {
        let st = &self.stations[i];
        // A partitioned station is dark to the coordinator: it takes no
        // new placements and its queue is invisible until the link heals.
        let cut = self.chaos.as_ref().is_some_and(|c| c.partition_depth[i] > 0);
        let free = self.free_capacity(i);
        // With whole-machine demands (the default) any resident consumes
        // the full capacity vector, so "has free CPU and memory" below is
        // exactly the legacy "no foreign job resident" condition.
        let can_host = !cut
            && !st.failed
            && st.reserved_for.is_none()
            && st.owner_state == OwnerState::Idle
            && free.cpu_milli > 0
            && free.mem_milli > 0;
        StationView {
            node: NodeId::new(i as u32),
            can_host,
            // Fenced machines are invisible to the general policy: it may
            // neither assign them nor preempt the holder's jobs on them.
            hosting_for: if st.reserved_for.is_some() {
                None
            } else {
                st.residents.iter().find_map(|slot| {
                    // A running replica counts as hosting: replication
                    // spends the home's own Up-Down standing, and a rival
                    // user's preemption order cancels the replica.
                    let counts = matches!(
                        slot.phase,
                        Phase::Running { .. } | Phase::Replica(ReplicaState::Running { .. })
                    ) || (matches!(slot.phase, Phase::GangMember)
                        && self.gangs[slot.job.0 as usize]
                            .as_deref()
                            .is_some_and(|g| g.running));
                    counts.then(|| self.jobs[slot.job.0 as usize].spec.home)
                })
            },
            // A downed station's local scheduler is unreachable; its queue
            // thaws on recovery.
            waiting_jobs: if st.failed || cut { 0 } else { st.queue.len() },
            free_cpu_milli: if can_host { free.cpu_milli } else { 0 },
        }
    }

    fn refresh_station(&mut self, i: usize) {
        let view = self.compute_view(i);
        let raw = self.stations[i].queue.len() as u32;
        let c = &mut self.coord;
        c.raw_queue_total = c.raw_queue_total - c.raw_queue[i] + raw;
        c.raw_queue[i] = raw;
        c.free_bits.set(i, view.can_host);
        c.req_bits.set(i, view.waiting_jobs > 0);
        c.host_bits.set(i, view.hosting_for.is_some());
        c.capacity.update(i, c.views[i].free_cpu_milli, view.free_cpu_milli);
        c.views[i] = view;
    }

    /// Refreshes every dirty station's cached view.
    fn flush_dirty(&mut self) {
        while let Some(i) = self.coord.dirty.pop() {
            let i = i as usize;
            self.coord.dirty_bits[i / 64] &= !(1u64 << (i % 64));
            self.refresh_station(i);
        }
    }

    /// Debug builds run the full rescan cross-check after every poll's
    /// flush; release builds skip it (it is O(stations) per poll, exactly
    /// the scan the incremental cache exists to avoid).
    #[cfg(debug_assertions)]
    fn debug_check_coord(&self) {
        self.check_coord_rescan();
    }

    /// Test hook: flushes pending view refreshes, then cross-checks every
    /// incrementally maintained coordinator structure against a
    /// from-scratch recomputation — in every build profile. Panics on
    /// divergence. Driven between arbitrary events by the consistency
    /// suite; a flush here is safe because the next poll would perform
    /// the identical refreshes anyway.
    #[doc(hidden)]
    pub fn verify_coord_cache(&mut self) {
        self.flush_dirty();
        self.check_coord_rescan();
    }

    /// Full-rescan cross-check: with no station dirty, the cache must
    /// match recomputation from scratch — the views, every membership set,
    /// the maintained counts and occupancy totals, and the bucketed
    /// capacity index. Catches any transition that forgot to mark its
    /// station.
    fn check_coord_rescan(&self) {
        let mut free = 0u32;
        let mut req = 0u32;
        let mut host = 0u32;
        for i in 0..self.stations.len() {
            let fresh = self.compute_view(i);
            assert_eq!(
                self.hot.used_cap[i],
                self.stations[i].used(),
                "struct-of-arrays occupancy total drifted at {i}"
            );
            assert_eq!(
                self.coord.views[i], fresh,
                "stale cached view for station {i} — a transition forgot to mark it dirty"
            );
            assert_eq!(self.coord.free_bits.get(i), fresh.can_host, "free set wrong at {i}");
            assert_eq!(
                self.coord.req_bits.get(i),
                fresh.waiting_jobs > 0,
                "requester set wrong at {i}"
            );
            assert_eq!(
                self.coord.host_bits.get(i),
                fresh.hosting_for.is_some(),
                "host set wrong at {i}"
            );
            free += fresh.can_host as u32;
            req += (fresh.waiting_jobs > 0) as u32;
            host += fresh.hosting_for.is_some() as u32;
        }
        assert_eq!(self.coord.free_bits.count(), free, "free count drifted");
        assert_eq!(self.coord.req_bits.count(), req, "requester count drifted");
        assert_eq!(self.coord.host_bits.count(), host, "host count drifted");
        let mut expect: Vec<(u32, u32)> = (0..self.stations.len())
            .filter_map(|i| {
                let v = &self.coord.views[i];
                v.can_host.then_some((v.free_cpu_milli, i as u32))
            })
            .collect();
        expect.sort_unstable();
        assert_eq!(
            self.coord.capacity.entries(),
            expect,
            "bucketed capacity index diverged from the hostable set"
        );
        let raw: u32 = self.stations.iter().map(|s| s.queue.len() as u32).sum();
        assert_eq!(raw, self.coord.raw_queue_total, "raw queue total drifted");
    }

    /// Sets or clears a station's reservation fence, maintaining the
    /// fenced-station count and the view cache.
    fn set_reserved(&mut self, i: usize, holder: Option<NodeId>) {
        let prev = self.stations[i].reserved_for;
        if prev.is_some() != holder.is_some() {
            if holder.is_some() {
                self.coord.reserved_count += 1;
            } else {
                self.coord.reserved_count -= 1;
            }
        }
        self.stations[i].reserved_for = holder;
        self.coord.mark(i);
    }

    // ----- owner handling ------------------------------------------------

    fn on_owner_flip(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        let i = station as usize;
        let new_state = self.stations[i].owner.state();
        let dwell = {
            let st = &mut self.stations[i];
            st.owner.dwell_and_flip(now, &mut st.rng)
        };
        sched.at(now + dwell, Event::OwnerFlip { station });
        self.coord.mark(i);
        self.stations[i].owner_state = new_state;
        match new_state {
            OwnerState::Active => {
                self.hot.owner_active_since[i] = Some(now);
                if let Some(t) = self.hot.idle_since[i].take() {
                    let len = now.since(t).as_secs_f64();
                    self.hot.ewma_idle_secs[i] =
                        ewma_idle_update(self.hot.ewma_idle_secs[i], len);
                }
                self.emit(now, TraceKind::OwnerActive { station: NodeId::new(station) });
            }
            OwnerState::Idle => {
                if let Some(t) = self.hot.owner_active_since[i].take() {
                    self.local_busy
                        .deposit_interval(t, now, now.since(t).as_millis() as f64);
                    // The foreign job ran right through this owner visit
                    // (it was shorter than the detection interval): that
                    // span belongs to the owner in the utilization ledger.
                    let st = &mut self.stations[i];
                    let counts_as_running = st.residents.iter().any(|slot| {
                        matches!(
                            slot.phase,
                            Phase::Running { .. } | Phase::Replica(ReplicaState::Running { .. })
                        ) || (matches!(slot.phase, Phase::GangMember)
                            && self.gangs[slot.job.0 as usize]
                                .as_deref()
                                .is_some_and(|g| g.running))
                    });
                    if counts_as_running {
                        st.run_overlaps.push((t, now));
                    }
                }
                self.hot.idle_since[i] = Some(now);
                self.emit(now, TraceKind::OwnerIdle { station: NodeId::new(station) });
            }
        }
        // Schedule a local-scheduler check on the 30-second grid if any
        // resident might need suspending or resuming.
        let needs_check = self.stations[i].residents.iter().any(|slot| match new_state {
            OwnerState::Active => matches!(
                slot.phase,
                Phase::Running { .. } | Phase::Arriving | Phase::GangMember | Phase::Replica(_)
            ),
            OwnerState::Idle => {
                matches!(slot.phase, Phase::Suspended { .. } | Phase::GangMember)
            }
        });
        if needs_check && !self.stations[i].detection_pending {
            self.stations[i].detection_pending = true;
            let grid = self.config.costs.owner_check_interval;
            let next = now.align_down(grid) + grid;
            sched.at(next, Event::DetectOwner { station });
        }
    }

    fn on_detect_owner(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        let i = station as usize;
        self.stations[i].detection_pending = false;
        // Conservative: any reconciliation below may change this station's
        // occupancy, and marking an unchanged station costs nothing.
        self.coord.mark(i);
        let owner_state = self.stations[i].owner_state;
        enum SlotInfo {
            Running(EventToken, JobId),
            Suspended(EventToken, JobId),
            Gang(JobId),
            Replica(JobId),
        }
        // Snapshot every resident needing reconciliation: the owner's
        // return (or departure) affects all of them, not just the first.
        let infos: Vec<SlotInfo> = self.stations[i]
            .residents
            .iter()
            .filter_map(|slot| match &slot.phase {
                Phase::Running { finish } => Some(SlotInfo::Running(*finish, slot.job)),
                Phase::Suspended { grace } => Some(SlotInfo::Suspended(*grace, slot.job)),
                Phase::GangMember => Some(SlotInfo::Gang(slot.job)),
                Phase::Replica(_) => Some(SlotInfo::Replica(slot.job)),
                _ => None,
            })
            .collect();
        for info in infos {
            match (owner_state, info) {
                // Gang members reconcile collectively.
                (_, SlotInfo::Gang(job)) => {
                    let Some(gang) = self.gangs[job.0 as usize].as_deref() else { continue };
                    if gang.departing {
                        continue;
                    }
                    match owner_state {
                        OwnerState::Active if gang.running => {
                            self.gang_suspend(now, job, station, sched);
                        }
                        OwnerState::Idle if !gang.running => {
                            // Maybe everyone is idle again (or the last image
                            // just arrived): try to (re)start.
                            self.gang_try_start(now, job, sched);
                        }
                        _ => {}
                    }
                }
                (OwnerState::Active, SlotInfo::Running(finish, job)) => {
                    sched.cancel(finish);
                    let owner_back = self.hot.owner_active_since[i].unwrap_or(now);
                    self.stop_running_segment(now, i, job, owner_back);
                    // Interference: the owner shared the machine from their
                    // return until this detection.
                    if let Some(active_since) = self.hot.owner_active_since[i] {
                        let overlap = now.saturating_since(active_since);
                        self.totals.interference_ms += overlap.as_millis();
                    }
                    self.totals.preemptions_owner += 1;
                    match self.config.eviction {
                        EvictionStrategy::GraceThenCheckpoint { grace } => {
                            let token = sched.at(now + grace, Event::GraceOver { station, job });
                            if let Some(slot) = self.stations[i].resident_mut(job) {
                                slot.phase = Phase::Suspended { grace: token };
                            }
                            self.jobs[job.0 as usize].state =
                                JobState::Suspended { on: NodeId::new(station) };
                            self.emit(
                                now,
                                TraceKind::JobSuspended { job, on: NodeId::new(station) },
                            );
                        }
                        EvictionStrategy::ImmediateKill { .. } => {
                            self.kill_in_place(now, i, job);
                        }
                    }
                }
                (OwnerState::Idle, SlotInfo::Suspended(grace, job)) => {
                    sched.cancel(grace);
                    self.start_running(now, i, job, sched);
                    self.totals.resumes_in_place += 1;
                    self.emit(
                        now,
                        TraceKind::JobResumedInPlace { job, on: NodeId::new(station) },
                    );
                }
                (OwnerState::Active, SlotInfo::Replica(job)) => {
                    // Replicas are pure speculation: no grace period, no
                    // checkpoint — the owner's return kills them outright.
                    if let Some(active_since) = self.hot.owner_active_since[i] {
                        let overlap = now.saturating_since(active_since);
                        self.totals.interference_ms += overlap.as_millis();
                    }
                    self.cancel_replica(now, i, job, sched);
                }
                _ => {} // owner flickered; nothing to reconcile
            }
        }
    }

    // ----- job lifecycle helpers ------------------------------------------

    /// Closes the current run segment: accrues work/remote CPU and deposits
    /// the interval into the remote-utilization accumulator. Does not
    /// change `state`/`foreign`.
    ///
    /// `util_end` caps the utilization deposit: when the segment ends
    /// because the owner returned, the tail between the owner's return and
    /// its detection belongs to the *owner* in the utilization ledgers
    /// (the machine cannot be more than 100% busy), even though the job
    /// accrues the full wall time of background cycles it received.
    fn stop_running_segment(&mut self, now: SimTime, station: usize, job: JobId, util_end: SimTime) {
        let cpu = self.jobs[job.0 as usize].spec.resources.cpu_milli;
        let eff = self.jobs[job.0 as usize].spec.speedup.effective_milli(cpu);
        let running_since = {
            let j = &mut self.jobs[job.0 as usize];
            let wall = now.since(j.running_since);
            // Progress accrues at the job's *effective* rate for the
            // granted CPU fraction — the speedup curve prices sub-whole
            // grants; identity for whole-machine grants.
            let work = scale_work(self.config.station.work_done_in(wall), eff);
            j.accrue_run(work, self.config.costs.remote_syscall_cost.as_millis() * 1_000);
            j.running_since
        };
        self.deposit_run_utilization(station, running_since, util_end.min(now), cpu as f64 / 1000.0);
    }

    /// Deposits the remote-utilization share of a run segment, excising
    /// any owner-flicker overlap intervals accumulated on the station so
    /// each hourly bucket stays within physical capacity. `frac` scales
    /// the deposit to the job's granted CPU share (1.0 for whole-machine
    /// grants, which multiplies exactly).
    fn deposit_run_utilization(
        &mut self,
        station: usize,
        running_since: SimTime,
        util_end: SimTime,
        frac: f64,
    ) {
        let overlaps = std::mem::take(&mut self.stations[station].run_overlaps);
        let mut cursor = running_since;
        for (o_start, o_end) in overlaps {
            let o_start = o_start.max(cursor).min(util_end);
            let o_end = o_end.max(cursor).min(util_end);
            if o_start > cursor {
                self.remote_busy.deposit_interval(
                    cursor,
                    o_start,
                    o_start.since(cursor).as_millis() as f64 * frac,
                );
            }
            cursor = cursor.max(o_end);
        }
        if util_end > cursor {
            self.remote_busy.deposit_interval(
                cursor,
                util_end,
                util_end.since(cursor).as_millis() as f64 * frac,
            );
        }
    }

    /// Starts (or resumes) execution at `station`, scheduling completion.
    fn start_running(
        &mut self,
        now: SimTime,
        station: usize,
        job: JobId,
        sched: &mut Scheduler<Event>,
    ) {
        let remaining = self.jobs[job.0 as usize].remaining();
        debug_assert!(!remaining.is_zero(), "starting a finished job");
        let demand = self.jobs[job.0 as usize].spec.resources;
        // A fractional grant stretches the wall clock by the job's
        // effective rate under its speedup curve; the finish event is
        // exact for the granted rate, so remaining work is only re-derived
        // when a segment is cut short. A thrashing job never stalls
        // entirely — it crawls at one milli so the finish event exists.
        let eff = self.jobs[job.0 as usize]
            .spec
            .speedup
            .effective_milli(demand.cpu_milli)
            .max(1);
        let wall = inflate_wall(self.config.station.wall_time_for(remaining), eff);
        let finish = sched.at(
            now + wall,
            Event::Finish { job, on: station as u32 },
        );
        self.coord.mark(station);
        let st = &mut self.stations[station];
        if let Some(slot) = st.resident_mut(job) {
            slot.phase = Phase::Running { finish };
        } else {
            st.residents.push(ForeignSlot { job, demand, phase: Phase::Running { finish } });
            self.hot.used_cap[station] = self.hot.used_cap[station].add(demand);
        }
        st.run_overlaps.clear();
        let arch = self.station_arch(station);
        let j = &mut self.jobs[job.0 as usize];
        debug_assert!(
            j.bound_arch.is_none_or(|b| b == arch),
            "job bound to {:?} started on {arch:?}",
            j.bound_arch
        );
        // First execution binds the job's progress to this architecture.
        j.bound_arch = Some(arch);
        j.state = JobState::Running { on: NodeId::new(station as u32) };
        j.running_since = now;
        j.epoch += 1;
        let epoch = j.epoch;
        // The opportunistic timer replaces the fixed-period chain when the
        // redundancy policy arms it; otherwise the immediate-kill strategy's
        // periodic chain runs exactly as before.
        match self.opportunistic_ckpt() {
            Some((check_every, _)) => {
                sched.at(
                    now + check_every,
                    Event::OpportunisticCkpt { job, on: station as u32, epoch },
                );
            }
            None => {
                if let EvictionStrategy::ImmediateKill { checkpoint_every } = self.config.eviction {
                    sched.at(
                        now + checkpoint_every,
                        Event::PeriodicCkpt { job, on: station as u32, epoch },
                    );
                }
            }
        }
        self.emit(
            now,
            TraceKind::JobStarted { job, on: NodeId::new(station as u32) },
        );
    }

    /// Immediate-kill eviction: the job vanishes from the station at once;
    /// un-checkpointed work is lost.
    fn kill_in_place(&mut self, now: SimTime, station: usize, job: JobId) {
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        self.stations[station].disk_used -= image;
        self.remove_resident(station, job);
        self.coord.mark(station);
        let j = &mut self.jobs[job.0 as usize];
        j.revert_to_checkpoint();
        j.state = JobState::Queued;
        let home = j.spec.home.as_usize();
        let remaining = j.remaining();
        self.stations[home].queue.enqueue_front(job, remaining);
        self.coord.mark(home);
        self.totals.kills += 1;
        self.emit(now, TraceKind::JobKilled { job, on: NodeId::new(station as u32) });
    }

    /// Starts the checkpoint-out transfer for a job stopped at `station`.
    fn begin_checkpoint_out(
        &mut self,
        now: SimTime,
        station: usize,
        job: JobId,
        reason: PreemptReason,
        sched: &mut Scheduler<Event>,
    ) {
        let (image, home, seq) = {
            let j = &mut self.jobs[job.0 as usize];
            let image = j.spec.image_bytes;
            let home = j.spec.home;
            j.state = JobState::CheckpointingOut { from: NodeId::new(station as u32) };
            j.charge_transfer(self.config.costs.transfer_cpu_cost(image));
            j.transfer_seq += 1;
            (image, home, j.transfer_seq)
        };
        self.stations[station]
            .resident_mut(job)
            .expect("checkpointing job is resident")
            .phase = Phase::Departing;
        self.coord.mark(station);
        let booking = self
            .bus
            .book_transfer(now, NodeId::new(station as u32), home, image);
        sched.at(
            booking.completes_at,
            Event::CheckpointDone { job, from: station as u32, seq },
        );
        self.emit(
            now,
            TraceKind::CheckpointStarted {
                job,
                from: NodeId::new(station as u32),
                reason,
                bytes: image,
            },
        );
    }

    // ----- event handlers --------------------------------------------------

    fn on_arrival(&mut self, now: SimTime, job: JobId) {
        let j = &self.jobs[job.0 as usize];
        let home = j.spec.home.as_usize();
        let image = j.spec.image_bytes;
        // With a dedicated checkpoint server (paper §4's disk-server idea),
        // standing images do not occupy the submitting machine's disk.
        if !self.config.checkpoint_server {
            if self.stations[home].disk_used + image > self.stations[home].disk_capacity {
                self.totals.submit_rejections += 1;
                self.jobs[job.0 as usize].rejected = true;
                self.emit(now, TraceKind::JobRejected { job });
                return;
            }
            self.stations[home].disk_used += image;
        }
        self.coord.mark(home);
        self.queue_delta(now, job, 1.0);
        if self.jobs[job.0 as usize].adopted {
            self.totals.jobs_adopted += 1;
            self.emit(now, TraceKind::JobAdopted { job, on: NodeId::new(home as u32) });
        } else {
            self.emit(now, TraceKind::JobArrived { job });
        }
        // §5(2) pipelines: jobs with incomplete dependencies are held; the
        // completion of the last dependency releases them into the queue.
        let unresolved = self.jobs[job.0 as usize]
            .spec
            .depends_on
            .iter()
            .filter(|d| self.jobs[d.0 as usize].state != JobState::Completed)
            .count() as u32;
        self.pending_deps[job.0 as usize] = unresolved;
        if unresolved > 0 {
            self.jobs[job.0 as usize].state = JobState::Held;
            return;
        }
        let remaining = self.jobs[job.0 as usize].remaining();
        self.stations[home].queue.enqueue(job, remaining);
    }

    fn on_poll(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        sched.at(now + self.config.costs.coordinator_poll_interval, Event::Poll);
        if self.coordinator_down || self.chaos_poll_suppressed(now, sched) {
            return;
        }
        self.poll_body(now, sched);
    }

    /// Chaos gating for an on-grid poll. Outage windows drop polls
    /// silently — the cadence gap stays a whole multiple of the interval,
    /// exactly like coordinator-host downtime. Control-message loss drops
    /// them loudly, and a pending delay postpones the body off the grid.
    fn chaos_poll_suppressed(&mut self, now: SimTime, sched: &mut Scheduler<Event>) -> bool {
        let Some(chaos) = self.chaos.as_mut() else {
            return false;
        };
        if chaos.outage_depth > 0 {
            return true;
        }
        if now >= chaos.ctrl_loss_until {
            if let Some(delay) = chaos.delay_pending.take() {
                sched.at(now + delay, Event::ChaosDelayedPoll { delay_ms: delay.as_millis() });
                return true;
            }
            return false;
        }
        self.emit(now, TraceKind::ChaosPollLost);
        true
    }

    /// Runs the postponed body of a poll hit by [`Fault::CtrlDelay`]. The
    /// next on-grid poll (already scheduled by the suppressed one) is
    /// unaffected.
    fn on_chaos_delayed_poll(&mut self, now: SimTime, delay_ms: u64, sched: &mut Scheduler<Event>) {
        if self.coordinator_down {
            return;
        }
        if let Some(c) = self.chaos.as_ref() {
            if c.outage_depth > 0 || now < c.ctrl_loss_until {
                return;
            }
        }
        self.emit(now, TraceKind::ChaosPollDelayed { delay_ms });
        self.poll_body(now, sched);
    }

    /// The poll cycle proper: reservations, policy decision, order
    /// execution, and the poll trace/gauge emissions. Shared by on-grid
    /// polls and chaos-delayed ones.
    fn poll_body(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        if self.chaos.as_ref().is_some_and(|c| c.dup_pending) {
            // The duplicated request is recognised by its sequence number
            // and discarded before any allocation work.
            self.chaos.as_mut().expect("dup checked").dup_pending = false;
            self.emit(now, TraceKind::ChaosDupDropped);
        }
        self.totals.polls += 1;
        self.reclaim_replicas_for_demand(now, sched);
        // Reserved machines are served first, outside the general policy:
        // one placement per poll for the whole system (the §4 throttle),
        // with reservation holders at the front of the line. Skipped
        // wholesale when nothing is fenced (the common case).
        let mut placements = 0u32;
        let mut budget = self.config.placements_per_poll;
        let mut granted = std::mem::take(&mut self.coord.granted);
        granted.clear();
        if self.coord.reserved_count > 0 {
            for i in 0..self.stations.len() {
                if budget == 0 {
                    break;
                }
                let Some(holder) = self.stations[i].reserved_for else {
                    continue;
                };
                let st = &self.stations[i];
                if st.failed || st.owner_state != OwnerState::Idle || !st.residents.is_empty() {
                    continue;
                }
                if self.stations[holder.as_usize()].queue.is_empty() {
                    continue;
                }
                let target = NodeId::new(i as u32);
                if self.execute_assign(now, holder, target, AssignFallback::None, &mut granted, sched) {
                    placements += 1;
                    budget -= 1;
                    self.totals.reservation_placements += 1;
                }
            }
        }
        // Bring the cached snapshot up to date: only stations that changed
        // since the last poll are recomputed.
        self.flush_dirty();
        #[cfg(debug_assertions)]
        self.debug_check_coord();
        // Memo fast path: nothing fenced, no station wants or hosts
        // anything, and the policy is provably quiescent — `decide` would
        // return no orders and mutate nothing, so emit the poll telemetry
        // directly. (Reservation placements require `reserved_count > 0`,
        // so `placements` is provably zero here too.)
        if self.coord.reserved_count == 0
            && self.coord.req_bits.count() == 0
            && self.coord.host_bits.count() == 0
            && self.policy.as_dyn().quiescent()
        {
            self.totals.poll_memo_hits += 1;
            self.coord.granted = granted;
            let free_machines = self.coord.free_bits.count();
            self.emit_poll_telemetry(now, free_machines, 0, 0);
            return;
        }
        let free_machines = self.coord.free_bits.count();
        let mut free = std::mem::take(&mut self.coord.free);
        if self.config.history_aware_placement {
            // Longest expected idle first; stable so ids break ties. The
            // preference order is not id order here, so the policy gets the
            // full sorted list and no capacity index.
            self.coord.free_bits.collect_into(&mut free);
            free.sort_by(|a, b| {
                let sa = self.idle_score(a.as_usize(), now);
                let sb = self.idle_score(b.as_usize(), now);
                sb.partial_cmp(&sa).expect("no NaN scores")
            });
        } else {
            // Policies take at most `budget` targets from the front of the
            // preference order, so a budget-sized head of the free set is
            // indistinguishable from the whole fleet — and O(budget) to
            // build. (`max(1)` keeps "no machine free at all" observable in
            // the degenerate budget-0 poll.)
            self.coord.free_bits.collect_head(budget.max(1), &mut free);
        }
        let mut requesters = std::mem::take(&mut self.coord.requesters);
        let mut hosts = std::mem::take(&mut self.coord.hosts);
        self.coord.req_bits.collect_into(&mut requesters);
        self.coord.host_bits.collect_into(&mut hosts);
        let views = std::mem::take(&mut self.coord.views);
        let capacity = (!self.config.history_aware_placement).then_some(&self.coord.capacity);
        let orders = self.policy.as_dyn().decide(
            now,
            &PollInput {
                views: &views,
                requesters: &requesters,
                hosts: &hosts,
                free: &free,
                free_total: free_machines as usize,
                capacity,
                max_placements: budget,
            },
        );
        debug_assert!(
            crate::policy::validate_orders(&orders, &views).is_ok(),
            "policy emitted invalid orders: {orders:?}"
        );
        self.coord.views = views;
        self.coord.requesters = requesters;
        self.coord.hosts = hosts;
        // Reservation-pass grants are already reflected in the freshly
        // flushed free set; the exclusion list restarts for the order loop.
        granted.clear();
        let history = self.config.history_aware_placement;
        let mut preemptions = 0u32;
        for order in orders {
            match order {
                Order::Assign { home, target } => {
                    let fallback = if history {
                        AssignFallback::List(&free)
                    } else {
                        AssignFallback::FreeSet
                    };
                    if self.execute_assign(now, home, target, fallback, &mut granted, sched) {
                        placements += 1;
                    }
                }
                Order::Preempt { target } => {
                    if self.execute_preempt(now, target, sched) {
                        preemptions += 1;
                    }
                }
            }
        }
        self.coord.free = free;
        self.coord.granted = granted;
        // Order execution may have dirtied stations; the reported waiting
        // count is the post-execution raw queue total, as before.
        self.flush_dirty();
        self.emit_poll_telemetry(now, free_machines, placements, preemptions);
    }

    /// The `CoordinatorPolled` event plus the per-poll gauge sample —
    /// shared verbatim by the full poll path and the memo fast path, so
    /// memoized polls are bit-identical on the trace.
    fn emit_poll_telemetry(
        &mut self,
        now: SimTime,
        free_machines: u32,
        placements: u32,
        preemptions: u32,
    ) {
        let waiting = self.coord.raw_queue_total;
        self.emit(
            now,
            TraceKind::CoordinatorPolled {
                free_machines,
                waiting_jobs: waiting,
                placements,
                preemptions,
            },
        );
        // Gauges no event carries: sampled once per poll, deterministically.
        let updown_mean_index = match &self.policy {
            PolicyHolder::UpDown(p) => Some(p.index_sum() / self.stations.len() as f64),
            PolicyHolder::Redundant(p) => {
                Some(p.inner().index_sum() / self.stations.len() as f64)
            }
            _ => None,
        };
        self.emit_sample(GaugeSample {
            at: now,
            bus_backlog: self.bus.backlog_at(now),
            free_machines,
            waiting_jobs: waiting,
            updown_mean_index,
        });
    }

    /// Executes one `Assign` grant. The policy names a preferred `target`,
    /// but the local scheduler negotiates: if none of the home's waiting
    /// jobs can use that machine (wrong architecture, full disk), the
    /// grant falls back to another machine still free this poll — the
    /// placement budget is what the paper's §4 throttle limits, not the
    /// specific machine.
    fn execute_assign(
        &mut self,
        now: SimTime,
        home: NodeId,
        target: NodeId,
        fallback: AssignFallback<'_>,
        granted: &mut Vec<NodeId>,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let h = home.as_usize();
        if self.stations[h].queue.is_empty() {
            return false; // policy over-granted this home
        }
        // The preferred target leads the candidate order when the free
        // snapshot still lists it un-granted; a reservation-pass target is
        // fenced (never in the free set) and eligible by construction.
        let target_ok = match fallback {
            AssignFallback::None => true,
            AssignFallback::FreeSet | AssignFallback::List(_) => {
                self.coord.free_bits.get(target.as_usize()) && !granted.contains(&target)
            }
        };
        // Job-major negotiation: the local scheduler walks its queue in
        // service order and places the first job for which enough
        // compatible machines are free — one machine normally, k for a
        // width-k gang. Candidates after the preferred target come lazily
        // from the fallback source with this poll's earlier grants
        // excluded, so a grant costs O(candidates inspected), not a
        // materialised copy of the whole free list.
        let mut service = std::mem::take(&mut self.coord.service);
        self.stations[h].queue.service_order_into(&mut service);
        let mut machines = std::mem::take(&mut self.coord.machines);
        let mut disk_blocked: Option<(JobId, NodeId)> = None;
        let mut chosen: Option<JobId> = None;
        for &cand_job in &service {
            let j = &self.jobs[cand_job.0 as usize];
            let width = j.spec.width.max(1) as usize;
            let image = j.spec.image_bytes;
            let demand = j.spec.resources;
            machines.clear();
            let mut arch_ok_but_disk_full: Option<NodeId> = None;
            // Returns `false` once the job's machine list is full.
            let mut scan = |cand: NodeId| -> bool {
                if machines.len() == width {
                    return false;
                }
                let c = cand.as_usize();
                if !j.can_run_on(self.station_arch(c)) {
                    return true;
                }
                // Capacity conservation: the grant must fit in what the
                // residents leave free. Whole-machine demands (default)
                // always fit a `can_host` station, so this never rejects
                // there.
                if !demand.fits(self.free_capacity(c)) {
                    return true;
                }
                let disk_free = self.stations[c].disk_capacity - self.stations[c].disk_used;
                if image > disk_free {
                    // Paper §4: an idle processor is useless if its disk
                    // is full.
                    arch_ok_but_disk_full.get_or_insert(cand);
                    return true;
                }
                machines.push(cand);
                machines.len() < width
            };
            let mut more = true;
            if target_ok {
                more = scan(target);
            }
            if more {
                match fallback {
                    AssignFallback::None => {}
                    AssignFallback::FreeSet => {
                        self.coord.free_bits.for_each(|id| {
                            let cand = NodeId::new(id);
                            if cand == target || granted.contains(&cand) {
                                return true;
                            }
                            scan(cand)
                        });
                    }
                    AssignFallback::List(list) => {
                        for &cand in list {
                            if cand == target || granted.contains(&cand) {
                                continue;
                            }
                            if !scan(cand) {
                                break;
                            }
                        }
                    }
                }
            }
            if machines.len() == width {
                chosen = Some(cand_job);
                break;
            }
            if let Some(c) = arch_ok_but_disk_full {
                disk_blocked.get_or_insert((cand_job, c));
            }
        }
        self.coord.service = service;
        let Some(job) = chosen else {
            machines.clear();
            self.coord.machines = machines;
            if let Some((job, target)) = disk_blocked {
                self.totals.placement_disk_rejections += 1;
                self.emit(now, TraceKind::PlacementDiskRejected { job, target });
            } else {
                self.totals.arch_starvation += 1;
            }
            return false;
        };
        self.stations[h].queue.remove(job);
        self.coord.mark(h);
        // These machines are spoken for until the next flush; later orders
        // this poll must not fall back onto them.
        granted.extend_from_slice(&machines);
        if machines.len() > 1 {
            let members: Vec<u32> = machines.iter().map(|m| m.index()).collect();
            machines.clear();
            self.coord.machines = machines;
            self.gang_place(now, home, job, members, sched);
            return true;
        }
        let target = machines[0];
        machines.clear();
        self.coord.machines = machines;
        let (image, demand) = {
            let j = &self.jobs[job.0 as usize];
            (j.spec.image_bytes, j.spec.resources)
        };
        let t = target.as_usize();
        self.stations[t].disk_used += image;
        self.stations[t].residents.push(ForeignSlot {
            job,
            demand,
            phase: Phase::Arriving,
        });
        self.hot.used_cap[t] = self.hot.used_cap[t].add(demand);
        self.coord.mark(t);
        let seq = {
            let j = &mut self.jobs[job.0 as usize];
            j.state = JobState::Placing { target };
            j.charge_transfer(self.config.costs.transfer_cpu_cost(image));
            j.transfer_seq += 1;
            j.transfer_seq
        };
        let booking = self.bus.book_transfer(now, home, target, image);
        sched.at(
            booking.completes_at,
            Event::PlacementDone { job, target: target.index(), seq },
        );
        self.totals.placements += 1;
        // Fractional grants are annotated just before the placement they
        // describe; whole-machine placements never emit, keeping default
        // traces bit-identical.
        if !demand.is_whole() {
            self.emit(
                now,
                TraceKind::JobGranted {
                    job,
                    on: target,
                    cpu_milli: demand.cpu_milli,
                    mem_milli: demand.mem_milli,
                    tag_milli: demand.tag_milli,
                },
            );
        }
        self.emit(now, TraceKind::PlacementStarted { job, target });
        self.maybe_spawn_replicas(now, job, target, granted, sched);
        true
    }

    fn execute_preempt(
        &mut self,
        now: SimTime,
        target: NodeId,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let t = target.as_usize();
        // Preempting any member of a running gang vacates the whole gang
        // (its processes cannot run partially).
        let gang_job = self.stations[t].residents.iter().find_map(|slot| {
            (matches!(slot.phase, Phase::GangMember)
                && self.gangs[slot.job.0 as usize]
                    .as_deref()
                    .is_some_and(|g| g.running))
            .then_some(slot.job)
        });
        if let Some(job) = gang_job {
            self.gang_stop_accrual(now, job, sched);
            self.totals.preemptions_priority += 1;
            self.gang_checkpoint_out(now, job, PreemptReason::PriorityPreemption, sched);
            return true;
        }
        // A replica surrenders instantly — no checkpoint dance, the
        // machine frees right now, which is strictly better for the
        // preempting user than waiting out a checkpoint transfer.
        let replicas: Vec<JobId> = self.stations[t]
            .residents
            .iter()
            .filter_map(|slot| matches!(slot.phase, Phase::Replica(_)).then_some(slot.job))
            .collect();
        if !replicas.is_empty() {
            for job in replicas {
                self.totals.preemptions_priority += 1;
                self.cancel_replica(now, t, job, sched);
            }
            return true;
        }
        // Preemption vacates the machine: every running resident is
        // checkpointed out (at most one under whole-machine demands).
        let running: Vec<(EventToken, JobId)> = self.stations[t]
            .residents
            .iter()
            .filter_map(|slot| match &slot.phase {
                Phase::Running { finish } => Some((*finish, slot.job)),
                _ => None,
            })
            .collect();
        if running.is_empty() {
            return false;
        }
        for (finish, job) in running {
            sched.cancel(finish);
            self.stop_running_segment(now, t, job, now);
            self.totals.preemptions_priority += 1;
            self.begin_checkpoint_out(now, t, job, PreemptReason::PriorityPreemption, sched);
        }
        true
    }

    fn on_placement_done(
        &mut self,
        now: SimTime,
        job: JobId,
        target: u32,
        seq: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let t = target as usize;
        // Stale completion: the transfer's endpoint crashed and the job has
        // moved on.
        if self.jobs[job.0 as usize].transfer_seq != seq {
            return;
        }
        if self.slot_is(t, job, |p| matches!(p, Phase::GangMember)) {
            let gang = self.gangs[job.0 as usize].as_deref_mut().expect("gang exists");
            gang.staged += 1;
            self.jobs[job.0 as usize].placements += 1;
            self.gang_try_start(now, job, sched);
            return;
        }
        if !self.slot_is(t, job, |p| matches!(p, Phase::Arriving)) {
            return;
        }
        self.coord.mark(t);
        self.jobs[job.0 as usize].placements += 1;
        if self.stations[t].owner_state == OwnerState::Idle {
            self.start_running(now, t, job, sched);
        } else {
            // The owner came back while the image was in flight.
            match self.config.eviction {
                EvictionStrategy::GraceThenCheckpoint { grace } => {
                    let token = sched.at(
                        now + grace,
                        Event::GraceOver { station: target, job },
                    );
                    if let Some(slot) = self.stations[t].resident_mut(job) {
                        slot.phase = Phase::Suspended { grace: token };
                    }
                    self.jobs[job.0 as usize].state =
                        JobState::Suspended { on: NodeId::new(target) };
                    self.emit(
                        now,
                        TraceKind::JobSuspended { job, on: NodeId::new(target) },
                    );
                }
                EvictionStrategy::ImmediateKill { .. } => {
                    self.jobs[job.0 as usize].state = JobState::Queued;
                    self.kill_in_place(now, t, job);
                }
            }
        }
    }

    fn on_checkpoint_done(
        &mut self,
        now: SimTime,
        job: JobId,
        from: u32,
        seq: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let f = from as usize;
        if self.jobs[job.0 as usize].transfer_seq != seq {
            return;
        }
        if self.slot_is(f, job, |p| matches!(p, Phase::GangMember)) {
            let image = self.jobs[job.0 as usize].spec.image_bytes;
            self.stations[f].disk_used -= image;
            self.remove_resident(f, job);
            self.coord.mark(f);
            let all_departed = {
                let gang = self.gangs[job.0 as usize].as_deref_mut().expect("gang exists");
                debug_assert!(gang.departing);
                gang.departed += 1;
                gang.departed == gang.members.len() as u32
            };
            self.emit(
                now,
                TraceKind::CheckpointCompleted { job, from: NodeId::new(from), bytes: image },
            );
            if all_departed {
                self.gangs[job.0 as usize] = None;
                let j = &mut self.jobs[job.0 as usize];
                j.mark_checkpointed();
                j.checkpoints += 1;
                j.state = JobState::Queued;
                let home = j.spec.home.as_usize();
                let remaining = j.remaining();
                self.totals.migrations += 1;
                self.stations[home].queue.enqueue_front(job, remaining);
                self.coord.mark(home);
            }
            return;
        }
        if !self.slot_is(f, job, |p| matches!(p, Phase::Departing)) {
            return;
        }
        // Corruption window: the image landed damaged (detected by
        // checksum on receipt). The source still holds it, so nothing is
        // lost — the job stays mid-checkpoint and the transfer is re-sent
        // after a capped exponential backoff. Gang fan-ins are exempt.
        if self.chaos.as_ref().is_some_and(|c| now < c.ckpt_corrupt_until) {
            self.chaos_corrupt_ckpt(now, job, from, seq, sched);
            return;
        }
        if let Some(c) = self.chaos.as_mut() {
            c.retry_attempts[job.0 as usize] = 0;
        }
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        self.stations[f].disk_used -= image;
        self.remove_resident(f, job);
        self.coord.mark(f);
        let j = &mut self.jobs[job.0 as usize];
        j.mark_checkpointed();
        j.checkpoints += 1;
        j.state = JobState::Queued;
        let home = j.spec.home.as_usize();
        let remaining = j.remaining();
        self.totals.migrations += 1;
        self.stations[home].queue.enqueue_front(job, remaining);
        self.coord.mark(home);
        self.emit(
            now,
            TraceKind::CheckpointCompleted { job, from: NodeId::new(from), bytes: image },
        );
    }

    fn on_finish(&mut self, now: SimTime, job: JobId, on: u32, sched: &mut Scheduler<Event>) {
        let o = on as usize;
        if self.jobs[job.0 as usize].spec.width > 1 {
            // Gang completion: the single Finish event covers all members.
            if !self.gangs[job.0 as usize].as_deref().is_some_and(|g| g.running) {
                return;
            }
            let members = {
                let gang = self.gangs[job.0 as usize].as_deref_mut().expect("gang exists");
                gang.running = false;
                gang.finish = None;
                gang.members.clone()
            };
            let running_since = self.jobs[job.0 as usize].running_since;
            {
                let j = &mut self.jobs[job.0 as usize];
                let remaining = j.remaining();
                j.accrue_run(remaining, self.config.costs.remote_syscall_cost.as_millis() * 1_000);
            }
            let image = self.jobs[job.0 as usize].spec.image_bytes;
            for &m in &members {
                let util_end = self.hot.owner_active_since[m as usize].map_or(now, |t| t.min(now));
                self.deposit_run_utilization(
                    m as usize,
                    running_since,
                    util_end.max(running_since),
                    1.0,
                );
                self.stations[m as usize].disk_used -= image;
                self.remove_resident(m as usize, job);
                self.coord.mark(m as usize);
            }
            self.gangs[job.0 as usize] = None;
            self.finish_bookkeeping(now, job, on);
            return;
        }
        if !self.slot_is(o, job, |p| matches!(p, Phase::Running { .. })) {
            return;
        }
        // The primary won the race: every speculative copy loses.
        self.cancel_replicas_of(now, job, sched);
        // The finish event corresponds exactly to the remaining work at the
        // segment start: accrue precisely that, avoiding rounding residue.
        {
            let util_end = self.hot.owner_active_since[o].map_or(now, |t| t.min(now));
            let cpu = self.jobs[job.0 as usize].spec.resources.cpu_milli;
            let running_since = {
                let j = &mut self.jobs[job.0 as usize];
                let remaining = j.remaining();
                j.accrue_run(remaining, self.config.costs.remote_syscall_cost.as_millis() * 1_000);
                j.running_since
            };
            self.deposit_run_utilization(o, running_since, util_end, cpu as f64 / 1000.0);
        }
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        self.stations[o].disk_used -= image;
        self.remove_resident(o, job);
        self.coord.mark(o);
        self.finish_bookkeeping(now, job, on);
    }

    /// Shared completion tail: home disk, state, queue-length series,
    /// trace, and dependency release.
    fn finish_bookkeeping(&mut self, now: SimTime, job: JobId, on: u32) {
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        if !self.config.checkpoint_server {
            let home = self.jobs[job.0 as usize].spec.home.as_usize();
            self.stations[home].disk_used -= image;
        }
        {
            let j = &mut self.jobs[job.0 as usize];
            j.state = JobState::Completed;
            j.completed_at = Some(now);
        }
        self.queue_delta(now, job, -1.0);
        self.emit(now, TraceKind::JobCompleted { job, on: NodeId::new(on) });
        // Release any jobs that were held on this one. A job completes at
        // most once, so its dependent list can be consumed in place.
        let dependents = std::mem::take(&mut self.dependents[job.0 as usize]);
        for d in dependents {
            if self.jobs[d.0 as usize].state != JobState::Held {
                continue; // not yet arrived (or rejected): arrival recounts
            }
            let count = &mut self.pending_deps[d.0 as usize];
            *count = count.saturating_sub(1);
            if *count == 0 {
                let home = self.jobs[d.0 as usize].spec.home.as_usize();
                let remaining = self.jobs[d.0 as usize].remaining();
                self.jobs[d.0 as usize].state = JobState::Queued;
                self.stations[home].queue.enqueue(d, remaining);
                self.coord.mark(home);
            }
        }
    }

    fn on_grace_over(
        &mut self,
        now: SimTime,
        station: u32,
        job: JobId,
        sched: &mut Scheduler<Event>,
    ) {
        let i = station as usize;
        if self.jobs[job.0 as usize].spec.width > 1 {
            // The gang grace token is cancelled on resume, so reaching here
            // means some member's owner is still around: coordinated
            // checkpoint of the whole program.
            if self.gangs[job.0 as usize]
                .as_deref()
                .is_some_and(|g| !g.departing && !g.running)
            {
                self.gangs[job.0 as usize].as_deref_mut().expect("gang exists").grace = None;
                self.gang_checkpoint_out(now, job, PreemptReason::OwnerReturned, sched);
            }
            return;
        }
        // The token is cancelled on resume (and on crash), so reaching here
        // normally means the job is still suspended: vacate.
        if !self.slot_is(i, job, |p| matches!(p, Phase::Suspended { .. })) {
            return;
        }
        self.begin_checkpoint_out(now, i, job, PreemptReason::OwnerReturned, sched);
    }

    fn on_periodic_ckpt(
        &mut self,
        now: SimTime,
        job: JobId,
        on: u32,
        epoch: u32,
        sched: &mut Scheduler<Event>,
    ) {
        // Stale chain from a previous run segment?
        if self.jobs[job.0 as usize].epoch != epoch {
            return;
        }
        let still_running = self.slot_is(on as usize, job, |p| matches!(p, Phase::Running { .. }));
        if !still_running {
            return;
        }
        self.take_running_checkpoint(now, job, on);
        if let EvictionStrategy::ImmediateKill { checkpoint_every } = self.config.eviction {
            sched.at(
                now + checkpoint_every,
                Event::PeriodicCkpt { job, on, epoch },
            );
        }
    }

    /// Takes one while-running checkpoint of a job executing on `on`:
    /// captures the current work level, charges the transfer, and books
    /// the image home while the job keeps running. Shared by the periodic
    /// chain and the opportunistic hazard timer.
    fn take_running_checkpoint(&mut self, now: SimTime, job: JobId, on: u32) {
        let j = &self.jobs[job.0 as usize];
        let image = j.spec.image_bytes;
        let home = j.spec.home;
        // The checkpoint captures the work level at this instant (accrued
        // at the granted CPU fraction).
        let elapsed = now.since(j.running_since);
        let work_now = j.work_done
            + scale_work(
                self.config.station.work_done_in(elapsed),
                j.spec.speedup.effective_milli(j.spec.resources.cpu_milli),
            );
        {
            let j = &mut self.jobs[job.0 as usize];
            j.work_checkpointed = work_now;
            j.charge_transfer(self.config.costs.transfer_cpu_cost(image));
        }
        // The image travels home while the job keeps running.
        self.bus.book_transfer(now, NodeId::new(on), home, image);
        self.totals.periodic_checkpoints += 1;
        self.emit(now, TraceKind::PeriodicCheckpoint { job, on: NodeId::new(on) });
    }

    /// The opportunistic checkpoint knobs, if the redundancy policy arms
    /// them; `None` means the inherited (periodic or none) timer applies.
    fn opportunistic_ckpt(&self) -> Option<(SimDuration, f64)> {
        match self.redundancy.as_ref()?.ckpt {
            CkptTiming::Opportunistic { check_every, hazard_threshold } => {
                Some((check_every, hazard_threshold))
            }
            CkptTiming::Inherited => None,
        }
    }

    /// Hazard-driven checkpoint evaluation: checkpoint only when the
    /// owner's return looks imminent — the station's current idle streak
    /// has consumed its typical idle interval (EWMA). Stations with no
    /// idle history yet never trigger (hazard 0), and the chain re-arms
    /// every `check_every` until the run segment ends.
    fn on_opportunistic_ckpt(
        &mut self,
        now: SimTime,
        job: JobId,
        on: u32,
        epoch: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let Some((check_every, threshold)) = self.opportunistic_ckpt() else { return };
        if self.jobs[job.0 as usize].epoch != epoch {
            return;
        }
        let o = on as usize;
        if !self.slot_is(o, job, |p| matches!(p, Phase::Running { .. })) {
            return;
        }
        let streak = self.hot.idle_since[o]
            .map(|t| now.saturating_since(t).as_secs_f64())
            .unwrap_or(0.0);
        let ewma = self.hot.ewma_idle_secs[o];
        let hazard = if ewma > 0.0 { streak / ewma } else { 0.0 };
        if hazard >= threshold {
            self.take_running_checkpoint(now, job, on);
        }
        sched.at(now + check_every, Event::OpportunisticCkpt { job, on, epoch });
    }

    // ----- redundancy: speculative replicas (see crate::redundancy) ------

    /// Tops the job up to `k` live replicas on otherwise-idle stations,
    /// right after a successful primary placement. Replicas are strictly
    /// parasitic: they take only whole machines that are idle, unfenced,
    /// unpartitioned, and empty, and they run the same binary as the
    /// primary (candidates are restricted to the primary target's
    /// architecture so whichever copy starts first binds the same arch).
    /// Frees replica-held stations when queued demand outstrips the
    /// fleet's genuinely free machines, so speculation never delays a real
    /// job past the poll that notices it. Runs at the top of every poll;
    /// cancels at most this poll's placement budget, cheapest copies
    /// first — arriving replicas cost nothing, then the youngest running
    /// ones. A replica whose primary is *not* running is spared: it is
    /// the job's only progress (the insurance actively paying out), and
    /// cancelling it would trade finished work for a fresh placement.
    fn reclaim_replicas_for_demand(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let Some(r) = self.redundancy.as_ref() else { return };
        // `k == 0` first: the disabled policy must cost nothing per poll,
        // not even the per-job liveness scan below.
        if r.k == 0 || r.by_job.iter().all(|v| v.is_empty()) {
            return;
        }
        let waiting: usize = self.stations.iter().map(|st| st.queue.len()).sum();
        if waiting == 0 {
            return;
        }
        let free = self
            .stations
            .iter()
            .filter(|st| {
                st.reserved_for.is_none()
                    && !st.failed
                    && st.owner_state == OwnerState::Idle
                    && st.residents.is_empty()
            })
            .count();
        let deficit = waiting
            .min(self.config.placements_per_poll)
            .saturating_sub(free);
        if deficit == 0 {
            return;
        }
        // `None` progress marks an arriving copy (free to cancel); running
        // copies carry their start time so the sort keeps the oldest —
        // the likeliest winners — alive. Ties break on (job, station) for
        // determinism.
        let mut cands: Vec<(JobId, usize, Option<SimTime>)> = Vec::new();
        let r = self.redundancy.as_ref().expect("checked above");
        for (jid, stations) in r.by_job.iter().enumerate() {
            if stations.is_empty() {
                continue;
            }
            if !matches!(self.jobs[jid].state, JobState::Running { .. }) {
                continue;
            }
            let job = JobId(jid as u64);
            for &s in stations {
                let i = s as usize;
                let slot = self.stations[i]
                    .residents
                    .iter()
                    .find(|sl| sl.job == job)
                    .expect("by_job lists live replicas");
                match slot.phase {
                    Phase::Replica(ReplicaState::Arriving { .. }) => cands.push((job, i, None)),
                    Phase::Replica(ReplicaState::Running { started, .. }) => {
                        cands.push((job, i, Some(started)));
                    }
                    _ => unreachable!("by_job entries are replica slots"),
                }
            }
        }
        cands.sort_by(|a, b| match (a.2, b.2) {
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (x, y) => y.cmp(&x).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))),
        });
        for &(job, i, _) in cands.iter().take(deficit) {
            self.cancel_replica(now, i, job, sched);
        }
    }

    fn maybe_spawn_replicas(
        &mut self,
        now: SimTime,
        job: JobId,
        primary: NodeId,
        granted: &mut Vec<NodeId>,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(r) = self.redundancy.as_ref() else { return };
        let k = r.k;
        if k == 0 {
            return;
        }
        let live = r.by_job[job.0 as usize].len() as u32;
        if live >= k {
            return;
        }
        let (image, home, width, whole) = {
            let spec = &self.jobs[job.0 as usize].spec;
            (spec.image_bytes, spec.home, spec.width, spec.resources.is_whole())
        };
        // Gangs already coordinate k machines, and fractional jobs share
        // hosts; speculation covers only solo whole-machine jobs.
        if width > 1 || !whole {
            return;
        }
        // Strictly parasitic: speculation spends only *surplus* idle
        // machines. A job still queued anywhere has first claim on idle
        // stations at upcoming polls (the §4 throttle serves one per
        // poll), so replication stands down whenever real demand waits.
        if self.stations.iter().any(|st| !st.queue.is_empty()) {
            return;
        }
        let arch = self.station_arch(primary.as_usize());
        let demand = self.jobs[job.0 as usize].spec.resources;
        // Rank eligible stations by expected *remaining* idle time — the
        // EWMA of completed idle intervals minus the current streak, the
        // same history signal placement uses. A replica lives only until
        // its host's owner returns, so the least-overdue stations make
        // the sturdiest hosts. Ties break on station id for determinism.
        let mut eligible: Vec<(f64, usize)> = Vec::new();
        for i in 0..self.stations.len() {
            let cand = NodeId::new(i as u32);
            if cand == home || granted.contains(&cand) {
                continue;
            }
            let st = &self.stations[i];
            let empty_idle = st.reserved_for.is_none()
                && !st.failed
                && st.owner_state == OwnerState::Idle
                && st.residents.is_empty();
            if !empty_idle
                || self.chaos.as_ref().is_some_and(|c| c.partition_depth[i] > 0)
                || self.station_arch(i) != arch
                || image > st.disk_capacity - st.disk_used
                || !demand.fits(st.capacity)
            {
                continue;
            }
            let streak = self.hot.idle_since[i]
                .map(|t| now.saturating_since(t).as_secs_f64())
                .unwrap_or(0.0);
            eligible.push((self.hot.ewma_idle_secs[i] - streak, i));
        }
        eligible.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).expect("no NaN idle scores").then(a.1.cmp(&b.1))
        });
        for &(_, i) in eligible.iter().take((k - live) as usize) {
            let cand = NodeId::new(i as u32);
            self.stations[i].disk_used += image;
            let booking = self.bus.book_transfer(now, home, cand, image);
            let arrive = sched.at(
                booking.completes_at,
                Event::ReplicaPlaced { job, target: i as u32 },
            );
            self.stations[i].residents.push(ForeignSlot {
                job,
                demand,
                phase: Phase::Replica(ReplicaState::Arriving { arrive }),
            });
            self.hot.used_cap[i] = self.hot.used_cap[i].add(demand);
            self.coord.mark(i);
            self.jobs[job.0 as usize]
                .charge_transfer(self.config.costs.transfer_cpu_cost(image));
            self.redundancy
                .as_mut()
                .expect("checked above")
                .by_job[job.0 as usize]
                .push(i as u32);
            self.totals.replicas_spawned += 1;
            self.emit(now, TraceKind::ReplicaSpawned { job, on: cand });
            // Spoken for until the next flush, like any other grant.
            granted.push(cand);
        }
    }

    /// A replica image arrived: start executing from the job's last
    /// checkpoint if the station is still idle, otherwise give up at once
    /// (zero work wasted — it never ran).
    fn on_replica_placed(
        &mut self,
        now: SimTime,
        job: JobId,
        target: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let t = target as usize;
        // Every cancellation path removes the slot and cancels the pending
        // arrival token, so a live event implies a live Arriving slot.
        if !self.slot_is(t, job, |p| {
            matches!(p, Phase::Replica(ReplicaState::Arriving { .. }))
        }) {
            return;
        }
        if self.stations[t].owner_state != OwnerState::Idle {
            self.cancel_replica(now, t, job, sched);
            return;
        }
        // The replica resumes the image it was sent: the last checkpoint.
        let (remaining, demand) = {
            let j = &self.jobs[job.0 as usize];
            (j.spec.demand.saturating_sub(j.work_checkpointed), j.spec.resources)
        };
        let eff = self.jobs[job.0 as usize]
            .spec
            .speedup
            .effective_milli(demand.cpu_milli)
            .max(1);
        let wall = inflate_wall(self.config.station.wall_time_for(remaining), eff);
        let finish = sched.at(now + wall, Event::ReplicaFinish { job, on: target });
        let st = &mut self.stations[t];
        st.resident_mut(job).expect("slot checked above").phase =
            Phase::Replica(ReplicaState::Running { started: now, finish });
        st.run_overlaps.clear();
        self.coord.mark(t);
        let arch = self.station_arch(t);
        let j = &mut self.jobs[job.0 as usize];
        debug_assert!(
            j.bound_arch.is_none_or(|b| b == arch),
            "replica bound to {:?} started on {arch:?}",
            j.bound_arch
        );
        // A replica's progress could win, so it binds the job's
        // architecture exactly like a primary start does.
        j.bound_arch = Some(arch);
    }

    /// A replica delivered the job's remaining demand first: it wins.
    /// Rival replicas are cancelled, the primary copy is torn down
    /// wherever it is, and the job completes on the winning station.
    fn on_replica_finish(
        &mut self,
        now: SimTime,
        job: JobId,
        on: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let o = on as usize;
        if !self.slot_is(o, job, |p| {
            matches!(p, Phase::Replica(ReplicaState::Running { .. }))
        }) {
            return;
        }
        let slot = self.remove_resident(o, job).expect("slot checked above");
        let Phase::Replica(ReplicaState::Running { started, .. }) = slot.phase else {
            unreachable!("phase checked above")
        };
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        self.stations[o].disk_used -= image;
        self.coord.mark(o);
        let util_end = self.hot.owner_active_since[o].map_or(now, |t| t.min(now));
        self.deposit_run_utilization(o, started, util_end.max(started), 1.0);
        self.redundancy
            .as_mut()
            .expect("replica without runtime")
            .by_job[job.0 as usize]
            .retain(|&s| s as usize != o);
        // Losers first, then the primary: the job's ledgers close below.
        self.cancel_replicas_of(now, job, sched);
        self.retire_primary(now, job, sched);
        {
            let j = &mut self.jobs[job.0 as usize];
            let remaining = j.remaining();
            j.accrue_run(remaining, self.config.costs.remote_syscall_cost.as_millis() * 1_000);
        }
        self.finish_bookkeeping(now, job, on);
    }

    /// Cancels every live replica of `job` (cancel-on-first-finish, owner
    /// return at the primary, crash of the primary's host, horizon).
    fn cancel_replicas_of(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let Some(r) = self.redundancy.as_ref() else { return };
        let stations: Vec<u32> = r.by_job[job.0 as usize].clone();
        for s in stations {
            self.cancel_replica(now, s as usize, job, sched);
        }
    }

    /// Cancels the replica of `job` living on station `i`, freeing the
    /// slot and disk and accounting the thrown-away work.
    fn cancel_replica(&mut self, now: SimTime, i: usize, job: JobId, sched: &mut Scheduler<Event>) {
        let Some(slot) = self.remove_resident(i, job) else { return };
        let Phase::Replica(state) = slot.phase else {
            unreachable!("cancel_replica on a non-replica slot")
        };
        self.stations[i].disk_used -= self.jobs[job.0 as usize].spec.image_bytes;
        self.coord.mark(i);
        self.account_replica_cancel(now, i, job, state, Some(sched));
    }

    /// Shared cancellation tail: cancels the pending event (when a live
    /// scheduler exists — at the horizon none does, and pending events are
    /// moot), deposits any run utilization, unregisters the replica, and
    /// emits the accounting. `wasted_ms` on the trace event is exactly the
    /// reference-machine work the cancelled copy had accrued, so summing
    /// the events reproduces `Totals::wasted_replica_work`.
    fn account_replica_cancel(
        &mut self,
        now: SimTime,
        i: usize,
        job: JobId,
        state: ReplicaState,
        sched: Option<&mut Scheduler<Event>>,
    ) {
        let wasted = match state {
            ReplicaState::Arriving { arrive } => {
                if let Some(s) = sched {
                    s.cancel(arrive);
                }
                SimDuration::ZERO
            }
            ReplicaState::Running { started, finish } => {
                if let Some(s) = sched {
                    s.cancel(finish);
                }
                let util_end = self.hot.owner_active_since[i].map_or(now, |t| t.min(now));
                self.deposit_run_utilization(i, started, util_end.max(started), 1.0);
                self.config.station.work_done_in(now.since(started))
            }
        };
        self.redundancy
            .as_mut()
            .expect("replica without runtime")
            .by_job[job.0 as usize]
            .retain(|&s| s as usize != i);
        self.totals.replicas_cancelled += 1;
        let wasted_ms = wasted.as_millis();
        self.totals.wasted_replica_work += wasted_ms;
        self.emit(
            now,
            TraceKind::ReplicaCancelled { job, on: NodeId::new(i as u32), wasted_ms },
        );
    }

    /// Tears down the primary copy of a job a replica just finished,
    /// whatever the primary was doing: its queue entry, in-flight image,
    /// run segment, or suspended slot disappears; its accrued work stays
    /// on the job's ledgers (the paper's gross remote-CPU accounting).
    fn retire_primary(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        match self.jobs[job.0 as usize].state {
            JobState::Queued => {
                let home = self.jobs[job.0 as usize].spec.home.as_usize();
                self.stations[home].queue.remove(job);
                self.coord.mark(home);
            }
            JobState::Placing { target } => {
                let t = target.as_usize();
                self.stations[t].disk_used -= image;
                self.remove_resident(t, job);
                self.coord.mark(t);
                // Orphan the in-flight PlacementDone.
                self.jobs[job.0 as usize].transfer_seq += 1;
            }
            JobState::Running { on } => {
                let o = on.as_usize();
                let finish = self.stations[o].residents.iter().find_map(|slot| {
                    (slot.job == job)
                        .then_some(match &slot.phase {
                            Phase::Running { finish } => Some(*finish),
                            _ => None,
                        })
                        .flatten()
                });
                if let Some(finish) = finish {
                    sched.cancel(finish);
                }
                let util_end = self.hot.owner_active_since[o].map_or(now, |t| t.min(now));
                self.stop_running_segment(now, o, job, util_end);
                self.stations[o].disk_used -= image;
                self.remove_resident(o, job);
                self.coord.mark(o);
                // Kill any periodic/opportunistic checkpoint chain.
                self.jobs[job.0 as usize].epoch += 1;
            }
            JobState::Suspended { on } => {
                let o = on.as_usize();
                let grace = self.stations[o].residents.iter().find_map(|slot| {
                    (slot.job == job)
                        .then_some(match &slot.phase {
                            Phase::Suspended { grace } => Some(*grace),
                            _ => None,
                        })
                        .flatten()
                });
                if let Some(grace) = grace {
                    sched.cancel(grace);
                }
                self.stations[o].disk_used -= image;
                self.remove_resident(o, job);
                self.coord.mark(o);
            }
            JobState::CheckpointingOut { from } => {
                let f = from.as_usize();
                self.stations[f].disk_used -= image;
                self.remove_resident(f, job);
                self.coord.mark(f);
                // Orphan the in-flight CheckpointDone (and any retry).
                self.jobs[job.0 as usize].transfer_seq += 1;
            }
            // Replicas spawn at placement and die with completion, so the
            // primary can only be in an in-flight state here.
            JobState::Held | JobState::Completed | JobState::Forwarded => {
                debug_assert!(false, "replica finished for a settled primary");
            }
        }
    }

    // ----- gangs: §5(2) parallel programs ---------------------------------

    /// Starts the placement of a width-k gang onto `machines`.
    fn gang_place(
        &mut self,
        now: SimTime,
        home: NodeId,
        job: JobId,
        machines: Vec<u32>,
        sched: &mut Scheduler<Event>,
    ) {
        let (image, seq, demand) = {
            let j = &mut self.jobs[job.0 as usize];
            j.state = JobState::Placing { target: NodeId::new(machines[0]) };
            j.transfer_seq += 1;
            (j.spec.image_bytes, j.transfer_seq, j.spec.resources)
        };
        for &m in &machines {
            let t = m as usize;
            self.stations[t].disk_used += image;
            self.stations[t].residents.push(ForeignSlot { job, demand, phase: Phase::GangMember });
            self.hot.used_cap[t] = self.hot.used_cap[t].add(demand);
            self.coord.mark(t);
            self.jobs[job.0 as usize]
                .charge_transfer(self.config.costs.transfer_cpu_cost(image));
            let booking = self.bus.book_transfer(now, home, NodeId::new(m), image);
            sched.at(booking.completes_at, Event::PlacementDone { job, target: m, seq });
            self.emit(now, TraceKind::PlacementStarted { job, target: NodeId::new(m) });
        }
        self.gangs[job.0 as usize] = Some(Box::new(GangState {
            members: machines,
            staged: 0,
            departed: 0,
            finish: None,
            grace: None,
            running: false,
            departing: false,
        }));
        self.totals.placements += 1;
        self.totals.gang_placements += 1;
    }

    /// All images staged: start executing if every member's owner is idle,
    /// otherwise enter the suspended/grace state.
    fn gang_try_start(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let gang = self.gangs[job.0 as usize].as_deref().expect("gang exists");
        if gang.running || gang.departing || gang.staged < gang.members.len() as u32 {
            return;
        }
        let all_idle = gang
            .members
            .iter()
            .all(|&m| self.stations[m as usize].owner_state == OwnerState::Idle);
        let lead = gang.members[0];
        if all_idle {
            let pending_grace = self.gangs[job.0 as usize]
                .as_deref_mut()
                .expect("gang exists")
                .grace
                .take();
            if let Some(t) = pending_grace {
                sched.cancel(t);
                self.totals.resumes_in_place += 1;
                self.emit(
                    now,
                    TraceKind::JobResumedInPlace { job, on: NodeId::new(lead) },
                );
            }
            let remaining = self.jobs[job.0 as usize].remaining();
            debug_assert!(!remaining.is_zero());
            let wall = self.config.station.wall_time_for(remaining);
            let finish = sched.at(now + wall, Event::Finish { job, on: lead });
            let gang = self.gangs[job.0 as usize].as_deref_mut().expect("gang exists");
            gang.running = true;
            gang.finish = Some(finish);
            gang.grace = None;
            for m in gang.members.clone() {
                self.stations[m as usize].run_overlaps.clear();
                // A running gang member reports `hosting_for`.
                self.coord.mark(m as usize);
            }
            let j = &mut self.jobs[job.0 as usize];
            j.state = JobState::Running { on: NodeId::new(lead) };
            j.running_since = now;
            j.epoch += 1;
            self.emit(now, TraceKind::JobStarted { job, on: NodeId::new(lead) });
        } else if self.gangs[job.0 as usize].as_deref().expect("gang exists").grace.is_none() {
            // Staged onto at least one busy machine: wait out the grace
            // period for the owners to leave (gangs always use the grace
            // strategy — uncoordinated kills would forfeit the §2.3
            // completion guarantee for the whole program).
            let grace = self.gang_grace();
            let token = sched.at(now + grace, Event::GraceOver { station: lead, job });
            self.gangs[job.0 as usize].as_deref_mut().expect("gang exists").grace = Some(token);
            self.jobs[job.0 as usize].state = JobState::Suspended { on: NodeId::new(lead) };
            self.emit(now, TraceKind::JobSuspended { job, on: NodeId::new(lead) });
        }
    }

    fn gang_grace(&self) -> SimDuration {
        match self.config.eviction {
            EvictionStrategy::GraceThenCheckpoint { grace } => grace,
            // Gangs cannot be safely killed without coordination; fall
            // back to the paper's grace value.
            EvictionStrategy::ImmediateKill { .. } => SimDuration::from_minutes(5),
        }
    }

    /// Stops a running gang's accrual (owner detected on `station` or a
    /// priority preemption) and deposits each member's utilization.
    fn gang_stop_accrual(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let gang = self.gangs[job.0 as usize].as_deref_mut().expect("gang exists");
        debug_assert!(gang.running);
        gang.running = false;
        if let Some(finish) = gang.finish.take() {
            sched.cancel(finish);
        }
        let members = gang.members.clone();
        let running_since = self.jobs[job.0 as usize].running_since;
        let wall = now.since(running_since);
        let work = self.config.station.work_done_in(wall);
        self.jobs[job.0 as usize]
            .accrue_run(work, self.config.costs.remote_syscall_cost.as_millis() * 1_000);
        for &m in &members {
            let util_end = self.hot.owner_active_since[m as usize].map_or(now, |t| t.min(now));
            self.deposit_run_utilization(m as usize, running_since, util_end.max(running_since), 1.0);
            // The gang stopped running: members no longer report
            // `hosting_for`.
            self.coord.mark(m as usize);
        }
    }

    /// Owner detected on a member while the gang runs: the whole program
    /// blocks (its processes communicate), so everyone suspends together.
    fn gang_suspend(&mut self, now: SimTime, job: JobId, station: u32, sched: &mut Scheduler<Event>) {
        self.gang_stop_accrual(now, job, sched);
        if let Some(active_since) = self.hot.owner_active_since[station as usize] {
            self.totals.interference_ms += now.saturating_since(active_since).as_millis();
        }
        self.totals.preemptions_owner += 1;
        let lead = self.gangs[job.0 as usize].as_deref().expect("gang exists").members[0];
        let grace = self.gang_grace();
        let token = sched.at(now + grace, Event::GraceOver { station: lead, job });
        self.gangs[job.0 as usize].as_deref_mut().expect("gang exists").grace = Some(token);
        self.jobs[job.0 as usize].state = JobState::Suspended { on: NodeId::new(lead) };
        self.emit(now, TraceKind::JobSuspended { job, on: NodeId::new(station) });
    }

    /// Grace expired or priority preemption: coordinated checkpoint of all
    /// members back to the home station.
    fn gang_checkpoint_out(
        &mut self,
        now: SimTime,
        job: JobId,
        reason: PreemptReason,
        sched: &mut Scheduler<Event>,
    ) {
        let members = {
            let gang = self.gangs[job.0 as usize].as_deref_mut().expect("gang exists");
            debug_assert!(!gang.departing);
            gang.departing = true;
            gang.departed = 0;
            gang.grace = None;
            gang.members.clone()
        };
        let (image, home, seq) = {
            let j = &mut self.jobs[job.0 as usize];
            j.transfer_seq += 1;
            j.state = JobState::CheckpointingOut { from: NodeId::new(members[0]) };
            (j.spec.image_bytes, j.spec.home, j.transfer_seq)
        };
        for &m in &members {
            self.jobs[job.0 as usize]
                .charge_transfer(self.config.costs.transfer_cpu_cost(image));
            let booking = self.bus.book_transfer(now, NodeId::new(m), home, image);
            sched.at(booking.completes_at, Event::CheckpointDone { job, from: m, seq });
            self.emit(
                now,
                TraceKind::CheckpointStarted { job, from: NodeId::new(m), reason, bytes: image },
            );
        }
    }

    /// Frees every member slot and image; optionally rolls the job back to
    /// its last checkpoint (crash path); requeues at home.
    fn gang_teardown_and_requeue(
        &mut self,
        now: SimTime,
        job: JobId,
        rollback: bool,
        sched: &mut Scheduler<Event>,
    ) {
        let gang = self.gangs[job.0 as usize].take().expect("gang exists");
        if let Some(t) = gang.finish {
            sched.cancel(t);
        }
        if let Some(t) = gang.grace {
            sched.cancel(t);
        }
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        if gang.running {
            // Crash mid-run: charge the gross consumption before reverting.
            let running_since = self.jobs[job.0 as usize].running_since;
            let wall = now.since(running_since);
            let work = self.config.station.work_done_in(wall);
            self.jobs[job.0 as usize]
                .accrue_run(work, self.config.costs.remote_syscall_cost.as_millis() * 1_000);
            for &m in &gang.members {
                if self.stations[m as usize].resident(job).is_some() {
                    let util_end =
                        self.hot.owner_active_since[m as usize].map_or(now, |t| t.min(now));
                    self.deposit_run_utilization(
                        m as usize,
                        running_since,
                        util_end.max(running_since),
                        1.0,
                    );
                }
            }
        }
        for &m in &gang.members {
            let mi = m as usize;
            if self.remove_resident(mi, job).is_some() {
                self.stations[mi].disk_used -= image;
            }
            self.coord.mark(mi);
        }
        let j = &mut self.jobs[job.0 as usize];
        if rollback {
            j.revert_to_checkpoint();
            self.totals.crash_rollbacks += 1;
        }
        j.state = JobState::Queued;
        let home = j.spec.home.as_usize();
        let remaining = j.remaining();
        self.stations[home].queue.enqueue_front(job, remaining);
        self.coord.mark(home);
    }

    fn on_reservation_start(&mut self, now: SimTime, idx: u32, sched: &mut Scheduler<Event>) {
        let r = self.config.reservations[idx as usize];
        // Fence machines for the holder: idle free stations first, then
        // stations hosting other users' running jobs (evicted through the
        // normal checkpoint path). The holder's own machine and machines
        // already fenced are skipped.
        let mut fenced = 0usize;
        // Pass 1: free idle machines.
        for i in 0..self.stations.len() {
            if fenced >= r.machines {
                break;
            }
            let st = &self.stations[i];
            if st.reserved_for.is_none()
                && !st.failed
                && st.residents.is_empty()
                && i != r.holder.as_usize()
            {
                self.set_reserved(i, Some(r.holder));
                fenced += 1;
            }
        }
        // Pass 2: evict other users' running jobs to free more machines.
        for i in 0..self.stations.len() {
            if fenced >= r.machines {
                break;
            }
            if self.stations[i].reserved_for.is_some() || i == r.holder.as_usize() {
                continue;
            }
            // Replica-occupied machines are fair game too: the copy is
            // cancelled instantly inside `execute_preempt`.
            let running_other = self.stations[i].residents.iter().any(|slot| {
                matches!(slot.phase, Phase::Running { .. } | Phase::Replica(_))
                    && self.jobs[slot.job.0 as usize].spec.home != r.holder
            });
            if running_other {
                let target = NodeId::new(i as u32);
                if self.execute_preempt(now, target, sched) {
                    self.set_reserved(i, Some(r.holder));
                    fenced += 1;
                }
            }
        }
        self.emit(
            now,
            TraceKind::ReservationStarted { holder: r.holder, machines: fenced as u32 },
        );
    }

    fn on_reservation_end(&mut self, now: SimTime, idx: u32) {
        let r = self.config.reservations[idx as usize];
        for i in 0..self.stations.len() {
            if self.stations[i].reserved_for == Some(r.holder) {
                self.set_reserved(i, None);
            }
        }
        self.emit(now, TraceKind::ReservationEnded { holder: r.holder });
    }

    fn on_station_crash(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        let i = station as usize;
        debug_assert!(!self.stations[i].failed, "double crash");
        self.stations[i].failed = true;
        self.set_reserved(i, None);
        self.totals.station_failures += 1;
        self.emit(now, TraceKind::StationFailed { station: NodeId::new(station) });
        // Every foreign job here loses everything since its last durable
        // checkpoint — the §2.3 guarantee is that it restarts from that
        // checkpoint at another machine, not that nothing is lost.
        let slots = std::mem::take(&mut self.stations[i].residents);
        self.hot.used_cap[i] = ResourceVec::ZERO;
        for slot in slots {
            let job = slot.job;
            match slot.phase {
                Phase::Running { finish } => {
                    sched.cancel(finish);
                    // The cycles were really consumed (gross ledger), but
                    // the progress is gone.
                    self.stop_running_segment(now, i, job, now);
                }
                Phase::Suspended { grace } => {
                    sched.cancel(grace);
                }
                Phase::Arriving | Phase::Departing => {
                    // In-flight transfer dies; its completion event is
                    // recognised as stale by the transfer sequence.
                }
                Phase::GangMember => {
                    // One member down kills the whole parallel program:
                    // tear the gang off every station and restart it from
                    // the last coordinated checkpoint.
                    let image = self.jobs[job.0 as usize].spec.image_bytes;
                    self.stations[i].disk_used -= image;
                    self.gang_teardown_and_requeue(now, job, true, sched);
                    self.emit(
                        now,
                        TraceKind::CrashRollback { job, on: NodeId::new(station) },
                    );
                    continue;
                }
                Phase::Replica(state) => {
                    // A crash destroys the speculative copy outright; the
                    // primary (elsewhere) is untouched, so no rollback.
                    let image = self.jobs[job.0 as usize].spec.image_bytes;
                    self.stations[i].disk_used -= image;
                    self.account_replica_cancel(now, i, job, state, Some(sched));
                    continue;
                }
            }
            let image = self.jobs[job.0 as usize].spec.image_bytes;
            self.stations[i].disk_used -= image;
            let j = &mut self.jobs[job.0 as usize];
            j.revert_to_checkpoint();
            j.state = JobState::Queued;
            let home = j.spec.home.as_usize();
            let remaining = j.remaining();
            self.totals.crash_rollbacks += 1;
            self.stations[home].queue.enqueue_front(job, remaining);
            self.coord.mark(home);
            self.emit(now, TraceKind::CrashRollback { job, on: NodeId::new(station) });
        }
        // Coordinator failover: while its host is down, allocation stops
        // (paper §2.1: "Only the allocation of new capacity ... is
        // affected").
        if station == self.config.coordinator_host {
            self.coordinator_down = true;
        }
        self.schedule_repair(now, station, sched);
    }

    /// With stochastic failures configured, repairs self-schedule;
    /// manually injected crashes (tests, what-if scripts) stay down until
    /// a manual `StationRecover`.
    fn schedule_repair(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        if let Some(failures) = self.config.failures {
            let i = station as usize;
            let repair = {
                let st = &mut self.stations[i];
                SimDuration::from_secs_f64(st.rng.exponential(failures.mttr.as_secs_f64()))
                    .max(SimDuration::SECOND)
            };
            sched.at(now + repair, Event::StationRecover { station });
        }
    }

    fn on_station_recover(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        let i = station as usize;
        debug_assert!(self.stations[i].failed, "recovery without crash");
        self.stations[i].failed = false;
        self.coord.mark(i);
        self.emit(now, TraceKind::StationRecovered { station: NodeId::new(station) });
        if station == self.config.coordinator_host {
            self.coordinator_down = false;
        }
        if let Some(failures) = self.config.failures {
            let ttf = {
                let st = &mut self.stations[i];
                SimDuration::from_secs_f64(st.rng.exponential(failures.mtbf.as_secs_f64()))
                    .max(SimDuration::SECOND)
            };
            sched.at(now + ttf, Event::StationCrash { station });
        }
    }

    // ----- chaos fault injection ----------------------------------------

    /// Applies one schedule entry. Instantaneous faults arm a one-shot
    /// effect; windowed faults open their window and schedule the heal.
    fn on_chaos_fault(&mut self, now: SimTime, idx: u32, sched: &mut Scheduler<Event>) {
        let fault = self.chaos.as_ref().expect("chaos event without config").cfg.schedule.entries
            [idx as usize]
            .fault;
        match fault {
            Fault::CtrlLoss { duration } => {
                let c = self.chaos.as_mut().expect("checked");
                c.ctrl_loss_until = c.ctrl_loss_until.max(now + duration);
            }
            Fault::CtrlDelay { delay } => {
                self.chaos.as_mut().expect("checked").delay_pending = Some(delay);
            }
            Fault::CtrlDup => {
                self.chaos.as_mut().expect("checked").dup_pending = true;
            }
            Fault::CkptCorrupt { duration } => {
                let c = self.chaos.as_mut().expect("checked");
                c.ckpt_corrupt_until = c.ckpt_corrupt_until.max(now + duration);
            }
            Fault::Partition { first_station, machines, duration } => {
                for s in first_station..first_station + machines {
                    let i = s as usize;
                    let depth = {
                        let c = self.chaos.as_mut().expect("checked");
                        c.partition_depth[i] += 1;
                        c.partition_depth[i]
                    };
                    if depth == 1 {
                        self.coord.mark(i);
                        self.emit(now, TraceKind::ChaosLinkDown { station: NodeId::new(s) });
                    }
                }
                sched.at(now + duration, Event::ChaosHeal { idx });
                self.kick_autonomy_sweep(now, sched);
            }
            Fault::CoordinatorOutage { duration } => {
                let depth = {
                    let c = self.chaos.as_mut().expect("checked");
                    c.outage_depth += 1;
                    c.outage_depth
                };
                if depth == 1 {
                    self.emit(now, TraceKind::ChaosCoordDown);
                }
                sched.at(now + duration, Event::ChaosHeal { idx });
                self.kick_autonomy_sweep(now, sched);
            }
        }
    }

    /// Closes a windowed fault. Overlapping windows nest: recovery is
    /// announced only when the last one ends.
    fn on_chaos_heal(&mut self, now: SimTime, idx: u32) {
        let fault = self.chaos.as_ref().expect("chaos event without config").cfg.schedule.entries
            [idx as usize]
            .fault;
        match fault {
            Fault::Partition { first_station, machines, .. } => {
                for s in first_station..first_station + machines {
                    let i = s as usize;
                    let depth = {
                        let c = self.chaos.as_mut().expect("checked");
                        c.partition_depth[i] -= 1;
                        c.partition_depth[i]
                    };
                    if depth == 0 {
                        self.coord.mark(i);
                        self.emit(now, TraceKind::ChaosLinkUp { station: NodeId::new(s) });
                    }
                }
            }
            Fault::CoordinatorOutage { .. } => {
                let depth = {
                    let c = self.chaos.as_mut().expect("checked");
                    c.outage_depth -= 1;
                    c.outage_depth
                };
                if depth == 0 {
                    self.emit(now, TraceKind::ChaosCoordUp);
                }
            }
            _ => debug_assert!(false, "heal scheduled for a windowless fault"),
        }
    }

    /// Arms the autonomy-sweep chain if it is not already running. The
    /// sweep rides the local schedulers' own check grid: autonomy is a
    /// station-side behaviour, reacting at owner-check granularity.
    fn kick_autonomy_sweep(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let interval = self.config.costs.owner_check_interval;
        let c = self.chaos.as_mut().expect("chaos configured");
        if c.sweep_pending {
            return;
        }
        c.sweep_pending = true;
        sched.at(now + interval, Event::ChaosAutonomySweep);
    }

    /// One pass of the cut-off local schedulers: an unreachable, idle,
    /// unoccupied station whose queue holds a runnable width-1 job starts
    /// it locally — paper §2.1: only the allocation of *new* capacity
    /// stops when the coordinator is down; the stations stay autonomous.
    fn on_chaos_autonomy_sweep(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let all_clear = {
            let c = self.chaos.as_ref().expect("chaos configured");
            c.outage_depth == 0 && c.partition_depth.iter().all(|&d| d == 0)
        };
        if all_clear {
            // Every window closed while the sweep was in flight: the chain
            // dies here and re-arms with the next windowed fault.
            self.chaos.as_mut().expect("checked").sweep_pending = false;
            return;
        }
        for i in 0..self.stations.len() {
            if !self.chaos.as_ref().expect("checked").unreachable(i) {
                continue;
            }
            // Speculative copies yield to the station's own queued demand
            // just as they yield to the coordinator's (see
            // `reclaim_replicas_for_demand`) — without this a replica
            // could block the very autonomy the outage path guarantees.
            // Copies whose primary is not running are spared: they are
            // their job's only progress.
            let yieldable = {
                let st = &self.stations[i];
                !st.failed
                    && st.reserved_for.is_none()
                    && st.owner_state == OwnerState::Idle
                    && !st.queue.is_empty()
                    && !st.residents.is_empty()
                    && st.residents.iter().all(|sl| {
                        matches!(sl.phase, Phase::Replica(_))
                            && matches!(
                                self.jobs[sl.job.0 as usize].state,
                                JobState::Running { .. }
                            )
                    })
            };
            if yieldable {
                let mut order = Vec::new();
                self.stations[i].queue.service_order_into(&mut order);
                let arch = self.station_arch(i);
                let runnable = order.iter().any(|id| {
                    let j = &self.jobs[id.0 as usize];
                    j.spec.width == 1 && j.can_run_on(arch)
                });
                if runnable {
                    let replicas: Vec<JobId> =
                        self.stations[i].residents.iter().map(|sl| sl.job).collect();
                    for job in replicas {
                        self.cancel_replica(now, i, job, sched);
                    }
                }
            }
            let st = &self.stations[i];
            if st.failed
                || st.reserved_for.is_some()
                || st.owner_state != OwnerState::Idle
                || !st.residents.is_empty()
                || st.queue.is_empty()
            {
                continue;
            }
            let arch = self.station_arch(i);
            let disk_free = st.disk_capacity - st.disk_used;
            // Width-1 only — a gang needs the coordinator to gather
            // machines. First eligible job in local service order.
            let jobs = &self.jobs;
            let Some(job) = self.stations[i].queue.pop_next_where(|id| {
                let j = &jobs[id.0 as usize];
                j.spec.width == 1 && j.can_run_on(arch) && j.spec.image_bytes <= disk_free
            }) else {
                continue;
            };
            let image = self.jobs[job.0 as usize].spec.image_bytes;
            // The running copy occupies local disk alongside the standing
            // image, exactly as a remote placement would at its target.
            self.stations[i].disk_used += image;
            self.coord.mark(i);
            self.totals.local_starts += 1;
            self.emit(now, TraceKind::ChaosLocalStart { job, on: NodeId::new(i as u32) });
            self.start_running(now, i, job, sched);
        }
        sched.at(now + self.config.costs.owner_check_interval, Event::ChaosAutonomySweep);
    }

    /// Handles a checkpoint transfer that completed inside a corruption
    /// window: announce, count, and schedule the re-send. No job state
    /// changes — the job stays `CheckpointingOut`, the slot `Departing`,
    /// until a clean copy lands.
    fn chaos_corrupt_ckpt(
        &mut self,
        now: SimTime,
        job: JobId,
        from: u32,
        seq: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let (attempt, backoff) = {
            let c = self.chaos.as_mut().expect("corruption window checked");
            let slot = &mut c.retry_attempts[job.0 as usize];
            *slot += 1;
            let attempt = *slot;
            let base = c.cfg.retry_backoff_base.as_millis();
            let cap = c.cfg.retry_backoff_max.as_millis();
            let factor = 1u64 << (attempt - 1).min(20);
            (attempt, SimDuration::from_millis(cap.min(base.saturating_mul(factor))))
        };
        self.totals.ckpt_retries += 1;
        self.emit(
            now,
            TraceKind::ChaosCkptCorrupted { job, from: NodeId::new(from), attempt },
        );
        #[cfg(test)]
        if crate::chaos::test_hooks::BREAK_CKPT_RETRY.with(|b| b.get()) {
            return; // deliberately broken recovery: the re-send is dropped
        }
        sched.at(now + backoff, Event::ChaosCkptRetry { job, from, seq });
    }

    /// Re-sends a corrupted checkpoint image. Stale if the source station
    /// crashed in the meantime (the job has moved on).
    fn on_chaos_ckpt_retry(
        &mut self,
        now: SimTime,
        job: JobId,
        from: u32,
        seq: u32,
        sched: &mut Scheduler<Event>,
    ) {
        if self.jobs[job.0 as usize].transfer_seq != seq
            || !self.slot_is(from as usize, job, |p| matches!(p, Phase::Departing))
        {
            return;
        }
        let (image, home) = {
            let j = &mut self.jobs[job.0 as usize];
            let image = j.spec.image_bytes;
            j.charge_transfer(self.config.costs.transfer_cpu_cost(image));
            (image, j.spec.home)
        };
        let booking = self.bus.book_transfer(now, NodeId::new(from), home, image);
        sched.at(booking.completes_at, Event::CheckpointDone { job, from, seq });
    }

    /// Closes open accounting intervals at the end of observation.
    fn finalize(&mut self, horizon: SimTime) {
        // Horizon cut: every live replica dies unfinished and its progress
        // is wasted — conservation demands the books close on them before
        // the sinks do. No scheduler exists any more, and none is needed:
        // pending events will never fire.
        if self.redundancy.is_some() {
            let live: Vec<(JobId, u32)> = self
                .redundancy
                .as_ref()
                .expect("checked above")
                .by_job
                .iter()
                .enumerate()
                .flat_map(|(j, stations)| {
                    stations.iter().map(move |&s| (JobId(j as u64), s))
                })
                .collect();
            for (job, s) in live {
                let i = s as usize;
                let Some(slot) = self.remove_resident(i, job) else { continue };
                let Phase::Replica(state) = slot.phase else { continue };
                self.stations[i].disk_used -= self.jobs[job.0 as usize].spec.image_bytes;
                self.coord.mark(i);
                self.account_replica_cancel(horizon, i, job, state, None);
            }
        }
        // Running gangs: accrue and deposit each member's utilization.
        // `gangs` is a job-indexed Vec, so this iteration is deterministic.
        let running_gangs: Vec<JobId> = self
            .gangs
            .iter()
            .enumerate()
            .filter(|(_, g)| g.as_deref().is_some_and(|g| g.running))
            .map(|(j, _)| JobId(j as u64))
            .collect();
        for job in running_gangs {
            let running_since = self.jobs[job.0 as usize].running_since;
            if running_since >= horizon {
                continue;
            }
            let wall = horizon.since(running_since);
            let work = self.config.station.work_done_in(wall);
            self.jobs[job.0 as usize]
                .accrue_run(work, self.config.costs.remote_syscall_cost.as_millis() * 1_000);
            let members = self.gangs[job.0 as usize]
                .as_deref()
                .expect("gang exists")
                .members
                .clone();
            for &m in &members {
                let cap = self.hot.owner_active_since[m as usize]
                    .unwrap_or(horizon)
                    .min(horizon);
                self.deposit_run_utilization(m as usize, running_since, cap.max(running_since), 1.0);
            }
            self.jobs[job.0 as usize].running_since = horizon;
        }
        for i in 0..self.stations.len() {
            if let Some(t) = self.hot.owner_active_since[i] {
                if t < horizon {
                    self.local_busy
                        .deposit_interval(t, horizon, horizon.since(t).as_millis() as f64);
                }
                self.hot.owner_active_since[i] = Some(horizon);
            }
            let running_jobs: Vec<JobId> = self.stations[i]
                .residents
                .iter()
                .filter_map(|slot| matches!(slot.phase, Phase::Running { .. }).then_some(slot.job))
                .collect();
            for job in running_jobs {
                let since = self.jobs[job.0 as usize].running_since;
                if since < horizon {
                    // Cap at the owner's return if the segment is inside a
                    // not-yet-detected interference window.
                    let cap = self.hot.owner_active_since[i]
                        .unwrap_or(horizon)
                        .min(horizon);
                    self.stop_running_segment(horizon, i, job, cap);
                    self.jobs[job.0 as usize].running_since = horizon;
                }
            }
        }
        self.stats.finish(horizon);
        for (_, s) in &mut self.extra_sinks {
            s.finish(horizon);
        }
    }
}

impl Model for Cluster {
    type Event = Event;

    fn handle(&mut self, now: SimTime, ev: Event, sched: &mut Scheduler<Event>) {
        match ev {
            Event::Arrival(job) => self.on_arrival(now, job),
            Event::OwnerFlip { station } => self.on_owner_flip(now, station, sched),
            Event::DetectOwner { station } => self.on_detect_owner(now, station, sched),
            Event::Poll => self.on_poll(now, sched),
            Event::PlacementDone { job, target, seq } => {
                self.on_placement_done(now, job, target, seq, sched)
            }
            Event::CheckpointDone { job, from, seq } => {
                self.on_checkpoint_done(now, job, from, seq, sched)
            }
            Event::Finish { job, on } => self.on_finish(now, job, on, sched),
            Event::GraceOver { station, job } => self.on_grace_over(now, station, job, sched),
            Event::PeriodicCkpt { job, on, epoch } => {
                self.on_periodic_ckpt(now, job, on, epoch, sched)
            }
            Event::ReservationStart { idx } => self.on_reservation_start(now, idx, sched),
            Event::ReservationEnd { idx } => self.on_reservation_end(now, idx),
            Event::StationCrash { station } => self.on_station_crash(now, station, sched),
            Event::StationRecover { station } => self.on_station_recover(now, station, sched),
            Event::ChaosFault { idx } => self.on_chaos_fault(now, idx, sched),
            Event::ChaosHeal { idx } => self.on_chaos_heal(now, idx),
            Event::ChaosDelayedPoll { delay_ms } => {
                self.on_chaos_delayed_poll(now, delay_ms, sched)
            }
            Event::ChaosAutonomySweep => self.on_chaos_autonomy_sweep(now, sched),
            Event::ChaosCkptRetry { job, from, seq } => {
                self.on_chaos_ckpt_retry(now, job, from, seq, sched)
            }
            Event::ReplicaPlaced { job, target } => {
                self.on_replica_placed(now, job, target, sched)
            }
            Event::ReplicaFinish { job, on } => self.on_replica_finish(now, job, on, sched),
            Event::OpportunisticCkpt { job, on, epoch } => {
                self.on_opportunistic_ckpt(now, job, on, epoch, sched)
            }
        }
    }
}

/// Unified entry point for executing a simulation.
///
/// One builder replaces the old `run_cluster` / `run_cluster_with_sinks` /
/// `run_cluster_with_threads` trio: configure what you need, then call
/// [`execute`](Run::execute). A config carrying a
/// [`PoolTopology`](crate::config::PoolTopology) runs on the sharded
/// space-parallel engine (worker count from [`threads`](Run::threads), or
/// `CONDOR_THREADS` when unset); otherwise the run is serial.
///
/// # Examples
///
/// ```
/// use condor_core::cluster::Run;
/// use condor_core::config::ClusterConfig;
/// use condor_core::job::{JobId, JobSpec, UserId};
/// use condor_net::NodeId;
/// use condor_sim::time::{SimDuration, SimTime};
///
/// let spec = JobSpec {
///     id: JobId(0),
///     user: UserId(0),
///     home: NodeId::new(0),
///     arrival: SimTime::from_hours(1),
///     demand: SimDuration::from_hours(2),
///     image_bytes: 500_000,
///     syscalls_per_cpu_sec: 1.0,
///     binaries: Default::default(),
///     depends_on: Vec::new(),
///     width: 1,
///     resources: Default::default(),
///     speedup: Default::default(),
/// };
/// let out = Run::new(ClusterConfig::default())
///     .specs(vec![spec])
///     .horizon(SimDuration::from_days(2))
///     .execute();
/// assert_eq!(out.jobs.len(), 1);
/// ```
///
/// Streaming observers attach with [`sink`](Run::sink); keep a
/// [`SharedSink`](crate::telemetry::SharedSink) handle to read one back
/// after the run:
///
/// ```
/// use condor_core::cluster::Run;
/// use condor_core::config::ClusterConfig;
/// use condor_core::telemetry::{SharedSink, VecSink};
/// use condor_sim::time::SimDuration;
///
/// let events = SharedSink::new(VecSink::new());
/// let out = Run::new(
///     ClusterConfig::builder().stations(4).record_trace(false).build().unwrap(),
/// )
/// .horizon(SimDuration::from_hours(6))
/// .sink(Box::new(events.clone()))
/// .execute();
/// // The sink saw the owner activity even though the trace was off.
/// assert_eq!(events.with(|s| s.len()) as u64, out.telemetry.events_total);
/// ```
pub struct Run {
    config: ClusterConfig,
    specs: Vec<JobSpec>,
    horizon: SimDuration,
    sinks: Vec<Box<dyn TraceSink + Send>>,
    threads: Option<usize>,
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("stations", &self.config.stations)
            .field("specs", &self.specs.len())
            .field("horizon", &self.horizon)
            .field("sinks", &self.sinks.len())
            .field("threads", &self.threads)
            .finish()
    }
}

impl Run {
    /// Starts a run description over `config` with no jobs, no sinks, and a
    /// zero horizon (set one with [`horizon`](Run::horizon) or the run ends
    /// immediately).
    pub fn new(config: ClusterConfig) -> Self {
        Run {
            config,
            specs: Vec::new(),
            horizon: SimDuration::ZERO,
            sinks: Vec::new(),
            threads: None,
        }
    }

    /// Sets the workload submitted to the cluster.
    pub fn specs(mut self, specs: Vec<JobSpec>) -> Self {
        self.specs = specs;
        self
    }

    /// Sets how long the simulation runs.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Attaches a streaming [`TraceSink`] observer before the first event.
    /// May be called repeatedly; sinks see events in emit order.
    pub fn sink(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Pins the sharded engine to exactly `threads` worker threads instead
    /// of reading `CONDOR_THREADS`. The config must carry a
    /// [`PoolTopology`](crate::config::PoolTopology).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Builds, primes, and runs the cluster, returning the complete output.
    pub fn execute(self) -> RunOutput {
        let Run { config, specs, horizon, sinks, threads } = self;
        if let Some(threads) = threads {
            assert!(
                config.topology.is_some(),
                "Run::threads requires a pool topology on the config"
            );
            return crate::shard::run_sharded(config, specs, horizon, sinks, Some(threads));
        }
        if config.topology.is_some() {
            return crate::shard::run_sharded(config, specs, horizon, sinks, None);
        }
        let mut cluster = Cluster::new(config, specs);
        for sink in sinks {
            cluster.attach_sink(sink);
        }
        let mut engine = Engine::new(cluster);
        Cluster::prime(&mut engine);
        let end = SimTime::ZERO + horizon;
        engine.run_until(end);
        finish_run(engine, end)
    }
}

/// Builds, primes, and runs a cluster for `horizon`, returning the
/// complete output.
#[deprecated(since = "0.1.0", note = "use `Run::new(config).specs(..).horizon(..).execute()`")]
pub fn run_cluster(config: ClusterConfig, specs: Vec<JobSpec>, horizon: SimDuration) -> RunOutput {
    Run::new(config).specs(specs).horizon(horizon).execute()
}

/// Like [`run_cluster`], with additional [`TraceSink`] observers attached
/// before the first event.
#[deprecated(since = "0.1.0", note = "use `Run` with `.sink(..)`")]
pub fn run_cluster_with_sinks(
    config: ClusterConfig,
    specs: Vec<JobSpec>,
    horizon: SimDuration,
    sinks: Vec<Box<dyn TraceSink + Send>>,
) -> RunOutput {
    let mut run = Run::new(config).specs(specs).horizon(horizon);
    for sink in sinks {
        run = run.sink(sink);
    }
    run.execute()
}

/// Like [`run_cluster`], but running the sharded space-parallel engine on
/// exactly `threads` worker threads instead of reading `CONDOR_THREADS`.
/// The config must carry a [`PoolTopology`](crate::config::PoolTopology).
#[deprecated(since = "0.1.0", note = "use `Run` with `.threads(..)`")]
pub fn run_cluster_with_threads(
    config: ClusterConfig,
    specs: Vec<JobSpec>,
    horizon: SimDuration,
    threads: usize,
) -> RunOutput {
    Run::new(config).specs(specs).horizon(horizon).threads(threads).execute()
}

/// Drains a finished engine into a [`RunOutput`]: closes open accounting
/// intervals at `end` and re-keys the per-user series. Shared by the
/// serial runner and each shard of the parallel runner.
pub(crate) fn finish_run(engine: Engine<Cluster>, end: SimTime) -> RunOutput {
    let events_dispatched = engine.events_dispatched();
    let mut model = engine.into_model();
    model.finalize(end);
    let policy_name = model.policy.name().to_string();
    // Re-key the dense per-user-slot series by user id. Only touched slots
    // appear, matching the old lazily-populated map: a user whose every
    // job was rejected at submission never shows up.
    let queue_by_user: BTreeMap<UserId, StepSeries> = model
        .user_ids
        .iter()
        .zip(model.queue_by_user)
        .zip(&model.user_touched)
        .filter_map(|((user, series), touched)| touched.then_some((*user, series)))
        .collect();
    RunOutput {
        policy_name,
        stations: model.config.stations,
        horizon: end,
        bus_bytes_moved: model.bus.bytes_moved(),
        bus_transfers: model.bus.transfers_booked(),
        jobs: model.jobs,
        trace: model.trace,
        totals: model.totals,
        queue_total: model.queue_total,
        queue_by_user,
        local_busy: model.local_busy,
        remote_busy: model.remote_busy,
        events_dispatched,
        telemetry: model.stats.into_telemetry(),
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use condor_model::diurnal::DiurnalProfile;
    use condor_model::owner::OwnerConfig;

    fn spec(id: u64, user: u32, home: u32, arrival_h: u64, demand_h: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId(user),
            home: NodeId::new(home),
            arrival: SimTime::from_hours(arrival_h),
            demand: SimDuration::from_hours(demand_h),
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 1.0,
            binaries: Default::default(),
            depends_on: Vec::new(),
            width: 1,
            resources: Default::default(),
            speedup: Default::default(),
        }
    }

    /// A config with quiet owners so jobs run undisturbed unless a test
    /// wants otherwise.
    fn quiet_config(stations: usize) -> ClusterConfig {
        ClusterConfig {
            stations,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            owner_heterogeneity: 0.0,
            ..ClusterConfig::default()
        }
    }

    /// A config with busy, flappy owners to exercise preemption paths.
    fn stormy_config(stations: usize) -> ClusterConfig {
        ClusterConfig {
            stations,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.5),
                mean_active_period: SimDuration::from_minutes(8),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn single_job_completes_with_correct_accounting() {
        let out = run_cluster(
            quiet_config(4),
            vec![spec(0, 0, 0, 1, 3)],
            SimDuration::from_days(1),
        );
        let j = &out.jobs[0];
        assert_eq!(j.state, JobState::Completed, "job should finish: {j:?}");
        assert!(j.work_done >= j.spec.demand);
        assert!(j.placements >= 1);
        let wr = j.wait_ratio().unwrap();
        assert!(wr < 0.5, "quiet cluster wait ratio {wr}");
        let lev = j.leverage().unwrap();
        // 3 h at 1 syscall/s → 108 s syscall support + 2.5 s/move.
        assert!(lev > 50.0 && lev < 200.0, "leverage {lev}");
        assert_eq!(out.totals.placements, u64::from(j.placements));
    }

    #[test]
    fn all_jobs_eventually_complete_under_load() {
        let jobs: Vec<JobSpec> = (0..12).map(|i| spec(i, 0, 0, 1, 2)).collect();
        let out = run_cluster(quiet_config(6), jobs, SimDuration::from_days(4));
        let done = out.completed_jobs().count();
        assert_eq!(done, 12, "totals: {:?}", out.totals);
        // Guaranteed-completion property: no work lost under grace strategy.
        for j in &out.jobs {
            assert_eq!(j.work_lost, SimDuration::ZERO);
        }
    }

    #[test]
    fn placement_throttle_spaces_placements() {
        let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0, 0, 0, 10)).collect();
        let out = run_cluster(quiet_config(8), jobs, SimDuration::from_hours(2));
        // One placement per 2-minute poll at most.
        let starts: Vec<SimTime> = out
            .trace
            .filtered(|k| matches!(k, TraceKind::PlacementStarted { .. }))
            .map(|e| e.at)
            .collect();
        assert!(starts.len() >= 5, "expected several placements, got {}", starts.len());
        for w in starts.windows(2) {
            assert!(
                w[1].since(w[0]) >= SimDuration::from_minutes(2),
                "placements {} and {} too close",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn owner_return_suspends_then_checkpoints_and_job_survives() {
        // One station hosts; owners are extremely busy so preemption is
        // guaranteed, but the job still completes thanks to checkpointing.
        let cfg = ClusterConfig {
            stations: 3,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.6),
                mean_active_period: SimDuration::from_minutes(20),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        };
        let out = run_cluster(cfg, vec![spec(0, 0, 0, 0, 8)], SimDuration::from_days(6));
        let j = &out.jobs[0];
        assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
        assert!(
            out.totals.preemptions_owner > 0,
            "busy owners must preempt at least once: {:?}",
            out.totals
        );
        assert_eq!(j.work_lost, SimDuration::ZERO, "grace strategy never loses work");
        assert_eq!(j.work_done, j.spec.demand);
    }

    #[test]
    fn immediate_kill_loses_work_but_completes() {
        let cfg = ClusterConfig {
            eviction: EvictionStrategy::ImmediateKill {
                checkpoint_every: SimDuration::from_minutes(30),
            },
            ..stormy_config(3)
        };
        let out = run_cluster(cfg, vec![spec(0, 0, 0, 0, 6)], SimDuration::from_days(10));
        let j = &out.jobs[0];
        if out.totals.kills > 0 {
            assert!(
                j.remote_cpu >= j.work_done,
                "gross consumption must cover redone work"
            );
        }
        assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
        assert!(out.totals.periodic_checkpoints > 0 || out.totals.kills == 0);
    }

    #[test]
    fn heavy_user_cannot_starve_light_user() {
        // Heavy user floods from station 0; light user submits one batch
        // from station 1 much later. Up-Down must serve the light user
        // promptly.
        let mut jobs: Vec<JobSpec> = (0..30).map(|i| spec(i, 0, 0, 0, 12)).collect();
        for k in 0..3 {
            jobs.push(spec(30 + k, 1, 1, 48, 1));
        }
        let out = run_cluster(quiet_config(6), jobs, SimDuration::from_days(7));
        let light_done: Vec<&Job> = out
            .jobs
            .iter()
            .filter(|j| j.spec.user == UserId(1) && j.state == JobState::Completed)
            .collect();
        assert_eq!(light_done.len(), 3, "light user's batch must complete");
        for j in &light_done {
            let wr = j.wait_ratio().unwrap();
            assert!(wr < 3.0, "light user wait ratio {wr} too high");
        }
    }

    #[test]
    fn updown_preempts_for_light_user() {
        // Saturate: as many heavy jobs as stations, then a light request.
        let mut jobs: Vec<JobSpec> = (0..8).map(|i| spec(i, 0, 0, 0, 200)).collect();
        jobs.push(spec(8, 1, 1, 24, 1));
        let out = run_cluster(quiet_config(4), jobs, SimDuration::from_days(3));
        assert!(
            out.totals.preemptions_priority > 0,
            "light user should trigger a priority preemption: {:?}",
            out.totals
        );
        let light = &out.jobs[8];
        assert_eq!(light.state, JobState::Completed);
    }

    #[test]
    fn coordinator_failure_leaves_running_jobs_alone() {
        let cfg = quiet_config(4);
        let jobs = vec![spec(0, 0, 0, 0, 4), spec(1, 0, 0, 0, 4)];
        let cluster = Cluster::new(cfg, jobs);
        let mut engine = Engine::new(cluster);
        Cluster::prime(&mut engine);
        // Let the first job get placed and start running.
        engine.run_until(SimTime::from_hours(1));
        let running_before: Vec<JobState> =
            engine.model().jobs().iter().map(|j| j.state).collect();
        assert!(
            running_before.iter().any(|s| matches!(s, JobState::Running { .. })),
            "setup: at least one job should be running, got {running_before:?}"
        );
        // Coordinator dies for 10 hours.
        engine.model_mut().set_coordinator_down(true);
        engine.run_until(SimTime::from_hours(11));
        // The running job kept running (and likely finished); no *new*
        // placements happened while the coordinator was down.
        let placements_during = engine
            .model()
            .trace()
            .filtered(|k| matches!(k, TraceKind::PlacementStarted { .. }))
            .filter(|e| e.at > SimTime::from_hours(1))
            .count();
        assert_eq!(placements_during, 0, "no placements while coordinator down");
        let j0 = &engine.model().jobs()[0];
        assert!(
            j0.state == JobState::Completed || matches!(j0.state, JobState::Running { .. }),
            "running job unaffected by coordinator failure: {:?}",
            j0.state
        );
        // Recovery: bring it back, the queued job gets served.
        engine.model_mut().set_coordinator_down(false);
        engine.run_until(SimTime::from_hours(40));
        assert!(
            engine.model().jobs().iter().all(|j| j.state == JobState::Completed),
            "after recovery all jobs complete: {:?}",
            engine.model().jobs().iter().map(|j| j.state).collect::<Vec<_>>()
        );
    }

    #[test]
    fn disk_full_blocks_placement_but_not_forever() {
        // Tiny disks: only one foreign image fits per station.
        let cfg = ClusterConfig {
            station: condor_model::station::StationProfile::new(1.0, 600_000),
            ..quiet_config(3)
        };
        let jobs: Vec<JobSpec> = (0..4).map(|i| spec(i, 0, 0, 0, 1)).collect();
        let out = run_cluster(cfg, jobs, SimDuration::from_days(2));
        // Home station 0 holds 4 × 0.5 MB of checkpoint files — more than
        // 0.6 MB of disk — so some submissions are rejected outright.
        assert!(
            out.totals.submit_rejections > 0,
            "tiny home disk must reject some submissions: {:?}",
            out.totals
        );
        let admitted = out.jobs.iter().filter(|j| !j.rejected).count();
        let done = out.completed_jobs().count();
        assert_eq!(done, admitted, "all admitted jobs complete");
    }

    #[test]
    fn conservation_work_done_equals_demand_for_completed() {
        let jobs: Vec<JobSpec> = (0..10).map(|i| spec(i, (i % 3) as u32, (i % 4) as u32, i, 3)).collect();
        let out = run_cluster(stormy_config(4), jobs, SimDuration::from_days(10));
        for j in out.completed_jobs() {
            assert_eq!(j.work_done, j.spec.demand, "exact completion for {}", j.spec.id);
            assert!(j.remote_cpu >= j.work_done);
            assert!(j.completed_at.unwrap() >= j.spec.arrival + j.spec.demand);
        }
    }

    #[test]
    fn trace_protocol_invariants() {
        let jobs: Vec<JobSpec> = (0..8).map(|i| spec(i, 0, (i % 3) as u32, i, 2)).collect();
        let out = run_cluster(stormy_config(3), jobs, SimDuration::from_days(8));
        // Every job: arrivals == 1; starts >= placements related events...
        for j in 0..8u64 {
            let arr = out.trace.count(
                |k| matches!(k, TraceKind::JobArrived { job } if *job == JobId(j)),
            );
            assert_eq!(arr, 1, "job {j} must arrive exactly once");
            let completed = out.trace.count(
                |k| matches!(k, TraceKind::JobCompleted { job, .. } if *job == JobId(j)),
            );
            assert!(completed <= 1);
        }
        // Placement starts equal placement totals + disk rejections traced
        // separately.
        let starts = out
            .trace
            .count(|k| matches!(k, TraceKind::PlacementStarted { .. }));
        assert_eq!(starts as u64, out.totals.placements);
        // Checkpoint starts match completions (no transfer is lost).
        let ck_start = out
            .trace
            .count(|k| matches!(k, TraceKind::CheckpointStarted { .. }));
        let ck_done = out
            .trace
            .count(|k| matches!(k, TraceKind::CheckpointCompleted { .. }));
        assert_eq!(ck_start, ck_done);
        assert_eq!(ck_done as u64, out.totals.migrations);
    }

    #[test]
    fn queue_series_returns_to_zero_when_all_done() {
        let jobs: Vec<JobSpec> = (0..5).map(|i| spec(i, 0, 0, 0, 1)).collect();
        let out = run_cluster(quiet_config(4), jobs, SimDuration::from_days(2));
        assert_eq!(out.completed_jobs().count(), 5);
        assert_eq!(out.queue_total.value_at_end(), 0.0);
        let user_q = out.queue_by_user.get(&UserId(0)).unwrap();
        assert_eq!(user_q.value_at_end(), 0.0);
        // Peak queue was 5 right after the batch arrived.
        assert_eq!(out.queue_total.max_in(SimTime::ZERO, out.horizon), 5.0);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0, (i % 2) as u32, i, 2)).collect();
        let a = run_cluster(stormy_config(4), jobs.clone(), SimDuration::from_days(3));
        let b = run_cluster(stormy_config(4), jobs.clone(), SimDuration::from_days(3));
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.state, y.state);
            assert_eq!(x.work_done, y.work_done);
            assert_eq!(x.support_us, y.support_us);
        }
        // Different seed → different trace (statistically certain).
        let mut cfg2 = stormy_config(4);
        cfg2.seed = 777;
        let c = run_cluster(cfg2, jobs, SimDuration::from_days(3));
        assert_ne!(a.trace.len(), c.trace.len());
    }

    #[test]
    fn utilization_accounting_is_bounded() {
        let jobs: Vec<JobSpec> = (0..10).map(|i| spec(i, 0, 0, 0, 5)).collect();
        let out = run_cluster(stormy_config(5), jobs, SimDuration::from_days(5));
        let local = out.mean_local_utilization();
        let system = out.mean_system_utilization();
        assert!((0.0..=1.0).contains(&local), "local {local}");
        assert!(system >= local, "system {system} >= local {local}");
        assert!(system <= 1.0 + 1e-9, "system {system}");
        for u in out.system_utilization_hourly() {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "hourly {u}");
        }
        assert!(out.available_station_hours() > 0.0);
        assert!(out.consumed_cpu_hours() > 0.0);
    }

    /// The owner-idle EWMA that feeds history-aware placement: the named
    /// weights form a convex combination, the first observation seeds the
    /// estimate directly, and later samples blend at exactly
    /// `IDLE_EWMA_HISTORY_WEIGHT`/`IDLE_EWMA_SAMPLE_WEIGHT`.
    #[test]
    fn idle_ewma_weights_are_convex_and_seed_on_first_sample() {
        assert_eq!(IDLE_EWMA_HISTORY_WEIGHT + IDLE_EWMA_SAMPLE_WEIGHT, 1.0);
        // First completed idle interval seeds the estimate.
        let seeded = ewma_idle_update(0.0, 600.0);
        assert_eq!(seeded, 600.0);
        // Subsequent intervals blend with the documented weights.
        let blended = ewma_idle_update(seeded, 60.0);
        assert_eq!(
            blended,
            IDLE_EWMA_HISTORY_WEIGHT * 600.0 + IDLE_EWMA_SAMPLE_WEIGHT * 60.0
        );
        // The estimate stays inside the observed range (convexity).
        assert!(blended > 60.0 && blended < 600.0);
    }

    #[test]
    fn history_aware_placement_runs_and_differs() {
        let jobs: Vec<JobSpec> = (0..10).map(|i| spec(i, 0, 0, 0, 4)).collect();
        let base = stormy_config(6);
        let aware = ClusterConfig {
            history_aware_placement: true,
            ..base.clone()
        };
        let a = run_cluster(base, jobs.clone(), SimDuration::from_days(4));
        let b = run_cluster(aware, jobs, SimDuration::from_days(4));
        // Both make progress; the placement order differs at some point.
        assert!(a.completed_jobs().count() > 0);
        assert!(b.completed_jobs().count() > 0);
    }

    #[test]
    fn baseline_policies_run_to_completion() {
        for policy in [PolicyKind::Fifo, PolicyKind::RoundRobin, PolicyKind::Random] {
            let cfg = ClusterConfig {
                policy,
                ..quiet_config(4)
            };
            let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, (i % 2) as u32, (i % 2) as u32, 0, 1)).collect();
            let out = run_cluster(cfg, jobs, SimDuration::from_days(2));
            assert_eq!(out.completed_jobs().count(), 6, "policy {policy:?}");
            assert_eq!(out.totals.preemptions_priority, 0, "baselines never preempt");
        }
    }

    #[test]
    fn resume_in_place_happens_with_short_owner_bursts() {
        // Owners with very short active bursts (well under the 5-minute
        // grace): suspended jobs should frequently resume in place.
        let cfg = ClusterConfig {
            stations: 3,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.3),
                mean_active_period: SimDuration::from_secs(90),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        };
        let out = run_cluster(cfg, vec![spec(0, 0, 0, 0, 20)], SimDuration::from_days(6));
        assert!(
            out.totals.resumes_in_place > 0,
            "short bursts should produce in-place resumes: {:?}",
            out.totals
        );
        assert!(
            out.totals.resumes_in_place + out.totals.migrations >= out.totals.preemptions_owner,
            "every owner preemption resolves via resume or migration"
        );
    }

    #[test]
    fn interference_is_bounded_by_detection_latency() {
        let out = run_cluster(
            stormy_config(4),
            (0..6).map(|i| spec(i, 0, 0, 0, 10)).collect(),
            SimDuration::from_days(4),
        );
        // Each owner preemption can contribute at most one detection
        // interval (30 s) of interference.
        let bound = out.totals.preemptions_owner * 30_000;
        assert!(
            out.totals.interference_ms <= bound,
            "interference {} > bound {}",
            out.totals.interference_ms,
            bound
        );
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod failure_tests {
    use super::*;
    use crate::config::FailureConfig;
    use condor_model::diurnal::DiurnalProfile;
    use condor_model::owner::OwnerConfig;

    fn spec(id: u64, home: u32, demand_h: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId(0),
            home: NodeId::new(home),
            arrival: SimTime::from_hours(1),
            demand: SimDuration::from_hours(demand_h),
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 1.0,
            binaries: Default::default(),
            depends_on: Vec::new(),
            width: 1,
            resources: Default::default(),
            speedup: Default::default(),
        }
    }

    fn crashy_config(stations: usize, mtbf_h: u64, mttr_h: u64) -> ClusterConfig {
        ClusterConfig {
            stations,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.05),
                ..OwnerConfig::default()
            },
            failures: Some(FailureConfig {
                mtbf: SimDuration::from_hours(mtbf_h),
                mttr: SimDuration::from_hours(mttr_h),
            }),
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn jobs_survive_station_crashes() {
        // Frequent crashes: MTBF 12 h per station over a 20-day run.
        let jobs: Vec<JobSpec> = (0..8).map(|i| spec(i, (i % 2) as u32, 6)).collect();
        let out = run_cluster(crashy_config(5, 12, 1), jobs, SimDuration::from_days(20));
        assert!(out.totals.station_failures > 10, "{:?}", out.totals);
        assert_eq!(
            out.completed_jobs().count(),
            8,
            "every job must complete despite crashes: {:?}",
            out.totals
        );
        for j in out.completed_jobs() {
            assert_eq!(j.work_done, j.spec.demand);
        }
    }

    #[test]
    fn crashes_roll_back_to_last_checkpoint() {
        let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0, 10)).collect();
        let out = run_cluster(crashy_config(4, 8, 1), jobs, SimDuration::from_days(25));
        assert!(out.totals.crash_rollbacks > 0, "{:?}", out.totals);
        // Rollbacks redo work: gross consumption exceeds net for some job.
        let lost: f64 = out.jobs.iter().map(|j| j.work_lost.as_hours_f64()).sum();
        assert!(lost > 0.0, "crashes must lose un-checkpointed work");
        // But the guarantee holds.
        assert_eq!(out.completed_jobs().count(), 6);
    }

    #[test]
    fn coordinator_host_crash_stalls_allocation_only() {
        // Deterministic scripted crash via direct model driving.
        let cfg = ClusterConfig {
            stations: 4,
            coordinator_host: 0,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        };
        let jobs = vec![spec(0, 1, 4), spec(1, 1, 4), spec(2, 1, 4)];
        let cluster = Cluster::new(cfg, jobs);
        let mut engine = Engine::new(cluster);
        Cluster::prime(&mut engine);
        // Let one job start.
        engine.run_until(SimTime::from_hours(2));
        let placements_before = engine.model().totals().placements;
        assert!(placements_before >= 1);
        // Crash the coordinator host.
        engine
            .scheduler()
            .immediately(Event::StationCrash { station: 0 });
        engine.run_until(SimTime::from_hours(2) + SimDuration::from_secs(1));
        // For the next 6 hours no new placements may start, but running
        // jobs keep finishing.
        engine.run_until(SimTime::from_hours(8));
        let placements_during = engine.model().totals().placements;
        assert_eq!(
            placements_during, placements_before,
            "no allocation while the coordinator host is down"
        );
        let finished: usize = engine
            .model()
            .jobs()
            .iter()
            .filter(|j| j.state == JobState::Completed)
            .count();
        assert!(finished >= 1, "running jobs complete during the outage");
        // Recover and drain.
        engine
            .scheduler()
            .immediately(Event::StationRecover { station: 0 });
        engine.run_until(SimTime::from_hours(40));
        assert!(engine
            .model()
            .jobs()
            .iter()
            .all(|j| j.state == JobState::Completed));
    }

    #[test]
    fn checkpoint_server_lifts_home_disk_limit() {
        // Tiny home disks: without a server most submissions bounce;
        // with the §4 checkpoint server everything is admitted.
        let base = ClusterConfig {
            station: condor_model::station::StationProfile::new(1.0, 600_000),
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            stations: 4,
            ..ClusterConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0, 1)).collect();
        let without = run_cluster(base.clone(), jobs.clone(), SimDuration::from_days(2));
        assert!(without.totals.submit_rejections > 0);
        let with = run_cluster(
            ClusterConfig { checkpoint_server: true, ..base },
            jobs,
            SimDuration::from_days(2),
        );
        assert_eq!(with.totals.submit_rejections, 0, "server absorbs the images");
        assert_eq!(with.completed_jobs().count(), 6);
    }

    #[test]
    fn crash_and_transfer_race_is_harmless() {
        // Pathological setup: constant crashing with long repairs while
        // transfers are slow (tiny bandwidth). Exercises the stale
        // transfer-sequence guards; the run must neither panic nor violate
        // conservation.
        let mut cfg = crashy_config(3, 4, 2);
        cfg.bus = condor_net::BusConfig {
            bandwidth_bytes_per_sec: 20_000, // 25 s per image
            ..condor_net::BusConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..5).map(|i| spec(i, (i % 3) as u32, 3)).collect();
        let out = run_cluster(cfg, jobs, SimDuration::from_days(30));
        for j in &out.jobs {
            assert!(j.work_done <= j.spec.demand);
            assert!(j.remote_cpu >= j.work_done);
            if j.state == JobState::Completed {
                assert_eq!(j.work_done, j.spec.demand);
            }
        }
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod arch_tests {
    use super::*;
    use condor_model::diurnal::DiurnalProfile;
    use condor_model::owner::OwnerConfig;
    use condor_model::station::{Arch, ArchSet};

    fn spec_with_binaries(id: u64, home: u32, demand_h: u64, binaries: ArchSet) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId(0),
            home: NodeId::new(home),
            arrival: SimTime::from_hours(1),
            demand: SimDuration::from_hours(demand_h),
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 1.0,
            binaries,
            depends_on: Vec::new(),
            width: 1,
            resources: Default::default(),
            speedup: Default::default(),
        }
    }

    fn mixed_fleet(stations: usize) -> ClusterConfig {
        ClusterConfig {
            stations,
            arch_pattern: vec![Arch::Vax, Arch::Sun],
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn vax_only_jobs_never_run_on_suns() {
        // Fleet alternates VAX (even) / SUN (odd).
        let jobs: Vec<JobSpec> =
            (0..6).map(|i| spec_with_binaries(i, 0, 2, ArchSet::vax_only())).collect();
        let out = run_cluster(mixed_fleet(6), jobs, SimDuration::from_days(3));
        assert_eq!(out.completed_jobs().count(), 6);
        for ev in out.trace.events() {
            if let TraceKind::JobStarted { on, .. } = ev.kind {
                assert_eq!(
                    on.index() % 2,
                    0,
                    "VAX-only job started on SUN station {on}"
                );
            }
        }
    }

    #[test]
    fn dual_binary_jobs_use_the_whole_fleet() {
        let jobs: Vec<JobSpec> =
            (0..8).map(|i| spec_with_binaries(i, 0, 3, ArchSet::both())).collect();
        let out = run_cluster(mixed_fleet(4), jobs, SimDuration::from_days(4));
        assert_eq!(out.completed_jobs().count(), 8);
        let mut archs_used = std::collections::HashSet::new();
        for ev in out.trace.events() {
            if let TraceKind::JobStarted { on, .. } = ev.kind {
                archs_used.insert(on.index() % 2);
            }
        }
        assert_eq!(archs_used.len(), 2, "dual binaries should reach both arches");
    }

    #[test]
    fn work_binds_jobs_to_their_first_architecture() {
        // Stormy owners force migrations; a dual-binary job must keep
        // migrating within its first architecture.
        let cfg = ClusterConfig {
            stations: 6,
            arch_pattern: vec![Arch::Vax, Arch::Sun],
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.5),
                mean_active_period: SimDuration::from_minutes(15),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        };
        let jobs = vec![spec_with_binaries(0, 0, 20, ArchSet::both())];
        let out = run_cluster(cfg, jobs, SimDuration::from_days(12));
        let hosts: Vec<u32> = out
            .trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::JobStarted { on, .. } => Some(on.index()),
                _ => None,
            })
            .collect();
        assert!(hosts.len() > 1, "expected migrations, hosts: {hosts:?}");
        let first_arch = hosts[0] % 2;
        assert!(
            hosts.iter().all(|h| h % 2 == first_arch),
            "job crossed architectures after binding: {hosts:?}"
        );
        assert_eq!(out.jobs[0].state, JobState::Completed);
        assert_eq!(
            out.jobs[0].bound_arch,
            Some(if first_arch == 0 { Arch::Vax } else { Arch::Sun })
        );
    }

    #[test]
    fn arch_starvation_is_counted() {
        // Only SUN machines are ever idle (1-station VAX fleet is the
        // home and owner-busy there is irrelevant: home hosts jobs too).
        // Construct: 2 stations [Vax, Sun]; a SUN-only... simpler: jobs are
        // SUN-only, fleet has a VAX; grants to the VAX waste.
        let cfg = ClusterConfig {
            stations: 2,
            arch_pattern: vec![Arch::Vax, Arch::Sun],
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        };
        let jobs: Vec<JobSpec> =
            (0..3).map(|i| spec_with_binaries(i, 0, 1, ArchSet::sun_only())).collect();
        let out = run_cluster(cfg, jobs, SimDuration::from_days(2));
        assert_eq!(out.completed_jobs().count(), 3, "{:?}", out.totals);
        assert!(
            out.totals.arch_starvation > 0,
            "grants to the VAX machine must be wasted: {:?}",
            out.totals
        );
        for ev in out.trace.events() {
            if let TraceKind::JobStarted { on, .. } = ev.kind {
                assert_eq!(on.index(), 1, "SUN-only job on the VAX");
            }
        }
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod reservation_tests {
    use super::*;
    use crate::config::Reservation;
    use condor_model::diurnal::DiurnalProfile;
    use condor_model::owner::OwnerConfig;

    fn spec(id: u64, user: u32, home: u32, arrival_h: u64, demand_h: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId(user),
            home: NodeId::new(home),
            arrival: SimTime::from_hours(arrival_h),
            demand: SimDuration::from_hours(demand_h),
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 1.0,
            binaries: Default::default(),
            depends_on: Vec::new(),
            width: 1,
            resources: Default::default(),
            speedup: Default::default(),
        }
    }

    fn flooded_config(reservations: Vec<Reservation>) -> ClusterConfig {
        ClusterConfig {
            stations: 6,
            reservations,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            owner_heterogeneity: 0.0,
            ..ClusterConfig::default()
        }
    }

    /// A heavy flood from station 0 plus a 3-job batch from station 1 that
    /// arrives exactly when its reservation window opens.
    fn duel_jobs() -> Vec<JobSpec> {
        let mut jobs: Vec<JobSpec> = (0..40).map(|i| spec(i, 0, 0, 0, 50)).collect();
        for k in 0..3 {
            jobs.push(spec(40 + k, 1, 1, 48, 2));
        }
        jobs
    }

    #[test]
    fn reservation_fences_machines_and_serves_the_holder() {
        let reservation = Reservation {
            holder: NodeId::new(1),
            machines: 3,
            from: SimTime::from_hours(48),
            until: SimTime::from_hours(60),
        };
        let out = run_cluster(
            flooded_config(vec![reservation]),
            duel_jobs(),
            SimDuration::from_days(4),
        );
        // The reservation evicted heavy jobs at the window start.
        let started = out
            .trace
            .filtered(|k| matches!(k, TraceKind::ReservationStarted { .. }))
            .next()
            .expect("reservation started");
        assert_eq!(started.at, SimTime::from_hours(48));
        if let TraceKind::ReservationStarted { machines, holder } = started.kind {
            assert_eq!(holder, NodeId::new(1));
            assert_eq!(machines, 3, "all three machines fenced (by eviction)");
        }
        // At least two of the three holder jobs go through the fenced fast
        // path. The exact count depends on the owner-activity RNG stream (a
        // fenced machine whose owner is momentarily active at poll time
        // defers to the general path), so don't pin all three.
        assert!(out.totals.reservation_placements >= 2, "{:?}", out.totals);
        // The holder's jobs all complete inside the window with near-zero
        // wait (2 h jobs, 12 h window, 3 machines).
        for j in out.jobs.iter().filter(|j| j.spec.user == UserId(1)) {
            assert_eq!(j.state, JobState::Completed, "{:?}", j.spec.id);
            let done = j.completed_at.unwrap();
            assert!(
                done <= SimTime::from_hours(60),
                "job {} finished at {done}, after the window",
                j.spec.id
            );
        }
        let ended = out
            .trace
            .count(|k| matches!(k, TraceKind::ReservationEnded { .. }));
        assert_eq!(ended, 1);
    }

    #[test]
    fn without_reservation_the_flood_delays_the_batch() {
        // Control for the test above: same workload, no reservation, FIFO
        // policy (no Up-Down protection) — the batch waits far longer.
        let mut with_r = f64::NAN;
        let mut without = f64::NAN;
        for (reserve, out_var) in [(true, 0usize), (false, 1usize)] {
            let reservations = if reserve {
                vec![Reservation {
                    holder: NodeId::new(1),
                    machines: 3,
                    from: SimTime::from_hours(48),
                    until: SimTime::from_hours(60),
                }]
            } else {
                Vec::new()
            };
            let cfg = ClusterConfig {
                policy: crate::config::PolicyKind::Fifo,
                ..flooded_config(reservations)
            };
            let out = run_cluster(cfg, duel_jobs(), SimDuration::from_days(10));
            // For jobs still waiting at the horizon, use the elapsed wait
            // as a lower bound so an unserved batch counts as a huge (not
            // missing) wait.
            let mean_wait: f64 = {
                let waits: Vec<f64> = out
                    .jobs
                    .iter()
                    .filter(|j| j.spec.user == UserId(1))
                    .map(|j| {
                        j.wait_ratio().unwrap_or_else(|| {
                            let waited = out.horizon.saturating_since(j.spec.arrival);
                            waited.as_secs_f64() / j.spec.demand.as_secs_f64()
                        })
                    })
                    .collect();
                waits.iter().sum::<f64>() / waits.len().max(1) as f64
            };
            if out_var == 0 {
                with_r = mean_wait;
            } else {
                without = mean_wait;
            }
        }
        assert!(
            with_r < without / 2.0,
            "reservation must slash the batch's wait: {with_r:.2} vs {without:.2}"
        );
    }

    #[test]
    fn fence_lifts_after_the_window() {
        let reservation = Reservation {
            holder: NodeId::new(1),
            machines: 3,
            from: SimTime::from_hours(10),
            until: SimTime::from_hours(12),
        };
        // Only the heavy user; the holder never uses its window. Enough
        // work that the backlog outlives the reservation window.
        let jobs: Vec<JobSpec> = (0..20).map(|i| spec(i, 0, 0, 0, 12)).collect();
        let out = run_cluster(
            flooded_config(vec![reservation]),
            jobs,
            SimDuration::from_days(4),
        );
        // Heavy placements continue after the window closes and all jobs
        // eventually complete.
        assert_eq!(out.completed_jobs().count(), 20, "{:?}", out.totals);
        let placements_after_window = out
            .trace
            .filtered(|k| matches!(k, TraceKind::PlacementStarted { .. }))
            .filter(|e| e.at > SimTime::from_hours(12))
            .count();
        assert!(placements_after_window > 0, "pool must reopen");
    }

    #[test]
    fn owner_activity_beats_reservations() {
        // Owners on fenced machines still preempt the holder's jobs.
        let reservation = Reservation {
            holder: NodeId::new(1),
            machines: 2,
            from: SimTime::from_hours(1),
            until: SimTime::from_hours(40),
        };
        let cfg = ClusterConfig {
            stations: 4,
            reservations: vec![reservation],
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.5),
                mean_active_period: SimDuration::from_minutes(30),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        };
        let jobs = vec![spec(0, 1, 1, 1, 15)];
        let out = run_cluster(cfg, jobs, SimDuration::from_days(5));
        assert_eq!(out.jobs[0].state, JobState::Completed);
        assert!(
            out.totals.preemptions_owner > 0,
            "owners must still preempt on fenced machines: {:?}",
            out.totals
        );
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod dependency_tests {
    use super::*;
    use condor_model::diurnal::DiurnalProfile;
    use condor_model::owner::OwnerConfig;

    fn spec_dep(id: u64, arrival_h: u64, demand_h: u64, deps: Vec<u64>) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId(0),
            home: NodeId::new(0),
            arrival: SimTime::from_hours(arrival_h),
            demand: SimDuration::from_hours(demand_h),
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 0.5,
            binaries: Default::default(),
            depends_on: deps.into_iter().map(JobId).collect(),
            width: 1,
            resources: Default::default(),
            speedup: Default::default(),
        }
    }

    fn quiet(stations: usize) -> ClusterConfig {
        ClusterConfig {
            stations,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn pipeline_runs_in_order() {
        // A → B → C, all submitted at once on a big idle cluster.
        let jobs = vec![
            spec_dep(0, 0, 2, vec![]),
            spec_dep(1, 0, 2, vec![0]),
            spec_dep(2, 0, 2, vec![1]),
        ];
        let out = run_cluster(quiet(6), jobs, SimDuration::from_days(2));
        assert_eq!(out.completed_jobs().count(), 3);
        let done: Vec<SimTime> = out.jobs.iter().map(|j| j.completed_at.unwrap()).collect();
        assert!(done[0] < done[1] && done[1] < done[2], "{done:?}");
        // B could not start before A finished.
        let b_start = out
            .trace
            .filtered(|k| matches!(k, TraceKind::JobStarted { job, .. } if *job == JobId(1)))
            .next()
            .unwrap()
            .at;
        assert!(b_start >= done[0], "B started {b_start} before A finished {}", done[0]);
    }

    #[test]
    fn diamond_joins_wait_for_both_parents() {
        //   0
        //  / \
        // 1   2   (1 is short, 2 is long)
        //  \ /
        //   3
        let jobs = vec![
            spec_dep(0, 0, 1, vec![]),
            spec_dep(1, 0, 1, vec![0]),
            spec_dep(2, 0, 6, vec![0]),
            spec_dep(3, 0, 1, vec![1, 2]),
        ];
        let out = run_cluster(quiet(6), jobs, SimDuration::from_days(2));
        assert_eq!(out.completed_jobs().count(), 4);
        let done_2 = out.jobs[2].completed_at.unwrap();
        let start_3 = out
            .trace
            .filtered(|k| matches!(k, TraceKind::JobStarted { job, .. } if *job == JobId(3)))
            .next()
            .unwrap()
            .at;
        assert!(start_3 >= done_2, "join started before the slow parent finished");
    }

    #[test]
    fn dependency_completed_before_arrival_does_not_hold() {
        // Parent at t=0 (1 h); child arrives at t=30 h, long after.
        let jobs = vec![spec_dep(0, 0, 1, vec![]), spec_dep(1, 30, 1, vec![0])];
        let out = run_cluster(quiet(4), jobs, SimDuration::from_days(3));
        assert_eq!(out.completed_jobs().count(), 2);
        let child = &out.jobs[1];
        // Served promptly: wait ratio near zero.
        assert!(child.wait_ratio().unwrap() < 0.5, "{:?}", child.wait_ratio());
    }

    #[test]
    fn held_jobs_count_in_the_queue_but_never_place() {
        let jobs = vec![spec_dep(0, 0, 4, vec![]), spec_dep(1, 0, 1, vec![0])];
        let cluster = Cluster::new(quiet(4), jobs);
        let mut engine = Engine::new(cluster);
        Cluster::prime(&mut engine);
        engine.run_until(SimTime::from_hours(2));
        let m = engine.model();
        assert_eq!(m.jobs()[1].state, JobState::Held);
        // No placement of the held job yet.
        let placed = m
            .trace()
            .count(|k| matches!(k, TraceKind::PlacementStarted { job, .. } if *job == JobId(1)));
        assert_eq!(placed, 0);
        engine.run_until(SimTime::from_hours(30));
        assert_eq!(engine.model().jobs()[1].state, JobState::Completed);
    }

    #[test]
    #[should_panic(expected = "dependencies must reference lower ids")]
    fn forward_dependencies_rejected() {
        let jobs = vec![spec_dep(0, 0, 1, vec![1]), spec_dep(1, 0, 1, vec![])];
        Cluster::new(quiet(2), jobs);
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod gang_tests {
    use super::*;
    use condor_model::diurnal::DiurnalProfile;
    use condor_model::owner::OwnerConfig;

    fn gang_spec(id: u64, width: u32, demand_h: u64, arrival_h: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId(0),
            home: NodeId::new(0),
            arrival: SimTime::from_hours(arrival_h),
            demand: SimDuration::from_hours(demand_h),
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 1.0,
            binaries: Default::default(),
            depends_on: Vec::new(),
            width,
            resources: Default::default(),
            speedup: Default::default(),
        }
    }

    fn quiet(stations: usize) -> ClusterConfig {
        ClusterConfig {
            stations,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            owner_heterogeneity: 0.0,
            ..ClusterConfig::default()
        }
    }

    fn stormy(stations: usize) -> ClusterConfig {
        ClusterConfig {
            stations,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.4),
                mean_active_period: SimDuration::from_minutes(20),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn gang_runs_on_k_machines_and_completes() {
        let out = run_cluster(quiet(6), vec![gang_spec(0, 3, 4, 0)], SimDuration::from_days(1));
        let j = &out.jobs[0];
        assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
        assert_eq!(j.work_done, SimDuration::from_hours(4));
        // Capacity consumed = width × work.
        assert_eq!(j.remote_cpu, SimDuration::from_hours(12));
        assert!(out.totals.gang_placements >= 1);
        // Every gang placement round ships exactly width images.
        let member_placements = out
            .trace
            .count(|k| matches!(k, TraceKind::PlacementStarted { .. }));
        assert_eq!(member_placements as u64, 3 * out.totals.gang_placements);
        // Utilization ledger saw 3 machine-streams of ~4 h.
        assert!(
            (out.consumed_cpu_hours() - 12.0).abs() < 0.5,
            "consumed {}",
            out.consumed_cpu_hours()
        );
    }

    #[test]
    fn gang_waits_until_enough_machines() {
        // 4 stations; a width-3 gang plus enough singles to crowd it out
        // initially. The gang must eventually assemble 3 machines.
        let mut jobs = vec![gang_spec(0, 3, 2, 0)];
        for i in 1..4 {
            jobs.push(gang_spec(i, 1, 6, 0));
        }
        let out = run_cluster(quiet(4), jobs, SimDuration::from_days(2));
        assert_eq!(out.completed_jobs().count(), 4, "{:?}", out.totals);
    }

    #[test]
    fn owner_on_any_member_suspends_the_whole_gang() {
        // Stormy owners: the width-3 gang will be interrupted repeatedly
        // but must finish with exact work accounting.
        let out = run_cluster(stormy(6), vec![gang_spec(0, 3, 10, 0)], SimDuration::from_days(20));
        let j = &out.jobs[0];
        assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
        assert_eq!(j.work_done, j.spec.demand);
        assert_eq!(j.work_lost, SimDuration::ZERO, "grace checkpointing never loses work");
        assert!(
            out.totals.preemptions_owner > 0,
            "storms must interrupt: {:?}",
            out.totals
        );
        // Gross consumption covers width × net work.
        assert!(j.remote_cpu >= j.work_done * 3);
    }

    #[test]
    fn gang_eviction_moves_all_members() {
        let out = run_cluster(stormy(8), vec![gang_spec(0, 4, 12, 0)], SimDuration::from_days(20));
        let j = &out.jobs[0];
        assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
        if j.checkpoints > 0 {
            // Each gang migration ships width images home.
            let ckpt_transfers = out
                .trace
                .count(|k| matches!(k, TraceKind::CheckpointCompleted { .. }));
            assert_eq!(ckpt_transfers as u32, j.checkpoints * 4);
        }
    }

    #[test]
    fn gang_survives_member_crash() {
        let cfg = ClusterConfig {
            failures: Some(crate::config::FailureConfig {
                mtbf: SimDuration::from_hours(30),
                mttr: SimDuration::from_hours(1),
            }),
            ..quiet(6)
        };
        let out = run_cluster(cfg, vec![gang_spec(0, 3, 12, 0)], SimDuration::from_days(25));
        let j = &out.jobs[0];
        assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
        assert_eq!(j.work_done, j.spec.demand);
        if out.totals.crash_rollbacks > 0 {
            assert!(j.remote_cpu > j.spec.demand * 3, "redone work shows in gross ledger");
        }
    }

    #[test]
    fn no_station_hosts_two_jobs_even_with_gangs() {
        // Mixed gang + single workload under storms; replay residency.
        let mut jobs = vec![gang_spec(0, 3, 5, 0), gang_spec(1, 2, 4, 2)];
        for i in 2..8 {
            jobs.push(gang_spec(i, 1, 3, i));
        }
        let out = run_cluster(stormy(8), jobs, SimDuration::from_days(15));
        assert_eq!(out.completed_jobs().count(), 8, "{:?}", out.totals);
        // Replay per-station occupancy from placement/teardown events.
        use std::collections::HashMap;
        let mut resident: HashMap<u32, JobId> = HashMap::new();
        for ev in out.trace.events() {
            match ev.kind {
                TraceKind::PlacementStarted { job, target } => {
                    if let Some(&other) = resident.get(&target.index()) {
                        panic!("{target} got {job} while holding {other} at {}", ev.at);
                    }
                    resident.insert(target.index(), job);
                }
                TraceKind::CheckpointCompleted { job, from, .. } => {
                    assert_eq!(resident.remove(&from.index()), Some(job));
                }
                TraceKind::CrashRollback { job, on } => {
                    // Crash frees every member of that job wherever it is.
                    resident.retain(|_, r| *r != job);
                    let _ = on;
                }
                TraceKind::JobCompleted { job, .. } => {
                    resident.retain(|_, r| *r != job);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn priority_preemption_vacates_whole_gang() {
        // Saturate 4 machines with a width-4 gang from a heavy home, then
        // a light home requests: Up-Down preempts, freeing all 4.
        let mut jobs = vec![gang_spec(0, 4, 300, 0)];
        jobs.push(JobSpec {
            id: JobId(1),
            user: UserId(1),
            home: NodeId::new(1),
            arrival: SimTime::from_hours(24),
            demand: SimDuration::HOUR,
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 0.5,
            binaries: Default::default(),
            depends_on: Vec::new(),
            width: 1,
            resources: Default::default(),
            speedup: Default::default(),
        });
        let out = run_cluster(quiet(4), jobs, SimDuration::from_days(4));
        assert_eq!(out.jobs[1].state, JobState::Completed, "{:?}", out.totals);
        assert!(out.totals.preemptions_priority > 0, "{:?}", out.totals);
        // The gang's coordinated eviction shipped 4 images at once.
        let evicted_images = out
            .trace
            .count(|k| matches!(k, TraceKind::CheckpointStarted { .. }));
        assert!(evicted_images >= 4, "{evicted_images}");
    }

    #[test]
    #[should_panic(expected = "needs 5 machines but the fleet has 4")]
    fn oversized_gang_rejected() {
        let _ = Cluster::new(quiet(4), vec![gang_spec(0, 5, 1, 0)]);
    }
}

//! Interest equivalence: a sink that declares an [`Interest`] must reach
//! the same results whether it is offered the whole stream or only what
//! it declared.
//!
//! Producers skip every call a sink's interest excludes — the cluster's
//! fan-out, the sharded runner's replay, and [`SharedSink`] itself. Each
//! stream below runs twice with the same observers: once behind a handle
//! that declares nothing and so is offered every event and sample, once
//! behind a [`SharedSink`] that passes on the declared interest. The span
//! log, the audit's violations and replica ledger, the kind filter's
//! output and the availability profile must come out identical, on the
//! serial runner and on a two-pool sharded run at one and two threads.

use std::sync::{Arc, Mutex};

use condor::core::chaos::{ChaosEntry, Fault};
use condor::metrics::availability::AvailabilitySink;
use condor::model::diurnal::DiurnalProfile;
use condor::model::owner::OwnerConfig;
use condor::model::station::ResourceVec;
use condor::prelude::*;

/// Offers every call to the sink it wraps: it keeps the default
/// interest, so no producer filters anything on its behalf.
#[derive(Debug)]
struct Unfiltered<S>(Arc<Mutex<S>>);

impl<S: TraceSink> TraceSink for Unfiltered<S> {
    fn record(&mut self, ev: &TraceEvent) {
        self.0.lock().unwrap().record(ev);
    }

    fn sample(&mut self, s: &GaugeSample) {
        self.0.lock().unwrap().sample(s);
    }

    fn finish(&mut self, at: SimTime) {
        self.0.lock().unwrap().finish(at);
    }
}

/// The caller's side of one attached observer.
enum Handle<S: TraceSink> {
    Unfiltered(Arc<Mutex<S>>),
    Declared(SharedSink<S>),
}

impl<S: TraceSink + 'static> Handle<S> {
    /// Attaches `sink` to `run` behind the handle for `declared`.
    fn attach(run: Run, sink: S, declared: bool) -> (Run, Handle<S>) {
        if declared {
            let shared = SharedSink::new(sink);
            (run.sink(Box::new(shared.clone())), Handle::Declared(shared))
        } else {
            let whole = Arc::new(Mutex::new(sink));
            (run.sink(Box::new(Unfiltered(Arc::clone(&whole)))), Handle::Unfiltered(whole))
        }
    }

    fn into_inner(self) -> S {
        match self {
            Handle::Unfiltered(whole) => {
                Arc::try_unwrap(whole).expect("run finished").into_inner().unwrap()
            }
            Handle::Declared(shared) => shared.try_into_inner().expect("run finished"),
        }
    }
}

/// Everything the observers concluded about one run.
#[derive(Debug, PartialEq)]
struct Seen {
    spans: SpanLog,
    violations: Vec<AuditViolation>,
    audited_events: u64,
    replicas: (u64, u64, u64),
    filtered: Vec<TraceEvent>,
    filter_passed: u64,
    /// Debug form, so a NaN statistic still compares equal to itself.
    availability: String,
}

/// One stream: a config, its jobs and horizon.
struct Stream {
    name: &'static str,
    config: ClusterConfig,
    jobs: Vec<JobSpec>,
    horizon: SimDuration,
}

/// Runs `stream` with every observer attached, offered everything or only
/// its declared interest; `threads` runs it on a two-pool topology.
fn observe(stream: &Stream, threads: Option<usize>, declared: bool) -> Seen {
    let mut config = stream.config.clone();
    let mut audit = AuditSink::new()
        .with_poll_interval(config.costs.coordinator_poll_interval)
        .with_capacities(
            (0..config.stations)
                .map(|i| {
                    let profiles = &config.capacity_profiles;
                    if profiles.is_empty() {
                        ResourceVec::WHOLE
                    } else {
                        profiles[i % profiles.len()]
                    }
                })
                .collect(),
        );
    let mut run_threads = None;
    if let Some(t) = threads {
        config.topology = Some(PoolTopology::uniform(2, SimDuration::from_minutes(10)));
        audit = audit.with_pools(2);
        run_threads = Some(t);
    }
    let stations = config.stations;
    let mut run = Run::new(config).specs(stream.jobs.clone()).horizon(stream.horizon);
    if let Some(t) = run_threads {
        run = run.threads(t);
    }
    let (run, spans) = Handle::attach(run, SpanSink::new(), declared);
    let (run, audit) = Handle::attach(run, audit, declared);
    let filter = KindFilterSink::from_names(
        VecSink::new(),
        ["job_started", "checkpoint_completed", "owner_idle", "replica_spawned"],
    )
    .unwrap();
    let (run, filter) = Handle::attach(run, filter, declared);
    let (run, availability) = Handle::attach(run, AvailabilitySink::new(stations), declared);
    run.execute();

    let audit = audit.into_inner();
    let filter = filter.into_inner();
    Seen {
        spans: spans.into_inner().into_log(),
        violations: audit.violations().to_vec(),
        audited_events: audit.events_seen(),
        replicas: audit.replica_totals(),
        filter_passed: filter.passed(),
        filtered: filter.into_inner().into_events(),
        availability: format!("{:?}", availability.into_inner().profile()),
    }
}

/// Busy, flappy owners so evictions and checkpoint traffic happen.
fn stormy(stations: usize) -> ClusterConfig {
    ClusterConfig {
        stations,
        seed: 7,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.5),
            mean_active_period: SimDuration::from_minutes(8),
            ..OwnerConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn job(i: u64, stations: u64) -> JobSpec {
    JobSpec {
        id: JobId(i),
        user: UserId((i % 3) as u32),
        home: NodeId::new((i % stations) as u32),
        arrival: SimTime::from_secs(900 * i),
        demand: SimDuration::from_hours(1 + i % 3),
        image_bytes: 400_000,
        syscalls_per_cpu_sec: 1.0,
        binaries: Default::default(),
        depends_on: Vec::new(),
        width: 1,
        resources: Default::default(),
        speedup: Default::default(),
    }
}

fn jobs(n: u64, stations: u64) -> Vec<JobSpec> {
    (0..n).map(|i| job(i, stations)).collect()
}

/// A coordinator outage, a partition, lost, delayed and duplicated
/// polls, and corrupted checkpoints, spread over the first day.
fn storm() -> ChaosSchedule {
    let hours = SimDuration::from_hours;
    let faults = [
        (2, Fault::CoordinatorOutage { duration: hours(3) }),
        (6, Fault::Partition { first_station: 1, machines: 2, duration: hours(2) }),
        (9, Fault::CtrlLoss { duration: hours(1) }),
        (11, Fault::CtrlDelay { delay: SimDuration::from_secs(40) }),
        (12, Fault::CtrlDup),
        (13, Fault::CkptCorrupt { duration: hours(4) }),
    ];
    ChaosSchedule {
        entries: faults
            .into_iter()
            .map(|(h, fault)| ChaosEntry { at: SimTime::from_hours(h), fault })
            .collect(),
    }
}

fn streams() -> Vec<Stream> {
    let month = paper_month(3);
    let chaos = ClusterConfig { chaos: Some(ChaosConfig::new(storm())), ..stormy(12) };
    let gangs = {
        let mut jobs = jobs(14, 12);
        for j in jobs.iter_mut().step_by(3) {
            j.width = 3;
        }
        jobs
    };
    let replicas = ClusterConfig {
        policy: PolicyKind::Redundant(RedundancyConfig::default()),
        ..stormy(12)
    };
    let fractional = ClusterConfig {
        policy: PolicyKind::Frac,
        capacity_profiles: vec![ResourceVec::WHOLE, ResourceVec::new(500, 500)],
        ..stormy(12)
    };
    let shares = [1000u32, 250, 500];
    let fractional_jobs = (0..18)
        .map(|i| JobSpec { resources: ResourceVec::share(shares[i as usize % 3]), ..job(i, 12) })
        .collect();
    vec![
        Stream {
            name: "paper month",
            config: month.config,
            jobs: month.jobs,
            horizon: SimDuration::from_days(10),
        },
        Stream { name: "chaos", config: chaos, jobs: jobs(16, 12), horizon: SimDuration::from_days(2) },
        Stream { name: "gangs", config: stormy(12), jobs: gangs, horizon: SimDuration::from_days(2) },
        Stream {
            name: "replicas",
            config: replicas,
            jobs: jobs(16, 12),
            horizon: SimDuration::from_days(2),
        },
        Stream {
            name: "fractional",
            config: fractional,
            jobs: fractional_jobs,
            horizon: SimDuration::from_days(2),
        },
    ]
}

#[test]
fn declared_interest_changes_no_observer_result() {
    for stream in streams() {
        for threads in [None, Some(1), Some(2)] {
            let everything = observe(&stream, threads, false);
            let declared = observe(&stream, threads, true);
            let mode = threads.map_or("serial".to_string(), |t| format!("2 pools, {t} thread(s)"));
            assert!(
                !everything.spans.jobs.is_empty() && !everything.filtered.is_empty(),
                "{} ({mode}): the stream exercised nothing",
                stream.name
            );
            assert_eq!(everything, declared, "{} ({mode})", stream.name);
        }
    }
}

/// The built-in declarations this file relies on: the span folder and the
/// auditor skip samples, the span folder skips polls and owner flips, and
/// a kind filter narrows whatever its inner sink reads.
#[test]
fn built_in_sinks_declare_what_they_skip() {
    let poll = TraceKind::CoordinatorPolled {
        free_machines: 0,
        waiting_jobs: 0,
        placements: 0,
        preemptions: 0,
    };
    let flip = TraceKind::OwnerIdle { station: NodeId::new(0) };
    let start = TraceKind::JobStarted { job: JobId(0), on: NodeId::new(0) };

    let spans = SpanSink::new().interest();
    assert!(!spans.wants(&poll) && !spans.wants(&flip) && spans.wants(&start));
    assert!(!spans.wants_samples());

    let audit = AuditSink::new().interest();
    assert_eq!(audit, Interest::ALL.without_samples());

    let filter = KindFilterSink::from_names(SpanSink::new(), ["job_started", "owner_idle"]).unwrap();
    let narrowed = filter.interest();
    assert!(narrowed.wants(&start) && !narrowed.wants(&flip) && !narrowed.wants(&poll));
    assert_eq!(SharedSink::new(filter).interest(), narrowed);
}

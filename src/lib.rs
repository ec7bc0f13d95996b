//! # condor — a hunter of idle workstations
//!
//! A comprehensive Rust reproduction of *Condor — A Hunter of Idle
//! Workstations* (Litzkow, Livny & Mutka, ICDCS 1988): the cycle-scavenging
//! scheduler that ran long background jobs on idle machines, checkpointed
//! them off when owners returned, and divided spare capacity fairly with
//! the Up-Down algorithm.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | condor-sim | deterministic discrete-event kernel, RNG, distributions, series |
//! | [`ckpt`] | condor-ckpt | checkpoint image format, CRC-framed codec, capacity-checked store |
//! | [`net`] | condor-net | shared-medium LAN model (latency + serialised bulk transfers) |
//! | [`model`] | condor-model | owner-activity processes, diurnal profiles, the paper's cost model |
//! | [`core`] | condor-core | coordinator, local schedulers, Up-Down + baselines, full cluster sim |
//! | [`workload`] | condor-workload | Table 1-calibrated users, scenarios, trace CSV |
//! | [`metrics`] | condor-metrics | wait ratio / leverage / utilization estimators, ASCII reports |
//! | [`runtime`] | condor-runtime | live threaded mini-Condor with real checkpointable programs |
//!
//! ## Quick start
//!
//! ```
//! use condor::prelude::*;
//!
//! // The paper's month: 23 stations, 5 users, 918 jobs.
//! let scenario = condor::workload::scenarios::paper_month(1988);
//! // (Run a shorter horizon here to keep the doctest fast.)
//! let out = Run::new(scenario.config)
//!     .specs(scenario.jobs)
//!     .horizon(SimDuration::from_days(2))
//!     .execute();
//! assert!(out.totals.placements > 0);
//! ```

#![warn(missing_docs)]

pub use condor_ckpt as ckpt;
pub use condor_core as core;
pub use condor_metrics as metrics;
pub use condor_model as model;
pub use condor_net as net;
pub use condor_runtime as runtime;
pub use condor_sim as sim;
pub use condor_workload as workload;

/// The items most programs need.
pub mod prelude {
    pub use condor_core::cluster::{Cluster, Run, RunOutput};
    #[allow(deprecated)]
    pub use condor_core::cluster::{run_cluster, run_cluster_with_sinks, run_cluster_with_threads};
    pub use condor_core::config::{
        ClusterConfig, ClusterConfigBuilder, ConfigError, EvictionStrategy, FailureConfig,
        PolicyKind, PoolTopology,
    };
    pub use condor_core::redundancy::{CkptTiming, RedundancyConfig};
    pub use condor_core::shard::default_threads;
    pub use condor_core::audit::{AuditSink, AuditViolation, AuditViolationKind};
    pub use condor_core::chaos::{
        explore, shrink_schedule, verify_conservation, verify_schedule, ChaosConfig, ChaosGen,
        ChaosSchedule,
    };
    pub use condor_core::job::{Job, JobId, JobSpec, JobState, SpeedupCurve, UserId};
    pub use condor_core::spans::{Breakdown, SpanLog, SpanPhase, SpanSink};
    pub use condor_core::telemetry::{
        FanoutSink, GaugeSample, Interest, KindFilterSink, RingSink, SharedSink, StatsSink,
        Telemetry, TraceSink, VecSink,
    };
    pub use condor_core::trace::{Trace, TraceEvent, TraceKind};
    pub use condor_core::updown::{UpDown, UpDownConfig};
    pub use condor_metrics::export::{spans_to_chrome_trace, JsonlSink};
    pub use condor_metrics::report::{render_spans, render_telemetry};
    pub use condor_net::{NodeId, PoolLinks};
    pub use condor_sim::time::{SimDuration, SimTime};
    pub use condor_workload::scenarios::{fairness_duel, one_week, paper_month};
}

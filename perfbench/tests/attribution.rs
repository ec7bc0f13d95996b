//! Checks of the benchmark's own machinery: the step classifier, the
//! output digest, and the traced run's attribution and counts.

use condor_core::cluster::Run;
use condor_core::job::JobId;
use condor_core::trace::TraceKind;
use condor_metrics::summary::summarize;
use condor_net::NodeId;
use condor_perfbench::{digest, traced_run, Counts, StepClass, UNATTRIBUTED_TOLERANCE};
use condor_sim::time::{SimDuration, SimTime};
use condor_workload::scenarios::paper_month;

const JOB: JobId = JobId(7);
const NODE: NodeId = NodeId::new(3);

fn polled(placements: u32) -> TraceKind {
    TraceKind::CoordinatorPolled {
        free_machines: 4,
        waiting_jobs: 9,
        placements,
        preemptions: 0,
    }
}

#[test]
fn a_placing_poll_is_classed_as_a_poll() {
    // The placement is emitted before the poll marker.
    let kinds = [
        TraceKind::PlacementStarted {
            job: JOB,
            target: NODE,
        },
        polled(1),
    ];
    assert_eq!(StepClass::of_kinds(&kinds), StepClass::Poll);
}

#[test]
fn steps_are_classed_by_priority() {
    let suspend = [
        TraceKind::OwnerActive { station: NODE },
        TraceKind::JobSuspended { job: JOB, on: NODE },
    ];
    assert_eq!(StepClass::of_kinds(&suspend), StepClass::Lifecycle);
    assert_eq!(
        StepClass::of_kinds(&[TraceKind::OwnerIdle { station: NODE }]),
        StepClass::Flip
    );
    assert_eq!(
        StepClass::of_kinds(&[TraceKind::JobArrived { job: JOB }]),
        StepClass::Other
    );
    assert_eq!(StepClass::of_kinds(&[]), StepClass::Other);
}

#[test]
fn digest_changes_when_one_completion_time_changes() {
    let sc = paper_month(3);
    let horizon = SimDuration::from_days(4);
    let run = || {
        Run::new(sc.config.clone())
            .specs(sc.jobs.clone())
            .horizon(horizon)
            .execute()
    };
    let mut out = run();
    let summary = summarize(&out);
    let before = digest(&out, &summary);
    assert_eq!(
        before,
        digest(&run(), &summary),
        "identical runs digest identically"
    );

    let job = out
        .jobs
        .iter_mut()
        .find(|j| j.completed_at.is_some())
        .expect("some job completes within four days");
    let done = job.completed_at.expect("found above");
    job.completed_at = Some(SimTime::from_millis(done.as_millis() + 1));
    assert_ne!(digest(&out, &summary), before);
}

#[test]
fn attribution_adds_up_and_counts_match_the_untraced_run() {
    let sc = paper_month(5);
    let horizon = SimDuration::from_days(6);
    let untraced = Run::new(sc.config.clone())
        .specs(sc.jobs.clone())
        .horizon(horizon)
        .execute();
    let traced = traced_run(sc.config.clone(), sc.jobs.clone(), horizon, Vec::new());

    assert_eq!(traced.counts, Counts::of_output(&untraced));
    let a = traced.attribution;
    assert_eq!(a.class_steps.iter().sum::<u64>(), traced.counts.events);
    assert_eq!(
        a.class_steps[StepClass::Poll.index()],
        untraced.totals.polls
    );
    assert!(
        untraced.totals.placements > 0,
        "the window must exercise placing polls"
    );

    assert_eq!(a.parts_ns() as i64 + a.unattributed_ns(), a.wall_ns as i64);
    assert!(
        a.adds_up(),
        "unattributed {} ns of {} ns exceeds {UNATTRIBUTED_TOLERANCE}",
        a.unattributed_ns(),
        a.wall_ns
    );
}

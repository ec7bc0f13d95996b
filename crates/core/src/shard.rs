//! Space-parallel within-run simulation: per-pool shards with
//! conservative lookahead.
//!
//! A [`PoolTopology`] on the config partitions the fleet into contiguous
//! per-pool shards. Each shard is a complete [`Cluster`] — its own
//! stations, queues, coordinator cache, and event wheel — advanced by its
//! own [`Engine`]. Shards run a conservative synchronous-window discrete
//! event simulation:
//!
//! 1. Every shard advances independently to the next window barrier
//!    `T + W`, where the window `W` never exceeds the minimum inter-pool
//!    message latency (the lookahead, [`condor_net::PoolLinks::min_latency`]).
//! 2. At the barrier, cross-shard traffic is exchanged: saturated pools
//!    (waiting jobs, zero free machines) forward overflow jobs to the pool
//!    with the most free capacity. A message sent at barrier `T` is
//!    delivered at `T + latency ≥ T + W` — never inside any shard's
//!    already-simulated past, which is what makes the parallel run safe
//!    without rollback.
//! 3. The per-shard outputs are merged deterministically at the end of
//!    the run: trace events ordered by `(time, pool, emission index)`,
//!    job/station ids remapped back to the global namespace, and the
//!    aggregate series summed.
//!
//! Every cross-thread decision (which jobs move, where they land, how the
//! merge ties break) is taken on the main thread in pool order, so the
//! output is **bit-identical at any worker thread count** — `threads`
//! only changes how many shards advance concurrently between barriers. A
//! one-pool topology degenerates to the classic serial simulation: the
//! single shard sees the exact same config, seed, and event sequence, and
//! the windowed [`Engine::run_until`] calls tile into one contiguous run.
//!
//! Live [`TraceSink`]s attached to a multi-pool run observe the merged
//! stream with one caveat: [`GaugeSample`]s are per-pool (each shard's
//! coordinator polls its own pool), and events are replayed in batches at
//! window granularity rather than the instant they happen.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use condor_net::NodeId;
use condor_sim::engine::Engine;
use condor_sim::series::StepSeries;
use condor_sim::time::{SimDuration, SimTime};

use crate::cluster::{finish_run, Cluster, Event, RunOutput, Totals};
use crate::config::{ClusterConfig, ConfigError, PoolTopology};
use crate::job::{Job, JobId, JobSpec, JobState, UserId};
use crate::telemetry::{Emission, GaugeSample, Interest, Telemetry, TraceSink};
use crate::trace::{Trace, TraceEvent};

/// Worker threads to use when the caller does not pin a count: the
/// `CONDOR_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism, otherwise one.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CONDOR_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Mixes a pool index into the master seed. Pool 0 keeps the master seed
/// unchanged so a one-pool topology reproduces the serial run exactly;
/// later pools get decorrelated owner/dwell substreams (station RNG
/// streams are keyed by shard-local index, so without this every pool
/// would replay pool 0's owners).
fn shard_seed(seed: u64, pool: usize) -> u64 {
    seed ^ (pool as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One pool's slice of the run: its engine plus the bookkeeping needed to
/// translate shard-local ids back to the global namespace.
struct ShardSlot {
    engine: Engine<Cluster>,
    meta: ShardMeta,
}

/// The id-translation bookkeeping that outlives a shard's engine.
struct ShardMeta {
    /// Global index of this shard's first station.
    station_base: usize,
    /// Shard-local job id → global job id (grows on adoption).
    to_global: Vec<JobId>,
}

/// Buffers one shard's emissions (events and gauge samples) in emission
/// order so the main thread can drain and merge them at each barrier.
/// Every call lands in the shared buffer at once — unlike a
/// [`SharedSink`](crate::telemetry::SharedSink), which batches — because
/// the drain reads it mid-run.
#[derive(Debug, Clone)]
struct EmitLog {
    items: Arc<Mutex<Vec<Emission>>>,
    /// Everything the user's sinks read between them.
    interest: Interest,
}

impl EmitLog {
    fn push(&self, e: Emission) {
        self.items.lock().expect("emit log lock").push(e);
    }
}

impl TraceSink for EmitLog {
    fn record(&mut self, ev: &TraceEvent) {
        self.push(Emission::Event(*ev));
    }

    fn sample(&mut self, s: &GaugeSample) {
        self.push(Emission::Sample(*s));
    }

    fn interest(&self) -> Interest {
        self.interest
    }
}

/// Derives pool `p`'s shard configuration from the global one: local
/// fleet size, decorrelated seed, the arch pattern rotated so every
/// station keeps its global architecture, the coordinator host and
/// reservations remapped into local ids, and the chaos schedule routed to
/// the pools it targets.
fn shard_config(
    config: &ClusterConfig,
    range: &Range<usize>,
    pool: usize,
    chaos_parts: Option<&[crate::chaos::ChaosConfig]>,
) -> ClusterConfig {
    let mut c = config.clone();
    c.topology = None;
    c.stations = range.len();
    c.seed = shard_seed(config.seed, pool);
    let n = config.arch_pattern.len();
    c.arch_pattern = (0..n).map(|k| config.arch_pattern[(range.start + k) % n]).collect();
    // Capacity profiles cycle over global station ids exactly like the
    // arch pattern: rotate so every station keeps its global capacity.
    let m = config.capacity_profiles.len();
    c.capacity_profiles =
        (0..m).map(|k| config.capacity_profiles[(range.start + k) % m]).collect();
    let coord = config.coordinator_host as usize;
    // Each pool runs its own coordinator. The pool holding the global
    // coordinator host keeps it; the others default to their station 0.
    c.coordinator_host =
        if range.contains(&coord) { (coord - range.start) as u32 } else { 0 };
    c.reservations = config
        .reservations
        .iter()
        .filter(|r| range.contains(&r.holder.as_usize()))
        .map(|r| {
            let mut r = *r;
            r.holder = NodeId::new((r.holder.as_usize() - range.start) as u32);
            r
        })
        .collect();
    c.chaos = chaos_parts.map(|parts| parts[pool].clone());
    c
}

/// Splits the global job list into per-pool spec lists with dense local
/// ids, returning the specs alongside each pool's local → global id map.
/// Dependencies must stay inside one pool — a shard cannot observe
/// another shard's completions mid-window.
fn partition_jobs(
    specs: &[JobSpec],
    topo: &PoolTopology,
    stations: usize,
    ranges: &[Range<usize>],
) -> (Vec<Vec<JobSpec>>, Vec<Vec<JobId>>) {
    let pools = topo.pools;
    let mut shard_specs: Vec<Vec<JobSpec>> = (0..pools).map(|_| Vec::new()).collect();
    let mut to_global: Vec<Vec<JobId>> = (0..pools).map(|_| Vec::new()).collect();
    let mut pool_of_job: Vec<u32> = Vec::with_capacity(specs.len());
    let mut local_of_job: Vec<u64> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        assert!(
            spec.id.0 as usize == i,
            "invalid cluster configuration: {}",
            ConfigError::JobIdsNotDense
        );
        assert!(
            spec.home.as_usize() < stations,
            "invalid cluster configuration: {}",
            ConfigError::JobHomeOutsideFleet { job: spec.id, home: spec.home }
        );
        let p = topo.pool_of(spec.home.as_usize(), stations);
        let mut local = spec.clone();
        local.id = JobId(shard_specs[p].len() as u64);
        local.home = NodeId::new((spec.home.as_usize() - ranges[p].start) as u32);
        local.depends_on = spec
            .depends_on
            .iter()
            .map(|d| {
                assert!(
                    d.0 < spec.id.0,
                    "invalid cluster configuration: {}",
                    ConfigError::JobDependencyOrder { job: spec.id, dep: *d }
                );
                assert!(
                    pool_of_job[d.0 as usize] == p as u32,
                    "invalid cluster configuration: {}",
                    ConfigError::TopologyCrossPoolDependency { job: spec.id, dep: *d }
                );
                JobId(local_of_job[d.0 as usize])
            })
            .collect();
        pool_of_job.push(p as u32);
        local_of_job.push(to_global[p].len() as u64);
        to_global[p].push(spec.id);
        shard_specs[p].push(local);
    }
    (shard_specs, to_global)
}

/// Barrier-instant overflow forwarding, run by the main thread alone in
/// pool order (deterministic regardless of worker thread count). A pool
/// with waiting jobs and no free machine hands up to
/// `max_forwards_per_window` simple jobs to the pool with the most free
/// machines; each forward is delivered as an arrival one link latency
/// later — at or beyond the next barrier, which is what the lookahead
/// guarantees.
fn exchange_overflow(slots: &[Mutex<ShardSlot>], topo: &PoolTopology, h: SimTime) {
    let pools = slots.len();
    if pools < 2 || topo.max_forwards_per_window == 0 {
        return;
    }
    let mut free = vec![0u32; pools];
    let mut waiting = vec![0u32; pools];
    for (p, slot) in slots.iter().enumerate() {
        let mut s = slot.lock().expect("shard lock");
        let (f, w) = s.engine.model_mut().capacity_snapshot();
        free[p] = f;
        waiting[p] = w;
    }
    for p in 0..pools {
        for _ in 0..topo.max_forwards_per_window {
            if waiting[p] == 0 || free[p] > 0 {
                break;
            }
            // Most free capacity wins; ties go to the lowest pool id.
            let Some(q) = (0..pools)
                .filter(|&q| q != p && free[q] > 0)
                .max_by_key(|&q| (free[q], std::cmp::Reverse(q)))
            else {
                break;
            };
            let (spec, global) = {
                let mut src = slots[p].lock().expect("shard lock");
                let Some(spec) = src.engine.model_mut().extract_forwardable(h, q as u32)
                else {
                    break;
                };
                let global = src.meta.to_global[spec.id.0 as usize];
                (spec, global)
            };
            let deliver = h + topo.links.latency(p, q);
            let mut dst = slots[q].lock().expect("shard lock");
            let local = dst.engine.model_mut().adopt_spec(spec);
            debug_assert_eq!(local.0 as usize, dst.meta.to_global.len());
            dst.meta.to_global.push(global);
            dst.engine.scheduler().at(deliver, Event::Arrival(local));
            waiting[p] -= 1;
            free[q] -= 1;
        }
    }
}

/// Rewrites one shard-emitted event into the global namespace.
fn remap_event(ev: TraceEvent, meta: &ShardMeta) -> TraceEvent {
    let base = meta.station_base as u32;
    TraceEvent {
        at: ev.at,
        kind: ev.kind.remapped(
            &|j: JobId| meta.to_global[j.0 as usize],
            &|n: NodeId| NodeId::new(n.as_usize() as u32 + base),
        ),
    }
}

/// Drains every shard's emission buffer, merges the batch by
/// `(time, pool, emission index)`, remaps ids, and replays it into the
/// user's sinks.
fn drain_emit_logs(
    logs: &[EmitLog],
    slots: &[Mutex<ShardSlot>],
    user_sinks: &mut [(Interest, Box<dyn TraceSink + Send>)],
) {
    if logs.is_empty() || user_sinks.is_empty() {
        return;
    }
    let mut batch: Vec<(SimTime, usize, usize, Emission)> = Vec::new();
    for (p, log) in logs.iter().enumerate() {
        let items = std::mem::take(&mut *log.items.lock().expect("emit log lock"));
        if items.is_empty() {
            continue;
        }
        let slot = slots[p].lock().expect("shard lock");
        for (i, item) in items.into_iter().enumerate() {
            let item = match item {
                Emission::Event(ev) => Emission::Event(remap_event(ev, &slot.meta)),
                sample => sample,
            };
            batch.push((item.at(), p, i, item));
        }
    }
    batch.sort_by_key(|&(at, p, i, _)| (at, p, i));
    for (_, _, _, item) in batch {
        for (interest, sink) in user_sinks.iter_mut() {
            if item.wanted_by(*interest) {
                item.deliver(&mut **sink);
            }
        }
    }
}

/// Field-wise sum of aggregate counters.
fn add_totals(acc: &mut Totals, t: &Totals) {
    acc.placements += t.placements;
    acc.migrations += t.migrations;
    acc.periodic_checkpoints += t.periodic_checkpoints;
    acc.kills += t.kills;
    acc.preemptions_owner += t.preemptions_owner;
    acc.preemptions_priority += t.preemptions_priority;
    acc.resumes_in_place += t.resumes_in_place;
    acc.placement_disk_rejections += t.placement_disk_rejections;
    acc.arch_starvation += t.arch_starvation;
    acc.submit_rejections += t.submit_rejections;
    acc.polls += t.polls;
    acc.poll_memo_hits += t.poll_memo_hits;
    acc.interference_ms += t.interference_ms;
    acc.reservation_placements += t.reservation_placements;
    acc.gang_placements += t.gang_placements;
    acc.station_failures += t.station_failures;
    acc.crash_rollbacks += t.crash_rollbacks;
    acc.local_starts += t.local_starts;
    acc.ckpt_retries += t.ckpt_retries;
    acc.jobs_forwarded += t.jobs_forwarded;
    acc.jobs_adopted += t.jobs_adopted;
    acc.replicas_spawned += t.replicas_spawned;
    acc.replicas_cancelled += t.replicas_cancelled;
    acc.wasted_replica_work += t.wasted_replica_work;
}

/// K-way merge of the per-shard traces by `(time, pool)` — each shard's
/// trace is already time-sorted, so ties break toward the lower pool id,
/// matching the barrier processing order — with every event rewritten
/// into the global namespace.
fn merge_traces(outs: &[RunOutput], metas: &[ShardMeta]) -> Trace {
    let mut merged = Trace::new();
    let mut idx = vec![0usize; outs.len()];
    loop {
        let mut best: Option<(SimTime, usize)> = None;
        for (p, out) in outs.iter().enumerate() {
            if let Some(ev) = out.trace.events().get(idx[p]) {
                if best.is_none_or(|(t, _)| ev.at < t) {
                    best = Some((ev.at, p));
                }
            }
        }
        let Some((_, p)) = best else { break };
        let ev = remap_event(outs[p].trace.events()[idx[p]], &metas[p]);
        merged.record(ev.at, ev.kind);
        idx[p] += 1;
    }
    merged
}

/// Merges the per-shard [`RunOutput`]s into one global output: jobs back
/// in their global slots (a forwarded job's destination copy supersedes
/// the source-pool stub), traces k-way merged, series summed, counters
/// added. `metas` must be parallel to `outs`.
fn merge_outputs(
    mut outs: Vec<RunOutput>,
    metas: &[ShardMeta],
    stations: usize,
    total_jobs: usize,
    record_trace: bool,
) -> RunOutput {
    let trace = if record_trace { merge_traces(&outs, metas) } else { Trace::disabled() };
    // Jobs: every global slot is filled by exactly one live copy. A job
    // forwarded at a barrier leaves a `Forwarded` stub in its source pool
    // and a live copy in its destination; the live copy wins.
    let mut jobs: Vec<Option<Job>> = (0..total_jobs).map(|_| None).collect();
    for (p, out) in outs.iter_mut().enumerate() {
        let meta = &metas[p];
        for (local, mut job) in std::mem::take(&mut out.jobs).into_iter().enumerate() {
            let g = meta.to_global[local];
            job.spec.id = g;
            job.spec.home =
                NodeId::new((job.spec.home.as_usize() + meta.station_base) as u32);
            job.spec.depends_on =
                job.spec.depends_on.iter().map(|d| meta.to_global[d.0 as usize]).collect();
            let slot = &mut jobs[g.0 as usize];
            match slot {
                None => *slot = Some(job),
                Some(prev) if prev.state == JobState::Forwarded => *slot = Some(job),
                Some(_) => {} // incoming is the stub; keep the live copy
            }
        }
    }
    let mut totals = Totals::default();
    let mut telemetry: Option<Telemetry> = None;
    let mut local_busy = None;
    let mut remote_busy = None;
    let mut queue_totals = Vec::new();
    let mut by_user: BTreeMap<UserId, Vec<StepSeries>> = BTreeMap::new();
    let mut bus_bytes_moved = 0;
    let mut bus_transfers = 0;
    let mut events_dispatched = 0;
    let mut policy_name = String::new();
    let mut horizon = SimTime::ZERO;
    for out in outs {
        if policy_name.is_empty() {
            policy_name = out.policy_name;
            horizon = out.horizon;
        }
        add_totals(&mut totals, &out.totals);
        match telemetry.as_mut() {
            None => telemetry = Some(out.telemetry),
            Some(t) => t.merge(&out.telemetry),
        }
        match local_busy.as_mut() {
            None => local_busy = Some(out.local_busy),
            Some(b) => b.absorb(&out.local_busy),
        }
        match remote_busy.as_mut() {
            None => remote_busy = Some(out.remote_busy),
            Some(b) => b.absorb(&out.remote_busy),
        }
        queue_totals.push(out.queue_total);
        for (u, s) in out.queue_by_user {
            by_user.entry(u).or_default().push(s);
        }
        bus_bytes_moved += out.bus_bytes_moved;
        bus_transfers += out.bus_transfers;
        events_dispatched += out.events_dispatched;
    }
    let queue_total = StepSeries::merge_sum(&queue_totals.iter().collect::<Vec<_>>());
    let queue_by_user = by_user
        .into_iter()
        .map(|(u, parts)| (u, StepSeries::merge_sum(&parts.iter().collect::<Vec<_>>())))
        .collect();
    RunOutput {
        policy_name,
        stations,
        horizon,
        jobs: jobs
            .into_iter()
            .map(|j| j.expect("every job landed in exactly one shard"))
            .collect(),
        trace,
        totals,
        queue_total,
        queue_by_user,
        local_busy: local_busy.expect("at least one shard"),
        remote_busy: remote_busy.expect("at least one shard"),
        bus_bytes_moved,
        bus_transfers,
        events_dispatched,
        telemetry: telemetry.expect("at least one shard"),
    }
}

/// The sharded space-parallel runner behind
/// [`run_cluster_with_sinks`](crate::cluster::run_cluster_with_sinks) and
/// [`run_cluster_with_threads`](crate::cluster::run_cluster_with_threads).
/// `threads` of `None` reads [`default_threads`].
///
/// # Panics
///
/// Panics on an invalid configuration (mirroring [`Cluster::new`]) — in
/// particular on a dependency edge crossing pools.
pub(crate) fn run_sharded(
    config: ClusterConfig,
    specs: Vec<JobSpec>,
    horizon: SimDuration,
    sinks: Vec<Box<dyn TraceSink + Send>>,
    threads: Option<usize>,
) -> RunOutput {
    let topo = config.topology.clone().expect("sharded runner requires a topology");
    if let Err(e) = config.check() {
        panic!("invalid cluster configuration: {e}");
    }
    let pools = topo.pools;
    let stations = config.stations;
    let total_jobs = specs.len();
    let record_trace = config.record_trace;
    let threads = threads.unwrap_or_else(default_threads).clamp(1, pools);
    let ranges: Vec<Range<usize>> = (0..pools).map(|p| topo.range(p, stations)).collect();
    let (mut shard_specs, mut to_global) = partition_jobs(&specs, &topo, stations, &ranges);
    let coordinator_pool = topo.pool_of(config.coordinator_host as usize, stations);
    let chaos_parts = config
        .chaos
        .as_ref()
        .map(|c| crate::chaos::route_to_pools(c, &ranges, coordinator_pool));
    let mut user_sinks: Vec<(Interest, Box<dyn TraceSink + Send>)> =
        sinks.into_iter().map(|s| (s.interest(), s)).collect();
    let wanted = user_sinks.iter().fold(Interest::NONE, |acc, (i, _)| acc.union(*i));
    let mut emit_logs: Vec<EmitLog> = Vec::new();
    let slots: Vec<Mutex<ShardSlot>> = (0..pools)
        .map(|p| {
            let cfg = shard_config(&config, &ranges[p], p, chaos_parts.as_deref());
            let mut cluster = Cluster::new(cfg, std::mem::take(&mut shard_specs[p]));
            if !user_sinks.is_empty() {
                if pools == 1 {
                    // Single shard: attach the user's sinks directly —
                    // they see the exact serial stream, no batching.
                    for (_, sink) in user_sinks.drain(..) {
                        cluster.attach_sink(sink);
                    }
                } else {
                    let log = EmitLog { items: Arc::default(), interest: wanted };
                    cluster.attach_sink(Box::new(log.clone()));
                    emit_logs.push(log);
                }
            }
            let mut engine = Engine::new(cluster);
            Cluster::prime(&mut engine);
            Mutex::new(ShardSlot {
                engine,
                meta: ShardMeta {
                    station_base: ranges[p].start,
                    to_global: std::mem::take(&mut to_global[p]),
                },
            })
        })
        .collect();
    let end = SimTime::ZERO + horizon;
    let step = topo.effective_window();

    // The window loop. All barrier-instant work (overflow exchange, sink
    // replay) happens on the main thread with every worker parked, in
    // pool order — the merge schedule is a pure function of the inputs.
    let mut run_windows = |slots: &[Mutex<ShardSlot>], run_window: &mut dyn FnMut(SimTime)| {
        let mut w: u64 = 0;
        loop {
            let h = (SimTime::ZERO + step * (w + 1)).min(end);
            run_window(h);
            if h < end {
                exchange_overflow(slots, &topo, h);
                drain_emit_logs(&emit_logs, slots, &mut user_sinks);
                w += 1;
            } else {
                drain_emit_logs(&emit_logs, slots, &mut user_sinks);
                break;
            }
        }
        for (_, sink) in user_sinks.iter_mut() {
            sink.finish(end);
        }
    };
    if threads == 1 {
        run_windows(&slots, &mut |h| {
            for slot in &slots {
                slot.lock().expect("shard lock").engine.run_until(h);
            }
        });
    } else {
        // Persistent workers: shard `i` is owned by worker `i % threads`
        // for the whole run; two barrier waits bracket each window.
        let barrier = Barrier::new(threads + 1);
        let target_ms = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let slots = &slots;
                let barrier = &barrier;
                let target_ms = &target_ms;
                let done = &done;
                scope.spawn(move || loop {
                    barrier.wait();
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let h = SimTime::from_millis(target_ms.load(Ordering::Acquire));
                    for (i, slot) in slots.iter().enumerate() {
                        if i % threads == t {
                            slot.lock().expect("shard lock").engine.run_until(h);
                        }
                    }
                    barrier.wait();
                });
            }
            run_windows(&slots, &mut |h| {
                target_ms.store(h.as_millis(), Ordering::Release);
                barrier.wait(); // release workers into the window
                barrier.wait(); // all shards reached the barrier
            });
            done.store(true, Ordering::Release);
            barrier.wait(); // release workers into exit
        });
    }

    let finished: Vec<ShardSlot> =
        slots.into_iter().map(|m| m.into_inner().expect("shard lock")).collect();
    if pools == 1 {
        // One shard IS the global run: skip the merge so the output —
        // trace bytes included — is bit-identical to the serial runner.
        let slot = finished.into_iter().next().expect("one shard");
        return finish_run(slot.engine, end);
    }
    let mut outs = Vec::with_capacity(pools);
    let mut metas = Vec::with_capacity(pools);
    for slot in finished {
        outs.push(finish_run(slot.engine, end));
        metas.push(slot.meta);
    }
    merge_outputs(outs, &metas, stations, total_jobs, record_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_model::diurnal::DiurnalProfile;
    use condor_model::owner::OwnerConfig;

    fn spec(id: u64, home: u32, arrival_s: u64, demand_h: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: crate::job::UserId((id % 2) as u32),
            home: NodeId::new(home),
            arrival: SimTime::from_secs(arrival_s),
            demand: SimDuration::from_hours(demand_h),
            image_bytes: 200_000,
            syscalls_per_cpu_sec: 1.0,
            binaries: Default::default(),
            depends_on: Vec::new(),
            width: 1,
            resources: Default::default(),
            speedup: Default::default(),
        }
    }

    /// All jobs home in pool 0 with long demands: pool 0 saturates, and
    /// the window barriers must actually move overflow into pool 1 — the
    /// cross-shard path engages, it is not dead code behind determinism
    /// tests.
    #[test]
    fn saturated_pool_forwards_overflow_to_the_idle_pool() {
        let config = ClusterConfig {
            stations: 8,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.05),
                ..OwnerConfig::default()
            },
            topology: Some(PoolTopology::uniform(2, SimDuration::from_secs(600))),
            ..ClusterConfig::default()
        };
        // Ten long jobs, all submitted in pool 0 (stations 0..4).
        let specs: Vec<JobSpec> = (0..10).map(|i| spec(i, (i % 4) as u32, 600 * i, 200)).collect();
        let out = run_sharded(config, specs, SimDuration::from_days(2), Vec::new(), Some(2));
        assert!(
            out.totals.jobs_forwarded > 0,
            "saturated pool never forwarded: {:?}",
            out.totals
        );
        assert!(out.totals.jobs_adopted > 0, "no forwarded job was adopted");
        assert!(out.totals.jobs_adopted <= out.totals.jobs_forwarded);
        let forwarded = out
            .trace
            .filtered(|k| matches!(k, crate::trace::TraceKind::JobForwarded { .. }))
            .count() as u64;
        let adopted: Vec<_> = out
            .trace
            .filtered(|k| matches!(k, crate::trace::TraceKind::JobAdopted { .. }))
            .collect();
        assert_eq!(forwarded, out.totals.jobs_forwarded);
        assert_eq!(adopted.len() as u64, out.totals.jobs_adopted);
        // Adopted jobs landed in pool 1 (global stations 4..8) and their
        // job table entries carry the new home.
        for ev in adopted {
            let crate::trace::TraceKind::JobAdopted { job, on } = ev.kind else { unreachable!() };
            assert!(on.as_usize() >= 4, "adoption landed in the saturated pool");
            assert_eq!(out.jobs[job.0 as usize].spec.home, on);
            assert!(out.jobs[job.0 as usize].adopted);
        }
        // Every global job id resolved to exactly one live copy.
        assert_eq!(out.jobs.len(), 10);
        for (i, job) in out.jobs.iter().enumerate() {
            assert_eq!(job.spec.id.0 as usize, i);
            assert_ne!(job.state, JobState::Forwarded, "job {i} left as a stub");
        }
    }

    /// Station ranges and the pool-of-station inverse agree for uneven
    /// partitions.
    #[test]
    fn ranges_and_pool_of_agree() {
        let topo = PoolTopology::uniform(3, SimDuration::from_secs(60));
        let stations = 10; // 4 + 3 + 3
        let mut seen = 0;
        for p in 0..3 {
            let range = topo.range(p, stations);
            for s in range.clone() {
                assert_eq!(topo.pool_of(s, stations), p);
                seen += 1;
            }
        }
        assert_eq!(seen, stations);
    }

    /// `CONDOR_THREADS` beats detection; garbage falls through.
    #[test]
    fn thread_count_honours_the_environment() {
        // Serialized via the env-lock in practice: tests in this module
        // run single-threaded over this variable.
        std::env::set_var("CONDOR_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("CONDOR_THREADS", "0");
        assert!(default_threads() >= 1);
        std::env::remove_var("CONDOR_THREADS");
        assert!(default_threads() >= 1);
    }
}

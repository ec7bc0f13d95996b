//! Command-line entry point of the Condor benchmark.
//!
//! ```text
//! condor-perfbench --workload <paper_month|fleet_2k>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it runs the traced attribution and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object, and the exit code is nonzero if any run
//! failed an output check. `README.md` beside this crate defines every
//! workload and metric.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use condor_core::audit::AuditSink;
use condor_core::cluster::{Run, RunOutput, Totals};
use condor_core::spans::SpanSink;
use condor_core::telemetry::{SharedSink, TraceSink};
use condor_metrics::summary::{summarize, RunSummary};
use condor_perfbench::speed::SpeedProbe;
use condor_perfbench::{
    digest, fold_digests, traced_run, Attribution, Counts, Probe, ProbeSink, StepClass,
};
use condor_workload::scenarios::{fleet_scale, paper_month, Scenario};

/// Months per `paper_month` pass, each from its own seed.
const PAPER_MONTHS: u64 = 100;
/// Fleets per `fleet_2k` pass, each from its own seed.
const FLEETS: u64 = 4;
/// Stations of each `fleet_2k` fleet.
const FLEET_STATIONS: usize = 2_000;
/// Simulated days of a fleet run.
const FLEET_DAYS: u64 = 7;
/// Pools the traced run of `fleet_2k` splits its first fleet into for the
/// sharded runner.
const SHARD_POOLS: usize = 8;
/// Scenario generations timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperMonth,
    Fleet2k,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_month" => Some(Workload::PaperMonth),
            "fleet_2k" => Some(Workload::Fleet2k),
            _ => None,
        }
    }

    /// The scenarios of one pass, generated from `seed`.
    fn scenarios(self, seed: u64) -> Vec<Scenario> {
        match self {
            Workload::PaperMonth => (0..PAPER_MONTHS)
                .map(|i| paper_month(seed.wrapping_mul(PAPER_MONTHS).wrapping_add(i)))
                .collect(),
            Workload::Fleet2k => (0..FLEETS)
                .map(|k| fleet_seed(seed, k))
                .map(|s| fleet_scale(s, FLEET_STATIONS, 1, FLEET_DAYS))
                .collect(),
        }
    }

    /// Whether runs carry the `condor audit`/`condor spans` observers.
    fn observed(self) -> bool {
        self == Workload::PaperMonth
    }
}

/// Seed of the `k`-th fleet of a `fleet_2k` pass.
fn fleet_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(FLEETS).wrapping_add(k)
}

/// The first `fleet_2k` fleet split into pools for the sharded runner.
fn sharded_fleet(seed: u64) -> Scenario {
    fleet_scale(fleet_seed(seed, 0), FLEET_STATIONS, SHARD_POOLS, FLEET_DAYS)
}

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rss_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        rss_probe,
    })
}

/// Attempted and failed runs, and the first digest of each scenario.
#[derive(Default)]
struct Book {
    attempted: u64,
    failed: u64,
    reference: Vec<Option<u64>>,
}

impl Book {
    /// Records one run's outcome; a digest must match the scenario's first.
    fn check(&mut self, scenario: usize, result: Result<u64, String>) -> bool {
        self.attempted += 1;
        let err = match result {
            Ok(d) => {
                if self.reference.len() <= scenario {
                    self.reference.resize(scenario + 1, None);
                }
                match self.reference[scenario] {
                    None => {
                        self.reference[scenario] = Some(d);
                        None
                    }
                    Some(r) if r == d => None,
                    Some(r) => Some(format!("digest {d:#018x} differs from {r:#018x}")),
                }
            }
            Err(e) => Some(e),
        };
        if let Some(e) = &err {
            self.failed += 1;
            eprintln!("run of scenario {scenario} failed: {e}");
        }
        err.is_none()
    }

    fn digest(&self) -> u64 {
        fold_digests(self.reference.iter().map(|d| d.unwrap_or(0)))
    }
}

/// A span of host time.
type Span = (Instant, Instant);

/// Times `f`.
fn timed(f: impl FnOnce()) -> Span {
    let start = Instant::now();
    f();
    (start, Instant::now())
}

/// One untraced run of a scenario.
struct UnitOut {
    /// From the start of `Run::execute` to the end of `summarize`.
    span: Span,
    /// `Run::execute`.
    execute_ns: u64,
    /// `summarize`.
    summarize_ns: u64,
    digest: u64,
    counts: Counts,
    totals: Totals,
    summary: RunSummary,
}

/// Runs `sc` untraced through `Run`, with the workload's observers and
/// `extra` attached, and checks its audit.
fn run_unit(
    w: Workload,
    sc: &Scenario,
    threads: Option<usize>,
    extra: Option<Box<dyn TraceSink + Send>>,
) -> Result<UnitOut, String> {
    let audit = SharedSink::new(AuditSink::new());
    let mut run = Run::new(sc.config.clone())
        .specs(sc.jobs.clone())
        .horizon(sc.horizon);
    if w.observed() {
        run = run
            .sink(Box::new(audit.clone()))
            .sink(Box::new(SharedSink::new(SpanSink::new())));
    }
    if let Some(s) = extra {
        run = run.sink(s);
    }
    if let Some(t) = threads {
        run = run.threads(t);
    }
    let start = Instant::now();
    let out: RunOutput = catch_unwind(AssertUnwindSafe(|| run.execute()))
        .map_err(|_| "the run panicked".to_string())?;
    let executed = Instant::now();
    let summary = summarize(&out);
    let summarized = Instant::now();
    if w.observed() {
        let violations = audit.with(|a| a.total_violations());
        if violations > 0 {
            return Err(format!("{violations} audit violations"));
        }
    }
    Ok(UnitOut {
        span: (start, summarized),
        execute_ns: (executed - start).as_nanos() as u64,
        summarize_ns: (summarized - executed).as_nanos() as u64,
        digest: digest(&out, &summary),
        counts: Counts::of_output(&out),
        totals: out.totals,
        summary,
    })
}

/// One serial pass over every scenario; failures are booked, successes returned
/// with their scenario index.
fn pass(w: Workload, scenarios: &[Scenario], book: &mut Book) -> Vec<(usize, UnitOut)> {
    let mut outs = Vec::new();
    for (i, sc) in scenarios.iter().enumerate() {
        let r = run_unit(w, sc, None, None);
        let d = r.as_ref().map(|u| u.digest).map_err(Clone::clone);
        if book.check(i, d) {
            outs.extend(r.ok().map(|u| (i, u)));
        }
    }
    outs
}

/// Generates the workload `SETUP_REPS` times; returns the last scenario set
/// and the span of each generation.
fn setup(w: Workload, seed: u64) -> (Vec<Scenario>, Vec<Span>) {
    let mut spans = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(scenarios);
        let start = Instant::now();
        scenarios = w.scenarios(seed);
        spans.push((start, Instant::now()));
    }
    (scenarios, spans)
}

fn secs(span: &Span) -> f64 {
    (span.1 - span.0).as_secs_f64()
}

/// Peak resident memory of one run of the workload, measured in a fresh
/// child process so that nothing else this process did can raise it.
fn peak_rss_kb(args: &Args) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let name = match args.workload {
        Workload::PaperMonth => "paper_month",
        Workload::Fleet2k => "fleet_2k",
    };
    let out = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--rss-probe",
        ])
        .output()
        .map_err(|e| format!("rss probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse() {
        Ok(kb) if out.status.success() => Ok(kb),
        _ => Err(format!(
            "rss probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// The `--rss-probe` child: one run of the workload's first scenario.
fn rss_probe(args: &Args) -> ExitCode {
    let w = args.workload;
    let mut scenarios = w.scenarios(args.seed);
    scenarios.truncate(1);
    let mut book = Book::default();
    pass(w, &scenarios, &mut book);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok());
    match hwm {
        Some(kb) if book.failed == 0 => {
            println!("{kb}");
            ExitCode::SUCCESS
        }
        _ => ExitCode::FAILURE,
    }
}

/// The `q` quantile (nearest rank) of `v`; 0 when empty.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn station_days(scenarios: &[Scenario]) -> f64 {
    scenarios
        .iter()
        .map(|s| s.config.stations as f64 * s.horizon.as_millis() as f64 / 86_400_000.0)
        .sum()
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args, book: &mut Book) -> Result<Metrics, String> {
    let w = args.workload;
    let peak_kb = peak_rss_kb(args)?;
    let probe = SpeedProbe::start();
    if !probe.pinned() {
        eprintln!("warning: could not pin to a CPU; host speed is sampled unpinned");
    }
    let (scenarios, mut setup_spans) = setup(w, args.seed);

    // The first pass pins each scenario's digest and gives the simulated
    // outcome; a later repetition of a scenario must reproduce its digest.
    let mut runs: Vec<Vec<Span>> = vec![Vec::new(); scenarios.len()];
    let mut sim = Vec::new();
    let mut pass_spans = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let phase = Instant::now();
    while pass_spans.is_empty() || phase.elapsed() < budget {
        let start = Instant::now();
        let outs = pass(w, &scenarios, book);
        pass_spans.push((start, Instant::now()));
        for (i, u) in outs {
            runs[i].push(u.span);
            if pass_spans.len() == 1 {
                sim.push(u);
            }
        }
        setup_spans.push(timed(|| drop(w.scenarios(args.seed))));
    }
    let phase = (phase, Instant::now());
    let speed = probe.finish()?;
    for (k, p) in pass_spans.iter().enumerate() {
        eprintln!(
            "pass {k}: host {:.4} s, slowdown {:.4}",
            secs(p),
            speed.slowdown(p.0, p.1)
        );
    }
    let passes = pass_spans.len();

    let n = sim.len().max(1) as f64;
    let sim_wait = sim.iter().map(|u| u.summary.mean_wait_ratio).sum::<f64>() / n;
    let sim_leverage = sim.iter().map(|u| u.summary.mean_leverage).sum::<f64>() / n;
    let sim_completed: u64 = sim.iter().map(|u| u.counts.jobs_completed).sum();
    // Each scenario's time is the median of its repetitions, each
    // rescaled to nominal speed by the reference slices around it.
    let median_of = |spans: &[Span], scale: &dyn Fn(&Span) -> f64| {
        let mut v: Vec<f64> = spans.iter().map(scale).collect();
        quantile(&mut v, 0.5)
    };
    let nominal = |s: &Span| speed.nominal_s(s.0, s.1);
    let runs: Vec<&Vec<Span>> = runs.iter().filter(|r| !r.is_empty()).collect();
    let mut run_ms: Vec<f64> = runs.iter().map(|r| median_of(r, &nominal) * 1e3).collect();
    let host_wall_s: f64 = runs.iter().map(|r| median_of(r, &secs)).sum();
    let wall_s = run_ms.iter().sum::<f64>() / 1e3;
    eprintln!(
        "{passes} passes over {} scenarios, digest {:#018x}; host wall {host_wall_s:.4} s, \
         host slowdown {:.3} from {} reference slices (fastest {} ns)",
        run_ms.len(),
        book.digest(),
        speed.slowdown(phase.0, phase.1),
        speed.slices(),
        speed.fastest_ns(),
    );
    Ok(vec![
        (
            "station_days_per_s",
            ratio(station_days(&scenarios), wall_s),
            "1/s",
        ),
        ("wall_s", wall_s, "s"),
        ("run_ms_p50", quantile(&mut run_ms, 0.5), "ms"),
        ("run_ms_p90", quantile(&mut run_ms, 0.9), "ms"),
        ("setup_s", median_of(&setup_spans, &nominal), "s"),
        ("peak_rss_mb", peak_kb as f64 / 1024.0, "MB"),
        ("sim_wait_ratio_mean", sim_wait, "ratio"),
        ("sim_leverage_mean", sim_leverage, "ratio"),
        ("sim_jobs_completed", sim_completed as f64, "count"),
    ])
}

/// Per-pass sums of the traced measurements.
#[derive(Default)]
struct Layers {
    passes: u64,
    attribution: Attribution,
    untraced_ns: u64,
    summarize_ns: u64,
    sink_events: u64,
    useful_polls: u64,
    counts: Counts,
    totals: Totals,
}

/// Compares a traced run's counts with the untraced run of the same
/// scenario, and the probe's view of the event stream with the run's own
/// poll count and the untraced run's bus traffic.
fn cross_check(
    traced: &Counts,
    untraced: &Counts,
    probe: &Probe,
    totals: &Totals,
) -> Result<(), String> {
    if traced != untraced {
        return Err(format!(
            "traced counts {traced:?} differ from untraced {untraced:?}"
        ));
    }
    if probe.polls() != totals.polls {
        return Err(format!(
            "probe saw {} polls, totals count {}",
            probe.polls(),
            totals.polls
        ));
    }
    if (probe.bus_transfers(), probe.bus_bytes()) != (untraced.bus_transfers, untraced.bus_bytes) {
        return Err("bus traffic in the event stream differs from the bus's own count".into());
    }
    Ok(())
}

/// Traced passes over a serial workload: each scenario runs untraced, then
/// stepped and traced, and the two must agree.
fn traced_serial(w: Workload, scenarios: &[Scenario], budget: Duration, book: &mut Book) -> Layers {
    let mut l = Layers::default();
    let phase = Instant::now();
    while l.passes == 0 || phase.elapsed() < budget {
        l.passes += 1;
        for (i, sc) in scenarios.iter().enumerate() {
            let untraced = run_unit(w, sc, None, None);
            let inner: Vec<Box<dyn TraceSink + Send>> = if w.observed() {
                vec![
                    Box::new(SharedSink::new(AuditSink::new())),
                    Box::new(SharedSink::new(SpanSink::new())),
                ]
            } else {
                Vec::new()
            };
            let traced = traced_run(sc.config.clone(), sc.jobs.clone(), sc.horizon, inner);
            let result = untraced.and_then(|u| {
                cross_check(&traced.counts, &u.counts, &traced.probe, &traced.totals)?;
                let polls = traced.attribution.class_steps[StepClass::Poll.index()];
                if polls != u.totals.polls {
                    return Err(format!(
                        "{polls} steps classed as polls, {} polls ran",
                        u.totals.polls
                    ));
                }
                if !traced.attribution.adds_up() {
                    return Err(format!(
                        "attribution leaves too much out: {:?}",
                        traced.attribution
                    ));
                }
                Ok(u)
            });
            let d = result.as_ref().map(|u| u.digest).map_err(Clone::clone);
            if !book.check(i, d) {
                continue;
            }
            let u = result.expect("checked above");
            l.attribution.add(&traced.attribution);
            l.untraced_ns += u.execute_ns;
            l.summarize_ns += u.summarize_ns;
            if l.passes == 1 {
                if w.observed() {
                    l.sink_events += traced.probe.events();
                }
                l.useful_polls += traced.probe.useful_polls();
                add_counts(&mut l, &u);
            }
        }
    }
    l
}

fn add_counts(l: &mut Layers, u: &UnitOut) {
    let (c, t) = (&mut l.counts, &mut l.totals);
    c.events += u.counts.events;
    c.polls += u.counts.polls;
    c.poll_memo_hits += u.counts.poll_memo_hits;
    c.placements += u.counts.placements;
    c.bus_transfers += u.counts.bus_transfers;
    c.bus_bytes += u.counts.bus_bytes;
    c.jobs_completed += u.counts.jobs_completed;
    t.migrations += u.totals.migrations;
    t.preemptions_owner += u.totals.preemptions_owner;
    t.preemptions_priority += u.totals.preemptions_priority;
}

/// The shard layer, measured on the sharded split of the fleet.
#[derive(Default)]
struct Shard {
    jobs_forwarded: u64,
    speedup: f64,
}

/// Passes over a sharded scenario, booked as scenario `index`: runs at 1
/// and at `min(2, nproc)` threads alternate, and one more run feeds the
/// probe from the merged stream. Every run must give the same digest (the
/// thread-invariance contract), and the probe must agree with the run's
/// counts. The sharded runner cannot be stepped from outside, so this gives
/// counts and the thread speed-up only.
fn traced_sharded(
    w: Workload,
    sc: &Scenario,
    index: usize,
    budget: Duration,
    book: &mut Book,
) -> Shard {
    let threads = max_threads();
    let mut shard = Shard::default();
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let phase = Instant::now();
    while one.is_empty() || phase.elapsed() < budget {
        let single = run_unit(w, sc, Some(1), None);
        let multi = run_unit(w, sc, Some(threads), None);
        let probe = Arc::new(Probe::default());
        let sink = ProbeSink::new(Arc::clone(&probe), &sc.jobs, Vec::new());
        let traced = run_unit(w, sc, Some(threads), Some(Box::new(sink)));
        let mut units = Vec::new();
        for r in [single, multi, traced] {
            let d = r.as_ref().map(|u| u.digest).map_err(Clone::clone);
            if book.check(index, d) {
                units.extend(r.ok());
            }
        }
        let [single, multi, traced] = match <[UnitOut; 3]>::try_from(units) {
            Ok(u) => u,
            Err(_) => break,
        };
        if let Err(e) = cross_check(&traced.counts, &multi.counts, &probe, &traced.totals) {
            book.failed += 1;
            eprintln!("sharded cross-check failed: {e}");
            break;
        }
        one.push(single.execute_ns as f64);
        many.push(multi.execute_ns as f64);
        shard.jobs_forwarded = multi.totals.jobs_forwarded;
    }
    shard.speedup = ratio(quantile(&mut one, 0.5), quantile(&mut many, 0.5));
    shard
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args, book: &mut Book) -> Result<Metrics, String> {
    let w = args.workload;
    let peak_kb = peak_rss_kb(args)?;
    let (scenarios, setup_spans) = setup(w, args.seed);
    let mut setup_times: Vec<f64> = setup_spans.iter().map(secs).collect();
    let setup_s = quantile(&mut setup_times, 0.5);
    let budget = Duration::from_secs_f64(args.seconds);
    // `fleet_2k` gives a third of its budget to the sharded split.
    let shard_budget = match w {
        Workload::PaperMonth => None,
        Workload::Fleet2k => Some(budget / 3),
    };
    let l = traced_serial(
        w,
        &scenarios,
        budget - shard_budget.unwrap_or_default(),
        book,
    );
    let shard = shard_budget.map_or_else(Shard::default, |b| {
        traced_sharded(w, &sharded_fleet(args.seed), scenarios.len(), b, book)
    });
    let p = l.passes.max(1) as f64;
    let a = &l.attribution;
    let class_ms = |c: StepClass| ms(a.class_ns[c.index()]) / p;
    let polls = l.counts.polls as f64;
    let stations = scenarios[0].config.stations as f64;
    let sink_ms = ms(a.sink_ns) / p;
    eprintln!(
        "{} traced passes, digest {:#018x}, attribution per pass {:?}",
        l.passes,
        book.digest(),
        a
    );
    Ok(vec![
        ("workload.gen_ms", setup_s * 1e3, "ms"),
        ("core.build_ms", ms(a.build_ns) / p, "ms"),
        ("sim.events", l.counts.events as f64, "count"),
        (
            "sim.ns_per_event",
            ratio(l.untraced_ns as f64 / p, l.counts.events as f64),
            "ns",
        ),
        ("sim.other_ms", class_ms(StepClass::Other), "ms"),
        (
            "model.flip_steps",
            a.class_steps[StepClass::Flip.index()] as f64 / p,
            "count",
        ),
        ("model.flip_ms", class_ms(StepClass::Flip), "ms"),
        ("core.polls", polls, "count"),
        (
            "core.poll_memo_hits",
            l.counts.poll_memo_hits as f64,
            "count",
        ),
        (
            "core.poll_memo_ratio",
            ratio(l.counts.poll_memo_hits as f64, polls),
            "ratio",
        ),
        (
            "core.poll_useful_ratio",
            ratio(l.useful_polls as f64, polls),
            "ratio",
        ),
        ("core.poll_ms", class_ms(StepClass::Poll), "ms"),
        (
            "core.poll_us_per_poll",
            ratio(class_ms(StepClass::Poll) * 1e3, polls),
            "us",
        ),
        ("core.placements", l.counts.placements as f64, "count"),
        ("core.migrations", l.totals.migrations as f64, "count"),
        (
            "core.preemptions",
            (l.totals.preemptions_owner + l.totals.preemptions_priority) as f64,
            "count",
        ),
        ("core.lifecycle_ms", class_ms(StepClass::Lifecycle), "ms"),
        ("sink.events", l.sink_events as f64, "count"),
        ("sink.record_ms", sink_ms, "ms"),
        (
            "sink.ns_per_event",
            ratio(sink_ms * 1e6, l.sink_events as f64),
            "ns",
        ),
        ("shard.jobs_forwarded", shard.jobs_forwarded as f64, "count"),
        ("shard.speedup", shard.speedup, "x"),
        ("net.bus_transfers", l.counts.bus_transfers as f64, "count"),
        ("net.bus_bytes", l.counts.bus_bytes as f64, "bytes"),
        ("metrics.summarize_ms", ms(l.summarize_ns) / p, "ms"),
        ("mem.rss_kb_per_station", peak_kb as f64 / stations, "kB"),
        ("trace.wall_ms", ms(a.wall_ns) / p, "ms"),
        (
            "trace.unattributed_ms",
            a.unattributed_ns() as f64 / 1e6 / p,
            "ms",
        ),
        (
            "trace.overhead",
            ratio(a.wall_ns as f64, l.untraced_ns as f64),
            "x",
        ),
    ])
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.rss_probe {
        return rss_probe(&args);
    }
    let mut book = Book::default();
    let metrics = if args.trace {
        per_layer(&args, &mut book)
    } else {
        end_to_end(&args, &mut book)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let attempted = book.attempted.max(1);
    for (name, value, unit) in &metrics {
        println!("{name:<24} {value:>16.6} {unit}");
    }
    println!(
        "{:<24} {:>16.6} ratio ({} of {attempted} runs failed)",
        "runs_failed_frac",
        book.failed as f64 / attempted as f64,
        book.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = book.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        book.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

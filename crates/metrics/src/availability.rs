//! Workstation-availability statistics, streamed or replayed.
//!
//! The paper's premises come from its companion study (Mutka & Livny,
//! *Profiling Workstations' Available Capacity*, ref. \[1\]): stations are
//! available ~70% of the time, available intervals are often long, and
//! interval lengths are positively autocorrelated ("workstations with long
//! available intervals tend to have their next available interval long").
//! This module recomputes those statistics from a simulated run's
//! owner-activity events, validating the substituted owner model against
//! the properties the scheduler's results depend on.
//!
//! Two entry points share one implementation:
//!
//! * [`AvailabilitySink`] — a streaming [`TraceSink`]: attach it to a run
//!   (works with `record_trace: false`) and read the profile afterwards;
//! * [`availability_profile`] — the legacy replay over a buffered
//!   [`RunOutput`] trace, now a thin wrapper that feeds the sink.

use condor_core::cluster::RunOutput;
use condor_core::telemetry::{Interest, TraceSink};
use condor_core::trace::{TraceEvent, TraceKind};
use condor_net::NodeId;
use condor_sim::stats::Running;
use condor_sim::time::SimTime;

/// Availability statistics of one station.
#[derive(Debug, Clone, PartialEq)]
pub struct StationAvailability {
    /// The station.
    pub station: NodeId,
    /// Fraction of the horizon the owner was away.
    pub available_fraction: f64,
    /// Completed idle (available) intervals observed.
    pub intervals: usize,
    /// Mean idle-interval length, hours.
    pub mean_interval_hours: f64,
    /// Lag-1 autocorrelation of consecutive idle-interval lengths
    /// (`None` with fewer than 8 intervals or zero variance).
    pub interval_autocorr: Option<f64>,
}

/// Fleet-wide availability profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityProfile {
    /// Per-station statistics, in station order.
    pub stations: Vec<StationAvailability>,
    /// Mean available fraction across stations.
    pub mean_available: f64,
    /// Mean idle-interval length across all intervals, hours.
    pub mean_interval_hours: f64,
    /// Mean per-station lag-1 autocorrelation (stations with enough data).
    pub mean_autocorr: f64,
}

/// Per-station replay state.
#[derive(Debug, Default, Clone)]
struct Replay {
    idle_since: Option<SimTime>,
    active_ms: u64,
    last_transition: Option<SimTime>,
    idle_intervals: Vec<f64>, // hours
}

/// Streams owner-activity events into per-station availability statistics.
///
/// Attach to a run via
/// [`run_cluster_with_sinks`](condor_core::cluster::run_cluster_with_sinks)
/// (through a [`SharedSink`](condor_core::telemetry::SharedSink) handle to
/// keep access), then call [`profile`](AvailabilitySink::profile). Memory
/// is O(stations + idle intervals) — no full trace is buffered, so it
/// works with `record_trace: false` at any horizon.
#[derive(Debug, Clone)]
pub struct AvailabilitySink {
    replays: Vec<Replay>,
    finished_at: SimTime,
}

impl AvailabilitySink {
    /// Creates a sink for a fleet of `stations` machines.
    pub fn new(stations: usize) -> Self {
        AvailabilitySink {
            replays: vec![
                Replay {
                    // Stations start idle unless the event stream says
                    // otherwise; the first transition fixes the initial
                    // state retroactively.
                    idle_since: Some(SimTime::ZERO),
                    ..Replay::default()
                };
                stations
            ],
            finished_at: SimTime::ZERO,
        }
    }

    /// The profile over `[0, horizon]`, using the horizon passed to
    /// [`TraceSink::finish`] (or the latest observed transition when the
    /// sink was fed manually).
    pub fn profile(&self) -> AvailabilityProfile {
        self.profile_at(self.finished_at)
    }

    /// The profile with an explicit horizon.
    pub fn profile_at(&self, horizon: SimTime) -> AvailabilityProfile {
        let horizon_ms = horizon.as_millis() as f64;
        let mut stations = Vec::with_capacity(self.replays.len());
        let mut all_intervals = Running::new();
        let mut autocorrs = Running::new();
        for (i, r) in self.replays.iter().enumerate() {
            let available = 1.0 - r.active_ms as f64 / horizon_ms;
            let mut lens = Running::new();
            for &v in &r.idle_intervals {
                lens.push(v);
                all_intervals.push(v);
            }
            let autocorr = lag1_autocorr(&r.idle_intervals);
            if let Some(a) = autocorr {
                autocorrs.push(a);
            }
            stations.push(StationAvailability {
                station: NodeId::new(i as u32),
                available_fraction: available,
                intervals: r.idle_intervals.len(),
                mean_interval_hours: lens.mean(),
                interval_autocorr: autocorr,
            });
        }
        AvailabilityProfile {
            mean_available: stations.iter().map(|s| s.available_fraction).sum::<f64>()
                / stations.len().max(1) as f64,
            mean_interval_hours: all_intervals.mean(),
            mean_autocorr: autocorrs.mean(),
            stations,
        }
    }
}

impl TraceSink for AvailabilitySink {
    fn record(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::OwnerActive { station } => {
                let Some(r) = self.replays.get_mut(station.as_usize()) else {
                    return;
                };
                if let Some(t) = r.idle_since.take() {
                    r.idle_intervals.push(ev.at.since(t).as_hours_f64());
                }
                r.last_transition = Some(ev.at);
            }
            TraceKind::OwnerIdle { station } => {
                let Some(r) = self.replays.get_mut(station.as_usize()) else {
                    return;
                };
                if let Some(t) = r.last_transition {
                    r.active_ms += ev.at.since(t).as_millis();
                } else {
                    // Station started active: the whole prefix was active.
                    r.active_ms += ev.at.as_millis();
                    r.idle_since = None;
                }
                r.idle_since = Some(ev.at);
                r.last_transition = Some(ev.at);
            }
            _ => {}
        }
    }

    fn finish(&mut self, at: SimTime) {
        self.finished_at = at;
    }

    /// Owner transitions only.
    fn interest(&self) -> Interest {
        Interest::NONE.with_kinds(&["owner_active", "owner_idle"])
    }
}

/// Computes the availability profile from a run's buffered owner-activity
/// trace.
///
/// Requires the run to have been recorded with tracing enabled; for
/// trace-free runs attach an [`AvailabilitySink`] instead.
pub fn availability_profile(out: &RunOutput) -> AvailabilityProfile {
    let mut sink = AvailabilitySink::new(out.stations);
    for ev in out.trace.events() {
        sink.record(ev);
    }
    sink.finish(out.horizon);
    sink.profile()
}

/// Lag-1 autocorrelation; `None` with fewer than 8 samples or degenerate
/// variance.
pub fn lag1_autocorr(xs: &[f64]) -> Option<f64> {
    if xs.len() < 8 {
        return None;
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    if var < 1e-12 {
        return None;
    }
    let cov = (0..n - 1)
        .map(|i| (xs[i] - mean) * (xs[i + 1] - mean))
        .sum::<f64>()
        / (n - 1) as f64;
    Some(cov / var)
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use condor_core::cluster::{run_cluster, run_cluster_with_sinks};
    use condor_core::config::ClusterConfig;
    use condor_core::telemetry::SharedSink;
    use condor_sim::time::SimDuration;

    #[test]
    fn profile_matches_run_accounting() {
        let config = ClusterConfig {
            stations: 8,
            ..ClusterConfig::default()
        };
        let out = run_cluster(config, Vec::new(), SimDuration::from_days(14));
        let profile = availability_profile(&out);
        assert_eq!(profile.stations.len(), 8);
        // Availability from the trace must agree with the run's own
        // bucket accounting within rounding.
        let from_buckets =
            out.available_station_hours() / (out.horizon.as_hours_f64() * out.stations as f64);
        assert!(
            (profile.mean_available - from_buckets).abs() < 0.02,
            "trace {} vs buckets {}",
            profile.mean_available,
            from_buckets
        );
        for s in &profile.stations {
            assert!((0.0..=1.0).contains(&s.available_fraction));
            assert!(s.intervals > 0, "{s:?}");
            assert!(s.mean_interval_hours > 0.0);
        }
    }

    #[test]
    fn streaming_sink_equals_trace_replay() {
        let config = ClusterConfig {
            stations: 6,
            seed: 77,
            ..ClusterConfig::default()
        };
        let sink = SharedSink::new(AvailabilitySink::new(6));
        let out = run_cluster_with_sinks(
            config,
            Vec::new(),
            SimDuration::from_days(10),
            vec![Box::new(sink.clone())],
        );
        let streamed = sink.with(|s| s.profile());
        let replayed = availability_profile(&out);
        assert_eq!(streamed, replayed);
    }

    #[test]
    fn default_owner_model_shows_positive_autocorrelation() {
        // Long horizon for a stable estimate.
        let config = ClusterConfig {
            stations: 12,
            ..ClusterConfig::default()
        };
        let out = run_cluster(config, Vec::new(), SimDuration::from_days(60));
        let profile = availability_profile(&out);
        assert!(
            profile.mean_autocorr > 0.02,
            "regime persistence must show up as autocorrelation: {}",
            profile.mean_autocorr
        );
        // The paper's companion study: available ~70%+ of the time.
        assert!(
            (0.6..=0.9).contains(&profile.mean_available),
            "availability {}",
            profile.mean_available
        );
    }

    #[test]
    fn autocorr_edge_cases() {
        assert_eq!(lag1_autocorr(&[1.0; 4]), None, "too few");
        assert_eq!(lag1_autocorr(&[3.0; 20]), None, "zero variance");
        // Alternating series: strongly negative.
        let alt: Vec<f64> = (0..50).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert!(lag1_autocorr(&alt).unwrap() < -0.9);
        // Slowly varying series: strongly positive.
        let slow: Vec<f64> = (0..100).map(|i| (i as f64 / 10.0).sin()).collect();
        assert!(lag1_autocorr(&slow).unwrap() > 0.5);
    }
}

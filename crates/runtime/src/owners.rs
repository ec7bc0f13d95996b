//! Live owner simulation: the condor-model owner process driving real
//! worker threads.
//!
//! The cluster simulator and the live runtime share one model of owner
//! behaviour. [`OwnerSimulator`] samples each station's [`OwnerProcess`]
//! dwell times, scales them down to wall-clock milliseconds, and toggles
//! the workers' owner-activity flags accordingly — so a live run sees the
//! same statistical interference pattern as a simulated month, just
//! compressed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use condor_model::owner::{build_fleet, OwnerConfig, OwnerProcess, OwnerState};
use condor_sim::rng::SimRng;
use condor_sim::time::SimTime;

/// Drives the owner flags of a set of live workers.
#[derive(Debug)]
pub struct OwnerSimulator {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<u64>>,
}

impl OwnerSimulator {
    /// Starts the simulator over the given worker flags. Every flag holds
    /// its station's initial owner state by the time this returns; the
    /// flips that follow run on a background thread.
    ///
    /// `sim_minute` is how much wall time one simulated minute takes —
    /// e.g. `Duration::from_millis(10)` compresses the paper's 2-minute
    /// poll to 20 ms.
    ///
    /// # Panics
    ///
    /// Panics if `flags` is empty or `sim_minute` is zero.
    pub fn start(
        flags: Vec<Arc<AtomicBool>>,
        config: OwnerConfig,
        sim_minute: Duration,
        seed: u64,
    ) -> OwnerSimulator {
        assert!(!flags.is_empty(), "no workers to drive");
        assert!(!sim_minute.is_zero(), "zero time scale");
        let owners = Owners::new(&flags, &config, sim_minute, seed);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("condor-owners".into())
            .spawn(move || owners.run(&flags, &stop_flag))
            .expect("spawn owner simulator");
        OwnerSimulator {
            stop,
            join: Some(join),
        }
    }

    /// Stops the simulator, clears every owner flag, and returns the total
    /// number of owner transitions it performed.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.join
            .take()
            .expect("owner simulator joined twice")
            .join()
            .expect("owner simulator panicked")
    }
}

impl Drop for OwnerSimulator {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = join.join();
        }
    }
}

/// The owner processes and their wall-clock flip deadlines.
struct Owners {
    processes: Vec<OwnerProcess>,
    rngs: Vec<SimRng>,
    /// Wall seconds per simulated second.
    scale: f64,
    start: Instant,
    /// When each station flips next, and the state it enters.
    deadlines: Vec<(Instant, OwnerState)>,
}

impl Owners {
    /// Builds the fleet and stores every station's initial state in its
    /// flag.
    fn new(flags: &[Arc<AtomicBool>], config: &OwnerConfig, sim_minute: Duration, seed: u64) -> Self {
        let n = flags.len();
        let mut processes = build_fleet(n, config, 0.3, seed);
        let root = SimRng::seed_from(seed);
        let mut rngs: Vec<SimRng> = (0..n)
            .map(|i| root.substream(seed, &format!("live-owner-{i}")))
            .collect();
        let scale = sim_minute.as_secs_f64() / 60.0;
        let start = Instant::now();
        let mut deadlines = Vec::with_capacity(n);
        for i in 0..n {
            let state = processes[i].state();
            flags[i].store(state == OwnerState::Active, Ordering::SeqCst);
            let dwell = processes[i].dwell_and_flip(SimTime::ZERO, &mut rngs[i]);
            let real = Duration::from_secs_f64(dwell.as_secs_f64() * scale);
            deadlines.push((start + real, processes[i].state()));
        }
        Owners { processes, rngs, scale, start, deadlines }
    }

    /// Flips flags at their deadlines until `stop` is set, then clears
    /// every flag; returns the number of transitions performed.
    fn run(mut self, flags: &[Arc<AtomicBool>], stop: &AtomicBool) -> u64 {
        let mut transitions = 0u64;
        while !stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            // The simulated clock runs via the scale factor from real
            // elapsed time.
            let sim_now = SimTime::from_millis(
                ((now - self.start).as_secs_f64() / self.scale * 1_000.0) as u64,
            );
            for (i, flag) in flags.iter().enumerate() {
                if now >= self.deadlines[i].0 {
                    let entering = self.deadlines[i].1;
                    flag.store(entering == OwnerState::Active, Ordering::SeqCst);
                    transitions += 1;
                    let process = &mut self.processes[i];
                    let dwell = process.dwell_and_flip(sim_now, &mut self.rngs[i]);
                    let real = Duration::from_secs_f64(dwell.as_secs_f64() * self.scale);
                    self.deadlines[i] =
                        (now + real.max(Duration::from_micros(200)), process.state());
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        for f in flags {
            f.store(false, Ordering::SeqCst);
        }
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_model::diurnal::DiurnalProfile;

    fn flags(n: usize) -> Vec<Arc<AtomicBool>> {
        (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect()
    }

    #[test]
    fn owners_flip_flags_over_time() {
        let f = flags(3);
        let config = OwnerConfig {
            profile: DiurnalProfile::flat(0.5),
            mean_active_period: condor_sim::time::SimDuration::from_minutes(2),
            ..OwnerConfig::default()
        };
        // 1 sim minute = 2 ms → flips every few ms.
        let sim = OwnerSimulator::start(f.clone(), config, Duration::from_millis(2), 42);
        let initial: Vec<bool> = f.iter().map(|x| x.load(Ordering::SeqCst)).collect();
        let mut observed_active = false;
        let mut observed_idle = false;
        let mut changed = false;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline && !(observed_active && observed_idle && changed) {
            for (i, flag) in f.iter().enumerate() {
                let v = flag.load(Ordering::SeqCst);
                if v {
                    observed_active = true;
                } else {
                    observed_idle = true;
                }
                if v != initial[i] {
                    changed = true;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let transitions = sim.stop();
        assert!(observed_active, "some owner must sit down");
        assert!(observed_idle, "some owner must be away");
        assert!(changed, "at least one owner must flip");
        assert!(transitions > 0, "transitions {transitions}");
        // Stop clears all flags.
        assert!(f.iter().all(|x| !x.load(Ordering::SeqCst)));
    }

    #[test]
    fn drop_stops_the_thread() {
        let f = flags(1);
        let sim = OwnerSimulator::start(
            f,
            OwnerConfig::default(),
            Duration::from_millis(5),
            7,
        );
        drop(sim); // must not hang
    }
}

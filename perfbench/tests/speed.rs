//! The host-speed normalisation: the reference kernel is deterministic,
//! preempted slices are left out, and host time is rescaled by the
//! slowdown to the power of the elasticity.

use std::time::{Duration, Instant};

use condor_perfbench::speed::{
    reference_slice, Slice, Speed, ELASTICITY, MIN_SLICES, NOMINAL_SLICE_NS,
};

/// `n` slices 10 ms apart from `t0`, each `ns` long.
fn slices(t0: Instant, n: usize, ns: u64) -> Vec<Slice> {
    (0..n)
        .map(|i| Slice {
            at: t0 + Duration::from_millis(10 * i as u64),
            ns,
        })
        .collect()
}

#[test]
fn the_reference_slice_is_deterministic() {
    assert_eq!(reference_slice(7), reference_slice(7));
    assert_ne!(reference_slice(7), reference_slice(8));
}

#[test]
fn host_time_is_rescaled_by_the_elasticity() {
    let t0 = Instant::now();
    let slow = 2 * NOMINAL_SLICE_NS as u64;
    let speed = Speed::from_slices(slices(t0, 200, slow));
    let (a, b) = (t0, t0 + Duration::from_secs(1));
    assert!((speed.slowdown(a, b) - 2.0).abs() < 1e-9);
    assert!((speed.nominal_s(a, b) - 2f64.powf(-ELASTICITY)).abs() < 1e-9);
}

#[test]
fn a_preempted_slice_is_left_out() {
    let t0 = Instant::now();
    let mut s = slices(t0, 100, NOMINAL_SLICE_NS as u64);
    s[50].ns *= 10;
    let speed = Speed::from_slices(s);
    let b = t0 + Duration::from_secs(1);
    assert!((speed.slowdown(t0, b) - 1.0).abs() < 1e-9);
}

#[test]
fn a_short_span_borrows_the_nearest_slices() {
    let t0 = Instant::now();
    // Fast for the first half second, twice as slow after it.
    let fast = slices(t0, 50, NOMINAL_SLICE_NS as u64);
    let slow = slices(
        t0 + Duration::from_millis(500),
        50,
        2 * NOMINAL_SLICE_NS as u64,
    );
    let speed = Speed::from_slices(fast.into_iter().chain(slow).collect());
    // A 1 ms span inside each half sees only that half's speed.
    let early = t0 + Duration::from_millis(200);
    let late = t0 + Duration::from_millis(800);
    // The windows of 16 slices 10 ms apart must not reach across.
    const { assert!(MIN_SLICES * 10 < 300) };
    let ms = Duration::from_millis(1);
    assert!((speed.slowdown(early, early + ms) - 1.0).abs() < 1e-9);
    assert!((speed.slowdown(late, late + ms) - 2.0).abs() < 1e-9);
}

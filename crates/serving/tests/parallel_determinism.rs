//! Determinism of runtimes run in parallel on OS threads.
//!
//! Each [`ServingRuntime`](recssd_serving::ServingRuntime) owns its whole
//! simulated world, so independent runtimes may be driven concurrently
//! from separate threads. These tests check that doing so is
//! unobservable: no process-global state (counters, span-id sources,
//! RNG) leaks between runtimes, and every concurrent run produces the
//! same digest as a run on the test thread alone, and the pinned value.

mod common;

use std::thread;

use common::{run_under, Faults, RunDigest, PINNED_NONE, PINNED_TRANSIENT, PINNED_ZERO_RATE};

/// Runs every regime in `regimes` on its own thread, all at once, and
/// returns the digests in order.
fn run_concurrently(regimes: &[Faults]) -> Vec<RunDigest> {
    thread::scope(|s| {
        let handles: Vec<_> = regimes
            .iter()
            .map(|&faults| s.spawn(move || run_under(faults)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runtime thread panicked"))
            .collect()
    })
}

/// 1 % transient read errors exercise the retry/backoff machinery;
/// two runs of it on concurrent threads each bit-match a run on the
/// test thread alone.
#[test]
fn parallel_runs_bit_match_sequential_with_transient_faults() {
    let seq = run_under(Faults::OnePercentTransient);
    assert!(
        !seq.trace_json.is_empty() && !seq.completions.is_empty(),
        "reference run produced nothing to compare"
    );
    assert_eq!(seq.fnv1a(), PINNED_TRANSIENT);
    let par = run_concurrently(&[Faults::OnePercentTransient, Faults::OnePercentTransient]);
    for (i, d) in par.iter().enumerate() {
        assert_eq!(
            d, &seq,
            "concurrent run {i} diverged from the sequential run"
        );
    }
}

/// All three fault regimes run side by side, twice: each regime replays
/// bit-identically across the two rounds and hashes to its pinned value,
/// so a faulted neighbour cannot perturb a fault-free run.
#[test]
fn parallel_same_seed_replays_bit_identically() {
    let regimes = [Faults::None, Faults::ZeroRate, Faults::OnePercentTransient];
    let pinned = [PINNED_NONE, PINNED_ZERO_RATE, PINNED_TRANSIENT];
    let first = run_concurrently(&regimes);
    let second = run_concurrently(&regimes);
    for ((faults, pin), (a, b)) in regimes.iter().zip(pinned).zip(first.iter().zip(&second)) {
        assert_eq!(a, b, "{faults:?}: same-seed concurrent runs diverged");
        assert_eq!(
            a.fnv1a(),
            pin,
            "{faults:?}: concurrent digest moved from its pinned reference"
        );
    }
}

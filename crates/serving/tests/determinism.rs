//! Pinned determinism tests for the serving co-simulation loop.
//!
//! For each fault regime the digested workload of [`common::run_under`]
//! must (a) replay bit-identically from the same seed and (b) hash to a
//! pinned constant, so any change to simulated behaviour, span ids or
//! export bytes fails here instead of passing a self-comparison.

mod common;

use common::{run_under, Faults, PINNED_NONE, PINNED_TRANSIENT, PINNED_ZERO_RATE};

/// Runs `faults` twice, asserts the replay is bit-identical and the
/// digest hashes to `pinned`.
fn assert_pinned(faults: Faults, pinned: u64) {
    let a = run_under(faults);
    assert!(
        !a.trace_json.is_empty() && !a.completions.is_empty(),
        "{faults:?}: run produced nothing to compare"
    );
    let b = run_under(faults);
    assert_eq!(a, b, "{faults:?}: same-seed runs diverged");
    assert_eq!(
        a.fnv1a(),
        pinned,
        "{faults:?}: digest moved from its pinned reference (got {:#018x})",
        a.fnv1a()
    );
}

/// Fault-free: completion stream, metrics, telemetry and trace JSON.
#[test]
fn pinned_digest_without_faults() {
    assert_pinned(Faults::None, PINNED_NONE);
}

/// An armed zero-rate fault plan stays invisible.
#[test]
fn pinned_digest_with_zero_rate_faults() {
    assert_pinned(Faults::ZeroRate, PINNED_ZERO_RATE);
}

/// 1 % transient read errors exercise the retry/backoff machinery; the
/// whole recovery path replays identically.
#[test]
fn pinned_digest_with_transient_faults() {
    assert_pinned(Faults::OnePercentTransient, PINNED_TRANSIENT);
}

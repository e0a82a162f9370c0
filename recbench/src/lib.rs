//! The repository benchmark: three workloads of the RecSSD simulator,
//! each measured end to end on both clocks and, in a separate traced
//! run, layer by layer. See `README.md` beside this crate for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.
//!
//! A run sets a workload up and times it repeatedly for the requested
//! number of wall seconds. Every pass of one seed is the same simulation,
//! so the sim-clock metrics come from the first pass and every later pass
//! must reproduce its completion digest exactly. `setup_s` is the median
//! over the passes, `wall_lookups_per_s` is built from each window
//! segment's fastest repetition (see [`best_segments_rate`]).

#![warn(missing_docs)]

pub mod device;
pub mod dlrm;
pub mod hybrid;
pub mod metrics;
pub mod ndp_open;
pub mod pass;
pub mod serving;
pub mod stats;

use std::time::{Duration, Instant};

use metrics::Values;
use pass::Pass;
use stats::median;

/// Workload length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's length.
    Full,
    /// A reduced length for the benchmark's own tests.
    Quick,
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NDP serving under open-loop Poisson arrivals.
    NdpZipfOpen,
    /// Adaptive DRAM-tier placement under drift and injected faults.
    HybridDrift,
    /// DLRM-RMC1 inference on the COTS-SSD baseline path.
    DlrmCots,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::NdpZipfOpen,
        Workload::HybridDrift,
        Workload::DlrmCots,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NdpZipfOpen => "ndp-zipf-open",
            Workload::HybridDrift => "hybrid-drift",
            Workload::DlrmCots => "dlrm-cots",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one pass (see the workload modules).
    pub fn pass(self, seed: u64, scale: Scale, t0: Instant, traced: bool, verify: bool) -> Pass {
        match self {
            Workload::NdpZipfOpen => ndp_open::pass(seed, scale, t0, traced, verify),
            Workload::HybridDrift => hybrid::pass(seed, scale, t0, traced, verify),
            Workload::DlrmCots => dlrm::pass(seed, scale, t0, traced, verify),
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds of timed passes (at least [`MIN_PASSES`] run).
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Workload length.
    pub scale: Scale,
}

/// Timed passes every run makes, however short `seconds` is: the second
/// pass is the determinism check.
pub const MIN_PASSES: usize = 2;

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Outputs verified, passes deterministic, traced pass identical.
    pub correct: bool,
    /// Requests attempted in one pass.
    pub attempted: u64,
    /// Failed, degraded or mismatched requests in one pass.
    pub failed: u64,
    /// End-to-end values.
    pub e2e: Values,
    /// Per-layer values (traced runs only).
    pub layers: Values,
    /// Sim-clock summary of the first pass.
    pub first: Pass,
    /// Passes timed.
    pub passes: usize,
    /// Highest SLO-meeting rung of the rate ladder (`ndp-zipf-open`,
    /// untraced runs only).
    pub slo_rps: Option<f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// Runs `cfg`: timed passes until `cfg.seconds` have elapsed since
/// `start` (the process start), then — untraced — the SLO ladder or —
/// traced — one traced pass whose sim-clock results must equal the
/// untraced ones.
pub fn run(cfg: &RunConfig, start: Instant) -> Outcome {
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut passes: Vec<Pass> = Vec::new();
    let mut diverged = None;
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let t0 = if passes.is_empty() {
            start
        } else {
            Instant::now()
        };
        let verify = passes.is_empty();
        let mut p = cfg.workload.pass(cfg.seed, cfg.scale, t0, false, verify);
        if let Some(first) = passes.first() {
            if p.digest != first.digest || p.sim != first.sim {
                diverged = Some(p.digest);
            }
            // Only the first pass's latencies are reported; dropping the
            // repeats' keeps peak memory independent of the pass count.
            p.sim.lat_ns = Vec::new();
        }
        passes.push(p);
    }
    let peak_rss = stats::peak_rss_mib().unwrap_or(0.0);
    let first = passes[0].clone();
    let mut lines = first.notes.clone();
    let mut correct = first.mismatched == 0;
    if first.mismatched > 0 {
        lines.push(format!(
            "error: {} of {} verified requests differ from sls_reference",
            first.mismatched, first.verified
        ));
    }
    if first.verified == 0 {
        correct = false;
        lines.push("error: no request was verified".to_string());
    }
    if let Some(digest) = diverged {
        correct = false;
        lines.push(format!(
            "error: passes of one seed diverged (digest {digest:016x} vs {:016x})",
            first.digest
        ));
    }
    if cfg.scale == Scale::Full && first.sim.p99_beyond() < 10 {
        correct = false;
        lines.push(format!(
            "error: only {} samples beyond the p99",
            first.sim.p99_beyond()
        ));
    }

    let walls: Vec<f64> = passes.iter().map(Pass::wall_lookups_per_s).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_ns as f64 / 1e9).collect();
    lines.push(format!(
        "passes: wall lookups/s {:?}  setup s {:?}",
        walls.iter().map(|w| w.round()).collect::<Vec<_>>(),
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    let mut e2e = Values::default();
    e2e.set("sim_lookups_per_s", first.sim.lookups_per_s());
    e2e.set("sim_p50_us", first.sim.p50_us());
    e2e.set("sim_p99_us", first.sim.p99_us());
    e2e.set("wall_lookups_per_s", best_segments_rate(&passes));
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_rss_mb", peak_rss);

    let mut slo_rps = None;
    let mut layers = Values::default();
    if cfg.trace {
        let traced = cfg
            .workload
            .pass(cfg.seed, cfg.scale, Instant::now(), true, false);
        if traced.digest != first.digest || traced.sim != first.sim {
            correct = false;
            lines.push(format!(
                "error: the traced pass changed the simulation (digest {:016x} vs {:016x})",
                traced.digest, first.digest
            ));
        }
        layers = traced.layers.clone();
        let windows: Vec<f64> = passes.iter().map(|p| p.window_ns as f64).collect();
        layers.set(
            "obs.trace_overhead",
            traced.window_ns as f64 / median(&windows),
        );
        layers.set(
            "obs.spans_per_lookup",
            traced.spans as f64 / traced.sim.lookups.max(1) as f64,
        );
        lines.extend(traced.notes.iter().map(|n| format!("traced {n}")));
    } else if cfg.workload == Workload::NdpZipfOpen {
        let (best, rungs) = ndp_open::slo_ladder(cfg.seed, cfg.scale);
        for r in &rungs {
            lines.push(format!(
                "slo rung: {:.0} req/sim-s  p99 {:.1} sim-us  backlog growth {:.3}  {}",
                r.rate,
                r.p99_us,
                r.growth,
                if r.ok { "meets" } else { "misses" }
            ));
        }
        slo_rps = Some(best);
    }
    layers.set(
        "embedding.verify_ns_per_lookup",
        first.verify_ns as f64 / first.verify_lookups.max(1) as f64,
    );
    let gens: Vec<f64> = passes
        .iter()
        .map(|p| p.gen_ns as f64 / p.gen_lookups.max(1) as f64)
        .collect();
    layers.set("trace.gen_ns_per_lookup", median(&gens));

    Outcome {
        correct,
        attempted: first.attempted,
        failed: first.failed + first.mismatched,
        e2e,
        layers,
        passes: passes.len(),
        slo_rps,
        lines,
        first,
    }
}

/// Simulated lookups per wall second of the fastest window the passes
/// reconstruct: every pass of one seed simulates the same events, so
/// each window segment's fastest repetition is the time that segment
/// takes with the least interference from the host, and their sum is
/// the pass time interference did not inflate.
pub fn best_segments_rate(passes: &[Pass]) -> f64 {
    let best: u64 = (0..passes[0].segments_ns.len())
        .map(|k| {
            passes
                .iter()
                .filter_map(|p| p.segments_ns.get(k))
                .min()
                .copied()
                .unwrap_or(0)
        })
        .sum();
    passes[0].sim.lookups as f64 * 1e9 / best.max(1) as f64
}

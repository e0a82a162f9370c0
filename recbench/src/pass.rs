//! One pass of a workload: set-up, the timed window, and everything read
//! off the program afterwards.

use std::time::Instant;

use recssd_obs::{CriticalPathReport, Phase, SpanRec};

use crate::metrics::Values;
use crate::stats::{beyond, quantile, Fnv};

/// Sim-clock end-to-end outcome of a pass. Deterministic for a given
/// seed: two passes compare with `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSummary {
    /// Requests (inferences on `dlrm-cots`) completed.
    pub requests: u64,
    /// Lookups completed.
    pub lookups: u64,
    /// First scheduled arrival → last completion, sim ns.
    pub makespan_ns: u64,
    /// Per-request latency from the scheduled arrival, sim ns, ascending.
    pub lat_ns: Vec<u64>,
}

impl SimSummary {
    /// Lookups completed per simulated second.
    pub fn lookups_per_s(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.lookups as f64 * 1e9 / self.makespan_ns as f64
        }
    }

    /// Median request latency, sim µs.
    pub fn p50_us(&self) -> f64 {
        quantile(&self.lat_ns, 0.50) as f64 / 1e3
    }

    /// 99th-percentile request latency, sim µs.
    pub fn p99_us(&self) -> f64 {
        quantile(&self.lat_ns, 0.99) as f64 / 1e3
    }

    /// Samples beyond the p99 (must be at least ten for a full-length run).
    pub fn p99_beyond(&self) -> usize {
        beyond(&self.lat_ns, 0.99)
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Set-up start (process start on the first pass) → first submit, ns.
    pub setup_ns: u64,
    /// Wall ns spent generating inputs (inside set-up).
    pub gen_ns: u64,
    /// Lookups generated.
    pub gen_lookups: u64,
    /// Wall ns of the timed window.
    pub window_ns: u64,
    /// Wall ns of each window segment (see [`WindowClock`]).
    pub segments_ns: Vec<u64>,
    /// Sim-clock outcome.
    pub sim: SimSummary,
    /// FNV digest over completion ids, finish times and output bits.
    pub digest: u64,
    /// Requests submitted.
    pub attempted: u64,
    /// Requests that failed or were served degraded.
    pub failed: u64,
    /// Sampled requests whose outputs differ from `sls_reference`.
    pub mismatched: u64,
    /// Requests verified against the reference (0 when not verified).
    pub verified: u64,
    /// Wall ns spent verifying (outside the timed window).
    pub verify_ns: u64,
    /// Lookups covered by the verified requests.
    pub verify_lookups: u64,
    /// Per-layer values (trace-derived ones only on a traced pass).
    pub layers: Values,
    /// Spans recorded (traced pass only).
    pub spans: u64,
    /// Extra human-readable report lines.
    pub notes: Vec<String>,
}

impl Pass {
    /// Simulated lookups per wall second of the timed window.
    pub fn wall_lookups_per_s(&self) -> f64 {
        self.sim.lookups as f64 * 1e9 / self.window_ns.max(1) as f64
    }
}

/// Mean sim µs per request the critical-path analyzer charges to
/// `phase`, over every path in `report`.
pub fn phase_us(report: &CriticalPathReport, phase: Phase) -> f64 {
    if report.requests == 0 {
        return 0.0;
    }
    let ns: u64 = report.paths.iter().map(|p| p.phase_ns[phase.index()]).sum();
    ns as f64 / report.requests as f64 / 1e3
}

/// Fills every critical-path phase metric from `report`.
pub fn fill_phases(v: &mut Values, report: &CriticalPathReport) {
    let map = [
        ("flash.read_us", Phase::FlashRead),
        ("ftl.engine_exec_us", Phase::EngineExec),
        ("ftl.fw_exec_us", Phase::FwExec),
        ("nvme.transfer_us", Phase::Transfer),
        ("core.host_sw_us", Phase::HostSw),
        ("core.merge_us", Phase::Merge),
        ("serving.admission_us", Phase::Admission),
        ("serving.shard_queue_us", Phase::ShardQueue),
        ("serving.retry_backoff_us", Phase::RetryBackoff),
        ("placement.tier_gather_us", Phase::TierGather),
    ];
    for (name, phase) in map {
        v.set(name, phase_us(report, phase));
    }
}

/// p99 of device-operator queueing (submission → worker start), sim µs,
/// read from the `op:queue` phase spans of every SLS operator (host
/// compute operators, which also wait on dependencies, are excluded).
pub fn op_queue_p99_us(spans: &[SpanRec]) -> f64 {
    let mut queued: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.name == "op:queue") {
        *queued.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut waits: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "op" && s.label != "host")
        .map(|s| queued.get(&s.id).copied().unwrap_or(0))
        .collect();
    waits.sort_unstable();
    quantile(&waits, 0.99) as f64 / 1e3
}

/// Folds one completion record into the stream digest.
pub fn fold_completion(d: &mut Fnv, words: &[u64], outputs: &[f32]) {
    for &w in words {
        d.fold(w);
    }
    d.fold_f32s(outputs);
}

/// Segments the timed window is split into: the window's wall time is
/// recorded at every `1/SEGMENTS` of the completions, so repeated passes
/// of one seed can be compared segment by segment.
pub const SEGMENTS: usize = 32;

/// The wall clock of the timed window, marked at fixed completion counts.
#[derive(Debug)]
pub struct WindowClock {
    start: Instant,
    every: usize,
    done: usize,
    marks: Vec<u64>,
}

impl WindowClock {
    /// Opens the window now, for a pass of `completions` completions.
    pub fn open(completions: usize) -> Self {
        WindowClock {
            start: Instant::now(),
            every: (completions / SEGMENTS).max(1),
            done: 0,
            marks: Vec::with_capacity(SEGMENTS + 1),
        }
    }

    /// Counts one completion.
    #[inline]
    pub fn tick(&mut self) {
        self.done += 1;
        if self.done.is_multiple_of(self.every) {
            self.marks.push(self.start.elapsed().as_nanos() as u64);
        }
    }

    /// Closes the window: its total wall ns and each segment's wall ns
    /// (the last segment runs to the close).
    pub fn close(mut self) -> (u64, Vec<u64>) {
        let total = self.start.elapsed().as_nanos() as u64;
        if !self.done.is_multiple_of(self.every) || self.marks.is_empty() {
            self.marks.push(total);
        }
        let mut prev = 0;
        let segments = self
            .marks
            .iter()
            .map(|&m| {
                let d = m - prev;
                prev = m;
                d
            })
            .collect();
        (total, segments)
    }
}

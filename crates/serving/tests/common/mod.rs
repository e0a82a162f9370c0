//! The digested serving workload shared by the determinism tests.
//!
//! A mixed-path, 4-shard, depth-2 workload with tracing on is digested
//! into its full observable surface: completion stream, metric registry,
//! end-of-run telemetry and Chrome-trace JSON, plus a pinned FNV-1a hash
//! of that digest per fault regime.
//!
//! A change that moves a pinned value on purpose must say why and
//! re-pin it.

use recssd::{FaultConfig, LookupBatch, SlsOptions};
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_serving::{
    chrome_trace_json, FaultPolicy, MetricValue, SchedulePolicy, ServingConfig, ServingRuntime,
    SlsPath,
};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::SimTime;

const ROWS: u64 = 600;

/// Pinned [`RunDigest::fnv1a`] values per fault regime. The zero-rate
/// plan pins to the fault-free value: an armed plan that never fires is
/// invisible.
pub const PINNED_NONE: u64 = 0x3cf4_1934_2b32_e091;
pub const PINNED_ZERO_RATE: u64 = 0x3cf4_1934_2b32_e091;
pub const PINNED_TRANSIENT: u64 = 0x6fb6_a2db_a5cf_3d83;

#[derive(Debug, PartialEq)]
pub struct RunDigest {
    /// Completion stream in delivery order: id, timings (ns), raw
    /// output bits, degradation accounting.
    pub completions: Vec<(u64, u64, u64, u64, Vec<u32>, u64)>,
    /// Every registry metric, stringified.
    metrics: Vec<String>,
    /// End-of-run telemetry as raw bits.
    occupancy: Vec<u64>,
    channel_util: Vec<u64>,
    tier_occupancy: u64,
    /// The full Chrome-trace export.
    pub trace_json: String,
}

/// 64-bit FNV-1a over an explicit little-endian encoding of the digest
/// (lengths prefixed), so the pinned values do not depend on `Hash`
/// impl details or the platform's word size.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

impl RunDigest {
    pub fn fnv1a(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.completions.len() as u64);
        for (id, finish, queue, service, bits, missing) in &self.completions {
            for v in [*id, *finish, *queue, *service] {
                h.u64(v);
            }
            h.u64(bits.len() as u64);
            for b in bits {
                h.bytes(&b.to_le_bytes());
            }
            h.u64(*missing);
        }
        h.u64(self.metrics.len() as u64);
        for m in &self.metrics {
            h.str(m);
        }
        for series in [&self.occupancy, &self.channel_util] {
            h.u64(series.len() as u64);
            for &v in series {
                h.u64(v);
            }
        }
        h.u64(self.tier_occupancy);
        h.str(&self.trace_json);
        h.0
    }
}

/// How hard the deterministic fault plan leans on the run.
#[derive(Clone, Copy, Debug)]
pub enum Faults {
    None,
    ZeroRate,
    OnePercentTransient,
}

/// A mixed-path, 4-shard, depth-2 workload with tracing on, run to idle.
pub fn run_under(faults: Faults) -> RunDigest {
    let cfg = ServingConfig::small_wide(4, SchedulePolicy::micro_batch(8)).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_tracing();
    let t = rt.add_table(EmbeddingTable::procedural(
        TableSpec::new(ROWS, 12, Quantization::F32),
        9,
    ));
    match faults {
        Faults::None => {}
        Faults::ZeroRate => {
            // An armed all-zero-rate plan must be as invisible as no
            // plan at all.
            rt.inject_faults(&FaultConfig::quiet(0x5EED));
            rt.set_fault_policy(FaultPolicy::default());
        }
        Faults::OnePercentTransient => {
            let mut fc = FaultConfig::quiet(0x5EED);
            fc.transient_read_error_rate = 0.01;
            rt.inject_faults(&fc);
            rt.set_fault_policy(FaultPolicy::default());
        }
    }
    let mut rng = Xoshiro256::seed_from(0xD15C);
    let paths = [
        SlsPath::Dram,
        SlsPath::Baseline(SlsOptions::default()),
        SlsPath::Ndp(SlsOptions::default()),
    ];
    for i in 0..36u64 {
        let batch = LookupBatch::new(
            (0..3)
                .map(|_| (0..6).map(|_| rng.gen_range(0..ROWS)).collect())
                .collect(),
        );
        rt.submit_at(
            SimTime::from_us(i * 3),
            i,
            t,
            batch,
            paths[i as usize % paths.len()],
        );
    }
    let completions = rt
        .run_until_idle()
        .iter()
        .map(|d| {
            (
                d.id.0,
                d.finish.as_ns(),
                d.queue.as_ns(),
                d.service.as_ns(),
                d.outputs.as_slice().iter().map(|v| v.to_bits()).collect(),
                d.missing_lookups,
            )
        })
        .collect();
    let key = |v: &(String, MetricValue)| format!("{v:?}");
    RunDigest {
        completions,
        metrics: rt.metrics_snapshot().iter().map(key).collect(),
        occupancy: rt.shard_occupancy().iter().map(|v| v.to_bits()).collect(),
        channel_util: rt
            .channel_utilisation()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        tier_occupancy: rt.tier_occupancy().to_bits(),
        trace_json: chrome_trace_json(&rt.take_trace()),
    }
}

//! `hybrid-drift`: the same runtime and NDP path, used differently. Two
//! shards serve drifting-Zipf traffic through a host DRAM tier that an
//! online-adaptive placement keeps re-planning, while injected transient
//! and uncorrectable flash faults drive ECC retries, host retries and
//! NDP→baseline fallback. Most lookups hit the DRAM tier; flash is
//! lightly used.

use std::time::Instant;

use recssd::{FaultConfig, LookupBatch, SlsOptions};
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_placement::{FreqProfiler, PlacementPlan};
use recssd_serving::{AdaptivePolicy, SchedulePolicy, ServingConfig, ServingRuntime, SlsPath};
use recssd_trace::DriftingZipf;

use crate::pass::Pass;
use crate::serving::{self, Pacing, Prepared, Requests};
use crate::stats::derive;
use crate::Scale;

const SHARDS: usize = 2;
const DEPTH: usize = 4;
const MICRO_BATCH: usize = 16;
const TABLES: usize = 2;
const ROWS: u64 = 8_192;
const DIM: usize = 32;
const OUTPUTS: usize = 4;
const LOOKUPS_PER_OUTPUT: usize = 8;
const SKEW: f64 = 1.5;
const CHURN: f64 = 0.35;
const PHASES: usize = 4;
/// Global DRAM-tier row budget across both tables.
const BUDGET_ROWS: usize = 512;
const EPOCH_REQUESTS: u64 = 96;
const DECAY: f64 = 0.8;
const MIN_HIT_GAIN: f64 = 0.03;
const CLIENTS: usize = 48;
/// Samples per table profiled from drift phase 0 for the initial plan.
const PROFILE_SAMPLES: usize = 100_000;
const TRANSIENT_RATE: f64 = 0.01;
const UNCORRECTABLE_RATE: f64 = 0.002;

/// Requests per drift phase.
pub fn requests_per_phase(scale: Scale) -> usize {
    match scale {
        Scale::Full => 6_000,
        Scale::Quick => 600,
    }
}

fn prepare(seed: u64, scale: Scale) -> Prepared {
    let per_phase = requests_per_phase(scale);
    let n = per_phase * PHASES;
    // Draws per table per phase: requests alternate between the tables.
    let period = (per_phase / TABLES * OUTPUTS * LOOKUPS_PER_OUTPUT) as u64;
    let streams: Vec<DriftingZipf> = (0..TABLES)
        .map(|t| {
            DriftingZipf::new(ROWS, SKEW, derive(seed, 20 + t as u64), period).with_churn(CHURN)
        })
        .collect();

    // The initial plan: a global budget profiled on phase 0.
    let mut prof = FreqProfiler::new();
    for s in &streams {
        let id = prof.add_table(ROWS);
        let mut pinned = s.pinned(0);
        prof.profile_stream(id, (0..PROFILE_SAMPLES).map(|_| pinned.next_id()));
    }
    let plan = PlacementPlan::build_global(&prof, BUDGET_ROWS);

    let cfg = ServingConfig::small_wide(SHARDS, SchedulePolicy::micro_batch(MICRO_BATCH))
        .with_depth(DEPTH);
    let mut rt = ServingRuntime::new(&cfg);
    let data: Vec<EmbeddingTable> = (0..TABLES)
        .map(|t| {
            EmbeddingTable::procedural(
                TableSpec::new(ROWS, DIM, Quantization::F32),
                derive(seed, 200 + t as u64),
            )
        })
        .collect();
    let tables = data
        .iter()
        .enumerate()
        .map(|(t, d)| rt.add_table_placed(d.clone(), plan.table(t)))
        .collect();
    rt.enable_adaptive(AdaptivePolicy {
        epoch_requests: EPOCH_REQUESTS,
        decay: DECAY,
        budget_rows: BUDGET_ROWS,
        min_hit_gain: MIN_HIT_GAIN,
    });
    rt.inject_faults(&FaultConfig {
        transient_read_error_rate: TRANSIENT_RATE,
        uncorrectable_rate: UNCORRECTABLE_RATE,
        ..FaultConfig::quiet(derive(seed, 30))
    });

    let g = Instant::now();
    let mut streams = streams;
    let mut table_of = Vec::with_capacity(n);
    let mut batches = Vec::with_capacity(n);
    for i in 0..n {
        let t = i % TABLES;
        table_of.push(t);
        let s = &mut streams[t];
        batches.push(LookupBatch::new(
            (0..OUTPUTS)
                .map(|_| (0..LOOKUPS_PER_OUTPUT).map(|_| s.next_id()).collect())
                .collect(),
        ));
    }
    let gen_ns = g.elapsed().as_nanos() as u64;
    Prepared {
        rt,
        tables,
        data,
        requests: Requests { table_of, batches },
        pacing: Pacing::Closed { clients: CLIENTS },
        path: SlsPath::Ndp(SlsOptions::default()),
        stride: OUTPUTS * DIM,
        gen_ns,
    }
}

/// One pass; see [`serving::run`].
pub fn pass(seed: u64, scale: Scale, t0: Instant, traced: bool, verify: bool) -> Pass {
    serving::run(prepare(seed, scale), t0, traced, verify)
}

//! `ndp-zipf-open`: the RecSSD serving regime. Four `small_wide` shards
//! with 8-engine per-channel SLS pools serve Zipf-1.2 requests on the
//! NDP path under open-loop Poisson arrivals at a fixed rate, so flash
//! channels, the engine pool and the serving queues do most of the work.

use std::time::Instant;

use recssd::{EnginePoolConfig, LookupBatch, MergePlacement, SlsOptions};
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_serving::{SchedulePolicy, ServingConfig, ServingRuntime, SlsPath};
use recssd_sim::SimTime;
use recssd_trace::{ArrivalProcess, ZipfTrace};

use crate::pass::Pass;
use crate::serving::{self, Pacing, Prepared, Requests};
use crate::stats::{derive, quantile};
use crate::Scale;

const SHARDS: usize = 4;
const DEPTH: usize = 4;
const MICRO_BATCH: usize = 8;
const ENGINES: usize = 8;
const TABLES: usize = 2;
/// A `small_wide` slot holds 4,096 pages per table per shard, so 16,384
/// dim-64 rows over four shards is the largest table that registers.
const ROWS: u64 = 16_384;
const DIM: usize = 64;
const OUTPUTS: usize = 8;
const LOOKUPS_PER_OUTPUT: usize = 20;
const ZIPF: f64 = 1.2;
/// Offered load of the measured pass, requests per simulated second.
pub const RATE_RPS: f64 = 2_500.0;

/// The SLO the rate ladder is judged against: p99 at most this, sim µs.
pub const SLO_P99_US: f64 = 5_000.0;
/// The fixed absolute rate ladder, requests per simulated second.
pub const LADDER: (f64, f64, f64) = (1_500.0, 7_000.0, 250.0);
/// A rung's backlog grows when the mean latency of the last quarter of
/// arrivals exceeds this multiple of the second quarter's.
pub const BACKLOG_GROWTH: f64 = 1.5;

/// Requests of the measured pass.
pub fn requests(scale: Scale) -> usize {
    match scale {
        Scale::Full => 16_000,
        Scale::Quick => 1_200,
    }
}

/// Requests of one ladder rung (enough to leave ≥ 10 beyond the p99).
fn rung_requests(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1_200,
        Scale::Quick => 1_100,
    }
}

fn runtime() -> ServingRuntime {
    let mut cfg = ServingConfig::small_wide(SHARDS, SchedulePolicy::micro_batch(MICRO_BATCH))
        .with_depth(DEPTH);
    cfg.system.ssd.ftl.engines = Some(EnginePoolConfig {
        engines: ENGINES,
        rate_pct: 100,
        merge: MergePlacement::FwCore,
    });
    ServingRuntime::new(&cfg)
}

/// `n` Zipf requests over the tables round-robin, arriving as a Poisson
/// process at `rate` requests per simulated second.
fn inputs(seed: u64, n: usize, rate: f64) -> (Requests, Vec<SimTime>) {
    let mut zipf: Vec<ZipfTrace> = (0..TABLES)
        .map(|t| ZipfTrace::new(ROWS, ZIPF, derive(seed, 10 + t as u64)))
        .collect();
    let mut arrivals = ArrivalProcess::poisson(rate, derive(seed, 1));
    let mut at = SimTime::ZERO;
    let mut times = Vec::with_capacity(n);
    let mut table_of = Vec::with_capacity(n);
    let mut batches = Vec::with_capacity(n);
    for i in 0..n {
        at += arrivals.next_gap();
        times.push(at);
        let t = i % TABLES;
        table_of.push(t);
        let z = &mut zipf[t];
        batches.push(LookupBatch::new(
            (0..OUTPUTS)
                .map(|_| (0..LOOKUPS_PER_OUTPUT).map(|_| z.next_id()).collect())
                .collect(),
        ));
    }
    (Requests { table_of, batches }, times)
}

fn prepare(seed: u64, n: usize, rate: f64) -> Prepared {
    let mut rt = runtime();
    let data: Vec<EmbeddingTable> = (0..TABLES)
        .map(|t| {
            EmbeddingTable::procedural(
                TableSpec::new(ROWS, DIM, Quantization::F32),
                derive(seed, 100 + t as u64),
            )
        })
        .collect();
    let tables = data.iter().map(|t| rt.add_table(t.clone())).collect();
    let g = Instant::now();
    let (requests, arrivals) = inputs(seed, n, rate);
    let gen_ns = g.elapsed().as_nanos() as u64;
    Prepared {
        rt,
        tables,
        data,
        requests,
        pacing: Pacing::Open(arrivals),
        path: SlsPath::Ndp(SlsOptions::default()),
        stride: OUTPUTS * DIM,
        gen_ns,
    }
}

/// One pass at [`RATE_RPS`]; see [`serving::run`].
pub fn pass(seed: u64, scale: Scale, t0: Instant, traced: bool, verify: bool) -> Pass {
    serving::run(prepare(seed, requests(scale), RATE_RPS), t0, traced, verify)
}

/// One rung of the SLO ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per simulated second.
    pub rate: f64,
    /// p99 latency from the scheduled arrival, sim µs.
    pub p99_us: f64,
    /// Mean latency of the last quarter of arrivals ÷ the second's.
    pub growth: f64,
    /// Whether the rung meets the SLO without a growing backlog.
    pub ok: bool,
}

/// Climbs the fixed absolute rate ladder until the first rung that
/// misses the SLO or grows a backlog. Returns the highest passing rate
/// (0 when the first rung misses) and every rung run. Sim clock only.
pub fn slo_ladder(seed: u64, scale: Scale) -> (f64, Vec<Rung>) {
    let (lo, hi, step) = LADDER;
    let mut best = 0.0;
    let mut rungs = Vec::new();
    let mut rate = lo;
    while rate <= hi {
        let n = rung_requests(scale);
        let p = prepare(derive(seed, rate as u64), n, rate);
        let arrivals = match &p.pacing {
            Pacing::Open(a) => a.clone(),
            Pacing::Closed { .. } => unreachable!("the ladder is open-loop"),
        };
        let mut rt = p.rt;
        let path = p.path;
        let mut index_of = std::collections::HashMap::with_capacity(n);
        for (i, batch) in p.requests.batches.into_iter().enumerate() {
            let id = rt.submit_at(
                arrivals[i],
                0,
                p.tables[p.requests.table_of[i]],
                batch,
                path,
            );
            index_of.insert(id.0, i);
        }
        // Latency by arrival index.
        let mut lat = vec![0u64; n];
        while let Some(done) = rt.step().expect("serving runtime invariant violated") {
            lat[index_of[&done.id.0]] = done.finish.saturating_since(done.arrival).as_ns();
            rt.recycle_output(done.outputs);
        }
        let q = n / 4;
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
        let growth = mean(&lat[3 * q..]) / mean(&lat[q..2 * q]).max(1.0);
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        let p99_us = quantile(&sorted, 0.99) as f64 / 1e3;
        let ok = p99_us <= SLO_P99_US && growth <= BACKLOG_GROWTH;
        rungs.push(Rung {
            rate,
            p99_us,
            growth,
            ok,
        });
        if !ok {
            break;
        }
        best = rate;
        rate += step;
    }
    (best, rungs)
}

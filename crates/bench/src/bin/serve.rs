//! Serving-layer benchmark: sweeps shard count × scheduling policy ×
//! operator queue depth for all three execution paths under closed-loop
//! Zipf traffic, sweeps open-loop offered load (Poisson arrivals)
//! against latency per path, sweeps hot-fraction × Zipf skew × path for
//! the frequency-profiled hybrid DRAM+NDP placement subsystem, runs a
//! drifting-skew sweep (stale static plan vs the online-adaptive runtime
//! vs a per-phase oracle) plus a baseline-path pipelining A/B, runs a
//! resilience suite (deterministic fault injection: transient-rate
//! sweep, uncorrectable-media recovery, full-shard brownout behind the
//! circuit breaker), runs a traced observability pass (sim-time span
//! tracing across serving → host → firmware → flash, per-path latency
//! attribution, wall-clock self-profile), runs the trace analysis layer
//! over it (per-request critical-path extraction, per-resource queueing
//! timelines, automated bottleneck ranking + headroom), sweeps
//! per-channel SLS engine pools × queue depth on the NDP path (the
//! multi-engine in-SSD compute tentpole), and writes
//! `BENCH_serving.json` (v10 schema) with throughput, p50/p95/p99/p999
//! latency, per-shard operator occupancy, flash channel utilisation,
//! DRAM-tier hit-rate, per-tier latency, plan-refresh / migration
//! telemetry, fault / retry / fallback / degradation counters, the
//! observability block and the analysis block.
//!
//! ```text
//! cargo run --release -p recssd-bench --bin serve
//! RECSSD_PAPER_SCALE=1 cargo run --release -p recssd-bench --bin serve
//! cargo run --release -p recssd-bench --bin serve -- out.json \
//!     --trace-out trace.json --epoch-log epochs.jsonl
//! ```
//!
//! At any scale the run asserts the serving subsystem's acceptance bars:
//! aggregate NDP throughput grows at least 2x from 1 shard to 4 shards,
//! intra-shard pipelining (queue depth 4) gains at least 1.5x over depth
//! 1 on the 1-shard NDP FIFO configuration, hybrid DRAM+NDP placement
//! beats the all-NDP baseline by at least 1.3x at every swept skew
//! (all ≥ 0.9), frequency-ordered cold packing does not lower the FTL
//! page-cache hit rate, online-adaptive placement recovers at least 70%
//! of the per-phase-oracle throughput under churning skew while the
//! stale static plan falls below it, heat-packed storage gives the
//! baseline path at least 1.25x from queue depth 1 to 4, a sample of
//! merged outputs bit-matches `sls_reference` in every sweep, NDP
//! serving at 1% transient faults keeps at least 85% of fault-free
//! throughput with *every* completion bit-verified, a full-shard
//! brownout trips the circuit breaker while the fleet keeps serving
//! (degraded completions flagged, never silently wrong), the traced
//! pass reconstructs at least 99% of every request's end-to-end latency
//! from causally-linked child spans, the critical-path decomposition
//! conserves at least 95% of e2e time on all three serving paths, and
//! on the heat-packed baseline workload the bottleneck analyzer ranks
//! the serial firmware core first — re-finding, automatically, the wall
//! that previously took a manual deep-dive. With per-channel engine
//! pools enabled, multi-engine NDP throughput dominates the
//! single-engine configuration at every swept point (≥ 1.5x at 4 shards
//! × depth 4), and the traced multi-engine run's top bottleneck moves
//! off the firmware core onto a flash resource.

use std::fmt::Write as _;

use recssd::{
    BrownoutWindow, EnginePoolConfig, FaultConfig, LookupBatch, MergePlacement, SlsOptions,
};
use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableSpec};
use recssd_placement::{plan_delta, FreqProfiler, PlacementPlan, PlacementPolicy};
use recssd_serving::{
    bottleneck_report, chrome_trace_json, critical_path_report, utilization_timelines,
    validate_spans, AdaptivePolicy, BottleneckReport, CriticalPathReport, FaultPolicy, LoadGen,
    LoadMode, LoadReport, PathAttribution, Phase, SchedulePolicy, ServingConfig, ServingRuntime,
    SlsPath, TrafficSpec, UtilizationTimeline, WallPhaseReport,
};
use recssd_sim::stats::Quantiles;
use recssd_sim::{SimDuration, SimTime};
use recssd_trace::{ArrivalProcess, DriftingZipf, RowStream, ZipfTrace};

struct Params {
    tables: usize,
    rows_per_table: u64,
    dim: usize,
    spec: TrafficSpec,
    clients: usize,
    requests: usize,
    verify_every: u64,
    depths: &'static [usize],
    /// Offered load as a fraction of the measured pipelined capacity.
    open_loads: &'static [f64],
    open_requests: usize,
    /// Zipf exponents of the placement sweep (the paper's skew axis).
    skews: &'static [f64],
    /// DRAM-tier budgets of the placement sweep, as row fractions
    /// (0 = the unplaced all-device baseline).
    hot_fractions: &'static [f64],
    /// Profiling samples per table feeding the placement plan.
    profile_samples: usize,
    /// Rows of the dense-layout packing A/B table.
    packing_rows: u64,
    /// Drift sweep: rotation phases (phase 0 included).
    drift_phases: u64,
    /// Drift sweep: requests served per phase.
    drift_requests_per_phase: usize,
    /// Drift sweep: Zipf skew of the rotating distribution.
    drift_skew: f64,
    /// Drift sweep: fraction of the rank mapping that churns per phase.
    drift_churn: f64,
    /// Drift sweep: global DRAM row budget (all tables together) — kept
    /// small enough that the head it buys is *learnable* from live
    /// traffic, the regime where online re-profiling can actually chase
    /// the oracle.
    drift_budget_rows: usize,
    /// Adaptive arm: admissions per re-planning epoch.
    drift_epoch_requests: u64,
    /// Drift sweep: closed-loop client population (high enough that
    /// throughput reflects capacity — i.e. miss rate — not per-request
    /// latency).
    drift_clients: usize,
    /// Multi-engine sweep: embedding dimension. Wide vectors put the
    /// NDP path in the Fig.-11a regime where per-page Translation
    /// dominates the firmware — the wall the engine pool breaks.
    me_dim: usize,
    /// Multi-engine sweep: closed-loop clients (enough to saturate all
    /// [`ME_SHARDS`] shards at the deepest swept queue depth).
    me_clients: usize,
}

impl Params {
    fn from_env() -> Self {
        if std::env::var("RECSSD_PAPER_SCALE").as_deref() == Ok("1") {
            Params {
                tables: 4,
                rows_per_table: 4096,
                dim: 32,
                spec: TrafficSpec {
                    outputs: 4,
                    lookups_per_output: 10,
                    zipf_exponent: 1.2,
                },
                clients: 16,
                requests: 512,
                verify_every: 16,
                depths: &[1, 2, 4, 8],
                open_loads: &[0.25, 0.5, 0.75, 0.95],
                open_requests: 256,
                skews: &[1.05, 1.2, 1.5, 2.0],
                hot_fractions: &[0.0, 0.02, 0.05, 0.1, 0.2],
                profile_samples: 200_000,
                packing_rows: 16_384,
                drift_phases: 4,
                drift_requests_per_phase: 768,
                drift_skew: 1.5,
                drift_churn: 0.35,
                drift_budget_rows: 512,
                drift_epoch_requests: 96,
                drift_clients: 64,
                me_dim: 1024,
                me_clients: 64,
            }
        } else {
            Params {
                tables: 2,
                rows_per_table: 2048,
                dim: 32,
                spec: TrafficSpec {
                    outputs: 4,
                    lookups_per_output: 8,
                    zipf_exponent: 1.2,
                },
                clients: 12,
                requests: 96,
                verify_every: 8,
                depths: &[1, 2, 4],
                open_loads: &[0.25, 0.5, 0.75, 0.95],
                open_requests: 96,
                skews: &[1.05, 1.2, 1.5],
                hot_fractions: &[0.0, 0.05, 0.2],
                profile_samples: 50_000,
                packing_rows: 8_192,
                drift_phases: 4,
                drift_requests_per_phase: 384,
                drift_skew: 1.5,
                drift_churn: 0.35,
                drift_budget_rows: 128,
                drift_epoch_requests: 48,
                drift_clients: 48,
                me_dim: 1024,
                me_clients: 32,
            }
        }
    }
}

fn build_runtime(
    p: &Params,
    cfg: &ServingConfig,
) -> (ServingRuntime, Vec<recssd_serving::ServedTableId>) {
    let mut rt = ServingRuntime::new(cfg);
    let tables = (0..p.tables)
        .map(|t| {
            rt.add_table(EmbeddingTable::procedural(
                TableSpec::new(p.rows_per_table, p.dim, Quantization::F32),
                t as u64,
            ))
        })
        .collect();
    (rt, tables)
}

struct ConfigReport {
    shards: usize,
    depth: usize,
    policy: &'static str,
    path: &'static str,
    report: LoadReport,
}

fn run_config(
    p: &Params,
    shards: usize,
    depth: usize,
    policy: SchedulePolicy,
    path: SlsPath,
) -> ConfigReport {
    let cfg = ServingConfig::small_wide(shards, policy).with_depth(depth);
    let (mut rt, tables) = build_runtime(p, &cfg);
    let mut gen = LoadGen::new(
        &rt,
        tables,
        p.spec,
        LoadMode::Closed {
            clients: p.clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_verify_every(p.verify_every);
    let report = gen.run(&mut rt, path, p.requests);
    assert!(
        report.verified > 0,
        "verification sample was empty — bit-match unchecked"
    );
    ConfigReport {
        shards,
        depth,
        policy: policy.name(),
        path: path.name(),
        report,
    }
}

struct OpenReport {
    path: &'static str,
    depth: usize,
    /// Fraction of the measured closed-loop capacity offered.
    load: f64,
    /// Offered arrival rate, requests per simulated second.
    rate_rps: f64,
    report: LoadReport,
}

/// Open-loop latency-vs-offered-load point: Poisson arrivals at a fixed
/// fraction of the path's measured pipelined capacity, 1 shard, FIFO.
fn run_open(p: &Params, path: SlsPath, depth: usize, load: f64, capacity_rps: f64) -> OpenReport {
    let rate_rps = load * capacity_rps;
    let cfg = ServingConfig::small_wide(1, SchedulePolicy::Fifo).with_depth(depth);
    let (mut rt, tables) = build_runtime(p, &cfg);
    let mut gen = LoadGen::new(
        &rt,
        tables,
        p.spec,
        LoadMode::Open(ArrivalProcess::poisson(rate_rps, 99)),
        71,
    )
    .with_verify_every(p.verify_every);
    let report = gen.run(&mut rt, path, p.open_requests);
    assert!(report.verified > 0, "open-loop bit-match unchecked");
    OpenReport {
        path: path.name(),
        depth,
        load,
        rate_rps,
        report,
    }
}

struct PlacementReport {
    path: &'static str,
    skew: f64,
    hot_fraction: f64,
    hot_rows: usize,
    report: LoadReport,
}

/// Profiles one decorrelated Zipf stream per table at `skew` — static
/// placement relies on the distribution, not the exact replay, so one
/// profile serves every (path × hot-fraction) point of that skew.
fn profile_skew(p: &Params, skew: f64) -> FreqProfiler {
    let mut prof = FreqProfiler::new();
    for t in 0..p.tables {
        let id = prof.add_table(p.rows_per_table);
        let mut zipf = ZipfTrace::new(p.rows_per_table, skew, 0x9E37 + t as u64 * 7919);
        prof.profile_zipf(id, &mut zipf, p.profile_samples);
    }
    prof
}

/// One hybrid-placement point: pin the plan's hot rows into the DRAM
/// tier (no plan = the unplaced all-device baseline) and serve
/// closed-loop traffic of the profiled skew. Two shards, pipelined
/// FIFO, like for like across hot fractions.
fn run_placement(
    p: &Params,
    path: SlsPath,
    depth: usize,
    skew: f64,
    hot_fraction: f64,
    plan: Option<&PlacementPlan>,
) -> PlacementReport {
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo).with_depth(depth);
    let mut rt = ServingRuntime::new(&cfg);
    let mut hot_rows = 0;
    let tables = (0..p.tables)
        .map(|t| {
            let table = EmbeddingTable::procedural(
                TableSpec::new(p.rows_per_table, p.dim, Quantization::F32),
                t as u64,
            );
            match plan {
                Some(plan) => {
                    hot_rows += plan.table(t).hot_count();
                    rt.add_table_placed(table, plan.table(t))
                }
                None => rt.add_table(table),
            }
        })
        .collect();
    let spec = TrafficSpec {
        zipf_exponent: skew,
        ..p.spec
    };
    let mut gen = LoadGen::new(
        &rt,
        tables,
        spec,
        LoadMode::Closed {
            clients: p.clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_verify_every(p.verify_every);
    let report = gen.run(&mut rt, path, p.requests);
    assert!(report.verified > 0, "placement bit-match unchecked");
    PlacementReport {
        path: path.name(),
        skew,
        hot_fraction,
        hot_rows,
        report,
    }
}

struct PackingReport {
    packed: bool,
    report: LoadReport,
}

/// Frequency-ordered cold packing A/B: one dense-layout table much
/// larger than the 32-page FTL cache, zero hot budget (packing only),
/// NDP path. Packed images put the co-hot head of the Zipf stream on
/// shared pages, so the FTL page cache covers far more of the traffic.
fn run_packing(p: &Params, depth: usize, packed: bool) -> PackingReport {
    let skew = 1.2;
    let mut cfg = ServingConfig::small_wide(1, SchedulePolicy::Fifo).with_depth(depth);
    cfg.layout = PageLayout::Dense;
    let mut rt = ServingRuntime::new(&cfg);
    let table =
        EmbeddingTable::procedural(TableSpec::new(p.packing_rows, p.dim, Quantization::F32), 1);
    let id = if packed {
        let mut prof = FreqProfiler::new();
        let t = prof.add_table(p.packing_rows);
        let mut zipf = ZipfTrace::new(p.packing_rows, skew, 0x9E37);
        prof.profile_zipf(t, &mut zipf, p.profile_samples);
        let plan = PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(0.0));
        rt.add_table_placed(table, plan.table(0))
    } else {
        rt.add_table(table)
    };
    let spec = TrafficSpec {
        zipf_exponent: skew,
        ..p.spec
    };
    let mut gen = LoadGen::new(
        &rt,
        vec![id],
        spec,
        LoadMode::Closed {
            clients: p.clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_verify_every(p.verify_every);
    let report = gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), p.requests);
    assert!(report.verified > 0, "packing bit-match unchecked");
    PackingReport { packed, report }
}

/// One arm of the drift sweep: aggregate throughput plus per-phase
/// tier-hit and refresh telemetry.
struct DriftArm {
    arm: &'static str,
    lookups_per_sim_sec: f64,
    plan_refreshes: u64,
    rows_promoted: u64,
    rows_demoted: u64,
    migration_lookups: u64,
    phase_tput: Vec<f64>,
    phase_tier_hit: Vec<f64>,
}

fn drift_seed(t: usize) -> u64 {
    0xD41F7 + t as u64 * 7919
}

/// Request shape of the drift sweep: small requests keep the fully-hot
/// request fraction (≈ hit_rate^lookups, the quantity that actually
/// gates hybrid throughput) from amplifying tiny hit-rate gaps into
/// cliff edges, so the sweep measures adaptation rather than the tail of
/// the binomial.
fn drift_spec(p: &Params) -> TrafficSpec {
    TrafficSpec {
        zipf_exponent: p.drift_skew,
        ..p.spec
    }
}

/// Draws per table, per phase, of the drifting stream (the generator is
/// shared round-robin across tables, so each table sees `1/tables` of
/// the phase's requests).
fn drift_period(p: &Params) -> u64 {
    (p.drift_requests_per_phase / p.tables) as u64 * drift_spec(p).lookups_per_request() as u64
}

/// The stationary profile of one drift phase, via pinned clones of the
/// traffic generators — what an oracle that knows the phase's
/// distribution would profile.
fn profile_drift_phase(p: &Params, phase: u64) -> FreqProfiler {
    let mut prof = FreqProfiler::new();
    for t in 0..p.tables {
        let id = prof.add_table(p.rows_per_table);
        let mut pinned = DriftingZipf::new(
            p.rows_per_table,
            p.drift_skew,
            drift_seed(t),
            drift_period(p),
        )
        .with_churn(p.drift_churn)
        .pinned(phase);
        prof.profile_stream(id, (0..p.profile_samples).map(|_| pinned.next_id()));
    }
    prof
}

/// Registers every table under `plan` on a fresh 2-shard pipelined
/// runtime.
fn drift_runtime(
    p: &Params,
    depth: usize,
    plan: &PlacementPlan,
) -> (ServingRuntime, Vec<recssd_serving::ServedTableId>) {
    // Micro-batching amortises per-command fixed costs across requests,
    // so capacity tracks *cold lookup volume* — the quantity placement
    // actually controls — rather than per-request round-trips.
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(16)).with_depth(depth);
    let mut rt = ServingRuntime::new(&cfg);
    let tables = (0..p.tables)
        .map(|t| {
            let table = EmbeddingTable::procedural(
                TableSpec::new(p.rows_per_table, p.dim, Quantization::F32),
                t as u64,
            );
            rt.add_table_placed(table, plan.table(t))
        })
        .collect();
    (rt, tables)
}

fn drift_gen(
    p: &Params,
    rt: &ServingRuntime,
    tables: &[recssd_serving::ServedTableId],
    streams: Vec<RowStream>,
) -> LoadGen {
    let spec = drift_spec(p);
    LoadGen::new(
        rt,
        tables.to_vec(),
        spec,
        LoadMode::Closed {
            clients: p.drift_clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_streams(streams)
    .with_verify_every(p.verify_every)
}

fn fold_drift_arm(arm: &'static str, phases: &[LoadReport]) -> DriftArm {
    let lookups: u64 = phases.iter().map(|r| r.lookups).sum();
    let secs: f64 = phases.iter().map(|r| r.makespan.as_secs_f64()).sum();
    DriftArm {
        arm,
        lookups_per_sim_sec: lookups as f64 / secs,
        plan_refreshes: phases.iter().map(|r| r.plan_refreshes).sum(),
        rows_promoted: phases.iter().map(|r| r.rows_promoted).sum(),
        rows_demoted: phases.iter().map(|r| r.rows_demoted).sum(),
        migration_lookups: phases.iter().map(|r| r.migration_lookups).sum(),
        phase_tput: phases.iter().map(|r| r.lookups_per_sim_sec).collect(),
        phase_tier_hit: phases.iter().map(|r| r.tier_hit_rate).collect(),
    }
}

/// The drift sweep: rotating-skew traffic served by (a) a static plan
/// profiled on phase 0 that goes stale, (b) the online-adaptive runtime
/// (decayed re-profiling + global-budget re-planning + live migration),
/// and (c) a per-phase oracle upper bound whose plan always matches the
/// current phase for free.
fn run_drift(p: &Params, depth: usize) -> Vec<DriftArm> {
    let path = SlsPath::Ndp(SlsOptions::default());
    let period = drift_period(p);
    let phase0_plan = PlacementPlan::build_global(&profile_drift_phase(p, 0), p.drift_budget_rows);
    let drifting_streams = || -> Vec<RowStream> {
        (0..p.tables)
            .map(|t| {
                RowStream::Drifting(
                    DriftingZipf::new(p.rows_per_table, p.drift_skew, drift_seed(t), period)
                        .with_churn(p.drift_churn),
                )
            })
            .collect()
    };

    let mut arms = Vec::new();
    for arm in ["stale", "adaptive"] {
        let (mut rt, tables) = drift_runtime(p, depth, &phase0_plan);
        if arm == "adaptive" {
            rt.enable_adaptive(AdaptivePolicy {
                epoch_requests: p.drift_epoch_requests,
                decay: 0.8,
                budget_rows: p.drift_budget_rows,
                min_hit_gain: 0.03,
            });
        }
        let mut gen = drift_gen(p, &rt, &tables, drifting_streams());
        let mut phases = Vec::new();
        for phase in 0..p.drift_phases {
            let report = gen.run(&mut rt, path, p.drift_requests_per_phase);
            assert!(report.verified > 0, "drift bit-match unchecked");
            println!(
                "{arm:>9} phase {phase}: {:>10.0} lookups/sim-sec  tier-hit {:>5.1}%  \
                 refreshes {}  promoted {:>4}  migration {:>4} lookups",
                report.lookups_per_sim_sec,
                report.tier_hit_rate * 100.0,
                report.plan_refreshes,
                report.rows_promoted,
                report.migration_lookups,
            );
            phases.push(report);
        }
        arms.push(fold_drift_arm(arm, &phases));
    }

    // Oracle: a fresh, perfectly profiled static plan per phase.
    let mut phases = Vec::new();
    let mut prev_plan = phase0_plan.clone();
    for phase in 0..p.drift_phases {
        let plan = if phase == 0 {
            phase0_plan.clone()
        } else {
            PlacementPlan::build_global_versioned(
                &profile_drift_phase(p, phase),
                p.drift_budget_rows,
                prev_plan.version().next(),
            )
        };
        // How much of the hot set the churn actually moved this phase —
        // the migration volume an ideally informed refresh would pay.
        let delta = plan_delta(&prev_plan, &plan);
        if phase > 0 {
            println!(
                "   oracle phase {phase} plan delta: {} promoted, {} demoted of {} hot rows",
                delta.total_promoted(),
                delta.total_demoted(),
                plan.total_hot_rows(),
            );
        }
        prev_plan = plan.clone();
        let (mut rt, tables) = drift_runtime(p, depth, &plan);
        let streams: Vec<RowStream> = (0..p.tables)
            .map(|t| {
                RowStream::Drifting(
                    DriftingZipf::new(p.rows_per_table, p.drift_skew, drift_seed(t), period)
                        .with_churn(p.drift_churn)
                        .pinned(phase),
                )
            })
            .collect();
        let mut gen = drift_gen(p, &rt, &tables, streams);
        let report = gen.run(&mut rt, path, p.drift_requests_per_phase);
        assert!(report.verified > 0, "oracle bit-match unchecked");
        println!(
            "{:>9} phase {phase}: {:>10.0} lookups/sim-sec  tier-hit {:>5.1}%",
            "oracle",
            report.lookups_per_sim_sec,
            report.tier_hit_rate * 100.0,
        );
        phases.push(report);
    }
    arms.push(fold_drift_arm("oracle", &phases));
    arms
}

struct BaselineDepthReport {
    packed: bool,
    depth: usize,
    lookups_per_sim_sec: f64,
}

/// Baseline-path pipelining A/B: heat-order packing makes the hot
/// storage prefix contiguous, so the coalescing I/O planner amortises the
/// serial per-command firmware charge and queue depth finally pays on the
/// COTS-SSD path.
fn run_baseline_depth(p: &Params, packed: bool, depth: usize) -> BaselineDepthReport {
    let skew = 1.2;
    let mut cfg = ServingConfig::small_wide(1, SchedulePolicy::Fifo).with_depth(depth);
    // A tuned host policy for heat-packed tables: read through larger
    // gaps than the conservative default, trading junk-page transfers
    // for far fewer serial firmware commands. (The default stays low so
    // scattered traffic does not pay the junk-page volume.)
    cfg.system.host.read_bridge_limit = 8;
    let mut rt = ServingRuntime::new(&cfg);
    let prof = profile_skew(p, skew);
    let plan = PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(0.0));
    let tables: Vec<_> = (0..p.tables)
        .map(|t| {
            let table = EmbeddingTable::procedural(
                TableSpec::new(p.rows_per_table, p.dim, Quantization::F32),
                t as u64,
            );
            if packed {
                rt.add_table_placed(table, plan.table(t))
            } else {
                rt.add_table(table)
            }
        })
        .collect();
    let spec = TrafficSpec {
        zipf_exponent: skew,
        ..p.spec
    };
    let mut gen = LoadGen::new(
        &rt,
        tables,
        spec,
        LoadMode::Closed {
            clients: p.clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_verify_every(p.verify_every);
    let report = gen.run(
        &mut rt,
        SlsPath::Baseline(SlsOptions::default()),
        p.requests,
    );
    assert!(report.verified > 0, "baseline depth bit-match unchecked");
    BaselineDepthReport {
        packed,
        depth,
        lookups_per_sim_sec: report.lookups_per_sim_sec,
    }
}

/// One point of the transient-fault-rate sweep.
struct ResiliencePoint {
    rate: f64,
    /// Throughput relative to the fault-free point of the same sweep.
    throughput_ratio: f64,
    report: LoadReport,
}

struct ResilienceReport {
    sweep: Vec<ResiliencePoint>,
    uncorrectable_rate: f64,
    uncorrectable: LoadReport,
    brownout: LoadReport,
}

/// One resilience run: 2 pipelined shards, micro-batched NDP serving,
/// closed-loop, with **every** completion verified against the unsharded
/// `sls_reference` (missing-slot aware — flagged rows are exempt, every
/// served row must bit-match). `inject` arms fault plans on the fresh
/// runtime before traffic starts.
fn run_resilient(
    p: &Params,
    policy: FaultPolicy,
    inject: impl FnOnce(&mut ServingRuntime),
) -> LoadReport {
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
    let (mut rt, tables) = build_runtime(p, &cfg);
    inject(&mut rt);
    rt.set_fault_policy(policy);
    let mut gen = LoadGen::new(
        &rt,
        tables,
        p.spec,
        LoadMode::Closed {
            clients: p.clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_verify_every(1);
    gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), p.requests)
}

/// The resilience suite: transient-rate sweep (faults absorbed by
/// in-device ECC retries — throughput bends, correctness never),
/// uncorrectable-media recovery (host retries + NDP→baseline fallback),
/// and a full-shard brownout served through the circuit breaker under a
/// deadline.
fn run_resilience(p: &Params) -> ResilienceReport {
    let rates = [0.0, 0.001, 0.01, 0.05];
    println!("resilience sweep (transient rates {rates:?}, NDP, every completion verified):");
    let mut sweep: Vec<ResiliencePoint> = Vec::new();
    for &rate in &rates {
        let report = run_resilient(p, FaultPolicy::default(), |rt| {
            if rate > 0.0 {
                let mut fc = FaultConfig::quiet(0xFA17);
                fc.transient_read_error_rate = rate;
                rt.inject_faults(&fc);
            }
        });
        // Transient faults are ECC-corrected inside the device: every
        // request is served complete, bit-verified, nothing degraded.
        assert_eq!(
            report.requests, p.requests as u64,
            "lost requests at rate {rate}"
        );
        assert_eq!(
            report.verified, report.requests,
            "unverified completion at rate {rate}"
        );
        assert_eq!(
            report.degraded, 0,
            "transient faults must not degrade requests"
        );
        let throughput_ratio = match sweep.first() {
            Some(base) => report.lookups_per_sim_sec / base.report.lookups_per_sim_sec,
            None => 1.0,
        };
        println!(
            "  transient {:>6.3}: {:>10.0} lookups/sim-sec ({:>5.1}% of fault-free)  \
             verified {}/{}",
            rate,
            report.lookups_per_sim_sec,
            throughput_ratio * 100.0,
            report.verified,
            report.requests,
        );
        sweep.push(ResiliencePoint {
            rate,
            throughput_ratio,
            report,
        });
    }
    // Acceptance bar 6: at 1% transient faults NDP serving keeps >= 85%
    // of fault-free throughput with zero non-flagged mismatches (the
    // per-completion bit-verification above *is* the mismatch check).
    let at_1pct = sweep
        .iter()
        .find(|s| s.rate == 0.01)
        .expect("1% transient point present");
    assert!(
        at_1pct.throughput_ratio >= 0.85,
        "1% transient faults cost too much throughput: {:.1}% of fault-free",
        at_1pct.throughput_ratio * 100.0
    );

    // Uncorrectable media errors: typed device failures recovered by the
    // host retry budget and NDP→baseline fallback; rows that stay
    // unreadable are flagged, never fabricated.
    let uncorrectable_rate = 0.02;
    let uncorrectable = run_resilient(p, FaultPolicy::default(), |rt| {
        let mut fc = FaultConfig::quiet(0xC0FFEE);
        fc.uncorrectable_rate = uncorrectable_rate;
        rt.inject_faults(&fc);
    });
    assert_eq!(uncorrectable.requests, p.requests as u64, "lost requests");
    assert_eq!(uncorrectable.verified, uncorrectable.requests);
    assert!(
        uncorrectable.faults > 0 && uncorrectable.retries > 0,
        "uncorrectable scenario exercised no recovery path"
    );
    println!(
        "  uncorrectable {:.2}: faults {}  retries {}  fallbacks {}  degraded {}  \
         missing {} of {} lookups",
        uncorrectable_rate,
        uncorrectable.faults,
        uncorrectable.retries,
        uncorrectable.fallbacks,
        uncorrectable.degraded,
        uncorrectable.missing_lookups,
        uncorrectable.lookups,
    );

    // Full-shard NDP brownout: shard 0 browns out and fails every read;
    // the breaker trips, NDP work redirects to the baseline path, the
    // deadline bounds every request, and the fleet keeps serving —
    // degraded and flagged, never hung, never silently wrong.
    let mut sick = FaultConfig::quiet(0xB10);
    sick.uncorrectable_rate = 1.0;
    sick.brownouts = vec![BrownoutWindow {
        start: SimTime::ZERO,
        end: SimTime::from_ms(10),
        factor: 4,
    }];
    let brownout = run_resilient(
        p,
        FaultPolicy {
            max_retries: 1,
            fallback_after: 1,
            deadline: Some(SimDuration::from_ms(5)),
            breaker_window: 4,
            breaker_threshold: 0.5,
            breaker_cooldown: SimDuration::from_us(200),
            ..FaultPolicy::default()
        },
        |rt| rt.inject_faults_on_shard(0, &sick),
    );
    // Acceptance bar 7: the breaker trips and the fleet survives a
    // full-shard brownout — every request completes (many degraded,
    // all flagged and bit-verified on their served rows).
    assert_eq!(
        brownout.requests, p.requests as u64,
        "brownout lost requests"
    );
    assert_eq!(brownout.verified, brownout.requests);
    assert!(
        brownout.breaker_trips >= 1,
        "brownout never tripped the breaker"
    );
    assert!(
        brownout.degraded > 0,
        "total shard loss must degrade requests"
    );
    assert!(
        brownout.missing_lookups < brownout.lookups,
        "healthy shards must keep serving rows through the brownout"
    );
    println!(
        "  brownout: breaker trips {}  degraded {}/{}  missing {} of {} lookups  p99 {:.1}us",
        brownout.breaker_trips,
        brownout.degraded,
        brownout.requests,
        brownout.missing_lookups,
        brownout.lookups,
        brownout.e2e.p99 as f64 / 1e3,
    );

    ResilienceReport {
        sweep,
        uncorrectable_rate,
        uncorrectable,
        brownout,
    }
}

/// The observability pass: the same stack traced end-to-end.
struct ObsReport {
    /// Requests submitted (one `request` span each).
    requests: usize,
    /// Spans recorded across serving, host, firmware and flash layers.
    spans: usize,
    /// Worst direct-child coverage over non-degraded request spans.
    min_coverage: f64,
    /// Per-path time-goes-where report.
    attribution: Vec<PathAttribution>,
    /// Wall-clock self-profile of the simulator loop.
    wall: Vec<WallPhaseReport>,
    /// The full Chrome-trace JSON (written to `--trace-out`).
    trace_json: String,
    /// Per-epoch JSONL metric snapshots (written to `--epoch-log`).
    epoch_log: String,
    /// Per-path critical-path decomposition of the traced pass.
    critical: CriticalPathReport,
    /// Resource saturation ranking + per-path headroom of the same pass.
    bottleneck: BottleneckReport,
    /// Windowed per-resource busy/wait/occupancy timelines.
    timelines: Vec<UtilizationTimeline>,
}

/// Analysis window width for the utilization timelines, ns.
const ANALYSIS_WINDOW_NS: u64 = 100_000;

/// Traced mixed-path run: tracing + self-profiling + the adaptive loop
/// (for epoch snapshots) on a 2-shard micro-batched runtime. Asserts the
/// span invariants: every request reconstructs from its children
/// (≥ 99 % coverage), parents resolve, children nest.
fn run_observability(p: &Params) -> ObsReport {
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
    let (mut rt, tables) = build_runtime(p, &cfg);
    rt.enable_tracing();
    rt.enable_self_profiling();
    rt.enable_epoch_log();
    rt.enable_adaptive(AdaptivePolicy {
        epoch_requests: (p.requests as u64 / 3).max(8),
        decay: 0.8,
        budget_rows: (p.rows_per_table / 8) as usize,
        min_hit_gain: 0.0,
    });
    let paths = [
        SlsPath::Dram,
        SlsPath::Baseline(SlsOptions::default()),
        SlsPath::Ndp(SlsOptions::default()),
    ];
    let mut zipf = ZipfTrace::new(p.rows_per_table, p.spec.zipf_exponent, 0x0B5);
    for i in 0..p.requests {
        let batch = LookupBatch::new(
            (0..p.spec.outputs)
                .map(|_| {
                    (0..p.spec.lookups_per_output)
                        .map(|_| zipf.next_id())
                        .collect()
                })
                .collect(),
        );
        rt.submit_at(
            SimTime::from_us(i as u64),
            i as u64,
            tables[i % tables.len()],
            batch,
            paths[i % paths.len()],
        );
    }
    let done = rt.run_until_idle();
    assert_eq!(done.len(), p.requests, "observability run lost requests");
    for d in done.iter().step_by(p.verify_every as usize) {
        rt.verify_bitmatch(d);
    }
    let spans = rt.take_trace();
    let check = validate_spans(&spans).expect("span invariants hold");
    assert_eq!(check.requests, p.requests, "one request span per request");
    // Acceptance bar 8: the trace reconstructs >= 99% of each sampled
    // request's end-to-end latency from its direct children.
    assert!(
        check.min_coverage >= 0.99,
        "trace reconstructs only {:.1}% of some request",
        check.min_coverage * 100.0
    );
    println!(
        "observability: {} spans over {} requests, min e2e coverage {:.2}%",
        check.spans,
        check.requests,
        check.min_coverage * 100.0
    );
    for a in rt.attribution() {
        println!(
            "  {:>8}: {:>4} requests  queue p50 {:>8.1}us  service p50 {:>8.1}us  \
             e2e p99 {:>9.1}us",
            a.path,
            a.requests,
            a.queue.p50 as f64 / 1e3,
            a.service.p50 as f64 / 1e3,
            a.e2e.p99 as f64 / 1e3,
        );
    }
    for w in rt.wall_profile() {
        println!(
            "  wall {:>14}: {:>9.3} ms over {:>6} sections",
            w.phase,
            w.nanos as f64 / 1e6,
            w.count,
        );
    }
    // Analysis layer over the same trace: critical-path decomposition,
    // queueing timelines, bottleneck ranking. (Pure observers — the
    // runtime equivalents read a non-draining snapshot; here the spans
    // are already drained, so the free functions run on them directly.)
    let critical = critical_path_report(&spans);
    let bottleneck = bottleneck_report(&spans);
    let timelines = utilization_timelines(&spans, ANALYSIS_WINDOW_NS);
    print!("{}", critical.render());
    print!("{}", bottleneck.render());
    // Acceptance bar 9: the phase decomposition conserves e2e time —
    // every serving path's profile accounts for >= 95% of measured
    // latency, and all three paths are present.
    for path in ["baseline", "dram", "ndp"] {
        let p = critical
            .paths
            .iter()
            .find(|p| p.path == path)
            .unwrap_or_else(|| panic!("no critical-path profile for the {path} path"));
        assert!(
            p.conservation() >= 0.95,
            "critical path conserves only {:.1}% of {path} e2e time",
            p.conservation() * 100.0
        );
    }
    assert!(
        critical.min_conservation >= 0.95,
        "critical-path conservation floor {:.3} < 0.95",
        critical.min_conservation
    );
    for t in &timelines {
        assert!(
            t.littles_law_residual() < 1e-6,
            "timeline {} breaks Little's law (residual {})",
            t.resource,
            t.littles_law_residual()
        );
    }

    ObsReport {
        requests: p.requests,
        spans: check.spans,
        min_coverage: check.min_coverage,
        attribution: rt.attribution(),
        wall: rt.wall_profile(),
        trace_json: chrome_trace_json(&spans),
        epoch_log: rt.take_epoch_log(),
        critical,
        bottleneck,
        timelines,
    }
}

/// Automated bottleneck attribution on the heat-packed baseline
/// workload: the same configuration as [`run_baseline_depth`] with
/// packing on, traced, analyzed. This is the workload whose wall —
/// the serial per-command firmware core — previously took a manual
/// deep-dive to identify; the analyzer must now rank it first
/// unprompted.
fn run_heatpacked_analysis(p: &Params, depth: usize) -> (BottleneckReport, CriticalPathReport) {
    let skew = 1.2;
    let mut cfg = ServingConfig::small_wide(1, SchedulePolicy::Fifo).with_depth(depth);
    cfg.system.host.read_bridge_limit = 8;
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_tracing();
    let prof = profile_skew(p, skew);
    let plan = PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(0.0));
    let tables: Vec<_> = (0..p.tables)
        .map(|t| {
            rt.add_table_placed(
                EmbeddingTable::procedural(
                    TableSpec::new(p.rows_per_table, p.dim, Quantization::F32),
                    t as u64,
                ),
                plan.table(t),
            )
        })
        .collect();
    let spec = TrafficSpec {
        zipf_exponent: skew,
        ..p.spec
    };
    let mut gen = LoadGen::new(
        &rt,
        tables,
        spec,
        LoadMode::Closed {
            clients: p.clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_verify_every(p.verify_every);
    let _ = gen.run(
        &mut rt,
        SlsPath::Baseline(SlsOptions::default()),
        p.requests,
    );
    let bottleneck = rt.bottleneck_report();
    let critical = rt.critical_path_report();
    (bottleneck, critical)
}

/// Shard count of the multi-engine sweep — the ISSUE's acceptance
/// workload (4-shard FIFO NDP).
const ME_SHARDS: usize = 4;
/// Engine-pool sizes swept (0 = no pool: the serial firmware core does
/// every per-page Translation itself).
const ME_ENGINES: [usize; 5] = [0, 1, 2, 4, 8];

struct MultiEnginePoint {
    engines: usize,
    depth: usize,
    report: LoadReport,
}

/// Builds the engine-pool knob for `engines` per-channel SLS engines
/// (merge folded on the firmware core), or `None` for the serial path.
fn engine_pool(engines: usize) -> Option<EnginePoolConfig> {
    (engines > 0).then_some(EnginePoolConfig {
        engines,
        rate_pct: 100,
        merge: MergePlacement::FwCore,
    })
}

/// Adds the multi-engine workload's tables to `rt`: same row counts as
/// the main sweep but `me_dim`-wide vectors, so per-page Translation —
/// not the flash array — is the firmware's dominant cost (Fig. 11a).
fn add_me_tables(p: &Params, rt: &mut ServingRuntime) -> Vec<recssd_serving::ServedTableId> {
    (0..p.tables)
        .map(|t| {
            rt.add_table(EmbeddingTable::procedural(
                TableSpec::new(p.rows_per_table, p.me_dim, Quantization::F32),
                t as u64,
            ))
        })
        .collect()
}

/// One multi-engine sweep point: closed-loop FIFO NDP traffic on
/// [`ME_SHARDS`] shards with an `engines`-wide per-channel SLS engine
/// pool. Identical workload and seed across pool sizes, so the only
/// variable is where Translation executes.
fn run_multi_engine(p: &Params, depth: usize, engines: usize) -> MultiEnginePoint {
    let mut cfg = ServingConfig::small_wide(ME_SHARDS, SchedulePolicy::Fifo).with_depth(depth);
    cfg.system.ssd.ftl.engines = engine_pool(engines);
    let mut rt = ServingRuntime::new(&cfg);
    let tables = add_me_tables(p, &mut rt);
    let mut gen = LoadGen::new(
        &rt,
        tables,
        p.spec,
        LoadMode::Closed {
            clients: p.me_clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_verify_every(p.verify_every);
    let report = gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), p.requests);
    assert!(report.verified > 0, "multi-engine bit-match unchecked");
    MultiEnginePoint {
        engines,
        depth,
        report,
    }
}

/// Traced multi-engine NDP run: with the per-page Translation work
/// spread across `engines` per-channel engines the serial firmware wall
/// is gone, so the bottleneck analyzer must attribute the path to a
/// *flash* resource instead of `fw:core`. Returns the live reports plus
/// the Chrome-trace JSON so CI can replay the same verdict offline
/// through `recssd-analyze`.
fn run_multi_engine_analysis(
    p: &Params,
    depth: usize,
    engines: usize,
) -> (BottleneckReport, CriticalPathReport, String) {
    let mut cfg = ServingConfig::small_wide(1, SchedulePolicy::Fifo).with_depth(depth);
    cfg.system.ssd.ftl.engines = engine_pool(engines);
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_tracing();
    let tables = add_me_tables(p, &mut rt);
    let mut gen = LoadGen::new(
        &rt,
        tables,
        p.spec,
        LoadMode::Closed {
            clients: p.me_clients,
            think: SimDuration::ZERO,
        },
        42,
    )
    .with_verify_every(p.verify_every);
    let _ = gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), p.requests);
    let spans = rt.take_trace();
    let bottleneck = bottleneck_report(&spans);
    let critical = critical_path_report(&spans);
    let trace_json = chrome_trace_json(&spans);
    (bottleneck, critical, trace_json)
}

fn q_json(q: &Quantiles) -> String {
    format!(
        "\"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, \"mean_us\": {:.2}, \"max_us\": {:.2}",
        q.p50 as f64 / 1e3,
        q.p95 as f64 / 1e3,
        q.p99 as f64 / 1e3,
        q.p999 as f64 / 1e3,
        q.mean / 1e3,
        q.max as f64 / 1e3,
    )
}

#[allow(clippy::too_many_arguments)] // one sweep section per parameter
fn write_json(
    p: &Params,
    configs: &[ConfigReport],
    open: &[OpenReport],
    placement: &[PlacementReport],
    packing: &[PackingReport],
    drift: &[DriftArm],
    baseline_depth: &[BaselineDepthReport],
    resilience: &ResilienceReport,
    obs: &ObsReport,
    heat_bottleneck: &BottleneckReport,
    heat_critical: &CriticalPathReport,
    multi_engine: &[MultiEnginePoint],
    me_speedup: f64,
    me_bottleneck: &BottleneckReport,
    me_critical: &CriticalPathReport,
) -> String {
    // Hand-rolled JSON: the workspace has no serde and the schema is flat.
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"recssd-serving/v10\",\n");
    let _ = writeln!(
        s,
        "  \"workload\": {{\"tables\": {}, \"rows_per_table\": {}, \"dim\": {}, \"outputs\": {}, \
         \"lookups_per_output\": {}, \"zipf_exponent\": {}, \"clients\": {}, \"requests\": {}}},",
        p.tables,
        p.rows_per_table,
        p.dim,
        p.spec.outputs,
        p.spec.lookups_per_output,
        p.spec.zipf_exponent,
        p.clients,
        p.requests
    );
    s.push_str("  \"configs\": [\n");
    for (i, c) in configs.iter().enumerate() {
        let r = &c.report;
        let _ = write!(
            s,
            "    {{\"shards\": {}, \"depth\": {}, \"policy\": \"{}\", \"path\": \"{}\", \
             \"requests\": {}, \"lookups\": {}, \"sim_secs\": {:.6}, \
             \"lookups_per_sim_sec\": {:.0}, \"batching_factor\": {:.2}, \
             \"occupancy\": {:.3}, \"channel_util\": {:.4}, \"verified\": {}, {}, \
             \"queue_p99_us\": {:.2}}}",
            c.shards,
            c.depth,
            c.policy,
            c.path,
            r.requests,
            r.lookups,
            r.makespan.as_secs_f64(),
            r.lookups_per_sim_sec,
            r.batching_factor,
            r.mean_occupancy(),
            r.mean_channel_util(),
            r.verified,
            q_json(&r.e2e),
            r.queue.p99 as f64 / 1e3,
        );
        s.push_str(if i + 1 < configs.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"open_loop\": [\n");
    for (i, o) in open.iter().enumerate() {
        let r = &o.report;
        let _ = write!(
            s,
            "    {{\"path\": \"{}\", \"shards\": 1, \"policy\": \"fifo\", \"depth\": {}, \
             \"offered_load\": {:.2}, \"rate_rps\": {:.0}, \"requests\": {}, \
             \"lookups_per_sim_sec\": {:.0}, \"occupancy\": {:.3}, \"channel_util\": {:.4}, \
             \"verified\": {}, {}, \"queue_p99_us\": {:.2}}}",
            o.path,
            o.depth,
            o.load,
            o.rate_rps,
            r.requests,
            r.lookups_per_sim_sec,
            r.mean_occupancy(),
            r.mean_channel_util(),
            r.verified,
            q_json(&r.e2e),
            r.queue.p99 as f64 / 1e3,
        );
        s.push_str(if i + 1 < open.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"placement\": [\n");
    for (i, pl) in placement.iter().enumerate() {
        let r = &pl.report;
        let _ = write!(
            s,
            "    {{\"path\": \"{}\", \"skew\": {:.2}, \"hot_fraction\": {:.3}, \
             \"hot_rows\": {}, \"requests\": {}, \"lookups_per_sim_sec\": {:.0}, \
             \"tier_hit_rate\": {:.4}, \"tier_lookups\": {}, \"tier_occupancy\": {:.3}, \
             \"tier_p50_us\": {:.2}, \"tier_p99_us\": {:.2}, \
             \"device_p50_us\": {:.2}, \"device_p99_us\": {:.2}, \
             \"ftl_cache_hit_rate\": {:.4}, \"ftl_cache_occupancy\": {:.4}, \
             \"verified\": {}, {}}}",
            pl.path,
            pl.skew,
            pl.hot_fraction,
            pl.hot_rows,
            r.requests,
            r.lookups_per_sim_sec,
            r.tier_hit_rate,
            r.tier_lookups,
            r.tier_occupancy,
            r.tier_service.p50 as f64 / 1e3,
            r.tier_service.p99 as f64 / 1e3,
            r.device_service.p50 as f64 / 1e3,
            r.device_service.p99 as f64 / 1e3,
            r.ftl_cache_hit_rate,
            r.ftl_cache_occupancy,
            r.verified,
            q_json(&r.e2e),
        );
        s.push_str(if i + 1 < placement.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"packing\": [\n");
    for (i, pk) in packing.iter().enumerate() {
        let r = &pk.report;
        let _ = write!(
            s,
            "    {{\"packed\": {}, \"rows\": {}, \"lookups_per_sim_sec\": {:.0}, \
             \"ftl_cache_hit_rate\": {:.4}, \"ftl_cache_occupancy\": {:.4}, \
             \"verified\": {}}}",
            pk.packed,
            p.packing_rows,
            r.lookups_per_sim_sec,
            r.ftl_cache_hit_rate,
            r.ftl_cache_occupancy,
            r.verified,
        );
        s.push_str(if i + 1 < packing.len() { ",\n" } else { "\n" });
    }
    let f64_list = |xs: &[f64], digits: usize| -> String {
        xs.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"drift\": {{\"phases\": {}, \"requests_per_phase\": {}, \"skew\": {}, \
         \"budget_rows\": {}, \"epoch_requests\": {}, \"arms\": [",
        p.drift_phases,
        p.drift_requests_per_phase,
        p.drift_skew,
        p.drift_budget_rows,
        p.drift_epoch_requests,
    );
    for (i, a) in drift.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"arm\": \"{}\", \"lookups_per_sim_sec\": {:.0}, \"plan_refreshes\": {}, \
             \"rows_promoted\": {}, \"rows_demoted\": {}, \"migration_lookups\": {}, \
             \"phase_tput\": [{}], \"phase_tier_hit_rates\": [{}]}}",
            a.arm,
            a.lookups_per_sim_sec,
            a.plan_refreshes,
            a.rows_promoted,
            a.rows_demoted,
            a.migration_lookups,
            f64_list(&a.phase_tput, 0),
            f64_list(&a.phase_tier_hit, 4),
        );
        s.push_str(if i + 1 < drift.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]},\n  \"baseline_pipelining\": [\n");
    for (i, b) in baseline_depth.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"packed\": {}, \"depth\": {}, \"lookups_per_sim_sec\": {:.0}}}",
            b.packed, b.depth, b.lookups_per_sim_sec,
        );
        s.push_str(if i + 1 < baseline_depth.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    // The v9 multi-engine block: per-channel SLS engine pool × queue
    // depth sweep on the 4-shard FIFO NDP workload, plus the traced
    // multi-engine run's bottleneck verdict (must be a flash resource —
    // the serial firmware wall is gone).
    let _ = writeln!(
        s,
        "  ],\n  \"multi_engine\": {{\n    \"shards\": {ME_SHARDS}, \"policy\": \"fifo\", \
         \"path\": \"ndp\",\n    \"points\": [",
    );
    for (i, m) in multi_engine.iter().enumerate() {
        let r = &m.report;
        let _ = write!(
            s,
            "      {{\"engines\": {}, \"depth\": {}, \"lookups_per_sim_sec\": {:.0}, \
             \"occupancy\": {:.3}, \"channel_util\": {:.4}, \"verified\": {}, {}}}",
            m.engines,
            m.depth,
            r.lookups_per_sim_sec,
            r.mean_occupancy(),
            r.mean_channel_util(),
            r.verified,
            q_json(&r.e2e),
        );
        s.push_str(if i + 1 < multi_engine.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(
        s,
        "    ],\n    \"speedup_vs_single_engine\": {:.3},\n    \
         \"ndp_top_bottleneck\": \"{}\",\n    \"ndp_min_conservation\": {:.4}\n  }},",
        me_speedup,
        me_bottleneck.top().unwrap_or(""),
        me_critical.min_conservation,
    );
    let fault_counters = |r: &LoadReport| -> String {
        format!(
            "\"requests\": {}, \"verified\": {}, \"lookups\": {}, \"faults\": {}, \
             \"retries\": {}, \"fallbacks\": {}, \"breaker_trips\": {}, \"degraded\": {}, \
             \"missing_lookups\": {}",
            r.requests,
            r.verified,
            r.lookups,
            r.faults,
            r.retries,
            r.fallbacks,
            r.breaker_trips,
            r.degraded,
            r.missing_lookups,
        )
    };
    s.push_str("  \"resilience\": {\n    \"transient_sweep\": [\n");
    for (i, pt) in resilience.sweep.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"rate\": {}, \"throughput_ratio\": {:.4}, \
             \"lookups_per_sim_sec\": {:.0}, {}, \"p99_us\": {:.2}}}",
            pt.rate,
            pt.throughput_ratio,
            pt.report.lookups_per_sim_sec,
            fault_counters(&pt.report),
            pt.report.e2e.p99 as f64 / 1e3,
        );
        s.push_str(if i + 1 < resilience.sweep.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(
        s,
        "    ],\n    \"uncorrectable\": {{\"rate\": {}, {}}},",
        resilience.uncorrectable_rate,
        fault_counters(&resilience.uncorrectable),
    );
    let _ = writeln!(
        s,
        "    \"brownout\": {{{}, \"p99_us\": {:.2}}}",
        fault_counters(&resilience.brownout),
        resilience.brownout.e2e.p99 as f64 / 1e3,
    );
    s.push_str("  },\n");
    let _ = writeln!(
        s,
        "  \"observability\": {{\n    \"trace_spans\": {}, \"trace_requests\": {}, \
         \"trace_min_coverage\": {:.4},",
        obs.spans, obs.requests, obs.min_coverage,
    );
    s.push_str("    \"attribution\": [\n");
    for (i, a) in obs.attribution.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"path\": \"{}\", \"requests\": {}, \
             \"queue\": {{{}}}, \"service\": {{{}}}, \"e2e\": {{{}}}}}",
            a.path,
            a.requests,
            q_json(&a.queue),
            q_json(&a.service),
            q_json(&a.e2e),
        );
        s.push_str(if i + 1 < obs.attribution.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("    ],\n    \"wall_profile\": [\n");
    for (i, w) in obs.wall.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"phase\": \"{}\", \"wall_ms\": {:.3}, \"sections\": {}}}",
            w.phase,
            w.nanos as f64 / 1e6,
            w.count,
        );
        s.push_str(if i + 1 < obs.wall.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ]\n  },\n");

    // The v8 analysis block: critical-path decomposition, resource
    // saturation ranking + headroom, queueing timelines, and the
    // heat-packed firmware-wall regression probe.
    let _ = writeln!(
        s,
        "  \"analysis\": {{\n    \"min_conservation\": {:.4}, \"window_ns\": {},",
        obs.critical.min_conservation, ANALYSIS_WINDOW_NS,
    );
    s.push_str("    \"critical_paths\": [\n");
    for (i, pp) in obs.critical.paths.iter().enumerate() {
        let phases = Phase::ALL
            .iter()
            .map(|&ph| {
                format!(
                    "{{\"phase\": \"{}\", \"ns\": {}, \"share\": {:.4}, \"tail_share\": {:.4}}}",
                    ph.name(),
                    pp.phase_ns[ph.index()],
                    pp.share(ph),
                    pp.tail_share(ph),
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            s,
            "      {{\"path\": \"{}\", \"requests\": {}, \"conservation\": {:.4}, \
             \"top_phase\": \"{}\", \"e2e_mean_us\": {:.2}, \"e2e_p99_us\": {:.2}, \
             \"phases\": [{}]}}",
            pp.path,
            pp.requests,
            pp.conservation(),
            pp.top_phase().name(),
            pp.e2e.mean_ns / 1e3,
            pp.e2e.p99_ns as f64 / 1e3,
            phases,
        );
        s.push_str(if i + 1 < obs.critical.paths.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("    ],\n    \"bottlenecks\": [\n");
    for (i, r) in obs.bottleneck.ranked.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"resource\": \"{}\", \"utilization\": {:.4}, \"capacity\": {}, \
             \"service_ns\": {}, \"busy_ns\": {}}}",
            r.resource,
            r.utilization(),
            r.capacity,
            r.service_ns,
            r.busy_ns,
        );
        s.push_str(if i + 1 < obs.bottleneck.ranked.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(
        s,
        "    ],\n    \"top_bottleneck\": \"{}\",",
        obs.bottleneck.top().unwrap_or(""),
    );
    s.push_str("    \"headroom\": [\n");
    for (i, h) in obs.bottleneck.headroom.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"path\": \"{}\", \"bottleneck\": \"{}\", \"capacity\": {}, \
             \"demand_ns\": {}, \"sustainable_rps\": {:.1}, \"observed_rps\": {:.1}, \
             \"headroom_x\": {:.3}, \"saturated\": {}}}",
            h.path,
            h.bottleneck,
            h.capacity,
            h.demand_ns,
            h.sustainable_rps,
            h.observed_rps,
            h.headroom_x,
            h.saturated,
        );
        s.push_str(if i + 1 < obs.bottleneck.headroom.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("    ],\n    \"timelines\": [\n");
    for (i, t) in obs.timelines.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"resource\": \"{}\", \"kind\": \"{}\", \"windows\": {}, \
             \"utilization\": {:.4}, \"arrivals\": {}, \"arrival_rate_per_s\": {:.1}, \
             \"mean_wait_ns\": {:.1}, \"occupancy\": {:.4}, \"littles_law_residual\": {:.3e}}}",
            t.resource,
            t.kind.name(),
            t.windows.len(),
            t.utilization(),
            t.total_arrivals,
            t.arrival_rate_per_s(),
            t.mean_wait_ns(),
            t.occupancy(),
            t.littles_law_residual(),
        );
        s.push_str(if i + 1 < obs.timelines.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(
        s,
        "    ],\n    \"heatpacked_baseline\": {{\"top_bottleneck\": \"{}\", \
         \"fw_utilization\": {:.4}, \"min_conservation\": {:.4}}}",
        heat_bottleneck.top().unwrap_or(""),
        heat_bottleneck
            .ranked
            .iter()
            .find(|r| r.resource.starts_with("fw:core"))
            .map(|r| r.utilization())
            .unwrap_or(0.0),
        heat_critical.min_conservation,
    );
    s.push_str("  }\n}\n");
    s
}

fn main() {
    let p = Params::from_env();
    let mut out_path = "BENCH_serving.json".to_string();
    let mut trace_out: Option<String> = None;
    let mut epoch_log_out: Option<String> = None;
    let mut ndp_trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out needs a path")),
            "--epoch-log" => epoch_log_out = Some(args.next().expect("--epoch-log needs a path")),
            "--ndp-trace-out" => {
                ndp_trace_out = Some(args.next().expect("--ndp-trace-out needs a path"))
            }
            other => out_path = other.to_string(),
        }
    }
    println!(
        "workload: {} tables x {} rows (dim {}), {} outputs x {} lookups/request, \
         {} closed-loop clients, {} requests per config, depths {:?}",
        p.tables,
        p.rows_per_table,
        p.dim,
        p.spec.outputs,
        p.spec.lookups_per_output,
        p.clients,
        p.requests,
        p.depths,
    );

    let paths = [
        SlsPath::Dram,
        SlsPath::Baseline(SlsOptions::default()),
        SlsPath::Ndp(SlsOptions::default()),
    ];
    let policies = [SchedulePolicy::Fifo, SchedulePolicy::micro_batch(16)];
    let mut configs = Vec::new();
    for &shards in &[1usize, 2, 4] {
        for &depth in p.depths {
            for &policy in &policies {
                for &path in &paths {
                    let c = run_config(&p, shards, depth, policy, path);
                    println!(
                        "{:>8} {:<10} {} shard(s) depth {}: {:>12.0} lookups/sim-sec  \
                         p50 {:>8.1}us  p99 {:>9.1}us  occ {:>4.2}  chan {:>5.1}%  (batching {:.2}x)",
                        c.path,
                        c.policy,
                        c.shards,
                        c.depth,
                        c.report.lookups_per_sim_sec,
                        c.report.e2e.p50 as f64 / 1e3,
                        c.report.e2e.p99 as f64 / 1e3,
                        c.report.mean_occupancy(),
                        c.report.mean_channel_util() * 100.0,
                        c.report.batching_factor,
                    );
                    configs.push(c);
                }
            }
        }
    }

    // Acceptance bar 1: NDP throughput scales >= 2x from 1 to 4 shards
    // (FIFO, depth 1, like for like).
    let tput = |shards, depth| fifo_tput(&configs, shards, depth, "ndp");
    let scaling = tput(4, 1) / tput(1, 1);
    println!("NDP FIFO shard scaling 1→4 (depth 1): {scaling:.2}x");
    assert!(
        scaling >= 2.0,
        "NDP throughput scaled only {scaling:.2}x from 1 to 4 shards"
    );

    // Acceptance bar 2: intra-shard pipelining pays — depth 4 gains
    // >= 1.5x over depth 1 at one shard on the NDP FIFO path.
    let pipe_depth = if p.depths.contains(&4) {
        4
    } else {
        p.depths[p.depths.len() - 1]
    };
    let pipelining = tput(1, pipe_depth) / tput(1, 1);
    println!("NDP FIFO queue-depth scaling 1→{pipe_depth} (1 shard): {pipelining:.2}x");
    assert!(
        pipelining >= 1.5,
        "operator pipelining gained only {pipelining:.2}x at depth {pipe_depth}"
    );

    // Open-loop offered-load vs latency curves, per path, on the
    // pipelined 1-shard configuration. Rates are fractions of each
    // path's own measured closed-loop capacity.
    println!("open-loop sweep ({} requests per point):", p.open_requests);
    let mut open = Vec::new();
    for &path in &paths {
        let capacity_rps =
            fifo_tput(&configs, 1, pipe_depth, path.name()) / p.spec.lookups_per_request() as f64;
        for &load in p.open_loads {
            let o = run_open(&p, path, pipe_depth, load, capacity_rps);
            println!(
                "{:>8} load {:.2} ({:>8.0} req/s): p50 {:>8.1}us  p99 {:>9.1}us  \
                 queue-p99 {:>9.1}us  occ {:>4.2}",
                o.path,
                o.load,
                o.rate_rps,
                o.report.e2e.p50 as f64 / 1e3,
                o.report.e2e.p99 as f64 / 1e3,
                o.report.queue.p99 as f64 / 1e3,
                o.report.mean_occupancy(),
            );
            open.push(o);
        }
    }

    // Hybrid placement sweep: hot-fraction × skew × path, on the
    // pipelined 2-shard FIFO configuration.
    println!(
        "placement sweep (skews {:?}, hot fractions {:?}, {} requests per point):",
        p.skews, p.hot_fractions, p.requests
    );
    let mut placement = Vec::new();
    for &skew in p.skews {
        let prof = profile_skew(&p, skew);
        for &hot in p.hot_fractions {
            let plan = (hot > 0.0)
                .then(|| PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(hot)));
            for &path in &paths {
                let pl = run_placement(&p, path, pipe_depth, skew, hot, plan.as_ref());
                println!(
                    "{:>8} skew {:.2} hot {:>5.1}% ({:>4} rows): {:>12.0} lookups/sim-sec  \
                     tier-hit {:>5.1}%  tier-occ {:>4.2}  ftl-cache {:>5.1}%  p99 {:>9.1}us",
                    pl.path,
                    pl.skew,
                    pl.hot_fraction * 100.0,
                    pl.hot_rows,
                    pl.report.lookups_per_sim_sec,
                    pl.report.tier_hit_rate * 100.0,
                    pl.report.tier_occupancy,
                    pl.report.ftl_cache_hit_rate * 100.0,
                    pl.report.e2e.p99 as f64 / 1e3,
                );
                placement.push(pl);
            }
        }
    }

    // Acceptance bar 3: at every swept skew (all >= 0.9), the best hybrid
    // DRAM+NDP configuration beats the all-NDP baseline by >= 1.3x.
    for &skew in p.skews {
        let point = |hot: f64| {
            placement
                .iter()
                .find(|pl| pl.path == "ndp" && pl.skew == skew && pl.hot_fraction == hot)
                .expect("placement point present")
                .report
                .lookups_per_sim_sec
        };
        let all_ndp = point(0.0);
        let best = p.hot_fractions[1..]
            .iter()
            .map(|&h| point(h))
            .fold(f64::MIN, f64::max);
        let gain = best / all_ndp;
        println!("hybrid DRAM+NDP vs all-NDP at skew {skew:.2}: {gain:.2}x");
        assert!(
            gain >= 1.3,
            "hybrid placement gained only {gain:.2}x over all-NDP at skew {skew:.2}"
        );
    }

    // Cold-tail packing A/B: frequency-ordered dense images must not
    // lower (and should raise) the FTL page-cache hit rate.
    let packing = vec![
        run_packing(&p, pipe_depth, false),
        run_packing(&p, pipe_depth, true),
    ];
    let (unpacked, packed) = (&packing[0].report, &packing[1].report);
    println!(
        "cold packing (dense, {} rows): ftl-cache {:.1}% -> {:.1}%, \
         {:.0} -> {:.0} lookups/sim-sec",
        p.packing_rows,
        unpacked.ftl_cache_hit_rate * 100.0,
        packed.ftl_cache_hit_rate * 100.0,
        unpacked.lookups_per_sim_sec,
        packed.lookups_per_sim_sec,
    );
    assert!(
        packed.ftl_cache_hit_rate >= unpacked.ftl_cache_hit_rate,
        "frequency-ordered packing lowered the FTL page-cache hit rate: {:.4} -> {:.4}",
        unpacked.ftl_cache_hit_rate,
        packed.ftl_cache_hit_rate
    );

    // Drift sweep: rotating skew, stale vs adaptive vs per-phase oracle.
    println!(
        "drift sweep ({} phases x {} requests, skew {}, global budget {} rows):",
        p.drift_phases, p.drift_requests_per_phase, p.drift_skew, p.drift_budget_rows
    );
    let drift = run_drift(&p, pipe_depth);
    let arm = |name: &str| {
        drift
            .iter()
            .find(|a| a.arm == name)
            .expect("drift arm present")
    };
    let (stale, adaptive, oracle) = (arm("stale"), arm("adaptive"), arm("oracle"));
    let recovered = adaptive.lookups_per_sim_sec / oracle.lookups_per_sim_sec;
    let stale_frac = stale.lookups_per_sim_sec / oracle.lookups_per_sim_sec;
    println!(
        "drift: stale {:.0} ({:.0}% of oracle), adaptive {:.0} ({:.0}% of oracle, \
         {} refreshes, {} rows promoted), oracle {:.0} lookups/sim-sec",
        stale.lookups_per_sim_sec,
        stale_frac * 100.0,
        adaptive.lookups_per_sim_sec,
        recovered * 100.0,
        adaptive.plan_refreshes,
        adaptive.rows_promoted,
        oracle.lookups_per_sim_sec,
    );
    // Acceptance bar 4: online adaptation recovers >= 70% of the oracle
    // hybrid throughput under rotating skew, while the stale static plan
    // falls below the adaptive one.
    assert!(
        recovered >= 0.70,
        "adaptive placement recovered only {:.0}% of the oracle under drift",
        recovered * 100.0
    );
    assert!(
        stale.lookups_per_sim_sec < adaptive.lookups_per_sim_sec,
        "stale static plan ({:.0}) should degrade below adaptive ({:.0})",
        stale.lookups_per_sim_sec,
        adaptive.lookups_per_sim_sec
    );
    assert!(
        adaptive.plan_refreshes >= 2 && adaptive.rows_promoted > 0,
        "adaptive arm never re-planned"
    );

    // Baseline pipelining A/B: heat-packed storage + coalesced reads give
    // the COTS baseline queue-depth headroom it never had.
    let mut baseline_depth = Vec::new();
    for packed in [false, true] {
        for &depth in &[1usize, 2, pipe_depth] {
            let b = run_baseline_depth(&p, packed, depth);
            println!(
                "baseline {} depth {}: {:>8.0} lookups/sim-sec",
                if b.packed { "packed " } else { "unpacked" },
                b.depth,
                b.lookups_per_sim_sec,
            );
            baseline_depth.push(b);
        }
    }
    let bd = |packed: bool, depth: usize| {
        baseline_depth
            .iter()
            .find(|b| b.packed == packed && b.depth == depth)
            .expect("baseline depth point")
            .lookups_per_sim_sec
    };
    // Acceptance bar 5: on packed storage the baseline pipelines — depth
    // 1 -> 4 gains at least 1.25x (it was ~1.17x and flat beyond depth 2
    // before coalescing), and packing beats unpacked at depth 4.
    let packed_gain = bd(true, pipe_depth) / bd(true, 1);
    println!("baseline packed depth 1->{pipe_depth}: {packed_gain:.2}x");
    assert!(
        packed_gain >= 1.25,
        "packed baseline gained only {packed_gain:.2}x from pipelining"
    );
    assert!(
        bd(true, pipe_depth) > bd(false, pipe_depth),
        "packing must raise pipelined baseline throughput"
    );

    // Resilience suite: deterministic fault injection, recovery policy,
    // graceful degradation (acceptance bars 6 and 7 inside).
    let resilience = run_resilience(&p);

    // Observability pass: traced end-to-end, span invariants asserted
    // (acceptance bars 8 and 9 inside).
    let obs = run_observability(&p);

    // Acceptance bar 10: on the heat-packed baseline workload the
    // analyzer re-finds the serial-firmware wall automatically — the
    // firmware core ranks as the top bottleneck, and the decomposition
    // still conserves e2e time.
    let (heat_bottleneck, heat_critical) = run_heatpacked_analysis(&p, pipe_depth);
    let heat_top = heat_bottleneck.top().unwrap_or("").to_string();
    println!(
        "heat-packed baseline (depth {pipe_depth}): top bottleneck {heat_top}, \
         conservation {:.1}%",
        heat_critical.min_conservation * 100.0
    );
    assert!(
        heat_top.starts_with("fw:core"),
        "heat-packed baseline should bottleneck on the firmware core, got {heat_top}"
    );
    assert!(
        heat_critical.min_conservation >= 0.95,
        "heat-packed critical path conserves only {:.1}%",
        heat_critical.min_conservation * 100.0
    );

    // Multi-engine sweep (the in-SSD compute tentpole): per-channel SLS
    // engine pool size × queue depth on the 4-shard FIFO NDP workload.
    println!(
        "multi-engine sweep ({ME_SHARDS} shards, engines {ME_ENGINES:?}, depths {:?}):",
        p.depths
    );
    let mut multi_engine = Vec::new();
    for &depth in p.depths {
        for &engines in &ME_ENGINES {
            let m = run_multi_engine(&p, depth, engines);
            println!(
                "  ndp {} engine(s) depth {}: {:>12.0} lookups/sim-sec  \
                 p50 {:>8.1}us  p99 {:>9.1}us  occ {:>4.2}  chan {:>5.1}%",
                m.engines,
                m.depth,
                m.report.lookups_per_sim_sec,
                m.report.e2e.p50 as f64 / 1e3,
                m.report.e2e.p99 as f64 / 1e3,
                m.report.mean_occupancy(),
                m.report.mean_channel_util() * 100.0,
            );
            multi_engine.push(m);
        }
    }
    let me_tput = |engines: usize, depth: usize| {
        multi_engine
            .iter()
            .find(|m| m.engines == engines && m.depth == depth)
            .expect("multi-engine point present")
            .report
            .lookups_per_sim_sec
    };
    // Acceptance bar 11: engine pools dominate — every multi-engine
    // configuration is at least as fast as single-engine at every swept
    // point, and >= 4 engines gain >= 1.5x at depth `pipe_depth`.
    for &depth in p.depths {
        for &engines in &[2usize, 4, 8] {
            let (multi, single) = (me_tput(engines, depth), me_tput(1, depth));
            assert!(
                multi >= single,
                "{engines} engines ({multi:.0}) slower than 1 engine ({single:.0}) \
                 at depth {depth}"
            );
        }
    }
    let me_speedup = me_tput(4, pipe_depth) / me_tput(1, pipe_depth);
    println!("multi-engine NDP speedup 1→4 engines (depth {pipe_depth}): {me_speedup:.2}x");
    assert!(
        me_speedup >= 1.5,
        "4-engine NDP gained only {me_speedup:.2}x over single-engine at depth {pipe_depth}"
    );

    // Acceptance bar 12: with the translation work spread across the
    // engine pool, the serial firmware wall is gone — the analyzer must
    // pin the traced multi-engine NDP run on a *flash* resource.
    let (me_bottleneck, me_critical, me_trace) = run_multi_engine_analysis(&p, pipe_depth, 8);
    let me_top = me_bottleneck.top().unwrap_or("").to_string();
    println!(
        "multi-engine NDP (8 engines, depth {pipe_depth}): top bottleneck {me_top}, \
         conservation {:.1}%",
        me_critical.min_conservation * 100.0
    );
    assert!(
        me_top.starts_with("flash"),
        "multi-engine NDP should bottleneck on flash, got {me_top}"
    );
    assert!(
        me_critical.min_conservation >= 0.95,
        "multi-engine critical path conserves only {:.1}%",
        me_critical.min_conservation * 100.0
    );

    if let Some(path) = &ndp_trace_out {
        std::fs::write(path, &me_trace).expect("write multi-engine trace JSON");
        println!("wrote {path}");
    }

    if let Some(path) = &trace_out {
        std::fs::write(path, &obs.trace_json).expect("write trace JSON");
        println!("wrote {path} ({} spans)", obs.spans);
    }
    if let Some(path) = &epoch_log_out {
        std::fs::write(path, &obs.epoch_log).expect("write epoch JSONL");
        println!("wrote {path} ({} epochs)", obs.epoch_log.lines().count());
    }

    let json = write_json(
        &p,
        &configs,
        &open,
        &placement,
        &packing,
        &drift,
        &baseline_depth,
        &resilience,
        &obs,
        &heat_bottleneck,
        &heat_critical,
        &multi_engine,
        me_speedup,
        &me_bottleneck,
        &me_critical,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serving.json");
    println!("wrote {out_path}");
}

/// The FIFO closed-loop throughput of `path` at (`shards`, `depth`).
fn fifo_tput(configs: &[ConfigReport], shards: usize, depth: usize, path: &str) -> f64 {
    configs
        .iter()
        .find(|c| c.shards == shards && c.depth == depth && c.policy == "fifo" && c.path == path)
        .expect("config present")
        .report
        .lookups_per_sim_sec
}

//! The serving loop shared by `ndp-zipf-open` and `hybrid-drift`: an
//! open or closed loop over pre-generated requests, driven through
//! `ServingRuntime::{submit_at, step}` only, plus the post-run reads of
//! the runtime's public counters.

use std::time::Instant;

use recssd::LookupBatch;
use recssd_embedding::{sls_reference_into, EmbeddingTable};
use recssd_obs::{critical_path_report, SpanRec};
use recssd_serving::{ServedTableId, ServingRuntime, SlsPath};
use recssd_sim::SimTime;

use crate::device::DeviceCounters;
use crate::metrics::Values;
use crate::pass::{fill_phases, fold_completion, op_queue_p99_us, Pass, SimSummary, WindowClock};
use crate::stats::Fnv;

/// How requests are paced.
#[derive(Debug, Clone)]
pub enum Pacing {
    /// Open loop: request `i` arrives at `arrivals[i]` (sim time),
    /// whatever the backlog.
    Open(Vec<SimTime>),
    /// Closed loop: `clients` concurrent clients, zero think time; the next
    /// request goes out at the instant a client's previous one finishes.
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
}

/// Pre-generated requests: request `i` targets table `table_of[i]` with
/// `batches[i]`.
#[derive(Debug)]
pub struct Requests {
    /// Table index per request.
    pub table_of: Vec<usize>,
    /// Lookup batch per request.
    pub batches: Vec<LookupBatch>,
}

impl Requests {
    /// Total lookups over every request.
    pub fn lookups(&self) -> u64 {
        self.batches.iter().map(|b| b.total_lookups() as u64).sum()
    }
}

/// A set-up serving workload, ready for its timed window.
#[derive(Debug)]
pub struct Prepared {
    /// The runtime with every table registered.
    pub rt: ServingRuntime,
    /// Served ids, in table order.
    pub tables: Vec<ServedTableId>,
    /// The logical tables, for the reference check.
    pub data: Vec<EmbeddingTable>,
    /// The requests.
    pub requests: Requests,
    /// Their pacing.
    pub pacing: Pacing,
    /// The serving path.
    pub path: SlsPath,
    /// Output floats per request (outputs × dim).
    pub stride: usize,
    /// Wall ns spent generating the inputs.
    pub gen_ns: u64,
}

/// One completion, as recorded in the timed window.
#[derive(Debug, Clone, Copy)]
struct Rec {
    id: u64,
    arrival: u64,
    finish: u64,
    queue: u64,
    service: u64,
    missing: u64,
}

/// Verify every `VERIFY_EVERY`-th request by id.
pub const VERIFY_EVERY: u64 = 16;

/// Runs the timed window of `p` and reads every counter afterwards.
/// `t0` is when set-up began; `traced` turns on span tracing and the
/// wall self-profile; `verify` checks the sampled completions against
/// `sls_reference` after the window.
pub fn run(mut p: Prepared, t0: Instant, traced: bool, verify: bool) -> Pass {
    if traced {
        p.rt.enable_tracing();
        p.rt.enable_self_profiling();
    }
    let n = p.requests.batches.len();
    let gen_lookups = p.requests.lookups();
    let mut recs: Vec<Rec> = Vec::with_capacity(n);
    let mut out: Vec<f32> = Vec::with_capacity(n * p.stride);
    let mut sampled: Vec<(usize, usize, LookupBatch)> = Vec::new();
    let mut error = None;

    let mut batches = p.requests.batches.into_iter();
    let table_of = p.requests.table_of;
    let mut sent = 0usize;
    let mut submit = |rt: &mut ServingRuntime, at: SimTime, client: u64, sent: &mut usize| {
        let batch = batches.next().expect("request available");
        rt.submit_at(at, client, p.tables[table_of[*sent]], batch, p.path);
        *sent += 1;
    };

    let setup_ns = t0.elapsed().as_nanos() as u64;
    let mut clock = WindowClock::open(n);
    match &p.pacing {
        Pacing::Open(arrivals) => {
            for &at in arrivals {
                submit(&mut p.rt, at, 0, &mut sent);
            }
        }
        Pacing::Closed { clients } => {
            for c in 0..(*clients).min(n) {
                submit(&mut p.rt, SimTime::ZERO, c as u64, &mut sent);
            }
        }
    }
    loop {
        let done = match p.rt.step() {
            Ok(Some(done)) => done,
            Ok(None) => break,
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        };
        if matches!(p.pacing, Pacing::Closed { .. }) && sent < n {
            submit(&mut p.rt, done.finish, done.client, &mut sent);
        }
        recs.push(Rec {
            id: done.id.0,
            arrival: done.arrival.as_ns(),
            finish: done.finish.as_ns(),
            queue: done.queue.as_ns(),
            service: done.service.as_ns(),
            missing: done.missing_lookups,
        });
        out.extend_from_slice(done.outputs.as_slice());
        if done.id.0 % VERIFY_EVERY == 0 && !done.is_degraded() {
            sampled.push((recs.len() - 1, done.table.0, done.batch));
        }
        p.rt.recycle_output(done.outputs);
        clock.tick();
    }
    let (window_ns, segments_ns) = clock.close();

    // Everything below is outside the timed window.
    let stride = p.stride;
    let mut digest = Fnv::default();
    for (i, r) in recs.iter().enumerate() {
        fold_completion(
            &mut digest,
            &[r.id, r.finish, r.queue, r.service, r.missing],
            &out[i * stride..(i + 1) * stride],
        );
    }

    let (mut mismatched, mut verify_ns, mut verify_lookups, mut verified) = (0, 0, 0, 0);
    if verify {
        let vt = Instant::now();
        let mut scratch = vec![0.0f32; stride];
        for (k, t, batch) in &sampled {
            sls_reference_into(&p.data[*t], batch, &mut scratch);
            let got = &out[k * stride..(k + 1) * stride];
            let same = got
                .iter()
                .zip(&scratch)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            mismatched += u64::from(!same);
            verify_lookups += batch.total_lookups() as u64;
            verified += 1;
        }
        verify_ns = vt.elapsed().as_nanos() as u64;
    }

    let stats = p.rt.stats();
    let degraded = recs.iter().filter(|r| r.missing > 0).count() as u64;
    let lost = n as u64 - recs.len() as u64;
    let first = recs.iter().map(|r| r.arrival).min().unwrap_or(0);
    let last = recs.iter().map(|r| r.finish).max().unwrap_or(0);
    let mut lat_ns: Vec<u64> = recs.iter().map(|r| r.finish - r.arrival).collect();
    lat_ns.sort_unstable();
    let sim = SimSummary {
        requests: recs.len() as u64,
        lookups: stats.lookups.get(),
        makespan_ns: last - first,
        lat_ns,
    };

    let mut v = Values::default();
    let mut dev = DeviceCounters::default();
    for s in 0..p.rt.shards() {
        dev.add(p.rt.shard_system_mut(s));
    }
    let stats = p.rt.stats();
    let per_req = |x: u64| x as f64 / sim.requests.max(1) as f64;
    dev.fill(&mut v, sim.lookups, sim.requests, sim.makespan_ns);
    v.set(
        "core.op_service_p50_us",
        stats.device_service.quantiles().p50 as f64 / 1e3,
    );
    v.set(
        "serving.queue_p99_us",
        stats.queue.quantiles().p99 as f64 / 1e3,
    );
    let occ = p.rt.shard_occupancy();
    v.set(
        "serving.occupancy",
        occ.iter().sum::<f64>() / occ.len().max(1) as f64,
    );
    v.set("serving.batching_factor", stats.batching_factor());
    v.set("serving.faults", per_req(stats.faults.get()));
    v.set("serving.retries", per_req(stats.retries.get()));
    v.set("serving.fallbacks", per_req(stats.fallbacks.get()));
    v.set("placement.tier_hit_rate", stats.tier_hit_rate());
    v.set(
        "placement.tier_service_p99_us",
        stats.tier_service.quantiles().p99 as f64 / 1e3,
    );
    v.set(
        "placement.plan_refreshes",
        stats.plan_refreshes.get() as f64,
    );
    v.set(
        "placement.migration_lookups",
        stats.migration_lookups.get() as f64 / sim.lookups.max(1) as f64,
    );
    let mut notes = vec![
        dev.note(),
        format!(
            "serving: faults {} retries {} fallbacks {} breaker_trips {} degraded {} \
             plan_refreshes {} migration_lookups {} tier_hit_rate {:.4}",
            stats.faults.get(),
            stats.retries.get(),
            stats.fallbacks.get(),
            stats.breaker_trips.get(),
            stats.degraded.get(),
            stats.plan_refreshes.get(),
            stats.migration_lookups.get(),
            stats.tier_hit_rate(),
        ),
    ];
    if let Some(e) = &error {
        notes.push(format!("error: serving runtime invariant violated: {e}"));
    }

    let mut spans = 0;
    if traced {
        let trace: Vec<SpanRec> = p.rt.take_trace();
        spans = trace.len() as u64;
        fill_phases(&mut v, &critical_path_report(&trace));
        v.set("core.op_queue_p99_us", op_queue_p99_us(&trace));
        let lookups = sim.lookups.max(1) as f64;
        for w in p.rt.wall_profile() {
            let name = match w.phase {
                "admit" => "serving.admit_ns_per_lookup",
                "event_dispatch" => "serving.dispatch_ns_per_lookup",
                "harvest" => "serving.harvest_ns_per_lookup",
                "device_step" => "ssd.wall_ns_per_lookup",
                _ => continue,
            };
            v.set(name, w.nanos as f64 / lookups);
        }
    }

    Pass {
        setup_ns,
        gen_ns: p.gen_ns,
        gen_lookups,
        window_ns,
        segments_ns,
        digest: digest.value(),
        attempted: n as u64,
        failed: degraded + lost + u64::from(error.is_some()),
        mismatched,
        verified,
        verify_ns,
        verify_lookups,
        layers: v,
        spans,
        notes,
        sim,
    }
}

//! `dlrm-cots`: the paper's end-to-end metric. DLRM-RMC1 (8 tables × 1M
//! rows × dim 32, 80 lookups per table) runs one batch-1 inference at a
//! time on a full Cosmos+ `System`, every SLS operator on the COTS-SSD
//! baseline path: each page crosses NVMe/PCIe into host accumulation,
//! and the bottom and top MLPs run. No serving runtime, no NDP engines.

use std::time::Instant;

use recssd::{LookupBatch, OpKind, RecSsdConfig, SlsOptions, System};
use recssd_embedding::{sls_reference_into, PageLayout};
use recssd_models::{BatchGen, ModelConfig, ModelInstance};
use recssd_obs::trace::track;
use recssd_obs::{critical_path_report, SpanId, TraceSink};
use recssd_sim::SimTime;
use recssd_trace::LocalityK;

use crate::device::DeviceCounters;
use crate::metrics::Values;
use crate::pass::{fill_phases, fold_completion, op_queue_p99_us, Pass, SimSummary, WindowClock};
use crate::stats::{derive, quantile, Fnv};
use crate::Scale;

/// The locality-K trace point (the middle of the paper's three).
const LOCALITY: LocalityK = LocalityK::K1;
/// Verify every `VERIFY_EVERY`-th inference's SLS outputs.
const VERIFY_EVERY: usize = 8;
/// Trace pid of the system's spans (the benchmark's own request spans
/// sit on pid 0).
const SYS_PID: u32 = 1;

/// Inferences of one pass (p99 needs ≥ 10 samples beyond it).
pub fn inferences(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1_100,
        Scale::Quick => 40,
    }
}

/// Runs one pass: set-up (tables, inputs), the timed window of
/// back-to-back single inferences, then verification and counters.
pub fn pass(seed: u64, scale: Scale, t0: Instant, traced: bool, verify: bool) -> Pass {
    let model = ModelConfig::dlrm_rmc1();
    let mut sys = System::new(RecSsdConfig::cosmos());
    let inst = ModelInstance::build(
        &mut sys,
        model.clone(),
        PageLayout::Spread,
        derive(seed, 40),
    );
    let n = inferences(scale);

    let g = Instant::now();
    let mut gen = BatchGen::locality(
        model.rows_per_table,
        LOCALITY,
        model.tables,
        derive(seed, 41),
    );
    let inputs: Vec<Vec<LookupBatch>> = (0..n)
        .map(|_| {
            (0..model.tables)
                .map(|t| gen.batch(t, 1, model.lookups_per_table, model.rows_per_table))
                .collect()
        })
        .collect();
    let gen_ns = g.elapsed().as_nanos() as u64;
    let gen_lookups = (n * model.tables * model.lookups_per_table) as u64;
    let sampled: Vec<(usize, Vec<LookupBatch>)> = (0..n)
        .step_by(VERIFY_EVERY)
        .map(|i| (i, inputs[i].clone()))
        .collect();

    let (sys_sink, host_sink) = (TraceSink::namespaced(1), TraceSink::new());
    let host = host_sink.tracer(0, track::TID_HOST);
    if traced {
        sys.set_tracer(sys_sink.tracer(SYS_PID, track::TID_HOST));
    }

    let bottom_flops = model.bottom_mlp.flops(1);
    let bottom_bytes = model.bottom_mlp.bytes(1);
    let top_flops = model.top_mlp.flops(1) + model.extra_flops_per_sample;
    let top_bytes = model.top_mlp.bytes(1);
    let stride = model.tables * model.dim;
    let mut out: Vec<f32> = Vec::with_capacity(n * stride);
    // Per inference: (submitted, finished, mlp service, slowest SLS service) ns.
    let mut recs: Vec<(u64, u64, u64, u64)> = Vec::with_capacity(n);
    let mut sls_service: Vec<u64> = Vec::with_capacity(n * model.tables);
    let mut failed = 0u64;
    let mut step_ns = 0u64;
    let mut sls = Vec::with_capacity(model.tables);
    let mut deps = Vec::with_capacity(model.tables + 1);

    let setup_ns = t0.elapsed().as_nanos() as u64;
    let mut clock = WindowClock::open(n);
    for batches in inputs {
        let t_sub = sys.now();
        let bottom = sys.submit(OpKind::host_compute(bottom_flops, bottom_bytes));
        sls.clear();
        for (&table, batch) in inst.tables().iter().zip(batches) {
            sls.push(sys.submit(OpKind::baseline_sls(table, batch, SlsOptions::default())));
        }
        deps.clear();
        deps.extend_from_slice(&sls);
        deps.push(bottom);
        let top = sys.submit_after(OpKind::host_compute(top_flops, top_bytes), &deps);
        let st = Instant::now();
        sys.run_until_idle();
        step_ns += st.elapsed().as_nanos() as u64;
        let (mut slowest, mut ok) = (0, true);
        for &op in &sls {
            let r = sys.take_result(op);
            ok &= r.is_ok();
            let service = r.service_time().as_ns();
            slowest = slowest.max(service);
            sls_service.push(service);
            let outputs = r.outputs.expect("SLS operators carry outputs");
            out.extend_from_slice(outputs.as_slice());
            sys.recycle_outputs(outputs);
        }
        failed += u64::from(!ok);
        let (b, t) = (sys.take_result(bottom), sys.take_result(top));
        let mlp = b.service_time().as_ns() + t.service_time().as_ns();
        recs.push((t_sub.as_ns(), t.finished.as_ns(), mlp, slowest));
        clock.tick();
    }
    let (window_ns, segments_ns) = clock.close();

    // Everything below is outside the timed window.
    let mut digest = Fnv::default();
    for (i, &(sub, fin, _, _)) in recs.iter().enumerate() {
        fold_completion(
            &mut digest,
            &[i as u64, sub, fin],
            &out[i * stride..(i + 1) * stride],
        );
    }

    let (mut mismatched, mut verify_ns, mut verify_lookups, mut verified) = (0, 0, 0, 0);
    if verify {
        let vt = Instant::now();
        let mut scratch = vec![0.0f32; model.dim];
        for (i, batches) in &sampled {
            let mut same = true;
            for (t, batch) in batches.iter().enumerate() {
                let table = sys.registry().binding(inst.tables()[t]).image.table();
                sls_reference_into(table, batch, &mut scratch);
                let at = i * stride + t * model.dim;
                let got = &out[at..at + model.dim];
                same &= got
                    .iter()
                    .zip(&scratch)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                verify_lookups += batch.total_lookups() as u64;
            }
            mismatched += u64::from(!same);
            verified += 1;
        }
        verify_ns = vt.elapsed().as_nanos() as u64;
    }

    let mut lat_ns: Vec<u64> = recs.iter().map(|&(s, f, _, _)| f - s).collect();
    lat_ns.sort_unstable();
    let first = recs.first().map_or(0, |r| r.0);
    let last = recs.iter().map(|r| r.1).max().unwrap_or(0);
    let sim = SimSummary {
        requests: recs.len() as u64,
        lookups: gen_lookups,
        makespan_ns: last - first,
        lat_ns,
    };

    let mut v = Values::default();
    let mut dev = DeviceCounters::default();
    dev.add(&sys);
    dev.fill(&mut v, sim.lookups, sim.requests, sim.makespan_ns);
    sls_service.sort_unstable();
    v.set(
        "core.op_service_p50_us",
        quantile(&sls_service, 0.5) as f64 / 1e3,
    );
    let per_inf = |x: u64| x as f64 / sim.requests.max(1) as f64 / 1e3;
    v.set("models.mlp_us", per_inf(recs.iter().map(|r| r.2).sum()));
    v.set("models.embed_us", per_inf(recs.iter().map(|r| r.3).sum()));

    let mut spans = 0;
    if traced {
        // The benchmark's own request spans: one per inference, with one
        // zero-wait sub-batch on the system's pid, so the critical-path
        // analyzer attributes the whole inference over the system's spans.
        for &(sub, fin, _, _) in &recs {
            let (s, f) = (SimTime::from_ns(sub), SimTime::from_ns(fin));
            let req = host.alloc_id();
            let sub_id = host.alloc_id();
            host.span_arg("sub:wait", s, s, sub_id, "shard", u64::from(SYS_PID));
            host.emit(sub_id, "sub", s, f, req, "", 0, "");
            host.emit(req, "request", s, f, SpanId::NONE, "", 0, "baseline");
        }
        let mut trace = sys_sink.take_spans();
        trace.extend(host_sink.take_spans());
        trace.sort_by_key(|s| (s.start_ns, s.end_ns, s.id));
        spans = trace.len() as u64;
        fill_phases(&mut v, &critical_path_report(&trace));
        v.set("core.op_queue_p99_us", op_queue_p99_us(&trace));
        v.set(
            "ssd.wall_ns_per_lookup",
            step_ns as f64 / sim.lookups as f64,
        );
    }

    Pass {
        setup_ns,
        gen_ns,
        gen_lookups,
        window_ns,
        segments_ns,
        digest: digest.value(),
        attempted: n as u64,
        failed,
        mismatched,
        verified,
        verify_ns,
        verify_lookups,
        layers: v,
        spans,
        notes: vec![dev.note()],
        sim,
    }
}

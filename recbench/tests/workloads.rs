//! The benchmark's own tests, at reduced length: every workload prints
//! every catalogued metric with its unit, one seed reproduces its
//! sim-clock metrics and completion digest exactly, and another seed
//! changes the digest.

use std::time::Instant;

use recbench::metrics::{result_json, MetricDef, Values, END_TO_END, PER_LAYER};
use recbench::{run, Outcome, RunConfig, Scale, Workload};

fn quick(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(
        &RunConfig {
            workload,
            seed,
            seconds: 0.0,
            trace,
            scale: Scale::Quick,
        },
        Instant::now(),
    )
}

fn assert_line_complete(line: &str, defs: &[MetricDef], values: &Values) {
    for d in defs {
        let entry = format!("\"{}\": {{\"value\": ", d.name);
        assert!(line.contains(&entry), "missing {} in {line}", d.name);
        assert!(
            line.contains(&format!("\"unit\": \"{}\"", d.unit)),
            "missing unit {}",
            d.unit
        );
        assert!(values.get(d.name).is_finite(), "{} not finite", d.name);
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let plain = quick(w, 3, false);
        assert!(plain.correct, "{}: {:?}", w.name(), plain.lines);
        assert_eq!(plain.failed, 0, "{}", w.name());
        let e2e = &END_TO_END;
        let line = result_json(
            plain.correct,
            plain.attempted,
            plain.failed,
            e2e,
            &plain.e2e,
        );
        assert_line_complete(&line, e2e, &plain.e2e);
        for d in e2e {
            assert!(plain.e2e.get(d.name) > 0.0, "{}: {} is 0", w.name(), d.name);
        }
        assert_eq!(plain.slo_rps.is_some(), w == Workload::NdpZipfOpen);

        let traced = quick(w, 3, true);
        assert!(traced.correct, "{}: {:?}", w.name(), traced.lines);
        let layers = &PER_LAYER;
        let line = result_json(
            true,
            traced.attempted,
            traced.failed,
            layers,
            &traced.layers,
        );
        assert_line_complete(&line, layers, &traced.layers);
        assert!(traced.layers.get("obs.spans_per_lookup") > 0.0);
        assert!(traced.layers.get("flash.reads_per_lookup") > 0.0);
    }
}

#[test]
fn one_seed_reproduces_sim_metrics_and_digest() {
    for w in Workload::ALL {
        let a = quick(w, 11, false);
        let b = quick(w, 11, false);
        assert_eq!(a.first.digest, b.first.digest, "{}", w.name());
        assert_eq!(a.first.sim, b.first.sim, "{}", w.name());
        for name in ["sim_lookups_per_s", "sim_p50_us", "sim_p99_us"] {
            assert_eq!(
                a.e2e.get(name).to_bits(),
                b.e2e.get(name).to_bits(),
                "{}: {name}",
                w.name()
            );
        }
    }
}

#[test]
fn another_seed_changes_the_digest() {
    for w in Workload::ALL {
        let a = quick(w, 11, false);
        let b = quick(w, 12, false);
        assert_ne!(a.first.digest, b.first.digest, "{}", w.name());
    }
}

#[test]
fn benchmark_manifest_lists_the_catalogue() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
    for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name,
            d.unit,
            d.better.name()
        );
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(manifest.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
}

//! Benchmark entry point:
//!
//! ```text
//! recbench --workload <ndp-zipf-open|hybrid-drift|dlrm-cots> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run context and a metric table, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics untraced, the
//! per-layer metrics traced. Exits non-zero when the run is incorrect.

use std::process::ExitCode;
use std::time::Instant;

use recbench::metrics::{json_number, result_json, MetricDef, Values, END_TO_END, PER_LAYER};
use recbench::{run, RunConfig, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("recbench: {msg}");
    eprintln!(
        "usage: recbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::NdpZipfOpen,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=86_400.0).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// The checkout's commit, read from `.git` when the working directory
/// is a git checkout; `unknown` otherwise.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{r}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn table(defs: &[MetricDef], values: &Values) {
    for d in defs {
        println!(
            "  {:<34} {:>18}  {:<14} {}",
            d.name,
            json_number(values.get(d.name)),
            d.unit,
            d.better.name()
        );
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let out = run(&cfg, start);
    let calib = recbench::stats::calibration_ns();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let s = &out.first.sim;
    println!(
        "context: {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"calibration_ns\": {calib}, \"commit\": \"{}\", \"requests_per_pass\": {}, \
         \"lookups_per_pass\": {}, \"passes\": {}}}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        git_commit(),
        out.attempted,
        s.lookups,
        out.passes
    );
    for line in &out.lines {
        println!("{line}");
    }
    let succeeded = out.attempted - out.failed.min(out.attempted);
    println!(
        "requests: attempted {} succeeded {} failed {} verified {}  failed_frac {} fraction (lower)",
        out.attempted,
        succeeded,
        out.failed,
        out.first.verified,
        json_number(out.failed as f64 / out.attempted.max(1) as f64)
    );
    println!(
        "latency samples: {} (beyond p99: {})",
        s.lat_ns.len(),
        s.p99_beyond()
    );
    if let Some(rps) = out.slo_rps {
        println!(
            "  {:<34} {:>18}  {:<14} higher",
            "sim_slo_rps",
            json_number(rps),
            "req/sim-s"
        );
    }
    println!("end-to-end:");
    table(&END_TO_END, &out.e2e);
    if cfg.trace {
        println!("per-layer:");
        table(&PER_LAYER, &out.layers);
    }
    let (defs, values): (&[MetricDef], _) = if cfg.trace {
        (&PER_LAYER, &out.layers)
    } else {
        (&END_TO_END, &out.e2e)
    };
    println!(
        "{}",
        result_json(out.correct, out.attempted, out.failed, defs, values)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

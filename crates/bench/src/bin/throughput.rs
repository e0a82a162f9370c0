//! Wall-clock throughput harness for the SLS datapath.
//!
//! Drives batched SLS operators through [`System`] for each of the three
//! execution paths (DRAM, baseline SSD, NDP) and reports **simulated
//! lookups per wall-clock second** — the number that caps how much
//! workload this simulator can chew through per unit of real time, which
//! is what the allocation-free datapath optimises. Results are printed
//! and written to `BENCH_throughput.json` so future PRs have a perf
//! trajectory to compare against.
//!
//! ```text
//! cargo run --release -p recssd-bench --bin throughput
//! cargo run --release -p recssd-bench --bin throughput --features count-allocs
//! RECSSD_PAPER_SCALE=1 cargo run --release -p recssd-bench --bin throughput
//! ```
//!
//! With `--features count-allocs` a counting global allocator is
//! installed and the report includes allocation events per path and per
//! lookup — steady-state NDP should sit well below one allocation per
//! gathered vector.

use std::fmt::Write as _;
use std::time::Instant;

use recssd::{OpKind, RecSsdConfig, SlsOptions, System};
use recssd_embedding::{
    EmbeddingTable, LookupBatch, PageLayout, Quantization, TableImage, TableSpec,
};
use recssd_sim::rng::Xoshiro256;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: recssd_sim::alloc_count::CountingAllocator =
    recssd_sim::alloc_count::CountingAllocator;

struct Params {
    rows: u64,
    dim: usize,
    outputs: usize,
    lookups_per_output: usize,
    warmup_batches: usize,
    batches: usize,
}

impl Params {
    fn from_env() -> Self {
        if std::env::var("RECSSD_PAPER_SCALE").as_deref() == Ok("1") {
            Params {
                rows: 4096,
                dim: 32,
                outputs: 8,
                lookups_per_output: 20,
                warmup_batches: 32,
                batches: 512,
            }
        } else {
            Params {
                rows: 4096,
                dim: 32,
                outputs: 8,
                lookups_per_output: 20,
                warmup_batches: 8,
                batches: 128,
            }
        }
    }

    fn lookups_per_batch(&self) -> usize {
        self.outputs * self.lookups_per_output
    }
}

struct PathReport {
    name: &'static str,
    wall_secs: f64,
    sim_ns: u64,
    lookups: u64,
    allocs: Option<u64>,
}

impl PathReport {
    fn lookups_per_wall_sec(&self) -> f64 {
        self.lookups as f64 / self.wall_secs
    }
}

fn build_system(p: &Params) -> (System, recssd::TableId) {
    let mut sys = System::new(RecSsdConfig::small_wide());
    let spec = TableSpec::new(p.rows, p.dim, Quantization::F32);
    let table = sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, 1),
        PageLayout::Spread,
        sys.config().ssd.block_bytes(),
    ));
    (sys, table)
}

fn gen_batches(p: &Params, n: usize, seed: u64) -> Vec<LookupBatch> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|_| {
            LookupBatch::new(
                (0..p.outputs)
                    .map(|_| {
                        (0..p.lookups_per_output)
                            .map(|_| rng.gen_range(0..p.rows))
                            .collect()
                    })
                    .collect(),
            )
        })
        .collect()
}

#[cfg(feature = "count-allocs")]
fn alloc_count() -> Option<u64> {
    Some(recssd_sim::alloc_count::allocation_count())
}

#[cfg(not(feature = "count-allocs"))]
fn alloc_count() -> Option<u64> {
    None
}

type MkOp = dyn Fn(recssd::TableId, LookupBatch) -> OpKind;

/// Runs `batches` ops through one path: submit → run → drain → recycle,
/// the steady-state serving loop.
///
/// With `trap` set (and `count-allocs` enabled) every batch arms
/// [`trap_next_allocation`], so the first steady-state allocation
/// panics with a backtrace naming the allocating frame. Driven by
/// `RECSSD_TRAP=<path-name>`; this is how the residual per-path alloc
/// counts in the report get root-caused.
///
/// [`trap_next_allocation`]: recssd_sim::alloc_count::trap_next_allocation
fn drive(
    sys: &mut System,
    table: recssd::TableId,
    batches: Vec<LookupBatch>,
    mk: &MkOp,
    trap: bool,
) -> u64 {
    let _ = trap;
    let mut sim_ns = 0u64;
    for batch in batches {
        #[cfg(feature = "count-allocs")]
        if trap {
            recssd_sim::alloc_count::trap_next_allocation();
        }
        let t0 = sys.now();
        let op = sys.submit(mk(table, batch));
        sys.run_until_idle();
        sim_ns += sys.now().saturating_since(t0).as_ns();
        let result = sys.take_result(op);
        if let Some(out) = result.outputs {
            sys.recycle_outputs(out);
        }
    }
    sim_ns
}

fn run_path(p: &Params, name: &'static str, mk: &MkOp) -> PathReport {
    let (mut sys, table) = build_system(p);
    // Warm-up: pools, caches and maps reach steady size before timing.
    drive(
        &mut sys,
        table,
        gen_batches(p, p.warmup_batches, 7),
        mk,
        false,
    );
    let batches = gen_batches(p, p.batches, 13);
    let lookups = (p.batches * p.lookups_per_batch()) as u64;
    let allocs_before = alloc_count();
    let wall0 = Instant::now();
    let trap = std::env::var("RECSSD_TRAP").as_deref() == Ok(name);
    let sim_ns = drive(&mut sys, table, batches, mk, trap);
    let wall_secs = wall0.elapsed().as_secs_f64();
    let allocs = alloc_count().zip(allocs_before).map(|(a, b)| a - b);
    PathReport {
        name,
        wall_secs,
        sim_ns,
        lookups,
        allocs,
    }
}

fn json_escape_free(reports: &[PathReport], p: &Params) -> String {
    // Hand-rolled JSON: the workspace has no serde and the schema is flat.
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"recssd-throughput/v3\",\n");
    let _ = writeln!(
        s,
        "  \"workload\": {{\"rows\": {}, \"dim\": {}, \"outputs\": {}, \"lookups_per_output\": {}, \"batches\": {}}},",
        p.rows, p.dim, p.outputs, p.lookups_per_output, p.batches
    );
    s.push_str("  \"paths\": {\n");
    for (i, r) in reports.iter().enumerate() {
        let allocs = r.allocs.map_or("null".to_string(), |a| a.to_string());
        let allocs_per_lookup = r.allocs.map_or("null".to_string(), |a| {
            format!("{:.3}", a as f64 / r.lookups as f64)
        });
        let _ = write!(
            s,
            "    \"{}\": {{\"lookups\": {}, \"wall_secs\": {:.6}, \"lookups_per_wall_sec\": {:.0}, \"sim_ns\": {}, \"allocs\": {}, \"allocs_per_lookup\": {}}}",
            r.name,
            r.lookups,
            r.wall_secs,
            r.lookups_per_wall_sec(),
            r.sim_ns,
            allocs,
            allocs_per_lookup
        );
        s.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}

fn main() {
    let p = Params::from_env();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());

    println!(
        "workload: {} batches x {} outputs x {} lookups (rows {}, dim {})",
        p.batches, p.outputs, p.lookups_per_output, p.rows, p.dim
    );
    let reports = [
        run_path(&p, "dram", &OpKind::dram_sls),
        run_path(&p, "baseline", &|t, b| {
            OpKind::baseline_sls(t, b, SlsOptions::default())
        }),
        run_path(&p, "ndp", &|t, b| {
            OpKind::ndp_sls(t, b, SlsOptions::default())
        }),
    ];
    for r in &reports {
        let allocs = r.allocs.map_or(String::from("n/a"), |a| {
            format!("{a} ({:.2}/lookup)", a as f64 / r.lookups as f64)
        });
        println!(
            "{:<9} {:>12.0} simulated lookups/wall-sec  (wall {:.3}s, sim {:.3}ms, allocs {})",
            r.name,
            r.lookups_per_wall_sec(),
            r.wall_secs,
            r.sim_ns as f64 / 1e6,
            allocs
        );
    }
    let json = json_escape_free(&reports, &p);
    std::fs::write(&out_path, &json).expect("write BENCH_throughput.json");
    println!("wrote {out_path}");
}

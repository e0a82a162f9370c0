//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit and better direction. Each workload
//! fills values by name; a metric a workload does not exercise reads 0.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics printed on every workload (`--trace 0`), in the
/// order of the final JSON line. `sim_*` use the modelled device's
/// clock; `wall_*`, `setup_s` and `peak_rss_mb` the host's.
pub const END_TO_END: [MetricDef; 6] = [
    def("sim_lookups_per_s", "lookups/sim-s", Higher),
    def("sim_p50_us", "sim-us", Lower),
    def("sim_p99_us", "sim-us", Lower),
    def("wall_lookups_per_s", "lookups/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics printed by the traced run (`--trace 1`), grouped by
/// crate; the `obs` pair compares the traced pass with the untraced
/// ones. Phase metrics (`*_us` named after a critical-path phase) are
/// the mean sim µs per request the analyzer charges to that phase.
pub const PER_LAYER: [MetricDef; 44] = [
    // flash
    def("flash.reads_per_lookup", "1/lookup", Lower),
    def("flash.channel_util", "fraction", Lower),
    def("flash.op_p99_us", "sim-us", Lower),
    def("flash.ecc_retries", "1/req", Lower),
    def("flash.uncorrectable", "1/req", Lower),
    def("flash.read_us", "sim-us", Lower),
    // ftl
    def("ftl.fw_core_util", "fraction", Lower),
    def("ftl.engine_util", "fraction", Lower),
    def("ftl.page_cache_hit_rate", "fraction", Higher),
    def("ftl.host_reads_per_lookup", "1/lookup", Lower),
    def("ftl.engine_exec_us", "sim-us", Lower),
    def("ftl.fw_exec_us", "sim-us", Lower),
    // nvme
    def("nvme.pcie_bytes_per_lookup", "B/lookup", Lower),
    def("nvme.pcie_util", "fraction", Lower),
    def("nvme.transfer_us", "sim-us", Lower),
    // ssd
    def("ssd.commands_per_lookup", "1/lookup", Lower),
    def("ssd.wall_ns_per_lookup", "ns/lookup", Lower),
    // core
    def("core.op_service_p50_us", "sim-us", Lower),
    def("core.op_queue_p99_us", "sim-us", Lower),
    def("core.host_sw_us", "sim-us", Lower),
    def("core.merge_us", "sim-us", Lower),
    // serving
    def("serving.queue_p99_us", "sim-us", Lower),
    def("serving.occupancy", "ops", Higher),
    def("serving.batching_factor", "subs/op", Higher),
    def("serving.faults", "1/req", Lower),
    def("serving.retries", "1/req", Lower),
    def("serving.fallbacks", "1/req", Lower),
    def("serving.admission_us", "sim-us", Lower),
    def("serving.shard_queue_us", "sim-us", Lower),
    def("serving.retry_backoff_us", "sim-us", Lower),
    def("serving.admit_ns_per_lookup", "ns/lookup", Lower),
    def("serving.dispatch_ns_per_lookup", "ns/lookup", Lower),
    def("serving.harvest_ns_per_lookup", "ns/lookup", Lower),
    // placement
    def("placement.tier_hit_rate", "fraction", Higher),
    def("placement.tier_service_p99_us", "sim-us", Lower),
    def("placement.plan_refreshes", "count", Lower),
    def("placement.migration_lookups", "1/lookup", Lower),
    def("placement.tier_gather_us", "sim-us", Lower),
    // models
    def("models.mlp_us", "sim-us", Lower),
    def("models.embed_us", "sim-us", Lower),
    // embedding, trace and obs are measured by the runner itself
    def("embedding.verify_ns_per_lookup", "ns/lookup", Lower),
    def("trace.gen_ns_per_lookup", "ns/lookup", Lower),
    def("obs.trace_overhead", "x", Lower),
    def("obs.spans_per_lookup", "1/lookup", Lower),
];

/// Named metric values collected by a workload; unknown names panic so
/// the catalogue stays the single list of what is printed.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (which must be in the catalogue) to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a catalogued metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue().any(|d| d.name == name),
            "uncatalogued metric {name}"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, or 0 when the workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Every catalogued metric.
pub fn catalogue() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter())
}

/// Renders the final result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric as `{"value", "unit"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(values.get(d.name)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives (non-finite values, which JSON cannot carry, become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = catalogue().map(|d| d.name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        for d in catalogue() {
            assert!(d.unit.len() <= 16, "{}", d.unit);
        }
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut v = Values::default();
        v.set("sim_p50_us", 1.5);
        let line = result_json(true, 3, 0, &END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"sim_p50_us\": {\"value\": 1.5, \"unit\": \"sim-us\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }
}

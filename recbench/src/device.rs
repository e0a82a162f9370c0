//! Device-side counters (flash, FTL/firmware/engines, NVMe/PCIe, SSD
//! commands, injected faults) read from the public statistics of one or
//! more [`System`]s after a pass, and the per-layer metrics derived from
//! them.

use recssd::System;
use recssd_sim::stats::Histogram;

use crate::metrics::Values;

/// Summed counters of a set of device shards.
#[derive(Debug, Default)]
pub struct DeviceCounters {
    systems: u64,
    /// Configured flash channels, summed over systems.
    channels: u64,
    /// Configured per-channel SLS engines, summed over systems.
    engines: u64,
    flash_reads: u64,
    channel_busy_ns: u64,
    flash_latency: Histogram,
    fw_busy_ns: u64,
    engine_busy_ns: u64,
    cache_hits: u64,
    cache_accesses: u64,
    host_reads: u64,
    pcie_bytes: u64,
    pcie_busy_ns: u64,
    commands: u64,
    transient: u64,
    uncorrectable: u64,
}

impl DeviceCounters {
    /// Adds one system's totals.
    pub fn add(&mut self, sys: &System) {
        let dev = sys.device();
        let ftl = dev.ftl();
        let flash = ftl.flash().stats();
        self.systems += 1;
        self.channels += ftl.config().flash.geometry.channels as u64;
        self.engines += ftl.engine_count() as u64;
        self.flash_reads += flash.reads.get();
        self.channel_busy_ns += flash.channel_busy.iter().map(|b| b.as_ns()).sum::<u64>();
        self.flash_latency.merge(&flash.op_latency);
        self.fw_busy_ns += ftl.firmware_busy().as_ns();
        self.engine_busy_ns += ftl.engines_busy_total().as_ns();
        let cache = ftl.cache_stats();
        self.cache_hits += cache.hits();
        self.cache_accesses += cache.accesses();
        self.host_reads += ftl.stats().host_reads.get();
        let pcie = dev.pcie().stats();
        self.pcie_bytes += pcie.bytes.get();
        self.pcie_busy_ns += pcie.busy_ns.get();
        let s = dev.stats();
        self.commands += s.read_commands.get() + s.write_commands.get() + s.ndp_commands.get();
        if let Some(f) = sys.fault_stats() {
            self.transient += f.transient.get();
            self.uncorrectable += f.uncorrectable.get();
        }
    }

    /// Fills the flash, FTL, NVMe and SSD counter metrics. Every
    /// utilization is busy time ÷ (configured servers × `makespan_ns`).
    pub fn fill(&self, v: &mut Values, lookups: u64, requests: u64, makespan_ns: u64) {
        let per_lookup = |x: u64| x as f64 / lookups.max(1) as f64;
        let per_req = |x: u64| x as f64 / requests.max(1) as f64;
        let util = |busy: u64, servers: u64| {
            if servers == 0 || makespan_ns == 0 {
                0.0
            } else {
                busy as f64 / (servers as f64 * makespan_ns as f64)
            }
        };
        v.set("flash.reads_per_lookup", per_lookup(self.flash_reads));
        v.set(
            "flash.channel_util",
            util(self.channel_busy_ns, self.channels),
        );
        v.set(
            "flash.op_p99_us",
            self.flash_latency.percentile(99.0).unwrap_or(0) as f64 / 1e3,
        );
        v.set("flash.ecc_retries", per_req(self.transient));
        v.set("flash.uncorrectable", per_req(self.uncorrectable));
        v.set("ftl.fw_core_util", util(self.fw_busy_ns, self.systems));
        v.set("ftl.engine_util", util(self.engine_busy_ns, self.engines));
        v.set(
            "ftl.page_cache_hit_rate",
            if self.cache_accesses == 0 {
                0.0
            } else {
                self.cache_hits as f64 / self.cache_accesses as f64
            },
        );
        v.set("ftl.host_reads_per_lookup", per_lookup(self.host_reads));
        v.set("nvme.pcie_bytes_per_lookup", per_lookup(self.pcie_bytes));
        v.set("nvme.pcie_util", util(self.pcie_busy_ns, self.systems));
        v.set("ssd.commands_per_lookup", per_lookup(self.commands));
    }

    /// One-line summary for the report.
    pub fn note(&self) -> String {
        format!(
            "device: systems {} channels {} engines {} flash_reads {} ecc_retries {} \
             uncorrectable {} commands {} pcie_bytes {}",
            self.systems,
            self.channels,
            self.engines,
            self.flash_reads,
            self.transient,
            self.uncorrectable,
            self.commands,
            self.pcie_bytes
        )
    }
}

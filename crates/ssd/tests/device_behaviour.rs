//! Device-level behaviour: full command round trips, error completions,
//! NDP rejection on a COTS device, and the throughput calibrations that
//! anchor the paper's baseline numbers.

use std::sync::Arc;

use recssd_flash::{FaultConfig, FaultPlan, PageOracle};
use recssd_ftl::Lpn;
use recssd_nvme::{CompletionData, NvmeCommand, NvmeCompletion, NvmeStatus};
use recssd_sim::{EventQueue, SimTime};
use recssd_ssd::{SsdConfig, SsdDevice, SsdEvent};

/// Host-side event loop around a device.
struct Host {
    dev: SsdDevice,
    q: EventQueue<SsdEvent>,
}

impl Host {
    fn new(cfg: SsdConfig) -> Self {
        Host {
            dev: SsdDevice::new(cfg),
            q: EventQueue::new(),
        }
    }

    fn submit(&mut self, qid: u16, cmd: NvmeCommand) {
        let Host { dev, q } = self;
        dev.queue(qid).submit(cmd).expect("queue has room");
        let mut fresh = Vec::new();
        dev.doorbell(q.now(), qid, &mut |d, e| fresh.push((d, e)));
        for (d, e) in fresh {
            q.push_after(d, e);
        }
    }

    /// Drives the simulation until the device is idle; returns final time.
    fn drain(&mut self) -> SimTime {
        let mut last = self.q.now();
        while let Some((now, ev)) = self.q.pop() {
            let Host { dev, q } = self;
            let mut fresh = Vec::new();
            dev.handle(now, ev, &mut |d, e| fresh.push((d, e)));
            for (d, e) in fresh {
                q.push_after(d, e);
            }
            last = now;
        }
        assert!(self.dev.idle(), "drain must reach quiescence");
        last
    }

    fn poll(&mut self, qid: u16) -> Vec<NvmeCompletion> {
        let mut out = Vec::new();
        while let Some(c) = self.dev.queue(qid).poll() {
            out.push(c);
        }
        out
    }
}

/// The page images a successful conventional read returned.
fn read_pages(c: &NvmeCompletion) -> &[Arc<[u8]>] {
    match &c.data {
        Some(CompletionData::Pages(pages)) => pages,
        other => panic!("read returned {other:?} instead of page images"),
    }
}

fn page_payload(tag: u8, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    v[0] = tag;
    v[len / 2] = tag ^ 0xFF;
    v
}

#[test]
fn write_then_read_round_trips_through_the_full_stack() {
    let mut h = Host::new(SsdConfig::cosmos_small());
    let page = h.dev.config().block_bytes();
    h.submit(
        0,
        NvmeCommand::write(1, 7, 2, {
            let mut p = page_payload(0xA1, page);
            p.extend(page_payload(0xB2, page));
            p
        }),
    );
    h.drain();
    let done = h.poll(0);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, NvmeStatus::Success);

    // Cold read (drop device caches to force the flash path).
    h.dev.ftl_mut().drop_caches();
    h.submit(0, NvmeCommand::read(2, 7, 2));
    h.drain();
    let done = h.poll(0);
    assert_eq!(done.len(), 1);
    let pages = read_pages(&done[0]);
    assert_eq!(pages.len(), 2);
    assert!(pages.iter().all(|p| p.len() == page));
    assert_eq!(pages[0][0], 0xA1);
    assert_eq!(pages[0][page / 2], 0xA1 ^ 0xFF);
    assert_eq!(pages[1][0], 0xB2);
}

#[test]
fn out_of_range_and_zero_length_commands_fail_cleanly() {
    let mut h = Host::new(SsdConfig::cosmos_small());
    let logical = h.dev.config().ftl.logical_pages;
    h.submit(0, NvmeCommand::read(1, logical - 1, 2));
    h.submit(0, NvmeCommand::read(2, 0, 0));
    h.drain();
    let done = h.poll(0);
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].status, NvmeStatus::LbaOutOfRange);
    assert_eq!(done[1].status, NvmeStatus::InvalidField);
}

#[test]
fn cots_device_rejects_ndp_commands() {
    let mut h = Host::new(SsdConfig::cosmos_small());
    h.submit(0, NvmeCommand::ndp_write(5, 0, vec![0u8; 64]));
    h.drain();
    let done = h.poll(0);
    assert_eq!(done[0].status, NvmeStatus::InvalidField);
    assert_eq!(h.dev.stats().ndp_commands.get(), 1);
}

#[test]
fn unmapped_reads_return_zeros() {
    let mut h = Host::new(SsdConfig::cosmos_small());
    h.submit(1, NvmeCommand::read(1, 100, 1));
    h.drain();
    let done = h.poll(1);
    assert!(read_pages(&done[0])[0].iter().all(|&b| b == 0));
}

#[test]
fn preloaded_tables_are_readable_via_nvme() {
    #[derive(Debug)]
    struct Tagged;
    impl PageOracle for Tagged {
        fn fill_page(&self, idx: u64, out: &mut [u8]) {
            out.fill(0);
            out[..8].copy_from_slice(&idx.to_le_bytes());
        }
    }
    let mut h = Host::new(SsdConfig::cosmos_small());
    h.dev.preload(Lpn(0), 256, Arc::new(Tagged));
    h.submit(0, NvmeCommand::read(1, 123, 1));
    h.drain();
    let done = h.poll(0);
    let data = &read_pages(&done[0])[0];
    assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 123);
}

#[test]
fn random_single_block_reads_are_firmware_bound() {
    // §3.2 of the paper: host-visible random reads hit a ~10-20K IOPS
    // ceiling far below internal flash bandwidth, because each command
    // costs serial firmware time.
    let cfg = SsdConfig::cosmos_small();
    let fw_per_cmd = cfg.fw_command_time(1);
    let mut h = Host::new(cfg);
    #[derive(Debug)]
    struct Z;
    impl PageOracle for Z {
        fn fill_page(&self, _i: u64, out: &mut [u8]) {
            out.fill(0);
        }
    }
    h.dev.preload(Lpn(0), 1024, Arc::new(Z));
    let n: u64 = 128;
    for i in 0..n {
        // Spread across queues; strided so each hits a distinct page.
        h.submit((i % 4) as u16, NvmeCommand::read(i as u16, i * 7 % 1024, 1));
    }
    let end = h.drain();
    let expected_fw = fw_per_cmd * n;
    // Firmware serialisation dominates: completion time within 35% above
    // the pure-firmware bound (flash pipeline adds the tail latency).
    assert!(
        end >= SimTime::ZERO + expected_fw,
        "cannot be faster than serial firmware: {end}"
    );
    let max = SimTime::ZERO + expected_fw + expected_fw / 3;
    assert!(
        end <= max,
        "random reads should be firmware-bound: {end} vs {max}"
    );
    let iops = n as f64 / end.as_secs_f64();
    assert!(
        (10_000.0..25_000.0).contains(&iops),
        "random-read IOPS out of calibration: {iops:.0}"
    );
}

#[test]
fn large_sequential_reads_are_flash_bound_near_advertised_bandwidth() {
    // §5: maximum sequential read "just under 1.4GB/s".
    let cfg = SsdConfig::cosmos_small();
    let page = cfg.block_bytes();
    let mut h = Host::new(cfg);
    #[derive(Debug)]
    struct Z;
    impl PageOracle for Z {
        fn fill_page(&self, _i: u64, out: &mut [u8]) {
            out.fill(0);
        }
    }
    h.dev.preload(Lpn(0), 2048, Arc::new(Z));
    let nlb = 64u32;
    let cmds = 16u64;
    for i in 0..cmds {
        h.submit(
            (i % 4) as u16,
            NvmeCommand::read(i as u16, i * nlb as u64, nlb),
        );
    }
    let end = h.drain();
    let bytes = cmds as f64 * nlb as f64 * page as f64;
    let gbps = bytes / end.as_secs_f64() / 1e9;
    // cosmos_small has 2 channels (vs 8), so scale: 2 channels ≈ 0.33 GB/s.
    assert!(
        (0.25..0.40).contains(&gbps),
        "sequential bandwidth out of calibration: {gbps:.3} GB/s"
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    let run = || {
        let mut h = Host::new(SsdConfig::cosmos_small());
        let page = h.dev.config().block_bytes();
        for i in 0..20u16 {
            h.submit(
                i % 3,
                NvmeCommand::write(i, i as u64 * 3, 1, page_payload(i as u8, page / 2)),
            );
        }
        let t1 = h.drain();
        for i in 0..20u16 {
            h.submit(i % 3, NvmeCommand::read(100 + i, i as u64 * 3, 1));
        }
        let t2 = h.drain();
        (t1, t2)
    };
    assert_eq!(run(), run());
}

#[test]
fn interleaved_queues_all_complete() {
    let mut h = Host::new(SsdConfig::cosmos_small());
    let page = h.dev.config().block_bytes();
    for i in 0..8u16 {
        h.submit(
            i % 8,
            NvmeCommand::write(i, i as u64, 1, page_payload(i as u8, page)),
        );
    }
    h.drain();
    for i in 0..8u16 {
        h.submit(i % 8, NvmeCommand::read(50 + i, i as u64, 1));
    }
    h.drain();
    for qid in 0..8u16 {
        let done = h.poll(qid);
        assert_eq!(done.len(), 2, "queue {qid} saw write+read completions");
        for c in done {
            assert_eq!(c.status, NvmeStatus::Success);
        }
    }
}

/// Fills every byte of a page with its index + 1, so a page image that a
/// later read overwrote in place shows another page's tag everywhere.
#[derive(Debug)]
struct Stamped;
impl PageOracle for Stamped {
    fn fill_page(&self, idx: u64, out: &mut [u8]) {
        out.fill(idx as u8 + 1);
    }
}

/// A device whose page cache holds `cache_pages` pages, over a preloaded
/// [`Stamped`] region.
fn small_cache_host(cache_pages: usize) -> Host {
    let mut cfg = SsdConfig::cosmos_small();
    cfg.ftl.page_cache_pages = cache_pages;
    let mut h = Host::new(cfg);
    h.dev.preload(Lpn(0), 64, Arc::new(Stamped));
    h
}

/// Reads one block and returns its page image.
fn read_one(h: &mut Host, cid: u16, lpn: u64) -> Arc<[u8]> {
    h.submit(0, NvmeCommand::read(cid, lpn, 1));
    h.drain();
    let done = h.poll(0);
    assert_eq!(done.len(), 1);
    let pages = read_pages(&done[0]);
    assert_eq!(pages.len(), 1);
    pages[0].clone()
}

/// Reads blocks `lpns` one command at a time, handing every image back
/// to the device as soon as it arrives, so the page pool fills and later
/// reads refill pooled images in place.
fn churn(h: &mut Host, first_cid: u16, lpns: std::ops::Range<u64>) {
    for (cid, lpn) in (first_cid..).zip(lpns) {
        let page = read_one(h, cid, lpn);
        h.dev.recycle_pages(vec![page]);
    }
}

fn flash_reads(h: &Host) -> u64 {
    h.dev.ftl().flash().stats().reads.get()
}

#[test]
fn a_held_page_image_survives_eviction_and_reread() {
    let mut h = small_cache_host(2);
    let held = read_one(&mut h, 1, 0);
    let want = vec![1u8; held.len()];
    // Evict block 0 from the two-page cache while the host holds it.
    churn(&mut h, 10, 1..9);
    assert_eq!(&held[..], &want[..]);
    // The re-read misses the cache, fills a pooled image and re-caches it.
    let before = flash_reads(&h);
    let again = read_one(&mut h, 20, 0);
    assert_eq!(
        flash_reads(&h),
        before + 1,
        "the re-read must come from flash"
    );
    assert!(!Arc::ptr_eq(&held, &again), "a held image is never reused");
    assert_eq!(&again[..], &want[..]);
    // It is the cached image now: a second read hits the cache.
    let hit = read_one(&mut h, 21, 0);
    assert!(Arc::ptr_eq(&again, &hit));
    h.dev.recycle_pages(vec![again, hit]);
    // Evict and churn again; the host's first image is still intact.
    churn(&mut h, 30, 9..20);
    assert_eq!(&held[..], &want[..]);
}

#[test]
fn an_uncorrectable_reread_reaches_neither_the_cache_nor_the_host() {
    let mut h = small_cache_host(2);
    let held = read_one(&mut h, 1, 0);
    let want = vec![1u8; held.len()];
    churn(&mut h, 10, 1..9);
    h.dev.set_fault_plan(Some(FaultPlan::new(FaultConfig {
        uncorrectable_rate: 1.0,
        ..FaultConfig::quiet(7)
    })));
    let before = flash_reads(&h);
    h.submit(0, NvmeCommand::read(20, 0, 1));
    h.drain();
    let done = h.poll(0);
    assert_eq!(done[0].status, NvmeStatus::MediaError);
    assert!(
        done[0].data.is_none(),
        "a failed read carries no page images"
    );
    assert_eq!(flash_reads(&h), before + 1);
    h.dev.set_fault_plan(None);
    // The failed image was not cached: the next read goes to flash again.
    let again = read_one(&mut h, 21, 0);
    assert_eq!(
        flash_reads(&h),
        before + 2,
        "the failed read must not be cached"
    );
    assert_eq!(&again[..], &want[..]);
    h.dev.recycle_pages(vec![again]);
    churn(&mut h, 30, 9..20);
    assert_eq!(&held[..], &want[..]);
}

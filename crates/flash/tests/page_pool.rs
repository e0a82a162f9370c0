//! The array's page pool reuses images across pages of every kind without
//! leaking bytes between them.
//!
//! Reads hand out pooled images of exactly each page's length: an oracle
//! page's declared length, a whole page otherwise. Each image goes back to
//! the pool of its own length and the next read of that length refills it
//! in place. Every image, zero-extended to a page, must equal the store's
//! reference read of its page, whatever page last used the buffer.

use std::collections::HashMap;
use std::sync::Arc;

use recssd_flash::{FlashArray, FlashConfig, FlashEvent, FlashOp, PageOracle, Ppa};
use recssd_sim::EventQueue;

/// Declared length of a dense table's partial last page (an Int8 row of
/// 36 B, 100 rows).
const PARTIAL: usize = 3600;

/// Preloaded pages by `index % 4`, modelled on an embedding-table image:
/// a spread page (one 128 B row), a full dense page, a dense table's
/// partial last page and a page past the table's image (empty). Every
/// declared byte is a nonzero tag of its page and position, so a stale
/// byte from another page, or a zero where data belongs, shows.
#[derive(Debug)]
struct TableLike;

impl PageOracle for TableLike {
    fn page_len(&self, page_index: u64, page_bytes: usize) -> usize {
        match page_index % 4 {
            0 => 128,
            1 => page_bytes,
            2 => PARTIAL,
            _ => 0,
        }
    }

    fn fill_page(&self, page_index: u64, out: &mut [u8]) {
        for (i, b) in out.iter_mut().enumerate() {
            *b = tag(page_index, i);
        }
    }
}

fn tag(page_index: u64, i: usize) -> u8 {
    ((page_index as usize * 131 + i * 7) % 255) as u8 + 1
}

struct Rig {
    flash: FlashArray,
    q: EventQueue<FlashEvent>,
    page_bytes: usize,
    /// Last image pointer handed out per image length.
    last: HashMap<usize, *const u8>,
    reused: usize,
}

impl Rig {
    fn new() -> Self {
        let cfg = FlashConfig::cosmos_small();
        let page_bytes = cfg.geometry.page_bytes;
        let mut flash = FlashArray::new(cfg);
        // 2 channels x 2 dies x 16 pages: block 0 of every lane.
        flash.preload(0..64, Arc::new(TableLike));
        Rig {
            flash,
            q: EventQueue::new(),
            page_bytes,
            last: HashMap::new(),
            reused: 0,
        }
    }

    fn ppa(&self, index: u64) -> Ppa {
        self.flash.config().geometry.ppa_of_index(index)
    }

    /// Runs one operation to completion, returning a read's image.
    fn run(&mut self, op: FlashOp) -> Option<Arc<[u8]>> {
        let q = &mut self.q;
        self.flash
            .submit(q.now(), op, &mut |d, e| q.push_after(d, e))
            .expect("valid op");
        let mut data = None;
        while let Some((now, ev)) = self.q.pop() {
            let mut pending = Vec::new();
            if let Some(c) = self.flash.handle(now, ev, &mut |d, e| pending.push((d, e))) {
                data = c.data;
            }
            for (d, e) in pending {
                self.q.push_after(d, e);
            }
        }
        data
    }

    /// Reads page `index`, checks its image against the reference read and
    /// hands it back to the pool.
    fn read_and_check(&mut self, index: u64, want_len: usize) {
        let ppa = self.ppa(index);
        let image = self.run(FlashOp::Read { ppa }).expect("reads carry data");
        assert_eq!(image.len(), want_len, "image length of page {index}");
        let mut got = image.to_vec();
        got.resize(self.page_bytes, 0);
        assert!(
            got == self.flash.page_bytes_prefix(ppa, self.page_bytes),
            "page {index}: image differs from its zero-extended reference"
        );
        let ptr = image.as_ptr();
        if self.last.insert(image.len(), ptr) == Some(ptr) {
            self.reused += 1;
        }
        self.flash.recycle_page(image);
    }

    fn oracle_len(&self, index: u64) -> usize {
        TableLike.page_len(index, self.page_bytes)
    }
}

#[test]
fn pooled_images_match_their_pages_across_lengths_and_kinds() {
    let mut rig = Rig::new();
    let page_bytes = rig.page_bytes;

    // Interleave all four oracle lengths; each read refills the image the
    // previous read of its length recycled.
    for k in 0..64u64 {
        let index = (k * 13) % 64;
        rig.read_and_check(index, rig.oracle_len(index));
    }
    assert_eq!(
        rig.reused,
        64 - 4,
        "every read after the first per length reuses"
    );

    // GC-style relocation: a pooled whole-page image (last filled by a
    // dense oracle page) carries new data into a fresh block and returns
    // to the pool when the program completes.
    let lane_block1 = |page| Ppa {
        channel: 1,
        die: 1,
        block: 1,
        page,
    };
    for (page, len) in [(0, 3usize), (1, 9000), (2, page_bytes)] {
        let image = rig.flash.page_image(&vec![0x5A; len]);
        assert_eq!(image.len(), page_bytes);
        let ppa = lane_block1(page);
        assert!(rig.run(FlashOp::Program { ppa, data: image }).is_none());
        // Explicit pages read back as whole, zero-padded images.
        let index = rig.flash.config().geometry.linear_index(ppa);
        rig.read_and_check(index, page_bytes);
        rig.read_and_check(1, page_bytes);
        rig.read_and_check(index, page_bytes);
    }

    // Erasing lane (0, 0)'s preloaded block tombstones its oracle pages
    // (indices 0, 4, 8, ...: the 128 B ones): they now read as whole zero
    // pages, out of images a dense page just filled.
    rig.run(FlashOp::Erase { ppa: rig.ppa(0) });
    for index in [4, 5, 8, 6, 0, 7, 12] {
        let want = if index % 4 == 0 {
            page_bytes
        } else {
            rig.oracle_len(index)
        };
        rig.read_and_check(index, want);
    }
    // Untouched lanes still serve short oracle images.
    for index in [1, 2, 3, 9, 10, 11, 13, 61, 62, 63] {
        rig.read_and_check(index, rig.oracle_len(index));
    }
}

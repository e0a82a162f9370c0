//! Backing storage for flash page contents.
//!
//! Two backing modes coexist:
//!
//! * **Explicit** pages were written through the program path; their bytes
//!   are stored (trailing zeros trimmed, so a 16 KB page holding one 128 B
//!   embedding vector costs ~128 B of host memory).
//! * **Oracle** pages belong to a preloaded region whose contents are
//!   synthesised on demand by a [`PageOracle`]. This is how multi-GB
//!   embedding-table images are "pre-written" to the device without
//!   materialising them, mirroring how the paper preloads tables onto the
//!   OpenSSD before timing runs.
//!
//! Explicit data shadows oracle data; an erase tombstones oracle pages.
//!
//! A page read yields an *image*: the page's meaningful bytes, not
//! necessarily the whole page. An oracle declares how long each of its
//! pages is ([`PageOracle::page_len`]) and writes every byte of that
//! length, so a spread embedding table's page image is one 128 B row
//! rather than 16 KB of mostly zeros, and nothing is zero-filled only to
//! be ignored. Explicit, erased and never-written pages read as whole,
//! zero-padded pages. Bytes past an image's end read as zeros
//! ([`PageStore::read`] returns that zero-extended view). Image lengths
//! are a host-memory matter only: simulated transfer sizes are always
//! whole pages.
//!
//! Deviation from real NAND: unwritten pages read as zeros (not 0xFF). The
//! workloads in this reproduction never read erased pages for data, and
//! zero-fill lets us trim trailing zeros when storing sparse page images.

use std::ops::Range;
use std::sync::Arc;

use recssd_sim::{FxHashMap, FxHashSet};

/// Synthesises the contents of preloaded pages on demand.
///
/// Implementations must be deterministic: the same page index must always
/// produce the same bytes, because a page may be regenerated many times.
pub trait PageOracle: std::fmt::Debug + Send + Sync {
    /// Length in bytes of the image of the page at linear index
    /// `page_index` on a device with `page_bytes`-byte pages: how many
    /// leading bytes of the page hold data (the rest read as zeros). At
    /// most `page_bytes`; the default is the whole page.
    fn page_len(&self, page_index: u64, page_bytes: usize) -> usize {
        let _ = page_index;
        page_bytes
    }

    /// Writes the contents of the page at linear index `page_index` (see
    /// [`FlashGeometry::linear_index`](crate::FlashGeometry::linear_index))
    /// into `out`, which is exactly [`PageOracle::page_len`] bytes long.
    /// `out` is a recycled buffer holding another page's bytes, so every
    /// byte of it must be written.
    fn fill_page(&self, page_index: u64, out: &mut [u8]);
}

/// Where one page's bytes come from, resolved once per read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageSource<'a> {
    index: u64,
    kind: SourceKind<'a>,
}

#[derive(Debug, Clone, Copy)]
enum SourceKind<'a> {
    /// Explicitly written bytes (trailing zeros trimmed).
    Explicit(&'a [u8]),
    /// A preloaded page synthesised by its oracle.
    Oracle(&'a dyn PageOracle),
    /// Never written, or erased.
    Zeros,
}

impl PageSource<'_> {
    /// Length of the page's image on a device with `page_bytes`-byte
    /// pages: the oracle's declared length, or the whole page.
    pub(crate) fn image_len(&self, page_bytes: usize) -> usize {
        match self.kind {
            SourceKind::Oracle(oracle) => {
                let len = oracle.page_len(self.index, page_bytes);
                debug_assert!(len <= page_bytes, "oracle page longer than a page");
                len
            }
            SourceKind::Explicit(_) | SourceKind::Zeros => page_bytes,
        }
    }

    /// Writes every byte of `out`, an image of [`PageSource::image_len`]
    /// bytes.
    pub(crate) fn fill(&self, out: &mut [u8]) {
        match self.kind {
            SourceKind::Explicit(data) => {
                let (head, tail) = out.split_at_mut(data.len());
                head.copy_from_slice(data);
                tail.fill(0);
            }
            SourceKind::Oracle(oracle) => oracle.fill_page(self.index, out),
            SourceKind::Zeros => out.fill(0),
        }
    }
}

/// Sparse, oracle-backed storage of page contents.
#[derive(Debug, Default)]
pub struct PageStore {
    explicit: FxHashMap<u64, Box<[u8]>>,
    oracles: Vec<(Range<u64>, Arc<dyn PageOracle>)>,
    tombstones: FxHashSet<u64>,
}

impl PageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PageStore::default()
    }

    /// Registers `oracle` as the content source for the linear page range
    /// `pages`. Later registrations shadow earlier ones on overlap;
    /// registrations the new range fully covers can never be consulted
    /// again and are dropped, so re-binding a region (placement plan
    /// refresh) does not accumulate dead oracles.
    pub fn register_oracle(&mut self, pages: Range<u64>, oracle: Arc<dyn PageOracle>) {
        self.oracles
            .retain(|(r, _)| !(pages.start <= r.start && r.end <= pages.end));
        self.oracles.push((pages, oracle));
    }

    /// Stores explicitly written page contents (trailing zeros trimmed).
    pub fn write(&mut self, page_index: u64, data: &[u8]) {
        let trimmed_len = data.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
        self.explicit
            .insert(page_index, data[..trimmed_len].to_vec().into_boxed_slice());
        self.tombstones.remove(&page_index);
    }

    /// Removes a page's contents (used by block erase). Oracle-covered
    /// pages are tombstoned so they read as zeros afterwards.
    pub fn erase(&mut self, page_index: u64) {
        self.explicit.remove(&page_index);
        if self.oracle_for(page_index).is_some() {
            self.tombstones.insert(page_index);
        }
    }

    fn oracle_for(&self, page_index: u64) -> Option<&Arc<dyn PageOracle>> {
        // Later registrations shadow earlier ones.
        self.oracles
            .iter()
            .rev()
            .find(|(r, _)| r.contains(&page_index))
            .map(|(_, o)| o)
    }

    /// Resolves where the bytes of page `page_index` come from.
    pub(crate) fn source(&self, page_index: u64) -> PageSource<'_> {
        let kind = if let Some(data) = self.explicit.get(&page_index) {
            SourceKind::Explicit(data)
        } else if self.tombstones.contains(&page_index) {
            SourceKind::Zeros
        } else {
            self.oracle_for(page_index)
                .map_or(SourceKind::Zeros, |o| SourceKind::Oracle(&**o))
        };
        PageSource {
            index: page_index,
            kind,
        }
    }

    /// Reads a whole page of `page_bytes` into a freshly allocated buffer:
    /// the page's image, zero-extended.
    pub fn read(&self, page_index: u64, page_bytes: usize) -> Box<[u8]> {
        let source = self.source(page_index);
        let mut buf = vec![0u8; page_bytes].into_boxed_slice();
        source.fill(&mut buf[..source.image_len(page_bytes)]);
        buf
    }

    /// `true` if the page has explicitly written contents (oracle pages
    /// excluded).
    pub fn is_written(&self, page_index: u64) -> bool {
        self.explicit.contains_key(&page_index)
    }

    /// Number of explicitly stored pages (diagnostics).
    pub fn explicit_pages(&self) -> usize {
        self.explicit.len()
    }

    /// Approximate bytes of host memory used by explicit page images.
    pub fn resident_bytes(&self) -> usize {
        self.explicit.values().map(|d| d.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct SeqOracle;
    impl PageOracle for SeqOracle {
        fn fill_page(&self, page_index: u64, out: &mut [u8]) {
            out.fill(0);
            out[0] = page_index as u8;
            out[1] = 0xAB;
        }
    }

    #[test]
    fn unwritten_pages_read_zero() {
        let store = PageStore::new();
        let page = store.read(5, 64);
        assert!(page.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_round_trip() {
        let mut store = PageStore::new();
        let mut data = vec![0u8; 64];
        data[0] = 1;
        data[10] = 2;
        store.write(3, &data);
        assert_eq!(&store.read(3, 64)[..], &data[..]);
    }

    #[test]
    fn trailing_zeros_are_trimmed_but_contents_preserved() {
        let mut store = PageStore::new();
        let mut data = vec![0u8; 16 * 1024];
        data[100] = 42;
        store.write(0, &data);
        assert!(store.resident_bytes() <= 101);
        assert_eq!(store.read(0, 16 * 1024)[100], 42);
    }

    #[test]
    fn oracle_serves_registered_range() {
        let mut store = PageStore::new();
        store.register_oracle(10..20, Arc::new(SeqOracle));
        let page = store.read(12, 32);
        assert_eq!(page[0], 12);
        assert_eq!(page[1], 0xAB);
        // Outside the range: zeros.
        assert!(store.read(9, 32).iter().all(|&b| b == 0));
    }

    #[test]
    fn short_oracle_images_read_zero_extended() {
        #[derive(Debug)]
        struct Short;
        impl PageOracle for Short {
            fn page_len(&self, page_index: u64, _page_bytes: usize) -> usize {
                page_index as usize
            }
            fn fill_page(&self, _i: u64, out: &mut [u8]) {
                out.fill(0xEE);
            }
        }
        let mut store = PageStore::new();
        store.register_oracle(0..10, Arc::new(Short));
        let source = store.source(3);
        assert_eq!(source.image_len(16), 3);
        let page = store.read(3, 16);
        assert_eq!(&page[..3], &[0xEE; 3]);
        assert!(page[3..].iter().all(|&b| b == 0));
        // Tombstoned oracle pages are whole zero pages again.
        store.erase(3);
        assert_eq!(store.source(3).image_len(16), 16);
        assert!(store.read(3, 16).iter().all(|&b| b == 0));
    }

    #[test]
    fn explicit_write_shadows_oracle() {
        let mut store = PageStore::new();
        store.register_oracle(0..100, Arc::new(SeqOracle));
        store.write(50, &[9, 9, 9]);
        assert_eq!(&store.read(50, 8)[..3], &[9, 9, 9]);
    }

    #[test]
    fn later_oracle_shadows_earlier() {
        #[derive(Debug)]
        struct Const(u8);
        impl PageOracle for Const {
            fn fill_page(&self, _i: u64, out: &mut [u8]) {
                out.fill(0);
                out[0] = self.0;
            }
        }
        let mut store = PageStore::new();
        store.register_oracle(0..10, Arc::new(Const(1)));
        store.register_oracle(5..10, Arc::new(Const(2)));
        assert_eq!(store.read(3, 4)[0], 1);
        assert_eq!(store.read(7, 4)[0], 2);
    }

    #[test]
    fn erase_tombstones_oracle_pages() {
        let mut store = PageStore::new();
        store.register_oracle(0..10, Arc::new(SeqOracle));
        assert_eq!(store.read(4, 8)[1], 0xAB);
        store.erase(4);
        assert!(store.read(4, 8).iter().all(|&b| b == 0));
        // Re-writing revives the page with explicit data.
        store.write(4, &[7]);
        assert_eq!(store.read(4, 8)[0], 7);
    }

    #[test]
    fn erase_removes_explicit_pages() {
        let mut store = PageStore::new();
        store.write(1, &[1, 2, 3]);
        assert!(store.is_written(1));
        store.erase(1);
        assert!(!store.is_written(1));
        assert!(store.read(1, 8).iter().all(|&b| b == 0));
        assert_eq!(store.explicit_pages(), 0);
    }
}

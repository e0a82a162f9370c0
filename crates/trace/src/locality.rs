//! The DLRM-style locality-K trace generator.

use recssd_sim::rng::Xoshiro256;
use recssd_sim::FxHashMap;

/// The paper's locality knob: K = 0 is the most temporally local trace
/// (≈13 % unique accesses), K = 2 the least (≈72 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalityK {
    /// ≈13 % unique accesses; baseline 2 K-entry LRU hits ≈84 %.
    K0,
    /// ≈54 % unique accesses; baseline LRU hits ≈44 %.
    K1,
    /// ≈72 % unique accesses; baseline LRU hits ≈28 %.
    K2,
}

impl LocalityK {
    /// The fresh-id probability this K maps to (the complement is the
    /// re-reference probability).
    pub fn unique_prob(self) -> f64 {
        match self {
            LocalityK::K0 => 0.13,
            LocalityK::K1 => 0.54,
            LocalityK::K2 => 0.72,
        }
    }

    /// All three sweep points, in paper order.
    pub fn all() -> [LocalityK; 3] {
        [LocalityK::K0, LocalityK::K1, LocalityK::K2]
    }

    /// Numeric value for labels.
    pub fn value(self) -> u32 {
        match self {
            LocalityK::K0 => 0,
            LocalityK::K1 => 1,
            LocalityK::K2 => 2,
        }
    }
}

impl std::fmt::Display for LocalityK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K={}", self.value())
    }
}

/// Generates embedding-row ids with controlled temporal locality.
///
/// With probability `unique_prob` the next id is drawn uniformly from the
/// table; otherwise a previously used id is re-referenced at an
/// exponentially distributed LRU-stack distance ("likelihood distributions
/// for input embeddings across stack distances of previously requested
/// embedding vectors", §5).
///
/// # Example
///
/// ```
/// use recssd_trace::{unique_fraction, LocalityK, LocalityTrace};
/// let mut t = LocalityTrace::with_k(1_000_000, LocalityK::K1, 7);
/// let ids = t.take_ids(20_000);
/// let u = unique_fraction(&ids);
/// assert!((u - 0.54).abs() < 0.04, "unique fraction was {u}");
/// ```
#[derive(Debug)]
pub struct LocalityTrace {
    rows: u64,
    unique_prob: f64,
    mean_distance: f64,
    stack: LruStack,
    rng: Xoshiro256,
}

impl LocalityTrace {
    /// Default mean LRU-stack distance of re-references. Calibrated so a
    /// 2 K-entry fully associative LRU cache reproduces the paper's
    /// baseline hit rates (84 / 44 / 28 % for K = 0/1/2).
    pub const DEFAULT_MEAN_DISTANCE: f64 = 600.0;

    /// Creates a generator with one of the paper's K presets.
    pub fn with_k(rows: u64, k: LocalityK, seed: u64) -> Self {
        LocalityTrace::new(rows, k.unique_prob(), Self::DEFAULT_MEAN_DISTANCE, seed)
    }

    /// Creates a generator with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero, `unique_prob` is outside `[0, 1]`, or
    /// `mean_distance` is not positive.
    pub fn new(rows: u64, unique_prob: f64, mean_distance: f64, seed: u64) -> Self {
        Self::with_stack_depth(rows, unique_prob, mean_distance, seed, 16_384)
    }

    fn with_stack_depth(
        rows: u64,
        unique_prob: f64,
        mean_distance: f64,
        seed: u64,
        max_stack: usize,
    ) -> Self {
        assert!(rows > 0, "table must have rows");
        assert!(
            (0.0..=1.0).contains(&unique_prob),
            "unique probability must be in [0, 1]"
        );
        assert!(mean_distance > 0.0, "mean distance must be positive");
        LocalityTrace {
            rows,
            unique_prob,
            mean_distance,
            stack: LruStack::new(max_stack),
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// The next id in the trace.
    pub fn next_id(&mut self) -> u64 {
        let reuse = !self.stack.is_empty() && !self.rng.gen_bool(self.unique_prob);
        if reuse {
            // Wrap distances into the live stack so the re-reference
            // probability holds even while the stack is still warming up
            // (beyond warm-up the wrap is a ~e^-27 tail event).
            let d = self.rng.next_exp(1.0 / self.mean_distance) as usize % self.stack.len();
            let id = self.stack.take_at(d);
            self.stack.push_front(id);
            return id;
        }
        let id = self.rng.gen_range(0..self.rows);
        self.stack.remove(id);
        self.stack.push_front(id);
        id
    }

    /// Draws `n` ids.
    pub fn take_ids(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_id()).collect()
    }

    /// Number of table rows ids are drawn from.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// A bounded LRU stack of ids with O(log n) access by depth.
///
/// Every push stamps the id with the next value of a counter; an id's
/// depth (0 = most recent) is the number of live ids with a later stamp.
/// A Fenwick tree over the stamp space counts live stamps, so the id at a
/// given depth is found by a prefix-sum search instead of a linear scan.
/// When the counter reaches the end of the stamp space, the live ids are
/// renumbered in order (an O(space) pass every `space - capacity` pushes).
#[derive(Debug)]
struct LruStack {
    capacity: usize,
    /// Fenwick tree (1-based) over stamps: stamp `s` counts at `s + 1`.
    tree: Vec<u32>,
    /// The id last stamped with each stamp (stale once re-stamped).
    ids: Vec<u64>,
    /// Each live id's stamp.
    stamp_of: FxHashMap<u64, u32>,
    next_stamp: usize,
}

impl LruStack {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stack must hold at least one id");
        let space = (2 * capacity).next_power_of_two();
        LruStack {
            capacity,
            tree: vec![0; space + 1],
            ids: vec![0; space],
            stamp_of: FxHashMap::default(),
            next_stamp: 0,
        }
    }

    fn len(&self) -> usize {
        self.stamp_of.len()
    }

    fn is_empty(&self) -> bool {
        self.stamp_of.is_empty()
    }

    fn add(&mut self, stamp: usize, delta: i32) {
        let mut i = stamp + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The stamp of the `k`-th oldest live id (`k` ≥ 1).
    fn kth_oldest(&self, k: usize) -> usize {
        let space = self.ids.len();
        let (mut pos, mut rem) = (0, k as u32);
        let mut step = space;
        while step > 0 {
            if pos + step <= space && self.tree[pos + step] < rem {
                pos += step;
                rem -= self.tree[pos];
            }
            step >>= 1;
        }
        pos
    }

    /// Removes `id` if it is on the stack.
    fn remove(&mut self, id: u64) {
        if let Some(stamp) = self.stamp_of.remove(&id) {
            self.add(stamp as usize, -1);
        }
    }

    /// Removes and returns the id at depth `d` (0 = most recent).
    fn take_at(&mut self, d: usize) -> u64 {
        let stamp = self.kth_oldest(self.len() - d);
        let id = self.ids[stamp];
        self.remove(id);
        id
    }

    /// Pushes `id` (which must not be on the stack) as the most recent,
    /// dropping the oldest id if the stack overflows.
    fn push_front(&mut self, id: u64) {
        if self.next_stamp == self.ids.len() {
            self.compact();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.ids[stamp] = id;
        self.stamp_of.insert(id, stamp as u32);
        self.add(stamp, 1);
        if self.len() > self.capacity {
            let oldest = self.ids[self.kth_oldest(1)];
            self.remove(oldest);
        }
    }

    /// Renumbers the live ids to stamps `0..len` in stamp order and
    /// rebuilds the tree.
    fn compact(&mut self) {
        let mut live = 0;
        for stamp in 0..self.next_stamp {
            let id = self.ids[stamp];
            if self.stamp_of.get(&id) == Some(&(stamp as u32)) {
                self.ids[live] = id;
                self.stamp_of.insert(id, live as u32);
                live += 1;
            }
        }
        self.next_stamp = live;
        // Linear-time Fenwick build over `live` ones.
        self.tree.fill(0);
        for i in 1..self.tree.len() {
            if i <= live {
                self.tree[i] += 1;
            }
            let parent = i + (i & i.wrapping_neg());
            if parent < self.tree.len() {
                self.tree[parent] += self.tree[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unique_fraction;
    use proptest::prelude::*;
    use recssd_cache::LruCache;

    /// The straightforward `Vec` LRU stack the generator is defined by:
    /// the same draws, in the same order, with linear-time stack updates.
    struct VecOracle {
        rows: u64,
        unique_prob: f64,
        mean_distance: f64,
        stack: Vec<u64>,
        max_stack: usize,
        rng: Xoshiro256,
    }

    impl VecOracle {
        fn new(
            rows: u64,
            unique_prob: f64,
            mean_distance: f64,
            seed: u64,
            max_stack: usize,
        ) -> Self {
            VecOracle {
                rows,
                unique_prob,
                mean_distance,
                stack: Vec::new(),
                max_stack,
                rng: Xoshiro256::seed_from(seed),
            }
        }

        fn next_id(&mut self) -> u64 {
            let reuse = !self.stack.is_empty() && !self.rng.gen_bool(self.unique_prob);
            if reuse {
                let d = self.rng.next_exp(1.0 / self.mean_distance) as usize % self.stack.len();
                let id = self.stack.remove(d);
                self.stack.insert(0, id);
                return id;
            }
            let id = self.rng.gen_range(0..self.rows);
            if let Some(pos) = self.stack.iter().position(|&x| x == id) {
                self.stack.remove(pos);
            }
            self.stack.insert(0, id);
            self.stack.truncate(self.max_stack);
            id
        }
    }

    /// Asserts the generator and the oracle emit the same `n` ids.
    fn assert_matches_oracle(
        rows: u64,
        unique_prob: f64,
        mean_distance: f64,
        seed: u64,
        max_stack: usize,
        n: usize,
    ) {
        let mut fast =
            LocalityTrace::with_stack_depth(rows, unique_prob, mean_distance, seed, max_stack);
        let mut slow = VecOracle::new(rows, unique_prob, mean_distance, seed, max_stack);
        for i in 0..n {
            assert_eq!(
                fast.next_id(),
                slow.next_id(),
                "id {i} diverged (rows {rows}, p {unique_prob}, mean {mean_distance}, seed {seed}, depth {max_stack})"
            );
        }
        assert_eq!(fast.stack.len(), slow.stack.len());
    }

    #[test]
    fn matches_vec_stack_at_paper_depth() {
        // 120K ids over every K, each with its own seed. Every run passes
        // 32,768 pushes, so its stamps compact; K1 and K2 also fill the
        // 16,384-deep stack and evict from it.
        for (k, seed) in LocalityK::all().into_iter().zip(1..) {
            assert_matches_oracle(
                1_000_000,
                k.unique_prob(),
                LocalityTrace::DEFAULT_MEAN_DISTANCE,
                seed,
                16_384,
                40_000,
            );
        }
    }

    #[test]
    fn compaction_keeps_the_stack_order() {
        // A 4-deep stack has an 8-stamp space, so stamps compact every few
        // pushes: right after a re-reference took the touched id off the
        // stack, and right after a fresh id evicted the oldest.
        let mut stack = LruStack::new(4);
        let mut oracle: Vec<u64> = Vec::new();
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..10_000 {
            let id = if !oracle.is_empty() && rng.gen_bool(0.5) {
                let d = rng.gen_range(0..oracle.len() as u64) as usize;
                let id = oracle.remove(d);
                assert_eq!(stack.take_at(d), id);
                id
            } else {
                let id = rng.gen_range(0..10);
                oracle.retain(|&x| x != id);
                stack.remove(id);
                id
            };
            stack.push_front(id);
            oracle.insert(0, id);
            oracle.truncate(4);
            let by_depth: Vec<u64> = (0..stack.len())
                .map(|d| stack.ids[stack.kth_oldest(stack.len() - d)])
                .collect();
            assert_eq!(by_depth, oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Small stacks compact their stamps every few ids; the sequence
        /// must still be the `Vec` stack's, id for id.
        #[test]
        fn matches_vec_stack_across_compactions(
            rows in 1u64..5_000,
            unique_tenths in 0u32..11,
            mean_distance in 1u32..200,
            seed in 0u64..1_000,
            depth in 1usize..300,
        ) {
            assert_matches_oracle(
                rows,
                unique_tenths as f64 / 10.0,
                mean_distance as f64,
                seed,
                depth,
                5_000,
            );
        }
    }

    #[test]
    fn unique_fractions_match_paper_calibration() {
        // §5: K = 0, 1, 2 → 13 %, 54 %, 72 % unique accesses.
        for (k, want) in [
            (LocalityK::K0, 0.13),
            (LocalityK::K1, 0.54),
            (LocalityK::K2, 0.72),
        ] {
            let mut t = LocalityTrace::with_k(1_000_000, k, 42);
            let ids = t.take_ids(30_000);
            let u = unique_fraction(&ids);
            assert!(
                (u - want).abs() < 0.04,
                "{k}: unique fraction {u} (want ≈{want})"
            );
        }
    }

    #[test]
    fn lru_2k_hit_rates_match_figure_10_baseline() {
        // Fig. 10: "the baseline LRU cache hitrates always follow the
        // inverse of the locality distribution, with 84%, 44%, and 28%".
        for (k, want) in [
            (LocalityK::K0, 0.84),
            (LocalityK::K1, 0.44),
            (LocalityK::K2, 0.28),
        ] {
            let mut t = LocalityTrace::with_k(1_000_000, k, 1);
            let mut cache = LruCache::new(2048);
            for _ in 0..60_000 {
                let id = t.next_id();
                if cache.get(&id).is_none() {
                    cache.insert(id, ());
                }
            }
            let rate = cache.stats().hit_rate();
            assert!(
                (rate - want).abs() < 0.05,
                "{k}: LRU hit rate {rate:.3} (want ≈{want})"
            );
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let mut a = LocalityTrace::with_k(1000, LocalityK::K1, 5);
        let mut b = LocalityTrace::with_k(1000, LocalityK::K1, 5);
        assert_eq!(a.take_ids(500), b.take_ids(500));
        let mut c = LocalityTrace::with_k(1000, LocalityK::K1, 6);
        assert_ne!(a.take_ids(500), c.take_ids(500));
    }

    #[test]
    fn ids_stay_in_range() {
        let rows = 777;
        let mut t = LocalityTrace::with_k(rows, LocalityK::K2, 3);
        assert!(t.take_ids(5_000).iter().all(|&id| id < rows));
        assert_eq!(t.rows(), rows);
    }

    #[test]
    fn zero_unique_prob_reuses_heavily() {
        let mut t = LocalityTrace::new(1_000_000, 0.0, 10.0, 9);
        let ids = t.take_ids(10_000);
        assert!(
            unique_fraction(&ids) < 0.02,
            "all-reuse trace must repeat ids"
        );
    }

    #[test]
    fn full_unique_prob_is_nearly_uniform() {
        let mut t = LocalityTrace::new(u64::MAX, 1.0, 10.0, 9);
        let ids = t.take_ids(10_000);
        assert!(unique_fraction(&ids) > 0.999);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bad_probability_panics() {
        LocalityTrace::new(10, 1.5, 10.0, 0);
    }
}

//! Small shared mechanisms: saturating counters, address hashing, LRU.

use zbp_zarch::{Direction, InstrAddr};

/// A 2-bit saturating direction counter — the BHT/PHT state element.
///
/// States 0 and 1 predict not-taken (strong/weak), 2 and 3 predict taken
/// (weak/strong). "The BHT is a 2-bit saturating counter that indicates
/// the direction and strength" (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwoBit(u8);

impl TwoBit {
    /// Weak not-taken.
    pub const WEAK_NOT_TAKEN: TwoBit = TwoBit(1);
    /// Weak taken.
    pub const WEAK_TAKEN: TwoBit = TwoBit(2);
    /// Strong not-taken.
    pub const STRONG_NOT_TAKEN: TwoBit = TwoBit(0);
    /// Strong taken.
    pub const STRONG_TAKEN: TwoBit = TwoBit(3);

    /// Reconstructs a counter from its direction and strength parts
    /// (the completion write-back path rebuilds predict-time snapshots
    /// this way).
    pub fn from_parts(dir: Direction, weak: bool) -> Self {
        match (dir, weak) {
            (Direction::Taken, true) => TwoBit::WEAK_TAKEN,
            (Direction::Taken, false) => TwoBit::STRONG_TAKEN,
            (Direction::NotTaken, true) => TwoBit::WEAK_NOT_TAKEN,
            (Direction::NotTaken, false) => TwoBit::STRONG_NOT_TAKEN,
        }
    }

    /// Creates a counter biased weakly toward `dir` — the initial state
    /// of a newly installed entry.
    pub fn weak(dir: Direction) -> Self {
        match dir {
            Direction::Taken => TwoBit::WEAK_TAKEN,
            Direction::NotTaken => TwoBit::WEAK_NOT_TAKEN,
        }
    }

    /// The direction this counter currently predicts.
    pub fn direction(self) -> Direction {
        if self.0 >= 2 {
            Direction::Taken
        } else {
            Direction::NotTaken
        }
    }

    /// Whether the counter is in a weak state (next mispredict flips the
    /// predicted direction).
    pub fn is_weak(self) -> bool {
        self.0 == 1 || self.0 == 2
    }

    /// Trains the counter toward the resolved direction.
    pub fn train(&mut self, resolved: Direction) {
        match resolved {
            Direction::Taken => self.0 = (self.0 + 1).min(3),
            Direction::NotTaken => self.0 = self.0.saturating_sub(1),
        }
    }

    /// Forces the counter to the strong state of `dir` (used by the
    /// speculative BHT/PHT assumption that a weak prediction is correct).
    pub fn strengthen(&mut self, dir: Direction) {
        self.0 = match dir {
            Direction::Taken => 3,
            Direction::NotTaken => 0,
        };
    }

    /// The raw 2-bit state.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl Default for TwoBit {
    /// New counters start weak not-taken, matching the static bias of
    /// conditional branches.
    fn default() -> Self {
        TwoBit::WEAK_NOT_TAKEN
    }
}

/// An unsigned saturating counter with a configurable ceiling (TAGE
/// usefulness, perceptron protection limits, trigger counters, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatCounter {
    value: u32,
    max: u32,
}

impl SatCounter {
    /// Creates a counter at zero with the given ceiling.
    pub fn new(max: u32) -> Self {
        SatCounter { value: 0, max }
    }

    /// Creates a counter at a starting value (clamped to the ceiling).
    pub fn at(value: u32, max: u32) -> Self {
        SatCounter { value: value.min(max), max }
    }

    /// Increments, saturating at the ceiling.
    pub fn inc(&mut self) {
        self.value = (self.value + 1).min(self.max);
    }

    /// Decrements, saturating at zero.
    pub fn dec(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// The current value.
    pub fn get(self) -> u32 {
        self.value
    }

    /// The ceiling.
    pub fn max(self) -> u32 {
        self.max
    }

    /// Whether the counter is at zero.
    pub fn is_zero(self) -> bool {
        self.value == 0
    }

    /// Whether the counter has reached the ceiling.
    pub fn is_saturated(self) -> bool {
        self.value == self.max
    }
}

/// A tiny splittable hash for index/tag derivation.
///
/// Hardware uses XOR folds of address bits; we use a cheap multiplicative
/// mix that behaves similarly for our purposes (decorrelating index and
/// tag) while remaining deterministic across runs.
pub fn fold_hash(x: u64) -> u64 {
    // splitmix64 finalizer.
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a table index in `[0, rows)` from an address-like value.
/// Power-of-two row counts use a mask; others use a modulo (some
/// generations have non-power-of-two BTB2 geometries, e.g. 24K).
pub fn index_of(x: u64, rows: usize) -> usize {
    debug_assert!(rows > 0);
    if rows.is_power_of_two() {
        (fold_hash(x) as usize) & (rows - 1)
    } else {
        (fold_hash(x) % rows as u64) as usize
    }
}

/// Derives a partial tag of `bits` bits, decorrelated from the index.
pub fn tag_of(x: u64, bits: u32) -> u32 {
    debug_assert!(bits > 0 && bits <= 32);
    (fold_hash(x.rotate_left(17)) >> 7) as u32 & ((1u32 << (bits - 1)) | ((1u32 << (bits - 1)) - 1))
}

/// The 2-bit "branch GPV" hash of a taken branch's instruction address
/// (paper §V: "select bits of the branch's instruction address are hashed
/// down to a smaller 2-bit vector").
pub fn branch_gpv_bits(addr: InstrAddr) -> u8 {
    let a = addr.raw() >> 1; // drop the always-zero halfword bit
    let folded = a ^ (a >> 2) ^ (a >> 5) ^ (a >> 11) ^ (a >> 19);
    (folded & 0b11) as u8
}

/// True-LRU touch over a flat per-row rank slice (`ranks[w]` is the age
/// of way `w`, 0 = MRU) — the struct-of-arrays counterpart of
/// [`LruRow::touch`], for tables that keep one contiguous rank array
/// across all rows instead of a heap allocation per row.
///
/// ```
/// use zbp_core::util::{lru_touch, lru_victim};
///
/// // Fresh ranks as `Btb1`/`Btb2` initialize them: way 0 is the victim.
/// let mut ranks = [3u8, 2, 1, 0];
/// assert_eq!(lru_victim(&ranks), 0);
/// lru_touch(&mut ranks, 0);
/// assert_eq!(lru_victim(&ranks), 1, "touching way 0 ages way 1 to the front");
/// ```
pub fn lru_touch(ranks: &mut [u8], way: usize) {
    let old = ranks.get(way).copied().expect("way within row");
    for r in ranks.iter_mut() {
        *r += u8::from(*r < old);
    }
    if let Some(r) = ranks.get_mut(way) {
        *r = 0;
    }
}

/// The least recently used way of a flat rank slice (the victim) — the
/// struct-of-arrays counterpart of [`LruRow::lru`].
pub fn lru_victim(ranks: &[u8]) -> usize {
    let mut best = 0;
    let mut best_rank = ranks.first().copied().unwrap_or(0);
    for (w, &r) in ranks.iter().enumerate().skip(1) {
        if r > best_rank {
            best = w;
            best_rank = r;
        }
    }
    best
}

/// Initial LRU ranks for one row of `ways` ways, way 0 LRU-most (so
/// fills proceed way 0, 1, 2, … exactly like [`LruRow::new`]).
pub fn lru_fresh_ranks(ways: usize) -> impl Iterator<Item = u8> {
    debug_assert!((1..=64).contains(&ways));
    (0..ways).map(move |w| (ways - 1 - w) as u8)
}

/// Initial LRU ranks for a flat table of `rows` rows of `ways` ways:
/// [`lru_fresh_ranks`] repeated once per row.
///
/// ```
/// use zbp_core::util::lru_fresh_table;
///
/// assert_eq!(lru_fresh_table(2, 3), [2, 1, 0, 2, 1, 0]);
/// ```
pub fn lru_fresh_table(rows: usize, ways: usize) -> Vec<u8> {
    lru_fresh_ranks(ways).collect::<Vec<u8>>().repeat(rows)
}

/// Per-row true-LRU tracking for a set-associative structure.
///
/// `ranks[w]` is the age of way `w`: 0 = most recently used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruRow {
    ranks: Vec<u8>,
}

impl LruRow {
    /// Creates LRU state for `ways` ways, with way 0 initially LRU-most
    /// (so fills proceed way 0, 1, 2, …).
    pub fn new(ways: usize) -> Self {
        debug_assert!((1..=64).contains(&ways));
        // Way 0 gets the highest rank so it is victimized first.
        LruRow { ranks: (0..ways).map(|w| (ways - 1 - w) as u8).collect() }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.ranks.len()
    }

    /// Marks `way` most recently used.
    pub fn touch(&mut self, way: usize) {
        let old = self.ranks.get(way).copied().expect("way within row");
        for r in &mut self.ranks {
            if *r < old {
                *r += 1;
            }
        }
        if let Some(r) = self.ranks.get_mut(way) {
            *r = 0;
        }
    }

    /// The least recently used way (the victim).
    pub fn lru(&self) -> usize {
        let mut best = 0;
        let mut best_rank = self.ranks.first().copied().unwrap_or(0);
        for (w, &r) in self.ranks.iter().enumerate().skip(1) {
            if r > best_rank {
                best = w;
                best_rank = r;
            }
        }
        best
    }

    /// The age rank of `way` (0 = MRU).
    pub fn rank(&self, way: usize) -> u8 {
        self.ranks.get(way).copied().expect("way within row")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_trains_and_saturates() {
        let mut c = TwoBit::default();
        assert_eq!(c.direction(), Direction::NotTaken);
        assert!(c.is_weak());
        c.train(Direction::Taken); // 1 -> 2
        assert_eq!(c.direction(), Direction::Taken);
        assert!(c.is_weak());
        c.train(Direction::Taken); // 2 -> 3
        assert!(!c.is_weak());
        c.train(Direction::Taken); // saturate at 3
        assert_eq!(c.raw(), 3);
        c.train(Direction::NotTaken);
        c.train(Direction::NotTaken);
        c.train(Direction::NotTaken);
        c.train(Direction::NotTaken); // saturate at 0
        assert_eq!(c.raw(), 0);
        assert_eq!(c.direction(), Direction::NotTaken);
    }

    #[test]
    fn two_bit_weak_construction_and_strengthen() {
        let mut c = TwoBit::weak(Direction::Taken);
        assert_eq!(c, TwoBit::WEAK_TAKEN);
        c.strengthen(Direction::Taken);
        assert_eq!(c, TwoBit::STRONG_TAKEN);
        c.strengthen(Direction::NotTaken);
        assert_eq!(c, TwoBit::STRONG_NOT_TAKEN);
        assert_eq!(TwoBit::weak(Direction::NotTaken), TwoBit::WEAK_NOT_TAKEN);
    }

    #[test]
    fn sat_counter_bounds() {
        let mut c = SatCounter::new(3);
        assert!(c.is_zero());
        c.dec();
        assert_eq!(c.get(), 0);
        for _ in 0..10 {
            c.inc();
        }
        assert_eq!(c.get(), 3);
        assert!(c.is_saturated());
        c.dec();
        assert_eq!(c.get(), 2);
        c.reset();
        assert!(c.is_zero());
        assert_eq!(SatCounter::at(9, 4).get(), 4, "start clamps to ceiling");
        assert_eq!(c.max(), 3);
    }

    #[test]
    fn index_and_tag_are_stable_and_bounded() {
        for x in [0u64, 1, 0x1000, u64::MAX, 0xdead_beef] {
            let i = index_of(x, 2048);
            assert!(i < 2048);
            assert_eq!(i, index_of(x, 2048), "deterministic");
            let t = tag_of(x, 14);
            assert!(t < (1 << 14));
            assert_eq!(t, tag_of(x, 14));
        }
    }

    #[test]
    fn index_differs_from_tag_usually() {
        // Not a strict requirement, but the whole point of decorrelation:
        // addresses mapping to the same index should usually have
        // different tags.
        let rows = 64;
        let a = 0x1000u64;
        let mut same = 0;
        let mut cnt = 0;
        for k in 1..2000u64 {
            let b = a + k * rows as u64 * 64;
            if index_of(a, rows) == index_of(b, rows) {
                cnt += 1;
                if tag_of(a, 14) == tag_of(b, 14) {
                    same += 1;
                }
            }
        }
        assert!(cnt > 0, "need index collisions to test");
        assert!(same * 10 < cnt.max(10), "tags should rarely collide: {same}/{cnt}");
    }

    #[test]
    fn branch_gpv_bits_are_two_bits_and_address_sensitive() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..64u64 {
            let b = branch_gpv_bits(InstrAddr::new(0x4000 + k * 2));
            assert!(b < 4);
            seen.insert(b);
        }
        assert_eq!(seen.len(), 4, "all four 2-bit values occur across addresses");
    }

    #[test]
    fn lru_tracks_recency() {
        let mut l = LruRow::new(4);
        assert_eq!(l.ways(), 4);
        // Initially way 0 is the victim (fill order 0,1,2,3).
        assert_eq!(l.lru(), 0);
        l.touch(0);
        assert_eq!(l.lru(), 1);
        l.touch(1);
        l.touch(2);
        l.touch(3);
        assert_eq!(l.lru(), 0, "0 is oldest after touching the rest");
        l.touch(0);
        assert_eq!(l.lru(), 1);
        assert_eq!(l.rank(0), 0);
    }

    #[test]
    fn lru_single_way() {
        let mut l = LruRow::new(1);
        assert_eq!(l.lru(), 0);
        l.touch(0);
        assert_eq!(l.lru(), 0);
    }

    #[test]
    fn flat_lru_mirrors_lru_row() {
        // The struct-of-arrays tables rely on the flat helpers being
        // exactly LruRow: drive both with the same touch sequence and
        // compare victim and ranks at every step.
        for ways in [1usize, 2, 3, 4, 8, 16] {
            let mut row = LruRow::new(ways);
            let mut flat: Vec<u8> = lru_fresh_ranks(ways).collect();
            assert_eq!(lru_victim(&flat), row.lru(), "fresh victim, {ways} ways");
            let mut x = 0x1234_5678u64;
            for _ in 0..256 {
                // Deterministic pseudo-random touch sequence.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let w = (x >> 33) as usize % ways;
                row.touch(w);
                lru_touch(&mut flat, w);
                assert_eq!(lru_victim(&flat), row.lru());
                for (k, &r) in flat.iter().enumerate() {
                    assert_eq!(r, row.rank(k));
                }
            }
        }
    }
}

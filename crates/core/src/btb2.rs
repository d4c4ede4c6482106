//! The second-level branch target buffer (BTB2) with its staging queue
//! and search-trigger logic.
//!
//! "The BTB2 is used to backfill the main structure and is only accessed
//! when content is thought to be missing from the BTB1. … The prior and
//! current designs assume content is missing when three qualified
//! successive BTB1 search attempts result in no predictions being made.
//! The z15 design will additionally proactively fire up and search the
//! BTB2 when an unusual number of non-predicted disruptive branches are
//! found in the main pipeline within a given time period. Additionally,
//! certain context changing events will trigger proactive BTB2 searches."
//! (paper §III)
//!
//! # Example
//!
//! A search stages *copies* of its hits toward the BTB1's write port;
//! under the z15 semi-inclusive policy the BTB2 keeps its own copy:
//!
//! ```
//! use zbp_core::btb::BtbEntry;
//! use zbp_core::btb2::{Btb2, SearchReason};
//! use zbp_core::config::z15_config;
//! use zbp_zarch::{InstrAddr, Mnemonic};
//!
//! let cfg = z15_config();
//! let mut b2 = Btb2::new(cfg.btb2.as_ref().unwrap(), cfg.btb1.search_bytes);
//! let entry = BtbEntry::install(
//!     InstrAddr::new(0x1004), Mnemonic::Brc, InstrAddr::new(0x2000),
//!     true, cfg.btb1.search_bytes, cfg.btb1.tag_bits);
//! b2.fill(entry);
//! let staged = b2.search(InstrAddr::new(0x1000), SearchReason::SuccessiveMisses);
//! assert_eq!(staged, 1);
//! assert_eq!(b2.pop_staged().unwrap().branch_addr, InstrAddr::new(0x1004));
//! assert!(b2.contains(&entry), "staging copies; the BTB2 copy remains");
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::btb::BtbEntry;
use crate::config::{Btb2Config, InclusionPolicy};
use crate::util::{index_of, lru_fresh_table, lru_touch, lru_victim};
use std::collections::VecDeque;
use zbp_zarch::InstrAddr;

/// Why a BTB2 search fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchReason {
    /// Three qualified successive BTB1 no-prediction searches.
    SuccessiveMisses,
    /// A burst of non-predicted disruptive (surprise) branches.
    DisruptiveBurst,
    /// A context-changing event proactively priming the new context.
    ContextChange,
}

/// Statistics the BTB2 keeps about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Btb2Stats {
    /// Searches fired, by any reason.
    pub searches: u64,
    /// Searches fired by the successive-miss trigger.
    pub searches_successive: u64,
    /// Searches fired by the disruptive-burst trigger.
    pub searches_burst: u64,
    /// Searches fired by context-change priming.
    pub searches_context: u64,
    /// Entries found by searches and pushed toward the staging queue.
    pub hits_staged: u64,
    /// Entries dropped because the staging queue was full.
    pub staging_overflow: u64,
    /// Entries written back by the periodic refresh mechanism.
    pub refresh_writebacks: u64,
    /// Entries invalidated on promotion (semi-exclusive mode).
    pub exclusive_invalidates: u64,
}

/// Rows per storage block: the unit in which row storage is allocated.
const BLOCK_ROWS: usize = 4;

/// Block-table value of a block whose rows were never written.
const UNALLOCATED: u32 = u32::MAX;

/// The BTB2 structure plus its staging queue toward the BTB1.
///
/// Row storage is paged: rows are grouped into blocks of four, and a
/// block gets storage (its entry slots and fresh LRU ranks) the first
/// time [`fill`](Btb2::fill) or [`refresh`](Btb2::refresh) writes one
/// of its rows. A block table maps each block to its place in a dense
/// arena: one entry array (slot = (arena block × 4 + row in block) ×
/// ways + way) and one LRU byte array. A row whose block has no
/// storage reads as empty, exactly like a written-but-empty row, so a
/// session only pays for the part of the 128K-entry backing store its
/// footprint reaches.
#[derive(Debug, Clone)]
pub struct Btb2 {
    /// Arena block per block of `BLOCK_ROWS` rows, or `UNALLOCATED`.
    blocks: Vec<u32>,
    /// Entry payload per arena slot, blocks in allocation order.
    entries: Vec<Option<BtbEntry>>,
    /// LRU age per arena slot (0 = MRU within its row).
    lru: Vec<u8>,
    nrows: usize,
    cfg: Btb2Config,
    line_bytes: u64,
    /// `log2(line_bytes)` — line numbers derive by shift, not division.
    line_shift: u32,
    staging: VecDeque<BtbEntry>,
    /// Successive qualified BTB1 no-prediction searches.
    miss_streak: u32,
    /// Sliding completion-window burst detector.
    burst_events: VecDeque<u64>,
    completion_tick: u64,
    /// No-hit search counter for the periodic refresh.
    refresh_counter: u32,
    /// Statistics.
    pub stats: Btb2Stats,
}

impl Btb2 {
    /// Builds an empty BTB2. `line_bytes` is the BTB1 line granularity
    /// (entries keep their BTB1-format tags/offsets on transfer). No row
    /// storage is allocated until the first write.
    pub fn new(cfg: &Btb2Config, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two(), "line granularity must be a power of two");
        let nblocks = cfg.rows.div_ceil(BLOCK_ROWS);
        assert!(nblocks < UNALLOCATED as usize, "BTB2 too large for its block table");
        Btb2 {
            blocks: vec![UNALLOCATED; nblocks],
            entries: Vec::new(),
            lru: Vec::new(),
            nrows: cfg.rows,
            cfg: cfg.clone(),
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            staging: VecDeque::new(),
            miss_streak: 0,
            burst_events: VecDeque::new(),
            completion_tick: 0,
            refresh_counter: 0,
            stats: Btb2Stats::default(),
        }
    }

    /// The inclusion policy in force.
    pub fn inclusion(&self) -> InclusionPolicy {
        self.cfg.inclusion
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Rows backed by storage: every row of each block written so far
    /// (verification and memory accounting; a fresh BTB2 has none).
    pub fn allocated_rows(&self) -> usize {
        self.lru.len() / self.cfg.ways
    }

    fn row_index(&self, addr: InstrAddr) -> usize {
        let line = addr.raw() & !(self.line_bytes - 1);
        index_of(line >> self.line_shift, self.nrows)
    }

    /// First arena slot of `row`, or `None` while its block has no
    /// storage (the row reads as empty).
    fn row_base(&self, row: usize) -> Option<usize> {
        let block = self.blocks[row / BLOCK_ROWS];
        (block != UNALLOCATED)
            .then(|| (block as usize * BLOCK_ROWS + row % BLOCK_ROWS) * self.cfg.ways)
    }

    /// First arena slot of `row`, giving its block storage (empty
    /// slots, fresh LRU ranks) on the first write.
    fn row_base_mut(&mut self, row: usize) -> usize {
        let ways = self.cfg.ways;
        let block = &mut self.blocks[row / BLOCK_ROWS];
        if *block == UNALLOCATED {
            *block = (self.lru.len() / (BLOCK_ROWS * ways)) as u32;
            self.entries.resize(self.entries.len() + BLOCK_ROWS * ways, None);
            self.lru.extend_from_slice(&lru_fresh_table(BLOCK_ROWS, ways));
        }
        (*block as usize * BLOCK_ROWS + row % BLOCK_ROWS) * ways
    }

    /// Writes an entry into the BTB2 (fill from a BTB1 victim, a
    /// periodic refresh, or an initial preload). Duplicates (same
    /// tag/offset in the row) are overwritten in place.
    pub fn fill(&mut self, entry: BtbEntry) {
        let ways = self.cfg.ways;
        let base = self.row_base_mut(self.row_index(entry.branch_addr));
        let row = &mut self.entries[base..base + ways];
        for (w, e) in row.iter_mut().enumerate() {
            if let Some(existing) = e {
                if existing.matches(entry.tag, entry.offset_hw) {
                    *existing = entry;
                    lru_touch(&mut self.lru[base..base + ways], w);
                    return;
                }
            }
        }
        let way = row
            .iter()
            .position(|e| e.is_none())
            .unwrap_or_else(|| lru_victim(&self.lru[base..base + ways]));
        row[way] = Some(entry);
        lru_touch(&mut self.lru[base..base + ways], way);
    }

    /// Records a periodic-refresh writeback (semi-inclusive mode).
    pub fn refresh(&mut self, entry: BtbEntry) {
        self.stats.refresh_writebacks += 1;
        self.fill(entry);
    }

    /// Removes the entry matching `entry`'s slot (semi-exclusive
    /// promotion to BTB1). Returns whether anything was removed.
    pub fn invalidate(&mut self, entry: &BtbEntry) -> bool {
        let ways = self.cfg.ways;
        let Some(base) = self.row_base(self.row_index(entry.branch_addr)) else {
            return false;
        };
        for e in self.entries[base..base + ways].iter_mut() {
            if let Some(v) = e {
                if v.matches(entry.tag, entry.offset_hw) {
                    *e = None;
                    self.stats.exclusive_invalidates += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Reports one qualified BTB1 search result to the trigger logic.
    /// Returns `Some(reason)` if a BTB2 search should fire at the search
    /// address.
    pub fn note_btb1_search(&mut self, predicted_anything: bool) -> Option<SearchReason> {
        if predicted_anything {
            self.miss_streak = 0;
            return None;
        }
        self.miss_streak += 1;
        // Periodic-refresh accounting also rides on no-hit searches.
        if self.cfg.inclusion == InclusionPolicy::SemiInclusive && self.cfg.refresh_threshold > 0 {
            self.refresh_counter += 1;
        }
        if self.miss_streak >= self.cfg.miss_trigger {
            self.miss_streak = 0;
            return Some(SearchReason::SuccessiveMisses);
        }
        None
    }

    /// Whether the periodic-refresh threshold has been reached; if so,
    /// resets the counter and returns true (the caller writes back the
    /// LRU entry of the no-hit row).
    pub fn take_refresh_due(&mut self) -> bool {
        if self.cfg.refresh_threshold > 0 && self.refresh_counter >= self.cfg.refresh_threshold {
            self.refresh_counter = 0;
            true
        } else {
            false
        }
    }

    /// Reports a completed non-predicted disruptive branch (a surprise
    /// branch that redirected the pipeline). Returns `Some` if the burst
    /// trigger fires.
    pub fn note_disruptive_branch(&mut self) -> Option<SearchReason> {
        self.completion_tick += 1;
        self.burst_events.push_back(self.completion_tick);
        let horizon = self.completion_tick.saturating_sub(u64::from(self.cfg.burst_window));
        while self.burst_events.front().is_some_and(|&t| t <= horizon) {
            self.burst_events.pop_front();
        }
        if self.burst_events.len() as u32 >= self.cfg.burst_trigger {
            self.burst_events.clear();
            return Some(SearchReason::DisruptiveBurst);
        }
        None
    }

    /// Reports a completed *predicted* branch, advancing the burst
    /// window clock.
    pub fn note_quiet_completion(&mut self) {
        self.completion_tick += 1;
    }

    /// Performs a BTB2 search: reads [`Btb2Config::search_lines`]
    /// consecutive lines starting at `addr`'s line and pushes every hit
    /// into the staging queue (up to its capacity). Returns how many
    /// entries were staged.
    pub fn search(&mut self, addr: InstrAddr, reason: SearchReason) -> usize {
        self.stats.searches += 1;
        match reason {
            SearchReason::SuccessiveMisses => self.stats.searches_successive += 1,
            SearchReason::DisruptiveBurst => self.stats.searches_burst += 1,
            SearchReason::ContextChange => self.stats.searches_context += 1,
        }
        let mut staged = 0;
        let ways = self.cfg.ways;
        let start_line = addr.raw() & !(self.line_bytes - 1);
        let mut hit_ways = Vec::new();
        for l in 0..self.cfg.search_lines as u64 {
            let line_addr = InstrAddr::new(start_line + l * self.line_bytes);
            let Some(base) = self.row_base(self.row_index(line_addr)) else {
                continue;
            };
            // Collect hits first, then touch LRU.
            hit_ways.clear();
            for (w, e) in self.entries[base..base + ways].iter().enumerate() {
                if let Some(e) = e {
                    // A row holds entries from many lines (aliasing);
                    // qualify by true line in the model.
                    let eline = e.branch_addr.raw() & !(self.line_bytes - 1);
                    if eline == line_addr.raw() {
                        hit_ways.push((w, *e));
                    }
                }
            }
            for &(w, e) in &hit_ways {
                lru_touch(&mut self.lru[base..base + ways], w);
                if self.staging.len() < self.cfg.staging_capacity {
                    self.staging.push_back(e);
                    staged += 1;
                    self.stats.hits_staged += 1;
                } else {
                    self.stats.staging_overflow += 1;
                }
            }
        }
        staged
    }

    /// Pops the next staged entry headed for the BTB1 write port.
    pub fn pop_staged(&mut self) -> Option<BtbEntry> {
        self.staging.pop_front()
    }

    /// Number of entries waiting in the staging queue.
    pub fn staged_len(&self) -> usize {
        self.staging.len()
    }

    /// Iterates over all valid entries in slot order: by row, then way
    /// (verification use).
    pub fn iter(&self) -> impl Iterator<Item = &BtbEntry> {
        let span = BLOCK_ROWS * self.cfg.ways;
        self.blocks
            .iter()
            .filter(|&&block| block != UNALLOCATED)
            .flat_map(move |&block| self.entries[block as usize * span..][..span].iter().flatten())
    }

    /// Whether an entry for this exact slot exists (verification use).
    pub fn contains(&self, entry: &BtbEntry) -> bool {
        let ways = self.cfg.ways;
        let Some(base) = self.row_base(self.row_index(entry.branch_addr)) else {
            return false;
        };
        self.entries[base..base + ways]
            .iter()
            .flatten()
            .any(|e| e.matches(entry.tag, entry.offset_hw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{z13_config, z15_config, zec12_config};
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use zbp_zarch::Mnemonic;

    fn btb2() -> Btb2 {
        let c = z15_config();
        Btb2::new(c.btb2.as_ref().unwrap(), c.btb1.search_bytes)
    }

    fn entry(addr: u64) -> BtbEntry {
        BtbEntry::install(
            InstrAddr::new(addr),
            Mnemonic::Brc,
            InstrAddr::new(addr + 0x100),
            true,
            64,
            14,
        )
    }

    #[test]
    fn successive_miss_trigger_fires_on_third() {
        let mut b = btb2();
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), Some(SearchReason::SuccessiveMisses));
        // Streak resets after firing.
        assert_eq!(b.note_btb1_search(false), None);
    }

    #[test]
    fn hit_resets_miss_streak() {
        let mut b = btb2();
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(true), None);
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), Some(SearchReason::SuccessiveMisses));
    }

    #[test]
    fn burst_trigger_needs_density() {
        let mut b = btb2();
        // 4 disruptive branches inside a 64-completion window fire.
        assert_eq!(b.note_disruptive_branch(), None);
        assert_eq!(b.note_disruptive_branch(), None);
        assert_eq!(b.note_disruptive_branch(), None);
        assert_eq!(b.note_disruptive_branch(), Some(SearchReason::DisruptiveBurst));
        // Spread over > window completions, they do not.
        for _ in 0..3 {
            assert_eq!(b.note_disruptive_branch(), None);
            for _ in 0..70 {
                b.note_quiet_completion();
            }
        }
    }

    #[test]
    fn search_stages_hits_in_covered_lines() {
        let mut b = btb2();
        // Entries across several consecutive lines from 0x10000.
        for l in 0..10u64 {
            b.fill(entry(0x10004 + l * 64));
        }
        // And one far away that must not be staged.
        b.fill(entry(0x9_0000));
        let staged = b.search(InstrAddr::new(0x10000), SearchReason::SuccessiveMisses);
        assert_eq!(staged, 10);
        assert_eq!(b.staged_len(), 10);
        assert_eq!(b.stats.searches, 1);
        assert_eq!(b.stats.hits_staged, 10);
        let mut n = 0;
        while b.pop_staged().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn staging_queue_bounds_transfers() {
        let c = z15_config();
        let mut cfg = c.btb2.clone().unwrap();
        cfg.staging_capacity = 4;
        let mut b = Btb2::new(&cfg, 64);
        for l in 0..8u64 {
            b.fill(entry(0x10004 + l * 64));
        }
        let staged = b.search(InstrAddr::new(0x10000), SearchReason::ContextChange);
        assert_eq!(staged, 4, "staging queue caps transfers");
        assert_eq!(b.stats.staging_overflow, 4);
    }

    #[test]
    fn fill_overwrites_same_slot() {
        let mut b = btb2();
        b.fill(entry(0x10004));
        let mut e2 = entry(0x10004);
        e2.target = InstrAddr::new(0xdead);
        b.fill(e2);
        assert_eq!(b.occupancy(), 1);
        assert!(b.contains(&e2));
    }

    #[test]
    fn invalidate_removes_promoted_entry() {
        let mut b = btb2();
        let e = entry(0x10004);
        b.fill(e);
        assert!(b.invalidate(&e));
        assert!(!b.contains(&e));
        assert!(!b.invalidate(&e), "second invalidate is a no-op");
        assert_eq!(b.stats.exclusive_invalidates, 1);
    }

    #[test]
    fn refresh_counts_and_fills() {
        let mut b = btb2();
        b.refresh(entry(0x10004));
        assert_eq!(b.stats.refresh_writebacks, 1);
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn refresh_due_after_threshold_no_hit_searches() {
        let mut b = btb2(); // threshold 4, semi-inclusive
        for _ in 0..3 {
            b.note_btb1_search(false);
            assert!(!b.take_refresh_due());
        }
        b.note_btb1_search(false);
        assert!(b.take_refresh_due());
        assert!(!b.take_refresh_due(), "counter resets");
    }

    #[test]
    fn search_reason_stats_attribution() {
        let mut b = btb2();
        b.search(InstrAddr::new(0x1000), SearchReason::SuccessiveMisses);
        b.search(InstrAddr::new(0x1000), SearchReason::DisruptiveBurst);
        b.search(InstrAddr::new(0x1000), SearchReason::ContextChange);
        assert_eq!(b.stats.searches, 3);
        assert_eq!(b.stats.searches_successive, 1);
        assert_eq!(b.stats.searches_burst, 1);
        assert_eq!(b.stats.searches_context, 1);
    }

    #[test]
    fn fresh_btb2_allocates_no_rows() {
        let b = btb2();
        assert_eq!(b.allocated_rows(), 0);
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn first_write_allocates_one_block() {
        let mut b = btb2();
        b.fill(entry(0x10004));
        assert_eq!(b.allocated_rows(), BLOCK_ROWS);
        b.fill(entry(0x10008));
        assert_eq!(b.allocated_rows(), BLOCK_ROWS, "same row, same block");
        b.refresh(entry(0x9_0004));
        assert_eq!(b.allocated_rows(), 2 * BLOCK_ROWS, "a refresh writes too");
    }

    #[test]
    fn reads_of_never_written_rows_stage_and_allocate_nothing() {
        let mut b = btb2();
        let far = entry(0x7_0004);
        for l in 0..64u64 {
            let reason = SearchReason::SuccessiveMisses;
            assert_eq!(b.search(InstrAddr::new(0x40_0000 + l * 64 * 32), reason), 0);
        }
        assert!(!b.contains(&far));
        assert!(!b.invalidate(&far));
        assert_eq!(b.allocated_rows(), 0);
        assert_eq!(b.stats.searches, 64);
        assert_eq!(b.stats.hits_staged, 0);
        assert_eq!(b.stats.exclusive_invalidates, 0);
    }

    /// One BTB2 geometry under test plus branch addresses whose rows
    /// sit at the ends of the table and on both sides of a block
    /// boundary (several lines per row, so rows overflow their ways).
    struct Geometry {
        cfg: Btb2Config,
        line_bytes: u64,
        tag_bits: u32,
        addrs: Vec<u64>,
    }

    fn geometries() -> &'static [Geometry] {
        static GEOMETRIES: OnceLock<Vec<Geometry>> = OnceLock::new();
        GEOMETRIES.get_or_init(|| {
            let preset = |c: crate::config::PredictorConfig| {
                (c.btb2.clone().expect("preset has a BTB2"), c.btb1.search_bytes, c.btb1.tag_bits)
            };
            // A row count the block size does not divide: the last
            // block is partial.
            let (mut odd, line, tag) = preset(z15_config());
            odd.rows = 250 * BLOCK_ROWS + 3;
            odd.staging_capacity = 3;
            [preset(z15_config()), preset(z13_config()), preset(zec12_config()), (odd, line, tag)]
                .into_iter()
                .map(|(cfg, line_bytes, tag_bits)| {
                    let rows = cfg.rows;
                    let mid = rows / BLOCK_ROWS / 2 * BLOCK_ROWS;
                    let last = (rows - 1) / BLOCK_ROWS * BLOCK_ROWS;
                    let wanted = [0, 1, mid - 1, mid, last, rows - 1];
                    let mut per_row = vec![0usize; wanted.len()];
                    let mut addrs = Vec::new();
                    let mut line = 0x1000u64;
                    while per_row.iter().any(|&n| n < 6) {
                        let row = index_of(line, rows);
                        if let Some(i) = wanted.iter().position(|&r| r == row) {
                            if per_row[i] < 6 {
                                per_row[i] += 1;
                                addrs.extend([4, 10, 30].map(|off| line * line_bytes + off));
                            }
                        }
                        line += 1;
                    }
                    Geometry { cfg, line_bytes, tag_bits, addrs }
                })
                .collect()
        })
    }

    /// Reference model: every row backed from the start in one flat
    /// slot array (slot = row × ways + way), as before storage was paged.
    struct FlatRows {
        entries: Vec<Option<BtbEntry>>,
        lru: Vec<u8>,
        ways: usize,
        rows: usize,
        line_bytes: u64,
    }

    impl FlatRows {
        fn new(cfg: &Btb2Config, line_bytes: u64) -> Self {
            FlatRows {
                entries: vec![None; cfg.rows * cfg.ways],
                lru: lru_fresh_table(cfg.rows, cfg.ways),
                ways: cfg.ways,
                rows: cfg.rows,
                line_bytes,
            }
        }

        fn base(&self, addr: u64) -> usize {
            index_of(addr / self.line_bytes, self.rows) * self.ways
        }

        fn fill(&mut self, e: BtbEntry) {
            let (base, ways) = (self.base(e.branch_addr.raw()), self.ways);
            let row = &mut self.entries[base..base + ways];
            let way = row
                .iter()
                .position(|x| x.is_some_and(|x| x.matches(e.tag, e.offset_hw)))
                .or_else(|| row.iter().position(Option::is_none))
                .unwrap_or_else(|| lru_victim(&self.lru[base..base + ways]));
            row[way] = Some(e);
            lru_touch(&mut self.lru[base..base + ways], way);
        }

        fn contains(&self, e: &BtbEntry) -> bool {
            let base = self.base(e.branch_addr.raw());
            self.entries[base..base + self.ways]
                .iter()
                .any(|x| x.is_some_and(|x| x.matches(e.tag, e.offset_hw)))
        }

        fn invalidate(&mut self, e: &BtbEntry) -> bool {
            let base = self.base(e.branch_addr.raw());
            let row = &mut self.entries[base..base + self.ways];
            match row.iter().position(|x| x.is_some_and(|x| x.matches(e.tag, e.offset_hw))) {
                Some(w) => {
                    row[w] = None;
                    true
                }
                None => false,
            }
        }

        /// Every hit of a `lines`-line search, in staging order.
        fn search(&mut self, addr: u64, lines: usize) -> Vec<BtbEntry> {
            let start = addr / self.line_bytes;
            let mut hits = Vec::new();
            for line in start..start + lines as u64 {
                let base = index_of(line, self.rows) * self.ways;
                for w in 0..self.ways {
                    if let Some(e) = self.entries[base + w] {
                        if e.branch_addr.raw() / self.line_bytes == line {
                            hits.push(e);
                            lru_touch(&mut self.lru[base..base + self.ways], w);
                        }
                    }
                }
            }
            hits
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn paged_rows_match_a_flat_row_array(
            geometry in 0usize..4,
            ops in prop::collection::vec((0u8..4, any::<usize>(), 0u64..40, any::<bool>()), 1..160)
        ) {
            let g = &geometries()[geometry];
            let mut paged = Btb2::new(&g.cfg, g.line_bytes);
            let mut flat = FlatRows::new(&g.cfg, g.line_bytes);
            for (op, pick, shift, alt) in ops {
                let addr = g.addrs[pick % g.addrs.len()];
                let target = if alt { addr + 0x400 } else { addr + 0x100 };
                let e = BtbEntry::install(
                    InstrAddr::new(addr),
                    Mnemonic::Brc,
                    InstrAddr::new(target),
                    true,
                    g.line_bytes,
                    g.tag_bits,
                );
                match op {
                    0 => {
                        paged.fill(e);
                        flat.fill(e);
                    }
                    1 => {
                        paged.refresh(e);
                        flat.fill(e);
                    }
                    2 => prop_assert_eq!(paged.invalidate(&e), flat.invalidate(&e)),
                    _ => {
                        // Start up to a full search width before the
                        // picked line, so a search spans several rows.
                        let back = shift % g.cfg.search_lines as u64 * g.line_bytes;
                        let start = addr.saturating_sub(back);
                        let hits = flat.search(start, g.cfg.search_lines);
                        let staged =
                            paged.search(InstrAddr::new(start), SearchReason::SuccessiveMisses);
                        prop_assert_eq!(staged, hits.len().min(g.cfg.staging_capacity));
                        let popped: Vec<BtbEntry> =
                            std::iter::from_fn(|| paged.pop_staged()).collect();
                        prop_assert_eq!(&popped[..], &hits[..staged]);
                    }
                }
                prop_assert_eq!(paged.contains(&e), flat.contains(&e));
            }
            prop_assert!(paged.iter().copied().eq(flat.entries.iter().flatten().copied()));
            prop_assert_eq!(paged.occupancy(), flat.entries.iter().flatten().count());
        }
    }
}

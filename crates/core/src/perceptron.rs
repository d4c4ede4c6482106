//! The perceptron auxiliary direction predictor with virtualized
//! weights.
//!
//! "Since the perceptron's focus is on hard to predict branches, only 32
//! perceptron entries are employed, implemented as a 16 row by 2 way set
//! associative structure … Each weight corresponds to a bit in the GPV.
//! … A process called virtualization is used to reduce the amount of
//! storage required; 2:1 virtualization permits 34 GPVs to map to 17
//! weights." (paper §V, patents \[13\]\[14\])

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::config::PerceptronConfig;
use crate::gpv::Gpv;
use crate::util::{index_of, tag_of, SatCounter};
use zbp_zarch::{Direction, InstrAddr};

/// A hit in the perceptron table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronHit {
    /// Row of the hit.
    pub row: usize,
    /// Way of the hit.
    pub way: usize,
    /// The direction the weight sum produces.
    pub dir: Direction,
    /// Whether the entry's usefulness has crossed the provider
    /// threshold ("the perceptron becomes the provider").
    pub useful: bool,
    /// The raw weight sum (diagnostics).
    pub sum: i32,
}

/// Statistics for the perceptron.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerceptronStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that hit an entry.
    pub hits: u64,
    /// Training invocations.
    pub trains: u64,
    /// Trainings skipped by the θ confidence gate.
    pub theta_skips: u64,
    /// New entries installed.
    pub installs: u64,
    /// Install attempts blocked by protection limits.
    pub install_blocked: u64,
    /// Entries whose usefulness crossed the provider threshold.
    pub promotions: u64,
    /// Virtualization events (weight re-assigned to its alternate GPV
    /// bit).
    pub virtualizations: u64,
}

/// Per-entry control state (everything except the weight/selector
/// arrays, which live flat in the table — see [`Perceptron`]).
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u32,
    usefulness: SatCounter,
    protection: SatCounter,
    /// Completions since the last virtualization sweep.
    since_sweep: u32,
    /// Whether the promotion statistic has fired for this entry.
    promoted: bool,
}

/// The perceptron table.
///
/// Storage is struct-of-arrays: entry control state sits in one flat
/// slot array (slot = row × ways + way) and every entry's weight and
/// selector vectors live in two flat parallel arrays at
/// `slot × weights ..`, so a lookup walks one contiguous stripe instead
/// of chasing two heap `Vec`s per entry (see `PERFORMANCE.md`).
#[derive(Debug, Clone)]
pub struct Perceptron {
    entries: Vec<Option<Entry>>,
    /// Weight vectors, flat: entry `slot` owns `[slot*weights, (slot+1)*weights)`.
    weights: Vec<i32>,
    /// Per-weight virtualization selectors, parallel to `weights`.
    selectors: Vec<u8>,
    cfg: PerceptronConfig,
    /// Statistics.
    pub stats: PerceptronStats,
}

impl Perceptron {
    /// Builds an empty perceptron table.
    pub fn new(cfg: &PerceptronConfig) -> Self {
        let slots = cfg.rows * cfg.ways;
        Perceptron {
            entries: vec![None; slots],
            weights: vec![0; slots * cfg.weights],
            selectors: vec![0; slots * cfg.weights],
            cfg: cfg.clone(),
            stats: PerceptronStats::default(),
        }
    }

    /// The weight/selector stripe of `slot`.
    fn stripe(&self, slot: usize) -> (&[i32], &[u8]) {
        let n = self.cfg.weights;
        (&self.weights[slot * n..(slot + 1) * n], &self.selectors[slot * n..(slot + 1) * n])
    }

    fn row_of(&self, addr: InstrAddr) -> usize {
        index_of(addr.raw() >> 1, self.cfg.rows)
    }

    fn tag_for(&self, addr: InstrAddr) -> u32 {
        tag_of(addr.raw() >> 1, 12)
    }

    /// Looks up the branch at `addr` and computes the weight-sum
    /// prediction under `gpv`.
    pub fn lookup(&mut self, addr: InstrAddr, gpv: &Gpv) -> Option<PerceptronHit> {
        self.stats.lookups += 1;
        let row = self.row_of(addr);
        let tag = self.tag_for(addr);
        let gpv_bits = 2 * gpv.depth();
        let threshold = self.cfg.usefulness_threshold;
        let base = row * self.cfg.ways;
        let (way, e) = (0..self.cfg.ways).find_map(|w| {
            self.entries[base + w].as_ref().filter(|e| e.tag == tag).map(|e| (w, *e))
        })?;
        let (ws, sels) = self.stripe(base + way);
        let sum = weight_sum(ws, sels, gpv.raw(), gpv_bits);
        self.stats.hits += 1;
        Some(PerceptronHit {
            row,
            way,
            dir: if sum >= 0 { Direction::Taken } else { Direction::NotTaken },
            useful: e.usefulness.get() >= threshold,
            sum,
        })
    }

    /// Trains the entry at `(row, way)` on the resolved direction using
    /// the GPV as of prediction time. "If the branch resolved taken, all
    /// weights that correspond to a GPV bit of 1 are incremented; others
    /// are decremented" — and symmetrically for not-taken (§V).
    ///
    /// Periodically sweeps low-magnitude weights onto their alternate
    /// virtualized GPV bit.
    pub fn train(&mut self, row: usize, way: usize, gpv: &Gpv, resolved: Direction) {
        let weights_n = self.cfg.weights;
        let wmax = self.cfg.weight_max;
        let gpv_bits = 2 * gpv.depth();
        let virtualization = self.cfg.virtualization as u8;
        let sweep_period = self.cfg.virtualize_period;
        let low = self.cfg.virtualize_below;
        let theta = self.cfg.train_theta;
        let mut virtualized = 0u64;
        self.stats.trains += 1;
        let slot = row * self.cfg.ways + way;
        let Some(e) = self.entries[slot].as_mut() else { return };
        let ws = &mut self.weights[slot * weights_n..(slot + 1) * weights_n];
        let sels = &mut self.selectors[slot * weights_n..(slot + 1) * weights_n];
        // θ-gated training: adjust only when the entry was wrong or
        // under-confident, so uncorrelated weights stay near zero
        // instead of random-walking into saturation.
        let sum = weight_sum(ws, sels, gpv.raw(), gpv_bits);
        let predicted_taken = sum >= 0;
        let adjust = predicted_taken != resolved.is_taken() || sum.abs() <= theta;
        if !adjust {
            self.stats.theta_skips += 1;
        }
        if adjust {
            // +1 where the weight's GPV bit agrees with the outcome, -1
            // where it disagrees, 0 at a dead position. Weights never
            // leave [-wmax, wmax], so clamping an unmoved dead weight is
            // a no-op and the loop needs no per-weight branch.
            let taken = u64::from(resolved.is_taken());
            for (i, (w, &sel)) in ws.iter_mut().zip(sels.iter()).enumerate() {
                let (live, bit) = lane(i, sel, weights_n, gpv.raw(), gpv_bits);
                let agree = i32::from(bit == taken);
                *w = (*w + live * (2 * agree - 1)).clamp(-wmax, wmax);
            }
        }
        e.since_sweep += 1;
        if sweep_period > 0 && e.since_sweep >= sweep_period {
            e.since_sweep = 0;
            for i in 0..weights_n {
                if ws[i].abs() < low {
                    // Try the next virtualized bit for this weight.
                    sels[i] = (sels[i] + 1) % virtualization.max(1);
                    ws[i] = 0;
                    virtualized += 1;
                }
            }
        }
        self.stats.virtualizations += virtualized;
    }

    /// Completion-time usefulness bookkeeping (§V):
    ///
    /// * perceptron correct while the provider was wrong → usefulness up
    ///   (and promotion once the threshold is crossed);
    /// * perceptron wrong while the provider was correct → usefulness
    ///   down;
    /// * both wrong while usefulness is still below the threshold →
    ///   usefulness up (lets fresh entries learn).
    pub fn assess(
        &mut self,
        row: usize,
        way: usize,
        perceptron_correct: bool,
        provider_correct: bool,
    ) {
        let threshold = self.cfg.usefulness_threshold;
        let mut promoted_now = false;
        if let Some(e) = self.entries[row * self.cfg.ways + way].as_mut() {
            let before = e.usefulness.get();
            match (perceptron_correct, provider_correct) {
                (true, false) => e.usefulness.inc(),
                (false, true) => e.usefulness.dec(),
                (false, false) if before < threshold => e.usefulness.inc(),
                _ => {}
            }
            if !e.promoted && e.usefulness.get() >= threshold {
                e.promoted = true;
                promoted_now = true;
            }
            if e.usefulness.get() < threshold {
                e.promoted = false;
            }
        }
        if promoted_now {
            self.stats.promotions += 1;
        }
    }

    /// Attempts to install a new entry for a hard-to-predict branch.
    ///
    /// The victim is the least-useful entry in the row whose protection
    /// limit has expired; every failed attempt decrements the
    /// protections so fresh entries cannot be immortal (§V).
    pub fn install(&mut self, addr: InstrAddr) -> bool {
        let row = self.row_of(addr);
        let tag = self.tag_for(addr);
        let base = row * self.cfg.ways;
        let row_entries = &mut self.entries[base..base + self.cfg.ways];
        // Already present?
        if row_entries.iter().flatten().any(|e| e.tag == tag) {
            return false;
        }
        let fresh = Entry {
            tag,
            usefulness: SatCounter::new(self.cfg.usefulness_max),
            protection: SatCounter::at(self.cfg.protection_limit, self.cfg.protection_limit),
            since_sweep: 0,
            promoted: false,
        };
        // Invalid way first, else the least-useful unprotected entry:
        // "The least useful entry … is selected as the entry to be
        // replaced, provided it has a protection limit of zero" (§V);
        // if the candidate is still protected, the install fails and
        // protections erode.
        let way = match row_entries.iter().position(|e| e.is_none()) {
            Some(w) => Some(w),
            None => row_entries
                .iter()
                .enumerate()
                .filter_map(|(w, e)| e.as_ref().map(|e| (w, e)))
                .min_by_key(|(_, e)| e.usefulness.get())
                .and_then(|(w, e)| e.protection.is_zero().then_some(w)),
        };
        let Some(way) = way else {
            for e in row_entries.iter_mut().flatten() {
                e.protection.dec();
            }
            self.stats.install_blocked += 1;
            return false;
        };
        self.entries[base + way] = Some(fresh);
        // Initial virtualized assignments are spread across the whole
        // GPV (weight i starts on its (i mod v)-th candidate bit), so a
        // fresh entry observes the full history immediately; the sweep
        // then migrates uncorrelated weights to their alternates.
        let v = self.cfg.virtualization.max(1) as u8;
        let n = self.cfg.weights;
        let slot = base + way;
        for i in 0..n {
            self.weights[slot * n + i] = 0;
            self.selectors[slot * n + i] = (i as u8) % v;
        }
        self.stats.installs += 1;
        true
    }

    /// Debug introspection of one entry (tests/diagnostics).
    #[doc(hidden)]
    pub fn debug_entry(&self, addr: InstrAddr) -> Option<(Vec<i32>, Vec<u8>, u32, u32)> {
        let row = self.row_of(addr);
        let tag = self.tag_for(addr);
        let base = row * self.cfg.ways;
        (0..self.cfg.ways)
            .find(|&w| self.entries[base + w].as_ref().is_some_and(|e| e.tag == tag))
            .map(|w| {
                let e = self.entries[base + w].expect("found above");
                let (ws, sels) = self.stripe(base + w);
                (ws.to_vec(), sels.to_vec(), e.usefulness.get(), e.protection.get())
            })
    }

    /// Number of valid entries (verification use).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

/// Weight `i`'s GPV position under selector `sel`, as `(live, bit)`:
/// `live` is 1 when the position lies inside the `live_bits` history
/// bits and 0 when it falls beyond them (a dead weight), and `bit` is
/// the history bit there (meaningless when dead).
#[inline]
fn lane(i: usize, sel: u8, weights_n: usize, gpv: u64, live_bits: usize) -> (i32, u64) {
    let pos = i + usize::from(sel) * weights_n;
    (i32::from(pos < live_bits), (gpv >> (pos & 63)) & 1)
}

/// The perceptron's dot product: each live weight added where its GPV
/// bit is 1 and subtracted where it is 0, dead weights masked out
/// arithmetically rather than skipped by a branch. `live_bits` is the
/// history width (twice the GPV depth); `gpv` holds no bits above it.
fn weight_sum(ws: &[i32], sels: &[u8], gpv: u64, live_bits: usize) -> i32 {
    let n = ws.len();
    ws.iter()
        .zip(sels)
        .enumerate()
        .map(|(i, (&w, &sel))| {
            let (live, bit) = lane(i, sel, n, gpv, live_bits);
            live * (2 * bit as i32 - 1) * w
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::z15_config;

    fn perc() -> Perceptron {
        Perceptron::new(z15_config().direction.perceptron.as_ref().unwrap())
    }

    fn gpv_pattern(pattern: &[bool]) -> Gpv {
        // Build a GPV whose low bits follow `pattern` as closely as our
        // 2-bit push hash allows: push addresses with known hashes.
        let mut g = Gpv::new(17);
        // Find addresses hashing to 0b00 and 0b01.
        let mut a0 = None;
        let mut a1 = None;
        for k in 0..256u64 {
            let a = InstrAddr::new(0x7000 + 2 * k);
            match crate::util::branch_gpv_bits(a) {
                0b00 if a0.is_none() => a0 = Some(a),
                0b01 if a1.is_none() => a1 = Some(a),
                _ => {}
            }
        }
        let (a0, a1) = (a0.unwrap(), a1.unwrap());
        for &b in pattern.iter().rev() {
            g.push_taken(if b { a1 } else { a0 });
        }
        g
    }

    const ADDR: InstrAddr = InstrAddr::new(0x2_0008);

    #[test]
    fn miss_without_install() {
        let mut p = perc();
        assert!(p.lookup(ADDR, &Gpv::new(17)).is_none());
        assert_eq!(p.stats.lookups, 1);
        assert_eq!(p.stats.hits, 0);
    }

    #[test]
    fn install_then_hit() {
        let mut p = perc();
        assert!(p.install(ADDR));
        assert!(!p.install(ADDR), "re-install of a present branch is a no-op");
        let hit = p.lookup(ADDR, &Gpv::new(17)).expect("hit");
        assert_eq!(hit.sum, 0, "fresh weights sum to zero");
        assert_eq!(hit.dir, Direction::Taken, "ties resolve taken");
        assert!(!hit.useful, "fresh entries are not yet providers");
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn learns_a_history_correlated_branch() {
        // Branch taken iff history bit 0 of the pattern is set.
        let mut p = perc();
        p.install(ADDR);
        let g1 = gpv_pattern(&[true; 17]);
        let g0 = gpv_pattern(&[false; 17]);
        for _ in 0..20 {
            if let Some(h) = p.lookup(ADDR, &g1) {
                p.train(h.row, h.way, &g1, Direction::Taken);
            }
            if let Some(h) = p.lookup(ADDR, &g0) {
                p.train(h.row, h.way, &g0, Direction::NotTaken);
            }
        }
        assert_eq!(p.lookup(ADDR, &g1).unwrap().dir, Direction::Taken);
        assert_eq!(p.lookup(ADDR, &g0).unwrap().dir, Direction::NotTaken);
        let h = p.lookup(ADDR, &g1).unwrap();
        assert!(h.sum > 0, "confident positive sum, got {}", h.sum);
    }

    #[test]
    fn weights_saturate() {
        let mut p = perc();
        p.install(ADDR);
        let g = gpv_pattern(&[true; 17]);
        for _ in 0..200 {
            let h = p.lookup(ADDR, &g).unwrap();
            p.train(h.row, h.way, &g, Direction::Taken);
        }
        let h = p.lookup(ADDR, &g).unwrap();
        let max = z15_config().direction.perceptron.unwrap().weight_max;
        assert!(h.sum <= max * 17, "sum bounded by weight saturation");
    }

    #[test]
    fn usefulness_promotion_and_demotion() {
        let mut p = perc();
        p.install(ADDR);
        let g = Gpv::new(17);
        let h = p.lookup(ADDR, &g).unwrap();
        // Perceptron right, provider wrong, four times -> promoted.
        for _ in 0..4 {
            p.assess(h.row, h.way, true, false);
        }
        assert!(p.lookup(ADDR, &g).unwrap().useful);
        assert_eq!(p.stats.promotions, 1);
        // Provider recovers: demote.
        for _ in 0..4 {
            p.assess(h.row, h.way, false, true);
        }
        assert!(!p.lookup(ADDR, &g).unwrap().useful, "demoted below threshold");
    }

    #[test]
    fn both_wrong_learns_only_below_threshold() {
        let mut p = perc();
        p.install(ADDR);
        let g = Gpv::new(17);
        let h = p.lookup(ADDR, &g).unwrap();
        for _ in 0..20 {
            p.assess(h.row, h.way, false, false);
        }
        // Usefulness climbs to the threshold but not beyond it.
        for _ in 0..3 {
            p.assess(h.row, h.way, true, false);
        }
        let hit = p.lookup(ADDR, &g).unwrap();
        assert!(hit.useful);
    }

    #[test]
    fn protection_blocks_then_expires() {
        let cfg = PerceptronConfig {
            rows: 1,
            ways: 1,
            protection_limit: 4,
            ..z15_config().direction.perceptron.unwrap()
        };
        let mut p = Perceptron::new(&cfg);
        assert!(p.install(InstrAddr::new(0x10)));
        // Single way is occupied & protected: install attempts fail and
        // erode protection (limit 4).
        let other = InstrAddr::new(0x5010);
        for _ in 0..4 {
            assert!(!p.install(other));
        }
        assert_eq!(p.stats.install_blocked, 4);
        assert!(p.install(other), "protection expired; replacement succeeds");
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn least_useful_entry_is_victim() {
        let cfg = PerceptronConfig {
            rows: 1,
            ways: 2,
            protection_limit: 0,
            ..z15_config().direction.perceptron.unwrap()
        };
        let mut p = Perceptron::new(&cfg);
        let a = InstrAddr::new(0x10);
        let b = InstrAddr::new(0x20);
        p.install(a);
        p.install(b);
        // Make `a` useful.
        let ha = p.lookup(a, &Gpv::new(17)).unwrap();
        for _ in 0..3 {
            p.assess(ha.row, ha.way, true, false);
        }
        // New install evicts `b` (least useful).
        let c = InstrAddr::new(0x9930);
        assert!(p.install(c));
        assert!(p.lookup(a, &Gpv::new(17)).is_some(), "useful entry kept");
        assert!(p.lookup(b, &Gpv::new(17)).is_none(), "least useful evicted");
        assert!(p.lookup(c, &Gpv::new(17)).is_some());
    }

    #[test]
    fn learns_far_bit_under_noise() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut p = perc();
        p.install(ADDR);
        let mut rng = StdRng::seed_from_u64(5);
        // Find addresses for symbol control
        let mut sym_addrs: Vec<Vec<InstrAddr>> = vec![Vec::new(); 4];
        for k in 0..4096u64 {
            let a = InstrAddr::new(0x7000 + 2 * k);
            let s = crate::util::branch_gpv_bits(a) as usize;
            if sym_addrs[s].len() < 64 {
                sym_addrs[s].push(a);
            }
        }
        let mut correct = 0u32;
        let mut total = 0u32;
        for iter in 0..2000 {
            // Build GPV: 17 pushes; push #15-back encodes the "leader" bit.
            let leader = rng.random_bool(0.5);
            let mut g = Gpv::new(17);
            // oldest first: push 16th-oldest .. newest
            // We want the leader symbol at bit-pair position 15 => it is the 16th most recent push
            // sequence: [old junk x1] [leader] [15 noise pushes]
            g.push_taken(sym_addrs[rng.random_range(0..4)][rng.random_range(0..64)]);
            g.push_taken(if leader { sym_addrs[3][0] } else { sym_addrs[2][0] });
            for _ in 0..15 {
                let s = rng.random_range(0..4);
                g.push_taken(sym_addrs[s][rng.random_range(0..64)]);
            }
            let dir = if leader { Direction::Taken } else { Direction::NotTaken };
            if let Some(h) = p.lookup(ADDR, &g) {
                if iter > 1000 {
                    total += 1;
                    if h.dir == dir {
                        correct += 1;
                    }
                }
                p.train(h.row, h.way, &g, dir);
            }
        }
        let acc = correct as f64 / total.max(1) as f64;
        assert!(
            acc > 0.9,
            "perceptron should learn the far correlated bit: {acc:.2} ({correct}/{total})"
        );
    }

    /// Reference dot product: one branch per weight, dead positions
    /// skipped.
    fn reference_sum(ws: &[i32], sels: &[u8], gpv: &Gpv) -> i32 {
        let n = ws.len();
        let mut sum = 0;
        for i in 0..n {
            let pos = i + usize::from(sels[i]) * n;
            if pos >= 2 * gpv.depth() {
                continue;
            }
            sum += if gpv.bit(pos) { ws[i] } else { -ws[i] };
        }
        sum
    }

    /// Reference training adjustment: one branch per weight, dead
    /// positions skipped.
    fn reference_adjust(ws: &mut [i32], sels: &[u8], gpv: &Gpv, resolved: Direction, wmax: i32) {
        let n = ws.len();
        for i in 0..n {
            let pos = i + usize::from(sels[i]) * n;
            if pos >= 2 * gpv.depth() {
                continue;
            }
            let delta = if gpv.bit(pos) == resolved.is_taken() { 1 } else { -1 };
            ws[i] = (ws[i] + delta).clamp(-wmax, wmax);
        }
    }

    #[test]
    fn weight_sum_and_train_match_a_naive_reference() {
        use rand::{rngs::StdRng, RngCore, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        // 40 weights under 2:1 virtualization reach positions 40..80:
        // past a 64-bit history, so the shift in `lane` wraps there and
        // only the live mask keeps those weights out.
        for weights in [17usize, 40] {
            for virtualization in [1usize, 2] {
                for depth in [9usize, 17, 32] {
                    let cfg = PerceptronConfig {
                        rows: 1,
                        ways: 1,
                        weights,
                        virtualization,
                        virtualize_period: 0,
                        ..z15_config().direction.perceptron.unwrap()
                    };
                    let wmax = cfg.weight_max;
                    let mut p = Perceptron::new(&cfg);
                    assert!(p.install(ADDR));
                    let mut dead_seen = false;
                    for _ in 0..200 {
                        for (w, s) in p.weights.iter_mut().zip(p.selectors.iter_mut()) {
                            *w = rng.random_range(-wmax..=wmax);
                            *s = rng.random_range(0..virtualization) as u8;
                        }
                        let (ws, sels) = (p.weights.clone(), p.selectors.clone());
                        dead_seen |= sels
                            .iter()
                            .enumerate()
                            .any(|(i, &s)| i + usize::from(s) * weights >= 2 * depth);
                        let gpv = Gpv::from_raw(rng.next_u64(), depth);
                        let want = reference_sum(&ws, &sels, &gpv);
                        assert_eq!(weight_sum(&ws, &sels, gpv.raw(), 2 * depth), want);
                        let hit = p.lookup(ADDR, &gpv).expect("installed");
                        assert_eq!(hit.sum, want);

                        let resolved = if rng.random_bool(0.5) {
                            Direction::Taken
                        } else {
                            Direction::NotTaken
                        };
                        let mut expect = ws.clone();
                        let adjust =
                            (want >= 0) != resolved.is_taken() || want.abs() <= cfg.train_theta;
                        if adjust {
                            reference_adjust(&mut expect, &sels, &gpv, resolved, wmax);
                        }
                        let skips = p.stats.theta_skips;
                        p.train(hit.row, hit.way, &gpv, resolved);
                        assert_eq!(
                            p.weights, expect,
                            "{weights} weights, v{virtualization}, depth {depth}"
                        );
                        assert_eq!(p.stats.theta_skips - skips, u64::from(!adjust));
                        assert!(p.weights.iter().all(|w| (-wmax..=wmax).contains(w)));
                    }
                    assert_eq!(
                        dead_seen,
                        weights * virtualization > 2 * depth,
                        "dead positions occur exactly when the weights outreach the history"
                    );
                }
            }
        }
    }

    #[test]
    fn virtualization_reassigns_dead_weights() {
        let mut cfg = z15_config().direction.perceptron.unwrap();
        cfg.virtualize_period = 8;
        cfg.virtualize_below = 3;
        let mut p = Perceptron::new(&cfg);
        p.install(ADDR);
        // Uncorrelated (alternating) outcomes keep weights near zero;
        // after the sweep period, virtualization fires.
        let g = gpv_pattern(&[true; 17]);
        for k in 0..16 {
            let h = p.lookup(ADDR, &g).unwrap();
            let dir = if k % 2 == 0 { Direction::Taken } else { Direction::NotTaken };
            p.train(h.row, h.way, &g, dir);
        }
        assert!(p.stats.virtualizations > 0, "dead weights were reassigned");
    }
}

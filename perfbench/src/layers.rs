//! Per-structure ledger.
//!
//! A replay with a benchmark-side [`Probe`] captures the predictor's
//! events once. A mirror then walks those events beside the record
//! stream and re-derives, call by call, what the predictor asked of
//! each structure: it drives its own copies of every structure through
//! their public methods, checks each of its decisions against the
//! predicted direction, target and providers the events report, and
//! records the calls as per-structure operation streams. Each stream is
//! then replayed, timed, against a fresh structure built from the same
//! `PredictorConfig`.
//!
//! The mirror reproduces the model's control logic (stream tracking,
//! speculative overrides, provider selection); those parts and the GPQ
//! are not timed here and stay in the residue, as do the read-only BTB1
//! probes of the completion path.

use crate::report::Dist;
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zbp_core::btb::BtbEntry;
use zbp_core::btb1::{Btb1, InstallOutcome};
use zbp_core::btb2::{Btb2, SearchReason};
use zbp_core::config::InclusionPolicy;
use zbp_core::cpred::{Cpred, PowerMask};
use zbp_core::crs::Crs;
use zbp_core::ctb::Ctb;
use zbp_core::direction::DirectionProvider;
use zbp_core::events::{BplEvent, Probe};
use zbp_core::gpv::Gpv;
use zbp_core::perceptron::{Perceptron, PerceptronHit};
use zbp_core::sbht::SpecOverride;
use zbp_core::stats::ZStats;
use zbp_core::tage::{Pht, PhtHit, PhtLookup, TageTable};
use zbp_core::target::TargetProvider;
use zbp_core::write_queue::{WriteQueue, WriteSource};
use zbp_core::{PredictorConfig, ZPredictor};
use zbp_model::{BranchRecord, DynamicTrace, ReplayCore, RunStats};
use zbp_serve::{SessionReport, DEFAULT_DEPTH};
use zbp_telemetry::Telemetry;
use zbp_zarch::{static_guess, Direction, InstrAddr};

/// Timed replays per structure stream; each figure is their median.
const REPS: usize = 5;

/// Write-queue depth for the standalone write-queue replay (the
/// smallest staging capacity the BTB2 ablation sweeps).
const WRITE_QUEUE_DEPTH: usize = 8;

/// The captured events, reduced to what the mirror reads.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Search {
        addr: InstrAddr,
        hit: bool,
    },
    Predict {
        dynamic: bool,
        dir: Direction,
        target: Option<InstrAddr>,
        dir_provider: DirectionProvider,
        tgt_provider: Option<TargetProvider>,
    },
    Install {
        entry: BtbEntry,
        victim: Option<InstrAddr>,
        duplicate: bool,
    },
    Update {
        entry: BtbEntry,
    },
    B2Search {
        addr: InstrAddr,
        reason: SearchReason,
        staged: usize,
    },
    Refresh {
        entry: BtbEntry,
    },
    Complete {
        addr: InstrAddr,
    },
    CtbWrite,
    CrsDetect,
    CrsAmnesty,
    PercInstall,
    Flush,
    Unhandled,
}

impl Ev {
    fn from(ev: &BplEvent) -> Ev {
        match *ev {
            BplEvent::Btb1Search { addr, hit } => Ev::Search { addr, hit },
            BplEvent::Predict {
                dynamic, direction, target, dir_provider, tgt_provider, ..
            } => Ev::Predict { dynamic, dir: direction, target, dir_provider, tgt_provider },
            BplEvent::Btb1Install { entry, victim, duplicate } => {
                Ev::Install { entry, victim: victim.map(|v| v.branch_addr), duplicate }
            }
            BplEvent::Btb1Update { entry } => Ev::Update { entry },
            BplEvent::Btb2Search { addr, reason, staged } => Ev::B2Search { addr, reason, staged },
            BplEvent::Btb2Refresh { entry } => Ev::Refresh { entry },
            BplEvent::Complete { addr, .. } => Ev::Complete { addr },
            BplEvent::CtbWrite { .. } => Ev::CtbWrite,
            BplEvent::CrsDetect { .. } => Ev::CrsDetect,
            BplEvent::CrsAmnesty { .. } => Ev::CrsAmnesty,
            BplEvent::PerceptronInstall { .. } => Ev::PercInstall,
            BplEvent::Flush => Ev::Flush,
            // Blacklists are re-derived from the prediction; removals and
            // context switches do not occur in a trace replay.
            BplEvent::CrsBlacklist { .. }
            | BplEvent::Btb1Remove { .. }
            | BplEvent::ContextChange { .. } => Ev::Unhandled,
        }
    }
}

struct Capture(Arc<Mutex<Vec<Ev>>>);

impl Probe for Capture {
    fn event(&mut self, ev: &BplEvent) {
        self.0.lock().expect("capture sink lock poisoned").push(Ev::from(ev));
    }
}

/// Replays `trace` through a probed predictor on the record-by-record
/// path; returns the events, the run and the predictor's own stats.
fn capture(cfg: &PredictorConfig, trace: &DynamicTrace) -> (Vec<Ev>, RunStats, ZStats) {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let mut pred = ZPredictor::new(cfg.clone());
    pred.set_probe(Box::new(Capture(Arc::clone(&sink))));
    let mut core = ReplayCore::new(DEFAULT_DEPTH);
    let mut tel = Telemetry::disabled();
    for rec in trace.branches() {
        core.step(&mut pred, rec, &mut tel);
    }
    let run = core.finish(&mut pred, trace.tail_instrs());
    let zstats = pred.stats.clone();
    drop(pred);
    let events = Arc::try_unwrap(sink)
        .map(|m| m.into_inner().expect("capture sink lock poisoned"))
        .unwrap_or_default();
    (events, run, zstats)
}

// ----- operation streams ----------------------------------------------------

#[derive(Clone, Copy)]
enum Btb1Op {
    Lookup(InstrAddr),
    Install(BtbEntry),
    Update(InstrAddr, BtbEntry),
}

#[derive(Clone, Copy)]
enum Btb2Op {
    NoteSearch(bool),
    TakeRefresh,
    Refresh(BtbEntry),
    /// Search, then drain the staged entries.
    Search(InstrAddr, SearchReason),
    Fill(BtbEntry),
    Invalidate(BtbEntry),
    NoteDisruptive,
    NoteQuiet,
}

#[derive(Clone, Copy)]
enum PhtOp {
    Lookup(InstrAddr, usize, Gpv),
    Choose(PhtLookup),
    Strengthen(PhtHit, Direction),
    Train(PhtLookup, Option<PhtHit>, Direction, Direction),
    Allocate(InstrAddr, usize, Gpv, Direction, Option<TageTable>),
}

#[derive(Clone, Copy)]
enum PercOp {
    Lookup(InstrAddr, Gpv),
    Train(usize, usize, Gpv, Direction),
    Assess(usize, usize, bool, bool),
    Install(InstrAddr),
}

#[derive(Clone, Copy)]
enum CtbOp {
    Lookup(InstrAddr, Gpv),
    Install(InstrAddr, Gpv, InstrAddr),
    Retarget(InstrAddr, Gpv, InstrAddr),
}

#[derive(Clone, Copy)]
enum CrsOp {
    Provide(u8),
    NotePredicted(InstrAddr, InstrAddr, InstrAddr),
    NoteCompleted(InstrAddr, InstrAddr, InstrAddr),
    DetectMatches(InstrAddr),
    Blacklist,
    Amnesty(bool),
    Flush,
}

#[derive(Clone, Copy)]
enum StatsOp {
    Direction(DirectionProvider, bool),
    Target(TargetProvider, bool),
}

#[derive(Default)]
struct Ops {
    btb1: Vec<Btb1Op>,
    btb2: Vec<Btb2Op>,
    pht: Vec<PhtOp>,
    perc: Vec<PercOp>,
    ctb: Vec<CtbOp>,
    crs: Vec<CrsOp>,
    stats: Vec<StatsOp>,
    write_queue: Vec<WriteOp>,
}

// ----- the mirror -------------------------------------------------------------

#[derive(Clone, Copy)]
struct DirDecision {
    dir: Direction,
    provider: DirectionProvider,
    alt_dir: Direction,
    perc: Option<PerceptronHit>,
    pht_lookup: PhtLookup,
    pht_provider: Option<PhtHit>,
}

/// The mirror's GPQ entry.
struct Pending {
    rec: BranchRecord,
    seq: u64,
    dynamic: bool,
    way: usize,
    gpv: Gpv,
    entry: Option<BtbEntry>,
    dd: DirDecision,
    tgt: Option<(InstrAddr, TargetProvider)>,
}

/// A prediction between its BTB1 search and its `Predict` event.
struct Searched {
    rec: BranchRecord,
    seq: u64,
    gpv: Gpv,
    /// The BTB1 way and entry that hit, if any.
    found: Option<(usize, BtbEntry)>,
}

/// Completion work that runs after events the completion emits.
enum Tail {
    None,
    /// CRS machinery pending (runs after any surprise install).
    Crs(Pending),
    /// Only SKOOT learning pending (runs after the `Btb1Update` event).
    Skoot(BranchRecord),
}

/// Counts where the mirror, the replays and the model disagree; all
/// must stay 0. The signed counts are mirror events less model events.
#[derive(Default, Debug)]
struct Mismatches {
    search_hits: u64,
    decisions: u64,
    gpq: u64,
    entries: u64,
    crs_detects: i64,
    perc_installs: i64,
    ctb_writes: i64,
    amnesties: i64,
    zstats: u64,
    run_stats: u64,
    btb2_staged: u64,
    btb1_replay_hits: u64,
}

impl Mismatches {
    fn total(&self) -> u64 {
        self.search_hits
            + self.decisions
            + self.gpq
            + self.entries
            + self.crs_detects.unsigned_abs()
            + self.perc_installs.unsigned_abs()
            + self.ctb_writes.unsigned_abs()
            + self.amnesties.unsigned_abs()
            + self.zstats
            + self.run_stats
            + self.btb2_staged
            + self.btb1_replay_hits
    }
}

struct Mirror<'a> {
    cfg: &'a PredictorConfig,
    recs: &'a [BranchRecord],
    next_rec: usize,
    btb1: Btb1,
    pht: Pht,
    perc: Option<Perceptron>,
    ctb: Option<Ctb>,
    crs: Option<Crs>,
    cpred: Option<Cpred>,
    sbht: SpecOverride,
    spht: SpecOverride,
    spec_gpv: Gpv,
    arch_gpv: Gpv,
    gpq: VecDeque<Pending>,
    seq: u64,
    stream_start: InstrAddr,
    stream_power: PowerMask,
    stream_needs: PowerMask,
    next_stream_power: Option<PowerMask>,
    prev_stream_start: Option<InstrAddr>,
    stream_reset_pending: bool,
    last_completed_taken: Option<(InstrAddr, InstrAddr)>,
    /// The prediction in progress (set at its search).
    searched: Option<Searched>,
    /// Installs still owed to the last BTB2 search (promotions).
    owed_promotions: usize,
    /// Entries the model's BTB2 searches staged.
    staged: u64,
    tail: Tail,
    zstats: ZStats,
    ops: Ops,
    bad: Mismatches,
    btb1_hits: u64,
    /// Promoted entries not yet hit by a search, and how many were hit.
    promoted_unused: HashSet<u64>,
    promotions_used: u64,
    promotions: u64,
}

/// The model's SBHT key for thread 0.
fn sbht_key(addr: InstrAddr) -> u64 {
    addr.raw()
}

/// The model's SPHT key for a PHT slot, thread 0.
fn spht_key(hit: &PhtHit) -> u64 {
    let tb = match hit.table {
        TageTable::Short => 0u64,
        TageTable::Long => 1,
    };
    (tb << 62) | ((hit.way as u64) << 48) | hit.row as u64
}

impl<'a> Mirror<'a> {
    fn new(cfg: &'a PredictorConfig, recs: &'a [BranchRecord]) -> Self {
        Mirror {
            cfg,
            recs,
            next_rec: 0,
            btb1: Btb1::new(&cfg.btb1),
            pht: Pht::new(&cfg.direction, cfg.btb1.ways),
            perc: cfg.direction.perceptron.as_ref().map(Perceptron::new),
            ctb: cfg.ctb.as_ref().map(Ctb::new),
            crs: cfg.crs.as_ref().map(Crs::new),
            cpred: cfg.cpred.as_ref().map(Cpred::new),
            sbht: SpecOverride::new(cfg.direction.sbht_entries),
            spht: SpecOverride::new(cfg.direction.spht_entries),
            spec_gpv: Gpv::new(cfg.gpv_depth),
            arch_gpv: Gpv::new(cfg.gpv_depth),
            gpq: VecDeque::new(),
            seq: 0,
            stream_start: InstrAddr::new(0),
            stream_power: PowerMask::ALL_ON,
            stream_needs: PowerMask::ALL_OFF,
            next_stream_power: None,
            prev_stream_start: None,
            stream_reset_pending: true,
            last_completed_taken: None,
            searched: None,
            owed_promotions: 0,
            staged: 0,
            tail: Tail::None,
            zstats: ZStats::new(),
            ops: Ops::default(),
            bad: Mismatches::default(),
            btb1_hits: 0,
            promoted_unused: HashSet::new(),
            promotions_used: 0,
            promotions: 0,
        }
    }

    fn b1_update(&mut self, addr: InstrAddr, f: impl FnOnce(&mut BtbEntry)) {
        let mut after = None;
        self.btb1.update(addr, |e| {
            f(e);
            after = Some(*e);
        });
        if let Some(e) = after {
            self.ops.btb1.push(Btb1Op::Update(addr, e));
            self.ops.write_queue.push(WriteOp(WriteSource::CompletionUpdate, addr));
        }
    }

    fn enter_stream(&mut self, start: InstrAddr) {
        self.stream_start = start;
        self.stream_needs = PowerMask::ALL_OFF;
        self.stream_power = self.next_stream_power.take().unwrap_or(PowerMask::ALL_ON);
        if let Some(cp) = &mut self.cpred {
            self.next_stream_power = cp.lookup(start).map(|p| p.power);
        }
    }

    fn end_stream(&mut self, branch: InstrAddr, way: usize, target: InstrAddr, skoot: u64) {
        let line = self.cfg.btb1.search_bytes;
        let searches = (branch.raw() / line).saturating_sub(self.stream_start.raw() / line) + 1;
        if let Some(cp) = &mut self.cpred {
            let redirect =
                if cp.with_skoot() && skoot > 0 { target.advance_lines64(skoot) } else { target };
            cp.train_exit(self.stream_start, searches.min(255) as u8, way.min(255) as u8, redirect);
            if let Some(prev) = self.prev_stream_start {
                cp.train_power(prev, self.stream_needs);
            }
        }
        self.prev_stream_start = Some(self.stream_start);
        self.enter_stream(target);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Search { .. } | Ev::Complete { .. } | Ev::Flush => self.finish_tail(),
            Ev::Update { .. } | Ev::CrsDetect | Ev::CrsAmnesty => self.finish_crs_tail(),
            _ => {}
        }
        match ev {
            Ev::Search { addr, hit } => self.search(addr, hit),
            Ev::Predict { dynamic, dir, target, dir_provider, tgt_provider } => {
                self.predict(dynamic, dir, target, dir_provider, tgt_provider)
            }
            Ev::Install { entry, victim, duplicate } => self.install(entry, victim, duplicate),
            Ev::Update { entry } => {
                if self.btb1.probe(entry.branch_addr).map(|(_, e)| *e) != Some(entry) {
                    self.bad.entries += 1;
                }
            }
            Ev::B2Search { addr, reason, staged } => {
                self.ops.btb2.push(Btb2Op::Search(addr, reason));
                self.owed_promotions = staged;
                self.staged += staged as u64;
            }
            Ev::Refresh { entry } => self.ops.btb2.push(Btb2Op::Refresh(entry)),
            Ev::Complete { addr } => self.complete(addr),
            Ev::CtbWrite => self.bad.ctb_writes -= 1,
            Ev::CrsDetect => self.bad.crs_detects -= 1,
            Ev::CrsAmnesty => self.bad.amnesties -= 1,
            Ev::PercInstall => self.bad.perc_installs -= 1,
            Ev::Flush => self.flush(),
            Ev::Unhandled => {}
        }
    }

    fn search(&mut self, addr: InstrAddr, hit: bool) {
        let Some(&rec) = self.recs.get(self.next_rec) else {
            self.bad.decisions += 1;
            return;
        };
        self.next_rec += 1;
        let seq = self.seq;
        self.seq += 1;
        if self.stream_reset_pending {
            self.stream_reset_pending = false;
            self.enter_stream(addr);
        }
        let found = self.btb1.lookup(addr);
        self.ops.btb1.push(Btb1Op::Lookup(addr));
        if found.is_some() != hit || rec.addr != addr {
            self.bad.search_hits += 1;
        }
        if found.is_some() {
            self.btb1_hits += 1;
            if self.promoted_unused.remove(&addr.raw()) {
                self.promotions_used += 1;
            }
        }
        self.searched = Some(Searched { rec, seq, gpv: self.spec_gpv, found });
    }

    fn predict(
        &mut self,
        dynamic: bool,
        dir: Direction,
        target: Option<InstrAddr>,
        dir_provider: DirectionProvider,
        tgt_provider: Option<TargetProvider>,
    ) {
        let Some(Searched { rec, seq, gpv, found }) = self.searched.take() else {
            self.bad.decisions += 1;
            return;
        };
        let addr = rec.addr;
        let pending = match found {
            None => {
                let guess = static_guess(rec.class());
                if guess.is_taken() {
                    self.spec_gpv.push_taken(addr);
                    self.stream_reset_pending = true;
                }
                if dynamic || dir != guess || target.is_some() {
                    self.bad.decisions += 1;
                }
                let dd = DirDecision {
                    dir: guess,
                    provider: DirectionProvider::StaticGuess,
                    alt_dir: guess,
                    perc: None,
                    pht_lookup: PhtLookup::default(),
                    pht_provider: None,
                };
                Pending { rec, seq, dynamic: false, way: 0, gpv, entry: None, dd, tgt: None }
            }
            Some((way, entry)) => {
                self.stream_needs.note_branch(entry.bidirectional, entry.multi_target);
                // The model tags speculative overrides with its sequence
                // counter after this prediction's increment.
                let dd = self.decide_direction(addr, way, &entry, seq + 1);
                let tgt = if dd.dir.is_taken() {
                    let td = self.decide_target(addr, &entry);
                    if let Some(crs) = &mut self.crs {
                        crs.note_predicted_taken(0, addr, td.0, entry.fall_through());
                        self.ops.crs.push(CrsOp::NotePredicted(addr, td.0, entry.fall_through()));
                    }
                    Some(td)
                } else {
                    None
                };
                if !dynamic
                    || dd.dir != dir
                    || dd.provider != dir_provider
                    || tgt.map(|t| t.0) != target
                    || tgt.map(|t| t.1) != tgt_provider
                {
                    self.bad.decisions += 1;
                }
                if let Some((t, _)) = tgt {
                    self.spec_gpv.push_taken(addr);
                    let skoot = if self.cfg.skoot { entry.skoot.skip_lines() } else { 0 };
                    self.end_stream(addr, way, t, skoot);
                }
                Pending { rec, seq, dynamic: true, way, gpv, entry: Some(entry), dd, tgt }
            }
        };
        self.gpq.push_back(pending);
        if self.cfg.btb2.is_some() {
            self.ops.btb2.push(Btb2Op::NoteSearch(found.is_some()));
            self.ops.btb2.push(Btb2Op::TakeRefresh);
        }
    }

    fn decide_direction(
        &mut self,
        addr: InstrAddr,
        way: usize,
        entry: &BtbEntry,
        installer: u64,
    ) -> DirDecision {
        let raw_bht = entry.bht.direction();
        let sbht_override = self.sbht.lookup(sbht_key(addr));
        let bht_dir = sbht_override.unwrap_or(raw_bht);
        let bht_provider =
            if sbht_override.is_some() { DirectionProvider::Sbht } else { DirectionProvider::Bht };
        let plain = |dir, provider, alt_dir| DirDecision {
            dir,
            provider,
            alt_dir,
            perc: None,
            pht_lookup: PhtLookup::default(),
            pht_provider: None,
        };
        if entry.is_unconditional() {
            return plain(Direction::Taken, DirectionProvider::Unconditional, Direction::Taken);
        }
        if !entry.bidirectional {
            if entry.bht.is_weak() && self.sbht.is_enabled() {
                self.sbht.install(sbht_key(addr), bht_dir, installer);
                self.b1_update(addr, |e| e.bht.strengthen(bht_dir));
            }
            return plain(bht_dir, bht_provider, raw_bht);
        }
        let perc = if self.stream_power.perceptron {
            let hit = self.perc.as_mut().and_then(|p| p.lookup(addr, &self.spec_gpv));
            if self.perc.is_some() {
                self.ops.perc.push(PercOp::Lookup(addr, self.spec_gpv));
            }
            hit
        } else {
            None
        };
        let pht_lookup = if self.stream_power.pht {
            self.ops.pht.push(PhtOp::Lookup(addr, way, self.spec_gpv));
            self.pht.lookup(addr, way, &self.spec_gpv)
        } else {
            PhtLookup::default()
        };
        let spht_long = pht_lookup.long.and_then(|h| self.spht.lookup(spht_key(&h)));
        let spht_short = pht_lookup.short.and_then(|h| self.spht.lookup(spht_key(&h)));
        let spht_dir = spht_long.or(spht_short);
        self.ops.pht.push(PhtOp::Choose(pht_lookup));
        let choice = self.pht.choose(&pht_lookup);
        let level = match (spht_dir, choice) {
            (Some(d), c) => Some((d, DirectionProvider::Spht, c.map(|c| c.provider))),
            (None, Some(c)) => Some((
                c.provider.dir,
                match c.provider.table {
                    TageTable::Short => DirectionProvider::TageShort,
                    TageTable::Long => DirectionProvider::TageLong,
                },
                Some(c.provider),
            )),
            (None, None) => None,
        };
        let (dir, provider, alt_dir, pht_provider) = match (perc, level) {
            (Some(ph), _) if ph.useful => (
                ph.dir,
                DirectionProvider::Perceptron,
                level.map_or(bht_dir, |(d, _, _)| d),
                level.and_then(|(_, _, h)| h),
            ),
            (_, Some((d, prov, hit))) => {
                let alt = match prov {
                    DirectionProvider::TageLong => pht_lookup.short.map_or(bht_dir, |s| s.dir),
                    _ => bht_dir,
                };
                (d, prov, alt, hit)
            }
            _ => (bht_dir, bht_provider, raw_bht, None),
        };
        match provider {
            DirectionProvider::Bht if entry.bht.is_weak() && self.sbht.is_enabled() => {
                self.sbht.install(sbht_key(addr), dir, installer);
                self.b1_update(addr, |e| e.bht.strengthen(dir));
            }
            DirectionProvider::TageShort | DirectionProvider::TageLong => {
                if let Some(h) = pht_provider {
                    if h.weak && self.spht.is_enabled() {
                        self.spht.install(spht_key(&h), dir, installer);
                        self.ops.pht.push(PhtOp::Strengthen(h, dir));
                        self.pht.strengthen(&h, dir);
                    }
                }
            }
            _ => {}
        }
        DirDecision { dir, provider, alt_dir, perc, pht_lookup, pht_provider }
    }

    fn decide_target(&mut self, addr: InstrAddr, entry: &BtbEntry) -> (InstrAddr, TargetProvider) {
        if entry.multi_target {
            if let (Some(offset), Some(crs)) = (entry.return_offset, self.crs.as_mut()) {
                if !entry.crs_blacklisted {
                    self.ops.crs.push(CrsOp::Provide(offset));
                    if let Some(t) = crs.provide(0, offset) {
                        return (t, TargetProvider::Crs);
                    }
                }
            }
            if self.stream_power.ctb {
                if let Some(ctb) = &mut self.ctb {
                    self.ops.ctb.push(CtbOp::Lookup(addr, self.spec_gpv));
                    if let Some(t) = ctb.lookup(addr, &self.spec_gpv) {
                        return (t, TargetProvider::Ctb);
                    }
                }
            }
        }
        (entry.target, TargetProvider::Btb)
    }

    fn install(&mut self, entry: BtbEntry, victim: Option<InstrAddr>, duplicate: bool) {
        let promoted = self.owed_promotions > 0;
        self.owed_promotions = self.owed_promotions.saturating_sub(1);
        let outcome = self.btb1.install(entry);
        self.ops.btb1.push(Btb1Op::Install(entry));
        let source =
            if promoted { WriteSource::Btb2Transfer } else { WriteSource::SurpriseInstall };
        self.ops.write_queue.push(WriteOp(source, entry.branch_addr));
        match outcome {
            InstallOutcome::Duplicate => {
                if !duplicate {
                    self.bad.entries += 1;
                }
            }
            InstallOutcome::Installed { victim: v } => {
                if duplicate || v.map(|v| v.branch_addr) != victim {
                    self.bad.entries += 1;
                }
                if let Some(v) = v {
                    self.promoted_unused.remove(&v.branch_addr.raw());
                }
                let inclusion = self.cfg.btb2.as_ref().map(|c| c.inclusion);
                if promoted {
                    self.promotions += 1;
                    self.promoted_unused.insert(entry.branch_addr.raw());
                    if inclusion == Some(InclusionPolicy::SemiExclusive) {
                        self.ops.btb2.push(Btb2Op::Invalidate(entry));
                    }
                } else if inclusion == Some(InclusionPolicy::SemiInclusive) {
                    self.ops.btb2.push(Btb2Op::Fill(entry));
                }
            }
        }
    }

    fn complete(&mut self, addr: InstrAddr) {
        let Some(p) = self.gpq.pop_front() else {
            self.bad.gpq += 1;
            return;
        };
        if p.rec.addr != addr {
            self.bad.gpq += 1;
        }
        let rec = p.rec;
        let resolved = rec.direction();
        if rec.taken {
            self.arch_gpv.push_taken(rec.addr);
        }
        self.sbht.retire(p.seq);
        self.spht.retire(p.seq);

        let dir_ok = p.dd.dir == resolved;
        self.zstats.record_direction(p.dd.provider, dir_ok);
        self.ops.stats.push(StatsOp::Direction(p.dd.provider, dir_ok));
        if p.dynamic && rec.taken && p.dd.dir.is_taken() {
            if let Some((t, prov)) = p.tgt {
                self.zstats.record_target(prov, t == rec.target);
                self.ops.stats.push(StatsOp::Target(prov, t == rec.target));
            }
        }

        if p.dynamic {
            self.complete_dynamic(&p, resolved);
        } else if self.cfg.btb2.is_some() {
            self.ops.btb2.push(if rec.taken { Btb2Op::NoteDisruptive } else { Btb2Op::NoteQuiet });
        }
        self.tail = Tail::Crs(p);
    }

    fn complete_dynamic(&mut self, p: &Pending, resolved: Direction) {
        let rec = p.rec;
        let dir_wrong = p.dd.dir != resolved;
        let Some(entry) = p.entry else { return };
        let mut trained = entry.bht;
        trained.train(resolved);
        self.b1_update(rec.addr, |e| {
            e.branch_addr = rec.addr;
            e.bht = trained;
            if dir_wrong {
                e.bidirectional = true;
            }
        });
        self.ops.pht.push(PhtOp::Train(p.dd.pht_lookup, p.dd.pht_provider, p.dd.alt_dir, resolved));
        self.pht.train(&p.dd.pht_lookup, p.dd.pht_provider, p.dd.alt_dir, resolved);
        if dir_wrong {
            let wrong = p.dd.pht_provider.filter(|h| h.dir != resolved).map(|h| h.table);
            self.ops.pht.push(PhtOp::Allocate(rec.addr, p.way, p.gpv, resolved, wrong));
            self.pht.allocate(rec.addr, p.way, &p.gpv, resolved, wrong);
        }
        if let Some(perc) = &mut self.perc {
            if let Some(h) = p.dd.perc {
                self.ops.perc.push(PercOp::Train(h.row, h.way, p.gpv, resolved));
                perc.train(h.row, h.way, &p.gpv, resolved);
                let (pc, oc) = if p.dd.provider == DirectionProvider::Perceptron {
                    (h.dir == resolved, p.dd.alt_dir == resolved)
                } else {
                    (h.dir == resolved, p.dd.dir == resolved)
                };
                self.ops.perc.push(PercOp::Assess(h.row, h.way, pc, oc));
                perc.assess(h.row, h.way, pc, oc);
            } else if dir_wrong {
                self.ops.perc.push(PercOp::Install(rec.addr));
                if perc.install(rec.addr) {
                    self.bad.perc_installs += 1;
                }
            }
        }
        if rec.taken {
            match p.tgt {
                Some((t, prov)) if t != rec.target => match prov {
                    TargetProvider::Btb => {
                        self.b1_update(rec.addr, |e| {
                            e.multi_target = true;
                            e.target = rec.target;
                        });
                        if let Some(ctb) = &mut self.ctb {
                            self.ops.ctb.push(CtbOp::Install(rec.addr, p.gpv, rec.target));
                            ctb.install(rec.addr, &p.gpv, rec.target);
                            self.bad.ctb_writes += 1;
                        }
                    }
                    TargetProvider::Ctb => {
                        if let Some(ctb) = &mut self.ctb {
                            self.ops.ctb.push(CtbOp::Retarget(rec.addr, p.gpv, rec.target));
                            ctb.retarget(rec.addr, &p.gpv, rec.target);
                            self.bad.ctb_writes += 1;
                        }
                    }
                    TargetProvider::Crs => {
                        self.b1_update(rec.addr, |e| e.crs_blacklisted = true);
                        if let Some(crs) = &mut self.crs {
                            self.ops.crs.push(CrsOp::Blacklist);
                            crs.note_blacklist();
                        }
                    }
                },
                Some(_) => {}
                None if !p.dd.dir.is_taken() => self.b1_update(rec.addr, |e| e.target = rec.target),
                None => {}
            }
        }
        if self.cfg.btb2.is_some() {
            self.ops.btb2.push(Btb2Op::NoteQuiet);
        }
    }

    /// The CRS part of a completion (after any surprise install).
    fn finish_crs_tail(&mut self) {
        if !matches!(self.tail, Tail::Crs(_)) {
            return;
        }
        let Tail::Crs(p) = std::mem::replace(&mut self.tail, Tail::None) else { return };
        let rec = p.rec;
        self.tail = Tail::Skoot(rec);
        let Some(mut crs) = self.crs.take() else { return };
        if rec.taken {
            let wrong_target =
                p.dynamic && p.tgt.is_some_and(|(t, _)| p.dd.dir.is_taken() && t != rec.target);
            if wrong_target {
                let blacklisted = self.btb1.probe(rec.addr).is_some_and(|(_, e)| e.crs_blacklisted);
                if blacklisted {
                    self.ops.crs.push(CrsOp::DetectMatches(rec.target));
                    let still = crs.detect_stack_matches(0, rec.target);
                    self.ops.crs.push(CrsOp::Amnesty(still));
                    if crs.amnesty_due(still) {
                        self.b1_update(rec.addr, |e| e.crs_blacklisted = false);
                        self.bad.amnesties += 1;
                    }
                }
            }
            self.ops.crs.push(CrsOp::NoteCompleted(rec.addr, rec.target, rec.fall_through()));
            if let Some(off) = crs.note_completed_taken(0, rec.addr, rec.target, rec.fall_through())
            {
                self.b1_update(rec.addr, |e| e.return_offset = Some(off));
                self.bad.crs_detects += 1;
            }
        }
        self.crs = Some(crs);
    }

    /// Everything left of a completion: CRS, then SKOOT learning.
    fn finish_tail(&mut self) {
        self.finish_crs_tail();
        let Tail::Skoot(rec) = std::mem::replace(&mut self.tail, Tail::None) else { return };
        if self.cfg.skoot {
            if let Some((prev, prev_target)) = self.last_completed_taken.take() {
                if rec.addr.raw() >= prev_target.raw() {
                    let lines = rec.addr.line64_number() - prev_target.line64_number();
                    self.b1_update(prev, |e| e.skoot.learn(lines));
                }
            }
        }
        if rec.taken {
            self.last_completed_taken = Some((rec.addr, rec.target));
        }
    }

    fn flush(&mut self) {
        let Some(rec) = self.next_rec.checked_sub(1).and_then(|i| self.recs.get(i)).copied() else {
            self.bad.decisions += 1;
            return;
        };
        self.spec_gpv.restore_from(&self.arch_gpv);
        self.gpq.clear();
        self.sbht.flush();
        self.spht.flush();
        if let Some(crs) = &mut self.crs {
            self.ops.crs.push(CrsOp::Flush);
            crs.flush(0);
        }
        self.next_stream_power = None;
        self.prev_stream_start = None;
        self.stream_reset_pending = false;
        self.enter_stream(rec.next_pc());
    }
}

// ----- timed replays ------------------------------------------------------------

/// Nanoseconds one `Instant::now()` costs here (median of a few tries).
pub fn now_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut d = Dist::default();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..N {
            std::hint::black_box(Instant::now());
        }
        d.push(t.elapsed().as_nanos() as f64 / f64::from(N));
    }
    d.median()
}

/// One recorded call into a structure, replayable against a fresh one.
trait Op: Copy {
    type On;
    /// Timing class: 0 is the layer's lookup side; 1 and 2 its updates.
    fn kind(&self) -> usize;
    /// Makes the call; returns what it observed (a hit, staged entries).
    fn apply(self, on: &mut Self::On) -> u64;
}

impl Op for Btb1Op {
    type On = Btb1;
    fn kind(&self) -> usize {
        match self {
            Btb1Op::Lookup(_) => 0,
            Btb1Op::Install(_) => 1,
            Btb1Op::Update(..) => 2,
        }
    }
    fn apply(self, b: &mut Btb1) -> u64 {
        match self {
            Btb1Op::Lookup(a) => u64::from(b.lookup(a).is_some()),
            Btb1Op::Install(e) => u64::from(matches!(b.install(e), InstallOutcome::Duplicate)),
            Btb1Op::Update(a, e) => u64::from(b.update(a, |x| *x = e)),
        }
    }
}

impl Op for Btb2Op {
    type On = Btb2;
    fn kind(&self) -> usize {
        usize::from(!matches!(self, Btb2Op::Search(..)))
    }
    fn apply(self, b: &mut Btb2) -> u64 {
        match self {
            Btb2Op::NoteSearch(hit) => u64::from(b.note_btb1_search(hit).is_some()),
            Btb2Op::TakeRefresh => u64::from(b.take_refresh_due()),
            Btb2Op::Refresh(e) => {
                b.refresh(e);
                0
            }
            Btb2Op::Search(a, r) => {
                let staged = b.search(a, r);
                while b.pop_staged().is_some() {}
                staged as u64
            }
            Btb2Op::Fill(e) => {
                b.fill(e);
                0
            }
            Btb2Op::Invalidate(e) => u64::from(b.invalidate(&e)),
            Btb2Op::NoteDisruptive => u64::from(b.note_disruptive_branch().is_some()),
            Btb2Op::NoteQuiet => {
                b.note_quiet_completion();
                0
            }
        }
    }
}

impl Op for PhtOp {
    type On = Pht;
    fn kind(&self) -> usize {
        usize::from(!matches!(self, PhtOp::Lookup(..) | PhtOp::Choose(_)))
    }
    fn apply(self, p: &mut Pht) -> u64 {
        match self {
            PhtOp::Lookup(a, w, g) => u64::from(p.lookup(a, w, &g).long.is_some()),
            PhtOp::Choose(l) => u64::from(p.choose(&l).is_some()),
            PhtOp::Strengthen(h, d) => {
                p.strengthen(&h, d);
                0
            }
            PhtOp::Train(l, h, alt, d) => {
                p.train(&l, h, alt, d);
                0
            }
            PhtOp::Allocate(a, w, g, d, tb) => {
                p.allocate(a, w, &g, d, tb);
                0
            }
        }
    }
}

impl Op for PercOp {
    type On = Perceptron;
    fn kind(&self) -> usize {
        usize::from(!matches!(self, PercOp::Lookup(..)))
    }
    fn apply(self, p: &mut Perceptron) -> u64 {
        match self {
            PercOp::Lookup(a, g) => u64::from(p.lookup(a, &g).is_some()),
            PercOp::Train(r, w, g, d) => {
                p.train(r, w, &g, d);
                0
            }
            PercOp::Assess(r, w, a, b) => {
                p.assess(r, w, a, b);
                0
            }
            PercOp::Install(a) => u64::from(p.install(a)),
        }
    }
}

impl Op for CtbOp {
    type On = Ctb;
    fn kind(&self) -> usize {
        usize::from(!matches!(self, CtbOp::Lookup(..)))
    }
    fn apply(self, c: &mut Ctb) -> u64 {
        match self {
            CtbOp::Lookup(a, g) => u64::from(c.lookup(a, &g).is_some()),
            CtbOp::Install(a, g, t) => {
                c.install(a, &g, t);
                0
            }
            CtbOp::Retarget(a, g, t) => {
                c.retarget(a, &g, t);
                0
            }
        }
    }
}

impl Op for CrsOp {
    type On = Crs;
    fn kind(&self) -> usize {
        usize::from(!matches!(self, CrsOp::Provide(_)))
    }
    fn apply(self, c: &mut Crs) -> u64 {
        match self {
            CrsOp::Provide(off) => u64::from(c.provide(0, off).is_some()),
            CrsOp::NotePredicted(b, t, n) => {
                c.note_predicted_taken(0, b, t, n);
                0
            }
            CrsOp::NoteCompleted(b, t, n) => {
                u64::from(c.note_completed_taken(0, b, t, n).is_some())
            }
            CrsOp::DetectMatches(t) => u64::from(c.detect_stack_matches(0, t)),
            CrsOp::Blacklist => {
                c.note_blacklist();
                0
            }
            CrsOp::Amnesty(still) => u64::from(c.amnesty_due(still)),
            CrsOp::Flush => {
                c.flush(0);
                0
            }
        }
    }
}

impl Op for StatsOp {
    type On = ZStats;
    fn kind(&self) -> usize {
        0
    }
    fn apply(self, s: &mut ZStats) -> u64 {
        match self {
            StatsOp::Direction(p, ok) => s.record_direction(p, ok),
            StatsOp::Target(p, ok) => s.record_target(p, ok),
        }
        1
    }
}

/// One BTB1 write offered to the write queue: one push and one drain
/// step per write, a cycle apart.
#[derive(Clone, Copy)]
struct WriteOp(WriteSource, InstrAddr);

impl Op for WriteOp {
    type On = (WriteQueue, u64);
    fn kind(&self) -> usize {
        0
    }
    fn apply(self, (q, cycle): &mut (WriteQueue, u64)) -> u64 {
        *cycle += 1;
        u64::from(q.push(self.0, self.1, *cycle)) + u64::from(q.step(*cycle).is_some())
    }
}

/// One timing class of a replayed stream.
#[derive(Default, Clone, Copy)]
pub struct Cost {
    /// Nanoseconds of one replay (median over `REPS`).
    pub ns: f64,
    pub calls: u64,
    /// Sum of what the calls observed.
    pub observed: u64,
}

impl Cost {
    fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.observed += other.observed;
    }

    pub fn per_call(&self) -> f64 {
        self.ns / self.calls.max(1) as f64
    }
}

/// Replays `ops` `REPS` times against fresh structures, timing each
/// class. Consecutive operations of one class form a segment timed with
/// one clock read at each end; the clock's own cost is taken off each
/// segment.
fn time_ops<O: Op>(ops: &[O], now_ns: f64, fresh: impl Fn() -> O::On) -> [Cost; 3] {
    let mut out = [Cost::default(); 3];
    let mut ns: [Dist; 3] = Default::default();
    for o in ops {
        out[o.kind()].calls += 1;
    }
    for _ in 0..REPS {
        let mut on = fresh();
        let mut rep_ns = [0f64; 3];
        let mut observed = [0u64; 3];
        if let Some(first) = ops.first() {
            let mut cur = first.kind();
            let mut t = Instant::now();
            for &o in ops {
                let k = o.kind();
                if k != cur {
                    let now = Instant::now();
                    rep_ns[cur] += (now - t).as_nanos() as f64 - now_ns;
                    t = now;
                    cur = k;
                }
                observed[k] += o.apply(&mut on);
            }
            rep_ns[cur] += t.elapsed().as_nanos() as f64 - now_ns;
        }
        std::hint::black_box(&observed);
        for k in 0..3 {
            ns[k].push(rep_ns[k]);
            out[k].observed = observed[k];
        }
    }
    for (c, d) in out.iter_mut().zip(&ns) {
        c.ns = d.median();
    }
    out
}

/// The ledger of one workload, summed over its traces.
#[derive(Default)]
pub struct Ledger {
    pub btb1_search: Cost,
    pub btb1_install: Cost,
    pub btb1_update: Cost,
    pub btb2_search: Cost,
    pub btb2_bookkeeping: Cost,
    pub promotions: u64,
    pub promotions_used: u64,
    pub pht_lookup: Cost,
    pub pht_train: Cost,
    pub perc_lookup: Cost,
    pub perc_train: Cost,
    pub ctb_lookup: Cost,
    pub ctb_write: Cost,
    pub crs_provide: Cost,
    pub crs_update: Cost,
    pub write_queue: Cost,
    pub stats: Cost,
    /// Disagreements between mirror, replays and model (must be 0).
    pub mismatches: u64,
    /// The first trace that disagreed, and how.
    pub first_mismatch: Option<String>,
}

impl Ledger {
    /// Nanoseconds of every timed structure call (the write queue is off
    /// the replay path and not counted).
    pub fn structure_ns(&self) -> f64 {
        [
            self.btb1_search,
            self.btb1_install,
            self.btb1_update,
            self.btb2_search,
            self.btb2_bookkeeping,
            self.pht_lookup,
            self.pht_train,
            self.perc_lookup,
            self.perc_train,
            self.ctb_lookup,
            self.ctb_write,
            self.crs_provide,
            self.crs_update,
            self.stats,
        ]
        .iter()
        .map(|c| c.ns)
        .sum()
    }

    /// Captures, mirrors and replays one trace into the ledger. The
    /// capture must reproduce `reference`, the untraced run's report.
    pub fn add_trace(
        &mut self,
        cfg: &PredictorConfig,
        trace: &DynamicTrace,
        reference: &SessionReport,
        now_ns: f64,
    ) {
        let (events, run, model_zstats) = capture(cfg, trace);
        let mut m = Mirror::new(cfg, trace.as_slice());
        for ev in events {
            m.handle(ev);
        }
        m.finish_tail();
        let mut bad = std::mem::take(&mut m.bad);
        bad.run_stats +=
            u64::from(run.stats != reference.stats || run.flushes != reference.flushes);
        bad.zstats += u64::from(
            m.zstats.direction != model_zstats.direction || m.zstats.target != model_zstats.target,
        );
        self.promotions += m.promotions;
        self.promotions_used += m.promotions_used;

        let [search, install, update] = time_ops(&m.ops.btb1, now_ns, || Btb1::new(&cfg.btb1));
        bad.btb1_replay_hits += u64::from(search.observed != m.btb1_hits);
        self.btb1_search.add(search);
        self.btb1_install.add(install);
        self.btb1_update.add(update);
        if let Some(b2) = &cfg.btb2 {
            let line = cfg.btb1.search_bytes;
            let [search, bookkeeping, _] = time_ops(&m.ops.btb2, now_ns, || Btb2::new(b2, line));
            bad.btb2_staged += u64::from(search.observed != m.staged);
            self.btb2_search.add(search);
            self.btb2_bookkeeping.add(bookkeeping);
        }
        let [lookup, train, _] =
            time_ops(&m.ops.pht, now_ns, || Pht::new(&cfg.direction, cfg.btb1.ways));
        self.pht_lookup.add(lookup);
        self.pht_train.add(train);
        if let Some(p) = &cfg.direction.perceptron {
            let [lookup, train, _] = time_ops(&m.ops.perc, now_ns, || Perceptron::new(p));
            self.perc_lookup.add(lookup);
            self.perc_train.add(train);
        }
        if let Some(c) = &cfg.ctb {
            let [lookup, write, _] = time_ops(&m.ops.ctb, now_ns, || Ctb::new(c));
            self.ctb_lookup.add(lookup);
            self.ctb_write.add(write);
        }
        if let Some(c) = &cfg.crs {
            let [provide, update, _] = time_ops(&m.ops.crs, now_ns, || Crs::new(c));
            self.crs_provide.add(provide);
            self.crs_update.add(update);
        }
        self.stats.add(time_ops(&m.ops.stats, now_ns, ZStats::new)[0]);
        // The functional model applies BTB1 writes directly; the write
        // queue is timed on the same write stream for its own figure.
        let wq = || (WriteQueue::new(WRITE_QUEUE_DEPTH), 0);
        self.write_queue.add(time_ops(&m.ops.write_queue, now_ns, wq)[0]);

        if bad.total() > 0 {
            self.mismatches += bad.total();
            self.first_mismatch.get_or_insert_with(|| format!("{}: {bad:?}", trace.label()));
        }
    }
}

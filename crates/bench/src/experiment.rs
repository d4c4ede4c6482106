//! The unified experiment engine: one builder that fans `(config,
//! workload)` cells across worker threads and merges deterministically.
//!
//! Every experiment binary used to hand-roll the same loop: build a
//! predictor, generate a trace, run the 32-deep delayed-update harness,
//! merge statistics. [`Experiment`] owns that loop once, adds
//! trace caching (each `(workload, seed, instrs)` trace is generated
//! exactly once per process and shared via `Arc`), and parallelises the
//! cells with `std::thread::scope`.
//!
//! Determinism is load-bearing: each cell is an independent computation
//! over an immutable shared trace, and results are merged in declared
//! entry order × suite workload order regardless of which worker
//! finished first — so the output (and any table derived from it) is
//! byte-identical to a serial run. Timing is reported on stderr only,
//! keeping stdout stable for golden-file comparison.
//!
//! ```
//! use zbp_bench::Experiment;
//! use zbp_core::GenerationPreset;
//!
//! let result = Experiment::new(&GenerationPreset::Z15.config())
//!     .suite(1, 2_000)
//!     .threads(2)
//!     .run();
//! assert_eq!(result.entries.len(), 1);
//! assert!(result.entries[0].total.branches.get() > 0);
//! ```

use crate::cli::BenchArgs;
use crate::json::{append_records, telemetry_json, BenchRecord};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use zbp_core::{PredictorConfig, ZPredictor};
use zbp_model::{BranchTable, MispredictStats, Predictor, ReplayCore};
use zbp_serve::{PoolConfig, ReplayMode, ServeError, Session, ShardPool};
use zbp_telemetry::{Snapshot, Telemetry};
use zbp_trace::{workloads, Workload};
use zbp_verify::{verify_cell, VerifyLevel, VerifySummary};

/// The default delayed-update window depth used by all experiments.
pub const DEFAULT_HARNESS_DEPTH: usize = 32;

/// Resolves a requested thread count: `0` means one worker per
/// available core (falling back to 1 when that cannot be determined).
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

type Factory = Box<dyn Fn() -> Box<dyn Predictor> + Send + Sync>;

enum EntryKind {
    /// A `ZPredictor` built from a configuration (the predictor is kept
    /// so callers can inspect structure-level statistics).
    Config(Box<PredictorConfig>),
    /// An arbitrary [`Predictor`] factory (baselines).
    Factory(Factory),
}

struct Entry {
    label: String,
    kind: EntryKind,
}

/// The result of running one predictor over one workload.
///
/// This is what [`crate::run_workload`] returns; the `flushes` count
/// used to be silently dropped by the old tuple return.
#[derive(Debug)]
pub struct RunResult {
    /// Misprediction accounting for the run.
    pub stats: MispredictStats,
    /// Pipeline flushes delivered to the predictor.
    pub flushes: u64,
    /// Wall-clock time of the harness run (trace generation excluded
    /// when the trace was cached).
    pub wall_time: Duration,
    /// The predictor, for structure-level statistics.
    pub predictor: ZPredictor,
}

/// One `(entry, workload)` cell of an experiment.
#[derive(Debug)]
pub struct CellResult {
    /// Entry label (configuration or baseline name).
    pub entry: String,
    /// Workload label.
    pub workload: String,
    /// Workload generator seed.
    pub seed: u64,
    /// Workload instruction budget.
    pub instrs: u64,
    /// Misprediction accounting.
    pub stats: MispredictStats,
    /// Pipeline flushes.
    pub flushes: u64,
    /// Wall-clock time of this cell's harness run.
    pub wall_time: Duration,
    /// The predictor, for configuration entries ([`None`] for
    /// factory-built baselines, which may not be `Send`).
    pub predictor: Option<ZPredictor>,
    /// Telemetry recorded during this cell's run ([`None`] when the
    /// experiment was not traced). Harness-level and predictor-level
    /// snapshots are merged, harness first, so the result is
    /// deterministic at any thread count.
    pub telemetry: Option<Snapshot>,
    /// White-box verification verdict for this cell ([`None`] unless
    /// [`Experiment::verify`] was requested; always [`None`] for
    /// factory baselines, which the reference models do not cover).
    pub verify: Option<VerifySummary>,
    /// Per-static-branch profile ([`None`] unless
    /// [`Experiment::profile`] was requested; serve-mode configuration
    /// cells do not profile).
    pub profile: Option<BranchTable>,
    /// Modelled hardware budget of this cell's predictor in bits
    /// (`0` when the predictor does not model one).
    pub storage_bits: u64,
}

/// All cells for one entry, plus the suite-merged total.
#[derive(Debug)]
pub struct EntryResult {
    /// Entry label.
    pub label: String,
    /// Per-workload cells, in suite order.
    pub cells: Vec<CellResult>,
    /// Statistics merged across all cells (the paper's "average … on
    /// common LSPR workloads").
    pub total: MispredictStats,
    /// Total flushes across all cells.
    pub flushes: u64,
}

/// The result of [`Experiment::run`].
#[derive(Debug)]
pub struct ExperimentResult {
    /// Entry results in declared order.
    pub entries: Vec<EntryResult>,
    /// End-to-end wall time, including trace generation.
    pub wall_time: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl ExperimentResult {
    /// Looks up an entry by label.
    pub fn entry(&self, label: &str) -> Option<&EntryResult> {
        self.entries.iter().find(|e| e.label == label)
    }

    /// Flattens every cell into a [`BenchRecord`] under the given
    /// experiment name.
    pub fn records(&self, experiment: &str) -> Vec<BenchRecord> {
        self.entries
            .iter()
            .flat_map(|e| e.cells.iter())
            .map(|c| BenchRecord {
                experiment: experiment.to_string(),
                config: c.entry.clone(),
                workload: c.workload.clone(),
                instrs: c.instrs,
                seed: c.seed,
                mpki: c.stats.mpki(),
                dir_acc: c.stats.direction_accuracy().fraction(),
                coverage: c.stats.coverage().fraction(),
                branches: c.stats.branches.get(),
                mispredicts: c.stats.mispredictions(),
                flushes: c.flushes,
                wall_ms: c.wall_time.as_secs_f64() * 1e3,
                threads: self.threads as u64,
                telemetry: c.telemetry.as_ref().map(telemetry_json),
            })
            .collect()
    }
}

/// Builder for a multi-configuration, multi-workload experiment.
///
/// See the [module documentation](self) for the execution model.
pub struct Experiment {
    name: String,
    entries: Vec<Entry>,
    workloads: Vec<Workload>,
    threads: usize,
    depth: usize,
    json: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    verify: Option<VerifyLevel>,
    serve: Option<usize>,
    profile: bool,
}

impl Experiment {
    /// Creates an experiment with one entry, labelled by the
    /// configuration's own `name`.
    pub fn new(cfg: &PredictorConfig) -> Self {
        Self::bare().config(cfg.name.clone(), cfg)
    }

    /// Creates an experiment with no entries yet; add them with
    /// [`config`](Self::config) / [`predictor`](Self::predictor).
    pub fn bare() -> Self {
        Experiment {
            name: default_experiment_name(),
            entries: Vec::new(),
            workloads: Vec::new(),
            threads: 0,
            depth: DEFAULT_HARNESS_DEPTH,
            json: None,
            telemetry: None,
            verify: None,
            serve: None,
            profile: false,
        }
    }

    /// Overrides the experiment name used in JSON records (defaults to
    /// the current executable's file stem).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Adds a `ZPredictor` configuration entry.
    pub fn config(mut self, label: impl Into<String>, cfg: &PredictorConfig) -> Self {
        self.entries
            .push(Entry { label: label.into(), kind: EntryKind::Config(Box::new(cfg.clone())) });
        self
    }

    /// Adds an arbitrary predictor entry built per cell by `make`
    /// (used for academic baselines that are not `ZPredictor`s).
    pub fn predictor<P, F>(mut self, label: impl Into<String>, make: F) -> Self
    where
        P: Predictor + 'static,
        F: Fn() -> P + Send + Sync + 'static,
    {
        self.entries.push(Entry {
            label: label.into(),
            kind: EntryKind::Factory(Box::new(move || Box::new(make()))),
        });
        self
    }

    /// Adds a pre-boxed predictor entry — the registry path
    /// (`zbp-baselines` hands out `Box<dyn Predictor + Send>`, which
    /// cannot flow through the generic [`predictor`](Self::predictor)
    /// builder).
    pub fn predictor_boxed<F>(mut self, label: impl Into<String>, make: F) -> Self
    where
        F: Fn() -> Box<dyn Predictor + Send> + Send + Sync + 'static,
    {
        self.entries.push(Entry {
            label: label.into(),
            kind: EntryKind::Factory(Box::new(move || -> Box<dyn Predictor> { make() })),
        });
        self
    }

    /// Records a per-static-branch [`BranchTable`] in every inline
    /// cell (landing in [`CellResult::profile`]) — how the arena mines
    /// hard-to-predict branches. Profiling never changes predictions:
    /// profiled and unprofiled runs produce identical statistics.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Uses the standard LSPR-like suite at the given seed and
    /// per-workload instruction budget.
    pub fn suite(mut self, seed: u64, instrs: u64) -> Self {
        self.workloads = workloads::suite(seed, instrs);
        self
    }

    /// Adds a single workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workloads.push(w);
        self
    }

    /// Replaces the workload list.
    pub fn workloads(mut self, ws: Vec<Workload>) -> Self {
        self.workloads = ws;
        self
    }

    /// Sets the worker thread count; `0` (the default) means one per
    /// available core. The pool is capped at the number of cells.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the delayed-update window depth (default
    /// [`DEFAULT_HARNESS_DEPTH`]).
    pub fn harness_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// When `Some`, appends one [`BenchRecord`] per cell to this JSON
    /// Lines file after the run.
    pub fn json(mut self, path: Option<PathBuf>) -> Self {
        self.json = path;
        self
    }

    /// When `Some`, records telemetry in every cell and writes a Chrome
    /// trace-event timeline (one process per cell, in declared order) to
    /// this file after the run. Cell snapshots also land in
    /// [`CellResult::telemetry`] and, with a JSON sink, in each
    /// [`BenchRecord`]. Recording does not change predictions: traced
    /// and untraced runs produce identical statistics.
    pub fn telemetry(mut self, path: Option<PathBuf>) -> Self {
        self.telemetry = path;
        self
    }

    /// Runs white-box verification alongside every configuration cell:
    /// the differential checker (and, at [`VerifyLevel::Monitored`],
    /// the full monitor set) re-drives the cell's trace through a fresh
    /// predictor and the verdict lands in [`CellResult::verify`].
    /// Verification never touches the benchmark numbers — stats, JSON
    /// records and telemetry timelines are byte-identical with it on or
    /// off; verdicts are summarized on stderr only.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = Some(level);
        self
    }

    /// Routes configuration cells through an in-process
    /// [`ShardPool`] with the given shard count instead of running
    /// them inline: all cell sessions are opened up front, fed in
    /// interleaved batches, and closed in declared order, exercising
    /// the serving path end to end. Because every served stream runs
    /// on a private predictor, cell statistics and telemetry are
    /// byte-identical to a non-serve run; only
    /// [`CellResult::predictor`] becomes [`None`] (the pool drops a
    /// stream's predictor when it closes). Factory entries still run
    /// inline.
    pub fn serve(mut self, shards: usize) -> Self {
        self.serve = Some(shards.max(1));
        self
    }

    /// Applies the shared CLI arguments: thread count, JSON sink and
    /// telemetry sink. (`instrs`/`seed` feed [`suite`](Self::suite),
    /// which callers invoke explicitly because some experiments sweep
    /// them.)
    pub fn apply(self, args: &BenchArgs) -> Self {
        self.threads(args.threads).json(args.json.clone()).telemetry(args.telemetry.clone())
    }

    /// Runs every `(entry, workload)` cell and merges the results.
    pub fn run(self) -> ExperimentResult {
        let t0 = Instant::now();
        let n_entries = self.entries.len();
        let n_workloads = self.workloads.len();
        let n_cells = n_entries * n_workloads;
        let threads = resolve_threads(self.threads).min(n_cells.max(1));
        let traced = self.telemetry.is_some();
        let verify = self.verify;
        let profile = self.profile;

        let mut slots: Vec<Option<CellSlot>> = Vec::with_capacity(n_cells);
        if let Some(shards) = self.serve {
            slots = run_served(
                &self.entries,
                &self.workloads,
                self.depth,
                shards,
                traced,
                verify,
                profile,
            );
        } else if threads <= 1 || n_cells <= 1 {
            for ei in 0..n_entries {
                for wi in 0..n_workloads {
                    slots.push(Some(run_cell(
                        &self.entries[ei],
                        &self.workloads[wi],
                        self.depth,
                        traced,
                        verify,
                        profile,
                    )));
                }
            }
        } else {
            // Phase 1: pre-warm the trace cache over distinct workloads
            // so phase-2 workers hitting the same workload share one
            // generation instead of racing to generate duplicates.
            let widx = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..threads.min(n_workloads) {
                    s.spawn(|| loop {
                        let i = widx.fetch_add(1, Ordering::Relaxed);
                        if i >= n_workloads {
                            break;
                        }
                        let _ = self.workloads[i].cached_trace();
                    });
                }
            });
            // Phase 2: fan the cells out over a work-stealing index.
            // Each worker writes only its claimed slot, so the merge
            // below sees exactly one result per cell regardless of
            // scheduling.
            let cidx = AtomicUsize::new(0);
            let cells: Vec<Mutex<Option<CellSlot>>> =
                (0..n_cells).map(|_| Mutex::new(None)).collect();
            let entries = &self.entries;
            let workloads = &self.workloads;
            let depth = self.depth;
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| loop {
                        let i = cidx.fetch_add(1, Ordering::Relaxed);
                        if i >= n_cells {
                            break;
                        }
                        let (ei, wi) = (i / n_workloads, i % n_workloads);
                        let r =
                            run_cell(&entries[ei], &workloads[wi], depth, traced, verify, profile);
                        *cells[i].lock().expect("cell slot poisoned") = Some(r);
                    });
                }
            });
            for cell in cells {
                slots.push(cell.into_inner().expect("cell slot poisoned"));
            }
        }

        // Deterministic merge: declared entry order × suite workload
        // order, independent of completion order.
        let mut slot_iter = slots.into_iter();
        let mut entries_out = Vec::with_capacity(n_entries);
        for entry in &self.entries {
            let mut cells = Vec::with_capacity(n_workloads);
            let mut total = MispredictStats::new();
            let mut flushes = 0;
            for w in &self.workloads {
                let slot = slot_iter.next().flatten().expect("one result per cell");
                total.merge(&slot.stats);
                flushes += slot.flushes;
                cells.push(CellResult {
                    entry: entry.label.clone(),
                    workload: w.label.clone(),
                    seed: w.seed,
                    instrs: w.target_instrs,
                    stats: slot.stats,
                    flushes: slot.flushes,
                    wall_time: slot.wall_time,
                    predictor: slot.predictor,
                    telemetry: slot.telemetry,
                    verify: slot.verify,
                    profile: slot.profile,
                    storage_bits: slot.storage_bits,
                });
            }
            entries_out.push(EntryResult { label: entry.label.clone(), cells, total, flushes });
        }

        let result = ExperimentResult { entries: entries_out, wall_time: t0.elapsed(), threads };
        eprintln!(
            "[{}] {} cells on {} thread(s) in {:.1} ms",
            self.name,
            n_cells,
            threads,
            result.wall_time.as_secs_f64() * 1e3,
        );
        if let Some(level) = verify {
            // Verdicts go to stderr only: stdout and every sink stay
            // byte-identical whether verification ran or not.
            for (cell, v) in result
                .entries
                .iter()
                .flat_map(|e| e.cells.iter())
                .filter_map(|c| c.verify.as_ref().map(|v| (c, v)))
            {
                if v.is_clean() {
                    eprintln!(
                        "[{}] verify({level}) {}/{}: clean ({} checks)",
                        self.name, cell.entry, cell.workload, v.checks_passed,
                    );
                } else {
                    eprintln!(
                        "[{}] verify({level}) {}/{}: {} divergence(s), {} monitor violation(s); first: {}",
                        self.name,
                        cell.entry,
                        cell.workload,
                        v.divergences,
                        v.monitor_violations,
                        v.first_failure.as_deref().unwrap_or("<none>"),
                    );
                }
            }
        }
        if let Some(path) = &self.json {
            if let Err(e) = append_records(path, &result.records(&self.name)) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        if let Some(path) = &self.telemetry {
            if let Err(e) = write_timeline(path, &result) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        result
    }
}

/// Writes the experiment's Chrome trace-event timeline: one trace
/// process per `(entry, workload)` cell, in declared order — the same
/// order at any thread count, so the file is byte-identical across
/// `--threads` settings.
fn write_timeline(path: &Path, result: &ExperimentResult) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let cells: Vec<(String, &Snapshot)> = result
        .entries
        .iter()
        .flat_map(|e| e.cells.iter())
        .filter_map(|c| c.telemetry.as_ref().map(|s| (format!("{}/{}", c.entry, c.workload), s)))
        .collect();
    let f = std::fs::File::create(path)?;
    zbp_telemetry::chrome::write_chrome_trace(std::io::BufWriter::new(f), &cells)
}

struct CellSlot {
    stats: MispredictStats,
    flushes: u64,
    wall_time: Duration,
    predictor: Option<ZPredictor>,
    telemetry: Option<Snapshot>,
    verify: Option<VerifySummary>,
    profile: Option<BranchTable>,
    storage_bits: u64,
}

fn run_cell(
    entry: &Entry,
    w: &Workload,
    depth: usize,
    traced: bool,
    verify: Option<VerifyLevel>,
    profile: bool,
) -> CellSlot {
    let trace = w.cached_trace();
    let start = Instant::now();
    match &entry.kind {
        EntryKind::Config(cfg) => {
            let mut s = Session::open(trace.label(), cfg, ReplayMode::Delayed { depth }, traced);
            s.set_profiling(profile);
            s.feed(trace.as_slice());
            let (report, pred) = s.finish_into(trace.tail_instrs());
            let wall_time = start.elapsed();
            // Verification re-drives the trace through a *fresh* DUT
            // after the timed run, so neither the benchmark numbers nor
            // the reported wall time are touched by it.
            let verdict = verify.map(|level| verify_cell((**cfg).clone(), &trace, level));
            CellSlot {
                stats: report.stats,
                flushes: report.flushes,
                wall_time,
                predictor: pred,
                telemetry: report.telemetry,
                verify: verdict,
                profile: report.profile,
                storage_bits: cfg.storage_bits(),
            }
        }
        EntryKind::Factory(make) => {
            // Factory predictors are opaque `Predictor`s, so
            // `Session` (which owns a `ZPredictor`) does not apply;
            // they run on the streaming core directly, with only the
            // replay-level telemetry available — and no white-box
            // verification (the reference models shadow `ZPredictor`
            // internals).
            let mut p = make();
            let storage_bits = p.storage_bits();
            let mut tel = if traced { Telemetry::enabled() } else { Telemetry::disabled() };
            let mut core = ReplayCore::new(depth);
            core.set_profiling(profile);
            for rec in trace.branches() {
                core.step(&mut *p, rec, &mut tel);
            }
            let run = core.finish(&mut *p, trace.tail_instrs());
            CellSlot {
                stats: run.stats,
                flushes: run.flushes,
                wall_time: start.elapsed(),
                predictor: None,
                telemetry: traced.then_some(tel.into_snapshot()),
                verify: None,
                profile: run.profile,
                storage_bits,
            }
        }
    }
}

/// Retries a pool call through transient `Busy` rejections. The pool
/// is in-process and drained synchronously, so any other error is a
/// bug, not an operational condition.
fn pool_retry<T>(mut call: impl FnMut() -> Result<T, ServeError>) -> T {
    loop {
        match call() {
            Ok(v) => return v,
            Err(ServeError::Busy { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
            }
            Err(e) => panic!("shard pool error: {e}"),
        }
    }
}

/// Serve-mode cell execution: configuration cells become sessions on
/// one shared [`ShardPool`]; they are opened in declared order, fed in
/// interleaved batches (so sessions genuinely multiplex on shards),
/// and closed in order. Factory cells run inline as usual. Slot order
/// matches the inline paths exactly.
fn run_served(
    entries: &[Entry],
    workloads: &[Workload],
    depth: usize,
    shards: usize,
    traced: bool,
    verify: Option<VerifyLevel>,
    profile: bool,
) -> Vec<Option<CellSlot>> {
    const SERVE_BATCH: usize = 4096;

    struct Served {
        slot: usize,
        id: zbp_serve::StreamId,
        cfg: Box<PredictorConfig>,
        trace: std::sync::Arc<zbp_model::DynamicTrace>,
        cursor: usize,
        wall: Duration,
    }

    let pool = ShardPool::new(PoolConfig { shards, ..PoolConfig::default() });
    let n_cells = entries.len() * workloads.len();
    let mut slots: Vec<Option<CellSlot>> = (0..n_cells).map(|_| None).collect();
    let mut served: Vec<Served> = Vec::new();
    for (ei, entry) in entries.iter().enumerate() {
        for (wi, w) in workloads.iter().enumerate() {
            let slot = ei * workloads.len() + wi;
            match &entry.kind {
                EntryKind::Config(cfg) => {
                    let trace = w.cached_trace();
                    let label = format!("{}/{}", entry.label, w.label);
                    let t0 = Instant::now();
                    let opened = pool_retry(|| {
                        pool.open(&label, cfg, ReplayMode::Delayed { depth }, traced)
                    });
                    served.push(Served {
                        slot,
                        id: opened.id,
                        cfg: cfg.clone(),
                        trace,
                        cursor: 0,
                        wall: t0.elapsed(),
                    });
                }
                EntryKind::Factory(_) => {
                    slots[slot] = Some(run_cell(entry, w, depth, traced, verify, profile));
                }
            }
        }
    }
    // Interleaved feeding: every open session advances one batch per
    // round, so streams sharing a shard constantly alternate.
    loop {
        let mut progressed = false;
        for s in &mut served {
            let records = s.trace.as_slice();
            if s.cursor < records.len() {
                let end = (s.cursor + SERVE_BATCH).min(records.len());
                let batch = records[s.cursor..end].to_vec();
                let t0 = Instant::now();
                pool_retry(|| pool.feed(s.id, batch.clone()));
                s.wall += t0.elapsed();
                s.cursor = end;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for s in served {
        let t0 = Instant::now();
        let report = pool_retry(|| pool.close(s.id, s.trace.tail_instrs()));
        let wall_time = s.wall + t0.elapsed();
        let verdict = verify.map(|level| verify_cell((*s.cfg).clone(), &s.trace, level));
        slots[s.slot] = Some(CellSlot {
            stats: report.stats,
            flushes: report.flushes,
            wall_time,
            predictor: None,
            telemetry: report.telemetry,
            verify: verdict,
            // The pool does not expose per-session profiling; serve-mode
            // configuration cells report no table.
            profile: report.profile,
            storage_bits: s.cfg.storage_bits(),
        });
    }
    pool.shutdown();
    slots
}

fn default_experiment_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| String::from("experiment"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_core::GenerationPreset;
    use zbp_model::Prediction;

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let cfg = GenerationPreset::Z15.config();
        let serial = Experiment::new(&cfg).suite(7, 3_000).threads(1).run();
        let parallel = Experiment::new(&cfg).suite(7, 3_000).threads(4).run();
        assert_eq!(serial.entries.len(), parallel.entries.len());
        for (s, p) in serial.entries.iter().zip(&parallel.entries) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.total, p.total, "suite-merged stats must be identical");
            assert_eq!(s.flushes, p.flushes);
            for (sc, pc) in s.cells.iter().zip(&p.cells) {
                assert_eq!(sc.workload, pc.workload, "merge order must be workload order");
                assert_eq!(sc.stats, pc.stats, "cell {} differs", sc.workload);
                assert_eq!(sc.flushes, pc.flushes);
            }
        }
    }

    #[test]
    fn multi_entry_merge_preserves_declared_order() {
        let r = Experiment::bare()
            .config("z14", &GenerationPreset::Z14.config())
            .config("z15", &GenerationPreset::Z15.config())
            .suite(3, 2_000)
            .threads(3)
            .run();
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].label, "z14");
        assert_eq!(r.entries[1].label, "z15");
        assert!(r.entry("z15").is_some());
        assert!(r.entry("zzz").is_none());
        for e in &r.entries {
            assert_eq!(e.cells.len(), 6, "standard suite has six workloads");
            assert!(e.total.branches.get() > 0);
            assert!(e.cells.iter().all(|c| c.predictor.is_some()));
        }
    }

    #[test]
    fn factory_entries_run_without_zpredictor() {
        struct AlwaysNotTaken;
        impl Predictor for AlwaysNotTaken {
            fn predict(
                &mut self,
                _a: zbp_zarch::InstrAddr,
                _c: zbp_zarch::BranchClass,
            ) -> Prediction {
                Prediction::not_taken()
            }
            fn resolve(&mut self, _r: &zbp_model::BranchRecord, _p: &Prediction) {}
            fn name(&self) -> String {
                "always-nt".into()
            }
        }
        let r = Experiment::bare()
            .predictor("always-nt", || AlwaysNotTaken)
            .suite(5, 1_500)
            .threads(2)
            .run();
        assert_eq!(r.entries.len(), 1);
        let e = &r.entries[0];
        assert!(e.total.mispredictions() > 0, "static NT must mispredict taken branches");
        assert!(e.cells.iter().all(|c| c.predictor.is_none()));
    }

    #[test]
    fn records_cover_every_cell() {
        let cfg = GenerationPreset::Z13.config();
        let r = Experiment::new(&cfg).name("unit-test").suite(2, 1_500).threads(2).run();
        let recs = r.records("unit-test");
        assert_eq!(recs.len(), 6);
        assert!(recs.iter().all(|x| x.experiment == "unit-test"));
        assert!(recs.iter().all(|x| x.config == cfg.name));
        // The suite derives per-workload seeds base..base+5.
        assert!(recs.iter().all(|x| x.instrs == 1_500 && (2..8).contains(&x.seed)));
        assert!(recs.iter().all(|x| x.branches > 0));
    }

    #[test]
    fn telemetry_sink_writes_a_chrome_trace_without_perturbing_stats() {
        let dir = std::env::temp_dir().join(format!("zbp-tel-test-{}", std::process::id()));
        let path = dir.join("timeline.json");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = GenerationPreset::Z15.config();
        let plain = Experiment::new(&cfg).suite(4, 2_000).threads(2).run();
        let traced =
            Experiment::new(&cfg).suite(4, 2_000).threads(2).telemetry(Some(path.clone())).run();
        assert_eq!(
            plain.entries[0].total, traced.entries[0].total,
            "recording telemetry must not change predictions"
        );
        for c in &traced.entries[0].cells {
            let snap = c.telemetry.as_ref().expect("traced run fills every cell");
            assert_eq!(
                snap.counter("bpl.predictions"),
                c.stats.branches.get(),
                "one bpl.predictions count per predicted branch"
            );
            assert_eq!(snap.counter("harness.flushes"), c.flushes);
        }
        assert!(plain.entries[0].cells.iter().all(|c| c.telemetry.is_none()));
        let text = std::fs::read_to_string(&path).unwrap();
        let v = crate::json::Json::parse(&text).expect("timeline must be valid JSON");
        match v.get("traceEvents") {
            Some(crate::json::Json::Arr(evs)) => {
                assert!(!evs.is_empty(), "timeline must contain events")
            }
            other => panic!("traceEvents must be an array, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_hook_fills_cells_without_perturbing_stats() {
        let cfg = GenerationPreset::Z15.config();
        let plain = Experiment::new(&cfg).suite(6, 2_000).threads(2).run();
        let verified = Experiment::new(&cfg)
            .suite(6, 2_000)
            .threads(2)
            .verify(zbp_verify::VerifyLevel::Differential)
            .run();
        assert_eq!(
            plain.entries[0].total, verified.entries[0].total,
            "verification must not change the benchmark numbers"
        );
        assert!(plain.entries[0].cells.iter().all(|c| c.verify.is_none()));
        for c in &verified.entries[0].cells {
            let v = c.verify.as_ref().expect("verified run fills every cell");
            assert!(v.is_clean(), "{}/{}: {:?}", c.entry, c.workload, v.first_failure);
            assert!(v.checks_passed > 0);
            assert_eq!(v.monitor_violations, 0, "differential level skips the monitor set");
        }
    }

    #[test]
    fn serve_mode_matches_inline_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("zbp-serve-mode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = GenerationPreset::Z15.config();
        let inline = Experiment::bare()
            .config("z14", &GenerationPreset::Z14.config())
            .config("z15", &cfg)
            .suite(8, 2_500)
            .threads(2)
            .telemetry(Some(dir.join("inline.json")))
            .run();
        let served = Experiment::bare()
            .config("z14", &GenerationPreset::Z14.config())
            .config("z15", &cfg)
            .suite(8, 2_500)
            .serve(2)
            .telemetry(Some(dir.join("served.json")))
            .run();
        assert_eq!(inline.entries.len(), served.entries.len());
        for (i, s) in inline.entries.iter().zip(&served.entries) {
            assert_eq!(i.label, s.label);
            assert_eq!(i.total, s.total, "served suite totals must match inline");
            assert_eq!(i.flushes, s.flushes);
            for (ic, sc) in i.cells.iter().zip(&s.cells) {
                assert_eq!(ic.workload, sc.workload);
                assert_eq!(ic.stats, sc.stats, "cell {} diverged under serving", ic.workload);
                assert_eq!(ic.flushes, sc.flushes);
                assert_eq!(
                    ic.telemetry, sc.telemetry,
                    "cell {} telemetry diverged under serving",
                    ic.workload
                );
                assert!(sc.predictor.is_none(), "the pool keeps served predictors");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_sink_appends_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("zbp-exp-test-{}", std::process::id()));
        let path = dir.join("bench.json");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = Experiment::new(&GenerationPreset::Z15.config())
            .name("sink-test")
            .suite(9, 1_500)
            .threads(2)
            .json(Some(path.clone()))
            .run();
        let recs = crate::json::read_records(&path).unwrap();
        assert_eq!(recs.len(), 6);
        assert!(recs.iter().all(|x| x.experiment == "sink-test" && x.threads == 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

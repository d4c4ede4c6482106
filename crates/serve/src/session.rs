//! The unified replay API: one [`Session`] drives every replay mode
//! the workspace used to expose through three separate entry points
//! (a delayed-update harness plus standalone cosim/lookahead drivers,
//! all removed), and it can be fed incrementally — which is what lets
//! a shard serve many concurrently-open streams.

use zbp_core::{PredictorConfig, StateImage, ZPredictor};
use zbp_model::{
    BranchRecord, BranchTable, DynamicTrace, MispredictStats, ReplayBuffer, ReplayCore,
};
use zbp_telemetry::{Snapshot, Telemetry};
use zbp_uarch::{CosimConfig, CosimReport, LookaheadReport};

/// Builder for every way a [`Session`] can be configured and driven —
/// the single replay entry point that replaced the combinatorial
/// `run`/`run_traced`/`run_buffer`/`run_buffer_profiled` statics.
///
/// ```
/// use zbp_core::GenerationPreset;
/// use zbp_serve::{ReplayMode, Session};
///
/// let cfg = GenerationPreset::Z15.config();
/// let trace = zbp_trace::workloads::lspr_like(42, 5_000).dynamic_trace();
/// let report = Session::options(&cfg).mode(ReplayMode::default()).run(&trace);
/// assert_eq!(report.records, trace.branch_count());
/// ```
#[derive(Debug, Clone)]
pub struct SessionOptions<'a> {
    cfg: &'a PredictorConfig,
    mode: ReplayMode,
    traced: bool,
    profiling: bool,
    warmup: u64,
}

impl<'a> SessionOptions<'a> {
    fn new(cfg: &'a PredictorConfig) -> Self {
        SessionOptions {
            cfg,
            mode: ReplayMode::default(),
            traced: false,
            profiling: false,
            warmup: 0,
        }
    }

    /// Replay mode (default: 32-deep delayed-update).
    pub fn mode(mut self, mode: ReplayMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `mode(ReplayMode::Delayed { depth })`.
    pub fn depth(mut self, depth: usize) -> Self {
        self.mode = ReplayMode::Delayed { depth };
        self
    }

    /// Record telemetry into [`SessionReport::telemetry`]. Statistics
    /// are identical either way; the buffer fast path
    /// ([`run_buffer`](SessionOptions::run_buffer)) stays untraced.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.traced = on;
        self
    }

    /// Per-static-branch profiling into [`SessionReport::profile`]
    /// (delayed-mode only; whole-stream drivers own their replay loop
    /// and ignore the request).
    pub fn profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Statistics-off warmup: the first `records` fed records run the
    /// full protocol but are excluded from statistics, profiling and
    /// telemetry (delayed-mode only — the SimPoint slice-replay knob).
    pub fn warmup(mut self, records: u64) -> Self {
        self.warmup = records;
        self
    }

    /// Opens an incremental session with these options.
    pub fn open(self, label: impl Into<String>) -> Session {
        let mut s = Session::open(label, self.cfg, self.mode, self.traced);
        if self.profiling {
            s.set_profiling(true);
        }
        if self.warmup > 0 {
            s.set_warmup(self.warmup);
        }
        s
    }

    /// One-shot replay of a whole trace.
    pub fn run(self, trace: &DynamicTrace) -> SessionReport {
        match self.mode {
            // Streaming path: identical to a served session fed in
            // batches — that equivalence is what makes pool results
            // byte-comparable to local runs.
            ReplayMode::Delayed { .. } => {
                let tail = trace.tail_instrs();
                let mut s = self.open(trace.label().to_string());
                s.feed(trace.as_slice());
                s.finish(tail)
            }
            // Whole-trace analyses run on the caller's trace directly
            // (no buffering copy).
            ReplayMode::Cosim(ccfg) => run_whole(
                self.cfg,
                &WholeMode::Cosim(ccfg),
                trace,
                self.traced,
                trace.branch_count(),
            ),
            ReplayMode::Lookahead => {
                run_whole(self.cfg, &WholeMode::Lookahead, trace, self.traced, trace.branch_count())
            }
        }
    }

    /// One-shot replay of a pre-decoded [`ReplayBuffer`] under the
    /// delayed-update protocol — the fast path. The predictor may claim
    /// the run with its config-monomorphized kernel (`ZPredictor` does
    /// for the default z15 shape); either way the report is
    /// byte-identical to [`run`](SessionOptions::run) over the buffer's
    /// source trace at the same depth. Uses the mode's depth when the
    /// mode is delayed, [`DEFAULT_DEPTH`] otherwise; telemetry and
    /// warmup do not apply on this path.
    ///
    /// ```
    /// use zbp_core::GenerationPreset;
    /// use zbp_model::ReplayBuffer;
    /// use zbp_serve::{ReplayMode, Session};
    ///
    /// let trace = zbp_trace::workloads::compute_loop(1, 2_000).dynamic_trace();
    /// let buf = ReplayBuffer::from_trace(&trace);
    /// let cfg = GenerationPreset::Z15.config();
    /// let fast = Session::options(&cfg).run_buffer(&buf);
    /// let streamed = Session::options(&cfg).mode(ReplayMode::default()).run(&trace);
    /// assert_eq!(fast.stats, streamed.stats);
    /// ```
    pub fn run_buffer(self, buf: &ReplayBuffer) -> SessionReport {
        let depth = match self.mode {
            ReplayMode::Delayed { depth } => depth,
            _ => DEFAULT_DEPTH,
        };
        let mut pred = ZPredictor::new(self.cfg.clone());
        let run = ReplayCore::run_buffer_with(depth, &mut pred, buf, self.profiling);
        SessionReport {
            stats: run.stats,
            flushes: run.flushes,
            records: buf.len() as u64,
            cosim: None,
            lookahead: None,
            telemetry: None,
            profile: run.profile,
        }
    }
}

/// Default delayed-update window depth, matching the experiment
/// engine's standard harness.
pub const DEFAULT_DEPTH: usize = 32;

/// How a session replays its stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayMode {
    /// Functional replay under the delayed-update protocol: a FIFO of
    /// `depth` in-flight branches between predict and complete. The
    /// only mode that consumes records *incrementally* — batches step
    /// the predictor as they arrive.
    Delayed {
        /// In-flight window depth (0 = immediate update).
        depth: usize,
    },
    /// Cycle-stepped co-simulation of the BPL against the fetch/decode
    /// front end. Whole-stream analysis: fed records are buffered and
    /// the pipeline runs at [`Session::finish`].
    Cosim(CosimConfig),
    /// Lookahead line-search mode with IDU screening. Whole-stream
    /// analysis (the branch-site set needs the full stream first).
    Lookahead,
}

impl Default for ReplayMode {
    /// The standard 32-deep delayed-update replay.
    fn default() -> Self {
        ReplayMode::Delayed { depth: DEFAULT_DEPTH }
    }
}

impl ReplayMode {
    /// Short mode tag used in logs and results.
    pub fn tag(&self) -> &'static str {
        match self {
            ReplayMode::Delayed { .. } => "delayed",
            ReplayMode::Cosim(_) => "cosim",
            ReplayMode::Lookahead => "lookahead",
        }
    }
}

/// What a completed session hands back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionReport {
    /// Misprediction accounting for the stream.
    pub stats: MispredictStats,
    /// Pipeline restarts delivered to the predictor (for
    /// [`ReplayMode::Cosim`] this is the report's restart count; for
    /// [`ReplayMode::Lookahead`] every mispredict flushes once).
    pub flushes: u64,
    /// Branch records consumed.
    pub records: u64,
    /// Cycle accounting, for [`ReplayMode::Cosim`] sessions.
    pub cosim: Option<CosimReport>,
    /// Line-search accounting, for [`ReplayMode::Lookahead`] sessions.
    pub lookahead: Option<LookaheadReport>,
    /// Merged harness- and predictor-level telemetry, when the session
    /// was opened traced.
    pub telemetry: Option<Snapshot>,
    /// Per-static-branch profile, when
    /// [`set_profiling`](Session::set_profiling) was requested on a
    /// delayed-mode session (whole-stream modes do not profile).
    pub profile: Option<BranchTable>,
}

/// The whole-stream subset of [`ReplayMode`]. Splitting this off at
/// session-open time means [`run_whole`] cannot be handed a delayed
/// mode by construction — no runtime "delayed mode streams" check.
enum WholeMode {
    Cosim(CosimConfig),
    Lookahead,
}

enum Engine {
    /// Streaming: each fed record steps the predictor immediately.
    Delayed { pred: Box<ZPredictor>, core: ReplayCore, harness_tel: Telemetry },
    /// Whole-stream: records accumulate and the analysis runs at
    /// finish.
    Buffered { cfg: Box<PredictorConfig>, mode: WholeMode, trace: DynamicTrace },
}

/// One prediction stream: open → feed [`BranchRecord`] batches →
/// [`finish`](Session::finish) for the [`SessionReport`].
///
/// `Session` is the single replay entry point for the workspace. The
/// [`Session::options`] builder covers every one-shot shape (trace or
/// buffer, traced, profiled, warmed up); the streaming surface
/// (`open`/`feed`/`finish`) is what `ShardPool` multiplexes over
/// predictor shards; and [`Session::snapshot`]/[`Session::resume`]
/// image a warm stream mid-flight for live migration.
///
/// ```
/// use zbp_core::GenerationPreset;
/// use zbp_serve::Session;
/// use zbp_trace::workloads;
///
/// let trace = workloads::lspr_like(42, 5_000).dynamic_trace();
/// let report = Session::options(&GenerationPreset::Z15.config()).run(&trace);
/// assert_eq!(report.records, trace.branch_count());
/// assert!(report.stats.mpki() > 0.0);
/// ```
pub struct Session {
    label: String,
    traced: bool,
    engine: Engine,
    records: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("label", &self.label)
            .field("traced", &self.traced)
            .field("records", &self.records)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a stream on a fresh predictor built from `cfg`. With
    /// `traced`, harness- and predictor-level telemetry record into the
    /// final report's [`SessionReport::telemetry`]; statistics are
    /// identical either way.
    pub fn open(
        label: impl Into<String>,
        cfg: &PredictorConfig,
        mode: ReplayMode,
        traced: bool,
    ) -> Session {
        let label = label.into();
        match mode {
            ReplayMode::Delayed { depth } => {
                let mut pred = ZPredictor::new(cfg.clone());
                let harness_tel = if traced {
                    pred.set_telemetry(Telemetry::enabled());
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                let core = ReplayCore::new(depth);
                Session {
                    label,
                    traced,
                    engine: Engine::Delayed { pred: Box::new(pred), core, harness_tel },
                    records: 0,
                }
            }
            ReplayMode::Cosim(ccfg) => {
                Session::open_buffered(label, cfg, WholeMode::Cosim(ccfg), traced)
            }
            ReplayMode::Lookahead => {
                Session::open_buffered(label, cfg, WholeMode::Lookahead, traced)
            }
        }
    }

    /// Opens a buffering session for a whole-stream mode: fed records
    /// accumulate into a trace and the analysis runs at
    /// [`finish`](Session::finish).
    fn open_buffered(
        label: String,
        cfg: &PredictorConfig,
        mode: WholeMode,
        traced: bool,
    ) -> Session {
        Session {
            traced,
            engine: Engine::Buffered {
                cfg: Box::new(cfg.clone()),
                mode,
                trace: DynamicTrace::new(label.clone()),
            },
            label,
            records: 0,
        }
    }

    /// Turns per-static-branch profiling on (or off) for a
    /// delayed-mode session; the table lands in
    /// [`SessionReport::profile`]. Whole-stream modes ignore the
    /// request — their drivers own the replay loop. Profiling never
    /// changes predictions or statistics.
    pub fn set_profiling(&mut self, on: bool) {
        if let Engine::Delayed { core, .. } = &mut self.engine {
            core.set_profiling(on);
        }
    }

    /// Arms warmup for a delayed-mode session: the next `records` fed
    /// records run the full predict/resolve/flush protocol — so
    /// predictor state evolves exactly as in live replay — but are
    /// excluded from statistics, profiling, and telemetry. This is the
    /// SimPoint slice-replay entry point: feed the warmup prefix, then
    /// the measured slice, in one stream. Whole-stream modes ignore the
    /// request.
    pub fn set_warmup(&mut self, records: u64) {
        if let Engine::Delayed { core, .. } = &mut self.engine {
            core.set_warmup(records);
        }
    }

    /// The stream label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Branch records consumed so far.
    pub fn records_fed(&self) -> u64 {
        self.records
    }

    /// Feeds one batch of branch records. Delayed-mode sessions step
    /// the predictor record by record; whole-stream modes buffer until
    /// [`finish`](Session::finish).
    pub fn feed(&mut self, batch: &[BranchRecord]) {
        self.records += batch.len() as u64;
        match &mut self.engine {
            Engine::Delayed { pred, core, harness_tel } => {
                for rec in batch {
                    core.step(pred.as_mut(), rec, harness_tel);
                }
            }
            Engine::Buffered { trace, .. } => {
                for rec in batch {
                    trace.push(*rec);
                }
            }
        }
    }

    /// Ends the stream: drains in-flight state (or runs the buffered
    /// whole-stream analysis), accounts `tail_instrs` straight-line
    /// instructions after the final branch, and returns the report.
    pub fn finish(self, tail_instrs: u64) -> SessionReport {
        self.finish_into(tail_instrs).0
    }

    /// Like [`finish`](Session::finish), additionally handing back the
    /// predictor — for callers that inspect structure-level statistics
    /// after the run. `None` for the whole-stream modes, whose drivers
    /// own their predictor internally.
    pub fn finish_into(self, tail_instrs: u64) -> (SessionReport, Option<ZPredictor>) {
        let traced = self.traced;
        let records = self.records;
        match self.engine {
            Engine::Delayed { mut pred, core, harness_tel } => {
                let run = core.finish(pred.as_mut(), tail_instrs);
                let telemetry = traced.then(|| {
                    // Same reduction order as the experiment engine's
                    // traced cells: harness snapshot first, then the
                    // predictor's.
                    let mut snap = harness_tel.into_snapshot();
                    snap.merge(&pred.take_telemetry().into_snapshot());
                    snap
                });
                let report = SessionReport {
                    stats: run.stats,
                    flushes: run.flushes,
                    records,
                    cosim: None,
                    lookahead: None,
                    telemetry,
                    profile: run.profile,
                };
                (report, Some(*pred))
            }
            Engine::Buffered { cfg, mode, mut trace } => {
                trace.push_tail_instrs(tail_instrs);
                (run_whole(&cfg, &mode, &trace, traced, records), None)
            }
        }
    }

    /// Starts a [`SessionOptions`] builder over `cfg` — the unified
    /// entry point for one-shot and incremental replay in every
    /// [`ReplayMode`].
    pub fn options(cfg: &PredictorConfig) -> SessionOptions<'_> {
        SessionOptions::new(cfg)
    }

    /// Images a delayed-mode, untraced session mid-stream: the replay
    /// core's in-flight window plus a [`StateImage`] of the predictor.
    /// Feeding the resumed session ([`Session::resume`]) the rest of
    /// the stream produces a report byte-identical to one that never
    /// paused — the live-migration primitive `ShardPool` uses to move
    /// warm sessions between shards.
    ///
    /// Returns `None` for whole-stream modes (their drivers own the
    /// replay loop) and for traced sessions (telemetry is host-owned
    /// state and does not travel).
    pub fn snapshot(&self) -> Option<SessionImage> {
        match &self.engine {
            Engine::Delayed { pred, core, .. } if !self.traced => Some(SessionImage {
                label: self.label.clone(),
                records: self.records,
                core: core.clone(),
                state: pred.snapshot(),
            }),
            _ => None,
        }
    }

    /// Rebuilds a session from an image, on a fresh predictor. The
    /// continued stream behaves exactly as if the original session had
    /// kept running.
    pub fn resume(image: SessionImage) -> Session {
        Session {
            label: image.label,
            traced: false,
            engine: Engine::Delayed {
                pred: Box::new(ZPredictor::from_image(image.state)),
                core: image.core,
                harness_tel: Telemetry::disabled(),
            },
            records: image.records,
        }
    }
}

/// A mid-stream image of a delayed-mode [`Session`], from
/// [`Session::snapshot`]: the stream identity and progress, the replay
/// core's in-flight window, and the predictor's [`StateImage`]. Opaque
/// and in-memory — it moves between shards by being sent over a
/// channel, and a wire encoding can be layered onto the versioned
/// protocol later.
#[derive(Debug, Clone)]
pub struct SessionImage {
    label: String,
    records: u64,
    core: ReplayCore,
    state: StateImage,
}

impl SessionImage {
    /// The imaged stream's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records the stream had consumed when imaged.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The predictor configuration the stream runs under.
    pub fn config(&self) -> &PredictorConfig {
        self.state.config()
    }
}

/// Drives a whole-stream mode over a complete trace by delegating to
/// the `zbp_uarch` engines (`drive_cosim`/`drive_lookahead`).
fn run_whole(
    cfg: &PredictorConfig,
    mode: &WholeMode,
    trace: &DynamicTrace,
    traced: bool,
    records: u64,
) -> SessionReport {
    let tel = if traced { Telemetry::enabled() } else { Telemetry::disabled() };
    match mode {
        WholeMode::Cosim(ccfg) => {
            let (rep, snap) = zbp_uarch::drive_cosim(cfg.clone(), ccfg, trace, tel);
            SessionReport {
                stats: rep.mispredicts,
                flushes: rep.restarts,
                records,
                telemetry: traced.then_some(snap),
                cosim: Some(rep),
                lookahead: None,
                profile: None,
            }
        }
        WholeMode::Lookahead => {
            let (rep, snap) = zbp_uarch::drive_lookahead(cfg.clone(), trace, tel);
            SessionReport {
                stats: rep.mispredicts,
                // The lookahead driver flushes once per mispredicted
                // branch.
                flushes: rep.mispredicts.mispredictions(),
                records,
                telemetry: traced.then_some(snap),
                cosim: None,
                lookahead: Some(rep),
                profile: None,
            }
        }
    }
}

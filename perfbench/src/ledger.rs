//! The traced run (`--trace 1`): the per-layer ledger of one workload.
//!
//! Every span is taken in this benchmark's own code, around calls into
//! the layer's public functions:
//!
//! * set-up: trace generation, `ReplayBuffer` decode, `ZPredictor::new`;
//! * the predictor boundary: a timing [`Predictor`] wrapper that
//!   `ReplayCore` drives, which splits the record-by-record replay into
//!   `predict`/`resolve`/`flush` time and the harness's self time;
//! * the structures: see [`crate::layers`];
//! * exact counts from a telemetry-on `Session` run;
//! * serve: codec, local session, loopback round trip.
//!
//! The untraced whole-buffer rate is measured in the same process, so
//! the residue and the tracing overhead compare like with like.

use crate::layers::{now_cost_ns, Ledger};
use crate::report::{json_str, Dist, Report};
use crate::serve;
use crate::workloads::{set_up_timed, Kind};
use std::time::{Duration, Instant};
use zbp_core::{PredictorConfig, ZPredictor};
use zbp_model::{BranchRecord, Prediction, Predictor, ReplayCore, RunStats, ThreadId};
use zbp_serve::{Session, SessionReport, DEFAULT_DEPTH};
use zbp_telemetry::Telemetry;
use zbp_zarch::{BranchClass, InstrAddr};

/// Timed set-ups for `trace.generate_s` and `model.buffer_decode_s`.
const SETUP_REPS: usize = 5;

/// Timed `ZPredictor::new` calls for `core.predictor_new_us`.
const NEW_REPS: usize = 16;

/// Share of `--seconds` spent on boundary-timing rounds (at least one
/// round runs).
const BOUNDARY_SHARE: f64 = 0.4;

/// Times each protocol call of the wrapped predictor.
struct Timed<'a> {
    inner: &'a mut ZPredictor,
    predict: (Duration, u64),
    resolve: (Duration, u64),
    flush: (Duration, u64),
}

impl Predictor for Timed<'_> {
    fn predict(&mut self, addr: InstrAddr, class: BranchClass) -> Prediction {
        self.predict_on(ThreadId::ZERO, addr, class)
    }

    fn predict_on(&mut self, thread: ThreadId, addr: InstrAddr, class: BranchClass) -> Prediction {
        let t = Instant::now();
        let p = self.inner.predict_on(thread, addr, class);
        self.predict.0 += t.elapsed();
        self.predict.1 += 1;
        p
    }

    fn resolve(&mut self, rec: &BranchRecord, pred: &Prediction) {
        self.resolve_on(ThreadId::ZERO, rec, pred)
    }

    fn resolve_on(&mut self, thread: ThreadId, rec: &BranchRecord, pred: &Prediction) {
        let t = Instant::now();
        self.inner.resolve_on(thread, rec, pred);
        self.resolve.0 += t.elapsed();
        self.resolve.1 += 1;
    }

    fn flush(&mut self, rec: &BranchRecord) {
        self.flush_on(ThreadId::ZERO, rec)
    }

    fn flush_on(&mut self, thread: ThreadId, rec: &BranchRecord) {
        let t = Instant::now();
        self.inner.flush_on(thread, rec);
        self.flush.0 += t.elapsed();
        self.flush.1 += 1;
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Record-by-record replay through `ReplayCore`, as `Session` streams.
fn step_all<P: Predictor>(pred: &mut P, recs: &[BranchRecord], tail: u64) -> RunStats {
    let mut core = ReplayCore::new(DEFAULT_DEPTH);
    let mut tel = Telemetry::disabled();
    for rec in recs {
        core.step(pred, rec, &mut tel);
    }
    core.finish(pred, tail)
}

fn same(run: &RunStats, want: &SessionReport) -> bool {
    run.stats == want.stats && run.flushes == want.flushes
}

/// One boundary round's figures, in nanoseconds over all traces.
#[derive(Default)]
struct Round {
    whole_ns: f64,
    generic_ns: f64,
    timed_ns: f64,
    predict: (f64, u64),
    resolve: (f64, u64),
    flush: (f64, u64),
}

pub fn run(
    kind: Kind,
    seed: u64,
    instrs: u64,
    seconds: f64,
    cfg: &PredictorConfig,
    report: &mut Report,
) -> Result<(), String> {
    let (mut generate_s, mut decode_s) = (Dist::default(), Dist::default());
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (i, t) = set_up_timed(kind, seed, instrs, cfg)?;
        generate_s.push(t.generate_s);
        decode_s.push(t.decode_s);
        inputs = Some(i);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    let branches = inputs.branches() as f64;
    report.median("trace.generate_s", &generate_s, "s");
    report.median("model.buffer_decode_s", &decode_s, "s");
    let mut new_us = Dist::default();
    for _ in 0..NEW_REPS {
        let t = Instant::now();
        std::hint::black_box(ZPredictor::new(cfg.clone()));
        new_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.median("core.predictor_new_us", &new_us, "us");

    let refs: Vec<SessionReport> = inputs
        .bufs
        .iter()
        .map(|b| Session::options(cfg).depth(DEFAULT_DEPTH).run_buffer(b))
        .collect();
    let now_ns = now_cost_ns();
    report.note("clock_read_ns", format!("{now_ns}"));

    // Boundary rounds: untraced whole-buffer, untimed record-by-record,
    // and timed record-by-record replay of every trace.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * BOUNDARY_SHARE);
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        let mut r = Round::default();
        for (i, trace) in inputs.traces.iter().enumerate() {
            let t = Instant::now();
            let whole = Session::options(cfg).depth(DEFAULT_DEPTH).run_buffer(&inputs.bufs[i]);
            r.whole_ns += t.elapsed().as_nanos() as f64;
            report
                .op((whole != refs[i]).then(|| format!("whole-buffer {} changed", trace.label())));

            let mut pred = ZPredictor::new(cfg.clone());
            let t = Instant::now();
            let generic = step_all(&mut pred, trace.as_slice(), trace.tail_instrs());
            r.generic_ns += t.elapsed().as_nanos() as f64;
            report.op((!same(&generic, &refs[i]))
                .then(|| format!("record-by-record {} differs from whole-buffer", trace.label())));

            let mut pred = ZPredictor::new(cfg.clone());
            let mut timed = Timed {
                inner: &mut pred,
                predict: Default::default(),
                resolve: Default::default(),
                flush: Default::default(),
            };
            let t = Instant::now();
            let run = step_all(&mut timed, trace.as_slice(), trace.tail_instrs());
            r.timed_ns += t.elapsed().as_nanos() as f64;
            report.op((!same(&run, &refs[i]))
                .then(|| format!("timed replay of {} changed the statistics", trace.label())));
            for (acc, (d, n)) in [
                (&mut r.predict, timed.predict),
                (&mut r.resolve, timed.resolve),
                (&mut r.flush, timed.flush),
            ] {
                acc.0 += d.as_nanos() as f64;
                acc.1 += n;
            }
        }
        rounds.push(r);
    }
    let med = |f: &dyn Fn(&Round) -> f64| {
        let mut d = Dist::default();
        for r in &rounds {
            d.push(f(r));
        }
        d.median()
    };
    let calls = |f: &dyn Fn(&Round) -> (f64, u64)| f(&rounds[0]).1;
    let (n_predict, n_resolve, n_flush) =
        (calls(&|r| r.predict), calls(&|r| r.resolve), calls(&|r| r.flush));
    // Each timed call pays one clock read inside its span and one
    // outside it; the inside share is taken off the call, the rest off
    // the harness.
    let inner = |f: &dyn Fn(&Round) -> (f64, u64)| med(&|r| f(r).0 - f(r).1 as f64 * now_ns);
    let predict_ns = inner(&|r| r.predict);
    let resolve_ns = inner(&|r| r.resolve);
    let flush_ns = inner(&|r| r.flush);
    let timed_calls = (n_predict + n_resolve + n_flush) as f64;
    let harness_ns =
        med(&|r| r.timed_ns - timed_calls * 2.0 * now_ns) - (predict_ns + resolve_ns + flush_ns);
    let whole_ns_per_branch = med(&|r| r.whole_ns) / branches;
    let per = |ns: f64, n: u64| ns / n.max(1) as f64;
    report.metric("core.predict_ns", per(predict_ns, n_predict), "ns");
    report.metric("core.resolve_ns", per(resolve_ns, n_resolve), "ns");
    report.metric("core.flush_ns", per(flush_ns, n_flush), "ns");
    report.metric("core.predict_calls", n_predict as f64, "count");
    report.metric("core.resolve_calls", n_resolve as f64, "count");
    report.metric("core.flush_calls", n_flush as f64, "count");
    report.metric("model.replay_core_ns_per_branch", harness_ns / branches, "ns/branch");
    report.metric("core.untraced_ns_per_branch", whole_ns_per_branch, "ns/branch");
    report.metric("core.generic_ns_per_branch", med(&|r| r.generic_ns) / branches, "ns/branch");
    report.metric("trace.overhead_frac", med(&|r| r.timed_ns) / med(&|r| r.generic_ns), "ratio");
    report.note("boundary_rounds", rounds.len().to_string());

    // Exact counts from a telemetry-on session.
    let mut counts = zbp_telemetry::Snapshot::new();
    for (i, trace) in inputs.traces.iter().enumerate() {
        let rep = Session::options(cfg).depth(DEFAULT_DEPTH).telemetry(true).run(trace);
        report.op((rep.stats != refs[i].stats)
            .then(|| format!("telemetry changed the statistics of {}", trace.label())));
        if let Some(snap) = &rep.telemetry {
            counts.merge(snap);
        }
    }
    for name in [
        "bpl.btb1_hits",
        "bpl.surprises",
        "bpl.flushes",
        "btb2.searches",
        "btb2.transfers",
        "skoot.skips",
    ] {
        report.metric(name, counts.counter(name) as f64, "count");
    }

    // Per-structure ledger, checked against the model's own counts.
    let mut ledger = Ledger::default();
    for (trace, want) in inputs.traces.iter().zip(&refs) {
        ledger.add_trace(cfg, trace, want, now_ns);
    }
    let checks = [
        ("mirror, replays and model", ledger.mismatches, 0),
        (
            "standalone BTB1 hits vs bpl.btb1_hits",
            ledger.btb1_search.observed,
            counts.counter("bpl.btb1_hits"),
        ),
        (
            "standalone BTB2 transfers vs btb2.transfers",
            ledger.btb2_search.observed,
            counts.counter("btb2.transfers"),
        ),
        (
            "standalone BTB2 searches vs btb2.searches",
            ledger.btb2_search.calls,
            counts.counter("btb2.searches"),
        ),
    ];
    for (what, got, want) in checks {
        report.op((got != want).then(|| format!("{what}: {got} != {want}")));
    }
    if let Some(first) = &ledger.first_mismatch {
        report.note("first_mismatch", json_str(first));
    }

    report.metric("core.btb1.search_ns", ledger.btb1_search.per_call(), "ns");
    report.metric("core.btb1.searches", ledger.btb1_search.calls as f64, "count");
    report.metric(
        "core.btb1.hit_frac",
        ledger.btb1_search.observed as f64 / ledger.btb1_search.calls.max(1) as f64,
        "ratio",
    );
    report.metric("core.btb1.install_ns", ledger.btb1_install.per_call(), "ns");
    report.metric("core.btb1.update_ns", ledger.btb1_update.per_call(), "ns");
    report.metric("core.btb2.search_ns", ledger.btb2_search.per_call(), "ns");
    report.metric("core.btb2.searches", ledger.btb2_search.calls as f64, "count");
    report.metric("core.btb2.transfers", ledger.btb2_search.observed as f64, "count");
    report.metric(
        "core.btb2.useful_frac",
        ledger.promotions_used as f64 / ledger.promotions.max(1) as f64,
        "ratio",
    );
    report.metric("core.btb2.bookkeeping_ns", ledger.btb2_bookkeeping.per_call(), "ns");
    report.metric("core.pht.lookup_ns", ledger.pht_lookup.per_call(), "ns");
    report.metric("core.pht.train_ns", ledger.pht_train.per_call(), "ns");
    report.metric("core.perceptron.lookup_ns", ledger.perc_lookup.per_call(), "ns");
    report.metric("core.perceptron.train_ns", ledger.perc_train.per_call(), "ns");
    report.metric("core.ctb.lookup_ns", ledger.ctb_lookup.per_call(), "ns");
    report.metric("core.ctb.write_ns", ledger.ctb_write.per_call(), "ns");
    report.metric("core.crs.provide_ns", ledger.crs_provide.per_call(), "ns");
    report.metric("core.crs.update_ns", ledger.crs_update.per_call(), "ns");
    report.metric("core.write_queue.op_ns", ledger.write_queue.per_call(), "ns");
    report.metric("core.stats.record_ns", ledger.stats.per_call(), "ns");
    let layer_sum = (ledger.structure_ns() + harness_ns) / branches;
    report.metric("core.layer_sum_ns_per_branch", layer_sum, "ns/branch");
    report.metric("core.residue_ns_per_branch", whole_ns_per_branch - layer_sum, "ns/branch");

    serve::layer_probe(cfg, &inputs.traces[0], &refs[0], report)
}

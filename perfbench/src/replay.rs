//! End-to-end run of the two replay workloads.
//!
//! Each repetition sets the workload up once more (timed, and checked
//! to regenerate identical inputs), then takes every trace in turn and
//! replays it two ways: whole-buffer (`SessionOptions::run_buffer`, the
//! kernel path, `WHOLE_PER_TRACE` times) and as a streaming session
//! opened and fed in `FEED_BATCH`-record batches. The whole-buffer replays give
//! `minstr_per_s`; the streaming ones give the in-process `Open` and
//! `Feed` latencies and double as the parity check: a streamed report
//! must equal the whole-buffer one, and every whole-buffer report must
//! equal the warm-up repetition's.
//!
//! On a shared host the same repetition can take twice the CPU time
//! when another tenant loads the core's other hardware thread or the
//! shared cache, and such stretches last from seconds to minutes. A
//! median over repetitions moves with them, so the time figures are
//! best-of-repetitions, as in the repository's throughput experiment:
//! contention only ever adds time, and the fastest of many repetitions
//! estimates the uncontended cost. The best is taken at the finest
//! grain that is the same work every repetition, so one undisturbed
//! moment per piece suffices:
//!
//! * `minstr_per_s`: the instructions over the sum of each trace's
//!   fastest whole-buffer replay;
//! * `feed_p50_us` (and the p99 in the detail line): every `Feed`
//!   batch's fastest round trip, then each trace's p50 (p99) over its
//!   batches, then the
//!   geometric mean over traces (the generators' per-batch costs differ
//!   about twofold, and a figure pooled over all traces would jump
//!   between those modes as the seed shifts the mix);
//! * `open_p50_us`: the fastest repetition's median `Open`.
//!
//! `setup_s` is the median over repetitions.
//!
//! The per-repetition figures and their quartiles go to the detail line.

use crate::report::{num, peak_rss_mib, thread_cpu_s, Dist, Report};
use crate::workloads::{set_up, Kind};
use std::time::{Duration, Instant};
use zbp_core::PredictorConfig;
use zbp_serve::{Session, SessionReport, DEFAULT_DEPTH};

/// Records per `Feed` batch, here and on serve-stream.
pub const FEED_BATCH: usize = 256;

/// Whole-buffer replays per trace and repetition. Contention comes in
/// bursts shorter than a repetition, so more replays give each trace's
/// best more chances to land between them.
const WHOLE_PER_TRACE: usize = 3;

/// Sessions opened per trace and repetition (one is fed), so each
/// repetition's `Open` median rests on several samples per trace.
const OPENS_PER_TRACE: usize = 4;

/// Per-repetition figures.
#[derive(Default)]
pub struct Reps {
    pub rate: Dist,
    pub setup_s: Dist,
    pub feed_p50_us: Dist,
    pub feed_p99_us: Dist,
    pub open_p50_us: Dist,
}

impl Reps {
    /// Reports the medians as the metrics. The `Feed` p99 is not a
    /// declared metric (it follows the host's memory contention more
    /// than the program), so it goes to the detail line only.
    pub fn report(&self, report: &mut Report) {
        report.median("minstr_per_s", &self.rate, "M/s");
        report.median("setup_s", &self.setup_s, "s");
        report.median("feed_p50_us", &self.feed_p50_us, "us");
        report.note_dist("feed_p99_us", &self.feed_p99_us);
        report.median("open_p50_us", &self.open_p50_us, "us");
    }

    /// Records the distributions in the detail line only.
    pub fn note(&self, report: &mut Report) {
        report.note_dist("minstr_per_s", &self.rate);
        report.note_dist("setup_s", &self.setup_s);
        report.note_dist("feed_p50_us", &self.feed_p50_us);
        report.note_dist("feed_p99_us", &self.feed_p99_us);
        report.note_dist("open_p50_us", &self.open_p50_us);
    }
}

/// One trace's best figures over the repetitions so far.
struct Best {
    cpu_s: f64,
    /// Each `Feed` batch's fastest round trip, in microseconds.
    feed_us: Vec<f64>,
}

/// The geometric mean over traces of the `q`-quantile of each trace's
/// best batch round trips.
fn geomean_feed(best: &[Best], q: f64) -> f64 {
    let ln: f64 = best
        .iter()
        .map(|b| {
            let mut d = Dist::default();
            b.feed_us.iter().for_each(|&us| d.push(us));
            d.quantile(q).ln()
        })
        .sum();
    (ln / best.len() as f64).exp()
}

pub fn run(
    kind: Kind,
    seed: u64,
    instrs: u64,
    seconds: f64,
    cfg: &PredictorConfig,
    report: &mut Report,
) -> Result<(), String> {
    let (inputs, setup) = set_up(kind, seed, instrs, cfg)?;
    let mut reps = Reps::default();
    reps.setup_s.push(setup);
    let whole = |i: usize| Session::options(cfg).depth(DEFAULT_DEPTH).run_buffer(&inputs.bufs[i]);

    // Warm-up repetition; its reports are the reference every later run
    // must reproduce.
    let reference: Vec<SessionReport> = (0..inputs.bufs.len()).map(whole).collect();
    let (mut mispredicts, mut counted) = (0u64, 0u64);
    for r in &reference {
        mispredicts += r.stats.mispredictions();
        counted += r.stats.instructions.get();
    }

    let mut best: Vec<Best> = inputs
        .traces
        .iter()
        .map(|t| Best {
            cpu_s: f64::INFINITY,
            feed_us: vec![f64::INFINITY; t.as_slice().len().div_ceil(FEED_BATCH)],
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while reps.rate.len() == 0 || Instant::now() < deadline {
        let (again, setup_s) = set_up(kind, seed, instrs, cfg)?;
        reps.setup_s.push(setup_s);
        report.op((again.traces != inputs.traces).then(|| "set-up is not deterministic".into()));
        drop(again);

        let mut open_us = Dist::default();
        let (mut ln_p50, mut ln_p99) = (0.0, 0.0);
        // Replay is single-threaded: this thread's CPU time is its
        // cost, without the time the thread waited for a CPU.
        let mut cpu = 0.0;
        for (i, trace) in inputs.traces.iter().enumerate() {
            let mut got = None;
            for k in 0..WHOLE_PER_TRACE {
                let t = thread_cpu_s()?;
                let again = whole(i);
                let cpu_s = thread_cpu_s()? - t;
                if k == 0 {
                    cpu += cpu_s;
                }
                best[i].cpu_s = best[i].cpu_s.min(cpu_s);
                report.op((again != reference[i]).then(|| {
                    format!("whole-buffer replay of {} changed between reps", trace.label())
                }));
                got = Some(again);
            }
            let got = got.expect("WHOLE_PER_TRACE > 0");

            let mut session = None;
            for _ in 0..OPENS_PER_TRACE {
                let t = Instant::now();
                let s = Session::options(cfg).depth(DEFAULT_DEPTH).open(trace.label());
                open_us.push(t.elapsed().as_secs_f64() * 1e6);
                session = Some(s);
            }
            let mut session = session.expect("OPENS_PER_TRACE > 0");
            let mut feed_us = Dist::default();
            for (batch, b) in trace.as_slice().chunks(FEED_BATCH).zip(&mut best[i].feed_us) {
                let t = Instant::now();
                session.feed(batch);
                let us = t.elapsed().as_secs_f64() * 1e6;
                feed_us.push(us);
                *b = b.min(us);
            }
            ln_p50 += feed_us.median().ln();
            ln_p99 += feed_us.quantile(0.99).ln();
            let streamed = session.finish(trace.tail_instrs());
            report.op((streamed.stats != got.stats || streamed.flushes != got.flushes).then(
                || format!("streaming session of {} diverged from whole-buffer", trace.label()),
            ));
        }
        reps.rate.push(inputs.instructions() as f64 / cpu / 1e6);
        let traces = inputs.traces.len() as f64;
        reps.feed_p50_us.push((ln_p50 / traces).exp());
        reps.feed_p99_us.push((ln_p99 / traces).exp());
        reps.open_p50_us.push(open_us.median());
    }

    let best_cpu: f64 = best.iter().map(|b| b.cpu_s).sum();
    report.metric("minstr_per_s", inputs.instructions() as f64 / best_cpu / 1e6, "M/s");
    report.metric("setup_s", reps.setup_s.median(), "s");
    report.metric("feed_p50_us", geomean_feed(&best, 0.5), "us");
    report.note("feed_p99_us_best", num(geomean_feed(&best, 0.99)));
    report.metric("open_p50_us", reps.open_p50_us.min(), "us");
    reps.note(report);
    report.metric("mpki", mispredicts as f64 * 1e3 / counted.max(1) as f64, "1/kinstr");
    report.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    report.note("traces", inputs.traces.len().to_string());
    report.note("instructions_per_rep", inputs.instructions().to_string());
    report.note("branches_per_rep", inputs.branches().to_string());
    Ok(())
}

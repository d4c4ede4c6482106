//! Golden statistics: pinned digests of everything a replay reports.
//!
//! `fastpath_parity.rs` compares the buffered kernel with the streaming
//! session, so a change that moves both the same way passes it. These
//! digests were recorded from the predictor as it stood before its
//! per-branch path was reworked for speed (CPRED indexed once per
//! stream, the CRS trained in place, a branch-free perceptron dot
//! product), so any statistic that moves shows up here.
//!
//! One digest is [`fnv1a32`] over the `Debug` rendering of a run's
//! `RunStats` (misprediction accounting, flush count and per-branch
//! profile), `ZPredictor::stats`, and the `stats` of the CPRED, CRS,
//! perceptron, PHT, CTB and BTB2 structures read through
//! `ZPredictor::structures`. Every case is replayed twice, through the
//! streaming session (the generic view) and through the buffered kernel
//! (the config-monomorphized view where the preset allows it); both must
//! land on the same pinned digest.
//!
//! The `#[ignore]`d test covers the exact input set of the `replay-hot`
//! benchmark workload; run it with
//! `cargo test --release -p zbp-serve --test golden_stats -- --include-ignored`.

use zbp_core::{GenerationPreset, PredictorConfig, ZPredictor};
use zbp_model::{ReplayBuffer, ReplayCore, RunStats};
use zbp_serve::{Session, DEFAULT_DEPTH};
use zbp_trace::{fnv1a32, workloads, Workload};

/// Renders one finished run and the predictor that ran it.
fn render(run: &RunStats, pred: &ZPredictor) -> String {
    let s = pred.structures();
    format!(
        "{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        run.stats,
        run.flushes,
        run.profile,
        pred.stats,
        s.cpred.map(|c| c.stats),
        s.crs.map(|c| c.stats),
        s.perceptron.map(|p| p.stats),
        s.pht.stats,
        s.ctb.map(|c| c.stats),
        s.btb2.map(|b| b.stats),
    )
}

/// Replays `w` at `depth` through the streaming session and through the
/// buffered kernel, asserts the two renderings agree, and returns one.
fn replay_both(cfg: &PredictorConfig, w: &Workload, depth: usize) -> String {
    let trace = w.dynamic_trace();
    let mut s = Session::options(cfg).depth(depth).profiling(true).open(trace.label());
    s.feed(trace.as_slice());
    let (report, pred) = s.finish_into(trace.tail_instrs());
    let pred = pred.expect("delayed sessions hand back their predictor");
    let streamed_run =
        RunStats { stats: report.stats, flushes: report.flushes, profile: report.profile };
    let streamed = render(&streamed_run, &pred);

    let buf = ReplayBuffer::from_trace(&trace);
    let mut pred = ZPredictor::new(cfg.clone());
    let run = ReplayCore::run_buffer_with(depth, &mut pred, &buf, true);
    let buffered = render(&run, &pred);
    assert_eq!(streamed, buffered, "{} on {} at depth {depth}: paths diverged", cfg.name, w.label);
    streamed
}

/// Digest of a group of workloads replayed at one depth.
fn digest(cfg: &PredictorConfig, ws: &[Workload], depth: usize) -> u32 {
    let text: String = ws.iter().map(|w| replay_both(cfg, w, depth) + "\n").collect();
    fnv1a32(text.as_bytes())
}

/// Asserts every `(name, got, pinned)` case, listing all mismatches at
/// once.
fn check(cases: impl IntoIterator<Item = (String, u32, u32)>) {
    let wrong: Vec<String> = cases
        .into_iter()
        .filter(|(_, got, pinned)| got != pinned)
        .map(|(name, got, pinned)| format!("{name}: got {got:#010x}, pinned {pinned:#010x}"))
        .collect();
    assert!(wrong.is_empty(), "golden statistics moved:\n{}", wrong.join("\n"));
}

#[test]
fn every_preset_matches_its_golden_statistics_on_the_suite() {
    // (depth 0, DEFAULT_DEPTH) per preset, oldest first.
    let pinned: [[u32; 2]; 4] = [
        [0xa711_81e2, 0x5054_7b23],
        [0x8081_368e, 0x2d08_665e],
        [0x62c9_0b41, 0x682e_8dd5],
        [0x4463_f308, 0xc8d6_72f0],
    ];
    let suite = workloads::suite(41, 4_000);
    check(GenerationPreset::ALL.iter().zip(pinned).flat_map(|(preset, pins)| {
        let cfg = preset.config();
        let suite = &suite;
        [0, DEFAULT_DEPTH].into_iter().zip(pins).map(move |(depth, pin)| {
            (format!("{preset} at depth {depth}"), digest(&cfg, suite, depth), pin)
        })
    }));
}

/// The `replay-hot` benchmark inputs: eight draws of four
/// small-footprint generators at 250k instructions each, grouped by
/// generator.
fn replay_hot_inputs(seed: u64) -> [Vec<Workload>; 4] {
    let mut groups: [Vec<Workload>; 4] = Default::default();
    for k in 0..8u64 {
        let s = seed.wrapping_add(k.wrapping_mul(1_000_003));
        let ws = [
            workloads::compute_loop(s, 250_000),
            workloads::call_return_heavy(s.wrapping_add(1), 250_000),
            workloads::indirect_dispatch(s.wrapping_add(2), 250_000),
            workloads::patterned(s.wrapping_add(3), 250_000),
        ];
        for (group, w) in groups.iter_mut().zip(ws) {
            group.push(w);
        }
    }
    groups
}

#[test]
#[ignore = "full size (8M instructions); run in release with --include-ignored"]
fn replay_hot_inputs_match_their_golden_statistics() {
    let pinned = [0x6d82_76a6, 0x99e7_f9f1, 0xf8d2_7fbb, 0x5c37_fdfe];
    let cfg = GenerationPreset::Z15.config();
    let names = ["compute_loop", "call_return_heavy", "indirect_dispatch", "patterned"];
    check(
        replay_hot_inputs(1234).iter().zip(names).zip(pinned).map(|((group, name), pin)| {
            (name.to_string(), digest(&cfg, group, DEFAULT_DEPTH), pin)
        }),
    );
}

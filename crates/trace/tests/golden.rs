//! Golden traces: one pinned digest per public generator.
//!
//! `workloads_are_deterministic` and `deterministic_per_seed` only
//! compare the current code with itself. These digests were recorded
//! from the executor as it stood before its site tables were made
//! dense, so any change to the RNG draw order, a record field, the tail
//! or the label shows up here. Every digest is [`fnv1a32`] over the
//! trace's `.zbt` serialization ([`write_trace`]), which carries the
//! label, the tail and each record's `addr`, `target`, `mnemonic`,
//! `taken`, `thread` and `gap_instrs`.
//!
//! The `#[ignore]`d test digests the exact input set of the
//! `replay-footprint` benchmark workload; run it with
//! `cargo test --release -p zbp-trace --test golden -- --include-ignored`.

use zbp_model::DynamicTrace;
use zbp_trace::io::write_trace;
use zbp_trace::{fnv1a32, workloads, Workload};

const SEED: u64 = 7;
const INSTRS: u64 = 20_000;

fn digest(trace: &DynamicTrace) -> u32 {
    let mut bytes = Vec::new();
    write_trace(&mut bytes, trace).expect("writing to a Vec cannot fail");
    fnv1a32(&bytes)
}

/// Asserts every `(name, trace, pinned digest)` case, listing all
/// mismatches at once.
fn check(cases: impl IntoIterator<Item = (String, DynamicTrace, u32)>) {
    let wrong: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, trace, pinned)| {
            let got = digest(&trace);
            (got != pinned).then(|| format!("{name}: got {got:#010x}, pinned {pinned:#010x}"))
        })
        .collect();
    assert!(wrong.is_empty(), "golden digests moved:\n{}", wrong.join("\n"));
}

/// Runs each workload and pairs its trace with the digest pinned for it.
fn traces_of(ws: &[Workload], pinned: &[u32]) -> Vec<(String, DynamicTrace, u32)> {
    assert_eq!(ws.len(), pinned.len());
    ws.iter().zip(pinned).map(|(w, &d)| (w.label.clone(), w.dynamic_trace(), d)).collect()
}

#[test]
fn suite_members_match_their_golden_digests() {
    let pinned = [0x30c5_4b97, 0x831b_d5af, 0xcfbd_ae02, 0x9d56_a00a, 0xe12f_8d9c, 0x809c_f72f];
    check(traces_of(&workloads::suite(SEED, INSTRS), &pinned));
}

#[test]
fn sized_and_showcase_generators_match_their_golden_digests() {
    let ws = [
        workloads::lspr_sized(SEED, INSTRS, 40, 12),
        workloads::microservices_sized(SEED, INSTRS, 3, 8, 50),
        workloads::footprint_sweep(SEED, INSTRS, 64),
        workloads::patterned(SEED, INSTRS),
        workloads::correlated_noise(SEED, INSTRS, 6),
    ];
    let pinned = [0xc144_199d, 0x0e45_4605, 0x866d_b89b, 0xd376_ad10, 0x3177_70aa];
    let mut cases = traces_of(&ws, &pinned);
    let smt0 = workloads::compute_loop(SEED, INSTRS / 2).dynamic_trace();
    let smt1 = workloads::indirect_dispatch(SEED + 1, INSTRS / 2).dynamic_trace();
    cases.push((
        "interleave_smt2".into(),
        workloads::interleave_smt2(&smt0, &smt1, 4),
        0x11bc_85ab,
    ));
    check(cases);
}

/// The `replay-footprint` benchmark inputs: four draws of three
/// large-footprint generators at 500k instructions each.
fn replay_footprint_inputs(seed: u64) -> Vec<Workload> {
    (0..4u64)
        .flat_map(|k| {
            let s = seed.wrapping_add(k.wrapping_mul(1_000_003));
            [
                workloads::lspr_sized(s, 500_000, 320, 60),
                workloads::microservices(s.wrapping_add(1), 500_000),
                workloads::footprint_sweep(s.wrapping_add(2), 500_000, 2000),
            ]
        })
        .collect()
}

#[test]
#[ignore = "full size (6M instructions); run in release with --include-ignored"]
fn replay_footprint_inputs_match_their_golden_digests() {
    let pinned = [
        0xc382_e22d,
        0x847d_7076,
        0x12d3_cb33,
        0x28d5_33db,
        0x2bd1_660c,
        0xbeba_c6b8,
        0x8380_47d3,
        0xad96_3e35,
        0x1446_0c42,
        0x37d2_3e39,
        0x5715_0cf9,
        0x974f_2bf3,
    ];
    check(traces_of(&replay_footprint_inputs(1234), &pinned));
}

//! Parameterized workload generators.
//!
//! Each generator builds a synthetic [`Program`] whose *dynamic*
//! properties match a workload family the paper discusses, wrapped in a
//! [`Workload`] that runs it deterministically to a
//! [`DynamicTrace`]:
//!
//! * [`lspr_like`] — the headline shape: a transaction loop over a large
//!   warm-code footprint of service functions (paper §I–II: "large
//!   system performance record (LSPR) workloads generally consist of a
//!   large instruction footprint");
//! * [`compute_loop`] — small hot kernels ("compute intensive");
//! * [`call_return_heavy`] — deep call fan-out exercising the CRS;
//! * [`indirect_dispatch`] — interpreter/virtual-call dispatch
//!   exercising the CTB;
//! * [`microservices`] — many small isolated images with phase changes
//!   (§II: "monolithic programs are giving way to a large quantity of
//!   smaller, micro-services");
//! * [`footprint_sweep`] — code footprint as an explicit parameter, for
//!   the capacity experiments (E8/E9);
//! * [`patterned`] — history-predictable conditionals showcasing the
//!   TAGE PHT and perceptron.

use crate::exec::Executor;
use crate::program::{CondBehavior, IndirectSelector, Program, ProgramBuilder};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use zbp_model::DynamicTrace;
use zbp_zarch::{InstrAddr, Mnemonic as Mn};

/// A generated program plus the parameters to run it reproducibly.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name (generator + seed).
    pub label: String,
    /// RNG seed for the executor.
    pub seed: u64,
    /// Minimum retired instructions per run.
    pub target_instrs: u64,
    program: Program,
}

impl Workload {
    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Executes the workload into a dynamic trace.
    pub fn dynamic_trace(&self) -> DynamicTrace {
        Executor::new(&self.program, self.seed).run(self.target_instrs, self.label.clone())
    }

    /// The workload's trace via the process-wide [`TraceCache`]: one
    /// generation per `(label, seed, instrs)`, shared as an `Arc` — the
    /// cheap path for sweeps running many configs over one suite.
    ///
    /// [`TraceCache`]: crate::cache::TraceCache
    pub fn cached_trace(&self) -> std::sync::Arc<DynamicTrace> {
        crate::cache::TraceCache::global().trace(self)
    }

    /// This workload's pre-decoded replay buffer, generated and decoded
    /// once per key in the process-wide [`TraceCache`](crate::TraceCache)
    /// — the fast-path counterpart of
    /// [`cached_trace`](Self::cached_trace).
    pub fn cached_buffer(&self) -> std::sync::Arc<zbp_model::ReplayBuffer> {
        crate::cache::TraceCache::global().buffer(self)
    }
}

/// Function-slot spacing: generated function bodies stay well under
/// this, guaranteeing non-overlapping layouts.
const SLOT: u64 = 4096;

fn base(slot: u64) -> InstrAddr {
    InstrAddr::new(0x0100_0000 + slot * SLOT)
}

/// Appends a typical service-function body: straight runs, a loop, a
/// few data-dependent conditionals, optional calls to leaf helpers.
fn service_body(b: &mut ProgramBuilder, f: usize, rng: &mut StdRng, leaves: &[usize]) {
    b.straight(f, rng.random_range(2..6));
    // Commercial code is dense with never/rarely-taken error and
    // bounds checks: statically guessed not-taken, resolved not-taken.
    for _ in 0..rng.random_range(2..5u32) {
        let over = b.next_index(f) + 2;
        b.cond(f, Mn::Brc, CondBehavior::Biased { taken_prob: 0.01 }, over);
        b.straight(f, rng.random_range(1..4));
        b.straight(f, rng.random_range(1..4));
    }
    // A counted loop over a short body.
    let top = b.next_index(f);
    b.straight(f, rng.random_range(2..5));
    if rng.random_bool(0.5) && !leaves.is_empty() {
        let leaf = leaves[rng.random_range(0..leaves.len())];
        b.call(f, if rng.random_bool(0.7) { Mn::Brasl } else { Mn::Bras }, leaf);
    }
    b.straight(f, rng.random_range(1..4));
    // A rarely-taken check inside the loop body keeps the dynamic
    // not-taken population realistic.
    let over = b.next_index(f) + 2;
    b.cond(f, Mn::Brc, CondBehavior::Biased { taken_prob: 0.02 }, over);
    b.straight(f, rng.random_range(1..3));
    b.straight(f, rng.random_range(1..3));
    b.cond(f, Mn::Brct, CondBehavior::Loop { trip: rng.random_range(2..12) }, top);
    // A biased conditional skipping a cold block.
    let cold_skip = b.next_index(f) + 2;
    b.cond(
        f,
        Mn::Brc,
        CondBehavior::Biased {
            taken_prob: *[0.05, 0.1, 0.9, 0.5].get(rng.random_range(0..4)).expect("idx"),
        },
        cold_skip,
    );
    b.straight(f, rng.random_range(1..3)); // the cold block
    b.straight(f, rng.random_range(2..5)); // cold_skip lands here
    b.ret(f);
}

/// A minimal leaf helper.
fn leaf_body(b: &mut ProgramBuilder, f: usize, rng: &mut StdRng) {
    b.straight(f, rng.random_range(2..8));
    b.ret(f);
}

/// The headline LSPR-like transaction workload: a dispatcher loop over
/// many warm service functions.
pub fn lspr_like(seed: u64, target_instrs: u64) -> Workload {
    lspr_sized(seed, target_instrs, 200, 40)
}

/// LSPR-like with explicit service/leaf function counts (used by the
/// footprint sweep).
pub fn lspr_sized(seed: u64, target_instrs: u64, services: usize, leaf_count: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a_5a5a);
    let mut b = ProgramBuilder::new();
    let main = b.func(base(0));

    // Reserve indices: leaves first (created after main), then services.
    let leaf_ids: Vec<usize> = (0..leaf_count).map(|k| 1 + k).collect();
    let service_ids: Vec<usize> = (0..services).map(|k| 1 + leaf_count + k).collect();

    // Main: a transaction loop — each iteration dispatches through a
    // couple of indirect tables (hot subset) and a few direct calls.
    b.straight(main, 3);
    let loop_top = b.next_index(main);
    b.straight(main, 2);
    // Hot dispatch: a small rotating table (very warm code).
    let hot: Vec<usize> = (0..8.min(services)).map(|k| service_ids[k]).collect();
    b.indirect_call(main, hot, IndirectSelector::RoundRobin);
    b.straight(main, 2);
    // Warm dispatch: larger random table (the big footprint driver).
    b.indirect_call(main, service_ids.clone(), IndirectSelector::Random);
    b.straight(main, 1);
    // A couple of direct calls to fixed services.
    b.call(main, Mn::Brasl, service_ids[services / 3]);
    b.straight(main, 2);
    b.call(main, Mn::Brasl, service_ids[2 * services / 3]);
    b.straight(main, 2);
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: 1_000_000 }, loop_top);
    b.ret(main);

    for (k, _) in leaf_ids.iter().enumerate() {
        let f = b.func(base(1 + k as u64));
        debug_assert_eq!(f, leaf_ids[k]);
        leaf_body(&mut b, f, &mut rng);
    }
    for (k, _) in service_ids.iter().enumerate() {
        let f = b.func(base(1 + leaf_count as u64 + k as u64));
        debug_assert_eq!(f, service_ids[k]);
        let leaves = leaf_ids.clone();
        service_body(&mut b, f, &mut rng, &leaves);
    }

    Workload {
        label: format!("lspr-like(s{seed},f{services})"),
        seed,
        target_instrs,
        program: b.build().expect("generator produces valid programs"),
    }
}

/// Compute-intensive kernel: tight nested loops, tiny footprint.
pub fn compute_loop(seed: u64, target_instrs: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
    let mut b = ProgramBuilder::new();
    let main = b.func(base(0));
    b.straight(main, 2);
    let outer = b.next_index(main);
    b.straight(main, 2);
    let inner = b.next_index(main);
    b.straight(main, rng.random_range(3..7));
    // An alternating data-dependent conditional inside the kernel.
    let skip = b.next_index(main) + 2;
    b.cond(main, Mn::Brc, CondBehavior::Pattern { pattern: vec![true, false] }, skip);
    b.straight(main, 2);
    b.straight(main, 2);
    // A helper call in the hot loop (math routine): real kernels push
    // several distinct taken-branch addresses through the path history
    // each iteration.
    b.call(main, Mn::Brasl, 1);
    b.straight(main, 1);
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: rng.random_range(16..64) }, inner);
    b.straight(main, 1);
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: 1_000_000 }, outer);
    b.ret(main);
    let helper = b.func(base(1));
    b.straight(helper, rng.random_range(2..5));
    b.ret(helper);
    Workload {
        label: format!("compute-loop(s{seed})"),
        seed,
        target_instrs,
        program: b.build().expect("valid"),
    }
}

/// Call/return-heavy: three-layer call tree with shared mid-layer
/// functions (every return is multi-target — the CRS showcase).
pub fn call_return_heavy(seed: u64, target_instrs: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xca11);
    let mut b = ProgramBuilder::new();
    let main = b.func(base(0));
    let n_mid = 12usize;
    let n_leaf = 6usize;
    let mid_ids: Vec<usize> = (0..n_mid).map(|k| 1 + k).collect();
    let leaf_ids: Vec<usize> = (0..n_leaf).map(|k| 1 + n_mid + k).collect();

    b.straight(main, 2);
    let top = b.next_index(main);
    for &m in &mid_ids {
        b.straight(main, rng.random_range(1..4));
        b.call(main, Mn::Brasl, m);
    }
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: 1_000_000 }, top);
    b.ret(main);

    for (k, &_id) in mid_ids.iter().enumerate() {
        let f = b.func(base(1 + k as u64));
        b.straight(f, rng.random_range(1..4));
        // Each mid calls two shared leaves: the leaves' returns are
        // multi-target.
        let l1 = leaf_ids[rng.random_range(0..n_leaf)];
        let l2 = leaf_ids[rng.random_range(0..n_leaf)];
        b.call(f, Mn::Brasl, l1);
        b.straight(f, rng.random_range(1..3));
        b.call(f, Mn::Bras, l2);
        b.straight(f, 1);
        b.ret(f);
    }
    for (k, &_id) in leaf_ids.iter().enumerate() {
        let f = b.func(base(1 + n_mid as u64 + k as u64));
        leaf_body(&mut b, f, &mut rng);
    }
    Workload {
        label: format!("call-return(s{seed})"),
        seed,
        target_instrs,
        program: b.build().expect("valid"),
    }
}

/// Indirect-dispatch interpreter: one hot dispatch site fanning out to
/// many handlers (CTB showcase).
pub fn indirect_dispatch(seed: u64, target_instrs: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1d1d);
    let mut b = ProgramBuilder::new();
    let main = b.func(base(0));
    let n_handlers = 24usize;
    let handler_ids: Vec<usize> = (0..n_handlers).map(|k| 1 + k).collect();
    b.straight(main, 2);
    let top = b.next_index(main);
    b.straight(main, 2);
    // Round-robin dispatch: path-correlated and CTB-learnable.
    b.indirect_call(main, handler_ids.clone(), IndirectSelector::RoundRobin);
    b.straight(main, 1);
    // A second, phased dispatch site.
    b.indirect_call(main, handler_ids.clone(), IndirectSelector::Phased { dwell: 50 });
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: 1_000_000 }, top);
    b.ret(main);
    for k in 0..n_handlers {
        let f = b.func(base(1 + k as u64));
        b.straight(f, rng.random_range(2..6));
        b.ret(f);
    }
    Workload {
        label: format!("indirect-dispatch(s{seed})"),
        seed,
        target_instrs,
        program: b.build().expect("valid"),
    }
}

/// Micro-services: several isolated images, each visited for a long
/// phase before moving on — footprint churn with phase changes.
pub fn microservices(seed: u64, target_instrs: u64) -> Workload {
    microservices_sized(seed, target_instrs, 6, 24, 400)
}

/// Micro-services with explicit image count, services per image and
/// phase length (executions of one image before moving on).
pub fn microservices_sized(
    seed: u64,
    target_instrs: u64,
    images: usize,
    per_image: usize,
    dwell: u32,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e4e);
    let mut b = ProgramBuilder::new();
    let main = b.func(base(0));
    // Image entry functions (one per image) live far apart; each image's
    // services cluster near its entry.
    let mut entry_ids = Vec::new();
    let mut next_func = 1usize;
    for _ in 0..images {
        entry_ids.push(next_func);
        next_func += 1 + per_image;
    }
    b.straight(main, 1);
    let top = b.next_index(main);
    // Dwell on one image for a long phase, then switch.
    b.indirect_call(main, entry_ids.clone(), IndirectSelector::Phased { dwell });
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: 1_000_000 }, top);
    b.ret(main);

    for (img, &entry) in entry_ids.iter().enumerate() {
        // Put each image in its own 16 MB region; services are packed
        // at 1 KB strides (container images are dense).
        let region = 0x400_0000u64 * (img as u64 + 1);
        let service_ids: Vec<usize> = (0..per_image).map(|k| entry + 1 + k).collect();
        let e = b.func(InstrAddr::new(0x0100_0000 + region));
        debug_assert_eq!(e, entry);
        b.straight(e, 2);
        let etop = b.next_index(e);
        b.indirect_call(e, service_ids.clone(), IndirectSelector::Random);
        b.cond(e, Mn::Brct, CondBehavior::Loop { trip: 8 }, etop);
        b.ret(e);
        for (k, &sid) in service_ids.iter().enumerate() {
            let f = b.func(InstrAddr::new(0x0100_0000 + region + 1024 * (k as u64 + 1)));
            debug_assert_eq!(f, sid);
            service_body(&mut b, f, &mut rng, &[]);
        }
    }
    Workload {
        label: format!("microservices(s{seed})"),
        seed,
        target_instrs,
        program: b.build().expect("valid"),
    }
}

/// Footprint sweep: every service is *uniformly warm* — the transaction
/// loop round-robins across the whole service set, so the branch
/// working set equals the static footprint and capacity effects are
/// directly observable (experiment E8). The service count is the
/// independent variable.
pub fn footprint_sweep(seed: u64, target_instrs: u64, services: usize) -> Workload {
    let services = services.max(4);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf007);
    let mut b = ProgramBuilder::new();
    let main = b.func(base(0));
    let service_ids: Vec<usize> = (0..services).map(|k| 1 + k).collect();
    b.straight(main, 2);
    let top = b.next_index(main);
    // Uniform sweep: each iteration visits the next service in order.
    b.indirect_call(main, service_ids.clone(), IndirectSelector::RoundRobin);
    b.straight(main, 2);
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: 1_000_000 }, top);
    b.ret(main);
    for (k, &sid) in service_ids.iter().enumerate() {
        let f = b.func(base(1 + k as u64));
        debug_assert_eq!(f, sid);
        // Deterministically predictable bodies: every misprediction in
        // this workload is then attributable to capacity (a branch that
        // fell out of the BTBs and surprised), not to noise.
        b.straight(f, rng.random_range(2..5));
        let over = b.next_index(f) + 2;
        b.cond(f, Mn::Brc, CondBehavior::Biased { taken_prob: 0.01 }, over);
        b.straight(f, rng.random_range(1..4));
        b.straight(f, rng.random_range(1..4));
        let top = b.next_index(f);
        b.straight(f, rng.random_range(2..6));
        b.cond(f, Mn::Brct, CondBehavior::Loop { trip: 2 + (k as u32 % 6) }, top);
        // A taken-biased conditional: statically guessed NT, so a cold
        // (or evicted) encounter mispredicts — the capacity signal.
        let skip = b.next_index(f) + 2;
        b.cond(f, Mn::Brcl, CondBehavior::Biased { taken_prob: 0.98 }, skip);
        b.straight(f, 1);
        b.straight(f, rng.random_range(1..4));
        b.ret(f);
    }
    Workload {
        label: format!("footprint(s{seed},f{services})"),
        seed,
        target_instrs,
        program: b.build().expect("valid"),
    }
}

/// Pattern/correlation showcase: history-predictable conditionals that
/// defeat a plain BHT.
pub fn patterned(seed: u64, target_instrs: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a77);
    let mut b = ProgramBuilder::new();
    let main = b.func(base(0));
    b.straight(main, 1);
    let top = b.next_index(main);
    let mut cond_count = 0usize;
    // Several patterned conditionals with different periods.
    for period in [2usize, 3, 4, 6] {
        b.straight(main, rng.random_range(1..4));
        let skip = b.next_index(main) + 2;
        let pattern: Vec<bool> = (0..period).map(|i| i + 1 != period).collect();
        b.cond(main, Mn::Brc, CondBehavior::Pattern { pattern }, skip);
        b.straight(main, 1);
        b.straight(main, 1);
        cond_count += 1;
    }
    // Correlated followers copying earlier leaders.
    for leader in 0..2usize {
        b.straight(main, 1);
        let skip = b.next_index(main) + 2;
        b.cond(
            main,
            Mn::Brcl,
            CondBehavior::Correlated { depends_on: leader, invert: leader == 1 },
            skip,
        );
        b.straight(main, 1);
        b.straight(main, 1);
        cond_count += 1;
    }
    let _ = cond_count;
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: 1_000_000 }, top);
    b.ret(main);
    Workload {
        label: format!("patterned(s{seed})"),
        seed,
        target_instrs,
        program: b.build().expect("valid"),
    }
}

/// The perceptron showcase: one *leader* conditional flips a coin each
/// iteration, many *noise* conditionals flip their own coins, and a
/// *follower* copies the leader. Every branch is built as a hammock
/// (both arms end in an unconditional goto), so each iteration pushes a
/// fixed **number** of taken branches through the GPV while the pushed
/// **addresses** vary — the information is in stable bit positions.
/// A pattern table (TAGE) must learn 2^(noise+1) distinct contexts and
/// thrashes; a perceptron needs only the leader's weight (§V).
pub fn correlated_noise(seed: u64, target_instrs: u64, noise_branches: usize) -> Workload {
    let mut b = ProgramBuilder::new();
    let main = b.func(base(0));
    b.straight(main, 1);
    let top = b.next_index(main);

    // A hammock with a constant taken-push cadence: the taken path
    // pushes the cond itself and falls through to the join; the
    // not-taken path pushes a goto instead. Exactly one GPV push per
    // hammock per iteration, with the pushed *address* (and so the
    // 2-bit GPV symbol) encoding the direction.
    let hammock = |b: &mut ProgramBuilder, behavior: CondBehavior| {
        let cond_idx = b.next_index(main);
        b.cond(main, Mn::Brc, behavior, cond_idx + 3); // taken -> B arm
        b.straight(main, 1); // A arm body (not-taken)
        b.goto(main, Mn::J, cond_idx + 4); // A arm exit -> join
        b.straight(main, 1); // B arm body, falls through to join
        b.straight(main, 1); // join
    };

    // Leader: index 0 among conditional sites in program order.
    hammock(&mut b, CondBehavior::Biased { taken_prob: 0.5 });
    for _ in 0..noise_branches {
        hammock(&mut b, CondBehavior::Biased { taken_prob: 0.5 });
    }
    // Follower copies the leader (flat conditional-site index 0). Its
    // own hammock keeps the push cadence uniform.
    hammock(&mut b, CondBehavior::Correlated { depends_on: 0, invert: false });

    b.straight(main, 2);
    b.cond(main, Mn::Brct, CondBehavior::Loop { trip: 1_000_000 }, top);
    b.ret(main);
    Workload {
        label: format!("correlated-noise(s{seed},n{noise_branches})"),
        seed,
        target_instrs,
        program: b.build().expect("valid"),
    }
}

/// Interleaves two single-thread traces into one SMT2 trace: records
/// alternate in `quantum`-sized groups and are tagged with their thread
/// id, modeling two hardware threads sharing the predictor (§IV).
pub fn interleave_smt2(t0: &DynamicTrace, t1: &DynamicTrace, quantum: usize) -> DynamicTrace {
    use zbp_model::ThreadId;
    let quantum = quantum.max(1);
    let mut out = DynamicTrace::new(format!("smt2({} | {})", t0.label(), t1.label()));
    let mut i0 = t0.branches().peekable();
    let mut i1 = t1.branches().peekable();
    loop {
        let mut any = false;
        for _ in 0..quantum {
            if let Some(r) = i0.next() {
                out.push(r.on_thread(ThreadId::ZERO));
                any = true;
            }
        }
        for _ in 0..quantum {
            if let Some(r) = i1.next() {
                out.push(r.on_thread(ThreadId::ONE));
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    out
}

/// The LSPR-style evaluation suite (experiment E7): six mixes averaged
/// the way the paper reports "average … on common LSPR workloads".
pub fn suite(seed: u64, target_instrs: u64) -> Vec<Workload> {
    vec![
        lspr_like(seed, target_instrs),
        lspr_sized(seed.wrapping_add(1), target_instrs, 320, 60),
        compute_loop(seed.wrapping_add(2), target_instrs),
        call_return_heavy(seed.wrapping_add(3), target_instrs),
        indirect_dispatch(seed.wrapping_add(4), target_instrs),
        microservices(seed.wrapping_add(5), target_instrs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lspr_has_large_footprint_and_sane_density() {
        let w = lspr_like(1, 100_000);
        let t = w.dynamic_trace();
        let s = t.summary();
        assert!(s.instructions >= 100_000);
        assert!(
            s.instrs_per_branch() > 3.0 && s.instrs_per_branch() < 8.0,
            "branch density {:.2} off the commercial-code range",
            s.instrs_per_branch()
        );
        assert!(
            s.taken_fraction() > 0.35 && s.taken_fraction() < 0.85,
            "taken fraction {:.2}",
            s.taken_fraction()
        );
        assert!(s.touched_lines64 > 300, "warm footprint too small: {}", s.touched_lines64);
        assert!(s.calls > 0 && s.indirect > 0);
    }

    #[test]
    fn compute_loop_has_small_footprint() {
        let w = compute_loop(1, 50_000);
        let t = w.dynamic_trace();
        let s = t.summary();
        assert!(s.touched_lines64 < 40, "hot kernel stays tiny: {}", s.touched_lines64);
        assert!(s.instructions >= 50_000);
    }

    #[test]
    fn footprints_scale_with_service_count() {
        let small = footprint_sweep(1, 10_000, 20);
        let large = footprint_sweep(1, 10_000, 400);
        assert!(
            large.program().footprint_bytes() > 4 * small.program().footprint_bytes(),
            "footprint must scale"
        );
    }

    #[test]
    fn call_return_returns_are_multi_target() {
        let w = call_return_heavy(1, 50_000);
        let t = w.dynamic_trace();
        // Find a leaf BR site with more than one distinct target.
        use std::collections::{HashMap, HashSet};
        let mut targets: HashMap<u64, HashSet<u64>> = HashMap::new();
        for r in t.branches() {
            if r.mnemonic == zbp_zarch::Mnemonic::Br {
                targets.entry(r.addr.raw()).or_default().insert(r.target.raw());
            }
        }
        let multi = targets.values().filter(|s| s.len() > 1).count();
        assert!(multi >= 3, "expected several multi-target returns, got {multi}");
    }

    #[test]
    fn indirect_dispatch_fans_out() {
        let w = indirect_dispatch(1, 30_000);
        let t = w.dynamic_trace();
        use std::collections::{HashMap, HashSet};
        let mut targets: HashMap<u64, HashSet<u64>> = HashMap::new();
        for r in t.branches() {
            if r.mnemonic == zbp_zarch::Mnemonic::Basr {
                targets.entry(r.addr.raw()).or_default().insert(r.target.raw());
            }
        }
        let max_fanout = targets.values().map(|s| s.len()).max().unwrap_or(0);
        assert!(max_fanout >= 20, "dispatch site fan-out {max_fanout}");
    }

    #[test]
    fn microservices_span_isolated_regions() {
        let w = microservices(1, 40_000);
        let t = w.dynamic_trace();
        let s = t.summary();
        assert!(s.address_span_bytes > 0x400_0000, "images live far apart");
    }

    #[test]
    fn suite_has_six_distinct_workloads() {
        let ws = suite(7, 1_000);
        assert_eq!(ws.len(), 6);
        let labels: std::collections::HashSet<_> = ws.iter().map(|w| w.label.clone()).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = lspr_like(42, 20_000).dynamic_trace();
        let b = lspr_like(42, 20_000).dynamic_trace();
        assert_eq!(a, b);
        let c = lspr_like(43, 20_000).dynamic_trace();
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn patterned_conditionals_follow_their_patterns() {
        let w = patterned(3, 20_000);
        let t = w.dynamic_trace();
        // The period-2 branch (first Brc site) must alternate exactly.
        let first_brc_addr = t
            .branches()
            .find(|r| r.mnemonic == zbp_zarch::Mnemonic::Brc)
            .map(|r| r.addr)
            .expect("has Brc");
        let outs: Vec<bool> =
            t.branches().filter(|r| r.addr == first_brc_addr).map(|r| r.taken).collect();
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(o, i % 2 == 0, "period-2 pattern at {i}");
        }
    }
}

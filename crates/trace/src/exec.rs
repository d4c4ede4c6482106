//! The program executor: runs a synthetic [`Program`] into a
//! [`DynamicTrace`] of retired branch records.
//!
//! Every op gets a flat index when the executor is built (its
//! function's base plus its op index), and all per-site state lives in
//! dense tables addressed by that number. A step borrows its [`Op`]
//! from the program and indexes those tables; it neither hashes nor
//! clones.

use crate::program::{CondBehavior, IndirectSelector, Op, Program};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use zbp_model::{BranchRecord, DynamicTrace};
use zbp_zarch::Mnemonic;

/// Per-site dynamic state (loop counters, pattern cursors, rotation
/// positions, and a conditional's last outcome).
#[derive(Debug, Clone, Copy, Default)]
struct SiteState {
    counter: u32,
    cursor: usize,
    /// The site's most recent outcome, read by
    /// [`CondBehavior::Correlated`] followers; `false` until it runs.
    taken: bool,
}

/// The executor's mutable state: the RNG and the per-site tables. The
/// program itself is only read.
#[derive(Debug)]
struct Sites {
    rng: StdRng,
    /// One entry per op, at its flat index.
    state: Vec<SiteState>,
    /// The flat index of each conditional site, in program order: the
    /// numbering [`CondBehavior::Correlated`] uses.
    conds: Vec<usize>,
}

/// Executes a program deterministically (per seed) into a dynamic trace.
#[derive(Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    /// The flat index of each function's op 0.
    func_base: Vec<usize>,
    sites: Sites,
}

impl<'p> Executor<'p> {
    /// Creates an executor over `program` with a deterministic seed.
    pub fn new(program: &'p Program, seed: u64) -> Self {
        let mut func_base = Vec::with_capacity(program.funcs.len());
        let mut conds = Vec::new();
        let mut next = 0usize;
        for f in &program.funcs {
            func_base.push(next);
            for (oi, op) in f.body.iter().enumerate() {
                if matches!(op, Op::Cond { .. }) {
                    conds.push(next + oi);
                }
            }
            next += f.body.len();
        }
        Executor {
            program,
            func_base,
            sites: Sites {
                rng: StdRng::seed_from_u64(seed),
                state: vec![SiteState::default(); next],
                conds,
            },
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Runs until at least `target_instrs` instructions have retired
    /// (finishing at a branch boundary), repeatedly re-entering function
    /// 0 from a virtual dispatcher when execution returns from it.
    ///
    /// # Panics
    ///
    /// Panics if the program recurses deeper than 4096 frames — the
    /// generators in [`crate::workloads`] construct acyclic call graphs,
    /// so this indicates a malformed hand-built program. Also panics if
    /// the program's ops were edited after [`Program::layout`] validated
    /// them (an out-of-range target, an empty pattern or table).
    pub fn run(&mut self, target_instrs: u64, label: impl Into<String>) -> DynamicTrace {
        let program = self.program;
        let mut trace = DynamicTrace::new(label);
        let mut instrs: u64 = 0;
        let mut gap: u32 = 0;
        let entry_base = program.funcs[0].base;

        'outer: while instrs < target_instrs {
            let mut stack: Vec<(usize, usize)> = Vec::new();
            let (mut fi, mut oi) = (0usize, 0usize);
            loop {
                let func = &program.funcs[fi];
                let addr = func.addr_of(oi);
                let site = self.func_base[fi] + oi;
                match &func.body[oi] {
                    Op::Straight { count, .. } => {
                        gap += u32::from(*count);
                        instrs += u64::from(*count);
                        oi += 1;
                    }
                    Op::Cond { mnemonic, behavior, target } => {
                        let taken = self.sites.eval_cond(site, behavior);
                        let rec = BranchRecord::new(addr, *mnemonic, taken, func.addr_of(*target))
                            .with_gap(gap);
                        trace.push(rec);
                        gap = 0;
                        instrs += 1;
                        oi = if taken { *target } else { oi + 1 };
                    }
                    Op::Goto { mnemonic, target } => {
                        let rec = BranchRecord::new(addr, *mnemonic, true, func.addr_of(*target))
                            .with_gap(gap);
                        trace.push(rec);
                        gap = 0;
                        instrs += 1;
                        oi = *target;
                    }
                    Op::Call { mnemonic, callee } => {
                        let rec =
                            BranchRecord::new(addr, *mnemonic, true, program.funcs[*callee].base)
                                .with_gap(gap);
                        trace.push(rec);
                        gap = 0;
                        instrs += 1;
                        assert!(stack.len() < 4096, "call stack overflow: malformed program");
                        stack.push((fi, oi + 1));
                        fi = *callee;
                        oi = 0;
                    }
                    Op::Ret => {
                        let (ret_target, next) = match stack.pop() {
                            Some((rf, ro)) => (program.funcs[rf].addr_of(ro), Some((rf, ro))),
                            // Returning from the entry function: the
                            // virtual dispatcher re-enters it.
                            None => (entry_base, None),
                        };
                        let rec =
                            BranchRecord::new(addr, Mnemonic::Br, true, ret_target).with_gap(gap);
                        trace.push(rec);
                        gap = 0;
                        instrs += 1;
                        match next {
                            Some((rf, ro)) => {
                                fi = rf;
                                oi = ro;
                            }
                            None => {
                                if instrs >= target_instrs {
                                    break 'outer;
                                }
                                continue 'outer;
                            }
                        }
                    }
                    Op::IndirectLocal { targets, selector } => {
                        let target = targets[self.sites.select(site, *selector, targets.len())];
                        let rec = BranchRecord::new(addr, Mnemonic::Br, true, func.addr_of(target))
                            .with_gap(gap);
                        trace.push(rec);
                        gap = 0;
                        instrs += 1;
                        oi = target;
                    }
                    Op::IndirectCall { callees, selector } => {
                        let callee = callees[self.sites.select(site, *selector, callees.len())];
                        let rec = BranchRecord::new(
                            addr,
                            Mnemonic::Basr,
                            true,
                            program.funcs[callee].base,
                        )
                        .with_gap(gap);
                        trace.push(rec);
                        gap = 0;
                        instrs += 1;
                        assert!(stack.len() < 4096, "call stack overflow: malformed program");
                        stack.push((fi, oi + 1));
                        fi = callee;
                        oi = 0;
                    }
                }
                if instrs >= target_instrs {
                    break 'outer;
                }
            }
        }
        trace.push_tail_instrs(u64::from(gap));
        trace
    }
}

impl Sites {
    /// Evaluates the conditional at flat index `site` and records its
    /// outcome for correlated followers.
    fn eval_cond(&mut self, site: usize, behavior: &CondBehavior) -> bool {
        let taken = match behavior {
            CondBehavior::Loop { trip } => {
                let state = &mut self.state[site];
                state.counter += 1;
                if state.counter >= *trip {
                    state.counter = 0;
                    false
                } else {
                    true
                }
            }
            CondBehavior::Biased { taken_prob } => self.rng.random_bool(*taken_prob),
            CondBehavior::Pattern { pattern } => {
                let state = &mut self.state[site];
                let v = pattern[state.cursor % pattern.len()];
                state.cursor = (state.cursor + 1) % pattern.len();
                v
            }
            CondBehavior::Correlated { depends_on, invert } => {
                self.state[self.conds[*depends_on]].taken ^ invert
            }
        };
        self.state[site].taken = taken;
        taken
    }

    /// Picks one of `n` targets for the indirect site at flat index `site`.
    fn select(&mut self, site: usize, selector: IndirectSelector, n: usize) -> usize {
        let state = &mut self.state[site];
        match selector {
            IndirectSelector::RoundRobin => {
                let v = state.cursor % n;
                state.cursor = (state.cursor + 1) % n;
                v
            }
            IndirectSelector::Random => self.rng.random_range(0..n),
            IndirectSelector::Phased { dwell } => {
                let v = state.cursor % n;
                state.counter += 1;
                if state.counter >= dwell {
                    state.counter = 0;
                    state.cursor = (state.cursor + 1) % n;
                }
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use zbp_zarch::{InstrAddr, Mnemonic as Mn};

    fn loop_program(trip: u32) -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        let top = b.next_index(f); // index 0
        b.straight(f, 4);
        b.cond(f, Mn::Brct, CondBehavior::Loop { trip }, top);
        b.ret(f);
        b.build().unwrap()
    }

    #[test]
    fn loop_behavior_taken_trip_minus_one_times() {
        let p = loop_program(5);
        let mut e = Executor::new(&p, 1);
        let t = e.run(200, "loop");
        // Count consecutive loop-branch outcomes at the BRCT site.
        let brct: Vec<bool> =
            t.branches().filter(|r| r.mnemonic == Mn::Brct).map(|r| r.taken).collect();
        assert!(brct.len() >= 10);
        // Pattern: T T T T N repeating.
        for (i, &tkn) in brct.iter().enumerate() {
            assert_eq!(tkn, (i + 1) % 5 != 0, "iteration {i}");
        }
    }

    #[test]
    fn instruction_budget_is_respected_and_finite() {
        let p = loop_program(3);
        let mut e = Executor::new(&p, 1);
        let t = e.run(1_000, "budget");
        assert!(t.instruction_count() >= 1_000);
        assert!(t.instruction_count() < 1_100, "stops promptly after the budget");
    }

    #[test]
    fn call_return_linkage_targets_are_consistent() {
        let mut b = ProgramBuilder::new();
        let main = b.func(InstrAddr::new(0x1000));
        b.straight(main, 2);
        let call_idx = b.call(main, Mn::Brasl, 1);
        b.straight(main, 2);
        b.ret(main);
        let leaf = b.func(InstrAddr::new(0x9000));
        b.straight(leaf, 1);
        b.ret(leaf);
        let p = b.build().unwrap();
        let call_addr = p.funcs[0].addr_of(call_idx);
        let after_call = p.funcs[0].addr_of(call_idx + 1);
        let mut e = Executor::new(&p, 3);
        let t = e.run(100, "callret");
        // Every BRASL targets the leaf base; every leaf BR targets the
        // op after the call.
        for r in t.branches() {
            match r.mnemonic {
                Mn::Brasl => {
                    assert_eq!(r.addr, call_addr);
                    assert_eq!(r.target, InstrAddr::new(0x9000));
                    assert!(r.taken);
                }
                Mn::Br if r.addr.raw() >= 0x9000 => {
                    assert_eq!(r.target, after_call, "return goes to the call's NSIA");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn pattern_behavior_repeats_exactly() {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        let top = b.next_index(f);
        b.straight(f, 1);
        b.cond(f, Mn::Brc, CondBehavior::Pattern { pattern: vec![true, true, false] }, top);
        // Not-taken exits fall through to a goto back to the top.
        b.goto(f, Mn::J, top);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p, 9);
        let t = e.run(300, "pattern");
        let outs: Vec<bool> =
            t.branches().filter(|r| r.mnemonic == Mn::Brc).map(|r| r.taken).collect();
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(o, i % 3 != 2, "position {i}");
        }
    }

    #[test]
    fn correlated_behavior_follows_leader() {
        // Site 0 alternates; site 1 copies site 0's last outcome.
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.straight(f, 1);
        let skip1 = 3;
        b.cond(f, Mn::Brc, CondBehavior::Pattern { pattern: vec![true, false] }, skip1);
        b.straight(f, 1); // fallthrough filler (op 2)
        b.straight(f, 1); // op 3: cond target
        b.cond(f, Mn::Brcl, CondBehavior::Correlated { depends_on: 0, invert: false }, 6);
        b.straight(f, 1); // op 5
        b.ret(f); // op 6
        let p = b.build().unwrap();
        let mut e = Executor::new(&p, 11);
        let t = e.run(500, "correlated");
        let mut leader = None;
        for r in t.branches() {
            match r.mnemonic {
                Mn::Brc => leader = Some(r.taken),
                Mn::Brcl => {
                    assert_eq!(Some(r.taken), leader, "follower copies the leader");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn leader_that_has_not_run_yet_reads_not_taken() {
        // The follower (site 0) runs before its leader (site 1), which
        // is always taken: the first follower outcome sees the leader's
        // initial `false`, every later one its `true`.
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.cond(f, Mn::Brcl, CondBehavior::Correlated { depends_on: 1, invert: false }, 1);
        b.straight(f, 1);
        b.cond(f, Mn::Brc, CondBehavior::Pattern { pattern: vec![true] }, 3);
        b.ret(f);
        let p = b.build().unwrap();
        let t = Executor::new(&p, 5).run(100, "unrun-leader");
        let outs: Vec<bool> =
            t.branches().filter(|r| r.mnemonic == Mn::Brcl).map(|r| r.taken).collect();
        assert!(outs.len() >= 10);
        assert!(!outs[0], "an unexecuted leader reads not-taken");
        assert!(outs[1..].iter().all(|&o| o), "later outcomes copy the leader");
    }

    #[test]
    fn round_robin_indirect_cycles_targets() {
        let mut b = ProgramBuilder::new();
        let main = b.func(InstrAddr::new(0x1000));
        b.straight(main, 1);
        b.indirect_call(main, vec![1, 2, 3], IndirectSelector::RoundRobin);
        b.ret(main);
        for base in [0x4000u64, 0x5000, 0x6000] {
            let h = b.func(InstrAddr::new(base));
            b.straight(h, 1);
            b.ret(h);
        }
        let p = b.build().unwrap();
        let mut e = Executor::new(&p, 13);
        let t = e.run(200, "rr");
        let targets: Vec<u64> =
            t.branches().filter(|r| r.mnemonic == Mn::Basr).map(|r| r.target.raw()).collect();
        assert!(targets.len() >= 6);
        for (i, &tg) in targets.iter().enumerate() {
            let expect = [0x4000, 0x5000, 0x6000][i % 3];
            assert_eq!(tg, expect, "call {i}");
        }
    }

    #[test]
    fn phased_indirect_dwells() {
        let mut b = ProgramBuilder::new();
        let main = b.func(InstrAddr::new(0x1000));
        b.indirect_call(main, vec![1, 2], IndirectSelector::Phased { dwell: 3 });
        b.ret(main);
        for base in [0x4000u64, 0x5000] {
            let h = b.func(InstrAddr::new(base));
            b.ret(h);
        }
        let p = b.build().unwrap();
        let mut e = Executor::new(&p, 17);
        let t = e.run(60, "phased");
        let targets: Vec<u64> =
            t.branches().filter(|r| r.mnemonic == Mn::Basr).map(|r| r.target.raw()).collect();
        assert!(targets.len() >= 12);
        for (i, &tg) in targets.iter().take(12).enumerate() {
            let expect = if (i / 3) % 2 == 0 { 0x4000 } else { 0x5000 };
            assert_eq!(tg, expect, "call {i}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = loop_program(4);
        let t1 = Executor::new(&p, 99).run(2_000, "a");
        let t2 = Executor::new(&p, 99).run(2_000, "a");
        assert_eq!(t1, t2);
    }

    #[test]
    fn gaps_reconstruct_instruction_count() {
        let p = loop_program(4);
        let mut e = Executor::new(&p, 1);
        let t = e.run(500, "gaps");
        let from_records: u64 =
            t.branch_count() + t.branches().map(|r| u64::from(r.gap_instrs)).sum::<u64>();
        assert!(t.instruction_count() >= from_records);
        assert!(t.instruction_count() - from_records <= 16, "only the tail differs");
    }
}

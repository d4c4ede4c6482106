//! The synthetic program model: functions of straight-line runs and
//! typed branch sites, laid out at concrete instruction addresses.

use std::fmt;
use zbp_zarch::{InstrAddr, Mnemonic};

/// How a conditional branch site behaves dynamically.
#[derive(Debug, Clone, PartialEq)]
pub enum CondBehavior {
    /// A counted loop: taken `trip - 1` times, then not-taken once,
    /// repeating. The classic BRCT for-loop shape (paper §V).
    Loop {
        /// Iterations per activation (≥ 1).
        trip: u32,
    },
    /// Taken with a fixed probability, independently each execution.
    Biased {
        /// Probability of taken in `[0, 1]`.
        taken_prob: f64,
    },
    /// Follows a repeating direction pattern — perfectly predictable
    /// from local/global history (the TAGE showcase).
    Pattern {
        /// The repeating taken/not-taken sequence (non-empty).
        pattern: Vec<bool>,
    },
    /// Taken iff the most recent outcome of another site (by flat site
    /// index) XOR `invert` — cross-branch correlation (the perceptron
    /// showcase). A leader that has not executed yet reads not-taken.
    Correlated {
        /// Flat index of the site this one correlates with: its position
        /// among the program's conditional sites in function and op
        /// order, which [`Program::layout`] checks is in range.
        depends_on: usize,
        /// Whether the correlation is inverted.
        invert: bool,
    },
}

/// How an indirect branch site selects among its targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndirectSelector {
    /// Cycle through the targets in order (path-correlated: perfectly
    /// CTB-predictable once the rotation is in the history).
    RoundRobin,
    /// Uniformly random each execution (worst case for every target
    /// predictor).
    Random,
    /// Stay on one target for `dwell` executions before rotating —
    /// phased behaviour (BTB-friendly within a phase).
    Phased {
        /// Executions per phase.
        dwell: u32,
    },
}

/// One operation in a function body.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A run of `count` non-branch instructions occupying `bytes` bytes.
    Straight {
        /// Number of instructions.
        count: u16,
        /// Total bytes (consistent with 2/4/6-byte instructions).
        bytes: u32,
    },
    /// A conditional branch to another op (by index) in this function.
    Cond {
        /// Branch mnemonic (must be a conditional class).
        mnemonic: Mnemonic,
        /// Dynamic behaviour.
        behavior: CondBehavior,
        /// Target op index within this function.
        target: usize,
    },
    /// An unconditional branch to another op in this function.
    Goto {
        /// Branch mnemonic (must be unconditional relative).
        mnemonic: Mnemonic,
        /// Target op index within this function.
        target: usize,
    },
    /// A call to another function (by index); execution resumes at the
    /// next op on return.
    Call {
        /// Call mnemonic (link-setting).
        mnemonic: Mnemonic,
        /// Callee function index.
        callee: usize,
    },
    /// A register return (`BR` to the saved link).
    Ret,
    /// An indirect multi-target branch to op indices in this function.
    IndirectLocal {
        /// Candidate target op indices.
        targets: Vec<usize>,
        /// Selection policy.
        selector: IndirectSelector,
    },
    /// An indirect call dispatching to one of several functions
    /// (virtual call / branch table).
    IndirectCall {
        /// Candidate callee function indices.
        callees: Vec<usize>,
        /// Selection policy.
        selector: IndirectSelector,
    },
}

impl Op {
    /// Bytes this op occupies in the layout.
    pub fn len_bytes(&self) -> u64 {
        match self {
            Op::Straight { bytes, .. } => u64::from(*bytes),
            Op::Cond { mnemonic, .. } | Op::Goto { mnemonic, .. } | Op::Call { mnemonic, .. } => {
                mnemonic.length().bytes()
            }
            Op::Ret => 2,                  // BR
            Op::IndirectLocal { .. } => 2, // BR through a branch table
            Op::IndirectCall { .. } => 2,  // BASR
        }
    }

    /// Whether this op is a branch site.
    pub fn is_branch(&self) -> bool {
        !matches!(self, Op::Straight { .. })
    }
}

/// A function: a base address and a body of ops laid out sequentially.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Base (entry) instruction address.
    pub base: InstrAddr,
    /// Body operations.
    pub body: Vec<Op>,
    /// Precomputed op addresses (filled by [`Program::layout`]).
    pub op_addrs: Vec<InstrAddr>,
}

impl Func {
    /// The address of op `i`.
    pub fn addr_of(&self, i: usize) -> InstrAddr {
        self.op_addrs[i]
    }

    /// Total body size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.body.iter().map(Op::len_bytes).sum()
    }
}

/// A complete synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The functions; index 0 is the entry.
    pub funcs: Vec<Func>,
}

/// A structural validity error in a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A malformed layout, described in words: no functions, an empty
    /// or fall-through body, a missing op or function, a wrong
    /// mnemonic class, an empty indirect table or overlapping functions.
    Malformed(String),
    /// A [`CondBehavior::Pattern`] with no steps.
    EmptyPattern {
        /// Function index.
        func: usize,
        /// Op index within the function.
        op: usize,
    },
    /// A [`CondBehavior::Correlated`] whose leader is not one of the
    /// program's conditional sites.
    UnknownLeader {
        /// Function index.
        func: usize,
        /// Op index within the function.
        op: usize,
        /// The flat conditional-site index it depends on.
        depends_on: usize,
        /// How many conditional sites the program has.
        sites: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Malformed(why) => write!(f, "invalid program: {why}"),
            ProgramError::EmptyPattern { func, op } => {
                write!(f, "invalid program: func {func} op {op}: empty pattern")
            }
            ProgramError::UnknownLeader { func, op, depends_on, sites } => write!(
                f,
                "invalid program: func {func} op {op}: depends on conditional site \
                 {depends_on}, but there are only {sites}"
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Lays out op addresses and validates structure.
    ///
    /// # Errors
    ///
    /// Returns an error when a branch targets an out-of-range op, a call
    /// references a missing function, a function body is empty or does
    /// not end in control transfer, function address ranges overlap, a
    /// pattern is empty, or a correlated site depends on a conditional
    /// site the program does not have.
    pub fn layout(mut funcs: Vec<Func>) -> Result<Program, ProgramError> {
        if funcs.is_empty() {
            return Err(ProgramError::Malformed("no functions".into()));
        }
        for f in &mut funcs {
            if f.body.is_empty() {
                return Err(ProgramError::Malformed("empty function body".into()));
            }
            let mut addr = f.base;
            f.op_addrs.clear();
            for op in &f.body {
                f.op_addrs.push(addr);
                addr = addr.offset_bytes(op.len_bytes() as i64);
            }
            match f.body.last() {
                Some(Op::Ret) | Some(Op::Goto { .. }) | Some(Op::IndirectLocal { .. }) => {}
                _ => {
                    return Err(ProgramError::Malformed(
                        "function must end in Ret, Goto or IndirectLocal".into(),
                    ))
                }
            }
        }
        let nfuncs = funcs.len();
        let cond_sites =
            funcs.iter().flat_map(|f| &f.body).filter(|op| matches!(op, Op::Cond { .. })).count();
        for (fi, f) in funcs.iter().enumerate() {
            for (oi, op) in f.body.iter().enumerate() {
                let check_local = |t: usize| {
                    if t >= f.body.len() {
                        Err(ProgramError::Malformed(format!(
                            "func {fi} op {oi}: target {t} out of range"
                        )))
                    } else {
                        Ok(())
                    }
                };
                match op {
                    Op::Cond { target, mnemonic, behavior } => {
                        check_local(*target)?;
                        if !mnemonic.class().is_conditional() {
                            return Err(ProgramError::Malformed(format!(
                                "func {fi} op {oi}: {mnemonic} is not conditional"
                            )));
                        }
                        match behavior {
                            CondBehavior::Pattern { pattern } if pattern.is_empty() => {
                                return Err(ProgramError::EmptyPattern { func: fi, op: oi });
                            }
                            CondBehavior::Correlated { depends_on, .. }
                                if *depends_on >= cond_sites =>
                            {
                                return Err(ProgramError::UnknownLeader {
                                    func: fi,
                                    op: oi,
                                    depends_on: *depends_on,
                                    sites: cond_sites,
                                });
                            }
                            _ => {}
                        }
                    }
                    Op::Goto { target, mnemonic } => {
                        check_local(*target)?;
                        if mnemonic.class().is_conditional()
                            || mnemonic.class().is_indirect()
                            || mnemonic.class().is_link_setting()
                        {
                            return Err(ProgramError::Malformed(format!(
                                "func {fi} op {oi}: {mnemonic} is not a plain goto"
                            )));
                        }
                    }
                    Op::Call { callee, mnemonic } => {
                        if *callee >= nfuncs {
                            return Err(ProgramError::Malformed(format!(
                                "func {fi} op {oi}: callee {callee} missing"
                            )));
                        }
                        if !mnemonic.class().is_link_setting() {
                            return Err(ProgramError::Malformed(format!(
                                "func {fi} op {oi}: {mnemonic} is not link-setting"
                            )));
                        }
                    }
                    Op::IndirectLocal { targets, .. } => {
                        if targets.is_empty() {
                            return Err(ProgramError::Malformed(format!(
                                "func {fi} op {oi}: no targets"
                            )));
                        }
                        for t in targets {
                            check_local(*t)?;
                        }
                    }
                    Op::IndirectCall { callees, .. } => {
                        if callees.is_empty() {
                            return Err(ProgramError::Malformed(format!(
                                "func {fi} op {oi}: no callees"
                            )));
                        }
                        for c in callees {
                            if *c >= nfuncs {
                                return Err(ProgramError::Malformed(format!(
                                    "func {fi} op {oi}: callee {c} missing"
                                )));
                            }
                        }
                    }
                    Op::Straight { .. } | Op::Ret => {}
                }
            }
        }
        // Address-range overlap check.
        let mut ranges: Vec<(u64, u64)> =
            funcs.iter().map(|f| (f.base.raw(), f.base.raw() + f.size_bytes())).collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(ProgramError::Malformed(format!(
                    "function ranges overlap: {:#x}..{:#x} vs {:#x}..",
                    w[0].0, w[0].1, w[1].0
                )));
            }
        }
        Ok(Program { funcs })
    }

    /// Renders the program into real z-like machine bytes, one
    /// `(base address, bytes)` image segment per function.
    ///
    /// Branch ops are encoded with their true opcodes and relative
    /// offsets (indirect forms carry register fields); straight runs
    /// become representative filler instructions with the same 2/4/6
    /// length mix the layout used. Decoding an image therefore recovers
    /// exactly the branch sites the executor produces — asserted by the
    /// `image_decodes_back_to_branch_sites` test.
    pub fn render_image(&self) -> Vec<(InstrAddr, Vec<u8>)> {
        use zbp_zarch::encode::{encode_branch, encode_filler};
        use zbp_zarch::InstrLength;
        let mut image = Vec::new();
        for f in &self.funcs {
            let mut bytes = Vec::with_capacity(f.size_bytes() as usize);
            for (oi, op) in f.body.iter().enumerate() {
                let at = f.addr_of(oi);
                match op {
                    Op::Straight { count, .. } => {
                        for k in 0..*count {
                            let len = match k % 5 {
                                0 | 2 => InstrLength::Six,
                                1 | 3 => InstrLength::Four,
                                _ => InstrLength::Two,
                            };
                            bytes.extend(encode_filler(len));
                        }
                    }
                    Op::Cond { mnemonic, target, .. } => {
                        let hw = (f.addr_of(*target).raw() as i64 - at.raw() as i64) / 2;
                        bytes.extend(
                            encode_branch(*mnemonic, 0x8, hw as i32)
                                .expect("generated offsets fit"),
                        );
                    }
                    Op::Goto { mnemonic, target } => {
                        let hw = (f.addr_of(*target).raw() as i64 - at.raw() as i64) / 2;
                        bytes.extend(
                            encode_branch(*mnemonic, 0xf, hw as i32)
                                .expect("generated offsets fit"),
                        );
                    }
                    Op::Call { mnemonic, callee } => {
                        let hw = (self.funcs[*callee].base.raw() as i64 - at.raw() as i64) / 2;
                        // Relative call forms encode the offset; register
                        // forms encode register fields only. A BRAS whose
                        // callee lies beyond the RI immediate's reach is
                        // rendered with a clamped offset (real code would
                        // use BRASL there; the dynamic trace, not the
                        // image, carries behavioural truth).
                        let off = if mnemonic.class().is_indirect() {
                            0
                        } else if mnemonic.length().bytes() == 4 {
                            hw.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i32
                        } else {
                            hw as i32
                        };
                        bytes.extend(encode_branch(*mnemonic, 0x1, off).expect("fits"));
                    }
                    Op::Ret => {
                        bytes.extend(encode_branch(zbp_zarch::Mnemonic::Br, 0xf, 0).expect("rr"));
                    }
                    Op::IndirectLocal { .. } => {
                        bytes.extend(encode_branch(zbp_zarch::Mnemonic::Br, 0xf, 0).expect("rr"));
                    }
                    Op::IndirectCall { .. } => {
                        bytes.extend(encode_branch(zbp_zarch::Mnemonic::Basr, 0x1, 0).expect("rr"));
                    }
                }
            }
            debug_assert_eq!(bytes.len() as u64, f.size_bytes());
            image.push((f.base, bytes));
        }
        image
    }

    /// Static code footprint: total bytes across all functions.
    pub fn footprint_bytes(&self) -> u64 {
        self.funcs.iter().map(Func::size_bytes).sum()
    }

    /// Number of static branch sites.
    pub fn branch_sites(&self) -> usize {
        self.funcs.iter().map(|f| f.body.iter().filter(|o| o.is_branch()).count()).sum()
    }
}

/// An incremental builder for one function at a time.
///
/// # Example
///
/// ```
/// use zbp_trace::{CondBehavior, ProgramBuilder};
/// use zbp_zarch::{InstrAddr, Mnemonic};
///
/// let mut b = ProgramBuilder::new();
/// let f = b.func(InstrAddr::new(0x1000));
/// b.straight(f, 4);
/// let top = b.next_index(f);
/// b.straight(f, 3);
/// b.cond(f, Mnemonic::Brct, CondBehavior::Loop { trip: 10 }, top);
/// b.ret(f);
/// let program = b.build()?;
/// assert_eq!(program.funcs.len(), 1);
/// # Ok::<(), zbp_trace::ProgramError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    funcs: Vec<Func>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new function at `base`, returning its index.
    pub fn func(&mut self, base: InstrAddr) -> usize {
        self.funcs.push(Func { base, body: Vec::new(), op_addrs: Vec::new() });
        self.funcs.len() - 1
    }

    /// The index the *next* op appended to `f` will get (for loop-back
    /// labels).
    pub fn next_index(&self, f: usize) -> usize {
        self.funcs[f].body.len()
    }

    /// Appends a straight-line run of `count` instructions (avg ~4.4
    /// bytes each, mixing 2/4/6-byte formats deterministically).
    pub fn straight(&mut self, f: usize, count: u16) -> usize {
        // Deterministic 2/4/6 mix approximating the ~5-byte average the
        // paper cites: 4,6,4,2 repeating = 4 bytes avg... use 6,4,6,4,2
        // = 4.4; good enough and deterministic.
        let mut bytes = 0u32;
        for k in 0..count {
            bytes += match k % 5 {
                0 | 2 => 6,
                1 | 3 => 4,
                _ => 2,
            };
        }
        self.push(f, Op::Straight { count, bytes })
    }

    /// Appends a conditional branch.
    pub fn cond(
        &mut self,
        f: usize,
        mnemonic: Mnemonic,
        behavior: CondBehavior,
        target: usize,
    ) -> usize {
        self.push(f, Op::Cond { mnemonic, behavior, target })
    }

    /// Appends an unconditional goto.
    pub fn goto(&mut self, f: usize, mnemonic: Mnemonic, target: usize) -> usize {
        self.push(f, Op::Goto { mnemonic, target })
    }

    /// Appends a direct call.
    pub fn call(&mut self, f: usize, mnemonic: Mnemonic, callee: usize) -> usize {
        self.push(f, Op::Call { mnemonic, callee })
    }

    /// Appends an indirect call through a table of callees.
    pub fn indirect_call(
        &mut self,
        f: usize,
        callees: Vec<usize>,
        selector: IndirectSelector,
    ) -> usize {
        self.push(f, Op::IndirectCall { callees, selector })
    }

    /// Appends a local indirect branch.
    pub fn indirect_local(
        &mut self,
        f: usize,
        targets: Vec<usize>,
        selector: IndirectSelector,
    ) -> usize {
        self.push(f, Op::IndirectLocal { targets, selector })
    }

    /// Appends a return.
    pub fn ret(&mut self, f: usize) -> usize {
        self.push(f, Op::Ret)
    }

    /// Finishes the program, laying out addresses and validating.
    ///
    /// # Errors
    ///
    /// Propagates [`Program::layout`] validation failures.
    pub fn build(self) -> Result<Program, ProgramError> {
        Program::layout(self.funcs)
    }

    fn push(&mut self, f: usize, op: Op) -> usize {
        self.funcs[f].body.push(op);
        self.funcs[f].body.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.func(InstrAddr::new(0x1000));
        b.straight(main, 3);
        b.call(main, Mnemonic::Brasl, 1);
        b.ret(main);
        let leaf = b.func(InstrAddr::new(0x9000));
        b.straight(leaf, 2);
        b.ret(leaf);
        b.build().expect("valid")
    }

    #[test]
    fn layout_assigns_sequential_addresses() {
        let p = tiny();
        let main = &p.funcs[0];
        assert_eq!(main.addr_of(0), InstrAddr::new(0x1000));
        // 3 straight instrs: 6+4+6 = 16 bytes.
        assert_eq!(main.addr_of(1), InstrAddr::new(0x1010));
        // BRASL is 6 bytes.
        assert_eq!(main.addr_of(2), InstrAddr::new(0x1016));
        assert_eq!(main.size_bytes(), 16 + 6 + 2);
        assert_eq!(p.branch_sites(), 3);
        assert!(p.footprint_bytes() > 0);
    }

    #[test]
    fn validation_rejects_bad_targets() {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.cond(f, Mnemonic::Brc, CondBehavior::Biased { taken_prob: 0.5 }, 99);
        b.ret(f);
        assert!(b.build().is_err());
    }

    #[test]
    fn validation_rejects_missing_callee() {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.call(f, Mnemonic::Brasl, 7);
        b.ret(f);
        assert!(b.build().is_err());
    }

    #[test]
    fn validation_rejects_wrong_mnemonic_classes() {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.cond(f, Mnemonic::J, CondBehavior::Biased { taken_prob: 0.5 }, 0);
        b.ret(f);
        assert!(b.build().is_err(), "J is not conditional");

        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.goto(f, Mnemonic::Brasl, 0);
        assert!(b.build().is_err(), "BRASL is not a plain goto");
    }

    #[test]
    fn validation_rejects_fallthrough_end() {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.straight(f, 3);
        assert!(b.build().is_err(), "must end in control transfer");
    }

    #[test]
    fn validation_rejects_overlapping_functions() {
        let mut b = ProgramBuilder::new();
        let a = b.func(InstrAddr::new(0x1000));
        b.straight(a, 10);
        b.ret(a);
        let c = b.func(InstrAddr::new(0x1004)); // inside a's range
        b.ret(c);
        assert!(b.build().is_err());
    }

    #[test]
    fn validation_rejects_empty_indirect_tables() {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.indirect_call(f, vec![], IndirectSelector::Random);
        b.ret(f);
        assert!(b.build().is_err());
    }

    #[test]
    fn validation_rejects_empty_patterns() {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.straight(f, 1);
        b.cond(f, Mnemonic::Brc, CondBehavior::Pattern { pattern: vec![] }, 0);
        b.ret(f);
        assert_eq!(b.build().unwrap_err(), ProgramError::EmptyPattern { func: 0, op: 1 });
    }

    #[test]
    fn validation_rejects_correlation_with_a_missing_site() {
        // Two conditional sites: flat indices 0 and 1 exist, 2 does not.
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.cond(f, Mnemonic::Brc, CondBehavior::Biased { taken_prob: 0.5 }, 1);
        b.cond(f, Mnemonic::Brc, CondBehavior::Correlated { depends_on: 2, invert: false }, 2);
        b.ret(f);
        let err = b.build().unwrap_err();
        assert_eq!(err, ProgramError::UnknownLeader { func: 0, op: 1, depends_on: 2, sites: 2 });
        assert!(err.to_string().contains("conditional site 2, but there are only 2"), "{err}");

        // Depending on itself, the last site, is valid.
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.cond(f, Mnemonic::Brc, CondBehavior::Biased { taken_prob: 0.5 }, 1);
        b.cond(f, Mnemonic::Brc, CondBehavior::Correlated { depends_on: 1, invert: false }, 2);
        b.ret(f);
        assert!(b.build().is_ok());
    }

    #[test]
    fn error_messages_are_descriptive() {
        let mut b = ProgramBuilder::new();
        let f = b.func(InstrAddr::new(0x1000));
        b.cond(f, Mnemonic::Brc, CondBehavior::Biased { taken_prob: 0.5 }, 42);
        b.ret(f);
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("target 42 out of range"), "{err}");
    }

    #[test]
    fn op_lengths_match_formats() {
        assert_eq!(Op::Ret.len_bytes(), 2);
        assert_eq!(Op::Call { mnemonic: Mnemonic::Brasl, callee: 0 }.len_bytes(), 6);
        assert_eq!(Op::Call { mnemonic: Mnemonic::Basr, callee: 0 }.len_bytes(), 2);
        assert_eq!(
            Op::IndirectCall { callees: vec![0], selector: IndirectSelector::Random }.len_bytes(),
            2
        );
        assert_eq!(
            Op::IndirectLocal { targets: vec![0], selector: IndirectSelector::Random }.len_bytes(),
            2
        );
    }
}

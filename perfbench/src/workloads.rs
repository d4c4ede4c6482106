//! The three workloads: which generators feed each, and the timed
//! set-up that turns a seed into replay inputs.

use crate::report::thread_cpu_s;
use zbp_core::{PredictorConfig, ZPredictor};
use zbp_model::{DynamicTrace, ReplayBuffer};
use zbp_trace::{workloads as gen, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Whole-buffer replay of large-footprint generators (BTB1 misses,
    /// BTB2 search and transfer, install and evict).
    ReplayFootprint,
    /// Whole-buffer replay of small-footprint generators (BTB1 hits;
    /// direction providers, CTB, CRS and stats attribution).
    ReplayHot,
    /// Closed-loop streams of suite traces over loopback to an
    /// in-process one-shard server.
    ServeStream,
}

impl Kind {
    pub fn parse(s: &str) -> Result<Kind, String> {
        match s {
            "replay-footprint" => Ok(Kind::ReplayFootprint),
            "replay-hot" => Ok(Kind::ReplayHot),
            "serve-stream" => Ok(Kind::ServeStream),
            _ => Err(format!(
                "unknown workload {s} (expected replay-footprint, replay-hot or serve-stream)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReplayFootprint => "replay-footprint",
            Kind::ReplayHot => "replay-hot",
            Kind::ServeStream => "serve-stream",
        }
    }

    /// Instructions per generated trace.
    pub fn default_instrs(self) -> u64 {
        match self {
            Kind::ReplayFootprint => 500_000,
            Kind::ReplayHot => 250_000,
            Kind::ServeStream => 400_000,
        }
    }

    /// Programs drawn per generator. A seed draws one program per
    /// (generator, instance); the workload's aggregate figures (MPKI
    /// above all) vary from seed to seed by about 1/sqrt(instances) of
    /// one program's spread, so the small-footprint generators, whose
    /// MPKI swings most between programs, get more instances.
    fn instances(self) -> u64 {
        match self {
            Kind::ReplayFootprint => 4,
            Kind::ReplayHot => 8,
            Kind::ServeStream => 3,
        }
    }

    fn generators(self, seed: u64, instrs: u64) -> Vec<Workload> {
        let mut out = Vec::new();
        for k in 0..self.instances() {
            let s = seed.wrapping_add(k.wrapping_mul(1_000_003));
            match self {
                Kind::ReplayFootprint => out.extend([
                    gen::lspr_sized(s, instrs, 320, 60),
                    gen::microservices(s.wrapping_add(1), instrs),
                    gen::footprint_sweep(s.wrapping_add(2), instrs, 2000),
                ]),
                Kind::ReplayHot => out.extend([
                    gen::compute_loop(s, instrs),
                    gen::call_return_heavy(s.wrapping_add(1), instrs),
                    gen::indirect_dispatch(s.wrapping_add(2), instrs),
                    gen::patterned(s.wrapping_add(3), instrs),
                ]),
                Kind::ServeStream => out.extend(gen::suite(s, instrs)),
            }
        }
        out
    }
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub traces: Vec<DynamicTrace>,
    pub bufs: Vec<ReplayBuffer>,
}

impl Inputs {
    pub fn instructions(&self) -> u64 {
        self.traces.iter().map(DynamicTrace::instruction_count).sum()
    }

    pub fn branches(&self) -> u64 {
        self.bufs.iter().map(|b| b.len() as u64).sum()
    }
}

/// Timings of one set-up's phases, in CPU seconds of this thread.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub decode_s: f64,
    pub predictor_new_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.decode_s + self.predictor_new_s
    }
}

/// Sets the workload up once: trace generation, `ReplayBuffer` decode
/// and the first `ZPredictor::new`. Set-up is single-threaded, so it is
/// timed in this thread's CPU seconds, which time stolen by other
/// tenants of the host does not inflate.
pub fn set_up_timed(
    kind: Kind,
    seed: u64,
    instrs: u64,
    cfg: &PredictorConfig,
) -> Result<(Inputs, SetupTimes), String> {
    let t0 = thread_cpu_s()?;
    let traces: Vec<DynamicTrace> =
        kind.generators(seed, instrs).iter().map(Workload::dynamic_trace).collect();
    let t1 = thread_cpu_s()?;
    let bufs: Vec<ReplayBuffer> = traces.iter().map(ReplayBuffer::from_trace).collect();
    let t2 = thread_cpu_s()?;
    let pred = ZPredictor::new(cfg.clone());
    let t3 = thread_cpu_s()?;
    std::hint::black_box(&pred);
    let times = SetupTimes { generate_s: t1 - t0, decode_s: t2 - t1, predictor_new_s: t3 - t2 };
    Ok((Inputs { traces, bufs }, times))
}

/// [`set_up_timed`] reporting only the total.
pub fn set_up(
    kind: Kind,
    seed: u64,
    instrs: u64,
    cfg: &PredictorConfig,
) -> Result<(Inputs, f64), String> {
    set_up_timed(kind, seed, instrs, cfg).map(|(inputs, t)| (inputs, t.total_s()))
}

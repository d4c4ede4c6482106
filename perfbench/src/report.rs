//! Result assembly: sample distributions, the machine fingerprint, and
//! the two output lines (detail, then the result object).

use std::fmt::Write as _;
use std::time::Instant;

/// Samples of one measured quantity.
#[derive(Debug, Default, Clone)]
pub struct Dist {
    samples: Vec<f64>,
}

impl Dist {
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    pub fn extend(&mut self, other: &Dist) {
        self.samples.extend_from_slice(&other.samples);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile by linear interpolation between order statistics.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        match s.len() {
            0 => f64::NAN,
            1 => s[0],
            n => {
                let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
            }
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn min(&self) -> f64 {
        self.quantile(0.0)
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one run prints.
pub struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few), for the detail line.
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Distribution summaries and other context for the detail line.
    detail: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Self {
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// Counts one operation, failed when `problem` is `Some`.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            eprintln!("perfbench: failed: {problem}");
            self.failures.push(problem);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Reports the median of `d` as a metric and records its quartiles
    /// and sample count in the detail line.
    pub fn median(&mut self, name: &str, d: &Dist, unit: &'static str) {
        self.metric(name, d.median(), unit);
        self.note_dist(name, d);
    }

    /// Records the quantiles and sample count of `d` in the detail line.
    pub fn note_dist(&mut self, name: &str, d: &Dist) {
        self.note(
            name,
            format!(
                "{{\"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"p99\": {}, \"max\": {}, \"n\": {}}}",
                num(d.quantile(0.0)),
                num(d.quantile(0.25)),
                num(d.median()),
                num(d.quantile(0.75)),
                num(d.quantile(0.99)),
                num(d.quantile(1.0)),
                d.len()
            ),
        );
    }

    /// Adds a raw JSON value to the detail line.
    pub fn note(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// Prints the detail line, then the result line. A metric that is
    /// not a finite number makes the run incorrect rather than printing
    /// invalid JSON.
    pub fn print(mut self) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.failed += 1;
                self.failures.push(format!("metric {} is not finite", m.name));
            }
        }
        let mut detail = String::from("{\"detail\": {");
        let _ = write!(
            detail,
            "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"fingerprint\": {}, \
             \"failed_frac\": {}, \"failures\": [{}]",
            self.workload,
            self.seed,
            u8::from(self.trace),
            fingerprint(),
            num(self.failed as f64 / self.attempted.max(1) as f64),
            self.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", ")
        );
        for (k, v) in &self.detail {
            let _ = write!(detail, ", \"{k}\": {v}");
        }
        detail.push_str("}}");
        println!("{detail}");

        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// A JSON number with every digit Rust keeps (`null` when not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// CPU seconds this thread has run (`CLOCK_THREAD_CPUTIME_ID`). Unlike
/// wall time it counts only time the thread was on a CPU, and unlike
/// `/proc/thread-self/schedstat`, which advances only at scheduler ticks
/// (4 ms apart at `HZ=250`), it is exact to the nanosecond, so a
/// replay of a few milliseconds can be timed alone.
pub fn thread_cpu_s() -> Result<f64, String> {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec, the only memory the
    // call writes.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Err(format!("clock_gettime: {}", std::io::Error::last_os_error()));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// CPU model, available parallelism and the rate of a fixed
/// calibration loop: the cross-machine ratio base. Recorded, never
/// gated.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"calib_mops_per_s\": {}, \
         \"calib_mem_mreads_per_s\": {}}}",
        json_str(&cpu),
        num(calibration_rate()),
        num(memory_calibration_rate())
    )
}

/// Median rate, in million dependent reads per second, of a pointer
/// chase through a random cycle over 8 MiB: the same order of size as
/// the z15 preset's tables, so it slows when other tenants contend for
/// the shared cache and memory the replay also depends on.
fn memory_calibration_rate() -> f64 {
    const SLOTS: usize = 1 << 20;
    const STEPS: u32 = 500_000;
    // Sattolo's shuffle makes one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x = 0x2545_f491u64;
    for i in (1..SLOTS).rev() {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let j = (x >> 33) as usize % i;
        next.swap(i, j);
    }
    let mut d = Dist::default();
    let mut at = 0u32;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..STEPS {
            at = next[at as usize];
        }
        d.push(f64::from(STEPS) / t.elapsed().as_secs_f64() / 1e6);
    }
    std::hint::black_box(at);
    d.median()
}

/// Median rate, in million iterations per second, of a dependent
/// xorshift-multiply chain (no memory traffic, so it tracks core clock
/// and pipeline, not caches).
fn calibration_rate() -> f64 {
    const ITERS: u64 = 2_000_000;
    let mut d = Dist::default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        std::hint::black_box(x);
        d.push(ITERS as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    d.median()
}

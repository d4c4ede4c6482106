//! serve-stream: a closed loop over loopback against an in-process
//! one-shard `Server`.
//!
//! `CLIENTS` threads each hold one connection and multiplex
//! `STREAMS_PER_CONN` concurrent z15 streams on it: open them all, feed
//! them round robin in `FEED_BATCH`-record frames, close them, and
//! compare every closed stream with a local replay of the same trace.
//! Each client sends its next request only after the reply to the last.

use crate::replay::{Reps, FEED_BATCH};
use crate::report::{peak_rss_mib, Dist, Report};
use crate::workloads::{set_up, Kind};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use zbp_core::{GenerationPreset, PredictorConfig};
use zbp_model::DynamicTrace;
use zbp_serve::{
    Client, Frame, PoolConfig, Server, Session, SessionReport, WireMode, DEFAULT_DEPTH,
    PROTO_VERSION,
};

const CLIENTS: usize = 2;
const STREAMS_PER_CONN: usize = 3;

/// Windows per run. Each window's figures are one sample, and a timed
/// set-up precedes every window but the first (the first set-up comes
/// before the server starts).
const WINDOWS: usize = 6;

/// What one client thread measured.
#[derive(Default)]
struct ClientLoad {
    open_us: Dist,
    feed_us: Dist,
    instructions: u64,
    attempted: u64,
    failures: Vec<String>,
}

impl ClientLoad {
    fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.failures.push(format!("{what}: {e}"))).ok()
    }
}

fn server() -> Result<Server, String> {
    Server::bind("127.0.0.1:0", PoolConfig { shards: 1, ..PoolConfig::default() })
        .map_err(|e| format!("binding the loopback server: {e}"))
}

/// Runs groups of `STREAMS_PER_CONN` streams on one connection until
/// `deadline` (a group started before it runs to the end), rotating
/// through the traces from index `first`.
fn client_loop(
    addr: SocketAddr,
    first: usize,
    traces: &[DynamicTrace],
    refs: &[SessionReport],
    deadline: Instant,
) -> ClientLoad {
    let mut load = ClientLoad::default();
    let mut client = None;
    let mut next = first;
    loop {
        if client.is_none() {
            client = load.op("connect", Client::connect(addr));
        }
        let Some(conn) = client.as_mut() else { break };
        let group: Vec<usize> = (0..STREAMS_PER_CONN).map(|k| (next + k) % traces.len()).collect();
        next += STREAMS_PER_CONN;
        if !run_group(conn, &group, traces, refs, &mut load) {
            // The connection's state is unknown after a failure.
            client = None;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    load
}

/// One group: open, feed round robin, close and parity-check. Returns
/// whether every operation succeeded.
fn run_group(
    conn: &mut Client,
    group: &[usize],
    traces: &[DynamicTrace],
    refs: &[SessionReport],
    load: &mut ClientLoad,
) -> bool {
    let wire = WireMode::Delayed(DEFAULT_DEPTH as u32);
    let mut ids = Vec::with_capacity(group.len());
    for &i in group {
        let t = Instant::now();
        let opened = conn.open(GenerationPreset::Z15, wire, false, traces[i].label());
        let us = t.elapsed().as_secs_f64() * 1e6;
        let Some((id, _shard)) = load.op("open", opened) else { return false };
        load.open_us.push(us);
        ids.push(id);
    }
    let batches: Vec<Vec<&[zbp_model::BranchRecord]>> =
        group.iter().map(|&i| traces[i].as_slice().chunks(FEED_BATCH).collect()).collect();
    let longest = batches.iter().map(Vec::len).max().unwrap_or(0);
    for b in 0..longest {
        for (s, id) in ids.iter().enumerate() {
            let Some(batch) = batches[s].get(b) else { continue };
            let t = Instant::now();
            let fed = conn.feed(*id, batch);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if load.op("feed", fed).is_none() {
                return false;
            }
            load.feed_us.push(us);
        }
    }
    for (&i, &id) in group.iter().zip(&ids) {
        let Some((stats, flushes, records)) =
            load.op("close", conn.close(id, traces[i].tail_instrs()))
        else {
            return false;
        };
        let want = &refs[i];
        if stats != want.stats || flushes != want.flushes || records != want.records {
            load.failures
                .push(format!("stream {} differs from its local replay", traces[i].label()));
            return false;
        }
        load.instructions += stats.instructions.get();
    }
    true
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
    // Local replays every served stream must reproduce.
    let refs: Vec<SessionReport> =
        inputs.traces.iter().map(|t| Session::options(cfg).depth(DEFAULT_DEPTH).run(t)).collect();
    let (mut mispredicts, mut counted) = (0u64, 0u64);
    for r in &refs {
        mispredicts += r.stats.mispredictions();
        counted += r.stats.instructions.get();
    }

    let server = server()?;
    let addr = server.local_addr();
    let mut reps = Reps::default();
    reps.setup_s.push(setup);
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let mut streamed = 0u64;
    for w in 0..WINDOWS {
        if w > 0 {
            let (again, setup_s) = set_up(kind, seed, instrs, cfg)?;
            reps.setup_s.push(setup_s);
            report
                .op((again.traces != inputs.traces).then(|| "set-up is not deterministic".into()));
        }
        let t0 = Instant::now();
        let loads: Vec<ClientLoad> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (traces, refs) = (&inputs.traces, &refs);
                    let first = c + w * CLIENTS * STREAMS_PER_CONN;
                    s.spawn(move || client_loop(addr, first, traces, refs, t0 + window))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let (mut feed_us, mut open_us) = (Dist::default(), Dist::default());
        let mut instructions = 0u64;
        for load in loads {
            feed_us.extend(&load.feed_us);
            open_us.extend(&load.open_us);
            instructions += load.instructions;
            report.attempted += load.attempted;
            for f in load.failures {
                report.fail(f);
            }
        }
        streamed += instructions;
        reps.rate.push(instructions as f64 / wall / 1e6);
        reps.feed_p50_us.push(feed_us.median());
        reps.feed_p99_us.push(feed_us.quantile(0.99));
        reps.open_p50_us.push(open_us.median());
    }
    server.shutdown();

    reps.report(report);
    report.metric("mpki", mispredicts as f64 * 1e3 / counted.max(1) as f64, "1/kinstr");
    report.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    report.note("instructions_streamed", streamed.to_string());
    Ok(())
}

/// Frames the codec is timed on, at most.
const CODEC_FRAMES: usize = 256;

/// Round trips of the smallest frame for `serve.rtt_us`.
const RTT_REPS: usize = 400;

/// The serve layers, measured on `trace`: codec cost per `Feed` frame,
/// a local session's feed and open cost, the loopback round trip of a
/// `Hello`, and one stream fed over the socket, whose median `Feed`
/// latency less the codec and local feed time is the transport residue.
pub fn layer_probe(
    cfg: &PredictorConfig,
    trace: &DynamicTrace,
    reference: &SessionReport,
    report: &mut Report,
) -> Result<(), String> {
    let frames: Vec<Frame> = trace
        .as_slice()
        .chunks(FEED_BATCH)
        .take(CODEC_FRAMES)
        .map(|b| Frame::Feed { id: 1, batch: b.to_vec() })
        .collect();
    let records: usize = trace.as_slice().len().min(CODEC_FRAMES * FEED_BATCH);
    let (mut encode, mut decode) = (Dist::default(), Dist::default());
    let mut bytes = 0usize;
    for _ in 0..5 {
        let t = Instant::now();
        let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        encode.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
        bytes = encoded.iter().map(Vec::len).sum();
        let t = Instant::now();
        for e in &encoded {
            std::hint::black_box(
                Frame::decode(e).map_err(|e| format!("decoding a feed frame: {e}"))?,
            );
        }
        decode.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    report.median("serve.proto.encode_ns", &encode, "ns");
    report.median("serve.proto.decode_ns", &decode, "ns");
    report.metric("serve.proto.bytes_per_record", bytes as f64 / records.max(1) as f64, "B/record");

    let (mut feed_ns, mut open_us) = (Dist::default(), Dist::default());
    for _ in 0..5 {
        let t = Instant::now();
        let mut s = Session::options(cfg).depth(DEFAULT_DEPTH).open(trace.label());
        open_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        for b in trace.as_slice().chunks(FEED_BATCH) {
            s.feed(b);
        }
        feed_ns.push(t.elapsed().as_nanos() as f64 / trace.as_slice().len().max(1) as f64);
        let got = s.finish(trace.tail_instrs());
        report.op((got.stats != reference.stats)
            .then(|| format!("local session of {} differs from whole-buffer", trace.label())));
    }
    report.median("serve.session.feed_ns_per_record", &feed_ns, "ns/record");
    report.median("serve.session.open_us", &open_us, "us");

    let server = server()?;
    let result = socket_probe(server.local_addr(), trace, reference, report);
    server.shutdown();
    let (rtt, feed_us, busy) = result?;
    report.median("serve.rtt_us", &rtt, "us");
    let local_us =
        (encode.median() + decode.median()) / 1e3 + feed_ns.median() * FEED_BATCH as f64 / 1e3;
    report.metric("serve.transport_residue_us", feed_us.median() - local_us, "us");
    report.metric("serve.busy_retries", busy as f64, "count");
    report.note("serve.socket_feed_us", format!("{}", feed_us.median()));
    Ok(())
}

/// `Hello` round trips, then one stream of `trace` fed over the socket.
fn socket_probe(
    addr: SocketAddr,
    trace: &DynamicTrace,
    reference: &SessionReport,
    report: &mut Report,
) -> Result<(Dist, Dist, u64), String> {
    let mut conn = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut rtt = Dist::default();
    for _ in 0..RTT_REPS {
        let t = Instant::now();
        let reply = conn.call(&Frame::Hello { version: PROTO_VERSION });
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
        report.op(reply.err().map(|e| format!("hello: {e}")));
    }
    let mut load = ClientLoad::default();
    let refs = std::slice::from_ref(reference);
    let ok = run_group(&mut conn, &[0], std::slice::from_ref(trace), refs, &mut load);
    report.attempted += load.attempted;
    for f in load.failures {
        report.fail(f);
    }
    if !ok && load.feed_us.len() == 0 {
        return Err("the socket probe stream failed".into());
    }
    Ok((rtt, load.feed_us, conn.busy_retries()))
}

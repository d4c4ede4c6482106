//! Interleaving models of the [`ShardPool`] hot paths, run under the
//! loom scheduler (`RUSTFLAGS="--cfg loom" cargo test -p zbp-serve
//! --test loom_pool`).
//!
//! Each model re-executes its closure across many perturbed schedules
//! (see `compat/loom`: probabilistic exploration, `LOOM_ITERS`
//! schedules per model). The properties are the pool's concurrency
//! contract:
//!
//! 1. **Busy-then-recover** — a full command queue rejects with
//!    `Busy`, and once the shard drains, a retry of the *same* batch
//!    succeeds with nothing lost or duplicated.
//! 2. **Concurrent drain vs. feed** — two streams hammering one shard
//!    from separate threads produce byte-identical reports to isolated
//!    serial runs.
//! 3. **No aliasing** — sessions on one shard never share predictor
//!    state: streams opened, fed and closed concurrently, after another
//!    stream on the same shard has finished, still match fresh isolated
//!    runs exactly.

#![cfg(loom)]

use loom::sync::Arc;
use zbp_core::GenerationPreset;
use zbp_model::{BranchRecord, DynamicTrace};
use zbp_serve::{PoolConfig, ReplayMode, ServeError, Session, ShardPool, StreamId};
use zbp_trace::workloads;

fn trace(seed: u64, len: u64) -> DynamicTrace {
    let t = workloads::lspr_like(seed, len).dynamic_trace();
    let tail = t.tail_instrs();
    let mut out = DynamicTrace::from_records(format!("loom-{seed}"), t.as_slice().to_vec());
    out.push_tail_instrs(tail);
    out
}

/// Retries `op` through `Busy` rejections (the loom scheduler decides
/// how often we collide).
fn retry<T>(mut op: impl FnMut() -> Result<T, ServeError>) -> T {
    loop {
        match op() {
            Ok(v) => return v,
            Err(ServeError::Busy { .. }) => loom::thread::yield_now(),
            Err(e) => panic!("pool call failed: {e}"),
        }
    }
}

/// Feeds every record in `batch`-sized chunks, spinning through `Busy`
/// rejections.
fn feed_all(pool: &ShardPool, id: StreamId, records: &[BranchRecord], batch: usize) -> u64 {
    let mut total = 0;
    for chunk in records.chunks(batch) {
        total = retry(|| pool.feed(id, chunk.to_vec()));
    }
    total
}

#[test]
fn busy_queue_recovers_once_the_shard_drains() {
    loom::model(|| {
        let t = trace(7, 300);
        let pool =
            ShardPool::new(PoolConfig { shards: 1, queue_depth: 1, ..PoolConfig::default() });
        let cfg = GenerationPreset::Z15.config();
        let opened = pool.open(t.label(), &cfg, ReplayMode::default(), false).expect("open");

        // Park the worker so the 1-deep queue fills deterministically.
        let pause = pool.pause_shard(0).expect("pause");
        let records = t.as_slice();
        let (first, rest) = records.split_at(records.len() / 2);
        let confirm = pool.feed_async(opened.id, first.to_vec()).expect("slot free");
        let rejected = pool.feed(opened.id, rest.to_vec());
        assert!(
            matches!(rejected, Err(ServeError::Busy { .. })),
            "full queue must reject, got {rejected:?}"
        );

        // Resume from another thread while this one retries: whichever
        // way the schedule lands, the retry must eventually land the
        // SAME batch exactly once.
        let resumer = loom::thread::spawn(move || drop(pause));
        let total = loop {
            match pool.feed(opened.id, rest.to_vec()) {
                Ok(n) => break n,
                Err(ServeError::Busy { .. }) => loom::thread::yield_now(),
                Err(e) => panic!("retry failed: {e}"),
            }
        };
        resumer.join().expect("resumer");
        assert_eq!(confirm.recv().expect("first batch ack"), Ok(first.len() as u64));
        assert_eq!(total, records.len() as u64, "no loss, no duplication");

        let report = pool.close(opened.id, t.tail_instrs()).expect("close");
        assert_eq!(report, Session::options(&cfg).run(&t));
        let summary = pool.shutdown();
        assert!(summary.busy_rejections >= 1, "the rejection was counted");
    });
}

#[test]
fn concurrent_feeds_on_one_shard_match_isolated_runs() {
    loom::model(|| {
        let ta = trace(11, 250);
        let tb = trace(13, 250);
        let pool = Arc::new(ShardPool::new(PoolConfig {
            shards: 1,
            queue_depth: 4,
            ..PoolConfig::default()
        }));
        let cfg = GenerationPreset::Z15.config();
        let oa = pool.open(ta.label(), &cfg, ReplayMode::default(), true).expect("open a");
        let ob = pool.open(tb.label(), &cfg, ReplayMode::default(), true).expect("open b");

        let feeders: Vec<_> = [(oa.id, ta.clone()), (ob.id, tb.clone())]
            .into_iter()
            .map(|(id, t)| {
                let pool = Arc::clone(&pool);
                loom::thread::spawn(move || feed_all(&pool, id, t.as_slice(), 61))
            })
            .collect();
        for f in feeders {
            f.join().expect("feeder");
        }

        let ra = pool.close(oa.id, ta.tail_instrs()).expect("close a");
        let rb = pool.close(ob.id, tb.tail_instrs()).expect("close b");
        assert_eq!(ra, Session::options(&cfg).telemetry(true).run(&ta), "stream a");
        assert_eq!(rb, Session::options(&cfg).telemetry(true).run(&tb), "stream b");

        let pool = Arc::try_unwrap(pool).expect("feeders dropped their handles");
        pool.shutdown();
    });
}

#[test]
fn concurrent_sessions_on_one_shard_never_alias() {
    loom::model(|| {
        let warm = trace(17, 200);
        let ta = trace(19, 200);
        let tb = trace(23, 200);
        let pool = Arc::new(ShardPool::new(PoolConfig {
            shards: 1,
            queue_depth: 8,
            ..PoolConfig::default()
        }));
        let cfg = GenerationPreset::Z15.config();

        // A finished session first, so its tables could leak into the
        // next ones if the shard kept any predictor state around.
        let o0 = pool.open(warm.label(), &cfg, ReplayMode::default(), false).expect("open warm");
        feed_all(&pool, o0.id, warm.as_slice(), 97);
        let warm_report = pool.close(o0.id, warm.tail_instrs()).expect("close warm");
        assert_eq!(warm_report, Session::options(&cfg).run(&warm));

        // Two streams, each opened, fed and closed from its own thread,
        // so one stream's open and close race the other's feeds. Shared
        // state of any kind (tables, a stale GPQ) would make the reports
        // diverge from isolated runs.
        let workers: Vec<_> = [ta.clone(), tb.clone()]
            .into_iter()
            .map(|t| {
                let pool = Arc::clone(&pool);
                let cfg = cfg.clone();
                loom::thread::spawn(move || {
                    let opened = retry(|| pool.open(t.label(), &cfg, ReplayMode::default(), false));
                    feed_all(&pool, opened.id, t.as_slice(), 53);
                    (opened.id, retry(|| pool.close(opened.id, t.tail_instrs())))
                })
            })
            .collect();
        let mut done = workers.into_iter().map(|w| w.join().expect("worker"));
        let (ia, ra) = done.next().expect("stream a");
        let (ib, rb) = done.next().expect("stream b");
        assert!(o0.id < ia && o0.id < ib && ia != ib, "stream ids stay unique and ascending");
        assert_eq!(ra, Session::options(&cfg).run(&ta), "session a");
        assert_eq!(rb, Session::options(&cfg).run(&tb), "session b");

        let pool = Arc::try_unwrap(pool).expect("workers dropped their handles");
        let summary = pool.shutdown();
        assert_eq!(summary.sessions.len(), 3);
    });
}

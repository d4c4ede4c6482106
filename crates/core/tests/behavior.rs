//! End-to-end behavioural tests of paper mechanisms that only surface
//! through the full predictor: speculative PHT overrides, disruptive
//! burst triggers, CRS amnesty, CPRED power gating.

use zbp_core::direction::DirectionProvider;
use zbp_core::{GenerationPreset, ZPredictor};
use zbp_model::{BranchRecord, MispredictKind, Prediction, Predictor};
use zbp_zarch::{InstrAddr, Mnemonic};

fn rec(addr: u64, mn: Mnemonic, taken: bool, target: u64) -> BranchRecord {
    BranchRecord::new(InstrAddr::new(addr), mn, taken, InstrAddr::new(target))
}

fn step(p: &mut ZPredictor, r: &BranchRecord) -> Prediction {
    let pr = p.predict(r.addr, r.class());
    p.resolve(r, &pr);
    if MispredictKind::classify(&pr, r).is_some() {
        p.flush(r);
    }
    pr
}

#[test]
fn spht_overrides_inflight_weak_tage_predictions() {
    // A conditional in a fixed-history loop: get a TAGE entry installed
    // and into a weak state, then issue two predictions back to back
    // (no completion between them). The first must install an SPHT
    // entry; the second must be provided by the SPHT.
    let mut p = ZPredictor::new(GenerationPreset::Z15.config());
    let taken = rec(0x1000, Mnemonic::Brc, true, 0x2000);
    let nt = rec(0x1000, Mnemonic::Brc, false, 0x2000);
    // Install (surprise T), then force a mispredict to mark
    // bidirectional and allocate TAGE (fresh = weak).
    step(&mut p, &taken);
    step(&mut p, &taken);
    step(&mut p, &nt);

    // Two in-flight predictions with identical (empty-loop) history.
    let pr1 = p.predict(nt.addr, nt.class());
    let pr2 = p.predict(nt.addr, nt.class());
    // Complete them in order.
    p.resolve(&nt, &pr1);
    p.resolve(&nt, &pr2);
    // The attribution must show at least one SPHT- or SBHT-provided
    // prediction: the weak provider installed a speculative override
    // that the second in-flight instance consumed.
    let spec_preds = p.stats.direction.get(&DirectionProvider::Spht).map_or(0, |t| t.predictions)
        + p.stats.direction.get(&DirectionProvider::Sbht).map_or(0, |t| t.predictions);
    assert!(spec_preds >= 1, "speculative overrides never provided: {:?}", p.stats.direction);
}

#[test]
fn disruptive_burst_fires_btb2_search() {
    // A run of surprise *taken* branches (all distinct addresses) within
    // a short completion window: the burst trigger must proactively fire
    // BTB2 searches even though no BTB1 search streak reaches 3 misses
    // in the same region.
    let mut p = ZPredictor::new(GenerationPreset::Z15.config());
    for k in 0..12u64 {
        // Alternate regions so the successive-miss trigger (3 misses)
        // still fires sometimes, but the burst trigger must fire too.
        let r = rec(0x10_0000 + k * 0x40, Mnemonic::J, true, 0x20_0000 + k * 0x40);
        step(&mut p, &r);
    }
    let b2 = p.structures().btb2.expect("z15 has a BTB2");
    assert!(
        b2.stats.searches_burst > 0,
        "disruptive surprise-taken burst must trigger proactive searches: {:?}",
        b2.stats
    );
}

#[test]
fn crs_amnesty_restores_blacklisted_returns() {
    // Build a return that gets blacklisted, then keep completing it as
    // a *successful* call/return pair: every Nth wrong-target completion
    // grants amnesty (§VI).
    let mut cfg = GenerationPreset::Z15.config();
    if let Some(crs) = &mut cfg.crs {
        crs.amnesty_period = 2; // quick amnesty for the test
    }
    let mut p = ZPredictor::new(cfg);

    let call_a = rec(0x1000, Mnemonic::Brasl, true, 0x9000);
    let ret_a = rec(0x9004, Mnemonic::Br, true, 0x1006);
    let call_b = rec(0x3000, Mnemonic::Brasl, true, 0x9000);
    let ret_b = rec(0x9004, Mnemonic::Br, true, 0x3006);

    // Learn the pair and make the return multi-target.
    step(&mut p, &call_a);
    step(&mut p, &ret_a);
    step(&mut p, &call_b);
    step(&mut p, &ret_b);

    // Force a CRS wrong target: call from A, return to a third place.
    step(&mut p, &call_a);
    let weird = rec(0x9004, Mnemonic::Br, true, 0x7777_0000);
    step(&mut p, &weird);
    let blacklisted = p
        .structures()
        .btb1
        .probe(InstrAddr::new(0x9004))
        .map(|(_, e)| e.crs_blacklisted)
        .unwrap_or(false);
    assert!(blacklisted, "CRS wrong target must blacklist the return");

    // Now repeatedly run correct call/return pairs whose *BTB/CTB*
    // target guesses are wrong (so the completing branch is a
    // wrong-target blacklisted branch) while the pair matching holds:
    // amnesty must eventually lift the blacklist.
    let mut lifted = false;
    for round in 0..8 {
        let (call, ret) = if round % 2 == 0 { (&call_a, &ret_a) } else { (&call_b, &ret_b) };
        step(&mut p, call);
        step(&mut p, ret);
        let bl = p
            .structures()
            .btb1
            .probe(InstrAddr::new(0x9004))
            .map(|(_, e)| e.crs_blacklisted)
            .unwrap_or(false);
        if !bl {
            lifted = true;
            break;
        }
    }
    assert!(lifted, "amnesty should restore CRS use for the return");
    assert!(p.structures().crs.expect("crs").stats.amnesties >= 1);
}

#[test]
fn cpred_power_gating_engages_on_plain_streams() {
    // A loop of unconditional branches (no bidirectional, no
    // multi-target content): after CPRED warmup the streams' power
    // prediction gates the aux structures off.
    let mut p = ZPredictor::new(GenerationPreset::Z15.config());
    let branches = [
        rec(0x1000, Mnemonic::J, true, 0x2000),
        rec(0x2000, Mnemonic::J, true, 0x3000),
        rec(0x3000, Mnemonic::J, true, 0x1000),
    ];
    for _ in 0..50 {
        for r in &branches {
            step(&mut p, r);
        }
    }
    assert!(
        p.stats.gated_streams > 0,
        "uniform unconditional streams should be power-gated: {} gated",
        p.stats.gated_streams
    );
    // Gating never produced a fallback error (nothing needed the aux
    // structures).
    assert_eq!(p.stats.power_gated_fallbacks, 0);
}

#[test]
fn gated_stream_with_aux_needs_falls_back_to_bht() {
    // Train the CPRED that a stream needs nothing, then make a branch in
    // that stream bidirectional: predictions fall back to the BHT and
    // the fallback statistic increments until the power mask re-learns.
    let mut p = ZPredictor::new(GenerationPreset::Z15.config());
    let lead = rec(0x1000, Mnemonic::J, true, 0x2000);
    let cond_t = rec(0x2010, Mnemonic::Brc, true, 0x3000);
    let cond_n = rec(0x2010, Mnemonic::Brc, false, 0x3000);
    let back = rec(0x3000, Mnemonic::J, true, 0x1000);
    let back2 = rec(0x2014, Mnemonic::J, true, 0x1000);

    // Phase 1: the conditional always falls through — stream needs stay
    // off (the branch is single-direction).
    for _ in 0..30 {
        step(&mut p, &lead);
        step(&mut p, &cond_n);
        step(&mut p, &back2);
    }
    // Phase 2: the conditional turns bidirectional.
    for _ in 0..30 {
        step(&mut p, &lead);
        step(&mut p, &cond_t);
        step(&mut p, &back);
        step(&mut p, &lead);
        step(&mut p, &cond_n);
        step(&mut p, &back2);
    }
    assert!(p.stats.power_gated_fallbacks > 0, "the transition window must show gated fallbacks");
}

#[test]
fn probe_event_stream_matches_protocol() {
    use std::sync::{Arc, Mutex};
    use zbp_core::events::{BplEvent, Probe};

    #[derive(Debug)]
    struct Counter(Arc<Mutex<(u64, u64, u64)>>);
    impl Probe for Counter {
        fn event(&mut self, ev: &BplEvent) {
            let mut c = self.0.lock().expect("lock");
            match ev {
                BplEvent::Predict { .. } => c.0 += 1,
                BplEvent::Complete { .. } => c.1 += 1,
                BplEvent::Btb1Search { .. } => c.2 += 1,
                _ => {}
            }
        }
    }

    let counts = Arc::new(Mutex::new((0, 0, 0)));
    let mut p = ZPredictor::new(GenerationPreset::Z15.config());
    p.set_probe(Box::new(Counter(Arc::clone(&counts))));
    let r = rec(0x1000, Mnemonic::Brct, true, 0x0f00);
    for _ in 0..25 {
        step(&mut p, &r);
    }
    let c = counts.lock().expect("lock");
    assert_eq!(c.0, 25, "one Predict event per prediction");
    assert_eq!(c.1, 25, "one Complete event per completion");
    assert_eq!(c.2, 25, "one search event per prediction in functional mode");
}

#[test]
fn btb2_rows_are_allocated_on_write_and_travel_with_snapshots() {
    let cfg = GenerationPreset::Z15.config();
    let mut p = ZPredictor::new(cfg.clone());
    let rows = |p: &ZPredictor| p.structures().btb2.expect("z15 has a BTB2").allocated_rows();
    assert_eq!(rows(&p), 0, "a fresh z15 predictor holds no BTB2 rows");

    // A sparse BTB2: a few preloaded branches the BTB1 has never seen.
    let branches: Vec<BranchRecord> = (0..6u64)
        .map(|k| rec(0x40_0000 + k * 0x1_0040 + 4, Mnemonic::Brc, true, 0x9000 + k * 0x100))
        .collect();
    for r in &branches {
        p.preload_btb2(p.make_entry(r));
    }
    let sparse = rows(&p);
    assert!(sparse > 0 && sparse <= 6 * 4, "only written blocks are backed: {sparse} rows");

    let image = p.snapshot();
    let mut restored = ZPredictor::new(cfg);
    restored.restore(&image).expect("same configuration");
    let mut moved = ZPredictor::from_image(image);
    for q in [&restored, &moved] {
        assert_eq!(rows(q), sparse);
        let entries =
            |p: &ZPredictor| p.structures().btb2.expect("BTB2").iter().copied().collect::<Vec<_>>();
        assert_eq!(entries(q), entries(&p));
    }

    // The copies backfill the BTB1 from their BTB2 exactly like the
    // original: successive misses search it, and the staged entries
    // turn later predictions into hits.
    for q in [&mut p, &mut restored, &mut moved] {
        for _ in 0..3 {
            for r in &branches {
                step(q, r);
            }
        }
    }
    assert!(p.stats.btb2_promotions > 0, "the BTB2 backfilled the BTB1");
    assert_eq!(restored.stats, p.stats);
    assert_eq!(moved.stats, p.stats);
}

//! Crate-level fault-injection integration tests: the runtime against its
//! own chaos layer, without the workspace facade. The heavier torture
//! harness (multi-seed sweeps, concurrent stress) lives in the workspace
//! `tests/chaos.rs`; these cover the fault plumbing end to end.

use ccm_core::{FileId, NodeId, ReplacementPolicy};
use ccm_rt::store::read_file_direct;
use ccm_rt::{Catalog, FaultPlan, LinkFaults, Middleware, RtConfig, SyntheticStore};
use std::sync::Arc;
use std::time::Duration;

fn start(faults: Option<FaultPlan>) -> (Middleware, Catalog, Arc<SyntheticStore>) {
    let catalog = Catalog::new(vec![20_000u64; 12]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));
    let mw = Middleware::start(
        RtConfig {
            nodes: 3,
            capacity_blocks: 32,
            policy: ReplacementPolicy::MasterPreserving,
            fetch_timeout: Duration::from_millis(25),
            faults,
            ..RtConfig::default()
        },
        catalog.clone(),
        store.clone(),
    );
    (mw, catalog, store)
}

#[test]
fn total_message_loss_degrades_to_disk_but_stays_correct() {
    // Every data-plane message vanishes: remote hits must all resolve
    // through the bounded wait into store fallbacks, never a hang or a
    // wrong byte.
    let plan = FaultPlan {
        seed: 1,
        link: LinkFaults {
            drop_prob: 1.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_sends: 0,
        },
        crashes: Vec::new(),
        disk: Default::default(),
    };
    let (mw, catalog, store) = start(Some(plan));
    for f in 0..12u32 {
        mw.handle(NodeId(0)).read_file(FileId(f));
    }
    // Node 1's reads would be remote hits; with the LAN black-holed they
    // must all fall through to the backing store.
    for f in 0..12u32 {
        let got = mw.handle(NodeId(1)).read_file(FileId(f));
        let want = read_file_direct(&*store, &catalog, FileId(f));
        assert_eq!(got, want, "file {f} corrupted under total loss");
    }
    let stats = mw.stats();
    assert!(stats.store_fallbacks > 0, "fallback path never taken");
    assert_eq!(
        stats.store_fallbacks, stats.remote_hits,
        "each dropped remote hit degrades to exactly one store read"
    );
    assert!(mw.chaos_stats().dropped > 0);
    mw.check_invariants();
    mw.shutdown();
}

#[test]
fn crash_during_faulty_run_repairs_and_recovers() {
    let plan = FaultPlan::torture(5, 3, 100);
    let victim = plan.crashes[0].node;
    let (mw, catalog, store) = start(Some(plan));
    for f in 0..12u32 {
        mw.handle(victim).read_file(FileId(f));
        mw.handle(NodeId(0)).read_file(FileId(f));
    }
    mw.quiesce();
    let report = mw.crash_node(victim);
    assert!(report.remastered + report.lost_masters > 0);
    mw.check_invariants();
    for f in 0..12u32 {
        let got = mw.handle(NodeId(0)).read_file(FileId(f));
        let want = read_file_direct(&*store, &catalog, FileId(f));
        assert_eq!(got, want, "file {f} corrupted after crash");
    }
    mw.restart_node(victim);
    for f in 0..12u32 {
        let got = mw.handle(victim).read_file(FileId(f));
        let want = read_file_direct(&*store, &catalog, FileId(f));
        assert_eq!(got, want, "file {f} corrupted after restart");
    }
    mw.check_invariants();
    mw.shutdown();
}

#[test]
fn quiet_plan_changes_nothing() {
    // A quiet plan must behave exactly like no plan at all.
    let run = |faults: Option<FaultPlan>| {
        let (mw, _, _) = start(faults);
        for f in 0..12u32 {
            mw.handle(NodeId(f as u16 % 3)).read_file(FileId(f));
        }
        mw.quiesce();
        let s = mw.stats();
        mw.shutdown();
        s
    };
    assert_eq!(run(None), run(Some(FaultPlan::quiet(99))));
}

//! The membership-churn torture battery: the hint-based directory and the
//! dynamic membership machinery must survive seeded join/leave/crash
//! schedules interleaved with the paper's trace workloads.
//!
//! Oracles, in order of appearance:
//!
//! * **Byte integrity** — every byte delivered during churn equals the
//!   catalog ground truth (asserted inside [`run_churn_torture`] on every
//!   read), across all four trace presets and both LAN backends.
//! * **Replayability** — the same `(seed, plan, workload)` triple produces
//!   a bit-identical [`ChurnOutcome`] across reruns *and* across backends:
//!   digest, protocol counters, hint-accuracy counters, and final epoch.
//! * **Convergence** — after any seeded schedule the quiescent-state audit
//!   (run inside the driver) proves every block has exactly one master and
//!   every stale hint is corrected within one forwarding chain.
//! * **Join transparency** — a node joining a 32-node cluster mid-run
//!   absorbs re-mastered blocks and the delivered-byte digest matches the
//!   static-cluster reference exactly.
//! * **Failure detection** — the heartbeat monitor notices a silently
//!   severed node over real TCP and repairs the directory around it.

use ccm_testkit::{
    fnv1a, remap_to_member, run_churn_torture, start_cluster, Backend, ChurnPlan, FNV_OFFSET,
};
use coopcache::core::{DirectoryKind, FileId, NodeId, ReplacementPolicy};
use coopcache::rt::store::read_file_direct;
use coopcache::rt::{Catalog, MemberState, RtConfig, SyntheticStore};
use coopcache::simcore::Rng;
use coopcache::traces::{Preset, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The acceptance scale: a 32-slot cluster with 24 initial members.
const SLOTS: usize = 32;
const INITIAL: usize = 24;
const OPS: u64 = 240;
const CAPACITY_BLOCKS: usize = 12;
const EVENTS: usize = 10;

/// Trim a preset to a head small enough for a live cluster while keeping
/// its popularity skew (same device as the live-conformance suite).
fn preset_head(p: Preset) -> Workload {
    p.workload().head(96)
}

/// A hint-directory cluster of `nodes` slots, `members` of them up.
fn member_config(nodes: usize, members: usize, backend: Backend) -> RtConfig {
    RtConfig {
        nodes,
        members: Some(members),
        directory: DirectoryKind::Hint,
        capacity_blocks: CAPACITY_BLOCKS,
        policy: ReplacementPolicy::MasterPreserving,
        fetch_timeout: backend.torture_fetch_timeout(),
        faults: None,
        ..RtConfig::default()
    }
}

/// Byte integrity under churn at acceptance scale: every preset, both
/// backends, a seeded 10-event join/leave/crash schedule — every delivered
/// byte exact, every transition epoch-counted, and the hint directory
/// exercised (the battery as a whole must manufacture stale hints).
#[test]
fn churn_torture_serves_every_preset_exactly_on_both_backends() {
    let mut stale_total = 0u64;
    for (i, preset) in Preset::all().iter().copied().enumerate() {
        let wl = preset_head(preset);
        let seed = 0xC0DE + i as u64;
        let plan = ChurnPlan::seeded(seed, SLOTS, INITIAL, OPS, EVENTS);
        for backend in Backend::all() {
            let out = run_churn_torture(backend, seed, &plan, &wl, OPS, CAPACITY_BLOCKS);
            assert_eq!(
                out.joins + out.leaves + out.crashes,
                EVENTS,
                "{} {}: plan events not all executed",
                backend.name(),
                preset.name()
            );
            assert_eq!(
                out.epoch,
                EVENTS as u64,
                "{} {}: epoch must tick once per transition",
                backend.name(),
                preset.name()
            );
            assert!(
                out.hints.lookups > 0,
                "{} {}: hint directory never consulted",
                backend.name(),
                preset.name()
            );
            assert_ne!(out.digest, FNV_OFFSET, "no bytes were served");
            stale_total += out.hints.stale;
        }
    }
    assert!(
        stale_total > 0,
        "churn never manufactured a stale hint anywhere in the battery"
    );
}

/// Replayability: the same seed reproduces a bit-identical outcome across
/// reruns, and the TCP backend agrees with the channel backend bit for bit
/// — digest, protocol counters, hint counters, epoch.
#[test]
fn same_seed_churn_replay_is_bit_identical_across_runs_and_backends() {
    let wl = preset_head(Preset::Calgary);
    let plan = ChurnPlan::seeded(7, SLOTS, INITIAL, OPS, EVENTS);
    let a = run_churn_torture(Backend::Channel, 7, &plan, &wl, OPS, CAPACITY_BLOCKS);
    let b = run_churn_torture(Backend::Channel, 7, &plan, &wl, OPS, CAPACITY_BLOCKS);
    assert_eq!(a, b, "channel reruns must be bit-identical");
    let t = run_churn_torture(Backend::Tcp, 7, &plan, &wl, OPS, CAPACITY_BLOCKS);
    assert_eq!(a, t, "TCP churn outcome diverges from channel");
}

/// Re-mastering property (many seeds, small clusters): after *any* seeded
/// join/leave/crash sequence the quiescent audit inside the driver proves
/// exactly-one-master per resident block and hint convergence within one
/// forwarding chain. The seeds must collectively explore both directions.
#[test]
fn remastering_converges_for_any_seeded_schedule() {
    let wl = Preset::Clarknet.workload().head(48);
    let (mut joins, mut removals) = (0usize, 0usize);
    for seed in 0..6u64 {
        let plan = ChurnPlan::seeded(seed, 8, 4, 120, 8);
        let out = run_churn_torture(Backend::Channel, seed, &plan, &wl, 120, 8);
        assert_eq!(out.epoch, 8, "seed {seed}: epoch mismatch");
        joins += out.joins;
        removals += out.leaves + out.crashes;
    }
    assert!(
        joins > 0 && removals > 0,
        "schedules never explored both join and removal ({joins} joins, {removals} removals)"
    );
}

/// Join transparency at 32 nodes: node 31 starts cold, joins halfway
/// through a deterministic trace replay, absorbs a re-mastered share of
/// the resident blocks, and the delivered-byte digest matches a
/// static-cluster run of the same seed exactly.
#[test]
fn mid_run_join_at_32_nodes_matches_static_cluster_digest() {
    let wl = preset_head(Preset::Nasa);
    let seed = 0xA11CE;

    // Static reference: all 32 slots up from op 0, no churn.
    let static_plan = ChurnPlan {
        slots: SLOTS,
        initial: SLOTS,
        events: vec![],
    };
    let reference = run_churn_torture(
        Backend::Channel,
        seed,
        &static_plan,
        &wl,
        OPS,
        CAPACITY_BLOCKS,
    );

    // Churned run: 31 members, the last slot joins at the midpoint. The
    // driver consumes the *same* rng stream (remap_to_member burns one
    // slot draw per op either way), so equal digests mean the join was
    // invisible to every delivered byte.
    let catalog = Catalog::new(wl.sizes().to_vec());
    let store = Arc::new(SyntheticStore::new(catalog.clone(), seed));
    let cluster = start_cluster(
        Backend::Channel,
        member_config(SLOTS, SLOTS - 1, Backend::Channel),
        catalog.clone(),
        store.clone(),
    );
    let members = cluster.membership();
    let joiner = NodeId((SLOTS - 1) as u16);
    let mut rng = Rng::new(seed).substream(3);
    let mut digest = FNV_OFFSET;
    for op in 0..OPS {
        if op == OPS / 2 {
            let moved = cluster.join_node(joiner);
            assert!(moved > 0, "joiner absorbed no re-mastered blocks");
            cluster.check_invariants();
            cluster.audit_quiescent();
        }
        let node = remap_to_member(&members, SLOTS, rng.next_below(SLOTS as u64) as usize);
        let file = FileId(wl.sample(&mut rng).0);
        let got = cluster.handle(node).read_file(file);
        let want = read_file_direct(&*store, &catalog, file);
        assert_eq!(got, want, "op {op}: corrupted bytes around the join");
        fnv1a(&mut digest, &got);
        cluster.quiesce();
    }
    cluster.quiesce();
    cluster.audit_quiescent();
    assert_eq!(
        digest, reference.digest,
        "mid-run join changed the delivered bytes"
    );
    assert_eq!(cluster.epoch(), 1, "exactly one transition must have fired");
    cluster.shutdown();
}

/// Failure detection over real TCP: a silently severed node (service
/// thread killed, no membership notice) is walked Up → Suspect → Down by
/// the heartbeat monitor, the directory is repaired around it, and the
/// survivors keep serving exact bytes.
#[test]
fn heartbeat_detects_silent_failure_over_tcp() {
    let wl = preset_head(Preset::Calgary);
    let catalog = Catalog::new(wl.sizes().to_vec());
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 9));
    let nodes = 8;
    let cluster = start_cluster(
        Backend::Tcp,
        member_config(nodes, nodes, Backend::Tcp),
        catalog.clone(),
        store.clone(),
    );
    // Warm the cluster so the victim owns masters worth repairing.
    let mut rng = Rng::new(9).substream(4);
    for _ in 0..60 {
        let node = NodeId(rng.next_below(nodes as u64) as u16);
        let file = FileId(wl.sample(&mut rng).0);
        let got = cluster.handle(node).read_file(file);
        assert_eq!(got, read_file_direct(&*store, &catalog, file));
    }
    cluster.quiesce();

    let victim = NodeId(5);
    let epoch0 = cluster.epoch();
    cluster.sever_node(victim);
    cluster.start_heartbeat(Duration::from_millis(5), Duration::from_millis(50), 2);
    let members = cluster.membership();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut epoch = epoch0;
    while members.state(victim) != MemberState::Down {
        assert!(
            Instant::now() < deadline,
            "heartbeat monitor never detected the severed node"
        );
        epoch = members.wait_for_epoch(epoch + 1, Duration::from_millis(200));
    }
    assert!(cluster.stats().node_repairs >= 1, "no directory repair ran");
    cluster.check_invariants();
    // Survivors still serve exact bytes after the repair.
    for i in 0..nodes {
        let node = NodeId(i as u16);
        if node == victim {
            continue;
        }
        let file = FileId(wl.sample(&mut rng).0);
        let got = cluster.handle(node).read_file(file);
        assert_eq!(got, read_file_direct(&*store, &catalog, file));
    }
    cluster.shutdown();
}

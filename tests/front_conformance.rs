//! The live CCM-vs-L2S conformance suite: the paper's headline comparison
//! run over real HTTP, with every byte verified.
//!
//! `tests/live_conformance.rs` proves the live middleware reproduces the
//! simulator's counters. This suite makes the *comparison itself* live:
//! the same seeded preset replay is driven through `ccm-front`'s HTTP
//! front door against both backends —
//!
//! * **CCM**: round-robin (DNS-RR) arrival, master-preserving cooperative
//!   block caching behind it — the paper's middleware configuration,
//!   which needs no content-aware front tier at all;
//! * **live L2S**: the content-aware (locality-based) dispatch policy over
//!   whole-file per-node LRU caches with de-replication and no peer fetch
//!   — Bianchini & Carrera's server, the paper's baseline,
//!
//! at the same two per-node memory points the bare-middleware conformance
//! grid uses (scarce and plentiful), asserting the paper's shape:
//!
//! * At the plentiful point both architectures reach the same
//!   compulsory-miss ceiling, so CCM matches or beats the live L2S hit
//!   ratio on at least 3 of the 4 presets — while the dispatch-matched
//!   baseline (L2S behind the *same* DNS-RR arrival, i.e. locality
//!   routing switched off) stays pinned ~25 points below on every preset:
//!   cooperative caching aggregates cluster memory through peer fetches,
//!   L2S can only do it by moving the *requests* (TCP hand-off).
//! * At the scarce point cooperation is live (the CCM run's hits include
//!   remote hits; the L2S backend by construction has none) and the full
//!   L2S hit ratio may exceed CCM's — exactly the paper's Figure 4, where
//!   L2S's (all-local) hit rate tops master-preserving's and the paper's
//!   argument for CCM is served-throughput, not raw hit rate.
//!
//! Every response is byte-verified against the backing store inside the
//! driver, and the deterministic report projection is bit-identical
//! across reruns and across the channel/TCP cluster transports.

use ccm_front::PolicyKind;
use ccm_load::{run, run_on, Arrivals, BackendChoice, LoadReport, LoadSpec, Target};
use ccm_net::TcpLan;
use coopcache::core::ReplacementPolicy;
use coopcache::traces::Preset;
use std::sync::Arc;

/// Scarce and plentiful per-node memory, in 8 KB blocks — the same two
/// points `tests/live_conformance.rs` runs the bare middleware at.
const SCARCE_BLOCKS: usize = 24;
const PLENTIFUL_BLOCKS: usize = 64;

/// One comparison cell: 4 nodes, a 240-file head, seeded deterministic
/// replay — identical stream and store for every backend/policy pairing.
fn cell(
    preset: Preset,
    capacity_blocks: usize,
    dispatch: PolicyKind,
    backend: BackendChoice,
) -> LoadSpec {
    let mut spec = LoadSpec::new(preset);
    spec.head_files = Some(240);
    spec.capacity_blocks = capacity_blocks;
    spec.policy = ReplacementPolicy::MasterPreserving;
    spec.warmup_requests = 400;
    spec.measure_requests = 900;
    spec.seed = 0x5EED;
    spec.arrivals = Arrivals::closed(true);
    spec.target = Target::Front { dispatch, backend };
    spec
}

fn ccm_cell(preset: Preset, capacity_blocks: usize) -> LoadSpec {
    cell(
        preset,
        capacity_blocks,
        PolicyKind::RoundRobin,
        BackendChoice::Ccm,
    )
}

fn checked(spec: &LoadSpec) -> LoadReport {
    let report = run(spec);
    assert!(
        report.reconciled,
        "{} {}: driver and front-tier counters disagree",
        report.backend(),
        report.preset
    );
    assert_eq!(report.served, spec.measure_requests as u64);
    report
}

/// The paper's comparison, live, at the plentiful memory point: CCM
/// (master-preserving behind plain DNS-RR) matches or beats the full L2S
/// server (content-aware dispatch, whole-file caches) on cluster-memory
/// hit ratio on at least 3 of 4 presets, and the same L2S caches behind
/// the same DNS-RR arrival — locality routing switched off — collapse on
/// every preset. Cooperation aggregates memory; locality routing is the
/// only thing standing between L2S and that collapse.
#[test]
fn ccm_matches_or_beats_live_l2s_at_the_plentiful_point() {
    let mut wins = 0;
    let mut lines = Vec::new();
    for preset in Preset::all() {
        let ccm = checked(&ccm_cell(preset, PLENTIFUL_BLOCKS));
        let l2s = checked(&cell(
            preset,
            PLENTIFUL_BLOCKS,
            PolicyKind::ContentAware,
            BackendChoice::L2s,
        ));
        let l2s_rr = checked(&cell(
            preset,
            PLENTIFUL_BLOCKS,
            PolicyKind::RoundRobin,
            BackendChoice::L2s,
        ));
        // Same stream, same bytes, same block accounting basis.
        assert_eq!(ccm.digest, l2s.digest, "backends served different bytes");
        assert_eq!(ccm.blocks, l2s.blocks);
        let (c, l, lr) = (
            ccm.total_hit_ratio(),
            l2s.total_hit_ratio(),
            l2s_rr.total_hit_ratio(),
        );
        if c >= l {
            wins += 1;
        }
        assert!(
            c > lr + 0.15,
            "{}: without locality routing the whole-file baseline must \
             collapse well below cooperative caching (ccm {c:.4}, l2s/rr {lr:.4})",
            ccm.preset
        );
        assert!(
            l2s.handoffs > 0,
            "{}: the content-aware L2S run never moved a request off its \
             arrival node — locality routing was not exercised",
            l2s.preset
        );
        lines.push(format!(
            "  {:<18} ccm(rr) {:>6.2}%  l2s(ca) {:>6.2}%  l2s(rr) {:>6.2}%",
            ccm.preset,
            100.0 * c,
            100.0 * l,
            100.0 * lr
        ));
    }
    let table = lines.join("\n");
    println!("cluster-memory hit ratio at the plentiful point:\n{table}");
    assert!(
        wins >= 3,
        "cooperative caching must match or beat live L2S on at least 3 of 4 \
         presets (won {wins}):\n{table}"
    );
}

/// The scarce point: the paper's Figure-4 shape. The full L2S server's
/// all-local hit ratio may top CCM's here (whole-file byte accounting is
/// denser than 8 KB blocks on these sub-block hot sets, exactly as L2S's
/// hit rate tops master-preserving's in the paper) — but cooperation must
/// be live, byte service identical, and the dispatch-matched baseline
/// must still trail its content-aware self badly.
#[test]
fn scarce_point_reproduces_the_figure_4_shape() {
    for preset in [Preset::Calgary, Preset::Rutgers] {
        let ccm = checked(&ccm_cell(preset, SCARCE_BLOCKS));
        let l2s = checked(&cell(
            preset,
            SCARCE_BLOCKS,
            PolicyKind::ContentAware,
            BackendChoice::L2s,
        ));
        let l2s_rr = checked(&cell(
            preset,
            SCARCE_BLOCKS,
            PolicyKind::RoundRobin,
            BackendChoice::L2s,
        ));
        assert_eq!(ccm.digest, l2s.digest, "backends served different bytes");
        assert!(
            ccm.hits > 0 && ccm.total_hit_ratio() > 0.5,
            "{}: cooperative caching must keep the majority of block reads \
             in cluster memory even at the scarce point (got {:.4})",
            ccm.preset,
            ccm.total_hit_ratio()
        );
        assert!(
            l2s.total_hit_ratio() > l2s_rr.total_hit_ratio() + 0.10,
            "{}: content-aware routing is what carries L2S (ca {:.4}, rr {:.4})",
            l2s.preset,
            l2s.total_hit_ratio(),
            l2s_rr.total_hit_ratio()
        );
    }
}

/// Determinism transfer: the same deterministic front spec reproduces a
/// bit-identical report projection across reruns, and the cluster's
/// interconnect (channel vs TCP) never leaks into it.
#[test]
fn front_reports_reproduce_across_reruns_and_transports() {
    let spec = ccm_cell(Preset::Calgary, SCARCE_BLOCKS);
    let a = checked(&spec);
    let b = checked(&spec);
    assert_eq!(
        a.deterministic_json(),
        b.deterministic_json(),
        "same seed must reproduce an identical front report"
    );

    let lan = Arc::new(TcpLan::loopback(spec.nodes).expect("bind loopback listeners"));
    let tcp = run_on(&spec, lan, "tcp");
    assert!(tcp.reconciled);
    assert_eq!(tcp.transport, "tcp");
    assert_eq!(
        tcp.deterministic_json(),
        a.deterministic_json(),
        "the cluster transport must not change what was served"
    );
}

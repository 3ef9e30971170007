//! The cells both suites drive: `runs.rs` exercises them, `golden.rs`
//! pins their reports.

use std::sync::Arc;

use ccm_front::PolicyKind;
use ccm_load::{run_on, Arrivals, BackendChoice, LoadReport, LoadSpec, Target};
use ccm_net::TcpLan;
use ccm_traces::Preset;

pub fn closed(deterministic: bool) -> Arrivals {
    Arrivals::Closed {
        clients_per_node: 2,
        deterministic,
    }
}

/// A closed-loop cell small enough for CI but big enough to evict and
/// cooperate.
pub fn small_spec() -> LoadSpec {
    let mut spec = LoadSpec::new(Preset::Calgary);
    spec.head_files = Some(120);
    spec.nodes = 3;
    spec.capacity_blocks = 48;
    spec.warmup_requests = 150;
    spec.measure_requests = 300;
    spec.seed = 0xC0FFEE;
    spec.arrivals = closed(false);
    spec
}

pub fn deterministic_spec() -> LoadSpec {
    let mut spec = small_spec();
    spec.arrivals = closed(true);
    spec
}

/// A deterministic front-door cell big enough to evict and hand off.
pub fn front_spec(dispatch: PolicyKind, backend: BackendChoice) -> LoadSpec {
    let mut spec = deterministic_spec();
    spec.head_files = Some(100);
    spec.nodes = 2;
    spec.warmup_requests = 100;
    spec.measure_requests = 200;
    spec.seed = 0xF407;
    spec.target = Target::Front { dispatch, backend };
    spec
}

pub fn tcp(spec: &LoadSpec) -> LoadReport {
    let lan = Arc::new(TcpLan::loopback(spec.nodes).expect("bind loopback"));
    run_on(spec, lan, "tcp")
}

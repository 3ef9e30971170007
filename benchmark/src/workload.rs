//! The four workloads and the inputs they are made of.
//!
//! What varies between workloads is what decides which layer does the
//! work: the surface the callers use (HTTP front tier or library handle),
//! the transport, the write share, and above all the cache size relative
//! to the file set, since LRU miss ratio follows cache size over the Zipf
//! working set. Everything else (4 nodes, 8 KB blocks, master-preserving
//! replacement, defaults elsewhere) is common.

use ccm_core::FileId;
use ccm_rt::Catalog;
use ccm_traces::Preset;
use simcore::rng::{splitmix64, Rng};
use std::time::Instant;

/// Cluster size of every workload.
pub const NODES: usize = 4;
/// Closed-loop callers of a timed run: the box has two processors, and
/// the paper's clients are closed-loop too.
pub const CALLERS: usize = 2;
/// Stream requests replayed by the warm-up, after reading every file once.
pub const WARMUP_REQUESTS: usize = 20_000;
/// Length of the recorded request stream; runs that need more wrap around.
/// Far longer than any cache's memory of it (at most 24 k blocks).
pub const STREAM_LEN: usize = 1 << 20;

/// How callers reach the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    /// HTTP/1.1 keep-alive GETs into the front tier.
    Http,
    /// `NodeHandle` calls.
    Lib,
}

/// What carries peer traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// The in-process channel `Lan`.
    Channel,
    /// `TcpLan` over loopback sockets.
    Tcp,
}

/// Per-node cache capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Capacity {
    /// This many blocks.
    Blocks(usize),
    /// `ceil(factor × blocks of the file set / nodes)`: the aggregate
    /// cache is `factor` times the file set.
    OfFileSet(f64),
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The hottest files of the Calgary preset to serve (`None`: all).
    pub head: Option<usize>,
    /// Cache size.
    pub capacity: Capacity,
    /// Caller surface.
    pub surface: Surface,
    /// Peer transport.
    pub transport: TransportKind,
    /// Share of operations that are writes.
    pub write_share: f64,
}

/// The workloads, in report order. `BENCHMARK.json` and the README say why
/// each is here.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "front_hot",
        head: Some(64),
        capacity: Capacity::Blocks(1024),
        surface: Surface::Http,
        transport: TransportKind::Channel,
        write_share: 0.0,
    },
    Spec {
        name: "lib_hot",
        head: Some(64),
        capacity: Capacity::Blocks(1024),
        surface: Surface::Lib,
        transport: TransportKind::Channel,
        write_share: 0.0,
    },
    Spec {
        name: "lib_coop_tcp",
        head: None,
        capacity: Capacity::OfFileSet(1.02),
        surface: Surface::Lib,
        transport: TransportKind::Tcp,
        write_share: 0.0,
    },
    Spec {
        name: "lib_churn_rw",
        head: None,
        capacity: Capacity::OfFileSet(0.10),
        surface: Surface::Lib,
        transport: TransportKind::Channel,
        write_share: 0.10,
    },
];

/// The workload called `name`.
pub fn spec_named(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Everything a run of one workload is generated from: the only things the
/// cluster ever sees are requests drawn from here.
pub struct Inputs {
    /// The workload.
    pub spec: Spec,
    /// The seed the stream, the store content and the write marking derive
    /// from.
    pub seed: u64,
    /// File sizes.
    pub catalog: Catalog,
    /// The recorded request stream ([`STREAM_LEN`] requests).
    pub stream: Vec<FileId>,
    /// Per-node cache capacity in blocks.
    pub capacity_blocks: usize,
    /// Blocks of the whole file set.
    pub total_blocks: u64,
    /// `/file/<id>` for every file (HTTP request paths).
    pub paths: Vec<String>,
    /// Milliseconds building the catalog took (`traces.build_ms`).
    pub build_ms: f64,
    /// Nanoseconds per recorded request (`traces.record_ns_per_req`).
    pub record_ns_per_req: f64,
}

impl Inputs {
    /// Generate the inputs of `spec` from `seed`.
    pub fn generate(spec: Spec, seed: u64) -> Inputs {
        let t = Instant::now();
        let full = Preset::Calgary.workload();
        let workload = match spec.head {
            Some(n) => full.head(n),
            None => full,
        };
        let catalog = Catalog::new(workload.sizes().to_vec());
        let build_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let stream = workload.record(STREAM_LEN, &mut Rng::new(seed));
        let record_ns_per_req = t.elapsed().as_nanos() as f64 / STREAM_LEN as f64;
        let stream = stream.into_iter().map(|f| FileId(f.0)).collect();

        let total_blocks: u64 = (0..catalog.num_files())
            .map(|f| catalog.blocks_of(FileId(f as u32)) as u64)
            .sum();
        let capacity_blocks = match spec.capacity {
            Capacity::Blocks(n) => n,
            Capacity::OfFileSet(factor) => {
                (factor * total_blocks as f64 / NODES as f64).ceil() as usize
            }
        };
        let paths = (0..catalog.num_files())
            .map(|f| format!("/file/{f}"))
            .collect();
        Inputs {
            spec,
            seed,
            catalog,
            stream,
            capacity_blocks,
            total_blocks,
            paths,
            build_ms,
            record_ns_per_req,
        }
    }

    /// The file operation `i` of the stream asks for.
    #[inline]
    pub fn file_at(&self, i: usize) -> FileId {
        self.stream[i % STREAM_LEN]
    }

    /// Whether operation `i` is a write: its index hashes, with the seed,
    /// below the workload's write share.
    #[inline]
    pub fn is_write(&self, i: usize) -> bool {
        if self.spec.write_share == 0.0 {
            return false;
        }
        let mut state = self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let roll = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        roll < self.spec.write_share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_another() {
        let spec = spec_named("lib_churn_rw").unwrap();
        let a = Inputs::generate(spec, 11);
        let b = Inputs::generate(spec, 11);
        let c = Inputs::generate(spec, 12);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, c.stream);
        assert_eq!(a.catalog.sizes(), c.catalog.sizes());
        let marks = |x: &Inputs| (0..50_000).filter(|&i| x.is_write(i)).collect::<Vec<_>>();
        assert_eq!(marks(&a), marks(&b));
        assert_ne!(marks(&a), marks(&c));
        let share = marks(&a).len() as f64 / 50_000.0;
        assert!((0.09..0.11).contains(&share), "write share {share}");
    }

    #[test]
    fn capacities_follow_the_memory_ratio_of_each_workload() {
        let hot = Inputs::generate(spec_named("lib_hot").unwrap(), 1);
        assert_eq!(hot.catalog.num_files(), 64);
        assert_eq!(hot.capacity_blocks, 1024);
        assert!(!hot.is_write(3));
        let coop = Inputs::generate(spec_named("lib_coop_tcp").unwrap(), 1);
        let churn = Inputs::generate(spec_named("lib_churn_rw").unwrap(), 1);
        assert_eq!(coop.catalog.num_files(), 8000);
        // The file set fits the aggregate cache but not one node ...
        assert!(coop.capacity_blocks as u64 * NODES as u64 >= coop.total_blocks);
        assert!((coop.capacity_blocks as u64) < coop.total_blocks / 2);
        // ... and a tenth of it fits in the small-memory regime.
        let aggregate = churn.capacity_blocks as u64 * NODES as u64;
        assert!(aggregate * 10 >= churn.total_blocks && aggregate * 9 < churn.total_blocks);
        assert!(spec_named("nope").is_none());
    }
}

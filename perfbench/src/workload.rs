//! The three workloads: protocol, backend, stream shape and query mix.
//!
//! All use a Zipf stream (s = 1.2, universe 2^20) routed by
//! `UniformSites`, and all are closed loops: the driver hands in the next
//! batch only after the previous call returned. See `README.md` for why
//! each was chosen and which layers it stresses.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dtrack_core::allq::{AllQConfig, AllQExactProtocol};
use dtrack_core::hh::{HhConfig, HhSketchedProtocol};
use dtrack_core::quantile::{QuantileConfig, QuantileSketchedProtocol};
use dtrack_sim::{
    BackendKind, Protocol, Query, SiteId, Tracker, TrackerError, HH_PROBE_PHIS, PROBE_PHIS,
};
use dtrack_sketch::store::SketchFreqStore;
use dtrack_sketch::{ExactOrdered, FreqStore, GreenwaldKhanna, OrderStore};
use dtrack_workload::{Stream, UniformSites, Zipf};

use crate::trace::{Recorder, Traced};

/// Zipf skew of every workload's stream.
pub const ZIPF_S: f64 = 1.2;
/// Value universe of every workload's stream.
pub const UNIVERSE: u64 = 1 << 20;
/// Passes over `PROBE_PHIS` in each `monitor-allq-det` round. The first
/// query after a `feed_batch` finds the coordinator's tree cold: its
/// median read 0.94-1.27 µs from run to run, against 0.1-0.3 µs for the
/// queries after it. With one pass that query was a fifth of the samples
/// and set the p90, whose spread over ten seeds reached 0.32 of its
/// median. With four passes it is a twentieth and lies beyond the p90
/// (spread about 0.05 over six seeds).
pub const PROBE_PASSES: usize = 4;
/// Worker threads of the sharded pool, pinned so results do not depend
/// on the machine's core count.
pub const POOL_WORKERS: usize = 2;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// hh-sketched, k = 256, ε = 0.01, free-running `ingest` on the
    /// sharded pool; one settle, then a burst of heavy-hitter queries.
    IngestHhSharded,
    /// quantile-sketched (GK sites), φ = 0.5, k = 16, ε = 0.01, on the
    /// deterministic backend; `TrackedQuantile` after every round.
    IngestQuantileDet,
    /// allq-exact, k = 32, ε = 0.02, on the deterministic backend; the
    /// five probe quantiles, [`PROBE_PASSES`] times over, after every
    /// round.
    MonitorAllqDet,
}

/// How the driver hands items to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// One `feed_batch` call per round, then a settle and the round's
    /// queries.
    Batch,
    /// One `ingest` call per site with items in the round's chunk; one
    /// settle and the final queries after the last chunk.
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestHhSharded,
        Workload::IngestQuantileDet,
        Workload::MonitorAllqDet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestHhSharded => "ingest-hh-sharded",
            Workload::IngestQuantileDet => "ingest-quantile-det",
            Workload::MonitorAllqDet => "monitor-allq-det",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of sites k.
    pub fn sites(self) -> u32 {
        match self {
            Workload::IngestHhSharded => 256,
            Workload::IngestQuantileDet => 16,
            Workload::MonitorAllqDet => 32,
        }
    }

    /// The protocol's ε, which is also the checks' ε.
    pub fn epsilon(self) -> f64 {
        match self {
            Workload::IngestHhSharded | Workload::IngestQuantileDet => 0.01,
            Workload::MonitorAllqDet => 0.02,
        }
    }

    /// The quantile a `TrackedQuantile` query follows.
    pub fn tracked_phi(self) -> f64 {
        0.5
    }

    pub fn feed(self) -> Feed {
        match self {
            Workload::IngestHhSharded => Feed::Ingest,
            _ => Feed::Batch,
        }
    }

    pub fn backend(self) -> BackendKind {
        match self {
            Workload::IngestHhSharded => BackendKind::Sharded {
                workers: Some(POOL_WORKERS),
            },
            _ => BackendKind::Deterministic,
        }
    }

    /// Items per set and items per round at full size.
    pub fn standard_size(self) -> (usize, usize) {
        match self {
            // 128 items per site per chunk on average, so that nearly every
            // round fills a flow-control window and waits on it: at 64 the
            // round times split between pure buffering and a full wait,
            // and their median jumped between the two from run to run.
            Workload::IngestHhSharded => (1_000_000, 128 * 256),
            Workload::IngestQuantileDet => (400_000, 20_000),
            Workload::MonitorAllqDet => (500_000, 5_000),
        }
    }

    /// Queries issued after each `feed_batch` round.
    pub fn round_queries(self) -> Vec<Query> {
        match self {
            Workload::IngestHhSharded => Vec::new(),
            Workload::IngestQuantileDet => vec![Query::TrackedQuantile],
            Workload::MonitorAllqDet => (0..PROBE_PASSES)
                .flat_map(|_| PROBE_PHIS.iter())
                .map(|&phi| Query::Quantile { phi })
                .collect(),
        }
    }

    /// Queries issued once the whole set's stream is in and settled.
    pub fn final_queries(self) -> Vec<Query> {
        match self {
            // Every probe φ above ε, four times over.
            Workload::IngestHhSharded => (0..4)
                .flat_map(|_| HH_PROBE_PHIS.iter().copied())
                .filter(|&phi| phi > self.epsilon())
                .map(|phi| Query::HeavyHitters { phi })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Build a tracker for this workload on `backend`, wrapped for
    /// tracing when `rec` is given.
    pub fn build(
        self,
        backend: BackendKind,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<Tracker, TrackerError> {
        let (k, eps) = (self.sites(), self.epsilon());
        let bad = |e: dtrack_core::CoreError| TrackerError::Protocol(e.to_string());
        match self {
            Workload::IngestHhSharded => {
                let config = HhConfig::new(k, eps).map_err(bad)?;
                build_with(HhSketchedProtocol::new(config), backend, rec)
            }
            Workload::IngestQuantileDet => {
                let config = QuantileConfig::new(k, eps, self.tracked_phi()).map_err(bad)?;
                build_with(QuantileSketchedProtocol::new(config), backend, rec)
            }
            Workload::MonitorAllqDet => {
                let config = AllQConfig::new(k, eps).map_err(bad)?;
                build_with(AllQExactProtocol::new(config), backend, rec)
            }
        }
    }

    /// Replay each site's sub-stream into a fresh store of the type that
    /// site uses, through the public store trait; returns the wall time in
    /// nanoseconds per item.
    pub fn sketch_replay_ns_per_item(self, stream: &[(SiteId, u64)]) -> f64 {
        let k = self.sites() as usize;
        let mut per_site: Vec<Vec<u64>> = vec![Vec::new(); k];
        for &(site, x) in stream {
            per_site[site.index()].push(x);
        }
        let eps = self.epsilon();
        let start = Instant::now();
        for items in &per_site {
            match self {
                // The store parameters mirror `HhSite::sketched`,
                // `QuantileSite::sketched` and `AllQSite::exact`.
                Workload::IngestHhSharded => {
                    let mut store = SketchFreqStore::with_epsilon(eps / 6.0);
                    for &x in items {
                        black_box(store.observe(black_box(x)));
                    }
                    black_box(store.entries());
                }
                Workload::IngestQuantileDet => {
                    let mut store = GreenwaldKhanna::new(eps / 64.0);
                    items.iter().for_each(|&x| store.insert(black_box(x)));
                    black_box(store.entries());
                }
                Workload::MonitorAllqDet => {
                    let mut store = ExactOrdered::new();
                    items
                        .iter()
                        .for_each(|&x| OrderStore::insert(&mut store, black_box(x)));
                    black_box(OrderStore::entries(&store));
                }
            }
        }
        start.elapsed().as_nanos() as f64 / stream.len().max(1) as f64
    }
}

fn build_with<P: Protocol>(
    protocol: P,
    backend: BackendKind,
    rec: Option<&Arc<Recorder>>,
) -> Result<Tracker, TrackerError> {
    let builder = Tracker::builder().backend(backend);
    match rec {
        Some(rec) => builder.protocol(Traced::new(protocol, rec)).build(),
        None => builder.protocol(protocol).build(),
    }
}

/// SplitMix64 finalizer, to derive independent sub-seeds from one seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream `index` of `seed`: the workload's assigned stream of `n` items.
pub fn stream(workload: Workload, seed: u64, index: u64, n: usize) -> Vec<(SiteId, u64)> {
    let base = mix(seed).wrapping_add(index);
    let generator = Zipf::new(UNIVERSE, ZIPF_S, mix(base));
    let sites = UniformSites::new(workload.sites(), mix(base ^ 0x5173_u64));
    Stream::new(generator, sites, n as u64).collect()
}

/// `stream` cut into rounds, each split into per-site runs in site order
/// (the `ingest` calls of one round).
pub fn site_runs(stream: &[(SiteId, u64)], round: usize, k: u32) -> Vec<Vec<(SiteId, Vec<u64>)>> {
    stream
        .chunks(round)
        .map(|chunk| {
            let mut per_site: Vec<Vec<u64>> = vec![Vec::new(); k as usize];
            for &(site, x) in chunk {
                per_site[site.index()].push(x);
            }
            per_site
                .into_iter()
                .enumerate()
                .filter(|(_, items)| !items.is_empty())
                .map(|(i, items)| (SiteId(i as u32), items))
                .collect()
        })
        .collect()
}

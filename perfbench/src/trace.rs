//! Span recording for the traced run.
//!
//! [`Traced`] wraps any [`Protocol`]: its sites, coordinator and `query`
//! forward every call unchanged to the real ones and record one [`Span`]
//! per call. Spans stay in memory (one lane per site, one for the
//! coordinator, one for queries) until the set ends. Every span carries
//! the id and round of the driver call in flight when it started, so a
//! worker-thread span on the sharded pool points back at the `ingest`,
//! `settle` or `query` that was running on the driver thread.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dtrack_sim::{Answer, Coordinator, Outbox, Protocol, Query, QueryError, Site, SiteId};

/// Which layer recorded a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A public `Tracker` call made by the benchmark driver.
    Tracker,
    /// A site state-machine call (`core.site`).
    Site,
    /// A coordinator state-machine call (`core.coord`).
    Coord,
    /// A protocol query over the coordinator (`core.query`).
    Query,
}

/// Which call a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Build,
    FeedBatch,
    Ingest,
    Settle,
    Query,
    OnItem,
    OnItems,
    OnMessage,
}

impl Op {
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Build => "build",
            Op::FeedBatch => "feed_batch",
            Op::Ingest => "ingest",
            Op::Settle => "settle",
            Op::Query => "query",
            Op::OnItem => "on_item",
            Op::OnItems => "on_items",
            Op::OnMessage => "on_message",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: Op,
    pub layer: Layer,
    /// Lane the span was recorded on (driver spans: 0).
    pub lane: u32,
    /// Driver spans: their own id (1-based). Other spans: 0.
    pub id: u32,
    /// Id of the driver call in flight when the span started (0: none).
    pub parent: u32,
    /// Driver round in flight when the span started.
    pub round: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items consumed by a site call.
    pub items: u32,
    /// Messages emitted (site: ups; coordinator: downstream directives).
    pub out: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Lane = Arc<Mutex<Vec<Span>>>;

/// Shared span store and clock for one traced set.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    // Relaxed throughout: both are labels copied into spans and publish
    // no other memory.
    call: AtomicU32,
    round: AtomicU32,
    lanes: Mutex<Vec<Lane>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            call: AtomicU32::new(0),
            round: AtomicU32::new(0),
            // Lane 0 is reserved for the driver's own spans.
            lanes: Mutex::new(vec![Lane::default()]),
        })
    }

    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mark driver call `id` of `round` as in flight (0 clears it).
    pub fn set_call(&self, id: u32, round: u32) {
        self.call.store(id, Ordering::Relaxed);
        self.round.store(round, Ordering::Relaxed);
    }

    fn probe(self: &Arc<Self>, layer: Layer) -> Probe {
        let mut lanes = self.lanes.lock().expect("lane registry poisoned");
        let lane = Lane::default();
        lanes.push(Arc::clone(&lane));
        Probe {
            rec: Arc::clone(self),
            lane,
            index: (lanes.len() - 1) as u32,
            layer,
        }
    }

    /// Move out every span recorded so far, one vector per lane.
    pub fn take_lanes(&self) -> Vec<Vec<Span>> {
        let lanes = self.lanes.lock().expect("lane registry poisoned");
        lanes
            .iter()
            .map(|lane| std::mem::take(&mut *lane.lock().expect("span lane poisoned")))
            .collect()
    }
}

/// A recording handle for one lane.
#[derive(Debug, Clone)]
struct Probe {
    rec: Arc<Recorder>,
    lane: Lane,
    index: u32,
    layer: Layer,
}

impl Probe {
    fn start(&self) -> u64 {
        self.rec.now_ns()
    }

    fn record(&self, op: Op, start_ns: u64, items: usize, out: usize) {
        let end_ns = self.rec.now_ns();
        let span = Span {
            op,
            layer: self.layer,
            lane: self.index,
            id: 0,
            parent: self.rec.call.load(Ordering::Relaxed),
            round: self.rec.round.load(Ordering::Relaxed),
            start_ns,
            end_ns,
            items: items as u32,
            out: out as u32,
        };
        self.lane.lock().expect("span lane poisoned").push(span);
    }
}

/// A protocol whose sites, coordinator and queries are timed wrappers
/// around `P`'s. Transcripts and answers are `P`'s, bit for bit.
#[derive(Debug, Clone)]
pub struct Traced<P> {
    inner: P,
    rec: Arc<Recorder>,
    query: Probe,
}

impl<P> Traced<P> {
    pub fn new(inner: P, rec: &Arc<Recorder>) -> Self {
        Traced {
            inner,
            rec: Arc::clone(rec),
            query: rec.probe(Layer::Query),
        }
    }
}

/// A site that forwards to `S` and records a span per call.
#[derive(Debug)]
pub struct TracedSite<S> {
    inner: S,
    probe: Probe,
}

impl<S: Site<Item = u64>> Site for TracedSite<S> {
    type Item = u64;
    type Up = S::Up;
    type Down = S::Down;

    fn on_item(&mut self, item: u64, out: &mut Vec<S::Up>) {
        let (t, before) = (self.probe.start(), out.len());
        self.inner.on_item(item, out);
        self.probe.record(Op::OnItem, t, 1, out.len() - before);
    }

    fn on_items(&mut self, items: &[u64], out: &mut Vec<S::Up>) -> usize {
        let (t, before) = (self.probe.start(), out.len());
        let used = self.inner.on_items(items, out);
        self.probe.record(Op::OnItems, t, used, out.len() - before);
        used
    }

    fn on_message(&mut self, msg: &S::Down, out: &mut Vec<S::Up>) {
        let (t, before) = (self.probe.start(), out.len());
        self.inner.on_message(msg, out);
        self.probe.record(Op::OnMessage, t, 0, out.len() - before);
    }
}

/// A coordinator that forwards to `C` and records a span per message.
#[derive(Debug)]
pub struct TracedCoord<C> {
    inner: C,
    probe: Probe,
}

impl<C: Coordinator> Coordinator for TracedCoord<C> {
    type Up = C::Up;
    type Down = C::Down;

    fn on_message(&mut self, from: SiteId, msg: C::Up, out: &mut Outbox<C::Down>) {
        let (t, before) = (self.probe.start(), out.len());
        self.inner.on_message(from, msg, out);
        self.probe.record(Op::OnMessage, t, 0, out.len() - before);
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Site = TracedSite<P::Site>;
    type Up = P::Up;
    type Down = P::Down;
    type Coordinator = TracedCoord<P::Coordinator>;

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn sites_hint(&self) -> Option<u32> {
        self.inner.sites_hint()
    }

    fn build(&self, k: u32) -> Result<(Vec<Self::Site>, Self::Coordinator), String> {
        let (sites, coordinator) = self.inner.build(k)?;
        let sites = sites
            .into_iter()
            .map(|inner| TracedSite {
                inner,
                probe: self.rec.probe(Layer::Site),
            })
            .collect();
        let coordinator = TracedCoord {
            inner: coordinator,
            probe: self.rec.probe(Layer::Coord),
        };
        Ok((sites, coordinator))
    }

    fn query(&self, coordinator: &Self::Coordinator, query: Query) -> Result<Answer, QueryError> {
        let t = self.query.start();
        let answer = self.inner.query(&coordinator.inner, query);
        self.query.record(Op::Query, t, 0, 0);
        answer
    }

    fn answers(&self, coordinator: &Self::Coordinator) -> Result<Vec<Answer>, QueryError> {
        self.inner.answers(&coordinator.inner)
    }
}

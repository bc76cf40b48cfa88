//! The wire hop as a protocol adapter: [`Wired<P>`] runs any protocol
//! with every upstream message and every routed downstream message
//! round-tripped through the `dtrack-wire` frame codec
//! ([`dtrack_wire::Loopback`]: encode → length-prefixed frame → decode).
//!
//! The codec is an exact inverse, so a wired run must reproduce the plain
//! run's metered transcript bit-for-bit; the sharded equivalence suite
//! holds every matrix row to the golden fixture through this adapter.
//! Only the coordinator is wrapped, which is where a socket transport
//! would sit: an up is decoded on arrival (its origin site travels in the
//! frame), and each down is framed as a routing decision before the
//! runtime expands it (one frame per broadcast, not k). Sites and message
//! types are the inner protocol's own, so metered kinds and sizes are
//! untouched — the wire can only show up in the transcript by breaking it.
//!
//! A frame that fails to decode, or decodes to a different origin or
//! destination, is a codec bug: the adapter panics with the typed
//! [`dtrack_wire::DecodeError`] instead of forwarding a guess.

use std::sync::Arc;

use dtrack_sim::{Answer, Coordinator, Down, Outbox, Protocol, Query, QueryError, SiteId};
use dtrack_wire::{Dest, Loopback, WireStats};

/// `P` with every site↔coordinator hop carried over the wire codec.
/// Clones share one [`Loopback`], so [`Wired::stats`] counts the frames
/// of every tracker built from this description.
#[derive(Debug, Clone)]
pub struct Wired<P> {
    inner: P,
    link: Arc<Loopback>,
}

impl<P> Wired<P> {
    /// Wrap a protocol description.
    pub fn new(inner: P) -> Self {
        Wired {
            inner,
            link: Arc::new(Loopback::new()),
        }
    }

    /// Frames and bytes carried so far, per direction.
    pub fn stats(&self) -> WireStats {
        self.link.stats()
    }
}

/// The coordinator of a [`Wired`] protocol: the inner coordinator behind
/// the loopback link.
pub struct WiredCoordinator<C: Coordinator> {
    inner: C,
    link: Arc<Loopback>,
    /// The inner coordinator's outbox, drained through the codec into the
    /// runtime's after every step.
    staged: Outbox<C::Down>,
}

impl<C> Coordinator for WiredCoordinator<C>
where
    C: Coordinator,
    C::Up: dtrack_wire::WireMessage,
    C::Down: dtrack_wire::WireMessage,
{
    type Up = C::Up;
    type Down = C::Down;

    fn on_message(&mut self, from: SiteId, msg: C::Up, out: &mut Outbox<C::Down>) {
        let (origin, msg) = self
            .link
            .roundtrip_up(from.0, &msg)
            .unwrap_or_else(|e| panic!("up frame from {from} failed to decode: {e}"));
        assert_eq!(
            origin, from.0,
            "up frame from {from} decoded a different origin"
        );
        self.inner.on_message(SiteId(origin), msg, &mut self.staged);
        for (dest, msg) in self.staged.drain() {
            let dest = match dest {
                Down::Unicast(site) => Dest::Site(site.0),
                Down::Broadcast => Dest::Broadcast,
            };
            let (decoded, msg) = self
                .link
                .roundtrip_down(dest, &msg)
                .unwrap_or_else(|e| panic!("down frame to {dest:?} failed to decode: {e}"));
            assert_eq!(decoded, dest, "down frame decoded a different destination");
            match decoded {
                Dest::Site(site) => out.unicast(SiteId(site), msg),
                Dest::Broadcast => out.broadcast(msg),
            }
        }
    }
}

impl<P: Protocol> Protocol for Wired<P> {
    type Site = P::Site;
    type Up = P::Up;
    type Down = P::Down;
    type Coordinator = WiredCoordinator<P::Coordinator>;

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn sites_hint(&self) -> Option<u32> {
        self.inner.sites_hint()
    }

    fn build(&self, k: u32) -> Result<(Vec<P::Site>, Self::Coordinator), String> {
        let (sites, inner) = self.inner.build(k)?;
        let coordinator = WiredCoordinator {
            inner,
            link: Arc::clone(&self.link),
            staged: Outbox::new(),
        };
        Ok((sites, coordinator))
    }

    fn query(&self, coordinator: &Self::Coordinator, query: Query) -> Result<Answer, QueryError> {
        self.inner.query(&coordinator.inner, query)
    }

    fn answers(&self, coordinator: &Self::Coordinator) -> Result<Vec<Answer>, QueryError> {
        self.inner.answers(&coordinator.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_core::hh::{HhConfig, HhExactProtocol};
    use dtrack_sim::{BackendKind, CostReport, Tracker};

    fn run<P: Protocol>(protocol: P, backend: BackendKind) -> (Vec<Answer>, CostReport) {
        let stream: Vec<(SiteId, u64)> = (0..3_000u64)
            .map(|i| (SiteId((i % 4) as u32), i % 37))
            .collect();
        let mut tracker = Tracker::builder()
            .backend(backend)
            .protocol(protocol)
            .build()
            .unwrap();
        tracker.feed_batch(&stream).unwrap();
        let answers = tracker.answers().unwrap();
        (answers, tracker.finish().unwrap().report())
    }

    #[test]
    fn wired_runs_match_the_plain_run_and_count_frames() {
        let protocol = HhExactProtocol::new(HhConfig::new(4, 0.1).unwrap());
        let plain = run(protocol, BackendKind::Deterministic);
        let wired = Wired::new(protocol);
        for backend in [
            BackendKind::Deterministic,
            BackendKind::Sharded { workers: Some(4) },
        ] {
            assert_eq!(run(wired.clone(), backend), plain, "{backend}");
        }
        let stats = wired.stats();
        assert!(stats.frames_up > 0 && stats.frames_down > 0, "{stats:?}");
        assert!(stats.bytes_up > stats.frames_up, "{stats:?}");
    }
}

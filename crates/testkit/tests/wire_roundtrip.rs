//! Wire-codec properties over the real protocol message vocabulary.
//!
//! The `Wired` protocol adapter proves, via the golden matrix, that
//! framing cannot perturb a metered word — but that proof only exercises
//! the values the protocols happen to produce. This suite pins
//! the codec's two contracts over *arbitrary* values:
//!
//! 1. **Roundtrip identity**: `decode(encode(x)) == x` for every message
//!    kind the workspace puts on the wire, in both frame directions and
//!    for both unicast and broadcast routing. This is the property the
//!    run-equivalence argument leans on (`Wired` forwards the decoded
//!    value, so identity ⇒ unchanged transcript).
//! 2. **Totality**: truncated, corrupted, or outright garbage bytes decode
//!    to a typed [`DecodeError`] — never a panic, never an
//!    overallocation. A transport can therefore report any fault as a
//!    typed error carrying the offending byte offset.
//!
//! Like `properties.rs`, this runs under the offline proptest runner's
//! fixed RNG: fresh values every run, deterministically.

use dtrack_baseline::cgmr::CgmrUp;
use dtrack_baseline::naive::{FwdItem, PollRequest, PollUp};
use dtrack_core::allq::{AqDown, AqUp, Tree};
use dtrack_core::counter::{CountDelta, NoDown};
use dtrack_core::hh::{HhDown, HhUp};
use dtrack_core::quantile::{QDown, QUp};
use dtrack_core::sampling::{Sampled, SetLevel};
use dtrack_core::window::{NewEpoch, WUp, WqUp};
use dtrack_core::ValueRange;
use dtrack_sketch::{EquiDepthSummary, MergedSummary};
use dtrack_wire::{decode, encode_down, encode_up, DecodeError, Dest, Frame, WireMessage};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Value strategies
// ---------------------------------------------------------------------

fn summary() -> impl Strategy<Value = EquiDepthSummary> {
    (vec(any::<u64>(), 0..32), 1u64..8, 0u64..6).prop_map(|(mut vals, step, sep_error)| {
        vals.sort_unstable();
        EquiDepthSummary::from_sorted(&vals, step).with_sep_error(sep_error)
    })
}

fn range() -> impl Strategy<Value = ValueRange> {
    (any::<u64>(), proptest::option::of(any::<u64>())).prop_map(|(lo, hi)| ValueRange { lo, hi })
}

fn tree() -> impl Strategy<Value = Tree> {
    // Arbitrary *valid* trees: build from a fuzzed summary the same way
    // the all-quantile coordinator does. Leaf limits below the summary
    // total force real splits, so internal nodes (split/left/right and
    // parent links) go over the wire, not just single-leaf arenas.
    (summary(), 1u64..12).prop_map(|(s, leaf_limit)| {
        Tree::build(&MergedSummary::new(vec![s]), ValueRange::all(), leaf_limit)
    })
}

fn hh_up() -> impl Strategy<Value = HhUp> {
    prop_oneof![
        any::<u64>().prop_map(|item| HhUp::Raw { item }),
        any::<u64>().prop_map(|delta| HhUp::AllSignal { delta }),
        (any::<u64>(), any::<u64>()).prop_map(|(item, delta)| HhUp::ItemSignal { item, delta }),
        any::<u64>().prop_map(|local| HhUp::CountReply { local }),
    ]
}

fn hh_down() -> impl Strategy<Value = HhDown> {
    prop_oneof![
        any::<u64>().prop_map(|m| HhDown::Start { m }),
        Just(HhDown::SyncPoll),
        any::<u64>().prop_map(|m| HhDown::NewCount { m }),
    ]
}

fn q_up() -> impl Strategy<Value = QUp> {
    prop_oneof![
        any::<u64>().prop_map(|item| QUp::Raw { item }),
        (any::<u32>(), any::<u64>()).prop_map(|(id, delta)| QUp::IntervalDelta { id, delta }),
        (any::<u32>(), any::<bool>(), any::<u64>())
            .prop_map(|(epoch, left, delta)| QUp::SideDelta { epoch, left, delta }),
        summary().prop_map(QUp::FullSummary),
        vec(any::<u64>(), 0..24).prop_map(QUp::IntervalCounts),
        (any::<u64>(), any::<u64>()).prop_map(|(left, right)| QUp::SideCounts { left, right }),
        any::<u64>().prop_map(|count| QUp::RangeCount { count }),
        summary().prop_map(QUp::RangeSummary),
        (any::<u64>(), any::<u64>()).prop_map(|(left, right)| QUp::SplitCounts { left, right }),
    ]
}

fn q_down() -> impl Strategy<Value = QDown> {
    prop_oneof![
        Just(QDown::SummaryPoll),
        (
            any::<u32>(),
            vec(any::<u64>(), 0..24),
            vec(any::<u32>(), 0..25),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(epoch, seps, ids, pivot, m)| QDown::Install {
                epoch,
                seps,
                ids,
                pivot,
                m
            }),
        Just(QDown::SidePoll),
        range().prop_map(|range| QDown::RangePoll { range }),
        (any::<u32>(), any::<u64>()).prop_map(|(epoch, pivot)| QDown::SetPivot { epoch, pivot }),
        range().prop_map(|range| QDown::RangeSummaryPoll { range }),
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(sep, left_id, right_id)| {
            QDown::SplitInstall {
                sep,
                left_id,
                right_id,
            }
        }),
    ]
}

fn aq_up() -> impl Strategy<Value = AqUp> {
    prop_oneof![
        any::<u64>().prop_map(|item| AqUp::Raw { item }),
        (any::<u32>(), any::<u32>(), any::<u64>())
            .prop_map(|(round, node, delta)| AqUp::NodeDelta { round, node, delta }),
        summary().prop_map(AqUp::FullSummary),
        vec(any::<u64>(), 0..24).prop_map(AqUp::NodeCounts),
        summary().prop_map(AqUp::RangeSummary),
        vec(any::<u64>(), 0..24).prop_map(AqUp::SubtreeCounts),
    ]
}

fn aq_down() -> impl Strategy<Value = AqDown> {
    prop_oneof![
        Just(AqDown::SummaryPoll),
        (any::<u32>(), tree(), any::<u64>()).prop_map(|(round, tree, m)| AqDown::InstallTree {
            round,
            tree,
            m
        }),
        range().prop_map(|range| AqDown::RangeSummaryPoll { range }),
        (any::<u32>(), tree()).prop_map(|(at, sub)| AqDown::ReplaceSubtree { at, sub }),
    ]
}

fn w_up() -> impl Strategy<Value = WUp> {
    prop_oneof![
        any::<u64>().prop_map(|delta| WUp::CountDelta { delta }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(epoch, item, delta)| WUp::ItemDelta { epoch, item, delta }),
    ]
}

fn wq_up() -> impl Strategy<Value = WqUp> {
    prop_oneof![
        any::<u64>().prop_map(|delta| WqUp::CountDelta { delta }),
        (any::<u64>(), summary())
            .prop_map(|(epoch, summary)| WqUp::EpochSummary { epoch, summary }),
    ]
}

fn poll_up() -> impl Strategy<Value = PollUp> {
    prop_oneof![
        any::<u64>().prop_map(PollUp::CountDelta),
        summary().prop_map(PollUp::Summary),
    ]
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// Roundtrip one value through a full frame in both directions and both
/// destinations, then sweep every truncation of every frame: identity on
/// the whole bytes, a typed error on any prefix.
fn check<M>(msg: M)
where
    M: WireMessage + Clone + PartialEq + std::fmt::Debug,
{
    let up = encode_up(7, &msg);
    match decode::<M, M>(&up) {
        Ok(Frame::Up { origin, msg: back }) => {
            assert_eq!(origin, 7);
            assert_eq!(back, msg, "up frame changed the message");
        }
        other => panic!("up frame failed to decode: {other:?}"),
    }
    for dest in [Dest::Site(3), Dest::Broadcast] {
        let down = encode_down(dest, &msg);
        match decode::<M, M>(&down) {
            Ok(Frame::Down { dest: d, msg: back }) => {
                assert_eq!(d, dest);
                assert_eq!(back, msg, "down frame changed the message");
            }
            other => panic!("down frame failed to decode: {other:?}"),
        }
        for cut in 0..down.len() {
            assert!(
                decode::<M, M>(&down[..cut]).is_err(),
                "truncated down frame decoded at cut {cut}"
            );
        }
    }
    for cut in 0..up.len() {
        assert!(
            decode::<M, M>(&up[..cut]).is_err(),
            "truncated up frame decoded at cut {cut}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn hh_messages_roundtrip(up in hh_up(), down in hh_down()) {
        check(up);
        check(down);
    }

    #[test]
    fn counter_and_sampling_messages_roundtrip(
        delta in any::<u64>(),
        item in any::<u64>(),
        level in any::<u32>(),
    ) {
        check(CountDelta(delta));
        check(Sampled { item, level });
        check(SetLevel(level));
    }

    #[test]
    fn quantile_messages_roundtrip(up in q_up(), down in q_down()) {
        check(up);
        check(down);
    }

    #[test]
    fn allq_messages_roundtrip(up in aq_up(), down in aq_down()) {
        check(up);
        check(down);
    }

    #[test]
    fn window_messages_roundtrip(up in w_up(), wq in wq_up(), epoch in any::<u64>()) {
        check(up);
        check(wq);
        check(NewEpoch(epoch));
    }

    #[test]
    fn baseline_messages_roundtrip(s in summary(), item in any::<u64>(), p in poll_up()) {
        check(CgmrUp(s));
        check(FwdItem(item));
        check(p);
        check(PollRequest);
    }

    /// Single-byte corruption anywhere in a valid frame either decodes to
    /// *some* value (payload bytes are honest data) or fails with a typed
    /// error — it never panics and never hangs on an absurd allocation.
    #[test]
    fn corrupted_frames_never_panic(down in q_down(), pos_seed in any::<usize>(), xor in 1u16..256) {
        let mut frame = encode_down(Dest::Broadcast, &down);
        let pos = pos_seed % frame.len();
        frame[pos] ^= xor as u8;
        let _ = decode::<QUp, QDown>(&frame);
    }

    /// Arbitrary garbage decodes to a typed error, with or without a
    /// self-consistent length prefix.
    #[test]
    fn garbage_is_a_typed_error(bytes in vec(any::<u8>(), 0..96), pin_len in any::<bool>()) {
        let mut bytes = bytes;
        if pin_len && bytes.len() >= 4 {
            let len = (bytes.len() - 4) as u32;
            bytes[..4].copy_from_slice(&len.to_le_bytes());
            // Leave the magic unpinned: reaching it is the error path
            // under test. (Pinning everything would just re-test payload
            // decoding, which the corruption case covers.)
        }
        let result = decode::<HhUp, HhDown>(&bytes);
        prop_assert!(result.is_err(), "garbage decoded: {result:?}");
    }
}

// ---------------------------------------------------------------------
// Deterministic edge cases the fuzz axes above cannot hit
// ---------------------------------------------------------------------

/// A frame can claim to carry a message for a protocol whose downstream
/// direction is uninhabited (`NoDown`, `FwdDown`, `CgmrDown`); decoding
/// must surface that as a typed error, since no value can exist.
#[test]
fn uninhabited_message_types_decode_to_typed_errors() {
    // Hand-build a broadcast Down frame with an empty payload.
    let mut frame = vec![0, 0, 0, 0, b'D', b'W', 1, 1, 1];
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    let err = decode::<CountDelta, NoDown>(&frame).unwrap_err();
    assert!(
        matches!(err, DecodeError::Uninhabited { .. }),
        "expected Uninhabited, got {err:?}"
    );
}

/// An empty-payload frame for a fieldless message decodes; one stray
/// byte after it is `Trailing`, not silently ignored.
#[test]
fn exact_frame_boundaries_are_enforced() {
    let frame = encode_down(Dest::Site(0), &PollRequest);
    assert!(matches!(
        decode::<PollUp, PollRequest>(&frame),
        Ok(Frame::Down {
            dest: Dest::Site(0),
            msg: PollRequest
        })
    ));
    let mut padded = frame.clone();
    padded.push(0);
    let len = (padded.len() - 4) as u32;
    padded[..4].copy_from_slice(&len.to_le_bytes());
    assert!(matches!(
        decode::<PollUp, PollRequest>(&padded),
        Err(DecodeError::Trailing { unread: 1, .. })
    ));
}

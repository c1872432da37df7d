//! One wire layout: v1 frames (pre-packed-payload), v2 frames
//! (pre-trace-context), v3 termination votes, v4 pushes of one ciphertext
//! per slot, v5 big integers each behind its own length prefix and v6
//! frames from before the release, captured as fixture bytes from the
//! encoders of their day, are rejected as foreign versions or a retired
//! tag — and a pump that meets one counts it as a bad frame; every message
//! whose body never changed is still exactly those bytes behind the current
//! header (v3 added the trace flag, v4 and v5 only retired tags, v6
//! rewrote only the big-integer blocks, v7 only added tags); traced frames
//! must round-trip their context; and corrupt packed or trace-context bytes
//! must be rejected.
//!
//! The hex strings below are real frames emitted by the v1 codec (PR 2)
//! and the v2 codec (PR 3), the vote and the per-slot push as the v3
//! and v4 codecs laid them out (their v1 bytes under the later header),
//! and the three big-integer-bearing messages as the v5 encoder emitted
//! them; they are deliberately hardcoded rather than re-encoded, so they
//! pin the decoder's version and tag checks to bytes a real old peer would
//! send, and the current body layout to bytes no encoder in this tree
//! produced.

use chiaroscuro::noise::SlotLayout;
use cs_bigint::BigUint;
use cs_crypto::Ciphertext;
use cs_net::driver::{NodeDriver, Timing};
use cs_net::node::{NodeCrypto, NodeParams, ProtocolNode};
use cs_net::runtime::pump;
use cs_net::wire::{
    decode_frame, decode_frame_traced, encode_frame, encode_frame_traced, FrameClass, Message,
    TraceContext, WireError, WIRE_VERSION,
};
use cs_net::{LinkConfig, TcpTransport};
use cs_obs::Registry;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2));
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn c(v: u64) -> Ciphertext {
    Ciphertext::from_biguint(BigUint::from(v))
}

/// The v1 frames of the big-integer-bearing messages v6 re-laid out:
/// `DecryptRequest { iteration: 2, slots: [9] }` and a `DecryptShare` of
/// iteration 2 with partials `(1, 77)` and `(3, 0)` — two share indices in
/// one reply, which no current message can express.
const V1_DECRYPT_REQUEST: &str = "1300000001020200000000000000010000000100000009";
const V1_DECRYPT_SHARE: &str =
    "2700000001030200000000000000020000000100000000000000010000004d030000000000000000000000";

/// Every v1 frame fixture of a message whose body no version since has
/// changed, with the message it encoded at capture time.
fn v1_fixtures() -> Vec<(&'static str, Message)> {
    vec![
        (
            // PlainPush { iteration: 1, weight: 1.0, slots: [0.0, -3.5, 1e300] }
            "2e00000001010100000000000000000000000000f03f0300000000000000000000000000000000000cc09c7500883ce4377e",
            Message::PlainPush {
                iteration: 1,
                weight: 1.0,
                slots: vec![0.0, -3.5, 1e300],
            },
        ),
        (
            // Join { node: 11, iteration: 4 }
            "1200000001050b000000000000000400000000000000",
            Message::Join {
                node: 11,
                iteration: 4,
            },
        ),
        (
            // Leave { node: 12 }
            "0a00000001060c00000000000000",
            Message::Leave { node: 12 },
        ),
    ]
}

/// Every v1 frame fixture: the unchanged bodies, the decryption pair v6
/// re-laid out, and the two retired messages.
fn all_v1_frames() -> Vec<&'static str> {
    let unchanged = v1_fixtures().into_iter().map(|(hex, _)| hex);
    let retired = [
        V1_DECRYPT_REQUEST,
        V1_DECRYPT_SHARE,
        V1_VOTE,
        V1_PER_SLOT_PUSH,
    ];
    unchanged.chain(retired).collect()
}

/// The v5 encoder's frames of `sample_packed()`, the request and the share
/// of [`V1_DECRYPT_REQUEST`] and [`V1_DECRYPT_SHARE`]: each big integer
/// behind a 4-byte length, each partial behind its share index.
const V5_FRAMES: [&str; 3] = [
    "3000000005070006000000000000000b000000000000000000d03f180000000200000008000000efcdab8967452301010000002a",
    "140000000502000200000000000000010000000100000009",
    "280000000503000200000000000000020000000100000000000000010000004d030000000000000000000000",
];

/// The termination vote `{ iteration: 5, completed: true }` — tag 4, retired in
/// v4 with the vote — as the v1 codec emitted it and as the v3 codec laid
/// it out.
const V1_VOTE: &str = "0b0000000104050000000000000001";
const V3_VOTE: &str = "0c000000030400050000000000000001";

/// The push of one ciphertext per slot, `EncryptedPush { iteration: 3,
/// denom_exp: 7, weight: 0.125, slots: [0xDEADBEEF, 0, u64::MAX] }` — tag
/// 0, retired in v5 with the per-slot layout — as the v1 codec emitted it
/// and as the v4 codec laid it out.
const V1_PER_SLOT_PUSH: &str = "320000000100030000000000000007000000000000000000c03f0300000004000000efbeadde0000000008000000ffffffffffffffff";
const V4_PER_SLOT_PUSH: &str = "33000000040000030000000000000007000000000000000000c03f0300000004000000efbeadde0000000008000000ffffffffffffffff";

/// The one frame shape v2 added over v1: the packed push (tag 7) of
/// `sample_packed()`, captured from the v2 encoder before the trace-context
/// bump.
const V2_PACKED_PUSH: &str = "2f000000020706000000000000000b000000000000000000d03f180000000200000008000000efcdab8967452301010000002a";

#[test]
fn every_v1_fixture_is_rejected_as_a_bad_version() {
    for hex in all_v1_frames() {
        let frame = unhex(hex);
        assert_eq!(frame[4], 1, "fixture is a v1 frame");
        assert_eq!(decode_frame(&frame), Err(WireError::BadVersion(1)), "{hex}");
    }
}

#[test]
fn every_v2_fixture_is_rejected_as_a_bad_version() {
    // For the tags v1 had, a v2 frame is a v1 frame with the version byte
    // bumped — the body layout never changed between the two.
    let mut fixtures: Vec<Vec<u8>> = all_v1_frames()
        .into_iter()
        .map(|hex| {
            let mut frame = unhex(hex);
            frame[4] = 2;
            frame
        })
        .collect();
    fixtures.push(unhex(V2_PACKED_PUSH));
    for frame in fixtures {
        assert_eq!(frame[4], 2, "fixture is a v2 frame");
        assert_eq!(decode_frame_traced(&frame), Err(WireError::BadVersion(2)));
    }
}

/// The vote's last layout is as foreign as the first: a v3 peer's vote is
/// a typed decode error — counted in `bad_frames` wherever a pump meets
/// one — and the same bytes under the current version are an unknown tag,
/// so tag 4 can never be mistaken for a message this codec emits.
#[test]
fn a_v3_termination_vote_is_a_typed_rejection() {
    let mut frame = unhex(V3_VOTE);
    assert_eq!(
        frame[4..7],
        [3, 4, 0],
        "a v3 header: version, tag, trace flag"
    );
    assert_eq!(decode_frame_traced(&frame), Err(WireError::BadVersion(3)));
    frame[4] = WIRE_VERSION;
    assert_eq!(decode_frame_traced(&frame), Err(WireError::BadTag(4)));
}

/// The per-slot layout is retired the same way: a v4 peer's push is a
/// foreign version, and its bytes under the current version an unknown
/// tag — tag 0 is no message this codec emits. A v4 frame of a message
/// that survived is as foreign.
#[test]
fn a_v4_per_slot_push_is_a_typed_rejection() {
    let mut frame = unhex(V4_PER_SLOT_PUSH);
    assert_eq!(
        frame[4..7],
        [4, 0, 0],
        "a v4 header: version, tag, trace flag"
    );
    // v4 laid the v1 body out unchanged behind its header.
    assert_eq!(frame[7..], unhex(V1_PER_SLOT_PUSH)[6..]);
    assert_eq!(decode_frame_traced(&frame), Err(WireError::BadVersion(4)));
    frame[4] = WIRE_VERSION;
    assert_eq!(decode_frame_traced(&frame), Err(WireError::BadTag(0)));
    let mut survivor = encode_frame(&sample_packed());
    survivor[4] = 4;
    assert_eq!(decode_frame(&survivor), Err(WireError::BadVersion(4)));
}

/// A v5 peer's push, request and reply are foreign versions: v6 writes
/// each vector of big integers as one fixed-width block and a reply's
/// share index once, so no v5 body of these three would parse anyway.
#[test]
fn every_v5_fixture_is_rejected_as_a_bad_version() {
    for (hex, tag) in V5_FRAMES.into_iter().zip([7, 2, 3]) {
        let frame = unhex(hex);
        assert_eq!(
            frame[4..7],
            [5, tag, 0],
            "a v5 header: version, tag, trace flag"
        );
        assert_eq!(decode_frame_traced(&frame), Err(WireError::BadVersion(5)));
    }
    // Behind the v3 header, v5 laid the v1 decryption bodies out unchanged.
    for (v5, v1) in V5_FRAMES[1..]
        .iter()
        .zip([V1_DECRYPT_REQUEST, V1_DECRYPT_SHARE])
    {
        assert_eq!(unhex(v5)[7..], unhex(v1)[6..]);
    }
}

/// `Leave { node: 12 }` as the v6 encoder emitted it.
const V6_LEAVE: &str = "0b0000000606000c00000000000000";

/// A v6 peer, which had every participant's own estimate decrypted, is a
/// foreign version too, though v7 only added the release's two tags: the
/// same body parses under the current version byte alone.
#[test]
fn a_v6_frame_is_a_bad_version() {
    let mut frame = unhex(V6_LEAVE);
    assert_eq!(decode_frame(&frame), Err(WireError::BadVersion(6)));
    frame[4] = WIRE_VERSION;
    assert_eq!(decode_frame(&frame), Ok(Message::Leave { node: 12 }));
}

/// Wherever a pump meets a retired frame — a v4 peer's push, the same
/// bytes under the current version, a v3 vote — it is one counted bad
/// frame, and the node runs on.
#[test]
fn the_pump_counts_retired_frames_as_bad_frames() {
    let registry = Registry::new();
    let transport = TcpTransport::loopback(2, LinkConfig::ideal(), 1, Some(&registry)).unwrap();
    let mut current_tag_0 = unhex(V4_PER_SLOT_PUSH);
    current_tag_0[4] = WIRE_VERSION;
    for frame in [unhex(V4_PER_SLOT_PUSH), current_tag_0, unhex(V3_VOTE)] {
        transport.send(0, 1, frame, FrameClass::Gossip).unwrap();
    }
    let layout = SlotLayout {
        k: 2,
        series_len: 3,
    };
    let params = NodeParams::for_step(1, 2, 5, 0, Vec::new(), None);
    let node = ProtocolNode::new(params, layout, NodeCrypto::Plain, Some(&[0.5; 8]));
    let timing = Timing {
        push_interval: Duration::from_millis(1),
        decrypt_deadline: Duration::from_secs(1),
        step_timeout: Duration::from_secs(5),
    };
    let mut driver = NodeDriver::new(node, &timing, true, Vec::new());
    // The transport records every frame it schedules into an inbox; on an
    // ideal link all three are due at once, so the turn after the third
    // lands drains them, and the one after that ends the pump. The
    // deadline only keeps a lost frame from hanging the test.
    let scheduled = || {
        let snapshot = registry.snapshot();
        snapshot.histogram("net.inbox.depth").map_or(0, |h| h.count)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut drained = false;
    let turn = || {
        if drained || Instant::now() >= deadline {
            return Ok(ControlFlow::Break(()));
        }
        drained = scheduled() == 3;
        Ok(ControlFlow::Continue(()))
    };
    let Ok(()) = pump::<Infallible>(&mut driver, &transport, Instant::now(), turn, || Ok(()));
    assert_eq!(driver.finish().bad_frames, 3);
}

/// The current forms of the messages v6 re-laid out, at the v1
/// fixtures' values.
fn v6_samples() -> Vec<Message> {
    vec![
        sample_packed(),
        Message::DecryptRequest {
            iteration: 2,
            width: 8,
            slots: vec![c(9)],
        },
        Message::DecryptShare {
            iteration: 2,
            member: 3,
            width: 1,
            partials: vec![BigUint::from(77u64), BigUint::from(0u64)],
        },
    ]
}

#[test]
fn current_encoder_emits_the_bumped_version() {
    let unchanged = v1_fixtures().into_iter().map(|(_, msg)| msg);
    for msg in unchanged.chain(v6_samples()) {
        let frame = encode_frame(&msg);
        assert_eq!(frame[4], WIRE_VERSION);
        assert_eq!(decode_frame(&frame).unwrap(), msg, "self-roundtrip");
    }
}

#[test]
fn downgraded_v3_frames_match_the_v1_fixtures_byte_for_byte() {
    // What v3 changed is the header and nothing else, v4 and v5 only
    // retired tags, and v6 only the big-integer blocks: an untraced current
    // `PlainPush`, `Join` or `Leave` frame is the captured frame with the
    // version bumped and one cleared trace-flag byte after the tag. The
    // bodies — and with them every byte count the benches record — are the
    // captured bytes exactly.
    for (hex, msg) in v1_fixtures() {
        let old = unhex(hex);
        let v3 = encode_frame(&msg);
        assert_eq!(v3[..4], (old.len() as u32 - 4 + 1).to_le_bytes());
        assert_eq!(v3[4..7], [WIRE_VERSION, old[5], 0]);
        assert_eq!(v3[7..], old[6..], "layout drifted for {msg:?}");
    }
}

#[test]
fn traced_v3_frames_roundtrip_their_context() {
    let ctx = TraceContext {
        trace_id: 0x5EED_0000_0000_0001,
        span_id: (5 << 32) | 9,
        parent_id: (5 << 32) | 1,
    };
    let unchanged = v1_fixtures().into_iter().map(|(_, msg)| msg);
    for msg in unchanged.chain(v6_samples()) {
        let frame = encode_frame_traced(&msg, ctx);
        assert_eq!(frame[4], WIRE_VERSION);
        assert_eq!(frame[6], 1, "trace flag set");
        let (back, back_ctx) = decode_frame_traced(&frame).unwrap();
        assert_eq!(back, msg, "{msg:?}");
        assert_eq!(back_ctx, ctx, "{msg:?}");
    }
}

#[test]
fn corrupt_trace_context_bytes_are_rejected() {
    let ctx = TraceContext {
        trace_id: 7,
        span_id: 8,
        parent_id: 0,
    };
    let good = encode_frame_traced(&sample_packed(), ctx);

    // Flag byte outside {0, 1}.
    let mut bad_flag = good.clone();
    bad_flag[6] = 0xFE;
    assert_eq!(
        decode_frame(&bad_flag),
        Err(WireError::BadValue("trace flag must be 0 or 1"))
    );

    // A flagged context with span id 0: encoders emit flag 0 instead.
    let mut zero_span = good.clone();
    zero_span[15..23].copy_from_slice(&0u64.to_le_bytes());
    assert_eq!(
        decode_frame(&zero_span),
        Err(WireError::BadValue("flagged trace context is empty"))
    );

    // A declared length ending inside the 24-byte context block.
    let mut short = good.clone();
    short.truncate(20);
    let len = (short.len() - 4) as u32;
    short[..4].copy_from_slice(&len.to_le_bytes());
    assert_eq!(decode_frame(&short), Err(WireError::Truncated));
}

fn sample_packed() -> Message {
    Message::PackedPush {
        iteration: 6,
        denom_exp: 11,
        weight: 0.25,
        buckets: 24,
        slots: vec![c(0x0123_4567_89AB_CDEF), c(42)],
    }
}

#[test]
fn packed_frames_roundtrip_on_the_current_version_only() {
    let frame = encode_frame(&sample_packed());
    assert_eq!(decode_frame(&frame).unwrap(), sample_packed());
    // The version is checked before the tag: the same bytes stamped with
    // an older version are a foreign frame, whatever they claim to carry.
    for version in [1, 2, 3, 4, 5] {
        let mut old = frame.clone();
        old[4] = version;
        assert_eq!(decode_frame(&old), Err(WireError::BadVersion(version)));
    }
}

#[test]
fn corrupt_packed_frames_are_rejected() {
    let frame = encode_frame(&sample_packed());

    // Truncation at every length.
    for cut in 0..frame.len() {
        assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
    }

    // Trailing garbage inside a consistent length prefix.
    let mut padded = frame.clone();
    let len = u32::from_le_bytes(padded[..4].try_into().unwrap()) + 1;
    padded[..4].copy_from_slice(&len.to_le_bytes());
    padded.push(0);
    assert_eq!(decode_frame(&padded), Err(WireError::TrailingBytes(1)));

    // A hostile ciphertext count (flag 0: no trace context).
    let mut body = vec![WIRE_VERSION, 7, 0];
    body.extend_from_slice(&6u64.to_le_bytes()); // iteration
    body.extend_from_slice(&11u32.to_le_bytes()); // denom_exp
    body.extend_from_slice(&0.25f64.to_bits().to_le_bytes()); // weight
    body.extend_from_slice(&24u32.to_le_bytes()); // buckets
    body.extend_from_slice(&(1u32 << 30).to_le_bytes()); // absurd slot count
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&(body.len() as u32).to_le_bytes());
    hostile.extend_from_slice(&body);
    assert_eq!(
        decode_frame(&hostile),
        Err(WireError::BadValue("element count exceeds the cap"))
    );

    // Any single flipped byte either fails or decodes to something else.
    for pos in 0..frame.len() {
        let mut flipped = frame.clone();
        flipped[pos] ^= 0xFF;
        if let Ok(decoded) = decode_frame(&flipped) {
            assert_ne!(decoded, sample_packed(), "flip at {pos} went unnoticed");
        }
    }
}

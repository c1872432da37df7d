//! Integration tests for the TCP socket transport: stream reassembly under
//! arbitrary kernel read fragmentation, and bytes-on-wire accounting
//! against the encoded frames themselves.

use cs_bigint::BigUint;
use cs_crypto::Ciphertext;
use cs_net::tcp::{encode_record, FrameReassembler, TcpTransport, MAX_RECORD_LEN};
use cs_net::transport::TrafficSnapshot;
use cs_net::wire::FrameClass;
use cs_net::wire::{decode_frame, encode_frame, Message, WireError};
use cs_net::LinkConfig;
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

/// A message whose frame size varies with the sampled raw bytes, covering
/// every traffic class.
fn build_message(variant: u8, iteration: u64, raw_slots: &[Vec<u8>], floats: &[f64]) -> Message {
    let cipher = |bytes: &Vec<u8>| Ciphertext::from_biguint(BigUint::from_bytes_le(bytes));
    match variant % 4 {
        0 => Message::PackedPush {
            iteration,
            denom_exp: 3,
            weight: 0.25,
            buckets: 24,
            slots: raw_slots.iter().map(cipher).collect(),
        },
        1 => Message::PlainPush {
            iteration,
            weight: 0.5,
            slots: floats.to_vec(),
        },
        2 => Message::DecryptShare {
            iteration,
            member: 1,
            width: 24,
            partials: raw_slots
                .iter()
                .map(|b| BigUint::from_bytes_le(b))
                .collect(),
        },
        _ => Message::Leave { node: iteration },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The length-prefix reader's core guarantee: a stream of records split
    /// at *arbitrary* byte boundaries across successive reads reassembles
    /// into exactly the records that went in, and every carried frame
    /// decodes identically to its whole-frame decode.
    #[test]
    fn records_split_at_arbitrary_boundaries_decode_identically(
        specs in vec((0u8..4, any::<u64>(), vec(vec(any::<u8>(), 0..24), 0..5), vec(-1e9f64..1e9, 0..8)), 1..6),
        cuts in vec(1usize..64, 0..24),
    ) {
        // Build the ground truth and the concatenated byte stream.
        let mut messages = Vec::new();
        let mut stream = Vec::new();
        for (i, (variant, iteration, raw_slots, floats)) in specs.iter().enumerate() {
            let msg = build_message(*variant, *iteration, raw_slots, floats);
            let frame = encode_frame(&msg);
            stream.extend_from_slice(&encode_record(i, i + 1, &frame));
            messages.push(msg);
        }

        // Split the stream at the sampled boundaries (cuts wrap around the
        // remaining length, so every fragmentation pattern is reachable,
        // including 1-byte reads and reads spanning several records).
        let mut reassembler = FrameReassembler::new();
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        let mut cut_idx = 0usize;
        while pos < stream.len() {
            let remaining = stream.len() - pos;
            let take = if cut_idx < cuts.len() {
                cuts[cut_idx].min(remaining)
            } else {
                remaining
            };
            cut_idx += 1;
            reassembler.push(&stream[pos..pos + take]);
            pos += take;
            while let Some(rec) = reassembler.next_record().unwrap() {
                decoded.push((rec.from, rec.to, decode_frame(&rec.frame).unwrap()));
            }
        }

        prop_assert_eq!(decoded.len(), messages.len());
        for (i, (from, to, msg)) in decoded.iter().enumerate() {
            prop_assert_eq!(*from, i);
            prop_assert_eq!(*to, i + 1);
            prop_assert_eq!(msg, &messages[i]);
        }
        prop_assert_eq!(reassembler.pending(), 0, "no leftover bytes");
    }

    /// A hostile 12-byte record header — fully attacker-controlled before
    /// any payload byte arrives — can never make the reassembler demand
    /// memory past [`MAX_RECORD_LEN`]: an oversized declaration is rejected
    /// with the typed error from the header alone, and anything within the
    /// cap either waits for its bytes or yields exactly the declared frame.
    #[test]
    fn random_record_headers_never_oversize_the_reassembler(
        from in any::<u32>(),
        to in any::<u32>(),
        body_len in any::<u32>(),
        junk in vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&from.to_le_bytes());
        bytes.extend_from_slice(&to.to_le_bytes());
        bytes.extend_from_slice(&body_len.to_le_bytes());
        bytes.extend_from_slice(&junk);
        let total = bytes.len();
        let mut reassembler = FrameReassembler::new();
        reassembler.push(&bytes);
        let declared = 12usize + body_len as usize;
        match reassembler.next_record() {
            Err(e) => {
                prop_assert!(declared > MAX_RECORD_LEN, "in-cap headers never error");
                prop_assert!(
                    matches!(e, WireError::RecordTooLarge(n) if n == declared),
                    "oversize must be the typed rejection"
                );
            }
            Ok(None) => {
                prop_assert!(declared <= MAX_RECORD_LEN);
                prop_assert!(total < declared, "a complete in-cap record must be released");
            }
            Ok(Some(rec)) => {
                prop_assert!(declared <= MAX_RECORD_LEN);
                prop_assert_eq!(rec.from, from as usize);
                prop_assert_eq!(rec.to, to as usize);
                prop_assert_eq!(rec.frame.len(), 4 + body_len as usize);
            }
        }
        // Buffered bytes stay bounded by what was actually pushed — the
        // declared length never drives an allocation.
        prop_assert!(reassembler.pending() <= total);
    }
}

/// The per-class accounting lock: for a message sequence on a lossless
/// link, `TcpTransport::send` must report exactly one message per frame in
/// the frame's class and `Σ encode_frame(msg).len()` bytes — the wire
/// frame's length, never the TCP record framing. The sharded executor is
/// held to the same sum without serializing
/// (`cross_shard_sends_are_accounted_like_encoded_frames`).
#[test]
fn tcp_send_accounting_matches_the_encoded_frames() {
    let n = 4;
    let tcp = TcpTransport::loopback(n, LinkConfig::ideal(), 9, None).unwrap();

    let messages = vec![
        (
            0,
            1,
            Message::PlainPush {
                iteration: 1,
                weight: 0.5,
                slots: vec![1.0, 2.0, 3.0],
            },
        ),
        (
            1,
            2,
            Message::PackedPush {
                iteration: 1,
                denom_exp: 2,
                weight: 0.25,
                buckets: 24,
                slots: vec![Ciphertext::from_biguint(BigUint::from(123456789u64))],
            },
        ),
        (
            2,
            3,
            Message::DecryptRequest {
                iteration: 1,
                width: 64,
                slots: vec![Ciphertext::from_biguint(BigUint::from(42u64))],
            },
        ),
        (
            3,
            0,
            Message::DecryptShare {
                iteration: 1,
                member: 1,
                width: 64,
                partials: vec![BigUint::from(7u64)],
            },
        ),
        (
            1,
            3,
            Message::Join {
                node: 1,
                iteration: 1,
            },
        ),
        (2, 0, Message::Leave { node: 2 }),
    ];

    // Straight from the encoder.
    let mut want = TrafficSnapshot::default();
    for (from, to, msg) in &messages {
        let frame = encode_frame(msg);
        let class = msg.class();
        let counts = match class {
            FrameClass::Gossip => &mut want.gossip,
            FrameClass::Decrypt => &mut want.decrypt,
            FrameClass::Control => &mut want.control,
        };
        counts.messages += 1;
        counts.bytes += frame.len() as u64;
        let len = frame.len();
        let sent = tcp.send(*from, *to, frame, class).unwrap();
        assert_eq!(sent, len, "send reports the frame's bytes-on-wire");
        assert_eq!(sent, msg.encoded_len(), "which is encoded_len");
    }

    // Drain so the comparison happens after real delivery — the counters
    // are send-side, but this proves the frames actually flew.
    let mut delivered = 0;
    for (_, to, _) in &messages {
        if tcp.recv_timeout(*to, Duration::from_secs(5)).is_some() {
            delivered += 1;
        }
    }
    assert_eq!(delivered, messages.len());

    assert_eq!(tcp.snapshot(), want, "per-class counters diverge");
    assert_eq!(want.messages(), messages.len() as u64);
}

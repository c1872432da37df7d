//! The decryption round at the `ProtocolNode` level, driven by hand: who
//! the leader — the lowest-id live committee member — asks, when it widens
//! to the members it held back, and that the estimate it combines does not
//! depend on which `threshold` members answered or in which order; that
//! every other node asks for a release instead and adopts it bit for bit,
//! a member from the leader, which it relays; when a member stops waiting
//! on the leader and leads itself. The timer-driven half of the hedge is
//! tested on the virtual-time executor (`executor::tests`), where a retry
//! interval is an exact number. Also here, because it needs the same bare
//! nodes: what a node refuses — a decryption request of the wrong width, a
//! hostile or unsolicited release, a push in another dialect than its own —
//! and the leader rule's load on executor steps.

use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{CryptoContext, PerturbedAggregates, StepCipher};
use cs_crypto::ThresholdParams;
use cs_net::driver::{Armed, NodeDriver, Timer, Timing};
use cs_net::node::{NodeCrypto, NodeParams, Outbound, ProtocolNode};
use cs_net::transport::NodeId;
use cs_net::wire::{Message, TraceContext};
use cs_net::{run_step_sharded, ChurnSchedule, ShardedConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// 16 slots: under the fixtures' envelope, 4 ciphertexts of 4 lanes — a
/// width off the fold grid exists (3), and a fresh snapshot folds in two.
const LAYOUT: SlotLayout = SlotLayout {
    k: 2,
    series_len: 7,
};
const ITERATION: u64 = 7;

/// A run's configuration with the dealer's output for it.
type Fixture = (ChiaroscuroConfig, CryptoContext);

/// One dealer run per committee shape, shared by every case.
fn context(params: ThresholdParams) -> &'static Fixture {
    type Fixtures = BTreeMap<(usize, usize), &'static Fixture>;
    static FIXTURES: Mutex<Fixtures> = Mutex::new(BTreeMap::new());
    let mut fixtures = FIXTURES.lock().unwrap_or_else(|e| e.into_inner());
    let shape = (params.threshold, params.parties);
    fixtures.entry(shape).or_insert_with(|| {
        let config = ChiaroscuroConfig {
            threshold: params,
            rerandomize: false,
            // Noise far below the value bound: 26-bit lane values.
            epsilon: 1e5,
            ..ChiaroscuroConfig::test_real()
        };
        let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(5)).unwrap();
        Box::leak(Box::new((config, crypto)))
    })
}

/// What a node gossips: cleartext slots, or ciphertexts of lane vectors.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Dialect {
    Plain,
    Encrypted,
}

/// A node with a push quota of `pushes`. The committee is nodes
/// `0..parties`; the population has two more.
fn build(
    ctx: &Fixture,
    dialect: Dialect,
    id: NodeId,
    pushes: usize,
    contribution: &[f64],
    seed: u64,
) -> ProtocolNode {
    let CryptoContext::Real { tkp, plans, .. } = &ctx.1 else {
        unreachable!("fixtures are real-crypto contexts");
    };
    let parties = tkp.params().parties;
    let population = parties + 2;
    let params = NodeParams {
        id,
        population,
        iteration: ITERATION,
        pushes,
        committee: (0..parties).collect(),
        seed,
        corrupt_partials: false,
    };
    let crypto = if dialect == Dialect::Plain {
        NodeCrypto::Plain
    } else {
        let share = (id < parties).then(|| tkp.shares()[id].clone());
        NodeCrypto::real(&cipher(ctx), share, tkp.params(), plans)
    };
    ProtocolNode::new(params, LAYOUT, crypto, Some(contribution))
}

/// The step's ciphertext layout.
fn cipher(ctx: &Fixture) -> StepCipher {
    let (config, crypto) = ctx;
    let CryptoContext::Real { tkp, .. } = crypto else {
        unreachable!("fixtures are real-crypto contexts");
    };
    let population = tkp.params().parties + 2;
    let cipher = crypto.step_cipher(config, &LAYOUT, population).unwrap();
    cipher.expect("a real-crypto context plans a cipher")
}

/// An encrypting node that skips gossip (`pushes: 0`): its first tick
/// snapshots its own contribution and starts the decryption round.
fn node(ctx: &Fixture, id: NodeId, contribution: &[f64], seed: u64) -> ProtocolNode {
    build(ctx, Dialect::Encrypted, id, 0, contribution, seed)
}

/// Destinations of the `DecryptRequest`s in `out`, in emission order.
fn requested(out: &[Outbound]) -> Vec<NodeId> {
    out.iter()
        .filter(|(_, msg, _)| matches!(msg, Message::DecryptRequest { .. }))
        .map(|(to, _, _)| *to)
        .collect()
}

/// Destinations of the `ReleaseRequest`s in `out`, in emission order.
fn release_requested(out: &[Outbound]) -> Vec<NodeId> {
    out.iter()
        .filter(|(_, msg, _)| matches!(msg, Message::ReleaseRequest { .. }))
        .map(|(to, _, _)| *to)
        .collect()
}

/// The share vector member `m` serves to `request` from `requester`.
fn share_of(ctx: &Fixture, m: NodeId, requester: NodeId, request: &Message) -> Message {
    let mut reply = Vec::new();
    let values = contribution(&[0.5]);
    node(ctx, m, &values, 90 + m as u64).handle(
        requester,
        request.clone(),
        TraceContext::NONE,
        &mut reply,
    );
    reply.pop().expect("a member serves the request").1
}

fn contribution(values: &[f64]) -> Vec<f64> {
    (0..LAYOUT.total())
        .map(|i| values[i % values.len()])
        .collect()
}

/// Every ordered selection of `len` distinct items.
fn ordered_selections(items: &[NodeId], len: usize) -> Vec<Vec<NodeId>> {
    if len == 0 {
        return vec![Vec::new()];
    }
    let mut all = Vec::new();
    for &first in items {
        let rest: Vec<NodeId> = items.iter().copied().filter(|&m| m != first).collect();
        for mut tail in ordered_selections(&rest, len - 1) {
            tail.insert(0, first);
            all.push(tail);
        }
    }
    all
}

fn bits(est: &PerturbedAggregates) -> Vec<u64> {
    let values = est.sums.iter().flatten().chain(&est.counts);
    values.map(|v| v.to_bits()).collect()
}

/// Member 0 of a 3-of-5 committee holds a share of its own, so it asks
/// two of the other four members: the rotation by its id starts at member
/// 1, so it asks 1 and 2 and holds 3 and 4 back.
#[test]
fn decrypt_round_widens_on_leave_of_an_asked_member_without_the_timer() {
    let ctx = context(ThresholdParams {
        threshold: 3,
        parties: 5,
    });
    let values = contribution(&[1.5, -2.0, 0.25]);
    let mut requester = node(ctx, 0, &values, 11);
    let mut out = Vec::new();
    requester.tick(&mut out);
    assert!(requester.awaiting_shares());
    assert_eq!(
        requested(&out),
        [1, 2],
        "exactly `threshold` less its own share are asked"
    );
    let request = out[0].1.clone();
    requester.decrypt_own_share(&mut out);

    // Departures that cost the round nothing ask nobody: a non-member, and
    // a member held back.
    for bystander in [5u64, 4] {
        out.clear();
        requester.handle(
            bystander as NodeId,
            Message::Leave { node: bystander },
            TraceContext::NONE,
            &mut out,
        );
        assert!(requested(&out).is_empty(), "node {bystander} leaving");
    }
    out.clear();
    requester.handle(
        4,
        Message::Join {
            node: 4,
            iteration: ITERATION,
        },
        TraceContext::NONE,
        &mut out,
    );

    // Member 2 was asked and has not answered: its departure sends the
    // request to member 3 at once.
    out.clear();
    requester.handle(2, Message::Leave { node: 2 }, TraceContext::NONE, &mut out);
    assert_eq!(
        requested(&out),
        [3],
        "the next held-back member is asked now"
    );
    assert_eq!(out[0].1, request, "with the same request");

    // Member 1 answers; its later departure needs no replacement, and the
    // retry timer re-asks only the live members still owing a reply.
    let share = share_of(ctx, 1, 0, &request);
    out.clear();
    requester.handle(1, share, TraceContext::NONE, &mut out);
    requester.handle(1, Message::Leave { node: 1 }, TraceContext::NONE, &mut out);
    assert!(requested(&out).is_empty());
    requester.retry_decrypt(&mut out);
    assert_eq!(requested(&out), [3, 4]);

    let share = share_of(ctx, 3, 0, &request);
    requester.handle(3, share, TraceContext::NONE, &mut out);
    assert!(requester.step_done());
    let report = requester.into_report();
    assert!(report.estimate.is_some());
    assert_eq!(report.decrypt_audit.undersized_combines, 0);
}

/// The leader's first retry reaches every live member that has not
/// answered — the one asked and the one held back.
#[test]
fn decrypt_round_retry_reaches_the_members_held_back() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.5]);
    // The leader, member 0, holds a share of its own: it asks one other
    // member.
    let mut requester = node(ctx, 0, &values, 21);
    let mut out = Vec::new();
    requester.tick(&mut out);
    assert_eq!(requested(&out), [1], "own share + one reply = threshold");
    out.clear();
    requester.retry_decrypt(&mut out);
    assert_eq!(requested(&out), [1, 2]);
}

/// The leader sends first and decrypts second. Driven through its
/// `NodeDriver`, the tick that opens a 2-of-3 leader's round asks exactly
/// `t − 1` members and computes no partial decryption: its own partials are
/// the share timer, due at that very instant, which `poll` leaves to the
/// host. Firing it books one partial per ciphertext of the folded request
/// and asks nobody more; the member's reply then completes the round.
#[test]
fn decrypt_round_leader_asks_before_it_decrypts() {
    let params = ThresholdParams {
        threshold: 2,
        parties: 3,
    };
    let ctx = context(params);
    let values = contribution(&[0.5, -1.25]);
    let timing = Timing {
        push_interval: Duration::from_millis(1),
        decrypt_deadline: Duration::from_secs(1),
        step_timeout: Duration::from_secs(60),
    };
    let opened = 5_000_000;
    let open = |out: &mut Vec<Outbound>| {
        let mut leader = NodeDriver::new(node(ctx, 0, &values, 111), &timing, true, Vec::new());
        assert!(leader.fire(Timer::Tick, opened, out));
        leader
    };

    let mut out = Vec::new();
    let mut leader = open(&mut out);
    assert!(leader.node().awaiting_shares());
    assert_eq!(requested(&out), [1], "t − 1 members are asked");
    assert_eq!(out.len(), params.threshold - 1, "and nothing else is sent");
    let request = out[0].1.clone();
    let Message::DecryptRequest { slots, .. } = &request else {
        panic!("the round opens with a request");
    };
    let width = slots.len() as u64;
    assert_eq!(leader.armed().at(Timer::Share), Some(opened));
    // The wall-clock pump's `poll` leaves the share to be fired after the
    // turn's flush.
    out.clear();
    leader.poll(opened, &mut out);
    assert!(out.is_empty(), "{out:?}");
    assert_eq!(leader.armed().at(Timer::Share), Some(opened));
    assert_eq!(
        open(&mut Vec::new())
            .finish()
            .decrypt_ops
            .partial_decryptions,
        0,
        "nothing decrypted when the request goes out"
    );

    assert!(leader.fire(Timer::Share, opened, &mut out));
    assert!(out.is_empty(), "no further request: {out:?}");
    assert_eq!(leader.armed().at(Timer::Share), None);
    assert!(leader.node().awaiting_shares());
    assert!(!leader.fire(Timer::Share, opened, &mut out), "fired once");

    let share = share_of(ctx, 1, 0, &request);
    leader.deliver(1, share, TraceContext::NONE, opened + 1, &mut out);
    assert!(leader.node().step_done());
    assert_eq!(leader.armed(), Armed::default());
    let report = leader.finish();
    assert!(report.estimate.is_some());
    assert_eq!(report.decrypt_ops.partial_decryptions, width);
    assert_eq!(report.decrypt_ops.combinations, width);
}

/// A member that is not the leader decrypts nothing of its own: it asks
/// the leader alone for its release. Its first retry only re-asks the
/// leader — one lost frame must not start a second decryption — and its
/// second leads: it snapshots, and asks `threshold − 1` members for
/// partials, the quiet leader last. Whichever answer comes first then
/// completes its round: the share it asked for, or the late release of the
/// leader it followed.
#[test]
fn decrypt_round_member_leads_itself_on_the_second_retry_only() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.5, 2.0]);
    let led = |out: &mut Vec<Outbound>| {
        let mut follower = node(ctx, 1, &values, 22);
        follower.tick(out);
        assert!(follower.awaiting_shares());
        assert_eq!(release_requested(out), [0], "the leader is member 0");
        assert_eq!(out.len(), 1);
        out.clear();
        follower.retry_decrypt(out);
        assert_eq!(release_requested(out), [0], "the first retry re-asks");
        assert!(requested(out).is_empty());
        out.clear();
        follower.retry_decrypt(out);
        assert!(release_requested(out).is_empty());
        assert_eq!(requested(out), [2], "the second leads, the leader last");
        follower.decrypt_own_share(out);
        follower
    };
    let mut out = Vec::new();
    let mut follower = led(&mut out);
    let request = out[0].1.clone();
    follower.handle(
        2,
        share_of(ctx, 2, 1, &request),
        TraceContext::NONE,
        &mut out,
    );
    assert!(follower.step_done());
    let report = follower.into_report();
    assert!(report.estimate.is_some());
    assert!(report.decrypt_ops.combinations > 0, "it led and combined");

    // The leader's release, late.
    let mut leader = node(ctx, 0, &values, 23);
    out.clear();
    leader.tick(&mut out);
    leader.decrypt_own_share(&mut out);
    let share = share_of(ctx, 1, 0, &out[0].1);
    out.clear();
    leader.handle(1, share, TraceContext::NONE, &mut out);
    let ask = Message::ReleaseRequest {
        iteration: ITERATION,
    };
    leader.handle(1, ask, TraceContext::NONE, &mut out);
    let [(1, release, _)] = &out[..] else {
        panic!("the leader releases to member 1, got {out:?}");
    };
    let mut follower = led(&mut Vec::new());
    follower.handle(0, release.clone(), TraceContext::NONE, &mut Vec::new());
    assert!(follower.step_done());
    let report = follower.into_report();
    assert_eq!(report.bad_frames, 0);
    assert_eq!(report.decrypt_ops.combinations, 0, "the release came first");
    assert_eq!(
        bits(report.estimate.as_ref().unwrap()),
        bits(leader.into_report().estimate.as_ref().unwrap())
    );
}

/// A `Leave` for the leader makes a member that follows it ask the next
/// leader in its view at once — or lead, if that is itself.
#[test]
fn decrypt_round_leave_of_the_leader_moves_the_lead() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.5]);
    let mut out = Vec::new();
    let mut second = node(ctx, 2, &values, 24);
    second.tick(&mut out);
    assert_eq!(release_requested(&out), [0]);
    out.clear();
    second.handle(0, Message::Leave { node: 0 }, TraceContext::NONE, &mut out);
    assert_eq!(release_requested(&out), [1], "member 1 leads now");
    assert!(requested(&out).is_empty());

    let mut next = node(ctx, 1, &values, 25);
    out.clear();
    next.tick(&mut out);
    assert_eq!(release_requested(&out), [0]);
    out.clear();
    next.handle(0, Message::Leave { node: 0 }, TraceContext::NONE, &mut out);
    assert_eq!(requested(&out), [2], "member 1 leads itself");
    // A Leave of a member that is not the leader changes nothing.
    let mut third = node(ctx, 2, &values, 26);
    out.clear();
    third.tick(&mut out);
    out.clear();
    third.handle(1, Message::Leave { node: 1 }, TraceContext::NONE, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

/// A snapshot folds to `⌈ciphertexts / g⌉` for the `g` its push-sum state
/// allows: `width` is on that grid when some `g ≥ 1` produces it. The
/// member cannot know which `g` is the requester's, so it serves any width
/// on the grid, the unfolded one included.
fn on_the_fold_grid(ciphertexts: usize, width: usize) -> bool {
    (1..=ciphertexts).any(|g| ciphertexts.div_ceil(g) == width)
}

/// A member computes partial decryptions — the step's most expensive
/// operation — only for a request as wide as a snapshot of the step's layout
/// can be, at the key's byte width: an empty request, one off the fold
/// grid, one wider than the step's ciphertexts and one whose ciphertexts
/// travel at another byte width cost nothing and leave nothing behind.
#[test]
fn decrypt_round_refuses_a_request_of_the_wrong_width() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.5]);
    let mut out = Vec::new();
    // The leader, member 0, asks member 1; member 2 is handed its request
    // too.
    node(ctx, 0, &values, 31).tick(&mut out);
    assert_eq!(requested(&out), [1]);
    let request = out[0].1.clone();
    let Message::DecryptRequest {
        iteration,
        width: key_width,
        slots,
    } = &request
    else {
        panic!("the round opens with a request");
    };
    let resized = |width: usize| Message::DecryptRequest {
        iteration: *iteration,
        width: *key_width,
        slots: slots.iter().cycle().take(width).cloned().collect(),
    };
    let widened = Message::DecryptRequest {
        iteration: *iteration,
        width: key_width + 1,
        slots: slots.clone(),
    };
    let full = cipher(ctx).ciphertexts();
    let off_grid = (1..full)
        .find(|&w| !on_the_fold_grid(full, w))
        .expect("the fixture's layout has a width no fold produces");

    let mut member = node(ctx, 2, &values, 32);
    let mut reply = Vec::new();
    for bad in [resized(0), resized(off_grid), resized(2 * full), widened] {
        member.handle(0, bad, TraceContext::NONE, &mut reply);
        assert!(reply.is_empty(), "a malformed request gets no reply");
    }
    // Nothing was cached for the requester: its honest request is served
    // from scratch.
    member.handle(0, request.clone(), TraceContext::NONE, &mut reply);
    let [(0, Message::DecryptShare { partials, .. }, _)] = &reply[..] else {
        panic!("one share vector back to the requester, got {reply:?}");
    };
    assert_eq!(partials.len(), slots.len());
    let report = member.into_report();
    assert_eq!(report.bad_frames, 4);
    assert_eq!(
        report.decrypt_ops.partial_decryptions,
        slots.len() as u64,
        "only the honest request was worked on"
    );
}

/// The grid itself: a member serves exactly the widths a fold can produce,
/// and a fresh contribution's snapshot folds.
#[test]
fn decrypt_round_refuses_a_packed_request_off_the_fold_grid() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let cipher = cipher(ctx);
    let full = cipher.ciphertexts();
    for width in 0..=2 * full {
        assert_eq!(
            cipher.serves_width(width),
            width >= 1 && on_the_fold_grid(full, width),
            "{width}"
        );
    }
    assert!(
        cipher.width(0, 1.0) < full,
        "a fresh contribution's snapshot folds"
    );
}

/// A share vector of any width but the requester's own folded one — the
/// unfolded width included — is one bad frame each, counted, and costs the
/// round nothing: the honest shares still complete it.
#[test]
fn decrypt_round_share_of_another_width_is_one_counted_bad_frame() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.75, -1.5]);
    // The leader, member 0, holds its own share and asks member 1 for the
    // other.
    let mut requester = node(ctx, 0, &values, 51);
    let mut out = Vec::new();
    requester.tick(&mut out);
    assert_eq!(requested(&out), [1]);
    let request = out[0].1.clone();
    requester.decrypt_own_share(&mut out);
    let share = share_of(ctx, 1, 0, &request);
    let Message::DecryptShare {
        iteration,
        member,
        width: key_width,
        partials,
    } = &share
    else {
        panic!("a member answers with a share vector");
    };
    let full = cipher(ctx).ciphertexts();
    assert!(partials.len() < full, "the request was folded");
    for width in [0, partials.len() - 1, full] {
        let resized = Message::DecryptShare {
            iteration: *iteration,
            member: *member,
            width: *key_width,
            partials: partials.iter().cycle().take(width).cloned().collect(),
        };
        requester.handle(1, resized, TraceContext::NONE, &mut out);
        assert!(requester.awaiting_shares());
    }
    requester.handle(1, share.clone(), TraceContext::NONE, &mut out);
    assert!(requester.step_done());
    let report = requester.into_report();
    assert_eq!(report.bad_frames, 3);
    assert!(report.estimate.is_some());
    assert_eq!(report.decrypt_ops.combinations, partials.len() as u64);
}

/// A share must come from its sender: a reply names the share index the
/// committee gives the member that sends it (node `j` holds share `j + 1`)
/// and travels at the key's width. A reply from member 1 under member 2's
/// index, and one of member 1's at another width, are one counted bad frame
/// each; the honest replies still complete the round, to the same bits.
#[test]
fn decrypt_round_forged_reply_is_one_counted_bad_frame() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.25, 3.0, -1.0]);
    // The leader, member 0, holds its own share and asks member 1 for the
    // other.
    let start = |out: &mut Vec<Outbound>| {
        let mut requester = node(ctx, 0, &values, 71);
        requester.tick(out);
        requester.decrypt_own_share(out);
        requester
    };
    let mut out = Vec::new();
    let mut requester = start(&mut out);
    assert_eq!(requested(&out), [1]);
    let request = out[0].1.clone();
    let share = share_of(ctx, 1, 0, &request);
    let Message::DecryptShare {
        iteration,
        member,
        width,
        partials,
    } = &share
    else {
        panic!("a member answers with a share vector");
    };
    assert_eq!(*member, 2, "node 1 holds share 2");
    let forgeries = [(member + 1, *width), (*member, width + 1)];
    for (member, width) in forgeries {
        let forged = Message::DecryptShare {
            iteration: *iteration,
            member,
            width,
            partials: partials.clone(),
        };
        requester.handle(1, forged, TraceContext::NONE, &mut out);
        assert!(
            requester.awaiting_shares(),
            "member {member}, width {width}"
        );
    }
    let mut honest = start(&mut Vec::new());
    requester.handle(1, share.clone(), TraceContext::NONE, &mut out);
    honest.handle(1, share.clone(), TraceContext::NONE, &mut out);
    let (report, honest) = (requester.into_report(), honest.into_report());
    assert_eq!(report.bad_frames, 2);
    let estimate = report
        .estimate
        .expect("the honest members complete the round");
    assert_eq!(bits(&estimate), bits(&honest.estimate.unwrap()));
}

/// A non-member takes no snapshot and decrypts nothing: at the end of its
/// quota it sends one `ReleaseRequest` — never a `DecryptRequest` — to the
/// live committee rotated by its id (node 3 asks member `3 % 3 = 0`, node 4
/// member 1). A `Leave` of the asked member sends it to the next one at
/// once; the retry reaches every live member that has not answered.
#[test]
fn decrypt_round_non_member_asks_one_member_for_its_release_and_never_decrypts() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.5, -1.0]);
    for (id, first) in [(3, 0), (4, 1)] {
        let mut out = Vec::new();
        let mut asker = node(ctx, id, &values, 81);
        asker.tick(&mut out);
        assert!(asker.awaiting_shares());
        assert_eq!(release_requested(&out), [first], "node {id}");
        assert_eq!(out.len(), 1, "one small request and nothing else");
        assert_eq!(
            out[0].1,
            Message::ReleaseRequest {
                iteration: ITERATION
            }
        );

        out.clear();
        let leave = Message::Leave { node: first as u64 };
        asker.handle(first, leave, TraceContext::NONE, &mut out);
        let next = (first + 1) % 3;
        assert_eq!(release_requested(&out), [next], "node {id}");
        out.clear();
        asker.retry_decrypt(&mut out);
        let rest: Vec<NodeId> = (0..3)
            .map(|m| (next + m) % 3)
            .filter(|&m| m != first)
            .collect();
        assert_eq!(release_requested(&out), rest, "node {id}");
        assert!(requested(&out).is_empty());
        let report = asker.into_report();
        assert_eq!(report.decrypt_ops, Default::default(), "node {id}");
        assert_eq!(report.ops.pow2_scalings, 0, "no fold: node {id}");
    }
}

/// The leader answers a `ReleaseRequest` with the estimate it decrypted:
/// one that arrives before its round is over waits for it, one after is
/// answered at once. A member that follows it serves the leader's
/// `DecryptRequest`, adopts its release without a fold or a combine, and
/// relays it to the non-members that asked it meanwhile. Every node ends
/// with the leader's bits. A `ReleaseRequest` that reaches a non-member is
/// ignored.
#[test]
fn decrypt_round_member_release_is_adopted_bit_for_bit() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.25, 3.0, -1.0]);
    let mut out = Vec::new();
    let mut leader = node(ctx, 0, &values, 91);
    leader.tick(&mut out);
    assert_eq!(requested(&out), [1]);
    let request = out[0].1.clone();
    leader.decrypt_own_share(&mut out);
    // Member 1 asks the leader; node 3's rotation reaches member 0, node
    // 4's member 1.
    let mut asks = Vec::new();
    let mut askers: Vec<ProtocolNode> = [(1, 0), (3, 0), (4, 1)]
        .into_iter()
        .map(|(id, asked)| {
            let mut asker = node(ctx, id, &values, 92 + id as u64);
            out.clear();
            asker.tick(&mut out);
            assert_eq!(release_requested(&out), [asked], "node {id}");
            assert_eq!(
                out.len(),
                1,
                "node {id} asks for a release and nothing else"
            );
            asks.push(out[0].1.clone());
            asker
        })
        .collect();

    // Before a release is ready the requests wait, on the leader and on
    // the member that follows it.
    out.clear();
    leader.handle(1, asks[0].clone(), TraceContext::NONE, &mut out);
    leader.handle(3, asks[1].clone(), TraceContext::NONE, &mut out);
    askers[0].handle(4, asks[2].clone(), TraceContext::NONE, &mut out);
    assert!(out.is_empty(), "nothing to release yet: {out:?}");
    askers[0].handle(0, request, TraceContext::NONE, &mut out);
    let [(0, share, _)] = &out[..] else {
        panic!("member 1 serves the leader's request, got {out:?}");
    };
    let share = share.clone();
    out.clear();
    leader.handle(1, share, TraceContext::NONE, &mut out);
    assert!(leader.step_done());
    let [(1, release, _), (3, to_three, _)] = &out[..] else {
        panic!("both waiting requests are answered, got {out:?}");
    };
    assert_eq!(release, to_three);
    let release = release.clone();
    let Message::Release {
        iteration,
        member: index,
        values: released,
    } = &release
    else {
        panic!("the leader answers with its release");
    };
    assert_eq!((*iteration, *index), (ITERATION, 1), "node 0 holds share 1");
    assert_eq!(released.len(), LAYOUT.total());
    // A repeated request (the asker's retry) is answered from the release.
    out.clear();
    leader.handle(3, asks[1].clone(), TraceContext::NONE, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1, release);

    out.clear();
    askers[1].handle(0, release.clone(), TraceContext::NONE, &mut out);
    askers[0].handle(0, release, TraceContext::NONE, &mut out);
    let [(4, relayed, _)] = &out[..] else {
        panic!("member 1 relays the release to node 4, got {out:?}");
    };
    let relayed = relayed.clone();
    assert!(
        matches!(relayed, Message::Release { member: 2, .. }),
        "under member 1's share index"
    );
    askers[2].handle(1, relayed, TraceContext::NONE, &mut out);
    let leader = leader.into_report();
    let want = bits(leader.estimate.as_ref().expect("the leader decrypted"));
    for asker in askers {
        let report = asker.into_report();
        let id = report.id;
        let estimate = report.estimate.as_ref().expect("the release is adopted");
        assert_eq!(bits(estimate), want, "node {id}");
        assert_eq!(report.bad_frames, 0, "node {id}");
        let ops = report.decrypt_ops;
        assert_eq!(ops.combinations, 0, "node {id} combines nothing");
        let served = ops.partial_decryptions > 0;
        assert_eq!(served, id == 1, "only member 1 served: node {id}");
        assert_eq!(report.ops.pow2_scalings, 0, "no fold: node {id}");
    }

    // A non-member has nothing to release and says nothing.
    let mut bystander = node(ctx, 3, &values, 93);
    out.clear();
    bystander.handle(4, asks[2].clone(), TraceContext::NONE, &mut out);
    assert!(out.is_empty());
    assert_eq!(bystander.into_report().bad_frames, 0);
}

/// What a node adopts must come from a member it asked, for this step, and
/// fit the layout. A release from outside the committee (also counted as a
/// foreign share), from a member it did not ask, for another iteration, of
/// another length than the layout's or under another member's share index
/// is one counted bad frame each and adopts nothing; the honest release
/// still completes the round. The leader asks nobody for a release, so any
/// release that reaches it is unsolicited; a member that follows it asks
/// the leader alone, so one from another member is.
#[test]
fn decrypt_round_hostile_and_unsolicited_releases_are_counted_bad_frames() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.75]);
    let mut out = Vec::new();
    let mut asker = node(ctx, 3, &values, 101);
    asker.tick(&mut out);
    assert_eq!(release_requested(&out), [0]);
    let total = LAYOUT.total();
    let release = |iteration: u64, member: u64, len: usize| Message::Release {
        iteration,
        member,
        values: vec![0.5; len],
    };
    let hostile = [
        (4, release(ITERATION, 1, total)),
        (1, release(ITERATION, 2, total)),
        (0, release(ITERATION + 1, 1, total)),
        (0, release(ITERATION, 1, total - 1)),
        (0, release(ITERATION, 1, total + 1)),
        (0, release(ITERATION, 2, total)),
    ];
    for (from, msg) in hostile.iter().cloned() {
        asker.handle(from, msg, TraceContext::NONE, &mut out);
        assert!(asker.awaiting_shares(), "adopted a release from {from}");
    }
    asker.handle(
        0,
        release(ITERATION, 1, total),
        TraceContext::NONE,
        &mut out,
    );
    assert!(asker.step_done());
    let report = asker.into_report();
    assert_eq!(report.bad_frames, hostile.len() as u64);
    assert_eq!(report.decrypt_audit.foreign_shares, 1);
    let estimate = report.estimate.expect("the honest release is adopted");
    assert_eq!(estimate.counts, vec![0.5; LAYOUT.k]);

    let mut leader = node(ctx, 0, &values, 102);
    leader.handle(
        1,
        release(ITERATION, 2, total),
        TraceContext::NONE,
        &mut out,
    );
    leader.tick(&mut out);
    leader.handle(
        1,
        release(ITERATION, 2, total),
        TraceContext::NONE,
        &mut out,
    );
    assert!(leader.awaiting_shares());
    assert_eq!(leader.into_report().bad_frames, 2);

    let mut follower = node(ctx, 2, &values, 103);
    follower.tick(&mut out);
    follower.handle(
        1,
        release(ITERATION, 2, total),
        TraceContext::NONE,
        &mut out,
    );
    assert!(follower.awaiting_shares());
    follower.handle(
        0,
        release(ITERATION, 1, total),
        TraceContext::NONE,
        &mut out,
    );
    assert!(follower.step_done());
    assert_eq!(follower.into_report().bad_frames, 1);
}

/// One honest executor step of `n` nodes at seed `seed`, `shards` 4, with
/// scripted churn `events`.
fn executor_step(
    params: ThresholdParams,
    n: usize,
    seed: u64,
    events: &[cs_net::ChurnEvent],
) -> (cs_net::StepRun, u64) {
    executor_step_on(params, n, seed, events, false)
}

/// [`executor_step`], with every node's causal trace when `trace` is set.
fn executor_step_on(
    params: ThresholdParams,
    n: usize,
    seed: u64,
    events: &[cs_net::ChurnEvent],
    trace: bool,
) -> (cs_net::StepRun, u64) {
    let (config, crypto) = context(params);
    let contributions: Vec<_> = (0..n)
        .map(|i| Some(contribution(&[i as f64 * 0.25, -1.0])))
        .collect();
    let sharded = ShardedConfig {
        shards: 4,
        trace,
        ..ShardedConfig::default()
    };
    let run = run_step_sharded(
        config,
        &LAYOUT,
        &contributions,
        crypto,
        seed,
        &sharded,
        events,
    );
    let c = crypto.step_cipher(config, &LAYOUT, n).unwrap().unwrap();
    (run.unwrap(), c.ciphertexts() as u64)
}

const TWO_OF_THREE: ThresholdParams = ThresholdParams {
    threshold: 2,
    parties: 3,
};

/// The leader rule's load on one honest, loss-free executor step: n = 16
/// under a 2-of-3 committee, C ciphertexts a contribution. No node computes
/// more than C partial decryptions — the leader its own snapshot's, one
/// other member the leader's — non-members none, and only the leader
/// combines. The step's metrics carry the worst node:
/// `crypto.partials_max` and `crypto.combines_max`.
#[test]
fn decrypt_round_worst_node_computes_at_most_c_partials() {
    let (run, c) = executor_step(TWO_OF_THREE, 16, 13, &[]);
    assert!(run.outcome.estimates.iter().all(Option::is_some));
    let partials: Vec<u64> = (run.reports.iter())
        .map(|r| r.decrypt_ops.partial_decryptions)
        .collect();
    let (members, others) = partials.split_at(TWO_OF_THREE.parties);
    assert!(
        members.iter().all(|&p| p <= c),
        "members computed {members:?} partials, C = {c}"
    );
    assert!(members[0] > 0, "the leader decrypted");
    assert!(others.iter().all(|&p| p == 0), "{others:?}");
    let combines = (run.reports.iter()).filter(|r| r.decrypt_ops.combinations > 0);
    assert_eq!(combines.map(|r| r.id).collect::<Vec<_>>(), [0]);
    let worst =
        |of: fn(&cs_net::node::NodeReport) -> u64| run.reports.iter().map(of).max().unwrap() as i64;
    let gauge = |name| run.metrics.gauge(name);
    assert_eq!(
        gauge("crypto.partials_max"),
        worst(|r| r.decrypt_ops.partial_decryptions)
    );
    assert_eq!(
        gauge("crypto.combines_max"),
        worst(|r| r.decrypt_ops.combinations)
    );
    assert!(gauge("crypto.partials_max") <= c as i64);
    assert!(gauge("crypto.combines_max") <= c as i64);
}

/// Member 0's release on the step above at the commit before the leader
/// rule, when every member decrypted its own snapshot: the same snapshot,
/// combined exactly, so the leader's bits.
const MEMBER_0_RELEASE: [u64; 16] = {
    let (a, b) = (0x3ffd_c7bb_4671_655e, 0xbff0_0000_0000_0000);
    [a, b, a, b, a, b, a, a, b, a, b, a, b, a, b, b]
};

/// A loss-free n = 16, 2-of-3 executor step decrypts once: the leader
/// combines its folded width `w ≤ C`, the step computes `w·t` partials and
/// `w` combines, and every node ends with the leader's estimate, bit for
/// bit — the one release (`crypto.releases_distinct` = 1), which is what
/// member 0 released before the leader rule.
#[test]
fn decrypt_round_one_leader_one_release_on_a_loss_free_step() {
    let (run, c) = executor_step(TWO_OF_THREE, 16, 13, &[]);
    let ops = &run.outcome.decrypt_ops;
    let w = run.reports[0].decrypt_ops.combinations;
    assert!(0 < w && w <= c);
    assert_eq!(ops.combinations, w);
    assert_eq!(ops.partial_decryptions, w * TWO_OF_THREE.threshold as u64);
    assert_eq!(run.metrics.gauge("crypto.releases_distinct"), 1);
    let leader = bits(run.outcome.estimates[0].as_ref().unwrap());
    for (id, est) in run.outcome.estimates.iter().enumerate() {
        assert_eq!(bits(est.as_ref().unwrap()), leader, "node {id}");
    }
    assert_eq!(leader, MEMBER_0_RELEASE);
}

/// The leader, node 0, dies silently as its gossip ends: nobody learns of
/// it, so members 1 and 2 wait on it, re-ask once, and each leads itself
/// on its second retry. Every live node still ends with an estimate, at
/// most two estimates exist, and the partials stay within the two
/// failover decryptions' `2·C·t`. Had node 0 died a moment later, after
/// opening its round — its `DecryptRequest` sent, its own partials not yet
/// due — member 1's reply to it would come on top: at most `C·t` more.
#[test]
fn decrypt_round_survives_a_silent_crash_of_the_leader() {
    let t = TWO_OF_THREE.threshold as u64;
    let last_tick =
        ShardedConfig::default().push_interval * (context(TWO_OF_THREE).0.gossip_cycles as u32 - 1);
    for (after, extra) in [(last_tick, 0), (last_tick + Duration::from_micros(1), 1)] {
        let events = ChurnSchedule::none().crash(0, after, 0).for_step(0);
        let (run, c) = executor_step_on(TWO_OF_THREE, 16, 13, &events, true);
        assert!(!run.outcome.alive_after[0]);
        for (id, est) in run.outcome.estimates.iter().enumerate().skip(1) {
            assert!(
                est.is_some(),
                "node {id} has no estimate, crash at {after:?}"
            );
        }
        let releases = run.metrics.gauge("crypto.releases_distinct");
        assert!((1..=2).contains(&releases), "{releases} releases");
        let partials = run.outcome.decrypt_ops.partial_decryptions;
        let request = u64::from(
            Message::DecryptRequest {
                iteration: 0,
                width: 0,
                slots: Vec::new(),
            }
            .wire_tag(),
        );
        let opened = run.traces[0].events.iter().any(|e| {
            let kind = e.fields.iter().find(|f| f.key == "kind");
            e.name == "send" && kind.is_some_and(|f| f.value == request)
        });
        assert_eq!(opened, extra == 1, "crash at {after:?}");
        assert!(
            partials <= (2 + extra) * c * t,
            "{partials} partials, C = {c}, crash at {after:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the committee's shape, a loss-free round computes exactly
    /// `C·t` partials — C the leader's folded width — and makes one
    /// release.
    #[test]
    fn decrypt_round_one_release_for_every_committee_shape(
        (parties, threshold) in (2usize..=5).prop_flat_map(|m| (Just(m), 2..=m)),
        seed in 0u64..1_000,
    ) {
        let params = ThresholdParams { threshold, parties };
        let (run, c) = executor_step(params, 8, seed, &[]);
        prop_assert!(run.outcome.estimates.iter().all(Option::is_some));
        let ops = &run.outcome.decrypt_ops;
        let w = run.reports[0].decrypt_ops.combinations;
        prop_assert!(0 < w && w <= c);
        prop_assert_eq!(ops.combinations, w);
        prop_assert_eq!(ops.partial_decryptions, w * threshold as u64);
        prop_assert_eq!(run.metrics.gauge("crypto.releases_distinct"), 1);
    }
}

/// Every (node, push) pairing: a push in the node's own dialect is absorbed,
/// one in the other dialect is one bad frame — counted, not vanished.
#[test]
fn a_push_in_another_dialect_is_one_counted_bad_frame() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[1.0, -0.5]);
    let dialects = [Dialect::Plain, Dialect::Encrypted];
    for sender in dialects {
        let mut out = Vec::new();
        build(ctx, sender, 3, 1, &values, 41).tick(&mut out);
        let push = out.remove(0).1;
        match (sender, &push) {
            (Dialect::Plain, Message::PlainPush { .. })
            | (Dialect::Encrypted, Message::PackedPush { .. }) => {}
            other => panic!("unexpected first message {other:?}"),
        }
        for receiver in dialects {
            let mut node = build(ctx, receiver, 4, 1, &values, 42);
            node.handle(3, push.clone(), TraceContext::NONE, &mut Vec::new());
            let report = node.into_report();
            assert_eq!(
                report.bad_frames,
                u64::from(sender != receiver),
                "{sender:?} push into a {receiver:?} node"
            );
            let absorbed = sender == receiver && sender != Dialect::Plain;
            assert_eq!(report.ops.additions > 0, absorbed);
        }
    }
}

/// A push whose denominator is past the step's cap — no honest node sends
/// one, and the lanes would not hold the aggregate — is one bad frame,
/// counted and not absorbed; one at the cap is absorbed.
#[test]
fn a_push_past_the_denominator_cap_is_one_counted_bad_frame() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let cap = cipher(ctx).denominator_cap();
    let values = contribution(&[1.0, -0.5]);
    let mut out = Vec::new();
    build(ctx, Dialect::Encrypted, 3, 1, &values, 61).tick(&mut out);
    for (denom, bad) in [(cap, 0), (cap + 1, 1)] {
        let mut push = out[0].1.clone();
        let Message::PackedPush { denom_exp, .. } = &mut push else {
            panic!("an encrypting node pushes ciphertexts");
        };
        *denom_exp = denom;
        let mut node = build(ctx, Dialect::Encrypted, 4, 1, &values, 62);
        node.handle(3, push, TraceContext::NONE, &mut Vec::new());
        let report = node.into_report();
        assert_eq!(report.bad_frames, bad, "denominator {denom}, cap {cap}");
        assert_eq!(report.ops.additions > 0, bad == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Threshold combining is exact over any `t`-subset: whichever members
    /// answer, in whatever order, the member that leads decodes the same
    /// bits — the leader, or a member that led itself after two retries.
    /// This is what lets the round ask `t − 1` members chosen by rotation
    /// and accept a hedged reply in place of a lost one without the
    /// estimate noticing.
    #[test]
    fn decrypt_round_estimate_is_identical_for_every_subset_and_arrival_order(
        three_of_five in any::<bool>(),
        requester_id in 0usize..7,
        seed in any::<u64>(),
        values in proptest::collection::vec(-4.0f64..4.0, 1..8),
    ) {
        let params = if three_of_five {
            ThresholdParams { threshold: 3, parties: 5 }
        } else {
            ThresholdParams { threshold: 2, parties: 3 }
        };
        let ctx = context(params);
        // Only a member decrypts: it holds one share and asks for the rest.
        // Member 0 leads; any other leads itself on its second retry.
        let id = requester_id % params.parties;
        let values = contribution(&values);
        let others: Vec<NodeId> = (0..params.parties).filter(|&m| m != id).collect();
        let needed = params.threshold - 1;

        let start = |out: &mut Vec<Outbound>| {
            let mut requester = node(ctx, id, &values, seed);
            requester.tick(out);
            if id != 0 {
                requester.retry_decrypt(out);
                out.clear();
                requester.retry_decrypt(out);
            }
            requester.decrypt_own_share(out);
            requester
        };
        let mut out = Vec::new();
        start(&mut out);
        prop_assert_eq!(requested(&out).len(), needed, "asks what it will combine");
        let request = out[0].1.clone();

        let replies: Vec<(NodeId, Message)> = others
            .iter()
            .map(|&m| {
                let mut reply = Vec::new();
                node(ctx, m, &values, seed ^ m as u64).handle(
                    id,
                    request.clone(),
                    TraceContext::NONE,
                    &mut reply,
                );
                (m, reply.pop().expect("a member serves the request").1)
            })
            .collect();

        let mut reference: Option<Vec<u64>> = None;
        for order in ordered_selections(&others, needed) {
            let mut out = Vec::new();
            let mut requester = start(&mut out);
            for m in &order {
                let (_, share) = replies.iter().find(|(from, _)| from == m).unwrap();
                requester.handle(*m, share.clone(), TraceContext::NONE, &mut out);
            }
            prop_assert!(requester.step_done(), "{:?} completes the round", order);
            let report = requester.into_report();
            prop_assert_eq!(report.decrypt_audit.undersized_combines, 0);
            let got = bits(&report.estimate.expect("a full combine decodes"));
            match &reference {
                None => reference = Some(got),
                Some(want) => prop_assert_eq!(&got, want, "repliers {:?}", order),
            }
        }
    }
}

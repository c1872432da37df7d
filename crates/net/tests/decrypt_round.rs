//! The decryption round at the `ProtocolNode` level, driven by hand: who a
//! committee member asks, when it widens to the members it held back, and
//! that the estimate it combines does not depend on which `threshold`
//! members answered or in which order; that a non-member asks one member
//! for its release instead, and adopts it bit for bit. The timer-driven
//! half of the hedge is tested on the virtual-time executor
//! (`executor::tests`), where a retry interval is an exact number. Also
//! here, because it needs the same bare nodes: what a node refuses — a
//! decryption request of the wrong width, a hostile or unsolicited release,
//! a push in another dialect than its own — and the committee rule's load
//! on one executor step.

use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{CryptoContext, PerturbedAggregates, StepCipher};
use cs_crypto::ThresholdParams;
use cs_net::node::{NodeCrypto, NodeParams, Outbound, ProtocolNode};
use cs_net::transport::NodeId;
use cs_net::wire::{Message, TraceContext};
use cs_net::{run_step_sharded, ShardedConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

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
    static TWO_OF_THREE: OnceLock<Fixture> = OnceLock::new();
    static THREE_OF_FIVE: OnceLock<Fixture> = OnceLock::new();
    let cell = match (params.threshold, params.parties) {
        (2, 3) => &TWO_OF_THREE,
        (3, 5) => &THREE_OF_FIVE,
        other => panic!("no fixture for a {other:?} committee"),
    };
    cell.get_or_init(|| {
        let config = ChiaroscuroConfig {
            threshold: params,
            rerandomize: false,
            // Noise far below the value bound: 26-bit lane values.
            epsilon: 1e5,
            ..ChiaroscuroConfig::test_real()
        };
        let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(5)).unwrap();
        (config, crypto)
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

/// The first retry reaches every live member that has not answered — the
/// ones asked and the one held back.
#[test]
fn decrypt_round_retry_reaches_the_members_held_back() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.5]);
    // Member 1 holds a share of its own: it asks one other member.
    let mut requester = node(ctx, 1, &values, 21);
    let mut out = Vec::new();
    requester.tick(&mut out);
    assert_eq!(requested(&out), [2], "own share + one reply = threshold");
    out.clear();
    requester.retry_decrypt(&mut out);
    assert_eq!(requested(&out), [2, 0]);
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
    // Member 1 asks member 2; member 0 is handed its request too.
    node(ctx, 1, &values, 31).tick(&mut out);
    assert_eq!(requested(&out), [2]);
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

    let mut member = node(ctx, 0, &values, 32);
    let mut reply = Vec::new();
    for bad in [resized(0), resized(off_grid), resized(2 * full), widened] {
        member.handle(1, bad, TraceContext::NONE, &mut reply);
        assert!(reply.is_empty(), "a malformed request gets no reply");
    }
    // Nothing was cached for the requester: its honest request is served
    // from scratch.
    member.handle(1, request.clone(), TraceContext::NONE, &mut reply);
    let [(1, Message::DecryptShare { partials, .. }, _)] = &reply[..] else {
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
    // Member 2 holds its own share and asks member 0 for the other.
    let mut requester = node(ctx, 2, &values, 51);
    let mut out = Vec::new();
    requester.tick(&mut out);
    assert_eq!(requested(&out), [0]);
    let request = out[0].1.clone();
    let shares = [share_of(ctx, 0, 2, &request)];
    let Message::DecryptShare {
        iteration,
        member,
        width: key_width,
        partials,
    } = &shares[0]
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
        requester.handle(0, resized, TraceContext::NONE, &mut out);
        assert!(requester.awaiting_shares());
    }
    for (m, share) in shares.iter().enumerate() {
        requester.handle(m, share.clone(), TraceContext::NONE, &mut out);
    }
    assert!(requester.step_done());
    let report = requester.into_report();
    assert_eq!(report.bad_frames, 3);
    assert!(report.estimate.is_some());
    assert_eq!(report.decrypt_ops.combinations, partials.len() as u64);
}

/// A share must come from its sender: a reply names the share index the
/// committee gives the member that sends it (node `j` holds share `j + 1`)
/// and travels at the key's width. A reply from member 0 under member 1's
/// index, and one of member 0's at another width, are one counted bad frame
/// each; the honest replies still complete the round, to the same bits.
#[test]
fn decrypt_round_forged_reply_is_one_counted_bad_frame() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.25, 3.0, -1.0]);
    // Member 2 holds its own share and asks member 0 for the other.
    let start = |out: &mut Vec<Outbound>| {
        let mut requester = node(ctx, 2, &values, 71);
        requester.tick(out);
        requester
    };
    let mut out = Vec::new();
    let mut requester = start(&mut out);
    assert_eq!(requested(&out), [0]);
    let request = out[0].1.clone();
    let shares = [share_of(ctx, 0, 2, &request)];
    let Message::DecryptShare {
        iteration,
        member,
        width,
        partials,
    } = &shares[0]
    else {
        panic!("a member answers with a share vector");
    };
    assert_eq!(*member, 1, "node 0 holds share 1");
    let forgeries = [(member + 1, *width), (*member, width + 1)];
    for (member, width) in forgeries {
        let forged = Message::DecryptShare {
            iteration: *iteration,
            member,
            width,
            partials: partials.clone(),
        };
        requester.handle(0, forged, TraceContext::NONE, &mut out);
        assert!(
            requester.awaiting_shares(),
            "member {member}, width {width}"
        );
    }
    let mut honest = start(&mut Vec::new());
    for (m, share) in shares.iter().enumerate() {
        requester.handle(m, share.clone(), TraceContext::NONE, &mut out);
        honest.handle(m, share.clone(), TraceContext::NONE, &mut out);
    }
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

/// A member answers a `ReleaseRequest` with the estimate it decrypted: one
/// that arrives before its round is over waits for it, one after is
/// answered at once. The non-member that asked adopts it bit for bit. A
/// `ReleaseRequest` that reaches a non-member is ignored.
#[test]
fn decrypt_round_member_release_is_adopted_bit_for_bit() {
    let ctx = context(ThresholdParams {
        threshold: 2,
        parties: 3,
    });
    let values = contribution(&[0.25, 3.0, -1.0]);
    let mut out = Vec::new();
    let mut member = node(ctx, 1, &values, 91);
    member.tick(&mut out);
    assert_eq!(requested(&out), [2]);
    let request = out[0].1.clone();
    let mut adopter = node(ctx, 4, &values, 92);
    out.clear();
    adopter.tick(&mut out);
    assert_eq!(release_requested(&out), [1]);
    let ask = out[0].1.clone();

    // Before the release is ready the request waits.
    out.clear();
    member.handle(4, ask.clone(), TraceContext::NONE, &mut out);
    assert!(out.is_empty(), "nothing to release yet: {out:?}");
    member.handle(
        2,
        share_of(ctx, 2, 1, &request),
        TraceContext::NONE,
        &mut out,
    );
    assert!(member.step_done());
    let [(4, release, _)] = &out[..] else {
        panic!("the waiting request is answered, got {out:?}");
    };
    let release = release.clone();
    let Message::Release {
        iteration,
        member: index,
        values: released,
    } = &release
    else {
        panic!("a member answers with its release");
    };
    assert_eq!((*iteration, *index), (ITERATION, 2), "node 1 holds share 2");
    assert_eq!(released.len(), LAYOUT.total());
    // A repeated request (the asker's retry) is answered from the release.
    out.clear();
    member.handle(4, ask.clone(), TraceContext::NONE, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1, release);

    out.clear();
    adopter.handle(1, release, TraceContext::NONE, &mut out);
    assert!(adopter.step_done());
    assert!(out.is_empty());
    let (member, adopter) = (member.into_report(), adopter.into_report());
    assert_eq!(
        bits(adopter.estimate.as_ref().expect("the release is adopted")),
        bits(member.estimate.as_ref().expect("the member decrypted")),
    );
    assert_eq!(adopter.bad_frames, 0);
    assert_eq!(adopter.decrypt_ops, Default::default());

    // A non-member has nothing to release and says nothing.
    let mut bystander = node(ctx, 3, &values, 93);
    out.clear();
    bystander.handle(4, ask, TraceContext::NONE, &mut out);
    assert!(out.is_empty());
    assert_eq!(bystander.into_report().bad_frames, 0);
}

/// What a node adopts must come from a member it asked, for this step, and
/// fit the layout. A release from outside the committee (also counted as a
/// foreign share), from a member it did not ask, for another iteration, of
/// another length than the layout's or under another member's share index
/// is one counted bad frame each and adopts nothing; the honest release
/// still completes the round. A member asks nobody for a release, so any
/// release that reaches it is unsolicited.
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

    let mut member = node(ctx, 0, &values, 102);
    member.handle(
        1,
        release(ITERATION, 2, total),
        TraceContext::NONE,
        &mut out,
    );
    member.tick(&mut out);
    member.handle(
        1,
        release(ITERATION, 2, total),
        TraceContext::NONE,
        &mut out,
    );
    assert!(member.awaiting_shares());
    assert_eq!(member.into_report().bad_frames, 2);
}

/// The committee rule's load on one honest, loss-free executor step: n = 16
/// under a 2-of-3 committee, C ciphertexts a contribution. Every member
/// computes at most C·t + C partial decryptions (its own snapshot and the
/// one other member that asks it), every non-member none, and at most m
/// distinct estimates come out of the step. The step's metrics carry the
/// worst node: `crypto.partials_max` and `crypto.combines_max`.
#[test]
fn decrypt_round_worst_node_is_a_member_at_most_c_t_plus_c_partials() {
    let params = ThresholdParams {
        threshold: 2,
        parties: 3,
    };
    let (config, crypto) = context(params);
    let n = 16;
    let contributions: Vec<_> = (0..n)
        .map(|i| Some(contribution(&[i as f64 * 0.25, -1.0])))
        .collect();
    let sharded = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let run = run_step_sharded(config, &LAYOUT, &contributions, crypto, 13, &sharded, &[]);
    let run = run.unwrap();
    assert!(run.outcome.estimates.iter().all(Option::is_some));
    let c = crypto
        .step_cipher(config, &LAYOUT, n)
        .unwrap()
        .unwrap()
        .ciphertexts() as u64;
    let t = params.threshold as u64;
    let partials: Vec<u64> = (run.reports.iter())
        .map(|r| r.decrypt_ops.partial_decryptions)
        .collect();
    let (members, others) = partials.split_at(params.parties);
    assert!(
        members.iter().all(|&p| 0 < p && p <= c * t + c),
        "members computed {members:?} partials, C = {c}"
    );
    assert!(others.iter().all(|&p| p == 0), "{others:?}");
    let released: std::collections::BTreeSet<Vec<u64>> = (run.outcome.estimates.iter())
        .map(|e| bits(e.as_ref().unwrap()))
        .collect();
    assert!(
        released.len() <= params.parties,
        "{} estimates",
        released.len()
    );
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
    assert!(gauge("crypto.combines_max") <= c as i64);
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
    /// answer, in whatever order, the member decodes the same bits. This is
    /// what lets the round ask `t − 1` members chosen by rotation and accept
    /// a hedged reply in place of a lost one without the estimate noticing.
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
        let id = requester_id % params.parties;
        let values = contribution(&values);
        let others: Vec<NodeId> = (0..params.parties).filter(|&m| m != id).collect();
        let needed = params.threshold - 1;

        let start = |out: &mut Vec<Outbound>| {
            let mut requester = node(ctx, id, &values, seed);
            requester.tick(out);
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

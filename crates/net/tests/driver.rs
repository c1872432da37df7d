//! The timer policy at the `NodeDriver` level, on a fake clock: instants
//! are plain numbers (written in milliseconds here), nothing sleeps. What
//! the substrates' own timer tests then check is only that their loop or
//! event queue calls the driver.

use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::CryptoContext;
use cs_net::churn::{ChurnKind, Script};
use cs_net::driver::{decrypt_retry_interval, Armed, NodeDriver, Timer, Timing};
use cs_net::node::{NodeCrypto, NodeParams, Outbound, ProtocolNode};
use cs_net::transport::NodeId;
use cs_net::wire::{Message, TraceContext};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use std::time::Duration;

const LAYOUT: SlotLayout = SlotLayout {
    k: 2,
    series_len: 3,
};
const STEP_SEED: u64 = 7;
/// The 2-of-3 committee is nodes 0–2; nodes 3 and 4 hold no share.
const POPULATION: usize = 5;

const MS: u64 = 1_000_000;
const PUSH: u64 = MS;
const DEADLINE: u64 = 1_000 * MS;
const TIMEOUT: u64 = 60_000 * MS;

fn timing() -> Timing {
    Timing {
        push_interval: Duration::from_nanos(PUSH),
        decrypt_deadline: Duration::from_nanos(DEADLINE),
        step_timeout: Duration::from_nanos(TIMEOUT),
    }
}

fn retry() -> u64 {
    decrypt_retry_interval(Duration::from_nanos(PUSH)).as_nanos() as u64
}

fn config() -> ChiaroscuroConfig {
    ChiaroscuroConfig {
        rerandomize: false,
        ..ChiaroscuroConfig::test_real()
    }
}

/// One dealer run, shared by every case.
fn context() -> &'static CryptoContext {
    static CONTEXT: OnceLock<CryptoContext> = OnceLock::new();
    CONTEXT.get_or_init(|| {
        CryptoContext::from_config(&config(), &mut StdRng::seed_from_u64(5)).unwrap()
    })
}

fn contribution() -> Vec<f64> {
    (0..LAYOUT.total()).map(|i| i as f64 * 0.25 - 1.0).collect()
}

/// Node `id` with a push quota of `pushes`. With
/// `real` crypto the node ends its gossip in the decryption round; plain,
/// the tick that exhausts the quota finishes the step.
fn node(id: NodeId, pushes: usize, real: bool) -> ProtocolNode {
    let CryptoContext::Real { tkp, plans, .. } = context() else {
        unreachable!("the fixture is a real-crypto context");
    };
    let parties = tkp.params().parties;
    let committee = if real {
        (0..parties).collect()
    } else {
        Vec::new()
    };
    let params = NodeParams::for_step(id, POPULATION, STEP_SEED, pushes, committee, None);
    let crypto = if real {
        let cipher = context()
            .step_cipher(&config(), &LAYOUT, POPULATION)
            .unwrap()
            .expect("real crypto has a cipher");
        let share = (id < parties).then(|| tkp.shares()[id].clone());
        NodeCrypto::real(&cipher, share, tkp.params(), plans)
    } else {
        NodeCrypto::Plain
    };
    ProtocolNode::new(params, LAYOUT, crypto, Some(&contribution()))
}

fn driver(id: NodeId, pushes: usize, real: bool) -> NodeDriver {
    scripted(id, pushes, real, Vec::new())
}

fn scripted(id: NodeId, pushes: usize, real: bool, script: Script) -> NodeDriver {
    NodeDriver::new(node(id, pushes, real), &timing(), true, script)
}

/// The report's `Debug` text without its wall-clock profile.
fn settled(driver: NodeDriver) -> String {
    let mut report = driver.finish();
    report.profile = Default::default();
    format!("{report:?}")
}

fn count(out: &[Outbound], wanted: fn(&Message) -> bool) -> usize {
    out.iter().filter(|(_, msg, _)| wanted(msg)).count()
}

fn is_push(msg: &Message) -> bool {
    matches!(msg, Message::PackedPush { .. } | Message::PlainPush { .. })
}

/// Node 3 holds no share: its decryption round is one `ReleaseRequest` at
/// a time.
fn is_request(msg: &Message) -> bool {
    matches!(msg, Message::ReleaseRequest { .. })
}

/// The release committee member `member` answers node 3's request with.
fn release_from(member: NodeId) -> Message {
    Message::Release {
        iteration: STEP_SEED,
        member: member as u64 + 1,
        values: contribution(),
    }
}

/// The gossip push `from` opens its step with.
fn push_from(from: NodeId) -> Message {
    static PUSHES: OnceLock<Vec<Message>> = OnceLock::new();
    let pushes = PUSHES.get_or_init(|| {
        (0..POPULATION)
            .map(|peer| {
                let mut pushed = Vec::new();
                node(peer, 1, true).tick(&mut pushed);
                pushed.swap_remove(0).1
            })
            .collect()
    });
    pushes[from].clone()
}

/// PR 14's regression, pinned below the substrates: both round clocks
/// start with the round, not with the step, and the first retry — exactly
/// one interval later — is the hedge that reaches the members held back.
#[test]
fn first_retry_is_the_hedge_exactly_one_interval_after_the_round_starts() {
    // Two pushes at 0 and 1 ms; the second exhausts the quota and starts
    // the round.
    let mut requester = driver(3, 2, true);
    let mut out = Vec::new();
    requester.poll(0, &mut out);
    assert_eq!((count(&out, is_push), count(&out, is_request)), (1, 0));
    out.clear();
    let round_start = PUSH;
    requester.poll(round_start, &mut out);
    assert!(requester.node().awaiting_shares());
    assert_eq!(count(&out, is_push), 1);
    assert_eq!(count(&out, is_request), 1, "one member is asked to release");
    let armed = requester.armed();
    assert_eq!(armed.at(Timer::Retry), Some(round_start + retry()));
    assert_eq!(armed.at(Timer::Deadline), Some(round_start + DEADLINE));

    out.clear();
    requester.poll(round_start + retry() - 1, &mut out);
    assert!(out.is_empty(), "nothing is due before the interval is up");
    requester.poll(round_start + retry(), &mut out);
    assert_eq!(
        count(&out, is_request),
        3,
        "asked or not, all who owe a reply"
    );
    assert_eq!(
        requester.armed().at(Timer::Retry),
        Some(round_start + 2 * retry()),
        "the retry chain continues one interval later"
    );
    assert_eq!(
        requester.armed().at(Timer::Deadline),
        Some(round_start + DEADLINE),
        "a retry does not move the deadline"
    );
}

#[test]
fn tick_chain_stops_at_await_shares() {
    let mut requester = driver(3, 2, true);
    let mut out = Vec::new();
    for at in [0, PUSH] {
        assert_eq!(requester.armed().at(Timer::Tick), Some(at));
        requester.poll(at, &mut out);
    }
    assert!(requester.node().awaiting_shares());
    assert_eq!(requester.armed().at(Timer::Tick), None);
    out.clear();
    requester.poll(PUSH + retry() - 1, &mut out);
    assert!(out.is_empty(), "no tick fires once the round has started");
    assert_eq!(requester.finish().pushes_sent, 2);
}

#[test]
fn deadline_abandons_once_and_only_while_awaiting() {
    // Nobody answers: the round is abandoned at the deadline, once.
    let mut stranded = driver(3, 0, true);
    let mut out = Vec::new();
    stranded.poll(0, &mut out);
    assert!(stranded.node().awaiting_shares());
    assert_eq!(stranded.armed().at(Timer::Deadline), Some(DEADLINE));
    // A retry is due at the same poll (it has been since its interval was
    // up): the deadline wins, without one last burst of requests.
    out.clear();
    stranded.poll(DEADLINE, &mut out);
    assert!(stranded.node().step_done());
    assert!(out.is_empty(), "given up without a word: no request burst");
    assert_eq!(stranded.armed(), Armed::default());
    out.clear();
    stranded.poll(3 * DEADLINE, &mut out);
    assert!(out.is_empty(), "abandoned once");
    assert!(stranded.finish().estimate.is_none());

    // Answered in time: the round's clocks end with the round, so the
    // deadline instant passes without a second verdict.
    let mut served = driver(3, 0, true);
    let mut out = Vec::new();
    served.poll(0, &mut out);
    assert_eq!(out[0].0, 0, "node 3 asks member 3 % 3");
    served.deliver(0, release_from(0), TraceContext::NONE, 5 * MS, &mut out);
    assert!(served.node().step_done());
    assert_eq!(served.armed(), Armed::default());
    out.clear();
    served.poll(DEADLINE, &mut out);
    assert!(out.is_empty());
    assert!(served.finish().estimate.is_some());
}

/// Complete = no scripted event pending ∧ (down ∨ done ∨ timed out). A
/// node's own part of the step is over the instant it is done: there is
/// nothing it waits to hear from its peers, only its own script.
#[test]
fn completion_is_done_or_timed_out() {
    // Done at 1 ms (plain: the second tick finishes the step).
    let mut plain = driver(3, 2, false);
    let mut out = Vec::new();
    plain.poll(0, &mut out);
    assert!(!plain.complete(0), "still gossiping");
    plain.poll(PUSH, &mut out);
    assert!(plain.node().step_done());
    assert!(plain.complete(PUSH), "complete the instant it is done");

    // Done by giving up: the deadline abandons the round.
    let mut stranded = driver(3, 0, true);
    stranded.poll(0, &mut out);
    assert!(!stranded.complete(DEADLINE - 1));
    stranded.poll(DEADLINE, &mut out);
    assert!(stranded.complete(DEADLINE));

    // Never done: only the step timeout completes it.
    let mut stuck = driver(3, 0, true);
    stuck.poll(0, &mut out);
    assert!(stuck.node().awaiting_shares());
    assert!(!stuck.complete(TIMEOUT - 1));
    assert!(stuck.complete(TIMEOUT));

    // Down: complete once its script is played out, not while a rejoin is
    // pending.
    let script = vec![
        (PUSH, ChurnKind::Crash),
        (3 * PUSH, ChurnKind::Rejoin),
        (5 * PUSH, ChurnKind::Crash),
    ];
    let mut churned = scripted(3, 10, false, script);
    churned.poll(PUSH, &mut out);
    assert!(!churned.complete(PUSH), "down, with a rejoin pending");
    churned.poll(5 * PUSH, &mut out);
    assert!(!churned.is_alive() && churned.complete(5 * PUSH));
}

/// The cross-substrate bugfix. A node that crashes while awaiting shares
/// and comes back after more than `decrypt_deadline` is not abandoned on
/// its pre-crash clock, and its next retry is one interval after the
/// rejoin — the sharded executor's semantics, now everyone's. (At the
/// commit before it the wall-clock loops kept the pre-crash clocks:
/// the node gave up the instant it was back.)
#[test]
fn rejoin_restarts_the_decrypt_clocks_from_the_rejoin_instant() {
    let back = 2 * DEADLINE + 3 * MS;
    let script = vec![(MS, ChurnKind::Crash), (back, ChurnKind::Rejoin)];
    let mut requester = scripted(3, 0, true, script);
    let mut out = Vec::new();
    requester.poll(0, &mut out);
    assert!(requester.node().awaiting_shares());

    requester.poll(MS, &mut out);
    let armed: Vec<_> = requester.armed().iter().collect();
    assert_eq!(
        armed,
        [(Timer::Churn, back)],
        "a crash clears all but the script"
    );
    out.clear();
    requester.poll(2 * DEADLINE, &mut out);
    assert!(out.is_empty(), "a crashed node's clocks do not run");

    requester.poll(back, &mut out);
    assert_eq!(count(&out, |m| matches!(m, Message::Join { .. })), 4);
    assert!(requester.node().awaiting_shares(), "not abandoned");
    assert_eq!(out.len(), 4, "and no immediate retry");
    out.clear();
    let armed = requester.armed();
    assert_eq!(armed.at(Timer::Retry), Some(back + retry()));
    assert_eq!(armed.at(Timer::Deadline), Some(back + DEADLINE));
    assert_eq!(armed.at(Timer::Tick), None);
    requester.poll(back + retry() - 1, &mut out);
    assert!(out.is_empty());
    requester.poll(back + retry(), &mut out);
    assert_eq!(count(&out, is_request), 3);
}

/// A node that rejoins while still gossiping gets one fresh tick chain,
/// one `push_interval` after the rejoin.
#[test]
fn rejoin_while_gossiping_starts_one_fresh_tick_chain() {
    let back = 7 * MS + 300_000;
    let gone = back + 2 * PUSH + 1;
    let script = vec![
        (PUSH + 1, ChurnKind::Crash),
        (back, ChurnKind::Rejoin),
        (gone, ChurnKind::Leave),
    ];
    let mut gossiper = scripted(3, 10, false, script);
    let mut out = Vec::new();
    gossiper.poll(0, &mut out);
    gossiper.poll(PUSH, &mut out);
    // One poll past both the crash and the rejoin applies them in order.
    gossiper.poll(back, &mut out);
    assert!(gossiper.is_alive());
    assert_eq!(gossiper.armed().at(Timer::Tick), Some(back + PUSH));
    out.clear();
    gossiper.poll(back + PUSH - 1, &mut out);
    assert!(out.is_empty(), "the overdue pre-crash tick does not fire");
    gossiper.poll(back + PUSH, &mut out);
    gossiper.poll(back + 2 * PUSH, &mut out);
    assert_eq!(count(&out, is_push), 2);
    // Leaving announces, then clears like a crash.
    out.clear();
    gossiper.poll(gone, &mut out);
    assert_eq!(count(&out, |m| matches!(m, Message::Leave { .. })), 4);
    assert!(!gossiper.is_alive());
    assert_eq!(gossiper.armed(), Armed::default());
    assert_eq!(gossiper.finish().pushes_sent, 4);
}

/// A frame handed to the node at or after its scripted crash instant is
/// lost: nothing goes out and nothing is counted, exactly as if it never
/// came. One instant earlier it is handled.
#[test]
fn a_frame_at_or_after_a_scripted_crash_is_lost_and_uncounted() {
    let crash = 5 * MS;
    let [mut hit, mut quiet, mut early] =
        [0, 1, 2].map(|_| scripted(3, 10, true, vec![(crash, ChurnKind::Crash)]));
    let mut out = Vec::new();
    for driver in [&mut hit, &mut quiet, &mut early] {
        driver.poll(0, &mut out);
    }
    out.clear();
    for at in [crash, crash + 3 * MS] {
        hit.deliver(4, push_from(4), TraceContext::NONE, at, &mut out);
        hit.note_bad_frame(at, &mut out);
    }
    assert!(out.is_empty(), "a dead node emits nothing");
    assert!(!hit.is_alive());
    quiet.poll(crash + 3 * MS, &mut out);
    assert_eq!(settled(hit), settled(quiet), "and counts nothing");

    early.note_bad_frame(crash - 1, &mut out);
    assert_eq!(
        early.finish().bad_frames,
        1,
        "one instant earlier it counts"
    );
}

/// A crash and a rejoin scripted for one instant are applied in script
/// order before a frame handed over at that instant, whether the host fires
/// the `Churn` timer first (the executor's event order) or only hands over
/// the frame (a wall-clock pump mid-turn): the node announces itself, then
/// serves the request, identically. The request is the leader's, member
/// 0's, which asks member 1 for the share its own does not cover.
#[test]
fn frames_at_a_crash_then_rejoin_instant_follow_the_script_on_both_clockings() {
    let back = 3 * MS;
    let script = vec![(back, ChurnKind::Crash), (back, ChurnKind::Rejoin)];
    let mut requests = Vec::new();
    driver(0, 0, true).poll(0, &mut requests);
    let (to, request, _) = requests.swap_remove(0);
    assert!(matches!(request, Message::DecryptRequest { .. }) && to == 1);
    let logs = [true, false].map(|fire_first| {
        let mut member = scripted(1, 10, true, script.clone());
        let mut out = Vec::new();
        member.poll(0, &mut out);
        out.clear();
        if fire_first {
            assert!(member.fire(Timer::Churn, back, &mut out));
        }
        member.deliver(0, request.clone(), TraceContext::NONE, back, &mut out);
        assert!(member.is_alive());
        assert_eq!(member.armed().at(Timer::Churn), None);
        out
    });
    assert_eq!(logs[0], logs[1]);
    let joins = count(&logs[0], |m| matches!(m, Message::Join { .. }));
    assert_eq!(joins, 4);
    assert!(matches!(logs[0][4], (0, Message::DecryptShare { .. }, _)));
    assert_eq!(logs[0].len(), 5);
}

/// One step of a random schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Let this many nanoseconds pass.
    Advance(u64),
    /// The node's scripted crash, rejoin and leave, at the instant the ops
    /// before them reach: the script handed to the driver at step start.
    Crash,
    Rejoin,
    Leave,
    /// A gossip push from `NodeId`, replayed from another step.
    StalePush(NodeId),
    PeerLeaves(NodeId),
    PeerJoins(NodeId),
    /// The committee member's release, if a request is out.
    Share(NodeId),
    /// A gossip push from a peer.
    Push(NodeId),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..15, 0u64..2 * DEADLINE, 0usize..POPULATION - 1).prop_map(|(kind, span, who)| {
        // `who` as a peer of node 3, and as a committee member.
        let peer = if who >= 3 { who + 1 } else { who };
        let member = who % 3;
        match kind {
            // Time jumps from below a push interval to past the decrypt
            // deadline, weighted towards the scales the timers live on.
            0 | 1 => Op::Advance(span % (3 * PUSH)),
            2 | 3 => Op::Advance(span % (400 * MS)),
            4 => Op::Advance(span),
            5 => Op::Crash,
            6 | 7 => Op::Rejoin,
            8 => Op::Leave,
            9 => Op::StalePush(peer),
            10 => Op::PeerLeaves(peer),
            11 => Op::PeerJoins(peer),
            12 | 13 => Op::Share(member),
            _ => Op::Push(peer),
        }
    })
}

/// How a run turns `Op::Advance` into timer firings.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Clocking {
    /// A punctual wall-clock pump: `poll` at every instant something is due.
    Poll,
    /// The sharded executor's way: every timer an input arms becomes a
    /// queued event that is never withdrawn, and `fire` sorts the live
    /// ones from the stale when they come up, in `(at, timer)` order.
    Events,
}

/// Drives node 3 through `ops`; returns every outbound with the instant it
/// was emitted at, and the final report (without its wall-clock profile).
fn run(ops: &[Op], pushes: usize, clocking: Clocking) -> (Vec<(u64, Outbound)>, String) {
    let mut script = Script::new();
    let mut at = 0;
    for op in ops {
        match op {
            Op::Advance(by) => at += by,
            Op::Crash => script.push((at, ChurnKind::Crash)),
            Op::Rejoin => script.push((at, ChurnKind::Rejoin)),
            Op::Leave => script.push((at, ChurnKind::Leave)),
            _ => {}
        }
    }
    let mut driver = scripted(3, pushes, true, script.clone());
    // The latest instant an input reached: every scripted event due by
    // then is applied.
    let mut reached = None;
    let mut now = 0u64;
    let mut log: Vec<(u64, Outbound)> = Vec::new();
    let mut out: Vec<Outbound> = Vec::new();
    let mut queue: BTreeSet<(u64, Timer, u64)> = BTreeSet::new();
    let mut queued = 0u64;
    let mut enqueue = |queue: &mut BTreeSet<_>, before: Armed, after: Armed| {
        for (timer, at) in after.iter() {
            if before.at(timer) != Some(at) {
                queued += 1;
                queue.insert((at, timer, queued));
            }
        }
    };
    enqueue(&mut queue, Armed::default(), driver.armed());

    for op in ops {
        let before = driver.armed();
        let handed = match op {
            Op::Crash | Op::Rejoin | Op::Leave => false,
            Op::Share(_) => log.iter().any(|(_, o)| is_request(&o.1)),
            _ => true,
        };
        match op {
            Op::Advance(by) => {
                let target = now + by;
                match clocking {
                    Clocking::Poll => {
                        while let Some(due) = driver.armed().iter().map(|(_, at)| at).min() {
                            if due > target {
                                break;
                            }
                            now = now.max(due);
                            driver.poll(now, &mut out);
                            log.extend(out.drain(..).map(|o| (now, o)));
                        }
                    }
                    Clocking::Events => {
                        while let Some(&(at, timer, seq)) = queue.first() {
                            if at > target {
                                break;
                            }
                            queue.remove(&(at, timer, seq));
                            let before = driver.armed();
                            let fired = driver.fire(timer, at, &mut out);
                            assert_eq!(fired, before.at(timer) == Some(at), "stale ⇔ not fired");
                            enqueue(&mut queue, before, driver.armed());
                            log.extend(out.drain(..).map(|o| (at, o)));
                        }
                    }
                }
                now = target;
            }
            // Scripted: the driver applies them on its own clock.
            Op::Crash | Op::Rejoin | Op::Leave => {}
            Op::StalePush(from) => {
                let Message::PackedPush {
                    denom_exp,
                    weight,
                    buckets,
                    slots,
                    ..
                } = push_from(*from)
                else {
                    unreachable!("the real-crypto fixture pushes ciphertexts");
                };
                let stale = Message::PackedPush {
                    iteration: STEP_SEED + 1,
                    denom_exp,
                    weight,
                    buckets,
                    slots,
                };
                driver.deliver(*from, stale, TraceContext::NONE, now, &mut out);
            }
            Op::PeerLeaves(peer) => {
                let leave = Message::Leave { node: *peer as u64 };
                driver.deliver(*peer, leave, TraceContext::NONE, now, &mut out);
            }
            Op::PeerJoins(peer) => {
                let join = Message::Join {
                    node: *peer as u64,
                    iteration: STEP_SEED,
                };
                driver.deliver(*peer, join, TraceContext::NONE, now, &mut out);
            }
            Op::Share(member) => {
                if log.iter().any(|(_, o)| is_request(&o.1)) {
                    let release = release_from(*member);
                    driver.deliver(*member, release, TraceContext::NONE, now, &mut out);
                }
            }
            Op::Push(from) => {
                driver.deliver(*from, push_from(*from), TraceContext::NONE, now, &mut out);
            }
        }
        if clocking == Clocking::Events && !matches!(op, Op::Advance(_)) {
            enqueue(&mut queue, before, driver.armed());
        }
        log.extend(out.drain(..).map(|o| (now, o)));
        if handed {
            reached = Some(now);
        }

        // (b) what may be armed, after every input.
        let armed = driver.armed();
        let mut next = script.iter().map(|&(at, _)| at);
        assert_eq!(
            armed.at(Timer::Churn),
            next.find(|&at| reached.is_none_or(|r| at > r)),
            "Churn is armed iff a scripted event remains, for the next one ({op:?})"
        );
        let node = driver.node();
        let gossiping = !node.awaiting_shares() && !node.step_done();
        assert_eq!(
            armed.at(Timer::Tick).is_some(),
            driver.is_alive() && gossiping,
            "a tick is armed iff the node is alive and gossiping ({op:?})"
        );
        for timer in [Timer::Retry, Timer::Deadline] {
            assert_eq!(
                armed.at(timer).is_some(),
                driver.is_alive() && node.awaiting_shares(),
                "{timer:?} is armed iff the node is alive and awaiting shares ({op:?})"
            );
        }
        assert!(armed.iter().all(|(_, at)| at >= now), "nothing overdue");
    }
    (log, settled(driver))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) `poll` is a loop over `fire`: a pump that polls punctually and
    /// an event queue that keeps every timer ever armed and lets `fire`
    /// reject the stale ones drive the node identically — same outbound
    /// messages at the same instants, same report. (b) lives in `run`.
    #[test]
    fn poll_and_event_style_fire_drive_a_node_identically(
        ops in proptest::collection::vec(op(), 1..40),
        pushes in 0usize..4,
    ) {
        let (polled_log, polled_report) = run(&ops, pushes, Clocking::Poll);
        let (fired_log, fired_report) = run(&ops, pushes, Clocking::Events);
        prop_assert_eq!(polled_log.len(), fired_log.len());
        for (polled, fired) in polled_log.iter().zip(&fired_log) {
            prop_assert_eq!(polled, fired);
        }
        prop_assert_eq!(polled_report, fired_report);
    }
}

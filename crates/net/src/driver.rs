//! The node driver: the one owner of a [`ProtocolNode`]'s clocks.
//!
//! The paper's protocol "proceeds without any global synchronization", so
//! a participant's only clocks are its own: its scripted churn, the gossip
//! pacing tick, the decryption round's retry (= hedge) and give-up timers,
//! the leader's own share, and the step's hard deadline. [`NodeDriver`]
//! wraps one [`ProtocolNode`] and owns all of that step-local timing
//! state, including when the node crashes, rejoins and leaves and what that
//! does to the rest. Like the node it is *sans-IO*: time comes in as a
//! number (nanoseconds since the step's gossip start), messages come in
//! decoded, and what goes out is [`Outbound`]s plus the armed timers as
//! plain values. Every substrate is a way of feeding it:
//!
//! * the sharded executor keeps each armed timer as a queued event and
//!   calls [`NodeDriver::fire`] when it pops — a timer disarmed in the
//!   meantime (crash, leave, round over) simply does not fire;
//! * the wall-clock substrates (the TCP loopback host's node threads,
//!   `csnoded`) run [`crate::runtime::pump`], which calls
//!   [`NodeDriver::poll`] once a turn — a loop over [`NodeDriver::fire`],
//!   not a second implementation.
//!
//! The leader asks before it decrypts: opening its round folds and sends,
//! and arms [`Timer::Share`] for its own partials, which a host fires once
//! the request is on its way — the executor when the request reaches an
//! asked member, the pump after the turn's flush — so the leader's
//! exponentiations and the member's run side by side.
//!
//! What arms, fires and clears each [`Timer`] is stated on the methods
//! below and, as one table, under "One driver, five clocks" in
//! `docs/architecture.md`. In short: a crash clears every armed timer but
//! the script and a rejoin re-arms from the rejoin instant, so a node
//! never resumes a pre-crash pacing chain and never abandons a round on a
//! pre-crash clock.

use crate::churn::{ChurnKind, Script};
use crate::node::{NodeReport, Outbound, ProtocolNode};
use crate::transport::NodeId;
use crate::wire::{Message, TraceContext};
use cs_obs::{CausalTracer, PhaseProfile};
use std::time::Duration;

/// The step's clocks, as a substrate configures them: virtual durations on
/// the sharded executor, wall-clock ones everywhere else.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Pacing between a node's gossip pushes.
    pub push_interval: Duration,
    /// How long a node keeps waiting (and re-requesting) in the decryption
    /// round before giving up with no estimate.
    pub decrypt_deadline: Duration,
    /// Hard deadline for the node's part of the step.
    pub step_timeout: Duration,
}

/// The decryption-round re-request cadence for a given gossip pacing.
/// Coarse by design: a retry is loss recovery, not pacing — it must stay
/// well above the committee's worst-case service time for one request so
/// slow replies are never mistaken for lost ones. It is also the **hedging
/// delay**: a node first asks only the members its round completes on
/// (`threshold − 1` shares on a member, one release elsewhere), and the
/// first retry, one interval into the round, reaches the rest of the
/// committee: this is what a silently dead asked member costs (and a retry
/// that fires while a live member is merely slow buys a discarded share
/// vector, or a second release, from each member not yet asked).
pub fn decrypt_retry_interval(push_interval: Duration) -> Duration {
    (push_interval * 50).max(Duration::from_millis(150))
}

/// A node's timers. The declaration order is the firing order among timers
/// due at the same instant: scripted churn comes first, so a node crashed
/// at an instant does nothing else at it, and the deadline wins over a
/// retry, so a round that is out of time is abandoned without one last
/// re-request burst. The leader's own share comes last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timer {
    /// The node's next scripted crash, rejoin or leave.
    Churn,
    /// The gossip pacing tick.
    Tick,
    /// The decryption round's give-up timer.
    Deadline,
    /// The decryption round's re-request (and hedge) timer.
    Retry,
    /// The leader's own partial decryptions, due the instant it opens its
    /// round (or rejoins owing them); a host fires it once the round's
    /// request is on its way.
    Share,
}

impl Timer {
    /// Every timer, in firing order.
    pub const ALL: [Timer; 5] = [
        Self::Churn,
        Self::Tick,
        Self::Deadline,
        Self::Retry,
        Self::Share,
    ];
}

/// The instants a node's timers are armed for — at most one per [`Timer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Armed([Option<u64>; 5]);

impl Armed {
    /// When `timer` is due, if it is armed.
    pub fn at(&self, timer: Timer) -> Option<u64> {
        self.0[timer as usize]
    }

    /// The armed timers with their instants, in [`Timer::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Timer, u64)> + '_ {
        Timer::ALL
            .into_iter()
            .filter_map(|timer| Some((timer, self.at(timer)?)))
    }
}

/// One [`ProtocolNode`] plus every churn, tick, retry, deadline and
/// completion decision of its step. All instants are nanoseconds since the
/// step's gossip start.
pub struct NodeDriver {
    node: ProtocolNode,
    alive: bool,
    /// The node's scripted events; those before `scripted` are applied.
    script: Script,
    scripted: usize,
    /// The pacing tick: armed while the node is alive and gossiping.
    tick: Option<u64>,
    /// The decryption round's clocks: both armed while the node is alive
    /// and awaiting shares — they start with the round and end with it.
    retry: Option<u64>,
    deadline: Option<u64>,
    /// The leader's own partials: armed while it is alive and owes them.
    share: Option<u64>,
    push_interval: u64,
    retry_interval: u64,
    decrypt_deadline: u64,
    step_timeout: u64,
}

impl NodeDriver {
    /// Wraps `node` for one step. A node that is `alive` at step start has
    /// its first tick armed at 0; one that is down holds its slot with no
    /// tick armed until a scripted rejoin. `script` is the node's own part
    /// of the step's churn, in order (see [`crate::churn::split`]).
    pub fn new(node: ProtocolNode, timing: &Timing, alive: bool, script: Script) -> Self {
        let ns = |d: Duration| d.as_nanos() as u64;
        NodeDriver {
            node,
            alive,
            script,
            scripted: 0,
            tick: alive.then_some(0),
            retry: None,
            deadline: None,
            share: None,
            push_interval: ns(timing.push_interval),
            retry_interval: ns(decrypt_retry_interval(timing.push_interval)),
            decrypt_deadline: ns(timing.decrypt_deadline),
            step_timeout: ns(timing.step_timeout),
        }
    }

    /// Attaches a causal tracer to the node (see
    /// [`ProtocolNode::with_tracer`]).
    pub fn with_tracer(mut self, tracer: CausalTracer) -> Self {
        self.node = self.node.with_tracer(tracer);
        self
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// The node itself, read-only.
    pub fn node(&self) -> &ProtocolNode {
        &self.node
    }

    /// The node's spare push buffer (see [`ProtocolNode::spare_buffer`]).
    pub fn spare_buffer(&mut self) -> &mut Option<Vec<f64>> {
        self.node.spare_buffer()
    }

    /// The node's phase clocks (see [`ProtocolNode::profile_mut`]).
    pub(crate) fn profile_mut(&mut self) -> &mut PhaseProfile {
        self.node.profile_mut()
    }

    /// `false` while the node is crashed or has left.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// The gossip pacing this driver ticks at.
    pub fn push_interval(&self) -> Duration {
        Duration::from_nanos(self.push_interval)
    }

    /// The timers currently armed. A substrate that keeps timers as events
    /// compares this across an input to learn what the input armed.
    pub fn armed(&self) -> Armed {
        let churn = self.script.get(self.scripted).map(|&(at, _)| at);
        Armed([churn, self.tick, self.deadline, self.retry, self.share])
    }

    /// Fires `timer` at instant `now` if it is armed and due — armed for an
    /// instant no later than `now` — and returns whether it did. An event
    /// scheduled for a timer that has since been cleared or re-armed for
    /// later is stale, and asking is how a substrate finds out. `Churn`
    /// applies every scripted event due by `now`, in order, so it is
    /// re-armed, if at all, for later than `now`.
    pub fn fire(&mut self, timer: Timer, now: u64, out: &mut Vec<Outbound>) -> bool {
        if self.armed().at(timer).is_none_or(|at| at > now) {
            return false;
        }
        match timer {
            Timer::Churn => {
                self.churn(now, out);
                return true;
            }
            Timer::Tick => {
                self.node.tick(out);
                self.tick = self.gossiping().then_some(now + self.push_interval);
            }
            Timer::Deadline => self.node.abandon_decrypt(),
            Timer::Retry => {
                self.node.retry_decrypt(out);
                self.retry = Some(now + self.retry_interval);
            }
            Timer::Share => self.node.decrypt_own_share(out),
        }
        self.settle(now);
        true
    }

    /// Fires every timer due at `now` but [`Timer::Share`], each at most
    /// once: the wall-clock substrates' once-a-turn call. The share waits
    /// for the turn's output to be flushed, and the host fires it then.
    pub fn poll(&mut self, now: u64, out: &mut Vec<Outbound>) {
        for timer in Timer::ALL {
            if timer != Timer::Share {
                self.fire(timer, now, out);
            }
        }
    }

    /// Hands the node one decoded message at instant `now`, after any
    /// scripted event due by then. A crashed node loses everything
    /// addressed to it.
    pub fn deliver(
        &mut self,
        from: NodeId,
        msg: Message,
        ctx: TraceContext,
        now: u64,
        out: &mut Vec<Outbound>,
    ) {
        self.churn(now, out);
        if self.alive {
            self.node.handle(from, msg, ctx, out);
            self.settle(now);
        }
    }

    /// Records a frame that failed to decode at instant `now`, after any
    /// scripted event due by then. A crashed node counts nothing.
    pub fn note_bad_frame(&mut self, now: u64, out: &mut Vec<Outbound>) {
        self.churn(now, out);
        if self.alive {
            self.node.note_bad_frame();
        }
    }

    /// Applies the scripted events due by `now`, in script order.
    fn churn(&mut self, now: u64, out: &mut Vec<Outbound>) {
        while let Some(&(_, kind)) = self.script.get(self.scripted).filter(|&&(at, _)| at <= now) {
            self.scripted += 1;
            match kind {
                ChurnKind::Crash => self.crash(),
                ChurnKind::Rejoin => self.rejoin(now, out),
                ChurnKind::Leave => self.leave(out),
            }
        }
    }

    /// Silent fail-stop: every armed timer but the script is cleared.
    fn crash(&mut self) {
        self.alive = false;
        (self.tick, self.retry, self.deadline, self.share) = (None, None, None, None);
    }

    /// Recovery with pre-crash state: the node announces itself and its
    /// clocks restart from `now` — a fresh tick chain one `push_interval`
    /// later if it is still gossiping, fresh retry and deadline clocks if
    /// it is awaiting shares, and its own share due at once if it leads and
    /// still owes it. No-op on a live node.
    fn rejoin(&mut self, now: u64, out: &mut Vec<Outbound>) {
        if self.alive {
            return;
        }
        self.alive = true;
        self.node.on_rejoin(out);
        self.tick = self.gossiping().then_some(now + self.push_interval);
        self.settle(now);
    }

    /// Graceful departure: the node announces it, then fail-stops. No-op
    /// on a node that is already down.
    fn leave(&mut self, out: &mut Vec<Outbound>) {
        if self.alive {
            self.node.on_leave(out);
            self.crash();
        }
    }

    /// `true` once the node's own part of the step is over — no scripted
    /// event is pending, and it is down, or done (estimate obtained or
    /// given up), or the step timed out. Whether the *step* is over is the
    /// host's to observe, not the node's: the TCP host and the coordinator
    /// collect one announcement per node, and the sharded executor sees
    /// its queues drain and never asks. A done node keeps serving
    /// committee duties until the host ends the step.
    pub fn complete(&self, now: u64) -> bool {
        self.scripted == self.script.len()
            && (!self.alive || self.node.step_done() || now >= self.step_timeout)
    }

    /// Consumes the driver into the node's report.
    pub fn finish(self) -> NodeReport {
        self.node.into_report()
    }

    fn gossiping(&self) -> bool {
        !self.node.awaiting_shares() && !self.node.step_done()
    }

    /// Brings the decryption-round clocks in line with the node's phase
    /// after an input; the leader's share is due from when it is owed.
    fn settle(&mut self, now: u64) {
        if !self.node.awaiting_shares() {
            (self.retry, self.deadline) = (None, None);
        } else if self.retry.is_none() {
            self.retry = Some(now + self.retry_interval);
            self.deadline = Some(now + self.decrypt_deadline);
        }
        self.share = self.node.owes_share().then(|| self.share.unwrap_or(now));
    }
}

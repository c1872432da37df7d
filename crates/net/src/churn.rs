//! Churn injection: scripted crash / rejoin / leave events against a
//! running population.
//!
//! The cycle simulator models churn probabilistically per cycle
//! (`cs_gossip::FailureModel`); a message-passing runtime needs the *timed*
//! counterpart — "node 7 crashes 3 ms into the step, rejoins at 9 ms" — so
//! experiments can place failures at protocol-critical moments
//! (mid-gossip, during decryption). [`ChurnSchedule`] is that script.
//!
//! The two in-process hosts interpret an event's offset differently:
//!
//! * **TCP host** — the offset is *wall-clock*: the driver thread applies
//!   due events through the population's [`Controls`], so where an event
//!   lands relative to the protocol depends on the OS scheduler.
//! * **Sharded executor** — the offset is *virtual time*: the event is
//!   scheduled into the owning shard's event queue like any message or
//!   timer, so "crash at 3 ms" hits the exact same protocol moment in
//!   every same-seed run.

use crate::transport::NodeId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

/// What happens to the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// Silent fail-stop: the node stops participating without telling
    /// anyone; in-flight and future frames to it are lost.
    Crash,
    /// Recovery with pre-crash state (the crash-recovery model — the same
    /// semantics as the simulator's `recovery_prob`); the node announces
    /// itself with a `Join`.
    Rejoin,
    /// Graceful departure: the node broadcasts `Leave`, then stops.
    Leave,
}

/// One scripted event.
#[derive(Clone, Copy, Debug)]
pub struct ChurnEvent {
    /// Computation step the event belongs to (0-based; an engine run
    /// executes one step per iteration).
    pub step: usize,
    /// Offset from the step's start.
    pub after: Duration,
    /// Target node.
    pub node: NodeId,
    /// Event kind.
    pub kind: ChurnKind,
}

/// A script of churn events across the steps of a run.
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// An empty schedule (no churn).
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// Adds an event.
    pub fn push(&mut self, event: ChurnEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    fn with(mut self, step: usize, after: Duration, node: NodeId, kind: ChurnKind) -> Self {
        let event = ChurnEvent {
            step,
            after,
            node,
            kind,
        };
        self.events.push(event);
        self
    }

    /// Convenience: crash `node` `after` into step `step`.
    pub fn crash(self, step: usize, after: Duration, node: NodeId) -> Self {
        self.with(step, after, node, ChurnKind::Crash)
    }

    /// Convenience: rejoin `node` `after` into step `step`.
    pub fn rejoin(self, step: usize, after: Duration, node: NodeId) -> Self {
        self.with(step, after, node, ChurnKind::Rejoin)
    }

    /// Convenience: gracefully leave at `after` into step `step`.
    pub fn leave(self, step: usize, after: Duration, node: NodeId) -> Self {
        self.with(step, after, node, ChurnKind::Leave)
    }

    /// The events of one step, sorted by offset.
    pub fn for_step(&self, step: usize) -> Vec<ChurnEvent> {
        let mut out: Vec<ChurnEvent> = self
            .events
            .iter()
            .copied()
            .filter(|e| e.step == step)
            .collect();
        out.sort_by_key(|e| e.after);
        out
    }

    /// `true` iff no events are scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Per-node liveness switches shared between the driver (which applies the
/// schedule) and the node threads (which obey it).
#[derive(Debug)]
pub struct Controls {
    // 0 = alive, 1 = crashed, 2 = leave requested (node broadcasts Leave,
    // then moves itself to crashed).
    state: Vec<AtomicU8>,
}

/// Node liveness as seen through [`Controls`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Liveness {
    /// Participating normally.
    Alive,
    /// Fail-stopped (silently or after a graceful leave).
    Crashed,
    /// Asked to leave gracefully; transitions to `Crashed` once announced.
    Leaving,
}

impl Controls {
    /// All-alive switches for `n` nodes.
    pub fn new(n: usize) -> Self {
        Controls {
            state: (0..n).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Current liveness of `node`.
    pub fn liveness(&self, node: NodeId) -> Liveness {
        match self.state[node].load(Ordering::Acquire) {
            0 => Liveness::Alive,
            1 => Liveness::Crashed,
            _ => Liveness::Leaving,
        }
    }

    /// `true` iff the node is fail-stopped.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.liveness(node) == Liveness::Crashed
    }

    /// Applies one scripted event's `kind` to `node`.
    pub fn apply(&self, node: NodeId, kind: ChurnKind) {
        let v = match kind {
            ChurnKind::Crash => 1,
            ChurnKind::Rejoin => 0,
            ChurnKind::Leave => 2,
        };
        self.state[node].store(v, Ordering::Release);
    }

    /// Node-side acknowledgement of a leave request: the departure is
    /// announced, now fail-stop.
    pub fn confirm_left(&self, node: NodeId) {
        self.state[node].store(1, Ordering::Release);
    }

    /// Number of nodes currently alive or leaving.
    pub fn alive_count(&self) -> usize {
        self.state
            .iter()
            .filter(|s| s.load(Ordering::Acquire) != 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_filters_and_sorts_by_step() {
        let s = ChurnSchedule::none()
            .crash(1, Duration::from_millis(9), 3)
            .crash(0, Duration::from_millis(5), 1)
            .rejoin(0, Duration::from_millis(2), 2);
        let step0 = s.for_step(0);
        assert_eq!(step0.len(), 2);
        assert_eq!(step0[0].node, 2, "sorted by offset");
        assert_eq!(step0[1].node, 1);
        assert_eq!(s.for_step(1).len(), 1);
        assert!(s.for_step(2).is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    fn controls_walk_the_liveness_lattice() {
        let c = Controls::new(3);
        assert_eq!(c.alive_count(), 3);
        c.apply(1, ChurnKind::Crash);
        assert!(c.is_crashed(1));
        assert_eq!(c.alive_count(), 2);
        c.apply(1, ChurnKind::Rejoin);
        assert_eq!(c.liveness(1), Liveness::Alive);
        c.apply(2, ChurnKind::Leave);
        assert_eq!(c.liveness(2), Liveness::Leaving);
        assert!(!c.is_crashed(2), "leaving nodes still run");
        c.confirm_left(2);
        assert!(c.is_crashed(2));
    }
}

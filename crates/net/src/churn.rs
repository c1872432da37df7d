//! Churn injection: scripted crash / rejoin / leave events against a
//! running population.
//!
//! Churn is scripted in time — "node 7 crashes 3 ms into the step, rejoins
//! at 9 ms" — so experiments can place failures at protocol-critical
//! moments (mid-gossip, during decryption). [`ChurnSchedule`] is that
//! script; the cycle simulator runs no churn and is the failure-free
//! reference a churned run is compared against.
//!
//! A host only splits a step's events per node ([`split`]); each node's
//! [`crate::driver::NodeDriver`] applies its own part on its own clock, as
//! the `Churn` timer, like its pacing tick. An offset therefore means the
//! same on every host — time since the step's gossip start — and what it
//! is measured on is the host's clock: virtual time on the sharded
//! executor, so "crash at 3 ms" hits the exact same protocol moment in
//! every same-seed run, and the wall clock shared by the node threads on
//! the TCP host, where a frame handed to the node after its crash instant
//! is lost, however busy its thread was.

use crate::transport::NodeId;
use chiaroscuro::ChiaroscuroError;
use std::time::Duration;

/// What happens to the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// Silent fail-stop: the node stops participating without telling
    /// anyone; in-flight and future frames to it are lost.
    Crash,
    /// Recovery with pre-crash state (the crash-recovery model); the node
    /// announces itself with a `Join`.
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

/// One node's part of a step's script: `(instant, kind)` pairs in script
/// order, instants in nanoseconds since the step's gossip start.
pub type Script = Vec<(u64, ChurnKind)>;

/// Splits one step's events per node, each node's sorted by offset with
/// ties in script order. An event addressed to no node of the
/// `population` is refused before any node exists.
pub fn split(events: &[ChurnEvent], population: usize) -> Result<Vec<Script>, ChiaroscuroError> {
    let mut scripts = vec![Script::new(); population];
    for event in events {
        let Some(script) = scripts.get_mut(event.node) else {
            return Err(ChiaroscuroError::InvalidConfig(format!(
                "a churn event targets node {} of a {population}-node step",
                event.node
            )));
        };
        script.push((event.after.as_nanos() as u64, event.kind));
    }
    scripts
        .iter_mut()
        .for_each(|script| script.sort_by_key(|&(at, _)| at));
    Ok(scripts)
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
}

//! Message and byte accounting.
//!
//! The demo GUI displays per-participant network costs; every simulated
//! exchange reports its payload here.

use serde::{Deserialize, Serialize};

/// Cumulative traffic counters for one simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Messages successfully delivered.
    pub messages: u64,
    /// Payload bytes successfully delivered.
    pub bytes: u64,
    /// Messages lost to drops or dead targets.
    pub dropped: u64,
    /// Exchanges skipped because the initiator was crashed.
    pub initiator_down: u64,
}

impl TrafficStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one delivered message of `bytes` payload.
    pub fn record_message(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Records one lost message.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Records a skipped initiation.
    pub fn record_initiator_down(&mut self) {
        self.initiator_down += 1;
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.dropped += other.dropped;
        self.initiator_down += other.initiator_down;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = TrafficStats::new();
        t.record_message(100);
        t.record_message(300);
        t.record_drop();
        assert_eq!(t.messages, 2);
        assert_eq!(t.bytes, 400);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = TrafficStats::new();
        a.record_message(10);
        let mut b = TrafficStats::new();
        b.record_message(20);
        b.record_drop();
        a.merge(&b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.bytes, 30);
        assert_eq!(a.dropped, 1);
    }
}

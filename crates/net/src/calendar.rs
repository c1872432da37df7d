//! The sharded executor's event queue: a calendar of epoch buckets.
//!
//! A shard's events are ordered by the key `(at, class, actor, seq)` (see
//! [`crate::executor`]). The queue keeps that order with 32-byte entries —
//! the key plus the slab slot its payload waits in — and without sifting a
//! heap per event: future events wait unsorted in one bucket per epoch
//! quantum (`at / quantum`); when the executor opens a window, which is
//! exactly one bucket, the bucket is sorted once and read from its end.
//! Events that land in the open bucket while it drains — in-shard
//! deliveries at `now`, timers due before the window closes — go to a small
//! side heap, and [`Calendar::pop_before`] takes the lesser of the two
//! heads. Bucket vectors and slab slots are recycled, so a window in steady
//! state allocates nothing.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// An event's place in the total order `(at, class, actor, seq)`.
pub(crate) type Key = (u64, u8, u32, u64);

/// A key and its payload's slab slot, in 32 bytes. Keys are unique, so the
/// slot never decides the order.
type Entry = (u64, u8, u32, u64, u32);

/// A priority queue of payloads under unique [`Key`]s, earliest first.
pub(crate) struct Calendar<T> {
    quantum: u64,
    /// The bucket opened last. Everything at or before it sits in `open`
    /// (sorted, latest first) or `side`; everything after it in `future`.
    open_bucket: Option<u64>,
    open: Vec<Entry>,
    side: BinaryHeap<Reverse<Entry>>,
    future: BTreeMap<u64, Vec<Entry>>,
    /// Emptied bucket vectors, for the next bucket to fill.
    spare: Vec<Vec<Entry>>,
    slab: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Calendar<T> {
    /// An empty queue with buckets `quantum` nanoseconds wide.
    pub(crate) fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "bucket width must be positive");
        Calendar {
            quantum,
            open_bucket: None,
            open: Vec::new(),
            side: BinaryHeap::new(),
            future: BTreeMap::new(),
            spare: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Queues `payload` under `key`, which no other queued event may share.
    pub(crate) fn push(&mut self, (at, class, actor, seq): Key, payload: T) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            (self.slab.len() - 1) as u32
        });
        self.slab[slot as usize] = Some(payload);
        let entry = (at, class, actor, seq, slot);
        let bucket = at / self.quantum;
        if self.open_bucket.is_some_and(|open| bucket <= open) {
            self.side.push(Reverse(entry));
        } else {
            let spare = &mut self.spare;
            let fresh = || spare.pop().unwrap_or_default();
            self.future.entry(bucket).or_insert_with(fresh).push(entry);
        }
    }

    /// Removes and returns the earliest event if it is due before `end`.
    pub(crate) fn pop_before(&mut self, end: u64) -> Option<(Key, T)> {
        if self.open.is_empty() && self.side.is_empty() {
            let first = self.future.first_entry()?;
            if *first.key() * self.quantum >= end {
                return None;
            }
            let (bucket, mut events) = first.remove_entry();
            events.sort_unstable_by(|a, b| b.cmp(a));
            self.spare.push(std::mem::replace(&mut self.open, events));
            self.open_bucket = Some(bucket);
        }
        let from_side = match (self.open.last(), self.side.peek()) {
            (Some(open), Some(Reverse(side))) => side < open,
            (open, _) => open.is_none(),
        };
        let next = match from_side {
            true => self.side.peek().map(|e| e.0),
            false => self.open.last().copied(),
        };
        let (at, class, actor, seq, slot) = next.filter(|e| e.0 < end)?;
        if from_side {
            self.side.pop();
        } else {
            self.open.pop();
        }
        self.free.push(slot);
        let payload = self.slab[slot as usize].take();
        Some((
            (at, class, actor, seq),
            payload.expect("a queued slot holds its payload"),
        ))
    }

    /// When the earliest event is due, `None` when the queue is empty.
    pub(crate) fn next_at(&self) -> Option<u64> {
        let open = self.open.last().map(|e| e.0);
        let side = self.side.peek().map(|e| e.0 .0);
        open.into_iter().chain(side).min().or_else(|| {
            let (_, events) = self.future.first_key_value()?;
            events.iter().map(|e| e.0).min()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar and a plain binary heap consume the same stream and
        /// agree after every operation: the same events in the same order,
        /// the same `next_at`. The stream is what the executor generates —
        /// windows one bucket wide opened at the earliest event, pushes
        /// while one drains at `now` and inside the window, in the next
        /// bucket, one push interval (1 ms) ahead, at the far horizon (the
        /// decrypt deadline) and beyond it, equal instants under every
        /// class, actor and sequence — plus pushes into the past and drains
        /// to arbitrary ends, at quanta below, at and above the interval.
        #[test]
        fn calendar_pops_like_a_binary_heap(
            quantum in (0usize..4).prop_map(|i| [1_000, 250_000, 1_000_000, 4_000_000][i]),
            ops in vec((0u8..10, 0u64..4_000_000, 0u8..3, 0u32..4), 1..400),
        ) {
            let mut calendar = Calendar::new(quantum);
            let mut reference = BinaryHeap::<Reverse<Key>>::new();
            let mut now = 0;
            for (seq, (op, offset, class, actor)) in (0..).zip(ops) {
                let at = match op {
                    0 => now,
                    1 => now + offset % quantum,
                    2 => (now / quantum + 1) * quantum + offset % quantum,
                    3 => now + 1_000_000,
                    4 => now + 5_000_000_000,
                    5 => now + 5_000_000_000 + offset * 1_000_000,
                    6 => offset,
                    _ => {
                        let end = match (op, reference.peek()) {
                            (9, _) => now + offset,
                            (_, Some(&Reverse((at, ..)))) => at - at % quantum + quantum,
                            (_, None) => now + quantum,
                        };
                        while let Some(&Reverse(key)) = reference.peek().filter(|e| e.0 .0 < end) {
                            prop_assert_eq!(calendar.pop_before(end), Some((key, key.3)));
                            reference.pop();
                            now = now.max(key.0);
                        }
                        prop_assert!(calendar.pop_before(end).is_none());
                        prop_assert_eq!(calendar.next_at(), reference.peek().map(|e| e.0 .0));
                        continue;
                    }
                };
                calendar.push((at, class, actor, seq), seq);
                reference.push(Reverse((at, class, actor, seq)));
                prop_assert_eq!(calendar.next_at(), reference.peek().map(|e| e.0 .0));
            }
        }
    }
}

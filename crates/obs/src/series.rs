//! Time-series telemetry: a fixed-capacity ring of [`MetricsSnapshot`]
//! samples with rate/derivative views and windowed quantiles.
//!
//! The point-in-time registry answers "how many so far"; a long-lived
//! daemon also needs "how fast, lately". A [`SeriesRing`] keeps the last
//! `capacity` scrapes (one per step or epoch, pushed by whoever drives the
//! sampling — the ring itself never scrapes), evicting the oldest, and
//! derives the continuous views from them:
//!
//! * **counter rates** — per-interval deltas via [`MetricsSnapshot::since`],
//!   so a daemon restart mid-window reports the post-restart count instead
//!   of a bogus negative (the counter-reset semantics `since` pins down);
//! * **gauge derivatives** — signed level changes between samples;
//! * **windowed quantiles** — p50/p95/p99 from the log₂ histograms of the
//!   newest-minus-oldest window delta, i.e. over the ring's horizon rather
//!   than the process lifetime.
//!
//! [`SeriesRing::view`] flattens all of that into the serializable
//! [`SeriesView`] the `/series` HTTP route returns.

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One sample in a [`SeriesRing`]: a scrape tagged with the tick (step,
/// epoch, or poll number — whatever cadence the sampler chose) it was
/// taken at.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Sampler-defined position on the ring's axis (monotone per process
    /// lifetime; a restart may rewind it, which the rate views absorb).
    pub tick: u64,
    /// The scrape taken at `tick`.
    pub snapshot: MetricsSnapshot,
}

/// A fixed-capacity, drop-oldest ring of metric scrapes.
#[derive(Debug)]
pub struct SeriesRing {
    capacity: usize,
    samples: VecDeque<SeriesSample>,
}

impl SeriesRing {
    /// A ring holding at most `capacity` samples (clamped to at least 2 —
    /// one sample yields no interval, so no rates).
    pub fn new(capacity: usize) -> SeriesRing {
        let capacity = capacity.max(2);
        SeriesRing {
            capacity,
            samples: VecDeque::with_capacity(capacity),
        }
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` iff nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends a sample, evicting the oldest at capacity.
    pub fn record(&mut self, tick: u64, snapshot: MetricsSnapshot) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(SeriesSample { tick, snapshot });
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &SeriesSample> {
        self.samples.iter()
    }

    /// The newest sample, if any.
    pub fn latest(&self) -> Option<&SeriesSample> {
        self.samples.back()
    }

    /// The oldest retained sample, if any.
    pub fn oldest(&self) -> Option<&SeriesSample> {
        self.samples.front()
    }

    /// Consecutive per-interval deltas (`samples[i+1].since(samples[i])`),
    /// oldest interval first — length `len() − 1` (empty below two
    /// samples). Counter-reset semantics are `since`'s: an interval that
    /// spans a restart reports the post-restart counts, never a negative.
    pub fn deltas(&self) -> Vec<MetricsSnapshot> {
        self.samples
            .iter()
            .zip(self.samples.iter().skip(1))
            .map(|(earlier, later)| later.snapshot.since(&earlier.snapshot))
            .collect()
    }

    /// The per-interval rate series of one counter, oldest interval first.
    pub fn counter_rates(&self, name: &str) -> Vec<u64> {
        self.deltas().iter().map(|d| d.counter(name)).collect()
    }

    /// The whole window's delta: newest sample since oldest, `None` below
    /// two samples. This is what the windowed quantiles are computed from.
    fn window_delta(&self) -> Option<MetricsSnapshot> {
        match (self.samples.front(), self.samples.back()) {
            (Some(first), Some(last)) if self.samples.len() >= 2 => {
                Some(last.snapshot.since(&first.snapshot))
            }
            _ => None,
        }
    }

    /// Flattens the ring into the serializable [`SeriesView`] served at
    /// `/series`: ticks, per-counter rates, per-gauge levels, and windowed
    /// p50/p95/p99 for every histogram.
    pub fn view(&self) -> SeriesView {
        let ticks: Vec<u64> = self.samples.iter().map(|s| s.tick).collect();
        let deltas = self.deltas();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut quantiles = Vec::new();
        if let Some(latest) = self.samples.back() {
            counters = latest
                .snapshot
                .counters
                .iter()
                .map(|c| CounterSeries {
                    name: c.name.clone(),
                    total: c.value,
                    rates: deltas.iter().map(|d| d.counter(&c.name)).collect(),
                })
                .collect();
            gauges = latest
                .snapshot
                .gauges
                .iter()
                .map(|g| GaugeSeries {
                    name: g.name.clone(),
                    levels: self
                        .samples
                        .iter()
                        .map(|s| s.snapshot.gauge(&g.name))
                        .collect(),
                })
                .collect();
            // Quantiles over the ring's horizon when there is a window,
            // over the lifetime scrape when only one sample exists yet.
            let window = self.window_delta();
            let source = window.as_ref().unwrap_or(&latest.snapshot);
            quantiles = source
                .histograms
                .iter()
                .filter(|h| h.count > 0)
                .map(|h| QuantileSeries {
                    name: h.name.clone(),
                    count: h.count,
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                })
                .collect();
        }
        SeriesView {
            capacity: self.capacity as u64,
            ticks,
            counters,
            gauges,
            quantiles,
        }
    }
}

/// The rate series of one counter in a [`SeriesView`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSeries {
    /// Metric name.
    pub name: String,
    /// Cumulative value at the newest sample.
    pub total: u64,
    /// Per-interval increments, oldest interval first (`ticks.len() − 1`
    /// entries). Always non-negative: restarts report post-restart counts.
    pub rates: Vec<u64>,
}

/// The level series of one gauge in a [`SeriesView`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSeries {
    /// Metric name.
    pub name: String,
    /// The gauge's level at each retained sample, oldest first.
    pub levels: Vec<i64>,
}

/// Windowed quantile read-out of one histogram in a [`SeriesView`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantileSeries {
    /// Metric name.
    pub name: String,
    /// Observations inside the window.
    pub count: u64,
    /// Median estimate (log₂-bucket upper bound — within 2× of the truth).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// The serializable flattening of a [`SeriesRing`] — the `/series` HTTP
/// payload.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesView {
    /// Ring capacity (samples retained at most).
    pub capacity: u64,
    /// Tick of each retained sample, oldest first.
    pub ticks: Vec<u64>,
    /// Rate series for every counter known to the newest sample.
    pub counters: Vec<CounterSeries>,
    /// Level series for every gauge known to the newest sample.
    pub gauges: Vec<GaugeSeries>,
    /// Windowed p50/p95/p99 for every histogram with in-window data.
    pub quantiles: Vec<QuantileSeries>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn ring_evicts_oldest_and_keeps_capacity() {
        let mut ring = SeriesRing::new(3);
        for tick in 0..5 {
            let registry = Registry::new();
            registry.counter("c").add(tick * 10);
            ring.record(tick, registry.snapshot());
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.oldest().unwrap().tick, 2);
        assert_eq!(ring.latest().unwrap().tick, 4);
        assert_eq!(ring.counter_rates("c"), vec![10, 10]);
    }

    #[test]
    fn rates_stay_non_negative_across_a_restart() {
        // Lifetime 1 counts to 100; the daemon restarts and counts 7.
        let mut ring = SeriesRing::new(8);
        let life1 = Registry::new();
        life1.counter("net.pushes").add(100);
        ring.record(0, life1.snapshot());
        let life2 = Registry::new();
        life2.counter("net.pushes").add(7);
        ring.record(1, life2.snapshot());
        assert_eq!(
            ring.counter_rates("net.pushes"),
            vec![7],
            "the restart interval reports everything since the restart"
        );
    }

    #[test]
    fn window_quantiles_cover_only_the_ring_horizon() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        let mut ring = SeriesRing::new(4);
        h.record(1_000_000); // before the window's first sample
        ring.record(0, registry.snapshot());
        h.record(4);
        h.record(4);
        ring.record(1, registry.snapshot());
        let view = ring.view();
        let q = view.quantiles.iter().find(|q| q.name == "lat").unwrap();
        assert_eq!(q.count, 2, "the pre-window observation is excluded");
        assert_eq!(q.p50, 7, "bucket [4,7] upper bound");
        assert_eq!(q.p99, 7, "the old 1e6 outlier does not leak in");
    }

    #[test]
    fn view_roundtrips_through_serde_json() {
        let registry = Registry::new();
        registry.counter("c").add(2);
        registry.gauge("g").set(-4);
        registry.histogram("h").record(9);
        let mut ring = SeriesRing::new(4);
        ring.record(7, registry.snapshot());
        registry.counter("c").add(3);
        ring.record(8, registry.snapshot());
        let view = ring.view();
        let json = serde_json::to_string(&view).unwrap();
        let back: SeriesView = serde_json::from_str(&json).unwrap();
        assert_eq!(back, view);
        assert_eq!(back.ticks, vec![7, 8]);
        let c = back.counters.iter().find(|c| c.name == "c").unwrap();
        assert_eq!((c.total, c.rates.clone()), (5, vec![3]));
    }
}

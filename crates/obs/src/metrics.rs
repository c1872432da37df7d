//! The lock-cheap metrics registry: counters, gauges, and fixed
//! log₂-bucket histograms.
//!
//! The design rule is that the hot path never takes a lock: a metric is
//! registered once (one mutex acquisition, get-or-create by name) and the
//! caller keeps the returned [`Arc`] handle — after that, every update is
//! one relaxed atomic operation. Scraping ([`Registry::snapshot`]) takes
//! the registry lock once and reads every atomic, producing a
//! [`MetricsSnapshot`] that serializes, sums across a cluster
//! ([`MetricsSnapshot::plus`]), and deltas against a previous scrape
//! ([`MetricsSnapshot::since`]) with exactly the arithmetic
//! `cs_net::transport::TrafficSnapshot` uses for traffic accounting.
//!
//! Relaxed ordering is deliberate and sufficient: metrics are monotone
//! event counts, not synchronization edges — the transports' own
//! `[[AtomicU64; 3]; 3]` accounting arrays set the precedent.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero, one per bit width of a
/// non-zero `u64` value.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed level (queue depths, in-flight counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` values with fixed log₂-scale buckets: bucket 0
/// holds zeros, bucket `i ≥ 1` holds values of bit width `i`, i.e. the
/// range `[2^(i-1), 2^i - 1]`. Recording is branch-free on the bucket
/// choice (`leading_zeros`) plus three relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in: 0 for 0, otherwise the value's bit
/// width (1..=64).
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value bucket `i` admits (`0` for bucket 0, `2^i - 1`
/// otherwise, saturating at `u64::MAX` for bucket 64).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) of everything
    /// recorded so far. See [`HistogramValue::quantile`] for the exact
    /// semantics and the log₂-bucket error bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        quantile_scan(
            count,
            self.buckets
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.load(Ordering::Relaxed))),
            q,
        )
    }
}

/// Shared quantile walk over `(bucket index, count)` pairs in ascending
/// bucket order: the upper bound of the bucket holding the rank-`q`
/// observation.
fn quantile_scan(count: u64, buckets: impl Iterator<Item = (usize, u64)>, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    // Rank of the quantile observation, 1-based: q = 0 picks the smallest
    // observation, q = 1 the largest, ties round up (nearest-rank method).
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, c) in buckets {
        seen += c;
        if seen >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Metric name (dot-separated, see `docs/observability.md`).
    pub name: String,
    /// Value at scrape time.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeValue {
    /// Metric name.
    pub name: String,
    /// Level at scrape time.
    pub value: i64,
}

/// One non-empty histogram bucket in a [`HistogramValue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index (see [`bucket_index`] / [`bucket_upper_bound`]).
    pub bucket: u8,
    /// Observations in the bucket.
    pub count: u64,
}

/// One histogram in a [`MetricsSnapshot`] — sparse (only non-empty
/// buckets), sorted by bucket index.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramValue {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<BucketCount>,
}

/// A point-in-time scrape of a [`Registry`]: every metric, sorted by name,
/// in a shape the vendored serde stand-in can carry (sorted vectors, not
/// maps). Snapshots compose like `TrafficSnapshot`: [`plus`] sums across
/// sources, [`since`] deltas against an earlier scrape of the same source.
///
/// [`plus`]: MetricsSnapshot::plus
/// [`since`]: MetricsSnapshot::since
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, ascending by name.
    pub counters: Vec<CounterValue>,
    /// All gauges, ascending by name.
    pub gauges: Vec<GaugeValue>,
    /// All histograms, ascending by name.
    pub histograms: Vec<HistogramValue>,
}

impl HistogramValue {
    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by the
    /// nearest-rank method over the log₂ buckets, returning the upper
    /// bound of the bucket the rank-`q` observation landed in.
    ///
    /// **Error bound.** Bucket `i ≥ 1` spans `[2^(i-1), 2^i − 1]`, so the
    /// estimate is never *below* the true quantile value and overshoots it
    /// by strictly less than a factor of 2 (`estimate < 2 · true`); values
    /// 0 and 1 are exact (buckets 0 and 1 are singletons). That relative
    /// bound is the histogram's design trade: recording is one
    /// `leading_zeros`, and a p99 read-out that is right to within 2× is
    /// plenty for latency/size SLOs spanning orders of magnitude.
    ///
    /// An empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_scan(
            self.count,
            self.buckets.iter().map(|b| (b.bucket as usize, b.count)),
            q,
        )
    }
}

impl MetricsSnapshot {
    /// The named counter's value, `0` if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// The named gauge's level, `0` if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0, |g| g.value)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramValue> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Element-wise sum (union of names) — cluster totals from per-node
    /// snapshots, mirroring `TrafficSnapshot::plus`.
    pub fn plus(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        merge(self, other, u64::wrapping_add, i64::wrapping_add)
    }

    /// The delta of this snapshot against an *earlier* scrape of the same
    /// source — per-step deltas, mirroring `TrafficSnapshot::since`.
    ///
    /// The semantics are defined for the two situations a live cluster
    /// actually produces:
    ///
    /// * **Disjoint key sets.** The delta's domain is exactly *this*
    ///   (later) snapshot's metric names. A name that appears only here is
    ///   a newly registered metric and deltas against zero; a name present
    ///   only in `earlier` (the source restarted with a registry that has
    ///   not re-created it) is dropped — no phantom zero entries.
    /// * **Counter reset after a restart.** Counters and histogram counts
    ///   are monotone within one process lifetime, so a later value
    ///   *below* the earlier one means the source restarted and re-counted
    ///   from zero; the delta is then the later value itself (everything
    ///   since the restart), never a saturated 0 that would silently lose
    ///   the post-restart increments. A histogram that reset is taken
    ///   wholesale for the same reason.
    ///
    /// Gauges are levels, not monotone counts, so their delta is a signed
    /// subtraction (against 0 when newly registered).
    ///
    /// For a monotone, restart-free source whose key set only grows —
    /// every per-step daemon scrape — `earlier.plus(&delta)` reassembles
    /// this snapshot exactly.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let then_counters: BTreeMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        let then_gauges: BTreeMap<&str, i64> = earlier
            .gauges
            .iter()
            .map(|g| (g.name.as_str(), g.value))
            .collect();
        let then_histograms: BTreeMap<&str, &HistogramValue> = earlier
            .histograms
            .iter()
            .map(|h| (h.name.as_str(), h))
            .collect();
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| {
                    let then = then_counters.get(c.name.as_str()).copied().unwrap_or(0);
                    CounterValue {
                        name: c.name.clone(),
                        value: if c.value >= then {
                            c.value - then
                        } else {
                            c.value // reset: count everything since restart
                        },
                    }
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| {
                    let then = then_gauges.get(g.name.as_str()).copied().unwrap_or(0);
                    GaugeValue {
                        name: g.name.clone(),
                        value: g.value.wrapping_sub(then),
                    }
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|h| match then_histograms.get(h.name.as_str()) {
                    Some(then) if h.count >= then.count => diff_histogram(h, then),
                    _ => h.clone(), // newly registered, or reset: take wholesale
                })
                .collect(),
        }
    }
}

/// Per-bucket difference of a histogram against an earlier scrape of the
/// same (non-reset) histogram.
fn diff_histogram(later: &HistogramValue, earlier: &HistogramValue) -> HistogramValue {
    let mut now = [0u64; HISTOGRAM_BUCKETS];
    let mut then = [0u64; HISTOGRAM_BUCKETS];
    for bc in &later.buckets {
        now[bc.bucket as usize] = bc.count;
    }
    for bc in &earlier.buckets {
        then[bc.bucket as usize] = bc.count;
    }
    HistogramValue {
        name: later.name.clone(),
        count: later.count - earlier.count,
        sum: later.sum.saturating_sub(earlier.sum),
        buckets: (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let count = now[i].saturating_sub(then[i]);
                (count != 0).then_some(BucketCount {
                    bucket: i as u8,
                    count,
                })
            })
            .collect(),
    }
}

/// Merges two snapshots name-by-name with the given combining operators
/// (the right-hand snapshot's lone entries combine against zero).
fn merge(
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    op_u: fn(u64, u64) -> u64,
    op_i: fn(i64, i64) -> i64,
) -> MetricsSnapshot {
    let mut counters: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for c in &a.counters {
        counters.entry(&c.name).or_default().0 = c.value;
    }
    for c in &b.counters {
        counters.entry(&c.name).or_default().1 = c.value;
    }
    let mut gauges: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for g in &a.gauges {
        gauges.entry(&g.name).or_default().0 = g.value;
    }
    for g in &b.gauges {
        gauges.entry(&g.name).or_default().1 = g.value;
    }
    let mut histograms: BTreeMap<&str, (Option<&HistogramValue>, Option<&HistogramValue>)> =
        BTreeMap::new();
    for h in &a.histograms {
        histograms.entry(&h.name).or_default().0 = Some(h);
    }
    for h in &b.histograms {
        histograms.entry(&h.name).or_default().1 = Some(h);
    }
    MetricsSnapshot {
        counters: counters
            .into_iter()
            .map(|(name, (x, y))| CounterValue {
                name: name.to_string(),
                value: op_u(x, y),
            })
            .collect(),
        gauges: gauges
            .into_iter()
            .map(|(name, (x, y))| GaugeValue {
                name: name.to_string(),
                value: op_i(x, y),
            })
            .collect(),
        histograms: histograms
            .into_iter()
            .map(|(name, (x, y))| merge_histogram(name, x, y, op_u))
            .collect(),
    }
}

fn merge_histogram(
    name: &str,
    a: Option<&HistogramValue>,
    b: Option<&HistogramValue>,
    op: fn(u64, u64) -> u64,
) -> HistogramValue {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    let mut other = [0u64; HISTOGRAM_BUCKETS];
    for bc in a.map_or(&[][..], |h| &h.buckets) {
        buckets[bc.bucket as usize] = bc.count;
    }
    for bc in b.map_or(&[][..], |h| &h.buckets) {
        other[bc.bucket as usize] = bc.count;
    }
    HistogramValue {
        name: name.to_string(),
        count: op(a.map_or(0, |h| h.count), b.map_or(0, |h| h.count)),
        sum: op(a.map_or(0, |h| h.sum), b.map_or(0, |h| h.sum)),
        buckets: (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let count = op(buckets[i], other[i]);
                (count != 0).then_some(BucketCount {
                    bucket: i as u8,
                    count,
                })
            })
            .collect(),
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The metric registry: named handles, get-or-create, one lock that the
/// hot path never sees (handles are resolved once, updates are atomics).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The named counter, created on first use. Call once and keep the
    /// handle; resolving by name takes the registry lock.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Scrapes every metric into a serializable, order-stable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| CounterValue {
                    name: name.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| GaugeValue {
                    name: name.clone(),
                    value: g.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    // Sized before it is filled: how often a snapshot
                    // allocates must not depend on how many buckets a
                    // wall-clock histogram happens to touch (the executor's
                    // allocation budget counts to the digit).
                    let counts: [u64; HISTOGRAM_BUCKETS] =
                        std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed));
                    let mut buckets =
                        Vec::with_capacity(counts.iter().filter(|&&c| c != 0).count());
                    let touched = counts.iter().enumerate().filter(|(_, &c)| c != 0);
                    buckets.extend(touched.map(|(i, &count)| BucketCount {
                        bucket: i as u8,
                        count,
                    }));
                    HistogramValue {
                        name: name.clone(),
                        count: h.count(),
                        sum: h.sum(),
                        buckets,
                    }
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn concurrent_increments_are_not_lost() {
        let registry = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = registry.counter("test.hits");
                let h = registry.histogram("test.sizes");
                thread::spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("test.hits"), threads * per_thread);
        let h = snap.histogram("test.sizes").unwrap();
        assert_eq!(h.count, threads * per_thread);
        assert_eq!(h.sum, threads * per_thread * (per_thread - 1) / 2);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact_powers_of_two() {
        // Value → bucket: 0→0, 1→1, [2,3]→2, [4,7]→3, … [2^(i-1), 2^i-1]→i.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i} stays in");
            assert_eq!(bucket_index(hi + 1), i + 1, "successor leaves bucket {i}");
        }

        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        let counts: Vec<u64> = h.buckets[..5]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // 0 → bucket 0, 1 → bucket 1, {2, 3} → bucket 2, 4 → bucket 3.
        assert_eq!(counts, vec![1, 1, 2, 1, 0]);
    }

    #[test]
    fn quantiles_at_bucket_edges_report_the_bucket_upper_bound() {
        let h = Histogram::default();
        // One observation exactly on each edge of bucket 3 ([4, 7]).
        h.record(4);
        h.record(7);
        // q=0 → smallest observation's bucket, q=1 → largest; both land in
        // bucket 3 whose upper bound is 7.
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 7);

        // Straddle a bucket boundary: 8 opens bucket 4 ([8, 15]).
        h.record(8);
        assert_eq!(h.quantile(0.0), 7, "rank 1 of 3 stays in bucket 3");
        assert_eq!(h.quantile(0.5), 7, "rank 2 of 3 stays in bucket 3");
        assert_eq!(h.quantile(1.0), 15, "rank 3 of 3 is the new bucket");
        // p99 of 3 observations is the max by nearest rank.
        assert_eq!(h.quantile(0.99), 15);
    }

    #[test]
    fn quantile_estimates_never_undershoot_and_stay_within_2x() {
        let h = Histogram::default();
        let values = [1u64, 2, 3, 5, 9, 100, 1000, 65_535, 65_536];
        for v in values {
            h.record(v);
        }
        let snap = {
            let registry = Registry::new();
            for v in values {
                registry.histogram("t").record(v);
            }
            registry.snapshot()
        };
        let hv = snap.histogram("t").unwrap();
        let mut sorted = values;
        sorted.sort_unstable();
        for (i, q) in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
            .iter()
            .enumerate()
        {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = sorted[rank - 1];
            for est in [h.quantile(*q), hv.quantile(*q)] {
                assert!(est >= truth, "case {i}: estimate {est} < true {truth}");
                assert!(est < truth * 2, "case {i}: estimate {est} ≥ 2·{truth}");
            }
        }
        // Live histogram and snapshot agree.
        assert_eq!(h.quantile(0.5), hv.quantile(0.5));
    }

    #[test]
    fn quantile_of_an_empty_histogram_is_zero() {
        assert_eq!(Histogram::default().quantile(0.99), 0);
        let hv = HistogramValue {
            name: "empty".into(),
            count: 0,
            sum: 0,
            buckets: vec![],
        };
        assert_eq!(hv.quantile(0.5), 0);
    }

    #[test]
    fn snapshot_since_inverts_plus() {
        let registry = Registry::new();
        registry.counter("a").add(5);
        registry.gauge("g").set(-3);
        registry.histogram("h").record(100);
        let before = registry.snapshot();

        registry.counter("a").add(7);
        registry.counter("b").add(2);
        registry.gauge("g").set(4);
        registry.histogram("h").record(9);
        let after = registry.snapshot();

        let delta = after.since(&before);
        assert_eq!(delta.counter("a"), 7);
        assert_eq!(delta.counter("b"), 2);
        assert_eq!(delta.gauge("g"), 7); // −3 → 4
        let h = delta.histogram("h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9);
        assert_eq!(
            h.buckets,
            vec![BucketCount {
                bucket: 4,
                count: 1
            }]
        );

        // Delta plus baseline reassembles the later scrape, exactly the
        // TrafficSnapshot identity the coordinator relies on.
        assert_eq!(before.plus(&delta), after);
    }

    #[test]
    fn since_drops_keys_that_disappeared_and_keeps_new_ones() {
        let mut earlier = MetricsSnapshot::default();
        earlier.counters.push(CounterValue {
            name: "old.only".into(),
            value: 9,
        });
        earlier.gauges.push(GaugeValue {
            name: "old.gauge".into(),
            value: 5,
        });

        let registry = Registry::new();
        registry.counter("new.only").add(3);
        registry.gauge("new.gauge").set(-2);
        registry.histogram("new.hist").record(7);
        let later = registry.snapshot();

        let delta = later.since(&earlier);
        assert!(
            delta.counters.iter().all(|c| c.name != "old.only"),
            "a metric absent from the later scrape must not fabricate a \
             phantom zero entry: {delta:?}"
        );
        assert!(delta.gauges.iter().all(|g| g.name != "old.gauge"));
        assert_eq!(delta.counter("new.only"), 3, "new keys delta against 0");
        assert_eq!(delta.gauge("new.gauge"), -2);
        assert_eq!(delta.histogram("new.hist").unwrap().count, 1);
    }

    #[test]
    fn since_survives_a_counter_reset_after_restart() {
        // First lifetime: the daemon counted to 100.
        let registry = Registry::new();
        registry.counter("net.pushes").add(100);
        registry.histogram("net.sizes").record(50);
        registry.histogram("net.sizes").record(60);
        let before_restart = registry.snapshot();

        // The daemon restarts (fresh registry) and counts 4 more.
        let reborn = Registry::new();
        reborn.counter("net.pushes").add(4);
        reborn.histogram("net.sizes").record(10);
        let after_restart = reborn.snapshot();

        let delta = after_restart.since(&before_restart);
        assert_eq!(
            delta.counter("net.pushes"),
            4,
            "a reset counter reports everything since the restart, \
             not a saturated 0"
        );
        let h = delta.histogram("net.sizes").unwrap();
        assert_eq!(h.count, 1, "a reset histogram is taken wholesale");
        assert_eq!(h.sum, 10);
        assert_eq!(
            h.buckets,
            vec![BucketCount {
                bucket: 4,
                count: 1
            }]
        );
    }

    #[test]
    fn since_still_inverts_plus_for_monotone_growing_sources() {
        // The contract the coordinator's per-step delta discipline relies
        // on: key sets only grow, counters only rise ⇒ exact inversion.
        let registry = Registry::new();
        registry.counter("a").add(1);
        let before = registry.snapshot();
        registry.counter("a").add(10);
        registry.counter("b").inc();
        registry.histogram("h").record(3);
        let after = registry.snapshot();
        assert_eq!(before.plus(&after.since(&before)), after);
    }

    #[test]
    fn snapshots_roundtrip_through_serde_json() {
        let registry = Registry::new();
        registry.counter("x.count").add(3);
        registry.gauge("x.depth").set(-2);
        registry.histogram("x.hist").record(42);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}

//! Low-overhead instruments: lock-free log2-bucketed histograms and
//! per-thread sharded counters.
//!
//! Both are designed for hot paths that must stay cheap whether or not a
//! sink is installed: recording is one or two relaxed atomic RMWs, no
//! locks, no allocation. Aggregation (snapshots, sums, percentiles) pays
//! the cost instead and runs at phase boundaries only.

use crate::event::{Event, EventKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: bucket `b > 0` covers `[2^(b-1), 2^b)`,
/// bucket 0 holds zero samples. Values at or above `2^62` clamp into the
/// last bucket.
pub const HIST_BUCKETS: usize = 63;

/// A lock-free histogram over `u64` samples with logarithmic buckets.
///
/// [`record`](Histogram::record) is wait-free (one relaxed `fetch_add`
/// per bucket/count/sum plus a `fetch_max`), so it can be shared by any
/// number of worker threads without coordination. Read it back with
/// [`snapshot`](Histogram::snapshot).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index a value lands in.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper edge of bucket `b` (also the Prometheus `le` bound
/// [`crate::promtext`] renders for it).
pub(crate) fn bucket_edge(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free; safe from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy for reporting (individual loads are
    /// relaxed; concurrent writers may straddle the snapshot by a
    /// sample, which reporting tolerates).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`], the form that travels through
/// events, reports, and result artifacts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

impl HistSnapshot {
    /// True iff no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (0–100), interpolated linearly
    /// within the bucket containing that rank (assuming samples spread
    /// uniformly across the bucket, each occupying the midpoint of its
    /// 1/c slice). The top rank returns the exact observed maximum and
    /// the bucket range is clamped to it, so a single-sample bucket
    /// reports a value inside the bucket rather than its upper edge.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if seen + c >= rank && c > 0 {
                let lo = if b == 0 { 0 } else { bucket_edge(b - 1) + 1 };
                let hi = bucket_edge(b).min(self.max);
                if hi <= lo {
                    return hi;
                }
                let pos = (rank - seen) as f64 - 0.5;
                return lo + ((pos / c as f64) * (hi - lo) as f64).round() as u64;
            }
            seen += c;
        }
        self.max
    }

    /// Records one sample directly into the snapshot (the plain-data
    /// path used by the registry's labeled histograms; concurrent
    /// recording belongs on [`Histogram`]).
    pub fn record(&mut self, v: u64) {
        if self.buckets.len() < HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Adds another snapshot into this one bucket-wise.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The event-attr encoding (inverse of [`HistSnapshot::from_attrs`]).
    /// Buckets serialize sparsely as `index:count` pairs.
    pub fn to_attrs(&self) -> Vec<(String, String)> {
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(b, c)| format!("{b}:{c}"))
            .collect();
        vec![
            ("count".into(), self.count.to_string()),
            ("sum".into(), self.sum.to_string()),
            ("max".into(), self.max.to_string()),
            ("p50".into(), self.percentile(50.0).to_string()),
            ("p90".into(), self.percentile(90.0).to_string()),
            ("p99".into(), self.percentile(99.0).to_string()),
            ("buckets".into(), buckets.join(",")),
        ]
    }

    /// Reconstructs a snapshot from event attrs; `None` if the encoding
    /// is not one [`HistSnapshot::to_attrs`] produced.
    pub fn from_attrs(attrs: &[(String, String)]) -> Option<Self> {
        let get = |k: &str| attrs.iter().find(|(a, _)| a == k).map(|(_, v)| v.as_str());
        let mut snap = HistSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            count: get("count")?.parse().ok()?,
            sum: get("sum")?.parse().ok()?,
            max: get("max")?.parse().ok()?,
        };
        let buckets = get("buckets")?;
        for pair in buckets.split(',').filter(|s| !s.is_empty()) {
            let (b, c) = pair.split_once(':')?;
            let b: usize = b.parse().ok()?;
            if b >= snap.buckets.len() {
                snap.buckets.resize(b + 1, 0);
            }
            snap.buckets[b] = c.parse().ok()?;
        }
        Some(snap)
    }

    /// The snapshot as an [`Event`] (kind [`EventKind::Hist`]); `value`
    /// carries the sample count for quick scanning.
    pub fn to_event(&self, name: &str) -> Event {
        Event {
            kind: EventKind::Hist,
            name: name.to_string(),
            id: 0,
            parent: 0,
            thread: 0,
            t_us: crate::now_us(),
            dur_us: 0,
            value: self.count as f64,
            attrs: self.to_attrs(),
        }
    }
}

/// Shard count for [`ShardedCounter`]; a power of two so the thread
/// ordinal maps with a mask.
const COUNTER_SHARDS: usize = 16;

#[repr(align(64))]
#[derive(Debug)]
struct PaddedCell(AtomicU64);

/// A counter sharded across cache-line-padded cells indexed by the
/// calling thread's ordinal, so concurrent increments from a worker pool
/// do not contend on one cache line. Reads sum all cells.
#[derive(Debug)]
pub struct ShardedCounter {
    cells: [PaddedCell; COUNTER_SHARDS],
}

impl Default for ShardedCounter {
    fn default() -> Self {
        ShardedCounter::new()
    }
}

impl ShardedCounter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        ShardedCounter { cells: [const { PaddedCell(AtomicU64::new(0)) }; COUNTER_SHARDS] }
    }

    /// Adds `delta` to the calling thread's shard.
    pub fn add(&self, delta: u64) {
        let shard = crate::thread_ordinal() as usize & (COUNTER_SHARDS - 1);
        self.cells[shard].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The total across all shards.
    pub fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_bucket() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_edge(0), 0);
        assert_eq!(bucket_edge(3), 7);
    }

    #[test]
    fn percentiles_and_mean() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean(), 50.5);
        // Uniform 1..=100: interpolation inside the log2 buckets lands
        // on the exact order statistics, not the bucket upper edges.
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(90.0), 90);
        assert_eq!(s.percentile(99.0), 99);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.percentile(0.0), 1);
        let empty = HistSnapshot::default();
        assert_eq!(empty.percentile(50.0), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn single_sample_buckets_interpolate_instead_of_reporting_the_edge() {
        // One sample per bucket: the old estimator returned the bucket
        // upper edge (127 for a sample of 100); interpolation stays
        // inside the bucket and the top rank is the exact max.
        let h = Histogram::new();
        h.record(100);
        h.record(600);
        let s = h.snapshot();
        // rank 1 → bucket [64, 127], single sample → midpoint-ish, not 127.
        assert_eq!(s.percentile(50.0), 96);
        // top rank → exact observed maximum.
        assert_eq!(s.percentile(99.0), 600);
        // A lone sample reports itself at every percentile.
        let one = Histogram::new();
        one.record(600);
        let s = one.snapshot();
        assert_eq!(s.percentile(50.0), 600);
        assert_eq!(s.percentile(99.0), 600);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        a.record(9);
        b.record(1000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1014);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn attrs_roundtrip() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 7, 300, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        let back = HistSnapshot::from_attrs(&s.to_attrs()).expect("attrs parse back");
        assert_eq!(back.count, s.count);
        assert_eq!(back.sum, s.sum);
        assert_eq!(back.max, s.max);
        assert_eq!(back.buckets[..HIST_BUCKETS], s.buckets[..]);
        assert!(HistSnapshot::from_attrs(&[("count".into(), "x".into())]).is_none());
    }

    #[test]
    fn histogram_event_roundtrips_through_the_parser() {
        let h = Histogram::new();
        h.record(12);
        h.record(90);
        let line = h.snapshot().to_event("search.task.nodes").to_json_line();
        let back = crate::report::parse_event_line(&line).expect("hist line parses");
        assert_eq!(back.kind, EventKind::Hist);
        let snap = HistSnapshot::from_attrs(&back.attrs).expect("snapshot decodes");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 102);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        let c = ShardedCounter::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (h, c) = (&h, &c);
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                        c.add(1);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4 * 1000);
        assert_eq!(c.sum(), 4 * 1000);
    }

    #[test]
    fn sharded_counter_sums_across_shards() {
        let c = ShardedCounter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.sum(), 7);
    }
}

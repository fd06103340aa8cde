//! The signal store: a thread-safe, time-indexed repository.
//!
//! The store is **sharded**: days are hashed onto `N` lock-striped shards
//! (each a `parking_lot::RwLock<BTreeMap<Date, Vec<Signal>>>`), so
//! concurrent ingestion workers writing different days contend on
//! different locks instead of serialising on one. A day lives in exactly
//! one shard, which keeps per-day queries single-lock and lets window
//! scans merge the shards by date. Per-kind totals are maintained in
//! `AtomicUsize` counters at insert time, making [`SignalStore::len`] and
//! [`SignalStore::count_kind`] O(1) instead of O(signals).
//!
//! [`SignalStore::with_shards(1)`](SignalStore::with_shards) degenerates to
//! the old single-lock store — the `store_contention` bench uses it as the
//! baseline the sharded layout is measured against.

use crate::signals::{Signal, SignalKind};
use analytics::time::Date;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default shard count: enough stripes that 8–16 ingestion workers rarely
/// collide, small enough that window scans stay cheap.
const DEFAULT_SHARDS: usize = 16;

type DayMap = BTreeMap<Date, Vec<Signal>>;

/// Thread-safe signal repository, lock-striped by day.
#[derive(Debug)]
pub struct SignalStore {
    shards: Vec<RwLock<DayMap>>,
    /// Per-[`SignalKind`] totals, indexed by [`kind_index`].
    counts: [AtomicUsize; 3],
}

/// Counter slot of a signal kind.
fn kind_index(kind: SignalKind) -> usize {
    match kind {
        SignalKind::Implicit => 0,
        SignalKind::Explicit => 1,
        SignalKind::Social => 2,
    }
}

impl Default for SignalStore {
    fn default() -> SignalStore {
        SignalStore::new()
    }
}

impl SignalStore {
    /// Empty store with the default shard count.
    pub fn new() -> SignalStore {
        SignalStore::with_shards(DEFAULT_SHARDS)
    }

    /// Empty store with an explicit shard count (≥ 1). `with_shards(1)` is
    /// the single-lock layout.
    pub fn with_shards(shards: usize) -> SignalStore {
        let shards = shards.max(1);
        SignalStore {
            shards: (0..shards).map(|_| RwLock::new(DayMap::new())).collect(),
            counts: [
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            ],
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard owning `date`. Fibonacci hashing scatters consecutive days so
    /// a date-striding producer doesn't walk the shards in lockstep.
    fn shard_index(&self, date: Date) -> usize {
        let h = (date.days() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Insert one signal.
    pub fn insert(&self, signal: Signal) {
        self.counts[kind_index(signal.kind())].fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[self.shard_index(signal.date)];
        shard.write().entry(signal.date).or_default().push(signal);
    }

    /// Insert a batch, locking each involved shard once. Signals are routed
    /// to per-shard buckets first, so a batch spanning many days still takes
    /// one write-lock acquisition per shard rather than one per signal.
    pub fn insert_batch(&self, signals: Vec<Signal>) {
        if signals.is_empty() {
            return;
        }
        let mut buckets: Vec<Vec<Signal>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut kind_deltas = [0usize; 3];
        for s in signals {
            kind_deltas[kind_index(s.kind())] += 1;
            buckets[self.shard_index(s.date)].push(s);
        }
        for (kind, delta) in kind_deltas.into_iter().enumerate() {
            if delta > 0 {
                self.counts[kind].fetch_add(delta, Ordering::Relaxed);
            }
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            let mut guard = shard.write();
            for s in bucket {
                guard.entry(s.date).or_default().push(s);
            }
        }
    }

    /// Total signals stored. O(1): sums the per-kind atomic counters.
    pub fn len(&self) -> usize {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of signals of one kind. O(1): reads the kind's counter.
    pub fn count_kind(&self, kind: SignalKind) -> usize {
        self.counts[kind_index(kind)].load(Ordering::Relaxed)
    }

    /// First and last day with data.
    pub fn date_range(&self) -> Option<(Date, Date)> {
        let mut range: Option<(Date, Date)> = None;
        for shard in &self.shards {
            let guard = shard.read();
            let (Some(&first), Some(&last)) = (guard.keys().next(), guard.keys().next_back())
            else {
                continue;
            };
            range = Some(match range {
                None => (first, last),
                Some((lo, hi)) => (lo.min(first), hi.max(last)),
            });
        }
        range
    }

    /// Clone out the signals of a day (empty if none). Touches exactly the
    /// one shard owning the day.
    pub fn on(&self, date: Date) -> Vec<Signal> {
        self.shards[self.shard_index(date)]
            .read()
            .get(&date)
            .cloned()
            .unwrap_or_default()
    }

    /// Visit every signal in `[from, to]` in date order without cloning.
    ///
    /// All shard read-guards are held for the duration, so the visit sees a
    /// consistent snapshot of completed inserts; per-day buckets are merged
    /// by date across shards (a day lives in exactly one shard, so a sort of
    /// per-day references is a true merge).
    pub fn for_each_between<F: FnMut(&Signal)>(&self, from: Date, to: Date, mut f: F) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut days: Vec<(&Date, &Vec<Signal>)> =
            guards.iter().flat_map(|g| g.range(from..=to)).collect();
        days.sort_by_key(|(date, _)| **date);
        for (_, signals) in days {
            for s in signals {
                f(s);
            }
        }
    }

    /// Visit every non-empty day in date order, handing each day's full
    /// signal bucket to `f` — the snapshot-export path of the persist
    /// layer. Like [`SignalStore::for_each_between`], all shard read
    /// guards are held for the duration so the export is a consistent
    /// point-in-time view of completed inserts.
    pub fn for_each_day<F: FnMut(Date, &[Signal])>(&self, mut f: F) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut days: Vec<(&Date, &Vec<Signal>)> = guards.iter().flat_map(|g| g.iter()).collect();
        days.sort_by_key(|(date, _)| **date);
        for (date, signals) in days {
            f(*date, signals);
        }
    }

    /// Number of distinct days holding at least one signal.
    pub fn day_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Clone out all signals in `[from, to]` — the **allocating
    /// convenience path**, which deep-copies every signal in the window
    /// (including boxed session records and post text).
    ///
    /// Use it when the caller needs owned signals that outlive the store
    /// borrow. Analyses that only *read* the window should use
    /// [`SignalStore::for_each_between`] instead, which visits the same
    /// signals in the same date order with zero copies.
    pub fn between(&self, from: Date, to: Date) -> Vec<Signal> {
        let mut out = Vec::new();
        self.for_each_between(from, to, |s| out.push(s.clone()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{ExplicitSignal, Payload, SocialSignal};

    fn d(day: u8) -> Date {
        Date::from_ymd(2022, 4, day).unwrap()
    }

    fn signal(day: u8, rating: u8) -> Signal {
        Signal {
            date: d(day),
            network: crate::signals::NetworkHint::Unknown,
            payload: Payload::Explicit(ExplicitSignal {
                rating,
                call_id: 1,
                user_id: 2,
            }),
        }
    }

    fn social(day: u8) -> Signal {
        Signal {
            date: d(day),
            network: crate::signals::NetworkHint::SatelliteLeo,
            payload: Payload::Social(SocialSignal {
                text: "down again".into(),
                upvotes: 1,
                comments: 0,
                country: "US",
                sentiment: sentiment::analyzer::SentimentAnalyzer::default().score("down again"),
                screenshot_text: None,
            }),
        }
    }

    #[test]
    fn insert_and_query() {
        let store = SignalStore::new();
        assert!(store.is_empty());
        store.insert(signal(10, 5));
        store.insert_batch(vec![signal(12, 4), signal(12, 3)]);
        store.insert_batch(vec![]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.on(d(12)).len(), 2);
        assert_eq!(store.on(d(11)).len(), 0);
        assert_eq!(store.between(d(10), d(12)).len(), 3);
        assert_eq!(store.between(d(11), d(11)).len(), 0);
        assert_eq!(store.date_range(), Some((d(10), d(12))));
        assert_eq!(store.count_kind(SignalKind::Explicit), 3);
        assert_eq!(store.count_kind(SignalKind::Social), 0);
    }

    #[test]
    fn kind_counters_track_mixed_batches() {
        let store = SignalStore::new();
        store.insert_batch(vec![signal(3, 4), social(3), social(9), signal(20, 2)]);
        store.insert(social(20));
        assert_eq!(store.count_kind(SignalKind::Explicit), 2);
        assert_eq!(store.count_kind(SignalKind::Social), 3);
        assert_eq!(store.count_kind(SignalKind::Implicit), 0);
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let store = std::sync::Arc::new(SignalStore::new());
        crossbeam::thread::scope(|scope| {
            for t in 0..8 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move |_| {
                    for i in 0..200 {
                        store.insert(signal((1 + (t + i) % 28) as u8, 3));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(store.len(), 1600);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        // Writers hammer per-shard locks while readers take cross-shard
        // snapshots; totals and window scans must stay coherent throughout.
        let store = std::sync::Arc::new(SignalStore::with_shards(8));
        crossbeam::thread::scope(|scope| {
            for t in 0..8u64 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move |_| {
                    for i in 0..100 {
                        let day = (1 + (t as usize + i) % 28) as u8;
                        if i % 4 == 0 {
                            store.insert_batch(vec![signal(day, 5), social(day)]);
                        } else {
                            store.insert(signal(day, 1));
                        }
                    }
                });
            }
            for _ in 0..4 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move |_| {
                    for _ in 0..50 {
                        // A snapshot is internally consistent: the window
                        // scan never observes more than the counters admit
                        // once writers are done, and intermediate reads
                        // never panic or tear.
                        let seen = store.between(d(1), d(28)).len();
                        assert!(seen <= 8 * 125);
                        let _ = store.date_range();
                        let _ = store.on(d(7));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(store.len(), 8 * 125);
        assert_eq!(store.count_kind(SignalKind::Social), 8 * 25);
        assert_eq!(store.between(d(1), d(28)).len(), 8 * 125);
    }

    #[test]
    fn day_export_covers_every_signal_in_order() {
        let store = SignalStore::new();
        store.insert(signal(20, 1));
        store.insert_batch(vec![signal(5, 2), social(5), signal(12, 3)]);
        assert_eq!(store.day_count(), 3);
        let mut seen = Vec::new();
        store.for_each_day(|date, signals| seen.push((date, signals.len())));
        assert_eq!(seen, vec![(d(5), 2), (d(12), 1), (d(20), 1)]);
        let empty = SignalStore::new();
        assert_eq!(empty.day_count(), 0);
        empty.for_each_day(|_, _| panic!("no days to visit"));
    }

    #[test]
    fn for_each_visits_in_date_order() {
        let store = SignalStore::new();
        store.insert(signal(20, 1));
        store.insert(signal(5, 2));
        store.insert(signal(12, 3));
        let mut dates = Vec::new();
        store.for_each_between(d(1), d(28), |s| dates.push(s.date));
        assert_eq!(dates, vec![d(5), d(12), d(20)]);
    }

    #[test]
    fn sharded_and_single_lock_agree() {
        let sharded = SignalStore::with_shards(16);
        let single = SignalStore::with_shards(1);
        assert_eq!(single.shard_count(), 1);
        for day in 1..=28u8 {
            for (n, rating) in [(day, 1), (29 - day, 5)] {
                sharded.insert(signal(n, rating));
                single.insert(signal(n, rating));
            }
        }
        assert_eq!(sharded.len(), single.len());
        assert_eq!(sharded.date_range(), single.date_range());
        let a: Vec<Date> = sharded
            .between(d(1), d(28))
            .iter()
            .map(|s| s.date)
            .collect();
        let b: Vec<Date> = single.between(d(1), d(28)).iter().map(|s| s.date).collect();
        assert_eq!(a, b, "window scans must agree regardless of sharding");
    }

    #[test]
    fn zero_shards_is_clamped() {
        let store = SignalStore::with_shards(0);
        assert_eq!(store.shard_count(), 1);
        store.insert(signal(1, 3));
        assert_eq!(store.len(), 1);
    }
}

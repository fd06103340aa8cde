//! Resilient parallel ingestion pipeline.
//!
//! [`Source`]s (conferencing telemetry, forum crawls) produce raw items; a
//! pool of normalisation workers scores sentiment and converts to
//! [`Signal`]s; [`ingest_stream`] lands the batches in a [`SignalStore`],
//! while the service's append path counts and drops them and keeps only
//! the accepted items, which its generation commits. Built on
//! `crossbeam` bounded channels + scoped threads — the workload is
//! CPU-bound batch processing, so plain threads (not an async runtime) are
//! the right tool.
//!
//! Unlike the original all-or-nothing pipeline, ingestion now degrades
//! per item instead of per run:
//!
//! * **Transient** source errors are retried with exponential backoff +
//!   deterministic jitter ([`RetryPolicy`]), sleeping against a pluggable
//!   [`Clock`] so tests use virtual time.
//! * A run of consecutive failures trips a per-source [`CircuitBreaker`];
//!   while open, the producer waits out the cooldown on the clock, then
//!   probes (half-open) before resuming.
//! * Items that exhaust their retries, arrive **permanently** broken, or
//!   panic the normaliser (poison pills, caught per item via
//!   `catch_unwind` under [`PanicPolicy::Quarantine`]) are dead-lettered
//!   into the report's quarantine with the item description and reason —
//!   the pool keeps running.
//! * The run returns a structured [`IngestReport`] — stored/fed/retried/
//!   quarantined counts, breaker trips, and per-source [`SourceHealth`] —
//!   instead of a bare count.
//!
//! **Determinism:** faults, retries, and breaker transitions all happen in
//! the single-threaded producer, and fault decisions are pure functions of
//! `(seed, item index)` — so stored totals and the quarantine set are
//! bit-identical across worker counts (pinned by
//! `tests/ingest_resilience.rs`).
//!
//! Failure behaviour for *genuine invariant violations* is unchanged: a
//! worker panic outside the per-item normalisation guard (e.g. inside the
//! store) still kills the run, and the **original** panic payload is
//! re-raised once the scope is joined. If every worker dies, the
//! producer's sends start failing; the producer stops feeding, records how
//! many items went unfed (no more silent `break`), and the scope join
//! reports the real cause.

use crate::breaker::{BreakerState, CircuitBreaker, RetryPolicy};
use crate::fault::{Clock, VirtualClock};
use crate::signals::Signal;
use crate::source::{PostSource, SessionSource, Source, SourceError};
use crate::store::SignalStore;

pub use crate::source::RawItem;
use conference::records::CallDataset;
use crossbeam::channel;
use parking_lot::Mutex;
use sentiment::analyzer::SentimentAnalyzer;
use social::post::Forum;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What to do when normalising one item panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicPolicy {
    /// Catch the panic per item and quarantine the item as a poison pill;
    /// the worker pool keeps running. Panics *outside* the normalisation
    /// call (batch inserts, channel plumbing) still propagate — those are
    /// invariant violations, not bad data.
    Quarantine,
    /// Let any normalisation panic kill the worker and re-raise its
    /// original payload to the caller — the legacy all-or-nothing
    /// behaviour, kept for build-time ingestion where a poison item in a
    /// trusted dataset *is* an invariant violation.
    Propagate,
}

/// Ingestion tuning: worker count, retry/breaker policy, clock, and panic
/// handling.
#[derive(Clone)]
pub struct IngestConfig {
    /// Normalisation worker threads (min 1).
    pub workers: usize,
    /// Retry/backoff policy for transient source errors.
    pub retry: RetryPolicy,
    /// Per-source circuit-breaker tuning.
    pub breaker: crate::breaker::BreakerConfig,
    /// Time source for backoff sleeps and breaker cooldowns. Defaults to a
    /// [`VirtualClock`] (healthy sources never sleep); production feeds
    /// with real flakiness would pass a [`crate::fault::WallClock`].
    pub clock: Arc<dyn Clock>,
    /// Poison-pill handling.
    pub panics: PanicPolicy,
}

impl std::fmt::Debug for IngestConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestConfig")
            .field("workers", &self.workers)
            .field("retry", &self.retry)
            .field("breaker", &self.breaker)
            .field("panics", &self.panics)
            .finish_non_exhaustive()
    }
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            workers: 4,
            retry: RetryPolicy::default(),
            breaker: crate::breaker::BreakerConfig::default(),
            clock: Arc::new(VirtualClock::new()),
            panics: PanicPolicy::Quarantine,
        }
    }
}

impl IngestConfig {
    /// A config with `workers` threads and defaults everywhere else.
    pub fn with_workers(workers: usize) -> IngestConfig {
        IngestConfig {
            workers,
            ..IngestConfig::default()
        }
    }

    /// The same config driven by a different clock — how a daemon shares
    /// its tick clock with the engine's retry/backoff/breaker timing
    /// (`WallClock` in production, a `VirtualClock` in tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> IngestConfig {
        self.clock = clock;
        self
    }
}

/// Why an item was dead-lettered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Transient failures outlived the retry budget.
    RetriesExhausted,
    /// The source reported the item permanently unfetchable (corrupt).
    PermanentError,
    /// Normalising the item panicked; the panic was caught per item.
    PoisonPill,
}

impl QuarantineReason {
    /// Stable on-disk tag of the reason — part of the persist layer's
    /// journal format, so the mapping must never be reordered (append new
    /// variants with new tags instead).
    pub(crate) fn tag(self) -> u8 {
        match self {
            QuarantineReason::RetriesExhausted => 0,
            QuarantineReason::PermanentError => 1,
            QuarantineReason::PoisonPill => 2,
        }
    }

    /// Inverse of [`QuarantineReason::tag`]; `None` on an unknown tag
    /// (corrupt journal).
    pub(crate) fn from_tag(tag: u8) -> Option<QuarantineReason> {
        match tag {
            0 => Some(QuarantineReason::RetriesExhausted),
            1 => Some(QuarantineReason::PermanentError),
            2 => Some(QuarantineReason::PoisonPill),
            _ => None,
        }
    }
}

/// One dead-lettered item: where it came from, why it was dropped, and a
/// description of the payload for offline inspection.
///
/// Dead letters are durable: the service's journal records each run's
/// quarantine set alongside the accepted items, so they survive a restart
/// and remain inspectable after [`crate::service::UsaasService::open_or_recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// Index of the source in the ingestion run.
    pub source_id: usize,
    /// Source name.
    pub source: String,
    /// Deterministic per-source sequence number of the item (assigned by
    /// the producer in stream order, so the quarantine set is identical
    /// across worker counts).
    pub seq: usize,
    /// Why the item was quarantined.
    pub reason: QuarantineReason,
    /// Error or panic detail.
    pub detail: String,
    /// Short description of the item, when recoverable.
    pub item: String,
}

/// Health of one source after an ingestion run.
#[derive(Debug, Clone)]
pub struct SourceHealth {
    /// Source name.
    pub name: String,
    /// Items successfully handed to the worker pool.
    pub fed: usize,
    /// Retry attempts spent on this source.
    pub retries: usize,
    /// Items dead-lettered (all reasons).
    pub quarantined: usize,
    /// Items the source silently lost (fault-layer drops).
    pub dropped: usize,
    /// Times the source's breaker tripped open.
    pub breaker_trips: usize,
    /// Breaker state when the run finished.
    pub breaker_state: BreakerState,
    /// Whether the stream disconnected mid-flight.
    pub disconnected: bool,
    /// Items never reached because of a disconnect or an aborted run.
    pub skipped: usize,
}

impl SourceHealth {
    fn new(name: String) -> SourceHealth {
        SourceHealth {
            name,
            fed: 0,
            retries: 0,
            quarantined: 0,
            dropped: 0,
            breaker_trips: 0,
            breaker_state: BreakerState::Closed,
            disconnected: false,
            skipped: 0,
        }
    }

    /// True when the source ended the run fully operational: breaker
    /// closed and stream intact.
    pub fn is_healthy(&self) -> bool {
        self.breaker_state == BreakerState::Closed && !self.disconnected
    }
}

/// Structured result of an ingestion run.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// Signals normalised from accepted items (one session may yield
    /// several signals); a store-backed run inserts every one of them.
    pub stored: usize,
    /// Items handed to the worker pool.
    pub fed: usize,
    /// Items the producer failed to hand off because the pool was gone.
    pub unfed: usize,
    /// Total retry attempts across all sources.
    pub retries: usize,
    /// Total breaker trips across all sources.
    pub breaker_trips: usize,
    /// Dead-lettered items, sorted by `(source_id, seq)`.
    pub quarantined: Vec<QuarantineEntry>,
    /// Per-source health, in source order.
    pub sources: Vec<SourceHealth>,
    /// Set when the run stopped early because the worker pool disappeared;
    /// carries the best available explanation.
    pub aborted: Option<String>,
}

impl IngestReport {
    /// `(source_id, seq)` of every quarantined item — the deterministic
    /// identity the fault-matrix tests compare across worker counts.
    pub fn quarantined_keys(&self) -> Vec<(usize, usize)> {
        self.quarantined
            .iter()
            .map(|q| (q.source_id, q.seq))
            .collect()
    }

    /// Names of sources whose breaker ended the run open or half-open.
    pub fn open_breakers(&self) -> Vec<String> {
        self.sources
            .iter()
            .filter(|s| s.breaker_state != BreakerState::Closed)
            .map(|s| s.name.clone())
            .collect()
    }

    /// True when anything degraded the run: quarantined items, open
    /// breakers, disconnects, or unfed items.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
            || self.unfed > 0
            || self.aborted.is_some()
            || self.sources.iter().any(|s| !s.is_healthy())
    }
}

/// Normalise one raw item into signals.
///
/// # Panics
///
/// Panics on [`RawItem::Poison`] — by design, so the per-item
/// `catch_unwind` guard and the quarantine path can be exercised
/// end to end.
pub fn normalise(item: &RawItem, analyzer: &SentimentAnalyzer) -> Vec<Signal> {
    match item {
        RawItem::Session(s) => Signal::from_session(s),
        RawItem::Post(p) => vec![Signal::from_post(p, analyzer)],
        RawItem::Poison(msg) => panic!("poison pill: {msg}"),
    }
}

/// [`normalise`] `item` onto the end of `out`; returns how many signals
/// it yielded. The store path's per-item step.
fn normalise_into(item: &RawItem, analyzer: &SentimentAnalyzer, out: &mut Vec<Signal>) -> usize {
    let signals = normalise(item, analyzer);
    let n = signals.len();
    out.extend(signals);
    n
}

/// How many signals [`normalise`] yields for `item`, without building
/// them: one per session plus one more when it is rated, one per post.
///
/// # Panics
///
/// Panics on [`RawItem::Poison`], exactly as [`normalise`] does, so the
/// quarantine path treats a pill the same on either step.
pub(crate) fn signal_count(item: &RawItem) -> usize {
    match item {
        RawItem::Session(s) => 1 + usize::from(s.rating.is_some()),
        RawItem::Post(_) => 1,
        RawItem::Poison(msg) => panic!("poison pill: {msg}"),
    }
}

/// Ingest a call dataset and a forum corpus into the store using `workers`
/// normalisation threads — the build-time path over trusted in-memory
/// sources (no retries needed, panics propagate).
///
/// # Panics
///
/// Re-raises the original panic of any normalisation worker that died.
pub fn ingest_all(
    store: &SignalStore,
    dataset: &CallDataset,
    forum: &Forum,
    workers: usize,
) -> IngestReport {
    let cfg = IngestConfig {
        workers,
        panics: PanicPolicy::Propagate,
        ..IngestConfig::default()
    };
    let sources: Vec<Box<dyn Source + '_>> = vec![
        Box::new(SessionSource::new(
            "conference-telemetry",
            &dataset.sessions,
        )),
        Box::new(PostSource::new("forum-crawl", &forum.posts)),
    ];
    ingest_stream(store, sources, &cfg)
}

/// Run the resilient streaming pipeline over `sources` into `store`.
///
/// # Panics
///
/// Re-raises a worker panic when it escapes the per-item guard (always
/// under [`PanicPolicy::Propagate`]; only for non-normalisation panics
/// under [`PanicPolicy::Quarantine`]).
pub fn ingest_stream<'a>(
    store: &SignalStore,
    sources: Vec<Box<dyn Source + 'a>>,
    cfg: &IngestConfig,
) -> IngestReport {
    ingest_stream_with(Some(store), sources, cfg, normalise_into, None)
}

/// The streaming pipeline without a store: every item goes through the
/// count-only [`signal_count`] step (that is where a poison pill is
/// caught), which adds the signals it would yield to `stored` without
/// building them, and every accepted item (fed and not poison) is
/// returned in deterministic feed order — the append-while-serving path
/// commits exactly these items.
pub(crate) fn ingest_stream_collect<'a>(
    sources: Vec<Box<dyn Source + 'a>>,
    cfg: &IngestConfig,
) -> (IngestReport, Vec<RawItem>) {
    let sink = Mutex::new(Vec::new());
    let report = ingest_stream_with(
        None,
        sources,
        cfg,
        |item, _, _| signal_count(item),
        Some(&sink),
    );
    let mut accepted = sink.into_inner();
    // Workers interleave arbitrarily; the producer's global sequence
    // restores feed order.
    accepted.sort_by_key(|(global, _)| *global);
    (report, accepted.into_iter().map(|(_, item)| item).collect())
}

/// One channel message: the item plus the producer-assigned identity that
/// keeps quarantine records and collected appends deterministic.
struct Envelope {
    source: usize,
    seq: usize,
    global: u64,
    item: RawItem,
}

/// What the producer accomplished before the channel closed.
struct FeedOutcome {
    healths: Vec<SourceHealth>,
    fed: usize,
    unfed: usize,
    retries: usize,
    breaker_trips: usize,
    aborted: Option<String>,
}

/// Drive every source to exhaustion, applying retry/backoff and the
/// circuit breaker, handing live items to the worker pool via `tx` and
/// dead-lettering the rest into `quarantine`.
///
/// Separated from the scope plumbing so the dead-pool path (every `send`
/// failing) is unit-testable by dropping the receiver.
fn feed_sources(
    tx: &channel::Sender<Envelope>,
    sources: &mut [Box<dyn Source + '_>],
    cfg: &IngestConfig,
    quarantine: &Mutex<Vec<QuarantineEntry>>,
) -> FeedOutcome {
    let clock = &*cfg.clock;
    let mut out = FeedOutcome {
        healths: Vec::with_capacity(sources.len()),
        fed: 0,
        unfed: 0,
        retries: 0,
        breaker_trips: 0,
        aborted: None,
    };
    let mut global: u64 = 0;

    for (si, src) in sources.iter_mut().enumerate() {
        let mut health = SourceHealth::new(src.name().to_string());
        if out.aborted.is_some() {
            // The pool is gone; everything this source holds goes unfed.
            health.skipped = src.remaining_hint();
            out.unfed += health.skipped;
            out.healths.push(health);
            continue;
        }
        let mut breaker = CircuitBreaker::new(cfg.breaker);
        let mut seq = 0usize;
        let mut attempts = 0u32;
        loop {
            let now = clock.now_ms();
            if breaker.state(now) == BreakerState::Open {
                // Wait out the cooldown on the (virtual) clock, then probe.
                clock.sleep_ms(breaker.remaining_open_ms(now).max(1));
                continue;
            }
            match src.next_item() {
                None => break,
                Some(Ok(item)) => {
                    breaker.record_success(clock.now_ms());
                    attempts = 0;
                    let env = Envelope {
                        source: si,
                        seq,
                        global,
                        item,
                    };
                    if tx.send(env).is_err() {
                        // Every worker is gone. Count this item and the
                        // rest of the stream as unfed and stop — the scope
                        // join will surface the real cause if it was a
                        // panic.
                        out.unfed += 1 + src.remaining_hint();
                        out.aborted =
                            Some("worker pool disconnected; producer stopped feeding".to_string());
                        break;
                    }
                    global += 1;
                    seq += 1;
                    health.fed += 1;
                }
                Some(Err(SourceError::Transient { reason })) => {
                    breaker.record_failure(clock.now_ms());
                    if attempts >= cfg.retry.max_retries {
                        // Retry budget spent: dead-letter the stuck item.
                        let item = src
                            .take_pending()
                            .map(|i| i.describe())
                            .unwrap_or_else(|| "<item unavailable>".to_string());
                        quarantine.lock().push(QuarantineEntry {
                            source_id: si,
                            source: health.name.clone(),
                            seq,
                            reason: QuarantineReason::RetriesExhausted,
                            detail: reason.to_string(),
                            item,
                        });
                        health.quarantined += 1;
                        seq += 1;
                        attempts = 0;
                    } else {
                        attempts += 1;
                        health.retries += 1;
                        let salt = ((si as u64) << 32) | seq as u64;
                        clock.sleep_ms(cfg.retry.backoff_ms(attempts, salt));
                    }
                }
                Some(Err(SourceError::Permanent { reason, item })) => {
                    breaker.record_failure(clock.now_ms());
                    quarantine.lock().push(QuarantineEntry {
                        source_id: si,
                        source: health.name.clone(),
                        seq,
                        reason: QuarantineReason::PermanentError,
                        detail: reason.to_string(),
                        item: item
                            .map(|i| i.describe())
                            .unwrap_or_else(|| "<item unavailable>".to_string()),
                    });
                    health.quarantined += 1;
                    seq += 1;
                    attempts = 0;
                }
                Some(Err(SourceError::Disconnected)) => {
                    health.disconnected = true;
                    health.skipped = src.remaining_hint();
                    break;
                }
            }
        }
        health.dropped = src.dropped();
        health.breaker_trips = breaker.trips();
        health.breaker_state = breaker.state(clock.now_ms());
        out.fed += health.fed;
        out.retries += health.retries;
        out.breaker_trips += health.breaker_trips;
        out.healths.push(health);
    }
    out
}

/// Extract a readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// The engine: spawn the worker pool, run the producer, assemble the
/// report. Each item goes through `step`, which may push its signals
/// onto the worker's batch and returns how many the item yields; the
/// batch goes into `store` when there is one. Generic over the step so
/// the collect path can only count and tests can inject a faulty worker.
fn ingest_stream_with<'a, N>(
    store: Option<&SignalStore>,
    mut sources: Vec<Box<dyn Source + 'a>>,
    cfg: &IngestConfig,
    step: N,
    sink: Option<&Mutex<Vec<(u64, RawItem)>>>,
) -> IngestReport
where
    N: Fn(&RawItem, &SentimentAnalyzer, &mut Vec<Signal>) -> usize + Sync,
{
    let workers = cfg.workers.max(1);
    let (tx, rx) = channel::bounded::<Envelope>(4096);
    let stored = AtomicUsize::new(0);
    let quarantine: Mutex<Vec<QuarantineEntry>> = Mutex::new(Vec::new());
    let names: Vec<String> = sources.iter().map(|s| s.name().to_string()).collect();
    let mut outcome: Option<FeedOutcome> = None;

    let joined = crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let rx = rx.clone();
            let step = &step;
            let quarantine = &quarantine;
            let names = &names;
            let panics = cfg.panics;
            let stored = &stored;
            scope.spawn(move |_| {
                let analyzer = SentimentAnalyzer::default();
                let mut batch: Vec<Signal> = Vec::with_capacity(256);
                for env in rx.iter() {
                    // Only the per-item step is guarded: a poison item
                    // is data, a panic anywhere else is a bug and must
                    // still take the run down.
                    let result = match panics {
                        PanicPolicy::Propagate => Ok(step(&env.item, &analyzer, &mut batch)),
                        PanicPolicy::Quarantine => catch_unwind(AssertUnwindSafe(|| {
                            step(&env.item, &analyzer, &mut batch)
                        })),
                    };
                    match result {
                        Ok(count) => {
                            stored.fetch_add(count, Ordering::Relaxed);
                            if let (Some(store), true) = (store, batch.len() >= 256) {
                                store.insert_batch(std::mem::take(&mut batch));
                            }
                            if let Some(sink) = sink {
                                sink.lock().push((env.global, env.item));
                            }
                        }
                        Err(payload) => {
                            quarantine.lock().push(QuarantineEntry {
                                source_id: env.source,
                                source: names[env.source].clone(),
                                seq: env.seq,
                                reason: QuarantineReason::PoisonPill,
                                detail: panic_message(payload.as_ref()),
                                item: env.item.describe(),
                            });
                        }
                    }
                }
                if let (Some(store), false) = (store, batch.is_empty()) {
                    store.insert_batch(batch);
                }
            });
        }
        drop(rx);

        let fed = feed_sources(&tx, &mut sources, cfg, &quarantine);
        // Hang up so workers drain and exit before the scope joins them.
        drop(tx);
        outcome = Some(fed);
    });
    if let Err(payload) = joined {
        // A worker panicked outside the per-item guard (or under
        // `Propagate`) — an invariant violation. Hand the caller its
        // payload, not ours.
        std::panic::resume_unwind(payload);
    }

    let outcome = outcome.expect("producer ran inside the scope");
    let mut quarantined = quarantine.into_inner();
    quarantined.sort_by_key(|q| (q.source_id, q.seq));
    let mut healths = outcome.healths;
    for q in &quarantined {
        // Producer-side reasons were counted inline; poison pills are
        // recorded by workers and folded in here.
        if q.reason == QuarantineReason::PoisonPill {
            if let Some(h) = healths.get_mut(q.source_id) {
                h.quarantined += 1;
            }
        }
    }
    IngestReport {
        stored: stored.into_inner(),
        fed: outcome.fed,
        unfed: outcome.unfed,
        retries: outcome.retries,
        breaker_trips: outcome.breaker_trips,
        quarantined,
        sources: healths,
        aborted: outcome.aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan};
    use crate::signals::SignalKind;
    use crate::source::ItemSource;
    use conference::dataset::{generate, DatasetConfig};
    use social::generator::{generate as gen_forum, ForumConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn small_forum() -> Forum {
        let mut cfg = ForumConfig::default();
        cfg.end = cfg.start.offset(20);
        cfg.authors = 500;
        gen_forum(&cfg)
    }

    /// Legacy-shaped helper: build-time ingest with an injected step.
    fn ingest_with<N>(
        store: &SignalStore,
        dataset: &CallDataset,
        forum: &Forum,
        workers: usize,
        step: N,
    ) -> IngestReport
    where
        N: Fn(&RawItem, &SentimentAnalyzer, &mut Vec<Signal>) -> usize + Sync,
    {
        let cfg = IngestConfig {
            workers,
            panics: PanicPolicy::Propagate,
            ..IngestConfig::default()
        };
        let sources: Vec<Box<dyn Source + '_>> = vec![
            Box::new(SessionSource::new(
                "conference-telemetry",
                &dataset.sessions,
            )),
            Box::new(PostSource::new("forum-crawl", &forum.posts)),
        ];
        ingest_stream_with(Some(store), sources, &cfg, step, None)
    }

    #[test]
    fn ingests_both_sources() {
        let store = SignalStore::new();
        let dataset = generate(&DatasetConfig::small(40, 5));
        let forum = small_forum();
        let report = ingest_all(&store, &dataset, &forum, 4);
        let expected = dataset.len() + dataset.rated_sessions().count() + forum.len();
        assert_eq!(report.stored, expected);
        assert_eq!(report.fed, dataset.len() + forum.len());
        assert_eq!(report.unfed, 0);
        assert_eq!(report.retries, 0);
        assert!(report.quarantined.is_empty());
        assert!(!report.is_degraded());
        assert_eq!(report.sources.len(), 2);
        assert!(report.sources.iter().all(|s| s.is_healthy()));
        assert_eq!(store.count_kind(SignalKind::Implicit), dataset.len());
        assert_eq!(store.count_kind(SignalKind::Social), forum.len());
        assert_eq!(
            store.count_kind(SignalKind::Explicit),
            dataset.rated_sessions().count()
        );
    }

    #[test]
    fn worker_count_does_not_change_totals() {
        let dataset = generate(&DatasetConfig::small(25, 6));
        let forum = small_forum();
        let one = SignalStore::new();
        let eight = SignalStore::new();
        assert_eq!(
            ingest_all(&one, &dataset, &forum, 1).stored,
            ingest_all(&eight, &dataset, &forum, 8).stored
        );
        assert_eq!(one.len(), eight.len());
        assert_eq!(one.date_range(), eight.date_range());
    }

    #[test]
    fn signal_count_matches_normalise_without_building_signals() {
        let dataset = generate(&DatasetConfig::small(60, 11));
        let forum = small_forum();
        assert!(
            dataset.rated_sessions().count() > 0,
            "some sessions are rated"
        );
        assert!(
            dataset.rated_sessions().count() < dataset.len(),
            "and some are not"
        );
        let analyzer = SentimentAnalyzer::default();
        let items = dataset
            .sessions
            .iter()
            .map(|s| RawItem::Session(Box::new(s.clone())))
            .chain(
                forum
                    .posts
                    .iter()
                    .map(|p| RawItem::Post(Box::new(p.clone()))),
            );
        for item in items {
            assert_eq!(signal_count(&item), normalise(&item, &analyzer).len());
        }
        let pill = RawItem::Poison("boom");
        let caught = catch_unwind(AssertUnwindSafe(|| signal_count(&pill)));
        assert!(caught.is_err(), "a poison pill panics the count step too");

        // The collect path reports the same `stored` as the store path.
        let sources = || -> Vec<Box<dyn Source + '_>> {
            vec![
                Box::new(SessionSource::new("telemetry", &dataset.sessions)),
                Box::new(PostSource::new("forum", &forum.posts)),
            ]
        };
        let cfg = IngestConfig::with_workers(2);
        let (collected, accepted) = ingest_stream_collect(sources(), &cfg);
        let stored = ingest_stream(&SignalStore::new(), sources(), &cfg);
        assert_eq!(collected.stored, stored.stored);
        assert_eq!(accepted.len(), dataset.len() + forum.len());
    }

    #[test]
    fn empty_sources_ingest_nothing() {
        let store = SignalStore::new();
        let report = ingest_all(&store, &CallDataset::default(), &Forum::default(), 2);
        assert_eq!(report.stored, 0);
        assert!(store.is_empty());
        assert!(!report.is_degraded());
    }

    #[test]
    fn worker_panic_is_surfaced_not_a_send_error() {
        // Regression: a dead worker pool used to make the *producer* panic
        // on `send(..).expect("workers alive")`, hiding the real cause. Now
        // the producer backs off and the worker's own panic reaches the
        // caller.
        let store = SignalStore::new();
        let dataset = generate(&DatasetConfig::small(200, 9));
        let forum = Forum::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            ingest_with(
                &store,
                &dataset,
                &forum,
                2,
                |item, analyzer, out| match item {
                    RawItem::Session(_) => panic!("normaliser exploded"),
                    _ => normalise_into(item, analyzer, out),
                },
            )
        }));
        let payload = result.expect_err("a worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(
            msg, "normaliser exploded",
            "caller must see the worker's original panic, got: {msg:?}"
        );
    }

    #[test]
    fn dead_pool_records_unfed_items_instead_of_a_silent_break() {
        // Unit-test the producer's dead-pool path directly: a channel whose
        // receiver is gone makes every send fail, which must be *counted*,
        // not silently dropped (the old code just `break`ed).
        let dataset = generate(&DatasetConfig::small(30, 5));
        let (tx, rx) = channel::bounded::<Envelope>(8);
        drop(rx);
        let mut sources: Vec<Box<dyn Source + '_>> = vec![
            Box::new(SessionSource::new("telemetry", &dataset.sessions)),
            Box::new(SessionSource::new("telemetry-2", &dataset.sessions)),
        ];
        let cfg = IngestConfig::default();
        let quarantine = Mutex::new(Vec::new());
        let out = feed_sources(&tx, &mut sources, &cfg, &quarantine);
        assert_eq!(out.fed, 0);
        assert_eq!(
            out.unfed,
            2 * dataset.len(),
            "every item of both sources is accounted as unfed"
        );
        assert!(out.aborted.is_some());
        assert_eq!(out.healths.len(), 2, "untouched sources still report");
        assert_eq!(out.healths[1].skipped, dataset.len());
    }

    #[test]
    fn poison_pill_is_quarantined_not_fatal() {
        let store = SignalStore::new();
        let dataset = generate(&DatasetConfig::small(10, 5));
        let n = dataset.len();
        let items: Vec<RawItem> = dataset
            .sessions
            .iter()
            .map(|s| RawItem::Session(Box::new(s.clone())))
            .collect();
        let plan = FaultPlan::seeded(1).with_poison(3);
        let cfg = IngestConfig::with_workers(4);
        let sources: Vec<Box<dyn Source>> = vec![Box::new(FaultInjector::new(
            ItemSource::new("flaky", items),
            plan,
            cfg.clock.clone(),
        ))];
        let report = ingest_stream(&store, sources, &cfg);
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.reason, QuarantineReason::PoisonPill);
        assert_eq!(q.seq, 3);
        assert!(q.detail.contains("poison pill"), "detail: {}", q.detail);
        assert_eq!(report.fed, n, "the pill was fed, then caught in a worker");
        assert!(report.is_degraded());
        assert!(
            report.stored >= n - 1,
            "all non-poisoned sessions stored ({} of {n})",
            report.stored
        );
    }
}

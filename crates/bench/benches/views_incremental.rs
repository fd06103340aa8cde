//! Materialized-view steady-state bench: the cost of absorbing a small
//! append and re-serving the hot dashboard mix, two ways —
//!
//! * `fresh` — the pre-view world: every epoch invalidates everything, so
//!   each hot answer is recomputed from the full corpus
//!   ([`usaas::Generation::answer_fresh`]);
//! * `incremental` — the view-backed path: [`usaas::ViewSet`] carries each
//!   accumulator across the epoch roll, `append_batch` advances it by the
//!   delta, and the query pays only the cheap finishing pass.
//!
//! Both arms do identical work per iteration — append one fixed 100-call
//! batch, then answer the full hot set — at corpora of 1k/10k/100k calls.
//! The view answers are bit-identical to the fresh ones (pinned by
//! `tests/views_parity.rs`); this bench prices the maintenance strategy
//! only. The fresh arm's cost grows with the corpus; the incremental
//! arm's tracks the batch, so the gap widens with corpus size.
//!
//! A third arm, `emerging_same_day`, prices the §4.1 emerging-topics view
//! on the many-posts-per-day path: each iteration appends a few posts
//! dated on the forum's last day, then asks `EmergingTopics`. The view
//! carries a miner settled one day short of the last day, so the append
//! costs one tail window rather than a re-mine of the whole forum.
//!
//! A fourth arm, `cross_network_10k`, prices the §5 flagship query on the
//! 10k corpus: each iteration appends the fixed batch and asks
//! `CrossNetwork`, which the carried view answers from running sums and
//! its target rows, without materialising the session frame.
//!
//! Run with `BENCH_JSON=results/BENCH_views.json` (or via
//! `scripts/bench_json.sh`) to export the medians.

use bench::bench_forum;
use conference::dataset::{generate, DatasetConfig};
use conference::records::{EngagementMetric, NetworkMetric, SessionRecord};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim::access::AccessType;
use social::post::Post;
use std::hint::black_box;
use usaas::{Query, UsaasService};

/// Worker count for both arms.
const WORKERS: usize = 4;

/// Sessions in the per-iteration append.
const BATCH: usize = 100;

/// Corpus sizes (calls) swept by the comparison.
const SIZES: [(usize, &str); 3] = [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")];

/// The hot dashboard mix: every figure the paper's operator dashboard
/// re-requests after each ingest — the correlation-bin sweeps across all
/// four network metrics, the compounding grids, platform sensitivity, the
/// MOS aggregates, the sentiment day-series, the outage timeline, and the
/// deployment ranking.
fn hot_queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for sweep in NetworkMetric::ALL {
        queries.push(Query::EngagementCurve {
            sweep,
            engagement: EngagementMetric::Presence,
            bins: 8,
        });
    }
    queries.push(Query::EngagementCurve {
        sweep: NetworkMetric::LossPct,
        engagement: EngagementMetric::MicOn,
        bins: 8,
    });
    queries.push(Query::EngagementCurve {
        sweep: NetworkMetric::LatencyMs,
        engagement: EngagementMetric::CamOn,
        bins: 8,
    });
    for engagement in EngagementMetric::ALL {
        queries.push(Query::CompoundingGrid {
            engagement,
            bins: 5,
        });
    }
    queries.push(Query::PlatformSensitivity {
        sweep: NetworkMetric::LatencyMs,
        engagement: EngagementMetric::Presence,
    });
    queries.push(Query::PlatformSensitivity {
        sweep: NetworkMetric::LossPct,
        engagement: EngagementMetric::Presence,
    });
    queries.push(Query::MosCorrelation);
    queries.push(Query::SentimentPeaks { k: 3 });
    queries.push(Query::OutageTimeline);
    queries.push(Query::DeploymentAdvice);
    queries
}

/// Posts in the `emerging_same_day` append.
const SAME_DAY_POSTS: usize = 8;

/// The fixed append absorbed every iteration.
fn batch() -> Vec<SessionRecord> {
    generate(&DatasetConfig::small(BATCH, 0xBEE)).sessions
}

fn bench_views_incremental(c: &mut Criterion) {
    let forum = bench_forum();
    let queries = hot_queries();
    let delta = batch();

    let mut group = c.benchmark_group("views_incremental");
    group.sample_size(10);

    for (calls, label) in SIZES {
        let dataset = generate(&DatasetConfig::small(calls, 0xA11));

        // Fresh arm: no views ever installed; each iteration recomputes
        // the whole mix from the post-append corpus, as every epoch did
        // before the view layer existed.
        let fresh = UsaasService::build(dataset.clone(), forum.clone(), WORKERS);
        // Prime the shared token corpus so neither arm pays first-touch
        // tokenization inside the timing loop.
        let _ = fresh
            .snapshot()
            .answer_fresh(&Query::SentimentPeaks { k: 3 });
        group.bench_function(format!("fresh_{label}"), |b| {
            b.iter(|| {
                black_box(fresh.append_batch(delta.clone(), Vec::new()));
                let generation = fresh.snapshot();
                for q in &queries {
                    black_box(generation.answer_fresh(q)).ok();
                }
            })
        });

        // Incremental arm: install the views once, then each iteration's
        // append advances them by the delta and the queries pay only the
        // finishing pass.
        let svc = UsaasService::build(dataset, forum.clone(), WORKERS);
        for q in &queries {
            let _ = svc.query(q);
        }
        assert!(
            !svc.snapshot().views().is_empty(),
            "hot queries must install views before the timing loop"
        );
        group.bench_function(format!("incremental_{label}"), |b| {
            b.iter(|| {
                black_box(svc.append_batch(delta.clone(), Vec::new()));
                for q in &queries {
                    black_box(svc.query(q)).ok();
                }
            })
        });
    }

    // Same-day arm: the forum's last posts re-dated to its last day, so
    // every append lands on the day the emerging view last mined.
    let (_, last) = forum.date_range().expect("bench forum is non-empty");
    let same_day: Vec<Post> = forum.posts[forum.len() - SAME_DAY_POSTS..]
        .iter()
        .cloned()
        .map(|mut p| {
            p.date = last;
            p
        })
        .collect();
    let svc = UsaasService::build(
        generate(&DatasetConfig::small(1_000, 0xA11)),
        forum.clone(),
        WORKERS,
    );
    let _ = svc.query(&Query::EmergingTopics);
    group.bench_function("emerging_same_day", |b| {
        b.iter(|| {
            black_box(svc.append_batch(Vec::new(), same_day.clone()));
            black_box(svc.query(&Query::EmergingTopics)).ok();
        })
    });

    // Cross-network arm: one fixed append, then the §5 query.
    let svc = UsaasService::build(
        generate(&DatasetConfig::small(10_000, 0xA11)),
        forum.clone(),
        WORKERS,
    );
    let cross = Query::CrossNetwork {
        access: AccessType::SatelliteLeo,
    };
    let _ = svc.query(&cross);
    group.bench_function("cross_network_10k", |b| {
        b.iter(|| {
            black_box(svc.append_batch(delta.clone(), Vec::new()));
            black_box(svc.query(&cross)).ok();
        })
    });
    group.finish();
}

criterion_group!(benches, bench_views_incremental);
criterion_main!(benches);

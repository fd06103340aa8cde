//! Scale-out serving bench: the consistent-hash partitioned
//! [`usaas::PartitionedService`] against its own single-partition
//! configuration on the same corpus.
//!
//! Two groups price the two serving regimes:
//!
//! - `scaleout_batch`: the steady-state `query_batch` figure mix. After
//!   the first sample every answer is served by the cluster's merged-
//!   answer cache, so this measures the router overhead a partitioned
//!   deployment adds to cache-hit serving — it must stay flat as
//!   partitions grow.
//! - `scaleout_fresh`: the uncached text-heavy queries (`answer_fresh`
//!   bypasses the merged-answer cache) with **one worker per partition**,
//!   so the scatter fan-out is the only parallelism. The §4/§5 sentiment
//!   and topic scans dominate; each partition scans its shard of the
//!   forum concurrently, and the residual is the router's merge cost.

use bench::{bench_forum, BENCH_CALLS};
use conference::dataset::{generate, DatasetConfig};
use conference::records::{EngagementMetric, NetworkMetric};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::access::AccessType;
use std::hint::black_box;
use usaas::service::Query;
use usaas::PartitionedService;

const PARTITION_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn query_mix() -> Vec<Query> {
    vec![
        Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::MicOn,
            bins: 6,
        },
        Query::CompoundingGrid {
            engagement: EngagementMetric::Presence,
            bins: 4,
        },
        Query::MosCorrelation,
        Query::OutageTimeline,
        Query::SpeedTrend,
        Query::CrossNetwork {
            access: AccessType::SatelliteLeo,
        },
        Query::DeploymentAdvice,
        Query::SentimentPeaks { k: 3 },
    ]
}

/// The uncached scatter set. `DeploymentAdvice` and `SpeedTrend` merge
/// partition views built cold for each call (sentiment scoring, OCR speed
/// shots), so partition count directly controls the per-shard scan size,
/// while the merged partials stay small
/// (band counts, dated shots). `OutageTimeline` reads the partitions'
/// carried outage views and the epoch's shared detections, so after the
/// first sample it prices the router's cached path.
fn text_mix() -> Vec<Query> {
    vec![
        Query::DeploymentAdvice,
        Query::SpeedTrend,
        Query::OutageTimeline,
    ]
}

fn clusters(workers: usize) -> Vec<(usize, PartitionedService)> {
    PARTITION_COUNTS
        .iter()
        .map(|&partitions| {
            let dataset = generate(&DatasetConfig::small(BENCH_CALLS, 4));
            (
                partitions,
                PartitionedService::build(dataset, bench_forum(), partitions, workers),
            )
        })
        .collect()
}

fn bench_scaleout_batch(c: &mut Criterion) {
    let clusters = clusters(4);
    let queries = query_mix();
    let mut group = c.benchmark_group("scaleout_batch");
    group.sample_size(10);
    for (partitions, cluster) in &clusters {
        group.bench_function(BenchmarkId::new("partitions", partitions), |b| {
            b.iter(|| black_box(cluster.query_batch(&queries)));
        });
    }
    group.finish();
}

fn bench_scaleout_fresh(c: &mut Criterion) {
    // One worker per partition: the scatter fan-out is the only
    // parallelism, so the group isolates what sharding itself buys (and
    // what the router's cross-partition merges cost) on the text scans.
    let clusters = clusters(1);
    let queries = text_mix();
    let mut group = c.benchmark_group("scaleout_fresh");
    group.sample_size(10);
    for (partitions, cluster) in &clusters {
        group.bench_function(BenchmarkId::new("partitions", partitions), |b| {
            b.iter(|| {
                let answers: Vec<_> = queries.iter().map(|q| cluster.answer_fresh(q)).collect();
                black_box(answers)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaleout_batch, bench_scaleout_fresh);
criterion_main!(benches);

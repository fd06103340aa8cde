//! Partitioned scatter-gather serving: a consistent-hash sharded
//! [`UsaasService`] cluster behind a merging query router (§5 at scale).
//!
//! [`PartitionedService`] consistent-hashes sessions (by `user_id`) and
//! posts (by `author_id`) across N independent [`UsaasService`] partitions,
//! fans each query out to every partition in parallel, and merges the
//! partial answers at the router into answers **bit-identical** to the
//! single-partition service over the same data — at every partition and
//! worker count (pinned by `tests/cluster_parity.rs`).
//!
//! The merge discipline that makes bit-identity possible: partitions never
//! ship partially-reduced floats. Each partition returns *rows* (per-session
//! or per-post values, tagged by local index), the router reassembles the
//! global-order columns through the order maps recorded at split time, and
//! then replays the exact sequential kernels and finishing passes the
//! single service runs ([`kernels::masked_binned_sum_count`],
//! `correlate::grid_from_sums`, `correlate::mos_correlations_vals`, …).
//! Cross-partition map merges (§4 text scans) are additive only where the
//! addends are integer-valued (engagement weights, day counts, keyword
//! hits), where f64 addition is exact and therefore order-free. The
//! outage family sums each partition's carried keyword series
//! ([`crate::views`]) instead of rescanning partition corpora; the
//! sentiment, deployment and speed-trend families merge their views' state
//! built cold per query and never installed.

use crate::annotate::{strong_countries, PeakAnnotator, SentimentSeries, CLOUD_WORDS};
use crate::cache::MemoCache;
use crate::correlate;
use crate::emerging::{
    sort_detections, DayTally, EmergingTopic, EmergingTopicMiner, Slide, TermWeights,
};
use crate::fulcrum::{DocShot, FulcrumAnalysis};
use crate::ingest::{self, IngestConfig, IngestReport, QuarantineEntry};
use crate::outage::{DetectedOutage, OutageDetector};
#[cfg(test)]
use crate::persist::Journal;
use crate::persist::{
    cluster_snapshot_seqs, load_latest_cluster_snapshot, read_and_repair_journal, snapshot_seqs,
    write_cluster_snapshot, ClusterSnapContents, CompactionReport, JournalStats, PersistError, Wal,
    JOURNAL_FILE,
};
use crate::predict;
use crate::service::{
    cross_network_report, merged_range, trusted_sources, Answer, CrossNetworkColumns, Generation,
    HealthTotals, Query, QueryKey, ServiceHealth, UsaasError, UsaasService,
};
use crate::source::{RawItem, Source};
use crate::views::{regional_demand, SentimentView, View, ViewKey};
use analytics::binning::{BinSpec, SumBinner};
use analytics::time::Date;
use analytics::timeseries::DailySeries;
use analytics::{kernels, AnalyticsError};
use conference::records::{CallDataset, EngagementMetric, SessionRecord};
use netsim::access::AccessType;
use parking_lot::{Mutex, RwLock};
use sentiment::analyzer::SentimentAnalyzer;
use sentiment::corpus::IdNgramCounts;
use sentiment::ngram::NgramCounts;
use sentiment::wordcloud::WordCloud;
use social::post::{Forum, Post};
use starlink::constellation::DeploymentPlanner;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Virtual nodes per partition on the hash ring — enough that the keyspace
/// split stays within a few percent of even at 2–8 partitions.
const VNODES: usize = 64;

/// Cluster metadata file (partition count), sibling of the cluster journal.
/// Cluster metadata file name inside a cluster persist directory — its
/// presence is how callers (and the `usaas serve` CLI) distinguish a
/// cluster directory from a single-service one.
pub const CLUSTER_META: &str = "cluster.meta";

/// `"USCL"` little-endian: the metadata file magic.
const META_MAGIC: u32 = 0x4C43_5355;

/// SplitMix64 — the ring's stateless mixer. A bijection on `u64`, so
/// distinct vnode seeds can never collide on the ring.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring over `partitions` shards, `VNODES` points each.
/// The ring is a pure function of the partition count, so every router
/// instance (including one reopened after a crash) routes identically.
#[derive(Debug, Clone)]
struct HashRing {
    /// Sorted `(ring point, partition)` pairs.
    points: Vec<(u64, u32)>,
    partitions: usize,
}

impl HashRing {
    fn new(partitions: usize) -> HashRing {
        let partitions = partitions.max(1);
        let mut points: Vec<(u64, u32)> = (0..partitions)
            .flat_map(|p| {
                (0..VNODES).map(move |v| (splitmix64(((p as u64) << 16) | v as u64), p as u32))
            })
            .collect();
        points.sort_unstable();
        HashRing { points, partitions }
    }

    fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition owning `id`: first ring point at or after the id's
    /// hash, wrapping.
    fn partition_of(&self, id: u64) -> usize {
        let h = splitmix64(id);
        let i = self.points.partition_point(|&(point, _)| point < h);
        self.points[i % self.points.len()].1 as usize
    }

    /// Route a batch to per-partition sub-batches, recording each item's
    /// global arrival index in `maps` so the router can later reassemble
    /// global-order columns from partition-local rows. Items keep their
    /// relative order inside each partition (stable single pass), which is
    /// what makes the order maps strictly increasing per partition.
    fn split(
        &self,
        sessions: Vec<SessionRecord>,
        posts: Vec<Post>,
        maps: &mut OrderMaps,
    ) -> Vec<PartitionBatch> {
        let mut out: Vec<PartitionBatch> = (0..self.partitions)
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for s in sessions {
            let p = self.partition_of(s.user_id);
            maps.sessions[p].push(maps.total_sessions);
            maps.total_sessions += 1;
            out[p].0.push(s);
        }
        for post in posts {
            let p = self.partition_of(post.author_id);
            maps.posts[p].push(maps.total_posts);
            maps.total_posts += 1;
            out[p].1.push(post);
        }
        out
    }
}

/// One partition's slice of an ingest batch.
type PartitionBatch = (Vec<SessionRecord>, Vec<Post>);

/// Per-partition local-index → global-arrival-index maps, maintained by
/// [`HashRing::split`] across the build and every committed append.
/// `maps.sessions[p][i]` is the global position of partition `p`'s session
/// row `i`; likewise for posts. These are what let the router replay the
/// single service's exact row order without materialising a merged frame.
#[derive(Debug, Clone)]
struct OrderMaps {
    sessions: Vec<Vec<usize>>,
    posts: Vec<Vec<usize>>,
    total_sessions: usize,
    total_posts: usize,
}

impl OrderMaps {
    fn new(partitions: usize) -> OrderMaps {
        OrderMaps {
            sessions: vec![Vec::new(); partitions],
            posts: vec![Vec::new(); partitions],
            total_sessions: 0,
            total_posts: 0,
        }
    }
}

/// Reassemble one global-order column from per-partition rows: partition
/// `p`'s row `i` lands at global index `maps[p][i]`. Rows a lagging
/// partition has not produced yet (shorter `parts[p]` than its map) are
/// simply absent — the surviving rows keep their global relative order, so
/// a degraded cluster still answers deterministically.
fn merged<T>(maps: &[Vec<usize>], parts: Vec<Vec<T>>) -> Vec<T> {
    let total = maps.iter().map(Vec::len).sum();
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(total, || None);
    for (map, vals) in maps.iter().zip(parts) {
        for (&g, v) in map.iter().zip(vals) {
            out[g] = Some(v);
        }
    }
    out.into_iter().flatten().collect()
}

/// [`merged`] for sparse per-partition rows tagged with their local index
/// (e.g. rated sessions only): partition `p`'s `(local, value)` pairs land
/// at `maps[p][local]`, and the flattened result is the values in ascending
/// global order — the single frame's `rated_indices()` enumeration order.
fn merged_sparse<T>(maps: &[Vec<usize>], parts: Vec<(Vec<usize>, Vec<T>)>) -> Vec<T> {
    let total = maps.iter().map(Vec::len).sum();
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(total, || None);
    for (map, (locals, vals)) in maps.iter().zip(parts) {
        for (local, v) in locals.into_iter().zip(vals) {
            if let Some(&g) = map.get(local) {
                out[g] = Some(v);
            }
        }
    }
    out.into_iter().flatten().collect()
}

/// Scatter a closure across every partition's pinned generation on the
/// shared chunk-parallel helper: at most one thread per core, each running
/// a contiguous run of partitions. Results come back in partition order. A
/// panic in any worker is re-raised with its original payload.
fn scatter<T, F>(parts: &[Arc<Generation>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &Generation) -> T + Sync,
{
    analytics::par::par_map_ranges(parts.len(), parts.len(), 1, |range| {
        range.map(|p| f(p, &parts[p])).collect::<Vec<T>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Every partition's `key` view, built cold from its corpus and not
/// installed, in partition order. `SentimentPeaks`, `DeploymentAdvice`
/// and `SpeedTrend` merge these on every path, so no partition pays to
/// advance views that no measured cluster workload reads.
fn cold_views(parts: &[Arc<Generation>], key: ViewKey) -> Result<Vec<View>, UsaasError> {
    scatter(parts, |_, g| g.materialize_view(key))
        .into_iter()
        .collect()
}

/// Sum per-partition day series over the merged `(start, end)` range. A
/// partition without posts carries `Err(Empty)` and adds nothing. Every
/// addend is an integer-valued `f64` below 2^53, so the sum is exact in
/// any order and equals the single service's per-post accumulation.
fn summed_series<'a>(
    (start, end): (Date, Date),
    parts: impl IntoIterator<Item = Result<&'a DailySeries, &'a AnalyticsError>>,
) -> Result<DailySeries, AnalyticsError> {
    let mut total = DailySeries::zeros(start, end)?;
    for part in parts {
        match part {
            Ok(series) => {
                for (date, v) in series.iter() {
                    total.add(date, v);
                }
            }
            Err(AnalyticsError::Empty) => {}
            Err(e) => return Err(e.clone()),
        }
    }
    Ok(total)
}

/// One session row for the Fig. 1/3 sweeps: `(sweep value, engagement,
/// in-reference)`.
type CurveRow = (f64, f64, bool);
/// One session row for the Fig. 2 grid: `(latency, loss, engagement)`.
type GridRow = (f64, f64, f64);
/// One rated-session row for Fig. 4 / §5: per-metric engagement values (in
/// `EngagementMetric::ALL` order) plus the rating.
type MosRow = (Vec<f64>, f64);
/// One post row for Fig. 7: date plus the memoized screenshot shot when
/// the post carries one.
type ShotRow = (Date, Option<DocShot>);
/// One session row for the §5 cross-network join.
type CnRow = (AccessType, f64, f64, f64, Date, Option<u8>);
/// One partition's rated sliver: local rated indices plus each rated
/// session's feature row and rating.
type RatedPartial = (Vec<usize>, Vec<(Vec<f64>, f64)>);

/// An immutable cluster epoch: the pinned partition generations, the order
/// maps that describe how their rows interleave globally, and this epoch's
/// merged-answer cache. Queries pin one of these, so an append committing
/// mid-query never disturbs a running merge.
struct ClusterSnapshot {
    epoch: u64,
    parts: Vec<Arc<Generation>>,
    order: Arc<OrderMaps>,
    answers: MemoCache<QueryKey, Result<Answer, UsaasError>>,
    /// Outage detections shared by `OutageTimeline` and `CrossNetwork` —
    /// the router-side analogue of the generation's shared detection pass.
    outages: OnceLock<Result<Vec<DetectedOutage>, UsaasError>>,
}

impl ClusterSnapshot {
    fn new(epoch: u64, parts: Vec<Arc<Generation>>, order: Arc<OrderMaps>) -> ClusterSnapshot {
        ClusterSnapshot {
            epoch,
            parts,
            order,
            answers: MemoCache::default(),
            outages: OnceLock::new(),
        }
    }

    fn query(&self, query: &Query) -> Result<Answer, UsaasError> {
        self.answers
            .get_or_compute(QueryKey::of(query), || self.answer_merged(query))
    }

    /// Earliest and latest post dates across the partitions.
    fn date_range(&self) -> Result<(Date, Date), AnalyticsError> {
        merged_range(self.parts.iter().map(|g| g.date_range())).ok_or(AnalyticsError::Empty)
    }

    /// Scatter `query` to every partition and merge the partials — the
    /// uncached path behind [`ClusterSnapshot::query`].
    fn answer_merged(&self, query: &Query) -> Result<Answer, UsaasError> {
        match query {
            Query::EngagementCurve {
                sweep,
                engagement,
                bins,
            } => {
                let rows: Vec<Vec<CurveRow>> = scatter(&self.parts, |_, g| {
                    let frame = g.frame();
                    let xs = frame.net_mean(*sweep);
                    let ys = frame.engagement(*engagement);
                    let mask = frame.ref_row_mask(*sweep);
                    (0..frame.len())
                        .map(|i| (xs[i], ys[i], mask.get(i)))
                        .collect()
                });
                let rows = merged(&self.order.sessions, rows);
                let (lo, hi) = sweep.sweep_range();
                let spec = BinSpec::new(lo, hi, *bins)?;
                let xs: Vec<f64> = rows.iter().map(|r| r.0).collect();
                let ys: Vec<f64> = rows.iter().map(|r| r.1).collect();
                let mask = kernels::RowMask::from_fn(rows.len(), |i| rows[i].2);
                let acc = kernels::masked_binned_sum_count(&xs, &ys, &mask, spec);
                let binner = SumBinner::from_parts(spec, acc.sums, acc.counts, acc.dropped);
                Ok(Answer::Curve(binner.curve_mean(8).normalized_to_max(100.0)))
            }
            Query::CompoundingGrid { engagement, bins } => {
                let rows: Vec<Vec<GridRow>> = scatter(&self.parts, |_, g| {
                    let frame = g.frame();
                    let xs = frame.net_mean(conference::records::NetworkMetric::LatencyMs);
                    let ys = frame.net_mean(conference::records::NetworkMetric::LossPct);
                    let vs = frame.engagement(*engagement);
                    (0..frame.len()).map(|i| (xs[i], ys[i], vs[i])).collect()
                });
                let rows = merged(&self.order.sessions, rows);
                let (x, y) = correlate::grid_specs(*bins)?;
                let xs: Vec<f64> = rows.iter().map(|r| r.0).collect();
                let ys: Vec<f64> = rows.iter().map(|r| r.1).collect();
                let vs: Vec<f64> = rows.iter().map(|r| r.2).collect();
                let (sums, counts) = kernels::grid_sum_count(&xs, &ys, &vs, x, y);
                Ok(Answer::Grid(correlate::grid_from_sums(
                    x, y, *bins, &sums, &counts, 5,
                )))
            }
            Query::PlatformSensitivity { sweep, engagement } => {
                let bins = 4usize;
                let rows: Vec<Vec<(f64, f64, u32, bool)>> = scatter(&self.parts, |_, g| {
                    let frame = g.frame();
                    let xs = frame.net_mean(*sweep);
                    let ys = frame.engagement(*engagement);
                    let slots = frame.platform_slots();
                    let mask = frame.ref_row_mask(*sweep);
                    (0..frame.len())
                        .map(|i| (xs[i], ys[i], slots[i], mask.get(i)))
                        .collect()
                });
                let rows = merged(&self.order.sessions, rows);
                let (lo, hi) = sweep.sweep_range();
                let spec = BinSpec::new(lo, hi, bins)?;
                let xs: Vec<f64> = rows.iter().map(|r| r.0).collect();
                let ys: Vec<f64> = rows.iter().map(|r| r.1).collect();
                let slots: Vec<u32> = rows.iter().map(|r| r.2).collect();
                let mask = kernels::RowMask::from_fn(rows.len(), |i| rows[i].3);
                let slot_count = conference::platform::Platform::ALL.len();
                let (sums, counts, dropped) = kernels::masked_slot_binned_sum_count(
                    &xs, &ys, &slots, slot_count, &mask, spec,
                );
                let binners: Vec<SumBinner> = (0..slot_count)
                    .map(|s| {
                        SumBinner::from_parts(
                            spec,
                            sums[s * bins..(s + 1) * bins].to_vec(),
                            counts[s * bins..(s + 1) * bins].to_vec(),
                            dropped[s],
                        )
                    })
                    .collect();
                Ok(Answer::PlatformCurves(
                    correlate::platform_curves_from_sums(&binners, 5),
                ))
            }
            Query::MosCorrelation => {
                let rated = self.merged_mos_rows();
                let metrics = EngagementMetric::ALL.len();
                let ratings: Vec<f64> = rated.iter().map(|r| r.1).collect();
                let eng: Vec<Vec<f64>> = (0..metrics)
                    .map(|k| rated.iter().map(|r| r.0[k]).collect())
                    .collect();
                let mut curves = Vec::new();
                for (k, m) in EngagementMetric::ALL.iter().enumerate() {
                    curves.push((*m, correlate::mos_curve_from_vals(&eng[k], &ratings, 4, 3)?));
                }
                Ok(Answer::Mos {
                    curves,
                    ranking: correlate::mos_correlations_vals(&eng, &ratings)?,
                })
            }
            Query::PredictMos { features } => {
                let rows: Vec<RatedPartial> = scatter(&self.parts, |_, g| {
                    let frame = g.frame();
                    let rated = frame.rated_indices().to_vec();
                    let (feats, ratings) = predict::rated_features(frame, &rated, *features);
                    (rated, feats.into_iter().zip(ratings).collect())
                });
                let rows = merged_sparse(&self.order.sessions, rows);
                let (feats, ratings): (Vec<Vec<f64>>, Vec<f64>) = rows.into_iter().unzip();
                let (_, eval) = predict::train_and_evaluate_vals(&feats, &ratings, *features, 4)?;
                Ok(Answer::Prediction(eval))
            }
            Query::OutageTimeline => Ok(Answer::Outages(self.merged_outages()?.to_vec())),
            Query::SentimentPeaks { k } => self.sentiment_peaks(*k),
            Query::SpeedTrend => self.speed_trend(),
            Query::EmergingTopics => self.emerging_topics(),
            Query::CrossNetwork { access } => self.cross_network(*access),
            Query::DeploymentAdvice => self.deployment_advice(),
        }
    }

    /// Gather every partition's rated rows (per-metric engagement values
    /// plus the rating) in global rated order — Fig. 4's input columns.
    fn merged_mos_rows(&self) -> Vec<MosRow> {
        let rows: Vec<(Vec<usize>, Vec<MosRow>)> = scatter(&self.parts, |_, g| {
            let frame = g.frame();
            let rated = frame.rated_indices().to_vec();
            let cols: Vec<&[f64]> = EngagementMetric::ALL
                .iter()
                .map(|&m| frame.engagement(m))
                .collect();
            let ratings = frame.rating();
            let vals: Vec<MosRow> = rated
                .iter()
                .map(|&i| {
                    (
                        cols.iter().map(|c| c[i]).collect(),
                        f64::from(ratings[i].expect("rated index carries a rating")),
                    )
                })
                .collect();
            (rated, vals)
        });
        merged_sparse(&self.order.sessions, rows)
    }

    /// The shared outage-detection pass: every partition's carried
    /// [`ViewKey::Outage`] keyword series summed over the merged date
    /// range, then peaks found once with the single detector's thresholds.
    /// `OutageTimeline` and `CrossNetwork` read it on both the serving and
    /// the fresh path, as they read the shared detections on one service.
    fn merged_outages(&self) -> Result<&[DetectedOutage], UsaasError> {
        self.outages
            .get_or_init(|| {
                let views = scatter(&self.parts, |_, g| g.view(ViewKey::Outage))
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()?;
                let series = summed_series(
                    self.date_range()?,
                    views.iter().map(|view| match &**view {
                        View::Outage(v) => v.series(),
                        _ => unreachable!("ViewKey::Outage holds an outage view"),
                    }),
                )?;
                Ok(OutageDetector::default().detections_in(&series))
            })
            .as_deref()
            .map_err(Clone::clone)
    }

    /// §5 cross-network: gather the session columns in global order and
    /// run the single service's report body over them.
    fn cross_network(&self, access: AccessType) -> Result<Answer, UsaasError> {
        let rows: Vec<Vec<CnRow>> = scatter(&self.parts, |_, g| {
            let frame = g.frame();
            let acc = frame.access();
            let presence = frame.engagement(EngagementMetric::Presence);
            let mic = frame.engagement(EngagementMetric::MicOn);
            let cam = frame.engagement(EngagementMetric::CamOn);
            let dates = frame.date();
            let ratings = frame.rating();
            (0..frame.len())
                .map(|i| (acc[i], presence[i], mic[i], cam[i], dates[i], ratings[i]))
                .collect()
        });
        let rows = merged(&self.order.sessions, rows);
        let access_col: Vec<AccessType> = rows.iter().map(|r| r.0).collect();
        let presence: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let mic: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let cam: Vec<f64> = rows.iter().map(|r| r.3).collect();
        let date: Vec<Date> = rows.iter().map(|r| r.4).collect();
        let rating: Vec<Option<u8>> = rows.iter().map(|r| r.5).collect();
        let cols = CrossNetworkColumns {
            access: &access_col,
            presence: &presence,
            mic: &mic,
            cam: &cam,
            date: &date,
            rating: &rating,
        };
        cross_network_report(access, &cols, || self.merged_outages()).map(Answer::CrossNetwork)
    }

    /// §6 deployment advice: the partitions' cold [`ViewKey::Deployment`]
    /// strong-negative band counts are integer-valued, so their sum is
    /// exact.
    fn deployment_advice(&self) -> Result<Answer, UsaasError> {
        let mut counts = [0.0f64; 9];
        for view in cold_views(&self.parts, ViewKey::Deployment)? {
            let View::Deployment(v) = view else {
                unreachable!("ViewKey::Deployment holds a deployment view")
            };
            for (c, n) in counts.iter_mut().zip(v.band_counts()) {
                *c += n;
            }
        }
        let demand = regional_demand(counts)
            .ok_or(UsaasError::NoData("no strong-negative social signals"))?;
        Ok(Answer::Deployment(DeploymentPlanner::gen1().rank(&demand)))
    }

    /// Fig. 5 annotated sentiment peaks from the partitions' cold
    /// [`ViewKey::Sentiment`] builds. Phase 1 sums the strong-positive and
    /// strong-negative day series (integer counts, exact in any order).
    /// Phase 2 scatters the top-`k` peak days: each partition counts the
    /// day's unigrams at full resolution and collects the countries of its
    /// strong posts from the view's scores. The router adds the word
    /// tables, unions the countries and runs the single service's
    /// annotation tail.
    fn sentiment_peaks(&self, k: usize) -> Result<Answer, UsaasError> {
        let annot = PeakAnnotator::default();
        let views = cold_views(&self.parts, ViewKey::Sentiment)?;
        let views: Vec<&SentimentView> = views
            .iter()
            .map(|view| match view {
                View::Sentiment(v) => v,
                _ => unreachable!("ViewKey::Sentiment holds a sentiment view"),
            })
            .collect();
        let range = self.date_range()?;
        let series = SentimentSeries {
            strong_positive: summed_series(
                range,
                views.iter().map(|v| v.series().map(|s| &s.strong_positive)),
            )?,
            strong_negative: summed_series(
                range,
                views.iter().map(|v| v.series().map(|s| &s.strong_negative)),
            )?,
        };
        let peak_dates: Vec<Date> = series
            .combined()
            .peaks(annot.min_peak_score, annot.refractory_days)
            .iter()
            .take(k)
            .map(|p| p.date)
            .collect();
        type PeakDay = (Vec<(String, f64)>, HashSet<&'static str>);
        let days: Vec<Vec<PeakDay>> = scatter(&self.parts, |p, g| {
            let corpus = g.social_corpus();
            let scores = views[p].scores();
            peak_dates
                .iter()
                .map(|&date| {
                    let mut counts = IdNgramCounts::new();
                    let mut posts = Vec::new();
                    for ((i, post), &score) in g.forum().iter().enumerate().zip(scores) {
                        if post.date == date {
                            counts.add_unigrams(corpus, i, 1.0);
                            posts.push((post, score));
                        }
                    }
                    // Full table — truncating here would corrupt the merge.
                    (
                        counts.top_k(corpus.vocab(), usize::MAX),
                        strong_countries(posts),
                    )
                })
                .collect()
        });
        let day = |date: Date| {
            peak_dates
                .iter()
                .position(|&d| d == date)
                .expect("the annotation tail visits the scattered peak days")
        };
        let cloud_day = |date: Date| {
            let i = day(date);
            let mut table = NgramCounts::new();
            for part in &days {
                table.extend(part[i].0.iter().cloned());
            }
            WordCloud::from_counts(&table, CLOUD_WORDS)
        };
        let countries_on = |date: Date| {
            let i = day(date);
            days.iter()
                .flat_map(|part| part[i].1.iter())
                .collect::<HashSet<_>>()
                .len()
        };
        Ok(Answer::Peaks(annot.annotate_with(
            k,
            series,
            cloud_day,
            countries_on,
        )?))
    }

    /// Fig. 7 speed trend: partitions ship `(date, shot)` rows from a cold
    /// [`ViewKey::SpeedTrend`] memo (per-post, partition-independent); the
    /// router replays the month loop — including its RNG stream — over the
    /// global-order rows.
    fn speed_trend(&self) -> Result<Answer, UsaasError> {
        let part_rows: Vec<Vec<ShotRow>> = scatter(&self.parts, |_, g| {
            let View::SpeedTrend(v) = g.materialize_view(ViewKey::SpeedTrend)? else {
                unreachable!("ViewKey::SpeedTrend holds a speed-trend view")
            };
            Ok(g.forum()
                .iter()
                .map(|post| post.date)
                .zip(v.shots().iter().copied())
                .collect())
        })
        .into_iter()
        .collect::<Result<_, UsaasError>>()?;
        let rows = merged(&self.order.posts, part_rows);
        let (lo, hi) = merged_range(rows.iter().map(|r| Some((r.0, r.0))))
            .ok_or(UsaasError::NoData("empty forum"))?;
        let dates: Vec<Date> = rows.iter().map(|r| r.0).collect();
        let points = FulcrumAnalysis::default().analyze_dated_shots(
            &dates,
            lo.month(),
            hi.month(),
            |i| rows[i].1,
        )?;
        Ok(Answer::Speeds(points))
    }

    /// §4.1 emerging topics. Partitions ship per-day engagement-weighted
    /// word tables (integer-valued weights — additive merges are exact);
    /// the router slides the miner's window ([`Slide`]) over the merged
    /// tables, then scatters the polarity scan for flagged terms back to
    /// the partitions and averages in global post order.
    fn emerging_topics(&self) -> Result<Answer, UsaasError> {
        let miner = EmergingTopicMiner::default();
        miner.check()?;
        type DayTerms = BTreeMap<i32, HashMap<String, f64>>;
        let parts: Vec<(Option<(Date, Date)>, DayTerms)> = scatter(&self.parts, |_, g| {
            let corpus = g.social_corpus();
            let mut days: BTreeMap<i32, IdNgramCounts> = BTreeMap::new();
            for (i, p) in g.forum().iter().enumerate() {
                days.entry(p.date.days()).or_default().add_unigrams(
                    corpus,
                    i,
                    p.engagement_weight(),
                );
            }
            let vocab = corpus.vocab();
            let days = days
                .into_iter()
                .map(|(day, counts)| {
                    let terms = counts
                        .iter_unigrams()
                        .map(|(id, w)| (vocab.word(id).to_string(), w))
                        .collect();
                    (day, terms)
                })
                .collect();
            (g.date_range(), days)
        });
        let (start, end) = merged_range(parts.iter().map(|p| p.0))
            .ok_or(UsaasError::Analytics(AnalyticsError::Empty))?;
        let mut day_terms: DayTerms = BTreeMap::new();
        for (_, days) in parts {
            for (day, terms) in days {
                let slot = day_terms.entry(day).or_default();
                for (term, w) in terms {
                    *slot.entry(term).or_insert(0.0) += w;
                }
            }
        }
        // Each day's table is taken exactly once: by the history pre-load
        // or when the day enters the window.
        let mut take_day = |day: Date| -> DayTally<String> {
            day_terms
                .remove(&day.days())
                .unwrap_or_default()
                .into_iter()
                .collect()
        };
        let mut history = TermWeights::default();
        let cursor = start.offset(miner.window_days);
        for day in start.iter_through(cursor.offset(-1)) {
            history.add(&take_day(day));
        }
        let mut detected: HashSet<String> = HashSet::new();
        // (term, window start, window end, weight, novelty) per first flag.
        let mut flagged: Vec<(String, Date, Date, f64, f64)> = Vec::new();
        let mut slide = Slide::new(&miner, &mut history, cursor, end);
        while let Some((win_start, win_end, flags)) =
            slide.next_window(&mut take_day, |term| detected.contains(term))
        {
            for flag in flags {
                detected.insert(flag.term.clone());
                flagged.push((flag.term, win_start, win_end, flag.weight, flag.novelty));
            }
        }
        // Polarity scan for the flagged terms, back at the partitions.
        let flagged = &flagged;
        let pol_parts: Vec<Vec<(Vec<usize>, Vec<f64>)>> = scatter(&self.parts, |_, g| {
            let corpus = g.social_corpus();
            let vocab = corpus.vocab();
            let analyzer = SentimentAnalyzer::default();
            flagged
                .iter()
                .map(|(term, from, to, _, _)| {
                    let mut locals = Vec::new();
                    let mut pols = Vec::new();
                    for (i, p) in g.forum().iter().enumerate() {
                        if p.date >= *from
                            && p.date <= *to
                            && (p.title.to_lowercase().contains(term)
                                || p.body.to_lowercase().contains(term))
                        {
                            locals.push(i);
                            pols.push(analyzer.score_ids(corpus.doc(i), vocab).polarity());
                        }
                    }
                    (locals, pols)
                })
                .collect()
        });
        let mut topics: Vec<EmergingTopic> = flagged
            .iter()
            .enumerate()
            .map(|(fi, (term, _, win_end, weight, novelty))| {
                let per_part: Vec<(Vec<usize>, Vec<f64>)> = pol_parts
                    .iter()
                    .map(|part| part.get(fi).cloned().unwrap_or_default())
                    .collect();
                let pols = merged_sparse(&self.order.posts, per_part);
                EmergingTopic {
                    term: term.clone(),
                    first_flagged: *win_end,
                    window_weight: *weight,
                    novelty: *novelty,
                    polarity: analytics::mean(&pols).unwrap_or(0.0),
                }
            })
            .collect();
        sort_detections(&mut topics);
        Ok(Answer::Topics(topics))
    }
}

/// Aggregated cluster health: the per-partition [`ServiceHealth`] reports
/// plus router-level totals, so a degraded partition is never silently
/// dropped from the cluster's health signal.
#[derive(Debug, Clone)]
pub struct ClusterHealth {
    /// Cluster epoch (committed cluster-wide appends).
    pub epoch: u64,
    /// Each partition's own health, in partition order.
    pub partitions: Vec<ServiceHealth>,
    /// Open breakers across the router and every partition, prefixed
    /// `part-N/` for partition-side sources.
    pub open_breakers: Vec<String>,
    /// Dead-lettered items across the router and every partition.
    pub quarantined_total: usize,
    /// Items that never reached a worker pool, cluster-wide.
    pub unfed_total: usize,
    /// Breaker trips cluster-wide.
    pub breaker_trips_total: usize,
    /// Recovery repairs across the cluster log and every partition,
    /// prefixed `part-N:` for partition-side warnings.
    pub recovery_warnings: Vec<String>,
    /// Dead-letter entries evicted from bounded rings cluster-wide (still
    /// counted in `quarantined_total`).
    pub dead_letters_dropped: usize,
    /// Recovery warnings evicted from bounded rings cluster-wide.
    pub recovery_warnings_dropped: usize,
    /// Merged journal observability — the root cluster log plus every
    /// partition's journal ([`JournalStats::merge`] semantics); `None` for
    /// an in-memory cluster.
    pub journal: Option<JournalStats>,
}

impl ClusterHealth {
    /// True when any source's breaker ended the last run open — somewhere
    /// in the cluster — so answers may be stale.
    pub fn is_stale(&self) -> bool {
        !self.open_breakers.is_empty()
    }

    /// True when anything, anywhere in the cluster, has degraded ingestion
    /// or durability. The aggregate fields already fold in every
    /// partition, so one degraded partition degrades the cluster.
    pub fn is_degraded(&self) -> bool {
        self.is_stale()
            || self.quarantined_total > 0
            || self.unfed_total > 0
            || !self.recovery_warnings.is_empty()
    }
}

/// The cluster's durable state: the root journal ("cluster log") every
/// accepted batch is recorded in before any partition commits it, plus the
/// bookkeeping [`PartitionedService::compact_root_log`] needs to drop the
/// log's absorbed prefix safely.
struct ClusterPersist {
    /// The cluster log, in the cluster directory's root.
    wal: Wal,
    /// One entry per live record, in seq order: `(seq, per-partition
    /// non-empty flags)`. The flags are what
    /// [`PartitionedService::compact_root_log`] folds to decide how many
    /// committed batches each record contributes per partition.
    ledger: VecDeque<(u64, Vec<bool>)>,
    /// Committed non-empty sub-batches per partition *before* the first
    /// ledger entry — the indexing origin compaction advances as it drops
    /// records.
    base_count: Vec<u64>,
}

/// A consistent-hash sharded [`UsaasService`] cluster behind a merging
/// query router.
///
/// Sessions shard by `user_id`, posts by `author_id`; queries fan out to
/// every partition in parallel and the router merges the partials into
/// answers bit-identical to a single [`UsaasService`] over the same data,
/// at every partition and worker count.
pub struct PartitionedService {
    parts: Vec<UsaasService>,
    ring: HashRing,
    workers: usize,
    current: RwLock<Arc<ClusterSnapshot>>,
    append_lock: Mutex<()>,
    /// Router-side health: ingest damage the cluster log recorded plus
    /// anything cluster recovery had to repair. Partition-side totals live
    /// in the partitions and are aggregated on demand by
    /// [`PartitionedService::health`].
    totals: Mutex<HealthTotals>,
    persist: Option<Mutex<ClusterPersist>>,
}

impl PartitionedService {
    /// Build an in-memory cluster of `partitions` shards, `workers` threads
    /// per partition (and per router scatter).
    pub fn build(
        dataset: CallDataset,
        forum: Forum,
        partitions: usize,
        workers: usize,
    ) -> PartitionedService {
        let ring = HashRing::new(partitions);
        let mut order = OrderMaps::new(ring.partitions());
        let batches = ring.split(dataset.sessions, forum.posts, &mut order);
        let parts = Self::build_partitions(batches, workers);
        Self::assemble(parts, ring, order, workers, None)
    }

    /// Build a *durable* cluster in `dir`: the cluster log and metadata at
    /// the root, one `part-N/` persisted service per partition. Refuses a
    /// directory that already holds a persisted cluster — that is what
    /// [`PartitionedService::open_or_recover`] is for.
    pub fn build_persistent(
        dataset: CallDataset,
        forum: Forum,
        partitions: usize,
        workers: usize,
        dir: &Path,
    ) -> Result<PartitionedService, PersistError> {
        std::fs::create_dir_all(dir)?;
        if dir.join(JOURNAL_FILE).exists() || dir.join(CLUSTER_META).exists() {
            return Err(PersistError::Corrupt {
                file: dir.display().to_string(),
                detail: "directory already holds a persisted cluster; open_or_recover it instead"
                    .to_string(),
            });
        }
        let ring = HashRing::new(partitions);
        write_meta(dir, ring.partitions())?;
        let mut wal = Wal::create(dir)?;
        // The base record (always seq 1) carries the full build dataset, so
        // recovery can re-derive the order maps before any partition opens.
        let (base, written) =
            wal.append(0, dataset.sessions, forum.posts, &IngestReport::default());
        written?;
        let mut order = OrderMaps::new(ring.partitions());
        let batches = ring.split(base.sessions, base.posts, &mut order);
        let mut parts = Vec::new();
        for (p, (sessions, posts)) in batches.into_iter().enumerate() {
            parts.push(UsaasService::build_persistent(
                CallDataset { sessions },
                Forum { posts },
                workers,
                &dir.join(format!("part-{p}")),
            )?);
        }
        let mut ledger = VecDeque::new();
        // The base record commits through the partitions' own builds, not
        // through roll-forward, so its ledger flags are all-false.
        ledger.push_back((1, vec![false; ring.partitions()]));
        let persist = Some(Mutex::new(ClusterPersist {
            wal,
            ledger,
            base_count: vec![0; ring.partitions()],
        }));
        Ok(Self::assemble(parts, ring, order, workers, persist))
    }

    /// Reopen a persisted cluster: recover every partition, re-derive the
    /// order maps from the newest cluster root snapshot (when one exists)
    /// plus a replay of the cluster log through the ring, and roll forward
    /// any partition that persisted fewer committed batches than the log
    /// records (per-partition crash recovery). Repairs land in
    /// [`ClusterHealth::recovery_warnings`] instead of failing the open.
    pub fn open_or_recover(dir: &Path, workers: usize) -> Result<PartitionedService, PersistError> {
        let partitions = read_meta(dir)?;
        let ring = HashRing::new(partitions);
        let mut warnings = Vec::new();
        // Newest loadable cluster root snapshot: the order maps, router
        // totals, and per-partition batch counts through `covered_seq`,
        // written by `compact_root_log` before it drops the absorbed log
        // prefix. `None` on a never-compacted cluster — the legacy path,
        // where the full log (base record included) re-derives everything.
        let snap = match load_latest_cluster_snapshot(dir, &mut warnings) {
            Some(s) if s.partitions != partitions => {
                warnings.push(format!(
                    "cluster snapshot was built for {} partition(s) but cluster.meta says \
                     {partitions}; ignoring it",
                    s.partitions
                ));
                None
            }
            other => other,
        };
        let covered = snap.as_ref().map(|s| s.covered_seq).unwrap_or(0);
        let records = read_and_repair_journal(&dir.join(JOURNAL_FILE), &mut warnings)?;
        if snap.is_none() && records.first().map(|r| r.seq) != Some(1) {
            warnings
                .push("cluster log lost its base record; query merges may drop rows".to_string());
        }
        if let Some(first) = records.first().map(|r| r.seq) {
            if covered > 0 && first > covered + 1 {
                warnings.push(format!(
                    "cluster log starts at seq {first} but the newest cluster snapshot covers \
                     only seq {covered}; records in between are lost"
                ));
            }
        }
        let mut parts = Vec::new();
        for p in 0..partitions {
            parts.push(UsaasService::open_or_recover(
                &dir.join(format!("part-{p}")),
                workers,
            )?);
        }
        let mut order = OrderMaps::new(partitions);
        let mut totals = HealthTotals::default();
        let mut cluster_epoch = 0u64;
        let mut last_seq = 0u64;
        if let Some(s) = &snap {
            order.sessions = s.session_maps.clone();
            order.posts = s.post_maps.clone();
            order.total_sessions = s.total_sessions;
            order.total_posts = s.total_posts;
            totals.quarantined = s.quarantined;
            totals.unfed = s.unfed;
            totals.breaker_trips = s.breaker_trips;
            totals.open_breakers = s.open_breakers.clone();
            totals.dead_letters.replace(s.dead_letters.clone());
            totals.dead_letters.set_dropped(s.dead_letters_dropped);
            cluster_epoch = s.epoch;
            last_seq = s.covered_seq;
        }
        // Every surviving record contributes roll-forward batches, but only
        // records *past* the snapshot's coverage contribute to the maps,
        // totals, and epoch — pre-covered survivors (a compaction that
        // crashed between snapshot write and journal rewrite) split into a
        // scratch map so their batches can still index correctly.
        let mut scratch = OrderMaps::new(partitions);
        let mut pending: Vec<Vec<PartitionBatch>> = vec![Vec::new(); partitions];
        // Pre-covered pending batches per partition — subtracted from the
        // snapshot's cumulative counts to find the indexing origin of
        // `pending` (`base_count`).
        let mut cnt_pre = vec![0u64; partitions];
        let mut ledger: VecDeque<(u64, Vec<bool>)> = VecDeque::new();
        let live_records = records.len() as u64;
        let oldest_live_seq = records.first().map(|r| r.seq).unwrap_or(0);
        for rec in records {
            let is_base = rec.seq == 1;
            let seq = rec.seq;
            let pre_covered = seq <= covered;
            let maps = if pre_covered {
                &mut scratch
            } else {
                &mut order
            };
            let batches = ring.split(rec.sessions, rec.posts, maps);
            let mut flags = vec![false; partitions];
            if !is_base {
                for (p, batch) in batches.into_iter().enumerate() {
                    if !batch.0.is_empty() || !batch.1.is_empty() {
                        flags[p] = true;
                        if pre_covered {
                            cnt_pre[p] += 1;
                        }
                        pending[p].push(batch);
                    }
                }
            }
            if !pre_covered {
                totals.fold(
                    rec.quarantined.into_iter(),
                    rec.unfed,
                    rec.breaker_trips,
                    rec.open_breakers,
                );
                cluster_epoch = rec.epoch_after;
            }
            last_seq = last_seq.max(seq);
            ledger.push_back((seq, flags));
        }
        // Committed batches per partition *before* the first entry of
        // `pending` — zero without a snapshot (the log starts at the base
        // record), else the snapshot's cumulative count minus the
        // pre-covered survivors that also landed in `pending`.
        let base_count: Vec<u64> = match &snap {
            Some(s) => s
                .batch_counts
                .iter()
                .zip(&cnt_pre)
                .map(|(c, pre)| c.saturating_sub(*pre))
                .collect(),
            None => vec![0; partitions],
        };
        // Roll forward partitions that crashed before persisting batches
        // the cluster log committed.
        for (p, part) in parts.iter().enumerate() {
            let have = part.epoch();
            let base = base_count[p];
            let want = base + pending[p].len() as u64;
            if have > want {
                warnings.push(format!(
                    "part-{p} is ahead of the cluster log (epoch {have}, expected {want})"
                ));
            } else if have < base {
                // The partition fell behind the compacted prefix — batches
                // (have, base] left the log, so full repair is impossible.
                // Replay what remains and flag the gap.
                warnings.push(format!(
                    "part-{p} recovered at epoch {have}, below the compacted cluster log's \
                     floor {base}; replaying only the {} retained batch(es)",
                    pending[p].len()
                ));
                for (sessions, posts) in pending[p].iter() {
                    let _ = part.append_batch(sessions.clone(), posts.clone());
                }
            } else if have < want {
                warnings.push(format!(
                    "part-{p} recovered at epoch {have}, cluster log expects {want}; \
                     replaying {} batch(es)",
                    want - have
                ));
                for (sessions, posts) in pending[p].iter().skip((have - base) as usize) {
                    let _ = part.append_batch(sessions.clone(), posts.clone());
                }
            }
        }
        totals.recovery_warnings.replace(warnings);
        let wal = Wal::resume(dir, last_seq, live_records, oldest_live_seq)?;
        let snapshots: Vec<Arc<Generation>> = parts.iter().map(UsaasService::snapshot).collect();
        let snapshot = ClusterSnapshot::new(cluster_epoch, snapshots, Arc::new(order));
        Ok(PartitionedService {
            parts,
            ring,
            workers,
            current: RwLock::new(Arc::new(snapshot)),
            append_lock: Mutex::new(()),
            totals: Mutex::new(totals),
            persist: Some(Mutex::new(ClusterPersist {
                wal,
                ledger,
                base_count,
            })),
        })
    }

    /// Build every partition, one thread each.
    fn build_partitions(batches: Vec<PartitionBatch>, workers: usize) -> Vec<UsaasService> {
        analytics::par::par_map_on(batches, |(sessions, posts)| {
            UsaasService::build(CallDataset { sessions }, Forum { posts }, workers)
        })
    }

    fn assemble(
        parts: Vec<UsaasService>,
        ring: HashRing,
        order: OrderMaps,
        workers: usize,
        persist: Option<Mutex<ClusterPersist>>,
    ) -> PartitionedService {
        let snapshots: Vec<Arc<Generation>> = parts.iter().map(UsaasService::snapshot).collect();
        let snapshot = ClusterSnapshot::new(0, snapshots, Arc::new(order));
        PartitionedService {
            parts,
            ring,
            workers,
            current: RwLock::new(Arc::new(snapshot)),
            append_lock: Mutex::new(()),
            totals: Mutex::new(HealthTotals::default()),
            persist,
        }
    }

    /// Pin the current cluster snapshot — a cheap `Arc` clone.
    fn snapshot(&self) -> Arc<ClusterSnapshot> {
        self.current.read().clone()
    }

    /// Number of partitions in the cluster.
    pub fn partitions(&self) -> usize {
        self.ring.partitions()
    }

    /// True when the cluster was opened on a persist directory.
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// Cluster epoch: committed cluster-wide appends since the build.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Signal counts `(implicit, explicit, social)` summed over partitions.
    pub fn signal_counts(&self) -> (usize, usize, usize) {
        self.parts
            .iter()
            .map(UsaasService::signal_counts)
            .fold((0, 0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1, acc.2 + c.2))
    }

    /// Merged-answer cache hits of the current cluster epoch.
    pub fn cache_hits(&self) -> usize {
        self.snapshot().answers.hits()
    }

    /// Merged-answer cache misses of the current cluster epoch (distinct
    /// queries merged this epoch).
    pub fn cache_misses(&self) -> usize {
        self.snapshot().answers.misses()
    }

    /// Answer one query by scattering it to every partition and merging the
    /// partials — bit-identical to a single [`UsaasService`] over the same
    /// data. Merged answers are memoized per cluster epoch.
    pub fn query(&self, query: &Query) -> Result<Answer, UsaasError> {
        self.snapshot().query(query)
    }

    /// [`PartitionedService::query`] bypassing the cluster's merged-answer
    /// cache — every partition scatter recomputes (partition-generation
    /// caches still apply). As on one service, `SentimentPeaks`,
    /// `DeploymentAdvice` and `SpeedTrend` merge cold partition builds that
    /// are never installed, and `OutageTimeline` and `CrossNetwork` read the
    /// partitions' carried outage views, as the single service's fresh path
    /// reads its shared detections. This is the scaling-measurement path.
    pub fn answer_fresh(&self, query: &Query) -> Result<Answer, UsaasError> {
        self.snapshot().answer_merged(query)
    }

    /// Answer one query and annotate it with the cluster's health — the
    /// degraded-serving contract extended cluster-wide.
    pub fn query_with_health(&self, query: &Query) -> (Result<Answer, UsaasError>, ClusterHealth) {
        (self.query(query), self.health())
    }

    /// Answer a batch of queries concurrently: the batch splits into
    /// contiguous runs, one scoped worker per run, at most `workers` of
    /// them and no more than the machine has cores; results come back in
    /// input order. The whole batch pins **one** cluster snapshot, so its
    /// answers are mutually consistent even if an append commits
    /// mid-batch, and the workers share the epoch's merged caches.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Result<Answer, UsaasError>> {
        let snapshot = self.snapshot();
        analytics::par::par_map_ranges(queries.len(), self.workers, 1, |range| {
            queries[range]
                .iter()
                .map(|q| snapshot.query(q))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Ingest `sources` through the resilient streaming engine at the
    /// router, journal the accepted batch in the cluster log, then split it
    /// across partitions and commit them in parallel. Per-partition ingest
    /// damage comes back in the report with `part-N/`-prefixed source
    /// names. A cluster-log write failure aborts the commit cluster-wide —
    /// memory matches disk, and the failure lands in
    /// [`ClusterHealth::recovery_warnings`].
    pub fn ingest_append(
        &self,
        sources: Vec<Box<dyn Source + '_>>,
        cfg: &IngestConfig,
    ) -> IngestReport {
        let _appending = self.append_lock.lock();
        // Router-side validation: quarantine and breaker bookkeeping
        // happen here; the partitions commit the accepted items.
        let (mut report, accepted) = ingest::ingest_stream_collect(sources, cfg);
        let mut sessions: Vec<SessionRecord> = Vec::new();
        let mut posts: Vec<Post> = Vec::new();
        for item in accepted {
            match item {
                RawItem::Session(s) => sessions.push(*s),
                RawItem::Post(p) => posts.push(*p),
                RawItem::Poison(_) => {}
            }
        }
        let mut will_commit = !sessions.is_empty() || !posts.is_empty();
        let base = self.snapshot();
        if let Some(persist) = &self.persist {
            // Ledger flags for compaction bookkeeping: which partitions
            // this record hands a non-empty sub-batch (computed before the
            // lock — routing is a pure ring lookup, no split needed yet).
            let mut flags = vec![false; self.ring.partitions()];
            for s in &sessions {
                flags[self.ring.partition_of(s.user_id)] = true;
            }
            for p in &posts {
                flags[self.ring.partition_of(p.author_id)] = true;
            }
            let mut state = persist.lock();
            let epoch_after = base.epoch + u64::from(will_commit);
            let (record, written) = state.wal.append(epoch_after, sessions, posts, &report);
            match written {
                Ok(()) => state.ledger.push_back((record.seq, flags)),
                Err(e) => {
                    will_commit = false;
                    self.totals.lock().recovery_warnings.push(format!(
                        "cluster log append for seq {} failed; batch not committed so memory \
                         matches disk — retry after the journal recovers: {e}",
                        record.seq
                    ));
                }
            }
            sessions = record.sessions;
            posts = record.posts;
        }
        self.totals.lock().note_report(&report);
        if will_commit {
            let mut order = (*base.order).clone();
            let batches = self.ring.split(sessions, posts, &mut order);
            // One thread per partition. Empty sub-batches are skipped so
            // the partition's epoch advances only on batches the recovery
            // roll-forward will count.
            let part_reports: Vec<Option<IngestReport>> = analytics::par::par_map_on(
                self.parts.iter().zip(batches).collect(),
                |(part, (sessions, posts))| {
                    (!sessions.is_empty() || !posts.is_empty())
                        .then(|| part.append_batch(sessions, posts))
                },
            );
            for (p, part_report) in part_reports.into_iter().enumerate() {
                let Some(mut pr) = part_report else { continue };
                report.stored += pr.stored;
                report.fed += pr.fed;
                report.unfed += pr.unfed;
                report.retries += pr.retries;
                report.breaker_trips += pr.breaker_trips;
                for q in &mut pr.quarantined {
                    q.source = format!("part-{p}/{}", q.source);
                }
                report.quarantined.extend(pr.quarantined);
                for s in &mut pr.sources {
                    s.name = format!("part-{p}/{}", s.name);
                }
                report.sources.extend(pr.sources);
            }
            let snapshots: Vec<Arc<Generation>> =
                self.parts.iter().map(UsaasService::snapshot).collect();
            let next = ClusterSnapshot::new(base.epoch + 1, snapshots, Arc::new(order));
            *self.current.write() = Arc::new(next);
        }
        report
    }

    /// Append trusted in-memory batches — the convenience path over
    /// [`PartitionedService::ingest_append`].
    pub fn append_batch(&self, sessions: Vec<SessionRecord>, posts: Vec<Post>) -> IngestReport {
        let cfg = IngestConfig::with_workers(self.workers);
        self.ingest_append(trusted_sources(sessions, posts), &cfg)
    }

    /// Aggregated cluster health: router totals folded with every
    /// partition's live [`ServiceHealth`], so a degraded partition always
    /// degrades the cluster's aggregate.
    pub fn health(&self) -> ClusterHealth {
        let epoch = self.epoch();
        let partitions: Vec<ServiceHealth> = self.parts.iter().map(UsaasService::health).collect();
        // Root journal stats take the cluster persist lock; like the
        // single-service path, grab them before the totals lock
        // (`ingest_append` pushes into totals while holding persist).
        let mut journal = self.root_journal_stats();
        for part in partitions.iter().filter_map(|h| h.journal.as_ref()) {
            match &mut journal {
                Some(j) => j.merge(part),
                None => journal = Some(*part),
            }
        }
        let totals = self.totals.lock();
        let mut open_breakers = totals.open_breakers.clone();
        let mut quarantined_total = totals.quarantined;
        let mut unfed_total = totals.unfed;
        let mut breaker_trips_total = totals.breaker_trips;
        let mut recovery_warnings = totals.recovery_warnings.to_vec();
        let mut dead_letters_dropped = totals.dead_letters.dropped();
        let mut recovery_warnings_dropped = totals.recovery_warnings.dropped();
        for (p, h) in partitions.iter().enumerate() {
            open_breakers.extend(h.open_breakers.iter().map(|b| format!("part-{p}/{b}")));
            quarantined_total += h.quarantined_total;
            unfed_total += h.unfed_total;
            breaker_trips_total += h.breaker_trips_total;
            recovery_warnings.extend(h.recovery_warnings.iter().map(|w| format!("part-{p}: {w}")));
            dead_letters_dropped += h.dead_letters_dropped;
            recovery_warnings_dropped += h.recovery_warnings_dropped;
        }
        ClusterHealth {
            epoch,
            partitions,
            open_breakers,
            quarantined_total,
            unfed_total,
            breaker_trips_total,
            recovery_warnings,
            dead_letters_dropped,
            recovery_warnings_dropped,
            journal,
        }
    }

    /// Journal stats of the root cluster log alone; `None` for an
    /// in-memory cluster. Compaction counters count
    /// [`PartitionedService::compact_root_log`] passes that dropped
    /// records since this handle opened.
    pub fn root_journal_stats(&self) -> Option<JournalStats> {
        Some(self.persist.as_ref()?.lock().wal.stats())
    }

    /// Merged journal observability — the root cluster log folded with
    /// every partition's journal ([`JournalStats::merge`] semantics);
    /// `None` for an in-memory cluster.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        let mut journal = self.root_journal_stats();
        for part in &self.parts {
            if let Some(stats) = part.journal_stats() {
                match &mut journal {
                    Some(j) => j.merge(&stats),
                    None => journal = Some(stats),
                }
            }
        }
        journal
    }

    /// The cluster's dead-letter queue: router-quarantined items plus every
    /// partition's, with partition sources prefixed `part-N/`.
    pub fn dead_letters(&self) -> Vec<QuarantineEntry> {
        let mut out = self.totals.lock().dead_letters.to_vec();
        for (p, part) in self.parts.iter().enumerate() {
            out.extend(part.dead_letters().into_iter().map(|mut q| {
                q.source = format!("part-{p}/{}", q.source);
                q
            }));
        }
        out
    }

    /// Durably checkpoint every partition; returns the written snapshot
    /// paths in partition order. Errors with
    /// [`PersistError::NotPersistent`] on an in-memory cluster.
    pub fn checkpoint(&self) -> Result<Vec<PathBuf>, PersistError> {
        if self.persist.is_none() {
            return Err(PersistError::NotPersistent);
        }
        let _appending = self.append_lock.lock();
        self.parts.iter().map(UsaasService::checkpoint).collect()
    }

    /// Durably write a **full** snapshot of every partition (see
    /// [`UsaasService::checkpoint_full`]); returns the written paths in
    /// partition order. Rolling fulls advances each partition's
    /// oldest-retained-full floor, which is exactly what lets
    /// [`PartitionedService::compact_root_log`] drop more of the cluster
    /// log — the operator-maintenance lever for a long-lived cluster.
    pub fn checkpoint_full(&self) -> Result<Vec<PathBuf>, PersistError> {
        if self.persist.is_none() {
            return Err(PersistError::NotPersistent);
        }
        let _appending = self.append_lock.lock();
        self.parts
            .iter()
            .map(UsaasService::checkpoint_full)
            .collect()
    }

    /// Durably checkpoint one partition (see [`UsaasService::checkpoint`])
    /// — the staggered-cadence unit the cluster daemon drives so N
    /// fsync-heavy checkpoints never align on one tick.
    pub fn checkpoint_partition(&self, partition: usize) -> Result<PathBuf, PersistError> {
        if self.persist.is_none() {
            return Err(PersistError::NotPersistent);
        }
        let _appending = self.append_lock.lock();
        self.parts[partition].checkpoint()
    }

    /// Compact one partition's write-ahead journal (see
    /// [`UsaasService::compact_journal`]).
    pub fn compact_partition_journal(
        &self,
        partition: usize,
    ) -> Result<CompactionReport, PersistError> {
        if self.persist.is_none() {
            return Err(PersistError::NotPersistent);
        }
        let _appending = self.append_lock.lock();
        self.parts[partition].compact_journal()
    }

    /// Compact every partition's write-ahead journal (see
    /// [`UsaasService::compact_journal`]); returns the per-partition
    /// reports in partition order. The root cluster log compacts
    /// separately through [`PartitionedService::compact_root_log`], which
    /// first checkpoints the recovery state the dropped records would have
    /// re-derived.
    pub fn compact_journals(&self) -> Result<Vec<CompactionReport>, PersistError> {
        if self.persist.is_none() {
            return Err(PersistError::NotPersistent);
        }
        let _appending = self.append_lock.lock();
        self.parts
            .iter()
            .map(UsaasService::compact_journal)
            .collect()
    }

    /// Compact the root cluster log: write a cluster root snapshot (order
    /// maps, router totals, per-partition batch counts through `last_seq`),
    /// then drop the log prefix that every recovery path has durably
    /// absorbed, byte-verbatim via the same atomic rewrite the partition
    /// journals use.
    ///
    /// The safety bound is the *minimum* over two floors, walked record by
    /// record from the front of the log:
    ///
    /// 1. the **oldest retained** cluster root snapshot's `covered_seq` —
    ///    so even if the newest snapshot is corrupt at rest, the fallback
    ///    snapshot still covers everything the log no longer holds;
    /// 2. for every partition, the cumulative batch count a record brings
    ///    partition `p` to must stay ≤ the seq of `p`'s **oldest retained
    ///    full snapshot** — the worst state `p` can legally recover to.
    ///    Roll-forward then only ever needs batches *newer* than the
    ///    dropped prefix, which are exactly the records kept.
    ///
    /// A pass that finds nothing droppable returns a no-op report
    /// (`dropped_records == 0`) without touching the journal file.
    pub fn compact_root_log(&self) -> Result<CompactionReport, PersistError> {
        let Some(persist) = &self.persist else {
            return Err(PersistError::NotPersistent);
        };
        let _appending = self.append_lock.lock();
        let snapshot = self.snapshot();
        let partitions = self.ring.partitions();
        let mut state = persist.lock();
        // Cumulative per-partition batch counts through last_seq: the
        // pre-ledger origin plus every live record's flags.
        let mut batch_counts = state.base_count.clone();
        for (_, flags) in &state.ledger {
            for (count, &hit) in batch_counts.iter_mut().zip(flags) {
                *count += u64::from(hit);
            }
        }
        let contents = {
            // persist → totals is the established lock order (ingest_append
            // pushes append-failure warnings into totals under persist).
            let totals = self.totals.lock();
            ClusterSnapContents {
                covered_seq: state.wal.last_seq(),
                epoch: snapshot.epoch,
                partitions,
                batch_counts,
                session_maps: snapshot.order.sessions.clone(),
                post_maps: snapshot.order.posts.clone(),
                total_sessions: snapshot.order.total_sessions,
                total_posts: snapshot.order.total_posts,
                quarantined: totals.quarantined,
                unfed: totals.unfed,
                breaker_trips: totals.breaker_trips,
                open_breakers: totals.open_breakers.clone(),
                dead_letters: totals.dead_letters.to_vec(),
                dead_letters_dropped: totals.dead_letters.dropped(),
            }
        };
        let dir = state.wal.dir().to_path_buf();
        write_cluster_snapshot(&dir, &contents)?;
        // Floor 1: the oldest retained cluster snapshot's coverage.
        let snap_bound = cluster_snapshot_seqs(&dir)?.last().copied().unwrap_or(0);
        // Floor 2: every partition's oldest retained full snapshot seq
        // (always present — a persisted partition writes snapshot-0 at
        // build time).
        let mut floors = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let floor = snapshot_seqs(&dir.join(format!("part-{p}")))?
                .last()
                .copied()
                .unwrap_or(0);
            floors.push(floor);
        }
        let mut tentative = state.base_count.clone();
        let mut safe_seq = 0u64;
        for (seq, flags) in &state.ledger {
            let mut next = tentative.clone();
            for (count, &hit) in next.iter_mut().zip(flags) {
                *count += u64::from(hit);
            }
            let absorbed = next
                .iter()
                .zip(&floors)
                .all(|(count, &floor)| *count <= floor);
            if *seq <= snap_bound && absorbed {
                safe_seq = *seq;
                tentative = next;
            } else {
                break;
            }
        }
        let report = state.wal.compact(safe_seq)?;
        if report.dropped_records > 0 {
            while let Some(&(seq, _)) = state.ledger.front() {
                if seq > safe_seq {
                    break;
                }
                let (_, flags) = state.ledger.pop_front().expect("front checked above");
                for (count, &hit) in state.base_count.iter_mut().zip(&flags) {
                    *count += u64::from(hit);
                }
            }
        }
        Ok(report)
    }
}

/// The cluster behind the daemon: each partition is an independently
/// checkpointable persist unit (the daemon staggers their cadences), and
/// the shared root cluster log compacts through
/// [`PartitionedService::compact_root_log`].
impl crate::daemon::ServeTarget for PartitionedService {
    type Health = ClusterHealth;

    fn ingest_append<'a>(
        &self,
        sources: Vec<Box<dyn Source + 'a>>,
        cfg: &IngestConfig,
    ) -> IngestReport {
        PartitionedService::ingest_append(self, sources, cfg)
    }

    fn epoch(&self) -> u64 {
        PartitionedService::epoch(self)
    }

    fn is_persistent(&self) -> bool {
        PartitionedService::is_persistent(self)
    }

    fn health(&self) -> ClusterHealth {
        PartitionedService::health(self)
    }

    fn journal_stats(&self) -> Option<JournalStats> {
        PartitionedService::journal_stats(self)
    }

    fn persist_units(&self) -> usize {
        self.partitions()
    }

    fn checkpoint_unit(&self, unit: usize) -> Result<PathBuf, PersistError> {
        self.checkpoint_partition(unit)
    }

    fn compact_unit(&self, unit: usize) -> Result<CompactionReport, PersistError> {
        self.compact_partition_journal(unit)
    }

    fn compact_root(&self) -> Option<Result<CompactionReport, PersistError>> {
        Some(self.compact_root_log())
    }
}

/// Write the cluster metadata file (atomically, via a tmp-file rename):
/// magic, format version, partition count.
fn write_meta(dir: &Path, partitions: usize) -> Result<(), PersistError> {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(&META_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&(partitions as u32).to_le_bytes());
    let tmp = dir.join(format!("{CLUSTER_META}.tmp"));
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, dir.join(CLUSTER_META))?;
    Ok(())
}

/// Read back the partition count from the cluster metadata file.
fn read_meta(dir: &Path) -> Result<usize, PersistError> {
    let path = dir.join(CLUSTER_META);
    let corrupt = |detail: &str| PersistError::Corrupt {
        file: path.display().to_string(),
        detail: detail.to_string(),
    };
    let bytes = std::fs::read(&path)?;
    if bytes.len() != 12 {
        return Err(corrupt("cluster metadata has the wrong length"));
    }
    let word = |i: usize| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    if word(0) != META_MAGIC {
        return Err(corrupt("cluster metadata magic mismatch"));
    }
    if word(1) != 1 {
        return Err(corrupt("unsupported cluster metadata version"));
    }
    let partitions = word(2) as usize;
    if partitions == 0 || partitions > 4096 {
        return Err(corrupt("implausible partition count"));
    }
    Ok(partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conference::dataset::{generate, DatasetConfig};
    use social::generator::{generate as gen_forum, ForumConfig};

    #[test]
    fn a_batch_whose_cluster_log_append_fails_is_not_counted() {
        let dir = std::env::temp_dir().join(format!("usaas-cluster-{}-abort", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = generate(&DatasetConfig::small(40, 4));
        let cluster =
            PartitionedService::build_persistent(dataset, Forum::default(), 4, 1, &dir).unwrap();
        let queries = [
            Query::EngagementCurve {
                sweep: conference::records::NetworkMetric::LatencyMs,
                engagement: EngagementMetric::Presence,
                bins: 4,
            },
            Query::MosCorrelation,
        ];
        let answers = |c: &PartitionedService| -> Vec<String> {
            queries
                .iter()
                .map(|q| format!("{:?}", c.query(q)))
                .collect()
        };
        let part_epochs = |c: &PartitionedService| -> Vec<u64> {
            c.parts.iter().map(UsaasService::epoch).collect()
        };
        let part_records = |c: &PartitionedService| -> Vec<u64> {
            c.parts
                .iter()
                .map(|p| p.journal_stats().expect("persisted partition").records)
                .collect()
        };
        let before = (
            cluster.signal_counts(),
            part_epochs(&cluster),
            part_records(&cluster),
            answers(&cluster),
        );
        cluster.persist.as_ref().unwrap().lock().wal.journal =
            Journal::read_only(&dir.join(JOURNAL_FILE)).unwrap();
        let extra = generate(&DatasetConfig::small(12, 6)).sessions;
        let report = cluster.append_batch(extra, Vec::new());
        assert!(report.stored > 0, "the batch was normalised");
        assert_eq!(cluster.epoch(), 0, "the commit was aborted");
        assert_eq!(part_epochs(&cluster), before.1, "no partition committed");
        assert_eq!(cluster.signal_counts(), before.0);
        assert_eq!(part_records(&cluster), before.2, "no partition journaled");
        assert!(cluster
            .health()
            .recovery_warnings
            .iter()
            .any(|w| w.contains("batch not committed")));
        drop(cluster);
        let reopened = PartitionedService::open_or_recover(&dir, 1).unwrap();
        assert_eq!(reopened.epoch(), 0);
        assert_eq!(
            (
                reopened.signal_counts(),
                part_epochs(&reopened),
                part_records(&reopened),
                answers(&reopened),
            ),
            before,
            "a restart agrees"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_partition_given_no_post_shares_its_forum() {
        let forum = gen_forum(&ForumConfig {
            authors: 150,
            end: Date::from_ymd(2021, 2, 15).unwrap(),
            ..ForumConfig::default()
        });
        let tail = forum.posts.last().expect("non-empty forum");
        let post = Post {
            date: tail.date.offset(1),
            ..tail.clone()
        };
        let cluster =
            PartitionedService::build(generate(&DatasetConfig::small(300, 5)), forum, 4, 2);
        let target = cluster.ring.partition_of(post.author_id);
        let before: Vec<Arc<Generation>> =
            cluster.parts.iter().map(UsaasService::snapshot).collect();
        cluster.append_batch(generate(&DatasetConfig::small(60, 9)).sessions, vec![post]);
        let after: Vec<Arc<Generation>> =
            cluster.parts.iter().map(UsaasService::snapshot).collect();
        let mut committed_without_posts = 0;
        for (p, (b, a)) in before.iter().zip(&after).enumerate() {
            // Shared: the same chain of the same `Arc`'d chunks. The target
            // partition shares every earlier chunk and appends the post.
            let (b_chunks, a_chunks) = (b.forum().chunks(), a.forum().chunks());
            assert!(b_chunks
                .iter()
                .zip(a_chunks)
                .all(|(x, y)| Arc::ptr_eq(x, y)));
            let shared = a_chunks.len() == b_chunks.len();
            assert_eq!(shared, p != target, "partition {p}");
            if p != target && a.epoch() > b.epoch() {
                committed_without_posts += 1;
            }
        }
        assert!(
            committed_without_posts > 0,
            "some partition must commit sessions but no post"
        );
    }

    #[test]
    fn the_router_merges_carried_outage_views_and_cold_text_views() {
        let forum = gen_forum(&ForumConfig {
            authors: 150,
            end: Date::from_ymd(2021, 4, 30).unwrap(),
            ..ForumConfig::default()
        });
        let dataset = generate(&DatasetConfig::small(300, 5));
        let tail = forum.posts.last().expect("non-empty forum");
        let post = Post {
            date: tail.date.offset(1),
            ..tail.clone()
        };
        let sessions = generate(&DatasetConfig::small(60, 9)).sessions;
        let queries = [
            Query::OutageTimeline,
            Query::CrossNetwork {
                access: AccessType::SatelliteLeo,
            },
            Query::SentimentPeaks { k: 3 },
            Query::DeploymentAdvice,
            Query::SpeedTrend,
        ];
        let cold = [ViewKey::Sentiment, ViewKey::Deployment, ViewKey::SpeedTrend];
        let single = UsaasService::build(dataset.clone(), forum.clone(), 2);
        let cluster = PartitionedService::build(dataset, forum, 4, 2);
        for q in &queries {
            let _ = cluster.query(q);
            let _ = cluster.answer_fresh(q);
        }
        let before: Vec<Arc<Generation>> =
            cluster.parts.iter().map(UsaasService::snapshot).collect();
        single.append_batch(sessions.clone(), vec![post.clone()]);
        cluster.append_batch(sessions, vec![post.clone()]);
        let target = cluster.ring.partition_of(post.author_id);
        for (p, b) in before.iter().enumerate() {
            let a = cluster.parts[p].snapshot();
            let carried = a
                .views()
                .get(&ViewKey::Outage)
                .unwrap_or_else(|| panic!("partition {p} dropped its outage view"));
            let prior = b
                .views()
                .get(&ViewKey::Outage)
                .expect("installed by the queries");
            assert_eq!(Arc::ptr_eq(&carried, &prior), p != target, "partition {p}");
            let installed = a.views().keys();
            for key in &cold {
                assert!(!installed.contains(key), "partition {p} installed {key:?}");
            }
        }
        for q in &queries {
            let merged = format!("{:?}", cluster.query(q));
            assert_eq!(merged, format!("{:?}", cluster.answer_fresh(q)), "{q:?}");
            assert_eq!(merged, format!("{:?}", single.query(q)), "{q:?}");
        }
    }
}

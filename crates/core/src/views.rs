//! Incrementally-maintained materialized views for the hot answer set.
//!
//! Every analytical answer the service serves is a *finishing pass* over an
//! accumulator that grows monotonically with the data: per-bin observation
//! lists for the Fig. 1/2/3 curves and grids, the rated-index list for the
//! MOS analyses and the predictor, per-post sentiment scores and day series
//! for the Fig. 5/6 social answers, latitude-band counts for the §6 planner.
//! A [`View`] carries exactly that accumulator across epochs. When an
//! append commits, `ViewSet::advanced` folds the batch into each carried
//! accumulator as an **O(delta)** update — instead of the old
//! epoch-invalidation discipline where every answer recomputed from scratch
//! over the full corpus.
//!
//! The contract, pinned by `tests/views_parity.rs`: advancing a view by any
//! append schedule and then finishing it is **bit-identical** to rebuilding
//! the view cold over the final corpus, for every worker count. The designs
//! below make that hold by construction:
//!
//! - Curve/grid/platform accumulators are compressed per-bin
//!   `(running sum, count)` pairs ([`SumBinner`]) — O(bins) state, O(bins)
//!   clone per epoch. The cold finishing pass computes each bin mean as a
//!   sequential left fold over the bin's observations in row order; the
//!   running sum replays that exact addition sequence, provided rows are
//!   folded **sequentially in row order** — so rebuilds here take no
//!   worker count (partial sums from disjoint chunks cannot be merged:
//!   float addition is not associative), which also makes the result
//!   trivially identical across workers. Delta rows continue the same
//!   fold, through the record walk the dataset entry points
//!   (`correlate::engagement_curve`, …) run over a whole dataset.
//! - The MOS/predictor views carry the rated sliver's values. Appends only
//!   ever extend them (through `correlate::extend_rated`, the walk the
//!   dataset entry points share), so every existing row keeps its
//!   `k % holdout` train/test assignment.
//! - Sentiment/outage views carry per-post scores and integer-valued day
//!   series. Posts are scored independently, and vocabulary growth never
//!   changes an old document's token ids, so delta scoring matches a full
//!   rescan; day series are re-embedded into the widened date range
//!   ([`DailySeries::embedded`]) and new posts added — exact integer
//!   arithmetic, so the sums match a cold build.

use crate::annotate::{AnnotatedPeak, PeakAnnotator, SentimentSeries};
use crate::chunks::{Chunks, PostRead};
use crate::correlate;
use crate::emerging::{EmergingTopic, EmergingTopicMiner, MineState};
use crate::frame::SessionFrame;
use crate::fulcrum::{self, FulcrumAnalysis, MonthlyPoint};
use crate::outage::{DetectedOutage, OutageDetector};
use crate::predict::{self, Evaluation, FeatureSet};
use analytics::binning::{BinSpec, BinnedCurve, SumBinner};
use analytics::kernels;
use analytics::time::Date;
use analytics::timeseries::DailySeries;
use analytics::AnalyticsError;
use conference::platform::Platform;
use conference::records::{EngagementMetric, NetworkMetric, SessionRecord};
use parking_lot::RwLock;
use sentiment::analyzer::SentimentScores;
use sentiment::corpus::{CompiledDict, TokenCorpus};
use social::post::Post;
use starlink::constellation::RegionalDemand;
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of one materialized view: which answer family it backs, plus
/// the parameters that shape its accumulator. Everything needed to rebuild
/// the view from a generation's corpus is in the key, which is why
/// persistence stores only keys ([`crate::persist`]) — recovery rebuilds
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKey {
    /// Fig. 1 engagement-vs-network curve.
    Curve {
        /// Swept network metric.
        sweep: NetworkMetric,
        /// Engagement metric reported.
        engagement: EngagementMetric,
        /// Bin count.
        bins: usize,
    },
    /// Fig. 2 latency × loss grid.
    Grid {
        /// Engagement metric aggregated per cell.
        engagement: EngagementMetric,
        /// Per-axis bin count.
        bins: usize,
    },
    /// Fig. 3 per-platform curves.
    Platform {
        /// Swept network metric.
        sweep: NetworkMetric,
        /// Engagement metric reported.
        engagement: EngagementMetric,
    },
    /// Fig. 4 MOS curves + correlation ranking (rated-index list).
    Mos,
    /// §5 MOS predictor for one feature set.
    Predict {
        /// Feature set the predictor trains on.
        features: FeatureSet,
    },
    /// Fig. 5 sentiment day-series and per-post scores.
    Sentiment,
    /// Fig. 6 outage keyword day-series.
    Outage,
    /// §6 latitude-band demand weights.
    Deployment,
    /// Fig. 7 per-post OCR + strong-sentiment memo.
    SpeedTrend,
    /// §4.1 resumable emerging-topic miner state.
    EmergingTopics,
}

/// One committed batch. `sessions` is the delta itself — session-backed
/// views fold the records directly, which is what lets the successor
/// generation skip materialising its column frame at commit time entirely
/// (frame columns mirror the records value-for-value, so record-fed
/// accumulators are bit-identical to column-fed ones). `forum` is the
/// successor's post chain and `posts` the batch's posts (its last chunk,
/// empty for a post-free batch); `rows_before` is the base generation's
/// session count. `date_range` is the extended forum's
/// [`PostRead::date_range`], folded once per commit. `corpus` is the
/// successor's interned corpus when the base generation had built one
/// (`None` otherwise — corpus-backed views are dropped and lazily
/// rebuilt).
pub(crate) struct ViewDelta<'a> {
    pub sessions: &'a [SessionRecord],
    pub rows_before: usize,
    pub forum: &'a Chunks<Post>,
    pub posts: &'a [Post],
    pub date_range: Option<(Date, Date)>,
    pub corpus: Option<&'a TokenCorpus>,
}

impl ViewDelta<'_> {
    /// True when the batch holds no post.
    fn post_free(&self) -> bool {
        self.posts.is_empty()
    }

    /// The base generation's post count: where the batch's documents start.
    fn posts_before(&self) -> usize {
        self.forum.len() - self.posts.len()
    }

    /// The successor's corpus, when it was built and a text view that has
    /// seen `docs_seen` posts is current with the base generation.
    fn corpus_after(&self, docs_seen: usize) -> Option<&TokenCorpus> {
        let corpus = self.corpus?;
        (docs_seen == self.posts_before() && corpus.docs() == self.forum.len()).then_some(corpus)
    }
}

/// Fig. 1 view: the compressed per-bin `(sum, count)` accumulator behind
/// one engagement curve.
#[derive(Clone)]
pub struct CurveView {
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    rows_seen: usize,
    binner: SumBinner,
}

impl CurveView {
    /// Cold rebuild over the full frame — the branchless kernel scan
    /// ([`correlate::engagement_sums_frame`]), whose row-order running sums
    /// replay the finishing pass's addition sequence exactly. The scan is
    /// sequential, which makes the result identical at every worker count
    /// by construction (chunk-merged partial sums cannot be, float addition
    /// being non-associative).
    pub(crate) fn rebuild(
        frame: &SessionFrame,
        sweep: NetworkMetric,
        engagement: EngagementMetric,
        bins: usize,
    ) -> Result<CurveView, AnalyticsError> {
        Ok(CurveView {
            sweep,
            engagement,
            rows_seen: frame.len(),
            binner: correlate::engagement_sums_frame(frame, sweep, engagement, bins)?,
        })
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<CurveView> {
        if self.rows_seen != delta.rows_before {
            return None;
        }
        let mut next = self.clone();
        correlate::record_curve_sums_records(
            delta.sessions,
            self.sweep,
            self.engagement,
            &mut next.binner,
        );
        next.rows_seen = delta.rows_before + delta.sessions.len();
        Some(next)
    }

    /// Finishing pass: mean-per-bin, best bin normalised to 100.
    pub(crate) fn finish(&self, min_count: usize) -> BinnedCurve {
        self.binner.curve_mean(min_count).normalized_to_max(100.0)
    }
}

/// Fig. 2 view: compressed per-cell `(sum, count)` accumulators
/// (flat-indexed `yi * bins + xi`).
#[derive(Clone)]
pub struct GridView {
    engagement: EngagementMetric,
    bins: usize,
    x: BinSpec,
    y: BinSpec,
    rows_seen: usize,
    sums: Vec<f64>,
    counts: Vec<usize>,
}

impl GridView {
    /// Cold rebuild over the full frame — the branchless kernel scan
    /// (sequential, see [`CurveView::rebuild`]).
    pub(crate) fn rebuild(
        frame: &SessionFrame,
        engagement: EngagementMetric,
        bins: usize,
    ) -> Result<GridView, AnalyticsError> {
        let (x, y, sums, counts) = correlate::grid_sums_frame(frame, engagement, bins)?;
        Ok(GridView {
            engagement,
            bins,
            x,
            y,
            rows_seen: frame.len(),
            sums,
            counts,
        })
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<GridView> {
        if self.rows_seen != delta.rows_before {
            return None;
        }
        let mut next = self.clone();
        correlate::record_grid_sums_records(
            delta.sessions,
            self.engagement,
            self.x,
            self.y,
            self.bins,
            &mut next.sums,
            &mut next.counts,
        );
        next.rows_seen = delta.rows_before + delta.sessions.len();
        Some(next)
    }

    /// Finishing pass: thin-cell suppression and best-cell normalisation
    /// over the carried sums.
    pub(crate) fn finish(&self, min_count: usize) -> correlate::Grid2d {
        correlate::grid_from_sums(
            self.x,
            self.y,
            self.bins,
            &self.sums,
            &self.counts,
            min_count,
        )
    }
}

/// Fig. 3 view: one compressed accumulator per [`Platform::ALL`] slot.
#[derive(Clone)]
pub struct PlatformView {
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    rows_seen: usize,
    binners: Vec<SumBinner>,
}

impl PlatformView {
    /// Cold rebuild over the full frame — the branchless kernel scan
    /// (sequential, see [`CurveView::rebuild`]).
    pub(crate) fn rebuild(
        frame: &SessionFrame,
        sweep: NetworkMetric,
        engagement: EngagementMetric,
        bins: usize,
    ) -> Result<PlatformView, AnalyticsError> {
        Ok(PlatformView {
            sweep,
            engagement,
            rows_seen: frame.len(),
            binners: correlate::platform_sums_frame(frame, sweep, engagement, bins)?,
        })
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<PlatformView> {
        if self.rows_seen != delta.rows_before {
            return None;
        }
        let mut next = self.clone();
        correlate::record_platform_sums_records(
            delta.sessions,
            self.sweep,
            self.engagement,
            &mut next.binners,
        );
        next.rows_seen = delta.rows_before + delta.sessions.len();
        Some(next)
    }

    /// Finishing pass: per-platform mean curves, jointly normalised.
    pub(crate) fn finish(&self, min_count: usize) -> Vec<(Platform, BinnedCurve)> {
        correlate::platform_curves_from_sums(&self.binners, min_count)
    }
}

/// Fig. 4 view: the rated sliver's values — one rating vector plus one
/// engagement vector per metric, all in rated-row order. Carrying the
/// values (not frame indices) means the finishing pass never touches the
/// column frame, so serving `MosCorrelation` after an append does not force
/// the successor generation to materialise its frame. Appends extend the
/// vectors at the end, preserving every existing row's position in the
/// rated enumeration.
#[derive(Clone)]
pub struct MosView {
    rows_seen: usize,
    ratings: Vec<f64>,
    /// `eng[k]` holds `EngagementMetric::ALL[k]`'s values for rated rows.
    eng: Vec<Vec<f64>>,
}

impl MosView {
    /// Cold rebuild over the full frame.
    pub(crate) fn rebuild(frame: &SessionFrame) -> MosView {
        let rated = frame.rated_indices();
        MosView {
            rows_seen: frame.len(),
            ratings: correlate::gather_ratings(frame, rated),
            eng: EngagementMetric::ALL
                .iter()
                .map(|&m| kernels::gather(frame.engagement(m), rated))
                .collect(),
        }
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<MosView> {
        if self.rows_seen != delta.rows_before {
            return None;
        }
        let mut next = self.clone();
        correlate::extend_rated_engagement(delta.sessions, &mut next.ratings, &mut next.eng);
        next.rows_seen = delta.rows_before + delta.sessions.len();
        Some(next)
    }

    /// Finishing pass: per-metric MOS curves plus the Pearson ranking.
    #[allow(clippy::type_complexity)]
    pub(crate) fn finish(
        &self,
    ) -> Result<
        (
            Vec<(EngagementMetric, BinnedCurve)>,
            Vec<(EngagementMetric, f64)>,
        ),
        AnalyticsError,
    > {
        let mut curves = Vec::new();
        for (k, &m) in EngagementMetric::ALL.iter().enumerate() {
            curves.push((
                m,
                correlate::mos_curve_from_vals(&self.eng[k], &self.ratings, 4, 3)?,
            ));
        }
        Ok((
            curves,
            correlate::mos_correlations_vals(&self.eng, &self.ratings)?,
        ))
    }
}

/// §5 predictor view: the rated rows' feature vectors and ratings for one
/// feature set, in rated-row order. As with [`MosView`], carrying the
/// values keeps the finishing pass off the column frame entirely.
#[derive(Clone)]
pub struct PredictView {
    features: FeatureSet,
    rows_seen: usize,
    feats: Vec<Vec<f64>>,
    ratings: Vec<f64>,
}

impl PredictView {
    /// Cold rebuild over the full frame.
    pub(crate) fn rebuild(frame: &SessionFrame, features: FeatureSet) -> PredictView {
        let rated = frame.rated_indices();
        let (feats, ratings) = predict::rated_features(frame, rated, features);
        PredictView {
            features,
            rows_seen: frame.len(),
            feats,
            ratings,
        }
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<PredictView> {
        if self.rows_seen != delta.rows_before {
            return None;
        }
        let mut next = self.clone();
        correlate::extend_rated(delta.sessions, &mut next.ratings, |s| {
            next.feats.push(predict::features(s, self.features));
        });
        next.rows_seen = delta.rows_before + delta.sessions.len();
        Some(next)
    }

    /// Finishing pass: train on the deterministic holdout split, evaluate.
    pub(crate) fn finish(&self) -> Result<Evaluation, AnalyticsError> {
        let (_, eval) =
            predict::train_and_evaluate_vals(&self.feats, &self.ratings, self.features, 4)?;
        Ok(eval)
    }
}

/// Fig. 5 view: per-post sentiment scores plus the strong-sentiment day
/// series. The carried `series` is a `Result` because an empty forum has no
/// date range ([`AnalyticsError::Empty`]) — exactly what a cold build
/// returns, so error answers stay bit-identical too.
/// The per-post scores are chunked like the posts, so an advance appends
/// the batch's scores as one chunk instead of cloning every earlier score.
#[derive(Clone)]
pub struct SentimentView {
    docs_seen: usize,
    scores: Chunks<SentimentScores>,
    series: Result<SentimentSeries, AnalyticsError>,
}

impl SentimentView {
    /// Cold rebuild over the full forum/corpus.
    pub(crate) fn rebuild(
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        workers: usize,
    ) -> SentimentView {
        let annotator = PeakAnnotator::default();
        let scores = annotator.score_posts(forum, corpus, workers);
        let series = annotator.series_from_scores(forum, &scores);
        SentimentView {
            docs_seen: forum.len(),
            scores: Chunks::from_vec(scores),
            series,
        }
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<SentimentView> {
        let corpus = delta.corpus_after(self.docs_seen)?;
        let annotator = PeakAnnotator::default();
        let vocab = corpus.vocab();
        let fresh: Vec<SentimentScores> = (delta.posts_before()..corpus.docs())
            .map(|doc| annotator.analyzer.score_ids(corpus.doc(doc), vocab))
            .collect();
        let series = match (&self.series, delta.date_range) {
            (_, None) => Err(AnalyticsError::Empty),
            // Previously empty forum: the batch is the whole forum, so its
            // scores are every score.
            (Err(_), Some(_)) => annotator.series_from_scores(delta.forum, &fresh),
            (Ok(prior), Some((start, end))) => {
                embed_sentiment(prior, start, end, delta.posts, &fresh)
            }
        };
        Some(SentimentView {
            docs_seen: delta.forum.len(),
            scores: self.scores.extended(fresh),
            series,
        })
    }

    /// Per-post scores in document order.
    pub(crate) fn scores(&self) -> &Chunks<SentimentScores> {
        &self.scores
    }

    /// The strong-sentiment day series (`Err` on an empty forum).
    pub(crate) fn series(&self) -> Result<&SentimentSeries, &AnalyticsError> {
        self.series.as_ref()
    }

    /// Finishing pass: the Fig. 5 annotation tail over carried scores.
    pub(crate) fn finish(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        k: usize,
    ) -> Result<Vec<AnnotatedPeak>, AnalyticsError> {
        let series = self.series.clone()?;
        PeakAnnotator::default().annotate_from_scores(forum, corpus, k, &self.scores, series)
    }
}

/// Re-embed a carried sentiment series into the widened date range and add
/// the delta posts — exact integer arithmetic, so the per-day counts equal
/// a cold build over the full forum.
fn embed_sentiment(
    prior: &SentimentSeries,
    start: analytics::time::Date,
    end: analytics::time::Date,
    new_posts: &[Post],
    new_scores: &[SentimentScores],
) -> Result<SentimentSeries, AnalyticsError> {
    let mut pos = prior.strong_positive.embedded(start, end)?;
    let mut neg = prior.strong_negative.embedded(start, end)?;
    for (post, s) in new_posts.iter().zip(new_scores) {
        if s.is_strong_positive() {
            pos.add(post.date, 1.0);
        } else if s.is_strong_negative() {
            neg.add(post.date, 1.0);
        }
    }
    Ok(SentimentSeries {
        strong_positive: pos,
        strong_negative: neg,
    })
}

/// Fig. 6 view: the keyword-occurrence day series behind outage detection.
#[derive(Clone)]
pub struct OutageView {
    docs_seen: usize,
    series: Result<DailySeries, AnalyticsError>,
}

impl OutageView {
    /// Cold rebuild over the full forum/corpus.
    pub(crate) fn rebuild(
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        workers: usize,
    ) -> OutageView {
        OutageView {
            docs_seen: forum.len(),
            series: OutageDetector::default().keyword_series_interned(forum, corpus, workers),
        }
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<OutageView> {
        let corpus = delta.corpus_after(self.docs_seen)?;
        let detector = OutageDetector::default();
        let series = match (&self.series, delta.date_range) {
            (_, None) => Err(AnalyticsError::Empty),
            (prior, Some((start, end))) => {
                let embedded = match prior {
                    Ok(s) => s.embedded(start, end),
                    // Previously empty forum: start from zeros, the delta
                    // below covers every post.
                    Err(_) => DailySeries::zeros(start, end),
                };
                embedded.map(|mut series| {
                    let dict = CompiledDict::compile(&detector.dictionary, corpus.vocab());
                    let hits =
                        detector.doc_hits_range(&dict, corpus, delta.posts_before()..corpus.docs());
                    for (post, h) in delta.posts.iter().zip(hits) {
                        if h > 0 {
                            series.add(post.date, h as f64);
                        }
                    }
                    series
                })
            }
        };
        Some(OutageView {
            docs_seen: delta.forum.len(),
            series,
        })
    }

    /// The keyword-occurrence day series (`Err` on an empty forum).
    pub(crate) fn series(&self) -> Result<&DailySeries, &AnalyticsError> {
        self.series.as_ref()
    }

    /// Finishing pass: robust-z peaks of the carried series, mapped to
    /// detections with the default detector's thresholds.
    pub(crate) fn finish(&self) -> Result<Vec<DetectedOutage>, AnalyticsError> {
        let series = self.series.as_ref().map_err(Clone::clone)?;
        Ok(OutageDetector::default().detections_in(series))
    }
}

/// §6 view: strong-negative post counts per 10° latitude band
/// (unnormalised; the finishing pass divides by the total).
#[derive(Clone)]
pub struct DeploymentView {
    docs_seen: usize,
    weights: [f64; 9],
}

impl DeploymentView {
    /// Cold rebuild over the full forum/corpus: one scoring pass, then the
    /// branchless [`kernels::masked_slot_counts`] band tally — integer
    /// counts, so identical to the per-post walk it replaced.
    pub(crate) fn rebuild(
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        workers: usize,
    ) -> DeploymentView {
        let analyzer = sentiment::analyzer::SentimentAnalyzer::default();
        let scores = analyzer.score_corpus(corpus, workers);
        let slots: Vec<u32> = forum
            .iter()
            .map(|p| crate::service::country_lat_band(p.country) as u32)
            .collect();
        let neg = kernels::RowMask::from_fn(slots.len(), |i| scores[i].is_strong_negative());
        let mut weights = [0.0f64; 9];
        for (w, c) in weights
            .iter_mut()
            .zip(kernels::masked_slot_counts(&slots, 9, &neg))
        {
            *w = c as f64;
        }
        DeploymentView {
            docs_seen: forum.len(),
            weights,
        }
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<DeploymentView> {
        let corpus = delta.corpus_after(self.docs_seen)?;
        let analyzer = sentiment::analyzer::SentimentAnalyzer::default();
        let vocab = corpus.vocab();
        let mut next = self.clone();
        for (doc, post) in (delta.posts_before()..corpus.docs()).zip(delta.posts) {
            if analyzer
                .score_ids(corpus.doc(doc), vocab)
                .is_strong_negative()
            {
                next.weights[crate::service::country_lat_band(post.country)] += 1.0;
            }
        }
        next.docs_seen = delta.forum.len();
        Some(next)
    }

    /// Strong-negative post counts per latitude band.
    pub(crate) fn band_counts(&self) -> [f64; 9] {
        self.weights
    }

    /// Finishing pass: [`regional_demand`] over the carried band counts.
    pub(crate) fn finish(&self) -> Option<RegionalDemand> {
        regional_demand(self.weights)
    }
}

/// Normalise strong-negative band counts into the planner's demand vector;
/// `None` when no strong-negative signal exists (the service maps this to
/// its `NoData` answer).
pub(crate) fn regional_demand(counts: [f64; 9]) -> Option<RegionalDemand> {
    let total: f64 = counts.iter().sum();
    if total == 0.0 {
        return None;
    }
    let mut weights = counts;
    for w in weights.iter_mut() {
        *w /= total;
    }
    Some(RegionalDemand {
        band_weights: weights,
    })
}

/// Fig. 7 view: the memoized per-post work of the speed-trend pipeline —
/// OCR downlink extraction and strong-sentiment classification
/// (`fulcrum::DocShot`), indexed by document. The month loop itself
/// (medians, subsample RNG, annotations) is cheap and order-sensitive, so
/// the finishing pass re-runs it over the memo
/// (`FulcrumAnalysis::analyze_dated_shots`): the loop structure — including
/// which months advance the subsample RNG — depends only on the shots, so
/// the replay is bit-identical to the cold inline-extraction path. The
/// memo is chunked like the posts, so an advance appends the batch's shots
/// as one chunk instead of cloning every earlier shot.
#[derive(Clone)]
pub struct SpeedTrendView {
    docs_seen: usize,
    shots: Chunks<Option<fulcrum::DocShot>>,
}

impl SpeedTrendView {
    /// Cold rebuild: evaluate every post once. The forum's month range
    /// spans every post date, so the cold path evaluates exactly this set.
    pub(crate) fn rebuild(forum: &impl PostRead, corpus: &TokenCorpus) -> SpeedTrendView {
        SpeedTrendView {
            docs_seen: forum.len(),
            shots: Chunks::from_vec(doc_shots(forum.iter(), 0, corpus)),
        }
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<SpeedTrendView> {
        let corpus = delta.corpus_after(self.docs_seen)?;
        let fresh = doc_shots(delta.posts.iter(), delta.posts_before(), corpus);
        Some(SpeedTrendView {
            docs_seen: delta.forum.len(),
            shots: self.shots.extended(fresh),
        })
    }

    /// The memoized per-post shots in document order.
    pub(crate) fn shots(&self) -> &Chunks<Option<fulcrum::DocShot>> {
        &self.shots
    }

    /// Finishing pass: the month loop over memoized shots, driven by the
    /// forum's date column.
    pub(crate) fn finish(
        &self,
        forum: &impl PostRead,
        start: analytics::time::Month,
        end: analytics::time::Month,
    ) -> Result<Vec<MonthlyPoint>, AnalyticsError> {
        let dates: Vec<Date> = forum.iter().map(|p| p.date).collect();
        let shots = self.shots.to_vec();
        FulcrumAnalysis::default().analyze_dated_shots(&dates, start, end, |i| shots[i])
    }
}

/// Evaluate the [`fulcrum::DocShot`] of each post, the first being
/// document `first_doc` of `corpus`.
fn doc_shots<'a>(
    posts: impl Iterator<Item = &'a Post>,
    first_doc: usize,
    corpus: &TokenCorpus,
) -> Vec<Option<fulcrum::DocShot>> {
    let analysis = FulcrumAnalysis::default();
    let vocab = corpus.vocab();
    posts
        .enumerate()
        .map(|(i, post)| {
            fulcrum::DocShot::eval(post, || {
                analysis
                    .analyzer
                    .score_ids(corpus.doc(first_doc + i), vocab)
            })
        })
        .collect()
}

/// §4.1 view: a *settled* emerging-topic miner plus the finished
/// detections. The settled `MineState` has evaluated every window that
/// ends before the forum's last day (`settled.end = last − 1`); the
/// detections come from a clone of it run one window further, to `last`.
/// The settled state has read no post dated after
/// `max(settled.end, settled.start + window_days − 1)` (the pre-load
/// window included), so an append whose posts are all dated after that day
/// — in particular posts on or after the last mined day, the common
/// many-posts-per-day case — resumes from the settled state: the new
/// windows plus one tail window instead of a re-mine from day one,
/// walking exactly the windows a cold run would. A post dated before the
/// last day, or one inside the pre-load window, would have changed
/// already-evaluated windows, so it drops the view for a cold lazy
/// rebuild. The carried
/// `Result` mirrors the cold path's empty-forum error, keeping error
/// answers bit-identical too.
#[derive(Clone)]
pub struct EmergingTopicsView {
    docs_seen: usize,
    state: Result<SettledMine, AnalyticsError>,
}

/// The settled miner and the detections of its one-window tail.
#[derive(Clone)]
struct SettledMine {
    settled: MineState,
    detections: Vec<EmergingTopic>,
}

impl SettledMine {
    /// Run `settled` through every window ending before `last`, the
    /// forum's last day, then a clone of it through the tail to `last`.
    fn mined(
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        mut settled: MineState,
        last: Date,
    ) -> SettledMine {
        let miner = EmergingTopicMiner::default();
        settled.end = last.offset(-1);
        miner.mine_run(forum, corpus, &mut settled);
        let mut tail = settled.clone();
        tail.end = last;
        miner.mine_run(forum, corpus, &mut tail);
        SettledMine {
            settled,
            detections: tail.detections(),
        }
    }
}

impl EmergingTopicsView {
    /// Cold rebuild: settle the miner one day short of the forum's end and
    /// finish the tail.
    pub(crate) fn rebuild(forum: &impl PostRead, corpus: &TokenCorpus) -> EmergingTopicsView {
        let state = EmergingTopicMiner::default()
            .mine_start(forum, corpus)
            .map(|s| {
                // `mine_start` fixes `end` at the forum's last day.
                let last = s.end;
                SettledMine::mined(forum, corpus, s, last)
            });
        EmergingTopicsView {
            docs_seen: forum.len(),
            state,
        }
    }

    fn advanced(&self, delta: &ViewDelta<'_>) -> Option<EmergingTopicsView> {
        let corpus = delta.corpus_after(self.docs_seen)?;
        let state = match &self.state {
            // Previously empty forum: everything is delta, mine whole.
            Err(_) => return Some(EmergingTopicsView::rebuild(delta.forum, corpus)),
            Ok(prior) => {
                // The latest day the settled state has read. A post dated
                // at or before it would have changed already-evaluated
                // windows (or the history pre-load): drop and rebuild
                // lazily.
                let settled = &prior.settled;
                let read_through = settled.end.max(
                    settled
                        .start
                        .offset(EmergingTopicMiner::default().window_days - 1),
                );
                if delta.posts.iter().any(|p| p.date <= read_through) {
                    return None;
                }
                let (start, last) = delta.date_range?;
                debug_assert_eq!(
                    start, settled.start,
                    "later-dated posts keep the range start"
                );
                Ok(SettledMine::mined(
                    delta.forum,
                    corpus,
                    settled.clone(),
                    last,
                ))
            }
        };
        Some(EmergingTopicsView {
            docs_seen: delta.forum.len(),
            state,
        })
    }

    /// Finishing pass: the tail's detections, already in canonical order.
    pub(crate) fn finish(&self) -> Result<Vec<EmergingTopic>, AnalyticsError> {
        Ok(self
            .state
            .as_ref()
            .map_err(Clone::clone)?
            .detections
            .clone())
    }
}

/// One materialized view, tagged by answer family. Construction and
/// finishing are dispatched by the service (which owns the per-query
/// parameters); this enum owns the carry-forward.
#[derive(Clone)]
pub enum View {
    /// Fig. 1 curve accumulator.
    Curve(CurveView),
    /// Fig. 2 grid accumulator.
    Grid(GridView),
    /// Fig. 3 per-platform accumulator.
    Platform(PlatformView),
    /// Fig. 4 rated-index list.
    Mos(MosView),
    /// §5 predictor rated-index list.
    Predict(PredictView),
    /// Fig. 5 scores + day series.
    Sentiment(SentimentView),
    /// Fig. 6 keyword day series.
    Outage(OutageView),
    /// §6 band counts.
    Deployment(DeploymentView),
    /// Fig. 7 per-post memo.
    SpeedTrend(SpeedTrendView),
    /// §4.1 settled miner + tail detections.
    EmergingTopics(EmergingTopicsView),
}

impl View {
    /// True when the batch holds nothing this view reads and the view is
    /// current: session views at `rows_before` on a session-free batch,
    /// text views at `posts_before` on a post-free batch with a corpus
    /// built. Such a view is carried by sharing its `Arc`.
    fn untouched_by(&self, delta: &ViewDelta<'_>) -> bool {
        let docs_seen = match self {
            View::Curve(CurveView { rows_seen, .. })
            | View::Grid(GridView { rows_seen, .. })
            | View::Platform(PlatformView { rows_seen, .. })
            | View::Mos(MosView { rows_seen, .. })
            | View::Predict(PredictView { rows_seen, .. }) => {
                return delta.sessions.is_empty() && *rows_seen == delta.rows_before;
            }
            View::Sentiment(SentimentView { docs_seen, .. })
            | View::Outage(OutageView { docs_seen, .. })
            | View::Deployment(DeploymentView { docs_seen, .. })
            | View::SpeedTrend(SpeedTrendView { docs_seen, .. })
            | View::EmergingTopics(EmergingTopicsView { docs_seen, .. }) => *docs_seen,
        };
        delta.post_free() && delta.corpus_after(docs_seen).is_some()
    }

    /// The view advanced by one committed batch — the same `Arc` when the
    /// batch does not touch it — or `None` when it cannot be carried
    /// (corpus-backed view with no corpus built, or a generation mismatch).
    /// Dropping is always safe because a later query rebuilds the view
    /// cold with identical answers.
    fn advanced(self: &Arc<View>, delta: &ViewDelta<'_>) -> Option<Arc<View>> {
        if self.untouched_by(delta) {
            return Some(Arc::clone(self));
        }
        let next = match &**self {
            View::Curve(v) => v.advanced(delta).map(View::Curve),
            View::Grid(v) => v.advanced(delta).map(View::Grid),
            View::Platform(v) => v.advanced(delta).map(View::Platform),
            View::Mos(v) => v.advanced(delta).map(View::Mos),
            View::Predict(v) => v.advanced(delta).map(View::Predict),
            View::Sentiment(v) => v.advanced(delta).map(View::Sentiment),
            View::Outage(v) => v.advanced(delta).map(View::Outage),
            View::Deployment(v) => v.advanced(delta).map(View::Deployment),
            View::SpeedTrend(v) => v.advanced(delta).map(View::SpeedTrend),
            View::EmergingTopics(v) => v.advanced(delta).map(View::EmergingTopics),
        };
        next.map(Arc::new)
    }
}

/// The set of materialized views one generation carries. Shared-read,
/// install-on-first-use: racing queries may both rebuild the same view, but
/// installation is first-wins and both candidates are pure functions of the
/// generation's immutable corpus, so the outcome is deterministic.
#[derive(Default)]
pub struct ViewSet {
    views: RwLock<HashMap<ViewKey, Arc<View>>>,
}

impl ViewSet {
    /// The installed view for `key`, if any.
    pub(crate) fn get(&self, key: &ViewKey) -> Option<Arc<View>> {
        self.views.read().get(key).cloned()
    }

    /// Install `view` under `key` unless one is already installed
    /// (first-wins), returning the view that ends up installed.
    pub(crate) fn install(&self, key: ViewKey, view: View) -> Arc<View> {
        self.views
            .write()
            .entry(key)
            .or_insert_with(|| Arc::new(view))
            .clone()
    }

    /// Keys of every installed view, in a canonical (sorted) order — the
    /// order persistence snapshots them in.
    pub fn keys(&self) -> Vec<ViewKey> {
        let mut keys: Vec<ViewKey> = self.views.read().keys().copied().collect();
        keys.sort_by_key(|k| format!("{k:?}"));
        keys
    }

    /// Number of installed views.
    pub fn len(&self) -> usize {
        self.views.read().len()
    }

    /// True when no view is installed.
    pub fn is_empty(&self) -> bool {
        self.views.read().is_empty()
    }

    /// The successor generation's view set: every carried view advanced by
    /// the committed batch in O(delta), or shared when the batch holds
    /// nothing it reads; views that cannot be carried are dropped (and
    /// lazily rebuilt on next use, with identical answers).
    pub(crate) fn advanced(&self, delta: &ViewDelta<'_>) -> ViewSet {
        let views = self.views.read();
        let next: HashMap<ViewKey, Arc<View>> = views
            .iter()
            .filter_map(|(k, v)| v.advanced(delta).map(|nv| (*k, nv)))
            .collect();
        ViewSet {
            views: RwLock::new(next),
        }
    }
}

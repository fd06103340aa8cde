//! The USaaS facade: one service, typed queries, typed answers (§5, Fig. 8).
//!
//! *"USaaS collects such user feedback, both online and offline, finds
//! correlations, and shares useful user-centric insights back. The queries
//! could take as input the network/service under consideration, network
//! performance metrics and possible user actions of interest, application
//! QoE metrics, etc."*
//!
//! [`UsaasService::build`] takes a conferencing dataset and a forum corpus
//! as its first [`Generation`] and then answers [`Query`] values — each
//! one a figure/analysis from the paper, plus the §5 flagship cross-network
//! query ("how do Starlink users perceive the conferencing service?") and
//! the §6 deployment-advice loop.

use crate::annotate::{AnnotatedPeak, PeakAnnotator};
use crate::cache::MemoCache;
use crate::chunks::{Chunks, PostRead};
use crate::correlate;
use crate::emerging::{EmergingTopic, EmergingTopicMiner};
use crate::frame::SessionFrame;
use crate::fulcrum::{FulcrumAnalysis, MonthlyPoint};
use crate::ingest::{self, IngestConfig, IngestReport, QuarantineEntry};
use crate::outage::DetectedOutage;
#[cfg(test)]
use crate::persist::Journal;
use crate::persist::{
    self, CompactionReport, JournalStats, PersistError, PersistedHealth, SnapshotContents, Wal,
    JOURNAL_FILE,
};
use crate::predict::{self, Evaluation, FeatureSet};
use crate::source::{ItemSource, RawItem, Source};
use crate::views::{
    CurveView, DeploymentView, EmergingTopicsView, GridView, MosView, OutageView, PlatformView,
    PredictView, SentimentView, SpeedTrendView, View, ViewDelta, ViewKey, ViewSet,
};
use analytics::binning::BinnedCurve;
use analytics::time::Date;
use analytics::{kernels, AnalyticsError};
use conference::platform::Platform;
use conference::records::{CallDataset, EngagementMetric, NetworkMetric, SessionRecord};
use netsim::access::AccessType;
use parking_lot::{Mutex, RwLock};
use sentiment::corpus::TokenCorpus;
use serde::Serialize;
use social::post::{Forum, Post};
use starlink::constellation::{DeploymentPlanner, Recommendation, RegionalDemand};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Errors from the service layer.
#[derive(Debug, Clone)]
pub enum UsaasError {
    /// An underlying analytics step failed.
    Analytics(AnalyticsError),
    /// The query needs data the service does not hold.
    NoData(&'static str),
}

impl std::fmt::Display for UsaasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsaasError::Analytics(e) => write!(f, "analytics error: {e}"),
            UsaasError::NoData(what) => write!(f, "no data: {what}"),
        }
    }
}

impl std::error::Error for UsaasError {}

impl From<AnalyticsError> for UsaasError {
    fn from(e: AnalyticsError) -> UsaasError {
        UsaasError::Analytics(e)
    }
}

/// Typed queries — each maps to a paper artefact.
#[derive(Debug, Clone)]
pub enum Query {
    /// Fig. 1: engagement vs a swept network metric.
    EngagementCurve {
        /// Metric being swept.
        sweep: NetworkMetric,
        /// Engagement metric reported.
        engagement: EngagementMetric,
        /// Number of bins.
        bins: usize,
    },
    /// Fig. 2: the latency × loss compounding grid.
    CompoundingGrid {
        /// Engagement metric (the paper uses Presence).
        engagement: EngagementMetric,
        /// Grid resolution per axis.
        bins: usize,
    },
    /// Fig. 3: per-platform sensitivity curves.
    PlatformSensitivity {
        /// Metric being swept.
        sweep: NetworkMetric,
        /// Engagement metric reported.
        engagement: EngagementMetric,
    },
    /// Fig. 4: engagement↔MOS curves and correlation ranking.
    MosCorrelation,
    /// §5: train and evaluate the MOS predictor.
    PredictMos {
        /// Feature set.
        features: FeatureSet,
    },
    /// Fig. 6: social outage detection.
    OutageTimeline,
    /// Fig. 5: annotated sentiment peaks.
    SentimentPeaks {
        /// How many peaks to annotate.
        k: usize,
    },
    /// Fig. 7: speeds, users, launches, and the Pos score.
    SpeedTrend,
    /// §4.1: emerging topics (the roaming detector).
    EmergingTopics,
    /// §5 flagship: how users of one access network experience the
    /// conferencing service, with social corroboration.
    CrossNetwork {
        /// Access network of interest.
        access: AccessType,
    },
    /// §6: which LEO shell to deploy next given regional sentiment.
    DeploymentAdvice,
}

/// §5 cross-network answer: implicit/explicit signals of the target
/// network's users, compared against everyone else, with the social-outage
/// join.
#[derive(Debug, Clone, Serialize)]
pub struct CrossNetworkReport {
    /// Sessions on the target access network.
    pub sessions: usize,
    /// Mean Presence of target-network users.
    pub mean_presence: f64,
    /// Mean Presence of all other users.
    pub others_presence: f64,
    /// Mean Mic On of target-network users.
    pub mean_mic_on: f64,
    /// Mean Cam On of target-network users.
    pub mean_cam_on: f64,
    /// MOS of the target network's rated sessions, if any were sampled.
    pub mos: Option<f64>,
    /// Mean Presence of target users on socially-detected outage days.
    pub outage_day_presence: Option<f64>,
    /// Number of detected outage days inside the telemetry window.
    pub outage_days_joined: usize,
}

/// Typed answers.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A binned curve.
    Curve(BinnedCurve),
    /// Per-platform curves.
    PlatformCurves(Vec<(Platform, BinnedCurve)>),
    /// A 2-D grid.
    Grid(correlate::Grid2d),
    /// MOS curves per engagement metric plus the correlation ranking.
    Mos {
        /// Curve per engagement metric.
        curves: Vec<(EngagementMetric, BinnedCurve)>,
        /// Pearson ranking, strongest first.
        ranking: Vec<(EngagementMetric, f64)>,
    },
    /// Predictor evaluation.
    Prediction(Evaluation),
    /// Detected outages.
    Outages(Vec<DetectedOutage>),
    /// Annotated sentiment peaks.
    Peaks(Vec<AnnotatedPeak>),
    /// Fig. 7 monthly series.
    Speeds(Vec<MonthlyPoint>),
    /// Emerging topics.
    Topics(Vec<EmergingTopic>),
    /// Cross-network report.
    CrossNetwork(CrossNetworkReport),
    /// Deployment recommendations (ranked).
    Deployment(Vec<Recommendation>),
}

/// Memoization key of a [`Query`]: same variants, but `Eq + Hash` (the
/// parameter types all hash; `FeatureSet` is folded to its variant tag).
/// Crate-private on purpose — callers keep the ergonomic `Query` surface
/// and the cache keying stays an implementation detail shared by the
/// single-service and cluster answer caches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum QueryKey {
    EngagementCurve {
        sweep: NetworkMetric,
        engagement: EngagementMetric,
        bins: usize,
    },
    CompoundingGrid {
        engagement: EngagementMetric,
        bins: usize,
    },
    PlatformSensitivity {
        sweep: NetworkMetric,
        engagement: EngagementMetric,
    },
    MosCorrelation,
    PredictMos {
        features: u8,
    },
    OutageTimeline,
    SentimentPeaks {
        k: usize,
    },
    SpeedTrend,
    EmergingTopics,
    CrossNetwork {
        access: AccessType,
    },
    DeploymentAdvice,
}

impl QueryKey {
    pub(crate) fn of(query: &Query) -> QueryKey {
        match *query {
            Query::EngagementCurve {
                sweep,
                engagement,
                bins,
            } => QueryKey::EngagementCurve {
                sweep,
                engagement,
                bins,
            },
            Query::CompoundingGrid { engagement, bins } => {
                QueryKey::CompoundingGrid { engagement, bins }
            }
            Query::PlatformSensitivity { sweep, engagement } => {
                QueryKey::PlatformSensitivity { sweep, engagement }
            }
            Query::MosCorrelation => QueryKey::MosCorrelation,
            Query::PredictMos { features } => QueryKey::PredictMos {
                features: match features {
                    FeatureSet::NetworkOnly => 0,
                    FeatureSet::EngagementOnly => 1,
                    FeatureSet::Full => 2,
                },
            },
            Query::OutageTimeline => QueryKey::OutageTimeline,
            Query::SentimentPeaks { k } => QueryKey::SentimentPeaks { k },
            Query::SpeedTrend => QueryKey::SpeedTrend,
            Query::EmergingTopics => QueryKey::EmergingTopics,
            Query::CrossNetwork { access } => QueryKey::CrossNetwork { access },
            Query::DeploymentAdvice => QueryKey::DeploymentAdvice,
        }
    }
}

/// Which materialized view (if any) backs a query. `OutageTimeline` and
/// `CrossNetwork` return `None` here but still share the
/// [`ViewKey::Outage`] view through [`Generation::outage_detections`].
fn view_key_of(query: &Query) -> Option<ViewKey> {
    match *query {
        Query::EngagementCurve {
            sweep,
            engagement,
            bins,
        } => Some(ViewKey::Curve {
            sweep,
            engagement,
            bins,
        }),
        Query::CompoundingGrid { engagement, bins } => Some(ViewKey::Grid { engagement, bins }),
        Query::PlatformSensitivity { sweep, engagement } => {
            Some(ViewKey::Platform { sweep, engagement })
        }
        Query::MosCorrelation => Some(ViewKey::Mos),
        Query::PredictMos { features } => Some(ViewKey::Predict { features }),
        Query::SentimentPeaks { .. } => Some(ViewKey::Sentiment),
        Query::DeploymentAdvice => Some(ViewKey::Deployment),
        Query::SpeedTrend => Some(ViewKey::SpeedTrend),
        Query::EmergingTopics => Some(ViewKey::EmergingTopics),
        Query::OutageTimeline | Query::CrossNetwork { .. } => None,
    }
}

/// Structurally-shared session storage: the build-time corpus plus one
/// `Arc`'d chunk per committed append ([`Chunks`]).
pub type SessionChunks = Chunks<SessionRecord>;

/// One immutable epoch of the service's materialised state: the session
/// corpus and forum as of the last committed append, the columnar frame
/// and interned corpus mirroring them, and the answer cache for exactly
/// this epoch.
///
/// Queries pin an `Arc<Generation>` via [`UsaasService::snapshot`] and
/// compute against it, so an append committing mid-query swaps the
/// service's current generation without disturbing anything the in-flight
/// query reads. Each new generation starts with a fresh [`MemoCache`] —
/// epoch-based cache invalidation — so post-append queries recompute over
/// the extended data while pre-append answers die with their generation.
pub struct Generation {
    /// 0 for the build-time generation; +1 per committed append.
    epoch: u64,
    /// Structurally-shared session records: appends push one chunk instead
    /// of copying the corpus.
    sessions: SessionChunks,
    /// The forum's posts in commit order, structurally shared like the
    /// sessions: the build-time (or recovered) forum is chunk 0, and a
    /// commit with posts pushes its batch as one new chunk while sharing
    /// every earlier chunk by reference. A post-free commit shares the
    /// whole chain. Dropping a generation releases only its chunk list.
    forum: Chunks<Post>,
    /// `forum.date_range()`, computed once per generation: the base
    /// generation's range folded with the batch's post dates at commit, so
    /// views and finishing passes never rescan the forum for it.
    date_range: Option<(Date, Date)>,
    /// Columnar mirror of the session chunks, materialised lazily by
    /// [`Generation::frame`] on the first query that actually scans
    /// columns — the only place a generation gets one. Builds, commits,
    /// recovery and checkpoints never touch it: view-backed answers finish
    /// carried accumulators fed straight from the delta records, so the
    /// steady-state append+hot-query path stays O(delta) instead of paying
    /// an O(corpus) column copy per epoch, and snapshots store only the
    /// session records the frame is derived from.
    frame: OnceLock<SessionFrame>,
    /// Worker-thread budget; frame aggregation and corpus builds reuse it.
    workers: usize,
    /// Tokenize-once interned mirror of the forum, built lazily on the
    /// first §4 text query (chunk-parallel over `workers`) and shared by
    /// every sentiment/keyword/n-gram consumer. When it was already built,
    /// a post-free append shares it by reference and an append with posts
    /// clones and grows it (existing ids never move).
    social_corpus: OnceLock<Arc<TokenCorpus>>,
    /// Default-detector outage run, computed once and shared by the
    /// `OutageTimeline` and `CrossNetwork` queries (both need the same
    /// detection pass; the corpus is immutable within a generation).
    outage_cache: OnceLock<Result<Vec<DetectedOutage>, UsaasError>>,
    /// Memoized answers: every aggregate is a pure function of this
    /// generation's immutable corpus, so each distinct query computes once
    /// per epoch and repeats are cloned from the cache.
    answers: MemoCache<QueryKey, Result<Answer, UsaasError>>,
    /// Materialized views carried forward from the previous generation
    /// (advanced by O(delta) at commit) or installed on first use. Routed
    /// ahead of `answer_uncached`: a view-backed answer is a cheap
    /// finishing pass over the carried accumulator instead of a full
    /// recompute over the corpus.
    views: ViewSet,
}

impl Generation {
    fn new(
        epoch: u64,
        sessions: SessionChunks,
        forum: Chunks<Post>,
        date_range: Option<(Date, Date)>,
        workers: usize,
        social_corpus: OnceLock<Arc<TokenCorpus>>,
        views: ViewSet,
    ) -> Generation {
        Generation {
            epoch,
            sessions,
            forum,
            date_range,
            frame: OnceLock::new(),
            workers,
            social_corpus,
            outage_cache: OnceLock::new(),
            answers: MemoCache::default(),
            views,
        }
    }

    /// Epoch number: 0 at build time, incremented by every committed
    /// append.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The columnar session frame, materialised from the session chunks on
    /// first use; no other path builds, stores or restores one. Chunks are
    /// appended in commit order and `extend_from_sessions` preserves record
    /// order, so the lazy build is bit-identical to materialising eagerly
    /// at every commit (asserted by the service tests and the parity
    /// suite).
    pub fn frame(&self) -> &SessionFrame {
        self.frame.get_or_init(|| {
            let mut frame = SessionFrame::with_capacity(self.sessions.len());
            for chunk in self.sessions.chunks() {
                frame.extend_from_sessions(chunk, self.workers);
            }
            frame
        })
    }

    /// The raw per-record sessions the frame mirrors (read access for
    /// analyses that need full [`conference::records::SessionRecord`]s).
    pub fn sessions(&self) -> &SessionChunks {
        &self.sessions
    }

    /// The forum's posts of this generation in commit order (read access
    /// for custom analyses and parity checks; [`Chunks::to_vec`] gives a
    /// flat copy).
    pub fn forum(&self) -> &Chunks<Post> {
        &self.forum
    }

    /// The forum's interned token corpus, built once per generation on
    /// first use — the same corpus [`Forum::token_corpus`] builds over the
    /// flat posts. Identical for every worker count, so lazily building it
    /// never perturbs query results.
    pub fn social_corpus(&self) -> &TokenCorpus {
        self.social_corpus.get_or_init(|| {
            let posts: Vec<&Post> = self.forum.iter().collect();
            Arc::new(TokenCorpus::build_with(
                posts.len(),
                self.workers,
                |i, emit| {
                    for part in posts[i].text_parts() {
                        emit(part);
                    }
                },
            ))
        })
    }

    /// Earliest and latest post dates of this generation's forum, `None`
    /// when it is empty — equal to [`Forum::date_range`], without the scan.
    pub(crate) fn date_range(&self) -> Option<(Date, Date)> {
        self.date_range
    }

    /// The shared default-detector outage detections, computed on first use
    /// as the finishing pass of the [`ViewKey::Outage`] view (installed
    /// here when absent, so appends carry the keyword series forward
    /// instead of re-scanning the corpus).
    fn outage_detections(&self) -> Result<&[DetectedOutage], UsaasError> {
        self.outage_cache
            .get_or_init(|| match &*self.view(ViewKey::Outage)? {
                View::Outage(v) => Ok(v.finish()?),
                _ => unreachable!("ViewKey::Outage holds an outage view"),
            })
            .as_deref()
            .map_err(Clone::clone)
    }

    /// The materialized views installed on this generation (read access —
    /// `keys()` is what persistence snapshots).
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// Answer-cache lookups that found an existing entry (this epoch).
    pub fn cache_hits(&self) -> usize {
        self.answers.hits()
    }

    /// Answer-cache lookups that had to compute (this epoch).
    pub fn cache_misses(&self) -> usize {
        self.answers.misses()
    }

    /// Answer one query against this generation. Answers are memoized by
    /// the query's parameters: the first occurrence computes, repeats —
    /// sequential or racing inside a [`UsaasService::query_batch`] — clone
    /// the cached answer.
    pub fn query(&self, query: &Query) -> Result<Answer, UsaasError> {
        self.answers
            .get_or_compute(QueryKey::of(query), || self.answer_routed(query))
    }

    /// Route one query: view-backed families finish their materialized
    /// accumulator (rebuilding and installing the view first if this
    /// generation does not carry it); everything else takes the full
    /// compute path. Routing sits *under* the [`MemoCache`], so repeats of
    /// the same query never re-run even the finishing pass.
    fn answer_routed(&self, query: &Query) -> Result<Answer, UsaasError> {
        match view_key_of(query) {
            Some(key) => self.answer_view_backed(query, key),
            None => self.answer_uncached(query),
        }
    }

    /// The installed view for `key`, rebuilding and installing it when this
    /// generation does not carry one. The cluster router reads partition
    /// state through this.
    pub(crate) fn view(&self, key: ViewKey) -> Result<Arc<View>, UsaasError> {
        if let Some(view) = self.views.get(&key) {
            return Ok(view);
        }
        let built = self.materialize_view(key)?;
        Ok(self.views.install(key, built))
    }

    /// Cold-rebuild one view from this generation's corpus. The
    /// construction parameters (bin counts, min-count thresholds) match
    /// [`Generation::answer_fresh`] exactly, and errors (e.g. a zero bin
    /// count) surface as the same [`AnalyticsError`] the full compute
    /// raises, so routing through views never changes an answer — only the
    /// cost of producing it. The cluster's `answer_fresh` merges these
    /// uninstalled cold builds.
    pub(crate) fn materialize_view(&self, key: ViewKey) -> Result<View, UsaasError> {
        Ok(match key {
            ViewKey::Curve {
                sweep,
                engagement,
                bins,
            } => View::Curve(CurveView::rebuild(self.frame(), sweep, engagement, bins)?),
            ViewKey::Grid { engagement, bins } => {
                View::Grid(GridView::rebuild(self.frame(), engagement, bins)?)
            }
            ViewKey::Platform { sweep, engagement } => {
                View::Platform(PlatformView::rebuild(self.frame(), sweep, engagement, 4)?)
            }
            ViewKey::Mos => View::Mos(MosView::rebuild(self.frame())),
            ViewKey::Predict { features } => {
                View::Predict(PredictView::rebuild(self.frame(), features))
            }
            ViewKey::Sentiment => View::Sentiment(SentimentView::rebuild(
                &self.forum,
                self.social_corpus(),
                self.workers,
            )),
            ViewKey::Outage => View::Outage(OutageView::rebuild(
                &self.forum,
                self.social_corpus(),
                self.workers,
            )),
            ViewKey::Deployment => View::Deployment(DeploymentView::rebuild(
                &self.forum,
                self.social_corpus(),
                self.workers,
            )),
            ViewKey::SpeedTrend => {
                View::SpeedTrend(SpeedTrendView::rebuild(&self.forum, self.social_corpus()))
            }
            ViewKey::EmergingTopics => View::EmergingTopics(EmergingTopicsView::rebuild(
                &self.forum,
                self.social_corpus(),
            )),
        })
    }

    /// Answer a view-backed query family by finishing its view. The
    /// wildcard arm is unreachable for a well-formed `view_key_of` mapping
    /// but falls back to the full compute rather than panicking.
    fn answer_view_backed(&self, query: &Query, key: ViewKey) -> Result<Answer, UsaasError> {
        let view = self.view(key)?;
        match (&*view, query) {
            (View::Curve(v), Query::EngagementCurve { .. }) => Ok(Answer::Curve(v.finish(8))),
            (View::Grid(v), Query::CompoundingGrid { .. }) => Ok(Answer::Grid(v.finish(5))),
            (View::Platform(v), Query::PlatformSensitivity { .. }) => {
                Ok(Answer::PlatformCurves(v.finish(5)))
            }
            (View::Mos(v), Query::MosCorrelation) => {
                let (curves, ranking) = v.finish()?;
                Ok(Answer::Mos { curves, ranking })
            }
            (View::Predict(v), Query::PredictMos { .. }) => Ok(Answer::Prediction(v.finish()?)),
            (View::Sentiment(v), Query::SentimentPeaks { k }) => Ok(Answer::Peaks(v.finish(
                &self.forum,
                self.social_corpus(),
                *k,
            )?)),
            (View::Deployment(v), Query::DeploymentAdvice) => {
                let demand = v
                    .finish()
                    .ok_or(UsaasError::NoData("no strong-negative social signals"))?;
                Ok(Answer::Deployment(DeploymentPlanner::gen1().rank(&demand)))
            }
            (View::SpeedTrend(v), Query::SpeedTrend) => {
                // Same month-range derivation (and empty-forum error) as
                // the full compute path.
                let (first, last) = self
                    .date_range
                    .map(|(a, b)| (a.month(), b.month()))
                    .ok_or(UsaasError::NoData("empty forum"))?;
                Ok(Answer::Speeds(v.finish(&self.forum, first, last)?))
            }
            (View::EmergingTopics(v), Query::EmergingTopics) => Ok(Answer::Topics(v.finish()?)),
            _ => self.answer_uncached(query),
        }
    }

    /// The full-recompute reference path: answer `query` from the raw
    /// corpus, bypassing both the answer cache and the materialized views.
    /// This is what the views are asserted bit-identical against (parity
    /// suite) and benchmarked against (`views_incremental`).
    pub fn answer_fresh(&self, query: &Query) -> Result<Answer, UsaasError> {
        self.answer_uncached(query)
    }

    /// The actual per-query compute, bypassing the answer cache.
    fn answer_uncached(&self, query: &Query) -> Result<Answer, UsaasError> {
        match query {
            Query::EngagementCurve {
                sweep,
                engagement,
                bins,
            } => Ok(Answer::Curve(correlate::engagement_curve_frame(
                self.frame(),
                *sweep,
                *engagement,
                *bins,
                8,
            )?)),
            Query::CompoundingGrid { engagement, bins } => Ok(Answer::Grid(
                correlate::compounding_grid_frame(self.frame(), *engagement, *bins, 5)?,
            )),
            Query::PlatformSensitivity { sweep, engagement } => Ok(Answer::PlatformCurves(
                correlate::platform_curves_frame(self.frame(), *sweep, *engagement, 4, 5)?,
            )),
            Query::MosCorrelation => {
                let mut curves = Vec::new();
                for m in EngagementMetric::ALL {
                    curves.push((
                        m,
                        correlate::mos_by_engagement_frame(self.frame(), m, 4, 3)?,
                    ));
                }
                Ok(Answer::Mos {
                    curves,
                    ranking: correlate::mos_correlations_frame(self.frame())?,
                })
            }
            Query::PredictMos { features } => {
                let (_, eval) = predict::train_and_evaluate_frame(self.frame(), *features, 4)?;
                Ok(Answer::Prediction(eval))
            }
            Query::OutageTimeline => Ok(Answer::Outages(self.outage_detections()?.to_vec())),
            Query::SentimentPeaks { k } => {
                Ok(Answer::Peaks(PeakAnnotator::default().annotate_interned(
                    &self.forum,
                    self.social_corpus(),
                    *k,
                    self.workers,
                )?))
            }
            Query::SpeedTrend => {
                // The forum's date range folded once at commit (min/max over
                // posts — `posts` carries no ordering guarantee), the same
                // derivation the view-backed arm uses.
                let (first, last) = self
                    .date_range
                    .map(|(a, b)| (a.month(), b.month()))
                    .ok_or(UsaasError::NoData("empty forum"))?;
                Ok(Answer::Speeds(
                    FulcrumAnalysis::default().analyze_interned(
                        &self.forum,
                        self.social_corpus(),
                        first,
                        last,
                    )?,
                ))
            }
            Query::EmergingTopics => Ok(Answer::Topics(
                EmergingTopicMiner::default().mine_interned(&self.forum, self.social_corpus())?,
            )),
            Query::CrossNetwork { access } => self.cross_network(*access).map(Answer::CrossNetwork),
            Query::DeploymentAdvice => {
                let demand = self.sentiment_demand()?;
                Ok(Answer::Deployment(DeploymentPlanner::gen1().rank(&demand)))
            }
        }
    }

    /// §5 flagship query implementation, aggregated over frame columns:
    /// the access column compiles to a packed row mask, and the per-column
    /// means run branchless over it (`kernels::masked_mean` is bit-identical
    /// to gathering the selected rows in session order and folding — see the
    /// `analytics::kernels` module docs), so the report matches the
    /// per-record walk it replaced to the bit.
    fn cross_network(&self, access: AccessType) -> Result<CrossNetworkReport, UsaasError> {
        let frame = self.frame();
        let target_mask = kernels::RowMask::from_fn(frame.len(), |i| frame.access()[i] == access);
        if target_mask.count() == 0 {
            return Err(UsaasError::NoData("no sessions on the requested network"));
        }
        let others_mask = kernels::RowMask::from_fn(frame.len(), |i| frame.access()[i] != access);
        let target: Vec<usize> = (0..frame.len()).filter(|&i| target_mask.get(i)).collect();
        let presence_col = frame.engagement(EngagementMetric::Presence);
        let mic_col = frame.engagement(EngagementMetric::MicOn);
        let cam_col = frame.engagement(EngagementMetric::CamOn);
        let ratings: Vec<f64> = target
            .iter()
            .filter_map(|&i| frame.rating()[i])
            .map(f64::from)
            .collect();

        // Join: socially-detected outage days vs the telemetry. Only strong
        // spikes (major outages) are joined — transient local outages do not
        // degrade the whole satellite population. The detection pass itself
        // is shared with `OutageTimeline` through the service cache.
        let detections: Vec<DetectedOutage> = self
            .outage_detections()?
            .iter()
            .filter(|d| d.score >= 10.0)
            .copied()
            .collect();
        let dates = frame.date();
        let outage_presence: Vec<f64> = target
            .iter()
            .filter(|&&i| detections.iter().any(|d| d.date == dates[i]))
            .map(|&i| presence_col[i])
            .collect();
        let outage_days_joined = detections
            .iter()
            .filter(|d| target.iter().any(|&i| dates[i] == d.date))
            .count();

        let masked_mean = |col: &[f64], mask: &kernels::RowMask| {
            kernels::masked_mean(col, mask).ok_or(AnalyticsError::Empty)
        };
        Ok(CrossNetworkReport {
            sessions: target.len(),
            mean_presence: masked_mean(presence_col, &target_mask)?,
            others_presence: masked_mean(presence_col, &others_mask).unwrap_or(f64::NAN),
            mean_mic_on: masked_mean(mic_col, &target_mask)?,
            mean_cam_on: masked_mean(cam_col, &target_mask)?,
            mos: analytics::mean(&ratings).ok(),
            outage_day_presence: analytics::mean(&outage_presence).ok(),
            outage_days_joined,
        })
    }

    /// Convert per-country strong-negative social volume into the planner's
    /// latitude-band demand signal (§6): a cold [`DeploymentView`] build
    /// over the whole corpus, finished at once.
    fn sentiment_demand(&self) -> Result<RegionalDemand, UsaasError> {
        DeploymentView::rebuild(&self.forum, self.social_corpus(), self.workers)
            .finish()
            .ok_or(UsaasError::NoData("no strong-negative social signals"))
    }
}

/// Most recent dead-letter entries a service keeps in memory; older ones
/// are evicted (the totals keep counting). Sized so a long-running daemon
/// under a lossy source cannot grow without bound while an operator still
/// sees a useful tail of what was dropped.
pub const DEAD_LETTER_CAP: usize = 1024;

/// Most recent recovery warnings kept in memory (same eviction story).
pub const RECOVERY_WARNING_CAP: usize = 256;

/// A bounded ring of the most recent entries plus a count of how many
/// older entries were evicted. Backs the dead-letter queue and the
/// recovery-warning log so a long-running daemon holds O(cap) memory while
/// the running totals stay exact.
#[derive(Debug, Clone)]
pub(crate) struct BoundedLog<T> {
    items: VecDeque<T>,
    cap: usize,
    dropped: usize,
}

impl<T: Clone> BoundedLog<T> {
    pub(crate) fn new(cap: usize) -> BoundedLog<T> {
        BoundedLog {
            items: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.items.len() == self.cap {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    pub(crate) fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        for item in items {
            self.push(item);
        }
    }

    /// Replace the contents wholesale (recovery installs its warning list
    /// this way); overflow beyond the cap counts as evictions.
    pub(crate) fn replace(&mut self, items: Vec<T>) {
        self.items.clear();
        self.dropped = items.len().saturating_sub(self.cap);
        self.items.extend(items.into_iter().skip(self.dropped));
    }

    pub(crate) fn to_vec(&self) -> Vec<T> {
        self.items.iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> usize {
        self.dropped
    }

    pub(crate) fn set_dropped(&mut self, dropped: usize) {
        self.dropped = dropped;
    }
}

/// Running health totals accumulated across ingestion runs — the single
/// service's, and the cluster router's for the damage its own ingest and
/// cluster log record.
#[derive(Debug)]
pub(crate) struct HealthTotals {
    pub(crate) quarantined: usize,
    pub(crate) unfed: usize,
    pub(crate) breaker_trips: usize,
    /// Sources whose breaker ended the *most recent* run open.
    pub(crate) open_breakers: Vec<String>,
    /// The most recent quarantined items — the dead-letter queue,
    /// journaled and snapshotted so it survives restarts. Bounded:
    /// `quarantined` keeps the exact total while entries beyond
    /// [`DEAD_LETTER_CAP`] are evicted oldest-first.
    pub(crate) dead_letters: BoundedLog<QuarantineEntry>,
    /// What recovery had to repair or skip (truncated journal tail,
    /// corrupt snapshot fallback, journal-write failures). Empty on a
    /// clean open; bounded by [`RECOVERY_WARNING_CAP`].
    pub(crate) recovery_warnings: BoundedLog<String>,
}

impl Default for HealthTotals {
    fn default() -> HealthTotals {
        HealthTotals {
            quarantined: 0,
            unfed: 0,
            breaker_trips: 0,
            open_breakers: Vec::new(),
            dead_letters: BoundedLog::new(DEAD_LETTER_CAP),
            recovery_warnings: BoundedLog::new(RECOVERY_WARNING_CAP),
        }
    }
}

impl HealthTotals {
    /// Fold one run's ingest damage in — live from its report or replayed
    /// from its journal record: the counts add, the quarantined items join
    /// the dead-letter ring, and the run's open breakers replace the last.
    pub(crate) fn fold(
        &mut self,
        quarantined: impl ExactSizeIterator<Item = QuarantineEntry>,
        unfed: usize,
        breaker_trips: usize,
        open_breakers: Vec<String>,
    ) {
        self.quarantined += quarantined.len();
        self.unfed += unfed;
        self.breaker_trips += breaker_trips;
        self.open_breakers = open_breakers;
        self.dead_letters.extend(quarantined);
    }

    /// Fold a live run's damage in (see [`HealthTotals::fold`]).
    pub(crate) fn note_report(&mut self, report: &IngestReport) {
        self.fold(
            report.quarantined.iter().cloned(),
            report.unfed,
            report.breaker_trips,
            report.open_breakers(),
        );
    }
}

/// The service's health/staleness annotation, returned alongside answers
/// so operators can tell a fresh answer from one served while a source is
/// down.
#[derive(Debug, Clone)]
pub struct ServiceHealth {
    /// Epoch of the generation currently serving queries.
    pub epoch: u64,
    /// Sources whose circuit breaker ended the last ingestion run open —
    /// their items are missing until the source recovers.
    pub open_breakers: Vec<String>,
    /// Items dead-lettered across all ingestion runs.
    pub quarantined_total: usize,
    /// Items that never reached the worker pool across all runs.
    pub unfed_total: usize,
    /// Breaker trips across all ingestion runs.
    pub breaker_trips_total: usize,
    /// What persistence had to repair or could not do: journal tails
    /// truncated after a torn write, snapshot fallbacks after a checksum
    /// mismatch, journal appends that failed. Empty for a service that
    /// opened clean (or was never persisted). Bounded to the most recent
    /// [`RECOVERY_WARNING_CAP`] entries; see `recovery_warnings_dropped`.
    pub recovery_warnings: Vec<String>,
    /// Dead-letter entries evicted from the bounded in-memory ring. The
    /// evicted items still count in `quarantined_total`.
    pub dead_letters_dropped: usize,
    /// Recovery warnings evicted from the bounded in-memory ring.
    pub recovery_warnings_dropped: usize,
    /// Write-ahead-journal observability on a persisted service (bytes on
    /// disk, live record count, oldest live seq, compaction counters);
    /// `None` for an in-memory service.
    pub journal: Option<JournalStats>,
}

impl ServiceHealth {
    /// True when answers may be stale: an open breaker means a source is
    /// failing and its items have not been ingested, so queries are served
    /// from already-ingested signals only.
    pub fn is_stale(&self) -> bool {
        !self.open_breakers.is_empty()
    }

    /// True when anything has degraded ingestion or durability: open
    /// breakers, quarantined items, unfed items, or a recovery that had to
    /// repair corruption.
    pub fn is_degraded(&self) -> bool {
        self.is_stale()
            || self.quarantined_total > 0
            || self.unfed_total > 0
            || !self.recovery_warnings.is_empty()
    }
}

/// Watermarks of the newest full snapshot this process wrote — what a
/// differential checkpoint encodes its dirty suffixes against.
#[derive(Debug, Clone, Copy)]
struct DiffBase {
    /// Journal sequence the full snapshot covers.
    seq: u64,
    /// Session count at that snapshot.
    rows: usize,
    /// Post count at that snapshot.
    posts: usize,
}

/// Mutable persistence state: the write-ahead log in the service's
/// directory and the base of the next differential checkpoint.
struct PersistState {
    wal: Wal,
    /// Base of the next differential checkpoint: set whenever this process
    /// writes a full snapshot, `None` before the first one (a reopened
    /// service starts with a full checkpoint rather than trusting a base
    /// it did not write).
    diff_base: Option<DiffBase>,
}

/// The service: a swappable current [`Generation`] holding every
/// committed session and post. Queries serve from a snapshot; committed
/// appends bump the epoch. Every answer, [`UsaasService::signal_counts`]
/// included, is derived from the generation.
pub struct UsaasService {
    /// The generation queries snapshot. Swapped atomically by commits.
    current: RwLock<Arc<Generation>>,
    /// Worker-thread budget the service was built with.
    workers: usize,
    /// Serialises appends; queries never take this.
    append_lock: Mutex<()>,
    health: Mutex<HealthTotals>,
    /// On-disk durability, attached by [`UsaasService::build_persistent`]
    /// or [`UsaasService::open_or_recover`]; `None` for a purely
    /// in-memory service.
    persist: Option<Mutex<PersistState>>,
}

impl UsaasService {
    /// Build the service: the dataset and forum become the epoch-0
    /// generation. Its columnar session frame is materialised on `workers`
    /// threads by the first query that scans it.
    pub fn build(dataset: CallDataset, forum: Forum, workers: usize) -> UsaasService {
        let date_range = forum.date_range();
        let generation = Generation::new(
            0,
            SessionChunks::from_vec(dataset.sessions),
            Chunks::from_vec(forum.posts),
            date_range,
            workers,
            OnceLock::new(),
            ViewSet::default(),
        );
        UsaasService {
            current: RwLock::new(Arc::new(generation)),
            workers,
            append_lock: Mutex::new(()),
            health: Mutex::new(HealthTotals::default()),
            persist: None,
        }
    }

    /// Build a *durable* service in `dir`: build exactly as
    /// [`UsaasService::build`], then write the epoch-0 snapshot and open
    /// the journal, so every subsequent committed append survives a crash.
    /// Refuses a directory that already holds a persisted service — that
    /// is what [`UsaasService::open_or_recover`] is for.
    pub fn build_persistent(
        dataset: CallDataset,
        forum: Forum,
        workers: usize,
        dir: &Path,
    ) -> Result<UsaasService, PersistError> {
        std::fs::create_dir_all(dir)?;
        if dir.join(JOURNAL_FILE).exists() || !persist::snapshot_seqs(dir)?.is_empty() {
            return Err(PersistError::Corrupt {
                file: dir.display().to_string(),
                detail: "directory already holds a persisted service; open_or_recover it instead"
                    .to_string(),
            });
        }
        let mut svc = UsaasService::build(dataset, forum, workers);
        svc.persist = Some(Mutex::new(PersistState {
            wal: Wal::create(dir)?,
            diff_base: None,
        }));
        svc.checkpoint()?;
        Ok(svc)
    }

    /// Reopen a persisted service: load the newest valid persisted state —
    /// a differential snapshot applied over its full base, or a full
    /// snapshot — replay the journal tail, and resume appending. Every
    /// repair along the way — a corrupt snapshot or diff skipped, a torn
    /// journal tail truncated — lands in
    /// `ServiceHealth::recovery_warnings` instead of failing the open; the
    /// open only errors when no snapshot loads at all.
    ///
    /// The recovery invariant (pinned by `tests/persist_recovery.rs`): the
    /// recovered service answers every query **bit-identically** to a
    /// service that lived through the same appends without crashing, for
    /// any worker count.
    pub fn open_or_recover(dir: &Path, workers: usize) -> Result<UsaasService, PersistError> {
        let mut warnings = Vec::new();
        let state = persist::load_latest_state(dir, workers, &mut warnings)?;
        let records = persist::read_and_repair_journal(&dir.join(JOURNAL_FILE), &mut warnings)?;
        // Journal stats before the replay loop consumes the records.
        let live_records = records.len() as u64;
        let oldest_live_seq = records.first().map(|r| r.seq).unwrap_or(0);

        let forum = Chunks::from_vec(state.posts);
        let date_range = forum.date_range();
        let corpus_cell = OnceLock::new();
        if let Some(corpus) = state.corpus {
            let _ = corpus_cell.set(Arc::new(corpus));
        }
        let generation = Generation::new(
            state.epoch,
            SessionChunks::from_vec(state.sessions),
            forum,
            date_range,
            workers,
            corpus_cell,
            ViewSet::default(),
        );
        let svc = UsaasService {
            current: RwLock::new(Arc::new(generation)),
            workers,
            append_lock: Mutex::new(()),
            health: Mutex::new({
                let mut totals = HealthTotals {
                    quarantined: state.health.quarantined,
                    unfed: state.health.unfed,
                    breaker_trips: state.health.breaker_trips,
                    open_breakers: state.health.open_breakers,
                    ..HealthTotals::default()
                };
                let persisted = state.health.dead_letters.len();
                totals.dead_letters.extend(state.health.dead_letters);
                // Every quarantined item was once pushed into the ring, so
                // the pre-crash eviction count is derivable: total minus
                // what the snapshot still carried.
                totals
                    .dead_letters
                    .set_dropped(state.health.quarantined.saturating_sub(persisted));
                totals
            }),
            persist: None,
        };

        // Replay the tail: every journaled batch newer than the snapshot,
        // committed exactly as the original append was.
        let mut last_seq = state.journal_seq;
        for record in records {
            if record.seq <= state.journal_seq {
                continue;
            }
            if record.seq != last_seq + 1 {
                warnings.push(format!(
                    "journal gap: expected seq {}, found {}",
                    last_seq + 1,
                    record.seq
                ));
            }
            if !record.sessions.is_empty() || !record.posts.is_empty() {
                let _appending = svc.append_lock.lock();
                svc.commit_locked(record.sessions, record.posts);
            }
            let epoch_now = svc.snapshot().epoch;
            if epoch_now != record.epoch_after {
                warnings.push(format!(
                    "replayed seq {} landed on epoch {epoch_now}, journal recorded {}",
                    record.seq, record.epoch_after
                ));
            }
            svc.health.lock().fold(
                record.quarantined.into_iter(),
                record.unfed,
                record.breaker_trips,
                record.open_breakers,
            );
            last_seq = record.seq;
        }

        // The recovered state carries its views: every key the snapshot
        // recorded is rebuilt deterministically on the post-replay
        // generation. (Replay re-extends the corpus, so a cold rebuild —
        // not a deserialized accumulator that could drift from replayed
        // state — is the correct recovery; the parity suite asserts the
        // rebuilt views answer bit-identically to an uncrashed service.)
        {
            let generation = svc.snapshot();
            for key in state.view_keys.iter().copied() {
                if generation.views.get(&key).is_none() {
                    match generation.materialize_view(key) {
                        Ok(view) => {
                            generation.views.install(key, view);
                        }
                        Err(e) => warnings
                            .push(format!("persisted view {key:?} could not be rebuilt: {e}")),
                    }
                }
            }
        }

        let wal = Wal::resume(dir, last_seq, live_records, oldest_live_seq)?;
        svc.health.lock().recovery_warnings.replace(warnings);
        let mut svc = svc;
        svc.persist = Some(Mutex::new(PersistState {
            wal,
            diff_base: None,
        }));
        Ok(svc)
    }

    /// Durably checkpoint the current state, choosing the cheapest safe
    /// form: a **differential** snapshot — only the session/post suffixes
    /// dirtied since the last full snapshot this process wrote — when such
    /// a base exists and the dirty suffix is still smaller than the base;
    /// a **full** snapshot otherwise ([`UsaasService::checkpoint_full`]).
    /// Returns the written file's path. Errors with
    /// [`PersistError::NotPersistent`] on an in-memory service.
    ///
    /// The journal is deliberately **not** truncated here: recovery may
    /// still fall back to an older snapshot (or from a diff to its base
    /// plus replay) if this file is later damaged, and that fallback needs
    /// the older journal tail intact.
    pub fn checkpoint(&self) -> Result<PathBuf, PersistError> {
        let Some(persist) = &self.persist else {
            return Err(PersistError::NotPersistent);
        };
        // Holding the append lock freezes epoch and journal seq together.
        let _appending = self.append_lock.lock();
        let generation = self.snapshot();
        let health = self.persisted_health();
        let view_keys = generation.views.keys();
        let mut state = persist.lock();
        if let Some(base) = state.diff_base {
            let rows = generation.sessions.len();
            let posts = generation.forum.len();
            // Diff while the dirty suffix stays smaller than the base; a
            // tail that has outgrown it means a full snapshot is no more
            // expensive to write and makes recovery one file again.
            let small =
                rows - base.rows <= base.rows.max(1) && posts - base.posts <= base.posts.max(1);
            if small {
                return persist::write_diff_snapshot(
                    state.wal.dir(),
                    &persist::DiffContents {
                        epoch: generation.epoch,
                        journal_seq: state.wal.last_seq(),
                        base_seq: base.seq,
                        base_rows: base.rows,
                        base_posts: base.posts,
                        sessions: &generation.sessions,
                        posts: &generation.forum,
                        health: &health,
                        view_keys: &view_keys,
                    },
                );
            }
        }
        Self::write_full_locked(&mut state, &generation, &health, &view_keys)
    }

    /// Write a full snapshot unconditionally (atomic tmp → fsync →
    /// rename), prune old snapshots to the retention count, and make this
    /// snapshot the base for subsequent differential checkpoints. Returns
    /// the snapshot's path.
    pub fn checkpoint_full(&self) -> Result<PathBuf, PersistError> {
        let Some(persist) = &self.persist else {
            return Err(PersistError::NotPersistent);
        };
        let _appending = self.append_lock.lock();
        let generation = self.snapshot();
        let health = self.persisted_health();
        let view_keys = generation.views.keys();
        let mut state = persist.lock();
        Self::write_full_locked(&mut state, &generation, &health, &view_keys)
    }

    /// Shared full-snapshot write: records the new diff base on success.
    fn write_full_locked(
        state: &mut PersistState,
        generation: &Generation,
        health: &PersistedHealth,
        view_keys: &[ViewKey],
    ) -> Result<PathBuf, PersistError> {
        let seq = state.wal.last_seq();
        let path = persist::write_snapshot(
            state.wal.dir(),
            &SnapshotContents {
                epoch: generation.epoch,
                journal_seq: seq,
                sessions: &generation.sessions,
                posts: &generation.forum,
                corpus: generation.social_corpus.get().map(Arc::as_ref),
                health,
                view_keys,
            },
        )?;
        state.diff_base = Some(DiffBase {
            seq,
            rows: generation.sessions.len(),
            posts: generation.forum.len(),
        });
        Ok(path)
    }

    /// The current health totals in their persisted form.
    fn persisted_health(&self) -> PersistedHealth {
        let totals = self.health.lock();
        PersistedHealth {
            quarantined: totals.quarantined,
            unfed: totals.unfed,
            breaker_trips: totals.breaker_trips,
            open_breakers: totals.open_breakers.clone(),
            dead_letters: totals.dead_letters.to_vec(),
        }
    }

    /// The dead-letter queue: the most recent quarantined items (bounded
    /// ring; `ServiceHealth::quarantined_total` keeps the exact count),
    /// surviving restarts on a persisted service.
    pub fn dead_letters(&self) -> Vec<QuarantineEntry> {
        self.health.lock().dead_letters.to_vec()
    }

    /// Pin the current generation — a cheap `Arc` clone. Hold it to read a
    /// consistent dataset/forum/frame/corpus view across concurrent
    /// appends.
    pub fn snapshot(&self) -> Arc<Generation> {
        self.current.read().clone()
    }

    /// Epoch of the generation currently serving queries.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Signal counts by family `(implicit, explicit, social)` — the paper's
    /// point in one tuple: implicit signals dwarf explicit ones. Counted
    /// from the current generation's records — one implicit signal per
    /// session, one explicit per rated session, one social per post — so
    /// each count traces to the committed records behind it.
    pub fn signal_counts(&self) -> (usize, usize, usize) {
        let generation = self.snapshot();
        let rated = generation
            .sessions
            .iter()
            .filter(|s| s.rating.is_some())
            .count();
        (generation.sessions.len(), rated, generation.forum.len())
    }

    /// Answer-cache hits of the current generation.
    pub fn cache_hits(&self) -> usize {
        self.snapshot().cache_hits()
    }

    /// Answer-cache misses of the current generation (distinct queries
    /// seen this epoch).
    pub fn cache_misses(&self) -> usize {
        self.snapshot().cache_misses()
    }

    /// Answer one query against the current generation. An append
    /// committing mid-query does not disturb the computation — the query
    /// holds its generation snapshot; the *next* query sees the new epoch.
    pub fn query(&self, query: &Query) -> Result<Answer, UsaasError> {
        self.snapshot().query(query)
    }

    /// Answer one query and annotate it with the service's health — the
    /// degraded-serving contract: while a source's breaker is open the
    /// answer is still served (from already-ingested signals), and the
    /// annotation says it may be stale.
    pub fn query_with_health(&self, query: &Query) -> (Result<Answer, UsaasError>, ServiceHealth) {
        (self.query(query), self.health())
    }

    /// Current health/staleness annotation.
    pub fn health(&self) -> ServiceHealth {
        // Journal stats take the persist lock; grab them (and release)
        // before the health lock. `ingest_append` holds persist while
        // pushing a journal-failure warning into health, so taking them in
        // the other order here could deadlock.
        let journal = self.journal_stats();
        let epoch = self.epoch();
        let totals = self.health.lock();
        ServiceHealth {
            epoch,
            open_breakers: totals.open_breakers.clone(),
            quarantined_total: totals.quarantined,
            unfed_total: totals.unfed,
            breaker_trips_total: totals.breaker_trips,
            recovery_warnings: totals.recovery_warnings.to_vec(),
            dead_letters_dropped: totals.dead_letters.dropped(),
            recovery_warnings_dropped: totals.recovery_warnings.dropped(),
            journal,
        }
    }

    /// True when the service is backed by a snapshot + journal directory.
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// Write-ahead-journal observability: bytes on disk, live record
    /// count, oldest live seq, and compaction counters. `None` on an
    /// in-memory service.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        Some(self.persist.as_ref()?.lock().wal.stats())
    }

    /// Compact the write-ahead journal: drop every record already covered
    /// by the **oldest retained full snapshot** and rewrite the survivors
    /// byte-verbatim (atomic tmp → fsync → rename). Recovery stays exactly
    /// as safe as before the pass — every snapshot/diff candidate that can
    /// still be loaded replays only records newer than its own coverage,
    /// and the oldest retained full is the floor of that set, so nothing a
    /// fallback could ever need is dropped. A no-op report when there is no
    /// snapshot yet or nothing qualifies.
    ///
    /// Holds the append lock for the duration (same order as
    /// [`UsaasService::checkpoint`]): the rewrite replaces the journal
    /// inode, so the append handle is reopened before the lock is
    /// released — a concurrent append can never write into the unlinked
    /// file.
    pub fn compact_journal(&self) -> Result<CompactionReport, PersistError> {
        let Some(persist) = &self.persist else {
            return Err(PersistError::NotPersistent);
        };
        let _appending = self.append_lock.lock();
        let mut state = persist.lock();
        let seqs = persist::snapshot_seqs(state.wal.dir())?;
        // `snapshot_seqs` is descending: the last entry is the oldest
        // retained full snapshot — the compaction safety bound.
        let Some(&safe_seq) = seqs.last() else {
            return Ok(CompactionReport::default());
        };
        state.wal.compact(safe_seq)
    }

    /// Answer a batch of queries concurrently: the batch splits into
    /// contiguous runs, one scoped worker per run, at most `workers` of
    /// them and no more than the machine has cores; results come back in
    /// input order.
    ///
    /// The whole batch pins **one** generation snapshot, so its answers are
    /// mutually consistent even if an append commits mid-batch, and the
    /// workers share that generation's caches — a batch containing both
    /// `OutageTimeline` and `CrossNetwork` runs the outage detector once,
    /// not twice. A panic inside a worker is re-raised here with its
    /// original payload.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Result<Answer, UsaasError>> {
        let generation = self.snapshot();
        analytics::par::par_map_ranges(queries.len(), self.workers, 1, |range| {
            queries[range]
                .iter()
                .map(|q| generation.query(q))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Ingest `sources` through the resilient streaming engine
    /// (retry/backoff, circuit breakers, quarantine) and commit every
    /// accepted item as a new generation — append-while-serving.
    ///
    /// Workers normalise every item (catching poison pills) while queries
    /// racing the append keep serving their pinned snapshot. Once the run
    /// finishes, accepted items are folded into a successor generation
    /// (session and post chunks appended, views advanced, corpus grown
    /// incrementally when already built) whose fresh answer cache makes
    /// subsequent queries see the appended data. Quarantined or unfed items
    /// and open breakers are accumulated into [`UsaasService::health`].
    /// On a persisted service, the run is journaled **before** the
    /// in-memory commit — one durable record carrying the accepted items,
    /// the quarantined dead-letters, and the health deltas — so a crash at
    /// any later point replays the batch on the next open. A journal-write
    /// failure **aborts the commit**: the prior generation (with its
    /// answer cache and materialized views) keeps serving, memory and disk
    /// stay consistent, and the failure is reported through
    /// `ServiceHealth::recovery_warnings` so the caller can retry the
    /// batch once the journal is writable again. Nothing of the aborted
    /// batch is kept anywhere, so [`UsaasService::signal_counts`] does not
    /// count it either.
    pub fn ingest_append(
        &self,
        sources: Vec<Box<dyn Source + '_>>,
        cfg: &IngestConfig,
    ) -> IngestReport {
        // Appends are serialised end-to-end so the journal order equals
        // the commit order. Queries never take this lock.
        let _appending = self.append_lock.lock();
        let (report, accepted) = ingest::ingest_stream_collect(sources, cfg);
        let mut sessions: Vec<SessionRecord> = Vec::new();
        let mut posts: Vec<Post> = Vec::new();
        for item in accepted {
            match item {
                RawItem::Session(s) => sessions.push(*s),
                RawItem::Post(p) => posts.push(*p),
                // Poison pills are quarantined by the engine, never
                // accepted.
                RawItem::Poison(_) => {}
            }
        }
        let mut will_commit = !sessions.is_empty() || !posts.is_empty();
        if let Some(persist) = &self.persist {
            let mut state = persist.lock();
            let epoch_after = self.snapshot().epoch + u64::from(will_commit);
            let (record, written) = state.wal.append(epoch_after, sessions, posts, &report);
            if let Err(e) = written {
                // No durable record → no in-memory commit. Committing
                // anyway would serve answers from state a restart cannot
                // reproduce; aborting keeps the prior epoch's generation —
                // views, answer cache and all — live and consistent with
                // disk.
                will_commit = false;
                self.health.lock().recovery_warnings.push(format!(
                    "journal append for seq {} failed; batch not committed so memory matches \
                     disk — retry after the journal recovers: {e}",
                    record.seq
                ));
            }
            sessions = record.sessions;
            posts = record.posts;
        }
        if will_commit {
            self.commit_locked(sessions, posts);
        }
        self.health.lock().note_report(&report);
        report
    }

    /// Append trusted in-memory batches — the convenience path over
    /// [`UsaasService::ingest_append`] with default resilience settings.
    pub fn append_batch(&self, sessions: Vec<SessionRecord>, posts: Vec<Post>) -> IngestReport {
        let cfg = IngestConfig::with_workers(self.workers);
        self.ingest_append(trusted_sources(sessions, posts), &cfg)
    }

    /// Fold accepted items into a successor generation and swap it in.
    /// The caller must hold `append_lock`: serialised appends mean two
    /// racing commits cannot both clone the same base generation and lose
    /// one delta, and the journal order matches the commit order.
    fn commit_locked(&self, sessions: Vec<SessionRecord>, posts: Vec<Post>) {
        let base = self.snapshot();
        let posts_before = base.forum.len();
        let corpus_cell = OnceLock::new();
        if let Some(existing) = base.social_corpus.get() {
            if posts.is_empty() {
                // Nothing text-side changed: the successor shares the
                // corpus by reference.
                let _ = corpus_cell.set(Arc::clone(existing));
            } else {
                // Re-materialise the corpus only if this generation ever
                // built one; extension preserves existing ids, so it is
                // bit-identical to rebuilding over the grown forum.
                let mut corpus = TokenCorpus::clone(existing);
                corpus.extend_with(posts.len(), self.workers, |i, emit| {
                    for part in posts[i].text_parts() {
                        emit(part);
                    }
                });
                let _ = corpus_cell.set(Arc::new(corpus));
            }
        }
        let date_range = merged_range(
            std::iter::once(base.date_range).chain(posts.iter().map(|p| Some((p.date, p.date)))),
        );
        // Structural sharing: the posts are never copied — the successor
        // holds the same Arc'd chunks plus one chunk for this batch (none
        // for a post-free batch).
        let forum = base.forum.extended(posts);
        // Carry the base generation's materialized views forward, advanced
        // by exactly this batch — an O(delta) fold per view instead of the
        // full-corpus recompute a fresh generation would otherwise pay on
        // first query; a view the batch does not touch is shared as is.
        // Views are fed the raw delta records, so the commit never touches
        // the columnar frame: the successor's frame cell starts empty and
        // materialises from the shared chunks only if a full-scan query
        // actually needs it.
        let views = base.views.advanced(&ViewDelta {
            sessions: &sessions,
            rows_before: base.sessions.len(),
            forum: &forum,
            posts: forum.tail(posts_before),
            date_range,
            corpus: corpus_cell.get().map(Arc::as_ref),
        });
        // Structural sharing: the session records themselves are never
        // copied — the new generation holds the same Arc'd chunks plus one
        // chunk for this batch.
        let session_chunks = base.sessions.extended(sessions);
        let next = Generation::new(
            base.epoch + 1,
            session_chunks,
            forum,
            date_range,
            self.workers,
            corpus_cell,
            views,
        );
        *self.current.write() = Arc::new(next);
    }
}

/// The sources an `append_batch` feeds a trusted in-memory batch through:
/// one per non-empty record kind, so an empty kind adds no source health.
pub(crate) fn trusted_sources(
    sessions: Vec<SessionRecord>,
    posts: Vec<Post>,
) -> Vec<Box<dyn Source>> {
    let mut sources: Vec<Box<dyn Source>> = Vec::new();
    if !sessions.is_empty() {
        let items: Vec<RawItem> = sessions
            .into_iter()
            .map(|s| RawItem::Session(Box::new(s)))
            .collect();
        sources.push(Box::new(ItemSource::new("append-sessions", items)));
    }
    if !posts.is_empty() {
        let items: Vec<RawItem> = posts
            .into_iter()
            .map(|p| RawItem::Post(Box::new(p)))
            .collect();
        sources.push(Box::new(ItemSource::new("append-posts", items)));
    }
    sources
}

/// A single service behind the daemon: one persist unit (its own
/// snapshot + journal), no separate root log.
impl crate::daemon::ServeTarget for UsaasService {
    type Health = ServiceHealth;

    fn ingest_append<'a>(
        &self,
        sources: Vec<Box<dyn Source + 'a>>,
        cfg: &IngestConfig,
    ) -> IngestReport {
        UsaasService::ingest_append(self, sources, cfg)
    }

    fn epoch(&self) -> u64 {
        UsaasService::epoch(self)
    }

    fn is_persistent(&self) -> bool {
        UsaasService::is_persistent(self)
    }

    fn health(&self) -> ServiceHealth {
        UsaasService::health(self)
    }

    fn journal_stats(&self) -> Option<JournalStats> {
        UsaasService::journal_stats(self)
    }

    fn persist_units(&self) -> usize {
        1
    }

    fn checkpoint_unit(&self, _unit: usize) -> Result<PathBuf, PersistError> {
        self.checkpoint()
    }

    fn compact_unit(&self, _unit: usize) -> Result<CompactionReport, PersistError> {
        self.compact_journal()
    }

    fn compact_root(&self) -> Option<Result<CompactionReport, PersistError>> {
        None
    }
}

/// Merge date ranges into their `(min, max)` — the same min/max fold
/// [`Forum::date_range`] runs, so folding a forum's range with more posts'
/// dates equals the range of the combined forum.
pub(crate) fn merged_range(
    ranges: impl IntoIterator<Item = Option<(Date, Date)>>,
) -> Option<(Date, Date)> {
    ranges
        .into_iter()
        .flatten()
        .reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b)))
}

/// Rough 10°-latitude band of a country's population centre.
pub fn country_lat_band(country: &str) -> usize {
    match country {
        "MX" | "BR" => 2,
        "US" | "AU" | "CL" | "JP" => 3,
        "NZ" | "FR" | "IT" | "ES" | "PT" | "CH" | "AT" => 4,
        "CA" | "UK" | "DE" | "NL" | "BE" | "IE" | "PL" | "DK" => 5,
        "SE" | "NO" | "FI" => 6,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analytics::time::Date;
    use conference::dataset::{generate, DatasetConfig};
    use social::generator::{generate as gen_forum, ForumConfig};
    use std::sync::OnceLock;

    fn service() -> &'static UsaasService {
        static S: OnceLock<UsaasService> = OnceLock::new();
        S.get_or_init(|| {
            let mut cfg = DatasetConfig::small(2500, 33);
            // Feed the ground-truth major outages into the telemetry window.
            cfg.leo_outage_calendar = starlink::outages::major_outages()
                .into_iter()
                .map(|o| (o.date, o.severity))
                .collect();
            let dataset = generate(&cfg);
            let forum = gen_forum(&ForumConfig {
                authors: 3000,
                ..ForumConfig::default()
            });
            UsaasService::build(dataset, forum, 4)
        })
    }

    #[test]
    fn signal_counts_show_the_sampling_gap() {
        let (implicit, explicit, social) = service().signal_counts();
        assert!(implicit > 1000);
        assert!(social > 10_000);
        assert!(explicit > 0);
        // The paper's motivation: explicit feedback is orders of magnitude
        // scarcer than implicit signals.
        assert!(
            implicit > 50 * explicit,
            "implicit {implicit} vs explicit {explicit}"
        );
    }

    #[test]
    fn a_batch_whose_journal_append_fails_is_not_counted() {
        let dir = std::env::temp_dir().join(format!("usaas-svc-{}-abort", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = generate(&DatasetConfig::small(20, 4));
        let svc = UsaasService::build_persistent(dataset, Forum::default(), 1, &dir).unwrap();
        let before = svc.signal_counts();
        svc.persist.as_ref().unwrap().lock().wal.journal =
            Journal::read_only(&dir.join(JOURNAL_FILE)).unwrap();
        let extra = generate(&DatasetConfig::small(5, 6)).sessions;
        let report = svc.append_batch(extra, Vec::new());
        assert!(report.stored > 0, "the batch was normalised");
        assert_eq!(svc.epoch(), 0, "the commit was aborted");
        assert_eq!(svc.signal_counts(), before);
        assert!(svc.health().recovery_warnings[0].contains("batch not committed"));
        drop(svc);
        let reopened = UsaasService::open_or_recover(&dir, 1).unwrap();
        assert_eq!(reopened.signal_counts(), before, "a restart agrees");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_query_answers() {
        let s = service();
        let queries = [
            Query::EngagementCurve {
                sweep: NetworkMetric::LatencyMs,
                engagement: EngagementMetric::MicOn,
                bins: 6,
            },
            Query::CompoundingGrid {
                engagement: EngagementMetric::Presence,
                bins: 4,
            },
            Query::PlatformSensitivity {
                sweep: NetworkMetric::LossPct,
                engagement: EngagementMetric::Presence,
            },
            Query::MosCorrelation,
            Query::OutageTimeline,
            Query::SentimentPeaks { k: 3 },
            Query::SpeedTrend,
            Query::EmergingTopics,
            Query::CrossNetwork {
                access: AccessType::SatelliteLeo,
            },
            Query::DeploymentAdvice,
        ];
        for q in &queries {
            let answer = s.query(q);
            assert!(
                answer.is_ok(),
                "query {q:?} failed: {:?}",
                answer.err().map(|e| e.to_string())
            );
        }
    }

    #[test]
    fn cross_network_join_corroborates_outages() {
        let s = service();
        let Answer::CrossNetwork(report) = s
            .query(&Query::CrossNetwork {
                access: AccessType::SatelliteLeo,
            })
            .unwrap()
        else {
            panic!("wrong answer type");
        };
        assert!(report.sessions > 50, "LEO sessions {}", report.sessions);
        assert!(report.mean_presence > 0.0);
        // On socially-detected outage days, LEO users' presence collapses —
        // the implicit signal corroborates the social one.
        if let Some(outage_presence) = report.outage_day_presence {
            assert!(
                outage_presence < report.mean_presence - 5.0,
                "outage-day presence {outage_presence} vs overall {}",
                report.mean_presence
            );
        } else {
            panic!("expected outage days inside the telemetry window");
        }
        assert!(report.outage_days_joined >= 1);
    }

    #[test]
    fn deployment_advice_is_ranked_and_complete() {
        let s = service();
        let Answer::Deployment(recs) = s.query(&Query::DeploymentAdvice).unwrap() else {
            panic!("wrong answer type");
        };
        assert_eq!(recs.len(), 5);
        assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn cross_network_requires_data() {
        // A dataset with zero satellite users cannot answer the query.
        let dataset = conference::records::CallDataset::default();
        let forum = gen_forum(&ForumConfig {
            authors: 200,
            end: Date::from_ymd(2021, 1, 20).unwrap(),
            ..ForumConfig::default()
        });
        let svc = UsaasService::build(dataset, forum, 2);
        assert!(svc
            .query(&Query::CrossNetwork {
                access: AccessType::SatelliteLeo
            })
            .is_err());
    }

    #[test]
    fn country_bands_cover_the_author_list() {
        for c in social::authors::COUNTRIES {
            assert!(country_lat_band(c) < 9);
        }
    }

    #[test]
    fn speed_trend_survives_a_shuffled_forum() {
        // Regression: the month window used to come from
        // `posts.first()/last()`, which on a shuffled corpus yields an
        // arbitrary (possibly inverted) range — the query then errored or
        // silently dropped months. The window must be order-independent.
        use rand::seq::SliceRandom;
        use rand::{rngs::StdRng, SeedableRng};
        let cfg = ForumConfig {
            authors: 1500,
            ..ForumConfig::default()
        };
        let sorted = gen_forum(&cfg);
        let mut shuffled = sorted.clone();
        shuffled.posts.shuffle(&mut StdRng::seed_from_u64(0xD1CE));
        assert_ne!(
            sorted.posts, shuffled.posts,
            "shuffle must change the order"
        );

        let dataset = generate(&DatasetConfig::small(300, 21));
        let a = UsaasService::build(dataset.clone(), sorted, 2);
        let b = UsaasService::build(dataset, shuffled, 2);
        let Answer::Speeds(sa) = a.query(&Query::SpeedTrend).unwrap() else {
            panic!("wrong answer type");
        };
        let Answer::Speeds(sb) = b.query(&Query::SpeedTrend).unwrap() else {
            panic!("wrong answer type");
        };
        assert_eq!(sa.len(), sb.len(), "same month coverage either way");
        assert!(!sa.is_empty());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.month, y.month);
            assert_eq!(x.reports, y.reports);
        }
    }

    #[test]
    fn query_batch_matches_sequential_answers() {
        let s = service();
        let queries = vec![
            Query::EngagementCurve {
                sweep: NetworkMetric::JitterMs,
                engagement: EngagementMetric::CamOn,
                bins: 5,
            },
            Query::CompoundingGrid {
                engagement: EngagementMetric::Presence,
                bins: 4,
            },
            Query::MosCorrelation,
            Query::OutageTimeline,
            Query::SentimentPeaks { k: 3 },
            Query::SpeedTrend,
            Query::CrossNetwork {
                access: AccessType::SatelliteLeo,
            },
            Query::DeploymentAdvice,
        ];
        // The second input is several times longer than the service's
        // four workers, so each worker answers a run of queries.
        let long: Vec<Query> = queries
            .iter()
            .cycle()
            .take(3 * queries.len())
            .cloned()
            .collect();
        for queries in [&queries, &long] {
            let batch = s.query_batch(queries);
            assert_eq!(batch.len(), queries.len());
            for (q, parallel) in queries.iter().zip(&batch) {
                let sequential = s.query(q);
                assert_eq!(
                    format!("{parallel:?}"),
                    format!("{sequential:?}"),
                    "batch answer for {q:?} must match the sequential one"
                );
            }
        }
    }

    #[test]
    fn query_batch_of_nothing_is_empty() {
        assert!(service().query_batch(&[]).is_empty());
    }

    /// A small service built fresh, so cache counters start at zero.
    fn fresh_service() -> UsaasService {
        let dataset = generate(&DatasetConfig::small(600, 11));
        let forum = gen_forum(&ForumConfig {
            authors: 400,
            ..ForumConfig::default()
        });
        UsaasService::build(dataset, forum, 2)
    }

    #[test]
    fn repeated_queries_in_a_batch_hit_the_cache() {
        let s = fresh_service();
        let q = Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
            bins: 6,
        };
        let batch = s.query_batch(&[q.clone(), q.clone()]);
        assert_eq!(batch.len(), 2);
        assert_eq!(
            s.cache_misses(),
            1,
            "two identical queries must compute once"
        );
        assert_eq!(s.cache_hits(), 1, "the repeat must be served from cache");
        let (Ok(Answer::Curve(a)), Ok(Answer::Curve(b))) = (&batch[0], &batch[1]) else {
            panic!("wrong answer types");
        };
        assert_eq!(a, b, "cached repeat must equal the computed answer");
        // A third, sequential repeat also hits.
        let _ = s.query(&q).unwrap();
        assert_eq!(s.cache_misses(), 1);
        assert_eq!(s.cache_hits(), 2);
    }

    #[test]
    fn differing_parameters_do_not_false_share() {
        let s = fresh_service();
        let coarse = Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
            bins: 4,
        };
        let fine = Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
            bins: 8,
        };
        let swept = Query::EngagementCurve {
            sweep: NetworkMetric::LossPct,
            engagement: EngagementMetric::Presence,
            bins: 4,
        };
        let Answer::Curve(a) = s.query(&coarse).unwrap() else {
            panic!("wrong answer type");
        };
        let Answer::Curve(b) = s.query(&fine).unwrap() else {
            panic!("wrong answer type");
        };
        let Answer::Curve(c) = s.query(&swept).unwrap() else {
            panic!("wrong answer type");
        };
        assert_eq!(s.cache_misses(), 3, "three distinct keys, three computes");
        assert_eq!(s.cache_hits(), 0);
        assert_ne!(a.xs.len(), b.xs.len(), "bin counts must differ");
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different sweeps must not share an answer"
        );
    }

    #[test]
    fn errors_are_cached_like_answers() {
        // Zero sessions → CrossNetwork errors; the error itself is memoized
        // so the repeat does not recompute.
        let svc = UsaasService::build(
            conference::records::CallDataset::default(),
            gen_forum(&ForumConfig {
                authors: 150,
                end: Date::from_ymd(2021, 1, 15).unwrap(),
                ..ForumConfig::default()
            }),
            2,
        );
        let q = Query::CrossNetwork {
            access: AccessType::SatelliteLeo,
        };
        assert!(svc.query(&q).is_err());
        assert!(svc.query(&q).is_err());
        assert_eq!(svc.cache_misses(), 1);
        assert_eq!(svc.cache_hits(), 1);
    }

    #[test]
    fn outage_detections_are_cached_once() {
        let s = service();
        let generation = s.snapshot();
        let first = generation.outage_detections().unwrap().as_ptr();
        let _ = s.query(&Query::OutageTimeline).unwrap();
        let _ = s
            .query(&Query::CrossNetwork {
                access: AccessType::SatelliteLeo,
            })
            .unwrap();
        let second = generation.outage_detections().unwrap().as_ptr();
        assert_eq!(
            first, second,
            "repeat queries must reuse the cached detection pass"
        );
    }

    #[test]
    fn append_bumps_the_epoch_and_serves_new_data() {
        let s = fresh_service();
        let baseline_sessions = s.snapshot().sessions().len();
        let q = Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
            bins: 6,
        };
        let before = s.query(&q).unwrap();
        assert_eq!(s.epoch(), 0);
        let delta = generate(&DatasetConfig::small(150, 77));
        let added = delta.len();
        let report = s.append_batch(delta.sessions, Vec::new());
        assert_eq!(report.fed, added);
        assert!(!report.is_degraded());
        assert_eq!(s.epoch(), 1, "a committed append bumps the epoch");
        let generation = s.snapshot();
        assert_eq!(generation.sessions().len(), baseline_sessions + added);
        assert_eq!(generation.frame().len(), baseline_sessions + added);
        let after = s.query(&q).unwrap();
        assert_ne!(
            format!("{before:?}"),
            format!("{after:?}"),
            "the appended sessions must change the answer"
        );
        assert!(!s.health().is_degraded());
    }

    /// Posts copied from the forum's tail, re-dated to the day after its
    /// last day so every text view advances instead of dropping.
    fn later_posts(g: &Generation, n: usize) -> Vec<Post> {
        let (_, last) = g.date_range().expect("non-empty forum");
        g.forum()
            .iter()
            .skip(g.forum().len() - n)
            .map(|p| Post {
                date: last.offset(1),
                ..p.clone()
            })
            .collect()
    }

    /// True when `key` is installed in both generations as the same `Arc`.
    fn shares_view(a: &Generation, b: &Generation, key: ViewKey) -> bool {
        match (a.views.get(&key), b.views.get(&key)) {
            (Some(x), Some(y)) => Arc::ptr_eq(&x, &y),
            _ => false,
        }
    }

    /// True when `next` holds every chunk of `base`, in order, as the same
    /// `Arc`s.
    fn shares_chunks<T>(base: &Chunks<T>, next: &Chunks<T>) -> bool {
        base.chunks().len() <= next.chunks().len()
            && base
                .chunks()
                .iter()
                .zip(next.chunks())
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The carried per-post memos of a generation: the sentiment view's
    /// score chain and the speed-trend view's shot chain.
    fn memo_chains(
        g: &Generation,
    ) -> (
        Chunks<sentiment::SentimentScores>,
        Chunks<Option<crate::fulcrum::DocShot>>,
    ) {
        let scores = match g.views.get(&ViewKey::Sentiment).as_deref() {
            Some(View::Sentiment(v)) => v.scores().clone(),
            _ => panic!("the sentiment view is installed"),
        };
        let shots = match g.views.get(&ViewKey::SpeedTrend).as_deref() {
            Some(View::SpeedTrend(v)) => v.shots().clone(),
            _ => panic!("the speed-trend view is installed"),
        };
        (scores, shots)
    }

    #[test]
    fn post_free_commits_share_the_text_side_and_post_commits_append_one_chunk() {
        let s = UsaasService::build(
            generate(&DatasetConfig::small(300, 5)),
            gen_forum(&ForumConfig {
                authors: 150,
                end: Date::from_ymd(2021, 2, 15).unwrap(),
                ..ForumConfig::default()
            }),
            2,
        );
        let curve = Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
            bins: 6,
        };
        let curve_key = view_key_of(&curve).unwrap();
        let text_keys = [
            ViewKey::Sentiment,
            ViewKey::Outage,
            ViewKey::Deployment,
            ViewKey::SpeedTrend,
            ViewKey::EmergingTopics,
        ];
        for q in [
            curve,
            Query::SentimentPeaks { k: 3 },
            Query::OutageTimeline,
            Query::DeploymentAdvice,
            Query::SpeedTrend,
            Query::EmergingTopics,
        ] {
            let _ = s.query(&q);
        }
        let sessions = |seed| generate(&DatasetConfig::small(40, seed)).sessions;

        // Sessions only: forum, corpus and every text view are shared;
        // the session view advances.
        let base = s.snapshot();
        assert!(text_keys.iter().all(|k| base.views.get(k).is_some()));
        s.append_batch(sessions(6), Vec::new());
        let next = s.snapshot();
        assert_eq!(next.epoch(), base.epoch() + 1);
        assert!(shares_chunks(&base.forum, &next.forum));
        assert_eq!(next.forum.chunks().len(), base.forum.chunks().len());
        assert!(Arc::ptr_eq(
            base.social_corpus.get().unwrap(),
            next.social_corpus.get().unwrap()
        ));
        for key in text_keys {
            assert!(shares_view(&base, &next, key), "{key:?} must be shared");
        }
        assert!(next.views.get(&curve_key).is_some());
        assert!(!shares_view(&base, &next, curve_key));
        assert_eq!(next.date_range(), base.date_range());

        // Posts only, then sessions with posts: every earlier post chunk
        // is shared and the batch is the one new last chunk; the corpus is
        // not shared, every text view advances (its per-post memo likewise
        // shares every earlier chunk and appends one), and the folded date
        // range equals a scan of the extended forum.
        for (mixed, seed) in [(false, 7), (true, 8)] {
            let base = s.snapshot();
            let batch = if mixed { sessions(seed) } else { Vec::new() };
            let posts = later_posts(&base, 3);
            s.append_batch(batch, posts.clone());
            let next = s.snapshot();
            assert_eq!(next.epoch(), base.epoch() + 1);
            assert!(shares_chunks(&base.forum, &next.forum));
            assert_eq!(next.forum.chunks().len(), base.forum.chunks().len() + 1);
            assert_eq!(next.forum.chunks().last().unwrap().as_slice(), posts);
            assert_eq!(next.forum().len(), base.forum().len() + 3);
            let (base_scores, base_shots) = memo_chains(&base);
            let (next_scores, next_shots) = memo_chains(&next);
            assert!(shares_chunks(&base_scores, &next_scores));
            assert_eq!(next_scores.chunks().len(), base_scores.chunks().len() + 1);
            assert_eq!(next_scores.len(), next.forum().len());
            assert!(shares_chunks(&base_shots, &next_shots));
            assert_eq!(next_shots.chunks().len(), base_shots.chunks().len() + 1);
            assert_eq!(next_shots.len(), next.forum().len());
            assert!(!Arc::ptr_eq(
                base.social_corpus.get().unwrap(),
                next.social_corpus.get().unwrap()
            ));
            for key in text_keys {
                assert!(next.views.get(&key).is_some(), "{key:?} must advance");
                assert!(
                    !shares_view(&base, &next, key),
                    "{key:?} must not be shared"
                );
            }
            assert_eq!(shares_view(&base, &next, curve_key), !mixed);
            assert_eq!(next.date_range(), next.forum().date_range());
            assert_ne!(next.date_range(), base.date_range());
        }

        // An empty batch and a fully quarantined one commit nothing.
        let base = s.snapshot();
        s.append_batch(Vec::new(), Vec::new());
        s.ingest_append(
            vec![Box::new(ItemSource::new(
                "pills",
                vec![RawItem::Poison("pill"), RawItem::Poison("pill")],
            ))],
            &IngestConfig::with_workers(2),
        );
        assert!(Arc::ptr_eq(&base, &s.snapshot()));
    }

    #[test]
    fn bounded_log_evicts_oldest_and_counts_drops() {
        let mut log: BoundedLog<usize> = BoundedLog::new(3);
        for i in 0..5 {
            log.push(i);
        }
        assert_eq!(log.to_vec(), vec![2, 3, 4], "oldest entries evicted");
        assert_eq!(log.dropped(), 2);
        log.extend(vec![5, 6]);
        assert_eq!(log.to_vec(), vec![4, 5, 6]);
        assert_eq!(log.dropped(), 4);
        // replace() keeps the tail and counts the overflow as drops.
        log.replace((0..10).collect());
        assert_eq!(log.to_vec(), vec![7, 8, 9]);
        assert_eq!(log.dropped(), 7);
        log.set_dropped(42);
        assert_eq!(log.dropped(), 42);
    }

    #[test]
    fn dead_letter_ring_is_bounded_while_totals_stay_exact() {
        let s = fresh_service();
        let pills = DEAD_LETTER_CAP + 137;
        let items: Vec<RawItem> = (0..pills).map(|_| RawItem::Poison("pill")).collect();
        let report = s.ingest_append(
            vec![Box::new(ItemSource::new("pill-feed", items))],
            &IngestConfig::with_workers(2),
        );
        assert_eq!(report.quarantined.len(), pills);
        let health = s.health();
        assert_eq!(
            health.quarantined_total, pills,
            "the total keeps exact count past the ring cap"
        );
        assert_eq!(
            s.dead_letters().len(),
            DEAD_LETTER_CAP,
            "the retained ring is capped"
        );
        assert_eq!(health.dead_letters_dropped, pills - DEAD_LETTER_CAP);
    }
}

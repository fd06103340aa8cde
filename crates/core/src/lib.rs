//! # usaas — User Signals as-a-Service
//!
//! The paper's primary contribution (§5): a framework that ingests implicit
//! user actions, explicit feedback, and social-media posts; correlates them
//! with network conditions; and answers operator queries. This crate wires
//! the substrates together and implements every analysis behind the paper's
//! figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod annotate;
pub mod bias;
pub mod breaker;
pub mod cache;
pub mod chunks;
pub mod cluster;
pub mod correlate;
pub mod daemon;
pub mod digest;
pub mod early;
pub mod emerging;
pub mod fault;
pub mod frame;
pub mod fulcrum;
pub mod ingest;
#[doc(hidden)]
pub mod oracle;
pub mod outage;
pub mod persist;
pub mod predict;
pub mod report;
pub mod service;
pub mod signals;
pub mod source;
pub mod store;
pub mod views;

pub use advisor::{Intervention, TrafficAdvisor};
pub use annotate::{AnnotatedPeak, PeakAnnotator};
pub use bias::{extremity_bias, geo_corrected_polarity, ExtremityBias};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use cache::MemoCache;
pub use chunks::{Chunks, PostRead};
pub use cluster::{ClusterHealth, PartitionedService, CLUSTER_META};
pub use correlate::{
    compounding_grid, compounding_grid_frame, confounder_report, engagement_curve,
    engagement_curve_frame, mos_by_engagement, mos_by_engagement_frame, mos_correlations,
    mos_correlations_frame, platform_curves, platform_curves_frame, ConfounderReport, Grid2d,
};
pub use daemon::{
    adaptive_budget, ewma_ms, AdaptiveTick, AdmissionPolicy, ClusterDaemon, ClusterDaemonHealth,
    Daemon, DaemonConfig, DaemonHealth, DrainReport, FeedStatus, RejectReason, ServeTarget,
    SubmitOutcome, TakeSource, TickReport,
};
pub use digest::{Digest, DigestBuilder, RegimeChange, TestedGap};
pub use early::{EarlyQualityMonitor, EarlyScoreWeights, HorizonSkill};
pub use emerging::{EmergingTopic, EmergingTopicMiner};
pub use fault::{Clock, Fault, FaultInjector, FaultPlan, VirtualClock, WallClock};
pub use frame::SessionFrame;
pub use fulcrum::{Fig7Series, FulcrumAnalysis, MonthlyPoint};
pub use ingest::{
    ingest_all, ingest_stream, IngestConfig, IngestReport, PanicPolicy, QuarantineEntry,
    QuarantineReason, SourceHealth,
};
pub use outage::{DetectedOutage, DetectionScore, OutageDetector};
pub use persist::{
    journal_record_offsets, CompactionReport, JournalStats, PersistError, JOURNAL_FILE,
};
pub use predict::{
    train_and_evaluate, train_and_evaluate_frame, Evaluation, FeatureSet, MosPredictor,
};
pub use service::{
    Answer, CrossNetworkReport, Generation, Query, ServiceHealth, SessionChunks, UsaasError,
    UsaasService, DEAD_LETTER_CAP, RECOVERY_WARNING_CAP,
};
pub use signals::{NetworkHint, Payload, Signal, SignalKind};
pub use source::{ItemSource, PostSource, RawItem, SessionSource, Source, SourceError};
pub use store::SignalStore;
pub use views::{View, ViewKey, ViewSet};

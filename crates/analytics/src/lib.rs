//! # analytics
//!
//! Statistics, civil-date arithmetic, and distribution-sampling substrate for
//! the `user-signals` workspace.
//!
//! The paper's pipelines (HotNets '23, *Don't Forget the User*) are built
//! almost entirely out of a small set of statistical primitives: per-session
//! aggregation (mean / median / P95), metric binning, correlation
//! (Pearson / Spearman), regression (the §5 MOS predictor), daily time-series
//! with peak detection (Fig. 5/6), and uniform subsampling (the Fig. 7
//! 95 % / 90 % stability check). This crate implements all of them from
//! scratch on top of `std` + `rand`, so the rest of the workspace stays free
//! of heavyweight numeric dependencies. [`par`] is the one chunk-parallel
//! map (scoped `crossbeam` threads) every parallel scan in the workspace
//! shares.
//!
//! Nothing in here is domain-specific; the domain crates (`netsim`,
//! `conference`, `social`, …) compose these primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod changepoint;
pub mod correlation;
pub mod descriptive;
pub mod dist;
pub mod error;
pub mod histogram;
pub mod kernels;
pub mod matrix;
pub mod par;
pub mod regression;
pub mod sampling;
pub mod stats_tests;
pub mod time;
pub mod timeseries;

pub use binning::{BinSpec, BinnedCurve, Binner};
pub use changepoint::{binary_segmentation, most_prominent_shift, ChangePoint};
pub use correlation::{kendall_tau, pearson, spearman};
pub use descriptive::{desc_nan_last, mean, median, percentile, stddev, variance, Summary};
pub use dist::{Dist, Sampler};
pub use error::AnalyticsError;
pub use histogram::Histogram;
pub use kernels::{BinAccum, RowMask};
pub use matrix::Matrix;
pub use regression::{LinearModel, LogisticModel};
pub use sampling::{bootstrap_ci, subsample};
pub use stats_tests::{mann_whitney_u, welch_t_test, TestResult};
pub use time::{Date, Month, Weekday};
pub use timeseries::{DailySeries, Peak};

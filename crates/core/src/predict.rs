//! The §5 MOS predictor.
//!
//! *"We are currently also using AI/ML techniques to predict MOS scores from
//! user engagement and network conditions for MS Teams (omitted for
//! brevity)."* — we build it. A ridge-regularised linear model over
//! engagement (Presence / Cam On / Mic On) and network means (latency, loss,
//! jitter, bandwidth) is trained on the rated sliver and evaluated against
//! two baselines: predict-the-mean, and a network-only model — quantifying
//! exactly the paper's claim that engagement carries signal beyond the raw
//! network metrics.

use crate::frame::SessionFrame;
use analytics::kernels;
use analytics::regression::{mae, rmse, LinearModel};
use analytics::AnalyticsError;
use conference::records::{CallDataset, EngagementMetric, NetworkMetric, SessionRecord};
use serde::{Deserialize, Serialize};

/// Feature sets the predictor can use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureSet {
    /// Network means only.
    NetworkOnly,
    /// Engagement metrics only.
    EngagementOnly,
    /// Both (the paper's proposal).
    Full,
}

pub(crate) fn features(session: &SessionRecord, set: FeatureSet) -> Vec<f64> {
    let mut out = Vec::with_capacity(7);
    if matches!(set, FeatureSet::EngagementOnly | FeatureSet::Full) {
        for m in EngagementMetric::ALL {
            out.push(session.engagement(m) / 100.0);
        }
    }
    if matches!(set, FeatureSet::NetworkOnly | FeatureSet::Full) {
        // Scale features to comparable magnitudes.
        out.push(session.network_mean(NetworkMetric::LatencyMs) / 100.0);
        out.push(session.network_mean(NetworkMetric::LossPct));
        out.push(session.network_mean(NetworkMetric::JitterMs) / 10.0);
        out.push(session.network_mean(NetworkMetric::BandwidthMbps));
    }
    out
}

/// The rated sliver's feature columns, gathered and scaled column-wise:
/// one [`kernels::gather`] per feature column (a pure bit move), then one
/// streaming division over the gathered sliver where [`features`] scales.
/// Same values, same per-element operations, same order as the row-wise
/// record walk, so frame-trained models are bit-identical to record-trained
/// ones.
fn feature_columns(frame: &SessionFrame, rated: &[usize], set: FeatureSet) -> Vec<Vec<f64>> {
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(7);
    let mut gather_scaled = |col: &[f64], scale: Option<f64>| {
        let mut out = kernels::gather(col, rated);
        if let Some(d) = scale {
            for v in &mut out {
                *v /= d;
            }
        }
        cols.push(out);
    };
    if matches!(set, FeatureSet::EngagementOnly | FeatureSet::Full) {
        for m in EngagementMetric::ALL {
            gather_scaled(frame.engagement(m), Some(100.0));
        }
    }
    if matches!(set, FeatureSet::NetworkOnly | FeatureSet::Full) {
        // Scale features to comparable magnitudes (matching [`features`]).
        gather_scaled(frame.net_mean(NetworkMetric::LatencyMs), Some(100.0));
        gather_scaled(frame.net_mean(NetworkMetric::LossPct), None);
        gather_scaled(frame.net_mean(NetworkMetric::JitterMs), Some(10.0));
        gather_scaled(frame.net_mean(NetworkMetric::BandwidthMbps), None);
    }
    cols
}

/// Evaluation of one trained predictor on held-out data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Feature set used.
    pub feature_set: FeatureSet,
    /// Training rows.
    pub train_rows: usize,
    /// Test rows.
    pub test_rows: usize,
    /// Mean absolute error (stars).
    pub mae: f64,
    /// Root-mean-square error (stars).
    pub rmse: f64,
    /// Pearson correlation between prediction and truth.
    pub correlation: f64,
    /// MAE of the predict-the-training-mean baseline.
    pub baseline_mae: f64,
}

impl Evaluation {
    /// Skill over the mean baseline: `1 - mae/baseline_mae` (positive =
    /// better than baseline).
    pub fn skill(&self) -> f64 {
        if self.baseline_mae == 0.0 {
            0.0
        } else {
            1.0 - self.mae / self.baseline_mae
        }
    }
}

/// A trained MOS predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosPredictor {
    /// Feature set the model was trained with.
    pub feature_set: FeatureSet,
    /// Underlying linear model.
    pub model: LinearModel,
}

impl MosPredictor {
    /// Predict the MOS of one (possibly unrated) session.
    pub fn predict(&self, session: &SessionRecord) -> Result<f64, AnalyticsError> {
        Ok(self
            .model
            .predict(&features(session, self.feature_set))?
            .clamp(1.0, 5.0))
    }
}

/// Train on a deterministic split (every `holdout`-th rated session is held
/// out) and evaluate. `holdout = 4` → 75 % train / 25 % test.
///
/// Gathers the rated sliver with the record walk the predictor view
/// advances with (`correlate::extend_rated`) and runs the shared
/// `train_and_evaluate_vals`.
pub fn train_and_evaluate(
    dataset: &CallDataset,
    set: FeatureSet,
    holdout: usize,
) -> Result<(MosPredictor, Evaluation), AnalyticsError> {
    let (mut feats, mut ratings) = (Vec::new(), Vec::new());
    crate::correlate::extend_rated(&dataset.sessions, &mut ratings, |s| {
        feats.push(features(s, set));
    });
    train_and_evaluate_vals(&feats, &ratings, set, holdout)
}

/// [`train_and_evaluate`] over frame columns: the same deterministic
/// holdout split over the rated sliver, features gathered from dense
/// columns. Model weights and every evaluation statistic are bit-identical
/// to the record walk (asserted by the parity suite).
pub fn train_and_evaluate_frame(
    frame: &SessionFrame,
    set: FeatureSet,
    holdout: usize,
) -> Result<(MosPredictor, Evaluation), AnalyticsError> {
    let (feats, ratings) = rated_features(frame, frame.rated_indices(), set);
    train_and_evaluate_vals(&feats, &ratings, set, holdout)
}

/// Gather the rated rows' feature vectors and ratings from frame columns, in
/// rated-row order — the incremental predictor view carries these values
/// across epochs so its finishing pass never touches the frame.
pub(crate) fn rated_features(
    frame: &SessionFrame,
    rated: &[usize],
    set: FeatureSet,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let cols = feature_columns(frame, rated, set);
    let feats = (0..rated.len())
        .map(|k| cols.iter().map(|c| c[k]).collect())
        .collect();
    (feats, crate::correlate::gather_ratings(frame, rated))
}

/// The predictor's finishing pass over pre-gathered rated-row values,
/// shared by every path. The deterministic split runs over positions in
/// the rated enumeration, so appending new rated rows at the end keeps
/// every existing row's train/test assignment stable and the result
/// bit-identical to a cold rebuild.
pub(crate) fn train_and_evaluate_vals(
    feats: &[Vec<f64>],
    ratings: &[f64],
    set: FeatureSet,
    holdout: usize,
) -> Result<(MosPredictor, Evaluation), AnalyticsError> {
    let holdout = holdout.max(2);
    if feats.len() < 2 * holdout {
        return Err(AnalyticsError::Empty);
    }
    let mut train_x = Vec::new();
    let mut train_y = Vec::new();
    let mut test: Vec<usize> = Vec::new();
    for (k, f) in feats.iter().enumerate() {
        if k % holdout == 0 {
            test.push(k);
        } else {
            train_x.push(f.clone());
            train_y.push(ratings[k]);
        }
    }
    let model = LinearModel::fit(&train_x, &train_y, 1e-4)?;
    let predictor = MosPredictor {
        feature_set: set,
        model,
    };

    let truth: Vec<f64> = test.iter().map(|&k| ratings[k]).collect();
    let preds: Vec<f64> = test
        .iter()
        .map(|&k| {
            predictor
                .model
                .predict(&feats[k])
                .map(|p| p.clamp(1.0, 5.0))
        })
        .collect::<Result<_, _>>()?;
    let train_mean = train_y.iter().sum::<f64>() / train_y.len() as f64;
    let baseline: Vec<f64> = vec![train_mean; truth.len()];
    let eval = Evaluation {
        feature_set: set,
        train_rows: train_y.len(),
        test_rows: truth.len(),
        mae: mae(&preds, &truth)?,
        rmse: rmse(&preds, &truth)?,
        correlation: analytics::correlation::pearson(&preds, &truth)?,
        baseline_mae: mae(&baseline, &truth)?,
    };
    Ok((predictor, eval))
}

/// §3.3's punchline as a service: predict MOS for *every* session (rated or
/// not) — "user engagement could be considered as early and more readily
/// available indication of call quality".
pub fn predict_all(
    dataset: &CallDataset,
    predictor: &MosPredictor,
) -> Result<Vec<f64>, AnalyticsError> {
    dataset
        .sessions
        .iter()
        .map(|s| predictor.predict(s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use conference::dataset::{generate, DatasetConfig};
    use conference::CallSimulator;
    use std::sync::OnceLock;

    /// A dataset with an elevated feedback rate so the predictor has data.
    fn dataset() -> &'static CallDataset {
        static DS: OnceLock<CallDataset> = OnceLock::new();
        DS.get_or_init(|| {
            let mut sim = CallSimulator::default();
            sim.feedback.rate = 0.2;
            conference::dataset::generate_with(&DatasetConfig::small(1500, 9), &sim)
        })
    }

    #[test]
    fn full_model_beats_mean_baseline() {
        let (_, eval) = train_and_evaluate(dataset(), FeatureSet::Full, 4).unwrap();
        assert!(
            eval.skill() > 0.05,
            "skill {} (mae {} vs {})",
            eval.skill(),
            eval.mae,
            eval.baseline_mae
        );
        assert!(eval.correlation > 0.3, "corr {}", eval.correlation);
        assert!(eval.test_rows > 100);
    }

    #[test]
    fn engagement_adds_signal_over_network_only() {
        let (_, net) = train_and_evaluate(dataset(), FeatureSet::NetworkOnly, 4).unwrap();
        let (_, full) = train_and_evaluate(dataset(), FeatureSet::Full, 4).unwrap();
        assert!(
            full.mae <= net.mae + 0.01,
            "full-model MAE {} should not lose to network-only {}",
            full.mae,
            net.mae
        );
        let (_, eng) = train_and_evaluate(dataset(), FeatureSet::EngagementOnly, 4).unwrap();
        assert!(
            eng.skill() > 0.0,
            "engagement alone must beat the mean baseline"
        );
    }

    #[test]
    fn predictions_in_star_range() {
        let (model, _) = train_and_evaluate(dataset(), FeatureSet::Full, 4).unwrap();
        let preds = predict_all(dataset(), &model).unwrap();
        assert_eq!(preds.len(), dataset().len());
        assert!(preds.iter().all(|p| (1.0..=5.0).contains(p)));
    }

    #[test]
    fn too_few_ratings_errors() {
        let ds = generate(&DatasetConfig::small(5, 1));
        assert!(train_and_evaluate(&ds, FeatureSet::Full, 4).is_err());
    }

    #[test]
    fn evaluation_skill_math() {
        let e = Evaluation {
            feature_set: FeatureSet::Full,
            train_rows: 10,
            test_rows: 10,
            mae: 0.5,
            rmse: 0.6,
            correlation: 0.9,
            baseline_mae: 1.0,
        };
        assert!((e.skill() - 0.5).abs() < 1e-12);
    }
}

//! The USaaS insights digest — the §5 product surface.
//!
//! Fig. 8 of the paper sketches USaaS as a service that *"collects such user
//! feedback, both online and offline, finds correlations, and shares useful
//! user-centric insights back"*. The digest is that deliverable: one
//! structured report per period combining
//!
//! * detected regime changes in the speed and sentiment series (CUSUM);
//! * outage episodes detected from social signals, with cross-network
//!   corroboration from implicit signals where telemetry overlaps;
//! * emerging topics;
//! * significance-tested platform and conditioning gaps from the
//!   conferencing telemetry;
//! * the top traffic-engineering intervention.

use crate::advisor::TrafficAdvisor;
use crate::emerging::EmergingTopicMiner;
use crate::fulcrum::{FulcrumAnalysis, MonthlyPoint};
use crate::outage::{DetectedOutage, OutageDetector};
use analytics::changepoint::binary_segmentation;
use analytics::stats_tests::welch_t_test;
use analytics::time::Month;
use analytics::AnalyticsError;
use conference::platform::Platform;
use conference::records::{CallDataset, EngagementMetric, NetworkMetric};
use serde::Serialize;
use social::post::Forum;
use std::fmt;

/// A significance-tested gap between two strata.
#[derive(Debug, Clone, Serialize)]
pub struct TestedGap {
    /// Description of the comparison.
    pub label: String,
    /// Mean difference (first minus second stratum), presence points.
    pub difference: f64,
    /// Two-sided p-value from Welch's t.
    pub p_value: f64,
}

/// A regime change found in a monthly series.
#[derive(Debug, Clone, Serialize)]
pub struct RegimeChange {
    /// Which series ("downlink median" / "Pos score").
    pub series: &'static str,
    /// Month the new regime starts.
    pub month: Month,
    /// Mean before / after.
    pub before: f64,
    /// Mean after the change.
    pub after: f64,
}

/// The assembled digest.
#[derive(Debug, Clone, Serialize)]
pub struct Digest {
    /// Regime changes in the Fig. 7 series.
    pub regime_changes: Vec<RegimeChange>,
    /// Detected outages, strongest first.
    pub outages: Vec<DetectedOutage>,
    /// Emerging topics (term + first flag date).
    pub emerging: Vec<(String, String)>,
    /// Significance-tested strata gaps.
    pub gaps: Vec<TestedGap>,
    /// Best traffic-engineering intervention (metric label + expected lift).
    pub top_intervention: Option<(String, f64)>,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== USaaS insights digest ===")?;
        writeln!(f, "\nregime changes:")?;
        for r in &self.regime_changes {
            writeln!(
                f,
                "  {} — {}: {:.1} → {:.1}",
                r.month, r.series, r.before, r.after
            )?;
        }
        writeln!(f, "\noutage episodes (top 5):")?;
        for o in self.outages.iter().take(5) {
            writeln!(
                f,
                "  {} (z = {:.1}, {:.0} mentions)",
                o.date, o.score, o.occurrences
            )?;
        }
        writeln!(f, "\nemerging topics:")?;
        for (term, date) in self.emerging.iter().take(5) {
            writeln!(f, "  '{term}' first flagged {date}")?;
        }
        writeln!(f, "\nstrata gaps (presence points, Welch's t):")?;
        for g in &self.gaps {
            writeln!(
                f,
                "  {}: Δ {:+.1} (p = {:.4})",
                g.label, g.difference, g.p_value
            )?;
        }
        if let Some((metric, lift)) = &self.top_intervention {
            writeln!(f, "\ntop intervention: improve {metric} (expected lift {lift:.1} points / 100 sessions)")?;
        }
        Ok(())
    }
}

/// Digest builder.
#[derive(Debug, Clone)]
pub struct DigestBuilder {
    /// Outage detector in use.
    pub detector: OutageDetector,
    /// Emerging-topic miner in use.
    pub miner: EmergingTopicMiner,
    /// Fig. 7 analysis in use.
    pub fulcrum: FulcrumAnalysis,
    /// Advisor in use.
    pub advisor: TrafficAdvisor,
    /// CUSUM score threshold for regime changes.
    pub regime_min_score: f64,
}

impl Default for DigestBuilder {
    fn default() -> DigestBuilder {
        DigestBuilder {
            detector: OutageDetector::default(),
            miner: EmergingTopicMiner::default(),
            fulcrum: FulcrumAnalysis::default(),
            advisor: TrafficAdvisor::default(),
            regime_min_score: 0.8,
        }
    }
}

impl DigestBuilder {
    /// Regime changes over a monthly Fig. 7 series.
    pub fn regime_changes(&self, series: &[MonthlyPoint]) -> Vec<RegimeChange> {
        let mut out = Vec::new();
        // Keep each value paired with its month: the change-point index is
        // in filtered-series space, so indexing the unfiltered month list
        // (as an earlier version did) mislabels changes whenever a month
        // lacks the metric — and underflows when the series is empty.
        let mut push_changes = |tag: &'static str, pairs: &[(Month, f64)]| {
            if pairs.len() < 8 {
                return;
            }
            let values: Vec<f64> = pairs.iter().map(|&(_, v)| v).collect();
            if let Ok(cps) = binary_segmentation(&values, self.regime_min_score, 2) {
                for cp in &cps {
                    if let Some(&(month, _)) = pairs.get(cp.index) {
                        out.push(RegimeChange {
                            series: tag,
                            month,
                            before: cp.mean_before,
                            after: cp.mean_after,
                        });
                    }
                }
            }
        };
        let down: Vec<(Month, f64)> = series
            .iter()
            .filter_map(|p| p.median_down.map(|v| (p.month, v)))
            .collect();
        push_changes("downlink median", &down);
        let pos: Vec<(Month, f64)> = series
            .iter()
            .filter_map(|p| p.pos_score.map(|v| (p.month, v)))
            .collect();
        push_changes("Pos score", &pos);
        out
    }

    /// Significance-tested strata gaps (mobile-vs-PC, conditioned-vs-not)
    /// under degraded latency.
    pub fn tested_gaps(&self, dataset: &CallDataset) -> Result<Vec<TestedGap>, AnalyticsError> {
        let degraded = |s: &&conference::records::SessionRecord| {
            s.network_mean(NetworkMetric::LatencyMs) > 120.0
        };
        let presence = |pred: &dyn Fn(&conference::records::SessionRecord) -> bool| -> Vec<f64> {
            dataset
                .sessions
                .iter()
                .filter(degraded)
                .filter(|s| pred(s))
                .map(|s| s.presence_pct)
                .collect()
        };
        let mobile = presence(&|s| s.platform.is_mobile());
        let pc = presence(&|s| !s.platform.is_mobile());
        let conditioned = presence(&|s| s.conditioned);
        let unconditioned = presence(&|s| !s.conditioned);
        let mut gaps = Vec::new();
        if mobile.len() >= 2 && pc.len() >= 2 {
            let t = welch_t_test(&mobile, &pc)?;
            gaps.push(TestedGap {
                label: "mobile vs PC (degraded latency)".into(),
                difference: t.mean_difference,
                p_value: t.p_value,
            });
        }
        if conditioned.len() >= 2 && unconditioned.len() >= 2 {
            let t = welch_t_test(&conditioned, &unconditioned)?;
            gaps.push(TestedGap {
                label: "conditioned vs unconditioned (degraded latency)".into(),
                difference: t.mean_difference,
                p_value: t.p_value,
            });
        }
        Ok(gaps)
    }

    /// Assemble the full digest. The forum is tokenized once, and the
    /// Fig. 7, outage and emerging-topic sections all read that corpus.
    pub fn build(&self, dataset: &CallDataset, forum: &Forum) -> Result<Digest, AnalyticsError> {
        let (first, last) = forum
            .date_range()
            .map(|(a, b)| (a.month(), b.month()))
            .ok_or(AnalyticsError::Empty)?;
        let corpus = forum.token_corpus(1);
        let series = self.fulcrum.analyze_interned(forum, &corpus, first, last)?;
        let mut outages = self.detector.detect_interned(forum, &corpus, 1)?;
        outages.sort_by(|a, b| analytics::desc_nan_last(a.score, b.score));
        let emerging = self
            .miner
            .mine_interned(forum, &corpus)?
            .into_iter()
            .map(|t| (t.term, t.first_flagged.to_string()))
            .collect();
        let gaps = self.tested_gaps(dataset)?;
        let top_intervention = self
            .advisor
            .rank(dataset, EngagementMetric::Presence)
            .ok()
            .and_then(|r| r.into_iter().next())
            .map(|i| (i.metric.label().to_string(), i.expected_lift));
        Ok(Digest {
            regime_changes: self.regime_changes(&series),
            outages,
            emerging,
            gaps,
            top_intervention,
        })
    }
}

/// Convenience: the per-platform presence means under degraded conditions
/// with pairwise significance against Windows (used by the digest's
/// extended reporting and the examples).
pub fn platform_gaps(dataset: &CallDataset) -> Result<Vec<TestedGap>, AnalyticsError> {
    let degraded =
        |s: &&conference::records::SessionRecord| s.network_mean(NetworkMetric::LatencyMs) > 120.0;
    let of = |p: Platform| -> Vec<f64> {
        dataset
            .sessions
            .iter()
            .filter(degraded)
            .filter(|s| s.platform == p)
            .map(|s| s.presence_pct)
            .collect()
    };
    let base = of(Platform::WindowsPc);
    let mut out = Vec::new();
    for p in [
        Platform::MacPc,
        Platform::AndroidMobile,
        Platform::IosMobile,
    ] {
        let xs = of(p);
        if xs.len() >= 2 && base.len() >= 2 {
            let t = welch_t_test(&xs, &base)?;
            out.push(TestedGap {
                label: format!("{} vs Windows PC", p.label()),
                difference: t.mean_difference,
                p_value: t.p_value,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use analytics::time::Date;
    use conference::dataset::{generate, DatasetConfig};
    use social::generator::{generate as gen_forum, ForumConfig};
    use std::sync::OnceLock;

    fn fixtures() -> &'static (CallDataset, Forum) {
        static F: OnceLock<(CallDataset, Forum)> = OnceLock::new();
        F.get_or_init(|| {
            (
                generate(&DatasetConfig::small(5000, 0xD16)),
                gen_forum(&ForumConfig {
                    authors: 3000,
                    ..ForumConfig::default()
                }),
            )
        })
    }

    #[test]
    fn digest_assembles_all_sections() {
        let (dataset, forum) = fixtures();
        let digest = DigestBuilder::default().build(dataset, forum).unwrap();
        assert!(!digest.outages.is_empty(), "outage episodes expected");
        assert!(
            digest.outages.windows(2).all(|w| w[0].score >= w[1].score),
            "outages sorted by severity"
        );
        assert!(!digest.emerging.is_empty(), "emerging topics expected");
        assert!(digest.emerging.iter().any(|(t, _)| t == "roaming"));
        assert!(!digest.gaps.is_empty(), "tested gaps expected");
        assert!(digest.top_intervention.is_some());
        let rendered = digest.to_string();
        assert!(rendered.contains("USaaS insights digest"));
        // The rendering truncates to the first five topics by date.
        assert!(rendered.contains(&digest.emerging[0].0));
    }

    #[test]
    fn regime_change_found_in_speed_series() {
        let (dataset, forum) = fixtures();
        let _ = dataset;
        let builder = DigestBuilder::default();
        let series = builder
            .fulcrum
            .analyze(
                forum,
                Month::new(2021, 1).unwrap(),
                Month::new(2022, 12).unwrap(),
            )
            .unwrap();
        let changes = builder.regime_changes(&series);
        let down: Vec<&RegimeChange> = changes
            .iter()
            .filter(|c| c.series == "downlink median")
            .collect();
        assert!(!down.is_empty(), "the 2021→2022 decline must register");
        // At least one change is a decline into 2022.
        assert!(
            down.iter()
                .any(|c| c.after < c.before && c.month.year >= 2021),
            "{down:?}"
        );
    }

    #[test]
    fn mobile_gap_is_negative_and_significant() {
        let (dataset, _) = fixtures();
        let gaps = DigestBuilder::default().tested_gaps(dataset).unwrap();
        let mobile = gaps.iter().find(|g| g.label.starts_with("mobile")).unwrap();
        assert!(
            mobile.difference < 0.0,
            "mobile should trail PC: {mobile:?}"
        );
        assert!(mobile.p_value < 0.05, "{mobile:?}");
    }

    #[test]
    fn platform_gaps_cover_non_windows_platforms() {
        let (dataset, _) = fixtures();
        let gaps = platform_gaps(dataset).unwrap();
        assert_eq!(gaps.len(), 3);
        for g in &gaps {
            assert!((0.0..=1.0).contains(&g.p_value));
        }
        // Both mobile platforms lose presence vs Windows.
        for label in ["Android vs Windows PC", "iOS vs Windows PC"] {
            let g = gaps.iter().find(|g| g.label == label).unwrap();
            assert!(g.difference < 0.0, "{g:?}");
        }
    }

    #[test]
    fn empty_forum_errors() {
        let (dataset, _) = fixtures();
        assert!(DigestBuilder::default()
            .build(dataset, &Forum::default())
            .is_err());
    }

    /// Regression for the outage ranking sort: a NaN score (e.g. from a
    /// degenerate z-score) must sort last and leave the finite ranking
    /// deterministic, instead of silently scrambling it the way the old
    /// `partial_cmp(..).unwrap_or(Equal)` comparator could.
    #[test]
    fn outage_ranking_is_nan_safe() {
        let day = Date::from_ymd(2022, 1, 7).unwrap();
        let mk = |score: f64| DetectedOutage {
            date: day,
            occurrences: 1.0,
            score,
        };
        let mut outages = [mk(f64::NAN), mk(3.0), mk(f64::NAN), mk(9.0), mk(1.0)];
        outages.sort_by(|a, b| analytics::desc_nan_last(a.score, b.score));
        let scores: Vec<f64> = outages.iter().map(|o| o.score).collect();
        assert_eq!(&scores[..3], &[9.0, 3.0, 1.0]);
        assert!(scores[3..].iter().all(|s| s.is_nan()));
    }
}

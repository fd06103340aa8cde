//! Social-network bias measurement and correction (§6).
//!
//! *"Social media is known to have its own bias (users reporting only
//! good/bad things, over-enthusiasm, bias due to socio-demographics). USaaS
//! aims to address such bias by leveraging multi-modal insights (like online
//! user signals, MOS) and aggregation of data across online (social)
//! media."*
//!
//! Two concrete instruments:
//!
//! * **Extremity bias** — people post when they feel strongly, so the share
//!   of strong-sentiment posts on a forum overstates how often real
//!   experience is extreme. [`extremity_bias`] quantifies it by comparing
//!   the forum's strong-post share against a multi-modal reference: the
//!   share of conferencing sessions whose (implicit-signal-predicted)
//!   experience is comparably extreme.
//! * **Geographic skew** — the poster population over-represents some
//!   countries. [`reweight_by_country`] recomputes any per-post score under
//!   weights that equalise each country's influence toward a target
//!   distribution (e.g. the subscriber footprint), the standard
//!   post-stratification fix.

use analytics::AnalyticsError;
use sentiment::analyzer::SentimentAnalyzer;
use serde::{Deserialize, Serialize};
use social::post::Forum;
use std::collections::HashMap;

/// Measured extremity bias.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExtremityBias {
    /// Share of forum posts with strong (≥ 0.7) sentiment either way.
    pub forum_strong_share: f64,
    /// Share of reference experiences that are comparably extreme.
    pub reference_extreme_share: f64,
    /// `forum_strong_share / reference_extreme_share` (> 1 ⇒ the forum
    /// over-reports extremes).
    pub amplification: f64,
}

/// Quantify extremity bias against a reference extreme-experience share
/// (e.g. the fraction of conferencing sessions with very high or very low
/// latent quality, from the implicit-signal side).
pub fn extremity_bias(
    forum: &Forum,
    reference_extreme_share: f64,
) -> Result<ExtremityBias, AnalyticsError> {
    if forum.is_empty() {
        return Err(AnalyticsError::Empty);
    }
    if !(0.0..=1.0).contains(&reference_extreme_share) {
        return Err(AnalyticsError::InvalidParameter(
            "reference share must be in [0,1]",
        ));
    }
    let analyzer = SentimentAnalyzer::default();
    let strong = forum
        .posts
        .iter()
        .filter(|p| {
            let s = analyzer.score(&p.text());
            s.is_strong_positive() || s.is_strong_negative()
        })
        .count();
    let forum_strong_share = strong as f64 / forum.len() as f64;
    let amplification = if reference_extreme_share > 0.0 {
        forum_strong_share / reference_extreme_share
    } else {
        f64::INFINITY
    };
    Ok(ExtremityBias {
        forum_strong_share,
        reference_extreme_share,
        amplification,
    })
}

/// A per-post score with its country, ready for reweighting.
#[derive(Debug, Clone, Copy)]
pub struct CountryScore<'a> {
    /// Author country.
    pub country: &'a str,
    /// The score (e.g. polarity, or 1.0/0.0 for strong-positive membership).
    pub score: f64,
}

/// Post-stratified mean: reweight per-country means toward a target country
/// distribution (weights normalised internally; countries absent from the
/// sample are dropped from the target and the rest renormalised).
pub fn reweight_by_country(
    scores: &[CountryScore<'_>],
    target_weights: &HashMap<&str, f64>,
) -> Result<f64, AnalyticsError> {
    if scores.is_empty() {
        return Err(AnalyticsError::Empty);
    }
    let mut sums: HashMap<&str, (f64, usize)> = HashMap::new();
    for s in scores {
        let e = sums.entry(s.country).or_insert((0.0, 0));
        e.0 += s.score;
        e.1 += 1;
    }
    let mut total_weight = 0.0;
    let mut acc = 0.0;
    for (country, (sum, n)) in &sums {
        let w = target_weights.get(country).copied().unwrap_or(0.0);
        if w <= 0.0 {
            continue;
        }
        acc += w * (sum / *n as f64);
        total_weight += w;
    }
    if total_weight <= 0.0 {
        return Err(AnalyticsError::InvalidParameter(
            "no overlap between sample and target",
        ));
    }
    Ok(acc / total_weight)
}

/// Raw vs geography-corrected mean polarity of a forum slice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoCorrectedPolarity {
    /// Unweighted mean polarity.
    pub raw: f64,
    /// Post-stratified mean polarity.
    pub corrected: f64,
}

/// Compute raw and country-corrected mean polarity over a forum under a
/// target country distribution.
pub fn geo_corrected_polarity(
    forum: &Forum,
    target_weights: &HashMap<&str, f64>,
) -> Result<GeoCorrectedPolarity, AnalyticsError> {
    if forum.is_empty() {
        return Err(AnalyticsError::Empty);
    }
    let analyzer = SentimentAnalyzer::default();
    let scored: Vec<(&str, f64)> = forum
        .posts
        .iter()
        .map(|p| (p.country, analyzer.score(&p.text()).polarity()))
        .collect();
    let raw_values: Vec<f64> = scored.iter().map(|(_, s)| *s).collect();
    let raw = analytics::mean(&raw_values)?;
    let country_scores: Vec<CountryScore<'_>> = scored
        .iter()
        .map(|(c, s)| CountryScore {
            country: c,
            score: *s,
        })
        .collect();
    let corrected = reweight_by_country(&country_scores, target_weights)?;
    Ok(GeoCorrectedPolarity { raw, corrected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use social::generator::{generate, ForumConfig};
    use std::sync::OnceLock;

    fn forum() -> &'static Forum {
        static F: OnceLock<Forum> = OnceLock::new();
        F.get_or_init(|| {
            let mut cfg = ForumConfig::default();
            cfg.end = cfg.start.offset(120);
            cfg.authors = 3000;
            generate(&cfg)
        })
    }

    #[test]
    fn forum_over_reports_extremes() {
        // Reference: say 10 % of real sessions are extreme experiences.
        let bias = extremity_bias(forum(), 0.10).unwrap();
        assert!(bias.forum_strong_share > 0.15, "{bias:?}");
        assert!(bias.amplification > 1.5, "{bias:?}");
    }

    #[test]
    fn extremity_bias_validation() {
        assert!(extremity_bias(&Forum::default(), 0.1).is_err());
        assert!(extremity_bias(forum(), 1.5).is_err());
        let inf = extremity_bias(forum(), 0.0).unwrap();
        assert!(inf.amplification.is_infinite());
    }

    #[test]
    fn reweighting_shifts_toward_target_country() {
        let scores = vec![
            CountryScore {
                country: "US",
                score: 1.0,
            },
            CountryScore {
                country: "US",
                score: 1.0,
            },
            CountryScore {
                country: "US",
                score: 1.0,
            },
            CountryScore {
                country: "DE",
                score: -1.0,
            },
        ];
        let mut equal = HashMap::new();
        equal.insert("US", 0.5);
        equal.insert("DE", 0.5);
        let m = reweight_by_country(&scores, &equal).unwrap();
        assert!((m - 0.0).abs() < 1e-12, "equal weights should balance: {m}");
        let mut us_only = HashMap::new();
        us_only.insert("US", 1.0);
        assert_eq!(reweight_by_country(&scores, &us_only).unwrap(), 1.0);
    }

    #[test]
    fn reweighting_errors() {
        assert!(reweight_by_country(&[], &HashMap::new()).is_err());
        let scores = vec![CountryScore {
            country: "US",
            score: 1.0,
        }];
        let mut disjoint = HashMap::new();
        disjoint.insert("JP", 1.0);
        assert!(reweight_by_country(&scores, &disjoint).is_err());
    }

    #[test]
    fn geo_correction_runs_on_real_corpus() {
        // Target: flatten the US skew to 30 %.
        let mut target: HashMap<&str, f64> = HashMap::new();
        target.insert("US", 0.3);
        for c in &social::authors::COUNTRIES[1..8] {
            target.insert(c, 0.1);
        }
        let g = geo_corrected_polarity(forum(), &target).unwrap();
        assert!((-1.0..=1.0).contains(&g.raw));
        assert!((-1.0..=1.0).contains(&g.corrected));
        // The corrected value differs (the skew was real).
        assert!((g.raw - g.corrected).abs() > 1e-6, "{g:?}");
    }

    /// Empty inputs must surface as typed errors, never as a division by
    /// `forum.len() == 0` (the share computation divides by the post
    /// count, so the `is_empty` guard is what keeps NaN out).
    #[test]
    fn empty_inputs_are_typed_errors_not_nan() {
        let empty = Forum { posts: Vec::new() };
        assert_eq!(
            extremity_bias(&empty, 0.10).unwrap_err(),
            AnalyticsError::Empty
        );
        // And a zero reference share is the documented INFINITY, not NaN.
        let bias = extremity_bias(forum(), 0.0).unwrap();
        assert!(bias.amplification.is_infinite());
        assert!(bias.forum_strong_share.is_finite());
    }
}

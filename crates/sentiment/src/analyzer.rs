//! The sentiment analyzer — our substitute for Azure Cognitive Services.
//!
//! §4.1 of the paper: *"The sentiment analysis service assigns three
//! different scores — positive, negative, and neutral — to each piece of
//! text, which add up to 1. We count the number of posts with strong positive
//! (≥ 0.7) or negative (≥ 0.7) scores per day."*
//!
//! [`SentimentAnalyzer::score`] reproduces that contract: valence lookup with
//! negation (a negator within the three preceding tokens flips and dampens)
//! and intensification (an immediately preceding intensifier scales), then
//! positive / negative / neutral mass normalisation so the three scores sum
//! to exactly 1.

use crate::corpus::{TokenCorpus, Vocab};
use crate::lexicon::Lexicon;
use crate::tokenize::tokenize;
use serde::{Deserialize, Serialize};

/// The strong-sentiment threshold the paper uses (≥ 0.7).
pub const STRONG_THRESHOLD: f64 = 0.7;

/// The three scores; invariant: they are each in `[0, 1]` and sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SentimentScores {
    /// Positive mass.
    pub positive: f64,
    /// Negative mass.
    pub negative: f64,
    /// Neutral mass.
    pub neutral: f64,
}

impl SentimentScores {
    /// All-neutral scores (empty or sentiment-free text).
    pub fn neutral() -> SentimentScores {
        SentimentScores {
            positive: 0.0,
            negative: 0.0,
            neutral: 1.0,
        }
    }

    /// Strong positive per the paper's ≥ 0.7 rule.
    pub fn is_strong_positive(&self) -> bool {
        self.positive >= STRONG_THRESHOLD
    }

    /// Strong negative per the paper's ≥ 0.7 rule.
    pub fn is_strong_negative(&self) -> bool {
        self.negative >= STRONG_THRESHOLD
    }

    /// Polarity in `[-1, 1]`: positive minus negative mass.
    pub fn polarity(&self) -> f64 {
        self.positive - self.negative
    }
}

/// Configurable analyzer.
///
/// ```
/// use sentiment::analyzer::SentimentAnalyzer;
/// let analyzer = SentimentAnalyzer::default();
/// let s = analyzer.score("absolutely terrible outage, completely unusable tonight");
/// assert!(s.is_strong_negative());
/// assert!((s.positive + s.negative + s.neutral - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SentimentAnalyzer {
    /// Neutral mass contributed per non-sentiment token; controls how much
    /// sentiment-word density a text needs before a score counts as strong.
    pub neutral_weight: f64,
    /// How many preceding tokens a negator can act across.
    pub negation_window: usize,
    /// Damping applied to a flipped valence (humans hedge: "not great" is
    /// milder than "bad").
    pub negation_damping: f64,
}

impl Default for SentimentAnalyzer {
    fn default() -> SentimentAnalyzer {
        SentimentAnalyzer {
            neutral_weight: 0.25,
            negation_window: 3,
            negation_damping: 0.75,
        }
    }
}

impl SentimentAnalyzer {
    /// Score a text. Empty / sentiment-free text is fully neutral.
    pub fn score(&self, text: &str) -> SentimentScores {
        let lex = Lexicon::global();
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return SentimentScores::neutral();
        }
        let mut pos_mass = 0.0;
        let mut neg_mass = 0.0;
        let mut neutral_tokens = 0usize;
        for (i, tok) in tokens.iter().enumerate() {
            let Some(base) = lex.valence(tok) else {
                neutral_tokens += 1;
                continue;
            };
            // Intensifier directly before the word.
            let mut v = base;
            if i >= 1 {
                if let Some(mult) = lex.intensity(&tokens[i - 1]) {
                    v *= mult;
                }
            }
            // Negator within the window before the word.
            let window_start = i.saturating_sub(self.negation_window);
            if tokens[window_start..i].iter().any(|t| lex.is_negator(t)) {
                v = -v * self.negation_damping;
            }
            if v >= 0.0 {
                pos_mass += v;
            } else {
                neg_mass += -v;
            }
        }
        let neutral_mass = neutral_tokens as f64 * self.neutral_weight;
        let total = pos_mass + neg_mass + neutral_mass;
        if total <= 0.0 {
            return SentimentScores::neutral();
        }
        SentimentScores {
            positive: pos_mass / total,
            negative: neg_mass / total,
            neutral: neutral_mass / total,
        }
    }

    /// Score an already-tokenized document by interned ids — the zero-
    /// allocation mirror of [`SentimentAnalyzer::score`]. Every lexicon
    /// lookup becomes a vector index into the [`Vocab`]'s ID-space tables,
    /// and the accumulation order is identical token for token, so the
    /// result is bit-identical to scoring the original text.
    pub fn score_ids(&self, ids: &[u32], vocab: &Vocab) -> SentimentScores {
        if ids.is_empty() {
            return SentimentScores::neutral();
        }
        let mut pos_mass = 0.0;
        let mut neg_mass = 0.0;
        let mut neutral_tokens = 0usize;
        for (i, &id) in ids.iter().enumerate() {
            let base = vocab.valence(id);
            if base == 0.0 {
                neutral_tokens += 1;
                continue;
            }
            // Intensifier directly before the word (NaN = none).
            let mut v = base;
            if i >= 1 {
                let mult = vocab.intensity(ids[i - 1]);
                if !mult.is_nan() {
                    v *= mult;
                }
            }
            // Negator within the window before the word.
            let window_start = i.saturating_sub(self.negation_window);
            if ids[window_start..i].iter().any(|&t| vocab.is_negator(t)) {
                v = -v * self.negation_damping;
            }
            if v >= 0.0 {
                pos_mass += v;
            } else {
                neg_mass += -v;
            }
        }
        let neutral_mass = neutral_tokens as f64 * self.neutral_weight;
        let total = pos_mass + neg_mass + neutral_mass;
        if total <= 0.0 {
            return SentimentScores::neutral();
        }
        SentimentScores {
            positive: pos_mass / total,
            negative: neg_mass / total,
            neutral: neutral_mass / total,
        }
    }

    /// Score every document of a corpus, fanning contiguous document
    /// chunks out over up to `workers` scoped threads. Each document is
    /// scored independently, so the result vector is identical for every
    /// worker count.
    pub fn score_corpus(&self, corpus: &TokenCorpus, workers: usize) -> Vec<SentimentScores> {
        let vocab = corpus.vocab();
        let parts = analytics::par::par_map_ranges(
            corpus.docs(),
            workers,
            crate::corpus::MIN_CHUNK_DOCS,
            |range| {
                range
                    .map(|doc| self.score_ids(corpus.doc(doc), vocab))
                    .collect::<Vec<SentimentScores>>()
            },
        );
        crate::corpus::flatten_chunks(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn score(text: &str) -> SentimentScores {
        SentimentAnalyzer::default().score(text)
    }

    #[test]
    fn empty_and_neutral_text() {
        assert_eq!(score(""), SentimentScores::neutral());
        let s = score("the satellite dish arrived on tuesday in a cardboard box");
        assert!(s.neutral > 0.9, "{s:?}");
        assert!(!s.is_strong_positive() && !s.is_strong_negative());
    }

    #[test]
    fn clearly_positive_is_strong() {
        let s = score("Amazing speeds, super reliable, absolutely love this service!");
        assert!(s.is_strong_positive(), "{s:?}");
        assert!(s.polarity() > 0.6);
    }

    #[test]
    fn clearly_negative_is_strong() {
        let s = score("Terrible outage again, constant disconnects, totally unusable garbage.");
        assert!(s.is_strong_negative(), "{s:?}");
        assert!(s.polarity() < -0.6);
    }

    #[test]
    fn negation_flips_polarity() {
        let pos = score("the connection is fast and reliable");
        let neg = score("the connection is not fast and not reliable");
        assert!(pos.polarity() > 0.0);
        assert!(neg.polarity() < 0.0, "{neg:?}");
        // Damping: "not fast" is milder than "slow".
        let slow = score("the connection is slow and unreliable");
        assert!(neg.negative < slow.negative, "{neg:?} vs {slow:?}");
    }

    #[test]
    fn intensifiers_amplify() {
        let plain = score("download is slow");
        let strong = score("download is extremely slow");
        assert!(strong.negative > plain.negative, "{strong:?} vs {plain:?}");
        let damped = score("download is slightly slow");
        assert!(damped.negative < plain.negative, "{damped:?} vs {plain:?}");
    }

    #[test]
    fn mixed_text_not_strong() {
        let s = score("speeds are great but the nightly outage is terrible");
        assert!(!s.is_strong_positive());
        assert!(!s.is_strong_negative());
        assert!(s.positive > 0.1 && s.negative > 0.1, "{s:?}");
    }

    #[test]
    fn dilution_by_neutral_text() {
        let dense = score("awesome fast reliable");
        let diluted = score(
            "awesome fast reliable although the installation of the mounting bracket on the \
             north side of the roof took the technician most of the afternoon to complete",
        );
        assert!(dense.positive > diluted.positive);
        assert!(dense.is_strong_positive());
    }

    #[test]
    fn paper_threshold_constant() {
        assert_eq!(STRONG_THRESHOLD, 0.7);
    }

    proptest! {
        #[test]
        fn scores_always_sum_to_one(text in ".{0,400}") {
            let s = score(&text);
            prop_assert!((s.positive + s.negative + s.neutral - 1.0).abs() < 1e-9);
            for v in [s.positive, s.negative, s.neutral] {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            }
        }

        #[test]
        fn polarity_bounded(text in ".{0,400}") {
            let p = score(&text).polarity();
            prop_assert!((-1.0..=1.0).contains(&p));
        }
    }
}

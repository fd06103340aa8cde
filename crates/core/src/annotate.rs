//! Sentiment-peak detection and annotation (Fig. 5).
//!
//! The §4.1 pipeline: score every post, count strong-positive and
//! strong-negative posts per day, find the peaks; for each peak build a word
//! cloud from the day's posts, take the top-3 unigrams, and search the news
//! index ("with the search query appended with 'Starlink', for the custom
//! date"). Peaks whose search comes back empty are *unreported* events — the
//! Apr 22 '22 outage being the paper's showcase, corroborated instead by
//! the number of distinct poster countries.

use crate::chunks::PostRead;
use analytics::kernels::{self, RowMask};
use analytics::time::Date;
use analytics::timeseries::DailySeries;
use analytics::AnalyticsError;
use sentiment::analyzer::{SentimentAnalyzer, SentimentScores};
use sentiment::corpus::TokenCorpus;
use sentiment::news::NewsIndex;
use sentiment::wordcloud::WordCloud;
use serde::Serialize;
use social::post::{Forum, Post};
use std::collections::HashSet;

/// Word-cloud size used when annotating a peak day.
pub(crate) const CLOUD_WORDS: usize = 30;

/// Daily strong-sentiment counts (the two Fig. 5a series).
#[derive(Debug, Clone)]
pub struct SentimentSeries {
    /// Strong-positive posts per day.
    pub strong_positive: DailySeries,
    /// Strong-negative posts per day.
    pub strong_negative: DailySeries,
}

impl SentimentSeries {
    /// Combined (positive + negative) strong-post count per day — the series
    /// whose peaks Fig. 5a annotates.
    pub fn combined(&self) -> DailySeries {
        let values: Vec<f64> = self
            .strong_positive
            .values()
            .iter()
            .zip(self.strong_negative.values())
            .map(|(p, n)| p + n)
            .collect();
        DailySeries::from_values(self.strong_positive.start(), values)
            .expect("series are non-empty by construction")
    }
}

/// One annotated sentiment peak.
#[derive(Debug, Clone, Serialize)]
pub struct AnnotatedPeak {
    /// Peak day.
    pub date: Date,
    /// Strong posts that day (pos + neg).
    pub strong_posts: f64,
    /// True when the peak is dominated by positive posts.
    pub positive_dominated: bool,
    /// Top word-cloud unigrams of the day.
    pub top_words: Vec<String>,
    /// Headlines found for the top words around the date.
    pub headlines: Vec<String>,
    /// Distinct countries posting strong-sentiment posts that day (the
    /// corroboration signal when no news exists).
    pub countries: usize,
}

impl AnnotatedPeak {
    /// True when no news coverage was found — the unreported-event flag.
    pub fn unreported(&self) -> bool {
        self.headlines.is_empty()
    }
}

/// The Fig. 5 annotator.
#[derive(Debug, Clone)]
pub struct PeakAnnotator {
    /// Sentiment analyzer.
    pub analyzer: SentimentAnalyzer,
    /// News index for annotation.
    pub news: NewsIndex,
    /// Word-cloud keywords used for the news query.
    pub query_words: usize,
    /// Days around the peak searched for coverage.
    pub news_window_days: i32,
    /// Robust z-score threshold for peaks.
    pub min_peak_score: f64,
    /// Refractory window between peaks (days).
    pub refractory_days: i32,
}

impl Default for PeakAnnotator {
    fn default() -> PeakAnnotator {
        PeakAnnotator {
            analyzer: SentimentAnalyzer::default(),
            news: NewsIndex::builtin(),
            query_words: 3,
            news_window_days: 3,
            min_peak_score: 5.0,
            refractory_days: 5,
        }
    }
}

impl PeakAnnotator {
    /// Compute the daily strong-sentiment series. Tokenizes the forum once
    /// and runs [`PeakAnnotator::sentiment_series_interned`].
    pub fn sentiment_series(&self, forum: &Forum) -> Result<SentimentSeries, AnalyticsError> {
        self.sentiment_series_interned(forum, &forum.token_corpus(1), 1)
    }

    /// [`PeakAnnotator::sentiment_series`] over a pre-tokenized corpus:
    /// every post is scored once by interned ids (chunk-parallel over
    /// `workers` threads), then binned in post order. Additions are 1.0 per
    /// post, so the series is identical for every worker count.
    pub fn sentiment_series_interned(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        workers: usize,
    ) -> Result<SentimentSeries, AnalyticsError> {
        let scores = self.score_posts(forum, corpus, workers);
        self.series_from_scores(forum, &scores)
    }

    /// Score every post of the forum by interned ids.
    pub(crate) fn score_posts(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        workers: usize,
    ) -> Vec<SentimentScores> {
        assert_eq!(
            corpus.docs(),
            forum.len(),
            "corpus must tokenize exactly this forum"
        );
        self.analyzer.score_corpus(corpus, workers)
    }

    /// Bin precomputed per-post scores into the two daily series through
    /// the branchless [`kernels::masked_slot_counts`] tally: the day offset
    /// is the slot, the strong-sentiment predicates compile to row masks,
    /// and the per-day additions are integer-valued — identical counts to
    /// a per-post `DailySeries::add` walk at any scan order.
    pub(crate) fn series_from_scores(
        &self,
        forum: &impl PostRead,
        scores: &[SentimentScores],
    ) -> Result<SentimentSeries, AnalyticsError> {
        let (start, end) = forum.date_range().ok_or(AnalyticsError::Empty)?;
        let days = (end.days_since(start) + 1) as usize;
        let slots: Vec<u32> = forum
            .iter()
            .map(|p| p.date.days_since(start) as u32)
            .collect();
        let pos_mask = RowMask::from_fn(slots.len(), |i| scores[i].is_strong_positive());
        // The reference walk's `else if`: a strong-positive post never
        // also counts as strong-negative.
        let neg_mask = RowMask::from_fn(slots.len(), |i| {
            !scores[i].is_strong_positive() && scores[i].is_strong_negative()
        });
        let to_series = |counts: Vec<usize>| {
            DailySeries::from_values(start, counts.into_iter().map(|c| c as f64).collect())
        };
        Ok(SentimentSeries {
            strong_positive: to_series(kernels::masked_slot_counts(&slots, days, &pos_mask))?,
            strong_negative: to_series(kernels::masked_slot_counts(&slots, days, &neg_mask))?,
        })
    }

    /// Word cloud over one day's posts. Tokenizes the forum once and runs
    /// [`PeakAnnotator::day_cloud_interned`].
    pub fn day_cloud(&self, forum: &Forum, date: Date, max_words: usize) -> WordCloud {
        self.day_cloud_interned(forum, &forum.token_corpus(1), date, max_words)
    }

    /// [`PeakAnnotator::day_cloud`] over a pre-tokenized corpus — counts
    /// the day's unigrams by interned id without re-reading any post text.
    pub fn day_cloud_interned(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        date: Date,
        max_words: usize,
    ) -> WordCloud {
        let docs = forum
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.date == date)
            .map(|(i, _)| i);
        WordCloud::from_corpus_docs(corpus, docs, max_words)
    }

    /// The full pipeline: top-`k` annotated peaks, strongest first.
    /// Tokenizes the forum once and runs [`PeakAnnotator::annotate_interned`].
    pub fn annotate(&self, forum: &Forum, k: usize) -> Result<Vec<AnnotatedPeak>, AnalyticsError> {
        self.annotate_interned(forum, &forum.token_corpus(1), k, 1)
    }

    /// [`PeakAnnotator::annotate`] over a pre-tokenized corpus. Every post
    /// is scored exactly once (`score_corpus`), and that one pass feeds both
    /// the peak series and the per-peak country corroboration; day clouds
    /// count interned ids. Output is identical to the string oracle.
    pub fn annotate_interned(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        k: usize,
        workers: usize,
    ) -> Result<Vec<AnnotatedPeak>, AnalyticsError> {
        let scores = self.score_posts(forum, corpus, workers);
        let series = self.series_from_scores(forum, &scores)?;
        self.annotate_from_scores(forum, corpus, k, &scores, series)
    }

    /// The annotation tail over precomputed per-post scores (in document
    /// order, flat or chunked) and the daily series — the incremental
    /// sentiment view carries both across epochs and calls this directly,
    /// skipping the scoring pass entirely.
    pub(crate) fn annotate_from_scores<'s>(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        k: usize,
        scores: impl IntoIterator<Item = &'s SentimentScores> + Copy,
        series: SentimentSeries,
    ) -> Result<Vec<AnnotatedPeak>, AnalyticsError> {
        let countries_on = |date: Date| {
            strong_countries(
                forum
                    .iter()
                    .zip(scores.into_iter().copied())
                    .filter(|(p, _)| p.date == date),
            )
            .len()
        };
        let cloud_day = |date: Date| self.day_cloud_interned(forum, corpus, date, CLOUD_WORDS);
        self.annotate_with(k, series, cloud_day, countries_on)
    }

    /// Shared annotation tail: peak finding, cloud/news/country assembly.
    /// `cloud_day` and `countries_on` abstract over string vs interned
    /// access (and over one forum vs merged partitions), so the interned
    /// path, the string oracle and the cluster router run literally the
    /// same logic.
    pub(crate) fn annotate_with(
        &self,
        k: usize,
        series: SentimentSeries,
        cloud_day: impl Fn(Date) -> WordCloud,
        countries_on: impl Fn(Date) -> usize,
    ) -> Result<Vec<AnnotatedPeak>, AnalyticsError> {
        let combined = series.combined();
        let peaks = combined.peaks(self.min_peak_score, self.refractory_days);
        let mut out = Vec::new();
        let lexicon = sentiment::lexicon::Lexicon::global();
        for peak in peaks.into_iter().take(k) {
            let cloud = cloud_day(peak.date);
            // Query with *topical* words: sentiment-bearing adjectives
            // ("amazing", "terrible") never make useful search keywords, so
            // the top unigrams are taken after dropping lexicon words.
            let top_words: Vec<String> = cloud
                .words
                .iter()
                .map(|w| w.word.clone())
                .filter(|w| lexicon.valence(w).is_none())
                .take(self.query_words)
                .collect();
            let mut query: Vec<&str> = top_words.iter().map(String::as_str).collect();
            query.push("starlink"); // the paper appends 'Starlink' to every query
            let headlines = self
                .news
                .search(&query, peak.date, self.news_window_days)
                .into_iter()
                .map(|a| a.headline.clone())
                .collect();
            let pos = series.strong_positive.get(peak.date).unwrap_or(0.0);
            let neg = series.strong_negative.get(peak.date).unwrap_or(0.0);
            out.push(AnnotatedPeak {
                date: peak.date,
                strong_posts: peak.value,
                positive_dominated: pos >= neg,
                top_words,
                headlines,
                countries: countries_on(peak.date),
            });
        }
        Ok(out)
    }
}

/// Countries of the strong-sentiment posts among `posts` — a peak day's
/// corroboration signal when no news covers it.
pub(crate) fn strong_countries<'a>(
    posts: impl IntoIterator<Item = (&'a Post, SentimentScores)>,
) -> HashSet<&'static str> {
    posts
        .into_iter()
        .filter(|(_, s)| s.is_strong_positive() || s.is_strong_negative())
        .map(|(p, _)| p.country)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use social::generator::{generate, ForumConfig};
    use std::sync::OnceLock;

    fn forum() -> &'static Forum {
        static F: OnceLock<Forum> = OnceLock::new();
        F.get_or_init(|| {
            generate(&ForumConfig {
                authors: 4000,
                ..ForumConfig::default()
            })
        })
    }

    fn d(y: i32, m: u8, day: u8) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    #[test]
    fn top_three_peaks_match_paper_dates_and_polarities() {
        let annotator = PeakAnnotator::default();
        let peaks = annotator.annotate(forum(), 3).unwrap();
        assert_eq!(peaks.len(), 3, "expected three annotated peaks");
        let dates: Vec<Date> = peaks.iter().map(|p| p.date).collect();
        assert!(
            dates.contains(&d(2021, 2, 9)),
            "pre-order peak missing: {dates:?}"
        );
        assert!(
            dates.contains(&d(2021, 11, 24)),
            "delay-email peak missing: {dates:?}"
        );
        assert!(
            dates.contains(&d(2022, 4, 22)),
            "Apr 22 outage peak missing: {dates:?}"
        );
        for p in &peaks {
            match (p.date.year(), p.date.month().month) {
                (2021, 2) => assert!(p.positive_dominated, "pre-orders should be positive"),
                (2021, 11) => assert!(!p.positive_dominated, "delay e-mail should be negative"),
                (2022, 4) => assert!(!p.positive_dominated, "outage should be negative"),
                other => panic!("unexpected peak {other:?}"),
            }
        }
        // The Apr 22 peak is the *third* highest (paper: "the third highest
        // peak (22nd Apr'22) is driven by negative sentiment").
        assert_eq!(peaks[2].date, d(2022, 4, 22), "peak order: {dates:?}");
    }

    #[test]
    fn reported_peaks_get_headlines_unreported_peak_does_not() {
        let annotator = PeakAnnotator::default();
        let peaks = annotator.annotate(forum(), 3).unwrap();
        for p in &peaks {
            if p.date == d(2022, 4, 22) {
                assert!(
                    p.unreported(),
                    "Apr 22 must have no coverage: {:?}",
                    p.headlines
                );
                // Corroborated by many countries instead (paper: 14).
                assert!(p.countries >= 6, "Apr 22 countries {}", p.countries);
            } else {
                assert!(!p.unreported(), "{} should have coverage", p.date);
            }
        }
    }

    #[test]
    fn outage_word_ranks_high_in_apr22_cloud() {
        let annotator = PeakAnnotator::default();
        let cloud = annotator.day_cloud(forum(), d(2022, 4, 22), 30);
        let rank = cloud.rank_of("outage").or_else(|| cloud.rank_of("offline"));
        assert!(
            matches!(rank, Some(r) if r < 8),
            "outage-language should rank high in the Apr 22 cloud: {:?}",
            cloud.top_words(8)
        );
    }

    #[test]
    fn sentiment_series_counts_are_plausible() {
        let annotator = PeakAnnotator::default();
        let series = annotator.sentiment_series(forum()).unwrap();
        let total_pos: f64 = series.strong_positive.values().iter().sum();
        let total_neg: f64 = series.strong_negative.values().iter().sum();
        assert!(total_pos > 500.0, "strong positives {total_pos}");
        assert!(total_neg > 500.0, "strong negatives {total_neg}");
        let combined = series.combined();
        assert_eq!(combined.len(), series.strong_positive.len());
    }

    #[test]
    fn empty_forum_errors() {
        let annotator = PeakAnnotator::default();
        assert!(annotator.sentiment_series(&Forum::default()).is_err());
    }
}

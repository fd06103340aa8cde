//! String-path oracles for the §4 parity suites.
//!
//! Every public §4 entry point ([`OutageDetector::detect`],
//! [`PeakAnnotator::annotate`], [`EmergingTopicMiner::mine`],
//! [`FulcrumAnalysis::analyze`], …) tokenizes the forum once and runs the
//! interned path the service serves from. The functions here are the
//! original string bodies — each re-reads every post's text, tokenizes it
//! afresh and scores it through the string lexicon — kept unchanged so
//! `tests/social_parity.rs` and `tests/kernel_parity.rs` can pin the
//! interned paths against an independent implementation. No production
//! code calls them.

use crate::annotate::{
    strong_countries, AnnotatedPeak, PeakAnnotator, SentimentSeries, CLOUD_WORDS,
};
use crate::emerging::{sort_detections, EmergingTopic, EmergingTopicMiner};
use crate::fulcrum::{FulcrumAnalysis, MonthlyPoint};
use crate::outage::{DetectedOutage, OutageDetector};
use analytics::time::{Date, Month};
use analytics::timeseries::DailySeries;
use analytics::AnalyticsError;
use sentiment::analyzer::SentimentAnalyzer;
use sentiment::ngram::NgramCounts;
use sentiment::wordcloud::WordCloud;
use social::post::{Forum, Post};
use std::collections::HashMap;

/// The Fig. 6 series: day-wise keyword occurrences in negative posts.
pub fn keyword_series(det: &OutageDetector, forum: &Forum) -> Result<DailySeries, AnalyticsError> {
    let (start, end) = forum.date_range().ok_or(AnalyticsError::Empty)?;
    let mut series = DailySeries::zeros(start, end)?;
    for post in &forum.posts {
        let text = post.text();
        let hits = det.dictionary.count_matches(&text);
        if hits == 0 {
            continue;
        }
        if det.negative_filter {
            let scores = det.analyzer.score(&text);
            // "Threads with positive or neutral sentiments have been
            // filtered out."
            if scores.negative <= scores.positive || scores.negative <= scores.neutral {
                continue;
            }
        }
        series.add(post.date, hits as f64);
    }
    Ok(series)
}

/// Detect outage days: spikes of the keyword series.
pub fn detect(det: &OutageDetector, forum: &Forum) -> Result<Vec<DetectedOutage>, AnalyticsError> {
    Ok(det.detections_in(&keyword_series(det, forum)?))
}

/// Compute the daily strong-sentiment series.
pub fn sentiment_series(
    annotator: &PeakAnnotator,
    forum: &Forum,
) -> Result<SentimentSeries, AnalyticsError> {
    let (start, end) = forum.date_range().ok_or(AnalyticsError::Empty)?;
    let mut pos = DailySeries::zeros(start, end)?;
    let mut neg = DailySeries::zeros(start, end)?;
    for post in &forum.posts {
        let scores = annotator.analyzer.score(&post.text());
        if scores.is_strong_positive() {
            pos.add(post.date, 1.0);
        } else if scores.is_strong_negative() {
            neg.add(post.date, 1.0);
        }
    }
    Ok(SentimentSeries {
        strong_positive: pos,
        strong_negative: neg,
    })
}

/// Word cloud over one day's posts.
pub fn day_cloud(forum: &Forum, date: Date, max_words: usize) -> WordCloud {
    let texts: Vec<String> = forum.on(date).map(|p| p.text()).collect();
    WordCloud::from_documents(texts.iter().map(String::as_str), max_words)
}

/// The full Fig. 5 pipeline: top-`k` annotated peaks, strongest first.
pub fn annotate(
    annotator: &PeakAnnotator,
    forum: &Forum,
    k: usize,
) -> Result<Vec<AnnotatedPeak>, AnalyticsError> {
    let series = sentiment_series(annotator, forum)?;
    let countries_on = |date: Date| {
        strong_countries(
            forum
                .on(date)
                .map(|p| (p, annotator.analyzer.score(&p.text()))),
        )
        .len()
    };
    let cloud_day = |date: Date| day_cloud(forum, date, CLOUD_WORDS);
    annotator.annotate_with(k, series, cloud_day, countries_on)
}

/// Mine the corpus; returns the first detection per term, ordered by flag
/// date. Counts every window afresh from the post texts.
pub fn mine(
    miner: &EmergingTopicMiner,
    forum: &Forum,
) -> Result<Vec<EmergingTopic>, AnalyticsError> {
    miner.check()?;
    let (start, end) = forum.date_range().ok_or(AnalyticsError::Empty)?;
    let analyzer = SentimentAnalyzer::default();
    // Historical cumulative engagement weight per term and in total.
    // Novelty compares the term's *share* of engagement-weighted counts
    // now vs historically, so an event that inflates all posting (and
    // therefore every term's absolute weight) does not flag established
    // vocabulary.
    let mut history: HashMap<String, f64> = HashMap::new();
    let mut history_total = 0.0f64;
    let mut detected: HashMap<String, EmergingTopic> = HashMap::new();
    /// Share floor: the share a never-seen term is treated as having had.
    const SHARE_FLOOR: f64 = 0.002;

    let mut cursor = start.offset(miner.window_days);
    // Pre-load history with the first window.
    let mut pre = NgramCounts::new();
    for p in forum.between(start, cursor.offset(-1)) {
        pre.add_weighted(&p.text(), p.engagement_weight());
    }
    for (term, w) in pre.iter() {
        *history.entry(term.to_string()).or_insert(0.0) += w;
        history_total += w;
    }

    while cursor.offset(miner.window_days - 1) <= end {
        let win_start = cursor;
        let win_end = cursor.offset(miner.window_days - 1);
        let mut counts = NgramCounts::new();
        let posts: Vec<&Post> = forum.between(win_start, win_end).collect();
        for p in &posts {
            counts.add_weighted(&p.text(), p.engagement_weight());
        }
        let window_total: f64 = counts.iter().map(|(_, w)| w).sum::<f64>().max(1.0);
        for (term, weight) in counts.iter() {
            if weight < miner.min_weight || detected.contains_key(term) {
                continue;
            }
            let hist_share = history.get(term).copied().unwrap_or(0.0) / history_total.max(1.0);
            let window_share = weight / window_total;
            let novelty = window_share / (hist_share + SHARE_FLOOR);
            if novelty >= miner.min_novelty {
                // Sentiment of the posts mentioning the term.
                let polarities: Vec<f64> = posts
                    .iter()
                    .filter(|p| p.text().to_lowercase().contains(term))
                    .map(|p| analyzer.score(&p.text()).polarity())
                    .collect();
                let polarity = analytics::mean(&polarities).unwrap_or(0.0);
                detected.insert(
                    term.to_string(),
                    EmergingTopic {
                        term: term.to_string(),
                        first_flagged: win_end,
                        window_weight: weight,
                        novelty,
                        polarity,
                    },
                );
            }
        }
        // Roll the oldest step into history.
        let mut rolled = NgramCounts::new();
        for p in forum.between(win_start, win_start.offset(miner.step_days - 1)) {
            rolled.add_weighted(&p.text(), p.engagement_weight());
        }
        for (term, w) in rolled.iter() {
            *history.entry(term.to_string()).or_insert(0.0) += w;
            history_total += w;
        }
        cursor = cursor.offset(miner.step_days);
    }
    let mut out: Vec<EmergingTopic> = detected.into_values().collect();
    sort_detections(&mut out);
    Ok(out)
}

/// Run the Fig. 7 pipeline over `[start, end]` months, scoring each
/// screenshot post's text through the string lexicon.
pub fn analyze(
    analysis: &FulcrumAnalysis,
    forum: &Forum,
    start: Month,
    end: Month,
) -> Result<Vec<MonthlyPoint>, AnalyticsError> {
    analysis.analyze_with(forum, start, end, |_, post| {
        analysis.analyzer.score(&post.text())
    })
}

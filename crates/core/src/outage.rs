//! Social outage detection (Fig. 6) with ground-truth scoring.
//!
//! The paper's recipe, §4.1: build a keyword dictionary, filter threads
//! containing the keywords, **drop threads whose sentiment is positive or
//! neutral** (to avoid false positives), and plot day-wise keyword
//! occurrences. Spikes mark outages; the two press-covered incidents
//! dominate, and *"numerous shorter peaks … correspond to local transient
//! outages. Most of these outages are not publicly reported."*
//!
//! Because our corpus is simulated against a ground-truth outage timeline,
//! this module additionally *scores* the detector — precision/recall that
//! the paper could not compute on real Reddit data.

use crate::chunks::PostRead;
use analytics::time::Date;
use analytics::timeseries::{DailySeries, Peak};
use analytics::AnalyticsError;
use sentiment::analyzer::SentimentAnalyzer;
use sentiment::corpus::{CompiledDict, TokenCorpus};
use sentiment::keywords::KeywordDictionary;
use serde::{Deserialize, Serialize};
use social::post::Forum;
use starlink::outages::Outage;

/// Configuration of the outage detector.
#[derive(Debug, Clone)]
pub struct OutageDetector {
    /// Keyword dictionary (defaults to the built-in outage dictionary).
    pub dictionary: KeywordDictionary,
    /// Sentiment analyzer used for the negative filter.
    pub analyzer: SentimentAnalyzer,
    /// Require negative sentiment (the paper's false-positive filter).
    /// Disable for the ablation bench.
    pub negative_filter: bool,
    /// Robust z-score a day must reach to be flagged.
    pub min_peak_score: f64,
    /// Days around a stronger peak that are suppressed.
    pub refractory_days: i32,
}

impl Default for OutageDetector {
    fn default() -> OutageDetector {
        OutageDetector {
            dictionary: KeywordDictionary::outages(),
            analyzer: SentimentAnalyzer::default(),
            negative_filter: true,
            min_peak_score: 6.0,
            refractory_days: 2,
        }
    }
}

/// One detected outage candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectedOutage {
    /// Flagged day.
    pub date: Date,
    /// Keyword occurrences that day.
    pub occurrences: f64,
    /// Robust z-score of the spike.
    pub score: f64,
}

/// Detection quality vs the ground-truth timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionScore {
    /// Detections matching a true outage within ± 1 day.
    pub true_positives: usize,
    /// Detections with no matching outage.
    pub false_positives: usize,
    /// Major outages that went undetected.
    pub missed_major: usize,
    /// Precision in `[0, 1]`.
    pub precision: f64,
    /// Recall over *major* outages in `[0, 1]`.
    pub major_recall: f64,
}

impl OutageDetector {
    /// The Fig. 6 series: day-wise keyword occurrences in negative posts.
    /// Tokenizes the forum once and runs
    /// [`OutageDetector::keyword_series_interned`], the path the service
    /// serves from.
    pub fn keyword_series(&self, forum: &Forum) -> Result<DailySeries, AnalyticsError> {
        self.keyword_series_interned(forum, &forum.token_corpus(1), 1)
    }

    /// [`OutageDetector::keyword_series`] over a pre-tokenized corpus
    /// (document `i` = post `i`): the dictionary is compiled to id space
    /// once, matching and the negative-sentiment filter run as integer/
    /// vector-index loops fanned out over up to `workers` threads, and the
    /// per-day sums are accumulated in post order — identical output for
    /// every worker count (per-day additions are integer-valued, and the
    /// filter decisions are per-post), and identical to the string oracle
    /// the parity suite keeps.
    pub fn keyword_series_interned(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        workers: usize,
    ) -> Result<DailySeries, AnalyticsError> {
        // A corpus/forum mismatch used to assert; ingestion feeds this from
        // flaky sources now, so it surfaces as a typed error instead of a
        // panic.
        if corpus.docs() != forum.len() {
            return Err(AnalyticsError::LengthMismatch {
                left: corpus.docs(),
                right: forum.len(),
            });
        }
        let (start, end) = forum.date_range().ok_or(AnalyticsError::Empty)?;
        let mut series = DailySeries::zeros(start, end)?;
        let dict = CompiledDict::compile(&self.dictionary, corpus.vocab());
        let parts = analytics::par::par_map_ranges(
            corpus.docs(),
            workers,
            sentiment::corpus::MIN_CHUNK_DOCS,
            |range| self.doc_hits_range(&dict, corpus, range),
        );
        let hits_per_post = sentiment::corpus::flatten_chunks(parts);
        for (post, hits) in forum.iter().zip(hits_per_post) {
            if hits > 0 {
                series.add(post.date, hits as f64);
            }
        }
        Ok(series)
    }

    /// Filtered keyword hits for one contiguous document range: dictionary
    /// occurrences, zeroed when the negative-sentiment filter rejects the
    /// post. Per-document and independent of every other document, so the
    /// incremental outage view computes this for appended documents only
    /// and gets counts identical to a full sweep. (Vocabulary growth never
    /// changes old documents' counts: a dictionary entry that newly
    /// compiles maps to ids no old document contains.)
    pub(crate) fn doc_hits_range(
        &self,
        dict: &CompiledDict,
        corpus: &TokenCorpus,
        range: std::ops::Range<usize>,
    ) -> Vec<usize> {
        let vocab = corpus.vocab();
        let mut scratch = Vec::new();
        range
            .map(|doc| {
                let ids = corpus.doc(doc);
                let hits = dict.count_ids_with(ids, &mut scratch);
                if hits == 0 {
                    return 0;
                }
                if self.negative_filter {
                    let scores = self.analyzer.score_ids(ids, vocab);
                    // "Threads with positive or neutral sentiments have
                    // been filtered out."
                    if scores.negative <= scores.positive || scores.negative <= scores.neutral {
                        return 0;
                    }
                }
                hits
            })
            .collect()
    }

    /// Detect outage days: spikes of the keyword series. Tokenizes the
    /// forum once and runs [`OutageDetector::detect_interned`].
    pub fn detect(&self, forum: &Forum) -> Result<Vec<DetectedOutage>, AnalyticsError> {
        self.detect_interned(forum, &forum.token_corpus(1), 1)
    }

    /// [`OutageDetector::detect`] over a pre-tokenized corpus.
    pub fn detect_interned(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        workers: usize,
    ) -> Result<Vec<DetectedOutage>, AnalyticsError> {
        let series = self.keyword_series_interned(forum, corpus, workers)?;
        Ok(self.detections_in(&series))
    }

    /// The detections of a keyword series: its robust-z peaks under this
    /// detector's thresholds.
    pub(crate) fn detections_in(&self, series: &DailySeries) -> Vec<DetectedOutage> {
        series
            .peaks(self.min_peak_score, self.refractory_days)
            .into_iter()
            .map(|Peak { date, value, score }| DetectedOutage {
                date,
                occurrences: value,
                score,
            })
            .collect()
    }

    /// Score detections against ground truth (± 1 day matching window).
    ///
    /// Empty-input conventions (documented so the 0/0 cases are policy,
    /// not accident): with no `detections`, precision is **0.0** — an
    /// empty detector earns no credit rather than a NaN; with no major
    /// outages in `truth`, major recall is **1.0** — there was nothing to
    /// miss. Both branches are guarded below, so neither ratio ever
    /// divides by zero.
    pub fn score_against(&self, detections: &[DetectedOutage], truth: &[Outage]) -> DetectionScore {
        let matches_truth =
            |d: &DetectedOutage| truth.iter().any(|o| (o.date.days_since(d.date)).abs() <= 1);
        let true_positives = detections.iter().filter(|d| matches_truth(d)).count();
        let false_positives = detections.len() - true_positives;
        let majors: Vec<&Outage> = truth.iter().filter(|o| o.is_major()).collect();
        let missed_major = majors
            .iter()
            .filter(|o| {
                !detections
                    .iter()
                    .any(|d| (o.date.days_since(d.date)).abs() <= 1)
            })
            .count();
        let precision = if detections.is_empty() {
            0.0
        } else {
            true_positives as f64 / detections.len() as f64
        };
        let major_recall = if majors.is_empty() {
            1.0
        } else {
            (majors.len() - missed_major) as f64 / majors.len() as f64
        };
        DetectionScore {
            true_positives,
            false_positives,
            missed_major,
            precision,
            major_recall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use social::generator::{generate, ForumConfig};
    use starlink::outages::{outage_timeline, TransientOutageConfig};
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
    fn fig6_largest_spikes_are_the_press_covered_outages() {
        let det = OutageDetector::default();
        let series = det.keyword_series(forum()).unwrap();
        let mut days: Vec<(Date, f64)> = series.iter().collect();
        days.sort_by(|a, b| analytics::desc_nan_last(a.1, b.1));
        let top2: Vec<Date> = days[..2].iter().map(|(d, _)| *d).collect();
        assert!(
            top2.contains(&d(2022, 1, 7)) && top2.contains(&d(2022, 8, 30)),
            "top-2 keyword days {top2:?} (paper: Jan 7 and Aug 30 2022)"
        );
    }

    #[test]
    fn major_outages_all_detected() {
        let det = OutageDetector::default();
        let detections = det.detect(forum()).unwrap();
        let truth = outage_timeline(
            d(2021, 1, 1),
            d(2022, 12, 31),
            &TransientOutageConfig::default(),
        );
        let score = det.score_against(&detections, &truth);
        assert_eq!(
            score.missed_major, 0,
            "all three major outages must be found"
        );
        assert!(score.major_recall == 1.0);
        assert!(score.precision > 0.6, "precision {}", score.precision);
    }

    #[test]
    fn transient_outages_produce_numerous_smaller_peaks() {
        let det = OutageDetector {
            min_peak_score: 2.0,
            ..OutageDetector::default()
        };
        let detections = det.detect(forum()).unwrap();
        let majors = [d(2022, 1, 7), d(2022, 4, 22), d(2022, 8, 30)];
        let minor = detections
            .iter()
            .filter(|det| majors.iter().all(|m| (m.days_since(det.date)).abs() > 2))
            .count();
        assert!(
            minor >= 10,
            "expected many transient-outage peaks, got {minor}"
        );
    }

    #[test]
    fn negative_filter_raises_precision() {
        let with = OutageDetector::default();
        let without = OutageDetector {
            negative_filter: false,
            ..OutageDetector::default()
        };
        let s_with = with.keyword_series(forum()).unwrap();
        let s_without = without.keyword_series(forum()).unwrap();
        // The filter strictly removes mass…
        let sum_with: f64 = s_with.values().iter().sum();
        let sum_without: f64 = s_without.values().iter().sum();
        assert!(sum_with < sum_without, "{sum_with} vs {sum_without}");
        // …and what it removes is mostly non-outage chatter: detection
        // precision does not degrade.
        let truth = outage_timeline(
            d(2021, 1, 1),
            d(2022, 12, 31),
            &TransientOutageConfig::default(),
        );
        let p_with = with
            .score_against(&with.detect(forum()).unwrap(), &truth)
            .precision;
        let p_without = without
            .score_against(&without.detect(forum()).unwrap(), &truth)
            .precision;
        assert!(
            p_with + 1e-9 >= p_without,
            "filtered {p_with} vs unfiltered {p_without}"
        );
    }

    #[test]
    fn empty_forum_errors() {
        let det = OutageDetector::default();
        assert!(det.keyword_series(&Forum::default()).is_err());
    }

    #[test]
    fn score_handles_empty_detections() {
        let det = OutageDetector::default();
        let truth = outage_timeline(
            d(2022, 1, 1),
            d(2022, 12, 31),
            &TransientOutageConfig::default(),
        );
        let s = det.score_against(&[], &truth);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.missed_major, 3);
    }

    /// The empty-input conventions of [`OutageDetector::score_against`]
    /// are policy: no detections ⇒ precision 0.0 (no credit), no major
    /// outages ⇒ recall 1.0 (nothing to miss). Neither path may produce
    /// NaN from a 0/0.
    #[test]
    fn score_against_empty_inputs_are_finite() {
        use starlink::outages::OutageCause;
        let det = OutageDetector::default();
        let truth = vec![Outage {
            date: d(2022, 1, 7),
            severity: 0.9,
            countries: 20,
            duration_hours: 5.0,
            reported_in_press: true,
            cause: OutageCause::GroundSegment,
        }];
        // No detections against real truth: precision is 0.0, not NaN.
        let s = det.score_against(&[], &truth);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.major_recall, 0.0); // the one major outage was missed
        assert_eq!(s.missed_major, 1);
        // Detections against truth with no majors: recall is 1.0, not NaN.
        let minor = vec![Outage {
            severity: 0.1,
            ..truth[0]
        }];
        let dets = vec![DetectedOutage {
            date: d(2022, 1, 7),
            occurrences: 3.0,
            score: 4.0,
        }];
        let s = det.score_against(&dets, &minor);
        assert_eq!(s.major_recall, 1.0);
        assert!(s.precision.is_finite());
        // Both empty: every field finite, nothing panics.
        let s = det.score_against(&[], &[]);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.major_recall, 1.0);
    }
}

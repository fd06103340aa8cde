//! Emerging-topic mining — the roaming early-detection pipeline (§4.1).
//!
//! *"We were also able to detect Redditors discussing the roaming feature of
//! Starlink almost ~2 weeks before Elon Musk announced it on Twitter … using
//! a systematic pipeline which mines popular discussions (using upvotes and
//! comment numbers)."*
//!
//! The miner slides a window over the corpus, counts engagement-weighted
//! unigrams, and flags terms whose current weight is a large multiple of
//! their historical average — surfacing vocabulary the community suddenly
//! cares about. It reports the first flag date per term so lead times
//! against official announcements can be measured.

use crate::chunks::PostRead;
use analytics::time::Date;
use analytics::AnalyticsError;
use sentiment::analyzer::SentimentAnalyzer;
use sentiment::corpus::{IdNgramCounts, TokenCorpus};
use serde::{Deserialize, Serialize};
use social::post::{Forum, Post};
use std::collections::HashMap;

/// Miner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmergingTopicMiner {
    /// Length of the current window (days).
    pub window_days: i32,
    /// Step between evaluations (days).
    pub step_days: i32,
    /// Novelty ratio a term must reach: current weight vs historical daily
    /// average (+1 smoothing).
    pub min_novelty: f64,
    /// Minimum absolute engagement weight in the window (filters one-off
    /// posts).
    pub min_weight: f64,
}

impl Default for EmergingTopicMiner {
    fn default() -> EmergingTopicMiner {
        EmergingTopicMiner {
            window_days: 7,
            step_days: 1,
            min_novelty: 8.0,
            min_weight: 150.0,
        }
    }
}

/// One emerging-topic detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmergingTopic {
    /// The term.
    pub term: String,
    /// First day the term was flagged.
    pub first_flagged: Date,
    /// Engagement weight in the triggering window.
    pub window_weight: f64,
    /// Novelty ratio at the trigger.
    pub novelty: f64,
    /// Mean sentiment polarity of the window's posts containing the term.
    pub polarity: f64,
}

impl EmergingTopicMiner {
    /// Mine the corpus; returns the first detection per term, ordered by
    /// flag date. Tokenizes the forum once and runs
    /// [`EmergingTopicMiner::mine_interned`].
    pub fn mine(&self, forum: &Forum) -> Result<Vec<EmergingTopic>, AnalyticsError> {
        self.mine_interned(forum, &forum.token_corpus(1))
    }

    /// [`EmergingTopicMiner::mine`] over a pre-tokenized corpus: windows
    /// count engagement-weighted unigrams by interned id, history is a
    /// `HashMap<u32, f64>`, and polarity scoring runs on token ids. All
    /// window/history weights are sums of integer-valued engagement
    /// weights, so every share and novelty ratio is computed on exactly
    /// the same values as the string oracle; detections are identical, and
    /// same-day flags are ordered by term (both sort with
    /// [`sort_detections`]).
    ///
    /// Implemented as [`EmergingTopicMiner::mine_start`] +
    /// [`EmergingTopicMiner::mine_run`] — the resumable core the
    /// incremental [`crate::views::EmergingTopicsView`] carries across
    /// epochs.
    pub fn mine_interned(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
    ) -> Result<Vec<EmergingTopic>, AnalyticsError> {
        let mut state = self.mine_start(forum, corpus)?;
        self.mine_run(forum, corpus, &mut state);
        Ok(state.detections())
    }

    /// Initialise a [`MineState`] for the interned miner: validate the
    /// corpus, fix the forum's date range, and pre-load history with the
    /// first window. No windows are evaluated yet.
    pub(crate) fn mine_start(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
    ) -> Result<MineState, AnalyticsError> {
        if corpus.docs() != forum.len() {
            return Err(AnalyticsError::LengthMismatch {
                left: corpus.docs(),
                right: forum.len(),
            });
        }
        let (start, end) = forum.date_range().ok_or(AnalyticsError::Empty)?;
        let mut state = MineState {
            start,
            end,
            cursor: start.offset(self.window_days),
            history: HashMap::new(),
            history_total: 0.0,
            detected: HashMap::new(),
        };
        // Pre-load history with the first window.
        let mut pre = IdNgramCounts::new();
        for (i, p) in between(forum, start, state.cursor.offset(-1)) {
            pre.add_unigrams(corpus, i, p.engagement_weight());
        }
        for (id, w) in pre.iter_unigrams() {
            *state.history.entry(id).or_insert(0.0) += w;
            state.history_total += w;
        }
        Ok(state)
    }

    /// Evaluate every window from `state.cursor` through `state.end`,
    /// updating the carried history/detections and leaving the cursor at
    /// the first unevaluated window. The loop only ever reads posts dated
    /// `<= state.end` (and [`EmergingTopicMiner::mine_start`]'s pre-load
    /// only the first window), so a run split at any day — run to
    /// `end = d`, then raise `end` and run again — walks exactly the
    /// windows of one cold run, and posts appended between the two runs
    /// count as long as they are dated after
    /// `max(d, start + window_days − 1)`.
    /// [`crate::views::EmergingTopicsView`] relies on this: it keeps a
    /// state settled at `last − 1`, which absorbs posts dated on or after
    /// the last mined day, and runs a clone of it through the one tail
    /// window ending on `last`.
    pub(crate) fn mine_run(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
        state: &mut MineState,
    ) {
        let analyzer = SentimentAnalyzer::default();
        let vocab = corpus.vocab();
        /// Share floor: the share a never-seen term is treated as having had.
        const SHARE_FLOOR: f64 = 0.002;

        while state.cursor.offset(self.window_days - 1) <= state.end {
            let win_start = state.cursor;
            let win_end = state.cursor.offset(self.window_days - 1);
            let mut counts = IdNgramCounts::new();
            let posts = between(forum, win_start, win_end);
            for &(i, p) in &posts {
                counts.add_unigrams(corpus, i, p.engagement_weight());
            }
            let window_total: f64 = counts.iter_unigrams().map(|(_, w)| w).sum::<f64>().max(1.0);
            for (id, weight) in counts.iter_unigrams() {
                if weight < self.min_weight || state.detected.contains_key(&id) {
                    continue;
                }
                let hist_share =
                    state.history.get(&id).copied().unwrap_or(0.0) / state.history_total.max(1.0);
                let window_share = weight / window_total;
                let novelty = window_share / (hist_share + SHARE_FLOOR);
                if novelty >= self.min_novelty {
                    // Sentiment of the posts mentioning the term. The
                    // string oracle substring-matches the lowercased full
                    // text; terms never contain the title/body joiner, so
                    // checking the parts separately is equivalent.
                    let term = vocab.word(id);
                    let polarities: Vec<f64> = posts
                        .iter()
                        .filter(|(_, p)| {
                            p.title.to_lowercase().contains(term)
                                || p.body.to_lowercase().contains(term)
                        })
                        .map(|&(i, _)| analyzer.score_ids(corpus.doc(i), vocab).polarity())
                        .collect();
                    let polarity = analytics::mean(&polarities).unwrap_or(0.0);
                    state.detected.insert(
                        id,
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
            let mut rolled = IdNgramCounts::new();
            for (i, p) in between(forum, win_start, win_start.offset(self.step_days - 1)) {
                rolled.add_unigrams(corpus, i, p.engagement_weight());
            }
            for (id, w) in rolled.iter_unigrams() {
                *state.history.entry(id).or_insert(0.0) += w;
                state.history_total += w;
            }
            state.cursor = state.cursor.offset(self.step_days);
        }
    }

    /// Convenience: the first detection of one term, if any.
    pub fn first_detection(
        &self,
        forum: &Forum,
        term: &str,
    ) -> Result<Option<EmergingTopic>, AnalyticsError> {
        Ok(self.mine(forum)?.into_iter().find(|t| t.term == term))
    }
}

/// The interned miner's resumable position: everything
/// [`EmergingTopicMiner::mine_run`] needs to evaluate the next window.
/// Dates strictly after `max(end, start + window_days − 1)` (the evaluated
/// windows and the history pre-load) have not influenced any of it, which
/// is what lets [`crate::views::EmergingTopicsView`] carry one settled at
/// the forum's last day minus one across an append of posts dated on or
/// after the last mined day, and resume instead of re-mining history.
/// Posts dated earlier, or inside the pre-load window, force a rebuild.
#[derive(Debug, Clone)]
pub(crate) struct MineState {
    /// First forum day (fixed; an earlier-dated append invalidates the
    /// state, because the pre-load window would have differed).
    pub start: Date,
    /// Last forum day covered; windows end at or before it.
    pub end: Date,
    /// Start of the first window not yet evaluated.
    pub cursor: Date,
    /// Historical cumulative engagement weight per term id.
    pub history: HashMap<u32, f64>,
    /// Total historical engagement weight.
    pub history_total: f64,
    /// First detection per term id.
    pub detected: HashMap<u32, EmergingTopic>,
}

impl MineState {
    /// The detections so far, in the output order of
    /// [`EmergingTopicMiner::mine_interned`].
    pub fn detections(&self) -> Vec<EmergingTopic> {
        let mut out: Vec<EmergingTopic> = self.detected.values().cloned().collect();
        sort_detections(&mut out);
        out
    }
}

/// `Forum::between` by document index, so windows address the corpus.
/// Collected through `for_each`, which walks a chunked forum as one plain
/// slice loop per chunk.
fn between(forum: &impl PostRead, from: Date, to: Date) -> Vec<(usize, &Post)> {
    let mut window = Vec::new();
    forum.iter().enumerate().for_each(|(i, p)| {
        if p.date >= from && p.date <= to {
            window.push((i, p));
        }
    });
    window
}

/// Canonical detection order: flag date, then term. Pinning the tie order
/// (the maps above iterate in hash order) keeps every producer —
/// interned mine, carried view, string oracle — byte-identical.
pub(crate) fn sort_detections(out: &mut [EmergingTopic]) {
    out.sort_by(|a, b| {
        a.first_flagged
            .cmp(&b.first_flagged)
            .then_with(|| a.term.cmp(&b.term))
    });
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
    fn roaming_detected_two_weeks_before_ceo_tweet() {
        let miner = EmergingTopicMiner::default();
        let hit = miner
            .first_detection(forum(), "roaming")
            .unwrap()
            .expect("roaming must be flagged");
        let tweet = d(2022, 3, 3);
        let lead = tweet.days_since(hit.first_flagged);
        assert!(
            lead >= 10,
            "roaming flagged {} — only {lead} days before the tweet (paper: ~2 weeks)",
            hit.first_flagged
        );
        assert!(
            hit.first_flagged >= d(2022, 2, 14),
            "cannot flag before users discover it"
        );
        assert!(
            hit.polarity > 0.0,
            "roaming chatter should be positive: {}",
            hit.polarity
        );
    }

    #[test]
    fn established_vocabulary_is_not_flagged() {
        let miner = EmergingTopicMiner::default();
        let topics = miner.mine(forum()).unwrap();
        // Words present from day one can never be novel.
        for term in ["service", "speeds", "dish"] {
            assert!(
                topics.iter().all(|t| t.term != term),
                "{term} wrongly flagged as emerging"
            );
        }
    }

    #[test]
    fn detections_are_first_occurrences_in_order() {
        let miner = EmergingTopicMiner::default();
        let topics = miner.mine(forum()).unwrap();
        assert!(!topics.is_empty());
        assert!(topics
            .windows(2)
            .all(|w| w[0].first_flagged <= w[1].first_flagged));
        let mut terms: Vec<&str> = topics.iter().map(|t| t.term.as_str()).collect();
        terms.sort_unstable();
        let before = terms.len();
        terms.dedup();
        assert_eq!(before, terms.len(), "one detection per term");
    }

    /// The settled + tail contract: a run split at any day `d` — run to
    /// `end = d`, clone, then run the clone to the forum's end — reaches
    /// exactly the state of one cold run, detections included.
    #[test]
    fn split_runs_match_one_cold_run() {
        let miner = EmergingTopicMiner::default();
        let forum = forum();
        let corpus = forum.token_corpus(2);
        let cold = format!("{:?}", miner.mine_interned(forum, &corpus).unwrap());
        let (start, end) = forum.date_range().unwrap();
        let span = end.days_since(start);
        let splits = [
            start.offset(-1),
            start,
            start.offset(miner.window_days - 1),
            start.offset(miner.window_days),
            start.offset(span / 2),
            d(2022, 2, 20),
            end.offset(-1),
            end,
        ];
        for split in splits {
            let mut settled = miner.mine_start(forum, &corpus).unwrap();
            settled.end = split;
            miner.mine_run(forum, &corpus, &mut settled);
            let mut resumed = settled.clone();
            resumed.end = end;
            miner.mine_run(forum, &corpus, &mut resumed);
            assert_eq!(
                format!("{:?}", resumed.detections()),
                cold,
                "split at {split} diverged from the cold run"
            );
        }
    }

    #[test]
    fn empty_forum_errors() {
        let miner = EmergingTopicMiner::default();
        assert!(miner.mine(&Forum::default()).is_err());
    }
}

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
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

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

    /// [`EmergingTopicMiner::mine`] over a pre-tokenized corpus: each
    /// post's engagement-weighted unigrams are tallied once, by interned
    /// id, into a per-day table, and the window slides over those tables
    /// ([`Slide`]). All window/history weights are sums of integer-valued
    /// engagement weights, so every share and novelty ratio is computed on
    /// exactly the same values as the string oracle; detections are
    /// identical, and same-day flags are ordered by term (both sort with
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

    /// Reject a configuration the window cannot slide with: a window
    /// shorter than one day, or a step outside `1..=window_days`. A step
    /// of zero or less never advances the cursor; a step longer than the
    /// window would roll days no window has read into history.
    pub(crate) fn check(&self) -> Result<(), AnalyticsError> {
        if self.window_days < 1 {
            return Err(AnalyticsError::InvalidParameter(
                "emerging-topic window must span at least one day",
            ));
        }
        if !(1..=self.window_days).contains(&self.step_days) {
            return Err(AnalyticsError::InvalidParameter(
                "emerging-topic step must be in 1..=window_days",
            ));
        }
        Ok(())
    }

    /// Initialise a [`MineState`] for the interned miner: check the
    /// configuration and the corpus, fix the forum's date range, and
    /// pre-load history with the first window. No windows are evaluated
    /// yet.
    pub(crate) fn mine_start(
        &self,
        forum: &impl PostRead,
        corpus: &TokenCorpus,
    ) -> Result<MineState, AnalyticsError> {
        self.check()?;
        if corpus.docs() != forum.len() {
            return Err(AnalyticsError::LengthMismatch {
                left: corpus.docs(),
                right: forum.len(),
            });
        }
        let (start, end) = forum.date_range().ok_or(AnalyticsError::Empty)?;
        let cursor = start.offset(self.window_days);
        // Pre-load history with the first window.
        let mut pre = IdNgramCounts::new();
        for (i, p) in forum.iter().enumerate() {
            if p.date < cursor {
                pre.add_unigrams(corpus, i, p.engagement_weight());
            }
        }
        let mut history = TermWeights::default();
        history.add(&pre.iter_unigrams().collect::<Vec<_>>());
        Ok(MineState {
            start,
            end,
            cursor,
            history,
            detected: HashMap::new(),
        })
    }

    /// Evaluate every window from `state.cursor` through `state.end`,
    /// updating the carried history/detections and leaving the cursor at
    /// the first unevaluated window.
    ///
    /// One walk of the post chain buckets the document indices dated
    /// `state.cursor ..= state.end` by day; each day is tallied once when
    /// it enters the [`Slide`]. Polarity lowercases a window's posts once,
    /// only in a window where some term flags, and averages in document
    /// order (the chain is not date-sorted across chunks, and the float
    /// mean depends on the order).
    ///
    /// The run only ever reads posts dated `<= state.end` (and
    /// [`EmergingTopicMiner::mine_start`]'s pre-load only the first
    /// window), so a run split at any day — run to `end = d`, then raise
    /// `end` and run again — walks exactly the windows of one cold run,
    /// and posts appended between the two runs count as long as they are
    /// dated after `max(d, start + window_days − 1)`.
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
        let base = state.cursor;
        if base.offset(self.window_days - 1) > state.end {
            // No window fits (and `end` may precede `base`): read nothing.
            return;
        }
        let mut days: Vec<Vec<(usize, &Post)>> =
            vec![Vec::new(); state.end.days_since(base) as usize + 1];
        for (i, p) in forum.iter().enumerate() {
            if p.date >= base && p.date <= state.end {
                days[p.date.days_since(base) as usize].push((i, p));
            }
        }
        let analyzer = SentimentAnalyzer::default();
        let vocab = corpus.vocab();
        // A day's tally is `IdNgramCounts::add_unigrams` over its posts,
        // summed in a dense per-id scratch row instead of a hash map.
        let mut sums = vec![0.0f64; vocab.len()];
        let mut tally = |day: Date| -> DayTally<u32> {
            let mut terms: Vec<u32> = Vec::new();
            for &(i, p) in &days[day.days_since(base) as usize] {
                let weight = p.engagement_weight();
                if weight <= 0.0 {
                    continue;
                }
                for &id in corpus.doc(i) {
                    if vocab.is_content(id) {
                        let sum = &mut sums[id as usize];
                        if *sum == 0.0 {
                            terms.push(id);
                        }
                        *sum += weight;
                    }
                }
            }
            terms
                .into_iter()
                .map(|id| (id, std::mem::take(&mut sums[id as usize])))
                .collect()
        };
        let mut slide = Slide::new(self, &mut state.history, base, state.end);
        while let Some((win_start, win_end, flags)) =
            slide.next_window(&mut tally, |id| state.detected.contains_key(id))
        {
            if flags.is_empty() {
                continue;
            }
            // The window's posts in document order, lowercased once. The
            // string oracle substring-matches the lowercased full text;
            // terms never contain the title/body joiner, so checking the
            // parts separately is equivalent.
            let first = win_start.days_since(base) as usize;
            let mut lowered: Vec<(usize, String, String)> = days
                [first..first + self.window_days as usize]
                .iter()
                .flatten()
                .map(|&(i, p)| (i, p.title.to_lowercase(), p.body.to_lowercase()))
                .collect();
            lowered.sort_unstable_by_key(|&(i, _, _)| i);
            for flag in flags {
                // Sentiment of the posts mentioning the term.
                let term = vocab.word(flag.term);
                let polarities: Vec<f64> = lowered
                    .iter()
                    .filter(|(_, title, body)| title.contains(term) || body.contains(term))
                    .map(|&(i, _, _)| analyzer.score_ids(corpus.doc(i), vocab).polarity())
                    .collect();
                state.detected.insert(
                    flag.term,
                    EmergingTopic {
                        term: term.to_string(),
                        first_flagged: win_end,
                        window_weight: flag.weight,
                        novelty: flag.novelty,
                        polarity: analytics::mean(&polarities).unwrap_or(0.0),
                    },
                );
            }
        }
        state.cursor = slide.cursor;
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

/// One day's engagement-weighted unigram tally: each term at most once,
/// with a positive integer-valued weight.
pub(crate) type DayTally<K> = Vec<(K, f64)>;

/// Engagement weight per term, and in total: the miner's history and its
/// current window. Every weight is a sum of `u32 + u32` engagement
/// weights, an integer far below 2^53, so adding and subtracting day
/// tallies is exact in any order — the sums equal a fresh count of the
/// same days bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct TermWeights<K> {
    by_term: HashMap<K, f64>,
    total: f64,
}

impl<K> Default for TermWeights<K> {
    fn default() -> TermWeights<K> {
        TermWeights {
            by_term: HashMap::new(),
            total: 0.0,
        }
    }
}

impl<K: Hash + Eq + Clone> TermWeights<K> {
    /// Add one day's tally.
    pub(crate) fn add(&mut self, day: &[(K, f64)]) {
        for (term, w) in day {
            match self.by_term.get_mut(term) {
                Some(sum) => *sum += w,
                None => {
                    self.by_term.insert(term.clone(), *w);
                }
            }
            self.total += w;
        }
    }

    /// Subtract a tally added earlier, dropping the terms it brought in:
    /// weights are positive, so a term whose sum reaches zero is absent.
    fn sub(&mut self, day: &[(K, f64)]) {
        for (term, w) in day {
            if let Some(sum) = self.by_term.get_mut(term) {
                *sum -= w;
                if *sum == 0.0 {
                    self.by_term.remove(term);
                }
            }
            self.total -= w;
        }
    }
}

/// A term that reached the novelty threshold in a window.
pub(crate) struct Flag<K> {
    pub term: K,
    /// Engagement weight in the window.
    pub weight: f64,
    /// Window share over historical share (+ floor).
    pub novelty: f64,
}

/// The sliding window over per-day tallies, shared by
/// [`EmergingTopicMiner::mine_run`] (terms keyed by interned id) and the
/// cluster router (terms keyed by string, summed across partitions).
///
/// The ring holds the tallies of the window's `window_days` days; their
/// sum is the window. A day's tally enters the window when the day does
/// and is subtracted when it leaves. With `step_days <= window_days` the
/// days leaving are exactly the days rolled into history, so history
/// reuses their tallies instead of recounting them. Days are tallied only
/// when a window ending on or before `end` needs them.
pub(crate) struct Slide<'h, K> {
    miner: EmergingTopicMiner,
    history: &'h mut TermWeights<K>,
    /// Start of the next window to evaluate.
    pub cursor: Date,
    end: Date,
    ring: VecDeque<DayTally<K>>,
    window: TermWeights<K>,
}

impl<'h, K: Hash + Eq + Clone> Slide<'h, K> {
    /// A slide whose first window starts at `cursor` and whose last window
    /// ends on or before `end`. The miner must have passed
    /// [`EmergingTopicMiner::check`].
    pub(crate) fn new(
        miner: &EmergingTopicMiner,
        history: &'h mut TermWeights<K>,
        cursor: Date,
        end: Date,
    ) -> Slide<'h, K> {
        debug_assert!(miner.check().is_ok(), "unchecked miner configuration");
        Slide {
            miner: *miner,
            history,
            cursor,
            end,
            ring: VecDeque::with_capacity(miner.window_days as usize),
            window: TermWeights::default(),
        }
    }

    /// Evaluate the window at the cursor, roll its first `step_days` days
    /// into history and advance: `(window start, window end, flags)`, or
    /// `None` once the window would end after `end`. `tally` yields one
    /// day's tally; `detected` says whether a term was flagged before (it
    /// is not flagged again).
    pub(crate) fn next_window(
        &mut self,
        mut tally: impl FnMut(Date) -> DayTally<K>,
        detected: impl Fn(&K) -> bool,
    ) -> Option<(Date, Date, Vec<Flag<K>>)> {
        /// Share floor: the share a never-seen term is treated as having had.
        const SHARE_FLOOR: f64 = 0.002;
        let win_start = self.cursor;
        let win_end = win_start.offset(self.miner.window_days - 1);
        if win_end > self.end {
            return None;
        }
        while self.ring.len() < self.miner.window_days as usize {
            let day = tally(win_start.offset(self.ring.len() as i32));
            self.window.add(&day);
            self.ring.push_back(day);
        }
        let window_total = self.window.total.max(1.0);
        let history_total = self.history.total.max(1.0);
        let mut flags = Vec::new();
        for (term, &weight) in &self.window.by_term {
            if weight < self.miner.min_weight || detected(term) {
                continue;
            }
            let hist_share = self.history.by_term.get(term).copied().unwrap_or(0.0) / history_total;
            let novelty = (weight / window_total) / (hist_share + SHARE_FLOOR);
            if novelty >= self.miner.min_novelty {
                flags.push(Flag {
                    term: term.clone(),
                    weight,
                    novelty,
                });
            }
        }
        // Roll the oldest step into history.
        for _ in 0..self.miner.step_days {
            let day = self.ring.pop_front().expect("step_days <= window_days");
            self.window.sub(&day);
            self.history.add(&day);
        }
        self.cursor = win_start.offset(self.miner.step_days);
        Some((win_start, win_end, flags))
    }
}

/// The interned miner's resumable position: everything
/// [`EmergingTopicMiner::mine_run`] needs to evaluate the next window.
/// The window itself is not carried: a run re-tallies the days of its
/// first window from the post chain. Dates strictly after
/// `max(end, start + window_days − 1)` (the evaluated windows and the
/// history pre-load) have not influenced any of it, which is what lets
/// [`crate::views::EmergingTopicsView`] carry one settled at the forum's
/// last day minus one across an append of posts dated on or after the
/// last mined day, and resume instead of re-mining history. Posts dated
/// earlier, or inside the pre-load window, force a rebuild.
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
    pub history: TermWeights<u32>,
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
    use crate::chunks::Chunks;
    use crate::oracle;
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

    /// A forum built to trip the sliding window: a generated spring 2022
    /// (the roaming burst included) with a 10-day hole, every seventh
    /// post's engagement zeroed, and a burst of positive posts titled with
    /// a word ending in `Σ`, which `str::to_lowercase` turns into a final
    /// `ς` while the tokenizer's per-char lowering keeps `σ` — so the
    /// term flags but no post contains it. Returned as a three-chunk chain
    /// whose chunks run newest-dates-first, so document order is not date
    /// order.
    fn edge_chain() -> Chunks<Post> {
        let mut posts = generate(&ForumConfig {
            start: d(2022, 1, 1),
            end: d(2022, 4, 30),
            authors: 600,
            ..ForumConfig::default()
        })
        .posts;
        posts.retain(|p| p.date < d(2022, 1, 20) || p.date > d(2022, 1, 29));
        for (i, p) in posts.iter_mut().enumerate() {
            if i % 7 == 3 {
                p.upvotes = 0;
                p.comments = 0;
            }
        }
        let template = posts[0].clone();
        for day in 0..6u8 {
            for k in 0..=day {
                posts.push(Post {
                    date: d(2022, 3, 10 + day),
                    title: "ΣΊΣΥΦΟΣ dish".to_string(),
                    body: format!("love it, great speeds {k}"),
                    upvotes: 600,
                    comments: u32::from(k),
                    ..template.clone()
                });
            }
        }
        posts.sort_by_key(|p| p.date);
        let third = posts.len() / 3;
        let newest = posts.split_off(2 * third);
        let middle = posts.split_off(third);
        Chunks::from_vec(newest).extended(posts).extended(middle)
    }

    /// The interned miner walks exactly the string oracle's windows off
    /// the default configuration too: every value, polarity included, is
    /// bit-identical.
    #[test]
    fn sliding_window_matches_the_oracle_for_every_step() {
        let chain = edge_chain();
        let flat = Forum {
            posts: chain.to_vec(),
        };
        assert!(
            flat.posts.windows(2).any(|w| w[0].date > w[1].date),
            "the chain must be out of date order"
        );
        let corpus = flat.token_corpus(1);
        for (window_days, step_days) in [(7, 1), (7, 3), (7, 7), (3, 2), (1, 1)] {
            let miner = EmergingTopicMiner {
                window_days,
                step_days,
                min_novelty: 4.0,
                min_weight: 40.0,
            };
            let interned = miner.mine_interned(&chain, &corpus).unwrap();
            assert!(
                interned.len() >= 5,
                "({window_days}, {step_days}) flags too little to compare: {interned:?}"
            );
            let sigma = interned
                .iter()
                .find(|t| t.term == "σίσυφοσ")
                .unwrap_or_else(|| panic!("the Σ burst flags: {interned:#?}"));
            assert_eq!(
                sigma.polarity, 0.0,
                "no post contains the per-char lowering"
            );
            assert!(
                interned.iter().any(|t| t.polarity != 0.0),
                "some flagged term must carry a polarity"
            );
            assert_eq!(
                format!("{interned:?}"),
                format!("{:?}", oracle::mine(&miner, &flat).unwrap()),
                "window {window_days}, step {step_days}"
            );
        }
    }

    /// Configurations the window cannot slide with are rejected before
    /// any window runs, by every miner entry point: a non-positive step
    /// would never advance, a step past the window would roll unread days
    /// into history.
    fn assert_rejected(window_days: i32, step_days: i32) {
        let miner = EmergingTopicMiner {
            window_days,
            step_days,
            ..EmergingTopicMiner::default()
        };
        let forum = forum();
        let corpus = forum.token_corpus(2);
        let rejected = |r: Result<Vec<EmergingTopic>, AnalyticsError>| {
            matches!(r, Err(AnalyticsError::InvalidParameter(_)))
        };
        assert!(rejected(miner.mine(forum)));
        assert!(rejected(miner.mine_interned(forum, &corpus)));
        assert!(rejected(oracle::mine(&miner, forum)));
        assert!(matches!(
            miner.mine_start(forum, &corpus),
            Err(AnalyticsError::InvalidParameter(_))
        ));
        // The configuration is checked before the forum is looked at.
        assert!(rejected(miner.mine(&Forum::default())));
    }

    #[test]
    fn zero_step_is_rejected() {
        assert_rejected(7, 0);
    }

    #[test]
    fn negative_step_is_rejected() {
        assert_rejected(7, -2);
    }

    #[test]
    fn step_longer_than_the_window_is_rejected() {
        assert_rejected(7, 8);
    }

    #[test]
    fn empty_window_is_rejected() {
        assert_rejected(0, 1);
    }

    #[test]
    fn negative_window_is_rejected() {
        assert_rejected(-7, -7);
    }
}

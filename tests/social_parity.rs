//! Interned/string parity suite for the §4 social pipeline.
//!
//! The tokenize-once substrate ([`sentiment::TokenCorpus`] and every
//! consumer routed through it) is the only implementation the service and
//! the public §4 entry points run. It promises **output-identical**
//! results to the string-based bodies kept in [`usaas::oracle`]: the
//! corpus stores exactly the tokens `tokenize(post.text())` would produce,
//! the ID-space lexicon tables mirror [`sentiment::Lexicon`] lookup for
//! lookup, and each interned consumer accumulates in the same order as its
//! string oracle — so every floating-point operation happens on the same
//! values in the same sequence. These tests pin that contract on a seeded
//! forum across worker counts 1/4, plus empty/unicode/apostrophe edges and
//! a property sweep over arbitrary text.
//!
//! `EmergingTopicMiner` and its string oracle both order detections by
//! `(date, term)` (`sort_detections`), so same-day flags come back in the
//! same order on both paths; the miner comparison still sorts by that key
//! first, which is then a no-op. Every value is compared exactly.

use analytics::time::{Date, Month};
use sentiment::analyzer::STRONG_THRESHOLD;
use sentiment::corpus::CompiledDict;
use sentiment::keywords::KeywordDictionary;
use sentiment::tokenize::tokenize;
use sentiment::{SentimentAnalyzer, SentimentScores, TokenCorpus, WordCloud};
use social::generator::{generate as gen_forum, ForumConfig};
use social::post::{Forum, Post, PostTopic, SentimentClass};
use std::sync::OnceLock;
use usaas::annotate::PeakAnnotator;
use usaas::emerging::{EmergingTopic, EmergingTopicMiner};
use usaas::fulcrum::FulcrumAnalysis;
use usaas::oracle;
use usaas::outage::OutageDetector;

/// Worker counts exercised everywhere: the inline single-chunk path and a
/// multi-chunk fan-out.
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn forum() -> &'static Forum {
    static F: OnceLock<Forum> = OnceLock::new();
    F.get_or_init(|| {
        gen_forum(&ForumConfig {
            authors: 1500,
            ..ForumConfig::default()
        })
    })
}

fn corpus() -> &'static TokenCorpus {
    static C: OnceLock<TokenCorpus> = OnceLock::new();
    C.get_or_init(|| forum().token_corpus(4))
}

/// A tiny hand-built forum hitting the awkward text shapes: empty title,
/// empty body, fully empty post, unicode (multi-char lowercase expansions
/// included), apostrophes at token boundaries, and sentiment-free text.
fn edge_forum() -> Forum {
    let post = |day: u8, title: &str, body: &str| Post {
        id: u64::from(day),
        date: Date::from_ymd(2022, 4, day).unwrap(),
        author_id: 7,
        country: "US",
        title: title.to_string(),
        body: body.to_string(),
        upvotes: 12,
        comments: 3,
        screenshot: None,
        topic: PostTopic::General,
        intended: SentimentClass::Neutral,
    };
    Forum {
        posts: vec![
            post(1, "", ""),
            post(1, "Outage again", ""),
            post(2, "", "everything went down, not happy"),
            post(2, "İstanbul ÜBER Köln", "STRAẞE Große naïve test"),
            post(3, "don't can't won’t", "the fix'd thing's fine'"),
            post(3, "   \t\n ", "a b c"),
            post(4, "ΣΊΣΥΦΟΣ network", "МОСКВА Скорость ОТЛИЧНО 100Mbps"),
            post(4, "no internet no internet", "went down and still down"),
        ],
    }
}

fn assert_scores_bit_identical(a: SentimentScores, b: SentimentScores, ctx: &str) {
    for (x, y, field) in [
        (a.positive, b.positive, "positive"),
        (a.negative, b.negative, "negative"),
        (a.neutral, b.neutral, "neutral"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{field} bits differ: {ctx}");
    }
}

#[test]
fn corpus_is_invariant_over_worker_counts() {
    let reference = forum().token_corpus(1);
    for workers in [2, 3, 4, 16] {
        let par = forum().token_corpus(workers);
        assert_eq!(reference.docs(), par.docs(), "workers {workers}");
        assert_eq!(
            reference.total_tokens(),
            par.total_tokens(),
            "workers {workers}"
        );
        assert_eq!(
            reference.vocab().len(),
            par.vocab().len(),
            "workers {workers}"
        );
        for i in 0..reference.docs() {
            assert_eq!(reference.doc(i), par.doc(i), "doc {i} workers {workers}");
        }
        for id in 0..reference.vocab().len() as u32 {
            assert_eq!(
                reference.vocab().word(id),
                par.vocab().word(id),
                "id {id} workers {workers}"
            );
        }
    }
}

#[test]
fn corpus_tokens_match_the_string_tokenizer() {
    let corpus = corpus();
    assert_eq!(corpus.docs(), forum().len());
    for (i, post) in forum().posts.iter().enumerate() {
        assert_eq!(corpus.doc_words(i), tokenize(&post.text()), "post {i}");
    }
}

#[test]
fn sentiment_scores_are_bit_identical() {
    let analyzer = SentimentAnalyzer::default();
    let reference: Vec<SentimentScores> = forum()
        .posts
        .iter()
        .map(|p| analyzer.score(&p.text()))
        .collect();
    for workers in WORKER_COUNTS {
        let interned = analyzer.score_corpus(corpus(), workers);
        assert_eq!(reference.len(), interned.len());
        for (i, (r, s)) in reference.iter().zip(&interned).enumerate() {
            assert_scores_bit_identical(*r, *s, &format!("post {i} workers {workers}"));
        }
    }
    // The strong-post counts (what Fig. 5 actually consumes) follow.
    let strong = |v: &[SentimentScores]| -> (usize, usize) {
        (
            v.iter().filter(|s| s.positive >= STRONG_THRESHOLD).count(),
            v.iter().filter(|s| s.negative >= STRONG_THRESHOLD).count(),
        )
    };
    assert_eq!(
        strong(&reference),
        strong(&analyzer.score_corpus(corpus(), 4))
    );
}

#[test]
fn keyword_counts_are_identical() {
    let dict = KeywordDictionary::outages();
    let compiled = CompiledDict::compile(&dict, corpus().vocab());
    let reference: Vec<usize> = forum()
        .posts
        .iter()
        .map(|p| dict.count_matches(&p.text()))
        .collect();
    for workers in WORKER_COUNTS {
        assert_eq!(
            reference,
            compiled.count_corpus(corpus(), workers),
            "workers {workers}"
        );
    }
}

#[test]
fn day_clouds_are_identical() {
    let annotator = PeakAnnotator::default();
    let (start, end) = forum().date_range().unwrap();
    // A spread of days incl. the Apr 22 '22 outage and the empty day after
    // the corpus ends.
    let days = [
        start,
        start.offset(100),
        Date::from_ymd(2022, 4, 22).unwrap(),
        end,
        end.offset(1),
    ];
    for date in days {
        let reference = oracle::day_cloud(forum(), date, 30);
        let interned = annotator.day_cloud_interned(forum(), corpus(), date, 30);
        assert_eq!(reference, interned, "cloud mismatch on {date}");
    }
    // And the plain WordCloud entry point over an arbitrary doc subset.
    let texts: Vec<String> = forum().posts[10..60].iter().map(|p| p.text()).collect();
    let reference = WordCloud::from_documents(texts.iter().map(String::as_str), 25);
    let interned = WordCloud::from_corpus_docs(corpus(), 10..60, 25);
    assert_eq!(reference, interned);
}

#[test]
fn outage_detection_is_identical() {
    let det = OutageDetector::default();
    let ref_series = oracle::keyword_series(&det, forum()).unwrap();
    let ref_detections = oracle::detect(&det, forum()).unwrap();
    for workers in WORKER_COUNTS {
        let series = det
            .keyword_series_interned(forum(), corpus(), workers)
            .unwrap();
        assert_eq!(
            format!("{ref_series:?}"),
            format!("{series:?}"),
            "keyword series mismatch (workers {workers})"
        );
        assert_eq!(
            ref_detections,
            det.detect_interned(forum(), corpus(), workers).unwrap(),
            "detections mismatch (workers {workers})"
        );
    }
    // The ablation (no negative filter) too.
    let ablated = OutageDetector {
        negative_filter: false,
        ..OutageDetector::default()
    };
    assert_eq!(
        oracle::detect(&ablated, forum()).unwrap(),
        ablated.detect_interned(forum(), corpus(), 4).unwrap()
    );
}

#[test]
fn annotated_peaks_are_identical() {
    let annotator = PeakAnnotator::default();
    let ref_series = oracle::sentiment_series(&annotator, forum()).unwrap();
    let reference = oracle::annotate(&annotator, forum(), 5).unwrap();
    for workers in WORKER_COUNTS {
        let series = annotator
            .sentiment_series_interned(forum(), corpus(), workers)
            .unwrap();
        assert_eq!(
            format!("{ref_series:?}"),
            format!("{series:?}"),
            "sentiment series mismatch (workers {workers})"
        );
        let interned = annotator
            .annotate_interned(forum(), corpus(), 5, workers)
            .unwrap();
        assert_eq!(
            format!("{reference:?}"),
            format!("{interned:?}"),
            "annotated peaks mismatch (workers {workers})"
        );
    }
}

/// Sort key making the miner's same-day flag order deterministic.
fn topic_key(t: &EmergingTopic) -> (Date, String) {
    (t.first_flagged, t.term.clone())
}

#[test]
fn emerging_topics_are_identical() {
    let miner = EmergingTopicMiner::default();
    let mut reference = oracle::mine(&miner, forum()).unwrap();
    let mut interned = miner.mine_interned(forum(), corpus()).unwrap();
    reference.sort_by_key(topic_key);
    interned.sort_by_key(topic_key);
    // Every field compares exactly: window/history weights are sums of
    // integer-valued engagement weights, so shares and novelty ratios are
    // computed on identical values in both paths.
    assert_eq!(reference, interned);
}

#[test]
fn fulcrum_series_is_identical() {
    let analysis = FulcrumAnalysis::default();
    let start = Month::new(2021, 1).unwrap();
    let end = Month::new(2022, 12).unwrap();
    let reference = oracle::analyze(&analysis, forum(), start, end).unwrap();
    let interned = analysis
        .analyze_interned(forum(), corpus(), start, end)
        .unwrap();
    assert_eq!(reference, interned);
}

#[test]
fn edge_forum_agrees_everywhere() {
    let forum = edge_forum();
    let analyzer = SentimentAnalyzer::default();
    let dict = KeywordDictionary::outages();
    for workers in WORKER_COUNTS {
        let corpus = forum.token_corpus(workers);
        assert_eq!(corpus.docs(), forum.len());
        let compiled = CompiledDict::compile(&dict, corpus.vocab());
        let scores = analyzer.score_corpus(&corpus, workers);
        for (i, post) in forum.posts.iter().enumerate() {
            let text = post.text();
            assert_eq!(
                corpus.doc_words(i),
                tokenize(&text),
                "tokens, post {i} workers {workers}"
            );
            assert_scores_bit_identical(
                analyzer.score(&text),
                scores[i],
                &format!("edge post {i} workers {workers}"),
            );
            assert_eq!(
                dict.count_matches(&text),
                compiled.count_ids(corpus.doc(i)),
                "keyword count, post {i} workers {workers}"
            );
        }
        // The empty post scores neutral through both paths.
        assert_eq!(scores[0], SentimentScores::neutral());
        // Detector/annotator run end to end on the edge corpus too.
        let det = OutageDetector::default();
        assert_eq!(
            oracle::detect(&det, &forum).unwrap(),
            det.detect_interned(&forum, &corpus, workers).unwrap()
        );
        let annotator = PeakAnnotator::default();
        assert_eq!(
            format!(
                "{:?}",
                oracle::sentiment_series(&annotator, &forum).unwrap()
            ),
            format!(
                "{:?}",
                annotator
                    .sentiment_series_interned(&forum, &corpus, workers)
                    .unwrap()
            )
        );
    }
}

#[test]
fn empty_forum_edges_agree() {
    let forum = Forum::default();
    let corpus = forum.token_corpus(4);
    assert!(corpus.is_empty());
    let det = OutageDetector::default();
    assert_eq!(
        format!("{:?}", oracle::keyword_series(&det, &forum).err()),
        format!(
            "{:?}",
            det.keyword_series_interned(&forum, &corpus, 4).err()
        )
    );
    let annotator = PeakAnnotator::default();
    assert_eq!(
        format!("{:?}", oracle::annotate(&annotator, &forum, 3).err()),
        format!(
            "{:?}",
            annotator.annotate_interned(&forum, &corpus, 3, 4).err()
        )
    );
    let miner = EmergingTopicMiner::default();
    assert_eq!(
        format!("{:?}", oracle::mine(&miner, &forum).err()),
        format!("{:?}", miner.mine_interned(&forum, &corpus).err())
    );
    let fulcrum = FulcrumAnalysis::default();
    let (start, end) = (Month::new(2021, 1).unwrap(), Month::new(2021, 3).unwrap());
    assert_eq!(
        format!("{:?}", oracle::analyze(&fulcrum, &forum, start, end).err()),
        format!(
            "{:?}",
            fulcrum.analyze_interned(&forum, &corpus, start, end).err()
        )
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    use sentiment::NgramCounts;

    proptest! {
        /// The interned pipeline matches the string pipeline on arbitrary
        /// text: token sequence, sentiment score, keyword counts, top-k.
        #[test]
        fn interned_matches_string_pipeline(
            texts in prop::collection::vec(".{0,200}", 0..12),
            workers in 1usize..5,
        ) {
            let corpus = TokenCorpus::from_texts(&texts, workers);
            prop_assert_eq!(corpus.docs(), texts.len());
            let analyzer = SentimentAnalyzer::default();
            let dict = KeywordDictionary::outages();
            let compiled = CompiledDict::compile(&dict, corpus.vocab());
            let scores = analyzer.score_corpus(&corpus, workers);
            let mut str_counts = NgramCounts::new();
            let mut id_counts = sentiment::IdNgramCounts::new();
            for (i, text) in texts.iter().enumerate() {
                // Same token sequence…
                prop_assert_eq!(corpus.doc_words(i), tokenize(text));
                // …same sentiment score, to the bit…
                let reference = analyzer.score(text);
                prop_assert_eq!(reference.positive.to_bits(), scores[i].positive.to_bits());
                prop_assert_eq!(reference.negative.to_bits(), scores[i].negative.to_bits());
                prop_assert_eq!(reference.neutral.to_bits(), scores[i].neutral.to_bits());
                // …same keyword match count…
                prop_assert_eq!(dict.count_matches(text), compiled.count_ids(corpus.doc(i)));
                str_counts.add_weighted(text, 1.0 + i as f64);
                id_counts.add_unigrams(&corpus, i, 1.0 + i as f64);
            }
            // …and the same weighted top-k n-grams.
            prop_assert_eq!(
                str_counts.top_k(10),
                id_counts.top_k(corpus.vocab(), 10)
            );
        }

        /// Worker count never changes the corpus.
        #[test]
        fn corpus_construction_is_deterministic(
            texts in prop::collection::vec(".{0,120}", 0..16),
        ) {
            let one = TokenCorpus::from_texts(&texts, 1);
            let par = TokenCorpus::from_texts(&texts, 4);
            prop_assert_eq!(one.docs(), par.docs());
            prop_assert_eq!(one.vocab().len(), par.vocab().len());
            for i in 0..one.docs() {
                prop_assert_eq!(one.doc(i), par.doc(i));
            }
        }
    }
}

mod service_level {
    use super::*;
    use conference::dataset::{generate, DatasetConfig};
    use usaas::service::{Answer, Query, UsaasService};

    fn small_service() -> UsaasService {
        let dataset = generate(&DatasetConfig::small(400, 21));
        let forum = gen_forum(&ForumConfig {
            authors: 800,
            ..ForumConfig::default()
        });
        UsaasService::build(dataset, forum, 4)
    }

    /// Every §4 service query answers identically to the string-based
    /// reference computed directly over the service's own forum (its post
    /// chain copied flat, in order, for the `&Forum` oracle).
    #[test]
    fn service_social_answers_match_string_paths() {
        let svc = small_service();
        let snap = svc.snapshot();
        let forum = &Forum {
            posts: snap.forum().to_vec(),
        };

        let Answer::Outages(outages) = svc.query(&Query::OutageTimeline).unwrap() else {
            panic!("wrong answer type");
        };
        assert_eq!(
            outages,
            oracle::detect(&OutageDetector::default(), forum).unwrap()
        );

        let Answer::Peaks(peaks) = svc.query(&Query::SentimentPeaks { k: 3 }).unwrap() else {
            panic!("wrong answer type");
        };
        let reference = oracle::annotate(&PeakAnnotator::default(), forum, 3).unwrap();
        assert_eq!(format!("{peaks:?}"), format!("{reference:?}"));

        let Answer::Topics(mut topics) = svc.query(&Query::EmergingTopics).unwrap() else {
            panic!("wrong answer type");
        };
        let mut reference = oracle::mine(&EmergingTopicMiner::default(), forum).unwrap();
        topics.sort_by_key(topic_key);
        reference.sort_by_key(topic_key);
        assert_eq!(topics, reference);

        let Answer::Speeds(speeds) = svc.query(&Query::SpeedTrend).unwrap() else {
            panic!("wrong answer type");
        };
        let (first, last) = forum
            .date_range()
            .map(|(a, b)| (a.month(), b.month()))
            .unwrap();
        let reference = oracle::analyze(&FulcrumAnalysis::default(), forum, first, last).unwrap();
        assert_eq!(speeds, reference);
    }

    #[test]
    fn service_corpus_is_memoized_and_worker_invariant() {
        let svc = small_service();
        let snap = svc.snapshot();
        let a = snap.social_corpus() as *const TokenCorpus;
        let _ = svc.query(&Query::OutageTimeline);
        let b = snap.social_corpus() as *const TokenCorpus;
        assert_eq!(a, b, "corpus must build once per generation");
        // A service built with a different worker budget holds the same
        // corpus content.
        let single = UsaasService::build(
            generate(&DatasetConfig::small(50, 21)),
            Forum {
                posts: snap.forum().to_vec(),
            },
            1,
        );
        let single_snap = single.snapshot();
        let (c1, c4) = (single_snap.social_corpus(), snap.social_corpus());
        assert_eq!(c1.docs(), c4.docs());
        assert_eq!(c1.total_tokens(), c4.total_tokens());
        for i in 0..c1.docs() {
            assert_eq!(c1.doc(i), c4.doc(i), "doc {i}");
        }
    }
}

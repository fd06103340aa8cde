//! Criterion benches for the §4 (social) pipeline: corpus generation, every
//! figure's analysis, and the strong-threshold / negative-filter ablations.

use analytics::time::Month;
use bench::bench_forum;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sentiment::analyzer::SentimentAnalyzer;
use sentiment::corpus::CompiledDict;
use sentiment::keywords::KeywordDictionary;
use sentiment::wordcloud::WordCloud;
use social::generator::{generate, ForumConfig};
use social::post::Forum;
use std::hint::black_box;
use usaas::annotate::PeakAnnotator;
use usaas::emerging::EmergingTopicMiner;
use usaas::fulcrum::FulcrumAnalysis;
use usaas::outage::OutageDetector;

fn bench_forum_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("forum_generation");
    group.sample_size(10);
    for days in [30i32, 120] {
        group.bench_with_input(BenchmarkId::from_parameter(days), &days, |b, &days| {
            b.iter(|| {
                let mut cfg = ForumConfig::default();
                cfg.end = cfg.start.offset(days);
                cfg.authors = 1500;
                black_box(generate(&cfg).len())
            });
        });
    }
    group.finish();
}

/// The first 2000 posts of the bench forum as their own corpus, so the
/// string and interned variants sweep exactly the same documents.
fn sub_forum_2000() -> Forum {
    let forum = bench_forum();
    Forum {
        posts: forum.posts.into_iter().take(2000).collect(),
    }
}

/// How the `interned` variants read their input: the corpus is built once
/// outside the timing loop — the tokenize-once contract — exactly as
/// `UsaasService` memoizes it across queries.
fn bench_corpus_build(c: &mut Criterion) {
    let forum = sub_forum_2000();
    let texts: Vec<String> = forum.posts.iter().map(|p| p.text()).collect();
    let mut group = c.benchmark_group("corpus_build_2000_posts");
    group.sample_size(20);
    // Baseline: what every string-path consumer pays per pass (tokenize
    // each document, no interning).
    group.bench_function("string_tokenize", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for t in &texts {
                tokens += sentiment::tokenize::tokenize(black_box(t)).len();
            }
            black_box(tokens)
        });
    });
    for workers in [1usize, 4] {
        group.bench_function(format!("interned_{workers}w"), |b| {
            b.iter(|| black_box(forum.token_corpus(workers).total_tokens()));
        });
    }
    group.finish();
}

fn bench_sentiment_analyzer(c: &mut Criterion) {
    let forum = sub_forum_2000();
    let texts: Vec<String> = forum.posts.iter().map(|p| p.text()).collect();
    let corpus = forum.token_corpus(4);
    let analyzer = SentimentAnalyzer::default();
    let mut group = c.benchmark_group("sentiment_score_2000_posts");
    group.bench_function("string", |b| {
        b.iter(|| {
            for t in &texts {
                black_box(analyzer.score(black_box(t)));
            }
        });
    });
    group.bench_function("interned", |b| {
        b.iter(|| {
            let vocab = corpus.vocab();
            for i in 0..corpus.docs() {
                black_box(analyzer.score_ids(black_box(corpus.doc(i)), vocab));
            }
        });
    });
    group.bench_function("interned_par4", |b| {
        b.iter(|| black_box(analyzer.score_corpus(black_box(&corpus), 4)));
    });
    group.finish();
}

fn bench_keyword_matcher(c: &mut Criterion) {
    let forum = sub_forum_2000();
    let texts: Vec<String> = forum.posts.iter().map(|p| p.text()).collect();
    let corpus = forum.token_corpus(4);
    let dict = KeywordDictionary::outages();
    let compiled = CompiledDict::compile(&dict, corpus.vocab());
    let mut group = c.benchmark_group("keyword_match_2000_posts");
    group.bench_function("string", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for t in &texts {
                total += dict.count_matches(black_box(t));
            }
            black_box(total)
        });
    });
    group.bench_function("interned", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut scratch = Vec::new();
            for i in 0..corpus.docs() {
                total += compiled.count_ids_with(black_box(corpus.doc(i)), &mut scratch);
            }
            black_box(total)
        });
    });
    group.bench_function("interned_par4", |b| {
        b.iter(|| black_box(compiled.count_corpus(black_box(&corpus), 4)));
    });
    group.finish();
}

fn bench_wordcloud(c: &mut Criterion) {
    let forum = sub_forum_2000();
    let texts: Vec<String> = forum.posts.iter().map(|p| p.text()).collect();
    let corpus = forum.token_corpus(4);
    let mut group = c.benchmark_group("wordcloud_2000_posts");
    group.bench_function("string", |b| {
        b.iter(|| {
            black_box(WordCloud::from_documents(
                texts.iter().map(String::as_str),
                50,
            ))
        });
    });
    group.bench_function("interned", |b| {
        b.iter(|| black_box(WordCloud::from_corpus_docs(&corpus, 0..corpus.docs(), 50)));
    });
    group.finish();
}

fn bench_ocr_extract(c: &mut Criterion) {
    let forum = bench_forum();
    let shots: Vec<String> = forum
        .speed_shares()
        .map(|p| p.screenshot.as_ref().unwrap().ocr_text.clone())
        .collect();
    assert!(!shots.is_empty());
    c.bench_function("ocr_extract_all_screenshots", |b| {
        b.iter(|| {
            let mut recovered = 0usize;
            for s in &shots {
                if ocr::extract::extract(black_box(s)).has_downlink() {
                    recovered += 1;
                }
            }
            black_box(recovered)
        });
    });
}

fn bench_fig5_annotate(c: &mut Criterion) {
    let forum = bench_forum();
    let annotator = PeakAnnotator::default();
    let mut group = c.benchmark_group("fig5_sentiment_peaks");
    group.sample_size(10);
    group.bench_function("annotate", |b| {
        b.iter(|| black_box(annotator.annotate(black_box(&forum), 3).expect("peaks")));
    });
    group.finish();
}

fn bench_fig6_detect(c: &mut Criterion) {
    let forum = bench_forum();
    let mut group = c.benchmark_group("fig6_outage_detection");
    group.sample_size(10);
    // Ablation: the paper's negative-sentiment filter on vs off.
    for (name, negative_filter) in [("with_negative_filter", true), ("without_filter", false)] {
        let detector = OutageDetector {
            negative_filter,
            ..OutageDetector::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(detector.detect(black_box(&forum)).expect("detect")));
        });
    }
    group.finish();
}

fn bench_fig7_fulcrum(c: &mut Criterion) {
    let forum = bench_forum();
    let analysis = FulcrumAnalysis {
        min_reports: 3,
        ..FulcrumAnalysis::default()
    };
    let start = Month::new(2021, 1).expect("month");
    let end = Month::new(2021, 4).expect("month");
    let mut group = c.benchmark_group("fig7_speeds");
    group.sample_size(10);
    group.bench_function("analyze", |b| {
        b.iter(|| {
            black_box(
                analysis
                    .analyze(black_box(&forum), start, end)
                    .expect("series"),
            )
        });
    });
    group.finish();
}

fn bench_emerging_topics(c: &mut Criterion) {
    let forum = bench_forum();
    let miner = EmergingTopicMiner::default();
    let mut group = c.benchmark_group("stats_roaming");
    group.sample_size(10);
    group.bench_function("mine", |b| {
        b.iter(|| black_box(miner.mine(black_box(&forum)).expect("topics")));
    });
    // The mining core alone: `mine` above also tokenizes the forum on
    // every iteration.
    let corpus = forum.token_corpus(1);
    group.bench_function("mine_interned", |b| {
        b.iter(|| {
            black_box(
                miner
                    .mine_interned(black_box(&forum), &corpus)
                    .expect("topics"),
            )
        });
    });
    group.finish();
}

/// Ablation: strong-sentiment threshold sweep — how the Fig. 5a strong-post
/// counts respond to the ≥ 0.7 choice.
fn bench_strong_threshold_sweep(c: &mut Criterion) {
    let forum = bench_forum();
    let analyzer = SentimentAnalyzer::default();
    let corpus = forum.token_corpus(4);
    let scores: Vec<sentiment::analyzer::SentimentScores> = analyzer.score_corpus(&corpus, 4);
    let mut group = c.benchmark_group("strong_threshold_sweep");
    for threshold in [0.6f64, 0.7, 0.8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &threshold| {
                b.iter(|| {
                    let strong = scores
                        .iter()
                        .filter(|s| s.positive >= threshold || s.negative >= threshold)
                        .count();
                    black_box(strong)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forum_generation,
    bench_corpus_build,
    bench_sentiment_analyzer,
    bench_keyword_matcher,
    bench_wordcloud,
    bench_ocr_extract,
    bench_fig5_annotate,
    bench_fig6_detect,
    bench_fig7_fulcrum,
    bench_emerging_topics,
    bench_strong_threshold_sweep,
);
criterion_main!(benches);

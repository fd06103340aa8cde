//! Routed-path kernel parity suite.
//!
//! The branchless columnar kernels ([`analytics::kernels`]) back every
//! hot scan in the service — engagement curves, compounding grids,
//! platform splits, MOS feature gathers, sentiment tallies, and the
//! cross-network report. Each kernel carries its own proptest twin in
//! `analytics`; these tests pin the *routed* contract end to end: the
//! service answers through the kernel paths bit-identically to plain
//! array-of-structs arithmetic written out in the tests (and, for the
//! sentiment series, to the string body in [`usaas::oracle`]), at worker
//! counts 1/4/8, down to the degenerate single-session and no-match
//! edges.

use analytics::time::Date;
use analytics::timeseries::DailySeries;
use conference::dataset::{generate, DatasetConfig};
use conference::records::{CallDataset, EngagementMetric, NetworkMetric};
use netsim::access::AccessType;
use sentiment::analyzer::SentimentAnalyzer;
use sentiment::corpus::TokenCorpus;
use social::generator::{generate as gen_forum, ForumConfig};
use social::post::Forum;
use starlink::constellation::{DeploymentPlanner, RegionalDemand};
use std::sync::OnceLock;
use usaas::service::country_lat_band;
use usaas::{Answer, FeatureSet, PeakAnnotator, Query, UsaasService};

const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

fn dataset() -> &'static CallDataset {
    static D: OnceLock<CallDataset> = OnceLock::new();
    D.get_or_init(|| generate(&DatasetConfig::small(2000, 0xC0DE)))
}

fn forum() -> &'static Forum {
    static F: OnceLock<Forum> = OnceLock::new();
    F.get_or_init(|| {
        gen_forum(&ForumConfig {
            authors: 150,
            end: Date::from_ymd(2021, 6, 30).unwrap(),
            ..ForumConfig::default()
        })
    })
}

/// Every kernel-routed query the service serves.
fn queries() -> Vec<Query> {
    let mut qs = vec![
        Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
            bins: 6,
        },
        Query::CompoundingGrid {
            engagement: EngagementMetric::CamOn,
            bins: 4,
        },
        Query::PlatformSensitivity {
            sweep: NetworkMetric::LossPct,
            engagement: EngagementMetric::MicOn,
        },
        Query::MosCorrelation,
        Query::PredictMos {
            features: FeatureSet::Full,
        },
        Query::SentimentPeaks { k: 3 },
        Query::SpeedTrend,
        Query::EmergingTopics,
        Query::OutageTimeline,
    ];
    qs.extend(AccessType::ALL.map(|access| Query::CrossNetwork { access }));
    qs
}

fn answers(svc: &UsaasService) -> Vec<String> {
    queries()
        .iter()
        .map(|q| format!("{q:?} => {:?}", svc.query(q)))
        .collect()
}

/// Worker counts 1/4/8 answer every kernel-routed query identically —
/// Debug formatting renders every float exactly, so string equality is
/// bit equality.
#[test]
fn routed_answers_are_bit_identical_across_worker_counts() {
    let baseline = answers(&UsaasService::build(dataset().clone(), forum().clone(), 1));
    for workers in &WORKER_COUNTS[1..] {
        let svc = UsaasService::build(dataset().clone(), forum().clone(), *workers);
        assert_eq!(
            baseline,
            answers(&svc),
            "workers {workers} diverged from the single-worker answers"
        );
    }
}

/// The cross-network report's masked means equal the array-of-structs
/// reference — filter the records by access type, then run the same
/// sequential `analytics::mean` fold the pre-kernel implementation used.
#[test]
fn cross_network_masked_means_match_aos_reference() {
    for access in AccessType::ALL {
        let rows: Vec<_> = dataset()
            .sessions
            .iter()
            .filter(|s| s.access == access)
            .collect();
        let others: Vec<f64> = dataset()
            .sessions
            .iter()
            .filter(|s| s.access != access)
            .map(|s| s.presence_pct)
            .collect();
        for workers in WORKER_COUNTS {
            let svc = UsaasService::build(dataset().clone(), forum().clone(), workers);
            let answer = svc.query(&Query::CrossNetwork { access });
            if rows.is_empty() {
                assert!(answer.is_err(), "{access:?}: no sessions must be an error");
                continue;
            }
            let Ok(Answer::CrossNetwork(report)) = answer else {
                panic!("{access:?}: unexpected answer {answer:?}");
            };
            assert_eq!(report.sessions, rows.len());
            let aos = |xs: Vec<f64>| analytics::mean(&xs).unwrap();
            assert_eq!(
                report.mean_presence,
                aos(rows.iter().map(|s| s.presence_pct).collect()),
                "{access:?} workers {workers}: presence mean"
            );
            assert_eq!(
                report.mean_mic_on,
                aos(rows.iter().map(|s| s.mic_on_pct).collect()),
                "{access:?} workers {workers}: mic mean"
            );
            assert_eq!(
                report.mean_cam_on,
                aos(rows.iter().map(|s| s.cam_on_pct).collect()),
                "{access:?} workers {workers}: cam mean"
            );
            let others_ref = analytics::mean(&others);
            match others_ref {
                Ok(m) => assert_eq!(report.others_presence, m),
                Err(_) => assert!(report.others_presence.is_nan()),
            }
        }
    }
}

/// A single-session dataset exercises the one-row masks and the
/// everything-filtered complement without panicking, identically at
/// every worker count.
#[test]
fn single_session_edges_are_consistent() {
    let mut tiny = generate(&DatasetConfig::small(1, 7));
    tiny.sessions.truncate(1);
    let access = tiny.sessions[0].access;
    // The outage join needs a forum; a small one keeps the focus on the
    // one-row telemetry masks.
    let small_forum = gen_forum(&ForumConfig {
        authors: 20,
        end: Date::from_ymd(2021, 3, 31).unwrap(),
        ..ForumConfig::default()
    });
    let mut prints = Vec::new();
    for workers in WORKER_COUNTS {
        let svc = UsaasService::build(tiny.clone(), small_forum.clone(), workers);
        let target = svc.query(&Query::CrossNetwork { access });
        let Ok(Answer::CrossNetwork(report)) = &target else {
            panic!("single session must answer its own access type: {target:?}");
        };
        assert_eq!(report.sessions, 1);
        assert!(
            report.others_presence.is_nan(),
            "empty complement mask must surface as NaN"
        );
        let miss = AccessType::ALL
            .into_iter()
            .find(|a| *a != access)
            .expect("more than one access type exists");
        assert!(
            svc.query(&Query::CrossNetwork { access: miss }).is_err(),
            "no-match mask must be a typed error"
        );
        prints.push(format!("{target:?}"));
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "single-session report must not depend on the worker count"
    );
}

/// The sentiment-peak daily series is tallied through the branchless
/// `masked_slot_counts` kernel (`series_from_scores`): the day offset is
/// the slot and the strong-sentiment predicates compile to row masks.
/// Pin it against an array-of-structs walk — score each post's
/// text, then `DailySeries::add` in post order with the reference
/// `else if` (a strong-positive post never also counts negative) — and
/// against the string oracle `oracle::sentiment_series`, at every worker count.
#[test]
fn sentiment_series_kernel_matches_aos_walk() {
    let forum = forum();
    let (start, end) = forum.date_range().expect("fixture forum is non-empty");
    let analyzer = SentimentAnalyzer::default();
    let mut pos = DailySeries::zeros(start, end).unwrap();
    let mut neg = DailySeries::zeros(start, end).unwrap();
    for post in &forum.posts {
        let s = analyzer.score(&post.text());
        if s.is_strong_positive() {
            pos.add(post.date, 1.0);
        } else if s.is_strong_negative() {
            neg.add(post.date, 1.0);
        }
    }
    let aos = format!("pos={pos:?} neg={neg:?}");
    let annotator = PeakAnnotator::default();
    let string_path = usaas::oracle::sentiment_series(&annotator, forum).unwrap();
    assert_eq!(
        aos,
        format!(
            "pos={:?} neg={:?}",
            string_path.strong_positive, string_path.strong_negative
        ),
        "string-path series diverged from the AoS walk"
    );
    for workers in WORKER_COUNTS {
        let texts: Vec<String> = forum.posts.iter().map(|p| p.text()).collect();
        let corpus = TokenCorpus::from_texts(&texts, workers);
        let series = annotator
            .sentiment_series_interned(forum, &corpus, workers)
            .unwrap();
        assert_eq!(
            aos,
            format!(
                "pos={:?} neg={:?}",
                series.strong_positive, series.strong_negative
            ),
            "workers {workers}: kernel series diverged from the AoS walk"
        );
    }
}

/// Deployment advice converts per-country strong-negative volume into the
/// planner's latitude-band demand through the `masked_slot_counts`
/// scatter (`sentiment_demand`), and the incremental `DeploymentView`
/// carries the same band counts across epochs. Pin both the view-served
/// and the cold fresh answer against the array-of-structs walk: score
/// each post's text, bump the country's band on strong-negative,
/// normalise, rank.
#[test]
fn deployment_demand_kernel_matches_aos_walk() {
    let forum = forum();
    let analyzer = SentimentAnalyzer::default();
    let mut weights = [0.0f64; 9];
    for post in &forum.posts {
        if analyzer.score(&post.text()).is_strong_negative() {
            weights[country_lat_band(post.country)] += 1.0;
        }
    }
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "fixture must carry strong-negative posts");
    for w in weights.iter_mut() {
        *w /= total;
    }
    let demand = RegionalDemand {
        band_weights: weights,
    };
    let expected = format!(
        "{:?}",
        Answer::Deployment(DeploymentPlanner::gen1().rank(&demand))
    );
    for workers in WORKER_COUNTS {
        let svc = UsaasService::build(dataset().clone(), forum.clone(), workers);
        let served = svc.query(&Query::DeploymentAdvice).unwrap();
        assert_eq!(
            expected,
            format!("{served:?}"),
            "workers {workers}: view-served advice diverged from the AoS walk"
        );
        let fresh = svc
            .snapshot()
            .answer_fresh(&Query::DeploymentAdvice)
            .unwrap();
        assert_eq!(
            expected,
            format!("{fresh:?}"),
            "workers {workers}: fresh advice diverged from the AoS walk"
        );
    }
}

/// The `DeploymentView` band counts survive appends: after a posts append
/// the O(delta) view update must answer identically to the AoS walk over
/// the *combined* forum.
#[test]
fn deployment_view_absorbs_appends_like_the_aos_walk() {
    let extra = gen_forum(&ForumConfig {
        seed: 9,
        authors: 40,
        end: Date::from_ymd(2021, 3, 31).unwrap(),
        ..ForumConfig::default()
    })
    .posts;
    let svc = UsaasService::build(dataset().clone(), forum().clone(), 4);
    svc.append_batch(Vec::new(), extra.clone());
    let analyzer = SentimentAnalyzer::default();
    let mut weights = [0.0f64; 9];
    for post in forum().posts.iter().chain(&extra) {
        if analyzer.score(&post.text()).is_strong_negative() {
            weights[country_lat_band(post.country)] += 1.0;
        }
    }
    let total: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= total;
    }
    let demand = RegionalDemand {
        band_weights: weights,
    };
    let expected = format!(
        "{:?}",
        Answer::Deployment(DeploymentPlanner::gen1().rank(&demand))
    );
    let served = svc.query(&Query::DeploymentAdvice).unwrap();
    assert_eq!(
        expected,
        format!("{served:?}"),
        "post-append view advice diverged from the combined AoS walk"
    );
}

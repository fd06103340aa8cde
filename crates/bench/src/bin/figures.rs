//! Regenerate every table and figure of the paper from the simulated
//! substrates and write them (text + CSV) under `results/`.
//!
//! ```sh
//! cargo run --release -p bench --bin figures [calls]
//! ```
//!
//! One section per experiment in DESIGN.md's index; EXPERIMENTS.md records
//! the paper-vs-measured comparison for a run of this binary.

use analytics::time::{Date, Month};
use bench::{figure_dataset, figure_forum, FIGURE_CALLS};
use conference::records::{EngagementMetric, NetworkMetric};
use netsim::access::AccessType;
use std::fmt::Write as _;
use std::fs;
use usaas::annotate::PeakAnnotator;
use usaas::correlate;
use usaas::emerging::EmergingTopicMiner;
use usaas::fulcrum::FulcrumAnalysis;
use usaas::outage::OutageDetector;
use usaas::predict::{train_and_evaluate, FeatureSet};
use usaas::report;
use usaas::service::{Answer, Query, UsaasService};

fn main() {
    let calls: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(FIGURE_CALLS);
    fs::create_dir_all("results").expect("create results dir");
    let mut summary = String::new();

    eprintln!("generating call dataset ({calls} calls)…");
    let dataset = figure_dataset(calls);
    eprintln!(
        "  {} sessions, {} rated",
        dataset.len(),
        dataset.rated_sessions().count()
    );
    eprintln!("generating forum corpus…");
    let forum = figure_forum();
    eprintln!(
        "  {} posts, {} speed shares",
        forum.len(),
        forum.speed_shares().count()
    );
    // Tokenized once; every §4 section below runs on this corpus.
    let corpus = forum.token_corpus(1);

    // ---- F1: the four engagement panels -------------------------------
    for (tag, sweep) in [
        ("fig1_latency", NetworkMetric::LatencyMs),
        ("fig1_loss", NetworkMetric::LossPct),
        ("fig1_jitter", NetworkMetric::JitterMs),
        ("fig1_bandwidth", NetworkMetric::BandwidthMbps),
    ] {
        let mut text = String::new();
        let mut curves = Vec::new();
        for metric in EngagementMetric::ALL {
            let c = correlate::engagement_curve(&dataset, sweep, metric, 6, 12)
                .expect("engagement curve");
            text.push_str(&report::curve_table(
                metric.label(),
                sweep.label(),
                "engagement",
                &c,
            ));
            curves.push((metric, c));
        }
        let csv_curves: Vec<(&str, &analytics::BinnedCurve)> =
            curves.iter().map(|(m, c)| (m.label(), c)).collect();
        fs::write(format!("results/{tag}.txt"), &text).expect("write");
        fs::write(
            format!("results/{tag}.csv"),
            report::curves_csv(sweep.label(), &csv_curves),
        )
        .expect("write");
        let _ = writeln!(summary, "## {tag}");
        for (m, c) in &curves {
            let _ = writeln!(
                summary,
                "{:>10}: first bin {:.1} → last bin {:.1} (Δ {:.1} points)",
                m.label(),
                c.first_y().unwrap_or(f64::NAN),
                c.last_y().unwrap_or(f64::NAN),
                c.first_y().unwrap_or(f64::NAN) - c.last_y().unwrap_or(f64::NAN),
            );
        }
        let _ = writeln!(summary);
        eprintln!("wrote results/{tag}.{{txt,csv}}");
    }

    // ---- F2: compounding grid ------------------------------------------
    let grid = correlate::compounding_grid(&dataset, EngagementMetric::Presence, 5, 8)
        .expect("compounding grid");
    let gtext = report::grid_table("Fig 2: Presence over latency (x, ms) x loss (y, %)", &grid);
    fs::write("results/fig2_compounding.txt", &gtext).expect("write");
    let _ = writeln!(
        summary,
        "## fig2_compounding\nworst cell {:.1} / best 100.0 (paper: dips ~50%)\n",
        grid.min_value().unwrap_or(f64::NAN)
    );
    eprintln!("wrote results/fig2_compounding.txt");

    // ---- F3: platforms ---------------------------------------------------
    let platform_curves = correlate::platform_curves(
        &dataset,
        NetworkMetric::LossPct,
        EngagementMetric::Presence,
        4,
        10,
    )
    .expect("platform curves");
    let mut ptext = String::new();
    for (p, c) in &platform_curves {
        ptext.push_str(&report::curve_table(p.label(), "loss (%)", "presence", c));
    }
    fs::write("results/fig3_platform.txt", &ptext).expect("write");
    let _ = writeln!(summary, "## fig3_platform");
    for (p, c) in &platform_curves {
        let _ = writeln!(
            summary,
            "{:>12}: presence at high loss {:.1}",
            p.label(),
            c.last_y().unwrap_or(f64::NAN)
        );
    }
    let _ = writeln!(summary);
    eprintln!("wrote results/fig3_platform.txt");

    // ---- F4: MOS ---------------------------------------------------------
    let mut mtext = String::new();
    for metric in EngagementMetric::ALL {
        let c = correlate::mos_by_engagement(&dataset, metric, 4, 5).expect("mos curve");
        mtext.push_str(&report::curve_table(
            metric.label(),
            "engagement (%)",
            "MOS",
            &c,
        ));
    }
    let ranking = correlate::mos_correlations(&dataset).expect("ranking");
    let _ = writeln!(mtext, "\ncorrelation ranking:");
    let _ = writeln!(summary, "## fig4_mos");
    for (m, r) in &ranking {
        let _ = writeln!(mtext, "  {:>10}: r = {r:.3}", m.label());
        let _ = writeln!(summary, "  {:>10}: r = {r:.3}", m.label());
    }
    let _ = writeln!(summary);
    fs::write("results/fig4_mos.txt", &mtext).expect("write");
    eprintln!("wrote results/fig4_mos.txt");

    // ---- S3: MOS predictor ------------------------------------------------
    let _ = writeln!(summary, "## mos_predict (S3)");
    let mut pred_text = String::new();
    for features in [
        FeatureSet::NetworkOnly,
        FeatureSet::EngagementOnly,
        FeatureSet::Full,
    ] {
        match train_and_evaluate(&dataset, features, 4) {
            Ok((_, eval)) => {
                let line = format!(
                    "{features:?}: MAE {:.3} (baseline {:.3}), corr {:.3}, skill {:.1}%",
                    eval.mae,
                    eval.baseline_mae,
                    eval.correlation,
                    eval.skill() * 100.0
                );
                let _ = writeln!(pred_text, "{line}");
                let _ = writeln!(summary, "{line}");
            }
            Err(e) => {
                let _ = writeln!(pred_text, "{features:?}: {e}");
            }
        }
    }
    let _ = writeln!(summary);
    fs::write("results/mos_predict.txt", &pred_text).expect("write");

    // ---- F5: sentiment peaks ----------------------------------------------
    let annotator = PeakAnnotator::default();
    let peaks = annotator
        .annotate_interned(&forum, &corpus, 3, 1)
        .expect("peaks");
    let mut f5 = String::new();
    let _ = writeln!(summary, "## fig5_sentiment_peaks");
    for (i, p) in peaks.iter().enumerate() {
        let line = format!(
            "{}. {} — {:.0} strong posts, {}, words {:?}, {}",
            i + 1,
            p.date,
            p.strong_posts,
            if p.positive_dominated {
                "positive"
            } else {
                "negative"
            },
            p.top_words,
            if p.unreported() {
                format!("UNREPORTED (posters from {} countries)", p.countries)
            } else {
                format!("news: {}", p.headlines.join(" | "))
            }
        );
        let _ = writeln!(f5, "{line}");
        let _ = writeln!(summary, "{line}");
    }
    let _ = writeln!(summary);
    // F5b: the Apr 22 cloud.
    let cloud = annotator.day_cloud_interned(
        &forum,
        &corpus,
        Date::from_ymd(2022, 4, 22).expect("date"),
        15,
    );
    let _ = writeln!(f5, "\nword cloud 2022-04-22:\n{cloud}");
    fs::write("results/fig5_sentiment_peaks.txt", &f5).expect("write");
    eprintln!("wrote results/fig5_sentiment_peaks.txt");

    // ---- F6: outages --------------------------------------------------------
    let detector = OutageDetector::default();
    let series = detector
        .keyword_series_interned(&forum, &corpus, 1)
        .expect("series");
    let mut f6 = String::from("date,keyword_occurrences\n");
    for (date, v) in series.iter() {
        if v > 0.0 {
            let _ = writeln!(f6, "{date},{v}");
        }
    }
    fs::write("results/fig6_outages.csv", &f6).expect("write");
    let detections = detector
        .detect_interned(&forum, &corpus, 1)
        .expect("detect");
    let truth = starlink::outages::outage_timeline(
        Date::from_ymd(2021, 1, 1).expect("date"),
        Date::from_ymd(2022, 12, 31).expect("date"),
        &starlink::outages::TransientOutageConfig::default(),
    );
    let score = detector.score_against(&detections, &truth);
    let _ = writeln!(
        summary,
        "## fig6_outages\n{} detections; precision {:.2}; major recall {:.2}\n",
        detections.len(),
        score.precision,
        score.major_recall
    );
    eprintln!("wrote results/fig6_outages.csv");

    // ---- F7: speeds + fulcrum ----------------------------------------------
    let fig7 = FulcrumAnalysis::default()
        .analyze_interned(
            &forum,
            &corpus,
            Month::new(2021, 1).expect("m"),
            Month::new(2022, 12).expect("m"),
        )
        .expect("fig7");
    fs::write("results/fig7_speeds.txt", report::fig7_table(&fig7)).expect("write");
    fs::write("results/fig7_speeds.csv", report::fig7_csv(&fig7)).expect("write");
    let _ = writeln!(summary, "## fig7_speeds\n{}", report::fig7_table(&fig7));
    eprintln!("wrote results/fig7_speeds.{{txt,csv}}");

    // ---- S1/S2: stats --------------------------------------------------------
    let weeks = 104.4;
    let upvotes: f64 = forum.posts.iter().map(|p| f64::from(p.upvotes)).sum();
    let comments: f64 = forum.posts.iter().map(|p| f64::from(p.comments)).sum();
    let _ = writeln!(
        summary,
        "## stats_subreddit (S1)\nposts/week {:.0} (paper 372); upvotes/week {:.0} (paper 8190); \
         comments/week {:.0} (paper 5702); speed shares {} (paper ~1750)\n",
        forum.len() as f64 / weeks,
        upvotes / weeks,
        comments / weeks,
        forum.speed_shares().count()
    );
    let roaming = EmergingTopicMiner::default()
        .mine_interned(&forum, &corpus)
        .map(|topics| topics.into_iter().find(|t| t.term == "roaming"));
    if let Ok(Some(roaming)) = roaming {
        let tweet = Date::from_ymd(2022, 3, 3).expect("date");
        let _ = writeln!(
            summary,
            "## stats_roaming (S2)\n'roaming' flagged {} — {} days before the CEO tweet \
             (paper: ~2 weeks); polarity {:+.2}\n",
            roaming.first_flagged,
            tweet.days_since(roaming.first_flagged),
            roaming.polarity
        );
    }

    // ---- §5 service demo ------------------------------------------------------
    let service = UsaasService::build(dataset, forum, 0);
    let (implicit, explicit, social_count) = service.signal_counts();
    let _ = writeln!(
        summary,
        "## usaas service\nsignals: {implicit} implicit / {explicit} explicit / {social_count} social"
    );
    if let Ok(Answer::CrossNetwork(r)) = service.query(&Query::CrossNetwork {
        access: AccessType::SatelliteLeo,
    }) {
        let _ = writeln!(
            summary,
            "Teams-on-Starlink: {} sessions, presence {:.1}% (others {:.1}%), outage-day presence {:?}",
            r.sessions, r.mean_presence, r.others_presence, r.outage_day_presence
        );
    }
    if let Ok(Answer::Deployment(recs)) = service.query(&Query::DeploymentAdvice) {
        let _ = writeln!(summary, "deployment advice: {}", recs[0].shell);
    }

    // ---- §3.3 early indication ---------------------------------------------
    {
        use conference::call::{CallConfig, CallSimulator};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use usaas::early::EarlyQualityMonitor;
        let sim = CallSimulator::default();
        let mut rng = StdRng::seed_from_u64(0xEA71);
        let mut uid = 0;
        let mut detailed = Vec::new();
        for call_id in 0..800u64 {
            let config = CallConfig {
                call_id,
                date: Date::from_ymd(2022, 2, 15).expect("date"),
                start_hour: 10,
                participants: 5,
                scheduled_ticks: 360,
            };
            detailed.extend(sim.simulate_detailed(&mut rng, &config, &mut uid));
        }
        if let Ok(skills) =
            EarlyQualityMonitor::default().skill_by_horizon(&detailed, &[12, 36, 72, 180, 360])
        {
            let _ = writeln!(summary, "## early_indication (§3.3)");
            for sk in skills {
                let _ = writeln!(
                    summary,
                    "  {:>5.1} min: corr {:.3} ({} sessions)",
                    sk.horizon_ticks as f64 * 5.0 / 60.0,
                    sk.correlation,
                    sk.sessions
                );
            }
            let _ = writeln!(summary);
        }
    }

    fs::write("results/summary.txt", &summary).expect("write summary");
    println!("{summary}");
    eprintln!("\nall artefacts under results/");
}

//! Quickstart: build a small USaaS instance and ask it the paper's flagship
//! question — *how do Starlink users perceive the conferencing service?*
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use conference::dataset::{generate, DatasetConfig};
use netsim::access::AccessType;
use social::generator::{generate as generate_forum, ForumConfig};
use usaas::service::{Answer, Query, UsaasService};

fn main() {
    // 1. Simulate the two data sources the paper mined.
    //    (Small sizes for a fast demo; crank `calls`/`authors` up for the
    //    full reproduction — see the `bench` crate.)
    println!("simulating conferencing telemetry…");
    let mut call_config = DatasetConfig::small(1500, 7);
    call_config.leo_outage_calendar = starlink::outages::major_outages()
        .into_iter()
        .map(|o| (o.date, o.severity))
        .collect();
    let dataset = generate(&call_config);
    println!(
        "  {} sessions across {} calls",
        dataset.len(),
        dataset.call_count()
    );

    println!("simulating two years of r/Starlink…");
    let forum = generate_forum(&ForumConfig {
        authors: 3000,
        ..ForumConfig::default()
    });
    println!("  {} posts", forum.len());

    // 2. Stand up the service: the dataset and forum become its first
    //    generation, and signal counts are read from it.
    let service = UsaasService::build(dataset, forum, 4);
    let (implicit, explicit, social) = service.signal_counts();
    println!("\nsignals: {implicit} implicit, {explicit} explicit, {social} social");
    println!(
        "(the paper's point: explicit feedback is {}x scarcer than implicit signals)",
        implicit / explicit.max(1)
    );

    // 3. The §5 flagship query.
    let answer = service
        .query(&Query::CrossNetwork {
            access: AccessType::SatelliteLeo,
        })
        .expect("cross-network query");
    let Answer::CrossNetwork(report) = answer else {
        unreachable!()
    };
    println!("\n=== Teams-on-Starlink (cross-network report) ===");
    println!("sessions on Starlink:     {}", report.sessions);
    println!(
        "mean Presence:            {:.1}% (others: {:.1}%)",
        report.mean_presence, report.others_presence
    );
    println!(
        "mean Mic On / Cam On:     {:.1}% / {:.1}%",
        report.mean_mic_on, report.mean_cam_on
    );
    match report.mos {
        Some(mos) => println!("MOS (sampled ratings):    {mos:.2}"),
        None => println!("MOS: no ratings sampled (that scarcity is the paper's motivation)"),
    }
    if let Some(p) = report.outage_day_presence {
        println!(
            "presence on socially-detected outage days: {p:.1}% ({} days joined)",
            report.outage_days_joined
        );
        println!("→ implicit signals corroborate the social outage reports");
    }

    // 4. Operators ask many questions at once: `query_batch` fans a query
    //    slice out over scoped threads and answers land in input order.
    //    (The outage-detection pass above is cached, so `OutageTimeline`
    //    here does not re-scan the forum.)
    let batch = service.query_batch(&[
        Query::OutageTimeline,
        Query::SpeedTrend,
        Query::SentimentPeaks { k: 3 },
    ]);
    println!(
        "\n=== batch query ({} answers, computed in parallel) ===",
        batch.len()
    );
    for answer in batch {
        match answer.expect("batch query") {
            Answer::Outages(o) => println!("outage timeline:          {} detections", o.len()),
            Answer::Speeds(s) => println!("speed trend:              {} monthly medians", s.len()),
            Answer::Peaks(p) => println!("sentiment peaks:          {} annotated", p.len()),
            other => unreachable!("unexpected answer {other:?}"),
        }
    }
}

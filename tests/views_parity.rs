//! Incremental-view parity suite.
//!
//! The materialized-view layer ([`usaas::views`]) promises that carrying
//! an accumulator across epochs and absorbing each appended batch as an
//! O(delta) update produces **bit-identical** answers to rebuilding from
//! the full corpus. These tests pin that contract three ways:
//!
//! 1. A property sweep over random append schedules — sessions-only,
//!    posts-only, mixed, *empty*, and *fully-quarantined* batches in
//!    arbitrary order — asserting after every schedule that the
//!    view-served answer equals [`usaas::Generation::answer_fresh`] (the
//!    cold full-recompute reference) for every view-backed query, across
//!    worker counts 1/4/8.
//! 2. A targeted no-op test: empty and fully-quarantined batches must
//!    neither bump the epoch nor disturb carried views.
//! 3. A persist kill-point round trip: checkpoint a service with live
//!    views, crash it at a journal boundary, and prove the recovered
//!    service rebuilds those views to answers bit-identical to both a
//!    cold rebuild and a never-crashed reference.

use analytics::time::Date;
use conference::dataset::{generate, DatasetConfig};
use conference::records::{CallDataset, EngagementMetric, NetworkMetric, SessionRecord};
use netsim::access::AccessType;
use social::generator::{generate as gen_forum, ForumConfig};
use social::post::{Forum, Post, PostTopic};
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;
use usaas::{
    journal_record_offsets, FeatureSet, IngestConfig, ItemSource, PostRead, Query, RawItem, Source,
    UsaasService, ViewKey, JOURNAL_FILE,
};

/// Worker counts exercised by every parity check: the inline single-chunk
/// path, the fixture default, and an over-subscribed fan-out.
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

fn base_dataset() -> &'static CallDataset {
    static D: OnceLock<CallDataset> = OnceLock::new();
    D.get_or_init(|| generate(&DatasetConfig::small(300, 33)))
}

fn base_forum() -> &'static Forum {
    static F: OnceLock<Forum> = OnceLock::new();
    F.get_or_init(|| {
        gen_forum(&ForumConfig {
            authors: 120,
            end: Date::from_ymd(2021, 6, 30).unwrap(),
            ..ForumConfig::default()
        })
    })
}

fn extra_sessions_a() -> &'static Vec<SessionRecord> {
    static S: OnceLock<Vec<SessionRecord>> = OnceLock::new();
    S.get_or_init(|| generate(&DatasetConfig::small(40, 77)).sessions)
}

fn extra_sessions_b() -> &'static Vec<SessionRecord> {
    static S: OnceLock<Vec<SessionRecord>> = OnceLock::new();
    S.get_or_init(|| generate(&DatasetConfig::small(25, 5)).sessions)
}

fn extra_posts() -> &'static Vec<Post> {
    static P: OnceLock<Vec<Post>> = OnceLock::new();
    P.get_or_init(|| {
        gen_forum(&ForumConfig {
            seed: 9,
            authors: 60,
            end: Date::from_ymd(2021, 3, 31).unwrap(),
            ..ForumConfig::default()
        })
        .posts
    })
}

/// Posts dated strictly after the base forum's last day, so the
/// emerging-topics view can absorb them incrementally instead of
/// falling back to a rebuild (backdated appends force the rebuild).
fn later_posts() -> &'static Vec<Post> {
    static P: OnceLock<Vec<Post>> = OnceLock::new();
    P.get_or_init(|| {
        gen_forum(&ForumConfig {
            seed: 11,
            authors: 40,
            start: Date::from_ymd(2021, 7, 1).unwrap(),
            end: Date::from_ymd(2021, 8, 31).unwrap(),
            ..ForumConfig::default()
        })
        .posts
    })
}

/// A slice of [`later_posts`] re-dated to the service's current last
/// forum day: the many-posts-per-day append the emerging-topics view
/// carries from its settled state instead of re-mining.
fn same_last_day_posts(svc: &UsaasService, range: std::ops::Range<usize>) -> Vec<Post> {
    let (_, last) = svc
        .snapshot()
        .forum()
        .date_range()
        .expect("the forum is non-empty");
    later_posts()[range]
        .iter()
        .cloned()
        .map(|mut p| {
            p.date = last;
            p
        })
        .collect()
}

/// Every query the view layer serves, plus the two outage-derived queries
/// (`OutageTimeline`, `CrossNetwork`) that share the outage view through
/// the detection cache.
fn hot_queries() -> Vec<Query> {
    vec![
        Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
            bins: 5,
        },
        Query::EngagementCurve {
            sweep: NetworkMetric::LossPct,
            engagement: EngagementMetric::CamOn,
            bins: 4,
        },
        Query::CompoundingGrid {
            engagement: EngagementMetric::Presence,
            bins: 4,
        },
        Query::PlatformSensitivity {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
        },
        Query::MosCorrelation,
        Query::PredictMos {
            features: FeatureSet::Full,
        },
        Query::SentimentPeaks { k: 2 },
        Query::DeploymentAdvice,
        Query::OutageTimeline,
        Query::CrossNetwork {
            access: AccessType::SatelliteLeo,
        },
        Query::SpeedTrend,
        Query::EmergingTopics,
    ]
}

/// Apply append op `tag` to a service. The pool covers every batch shape
/// the views must absorb: sessions-only, posts-only (backdated and
/// strictly-later), same-last-day posts, mixed, empty, and
/// fully-quarantined (every item a poison pill, nothing committed).
fn apply_op(svc: &UsaasService, tag: u8) {
    let posts = extra_posts();
    match tag {
        0 => {
            svc.append_batch(Vec::new(), Vec::new());
        }
        1 => {
            svc.append_batch(extra_sessions_a().clone(), Vec::new());
        }
        2 => {
            svc.append_batch(Vec::new(), posts[..15.min(posts.len())].to_vec());
        }
        3 => {
            svc.append_batch(
                extra_sessions_b().clone(),
                posts[15..30.min(posts.len())].to_vec(),
            );
        }
        4 => {
            let items = vec![
                RawItem::Poison("bad upstream frame"),
                RawItem::Poison("double-freed buffer"),
            ];
            let sources: Vec<Box<dyn Source>> =
                vec![Box::new(ItemSource::new("poison-only", items))];
            svc.ingest_append(sources, &IngestConfig::with_workers(1));
        }
        5 => {
            svc.append_batch(Vec::new(), posts[30..40.min(posts.len())].to_vec());
        }
        6 => {
            let later = later_posts();
            svc.append_batch(Vec::new(), later[..25.min(later.len())].to_vec());
        }
        7 => {
            svc.append_batch(Vec::new(), same_last_day_posts(svc, 25..35));
        }
        _ => panic!("unknown op {tag}"),
    }
}

/// Build a service, install the hot views by querying once, run the
/// schedule (querying after each op so intermediate epochs are served by
/// carried views too), and return the final debug-formatted answers.
fn run_schedule(schedule: &[u8], workers: usize) -> (UsaasService, Vec<String>) {
    let svc = UsaasService::build(base_dataset().clone(), base_forum().clone(), workers);
    let queries = hot_queries();
    for q in &queries {
        let _ = svc.query(q);
    }
    assert!(
        !svc.snapshot().views().is_empty(),
        "hot queries must install materialized views"
    );
    for &op in schedule {
        apply_op(&svc, op);
        for q in &queries {
            let _ = svc.query(q);
        }
    }
    let answers = queries
        .iter()
        .map(|q| format!("{q:?} => {:?}", svc.query(q)))
        .collect();
    (svc, answers)
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random append schedules: the view-served answer equals the
        /// cold full recompute for every hot query, and worker counts
        /// 1/4/8 agree to the bit (Debug formatting shows every float
        /// exactly, so string equality is bit equality).
        #[test]
        fn incremental_views_match_cold_rebuild(
            schedule in prop::collection::vec(0u8..8, 0..5),
        ) {
            let mut per_worker = Vec::new();
            for workers in WORKER_COUNTS {
                let (svc, answers) = run_schedule(&schedule, workers);
                let generation = svc.snapshot();
                for (q, served) in hot_queries().iter().zip(&answers) {
                    let fresh = format!("{q:?} => {:?}", generation.answer_fresh(q));
                    prop_assert_eq!(
                        served, &fresh,
                        "schedule {:?} workers {}: view answer diverged from cold rebuild",
                        schedule, workers
                    );
                }
                per_worker.push(answers);
            }
            for answers in &per_worker[1..] {
                prop_assert_eq!(
                    &per_worker[0], answers,
                    "schedule {:?}: workers {:?} disagree", schedule, WORKER_COUNTS
                );
            }
        }
    }
}

/// Empty and fully-quarantined batches are no-ops: no epoch bump, views
/// untouched, answers unchanged and still equal to a cold rebuild.
#[test]
fn noop_batches_leave_views_intact() {
    for workers in WORKER_COUNTS {
        let (svc, before) = run_schedule(&[1], workers);
        let epoch = svc.epoch();
        let views_before = svc.snapshot().views().len();
        apply_op(&svc, 0); // empty
        apply_op(&svc, 4); // fully quarantined
        assert_eq!(svc.epoch(), epoch, "no-op batches must not bump the epoch");
        assert_eq!(svc.snapshot().views().len(), views_before);
        let generation = svc.snapshot();
        for (q, served) in hot_queries().iter().zip(&before) {
            assert_eq!(
                *served,
                format!("{q:?} => {:?}", svc.query(q)),
                "answers changed across no-op batches (workers {workers})"
            );
            assert_eq!(
                *served,
                format!("{q:?} => {:?}", generation.answer_fresh(q)),
                "no-op batches left views out of sync with a cold rebuild"
            );
        }
    }
}

/// The emerging-topics view absorbs posts dated on the last mined day
/// without being dropped (no query in between re-installs it), drops on a
/// post dated before the last day, and serves cold-rebuild answers on the
/// edge forums: one spanning fewer days than the miner's window (its last
/// day inside the pre-load window) and the empty forum.
#[test]
fn emerging_view_carries_same_day_posts_and_drops_backdated_ones() {
    let installed = |svc: &UsaasService| {
        svc.snapshot()
            .views()
            .keys()
            .contains(&ViewKey::EmergingTopics)
    };
    let assert_fresh = |svc: &UsaasService, step: &str| {
        let q = Query::EmergingTopics;
        assert_eq!(
            format!("{:?}", svc.query(&q)),
            format!("{:?}", svc.snapshot().answer_fresh(&q)),
            "emerging answer diverged from a cold rebuild after {step}"
        );
    };

    let svc = UsaasService::build(base_dataset().clone(), base_forum().clone(), 2);
    let _ = svc.query(&Query::EmergingTopics);
    for range in [0..5, 5..10] {
        svc.append_batch(Vec::new(), same_last_day_posts(&svc, range));
        assert!(
            installed(&svc),
            "a same-last-day append must carry the view"
        );
    }
    svc.append_batch(Vec::new(), later_posts()[10..15].to_vec());
    assert!(
        installed(&svc),
        "a strictly-later append must carry the view"
    );
    assert_fresh(&svc, "same-day and later appends");
    svc.append_batch(Vec::new(), extra_posts()[..3].to_vec());
    assert!(!installed(&svc), "a backdated post must drop the view");
    assert_fresh(&svc, "a backdated append");

    // A three-day forum: every day lies inside the pre-load window, so
    // even a same-day append drops the view; appends past the window
    // carry it. An empty forum answers the empty error until its first
    // posts arrive, which it mines whole, then follows the same pattern.
    let later = later_posts();
    let first = later[0].date;
    let short = Forum {
        posts: later
            .iter()
            .filter(|p| p.date <= first.offset(2))
            .cloned()
            .collect(),
    };
    let past_window: Vec<Post> = later
        .iter()
        .filter(|p| p.date > first.offset(14))
        .cloned()
        .collect();
    assert!(past_window.len() >= 20, "fixture has posts past the window");
    for (forum, first_carried) in [(short, false), (Forum::default(), true)] {
        let svc = UsaasService::build(base_dataset().clone(), forum, 2);
        assert_fresh(&svc, "build");
        let mut step = 0;
        let mut append = |posts: Vec<Post>, carried: bool| {
            svc.append_batch(Vec::new(), posts);
            step += 1;
            assert_eq!(installed(&svc), carried, "view carried after append {step}");
            assert_fresh(&svc, &format!("append {step}"));
        };
        append(later[..3].to_vec(), first_carried);
        append(same_last_day_posts(&svc, 3..6), false);
        append(past_window[..10].to_vec(), true);
        append(same_last_day_posts(&svc, 6..9), true);
        append(past_window[10..20].to_vec(), true);
    }
}

/// Fresh scratch directory under the system temp dir, emptied first.
fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usaas-views-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Persist round trip across a kill point: a checkpointed service with
/// live views crashes right after a journaled append; recovery must
/// materialize the persisted view keys and serve answers bit-identical to
/// both its own cold rebuild and a never-crashed reference.
#[test]
fn recovered_views_match_cold_rebuild_across_kill_point() {
    let dir = tmp_dir("kill-point");
    let queries = hot_queries();

    // Live run: install views, checkpoint (persists the view keys), then
    // two more journaled appends the snapshot does not cover.
    {
        let svc =
            UsaasService::build_persistent(base_dataset().clone(), base_forum().clone(), 2, &dir)
                .unwrap();
        for q in &queries {
            let _ = svc.query(q);
        }
        apply_op(&svc, 1);
        svc.checkpoint().unwrap();
        apply_op(&svc, 2);
        apply_op(&svc, 3);
    }

    // Crash between the second and third post-checkpoint appends: cut the
    // journal at the boundary after append 2.
    let offsets = journal_record_offsets(&dir.join(JOURNAL_FILE)).unwrap();
    assert!(offsets.len() >= 3, "three appends journal three records");
    fs::OpenOptions::new()
        .write(true)
        .open(dir.join(JOURNAL_FILE))
        .unwrap()
        .set_len(offsets[2])
        .unwrap();

    for workers in WORKER_COUNTS {
        let recovered = UsaasService::open_or_recover(&dir, workers).unwrap();
        assert!(
            recovered.health().recovery_warnings.is_empty(),
            "clean boundary cut must not warn"
        );
        let generation = recovered.snapshot();
        assert!(
            !generation.views().is_empty(),
            "recovery must rebuild the checkpointed view keys"
        );

        let reference = UsaasService::build(base_dataset().clone(), base_forum().clone(), workers);
        for q in &queries {
            let _ = reference.query(q);
        }
        apply_op(&reference, 1);
        apply_op(&reference, 2);

        let ref_generation = reference.snapshot();
        for q in &queries {
            let served = format!("{:?}", recovered.query(q));
            assert_eq!(
                served,
                format!("{:?}", generation.answer_fresh(q)),
                "recovered view answer diverged from cold rebuild ({q:?}, workers {workers})"
            );
            assert_eq!(
                served,
                format!("{:?}", ref_generation.answer_fresh(q)),
                "recovered view answer diverged from never-crashed reference ({q:?})"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The served `CrossNetwork` answer equals a cold recompute, to the bit.
fn assert_cross_network_fresh(svc: &UsaasService, access: AccessType, step: &str) {
    let q = Query::CrossNetwork { access };
    assert_eq!(
        format!("{:?}", svc.query(&q)),
        format!("{:?}", svc.snapshot().answer_fresh(&q)),
        "cross-network answer diverged from a cold rebuild after {step}"
    );
}

/// True when the current generation carries the `CrossNetwork` view.
fn carries_cross_network(svc: &UsaasService, access: AccessType) -> bool {
    svc.snapshot()
        .views()
        .keys()
        .contains(&ViewKey::CrossNetwork { access })
}

/// A network with no session at build answers `NoData`; the view is still
/// installed and carried, and target sessions appended later turn the
/// error into an answer.
#[test]
fn cross_network_view_turns_no_data_into_an_answer() {
    let access = AccessType::SatelliteLeo;
    let target = |s: &SessionRecord| s.access == access;
    let without = |sessions: &[SessionRecord]| -> Vec<SessionRecord> {
        sessions.iter().filter(|s| !target(s)).cloned().collect()
    };
    let base = CallDataset {
        sessions: without(&base_dataset().sessions),
    };
    assert!(extra_sessions_a().iter().any(target));
    let batches = [
        without(extra_sessions_b()),
        extra_sessions_a().clone(),
        extra_sessions_b().clone(),
    ];
    for workers in WORKER_COUNTS {
        let svc = UsaasService::build(base.clone(), base_forum().clone(), workers);
        assert!(svc.query(&Query::CrossNetwork { access }).is_err());
        assert_cross_network_fresh(&svc, access, "build");
        for (i, batch) in batches.iter().enumerate() {
            svc.append_batch(batch.clone(), Vec::new());
            assert!(carries_cross_network(&svc, access), "append {i}");
            assert_cross_network_fresh(&svc, access, &format!("append {i}"));
        }
        assert!(svc.query(&Query::CrossNetwork { access }).is_ok());
    }
}

/// Target sessions land on socially detected strong-outage days across
/// several epochs, while post batches add a detection and then move it:
/// the carried view joins each epoch's detections like a cold recompute.
#[test]
fn cross_network_view_joins_sessions_on_moving_strong_outage_days() {
    let access = AccessType::SatelliteLeo;
    let reports: Vec<Post> = base_forum()
        .posts
        .iter()
        .filter(|p| p.topic == PostTopic::Outage)
        .cloned()
        .collect();
    assert!(!reports.is_empty(), "the forum has outage reports");
    let (first, _) = base_forum().date_range().expect("non-empty forum");
    let spike_day = first.offset(60);
    let spike = |day: Date, n: usize| -> Vec<Post> {
        reports
            .iter()
            .cycle()
            .take(n)
            .cloned()
            .map(|mut p| {
                p.date = day;
                p
            })
            .collect()
    };
    let strong_days = |svc: &UsaasService| -> Vec<Date> {
        match svc.query(&Query::OutageTimeline) {
            Ok(usaas::Answer::Outages(d)) => d
                .iter()
                .filter(|d| d.score >= 10.0)
                .map(|d| d.date)
                .collect(),
            other => panic!("outage timeline: {other:?}"),
        }
    };
    // Target sessions re-dated round-robin onto `days` (every row when
    // there is no day to put them on).
    let on_days = |days: &[Date], seed: u64| -> Vec<SessionRecord> {
        generate(&DatasetConfig::small(60, seed))
            .sessions
            .into_iter()
            .filter(|s| s.access == access)
            .enumerate()
            .map(|(i, mut s)| {
                if !days.is_empty() {
                    s.date = days[i % days.len()];
                }
                s
            })
            .collect()
    };

    for workers in WORKER_COUNTS {
        let svc = UsaasService::build(base_dataset().clone(), base_forum().clone(), workers);
        assert_cross_network_fresh(&svc, access, "build");
        let mut seen = vec![strong_days(&svc)];

        svc.append_batch(on_days(&seen[0], 101), Vec::new());
        assert_cross_network_fresh(&svc, access, "sessions on the base days");

        svc.append_batch(Vec::new(), spike(spike_day, 80));
        seen.push(strong_days(&svc));
        assert!(seen[1].contains(&spike_day), "{:?}", seen[1]);
        assert!(carries_cross_network(&svc, access));
        assert_cross_network_fresh(&svc, access, "a spike that adds a detection");

        svc.append_batch(on_days(&seen[1], 102), Vec::new());
        assert_cross_network_fresh(&svc, access, "sessions on the spike day");

        // A larger spike the next day suppresses the first one.
        let moved = spike_day.offset(1);
        svc.append_batch(on_days(&[moved], 103), spike(moved, 200));
        seen.push(strong_days(&svc));
        assert!(
            seen[2].contains(&moved) && !seen[2].contains(&spike_day),
            "{:?}",
            seen[2]
        );
        assert_cross_network_fresh(&svc, access, "a spike that moves the detection");

        svc.append_batch(on_days(&seen[2], 104), Vec::new());
        assert_cross_network_fresh(&svc, access, "sessions on the moved day");
        match svc.query(&Query::CrossNetwork { access }) {
            Ok(usaas::Answer::CrossNetwork(r)) => {
                assert!(r.outage_days_joined >= 1, "{r:?}");
                assert!(r.outage_day_presence.is_some(), "{r:?}");
            }
            other => panic!("cross network: {other:?}"),
        }
    }
}

/// A network that holds every session leaves the "others" mean empty
/// (`NaN`) on both paths, until a batch with other networks arrives.
#[test]
fn cross_network_view_with_no_other_network_reports_nan() {
    let access = AccessType::Fiber;
    let all_target = |sessions: &[SessionRecord]| -> Vec<SessionRecord> {
        sessions
            .iter()
            .cloned()
            .map(|mut s| {
                s.access = access;
                s
            })
            .collect()
    };
    let base = CallDataset {
        sessions: all_target(&base_dataset().sessions),
    };
    let others_nan = |svc: &UsaasService| match svc.query(&Query::CrossNetwork { access }) {
        Ok(usaas::Answer::CrossNetwork(r)) => r.others_presence.is_nan(),
        other => panic!("cross network: {other:?}"),
    };
    for workers in WORKER_COUNTS {
        let svc = UsaasService::build(base.clone(), base_forum().clone(), workers);
        assert!(others_nan(&svc));
        assert_cross_network_fresh(&svc, access, "build");
        svc.append_batch(all_target(extra_sessions_a()), Vec::new());
        assert!(others_nan(&svc));
        assert_cross_network_fresh(&svc, access, "a target-only append");
        svc.append_batch(extra_sessions_b().clone(), Vec::new());
        assert!(!others_nan(&svc));
        assert_cross_network_fresh(&svc, access, "a mixed append");
    }
}

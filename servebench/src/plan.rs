//! Inputs and schedules. Everything here is a pure function of the
//! workload name and the seed, and runs before any timed phase.

use conference::dataset::{generate, DatasetConfig};
use conference::records::{CallDataset, EngagementMetric, NetworkMetric, SessionRecord};
use netsim::access::AccessType;
use social::generator::{generate as generate_forum, ForumConfig};
use social::post::{Forum, Post};
use usaas::{Query, RawItem};

/// Virtual time the generator advances after each tick.
pub const TICK_MS: u64 = 1_000;

/// A persist unit checkpoints every this many ticks, so checkpoint ticks
/// are a fifth of all ticks: their cost lands inside p90 and outside p50.
pub const CHECKPOINT_TICKS: u64 = 5;

/// Calls simulated for the call dataset (~5.5 sessions per call).
const CALLS: usize = 4_000;

/// Sessions of the dataset that form the resident base; the rest feed
/// the workloads. The base is larger than any round's session feed, so
/// the daemon's auto checkpoints stay differential between restarts.
const BASE_SESSIONS: usize = 12_000;

/// Trailing forum days held out of the resident base as the post feed.
const TAIL_DAYS: usize = 10;

/// Batches per simulated day on `social`: a live feed delivers a day's
/// posts in several pieces. Equal to [`CHECKPOINT_TICKS`] so each day's
/// first batch falls on a checkpoint tick (see `Plan::new`).
const BATCHES_PER_DAY: usize = CHECKPOINT_TICKS as usize;

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Telemetry,
    Social,
    Cluster,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "telemetry" => Some(Workload::Telemetry),
            "social" => Some(Workload::Social),
            "cluster" => Some(Workload::Cluster),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Telemetry => "telemetry",
            Workload::Social => "social",
            Workload::Cluster => "cluster",
        }
    }
}

/// One dashboard question with the short family name metrics use.
pub struct Family {
    pub name: &'static str,
    pub query: Query,
}

/// Every family any dashboard asks, in metric order.
pub fn all_families() -> Vec<Family> {
    let f = |name, query| Family { name, query };
    vec![
        f(
            "curve_latency",
            Query::EngagementCurve {
                sweep: NetworkMetric::LatencyMs,
                engagement: EngagementMetric::Presence,
                bins: 10,
            },
        ),
        f(
            "curve_loss",
            Query::EngagementCurve {
                sweep: NetworkMetric::LossPct,
                engagement: EngagementMetric::MicOn,
                bins: 10,
            },
        ),
        f(
            "grid",
            Query::CompoundingGrid {
                engagement: EngagementMetric::Presence,
                bins: 5,
            },
        ),
        f(
            "platform",
            Query::PlatformSensitivity {
                sweep: NetworkMetric::LatencyMs,
                engagement: EngagementMetric::Presence,
            },
        ),
        f("mos", Query::MosCorrelation),
        f(
            "cross_leo",
            Query::CrossNetwork {
                access: AccessType::SatelliteLeo,
            },
        ),
        f("outage", Query::OutageTimeline),
        f("peaks", Query::SentimentPeaks { k: 5 }),
        f("emerging", Query::EmergingTopics),
        f("speed", Query::SpeedTrend),
        f("deploy", Query::DeploymentAdvice),
    ]
}

/// The fixed schedule of one round. Every round of every run executes
/// exactly these operations in this order; only the timers differ.
pub struct Plan {
    pub workload: Workload,
    pub base_sessions: Vec<SessionRecord>,
    pub base_forum: Forum,
    /// One batch per tick.
    pub batches: Vec<Vec<RawItem>>,
    pub dashboard: Vec<Family>,
    /// Crash and recover right after these ticks (0-based batch index).
    pub crash_after: Vec<usize>,
    /// Compare every dashboard answer with `answer_fresh` after these ticks.
    pub check_at: Vec<usize>,
    /// Traced runs time `answer_fresh` on the twin after these ticks.
    pub fresh_at: Vec<usize>,
    pub checkpoint_every_ms: u64,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut call_cfg = DatasetConfig::small(CALLS, seed);
        call_cfg.leo_outage_calendar = starlink::outages::major_outages()
            .into_iter()
            .map(|o| (o.date, o.severity))
            .collect();
        let mut sessions = generate(&call_cfg).sessions;
        let feed_sessions = sessions.split_off(BASE_SESSIONS.min(sessions.len()));
        let forum_cfg = ForumConfig {
            seed: ForumConfig::default().seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..ForumConfig::default()
        };
        let mut posts = generate_forum(&forum_cfg).posts;
        // The generator emits posts day by day; keep date order explicit.
        posts.sort_by_key(|p| p.date);
        let last = posts.last().expect("the forum has posts").date;
        let cut = last.offset(-(TAIL_DAYS as i32));
        let split = posts.partition_point(|p| p.date <= cut);
        let tail = posts.split_off(split);

        let pick = |names: &[&str]| -> Vec<Family> {
            all_families()
                .into_iter()
                .filter(|f| names.contains(&f.name))
                .collect()
        };
        let numeric = [
            "curve_latency",
            "curve_loss",
            "grid",
            "platform",
            "mos",
            "cross_leo",
        ];

        let mut sessions_iter = feed_sessions.into_iter();
        let mut take_sessions = |n: usize| -> Vec<RawItem> {
            sessions_iter
                .by_ref()
                .take(n)
                .map(|s| RawItem::Session(Box::new(s)))
                .collect()
        };
        let post_items = |ps: &[Post]| -> Vec<RawItem> {
            ps.iter()
                .map(|p| RawItem::Post(Box::new(p.clone())))
                .collect()
        };

        let (batches, dashboard, ticks) = match workload {
            // Fixed-size session batches only.
            Workload::Telemetry => {
                let ticks = 60;
                let batches = (0..ticks).map(|_| take_sessions(160)).collect();
                (batches, pick(&numeric), ticks)
            }
            // Each tail day's posts in BATCHES_PER_DAY contiguous pieces,
            // plus a trickle of sessions. A day's first batch holds only
            // posts later than anything mined so far; the other pieces
            // are dated on the last mined day.
            Workload::Social => {
                let mut batches = Vec::new();
                let mut start = 0;
                while start < tail.len() {
                    let day = tail[start].date;
                    let end = start + tail[start..].partition_point(|p| p.date == day);
                    let day_posts = &tail[start..end];
                    let per = day_posts.len().div_ceil(BATCHES_PER_DAY);
                    for j in 0..BATCHES_PER_DAY {
                        let lo = (j * per).min(day_posts.len());
                        let hi = ((j + 1) * per).min(day_posts.len());
                        let mut batch = post_items(&day_posts[lo..hi]);
                        batch.extend(take_sessions(16));
                        batches.push(batch);
                    }
                    start = end;
                }
                let ticks = batches.len();
                (
                    batches,
                    pick(&["outage", "peaks", "emerging", "speed", "deploy"]),
                    ticks,
                )
            }
            // Mixed batches: sessions plus a few posts in date order.
            Workload::Cluster => {
                let ticks = 60;
                let batches = (0..ticks)
                    .map(|k| {
                        let mut batch = take_sessions(160);
                        batch.extend(post_items(
                            &tail[(2 * k).min(tail.len())..(2 * k + 2).min(tail.len())],
                        ));
                        batch
                    })
                    .collect();
                let mut names = numeric.to_vec();
                names.push("outage");
                (batches, pick(&names), ticks)
            }
        };

        // Crashes land right after checkpoint ticks (k ≡ 0 mod 5, k ≥ 5):
        // the recovered daemon's cadence then continues the five-tick
        // phase, so checkpoint ticks stay exactly every fifth tick.
        let step = CHECKPOINT_TICKS as usize;
        let third = (ticks / 3 / step) * step;
        let crash_after = vec![third, 2 * third];
        let mut check_at = crash_after.clone();
        check_at.push(ticks - 1);
        let fresh_at = (0..ticks).filter(|k| k % step == 2).collect();
        let checkpoint_every_ms = match workload {
            // P staggered units: one unit per fifth tick.
            Workload::Cluster => CHECKPOINT_TICKS * TICK_MS * crate::served::PARTITIONS as u64,
            _ => CHECKPOINT_TICKS * TICK_MS,
        };
        Plan {
            workload,
            base_sessions: sessions,
            base_forum: Forum { posts },
            batches,
            dashboard,
            crash_after,
            check_at,
            fresh_at,
            checkpoint_every_ms,
        }
    }

    /// A fresh copy of the resident base.
    pub fn base(&self) -> (CallDataset, Forum) {
        (
            CallDataset {
                sessions: self.base_sessions.clone(),
            },
            self.base_forum.clone(),
        )
    }
}

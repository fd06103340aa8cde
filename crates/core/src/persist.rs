//! Durable snapshot + journal persistence for the USaaS service.
//!
//! The paper's §5 vision is a *long-running* service accumulating user
//! signals over months — which is only real if a restart keeps them. This
//! module gives [`crate::service::UsaasService`] a crash-safe on-disk
//! life:
//!
//! * **Snapshots** (`snapshot-<seq>.snap`): a versioned, checksummed dump
//!   of the full service state — the session records and the forum, the
//!   interned [`sentiment::corpus::TokenCorpus`] (when built), the
//!   accumulated health totals, the dead-letter quarantine, and the
//!   installed view keys. Nothing derivable from the records is written:
//!   the columnar [`crate::frame::SessionFrame`] is rebuilt from the
//!   sessions on first use, and signal counts are read from the recovered
//!   generation. Written with the classic atomic
//!   protocol: encode to `snapshot.tmp`, `fsync`, rename into place,
//!   `fsync` the directory. A reader never observes a half-written
//!   snapshot; a crash mid-write leaves the previous snapshot untouched.
//! * **Journal** (`journal.log`): an append-only log of committed ingest
//!   batches. Every [`crate::service::UsaasService::ingest_append`] run
//!   writes one framed record — accepted sessions/posts plus the run's
//!   quarantine and health deltas — *before* the in-memory commit, so
//!   recovery is `latest valid snapshot + replay of the journal tail`.
//!
//! Every snapshot and every journal record carries a CRC-32 over its
//! payload. Corruption degrades instead of panicking: a torn or corrupt
//! journal tail is truncated back to the last valid record, a corrupt
//! snapshot falls back to the previous one, and each repair is reported
//! as a warning through `ServiceHealth::recovery_warnings`.
//!
//! The byte-level conventions live in [`serde::bin`] (little-endian fixed
//! width, `f64` as IEEE-754 bits, `u64`-length-prefixed strings), chosen
//! so floats — NaN payloads and signed zeros included — survive the disk
//! **bit-identically**. That is what makes the recovery invariant
//! checkable: a recovered service answers every query byte-for-byte like
//! the service that never crashed (pinned by `tests/persist_recovery.rs`).

use crate::chunks::Chunks;
use crate::ingest::{IngestReport, QuarantineEntry, QuarantineReason};
use crate::predict::FeatureSet;
use crate::service::SessionChunks;
use crate::signals::{ExplicitSignal, ImplicitSignal, NetworkHint, Payload, Signal, SocialSignal};
use crate::views::ViewKey;
use analytics::time::Date;
use conference::platform::Platform;
use conference::records::{EngagementMetric, NetworkMetric, SessionRecord};
use netsim::access::AccessType;
use netsim::sampler::SessionNetworkStats;
use ocr::report::Provider;
use sentiment::analyzer::SentimentScores;
use sentiment::corpus::TokenCorpus;
use serde::bin::{self, Reader, Writer};
use social::post::{Post, PostTopic, Screenshot, SentimentClass};
use starlink::speedtest::SpeedTestResult;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File-name prefix of snapshot files; the number is the journal sequence
/// the snapshot includes (`snapshot-<seq>.snap`).
const SNAPSHOT_PREFIX: &str = "snapshot-";
/// Snapshot file extension.
const SNAPSHOT_SUFFIX: &str = ".snap";
/// Temp name a snapshot is encoded under before the atomic rename.
const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Journal file name inside a persist directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Scratch name compaction rewrites the journal under before the atomic
/// rename onto [`JOURNAL_FILE`]. Recovery never reads this name, so a
/// crash mid-compaction leaves at worst a stray tmp next to an intact
/// journal.
const JOURNAL_TMP: &str = "journal.tmp";
/// How many snapshots to keep; older ones are pruned after a checkpoint.
const SNAPSHOTS_KEPT: usize = 2;

/// File-name prefix of differential snapshot files
/// (`diff-<base_seq>-<seq>.snap`): the delta between journal sequence
/// `base_seq` (a **full** snapshot that must exist to apply it) and `seq`.
const DIFF_PREFIX: &str = "diff-";
/// Temp name a differential snapshot is encoded under before the rename.
const DIFF_TMP: &str = "diff.tmp";
/// How many differential snapshots to keep.
const DIFFS_KEPT: usize = 2;

/// Magic leading every snapshot file.
const SNAPSHOT_MAGIC: &[u8; 8] = b"USAASNP\x01";
/// Magic leading every differential snapshot file.
const DIFF_MAGIC: &[u8; 8] = b"USAASDF\x01";
/// Differential snapshot format version. A reader that does not know the
/// version skips the diff and falls back to the full snapshot chain.
const DIFF_VERSION: u32 = 1;
/// Snapshot format version. v4 drops the session-frame section that v1–v3
/// carried between the posts and the corpus: a columnar projection of the
/// session records, which the generation rebuilds from them on first use.
/// v3 dropped the signal section that v1 and v2 carried between the corpus
/// and the view keys: a second copy of every session and post text, which
/// served only the signal counts the generation now derives. v2 appended
/// the materialized-view key list ([`crate::views::ViewKey`]). Every older
/// snapshot still loads: its frame section is skipped, its signal section
/// (v1, v2) is validated and discarded, and a v1 snapshot (no key list)
/// recovers with an empty view set.
const SNAPSHOT_VERSION: u32 = 4;
/// Magic leading every journal record frame ("UJRL", little-endian).
const RECORD_MAGIC: u32 = 0x4C52_4A55;
/// Bytes of a journal record frame header: magic u32 + len u64 + crc u32.
const RECORD_HEADER: u64 = 16;

/// Persistence failure.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file failed structural validation (bad magic/version/checksum or
    /// a corrupt field); names the file and the violation.
    Corrupt {
        /// File that failed to decode.
        file: String,
        /// What was wrong with it.
        detail: String,
    },
    /// No loadable snapshot exists in the directory.
    NoSnapshot,
    /// The service was built without persistence attached.
    NotPersistent,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist I/O error: {e}"),
            PersistError::Corrupt { file, detail } => write!(f, "corrupt {file}: {detail}"),
            PersistError::NoSnapshot => write!(f, "no loadable snapshot in the persist directory"),
            PersistError::NotPersistent => write!(f, "service has no persistence attached"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Enum tags: the stable on-disk numbering of every enum in the format.
// Append-only — never reorder or reuse a tag.
// ---------------------------------------------------------------------------

fn platform_tag(p: Platform) -> u8 {
    match p {
        Platform::WindowsPc => 0,
        Platform::MacPc => 1,
        Platform::AndroidMobile => 2,
        Platform::IosMobile => 3,
    }
}

fn platform_from_tag(tag: u8) -> Result<Platform, bin::Error> {
    Ok(match tag {
        0 => Platform::WindowsPc,
        1 => Platform::MacPc,
        2 => Platform::AndroidMobile,
        3 => Platform::IosMobile,
        _ => return Err(bin::Error::Corrupt("unknown platform tag")),
    })
}

fn access_tag(a: AccessType) -> u8 {
    match a {
        AccessType::Fiber => 0,
        AccessType::Cable => 1,
        AccessType::Dsl => 2,
        AccessType::Wifi => 3,
        AccessType::Lte => 4,
        AccessType::SatelliteLeo => 5,
        AccessType::LongHaul => 6,
    }
}

fn access_from_tag(tag: u8) -> Result<AccessType, bin::Error> {
    Ok(match tag {
        0 => AccessType::Fiber,
        1 => AccessType::Cable,
        2 => AccessType::Dsl,
        3 => AccessType::Wifi,
        4 => AccessType::Lte,
        5 => AccessType::SatelliteLeo,
        6 => AccessType::LongHaul,
        _ => return Err(bin::Error::Corrupt("unknown access tag")),
    })
}

fn net_metric_tag(m: NetworkMetric) -> u8 {
    match m {
        NetworkMetric::LatencyMs => 0,
        NetworkMetric::LossPct => 1,
        NetworkMetric::JitterMs => 2,
        NetworkMetric::BandwidthMbps => 3,
    }
}

fn net_metric_from_tag(tag: u8) -> Result<NetworkMetric, bin::Error> {
    Ok(match tag {
        0 => NetworkMetric::LatencyMs,
        1 => NetworkMetric::LossPct,
        2 => NetworkMetric::JitterMs,
        3 => NetworkMetric::BandwidthMbps,
        _ => return Err(bin::Error::Corrupt("unknown network-metric tag")),
    })
}

fn eng_metric_tag(m: EngagementMetric) -> u8 {
    match m {
        EngagementMetric::Presence => 0,
        EngagementMetric::MicOn => 1,
        EngagementMetric::CamOn => 2,
    }
}

fn eng_metric_from_tag(tag: u8) -> Result<EngagementMetric, bin::Error> {
    Ok(match tag {
        0 => EngagementMetric::Presence,
        1 => EngagementMetric::MicOn,
        2 => EngagementMetric::CamOn,
        _ => return Err(bin::Error::Corrupt("unknown engagement-metric tag")),
    })
}

fn feature_set_tag(f: FeatureSet) -> u8 {
    match f {
        FeatureSet::NetworkOnly => 0,
        FeatureSet::EngagementOnly => 1,
        FeatureSet::Full => 2,
    }
}

fn feature_set_from_tag(tag: u8) -> Result<FeatureSet, bin::Error> {
    Ok(match tag {
        0 => FeatureSet::NetworkOnly,
        1 => FeatureSet::EngagementOnly,
        2 => FeatureSet::Full,
        _ => return Err(bin::Error::Corrupt("unknown feature-set tag")),
    })
}

/// Encode one materialized-view key (snapshot v2). Snapshots persist the
/// *keys* only — a view's accumulator is a deterministic function of
/// (key, corpus), so recovery rebuilds it instead of trusting a serialized
/// copy to match replayed state.
fn put_view_key(w: &mut Writer, key: ViewKey) {
    match key {
        ViewKey::Curve {
            sweep,
            engagement,
            bins,
        } => {
            w.put_u8(1);
            w.put_u8(net_metric_tag(sweep));
            w.put_u8(eng_metric_tag(engagement));
            w.put_u64(bins as u64);
        }
        ViewKey::Grid { engagement, bins } => {
            w.put_u8(2);
            w.put_u8(eng_metric_tag(engagement));
            w.put_u64(bins as u64);
        }
        ViewKey::Platform { sweep, engagement } => {
            w.put_u8(3);
            w.put_u8(net_metric_tag(sweep));
            w.put_u8(eng_metric_tag(engagement));
        }
        ViewKey::Mos => w.put_u8(4),
        ViewKey::Predict { features } => {
            w.put_u8(5);
            w.put_u8(feature_set_tag(features));
        }
        ViewKey::Sentiment => w.put_u8(6),
        ViewKey::Outage => w.put_u8(7),
        ViewKey::Deployment => w.put_u8(8),
        ViewKey::SpeedTrend => w.put_u8(9),
        ViewKey::EmergingTopics => w.put_u8(10),
        ViewKey::CrossNetwork { access } => {
            w.put_u8(11);
            w.put_u8(access_tag(access));
        }
    }
}

fn get_view_key(r: &mut Reader<'_>) -> Result<ViewKey, bin::Error> {
    Ok(match r.get_u8()? {
        // `bins` is a query parameter, not a collection length, so it is
        // read with `get_usize` — the `get_len` remaining-bytes guard does
        // not apply.
        1 => ViewKey::Curve {
            sweep: net_metric_from_tag(r.get_u8()?)?,
            engagement: eng_metric_from_tag(r.get_u8()?)?,
            bins: r.get_usize()?,
        },
        2 => ViewKey::Grid {
            engagement: eng_metric_from_tag(r.get_u8()?)?,
            bins: r.get_usize()?,
        },
        3 => ViewKey::Platform {
            sweep: net_metric_from_tag(r.get_u8()?)?,
            engagement: eng_metric_from_tag(r.get_u8()?)?,
        },
        4 => ViewKey::Mos,
        5 => ViewKey::Predict {
            features: feature_set_from_tag(r.get_u8()?)?,
        },
        6 => ViewKey::Sentiment,
        7 => ViewKey::Outage,
        8 => ViewKey::Deployment,
        9 => ViewKey::SpeedTrend,
        10 => ViewKey::EmergingTopics,
        11 => ViewKey::CrossNetwork {
            access: access_from_tag(r.get_u8()?)?,
        },
        _ => return Err(bin::Error::Corrupt("unknown view-key tag")),
    })
}

fn provider_tag(p: Provider) -> u8 {
    match p {
        Provider::Ookla => 0,
        Provider::Fast => 1,
        Provider::StarlinkApp => 2,
        Provider::MLab => 3,
    }
}

fn provider_from_tag(tag: u8) -> Result<Provider, bin::Error> {
    Ok(match tag {
        0 => Provider::Ookla,
        1 => Provider::Fast,
        2 => Provider::StarlinkApp,
        3 => Provider::MLab,
        _ => return Err(bin::Error::Corrupt("unknown provider tag")),
    })
}

fn topic_tag(t: PostTopic) -> u8 {
    match t {
        PostTopic::Experience => 0,
        PostTopic::SpeedShare => 1,
        PostTopic::Outage => 2,
        PostTopic::Availability => 3,
        PostTopic::Delivery => 4,
        PostTopic::Roaming => 5,
        PostTopic::Pricing => 6,
        PostTopic::Constellation => 7,
        PostTopic::Hardware => 8,
        PostTopic::General => 9,
    }
}

fn topic_from_tag(tag: u8) -> Result<PostTopic, bin::Error> {
    Ok(match tag {
        0 => PostTopic::Experience,
        1 => PostTopic::SpeedShare,
        2 => PostTopic::Outage,
        3 => PostTopic::Availability,
        4 => PostTopic::Delivery,
        5 => PostTopic::Roaming,
        6 => PostTopic::Pricing,
        7 => PostTopic::Constellation,
        8 => PostTopic::Hardware,
        9 => PostTopic::General,
        _ => return Err(bin::Error::Corrupt("unknown topic tag")),
    })
}

fn sentiment_class_tag(c: SentimentClass) -> u8 {
    match c {
        SentimentClass::StrongPositive => 0,
        SentimentClass::MildPositive => 1,
        SentimentClass::Neutral => 2,
        SentimentClass::MildNegative => 3,
        SentimentClass::StrongNegative => 4,
    }
}

fn sentiment_class_from_tag(tag: u8) -> Result<SentimentClass, bin::Error> {
    Ok(match tag {
        0 => SentimentClass::StrongPositive,
        1 => SentimentClass::MildPositive,
        2 => SentimentClass::Neutral,
        3 => SentimentClass::MildNegative,
        4 => SentimentClass::StrongNegative,
        _ => return Err(bin::Error::Corrupt("unknown sentiment-class tag")),
    })
}

fn network_hint_from_tag(tag: u8) -> Result<NetworkHint, bin::Error> {
    Ok(match tag {
        0 => NetworkHint::Terrestrial,
        1 => NetworkHint::SatelliteLeo,
        2 => NetworkHint::Unknown,
        _ => return Err(bin::Error::Corrupt("unknown network-hint tag")),
    })
}

/// Resolve a decoded country code back to the `&'static str` the domain
/// types carry: interned against the generator's country list, leaked as
/// a one-off static for codes outside it (bounded by the distinct codes
/// in a snapshot, not by signal count).
fn intern_country(code: &str) -> &'static str {
    social::authors::COUNTRIES
        .iter()
        .find(|c| **c == code)
        .copied()
        .unwrap_or_else(|| Box::leak(code.to_string().into_boxed_str()))
}

// ---------------------------------------------------------------------------
// Domain-type codecs.
// ---------------------------------------------------------------------------

fn put_date(w: &mut Writer, d: Date) {
    w.put_i32(d.days());
}

fn get_date(r: &mut Reader<'_>) -> Result<Date, bin::Error> {
    Ok(Date::from_days(r.get_i32()?))
}

fn put_summary(w: &mut Writer, s: &analytics::Summary) {
    w.put_usize(s.count);
    w.put_f64(s.min);
    w.put_f64(s.mean);
    w.put_f64(s.median);
    w.put_f64(s.p95);
    w.put_f64(s.max);
}

fn get_summary(r: &mut Reader<'_>) -> Result<analytics::Summary, bin::Error> {
    Ok(analytics::Summary {
        count: r.get_usize()?,
        min: r.get_f64()?,
        mean: r.get_f64()?,
        median: r.get_f64()?,
        p95: r.get_f64()?,
        max: r.get_f64()?,
    })
}

fn put_net_stats(w: &mut Writer, n: &SessionNetworkStats) {
    put_summary(w, &n.latency_ms);
    put_summary(w, &n.loss_pct);
    put_summary(w, &n.jitter_ms);
    put_summary(w, &n.bandwidth_mbps);
    w.put_usize(n.ticks);
}

fn get_net_stats(r: &mut Reader<'_>) -> Result<SessionNetworkStats, bin::Error> {
    Ok(SessionNetworkStats {
        latency_ms: get_summary(r)?,
        loss_pct: get_summary(r)?,
        jitter_ms: get_summary(r)?,
        bandwidth_mbps: get_summary(r)?,
        ticks: r.get_usize()?,
    })
}

fn put_option_u8(w: &mut Writer, v: Option<u8>) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            w.put_u8(x);
        }
    }
}

fn get_option_u8(r: &mut Reader<'_>) -> Result<Option<u8>, bin::Error> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_u8()?)),
        _ => Err(bin::Error::Corrupt("option tag not 0/1")),
    }
}

pub(crate) fn put_session(w: &mut Writer, s: &SessionRecord) {
    w.put_u64(s.call_id);
    w.put_u64(s.user_id);
    put_date(w, s.date);
    w.put_u8(s.start_hour);
    w.put_u8(platform_tag(s.platform));
    w.put_u8(access_tag(s.access));
    w.put_u16(s.meeting_size);
    w.put_u32(s.scheduled_ticks);
    w.put_u32(s.attended_ticks);
    put_net_stats(w, &s.net);
    w.put_f64(s.presence_pct);
    w.put_f64(s.mic_on_pct);
    w.put_f64(s.cam_on_pct);
    w.put_bool(s.left_early);
    put_option_u8(w, s.rating);
    w.put_f64(s.latent_quality);
    w.put_bool(s.conditioned);
}

pub(crate) fn get_session(r: &mut Reader<'_>) -> Result<SessionRecord, bin::Error> {
    Ok(SessionRecord {
        call_id: r.get_u64()?,
        user_id: r.get_u64()?,
        date: get_date(r)?,
        start_hour: r.get_u8()?,
        platform: platform_from_tag(r.get_u8()?)?,
        access: access_from_tag(r.get_u8()?)?,
        meeting_size: r.get_u16()?,
        scheduled_ticks: r.get_u32()?,
        attended_ticks: r.get_u32()?,
        net: get_net_stats(r)?,
        presence_pct: r.get_f64()?,
        mic_on_pct: r.get_f64()?,
        cam_on_pct: r.get_f64()?,
        left_early: r.get_bool()?,
        rating: get_option_u8(r)?,
        latent_quality: r.get_f64()?,
        conditioned: r.get_bool()?,
    })
}

fn put_speedtest(w: &mut Writer, t: &SpeedTestResult) {
    put_date(w, t.date);
    w.put_f64(t.downlink_mbps);
    w.put_f64(t.uplink_mbps);
    w.put_f64(t.latency_ms);
}

fn get_speedtest(r: &mut Reader<'_>) -> Result<SpeedTestResult, bin::Error> {
    Ok(SpeedTestResult {
        date: get_date(r)?,
        downlink_mbps: r.get_f64()?,
        uplink_mbps: r.get_f64()?,
        latency_ms: r.get_f64()?,
    })
}

pub(crate) fn put_post(w: &mut Writer, p: &Post) {
    w.put_u64(p.id);
    put_date(w, p.date);
    w.put_u64(p.author_id);
    w.put_str(p.country);
    w.put_str(&p.title);
    w.put_str(&p.body);
    w.put_u32(p.upvotes);
    w.put_u32(p.comments);
    match &p.screenshot {
        None => w.put_u8(0),
        Some(shot) => {
            w.put_u8(1);
            w.put_str(&shot.ocr_text);
            w.put_u8(provider_tag(shot.provider));
            put_speedtest(w, &shot.truth);
        }
    }
    w.put_u8(topic_tag(p.topic));
    w.put_u8(sentiment_class_tag(p.intended));
}

pub(crate) fn get_post(r: &mut Reader<'_>) -> Result<Post, bin::Error> {
    Ok(Post {
        id: r.get_u64()?,
        date: get_date(r)?,
        author_id: r.get_u64()?,
        country: intern_country(r.get_str()?),
        title: r.get_str()?.to_string(),
        body: r.get_str()?.to_string(),
        upvotes: r.get_u32()?,
        comments: r.get_u32()?,
        screenshot: match r.get_u8()? {
            0 => None,
            1 => Some(Screenshot {
                ocr_text: r.get_str()?.to_string(),
                provider: provider_from_tag(r.get_u8()?)?,
                truth: get_speedtest(r)?,
            }),
            _ => return Err(bin::Error::Corrupt("screenshot option tag not 0/1")),
        },
        topic: topic_from_tag(r.get_u8()?)?,
        intended: sentiment_class_from_tag(r.get_u8()?)?,
    })
}

fn get_scores(r: &mut Reader<'_>) -> Result<SentimentScores, bin::Error> {
    Ok(SentimentScores {
        positive: r.get_f64()?,
        negative: r.get_f64()?,
        neutral: r.get_f64()?,
    })
}

/// Decode one signal record of a v1/v2 snapshot's signal section.
fn get_signal(r: &mut Reader<'_>) -> Result<Signal, bin::Error> {
    let date = get_date(r)?;
    let network = network_hint_from_tag(r.get_u8()?)?;
    let payload = match r.get_u8()? {
        0 => Payload::Implicit(Box::new(ImplicitSignal {
            session: get_session(r)?,
        })),
        1 => Payload::Explicit(ExplicitSignal {
            rating: r.get_u8()?,
            call_id: r.get_u64()?,
            user_id: r.get_u64()?,
        }),
        2 => Payload::Social(SocialSignal {
            text: r.get_str()?.to_string(),
            upvotes: r.get_u32()?,
            comments: r.get_u32()?,
            country: intern_country(r.get_str()?),
            sentiment: get_scores(r)?,
            screenshot_text: match r.get_u8()? {
                0 => None,
                1 => Some(r.get_str()?.to_string()),
                _ => return Err(bin::Error::Corrupt("screenshot-text option tag not 0/1")),
            },
        }),
        _ => return Err(bin::Error::Corrupt("unknown payload tag")),
    };
    Ok(Signal {
        date,
        network,
        payload,
    })
}

pub(crate) fn put_quarantine_entry(w: &mut Writer, q: &QuarantineEntry) {
    w.put_usize(q.source_id);
    w.put_str(&q.source);
    w.put_usize(q.seq);
    w.put_u8(q.reason.tag());
    w.put_str(&q.detail);
    w.put_str(&q.item);
}

pub(crate) fn get_quarantine_entry(r: &mut Reader<'_>) -> Result<QuarantineEntry, bin::Error> {
    Ok(QuarantineEntry {
        source_id: r.get_usize()?,
        source: r.get_str()?.to_string(),
        seq: r.get_usize()?,
        reason: QuarantineReason::from_tag(r.get_u8()?)
            .ok_or(bin::Error::Corrupt("unknown quarantine-reason tag"))?,
        detail: r.get_str()?.to_string(),
        item: r.get_str()?.to_string(),
    })
}

pub(crate) fn put_string_list(w: &mut Writer, xs: &[String]) {
    w.put_u64(xs.len() as u64);
    for x in xs {
        w.put_str(x);
    }
}

pub(crate) fn get_string_list(r: &mut Reader<'_>) -> Result<Vec<String>, bin::Error> {
    let n = r.get_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_str()?.to_string());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Snapshot state + file I/O.
// ---------------------------------------------------------------------------

/// The service's accumulated health as persisted: the counters behind
/// `ServiceHealth` plus the durable dead-letter quarantine.
#[derive(Debug, Default, Clone)]
pub(crate) struct PersistedHealth {
    pub(crate) quarantined: usize,
    pub(crate) unfed: usize,
    pub(crate) breaker_trips: usize,
    pub(crate) open_breakers: Vec<String>,
    pub(crate) dead_letters: Vec<QuarantineEntry>,
}

impl PersistedHealth {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.quarantined);
        w.put_usize(self.unfed);
        w.put_usize(self.breaker_trips);
        put_string_list(w, &self.open_breakers);
        w.put_u64(self.dead_letters.len() as u64);
        for q in &self.dead_letters {
            put_quarantine_entry(w, q);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<PersistedHealth, bin::Error> {
        let quarantined = r.get_usize()?;
        let unfed = r.get_usize()?;
        let breaker_trips = r.get_usize()?;
        let open_breakers = get_string_list(r)?;
        let n = r.get_len()?;
        let mut dead_letters = Vec::with_capacity(n);
        for _ in 0..n {
            dead_letters.push(get_quarantine_entry(r)?);
        }
        Ok(PersistedHealth {
            quarantined,
            unfed,
            breaker_trips,
            open_breakers,
            dead_letters,
        })
    }
}

/// Borrowed view of everything a snapshot freezes — encode-side twin of
/// [`SnapshotState`], so `checkpoint` serialises straight out of the live
/// service without cloning the dataset.
pub(crate) struct SnapshotContents<'a> {
    pub(crate) epoch: u64,
    /// Journal sequence of the last record already folded into this
    /// snapshot; replay skips records with `seq <=` this.
    pub(crate) journal_seq: u64,
    pub(crate) sessions: &'a SessionChunks,
    pub(crate) posts: &'a Chunks<Post>,
    pub(crate) corpus: Option<&'a TokenCorpus>,
    pub(crate) health: &'a PersistedHealth,
    /// Keys of the materialized views installed at checkpoint time, in
    /// canonical order; recovery rebuilds them deterministically.
    pub(crate) view_keys: &'a [ViewKey],
}

/// Owned, decoded snapshot — what recovery starts from.
pub(crate) struct SnapshotState {
    pub(crate) epoch: u64,
    pub(crate) journal_seq: u64,
    pub(crate) sessions: Vec<SessionRecord>,
    pub(crate) posts: Vec<Post>,
    pub(crate) corpus: Option<TokenCorpus>,
    pub(crate) health: PersistedHealth,
    pub(crate) view_keys: Vec<ViewKey>,
}

fn encode_snapshot(c: &SnapshotContents<'_>) -> Vec<u8> {
    let mut w = Writer::with_capacity(1 << 20);
    w.put_u64(c.epoch);
    w.put_u64(c.journal_seq);
    c.health.encode(&mut w);
    w.put_u64(c.sessions.len() as u64);
    for s in c.sessions.iter() {
        put_session(&mut w, s);
    }
    w.put_u64(c.posts.len() as u64);
    for p in c.posts.iter() {
        put_post(&mut w, p);
    }
    match c.corpus {
        None => w.put_u8(0),
        Some(corpus) => {
            w.put_u8(1);
            corpus.encode_bin(&mut w);
        }
    }
    w.put_u64(c.view_keys.len() as u64);
    for &key in c.view_keys {
        put_view_key(&mut w, key);
    }
    w.into_bytes()
}

fn decode_snapshot(payload: &[u8], version: u32) -> Result<SnapshotState, bin::Error> {
    let mut r = Reader::new(payload);
    let epoch = r.get_u64()?;
    let journal_seq = r.get_u64()?;
    let health = PersistedHealth::decode(&mut r)?;
    let n_sessions = r.get_len()?;
    let mut sessions = Vec::with_capacity(n_sessions);
    for _ in 0..n_sessions {
        sessions.push(get_session(&mut r)?);
    }
    let n_posts = r.get_len()?;
    let mut posts = Vec::with_capacity(n_posts);
    for _ in 0..n_posts {
        posts.push(get_post(&mut r)?);
    }
    if version < 4 {
        skip_legacy_frame(&mut r, sessions.len())?;
    }
    let corpus = match r.get_u8()? {
        0 => None,
        1 => Some(TokenCorpus::decode_bin(&mut r)?),
        _ => return Err(bin::Error::Corrupt("corpus option tag not 0/1")),
    };
    if version < 3 {
        skip_legacy_signals(&mut r)?;
    }
    let mut view_keys = Vec::new();
    if version >= 2 {
        let n_keys = r.get_len()?;
        for _ in 0..n_keys {
            view_keys.push(get_view_key(&mut r)?);
        }
    }
    if !r.is_exhausted() {
        return Err(bin::Error::Corrupt("trailing bytes after snapshot"));
    }
    Ok(SnapshotState {
        epoch,
        journal_seq,
        sessions,
        posts,
        corpus,
        health,
        view_keys,
    })
}

/// Bytes of one session row in the frame section of a v1–v3 snapshot:
/// eleven `f64` columns, the platform and access tags, the `i32` date and
/// the rating byte.
const LEGACY_FRAME_ROW: u64 = 11 * 8 + 1 + 1 + 4 + 1;

/// Step over the frame section of a v1–v3 snapshot: the row count, 95
/// bytes per row, then the reference-mask blob (`u64` length, one byte per
/// row) — 96·rows + 16 bytes in all. The size is checked against the bytes
/// left before anything is skipped, and nothing is allocated from it.
fn skip_legacy_frame(r: &mut Reader<'_>, sessions: usize) -> Result<(), bin::Error> {
    let rows = r.get_u64()?;
    let size = rows
        .checked_mul(LEGACY_FRAME_ROW + 1)
        .and_then(|n| n.checked_add(8))
        .ok_or(bin::Error::Corrupt("frame length overflows"))?;
    if size > r.remaining() as u64 {
        return Err(bin::Error::Corrupt("frame length exceeds remaining input"));
    }
    if rows != sessions as u64 {
        return Err(bin::Error::Corrupt("frame length disagrees with sessions"));
    }
    r.skip((rows * LEGACY_FRAME_ROW) as usize)?;
    if r.get_bytes()?.len() != sessions {
        return Err(bin::Error::Corrupt(
            "ref-mask column length disagrees with frame length",
        ));
    }
    Ok(())
}

/// Walk the signal section of a v1/v2 snapshot — a per-day copy of every
/// session and post text — validating each record as it goes and keeping
/// none of it. Every count is bounded by the bytes left, and nothing is
/// allocated from one.
fn skip_legacy_signals(r: &mut Reader<'_>) -> Result<(), bin::Error> {
    for _ in 0..r.get_len()? {
        get_date(r)?;
        for _ in 0..r.get_len()? {
            get_signal(r)?;
        }
    }
    Ok(())
}

/// Path of the snapshot covering journal sequence `seq`.
fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{seq}{SNAPSHOT_SUFFIX}"))
}

/// Journal sequences of every snapshot present, descending (newest first).
pub(crate) fn snapshot_seqs(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(mid) = name
            .strip_prefix(SNAPSHOT_PREFIX)
            .and_then(|rest| rest.strip_suffix(SNAPSHOT_SUFFIX))
        {
            if let Ok(seq) = mid.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(seqs)
}

/// Bytes of a snapshot-family file header: magic + version u32 + payload
/// length u64 + CRC-32 u32.
const FILE_HEADER: usize = 24;

/// The header of a checksummed snapshot-family file: magic + version +
/// payload length + CRC-32 of the payload, which follows it on disk.
pub(crate) fn frame_file(magic: &[u8; 8], version: u32, payload: &[u8]) -> [u8; FILE_HEADER] {
    let mut header = [0u8; FILE_HEADER];
    header[..8].copy_from_slice(magic);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..].copy_from_slice(&bin::crc32(payload).to_le_bytes());
    header
}

/// Check a snapshot-family file written by [`frame_file`]: its magic, a
/// version in `versions`, the payload length against the header, then
/// the CRC-32. Returns the version and the payload. `kind` names the file
/// in the version error ("snapshot", "diff", "cluster snapshot"); the
/// error texts are quoted verbatim in recovery warnings.
pub(crate) fn unframe_file<'a>(
    magic: &[u8; 8],
    kind: &str,
    versions: std::ops::RangeInclusive<u32>,
    bytes: &'a [u8],
) -> Result<(u32, &'a [u8]), String> {
    if bytes.len() < FILE_HEADER || &bytes[..8] != magic {
        return Err("bad magic or truncated header".to_string());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !versions.contains(&version) {
        return Err(format!("unsupported {kind} version {version}"));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let payload = &bytes[FILE_HEADER..];
    if payload.len() != len {
        return Err(format!(
            "payload length {} disagrees with header {len}",
            payload.len()
        ));
    }
    if bin::crc32(payload) != crc {
        return Err("checksum mismatch".to_string());
    }
    Ok((version, payload))
}

/// Write `header` then `payload` to one file with the atomic tmp → fsync
/// → rename → fsync-dir protocol. Taking the two parts separately spares
/// a checkpoint a second, framed copy of its encoded payload.
pub(crate) fn write_atomic(
    dir: &Path,
    tmp_name: &str,
    path: &Path,
    header: &[u8],
    payload: &[u8],
) -> std::io::Result<()> {
    let tmp = dir.join(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(header)?;
        f.write_all(payload)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(dir)
}

/// Write a snapshot with the atomic tmp → fsync → rename → fsync-dir
/// protocol, then prune snapshots beyond the retention count (and any
/// differential snapshot whose base full snapshot was just pruned — such a
/// diff could never be applied again). Returns the final path.
pub(crate) fn write_snapshot(
    dir: &Path,
    contents: &SnapshotContents<'_>,
) -> Result<PathBuf, PersistError> {
    let payload = encode_snapshot(contents);
    let header = frame_file(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload);
    let path = snapshot_path(dir, contents.journal_seq);
    write_atomic(dir, SNAPSHOT_TMP, &path, &header, &payload)?;

    for stale in snapshot_seqs(dir)?.into_iter().skip(SNAPSHOTS_KEPT) {
        let _ = fs::remove_file(snapshot_path(dir, stale));
    }
    let kept: Vec<u64> = snapshot_seqs(dir)?;
    for (base_seq, seq) in diff_seqs(dir)? {
        if !kept.contains(&base_seq) {
            let _ = fs::remove_file(diff_path(dir, base_seq, seq));
        }
    }
    Ok(path)
}

/// Decode one snapshot file.
fn load_snapshot(path: &Path) -> Result<SnapshotState, PersistError> {
    let corrupt = |detail: String| PersistError::Corrupt {
        file: path.display().to_string(),
        detail,
    };
    let bytes = fs::read(path)?;
    // v1–v3 readable for upgrade-in-place: their frame section (and v1/v2's
    // signal section) is skipped, and v1's missing view-key tail decodes
    // to an empty view set.
    let (version, payload) =
        unframe_file(SNAPSHOT_MAGIC, "snapshot", 1..=SNAPSHOT_VERSION, &bytes).map_err(corrupt)?;
    decode_snapshot(payload, version).map_err(|e| corrupt(e.to_string()))
}

// ---------------------------------------------------------------------------
// Differential snapshots.
//
// All persisted state grows append-only — sessions and posts only ever
// extend, and the health/view-key bits are small. So the dirty range since
// the last full snapshot is a *suffix* of each, and a differential
// checkpoint writes exactly that: the session and post tails past the base
// full snapshot's watermarks, plus the (small) full health and view-key
// list. Applying a diff re-derives the rest the same way journal replay
// does: the corpus extends from the post tail (id-stable), and the frame
// is rebuilt from the sessions on first use. The journal is never
// truncated by a diff, so a diff that fails to apply — missing or corrupt
// base, unknown version, watermark mismatch — degrades to the
// full-snapshot chain plus journal replay, never to data loss.
// ---------------------------------------------------------------------------

/// Borrowed view of a differential checkpoint — encode-side twin of
/// [`DiffState`]. `sessions`/`posts` are the *full* live collections; the
/// encoder writes only the suffixes past `base_rows`/`base_posts`.
pub(crate) struct DiffContents<'a> {
    pub(crate) epoch: u64,
    /// Journal sequence of the last record folded into this diff.
    pub(crate) journal_seq: u64,
    /// Journal sequence of the full base snapshot this diff extends.
    pub(crate) base_seq: u64,
    /// Session count of the base snapshot (start of the dirty suffix).
    pub(crate) base_rows: usize,
    /// Post count of the base snapshot (start of the dirty suffix).
    pub(crate) base_posts: usize,
    pub(crate) sessions: &'a SessionChunks,
    pub(crate) posts: &'a Chunks<Post>,
    pub(crate) health: &'a PersistedHealth,
    pub(crate) view_keys: &'a [ViewKey],
}

/// Owned, decoded differential snapshot.
struct DiffState {
    epoch: u64,
    journal_seq: u64,
    base_seq: u64,
    base_rows: usize,
    base_posts: usize,
    sessions_tail: Vec<SessionRecord>,
    posts_tail: Vec<Post>,
    health: PersistedHealth,
    view_keys: Vec<ViewKey>,
}

fn encode_diff(c: &DiffContents<'_>) -> Vec<u8> {
    let mut w = Writer::with_capacity(1 << 16);
    w.put_u64(c.epoch);
    w.put_u64(c.journal_seq);
    w.put_u64(c.base_seq);
    w.put_u64(c.base_rows as u64);
    w.put_u64(c.base_posts as u64);
    c.health.encode(&mut w);
    let tail_rows = c.sessions.len() - c.base_rows;
    w.put_u64(tail_rows as u64);
    for s in c.sessions.iter().skip(c.base_rows) {
        put_session(&mut w, s);
    }
    w.put_u64((c.posts.len() - c.base_posts) as u64);
    for p in c.posts.iter().skip(c.base_posts) {
        put_post(&mut w, p);
    }
    w.put_u64(c.view_keys.len() as u64);
    for &key in c.view_keys {
        put_view_key(&mut w, key);
    }
    w.into_bytes()
}

fn decode_diff(payload: &[u8]) -> Result<DiffState, bin::Error> {
    let mut r = Reader::new(payload);
    let epoch = r.get_u64()?;
    let journal_seq = r.get_u64()?;
    let base_seq = r.get_u64()?;
    let base_rows = r.get_usize()?;
    let base_posts = r.get_usize()?;
    let health = PersistedHealth::decode(&mut r)?;
    let n_sessions = r.get_len()?;
    let mut sessions_tail = Vec::with_capacity(n_sessions);
    for _ in 0..n_sessions {
        sessions_tail.push(get_session(&mut r)?);
    }
    let n_posts = r.get_len()?;
    let mut posts_tail = Vec::with_capacity(n_posts);
    for _ in 0..n_posts {
        posts_tail.push(get_post(&mut r)?);
    }
    let n_keys = r.get_len()?;
    let mut view_keys = Vec::with_capacity(n_keys.min(64));
    for _ in 0..n_keys {
        view_keys.push(get_view_key(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(bin::Error::Corrupt("trailing bytes after diff snapshot"));
    }
    Ok(DiffState {
        epoch,
        journal_seq,
        base_seq,
        base_rows,
        base_posts,
        sessions_tail,
        posts_tail,
        health,
        view_keys,
    })
}

/// Path of the diff extending full snapshot `base_seq` through `seq`.
fn diff_path(dir: &Path, base_seq: u64, seq: u64) -> PathBuf {
    dir.join(format!("{DIFF_PREFIX}{base_seq}-{seq}{SNAPSHOT_SUFFIX}"))
}

/// `(base_seq, seq)` of every differential snapshot present, descending by
/// `seq` (newest first).
pub(crate) fn diff_seqs(dir: &Path) -> std::io::Result<Vec<(u64, u64)>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(mid) = name
            .strip_prefix(DIFF_PREFIX)
            .and_then(|rest| rest.strip_suffix(SNAPSHOT_SUFFIX))
        {
            if let Some((base, seq)) = mid.split_once('-') {
                if let (Ok(base), Ok(seq)) = (base.parse::<u64>(), seq.parse::<u64>()) {
                    seqs.push((base, seq));
                }
            }
        }
    }
    seqs.sort_unstable_by_key(|s| std::cmp::Reverse(s.1));
    Ok(seqs)
}

/// Write a differential snapshot atomically, then prune diffs beyond the
/// retention count. Returns the final path.
pub(crate) fn write_diff_snapshot(
    dir: &Path,
    contents: &DiffContents<'_>,
) -> Result<PathBuf, PersistError> {
    let payload = encode_diff(contents);
    let header = frame_file(DIFF_MAGIC, DIFF_VERSION, &payload);
    let path = diff_path(dir, contents.base_seq, contents.journal_seq);
    write_atomic(dir, DIFF_TMP, &path, &header, &payload)?;

    for (base, seq) in diff_seqs(dir)?.into_iter().skip(DIFFS_KEPT) {
        let _ = fs::remove_file(diff_path(dir, base, seq));
    }
    Ok(path)
}

/// Decode one differential snapshot file.
fn load_diff(path: &Path) -> Result<DiffState, PersistError> {
    let corrupt = |detail: String| PersistError::Corrupt {
        file: path.display().to_string(),
        detail,
    };
    let bytes = fs::read(path)?;
    let (_, payload) =
        unframe_file(DIFF_MAGIC, "diff", 1..=DIFF_VERSION, &bytes).map_err(corrupt)?;
    decode_diff(payload).map_err(|e| corrupt(e.to_string()))
}

/// Apply a decoded diff on top of its base full snapshot, re-deriving the
/// corpus exactly as journal replay would: when the base carried one, it
/// extends from the post tail (extension preserves existing token ids).
/// Errors when the base does not match the watermarks the diff was
/// encoded against.
fn apply_diff(
    mut base: SnapshotState,
    diff: DiffState,
    workers: usize,
) -> Result<SnapshotState, PersistError> {
    let mismatch = |detail: String| PersistError::Corrupt {
        file: format!("diff over base seq {}", diff.base_seq),
        detail,
    };
    if base.journal_seq != diff.base_seq {
        return Err(mismatch(format!(
            "base journal seq {} != expected {}",
            base.journal_seq, diff.base_seq
        )));
    }
    if base.sessions.len() != diff.base_rows || base.posts.len() != diff.base_posts {
        return Err(mismatch(format!(
            "base watermarks ({} sessions, {} posts) != expected ({}, {})",
            base.sessions.len(),
            base.posts.len(),
            diff.base_rows,
            diff.base_posts
        )));
    }

    if let Some(corpus) = &mut base.corpus {
        let posts_tail = &diff.posts_tail;
        corpus.extend_with(posts_tail.len(), workers, |i, emit| {
            for part in posts_tail[i].text_parts() {
                emit(part);
            }
        });
    }
    base.sessions.extend(diff.sessions_tail);
    base.posts.extend(diff.posts_tail);
    base.epoch = diff.epoch;
    base.journal_seq = diff.journal_seq;
    base.health = diff.health;
    base.view_keys = diff.view_keys;
    Ok(base)
}

/// One recoverable on-disk state, newest first: either a full snapshot or
/// a differential one (with the base it needs).
enum StateCandidate {
    Full(u64),
    Diff { base_seq: u64, seq: u64 },
}

/// Load the newest valid persisted state — full or differential —
/// falling back candidate by candidate on corruption, an unknown diff
/// version, a missing diff base, or a watermark mismatch. Every skipped
/// candidate becomes a warning. Errors only when nothing loads at all.
pub(crate) fn load_latest_state(
    dir: &Path,
    workers: usize,
    warnings: &mut Vec<String>,
) -> Result<SnapshotState, PersistError> {
    let mut candidates: Vec<StateCandidate> = snapshot_seqs(dir)?
        .into_iter()
        .map(StateCandidate::Full)
        .chain(
            diff_seqs(dir)?
                .into_iter()
                .map(|(base_seq, seq)| StateCandidate::Diff { base_seq, seq }),
        )
        .collect();
    if candidates.is_empty() {
        return Err(PersistError::NoSnapshot);
    }
    // Newest journal coverage first; on a tie the full snapshot wins (no
    // base dependency).
    candidates.sort_by_key(|c| match *c {
        StateCandidate::Full(seq) => (std::cmp::Reverse(seq), 0),
        StateCandidate::Diff { seq, .. } => (std::cmp::Reverse(seq), 1),
    });
    for candidate in candidates {
        match candidate {
            StateCandidate::Full(seq) => match load_snapshot(&snapshot_path(dir, seq)) {
                Ok(state) => return Ok(state),
                Err(e) => warnings.push(format!(
                    "snapshot seq {seq} unusable, falling back to the previous one: {e}"
                )),
            },
            StateCandidate::Diff { base_seq, seq } => {
                let applied = load_diff(&diff_path(dir, base_seq, seq))
                    .and_then(|diff| {
                        load_snapshot(&snapshot_path(dir, base_seq)).map(|base| (base, diff))
                    })
                    .and_then(|(base, diff)| apply_diff(base, diff, workers));
                match applied {
                    Ok(state) => return Ok(state),
                    Err(e) => warnings.push(format!(
                        "diff seq {seq} (base {base_seq}) unusable, falling back: {e}"
                    )),
                }
            }
        }
    }
    Err(PersistError::NoSnapshot)
}

// ---------------------------------------------------------------------------
// Journal.
// ---------------------------------------------------------------------------

/// One committed ingest run as journaled: what was accepted, what was
/// dead-lettered, and the health deltas to fold in.
#[derive(Debug, Clone, Default)]
pub(crate) struct JournalRecord {
    /// Monotonic sequence, 1-based; independent of the epoch because a
    /// fully-quarantined run journals without committing a generation.
    pub(crate) seq: u64,
    /// Service epoch after applying this record (unchanged when the run
    /// accepted nothing).
    pub(crate) epoch_after: u64,
    pub(crate) sessions: Vec<SessionRecord>,
    pub(crate) posts: Vec<Post>,
    pub(crate) quarantined: Vec<QuarantineEntry>,
    pub(crate) unfed: usize,
    pub(crate) breaker_trips: usize,
    pub(crate) open_breakers: Vec<String>,
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.seq);
        w.put_u64(self.epoch_after);
        w.put_u64(self.sessions.len() as u64);
        for s in &self.sessions {
            put_session(&mut w, s);
        }
        w.put_u64(self.posts.len() as u64);
        for p in &self.posts {
            put_post(&mut w, p);
        }
        w.put_u64(self.quarantined.len() as u64);
        for q in &self.quarantined {
            put_quarantine_entry(&mut w, q);
        }
        w.put_usize(self.unfed);
        w.put_usize(self.breaker_trips);
        put_string_list(&mut w, &self.open_breakers);
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<JournalRecord, bin::Error> {
        let mut r = Reader::new(payload);
        let seq = r.get_u64()?;
        let epoch_after = r.get_u64()?;
        let n_sessions = r.get_len()?;
        let mut sessions = Vec::with_capacity(n_sessions);
        for _ in 0..n_sessions {
            sessions.push(get_session(&mut r)?);
        }
        let n_posts = r.get_len()?;
        let mut posts = Vec::with_capacity(n_posts);
        for _ in 0..n_posts {
            posts.push(get_post(&mut r)?);
        }
        let n_quarantined = r.get_len()?;
        let mut quarantined = Vec::with_capacity(n_quarantined);
        for _ in 0..n_quarantined {
            quarantined.push(get_quarantine_entry(&mut r)?);
        }
        let unfed = r.get_usize()?;
        let breaker_trips = r.get_usize()?;
        let open_breakers = get_string_list(&mut r)?;
        if !r.is_exhausted() {
            return Err(bin::Error::Corrupt("trailing bytes after journal record"));
        }
        Ok(JournalRecord {
            seq,
            epoch_after,
            sessions,
            posts,
            quarantined,
            unfed,
            breaker_trips,
            open_breakers,
        })
    }
}

/// Append handle on the journal file. Each [`Journal::append`] writes one
/// framed record and fsyncs, so a record is either fully durable or —
/// after a crash mid-write — a torn tail the next recovery truncates.
#[derive(Debug)]
pub(crate) struct Journal {
    file: fs::File,
}

#[cfg(test)]
impl Journal {
    /// A handle on `path` that every append fails on (read-only): how the
    /// tests provoke a journal-write failure.
    pub(crate) fn read_only(path: &Path) -> std::io::Result<Journal> {
        Ok(Journal {
            file: fs::File::open(path)?,
        })
    }
}

impl Journal {
    /// Open (creating if needed) the journal for appending.
    fn open_append(path: &Path) -> std::io::Result<Journal> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal { file })
    }

    /// Append one record durably.
    fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(payload.len() + RECORD_HEADER as usize);
        frame.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&bin::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_all()
    }
}

/// Read every valid journal record and repair the file: a torn or corrupt
/// tail (truncated frame, bad magic, checksum or decode failure) is cut
/// back to the last valid record boundary with `set_len`, and the repair
/// is reported as a warning. Returns the surviving records in file order.
pub(crate) fn read_and_repair_journal(
    path: &Path,
    warnings: &mut Vec<String>,
) -> Result<Vec<JournalRecord>, PersistError> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let bytes = fs::read(path)?;
    let (records, valid_len, complaint) = scan_journal(&bytes);
    if let Some(complaint) = complaint {
        warnings.push(format!(
            "journal {}: {complaint}; truncated to the last valid record ({} of {} bytes kept)",
            path.display(),
            valid_len,
            bytes.len()
        ));
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(valid_len)?;
        f.sync_all()?;
    }
    Ok(records)
}

/// Check the journal record frame starting at `pos`: a whole header, the
/// record magic, a payload inside `bytes`, and its CRC-32. Returns the
/// payload's byte range, or why the frame is unusable. The repair, offset
/// and compaction walks all step through the journal with it.
fn record_frame(bytes: &[u8], pos: usize) -> Result<std::ops::Range<usize>, &'static str> {
    if bytes.len() - pos < RECORD_HEADER as usize {
        return Err("torn record header");
    }
    let magic = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
    if magic != RECORD_MAGIC {
        return Err("bad record magic");
    }
    let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4 bytes"));
    let body_start = pos + RECORD_HEADER as usize;
    let Some(body_end) = (len as usize)
        .checked_add(body_start)
        .filter(|end| *end <= bytes.len())
    else {
        return Err("torn record payload");
    };
    if bin::crc32(&bytes[body_start..body_end]) != crc {
        return Err("record checksum mismatch");
    }
    Ok(body_start..body_end)
}

/// Walk the journal byte stream, returning `(records, valid_len,
/// complaint)` where `valid_len` is the byte length of the valid prefix
/// and `complaint` describes why the scan stopped early (None when the
/// whole file is valid).
fn scan_journal(bytes: &[u8]) -> (Vec<JournalRecord>, u64, Option<String>) {
    let mut records = Vec::new();
    let mut pos: usize = 0;
    while pos < bytes.len() {
        let body = match record_frame(bytes, pos) {
            Ok(body) => body,
            Err(complaint) => return (records, pos as u64, Some(complaint.to_string())),
        };
        match JournalRecord::decode(&bytes[body.clone()]) {
            Ok(rec) => records.push(rec),
            Err(e) => {
                return (
                    records,
                    pos as u64,
                    Some(format!("record undecodable: {e}")),
                );
            }
        }
        pos = body.end;
    }
    (records, pos as u64, None)
}

/// Byte offsets of the record boundaries in a journal file: `offsets[0] ==
/// 0` and `offsets[k]` is the end of the `k`-th valid record. Exposed so
/// crash-recovery tests (and operators) can cut a journal at exact commit
/// boundaries.
pub fn journal_record_offsets(path: &Path) -> Result<Vec<u64>, PersistError> {
    let bytes = fs::read(path)?;
    let mut offsets = vec![0u64];
    let mut pos: usize = 0;
    while let Ok(body) = record_frame(&bytes, pos) {
        offsets.push(body.end as u64);
        pos = body.end;
    }
    Ok(offsets)
}

/// Live-journal observability: how much disk the write-ahead log holds
/// and which records are still replayable. Surfaced through
/// `ServiceHealth`/`ClusterHealth` so compaction is testable from the
/// outside ("did `oldest_live_seq` advance? are `bytes` bounded?").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Bytes the journal file currently occupies on disk.
    pub bytes: u64,
    /// Records currently live in the file (replayed on recovery).
    pub records: u64,
    /// Sequence of the oldest record still in the file (0 when empty).
    pub oldest_live_seq: u64,
    /// Sequence of the most recently appended record (0 before the first).
    pub last_seq: u64,
    /// Compaction passes that actually dropped records.
    pub compactions: u64,
    /// Total records dropped across all compaction passes.
    pub records_compacted: u64,
}

impl JournalStats {
    /// Fold another journal's stats into this one (cluster aggregation):
    /// byte/record/compaction counters add, `oldest_live_seq` takes the
    /// minimum non-zero seq, `last_seq` the maximum.
    pub fn merge(&mut self, other: &JournalStats) {
        self.bytes += other.bytes;
        self.records += other.records;
        self.compactions += other.compactions;
        self.records_compacted += other.records_compacted;
        self.last_seq = self.last_seq.max(other.last_seq);
        if other.oldest_live_seq != 0
            && (self.oldest_live_seq == 0 || other.oldest_live_seq < self.oldest_live_seq)
        {
            self.oldest_live_seq = other.oldest_live_seq;
        }
    }
}

/// Outcome of one journal compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// The safety bound: records with `seq <= safe_seq` were eligible to
    /// drop because every surviving recovery candidate already covers them.
    pub safe_seq: u64,
    /// Records kept (all with `seq > safe_seq`).
    pub kept_records: u64,
    /// Records dropped by this pass.
    pub dropped_records: u64,
    /// Sequence of the oldest surviving record (0 when none survive).
    pub oldest_live_seq: u64,
    /// Journal bytes before the pass.
    pub bytes_before: u64,
    /// Journal bytes after the pass.
    pub bytes_after: u64,
}

/// Compact the journal in `dir`: drop every record with `seq <=
/// keep_after`, keeping the survivors **byte-verbatim** (raw frames are
/// copied, never re-encoded, so record checksums and kill-point cut
/// offsets stay exactly as the original appends wrote them).
///
/// Crash safety mirrors snapshot writes: survivors are written to
/// [`JOURNAL_TMP`], fsynced, renamed over [`JOURNAL_FILE`], and the
/// directory is fsynced. A crash before the rename leaves the old journal
/// intact (plus a stray tmp recovery ignores); a crash after leaves the
/// fully-formed compacted journal. There is no in-between state.
///
/// The caller must hold the append lock: the rename replaces the inode
/// under any open append handle, so the handle must be reopened before
/// the next append.
fn compact_journal_file(dir: &Path, keep_after: u64) -> Result<CompactionReport, PersistError> {
    let path = dir.join(JOURNAL_FILE);
    let mut report = CompactionReport {
        safe_seq: keep_after,
        ..CompactionReport::default()
    };
    if !path.exists() {
        return Ok(report);
    }
    let bytes = fs::read(&path)?;
    report.bytes_before = bytes.len() as u64;
    // Frame-level scan: validate magic/len/crc and read each record's seq
    // (first payload field) without decoding bodies.
    let mut frames: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
    let mut pos: usize = 0;
    while let Ok(body) = record_frame(&bytes, pos) {
        if body.len() < 8 {
            break;
        }
        let seq = u64::from_le_bytes(bytes[body.start..body.start + 8].try_into().expect("seq"));
        frames.push((seq, pos..body.end));
        pos = body.end;
    }
    let total = frames.len() as u64;
    report.kept_records = frames.iter().filter(|(seq, _)| *seq > keep_after).count() as u64;
    report.dropped_records = total - report.kept_records;
    report.oldest_live_seq = frames
        .iter()
        .find(|(seq, _)| *seq > keep_after)
        .map(|(seq, _)| *seq)
        .unwrap_or(0);
    if report.dropped_records == 0 {
        // Nothing to drop: leave the file untouched (a torn tail, if any,
        // stays for the usual recovery-time repair).
        report.bytes_after = report.bytes_before;
        return Ok(report);
    }
    let mut out = Vec::new();
    for (seq, range) in &frames {
        if *seq > keep_after {
            out.extend_from_slice(&bytes[range.clone()]);
        }
    }
    report.bytes_after = out.len() as u64;
    write_atomic(dir, JOURNAL_TMP, &path, &[], &out)?;
    Ok(report)
}

/// The write-ahead log of one persist directory: the open [`Journal`]
/// handle plus the bookkeeping behind [`JournalStats`]. The single service
/// and the cluster router each own one; it assigns record seqs, counts the
/// live records, and reopens the handle after a compaction rewrite, so no
/// caller touches the journal file or its counters directly.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: PathBuf,
    /// The append handle; crate-visible only so unit tests can swap in a
    /// failing [`Journal::read_only`] handle.
    pub(crate) journal: Journal,
    /// Sequence of the newest record (0 before the first append).
    /// Monotonic and independent of the epoch: a run that quarantined
    /// everything journals without committing a generation.
    last_seq: u64,
    /// Records currently live in the file (appends increment, compaction
    /// resets to the survivor count).
    live_records: u64,
    /// Seq of the oldest record still in the file (0 when empty).
    oldest_live_seq: u64,
    /// Compaction passes that actually dropped records.
    compactions: u64,
    /// Total records dropped across all compaction passes.
    records_compacted: u64,
}

impl Wal {
    /// Open (creating if needed) an empty journal in `dir`.
    pub(crate) fn create(dir: &Path) -> std::io::Result<Wal> {
        Wal::resume(dir, 0, 0, 0)
    }

    /// Resume appending in `dir` after recovery: the repaired journal
    /// holds `live_records` records starting at `oldest_live_seq`, and
    /// the recovered state covers every seq through `last_seq`.
    pub(crate) fn resume(
        dir: &Path,
        last_seq: u64,
        live_records: u64,
        oldest_live_seq: u64,
    ) -> std::io::Result<Wal> {
        Ok(Wal {
            dir: dir.to_path_buf(),
            journal: Journal::open_append(&dir.join(JOURNAL_FILE))?,
            last_seq,
            live_records,
            oldest_live_seq,
            compactions: 0,
            records_compacted: 0,
        })
    }

    /// The persist directory the log lives in.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence of the newest durable record (0 before the first).
    pub(crate) fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Journal one ingest run as the next record — the accepted `sessions`
    /// and `posts`, landing on `epoch_after`, plus the run's quarantine and
    /// health deltas — written and fsynced before the caller commits. On
    /// success the record counts as live. The record comes back either
    /// way, so the caller gets its batch back without a copy: on `Err` it
    /// must not commit (`record.seq` names the seq that failed), since
    /// memory would then hold a batch a restart cannot replay.
    pub(crate) fn append(
        &mut self,
        epoch_after: u64,
        sessions: Vec<SessionRecord>,
        posts: Vec<Post>,
        report: &IngestReport,
    ) -> (JournalRecord, std::io::Result<()>) {
        let record = JournalRecord {
            seq: self.last_seq + 1,
            epoch_after,
            sessions,
            posts,
            quarantined: report.quarantined.clone(),
            unfed: report.unfed,
            breaker_trips: report.breaker_trips,
            open_breakers: report.open_breakers(),
        };
        let written = self.journal.append(&record);
        if written.is_ok() {
            self.last_seq = record.seq;
            self.live_records += 1;
            if self.oldest_live_seq == 0 {
                self.oldest_live_seq = record.seq;
            }
        }
        (record, written)
    }

    /// Observability: bytes on disk, live records, and the counters.
    pub(crate) fn stats(&self) -> JournalStats {
        let bytes = fs::metadata(self.dir.join(JOURNAL_FILE))
            .map(|m| m.len())
            .unwrap_or(0);
        JournalStats {
            bytes,
            records: self.live_records,
            oldest_live_seq: self.oldest_live_seq,
            last_seq: self.last_seq,
            compactions: self.compactions,
            records_compacted: self.records_compacted,
        }
    }

    /// Drop every record with `seq <= safe_seq` (see
    /// [`compact_journal_file`]). A pass that drops records reopens the
    /// append handle — the rewrite replaced the inode it pointed at — and
    /// moves the live counts to the survivors. The caller must hold its
    /// append lock.
    ///
    /// A pass that cannot drop anything — `safe_seq` is 0, the log holds
    /// no live record, or `safe_seq` lies below the oldest live seq —
    /// reports from [`Wal::stats`] without opening the file.
    pub(crate) fn compact(&mut self, safe_seq: u64) -> Result<CompactionReport, PersistError> {
        if self.oldest_live_seq == 0 || safe_seq < self.oldest_live_seq {
            let stats = self.stats();
            return Ok(CompactionReport {
                safe_seq,
                kept_records: stats.records,
                dropped_records: 0,
                oldest_live_seq: stats.oldest_live_seq,
                bytes_before: stats.bytes,
                bytes_after: stats.bytes,
            });
        }
        let report = compact_journal_file(&self.dir, safe_seq)?;
        if report.dropped_records > 0 {
            self.journal = Journal::open_append(&self.dir.join(JOURNAL_FILE))?;
            self.live_records = report.kept_records;
            self.oldest_live_seq = report.oldest_live_seq;
            self.compactions += 1;
            self.records_compacted += report.dropped_records;
        }
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// Cluster root snapshots.
//
// The cluster root log re-derives two things on recovery that no partition
// holds: the global order maps (how partition-local rows interleave into
// single-service row order) and the router-side health totals. Compacting
// the root log is therefore only safe once that derived state is checkpointed
// somewhere else — which is exactly what a cluster root snapshot is: the
// order maps, the per-partition committed-batch counts, and the router
// totals as of a covered root-log sequence. Recovery loads the newest
// loadable one, replays only the journal records past its coverage into the
// maps, and uses the batch counts to index roll-forward batches for lagging
// partitions. Retention mirrors the single-service snapshots: the newest
// CLUSTER_SNAPSHOTS_KEPT are kept, and the *oldest retained* one is the
// compaction safety bound, so a corrupt newest snapshot can always fall back
// to an older one whose journal tail is still fully present.
// ---------------------------------------------------------------------------

/// File-name prefix of cluster root snapshots
/// (`cluster-<covered_seq>.snap`), written at the cluster directory root
/// next to `journal.log` and `cluster.meta`.
const CLUSTER_SNAP_PREFIX: &str = "cluster-";
/// Cluster root snapshot extension.
const CLUSTER_SNAP_SUFFIX: &str = ".snap";
/// Temp name a cluster root snapshot is encoded under before the atomic
/// rename. Recovery never reads this name (and the scan requires the
/// `cluster-` prefix, which `cluster.tmp` lacks), so a crash mid-write
/// leaves at worst a stray tmp.
const CLUSTER_SNAP_TMP: &str = "cluster.tmp";
/// Magic leading every cluster root snapshot.
const CLUSTER_SNAP_MAGIC: &[u8; 8] = b"USAASCL\x01";
/// Cluster root snapshot format version.
const CLUSTER_SNAP_VERSION: u32 = 1;
/// How many cluster root snapshots to keep.
const CLUSTER_SNAPSHOTS_KEPT: usize = 2;

/// One cluster root snapshot: the router-derived state as of
/// `covered_seq`, everything cluster recovery would otherwise re-derive by
/// replaying the root log from its base record.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ClusterSnapContents {
    /// Last root-log sequence folded into this snapshot. Journal records
    /// with `seq <= covered_seq` contribute nothing to the maps or totals
    /// on recovery (they are only replayed for partition roll-forward).
    pub(crate) covered_seq: u64,
    /// Cluster epoch at `covered_seq`.
    pub(crate) epoch: u64,
    /// Partition count the maps were built for (must match `cluster.meta`).
    pub(crate) partitions: usize,
    /// Committed non-empty sub-batches per partition through
    /// `covered_seq` — the roll-forward indexing origin.
    pub(crate) batch_counts: Vec<u64>,
    /// Per-partition session order maps (local index → global index).
    pub(crate) session_maps: Vec<Vec<usize>>,
    /// Per-partition post order maps.
    pub(crate) post_maps: Vec<Vec<usize>>,
    /// Global session count the maps cover.
    pub(crate) total_sessions: usize,
    /// Global post count the maps cover.
    pub(crate) total_posts: usize,
    /// Router-side quarantined total.
    pub(crate) quarantined: usize,
    /// Router-side unfed total.
    pub(crate) unfed: usize,
    /// Router-side breaker-trip total.
    pub(crate) breaker_trips: usize,
    /// Breakers the last run before `covered_seq` left open.
    pub(crate) open_breakers: Vec<String>,
    /// The router's bounded dead-letter ring at `covered_seq`.
    pub(crate) dead_letters: Vec<QuarantineEntry>,
    /// Dead letters already evicted from the ring at `covered_seq`.
    pub(crate) dead_letters_dropped: usize,
}

impl ClusterSnapContents {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.covered_seq);
        w.put_u64(self.epoch);
        w.put_usize(self.partitions);
        for c in &self.batch_counts {
            w.put_u64(*c);
        }
        let put_maps = |w: &mut Writer, maps: &[Vec<usize>]| {
            for map in maps {
                w.put_u64(map.len() as u64);
                for &g in map {
                    w.put_usize(g);
                }
            }
        };
        put_maps(&mut w, &self.session_maps);
        put_maps(&mut w, &self.post_maps);
        w.put_usize(self.total_sessions);
        w.put_usize(self.total_posts);
        w.put_usize(self.quarantined);
        w.put_usize(self.unfed);
        w.put_usize(self.breaker_trips);
        put_string_list(&mut w, &self.open_breakers);
        w.put_u64(self.dead_letters.len() as u64);
        for q in &self.dead_letters {
            put_quarantine_entry(&mut w, q);
        }
        w.put_usize(self.dead_letters_dropped);
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<ClusterSnapContents, bin::Error> {
        let mut r = Reader::new(payload);
        let covered_seq = r.get_u64()?;
        let epoch = r.get_u64()?;
        let partitions = r.get_usize()?;
        if partitions == 0 || partitions > 4096 {
            return Err(bin::Error::Corrupt("implausible partition count"));
        }
        let mut batch_counts = Vec::with_capacity(partitions);
        for _ in 0..partitions {
            batch_counts.push(r.get_u64()?);
        }
        let get_maps = |r: &mut Reader<'_>| -> Result<Vec<Vec<usize>>, bin::Error> {
            let mut maps = Vec::with_capacity(partitions);
            for _ in 0..partitions {
                let n = r.get_len()?;
                let mut map = Vec::with_capacity(n);
                for _ in 0..n {
                    map.push(r.get_usize()?);
                }
                maps.push(map);
            }
            Ok(maps)
        };
        let session_maps = get_maps(&mut r)?;
        let post_maps = get_maps(&mut r)?;
        let total_sessions = r.get_usize()?;
        let total_posts = r.get_usize()?;
        if session_maps.iter().map(Vec::len).sum::<usize>() != total_sessions
            || post_maps.iter().map(Vec::len).sum::<usize>() != total_posts
        {
            return Err(bin::Error::Corrupt("order maps disagree with totals"));
        }
        let quarantined = r.get_usize()?;
        let unfed = r.get_usize()?;
        let breaker_trips = r.get_usize()?;
        let open_breakers = get_string_list(&mut r)?;
        let n = r.get_len()?;
        let mut dead_letters = Vec::with_capacity(n);
        for _ in 0..n {
            dead_letters.push(get_quarantine_entry(&mut r)?);
        }
        let dead_letters_dropped = r.get_usize()?;
        if !r.is_exhausted() {
            return Err(bin::Error::Corrupt("trailing bytes after cluster snapshot"));
        }
        Ok(ClusterSnapContents {
            covered_seq,
            epoch,
            partitions,
            batch_counts,
            session_maps,
            post_maps,
            total_sessions,
            total_posts,
            quarantined,
            unfed,
            breaker_trips,
            open_breakers,
            dead_letters,
            dead_letters_dropped,
        })
    }
}

/// Path of the cluster root snapshot covering root-log sequence `seq`.
fn cluster_snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{CLUSTER_SNAP_PREFIX}{seq}{CLUSTER_SNAP_SUFFIX}"))
}

/// Covered sequences of every cluster root snapshot present, descending
/// (newest first).
pub(crate) fn cluster_snapshot_seqs(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(mid) = name
            .strip_prefix(CLUSTER_SNAP_PREFIX)
            .and_then(|rest| rest.strip_suffix(CLUSTER_SNAP_SUFFIX))
        {
            if let Ok(seq) = mid.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(seqs)
}

/// Write a cluster root snapshot with the atomic tmp → fsync → rename →
/// fsync-dir protocol, then prune beyond the retention count. Returns the
/// final path.
pub(crate) fn write_cluster_snapshot(
    dir: &Path,
    contents: &ClusterSnapContents,
) -> Result<PathBuf, PersistError> {
    let payload = contents.encode();
    let header = frame_file(CLUSTER_SNAP_MAGIC, CLUSTER_SNAP_VERSION, &payload);
    let path = cluster_snapshot_path(dir, contents.covered_seq);
    write_atomic(dir, CLUSTER_SNAP_TMP, &path, &header, &payload)?;
    for stale in cluster_snapshot_seqs(dir)?
        .into_iter()
        .skip(CLUSTER_SNAPSHOTS_KEPT)
    {
        let _ = fs::remove_file(cluster_snapshot_path(dir, stale));
    }
    Ok(path)
}

/// Decode one cluster root snapshot file.
fn load_cluster_snapshot(path: &Path) -> Result<ClusterSnapContents, PersistError> {
    let corrupt = |detail: String| PersistError::Corrupt {
        file: path.display().to_string(),
        detail,
    };
    let bytes = fs::read(path)?;
    let (_, payload) = unframe_file(
        CLUSTER_SNAP_MAGIC,
        "cluster snapshot",
        CLUSTER_SNAP_VERSION..=CLUSTER_SNAP_VERSION,
        &bytes,
    )
    .map_err(corrupt)?;
    ClusterSnapContents::decode(payload).map_err(|e| corrupt(e.to_string()))
}

/// Load the newest loadable cluster root snapshot, falling back to older
/// ones (with a warning per skip) when the newest is corrupt at rest.
/// `None` when the directory holds no loadable cluster snapshot — the
/// caller then recovers the legacy way, replaying the whole root log.
pub(crate) fn load_latest_cluster_snapshot(
    dir: &Path,
    warnings: &mut Vec<String>,
) -> Option<ClusterSnapContents> {
    let seqs = cluster_snapshot_seqs(dir).ok()?;
    for seq in seqs {
        match load_cluster_snapshot(&cluster_snapshot_path(dir, seq)) {
            Ok(snap) => return Some(snap),
            Err(e) => warnings.push(format!(
                "cluster snapshot covering seq {seq} unusable, falling back: {e}"
            )),
        }
    }
    None
}

/// `fsync` a directory so a completed rename is durable (no-op where the
/// platform won't open directories).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match fs::File::open(dir) {
        Ok(f) => f.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Corrupt-at-rest helper for tests: flip one byte of `path` at `offset`.
#[cfg(test)]
pub(crate) fn flip_byte(path: &Path, offset: u64) -> std::io::Result<()> {
    let mut bytes = fs::read(path)?;
    bytes[offset as usize] ^= 0x40;
    fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conference::dataset::{generate, DatasetConfig};
    use social::generator::{generate as gen_forum, ForumConfig};

    fn tmp_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("usaas-persist-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_sessions(n: usize) -> Vec<SessionRecord> {
        let mut sessions = generate(&DatasetConfig::small(n.max(4), 7)).sessions;
        assert!(sessions.len() >= n, "generator under-produced");
        sessions.truncate(n);
        sessions
    }

    fn sample_posts() -> Vec<Post> {
        let mut cfg = ForumConfig::default();
        cfg.end = cfg.start.offset(15);
        cfg.authors = 200;
        gen_forum(&cfg).posts
    }

    #[test]
    fn sessions_and_posts_round_trip_bitwise() {
        let sessions = sample_sessions(40);
        let posts = sample_posts();
        assert!(posts.iter().any(|p| p.screenshot.is_some()));
        let mut w = Writer::new();
        for s in &sessions {
            put_session(&mut w, s);
        }
        for p in &posts {
            put_post(&mut w, p);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for s in &sessions {
            let back = get_session(&mut r).unwrap();
            assert_eq!(&back, s);
            assert_eq!(back.presence_pct.to_bits(), s.presence_pct.to_bits());
        }
        for p in &posts {
            let back = get_post(&mut r).unwrap();
            assert_eq!(&back, p);
        }
        assert!(r.is_exhausted());
    }

    fn network_hint_tag(h: NetworkHint) -> u8 {
        match h {
            NetworkHint::Terrestrial => 0,
            NetworkHint::SatelliteLeo => 1,
            NetworkHint::Unknown => 2,
        }
    }

    fn put_scores(w: &mut Writer, s: &SentimentScores) {
        w.put_f64(s.positive);
        w.put_f64(s.negative);
        w.put_f64(s.neutral);
    }

    /// Encoder of one v1/v2 signal record: the test oracle of
    /// [`get_signal`] (the service writes no signals).
    fn put_signal(w: &mut Writer, s: &Signal) {
        put_date(w, s.date);
        w.put_u8(network_hint_tag(s.network));
        match &s.payload {
            Payload::Implicit(i) => {
                w.put_u8(0);
                put_session(w, &i.session);
            }
            Payload::Explicit(e) => {
                w.put_u8(1);
                w.put_u8(e.rating);
                w.put_u64(e.call_id);
                w.put_u64(e.user_id);
            }
            Payload::Social(s) => {
                w.put_u8(2);
                w.put_str(&s.text);
                w.put_u32(s.upvotes);
                w.put_u32(s.comments);
                w.put_str(s.country);
                put_scores(w, &s.sentiment);
                match &s.screenshot_text {
                    None => w.put_u8(0),
                    Some(t) => {
                        w.put_u8(1);
                        w.put_str(t);
                    }
                }
            }
        }
    }

    #[test]
    fn signals_round_trip_including_nan_payloads() {
        let analyzer = sentiment::analyzer::SentimentAnalyzer::default();
        let mut signals: Vec<Signal> = Vec::new();
        for s in sample_sessions(10) {
            signals.extend(Signal::from_session(&s));
        }
        for p in sample_posts().iter().take(10) {
            signals.push(Signal::from_post(p, &analyzer));
        }
        // A hand-made signal with a NaN-payload float must survive bitwise.
        let mut weird = signals[0].clone();
        if let Payload::Implicit(i) = &mut weird.payload {
            i.session.latent_quality = f64::from_bits(0x7FF8_0000_0000_BEEF);
        }
        signals.push(weird);
        let mut w = Writer::new();
        for s in &signals {
            put_signal(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for s in &signals {
            let back = get_signal(&mut r).unwrap();
            assert_eq!(format!("{back:?}"), format!("{s:?}"));
        }
        let Payload::Implicit(i) = &signals[signals.len() - 1].payload else {
            panic!("expected implicit");
        };
        assert_eq!(i.session.latent_quality.to_bits(), 0x7FF8_0000_0000_BEEF);
    }

    #[test]
    fn a_pass_with_nothing_to_drop_never_opens_the_journal() {
        let dir = tmp_dir("wal-nothing-to-drop");
        let mut wal = Wal::create(&dir).unwrap();
        for (i, chunk) in sample_sessions(10).chunks(2).enumerate() {
            let (_, written) = wal.append(
                i as u64 + 1,
                chunk.to_vec(),
                Vec::new(),
                &IngestReport::default(),
            );
            written.unwrap();
        }
        assert_eq!(wal.compact(2).unwrap().dropped_records, 2);
        // Seq 3 is now the oldest live record: safe seqs 0 and 2 drop
        // nothing. The scanning passes read the file; the log's own pass
        // reports the same from its counters.
        let scanned: Vec<CompactionReport> = [0, 2]
            .map(|safe| compact_journal_file(&dir, safe).unwrap())
            .to_vec();
        for report in &scanned {
            assert_eq!(report.dropped_records, 0);
            assert_eq!(report.kept_records, 3);
            assert_eq!(report.oldest_live_seq, 3);
            assert_eq!(wal.compact(report.safe_seq).unwrap(), *report);
        }
        fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();
        for report in &scanned {
            let unread = wal.compact(report.safe_seq).unwrap();
            assert_eq!(unread.safe_seq, report.safe_seq);
            assert_eq!(unread.kept_records, report.kept_records);
            assert_eq!(unread.dropped_records, 0);
            assert_eq!(unread.oldest_live_seq, report.oldest_live_seq);
            assert_eq!(unread.bytes_before, unread.bytes_after);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_append_scan_and_offsets_agree() {
        let dir = tmp_dir("journal-roundtrip");
        let path = dir.join(JOURNAL_FILE);
        let sessions = sample_sessions(12);
        let mut journal = Journal::open_append(&path).unwrap();
        for (i, chunk) in sessions.chunks(4).enumerate() {
            journal
                .append(&JournalRecord {
                    seq: i as u64 + 1,
                    epoch_after: i as u64 + 1,
                    sessions: chunk.to_vec(),
                    ..JournalRecord::default()
                })
                .unwrap();
        }
        let mut warnings = Vec::new();
        let records = read_and_repair_journal(&path, &mut warnings).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].seq, 3);
        assert_eq!(records[0].sessions, sessions[..4].to_vec());
        let offsets = journal_record_offsets(&path).unwrap();
        assert_eq!(offsets.len(), 4);
        assert_eq!(offsets[0], 0);
        assert_eq!(
            *offsets.last().unwrap(),
            fs::metadata(&path).unwrap().len(),
            "last boundary is the file end"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_covered_records_byte_verbatim() {
        let dir = tmp_dir("journal-compact");
        let path = dir.join(JOURNAL_FILE);
        let sessions = sample_sessions(10);
        let mut journal = Journal::open_append(&path).unwrap();
        for (i, chunk) in sessions.chunks(2).enumerate() {
            journal
                .append(&JournalRecord {
                    seq: i as u64 + 1,
                    epoch_after: i as u64 + 1,
                    sessions: chunk.to_vec(),
                    ..JournalRecord::default()
                })
                .unwrap();
        }
        let before = fs::read(&path).unwrap();
        let offsets = journal_record_offsets(&path).unwrap();
        assert_eq!(offsets.len(), 6);

        let report = compact_journal_file(&dir, 2).unwrap();
        assert_eq!(report.safe_seq, 2);
        assert_eq!(report.dropped_records, 2);
        assert_eq!(report.kept_records, 3);
        assert_eq!(report.oldest_live_seq, 3);
        assert_eq!(report.bytes_before, before.len() as u64);

        // Survivors are the original frames byte-for-byte.
        let after = fs::read(&path).unwrap();
        assert_eq!(after, before[offsets[2] as usize..].to_vec());
        assert_eq!(report.bytes_after, after.len() as u64);
        assert!(!dir.join(JOURNAL_TMP).exists(), "tmp is consumed by rename");

        // The compacted journal reads back clean: records 3..=5, no repair.
        let mut warnings = Vec::new();
        let records = read_and_repair_journal(&path, &mut warnings).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );

        // Same bound again: nothing further to drop, file untouched.
        let again = compact_journal_file(&dir, 2).unwrap();
        assert_eq!(again.dropped_records, 0);
        assert_eq!(again.bytes_after, after.len() as u64);
        assert_eq!(fs::read(&path).unwrap(), after);

        // A reopened append handle extends the compacted file.
        let mut reopened = Journal::open_append(&path).unwrap();
        reopened
            .append(&JournalRecord {
                seq: 6,
                epoch_after: 6,
                ..JournalRecord::default()
            })
            .unwrap();
        let mut warnings = Vec::new();
        let records = read_and_repair_journal(&path, &mut warnings).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(records.last().unwrap().seq, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_edge_cases_are_noops_or_clean() {
        let dir = tmp_dir("journal-compact-edge");
        // No journal at all: a zeroed report, no file created.
        let report = compact_journal_file(&dir, 7).unwrap();
        assert_eq!(report.dropped_records, 0);
        assert!(!dir.join(JOURNAL_FILE).exists());

        // A torn tail behind a droppable prefix is cut by the rewrite.
        let path = dir.join(JOURNAL_FILE);
        let sessions = sample_sessions(6);
        let mut journal = Journal::open_append(&path).unwrap();
        for (i, chunk) in sessions.chunks(2).enumerate() {
            journal
                .append(&JournalRecord {
                    seq: i as u64 + 1,
                    epoch_after: i as u64 + 1,
                    sessions: chunk.to_vec(),
                    ..JournalRecord::default()
                })
                .unwrap();
        }
        let offsets = journal_record_offsets(&path).unwrap();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len((offsets[2] + offsets[3]) / 2)
            .unwrap();
        let report = compact_journal_file(&dir, 1).unwrap();
        assert_eq!(report.dropped_records, 1);
        assert_eq!(report.kept_records, 1, "torn record 3 does not survive");
        let mut warnings = Vec::new();
        let records = read_and_repair_journal(&path, &mut warnings).unwrap();
        assert!(warnings.is_empty(), "rewrite leaves no torn tail");
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_truncated_with_a_warning() {
        let dir = tmp_dir("journal-torn");
        let path = dir.join(JOURNAL_FILE);
        let sessions = sample_sessions(8);
        let mut journal = Journal::open_append(&path).unwrap();
        for (i, chunk) in sessions.chunks(4).enumerate() {
            journal
                .append(&JournalRecord {
                    seq: i as u64 + 1,
                    epoch_after: i as u64 + 1,
                    sessions: chunk.to_vec(),
                    ..JournalRecord::default()
                })
                .unwrap();
        }
        let offsets = journal_record_offsets(&path).unwrap();
        // Cut mid-way through the second record: a torn write.
        let cut = (offsets[1] + offsets[2]) / 2;
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let mut warnings = Vec::new();
        let records = read_and_repair_journal(&path, &mut warnings).unwrap();
        assert_eq!(records.len(), 1, "only the intact record survives");
        assert_eq!(warnings.len(), 1, "the repair is reported");
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            offsets[1],
            "the file is truncated back to the last valid boundary"
        );
        // A second read is clean: the repair is durable.
        let mut again = Vec::new();
        assert_eq!(read_and_repair_journal(&path, &mut again).unwrap().len(), 1);
        assert!(again.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_journal_byte_truncates_from_the_bad_record() {
        let dir = tmp_dir("journal-flip");
        let path = dir.join(JOURNAL_FILE);
        let sessions = sample_sessions(8);
        let mut journal = Journal::open_append(&path).unwrap();
        for (i, chunk) in sessions.chunks(2).enumerate() {
            journal
                .append(&JournalRecord {
                    seq: i as u64 + 1,
                    epoch_after: i as u64 + 1,
                    sessions: chunk.to_vec(),
                    ..JournalRecord::default()
                })
                .unwrap();
        }
        let offsets = journal_record_offsets(&path).unwrap();
        assert_eq!(offsets.len(), 5);
        // Flip one payload byte inside record 3.
        flip_byte(&path, offsets[2] + RECORD_HEADER + 9).unwrap();
        let mut warnings = Vec::new();
        let records = read_and_repair_journal(&path, &mut warnings).unwrap();
        assert_eq!(records.len(), 2, "records before the flip survive");
        assert!(warnings[0].contains("checksum"), "{warnings:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unframe_file_keeps_every_error_text() {
        let payload = b"checksummed payload".to_vec();
        let header = frame_file(DIFF_MAGIC, 1, &payload);
        let file = [&header[..], &payload].concat();
        let unframe = |bytes: &[u8]| {
            unframe_file(DIFF_MAGIC, "diff", 1..=DIFF_VERSION, bytes).map(|(v, p)| (v, p.to_vec()))
        };
        assert_eq!(unframe(&file), Ok((1, payload.clone())));
        assert_eq!(
            unframe(&file[..FILE_HEADER - 1]),
            Err("bad magic or truncated header".to_string())
        );
        assert_eq!(
            unframe_file(SNAPSHOT_MAGIC, "snapshot", 1..=SNAPSHOT_VERSION, &file),
            Err("bad magic or truncated header".to_string())
        );
        let mut future = file.clone();
        future[8] = 9;
        assert_eq!(
            unframe(&future),
            Err("unsupported diff version 9".to_string())
        );
        assert_eq!(
            unframe_file(
                DIFF_MAGIC,
                "cluster snapshot",
                CLUSTER_SNAP_VERSION..=CLUSTER_SNAP_VERSION,
                &future
            ),
            Err("unsupported cluster snapshot version 9".to_string())
        );
        assert_eq!(
            unframe(&file[..file.len() - 1]),
            Err(format!(
                "payload length {} disagrees with header {}",
                payload.len() - 1,
                payload.len()
            ))
        );
        let mut flipped = file.clone();
        flipped[FILE_HEADER + 3] ^= 1;
        assert_eq!(unframe(&flipped), Err("checksum mismatch".to_string()));
    }

    #[test]
    fn a_flipped_payload_byte_fails_every_snapshot_family_checksum() {
        let dir = tmp_dir("payload-flip");
        let sessions = SessionChunks::from_vec(sample_sessions(12));
        let posts = Chunks::from_vec(sample_posts());
        let health = PersistedHealth::default();
        let full = write_snapshot(
            &dir,
            &SnapshotContents {
                epoch: 1,
                journal_seq: 1,
                sessions: &sessions,
                posts: &posts,
                corpus: None,
                health: &health,
                view_keys: &[],
            },
        )
        .unwrap();
        let diff = write_diff_snapshot(
            &dir,
            &DiffContents {
                epoch: 2,
                journal_seq: 2,
                base_seq: 1,
                base_rows: 4,
                base_posts: 3,
                sessions: &sessions,
                posts: &posts,
                health: &health,
                view_keys: &[],
            },
        )
        .unwrap();
        let cluster = write_cluster_snapshot(
            &dir,
            &ClusterSnapContents {
                covered_seq: 3,
                epoch: 3,
                partitions: 2,
                batch_counts: vec![1, 2],
                session_maps: vec![vec![0, 2], vec![1]],
                post_maps: vec![vec![0], vec![]],
                total_sessions: 3,
                total_posts: 1,
                quarantined: 0,
                unfed: 0,
                breaker_trips: 0,
                open_breakers: Vec::new(),
                dead_letters: Vec::new(),
                dead_letters_dropped: 0,
            },
        )
        .unwrap();
        assert!(load_snapshot(&full).is_ok());
        assert!(load_diff(&diff).is_ok());
        assert!(load_cluster_snapshot(&cluster).is_ok());

        fn detail<T>(loaded: Result<T, PersistError>) -> String {
            match loaded {
                Err(PersistError::Corrupt { detail, .. }) => detail,
                Err(other) => panic!("expected a corrupt file, got {other}"),
                Ok(_) => panic!("a flipped payload byte loaded"),
            }
        }
        for path in [&full, &diff, &cluster] {
            let len = fs::metadata(path).unwrap().len();
            flip_byte(path, FILE_HEADER as u64 + (len - FILE_HEADER as u64) / 2).unwrap();
        }
        assert_eq!(detail(load_snapshot(&full)), "checksum mismatch");
        assert_eq!(detail(load_diff(&diff)), "checksum mismatch");
        assert_eq!(detail(load_cluster_snapshot(&cluster)), "checksum mismatch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_round_trips_and_survives_fallback() {
        let dir = tmp_dir("snapshot-roundtrip");
        let sessions = sample_sessions(30);
        let posts = sample_posts();
        let health = PersistedHealth {
            quarantined: 2,
            unfed: 1,
            breaker_trips: 3,
            open_breakers: vec!["flaky-feed".to_string()],
            dead_letters: vec![QuarantineEntry {
                source_id: 0,
                source: "flaky-feed".to_string(),
                seq: 17,
                reason: QuarantineReason::PoisonPill,
                detail: "poison pill: boom".to_string(),
                item: "session 17".to_string(),
            }],
        };
        let view_keys = [
            ViewKey::Curve {
                sweep: NetworkMetric::LatencyMs,
                engagement: EngagementMetric::Presence,
                bins: 6,
            },
            ViewKey::Mos,
            ViewKey::Predict {
                features: FeatureSet::Full,
            },
            ViewKey::Outage,
        ];
        let session_chunks = SessionChunks::from_vec(sessions.clone());
        let post_chunks = Chunks::from_vec(posts.clone());
        let contents = SnapshotContents {
            epoch: 4,
            journal_seq: 9,
            sessions: &session_chunks,
            posts: &post_chunks,
            corpus: None,
            health: &health,
            view_keys: &view_keys,
        };
        let path = write_snapshot(&dir, &contents).unwrap();
        assert!(path.ends_with("snapshot-9.snap"));
        let mut warnings = Vec::new();
        let state = load_latest_state(&dir, 4, &mut warnings).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(state.epoch, 4);
        assert_eq!(state.journal_seq, 9);
        assert_eq!(state.sessions, sessions);
        assert_eq!(state.posts, posts);
        assert_eq!(state.health.dead_letters, health.dead_letters);
        assert_eq!(state.health.open_breakers, health.open_breakers);
        assert_eq!(state.view_keys, view_keys);

        // Write a second snapshot, corrupt it, and watch recovery fall
        // back to the first with a warning instead of dying.
        let newer = SnapshotContents {
            epoch: 5,
            journal_seq: 11,
            ..contents
        };
        let newer_path = write_snapshot(&dir, &newer).unwrap();
        flip_byte(&newer_path, 200).unwrap();
        let mut warnings = Vec::new();
        let state = load_latest_state(&dir, 4, &mut warnings).unwrap();
        assert_eq!(state.journal_seq, 9, "fell back to the older snapshot");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("seq 11"), "{warnings:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// `posts` split into a chain at the given cut points, as appends
    /// would build it.
    fn chained(posts: &[Post], cuts: &[usize]) -> Chunks<Post> {
        let mut chain = Chunks::from_vec(posts[..cuts[0]].to_vec());
        for pair in cuts.windows(2) {
            chain = chain.extended(posts[pair[0]..pair[1]].to_vec());
        }
        chain.extended(posts[*cuts.last().unwrap()..].to_vec())
    }

    #[test]
    fn a_chunked_forum_encodes_like_the_flat_forum() {
        let sessions = sample_sessions(12);
        let posts = sample_posts();
        let n = posts.len();
        assert!(n > 20, "the sample forum spans several chunks");
        let health = PersistedHealth::default();
        let session_chunks = SessionChunks::from_vec(sessions);
        let flat = Chunks::from_vec(posts.clone());
        let chain = chained(&posts, &[3, n / 3, n / 3 + 1, n / 2, n - 2]);
        assert!(chain.chunks().len() > 4);

        let full = |posts: &Chunks<Post>| {
            encode_snapshot(&SnapshotContents {
                epoch: 3,
                journal_seq: 7,
                sessions: &session_chunks,
                posts,
                corpus: None,
                health: &health,
                view_keys: &[ViewKey::Outage],
            })
        };
        let bytes = full(&chain);
        assert_eq!(bytes, full(&flat));
        assert_eq!(
            decode_snapshot(&bytes, SNAPSHOT_VERSION).unwrap().posts,
            posts
        );

        // Diff bases at a chunk boundary and inside a chunk.
        for base_posts in [n / 3, n / 2 - 1] {
            let diff = |posts: &Chunks<Post>| {
                encode_diff(&DiffContents {
                    epoch: 4,
                    journal_seq: 9,
                    base_seq: 7,
                    base_rows: 12,
                    base_posts,
                    sessions: &session_chunks,
                    posts,
                    health: &health,
                    view_keys: &[],
                })
            };
            let bytes = diff(&chain);
            assert_eq!(bytes, diff(&flat), "base {base_posts}");
            let state = decode_diff(&bytes).unwrap();
            assert_eq!(state.base_posts, base_posts);
            assert_eq!(state.posts_tail, posts[base_posts..]);
        }
    }

    #[test]
    fn snapshot_retention_keeps_the_last_two() {
        let dir = tmp_dir("snapshot-retention");
        let sessions = sample_sessions(5);
        let health = PersistedHealth::default();
        let session_chunks = SessionChunks::from_vec(sessions);
        for seq in [1u64, 2, 3, 4] {
            write_snapshot(
                &dir,
                &SnapshotContents {
                    epoch: seq,
                    journal_seq: seq,
                    sessions: &session_chunks,
                    posts: &Chunks::default(),
                    corpus: None,
                    health: &health,
                    view_keys: &[],
                },
            )
            .unwrap();
        }
        assert_eq!(snapshot_seqs(&dir).unwrap(), vec![4, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A v2 full snapshot (with the signal section v3 dropped), written by
    /// the v2 encoder as the `checkpoint_full` of [`fixture_service`].
    const V2_FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/snapshot-v2.snap");
    /// The same snapshot written by the v3 encoder (with the frame section
    /// v4 dropped).
    const V3_FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/snapshot-v3.snap");

    /// The queries whose views [`fixture_service`] installs.
    fn fixture_queries() -> Vec<crate::service::Query> {
        use crate::service::Query;
        vec![
            Query::EngagementCurve {
                sweep: NetworkMetric::LatencyMs,
                engagement: EngagementMetric::Presence,
                bins: 4,
            },
            Query::MosCorrelation,
            Query::OutageTimeline,
        ]
    }

    /// The tiny persisted service behind [`V2_FIXTURE`] and [`V3_FIXTURE`]:
    /// 16 sessions (one
    /// rated) and a two-day forum, three views installed, then one append
    /// of a poison pill, 8 sessions and 3 posts, then a full checkpoint
    /// (`snapshot-1.snap`).
    fn fixture_service(dir: &Path) -> crate::service::UsaasService {
        use crate::ingest::IngestConfig;
        use crate::source::{ItemSource, RawItem, Source};
        let _ = fs::remove_dir_all(dir);
        let dataset = generate(&DatasetConfig::small(4, 12));
        let mut cfg = ForumConfig::default();
        cfg.end = cfg.start.offset(1);
        cfg.authors = 12;
        let forum = gen_forum(&cfg);
        cfg.seed = 3;
        let extra_posts = gen_forum(&cfg).posts;
        let extra_sessions = generate(&DatasetConfig::small(2, 8)).sessions;
        let svc = crate::service::UsaasService::build_persistent(dataset, forum, 1, dir).unwrap();
        for q in fixture_queries() {
            let _ = svc.query(&q);
        }
        let mut items = vec![RawItem::Poison("fixture pill")];
        items.extend(
            extra_sessions
                .into_iter()
                .map(|s| RawItem::Session(Box::new(s))),
        );
        items.extend(
            extra_posts
                .into_iter()
                .take(3)
                .map(|p| RawItem::Post(Box::new(p))),
        );
        let sources: Vec<Box<dyn Source>> = vec![Box::new(ItemSource::new("fixture-feed", items))];
        svc.ingest_append(sources, &IngestConfig::with_workers(1));
        svc.checkpoint_full().unwrap();
        svc
    }

    fn corpus_bytes(corpus: Option<&TokenCorpus>) -> Option<Vec<u8>> {
        corpus.map(|c| {
            let mut w = Writer::new();
            c.encode_bin(&mut w);
            w.into_bytes()
        })
    }

    /// Decode the committed `fixture`, a full snapshot of `version`, and
    /// check it against [`fixture_service`] rebuilt now and its fresh
    /// snapshot; then recover a service from the fixture alone and check
    /// it answers like the writer.
    fn check_fixture_loads_like_its_writer(fixture: &[u8], version: u32) {
        assert!(fixture.len() <= 64 << 10);
        assert_eq!(&fixture[..8], SNAPSHOT_MAGIC);
        assert_eq!(
            u32::from_le_bytes(fixture[8..12].try_into().unwrap()),
            version
        );
        let legacy = decode_snapshot(&fixture[24..], version).unwrap();

        let dir = tmp_dir(&format!("v{version}-fixture-writer"));
        let svc = fixture_service(&dir);
        let fresh = load_snapshot(&snapshot_path(&dir, 1)).unwrap();
        assert_eq!(legacy.epoch, fresh.epoch);
        assert_eq!(legacy.journal_seq, fresh.journal_seq);
        assert_eq!(legacy.sessions, fresh.sessions);
        assert_eq!(legacy.posts, fresh.posts);
        assert!(legacy.corpus.is_some(), "the outage view built the corpus");
        assert_eq!(
            corpus_bytes(legacy.corpus.as_ref()),
            corpus_bytes(fresh.corpus.as_ref())
        );
        assert_eq!(legacy.health.quarantined, 1);
        assert_eq!(legacy.health.quarantined, fresh.health.quarantined);
        assert_eq!(legacy.health.unfed, fresh.health.unfed);
        assert_eq!(legacy.health.breaker_trips, fresh.health.breaker_trips);
        assert_eq!(legacy.health.open_breakers, fresh.health.open_breakers);
        assert_eq!(legacy.health.dead_letters, fresh.health.dead_letters);
        assert_eq!(legacy.view_keys, svc.snapshot().views().keys());
        assert_eq!(legacy.view_keys, fresh.view_keys);
        // v4 is the legacy payload without its frame section (and, for v2,
        // its signal section).
        let v4_len = fs::metadata(snapshot_path(&dir, 1)).unwrap().len();
        assert!(v4_len < fixture.len() as u64, "{v4_len}");

        // Recovering from the fixture alone gives the writer's counts:
        // (24, 1, 71) is what the v2 writer's signal store held. The curve
        // and MOS answers read the frame the recovered generation rebuilt.
        let only = tmp_dir(&format!("v{version}-fixture-open"));
        fs::write(snapshot_path(&only, 1), fixture).unwrap();
        let recovered = crate::service::UsaasService::open_or_recover(&only, 2).unwrap();
        assert!(recovered.health().recovery_warnings.is_empty());
        assert_eq!(recovered.signal_counts(), (24, 1, 71));
        assert_eq!(recovered.signal_counts(), svc.signal_counts());
        assert_eq!(recovered.dead_letters(), svc.dead_letters());
        assert_eq!(recovered.snapshot().views().keys(), legacy.view_keys);
        for q in fixture_queries() {
            assert_eq!(
                format!("{:?}", recovered.query(&q)),
                format!("{:?}", svc.query(&q)),
                "{q:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&only);
    }

    #[test]
    fn v2_fixture_loads_like_the_service_that_wrote_it() {
        check_fixture_loads_like_its_writer(V2_FIXTURE, 2);
    }

    #[test]
    fn v3_fixture_loads_like_the_service_that_wrote_it() {
        check_fixture_loads_like_its_writer(V3_FIXTURE, 3);
    }

    #[test]
    fn a_v1_payload_loads_with_no_view_keys() {
        // A v1 payload is the v2 payload without its trailing key list.
        let v2 = decode_snapshot(&V2_FIXTURE[24..], 2).unwrap();
        let mut keys = Writer::new();
        keys.put_u64(v2.view_keys.len() as u64);
        for &key in &v2.view_keys {
            put_view_key(&mut keys, key);
        }
        let v1 = decode_snapshot(&V2_FIXTURE[24..V2_FIXTURE.len() - keys.len()], 1).unwrap();
        assert!(v1.view_keys.is_empty());
        assert_eq!(v1.sessions, v2.sessions);
        assert_eq!(v1.posts, v2.posts);
    }

    #[test]
    fn cross_network_view_keys_round_trip_as_tag_11() {
        for access in AccessType::ALL {
            let key = ViewKey::CrossNetwork { access };
            let mut w = Writer::new();
            put_view_key(&mut w, key);
            let bytes = w.into_bytes();
            assert_eq!(bytes, vec![11, access_tag(access)]);
            let mut r = Reader::new(&bytes);
            assert_eq!(get_view_key(&mut r).unwrap(), key);
            assert!(r.is_exhausted());
        }
        let mut r = Reader::new(&[11, 7]);
        assert!(matches!(get_view_key(&mut r), Err(bin::Error::Corrupt(_))));
    }

    #[test]
    fn a_recovered_service_rebuilds_its_cross_network_views() {
        use crate::service::{Query, UsaasService};
        let dir = tmp_dir("cross-network-recover");
        let queries: Vec<Query> = [AccessType::SatelliteLeo, AccessType::Fiber]
            .map(|access| Query::CrossNetwork { access })
            .to_vec();
        let mut cfg = ForumConfig::default();
        cfg.end = cfg.start.offset(20);
        cfg.authors = 60;
        let answers: Vec<String> = {
            let svc = UsaasService::build_persistent(
                generate(&DatasetConfig::small(60, 21)),
                gen_forum(&cfg),
                2,
                &dir,
            )
            .unwrap();
            for q in &queries {
                let _ = svc.query(q);
            }
            svc.append_batch(generate(&DatasetConfig::small(12, 22)).sessions, Vec::new());
            svc.checkpoint_full().unwrap();
            svc.append_batch(generate(&DatasetConfig::small(12, 23)).sessions, Vec::new());
            queries
                .iter()
                .map(|q| format!("{:?}", svc.query(q)))
                .collect()
        };
        let state = load_snapshot(&snapshot_path(&dir, 1)).unwrap();
        for access in [AccessType::SatelliteLeo, AccessType::Fiber] {
            assert!(state.view_keys.contains(&ViewKey::CrossNetwork { access }));
        }
        let recovered = UsaasService::open_or_recover(&dir, 2).unwrap();
        assert!(recovered.health().recovery_warnings.is_empty());
        let generation = recovered.snapshot();
        assert_eq!(generation.views().keys(), state.view_keys);
        for (q, before) in queries.iter().zip(&answers) {
            let served = format!("{:?}", recovered.query(q));
            assert_eq!(&served, before, "{q:?}");
            assert_eq!(served, format!("{:?}", generation.answer_fresh(q)), "{q:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_fixture_key_lists_encode_unchanged() {
        // Tag 11 is new; the tags the v2 and v3 writers used keep their
        // bytes, so each fixture's trailing key list re-encodes verbatim.
        for (fixture, version) in [(V2_FIXTURE, 2), (V3_FIXTURE, 3)] {
            let legacy = decode_snapshot(&fixture[24..], version).unwrap();
            assert!(!legacy.view_keys.is_empty());
            let mut keys = Writer::new();
            keys.put_u64(legacy.view_keys.len() as u64);
            for &key in &legacy.view_keys {
                put_view_key(&mut keys, key);
            }
            assert!(fixture.ends_with(&keys.into_bytes()), "v{version}");
        }
    }

    /// Offset of the frame section's row count in a v1–v3 payload: just
    /// past the health, the sessions and the posts.
    fn legacy_frame_offset(payload: &[u8]) -> usize {
        let mut r = Reader::new(payload);
        r.get_u64().unwrap();
        r.get_u64().unwrap();
        PersistedHealth::decode(&mut r).unwrap();
        for _ in 0..r.get_len().unwrap() {
            get_session(&mut r).unwrap();
        }
        for _ in 0..r.get_len().unwrap() {
            get_post(&mut r).unwrap();
        }
        payload.len() - r.remaining()
    }

    #[test]
    fn a_bad_legacy_frame_length_errs_without_allocating() {
        for (fixture, version) in [(V2_FIXTURE, 2), (V3_FIXTURE, 3)] {
            let payload = &fixture[24..];
            let at = legacy_frame_offset(payload);
            assert_eq!(payload[at..at + 8], 24u64.to_le_bytes(), "v{version}");
            for (rows, error) in [
                (u64::MAX, "frame length overflows"),
                (1 << 40, "frame length exceeds remaining input"),
                (23, "frame length disagrees with sessions"),
            ] {
                let mut patched = payload.to_vec();
                patched[at..at + 8].copy_from_slice(&rows.to_le_bytes());
                assert_eq!(
                    decode_snapshot(&patched, version).err(),
                    Some(bin::Error::Corrupt(error)),
                    "v{version} rows {rows}"
                );
            }
        }
    }

    /// The v2 and v3 fixtures' payloads and a fresh v4 payload of the same
    /// service, each with the version it decodes as.
    fn damaged_payload_bases() -> &'static [(Vec<u8>, u32)] {
        static BASES: std::sync::OnceLock<Vec<(Vec<u8>, u32)>> = std::sync::OnceLock::new();
        BASES.get_or_init(|| {
            let dir = tmp_dir("damaged-payload-bases");
            fixture_service(&dir);
            let v4 = fs::read(snapshot_path(&dir, 1)).unwrap();
            let _ = fs::remove_dir_all(&dir);
            vec![
                (V2_FIXTURE[24..].to_vec(), 2),
                (V3_FIXTURE[24..].to_vec(), 3),
                (v4[24..].to_vec(), 4),
            ]
        })
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn damaged_snapshot_payloads_decode_or_err_without_panicking(
            cut in 0usize..usize::MAX,
            at in 0usize..usize::MAX,
            bit in 0u32..8,
        ) {
            for (payload, version) in damaged_payload_bases() {
                let cut = cut % payload.len();
                prop_assert!(decode_snapshot(&payload[..cut], *version).is_err());
                let mut flipped = payload.clone();
                flipped[at % payload.len()] ^= 1 << bit;
                // A flip inside a float or a text byte can still decode.
                let _ = decode_snapshot(&flipped, *version);
            }
        }
    }
}

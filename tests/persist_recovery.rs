//! Kill-point recovery matrix: crash the persisted service at every
//! journal boundary (plus torn-tail and corrupt-snapshot variants) and
//! assert the recovered service is **bit-identical** — same epoch, same
//! signal counts, same dead-letters, and byte-for-byte the same answer to
//! every query — to a service that lived through the same appends without
//! crashing. Run for recovery worker counts 1 and 4.

use analytics::time::Date;
use conference::dataset::{generate, DatasetConfig};
use conference::records::{CallDataset, EngagementMetric, NetworkMetric, SessionRecord};
use netsim::access::AccessType;
use social::generator::{generate as gen_forum, ForumConfig};
use social::post::{Forum, Post};
use std::fs;
use std::path::{Path, PathBuf};
use usaas::{
    ingest_all, ingest_stream, journal_record_offsets, IngestConfig, ItemSource, Query, RawItem,
    SignalKind, SignalStore, Source, UsaasService, JOURNAL_FILE,
};

/// Fresh scratch directory under the system temp dir, emptied first.
fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usaas-recovery-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy every regular file of `src` into `dst` (the persist layout is
/// flat, so one level is enough).
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

fn flip_byte(path: &Path, offset: usize) {
    let mut bytes = fs::read(path).unwrap();
    bytes[offset] ^= 0x40;
    fs::write(path, bytes).unwrap();
}

/// The journal sequence a persisted file covers: `snapshot-<seq>.snap`
/// or `diff-<base>-<seq>.snap`.
fn persisted_seq(name: &str) -> Option<u64> {
    let mid = name.strip_suffix(".snap")?;
    if let Some(seq) = mid.strip_prefix("snapshot-") {
        return seq.parse().ok();
    }
    let (_base, seq) = mid.strip_prefix("diff-")?.split_once('-')?;
    seq.parse().ok()
}

/// Remove snapshots (full or differential) that would not have existed
/// at a crash after journal record `k` (every file covering a later
/// sequence).
fn drop_snapshots_after(dir: &Path, k: u64) {
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = persisted_seq(name) {
            if seq > k {
                fs::remove_file(entry.path()).unwrap();
            }
        }
    }
}

/// The deterministic workload shared by the persisted run and every
/// reference run.
struct Fixture {
    dataset: CallDataset,
    forum: Forum,
    op1_sessions: Vec<SessionRecord>,
    op2_posts: Vec<Post>,
    op3_sessions: Vec<SessionRecord>,
    op3_posts: Vec<Post>,
}

impl Fixture {
    fn new() -> Fixture {
        let dataset = generate(&DatasetConfig::small(120, 33));
        let forum = gen_forum(&ForumConfig {
            authors: 250,
            end: Date::from_ymd(2021, 6, 30).unwrap(),
            ..ForumConfig::default()
        });
        let extra_posts = gen_forum(&ForumConfig {
            seed: 9,
            authors: 80,
            end: Date::from_ymd(2021, 3, 31).unwrap(),
            ..ForumConfig::default()
        })
        .posts;
        Fixture {
            dataset,
            forum,
            op1_sessions: generate(&DatasetConfig::small(40, 77)).sessions,
            op2_posts: extra_posts[..20.min(extra_posts.len())].to_vec(),
            op3_sessions: generate(&DatasetConfig::small(25, 5)).sessions,
            op3_posts: extra_posts[20..40.min(extra_posts.len())].to_vec(),
        }
    }

    /// Apply append op `i` (1-based) to a service. Op 2 mixes accepted
    /// posts with poison pills, so it journals dead-letters alongside the
    /// commit; single ingest worker keeps the quarantine order
    /// deterministic across runs.
    fn apply(&self, svc: &UsaasService, op: usize) {
        match op {
            1 => {
                svc.append_batch(self.op1_sessions.clone(), Vec::new());
            }
            2 => {
                let mut items: Vec<RawItem> = vec![RawItem::Poison("bad upstream frame")];
                items.extend(
                    self.op2_posts
                        .iter()
                        .map(|p| RawItem::Post(Box::new(p.clone()))),
                );
                items.push(RawItem::Poison("double-freed buffer"));
                let sources: Vec<Box<dyn Source>> =
                    vec![Box::new(ItemSource::new("flaky-feed", items))];
                svc.ingest_append(sources, &IngestConfig::with_workers(1));
            }
            3 => {
                svc.append_batch(self.op3_sessions.clone(), self.op3_posts.clone());
            }
            _ => panic!("unknown op {op}"),
        }
    }

    /// An in-memory reference service that lived through the first `k`
    /// appends without ever crashing.
    fn reference(&self, k: usize, workers: usize) -> UsaasService {
        let svc = UsaasService::build(self.dataset.clone(), self.forum.clone(), workers);
        for op in 1..=k {
            self.apply(&svc, op);
        }
        svc
    }
}

fn queries() -> Vec<Query> {
    vec![
        Query::EngagementCurve {
            sweep: NetworkMetric::LatencyMs,
            engagement: EngagementMetric::Presence,
            bins: 5,
        },
        Query::MosCorrelation,
        Query::OutageTimeline,
        Query::SentimentPeaks { k: 2 },
        Query::SpeedTrend,
        Query::CrossNetwork {
            access: AccessType::SatelliteLeo,
        },
    ]
}

/// Everything the recovery invariant promises, rendered to comparable
/// strings: epoch, store counts, durable health (minus the recovery
/// warnings, which legitimately differ), dead-letters, and the
/// debug-formatted answer to every query.
fn fingerprint(svc: &UsaasService) -> Vec<String> {
    let health = svc.health();
    let mut out = vec![
        format!("epoch={}", svc.epoch()),
        format!("signals={:?}", svc.signal_counts()),
        format!(
            "health q={} u={} t={} open={:?}",
            health.quarantined_total,
            health.unfed_total,
            health.breaker_trips_total,
            health.open_breakers
        ),
        format!("dead_letters={:?}", svc.dead_letters()),
    ];
    for q in queries() {
        out.push(format!("{q:?} => {:?}", svc.query(&q)));
    }
    out
}

/// Run the full persisted workload in `dir`; returns the service. The
/// checkpoint lands between ops 2 and 3, with the social corpus already
/// built so the snapshot carries it. Forced full so this family pins the
/// full-snapshot recovery path; `run_workload_diff` covers the
/// differential one.
fn run_workload(fx: &Fixture, dir: &Path) -> UsaasService {
    let svc = UsaasService::build_persistent(fx.dataset.clone(), fx.forum.clone(), 2, dir).unwrap();
    fx.apply(&svc, 1);
    fx.apply(&svc, 2);
    let _ = svc.query(&Query::SpeedTrend);
    svc.checkpoint_full().unwrap();
    fx.apply(&svc, 3);
    svc
}

#[test]
fn kill_point_matrix_recovers_bit_identically() {
    let fx = Fixture::new();
    let dir = tmp_dir("matrix");
    let live = run_workload(&fx, &dir);
    let live_print = fingerprint(&live);
    drop(live);

    let offsets = journal_record_offsets(&dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(offsets.len(), 4, "three journaled appends plus offset 0");

    for (k, &cut_at) in offsets.iter().enumerate() {
        for workers in [1usize, 4] {
            let crash = tmp_dir(&format!("matrix-k{k}-w{workers}"));
            copy_dir(&dir, &crash);
            // Crash state: journal cut at the k-th commit boundary, and
            // any snapshot taken after that boundary never existed.
            let journal = crash.join(JOURNAL_FILE);
            fs::OpenOptions::new()
                .write(true)
                .open(&journal)
                .unwrap()
                .set_len(cut_at)
                .unwrap();
            drop_snapshots_after(&crash, k as u64);

            let recovered = UsaasService::open_or_recover(&crash, workers).unwrap();
            let health = recovered.health();
            assert!(
                health.recovery_warnings.is_empty(),
                "clean boundary cut k={k} must not warn: {:?}",
                health.recovery_warnings
            );
            let reference = fx.reference(k, workers);
            assert_eq!(
                fingerprint(&recovered),
                fingerprint(&reference),
                "recovered at k={k} workers={workers} must match the never-crashed service"
            );
            let _ = fs::remove_dir_all(&crash);
        }
    }

    // The uncut directory recovers to the full state.
    let recovered = UsaasService::open_or_recover(&dir, 2).unwrap();
    assert_eq!(fingerprint(&recovered), live_print);
    assert!(
        !recovered.dead_letters().is_empty(),
        "poison pills survive the restart"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_recovers_to_the_previous_commit() {
    let fx = Fixture::new();
    let dir = tmp_dir("torn");
    drop(run_workload(&fx, &dir));
    let offsets = journal_record_offsets(&dir.join(JOURNAL_FILE)).unwrap();

    // Tear mid-way through record 3: the crash hit during the append.
    let cut = (offsets[2] + offsets[3]) / 2;
    fs::OpenOptions::new()
        .write(true)
        .open(dir.join(JOURNAL_FILE))
        .unwrap()
        .set_len(cut)
        .unwrap();

    let recovered = UsaasService::open_or_recover(&dir, 2).unwrap();
    let health = recovered.health();
    assert!(
        health
            .recovery_warnings
            .iter()
            .any(|w| w.contains("truncated")),
        "the torn tail must be reported: {:?}",
        health.recovery_warnings
    );
    assert!(health.is_degraded());
    // Warnings aside, the state is exactly the two-commit prefix.
    assert_eq!(fingerprint(&recovered), fingerprint(&fx.reference(2, 2)));
    // And the repair is durable: reopening is clean.
    drop(recovered);
    let reopened = UsaasService::open_or_recover(&dir, 2).unwrap();
    assert!(reopened.health().recovery_warnings.is_empty());
    assert_eq!(fingerprint(&reopened), fingerprint(&fx.reference(2, 2)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_falls_back_and_replays_the_full_journal() {
    let fx = Fixture::new();
    let dir = tmp_dir("flip");
    drop(run_workload(&fx, &dir));

    // Flip a payload byte in the newest snapshot (seq 2): its checksum
    // fails, recovery falls back to the epoch-0 snapshot and replays the
    // whole journal — ending bit-identical to the never-crashed service.
    flip_byte(&dir.join("snapshot-2.snap"), 400);
    let recovered = UsaasService::open_or_recover(&dir, 2).unwrap();
    let health = recovered.health();
    assert!(
        health.recovery_warnings.iter().any(|w| w.contains("seq 2")),
        "the skipped snapshot must be reported: {:?}",
        health.recovery_warnings
    );
    assert_eq!(fingerprint(&recovered), fingerprint(&fx.reference(3, 2)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_snapshot_corrupt_is_an_error_not_a_panic() {
    let fx = Fixture::new();
    let dir = tmp_dir("all-corrupt");
    drop(run_workload(&fx, &dir));
    flip_byte(&dir.join("snapshot-0.snap"), 100);
    flip_byte(&dir.join("snapshot-2.snap"), 100);
    let err = UsaasService::open_or_recover(&dir, 2);
    assert!(err.is_err(), "no loadable snapshot must be a typed error");
    let _ = fs::remove_dir_all(&dir);
}

/// The differential workload: a forced **full** checkpoint after op 1
/// seeds the diff base, the checkpoint after op 2 then lands as a
/// `diff-1-2.snap` carrying only the dirtied suffixes, and op 3 stays
/// journal-only. The corpus is built before the base so the diff's
/// corpus extension path is exercised too.
fn run_workload_diff(fx: &Fixture, dir: &Path) -> UsaasService {
    let svc = UsaasService::build_persistent(fx.dataset.clone(), fx.forum.clone(), 2, dir).unwrap();
    fx.apply(&svc, 1);
    let _ = svc.query(&Query::SpeedTrend);
    let full = svc.checkpoint_full().unwrap();
    assert!(
        full.file_name().unwrap().to_str().unwrap() == "snapshot-1.snap",
        "forced checkpoint must be a full snapshot: {full:?}"
    );
    fx.apply(&svc, 2);
    let diff = svc.checkpoint().unwrap();
    assert!(
        diff.file_name().unwrap().to_str().unwrap() == "diff-1-2.snap",
        "small dirty suffix must produce a differential snapshot: {diff:?}"
    );
    fx.apply(&svc, 3);
    svc
}

#[test]
fn differential_kill_point_matrix_recovers_bit_identically() {
    let fx = Fixture::new();
    let dir = tmp_dir("diff-matrix");
    let live = run_workload_diff(&fx, &dir);
    let live_print = fingerprint(&live);
    drop(live);

    let offsets = journal_record_offsets(&dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(offsets.len(), 4, "three journaled appends plus offset 0");

    for (k, &cut_at) in offsets.iter().enumerate() {
        for workers in [1usize, 4, 8] {
            let crash = tmp_dir(&format!("diff-matrix-k{k}-w{workers}"));
            copy_dir(&dir, &crash);
            let journal = crash.join(JOURNAL_FILE);
            fs::OpenOptions::new()
                .write(true)
                .open(&journal)
                .unwrap()
                .set_len(cut_at)
                .unwrap();
            drop_snapshots_after(&crash, k as u64);

            let recovered = UsaasService::open_or_recover(&crash, workers).unwrap();
            let health = recovered.health();
            assert!(
                health.recovery_warnings.is_empty(),
                "clean boundary cut k={k} must not warn: {:?}",
                health.recovery_warnings
            );
            let reference = fx.reference(k, workers);
            assert_eq!(
                fingerprint(&recovered),
                fingerprint(&reference),
                "diff-recovered at k={k} workers={workers} must match the never-crashed service"
            );
            let _ = fs::remove_dir_all(&crash);
        }
    }

    // The uncut directory recovers through the diff to the full state.
    let recovered = UsaasService::open_or_recover(&dir, 2).unwrap();
    assert_eq!(fingerprint(&recovered), live_print);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn differential_recovery_matches_full_recovery_exactly() {
    let fx = Fixture::new();
    let dir = tmp_dir("diff-vs-full");
    drop(run_workload_diff(&fx, &dir));

    // Recover once through the diff fast path, once with the diff file
    // removed (base + full journal replay). Both must land on the same
    // fingerprint — the diff is pure acceleration, never a state change.
    let via_diff = tmp_dir("diff-vs-full-d");
    let via_replay = tmp_dir("diff-vs-full-r");
    copy_dir(&dir, &via_diff);
    copy_dir(&dir, &via_replay);
    fs::remove_file(via_replay.join("diff-1-2.snap")).unwrap();

    let a = UsaasService::open_or_recover(&via_diff, 2).unwrap();
    let b = UsaasService::open_or_recover(&via_replay, 2).unwrap();
    assert!(a.health().recovery_warnings.is_empty());
    assert!(b.health().recovery_warnings.is_empty());
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(fingerprint(&a), fingerprint(&fx.reference(3, 2)));
    for d in [dir, via_diff, via_replay] {
        let _ = fs::remove_dir_all(&d);
    }
}

#[test]
fn corrupt_diff_falls_back_to_base_and_replays() {
    let fx = Fixture::new();
    let dir = tmp_dir("diff-flip");
    drop(run_workload_diff(&fx, &dir));

    // Flip a payload byte in the diff: its checksum fails, recovery
    // falls back to the seq-1 full snapshot and replays the journal
    // tail — ending bit-identical to the never-crashed service.
    flip_byte(&dir.join("diff-1-2.snap"), 60);
    let recovered = UsaasService::open_or_recover(&dir, 2).unwrap();
    let health = recovered.health();
    assert!(
        !health.recovery_warnings.is_empty(),
        "the skipped diff must be reported"
    );
    assert_eq!(fingerprint(&recovered), fingerprint(&fx.reference(3, 2)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn build_persistent_refuses_an_existing_directory() {
    let fx = Fixture::new();
    let dir = tmp_dir("refuse");
    drop(UsaasService::build_persistent(fx.dataset.clone(), fx.forum.clone(), 2, &dir).unwrap());
    assert!(
        UsaasService::build_persistent(fx.dataset.clone(), fx.forum.clone(), 2, &dir).is_err(),
        "re-initialising over a persisted service must be refused"
    );
    // ... while open_or_recover of the same directory works.
    let reopened = UsaasService::open_or_recover(&dir, 2).unwrap();
    assert_eq!(reopened.epoch(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dead_letter_ring_cap_survives_recovery_with_derived_drop_count() {
    use usaas::DEAD_LETTER_CAP;
    let dir = tmp_dir("dead-letter-cap");
    let mut base = generate(&DatasetConfig::small(40, 9));
    base.sessions.truncate(30);
    let svc = UsaasService::build_persistent(base, Forum { posts: Vec::new() }, 2, &dir).unwrap();
    // Quarantine more than the ring holds: the journal and snapshot carry
    // only the capped tail, but the exact total persists in the health
    // counters, so recovery derives the evicted count.
    let pills = DEAD_LETTER_CAP + 137;
    let items: Vec<RawItem> = (0..pills).map(|_| RawItem::Poison("pill")).collect();
    let report = svc.ingest_append(
        vec![Box::new(ItemSource::new("pill-feed", items))],
        &IngestConfig::with_workers(2),
    );
    assert_eq!(report.quarantined.len(), pills);
    let live = svc.health();
    assert_eq!(live.quarantined_total, pills);
    assert_eq!(live.dead_letters_dropped, pills - DEAD_LETTER_CAP);
    let live_ring = svc.dead_letters();
    drop(svc);

    let recovered = UsaasService::open_or_recover(&dir, 2).unwrap();
    let health = recovered.health();
    assert!(
        health.recovery_warnings.is_empty(),
        "{:?}",
        health.recovery_warnings
    );
    assert_eq!(health.quarantined_total, pills, "exact total survives");
    assert_eq!(
        recovered.dead_letters().len(),
        DEAD_LETTER_CAP,
        "the ring reloads capped"
    );
    assert_eq!(
        health.dead_letters_dropped,
        pills - DEAD_LETTER_CAP,
        "the evicted count is re-derived on recovery"
    );
    assert_eq!(
        format!("{:?}", recovered.dead_letters()),
        format!("{live_ring:?}"),
        "the retained tail is bit-identical"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The counts a signal store holds, in `signal_counts` order.
fn store_counts(store: &SignalStore) -> (usize, usize, usize) {
    (
        store.count_kind(SignalKind::Implicit),
        store.count_kind(SignalKind::Explicit),
        store.count_kind(SignalKind::Social),
    )
}

/// Feed `items` through one source into the service's append path and,
/// as the oracle, through the store-backed engine into `store`.
fn append_mirrored(svc: &UsaasService, store: &SignalStore, items: Vec<RawItem>) {
    let cfg = IngestConfig::with_workers(1);
    let oracle: Vec<Box<dyn Source>> = vec![Box::new(ItemSource::new("feed", items.clone()))];
    ingest_stream(store, oracle, &cfg);
    let live: Vec<Box<dyn Source>> = vec![Box::new(ItemSource::new("feed", items))];
    svc.ingest_append(live, &cfg);
}

#[test]
fn derived_signal_counts_match_a_store_ingest() {
    let fx = Fixture::new();
    let dir = tmp_dir("derived-counts");
    let store = SignalStore::new();
    ingest_all(&store, &fx.dataset, &fx.forum, 2);
    let svc =
        UsaasService::build_persistent(fx.dataset.clone(), fx.forum.clone(), 2, &dir).unwrap();
    let built = store_counts(&store);
    assert!(built.1 > 0, "the dataset carries rated sessions");
    assert_eq!(svc.signal_counts(), built, "after build");

    // Seq 1: sessions around a poison pill, which is quarantined and so
    // counted by neither side.
    let mut items = vec![RawItem::Poison("bad upstream frame")];
    items.extend(
        fx.op1_sessions
            .iter()
            .map(|s| RawItem::Session(Box::new(s.clone()))),
    );
    append_mirrored(&svc, &store, items);
    assert_eq!(svc.dead_letters().len(), 1);
    assert_eq!(
        svc.signal_counts(),
        store_counts(&store),
        "after the poisoned append"
    );
    assert_eq!(svc.signal_counts().0, built.0 + fx.op1_sessions.len());

    // Seq 2: posts only.
    append_mirrored(
        &svc,
        &store,
        fx.op2_posts
            .iter()
            .map(|p| RawItem::Post(Box::new(p.clone())))
            .collect(),
    );
    let at_full = store_counts(&store);
    assert_eq!(svc.signal_counts(), at_full, "after the post-only append");
    assert_eq!(at_full.2, built.2 + fx.op2_posts.len());
    svc.checkpoint_full().unwrap();

    // Seq 3: both families, checkpointed as a diff over seq 2.
    let mut items: Vec<RawItem> = fx
        .op3_sessions
        .iter()
        .map(|s| RawItem::Session(Box::new(s.clone())))
        .collect();
    items.extend(
        fx.op3_posts
            .iter()
            .map(|p| RawItem::Post(Box::new(p.clone()))),
    );
    append_mirrored(&svc, &store, items);
    let at_diff = store_counts(&store);
    assert_eq!(svc.signal_counts(), at_diff);
    let diff = svc.checkpoint().unwrap();
    assert!(diff.ends_with("diff-2-3.snap"), "{diff:?}");
    drop(svc);

    // From the full snapshot alone: no diff, journal cut at its seq.
    let full_only = tmp_dir("derived-counts-full");
    copy_dir(&dir, &full_only);
    fs::remove_file(full_only.join("diff-2-3.snap")).unwrap();
    let offsets = journal_record_offsets(&full_only.join(JOURNAL_FILE)).unwrap();
    fs::OpenOptions::new()
        .write(true)
        .open(full_only.join(JOURNAL_FILE))
        .unwrap()
        .set_len(offsets[2])
        .unwrap();
    let recovered = UsaasService::open_or_recover(&full_only, 4).unwrap();
    assert!(recovered.health().recovery_warnings.is_empty());
    assert_eq!(recovered.epoch(), 2);
    assert_eq!(recovered.signal_counts(), at_full, "from the full snapshot");

    // Through the diff.
    let recovered = UsaasService::open_or_recover(&dir, 4).unwrap();
    assert!(recovered.health().recovery_warnings.is_empty());
    assert_eq!(recovered.epoch(), 3);
    assert_eq!(recovered.signal_counts(), at_diff, "from the diff");
    for d in [dir, full_only] {
        let _ = fs::remove_dir_all(&d);
    }
}

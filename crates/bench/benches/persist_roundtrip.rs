//! Persistence round-trip bench: what durability costs.
//!
//! Three phases over the same persisted service directory:
//!
//! * `checkpoint` — encode + checksum + atomic-rename a full snapshot of
//!   the service (dataset, forum, frame, store, health).
//! * `recover_snapshot` — `open_or_recover` of a directory whose journal
//!   is fully covered by the snapshot: pure snapshot decode + validation.
//! * `recover_replay` — `open_or_recover` of a directory holding only the
//!   epoch-0 snapshot plus a journaled append: decode plus the journal
//!   replay path (re-normalise, extend the frame, commit).
//! * `crc32_12mib` — the CRC-32 every snapshot, diff and journal frame is
//!   checksummed with on write and on load, over a fixed 12 MiB buffer
//!   (about one full snapshot of the serving benchmark's base service).
//!
//! The `persist_differential` group prices the dirty-column checkpoint
//! against those full snapshots, over the same service shape:
//!
//! * `checkpoint_full` — the forced full snapshot (the old behaviour).
//! * `checkpoint_diff` — the differential snapshot: only the session/post
//!   suffixes dirtied since the base, plus health and view keys.
//! * `recover_diff` — `open_or_recover` through the diff fast path: base
//!   decode + suffix apply instead of a full journal replay.
//!
//! Run with `BENCH_JSON=results/BENCH_persist.json` (or via
//! `scripts/bench_json.sh`) to export the medians.

use analytics::time::Date;
use conference::dataset::{generate, DatasetConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::bin;
use social::generator::{generate as gen_forum, ForumConfig};
use std::hint::black_box;
use std::path::PathBuf;
use usaas::UsaasService;

/// Calls in the base dataset per service.
const N: usize = 800;
/// Worker threads for builds and recovery.
const WORKERS: usize = 4;
/// Bytes the `crc32_12mib` row checksums.
const CRC_BYTES: usize = 12 << 20;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("usaas-bench-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A persisted service with one journaled append on top of the epoch-0
/// snapshot; `checkpointed` controls whether a second snapshot covers it.
fn persisted_dir(tag: &str, checkpointed: bool) -> PathBuf {
    let dir = scratch(tag);
    let dataset = generate(&DatasetConfig::small(N, 17));
    let forum = gen_forum(&ForumConfig {
        authors: 400,
        end: Date::from_ymd(2021, 6, 30).unwrap(),
        ..ForumConfig::default()
    });
    let svc = UsaasService::build_persistent(dataset, forum, WORKERS, &dir).unwrap();
    let delta = generate(&DatasetConfig::small(N / 4, 99));
    svc.append_batch(delta.sessions, Vec::new());
    if checkpointed {
        svc.checkpoint().unwrap();
    }
    dir
}

fn bench_persist_roundtrip(c: &mut Criterion) {
    let snap_dir = persisted_dir("snap", true);
    let replay_dir = persisted_dir("replay", false);
    let svc = UsaasService::open_or_recover(&snap_dir, WORKERS).unwrap();

    let mut group = c.benchmark_group("persist_roundtrip");
    group.sample_size(10);
    group.bench_function("checkpoint", |b| {
        b.iter(|| black_box(svc.checkpoint_full().unwrap()))
    });
    group.bench_function("recover_snapshot", |b| {
        b.iter(|| {
            let recovered = UsaasService::open_or_recover(&snap_dir, WORKERS).unwrap();
            black_box(recovered.epoch())
        })
    });
    group.bench_function("recover_replay", |b| {
        b.iter(|| {
            let recovered = UsaasService::open_or_recover(&replay_dir, WORKERS).unwrap();
            black_box(recovered.epoch())
        })
    });
    let buf: Vec<u8> = (0..CRC_BYTES as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    group.bench_function("crc32_12mib", |b| {
        b.iter(|| black_box(bin::crc32(black_box(&buf))))
    });
    group.finish();

    drop(svc);
    let _ = std::fs::remove_dir_all(&snap_dir);
    let _ = std::fs::remove_dir_all(&replay_dir);
}

fn bench_persist_differential(c: &mut Criterion) {
    // A service whose full base snapshot covers the build, with one
    // appended delta dirtying a session suffix: the checkpoint choice
    // point the differential path exists for.
    let diff_dir = persisted_dir("diff", false);
    let svc = UsaasService::open_or_recover(&diff_dir, WORKERS).unwrap();
    svc.checkpoint_full().unwrap();
    let delta = generate(&DatasetConfig::small(N / 4, 123));
    svc.append_batch(delta.sessions, Vec::new());

    let mut group = c.benchmark_group("persist_differential");
    // The diff write is small and fsync-dominated — extra samples keep
    // its min/median stable enough for the bench regression gate.
    group.sample_size(30);
    group.bench_function("checkpoint_full", |b| {
        b.iter(|| black_box(svc.checkpoint_full().unwrap()))
    });
    // Re-arm the diff base: the forced fulls above moved it to the
    // current sequence, so dirty it again before timing the diff.
    svc.checkpoint_full().unwrap();
    let delta = generate(&DatasetConfig::small(N / 4, 124));
    svc.append_batch(delta.sessions, Vec::new());
    group.bench_function("checkpoint_diff", |b| {
        b.iter(|| {
            let path = svc.checkpoint().unwrap();
            debug_assert!(path
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("diff-"));
            black_box(path)
        })
    });
    group.bench_function("recover_diff", |b| {
        b.iter(|| {
            let recovered = UsaasService::open_or_recover(&diff_dir, WORKERS).unwrap();
            black_box(recovered.epoch())
        })
    });
    group.finish();

    drop(svc);
    let _ = std::fs::remove_dir_all(&diff_dir);
}

criterion_group!(benches, bench_persist_roundtrip, bench_persist_differential);
criterion_main!(benches);

//! End-to-end serving benchmark.
//!
//! One generator thread drives a durable daemon on a fixed schedule: per
//! batch it calls `Daemon::submit`, then `Daemon::tick`, then asks the
//! workload's dashboard with `query`, and advances the daemon's
//! `VirtualClock` by a fixed tick. Checkpoints, compactions, crashes and
//! answer checks therefore land on the same batches in every run; only
//! the timers (`std::time::Instant` around public calls) are real.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload telemetry --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run repeats the schedule in rounds — each from a fresh build of the
//! resident base in a new data directory — until `--seconds` have passed
//! and enough samples exist for every reported percentile. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`).

mod plan;
mod served;
mod stats;
mod trace;

use plan::{Family, Plan, Workload, TICK_MS};
use served::Served;
use stats::{beyond, median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use usaas::{
    ingest_stream, Answer, Clock, Daemon, DaemonConfig, IngestConfig, ItemSource,
    PartitionedService, RawItem, ServeTarget, SignalStore, Source, SubmitOutcome, UsaasError,
    UsaasService, VirtualClock,
};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// A percentile is reported only with at least this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// Ticks an untraced run measures at least. More than p90 strictly needs:
/// the host's speed drifts over seconds, and a longer window steadies the
/// medians.
const MIN_TICKS: usize = 150;

/// Do not start another round once this much wall time has passed.
const ROUND_BUDGET_S: f64 = 120.0;

/// Where runs keep their data directories and traces, under the
/// working directory.
const WORK_DIR: &str = ".servebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload telemetry|social|cluster is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Attempted and failed operations of a run.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Count one operation; report and count it failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// Everything one run measures, pooled over its rounds.
#[derive(Default)]
struct Samples {
    rounds: usize,
    setup_s: Vec<f64>,
    freshness_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    submit_us: Vec<f64>,
    tick_ms: Vec<f64>,
    plain_tick_ms: Vec<f64>,
    /// Checkpoint ticks: (full snapshot?, tick ms).
    checkpoint_tick_ms: Vec<(bool, f64)>,
    items_committed: usize,
    tick_total_s: f64,
    restart_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    disk_mb: Vec<f64>,
    finish_ms: BTreeMap<&'static str, Vec<f64>>,
    rebuild_ms: BTreeMap<&'static str, Vec<f64>>,
    checkpoint_ticks: Vec<f64>,
    compacted_records: Vec<f64>,
    root_compacted_records: Vec<f64>,
    journal_bytes_skew: Vec<f64>,
    // Traced rounds only.
    stream_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    journal_append_ms: Vec<f64>,
    records_per_commit: Vec<f64>,
    journal_bytes: u64,
    journal_bytes_items: usize,
    frame_ms: Vec<f64>,
    fresh_ms: BTreeMap<&'static str, Vec<f64>>,
    single_refresh_ms: Vec<f64>,
    cache_hit_us: Vec<f64>,
    cache_hits: usize,
    cache_misses: usize,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn daemon_config(plan: &Plan, clock: Arc<VirtualClock>) -> DaemonConfig {
    let mut cfg = DaemonConfig::with_workers(served::WORKERS);
    cfg.ingest = IngestConfig::with_workers(served::WORKERS).with_clock(clock);
    cfg.tick_ms = TICK_MS;
    cfg.checkpoint_every_ms = plan.checkpoint_every_ms;
    cfg.compact_journal = true;
    // Every batch fits; a refused submit would be a failed operation.
    cfg.queue_capacity = 1 << 20;
    cfg.admission = usaas::AdmissionPolicy::Reject;
    cfg
}

type Answers = Vec<Result<Answer, UsaasError>>;

/// Ask the dashboard in sequence. Returns the answers and the total time;
/// each question's time goes to `per_family` when given.
fn refresh<S: Served>(
    svc: &S,
    dash: &[Family],
    span_names: &[String],
    tr: &mut Tracer,
    id: u64,
    mut per_family: Option<&mut BTreeMap<&'static str, Vec<f64>>>,
    ops: &mut Ops,
) -> (Answers, f64) {
    let span = tr.begin("refresh", id, false);
    let mut answers = Vec::with_capacity(dash.len());
    let mut times = Vec::with_capacity(dash.len());
    let start = Instant::now();
    for (i, fam) in dash.iter().enumerate() {
        let q = tr.begin(span_names[i].as_str(), id, false);
        let t = Instant::now();
        answers.push(svc.ask(&fam.query));
        times.push(ms(t));
        tr.end(q);
    }
    let total = ms(start);
    tr.end(span);
    for (i, (fam, a)) in dash.iter().zip(&answers).enumerate() {
        ops.check(a.is_ok(), || {
            format!("query {} at batch {id}: {a:?}", fam.name)
        });
        if let Some(map) = per_family.as_deref_mut() {
            map.entry(fam.name).or_default().push(times[i]);
        }
    }
    (answers, total)
}

fn fingerprint(answers: &Answers) -> Vec<String> {
    answers.iter().map(|a| format!("{a:?}")).collect()
}

/// Every dashboard answer must equal a from-scratch answer on the same
/// generation.
fn check_fresh<S: Served>(svc: &S, dash: &[Family], answers: &Answers, k: usize, ops: &mut Ops) {
    for (fam, a) in dash.iter().zip(answers) {
        let fresh = format!("{:?}", svc.fresh(&fam.query));
        ops.check(format!("{a:?}") == fresh, || {
            format!("{} at batch {k} differs from answer_fresh", fam.name)
        });
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn is_diff(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("diff-"))
}

fn item_source(name: &str, batch: &[RawItem]) -> Vec<Box<dyn Source + 'static>> {
    vec![Box::new(ItemSource::new(name, batch.to_vec()))]
}

/// In-memory twins the traced run's probes call, fed the same batches as
/// the measured service. `same` has the measured target's type; `single`
/// is a single service (the same object as `same` unless the measured
/// target is a cluster).
struct Twins<S> {
    same: S,
    single: Option<UsaasService>,
}

impl<S: Served> Twins<S> {
    fn build(plan: &Plan, span_names: &[String], ops: &mut Ops) -> Twins<S> {
        let (ds, forum) = plan.base();
        let same = S::memory(ds, forum);
        let single = same.as_single().is_none().then(|| {
            let (ds, forum) = plan.base();
            UsaasService::build(ds, forum, served::WORKERS)
        });
        let twins = Twins { same, single };
        // Install the twins' views so their commits advance them like the
        // measured service's.
        let mut off = Tracer::new(false);
        refresh(
            &twins.same,
            &plan.dashboard,
            span_names,
            &mut off,
            0,
            None,
            ops,
        );
        if let Some(single) = &twins.single {
            refresh(single, &plan.dashboard, span_names, &mut off, 0, None, ops);
        }
        twins
    }

    fn single(&self) -> &UsaasService {
        self.single
            .as_ref()
            .or(self.same.as_single())
            .expect("a single-service twin exists")
    }
}

/// One round of the fixed schedule on a fresh data directory.
fn round<S: Served>(
    plan: &Plan,
    dir: &Path,
    r: usize,
    tr: &mut Tracer,
    s: &mut Samples,
    ops: &mut Ops,
) -> Result<(), String> {
    let traced = tr.on;
    let dash = &plan.dashboard;
    let span_names: Vec<String> = dash.iter().map(|f| format!("query.{}", f.name)).collect();
    let fresh_names: Vec<String> = dash
        .iter()
        .map(|f| format!("probe.answer_fresh.{}", f.name))
        .collect();
    let rid = |k: u64| ((r as u64) << 32) | k;
    let clock = Arc::new(VirtualClock::new());
    let cfg = daemon_config(plan, Arc::clone(&clock));
    let icfg = cfg.ingest.clone();

    // Set-up: build the durable service and answer the first dashboard.
    let (ds, forum) = plan.base();
    let id = rid(u32::MAX as u64);
    let setup_span = tr.begin("setup", id, false);
    let t0 = Instant::now();
    let build = tr.begin("build_persistent", id, false);
    let svc = S::durable(ds, forum, dir).map_err(|e| format!("build_persistent: {e}"))?;
    tr.end(build);
    let (answers, _) = refresh(&svc, dash, &span_names, tr, id, None, ops);
    s.setup_s.push(t0.elapsed().as_secs_f64());
    tr.end(setup_span);
    drop(answers);

    let twins = traced.then(|| Twins::<S>::build(plan, &span_names, ops));
    let mut svc = Arc::new(svc);
    let mut daemon = Daemon::new(Arc::clone(&svc), cfg.clone());
    let (mut checkpoints, mut compacted, mut root_compacted) = (0usize, 0u64, 0u64);

    for (k, batch) in plan.batches.iter().enumerate() {
        let id = rid(k as u64);
        let items = batch.to_vec();
        let epoch_before = svc.epoch();
        let journal_before = traced.then(|| (svc.journals(), ServeTarget::journal_stats(&*svc)));

        let tick_span = tr.begin("tick", id, false);
        let sp = tr.begin("submit", id, false);
        let t = Instant::now();
        let outcome = daemon.submit(items);
        let submit_ms = ms(t);
        tr.end(sp);
        let sp = tr.begin("daemon.tick", id, false);
        let t = Instant::now();
        let report = daemon.tick();
        let tick_ms = ms(t);
        tr.end(sp);
        let (answers, refresh_ms) = refresh(
            &*svc,
            dash,
            &span_names,
            tr,
            id,
            Some(&mut s.finish_ms),
            ops,
        );
        tr.end(tick_span);

        s.submit_us.push(submit_ms * 1e3);
        s.tick_ms.push(tick_ms);
        s.refresh_ms.push(refresh_ms);
        s.freshness_ms.push(submit_ms + tick_ms + refresh_ms);
        s.tick_total_s += tick_ms / 1e3;
        if report.committed {
            s.items_committed += batch.len();
        }
        match &report.checkpointed {
            Some(path) => {
                checkpoints += 1;
                s.checkpoint_tick_ms.push((!is_diff(path), tick_ms));
            }
            None => s.plain_tick_ms.push(tick_ms),
        }
        let dropped = report.compaction.map_or(0, |c| c.dropped_records);
        let root_dropped = report.root_compaction.map_or(0, |c| c.dropped_records);
        compacted += dropped;
        root_compacted += root_dropped;

        ops.check(matches!(outcome, SubmitOutcome::Queued { .. }), || {
            format!("submit at batch {k}: {outcome:?}")
        });
        ops.check(report.committed, || {
            format!("tick at batch {k} committed nothing")
        });
        ops.check(
            svc.epoch() == epoch_before + 1
                && report.fed == S::fed_passes() * batch.len()
                && report.quarantined == 0
                && report.errors.is_empty(),
            || format!("tick at batch {k}: {report:?}"),
        );

        if let Some(twins) = &twins {
            let (hits, misses) = svc.cache_counts();
            s.cache_hits += hits;
            s.cache_misses += misses;
            let twin_append_ms = probe(
                plan,
                twins,
                &*svc,
                batch,
                k,
                id,
                &icfg,
                &fresh_names,
                &span_names,
                tr,
                s,
                ops,
            );
            let ((root0, parts0), bytes0) = journal_before.expect("taken when traced");
            let (root1, parts1) = svc.journals();
            let records = (root1 - root0)
                + parts1
                    .iter()
                    .zip(&parts0)
                    .map(|(a, b)| a.last_seq - b.last_seq)
                    .sum::<u64>();
            s.records_per_commit.push(records as f64);
            if dropped == 0 && root_dropped == 0 {
                let bytes1 = ServeTarget::journal_stats(&*svc).map_or(0, |j| j.bytes);
                s.journal_bytes += bytes1 - bytes0.map_or(0, |j| j.bytes);
                s.journal_bytes_items += batch.len();
            }
            if report.checkpointed.is_none() {
                s.journal_append_ms.push(tick_ms - twin_append_ms);
            }
        }

        if plan.check_at.contains(&k) {
            check_fresh(&*svc, dash, &answers, k, ops);
        }

        if plan.crash_after.contains(&k) {
            // Crash: drop daemon and service without draining, reopen,
            // and ask the first dashboard on the recovered service.
            let before = fingerprint(&answers);
            let epoch = svc.epoch();
            drop(answers);
            drop(daemon);
            drop(svc);
            let restart_span = tr.begin("restart", id, false);
            let t = Instant::now();
            let sp = tr.begin("open_or_recover", id, false);
            let reopened = S::reopen(dir).map_err(|e| format!("open_or_recover: {e}"))?;
            s.recover_ms.push(ms(t));
            tr.end(sp);
            let (after, _) = refresh(
                &reopened,
                dash,
                &span_names,
                tr,
                id,
                Some(&mut s.rebuild_ms),
                ops,
            );
            s.restart_ms.push(ms(t));
            tr.end(restart_span);
            let warnings = reopened.warnings();
            ops.check(warnings.is_empty(), || {
                format!("recovery warnings: {warnings:?}")
            });
            ops.check(reopened.epoch() == epoch, || {
                format!("recovered epoch {} != {epoch}", reopened.epoch())
            });
            let after = fingerprint(&after);
            for (i, fam) in dash.iter().enumerate() {
                ops.check(before[i] == after[i], || {
                    format!("{} after recovery at batch {k} differs", fam.name)
                });
            }
            svc = Arc::new(reopened);
            daemon = Daemon::new(Arc::clone(&svc), cfg.clone());
        }
        clock.sleep_ms(TICK_MS);
    }

    s.checkpoint_ticks.push(checkpoints as f64);
    s.compacted_records.push(compacted as f64);
    s.root_compacted_records.push(root_compacted as f64);
    let (_, parts) = svc.journals();
    let bytes: Vec<f64> = parts.iter().map(|j| j.bytes as f64).collect();
    let mean = bytes.iter().sum::<f64>() / bytes.len().max(1) as f64;
    let max = bytes.iter().copied().fold(0.0, f64::max);
    s.journal_bytes_skew.push(max / mean.max(1.0));
    drop(daemon);
    drop(svc);
    s.disk_mb.push(dir_bytes(dir) as f64 / (1024.0 * 1024.0));
    s.rounds += 1;
    Ok(())
}

/// The traced run's probes for batch `k`: calls on in-memory twins fed the
/// same batch, plus one repeated question on the measured service after
/// its refresh. None of them warms anything a measured call pays for.
/// Returns the twin's whole `ingest_append` time.
#[allow(clippy::too_many_arguments)]
fn probe<S: Served>(
    plan: &Plan,
    twins: &Twins<S>,
    svc: &S,
    batch: &[RawItem],
    k: usize,
    id: u64,
    icfg: &IngestConfig,
    fresh_names: &[String],
    span_names: &[String],
    tr: &mut Tracer,
    s: &mut Samples,
    ops: &mut Ops,
) -> f64 {
    // A memo hit: the dashboard's first question asked again.
    let sp = tr.begin("probe.cache_hit", id, true);
    let t = Instant::now();
    let hit = svc.ask(&plan.dashboard[0].query);
    s.cache_hit_us.push(ms(t) * 1e3);
    tr.end(sp);
    drop(hit);

    // Normalisation and store insertion alone, into a scratch store.
    let store = SignalStore::new();
    let sources = item_source("probe", batch);
    let sp = tr.begin("probe.ingest.stream", id, true);
    let t = Instant::now();
    let report = ingest_stream(&store, sources, icfg);
    let stream_ms = ms(t);
    tr.end(sp);
    drop(report);
    drop(store);

    // The whole in-memory append: ingest plus commit.
    let sources = item_source("daemon-submit", batch);
    let sp = tr.begin("probe.twin.ingest_append", id, true);
    let t = Instant::now();
    let report = ServeTarget::ingest_append(&twins.same, sources, icfg);
    let append_ms = ms(t);
    tr.end(sp);
    ops.check(report.fed == S::fed_passes() * batch.len(), || {
        format!("twin append at batch {k}")
    });
    s.stream_ms.push(stream_ms);
    s.commit_ms.push(append_ms - stream_ms);

    if let Some(single) = &twins.single {
        single.ingest_append(item_source("daemon-submit", batch), icfg);
    }
    let single = twins.single();
    let sp = tr.begin("probe.twin.frame", id, true);
    let t = Instant::now();
    let generation = single.snapshot();
    std::hint::black_box(generation.frame().len());
    s.frame_ms.push(ms(t));
    tr.end(sp);
    drop(generation);

    // From-scratch answers on the twin of the measured target's type, before
    // that twin's own refresh could fill any per-epoch cache.
    if plan.fresh_at.contains(&k) {
        for (i, fam) in plan.dashboard.iter().enumerate() {
            let sp = tr.begin(fresh_names[i].as_str(), id, true);
            let t = Instant::now();
            let answer = twins.same.fresh(&fam.query);
            s.fresh_ms.entry(fam.name).or_default().push(ms(t));
            tr.end(sp);
            ops.check(answer.is_ok(), || {
                format!("twin answer_fresh {} at batch {k}", fam.name)
            });
        }
    }

    // The cluster's refresh overhead needs the single twin's dashboard at
    // every epoch; the cluster twin asks it too so both twins carry the
    // same views. A single-service twin carries its views through commits.
    if twins.single.is_some() {
        let mut off = Tracer::new(false);
        let sp = tr.begin("probe.twin.refresh", id, true);
        let (_, single_ms) = refresh(single, &plan.dashboard, span_names, &mut off, id, None, ops);
        tr.end(sp);
        s.single_refresh_ms.push(single_ms);
        refresh(
            &twins.same,
            &plan.dashboard,
            span_names,
            &mut off,
            id,
            None,
            ops,
        );
    }
    append_ms
}

/// Metric name → (value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

fn pct(
    out: &mut Metrics,
    notes: &mut Vec<String>,
    name: &str,
    samples: &[f64],
    p: f64,
    unit: &'static str,
) -> Result<(), String> {
    let n = samples.len();
    let have = if p == 50.0 { n } else { beyond(n, p) };
    if n == 0 || (p != 50.0 && have < MIN_BEYOND) {
        return Err(format!(
            "{name}: {n} samples, {have} beyond p{p}; need {MIN_BEYOND}"
        ));
    }
    let value = percentile(samples, p).expect("non-empty");
    notes.push(format!(
        "{name} = {value:.4} {unit} (n={n}, {} beyond)",
        beyond(n, p)
    ));
    out.push((name.to_string(), value, unit));
    Ok(())
}

fn end_to_end(s: &Samples, notes: &mut Vec<String>) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    for (name, samples, p, unit) in [
        ("setup_s", &s.setup_s, 50.0, "s"),
        ("freshness_p50_ms", &s.freshness_ms, 50.0, "ms"),
        ("freshness_p90_ms", &s.freshness_ms, 90.0, "ms"),
        ("refresh_p50_ms", &s.refresh_ms, 50.0, "ms"),
        ("refresh_p90_ms", &s.refresh_ms, 90.0, "ms"),
        ("restart_ms", &s.restart_ms, 50.0, "ms"),
        ("disk_mb", &s.disk_mb, 50.0, "MiB"),
    ] {
        pct(&mut m, notes, name, samples, p, unit)?;
    }
    let rate = s.items_committed as f64 / s.tick_total_s;
    notes.push(format!(
        "ingest_items_s = {rate:.1} items/s ({} items over {:.3} s of tick time)",
        s.items_committed, s.tick_total_s
    ));
    m.push(("ingest_items_s".into(), rate, "items/s"));
    let rss = peak_rss_mb();
    notes.push(format!("peak_rss_mb = {rss:.1} MiB (VmHWM)"));
    m.push(("peak_rss_mb".into(), rss, "MiB"));
    Ok(m)
}

fn per_layer<S: Served>(
    s: &Samples,
    untraced: &Samples,
    tr: &Tracer,
    notes: &mut Vec<String>,
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    for (name, samples, p, unit) in [
        ("daemon.submit_p50_us", &s.submit_us, 50.0, "us"),
        ("daemon.tick_p50_ms", &s.tick_ms, 50.0, "ms"),
        ("daemon.tick_p90_ms", &s.tick_ms, 90.0, "ms"),
        ("ingest.stream_p50_ms", &s.stream_ms, 50.0, "ms"),
        ("service.commit_p50_ms", &s.commit_ms, 50.0, "ms"),
        (
            "persist.journal_append_p50_ms",
            &s.journal_append_ms,
            50.0,
            "ms",
        ),
        ("frame.materialize_ms", &s.frame_ms, 50.0, "ms"),
        ("cache.hit_p50_us", &s.cache_hit_us, 50.0, "us"),
    ] {
        pct(&mut m, notes, name, samples, p, unit)?;
    }

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let family_med =
        |map: &BTreeMap<&'static str, Vec<f64>>, f: &str| map.get(f).map_or(0.0, |v| med(v));
    let mut values: Vec<(String, f64, &'static str)> = Vec::new();
    let mut value =
        |name: &str, v: f64, unit: &'static str| values.push((name.to_string(), v, unit));

    value("daemon.checkpoint_ticks", med(&s.checkpoint_ticks), "count");
    let commits = s.records_per_commit.len().max(1) as f64;
    value(
        "persist.journal_records_per_commit",
        s.records_per_commit.iter().sum::<f64>() / commits,
        "count",
    );
    value(
        "persist.journal_bytes_per_item",
        s.journal_bytes as f64 / s.journal_bytes_items.max(1) as f64,
        "B",
    );
    let plain = med(&s.plain_tick_ms);
    for (full, name) in [
        (true, "persist.checkpoint_full_ms"),
        (false, "persist.checkpoint_diff_ms"),
    ] {
        let extra: Vec<f64> = s
            .checkpoint_tick_ms
            .iter()
            .filter(|(f, _)| *f == full)
            .map(|(_, t)| t - plain)
            .collect();
        notes.push(format!("{name}: n={}", extra.len()));
        value(name, med(&extra), "ms");
    }
    value(
        "persist.compacted_records",
        med(&s.compacted_records),
        "count",
    );
    value("persist.recover_ms", med(&s.recover_ms), "ms");
    let families = plan::all_families();
    for f in &families {
        value(
            &format!("views.finish_ms.{}", f.name),
            family_med(&s.finish_ms, f.name),
            "ms",
        );
    }
    for f in &families {
        value(
            &format!("views.rebuild_ms.{}", f.name),
            family_med(&s.rebuild_ms, f.name),
            "ms",
        );
    }
    notes.push(format!(
        "cache: {} hits, {} misses",
        s.cache_hits, s.cache_misses
    ));
    let lookups = (s.cache_hits + s.cache_misses).max(1) as f64;
    value("cache.hit_ratio", s.cache_hits as f64 / lookups, "ratio");
    for f in &families {
        value(
            &format!("fresh_ms.{}", f.name),
            family_med(&s.fresh_ms, f.name),
            "ms",
        );
    }
    for f in &families {
        let finish = family_med(&s.finish_ms, f.name);
        let fresh = family_med(&s.fresh_ms, f.name);
        let ratio = if finish > 0.0 { fresh / finish } else { 0.0 };
        value(&format!("views.saving_ratio.{}", f.name), ratio, "ratio");
    }
    // Cluster dashboard minus the single-service twin's; 0 on a single
    // service, where the twin is the measured target's own type.
    let overhead = if S::PARTITIONED {
        med(&s.refresh_ms) - med(&s.single_refresh_ms)
    } else {
        0.0
    };
    value("cluster.refresh_overhead_ms", overhead, "ms");
    value(
        "cluster.journal_bytes_skew",
        med(&s.journal_bytes_skew),
        "ratio",
    );
    value(
        "cluster.root_compacted_records",
        med(&s.root_compacted_records),
        "count",
    );
    for name in ["tick", "refresh"] {
        let cover = tr.coverage(name).unwrap_or(0.0);
        value(&format!("trace.{name}_child_coverage"), cover, "ratio");
    }
    let over = |a: &[f64], b: &[f64]| med(a) - med(b);
    value(
        "trace.overhead_freshness_p50_ms",
        over(&s.freshness_ms, &untraced.freshness_ms),
        "ms",
    );
    value(
        "trace.overhead_refresh_p50_ms",
        over(&s.refresh_ms, &untraced.refresh_ms),
        "ms",
    );
    for (name, v, unit) in values {
        notes.push(format!("{name} = {v:.4} {unit}"));
        m.push((name, v, unit));
    }
    Ok(m)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run<S: Served>(args: &Args, plan: &Plan, work: &Path) -> Result<(), String> {
    let ticks = plan.batches.len();
    // Rounds for MIN_TICKS samples per tick metric (p90 then has
    // MIN_TICKS / 10 beyond it) and at least three set-ups. A traced run
    // needs only 10 * MIN_BEYOND traced ticks for its per-layer p90.
    let min_rounds = if args.trace {
        10 * MIN_BEYOND
    } else {
        MIN_TICKS
    }
    .div_ceil(ticks)
    .max(3);
    let started = Instant::now();
    let mut ops = Ops::default();
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut r = 0;
    loop {
        // The traced run measures one untraced round first, the baseline
        // of its tracing overhead.
        let tracing = args.trace && r > 0;
        let (samples, tracer) = if tracing {
            (&mut traced, &mut tr)
        } else {
            (&mut untraced, &mut off)
        };
        let dir = work.join(format!("round-{r}"));
        let t = Instant::now();
        round::<S>(plan, &dir, r, tracer, samples, &mut ops)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        let round_s = t.elapsed().as_secs_f64();
        r += 1;
        let counted = if args.trace {
            traced.rounds
        } else {
            untraced.rounds
        };
        let elapsed = started.elapsed().as_secs_f64();
        if counted >= min_rounds && (elapsed >= args.seconds || elapsed + round_s > ROUND_BUDGET_S)
        {
            break;
        }
    }
    let mut notes = vec![format!(
        "workload {} seed {} rounds {} ({} ticks each) in {:.1} s",
        plan.workload.name(),
        args.seed,
        r,
        ticks,
        started.elapsed().as_secs_f64()
    )];
    let metrics = if args.trace {
        let m = per_layer::<S>(&traced, &untraced, &tr, &mut notes)?;
        let mut self_times: Vec<(String, (usize, u64))> = tr.self_times().into_iter().collect();
        self_times.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
        let total: u64 = self_times.iter().map(|(_, (_, ns))| ns).sum();
        notes.push(format!("self time by span ({} spans):", tr.len()));
        for (name, (count, ns)) in &self_times {
            notes.push(format!(
                "  {name:<28} {count:>6} spans {:>10.1} ms {:>5.1}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            ));
        }
        let path = Path::new(WORK_DIR).join(format!(
            "trace-{}-seed{}.csv",
            plan.workload.name(),
            args.seed
        ));
        tr.write_csv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
        m
    } else {
        end_to_end(&untraced, &mut notes)?
    };
    notes.push(format!(
        "operations: {} attempted, {} failed ({:.4}% failed)",
        ops.attempted,
        ops.failed,
        100.0 * ops.failed as f64 / ops.attempted.max(1) as f64
    ));
    for line in &notes {
        println!("{line}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    let work =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", plan.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("servebench: create {}: {e}", work.display());
        std::process::exit(1);
    }
    let result = match args.workload {
        Workload::Telemetry | Workload::Social => run::<UsaasService>(&args, &plan, &work),
        Workload::Cluster => run::<PartitionedService>(&args, &plan, &work),
    };
    // Only a traced run's span file stays behind.
    let _ = std::fs::remove_dir(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    if let Err(e) = result {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

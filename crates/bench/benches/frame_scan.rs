//! Columnar-frame scan bench: the §3 correlation mix computed over two
//! layouts —
//!
//! * `aos` — the dataset entry points: every aggregate walks
//!   `dataset.sessions` as full `SessionRecord`s (the record walk the
//!   incremental views advance with);
//! * `columnar` — the same aggregates through the branchless kernels over
//!   [`usaas::SessionFrame`] columns, the service's cold path. The kernel
//!   scans are sequential by design (row-order running sums are what
//!   makes them bit-identical at every worker count), so there is no
//!   parallel scan arm.
//!
//! Both layouts produce bit-identical answers (see `tests/frame_parity.rs`);
//! this bench measures only the layout. `frame_build` prices the one-off
//! materialisation the columnar paths depend on, sequential vs chunked
//! across scoped workers.
//!
//! Run with `BENCH_JSON=results/BENCH_frame.json` (or via
//! `scripts/bench_json.sh`) to export the medians.

use bench::frame_dataset;
use conference::records::{CallDataset, EngagementMetric, NetworkMetric};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use usaas::{correlate, SessionFrame};

/// Workers for the parallel frame build.
const WORKERS: usize = 4;

/// One pass over the paper's §3 figure mix, AoS flavour.
fn figure_mix_aos(dataset: &CallDataset) {
    black_box(
        correlate::engagement_curve(
            dataset,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            8,
            8,
        )
        .unwrap(),
    );
    black_box(
        correlate::engagement_curve(
            dataset,
            NetworkMetric::LossPct,
            EngagementMetric::MicOn,
            8,
            8,
        )
        .unwrap(),
    );
    black_box(correlate::compounding_grid(dataset, EngagementMetric::Presence, 5, 5).unwrap());
    black_box(
        correlate::platform_curves(
            dataset,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            4,
            5,
        )
        .unwrap(),
    );
    black_box(correlate::mos_correlations(dataset).unwrap());
}

/// The same mix over frame columns.
fn figure_mix_frame(frame: &SessionFrame) {
    black_box(
        correlate::engagement_curve_frame(
            frame,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            8,
            8,
        )
        .unwrap(),
    );
    black_box(
        correlate::engagement_curve_frame(
            frame,
            NetworkMetric::LossPct,
            EngagementMetric::MicOn,
            8,
            8,
        )
        .unwrap(),
    );
    black_box(correlate::compounding_grid_frame(frame, EngagementMetric::Presence, 5, 5).unwrap());
    black_box(
        correlate::platform_curves_frame(
            frame,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            4,
            5,
        )
        .unwrap(),
    );
    black_box(correlate::mos_correlations_frame(frame).unwrap());
}

fn bench_frame_scan(c: &mut Criterion) {
    let dataset = frame_dataset();
    let frame = SessionFrame::from_dataset(&dataset, WORKERS);

    let mut group = c.benchmark_group("frame_scan");
    group.sample_size(10);
    group.bench_function("aos", |b| b.iter(|| figure_mix_aos(&dataset)));
    group.bench_function("columnar", |b| b.iter(|| figure_mix_frame(&frame)));
    group.finish();

    let mut build = c.benchmark_group("frame_build");
    build.sample_size(10);
    build.bench_function("sequential", |b| {
        b.iter(|| black_box(SessionFrame::from_dataset(&dataset, 1)))
    });
    build.bench_function("parallel", |b| {
        b.iter(|| black_box(SessionFrame::from_dataset(&dataset, WORKERS)))
    });
    build.finish();
}

criterion_group!(benches, bench_frame_scan);
criterion_main!(benches);

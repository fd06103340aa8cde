//! The correlation engine: network conditions ↔ engagement ↔ MOS.
//!
//! Implements the paper's §3 analyses with the same confounder discipline:
//! when sweeping one network metric, all other metrics are held to their
//! reference ranges (*"latency between 0–40 ms, loss rate between 0–0.2 %,
//! jitter between 0–5 ms, and bandwidth between 3–4 Mbps"*), and the
//! resulting per-bin engagement means are normalised so the best bin reads
//! 100 — exactly how Fig. 1 is drawn.

use crate::frame::SessionFrame;
use analytics::binning::{BinSpec, BinnedCurve, Binner, SumBinner};
use analytics::correlation::pearson;
use analytics::kernels;
use analytics::AnalyticsError;
use conference::platform::Platform;
use conference::records::{CallDataset, EngagementMetric, NetworkMetric, SessionRecord};
use serde::{Deserialize, Serialize};

/// Whether a session sits in the reference range for every network metric
/// except `sweep` (the §3.2 confounder filter).
pub fn in_reference_except(session: &SessionRecord, sweep: NetworkMetric) -> bool {
    NetworkMetric::ALL.iter().all(|&metric| {
        if metric == sweep {
            return true;
        }
        let (lo, hi) = metric.reference_range();
        let v = session.network_mean(metric);
        v >= lo && v <= hi
    })
}

/// The Fig. 1 / Fig. 3 sweep axis: `bins` equal bins over the swept
/// metric's plotting range.
fn sweep_spec(sweep: NetworkMetric, bins: usize) -> Result<BinSpec, AnalyticsError> {
    let (lo, hi) = sweep.sweep_range();
    BinSpec::new(lo, hi, bins)
}

/// Fig. 1: engagement vs one network metric, other metrics held at
/// reference, engagement normalised to 100 at the best bin.
///
/// A record walk (`record_curve_sums_records`, the path the incremental
/// curve view advances with) into a [`SumBinner`], finished by
/// [`SumBinner::curve_mean`]. The service's cold path is
/// [`engagement_curve_frame`]; the parity suite asserts the two
/// bit-identical.
pub fn engagement_curve(
    dataset: &CallDataset,
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<BinnedCurve, AnalyticsError> {
    let mut binner = SumBinner::new(sweep_spec(sweep, bins)?);
    record_curve_sums_records(&dataset.sessions, sweep, engagement, &mut binner);
    Ok(binner.curve_mean(min_count).normalized_to_max(100.0))
}

/// [`engagement_curve`] over frame columns — the kernel-routed hot path.
/// The §3.2 confounder filter is the frame's precomputed packed bitmask
/// ([`SessionFrame::ref_row_mask`]) and the bin/accumulate pass is the
/// branchless [`kernels::masked_binned_sum_count`], which streams the sweep
/// and engagement columns once with no per-row branch. The kernel feeds one
/// running-sum accumulator per bin in row order — the exact addition
/// sequence of the record walk — so the curve is bit-identical to
/// [`engagement_curve`] (asserted by the parity suite). The scan is
/// sequential, so the result does not depend on any worker count.
pub fn engagement_curve_frame(
    frame: &SessionFrame,
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<BinnedCurve, AnalyticsError> {
    let binner = engagement_sums_frame(frame, sweep, engagement, bins)?;
    Ok(binner.curve_mean(min_count).normalized_to_max(100.0))
}

/// The accumulation stage of [`engagement_curve_frame`]: the Fig. 1 sweep's
/// per-bin running sums, produced by the branchless kernel and adopted into
/// the compressed [`SumBinner`] the incremental curve view carries —
/// identical state to recording every selected row in row order.
pub(crate) fn engagement_sums_frame(
    frame: &SessionFrame,
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    bins: usize,
) -> Result<SumBinner, AnalyticsError> {
    let spec = sweep_spec(sweep, bins)?;
    let acc = kernels::masked_binned_sum_count(
        frame.net_mean(sweep),
        frame.engagement(engagement),
        frame.ref_row_mask(sweep),
        spec,
    );
    Ok(SumBinner::from_parts(
        spec,
        acc.sums,
        acc.counts,
        acc.dropped,
    ))
}

/// The Fig. 1 accumulator fed raw session records instead of frame rows —
/// the dataset entry point's walk and the O(delta) append path, which lets
/// a commit advance the curve view without materialising the successor
/// frame. A record's frame row stores its values verbatim
/// ([`SessionFrame`]'s `push`) and the reference mask mirrors
/// [`in_reference_except`], so recording records in order produces the
/// same observation sequence a row walk over the materialised rows would.
pub(crate) fn record_curve_sums_records(
    sessions: &[SessionRecord],
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    binner: &mut SumBinner,
) {
    for s in sessions {
        if in_reference_except(s, sweep) {
            binner.record(s.network_mean(sweep), s.engagement(engagement));
        }
    }
}

/// Same curve computed over session P95s instead of means (the paper notes
/// "similar trends hold for P95 values as well").
pub fn engagement_curve_p95(
    dataset: &CallDataset,
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<BinnedCurve, AnalyticsError> {
    let (lo, hi) = sweep.sweep_range();
    // P95s run higher than means; stretch the axis.
    let spec = BinSpec::new(lo, hi * 1.8, bins)?;
    let mut binner = Binner::new(spec);
    for s in &dataset.sessions {
        if in_reference_except(s, sweep) {
            binner.record(s.network_p95(sweep), s.engagement(engagement));
        }
    }
    Ok(binner.curve_mean(min_count).normalized_to_max(100.0))
}

/// A 2-D grid of mean engagement over two network metrics (Fig. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid2d {
    /// X-axis bin spec (e.g. latency).
    pub x: BinSpec,
    /// Y-axis bin spec (e.g. loss).
    pub y: BinSpec,
    /// `values[yi][xi]`: mean engagement, `None` for thin cells. Normalised
    /// so the best populated cell reads 100.
    pub values: Vec<Vec<Option<f64>>>,
    /// Per-cell observation counts.
    pub counts: Vec<Vec<usize>>,
}

impl Grid2d {
    /// The minimum populated cell value.
    pub fn min_value(&self) -> Option<f64> {
        self.values
            .iter()
            .flatten()
            .flatten()
            .cloned()
            .reduce(f64::min)
    }

    /// The maximum populated cell value (100 after normalisation).
    pub fn max_value(&self) -> Option<f64> {
        self.values
            .iter()
            .flatten()
            .flatten()
            .cloned()
            .reduce(f64::max)
    }

    /// Value of the cell containing `(x, y)`.
    pub fn value_at(&self, x: f64, y: f64) -> Option<f64> {
        let xi = self.x.index(x)?;
        let yi = self.y.index(y)?;
        self.values[yi][xi]
    }
}

/// Fig. 2: the latency × loss compounding grid on Presence. Loss axis runs
/// to 3 % (beyond the Fig. 1b sweep) because that is where the compounding
/// bites. Unlike the Fig. 1 sweeps, the grid does *not* hold the remaining
/// metrics at reference — the paper's Fig. 2 bins all calls by the two
/// metrics of interest, and restricting jitter/bandwidth too would starve
/// the rare high-latency × high-loss corner of data.
///
/// The record walk the incremental grid view advances with
/// (`record_grid_sums_records`), finished by the shared
/// `grid_from_sums`.
pub fn compounding_grid(
    dataset: &CallDataset,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<Grid2d, AnalyticsError> {
    let (x, y) = grid_specs(bins)?;
    let mut sums = vec![0.0f64; bins * bins];
    let mut counts = vec![0usize; bins * bins];
    record_grid_sums_records(
        &dataset.sessions,
        engagement,
        x,
        y,
        bins,
        &mut sums,
        &mut counts,
    );
    Ok(grid_from_sums(x, y, bins, &sums, &counts, min_count))
}

/// [`compounding_grid`] over frame columns — the kernel-routed hot path:
/// the branchless [`kernels::grid_sum_count`] streams the latency, loss,
/// and engagement columns once, scattering masked running sums onto the
/// flat cell grid in row order — the record walk's exact accumulation
/// order, so the grid is bit-identical to [`compounding_grid`].
/// Sequential, so independent of any worker count.
pub fn compounding_grid_frame(
    frame: &SessionFrame,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<Grid2d, AnalyticsError> {
    let (x, y, sums, counts) = grid_sums_frame(frame, engagement, bins)?;
    Ok(grid_from_sums(x, y, bins, &sums, &counts, min_count))
}

/// The Fig. 2 axis specs: latency ms × loss %.
pub(crate) fn grid_specs(bins: usize) -> Result<(BinSpec, BinSpec), AnalyticsError> {
    Ok((
        BinSpec::new(0.0, 300.0, bins)?,
        BinSpec::new(0.0, 3.0, bins)?,
    ))
}

/// The accumulation stage of [`compounding_grid_frame`]: the flat per-cell
/// `(sum, count)` accumulators (`yi * bins + xi`), produced by the
/// branchless kernel in row order — identical state to recording every
/// in-range row sequentially, which is what the incremental grid view
/// carries across epochs.
pub(crate) fn grid_sums_frame(
    frame: &SessionFrame,
    engagement: EngagementMetric,
    bins: usize,
) -> Result<(BinSpec, BinSpec, Vec<f64>, Vec<usize>), AnalyticsError> {
    let (x, y) = grid_specs(bins)?;
    let (sums, counts) = kernels::grid_sum_count(
        frame.net_mean(NetworkMetric::LatencyMs),
        frame.net_mean(NetworkMetric::LossPct),
        frame.engagement(engagement),
        x,
        y,
    );
    Ok((x, y, sums, counts))
}

/// The Fig. 2 accumulators fed raw session records — the dataset entry
/// point's walk and the O(delta) append path. The cell index comes from
/// the same per-record reads the frame columns store verbatim, so the
/// accumulation sequence matches a row walk over the materialised rows.
pub(crate) fn record_grid_sums_records(
    sessions: &[SessionRecord],
    engagement: EngagementMetric,
    x: BinSpec,
    y: BinSpec,
    bins: usize,
    sums: &mut [f64],
    counts: &mut [usize],
) {
    for s in sessions {
        let (Some(xi), Some(yi)) = (
            x.index(s.network_mean(NetworkMetric::LatencyMs)),
            y.index(s.network_mean(NetworkMetric::LossPct)),
        ) else {
            continue;
        };
        sums[yi * bins + xi] += s.engagement(engagement);
        counts[yi * bins + xi] += 1;
    }
}

/// The Fig. 2 finishing pass over flat `(sum, count)` accumulators
/// (`yi * bins + xi`) — shared by the record walk, the kernel scan and the
/// incremental grid view: thin-cell suppression and best-cell = 100
/// normalisation.
pub(crate) fn grid_from_sums(
    x: BinSpec,
    y: BinSpec,
    bins: usize,
    sums: &[f64],
    counts: &[usize],
    min_count: usize,
) -> Grid2d {
    let mut values: Vec<Vec<Option<f64>>> = sums
        .chunks(bins)
        .zip(counts.chunks(bins))
        .map(|(row_s, row_c)| {
            row_s
                .iter()
                .zip(row_c)
                .map(|(s, c)| {
                    if *c >= min_count.max(1) {
                        Some(s / *c as f64)
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    // Normalise to the best cell = 100.
    let max = values
        .iter()
        .flatten()
        .flatten()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    if max.is_finite() && max > 0.0 {
        for row in values.iter_mut() {
            for v in row.iter_mut() {
                if let Some(v) = v.as_mut() {
                    *v = *v / max * 100.0;
                }
            }
        }
    }
    Grid2d {
        x,
        y,
        values,
        counts: counts.chunks(bins).map(<[usize]>::to_vec).collect(),
    }
}

/// Fig. 3: per-platform engagement-vs-loss curves (normalised jointly so
/// platform gaps survive normalisation: each curve is scaled by the global
/// best bin across platforms).
///
/// The record walk the incremental platform view advances with
/// (`record_platform_sums_records`), finished by the shared
/// `platform_curves_from_sums`.
pub fn platform_curves(
    dataset: &CallDataset,
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<Vec<(Platform, BinnedCurve)>, AnalyticsError> {
    let mut binners = vec![SumBinner::new(sweep_spec(sweep, bins)?); Platform::ALL.len()];
    record_platform_sums_records(&dataset.sessions, sweep, engagement, &mut binners);
    Ok(platform_curves_from_sums(&binners, min_count))
}

/// [`platform_curves`] over frame columns — the kernel-routed hot path:
/// the branchless [`kernels::masked_slot_binned_sum_count`] scatters masked
/// running sums onto one flat accumulator row per `Platform::ALL` slot in
/// row order, then the same joint normalisation as the record walk
/// finishes — bit-identical output. Sequential, so independent of any
/// worker count.
pub fn platform_curves_frame(
    frame: &SessionFrame,
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<Vec<(Platform, BinnedCurve)>, AnalyticsError> {
    let binners = platform_sums_frame(frame, sweep, engagement, bins)?;
    Ok(platform_curves_from_sums(&binners, min_count))
}

/// The accumulation stage of [`platform_curves_frame`]: one compressed
/// [`SumBinner`] per `Platform::ALL` slot, produced by the branchless slot
/// kernel — identical state to recording each platform's selected rows in
/// row order, which is what the incremental platform view carries.
pub(crate) fn platform_sums_frame(
    frame: &SessionFrame,
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    bins: usize,
) -> Result<Vec<SumBinner>, AnalyticsError> {
    let spec = sweep_spec(sweep, bins)?;
    let slots = Platform::ALL.len();
    let (sums, counts, dropped) = kernels::masked_slot_binned_sum_count(
        frame.net_mean(sweep),
        frame.engagement(engagement),
        frame.platform_slots(),
        slots,
        frame.ref_row_mask(sweep),
        spec,
    );
    Ok((0..slots)
        .map(|s| {
            SumBinner::from_parts(
                spec,
                sums[s * bins..(s + 1) * bins].to_vec(),
                counts[s * bins..(s + 1) * bins].to_vec(),
                dropped[s],
            )
        })
        .collect())
}

/// The Fig. 3 accumulators fed raw session records — the dataset entry
/// point's walk and the O(delta) append path, same reference-filter and
/// platform-slot logic as the columnar scan.
pub(crate) fn record_platform_sums_records(
    sessions: &[SessionRecord],
    sweep: NetworkMetric,
    engagement: EngagementMetric,
    binners: &mut [SumBinner],
) {
    for s in sessions {
        if !in_reference_except(s, sweep) {
            continue;
        }
        if let Some(slot) = Platform::ALL.iter().position(|p| *p == s.platform) {
            binners[slot].record(s.network_mean(sweep), s.engagement(engagement));
        }
    }
}

/// The Fig. 3 finishing pass over per-platform accumulators — shared by
/// the record walk, the kernel scan and the incremental platform view:
/// per-platform mean curves, then joint normalisation (every curve scaled
/// by the global best bin across platforms, so platform gaps survive).
pub(crate) fn platform_curves_from_sums(
    binners: &[SumBinner],
    min_count: usize,
) -> Vec<(Platform, BinnedCurve)> {
    let raw: Vec<(Platform, BinnedCurve)> = Platform::ALL
        .iter()
        .zip(binners)
        .map(|(p, b)| (*p, b.curve_mean(min_count)))
        .collect();
    let global_max = raw
        .iter()
        .flat_map(|(_, c)| c.ys.iter().flatten().cloned())
        .fold(f64::NEG_INFINITY, f64::max);
    if !global_max.is_finite() || global_max <= 0.0 {
        return raw;
    }
    raw.into_iter()
        .map(|(p, c)| {
            let ys =
                c.ys.iter()
                    .map(|y| y.map(|y| y / global_max * 100.0))
                    .collect();
            (
                p,
                BinnedCurve {
                    xs: c.xs,
                    ys,
                    counts: c.counts,
                },
            )
        })
        .collect()
}

/// §3.2 text: early drop-off probability vs loss, swept beyond 3 %.
pub fn dropoff_by_loss(
    dataset: &CallDataset,
    bins: usize,
    min_count: usize,
) -> Result<BinnedCurve, AnalyticsError> {
    let spec = BinSpec::new(0.0, 5.0, bins)?;
    let mut binner = Binner::new(spec);
    for s in &dataset.sessions {
        if in_reference_except(s, NetworkMetric::LossPct) {
            binner.record(
                s.network_mean(NetworkMetric::LossPct),
                if s.left_early { 100.0 } else { 0.0 },
            );
        }
    }
    Ok(binner.curve_mean(min_count))
}

/// §3.2 causality check: mean latency binned by Cam On. If camera video
/// congested the network, this curve would rise; in our generator (and the
/// paper's data) it does not.
pub fn latency_by_cam_on(
    dataset: &CallDataset,
    bins: usize,
    min_count: usize,
) -> Result<BinnedCurve, AnalyticsError> {
    let spec = BinSpec::new(0.0, 100.0, bins)?;
    let mut binner = Binner::new(spec);
    for s in &dataset.sessions {
        binner.record(s.cam_on_pct, s.net.latency_ms.mean);
    }
    Ok(binner.curve_mean(min_count))
}

/// Walk `sessions` in order and, for every rated one, append its rating
/// to `ratings` and hand the record to `row` — the rated-sliver record
/// walk behind the Fig. 4 and §5 dataset entry points and the MOS and
/// predictor views' O(delta) advance.
pub(crate) fn extend_rated(
    sessions: &[SessionRecord],
    ratings: &mut Vec<f64>,
    mut row: impl FnMut(&SessionRecord),
) {
    for s in sessions {
        if let Some(r) = s.rating {
            ratings.push(f64::from(r));
            row(s);
        }
    }
}

/// [`extend_rated`] collecting every engagement metric: `eng[k]` gains
/// `EngagementMetric::ALL[k]`'s value of each rated session.
pub(crate) fn extend_rated_engagement(
    sessions: &[SessionRecord],
    ratings: &mut Vec<f64>,
    eng: &mut [Vec<f64>],
) {
    extend_rated(sessions, ratings, |s| {
        for (col, &m) in eng.iter_mut().zip(EngagementMetric::ALL.iter()) {
            col.push(s.engagement(m));
        }
    });
}

/// Fig. 4: mean rating binned by an engagement metric (x normalised 0–100).
pub fn mos_by_engagement(
    dataset: &CallDataset,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<BinnedCurve, AnalyticsError> {
    let (mut eng, mut ratings) = (Vec::new(), Vec::new());
    extend_rated(&dataset.sessions, &mut ratings, |s| {
        eng.push(s.engagement(engagement));
    });
    mos_curve_from_vals(&eng, &ratings, bins, min_count)
}

/// Fig. 4 ranking: Pearson correlation between each engagement metric and
/// the rating, over rated sessions. Sorted strongest-first.
pub fn mos_correlations(
    dataset: &CallDataset,
) -> Result<Vec<(EngagementMetric, f64)>, AnalyticsError> {
    let mut eng = vec![Vec::new(); EngagementMetric::ALL.len()];
    let mut ratings = Vec::new();
    extend_rated_engagement(&dataset.sessions, &mut ratings, &mut eng);
    mos_correlations_vals(&eng, &ratings)
}

/// [`mos_by_engagement`] over frame columns: the rated rows' engagement
/// and ratings are gathered from dense columns in session order — the same
/// observation sequence as the record walk, so the curve is bit-identical.
/// The rated sliver is orders of magnitude smaller than the dataset, so
/// this stays single-threaded.
pub fn mos_by_engagement_frame(
    frame: &SessionFrame,
    engagement: EngagementMetric,
    bins: usize,
    min_count: usize,
) -> Result<BinnedCurve, AnalyticsError> {
    let rated = frame.rated_indices();
    let eng = kernels::gather(frame.engagement(engagement), rated);
    mos_curve_from_vals(&eng, &gather_ratings(frame, rated), bins, min_count)
}

/// Fig. 4 curve from pre-gathered rated-row values (engagement and rating
/// vectors in rated-row order) — the finishing pass every path shares.
pub(crate) fn mos_curve_from_vals(
    eng: &[f64],
    ratings: &[f64],
    bins: usize,
    min_count: usize,
) -> Result<BinnedCurve, AnalyticsError> {
    let spec = BinSpec::new(0.0, 100.0, bins)?;
    let mut binner = Binner::new(spec);
    for (&x, &r) in eng.iter().zip(ratings) {
        binner.record(x, r);
    }
    Ok(binner.curve_mean(min_count))
}

/// Gather rated rows' ratings as `f64` in rated-row order.
pub(crate) fn gather_ratings(frame: &SessionFrame, rated: &[usize]) -> Vec<f64> {
    rated
        .iter()
        .map(|&i| f64::from(frame.rating()[i].expect("rated index carries a rating")))
        .collect()
}

/// [`mos_correlations`] over frame columns: the rated engagement vectors are
/// gathered from dense columns in session order, so every Pearson input —
/// and the ranking — is bit-identical to the record walk.
pub fn mos_correlations_frame(
    frame: &SessionFrame,
) -> Result<Vec<(EngagementMetric, f64)>, AnalyticsError> {
    let rated = frame.rated_indices();
    let eng: Vec<Vec<f64>> = EngagementMetric::ALL
        .iter()
        .map(|&m| kernels::gather(frame.engagement(m), rated))
        .collect();
    mos_correlations_vals(&eng, &gather_ratings(frame, rated))
}

/// Fig. 4 ranking from pre-gathered rated-row values: `eng[k]` holds
/// `EngagementMetric::ALL[k]`'s values in rated-row order — the finishing
/// pass every path shares.
pub(crate) fn mos_correlations_vals(
    eng: &[Vec<f64>],
    ratings: &[f64],
) -> Result<Vec<(EngagementMetric, f64)>, AnalyticsError> {
    if ratings.len() < 2 {
        return Err(AnalyticsError::Empty);
    }
    let mut out = Vec::new();
    for (k, &metric) in EngagementMetric::ALL.iter().enumerate() {
        out.push((metric, pearson(&eng[k], ratings)?));
    }
    out.sort_by(|a, b| analytics::desc_nan_last(a.1, b.1));
    Ok(out)
}

/// §6 confounder comparison: effect sizes (max presence gap, in points of
/// normalised presence) attributable to network vs platform vs meeting size
/// vs conditioning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfounderReport {
    /// Presence swing across the latency sweep (network effect).
    pub network_effect: f64,
    /// Presence gap between most and least sensitive platform under
    /// degraded conditions.
    pub platform_effect: f64,
    /// Presence gap between small and large meetings under degraded
    /// conditions.
    pub meeting_size_effect: f64,
    /// Presence gap between conditioned and unconditioned users under
    /// degraded conditions.
    pub conditioning_effect: f64,
}

fn mean_presence<'a>(sessions: impl Iterator<Item = &'a SessionRecord>) -> Option<f64> {
    let xs: Vec<f64> = sessions.map(|s| s.presence_pct).collect();
    analytics::mean(&xs).ok()
}

/// Compute the §6 effect-size comparison. "Degraded" means mean latency
/// above 120 ms (with loss/jitter/bandwidth unconstrained, to keep strata
/// populated).
pub fn confounder_report(dataset: &CallDataset) -> Result<ConfounderReport, AnalyticsError> {
    let latency_curve = engagement_curve(
        dataset,
        NetworkMetric::LatencyMs,
        EngagementMetric::Presence,
        6,
        5,
    )?;
    let network_effect = match (latency_curve.first_y(), latency_curve.last_y()) {
        (Some(a), Some(b)) => (a - b).abs(),
        _ => return Err(AnalyticsError::Empty),
    };
    let degraded = |s: &&SessionRecord| s.network_mean(NetworkMetric::LatencyMs) > 120.0;

    let mut platform_means = Vec::new();
    for p in Platform::ALL {
        if let Some(m) = mean_presence(
            dataset
                .sessions
                .iter()
                .filter(degraded)
                .filter(|s| s.platform == p),
        ) {
            platform_means.push(m);
        }
    }
    let platform_effect = platform_means
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        - platform_means.iter().cloned().fold(f64::INFINITY, f64::min);

    let small = mean_presence(
        dataset
            .sessions
            .iter()
            .filter(degraded)
            .filter(|s| s.meeting_size <= 5),
    );
    let large = mean_presence(
        dataset
            .sessions
            .iter()
            .filter(degraded)
            .filter(|s| s.meeting_size >= 10),
    );
    let meeting_size_effect = match (small, large) {
        (Some(a), Some(b)) => (a - b).abs(),
        _ => 0.0,
    };

    let cond = mean_presence(
        dataset
            .sessions
            .iter()
            .filter(degraded)
            .filter(|s| s.conditioned),
    );
    let uncond = mean_presence(
        dataset
            .sessions
            .iter()
            .filter(degraded)
            .filter(|s| !s.conditioned),
    );
    let conditioning_effect = match (cond, uncond) {
        (Some(a), Some(b)) => (a - b).abs(),
        _ => 0.0,
    };

    Ok(ConfounderReport {
        network_effect,
        platform_effect: platform_effect.max(0.0),
        meeting_size_effect,
        conditioning_effect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use conference::dataset::{generate, DatasetConfig};
    use std::sync::OnceLock;

    /// A moderately-sized shared dataset (generation is the expensive part).
    fn dataset() -> &'static CallDataset {
        static DS: OnceLock<CallDataset> = OnceLock::new();
        DS.get_or_init(|| generate(&DatasetConfig::small(6000, 42)))
    }

    #[test]
    fn latency_curve_declines_mic_most() {
        let ds = dataset();
        let mic =
            engagement_curve(ds, NetworkMetric::LatencyMs, EngagementMetric::MicOn, 6, 8).unwrap();
        let presence = engagement_curve(
            ds,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            6,
            8,
        )
        .unwrap();
        let mic_drop = mic.first_y().unwrap() - mic.last_y().unwrap();
        let presence_drop = presence.first_y().unwrap() - presence.last_y().unwrap();
        assert!(mic_drop > 15.0, "mic drop {mic_drop}");
        assert!(presence_drop > 5.0, "presence drop {presence_drop}");
        assert!(mic_drop > presence_drop, "{mic_drop} vs {presence_drop}");
    }

    #[test]
    fn loss_curve_is_flat_below_two_percent() {
        let ds = dataset();
        // Four half-percent bins with a meaningful floor keep the thin
        // high-loss aggregates stable at this dataset size.
        for metric in EngagementMetric::ALL {
            let c = engagement_curve(ds, NetworkMetric::LossPct, metric, 4, 15).unwrap();
            let drop = c.first_y().unwrap() - c.last_y().unwrap();
            assert!(drop < 12.0, "{metric:?} dropped {drop} at 2% loss");
        }
    }

    #[test]
    fn compounding_grid_dips_hard() {
        let grid = compounding_grid(dataset(), EngagementMetric::Presence, 4, 5).unwrap();
        let max = grid.max_value().unwrap();
        let min = grid.min_value().unwrap();
        assert!((max - 100.0).abs() < 1e-9);
        assert!(min < 75.0, "compounding min {min}");
    }

    #[test]
    fn platform_curves_separate() {
        let curves = platform_curves(
            dataset(),
            NetworkMetric::LossPct,
            EngagementMetric::Presence,
            4,
            5,
        )
        .unwrap();
        assert_eq!(curves.len(), 4);
        // Every platform produced at least one populated bin.
        for (p, c) in &curves {
            assert!(!c.points().is_empty(), "{p:?} curve empty");
        }
    }

    #[test]
    fn mos_curve_increases_with_presence() {
        let c = mos_by_engagement(dataset(), EngagementMetric::Presence, 4, 3).unwrap();
        let pts = c.points();
        assert!(pts.len() >= 2, "need populated MOS bins, got {pts:?}");
        assert!(
            pts.last().unwrap().1 > pts.first().unwrap().1,
            "MOS should rise with presence: {pts:?}"
        );
    }

    #[test]
    fn mos_correlations_rank_presence_first() {
        let ranks = mos_correlations(dataset()).unwrap();
        assert_eq!(ranks.len(), 3);
        assert!(ranks.iter().all(|(_, c)| (-1.0..=1.0).contains(c)));
        assert_eq!(ranks[0].0, EngagementMetric::Presence, "{ranks:?}");
        assert!(ranks[0].1 > 0.1, "presence-MOS correlation {:?}", ranks[0]);
    }

    #[test]
    fn cam_on_does_not_raise_latency() {
        let c = latency_by_cam_on(dataset(), 5, 20).unwrap();
        let slope = c.slope_between(10.0, 90.0).unwrap();
        assert!(
            slope <= 0.05,
            "latency should not rise with CamOn, slope {slope}"
        );
    }

    #[test]
    fn confounder_report_orders_effects() {
        let r = confounder_report(dataset()).unwrap();
        assert!(r.network_effect > r.meeting_size_effect, "{r:?}");
        assert!(r.network_effect > r.conditioning_effect, "{r:?}");
        assert!(r.platform_effect > 0.0, "{r:?}");
    }

    #[test]
    fn reference_filter_behaviour() {
        let ds = dataset();
        let kept = ds
            .sessions
            .iter()
            .filter(|s| in_reference_except(s, NetworkMetric::LatencyMs))
            .count();
        assert!(kept > 0, "reference filter kept nothing");
        assert!(kept < ds.len(), "reference filter kept everything");
    }

    #[test]
    fn dropoff_rises_beyond_three_percent() {
        let c = dropoff_by_loss(dataset(), 5, 5).unwrap();
        let low = c.y_near(0.5).unwrap();
        if let Some(high) = c.y_near(4.5) {
            assert!(high > low, "drop-off {high} at high loss vs {low}");
        }
    }

    #[test]
    fn p95_trends_match_means() {
        let mean_curve = engagement_curve(
            dataset(),
            NetworkMetric::LatencyMs,
            EngagementMetric::MicOn,
            6,
            8,
        )
        .unwrap();
        let p95_curve = engagement_curve_p95(
            dataset(),
            NetworkMetric::LatencyMs,
            EngagementMetric::MicOn,
            6,
            8,
        )
        .unwrap();
        let mean_drop = mean_curve.first_y().unwrap() - mean_curve.last_y().unwrap();
        let p95_drop = p95_curve.first_y().unwrap() - p95_curve.last_y().unwrap();
        assert!(
            mean_drop > 0.0 && p95_drop > 0.0,
            "both aggregations decline"
        );
    }

    /// Regression for the correlation ranking sorts (`mos_correlations` and
    /// its frame twin): a NaN coefficient must sort after every real one
    /// and the result must not depend on where the NaN sat in the input —
    /// the old `partial_cmp(..).unwrap_or(Equal)` comparator was not a
    /// total order, so `sort_by` could leave a NaN anywhere.
    #[test]
    fn correlation_ranking_is_nan_safe() {
        let mut out: Vec<(EngagementMetric, f64)> = vec![
            (EngagementMetric::Presence, f64::NAN),
            (EngagementMetric::MicOn, 0.9),
            (EngagementMetric::CamOn, -0.2),
        ];
        out.sort_by(|a, b| analytics::desc_nan_last(a.1, b.1));
        assert_eq!(out[0].0, EngagementMetric::MicOn);
        assert_eq!(out[1].0, EngagementMetric::CamOn);
        assert!(out[2].1.is_nan());
        let mut rev: Vec<(EngagementMetric, f64)> = vec![
            (EngagementMetric::CamOn, -0.2),
            (EngagementMetric::Presence, f64::NAN),
            (EngagementMetric::MicOn, 0.9),
        ];
        rev.sort_by(|a, b| analytics::desc_nan_last(a.1, b.1));
        assert_eq!(
            out.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            rev.iter().map(|(m, _)| *m).collect::<Vec<_>>()
        );
    }
}

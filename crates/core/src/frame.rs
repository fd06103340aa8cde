//! Columnar session index — the struct-of-arrays mirror of a
//! [`CallDataset`].
//!
//! Every §3 analysis query used to re-walk `dataset.sessions` as an array
//! of full [`SessionRecord`] structs, paying a `network_mean()` /
//! `engagement()` match and a four-range confounder check per session per
//! query. At the paper's ~200 M-call scale that per-record walk is the
//! dominant cost. The [`SessionFrame`] materialises the hot fields **once**
//! per generation (on the first query that scans columns; the frame is
//! never persisted) into dense per-metric `Vec<f64>` columns plus a
//! precomputed reference-range bitmask, so the correlation engine streams
//! cache-friendly contiguous memory instead of striding through ~250-byte
//! records — and fans chunks of the columns out across scoped worker
//! threads.
//!
//! Column `i` always describes `dataset.sessions[i]`: the frame is built by
//! contiguous chunks concatenated in order, so frame-based aggregates visit
//! sessions in exactly the per-record order and their floating-point results
//! are bit-identical to the array-of-structs reference implementations
//! (asserted by the `frame_parity` suite).

use analytics::kernels::RowMask;
use analytics::par::par_map_ranges;
use analytics::time::Date;
use conference::platform::Platform;
use conference::records::{CallDataset, EngagementMetric, NetworkMetric, SessionRecord};
use netsim::access::AccessType;
use std::sync::OnceLock;

/// Column slot of a network metric.
pub const fn net_index(metric: NetworkMetric) -> usize {
    match metric {
        NetworkMetric::LatencyMs => 0,
        NetworkMetric::LossPct => 1,
        NetworkMetric::JitterMs => 2,
        NetworkMetric::BandwidthMbps => 3,
    }
}

/// Column slot of an engagement metric.
pub const fn eng_index(metric: EngagementMetric) -> usize {
    match metric {
        EngagementMetric::Presence => 0,
        EngagementMetric::MicOn => 1,
        EngagementMetric::CamOn => 2,
    }
}

/// Bitmask with every network metric's reference bit set.
const ALL_IN_REFERENCE: u8 = 0b1111;

/// Lazily-derived columns memoized on the frame. Everything here is a pure
/// function of the row columns, recomputed on first use after any mutation
/// (`push`/`append` replace the whole struct with a fresh one), so a cache
/// can never outlive the rows it was derived from. Cloning a frame clones
/// whatever was already materialised — still valid, same rows.
#[derive(Debug, Clone, Default)]
struct FrameCaches {
    /// Ascending indices of the rated sliver (the MOS/predictor queries'
    /// gather list).
    rated_indices: OnceLock<Vec<usize>>,
    /// Packed per-row §3.2 confounder masks, one per sweep metric — the
    /// filter the branchless kernels consume lane-wise.
    ref_masks: [OnceLock<RowMask>; 4],
    /// Per-row `Platform::ALL` slot, dense for the Fig. 3 slot kernel.
    platform_slots: OnceLock<Vec<u32>>,
}

/// Struct-of-arrays index over a call dataset: one dense column per
/// network-metric mean and P95, per engagement metric, plus the
/// platform/access/rating/date columns the service queries consume.
#[derive(Debug, Clone, Default)]
pub struct SessionFrame {
    len: usize,
    net_mean: [Vec<f64>; 4],
    net_p95: [Vec<f64>; 4],
    engagement: [Vec<f64>; 3],
    platform: Vec<Platform>,
    access: Vec<AccessType>,
    date: Vec<Date>,
    rating: Vec<Option<u8>>,
    /// Bit [`net_index`]`(m)` is set iff the session's mean of `m` lies in
    /// the paper's reference range — the §3.2 confounder filter reduced to
    /// one mask compare per session.
    ref_mask: Vec<u8>,
    /// Memoized derived columns; reset on every mutation.
    caches: FrameCaches,
}

impl SessionFrame {
    /// Materialise the frame from a dataset, building contiguous chunks on
    /// `workers` scoped threads. Column order always matches
    /// `dataset.sessions` order regardless of the worker count.
    pub fn from_dataset(dataset: &CallDataset, workers: usize) -> SessionFrame {
        let mut frame = SessionFrame::default();
        frame.extend_from_sessions(&dataset.sessions, workers);
        frame
    }

    /// Append `sessions` to every column — the incremental-ingest path.
    /// The delta columns are built in contiguous chunks on `workers`
    /// scoped threads and concatenated in order, and the existing columns
    /// are untouched, so extending a frame equals rebuilding it from the
    /// concatenated dataset (asserted by the frame tests) without paying
    /// the full re-materialisation.
    pub fn extend_from_sessions(&mut self, sessions: &[SessionRecord], workers: usize) {
        if sessions.is_empty() {
            return;
        }
        let parts = par_map_ranges(sessions.len(), workers, MIN_CHUNK_ELEMENTS, |range| {
            let mut part = SessionFrame::with_capacity(range.len());
            for s in &sessions[range] {
                part.push(s);
            }
            part
        });
        for part in parts {
            self.append(part);
        }
    }

    /// Empty frame with per-column capacity reserved.
    pub(crate) fn with_capacity(n: usize) -> SessionFrame {
        SessionFrame {
            len: 0,
            net_mean: std::array::from_fn(|_| Vec::with_capacity(n)),
            net_p95: std::array::from_fn(|_| Vec::with_capacity(n)),
            engagement: std::array::from_fn(|_| Vec::with_capacity(n)),
            platform: Vec::with_capacity(n),
            access: Vec::with_capacity(n),
            date: Vec::with_capacity(n),
            rating: Vec::with_capacity(n),
            ref_mask: Vec::with_capacity(n),
            caches: FrameCaches::default(),
        }
    }

    /// Append one session to every column.
    fn push(&mut self, s: &SessionRecord) {
        let mut mask = 0u8;
        for metric in NetworkMetric::ALL {
            let slot = net_index(metric);
            let mean = s.network_mean(metric);
            self.net_mean[slot].push(mean);
            self.net_p95[slot].push(s.network_p95(metric));
            let (lo, hi) = metric.reference_range();
            if mean >= lo && mean <= hi {
                mask |= 1 << slot;
            }
        }
        for metric in EngagementMetric::ALL {
            self.engagement[eng_index(metric)].push(s.engagement(metric));
        }
        self.platform.push(s.platform);
        self.access.push(s.access);
        self.date.push(s.date);
        self.rating.push(s.rating);
        self.ref_mask.push(mask);
        self.len += 1;
        self.caches = FrameCaches::default();
    }

    /// Concatenate another frame's columns after this one's.
    fn append(&mut self, other: SessionFrame) {
        for (mine, theirs) in self.net_mean.iter_mut().zip(other.net_mean) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.net_p95.iter_mut().zip(other.net_p95) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.engagement.iter_mut().zip(other.engagement) {
            mine.extend(theirs);
        }
        self.platform.extend(other.platform);
        self.access.extend(other.access);
        self.date.extend(other.date);
        self.rating.extend(other.rating);
        self.ref_mask.extend(other.ref_mask);
        self.len += other.len;
        self.caches = FrameCaches::default();
    }

    /// Number of sessions indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no sessions are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Session-mean column of one network metric.
    pub fn net_mean(&self, metric: NetworkMetric) -> &[f64] {
        &self.net_mean[net_index(metric)]
    }

    /// Session-P95 column of one network metric.
    pub fn net_p95(&self, metric: NetworkMetric) -> &[f64] {
        &self.net_p95[net_index(metric)]
    }

    /// Column of one engagement metric.
    pub fn engagement(&self, metric: EngagementMetric) -> &[f64] {
        &self.engagement[eng_index(metric)]
    }

    /// Platform column.
    pub fn platform(&self) -> &[Platform] {
        &self.platform
    }

    /// Access-technology column.
    pub fn access(&self) -> &[AccessType] {
        &self.access
    }

    /// Calendar-day column.
    pub fn date(&self) -> &[Date] {
        &self.date
    }

    /// Explicit-rating column (`None` for the unsampled majority).
    pub fn rating(&self) -> &[Option<u8>] {
        &self.rating
    }

    /// Whether session `i` sits in the reference range for every network
    /// metric except `sweep` — the §3.2 confounder filter as a single mask
    /// compare against the precomputed reference bits.
    #[inline]
    pub fn in_reference_except(&self, i: usize, sweep: NetworkMetric) -> bool {
        self.ref_mask[i] | (1 << net_index(sweep)) == ALL_IN_REFERENCE
    }

    /// Indices of the rated sessions, ascending. Memoized: the MOS and
    /// predictor queries gather against this list on every call, so the
    /// frame materialises it once per generation instead of re-scanning
    /// the rating column per query.
    pub fn rated_indices(&self) -> &[usize] {
        self.caches.rated_indices.get_or_init(|| {
            (0..self.len)
                .filter(|&i| self.rating[i].is_some())
                .collect()
        })
    }

    /// Packed §3.2 confounder bitmask for a sweep metric: bit `i` is set iff
    /// [`SessionFrame::in_reference_except`]`(i, sweep)`. Memoized per sweep
    /// metric; the branchless kernels consume it word-wise instead of
    /// re-evaluating the mask compare per row per query.
    pub fn ref_row_mask(&self, sweep: NetworkMetric) -> &RowMask {
        self.caches.ref_masks[net_index(sweep)]
            .get_or_init(|| RowMask::from_fn(self.len, |i| self.in_reference_except(i, sweep)))
    }

    /// Dense per-row platform slot (position in [`Platform::ALL`]), the
    /// Fig. 3 slot-binned kernel's slot column. Memoized.
    pub fn platform_slots(&self) -> &[u32] {
        self.caches.platform_slots.get_or_init(|| {
            self.platform
                .iter()
                .map(|p| {
                    Platform::ALL
                        .iter()
                        .position(|q| q == p)
                        .expect("Platform::ALL covers every variant") as u32
                })
                .collect()
        })
    }
}

/// Fewest elements a chunk must hold before a thread spawn pays for
/// itself; columnar work is tens of nanoseconds per element, so anything
/// smaller loses more to spawn/join than the fan-out wins.
const MIN_CHUNK_ELEMENTS: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use analytics::par::{chunk_ranges, par_map_on};
    use conference::dataset::{generate, DatasetConfig};
    use std::sync::OnceLock;

    fn dataset() -> &'static CallDataset {
        static DS: OnceLock<CallDataset> = OnceLock::new();
        DS.get_or_init(|| generate(&DatasetConfig::small(400, 77)))
    }

    #[test]
    fn columns_mirror_the_records() {
        let ds = dataset();
        let frame = SessionFrame::from_dataset(ds, 4);
        assert_eq!(frame.len(), ds.len());
        assert!(!frame.is_empty());
        for (i, s) in ds.sessions.iter().enumerate() {
            for m in NetworkMetric::ALL {
                assert_eq!(frame.net_mean(m)[i], s.network_mean(m));
                assert_eq!(frame.net_p95(m)[i], s.network_p95(m));
            }
            for m in EngagementMetric::ALL {
                assert_eq!(frame.engagement(m)[i], s.engagement(m));
            }
            assert_eq!(frame.platform()[i], s.platform);
            assert_eq!(frame.access()[i], s.access);
            assert_eq!(frame.date()[i], s.date);
            assert_eq!(frame.rating()[i], s.rating);
        }
    }

    #[test]
    fn reference_mask_matches_the_filter() {
        let ds = dataset();
        let frame = SessionFrame::from_dataset(ds, 3);
        for (i, s) in ds.sessions.iter().enumerate() {
            for sweep in NetworkMetric::ALL {
                assert_eq!(
                    frame.in_reference_except(i, sweep),
                    crate::correlate::in_reference_except(s, sweep),
                    "session {i} sweep {sweep:?}"
                );
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_columns() {
        let ds = dataset();
        let one = SessionFrame::from_dataset(ds, 1);
        let eight = SessionFrame::from_dataset(ds, 8);
        assert_eq!(one.len(), eight.len());
        for m in NetworkMetric::ALL {
            assert_eq!(one.net_mean(m), eight.net_mean(m));
            assert_eq!(one.net_p95(m), eight.net_p95(m));
        }
        for m in EngagementMetric::ALL {
            assert_eq!(one.engagement(m), eight.engagement(m));
        }
        assert_eq!(one.rated_indices(), eight.rated_indices());
    }

    #[test]
    fn extending_a_frame_equals_rebuilding_it() {
        let ds = dataset();
        let split = ds.len() / 3;
        let mut incremental = SessionFrame::default();
        incremental.extend_from_sessions(&ds.sessions[..split], 4);
        incremental.extend_from_sessions(&ds.sessions[split..], 4);
        incremental.extend_from_sessions(&[], 4);
        let rebuilt = SessionFrame::from_dataset(ds, 4);
        assert_eq!(incremental.len(), rebuilt.len());
        for m in NetworkMetric::ALL {
            assert_eq!(incremental.net_mean(m), rebuilt.net_mean(m));
            assert_eq!(incremental.net_p95(m), rebuilt.net_p95(m));
        }
        for m in EngagementMetric::ALL {
            assert_eq!(incremental.engagement(m), rebuilt.engagement(m));
        }
        assert_eq!(incremental.platform(), rebuilt.platform());
        assert_eq!(incremental.access(), rebuilt.access());
        assert_eq!(incremental.date(), rebuilt.date());
        assert_eq!(incremental.rating(), rebuilt.rating());
        assert_eq!(incremental.rated_indices(), rebuilt.rated_indices());
    }

    #[test]
    fn empty_dataset_yields_empty_frame() {
        let frame = SessionFrame::from_dataset(&CallDataset::default(), 4);
        assert_eq!(frame.len(), 0);
        assert!(frame.is_empty());
        assert!(frame.rated_indices().is_empty());
        assert!(frame.net_mean(NetworkMetric::LatencyMs).is_empty());
    }

    #[test]
    fn adaptive_split_is_bit_identical_to_forced_chunks() {
        // The policy only changes how many chunks run, never what they
        // compute: frame columns built through the adaptive path equal a
        // forced multi-chunk build element-for-element.
        let ds = dataset();
        let adaptive = SessionFrame::from_dataset(ds, 4);
        let mut forced = SessionFrame::default();
        let parts = par_map_on(chunk_ranges(ds.len(), 4), |range| {
            let mut part = SessionFrame::with_capacity(range.len());
            for s in &ds.sessions[range] {
                part.push(s);
            }
            part
        });
        for part in parts {
            forced.append(part);
        }
        assert_eq!(adaptive.len(), forced.len());
        for m in NetworkMetric::ALL {
            assert_eq!(adaptive.net_mean(m), forced.net_mean(m));
            assert_eq!(adaptive.net_p95(m), forced.net_p95(m));
        }
        for m in EngagementMetric::ALL {
            assert_eq!(adaptive.engagement(m), forced.engagement(m));
        }
        assert_eq!(adaptive.rating(), forced.rating());
        assert_eq!(adaptive.ref_mask, forced.ref_mask);
    }
}

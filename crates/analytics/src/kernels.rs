//! Branchless, SIMD-shaped columnar kernels.
//!
//! Every §3 figure is ultimately a masked aggregate over flat `f64`
//! columns: *filter* rows by a predicate (the reference-confounder mask, an
//! access-type selection, a bin-range check), then *accumulate* the
//! survivors. The straightforward row loop pays a data-dependent branch per
//! row, which the predicates make effectively random — the branch predictor
//! misses constantly and the loop cannot be vectorised. The kernels here
//! replace every per-row `if` with **predication**: the selection bit is
//! widened to an all-ones/all-zeros word and ANDed into the operand's bits
//! (`f64::from_bits(v.to_bits() & (sel as u64).wrapping_neg())`), so
//! masked-out rows contribute the operation's identity (`+0.0` for sums,
//! `±∞` for min/max, `0` for counts) and the loop body becomes straight-line
//! code LLVM can unroll and auto-vectorise.
//!
//! # Bit-identity rules
//!
//! The workspace's signature invariant is that every aggregate is
//! bit-identical across worker counts and across code paths, so the kernels
//! obey the same discipline the `SumBinner` views established:
//!
//! * **Sum-bearing kernels keep a single accumulator fed in row order.**
//!   Floating-point addition is not associative, so a multi-lane sum would
//!   diverge from the sequential left fold the reference paths perform. The
//!   masked add is safe because the identity contribution is a bitwise
//!   no-op: an accumulator that starts at `+0.0` can never become `-0.0`
//!   (`a + b` is `-0.0` only when both operands are), `x + 0.0` preserves
//!   `x`'s bits for every other `x`, and a masked-out `NaN`'s bits are
//!   zeroed before the add. The unit tests keep a branchy `_ref` twin of
//!   each kernel (the left fold a per-row `if` performs) and assert
//!   bit-equality via `to_bits` on arbitrary columns.
//! * **Order-insensitive kernels may lane-unroll.** Counts are integer
//!   adds (associative), and min/max over canonicalised values (zeros
//!   normalised to `+0.0` by adding `0.0`, `NaN`s dropped by the predicated
//!   compare) is associative and commutative with bit-identical ties, so
//!   these kernels run `LANES` independent accumulators per block and
//!   combine them in fixed lane order.
//!
//! Because every kernel is sequential over the column, results are
//! trivially independent of any worker count — the routed paths and the
//! view rebuilds take no `workers` knob.

use crate::binning::BinSpec;

/// Accumulator lanes for the order-insensitive kernels. Wide enough to
/// cover a 512-bit vector of `f64`, small enough that the fixed-order
/// combine stays negligible.
const LANES: usize = 8;

/// An all-ones (`sel = 1`) or all-zeros (`sel = 0`) `u64` — the predication
/// widen.
#[inline(always)]
fn widen(sel: u64) -> u64 {
    sel.wrapping_neg()
}

/// `v` where `sel = 1`, `+0.0` where `sel = 0`, without a branch.
#[inline(always)]
fn select_or_zero(v: f64, sel: u64) -> f64 {
    f64::from_bits(v.to_bits() & widen(sel))
}

/// `v` where `sel = 1`, `fill` where `sel = 0`, without a branch.
#[inline(always)]
fn select_or(v: f64, fill: f64, sel: u64) -> f64 {
    let m = widen(sel);
    f64::from_bits((v.to_bits() & m) | (fill.to_bits() & !m))
}

/// A packed per-row selection bitmask: bit `i` of word `i / 64` is set iff
/// row `i` is selected. The §3 reference-confounder filter compiles to one
/// of these per sweep metric (see `SessionFrame::ref_row_mask` in the
/// `usaas` crate), so the kernels consume the filter lane-wise — 64 rows'
/// predicates per `u64` load — instead of re-deriving it per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    words: Vec<u64>,
    len: usize,
}

impl RowMask {
    /// Build a mask of `len` rows from a per-row predicate. Tail bits past
    /// `len` are zero, so word-wise population counts are exact.
    pub fn from_fn(len: usize, mut selected: impl FnMut(usize) -> bool) -> RowMask {
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in 0..len {
            words[i / 64] |= u64::from(selected(i)) << (i % 64);
        }
        RowMask { words, len }
    }

    /// Number of rows covered (selected or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether row `i` is selected.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The packed word holding rows `w * 64 ..`, zero-padded past the end.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Number of selected rows — a lane-unrolled population count (integer
    /// adds are associative, so the block order is free).
    pub fn count(&self) -> usize {
        let mut lanes = [0u64; LANES];
        for block in self.words.chunks(LANES) {
            for (lane, w) in lanes.iter_mut().zip(block) {
                *lane += u64::from(w.count_ones());
            }
        }
        lanes.iter().sum::<u64>() as usize
    }
}

/// Masked sum: the total of `values[i]` over selected rows, accumulated in
/// row order (see the module docs for why the single accumulator is
/// mandatory). Branchless: masked-out rows add `+0.0`, a bitwise no-op.
pub fn masked_sum(values: &[f64], mask: &RowMask) -> f64 {
    assert_eq!(values.len(), mask.len(), "mask must cover every row");
    let mut acc = 0.0f64;
    for (w, block) in values.chunks(64).enumerate() {
        let word = mask.word(w);
        for (j, &v) in block.iter().enumerate() {
            acc += select_or_zero(v, (word >> j) & 1);
        }
    }
    acc
}

/// Masked mean over selected rows: [`masked_sum`] divided by the selected
/// count, `None` when nothing is selected. The division is the same final
/// step `descriptive::mean` performs, so the result is bit-identical to
/// filtering the rows into a `Vec` and calling it.
pub fn masked_mean(values: &[f64], mask: &RowMask) -> Option<f64> {
    let n = mask.count();
    if n == 0 {
        return None;
    }
    Some(masked_sum(values, mask) / n as f64)
}

/// Masked min/max over selected non-`NaN` rows, zeros canonicalised to
/// `+0.0`; `None` when no such row exists. Lane-unrolled: min/max over
/// canonical values is associative and commutative with bit-identical
/// ties, so the `LANES` accumulators combine in fixed lane order without
/// affecting the result.
pub fn masked_min_max(values: &[f64], mask: &RowMask) -> Option<(f64, f64)> {
    assert_eq!(values.len(), mask.len(), "mask must cover every row");
    let mut mins = [f64::INFINITY; LANES];
    let mut maxs = [f64::NEG_INFINITY; LANES];
    let mut seen = [0u64; LANES];
    let mut i = 0usize;
    while i < values.len() {
        let lane = i % LANES;
        // Canonicalise (`-0.0 + 0.0 = +0.0`) so equal values carry equal
        // bits and tie order cannot matter.
        let v = values[i] + 0.0;
        let sel = u64::from(mask.get(i)) & u64::from(!v.is_nan());
        let lo = select_or(v, f64::INFINITY, sel);
        let hi = select_or(v, f64::NEG_INFINITY, sel);
        mins[lane] = if lo < mins[lane] { lo } else { mins[lane] };
        maxs[lane] = if hi > maxs[lane] { hi } else { maxs[lane] };
        seen[lane] += sel;
        i += 1;
    }
    if seen.iter().sum::<u64>() == 0 {
        return None;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for lane in 0..LANES {
        min = if mins[lane] < min { mins[lane] } else { min };
        max = if maxs[lane] > max { maxs[lane] } else { max };
    }
    Some((min, max))
}

/// Per-bin running `(sum, count)` accumulators plus the dropped-row count —
/// the state a `SumBinner` fed the same selected rows in the same order
/// would hold (`SumBinner::from_parts` adopts it directly).
#[derive(Debug, Clone, PartialEq)]
pub struct BinAccum {
    /// Per-bin running sums, in row order.
    pub sums: Vec<f64>,
    /// Per-bin observation counts.
    pub counts: Vec<usize>,
    /// Selected rows whose x fell outside the spec (`BinSpec::index` =
    /// `None`).
    pub dropped: usize,
}

/// Bin index of `x` under `spec`, assuming `x` is in range — the same
/// arithmetic as [`BinSpec::index`] without the range branch (the caller
/// folds the range check into the selection bit).
#[inline(always)]
fn raw_bin(spec: &BinSpec, x: f64) -> usize {
    let width = (spec.hi - spec.lo) / spec.bins as f64;
    // `as usize` saturates NaN/negative to 0 and huge to usize::MAX; the
    // clamp plus the caller's range bit make every out-of-range row a
    // masked no-op on bin 0 or bins-1.
    (((x - spec.lo) / width) as usize).min(spec.bins - 1)
}

/// Whether `x` lands in `spec`'s range (false for `NaN`), as a selection
/// bit.
#[inline(always)]
fn in_range_bit(spec: &BinSpec, x: f64) -> u64 {
    u64::from(x >= spec.lo) & u64::from(x <= spec.hi)
}

/// The Fig. 1 workhorse: bin `xs[i]` under `spec` and accumulate `ys[i]`
/// into that bin's running sum, over selected rows, in row order.
/// Branchless: the selection bit and the range bit combine into one
/// predicate, masked-out rows scatter `+0.0`/`+0` onto a clamped bin —
/// a bitwise no-op — and selected out-of-range rows bump `dropped`,
/// matching `Binner`/`SumBinner::record` exactly.
pub fn masked_binned_sum_count(xs: &[f64], ys: &[f64], mask: &RowMask, spec: BinSpec) -> BinAccum {
    assert_eq!(xs.len(), ys.len(), "x and y columns must align");
    assert_eq!(xs.len(), mask.len(), "mask must cover every row");
    let mut acc = BinAccum {
        sums: vec![0.0; spec.bins],
        counts: vec![0; spec.bins],
        dropped: 0,
    };
    for (w, block) in xs.chunks(64).enumerate() {
        let word = mask.word(w);
        let base = w * 64;
        for (j, &x) in block.iter().enumerate() {
            let bit = (word >> j) & 1;
            let in_range = in_range_bit(&spec, x);
            let sel = bit & in_range;
            let idx = raw_bin(&spec, x);
            acc.sums[idx] += select_or_zero(ys[base + j], sel);
            acc.counts[idx] += sel as usize;
            acc.dropped += (bit & (1 - in_range)) as usize;
        }
    }
    acc
}

/// The Fig. 2 workhorse: a two-axis binned accumulate — cell
/// `yi * x.bins + xi` gets `vs[i]`'s running sum when **both** axes are in
/// range (no confounder mask; Fig. 2 bins every call). Row order, single
/// accumulator per cell, branchless scatter.
pub fn grid_sum_count(
    xs: &[f64],
    ys: &[f64],
    vs: &[f64],
    x: BinSpec,
    y: BinSpec,
) -> (Vec<f64>, Vec<usize>) {
    assert_eq!(xs.len(), ys.len(), "axis columns must align");
    assert_eq!(xs.len(), vs.len(), "value column must align");
    let mut sums = vec![0.0; x.bins * y.bins];
    let mut counts = vec![0usize; x.bins * y.bins];
    for i in 0..xs.len() {
        let sel = in_range_bit(&x, xs[i]) & in_range_bit(&y, ys[i]);
        let cell = raw_bin(&y, ys[i]) * x.bins + raw_bin(&x, xs[i]);
        sums[cell] += select_or_zero(vs[i], sel);
        counts[cell] += sel as usize;
    }
    (sums, counts)
}

/// The Fig. 3 workhorse: [`masked_binned_sum_count`] partitioned by a
/// per-row slot (`slots[i] < slot_count`, e.g. the platform index), flat
/// cell `slot * spec.bins + bin`. Selected out-of-range rows bump their
/// slot's `dropped` — the same bookkeeping as one `SumBinner` per slot.
pub fn masked_slot_binned_sum_count(
    xs: &[f64],
    ys: &[f64],
    slots: &[u32],
    slot_count: usize,
    mask: &RowMask,
    spec: BinSpec,
) -> (Vec<f64>, Vec<usize>, Vec<usize>) {
    assert_eq!(xs.len(), ys.len(), "x and y columns must align");
    assert_eq!(xs.len(), slots.len(), "slot column must align");
    assert_eq!(xs.len(), mask.len(), "mask must cover every row");
    let mut sums = vec![0.0; slot_count * spec.bins];
    let mut counts = vec![0usize; slot_count * spec.bins];
    let mut dropped = vec![0usize; slot_count];
    for (w, block) in xs.chunks(64).enumerate() {
        let word = mask.word(w);
        let base = w * 64;
        for (j, &x) in block.iter().enumerate() {
            let bit = (word >> j) & 1;
            let in_range = in_range_bit(&spec, x);
            let sel = bit & in_range;
            let slot = slots[base + j] as usize;
            let cell = slot * spec.bins + raw_bin(&spec, x);
            sums[cell] += select_or_zero(ys[base + j], sel);
            counts[cell] += sel as usize;
            dropped[slot] += (bit & (1 - in_range)) as usize;
        }
    }
    (sums, counts, dropped)
}

/// Masked per-slot tally: `out[slots[i]] += 1` for every selected row —
/// the integer-count core of the §4 text tallies (strong-sentiment posts
/// per day, strong-negative posts per latitude band). Counts are integer
/// adds, so the accumulation is order-insensitive and the loop body is a
/// branchless scatter: the mask bit itself is the addend.
pub fn masked_slot_counts(slots: &[u32], slot_count: usize, mask: &RowMask) -> Vec<usize> {
    assert_eq!(slots.len(), mask.len(), "mask must cover every row");
    let mut counts = vec![0usize; slot_count];
    for (w, block) in slots.chunks(64).enumerate() {
        let word = mask.word(w);
        for (j, &slot) in block.iter().enumerate() {
            counts[slot as usize] += ((word >> j) & 1) as usize;
        }
    }
    counts
}

/// Indexed gather: `out[k] = values[idx[k]]`. A pure data movement — the
/// predictor's feature assembly gathers each column once instead of
/// striding row-wise, and the moved bits are untouched so downstream
/// arithmetic is bit-identical.
pub fn gather(values: &[f64], idx: &[usize]) -> Vec<f64> {
    idx.iter().map(|&i| values[i]).collect()
}

/// Count how many of `tokens` appear in the ascending, deduplicated
/// `sorted` id table — the ID-space keyword tally behind the §4 sentiment
/// demand scans. The membership test is a branchless binary search (the
/// compare drives a conditional move, not a jump) and the per-token hits
/// are integer adds, so the accumulation lane-unrolls freely.
pub fn count_members_u32(tokens: &[u32], sorted: &[u32]) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let mut lanes = [0usize; LANES];
    for block in tokens.chunks(LANES) {
        for (lane, &t) in lanes.iter_mut().zip(block) {
            let mut base = 0usize;
            let mut size = sorted.len();
            while size > 1 {
                let half = size / 2;
                let mid = base + half;
                base = if sorted[mid] <= t { mid } else { base };
                size -= half;
            }
            *lane += usize::from(sorted[base] == t);
        }
    }
    lanes.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The branchy sequential left fold [`masked_sum`] must match to the bit.
    fn masked_sum_ref(values: &[f64], mask: &RowMask) -> f64 {
        assert_eq!(values.len(), mask.len(), "mask must cover every row");
        let mut acc = 0.0f64;
        for (i, &v) in values.iter().enumerate() {
            if mask.get(i) {
                acc += v;
            }
        }
        acc
    }

    /// The branchy sequential reference for [`masked_min_max`]: same
    /// canonicalisation, same `NaN`-skipping, one row at a time.
    fn masked_min_max_ref(values: &[f64], mask: &RowMask) -> Option<(f64, f64)> {
        assert_eq!(values.len(), mask.len(), "mask must cover every row");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut seen = false;
        for (i, &raw) in values.iter().enumerate() {
            let v = raw + 0.0;
            if mask.get(i) && !v.is_nan() {
                seen = true;
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
            }
        }
        seen.then_some((min, max))
    }

    /// The branchy reference for [`masked_binned_sum_count`]: the literal
    /// `if selected { record(x, y) }` loop over a running-sum accumulator.
    fn masked_binned_sum_count_ref(
        xs: &[f64],
        ys: &[f64],
        mask: &RowMask,
        spec: BinSpec,
    ) -> BinAccum {
        assert_eq!(xs.len(), ys.len(), "x and y columns must align");
        assert_eq!(xs.len(), mask.len(), "mask must cover every row");
        let mut acc = BinAccum {
            sums: vec![0.0; spec.bins],
            counts: vec![0; spec.bins],
            dropped: 0,
        };
        for i in 0..xs.len() {
            if !mask.get(i) {
                continue;
            }
            match spec.index(xs[i]) {
                Some(idx) => {
                    acc.sums[idx] += ys[i];
                    acc.counts[idx] += 1;
                }
                None => acc.dropped += 1,
            }
        }
        acc
    }

    /// The branchy reference for [`grid_sum_count`].
    fn grid_sum_count_ref(
        xs: &[f64],
        ys: &[f64],
        vs: &[f64],
        x: BinSpec,
        y: BinSpec,
    ) -> (Vec<f64>, Vec<usize>) {
        assert_eq!(xs.len(), ys.len(), "axis columns must align");
        assert_eq!(xs.len(), vs.len(), "value column must align");
        let mut sums = vec![0.0; x.bins * y.bins];
        let mut counts = vec![0usize; x.bins * y.bins];
        for i in 0..xs.len() {
            let (Some(xi), Some(yi)) = (x.index(xs[i]), y.index(ys[i])) else {
                continue;
            };
            sums[yi * x.bins + xi] += vs[i];
            counts[yi * x.bins + xi] += 1;
        }
        (sums, counts)
    }

    /// The branchy reference for [`masked_slot_binned_sum_count`].
    fn masked_slot_binned_sum_count_ref(
        xs: &[f64],
        ys: &[f64],
        slots: &[u32],
        slot_count: usize,
        mask: &RowMask,
        spec: BinSpec,
    ) -> (Vec<f64>, Vec<usize>, Vec<usize>) {
        assert_eq!(xs.len(), ys.len(), "x and y columns must align");
        assert_eq!(xs.len(), slots.len(), "slot column must align");
        assert_eq!(xs.len(), mask.len(), "mask must cover every row");
        let mut sums = vec![0.0; slot_count * spec.bins];
        let mut counts = vec![0usize; slot_count * spec.bins];
        let mut dropped = vec![0usize; slot_count];
        for i in 0..xs.len() {
            if !mask.get(i) {
                continue;
            }
            let slot = slots[i] as usize;
            match spec.index(xs[i]) {
                Some(idx) => {
                    sums[slot * spec.bins + idx] += ys[i];
                    counts[slot * spec.bins + idx] += 1;
                }
                None => dropped[slot] += 1,
            }
        }
        (sums, counts, dropped)
    }

    /// The branchy reference for [`masked_slot_counts`].
    fn masked_slot_counts_ref(slots: &[u32], slot_count: usize, mask: &RowMask) -> Vec<usize> {
        assert_eq!(slots.len(), mask.len(), "mask must cover every row");
        let mut counts = vec![0usize; slot_count];
        for (i, &slot) in slots.iter().enumerate() {
            if mask.get(i) {
                counts[slot as usize] += 1;
            }
        }
        counts
    }

    /// The branchy reference for [`count_members_u32`].
    fn count_members_u32_ref(tokens: &[u32], sorted: &[u32]) -> usize {
        tokens
            .iter()
            .filter(|t| sorted.binary_search(t).is_ok())
            .count()
    }

    fn spec() -> BinSpec {
        BinSpec::new(0.0, 300.0, 6).unwrap()
    }

    /// Splice the ugly corners — NaN, infinities, signed zeros, the
    /// inclusive top edge — into a generated vector at seed-chosen
    /// positions, so every property also covers the non-finite paths.
    fn inject_specials(vals: &mut [f64], seed: u64) {
        const SPECIALS: [f64; 6] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            300.0, // the inclusive top edge of `spec()`
        ];
        if vals.is_empty() {
            return;
        }
        for (k, &s) in SPECIALS.iter().enumerate() {
            // Roughly one special of each kind per ~10 rows.
            let at = (seed.rotate_left(11 * k as u32) as usize) % (vals.len() * 4);
            if at < vals.len() {
                vals[at] = s;
            }
        }
    }

    fn mask_from_seed(len: usize, seed: u64) -> RowMask {
        RowMask::from_fn(len, |i| (seed.rotate_left(i as u32) ^ i as u64) & 1 == 1)
    }

    #[test]
    fn row_mask_packs_and_counts() {
        let mask = RowMask::from_fn(130, |i| i % 3 == 0);
        assert_eq!(mask.len(), 130);
        assert!(!mask.is_empty());
        for i in 0..130 {
            assert_eq!(mask.get(i), i % 3 == 0, "row {i}");
        }
        assert_eq!(mask.count(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(RowMask::from_fn(0, |_| true).is_empty());
        assert_eq!(RowMask::from_fn(0, |_| true).count(), 0);
        // Tail bits beyond len stay zero even when the predicate is true.
        let all = RowMask::from_fn(65, |_| true);
        assert_eq!(all.count(), 65);
        assert_eq!(all.word(1), 1);
    }

    #[test]
    fn empty_and_single_row_edges() {
        let empty = RowMask::from_fn(0, |_| true);
        assert_eq!(masked_sum(&[], &empty).to_bits(), 0.0f64.to_bits());
        assert_eq!(masked_min_max(&[], &empty), None);
        assert_eq!(masked_mean(&[], &empty), None);
        let one = RowMask::from_fn(1, |_| true);
        assert_eq!(masked_sum(&[2.5], &one), 2.5);
        assert_eq!(masked_min_max(&[2.5], &one), Some((2.5, 2.5)));
        let none = RowMask::from_fn(1, |_| false);
        assert_eq!(masked_sum(&[2.5], &none), 0.0);
        assert_eq!(masked_min_max(&[2.5], &none), None);
        // An all-NaN selection has no min/max.
        assert_eq!(masked_min_max(&[f64::NAN], &one), None);
    }

    proptest! {
        #[test]
        fn masked_sum_is_bit_identical_to_the_branchy_fold(
            raw in prop::collection::vec(-400.0f64..400.0, 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let mut vals = raw;
            inject_specials(&mut vals, seed);
            let mask = mask_from_seed(vals.len(), seed);
            prop_assert_eq!(
                masked_sum(&vals, &mask).to_bits(),
                masked_sum_ref(&vals, &mask).to_bits()
            );
        }

        #[test]
        fn masked_min_max_is_bit_identical(
            raw in prop::collection::vec(-400.0f64..400.0, 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let mut vals = raw;
            inject_specials(&mut vals, seed);
            let mask = mask_from_seed(vals.len(), seed);
            let a = masked_min_max(&vals, &mask);
            let b = masked_min_max_ref(&vals, &mask);
            prop_assert_eq!(
                a.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
                b.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
            );
        }

        #[test]
        fn binned_kernel_is_bit_identical(
            raw in prop::collection::vec(-400.0f64..400.0, 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let mut xs = raw;
            inject_specials(&mut xs, seed);
            let ys: Vec<f64> = xs.iter().rev().cloned().collect();
            let mask = mask_from_seed(xs.len(), seed);
            let a = masked_binned_sum_count(&xs, &ys, &mask, spec());
            let b = masked_binned_sum_count_ref(&xs, &ys, &mask, spec());
            prop_assert_eq!(a.counts, b.counts);
            prop_assert_eq!(a.dropped, b.dropped);
            for (s, r) in a.sums.iter().zip(&b.sums) {
                prop_assert_eq!(s.to_bits(), r.to_bits());
            }
        }

        #[test]
        fn grid_kernel_is_bit_identical(
            raw in prop::collection::vec(-400.0f64..400.0, 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let mut xs = raw;
            inject_specials(&mut xs, seed);
            let ys: Vec<f64> = xs.iter().map(|v| v / 100.0).collect();
            let vs: Vec<f64> = xs.iter().rev().cloned().collect();
            let gy = BinSpec::new(0.0, 3.0, 5).unwrap();
            let gx = BinSpec::new(0.0, 300.0, 5).unwrap();
            let (s1, c1) = grid_sum_count(&xs, &ys, &vs, gx, gy);
            let (s2, c2) = grid_sum_count_ref(&xs, &ys, &vs, gx, gy);
            prop_assert_eq!(c1, c2);
            for (a, b) in s1.iter().zip(&s2) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn slot_count_kernel_matches_the_branchy_tally(
            len in 0usize..300,
            seed in 0u64..u64::MAX,
        ) {
            let slots: Vec<u32> = (0..len)
                .map(|i| ((seed.rotate_left(i as u32) ^ i as u64) % 9) as u32)
                .collect();
            let mask = mask_from_seed(len, seed);
            prop_assert_eq!(
                masked_slot_counts(&slots, 9, &mask),
                masked_slot_counts_ref(&slots, 9, &mask)
            );
        }

        #[test]
        fn slot_kernel_is_bit_identical(
            raw in prop::collection::vec(-400.0f64..400.0, 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let mut xs = raw;
            inject_specials(&mut xs, seed);
            let ys: Vec<f64> = xs.iter().rev().cloned().collect();
            let slots: Vec<u32> = (0..xs.len()).map(|i| (i % 3) as u32).collect();
            let mask = mask_from_seed(xs.len(), seed);
            let (s1, c1, d1) =
                masked_slot_binned_sum_count(&xs, &ys, &slots, 3, &mask, spec());
            let (s2, c2, d2) =
                masked_slot_binned_sum_count_ref(&xs, &ys, &slots, 3, &mask, spec());
            prop_assert_eq!(c1, c2);
            prop_assert_eq!(d1, d2);
            for (a, b) in s1.iter().zip(&s2) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn member_count_matches_binary_search(
            tokens in prop::collection::vec(0u32..500, 0..300),
            raw_table in prop::collection::vec(0u32..500, 0..40),
        ) {
            let mut table = raw_table;
            table.sort_unstable();
            table.dedup();
            prop_assert_eq!(
                count_members_u32(&tokens, &table),
                count_members_u32_ref(&tokens, &table)
            );
        }
    }

    #[test]
    fn gather_moves_exact_bits() {
        let vals = [1.5, f64::NAN, -0.0, 42.0];
        let out = gather(&vals, &[3, 1, 2]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].to_bits(), 42.0f64.to_bits());
        assert_eq!(out[1].to_bits(), vals[1].to_bits());
        assert_eq!(out[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn member_count_empty_table_is_zero() {
        assert_eq!(count_members_u32(&[1, 2, 3], &[]), 0);
        assert_eq!(count_members_u32(&[], &[1, 2, 3]), 0);
    }
}

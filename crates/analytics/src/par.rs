//! Chunk-parallel map over contiguous index ranges.
//!
//! The workspace's parallel scans — the session frame's column build, the
//! interned corpus build and its scoring and keyword passes — all split
//! `[0, len)` into contiguous ranges, run one scoped thread per range, and
//! merge the per-chunk results **in chunk order**. Because the merge
//! reproduces the sequential visit order, every chunk count yields
//! bit-identical results; the chunk count only decides how much spawn cost
//! is worth paying. Each caller passes the smallest chunk worth a thread
//! for its per-element cost.

use std::ops::Range;

/// Split `[0, len)` into up to `workers` contiguous near-equal ranges
/// (always at least one range, possibly empty, so aggregation loops need
/// no special empty-input case).
pub fn chunk_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    let chunks = workers.max(1).min(len.max(1));
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Chunks handed to each available core. Every chunk runs on its own
/// scoped thread, so more than one per core only adds scheduler churn.
const CHUNKS_PER_CORE: usize = 1;

/// Cores the OS will actually run us on, probed once.
fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Adaptive work-splitting: the requested `workers` capped to what the
/// machine can run (`cores × CHUNKS_PER_CORE`) and to what the input can
/// feed (`len / min_chunk`), never below one.
fn adaptive_chunks(len: usize, workers: usize, min_chunk: usize) -> usize {
    workers
        .min(available_cores() * CHUNKS_PER_CORE)
        .min(len / min_chunk.max(1))
        .max(1)
}

/// Map `f` over adaptively-sized chunk ranges of `[0, len)` on scoped
/// worker threads, returning the per-chunk results in chunk order.
///
/// `workers` is a ceiling, not a demand: the split falls back to fewer
/// chunks — down to a single inline one, paying no spawn cost — when a
/// chunk would hold fewer than `min_chunk` elements or the machine has
/// fewer cores. The chunk-order merge makes any chunk count bit-identical,
/// so the adaptation never changes results.
///
/// # Panics
///
/// Re-raises the original panic of any worker that died.
pub fn par_map_ranges<T, F>(len: usize, workers: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    par_map_on(
        chunk_ranges(len, adaptive_chunks(len, workers, min_chunk)),
        f,
    )
}

/// The spawn machinery behind [`par_map_ranges`], over explicit ranges:
/// one scoped thread per range (a single range runs inline), results in
/// range order. Tests use it to pin the multi-chunk path regardless of how
/// many cores the machine has.
///
/// # Panics
///
/// Re-raises the original panic of any worker that died.
pub fn par_map_on<T, F>(ranges: Vec<Range<usize>>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    crossbeam::thread::scope(|scope| {
        for (slot, range) in slots.iter_mut().zip(ranges) {
            let f = &f;
            scope.spawn(move |_| {
                *slot = Some(f(range));
            });
        }
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    slots
        .into_iter()
        .map(|slot| slot.expect("every chunk worker fills its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, workers) in [(0, 4), (1, 4), (7, 3), (100, 8), (5, 1), (3, 9)] {
            let ranges = chunk_ranges(len, workers);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= workers.max(1));
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous: {ranges:?}");
            }
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, len);
        }
    }

    #[test]
    fn par_map_preserves_chunk_order() {
        let parts = par_map_ranges(100, 7, 1, |r| r.clone());
        let flat: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
        // The spawned multi-chunk path keeps the same order, regardless of
        // how many cores this machine has.
        let parts = par_map_on(chunk_ranges(100, 7), |r| r.clone());
        let flat: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            par_map_on(chunk_ranges(10, 4), |r| {
                if r.start == 0 {
                    panic!("chunk worker exploded");
                }
                r.len()
            })
        });
        let payload = result.expect_err("worker panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk worker exploded");
    }

    #[test]
    fn adaptive_split_falls_back_to_sequential_on_small_inputs() {
        let cap = available_cores() * CHUNKS_PER_CORE;
        // The two floors the workspace uses: frame columns and corpus
        // documents.
        for min_chunk in [4096, 512] {
            // Below the per-chunk floor the whole input runs as one inline
            // chunk, whatever was requested.
            assert_eq!(adaptive_chunks(0, 8, min_chunk), 1);
            assert_eq!(adaptive_chunks(min_chunk - 1, 8, min_chunk), 1);
            assert_eq!(adaptive_chunks(min_chunk * 2, 1, min_chunk), 1);
            // Large inputs split, but never beyond the requested workers
            // or what the machine can run.
            let big = min_chunk * 64;
            assert_eq!(adaptive_chunks(big, 4, min_chunk), 4.min(cap));
            assert!(adaptive_chunks(big, 1024, min_chunk) <= cap);
            assert!(adaptive_chunks(usize::MAX, 1024, min_chunk) <= cap);
            // The floor bounds the chunk count even for huge worker
            // requests.
            assert!(adaptive_chunks(min_chunk * 3, 1024, min_chunk) <= 3);
        }
        // A zero floor is treated as one element per chunk, not a division
        // by zero.
        assert_eq!(adaptive_chunks(1, 8, 0), 1);
    }
}

//! Iteration-range partitioning.
//!
//! Static scheduling divides the loop iteration range among the threads before the loop
//! starts (step 1 of the scheduling recipe in §2 of the paper).  The block partition is
//! every static loop's; the chunked (block-cyclic) partition and the dynamic and guided
//! dispensers back the OpenMP-like team's `static,chunk`, `dynamic` and `guided`
//! schedules.

use parlo_sync::{AtomicUsize, Ordering};
use std::ops::Range;

/// Returns the contiguous block of `range` assigned to `tid` out of `nthreads` under the
/// block partition.  The first `len % nthreads` threads receive one extra iteration, so
/// block sizes differ by at most one and the union of all blocks is exactly `range`.
///
/// `#[inline]` because every dealer and job entry point instantiated in another crate
/// (a `LoopRuntime` call's job, the OpenMP and stealing dealers) calls it once per
/// participant per loop, which would otherwise be a call through the GOT.
#[inline]
pub fn static_block(range: &Range<usize>, nthreads: usize, tid: usize) -> Range<usize> {
    let len = range.end.saturating_sub(range.start);
    let nthreads = nthreads.max(1);
    debug_assert!(tid < nthreads);
    let base = len / nthreads;
    let extra = len % nthreads;
    let my_len = base + usize::from(tid < extra);
    let my_start = range.start + tid * base + tid.min(extra);
    my_start..my_start + my_len
}

/// Iterator over the chunks of `range` assigned to `tid` under a block-cyclic partition
/// with the given chunk size.  The arithmetic is on offsets from `range.start`, so a
/// range that ends near `usize::MAX` deals its own indices and nothing else.
pub fn static_chunks(
    range: &Range<usize>,
    nthreads: usize,
    tid: usize,
    chunk: usize,
) -> impl Iterator<Item = Range<usize>> {
    let chunk = chunk.max(1);
    let nthreads = nthreads.max(1);
    let (start, len) = (range.start, range.len());
    (0..)
        .map(move |k| (k * nthreads + tid) * chunk)
        .take_while(move |&lo| lo < len)
        .map(move |lo| start + lo..start + lo + chunk.min(len - lo))
}

/// A shared dynamic chunk dispenser: threads repeatedly grab the next chunk of the range
/// with a single atomic fetch-add until the range is exhausted.  This is the work
/// distribution structure of `schedule(dynamic)` loops; the synchronization around it
/// (full barriers vs. half-barrier) is what distinguishes the runtimes.
#[derive(Debug)]
pub struct DynamicChunks {
    /// The next chunk's offset from `start`.
    next: AtomicUsize,
    start: usize,
    len: usize,
    chunk: usize,
}

impl DynamicChunks {
    /// Creates a dispenser over `range` handing out chunks of `chunk` iterations.
    pub fn new(range: Range<usize>, chunk: usize) -> Self {
        DynamicChunks {
            next: AtomicUsize::new(0),
            start: range.start,
            len: range.len(),
            chunk: chunk.max(1),
        }
    }

    /// Grabs the next chunk, or `None` if the range is exhausted.  The dispenser counts
    /// offsets from the range's start, so no index past its end is ever formed.
    #[inline]
    pub fn next_chunk(&self) -> Option<Range<usize>> {
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if lo >= self.len {
            return None;
        }
        let hi = lo + self.chunk.min(self.len - lo);
        Some(self.start + lo..self.start + hi)
    }
}

/// Guided self-scheduling dispenser: chunk sizes start at `remaining / nthreads` and
/// shrink geometrically, bounded below by `min_chunk`.  Mirrors `schedule(guided)`.
#[derive(Debug)]
pub struct GuidedChunks {
    next: AtomicUsize,
    end: usize,
    nthreads: usize,
    min_chunk: usize,
}

impl GuidedChunks {
    /// Creates a guided dispenser over `range` for `nthreads` threads.
    pub fn new(range: Range<usize>, nthreads: usize, min_chunk: usize) -> Self {
        GuidedChunks {
            next: AtomicUsize::new(range.start),
            end: range.end,
            nthreads: nthreads.max(1),
            min_chunk: min_chunk.max(1),
        }
    }

    /// Grabs the next chunk, or `None` if the range is exhausted.
    pub fn next_chunk(&self) -> Option<Range<usize>> {
        loop {
            let lo = self.next.load(Ordering::Relaxed);
            if lo >= self.end {
                return None;
            }
            let remaining = self.end - lo;
            let size = (remaining / self.nthreads)
                .max(self.min_chunk)
                .min(remaining);
            match self.next.compare_exchange_weak(
                lo,
                lo + size,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(lo..lo + size),
                Err(_) => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_blocks(len: usize, nthreads: usize) -> Vec<usize> {
        let range = 0..len;
        let mut all = Vec::new();
        for tid in 0..nthreads {
            all.extend(static_block(&range, nthreads, tid));
        }
        all
    }

    #[test]
    fn block_partition_covers_range_exactly_once() {
        for (len, nthreads) in [(0, 1), (1, 4), (10, 3), (100, 7), (48, 48), (5, 8)] {
            let mut all = collect_blocks(len, nthreads);
            all.sort_unstable();
            assert_eq!(
                all,
                (0..len).collect::<Vec<_>>(),
                "len={len} nthreads={nthreads}"
            );
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let range = 0..103;
        let sizes: Vec<usize> = (0..8).map(|t| static_block(&range, 8, t).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(sizes.iter().sum::<usize>(), 103);
    }

    #[test]
    fn block_partition_respects_offset() {
        let r = static_block(&(100..110), 2, 1);
        assert_eq!(r, 105..110);
    }

    #[test]
    fn chunked_partition_covers_range_exactly_once() {
        let top = usize::MAX - 257..usize::MAX;
        for (range, nthreads, chunk) in [
            (0..100, 4, 7),
            (0..13, 3, 1),
            (0..64, 8, 8),
            (0..5, 2, 10),
            (top, 2, 3),
        ] {
            let mut all = Vec::new();
            for tid in 0..nthreads {
                for c in static_chunks(&range, nthreads, tid, chunk) {
                    all.extend(c);
                }
            }
            all.sort_unstable();
            assert_eq!(all, range.collect::<Vec<_>>());
        }
    }

    #[test]
    fn dynamic_chunks_cover_range_exactly_once() {
        for (range, chunk) in [(0..101, 7), (usize::MAX - 257..usize::MAX, 2)] {
            let d = DynamicChunks::new(range.clone(), chunk);
            let mut all = Vec::new();
            while let Some(c) = d.next_chunk() {
                all.extend(c);
            }
            assert_eq!(all, range.collect::<Vec<_>>());
            assert!(d.next_chunk().is_none());
            assert!(d.next_chunk().is_none());
        }
    }

    #[test]
    fn dynamic_chunks_concurrent_cover() {
        let d = std::sync::Arc::new(DynamicChunks::new(0..10_000, 13));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                while let Some(c) = d.next_chunk() {
                    mine.extend(c);
                }
                mine
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn guided_chunks_cover_and_shrink() {
        let g = GuidedChunks::new(0..1000, 4, 8);
        let mut sizes = Vec::new();
        let mut all = Vec::new();
        while let Some(c) = g.next_chunk() {
            sizes.push(c.len());
            all.extend(c);
        }
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
        // First chunk is remaining/nthreads, later chunks shrink (non-strictly).
        assert_eq!(sizes[0], 250);
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]));
        assert!(*sizes.last().unwrap() >= 1);
    }

    #[test]
    fn empty_range_yields_nothing() {
        assert_eq!(static_block(&(5..5), 4, 2).len(), 0);
        assert_eq!(static_chunks(&(5..5), 4, 0, 3).count(), 0);
        assert!(DynamicChunks::new(5..5, 3).next_chunk().is_none());
        assert!(GuidedChunks::new(5..5, 3, 1).next_chunk().is_none());
    }
}

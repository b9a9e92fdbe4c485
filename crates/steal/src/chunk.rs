//! Loop-chunk ranges, the pre-split partition, and the halving of a loop's tail.
//!
//! A stealing loop is *pre-split*: before any work executes, the iteration range is
//! divided into one contiguous run of chunks per worker (the worker's static block,
//! subdivided into chunks of a fixed size: the pool config's, or
//! [`parlo_cilk::default_grain`] of the loop).  Each worker seeds its own deque with its
//! run, executes it LIFO from the front, and steals FIFO from the back of random
//! victims' runs once its own is exhausted.  The pre-split keeps the distribution
//! arithmetic communication-free (exactly like the fine-grain pool's static blocks)
//! while the chunking leaves thieves something to take when iteration costs are skewed.
//!
//! Pre-split chunks are not the only thing a deque carries.  A chunk is the unit of
//! *accounting* (and of sticky affinity), but a participant about to run the last
//! piece it can see cuts it with [`lend_halves`] and pushes the upper half back, so
//! what a thief takes — and what an owner pops — is either a whole chunk or such a
//! lent half, never shorter than [`LEND_FLOOR`].

use parlo_core::static_block;
use std::ops::Range;

/// The fewest iterations a half may hold when a participant lends at the tail (see
/// [`lend_halves`]): a piece shorter than `2 · LEND_FLOOR` runs whole.
///
/// Picked by measurement, not by guess (2-cpu reference host, P = 2, each loop of the
/// benchmark's `irregular` workload timed against an interleaved `Sequential`, three
/// alternating runs per floor, `par − seq/2` in µs): the skewed loop reads 77–137 at
/// the parent and 69–70 / 5–26 / **4–16** / 3–6 / −5–4 with a floor of 64 / 32 / **16**
/// / 8 / 1, the triangular loop 22–44 at the parent and 24–38 / 15–23 / **6–8** / 2–9 /
/// −2–4 — the gain is all there at 16, and a smaller floor buys at most 5 µs more on a
/// 300 µs loop.  What a floor costs is one push/pop pair (a fence and a CAS) per
/// halving at the tail of *every* loop whose chunks are long enough: a uniform
/// 512 × 1 `reduce` on the default pool (chunks of 32, one halving per
/// participant) reads 1.89 → 1.74 µs and a 16 × 1 (chunks of 1, none) 1.46 → 1.46 µs
/// against the parent — medians of ten alternating runs of 60 000 calls with a
/// quartile distance of 0.1 µs, i.e. no move beyond spread at 16 — and no floor
/// between 1 and 64 separated from the parent's 1.49–2.11 µs in six alternating runs.
pub const LEND_FLOOR: usize = 16;

/// A contiguous run of loop iterations — the unit of stealing.  `Copy` so the deque
/// can hand it through failed-CAS paths without ownership concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRange {
    /// First iteration of the chunk (inclusive).
    pub start: usize,
    /// One past the last iteration of the chunk.
    pub end: usize,
}

impl ChunkRange {
    /// Number of iterations in the chunk.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Returns `true` if the chunk contains no iterations.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Cuts `piece` for lending at the tail: `(lower, upper)` — the lender runs `lower` and
/// pushes `upper` onto its own (empty) deque — or `None` when a half would fall below
/// [`LEND_FLOOR`].  Both halves are non-empty, strictly shorter than `piece`, and tile
/// it exactly, which is what bounds the halving of a loop's last piece.
pub fn lend_halves(piece: ChunkRange) -> Option<(ChunkRange, ChunkRange)> {
    if piece.len() < 2 * LEND_FLOOR {
        return None;
    }
    let mid = piece.start + piece.len() / 2;
    Some((
        ChunkRange {
            start: piece.start,
            end: mid,
        },
        ChunkRange {
            start: mid,
            end: piece.end,
        },
    ))
}

/// The chunks of worker `tid`'s pre-split run, in **descending** iteration order —
/// exactly the order the worker pushes them, so that owner-LIFO pops execute the run
/// front to back while thief-FIFO steals take chunks from the back.
pub fn worker_run_rev(
    range: &Range<usize>,
    nthreads: usize,
    tid: usize,
    chunk: usize,
) -> impl Iterator<Item = ChunkRange> {
    let block = static_block(range, nthreads, tid);
    let chunk = chunk.max(1);
    let start = block.start;
    let mut hi = block.end;
    std::iter::from_fn(move || {
        if hi <= start {
            return None;
        }
        let lo = start.max(hi.saturating_sub(chunk));
        let out = ChunkRange { start: lo, end: hi };
        hi = lo;
        Some(out)
    })
}

/// The number of chunks the **global grid** pre-split of `range` produces:
/// `ceil(len / chunk)`.  Sticky-affinity loops use this grid instead of the per-block
/// split of [`worker_run_rev`] so a chunk's index (and therefore its remembered
/// owner) is stable across invocations regardless of which worker seeds it.
pub fn grid_chunks(range: &Range<usize>, chunk: usize) -> usize {
    range.len().div_ceil(chunk.max(1))
}

/// Chunk `k` of the global grid over `range`: iterations
/// `[start + k·chunk, min(start + (k+1)·chunk, end))`, computed on offsets from
/// `start` so a range that ends near `usize::MAX` is tiled exactly.
pub fn grid_chunk(range: &Range<usize>, chunk: usize, k: usize) -> ChunkRange {
    let (chunk, len) = (chunk.max(1), range.len());
    let lo = k.saturating_mul(chunk).min(len);
    ChunkRange {
        start: range.start + lo,
        end: range.start + lo + chunk.min(len - lo),
    }
}

/// The grid chunks assigned to worker `tid` by the `owners` table (one owner per grid
/// chunk), in **descending** iteration order — the same push order as
/// [`worker_run_rev`], so owner-LIFO pops still execute the assigned set front to
/// back and thieves take from its tail.
pub fn assigned_run_rev<'a>(
    range: &Range<usize>,
    chunk: usize,
    owners: &'a [u32],
    tid: usize,
) -> impl Iterator<Item = ChunkRange> + 'a {
    let range = range.clone();
    let chunk = chunk.max(1);
    (0..owners.len().min(grid_chunks(&range, chunk)))
        .rev()
        .filter(move |&k| owners[k] as usize == tid)
        .map(move |k| grid_chunk(&range, chunk, k))
}

/// The total number of chunks a pre-split of `range` into per-worker runs produces
/// (the exact chunk-coverage count the tests account against).
pub fn total_chunks(range: &Range<usize>, nthreads: usize, chunk: usize) -> u64 {
    let nthreads = nthreads.max(1);
    let chunk = chunk.max(1);
    (0..nthreads)
        .map(|tid| {
            let block = static_block(range, nthreads, tid);
            block.len().div_ceil(chunk) as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_runs_tile_the_range_exactly() {
        for (len, start, threads, chunk) in [
            (0usize, 5usize, 3usize, 4usize),
            (97, 11, 4, 7),
            (64, 0, 1, 64),
            (13, 2, 5, 1),
        ] {
            let range = start..start + len;
            let mut covered = vec![0usize; len];
            let mut chunks = 0u64;
            for tid in 0..threads {
                let mut prev_start = usize::MAX;
                for c in worker_run_rev(&range, threads, tid, chunk) {
                    assert!(!c.is_empty());
                    assert!(c.len() <= chunk);
                    // Descending order within the run.
                    assert!(c.start < prev_start);
                    prev_start = c.start;
                    for i in c.start..c.end {
                        covered[i - start] += 1;
                    }
                    chunks += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{len}/{threads}/{chunk}");
            assert_eq!(chunks, total_chunks(&range, threads, chunk));
        }
    }

    #[test]
    fn grid_chunks_tile_the_range_exactly() {
        for (start, len, chunk) in [
            (0usize, 97usize, 7usize),
            (11, 64, 64),
            (5, 13, 1),
            (3, 0, 4),
            (usize::MAX - 1000, 1000, 16),
        ] {
            let range = start..start + len;
            let n = grid_chunks(&range, chunk);
            assert_eq!(n, len.div_ceil(chunk));
            let mut covered = vec![0usize; len];
            for k in 0..n {
                let c = grid_chunk(&range, chunk, k);
                assert!(!c.is_empty());
                assert!(c.len() <= chunk);
                for i in c.start..c.end {
                    covered[i - start] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{start}/{len}/{chunk}");
        }
    }

    #[test]
    fn assigned_runs_partition_the_grid_by_owner() {
        let range = 10..107; // 97 iterations, chunk 8 -> 13 grid chunks
        let chunk = 8;
        let owners: Vec<u32> = (0..13).map(|k| (k % 3) as u32).collect();
        let mut covered = vec![0usize; 97];
        for tid in 0..3 {
            let mut prev_start = usize::MAX;
            for c in assigned_run_rev(&range, chunk, &owners, tid) {
                assert!(c.start < prev_start, "descending within a run");
                prev_start = c.start;
                for i in c.start..c.end {
                    covered[i - 10] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
        // A worker with no assigned chunks gets an empty run.
        assert_eq!(assigned_run_rev(&range, chunk, &owners, 7).count(), 0);
    }

    #[test]
    fn lend_halves_tile_the_piece_and_respect_the_floor() {
        for len in 0..2 * LEND_FLOOR {
            let piece = ChunkRange {
                start: 5,
                end: 5 + len,
            };
            assert_eq!(lend_halves(piece), None, "len {len} has no lendable half");
        }
        for len in [2 * LEND_FLOOR, 2 * LEND_FLOOR + 1, 255, 2048] {
            let piece = ChunkRange {
                start: 7,
                end: 7 + len,
            };
            let (lower, upper) = lend_halves(piece).expect("long enough to halve");
            assert_eq!((lower.start, upper.end), (piece.start, piece.end));
            assert_eq!(lower.end, upper.start, "the halves tile the piece");
            assert!(lower.len() >= LEND_FLOOR && upper.len() >= LEND_FLOOR);
            assert!(upper.len() - lower.len() <= 1);
        }
    }

    #[test]
    fn chunk_range_len_and_empty() {
        let c = ChunkRange { start: 3, end: 7 };
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert!(ChunkRange { start: 7, end: 7 }.is_empty());
        assert_eq!(ChunkRange { start: 9, end: 7 }.len(), 0);
    }
}

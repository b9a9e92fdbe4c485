//! Instrumentation counters that cost the loop's hot path no locked read-modify-write.
//!
//! A statistic bumped on the dispatch path with `fetch_add` pays a `lock xadd` (a full
//! barrier on the bumping thread, tens of ns on x86-64) for a number nobody reads until
//! later.  Two shapes avoid it and stay exact:
//!
//! * a count with **one writer at a time** — a pool's loop count, bumped by the thread
//!   driving the pool — is a relaxed load and a relaxed store
//!   ([`SingleWriterCounter`]);
//! * a count that **several participants** bump during one loop — combines, arrivals —
//!   gives each participant a line of its own to bump the same way, and sums the lines
//!   on read ([`ParticipantCounter`]).

use crate::{AtomicU64, Ordering};

/// A monotonically increasing statistic written by one thread at a time and read by
/// any thread.
///
/// [`add`](Self::add) is a relaxed load and a relaxed store: exact as long as
/// successive writers are ordered by happens-before (one owning thread, or drivers
/// handing the counter over through a lock or an acquire/release claim).  Two writers
/// racing lose an increment — a wrong count, never unsafety; give concurrent writers a
/// [`ParticipantCounter`] instead.
#[derive(Debug, Default)]
pub struct SingleWriterCounter(AtomicU64);

impl SingleWriterCounter {
    /// Adds `n` (the caller is the counter's one writer at this time).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One participant's counter, alone on a (128-byte, adjacent-line-prefetch-safe) line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct OwnLine(SingleWriterCounter);

/// A statistic that participant `id` bumps only on line `id`, summed on read.
#[derive(Debug)]
pub struct ParticipantCounter {
    lines: Box<[OwnLine]>,
}

impl ParticipantCounter {
    /// A zeroed counter for participants `0..participants`.
    pub fn new(participants: usize) -> Self {
        ParticipantCounter {
            lines: (0..participants).map(|_| OwnLine::default()).collect(),
        }
    }

    /// Adds `n` on participant `id`'s line (the caller is participant `id`).
    #[inline]
    pub fn add(&self, id: usize, n: u64) {
        self.lines[id].0.add(n);
    }

    /// The total over all participants.
    pub fn sum(&self) -> u64 {
        self.lines.iter().map(|line| line.0.get()).sum()
    }
}

#[cfg(all(test, not(parlo_model)))]
mod tests {
    use super::*;

    #[test]
    fn single_writer_counter_accumulates() {
        let c = SingleWriterCounter::default();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn participant_lines_are_padded_and_summed() {
        let c = ParticipantCounter::new(3);
        c.add(0, 1);
        c.add(2, 2);
        c.add(2, 3);
        assert_eq!(c.sum(), 6);
        let (a, b) = (&c.lines[0] as *const OwnLine, &c.lines[1] as *const OwnLine);
        assert_eq!(b as usize - a as usize, 128, "one line per participant");
    }
}

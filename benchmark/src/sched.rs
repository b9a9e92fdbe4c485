//! The shape of a timed window: 100 ms slices, and inside a slice ~20 ms blocks of the
//! measured parallel op alternating with ~5 ms blocks of the same op on `Sequential`.
//!
//! The host changes speed at sub-second to minutes scale, so a reference measured
//! once, before or after, sees a different machine.  Interleaved this finely, reference
//! and measurement share the host state, and the ratio of a slice repeats where the
//! absolute times do not.  Slices of 25 to 200 ms repeat equally well (the median
//! slice ratio of `mpdata` spread 3.4-3.9 % over ten runs); at 500 ms a slice straddles
//! host states and the spread grows (4.5 %, and 10 % at 1 s).

use crate::host;
use crate::span::Recorder;
use crate::stats::{summarize_window, WindowSummary};
use std::time::Instant;

/// Which side of the comparison a block runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The measured op on the parallel runtime.
    Par,
    /// The same op on `Sequential`.
    Seq,
}

/// Block and slice lengths, ns.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub slice_ns: u64,
    pub par_block_ns: u64,
    pub seq_block_ns: u64,
}

/// The plan every loop workload runs.
pub const PLAN: Plan = Plan {
    slice_ns: 100_000_000,
    par_block_ns: 20_000_000,
    seq_block_ns: 5_000_000,
};

impl Plan {
    /// The block that covers `offset_ns` into a slice: its kind and the offset at which
    /// it ends (never past the slice).  A pure function of the offset, so an op that
    /// overruns its block simply shortens the next one.
    pub fn block_at(&self, offset_ns: u64) -> (Kind, u64) {
        let period = self.par_block_ns + self.seq_block_ns;
        let pos = offset_ns % period;
        let base = offset_ns - pos;
        let (kind, end) = if pos < self.par_block_ns {
            (Kind::Par, base + self.par_block_ns)
        } else {
            (Kind::Seq, base + period)
        };
        (kind, end.min(self.slice_ns))
    }
}

/// A workload whose op is one call sequence that can run on the parallel runtime or on
/// `Sequential`.
pub trait LoopWorkload {
    /// What an op returns, checked outside the timed region.
    type Out;
    /// One op on the parallel runtime; child spans go to `rec`.
    fn par(&mut self, rec: &mut Recorder) -> Self::Out;
    /// The same op on `Sequential`.
    fn seq(&mut self) -> Self::Out;
    /// Whether `out` is the right answer.
    fn check(&mut self, kind: Kind, out: &Self::Out) -> bool;
}

/// An empty sample store whose `capacity` elements have all been written once, so that
/// filling it faults no page and peak RSS does not depend on how fast a run was.
pub fn touched(capacity: usize) -> Vec<u32> {
    let mut v = vec![1u32; capacity];
    v.clear();
    v
}

/// Everything a timed window recorded.
pub struct Window {
    /// Per-op times of the parallel blocks, ns.
    pub par: Vec<u32>,
    /// Per-op times of the sequential reference blocks, ns.
    pub seq: Vec<u32>,
    /// `(par.len(), seq.len())` at the start of each slice.
    pub marks: Vec<(usize, usize)>,
    /// Wall time spent inside parallel blocks, ns.
    pub par_block_ns: u64,
    /// Ops run, both kinds.
    pub attempted: u64,
    /// Ops whose result was wrong.
    pub failed: u64,
    /// One clock probe per slice edge, ns.
    pub probes_ns: Vec<u64>,
}

impl Window {
    /// Sample stores sized for `seconds` at `max_ops_per_s`, touched up front.
    pub fn with_capacity(seconds: f64, max_ops_per_s: f64) -> Self {
        let cap = (seconds * max_ops_per_s) as usize + 1024;
        Window {
            par: touched(cap),
            seq: touched(cap / 4 + 1024),
            marks: Vec::with_capacity((seconds * 1e9 / PLAN.slice_ns as f64) as usize + 2),
            par_block_ns: 0,
            attempted: 0,
            failed: 0,
            probes_ns: Vec::with_capacity((seconds * 1e9 / PLAN.slice_ns as f64) as usize + 2),
        }
    }

    pub fn summary(&self) -> WindowSummary {
        summarize_window(&self.par, &self.seq, &self.marks, self.par_block_ns)
    }
}

/// Runs `w` for `seconds` under `plan`, timing every op with one `Instant` pair and
/// checking every result.  With `rec` enabled each parallel op is wrapped in a
/// `harness.op` span.
pub fn run_window<W: LoopWorkload>(
    w: &mut W,
    plan: &Plan,
    seconds: f64,
    win: &mut Window,
    rec: &mut Recorder,
) {
    let total_ns = (seconds * 1e9) as u64;
    let start = Instant::now();
    let mut slice = u64::MAX;
    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        if now_ns >= total_ns {
            break;
        }
        let this_slice = now_ns / plan.slice_ns;
        if this_slice != slice {
            slice = this_slice;
            win.probes_ns.push(host::clock_probe_ns());
            win.marks.push((win.par.len(), win.seq.len()));
            continue;
        }
        let slice_start = slice * plan.slice_ns;
        let (kind, end_off) = plan.block_at(now_ns - slice_start);
        let block_end = (slice_start + end_off).min(total_ns);
        let block_start = Instant::now();
        loop {
            let (out, t0, t1) = match kind {
                Kind::Par => {
                    let span = rec.begin("harness.op", win.attempted);
                    let t0 = Instant::now();
                    let out = w.par(rec);
                    let t1 = Instant::now();
                    rec.end(span);
                    (out, t0, t1)
                }
                Kind::Seq => {
                    let t0 = Instant::now();
                    let out = w.seq();
                    (out, t0, Instant::now())
                }
            };
            let ns = t1.duration_since(t0).as_nanos().min(u32::MAX as u128) as u32;
            match kind {
                Kind::Par => win.par.push(ns),
                Kind::Seq => win.seq.push(ns),
            }
            win.attempted += 1;
            if !w.check(kind, &out) {
                win.failed += 1;
            }
            if t1.duration_since(start).as_nanos() as u64 >= block_end {
                break;
            }
        }
        if kind == Kind::Par {
            win.par_block_ns += block_start.elapsed().as_nanos() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_alternate_four_to_one_and_stop_at_the_slice_edge() {
        let (mut par, mut seq, mut off, mut blocks) = (0u64, 0u64, 0u64, 0);
        while off < PLAN.slice_ns {
            let (kind, end) = PLAN.block_at(off);
            assert!(end > off && end <= PLAN.slice_ns);
            match kind {
                Kind::Par => par += end - off,
                Kind::Seq => seq += end - off,
            }
            off = end;
            blocks += 1;
        }
        assert_eq!(par + seq, PLAN.slice_ns);
        assert_eq!(par, 4 * seq, "20 ms parallel for every 5 ms of reference");
        assert_eq!(blocks, 8);
    }

    #[test]
    fn an_overrun_shortens_the_next_block() {
        // An op that ran 3 ms past the parallel block lands in the sequential block,
        // which then ends where it always would have.
        assert_eq!(PLAN.block_at(23_000_000), (Kind::Seq, 25_000_000));
        assert_eq!(PLAN.block_at(25_000_000), (Kind::Par, 45_000_000));
        let odd = Plan {
            slice_ns: 30,
            par_block_ns: 20,
            seq_block_ns: 5,
        };
        assert_eq!(odd.block_at(26), (Kind::Par, 30), "clamped to the slice");
    }

    struct Fixed {
        wrong_every: u64,
        n: u64,
    }

    impl LoopWorkload for Fixed {
        type Out = u64;
        fn par(&mut self, _rec: &mut Recorder) -> u64 {
            self.n += 1;
            self.n
        }
        fn seq(&mut self) -> u64 {
            self.n += 1;
            self.n
        }
        fn check(&mut self, _kind: Kind, out: &u64) -> bool {
            !out.is_multiple_of(self.wrong_every)
        }
    }

    #[test]
    fn the_window_counts_every_op_and_every_failure() {
        let plan = Plan {
            slice_ns: 4_000_000,
            par_block_ns: 800_000,
            seq_block_ns: 200_000,
        };
        let mut w = Fixed {
            wrong_every: 10,
            n: 0,
        };
        let mut win = Window::with_capacity(0.02, 1e6);
        run_window(&mut w, &plan, 0.02, &mut win, &mut Recorder::disabled());
        assert_eq!(win.attempted, w.n);
        assert_eq!(win.attempted, (win.par.len() + win.seq.len()) as u64);
        assert_eq!(win.failed, w.n / 10);
        assert!(
            (1..=5).contains(&win.marks.len()),
            "one mark per slice entered"
        );
        assert_eq!(win.probes_ns.len(), win.marks.len());
        assert!(win.par.len() > win.seq.len());
        assert!(win.par_block_ns > 0 && win.par_block_ns <= 20_000_000);
    }
}

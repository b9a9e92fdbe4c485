//! `micro_sweep` — the paper's Table 1 loop.  One op is a round of six 512-iteration
//! `parallel_sum` reductions at `work_unit` grains 1 to 32 on the fine-grain pool.
//! The round is the op (not each loop) so that the op-time distribution has one mode.

use super::{close, Ctx, SplitMix};
use crate::sched::{Kind, LoopWorkload};
use crate::span::Recorder;
use parlo::core::{FineGrainPool, LoopRuntime, Sequential};
use parlo::workloads::microbench::work_unit;

/// `work_unit` rounds per iteration of each of the six loops.
pub const GRAINS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Iterations per loop.
pub const ITERS: usize = 512;
/// Generous bound on rounds per second, sizing the sample store.
pub const MAX_OPS_PER_S: f64 = 60_000.0;

/// One round on any runtime, through the object-safe interface both sides share.
pub fn round(rt: &mut dyn LoopRuntime, base: usize, rec: &mut Recorder) -> [f64; 6] {
    GRAINS.map(|grain| {
        let span = rec.begin("core.parallel_sum", grain as u64);
        let sum = rt.parallel_sum(base..base + ITERS, &|i| work_unit(i, grain));
        rec.end(span);
        sum
    })
}

pub struct MicroSweep {
    pub pool: FineGrainPool,
    /// First index of every loop; the seed's only effect, and it costs nothing.
    pub base: usize,
    expected: [f64; 6],
}

impl MicroSweep {
    /// Builds executor, pool and reference values, then runs `warmup_ops` rounds.
    /// Returns the workload and how many warm-up rounds were wrong.
    pub fn setup(ctx: &Ctx, warmup_ops: u64) -> (Self, u64) {
        let executor = ctx.executor();
        let pool = FineGrainPool::with_placement_on(ctx.threads, &ctx.placement(), &executor);
        let base = SplitMix(ctx.seed).below(1 << 20) as usize;
        let mut expected = round(&mut Sequential, base, &mut Recorder::disabled());
        if ctx.corrupt {
            expected[0] += 1.0;
        }
        let mut w = MicroSweep {
            pool,
            base,
            expected,
        };
        let mut rec = Recorder::disabled();
        let mut wrong = 0;
        for _ in 0..warmup_ops {
            let out = w.par(&mut rec);
            wrong += u64::from(!w.check(Kind::Par, &out));
        }
        (w, wrong)
    }
}

impl LoopWorkload for MicroSweep {
    type Out = [f64; 6];

    fn par(&mut self, rec: &mut Recorder) -> [f64; 6] {
        round(&mut self.pool, self.base, rec)
    }

    fn seq(&mut self) -> [f64; 6] {
        round(&mut Sequential, self.base, &mut Recorder::disabled())
    }

    fn check(&mut self, _kind: Kind, out: &[f64; 6]) -> bool {
        out.iter().zip(&self.expected).all(|(a, b)| close(*a, *b))
    }
}

//! `irregular` — the dispatch layer used dynamically.  One op is a round of three
//! unbalanced reductions (geometrically skewed, triangular, cache-hostile), each at its
//! own sticky `StealSite` on the stealing pool.

use super::{Ctx, SplitMix};
use crate::sched::{Kind, LoopWorkload};
use crate::span::Recorder;
use parlo::core::{LoopRuntime, Sequential};
use parlo::steal::{StealPool, StealSite};
use parlo::workloads::cache::{global_table, CacheTable};
use parlo::workloads::irregular::{skewed_term, triangular_row};

pub const SKEW_N: usize = 4096;
pub const SKEW_UNITS: usize = 8;
pub const TRI_N: usize = 1024;
pub const CACHE_N: usize = 4096;
pub const CACHE_UNITS: usize = 8;
/// Generous bound on rounds per second, sizing the sample store.
pub const MAX_OPS_PER_S: f64 = 6_000.0;

/// The generated inputs: the probe table and the seed's salt.  The salt changes every
/// term's value and which table lines are probed, never how much work a term is, so
/// timings do not depend on the seed.  All terms are integer-valued: sums are exact.
pub struct Inputs {
    /// The library's process-wide probe table: 8 MiB of `f64`, past the private caches,
    /// so probes miss.  Built by the first set-up and never freed: a table per set-up
    /// made peak RSS 18 or 26 MiB depending on what the allocator did with the old one.
    table: &'static CacheTable,
    salt: usize,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Inputs {
            table: global_table(),
            salt: SplitMix(seed).below(1 << 20) as usize,
        }
    }

    fn tag(&self, i: usize) -> f64 {
        ((i + self.salt) % 7) as f64
    }

    /// Calls `run(k, iterations, term)` for each of the three loops, in round order.
    pub fn each_loop(
        &self,
        mut run: impl FnMut(usize, usize, &(dyn Fn(usize) -> f64 + Sync)) -> f64,
    ) -> [f64; 3] {
        [
            run(0, SKEW_N, &|i| {
                skewed_term(i, SKEW_N, SKEW_UNITS) + self.tag(i)
            }),
            run(1, TRI_N, &|i| triangular_row(i) + self.tag(i)),
            run(2, CACHE_N, &|i| self.table.term(i + self.salt, CACHE_UNITS)),
        ]
    }

    /// The round on any `LoopRuntime` (the `Sequential` reference, a static pool).
    pub fn round_on(&self, rt: &mut dyn LoopRuntime) -> [f64; 3] {
        self.each_loop(|_, n, term| rt.parallel_sum(0..n, term))
    }

    /// Loop `k` on the stealing pool, at its own sticky site.
    pub fn steal_loop(
        pool: &mut StealPool,
        k: usize,
        n: usize,
        term: &(dyn Fn(usize) -> f64 + Sync),
    ) -> f64 {
        let site = StealSite(k as u64 + 1);
        pool.steal_reduce_at(site, 0..n, || 0.0, |acc, i| acc + term(i), |a, b| a + b)
    }

    /// The round on the stealing pool.
    pub fn round_steal(&self, pool: &mut StealPool, rec: &mut Recorder) -> [f64; 3] {
        self.each_loop(|k, n, term| {
            let span = rec.begin("steal.steal_reduce_at", k as u64);
            let sum = Self::steal_loop(pool, k, n, term);
            rec.end(span);
            sum
        })
    }
}

pub struct Irregular {
    pub pool: StealPool,
    pub inputs: Inputs,
    expected: [f64; 3],
}

impl Irregular {
    /// Builds executor, pool, table and reference sums, then runs `warmup_ops` rounds
    /// (which also settles the sticky assignments).  Returns the workload and the
    /// count of wrong warm-up rounds.
    pub fn setup(ctx: &Ctx, warmup_ops: u64) -> (Self, u64) {
        let executor = ctx.executor();
        let pool = StealPool::with_placement_on(ctx.threads, &ctx.placement(), &executor);
        let inputs = Inputs::new(ctx.seed);
        let mut expected = inputs.round_on(&mut Sequential);
        if ctx.corrupt {
            expected[2] += 1.0;
        }
        let mut w = Irregular {
            pool,
            inputs,
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

impl LoopWorkload for Irregular {
    type Out = [f64; 3];

    fn par(&mut self, rec: &mut Recorder) -> [f64; 3] {
        self.inputs.round_steal(&mut self.pool, rec)
    }

    fn seq(&mut self) -> [f64; 3] {
        self.inputs.round_on(&mut Sequential)
    }

    fn check(&mut self, _kind: Kind, out: &[f64; 3]) -> bool {
        // Integer-valued terms: any schedule must produce the sums exactly.
        *out == self.expected
    }
}

//! `mpdata` — the paper's Figure 2 kernel.  One op is one `Mpdata::step` (five short
//! loops) on the paper-sized mesh, on the fine-grain pool.

use super::Ctx;
use crate::sched::{Kind, LoopWorkload};
use crate::span::Recorder;
use parlo::core::{FineGrainPool, Sequential};
use parlo::workloads::{Mesh, Mpdata};

/// The paper's grid: 96 x 58 = 5568 nodes, 16 397 edges.
pub const GRID: (usize, usize) = (96, 58);
/// Steps between mass-drift checks; the field is reset after each check so that the
/// op never drifts into a different numerical regime over a long run.
pub const CHECK_EVERY: u32 = 1000;
/// Relative mass drift allowed over `CHECK_EVERY` steps.
pub const MAX_DRIFT: f64 = 1e-9;
/// Warm-up steps that are replayed on `Sequential` and compared field by field.
pub const REPLAYED_STEPS: u64 = 200;
/// Generous bound on steps per second, sizing the sample store.
pub const MAX_OPS_PER_S: f64 = 25_000.0;

/// A solver with its step count since the last reset.
struct Side {
    solver: Mpdata,
    steps: u32,
}

pub struct MpdataWl {
    pub pool: FineGrainPool,
    par: Side,
    seq: Side,
    initial_psi: Vec<f64>,
    initial_mass: f64,
}

impl MpdataWl {
    /// Builds executor, pool, mesh (jittered by the seed) and two solvers, then runs
    /// `warmup_ops` parallel steps, replaying the first `REPLAYED_STEPS` sequentially
    /// and requiring bit-identical fields.  Returns the workload and the count of
    /// wrong warm-up steps.
    pub fn setup(ctx: &Ctx, warmup_ops: u64) -> (Self, u64) {
        let executor = ctx.executor();
        let pool = FineGrainPool::with_placement_on(ctx.threads, &ctx.placement(), &executor);
        let mesh = Mesh::triangulated_grid(GRID.0, GRID.1, ctx.seed);
        let mut solver = Mpdata::new(mesh);
        let initial_psi = solver.psi.clone();
        let mut initial_mass = solver.total_mass(&mut Sequential);
        if ctx.corrupt {
            initial_mass *= 1.0 + 1e-6;
        }
        let mut w = MpdataWl {
            pool,
            par: Side {
                solver: solver.clone(),
                steps: 0,
            },
            seq: Side { solver, steps: 0 },
            initial_psi,
            initial_mass,
        };
        let mut wrong = 0;
        let mut rec = Recorder::disabled();
        for k in 0..warmup_ops {
            let mass = w.par(&mut rec);
            let mut ok = true;
            if k < REPLAYED_STEPS {
                w.seq.solver.step(&mut Sequential);
                ok = w.par.solver.psi == w.seq.solver.psi;
            }
            ok &= w.check(Kind::Par, &mass);
            wrong += u64::from(!ok);
        }
        w.reset(Kind::Par);
        w.reset(Kind::Seq);
        (w, wrong)
    }

    fn mass_ok(&self, mass: f64) -> bool {
        mass.is_finite() && ((mass - self.initial_mass) / self.initial_mass).abs() < MAX_DRIFT
    }

    fn reset(&mut self, kind: Kind) {
        let side = match kind {
            Kind::Par => &mut self.par,
            Kind::Seq => &mut self.seq,
        };
        side.solver.psi.copy_from_slice(&self.initial_psi);
        side.steps = 0;
    }
}

impl LoopWorkload for MpdataWl {
    /// Total mass after the step.
    type Out = f64;

    fn par(&mut self, rec: &mut Recorder) -> f64 {
        let span = rec.begin("workloads.mpdata_step", u64::from(self.par.steps));
        let mass = self.par.solver.step(&mut self.pool).total_mass;
        rec.end(span);
        self.par.steps += 1;
        mass
    }

    fn seq(&mut self) -> f64 {
        self.seq.steps += 1;
        self.seq.solver.step(&mut Sequential).total_mass
    }

    fn check(&mut self, kind: Kind, mass: &f64) -> bool {
        let steps = match kind {
            Kind::Par => self.par.steps,
            Kind::Seq => self.seq.steps,
        };
        if steps >= CHECK_EVERY {
            self.reset(kind);
        }
        self.mass_ok(*mass)
    }
}

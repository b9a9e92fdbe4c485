//! MPDATA — Multidimensional Positive Definite Advection Transport Algorithm — on an
//! unstructured mesh (Figure 2 of the paper).
//!
//! MPDATA advances a scalar field by a donor-cell (first-order upwind) pass followed by
//! one or more *corrective* passes that re-advect the field with an antidiffusive
//! pseudo-velocity derived from the first-pass solution (Smolarkiewicz's scheme; the
//! paper uses the ECMWF finite-volume module's edge-based formulation).  What matters
//! for the scheduling study is its loop structure: every time step is a **sequence of
//! short parallel loops** over the mesh's nodes and edges (a few thousand iterations
//! each, micro-seconds of work per loop), which is exactly the fine-grain regime where
//! scheduler burden dominates and where the paper reports up to 22 % improvement from
//! the half-barrier scheduler.
//!
//! The solver is written against the unified [`LoopRuntime`] trait so the identical
//! kernels run on the fine-grain pool, the OpenMP-like team, the Cilk-like pool, the
//! adaptive selection runtime, or sequentially.
//!
//! Each of a step's five loops is a *block kernel*: the runtime calls it once per
//! contiguous piece it deals (`parallel_for_blocks` / `parallel_reduce_blocks`), and
//! the kernel walks the piece itself, as the paper's OpenMP and Cilk loops run the
//! iteration loop inside the outlined body.  A per-index body would pay one `dyn` call
//! per node or edge on every runtime, `Sequential` included.  The two diagnostic sums
//! thread one accumulator through a participant's pieces in index order, so they equal
//! the per-index `parallel_sum` bit for bit, and the upwind gather selects the upwind
//! node's index before one load rather than branching between two loads.

use crate::mesh::Mesh;
use crate::util::UnsafeSlice;
use parlo_core::LoopRuntime;

/// Diagnostics of one time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDiagnostics {
    /// Total mass `Σ ψ_i · V_i` after the step (conserved by the scheme).
    pub total_mass: f64,
    /// Mean of the (positive part of the) field after the step.
    pub mean_psi: f64,
}

/// Result of a multi-step run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Number of steps executed.
    pub steps: usize,
    /// Mass at the start of the run.
    pub initial_mass: f64,
    /// Mass at the end of the run.
    pub final_mass: f64,
    /// Per-step diagnostics (only recorded when requested).
    pub diagnostics: Vec<StepDiagnostics>,
}

impl RunResult {
    /// Relative mass drift over the run (should be at floating-point round-off level).
    pub fn relative_mass_drift(&self) -> f64 {
        if self.initial_mass == 0.0 {
            return 0.0;
        }
        ((self.final_mass - self.initial_mass) / self.initial_mass).abs()
    }
}

/// The MPDATA solver state.
#[derive(Debug, Clone)]
pub struct Mpdata {
    /// The mesh the field lives on.
    pub mesh: Mesh,
    /// The advected scalar field (one value per node).
    pub psi: Vec<f64>,
    /// Scratch field (first-pass / intermediate solution).
    tmp: Vec<f64>,
    /// Edge-normal velocity (positive from endpoint `a` towards endpoint `b`).
    pub edge_vel: Vec<f64>,
    /// Antidiffusive pseudo-velocity per edge (recomputed every corrective pass).
    pseudo_vel: Vec<f64>,
    /// Time step.
    pub dt: f64,
    /// Regularisation epsilon of the antidiffusive velocity.
    pub epsilon: f64,
    /// Number of corrective (antidiffusive) passes per step (`iord − 1` in MPDATA
    /// terminology; the paper's configuration corresponds to one corrective pass).
    pub corrective_passes: usize,
}

impl Mpdata {
    /// Creates a solver on `mesh` with a Gaussian initial condition and a solid-body
    /// rotation velocity field.
    pub fn new(mesh: Mesh) -> Self {
        let n = mesh.num_nodes();
        let ne = mesh.num_edges();
        // Domain centre for the initial blob and the rotation.
        let cx = mesh.x.iter().sum::<f64>() / n as f64;
        let cy = mesh.y.iter().sum::<f64>() / n as f64;
        let extent = mesh
            .x
            .iter()
            .zip(&mesh.y)
            .map(|(x, y)| ((x - cx).powi(2) + (y - cy).powi(2)).sqrt())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let sigma = extent * 0.15;
        let psi: Vec<f64> = (0..n)
            .map(|i| {
                let dx = mesh.x[i] - cx - extent * 0.3;
                let dy = mesh.y[i] - cy;
                1.0 + 4.0 * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
            })
            .collect();
        // Solid-body rotation: u = ω × r; edge-normal velocity is the average of the
        // endpoint velocities projected on the edge direction.
        let omega = 0.1 / extent;
        let mut edge_vel = Vec::with_capacity(ne);
        for e in &mesh.edges {
            let (a, b) = (e.a as usize, e.b as usize);
            let ex = mesh.x[b] - mesh.x[a];
            let ey = mesh.y[b] - mesh.y[a];
            let norm = (ex * ex + ey * ey).sqrt().max(1e-12);
            let (uxa, uya) = (-omega * (mesh.y[a] - cy), omega * (mesh.x[a] - cx));
            let (uxb, uyb) = (-omega * (mesh.y[b] - cy), omega * (mesh.x[b] - cx));
            let ux = 0.5 * (uxa + uxb);
            let uy = 0.5 * (uya + uyb);
            edge_vel.push((ux * ex + uy * ey) / norm);
        }
        // Stability: CFL-limited time step for the donor-cell pass.
        let max_rate = mesh
            .edges
            .iter()
            .enumerate()
            .map(|(k, e)| {
                let c = mesh.edge_coeff[k] * edge_vel[k].abs();
                let va = mesh.volume[e.a as usize];
                let vb = mesh.volume[e.b as usize];
                c / va.min(vb)
            })
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let dt = 0.2 / max_rate;
        Mpdata {
            tmp: vec![0.0; n],
            pseudo_vel: vec![0.0; ne],
            psi,
            edge_vel,
            dt,
            epsilon: 1e-10,
            corrective_passes: 1,
            mesh,
        }
    }

    /// Creates the solver on the paper's 5 568-node / 16 397-edge mesh.
    pub fn paper_problem() -> Self {
        Self::new(Mesh::paper_mesh())
    }

    /// Total mass `Σ ψ_i V_i` of the current field (computed with `runner`).
    pub fn total_mass(&mut self, runner: &mut dyn LoopRuntime) -> f64 {
        let psi = &self.psi;
        let vol = &self.mesh.volume;
        sum(runner, psi.len(), |i| psi[i] * vol[i])
    }

    /// One upwind (donor-cell) gather pass: `out[i] = in[i] − dt/V_i Σ sign·F_e` where
    /// the edge flux uses velocity `vel`.
    fn upwind_pass(
        runner: &mut dyn LoopRuntime,
        mesh: &Mesh,
        vel: &[f64],
        dt: f64,
        input: &[f64],
        output: &mut [f64],
    ) {
        let out = UnsafeSlice::new(output);
        let nodes = mesh.num_nodes();
        runner.parallel_for_blocks(0..nodes, &|block| {
            for i in block {
                let mut div = 0.0;
                for (e, sign) in mesh.incident(i) {
                    let edge = mesh.edges[e];
                    let v = vel[e];
                    let coeff = mesh.edge_coeff[e];
                    // Donor-cell flux from a to b: upwind value times velocity.
                    let upwind = if v >= 0.0 { edge.a } else { edge.b };
                    div += sign * coeff * v * input[upwind as usize];
                }
                let value = input[i] - dt / mesh.volume[i] * div;
                // SAFETY: the pieces are disjoint, so each node is written once.
                unsafe { out.write(i, value) };
            }
        });
    }

    /// Computes the antidiffusive pseudo-velocity per edge from the first-pass field.
    fn pseudo_velocity_pass(
        runner: &mut dyn LoopRuntime,
        mesh: &Mesh,
        vel: &[f64],
        dt: f64,
        epsilon: f64,
        field: &[f64],
        output: &mut [f64],
    ) {
        let out = UnsafeSlice::new(output);
        let edges = mesh.num_edges();
        runner.parallel_for_blocks(0..edges, &|block| {
            for e in block {
                let edge = mesh.edges[e];
                let (a, b) = (edge.a as usize, edge.b as usize);
                let v = vel[e];
                let coeff = mesh.edge_coeff[e];
                let mean_vol = 0.5 * (mesh.volume[a] + mesh.volume[b]);
                // Smolarkiewicz's antidiffusive velocity for the donor-cell scheme,
                // specialised to the edge-based discretisation.
                let num = field[b] - field[a];
                let den = field[a] + field[b] + epsilon;
                let value = (v.abs() - dt * v * v * coeff / mean_vol) * (num / den);
                // SAFETY: the pieces are disjoint, so each edge is written once.
                unsafe { out.write(e, value) };
            }
        });
    }

    /// Advances the field by one time step and returns diagnostics.
    pub fn step(&mut self, runner: &mut dyn LoopRuntime) -> StepDiagnostics {
        let dt = self.dt;
        let eps = self.epsilon;
        // Pass 1: donor-cell with the physical velocity, psi -> tmp.
        Self::upwind_pass(
            runner,
            &self.mesh,
            &self.edge_vel,
            dt,
            &self.psi,
            &mut self.tmp,
        );
        std::mem::swap(&mut self.psi, &mut self.tmp);
        // Corrective passes: donor-cell with the antidiffusive pseudo-velocity.
        for _ in 0..self.corrective_passes {
            Self::pseudo_velocity_pass(
                runner,
                &self.mesh,
                &self.edge_vel,
                dt,
                eps,
                &self.psi,
                &mut self.pseudo_vel,
            );
            Self::upwind_pass(
                runner,
                &self.mesh,
                &self.pseudo_vel,
                dt,
                &self.psi,
                &mut self.tmp,
            );
            std::mem::swap(&mut self.psi, &mut self.tmp);
        }
        // Diagnostics (two small reductions, merged into the half-barrier on the
        // fine-grain runner).
        let psi = &self.psi;
        let vol = &self.mesh.volume;
        let total_mass = sum(runner, psi.len(), |i| psi[i] * vol[i]);
        let mean_psi = sum(runner, psi.len(), |i| psi[i].max(0.0)) / psi.len() as f64;
        StepDiagnostics {
            total_mass,
            mean_psi,
        }
    }

    /// Runs `steps` time steps, recording diagnostics when `record` is true.
    pub fn run(&mut self, runner: &mut dyn LoopRuntime, steps: usize, record: bool) -> RunResult {
        let initial_mass = self.total_mass(runner);
        let mut diagnostics = Vec::new();
        let mut final_mass = initial_mass;
        for _ in 0..steps {
            let d = self.step(runner);
            final_mass = d.total_mass;
            if record {
                diagnostics.push(d);
            }
        }
        RunResult {
            steps,
            initial_mass,
            final_mass,
            diagnostics,
        }
    }

    /// Number of parallel loops executed per time step (used by the cost-model
    /// simulator and the experiment index): one node loop for the first pass, one edge
    /// loop plus one node loop per corrective pass, plus two diagnostic reductions.
    pub fn loops_per_step(&self) -> usize {
        1 + 2 * self.corrective_passes + 2
    }
}

/// `Σ term(i)` over `0..n` as one block reduction: each participant folds its pieces
/// into one accumulator in index order, so the sum is `parallel_sum`'s bit for bit.
fn sum(runner: &mut dyn LoopRuntime, n: usize, term: impl Fn(usize) -> f64 + Sync) -> f64 {
    runner.parallel_reduce_blocks(
        0..n,
        0.0,
        &|acc, block| block.fold(acc, |acc, i| acc + term(i)),
        &|a, b| a + b,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_core::{FineGrainPool, Sequential};
    use parlo_omp::ScheduledTeam;

    fn small_problem() -> Mpdata {
        Mpdata::new(Mesh::triangulated_grid(12, 10, 3))
    }

    /// The step as it was written before the loops became block kernels: one per-index
    /// `parallel_for` per pass, a branch between two loads in the upwind gather, and
    /// per-index `parallel_sum` diagnostics.  Kept as the reference the block kernels
    /// must reproduce bit for bit.
    fn per_index_step(m: &mut Mpdata, runner: &mut dyn LoopRuntime) -> StepDiagnostics {
        fn upwind(
            runner: &mut dyn LoopRuntime,
            mesh: &Mesh,
            vel: &[f64],
            dt: f64,
            input: &[f64],
            output: &mut [f64],
        ) {
            let out = UnsafeSlice::new(output);
            runner.parallel_for(0..mesh.num_nodes(), &|i| {
                let mut div = 0.0;
                for (e, sign) in mesh.incident(i) {
                    let edge = mesh.edges[e];
                    let v = vel[e];
                    let coeff = mesh.edge_coeff[e];
                    let upwind = if v >= 0.0 {
                        input[edge.a as usize]
                    } else {
                        input[edge.b as usize]
                    };
                    div += sign * coeff * v * upwind;
                }
                let value = input[i] - dt / mesh.volume[i] * div;
                // SAFETY: each node index is executed by exactly one loop iteration.
                unsafe { out.write(i, value) };
            });
        }
        fn pseudo(
            runner: &mut dyn LoopRuntime,
            mesh: &Mesh,
            (vel, dt, epsilon): (&[f64], f64, f64),
            field: &[f64],
            output: &mut [f64],
        ) {
            let out = UnsafeSlice::new(output);
            runner.parallel_for(0..mesh.num_edges(), &|e| {
                let edge = mesh.edges[e];
                let (a, b) = (edge.a as usize, edge.b as usize);
                let v = vel[e];
                let coeff = mesh.edge_coeff[e];
                let mean_vol = 0.5 * (mesh.volume[a] + mesh.volume[b]);
                let num = field[b] - field[a];
                let den = field[a] + field[b] + epsilon;
                let value = (v.abs() - dt * v * v * coeff / mean_vol) * (num / den);
                // SAFETY: each edge index is executed by exactly one loop iteration.
                unsafe { out.write(e, value) };
            });
        }
        let (dt, eps) = (m.dt, m.epsilon);
        upwind(runner, &m.mesh, &m.edge_vel, dt, &m.psi, &mut m.tmp);
        std::mem::swap(&mut m.psi, &mut m.tmp);
        for _ in 0..m.corrective_passes {
            let physical = (&m.edge_vel[..], dt, eps);
            pseudo(runner, &m.mesh, physical, &m.psi, &mut m.pseudo_vel);
            upwind(runner, &m.mesh, &m.pseudo_vel, dt, &m.psi, &mut m.tmp);
            std::mem::swap(&mut m.psi, &mut m.tmp);
        }
        let (psi, vol) = (&m.psi, &m.mesh.volume);
        let total_mass = runner.parallel_sum(0..psi.len(), &|i| psi[i] * vol[i]);
        let mean_psi = runner.parallel_sum(0..psi.len(), &|i| psi[i].max(0.0)) / psi.len() as f64;
        StepDiagnostics {
            total_mass,
            mean_psi,
        }
    }

    #[test]
    fn block_kernels_reproduce_the_per_index_step_bit_for_bit() {
        // `static,3` deals each participant several pieces at a fixed iteration ->
        // thread map, so it is the row on which a diagnostic that summed per-piece
        // partials (instead of threading one accumulator) would round differently.
        let mut runners: Vec<(String, Box<dyn LoopRuntime>)> =
            vec![("sequential".into(), Box::new(Sequential))];
        for p in 1..=4 {
            runners.push((
                format!("fine-grain P={p}"),
                Box::new(FineGrainPool::with_threads(p)),
            ));
            let chunked = ScheduledTeam::with_threads(p, parlo_omp::Schedule::StaticChunked(3));
            runners.push((format!("omp static,3 P={p}"), Box::new(chunked)));
        }
        for seed in [3, 11] {
            for (name, runner) in &mut runners {
                let mut block = Mpdata::new(Mesh::triangulated_grid(24, 16, seed));
                let mut reference = block.clone();
                for step in 0..200 {
                    let got = block.step(runner.as_mut());
                    let want = per_index_step(&mut reference, runner.as_mut());
                    let at = format!("{name}, seed {seed}, step {step}");
                    assert_eq!(got.total_mass.to_bits(), want.total_mass.to_bits(), "{at}");
                    assert_eq!(got.mean_psi.to_bits(), want.mean_psi.to_bits(), "{at}");
                    assert!(block.psi == reference.psi, "{at}: psi");
                }
            }
        }
    }

    #[test]
    fn mass_is_conserved_sequentially() {
        let mut m = small_problem();
        let mut seq = Sequential;
        let result = m.run(&mut seq, 20, true);
        assert_eq!(result.steps, 20);
        assert_eq!(result.diagnostics.len(), 20);
        assert!(
            result.relative_mass_drift() < 1e-10,
            "mass drift {}",
            result.relative_mass_drift()
        );
    }

    #[test]
    fn field_stays_finite_and_bounded() {
        let mut m = small_problem();
        let mut seq = Sequential;
        m.run(&mut seq, 50, false);
        assert!(m.psi.iter().all(|v| v.is_finite()));
        let max = m.psi.iter().cloned().fold(f64::MIN, f64::max);
        let min = m.psi.iter().cloned().fold(f64::MAX, f64::min);
        // The initial field is in [1, 5]; the corrected upwind scheme must not blow up.
        assert!(max < 10.0 && min > -1.0, "field range [{min}, {max}]");
    }

    #[test]
    fn parallel_runs_match_sequential_bitwise() {
        // The field update is deterministic and independent of the thread count; only
        // the diagnostics (reductions) may differ in summation order.
        let mut seq_solver = small_problem();
        let mut par_solver = small_problem();
        let mut seq = Sequential;
        let mut par = FineGrainPool::with_threads(4);
        seq_solver.run(&mut seq, 10, false);
        par_solver.run(&mut par, 10, false);
        assert_eq!(seq_solver.psi, par_solver.psi, "fields must match exactly");
    }

    #[test]
    fn omp_runner_matches_sequential_bitwise() {
        let mut seq_solver = small_problem();
        let mut par_solver = small_problem();
        let mut seq = Sequential;
        let mut par = ScheduledTeam::with_threads(3, parlo_omp::Schedule::Static);
        seq_solver.run(&mut seq, 5, false);
        par_solver.run(&mut par, 5, false);
        assert_eq!(seq_solver.psi, par_solver.psi);
    }

    #[test]
    fn paper_problem_has_paper_dimensions() {
        let m = Mpdata::paper_problem();
        assert_eq!(m.psi.len(), 5568);
        assert_eq!(m.edge_vel.len(), 16_397);
        assert!(m.dt > 0.0);
        assert_eq!(m.loops_per_step(), 5);
    }

    #[test]
    fn cfl_time_step_is_stable_on_paper_mesh() {
        let mut m = Mpdata::paper_problem();
        let mut seq = Sequential;
        let result = m.run(&mut seq, 3, false);
        assert!(result.relative_mass_drift() < 1e-10);
        assert!(m.psi.iter().all(|v| v.is_finite()));
    }
}

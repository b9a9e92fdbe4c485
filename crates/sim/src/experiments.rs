//! Simulated versions of every table and figure of the paper's evaluation, produced on
//! the modelled 48-core machine (the hardware substitution described in DESIGN.md §4).

use crate::machine::SimMachine;
use crate::scheduler_model::{burden_ns, LoopShape, SimScheduler};
use crate::workload_model::{
    linear_regression_loops, mpdata_step_loops, workload_speedup, REGRESSION_CHUNK,
};
use crate::{Series, Table};

/// Simulated Table 1: the scheduling burden `d` (µs) of every scheduler at 48 threads.
pub fn table1(m: &SimMachine) -> Table {
    let mut t = Table::new(
        "Table 1 (simulated): characterizing scheduler burden on the modelled 48-core machine",
        &["scheduler", "d (us)"],
    );
    let shape = LoopShape::default();
    let threads = m.max_threads();
    for s in SimScheduler::TABLE1_ORDER {
        let d_us = burden_ns(m, s, threads, shape) / 1e3;
        t.push_row(s.label(), vec![d_us]);
    }
    t
}

/// The thread counts the figures sweep (1, 2, 4, ..., up to the machine size, always
/// including the full machine).
pub fn thread_sweep(m: &SimMachine) -> Vec<usize> {
    let max = m.max_threads().max(1);
    let mut threads = vec![1usize];
    let mut t = 2;
    while t < max {
        threads.push(t);
        t += if t < 8 { 2 } else { 8 };
    }
    threads.push(max);
    threads.dedup();
    threads
}

/// Simulated Figure 2 (left): MPDATA speedup of the fine-grain and OpenMP schedulers.
/// Returns (fine-grain series, OpenMP series).
pub fn figure2_left(m: &SimMachine) -> (Series, Series) {
    let loops = mpdata_step_loops();
    let mut fine = Series::empty("fine-grain");
    let mut omp = Series::empty("OpenMP");
    for p in thread_sweep(m) {
        fine.push(
            p,
            workload_speedup(m, SimScheduler::FineGrainTree, p, &loops, 1),
        );
        omp.push(
            p,
            workload_speedup(m, SimScheduler::OmpStatic, p, &loops, 1),
        );
    }
    (fine, omp)
}

/// Simulated Figure 2 (right): speedup of the fine-grain scheduler over OpenMP.
pub fn figure2_right(m: &SimMachine) -> Series {
    let (fine, omp) = figure2_left(m);
    fine.ratio_over(&omp, "fine-grain / OpenMP")
}

/// Simulated Figure 3(a): linear-regression speedup with the Cilk baseline and the
/// fine-grain (hybrid Cilk) scheduler.
pub fn figure3a(m: &SimMachine, points: usize) -> (Series, Series) {
    let loops = linear_regression_loops(points, REGRESSION_CHUNK);
    let mut fine = Series::empty("fine-grain");
    let mut cilk = Series::empty("Cilk");
    for p in thread_sweep(m) {
        fine.push(
            p,
            workload_speedup(m, SimScheduler::FineGrainTree, p, &loops, 1),
        );
        cilk.push(p, workload_speedup(m, SimScheduler::Cilk, p, &loops, 1));
    }
    (fine, cilk)
}

/// Simulated Figure 3(b): linear-regression speedup with the OpenMP baseline (static
/// and dynamic schedules) and the fine-grain scheduler.
pub fn figure3b(m: &SimMachine, points: usize) -> (Series, Series, Series) {
    let loops = linear_regression_loops(points, REGRESSION_CHUNK);
    let mut fine = Series::empty("fine-grain");
    let mut omp_static = Series::empty("OpenMP static");
    let mut omp_dynamic = Series::empty("OpenMP dynamic");
    for p in thread_sweep(m) {
        fine.push(
            p,
            workload_speedup(m, SimScheduler::FineGrainTree, p, &loops, 1),
        );
        omp_static.push(
            p,
            workload_speedup(m, SimScheduler::OmpStatic, p, &loops, 1),
        );
        omp_dynamic.push(
            p,
            workload_speedup(m, SimScheduler::OmpDynamic, p, &loops, 1),
        );
    }
    (fine, omp_static, omp_dynamic)
}

/// The default regression input size used by the simulated Figure 3 (the Phoenix++
/// "medium" input, expressed in points).
pub const FIGURE3_POINTS: usize = 25_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> SimMachine {
        SimMachine::paper_machine()
    }

    #[test]
    fn table1_has_all_nine_rows_in_order() {
        let t = table1(&m());
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.rows[0].0, "Fine-grain hierarchical");
        assert_eq!(t.rows[1].0, "Fine-grain tree");
        assert_eq!(t.rows[4].0, "Fine-grain stealing");
        assert_eq!(t.rows[5].0, "Fine-grain steal-local");
        assert_eq!(t.rows[8].0, "Cilk");
        // Every burden is positive and the hierarchical fine-grain row is the smallest
        // (in particular no worse than the flat tree half-barrier).
        let values: Vec<f64> = t.rows.iter().map(|(_, v)| v[0]).collect();
        assert!(values.iter().all(|&v| v > 0.0));
        assert!(values[1..].iter().all(|&v| v >= values[0]));
    }

    #[test]
    fn thread_sweep_covers_one_to_max() {
        let sweep = thread_sweep(&m());
        assert_eq!(*sweep.first().unwrap(), 1);
        assert_eq!(*sweep.last().unwrap(), 48);
        assert!(sweep.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn figure2_fine_grain_wins_and_ratio_grows_with_threads() {
        let machine = m();
        let (fine, omp) = figure2_left(&machine);
        assert_eq!(fine.len(), omp.len());
        let ratio = figure2_right(&machine);
        // At 1 thread the schedulers are equivalent (ratio ≈ 1); at 48 threads the
        // fine-grain scheduler is ahead, and the advantage grows with the thread count,
        // which is the paper's headline Figure 2 observation.
        assert!((ratio.at(1).unwrap() - 1.0).abs() < 0.05);
        assert!(ratio.at(48).unwrap() > 1.05);
        assert!(ratio.at(48).unwrap() > ratio.at(12).unwrap_or(1.0));
    }

    #[test]
    fn figure3_fine_grain_beats_both_baselines_at_scale() {
        let machine = m();
        let (fine_a, cilk) = figure3a(&machine, 2_000_000);
        assert!(fine_a.at(48).unwrap() > cilk.at(48).unwrap());
        let (fine_b, omp_s, omp_d) = figure3b(&machine, 2_000_000);
        assert!(fine_b.at(48).unwrap() > omp_s.at(48).unwrap());
        assert!(omp_s.at(48).unwrap() > omp_d.at(48).unwrap());
    }
}

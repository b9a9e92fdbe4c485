//! Injectable schedule perturbation for the stealing runtime.
//!
//! The result of a stealing loop must be independent of *which* interleaving of pops
//! and steals actually happens, but a plain test run only ever explores the few
//! interleavings the host machine produces.  [`SchedulePerturbation`] is a hook the
//! pool consults before every steal sweep: it chooses the sweep's randomized victim
//! rotation and can insert a bounded busy-wait, so a seeded implementation
//! ([`SeededPerturbation`]) drives the pool through many distinct steal schedules
//! deterministically — the property tests derive the seed from the vendored proptest's
//! `PROPTEST_RNG_SEED` plumbing and assert the exactly-once invariants under each one.

/// What one steal sweep should do, as decided by a [`SchedulePerturbation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPlan {
    /// Seed of the sweep's victim rotation.  The sweep walks the thief's victim tiers
    /// (its own socket first, then each remote socket outward); within tier `t` it
    /// starts at position `seed.rotate_right(7 t) % tier.len()` and probes the rest of
    /// the tier in order.
    pub victim_seed: u64,
    /// Busy-wait iterations to spend before the sweep, shifting this worker relative
    /// to the others (bounded by the pool to keep tests fast).
    pub delay_spins: u32,
}

/// A hook deciding the victim order and timing of every steal sweep.
///
/// Implementations must be deterministic functions of their inputs if the test wants a
/// reproducible schedule; the default (no hook installed) uses a per-worker xorshift
/// generator, which is fast and unsynchronized but machine-timing dependent.
pub trait SchedulePerturbation: Send + Sync {
    /// Plans the `attempt`-th steal sweep of `worker` within loop `epoch`.
    fn steal_sweep(&self, worker: usize, epoch: u64, attempt: u64) -> SweepPlan;

    /// Scripts the exact victim visit order of the `attempt`-th sweep of `worker`,
    /// overriding the pool's tiered order and the plan's `victim_seed` rotation.  The
    /// pool visits the returned victims in order (entries equal to `worker` or
    /// `>= nthreads` are skipped); victims not listed are not probed at all in that
    /// sweep.  Return `None` (the default) to keep the tiered order.
    ///
    /// A [`SweepPlan`] can only *delay* a worker relative to the others; this hook is
    /// what lets a test script schedules like "the local tier is observed empty
    /// first, forcing the fall-back to a remote socket", or a flat ring that ignores
    /// sockets, deterministically.
    fn victim_order(
        &self,
        worker: usize,
        epoch: u64,
        attempt: u64,
        nthreads: usize,
    ) -> Option<Vec<usize>> {
        let _ = (worker, epoch, attempt, nthreads);
        None
    }
}

/// Maximum delay a [`SeededPerturbation`] inserts before one sweep, in spin iterations.
pub const MAX_PERTURB_SPINS: u32 = 256;

/// A deterministic perturbation: every sweep plan is a splitmix64 hash of
/// `(seed, worker, epoch, attempt)`, so two pools built with the same seed replay the
/// same victim orders and delays, while different seeds explore different schedules.
#[derive(Debug, Clone, Copy)]
pub struct SeededPerturbation {
    seed: u64,
}

impl SeededPerturbation {
    /// A perturbation replaying the schedule family identified by `seed`.
    pub fn new(seed: u64) -> Self {
        SeededPerturbation { seed }
    }
}

/// One splitmix64 scrambling step.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SchedulePerturbation for SeededPerturbation {
    fn steal_sweep(&self, worker: usize, epoch: u64, attempt: u64) -> SweepPlan {
        let mixed = splitmix64(
            self.seed
                ^ (worker as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ epoch.rotate_left(17)
                ^ attempt.rotate_left(41),
        );
        SweepPlan {
            victim_seed: mixed,
            delay_spins: (mixed >> 48) as u32 % MAX_PERTURB_SPINS,
        }
    }
}

/// A perturbation that scripts each worker's victim visit order verbatim: worker `w`
/// probes exactly `orders[w]` on every sweep (falling back to the seeded rotation when
/// `orders[w]` is absent or empty).  Delays still come from the wrapped
/// [`SeededPerturbation`], so a test can combine a fixed probe order with seeded
/// timing skew — the deterministic "local tier empty first" schedules the locality
/// battery is built on.
#[derive(Debug, Clone)]
pub struct ScriptedOrder {
    orders: Vec<Vec<usize>>,
    timing: SeededPerturbation,
}

impl ScriptedOrder {
    /// Scripts `orders[w]` as worker `w`'s victim visit order, with sweep delays
    /// drawn from a [`SeededPerturbation`] over `seed`.
    pub fn new(orders: Vec<Vec<usize>>, seed: u64) -> Self {
        ScriptedOrder {
            orders,
            timing: SeededPerturbation::new(seed),
        }
    }
}

impl SchedulePerturbation for ScriptedOrder {
    fn steal_sweep(&self, worker: usize, epoch: u64, attempt: u64) -> SweepPlan {
        self.timing.steal_sweep(worker, epoch, attempt)
    }

    fn victim_order(
        &self,
        worker: usize,
        _epoch: u64,
        _attempt: u64,
        _nthreads: usize,
    ) -> Option<Vec<usize>> {
        match self.orders.get(worker) {
            Some(order) if !order.is_empty() => Some(order.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = SeededPerturbation::new(42);
        let b = SeededPerturbation::new(42);
        let c = SeededPerturbation::new(43);
        assert_eq!(a.steal_sweep(1, 2, 3), b.steal_sweep(1, 2, 3));
        assert_ne!(a.steal_sweep(1, 2, 3), c.steal_sweep(1, 2, 3));
        assert_ne!(a.steal_sweep(1, 2, 3), a.steal_sweep(2, 2, 3));
        assert_ne!(a.steal_sweep(1, 2, 3), a.steal_sweep(1, 3, 3));
        assert_ne!(a.steal_sweep(1, 2, 3), a.steal_sweep(1, 2, 4));
    }

    #[test]
    fn delays_stay_bounded() {
        let p = SeededPerturbation::new(7);
        for attempt in 0..200 {
            let plan = p.steal_sweep(0, 1, attempt);
            assert!(plan.delay_spins < MAX_PERTURB_SPINS);
        }
    }

    #[test]
    fn seeded_perturbation_scripts_no_order() {
        let p = SeededPerturbation::new(7);
        assert_eq!(p.victim_order(0, 1, 2, 4), None);
    }

    #[test]
    fn scripted_order_replays_its_script_and_falls_back() {
        let p = ScriptedOrder::new(vec![vec![2, 1], vec![]], 9);
        // Worker 0 always probes 2 then 1, on every sweep.
        assert_eq!(p.victim_order(0, 1, 1, 4), Some(vec![2, 1]));
        assert_eq!(p.victim_order(0, 5, 9, 4), Some(vec![2, 1]));
        // Empty and unlisted workers fall back to the seeded rotation.
        assert_eq!(p.victim_order(1, 1, 1, 4), None);
        assert_eq!(p.victim_order(3, 1, 1, 4), None);
        // Delays still come from the wrapped seeded perturbation.
        assert_eq!(
            p.steal_sweep(2, 3, 4),
            SeededPerturbation::new(9).steal_sweep(2, 3, 4)
        );
    }
}

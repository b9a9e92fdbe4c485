//! Heap allocations per loop, counted: once warm, a loop allocates nothing.
//!
//! A counting global allocator wraps the system allocator.  The single test below
//! warms every covered runtime up at P ∈ {1, 2, 4} (lease activation, worker spawn,
//! the first use of the team's reduction-view blocks), then asserts that further
//! `parallel_for`, `parallel_for_blocks`, `parallel_sum`, `parallel_reduce` and
//! `parallel_reduce_blocks` calls, and the generic `for_each` and `reduce` — over `f64`
//! and over a struct of three `f64`s — make exactly zero allocations.  The OpenMP-like
//! team is covered under `static`, `dynamic,2` and `guided,1`, whose dispensers the job
//! reaches through its dealer.  Counted are the
//! test's own thread and every thread that first allocates after the test starts (the
//! pools' workers); the harness's main thread, which may still be doing its
//! bookkeeping for the test it just spawned, is not.  It is one test function so that
//! no sibling test allocates while it counts.

use parlo_cilk::CilkFineGrain;
use parlo_core::{BarrierKind, Config, FineGrainPool, LoopRuntime, Loops};
use parlo_omp::{Schedule, ScheduledTeam};
use parlo_steal::StealPool;
use parlo_sync::{AtomicBool, AtomicU64, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counted allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Set when the test starts: a thread the allocator first sees afterwards is counted.
static STARTED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread's allocations are counted, decided on its first one.
    static COUNTED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Counts one allocation if the calling thread is counted.
fn count() {
    let counted = COUNTED.try_with(|c| {
        let counted = c.get().unwrap_or_else(|| STARTED.load(Ordering::Relaxed));
        c.set(Some(counted));
        counted
    });
    if counted == Ok(true) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The system allocator, counting every call that can hand out memory.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments unchanged; the
// counting is a side effect that allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The shape of the linear-regression partial sums: a reduction wider than a word.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Sums {
    x: f64,
    y: f64,
    xy: f64,
}

const N: usize = 512;

/// One loop call on a runtime.
type Op<R> = fn(&mut R);

/// Runs `op` once to warm it up, then `REPS` more times, and returns the allocations
/// those `REPS` calls made.
fn allocations_per_call<R>(rt: &mut R, op: Op<R>) -> f64 {
    const REPS: u64 = 50;
    op(rt);
    let before = ALLOCATIONS.load(Ordering::SeqCst); // ordering: sharp window edge
    for _ in 0..REPS {
        op(rt);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst); // ordering: sharp window edge
    (after - before) as f64 / REPS as f64
}

/// Every loop entry point of `rt`, generic and object-safe, measured warm; a call that
/// allocates is reported in `failures`, labelled `at`.
fn check<R: Loops + LoopRuntime>(at: &str, rt: &mut R, failures: &mut Vec<String>) {
    let ops: [(&str, Op<R>); 8] = [
        ("parallel_for", |rt| {
            rt.parallel_for(0..N, &|i| {
                std::hint::black_box(i);
            })
        }),
        ("parallel_for_blocks", |rt| {
            rt.parallel_for_blocks(0..N, &|piece| {
                std::hint::black_box(piece);
            })
        }),
        ("parallel_sum", |rt| {
            let s = rt.parallel_sum(0..N, &|i| i as f64);
            assert_eq!(s, (N * (N - 1) / 2) as f64);
        }),
        ("parallel_reduce f64", |rt| {
            let fold = |a: f64, i: usize| a.max(i as f64);
            let m = rt.parallel_reduce(0..N, 0.0, &fold, &|a, b| a.max(b));
            assert_eq!(m, (N - 1) as f64);
        }),
        ("parallel_reduce_blocks f64", |rt| {
            let fold = |a: f64, piece: std::ops::Range<usize>| piece.fold(a, |a, i| a + i as f64);
            let s = rt.parallel_reduce_blocks(0..N, 0.0, &fold, &|a, b| a + b);
            assert_eq!(s, (N * (N - 1) / 2) as f64);
        }),
        ("for_each", |rt| {
            rt.for_each(0..N, |i| {
                std::hint::black_box(i);
            })
        }),
        ("reduce f64", |rt| {
            let s = rt.reduce(0..N, || 0.0, |a, i| a + i as f64, |a, b| a + b);
            assert_eq!(s, (N * (N - 1) / 2) as f64);
        }),
        ("reduce 3 x f64", |rt| {
            // Σ (i, 2i, i·2i) over `0..N`.
            let fold = |a: Sums, i: usize| {
                let (x, y) = (i as f64, 2.0 * i as f64);
                Sums {
                    x: a.x + x,
                    y: a.y + y,
                    xy: a.xy + x * y,
                }
            };
            let comb = |a: Sums, b: Sums| Sums {
                x: a.x + b.x,
                y: a.y + b.y,
                xy: a.xy + b.xy,
            };
            let s = rt.reduce(0..N, Sums::default, fold, comb);
            assert_eq!(s.y, 2.0 * s.x);
        }),
    ];
    for (op_name, op) in ops {
        let per_call = allocations_per_call(rt, op);
        if per_call != 0.0 {
            failures.push(format!("{at}: {op_name} allocates {per_call}/call"));
        }
    }
}

#[test]
fn no_heap_allocation_per_loop_after_warm_up() {
    STARTED.store(true, Ordering::Relaxed);
    COUNTED.with(|c| c.set(Some(true)));
    let mut failures = Vec::new();
    for p in [1, 2, 4] {
        for kind in BarrierKind::ALL {
            let mut pool = FineGrainPool::new(Config::builder(p).barrier(kind).build());
            check(
                &format!("{} @ P={p}", kind.label()),
                &mut pool,
                &mut failures,
            );
        }
        for (label, schedule) in [
            ("static", Schedule::Static),
            ("dynamic,2", Schedule::Dynamic(2)),
            ("guided,1", Schedule::Guided(1)),
        ] {
            let mut team = ScheduledTeam::with_threads(p, schedule);
            check(&format!("OpenMP {label} @ P={p}"), &mut team, &mut failures);
        }
        let mut hybrid = CilkFineGrain::with_threads(p);
        check(
            &format!("fine-grain Cilk @ P={p}"),
            &mut hybrid,
            &mut failures,
        );
        let mut steal = StealPool::with_threads(p);
        check(&format!("stealing @ P={p}"), &mut steal, &mut failures);
    }
    assert!(
        failures.is_empty(),
        "loops allocate after warm-up:\n{}",
        failures.join("\n")
    );
}

//! The process-wide substrate thread census, shared by the batteries that assert it
//! (`exec_substrate`, `serve_battery`).

use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of one binary: they all measure the process-wide thread
/// census, so they must not overlap.
pub fn census_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Counts the live threads of this process whose name starts with `parlo-exec`
/// (substrate workers are named `parlo-exec-<id>`; nothing else in the workspace
/// spawns threads), which makes it immune to the test harness's own threads.  `None`
/// where `/proc` does not exist.
pub fn substrate_thread_census() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for task in tasks.flatten() {
        if let Ok(name) = std::fs::read_to_string(task.path().join("comm")) {
            if name.trim_end().starts_with("parlo-exec") {
                count += 1;
            }
        }
    }
    Some(count)
}

/// Asserts that no substrate thread is left after the caller dropped its handles.
///
/// The workers are joined by whichever thread drops the *last* `Arc<Executor>`; when
/// that is a driver thread still on its way out, the joins land a moment after the
/// caller's own `drop` returned.  So the census is given a bounded, clock-free grace:
/// yield, look again, and fail only if it is still non-zero after `SETTLE_YIELDS`.
pub fn assert_census_settles_to_zero(what: &str) {
    const SETTLE_YIELDS: usize = 10_000;
    for _ in 0..SETTLE_YIELDS {
        if substrate_thread_census().unwrap_or(0) == 0 {
            return;
        }
        std::thread::yield_now();
    }
    assert_eq!(substrate_thread_census().unwrap_or(0), 0, "{what}");
}

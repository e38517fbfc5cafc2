//! `--threads T` means `T` running threads: the process-wide pool behind a
//! `T`-thread region holds `T − 1` workers and the forking thread executes
//! the remaining share itself.
//!
//! This lives in its own test binary (one test, one process) because it
//! pins the size of the *process-wide* pool, which any other test could
//! have grown first.

use machine::{global_pool, parallel_for_state_pooled, OmpSchedule};
use std::collections::HashSet;
use std::sync::Barrier;
use std::thread::ThreadId;

#[test]
fn a_t_thread_region_runs_on_t_threads_one_of_which_is_the_caller() {
    const T: usize = 4;
    let pool = global_pool(T);
    assert_eq!(pool.len(), T - 1, "the caller replaces one worker");

    // Every share blocks until all T are running, so the T shares are on
    // T threads at once — no timing involved, and a pool that left the
    // caller asleep (T − 1 threads for T shares) would never get there.
    let barrier = Barrier::new(T);
    let ids: Vec<ThreadId> = parallel_for_state_pooled(
        T as u64,
        T,
        OmpSchedule::Static,
        |_tid| std::thread::current().id(),
        |_id, _i| {
            barrier.wait();
        },
    );
    assert_eq!(ids.len(), T);
    let distinct: HashSet<&ThreadId> = ids.iter().collect();
    assert_eq!(distinct.len(), T, "shares ran on {ids:?}");
    assert!(
        ids.contains(&std::thread::current().id()),
        "the forking thread must execute a share: {ids:?}"
    );
    // Asking again neither grows nor replaces the pool.
    assert!(std::sync::Arc::ptr_eq(&pool, &global_pool(T)));
}

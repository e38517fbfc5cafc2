//! # machine — parallel runtime and machine model
//!
//! Two halves:
//!
//! * [`omprt`] — a real miniature OpenMP runtime (thread pool, static /
//!   dynamic / guided loop schedules) used to *execute* transformed
//!   programs in parallel. It parses no C: a loop's schedule arrives as
//!   an [`OmpSchedule`] value, read off the loop's header by the engines;
//! * [`sim`] — the analytic cost model of the paper's evaluation machine
//!   (4 × AMD Opteron 6272) and compilers (GCC 7.2 -O2, ICC 16), used by
//!   `apps::figures` to regenerate every figure's series at paper
//!   scale (4096² matrices, 64 cores) where direct execution is
//!   infeasible.

#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod omprt;
pub mod sim;

pub use omprt::{
    global_pool, instrument, on_worker_thread, parallel_for_pooled, parallel_for_state_pooled,
    spawn_capacity, FutureReport, OmpSchedule, PoolStats, PureFuture, TaskGroup, ThreadPool,
    LOCAL_QUEUE_LIMIT, SATURATION_FACTOR, STACK_SIZE,
};
pub use sim::{
    program_time, region_time, speedup, Compiler, CompilerKind, CostProfile, Machine, Variant,
    Workload,
};

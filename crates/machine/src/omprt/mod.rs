//! omprt — a miniature OpenMP runtime.
//!
//! The paper's generated code relies on libgomp (`#pragma omp parallel
//! for`, `schedule(static)`, `schedule(dynamic,1)`). This module provides
//! the equivalent runtime on native threads so transformed programs can be
//! *executed* in parallel by the interpreter, and so the scheduling
//! policies (static contiguous chunks vs. dynamic work queues — the
//! satellite vs. LAMA distinction of Sect. 4.3.3/4.3.4) exist as real,
//! testable code rather than only as cost-model constants. The runtime
//! reads no pragma text: a caller hands it an [`OmpSchedule`] value.

pub(crate) mod deque;
pub mod futures;
pub mod instrument;
pub mod pool;
pub mod sched;

pub use futures::{spawn_capacity, FutureReport, PureFuture, LOCAL_QUEUE_LIMIT, SATURATION_FACTOR};
pub use instrument::{
    Event, EventKind, GaugeSnapshot, HistSnapshot, Metrics, MetricsSnapshot, SpanGuard,
};
pub use pool::{
    global_pool, on_worker_thread, Placement, PoolStats, TaskGroup, ThreadPool, STACK_SIZE,
};
pub use sched::{parallel_for_pooled, parallel_for_state_pooled, OmpSchedule};

//! One `omp parallel for` region, launched the same way by every engine.
//!
//! [`launch`] is the protocol, in order: (1) a `region` trace span over
//! all of it; (2) one heap region ([`Memory::enter_region`]), so every
//! `free` inside it — the checked iterations' included — is reclaimed at
//! the join; (3) under `--race-check`, the static verdict: `Independent`
//! skips the dynamic check, `Racy` fails before any iteration runs,
//! `Unknown` runs (4) the dynamic check — the first `min(n, cap)`
//! iterations on one worker with their accesses tracked and proven
//! pairwise disjoint; they are the run's own, so the launch runs only
//! the rest (and the region counts as inline when none is left); (5) the
//! launching thread hands its fuel grant back, since it executes nothing
//! until the join; (6) a region whose work bound × trip count is below
//! [`crate::REGION_INLINE_WORK`] runs on the caller, any other forks;
//! (7) the launch: the first error wins and iterations not yet started
//! bail once one failed (trap-drains-siblings); (8) each worker retires,
//! handing its fuel back and merging what it kept.
//!
//! Each worker owns its state for the whole region and merges once at
//! the join (McKenney). An engine supplies only what differs: a
//! [`Snapshot`] of the launching frame, which builds workers and runs one
//! iteration, and what retiring merges ([`Worker::absorb`]).

use crate::interp::{InterpOptions, RuntimeError};
use crate::value::{Counters, Memory, RaceAccumulator, TrackSets};
use cfront::ast::{LoopVerdict, OmpFor, ScheduleClause, ScheduleKind};
use cfront::span::Span;
use machine::omprt::instrument;
use machine::{parallel_for_state_pooled, OmpSchedule};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type RtResult<T> = Result<T, RuntimeError>;

/// One region as an engine found it: iterations `lb ..= ub`.
pub(crate) struct Launch {
    pub(crate) lb: i64,
    pub(crate) ub: i64,
    pub(crate) schedule: OmpSchedule,
    /// Static race verdict (Unknown when no analysis ran).
    pub(crate) verdict: LoopVerdict,
    /// The loop: where a `Racy` verdict reports.
    pub(crate) span: Span,
    /// The body: where the dynamic check reports a race.
    pub(crate) body_span: Span,
    /// Dispatches one iteration takes at most, when bounded (the VM's
    /// `BRegion::work`). `None` forks the region whatever its size.
    pub(crate) work: Option<u32>,
}

/// The runtime's schedule for a loop's OpenMP header, on every engine. A
/// header with no schedule the runtime models runs `static`, and so does
/// `schedule(static, 1)`.
pub(crate) fn schedule(header: &OmpFor) -> OmpSchedule {
    let Some(ScheduleClause { kind, chunk }) = header.schedule else {
        return OmpSchedule::Static;
    };
    match kind {
        ScheduleKind::Static => match chunk {
            Some(c) if c > 1 => OmpSchedule::StaticChunk(c),
            _ => OmpSchedule::Static,
        },
        ScheduleKind::Dynamic => OmpSchedule::Dynamic(chunk.unwrap_or(1)),
        ScheduleKind::Guided => OmpSchedule::Guided(chunk.unwrap_or(1).max(1)),
    }
}

/// One thread of an engine: the launching one, and each region worker.
pub(crate) trait Worker: Send + Sized {
    /// The run's options, shared counters and heap.
    fn env(&self) -> (&InterpOptions, &Arc<Counters>, &Memory);
    /// Access sets of the iteration being checked; `Some` turns tracking on.
    fn track(&mut self) -> &mut Option<TrackSets>;
    /// Hand the unused local fuel grant back to the shared budget.
    fn refund_fuel(&mut self);
    /// Merge a retired worker's private state into this thread (nothing
    /// when its counters and caches are the run's shared ones).
    fn absorb(&mut self, _worker: Self) {}
}

/// The launching frame as every worker starts each iteration from it.
pub(crate) trait Snapshot: Sync {
    type Worker: Worker;
    fn worker(&self) -> Self::Worker;
    /// Run the iteration whose iterator value is `i` on `w`, from a fresh
    /// copy of the frame. A failed iteration leaves no future in flight:
    /// the worker may be reused.
    fn run(&self, w: &mut Self::Worker, i: i64) -> RtResult<()>;
}

/// Launch the region `l` from `parent`; `snapshot` captures its frame
/// (once for the dynamic check, once more for the launch, so the launch
/// sees what the checked iterations left in the parent, memo entries
/// included).
pub(crate) fn launch<S: Snapshot>(
    parent: &mut S::Worker,
    l: &Launch,
    mut snapshot: impl FnMut(&mut S::Worker) -> S,
) -> RtResult<()> {
    if l.ub < l.lb {
        return Ok(());
    }
    let (mut lb, mut n) = (l.lb, (l.ub - l.lb + 1) as u64);
    let _span = instrument::span("region", n);
    let (opts, counters, mem) = {
        let (opts, counters, mem) = parent.env();
        (*opts, Arc::clone(counters), mem.clone())
    };
    let _region = mem.enter_region();
    let check = opts.race_check
        && match l.verdict {
            LoopVerdict::Independent => {
                Counters::bump(&counters.race_static_skips);
                false
            }
            LoopVerdict::Racy => {
                return Err(RuntimeError::at(
                    "static race analysis rejected this parallel loop (verdict: racy)",
                    l.span,
                ))
            }
            LoopVerdict::Unknown => true,
        };
    parent.refund_fuel();
    if check {
        instrument::instant("region.race_check", n);
        let checked = n.min(opts.effective_race_check_cap());
        counters
            .race_dyn_iters
            .fetch_add(checked, Ordering::Relaxed);
        let snap = snapshot(parent);
        race_check(parent, snap, lb, checked, l.body_span)?;
        lb += checked as i64;
        n -= checked;
        if n == 0 {
            Counters::bump(&counters.regions_inline);
            return Ok(());
        }
    }
    let inline = l
        .work
        .is_some_and(|w| n.saturating_mul(u64::from(w)) < crate::REGION_INLINE_WORK);
    let threads = if inline {
        Counters::bump(&counters.regions_inline);
        1
    } else {
        Counters::bump(&counters.regions_forked);
        opts.threads
    };

    let snap = snapshot(parent);
    let err: Mutex<Option<RuntimeError>> = Mutex::new(None);
    let failed = AtomicBool::new(false);
    let workers = parallel_for_state_pooled(
        n,
        threads,
        l.schedule,
        |_tid| snap.worker(),
        |w, k| {
            if failed.load(Ordering::Relaxed) {
                return;
            }
            if let Err(e) = snap.run(w, lb + k as i64) {
                failed.store(true, Ordering::Relaxed);
                let mut g = err.lock();
                if g.is_none() {
                    *g = Some(e);
                }
            }
        },
    );
    for w in workers {
        retire(parent, w);
    }
    err.into_inner().map_or(Ok(()), Err)
}

/// Run iterations `lb .. lb + checked` one at a time on one worker and
/// prove their access sets pairwise disjoint (write/write and
/// write/read) — the dynamic counterpart of the purity guarantee.
fn race_check<S: Snapshot>(
    parent: &mut S::Worker,
    snap: S,
    lb: i64,
    checked: u64,
    body_span: Span,
) -> RtResult<()> {
    let mut acc = RaceAccumulator::default();
    let mut w = snap.worker();
    let mut result = Ok(());
    for k in 0..checked {
        *w.track() = Some(TrackSets::default());
        let res = snap.run(&mut w, lb + k as i64);
        let t = w.track().take().expect("tracking on");
        result = res.and_then(|()| {
            acc.absorb(t)
                .map_err(|msg| RuntimeError::at(msg, body_span))
        });
        if result.is_err() {
            break;
        }
    }
    retire(parent, w);
    result
}

fn retire<W: Worker>(parent: &mut W, mut w: W) {
    w.refund_fuel();
    parent.absorb(w);
}

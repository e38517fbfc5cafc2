//! What one thread of a tree-walking oracle carries besides its frames.
//!
//! The resolved-IR engine and the legacy tree-walker walk different
//! trees over different frames, but a thread of either meters its
//! statements against the same step limit and shared fuel budget,
//! counts and (under race-check) tracks its memory accesses the same
//! way, lays arrays out as the same spine of pointers and books
//! [`ops`] results on the same shared counters. That part is
//! [`WalkCtx`], embedded by both. The VM keeps its own: its values are
//! [`crate::value::Packed`] and its counters a per-worker
//! [`crate::value::Tally`].

use crate::interp::{next_fuel_block, RuntimeError};
use crate::ops::{self, Counted};
use crate::value::{Counters, FuelBudget, Memory, Ptr, Scalar, TrackSets};
use cfront::ast::BinOp;
use cfront::span::Span;
use std::sync::Arc;

type RtResult<T> = Result<T, RuntimeError>;

/// How a statement of either tree ended.
pub(crate) enum Flow {
    Normal,
    Break,
    Continue,
    Return(Scalar),
}

pub(crate) struct WalkCtx {
    mem: Memory,
    counters: Arc<Counters>,
    /// The run's one instruction budget, shared by every thread.
    fuel: Option<Arc<FuelBudget>>,
    max_steps: u64,
    steps: u64,
    /// Locally-held fuel (statements this thread may still execute
    /// before refilling from the shared budget). `u64::MAX` when no
    /// budget is configured, so the hot path stays one predictable
    /// branch plus a decrement.
    fuel_local: u64,
    /// Access sets of the iteration being race-checked.
    pub(crate) track: Option<TrackSets>,
}

impl WalkCtx {
    pub(crate) fn new(
        mem: &Memory,
        counters: &Arc<Counters>,
        fuel: &Option<Arc<FuelBudget>>,
        max_steps: u64,
    ) -> Self {
        WalkCtx {
            mem: mem.clone(),
            counters: Arc::clone(counters),
            fuel: fuel.clone(),
            max_steps,
            steps: 0,
            fuel_local: if fuel.is_some() { 0 } else { u64::MAX },
            track: None,
        }
    }

    /// One statement: the step limit, then one unit of fuel.
    pub(crate) fn step(&mut self, span: Span) -> RtResult<()> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(RuntimeError::at(
                "step limit exceeded (infinite loop?)",
                span,
            ));
        }
        if self.fuel_local == 0 {
            self.fuel_local = next_fuel_block(&self.fuel, span)?;
        }
        self.fuel_local -= 1;
        Ok(())
    }

    /// Start a region iteration on a reused worker: the step limit
    /// counts from zero, as on a fresh thread.
    pub(crate) fn start_iteration(&mut self) {
        self.steps = 0;
    }

    /// Hand unused local fuel back to the shared budget — called when a
    /// region or future child retires, so a finishing worker's block is
    /// available to its siblings instead of silently burned.
    pub(crate) fn refund_fuel(&mut self) {
        if let Some(budget) = &self.fuel {
            budget.refund(std::mem::take(&mut self.fuel_local));
        }
    }

    /// Race-check bookkeeping of one access to global slot `slot`.
    pub(crate) fn track_global(&mut self, slot: usize, write: bool) {
        if let Some(t) = &mut self.track {
            t.global(slot, write);
        }
    }

    pub(crate) fn mem_load(&mut self, p: Ptr, span: Span) -> RtResult<Scalar> {
        Counters::bump(&self.counters.loads);
        if let Some(t) = &mut self.track {
            t.heap(p, false);
        }
        self.mem
            .load(p)
            .map_err(|e| RuntimeError::from_mem(e, span))
    }

    pub(crate) fn mem_store(&mut self, p: Ptr, v: Scalar, span: Span) -> RtResult<()> {
        Counters::bump(&self.counters.stores);
        if let Some(t) = &mut self.track {
            t.heap(p, true);
        }
        self.mem
            .store(p, v)
            .map_err(|e| RuntimeError::from_mem(e, span))
    }

    /// A local or global array ([`Memory::try_alloc_array`]).
    pub(crate) fn alloc_array(&self, dims: &[usize], span: Span) -> RtResult<Ptr> {
        self.mem
            .try_alloc_array(dims)
            .map_err(|e| RuntimeError::from_mem(e, span))
    }

    /// A string literal: one char per slot, NUL-terminated.
    pub(crate) fn alloc_str(&mut self, s: &str, span: Span) -> RtResult<Ptr> {
        let p = self.alloc_array(&[s.chars().count() + 1], span)?;
        for (i, ch) in s.chars().chain(['\0']).enumerate() {
            self.mem_store(p.offset(i as i64), Scalar::I(ch as i64), span)?;
        }
        Ok(p)
    }

    /// `printf`'s format given as a value: read the char pointer back.
    pub(crate) fn read_str(&mut self, v: Scalar, span: Span) -> RtResult<String> {
        let Scalar::P(mut p) = v else {
            return Err(RuntimeError::at("printf format is not a string", span));
        };
        let mut s = String::new();
        while let Scalar::I(ch) = self.mem_load(p, span)? {
            if ch == 0 {
                break;
            }
            s.push(char::from_u32(ch as u32).unwrap_or('?'));
            p = p.offset(1);
        }
        Ok(s)
    }

    /// Book an [`ops`] result on the run's shared counters.
    pub(crate) fn counted(&self, (v, counted): (Scalar, Counted)) -> Scalar {
        match counted {
            Counted::None => {}
            Counted::Int => Counters::bump(&self.counters.int_ops),
            Counted::Float => Counters::bump(&self.counters.flops),
        }
        v
    }

    /// [`ops::binop`] with the engines' error type and counters.
    pub(crate) fn binop(&self, op: BinOp, l: Scalar, r: Scalar, span: Span) -> RtResult<Scalar> {
        match ops::binop(op, l, r) {
            Ok(out) => Ok(self.counted(out)),
            Err(msg) => Err(RuntimeError::at(msg, span)),
        }
    }
}

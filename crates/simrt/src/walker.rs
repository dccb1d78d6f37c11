//! The one control-flow interpreter of a [`Program`].
//!
//! A [`Walker`] steps through a statement list with an explicit frame
//! stack: it iterates loops, takes branches and enters calls itself
//! (choosing an indirect call's target and tallying it in the collector),
//! and hands every other statement — compute, lock, communication, thread
//! region — to its caller. A rank segment asks it for one statement per
//! step; a thread region drives one walker per thread to completion to
//! build that thread's segment list.

use progmodel::{CallTarget, EvalCtx, Program, Stmt, StmtId, StmtKind};

use crate::cct::{CtxFrame, CtxId};
use crate::collector::Collector;
use crate::error::SimError;

/// Calls nested deeper than this fail with [`SimError::StackOverflow`].
const MAX_CALL_DEPTH: usize = 256;

#[derive(Debug)]
enum FrameKind {
    /// A branch body.
    Body,
    /// A called function's body.
    Call,
    Loop {
        trips: u64,
        cur: u64,
    },
}

#[derive(Debug)]
struct Frame<'p> {
    stmts: &'p [Stmt],
    idx: usize,
    ctx: CtxId,
    kind: FrameKind,
}

/// What [`Walker::next`] reached.
pub(crate) enum Next<'p> {
    /// The walked body is finished.
    Done,
    /// A loop, branch or call, which the walker entered.
    Entered,
    /// A statement for the caller to execute, in its context. The walker
    /// has already moved past it.
    Leaf(&'p Stmt, CtxId),
}

/// A frame stack over one statement list, with the loop iteration indices
/// its expressions see.
#[derive(Debug)]
pub(crate) struct Walker<'p> {
    frames: Vec<Frame<'p>>,
    /// Innermost-last loop iteration indices ([`EvalCtx::iters`]).
    iters: Vec<u64>,
    /// Call frames on the stack.
    depth: usize,
}

impl<'p> Walker<'p> {
    /// Walk `stmts` in context `ctx`, inside loops at iterations `iters`.
    pub(crate) fn new(stmts: &'p [Stmt], ctx: CtxId, iters: &[u64]) -> Self {
        let mut w = Walker {
            frames: Vec::new(),
            iters: Vec::new(),
            depth: 0,
        };
        w.restart(stmts, ctx, iters);
        w
    }

    /// Walk `stmts` afresh, as [`Walker::new`] would, reusing the stacks.
    pub(crate) fn restart(&mut self, stmts: &'p [Stmt], ctx: CtxId, iters: &[u64]) {
        self.frames.clear();
        self.frames.push(Frame {
            stmts,
            idx: 0,
            ctx,
            kind: FrameKind::Body,
        });
        self.iters.clear();
        self.iters.extend_from_slice(iters);
        self.depth = 0;
    }

    /// `base` at the walker's current loop iterations.
    pub(crate) fn ectx<'s>(&'s self, base: &EvalCtx<'s>) -> EvalCtx<'s> {
        EvalCtx {
            iters: &self.iters,
            ..*base
        }
    }

    /// The statement [`Walker::next`] would reach in the innermost frame.
    pub(crate) fn current(&self) -> Option<StmtId> {
        let f = self.frames.last()?;
        f.stmts.get(f.idx).map(|s| s.id)
    }

    /// Move to the next statement and, if it is control flow, enter it.
    /// Expressions are evaluated in `base` at the walker's iterations;
    /// contexts are interned in `col`'s calling-context tree.
    #[inline]
    pub(crate) fn next(
        &mut self,
        prog: &'p Program,
        base: &EvalCtx<'_>,
        col: &mut Collector,
    ) -> Result<Next<'p>, SimError> {
        // Leave finished bodies; start a loop's next trip.
        let (stmt, ctx) = loop {
            let Some(frame) = self.frames.last_mut() else {
                return Ok(Next::Done);
            };
            let stmts = frame.stmts;
            if let Some(stmt) = stmts.get(frame.idx) {
                frame.idx += 1;
                break (stmt, col.data.cct.child(frame.ctx, CtxFrame::Stmt(stmt.id)));
            }
            match &mut frame.kind {
                FrameKind::Loop { trips, cur } if *cur + 1 < *trips => {
                    *cur += 1;
                    frame.idx = 0;
                    *self.iters.last_mut().unwrap() = *cur;
                    continue;
                }
                FrameKind::Loop { .. } => {
                    self.iters.pop();
                }
                FrameKind::Call => self.depth -= 1,
                FrameKind::Body => {}
            }
            self.frames.pop();
        };
        let (stmts, ctx, kind) = match &stmt.kind {
            StmtKind::Loop { trips, body, .. } => {
                let trips = trips.eval_u64(&self.ectx(base));
                if trips == 0 {
                    return Ok(Next::Entered);
                }
                self.iters.push(0);
                (body, ctx, FrameKind::Loop { trips, cur: 0 })
            }
            StmtKind::Branch {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let taken = cond.eval(&self.ectx(base)) != 0.0;
                let body = if taken { then_body } else { else_body };
                (body, ctx, FrameKind::Body)
            }
            StmtKind::Call { target } => {
                if self.depth >= MAX_CALL_DEPTH {
                    return Err(SimError::StackOverflow { stmt: stmt.id });
                }
                let fid = match target {
                    CallTarget::Static(f) => *f,
                    CallTarget::Indirect {
                        candidates,
                        selector,
                    } => {
                        let i = selector.eval_u64(&self.ectx(base)) as usize % candidates.len();
                        col.indirect(stmt.id, candidates[i]);
                        candidates[i]
                    }
                };
                self.depth += 1;
                let fctx = col.data.cct.child(ctx, CtxFrame::Func(fid));
                (&prog.function(fid).body, fctx, FrameKind::Call)
            }
            _ => return Ok(Next::Leaf(stmt, ctx)),
        };
        self.frames.push(Frame {
            stmts,
            idx: 0,
            ctx,
            kind,
        });
        Ok(Next::Entered)
    }
}

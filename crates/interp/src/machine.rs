//! The resumable rank machine: one rank's execution as an explicit state
//! machine over the slot-indexed executor ([`crate::exec`]).
//!
//! A rank may block at exactly four statement-level builtins —
//! `mpi_waitall_recv`, `mpi_waitall`, `mpi_barrier`, `mpi_alltoall` — so
//! those are the only suspension points. Everything else (assignments,
//! summarized blocks, `mpi_isend`/`mpi_irecv` posting, prints) delegates
//! wholesale to the recursive [`Interp`], which cannot block; reusing the
//! same code paths is what makes byte-identity with the thread-per-rank
//! engine free by construction rather than something to re-verify.
//!
//! Control flow that may *contain* a blocking statement (`if` bodies,
//! slow-path `do` loops, user-procedure calls) is modelled as an explicit
//! continuation stack ([`Cont`]) so the machine can return to the host
//! worker mid-program and be resumed later — the "parked frame" of
//! DESIGN.md §3. The summarized `do` fast path runs inline: its body is a
//! single straight-line block with no calls, so it can never suspend.
//!
//! ## Determinism
//!
//! Suspension replays nothing and skips nothing: each blocking builtin
//! charges, evaluates, encodes, and registers exactly once at first
//! encounter (the `begin` half), and the parked [`Wait`] holds only what
//! the completion half needs. The rank's virtual clock is untouched while
//! parked — `Comm`'s poll methods only advance it on success, by the same
//! arithmetic the blocking calls use — so host-side resume order cannot
//! leak into any virtual time (argument in DESIGN.md §3).

use crate::cost::Options;
use crate::env::ArrayHandle;
use crate::exec::{FrameCell, Interp};
use crate::lower::{Builtin, LProc, LProgram, LStmt};
use crate::run::{rank_output, RankOutput};
use crate::value::Scalar;
use clustersim::{Comm, RankMachine, Step};
use std::rc::Rc;

/// One saved control-flow frame.
enum Cont<'p> {
    /// A statement list being executed in `frame`; `next` indexes the
    /// statement to run when this frame is on top.
    Body {
        proc: &'p LProc,
        frame: Rc<FrameCell>,
        stmts: &'p [LStmt],
        next: usize,
    },
    /// A slow-path `do` loop between iterations. `entered` distinguishes
    /// the first visit from a return after an iteration's body (which owes
    /// the loop's per-iteration bookkeeping charge and the increment).
    Loop {
        proc: &'p LProc,
        frame: Rc<FrameCell>,
        var: u32,
        body: &'p [LStmt],
        i: i64,
        hi: i64,
        st: i64,
        entered: bool,
    },
}

/// What a parked rank is waiting for — the saved completion half of the
/// one blocking builtin it stopped inside.
enum Wait {
    /// `mpi_waitall_recv` (`drain_sends: false`) or `mpi_waitall`
    /// (`drain_sends: true`): all posted receives must match.
    Recvs { drain_sends: bool },
    Barrier,
    /// The rendezvous is joined; on completion, decode `count` elements
    /// per partner into the saved receive window.
    Alltoall { recv: ArrayHandle, count: usize },
}

enum Flow {
    Continue,
    Blocked,
}

/// A rank's entire suspended execution state. Stepped by
/// [`clustersim::Cluster::run_resumable`] workers; never two at once.
pub(crate) struct Machine<'p> {
    interp: Interp<'p>,
    stack: Vec<Cont<'p>>,
    /// The main procedure's frame, kept for the final array dump.
    main_frame: Option<Rc<FrameCell>>,
    wait: Option<Wait>,
    started: bool,
}

// SAFETY: the scheduler hands each rank to exactly one worker at a time
// (sched.rs exclusive-execution invariant, enforced by the per-rank cell
// mutex in `run_resumable`), so the `Rc`/`RefCell` state in here is never
// aliased across threads — it only *moves* between workers at step
// boundaries. No `Rc` crosses a rank boundary: payloads travel between
// ranks as `Bytes`, and every frame/pending-buffer `Rc` is reachable only
// from this machine.
unsafe impl Send for Machine<'_> {}

impl<'p> Machine<'p> {
    pub fn new(program: &'p LProgram, opts: &'p Options) -> Machine<'p> {
        Machine {
            interp: Interp::new(program, opts),
            stack: Vec::new(),
            main_frame: None,
            wait: None,
            started: false,
        }
    }

    /// Resolve the pending blocking point, if any. Returns `false` —
    /// leaving the wait parked in place — when its condition isn't met.
    fn try_finish_wait(&mut self, comm: &mut Comm) -> bool {
        let Some(wait) = self.wait.take() else {
            return true;
        };
        match wait {
            Wait::Recvs { drain_sends } => match comm.poll_wait_all_recvs() {
                Some(done) => {
                    if drain_sends {
                        // Purely local: never blocks. Ordered after the
                        // receive matching exactly as in `Comm::wait_all`.
                        comm.drain_sends();
                        self.interp.finish_waitall(done);
                    } else {
                        self.interp.apply_received(done);
                    }
                    true
                }
                None => {
                    self.wait = Some(Wait::Recvs { drain_sends });
                    false
                }
            },
            Wait::Barrier => match comm.poll_barrier() {
                Some(()) => true,
                None => {
                    self.wait = Some(Wait::Barrier);
                    false
                }
            },
            Wait::Alltoall { recv, count } => match comm.poll_alltoall() {
                Some(received) => {
                    Interp::finish_alltoall(&recv, count, received);
                    true
                }
                None => {
                    self.wait = Some(Wait::Alltoall { recv, count });
                    false
                }
            },
        }
    }

    /// Execute one statement. Structural statements push continuations;
    /// blocking builtins run their begin half and poll; everything else
    /// delegates to the recursive executor.
    fn dispatch(
        &mut self,
        proc: &'p LProc,
        frame: Rc<FrameCell>,
        s: &'p LStmt,
        comm: &mut Comm,
    ) -> Flow {
        match s {
            LStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = {
                    let f = frame.borrow();
                    self.interp.eval(proc, &f, cond)
                };
                self.interp.charge_stmt(comm);
                let body = if c.is_true() { then_body } else { else_body };
                self.stack.push(Cont::Body {
                    proc,
                    frame,
                    stmts: body,
                    next: 0,
                });
                Flow::Continue
            }
            LStmt::Do {
                var,
                lower,
                upper,
                step,
                var_name,
                body,
                hoists,
                iter_charge,
            } => {
                let (lo, hi, st) = self.interp.do_prologue(
                    proc,
                    &frame,
                    lower,
                    upper,
                    step.as_ref(),
                    var_name,
                    hoists,
                    comm,
                );
                if let (Some(charge), [LStmt::Block { stmts, code, .. }]) =
                    (*iter_charge, body.as_slice())
                {
                    self.interp.run_summarized_do(
                        proc, &frame, *var, stmts, code, lo, hi, st, charge, comm,
                    );
                } else {
                    self.stack.push(Cont::Loop {
                        proc,
                        frame,
                        var: *var,
                        body,
                        i: lo,
                        hi,
                        st,
                        entered: false,
                    });
                }
                Flow::Continue
            }
            LStmt::CallUser { proc: callee, args } => {
                let callee_frame =
                    self.interp.prepare_user_call(proc, &frame, *callee, args, comm);
                let callee = &self.interp.program.procs[*callee];
                self.stack.push(Cont::Body {
                    proc: callee,
                    frame: Rc::new(FrameCell::new(callee_frame)),
                    stmts: &callee.body,
                    next: 0,
                });
                Flow::Continue
            }
            LStmt::CallBuiltin {
                op: op @ (Builtin::WaitallRecv | Builtin::Waitall),
                ..
            } => {
                self.interp.charge_stmt(comm);
                self.wait = Some(Wait::Recvs {
                    drain_sends: *op == Builtin::Waitall,
                });
                self.poll_or_block(comm)
            }
            LStmt::CallBuiltin {
                op: Builtin::Barrier,
                ..
            } => {
                self.interp.charge_stmt(comm);
                comm.barrier_begin();
                self.wait = Some(Wait::Barrier);
                self.poll_or_block(comm)
            }
            LStmt::CallBuiltin {
                op: Builtin::Alltoall,
                args,
                ..
            } => {
                let (recv, count, payloads) =
                    self.interp.prepare_alltoall(proc, &frame, args, comm);
                comm.alltoall_begin(payloads);
                self.wait = Some(Wait::Alltoall { recv, count });
                self.poll_or_block(comm)
            }
            // Everything else — assignments, summarized blocks, isend /
            // irecv posting, print — cannot block.
            other => {
                self.interp.exec_stmt(proc, &frame, other, comm);
                Flow::Continue
            }
        }
    }

    fn poll_or_block(&mut self, comm: &mut Comm) -> Flow {
        if self.try_finish_wait(comm) {
            Flow::Continue
        } else {
            Flow::Blocked
        }
    }
}

impl<'p> RankMachine for Machine<'p> {
    type Out = RankOutput;

    fn step(&mut self, comm: &mut Comm) -> Step<RankOutput> {
        if !self.started {
            // Deferred from construction so an allocation failure (bad
            // array bounds in main's declarations) panics inside a worker
            // step — becoming a RankPanic — not on the building thread.
            self.started = true;
            let main = &self.interp.program.procs[self.interp.program.main];
            let mut frame = self.interp.fresh_frame(main, comm);
            self.interp.allocate_locals(main, &mut frame, &[], comm);
            let cell = Rc::new(FrameCell::new(frame));
            self.main_frame = Some(Rc::clone(&cell));
            self.stack.push(Cont::Body {
                proc: main,
                frame: cell,
                stmts: &main.body,
                next: 0,
            });
        }
        if !self.try_finish_wait(comm) {
            return Step::Blocked;
        }
        loop {
            enum Work<'p> {
                Exec(&'p LProc, Rc<FrameCell>, &'p LStmt),
                EnterBody(&'p LProc, Rc<FrameCell>, &'p [LStmt]),
                Pop,
            }
            let Some(top) = self.stack.last_mut() else {
                break;
            };
            let work = match top {
                Cont::Body {
                    proc,
                    frame,
                    stmts,
                    next,
                } => {
                    if *next == stmts.len() {
                        Work::Pop
                    } else {
                        let stmts: &'p [LStmt] = stmts;
                        let s = &stmts[*next];
                        *next += 1;
                        Work::Exec(proc, Rc::clone(frame), s)
                    }
                }
                Cont::Loop {
                    proc,
                    frame,
                    var,
                    body,
                    i,
                    hi,
                    st,
                    entered,
                } => {
                    if *entered {
                        // The iteration that just finished owes the loop
                        // increment + test bookkeeping, exactly where the
                        // recursive executor charges it.
                        comm.advance(self.interp.opts.cost.ns_per_stmt);
                        *i += *st;
                    }
                    if (*st > 0 && *i > *hi) || (*st < 0 && *i < *hi) {
                        Work::Pop
                    } else {
                        *entered = true;
                        frame.borrow_mut().scalars[*var as usize] = Scalar::Int(*i);
                        Work::EnterBody(proc, Rc::clone(frame), body)
                    }
                }
            };
            match work {
                Work::Pop => {
                    self.stack.pop();
                }
                Work::EnterBody(proc, frame, stmts) => self.stack.push(Cont::Body {
                    proc,
                    frame,
                    stmts,
                    next: 0,
                }),
                Work::Exec(proc, frame, s) => {
                    if matches!(self.dispatch(proc, frame, s, comm), Flow::Blocked) {
                        return Step::Blocked;
                    }
                }
            }
        }
        let main = &self.interp.program.procs[self.interp.program.main];
        let frame = self
            .main_frame
            .take()
            .expect("machine ran, so main's frame exists")
            .take();
        Step::Done(rank_output(
            &frame,
            main,
            std::mem::take(&mut self.interp.prints),
        ))
    }
}

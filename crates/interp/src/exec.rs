//! The slot-indexed executor: runs one rank's view of a lowered
//! mini-Fortran program against a [`clustersim::Comm`] endpoint.
//!
//! Names were resolved to dense frame-slot indices by [`crate::lower`], so
//! the hot loop below is `Vec` indexing — no string hashing, no name
//! clones. Cost accounting (one `op` per expression node, `ns_per_stmt`
//! per statement, `ns_per_call` per user call) is identical to the
//! historical tree-walker; virtual times are pinned byte-for-byte by the
//! golden and differential suites.
//!
//! Interpreter-detected runtime errors (bounds violations, bad MPI
//! arguments, non-contiguous communication buffers, buffer-reuse hazards)
//! panic with an `interp:` message; the cluster runner converts rank panics
//! into [`clustersim::SimError::RankPanic`].

use crate::cost::Options;
use crate::env::{ArrayHandle, BoundArray};
use crate::lower::{
    BufferKind, Builtin, Hoist, Intr, LArg, LCallArg, LExpr, LProc, LProgram, LSecDim, LSection,
    LStmt,
};
use crate::reg::{RegCode, RegFile, LOOP_VAR, NREGS};
use crate::value::{ArrayStorage, Scalar};
use clustersim::{Bytes, Comm, RecvId, SimTime};
use fir::ast::{BinOp, UnOp};
use std::cell::RefCell;
use std::rc::Rc;

macro_rules! rt_err {
    ($($arg:tt)*) => {
        panic!("interp: {}", format!($($arg)*))
    };
}
pub(crate) use rt_err;

/// A posted receive's target slice.
struct PendingBuf {
    storage: Rc<RefCell<ArrayStorage>>,
    offset: usize,
    count: usize,
}

/// A sent region that the NIC may still be reading.
struct InflightRegion {
    alloc: usize,
    start: usize,
    end: usize,
    expires: SimTime,
}

/// One procedure activation's slot-indexed bindings.
pub(crate) struct LFrame {
    /// Seeded with the proc's typed zeros, so a read of a never-written
    /// slot returns exactly the tree-walker's deterministic default
    /// without an `Option` in the hot path.
    pub(crate) scalars: Vec<Scalar>,
    arrays: Vec<Option<BoundArray>>,
    /// Loop-invariant values cached at loop entry ([`crate::opt`]); every
    /// `LExpr::Hoisted` read is dominated by its loop's entry write.
    pub(crate) hoisted: Vec<Scalar>,
    /// Some dummy array of this activation aliases storage of another
    /// element type than it declares (sequence association), so the
    /// declared types the register code was compiled against do not
    /// describe this frame: its blocks run on the tree-walker.
    retyped: bool,
}

impl LFrame {
    fn new(proc: &LProc, rank: i64, np: i64) -> LFrame {
        let mut f = LFrame {
            scalars: proc.scalar_defaults.clone(),
            arrays: (0..proc.array_names.len()).map(|_| None).collect(),
            hoisted: vec![Scalar::Int(0); proc.hoist_slots],
            retyped: false,
        };
        // Slots 0/1 are reserved by the lowering for mynum/np.
        f.scalars[0] = Scalar::Int(rank);
        f.scalars[1] = Scalar::Int(np);
        f
    }

    #[inline]
    pub(crate) fn array(&self, slot: u32) -> &BoundArray {
        self.arrays[slot as usize]
            .as_ref()
            .expect("arrays are bound during allocate_locals, before any use")
    }

    /// Iterate bound arrays with their names (final dump).
    pub fn arrays<'a>(
        &'a self,
        proc: &'a LProc,
    ) -> impl Iterator<Item = (&'a String, &'a BoundArray)> {
        proc.array_names
            .iter()
            .zip(&self.arrays)
            .filter_map(|(n, a)| a.as_ref().map(|b| (n, b)))
    }
}

/// The interpreter's resumable state: everything a rank's execution owns
/// *except* the [`Comm`] endpoint, which is threaded through as a method
/// parameter. That split is what makes suspension possible — a parked rank
/// is an `Interp` (plus a continuation stack, see [`crate::machine`])
/// sitting in a table, while the `Comm` lives alongside it and both are
/// picked up by whichever worker resumes the rank.
pub(crate) struct Interp<'p> {
    pub(crate) program: &'p LProgram,
    pub(crate) opts: &'p Options,
    pub prints: Vec<String>,
    pending: Vec<(RecvId, PendingBuf)>,
    inflight: Vec<InflightRegion>,
    ops: u64,
    /// The register file every summarized block of this rank runs in.
    regs: RegFile,
}

impl<'p> Interp<'p> {
    pub fn new(program: &'p LProgram, opts: &'p Options) -> Self {
        Interp {
            program,
            opts,
            prints: Vec::new(),
            pending: Vec::new(),
            inflight: Vec::new(),
            ops: 0,
            regs: [0; NREGS],
        }
    }

    /// Execute the main program to completion (blocking engine); returns
    /// its final frame (for array dumps) along with the main proc for name
    /// resolution.
    pub fn run_main(&mut self, comm: &mut Comm) -> (LFrame, &'p LProc) {
        let main = &self.program.procs[self.program.main];
        let mut frame = self.fresh_frame(main, comm);
        self.allocate_locals(main, &mut frame, &[], comm);
        let cell = FrameCell::new(frame);
        for s in &main.body {
            self.exec_stmt(main, &cell, s, comm);
        }
        (cell.take(), main)
    }

    pub(crate) fn fresh_frame(&self, proc: &LProc, comm: &Comm) -> LFrame {
        LFrame::new(proc, comm.rank() as i64, comm.np() as i64)
    }

    // -- cost charging -------------------------------------------------------

    pub(crate) fn charge_stmt(&mut self, comm: &mut Comm) {
        let c = &self.opts.cost;
        let ns = self.ops as f64 * c.ns_per_op + c.ns_per_stmt;
        self.ops = 0;
        comm.advance(ns);
    }

    fn charge_ops_only(&mut self, comm: &mut Comm) {
        let ns = self.ops as f64 * self.opts.cost.ns_per_op;
        self.ops = 0;
        comm.advance(ns);
    }

    // -- expression evaluation -----------------------------------------------

    pub(crate) fn eval(&mut self, proc: &LProc, frame: &LFrame, e: &LExpr) -> Scalar {
        self.ops += 1;
        match e {
            LExpr::Int(v) => Scalar::Int(*v),
            LExpr::Real(v) => Scalar::Real(*v),
            LExpr::Var(slot) => frame.scalars[*slot as usize],
            // Folded/hoisted subtrees charge their historical node count
            // (minus the 1 charged on entry above) so virtual times match
            // the unoptimized walk exactly.
            LExpr::Const { v, ops } => {
                self.ops += u64::from(*ops) - 1;
                *v
            }
            LExpr::Hoisted { slot, ops } => {
                self.ops += u64::from(*ops) - 1;
                frame.hoisted[*slot as usize]
            }
            LExpr::ArrayRef { slot, name, indices } => {
                let idx = self.eval_indices(proc, frame, indices);
                let Some(slot) = slot else {
                    rt_err!("`{name}` is not an array in this scope");
                };
                match frame.array(*slot).get(name, &idx) {
                    Ok(v) => v,
                    Err(be) => rt_err!("{be}"),
                }
            }
            LExpr::Intrinsic { op, name, args } => self.eval_intrinsic(proc, frame, *op, name, args),
            LExpr::Unary { op, operand } => {
                let v = self.eval(proc, frame, operand);
                match op {
                    UnOp::Neg => match v {
                        Scalar::Int(x) => Scalar::Int(-x),
                        Scalar::Real(x) => Scalar::Real(-x),
                    },
                    UnOp::Not => Scalar::Int(i64::from(!v.is_true())),
                }
            }
            LExpr::Binary { op, lhs, rhs } => {
                let a = self.eval(proc, frame, lhs);
                let b = self.eval(proc, frame, rhs);
                eval_binop(*op, a, b)
            }
        }
    }

    fn eval_indices(&mut self, proc: &LProc, frame: &LFrame, indices: &[LExpr]) -> Vec<i64> {
        indices
            .iter()
            .map(|e| self.eval(proc, frame, e).expect_int("array subscript"))
            .collect()
    }

    fn eval_intrinsic(
        &mut self,
        proc: &LProc,
        frame: &LFrame,
        op: Intr,
        name: &str,
        args: &[LExpr],
    ) -> Scalar {
        let vals: Vec<Scalar> = args.iter().map(|a| self.eval(proc, frame, a)).collect();
        match try_intrinsic(op, name, &vals) {
            Ok(v) => v,
            Err(msg) => rt_err!("{msg}"),
        }
    }

    // -- statements -----------------------------------------------------------

    pub(crate) fn exec_stmt(
        &mut self,
        proc: &'p LProc,
        frame: &FrameCell,
        s: &'p LStmt,
        comm: &mut Comm,
    ) {
        match s {
            LStmt::AssignScalar { .. } | LStmt::AssignArray { .. } | LStmt::SetVar { .. } => {
                self.exec_assign(proc, frame, s, Some(comm))
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
                let (lo, hi, st) =
                    self.do_prologue(proc, frame, lower, upper, step.as_ref(), var_name, hoists, comm);
                if let (Some(charge), [LStmt::Block { stmts, code, .. }]) =
                    (*iter_charge, body.as_slice())
                {
                    self.run_summarized_do(proc, frame, *var, stmts, code, lo, hi, st, charge, comm);
                } else {
                    let mut i = lo;
                    loop {
                        if (st > 0 && i > hi) || (st < 0 && i < hi) {
                            break;
                        }
                        frame.borrow_mut().scalars[*var as usize] = Scalar::Int(i);
                        for b in body {
                            self.exec_stmt(proc, frame, b, comm);
                        }
                        // loop increment + test bookkeeping
                        comm.advance(self.opts.cost.ns_per_stmt);
                        i += st;
                    }
                }
            }
            LStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = {
                    let f = frame.borrow();
                    self.eval(proc, &f, cond)
                };
                self.charge_stmt(comm);
                let body = if c.is_true() { then_body } else { else_body };
                for b in body {
                    self.exec_stmt(proc, frame, b, comm);
                }
            }
            LStmt::Block {
                stmts,
                code,
                charge,
            } => {
                debug_assert_eq!(self.ops, 0, "blocks start at a charge boundary");
                if frame.borrow().retyped {
                    self.walk_block(proc, frame, stmts);
                } else {
                    let (mut f, r) = (frame.borrow_mut(), &mut self.regs);
                    code.enter(proc, &f, r);
                    code.body(proc, &f, r);
                    code.leave(&mut f, r);
                }
                // The per-statement charges were precomputed (and rounded
                // per statement, exactly like `charge_stmt`) at opt time;
                // one summarizing add replaces them all.
                comm.advance_exact(SimTime::from_ns(*charge));
            }
            LStmt::CallBuiltin { op, name, args } => {
                self.exec_builtin(proc, frame, *op, name, args, comm)
            }
            LStmt::CallUser { proc: callee, args } => {
                self.exec_user_call(proc, frame, *callee, args, comm)
            }
            LStmt::CallUnknown { name } => {
                rt_err!("call to unknown subroutine `{name}` (validation gap)")
            }
        }
    }

    /// One straight-line statement on the tree-walker. Outside a block
    /// (`comm` given) it pays its own charge, exactly where the historical
    /// walk did; inside one (`walk_block`) the block's precomputed add
    /// covers it and the counted ops are dropped.
    fn exec_assign(
        &mut self,
        proc: &LProc,
        frame: &FrameCell,
        s: &LStmt,
        mut comm: Option<&mut Comm>,
    ) {
        let mut settle = |me: &mut Self| match comm.as_deref_mut() {
            Some(comm) => me.charge_stmt(comm),
            None => me.ops = 0,
        };
        match s {
            LStmt::AssignScalar { slot, ty, value } => {
                let v = self.eval(proc, &frame.borrow(), value);
                settle(self);
                frame.borrow_mut().scalars[*slot as usize] = v.convert_to(*ty);
            }
            LStmt::AssignArray {
                slot,
                name,
                indices,
                value,
            } => {
                let (idx, v) = {
                    let f = frame.borrow();
                    let idx = self.eval_indices(proc, &f, indices);
                    (idx, self.eval(proc, &f, value))
                };
                settle(self);
                let Some(slot) = slot else {
                    rt_err!("`{name}` is not an array in this scope");
                };
                let (abs, alloc) = {
                    let f = frame.borrow();
                    let binding = f.array(*slot);
                    match binding.set(name, &idx, v) {
                        Ok(abs) => (abs, binding.handle.alloc_id()),
                        Err(be) => rt_err!("{be}"),
                    }
                };
                // Array stores join blocks only when detection is off.
                if let (true, Some(comm)) = (self.opts.detect_buffer_reuse, comm) {
                    self.check_inflight_write(alloc, abs, name, comm);
                }
            }
            LStmt::SetVar { slot, v, charge } => {
                frame.borrow_mut().scalars[*slot as usize] = Scalar::Int(*v);
                if let Some(comm) = comm {
                    comm.advance_exact(SimTime::from_ns(*charge));
                }
            }
            other => unreachable!("not a straight-line statement: {other:?}"),
        }
    }

    /// The cold way through a block, for an activation whose dummy arrays
    /// are not of their declared types: charges are node counts and do not
    /// depend on types, so the caller's precomputed add still applies.
    fn walk_block(&mut self, proc: &LProc, frame: &FrameCell, stmts: &[LStmt]) {
        for s in stmts {
            self.exec_assign(proc, frame, s, None);
        }
    }

    /// A `do` statement's entry sequence, shared by both engines: evaluate
    /// the bounds, reject a zero step, charge the statement, cache the
    /// hoisted invariants. Returns `(lo, hi, st)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn do_prologue(
        &mut self,
        proc: &'p LProc,
        frame: &FrameCell,
        lower: &'p LExpr,
        upper: &'p LExpr,
        step: Option<&'p LExpr>,
        var_name: &str,
        hoists: &'p [Hoist],
        comm: &mut Comm,
    ) -> (i64, i64, i64) {
        let (lo, hi, st) = {
            let f = frame.borrow();
            let lo = self.eval(proc, &f, lower).expect_int("loop bound");
            let hi = self.eval(proc, &f, upper).expect_int("loop bound");
            let st = match step {
                None => 1,
                Some(e) => self.eval(proc, &f, e).expect_int("loop step"),
            };
            (lo, hi, st)
        };
        if st == 0 {
            rt_err!("zero loop step in `do {var_name}`");
        }
        self.charge_stmt(comm);
        self.eval_hoists(proc, frame, hoists);
        (lo, hi, st)
    }

    /// Whole-body-block fast path, shared by both engines: run the block's
    /// prologue once, its body per iteration (writing the loop variable's
    /// register), its epilogue once, and charge `iterations × per-iteration`
    /// in ONE add at the end — integer multiplication distributes over the
    /// addition the tree-walker performed, and no statement in the block
    /// can observe the clock, so virtual times are unchanged to the bit.
    /// Contains no blocking point, so the resumable engine runs it inline
    /// without suspending.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_summarized_do(
        &mut self,
        proc: &'p LProc,
        frame: &FrameCell,
        var: u32,
        stmts: &'p [LStmt],
        code: &'p RegCode,
        lo: i64,
        hi: i64,
        st: i64,
        charge: u64,
        comm: &mut Comm,
    ) {
        let done = |i: i64| (st > 0 && i > hi) || (st < 0 && i < hi);
        let mut iters: u64 = 0;
        let mut i = lo;
        if frame.borrow().retyped {
            while !done(i) {
                frame.borrow_mut().scalars[var as usize] = Scalar::Int(i);
                self.walk_block(proc, frame, stmts);
                iters += 1;
                i += st;
            }
        } else {
            let mut f = frame.borrow_mut();
            let r = &mut self.regs;
            code.enter(proc, &f, r);
            while !done(i) {
                r[LOOP_VAR] = i as u64;
                code.body(proc, &f, r);
                iters += 1;
                i += st;
            }
            code.leave(&mut f, r);
        }
        if iters > 0 {
            let total = charge
                .checked_mul(iters)
                .expect("SimTime overflow in summarized loop");
            comm.advance_exact(SimTime::from_ns(total));
        }
    }

    /// Cache a loop's invariant subtrees at loop entry, *uncharged*: the
    /// per-use cost stays on every `LExpr::Hoisted` read (which bills the
    /// replaced subtree's node count), so the entry computation must not
    /// advance the clock. Hoisted expressions are pure and total by
    /// construction ([`crate::opt`]), so evaluating them here — even when
    /// the loop then runs zero iterations — cannot fail or be observed.
    fn eval_hoists(&mut self, proc: &'p LProc, frame: &FrameCell, hoists: &'p [Hoist]) {
        if hoists.is_empty() {
            return;
        }
        debug_assert_eq!(self.ops, 0, "hoists evaluate at a charge boundary");
        for h in hoists {
            let v = {
                let f = frame.borrow();
                self.eval(proc, &f, &h.expr)
            };
            frame.borrow_mut().hoisted[h.slot as usize] = v;
        }
        self.ops = 0;
    }

    fn check_inflight_write(&mut self, alloc: usize, abs: usize, name: &str, comm: &Comm) {
        let now = comm.now();
        self.inflight.retain(|r| r.expires > now);
        if let Some(r) = self
            .inflight
            .iter()
            .find(|r| r.alloc == alloc && abs >= r.start && abs < r.end)
        {
            rt_err!(
                "buffer-reuse hazard: rank {} overwrote element {} of `{name}` while an \
                 mpi_isend of [{}, {}) is still in flight (drains at {})",
                comm.rank(),
                abs,
                r.start,
                r.end,
                r.expires
            );
        }
    }

    // -- procedure calls -----------------------------------------------------------

    fn exec_user_call(
        &mut self,
        caller: &'p LProc,
        frame: &FrameCell,
        callee_idx: usize,
        args: &'p [LCallArg],
        comm: &mut Comm,
    ) {
        let callee_frame = self.prepare_user_call(caller, frame, callee_idx, args, comm);
        let callee = &self.program.procs[callee_idx];
        let cell = FrameCell::new(callee_frame);
        for s in &callee.body {
            self.exec_stmt(callee, &cell, s, comm);
        }
        // Arrays were by reference; scalar params are by value (documented).
    }

    /// Everything a user call does before its body runs, shared by both
    /// engines: argument evaluation/binding, the call charge, and local
    /// allocation. Returns the ready-to-run callee frame.
    pub(crate) fn prepare_user_call(
        &mut self,
        caller: &'p LProc,
        frame: &FrameCell,
        callee_idx: usize,
        args: &'p [LCallArg],
        comm: &mut Comm,
    ) -> LFrame {
        let callee = &self.program.procs[callee_idx];
        let mut callee_frame = self.fresh_frame(callee, comm);
        let mut handles: Vec<Option<ArrayHandle>> = vec![None; callee.nparams];

        for (i, arg) in args.iter().enumerate() {
            match arg {
                LCallArg::Array { caller_slot } => {
                    let f = frame.borrow();
                    let b = f.array(*caller_slot);
                    handles[i] = Some(b.handle.window(0, b.shape_len()));
                }
                LCallArg::Section(sec) => {
                    handles[i] = Some(self.resolve_section(caller, frame, sec));
                }
                LCallArg::Scalar {
                    expr,
                    callee_slot,
                    ty,
                } => {
                    let v = {
                        let f = frame.borrow();
                        self.eval(caller, &f, expr)
                    };
                    callee_frame.scalars[*callee_slot as usize] = v.convert_to(*ty);
                }
            }
        }
        self.charge_ops_only(comm);
        comm.advance(self.opts.cost.ns_per_call);

        self.allocate_locals(callee, &mut callee_frame, &handles, comm);
        callee_frame
    }

    /// Allocate local arrays and bind array parameters, in declaration
    /// order, evaluating bound expressions in the growing frame. Declared
    /// scalars need no explicit seeding: the per-slot typed defaults in
    /// [`LProc::scalar_defaults`] encode exactly the zero the tree-walker
    /// used to insert.
    pub(crate) fn allocate_locals(
        &mut self,
        proc: &'p LProc,
        frame: &mut LFrame,
        handles: &[Option<ArrayHandle>],
        comm: &mut Comm,
    ) {
        for decl in &proc.array_decls {
            let bounds: Vec<(i64, i64)> = decl
                .dims
                .iter()
                .map(|(lo, hi)| {
                    let lo = self.eval(proc, frame, lo).expect_int("array bound");
                    let hi = self.eval(proc, frame, hi).expect_int("array bound");
                    (lo, hi)
                })
                .collect();
            let passed = decl.param.and_then(|i| handles.get(i).cloned().flatten());
            let binding = match passed {
                Some(handle) => match BoundArray::from_shape(handle, bounds) {
                    Ok(b) => {
                        frame.retyped |= b.handle.storage.borrow().ty() != decl.ty;
                        b
                    }
                    Err(msg) => rt_err!(
                        "binding parameter `{}` of `{}`: {msg}",
                        decl.name,
                        proc.name
                    ),
                },
                None => {
                    let storage = Rc::new(RefCell::new(ArrayStorage::new(
                        &decl.name,
                        decl.ty,
                        bounds.clone(),
                    )));
                    let handle = ArrayHandle::whole(storage);
                    BoundArray::from_shape(handle, bounds).expect("fresh allocation fits")
                }
            };
            frame.arrays[decl.slot as usize] = Some(binding);
        }
        self.charge_ops_only(comm);
    }

    // -- builtin (MPI) subroutines -----------------------------------------------

    pub(crate) fn exec_builtin(
        &mut self,
        proc: &'p LProc,
        frame: &FrameCell,
        op: Builtin,
        name: &str,
        args: &'p [LArg],
        comm: &mut Comm,
    ) {
        match op {
            Builtin::Isend => self.mpi_isend(proc, frame, args, comm),
            Builtin::Irecv => self.mpi_irecv(proc, frame, args, comm),
            Builtin::WaitallRecv => {
                self.charge_stmt(comm);
                let done = comm.wait_all_recvs();
                self.apply_received(done);
            }
            Builtin::Waitall => {
                self.charge_stmt(comm);
                let done = comm.wait_all();
                self.finish_waitall(done);
            }
            Builtin::Barrier => {
                self.charge_stmt(comm);
                comm.barrier();
            }
            Builtin::Alltoall => self.mpi_alltoall(proc, frame, args, comm),
            Builtin::Print => {
                let line = {
                    let f = frame.borrow();
                    args.iter()
                        .map(|a| match a {
                            LArg::Expr { expr, .. } => {
                                self.eval(proc, &f, expr).to_string()
                            }
                            LArg::Section(s) => format!("<section {}>", s.name),
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                self.charge_ops_only(comm);
                self.prints.push(line);
            }
            Builtin::Unknown => rt_err!("unknown builtin `{name}` (validation gap)"),
        }
    }

    /// A `mpi_waitall`'s local tail once all receives matched and sends
    /// drained: decode payloads into their registered buffers and retire
    /// the in-flight send regions. Pure bookkeeping — touches no clock, so
    /// both engines may run it at their own point after the blocking part.
    pub(crate) fn finish_waitall(&mut self, done: Vec<(RecvId, Bytes)>) {
        self.apply_received(done);
        self.inflight.clear();
    }

    fn scalar_arg(
        &mut self,
        proc: &LProc,
        frame: &FrameCell,
        args: &[LArg],
        i: usize,
        what: &str,
    ) -> i64 {
        let f = frame.borrow();
        match &args[i] {
            LArg::Expr { expr, .. } => self.eval(proc, &f, expr).expect_int(what),
            LArg::Section(s) => rt_err!("{what} must be a scalar, got section of `{}`", s.name),
        }
    }

    /// Resolve an MPI buffer argument to a contiguous element window.
    fn resolve_buffer(
        &mut self,
        proc: &'p LProc,
        frame: &FrameCell,
        arg: &'p LArg,
        ctx: &str,
    ) -> ArrayHandle {
        match arg {
            LArg::Expr { buffer, name, .. } => match buffer {
                BufferKind::Array(slot) => {
                    let f = frame.borrow();
                    let b = f.array(*slot);
                    b.handle.window(0, b.shape_len())
                }
                BufferKind::NotArray => rt_err!("{ctx}: `{name}` is not an array"),
                BufferKind::NotAVar(span) => rt_err!(
                    "{ctx}: buffer must be an array or section, got expression at {:?}",
                    span
                ),
            },
            LArg::Section(sec) => self.resolve_section(proc, frame, sec),
        }
    }

    /// Resolve a section to a contiguous window (column-major rule: all
    /// dims before the last varying one must cover their full extent).
    fn resolve_section(&mut self, proc: &LProc, frame: &FrameCell, sec: &LSection) -> ArrayHandle {
        let f = frame.borrow();
        let Some(slot) = sec.slot else {
            rt_err!("section base `{}` is not an array", sec.name);
        };
        let binding = f.array(slot);
        if sec.dims.len() != binding.rank() {
            rt_err!(
                "section of `{}` has {} dims, array has rank {}",
                sec.name,
                sec.dims.len(),
                binding.rank()
            );
        }
        // One of these per isend/irecv: inline up to the usual ranks.
        let rank = sec.dims.len();
        let (mut lows4, mut counts4, mut lows_n, mut counts_n) = ([0; 4], [0; 4], vec![], vec![]);
        let (lows, counts): (&mut [i64], &mut [usize]) = if rank <= 4 {
            (&mut lows4[..rank], &mut counts4[..rank])
        } else {
            lows_n.resize(rank, 0);
            counts_n.resize(rank, 0);
            (&mut lows_n, &mut counts_n)
        };
        for (d, sd) in sec.dims.iter().enumerate() {
            let (blo, bhi) = binding.bounds()[d];
            let (lo, hi) = match sd {
                LSecDim::Index(e) => {
                    let v = self.eval(proc, &f, e).expect_int("section index");
                    (v, v)
                }
                LSecDim::Range(a, b) => {
                    let lo = a
                        .as_ref()
                        .map(|e| self.eval(proc, &f, e).expect_int("section bound"))
                        .unwrap_or(blo);
                    let hi = b
                        .as_ref()
                        .map(|e| self.eval(proc, &f, e).expect_int("section bound"))
                        .unwrap_or(bhi);
                    (lo, hi)
                }
            };
            if lo < blo || hi > bhi {
                rt_err!(
                    "section of `{}` dim {}: {}:{} outside declared {}..={}",
                    sec.name,
                    d + 1,
                    lo,
                    hi,
                    blo,
                    bhi
                );
            }
            lows[d] = lo;
            counts[d] = (hi - lo + 1).max(0) as usize;
        }
        let len: usize = counts.iter().product();
        if len == 0 {
            return binding.handle.window(0, 0);
        }
        // Contiguity: dims before the last varying dim must be full extent.
        if let Some(p) = counts.iter().rposition(|&c| c != 1) {
            for (d, &cnt) in counts.iter().enumerate().take(p) {
                if cnt != binding.extent(d) {
                    rt_err!(
                        "section of `{}` is not contiguous: dim {} covers {} of {} elements \
                         while dim {} varies",
                        sec.name,
                        d + 1,
                        counts[d],
                        binding.extent(d),
                        p + 1
                    );
                }
            }
        }
        let offset = match binding.flat(&sec.name, lows) {
            Ok(o) => o,
            Err(be) => rt_err!("{be}"),
        };
        binding.handle.window(offset, len)
    }

    fn mpi_isend(&mut self, proc: &'p LProc, frame: &FrameCell, args: &'p [LArg], comm: &mut Comm) {
        let buf = self.resolve_buffer(proc, frame, &args[0], "mpi_isend");
        let count = self.scalar_arg(proc, frame, args, 1, "mpi_isend count");
        let dest = self.scalar_arg(proc, frame, args, 2, "mpi_isend dest");
        let tag = self.scalar_arg(proc, frame, args, 3, "mpi_isend tag");
        self.charge_stmt(comm);
        let me = comm.rank() as i64;
        let np = comm.np() as i64;
        if count < 0 || (count as usize) > buf.len {
            rt_err!(
                "mpi_isend: count {count} exceeds buffer window of {} elements",
                buf.len
            );
        }
        if dest < 0 || dest >= np {
            rt_err!("mpi_isend: dest {dest} out of range 0..{np}");
        }
        if dest == me {
            rt_err!("mpi_isend: self-send (rank {me}); copy locally instead");
        }
        let bytes = {
            let st = buf.storage.borrow();
            Bytes::from(st.encode(buf.offset, count as usize))
        };
        let nic_done = comm.isend(dest as usize, tag, bytes);
        if self.opts.detect_buffer_reuse {
            self.inflight.push(InflightRegion {
                alloc: buf.alloc_id(),
                start: buf.offset,
                end: buf.offset + count as usize,
                expires: nic_done,
            });
        }
    }

    fn mpi_irecv(&mut self, proc: &'p LProc, frame: &FrameCell, args: &'p [LArg], comm: &mut Comm) {
        let buf = self.resolve_buffer(proc, frame, &args[0], "mpi_irecv");
        let count = self.scalar_arg(proc, frame, args, 1, "mpi_irecv count");
        let src = self.scalar_arg(proc, frame, args, 2, "mpi_irecv src");
        let tag = self.scalar_arg(proc, frame, args, 3, "mpi_irecv tag");
        self.charge_stmt(comm);
        let me = comm.rank() as i64;
        let np = comm.np() as i64;
        if count < 0 || (count as usize) > buf.len {
            rt_err!(
                "mpi_irecv: count {count} exceeds buffer window of {} elements",
                buf.len
            );
        }
        if src < 0 || src >= np {
            rt_err!("mpi_irecv: src {src} out of range 0..{np}");
        }
        if src == me {
            rt_err!("mpi_irecv: self-receive (rank {me})");
        }
        let id = comm.irecv(src as usize, tag);
        self.pending.push((
            id,
            PendingBuf {
                storage: Rc::clone(&buf.storage),
                offset: buf.offset,
                count: count as usize,
            },
        ));
    }

    /// Decode completed receives into their registered buffers. `done` and
    /// `pending` are both in post order, so one walk pairs them up.
    pub(crate) fn apply_received(&mut self, done: Vec<(RecvId, Bytes)>) {
        let mut kept = Vec::new();
        let mut pending = self.pending.drain(..);
        for (id, payload) in done {
            let buf = loop {
                match pending.next() {
                    Some((pid, buf)) if pid == id => break buf,
                    Some(other) => kept.push(other),
                    None => rt_err!("completed receive with no registered buffer"),
                }
            };
            if payload.len() != buf.count * 8 {
                rt_err!(
                    "mpi receive: expected {} elements ({} bytes), got {} bytes",
                    buf.count,
                    buf.count * 8,
                    payload.len()
                );
            }
            buf.storage
                .borrow_mut()
                .decode_into(buf.offset, payload.as_ref());
        }
        kept.extend(pending);
        self.pending.append(&mut kept);
    }

    fn mpi_alltoall(&mut self, proc: &'p LProc, frame: &FrameCell, args: &'p [LArg], comm: &mut Comm) {
        let (recv, count, payloads) = self.prepare_alltoall(proc, frame, args, comm);
        let received = comm.alltoall(payloads);
        Self::finish_alltoall(&recv, count, received);
    }

    /// An `mpi_alltoall`'s entry sequence, shared by both engines: resolve
    /// and check both buffers, charge the statement, encode the per-
    /// destination payloads. Returns `(recv window, count, payloads)` —
    /// everything the completion side needs.
    pub(crate) fn prepare_alltoall(
        &mut self,
        proc: &'p LProc,
        frame: &FrameCell,
        args: &'p [LArg],
        comm: &mut Comm,
    ) -> (ArrayHandle, usize, Vec<Bytes>) {
        let send = self.resolve_buffer(proc, frame, &args[0], "mpi_alltoall send buffer");
        let count = self.scalar_arg(proc, frame, args, 1, "mpi_alltoall count");
        let recv = self.resolve_buffer(proc, frame, &args[2], "mpi_alltoall recv buffer");
        self.charge_stmt(comm);
        let np = comm.np();
        if count < 0 {
            rt_err!("mpi_alltoall: negative count {count}");
        }
        let count = count as usize;
        if count * np > send.len {
            rt_err!(
                "mpi_alltoall: need {} elements in send buffer, have {}",
                count * np,
                send.len
            );
        }
        if count * np > recv.len {
            rt_err!(
                "mpi_alltoall: need {} elements in recv buffer, have {}",
                count * np,
                recv.len
            );
        }
        let payloads: Vec<Bytes> = {
            let st = send.storage.borrow();
            (0..np)
                .map(|d| Bytes::from(st.encode(send.offset + d * count, count)))
                .collect()
        };
        (recv, count, payloads)
    }

    /// Decode a completed alltoall's received payloads into the recv
    /// window. Pure bookkeeping — touches no clock.
    pub(crate) fn finish_alltoall(recv: &ArrayHandle, count: usize, received: Vec<Bytes>) {
        let mut st = recv.storage.borrow_mut();
        for (srcr, payload) in received.into_iter().enumerate() {
            if payload.len() != count * 8 {
                rt_err!(
                    "mpi_alltoall: partner {srcr} sent {} bytes, expected {}",
                    payload.len(),
                    count * 8
                );
            }
            st.decode_into(recv.offset + srcr * count, payload.as_ref());
        }
    }
}

/// Interior-mutable frame wrapper: statements need `&mut LFrame` for
/// scalar stores while expression evaluation holds shared borrows.
pub(crate) struct FrameCell(RefCell<LFrame>);

impl FrameCell {
    pub(crate) fn new(frame: LFrame) -> FrameCell {
        FrameCell(RefCell::new(frame))
    }

    pub(crate) fn borrow(&self) -> std::cell::Ref<'_, LFrame> {
        self.0.borrow()
    }

    pub(crate) fn borrow_mut(&self) -> std::cell::RefMut<'_, LFrame> {
        self.0.borrow_mut()
    }

    pub(crate) fn take(&self) -> LFrame {
        self.0.replace(LFrame {
            scalars: Vec::new(),
            arrays: Vec::new(),
            hoisted: Vec::new(),
            retyped: false,
        })
    }
}

/// The intrinsic-function kernel, shared verbatim between the executor and
/// the constant folder ([`crate::opt`]) so a folded call computes exactly
/// what the tree-walker would have. `Err` carries the message the executor
/// raises as an `interp:` runtime error; argument-type panics (a real
/// `mod` argument) surface identically from both callers.
pub(crate) fn try_intrinsic(op: Intr, name: &str, vals: &[Scalar]) -> Result<Scalar, String> {
    Ok(match op {
        Intr::Mod => {
            let a = vals[0].expect_int("mod argument");
            let b = vals[1].expect_int("mod argument");
            if b == 0 {
                return Err("mod by zero".into());
            }
            Scalar::Int(a % b) // Fortran MOD: sign of the dividend
        }
        Intr::Min | Intr::Max => {
            let is_min = op == Intr::Min;
            let any_real = vals.iter().any(|v| matches!(v, Scalar::Real(_)));
            if any_real {
                let it = vals.iter().map(|v| v.as_real());
                let r = if is_min {
                    it.fold(f64::INFINITY, f64::min)
                } else {
                    it.fold(f64::NEG_INFINITY, f64::max)
                };
                Scalar::Real(r)
            } else {
                let it = vals.iter().map(|v| v.truncate_to_int());
                Scalar::Int(if is_min {
                    it.min().expect("arity checked")
                } else {
                    it.max().expect("arity checked")
                })
            }
        }
        Intr::Abs => match vals[0] {
            Scalar::Int(v) => Scalar::Int(v.abs()),
            Scalar::Real(v) => Scalar::Real(v.abs()),
        },
        Intr::Sqrt => Scalar::Real(vals[0].as_real().sqrt()),
        Intr::Sin => Scalar::Real(vals[0].as_real().sin()),
        Intr::Cos => Scalar::Real(vals[0].as_real().cos()),
        Intr::Exp => Scalar::Real(vals[0].as_real().exp()),
        Intr::Log => Scalar::Real(vals[0].as_real().ln()),
        Intr::Floor => Scalar::Int(vals[0].as_real().floor() as i64),
        Intr::Int => Scalar::Int(vals[0].truncate_to_int()),
        Intr::Real => Scalar::Real(vals[0].as_real()),
        Intr::Unknown => return Err(format!("unknown intrinsic `{name}` (validation gap)")),
    })
}

#[inline]
fn eval_binop(op: BinOp, a: Scalar, b: Scalar) -> Scalar {
    match try_binop(op, a, b) {
        Ok(v) => v,
        Err(msg) => rt_err!("{msg}"),
    }
}

/// The binary-operator kernel, shared between the executor and the
/// constant folder ([`crate::opt`]). `Err` carries the runtime-error
/// message (`interp:` prefix added by the executor); the folder simply
/// declines to fold erroring cases, leaving the error to fire at run time
/// exactly as before.
#[inline]
pub(crate) fn try_binop(op: BinOp, a: Scalar, b: Scalar) -> Result<Scalar, String> {
    use BinOp::*;
    use Scalar::{Int, Real};
    let flag = |r: bool| Int(i64::from(r));
    Ok(match (a, b) {
        (Int(x), Int(y)) => match op {
            Add => Int(x.wrapping_add(y)),
            Sub => Int(x.wrapping_sub(y)),
            Mul => Int(x.wrapping_mul(y)),
            Div if y == 0 => return Err("integer division by zero".into()),
            Div => Int(x.wrapping_div(y)),
            Pow => Int(try_int_pow(x, y)?),
            Eq => flag(x == y),
            Ne => flag(x != y),
            Lt => flag(x < y),
            Le => flag(x <= y),
            Gt => flag(x > y),
            Ge => flag(x >= y),
            And => flag(x != 0 && y != 0),
            Or => flag(x != 0 || y != 0),
        },
        // Any real operand promotes the other.
        _ => {
            let (x, y) = (a.as_real(), b.as_real());
            match op {
                Add => Real(x + y),
                Sub => Real(x - y),
                Mul => Real(x * y),
                Div => Real(x / y),
                Pow => Real(x.powf(y)),
                Eq => flag(x == y),
                Ne => flag(x != y),
                Lt => flag(x < y),
                Le => flag(x <= y),
                Gt => flag(x > y),
                Ge => flag(x >= y),
                And => flag(a.is_true() && b.is_true()),
                Or => flag(a.is_true() || b.is_true()),
            }
        }
    })
}

/// Fortran integer exponentiation: negative exponents truncate to 0 unless
/// the base is ±1.
pub(crate) fn try_int_pow(base: i64, exp: i64) -> Result<i64, String> {
    if exp >= 0 {
        let mut acc: i64 = 1;
        for _ in 0..exp {
            acc = acc.wrapping_mul(base);
        }
        Ok(acc)
    } else {
        match base {
            1 => Ok(1),
            -1 => {
                if exp % 2 == 0 {
                    Ok(1)
                } else {
                    Ok(-1)
                }
            }
            0 => Err("0 ** negative exponent".into()),
            _ => Ok(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_pow_cases() {
        assert_eq!(try_int_pow(2, 10), Ok(1024));
        assert_eq!(try_int_pow(3, 0), Ok(1));
        assert_eq!(try_int_pow(2, -1), Ok(0));
        assert_eq!(try_int_pow(-1, 3), Ok(-1));
        assert_eq!(try_int_pow(-1, 4), Ok(1));
        assert_eq!(try_int_pow(1, -5), Ok(1));
        assert!(try_int_pow(0, -1).is_err());
    }

    #[test]
    fn binop_integer_semantics() {
        assert_eq!(
            eval_binop(BinOp::Div, Scalar::Int(7), Scalar::Int(2)),
            Scalar::Int(3)
        );
        assert_eq!(
            eval_binop(BinOp::Div, Scalar::Int(-7), Scalar::Int(2)),
            Scalar::Int(-3)
        );
        assert_eq!(
            eval_binop(BinOp::Lt, Scalar::Int(1), Scalar::Int(2)),
            Scalar::Int(1)
        );
    }

    #[test]
    fn binop_promotes_to_real() {
        assert_eq!(
            eval_binop(BinOp::Add, Scalar::Int(1), Scalar::Real(0.5)),
            Scalar::Real(1.5)
        );
        assert_eq!(
            eval_binop(BinOp::Div, Scalar::Real(7.0), Scalar::Int(2)),
            Scalar::Real(3.5)
        );
    }

    #[test]
    fn logical_ops() {
        assert_eq!(
            eval_binop(BinOp::And, Scalar::Int(1), Scalar::Int(0)),
            Scalar::Int(0)
        );
        assert_eq!(
            eval_binop(BinOp::Or, Scalar::Int(1), Scalar::Int(0)),
            Scalar::Int(1)
        );
    }

    #[test]
    fn lowered_frame_defaults_follow_types() {
        let program = fir::parse(
            "program m\n  integer :: n\n  real :: a(2)\n  a(1) = n + x\nend program",
        )
        .unwrap();
        let l = crate::lower::lower(&program);
        let main = &l.procs[l.main];
        let f = LFrame::new(main, 3, 4);
        // Slots 0/1 are mynum/np.
        assert_eq!(f.scalars[0], Scalar::Int(3));
        assert_eq!(f.scalars[1], Scalar::Int(4));
        // `n` is declared integer; `x` is implicit real.
        let n_slot = main
            .scalar_defaults
            .iter()
            .position(|d| *d == Scalar::Int(0))
            .unwrap();
        assert!(n_slot >= 2 || main.scalar_defaults[0] == Scalar::Int(0));
        assert!(main
            .scalar_defaults
            .iter()
            .any(|d| matches!(d, Scalar::Real(r) if *r == 0.0)));
        assert_eq!(main.array_names, vec!["a".to_string()]);
    }
}

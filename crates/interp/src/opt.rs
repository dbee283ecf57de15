//! The optimization pass over the lowered program: constant folding,
//! loop-invariant hoisting, and block-summarized cost accounting.
//!
//! Everything here is a pure *host-time* optimization — virtual times,
//! per-rank stats, outputs, and traces are byte-identical to the plain
//! tree walk. The parity argument (DESIGN.md §S3) rests on three
//! invariants:
//!
//! 1. **Folded and hoisted subtrees keep their historical op count.** The
//!    executor charges one `op` per expression node it visits; a
//!    [`LExpr::Const`] / [`LExpr::Hoisted`] replacement carries the
//!    replaced subtree's node count and charges it in one add, so every
//!    `charge_stmt` boundary sees exactly the ops the tree-walker
//!    accumulated. Since `eval` never short-circuits (both operands of
//!    `.and.`/`.or.` evaluate, every intrinsic argument evaluates), the
//!    static node count *is* the dynamic one.
//! 2. **Hoisted computations are pure and total.** Only expressions built
//!    from scalars and operators that cannot raise a runtime error
//!    (wrapping `+ - *`, comparisons, logicals, the total intrinsics) are
//!    hoisted, so evaluating them at loop entry — uncharged, and even when
//!    the loop runs zero iterations — is unobservable. `/`, `**`, `mod`,
//!    and array references stay in place, preserving both error timing
//!    and message.
//! 3. **Block charges are rounded per statement, then summed.** Virtual
//!    time is integer nanoseconds; `Comm::advance` rounds each f64 charge
//!    once at the boundary. The summarizer precomputes each statement's
//!    rounded charge (the same `ops·ns_per_op + ns_per_stmt` the
//!    tree-walker computes) and sums the *integers*, so the one
//!    [`clustersim::Comm::advance_exact`] add per block — or per loop
//!    iteration, when a loop body collapses to a single block — lands the
//!    clock on exactly the tree-walker's value. (Summing the f64 charges
//!    first would not: f64 addition is not associative.)
//!
//! Blocks never span communication, branches, calls, or loops — those
//! statements end a block, both because their cost is data-dependent and
//! because messages must depart/arrive at exactly the historical clock.
//! Within a straight-line run, a statement joins a block iff it compiles
//! to register code ([`crate::reg`]), i.e. iff it types; one that does not
//! ends the block and runs on the tree-walker with its own charge.
//! Block formation is disabled entirely under tracing (merged `Compute`
//! events would change the trace), and array stores are excluded from
//! blocks under buffer-reuse detection (the detector reads `now()`
//! mid-statement).

use crate::cost::{CostModel, Options};
use crate::exec::{try_binop, try_intrinsic};
use crate::lower::{Hoist, Intr, LArg, LCallArg, LExpr, LProgram, LSecDim, LSection, LStmt};
use crate::reg::RegBuilder;
use crate::typeck::{lexpr_ty, ProcTyEnv};
use crate::value::Scalar;
use clustersim::SimTime;
use fir::ast::BinOp;
use std::collections::HashSet;

/// Run the full pass in place: fold, unroll, fold again (the unrolled
/// copies carry literal loop-variable values, so e.g. `sin(0.002 * iw)`
/// now folds), hoist, then summarize.
pub(crate) fn optimize(program: &mut LProgram, opts: &Options) {
    for proc in &mut program.procs {
        for d in &mut proc.array_decls {
            for (lo, hi) in &mut d.dims {
                fold(lo);
                fold(hi);
            }
        }
        fold_stmts(&mut proc.body);

        if !opts.trace {
            unroll_stmts(&mut proc.body, !opts.detect_buffer_reuse, &opts.cost);
            fold_stmts(&mut proc.body);
        }

        let mut slots = 0u32;
        hoist_stmts(&mut proc.body, &mut slots);
        proc.hoist_slots = slots as usize;

        if !opts.trace {
            let mut env = ProcTyEnv::new(proc);
            form_blocks(&mut proc.body, opts, &mut env, None);
        }
    }
}

/// Static node count of an expression — exactly the ops the executor
/// charges when evaluating it (evaluation never short-circuits).
pub(crate) fn weight(e: &LExpr) -> u64 {
    match e {
        LExpr::Int(_) | LExpr::Real(_) | LExpr::Var(_) => 1,
        LExpr::Const { ops, .. } | LExpr::Hoisted { ops, .. } => u64::from(*ops),
        LExpr::ArrayRef { indices, .. } => 1 + indices.iter().map(weight).sum::<u64>(),
        LExpr::Intrinsic { args, .. } => 1 + args.iter().map(weight).sum::<u64>(),
        LExpr::Unary { operand, .. } => 1 + weight(operand),
        LExpr::Binary { lhs, rhs, .. } => 1 + weight(lhs) + weight(rhs),
    }
}

// ---------------------------------------------------------------- folding

fn const_of(e: &LExpr) -> Option<Scalar> {
    match e {
        LExpr::Int(v) => Some(Scalar::Int(*v)),
        LExpr::Real(v) => Some(Scalar::Real(*v)),
        LExpr::Const { v, .. } => Some(*v),
        _ => None,
    }
}

/// Replace `e` with a weighted constant when its value is fully decided at
/// lower time *and* evaluating it cannot error (erroring cases — division
/// by zero, `0 ** -n`, `mod` by zero, unknown names — stay unfolded so the
/// runtime error fires with its original timing and message).
fn fold(e: &mut LExpr) {
    let folded: Option<Scalar> = match e {
        LExpr::Int(_) | LExpr::Real(_) | LExpr::Var(_) | LExpr::Const { .. }
        | LExpr::Hoisted { .. } => None,
        LExpr::ArrayRef { indices, .. } => {
            indices.iter_mut().for_each(fold);
            None
        }
        LExpr::Intrinsic { op, name, args } => {
            args.iter_mut().for_each(fold);
            let vals: Option<Vec<Scalar>> = args.iter().map(const_of).collect();
            vals.filter(|vals| intrinsic_foldable(*op, vals))
                .and_then(|vals| try_intrinsic(*op, name, &vals).ok())
        }
        LExpr::Unary { op, operand } => {
            fold(operand);
            match const_of(operand) {
                // `-i64::MIN` overflows; leave it to the executor.
                Some(Scalar::Int(i64::MIN)) => None,
                Some(v) => Some(match op {
                    fir::ast::UnOp::Neg => match v {
                        Scalar::Int(x) => Scalar::Int(-x),
                        Scalar::Real(x) => Scalar::Real(-x),
                    },
                    fir::ast::UnOp::Not => Scalar::Int(i64::from(!v.is_true())),
                }),
                None => None,
            }
        }
        LExpr::Binary { op, lhs, rhs } => {
            fold(lhs);
            fold(rhs);
            match (const_of(lhs), const_of(rhs)) {
                // Integer `**` evaluates by repeated multiplication; a
                // huge literal exponent (possibly in dead code the
                // program never executes) must not hang *lowering* —
                // leave it for the executor to pay if reached.
                (Some(Scalar::Int(_)), Some(Scalar::Int(e)))
                    if *op == BinOp::Pow && e > POW_FOLD_MAX_EXP =>
                {
                    None
                }
                (Some(a), Some(b)) => try_binop(*op, a, b).ok(),
                _ => None,
            }
        }
    };
    if let Some(v) = folded {
        if let Ok(ops) = u32::try_from(weight(e)) {
            *e = LExpr::Const { v, ops };
        }
    }
}

/// Largest integer exponent constant folding will evaluate eagerly
/// (`try_int_pow` is O(exponent); beyond 63 the result is saturated
/// wrapping noise anyway, but must still match the executor bit-for-bit,
/// so small cases fold and big ones defer).
const POW_FOLD_MAX_EXP: i64 = 4096;

/// Can this intrinsic be applied at lower time without risking a panic the
/// tree-walker would only raise at run time (or not at all)?
fn intrinsic_foldable(op: Intr, vals: &[Scalar]) -> bool {
    match op {
        Intr::Unknown => false,
        Intr::Mod => {
            vals.len() == 2
                && matches!(vals[0], Scalar::Int(_))
                && matches!(vals[1], Scalar::Int(d) if d != 0)
        }
        _ => !vals.is_empty(),
    }
}

fn fold_section(sec: &mut LSection) {
    for d in &mut sec.dims {
        match d {
            LSecDim::Index(e) => fold(e),
            LSecDim::Range(a, b) => {
                if let Some(e) = a {
                    fold(e);
                }
                if let Some(e) = b {
                    fold(e);
                }
            }
        }
    }
}

fn fold_stmts(stmts: &mut [LStmt]) {
    for s in stmts {
        fold_stmt(s);
    }
}

fn fold_stmt(s: &mut LStmt) {
    match s {
        LStmt::AssignScalar { value, .. } => fold(value),
        LStmt::AssignArray { indices, value, .. } => {
            indices.iter_mut().for_each(fold);
            fold(value);
        }
        LStmt::Do {
            lower,
            upper,
            step,
            body,
            ..
        } => {
            fold(lower);
            fold(upper);
            if let Some(e) = step {
                fold(e);
            }
            fold_stmts(body);
        }
        LStmt::If {
            cond,
            then_body,
            else_body,
        } => {
            fold(cond);
            fold_stmts(then_body);
            fold_stmts(else_body);
        }
        LStmt::CallUser { args, .. } => {
            for a in args {
                match a {
                    LCallArg::Scalar { expr, .. } => fold(expr),
                    LCallArg::Section(sec) => fold_section(sec),
                    LCallArg::Array { .. } => {}
                }
            }
        }
        LStmt::CallBuiltin { args, .. } => {
            for a in args {
                match a {
                    LArg::Expr { expr, .. } => fold(expr),
                    LArg::Section(sec) => fold_section(sec),
                }
            }
        }
        LStmt::CallUnknown { .. } | LStmt::SetVar { .. } => {}
        LStmt::Block { .. } => unreachable!("blocks form after folding"),
    }
}

// ---------------------------------------------------------------- unrolling

/// Unroll loops with at most this many iterations…
const UNROLL_MAX_TRIP: i64 = 16;
/// …as long as the expansion stays at most this many statements.
const UNROLL_MAX_STMTS: i64 = 96;

/// Unroll small constant-trip loops whose bodies are pure straight-line
/// assignment runs, innermost first. Each iteration expands to a
/// [`LStmt::SetVar`] (the loop-variable store, carrying the iteration's
/// bookkeeping charge — and, on the first, the loop's bound-evaluation
/// charge) followed by a copy of the body with the loop variable
/// substituted by a weight-1 constant. Block formation afterwards swallows
/// the expansion into summarized totals (a `SetVar` left outside a block
/// adds its carried charge itself); merged charges would change a trace,
/// which is why unrolling shares the `!opts.trace` gate.
fn unroll_stmts(stmts: &mut Vec<LStmt>, allow_array: bool, cost: &CostModel) {
    for s in stmts.iter_mut() {
        match s {
            LStmt::Do { body, .. } => unroll_stmts(body, allow_array, cost),
            LStmt::If {
                then_body,
                else_body,
                ..
            } => {
                unroll_stmts(then_body, allow_array, cost);
                unroll_stmts(else_body, allow_array, cost);
            }
            _ => {}
        }
    }
    let old = std::mem::take(stmts);
    for s in old {
        match try_unroll(s, allow_array, cost) {
            Ok(mut seq) => stmts.append(&mut seq),
            Err(s) => stmts.push(s),
        }
    }
}

#[allow(clippy::result_large_err)] // Err returns the statement unchanged
fn try_unroll(s: LStmt, allow_array: bool, cost: &CostModel) -> Result<Vec<LStmt>, LStmt> {
    let LStmt::Do {
        var,
        lower,
        upper,
        step,
        body,
        ..
    } = &s
    else {
        return Err(s);
    };
    // Bounds must be integer constants (a real bound is a runtime error
    // that must keep its timing), the trip count positive and small, and
    // the body a pure straight-line assignment run.
    let (Some(Scalar::Int(lo)), Some(Scalar::Int(hi))) = (const_of(lower), const_of(upper))
    else {
        return Err(s);
    };
    let st = match step {
        None => 1,
        Some(e) => match const_of(e) {
            Some(Scalar::Int(v)) if v != 0 => v,
            _ => return Err(s), // symbolic, real, or the zero-step error
        },
    };
    // Keep the trip/stride arithmetic below far away from i64 overflow
    // (the tree-walker's own wrap-around stays its problem to replicate).
    const MAG: i64 = 1 << 32;
    if !(-MAG..=MAG).contains(&lo) || !(-MAG..=MAG).contains(&hi) || !(-MAG..=MAG).contains(&st) {
        return Err(s);
    }
    let trip = if st > 0 {
        if lo > hi {
            0
        } else {
            (hi - lo) / st + 1
        }
    } else if lo < hi {
        0
    } else {
        (lo - hi) / (-st) + 1
    };
    if !(1..=UNROLL_MAX_TRIP).contains(&trip)
        || trip.saturating_mul(body.len() as i64 + 1) > UNROLL_MAX_STMTS
    {
        return Err(s);
    }
    let straight = body.iter().all(|b| match b {
        LStmt::AssignScalar { .. } | LStmt::SetVar { .. } => true,
        LStmt::AssignArray { .. } => allow_array,
        _ => false,
    });
    if !straight {
        return Err(s);
    }
    // If the body writes the loop variable's slot, reads must keep going
    // through the slot; otherwise substitute the literal per iteration so
    // the second folding pass can exploit it.
    let body_writes_var = body.iter().any(|b| match b {
        LStmt::AssignScalar { slot, .. } | LStmt::SetVar { slot, .. } => slot == var,
        _ => false,
    });

    let bounds_ops =
        weight(lower) + weight(upper) + step.as_ref().map(weight).unwrap_or(0);
    let head_charge =
        SimTime::from_ns_f64(bounds_ops as f64 * cost.ns_per_op + cost.ns_per_stmt).as_ns();
    let book_charge = SimTime::from_ns_f64(cost.ns_per_stmt).as_ns();

    let mut out = Vec::with_capacity((trip as usize) * (body.len() + 1));
    let mut i = lo;
    for iter in 0..trip {
        out.push(LStmt::SetVar {
            slot: *var,
            v: i,
            charge: book_charge + if iter == 0 { head_charge } else { 0 },
        });
        for b in body {
            let mut copy = b.clone();
            if !body_writes_var {
                subst_var_stmt(&mut copy, *var, i);
            }
            out.push(copy);
        }
        i += st;
    }
    Ok(out)
}

/// Replace reads of the unrolled loop variable with its literal value for
/// this iteration — as a weight-1 constant, so charges are unchanged.
fn subst_var_stmt(s: &mut LStmt, var: u32, v: i64) {
    match s {
        LStmt::AssignScalar { value, .. } => subst_var(value, var, v),
        LStmt::AssignArray { indices, value, .. } => {
            for i in indices.iter_mut() {
                subst_var(i, var, v);
            }
            subst_var(value, var, v);
        }
        LStmt::SetVar { .. } => {}
        other => unreachable!("non-straight-line statement in an unrolled body: {other:?}"),
    }
}

fn subst_var(e: &mut LExpr, var: u32, v: i64) {
    match e {
        LExpr::Var(slot) if *slot == var => {
            *e = LExpr::Const {
                v: Scalar::Int(v),
                ops: 1,
            }
        }
        LExpr::Int(_) | LExpr::Real(_) | LExpr::Var(_) | LExpr::Const { .. }
        | LExpr::Hoisted { .. } => {}
        LExpr::ArrayRef { indices, .. } => {
            indices.iter_mut().for_each(|i| subst_var(i, var, v))
        }
        LExpr::Intrinsic { args, .. } => args.iter_mut().for_each(|a| subst_var(a, var, v)),
        LExpr::Unary { operand, .. } => subst_var(operand, var, v),
        LExpr::Binary { lhs, rhs, .. } => {
            subst_var(lhs, var, v);
            subst_var(rhs, var, v);
        }
    }
}

// ---------------------------------------------------------------- hoisting

fn hoist_stmts(stmts: &mut [LStmt], slots: &mut u32) {
    for s in stmts {
        match s {
            LStmt::Do { .. } => hoist_loop(s, slots),
            LStmt::If {
                then_body,
                else_body,
                ..
            } => {
                hoist_stmts(then_body, slots);
                hoist_stmts(else_body, slots);
            }
            _ => {}
        }
    }
}

/// Hoist this loop's maximal invariant subtrees to its entry, then give
/// nested loops their own pass (a subtree variant here but invariant in an
/// inner loop hoists to the inner entry instead — still once per outer
/// iteration instead of once per inner iteration).
fn hoist_loop(do_stmt: &mut LStmt, slots: &mut u32) {
    let LStmt::Do {
        var, body, hoists, ..
    } = do_stmt
    else {
        unreachable!("hoist_loop is called on Do statements only")
    };
    let mut assigned = HashSet::new();
    assigned.insert(*var);
    collect_assigned(body, &mut assigned);
    for s in body.iter_mut() {
        hoist_stmt_exprs(s, &assigned, hoists, slots);
    }
    hoist_stmts(body, slots);
}

/// Scalar slots written anywhere inside these statements (assignments and
/// loop variables). User calls cannot write caller scalars (by-value) and
/// builtins only write arrays, so this is the complete kill set.
fn collect_assigned(stmts: &[LStmt], out: &mut HashSet<u32>) {
    for s in stmts {
        match s {
            LStmt::AssignScalar { slot, .. } | LStmt::SetVar { slot, .. } => {
                out.insert(*slot);
            }
            LStmt::Do { var, body, .. } => {
                out.insert(*var);
                collect_assigned(body, out);
            }
            LStmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_assigned(then_body, out);
                collect_assigned(else_body, out);
            }
            LStmt::AssignArray { .. }
            | LStmt::CallUser { .. }
            | LStmt::CallUnknown { .. }
            | LStmt::CallBuiltin { .. } => {}
            LStmt::Block { .. } => unreachable!("blocks form after hoisting"),
        }
    }
}

fn hoist_stmt_exprs(
    s: &mut LStmt,
    assigned: &HashSet<u32>,
    hoists: &mut Vec<Hoist>,
    slots: &mut u32,
) {
    match s {
        LStmt::AssignScalar { value, .. } => try_hoist(value, assigned, hoists, slots),
        LStmt::AssignArray { indices, value, .. } => {
            for i in indices.iter_mut() {
                try_hoist(i, assigned, hoists, slots);
            }
            try_hoist(value, assigned, hoists, slots);
        }
        LStmt::Do {
            lower,
            upper,
            step,
            body,
            ..
        } => {
            try_hoist(lower, assigned, hoists, slots);
            try_hoist(upper, assigned, hoists, slots);
            if let Some(e) = step {
                try_hoist(e, assigned, hoists, slots);
            }
            for b in body.iter_mut() {
                hoist_stmt_exprs(b, assigned, hoists, slots);
            }
        }
        LStmt::If {
            cond,
            then_body,
            else_body,
        } => {
            try_hoist(cond, assigned, hoists, slots);
            for b in then_body.iter_mut() {
                hoist_stmt_exprs(b, assigned, hoists, slots);
            }
            for b in else_body.iter_mut() {
                hoist_stmt_exprs(b, assigned, hoists, slots);
            }
        }
        LStmt::CallUser { args, .. } => {
            for a in args {
                match a {
                    LCallArg::Scalar { expr, .. } => try_hoist(expr, assigned, hoists, slots),
                    LCallArg::Section(sec) => hoist_section(sec, assigned, hoists, slots),
                    LCallArg::Array { .. } => {}
                }
            }
        }
        LStmt::CallBuiltin { args, .. } => {
            for a in args {
                match a {
                    LArg::Expr { expr, .. } => try_hoist(expr, assigned, hoists, slots),
                    LArg::Section(sec) => hoist_section(sec, assigned, hoists, slots),
                }
            }
        }
        LStmt::CallUnknown { .. } | LStmt::SetVar { .. } => {}
        LStmt::Block { .. } => unreachable!("blocks form after hoisting"),
    }
}

fn hoist_section(
    sec: &mut LSection,
    assigned: &HashSet<u32>,
    hoists: &mut Vec<Hoist>,
    slots: &mut u32,
) {
    for d in &mut sec.dims {
        match d {
            LSecDim::Index(e) => try_hoist(e, assigned, hoists, slots),
            LSecDim::Range(a, b) => {
                if let Some(e) = a {
                    try_hoist(e, assigned, hoists, slots);
                }
                if let Some(e) = b {
                    try_hoist(e, assigned, hoists, slots);
                }
            }
        }
    }
}

/// Replace `e` with a hoist-slot read when it is invariant, pure, total,
/// and worth caching (≥ 2 nodes — a bare variable read costs the same as
/// a slot read); otherwise recurse into children looking for maximal
/// hoistable subtrees.
fn try_hoist(e: &mut LExpr, assigned: &HashSet<u32>, hoists: &mut Vec<Hoist>, slots: &mut u32) {
    if invariant_pure(e, assigned) {
        let w = weight(e);
        if w >= 2 {
            if let Ok(ops) = u32::try_from(w) {
                let slot = *slots;
                *slots += 1;
                let expr = std::mem::replace(e, LExpr::Hoisted { slot, ops });
                hoists.push(Hoist { slot, expr });
            }
        }
        return;
    }
    match e {
        LExpr::ArrayRef { indices, .. } => indices
            .iter_mut()
            .for_each(|i| try_hoist(i, assigned, hoists, slots)),
        LExpr::Intrinsic { args, .. } => args
            .iter_mut()
            .for_each(|a| try_hoist(a, assigned, hoists, slots)),
        LExpr::Unary { operand, .. } => try_hoist(operand, assigned, hoists, slots),
        LExpr::Binary { lhs, rhs, .. } => {
            try_hoist(lhs, assigned, hoists, slots);
            try_hoist(rhs, assigned, hoists, slots);
        }
        LExpr::Int(_) | LExpr::Real(_) | LExpr::Var(_) | LExpr::Const { .. }
        | LExpr::Hoisted { .. } => {}
    }
}

/// Invariant w.r.t. the loop's kill set, and safe to evaluate early:
/// no reads of assigned slots, no array accesses (contents change, and
/// out-of-bounds errors must keep their timing), and no operator that can
/// raise a runtime error (`/`, `**`, `mod`, unknown names).
fn invariant_pure(e: &LExpr, assigned: &HashSet<u32>) -> bool {
    match e {
        LExpr::Int(_) | LExpr::Real(_) | LExpr::Const { .. } => true,
        LExpr::Var(slot) => !assigned.contains(slot),
        // Written at an enclosing loop's entry, strictly before this loop.
        LExpr::Hoisted { .. } => true,
        LExpr::ArrayRef { .. } => false,
        LExpr::Intrinsic { op, args, .. } => {
            !matches!(op, Intr::Mod | Intr::Unknown)
                && args.iter().all(|a| invariant_pure(a, assigned))
        }
        LExpr::Unary { operand, .. } => invariant_pure(operand, assigned),
        LExpr::Binary { op, lhs, rhs } => {
            use BinOp::*;
            matches!(op, Add | Sub | Mul | Eq | Ne | Lt | Le | Gt | Ge | And | Or)
                && invariant_pure(lhs, assigned)
                && invariant_pure(rhs, assigned)
        }
    }
}

// ------------------------------------------------- block summarization

/// The rounded charge `charge_stmt` would make for one straight-line
/// statement: its static op count times `ns_per_op`, plus the statement
/// dispatch cost, rounded to integer nanoseconds exactly once.
fn stmt_charge(s: &LStmt, cost: &CostModel) -> u64 {
    let ops = match s {
        LStmt::AssignScalar { value, .. } => weight(value),
        LStmt::AssignArray { indices, value, .. } => {
            indices.iter().map(weight).sum::<u64>() + weight(value)
        }
        // Unrolled loop heads carry their (already rounded) charge.
        LStmt::SetVar { charge, .. } => return *charge,
        other => unreachable!("non-straight-line statement in a block: {other:?}"),
    };
    SimTime::from_ns_f64(ops as f64 * cost.ns_per_op + cost.ns_per_stmt).as_ns()
}

/// Group maximal runs of straight-line assignments that compile to
/// register code into [`LStmt::Block`]s with precomputed charges, and
/// collapse whole-body blocks into the loop's one-add-per-iteration fast
/// path. `loop_var` is the variable of the `do` whose body `stmts` is.
fn form_blocks(
    stmts: &mut Vec<LStmt>,
    opts: &Options,
    env: &mut ProcTyEnv,
    loop_var: Option<u32>,
) {
    for s in stmts.iter_mut() {
        match s {
            LStmt::Do {
                var,
                body,
                hoists,
                iter_charge,
                ..
            } => {
                // Hoists evaluate at loop entry, before the body — type
                // them first so the body's blocks can pin their slots.
                for h in hoists.iter() {
                    env.hoists[h.slot as usize] = lexpr_ty(&h.expr, env);
                }
                form_blocks(body, opts, env, Some(*var));
                if let [LStmt::Block { charge, .. }] = body.as_slice() {
                    // Fold the loop's own increment/test bookkeeping into
                    // the per-iteration add.
                    *iter_charge =
                        Some(charge + SimTime::from_ns_f64(opts.cost.ns_per_stmt).as_ns());
                }
            }
            LStmt::If {
                then_body,
                else_body,
                ..
            } => {
                form_blocks(then_body, opts, env, None);
                form_blocks(else_body, opts, env, None);
            }
            _ => {}
        }
    }

    // Communication buffers are read at send time and written at wait
    // time under the *same* clock discipline either way, but the hazard
    // detector compares array stores against `now()` mid-statement — so
    // array stores only join blocks when detection is off.
    let allow_array = !opts.detect_buffer_reuse;
    let straight = |s: &LStmt| match s {
        LStmt::AssignScalar { .. } | LStmt::SetVar { .. } => true,
        LStmt::AssignArray { .. } => allow_array,
        _ => false,
    };

    let old = std::mem::take(stmts);
    let mut builder = RegBuilder::new(env, loop_var);
    let mut run: Vec<LStmt> = Vec::new();
    for s in old {
        if straight(&s) && builder.push_stmt(&s) {
            run.push(s);
            continue;
        }
        // The block ends here: `s` is not straight-line, or does not type,
        // or the block has no registers left for it — in which case it
        // starts the next block.
        flush_run(&mut run, &mut builder, stmts, &opts.cost);
        if straight(&s) && builder.push_stmt(&s) {
            run.push(s);
        } else {
            stmts.push(s);
        }
    }
    flush_run(&mut run, &mut builder, stmts, &opts.cost);
}

fn flush_run(
    run: &mut Vec<LStmt>,
    builder: &mut RegBuilder,
    out: &mut Vec<LStmt>,
    cost: &CostModel,
) {
    if run.is_empty() {
        return;
    }
    let stmts = std::mem::take(run);
    let charge = stmts.iter().map(|s| stmt_charge(s, cost)).sum();
    out.push(LStmt::Block {
        stmts,
        code: builder.finish(),
        charge,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;

    fn lowered_main(src: &str, opts: &Options) -> crate::lower::LProc {
        let program = fir::parse_validated(src).expect("test source is valid");
        let mut l = lower(&program);
        optimize(&mut l, opts);
        let main = l.main;
        l.procs.swap_remove(main)
    }

    fn count_blocks(stmts: &[LStmt], out: &mut Vec<usize>) {
        for s in stmts {
            match s {
                LStmt::Block { stmts, .. } => {
                    out.push(stmts.len());
                    // Blocks are flat: only straight-line assignments.
                    assert!(stmts.iter().all(|s| matches!(
                        s,
                        LStmt::AssignScalar { .. } | LStmt::AssignArray { .. }
                    )));
                }
                LStmt::Do { body, .. } => count_blocks(body, out),
                LStmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    count_blocks(then_body, out);
                    count_blocks(else_body, out);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn constants_fold_with_historical_weight() {
        let main = lowered_main(
            "program m\n  integer :: a(8)\n  a(2 * 3 + 1) = 4 - 2\nend program",
            &Options::default(),
        );
        let LStmt::Block { stmts, .. } = &main.body[0] else {
            panic!("assignment summarized into a block");
        };
        let LStmt::AssignArray { indices, value, .. } = &stmts[0] else {
            panic!("array assignment survives");
        };
        // `2 * 3 + 1` is 5 nodes, `4 - 2` is 3 nodes.
        assert!(
            matches!(indices[0], LExpr::Const { v: Scalar::Int(7), ops: 5 }),
            "{:?}",
            indices[0]
        );
        assert!(
            matches!(value, LExpr::Const { v: Scalar::Int(2), ops: 3 }),
            "{value:?}"
        );
    }

    #[test]
    fn erroring_constants_stay_unfolded() {
        for src in [
            "program m\n  integer :: a(4)\n  a(1) = 1 / 0\nend program",
            "program m\n  integer :: a(4)\n  a(1) = mod(1, 0)\nend program",
            "program m\n  integer :: a(4)\n  a(1) = 0 ** (-1)\nend program",
        ] {
            let main = lowered_main(src, &Options::default());
            let LStmt::Block { stmts, .. } = &main.body[0] else {
                panic!("assignment summarized into a block");
            };
            let LStmt::AssignArray { value, .. } = &stmts[0] else {
                panic!("array assignment survives");
            };
            assert!(
                !matches!(value, LExpr::Const { .. }),
                "erroring expression must not fold: {value:?}"
            );
        }
    }

    #[test]
    fn loop_invariant_index_math_hoists() {
        let main = lowered_main(
            "program m\n  integer :: a(64)\n  do i = 1, 64\n    a(i) = np * 2 + mynum + i\n  end do\nend program",
            &Options::default(),
        );
        let LStmt::Do { hoists, body, .. } = &main.body[0] else {
            panic!("loop survives");
        };
        // `np * 2 + mynum` (5 nodes) hoists; `+ i` stays.
        assert_eq!(hoists.len(), 1);
        assert_eq!(weight(&hoists[0].expr), 5);
        let LStmt::Block { stmts, .. } = &body[0] else {
            panic!("loop body summarized");
        };
        let LStmt::AssignArray { value, .. } = &stmts[0] else {
            panic!("array assignment survives");
        };
        let LExpr::Binary { lhs, .. } = value else {
            panic!("the varying `+ i` remains: {value:?}");
        };
        assert!(matches!(**lhs, LExpr::Hoisted { ops: 5, .. }), "{lhs:?}");
    }

    #[test]
    fn hoisting_respects_the_kill_set() {
        // `t` is assigned inside the loop, so `t * 2` must not hoist.
        let main = lowered_main(
            "program m\n  integer :: a(64)\n  do i = 1, 64\n    t = t * 2 + 1\n    a(i) = t\n  end do\nend program",
            &Options::default(),
        );
        let LStmt::Do { hoists, .. } = &main.body[0] else {
            panic!("loop survives");
        };
        assert!(hoists.is_empty(), "{hoists:?}");
    }

    #[test]
    fn erroring_operators_never_hoist() {
        // `np / i0` and `mod(np, i0)` are invariant but can error — they
        // must stay in place so the error keeps its timing and message.
        let main = lowered_main(
            "program m\n  integer :: a(64)\n  i0 = 3\n  do i = 1, 64\n    a(i) = np / i0 + mod(np, i0) + i\n  end do\nend program",
            &Options::default(),
        );
        let LStmt::Do { hoists, .. } = &main.body[1] else {
            panic!("loop survives");
        };
        assert!(hoists.is_empty(), "{hoists:?}");
    }

    #[test]
    fn blocks_never_span_communication_or_calls() {
        let main = lowered_main(
            "program m
  real :: s(16), r(16)
  do it = 1, 2
    s(1) = 1
    s(2) = 2
    call mpi_isend(s, 4, mod(mynum + 1, np), 5)
    s(3) = 3
    call mpi_irecv(r, 4, mod(np + mynum - 1, np), 5)
    s(4) = 4
    call mpi_waitall()
  end do
end program",
            &Options::default(),
        );
        let LStmt::Do {
            body, iter_charge, ..
        } = &main.body[0]
        else {
            panic!("loop survives");
        };
        // Three separate blocks — [s1,s2], [s3], [s4] — each ended by a
        // builtin call; the body is NOT one summarized block.
        assert!(iter_charge.is_none());
        let mut sizes = Vec::new();
        count_blocks(body, &mut sizes);
        assert_eq!(sizes, vec![2, 1, 1]);
        let calls = body
            .iter()
            .filter(|s| matches!(s, LStmt::CallBuiltin { .. }))
            .count();
        assert_eq!(calls, 3, "calls stay top-level between blocks");
    }

    #[test]
    fn user_calls_end_blocks_too() {
        let main = lowered_main(
            "subroutine f(x)
  integer :: x
end subroutine

program m
  integer :: a(4)
  a(1) = 1
  call f(2)
  a(2) = 2
end program",
            &Options::default(),
        );
        let mut sizes = Vec::new();
        count_blocks(&main.body, &mut sizes);
        assert_eq!(sizes, vec![1, 1]);
        assert!(main
            .body
            .iter()
            .any(|s| matches!(s, LStmt::CallUser { .. })));
    }

    #[test]
    fn whole_body_block_gains_the_iteration_charge() {
        let main = lowered_main(
            "program m\n  integer :: a(64)\n  do i = 1, 64\n    a(i) = i * 2\n  end do\nend program",
            &Options::default(),
        );
        let LStmt::Do {
            body, iter_charge, ..
        } = &main.body[0]
        else {
            panic!("loop survives");
        };
        let [LStmt::Block { charge, .. }] = body.as_slice() else {
            panic!("single-assignment body summarizes to one block");
        };
        // value `i * 2` = 3 ops, indices `i` = 1 op: 4·1 + 2 = 6 ns; the
        // iteration adds the loop bookkeeping's own 2 ns.
        assert_eq!(*charge, 6);
        assert_eq!(*iter_charge, Some(8));
    }

    #[test]
    fn small_constant_loops_unroll_into_the_enclosing_block() {
        let main = lowered_main(
            "program m\n  real :: a(4)\n  do i = 1, 3\n    t = t + sin(0.5 * i)\n  end do\n  a(1) = t\nend program",
            &Options::default(),
        );
        // The whole body — unrolled loop plus the final store — is one
        // summarized block.
        let [LStmt::Block { stmts, charge, .. }] = main.body.as_slice() else {
            panic!("unrolled program summarizes to one block: {:?}", main.body);
        };
        let setvars: Vec<_> = stmts
            .iter()
            .filter_map(|s| match s {
                LStmt::SetVar { v, charge, .. } => Some((*v, *charge)),
                _ => None,
            })
            .collect();
        // Three iterations; the first SetVar carries the loop-head charge
        // (2 bound ops · 1 ns + 2 ns = 4 ns) on top of the per-iteration
        // bookkeeping (2 ns).
        assert_eq!(setvars, vec![(1, 6), (2, 2), (3, 2)]);
        // The substituted `sin(0.5 * i)` folded to a constant of the
        // historical weight (sin + mul + two leaves = 4 nodes), so each
        // assignment charges round(6·1 + 2) = 8 ns: value is
        // `t + Const` = 1 + 1 + 4 = 6 ops.
        let consts: Vec<_> = stmts
            .iter()
            .filter_map(|s| match s {
                LStmt::AssignScalar { value: LExpr::Binary { rhs, .. }, .. } => {
                    match **rhs {
                        LExpr::Const { v: Scalar::Real(x), ops } => Some((x, ops)),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect();
        assert_eq!(consts.len(), 3);
        assert!(consts.iter().all(|(_, ops)| *ops == 4));
        assert_eq!(consts[1].0, (1.0f64).sin());
        // Total: head 4 + 3·(bookkeeping 2 + assignment 8) + final array
        // store round((1 + 1)·1 + 2) = 4.
        assert_eq!(*charge, 4 + 3 * (2 + 8) + 4);
    }

    #[test]
    fn symbolic_or_large_loops_do_not_unroll() {
        for src in [
            // Symbolic bound.
            "program m\n  real :: a(4)\n  do i = 1, np\n    t = t + i\n  end do\n  a(1) = t\nend program",
            // Trip count above the threshold.
            "program m\n  real :: a(4)\n  do i = 1, 64\n    t = t + i\n  end do\n  a(1) = t\nend program",
            // Body contains a call.
            "program m\n  real :: a(4)\n  do i = 1, 3\n    call print(i)\n  end do\n  a(1) = t\nend program",
        ] {
            let main = lowered_main(src, &Options::default());
            assert!(
                main.body
                    .iter()
                    .any(|s| matches!(s, LStmt::Do { .. })),
                "loop must survive: {src}"
            );
        }
    }

    #[test]
    fn tracing_disables_block_formation_but_keeps_folding() {
        let opts = Options {
            trace: true,
            ..Default::default()
        };
        let main = lowered_main(
            "program m\n  integer :: a(8)\n  a(1) = 2 + 3\n  a(2) = 4\nend program",
            &opts,
        );
        let mut sizes = Vec::new();
        count_blocks(&main.body, &mut sizes);
        assert!(sizes.is_empty(), "no blocks under tracing");
        let LStmt::AssignArray { value, .. } = &main.body[0] else {
            panic!("plain assignment under tracing");
        };
        assert!(matches!(value, LExpr::Const { v: Scalar::Int(5), ops: 3 }));
    }

    #[test]
    fn buffer_reuse_detection_excludes_array_stores_from_blocks() {
        let opts = Options::strict();
        let main = lowered_main(
            "program m\n  integer :: a(8)\n  t = 1\n  u = 2\n  a(1) = t\n  v = 3\nend program",
            &opts,
        );
        let mut sizes = Vec::new();
        count_blocks(&main.body, &mut sizes);
        // Scalar runs still summarize; the array store stands alone.
        assert_eq!(sizes, vec![2, 1]);
        assert!(main
            .body
            .iter()
            .any(|s| matches!(s, LStmt::AssignArray { .. })));
    }
}


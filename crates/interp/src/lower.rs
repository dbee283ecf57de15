//! Lowering: resolve a validated AST to a slot-indexed program, once,
//! before any rank executes it.
//!
//! The tree-walking executor used to clone `String` names and do `HashMap`
//! lookups on **every** variable access, per rank, per iteration. This pass
//! interns every name into a per-procedure *slot* (a dense `u32` index into
//! the frame's scalar / array vectors), resolves user calls to procedure
//! indices, and intrinsics/builtins to enums — so the execute loop is pure
//! `Vec` indexing. One lowered program is shared read-only by all ranks.
//!
//! **Timing parity invariant:** the lowered tree is node-for-node
//! isomorphic to the AST, and the executor charges exactly one `op` per
//! lowered expression node, mirroring the historical `eval`. Virtual times
//! are therefore byte-identical to the pre-lowering interpreter — pinned by
//! the golden/differential suites.

use crate::reg::RegCode;
use crate::value::Scalar;
use fir::ast::*;
use fir::span::Span;
use std::collections::HashMap;

/// Program-wide procedure index: name -> (procedure index, AST node).
struct ProcIndex<'p> {
    by_name: HashMap<&'p str, usize>,
    procs: Vec<&'p Procedure>,
}

/// A lowered program: procedures by index, `main` last-resolved.
pub(crate) struct LProgram {
    pub procs: Vec<LProc>,
    pub main: usize,
}

/// One lowered procedure.
pub(crate) struct LProc {
    pub name: String,
    /// Typed zero per scalar slot (declared type, else the implicit rule) —
    /// reads of never-written slots return this, replicating Fortran's
    /// deterministic-zero convention documented in DESIGN.md.
    pub scalar_defaults: Vec<Scalar>,
    /// Scalar slot -> source name (type reports, debugging).
    pub scalar_names: Vec<String>,
    /// Array slot -> source name (error messages, output dumps).
    pub array_names: Vec<String>,
    /// Array allocations/bindings, in declaration order.
    pub array_decls: Vec<LArrayDecl>,
    /// Number of parameters (caller builds one handle slot per param).
    pub nparams: usize,
    /// Number of loop-invariant hoist slots [`crate::opt`] allocated for
    /// this procedure (0 until the opt pass runs).
    pub hoist_slots: usize,
    pub body: Vec<LStmt>,
}

/// An array declaration: allocate fresh storage, or — when `param` names a
/// parameter position — overlay the declared shape onto the caller-passed
/// window (Fortran sequence association).
pub(crate) struct LArrayDecl {
    pub slot: u32,
    pub name: String,
    pub ty: ScalarType,
    pub dims: Vec<(LExpr, LExpr)>,
    pub param: Option<usize>,
}

#[derive(Debug, Clone)]
pub(crate) enum LExpr {
    Int(i64),
    Real(f64),
    Var(u32),
    /// A constant-folded subtree ([`crate::opt`]). Evaluates to `v` but
    /// still charges the folded subtree's historical node count `ops`, so
    /// virtual times stay byte-identical to the unfolded tree.
    Const { v: Scalar, ops: u32 },
    /// A loop-hoisted subtree ([`crate::opt`]): reads the value cached in
    /// the frame's hoist slot at loop entry, charging the replaced
    /// subtree's historical node count `ops` — the tree-walker evaluated
    /// it on every iteration, so the charge stays per-use.
    Hoisted { slot: u32, ops: u32 },
    /// `slot` is `None` when the name is not an array in this scope — the
    /// executor reports the same runtime error the tree-walker did.
    ArrayRef {
        slot: Option<u32>,
        name: String,
        indices: Vec<LExpr>,
    },
    Intrinsic {
        op: Intr,
        name: String,
        args: Vec<LExpr>,
    },
    Unary {
        op: UnOp,
        operand: Box<LExpr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<LExpr>,
        rhs: Box<LExpr>,
    },
}

/// Intrinsic functions, resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Intr {
    Mod,
    Min,
    Max,
    Abs,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    Floor,
    Int,
    Real,
    /// Unknown name (validation gap) — runtime error, like the tree-walker.
    Unknown,
}

fn intr_of(name: &str) -> Intr {
    match name {
        "mod" => Intr::Mod,
        "min" => Intr::Min,
        "max" => Intr::Max,
        "abs" => Intr::Abs,
        "sqrt" => Intr::Sqrt,
        "sin" => Intr::Sin,
        "cos" => Intr::Cos,
        "exp" => Intr::Exp,
        "log" => Intr::Log,
        "floor" => Intr::Floor,
        "int" => Intr::Int,
        "real" => Intr::Real,
        _ => Intr::Unknown,
    }
}

/// A section argument (`a(1:n, j)`), slot-resolved.
#[derive(Debug, Clone)]
pub(crate) struct LSection {
    /// `None` when the base name is not an array in this scope.
    pub slot: Option<u32>,
    pub name: String,
    pub dims: Vec<LSecDim>,
}

#[derive(Debug, Clone)]
pub(crate) enum LSecDim {
    Index(LExpr),
    Range(Option<LExpr>, Option<LExpr>),
}

/// How a builtin argument resolves when used as a communication buffer.
#[derive(Debug, Clone)]
pub(crate) enum BufferKind {
    /// `Var(n)` where `n` is an array: the whole-array window.
    Array(u32),
    /// `Var(n)` where `n` is not an array.
    NotArray,
    /// Any other expression — never a legal buffer.
    NotAVar(Span),
}

/// Builtin-call argument: an expression (with its buffer resolution, since
/// the same argument can be read as a buffer *or* a scalar depending on
/// position) or a section.
#[derive(Debug, Clone)]
pub(crate) enum LArg {
    Expr {
        expr: LExpr,
        name: String,
        buffer: BufferKind,
    },
    Section(LSection),
}

/// User-call argument plan.
#[derive(Debug, Clone)]
pub(crate) enum LCallArg {
    /// `Var(n)` where `n` is an array in the caller: pass by reference.
    Array { caller_slot: u32 },
    Section(LSection),
    /// Scalar by value into the callee's slot, converted to its type.
    Scalar {
        expr: LExpr,
        callee_slot: u32,
        ty: ScalarType,
    },
}

/// Builtin subroutines, resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Isend,
    Irecv,
    WaitallRecv,
    Waitall,
    Barrier,
    Alltoall,
    Print,
    /// `is_builtin_sub` said yes but the executor has no implementation —
    /// kept as a runtime error for parity.
    Unknown,
}

/// A loop-invariant computation cached at loop entry ([`crate::opt`]).
#[derive(Debug, Clone)]
pub(crate) struct Hoist {
    pub slot: u32,
    pub expr: LExpr,
}

#[derive(Debug, Clone)]
pub(crate) enum LStmt {
    AssignScalar {
        slot: u32,
        ty: ScalarType,
        value: LExpr,
    },
    AssignArray {
        /// `None`: not an array in this scope (runtime error, as before).
        slot: Option<u32>,
        name: String,
        indices: Vec<LExpr>,
        value: LExpr,
    },
    Do {
        var: u32,
        lower: LExpr,
        upper: LExpr,
        step: Option<LExpr>,
        var_name: String,
        body: Vec<LStmt>,
        /// Loop-invariant subtrees cached (uncharged) at loop entry.
        hoists: Vec<Hoist>,
        /// When the whole body is one summarized [`LStmt::Block`], the
        /// precomputed per-iteration charge: the block's statement charges
        /// plus the loop's own increment/test bookkeeping, already rounded
        /// per statement to integer nanoseconds so one add per iteration
        /// reproduces the tree-walker's clock exactly.
        iter_charge: Option<u64>,
    },
    /// A straight-line run of assignment statements (no communication,
    /// branch, call, or loop) whose cost is charged in one precomputed add
    /// instead of per statement ([`crate::opt`]). `charge` is the sum of
    /// the per-statement rounded charges the tree-walker would have made;
    /// `code` is the register-code compilation of `stmts` the executor
    /// runs (same evaluation order, statically typed — [`crate::reg`]).
    Block {
        /// The statements `code` was compiled from: what the tree-walker
        /// runs instead when a dummy array aliases storage of another
        /// element type, and what the opt unit tests inspect.
        stmts: Vec<LStmt>,
        code: RegCode,
        charge: u64,
    },
    /// An unrolled loop's per-iteration head ([`crate::opt`]): store the
    /// loop variable and account the iteration's bookkeeping (plus, on the
    /// first iteration, the loop's bound-evaluation charge) inside the
    /// enclosing block's summarized total — or, left outside a block, by
    /// one exact add of its own.
    SetVar { slot: u32, v: i64, charge: u64 },
    If {
        cond: LExpr,
        then_body: Vec<LStmt>,
        else_body: Vec<LStmt>,
    },
    CallUser {
        proc: usize,
        args: Vec<LCallArg>,
    },
    CallUnknown {
        name: String,
    },
    CallBuiltin {
        op: Builtin,
        name: String,
        args: Vec<LArg>,
    },
}

/// Per-procedure name resolution state.
struct Scope<'p> {
    proc: &'p Procedure,
    scalar_slots: HashMap<String, u32>,
    scalar_names: Vec<String>,
    array_slots: HashMap<String, u32>,
    array_names: Vec<String>,
}

impl<'p> Scope<'p> {
    fn new(proc: &'p Procedure) -> Self {
        let mut s = Scope {
            proc,
            scalar_slots: HashMap::new(),
            scalar_names: Vec::new(),
            array_slots: HashMap::new(),
            array_names: Vec::new(),
        };
        // `mynum` / `np` are predefined in every frame (slots 0 and 1).
        s.scalar_slot("mynum");
        s.scalar_slot("np");
        // Arrays are exactly the declared-with-dims names, in decl order.
        for d in &proc.decls {
            if d.is_array() {
                let slot = s.array_names.len() as u32;
                s.array_slots.insert(d.name.clone(), slot);
                s.array_names.push(d.name.clone());
            }
        }
        s
    }

    fn scalar_slot(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.scalar_slots.get(name) {
            return i;
        }
        let i = self.scalar_names.len() as u32;
        self.scalar_slots.insert(name.to_string(), i);
        self.scalar_names.push(name.to_string());
        i
    }

    fn array_slot(&self, name: &str) -> Option<u32> {
        self.array_slots.get(name).copied()
    }

    /// Static scalar type of a name (declared, or implicit) — the same
    /// rule the tree-walker applied per store.
    fn scalar_ty(&self, name: &str) -> ScalarType {
        match self.proc.decl(name) {
            Some(d) if !d.is_array() => d.ty,
            _ => fir::symbol::implicit_type(name),
        }
    }
}

/// Lower a validated program. Call sites referencing unknown procedures or
/// intrinsics lower to runtime-error nodes (parity with the tree-walker's
/// "validation gap" panics).
pub(crate) fn lower(program: &Program) -> LProgram {
    // Procedure name -> index; `main` goes last.
    let mut order: Vec<&Procedure> = program.procedures.iter().collect();
    order.push(&program.main);
    let index = ProcIndex {
        by_name: order
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect(),
        procs: order.clone(),
    };

    let procs: Vec<LProc> = order.iter().map(|p| lower_proc(p, &index)).collect();
    LProgram {
        main: procs.len() - 1,
        procs,
    }
}

/// The scalar slot the callee's own `Scope` will assign to parameter
/// `param_idx` — reproduced here because procedures lower independently.
/// `Scope::new` pre-interns `mynum` (0) and `np` (1), then parameters
/// intern in order with get-or-insert semantics.
fn callee_param_slot(callee: &Procedure, param_idx: usize) -> u32 {
    let mut names: Vec<&str> = vec!["mynum", "np"];
    let mut slot = 0u32;
    for (i, p) in callee.params.iter().enumerate() {
        let s = match names.iter().position(|n| *n == p.name) {
            Some(pos) => pos as u32,
            None => {
                names.push(p.name.as_str());
                (names.len() - 1) as u32
            }
        };
        if i == param_idx {
            slot = s;
            break;
        }
    }
    slot
}

/// Static scalar type of `name` inside `proc` (declared, or implicit).
fn proc_scalar_ty(proc: &Procedure, name: &str) -> ScalarType {
    match proc.decl(name) {
        Some(d) if !d.is_array() => d.ty,
        _ => fir::symbol::implicit_type(name),
    }
}

fn lower_proc(proc: &Procedure, index: &ProcIndex) -> LProc {
    let mut scope = Scope::new(proc);
    // Parameters get scalar slots up front (callers bind by-value scalars
    // into them before the body runs).
    for (i, p) in proc.params.iter().enumerate() {
        let slot = scope.scalar_slot(&p.name);
        // `callee_param_slot` re-derives this assignment at every call
        // site (procedures lower independently); keep the two algorithms
        // provably in lockstep.
        debug_assert_eq!(
            slot,
            callee_param_slot(proc, i),
            "param slot derivation diverged for `{}` param {i} (`{}`)",
            proc.name,
            p.name
        );
    }

    let array_decls: Vec<LArrayDecl> = proc
        .decls
        .iter()
        .filter(|d| d.is_array())
        .map(|d| LArrayDecl {
            slot: scope.array_slot(&d.name).expect("registered in Scope::new"),
            name: d.name.clone(),
            ty: d.ty,
            dims: d
                .dims
                .iter()
                .map(|b| {
                    (
                        lower_expr(&b.lower, &mut scope),
                        lower_expr(&b.upper, &mut scope),
                    )
                })
                .collect(),
            param: proc.params.iter().position(|p| p.name == d.name),
        })
        .collect();

    let body = lower_stmts(&proc.body, &mut scope, index);

    let scalar_defaults = scope
        .scalar_names
        .iter()
        .map(|n| match scope.scalar_ty(n) {
            ScalarType::Integer => Scalar::Int(0),
            ScalarType::Real => Scalar::Real(0.0),
        })
        .collect();
    LProc {
        name: proc.name.clone(),
        scalar_defaults,
        scalar_names: scope.scalar_names,
        array_names: scope.array_names,
        array_decls,
        nparams: proc.params.len(),
        hoist_slots: 0,
        body,
    }
}

fn lower_stmts(stmts: &[Stmt], scope: &mut Scope, index: &ProcIndex) -> Vec<LStmt> {
    stmts.iter().map(|s| lower_stmt(s, scope, index)).collect()
}

fn lower_stmt(s: &Stmt, scope: &mut Scope, index: &ProcIndex) -> LStmt {
    match s {
        Stmt::Assign { target, value, .. } => {
            let value = lower_expr(value, scope);
            if target.indices.is_empty() {
                LStmt::AssignScalar {
                    slot: scope.scalar_slot(&target.name),
                    ty: scope.scalar_ty(&target.name),
                    value,
                }
            } else {
                LStmt::AssignArray {
                    slot: scope.array_slot(&target.name),
                    name: target.name.clone(),
                    indices: target
                        .indices
                        .iter()
                        .map(|e| lower_expr(e, scope))
                        .collect(),
                    value,
                }
            }
        }
        Stmt::Do {
            var,
            lower,
            upper,
            step,
            body,
            ..
        } => LStmt::Do {
            var: scope.scalar_slot(var),
            lower: lower_expr(lower, scope),
            upper: lower_expr(upper, scope),
            step: step.as_ref().map(|e| lower_expr(e, scope)),
            var_name: var.clone(),
            body: lower_stmts(body, scope, index),
            hoists: Vec::new(),
            iter_charge: None,
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => LStmt::If {
            cond: lower_expr(cond, scope),
            then_body: lower_stmts(then_body, scope, index),
            else_body: lower_stmts(else_body, scope, index),
        },
        Stmt::Call { name, args, .. } => {
            if fir::intrinsics::is_builtin_sub(name) {
                let op = match name.as_str() {
                    "mpi_isend" => Builtin::Isend,
                    "mpi_irecv" => Builtin::Irecv,
                    "mpi_waitall_recv" => Builtin::WaitallRecv,
                    "mpi_waitall" => Builtin::Waitall,
                    "mpi_barrier" => Builtin::Barrier,
                    "mpi_alltoall" => Builtin::Alltoall,
                    "print" => Builtin::Print,
                    _ => Builtin::Unknown,
                };
                LStmt::CallBuiltin {
                    op,
                    name: name.clone(),
                    args: args.iter().map(|a| lower_arg(a, scope)).collect(),
                }
            } else {
                match index.by_name.get(name.as_str()) {
                    None => LStmt::CallUnknown { name: name.clone() },
                    Some(&proc_idx) => LStmt::CallUser {
                        proc: proc_idx,
                        args: lower_call_args(index.procs[proc_idx], args, scope),
                    },
                }
            }
        }
    }
}

/// Lower user-call arguments against the callee's parameter list. Mirrors
/// the tree-walker's `params.iter().zip(args)`: extra arguments are
/// ignored, missing ones leave parameters unbound.
fn lower_call_args(callee: &Procedure, args: &[Arg], scope: &mut Scope) -> Vec<LCallArg> {
    callee
        .params
        .iter()
        .enumerate()
        .zip(args)
        .map(|((pi, param), arg)| match arg {
            Arg::Expr(Expr::Var(n, _)) if scope.array_slot(n).is_some() => LCallArg::Array {
                caller_slot: scope.array_slot(n).expect("just checked"),
            },
            Arg::Section(sec) => LCallArg::Section(lower_section(sec, scope)),
            Arg::Expr(e) => LCallArg::Scalar {
                expr: lower_expr(e, scope),
                callee_slot: callee_param_slot(callee, pi),
                ty: proc_scalar_ty(callee, &param.name),
            },
        })
        .collect()
}

fn lower_expr(e: &Expr, scope: &mut Scope) -> LExpr {
    match e {
        Expr::IntLit(v, _) => LExpr::Int(*v),
        Expr::RealLit(v, _) => LExpr::Real(*v),
        Expr::Var(n, _) => LExpr::Var(scope.scalar_slot(n)),
        Expr::ArrayRef { name, indices, .. } => LExpr::ArrayRef {
            slot: scope.array_slot(name),
            name: name.clone(),
            indices: indices.iter().map(|i| lower_expr(i, scope)).collect(),
        },
        Expr::Call { name, args, .. } => LExpr::Intrinsic {
            op: intr_of(name),
            name: name.clone(),
            args: args.iter().map(|a| lower_expr(a, scope)).collect(),
        },
        Expr::Unary { op, operand, .. } => LExpr::Unary {
            op: *op,
            operand: Box::new(lower_expr(operand, scope)),
        },
        Expr::Binary { op, lhs, rhs, .. } => LExpr::Binary {
            op: *op,
            lhs: Box::new(lower_expr(lhs, scope)),
            rhs: Box::new(lower_expr(rhs, scope)),
        },
    }
}

fn lower_section(sec: &Section, scope: &mut Scope) -> LSection {
    LSection {
        slot: scope.array_slot(&sec.name),
        name: sec.name.clone(),
        dims: sec
            .dims
            .iter()
            .map(|d| match d {
                SecDim::Index(e) => LSecDim::Index(lower_expr(e, scope)),
                SecDim::Range(a, b) => LSecDim::Range(
                    a.as_ref().map(|e| lower_expr(e, scope)),
                    b.as_ref().map(|e| lower_expr(e, scope)),
                ),
            })
            .collect(),
    }
}

fn lower_arg(a: &Arg, scope: &mut Scope) -> LArg {
    match a {
        Arg::Section(sec) => LArg::Section(lower_section(sec, scope)),
        Arg::Expr(e) => {
            let buffer = match e {
                Expr::Var(n, _) => match scope.array_slot(n) {
                    Some(slot) => BufferKind::Array(slot),
                    None => BufferKind::NotArray,
                },
                other => BufferKind::NotAVar(other.span()),
            };
            let name = match e {
                Expr::Var(n, _) => n.clone(),
                _ => String::new(),
            };
            LArg::Expr {
                expr: lower_expr(e, scope),
                name,
                buffer,
            }
        }
    }
}

//! Name resolution for the communication verifier.
//!
//! [`resolve`] lowers the main program once per [`crate::verify_comm`]
//! call into a tree the per-rank walk can execute without looking a name
//! up again — the move `interp::lower` makes for the interpreter:
//!
//! - scalars are dense [`Slot`]s (the abstract environment is a `Vec`),
//!   each with its never-written default and integer-ness decided here;
//! - arrays are [`ArrayId`]s carrying their lowered declared bounds;
//! - every expression node carries its [`depan::affine`] form (computed
//!   once, not per evaluation) and whether it is statically an integer;
//! - every loop knows whether its body communicates and which scalars it
//!   assigns; every call site knows what its callee is.
//!
//! Resolution decides nothing the walk used to decide differently: it
//! only moves name lookups and per-expression classification ahead of the
//! per-rank, per-iteration walk.

use crate::comm::CommCheckConfig;
use crate::interval::Val;
use fir::ast::{self, BinOp, Decl, Expr, Program, ScalarType, UnOp};
use fir::intrinsics::{is_mpi_builtin, is_predefined_scalar};
use fir::span::Span;
use fir::symbol::implicit_type;
use std::collections::HashMap;

pub(crate) type Slot = usize;
pub(crate) type ArrayId = usize;

/// `Σ coeff·slot + constant`, terms in [`depan::affine::Affine::vars`]
/// order (overflow is detected at the same partial sum).
pub(crate) struct Affine {
    terms: Vec<(Slot, i64)>,
    constant: i64,
}

impl Affine {
    /// Evaluate with every variable bound to a known constant in `env`;
    /// `None` if any is unwritten, not a singleton, or the sum overflows.
    pub(crate) fn eval(&self, env: &[Option<Val>]) -> Option<i64> {
        let mut acc = self.constant;
        for &(slot, c) in &self.terms {
            acc = acc.checked_add(c.checked_mul(env[slot]?.singleton()?)?)?;
        }
        Some(acc)
    }
}

pub(crate) struct Node {
    pub kind: Kind,
    /// The affine form of this whole subexpression, when it has one.
    pub affine: Option<Affine>,
    /// Statically integer-valued (mirrors `fir::validate::infer_type`
    /// conservatively: `false` when unsure).
    pub is_int: bool,
}

pub(crate) enum Kind {
    Int(i64),
    Real,
    Var(Slot),
    /// `array` is set when the name is a declared array (only then is the
    /// reference a tracked read); the value of any reference is unknown.
    ArrayRef {
        array: Option<ArrayId>,
        indices: Vec<Node>,
        span: Span,
    },
    Call {
        f: Intrinsic,
        args: Vec<Node>,
    },
    Neg(Box<Node>),
    Not(Box<Node>),
    Binary {
        op: BinOp,
        lhs: Box<Node>,
        rhs: Box<Node>,
    },
}

#[derive(Clone, Copy)]
pub(crate) enum Intrinsic {
    Mod,
    Min,
    Max,
    Abs,
    /// `int` / `floor`.
    Trunc,
    Other,
}

pub(crate) enum Stmt<'p> {
    AssignScalar {
        slot: Slot,
        value: Node,
        span: Span,
    },
    AssignArray {
        array: ArrayId,
        indices: Vec<Node>,
        value: Node,
        span: Span,
    },
    Do {
        var: Slot,
        name: &'p str,
        lower: Node,
        upper: Node,
        step: Option<Box<Node>>,
        body: Vec<Stmt<'p>>,
        /// Does the body (transitively) communicate?
        communicates: bool,
        /// Scalars assigned anywhere under the body, nested loop
        /// variables included (callees cannot write caller scalars — they
        /// are passed by value).
        assigned: Vec<Slot>,
        span: Span,
    },
    If {
        cond: Node,
        then_body: Vec<Stmt<'p>>,
        else_body: Vec<Stmt<'p>>,
        span: Span,
    },
    Call {
        name: &'p str,
        callee: Callee,
        args: Vec<Arg>,
        span: Span,
    },
}

impl Stmt<'_> {
    pub(crate) fn span(&self) -> Span {
        match self {
            Stmt::AssignScalar { span, .. }
            | Stmt::AssignArray { span, .. }
            | Stmt::Do { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Call { span, .. } => *span,
        }
    }

    fn communicates(&self) -> bool {
        match self {
            Stmt::AssignScalar { .. } | Stmt::AssignArray { .. } => false,
            Stmt::Do { communicates, .. } => *communicates,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.iter().chain(else_body).any(Stmt::communicates),
            // An unknown callee aborts the walk when reached; it does not
            // make the enclosing loop a communication loop.
            Stmt::Call { callee, .. } => {
                !matches!(callee, Callee::Print | Callee::Unknown | Callee::Pure)
            }
        }
    }

    fn collect_assigned(&self, out: &mut Vec<Slot>) {
        match self {
            Stmt::AssignScalar { slot, .. } => out.push(*slot),
            Stmt::AssignArray { .. } | Stmt::Call { .. } => {}
            Stmt::Do { var, assigned, .. } => {
                out.push(*var);
                out.extend(assigned);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.collect_assigned(out);
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
pub(crate) enum Callee {
    Isend,
    Irecv,
    WaitallRecv,
    Waitall,
    Barrier,
    Alltoall,
    /// Only reads its arguments.
    Print,
    /// No such procedure.
    Unknown,
    /// A user procedure that (transitively) communicates.
    Communicating,
    /// A communication-free user procedure.
    Pure,
}

pub(crate) enum Arg {
    /// `window` is set when the expression is a bare name or an element
    /// reference of a declared array: the argument passes that window.
    Expr {
        node: Node,
        window: Option<ArrayId>,
    },
    Section {
        array: ArrayId,
        dims: Vec<SecDim>,
    },
}

pub(crate) enum SecDim {
    Index(Node),
    Range(Option<Node>, Option<Node>),
}

pub(crate) struct SlotInfo {
    /// What a never-written scalar reads as: typed zero (DESIGN.md's
    /// deterministic-zero convention) — exact for integers.
    pub default: Val,
    /// Statically integer-valued (declared, implicit rule, or
    /// predefined): assignments to it are tracked, others widen.
    pub integer: bool,
}

pub(crate) struct ArrayInfo<'p> {
    pub name: &'p str,
    /// Declared `(lower, upper)` per dimension; empty when the name is
    /// not a declared array.
    pub dims: Vec<(Node, Node)>,
    /// Every bound is affine over scalars `main` never assigns, so the
    /// extents are one value per rank and can be evaluated up front.
    pub fixed_extent: bool,
}

pub(crate) struct Resolved<'p> {
    pub body: Vec<Stmt<'p>>,
    pub slots: Vec<SlotInfo>,
    pub arrays: Vec<ArrayInfo<'p>>,
    pub mynum: Slot,
    pub np: Slot,
    /// The configuration's symbols that the program mentions, in
    /// configuration order.
    pub symbols: Vec<(Slot, i64)>,
}

pub(crate) fn resolve<'p>(program: &'p Program, cfg: &CommCheckConfig) -> Resolved<'p> {
    let mut decls: HashMap<&str, &Decl> = HashMap::new();
    for d in &program.main.decls {
        decls.entry(d.name.as_str()).or_insert(d);
    }
    let mut r = Resolver {
        program,
        proc_comm: compute_proc_comm(program),
        decls,
        slot_ids: HashMap::new(),
        slots: Vec::new(),
        array_ids: HashMap::new(),
        arrays: Vec::new(),
        assigned: Vec::new(),
    };
    let mynum = r.slot("mynum");
    let np = r.slot("np");
    let body = r.stmts(&program.main.body);
    for a in &mut r.arrays {
        let fixed = |n: &Node| {
            n.affine
                .as_ref()
                .is_some_and(|aff| aff.terms.iter().all(|(s, _)| !r.assigned[*s]))
        };
        a.fixed_extent = a.dims.iter().all(|(lo, hi)| fixed(lo) && fixed(hi));
    }
    let symbols = cfg
        .symbols
        .iter()
        .filter_map(|(name, v)| Some((*r.slot_ids.get(name.as_str())?, *v)))
        .collect();
    Resolved {
        body,
        slots: r.slots,
        arrays: r.arrays,
        mynum,
        np,
        symbols,
    }
}

struct Resolver<'p> {
    program: &'p Program,
    /// Procedure name -> does it (transitively) perform communication?
    proc_comm: HashMap<&'p str, bool>,
    /// Main-scope declarations by name (first declaration wins).
    decls: HashMap<&'p str, &'p Decl>,
    slot_ids: HashMap<&'p str, Slot>,
    slots: Vec<SlotInfo>,
    array_ids: HashMap<&'p str, ArrayId>,
    arrays: Vec<ArrayInfo<'p>>,
    /// Per slot: is it an assignment target or a loop variable anywhere?
    assigned: Vec<bool>,
}

impl<'p> Resolver<'p> {
    fn is_array(&self, name: &str) -> bool {
        self.decls.get(name).is_some_and(|d| d.is_array())
    }

    fn slot(&mut self, name: &'p str) -> Slot {
        if let Some(&s) = self.slot_ids.get(name) {
            return s;
        }
        let integer = is_predefined_scalar(name)
            || match self.decls.get(name) {
                Some(d) if !d.is_array() => d.ty == ScalarType::Integer,
                _ => implicit_type(name) == ScalarType::Integer,
            };
        let default = if integer && !self.is_array(name) {
            Val::constant(0)
        } else {
            Val::Top
        };
        self.slots.push(SlotInfo { default, integer });
        self.assigned.push(false);
        self.slot_ids.insert(name, self.slots.len() - 1);
        self.slots.len() - 1
    }

    fn array(&mut self, name: &'p str) -> ArrayId {
        if let Some(&id) = self.array_ids.get(name) {
            return id;
        }
        let id = self.arrays.len();
        self.array_ids.insert(name, id);
        self.arrays.push(ArrayInfo {
            name,
            dims: Vec::new(),
            fixed_extent: false,
        });
        if let Some(d) = self.decls.get(name).copied() {
            self.arrays[id].dims = d
                .dims
                .iter()
                .map(|b| (self.node(&b.lower), self.node(&b.upper)))
                .collect();
        }
        id
    }

    fn declared_array(&mut self, name: &'p str) -> Option<ArrayId> {
        self.is_array(name).then(|| self.array(name))
    }

    fn nodes(&mut self, es: &'p [Expr]) -> Vec<Node> {
        es.iter().map(|e| self.node(e)).collect()
    }

    fn node(&mut self, e: &'p Expr) -> Node {
        let (kind, is_int) = match e {
            Expr::IntLit(v, _) => (Kind::Int(*v), true),
            Expr::RealLit(..) => (Kind::Real, false),
            Expr::Var(name, _) => {
                let slot = self.slot(name);
                (Kind::Var(slot), self.slots[slot].integer)
            }
            Expr::ArrayRef {
                name,
                indices,
                span,
            } => {
                let is_int = self
                    .decls
                    .get(name.as_str())
                    .is_some_and(|d| d.ty == ScalarType::Integer);
                let kind = Kind::ArrayRef {
                    array: self.declared_array(name),
                    indices: self.nodes(indices),
                    span: *span,
                };
                (kind, is_int)
            }
            Expr::Call { name, args, .. } => {
                let args = self.nodes(args);
                let all_int = args.iter().all(|a| a.is_int);
                let (f, is_int) = match name.as_str() {
                    "mod" => (Intrinsic::Mod, true),
                    "int" | "floor" => (Intrinsic::Trunc, true),
                    "abs" => (Intrinsic::Abs, all_int),
                    "min" => (Intrinsic::Min, all_int),
                    "max" => (Intrinsic::Max, all_int),
                    _ => (Intrinsic::Other, false),
                };
                (Kind::Call { f, args }, is_int)
            }
            Expr::Unary { op, operand, .. } => {
                let operand = Box::new(self.node(operand));
                match op {
                    UnOp::Neg => {
                        let is_int = operand.is_int;
                        (Kind::Neg(operand), is_int)
                    }
                    UnOp::Not => (Kind::Not(operand), true),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let lhs = Box::new(self.node(lhs));
                let rhs = Box::new(self.node(rhs));
                use BinOp::*;
                let is_int = match op {
                    Eq | Ne | Lt | Le | Gt | Ge | And | Or => true,
                    Add | Sub | Mul | Div | Pow => lhs.is_int && rhs.is_int,
                };
                (Kind::Binary { op: *op, lhs, rhs }, is_int)
            }
        };
        // After the children: every variable of the form has its slot.
        let affine = depan::affine::from_expr(e).map(|a| Affine {
            terms: a.vars().map(|(name, c)| (self.slot_ids[name], c)).collect(),
            constant: a.constant,
        });
        Node {
            kind,
            affine,
            is_int,
        }
    }

    fn stmts(&mut self, stmts: &'p [ast::Stmt]) -> Vec<Stmt<'p>> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &'p ast::Stmt) -> Stmt<'p> {
        match s {
            ast::Stmt::Assign {
                target,
                value,
                span,
            } => {
                let value = self.node(value);
                if target.indices.is_empty() && !self.is_array(&target.name) {
                    let slot = self.slot(&target.name);
                    self.assigned[slot] = true;
                    Stmt::AssignScalar {
                        slot,
                        value,
                        span: *span,
                    }
                } else {
                    Stmt::AssignArray {
                        array: self.array(&target.name),
                        indices: self.nodes(&target.indices),
                        value,
                        span: *span,
                    }
                }
            }
            ast::Stmt::Do {
                var,
                lower,
                upper,
                step,
                body,
                span,
            } => {
                let slot = self.slot(var);
                self.assigned[slot] = true;
                let body = self.stmts(body);
                let mut assigned = Vec::new();
                for s in &body {
                    s.collect_assigned(&mut assigned);
                }
                Stmt::Do {
                    var: slot,
                    name: var,
                    lower: self.node(lower),
                    upper: self.node(upper),
                    step: step.as_ref().map(|e| Box::new(self.node(e))),
                    communicates: body.iter().any(Stmt::communicates),
                    assigned,
                    body,
                    span: *span,
                }
            }
            ast::Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => Stmt::If {
                cond: self.node(cond),
                then_body: self.stmts(then_body),
                else_body: self.stmts(else_body),
                span: *span,
            },
            ast::Stmt::Call { name, args, span } => Stmt::Call {
                name,
                callee: self.callee(name),
                args: args.iter().map(|a| self.arg(a)).collect(),
                span: *span,
            },
        }
    }

    fn callee(&self, name: &str) -> Callee {
        match name {
            "mpi_isend" => Callee::Isend,
            "mpi_irecv" => Callee::Irecv,
            "mpi_waitall_recv" => Callee::WaitallRecv,
            "mpi_waitall" => Callee::Waitall,
            "mpi_barrier" => Callee::Barrier,
            "mpi_alltoall" => Callee::Alltoall,
            "print" => Callee::Print,
            _ => match self.program.procedure(name) {
                None => Callee::Unknown,
                Some(p) if self.proc_comm[p.name.as_str()] => Callee::Communicating,
                Some(_) => Callee::Pure,
            },
        }
    }

    fn arg(&mut self, a: &'p ast::Arg) -> Arg {
        match a {
            ast::Arg::Expr(e) => {
                let window = match e {
                    Expr::Var(name, _) | Expr::ArrayRef { name, .. } => self.declared_array(name),
                    _ => None,
                };
                Arg::Expr {
                    node: self.node(e),
                    window,
                }
            }
            ast::Arg::Section(sec) => Arg::Section {
                array: self.array(&sec.name),
                dims: sec
                    .dims
                    .iter()
                    .map(|d| match d {
                        ast::SecDim::Index(e) => SecDim::Index(self.node(e)),
                        ast::SecDim::Range(lo, hi) => SecDim::Range(
                            lo.as_ref().map(|e| self.node(e)),
                            hi.as_ref().map(|e| self.node(e)),
                        ),
                    })
                    .collect(),
            },
        }
    }
}

/// Does each procedure (transitively) perform communication? Fixpoint
/// over the call graph; unknown callees count as communicating (they
/// abort the walk anyway).
fn compute_proc_comm(program: &Program) -> HashMap<&str, bool> {
    let mut comm: HashMap<&str, bool> = HashMap::new();
    for p in program.all_procedures() {
        comm.insert(p.name.as_str(), false);
    }
    loop {
        let mut changed = false;
        for p in program.all_procedures() {
            if comm[p.name.as_str()] {
                continue;
            }
            if body_communicates(&p.body, &comm) {
                comm.insert(p.name.as_str(), true);
                changed = true;
            }
        }
        if !changed {
            return comm;
        }
    }
}

fn body_communicates(stmts: &[ast::Stmt], comm: &HashMap<&str, bool>) -> bool {
    stmts.iter().any(|s| match s {
        ast::Stmt::Assign { .. } => false,
        ast::Stmt::Do { body, .. } => body_communicates(body, comm),
        ast::Stmt::If {
            then_body,
            else_body,
            ..
        } => body_communicates(then_body, comm) || body_communicates(else_body, comm),
        ast::Stmt::Call { name, .. } => {
            is_mpi_builtin(name) || comm.get(name.as_str()).copied().unwrap_or(true)
        }
    })
}

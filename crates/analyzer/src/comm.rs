//! Communication-safety verification: a rank-parametric abstract
//! interpretation over the AST.
//!
//! Names are resolved once per verification ([`crate::resolve`]); then,
//! for each concrete rank (`mynum = 0, 1, …`), the pass walks the resolved
//! main program with an abstract scalar environment of integer intervals
//! ([`crate::interval::Val`]) and tracks the multiset of *in-flight*
//! regions posted by `mpi_isend`/`mpi_irecv`. The walk is concrete where
//! it must be and summarized where it can be:
//!
//! - a loop whose body (transitively) communicates is **iterated
//!   concretely** — its bounds must evaluate to known constants (they do
//!   in every program the pipeline emits: `np` and the tile bounds are
//!   literals or context symbols), otherwise the program is rejected as
//!   unverifiable ([`Code::A007`]);
//! - a pure-compute loop is **summarized**: scalars it assigns are
//!   widened, the loop variable is bound to the hull of its bounds, and
//!   the body is walked once — so its array accesses cover every
//!   iteration at once. This is the interval analogue of `depan`'s
//!   affine-footprint reasoning (and uses [`depan::affine`] to evaluate
//!   affine subscripts exactly), so imprecision can only widen a region,
//!   never shrink one: false alarms are possible, missed hazards are not.
//!
//! Hazards ([`Code::A003`]/[`Code::A004`]) are region intersections
//! against the in-flight multiset; waits drain it; a branch whose
//! condition a rank cannot decide is walked down both arms and must leave
//! the same in-flight multiset ([`Code::A006`]); whatever is still in
//! flight when the program ends was never waited for
//! ([`Code::A001`]/[`Code::A002`]). Collectives are recorded per rank and
//! compared across ranks ([`Code::A005`]).

use crate::diag::{AnalysisReport, Code, Diagnostic};
use crate::interval::Val;
use crate::resolve::{
    resolve, Arg, ArrayId, Callee, Intrinsic, Kind, Node, Resolved, SecDim, Slot, Stmt,
};
use fir::ast::{BinOp, Program};
use fir::span::Span;
use std::borrow::Cow;

/// Configuration for one verification run.
#[derive(Debug, Clone)]
pub struct CommCheckConfig {
    /// Number of ranks. Small counts are enumerated exhaustively; large
    /// counts check ranks `0..8` plus `np-1` (the communication structure
    /// emitted by the pipeline is symmetric in `mynum` beyond the
    /// first/last distinction).
    pub np: i64,
    /// Known symbol values (problem sizes etc.), same role as
    /// [`depan::Context`] in the transformation.
    pub symbols: Vec<(String, i64)>,
    /// Abstract-step budget per rank; exhausting it yields [`Code::A007`]
    /// rather than an unbounded analysis.
    pub budget: u64,
}

impl CommCheckConfig {
    pub fn new(np: i64) -> Self {
        CommCheckConfig {
            np,
            symbols: Vec::new(),
            budget: 2_000_000,
        }
    }

    pub fn with_symbols(mut self, symbols: Vec<(String, i64)>) -> Self {
        self.symbols = symbols;
        self
    }

    /// The ranks this configuration actually walks.
    pub fn ranks(&self) -> Vec<i64> {
        if self.np <= 10 {
            (0..self.np.max(1)).collect()
        } else {
            let mut r: Vec<i64> = (0..8).collect();
            r.push(self.np - 1);
            r
        }
    }
}

/// Verify the communication safety of `program` and return the report.
/// The program must already be valid ([`fir::validate`]).
pub fn verify_comm(program: &Program, cfg: &CommCheckConfig) -> AnalysisReport {
    let resolved = resolve(program, cfg);
    let mut a = Analyzer {
        r: &resolved,
        cfg,
        diags: Vec::new(),
        current_rank: 0,
        fixed_extents: Vec::new(),
    };
    let ranks = cfg.ranks();
    let mut traces: Vec<(i64, Vec<CollectiveEvent>)> = Vec::new();
    for &rank in &ranks {
        if let Some(trace) = a.walk_rank(rank) {
            traces.push((rank, trace));
        }
    }
    a.compare_collectives(&traces);
    let mut report = AnalysisReport {
        diagnostics: a.diags,
        ranks_checked: ranks,
        types: None,
    };
    report.normalize();
    report
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CommKind {
    Send,
    Recv,
}

/// An abstract array region: one interval per dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Region {
    array: ArrayId,
    dims: Vec<Val>,
}

impl Region {
    fn overlaps(&self, other: &Region) -> bool {
        self.array == other.array
            && (self.dims.len() != other.dims.len()
                || self
                    .dims
                    .iter()
                    .zip(&other.dims)
                    .all(|(a, b)| a.overlaps(*b)))
    }
}

/// One posted-but-unwaited communication.
#[derive(Debug, Clone)]
struct Pending {
    kind: CommKind,
    region: Region,
    span: Span,
}

/// One collective executed by a rank, for cross-rank comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CollectiveEvent {
    name: &'static str,
    /// Per-rank element count; `None` when no count argument applies
    /// (barrier).
    count: Option<i64>,
    span: Span,
}

#[derive(Debug, Clone)]
struct RankState {
    /// Scalar slot -> abstract value; `None` is never-written.
    env: Vec<Option<Val>>,
    pending: Vec<Pending>,
    collectives: Vec<CollectiveEvent>,
    steps: u64,
}

/// The walk aborted (unverifiable / budget); an A007 was already filed.
struct Abort;

struct Analyzer<'r> {
    r: &'r Resolved<'r>,
    cfg: &'r CommCheckConfig,
    diags: Vec<Diagnostic>,
    current_rank: i64,
    /// Per array, for the current rank: its declared extents when they
    /// cannot change during the walk ([`crate::resolve::ArrayInfo`]).
    fixed_extents: Vec<Option<Vec<Val>>>,
}

impl<'r> Analyzer<'r> {
    fn diag(&mut self, code: Code, span: Span, message: String) {
        self.diags.push(Diagnostic {
            code,
            message,
            span,
            ranks: vec![self.current_rank],
        });
    }

    fn array_name(&self, array: ArrayId) -> &'r str {
        self.r.arrays[array].name
    }

    /// Walk one rank to completion; `None` when the walk aborted (its
    /// collective trace would be partial and must not be compared).
    fn walk_rank(&mut self, rank: i64) -> Option<Vec<CollectiveEvent>> {
        self.current_rank = rank;
        let mut st = RankState {
            env: vec![None; self.r.slots.len()],
            pending: Vec::new(),
            collectives: Vec::new(),
            steps: 0,
        };
        st.env[self.r.mynum] = Some(Val::constant(rank));
        st.env[self.r.np] = Some(Val::constant(self.cfg.np));
        for &(slot, v) in &self.r.symbols {
            st.env[slot].get_or_insert(Val::constant(v));
        }
        self.fixed_extents = (0..self.r.arrays.len())
            .map(|a| self.r.arrays[a].fixed_extent.then(|| self.eval_extents(a, &st)))
            .collect();
        let r = self.r;
        let completed = self.walk_stmts(&r.body, &mut st, false).is_ok();
        if completed {
            for p in &st.pending {
                let (code, what) = match p.kind {
                    CommKind::Send => (Code::A001, "mpi_isend"),
                    CommKind::Recv => (Code::A002, "mpi_irecv"),
                };
                self.diags.push(Diagnostic {
                    code,
                    message: format!(
                        "{what} on `{}` is still in flight when the program ends; \
                         no wait matches it on this path",
                        self.array_name(p.region.array)
                    ),
                    span: p.span,
                    ranks: vec![rank],
                });
            }
            Some(st.collectives)
        } else {
            None
        }
    }

    /// Compare per-rank collective traces; every completed rank must
    /// execute the same sequence with the same counts.
    fn compare_collectives(&mut self, traces: &[(i64, Vec<CollectiveEvent>)]) {
        let Some((base_rank, base)) = traces.first() else {
            return;
        };
        for (rank, trace) in &traces[1..] {
            let n = base.len().min(trace.len());
            for i in 0..n {
                if base[i] != trace[i] {
                    self.diags.push(Diagnostic {
                        code: Code::A005,
                        message: format!(
                            "collective #{}: rank {base_rank} executes `{}` (count {:?}) \
                             but rank {rank} executes `{}` (count {:?}) — ranks would deadlock",
                            i + 1,
                            base[i].name,
                            base[i].count,
                            trace[i].name,
                            trace[i].count
                        ),
                        span: trace[i].span,
                        ranks: vec![*base_rank, *rank],
                    });
                    return;
                }
            }
            if base.len() != trace.len() {
                let (longer_rank, ev) = if base.len() > trace.len() {
                    (*base_rank, &base[n])
                } else {
                    (*rank, &trace[n])
                };
                let other = if longer_rank == *base_rank { *rank } else { *base_rank };
                self.diags.push(Diagnostic {
                    code: Code::A005,
                    message: format!(
                        "rank {longer_rank} executes `{}` but rank {other} never reaches a \
                         matching collective — ranks would deadlock",
                        ev.name
                    ),
                    span: ev.span,
                    ranks: vec![*base_rank, *rank],
                });
                return;
            }
        }
    }

    // -- statement walk ---------------------------------------------------

    /// `sum` selects summary mode: loop variables are hulls, assigned
    /// scalars are widened, and branches with undecided conditions are
    /// simply walked down both arms (summarized code never communicates).
    fn walk_stmts(&mut self, stmts: &[Stmt], st: &mut RankState, sum: bool) -> Result<(), Abort> {
        for s in stmts {
            self.walk_stmt(s, st, sum)?;
        }
        Ok(())
    }

    fn walk_stmt(&mut self, s: &Stmt, st: &mut RankState, sum: bool) -> Result<(), Abort> {
        st.steps += 1;
        if st.steps > self.cfg.budget {
            self.diag(
                Code::A007,
                s.span(),
                format!(
                    "analysis budget ({} abstract steps) exhausted on rank {}",
                    self.cfg.budget, self.current_rank
                ),
            );
            return Err(Abort);
        }
        match s {
            Stmt::AssignScalar { slot, value, .. } => {
                self.check_expr_reads(value, st);
                // Track integers, widen reals.
                let v = if self.r.slots[*slot].integer {
                    self.eval(value, st)
                } else {
                    Val::Top
                };
                st.env[*slot] = Some(v);
            }
            Stmt::AssignArray {
                array,
                indices,
                value,
                span,
            } => {
                self.check_expr_reads(value, st);
                for ix in indices {
                    self.check_expr_reads(ix, st);
                }
                let region = self.region_of_access(*array, indices, st);
                self.check_write(&region, *span, st);
            }
            Stmt::Do {
                var,
                name,
                lower,
                upper,
                step,
                body,
                communicates,
                assigned,
                span,
            } => {
                self.check_expr_reads(lower, st);
                self.check_expr_reads(upper, st);
                if let Some(e) = step {
                    self.check_expr_reads(e, st);
                }
                if *communicates {
                    self.walk_comm_loop(*var, name, lower, upper, step.as_deref(), body, *span, st)?;
                } else {
                    self.walk_compute_loop(*var, lower, upper, assigned, body, st)?;
                }
                // After the loop the variable holds the first value past
                // the bound — outside the iteration hull, so widen.
                st.env[*var] = Some(Val::Top);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                self.check_expr_reads(cond, st);
                match self.truth(cond, st) {
                    Some(true) => self.walk_stmts(then_body, st, sum)?,
                    Some(false) => self.walk_stmts(else_body, st, sum)?,
                    None => self.walk_unknown_branch(then_body, else_body, *span, st, sum)?,
                }
            }
            Stmt::Call {
                name,
                callee,
                args,
                span,
            } => {
                self.walk_call(name, *callee, args, *span, st)?;
            }
        }
        Ok(())
    }

    /// A loop that communicates: iterate it concretely. Bounds that are
    /// not statically known make the communication structure symbolic —
    /// reject as unverifiable rather than guess.
    #[allow(clippy::too_many_arguments)] // mirrors the Do statement's fields
    fn walk_comm_loop(
        &mut self,
        var: Slot,
        name: &str,
        lower: &Node,
        upper: &Node,
        step: Option<&Node>,
        body: &[Stmt],
        span: Span,
        st: &mut RankState,
    ) -> Result<(), Abort> {
        let lo = self.eval(lower, st).singleton();
        let hi = self.eval(upper, st).singleton();
        let stp = match step {
            None => Some(1),
            Some(e) => self.eval(e, st).singleton(),
        };
        let (Some(lo), Some(hi), Some(stp)) = (lo, hi, stp) else {
            self.diag(
                Code::A007,
                span,
                format!(
                    "loop over `{name}` communicates but its bounds are not statically \
                     known on rank {} — communication structure is unverifiable",
                    self.current_rank
                ),
            );
            return Err(Abort);
        };
        if stp == 0 {
            self.diag(
                Code::A007,
                span,
                format!("loop over `{name}` has step 0 — cannot enumerate its iterations"),
            );
            return Err(Abort);
        }
        let mut x = lo;
        while (stp > 0 && x <= hi) || (stp < 0 && x >= hi) {
            st.env[var] = Some(Val::constant(x));
            self.walk_stmts(body, st, false)?;
            x = match x.checked_add(stp) {
                Some(x) => x,
                None => break,
            };
        }
        Ok(())
    }

    /// A pure-compute loop: widen everything it assigns, bind the loop
    /// variable to the hull of its bounds, and walk the body once so the
    /// recorded accesses cover all iterations.
    fn walk_compute_loop(
        &mut self,
        var: Slot,
        lower: &Node,
        upper: &Node,
        assigned: &[Slot],
        body: &[Stmt],
        st: &mut RankState,
    ) -> Result<(), Abort> {
        let lo = self.eval(lower, st);
        let hi = self.eval(upper, st);
        for &slot in assigned {
            st.env[slot] = Some(Val::Top);
        }
        st.env[var] = Some(lo.join(hi));
        self.walk_stmts(body, st, true)
    }

    /// A branch this rank cannot decide: walk both arms on cloned states.
    /// Both arms must agree on the in-flight multiset (else a wait is
    /// missing on one path) and on any collectives they execute.
    fn walk_unknown_branch(
        &mut self,
        then_body: &[Stmt],
        else_body: &[Stmt],
        span: Span,
        st: &mut RankState,
        sum: bool,
    ) -> Result<(), Abort> {
        let base_collectives = st.collectives.len();
        let mut st_else = st.clone();
        self.walk_stmts(then_body, st, sum)?;
        self.walk_stmts(else_body, &mut st_else, sum)?;

        if st.collectives[base_collectives..] != st_else.collectives[base_collectives..] {
            self.diag(
                Code::A005,
                span,
                "a collective is executed under a condition the analysis cannot decide \
                 per-rank; ranks taking different arms would deadlock"
                    .into(),
            );
        }

        let then_keys = self.pending_keys(&st.pending);
        let else_keys = self.pending_keys(&st_else.pending);
        if then_keys != else_keys {
            self.diag(
                Code::A006,
                span,
                format!(
                    "the arms of this branch leave different operations in flight \
                     ({} vs {}) — a wait is missing on one path",
                    self.describe_pending(&st.pending),
                    self.describe_pending(&st_else.pending)
                ),
            );
            // Continue with the union so later hazards are still caught.
            for p in st_else.pending {
                if !st
                    .pending
                    .iter()
                    .any(|q| q.kind == p.kind && q.region == p.region && q.span == p.span)
                {
                    st.pending.push(p);
                }
            }
        }

        // Join the environments pointwise, over the scalars either arm
        // has a value for.
        for (slot, (a, b)) in st.env.iter_mut().zip(&st_else.env).enumerate() {
            if a.is_some() || b.is_some() {
                let unwritten = self.r.slots[slot].default;
                *a = Some(a.unwrap_or(unwritten).join(b.unwrap_or(unwritten)));
            }
        }
        st.steps = st.steps.max(st_else.steps);
        Ok(())
    }

    // -- calls ------------------------------------------------------------

    fn walk_call(
        &mut self,
        name: &str,
        callee: Callee,
        args: &[Arg],
        span: Span,
        st: &mut RankState,
    ) -> Result<(), Abort> {
        for a in args {
            if let Arg::Expr { node, .. } = a {
                self.check_expr_reads(node, st);
            }
        }
        match callee {
            Callee::Unknown => {
                self.diag(
                    Code::A007,
                    span,
                    format!("call to unknown procedure `{name}` cannot be analyzed"),
                );
                Err(Abort)
            }
            Callee::Communicating => {
                self.diag(
                    Code::A007,
                    span,
                    format!(
                        "`{name}` performs communication; interprocedural communication \
                         is not verified — inline the calls or wait before them"
                    ),
                );
                Err(Abort)
            }
            // A communication-free callee can read and write exactly the
            // array windows it was passed (scalars go by value).
            Callee::Pure => {
                for a in args {
                    if let Some(region) = self.region_of_arg(a, st) {
                        self.check_write(&region, span, st);
                        self.check_read(&region, span, st);
                    }
                }
                Ok(())
            }
            builtin => self.walk_builtin(builtin, args, span, st),
        }
    }

    fn walk_builtin(
        &mut self,
        builtin: Callee,
        args: &[Arg],
        span: Span,
        st: &mut RankState,
    ) -> Result<(), Abort> {
        match builtin {
            Callee::Isend => {
                if let Some(region) = args.first().and_then(|a| self.region_of_arg(a, st)) {
                    // Sending reads the buffer: in-flight receives into it
                    // are a hazard; concurrent sends of the same region
                    // are only concurrent reads.
                    self.check_read(&region, span, st);
                    st.pending.push(Pending {
                        kind: CommKind::Send,
                        region,
                        span,
                    });
                }
            }
            Callee::Irecv => {
                if let Some(region) = args.first().and_then(|a| self.region_of_arg(a, st)) {
                    self.check_write(&region, span, st);
                    st.pending.push(Pending {
                        kind: CommKind::Recv,
                        region,
                        span,
                    });
                }
            }
            Callee::WaitallRecv => {
                st.pending.retain(|p| p.kind != CommKind::Recv);
            }
            Callee::Waitall => {
                st.pending.clear();
            }
            Callee::Barrier => {
                st.collectives.push(CollectiveEvent {
                    name: "mpi_barrier",
                    count: None,
                    span,
                });
            }
            Callee::Alltoall => {
                if let Some(region) = args.first().and_then(|a| self.region_of_arg(a, st)) {
                    self.check_read(&region, span, st);
                }
                if let Some(region) = args.get(2).and_then(|a| self.region_of_arg(a, st)) {
                    self.check_write(&region, span, st);
                }
                let count = match args.get(1) {
                    Some(Arg::Expr { node, .. }) => {
                        let v = self.eval(node, st).singleton();
                        if v.is_none() {
                            self.diag(
                                Code::A007,
                                span,
                                "mpi_alltoall count is not statically known; cannot \
                                 prove it consistent across ranks"
                                    .into(),
                            );
                            return Err(Abort);
                        }
                        v
                    }
                    _ => None,
                };
                st.collectives.push(CollectiveEvent {
                    name: "mpi_alltoall",
                    count,
                    span,
                });
            }
            // `print` only reads; argument reads were checked by the
            // caller.
            _ => {}
        }
        Ok(())
    }

    // -- hazard checks ----------------------------------------------------

    fn check_expr_reads(&mut self, e: &Node, st: &RankState) {
        match &e.kind {
            Kind::Int(_) | Kind::Real | Kind::Var(_) => {}
            Kind::ArrayRef {
                array,
                indices,
                span,
            } => {
                for ix in indices {
                    self.check_expr_reads(ix, st);
                }
                if let Some(array) = array {
                    let region = self.region_of_access(*array, indices, st);
                    self.check_read(&region, *span, st);
                }
            }
            Kind::Call { args, .. } => {
                for a in args {
                    self.check_expr_reads(a, st);
                }
            }
            Kind::Neg(operand) | Kind::Not(operand) => self.check_expr_reads(operand, st),
            Kind::Binary { lhs, rhs, .. } => {
                self.check_expr_reads(lhs, st);
                self.check_expr_reads(rhs, st);
            }
        }
    }

    fn check_read(&mut self, region: &Region, span: Span, st: &RankState) {
        for p in &st.pending {
            if p.kind == CommKind::Recv && region.overlaps(&p.region) {
                let m = format!(
                    "`{}` is read while an mpi_irecv into it is in flight; its \
                     contents are undefined until `call mpi_waitall_recv()`",
                    self.array_name(region.array)
                );
                self.diag(Code::A004, span, m);
            }
        }
    }

    fn check_write(&mut self, region: &Region, span: Span, st: &RankState) {
        for p in &st.pending {
            if region.overlaps(&p.region) {
                let array = self.array_name(region.array);
                let (code, m) = match p.kind {
                    CommKind::Send => (
                        Code::A003,
                        format!(
                            "`{array}` is written while an mpi_isend of it is in flight; \
                             the network may transmit the clobbered data"
                        ),
                    ),
                    CommKind::Recv => (
                        Code::A004,
                        format!(
                            "`{array}` is written while an mpi_irecv into it is in flight; \
                             the arriving message would overwrite this store"
                        ),
                    ),
                };
                self.diag(code, span, m);
            }
        }
    }

    // -- regions ----------------------------------------------------------

    /// Region of `array(indices…)`; `array()` (no indices) or a bare
    /// array name covers the whole declared extent.
    fn region_of_access(&self, array: ArrayId, indices: &[Node], st: &RankState) -> Region {
        let extents = self.extents(array, st);
        let dims = if indices.is_empty() {
            extents.into_owned()
        } else {
            indices
                .iter()
                .enumerate()
                .map(|(i, e)| match self.eval(e, st) {
                    Val::Top => extents.get(i).copied().unwrap_or(Val::Top),
                    v => v,
                })
                .collect()
        };
        Region { array, dims }
    }

    /// Region named by a call argument, when it names an array window.
    fn region_of_arg(&self, arg: &Arg, st: &RankState) -> Option<Region> {
        match arg {
            Arg::Expr { window: None, .. } => None,
            Arg::Expr {
                node,
                window: Some(array),
            } => Some(match &node.kind {
                Kind::ArrayRef { indices, .. } => self.region_of_access(*array, indices, st),
                _ => self.region_of_access(*array, &[], st),
            }),
            Arg::Section { array, dims } => {
                let extents = self.extents(*array, st);
                let dims = dims
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        let full = extents.get(i).copied().unwrap_or(Val::Top);
                        match d {
                            SecDim::Index(e) => match self.eval(e, st) {
                                Val::Top => full,
                                v => v,
                            },
                            SecDim::Range(lo, hi) => {
                                let lo_v = lo.as_ref().map_or(full, |e| self.eval(e, st));
                                let hi_v = hi.as_ref().map_or(full, |e| self.eval(e, st));
                                match (lo_v.bounds(), hi_v.bounds()) {
                                    (Some((a, _)), Some((_, d))) => Val::Range(a.min(d), d.max(a)),
                                    _ => full,
                                }
                            }
                        }
                    })
                    .collect();
                Some(Region {
                    array: *array,
                    dims,
                })
            }
        }
    }

    /// Declared per-dimension extents of `array`: the rank's up-front
    /// value when they cannot change, else evaluated under `st`.
    fn extents(&self, array: ArrayId, st: &RankState) -> Cow<'_, [Val]> {
        match &self.fixed_extents[array] {
            Some(fixed) => Cow::Borrowed(fixed),
            None => Cow::Owned(self.eval_extents(array, st)),
        }
    }

    fn eval_extents(&self, array: ArrayId, st: &RankState) -> Vec<Val> {
        self.r.arrays[array]
            .dims
            .iter()
            .map(|(lower, upper)| {
                let lo = self.eval(lower, st);
                let hi = self.eval(upper, st);
                match (lo.bounds(), hi.bounds()) {
                    (Some((a, _)), Some((_, d))) => Val::Range(a.min(d), d.max(a)),
                    _ => Val::Top,
                }
            })
            .collect()
    }

    // -- abstract evaluation ----------------------------------------------

    fn value_of(&self, slot: Slot, env: &[Option<Val>]) -> Val {
        env[slot].unwrap_or(self.r.slots[slot].default)
    }

    fn eval(&self, e: &Node, st: &RankState) -> Val {
        // Affine subscripts go through depan's form first — the
        // dependence facts the transformation itself relied on.
        if let Some(v) = e.affine.as_ref().and_then(|aff| aff.eval(&st.env)) {
            return Val::constant(v);
        }
        match &e.kind {
            Kind::Int(v) => Val::constant(*v),
            Kind::Real | Kind::ArrayRef { .. } => Val::Top,
            Kind::Var(slot) => self.value_of(*slot, &st.env),
            Kind::Call { f, args } => {
                let arg = |i: usize| self.eval(&args[i], st);
                match (f, args.len()) {
                    (Intrinsic::Mod, 2) => arg(0).modulo(arg(1)),
                    (Intrinsic::Min, 1..) => (1..args.len()).fold(arg(0), |acc, i| acc.min(arg(i))),
                    (Intrinsic::Max, 1..) => (1..args.len()).fold(arg(0), |acc, i| acc.max(arg(i))),
                    (Intrinsic::Abs, 1) => arg(0).abs(),
                    // int()/floor() of an already-integer value is exact;
                    // of a real it is Top (reals are not tracked).
                    (Intrinsic::Trunc, 1) => match arg(0).singleton() {
                        Some(v) if args[0].is_int => Val::constant(v),
                        _ => Val::Top,
                    },
                    _ => Val::Top,
                }
            }
            Kind::Neg(operand) => self.eval(operand, st).neg(),
            Kind::Not(operand) => match self.truth(operand, st) {
                Some(t) => Val::constant(i64::from(!t)),
                None => Val::Range(0, 1),
            },
            Kind::Binary { op, lhs, rhs } => {
                use BinOp::*;
                match op {
                    And | Or => {
                        let a = self.truth(lhs, st);
                        let b = self.truth(rhs, st);
                        let r = if *op == And {
                            match (a, b) {
                                (Some(false), _) | (_, Some(false)) => Some(false),
                                (Some(true), Some(true)) => Some(true),
                                _ => None,
                            }
                        } else {
                            match (a, b) {
                                (Some(true), _) | (_, Some(true)) => Some(true),
                                (Some(false), Some(false)) => Some(false),
                                _ => None,
                            }
                        };
                        match r {
                            Some(t) => Val::constant(i64::from(t)),
                            None => Val::Range(0, 1),
                        }
                    }
                    Eq | Ne | Lt | Le | Gt | Ge => {
                        // Interval comparison is only exact for integers;
                        // real operands evaluate to Top and decide nothing.
                        if !lhs.is_int || !rhs.is_int {
                            return Val::Range(0, 1);
                        }
                        let a = self.eval(lhs, st);
                        let b = self.eval(rhs, st);
                        let r = match op {
                            Eq => a.cmp_eq(b),
                            Ne => a.cmp_eq(b).map(|t| !t),
                            Lt => a.cmp_lt(b),
                            Le => a.cmp_le(b),
                            Gt => b.cmp_lt(a),
                            Ge => b.cmp_le(a),
                            _ => unreachable!(),
                        };
                        match r {
                            Some(t) => Val::constant(i64::from(t)),
                            None => Val::Range(0, 1),
                        }
                    }
                    Add | Sub | Mul | Div | Pow => {
                        if !lhs.is_int || !rhs.is_int {
                            return Val::Top;
                        }
                        let a = self.eval(lhs, st);
                        let b = self.eval(rhs, st);
                        match op {
                            Add => a.add(b),
                            Sub => a.sub(b),
                            Mul => a.mul(b),
                            Div => a.div(b),
                            Pow => match (a.singleton(), b.singleton()) {
                                (Some(x), Some(y)) if (0..=62).contains(&y) => x
                                    .checked_pow(y as u32)
                                    .map_or(Val::Top, Val::constant),
                                _ => Val::Top,
                            },
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    }

    fn truth(&self, e: &Node, st: &RankState) -> Option<bool> {
        match self.eval(e, st) {
            Val::Range(lo, hi) if lo == 0 && hi == 0 => Some(false),
            Val::Range(lo, hi) if lo > 0 || hi < 0 => Some(true),
            _ => None,
        }
    }

    // -- rendering in-flight sets -------------------------------------------

    /// Canonical sorted keys for multiset comparison of pending operations.
    fn pending_keys(&self, pending: &[Pending]) -> Vec<String> {
        let mut keys: Vec<String> = pending
            .iter()
            .map(|p| {
                let array = self.array_name(p.region.array);
                format!("{:?} {array} {:?}", p.kind, p.region.dims)
            })
            .collect();
        keys.sort();
        keys
    }

    fn describe_pending(&self, pending: &[Pending]) -> String {
        if pending.is_empty() {
            return "nothing".into();
        }
        let mut parts: Vec<String> = pending
            .iter()
            .map(|p| {
                format!(
                    "{} `{}`",
                    match p.kind {
                        CommKind::Send => "isend of",
                        CommKind::Recv => "irecv into",
                    },
                    self.array_name(p.region.array)
                )
            })
            .collect();
        parts.sort();
        parts.dedup();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str, np: i64) -> AnalysisReport {
        let program = fir::parse_validated(src).expect("test program must be valid");
        verify_comm(&program, &CommCheckConfig::new(np))
    }

    fn codes(r: &AnalysisReport) -> Vec<Code> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_alltoall_program() {
        let r = check(
            "program m\n\
             real :: as(8)\n\
             real :: ar(8)\n\
             do i = 1, 8\n\
             as(i) = i * 0.5\n\
             end do\n\
             call mpi_alltoall(as, 2, ar)\n\
             do i = 1, 8\n\
             as(i) = ar(i)\n\
             end do\n\
             end program",
            4,
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.ranks_checked, vec![0, 1, 2, 3]);
    }

    #[test]
    fn write_into_inflight_send_is_a003() {
        let r = check(
            "program m\n\
             real :: as(8)\n\
             call mpi_isend(as, 8, mod(mynum + 1, np), 7)\n\
             as(1) = 0.0\n\
             call mpi_waitall()\n\
             end program",
            4,
        );
        assert_eq!(codes(&r), vec![Code::A003]);
    }

    #[test]
    fn disjoint_write_next_to_inflight_send_is_clean() {
        let r = check(
            "program m\n\
             real :: as(8, 4)\n\
             call mpi_isend(as(1:8, 1), 8, mod(mynum + 1, np), 7)\n\
             as(1, 2) = 0.0\n\
             call mpi_waitall()\n\
             end program",
            4,
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn read_of_inflight_recv_is_a004() {
        let r = check(
            "program m\n\
             real :: ar(8)\n\
             call mpi_irecv(ar, 8, mod(np + mynum - 1, np), 7)\n\
             x = ar(3)\n\
             call mpi_waitall()\n\
             end program",
            4,
        );
        assert_eq!(codes(&r), vec![Code::A004]);
    }

    #[test]
    fn unwaited_send_is_a001() {
        let r = check(
            "program m\n\
             real :: as(8)\n\
             call mpi_isend(as, 8, mod(mynum + 1, np), 7)\n\
             end program",
            4,
        );
        assert_eq!(codes(&r), vec![Code::A001]);
    }

    #[test]
    fn unwaited_recv_is_a002() {
        let r = check(
            "program m\n\
             real :: ar(8)\n\
             call mpi_irecv(ar, 8, mod(np + mynum - 1, np), 7)\n\
             end program",
            4,
        );
        assert_eq!(codes(&r), vec![Code::A002]);
    }

    #[test]
    fn rank_divergent_collective_is_a005() {
        let r = check(
            "program m\n\
             if (mynum == 0) then\n\
             call mpi_barrier()\n\
             end if\n\
             end program",
            4,
        );
        assert_eq!(codes(&r), vec![Code::A005]);
    }

    #[test]
    fn branch_with_one_sided_isend_is_a006() {
        // k(1) is never written, but the analysis does not track array
        // contents, so the condition is undecidable — and one arm posts a
        // send the other does not.
        let r = check(
            "program m\n\
             integer :: k(1)\n\
             real :: as(8)\n\
             if (k(1) == 1) then\n\
             call mpi_isend(as, 8, mod(mynum + 1, np), 7)\n\
             end if\n\
             call mpi_waitall()\n\
             end program",
            4,
        );
        assert_eq!(codes(&r), vec![Code::A006]);
    }

    #[test]
    fn comm_callee_is_a007() {
        let r = check(
            "subroutine ping(b)\n\
             real :: b(4)\n\
             call mpi_isend(b, 4, 0, 9)\n\
             call mpi_waitall()\n\
             end subroutine ping\n\
             program m\n\
             real :: as(4)\n\
             call ping(as)\n\
             end program",
            4,
        );
        assert_eq!(codes(&r), vec![Code::A007]);
    }

    #[test]
    fn tile_pipelined_sends_to_distinct_columns_are_clean() {
        // The shape prepush emits: per-peer sends of distinct column
        // slices, a recv wait before each exchange round, one full wait
        // at the end.
        let r = check(
            "program m\n\
             real :: as(8, 4)\n\
             real :: ar(8, 4)\n\
             integer :: to\n\
             integer :: from\n\
             do it = 1, 2\n\
             do j = 1, np - 1\n\
             to = mod(mynum + j, np)\n\
             call mpi_isend(as(1:8, to + 1), 8, to, 5)\n\
             from = mod(np + mynum - j, np)\n\
             call mpi_irecv(ar(1:8, from + 1), 8, from, 5)\n\
             end do\n\
             do i = 1, 8\n\
             ar(i, mynum + 1) = as(i, mynum + 1)\n\
             end do\n\
             call mpi_waitall()\n\
             end do\n\
             end program",
            4,
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn symbolic_comm_loop_bound_is_a007() {
        // `n` has no value and is read from nowhere: the comm loop's trip
        // count is unknown.
        let r = check(
            "program m\n\
             integer :: k(1)\n\
             real :: as(8)\n\
             do j = 1, k(1)\n\
             call mpi_isend(as, 8, 0, 5)\n\
             call mpi_waitall()\n\
             end do\n\
             end program",
            4,
        );
        assert_eq!(codes(&r), vec![Code::A007]);
    }

    #[test]
    fn large_np_checks_boundary_ranks() {
        let cfg = CommCheckConfig::new(64);
        assert_eq!(cfg.ranks(), vec![0, 1, 2, 3, 4, 5, 6, 7, 63]);
    }
}

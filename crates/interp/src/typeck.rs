//! Static type inference over the lowered program, feeding the register
//! compiler ([`crate::reg`]).
//!
//! Every storage location in mini-Fortran is monomorphic by construction:
//! every store converts the value to the slot's declared (or implicit)
//! type, array storage is homogeneous, and hoist slots cache one fixed
//! expression. So "inference" is seeding slot types from
//! `scalar_defaults`/`array_decls` and computing expression types
//! bottom-up with the promotion rules in [`analyzer::types`] — which
//! mirror `exec::try_binop`/`try_intrinsic` exactly. The register compiler
//! picks one monomorphic op per expression node from these types; a
//! statement it cannot type stays on the tree-walker.
//!
//! One thing the declarations cannot promise: a dummy array's declared
//! element type need not be its actual's storage type (sequence
//! association). `exec::allocate_locals` checks that when it binds, and an
//! activation where they differ runs its blocks on the tree-walker.

use crate::lower::{LExpr, LProc, LProgram, LStmt};
use analyzer::types::{binop_ty, intrinsic_ty, unop_ty, ProcTypes, Ty, TypeReport};

/// Owned slot-type tables for one procedure.
pub(crate) struct ProcTyEnv {
    /// Scalar slot -> type (from the typed zero defaults).
    pub scalars: Vec<Ty>,
    /// Array slot -> element type (from the declarations).
    pub arrays: Vec<Ty>,
    /// Array slot -> declared rank.
    pub ranks: Vec<usize>,
    /// Array slot -> alias class. An array the procedure allocates itself
    /// is a class of its own (distinct storage by construction); all dummy
    /// arrays share the last one (sequence association may overlap them).
    pub alias: Vec<usize>,
    /// Hoist slot -> type of the cached expression, filled in statement
    /// order as block formation encounters each loop's hoists.
    pub hoists: Vec<Ty>,
}

impl ProcTyEnv {
    pub fn new(proc: &LProc) -> Self {
        let scalars = proc
            .scalar_defaults
            .iter()
            .map(|s| Ty::of_scalar_type(s.ty()))
            .collect();
        let mut arrays = vec![Ty::Unknown; proc.array_names.len()];
        let mut ranks = vec![0; proc.array_names.len()];
        let mut alias: Vec<usize> = (0..proc.array_names.len()).collect();
        for d in &proc.array_decls {
            arrays[d.slot as usize] = Ty::of_scalar_type(d.ty);
            ranks[d.slot as usize] = d.dims.len();
            if d.param.is_some() {
                alias[d.slot as usize] = proc.array_names.len();
            }
        }
        ProcTyEnv {
            scalars,
            arrays,
            ranks,
            alias,
            hoists: vec![Ty::Unknown; proc.hoist_slots],
        }
    }
}

pub(crate) fn lexpr_ty(e: &LExpr, env: &ProcTyEnv) -> Ty {
    match e {
        LExpr::Int(_) => Ty::Int,
        LExpr::Real(_) => Ty::Real,
        LExpr::Const { v, .. } => Ty::of_scalar_type(v.ty()),
        LExpr::Var(slot) => env.scalars[*slot as usize].clone(),
        LExpr::Hoisted { slot, .. } => env.hoists[*slot as usize].clone(),
        LExpr::ArrayRef { slot, .. } => match slot {
            Some(s) => env.arrays[*s as usize].clone(),
            None => Ty::Unknown,
        },
        // The rules go by source name, as `lower::intr_of` does; a name
        // they do not know types `Unknown`.
        LExpr::Intrinsic { name, args, .. } => {
            let tys: Vec<Ty> = args.iter().map(|a| lexpr_ty(a, env)).collect();
            intrinsic_ty(name, &tys)
        }
        LExpr::Unary { op, operand } => unop_ty(*op, &lexpr_ty(operand, env)),
        LExpr::Binary { op, lhs, rhs } => {
            binop_ty(*op, &lexpr_ty(lhs, env), &lexpr_ty(rhs, env))
        }
    }
}

/// Assignments compiled into typed blocks, and assignments left to the
/// tree-walker, under `stmts`.
fn count_stmts(stmts: &[LStmt], counts: &mut (usize, usize)) {
    for s in stmts {
        match s {
            LStmt::Do { body, .. } => count_stmts(body, counts),
            LStmt::If {
                then_body,
                else_body,
                ..
            } => {
                count_stmts(then_body, counts);
                count_stmts(else_body, counts);
            }
            LStmt::Block { stmts, .. } => counts.0 += stmts.len(),
            LStmt::AssignScalar { .. } | LStmt::AssignArray { .. } | LStmt::SetVar { .. } => {
                counts.1 += 1
            }
            _ => {}
        }
    }
}

/// Infer slot-level types for `program` and report how many assignment
/// statements the optimizer compiled into typed blocks. Runs the same lowering
/// and optimization pipeline as execution (with default options), so the
/// counts are exactly what [`crate::run_program`] runs.
pub fn analyze_types(program: &fir::ast::Program) -> Result<TypeReport, fir::Errors> {
    fir::validate::validate(program)?;
    let mut lowered = crate::lower::lower(program);
    crate::opt::optimize(&mut lowered, &crate::cost::Options::default());
    Ok(report_of(&lowered))
}

fn report_of(program: &LProgram) -> TypeReport {
    let mut report = TypeReport::default();
    for proc in &program.procs {
        let env = ProcTyEnv::new(proc);
        let mut counts = (0usize, 0usize);
        count_stmts(&proc.body, &mut counts);
        report.procs.push(ProcTypes {
            name: proc.name.clone(),
            scalars: proc
                .scalar_names
                .iter()
                .cloned()
                .zip(env.scalars.iter().cloned())
                .collect(),
            arrays: proc
                .array_names
                .iter()
                .cloned()
                .zip(env.arrays.iter().map(|t| Ty::Array(Box::new(t.clone()))))
                .collect(),
            stmts_typed: counts.0,
            stmts_walked: counts.1,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_statements_compile_into_blocks() {
        let src = "program m\n\
                   real :: a(16)\n\
                   integer :: k(16)\n\
                   do i = 1, 16\n\
                   t = 0.0\n\
                   do j = 1, 64\n\
                   t = t + i * j + 0.5\n\
                   end do\n\
                   a(i) = t * 0.5 + i\n\
                   k(i) = i * 3 - i / 2\n\
                   end do\n\
                   end program";
        let program = fir::parse_validated(src).unwrap();
        let report = analyze_types(&program).unwrap();
        // Every assignment types — integer division included: it is an
        // op with a zero check, not a reason to leave the block.
        assert_eq!((report.stmts_typed(), report.stmts_walked()), (4, 0), "{report:?}");
        let main = &report.procs[0];
        let t = main.scalars.iter().find(|(n, _)| n == "t").unwrap();
        assert_eq!(t.1, Ty::Real);
        let i = main.scalars.iter().find(|(n, _)| n == "i").unwrap();
        assert_eq!(i.1, Ty::Int);
        let a = main.arrays.iter().find(|(n, _)| n == "a").unwrap();
        assert_eq!(a.1, Ty::Array(Box::new(Ty::Real)));
    }

    #[test]
    fn type_report_is_monomorphic_per_slot() {
        let src = "program m\n\
                   x = 1.5\n\
                   n = 3\n\
                   end program";
        let program = fir::parse_validated(src).unwrap();
        let report = analyze_types(&program).unwrap();
        let main = &report.procs[0];
        // Implicit typing: x -> real, n -> integer.
        assert!(main.scalars.iter().any(|(n, t)| n == "x" && *t == Ty::Real));
        assert!(main.scalars.iter().any(|(n, t)| n == "n" && *t == Ty::Int));
    }
}

//! The slot-level monomorphic type lattice and its promotion rules.
//!
//! In mini-Fortran every storage location is monomorphic *by
//! construction*: declarations (or the implicit first-letter rule) fix a
//! `ScalarType` per name, and every store converts the value to that type.
//! "Inference" is therefore seeding from declarations plus a bottom-up
//! walk over expressions with Fortran's promotion rules — no fixpoint.
//! The lattice still carries [`Ty::Unknown`] as a top element so the
//! optimizer can decline to compile anything it cannot prove (a statement
//! with an `Unknown` operand stays on the tree-walker).
//!
//! The traversal over `interp`'s lowered IR lives in `interp::typeck`
//! (the IR is private to that crate); this module owns the lattice, the
//! promotion rules — which mirror `interp::exec::try_binop` /
//! `try_intrinsic` exactly — and the [`TypeReport`] surfaced by
//! `harness analyze --json`.

use fir::ast::{BinOp, ScalarType, UnOp};

/// Static type of one storage location or expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    Int,
    Real,
    /// Array with the given element type (arrays of arrays do not exist
    /// in the language, so the box always holds `Int`/`Real`).
    Array(Box<Ty>),
    /// Top: the analysis cannot prove a single runtime tag.
    Unknown,
}

impl Ty {
    pub fn of_scalar_type(t: ScalarType) -> Ty {
        match t {
            ScalarType::Integer => Ty::Int,
            ScalarType::Real => Ty::Real,
        }
    }

    /// Least upper bound: equal types join to themselves, anything else
    /// joins to `Unknown`.
    pub fn join(&self, other: &Ty) -> Ty {
        if self == other {
            self.clone()
        } else {
            Ty::Unknown
        }
    }

    pub fn is_scalar(&self) -> bool {
        matches!(self, Ty::Int | Ty::Real)
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Real => "float",
            Ty::Array(e) => match **e {
                Ty::Int => "array-of-int",
                Ty::Real => "array-of-float",
                _ => "array-of-unknown",
            },
            Ty::Unknown => "unknown",
        }
    }
}

/// Static result type of a binary operation — mirrors
/// `interp::exec::try_binop`: comparisons and logic always produce an
/// integer; arithmetic produces an integer only when both operands are
/// integers (Fortran integer division included), otherwise a real.
pub fn binop_ty(op: BinOp, a: &Ty, b: &Ty) -> Ty {
    use BinOp::*;
    match op {
        Eq | Ne | Lt | Le | Gt | Ge | And | Or => Ty::Int,
        Add | Sub | Mul | Div | Pow => match (a, b) {
            (Ty::Int, Ty::Int) => Ty::Int,
            (Ty::Int | Ty::Real, Ty::Int | Ty::Real) => Ty::Real,
            _ => Ty::Unknown,
        },
    }
}

/// Static result type of a unary operation.
pub fn unop_ty(op: UnOp, a: &Ty) -> Ty {
    match op {
        // Negation preserves the operand's tag.
        UnOp::Neg => {
            if a.is_scalar() {
                a.clone()
            } else {
                Ty::Unknown
            }
        }
        // Logical not always yields 0/1.
        UnOp::Not => Ty::Int,
    }
}

/// Static result type of an intrinsic, by name — mirrors
/// `interp::exec::try_intrinsic`. `args` are the argument types.
pub fn intrinsic_ty(name: &str, args: &[Ty]) -> Ty {
    match name {
        "mod" | "floor" | "int" => Ty::Int,
        "sqrt" | "sin" | "cos" | "exp" | "log" | "real" => Ty::Real,
        // abs preserves the tag; min/max promote to real if any argument
        // is real.
        "abs" => args.first().cloned().unwrap_or(Ty::Unknown),
        "min" | "max" => {
            if args.iter().all(|t| *t == Ty::Int) {
                Ty::Int
            } else if args.iter().all(|t| t.is_scalar()) {
                Ty::Real
            } else {
                Ty::Unknown
            }
        }
        _ => Ty::Unknown,
    }
}

/// Inferred types for one procedure of a lowered program.
#[derive(Debug, Clone, Default)]
pub struct ProcTypes {
    pub name: String,
    /// (name, type) per scalar slot, in slot order.
    pub scalars: Vec<(String, Ty)>,
    /// (name, element type) per array slot, in slot order.
    pub arrays: Vec<(String, Ty)>,
    /// Assignment statements compiled into typed (register-code) blocks.
    pub stmts_typed: usize,
    /// Assignment statements left to the tree-walker.
    pub stmts_walked: usize,
}

/// Whole-program type-inference result.
#[derive(Debug, Clone, Default)]
pub struct TypeReport {
    pub procs: Vec<ProcTypes>,
}

impl TypeReport {
    pub fn stmts_typed(&self) -> usize {
        self.procs.iter().map(|p| p.stmts_typed).sum()
    }

    pub fn stmts_walked(&self) -> usize {
        self.procs.iter().map(|p| p.stmts_walked).sum()
    }

    pub fn to_json(&self) -> String {
        use crate::diag::json_string;
        let mut s = String::from("{\"procs\":[");
        for (i, p) in self.procs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"stmts_typed\":{},\"stmts_walked\":{},\"scalars\":{{",
                json_string(&p.name),
                p.stmts_typed,
                p.stmts_walked
            ));
            for (j, (n, t)) in p.scalars.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{}:{}", json_string(n), json_string(t.as_str())));
            }
            s.push_str("},\"arrays\":{");
            for (j, (n, t)) in p.arrays.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{}:{}", json_string(n), json_string(t.as_str())));
            }
            s.push_str("}}");
        }
        s.push_str(&format!(
            "],\"stmts_typed\":{},\"stmts_walked\":{}}}",
            self.stmts_typed(),
            self.stmts_walked()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_lub() {
        assert_eq!(Ty::Int.join(&Ty::Int), Ty::Int);
        assert_eq!(Ty::Int.join(&Ty::Real), Ty::Unknown);
        assert_eq!(Ty::Unknown.join(&Ty::Int), Ty::Unknown);
    }

    #[test]
    fn binop_rules_mirror_try_binop() {
        use BinOp::*;
        // Fortran integer division stays integer.
        assert_eq!(binop_ty(Div, &Ty::Int, &Ty::Int), Ty::Int);
        assert_eq!(binop_ty(Add, &Ty::Int, &Ty::Real), Ty::Real);
        assert_eq!(binop_ty(Lt, &Ty::Real, &Ty::Real), Ty::Int);
        assert_eq!(binop_ty(Mul, &Ty::Unknown, &Ty::Int), Ty::Unknown);
    }

    #[test]
    fn intrinsic_rules_mirror_try_intrinsic() {
        assert_eq!(intrinsic_ty("mod", &[Ty::Int, Ty::Int]), Ty::Int);
        assert_eq!(intrinsic_ty("sqrt", &[Ty::Int]), Ty::Real);
        assert_eq!(intrinsic_ty("abs", &[Ty::Real]), Ty::Real);
        assert_eq!(intrinsic_ty("min", &[Ty::Int, Ty::Int]), Ty::Int);
        assert_eq!(intrinsic_ty("min", &[Ty::Int, Ty::Real]), Ty::Real);
        assert_eq!(intrinsic_ty("max", &[Ty::Unknown, Ty::Int]), Ty::Unknown);
    }
}

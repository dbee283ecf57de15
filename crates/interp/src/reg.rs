//! Register code: the compiled form of a summarized block.
//!
//! [`crate::opt`] compiles each straight-line run of assignments once into
//! flat three-address code over one untagged register file — `[u64; 256]`
//! indexed by `u8` operands, so no index can be out of range, with `f64`
//! kept as bits. Every op is monomorphic: the operand types come from the
//! slot-level inference in [`crate::typeck`] (every scalar slot, hoist slot
//! and array element has one static type), so nothing dispatches on a value
//! tag at run time. A statement that does not type-compile — a real
//! subscript, a name that is not an array, an unknown intrinsic, rank > 4 —
//! is simply not block-eligible and runs on the tree-walker
//! ([`crate::exec::Interp::eval`]), which therefore stays the only source
//! of those error texts.
//!
//! Layout of a block's registers: scalar slots, hoist slots and literals
//! are *pinned* from register 0 upwards for the whole block (a prologue
//! loads them, an epilogue stores the written scalar slots back); every
//! computed value gets a register of its own above them. The builder emits
//! naive code — one temporary per op, a `Mov` per scalar store — and when
//! pins and temporaries would meet, the block ends there and the next one
//! starts (charges are per-statement sums, so the split is clock-neutral).
//! [`optimize`] then value-numbers the block: duplicates, dead moves and
//! repeated loads go, and what is loop-invariant and cannot fail moves to
//! a pre-header the prologue runs once.
//!
//! **Same arithmetic, same order.** Ops are emitted in the tree-walker's
//! post-order (subscripts left to right, then the value, then the store)
//! and each computes the very expression `exec::try_binop` /
//! `try_intrinsic` / `Scalar::convert_to` would on operands of those types,
//! so results, runtime errors and the rank they fire on are identical.

use crate::env::BoundArray;
use crate::exec::{rt_err, try_int_pow, LFrame};
use crate::lower::{Intr, LExpr, LProc, LStmt};
use crate::typeck::ProcTyEnv;
use crate::value::{BoundsError, Scalar};
use analyzer::types::Ty;
use fir::ast::{BinOp, ScalarType, UnOp};

pub(crate) const NREGS: usize = 256;
pub(crate) type RegFile = [u64; NREGS];

/// In a block compiled as (part of) a `do` body, the loop variable's
/// register — what the summarized-loop driver writes per iteration.
pub(crate) const LOOP_VAR: usize = 0;

/// Highest array rank the element ops encode.
const MAX_RANK: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Code {
    Mov,
    AddI,
    SubI,
    MulI,
    DivI,
    PowI,
    AddF,
    SubF,
    MulF,
    DivF,
    PowF,
    // `>` and `>=` compile to these with the operands swapped.
    EqI,
    NeI,
    LtI,
    LeI,
    EqF,
    NeF,
    LtF,
    LeF,
    AndI,
    OrI,
    NotI,
    NotF,
    /// `Scalar::is_true` of a real, as 0/1.
    TruthF,
    NegI,
    NegF,
    I2F,
    F2I,
    ModI,
    MinI,
    MaxI,
    MinF,
    MaxF,
    AbsI,
    AbsF,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    Floor,
    /// Element load, by rank: `d` ← `arr(a, b, c, e)`.
    Ld1,
    Ld2,
    Ld3,
    Ld4,
    /// Element store, by rank: `arr(a, b, c, e)` ← `d`.
    St1,
    St2,
    St3,
    St4,
}

const LD: [Code; MAX_RANK] = [Code::Ld1, Code::Ld2, Code::Ld3, Code::Ld4];
const ST: [Code; MAX_RANK] = [Code::St1, Code::St2, Code::St3, Code::St4];

/// One three-address op: `d` is the destination (the stored value for
/// `St*`), `s` the operands — two sources, or up to four subscripts.
#[derive(Debug, Clone, Copy)]
struct Op {
    code: Code,
    d: u8,
    s: [u8; MAX_RANK],
    arr: u16,
}

impl Op {
    /// A unary op passes its operand twice. Unused operand positions
    /// repeat the first, so all four mean something to [`optimize`].
    fn new(code: Code, d: u8, a: u8, b: u8) -> Op {
        Op::elem(code, d, [a, b, a, a], 0)
    }

    fn elem(code: Code, d: u8, s: [u8; MAX_RANK], arr: u16) -> Op {
        Op { code, d, s, arr }
    }
}

/// What a pinned register holds for the whole block: a literal's bits, or
/// a scalar or hoist slot of the frame (with the slot's static type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pin {
    Lit(u64),
    Scalar(u32, ScalarType),
    Hoist(u32, ScalarType),
}

/// A block's compiled form. Register `k` is pinned to `pins[k].0` — the
/// prologue materialises literals and reads the slots, then runs `pre`, the
/// ops [`optimize`] found invariant — and the flag marks a scalar slot the
/// body writes, which the epilogue stores back.
#[derive(Debug, Clone)]
pub(crate) struct RegCode {
    pins: Box<[(Pin, bool)]>,
    pre: Box<[Op]>,
    body: Box<[Op]>,
    /// How many ops the builder emitted for this block.
    #[cfg(test)]
    naive: usize,
}

impl RegCode {
    /// Prologue. A slot whose tag contradicts its static type would mean
    /// the inference is wrong about a *storage location* — a bug in this
    /// crate, not an input — so it stops the rank instead of computing on
    /// misread bits.
    pub(crate) fn enter(&self, proc: &LProc, f: &LFrame, r: &mut RegFile) {
        let word = |v: Scalar, ty: ScalarType| match (v, ty) {
            (Scalar::Int(x), ScalarType::Integer) => x as u64,
            (Scalar::Real(x), ScalarType::Real) => x.to_bits(),
            _ => panic!("a slot typed {ty:?} holds {v:?}"),
        };
        for (reg, &(pin, _)) in self.pins.iter().enumerate() {
            r[reg] = match pin {
                Pin::Lit(bits) => bits,
                Pin::Scalar(slot, ty) => word(f.scalars[slot as usize], ty),
                Pin::Hoist(slot, ty) => word(f.hoisted[slot as usize], ty),
            };
        }
        run(&self.pre, proc, f, r);
    }

    /// The body, once. Reads the frame's arrays; scalars live in `r`.
    pub(crate) fn body(&self, proc: &LProc, f: &LFrame, r: &mut RegFile) {
        run(&self.body, proc, f, r);
    }

    /// Epilogue.
    pub(crate) fn leave(&self, f: &mut LFrame, r: &RegFile) {
        for (reg, &(pin, written)) in self.pins.iter().enumerate() {
            if let (Pin::Scalar(slot, ty), true) = (pin, written) {
                f.scalars[slot as usize] = match ty {
                    ScalarType::Integer => Scalar::Int(r[reg] as i64),
                    ScalarType::Real => Scalar::Real(f64::from_bits(r[reg])),
                };
            }
        }
    }
}

/// The one dispatcher: `pre` and `body` both run here.
fn run(ops: &[Op], proc: &LProc, f: &LFrame, r: &mut RegFile) {
    for op in ops {
        // Every op's first two operands, as both views; the third and
        // fourth exist only as subscripts of rank-3 and -4 elements.
        let (ra, rb) = (r[op.s[0] as usize], r[op.s[1] as usize]);
        let (x, y) = (ra as i64, rb as i64);
        let (p, q) = (f64::from_bits(ra), f64::from_bits(rb));
        let sub = |k: usize| r[op.s[k] as usize] as i64;
        let d = op.d as usize;
        match op.code {
            Code::Mov => r[d] = ra,
            Code::AddI => r[d] = x.wrapping_add(y) as u64,
            Code::SubI => r[d] = x.wrapping_sub(y) as u64,
            Code::MulI => r[d] = x.wrapping_mul(y) as u64,
            Code::DivI => {
                if y == 0 {
                    rt_err!("integer division by zero");
                }
                r[d] = x.wrapping_div(y) as u64;
            }
            Code::PowI => match try_int_pow(x, y) {
                Ok(v) => r[d] = v as u64,
                Err(msg) => rt_err!("{msg}"),
            },
            Code::AddF => r[d] = (p + q).to_bits(),
            Code::SubF => r[d] = (p - q).to_bits(),
            Code::MulF => r[d] = (p * q).to_bits(),
            Code::DivF => r[d] = (p / q).to_bits(),
            Code::PowF => r[d] = p.powf(q).to_bits(),
            Code::EqI => r[d] = u64::from(x == y),
            Code::NeI => r[d] = u64::from(x != y),
            Code::LtI => r[d] = u64::from(x < y),
            Code::LeI => r[d] = u64::from(x <= y),
            Code::EqF => r[d] = u64::from(p == q),
            Code::NeF => r[d] = u64::from(p != q),
            Code::LtF => r[d] = u64::from(p < q),
            Code::LeF => r[d] = u64::from(p <= q),
            Code::AndI => r[d] = u64::from(x != 0 && y != 0),
            Code::OrI => r[d] = u64::from(x != 0 || y != 0),
            Code::NotI => r[d] = u64::from(x == 0),
            Code::NotF => r[d] = u64::from(p == 0.0),
            Code::TruthF => r[d] = u64::from(p != 0.0),
            Code::NegI => r[d] = (-x) as u64,
            Code::NegF => r[d] = (-p).to_bits(),
            Code::I2F => r[d] = (x as f64).to_bits(),
            Code::F2I => r[d] = (p.trunc() as i64) as u64,
            Code::ModI => {
                if y == 0 {
                    rt_err!("mod by zero");
                }
                r[d] = (x % y) as u64;
            }
            Code::MinI => r[d] = x.min(y) as u64,
            Code::MaxI => r[d] = x.max(y) as u64,
            Code::MinF => r[d] = p.min(q).to_bits(),
            Code::MaxF => r[d] = p.max(q).to_bits(),
            // `abs`, not `unsigned_abs`: i64::MIN must overflow exactly
            // as the tree-walker's `v.abs()` does.
            Code::AbsI => {
                let v = x.abs();
                r[d] = v as u64;
            }
            Code::AbsF => r[d] = p.abs().to_bits(),
            Code::Sqrt => r[d] = p.sqrt().to_bits(),
            Code::Sin => r[d] = p.sin().to_bits(),
            Code::Cos => r[d] = p.cos().to_bits(),
            Code::Exp => r[d] = p.exp().to_bits(),
            Code::Log => r[d] = p.ln().to_bits(),
            Code::Floor => r[d] = (p.floor() as i64) as u64,
            Code::Ld1 => r[d] = load(proc, f, op.arr, &[x]),
            Code::Ld2 => r[d] = load(proc, f, op.arr, &[x, y]),
            Code::Ld3 => r[d] = load(proc, f, op.arr, &[x, y, sub(2)]),
            Code::Ld4 => r[d] = load(proc, f, op.arr, &[x, y, sub(2), sub(3)]),
            Code::St1 => store(proc, f, op.arr, &[x], r[d]),
            Code::St2 => store(proc, f, op.arr, &[x, y], r[d]),
            Code::St3 => store(proc, f, op.arr, &[x, y, sub(2)], r[d]),
            Code::St4 => store(proc, f, op.arr, &[x, y, sub(2), sub(3)], r[d]),
        }
    }
}

/// Resolve an element of array slot `arr`, checking every subscript.
#[inline(always)]
fn element<'f>(proc: &LProc, f: &'f LFrame, arr: u16, idx: &[i64]) -> (&'f BoundArray, usize) {
    let b = f.array(u32::from(arr));
    match b.flat("", idx) {
        Ok(off) => (b, b.handle.offset + off),
        Err(be) => bounds_fail(proc, arr, be),
    }
}

#[cold]
fn bounds_fail(proc: &LProc, arr: u16, mut be: BoundsError) -> ! {
    be.array = proc.array_names[arr as usize].clone();
    rt_err!("{be}")
}

#[inline(always)]
fn load(proc: &LProc, f: &LFrame, arr: u16, idx: &[i64]) -> u64 {
    let (b, at) = element(proc, f, arr, idx);
    let bits = b.handle.storage.borrow().data.bits(at);
    bits
}

#[inline(always)]
fn store(proc: &LProc, f: &LFrame, arr: u16, idx: &[i64], bits: u64) {
    let (b, at) = element(proc, f, arr, idx);
    b.handle.storage.borrow_mut().data.set_bits(at, bits);
}

// ------------------------------------------------------------- compiling

/// A compiled subexpression: where its value lives, its static type, and
/// its value when that is a literal (so conversions fold at compile time).
#[derive(Clone, Copy)]
struct Val {
    reg: u8,
    ty: ScalarType,
    lit: Option<Scalar>,
}

impl Val {
    fn new(reg: u8, ty: ScalarType) -> Val {
        let lit = None;
        Val { reg, ty, lit }
    }
}

fn scalar_ty(t: &Ty) -> Option<ScalarType> {
    match t {
        Ty::Int => Some(ScalarType::Integer),
        Ty::Real => Some(ScalarType::Real),
        Ty::Array(_) | Ty::Unknown => None,
    }
}

/// Compiles one block, statement by statement. `None` from any step means
/// "this statement does not fit this block": it is untypable, or the
/// register file is full — [`RegBuilder::push_stmt`] rolls back and the
/// caller retries it in a fresh block before giving it to the tree-walker.
pub(crate) struct RegBuilder<'e> {
    env: &'e ProcTyEnv,
    loop_var: Option<u32>,
    /// Register `k` holds `pins[k].0`; the flag marks a written scalar.
    pins: Vec<(Pin, bool)>,
    body: Vec<Op>,
    /// Temporaries so far: the `k`-th is register `NREGS - 1 - k`. Each op
    /// takes a new one, so their count bounds the values [`optimize`]
    /// will need registers for.
    ntemps: usize,
    /// [`optimize`]'s value table, kept across blocks for its allocation.
    table: Vec<(u64, u8)>,
}

impl<'e> RegBuilder<'e> {
    /// `loop_var`: the variable of the `do` whose body this block belongs
    /// to, pinned to [`LOOP_VAR`] and stored back on exit whether or not a
    /// statement mentions it.
    pub(crate) fn new(env: &'e ProcTyEnv, loop_var: Option<u32>) -> Self {
        let mut b = RegBuilder {
            env,
            loop_var,
            pins: Vec::new(),
            body: Vec::new(),
            ntemps: 0,
            table: Vec::new(),
        };
        b.reset();
        b
    }

    fn reset(&mut self) {
        self.pins.clear();
        self.body.clear();
        self.ntemps = 0;
        if let Some(var) = self.loop_var {
            debug_assert_eq!(self.env.scalars[var as usize], Ty::Int);
            self.pins
                .push((Pin::Scalar(var, ScalarType::Integer), true));
        }
    }

    /// Compile `s` onto the end of the block; `false` leaves the block as
    /// it was.
    pub(crate) fn push_stmt(&mut self, s: &LStmt) -> bool {
        let (npins, nbody, ntemps) = (self.pins.len(), self.body.len(), self.ntemps);
        if self.stmt(s).is_some() {
            return true;
        }
        self.pins.truncate(npins);
        self.body.truncate(nbody);
        self.ntemps = ntemps;
        false
    }

    /// Hand over the block compiled so far, optimized, and start an empty
    /// one.
    pub(crate) fn finish(&mut self) -> RegCode {
        let (pre, body) = optimize(self.env, &self.pins, &self.body, &mut self.table);
        let code = RegCode {
            pins: std::mem::take(&mut self.pins).into(),
            pre: pre.into(),
            body: body.into(),
            #[cfg(test)]
            naive: self.body.len(),
        };
        self.reset();
        code
    }

    // -- registers ------------------------------------------------------

    fn pin(&mut self, pin: Pin) -> Option<u8> {
        if let Some(k) = self.pins.iter().position(|(p, _)| *p == pin) {
            return Some(k as u8);
        }
        if self.pins.len() + self.ntemps >= NREGS {
            return None;
        }
        self.pins.push((pin, false));
        Some((self.pins.len() - 1) as u8)
    }

    fn temp(&mut self) -> Option<u8> {
        if self.pins.len() + self.ntemps >= NREGS {
            return None;
        }
        self.ntemps += 1;
        Some((NREGS - self.ntemps) as u8)
    }

    fn emit(&mut self, code: Code, a: u8, b: u8, ty: ScalarType) -> Option<Val> {
        let d = self.temp()?;
        self.body.push(Op::new(code, d, a, b));
        Some(Val::new(d, ty))
    }

    fn lit(&mut self, s: Scalar) -> Option<Val> {
        let bits = match s {
            Scalar::Int(k) => k as u64,
            Scalar::Real(x) => x.to_bits(),
        };
        Some(Val {
            reg: self.pin(Pin::Lit(bits))?,
            ty: s.ty(),
            lit: Some(s),
        })
    }

    /// `v` as a value of type `to` — `Scalar::convert_to`, at compile time
    /// for a literal, else by one op.
    fn convert(&mut self, v: Val, to: ScalarType) -> Option<Val> {
        if v.ty == to {
            return Some(v);
        }
        if let Some(s) = v.lit {
            return self.lit(s.convert_to(to));
        }
        let code = match to {
            ScalarType::Real => Code::I2F,
            ScalarType::Integer => Code::F2I,
        };
        self.emit(code, v.reg, v.reg, to)
    }

    fn real(&mut self, v: Val) -> Option<u8> {
        Some(self.convert(v, ScalarType::Real)?.reg)
    }

    /// `v` as an integer that is nonzero iff `Scalar::is_true`.
    fn truth(&mut self, v: Val) -> Option<u8> {
        if v.ty == ScalarType::Integer {
            return Some(v.reg);
        }
        let truth = self.emit(Code::TruthF, v.reg, v.reg, ScalarType::Integer)?;
        Some(truth.reg)
    }

    // -- expressions ----------------------------------------------------

    fn expr(&mut self, e: &LExpr) -> Option<Val> {
        match e {
            LExpr::Int(v) => self.lit(Scalar::Int(*v)),
            LExpr::Real(v) => self.lit(Scalar::Real(*v)),
            LExpr::Const { v, .. } => self.lit(*v),
            LExpr::Var(slot) => {
                let ty = scalar_ty(&self.env.scalars[*slot as usize])?;
                let reg = self.pin(Pin::Scalar(*slot, ty))?;
                Some(Val::new(reg, ty))
            }
            LExpr::Hoisted { slot, .. } => {
                let ty = scalar_ty(&self.env.hoists[*slot as usize])?;
                let reg = self.pin(Pin::Hoist(*slot, ty))?;
                Some(Val::new(reg, ty))
            }
            LExpr::ArrayRef { slot, indices, .. } => {
                let (arr, ty, idx) = self.element(*slot, indices)?;
                let d = self.temp()?;
                self.body.push(Op::elem(LD[indices.len() - 1], d, idx, arr));
                Some(Val::new(d, ty))
            }
            LExpr::Unary { op, operand } => {
                let v = self.expr(operand)?;
                let int = v.ty == ScalarType::Integer;
                let (code, ty) = match op {
                    UnOp::Neg if int => (Code::NegI, v.ty),
                    UnOp::Neg => (Code::NegF, v.ty),
                    UnOp::Not if int => (Code::NotI, ScalarType::Integer),
                    UnOp::Not => (Code::NotF, ScalarType::Integer),
                };
                self.emit(code, v.reg, v.reg, ty)
            }
            LExpr::Binary { op, lhs, rhs } => {
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                self.binary(*op, a, b)
            }
            LExpr::Intrinsic { op, args, .. } => {
                let vals: Option<Vec<Val>> = args.iter().map(|a| self.expr(a)).collect();
                self.intrinsic(*op, &vals?)
            }
        }
    }

    /// The subscripts of one element access, left to right; `None` unless
    /// the name is an array of the subscripted rank (≤ [`MAX_RANK`]) and
    /// every subscript is integer-typed.
    fn element(
        &mut self,
        slot: Option<u32>,
        indices: &[LExpr],
    ) -> Option<(u16, ScalarType, [u8; MAX_RANK])> {
        let slot = slot?;
        let arr = u16::try_from(slot).ok()?;
        let ty = scalar_ty(&self.env.arrays[slot as usize])?;
        let rank = indices.len();
        if rank == 0 || rank > MAX_RANK || rank != self.env.ranks[slot as usize] {
            return None;
        }
        let mut idx = [0u8; MAX_RANK];
        for (k, i) in indices.iter().enumerate() {
            let v = self.expr(i)?;
            if v.ty != ScalarType::Integer {
                return None;
            }
            idx[k] = v.reg;
        }
        let first = idx[0];
        idx[rank..].fill(first);
        Some((arr, ty, idx))
    }

    /// `exec::try_binop`, resolved on the operand types.
    fn binary(&mut self, op: BinOp, a: Val, b: Val) -> Option<Val> {
        use BinOp::*;
        use ScalarType::{Integer, Real};
        let both_int = a.ty == Integer && b.ty == Integer;
        let pick = |int: Code, real: Code| if both_int { int } else { real };
        let code = match op {
            Add => pick(Code::AddI, Code::AddF),
            Sub => pick(Code::SubI, Code::SubF),
            Mul => pick(Code::MulI, Code::MulF),
            Div => pick(Code::DivI, Code::DivF),
            Pow => pick(Code::PowI, Code::PowF),
            Eq => pick(Code::EqI, Code::EqF),
            Ne => pick(Code::NeI, Code::NeF),
            Lt | Gt => pick(Code::LtI, Code::LtF),
            Le | Ge => pick(Code::LeI, Code::LeF),
            And => Code::AndI,
            Or => Code::OrI,
        };
        let (x, y) = match op {
            And | Or => (self.truth(a)?, self.truth(b)?),
            _ if both_int => (a.reg, b.reg),
            _ => (self.real(a)?, self.real(b)?),
        };
        // `x > y` is `y < x`: the operands are already evaluated, in order.
        let (x, y) = if matches!(op, Gt | Ge) {
            (y, x)
        } else {
            (x, y)
        };
        let arithmetic = matches!(op, Add | Sub | Mul | Div | Pow);
        let ty = if arithmetic && !both_int {
            Real
        } else {
            Integer
        };
        self.emit(code, x, y, ty)
    }

    /// `exec::try_intrinsic`, resolved on the argument types; shapes it
    /// would panic on (wrong arity, a real `mod` argument) do not compile.
    fn intrinsic(&mut self, op: Intr, vals: &[Val]) -> Option<Val> {
        use ScalarType::{Integer, Real};
        let all_int = vals.iter().all(|v| v.ty == Integer);
        match (op, vals) {
            (Intr::Mod, [a, b]) if all_int => self.emit(Code::ModI, a.reg, b.reg, Integer),
            (Intr::Min | Intr::Max, [_, ..]) => self.min_max(op == Intr::Min, vals),
            (Intr::Abs, [a]) => {
                let code = if all_int { Code::AbsI } else { Code::AbsF };
                self.emit(code, a.reg, a.reg, a.ty)
            }
            (Intr::Int, [a]) => self.convert(*a, Integer),
            (Intr::Real, [a]) => self.convert(*a, Real),
            (_, [a]) => {
                let (code, ty) = match op {
                    Intr::Floor => (Code::Floor, Integer),
                    Intr::Sqrt => (Code::Sqrt, Real),
                    Intr::Sin => (Code::Sin, Real),
                    Intr::Cos => (Code::Cos, Real),
                    Intr::Exp => (Code::Exp, Real),
                    Intr::Log => (Code::Log, Real),
                    _ => return None,
                };
                let x = self.real(*a)?;
                self.emit(code, x, x, ty)
            }
            _ => None,
        }
    }

    /// `min`/`max`: with any real argument, a fold from ±∞ over the
    /// arguments as reals; otherwise the integer minimum/maximum.
    fn min_max(&mut self, is_min: bool, vals: &[Val]) -> Option<Val> {
        let any_real = vals.iter().any(|v| v.ty == ScalarType::Real);
        let (code, ty, mut acc, rest) = if any_real {
            let regs: Option<Vec<u8>> = vals.iter().map(|v| self.real(*v)).collect();
            let (inf, code) = if is_min {
                (f64::INFINITY, Code::MinF)
            } else {
                (f64::NEG_INFINITY, Code::MaxF)
            };
            let start = self.lit(Scalar::Real(inf))?.reg;
            (code, ScalarType::Real, start, regs?)
        } else {
            let code = if is_min { Code::MinI } else { Code::MaxI };
            let rest = vals[1..].iter().map(|v| v.reg).collect();
            (code, ScalarType::Integer, vals[0].reg, rest)
        };
        if rest.is_empty() {
            // A single integer argument is its own minimum.
            return Some(vals[0]);
        }
        for x in rest {
            acc = self.emit(code, acc, x, ty)?.reg;
        }
        Some(Val::new(acc, ty))
    }

    // -- statements -----------------------------------------------------

    fn stmt(&mut self, s: &LStmt) -> Option<()> {
        match s {
            LStmt::AssignScalar { slot, ty, value } => {
                let v = self.expr(value)?;
                self.store_scalar(*slot, *ty, v)
            }
            LStmt::SetVar { slot, v, .. } => {
                let v = self.lit(Scalar::Int(*v))?;
                self.store_scalar(*slot, ScalarType::Integer, v)
            }
            LStmt::AssignArray {
                slot,
                indices,
                value,
                ..
            } => {
                let (arr, ty, idx) = self.element(*slot, indices)?;
                let v = self.expr(value)?;
                let d = self.convert(v, ty)?.reg;
                self.body.push(Op::elem(ST[indices.len() - 1], d, idx, arr));
                Some(())
            }
            _ => None,
        }
    }

    /// Convert `v` to the slot's type and move it into the slot's pinned
    /// register.
    fn store_scalar(&mut self, slot: u32, ty: ScalarType, v: Val) -> Option<()> {
        if scalar_ty(&self.env.scalars[slot as usize]) != Some(ty) {
            return None;
        }
        let v = self.convert(v, ty)?.reg;
        let d = self.pin(Pin::Scalar(slot, ty))?;
        self.pins[d as usize].1 = true;
        if let Some((Pin::Scalar(..), _)) = self.pins.get(v as usize) {
            // A slot-to-slot copy: [`optimize`] may have to route it
            // through a register of its own (`t = a; a = b; b = t`).
            self.temp()?;
        }
        self.body.push(Op::new(Code::Mov, d, v, v));
        Some(())
    }
}

// ------------------------------------------------------------ optimizing

/// Local value numbering over one block's naive code: `(pre, body)`.
///
/// Each distinct `(code, operand values, array, store epoch)` is computed
/// once, into a register of its own, so a value stays readable to the end
/// of the block; `Mov` is copy propagation, and a written scalar slot gets
/// its value back once, at the end of the body. Loads are numbered under
/// the store epoch of their alias class ([`ProcTyEnv::alias`]). An op that
/// cannot fail, reads no memory and whose operands the body never changes
/// goes to `pre`; everything else keeps its place, so the first failing op
/// — its text and its rank — is the tree-walker's. No op is changed:
/// what disappears is an exact duplicate or a move nothing reads.
fn optimize(
    env: &ProcTyEnv,
    pins: &[(Pin, bool)],
    naive: &[Op],
    table: &mut Vec<(u64, u8)>,
) -> (Vec<Op>, Vec<Op>) {
    let (ld, st) = (Code::Ld1 as u8, Code::St1 as u8);
    use Code::{AbsI, DivI, ModI, Mov, NegI, PowI};
    let ident: [u8; NREGS] = std::array::from_fn(|k| k as u8);
    // Naive register -> the value (optimized register) it holds now.
    let mut cur = ident;
    // Value -> the body never changes it: an unwritten pin, or `pre`'s.
    let mut inv: [bool; NREGS] = std::array::from_fn(|k| pins.get(k).is_some_and(|p| !p.1));
    // Value -> 1 + the index in `body` of the op defining it, if one does.
    let mut def = [0usize; NREGS];
    let mut next = pins.len();
    let mut epochs = vec![0u8; env.alias.len() + 1];
    let class = |arr: u16| env.alias[arr as usize];
    let (mut pre, mut body) = (Vec::new(), Vec::with_capacity(naive.len()));
    table.clear();
    table.resize((2 * naive.len()).next_power_of_two(), (0, 0));
    for op in naive {
        let (code, d, arr) = (op.code, op.d as usize, op.arr);
        let s = op.s.map(|x| cur[x as usize]);
        if code == Mov {
            cur[d] = s[0];
            continue;
        }
        if code as u8 >= st {
            body.push(Op::elem(code, cur[d], s, arr));
            epochs[class(arr)] = epochs[class(arr)].saturating_add(1);
            continue;
        }
        // A saturated epoch no longer tells stores apart: stop reusing.
        let load = code as u8 >= ld;
        let seen = if load { epochs[class(arr)] } else { 0 };
        let key = code as u64
            | u64::from(u32::from_le_bytes(s)) << 8
            | u64::from(arr) << 40
            | u64::from(seen) << 56;
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & (table.len() - 1);
        while table[at].0 != 0 && table[at].0 != key {
            at = (at + 1) & (table.len() - 1);
        }
        if table[at].0 == key && seen != u8::MAX {
            cur[d] = table[at].1;
            continue;
        }
        let v = next;
        next += 1;
        table[at] = (key, v as u8);
        cur[d] = v as u8;
        let total = !load && !matches!(code, DivI | ModI | PowI | AbsI | NegI);
        inv[v] = total && s.iter().all(|&x| inv[x as usize]);
        if inv[v] {
            pre.push(Op::elem(code, v as u8, s, arr));
        } else {
            body.push(Op::elem(code, v as u8, s, arr));
            def[v] = body.len();
        }
    }
    // Write-backs. `last[x]`: 1 + the index of the last op reading `x`;
    // a write-back reads its source after every op.
    let mut wb: Vec<(u8, u8)> = (0..pins.len() as u8)
        .filter(|&k| pins[k as usize].1 && cur[k as usize] != k)
        .map(|k| (k, cur[k as usize]))
        .collect();
    let mut last = [0usize; NREGS];
    for (i, op) in body.iter().enumerate() {
        let stored = (op.code as u8 >= st).then_some(op.d);
        op.s.into_iter()
            .chain(stored)
            .for_each(|x| last[x as usize] = i + 1);
    }
    for &(_, v) in &wb {
        last[v as usize] = usize::MAX;
    }
    // Where nothing reads the slot's entry value after the op defining its
    // final one, that op writes the slot's register itself.
    let mut rename = ident;
    wb.retain(|&(k, v)| {
        let at = def[v as usize];
        let fold = at != 0 && rename[v as usize] == v && last[k as usize] <= at;
        if fold {
            rename[v as usize] = k;
        }
        !fold
    });
    for op in &mut body {
        op.s = op.s.map(|x| rename[x as usize]);
        op.d = rename[op.d as usize];
    }
    // The rest move at the end, each before the move that overwrites its
    // source; a cycle (`t = a; a = b; b = t`) is cut by saving one slot's
    // entry value in a register of its own.
    wb.iter_mut().for_each(|m| m.1 = rename[m.1 as usize]);
    while !wb.is_empty() {
        let free = wb.iter().position(|a| wb.iter().all(|b| b.1 != a.0));
        if free.is_none() {
            let (k, saved) = (wb[0].0, next as u8);
            body.push(Op::new(Mov, saved, k, k));
            wb.iter_mut()
                .for_each(|m| m.1 = if m.1 == k { saved } else { m.1 });
            next += 1;
        }
        let (k, v) = wb.remove(free.unwrap_or(0));
        body.push(Op::new(Mov, k, v, v));
    }
    assert!(next <= NREGS, "the builder reserved a register per value");
    (pre, body)
}

#[cfg(test)]
mod tests {
    use super::{Code, Op, Pin, RegCode};
    use crate::cost::Options;
    use crate::lower::{lower, LProgram, LStmt};
    use crate::run::{compile_unchecked, RunError, RunResult};
    use clustersim::{NetworkModel, SimError};
    use std::fmt;

    /// One op a line: `r9 = AddF r3 r7`, `r9 = Ld2 a1(r0, r4)`,
    /// `St2 a1(r0, r4) = r9`; a unary op shows its operand once.
    impl fmt::Display for Op {
        fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
            let Op { code, d, s, arr } = *self;
            let elem = |rank: usize| {
                let subs: Vec<String> = s[..rank].iter().map(|x| format!("r{x}")).collect();
                format!("a{arr}({})", subs.join(", "))
            };
            let c = code as usize;
            if c >= Code::St1 as usize {
                write!(f, "{code:?} {} = r{d}", elem(c - Code::St1 as usize + 1))
            } else if c >= Code::Ld1 as usize {
                write!(f, "r{d} = {code:?} {}", elem(c - Code::Ld1 as usize + 1))
            } else if s[0] == s[1] {
                write!(f, "r{d} = {code:?} r{}", s[0])
            } else {
                write!(f, "r{d} = {code:?} r{} r{}", s[0], s[1])
            }
        }
    }

    impl fmt::Display for RegCode {
        fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
            writeln!(f, "pins:")?;
            for (k, (pin, written)) in self.pins.iter().enumerate() {
                let w = if *written { ", written" } else { "" };
                match pin {
                    Pin::Lit(bits) => writeln!(f, "  r{k} = lit {bits:#x}")?,
                    Pin::Scalar(slot, ty) => writeln!(f, "  r{k} = scalar {slot} ({ty:?}{w})")?,
                    Pin::Hoist(slot, ty) => writeln!(f, "  r{k} = hoist {slot} ({ty:?})")?,
                }
            }
            for (name, ops) in [("pre", &self.pre), ("body", &self.body)] {
                writeln!(f, "{name}:")?;
                for op in ops.iter() {
                    writeln!(f, "  {op}")?;
                }
            }
            Ok(())
        }
    }

    /// Every block of procedure `proc`, in program order.
    fn blocks(l: &LProgram, proc: usize) -> Vec<&RegCode> {
        fn walk<'a>(stmts: &'a [LStmt], out: &mut Vec<&'a RegCode>) {
            for s in stmts {
                match s {
                    LStmt::Block { code, .. } => out.push(code),
                    LStmt::Do { body, .. } => walk(body, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&l.procs[proc].body, &mut out);
        out
    }

    fn optimized(src: &str) -> LProgram {
        let mut l = lower(&fir::parse(src).expect("test source parses"));
        crate::opt::optimize(&mut l, &Options::default());
        l
    }

    fn lines(ops: &[Op]) -> Vec<String> {
        ops.iter().map(Op::to_string).collect()
    }

    /// How many ops of `code`'s name are in `ops`.
    fn count(ops: &[Op], code: &str) -> usize {
        lines(ops).iter().filter(|l| l.contains(code)).count()
    }

    /// What the pass leaves of the registry's kernels: `(pre, body)` op
    /// counts of every block of the main program, in program order (the
    /// big one is one `ix` iteration with `iz` and `iw` unrolled into it;
    /// the builder emitted 216, 184 and 144 ops for those), and never more
    /// ops than the builder emitted.
    #[test]
    fn kernel_op_counts_are_pinned() {
        use workloads::SizeClass::{Small, Standard};
        for (name, size, np, expect) in [
            ("direct2d", Standard, 8, vec![(1, 98), (0, 22)]),
            ("fft", Standard, 8, vec![(0, 3), (1, 126), (0, 22)]),
            ("adi", Standard, 8, vec![(1, 4), (0, 63), (0, 22)]),
            (
                "direct2d",
                Small,
                256,
                vec![(9, 22), (0, 1), (0, 2), (1, 4)],
            ),
        ] {
            let entry = workloads::find(name).expect("a registry name");
            let l = optimized(&(entry.make)(size, np).source());
            let blocks = blocks(&l, l.main);
            let got: Vec<_> = blocks.iter().map(|b| (b.pre.len(), b.body.len())).collect();
            assert_eq!(got, expect, "{name} np {np}");
            for b in blocks {
                assert!(
                    b.pre.len() + b.body.len() <= b.naive,
                    "{name} np {np}:\n{b}"
                );
            }
        }
    }

    /// The pre-header of `direct2d`'s inner body: at np 8 the conversion of
    /// the invariant `iy`; at np 256, where `iz` is the loop, also those of
    /// the six hoisted `ix * iw` and of `ix`, and the first add of the
    /// chain (`0.0 + real(ix * 1)`: both operands invariant).
    #[test]
    fn invariant_conversions_move_to_the_pre_header() {
        use workloads::SizeClass::{Small, Standard};
        let direct2d = workloads::find("direct2d").expect("a registry name");
        let l = optimized(&(direct2d.make)(Standard, 8).source());
        let text = blocks(&l, l.main)[0].to_string();
        assert!(text.contains("  r7 = scalar 2 (Integer)\n"), "{text}");
        assert!(text.contains("pre:\n  r27 = I2F r7\nbody:\n"), "{text}");
        let l = optimized(&(direct2d.make)(Small, 256).source());
        let inner = blocks(&l, l.main)[0];
        assert_eq!(
            lines(&inner.pre),
            [
                "r19 = I2F r5",
                "r20 = AddF r1 r19",
                "r23 = I2F r6",
                "r25 = I2F r8",
                "r29 = I2F r10",
                "r33 = I2F r12",
                "r37 = I2F r14",
                "r41 = I2F r16",
                "r46 = I2F r17"
            ],
            "{inner}"
        );
        // The chain's other seventeen adds and `+ ix`; the one move is
        // `iw`'s write-back, `t`'s is folded into its last add.
        assert_eq!(
            (count(&inner.body, "AddF"), count(&inner.body, "Mov")),
            (18, 1),
            "{inner}"
        );
    }

    /// Run `src` (unvalidated — some of these programs are exactly what
    /// validation rejects) on two ranks, optimized or not.
    fn run(src: &str, optimize: bool) -> Result<RunResult, (usize, String)> {
        let program = fir::parse(src).expect("test source parses");
        let opts = Options {
            optimize,
            ..Default::default()
        };
        compile_unchecked(&program, &opts)
            .run(2, &NetworkModel::mpich_gm())
            .map_err(|e| match e {
                RunError::Sim(SimError::RankPanic { rank, message }) => (rank, message),
                other => panic!("unexpected error: {other}"),
            })
    }

    /// (block sizes in program order, assignments left to the tree-walker)
    /// of the optimized main program.
    fn shape(src: &str) -> (Vec<usize>, usize) {
        fn walk(stmts: &[LStmt], blocks: &mut Vec<usize>, walked: &mut usize) {
            for s in stmts {
                match s {
                    LStmt::Block { stmts, .. } => blocks.push(stmts.len()),
                    LStmt::Do { body, .. } => walk(body, blocks, walked),
                    LStmt::AssignScalar { .. } | LStmt::AssignArray { .. } => *walked += 1,
                    _ => {}
                }
            }
        }
        let mut l = lower(&fir::parse(src).expect("test source parses"));
        crate::opt::optimize(&mut l, &Options::default());
        let (mut blocks, mut walked) = (Vec::new(), 0);
        walk(&l.procs[l.main].body, &mut blocks, &mut walked);
        (blocks, walked)
    }

    fn assert_same_success(src: &str) {
        let fast = run(src, true).unwrap_or_else(|e| panic!("optimized run failed: {e:?}"));
        let plain = run(src, false).unwrap_or_else(|e| panic!("plain run failed: {e:?}"));
        assert_eq!(fast.outputs, plain.outputs, "outputs differ");
        assert_eq!(fast.report.per_rank, plain.report.per_rank, "stats differ");
    }

    /// Every runtime error an op can raise: the optimized run reports the
    /// same rank and the same text as the tree walk. Each fires on rank 1
    /// only, from inside a summarized (symbolic-trip, so not unrolled) loop.
    #[test]
    fn runtime_errors_inside_blocks_match_the_tree_walker() {
        let decls = "integer :: k, v(4), w(4, 3), c(2, 2, 2)\n";
        for (stmt, expect) in [
            (
                "k = k + v(i + mynum)",
                "subscript 5 of `v` out of bounds in dimension 1: valid 1..=4",
            ),
            (
                "v(i - 4 * mynum) = i",
                "subscript -3 of `v` out of bounds in dimension 1: valid 1..=4",
            ),
            (
                "k = w(i + mynum, 2)",
                "subscript 5 of `w` out of bounds in dimension 1: valid 1..=4",
            ),
            (
                "k = w(i, 3 + mynum)",
                "subscript 4 of `w` out of bounds in dimension 2: valid 1..=3",
            ),
            (
                "w(i * (1 - mynum), 1) = 7",
                "subscript 0 of `w` out of bounds in dimension 1: valid 1..=4",
            ),
            (
                "w(i, 1 - mynum) = 7",
                "subscript 0 of `w` out of bounds in dimension 2: valid 1..=3",
            ),
            (
                "k = c(1, 2, 2 + mynum)",
                "subscript 3 of `c` out of bounds in dimension 3: valid 1..=2",
            ),
            (
                "c(1, 2 + mynum, 1) = i",
                "subscript 3 of `c` out of bounds in dimension 2: valid 1..=2",
            ),
            ("k = i / (1 - mynum)", "integer division by zero"),
            (
                "k = i / (1 - mynum) + i / (1 - mynum)",
                "integer division by zero",
            ),
            ("k = mod(i, 1 - mynum)", "mod by zero"),
            ("k = (1 - mynum) ** (0 - 1)", "0 ** negative exponent"),
        ] {
            let src = format!("program m\n{decls}do i = 1, np * 2\n{stmt}\nend do\nend program\n");
            assert_eq!(shape(&src), (vec![1], 0), "`{stmt}` runs as register code");
            let fast = run(&src, true).expect_err(stmt);
            assert_eq!(fast, (1, format!("interp: {expect}")), "{stmt}");
            assert_eq!(run(&src, false).expect_err(stmt), fast, "{stmt}");
        }
    }

    /// What does not type never enters a block, so its error is the
    /// tree-walker's own, word for word.
    #[test]
    fn untypable_statements_stay_on_the_tree_walker() {
        for (body, expect) in [
            (
                "x = 2.0\nv(x) = 1",
                "array subscript: expected integer, got real 2",
            ),
            (
                "k = v(1) + v(1.5)",
                "array subscript: expected integer, got real 1.5",
            ),
            (
                "k = 1\nb(k) = 2",
                "interp: `b` is not an array in this scope",
            ),
            (
                "k = b(1, 2) + 1",
                "interp: `b` is not an array in this scope",
            ),
        ] {
            let src = format!("program m\ninteger :: k, v(4)\n{body}\nend program\n");
            assert_eq!(shape(&src).1, 1, "one statement of `{body}` is walked");
            let fast = run(&src, true).expect_err(body);
            assert_eq!(fast.1, expect, "{body}");
            assert_eq!(run(&src, false).expect_err(body), fast, "{body}");
        }
    }

    /// Sequence association lets a dummy's declared element type differ
    /// from its actual's storage; such an activation walks its blocks.
    #[test]
    fn retyped_dummy_arrays_take_the_cold_path() {
        for (dummy, actual) in [("integer", "real"), ("real", "integer")] {
            let src = format!(
                "subroutine f(n, d)
  integer :: n
  {dummy} :: d(n)
  do i = 1, n
    d(i) = d(i) * 3 / 2 + i
  end do
  d(1) = d(2) / 4 + d(n)
end subroutine

program m
  {actual} :: a(8)
  do i = 1, 8
    a(i) = i * 5 + mynum
  end do
  call f(8, a)
  a(8) = a(8) + 1
end program
"
            );
            fir::parse_validated(&src).expect("legal: arguments are not type-checked");
            assert_same_success(&src);
        }
    }

    /// Two dummies bound to one array: the store through `d2` must reach
    /// the second load through `d1`. A local array is storage of its own,
    /// so a store to it leaves a dummy's loaded element reusable — and a
    /// store through a dummy leaves the local's.
    #[test]
    fn dummy_arrays_share_a_store_epoch_and_local_arrays_do_not() {
        let src = "subroutine f(n, d1, d2)
  integer :: n
  real :: d1(n), d2(n), w(8)
  do i = 1, n
    x = d1(i)
    d2(i) = x * 2.0 + 1.0
    w(i) = d1(i) + x
    y = d1(i) * 0.5
    d2(i) = w(i) + y + w(i)
  end do
end subroutine

program m
  real :: a(8), b(8)
  do i = 1, 8
    a(i) = i + mynum
    b(i) = i * 3
  end do
  call f(8, a, a)
  call f(8, a, b)
end program
";
        fir::parse_validated(src).expect("legal: aliased actuals are the caller's business");
        let l = optimized(src);
        let f = (0..l.procs.len())
            .find(|&p| p != l.main)
            .expect("the subroutine");
        let [body] = blocks(&l, f)[..] else {
            panic!("the loop body is one block");
        };
        // d1(i): once before `d2(i) = …`, once after it (the store to `w`
        // in between does not count); w(i): once.
        assert_eq!(
            (count(&body.body, "Ld1 a0"), count(&body.body, "Ld1 a2")),
            (2, 1),
            "{body}"
        );
        assert_same_success(src);
    }

    /// A loop that runs no iteration runs its pre-header all the same, so
    /// only what cannot fail may sit there: `k / (1 - mynum)` is invariant
    /// but partial, stays in the body, and fires iff the loop runs.
    #[test]
    fn a_zero_trip_loop_runs_only_total_ops() {
        let program = |n: i64, stmt: &str| {
            format!(
                "program m\nreal :: a(4)\ninteger :: v(4)\nn = {n}\nk = 7\ny = 0.25\n\
                 do i = 1, n * np\n{stmt}\nend do\nv(2) = k\na(2) = y\nend program\n"
            )
        };
        // `x` is assigned in the loop, so `opt`'s own hoisting stops at
        // `sin(y) * 2.0`; the value `x` holds is invariant all the same.
        let hoistable = "x = sin(y) * 2.0\na(1) = x + k + i";
        let l = optimized(&program(0, hoistable));
        let body = blocks(&l, l.main)[1];
        assert_eq!(
            lines(&body.pre),
            ["r5 = I2F r4", "r6 = AddF r1 r5"],
            "{body}"
        );
        assert_same_success(&program(0, hoistable));
        assert_same_success(&program(1, hoistable));

        let partial = "v(1) = k / (1 - mynum) + i";
        let l = optimized(&program(0, partial));
        let body = blocks(&l, l.main)[1];
        assert_eq!(
            (count(&body.pre, "DivI"), count(&body.body, "DivI")),
            (0, 1),
            "{body}"
        );
        assert_same_success(&program(0, partial));
        let fast = run(&program(1, partial), true).expect_err("rank 1 divides by zero");
        assert_eq!(fast, (1, "interp: integer division by zero".to_string()));
        assert_eq!(
            run(&program(1, partial), false).expect_err("and so it does walked"),
            fast
        );

        // `abs` and unary minus overflow on i64::MIN (a panic in a debug
        // build), so they are partial too. (`m` is assigned in the loop, or
        // `opt`'s own hoisting, which counts both total, would take them.)
        let overflow = "m = k\nv(1) = abs(m) + i\nv(2) = -m";
        let min = program(0, overflow).replace("k = 7", "k = -9223372036854775807 - 1");
        let l = optimized(&min);
        let body = blocks(&l, l.main)[1];
        assert_eq!(lines(&body.pre), [] as [&str; 0], "{body}");
        assert_eq!(
            (count(&body.body, "AbsI"), count(&body.body, "NegI")),
            (1, 1),
            "{body}"
        );
        assert_same_success(&min);
    }

    /// Scalars across iterations: a swap (the write-backs form a cycle, so
    /// one goes through a register of its own), a slot read before it is
    /// written, and a copy of a slot that is then overwritten.
    #[test]
    fn written_scalars_carry_across_iterations() {
        let wrap = |body: &str| {
            format!(
                "program m\nreal :: v(8)\na = 1.5\nb = 2.5 + mynum\np = 1.0\n\
                 do i = 1, np * 2 + 1\n{body}\nend do\n\
                 v(6) = a\nv(7) = b\nv(8) = t\nend program\n"
            )
        };
        let swap = wrap("t = a\na = b\nb = t");
        let l = optimized(&swap);
        let body = blocks(&l, l.main)[1];
        assert_eq!(
            count(&body.body, "Mov"),
            4,
            "three write-backs, one routed:\n{body}"
        );
        assert_same_success(&swap);
        // (A procedure without arrays has no alias class to look up.)
        assert_same_success(
            "program m\ndo i = 1, np * 3\nk = k + i * i\nend do\ncall print(k)\nend program\n",
        );
        assert_same_success(&wrap("v(i) = p\np = p * 2.0 + a\na = a + 1.0"));
        assert_same_success(&wrap("t = a\na = a + b\nv(i) = t + a"));
        // `a`'s entry value is read after its final value is defined, so
        // the write-back stays a move; `p`'s folds into the multiply.
        let late = wrap("p = p * 2.0\na = p + 1.0\nt = a\na = b\nv(i) = p + t");
        let l = optimized(&late);
        let body = blocks(&l, l.main)[1];
        assert_eq!(count(&body.body, "Mov"), 1, "{body}");
        assert_same_success(&late);
    }

    /// More stores to one array than an epoch can count: loads simply stop
    /// being reused.
    #[test]
    fn a_saturated_store_epoch_stops_load_reuse() {
        for (stores, loads) in [(10, 3), (300, 4)] {
            let src = format!(
                "program m\nreal :: a(4)\n{}a(2) = a(1) + a(1)\na(1) = 5.0\n\
                 a(3) = a(1) + a(2)\nend program\n",
                "a(1) = 2.0\n".repeat(stores)
            );
            let l = optimized(&src);
            let [block] = blocks(&l, l.main)[..] else {
                panic!("one block");
            };
            assert_eq!(count(&block.body, "Ld1"), loads, "{stores} stores");
            assert_same_success(&src);
        }
    }

    /// A straight-line run with more live names than registers becomes
    /// several blocks; the split moves no clock and no value.
    #[test]
    fn register_pressure_splits_a_run() {
        let mut src = String::from("program m\nreal :: a(4)\n");
        for n in 0..300 {
            src.push_str(&format!("t{n} = {n} * 0.5 + mynum\n"));
        }
        src.push_str("a(1) = t7 + t150 + t299\nend program\n");
        let (blocks, walked) = shape(&src);
        assert_eq!(walked, 0);
        assert!(blocks.len() > 1, "{blocks:?}");
        assert_eq!(blocks.iter().sum::<usize>(), 301);
        assert_same_success(&src);
    }
}

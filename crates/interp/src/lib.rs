//! # interp — execute mini-Fortran programs on the simulated cluster
//!
//! The reproduction's stand-in for "compile with mpif90 and run on the
//! cluster": a tree-walking interpreter where every rank of a
//! [`clustersim::Cluster`] executes the same program (SPMD), with real data
//! movement through the simulated network. One run yields both
//!
//! - **correctness evidence** — final array contents per rank
//!   ([`RunResult::outputs`]), compared between original and transformed
//!   programs exactly like the paper's §4 evaluation compared program
//!   outputs; and
//! - **performance evidence** — the virtual-time [`clustersim::Report`]
//!   (makespan, compute/comm-CPU/blocked split) that regenerates Figure 1.
//!
//! Fortran semantics implemented: column-major arrays with declared bounds,
//! by-reference array arguments including *sequence association* for
//! section arguments (the indirect pattern's `call p(..., at(1, j))` needs
//! it), integer truncation on store, implicit typing for undeclared
//! scalars, and `do`-loop trip semantics with steps.

pub mod cost;
pub mod env;
mod exec;
mod lower;
mod machine;
mod opt;
mod reg;
pub mod run;
pub mod typeck;
pub mod value;

pub use cost::{CostModel, Options};
pub use typeck::analyze_types;
pub use run::{
    compile_program, run_program, run_program_opts, run_source, ArrayDump, CompiledProgram,
    RankOutput, RunError, RunResult,
};
pub use value::{ArrayStorage, Data, Scalar};

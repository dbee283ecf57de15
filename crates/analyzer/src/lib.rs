//! # analyzer — static verification of every program the pipeline emits
//!
//! The prepush transformation ([`compuniformer`]) is only correct when no
//! rank touches a buffer between the early `mpi_isend`/`mpi_irecv` and its
//! matching wait. Before this crate that obligation was enforced purely
//! dynamically — a differential test had to *execute* the hazard to see
//! it. This crate checks it statically, over the exact program text the
//! pipeline emits, and produces a machine-readable [`AnalysisReport`]:
//!
//! - **Communication safety** ([`comm`]): a rank-parametric abstract
//!   interpretation that, for each concrete rank, tracks the set of
//!   in-flight send/receive regions and flags
//!   - writes into a posted-but-unwaited `mpi_isend` buffer ([`Code::A003`]),
//!   - any access to a posted-but-unwaited `mpi_irecv` buffer
//!     ([`Code::A004`]),
//!   - sends/receives never matched by a wait on some control path
//!     ([`Code::A001`]/[`Code::A002`]/[`Code::A006`]), and
//!   - collectives that diverge across ranks ([`Code::A005`]).
//!
//! - **Type inference** ([`types`]): the slot-level monomorphic lattice
//!   (int / float / array-of / unknown) that [`interp`]'s optimizer
//!   compiles summarized blocks from: statically typed register code
//!   with no runtime value-tag dispatch. The lattice and the
//!   promotion rules live here; the traversal over lowered programs lives
//!   in `interp::typeck` (lowered IR is private to `interp`).
//!
//! Subscripts are evaluated over integer intervals ([`interval`]), reusing
//! [`depan`]'s affine machinery where subscripts are affine; loops that
//! contain communication are iterated concretely (their bounds are known
//! in emitted programs — `np` comes from the transformation context),
//! while pure-compute loops are summarized in one interval-typed walk.
//!
//! The crate is wired in three places: the `harness analyze` subcommand
//! (human + JSON diagnostics), the gate half of `core::transform` (an
//! emitted prepush program that fails verification is declined with
//! `Status::AnalysisRejected` — it cannot ship), and the verify.sh step
//! that analyzes the full registry × transform matrix. One verification
//! resolves names once (`resolve`) and walks the resolved tree per rank.

pub mod comm;
pub mod diag;
pub mod interval;
mod resolve;
pub mod types;

pub use comm::{verify_comm, CommCheckConfig};
pub use diag::{AnalysisReport, Code, Diagnostic};
pub use types::{binop_ty, intrinsic_ty, ProcTypes, Ty, TypeReport};

//! # compuniformer — the automated pre-push transformation
//!
//! This crate is the paper's contribution: a source-to-source transformer
//! (the authors call theirs the *Compuniformer*) that restructures MPI
//! programs of the shape
//!
//! ```text
//! do …                          ! ℓ: finalize every element of As
//!   As(…) = …
//! end do
//! call mpi_alltoall(As, count, Ar)   ! C: blocking, zero overlap
//! ```
//!
//! into a tiled form that *pre-pushes* each tile's finalized sub-blocks
//! with non-blocking sends while the CPU computes the next tile, following
//! the paper's pipeline:
//!
//! - [`opportunity`]: find `C`, `As`, `Ar` and the finalizing nest `ℓ`
//!   (§3.1), with user queries for opaque procedures (semi-automatic);
//! - [`pattern`]: classify the compute-copy pattern, *direct* vs
//!   *indirect* (§3.2);
//! - direct handling (§3.3) with output-dependence safety (`depan`) and
//!   partial-triplet regions; indirect handling (§3.4) removes the
//!   redundant copy loop and expands the temporary;
//! - [`commgen`]: the Figure-4 skewed exchange, owner-sends fallbacks, and
//!   loop interchange when the node loop is outermost (§3.5);
//! - [`transform`]: the 5-step rewrite (§3.6);
//! - [`kselect`]: the tile-size heuristic the paper delegates to [3].
//!
//! ```
//! use compuniformer::{transform, Options};
//!
//! let src = "\
//! program main
//!   real :: as(64, 4), ar(64, 4)
//!   do iy = 1, 64
//!     do iz = 1, 4
//!       as(iy, iz) = iy * iz
//!     end do
//!   end do
//!   call mpi_alltoall(as, 64, ar)
//! end program";
//! let program = fir::parse(src).unwrap();
//! let opts = Options {
//!     tile_size: Some(16),
//!     // The analysis context supplies what static analysis cannot prove
//!     // symbolically here: the run uses 4 ranks.
//!     context: depan::Context::new().with("np", 4),
//!     ..Default::default()
//! };
//! let out = transform(&program, &opts).unwrap();
//! let text = fir::unparse(&out.program);
//! assert!(text.contains("mpi_isend"));
//! assert!(!text.contains("mpi_alltoall"));
//! ```

pub mod commgen;
pub mod kselect;
pub mod opportunity;
pub mod pattern;
pub mod report;
pub mod transform;

pub use opportunity::{find_opportunities, Opportunity, UserOracle, UserQuery};
pub use pattern::{classify, Pattern};
pub use report::{OppOutcome, Status, Strategy, TransformReport};
pub use transform::{emit, gate, transform, Options, TransformError, TransformOutput};

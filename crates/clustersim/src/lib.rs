//! # clustersim — a deterministic virtual-time cluster simulator
//!
//! The reproduction's stand-in for the paper's evaluation platform: a
//! cluster of workstations running MPICH over Ethernet/TCP or MPICH-GM over
//! Myrinet (with RDMA). Since the 2005 testbed is unavailable (repro band
//! 2/5), we simulate the *mechanism* that produces Figure 1's effect: an
//! RDMA NIC progresses transfers without host CPU involvement, a TCP stack
//! burns CPU on every byte.
//!
//! - Each rank owns a virtual clock. Production runs ranks as resumable
//!   state machines ([`Cluster::run_resumable`]) stepped by a bounded set
//!   of pool workers — `min(np, cores)` by default — so np is not a thread
//!   count; [`Cluster::run`] (one pooled OS thread per rank, as in the
//!   example below) is the reference engine the differential suites compare
//!   against.
//! - Real payloads move between ranks, so the interpreter on top validates
//!   program *correctness* and *performance* in a single run.
//! - The timing model is LogGP extended with per-byte CPU involvement (β):
//!   see [`model::NetworkModel`]. Determinism is by construction: see
//!   `state.rs`.
//!
//! ```
//! use clustersim::{Cluster, NetworkModel};
//! use bytes::Bytes;
//!
//! let cluster = Cluster::new(2, NetworkModel::mpich_gm());
//! let out = cluster.run(|comm| {
//!     if comm.rank() == 0 {
//!         comm.isend(1, 0, Bytes::from(vec![7u8; 64]));
//!         comm.wait_all();
//!     } else {
//!         let id = comm.irecv(0, 0);
//!         assert_eq!(comm.wait_recv(id)[0], 7);
//!     }
//! }).unwrap();
//! assert!(out.report.makespan() > clustersim::SimTime::ZERO);
//! ```

pub mod cluster;
pub mod comm;
pub mod message;
pub mod model;
pub mod pool;
mod sched;
mod state;
pub mod stats;
pub mod time;
pub mod trace;

pub use cluster::{Cluster, RankMachine, RunOutput, SimError, Step};
pub use pool::PoolStats;
pub use comm::{Comm, RecvId};
pub use model::{HeteroProfile, NetModel, NetworkModel};
pub use stats::{RankStats, Report};
pub use time::SimTime;
pub use trace::{Event, EventKind, Trace};

// Re-export so dependents spell payloads consistently.
pub use bytes;
pub use bytes::Bytes;

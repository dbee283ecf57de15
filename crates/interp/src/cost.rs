//! Computation cost model and interpreter options.

/// Virtual CPU cost charged while interpreting computation. The absolute
/// values are arbitrary (a 2005-era ~1 GFLOP/s node ≈ 1 ns per scalar op);
/// only the *ratio* of compute cost to the network model's costs shapes the
//  results, and the benchmark harness sweeps that ratio explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Per expression node evaluated (literals, variables, operators…).
    pub ns_per_op: f64,
    /// Per statement dispatched (assignment bookkeeping, branch, loop step).
    pub ns_per_stmt: f64,
    /// Per user-procedure call (frame setup).
    pub ns_per_call: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ns_per_op: 1.0,
            ns_per_stmt: 2.0,
            ns_per_call: 50.0,
        }
    }
}

impl CostModel {
    /// Scale all computation costs by `factor` (ablation knob: a faster CPU
    /// leaves less computation to hide communication behind).
    pub fn scaled(&self, factor: f64) -> CostModel {
        CostModel {
            ns_per_op: self.ns_per_op * factor,
            ns_per_stmt: self.ns_per_stmt * factor,
            ns_per_call: self.ns_per_call * factor,
        }
    }
}

/// Interpreter options.
#[derive(Debug, Clone)]
pub struct Options {
    pub cost: CostModel,
    /// Detect writes to array regions that a still-in-flight `mpi_isend`
    /// may not have drained yet (an MPI correctness hazard the indirect
    /// pattern's buffer expansion exists to avoid — paper §3.4).
    pub detect_buffer_reuse: bool,
    /// Record a full event trace.
    pub trace: bool,
    /// Run the [`crate::opt`] pass over the lowered program
    /// (constant folding, loop-invariant hoisting, block-summarized cost
    /// accounting). On by default; virtual times, stats, outputs, and
    /// traces are byte-identical either way (pinned by the differential
    /// suites) — turning it off only slows the simulation down.
    pub optimize: bool,
    /// Execute ranks as resumable state machines on a bounded worker set
    /// ([`crate::machine`]) instead of parking one OS thread per rank. On
    /// by default; virtual times, stats, outputs, and traces are
    /// byte-identical either way (pinned by the differential suites;
    /// argument in DESIGN.md §3) — the switch exists so those suites can
    /// prove it, mirroring `optimize`.
    pub resumable: bool,
    /// Worker threads driving the resumable engine; `None` means
    /// `min(np, available cores)`. A host-side throughput knob only —
    /// any value yields byte-identical results.
    pub rank_workers: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cost: CostModel::default(),
            detect_buffer_reuse: false,
            trace: false,
            optimize: true,
            resumable: true,
            rank_workers: None,
        }
    }
}

impl Options {
    pub fn strict() -> Options {
        Options {
            detect_buffer_reuse: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = CostModel::default();
        assert!(c.ns_per_op > 0.0);
        assert!(c.ns_per_call > c.ns_per_stmt);
    }

    #[test]
    fn scaling() {
        let c = CostModel::default().scaled(10.0);
        assert_eq!(c.ns_per_op, 10.0);
        assert_eq!(c.ns_per_stmt, 20.0);
    }

    #[test]
    fn strict_enables_detection() {
        assert!(Options::strict().detect_buffer_reuse);
        assert!(!Options::default().detect_buffer_reuse);
    }
}

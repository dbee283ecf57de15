//! Top-level entry points: validate a program, run it on a simulated
//! cluster, and collect per-rank outputs for equivalence checking.

use crate::cost::Options;
use crate::exec::{Interp, LFrame};
use crate::lower::{LProc, LProgram};
use crate::machine::Machine;
use crate::value::Data;
use clustersim::{Cluster, NetworkModel, Report, SimError, Trace};
use fir::ast::Program;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Final contents of one array (for output comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDump {
    pub bounds: Vec<(i64, i64)>,
    pub data: Data,
}

/// Everything one rank produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutput {
    /// Final state of every array in the main program, by name.
    pub arrays: BTreeMap<String, ArrayDump>,
    /// Lines produced by the `print` builtin.
    pub prints: Vec<String>,
}

/// Result of a full simulated run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-rank outputs, indexed by rank.
    pub outputs: Vec<RankOutput>,
    pub report: Report,
    pub trace: Option<Trace>,
}

/// Errors from [`run_program`].
#[derive(Debug)]
pub enum RunError {
    /// The program failed validation.
    Invalid(fir::Errors),
    /// A rank failed at runtime (bounds, MPI misuse, deadlock…).
    Sim(SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Invalid(e) => write!(f, "validation failed: {e}"),
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Validate and run `program` on `np` simulated ranks with default options.
pub fn run_program(
    program: &Program,
    np: usize,
    model: &NetworkModel,
) -> Result<RunResult, RunError> {
    run_program_opts(program, np, model, &Options::default())
}

/// Validate and run with explicit [`Options`].
pub fn run_program_opts(
    program: &Program,
    np: usize,
    model: &NetworkModel,
    opts: &Options,
) -> Result<RunResult, RunError> {
    compile_program(program, opts)?.run(np, model)
}

/// An immutable compiled program: validated, lowered to frame slots, and
/// (per the compile-time [`Options`]) optimized. The payload is
/// `Arc`-shared, so cloning a handle is cheap and a single compilation
/// can back every rank of every scenario that shares the same
/// compilation inputs — the cross-scenario hop of the same sharing
/// the ranks of one run already relied on. Handles are `Send + Sync`;
/// executing one never mutates it.
#[derive(Clone)]
pub struct CompiledProgram {
    lowered: Arc<LProgram>,
    /// The options the program was compiled under. Cost constants and the
    /// optimize switch are *baked in* at compile time (block charges are
    /// precomputed), so runs reuse the same options rather than accepting
    /// fresh ones that could disagree with the baked state.
    opts: Options,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("procs", &self.lowered.procs.len())
            .field("opts", &self.opts)
            .finish()
    }
}

/// Validate `program` and compile it once: lower names to frame slots,
/// then (if `opts.optimize`) fold/unroll/hoist and summarize block costs.
/// The returned handle can be [run](CompiledProgram::run) any number of
/// times, on any `np` and any network model, with results byte-identical
/// to [`run_program_opts`] on the same inputs — compilation is a pure
/// function of (program, options) and execution never mutates the
/// compiled form.
pub fn compile_program(program: &Program, opts: &Options) -> Result<CompiledProgram, RunError> {
    fir::validate::validate(program).map_err(RunError::Invalid)?;
    Ok(compile_unchecked(program, opts))
}

/// Compilation proper, of a program the caller vouches for (the unit tests
/// of the executor's validation-gap paths pass unvalidated ones).
pub(crate) fn compile_unchecked(program: &Program, opts: &Options) -> CompiledProgram {
    // Resolve names to frame slots once; all ranks (and, via the sweep
    // compilation cache, all scenarios of a grid sharing this shape)
    // share the lowered program read-only.
    let mut lowered = crate::lower::lower(program);
    if opts.optimize {
        // Constant folding, loop-invariant hoisting, block-summarized
        // cost accounting — virtual times stay byte-identical (see
        // `opt`'s module docs and DESIGN.md §S3).
        crate::opt::optimize(&mut lowered, opts);
    }
    CompiledProgram {
        lowered: Arc::new(lowered),
        opts: opts.clone(),
    }
}

impl CompiledProgram {
    /// The options this program was compiled under (and will run under).
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Are the two handles one compilation (clones of one handle)?
    pub fn ptr_eq(&self, other: &CompiledProgram) -> bool {
        Arc::ptr_eq(&self.lowered, &other.lowered)
    }

    /// Run the compiled program on `np` simulated ranks. Repeated runs
    /// are independent and deterministic: virtual times, stats, outputs,
    /// and traces depend only on (compiled program, np, model).
    pub fn run(&self, np: usize, model: &NetworkModel) -> Result<RunResult, RunError> {
        let opts = &self.opts;
        let lowered: &LProgram = &self.lowered;
        let mut cluster = Cluster::new(np, model.clone());
        if opts.trace {
            cluster = cluster.traced();
        }
        let out = if opts.resumable {
            // Resumable engine: ranks are state machines driven by a bounded
            // worker set; any np runs on a fixed thread count.
            cluster.run_resumable(opts.rank_workers, |_| Machine::new(lowered, opts))?
        } else {
            // Thread-per-rank reference engine: byte-identical results
            // (pinned by tests/resumable_differential.rs).
            cluster.run(|comm| {
                let mut interp = Interp::new(lowered, opts);
                let (final_frame, main) = interp.run_main(comm);
                rank_output(&final_frame, main, std::mem::take(&mut interp.prints))
            })?
        };

        Ok(RunResult {
            outputs: out.results,
            report: out.report,
            trace: out.trace,
        })
    }
}

/// Dump one rank's final state, shared by both engines.
pub(crate) fn rank_output(frame: &LFrame, main: &LProc, prints: Vec<String>) -> RankOutput {
    let mut arrays = BTreeMap::new();
    for (name, binding) in frame.arrays(main) {
        let st = binding.handle.storage.borrow();
        arrays.insert(
            name.clone(),
            ArrayDump {
                bounds: binding.bounds().to_vec(),
                data: st.data.clone(),
            },
        );
    }
    RankOutput { arrays, prints }
}

/// Convenience for tests: parse, validate, run.
pub fn run_source(
    src: &str,
    np: usize,
    model: &NetworkModel,
) -> Result<RunResult, RunError> {
    let program = fir::parse(src).map_err(|e| RunError::Invalid(fir::Errors::single(e)))?;
    run_program(&program, np, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Scalar;

    fn gm() -> NetworkModel {
        NetworkModel::mpich_gm()
    }

    fn real_at(out: &RankOutput, array: &str, flat: usize) -> f64 {
        match &out.arrays[array].data {
            Data::Real(v) => v[flat],
            Data::Int(_) => panic!("expected real array"),
        }
    }

    fn int_at(out: &RankOutput, array: &str, flat: usize) -> i64 {
        match &out.arrays[array].data {
            Data::Int(v) => v[flat],
            Data::Real(_) => panic!("expected integer array"),
        }
    }

    #[test]
    fn sequential_kernel_computes() {
        let src = "\
program m
  real :: a(4)
  do i = 1, 4
    a(i) = i * 2 + 1
  end do
end program";
        let r = run_source(src, 1, &gm()).unwrap();
        assert_eq!(real_at(&r.outputs[0], "a", 0), 3.0);
        assert_eq!(real_at(&r.outputs[0], "a", 3), 9.0);
        assert!(r.report.per_rank[0].compute > clustersim::SimTime::ZERO);
    }

    #[test]
    fn integer_truncation_on_store() {
        let src = "\
program m
  integer :: a(2)
  a(1) = 7 / 2
  a(2) = int(3.9)
end program";
        let r = run_source(src, 1, &gm()).unwrap();
        assert_eq!(int_at(&r.outputs[0], "a", 0), 3);
        assert_eq!(int_at(&r.outputs[0], "a", 1), 3);
    }

    #[test]
    fn mynum_and_np_available() {
        let src = "\
program m
  integer :: a(2)
  a(1) = mynum
  a(2) = np
end program";
        let r = run_source(src, 3, &gm()).unwrap();
        for (rank, out) in r.outputs.iter().enumerate() {
            assert_eq!(int_at(out, "a", 0), rank as i64);
            assert_eq!(int_at(out, "a", 1), 3);
        }
    }

    #[test]
    fn if_and_loops_with_step() {
        let src = "\
program m
  integer :: a(10)
  do i = 1, 10, 3
    a(i) = 1
  end do
  if (a(4) == 1 .and. a(5) == 0) then
    a(10) = 42
  end if
end program";
        let r = run_source(src, 1, &gm()).unwrap();
        assert_eq!(int_at(&r.outputs[0], "a", 9), 42);
    }

    #[test]
    fn user_procedure_by_reference_arrays() {
        let src = "\
subroutine fill(n, at)
  integer :: n
  real :: at(n)
  do i = 1, n
    at(i) = i * 10
  end do
end subroutine

program m
  real :: buf(6)
  call fill(6, buf)
end program";
        let r = run_source(src, 1, &gm()).unwrap();
        assert_eq!(real_at(&r.outputs[0], "buf", 5), 60.0);
    }

    #[test]
    fn sequence_association_window() {
        // Pass a column of a 2-D array; callee sees a 1-D array of 3.
        let src = "\
subroutine fill3(at)
  real :: at(3)
  do i = 1, 3
    at(i) = i
  end do
end subroutine

program m
  real :: grid(3, 2)
  call fill3(grid(:, 2))
end program";
        let r = run_source(src, 1, &gm()).unwrap();
        // Column 2 occupies flat 3..6.
        assert_eq!(real_at(&r.outputs[0], "grid", 3), 1.0);
        assert_eq!(real_at(&r.outputs[0], "grid", 5), 3.0);
        assert_eq!(real_at(&r.outputs[0], "grid", 0), 0.0);
    }

    #[test]
    fn alltoall_moves_data() {
        let src = "\
program m
  integer :: s(4), r(4)
  do i = 1, 4
    s(i) = mynum * 100 + i
  end do
  call mpi_alltoall(s, 2, r)
end program";
        let out = run_source(src, 2, &gm()).unwrap();
        // Rank 1 receives rank 0's second block [3, 4]... r = [s0(3..4)? ]
        // count=2: rank r gets from src s elements s*100 + (r*2+1, r*2+2).
        assert_eq!(int_at(&out.outputs[1], "r", 0), 3);
        assert_eq!(int_at(&out.outputs[1], "r", 1), 4);
        assert_eq!(int_at(&out.outputs[1], "r", 2), 103);
        assert_eq!(int_at(&out.outputs[1], "r", 3), 104);
        assert_eq!(int_at(&out.outputs[0], "r", 2), 101);
    }

    #[test]
    fn isend_irecv_roundtrip_with_sections() {
        let src = "\
program m
  real :: s(8), r(8)
  do i = 1, 8
    s(i) = mynum + i * 0.5
  end do
  if (mynum == 0) then
    call mpi_isend(s(3:6), 4, 1, 7)
    call mpi_irecv(r(1:4), 4, 1, 9)
  else
    call mpi_isend(s(1:4), 4, 0, 9)
    call mpi_irecv(r(5:8), 4, 0, 7)
  end if
  call mpi_waitall()
end program";
        let out = run_source(src, 2, &gm()).unwrap();
        // Rank 1 received rank 0's s(3:6) = 1.5, 2.0, 2.5, 3.0 into r(5:8).
        assert_eq!(real_at(&out.outputs[1], "r", 4), 1.5);
        assert_eq!(real_at(&out.outputs[1], "r", 7), 3.0);
        // Rank 0 received rank 1's s(1:4) = 1.5, 2.0, 2.5, 3.0 into r(1:4).
        assert_eq!(real_at(&out.outputs[0], "r", 0), 1.5);
    }

    #[test]
    fn print_captured_per_rank() {
        let src = "\
program m
  call print(mynum, 2 + 2)
end program";
        let r = run_source(src, 2, &gm()).unwrap();
        assert_eq!(r.outputs[0].prints, vec!["0 4"]);
        assert_eq!(r.outputs[1].prints, vec!["1 4"]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let src = "\
program m
  real :: a(4)
  a(5) = 1
end program";
        let err = run_source(src, 1, &gm()).unwrap_err();
        match err {
            RunError::Sim(SimError::RankPanic { message, .. }) => {
                assert!(message.contains("out of bounds"), "{message}");
            }
            other => panic!("expected rank panic, got {other:?}"),
        }
    }

    #[test]
    fn non_contiguous_section_rejected() {
        let src = "\
program m
  real :: a(4, 4)
  call mpi_isend(a(1:2, 1:2), 4, 1, 0)
end program";
        let err = run_source(src, 2, &gm()).unwrap_err();
        match err {
            RunError::Sim(SimError::RankPanic { message, .. }) => {
                assert!(message.contains("not contiguous"), "{message}");
            }
            other => panic!("expected rank panic, got {other:?}"),
        }
    }

    #[test]
    fn validation_failure_surfaces() {
        let err = run_source("program m\n  np = 3\nend program", 1, &gm()).unwrap_err();
        assert!(matches!(err, RunError::Invalid(_)));
    }

    #[test]
    fn buffer_reuse_detected_when_enabled() {
        // Overwrite the sent region immediately after isend, before any
        // wait: a classic MPI bug the indirect-pattern expansion avoids.
        let src = "\
program m
  real :: s(1024)
  do i = 1, 1024
    s(i) = i
  end do
  if (mynum == 0) then
    call mpi_isend(s(1:1024), 1024, 1, 0)
    s(1) = -1
    call mpi_waitall()
  else
    call mpi_irecv(s(1:1024), 1024, 0, 0)
    call mpi_waitall()
  end if
end program";
        let program = fir::parse(src).unwrap();
        let err =
            run_program_opts(&program, 2, &gm(), &Options::strict()).unwrap_err();
        match err {
            RunError::Sim(SimError::RankPanic { message, rank }) => {
                assert_eq!(rank, 0);
                assert!(message.contains("buffer-reuse hazard"), "{message}");
            }
            other => panic!("expected rank panic, got {other:?}"),
        }
        // Default options tolerate it (snapshot-at-send semantics).
        assert!(run_program_opts(&program, 2, &gm(), &Options::default()).is_ok());
    }

    #[test]
    fn deterministic_outputs_and_times() {
        let src = "\
program m
  real :: s(16), r(16)
  do i = 1, 16
    s(i) = mynum * 16 + i
  end do
  call mpi_alltoall(s, 4, r)
  do i = 1, 16
    s(i) = r(i) * 2
  end do
end program";
        let a = run_source(src, 4, &gm()).unwrap();
        let b = run_source(src, 4, &gm()).unwrap();
        assert_eq!(a.outputs, b.outputs);
        let ta: Vec<_> = a.report.per_rank.iter().map(|r| r.finish).collect();
        let tb: Vec<_> = b.report.per_rank.iter().map(|r| r.finish).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn compiled_program_reruns_byte_identically() {
        // One compilation handle, many runs, across np and models —
        // everything must match the compile-each-time path exactly.
        let src = "\
program m
  real :: s(16), r(16)
  do i = 1, 16
    s(i) = mynum * 16 + i
  end do
  call mpi_alltoall(s, 4, r)
  do i = 1, 16
    s(i) = r(i) * 2
  end do
end program";
        let program = fir::parse(src).unwrap();
        let opts = Options::default();
        let compiled = compile_program(&program, &opts).unwrap();
        let cloned = compiled.clone(); // cheap Arc clone, same payload
        for np in [2usize, 4] {
            for model in [NetworkModel::mpich(), NetworkModel::mpich_gm()] {
                let fresh = run_program_opts(&program, np, &model, &opts).unwrap();
                let a = compiled.run(np, &model).unwrap();
                let b = cloned.run(np, &model).unwrap();
                assert_eq!(a.outputs, fresh.outputs);
                assert_eq!(b.outputs, fresh.outputs);
                let t = |r: &RunResult| -> Vec<_> {
                    r.report.per_rank.iter().map(|p| p.finish).collect()
                };
                assert_eq!(t(&a), t(&fresh));
                assert_eq!(t(&b), t(&fresh));
            }
        }
        assert!(compiled.options().optimize);
    }

    #[test]
    fn compile_rejects_invalid_programs() {
        let program = fir::parse("program m\n  np = 3\nend program").unwrap();
        assert!(matches!(
            compile_program(&program, &Options::default()),
            Err(RunError::Invalid(_))
        ));
    }

    #[test]
    fn compiled_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledProgram>();
    }

    #[test]
    fn scalar_zero_initialization() {
        let src = "\
program m
  integer :: n
  integer :: a(1)
  a(1) = n + undeclared_int_j
end program";
        let r = run_source(src, 1, &gm()).unwrap();
        // Both default to 0 — wait, `undeclared_int_j` starts with 'u',
        // implicit REAL, so the sum promotes and truncates back on store.
        assert_eq!(int_at(&r.outputs[0], "a", 0), 0);
        let _ = Scalar::Int(0);
    }
}

//! The static analyzer's external contract:
//!
//! 1. the hand-broken negative corpus is rejected with its *pinned*
//!    diagnostic codes (golden — the codes are part of the tool's
//!    interface, scripts grep for them);
//! 2. every program the pipeline emits — registry × rank counts ×
//!    original/pre-push — verifies clean;
//! 3. the typed-chain specialization is invisible: virtual times,
//!    per-rank stats, and outputs are byte-identical with it on or off.

use overlap_suite::analyze::{verify_comm, CommCheckConfig};
use overlap_suite::sweep::{analyze_registry, ModelSpec};
use proptest::prelude::*;
use workloads::SizeClass;

#[test]
fn negative_corpus_is_rejected_with_pinned_codes() {
    for np in [2usize, 4, 8] {
        for case in workloads::negative::analyzer_cases(np) {
            let program = fir::parse_validated(&case.source).unwrap_or_else(|e| {
                panic!("case `{}` must parse: {}", case.name, e.render(&case.source))
            });
            let report = verify_comm(&program, &CommCheckConfig::new(np as i64));
            assert!(
                !report.is_clean(),
                "case `{}` (np={np}) must be rejected",
                case.name
            );
            let codes: Vec<&str> = report
                .diagnostics
                .iter()
                .map(|d| d.code.as_str())
                .collect();
            assert!(
                codes.iter().all(|c| *c == case.expect_code),
                "case `{}` (np={np}) must pin {}, got {:?}:\n{}",
                case.name,
                case.expect_code,
                codes,
                report.render_human(&case.source)
            );
        }
    }
}

#[test]
fn negative_corpus_diagnostics_name_the_offending_line() {
    // Rendering must point into the *case's own source* — a span of 0..0
    // (or one past the end) would mean the analyzer lost provenance.
    for case in workloads::negative::analyzer_cases(4) {
        let program = fir::parse_validated(&case.source).unwrap();
        let report = verify_comm(&program, &CommCheckConfig::new(4));
        for d in &report.diagnostics {
            assert!(
                d.span.end > d.span.start && d.span.end as usize <= case.source.len(),
                "case `{}`: diagnostic span {:?} does not point into the source",
                case.name,
                d.span
            );
        }
        let rendered = report.render_human(&case.source);
        assert!(
            rendered.contains(case.expect_code),
            "case `{}`: rendering must show the code:\n{rendered}",
            case.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Every program the pipeline emits is analyzer-clean: all registry
    /// workloads, original and pre-push, under every preset model, across
    /// sampled rank counts.
    #[test]
    fn emitted_programs_are_analyzer_clean(np in prop::sample::select(vec![2usize, 4, 8])) {
        for row in analyze_registry(SizeClass::Small, np, &ModelSpec::presets()) {
            prop_assert!(
                row.is_clean(),
                "{} has diagnostics:\n{}",
                row.label(),
                row.report.render_human(&row.source)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Typed chains are a pure dispatch optimization: turning them off
    /// changes nothing observable — same outputs, same per-rank virtual
    /// times, same stats — on original and pre-push programs alike.
    #[test]
    fn typed_chains_are_byte_identical(
        idx in 0usize..8,
        np in prop::sample::select(vec![2usize, 4]),
        prepush in any::<bool>(),
    ) {
        let entry = &workloads::registry()[idx];
        let w = (entry.make)(SizeClass::Small, np);
        let model = clustersim::NetworkModel::mpich_gm();
        let program = if prepush {
            overlap_suite::sweep::transform_workload(w.as_ref(), &model, None).program
        } else {
            w.program()
        };

        let on = interp::Options {
            typed_chains: true,
            ..Default::default()
        };
        let off = interp::Options {
            typed_chains: false,
            ..on.clone()
        };

        let a = interp::run_program_opts(&program, np, &model, &on).unwrap();
        let b = interp::run_program_opts(&program, np, &model, &off).unwrap();
        prop_assert_eq!(&a.outputs, &b.outputs, "{} outputs differ", entry.name);
        prop_assert_eq!(
            &a.report.per_rank, &b.report.per_rank,
            "{} virtual-time stats differ", entry.name
        );
    }
}

/// The step budget: the rank that exhausts it files exactly one A007 at
/// the statement it stopped on, and its partial collective trace stays
/// out of the cross-rank comparison (rank 0 never reached the barrier —
/// comparing it would report a deadlock that is not there).
#[test]
fn budget_exhaustion_is_one_a007_and_excludes_the_rank_from_a005() {
    let source = "program m\n\
                  integer :: k\n\
                  if (mynum == 0) then\n\
                  k = 1\n\
                  k = 2\n\
                  k = 3\n\
                  end if\n\
                  call mpi_barrier()\n\
                  end program\n";
    let program = fir::parse_validated(source).unwrap();
    let mut cfg = CommCheckConfig::new(4);
    cfg.budget = 3; // ranks 1..3 take two steps; rank 0 needs five
    let report = verify_comm(&program, &cfg);
    assert_eq!(report.ranks_checked, vec![0, 1, 2, 3]);
    assert_eq!(
        report.diagnostics.len(),
        1,
        "{}",
        report.render_human(source)
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.code.as_str(), "A007");
    assert_eq!(d.ranks, vec![0]);
    assert_eq!(d.span.snippet(source), "k = 3");
    assert_eq!(
        d.message,
        "analysis budget (3 abstract steps) exhausted on rank 0"
    );

    // One step more and rank 0 completes: nothing to report.
    cfg.budget = 5;
    assert!(verify_comm(&program, &cfg).is_clean());
}

/// The gate half of `compuniformer::transform`, on a real emission: a
/// clean one passes through untouched; one whose final `mpi_waitall` was
/// deleted is withdrawn — the original program ships, and every site that
/// had been applied carries the verifier's lines instead of a strategy.
#[test]
fn gate_passes_a_clean_emission_and_withdraws_a_broken_one() {
    use compuniformer::{emit, gate, Options, Status, TransformOutput};
    use workloads::Workload;

    let w = workloads::direct2d::Direct2d::small(4);
    let original = w.program();
    let opts = Options {
        context: w.context(),
        apply_even_if_unprofitable: true,
        ..Default::default()
    };
    let emitted = emit(&original, &opts).expect("direct2d transforms");
    let applied: Vec<bool> = emitted.report.opportunities.iter().map(|o| o.applied()).collect();
    assert!(applied.contains(&true));
    let emitted_text = fir::unparse(&emitted.program);

    let clean = gate(
        &original,
        TransformOutput {
            program: emitted.program.clone(),
            report: emitted.report.clone(),
        },
        &opts.context,
    );
    assert_eq!(fir::unparse(&clean.program), emitted_text);
    assert_eq!(
        format!("{:?}", clean.report),
        format!("{:?}", emitted.report),
        "a clean emission comes back untouched"
    );

    let lines: Vec<&str> = emitted_text.lines().collect();
    let last_wait = lines
        .iter()
        .rposition(|l| l.trim() == "call mpi_waitall()")
        .expect("the emission ends its exchange with a wait");
    let broken_text: String = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != last_wait)
        .flat_map(|(_, l)| [*l, "\n"])
        .collect();
    let broken = TransformOutput {
        program: fir::parse_validated(&broken_text).expect("still a valid program"),
        report: emitted.report.clone(),
    };

    let withdrawn = gate(&original, broken, &opts.context);
    assert_eq!(withdrawn.program, original, "the original program ships");
    assert_eq!(withdrawn.report.applied_count(), 0);
    for (o, was_applied) in withdrawn.report.opportunities.iter().zip(applied) {
        if !was_applied {
            continue;
        }
        let Status::AnalysisRejected(diags) = &o.status else {
            panic!("applied site must be withdrawn, got {:?}", o.status);
        };
        assert!(
            diags.iter().any(|d| d.starts_with("A001: ")),
            "the unwaited sends must be named: {diags:?}"
        );
        assert_eq!((o.strategy, o.tile_size), (None, None));
    }
}

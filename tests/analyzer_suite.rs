//! The static analyzer's external contract:
//!
//! 1. the hand-broken negative corpus is rejected with its *pinned*
//!    diagnostic codes (golden — the codes are part of the tool's
//!    interface, scripts grep for them);
//! 2. every program the pipeline emits — registry × rank counts ×
//!    original/pre-push — verifies clean;
//! 3. the typed register code is invisible: on generated typed loop
//!    nests, outputs (reals by bits), per-rank stats and prints are
//!    identical between `optimize: true` and the plain tree walk.

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

/// A generated expression: its source text and whether it is real-typed
/// (the generator tracks types so that subscripts, `mod` arguments and
/// integer divisors stay valid and error-free).
#[derive(Debug, Clone)]
struct GenExpr {
    src: String,
    real: bool,
}

/// Extent of every generated array dimension; loop trips stay below it.
const GEN_N: i64 = 40;

fn gen_expr(src: impl Into<String>, real: bool) -> GenExpr {
    GenExpr {
        src: src.into(),
        real,
    }
}

/// A real `e` clamped (NaN included) before anything converts it to an
/// integer: a saturated `i64::MIN` would make a later `-` or `abs` an
/// overflow panic in both evaluators alike.
fn gen_clamped(e: &GenExpr) -> String {
    if e.real {
        format!("min(max({}, -1000.0), 1000.0)", e.src)
    } else {
        e.src.clone()
    }
}

/// `e` as an integer expression.
fn gen_int(e: &GenExpr) -> String {
    if e.real {
        format!("int({})", gen_clamped(e))
    } else {
        e.src.clone()
    }
}

/// `e` as an in-bounds subscript: literal, loop variable, or folded into
/// `1..=GEN_N`.
fn gen_subscript(e: &GenExpr) -> String {
    format!("(mod(abs({}), {GEN_N}) + 1)", gen_int(e))
}

/// `e` as a strictly positive integer (divisors, `mod` moduli).
fn gen_positive(e: &GenExpr) -> String {
    format!("(mod(abs({}), 7) + 1)", gen_int(e))
}

fn gen_leaf() -> BoxedStrategy<GenExpr> {
    let sub = || {
        prop_oneof![
            (1..=GEN_N).prop_map(|v| v.to_string()),
            Just("i".to_string()),
            Just("j".to_string()),
            // Always 3, but only at run time: subscript arithmetic on
            // registers, in bounds whatever `k` has become.
            Just("(mod(k + i, 40) * 0 + 3)".to_string()),
        ]
    };
    prop_oneof![
        (-3i64..=9).prop_map(|v| gen_expr(format!("({v})"), false)),
        prop::sample::select(vec!["0.0", "0.5", "1.25", "(-2.5)", "3.0"])
            .prop_map(|v| gen_expr(v, true)),
        prop::sample::select(vec!["i", "j", "k", "m", "mynum", "np"])
            .prop_map(|v| gen_expr(v, false)),
        prop::sample::select(vec!["x", "t"]).prop_map(|v| gen_expr(v, true)),
        sub().prop_map(|s| gen_expr(format!("ia({s})"), false)),
        sub().prop_map(|s| gen_expr(format!("ra({s})"), true)),
        (sub(), sub()).prop_map(|(a, b)| gen_expr(format!("ib({a}, {b})"), false)),
        (sub(), sub()).prop_map(|(a, b)| gen_expr(format!("rb({a}, {b})"), true)),
    ]
    .boxed()
}

fn gen_expression() -> BoxedStrategy<GenExpr> {
    gen_leaf().prop_recursive(3, 24, 3, |inner| {
        let binops = vec![
            "+", "-", "*", "/", "**", "==", "/=", "<", "<=", ">", ">=", ".and.", ".or.",
        ];
        let unary = vec![
            "-", ".not.", "abs", "sqrt", "sin", "cos", "exp", "log", "floor", "int", "real",
        ];
        prop_oneof![
            (inner.clone(), inner.clone(), prop::sample::select(binops)).prop_map(
                |(a, b, op)| {
                    let both_int = !a.real && !b.real;
                    let rhs = match op {
                        // Integer division by zero and `0 ** -n` are runtime
                        // errors; the error table test owns those.
                        "/" if both_int => gen_positive(&b),
                        "**" if both_int => "2".to_string(),
                        _ => b.src.clone(),
                    };
                    let real = matches!(op, "+" | "-" | "*" | "/" | "**") && !both_int;
                    gen_expr(format!("({} {op} {rhs})", a.src), real)
                }
            ),
            (inner.clone(), prop::sample::select(unary)).prop_map(|(a, op)| match op {
                "-" | ".not." => gen_expr(format!("({op} {})", a.src), op == "-" && a.real),
                "abs" => gen_expr(format!("abs({})", a.src), a.real),
                "floor" | "int" => gen_expr(format!("{op}({})", gen_clamped(&a)), false),
                _ => gen_expr(format!("{op}({})", a.src), true),
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| gen_expr(
                format!("mod({}, {})", gen_int(&a), gen_positive(&b)),
                false
            )),
            (
                inner.clone(),
                inner.clone(),
                inner.clone(),
                any::<bool>(),
                any::<bool>()
            )
                .prop_map(|(a, b, c, is_min, three)| {
                    let f = if is_min { "min" } else { "max" };
                    if three {
                        let real = a.real || b.real || c.real;
                        gen_expr(format!("{f}({}, {}, {})", a.src, b.src, c.src), real)
                    } else {
                        gen_expr(format!("{f}({}, {})", a.src, b.src), a.real || b.real)
                    }
                }),
            // The same subtree twice: what the value numbering reuses.
            (inner.clone(), prop::sample::select(vec!["+", "*", "-"]))
                .prop_map(|(a, op)| gen_expr(format!("({0} {op} {0})", a.src), a.real)),
            inner.clone().prop_map(|a| gen_expr(format!("ia({})", gen_subscript(&a)), false)),
            (inner.clone(), inner).prop_map(|(a, b)| gen_expr(
                format!("rb({}, {})", gen_subscript(&a), gen_subscript(&b)),
                true
            )),
        ]
    })
}

/// One assignment: an int or real scalar, or an element of a rank-1/2 int
/// or real array, from an expression of either type (stores convert).
fn gen_assignment() -> BoxedStrategy<String> {
    let target = prop_oneof![
        prop::sample::select(vec!["k", "m", "x", "t"]).prop_map(str::to_string),
        (prop::sample::select(vec!["ia", "ra"]), gen_expression())
            .prop_map(|(a, s)| format!("{a}({})", gen_subscript(&s))),
        (prop::sample::select(vec!["ib", "rb"]), 1..=GEN_N)
            .prop_map(|(a, c)| format!("{a}(i, {c})")),
    ];
    (target, gen_expression())
        .prop_map(|(t, e)| {
            let to_int = matches!(t.as_bytes()[0], b'k' | b'm' | b'i');
            let value = if to_int { gen_clamped(&e) } else { e.src };
            format!("{t} = {value}")
        })
        .boxed()
}

/// An element read, stored to and read again — through the same subscript
/// expression, so the second read must not be served from the first — and
/// a scalar copied before its slot is overwritten. Several lines.
fn gen_store_between_loads() -> BoxedStrategy<String> {
    (
        prop::sample::select(vec![("ra", "x", "t"), ("ia", "k", "m")]),
        gen_expression(),
        gen_expression(),
    )
        .prop_map(|((arr, a, b), sub, value)| {
            let at = format!("{arr}({})", gen_subscript(&sub));
            let value = if arr == "ia" { gen_clamped(&value) } else { value.src };
            format!("{a} = {at} + {at}\n{at} = {value}\n{b} = {a}\n{a} = {at} - {b}")
        })
        .boxed()
}

/// A one- or two-deep `do` nest of generated assignments, trip counts on
/// both sides of the unroller's threshold (16), then a subroutine called
/// with distinct and with aliased actuals.
fn gen_program() -> BoxedStrategy<String> {
    let body = || {
        let one = gen_assignment;
        prop::collection::vec(prop_oneof![one(), one(), one(), gen_store_between_loads()], 1..=5)
    };
    // Over two dummy arrays and a local one: when both dummies are bound to
    // the same array, a store through either name may hit an element the
    // other has loaded.
    let mix = prop::collection::vec(
        prop::sample::select(vec![
            "x = d1(i)",
            "d2(i) = x * 0.5 + d1(j)",
            "w(i) = d1(i) + x",
            "d2(j) = w(i) - d1(i)",
            "t = d1(i) * d1(i) + d2(i)",
            "d1(i) = t + w(j) + d2(i)",
        ]),
        2..=6,
    );
    (
        prop::sample::select(vec![3i64, 16, 17, GEN_N]),
        prop::sample::select(vec![0i64, 2, 16, 17]),
        body(),
        body(),
        body(),
        mix,
    )
        .prop_map(|(outer, inner, pre, core, post, mix)| {
            let mut s = format!(
                "subroutine mix(n, d1, d2)\n  integer :: n\n  real :: d1(n), d2(n), w({GEN_N})\n  \
                 do i = 1, n\n    j = n + 1 - i\n    {}\n  end do\nend subroutine\n\n\
                 program gen\n  integer :: k, m, ia({GEN_N}), ib({GEN_N}, {GEN_N})\n  \
                 real :: x, t, ra({GEN_N}), rb({GEN_N}, {GEN_N}), rc({GEN_N})\n  \
                 do i = 1, {GEN_N}\n    ia(i) = i * 7 - 20\n    ra(i) = i * 0.75 - mynum\n    \
                 ib(i, 3) = 5 - i\n    rb(i, 2) = 1.5 * i\n  end do\n  j = 1\n  do i = 1, {outer}\n",
                mix.join("\n    ")
            );
            let mut emit = |stmts: &[String], indent: &str| {
                for line in stmts.iter().flat_map(|a| a.lines()) {
                    s.push_str(&format!("{indent}{line}\n"));
                }
            };
            emit(&pre, "    ");
            if inner > 0 {
                emit(&[format!("do j = 1, {inner}")], "    ");
                emit(&core, "      ");
                emit(&["end do".to_string()], "    ");
                emit(&post, "    ");
            }
            s.push_str(&format!(
                "  end do\n  call mix({GEN_N}, ra, rc)\n  call mix({GEN_N}, ra, ra)\n  \
                 call print(k, m, x, t)\nend program\n"
            ));
            s
        })
        .boxed()
}

/// Array payloads with reals as bit patterns: generated arithmetic is free
/// to produce NaN, which `==` would call unequal to itself.
fn output_bits(r: &interp::RunResult) -> Vec<Vec<(String, Vec<u64>)>> {
    r.outputs
        .iter()
        .map(|o| {
            o.arrays
                .iter()
                .map(|(name, dump)| {
                    let words = match &dump.data {
                        interp::Data::Int(v) => v.iter().map(|x| *x as u64).collect(),
                        interp::Data::Real(v) => v.iter().map(|x| x.to_bits()).collect(),
                    };
                    (name.clone(), words)
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The register code against the tree-walker on programs nobody wrote
    /// by hand: every operator and intrinsic over mixed int/real operands,
    /// literal and computed subscripts, loops that unroll and loops that do
    /// not — same array bits, same per-rank virtual-time stats, same prints.
    #[test]
    fn generated_typed_nests_run_identically_optimized(source in gen_program()) {
        let program = fir::parse_validated(&source)
            .unwrap_or_else(|e| panic!("generator emitted an invalid program: {}\n{source}", e.render(&source)));
        // Everything generated is typable, so all of it runs as register code.
        let types = interp::analyze_types(&program).unwrap();
        prop_assert_eq!(types.stmts_walked(), 0, "left to the tree-walker:\n{}", source);
        let model = clustersim::NetworkModel::mpich_gm();
        let run = |optimize| {
            let opts = interp::Options { optimize, ..Default::default() };
            interp::run_program_opts(&program, 2, &model, &opts)
                .unwrap_or_else(|e| panic!("optimize={optimize}: {e}\n{source}"))
        };
        let (fast, plain) = (run(true), run(false));
        prop_assert_eq!(output_bits(&fast), output_bits(&plain), "outputs differ:\n{}", source);
        prop_assert_eq!(
            &fast.report.per_rank, &plain.report.per_rank,
            "virtual-time stats differ:\n{}", source
        );
        let prints = |r: &interp::RunResult| -> Vec<Vec<String>> {
            r.outputs.iter().map(|o| o.prints.clone()).collect()
        };
        prop_assert_eq!(prints(&fast), prints(&plain), "prints differ:\n{}", source);
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

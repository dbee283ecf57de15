//! The transformation pipeline (paper §3.6):
//!
//! 1. insert the per-tile communication code at the end of each tile,
//! 2. insert the wait for the previous tile's receives before it,
//! 3. handle leftover iterations (`ℓ mod K`) — our tiled loop's
//!    `min(vt+K-1, hi)` inner bound handles the remainder in place,
//! 4. insert the final wait after `ℓ`,
//! 5. remove the original `MPI_ALLTOALL` call `C`.
//!
//! `plan_*` functions perform every safety and layout check and either
//! produce the replacement statements or a list of human-readable reasons
//! for declining (the semi-automatic report).

use crate::commgen::{
    self, ExchangeNames, NameGen, OwnerNames,
};
use crate::kselect::{self, KselectInput};
use crate::opportunity::{self, Opportunity, UserOracle, UserQuery};
use crate::pattern::{self, IndirectShape, Pattern};
use crate::report::{OppOutcome, Status, Strategy, TransformReport};
use depan::loopnest::collect_accesses;
use depan::region::tile_footprint;
use depan::Context;
use fir::ast::*;
use fir::builder as b;

/// Transformation options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Tile size K; `None` uses the [`kselect`] heuristic.
    pub tile_size: Option<i64>,
    /// Symbol values for the analyses (problem sizes, `np`, …). Analyses
    /// degrade conservatively without them.
    pub context: Context,
    /// How to answer questions static analysis cannot (paper §3.1).
    pub oracle: UserOracle,
    /// Procedures to treat as source-unavailable (exercises the paper's
    /// semi-automatic path).
    pub opaque_procedures: Vec<String>,
    /// The network model's capability view for the K heuristic and the
    /// profitability predictors ([`kselect::ModelCaps`]). The default is
    /// Myrinet-like constants; a `conservative` caps declines feasible
    /// sites the predictor cannot reason about.
    pub kselect_model: kselect::ModelCaps,
    /// Apply a feasible transformation even when the model-informed
    /// predictor says pre-pushing will be slower. The default (`false`)
    /// declines such sites and emits the original program with a
    /// [`Status::Unprofitable`] report note. Requesting an explicit
    /// `tile_size` also bypasses the predictor (ablations sweep K on
    /// purpose).
    pub apply_even_if_unprofitable: bool,
}

/// Result of [`transform`].
#[derive(Debug)]
pub struct TransformOutput {
    pub program: Program,
    pub report: TransformReport,
}

/// Hard failures (the report inside carries the per-opportunity reasons).
#[derive(Debug)]
pub enum TransformError {
    /// The input program failed validation.
    Invalid(fir::Errors),
    /// No opportunity could be transformed; the report says why.
    NothingApplied(TransformReport),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::Invalid(e) => write!(f, "input does not validate: {e}"),
            TransformError::NothingApplied(r) => {
                write!(f, "no opportunity could be transformed")?;
                for o in &r.opportunities {
                    if let Status::Declined(reasons) = &o.status {
                        for reason in reasons {
                            write!(f, "\n  - {}: {reason}", o.send_array)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// Run the Compuniformer on `program`: [`emit`], then [`gate`].
pub fn transform(program: &Program, opts: &Options) -> Result<TransformOutput, TransformError> {
    let emitted = emit(program, opts)?;
    Ok(gate(program, emitted, &opts.context))
}

/// The emitting half of [`transform`]: validate, find the opportunities,
/// plan and K-select each, apply the plans, report. The result has not
/// been through the analyzer [`gate`] yet.
pub fn emit(program: &Program, opts: &Options) -> Result<TransformOutput, TransformError> {
    fir::validate::validate(program).map_err(TransformError::Invalid)?;

    let mut out = program.clone();
    let mut gen = NameGen::new(program);
    let scan =
        opportunity::find_opportunities(program, opts.oracle, &opts.opaque_procedures);

    let mut report = TransformReport {
        opportunities: Vec::new(),
        rejections: scan.rejections.iter().map(|r| r.to_string()).collect(),
        queries: scan.queries.clone(),
    };

    // Apply in reverse document order so earlier paths stay valid.
    let mut opportunities = scan.opportunities;
    opportunities.sort_by(|a, b| b.comm_path.cmp(&a.comm_path));

    let mut applied_any = false;
    let mut declined_unprofitable = false;
    for opp in &opportunities {
        let mut outcome = OppOutcome {
            send_array: opp.send_array.clone(),
            recv_array: opp.recv_array.clone(),
            strategy: None,
            tile_size: None,
            dead_arrays: Vec::new(),
            reshaped_arrays: Vec::new(),
            assumptions: Vec::new(),
            unprofitable: None,
            status: Status::Declined(Vec::new()),
        };
        match plan_opportunity(&out, opp, opts, &mut gen, &mut outcome, &mut report.queries)
        {
            Ok(plan) => match outcome.unprofitable.take() {
                Some(note) if !opts.apply_even_if_unprofitable => {
                    // Feasible but predicted slower: leave the program
                    // untouched and report why (paper-faithful behaviour —
                    // a tool that slows codes down would not be used).
                    outcome.strategy = None;
                    outcome.tile_size = None;
                    outcome.status = Status::Unprofitable(note);
                    declined_unprofitable = true;
                }
                _ => {
                    apply_plan(&mut out, opp, plan);
                    outcome.status = Status::Applied;
                    applied_any = true;
                }
            },
            Err(reasons) => {
                outcome.status = Status::Declined(reasons);
            }
        }
        report.opportunities.push(outcome);
    }

    if applied_any {
        out.main.decls.extend(gen.decls());
        debug_assert!(
            fir::validate::validate(&out).is_ok(),
            "generated program fails validation:\n{}",
            fir::unparse(&out)
        );
    } else if !declined_unprofitable {
        return Err(TransformError::NothingApplied(report));
    }
    // When every feasible site was declined as unprofitable, `out` was
    // never mutated: callers run the original program unchanged and the
    // report carries the per-site notes.
    Ok(TransformOutput {
        program: out,
        report,
    })
}

/// The gating half of [`transform`] — the static communication-safety
/// gate: an emitted program we cannot *prove* hazard-free does not ship.
/// A rejected emission is withdrawn: `original` is emitted instead and
/// every applied site carries the diagnostics.
pub fn gate(original: &Program, emitted: TransformOutput, context: &Context) -> TransformOutput {
    match gate_config(&emitted, context) {
        Some(cfg) => {
            let verdict = gate_verdict(&emitted.program, &cfg);
            apply_verdict(original, emitted, &verdict)
        }
        None => emitted,
    }
}

/// Does the gate apply to this emission, and with what verifier inputs?
/// `None` when nothing was applied (the emission *is* the original), or
/// when `np` is unknown — the checker is rank-parametric and needs a
/// concrete rank count to instantiate. Together with the emitted program
/// the returned config is everything [`gate_verdict`] reads.
pub fn gate_config(emitted: &TransformOutput, context: &Context) -> Option<analyzer::CommCheckConfig> {
    if emitted.report.applied_count() == 0 {
        return None;
    }
    let np = context.get("np").filter(|np| *np >= 2)?;
    Some(analyzer::CommCheckConfig::new(np).with_symbols(context.pairs()))
}

/// The verifier's verdict on an emitted program, rendered as the
/// `code: message` lines [`Status::AnalysisRejected`] carries; empty when
/// the program was proved safe. A pure function of its two arguments.
pub fn gate_verdict(emitted: &Program, cfg: &analyzer::CommCheckConfig) -> Vec<String> {
    analyzer::verify_comm(emitted, cfg)
        .diagnostics
        .iter()
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect()
}

/// Ship `emitted` on an empty verdict; otherwise withdraw it.
pub fn apply_verdict(
    original: &Program,
    mut emitted: TransformOutput,
    verdict: &[String],
) -> TransformOutput {
    if verdict.is_empty() {
        return emitted;
    }
    for o in &mut emitted.report.opportunities {
        if o.status == Status::Applied {
            o.strategy = None;
            o.tile_size = None;
            o.status = Status::AnalysisRejected(verdict.to_vec());
        }
    }
    emitted.program = original.clone();
    emitted
}

/// The replacement produced by planning one opportunity.
struct Plan {
    /// Statements replacing `[ℓ, …, C]` in the enclosing body.
    replacement: Vec<Stmt>,
    /// Change the declaration of this array to these dims (At expansion).
    redeclare: Option<(String, Vec<DimBound>)>,
}

fn plan_opportunity(
    program: &Program,
    opp: &Opportunity,
    opts: &Options,
    gen: &mut NameGen,
    outcome: &mut OppOutcome,
    queries: &mut Vec<UserQuery>,
) -> Result<Plan, Vec<String>> {
    let mut reasons = Vec::new();
    if opp.gap_statements != 0 {
        reasons.push(format!(
            "{} statement(s) between the finalizing loop and the alltoall call",
            opp.gap_statements
        ));
        return Err(reasons);
    }

    let lstmt = opportunity::stmt_at(&program.main.body, &opp.loop_path).clone();
    let Stmt::Do {
        var: lvar,
        lower: llo,
        upper: lhi,
        step,
        body: lbody,
        ..
    } = &lstmt
    else {
        unreachable!("loop_path points at a do loop");
    };
    if let Some(s) = step {
        if !s.is_int(1) {
            reasons.push("the finalizing loop has a non-unit step".to_string());
            return Err(reasons);
        }
    }

    // Ar must be untouched inside ℓ (paper: the earliest safe receive
    // point must not precede uses of the receive array).
    if !collect_accesses(std::slice::from_ref(&lstmt), &opp.recv_array).is_empty() {
        reasons.push(format!(
            "receive array `{}` is accessed inside the finalizing loop",
            opp.recv_array
        ));
        return Err(reasons);
    }

    let Some(as_decl) = program.main.decl(&opp.send_array) else {
        reasons.push(format!("`{}` is not declared in main", opp.send_array));
        return Err(reasons);
    };
    let Some(ar_decl) = program.main.decl(&opp.recv_array) else {
        reasons.push(format!("`{}` is not declared in main", opp.recv_array));
        return Err(reasons);
    };

    match pattern::classify(lbody, &opp.send_array) {
        Pattern::Direct => plan_direct(
            program, opp, opts, gen, outcome, &lstmt, lvar, llo, lhi, as_decl, ar_decl,
        ),
        Pattern::Indirect(shape) => {
            match plan_indirect(
                program, opp, opts, gen, outcome, queries, &lstmt, lvar, llo, lhi, lbody,
                &shape, as_decl, ar_decl,
            ) {
                Ok(plan) => Ok(plan),
                Err(mut indirect_reasons) => {
                    // A copy loop is still a valid *direct* computation —
                    // retry without removing the copy (§3.4's optimization
                    // simply does not apply).
                    outcome.dead_arrays.clear();
                    outcome.reshaped_arrays.clear();
                    outcome.assumptions.push(
                        "indirect handling declined; fell back to the direct pattern"
                            .to_string(),
                    );
                    match plan_direct(
                        program, opp, opts, gen, outcome, &lstmt, lvar, llo, lhi,
                        as_decl, ar_decl,
                    ) {
                        Ok(plan) => Ok(plan),
                        Err(direct_reasons) => {
                            indirect_reasons.extend(direct_reasons);
                            Err(indirect_reasons)
                        }
                    }
                }
            }
        }
        Pattern::Unsupported { reason, .. } => {
            reasons.push(format!("unsupported compute-copy pattern: {reason}"));
            Err(reasons)
        }
    }
}

// ---------------------------------------------------------------------------
// Direct pattern (§3.3)
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn plan_direct(
    program: &Program,
    opp: &Opportunity,
    opts: &Options,
    gen: &mut NameGen,
    outcome: &mut OppOutcome,
    lstmt: &Stmt,
    lvar: &str,
    llo: &Expr,
    lhi: &Expr,
    as_decl: &Decl,
    ar_decl: &Decl,
) -> Result<Plan, Vec<String>> {
    let mut reasons = Vec::new();
    let ctx = &opts.context;
    let lslice = std::slice::from_ref(lstmt);

    // Exactly one unconditional, fully affine write reference.
    let refs = collect_accesses(lslice, &opp.send_array);
    let writes: Vec<_> = refs.iter().filter(|r| r.is_write).collect();
    if writes.len() != 1 {
        reasons.push(format!(
            "need exactly one write to `{}` in the loop nest, found {}",
            opp.send_array,
            writes.len()
        ));
        return Err(reasons);
    }
    let w = writes[0];
    if w.in_conditional {
        reasons.push("the write to the send array is under a conditional".to_string());
        return Err(reasons);
    }
    if !w.fully_affine() {
        reasons.push("the send array's subscripts are not affine".to_string());
        return Err(reasons);
    }

    // Safety: no output dependence carried by the tiled loop (Afs check).
    let safety = depan::check_tile_safety(lslice, &opp.send_array, lvar, ctx);
    if !safety.is_safe() {
        for p in &safety.problems {
            reasons.push(format!("tile safety: {p}"));
        }
        return Err(reasons);
    }

    // Shapes must match between As and Ar.
    if as_decl.rank() != ar_decl.rank()
        || !as_decl
            .dims
            .iter()
            .zip(&ar_decl.dims)
            .all(|(a, r)| affine_eq(&a.lower, &r.lower, ctx) && affine_eq(&a.upper, &r.upper, ctx))
    {
        reasons.push(format!(
            "`{}` and `{}` have different shapes",
            opp.send_array, opp.recv_array
        ));
        return Err(reasons);
    }

    // Full coverage: the loop writes exactly the declared array (otherwise
    // the original alltoall would also have shipped untouched elements and
    // equivalence breaks).
    let coverage = match tile_footprint(w, lvar, llo, lhi) {
        Ok(c) => c,
        Err(e) => {
            reasons.push(format!("region analysis failed: {e}"));
            return Err(reasons);
        }
    };
    for (d, t) in coverage.iter().enumerate() {
        let (dlo, dhi) = (&as_decl.dims[d].lower, &as_decl.dims[d].upper);
        if !(affine_eq(&t.lower, dlo, ctx) && affine_eq(&t.upper, dhi, ctx)) {
            reasons.push(format!(
                "the loop does not cover dimension {} of `{}` exactly",
                d + 1,
                opp.send_array
            ));
            return Err(reasons);
        }
    }

    // Unit coefficient on the tiled variable (footprints must tile the
    // array without holes).
    let tile_coeffs: Vec<i64> = w
        .affine
        .iter()
        .map(|a| a.as_ref().expect("checked affine").coeff(lvar))
        .collect();

    match as_decl.rank() {
        1 => {
            if tile_coeffs[0].abs() != 1 {
                reasons.push(format!(
                    "the tiled variable has coefficient {} in the subscript (need ±1)",
                    tile_coeffs[0]
                ));
                return Err(reasons);
            }
            plan_direct_rank1_owner(
                opp, opts, gen, outcome, lstmt, lvar, llo, lhi, as_decl, ar_decl, w,
            )
        }
        2 => {
            let d_node = 1usize;
            if tile_coeffs[d_node] != 0 {
                // Node loop is the tiled loop: try interchange (§3.5).
                plan_direct_rank2_node_outer(
                    program, opp, opts, gen, outcome, lstmt, lvar, as_decl, ar_decl,
                )
            } else {
                if tile_coeffs[0].abs() != 1 {
                    reasons.push(format!(
                        "the tiled variable has coefficient {} in dimension 1 (need ±1)",
                        tile_coeffs[0]
                    ));
                    return Err(reasons);
                }
                plan_direct_rank2_all_peers(
                    opp, opts, gen, outcome, lstmt, lvar, llo, lhi, as_decl, ar_decl, w,
                )
            }
        }
        r => {
            reasons.push(format!(
                "send arrays of rank {r} are not supported (rank 1 or 2)"
            ));
            Err(reasons)
        }
    }
}

/// Rank-2, node dim swept by an inner loop: the canonical Fig. 4 strategy.
#[allow(clippy::too_many_arguments)]
fn plan_direct_rank2_all_peers(
    opp: &Opportunity,
    opts: &Options,
    gen: &mut NameGen,
    outcome: &mut OppOutcome,
    lstmt: &Stmt,
    lvar: &str,
    llo: &Expr,
    lhi: &Expr,
    as_decl: &Decl,
    ar_decl: &Decl,
    w: &depan::AccessRef,
) -> Result<Plan, Vec<String>> {
    let mut reasons = Vec::new();
    let ctx = &opts.context;

    // count must equal dimension-1's extent (one alltoall block = one
    // node-dim column).
    let d1_extent = extent_expr(&as_decl.dims[0]);
    if !affine_eq(&opp.count, &d1_extent, ctx) {
        reasons.push(format!(
            "alltoall count does not equal the extent of dimension 1 of `{}`",
            opp.send_array
        ));
        return Err(reasons);
    }
    // node dim extent must be np.
    let d2_extent = extent_expr(&as_decl.dims[1]);
    if !affine_eq(&d2_extent, &b::var("np"), ctx) {
        reasons.push(format!(
            "the last dimension of `{}` does not have extent np",
            opp.send_array
        ));
        return Err(reasons);
    }

    let k = choose_tile_size(opts, outcome, lstmt, lvar, &opp.count, None);
    outcome.tile_size = Some(k);
    outcome.strategy = Some(Strategy::TiledAllPeers);

    let tile_var = gen.fresh("t");
    let names = ExchangeNames::fresh(gen);
    let (tile_lo, tile_hi) = commgen::tile_bounds(&tile_var, lhi, k);

    let fp = match tile_footprint(w, lvar, &tile_lo, &tile_hi) {
        Ok(f) => f,
        Err(e) => {
            reasons.push(format!("per-tile region analysis failed: {e}"));
            return Err(reasons);
        }
    };
    let d1_lo = fp[0].lower.clone();
    let d1_hi = fp[0].upper.clone();
    let len = b::add(b::sub(d1_hi.clone(), d1_lo.clone()), b::int(1));

    let send_base = as_decl.dims[1].lower.clone();
    let recv_base = ar_decl.dims[1].lower.clone();

    let exchange = commgen::fig4_all_peers(
        &names,
        &opp.send_array,
        &opp.recv_array,
        d1_lo.clone(),
        d1_hi.clone(),
        len,
        send_base.clone(),
        recv_base.clone(),
        tag_for(opp),
    );
    let self_copy = commgen::self_copy_rank2(
        &names,
        &opp.send_array,
        &opp.recv_array,
        d1_lo,
        d1_hi,
        send_base,
        recv_base,
    );

    let Stmt::Do { body, .. } = lstmt else { unreachable!() };
    let tiled = commgen::tiled_loop(
        &tile_var,
        lvar,
        llo.clone(),
        lhi.clone(),
        k,
        body.clone(),
        vec![commgen::wait_prev_recvs(), exchange, self_copy],
    );
    Ok(Plan {
        replacement: vec![tiled, commgen::wait_all()],
        redeclare: None,
    })
}

/// Rank-1: the node "loop" is the tiled loop itself — owner/subset sends.
#[allow(clippy::too_many_arguments)]
fn plan_direct_rank1_owner(
    opp: &Opportunity,
    opts: &Options,
    gen: &mut NameGen,
    outcome: &mut OppOutcome,
    lstmt: &Stmt,
    lvar: &str,
    llo: &Expr,
    lhi: &Expr,
    as_decl: &Decl,
    ar_decl: &Decl,
    w: &depan::AccessRef,
) -> Result<Plan, Vec<String>> {
    let mut reasons = Vec::new();
    let ctx = &opts.context;

    // Total extent must be np · count, and tiles must not straddle
    // partitions — that needs a numeric partition size.
    let Some(sz) = eval_expr(&opp.count, ctx) else {
        reasons.push(
            "the per-partner count must be a literal (or resolvable in the analysis \
             context) for the owner strategy"
                .to_string(),
        );
        return Err(reasons);
    };
    if sz <= 0 {
        reasons.push(format!("nonpositive alltoall count {sz}"));
        return Err(reasons);
    }
    let extent = extent_expr(&as_decl.dims[0]);
    match (eval_expr(&extent, ctx), ctx.get("np")) {
        (Some(n), Some(np)) => {
            if n != np * sz {
                reasons.push(format!(
                    "extent of `{}` is {n}, expected np*count = {}",
                    opp.send_array,
                    np * sz
                ));
                return Err(reasons);
            }
            outcome.assumptions.push(format!(
                "array extent {n} == np({np}) * count({sz}) checked numerically \
                 under the analysis context"
            ));
        }
        _ => {
            // Symbolic check: extent == np * count with literal count.
            let np_count = b::mul(b::var("np"), b::int(sz));
            if !affine_eq(&extent, &np_count, ctx) {
                reasons.push(format!(
                    "cannot establish that the extent of `{}` equals np * count",
                    opp.send_array
                ));
                return Err(reasons);
            }
        }
    }

    let k = choose_tile_size(opts, outcome, lstmt, lvar, &opp.count, Some(sz));
    if sz % k != 0 {
        reasons.push(format!(
            "tile size {k} does not divide the partition size {sz} (tiles would \
             straddle partitions)"
        ));
        return Err(reasons);
    }
    outcome.tile_size = Some(k);
    outcome.strategy = Some(Strategy::TiledOwner);

    let tile_var = gen.fresh("t");
    let names = OwnerNames::fresh(gen);
    let (tile_lo, tile_hi) = commgen::tile_bounds(&tile_var, lhi, k);
    let fp = match tile_footprint(w, lvar, &tile_lo, &tile_hi) {
        Ok(f) => f,
        Err(e) => {
            reasons.push(format!("per-tile region analysis failed: {e}"));
            return Err(reasons);
        }
    };

    let exchange = commgen::owner_subset_exchange(
        &names,
        &opp.send_array,
        &opp.recv_array,
        fp[0].lower.clone(),
        fp[0].upper.clone(),
        opp.count.clone(),
        as_decl.dims[0].lower.clone(),
        ar_decl.dims[0].lower.clone(),
        tag_for(opp),
    );

    let Stmt::Do { body, .. } = lstmt else { unreachable!() };
    let mut per_tile = vec![commgen::wait_prev_recvs()];
    per_tile.extend(exchange);
    let tiled = commgen::tiled_loop(
        &tile_var,
        lvar,
        llo.clone(),
        lhi.clone(),
        k,
        body.clone(),
        per_tile,
    );
    Ok(Plan {
        replacement: vec![tiled, commgen::wait_all()],
        redeclare: None,
    })
}

/// Rank-2 with the node dimension swept by the *outer* (tiled) loop: try
/// loop interchange (§3.5) and re-plan; fall back to per-column owner
/// sends when interchange is illegal.
#[allow(clippy::too_many_arguments)]
fn plan_direct_rank2_node_outer(
    program: &Program,
    opp: &Opportunity,
    opts: &Options,
    gen: &mut NameGen,
    outcome: &mut OppOutcome,
    lstmt: &Stmt,
    lvar: &str,
    as_decl: &Decl,
    ar_decl: &Decl,
) -> Result<Plan, Vec<String>> {
    let mut reasons = Vec::new();
    let ctx = &opts.context;

    // Perfect 2-deep nest required for interchange.
    let Stmt::Do { body, lower, upper, .. } = lstmt else { unreachable!() };
    let perfect_inner = match body.as_slice() {
        [Stmt::Do { .. }] => Some(&body[0]),
        _ => None,
    };
    if let Some(inner @ Stmt::Do { var: ivar, .. }) = perfect_inner {
        let arrays = arrays_in_main(program);
        match depan::interchange::interchange_legal(
            std::slice::from_ref(lstmt),
            &arrays,
            lvar,
            ivar,
            ctx,
        ) {
            Ok(()) => {
                outcome
                    .assumptions
                    .push(format!("interchanged loops `{lvar}` and `{ivar}`"));
                let swapped = interchange(lstmt, inner);
                // Re-plan with the interchanged nest: the inner loop (old
                // outer) now sweeps the node dim from inside the tile.
                let Stmt::Do {
                    var: nlvar,
                    lower: nllo,
                    upper: nlhi,
                    ..
                } = &swapped
                else {
                    unreachable!()
                };
                let refs = collect_accesses(std::slice::from_ref(&swapped), &opp.send_array);
                let w = refs
                    .iter()
                    .find(|r| r.is_write)
                    .expect("write survived interchange");
                let safety =
                    depan::check_tile_safety(std::slice::from_ref(&swapped), &opp.send_array, nlvar, ctx);
                if !safety.is_safe() {
                    reasons.push(
                        "interchange succeeded but the interchanged nest is not tile-safe"
                            .to_string(),
                    );
                    return Err(reasons);
                }
                return plan_direct_rank2_all_peers(
                    opp,
                    opts,
                    gen,
                    outcome,
                    &swapped,
                    &nlvar.clone(),
                    &nllo.clone(),
                    &nlhi.clone(),
                    as_decl,
                    ar_decl,
                    w,
                );
            }
            Err(blocks) => {
                for bl in &blocks {
                    outcome
                        .assumptions
                        .push(format!("interchange blocked: {bl}"));
                }
            }
        }
    }

    // Fallback: per-node-column owner sends (the paper's "subset of the
    // nodes during each tile" with its congestion caveat).
    let d1_extent = extent_expr(&as_decl.dims[0]);
    if !affine_eq(&opp.count, &d1_extent, ctx) {
        reasons.push(format!(
            "alltoall count does not equal the extent of dimension 1 of `{}`",
            opp.send_array
        ));
        return Err(reasons);
    }
    let d2_extent = extent_expr(&as_decl.dims[1]);
    if !affine_eq(&d2_extent, &b::var("np"), ctx) {
        reasons.push(format!(
            "the last dimension of `{}` does not have extent np",
            opp.send_array
        ));
        return Err(reasons);
    }
    // The tiled (outer) loop must sweep the node dim with unit coefficient.
    let refs = collect_accesses(std::slice::from_ref(lstmt), &opp.send_array);
    let w = refs.iter().find(|r| r.is_write).expect("checked earlier");
    let aff2 = w.affine[1].as_ref().expect("checked affine");
    if aff2.coeff(lvar).abs() != 1 {
        reasons.push("node-dim subscript needs coefficient ±1 on the tiled loop".to_string());
        return Err(reasons);
    }

    outcome.strategy = Some(Strategy::TiledOwnerColumns);
    outcome.tile_size = Some(1);
    outcome.assumptions.push(
        "node loop outermost and interchange impossible: per-column owner sends \
         (network congestion caveat, §3.5)"
            .to_string(),
    );
    // Profitability: the per-column fallback used to bypass K-selection
    // and knowingly ship the §3.5 congestion penalty (down to 0.21x on
    // MPICH). Route it through the model-informed predictor like every
    // other strategy; an explicit requested tile size still bypasses it
    // (ablations force the fallback on purpose).
    if opts.tile_size.is_none() {
        outcome.unprofitable = if opts.kselect_model.conservative {
            Some(opts.kselect_model.conservative_note())
        } else {
            kselect::predict_column_slowdown(&kselect::ColumnInput {
                partner_bytes: eval_expr(&opp.count, ctx).map_or(64.0, |c| (c * 8) as f64),
                np: ctx.get("np").unwrap_or(8) as f64,
                ns_per_iteration: kselect::estimate_iteration_ns(body, 1.0, 2.0),
                overhead_ns: opts.kselect_model.overhead(),
                cpu_ns_per_byte: opts.kselect_model.cpu_per_byte(),
                wire_ns_per_byte: opts.kselect_model.wire_per_byte(),
            })
        };
    }

    let names = OwnerNames::fresh(gen);
    let d1lo = as_decl.dims[0].lower.clone();
    let d1hi = as_decl.dims[0].upper.clone();
    let d1lo_ar = ar_decl.dims[0].lower.clone();
    let d2lo = as_decl.dims[1].lower.clone();
    let d2lo_ar = ar_decl.dims[1].lower.clone();

    // Node-dim index touched at iteration lvar: aff2 as expr.
    let node_idx = depan::region::affine_to_expr(aff2);
    let to = b::var(&names.to);
    let from = b::var(&names.from);
    let i = b::var(&names.copy_i);
    let exchange: Vec<Stmt> = vec![
        b::sassign(&names.to, b::sub(node_idx.clone(), d2lo.clone())),
        b::if_then_else(
            b::eq(to.clone(), b::var("mynum")),
            vec![
                b::do_loop(
                    &names.j,
                    b::int(1),
                    b::sub(b::var("np"), b::int(1)),
                    vec![
                        b::sassign(
                            &names.from,
                            b::modulo(
                                b::sub(b::add(b::var("np"), b::var("mynum")), b::var(&names.j)),
                                b::var("np"),
                            ),
                        ),
                        b::call(
                            "mpi_irecv",
                            vec![
                                b::section(
                                    &opp.recv_array,
                                    vec![
                                        b::full_range(),
                                        b::at(b::add(from.clone(), d2lo_ar.clone())),
                                    ],
                                ),
                                b::arg(opp.count.clone()),
                                b::arg(from),
                                b::arg(b::int(tag_for(opp))),
                            ],
                        ),
                    ],
                ),
                b::do_loop(
                    &names.copy_i,
                    d1lo.clone(),
                    d1hi,
                    vec![b::assign(
                        &opp.recv_array,
                        vec![
                            b::add(b::sub(i.clone(), d1lo), d1lo_ar),
                            b::add(b::var("mynum"), d2lo_ar),
                        ],
                        b::aref(&opp.send_array, vec![i, node_idx.clone()]),
                    )],
                ),
            ],
            vec![b::call(
                "mpi_isend",
                vec![
                    b::section(
                        &opp.send_array,
                        vec![b::full_range(), b::at(node_idx)],
                    ),
                    b::arg(opp.count.clone()),
                    b::arg(to),
                    b::arg(b::int(tag_for(opp))),
                ],
            )],
        ),
    ];

    // Rebuild ℓ with the exchange appended to its body per iteration.
    let mut new_body = body.clone();
    new_body.push(commgen::wait_prev_recvs());
    new_body.extend(exchange);
    let new_loop = b::do_loop(lvar, lower.clone(), upper.clone(), new_body);
    Ok(Plan {
        replacement: vec![new_loop, commgen::wait_all()],
        redeclare: None,
    })
}

/// Swap a perfect 2-deep nest: `do v1 { do v2 { body } }` →
/// `do v2 { do v1 { body } }`.
fn interchange(outer: &Stmt, inner: &Stmt) -> Stmt {
    let Stmt::Do {
        var: v1,
        lower: l1,
        upper: u1,
        step: s1,
        ..
    } = outer
    else {
        unreachable!()
    };
    let Stmt::Do {
        var: v2,
        lower: l2,
        upper: u2,
        step: s2,
        body: inner_body,
        ..
    } = inner
    else {
        unreachable!()
    };
    Stmt::Do {
        var: v2.clone(),
        lower: l2.clone(),
        upper: u2.clone(),
        step: s2.clone(),
        body: vec![Stmt::Do {
            var: v1.clone(),
            lower: l1.clone(),
            upper: u1.clone(),
            step: s1.clone(),
            body: inner_body.clone(),
            span: fir::Span::DUMMY,
        }],
        span: fir::Span::DUMMY,
    }
}

// ---------------------------------------------------------------------------
// Indirect pattern (§3.4)
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn plan_indirect(
    program: &Program,
    opp: &Opportunity,
    opts: &Options,
    gen: &mut NameGen,
    outcome: &mut OppOutcome,
    queries: &mut Vec<UserQuery>,
    lstmt: &Stmt,
    lvar: &str,
    llo: &Expr,
    lhi: &Expr,
    lbody: &[Stmt],
    shape: &IndirectShape,
    as_decl: &Decl,
    ar_decl: &Decl,
) -> Result<Plan, Vec<String>> {
    let mut reasons = Vec::new();
    let ctx = &opts.context;
    let at = &shape.temp_array;

    let Some(at_decl) = program.main.decl(at) else {
        reasons.push(format!("temporary `{at}` is not declared in main"));
        return Err(reasons);
    };
    if at_decl.rank() != 1 {
        reasons.push(format!("temporary `{at}` must be rank 1"));
        return Err(reasons);
    }

    // Statements of ℓ other than producer and copy loop must not touch
    // As or At.
    for (i, s) in lbody.iter().enumerate() {
        if i == shape.producer_idx || i == shape.copy_loop_idx {
            continue;
        }
        let sl = std::slice::from_ref(s);
        if !collect_accesses(sl, &opp.send_array).is_empty()
            || !collect_accesses(sl, at).is_empty()
        {
            reasons.push(
                "statements besides the producer and copy loop touch the send or \
                 temporary array"
                    .to_string(),
            );
            return Err(reasons);
        }
    }

    // The copy loop: single level, last statement `As(…) = At(cpvar…)`,
    // other statements scalar-only.
    let Stmt::Do {
        var: cpvar,
        lower: cplo,
        upper: cphi,
        step: cpstep,
        body: cpbody,
        ..
    } = &lbody[shape.copy_loop_idx]
    else {
        unreachable!("classifier found a do loop");
    };
    if cpstep.as_ref().is_some_and(|s| !s.is_int(1)) {
        reasons.push("the copy loop has a non-unit step".to_string());
        return Err(reasons);
    }
    let Some((copy_target, copy_rhs)) = copy_assignment(cpbody, &opp.send_array) else {
        reasons.push("could not isolate the copy assignment".to_string());
        return Err(reasons);
    };
    let Expr::ArrayRef { name: rhs_name, indices: rhs_idx, .. } = copy_rhs else {
        unreachable!("classifier checked the RHS shape");
    };
    debug_assert_eq!(rhs_name, at);
    if rhs_idx.len() != 1 {
        reasons.push(format!("`{at}` must be subscripted with one index"));
        return Err(reasons);
    }

    // At read coverage: subscript = cpvar + c, sweeping the whole of At.
    let Some(at_aff) = depan::affine::from_expr(&rhs_idx[0]) else {
        reasons.push(format!("`{at}` subscript is not affine"));
        return Err(reasons);
    };
    if at_aff.coeff(cpvar) != 1 {
        reasons.push(format!(
            "`{at}` subscript needs coefficient 1 on the copy-loop variable"
        ));
        return Err(reasons);
    }
    let read_lo = subst_expr(&rhs_idx[0], cpvar, cplo);
    let read_hi = subst_expr(&rhs_idx[0], cpvar, cphi);
    if !(affine_eq(&read_lo, &at_decl.dims[0].lower, ctx)
        && affine_eq(&read_hi, &at_decl.dims[0].upper, ctx))
    {
        reasons.push(format!(
            "the copy loop does not read all of `{at}` exactly once"
        ));
        return Err(reasons);
    }

    // As last dim subscript = lvar + c with full coverage of the node dim.
    let last = as_decl.rank() - 1;
    let Some(last_aff) = depan::affine::from_expr(&copy_target.indices[last]) else {
        reasons.push("send array's node-dim subscript is not affine".to_string());
        return Err(reasons);
    };
    if last_aff.coeff(lvar) != 1 {
        reasons.push(
            "send array's node-dim subscript needs coefficient 1 on the loop variable"
                .to_string(),
        );
        return Err(reasons);
    }
    let node_lo = subst_expr(&copy_target.indices[last], lvar, llo);
    let node_hi = subst_expr(&copy_target.indices[last], lvar, lhi);
    if !(affine_eq(&node_lo, &as_decl.dims[last].lower, ctx)
        && affine_eq(&node_hi, &as_decl.dims[last].upper, ctx))
    {
        reasons.push("the loop does not cover the node dimension exactly".to_string());
        return Err(reasons);
    }

    // Trip count == np (one iteration per partner).
    let trip = b::add(b::sub(lhi.clone(), llo.clone()), b::int(1));
    if !affine_eq(&trip, &b::var("np"), ctx) {
        reasons.push("the loop's trip count is not np".to_string());
        return Err(reasons);
    }

    // count == |At| == product of As's non-node extents.
    let at_extent = extent_expr(&at_decl.dims[0]);
    if !affine_eq(&opp.count, &at_extent, ctx) {
        reasons.push(format!(
            "alltoall count does not equal the extent of `{at}`"
        ));
        return Err(reasons);
    }
    if let Some(prod) = literal_product(&as_decl.dims[..last], ctx) {
        if Some(prod) != eval_expr(&opp.count, ctx) {
            reasons.push(format!(
                "count does not equal the block size of `{}` ({prod})",
                opp.send_array
            ));
            return Err(reasons);
        }
    } else {
        outcome.assumptions.push(
            "assumed count equals the product of the send array's non-node extents"
                .to_string(),
        );
    }

    // Ar shape == As shape.
    if as_decl.rank() != ar_decl.rank()
        || !as_decl
            .dims
            .iter()
            .zip(&ar_decl.dims)
            .all(|(a, r)| affine_eq(&a.lower, &r.lower, ctx) && affine_eq(&a.upper, &r.upper, ctx))
    {
        reasons.push(format!(
            "`{}` and `{}` have different shapes",
            opp.send_array, opp.recv_array
        ));
        return Err(reasons);
    }

    // Flat-order preservation of ℓcp (the paper assumes this; we prove the
    // simple case and otherwise ask the user).
    let order_proven = as_decl.rank() == 2 && {
        let d1 = depan::affine::from_expr(&copy_target.indices[0]);
        match d1 {
            Some(a) if a.coeff(cpvar) == 1 => {
                let lo = subst_expr(&copy_target.indices[0], cpvar, cplo);
                let hi = subst_expr(&copy_target.indices[0], cpvar, cphi);
                affine_eq(&lo, &as_decl.dims[0].lower, ctx)
                    && affine_eq(&hi, &as_decl.dims[0].upper, ctx)
            }
            _ => false,
        }
    };
    if !order_proven {
        let assumed = opts.oracle == UserOracle::AssumeSafe;
        queries.push(UserQuery {
            question: format!(
                "does the copy loop map `{at}` onto each block of `{}` preserving \
                 flat (column-major) element order?",
                opp.send_array
            ),
            assumed_yes: assumed,
        });
        if !assumed {
            reasons.push(
                "cannot prove the copy loop preserves element order (run with \
                 UserOracle::AssumeSafe after inspecting the code)"
                    .to_string(),
            );
            return Err(reasons);
        }
        outcome
            .assumptions
            .push("user confirmed the copy loop is order-preserving".to_string());
    }

    // At must not be used outside ℓ.
    let total_at_refs = collect_accesses(&program.main.body, at).len();
    let in_l_refs = collect_accesses(std::slice::from_ref(lstmt), at).len();
    if total_at_refs != in_l_refs {
        reasons.push(format!("`{at}` is used outside the finalizing loop"));
        return Err(reasons);
    }

    outcome.strategy = Some(Strategy::IndirectPrepush);
    outcome.tile_size = Some(1);
    outcome.dead_arrays.push(opp.send_array.clone());
    outcome.reshaped_arrays.push(at.clone());
    outcome.assumptions.push(format!(
        "`{at}` expanded with a slot dimension of the loop's trip count (strictly \
         safe double-buffering; the paper uses K slots)"
    ));

    // -- build the replacement -------------------------------------------
    let slot = gen.fresh("slot");
    let names = ExchangeNames::fresh(gen);
    let slot_expr = b::var(&slot);

    // Producer with At → At(:, slot).
    let mut producer = lbody[shape.producer_idx].clone();
    {
        let mut tmp = vec![producer];
        commgen::add_slot_dimension(&mut tmp, at, &slot_expr);
        producer = tmp.pop().expect("one statement");
    }

    // Self-copy: the deleted ℓcp re-pointed at Ar, reading At(i, slot).
    let mut self_copy = vec![lbody[shape.copy_loop_idx].clone()];
    commgen::add_slot_dimension(&mut self_copy, at, &slot_expr);
    commgen::rename_array(&mut self_copy, &opp.send_array, &opp.recv_array);

    // Owner exchange.
    let to = b::var(&names.to);
    let from = b::var(&names.from);
    let recv_base = ar_decl.dims[last].lower.clone();
    let mut recv_dims: Vec<SecDim> = (0..last).map(|_| SecDim::Range(None, None)).collect();
    recv_dims.push(SecDim::Index(b::add(from.clone(), recv_base)));

    let exchange = b::if_then_else(
        b::eq(to.clone(), b::var("mynum")),
        {
            let mut then_body = vec![b::do_loop(
                &names.j,
                b::int(1),
                b::sub(b::var("np"), b::int(1)),
                vec![
                    b::sassign(
                        &names.from,
                        b::modulo(
                            b::sub(b::add(b::var("np"), b::var("mynum")), b::var(&names.j)),
                            b::var("np"),
                        ),
                    ),
                    Stmt::Call {
                        name: "mpi_irecv".into(),
                        args: vec![
                            Arg::Section(Section {
                                name: opp.recv_array.clone(),
                                dims: recv_dims,
                                span: fir::Span::DUMMY,
                            }),
                            b::arg(opp.count.clone()),
                            b::arg(from),
                            b::arg(b::int(tag_for(opp))),
                        ],
                        span: fir::Span::DUMMY,
                    },
                ],
            )];
            then_body.extend(self_copy);
            then_body
        },
        vec![b::call(
            "mpi_isend",
            vec![
                b::section(
                    at,
                    vec![SecDim::Range(None, None), SecDim::Index(slot_expr.clone())],
                ),
                b::arg(opp.count.clone()),
                b::arg(to),
                b::arg(b::int(tag_for(opp))),
            ],
        )],
    );

    // New ℓ body: other statements preserved in place, producer and copy
    // loop replaced.
    let mut new_body: Vec<Stmt> = Vec::new();
    for (i, s) in lbody.iter().enumerate() {
        if i == shape.producer_idx {
            new_body.push(b::sassign(
                &slot,
                b::add(b::sub(b::var(lvar), llo.clone()), b::int(1)),
            ));
            new_body.push(producer.clone());
        } else if i == shape.copy_loop_idx {
            new_body.push(b::sassign(&names.to, b::sub(b::var(lvar), llo.clone())));
            new_body.push(exchange.clone());
        } else {
            new_body.push(s.clone());
        }
    }
    let new_loop = b::do_loop(lvar, llo.clone(), lhi.clone(), new_body);

    // At gains a slot dimension sized by the trip count.
    let mut new_dims = at_decl.dims.clone();
    new_dims.push(DimBound {
        lower: b::int(1),
        upper: trip,
    });

    Ok(Plan {
        replacement: vec![new_loop, commgen::wait_all()],
        redeclare: Some((at.clone(), new_dims)),
    })
}

/// Find the `As(…) = At(…)` assignment in the copy-loop body; every other
/// statement must be a scalar assignment (privatizable temporaries).
fn copy_assignment<'a>(
    body: &'a [Stmt],
    send_array: &str,
) -> Option<(&'a LValue, &'a Expr)> {
    let mut found = None;
    for s in body {
        match s {
            Stmt::Assign { target, value, .. } if target.name == send_array => {
                if found.is_some() {
                    return None; // more than one copy statement
                }
                found = Some((target, value));
            }
            Stmt::Assign { target, .. } if target.indices.is_empty() => {}
            _ => return None,
        }
    }
    found
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn apply_plan(program: &mut Program, opp: &Opportunity, plan: Plan) {
    let body = body_at_mut(&mut program.main.body, &opp.loop_path[..opp.loop_path.len() - 1]);
    let start = *opp.loop_path.last().expect("non-empty path");
    let end = *opp.comm_path.last().expect("non-empty path");
    body.splice(start..=end, plan.replacement);

    if let Some((name, dims)) = plan.redeclare {
        if let Some(d) = program.main.decls.iter_mut().find(|d| d.name == name) {
            d.dims = dims;
        }
    }
}

fn body_at_mut<'a>(body: &'a mut Vec<Stmt>, prefix: &[usize]) -> &'a mut Vec<Stmt> {
    let Some((first, rest)) = prefix.split_first() else {
        return body;
    };
    match &mut body[*first] {
        Stmt::Do { body, .. } => body_at_mut(body, rest),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            if rest.first().is_none_or(|i| *i < then_body.len()) {
                body_at_mut(then_body, rest)
            } else {
                body_at_mut(else_body, rest)
            }
        }
        _ => panic!("path descends into a leaf"),
    }
}

fn choose_tile_size(
    opts: &Options,
    outcome: &mut OppOutcome,
    lstmt: &Stmt,
    _lvar: &str,
    count: &Expr,
    align_to: Option<i64>,
) -> i64 {
    if let Some(k) = opts.tile_size {
        return k.max(1);
    }
    let Stmt::Do { body, lower, upper, .. } = lstmt else { unreachable!() };
    let per_iter = kselect::estimate_iteration_ns(body, 1.0, 2.0);
    let np = opts.context.get("np").unwrap_or(8);
    let trip = match (
        eval_expr(lower, &opts.context),
        eval_expr(upper, &opts.context),
    ) {
        (Some(lo), Some(hi)) => (hi - lo + 1).max(1),
        _ => 1024,
    };
    let bytes_per_iter = eval_expr(count, &opts.context)
        .map(|c| (c * 8) as f64 * (np - 1) as f64 / trip as f64)
        .unwrap_or(64.0);
    let overhead_ns = opts.kselect_model.overhead();
    let wire_ns_per_byte = opts.kselect_model.wire_per_byte();
    let k = kselect::choose_k(&KselectInput {
        ns_per_iteration: per_iter,
        bytes_per_iteration: bytes_per_iter,
        overhead_ns,
        cpu_ns_per_byte: opts.kselect_model.cpu_per_byte(),
        wire_ns_per_byte,
        messages_per_tile: (np - 1) as f64,
        trip_count: trip,
        align_to,
    });
    outcome
        .assumptions
        .push(format!("tile size K = {k} chosen by the heuristic"));
    // Profitability: would the tiled exchange's added fixed overheads
    // exceed the wire time it can hide? (`align_to` marks the owner-sends
    // strategy, which posts one message per tile; all-peers posts NP-1.)
    // A conservative caps short-circuits: the predictor has no calibration
    // for the model family, so feasible sites decline instead of shipping
    // a potential known regression.
    outcome.unprofitable = if opts.kselect_model.conservative {
        Some(opts.kselect_model.conservative_note())
    } else {
        kselect::predict_slowdown(&kselect::ProfitInput {
            partner_bytes: eval_expr(count, &opts.context).map_or(64.0, |c| (c * 8) as f64),
            np: np as f64,
            trip_count: trip,
            tile_size: k,
            messages_per_tile: if align_to.is_some() { 1.0 } else { (np - 1) as f64 },
            owner_strategy: align_to.is_some(),
            ns_per_iteration: per_iter,
            overhead_ns,
            cpu_ns_per_byte: opts.kselect_model.cpu_per_byte(),
            wire_ns_per_byte,
            latency_ns: opts.kselect_model.latency(),
        })
    };
    k
}

/// Message tag for an opportunity: distinct per comm-site.
fn tag_for(opp: &Opportunity) -> i64 {
    let mut h: i64 = 100;
    for p in &opp.comm_path {
        h = h * 31 + *p as i64;
    }
    h.abs() % 1_000_000
}

fn extent_expr(d: &DimBound) -> Expr {
    b::add(b::sub(d.upper.clone(), d.lower.clone()), b::int(1))
}

/// Structural/affine equality, with a numeric fallback under the context.
fn affine_eq(a: &Expr, b: &Expr, ctx: &Context) -> bool {
    match (depan::affine::from_expr(a), depan::affine::from_expr(b)) {
        (Some(x), Some(y)) => {
            if x == y {
                return true;
            }
            matches!((ctx.eval(&x), ctx.eval(&y)), (Some(u), Some(v)) if u == v)
        }
        _ => matches!((eval_expr(a, ctx), eval_expr(b, ctx)), (Some(u), Some(v)) if u == v),
    }
}

/// Evaluate an integer expression under the context (handles +,-,*,/,mod).
fn eval_expr(e: &Expr, ctx: &Context) -> Option<i64> {
    match e {
        Expr::IntLit(v, _) => Some(*v),
        Expr::RealLit(..) => None,
        Expr::Var(n, _) => ctx.get(n),
        Expr::Unary { op: UnOp::Neg, operand, .. } => Some(-eval_expr(operand, ctx)?),
        Expr::Unary { .. } => None,
        Expr::Call { name, args, .. } if name == "mod" && args.len() == 2 => {
            let a = eval_expr(&args[0], ctx)?;
            let m = eval_expr(&args[1], ctx)?;
            if m == 0 {
                None
            } else {
                Some(a % m)
            }
        }
        Expr::Call { name, args, .. } if name == "min" => {
            args.iter().map(|a| eval_expr(a, ctx)).collect::<Option<Vec<_>>>()?.into_iter().min()
        }
        Expr::Call { name, args, .. } if name == "max" => {
            args.iter().map(|a| eval_expr(a, ctx)).collect::<Option<Vec<_>>>()?.into_iter().max()
        }
        Expr::Call { .. } | Expr::ArrayRef { .. } => None,
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = eval_expr(lhs, ctx)?;
            let c = eval_expr(rhs, ctx)?;
            match op {
                BinOp::Add => Some(a + c),
                BinOp::Sub => Some(a - c),
                BinOp::Mul => Some(a * c),
                BinOp::Div => {
                    if c == 0 {
                        None
                    } else {
                        Some(a / c)
                    }
                }
                _ => None,
            }
        }
    }
}

/// Substitute `var := value` in an expression (clone-based).
fn subst_expr(e: &Expr, var: &str, value: &Expr) -> Expr {
    let mut out = e.clone();
    let mut m = fir::visit::SubstVar {
        var,
        replacement: value,
    };
    fir::visit::Mutator::mutate_expr(&mut m, &mut out);
    out
}

/// Product of literal dimension extents; `None` when any is symbolic and
/// the context cannot resolve it.
fn literal_product(dims: &[DimBound], ctx: &Context) -> Option<i64> {
    let mut acc: i64 = 1;
    for d in dims {
        let lo = eval_expr(&d.lower, ctx)?;
        let hi = eval_expr(&d.upper, ctx)?;
        acc = acc.checked_mul((hi - lo + 1).max(0))?;
    }
    Some(acc)
}

fn arrays_in_main(program: &Program) -> Vec<String> {
    program
        .main
        .decls
        .iter()
        .filter(|d| d.is_array())
        .map(|d| d.name.clone())
        .collect()
}

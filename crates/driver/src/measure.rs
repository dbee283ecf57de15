//! The transform→interp→clustersim pipeline for one scenario: transform a
//! workload with the model-informed K heuristic, execute original and
//! pre-push variants on the simulated cluster, check output equivalence
//! (§4) as a side effect, and report the virtual-time figures the paper's
//! tables are built from. (Moved here from `overlap_bench` so the sweep
//! executor and the bench layer share one implementation.)

use crate::cache::CompileCache;
use crate::spec::ScenarioSpec;
use clustersim::{NetModel, NetworkModel, SimTime};
use compuniformer::kselect::ModelCaps;
use compuniformer::{transform, Options, TransformOutput, UserOracle};
use interp::{run_program, RunResult};
use workloads::Workload;

/// Measured figures for one (workload, np, model) point.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub workload: &'static str,
    /// Display name of the network model (owned: beta-sweep and
    /// congested/hetero names embed their parameters).
    pub model: String,
    pub np: usize,
    /// The tile size actually used (heuristic or requested).
    pub tile_size: Option<i64>,
    /// The communication strategy the transformation chose.
    pub strategy: Option<String>,
    pub orig: SimTime,
    pub prepush: SimTime,
    pub orig_exposed: SimTime,
    pub prepush_exposed: SimTime,
}

impl Measurement {
    pub fn speedup(&self) -> f64 {
        self.orig.as_ns() as f64 / self.prepush.as_ns().max(1) as f64
    }
}

/// Capability view of `model` for the K-selection predictor ([`ModelCaps`]):
/// effective constants under the family's assumed contention at `np` ranks.
///
/// - Uniform families expose their raw constants (exactly the four values
///   the predictor historically read);
/// - congested families expose the *bottleneck* stage's per-byte rate —
///   the link share when it is slower than the NIC — so K is chosen for
///   the bandwidth a transfer actually gets;
/// - heterogeneous families expose the worst rank's effective constants
///   (the slowest rank bounds every synchronizing exchange).
///
/// Any future family this mapping does not understand must set
/// `conservative: true` so feasible sites decline instead of shipping an
/// uncalibrated prediction.
pub fn model_caps(model: &NetworkModel, np: usize) -> ModelCaps {
    let base = ModelCaps {
        overhead_ns: Some(model.overhead.as_ns() as f64),
        cpu_ns_per_byte: Some(model.cpu_send_ns_per_byte),
        wire_ns_per_byte: Some(model.gap_ns_per_byte),
        latency_ns: Some(model.latency.as_ns() as f64),
        conservative: false,
    };
    match &model.family {
        NetModel::Uniform => base,
        NetModel::Congested { .. } => ModelCaps {
            wire_ns_per_byte: Some(model.effective_gap_ns_per_byte(np)),
            ..base
        },
        NetModel::Hetero(p) => {
            let (cpu, nic) = p.max_factors(np);
            ModelCaps {
                overhead_ns: base.overhead_ns.map(|o| o * cpu),
                cpu_ns_per_byte: base.cpu_ns_per_byte.map(|c| c * cpu),
                wire_ns_per_byte: base.wire_ns_per_byte.map(|w| w * nic),
                ..base
            }
        }
    }
}

/// The transformation options every sweep transform runs under: the
/// workload's analysis context, the assume-safe oracle, and the
/// model-informed K heuristic.
pub(crate) fn workload_options(
    w: &dyn Workload,
    model: &NetworkModel,
    tile_size: Option<i64>,
) -> Options {
    let context = w.context();
    let np = context.get("np").unwrap_or(8).max(1) as usize;
    Options {
        tile_size,
        context,
        oracle: UserOracle::AssumeSafe,
        kselect_model: model_caps(model, np),
        ..Default::default()
    }
}

/// Transform a workload with the model-informed K heuristic.
pub fn transform_workload(
    w: &dyn Workload,
    model: &NetworkModel,
    tile_size: Option<i64>,
) -> TransformOutput {
    transform(&w.program(), &workload_options(w, model, tile_size))
        .unwrap_or_else(|e| panic!("workload `{}` must transform: {e}", w.name()))
}

/// Run original + transformed under `model`, verify equivalence, measure.
pub fn measure(
    w: &dyn Workload,
    np: usize,
    model: &NetworkModel,
    tile_size: Option<i64>,
) -> Measurement {
    let program = w.program();
    let out = transform_workload(w, model, tile_size);

    let base = run_program(&program, np, model)
        .unwrap_or_else(|e| panic!("`{}` original failed: {e}", w.name()));
    let pre = run_program(&out.program, np, model)
        .unwrap_or_else(|e| panic!("`{}` transformed failed: {e}", w.name()));

    check_equivalence(w, np, &out, &base, &pre);
    build_measurement(w, np, model, &out, &base, &pre)
}

/// [`measure`], but with parse → transform → lower → opt → typecheck
/// served from `cache`: only the two simulations run. Equivalence is
/// still asserted on every call — reuse skips *compilation*, never the
/// §4 gate.
pub fn measure_cached(
    cache: &CompileCache,
    spec: &ScenarioSpec,
    w: &dyn Workload,
    model: &NetworkModel,
) -> Measurement {
    let np = spec.np;
    let base = cache
        .original(spec, w)
        .run(np, model)
        .unwrap_or_else(|e| panic!("`{}` original failed: {e}", w.name()));
    let (out, compiled) = cache.transformed(spec, w, model);
    let pre = compiled
        .run(np, model)
        .unwrap_or_else(|e| panic!("`{}` transformed failed: {e}", w.name()));

    check_equivalence(w, np, &out, &base, &pre);
    build_measurement(w, np, model, &out, &base, &pre)
}

/// Equivalence gate (§4): benchmarks must compute identical answers.
fn check_equivalence(
    w: &dyn Workload,
    np: usize,
    out: &TransformOutput,
    base: &RunResult,
    pre: &RunResult,
) {
    let excluded = out.report.incomparable_arrays();
    for rank in 0..np {
        for name in w.output_arrays() {
            if excluded.contains(&name.as_str()) {
                continue;
            }
            assert_eq!(
                base.outputs[rank].arrays.get(&name),
                pre.outputs[rank].arrays.get(&name),
                "`{}` rank {rank} array `{name}` differs",
                w.name()
            );
        }
    }
}

fn build_measurement(
    w: &dyn Workload,
    np: usize,
    model: &NetworkModel,
    out: &TransformOutput,
    base: &RunResult,
    pre: &RunResult,
) -> Measurement {
    Measurement {
        workload: w.name(),
        model: model.name.to_string(),
        np,
        tile_size: out.report.opportunities.iter().find_map(|o| o.tile_size),
        strategy: out
            .report
            .opportunities
            .iter()
            .find_map(|o| o.strategy.map(|s| s.to_string())),
        orig: base.report.makespan(),
        prepush: pre.report.makespan(),
        orig_exposed: base.report.max_exposed_comm(),
        prepush_exposed: pre.report.max_exposed_comm(),
    }
}

/// Virtual times of the untransformed program only (for
/// [`crate::spec::Variant::Original`] scenarios).
pub fn measure_original(w: &dyn Workload, np: usize, model: &NetworkModel) -> (SimTime, SimTime) {
    let r = run_program(&w.program(), np, model)
        .unwrap_or_else(|e| panic!("`{}` original failed: {e}", w.name()));
    (r.report.makespan(), r.report.max_exposed_comm())
}

/// [`measure_original`] with the compiled program served from `cache`.
pub fn measure_original_cached(
    cache: &CompileCache,
    spec: &ScenarioSpec,
    w: &dyn Workload,
    model: &NetworkModel,
) -> (SimTime, SimTime) {
    let r = cache
        .original(spec, w)
        .run(spec.np, model)
        .unwrap_or_else(|e| panic!("`{}` original failed: {e}", w.name()));
    (r.report.makespan(), r.report.max_exposed_comm())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_times_strategy_and_tile() {
        let w = workloads::direct2d::Direct2d::small(2);
        let m = measure(&w, 2, &NetworkModel::mpich_gm(), Some(8));
        assert!(m.orig > SimTime::ZERO);
        assert!(m.prepush > SimTime::ZERO);
        assert_eq!(m.np, 2);
        assert_eq!(m.tile_size, Some(8));
        assert!(m.strategy.is_some());
        assert!(m.speedup() > 0.0);
    }

    #[test]
    fn cached_measure_matches_uncached_exactly() {
        use crate::spec::{ModelSpec, SizeClass, Variant};
        let spec = ScenarioSpec {
            workload: "direct2d".into(),
            size: SizeClass::Small,
            np: 2,
            model: ModelSpec::MpichGm,
            tile_size: Some(8),
            variant: Variant::Compare,
        };
        let w = workloads::direct2d::Direct2d::small(2);
        let model = spec.model.to_model();
        let cold = measure(&w, spec.np, &model, spec.tile_size);
        let cache = CompileCache::new();
        // First call fills the cache, second is all-hit: both must agree
        // with the uncached path on every figure.
        for _ in 0..2 {
            let warm = measure_cached(&cache, &spec, &w, &model);
            assert_eq!(warm.orig, cold.orig);
            assert_eq!(warm.prepush, cold.prepush);
            assert_eq!(warm.orig_exposed, cold.orig_exposed);
            assert_eq!(warm.prepush_exposed, cold.prepush_exposed);
            assert_eq!(warm.tile_size, cold.tile_size);
            assert_eq!(warm.strategy, cold.strategy);
        }
        assert_eq!(cache.stats().hits, 2, "second call hits both entries");

        let (mo, eo) = measure_original(&w, spec.np, &model);
        let (mc, ec) = measure_original_cached(&cache, &spec, &w, &model);
        assert_eq!((mo, eo), (mc, ec));
    }

    #[test]
    fn measure_original_runs_without_transforming() {
        let w = workloads::direct::Direct1d::small(2);
        let (makespan, exposed) = measure_original(&w, 2, &NetworkModel::mpich());
        assert!(makespan > SimTime::ZERO);
        assert!(exposed <= makespan);
    }
}

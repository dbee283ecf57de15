//! The four in-process workloads. Each has a timed `pass` (one unit of
//! user-visible work) and an untimed `check` of what the pass produced.

use crate::inputs::Inputs;
use crate::stats::Reference;
use crate::trace::Tracer;
use compuniformer::{Status, TransformOutput};
use driver::cache::{CacheStats, CompileCache};
use driver::{json, ScenarioSpec, SweepGrid, SweepRecord, SweepResult};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use workloads::{fnv1a, fnv1a_extend, Workload};

/// What a pass did, as counted by its check.
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a of the simulated (or emitted) bytes: equal across passes, and
    /// what two commits compare to show that no simulated byte moved.
    pub digest: u64,
}

/// Samples of a measuring phase.
#[derive(Default)]
pub struct Measured {
    /// Wall seconds of each pass.
    pub secs: Vec<f64>,
    /// The same passes in quiet-host seconds (`Reference::quiet_host_s`), for
    /// the workloads that compute; `service_quick`, whose time is the
    /// server's sleeps, leaves it empty.
    pub quiet_secs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub digests: Vec<u64>,
}

impl Measured {
    /// The samples the metrics are taken from: quiet-host seconds where the
    /// workload has them, else wall seconds.
    pub fn samples(&self) -> &[f64] {
        if self.quiet_secs.is_empty() {
            &self.secs
        } else {
            &self.quiet_secs
        }
    }

    pub fn absorb(&mut self, other: Measured) {
        self.secs.extend(other.secs);
        self.quiet_secs.extend(other.quiet_secs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.digests.extend(other.digests);
    }
}

pub trait Bench {
    type Raw;
    fn pass(&mut self, tr: &Tracer) -> Self::Raw;
    fn check(&self, raw: Self::Raw) -> Checked;
}

/// Run `passes` passes. Only `pass` is timed; the reference kernel runs
/// between the passes.
pub fn timed_passes<B: Bench>(
    b: &mut B,
    tr: &Tracer,
    passes: usize,
    reference: Reference,
) -> Measured {
    let mut m = Measured::default();
    let mut before = reference.run();
    for _ in 0..passes {
        let t = Instant::now();
        let span = tr.span("bench.pass");
        let raw = b.pass(tr);
        drop(span);
        let wall = t.elapsed().as_secs_f64();
        let after = reference.run();
        m.secs.push(wall);
        m.quiet_secs
            .push(reference.quiet_host_s(wall, before, after));
        before = after;
        let checked = b.check(raw);
        m.attempted += checked.attempted;
        m.failed += checked.failed;
        m.digests.push(checked.digest);
    }
    m
}

pub fn make_workload(spec: &ScenarioSpec) -> Box<dyn Workload> {
    let entry = workloads::find(&spec.workload)
        .unwrap_or_else(|| panic!("workload `{}` is not in the registry", spec.workload));
    (entry.make)(spec.size, spec.np)
}

fn error_rows(records: &[SweepRecord]) -> u64 {
    let errors = records.iter().filter_map(|r| Some((r, r.error()?)));
    errors
        .inspect(|(r, e)| eprintln!("error row {}: {e}", r.spec.key()))
        .count() as u64
}

/// The normalized artifact text of a record list.
pub fn artifact_of(records: Vec<SweepRecord>) -> String {
    let summary = driver::summarize(&records, 0.0);
    json::to_json_string(
        &SweepResult {
            records,
            summary,
            timing: None,
        }
        .normalized(),
    )
}

// ------------------------------------------------------------ compile_cold

/// A fresh compile cache, then the original and the transformed program of
/// every scenario: the whole front end, no simulation.
pub struct CompileBench {
    items: Vec<(ScenarioSpec, Box<dyn Workload>, clustersim::NetworkModel)>,
    pub last_stats: CacheStats,
}

impl CompileBench {
    /// The workloads and models of the scenario list, and one warm-up pass.
    pub fn setup(inp: &Inputs) -> CompileBench {
        let item = |s: &ScenarioSpec| (s.clone(), make_workload(s), s.model.to_model());
        let mut b = CompileBench {
            items: inp.specs.iter().map(item).collect(),
            last_stats: CacheStats { hits: 0, misses: 0 },
        };
        b.pass(&Tracer::new(false));
        b
    }
}

impl Bench for CompileBench {
    type Raw = (Vec<Arc<TransformOutput>>, CacheStats);

    fn pass(&mut self, tr: &Tracer) -> Self::Raw {
        let cache = CompileCache::new();
        let mut outs = Vec::with_capacity(self.items.len());
        for (spec, w, model) in &self.items {
            {
                let _s = tr.span("driver.cache_original");
                black_box(cache.original(spec, &**w));
            }
            let _s = tr.span("driver.cache_transformed");
            outs.push(cache.transformed(spec, &**w, model).0);
        }
        self.last_stats = cache.stats();
        (outs, self.last_stats)
    }

    /// A scenario fails when the analyzer gate withdrew its transformation:
    /// the tool then ships the original program, which is fast to produce
    /// and not what was asked for.
    fn check(&self, (outs, _): Self::Raw) -> Checked {
        let mut digest = fnv1a(b"emitted-programs");
        let mut failed = 0;
        for out in &outs {
            digest = fnv1a_extend(digest, fir::unparse(&out.program).as_bytes());
            let rejected = |s: &Status| matches!(s, Status::AnalysisRejected(_));
            if out.report.opportunities.iter().any(|o| rejected(&o.status)) {
                failed += 1;
            }
        }
        Checked {
            attempted: outs.len() as u64,
            failed,
            digest,
        }
    }
}

// ------------------------------------------------ interp_np8, ranks_np256

/// `driver::run_specs` on one worker with the global compile cache warm:
/// simulation only.
pub struct SimBench {
    specs: Vec<ScenarioSpec>,
}

impl SimBench {
    /// The warm-up pass fills the global compile cache the timed passes use.
    pub fn setup(inp: &Inputs) -> SimBench {
        let mut b = SimBench {
            specs: inp.specs.clone(),
        };
        b.pass(&Tracer::new(false));
        b
    }
}

impl Bench for SimBench {
    type Raw = Vec<SweepRecord>;

    fn pass(&mut self, tr: &Tracer) -> Self::Raw {
        let _s = tr.span("driver.run_specs");
        driver::run_specs(&self.specs, 1)
    }

    fn check(&self, records: Self::Raw) -> Checked {
        let failed = error_rows(&records);
        let digest = fnv1a(artifact_of(records).as_bytes());
        Checked {
            attempted: self.specs.len() as u64,
            failed,
            digest,
        }
    }
}

// ------------------------------------------------------------ resweep_warm

/// One warm incremental re-sweep against a baseline artifact: parse it,
/// re-sweep, render, compare bytes, diff. Also the artifact stage of the
/// traced run's layer probe, on whatever grid that probe simulated.
pub fn resweep_pass(grid: &SweepGrid, baseline_text: &str, tr: &Tracer) -> ResweepRaw {
    let (baseline, _) = tr.timed("driver.json_parse", || {
        json::from_json_string(baseline_text).expect("the baseline artifact parses")
    });
    let (outcome, _) = tr.timed("driver.resweep", || {
        driver::run_sweep_incremental(grid, 1, &baseline)
    });
    let normalized = outcome.result.normalized();
    let (text, _) = tr.timed("driver.json_render", || json::to_json_string(&normalized));
    let bytes_equal = text == baseline_text;
    let (report, _) = tr.timed("driver.diff", || driver::diff(&baseline, &normalized, 0.0));
    let diff_clean = !report.has_regressions()
        && report.improvements.is_empty()
        && report.added.is_empty()
        && report.fixed.is_empty();
    ResweepRaw {
        rows: outcome.reused.len() as u64,
        reused: outcome.reused.iter().filter(|r| **r).count() as u64,
        errors: outcome.result.summary.errors as u64,
        bytes_equal,
        diff_clean,
        digest: fnv1a(text.as_bytes()),
    }
}

pub struct ResweepRaw {
    pub rows: u64,
    pub reused: u64,
    pub errors: u64,
    pub bytes_equal: bool,
    pub diff_clean: bool,
    pub digest: u64,
}

impl ResweepRaw {
    /// Rows that were not reused or came back as errors, plus one for a byte
    /// mismatch and one for a diff that is not clean.
    pub fn failed(&self) -> u64 {
        (self.rows - self.reused)
            + self.errors
            + u64::from(!self.bytes_equal)
            + u64::from(!self.diff_clean)
    }
}

pub struct ResweepBench {
    grid: SweepGrid,
    baseline_text: String,
}

impl ResweepBench {
    /// The cold sweep that makes the baseline is set-up, done once.
    pub fn setup(inp: &Inputs) -> ResweepBench {
        let cold = driver::run_sweep(&inp.grid, 1);
        assert_eq!(
            error_rows(&cold.records),
            0,
            "the cold baseline sweep has error rows"
        );
        let mut b = ResweepBench {
            grid: inp.grid.clone(),
            baseline_text: json::to_json_string(&cold.normalized()),
        };
        b.pass(&Tracer::new(false));
        b
    }
}

impl Bench for ResweepBench {
    type Raw = ResweepRaw;

    fn pass(&mut self, tr: &Tracer) -> Self::Raw {
        resweep_pass(&self.grid, &self.baseline_text, tr)
    }

    fn check(&self, raw: Self::Raw) -> Checked {
        Checked {
            attempted: raw.rows,
            failed: raw.failed(),
            digest: raw.digest,
        }
    }
}

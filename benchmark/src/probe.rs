//! The traced run's layer probe: the workload's scenario set pushed through
//! every layer by the benchmark's own calls, one span per call, so that the
//! sum of a layer's spans is what one decomposed pass spends in it.
//!
//! Stage by stage: every distinct compilation shape of the scenario set goes
//! through generate, parse, transform, analyze, lower; every scenario of
//! the simulated part runs both programs and is then run once more through
//! `driver::run_scenario_in` on a fresh cache, so that the difference is the
//! driver's own share; the records made that way go through one warm
//! re-sweep; and trivial rank machines doing only the same message traffic
//! give the simulator core's cost per message.

use crate::inputs::Inputs;
use crate::passes::{artifact_of, make_workload, resweep_pass};
use crate::trace::Tracer;
use analyzer::{verify_comm, CommCheckConfig};
use clustersim::{Bytes, Cluster, Comm, NetworkModel, RankMachine, Report, Step};
use driver::cache::{transform_model_fingerprint, CompileCache};
use driver::ScenarioSpec;
use interp::{compile_program, CompiledProgram, Options};
use std::collections::hash_map::{Entry, HashMap};
use std::hint::black_box;

type OrigKey = (String, &'static str, usize);
type XformKey = (OrigKey, Option<i64>, u64);

struct Lowered {
    program: CompiledProgram,
    /// Milliseconds of the decomposed front end that `run_scenario_in`
    /// spends too on a fresh cache.
    front_ms: f64,
}

/// What the probe found beyond its spans and counts. The first four are
/// failed operations of the run.
#[derive(Default)]
pub struct ProbeOutcome {
    pub reparse: u64,
    pub diagnostics: u64,
    pub error_rows: u64,
    pub resweep: u64,
    /// `driver::run_scenario_in` on a fresh cache minus the decomposed spans
    /// of the same scenarios: the driver's own share (cache, hash, the
    /// output-equivalence check). A difference of two timings of the same
    /// simulations, so an estimate that host noise can push below zero.
    pub scenario_self_ms: f64,
}

impl ProbeOutcome {
    pub fn failures(&self) -> u64 {
        self.reparse + self.diagnostics + self.error_rows + self.resweep
    }
}

struct FrontEnd {
    program: CompiledProgram,
    parse_ms: f64,
    verify_ms: f64,
    compile_ms: f64,
}

/// Parse, analyze, lower and type one program text; the spans carry the
/// layers' names, `verify` the analyzer span's.
fn front_end(
    tr: &Tracer,
    text: &str,
    cfg: &CommCheckConfig,
    verify: &'static str,
    found: &mut ProbeOutcome,
) -> Option<FrontEnd> {
    let (parsed, parse_ms) = tr.timed("fir.parse", || fir::parse_validated(text));
    tr.count("fir.parse_bytes", text.len() as u64);
    let program = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("an emitted program does not re-parse: {}", e.render(text));
            found.reparse += 1;
            return None;
        }
    };
    let (report, verify_ms) = tr.timed(verify, || verify_comm(&program, cfg));
    if !report.is_clean() {
        eprintln!("analyzer diagnostics:\n{}", report.render_human(text));
    }
    found.diagnostics += report.diagnostics.len() as u64;
    tr.count("analyzer.diagnostics", report.diagnostics.len() as u64);
    let (compiled, compile_ms) = tr.timed("interp.compile", || {
        compile_program(&program, &Options::default()).expect("a validated program compiles")
    });
    tr.timed("interp.typeck", || {
        black_box(interp::analyze_types(&program).is_ok())
    });
    Some(FrontEnd {
        program: compiled,
        parse_ms,
        verify_ms,
        compile_ms,
    })
}

fn note_report(tr: &Tracer, report: &Report) {
    let sum = |f: fn(&clustersim::RankStats) -> u64| report.per_rank.iter().map(f).sum::<u64>();
    tr.count("clustersim.msgs", report.total_msgs_sent());
    tr.count("clustersim.bytes", report.total_bytes_sent());
    tr.count("clustersim.alltoalls", sum(|r| r.alltoalls));
    tr.count("clustersim.barriers", sum(|r| r.barriers));
    tr.count("interp.virtual_compute_ns", sum(|r| r.compute.as_ns()));
}

/// Run the probe. The spans and counts land in `tr`.
pub fn layer_probe(inp: &Inputs, tr: &Tracer) -> ProbeOutcome {
    let mut found = ProbeOutcome::default();
    let sim_specs = inp.sim_grid.expand();
    let mut originals: HashMap<OrigKey, Lowered> = HashMap::new();
    let mut transforms: HashMap<XformKey, Lowered> = HashMap::new();
    let keys = |spec: &ScenarioSpec, model: &NetworkModel| -> (OrigKey, XformKey) {
        let okey = (spec.workload.clone(), spec.size.id(), spec.np);
        let fp = transform_model_fingerprint(model, spec.np);
        (okey.clone(), (okey, spec.tile_size, fp))
    };

    // Front end, once per distinct shape. The maps only keep the probe from
    // decomposing a shape twice; the cache's own hits and misses are counted
    // further down, by the cache.
    for spec in inp.specs.iter().chain(&sim_specs) {
        tr.begin_request();
        let w = make_workload(spec);
        let model = spec.model.to_model();
        let (okey, xkey) = keys(spec, &model);
        let cfg = CommCheckConfig::new(spec.np as i64).with_symbols(w.context_pairs());
        if let Entry::Vacant(slot) = originals.entry(okey) {
            let (source, gen_ms) = tr.timed("workloads.gen", || {
                black_box(w.context_pairs());
                w.source()
            });
            tr.count("workloads.source_bytes", source.len() as u64);
            let fe = front_end(tr, &source, &cfg, "analyzer.verify_orig", &mut found)
                .expect("a generated program parses");
            let front_ms = gen_ms + fe.parse_ms + fe.compile_ms;
            slot.insert(Lowered {
                program: fe.program,
                front_ms,
            });
        }
        if let Entry::Vacant(slot) = transforms.entry(xkey) {
            let (out, transform_ms) = tr.timed("compuniformer.transform", || {
                driver::transform_workload(&*w, &model, spec.tile_size)
            });
            let sites = &out.report.opportunities;
            let applied = out.report.applied_count() as u64;
            tr.count("compuniformer.sites_applied", applied);
            tr.count("compuniformer.sites_declined", sites.len() as u64 - applied);
            // The emitted program goes back through the front end as text:
            // it must re-parse and be analyzer-clean. This analyzer call is
            // the one `transform` already made inside, on the same program.
            let (emitted, _) = tr.timed("fir.unparse", || fir::unparse(&out.program));
            if let Some(fe) = front_end(tr, &emitted, &cfg, "analyzer.verify_prepush", &mut found) {
                let self_ms = (transform_ms - fe.verify_ms).max(0.0);
                tr.count("compuniformer.transform_self_us", (self_ms * 1e3) as u64);
                // The driver lowers the emitted program as it is; only the
                // benchmark's re-parse check goes through text.
                let front_ms = transform_ms + fe.compile_ms;
                slot.insert(Lowered {
                    program: fe.program,
                    front_ms,
                });
            }
        }
    }

    // Simulation, and the same scenarios through the driver.
    let mut records = Vec::with_capacity(sim_specs.len());
    let mut traffic: Option<(usize, Report, Report)> = None;
    for spec in &sim_specs {
        tr.begin_request();
        let model = spec.model.to_model();
        let (okey, xkey) = keys(spec, &model);
        let (Some(orig), Some(pre)) = (originals.get(&okey), transforms.get(&xkey)) else {
            continue; // its emitted program did not re-parse: counted above
        };
        let (base, orig_ms) = tr.timed("interp.run_orig", || orig.program.run(spec.np, &model));
        let (push, pre_ms) = tr.timed("interp.run_prepush", || pre.program.run(spec.np, &model));
        let (base, push) = (
            base.expect("the original runs"),
            push.expect("the pre-push program runs"),
        );
        note_report(tr, &base.report);
        note_report(tr, &push.report);
        let (record, scenario_ms) = tr.timed("driver.scenario", || {
            driver::run_scenario_in(spec, &CompileCache::new())
        });
        found.scenario_self_ms += scenario_ms - (orig.front_ms + pre.front_ms + orig_ms + pre_ms);
        if traffic.as_ref().is_none_or(|(np, ..)| spec.np > *np) {
            traffic = Some((spec.np, base.report, push.report));
        }
        records.push(record);
    }
    found.error_rows = records.iter().filter(|r| !r.is_ok()).count() as u64;

    // Artifact layer: hash, expand, and one warm re-sweep of those records.
    tr.begin_request();
    tr.timed("driver.hash", || {
        for spec in &sim_specs {
            black_box(driver::scenario_input_hash(spec));
        }
    });
    let toml = driver::grid_to_toml(&inp.grid);
    tr.timed("driver.grid_expand", || {
        black_box(
            driver::grid_from_toml(&toml)
                .expect("a written grid reads back")
                .expand(),
        )
    });
    if records.len() == sim_specs.len() {
        let baseline_text = artifact_of(records);
        tr.count("driver.artifact_bytes", baseline_text.len() as u64);
        let raw = resweep_pass(&inp.sim_grid, &baseline_text, tr);
        tr.count("driver.reused_rows", raw.reused);
        tr.count("driver.resimulated_rows", raw.rows - raw.reused);
        found.resweep = raw.failed();
    }

    // The scenario set through a fresh compile cache: its own count of hits
    // and misses, then a warm call, 1000 times under one span.
    let cache = CompileCache::new();
    for spec in &inp.specs {
        let w = make_workload(spec);
        black_box(cache.original(spec, &*w));
        black_box(cache.transformed(spec, &*w, &spec.model.to_model()));
    }
    let lookups = cache.stats();
    tr.count("driver.cache_hits", lookups.hits);
    tr.count("driver.cache_misses", lookups.misses);
    let spec = &inp.specs[0];
    let w = make_workload(spec);
    let model = spec.model.to_model();
    tr.timed("driver.cache_hit", || {
        for _ in 0..500 {
            black_box(cache.original(spec, &*w));
            black_box(cache.transformed(spec, &*w, &model));
        }
    });

    if let Some((np, base, push)) = traffic {
        synthetic_traffic(tr, np, &base, &push);
    }
    tr.count(
        "clustersim.pool_workers_high_water",
        clustersim::pool::stats().workers_high_water as u64,
    );
    found
}

// ------------------------------------------------- simulator core alone

/// A rank that is done at once: what a run costs before any rank works.
struct Idle;

impl RankMachine for Idle {
    type Out = ();
    fn step(&mut self, _: &mut Comm) -> Step<()> {
        Step::Done(())
    }
}

/// `rounds` alltoalls of `bytes` per partner and nothing else.
struct Alltoalls {
    rounds: u64,
    bytes: usize,
    in_flight: bool,
}

impl RankMachine for Alltoalls {
    type Out = ();
    fn step(&mut self, comm: &mut Comm) -> Step<()> {
        loop {
            if self.in_flight {
                if comm.poll_alltoall().is_none() {
                    return Step::Blocked;
                }
                self.in_flight = false;
                self.rounds -= 1;
            }
            if self.rounds == 0 {
                return Step::Done(());
            }
            let payloads = (0..comm.np())
                .map(|_| Bytes::from(vec![1u8; self.bytes]))
                .collect();
            comm.alltoall_begin(payloads);
            self.in_flight = true;
        }
    }
}

/// `msgs` sends of `bytes`, dealt round-robin over the other ranks, and the
/// matching receives; one `mpi_waitall` at the end.
struct PointToPoint {
    msgs: u64,
    bytes: usize,
    posted: bool,
}

impl RankMachine for PointToPoint {
    type Out = ();
    fn step(&mut self, comm: &mut Comm) -> Step<()> {
        let (me, np) = (comm.rank(), comm.np());
        if !self.posted {
            self.posted = true;
            for i in 0..self.msgs as usize {
                let hop = 1 + i % (np - 1);
                let tag = (i / (np - 1)) as i64;
                comm.isend((me + hop) % np, tag, Bytes::from(vec![1u8; self.bytes]));
                comm.irecv((me + np - hop) % np, tag);
            }
        }
        if comm.poll_wait_all_recvs().is_none() {
            return Step::Blocked;
        }
        comm.drain_sends();
        Step::Done(())
    }
}

/// Rank machines that do only the message traffic of the largest simulated
/// scenario (its original's alltoalls, its pre-push program's sends), at its
/// rank count, against a run of ranks that do nothing.
fn synthetic_traffic(tr: &Tracer, np: usize, base: &Report, push: &Report) {
    let per_rank = |total: u64| total / np as u64;
    let avg_bytes = |r: &Report| (r.total_bytes_sent() / r.total_msgs_sent().max(1)) as usize;
    let alltoalls = |r: &Report| r.per_rank.iter().map(|s| s.alltoalls).sum::<u64>();
    let rounds = per_rank(alltoalls(base));
    let sends = per_rank(
        push.total_msgs_sent()
            .saturating_sub(alltoalls(push) * (np as u64 - 1)),
    );
    let cluster = Cluster::new(np, NetworkModel::mpich_gm());
    for _ in 0..3 {
        tr.begin_request();
        tr.timed("clustersim.empty_run", || {
            cluster
                .run_resumable(None, |_| Idle)
                .expect("idle ranks run")
        });
        tr.timed("clustersim.synthetic_alltoall", || {
            let mk = |_: &mut Comm| Alltoalls {
                rounds,
                bytes: avg_bytes(base),
                in_flight: false,
            };
            cluster.run_resumable(None, mk).expect("alltoall ranks run")
        });
        if np > 1 {
            tr.timed("clustersim.synthetic_p2p", || {
                let mk = |_: &mut Comm| PointToPoint {
                    msgs: sends,
                    bytes: avg_bytes(push),
                    posted: false,
                };
                cluster
                    .run_resumable(None, mk)
                    .expect("point-to-point ranks run")
            });
        }
    }
    tr.count(
        "clustersim.synthetic_msgs",
        np as u64 * (rounds * (np as u64 - 1) + sends),
    );
}

//! The overlap suite's host benchmark: five workloads, each run in a process
//! of its own, that check what the program produced and print every metric
//! by name with its unit. See `README.md` beside this package for what each
//! workload stresses and how the numbers relate.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench --selfcheck [--seconds S]
//! ```
//!
//! `--setup-only` is what an untraced run passes to the child processes that
//! repeat its set-up: they stop where the first timed pass would begin.
//! `--reference THREADS` runs the reference kernel alone and prints its
//! seconds: the run before a set-up is done that way, in a process of its
//! own, so that the kernel's memory stays out of `peak_rss_mb`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).

mod inputs;
mod passes;
mod probe;
mod service;
mod stats;
mod trace;

use inputs::{Inputs, WorkloadId};
use passes::{timed_passes, CompileBench, Measured, ResweepBench, SimBench};
use service::ServiceBench;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

/// What a `--setup-only` child prints before its two numbers.
const SETUP_ONLY: &str = "setup-only:";
/// What a `--reference` child prints before its seconds.
const REFERENCE_ONLY: &str = "reference:";
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    setup_only: bool,
    reference_only: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: false,
        setup_only: false,
        reference_only: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WorkloadId::ALL.map(WorkloadId::name).join(", ");
                args.workload = Some(
                    WorkloadId::parse(&name)
                        .ok_or(format!("unknown workload `{name}` (known: {known})"))?,
                );
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("--seconds must not be negative".into());
                }
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            },
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--setup-only" => args.setup_only = true,
            "--reference" => {
                args.reference_only = Some(
                    value("a thread count")?
                        .parse()
                        .map_err(|e| format!("--reference: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_none() && !args.selfcheck && args.reference_only.is_none() {
        return Err("give --workload NAME or --selfcheck".into());
    }
    Ok(args)
}

/// The repository checkout: the parent of this package when cargo runs the
/// benchmark, else the working directory.
fn repo_root() -> PathBuf {
    let root = match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => Path::new(&dir).join(".."),
        None => PathBuf::from("."),
    };
    root.canonicalize().unwrap_or(root)
}

/// The commit of the checkout, when it is a git repository. Git may not look
/// for one above the checkout: a run reads nothing outside it.
fn commit(root: &Path) -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent()?)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Name, value, unit.
type Metric = (&'static str, f64, &'static str);

enum Running {
    Compile(CompileBench),
    Sim(SimBench),
    Resweep(ResweepBench),
    Service(ServiceBench),
}

impl Running {
    /// Set-up: inputs from the seed, the state the passes need, and one
    /// warm-up pass.
    fn setup(id: WorkloadId, args: &Args, root: &Path) -> Result<(Inputs, Running), String> {
        let inp = inputs::inputs(id, args.seed, args.smoke, root)?;
        let running = match id {
            WorkloadId::CompileCold => Running::Compile(CompileBench::setup(&inp)),
            WorkloadId::InterpNp8 | WorkloadId::RanksNp256 => Running::Sim(SimBench::setup(&inp)),
            WorkloadId::ResweepWarm => Running::Resweep(ResweepBench::setup(&inp)),
            WorkloadId::ServiceQuick => Running::Service(ServiceBench::setup(root, args.seed)?),
        };
        Ok((inp, running))
    }

    /// `passes` timed passes (`service_quick`: jobs of each client), with
    /// the workload's reference kernel between them.
    fn measure(&mut self, id: WorkloadId, tr: &Tracer, passes: usize) -> Measured {
        let reference = || {
            id.reference()
                .expect("every workload but service_quick has a reference")
        };
        match self {
            Running::Compile(b) => timed_passes(b, tr, passes, reference()),
            Running::Sim(b) => timed_passes(b, tr, passes, reference()),
            Running::Resweep(b) => timed_passes(b, tr, passes, reference()),
            Running::Service(b) => b.measure(tr, passes),
        }
    }
}

/// Print the host fingerprint, the metrics and the result line. The exit
/// code is 0 only when the outputs were correct.
fn report(metrics: &[Metric], m: &Measured, root: &Path) -> ExitCode {
    println!(
        "host: nproc {}, {}, clustersim pool capacity {}, commit {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("BENCH_RUSTC_VERSION"),
        clustersim::pool::capacity(),
        commit(root).unwrap_or_else(|| "unknown".into()),
    );
    let same_digest = m.digests.windows(2).all(|w| w[0] == w[1]);
    let correct =
        m.failed == 0 && same_digest && metrics.iter().all(|(_, value, _)| value.is_finite());
    for (name, value, unit) in metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "failed_share {} ({} of {} operations)",
        m.failed as f64 / m.attempted as f64,
        m.failed,
        m.attempted
    );
    println!(
        "virtual_digest {:016x} ({} across {} passes)",
        m.digests[0],
        if same_digest {
            "identical"
        } else {
            "DIFFERENT"
        },
        m.digests.len()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Rounds of the status phase; `status_rps` is the median round.
const STATUS_ROUNDS: usize = 5;

/// The two end-to-end numbers only the service gives: status requests a
/// second from the closed-loop clients (median of `STATUS_ROUNDS` rounds of
/// `per_client` requests each), then the median seconds from a submit to the
/// first byte of its first event. Their operations are counted on `m`.
fn service_phases(
    svc: &ServiceBench,
    per_client: usize,
    event_jobs: usize,
    m: &mut Measured,
) -> Result<(f64, f64), String> {
    let (status_rps, status_failed) = svc.status_phase(STATUS_ROUNDS, per_client);
    let (first_event_s, events_failed) = svc.events_phase(event_jobs);
    m.attempted += (STATUS_ROUNDS * per_client * svc.clients() + event_jobs) as u64;
    m.failed += status_failed + events_failed;
    if first_event_s.is_empty() {
        return Err("no job could be followed through its event stream".into());
    }
    println!(
        "status_rps from {STATUS_ROUNDS} rounds of {} x {per_client} requests ({status_rps:.1?} 1/s), \
         first_event_s from {} jobs",
        svc.clients(),
        first_event_s.len()
    );
    Ok((stats::median(&status_rps), stats::median(&first_event_s)))
}

/// Run this program again with `args` and read the numbers that follow
/// `prefix` on the last line it prints.
fn child_numbers<const N: usize>(args: &[String], prefix: &str) -> Result<[f64; N], String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let numbers = || {
        let mut words = text.lines().last()?.strip_prefix(prefix)?.split(' ');
        let mut found = [0.0; N];
        for slot in &mut found {
            *slot = words.find(|w| !w.is_empty())?.parse().ok()?;
        }
        Some(found)
    };
    numbers().filter(|_| out.status.success()).ok_or(format!(
        "the child process `{}` failed:\n{text}",
        args.join(" ")
    ))
}

/// One more set-up of the same workload and seed, in a process of its own:
/// its seconds and its peak memory.
fn child_setup(id: WorkloadId, args: &Args) -> Result<(f64, f64), String> {
    let mut child = vec!["--workload".into(), id.name().into()];
    child.extend([
        "--seed".into(),
        args.seed.to_string(),
        "--setup-only".into(),
    ]);
    if args.smoke {
        child.push("--smoke".into());
    }
    let [setup_s, rss_mb] = child_numbers(&child, SETUP_ONLY)?;
    Ok((setup_s, rss_mb))
}

/// `--trace 0`: set up, run the timed passes with tracing off, take the
/// service's two numbers, and set up again in child processes. `setup_s` and
/// `peak_rss_mb` are the medians over those set-ups. The times of the four
/// workloads that compute are in quiet-host seconds
/// (`Reference::quiet_host_s`); `service_quick` reports wall seconds.
///
/// The reference kernel holds some 14 MB on two threads, more than
/// `interp_np8` itself. Before the set-up it therefore runs in a child
/// process, as cold as it ran here, and `peak_rss_mb` is read before it runs
/// again: the metric is the program's memory alone.
fn run_untraced(
    id: WorkloadId,
    args: &Args,
    root: &Path,
    started: Instant,
) -> Result<ExitCode, String> {
    let reference = id.reference();
    let before = match reference {
        Some(r) => {
            let [secs] = child_numbers(
                &["--reference".into(), r.threads.to_string()],
                REFERENCE_ONLY,
            )?;
            secs
        }
        None => 0.0,
    };
    let in_child = started.elapsed().as_secs_f64();
    let (_, mut running) = Running::setup(id, args, root)?;
    // Set-up ends where the first timed pass begins.
    let setup_wall = started.elapsed().as_secs_f64() - in_child;
    let rss_mb = stats::peak_rss_mb();
    let setup_s = match reference {
        Some(r) => r.quiet_host_s(setup_wall, before, r.run()),
        None => setup_wall,
    };
    if args.setup_only {
        println!("{SETUP_ONLY} {setup_s} {rss_mb}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut setups = vec![(setup_s, rss_mb)];
    let passes = if args.smoke {
        1
    } else {
        id.passes(args.seconds)
    };
    let mut m = running.measure(id, &Tracer::new(false), passes);
    if let Running::Compile(b) = &running {
        println!("compile cache of the last pass: {:?}", b.last_stats);
    }

    // `service_quick` asks the server its jobs went through; the other
    // workloads bring one up for a shorter round of the same requests, as
    // every workload reports every end-to-end metric.
    let scale = |n: usize| if args.smoke { 3 } else { n };
    let (status_rps, first_event_s) = match &running {
        Running::Service(svc) => service_phases(svc, scale(200), scale(50), &mut m)?,
        _ => {
            let svc = ServiceBench::setup(root, args.seed)?;
            service_phases(&svc, scale(60), scale(20), &mut m)?
        }
    };
    drop(running);
    for _ in 1..id.setups() {
        setups.push(child_setup(id, args)?);
    }

    let (setup_s, rss_mb): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
    let samples = m.samples();
    // A percentile needs ten samples beyond it (the metrics guide); with
    // fewer the slowest few passes are noise, and the metric repeats the
    // median.
    let beyond_p95 = samples.len() - (0.95 * samples.len() as f64).ceil() as usize;
    let pass_p95_s = if beyond_p95 >= 10 {
        stats::percentile(samples, 95.0)
    } else {
        stats::median(samples)
    };
    println!(
        "passes: n={}, wall median {:.6} s, min {:.6} s, {beyond_p95} beyond the 95th percentile{}; \
         first set-up {setup_wall:.4} s wall; set-ups {setup_s:.4?} s, {rss_mb:.1?} MB; at exit {:.1} MB",
        m.secs.len(),
        stats::median(&m.secs),
        stats::min(&m.secs),
        if beyond_p95 >= 10 {
            ""
        } else {
            " (fewer than ten: pass_p95_s repeats the median)"
        },
        stats::peak_rss_mb()
    );
    if let Some(r) = reference {
        let around: Vec<f64> = (m.secs.iter().zip(&m.quiet_secs))
            .map(|(wall, quiet)| wall / quiet * r.quiet_s())
            .collect();
        println!(
            "reference kernel ({} thread(s)) around the passes: median {:.5} s, {:.5} s on a quiet host",
            r.threads,
            stats::median(&around),
            r.quiet_s()
        );
    }
    let metrics = [
        ("pass_s", stats::median(samples), "s"),
        ("pass_p95_s", pass_p95_s, "s"),
        ("status_rps", status_rps, "1/s"),
        ("first_event_s", first_event_s, "s"),
        ("peak_rss_mb", stats::median(&rss_mb), "MB"),
        ("setup_s", stats::median(&setup_s), "s"),
    ];
    Ok(report(&metrics, &m, root))
}

/// `--trace 1`: alternate untraced and traced passes for the tracing
/// overhead, run the service probes and the layer probe under spans, write
/// the spans out, and report the per-layer metrics.
fn run_traced(id: WorkloadId, args: &Args, root: &Path) -> Result<ExitCode, String> {
    let (inp, mut running) = Running::setup(id, args, root)?;
    let (off, tr) = (Tracer::new(false), Tracer::new(true));
    let (mut untraced, mut traced) = (Measured::default(), Measured::default());
    let passes = if args.smoke {
        1
    } else {
        id.passes(args.seconds).div_ceil(8)
    };
    for _ in 0..2 {
        untraced.absorb(running.measure(id, &off, passes));
        traced.absorb(running.measure(id, &tr, passes));
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let traced_pass_s = stats::median(traced.samples());
    let overhead = traced_pass_s / stats::median(untraced.samples());
    let mut m = Measured::default();
    m.absorb(untraced);
    m.absorb(traced);

    // `service_quick` probes the server its jobs went through; the others
    // bring one up for a short loop of the same jobs.
    let direct_jobs = if args.smoke { 3 } else { 20 };
    let probes = |svc: &ServiceBench| {
        svc.parse_probe(&tr, 1000);
        svc.jobcore_direct(&tr, direct_jobs)
    };
    m.attempted += direct_jobs as u64;
    m.failed += match &running {
        Running::Service(svc) => probes(svc),
        _ => {
            let svc = ServiceBench::setup(root, args.seed)?;
            let jobs = svc.measure(&tr, if args.smoke { 2 } else { 10 });
            m.attempted += jobs.attempted;
            jobs.failed + probes(&svc)
        }
    };

    let found = probe::layer_probe(&inp, &tr);
    m.attempted += inp.specs.len() as u64;
    m.failed += found.failures();
    println!(
        "layer probe: {} emitted programs did not re-parse, {} analyzer diagnostics, {} error rows, {} re-sweep failures",
        found.reparse, found.diagnostics, found.error_rows, found.resweep
    );

    let out = root.join(format!(
        "benchmark/out/{}-seed{}.spans.json",
        id.name(),
        args.seed
    ));
    let header = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"smoke\": {}",
        id.name(),
        args.seed,
        args.smoke
    );
    tr.write_to(&out, &header)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("spans written to {}", out.display());

    let ms = |name: &str| tr.sum_ms(name);
    let n = |name: &str| tr.counted(name) as f64;
    let run_ms = ms("interp.run_orig") + ms("interp.run_prepush");
    let empty_ms = tr.median_ms("clustersim.empty_run");
    let a2a_ms = tr.median_ms("clustersim.synthetic_alltoall");
    let p2p_ms = if tr.span_count("clustersim.synthetic_p2p") > 0 {
        tr.median_ms("clustersim.synthetic_p2p")
    } else {
        empty_ms
    };
    let us_per_msg = ((a2a_ms - empty_ms) + (p2p_ms - empty_ms)).max(0.0) * 1e3
        / n("clustersim.synthetic_msgs").max(1.0);
    let sites = n("compuniformer.sites_applied") + n("compuniformer.sites_declined");
    let lookups = n("driver.cache_hits") + n("driver.cache_misses");
    let metrics = [
        ("process.peak_rss_mb", peak_rss_mb, "MB"),
        ("trace.pass_s", traced_pass_s, "s"),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("workloads.gen_ms", ms("workloads.gen"), "ms"),
        (
            "workloads.source_bytes",
            n("workloads.source_bytes"),
            "bytes",
        ),
        ("fir.parse_ms", ms("fir.parse"), "ms"),
        (
            "fir.parse_mb_per_s",
            n("fir.parse_bytes") / 1e3 / ms("fir.parse"),
            "MB/s",
        ),
        ("fir.unparse_ms", ms("fir.unparse"), "ms"),
        (
            "compuniformer.transform_ms",
            ms("compuniformer.transform"),
            "ms",
        ),
        (
            "compuniformer.transform_self_ms",
            n("compuniformer.transform_self_us") / 1e3,
            "ms",
        ),
        (
            "compuniformer.sites_applied",
            n("compuniformer.sites_applied"),
            "count",
        ),
        (
            "compuniformer.sites_declined",
            n("compuniformer.sites_declined"),
            "count",
        ),
        (
            "compuniformer.applied_ratio",
            n("compuniformer.sites_applied") / sites,
            "ratio",
        ),
        ("analyzer.verify_orig_ms", ms("analyzer.verify_orig"), "ms"),
        (
            "analyzer.verify_prepush_ms",
            ms("analyzer.verify_prepush"),
            "ms",
        ),
        ("analyzer.diagnostics", n("analyzer.diagnostics"), "count"),
        ("interp.compile_ms", ms("interp.compile"), "ms"),
        ("interp.typeck_ms", ms("interp.typeck"), "ms"),
        ("interp.run_orig_ms", ms("interp.run_orig"), "ms"),
        ("interp.run_prepush_ms", ms("interp.run_prepush"), "ms"),
        (
            "interp.virtual_compute_ns",
            n("interp.virtual_compute_ns"),
            "ns",
        ),
        (
            "interp.compute_vns_per_host_us",
            n("interp.virtual_compute_ns") / (run_ms * 1e3),
            "ns/us",
        ),
        ("clustersim.msgs", n("clustersim.msgs"), "count"),
        ("clustersim.bytes", n("clustersim.bytes"), "bytes"),
        ("clustersim.alltoalls", n("clustersim.alltoalls"), "count"),
        ("clustersim.barriers", n("clustersim.barriers"), "count"),
        ("clustersim.empty_run_ms", empty_ms, "ms"),
        ("clustersim.synthetic_alltoall_ms", a2a_ms, "ms"),
        ("clustersim.synthetic_p2p_ms", p2p_ms, "ms"),
        ("clustersim.us_per_msg", us_per_msg, "us"),
        (
            "clustersim.est_share",
            n("clustersim.msgs") * us_per_msg / 1e3 / run_ms,
            "ratio",
        ),
        (
            "clustersim.pool_workers_high_water",
            n("clustersim.pool_workers_high_water"),
            "count",
        ),
        ("driver.cache_hits", n("driver.cache_hits"), "count"),
        ("driver.cache_misses", n("driver.cache_misses"), "count"),
        (
            "driver.cache_hit_ratio",
            n("driver.cache_hits") / lookups,
            "ratio",
        ),
        ("driver.cache_hit_us", ms("driver.cache_hit"), "us"),
        ("driver.scenario_self_ms_est", found.scenario_self_ms, "ms"),
        ("driver.hash_ms", ms("driver.hash"), "ms"),
        (
            "driver.json_parse_ms",
            tr.median_ms("driver.json_parse"),
            "ms",
        ),
        (
            "driver.json_render_ms",
            tr.median_ms("driver.json_render"),
            "ms",
        ),
        ("driver.artifact_bytes", n("driver.artifact_bytes"), "bytes"),
        ("driver.diff_ms", tr.median_ms("driver.diff"), "ms"),
        ("driver.grid_expand_ms", ms("driver.grid_expand"), "ms"),
        ("driver.reused_rows", n("driver.reused_rows"), "count"),
        (
            "driver.resimulated_rows",
            n("driver.resimulated_rows"),
            "count",
        ),
        (
            "service.submit_ms_p50",
            tr.median_ms("service.submit"),
            "ms",
        ),
        (
            "service.status_ms_p50",
            tr.median_ms("service.status"),
            "ms",
        ),
        (
            "service.artifact_ms_p50",
            tr.median_ms("service.artifact"),
            "ms",
        ),
        (
            "service.connect_ms_p50",
            tr.median_ms("service.connect"),
            "ms",
        ),
        (
            "service.polls_per_job",
            n("service.polls") / tr.span_count("service.job") as f64,
            "count",
        ),
        (
            "service.http_parse_us",
            ms("service.http_parse") * 1e3 / n("service.http_parse_calls"),
            "us",
        ),
        ("service.non_2xx", n("service.non_2xx"), "count"),
        (
            "service.jobcore_direct_ms_p50",
            tr.median_ms("service.jobcore_direct"),
            "ms",
        ),
    ];
    Ok(report(&metrics, &m, root))
}

/// One child run: its standard output, which ends in the result line.
fn child_run(exe: &Path, id: WorkloadId, seed: u64, seconds: f64) -> Result<String, String> {
    let out = Command::new(exe)
        .args([
            "--workload",
            id.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(text)
    } else {
        Err(format!("{} on seed {seed} failed:\n{text}", id.name()))
    }
}

fn result_value(stdout: &str, name: &str) -> Option<f64> {
    let doc = driver::json::parse_json(stdout.lines().last()?).ok()?;
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn digest_line(stdout: &str) -> Option<&str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("virtual_digest ")?.split(' ').next())
}

/// `--selfcheck`: every workload twice on seed 1 and once on seed 2, each in
/// its own process. Same-seed runs must agree within each end-to-end
/// metric's bound and on the virtual digest.
fn selfcheck(args: &Args, root: &Path) -> Result<ExitCode, String> {
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = driver::json::parse_json(&spec)?;
    let Some(driver::json::Json::Arr(end_to_end)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut agree = true;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>6}  {:>12}",
        "workload", "metric", "seed 1", "seed 1 again", "differ", "bound", "seed 2"
    );
    for id in WorkloadId::ALL {
        let runs = [
            child_run(&exe, id, 1, args.seconds)?,
            child_run(&exe, id, 1, args.seconds)?,
            child_run(&exe, id, 2, args.seconds)?,
        ];
        for m in end_to_end {
            let name = m
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("a metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(|b| b.as_f64())
                .ok_or("a metric without a bound")?;
            let value = |i: usize| {
                result_value(&runs[i], name).ok_or(format!("{} printed no {name}", id.name()))
            };
            let (a, b, c) = (value(0)?, value(1)?, value(2)?);
            let differ = (b - a).abs() / a;
            agree &= differ <= bound;
            println!(
                "{:<14} {:<12} {:>12.5} {:>12.5} {:>7.2}% {:>5.0}%  {:>12.5}",
                id.name(),
                name,
                a,
                b,
                differ * 100.0,
                bound * 100.0,
                c
            );
        }
        let same =
            digest_line(&runs[0]).is_some() && digest_line(&runs[0]) == digest_line(&runs[1]);
        agree &= same;
        println!(
            "{:<14} virtual_digest {} on both seed-1 runs",
            id.name(),
            if same { "identical" } else { "DIFFERENT" }
        );
    }
    println!(
        "{}",
        if agree {
            "selfcheck: same-seed runs agree within every bound"
        } else {
            "selfcheck: FAILED"
        }
    );
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(threads) = args.reference_only {
        println!("{REFERENCE_ONLY} {}", stats::Reference { threads }.run());
        return ExitCode::SUCCESS;
    }
    let root = repo_root();
    if let Some(id) = args.workload {
        println!(
            "workload {} seed {} seconds {} trace {} smoke {}",
            id.name(),
            args.seed,
            args.seconds,
            args.trace,
            args.smoke
        );
    }
    let outcome = match args.workload {
        _ if args.selfcheck => selfcheck(&args, &root),
        Some(id) if args.trace => run_traced(id, &args, &root),
        Some(id) => run_untraced(id, &args, &root, started),
        None => unreachable!("parse_args wants a workload or --selfcheck"),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::FAILURE
    })
}

//! The reproduction harness: regenerates every figure of the paper plus
//! the DESIGN.md ablations, now as declarative grids over the sweep
//! engine (`driver`, a.k.a. `overlap_suite::sweep`).
//!
//! ```text
//! cargo run --release -p overlap-bench --bin harness -- <experiment>
//!
//! experiments:
//!   fig1          performance improvement achieved by pre-pushing
//!   fig2          direct-pattern code before/after (listing)
//!   fig3          indirect-pattern code before/after (listing)
//!   fig4          the generated communication loop (listing)
//!   correctness   §4: transformed output identical to original
//!   ablation-k    execution time vs tile size K (U-curve)
//!   scaling       speedup vs rank count
//!   model-sweep   speedup vs per-byte CPU involvement β
//!   interchange   node-loop-outermost: interchange vs fallback
//!   all           everything above, in order
//!
//! sweep subcommands:
//!   sweep [--grid FILE.toml] [--threads N] [--out PATH] [--wall-out PATH]
//!         [--baseline OLD.json] [--incremental] [--tol F] [--md-out PATH]
//!                                      full evaluation grid (np up to 64,
//!                                      rdma-ideal column, U-curve tile axis),
//!                                      in parallel; writes the
//!                                      BENCH_sweep.json artifact. --grid
//!                                      swaps in a declarative scenario file
//!                                      (scenarios/*.toml) instead of the
//!                                      compiled-in grid; --wall-out also
//!                                      writes the non-normalized artifact
//!                                      with the `timing` section; --baseline
//!                                      diffs the fresh run against OLD.json
//!                                      and exits 1 on virtual-time
//!                                      regressions (one-shot regression
//!                                      gate), with --md-out writing that
//!                                      diff as a markdown report;
//!                                      --incremental (needs --baseline)
//!                                      re-simulates only the scenarios whose
//!                                      `input_hash` moved since the baseline
//!                                      and reuses every other row — the
//!                                      artifact is byte-identical to a cold
//!                                      full run, in seconds instead of
//!                                      minutes (error rows and rows without
//!                                      a hash are never reused)
//!   quick [--grid FILE.toml] [--threads N] [--out PATH] [--wall-out PATH]
//!         [--baseline OLD.json] [--tol F] [--md-out PATH]
//!                                      tiny smoke grid (seconds); same
//!                                      artifact schema — the verify gate
//!                                      and the golden test run this
//!   diff <a.json> <b.json> [--tol F] [--grid FILE.toml] [--md-out PATH]
//!                                      compare two artifacts; exit 1 on
//!                                      virtual-time regressions beyond the
//!                                      fractional tolerance F (default 0).
//!                                      --grid restricts the comparison to
//!                                      the scenarios a grid file expands to;
//!                                      --md-out writes the report as
//!                                      markdown (status flips, movements,
//!                                      per-model geomean table)
//!   diff --wall <a.json> <b.json>      compare the host wall-clock `timing`
//!                                      sections of two --wall-out artifacts
//!                                      (the per-PR perf trajectory under
//!                                      perf/): per-scenario movements plus
//!                                      totals. Informational only — wall
//!                                      clock varies across machines, so
//!                                      this never fails the gate
//!   analyze [--np N] [--size small|medium|standard] [--json]
//!                                      statically analyze every registry
//!                                      workload — the original program and
//!                                      the pre-push program emitted under
//!                                      each preset network model — for
//!                                      communication safety (unmatched
//!                                      isend/irecv, in-flight buffer
//!                                      hazards, rank-divergent collectives)
//!                                      and slot-level types. Prints one
//!                                      line per program (or a JSON array
//!                                      with --json) and exits 1 if any
//!                                      program has diagnostics
//!
//! network models (the `models` axis of --grid scenario files):
//!   mpich                  TCP-like stack; per-byte send AND receive CPU
//!   mpich-gm               Myrinet/GM RDMA stack; near-zero per-byte CPU
//!   rdma-ideal             zero-overhead upper bound (ablation column)
//!   mpich-beta:<factor>    mpich with per-byte CPU scaled by <factor>
//!                          (finite, >= 0); the β involvement sweep
//!   congested:<links>:<load>
//!                          mpich-gm behind a shared switch spine of
//!                          <links> physical links (>= 1) at <load>x
//!                          background load (finite, > 0): every message
//!                          also crosses a link stage serialized at
//!                          gap x ceil(np/links) x load ns/byte
//!   hetero:<profile>       mpich-gm on a heterogeneous cluster;
//!                          profiles: half-slow (upper half of ranks 2x
//!                          slower CPU and NIC), straggler (last rank 4x
//!                          CPU, 2x NIC)
//! ```
//!
//! Every experiment grid runs through [`driver::run_sweep`]: scenarios
//! execute in parallel on a work-stealing pool, results come back in
//! deterministic grid order, and a panicking scenario becomes an error
//! row instead of killing the run.

use compuniformer::{transform, Options};
use depan::Context;
use driver::client::{self, DiffOptions, SweepOptions};
use driver::{run_sweep, ModelSpec, SizeClass, SweepGrid, SweepRecord, SweepResult};
use clustersim::SimTime;
use overlap_bench::{render_fig1, transform_workload, Fig1Rows};
use workloads::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let rest = &args[1.min(args.len())..];
    match cmd {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "correctness" => correctness(),
        "ablation-k" => ablation_k(),
        "scaling" => scaling(),
        "model-sweep" => model_sweep(),
        "interchange" => interchange(),
        "sweep" => sweep_cmd(SweepGrid::full(), rest),
        "quick" => sweep_cmd(SweepGrid::quick(), rest),
        "diff" => diff_cmd(rest),
        "analyze" => analyze_cmd(rest),
        "all" => {
            fig1();
            fig2();
            fig3();
            fig4();
            correctness();
            ablation_k();
            scaling();
            model_sweep();
            interchange();
        }
        other => {
            eprintln!("unknown experiment `{other}`; see the module docs");
            std::process::exit(2);
        }
    }
}

fn hr(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Find the record for one grid point (the experiments below know their
/// grids are total, so a miss is a bug). An error row aborts here with
/// the scenario's own message — the figure printers downstream can then
/// rely on the measurement fields being present.
fn rec<'a>(
    result: &'a SweepResult,
    workload: &str,
    np: usize,
    model: &ModelSpec,
    tile_size: Option<i64>,
) -> &'a SweepRecord {
    let r = result
        .records
        .iter()
        .find(|r| {
            r.spec.workload == workload
                && r.spec.np == np
                && r.spec.model == *model
                && r.spec.tile_size == tile_size
        })
        .unwrap_or_else(|| panic!("no record for {workload} np={np} {}", model.id()));
    if let Some(e) = r.error() {
        panic!("scenario {} failed: {e}", r.spec.key());
    }
    r
}

/// Abort with every failing row's key and error (not just a count).
fn require_clean(result: &SweepResult, what: &str) {
    if result.summary.errors == 0 {
        return;
    }
    for r in &result.records {
        if let Some(e) = r.error() {
            eprintln!("{what}: {} failed: {e}", r.spec.key());
        }
    }
    panic!("{what}: {} scenario(s) failed", result.summary.errors);
}

/// The descriptive display name of a registry workload.
fn display_name(name: &str, size: SizeClass, np: usize) -> &'static str {
    let entry = workloads::find(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    (entry.make)(size, np).name()
}

fn sim(ns: Option<u64>) -> SimTime {
    SimTime::from_ns(ns.expect("compare record carries both virtual times"))
}

// ------------------------------------------------------------ sweep CLI

struct SweepFlags {
    threads: usize,
    out: String,
    wall_out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    grid: Option<String>,
    md_out: Option<String>,
    /// `diff --wall`: compare host wall-clock timing sections instead of
    /// virtual times.
    wall: bool,
    /// `sweep --incremental`: reuse baseline rows with matching
    /// `input_hash`, re-simulating only moved cells.
    incremental: bool,
}

/// Parse flags, accepting only the ones the subcommand supports (so
/// e.g. `diff --out x` fails loudly instead of being silently ignored).
fn parse_flags(args: &[String], allowed: &[&str]) -> SweepFlags {
    let mut flags = SweepFlags {
        threads: 0,
        out: "BENCH_sweep.json".into(),
        wall_out: None,
        baseline: None,
        tolerance: 0.0,
        grid: None,
        md_out: None,
        wall: false,
        incremental: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !allowed.contains(&a.as_str()) {
            eprintln!(
                "unknown flag `{a}` for this subcommand (accepts: {})",
                allowed.join(", ")
            );
            std::process::exit(2);
        }
        if a == "--wall" {
            flags.wall = true;
            continue;
        }
        if a == "--incremental" {
            flags.incremental = true;
            continue;
        }
        let mut grab = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--threads" => {
                flags.threads = grab("--threads").parse().unwrap_or_else(|e| {
                    eprintln!("bad --threads: {e}");
                    std::process::exit(2);
                })
            }
            "--out" => flags.out = grab("--out").clone(),
            "--wall-out" => flags.wall_out = Some(grab("--wall-out").clone()),
            "--baseline" => flags.baseline = Some(grab("--baseline").clone()),
            "--grid" => flags.grid = Some(grab("--grid").clone()),
            "--md-out" => flags.md_out = Some(grab("--md-out").clone()),
            "--tol" => {
                flags.tolerance = grab("--tol").parse().unwrap_or_else(|e| {
                    eprintln!("bad --tol: {e}");
                    std::process::exit(2);
                })
            }
            other => unreachable!("`{other}` passed the allow-list"),
        }
    }
    flags
}

/// Run a grid, print the record table + aggregates, write the artifact.
/// All orchestration lives in [`driver::client::sweep_command`] (a thin
/// client of the job core); this shim only parses flags.
fn sweep_cmd(grid: SweepGrid, args: &[String]) {
    let flags = parse_flags(
        args,
        &[
            "--threads",
            "--out",
            "--wall-out",
            "--baseline",
            "--incremental",
            "--tol",
            "--grid",
            "--md-out",
        ],
    );
    let opts = SweepOptions {
        threads: flags.threads,
        out: flags.out,
        wall_out: flags.wall_out,
        baseline: flags.baseline,
        tolerance: flags.tolerance,
        grid: flags.grid,
        md_out: flags.md_out,
        incremental: flags.incremental,
    };
    let code = client::sweep_command(grid, &opts);
    if code != 0 {
        std::process::exit(code);
    }
}

/// Compare two sweep artifacts; exit 1 on regressions. Orchestration
/// lives in [`driver::client::diff_command`]; this shim only separates
/// paths from flags.
fn diff_cmd(args: &[String]) {
    // Flags (with their values) go to parse_flags; bare args are paths.
    let mut paths: Vec<String> = Vec::new();
    let mut flag_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--wall" {
            // Boolean flag: takes no value.
            flag_args.push(a.clone());
        } else if a.starts_with("--") {
            flag_args.push(a.clone());
            if let Some(v) = it.next() {
                flag_args.push(v.clone());
            }
        } else {
            paths.push(a.clone());
        }
    }
    let flags = parse_flags(&flag_args, &["--tol", "--grid", "--md-out", "--wall"]);
    let opts = DiffOptions {
        tolerance: flags.tolerance,
        grid: flags.grid,
        md_out: flags.md_out,
        wall: flags.wall,
    };
    let code = client::diff_command(&paths, &opts);
    if code != 0 {
        std::process::exit(code);
    }
}

/// `analyze`: run the static analyzer over every program the pipeline
/// touches — each registry workload's original, plus the pre-push program
/// emitted under each preset model — and report communication-safety
/// diagnostics and type-inference counts. Exits 1 if any program fails.
fn analyze_cmd(args: &[String]) {
    let mut np: usize = 4;
    let mut size = SizeClass::Small;
    let mut as_json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => as_json = true,
            "--np" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--np needs a value");
                    std::process::exit(2);
                });
                np = v.parse().unwrap_or_else(|e| {
                    eprintln!("bad --np: {e}");
                    std::process::exit(2);
                });
                if np < 2 {
                    eprintln!("--np must be at least 2");
                    std::process::exit(2);
                }
            }
            "--size" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--size needs a value");
                    std::process::exit(2);
                });
                size = SizeClass::parse(v).unwrap_or_else(|| {
                    eprintln!("bad --size `{v}` (small, medium, standard)");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag `{other}` (accepts: --np N, --size S, --json)");
                std::process::exit(2);
            }
        }
    }

    let rows = driver::analyze_registry(size, np, &ModelSpec::presets());
    let dirty = rows.iter().filter(|r| !r.is_clean()).count();

    if as_json {
        let mut out = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"workload\": \"{}\", \"variant\": \"{}\", \"model\": \"{}\", \
                 \"np\": {}, \"analysis\": {}}}",
                row.workload,
                row.variant,
                row.model,
                row.np,
                row.report.to_json(&row.source)
            ));
        }
        out.push_str("\n]\n");
        print!("{out}");
    } else {
        hr(&format!(
            "analyze — registry x {{orig, prepush}} x models, {} np={np}",
            size.id()
        ));
        for row in &rows {
            let types = row
                .report
                .types
                .as_ref()
                .map(|t| {
                    format!(
                        "{} typed / {} walked statements",
                        t.stmts_typed(),
                        t.stmts_walked()
                    )
                })
                .unwrap_or_else(|| "types unavailable".into());
            if row.is_clean() {
                println!("  ok    {:<40} {}", row.label(), types);
            } else {
                println!("  FAIL  {:<40} {}", row.label(), types);
                for line in row.report.render_human(&row.source).lines() {
                    println!("        {line}");
                }
            }
        }
        println!(
            "\n{} program(s) analyzed, {} clean, {} with diagnostics",
            rows.len(),
            rows.len() - dirty,
            dirty
        );
    }
    if dirty > 0 {
        std::process::exit(1);
    }
}

// ------------------------------------------------------- paper figures

/// Figure 1: normalized execution time of {MPICH, MPICH-GM} × {Original,
/// Prepush}, regenerated as a 2-workload × 2-model grid.
fn fig1() {
    hr("Figure 1 — performance improvement achieved by \"pre-pushing\"");
    let np = 8;
    println!("(np = {np}; bars normalized to the fastest variant; paper shape:");
    println!(" prepush beats original on both stacks, decisively on MPICH-GM)\n");
    let result = run_sweep(&SweepGrid::fig1(), 0);
    for (name, blurb) in [
        ("direct2d", "communication scheme: {} —"),
        ("indirect", "communication scheme: {} (the paper's §4 test shape) —"),
    ] {
        let tcp = rec(&result, name, np, &ModelSpec::Mpich, None);
        let gm = rec(&result, name, np, &ModelSpec::MpichGm, None);
        println!(
            "{}",
            render_fig1(
                &blurb.replace("{}", display_name(name, SizeClass::Standard, np)),
                &Fig1Rows::from_records(tcp, gm)
            )
        );
    }
}

/// Figure 2: the abstract direct-pattern code before and after.
fn fig2() {
    hr("Figure 2 — direct pattern before/after transformation");
    let src = "\
program main
  real :: as(64), ar(64)
  do iy = 1, 64
    do ix = 1, 64
      as(ix) = ix * iy
    end do
    call mpi_alltoall(as, 16, ar)
  end do
end program";
    let program = fir::parse(src).unwrap();
    let out = transform(
        &program,
        &Options {
            tile_size: Some(8),
            context: Context::new().with("np", 4),
            ..Default::default()
        },
    )
    .unwrap();
    println!("--- (a) before ---\n{src}\n");
    println!("--- (b) after (K = 8) ---\n{}", fir::unparse(&out.program));
    println!("--- report ---\n{}", out.report.summary());
}

/// Figure 3: the indirect pattern before/after (copy loop removed).
fn fig3() {
    hr("Figure 3 — indirect pattern: removing the redundant copy");
    let w = workloads::indirect3d::Indirect3d::small(4);
    let src = w.source();
    let out = transform(
        &w.program(),
        &Options {
            context: w.context(),
            oracle: compuniformer::UserOracle::AssumeSafe,
            ..Default::default()
        },
    )
    .unwrap();
    println!("--- (a) before ---\n{src}");
    println!("--- (b) after ---\n{}", fir::unparse(&out.program));
    println!("--- report ---\n{}", out.report.summary());
}

/// Figure 4: the generated communication loop, isolated.
fn fig4() {
    hr("Figure 4 — the generated skewed exchange");
    let src = "\
program main
  real :: as(32, 4), ar(32, 4)
  do iy = 1, 2
    do ix = 1, 32
      do iz = 1, 4
        as(ix, iz) = ix * iz + iy
      end do
    end do
    call mpi_alltoall(as, 32, ar)
  end do
end program";
    let program = fir::parse(src).unwrap();
    let out = transform(
        &program,
        &Options {
            tile_size: Some(8),
            context: Context::new().with("np", 4),
            ..Default::default()
        },
    )
    .unwrap();
    let text = fir::unparse(&out.program);
    println!("paper's Figure 4:");
    println!("  do j = 1,NP-1");
    println!("    to = mod(mynum+j,NP)");
    println!("    call mpi_isend(As(...,(to-1)*(NP/SZ)),...)");
    println!("    from = mod(NP+mynum-j,NP)");
    println!("    call mpi_irecv(Ar(...,(from-1)*(NP/SZ)),...)");
    println!("  enddo\n");
    println!("generated (excerpt):");
    for line in text.lines() {
        let t = line.trim_start();
        if t.starts_with("do cc_j")
            || t.starts_with("cc_to =")
            || t.starts_with("cc_from =")
            || t.starts_with("call mpi_isend")
            || t.starts_with("call mpi_irecv")
        {
            println!("  {t}");
        }
    }
}

/// §4: correctness — transformed output identical to original, across
/// every registry workload, both stacks, several rank counts. The grid is
/// the full evaluation grid; equivalence is asserted inside each
/// scenario, so an `ok` row *is* the §4 check.
fn correctness() {
    hr("§4 correctness — transformed output identical to the original");
    println!(
        "{:<46} {:>3} {:>10} {:>12} {:>12} {:>8}",
        "workload", "np", "model", "orig", "prepush", "gain"
    );
    // The paper's np {4, 8} table — the full grid's np {16, 32, 64} rows
    // belong to `harness sweep`, not to this figure.
    let result = run_sweep(
        &SweepGrid::new()
            .workloads(workloads::registry().iter().map(|e| e.name))
            .size(SizeClass::Standard)
            .nps([4, 8])
            .models([ModelSpec::Mpich, ModelSpec::MpichGm]),
        0,
    );
    require_clean(&result, "correctness");
    for np in [4usize, 8] {
        for entry in workloads::registry() {
            for model in [ModelSpec::Mpich, ModelSpec::MpichGm] {
                let r = rec(&result, entry.name, np, &model, None);
                println!(
                    "{:<46} {:>3} {:>10} {:>12} {:>12} {:>7.2}x",
                    display_name(entry.name, SizeClass::Standard, np),
                    np,
                    model.to_model().name,
                    sim(r.orig_ns).to_string(),
                    sim(r.prepush_ns).to_string(),
                    r.speedup.unwrap_or(0.0)
                );
            }
        }
    }
    println!("\nall outputs identical (checked element-for-element per rank) ✓");
}

/// Ablation: execution time vs tile size K (the U-curve the paper's §2
/// attributes to the performance-critical parameters of [3]).
fn ablation_k() {
    hr("Ablation — execution time vs tile size K (direct-2d, MPICH-GM, np=8)");
    let np = 8;
    let w = workloads::direct2d::Direct2d::standard(np);
    let model = ModelSpec::MpichGm;
    let heur = transform_workload(&w, &model.to_model(), None)
        .report
        .opportunities[0]
        .tile_size
        .unwrap();
    let mut ks = vec![1i64, 8, 64, 256, 1024, heur, 2048, 4096];
    ks.sort_unstable();
    ks.dedup();
    let result = run_sweep(
        &SweepGrid::new()
            .workloads(["direct2d"])
            .nps([np])
            .models([model.clone()])
            .tile_sizes(ks.iter().map(|&k| Some(k))),
        0,
    );
    // The original program is K-independent; any row's orig is the base.
    let base = sim(rec(&result, "direct2d", np, &model, Some(ks[0])).orig_ns);
    println!("{:>6} {:>12} {:>8}", "K", "prepush", "gain");
    for &k in &ks {
        let r = rec(&result, "direct2d", np, &model, Some(k));
        println!(
            "{:>6} {:>12} {:>7.2}x{}",
            k,
            sim(r.prepush_ns).to_string(),
            base.as_ns() as f64 / sim(r.prepush_ns).as_ns() as f64,
            if k == heur { "   <- heuristic" } else { "" }
        );
    }
}

/// Ablation: speedup vs rank count.
fn scaling() {
    hr("Ablation — pre-push speedup vs rank count (direct-2d)");
    let nps = [2usize, 4, 8, 16, 32];
    let result = run_sweep(&SweepGrid::scaling(), 0);
    println!("{:>4} {:>10} {:>10}", "np", "MPICH", "MPICH-GM");
    for np in nps {
        let tcp = rec(&result, "direct2d", np, &ModelSpec::Mpich, None);
        let gm = rec(&result, "direct2d", np, &ModelSpec::MpichGm, None);
        println!(
            "{:>4} {:>9.2}x {:>9.2}x",
            np,
            tcp.speedup.unwrap_or(0.0),
            gm.speedup.unwrap_or(0.0)
        );
    }
}

/// Ablation: sweep the per-byte CPU involvement β from RDMA-like (0) to
/// TCP-like (1×) and beyond — the overlap benefit collapses as the host
/// CPU touches more bytes, which is the paper's whole argument for RDMA
/// interconnects.
fn model_sweep() {
    hr("Ablation — speedup vs per-byte CPU involvement β (direct-2d, np=8)");
    let np = 8;
    let scales = [0.0, 0.125, 0.25, 0.5, 1.0, 2.0];
    let result = run_sweep(
        &SweepGrid::new()
            .workloads(["direct2d"])
            .nps([np])
            .models(scales.iter().map(|&s| ModelSpec::MpichBeta(s))),
        0,
    );
    println!(
        "{:>8} {:>12} {:>12} {:>8} {:>16}",
        "β-scale", "orig", "prepush", "gain", "exposed-comm cut"
    );
    for &scale in &scales {
        let r = rec(&result, "direct2d", np, &ModelSpec::MpichBeta(scale), None);
        println!(
            "{:>8.3} {:>12} {:>12} {:>7.2}x {:>15.1}x",
            scale,
            sim(r.orig_ns).to_string(),
            sim(r.prepush_ns).to_string(),
            r.speedup.unwrap_or(0.0),
            r.orig_exposed_ns.unwrap_or(0) as f64
                / r.prepush_exposed_ns.unwrap_or(0).max(1) as f64,
        );
    }
}

/// Ablation: node loop outermost — legal interchange vs the congested
/// fallback (§3.5), now first-class registry workloads.
fn interchange() {
    hr("Ablation — node loop outermost: interchange vs per-column fallback");
    let np = 4;
    let result = run_sweep(&SweepGrid::interchange(), 0);
    for (name, label) in [
        ("interchange-legal", "interchange legal"),
        ("interchange-blocked", "interchange blocked"),
    ] {
        let r = rec(&result, name, np, &ModelSpec::MpichGm, None);
        println!(
            "{label:<22} strategy: {:<34} orig {} -> prepush {} ({:.2}x)",
            r.strategy.as_deref().unwrap_or("-"),
            sim(r.orig_ns),
            sim(r.prepush_ns),
            r.speedup.unwrap_or(0.0)
        );
    }
    println!(
        "\nthe legal interchange recovers the efficient Fig. 4 exchange; the \
         blocked case would pay §3.5's congestion penalty, so the K-selection \
         predictor declines it here (1.00x, original program kept) — the \
         per-column fallback only applies where it measurably wins (zero-copy \
         stack, >= 6 senders per owner, >= 16 KiB columns). \
         (equivalence is asserted inside each scenario — an ok row is the check)"
    );
}

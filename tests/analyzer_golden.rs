//! Golden pin for the communication verifier's *full* output.
//!
//! `tests/analyzer_suite.rs` pins codes and offending lines; this pins
//! every byte the verifier reports — `AnalysisReport::to_json` and
//! `render_human`: codes, messages, spans, rank lists, and the
//! post-`normalize()` order — over
//!
//! - the whole negative corpus at np {2, 4, 8},
//! - the registry × {original, emitted under the three preset models} at
//!   np {4, 16, 32} (np > 10 walks the boundary rank set), and
//! - every one of those emissions with its waits (`mpi_waitall`,
//!   `mpi_waitall_recv`) deleted, so the hazard paths see the tiled
//!   programs too.
//!
//! A change to how the verifier *walks* (name resolution, memoisation)
//! must leave this file untouched. Regenerate after an intentional change
//! to a rule or a message with:
//!
//! ```sh
//! BLESS=1 cargo test -q --test analyzer_golden
//! ```

use overlap_suite::analyze::{verify_comm, AnalysisReport, CommCheckConfig};
use overlap_suite::sweep::{analyze_registry, ModelSpec};
use std::fmt::Write;
use workloads::SizeClass;

const GOLDEN_PATH: &str = "tests/golden/analyzer_reports.txt";

fn section(out: &mut String, label: &str, report: &AnalysisReport, source: &str) {
    writeln!(out, "## {label}").unwrap();
    writeln!(out, "{}", report.to_json(source)).unwrap();
    out.push_str(&report.render_human(source));
}

fn rendered() -> String {
    let mut out = String::new();
    for np in [2usize, 4, 8] {
        for case in workloads::negative::analyzer_cases(np) {
            let program = fir::parse_validated(&case.source).expect("negative case parses");
            let report = verify_comm(&program, &CommCheckConfig::new(np as i64));
            section(
                &mut out,
                &format!("negative/{} np={np}", case.name),
                &report,
                &case.source,
            );
        }
    }
    for np in [4usize, 16, 32] {
        for mut row in analyze_registry(SizeClass::Small, np, &ModelSpec::presets()) {
            // The type pass is pinned elsewhere; this golden is the
            // communication pass alone.
            row.report.types = None;
            section(&mut out, &row.label(), &row.report, &row.source);
            if row.variant != "prepush" {
                continue;
            }
            let broken: String = row
                .source
                .lines()
                .filter(|l| !l.contains("mpi_waitall"))
                .flat_map(|l| [l, "\n"])
                .collect();
            if broken == row.source {
                continue; // nothing was applied: the emission is the original
            }
            let program = fir::parse_validated(&broken).expect("broken emission parses");
            let w = (workloads::find(row.workload).unwrap().make)(SizeClass::Small, np);
            let cfg = CommCheckConfig::new(np as i64).with_symbols(w.context_pairs());
            let report = verify_comm(&program, &cfg);
            section(
                &mut out,
                &format!("{} without waits", row.label()),
                &report,
                &broken,
            );
        }
    }
    out
}

#[test]
fn analyzer_reports_are_pinned() {
    let rendered = rendered();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file (run with BLESS=1)");
    assert!(
        rendered == golden,
        "verifier output drifted from {GOLDEN_PATH}; if a rule or message changed on \
         purpose, regenerate with BLESS=1. First differing section:\n{}",
        first_difference(&rendered, &golden)
    );
}

fn first_difference(a: &str, b: &str) -> String {
    let (mut la, mut lb) = (a.lines(), b.lines());
    let mut header = "";
    loop {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => {
                if x.starts_with("## ") {
                    header = x;
                }
            }
            (x, y) => return format!("{header}\n  got:    {x:?}\n  golden: {y:?}"),
        }
    }
}

//! Every workload once in `--smoke` mode (one pass, stand-ins of at most
//! eight ranks), untraced and traced: what the benchmark prints must be what
//! `BENCHMARK.json` names, each metric with its unit.

use driver::json::{parse_json, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    match spec.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no `{key}` list"),
    }
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("an entry without `{key}`"))
}

/// name → unit of one of the metric lists.
fn named_units(spec: &Json, key: &str) -> BTreeMap<String, String> {
    list(spec, key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn every_named_workload_prints_every_named_metric_with_its_unit() {
    let spec = spec();
    for workload in list(&spec, "workloads") {
        let workload = text(workload, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_bench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("the benchmark starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{stderr}"
            );
            let result = parse_json(stdout.lines().last().expect("a result line"))
                .expect("the result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object")
            };
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), text(m, "unit").to_string()))
                .collect();
            assert_eq!(
                printed,
                named_units(&spec, key),
                "{workload} --trace {trace}"
            );
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                assert!(value.is_finite(), "{workload}: {name} is not a number");
            }
        }
    }
}

#[test]
fn names_and_units_stay_inside_the_allowed_characters() {
    let spec = spec();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for item in list(&spec, key) {
            let name = text(item, "name");
            assert!(name_ok(name), "bad name `{name}`");
            assert!(seen.insert(name.to_string()), "`{name}` is used twice");
            if key != "workloads" {
                assert!(unit_ok(text(item, "unit")), "bad unit of `{name}`");
            }
        }
    }
    assert!(named_units(&spec, "end_to_end").contains_key("setup_s"));
}

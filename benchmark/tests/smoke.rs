//! Runs the real binary at smoke size on every workload and checks its
//! output against `BENCHMARK.json`: every declared metric is emitted
//! exactly once, with its unit, in the run that owns it.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use dora_gate_bench::json::Json;

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one of the contract's metric lists.
fn declared(contract: &Json, list: &str) -> BTreeMap<String, String> {
    contract
        .get(list)
        .expect("metric list present")
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn gate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gate"))
        .args(args)
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("run gate")
}

#[test]
fn contract_has_the_required_shape() {
    let c = contract();
    let keys: Vec<&str> = c.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<_> = c
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        ["tatp_mix", "tatp_handoff", "tatp_durable", "tatp_evict"]
    );
    let e2e = c.get("end_to_end").unwrap().items();
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let layers = declared(&c, "per_layer");
    assert!(layers.len() <= 128);
    for name in declared(&c, "end_to_end").keys() {
        assert!(!layers.contains_key(name), "{name} declared twice");
    }
}

#[test]
fn every_declared_metric_is_emitted_exactly_once_with_its_unit() {
    let c = contract();
    for workload in c.get("workloads").unwrap().items() {
        let workload = workload.get("name").and_then(Json::as_str).unwrap();
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = gate(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let expected = declared(&c, list);

            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("last line is JSON");
            let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));

            let mut emitted = BTreeMap::new();
            for (name, m) in result.get("metrics").unwrap().members() {
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                let value = m.get("value").and_then(Json::as_f64).expect("value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                let again = emitted.insert(name.clone(), unit.to_string());
                assert!(
                    again.is_none(),
                    "{workload} --trace {trace}: {name} emitted twice"
                );
            }
            assert_eq!(emitted, expected, "{workload} --trace {trace}");

            // The same metrics, once each, as `name value unit` lines.
            for (name, unit) in &expected {
                let lines: Vec<&str> = stdout
                    .lines()
                    .filter(|l| l.split(' ').next() == Some(name.as_str()))
                    .collect();
                assert_eq!(lines.len(), 1, "{workload}: lines for {name}: {lines:?}");
                assert_eq!(
                    lines[0].split(' ').nth(2),
                    Some(unit.as_str()),
                    "{}",
                    lines[0]
                );
            }

            if trace == "1" {
                for engine in ["dora", "conv"] {
                    let file = Path::new(env!("CARGO_TARGET_TMPDIR"))
                        .join(format!("{workload}.{engine}.trace.json"));
                    let text = std::fs::read_to_string(&file).expect("trace file written");
                    let doc = Json::parse(&text).expect("trace file is JSON");
                    // 2 000 smoke transactions, six spans each, one header.
                    assert!(doc.get("traceEvents").unwrap().items().len() > 12_000);
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "tpcc"][..],
        &["--seed", "1"][..],
        &["--workload", "tatp_mix", "--trace", "2"][..],
        &["--workload", "tatp_mix", "--seconds", "0"][..],
    ] {
        let out = gate(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

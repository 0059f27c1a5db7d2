//! The benchmark's own contract: what `BENCHMARK.json` declares is what the
//! program emits, every workload runs clean, and `compare` judges as
//! documented. Run with `--release`; the smoke test replays ~1 M requests.

use std::collections::BTreeSet;
use std::process::Command;

use serde_json::{json, Value};
use tpftl_benchmark::compare::{bounds_of, compare, Verdict};
use tpftl_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use tpftl_benchmark::workloads::WORKLOADS;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(file: &'a Value, key: &str) -> &'a [Value] {
    file.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn names_are_unique_well_formed_and_match_benchmark_json() {
    let file = benchmark_json();
    let mut seen = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
    {
        assert!(well_formed(name), "{name} is not a valid name");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok),
            "{}",
            m.unit
        );
    }

    let declared = list(&file, "workloads");
    assert_eq!(declared.len(), WORKLOADS.len());
    for (w, d) in WORKLOADS.iter().zip(declared) {
        assert_eq!(text(d, "name"), w.name);
        assert_eq!(text(d, "why"), w.why);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is too long",
            w.name
        );
    }

    let same = |key: &str, ours: &[MetricDef], bounded: bool| {
        let declared = list(&file, key);
        assert_eq!(declared.len(), ours.len(), "{key}");
        for (m, d) in ours.iter().zip(declared) {
            assert_eq!(text(d, "name"), m.name);
            assert_eq!(text(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(d, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                d.get("bound").and_then(Value::as_f64),
                bounded.then_some(m.bound),
                "{}",
                m.name
            );
            if bounded {
                assert!(
                    m.bound > 0.0 && m.bound <= 0.25,
                    "{}: bound {}",
                    m.name,
                    m.bound
                );
            }
        }
    };
    same("end_to_end", &END_TO_END, true);
    same("per_layer", &PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(
        END_TO_END[0].bound, largest,
        "setup_s has the largest bound"
    );

    assert_eq!(list(&file, "paths"), [json!("benchmark")]);
    let seconds = file
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

/// Runs the built binary; returns (exit code, parsed last line of stdout).
fn run(args: &[&str]) -> (i32, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_tpftl-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        serde_json::from_str(last).unwrap_or_else(|e| panic!("{args:?}: last line {last:?}: {e}"));
    (out.status.code().expect("exit code"), result)
}

fn assert_metrics(result: &Value, expected: &[&[MetricDef]], context: &str) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{context}");
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{context}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{context}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = expected
        .iter()
        .flat_map(|set| set.iter().map(|m| m.name))
        .collect();
    assert_eq!(
        names, declared,
        "{context}: exactly the declared metrics, in order"
    );
    for (def, (name, m)) in expected.iter().flat_map(|set| set.iter()).zip(metrics) {
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {name} = {value:?}"
        );
        assert_eq!(text(m, "unit"), def.unit, "{context}: {name}");
    }
}

#[test]
fn quick_smoke_run_of_every_workload_emits_every_metric_and_passes_the_checks() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = dir.join("smoke-results.json");
    let spans = dir.join("smoke-spans.jsonl");
    let _ = std::fs::remove_file(&out);
    for w in &WORKLOADS {
        let (code, result) = run(&[
            "--workload",
            w.name,
            "--quick",
            "--seed",
            "7",
            "--out",
            out.to_str().unwrap(),
            "--spans",
            spans.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{}", w.name);
        assert_metrics(&result, &[&END_TO_END, &PER_LAYER], w.name);
    }
    // The driver's two modes, on the cheapest workload.
    let (code, result) = run(&[
        "--workload",
        "fin2_tpftl",
        "--quick",
        "--trace",
        "0",
        "--seconds",
        "1",
    ]);
    assert_eq!(code, 0);
    assert_metrics(&result, &[&END_TO_END], "--trace 0");
    let (code, result) = run(&[
        "--workload",
        "fin2_tpftl",
        "--quick",
        "--trace",
        "1",
        "--seconds",
        "1",
    ]);
    assert_eq!(code, 0);
    assert_metrics(&result, &[&PER_LAYER], "--trace 1");

    // One result file, seven workloads, a host block, samples — and
    // `compare` will not touch it because it is a --quick file.
    let file: Value = serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let host = file.get("host").expect("host block");
    for key in ["nproc", "cpu_model", "rustc", "commit", "seed", "quick"] {
        assert!(host.get(key).is_some(), "host.{key}");
    }
    assert_eq!(host.get("quick"), Some(&Value::Bool(true)));
    let workloads = file.get("workloads").and_then(Value::as_object).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    let samples = workloads[0]
        .1
        .get("metrics")
        .and_then(|m| m.get("host_ns_per_req")?.get("samples"));
    assert_eq!(samples.and_then(Value::as_array).map(<[_]>::len), Some(1));
    let bounds = bounds_of(&benchmark_json()).unwrap();
    assert!(compare(&file, &file, &bounds)
        .unwrap_err()
        .contains("--quick"));

    // Raw spans of the sampled requests were written at exit.
    let spans = std::fs::read_to_string(&spans).unwrap();
    let first: Value = serde_json::from_str(spans.lines().next().expect("some spans")).unwrap();
    assert_eq!(first.get("request").and_then(Value::as_u64), Some(0));
    assert!(spans.lines().any(|l| l.contains("core.ftl.translate")));
}

#[test]
fn a_violation_turns_the_exit_code_non_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_tpftl-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line without a run");
}

/// A result file with one workload whose `host_ns_per_req` repetitions are
/// `samples` and whose other metrics sit at 1.
fn result_file(host_ns: &[f64], quick: bool, nproc: u64) -> Value {
    let mut metrics: Vec<(String, Value)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), json!({"value": 1.0, "unit": m.unit})))
        .collect();
    let mut sorted = host_ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    metrics[1].1 = json!({
        "value": sorted[sorted.len() / 2],
        "unit": "ns",
        "samples": host_ns.to_vec(),
    });
    json!({
        "host": json!({
            "nproc": nproc, "cpu_model": "test", "rustc": "rustc 1.0", "commit": "abc",
            "seed": 2015u64, "quick": quick,
        }),
        "workloads": json!({"fin1_tpftl": json!({"metrics": Value::Object(metrics)})}),
    })
}

#[test]
fn compare_flags_a_twenty_percent_slowdown_and_passes_an_identical_pair() {
    // The verdicts are tested at a 10 % bound on host time, whatever bound
    // this box's noise made BENCHMARK.json ship with.
    let mut bounds = bounds_of(&benchmark_json()).unwrap();
    let host = bounds.iter_mut().find(|b| b.metric == "host_ns_per_req");
    host.expect("host_ns_per_req has a bound").bound = 0.10;
    let base = [800.0, 805.0, 810.0, 815.0, 820.0];
    let a = result_file(&base, false, 2);

    let rows = compare(&a, &a, &bounds).unwrap();
    assert_eq!(rows.len(), END_TO_END.len());
    assert!(rows
        .iter()
        .all(|r| r.verdict == Verdict::Ok && r.worse == 0.0));

    let slower = result_file(&base.map(|ns| ns * 1.2), false, 2);
    let rows = compare(&a, &slower, &bounds).unwrap();
    for r in &rows {
        let expected = if r.metric == "host_ns_per_req" {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        assert_eq!(r.verdict, expected, "{}", r.metric);
    }
    let host = rows.iter().find(|r| r.metric == "host_ns_per_req").unwrap();
    assert!((host.worse - 0.2).abs() < 1e-12);
    // The other way round it is an improvement.
    assert!(compare(&slower, &a, &bounds)
        .unwrap()
        .iter()
        .all(|r| r.verdict == Verdict::Ok));

    // 4 % slower is inside the 10 % bound.
    let slightly = result_file(&base.map(|ns| ns * 1.04), false, 2);
    assert!(compare(&a, &slightly, &bounds)
        .unwrap()
        .iter()
        .all(|r| r.verdict == Verdict::Ok));

    // Repetitions that spread wider than the bound resolve nothing…
    let noisy = result_file(&[700.0, 760.0, 810.0, 880.0, 990.0], false, 2);
    let rows = compare(&a, &noisy, &bounds).unwrap();
    let host = rows.iter().find(|r| r.metric == "host_ns_per_req").unwrap();
    assert_eq!(host.verdict, Verdict::Unresolved);
    // …unless every repetition of B beats every repetition of A.
    let noisy_but_faster = result_file(&[300.0, 400.0, 500.0, 600.0, 700.0], false, 2);
    let rows = compare(&a, &noisy_but_faster, &bounds).unwrap();
    assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
}

#[test]
fn compare_refuses_other_hosts_and_quick_files() {
    let bounds = bounds_of(&benchmark_json()).unwrap();
    let a = result_file(&[800.0, 810.0], false, 2);
    let other_host = result_file(&[800.0, 810.0], false, 64);
    assert!(compare(&a, &other_host, &bounds)
        .unwrap_err()
        .contains("host.nproc"));
    let quick = result_file(&[800.0, 810.0], true, 2);
    assert!(compare(&quick, &quick, &bounds)
        .unwrap_err()
        .contains("--quick"));
    assert!(compare(&a, &quick, &bounds)
        .unwrap_err()
        .contains("host.quick"));
}

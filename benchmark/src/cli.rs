//! The command line: run one workload, list the workloads, compare two
//! result files.

use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::checks::{self, Shadow, Violations};
use crate::metrics::Ledger;
use crate::spans::Recorder;
use crate::workloads::{self, WorkloadDef, WORKLOADS};
use crate::{compare, e2e, host, layers};

const USAGE: &str = "\
usage: tpftl-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                       [--quick] [--out FILE] [--spans FILE]
       tpftl-benchmark --list
       tpftl-benchmark compare A.json B.json   (bounds from ./BENCHMARK.json)

  --workload NAME  one of --list
  --seed N         trace generator seed (default 2015)
  --seconds S      how long the untraced repetitions measure (default 10)
  --trace 0|1      0: end-to-end metrics only; 1: per-layer metrics only;
                   omitted: both, in one process
  --quick          request counts / 20, one repetition (tests only)
  --out FILE       add this workload's result (with per-repetition samples
                   and a host block) to FILE
  --spans FILE     write the raw spans of every 1024th request to FILE

The last line of standard output is one JSON object:
{\"correct\", \"attempted\", \"failed\", \"metrics\"}. Exit code 0 means every check
passed.";

/// A parsed `--workload …` invocation.
#[derive(Debug)]
struct RunArgs {
    def: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        def: &WORKLOADS[0],
        seed: 2015,
        seconds: 10.0,
        trace: None,
        quick: false,
        out: None,
        spans: None,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                run.def = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
                named = true;
            }
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                run.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => run.quick = true,
            "--out" => run.out = Some(PathBuf::from(value()?)),
            "--spans" => run.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if named {
        Ok(run)
    } else {
        Err("--workload is required".to_string())
    }
}

fn print_ledger(title: &str, ledger: &Ledger) {
    println!("{title}");
    for e in ledger.entries() {
        println!("  {:<40} {:>16.6} {}", e.name, e.value, e.unit);
    }
}

fn write_spans(path: &Path, rec: &Recorder) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in rec.raw() {
        writeln!(
            out,
            "{{\"request\":{},\"depth\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request,
            s.depth,
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Adds `entry` under `workloads.<name>` of the result file at `path`,
/// creating the file with `host` if it does not exist.
fn merge_into(path: &Path, host: Value, name: &str, entry: Value) -> Result<(), String> {
    let mut workloads = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        let file: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let written = file.get("host").cloned().unwrap_or(Value::Null);
        if let Some(key) = host::COMPARABLE
            .iter()
            .find(|key| !host::agree(&written, &host, key))
        {
            return Err(format!(
                "{} was written with a different host.{key}",
                path.display()
            ));
        }
        if let Some(existing) = file.get("workloads").and_then(Value::as_object) {
            workloads = existing
                .iter()
                .filter(|(n, _)| n != name)
                .cloned()
                .collect();
        }
    }
    workloads.push((name.to_string(), entry));
    let file = Value::Object(vec![
        ("host".to_string(), host),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let def = args.def;
    let requests = def.requests(args.quick);
    let mut violations = Violations::default();
    let (mut attempted, mut unserved, mut reps) = (0u64, 0u64, 0usize);

    let mut end_to_end = None;
    if args.trace != Some(true) {
        let mut outcome = e2e::measure(def, args.seed, args.seconds, args.quick, &mut violations)
            .map_err(|e| format!("set-up failed: {e}"))?;
        let shadow = Shadow::of(def, requests, args.seed);
        if outcome.unserved == 0 {
            let report = outcome.device.report();
            checks::check_device(&mut outcome.device, &report, &shadow, def, &mut violations);
        }
        attempted += outcome.attempted;
        unserved += outcome.unserved;
        reps = outcome.reps;
        end_to_end = Some(outcome.ledger);
    }

    let mut per_layer = None;
    if args.trace != Some(false) {
        attempted += requests as u64;
        match layers::measure(def, args.seed, args.quick, &mut violations) {
            Ok((ledger, rec)) => {
                if let Some(path) = &args.spans {
                    write_spans(path, &rec).map_err(|e| format!("{}: {e}", path.display()))?;
                }
                per_layer = Some(ledger);
            }
            Err(e) => {
                unserved += requests as u64;
                violations.push(format!("traced run aborted at {e}"));
            }
        }
    }

    for ledger in end_to_end.iter().chain(&per_layer) {
        for name in ledger.not_finite() {
            violations.push(format!("metric {name} is not finite"));
        }
    }
    let failed = (unserved + violations.count()).min(attempted);
    if let Some(ledger) = &mut end_to_end {
        ledger.put("served_frac", 1.0 - failed as f64 / attempted as f64);
        print_ledger(
            &format!("{}: end to end ({reps} repetitions)", def.name),
            ledger,
        );
    }
    if let Some(ledger) = &per_layer {
        print_ledger(&format!("{}: per layer", def.name), ledger);
    }
    for message in violations.messages() {
        println!("VIOLATION: {message}");
    }
    let correct = failed == 0;
    let result = |with_samples: bool| {
        let ledgers = end_to_end.iter().chain(&per_layer);
        let metrics = ledgers.flat_map(|l| l.to_json(with_samples)).collect();
        vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::UInt(attempted)),
            ("failed".to_string(), Value::UInt(failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]
    };
    if let Some(path) = &args.out {
        let mut entry = result(true);
        entry.insert(3, ("reps".to_string(), Value::UInt(reps as u64)));
        let host = host::describe(args.seed, args.quick);
        merge_into(path, host, def.name, Value::Object(entry))?;
    }
    let line = serde_json::to_string(&Value::Object(result(false))).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".to_string());
    };
    let load = |path: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let bounds = compare::bounds_of(&load(Path::new("BENCHMARK.json"))?)?;
    let rows = compare::compare(&load(Path::new(a))?, &load(Path::new(b))?, &bounds)?;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<24} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>5.1}%  {}",
            r.workload,
            r.metric,
            r.values.0,
            r.values.1,
            r.worse * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (regressed, unresolved) = (
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{} compared, {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    Ok(regressed == 0)
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            return 0;
        }
        Some("--list") => {
            for w in &WORKLOADS {
                println!("{}", w.name);
            }
            return 0;
        }
        Some("compare") => compare_files(&args[1..]),
        Some(_) => parse_run(args).and_then(|run_args| run(&run_args)),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("tpftl-benchmark: {message}");
            2
        }
    }
}

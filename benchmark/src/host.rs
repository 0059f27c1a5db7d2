//! The `host` block every result file carries, so numbers from different
//! machines, toolchains or seeds are never compared blind.

use std::process::Command;

use serde_json::Value;

/// First line of `program args…`'s standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            Some(
                String::from_utf8(out.stdout)
                    .ok()?
                    .lines()
                    .next()?
                    .trim()
                    .to_string(),
            )
        })
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Describes this machine and this run.
pub fn describe(seed: u64, quick: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::Object(vec![
        ("nproc".to_string(), Value::UInt(nproc)),
        ("cpu_model".to_string(), Value::Str(cpu_model())),
        (
            "rustc".to_string(),
            Value::Str(first_line("rustc", &["--version"])),
        ),
        (
            "commit".to_string(),
            Value::Str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed".to_string(), Value::UInt(seed)),
        ("quick".to_string(), Value::Bool(quick)),
    ])
}

/// The fields two result files must share to be comparable; `commit` is
/// what is being compared, so it is not among them.
pub const COMPARABLE: [&str; 5] = ["nproc", "cpu_model", "rustc", "seed", "quick"];

/// Whether two files (or a file and this run) agree on `key` of their host
/// blocks. Compared as JSON text: a parsed `2` and a freshly built `2u64`
/// are different `Value` variants but the same host.
pub fn agree(a: &Value, b: &Value, key: &str) -> bool {
    let text = |host: &Value| host.get(key).and_then(|v| serde_json::to_string(v).ok());
    text(a).is_some() && text(a) == text(b)
}

//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale F] [--out DIR] [--cdftl] <experiment>...
//!
//! experiments:
//!   table2     Table 2  (DFTL deviation from optimal)
//!   table4     Table 4  (workload characteristics)
//!   fig1       Figure 1 (mapping-cache entry distribution under DFTL)
//!   fig2       Figure 2 (Financial1 spatial locality)
//!   fig6       Figure 6(a)-(f) + Figure 7(a) (main comparison)
//!   ablation   Figures 7(b)/(c), 8(a)/(b) (technique ablation)
//!   sweep      Figures 8(c), 9(a)-(c) (cache-size sweep)
//!   fig10      Figure 10 (cache space utilization)
//!   models     Section 3.1 model-vs-simulation comparison
//!   threshold  design ablation: selective-prefetch threshold sweep
//!   extensions related-work FTLs, GC policies, write buffer (not in paper)
//!   all        everything above
//! ```
//!
//! `--scale` multiplies the default request counts (1.0 = 2 M requests per
//! Financial workload, 1 M per MSR workload). Results are printed as
//! paper-style tables and persisted as JSON under `--out`. The default is
//! `results/` at full scale and `results/scale-<F>/` otherwise, so a
//! reduced-scale run never overwrites the committed full-scale results.

use std::path::PathBuf;
use std::process::ExitCode;

use tpftl_experiments::runner::{ExperimentOutput, Scale};
use tpftl_experiments::{
    ablation, cachesweep, extensions, fig1, fig10, fig2, fig6, models, table2, table4, threshold,
};

const USAGE: &str = "usage: repro [--scale F] [--out DIR] [--cdftl] <experiment>...
  --scale F   multiply the request counts by F (default 1)
  --out DIR   where the JSON goes (default results/, or results/scale-<F>/ when F != 1)
experiments: table2 table4 fig1 fig2 fig6 ablation sweep fig10 models threshold extensions all";

fn main() -> ExitCode {
    let mut scale = Scale(1.0);
    let mut out_dir: Option<PathBuf> = None;
    let mut include_cdftl = false;
    let mut experiments: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 => scale = Scale(f),
                _ => {
                    eprintln!("--scale needs a positive number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(d) => out_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--out needs a directory\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--cdftl" => include_cdftl = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            exp => experiments.push(exp.to_string()),
        }
    }
    if experiments.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let out_dir = out_dir.unwrap_or_else(|| {
        if scale.0 == 1.0 {
            PathBuf::from("results")
        } else {
            PathBuf::from(format!("results/scale-{}", scale.0))
        }
    });
    if experiments.iter().any(|e| e == "all") {
        experiments = [
            "table4",
            "table2",
            "fig1",
            "fig2",
            "fig6",
            "ablation",
            "sweep",
            "fig10",
            "models",
            "threshold",
            "extensions",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    for exp in &experiments {
        let started = std::time::Instant::now();
        let output: ExperimentOutput = match exp.as_str() {
            "table2" => table2::run(scale),
            "table4" => table4::run(scale),
            "fig1" => fig1::run(scale),
            "fig2" => fig2::run(scale),
            "fig6" => fig6::run(scale, include_cdftl),
            "ablation" => ablation::run(scale),
            "sweep" => cachesweep::run(scale),
            "fig10" => fig10::run(scale),
            "models" => models::run(scale),
            "threshold" => threshold::run(scale),
            "extensions" => extensions::run(scale),
            other => {
                eprintln!("unknown experiment {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "==== {} (scale {:.4}, {:.1?}) ====",
            output.id,
            scale.0,
            started.elapsed()
        );
        println!("{}", output.text);
        match output.persist(&out_dir) {
            Ok(path) => println!("-> {}\n", path.display()),
            Err(e) => {
                eprintln!("failed to persist {}: {e}", output.id);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

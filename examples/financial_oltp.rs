//! The paper's motivating scenario: an OLTP volume (Financial1-like) on an
//! SSD whose mapping cache is far smaller than the mapping table.
//!
//! Runs DFTL, S-FTL, CDFTL, TPFTL and the optimal FTL on the same
//! random-dominant, write-intensive workload and prints the Figure 6-style
//! comparison.
//!
//! ```sh
//! cargo run --release --example financial_oltp [requests]
//! ```

use tpftl::experiments::runner::{device_config, run_one, FtlKind, Scale};
use tpftl::trace::presets::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requests: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300_000);
    let scale = Scale(requests as f64 / 2_000_000.0);
    let workload = Workload::Financial1;
    let config = device_config(workload);

    println!(
        "workload: {} ({} requests), cache {} B\n",
        workload.name(),
        scale.requests(workload),
        config.cache_bytes,
    );
    println!(
        "{:<12} {:>7} {:>7} {:>10} {:>10} {:>10} {:>6} {:>8}",
        "FTL", "Prd", "hit", "T-reads", "T-writes", "resp (us)", "WA", "erases"
    );

    for kind in [
        FtlKind::Dftl,
        FtlKind::Sftl,
        FtlKind::Cdftl,
        FtlKind::Tpftl,
        FtlKind::Optimal,
    ] {
        let r = run_one(kind, workload, scale, &config)?;
        println!(
            "{:<12} {:>6.1}% {:>6.1}% {:>10} {:>10} {:>10.0} {:>6.2} {:>8}",
            r.ftl,
            r.dirty_replacement_prob() * 100.0,
            r.hit_ratio() * 100.0,
            r.translation_reads(),
            r.translation_writes(),
            r.sim.resp_avg_us,
            r.write_amplification(),
            r.erase_count(),
        );
    }

    println!(
        "\nTPFTL's two-level cache turns most of DFTL's per-entry dirty\n\
         writebacks into batched updates (compare the Prd and T-writes\n\
         columns), which is exactly the paper's headline result."
    );
    Ok(())
}

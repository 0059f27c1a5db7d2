//! A sequential-heavy file-server workload (MSR-ts-like), demonstrating the
//! workload-adaptive loading policy: the same TPFTL cache with and without
//! the two prefetching techniques (Section 4.3).
//!
//! ```sh
//! cargo run --release --example msr_server [requests]
//! ```

use tpftl::core::ftl::{Ftl, TpFtl, TpftlConfig};
use tpftl::core::SsdConfig;
use tpftl::sim::Ssd;
use tpftl::trace::presets::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requests: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300_000);
    let workload = Workload::MsrTs;
    let config = SsdConfig::paper_default(workload.address_bytes());
    let spec = workload.spec(requests);

    println!(
        "workload: {} ({} requests, 47% sequential reads), cache {} KB\n",
        workload.name(),
        requests,
        config.cache_bytes >> 10,
    );
    println!(
        "{:<22} {:>7} {:>10} {:>10} {:>11}",
        "loading policy", "hit", "T-reads", "T-writes", "resp (us)"
    );

    for (label, flags) in [
        ("no prefetching (bc)", "bc"),
        ("request-level (rbc)", "rbc"),
        ("selective (sbc)", "sbc"),
        ("both (rsbc)", "rsbc"),
    ] {
        let ftl = TpFtl::new(&config, TpftlConfig::from_flags(flags))?;
        let name = ftl.name();
        let mut ssd = Ssd::new(ftl, config.clone())?;
        let r = ssd.run(spec.iter(2015))?;
        println!(
            "{:<22} {:>6.1}% {:>10} {:>10} {:>11.0}   {}",
            label,
            r.hit_ratio() * 100.0,
            r.translation_reads(),
            r.translation_writes(),
            r.sim.resp_avg_us,
            name,
        );
    }

    println!(
        "\nRequest-level prefetching loads every entry a multi-page request\n\
         needs on its first miss; selective prefetching detects sequential\n\
         phases with the TP-node counter and extends each load by the length\n\
         of the cached predecessor run. Together they serve the sequential\n\
         scans of this server workload almost entirely from the cache."
    );
    Ok(())
}

//! Quickstart: build a TPFTL-managed SSD, run a workload, read the stats.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tpftl::core::ftl::{TpFtl, TpftlConfig};
use tpftl::core::SsdConfig;
use tpftl::sim::Ssd;
use tpftl::trace::{Locality, SyntheticSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 512 MB SSD with the paper's Table 3 flash parameters and the
    // paper's cache rule (block-level table + GTD = 8.5 KB).
    let config = SsdConfig::paper_default(512 << 20);
    println!(
        "device: {} MB logical, {} blocks, {} B mapping cache",
        config.logical_bytes >> 20,
        config.geometry().num_blocks,
        config.cache_bytes,
    );

    // The complete TPFTL: request-level + selective prefetching,
    // batch-update + clean-first replacement.
    let ftl = TpFtl::new(&config, TpftlConfig::full())?;
    let mut ssd = Ssd::new(ftl, config)?;

    // A skewed, write-heavy workload with some sequential bursts.
    let spec = SyntheticSpec {
        name: "quickstart".into(),
        requests: 200_000,
        address_bytes: 512 << 20,
        write_ratio: 0.7,
        seq_read_frac: 0.10,
        seq_write_frac: 0.05,
        locality: Locality {
            regions: 2048,
            theta: 1.2,
            active_frac: 1.0,
        },
        ..SyntheticSpec::default()
    };

    let report = ssd.run(spec.iter(42))?;

    println!("ftl:                 {}", report.ftl);
    println!("requests served:     {}", report.ftl_stats.requests);
    println!(
        "page accesses:       {}",
        report.ftl_stats.user_page_accesses()
    );
    println!("cache hit ratio:     {:.1}%", report.hit_ratio() * 100.0);
    println!(
        "P(replace dirty):    {:.1}%",
        report.dirty_replacement_prob() * 100.0
    );
    println!("translation reads:   {}", report.translation_reads());
    println!("translation writes:  {}", report.translation_writes());
    println!("write amplification: {:.2}", report.write_amplification());
    println!("block erases:        {}", report.erase_count());
    println!("avg response time:   {:.0} us", report.sim.resp_avg_us);
    println!(
        "cache usage:         {} B of {} B ({} entries)",
        report.cache_bytes_used, report.cache_bytes_total, report.cached_entries,
    );
    Ok(())
}

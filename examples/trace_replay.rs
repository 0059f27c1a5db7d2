//! Replaying a real trace file through the simulator.
//!
//! Accepts UMass SPC format (`ASU,LBA,Size,Opcode,Timestamp`) and MSR
//! Cambridge CSV (`Timestamp,Host,Disk,Type,Offset,Size,ResponseTime`),
//! auto-detected. Without an argument, a small sample SPC trace is
//! generated next to the binary and replayed, so the example runs
//! out-of-the-box.
//!
//! ```sh
//! cargo run --release --example trace_replay [TRACE_FILE]
//! ```

use std::path::PathBuf;

use tpftl::core::ftl::{TpFtl, TpftlConfig};
use tpftl::core::SsdConfig;
use tpftl::sim::Ssd;
use tpftl::trace::{parse, stats, SyntheticSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path: PathBuf = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => {
            // Ship our own sample: a small OLTP-ish trace in SPC format.
            let sample = std::env::temp_dir().join("tpftl_sample.spc");
            let spec = SyntheticSpec {
                name: "sample".into(),
                requests: 50_000,
                address_bytes: 64 << 20,
                write_ratio: 0.7,
                seq_read_frac: 0.1,
                seq_write_frac: 0.05,
                mean_interarrival_us: 2500.0,
                ..SyntheticSpec::default()
            };
            let mut file = std::fs::File::create(&sample)?;
            parse::write_spc(&mut file, &spec.generate(7))?;
            println!("no trace given; wrote sample to {}\n", sample.display());
            sample
        }
    };

    let content = std::fs::read_to_string(&path)?;
    let requests = parse::parse_auto(&content)?;
    let s = stats::analyze(&requests);
    println!("trace: {} ({} requests)", path.display(), s.requests);
    println!(
        "  write ratio {:.1}%, avg request {:.1} KB, seq read {:.1}%, seq write {:.1}%",
        s.write_ratio * 100.0,
        s.avg_req_bytes / 1024.0,
        s.seq_read_frac * 100.0,
        s.seq_write_frac * 100.0,
    );

    // Size the SSD to the trace's address space, rounded up to a block
    // multiple, as the paper does.
    let block = 256 * 1024;
    let logical = s.address_space.div_ceil(block).max(16) * block;
    let config = SsdConfig::paper_default(logical);
    println!(
        "  device: {} MB, cache {} B\n",
        logical >> 20,
        config.cache_bytes
    );

    let ftl = TpFtl::new(&config, TpftlConfig::full())?;
    let mut ssd = Ssd::new(ftl, config)?;
    let report = ssd.run(requests)?;

    println!("replayed under {}:", report.ftl);
    println!("  hit ratio            {:.1}%", report.hit_ratio() * 100.0);
    println!(
        "  P(replace dirty)     {:.1}%",
        report.dirty_replacement_prob() * 100.0
    );
    println!(
        "  translation R/W      {} / {}",
        report.translation_reads(),
        report.translation_writes()
    );
    println!("  write amplification  {:.2}", report.write_amplification());
    println!("  avg response         {:.0} us", report.sim.resp_avg_us);
    Ok(())
}

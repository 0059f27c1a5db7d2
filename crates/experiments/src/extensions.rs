//! Extension experiments beyond the paper's evaluation.
//!
//! Three studies that exercise the substrates this reproduction had to
//! build anyway:
//!
//! 1. **Related-work FTL comparison** — the page-level FTLs the paper's
//!    Section 2.2 discusses (ZFTL, CDFTL) next to the evaluated ones,
//!    quantifying claims the paper makes only qualitatively ("zone
//!    switches are cumbersome", "CDFTL performs worse than S-FTL").
//! 2. **GC policy study** — greedy (the paper's) vs wider cost-benefit
//!    windows, alone and with hot/cold data streams, under TPFTL,
//!    reporting lifetime spread.
//! 3. **Write-buffer study** — the Section 2.1 "data buffer" role of the
//!    internal RAM in front of TPFTL.

use serde::{Deserialize, Serialize};
use tpftl_core::config::{GcPolicy, StreamCount};
use tpftl_sim::Ssd;
use tpftl_trace::presets::Workload;

use crate::runner::{self, ExperimentOutput, FtlKind, Scale, SEED};

/// One row of the related-FTL comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelatedRow {
    /// Workload name.
    pub workload: String,
    /// FTL name.
    pub ftl: String,
    /// RAM used by mapping structures (bytes).
    pub ram_bytes: usize,
    /// Cache hit ratio (1.0 for RAM-table FTLs).
    pub hit_ratio: f64,
    /// Average response time (µs).
    pub avg_response_us: f64,
    /// Write amplification.
    pub write_amplification: f64,
    /// Block erases.
    pub erases: u64,
}

/// GC-policy study row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GcPolicyRow {
    /// Policy label.
    pub policy: String,
    /// Hot/cold data streams.
    pub streams: u32,
    /// Write amplification.
    pub write_amplification: f64,
    /// Total erases.
    pub erases: u64,
    /// Highest per-block erase count (lifetime limiter).
    pub max_wear: u64,
    /// Mean per-block erase count.
    pub mean_wear: f64,
    /// Average response time (µs).
    pub avg_response_us: f64,
}

/// Write-buffer study row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BufferRow {
    /// Buffer capacity in 4 KB pages (0 = none).
    pub buffer_pages: usize,
    /// Flash page writes.
    pub flash_writes: u64,
    /// Write amplification relative to *user* writes.
    pub write_amplification: f64,
    /// Average response time (µs).
    pub avg_response_us: f64,
}

fn related(scale: Scale) -> Vec<RelatedRow> {
    let jobs: Vec<(Workload, FtlKind)> = [Workload::Financial1, Workload::MsrTs]
        .iter()
        .flat_map(|&w| {
            [
                FtlKind::Zftl,
                FtlKind::Cdftl,
                FtlKind::Dftl,
                FtlKind::Sftl,
                FtlKind::Tpftl,
                FtlKind::Optimal,
            ]
            .into_iter()
            .map(move |kind| (w, kind))
        })
        .collect();
    runner::run_parallel(jobs, |&(w, kind)| {
        let config = runner::device_config(w);
        let report = runner::run_one(kind, w, scale, &config).expect("simulation failed");
        RelatedRow {
            workload: w.name().to_string(),
            ftl: report.ftl.clone(),
            ram_bytes: report.cache_bytes_used,
            hit_ratio: report.hit_ratio(),
            avg_response_us: report.sim.resp_avg_us,
            write_amplification: report.write_amplification(),
            erases: report.erase_count(),
        }
    })
}

fn gc_policies(scale: Scale) -> Vec<GcPolicyRow> {
    let w = Workload::Financial1;
    let windowed = |window| GcPolicy::Windowed { window };
    let policies: Vec<(&str, GcPolicy, u32)> = vec![
        ("greedy", GcPolicy::Greedy, 1),
        ("windowed:16", windowed(16), 1),
        ("windowed:64", windowed(64), 1),
        ("windowed:64", windowed(64), 2),
        ("windowed:16", windowed(16), 4),
    ];
    runner::run_parallel(policies, |&(label, policy, streams)| {
        let mut config = runner::device_config(w);
        config.gc_policy = policy;
        config.streams = StreamCount(streams);
        let ftl = FtlKind::Tpftl.build(&config).expect("budget fits");
        let mut ssd = Ssd::new(ftl, config.clone()).expect("ssd");
        let report = ssd.run(w.spec(scale.requests(w)).iter(SEED)).expect("run");
        // Per-block wear from the device's erase counters.
        let flash = ssd.env().flash();
        let blocks = flash.geometry().num_blocks as u32;
        let wears: Vec<u64> = (0..blocks)
            .map(|b| flash.erase_count(b).expect("in range"))
            .collect();
        GcPolicyRow {
            policy: label.to_string(),
            streams,
            write_amplification: report.write_amplification(),
            erases: report.erase_count(),
            max_wear: wears.iter().copied().max().unwrap_or(0),
            mean_wear: wears.iter().sum::<u64>() as f64 / wears.len() as f64,
            avg_response_us: report.sim.resp_avg_us,
        }
    })
}

fn write_buffer(scale: Scale) -> Vec<BufferRow> {
    let w = Workload::Financial1;
    let sizes = vec![0usize, 256, 1024, 4096];
    runner::run_parallel(sizes, |&pages| {
        let config = runner::device_config(w);
        let ftl = FtlKind::Tpftl.build(&config).expect("budget fits");
        let mut ssd = Ssd::new(ftl, config.clone()).expect("ssd");
        if pages > 0 {
            ssd = ssd.with_write_buffer(pages);
        }
        let report = ssd.run(w.spec(scale.requests(w)).iter(SEED)).expect("run");
        ssd.flush_buffer().expect("flush");
        let report_after = ssd.report();
        // Host-issued page writes: with a buffer, every host write lands
        // in it first (the FTL's counter only sees evictions + flush).
        let user_writes = match ssd.buffer_stats() {
            Some(b) => b.write_absorbed + b.write_inserted,
            None => report.ftl_stats.user_page_writes,
        };
        BufferRow {
            buffer_pages: pages,
            flash_writes: report_after.flash.total_writes(),
            write_amplification: if pages == 0 {
                report.write_amplification()
            } else {
                report_after.flash.total_writes() as f64 / user_writes.max(1) as f64
            },
            avg_response_us: report.sim.resp_avg_us,
        }
    })
}

/// Runs all three extension studies.
pub fn run(scale: Scale) -> ExperimentOutput {
    let related_rows = related(scale);
    let gc_rows = gc_policies(scale);
    let buf_rows = write_buffer(scale);

    let mut text = String::from("Extension 1: every related-work FTL on Financial1 and MSR-ts\n");
    text.push_str(&format!(
        "{:<11} {:<12} {:>10} {:>7} {:>11} {:>6} {:>8}\n",
        "workload", "FTL", "RAM (B)", "hit", "resp (us)", "WA", "erases"
    ));
    for r in &related_rows {
        text.push_str(&format!(
            "{:<11} {:<12} {:>10} {:>6.1}% {:>11.0} {:>6.2} {:>8}\n",
            r.workload,
            r.ftl,
            r.ram_bytes,
            r.hit_ratio * 100.0,
            r.avg_response_us,
            r.write_amplification,
            r.erases
        ));
    }
    text.push_str("\nExtension 2: GC victim-selection policies under TPFTL (Financial1)\n");
    text.push_str(&format!(
        "{:<16} {:>7} {:>6} {:>8} {:>9} {:>10} {:>11}\n",
        "policy", "streams", "WA", "erases", "max wear", "mean wear", "resp (us)"
    ));
    for r in &gc_rows {
        text.push_str(&format!(
            "{:<16} {:>7} {:>6.2} {:>8} {:>9} {:>10.2} {:>11.0}\n",
            r.policy,
            r.streams,
            r.write_amplification,
            r.erases,
            r.max_wear,
            r.mean_wear,
            r.avg_response_us
        ));
    }
    text.push_str("\nExtension 3: host write buffer in front of TPFTL (Financial1)\n");
    text.push_str(&format!(
        "{:<14} {:>13} {:>6} {:>11}\n",
        "buffer (pages)", "flash writes", "WA", "resp (us)"
    ));
    for r in &buf_rows {
        text.push_str(&format!(
            "{:<14} {:>13} {:>6.2} {:>11.0}\n",
            r.buffer_pages, r.flash_writes, r.write_amplification, r.avg_response_us
        ));
    }

    let json = serde_json::json!({
        "related_ftls": related_rows,
        "gc_policies": gc_rows,
        "write_buffer": buf_rows,
    });
    ExperimentOutput {
        id: "extensions".to_string(),
        text,
        json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_extensions_run() {
        let out = run(Scale(0.00002));
        assert!(out.text.contains("Extension 1"));
        assert!(out.text.contains("ZFTL") && out.text.contains("CDFTL"));
        assert!(out.json.get("gc_policies").is_some());
    }
}

//! The per-run measurement record.

use serde::{Deserialize, Serialize};
use tpftl_core::env::GcStats;
use tpftl_core::FtlStats;
use tpftl_flash::{FlashStats, OpPurpose};

/// Simulated-time metrics from the channel/way unit-clock timing model —
/// the simulator's only clock (see `Ssd::serve`).
///
/// All zeros (including `channels`/`ways`) on reports recorded before the
/// model existed. On a 1-channel/1-way device every flash op serializes on
/// the one unit, so when the device never idles `makespan_us +
/// gc_pending_us` equals the serial `FlashStats::busy_us`; response times
/// can still be
/// *shorter* than a serial sum of op latencies, because a translation
/// write-back that ends a request is fire-and-forget: the request
/// completes before it and only the next op on that unit queues behind
/// it. With more units, independent flash ops overlap and the device time
/// and tail latencies compress.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTiming {
    /// Channels of the device that produced this report.
    pub channels: u32,
    /// Ways (dies) per channel.
    pub ways: u32,
    /// Sum of per-request busy spans (completion − start) in µs: simulated
    /// device time spent serving requests. Garbage collection that ran in
    /// idle time is not in it. Summed across shards.
    pub device_us: f64,
    /// Completion time of the last flash op (device makespan) in µs.
    /// Maximum across shards (they run in parallel).
    pub makespan_us: f64,
    /// Mean simulated response time (arrival → completion) in µs.
    pub resp_avg_us: f64,
    /// Median simulated response time in µs (log-bucket lower edge).
    pub resp_p50_us: f64,
    /// 99th-percentile simulated response time in µs.
    pub resp_p99_us: f64,
    /// 99.9th-percentile simulated response time in µs. Defaults to 0 so
    /// reports recorded before PR 9 still deserialize.
    #[serde(default)]
    pub resp_p999_us: f64,
    /// Cell + bus occupancy of the busiest channel/way unit in µs (the
    /// makespan's critical-path bound; an erase counts on every unit its
    /// block spans). Against the serial `FlashStats::busy_us` it shows
    /// whether the topology was used: equal to it when one unit served
    /// every op, near `busy_us / units` when page ops spread evenly.
    /// Maximum across shards; 0 on reports recorded before it existed.
    #[serde(default)]
    pub busiest_unit_us: f64,
    /// Total µs by which garbage collection delayed host flash ops: a GC
    /// op already running when a host op became ready, or queued GC work
    /// forced ahead of a program into the block it erases. Collections
    /// run in the unit clocks' background lane, in the device's idle time;
    /// this is what they still cost the host. Summed across shards.
    #[serde(default)]
    pub gc_stall_us: f64,
    /// Host programs that had to wait for a queued GC erase of their block.
    /// Summed across shards.
    #[serde(default)]
    pub gc_forced_drains: u64,
    /// Serial µs of GC work still queued when the report was taken (it
    /// is in the op counters and `FlashStats::busy_us`, not yet in
    /// `makespan_us`). Summed across shards.
    #[serde(default)]
    pub gc_pending_us: f64,
}

/// Everything the paper's figures plot, for one (FTL, workload) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// FTL name including configuration (e.g. `TPFTL(rsbc)`).
    pub ftl: String,
    /// Cache-level counters (`H_r`, `P_rd`, `H_gcr`, ...).
    pub ftl_stats: FtlStats,
    /// Flash operation counts by purpose.
    pub flash: FlashStats,
    /// GC aggregates (`N_gcd`, `V_d`, `N_gct`, `V_t`).
    pub gc: GcStats,
    /// Mapping entries cached at the end of the run.
    pub cached_entries: usize,
    /// Cache bytes in use at the end of the run (excluding the GTD).
    pub cache_bytes_used: usize,
    /// Total configured cache budget in bytes (including the GTD).
    pub cache_bytes_total: usize,
    /// Highest erase count any block has reached (the most worn block of
    /// any shard); beside [`RunReport::erase_cv`] it says whether uneven
    /// wear ages one block early. 0 on reports recorded before it existed.
    #[serde(default)]
    pub erase_max: u64,
    /// Unit-clock simulated timing (absent in pre-topology reports).
    #[serde(default)]
    pub sim: SimTiming,
}

impl RunReport {
    /// Cache hit ratio `H_r` (Figure 6b).
    pub fn hit_ratio(&self) -> f64 {
        self.ftl_stats.hit_ratio()
    }

    /// Probability of replacing a dirty entry `P_rd` (Figure 6a).
    pub fn dirty_replacement_prob(&self) -> f64 {
        self.ftl_stats.dirty_replacement_prob()
    }

    /// Translation page reads, address-translation phase + GC (Figure 6c).
    pub fn translation_reads(&self) -> u64 {
        self.flash.translation_reads()
    }

    /// Translation page writes, address-translation phase + GC (Figure 6d).
    pub fn translation_writes(&self) -> u64 {
        self.flash.translation_writes()
    }

    /// Translation page writes during address translation only (`N_tw`).
    pub fn ntw(&self) -> u64 {
        self.flash.of(OpPurpose::Translation).writes
    }

    /// Translation pages GC wrote back for the mapping entries of the data
    /// pages it moved that the cache did not hold: its translation writes
    /// less the translation pages it migrated.
    pub fn gc_miss_write_backs(&self) -> u64 {
        let gc_writes = self.flash.of(OpPurpose::GcTranslation).writes;
        gc_writes.saturating_sub(self.gc.trans_pages_migrated)
    }

    /// Overall write amplification (Figure 6f); 0 for read-only runs.
    pub fn write_amplification(&self) -> f64 {
        self.flash
            .write_amplification(self.ftl_stats.user_page_writes)
            .unwrap_or(0.0)
    }

    /// Total block erases (Figure 7a).
    pub fn erase_count(&self) -> u64 {
        self.flash.total_erases()
    }

    /// GC copy amplification: valid pages the collector migrated (data +
    /// translation) per host page write — the Eq. 12–13 cost the
    /// multi-stream GC exists to shrink. 0 when nothing was written.
    /// Unlike [`RunReport::write_amplification`] (flash writes ÷ host
    /// writes) this isolates the GC contribution, so mapping-table
    /// writeback traffic does not dilute the comparison between GC
    /// policies.
    pub fn write_amp(&self) -> f64 {
        if self.ftl_stats.user_page_writes == 0 {
            return 0.0;
        }
        (self.gc.data_pages_migrated + self.gc.trans_pages_migrated) as f64
            / self.ftl_stats.user_page_writes as f64
    }

    /// Coefficient of variation of per-block erase counts (wear evenness).
    pub fn erase_cv(&self) -> f64 {
        self.ftl_stats.erase_cv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut r = RunReport {
            ftl: "X".into(),
            ftl_stats: FtlStats::default(),
            flash: FlashStats::default(),
            gc: GcStats::default(),
            cached_entries: 0,
            cache_bytes_used: 0,
            cache_bytes_total: 0,
            erase_max: 0,
            sim: SimTiming::default(),
        };
        r.ftl_stats.lookups = 10;
        r.ftl_stats.hits = 9;
        assert!((r.hit_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(r.write_amplification(), 0.0);
        assert_eq!(r.write_amp(), 0.0);
        assert_eq!(r.erase_cv(), 0.0);
        r.ftl_stats.user_page_writes = 10;
        r.gc.data_pages_migrated = 4;
        r.gc.trans_pages_migrated = 1;
        assert!((r.write_amp() - 0.5).abs() < 1e-12);
        // Serializes round-trip (the experiment harness persists these).
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // Reports persisted while `avg_response_us` was still a field carry
        // one extra key; they must keep loading.
        let old = json.replacen('{', "{\"avg_response_us\":100.0,", 1);
        assert_eq!(serde_json::from_str::<RunReport>(&old).unwrap(), r);
    }
}

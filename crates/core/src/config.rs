//! SSD and mapping-cache configuration.
//!
//! Encodes the paper's experiment setup (Section 5.1): the Table 3 flash
//! parameters, the "SSD as large as the trace's logical address space"
//! sizing rule, and the "mapping cache as large as a block-level FTL's
//! mapping table plus the GTD" cache rule (8 KB + 512 B for the 512 MB
//! Financial configuration; 256 KB + 16 KB for the 16 GB MSR one).

use serde::{Deserialize, Serialize};
use tpftl_flash::{FlashGeometry, FlashTopology};

use crate::blockmgr::CANDIDATE_CAP;
use crate::{FtlError, Result};

/// Garbage-collection victim-selection policy (Section 2.3 of the paper
/// surveys GC-policy and wear-leveling work; the paper itself uses greedy).
/// Both variants name one routine — a scored window over the min-valid
/// candidate order of the block class the pick chose first (translation
/// or data; see `blockmgr`) — at different widths.
/// [`SsdConfig::default_gc`] derives which one a device runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum GcPolicy {
    /// The paper's policy: the sealed block of the chosen class with the
    /// fewest valid pages — a name for `Windowed { window: 1 }`. As such, with more than one
    /// data stream it runs the static wear-leveling turn-over like every
    /// other width (no recorded result pairs greedy with `streams > 1`).
    /// The derived default where a collection pass is one block long (the
    /// 64 MB device), and what a serialized config without the key loads
    /// as; `--gc greedy` runs it anywhere.
    #[default]
    Greedy,
    /// Windowed cost-benefit (Dayan & Bonnet's bounded-window cleaning):
    /// examine only the first `window` blocks of the chosen class's
    /// `(valid asc, id asc)` order — its min-valid buckets — and
    /// pick the best `(1 − u) / 2u · age` score inside that window, exact
    /// score ties broken toward the block with the fewest erase cycles
    /// (cache-level wear mitigation, no separate leveling pass). The
    /// window bounds the scan to a handful of cache lines per pick while
    /// keeping greedy's reclaim efficiency; at most 64 candidates are
    /// examined however wide it is set. `Windowed { window: 64 }` is the
    /// derived default where a collection pass spans more than one block
    /// (the 512 MB and 16 GB devices).
    Windowed {
        /// Number of least-valid candidates scored per victim pick
        /// (clamped to at least 1).
        window: u32,
    },
}

/// Number of hot/cold data streams — separate active data blocks user
/// writes are partitioned into by write temperature. Deserializes absent
/// (old configs) or `0` as the single-stream default; [`StreamCount::get`]
/// is the clamped accessor allocation paths use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamCount(pub u32);

impl Default for StreamCount {
    fn default() -> Self {
        StreamCount(1)
    }
}

impl StreamCount {
    /// The effective stream count (always at least 1).
    pub fn get(self) -> u32 {
        self.0.max(1)
    }
}

/// The most blocks a default collection pass runs past its trigger,
/// unless the device's translation pages need more
/// (`SsdConfig::default_gc`). On Financial1's 512 MB device
/// (TPFTL, 2 M requests) a cap of 16 / 32 read write amplification
/// 2.600 / 2.300 and mean response 270.2 / 266.7 µs; no cap (an eighth of
/// the spare blocks, 38) read 2.245 / 266.8 µs. DESIGN.md §16 has the
/// sweep.
const MAX_PASS_GAP: usize = 32;

/// The fewest free blocks GC may start collecting with, and so the least
/// low watermark an environment accepts: a page access may take two
/// blocks (its stream's open block and the host's translation block),
/// and a collection pass that makes progress dips the pool at most two
/// below where it began, since the lane's data and translation blocks are
/// the only ones it opens (DESIGN.md §16, *The free-pool slack*).
const MIN_LOW_BLOCKS: usize = 4;

/// Full configuration of a simulated SSD.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Host-visible capacity in bytes; set to the trace's address space.
    pub logical_bytes: u64,
    /// Extra physical capacity fraction (Table 3: 15 %).
    pub over_provision: f64,
    /// Total mapping-cache budget in bytes, *including* the GTD.
    pub cache_bytes: usize,
    /// GC trigger: collect when free blocks drop below this (four or more).
    pub gc_low_blocks: usize,
    /// GC target: collect until free blocks reach this.
    pub gc_high_blocks: usize,
    /// Fraction of the logical space sequentially written before the
    /// measured run (statistics are reset afterwards). The paper assumes
    /// the SSD "is in full use" for the Financial volumes; the MSR volumes
    /// are mostly empty.
    pub prefill_frac: f64,
    /// GC victim-selection policy (the paper uses greedy;
    /// [`SsdConfig::default_gc`] derives the default).
    #[serde(default)]
    pub gc_policy: GcPolicy,
    /// Hot/cold data-stream count. `1` (the default, and what absent keys
    /// in old serialized configs load as) reproduces the single-stream
    /// allocator bit for bit; with more streams, host writes are routed by
    /// write temperature and GC migrations demote to the coldest stream.
    #[serde(default)]
    pub streams: StreamCount,
    /// Channel/way parallelism of the flash array (defaults to the serial
    /// single-unit device, which reproduces the old timing bit for bit).
    #[serde(default)]
    pub topology: FlashTopology,
}

impl SsdConfig {
    /// Paper configuration for a device of `logical_bytes`, with the cache
    /// sized by the block-level-table + GTD rule.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpftl_core::SsdConfig;
    ///
    /// let fin = SsdConfig::paper_default(512 << 20);
    /// // 8 KB block-level table + 512 B GTD (Section 5.1).
    /// assert_eq!(fin.cache_bytes, 8 * 1024 + 512);
    /// let msr = SsdConfig::paper_default(16 << 30);
    /// // 256 KB + 16 KB.
    /// assert_eq!(msr.cache_bytes, 256 * 1024 + 16 * 1024);
    /// ```
    pub fn paper_default(logical_bytes: u64) -> Self {
        let mut cfg = Self {
            logical_bytes,
            over_provision: 0.15,
            cache_bytes: 0,
            gc_low_blocks: 0,
            gc_high_blocks: 0,
            prefill_frac: 0.0,
            gc_policy: GcPolicy::Greedy,
            streams: StreamCount(1),
            topology: FlashTopology::default(),
        };
        cfg.cache_bytes = cfg.paper_cache_bytes();
        (cfg.gc_low_blocks, cfg.gc_high_blocks, cfg.gc_policy) = cfg.default_gc();
        cfg
    }

    /// The GC settings `paper_default` and `shard_config` derive from the
    /// geometry: the watermarks and the victim policy,
    /// `(low, high, policy)`.
    ///
    /// `low` scales with the device from `MIN_LOW_BLOCKS` to eight, so
    /// that small test devices do not reserve more free space than their
    /// over-provisioning allows. The gap `high − low` sizes a collection
    /// pass (one `gc::ensure_free` call), the unit of mapping write-back:
    /// a pass writes each translation page its cache misses touch once,
    /// after its last erase. With `V` translation pages, `P` pages per
    /// block and `S` spare blocks:
    ///
    /// - `V < P`: one block, as measured rather than derived. On the
    ///   64 MB device (`V = 16`) the rule below gives 4 blocks, and it
    ///   moved write amplification −8 to −10 % on the one-stream aging
    ///   rows of `BENCH_ftl.json` but +1.3 to +5.6 % on the multi-stream
    ///   and two-tenant rows (DESIGN.md §16), with no write-back to share.
    /// - otherwise `max(⌈V / P⌉, min(S / 8, MAX_PASS_GAP))`: long enough
    ///   that one translation-page write carries several moves, never
    ///   more than an eighth of the spare blocks unless the floor
    ///   `⌈V / P⌉` needs it. The floor is what DESIGN.md §16's slack
    ///   proof asks of the pool a pass ends with (`high ≥ 4 + ⌈W / P⌉`
    ///   for `W ≤ V` write-backs).
    ///
    /// A pass longer than one block picks by age as well as by valid
    /// pages: windowed cost-benefit over the whole candidate walk
    /// (`Windowed { window: 64 }`, the walk's cap), which reaches past the
    /// hot blocks greedy takes while they are still losing pages. On
    /// Financial1's 512 MB device (TPFTL, 2 M requests) write amplification
    /// reads 2.300 greedy and 2.142 / 2.049 / 1.947 at windows of
    /// 16 / 32 / 64; with the cap raised, 1.878 at 256 and 1.894 over every
    /// sealed block, so a wider walk buys little. A one-block pass stays
    /// greedy: on a 64 MB semi-sequential LearnedFTL replay, windows of
    /// 2 / 4 / 8 / 64 raised write amplification by +0.6 / +1.2 / +2.2 /
    /// +9.8 %.
    ///
    /// A configuration that changes the geometry after `paper_default`
    /// (say, its over-provisioning) re-derives its GC settings here.
    pub fn default_gc(&self) -> (usize, usize, GcPolicy) {
        let geom = self.geometry();
        let low = (geom.num_blocks / 300).clamp(MIN_LOW_BLOCKS, 8);
        let pages_per_block = geom.pages_per_block as u64;
        let vtpns = self.num_vtpns();
        let gap = if vtpns < pages_per_block {
            1
        } else {
            let logical_blocks = (self.logical_bytes / geom.block_bytes() as u64) as usize;
            let spare = geom.num_blocks - logical_blocks;
            let floor = vtpns.div_ceil(pages_per_block) as usize;
            floor.max((spare / 8).min(MAX_PASS_GAP))
        };
        let policy = if gap > 1 {
            GcPolicy::Windowed {
                window: CANDIDATE_CAP as u32,
            }
        } else {
            GcPolicy::Greedy
        };
        (low, low + gap, policy)
    }

    /// Refuses GC watermarks a pass cannot run with: `low` under
    /// `MIN_LOW_BLOCKS`, or `high` not above `low`.
    pub(crate) fn check_watermarks(&self) -> Result<()> {
        let (low, high) = (self.gc_low_blocks, self.gc_high_blocks);
        if low < MIN_LOW_BLOCKS || high <= low {
            return Err(FtlError::BadWatermarks { low, high });
        }
        Ok(())
    }

    /// Flash geometry per Table 3, with this config's channel/way topology.
    pub fn geometry(&self) -> FlashGeometry {
        let mut geom = FlashGeometry::paper_default(self.logical_bytes, self.over_provision);
        geom.topology = self.topology;
        geom
    }

    /// Number of host-visible 4 KB pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_bytes / 4096
    }

    /// Mapping entries per translation page (4 KB page / 4 B PPN).
    pub fn entries_per_tp(&self) -> usize {
        1024
    }

    /// Number of translation pages covering the logical space.
    pub fn num_vtpns(&self) -> u64 {
        self.logical_pages().div_ceil(self.entries_per_tp() as u64)
    }

    /// Size of the global translation directory in bytes (4 B per
    /// translation page), always resident in the cache.
    pub fn gtd_bytes(&self) -> usize {
        (self.num_vtpns() * 4) as usize
    }

    /// Size of a block-level FTL's mapping table (4 B per 256 KB logical
    /// block); the paper's cache-sizing reference.
    pub fn block_table_bytes(&self) -> usize {
        ((self.logical_bytes / (256 * 1024)) * 4) as usize
    }

    /// The paper's default cache budget: block-level table + GTD.
    pub fn paper_cache_bytes(&self) -> usize {
        self.block_table_bytes() + self.gtd_bytes()
    }

    /// Size of the full page-level mapping table at 8 B per entry, the
    /// normalization base of Figures 8(c), 9 and 10.
    pub fn full_table_bytes(&self) -> usize {
        (self.logical_pages() * 8) as usize
    }

    /// Cache budget for a Figure 9-style sweep point: `frac` of the full
    /// table (entries at 8 B) plus the always-resident GTD.
    pub fn with_cache_fraction(mut self, frac: f64) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "cache fraction out of range");
        self.cache_bytes = ((self.full_table_bytes() as f64) * frac) as usize + self.gtd_bytes();
        self
    }

    /// Budget available to the FTL's own structures (total minus GTD).
    pub fn usable_cache_bytes(&self) -> usize {
        self.cache_bytes.saturating_sub(self.gtd_bytes())
    }

    /// Whether the device can be partitioned into `num_shards` LPN-striped
    /// shards: the count must be a nonzero power of two (routing is a mask
    /// of the low LPN bits) and every shard must own a whole number of
    /// translation pages, so per-shard devices keep the paper's
    /// 1024-entries-per-TP layout exactly.
    pub fn supports_shards(&self, num_shards: u32) -> bool {
        num_shards.is_power_of_two()
            && self
                .logical_pages()
                .is_multiple_of(num_shards as u64 * self.entries_per_tp() as u64)
    }

    /// The configuration of one shard when this device is partitioned into
    /// `num_shards` independent LPN-striped shards (the sharded engine's
    /// per-shard geometry). Every extensive resource — logical space, cache
    /// budget, and with them the derived flash geometry, GTD and
    /// over-provisioned pool — divides by the shard count; ratios
    /// (over-provisioning, prefill fraction) and the GC policy carry over,
    /// and the GC watermarks are re-derived from the shard-sized geometry
    /// with the same rule [`SsdConfig::paper_default`] uses
    /// ([`SsdConfig::default_gc`]).
    ///
    /// `num_shards == 1` returns the configuration unchanged (bit-identical
    /// single-queue behaviour, whatever the caller customized).
    ///
    /// # Panics
    ///
    /// Panics when [`SsdConfig::supports_shards`] is false.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpftl_core::SsdConfig;
    ///
    /// let whole = SsdConfig::paper_default(512 << 20);
    /// let quarter = whole.shard_config(4);
    /// assert_eq!(quarter.logical_bytes, 128 << 20);
    /// assert_eq!(quarter.num_vtpns(), whole.num_vtpns() / 4);
    /// assert_eq!(whole.shard_config(1), whole);
    /// ```
    pub fn shard_config(&self, num_shards: u32) -> SsdConfig {
        assert!(
            self.supports_shards(num_shards),
            "cannot split {} logical pages into {num_shards} shards \
             (need a power of two dividing the translation-page count)",
            self.logical_pages()
        );
        if num_shards == 1 {
            return self.clone();
        }
        let n = num_shards as u64;
        let mut cfg = SsdConfig {
            logical_bytes: self.logical_bytes / n,
            over_provision: self.over_provision,
            cache_bytes: self.cache_bytes / num_shards as usize,
            gc_low_blocks: 0,
            gc_high_blocks: 0,
            prefill_frac: self.prefill_frac,
            gc_policy: self.gc_policy,
            streams: self.streams,
            topology: self.topology,
        };
        (cfg.gc_low_blocks, cfg.gc_high_blocks, _) = cfg.default_gc();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SsdEnv;
    use crate::gtd::Gtd;

    #[test]
    fn paper_cache_sizes_match_section_5_1() {
        let fin = SsdConfig::paper_default(512 << 20);
        assert_eq!(fin.block_table_bytes(), 8 * 1024);
        assert_eq!(fin.gtd_bytes(), 512);
        assert_eq!(fin.cache_bytes, 8704);
        assert_eq!(fin.num_vtpns(), 128);

        let msr = SsdConfig::paper_default(16 << 30);
        assert_eq!(msr.block_table_bytes(), 256 * 1024);
        assert_eq!(msr.gtd_bytes(), 16 * 1024);
        assert_eq!(msr.cache_bytes, 272 * 1024);
        assert_eq!(msr.num_vtpns(), 4096);
    }

    #[test]
    fn cache_fraction_sweep() {
        let cfg = SsdConfig::paper_default(512 << 20);
        // Full table: 131072 pages * 8 B = 1 MB.
        assert_eq!(cfg.full_table_bytes(), 1 << 20);
        let c = cfg.clone().with_cache_fraction(1.0 / 128.0);
        // 1/128 of the table is exactly the paper's 8 KB block-level size.
        assert_eq!(c.cache_bytes, 8 * 1024 + 512);
        let full = cfg.with_cache_fraction(1.0);
        assert_eq!(full.usable_cache_bytes(), 1 << 20);
    }

    #[test]
    fn usable_excludes_gtd() {
        let cfg = SsdConfig::paper_default(512 << 20);
        assert_eq!(cfg.usable_cache_bytes(), 8 * 1024);
    }

    #[test]
    #[should_panic(expected = "cache fraction")]
    fn zero_fraction_panics() {
        let _ = SsdConfig::paper_default(512 << 20).with_cache_fraction(0.0);
    }

    #[test]
    fn shard_config_divides_extensive_resources() {
        let whole = SsdConfig::paper_default(512 << 20);
        let part = whole.shard_config(4);
        assert_eq!(part.logical_bytes, whole.logical_bytes / 4);
        assert_eq!(part.cache_bytes, whole.cache_bytes / 4);
        assert_eq!(part.num_vtpns() * 4, whole.num_vtpns());
        assert_eq!(part.over_provision, whole.over_provision);
        assert_eq!(part.gc_policy, whole.gc_policy);
        assert_eq!(part.streams, whole.streams);
        assert_eq!(part.topology, whole.topology);
        // Watermarks follow the paper_default rule on the shard geometry.
        let marks = (part.gc_low_blocks, part.gc_high_blocks);
        let (low, high, derived) = part.default_gc();
        assert_eq!(marks, (low, high));
        // 128 MB, 32 translation pages: fewer than a block's 64.
        assert_eq!(marks, (4, 5));
        // The policy is the whole device's, not the shard's own.
        assert_eq!(part.gc_policy, WINDOWED_64);
        assert_eq!(derived, GcPolicy::Greedy);
    }

    const WINDOWED_64: GcPolicy = GcPolicy::Windowed { window: 64 };

    /// What `paper_default` stores is what `default_gc` derives: the
    /// pass's watermarks and the pick, the 64-wide window wherever the
    /// pass spans more than one block.
    #[test]
    fn default_watermarks_size_a_pass_to_the_geometry() {
        let gc = |bytes: u64| {
            let cfg = SsdConfig::paper_default(bytes);
            let stored = (cfg.gc_low_blocks, cfg.gc_high_blocks, cfg.gc_policy);
            assert_eq!(stored, cfg.default_gc(), "{bytes} B");
            stored
        };
        // V = 16 < P: a one-block pass, from the four-block floor, greedy.
        assert_eq!(gc(64 << 20), (4, 5, GcPolicy::Greedy));
        // V = 128, 308 spare blocks: the cap.
        assert_eq!(gc(512 << 20), (7, 39, WINDOWED_64));
        // V = 4096: the ⌈V / P⌉ = 64 floor beats the cap.
        assert_eq!(gc(16 << 30), (8, 72, WINDOWED_64));
        // A 256 MB shard (V = P = 64, 154 spare blocks): an eighth of them.
        let shard = SsdConfig::paper_default(512 << 20).shard_config(2);
        assert_eq!(shard.default_gc(), (4, 23, WINDOWED_64));
        assert_eq!(shard.gc_policy, WINDOWED_64);
        // 260 MB at 1 % over-provisioning (11 spare blocks, V = 65): the
        // ⌈V / P⌉ = 2 floor, where the 15 % default's 156 give 19.
        let lean = SsdConfig {
            over_provision: 0.01,
            ..SsdConfig::paper_default(260 << 20)
        };
        assert_eq!(lean.default_gc(), (4, 6, WINDOWED_64));
    }

    /// Every `(whole device, 1 % over-provisioning, shard split)` config
    /// of the slack sweep below, from 1 MB to 64 GB.
    fn sweep(mut check: impl FnMut(&SsdConfig)) {
        for mb in 1..=64u64 << 10 {
            let whole = SsdConfig::paper_default(mb << 20);
            check(&whole);
            let mut lean = SsdConfig {
                over_provision: 0.01,
                ..whole.clone()
            };
            (lean.gc_low_blocks, lean.gc_high_blocks, lean.gc_policy) = lean.default_gc();
            check(&lean);
            let mut shards = 2;
            while whole.supports_shards(shards) {
                check(&whole.shard_config(shards));
                shards *= 2;
            }
        }
    }

    /// The four-block floor used to be a shift GC added to a stored pair
    /// whose low end was clamped to two; folding it into the stored pair
    /// changed no pair GC runs, on any device of the sweep.
    #[test]
    fn stored_pairs_are_the_pairs_the_shifted_defaults_ran() {
        sweep(|cfg| {
            let geom = cfg.geometry();
            let (vtpns, ppb) = (cfg.num_vtpns(), geom.pages_per_block as u64);
            let gap = if vtpns < ppb {
                1
            } else {
                let logical_blocks = (cfg.logical_bytes / geom.block_bytes() as u64) as usize;
                let spare = geom.num_blocks - logical_blocks;
                (vtpns.div_ceil(ppb) as usize).max((spare / 8).min(32))
            };
            let stored = (geom.num_blocks / 300).clamp(2, 8);
            let shift = 4usize.saturating_sub(stored);
            let ran = (stored + shift, stored + gap + shift);
            let now = (cfg.gc_low_blocks, cfg.gc_high_blocks);
            assert_eq!(now, ran, "{} B", cfg.logical_bytes);
        });
    }

    /// DESIGN.md §16: a pass ends with `high − ⌈W / P⌉` free blocks or
    /// more, and the next one needs four, so `high ≥ 4 + ⌈V / P⌉` (with
    /// `W ≤ V`), on every device from 1 MB to 64 GB, on every shard split
    /// of it, and at 1 % over-provisioning with the watermarks re-derived.
    #[test]
    fn every_default_pass_leaves_the_next_its_slack() {
        sweep(|cfg| {
            let (low, high) = (cfg.gc_low_blocks, cfg.gc_high_blocks);
            let pages_per_block = cfg.geometry().pages_per_block as u64;
            let need = 4 + cfg.num_vtpns().div_ceil(pages_per_block) as usize;
            let bytes = cfg.logical_bytes;
            assert!(low >= 4 && high > low, "{bytes} B: ({low}, {high})");
            assert!(high >= need, "{bytes} B: high {high} < {need}");
            assert_eq!(cfg.check_watermarks(), Ok(()), "{bytes} B");
        });
    }

    /// A device's derived pick is the 64-wide window exactly when its
    /// derived pass is longer than one block, on every device of the
    /// sweep.
    #[test]
    fn the_derived_pick_is_windowed_exactly_where_a_pass_spans_blocks() {
        sweep(|cfg| {
            let (low, high, policy) = cfg.default_gc();
            let windowed = policy == WINDOWED_64;
            assert!(windowed || policy == GcPolicy::Greedy, "{policy:?}");
            assert_eq!(windowed, high - low > 1, "{} B", cfg.logical_bytes);
            let stored = (cfg.gc_low_blocks, cfg.gc_high_blocks);
            assert_eq!(stored, (low, high), "{} B", cfg.logical_bytes);
        });
    }

    /// An explicit pair GC cannot run with is refused when the environment
    /// is built, fresh or remounted, not moved to one it can.
    #[test]
    fn an_environment_refuses_watermarks_gc_cannot_run_with() {
        let fine = SsdConfig::paper_default(64 << 20);
        for (low, high) in [(2, 3), (3, 9), (6, 6), (7, 5)] {
            let cfg = SsdConfig {
                gc_low_blocks: low,
                gc_high_blocks: high,
                ..fine.clone()
            };
            let refused = Some(FtlError::BadWatermarks { low, high });
            assert_eq!(SsdEnv::new(cfg.clone()).err(), refused);
            let flash = tpftl_flash::Flash::new(cfg.geometry()).unwrap();
            let gtd = Gtd::new(cfg.num_vtpns() as usize);
            assert_eq!(SsdEnv::remount(cfg, flash, gtd).err(), refused);
        }
        assert!(SsdEnv::new(fine).is_ok());
    }

    #[test]
    fn one_shard_is_identity_even_when_customized() {
        let mut cfg = SsdConfig::paper_default(512 << 20);
        cfg.cache_bytes = 12_345;
        cfg.gc_low_blocks = 5;
        cfg.gc_high_blocks = 9;
        cfg.prefill_frac = 0.3;
        assert_eq!(cfg.shard_config(1), cfg);
    }

    #[test]
    fn supports_shards_checks_divisibility() {
        let cfg = SsdConfig::paper_default(512 << 20); // 128 VTPNs
        assert!(cfg.supports_shards(1));
        assert!(cfg.supports_shards(4));
        assert!(cfg.supports_shards(128));
        assert!(!cfg.supports_shards(3));
        assert!(!cfg.supports_shards(256));
        let tiny = SsdConfig::paper_default(4 << 20); // one VTPN
        assert!(tiny.supports_shards(1));
        assert!(!tiny.supports_shards(2));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn shard_config_rejects_unsupported_counts() {
        let _ = SsdConfig::paper_default(4 << 20).shard_config(2);
    }

    #[test]
    fn streams_default_and_shard_inheritance() {
        let mut cfg = SsdConfig::paper_default(512 << 20);
        assert_eq!(cfg.streams.get(), 1);
        // The degenerate zero count clamps to one stream.
        assert_eq!(StreamCount(0).get(), 1);
        cfg.streams = StreamCount(3);
        assert_eq!(cfg.shard_config(4).streams, StreamCount(3));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SsdConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.streams, StreamCount(3));
        // Old serialized configs (no streams key) load single-stream.
        let legacy = r#"{"logical_bytes":536870912,"over_provision":0.15,
            "cache_bytes":8704,"gc_low_blocks":2,"gc_high_blocks":3,
            "prefill_frac":0.0}"#;
        let back: SsdConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.streams, StreamCount(1));
        assert_eq!(back.gc_policy, GcPolicy::Greedy);
    }

    #[test]
    fn topology_threads_into_geometry_and_shards() {
        let mut cfg = SsdConfig::paper_default(512 << 20);
        assert_eq!(cfg.geometry().topology, FlashTopology::default());
        cfg.topology = FlashTopology {
            channels: 4,
            ways: 2,
            bus_us: 10.0,
        };
        assert_eq!(cfg.geometry().topology.units(), 8);
        // Shards inherit the whole device's per-shard parallelism verbatim.
        assert_eq!(cfg.shard_config(4).topology, cfg.topology);
        // Old serialized configs (no topology key) load as serial devices.
        let json = serde_json::to_string(&SsdConfig::paper_default(512 << 20)).unwrap();
        let back: SsdConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.topology, FlashTopology::default());
    }
}

//! Device geometry and timing parameters.

use serde::{Deserialize, Serialize};

use crate::{BlockId, Ppn};

/// Channel/way parallelism of a simulated flash device.
///
/// The device exposes `channels * ways` independent flash units and lays
/// each erase block across them as a superblock: page `ppn` is served by
/// unit `ppn % units`, so consecutive pages of a block go to consecutive
/// channels first and then to the next way, and an erase occupies every
/// unit its block's pages span. Ops on distinct units overlap in simulated
/// time; ops on the same unit serialize.
/// `bus_us` models the channel bus transfer of one page separately from
/// the cell read/program time: reads occupy the bus *after* the cell
/// sense, programs occupy it *before* the cell program, so a translation
/// read on one unit can pipeline behind a data transfer on another.
///
/// The default (`1` channel, `1` way, no bus cost) reproduces the serial
/// single-unit timing model bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashTopology {
    /// Number of channels (independent buses).
    pub channels: u32,
    /// Number of ways (dies) per channel.
    pub ways: u32,
    /// Bus transfer time of one page in microseconds (0 folds the bus
    /// into the cell latency, as the serial model did).
    pub bus_us: f64,
}

impl Default for FlashTopology {
    fn default() -> Self {
        FlashTopology {
            channels: 1,
            ways: 1,
            bus_us: 0.0,
        }
    }
}

impl FlashTopology {
    /// Total number of independent flash units.
    #[inline]
    pub fn units(&self) -> usize {
        (self.channels as usize) * (self.ways as usize)
    }

    /// The unit serving page `ppn` (pages are striped round-robin, so a
    /// block's pages spread over `min(pages_per_block, units)` units).
    #[inline]
    pub fn unit_of_page(&self, ppn: Ppn) -> usize {
        (ppn as usize) % self.units()
    }

    /// The channel a unit's bus traffic goes through.
    #[inline]
    pub fn channel_of_unit(&self, unit: usize) -> usize {
        unit % (self.channels as usize)
    }

    /// Checks the topology is usable.
    pub fn validate(&self) -> crate::Result<()> {
        if self.channels == 0 || self.ways == 0 || !self.bus_us.is_finite() || self.bus_us < 0.0 {
            return Err(crate::FlashError::InvalidGeometry);
        }
        Ok(())
    }
}

/// Geometry and latency parameters of a simulated flash device.
///
/// Defaults follow Table 3 of the paper (taken from Agrawal et al.,
/// USENIX ATC'08): 4 KB pages, 256 KB blocks, 25 µs page read, 200 µs page
/// write, 1.5 ms block erase.
///
/// # Examples
///
/// ```
/// use tpftl_flash::FlashGeometry;
///
/// let geom = FlashGeometry::paper_default(512 << 20, 0.15);
/// assert_eq!(geom.page_bytes, 4096);
/// assert_eq!(geom.pages_per_block, 64);
/// // 512 MB of logical space + 15% over-provisioning (rounded up).
/// assert_eq!(geom.num_blocks, 2048 + 308);
/// // Serial single-unit timing unless a topology is configured.
/// assert_eq!(geom.topology.units(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashGeometry {
    /// Size of a flash page in bytes (the unit of read/program).
    pub page_bytes: usize,
    /// Number of pages per erase block.
    pub pages_per_block: usize,
    /// Total number of erase blocks in the device (including
    /// over-provisioned ones).
    pub num_blocks: usize,
    /// Page read latency in microseconds.
    pub read_us: f64,
    /// Page program latency in microseconds.
    pub write_us: f64,
    /// Block erase latency in microseconds.
    pub erase_us: f64,
    /// Channel/way parallelism (defaults to a single serial unit).
    #[serde(default)]
    pub topology: FlashTopology,
}

impl FlashGeometry {
    /// Builds the paper's Table 3 configuration for a device exporting
    /// `logical_bytes` of host-visible capacity with `over_provision`
    /// (e.g. `0.15`) extra physical space.
    ///
    /// # Panics
    ///
    /// Panics if `logical_bytes` is not a multiple of the 256 KB block size
    /// or if `over_provision` is negative.
    pub fn paper_default(logical_bytes: u64, over_provision: f64) -> Self {
        assert!(over_provision >= 0.0, "over-provisioning must be >= 0");
        let page_bytes = 4096usize;
        let pages_per_block = 64usize; // 256 KB / 4 KB.
        let block_bytes = (page_bytes * pages_per_block) as u64;
        assert!(
            logical_bytes.is_multiple_of(block_bytes),
            "logical capacity must be a multiple of the block size"
        );
        let logical_blocks = (logical_bytes / block_bytes) as usize;
        let extra = ((logical_blocks as f64) * over_provision).ceil() as usize;
        Self {
            page_bytes,
            pages_per_block,
            num_blocks: logical_blocks + extra,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: FlashTopology::default(),
        }
    }

    /// Total number of physical pages in the device.
    #[inline]
    pub fn total_pages(&self) -> usize {
        self.num_blocks * self.pages_per_block
    }

    /// Bytes per erase block.
    #[inline]
    pub fn block_bytes(&self) -> usize {
        self.page_bytes * self.pages_per_block
    }

    /// The erase block that `ppn` belongs to.
    #[inline]
    pub fn block_of(&self, ppn: Ppn) -> BlockId {
        ppn / self.pages_per_block as u32
    }

    /// Offset of `ppn` within its erase block.
    #[inline]
    pub fn offset_in_block(&self, ppn: Ppn) -> usize {
        (ppn as usize) % self.pages_per_block
    }

    /// First physical page of block `block`.
    #[inline]
    pub fn first_ppn(&self, block: BlockId) -> Ppn {
        block * self.pages_per_block as u32
    }

    /// Validates internal consistency; used by constructors of dependent
    /// structures.
    pub fn validate(&self) -> crate::Result<()> {
        if self.page_bytes == 0
            || self.pages_per_block == 0
            || self.num_blocks == 0
            || self.total_pages() > (u32::MAX as usize)
        {
            return Err(crate::FlashError::InvalidGeometry);
        }
        self.topology.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_512mb() {
        let g = FlashGeometry::paper_default(512 << 20, 0.15);
        assert_eq!(g.page_bytes, 4096);
        assert_eq!(g.pages_per_block, 64);
        assert_eq!(g.block_bytes(), 256 * 1024);
        // 512 MB -> 2048 logical blocks, 15% OP -> 308 extra (ceil of 307.2).
        assert_eq!(g.num_blocks, 2048 + 308);
        assert_eq!(g.total_pages(), (2048 + 308) * 64);
        assert_eq!(g.read_us, 25.0);
        assert_eq!(g.write_us, 200.0);
        assert_eq!(g.erase_us, 1500.0);
        g.validate().unwrap();
    }

    #[test]
    fn paper_default_16gb() {
        let g = FlashGeometry::paper_default(16u64 << 30, 0.15);
        assert_eq!(g.num_blocks, 65536 + 9831);
        g.validate().unwrap();
    }

    #[test]
    fn address_helpers_roundtrip() {
        let g = FlashGeometry::paper_default(512 << 20, 0.0);
        for ppn in [0u32, 1, 63, 64, 65, 4095, 4096] {
            let b = g.block_of(ppn);
            let off = g.offset_in_block(ppn);
            assert_eq!(g.first_ppn(b) + off as u32, ppn);
            assert!(off < g.pages_per_block);
        }
    }

    #[test]
    fn invalid_geometry_detected() {
        let mut g = FlashGeometry::paper_default(512 << 20, 0.0);
        g.num_blocks = 0;
        assert!(g.validate().is_err());
        let mut g2 = FlashGeometry::paper_default(512 << 20, 0.0);
        g2.num_blocks = usize::MAX / 64;
        assert!(g2.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "multiple of the block size")]
    fn unaligned_capacity_panics() {
        let _ = FlashGeometry::paper_default((512 << 20) + 1, 0.15);
    }

    #[test]
    fn topology_defaults_to_serial_unit() {
        let t = FlashTopology::default();
        assert_eq!(t.units(), 1);
        assert_eq!(t.unit_of_page(17), 0);
        assert_eq!(t.bus_us, 0.0);
        t.validate().unwrap();
    }

    #[test]
    fn topology_striping_and_channels() {
        let t = FlashTopology {
            channels: 4,
            ways: 2,
            bus_us: 10.0,
        };
        assert_eq!(t.units(), 8);
        // Pages stripe round-robin over the 8 units.
        assert_eq!(t.unit_of_page(0), 0);
        assert_eq!(t.unit_of_page(7), 7);
        assert_eq!(t.unit_of_page(8), 0);
        // Units 0..4 sit on channels 0..4, units 4..8 wrap around.
        assert_eq!(t.channel_of_unit(3), 3);
        assert_eq!(t.channel_of_unit(5), 1);
        // So consecutive pages of one 64-page block visit every channel
        // before reusing one, then move on to the next way.
        let g = FlashGeometry {
            topology: t,
            ..FlashGeometry::paper_default(512 << 20, 0.0)
        };
        let first = g.first_ppn(3);
        let units: Vec<usize> = (first..first + 8).map(|p| t.unit_of_page(p)).collect();
        assert_eq!(units, [0, 1, 2, 3, 4, 5, 6, 7]);
        let chans: Vec<usize> = units.iter().map(|&u| t.channel_of_unit(u)).collect();
        assert_eq!(chans, [0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(t.unit_of_page(first + 64 - 1), 7);
        t.validate().unwrap();
    }

    #[test]
    fn invalid_topology_detected() {
        for t in [
            FlashTopology {
                channels: 0,
                ways: 1,
                bus_us: 0.0,
            },
            FlashTopology {
                channels: 1,
                ways: 0,
                bus_us: 0.0,
            },
            FlashTopology {
                channels: 1,
                ways: 1,
                bus_us: -1.0,
            },
            FlashTopology {
                channels: 1,
                ways: 1,
                bus_us: f64::NAN,
            },
        ] {
            assert!(t.validate().is_err());
            let mut g = FlashGeometry::paper_default(512 << 20, 0.0);
            g.topology = t;
            assert!(g.validate().is_err());
        }
    }

    #[test]
    fn topology_deserializes_with_default() {
        // Old configs without a `topology` key must load as serial.
        let json = r#"{"page_bytes":4096,"pages_per_block":64,"num_blocks":2048,
                       "read_us":25.0,"write_us":200.0,"erase_us":1500.0}"#;
        let g: FlashGeometry = serde_json::from_str(json).unwrap();
        assert_eq!(g.topology, FlashTopology::default());
        // And round-trip with one set.
        let mut g2 = g.clone();
        g2.topology.channels = 8;
        g2.topology.bus_us = 12.5;
        let back: FlashGeometry =
            serde_json::from_str(&serde_json::to_string(&g2).unwrap()).unwrap();
        assert_eq!(back, g2);
    }
}

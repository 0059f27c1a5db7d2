//! Property tests for the channel/way unit-clock timing model.
//!
//! Three invariants, each checked over seeded random op sequences that mix
//! reads, programs, erases and dependency-frontier relaxations:
//!
//! 1. **Serial identity** — with 1 channel / 1 way / no bus cost, the
//!    simulated device clock accumulates exactly the same `t += latency`
//!    sequence as `FlashStats::busy_us`, so the two are bit-identical.
//! 2. **Never faster than physics** — with N units, the makespan is never
//!    below the critical-path bound: the busiest single unit's total
//!    occupancy (cell time plus its bus slots).
//! 3. **Never slower than serial** — parallelism (with zero bus cost) can
//!    only ever help: the N-unit makespan never exceeds the serial sum of
//!    latencies.

use tpftl_flash::{Flash, FlashGeometry, FlashTopology, OpPurpose, Ppn};
use tpftl_rng::Rng64;

const BLOCKS: usize = 16;
const PAGES_PER_BLOCK: usize = 8;

fn geom(channels: u32, ways: u32, bus_us: f64) -> FlashGeometry {
    FlashGeometry {
        page_bytes: 64,
        pages_per_block: PAGES_PER_BLOCK,
        num_blocks: BLOCKS,
        read_us: 25.0,
        write_us: 200.0,
        erase_us: 1500.0,
        topology: FlashTopology {
            channels,
            ways,
            bus_us,
        },
    }
}

/// Per-unit occupancy accumulated by the oracle: every page op holds its
/// page's unit for at least its cell time plus (with a bus) the transfer;
/// an erase holds every unit one of its block's pages lives on for the
/// erase time.
struct Oracle {
    topology: FlashTopology,
    unit_occupancy_us: Vec<f64>,
    serial_us: f64,
}

impl Oracle {
    fn new(topology: FlashTopology) -> Self {
        Oracle {
            unit_occupancy_us: vec![0.0; topology.units()],
            serial_us: 0.0,
            topology,
        }
    }

    fn page_op(&mut self, ppn: Ppn, cell_us: f64) {
        let us = cell_us + self.topology.bus_us;
        self.unit_occupancy_us[self.topology.unit_of_page(ppn)] += us;
        self.serial_us += us;
    }

    fn erase(&mut self, g: &FlashGeometry, block: u32) {
        let first = g.first_ppn(block);
        let mut spanned = vec![false; self.topology.units()];
        for ppn in first..first + PAGES_PER_BLOCK as Ppn {
            spanned[self.topology.unit_of_page(ppn)] = true;
        }
        for (unit, _) in spanned.iter().enumerate().filter(|(_, &s)| s) {
            self.unit_occupancy_us[unit] += g.erase_us;
        }
        // Spanned units erase side by side: serially it is one pulse.
        self.serial_us += g.erase_us;
    }

    /// Critical-path lower bound: the busiest unit can never be compressed.
    fn critical_path_us(&self) -> f64 {
        self.unit_occupancy_us.iter().fold(0.0, |a, &b| a.max(b))
    }
}

/// Drives a seeded op sequence against the device, mirroring it into the
/// oracle. Relaxations rewind the frontier to a randomly chosen past
/// completion time, modeling independent command chains.
fn drive(flash: &mut Flash, oracle: &mut Oracle, seed: u64, ops: usize) {
    let mut rng = Rng64::seed_from_u64(seed);
    let g = flash.geometry().clone();
    let mut fences: Vec<f64> = vec![0.0];
    for _ in 0..ops {
        let block = rng.range_usize(0, BLOCKS) as u32;
        match rng.range_usize(0, 10) {
            // Program the next free page of the block, if any.
            0..=4 => {
                if let Some(ppn) = flash.next_free_ppn(block) {
                    flash.program_page(ppn, ppn, OpPurpose::HostData).unwrap();
                    oracle.page_op(ppn, g.write_us);
                }
            }
            // Read a random valid page of the block, if any.
            5..=7 => {
                let valid: Vec<Ppn> = flash.valid_pages(block).map(|(p, _)| p).collect();
                if !valid.is_empty() {
                    let ppn = valid[rng.range_usize(0, valid.len())];
                    flash.read_page(ppn, OpPurpose::HostData).unwrap();
                    oracle.page_op(ppn, g.read_us);
                }
            }
            // Invalidate everything and erase (no bus traffic).
            8 => {
                let valid: Vec<Ppn> = flash.valid_pages(block).map(|(p, _)| p).collect();
                for ppn in valid {
                    flash.invalidate(ppn).unwrap();
                }
                if flash.next_free_ppn(block).is_none() || rng.range_usize(0, 2) == 0 {
                    flash.erase_block(block, OpPurpose::GcData).unwrap();
                    oracle.erase(&g, block);
                }
            }
            // Start an independent chain at some past completion time.
            _ => {
                let fence = fences[rng.range_usize(0, fences.len())];
                flash.sim_relax_to(fence);
            }
        }
        fences.push(flash.sim_frontier_us());
        if fences.len() > 64 {
            fences.remove(0);
        }
    }
}

#[test]
fn serial_clock_is_bit_identical_to_busy_us() {
    for seed in [1u64, 7, 42, 2015, 0xdead_beef] {
        let mut flash = Flash::new(geom(1, 1, 0.0)).unwrap();
        let mut oracle = Oracle::new(flash.geometry().topology);
        drive(&mut flash, &mut oracle, seed, 4000);
        // Bitwise equality, not approximate: both clocks perform the same
        // `t += latency` additions in the same order.
        assert_eq!(
            flash.sim_device_done_us().to_bits(),
            flash.stats().busy_us.to_bits(),
            "seed {seed}: serial device clock diverged from busy_us"
        );
    }
}

#[test]
fn parallel_clock_bounded_by_critical_path_and_serial_time() {
    // (4, 4): 16 units, so each 8-page block spans only half of them.
    for (channels, ways, bus_us) in [
        (2, 1, 0.0),
        (4, 1, 0.0),
        (4, 2, 0.0),
        (2, 2, 10.0),
        (4, 4, 5.0),
    ] {
        for seed in [3u64, 11, 2015] {
            let mut flash = Flash::new(geom(channels, ways, bus_us)).unwrap();
            let mut oracle = Oracle::new(flash.geometry().topology);
            drive(&mut flash, &mut oracle, seed, 4000);
            let makespan = flash.sim_device_done_us();
            let eps = 1e-6;
            assert!(
                (flash.clocks().busiest_unit_us() - oracle.critical_path_us()).abs() < eps,
                "{channels}x{ways} seed {seed}: busiest_unit_us disagrees with the oracle"
            );
            assert!(
                makespan + eps >= oracle.critical_path_us(),
                "{channels}x{ways} seed {seed}: makespan {makespan} below \
                 critical path {}",
                oracle.critical_path_us()
            );
            // With no bus contention the serial sum is an upper bound;
            // with a shared bus each op still costs at most cell+bus, so
            // the serial sum of (cell + bus) stays an upper bound.
            assert!(
                makespan <= oracle.serial_us + eps,
                "{channels}x{ways} seed {seed}: makespan {makespan} above \
                 serial time {}",
                oracle.serial_us
            );
        }
    }
}

#[test]
fn relaxation_never_breaks_per_unit_serialization() {
    // Aggressively relax to zero before every op: every op chain is
    // "independent", so the only serialization left is per-unit. The
    // makespan must then equal the busiest unit's occupancy exactly
    // (every unit runs its ops back to back from t = 0). On 4x4 an 8-page
    // block spans half the units, so erases there overlap one another.
    for (channels, ways) in [(4, 2), (4, 4)] {
        let mut flash = Flash::new(geom(channels, ways, 0.0)).unwrap();
        let mut oracle = Oracle::new(flash.geometry().topology);
        let mut rng = Rng64::seed_from_u64(99);
        let g = flash.geometry().clone();
        for _ in 0..2000 {
            let block = rng.range_usize(0, BLOCKS) as u32;
            flash.sim_relax_to(0.0);
            if let Some(ppn) = flash.next_free_ppn(block) {
                flash.program_page(ppn, ppn, OpPurpose::HostData).unwrap();
                oracle.page_op(ppn, g.write_us);
            } else {
                for ppn in flash.valid_pages(block).map(|(p, _)| p).collect::<Vec<_>>() {
                    flash.invalidate(ppn).unwrap();
                }
                flash.erase_block(block, OpPurpose::GcData).unwrap();
                oracle.erase(&g, block);
            }
        }
        assert_eq!(flash.sim_device_done_us(), oracle.critical_path_us());
        assert_eq!(flash.clocks().busiest_unit_us(), oracle.critical_path_us());
    }
}

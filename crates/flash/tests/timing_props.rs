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
//!
//! One more covers the background lane that garbage collection runs in:
//!
//! 4. **Erase before program** — with collections queued in the lane and
//!    host ops overtaking them, no page is programmed (in simulated time)
//!    before its block's last erase has completed. On 1×1 the lane's
//!    placements come from the duration-FIFO fast path; the unit tests in
//!    `src/timing.rs` pin it to the general rules bit for bit.

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

/// The oracle's record of the lane: per block, the ticket of its last
/// background erase (0: none yet), and every lane program as `(ticket, its
/// block's erase ticket when it was queued)`.
#[derive(Default)]
struct LaneLedger {
    erase_ticket: Vec<u64>,
    programs: Vec<(u64, u64)>,
}

/// Keeps two blocks empty the way a collection pass does, in the
/// background lane: the full block with the fewest valid pages has them
/// read and programmed into the fullest block with room, then is erased.
fn collect(flash: &mut Flash, ledger: &mut LaneLedger) {
    let empty = |f: &Flash| {
        (0..BLOCKS as u32)
            .filter(|&b| f.free_pages_in(b).unwrap() == PAGES_PER_BLOCK)
            .count()
    };
    while empty(flash) < 2 {
        let victim = (0..BLOCKS as u32)
            .filter(|&b| flash.next_free_ppn(b).is_none())
            .min_by_key(|&b| flash.valid_pages_in(b).unwrap())
            .expect("a full block");
        let valid: Vec<Ppn> = flash.valid_pages(victim).map(|(p, _)| p).collect();
        let dst = (0..BLOCKS as u32)
            .filter(|&b| b != victim && flash.free_pages_in(b).unwrap() >= valid.len().max(1))
            .min_by_key(|&b| flash.free_pages_in(b).unwrap())
            .expect("room for the victim's valid pages");
        flash.sim_background(true);
        for ppn in valid {
            flash.read_page(ppn, OpPurpose::GcData).unwrap();
            let to = flash.next_free_ppn(dst).unwrap();
            flash.program_page(to, ppn, OpPurpose::GcData).unwrap();
            ledger.programs.push((
                flash.clocks().lane_queued(),
                ledger.erase_ticket[dst as usize],
            ));
            flash.invalidate(ppn).unwrap();
        }
        flash.erase_block(victim, OpPurpose::GcData).unwrap();
        ledger.erase_ticket[victim as usize] = flash.clocks().lane_queued();
        flash.sim_background(false);
    }
}

/// When the lane op queued under `ticket` completed, if it has been placed
/// (the log starts with ticket 1).
fn lane_done(flash: &Flash, ticket: u64) -> Option<f64> {
    let placed = flash.clocks().placements().get(ticket as usize - 1)?;
    assert_eq!(placed.ticket, ticket);
    Some(placed.done_us)
}

#[test]
fn no_page_is_programmed_before_its_blocks_erase_completes() {
    for (channels, ways, bus_us) in [(1, 1, 0.0), (2, 1, 0.0), (4, 2, 0.0), (2, 2, 10.0)] {
        for seed in [5u64, 17, 2015] {
            let case = format!("{channels}x{ways} seed {seed}");
            let mut flash = Flash::new(geom(channels, ways, bus_us)).unwrap();
            flash.log_lane_placements();
            let write_us = flash.geometry().write_us;
            let mut rng = Rng64::seed_from_u64(seed);
            let mut ledger = LaneLedger {
                erase_ticket: vec![0; BLOCKS],
                ..LaneLedger::default()
            };
            let mut reused = 0;
            for _ in 0..6000 {
                match rng.range_usize(0, 10) {
                    // A host write, into the partly written block first;
                    // past half full it makes some other page stale.
                    0..=4 => {
                        collect(&mut flash, &mut ledger);
                        let (block, ppn) = (0..BLOCKS as u32)
                            .filter_map(|b| Some((b, flash.next_free_ppn(b)?)))
                            .min_by_key(|&(b, _)| flash.free_pages_in(b).unwrap())
                            .expect("GC keeps blocks empty");
                        flash.program_page(ppn, ppn, OpPurpose::HostData).unwrap();
                        let valid: Vec<Ppn> = flash.scan_valid().map(|(p, _, _)| p).collect();
                        if valid.len() > BLOCKS * PAGES_PER_BLOCK / 2 {
                            flash
                                .invalidate(valid[rng.range_usize(0, valid.len())])
                                .unwrap();
                        }
                        let ticket = ledger.erase_ticket[block as usize];
                        if ticket == 0 {
                            continue;
                        }
                        reused += 1;
                        let erased = lane_done(&flash, ticket).unwrap_or_else(|| {
                            panic!("{case}: block {block} programmed before its queued erase was placed")
                        });
                        // Recovered from its completion, so up to rounding.
                        let cell_start = flash.sim_frontier_us() - write_us;
                        assert!(
                            cell_start + 1e-6 >= erased,
                            "{case}: host program of block {block} at {cell_start}, its erase completed at {erased}"
                        );
                    }
                    5..=7 => {
                        let block = rng.range_usize(0, BLOCKS) as u32;
                        let first = flash.valid_pages(block).next();
                        if let Some((ppn, _)) = first {
                            flash.read_page(ppn, OpPurpose::HostData).unwrap();
                        }
                    }
                    // Idle time, or an independent chain from earlier.
                    8 => flash.sim_relax_to(flash.sim_frontier_us() + rng.range_f64(0.0, 3000.0)),
                    _ => flash.sim_relax_to(flash.sim_frontier_us() * rng.range_f64(0.5, 1.0)),
                }
            }
            for &(ticket, erase) in &ledger.programs {
                let placed = flash.clocks().placements().get(ticket as usize - 1);
                let erased = (erase > 0).then(|| lane_done(&flash, erase)).flatten();
                if let (Some(program), Some(erased)) = (placed, erased) {
                    assert!(
                        program.start_us >= erased,
                        "{case}: migration program {ticket} at {}, its block's erase completed at {erased}",
                        program.start_us
                    );
                }
            }
            // The run exercised what it claims to: host programs into
            // blocks erased in the lane, some of which forced a drain.
            let forced = flash.clocks().gc_forced_drains();
            assert!(
                reused > 1000 && forced > 0,
                "{case}: {reused} reuses, {forced} forced"
            );
        }
    }
}

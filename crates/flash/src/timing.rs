//! Channel/way unit-clock timing model.
//!
//! [`UnitClocks`] replaces the implicit "one serial unit" timing of
//! `FlashStats::busy_us` with a per-unit next-free-time clock: every page
//! op is dispatched to the unit owning its page (and an erase to every
//! unit its block spans), starts no earlier than both (a) the dependency
//! frontier of the command stream issuing it and (b) the instant its unit
//! is free, and completes after its cell latency plus — for page
//! transfers — a channel bus slot. The whole model is a few fixed `f64`
//! arrays and pure arithmetic per op, plus one FIFO for background work:
//! no event queue, nothing allocated on the host path.
//!
//! Dependencies are expressed with a single *frontier* clock: ops issued
//! back to back chain (each op leaves the frontier at its completion
//! time), and callers that know two op chains are independent — pages of
//! one host request, a fire-and-forget translation-page writeback —
//! rewind the frontier with [`UnitClocks::relax_to`] before issuing the
//! second chain. Per-unit serialization still applies after a relax, so
//! independent chains only overlap where the geometry really allows it.
//!
//! **The background lane.** Garbage collection does not run in front of
//! the host. While [`UnitClocks::set_background`] is on, an op is queued,
//! not placed: it leaves the frontier and the makespan alone. Before a
//! foreground op is placed, the lane ops at the head of the FIFO that can
//! *start* before that op's ready time `max(frontier, unit_free)` are
//! placed first; the placement is non-preemptive, so a lane op that has
//! started runs to completion and the foreground op waits for it. Lane
//! ops keep a collection's dependencies: a collection starts no earlier
//! than the makespan at the moment it was queued, a read after the
//! previous lane erase, a program after the previous lane read, and an
//! erase after every op placed so far (at the makespan), on all its units
//! at once. Lane work therefore fills the gaps between host requests.
//! [`UnitClocks::drain_through`] forces the lane through one op: the erase
//! of a block the host is about to program again.
//!
//! With 1 channel, 1 way and no bus cost, every foreground op starts
//! exactly when the previous op finished, so with an empty lane the
//! device clock accumulates `t += l` in the same order
//! `FlashStats::busy_us` does — bit-identical to the serial model (a
//! property test in `tests/timing_props.rs` pins this).

use crate::geometry::FlashTopology;

/// `LaneOp::what` of a page read; a program is `WRITE`, a collection's
/// start `FENCE`, and an erase spanning `n` units is `FENCE + n`.
const READ: u32 = 0;
const WRITE: u32 = 1;
const FENCE: u32 = 2;

/// One queued background-lane op (16 bytes).
#[derive(Debug, Clone, Copy)]
struct LaneOp {
    cell_us: f64,
    /// The op's unit; an erase's first unit.
    unit: u32,
    /// `READ`, `WRITE`, `FENCE` (whose `cell_us` is the time the
    /// collection began), or `FENCE + span` for an erase of `span` units.
    what: u32,
}

/// The lane's FIFO: a `Vec` read from `head` (a `VecDeque` costs ~2× as
/// much per op on the GC-heavy replays). Emptying it rewinds it; a lane
/// that never empties is compacted once its consumed prefix dominates.
#[derive(Debug, Clone, Default)]
struct Fifo {
    ops: Vec<LaneOp>,
    head: usize,
}

impl Fifo {
    #[inline]
    fn push(&mut self, op: LaneOp) {
        self.ops.push(op);
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.ops.len()
    }

    /// The queued ops, oldest first.
    #[inline]
    fn pending(&self) -> &[LaneOp] {
        &self.ops[self.head..]
    }

    /// Drops the `n` oldest ops.
    #[inline]
    fn consume(&mut self, n: usize) {
        self.head += n;
        if self.head == self.ops.len() {
            self.clear();
        } else if self.head >= 4096 && 2 * self.head >= self.ops.len() {
            self.ops.drain(..self.head);
            self.head = 0;
        }
    }

    fn clear(&mut self) {
        self.ops.clear();
        self.head = 0;
    }
}

/// Where one background-lane op landed, recorded once
/// [`UnitClocks::log_placements`] is on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanePlacement {
    /// The ticket the op was queued under (see [`UnitClocks::lane_queued`]).
    pub ticket: u64,
    /// When its unit — every unit, for an erase — began serving it.
    pub start_us: f64,
    /// When it completed.
    pub done_us: f64,
}

/// Per-unit next-free-time clocks for the channel/way timing model.
///
/// All times are simulated microseconds since the device clock's origin
/// (reset by [`UnitClocks::reset`], typically after bootstrap/prefill).
#[derive(Debug, Clone)]
pub struct UnitClocks {
    /// When each (channel, way) unit finishes its last accepted op.
    unit_free_us: Box<[f64]>,
    /// Per unit: whether a lane op ran on it since its last foreground
    /// op, and if so when it was free before the first of them (the
    /// baseline of `gc_stall_us`).
    lane_ran: Box<[bool]>,
    fg_free_us: Box<[f64]>,
    /// How many units have `lane_ran` set.
    lane_ran_units: usize,
    /// Whether the lane can affect the next foreground op: background
    /// mode is on, ops are queued, or `lane_ran_units > 0`. While it is
    /// off, `read` and `write` are the plain unit-clock arithmetic.
    lane_active: bool,
    /// Cell + bus time each unit has been occupied by accepted ops.
    unit_busy_us: Box<[f64]>,
    /// When each channel's bus finishes its last page transfer.
    chan_free_us: Box<[f64]>,
    /// Dependency frontier: earliest start time of the next issued op.
    frontier_us: f64,
    /// Device makespan: completion time of the latest op accepted so far
    /// (always the largest `unit_free_us`).
    done_us: f64,
    /// Number of channels (for unit -> channel mapping).
    channels: usize,
    /// Bus transfer time of one page in microseconds.
    bus_us: f64,
    /// Whether issued ops go to the lane instead of being placed.
    background: bool,
    /// Queued lane ops, oldest first.
    lane: Fifo,
    /// Tickets: the lane's `n`-th op over the clocks' life is ticket `n`
    /// (from 1). Everything up to `lane_placed` has been placed.
    lane_queued: u64,
    lane_placed: u64,
    /// Completion of the last placed lane read and of the last lane
    /// erase: a collection's dependencies besides the unit clocks.
    lane_read_done_us: f64,
    lane_erase_done_us: f64,
    /// µs by which placed lane ops delayed foreground ops.
    gc_stall_us: f64,
    /// Foreground programs that had to wait for a queued erase.
    gc_forced_drains: u64,
    /// One unit and no bus: every lane dependency is implied by the
    /// unit's own clock, so a lane op starts when the unit is free and
    /// ends its cell time later (`drain_serial`).
    serial: bool,
    log: Option<Vec<LanePlacement>>,
}

impl UnitClocks {
    /// Builds clocks for `topology`, all starting at time zero.
    pub fn new(topology: &FlashTopology) -> Self {
        let units = topology.units().max(1);
        let channels = (topology.channels as usize).max(1);
        UnitClocks {
            unit_free_us: vec![0.0; units].into_boxed_slice(),
            lane_ran: vec![false; units].into_boxed_slice(),
            fg_free_us: vec![0.0; units].into_boxed_slice(),
            lane_ran_units: 0,
            lane_active: false,
            unit_busy_us: vec![0.0; units].into_boxed_slice(),
            chan_free_us: vec![0.0; channels].into_boxed_slice(),
            frontier_us: 0.0,
            done_us: 0.0,
            channels,
            bus_us: topology.bus_us,
            background: false,
            lane: Fifo::default(),
            lane_queued: 0,
            lane_placed: 0,
            lane_read_done_us: 0.0,
            lane_erase_done_us: 0.0,
            gc_stall_us: 0.0,
            gc_forced_drains: 0,
            serial: units == 1 && topology.bus_us == 0.0,
            log: None,
        }
    }

    /// Rewinds every clock to time zero (measurement restart). Queued lane
    /// ops are dropped and every ticket issued so far counts as placed.
    pub fn reset(&mut self) {
        self.unit_free_us.fill(0.0);
        self.lane_ran.fill(false);
        self.lane_ran_units = 0;
        self.unit_busy_us.fill(0.0);
        self.chan_free_us.fill(0.0);
        self.frontier_us = 0.0;
        self.done_us = 0.0;
        self.lane.clear();
        self.lane_placed = self.lane_queued;
        self.lane_read_done_us = 0.0;
        self.lane_erase_done_us = 0.0;
        self.gc_stall_us = 0.0;
        self.gc_forced_drains = 0;
        if let Some(log) = &mut self.log {
            log.clear();
        }
        self.update_active();
    }

    /// Number of independent units being modeled.
    #[inline]
    pub fn units(&self) -> usize {
        self.unit_free_us.len()
    }

    /// Current dependency frontier (completion time of the last issued
    /// op chain).
    #[inline]
    pub fn frontier_us(&self) -> f64 {
        self.frontier_us
    }

    /// Sets the dependency frontier, letting the next op chain start at
    /// `t` (subject to unit availability). Callers use this to declare
    /// that upcoming ops do not depend on the ops issued since `t`.
    #[inline]
    pub fn relax_to(&mut self, t: f64) {
        self.frontier_us = t;
    }

    /// Completion time of the latest op placed so far (device makespan).
    #[inline]
    pub fn done_us(&self) -> f64 {
        self.done_us
    }

    /// Cell + bus occupancy of the busiest unit so far: the critical-path
    /// lower bound on the makespan. An erase counts on every unit it spans;
    /// queued lane ops count once placed.
    pub fn busiest_unit_us(&self) -> f64 {
        self.unit_busy_us.iter().fold(0.0, |a, &b| a.max(b))
    }

    // ---- The background lane ------------------------------------------------

    /// Switches issued ops between the background lane (`true`) and
    /// immediate placement (`false`). Switching it on starts a collection:
    /// none of its ops starts before the device finished every op placed
    /// so far (the makespan), the earliest moment it could have known the
    /// collection was due. On one unit that holds by construction.
    #[inline]
    pub fn set_background(&mut self, on: bool) {
        if on && !self.background && self.units() > 1 {
            self.queue(LaneOp {
                cell_us: self.done_us,
                unit: 0,
                what: FENCE,
            });
        }
        self.background = on;
        self.update_active();
    }

    /// Whether issued ops currently go to the background lane.
    #[inline]
    pub fn background(&self) -> bool {
        self.background
    }

    #[inline]
    fn update_active(&mut self) {
        self.lane_active = self.background || !self.lane.is_empty() || self.lane_ran_units > 0;
    }

    /// Ticket of the most recently queued lane op (0 before the first).
    #[inline]
    pub fn lane_queued(&self) -> u64 {
        self.lane_queued
    }

    /// Ticket of the most recently placed lane op: every op queued under a
    /// ticket up to this one has been placed.
    #[inline]
    pub fn lane_placed(&self) -> u64 {
        self.lane_placed
    }

    /// Serial time of the lane ops not yet placed: cell + bus per page op,
    /// one pulse per erase (the convention of `FlashStats::busy_us`).
    pub fn lane_pending_us(&self) -> f64 {
        self.lane
            .pending()
            .iter()
            .map(|op| match op.what {
                READ | WRITE => op.cell_us + self.bus_us,
                FENCE => 0.0,
                _ => op.cell_us,
            })
            .fold(0.0, |a, us| a + us)
    }

    /// Total µs by which placed lane ops delayed the start of foreground
    /// ops, both by running into their ready time and by forced drains.
    #[inline]
    pub fn gc_stall_us(&self) -> f64 {
        self.gc_stall_us
    }

    /// How many times a foreground program forced the lane through a
    /// queued erase (see [`UnitClocks::drain_through`]).
    #[inline]
    pub fn gc_forced_drains(&self) -> u64 {
        self.gc_forced_drains
    }

    /// Places lane ops in order until the one queued under `ticket` has
    /// been placed, whatever their start time: the erase a foreground
    /// program's block is waiting for. Counts one forced drain if anything
    /// had to be placed.
    #[inline]
    pub fn drain_through(&mut self, ticket: u64) {
        if ticket > self.lane_placed {
            self.force_through(ticket);
        }
    }

    fn force_through(&mut self, ticket: u64) {
        self.gc_forced_drains += 1;
        // Up to the ticket every op starts before "never"; after it none
        // starts before "always".
        self.drain(|c| {
            if c.lane_placed < ticket {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        });
    }

    /// Starts recording where each lane op lands (see
    /// [`UnitClocks::placements`]); the record grows with every placement.
    pub fn log_placements(&mut self) {
        self.log.get_or_insert_with(Vec::new);
    }

    /// Lane placements recorded since [`UnitClocks::log_placements`] (or
    /// the last reset), in placement order.
    pub fn placements(&self) -> &[LanePlacement] {
        self.log.as_deref().unwrap_or(&[])
    }

    #[inline]
    fn queue(&mut self, op: LaneOp) -> f64 {
        self.lane.push(op);
        self.lane_queued += 1;
        self.lane_active = true;
        self.frontier_us
    }

    /// Notes that a lane op is about to be placed on `unit`.
    #[inline]
    fn lane_runs_on(&mut self, unit: usize) {
        if !self.lane_ran[unit] {
            self.lane_ran[unit] = true;
            self.lane_ran_units += 1;
            self.fg_free_us[unit] = self.unit_free_us[unit];
        }
    }

    /// How much later than without the lane a foreground op on `unit`,
    /// where a lane op ran since its last foreground op, starts; clears
    /// the unit's mark.
    fn settle(&mut self, unit: usize) -> f64 {
        self.lane_ran[unit] = false;
        self.lane_ran_units -= 1;
        self.update_active();
        let start = self.frontier_us.max(self.unit_free_us[unit]);
        start - self.frontier_us.max(self.fg_free_us[unit])
    }

    /// Places lane ops from the head for as long as each can start before
    /// `ready(self)`, re-evaluated after every placement (which may push
    /// it back).
    fn drain(&mut self, ready: impl Fn(&Self) -> f64) {
        let head = self.lane.head;
        let mut next = head;
        while let Some(&op) = self.lane.ops.get(next) {
            if !self.try_place(op, ready(self)) {
                break;
            }
            next += 1;
        }
        self.lane.consume(next - head);
    }

    /// Places `op`, the oldest lane op not yet placed, if it can start
    /// before `limit`; returns whether it did.
    #[inline(always)]
    fn try_place(&mut self, op: LaneOp, limit: f64) -> bool {
        let unit = op.unit as usize;
        let (start, done) = match op.what {
            READ => {
                let start = self.lane_erase_done_us.max(self.unit_free_us[unit]);
                if start >= limit {
                    return false;
                }
                self.lane_runs_on(unit);
                let done = self.place_read(unit, start, op.cell_us);
                self.lane_read_done_us = done;
                (start, done)
            }
            WRITE => {
                let start = self.lane_read_done_us.max(self.unit_free_us[unit]);
                if start >= limit {
                    return false;
                }
                self.lane_runs_on(unit);
                (start, self.place_write(unit, start, op.cell_us))
            }
            FENCE => {
                // Occupies nothing; holds the collection's reads (and so
                // its programs) back to the time it began.
                let start = op.cell_us;
                if start >= limit {
                    return false;
                }
                self.lane_erase_done_us = self.lane_erase_done_us.max(start);
                self.lane_read_done_us = self.lane_read_done_us.max(start);
                (start, start)
            }
            what => {
                // Every unit of the block starts the erase together, after
                // every op placed so far: at the makespan.
                let span = (what - FENCE) as usize;
                let units = self.units();
                let start = self.done_us;
                if start >= limit {
                    return false;
                }
                let done = start + op.cell_us;
                for i in 0..span {
                    let u = (unit + i) % units;
                    self.lane_runs_on(u);
                    self.unit_free_us[u] = done;
                    self.unit_busy_us[u] += op.cell_us;
                }
                self.lane_erase_done_us = done;
                (start, done)
            }
        };
        // A `max`, not a branch: whether a lane op ends the makespan is
        // data-dependent, and mispredicting it doubled the cost of a drain.
        self.done_us = self.done_us.max(done);
        self.lane_placed += 1;
        if let Some(log) = &mut self.log {
            log.push(LanePlacement {
                ticket: self.lane_placed,
                start_us: start,
                done_us: done,
            });
        }
        true
    }

    /// The drain in front of a foreground op on the one unit of a bus-less
    /// device, called while the unit is free before the frontier: the lane
    /// is a FIFO of durations whose head starts when the unit is free,
    /// which is before the foreground op's ready time exactly while that
    /// holds. The op waits for whatever runs past the frontier.
    ///
    /// Beside the general rules this saves ~10 % of host time per request
    /// on `fin1_tpftl` and ~7 % on `semiseq_learned` (DESIGN.md §11,
    /// *Cost*); the two give the same bits (`tests::serial_fast_path_*`).
    fn drain_serial(&mut self) {
        let mut free = self.unit_free_us[0];
        let mut busy = self.unit_busy_us[0];
        let mut n = 0;
        let mut log = self.log.as_mut();
        for op in self.lane.pending() {
            if free >= self.frontier_us {
                break;
            }
            let start = free;
            free += op.cell_us;
            busy += op.cell_us;
            n += 1;
            if let Some(log) = &mut log {
                log.push(LanePlacement {
                    ticket: self.lane_placed + n as u64,
                    start_us: start,
                    done_us: free,
                });
            }
        }
        self.lane.consume(n);
        self.unit_free_us[0] = free;
        self.unit_busy_us[0] = busy;
        self.lane_placed += n as u64;
        self.done_us = free;
        if !self.lane_ran[0] {
            // Otherwise `settle` charges the stall from an earlier baseline.
            self.gc_stall_us += (free - self.frontier_us).max(0.0);
        }
        self.update_active();
    }

    /// Readies the lane for a foreground op on `unit` while it is active
    /// and not in background mode: places the lane ops that can start
    /// before the op and charges to `gc_stall_us` the delay lane ops cause
    /// it. The rare parts are out of line.
    #[inline]
    fn before_foreground(&mut self, unit: usize) {
        if !self.lane.is_empty() {
            if !self.serial {
                self.drain_before(unit);
            } else if self.unit_free_us[0] < self.frontier_us {
                self.drain_serial();
            }
        }
        if self.lane_ran[unit] {
            self.gc_stall_us += self.settle(unit);
        }
    }

    /// Places the lane ops that can start before a foreground op on `unit`.
    fn drain_before(&mut self, unit: usize) {
        self.drain(|c| c.frontier_us.max(c.unit_free_us[unit]));
        self.update_active();
    }

    // ---- Placement ----------------------------------------------------------

    /// Accounts a page read on `unit`: cell sense, then a bus transfer on
    /// the unit's channel. Returns the completion time. In background mode
    /// the read is queued instead and the unchanged frontier is returned.
    #[inline]
    pub fn read(&mut self, unit: usize, cell_us: f64) -> f64 {
        if self.lane_active {
            if self.background {
                return self.queue(LaneOp {
                    cell_us,
                    unit: unit as u32,
                    what: READ,
                });
            }
            self.before_foreground(unit);
        }
        let start = self.frontier_us.max(self.unit_free_us[unit]);
        let done = self.place_read(unit, start, cell_us);
        self.complete(done)
    }

    /// Accounts a page program on `unit`: a bus transfer on the unit's
    /// channel, then the cell program. Returns the completion time. In
    /// background mode the program is queued instead and the unchanged
    /// frontier is returned.
    #[inline]
    pub fn write(&mut self, unit: usize, cell_us: f64) -> f64 {
        self.program(unit, cell_us, || 0)
    }

    /// [`UnitClocks::write`] into a block whose last erase went to the lane
    /// under the ticket `erase_ticket()` returns (0: none). In the
    /// foreground the program waits for that erase, forcing the lane
    /// through it if it has not been placed yet. The ticket is looked up
    /// only while there is lane work.
    #[inline]
    pub fn program(&mut self, unit: usize, cell_us: f64, erase_ticket: impl Fn() -> u64) -> f64 {
        if self.lane_active {
            if self.background {
                return self.queue(LaneOp {
                    cell_us,
                    unit: unit as u32,
                    what: WRITE,
                });
            }
            self.drain_through(erase_ticket());
            self.before_foreground(unit);
        }
        let start = self.frontier_us.max(self.unit_free_us[unit]);
        let done = self.place_write(unit, start, cell_us);
        self.complete(done)
    }

    /// Accounts an erase on `unit` alone (no bus traffic). Returns the
    /// completion time.
    #[inline]
    pub fn erase(&mut self, unit: usize, cell_us: f64) -> f64 {
        self.erase_span(unit, 1, cell_us)
    }

    /// Accounts a block erase on the `span` units `first_unit`,
    /// `first_unit + 1`, … (wrapping) that the block's pages live on; no
    /// bus traffic. Each unit erases from `max(frontier, unit_free)`, and
    /// the op completes when the last of them does. Returns that time. In
    /// background mode the erase is queued instead (and, when placed,
    /// starts on all its units at once); the unchanged frontier is
    /// returned.
    #[inline]
    pub fn erase_span(&mut self, first_unit: usize, span: usize, cell_us: f64) -> f64 {
        if self.background {
            return self.queue(LaneOp {
                cell_us,
                unit: first_unit as u32,
                what: FENCE + span as u32,
            });
        }
        let units = self.unit_free_us.len();
        if !self.lane.is_empty() {
            self.drain(|c| {
                (0..span).fold(f64::INFINITY, |a, i| {
                    a.min(c.frontier_us.max(c.unit_free_us[(first_unit + i) % units]))
                })
            });
        }
        let mut done = 0.0f64;
        // The erase is as late as its most delayed unit.
        let mut stall = 0.0f64;
        for i in 0..span {
            let unit = (first_unit + i) % units;
            if self.lane_ran[unit] {
                stall = stall.max(self.settle(unit));
            }
            let end = self.frontier_us.max(self.unit_free_us[unit]) + cell_us;
            self.unit_free_us[unit] = end;
            self.unit_busy_us[unit] += cell_us;
            done = done.max(end);
        }
        self.gc_stall_us += stall;
        self.update_active();
        self.complete(done)
    }

    /// Occupies `unit` (and its channel) with a read starting at `start`;
    /// returns its completion.
    #[inline]
    fn place_read(&mut self, unit: usize, start: f64, cell_us: f64) -> f64 {
        self.unit_busy_us[unit] += cell_us + self.bus_us;
        let cell_done = start + cell_us;
        let done = if self.bus_us == 0.0 {
            cell_done
        } else {
            // Data leaves the cell register over the channel bus; the die
            // stays busy until its register drains.
            let ch = unit % self.channels;
            let bus_start = cell_done.max(self.chan_free_us[ch]);
            let bus_done = bus_start + self.bus_us;
            self.chan_free_us[ch] = bus_done;
            bus_done
        };
        self.unit_free_us[unit] = done;
        done
    }

    /// Occupies `unit` (and its channel) with a program starting at
    /// `start`; returns its completion.
    #[inline]
    fn place_write(&mut self, unit: usize, start: f64, cell_us: f64) -> f64 {
        self.unit_busy_us[unit] += self.bus_us + cell_us;
        let cell_start = if self.bus_us == 0.0 {
            start
        } else {
            // The page is shipped to the die's register before programming.
            let ch = unit % self.channels;
            let bus_start = start.max(self.chan_free_us[ch]);
            let bus_done = bus_start + self.bus_us;
            self.chan_free_us[ch] = bus_done;
            bus_done
        };
        let done = cell_start + cell_us;
        self.unit_free_us[unit] = done;
        done
    }

    #[inline]
    fn complete(&mut self, done: f64) -> f64 {
        self.frontier_us = done;
        if done > self.done_us {
            self.done_us = done;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(channels: u32, ways: u32, bus_us: f64) -> FlashTopology {
        FlashTopology {
            channels,
            ways,
            bus_us,
        }
    }

    #[test]
    fn serial_unit_chains_ops() {
        let mut c = UnitClocks::new(&topo(1, 1, 0.0));
        assert_eq!(c.read(0, 25.0), 25.0);
        assert_eq!(c.write(0, 200.0), 225.0);
        assert_eq!(c.erase(0, 1500.0), 1725.0);
        assert_eq!(c.done_us(), 1725.0);
        assert_eq!(c.frontier_us(), 1725.0);
        assert_eq!(c.busiest_unit_us(), 1725.0);
    }

    #[test]
    fn busiest_unit_counts_occupancy_not_waiting() {
        let mut c = UnitClocks::new(&topo(2, 1, 10.0));
        c.write(0, 200.0); // bus 0..10, cell 10..210
        c.relax_to(0.0);
        c.read(0, 25.0); // waits for the die until 210, then 25 + 10
        c.relax_to(0.0);
        c.read(1, 25.0);
        assert_eq!(c.busiest_unit_us(), 210.0 + 35.0);
        // An erase spanning both units charges each of them the full pulse.
        c.erase_span(0, 2, 1500.0);
        assert_eq!(c.busiest_unit_us(), 245.0 + 1500.0);
        c.reset();
        assert_eq!(c.busiest_unit_us(), 0.0);
    }

    #[test]
    fn independent_units_overlap_after_relax() {
        let mut c = UnitClocks::new(&topo(2, 1, 0.0));
        let a = c.write(0, 200.0);
        c.relax_to(0.0); // The second write does not depend on the first.
        let b = c.write(1, 200.0);
        assert_eq!(a, 200.0);
        assert_eq!(b, 200.0); // Fully overlapped on the other unit.
        assert_eq!(c.done_us(), 200.0);
    }

    #[test]
    fn same_unit_serializes_even_after_relax() {
        let mut c = UnitClocks::new(&topo(2, 1, 0.0));
        let a = c.write(0, 200.0);
        c.relax_to(0.0);
        let b = c.write(0, 200.0); // Same unit: must wait for the die.
        assert_eq!(a, 200.0);
        assert_eq!(b, 400.0);
    }

    #[test]
    fn read_bus_follows_cell_and_contends_per_channel() {
        // Two ways on one channel: cells overlap, the shared bus serializes.
        let mut c = UnitClocks::new(&topo(1, 2, 10.0));
        let a = c.read(0, 25.0);
        c.relax_to(0.0);
        let b = c.read(1, 25.0);
        // Unit 0: cell 0..25, bus 25..35.
        assert_eq!(a, 35.0);
        // Unit 1: cell 0..25, bus waits for the channel until 35, done 45.
        assert_eq!(b, 45.0);
        assert_eq!(c.done_us(), 45.0);
    }

    #[test]
    fn write_bus_precedes_cell() {
        // One way: transfer 0..10, program 10..210.
        let mut c = UnitClocks::new(&topo(1, 1, 10.0));
        assert_eq!(c.write(0, 200.0), 210.0);
        // A second write to the same die cannot start its transfer until
        // the die is ready to accept it: transfer 210..220, cell 220..420.
        c.relax_to(0.0);
        assert_eq!(c.write(0, 200.0), 420.0);
    }

    #[test]
    fn translation_read_pipelines_behind_data_program() {
        // The FMMU-style win: while unit 0 programs a data page, unit 1
        // serves a translation-page read, overlapping all but bus time.
        let mut c = UnitClocks::new(&topo(2, 1, 10.0));
        let data = c.write(0, 200.0); // bus 0..10, cell 10..210
        c.relax_to(0.0);
        let map = c.read(1, 25.0); // cell 0..25, bus (ch 1) 25..35
        assert_eq!(data, 210.0);
        assert_eq!(map, 35.0);
        assert_eq!(c.done_us(), 210.0);
    }

    #[test]
    fn reset_restarts_the_clock() {
        let mut c = UnitClocks::new(&topo(4, 2, 5.0));
        c.write(3, 200.0);
        c.erase(5, 1500.0);
        c.reset();
        assert_eq!(c.frontier_us(), 0.0);
        assert_eq!(c.done_us(), 0.0);
        assert_eq!(c.read(3, 25.0), 30.0);
    }

    /// Queues one collection on 1×1: two migrations and the erase, 2 × 225
    /// + 1 500 µs of lane work.
    fn queue_collection(c: &mut UnitClocks) {
        c.set_background(true);
        for _ in 0..2 {
            c.read(0, 25.0);
            c.write(0, 200.0);
        }
        c.erase(0, 1500.0);
        c.set_background(false);
    }

    #[test]
    fn lane_ops_move_nothing_until_placed() {
        let mut c = UnitClocks::new(&topo(1, 1, 0.0));
        c.write(0, 200.0);
        queue_collection(&mut c);
        assert_eq!(c.frontier_us(), 200.0);
        assert_eq!(c.done_us(), 200.0);
        assert_eq!(c.busiest_unit_us(), 200.0);
        assert_eq!((c.lane_queued(), c.lane_placed()), (5, 0));
        assert_eq!(c.lane_pending_us(), 1950.0);
        // A host op ready at 200 µs, when the unit is: the lane cannot
        // start before it, so the host overtakes the whole collection.
        assert_eq!(c.read(0, 25.0), 225.0);
        assert_eq!(c.lane_placed(), 0);
        assert_eq!(c.gc_stall_us(), 0.0);
    }

    #[test]
    fn a_host_op_mid_collection_waits_for_one_lane_op_at_most() {
        // The collection is queued at 200 µs; the next request arrives at
        // 400 µs, so the lane has 200 µs of idle time to fill.
        let mut c = UnitClocks::new(&topo(1, 1, 0.0));
        c.write(0, 200.0);
        queue_collection(&mut c);
        c.relax_to(400.0);
        // Read 200..225 and program 225..425 start before 400; the second
        // read could only start at 425, so the host read runs 425..450.
        assert_eq!(c.read(0, 25.0), 450.0);
        assert_eq!(c.lane_placed(), 2);
        assert_eq!(c.gc_stall_us(), 25.0);
        // Arriving at 1 000 µs: the second migration fills 450..675 and
        // the erase, starting at 675, holds the unit until 2 175.
        c.relax_to(1000.0);
        assert_eq!(c.read(0, 25.0), 2200.0);
        assert_eq!(c.lane_placed(), 5);
        assert_eq!(c.gc_stall_us(), 25.0 + 1175.0);
        assert_eq!(c.lane_pending_us(), 0.0);
        assert_eq!(c.gc_forced_drains(), 0);
    }

    #[test]
    fn a_stall_never_exceeds_the_started_lane_op() {
        // Whenever the host arrives during the collection, it waits for at
        // most the one lane op already running: 225 µs for a migration
        // (read + program), 1 500 µs for the erase.
        for arrival in (200..2200).step_by(25) {
            let mut c = UnitClocks::new(&topo(1, 1, 0.0));
            c.write(0, 200.0);
            queue_collection(&mut c);
            c.relax_to(arrival as f64);
            let done = c.read(0, 25.0);
            let waited = done - 25.0 - arrival as f64;
            assert!(waited <= 1500.0, "arrival {arrival}: waited {waited}");
            assert_eq!(waited, c.gc_stall_us());
            if arrival < 650 {
                assert!(waited <= 225.0, "arrival {arrival}: waited {waited}");
            }
        }
    }

    #[test]
    fn a_program_into_a_queued_erase_drains_the_lane_through_it() {
        let mut c = UnitClocks::new(&topo(1, 1, 0.0));
        c.write(0, 200.0);
        queue_collection(&mut c);
        let erase = c.lane_queued();
        c.set_background(true);
        c.read(0, 25.0); // queued after the erase
        c.set_background(false);
        c.log_placements();
        // The host programs the erased block with no idle time in front
        // of it: the lane is forced through the erase, and no further.
        c.drain_through(erase);
        assert_eq!(c.lane_placed(), erase);
        assert_eq!(c.gc_forced_drains(), 1);
        let placed = c.placements();
        assert_eq!(placed.last().unwrap().ticket, erase);
        assert_eq!(placed.last().unwrap().done_us, 2150.0);
        assert_eq!(c.write(0, 200.0), 2350.0);
        assert_eq!(c.gc_stall_us(), 1950.0);
        assert_eq!(c.lane_pending_us(), 25.0);
        // A ticket already placed forces nothing.
        c.drain_through(erase);
        assert_eq!(c.gc_forced_drains(), 1);
    }

    #[test]
    fn a_collection_on_many_units_starts_no_earlier_than_it_was_queued() {
        let mut c = UnitClocks::new(&topo(2, 1, 0.0));
        c.write(0, 200.0); // unit 0 busy until 200; unit 1 idle since 0
        c.set_background(true);
        c.read(1, 25.0);
        c.write(1, 200.0);
        c.erase_span(0, 2, 1500.0);
        c.set_background(false);
        c.log_placements();
        c.relax_to(5000.0);
        c.read(1, 25.0);
        let placed: Vec<_> = c
            .placements()
            .iter()
            .map(|p| (p.ticket, p.start_us, p.done_us))
            .collect();
        // The collection was queued at the 200 µs makespan, so its read
        // does not go back to idle unit 1 at 0; the erase starts on both
        // units at once, after the program.
        assert_eq!(
            placed,
            vec![
                (1, 200.0, 200.0),
                (2, 200.0, 225.0),
                (3, 225.0, 425.0),
                (4, 425.0, 1925.0)
            ]
        );
        assert_eq!(c.lane_pending_us(), 0.0);
        assert_eq!(c.gc_stall_us(), 0.0);
    }

    #[test]
    fn a_lane_read_waits_for_the_previous_lane_erase_and_a_program_for_its_read() {
        let mut c = UnitClocks::new(&topo(4, 1, 0.0));
        c.set_background(true);
        c.read(0, 25.0);
        c.write(1, 200.0);
        c.erase_span(0, 4, 1500.0);
        c.read(2, 25.0);
        c.write(3, 200.0);
        c.set_background(false);
        c.log_placements();
        c.relax_to(1e6);
        c.read(0, 25.0);
        let placed: Vec<_> = c
            .placements()
            .iter()
            .map(|p| (p.start_us, p.done_us))
            .collect();
        assert_eq!(
            placed,
            vec![
                (0.0, 0.0),
                (0.0, 25.0),
                (25.0, 225.0),
                (225.0, 1725.0),
                // Units 2 and 3 have been free since 0, but the erase came
                // first in the collection.
                (1725.0, 1750.0),
                (1750.0, 1950.0),
            ]
        );
        assert_eq!(c.busiest_unit_us(), 1500.0 + 200.0);
    }

    #[test]
    fn a_foreground_op_on_another_unit_is_not_stalled() {
        let mut c = UnitClocks::new(&topo(2, 1, 0.0));
        c.set_background(true);
        c.read(0, 25.0);
        c.write(0, 200.0);
        c.set_background(false);
        c.relax_to(100.0);
        // The lane fills unit 0 from 0; a read on unit 1 at 100 is not
        // held up by it.
        assert_eq!(c.read(1, 25.0), 125.0);
        assert_eq!(c.gc_stall_us(), 0.0);
        // A read on unit 0 at 100 waits for the program that started at 25.
        c.relax_to(100.0);
        assert_eq!(c.read(0, 25.0), 250.0);
        assert_eq!(c.gc_stall_us(), 125.0);
    }

    #[test]
    fn reset_clears_the_lane_and_its_tickets() {
        let mut c = UnitClocks::new(&topo(1, 1, 0.0));
        queue_collection(&mut c);
        let erase = c.lane_queued();
        c.reset();
        assert_eq!(c.lane_pending_us(), 0.0);
        assert_eq!(c.lane_placed(), erase);
        // The dropped erase no longer holds anything up.
        c.drain_through(erase);
        assert_eq!(c.gc_forced_drains(), 0);
        assert_eq!(c.write(0, 200.0), 200.0);
        assert_eq!(c.gc_stall_us(), 0.0);
    }

    /// Everything observable about a set of unit clocks, as exact bits.
    fn observe(c: &UnitClocks) -> [u64; 8] {
        [
            c.done_us().to_bits(),
            c.frontier_us().to_bits(),
            c.busiest_unit_us().to_bits(),
            c.gc_stall_us().to_bits(),
            c.lane_pending_us().to_bits(),
            c.gc_forced_drains(),
            c.lane_placed(),
            c.lane_queued(),
        ]
    }

    #[test]
    fn serial_fast_path_and_generic_lane_agree_bit_for_bit() {
        for seed in [1u64, 9, 2015] {
            let mut fast = UnitClocks::new(&FlashTopology::default());
            assert!(fast.serial);
            let mut generic = fast.clone();
            generic.serial = false;
            for c in [&mut fast, &mut generic] {
                c.log_placements();
            }
            let mut rng = tpftl_rng::Rng64::seed_from_u64(seed);
            // Non-integer latencies, so a reordered sum would show.
            let (read, write, erase) = (25.3, 201.7, 1499.9);
            let mut logged = 0;
            for step in 0..20_000 {
                let op = rng.range_usize(0, 10);
                let gap = rng.range_f64(0.0, 2500.0);
                let back = rng.range_f64(0.0, 1.0);
                let ticket_frac = rng.next_f64();
                for c in [&mut fast, &mut generic] {
                    match op {
                        0 | 1 => drop(c.read(0, read)),
                        2 | 3 => drop(c.write(0, write)),
                        4 => drop(c.erase(0, erase)),
                        5 => c.set_background(!c.background()),
                        6 => c.relax_to(c.frontier_us() + gap),
                        7 => c.relax_to(c.frontier_us() * back),
                        8 => {
                            let placed = c.lane_placed();
                            let queued = c.lane_queued();
                            c.drain_through(
                                placed + ((queued - placed) as f64 * ticket_frac) as u64,
                            );
                        }
                        _ => {
                            if step % 4000 == 0 {
                                c.reset();
                            }
                        }
                    }
                }
                assert_eq!(
                    observe(&fast),
                    observe(&generic),
                    "seed {seed}: fast path and generic lane diverged at step {step} (op {op})"
                );
                // Each step's new placements (a reset empties the logs).
                let (a, b) = (fast.placements(), generic.placements());
                assert_eq!(a.len(), b.len(), "seed {seed}: step {step} (op {op})");
                let from = logged.min(a.len());
                assert_eq!(
                    a[from..],
                    b[from..],
                    "seed {seed}: logged placements diverged at step {step} (op {op})"
                );
                logged = a.len();
            }
            assert!(
                fast.lane_placed() > 1000 && fast.gc_stall_us() > 0.0,
                "seed {seed}"
            );
        }
    }
}

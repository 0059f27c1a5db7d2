//! The flash device model proper.

use std::path::Path;

use crate::media::FileBacking;
use crate::timing::UnitClocks;
use crate::tpslab::{TpSlab, TpStoreCensus};
use crate::{
    BlockId, FaultPlan, FaultRecord, FlashError, FlashGeometry, FlashStats, OpKind, OpPurpose, Ppn,
    Result,
};

/// State of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but superseded; reclaimable by GC.
    Invalid,
    /// A program or erase was interrupted by power loss: the cells hold
    /// indeterminate charge. Unreadable and unprogrammable (it sits behind
    /// the write pointer) until its block is erased.
    Torn,
}

/// Metadata returned by [`Flash::read_page`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// The out-of-band tag stored at program time (LPN for data pages,
    /// VTPN for translation pages).
    pub tag: u32,
    /// Whether the page carries a translation payload.
    pub is_translation: bool,
}

/// What a program is committing: plain host/GC data, a full translation
/// payload, or a translation page that supersedes another (source page +
/// patches; the source is invalidated by the same op). Carries everything
/// the file mirror needs to serialize the page — including the page an
/// interrupted program *would* have written.
enum TpContent<'a> {
    Data,
    Tp(&'a [Ppn]),
    Supersede(Ppn, &'a [(u16, Ppn)]),
}

/// The error of a program past the last 32-bit stamp, kept out of line:
/// inline, its few instructions tip the inliner into calling the clocks,
/// the fault check and the file mirror out of line from every program
/// (+24 % on a 64 MB device's pre-fill).
#[cold]
#[inline(never)]
fn seq_exhausted(ppn: Ppn) -> FlashError {
    FlashError::SeqExhausted(ppn)
}

/// A simulated NAND flash device.
///
/// See the crate-level documentation for the invariants enforced. All state
/// transitions go through the public methods, which makes it possible to
/// property-test the device against a simple oracle.
///
/// # Examples
///
/// ```
/// use tpftl_flash::{Flash, FlashGeometry, OpPurpose, PageState};
///
/// let geom = FlashGeometry::paper_default(512 << 20, 0.15);
/// let mut flash = Flash::new(geom).unwrap();
/// let ppn = flash.next_free_ppn(0).unwrap();
/// flash.program_page(ppn, 42, OpPurpose::HostData).unwrap();
/// assert_eq!(flash.state(ppn).unwrap(), PageState::Valid);
/// assert_eq!(flash.read_page(ppn, OpPurpose::HostData).unwrap().tag, 42);
/// ```
#[derive(Debug)]
pub struct Flash {
    geom: FlashGeometry,
    entries_per_tp: usize,
    state: Vec<PageState>,
    tag: Vec<u32>,
    /// Per block: offset of the next page to program (`pages_per_block`
    /// means the block is fully programmed).
    write_ptr: Vec<u32>,
    valid_count: Vec<u32>,
    erase_count: Vec<u32>,
    /// Slab-backed translation-payload store: payloads for valid
    /// translation pages, addressed by PPN through a per-block slot index.
    tp: TpSlab,
    /// Out-of-band program sequence stamp per page (0 = never programmed
    /// since the last erase). Monotonic across the device's life, so crash
    /// recovery can order two valid copies of the same logical page. Held
    /// in 32 bits: a program that would need a stamp past `u32::MAX` fails
    /// with [`FlashError::SeqExhausted`] (the device file stores 64).
    seq: Vec<u32>,
    next_seq: u64,
    faults: Option<FaultPlan>,
    stats: FlashStats,
    /// Channel/way unit clocks (simulated time; see [`UnitClocks`]).
    clocks: UnitClocks,
    /// Cached `geom.topology.units()` so the hot path can skip the unit
    /// computation entirely on the default serial topology.
    units: usize,
    /// Per block: the lane ticket of its last background erase (0 = none).
    /// A foreground program into a block whose erase the lane has not yet
    /// placed forces the lane through it first.
    erase_ticket: Vec<u64>,
    /// Optional file backing: every state transition is mirrored to a
    /// device file with the fixed on-device layout of [`crate::media`],
    /// so the device survives process death. `None` (the default) is the
    /// pure-RAM arena with zero overhead.
    backing: Option<FileBacking>,
}

impl Clone for Flash {
    /// Clones the in-RAM device state. A file backing is **not** cloned:
    /// the clone is a detached RAM snapshot (two handles appending to one
    /// device file would corrupt its append order).
    fn clone(&self) -> Self {
        Self {
            geom: self.geom.clone(),
            entries_per_tp: self.entries_per_tp,
            state: self.state.clone(),
            tag: self.tag.clone(),
            write_ptr: self.write_ptr.clone(),
            valid_count: self.valid_count.clone(),
            erase_count: self.erase_count.clone(),
            tp: self.tp.clone(),
            seq: self.seq.clone(),
            next_seq: self.next_seq,
            faults: self.faults.clone(),
            stats: self.stats.clone(),
            clocks: self.clocks.clone(),
            units: self.units,
            erase_ticket: self.erase_ticket.clone(),
            backing: None,
        }
    }
}

impl Flash {
    /// Creates a fully erased device with the given geometry.
    ///
    /// The number of mapping entries per translation page is
    /// `page_bytes / 4` (4-byte PPNs, as in the paper: 1024 entries in a
    /// 4 KB page).
    pub fn new(geom: FlashGeometry) -> Result<Self> {
        geom.validate()?;
        let pages = geom.total_pages();
        let blocks = geom.num_blocks;
        let entries_per_tp = geom.page_bytes / 4;
        Ok(Self {
            entries_per_tp,
            state: vec![PageState::Free; pages],
            tag: vec![0; pages],
            write_ptr: vec![0; blocks],
            valid_count: vec![0; blocks],
            erase_count: vec![0; blocks],
            tp: TpSlab::new(blocks, geom.pages_per_block, entries_per_tp),
            seq: vec![0; pages],
            next_seq: 1,
            faults: None,
            stats: FlashStats::default(),
            clocks: UnitClocks::new(&geom.topology),
            units: geom.topology.units(),
            erase_ticket: vec![0; blocks],
            geom,
            backing: None,
        })
    }

    /// Creates a fully erased device backed by a fresh device file at
    /// `path` (truncating anything already there). Every subsequent state
    /// transition is mirrored to the file with commit ordering that keeps
    /// the on-disk image crash-consistent at any instant; see
    /// [`crate::media`].
    pub fn create_file<P: AsRef<Path>>(geom: FlashGeometry, path: P) -> Result<Self> {
        let backing = FileBacking::create(path.as_ref(), &geom)?;
        let mut flash = Self::new(geom)?;
        flash.backing = Some(backing);
        Ok(flash)
    }

    /// Opens an existing device file and reconstructs the full device
    /// state from it alone: superblock election picks the newest valid
    /// copy (geometry, mount stamp), every page record is classified from
    /// its checksummed OOB (committed → `Valid`/`Invalid` with its seq
    /// stamp and payload, interrupted → `Torn`, untouched → `Free`), and
    /// per-block write pointers, valid counts, and erase counters are
    /// rebuilt. Typically followed by `recovery::crash_mount` on the
    /// returned device.
    ///
    /// # Errors
    ///
    /// [`FlashError::Media`] when the file is missing, both superblock
    /// copies are corrupt, the layout version is unknown, or the file
    /// length disagrees with the elected geometry;
    /// [`FlashError::SeqExhausted`] when a committed record carries a
    /// sequence stamp past `u32::MAX`. Never panics on corrupt record
    /// bytes — those classify as torn pages.
    pub fn open_file<P: AsRef<Path>>(path: P) -> Result<Self> {
        let (mut backing, sb) = FileBacking::open(path.as_ref())?;
        let geom = sb.geometry;
        let metas = backing.load_pages(geom.total_pages())?;
        let erase_count = backing.load_erase_counts(geom.num_blocks)?;
        let mut flash = Self::new(geom)?;
        flash.erase_count = erase_count;
        let mut scratch: Vec<Ppn> = Vec::new();
        for (i, m) in metas.iter().enumerate() {
            let ppn = i as Ppn;
            let block = flash.geom.block_of(ppn) as usize;
            flash.state[i] = m.state;
            flash.tag[i] = m.tag;
            flash.seq[i] = u32::try_from(m.seq).map_err(|_| FlashError::SeqExhausted(ppn))?;
            if m.state == PageState::Valid {
                flash.valid_count[block] += 1;
                if m.is_translation {
                    backing.read_payload_into(ppn, &mut scratch)?;
                    flash.tp.insert(ppn, &scratch);
                }
            }
            if m.state != PageState::Free {
                let wp = flash.geom.offset_in_block(ppn) as u32 + 1;
                if wp > flash.write_ptr[block] {
                    flash.write_ptr[block] = wp;
                }
            }
        }
        // Only the *relative* order of live stamps matters to recovery, so
        // restarting just past the maximum surviving stamp is safe even if
        // the globally newest page has been erased.
        flash.next_seq = metas.iter().map(|m| m.seq).max().unwrap_or(0) + 1;
        flash.backing = Some(backing);
        Ok(flash)
    }

    /// Path of the backing device file, if this device has one.
    pub fn backing_path(&self) -> Option<&Path> {
        self.backing.as_ref().map(FileBacking::path)
    }

    /// Whether this device mirrors to a backing file.
    pub fn has_backing(&self) -> bool {
        self.backing.is_some()
    }

    /// Flushes the backing file's dirty pages to stable storage (fsync).
    /// A no-op on RAM-only devices. The mirror path itself never syncs —
    /// completed writes are durable against process death (the page cache
    /// survives `SIGKILL`) but need this barrier to survive host power
    /// loss.
    pub fn sync_backing(&mut self) -> Result<()> {
        match &mut self.backing {
            Some(b) => b.sync(),
            None => Ok(()),
        }
    }

    /// The device geometry.
    #[inline]
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geom
    }

    /// Number of mapping entries a translation page holds.
    #[inline]
    pub fn entries_per_translation_page(&self) -> usize {
        self.entries_per_tp
    }

    /// Accumulated operation statistics.
    #[inline]
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Clears the operation statistics (op counts and busy time) and
    /// rewinds the simulated unit clocks to zero, dropping any queued
    /// background work, leaving device state and per-block wear counters
    /// untouched. Used after formatting/pre-filling so measurements cover
    /// only the workload.
    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::default();
        self.clocks.reset();
    }

    // ---- Simulated-time clocks ----------------------------------------------

    /// The unit this page is served by (0 on the serial topology): each
    /// block is a superblock striped page by page across the units.
    #[inline]
    fn unit_of(&self, ppn: Ppn) -> usize {
        if self.units == 1 {
            0
        } else {
            self.geom.topology.unit_of_page(ppn)
        }
    }

    /// The channel/way unit clocks (read-only view).
    #[inline]
    pub fn clocks(&self) -> &UnitClocks {
        &self.clocks
    }

    /// Current dependency frontier of the simulated device clock: the
    /// completion time of the last issued op chain, in microseconds.
    #[inline]
    pub fn sim_frontier_us(&self) -> f64 {
        self.clocks.frontier_us()
    }

    /// Declares that the next flash ops depend only on ops completed by
    /// `t`, allowing them to overlap later ops on other units. Per-unit
    /// serialization still applies.
    #[inline]
    pub fn sim_relax_to(&mut self, t: f64) {
        self.clocks.relax_to(t);
    }

    /// Completion time of the latest flash op in simulated microseconds
    /// (device makespan since the last [`Flash::reset_stats`]).
    #[inline]
    pub fn sim_device_done_us(&self) -> f64 {
        self.clocks.done_us()
    }

    /// Sends the ops that follow to the clocks' background lane (`true`)
    /// or places them in the foreground again (`false`); see
    /// [`UnitClocks`]. Garbage collection runs in the lane.
    #[inline]
    pub fn sim_background(&mut self, on: bool) {
        self.clocks.set_background(on);
    }

    /// Starts recording where each background-lane op lands (see
    /// [`UnitClocks::placements`]).
    pub fn log_lane_placements(&mut self) {
        self.clocks.log_placements();
    }

    // ---- Power-loss fault injection -----------------------------------------

    /// Arms a power-loss [`FaultPlan`]; the corresponding operation will
    /// fail with [`FlashError::PowerLoss`] and the device stays dark (every
    /// later operation also fails) until [`Flash::disarm_faults`].
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Removes the fault plan (power restored), returning it with its
    /// counters — the first step of a remount.
    pub fn disarm_faults(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// The fatal operation, if an armed plan has fired.
    pub fn fault_fired(&self) -> Option<FaultRecord> {
        self.faults.as_ref().and_then(FaultPlan::fired)
    }

    /// Counts one attempted physical op against the armed plan, if any.
    #[inline]
    fn fault_trips(&mut self, kind: OpKind, is_translation_write: bool) -> bool {
        match &mut self.faults {
            None => false,
            Some(fp) => fp.trips(kind, is_translation_write),
        }
    }

    /// Whether the armed plan already fired: the device is dark and every
    /// operation fails without touching state (commands to an unpowered
    /// chip).
    #[inline]
    fn dark(&self) -> bool {
        self.faults.as_ref().is_some_and(|fp| fp.fired().is_some())
    }

    /// Out-of-band program sequence stamp of `ppn` (0 = never programmed
    /// since its block's last erase). Strictly increasing in program order
    /// across the whole device; crash recovery uses it to order two live
    /// copies of the same logical page.
    #[inline]
    pub fn program_seq(&self, ppn: Ppn) -> u64 {
        self.seq[ppn as usize] as u64
    }

    /// Number of torn pages on the device (power-loss damage awaiting an
    /// erase).
    pub fn torn_pages(&self) -> u64 {
        self.state.iter().filter(|&&s| s == PageState::Torn).count() as u64
    }

    fn check_ppn(&self, ppn: Ppn) -> Result<()> {
        if (ppn as usize) < self.state.len() {
            Ok(())
        } else {
            Err(FlashError::OutOfRange(ppn))
        }
    }

    fn check_block(&self, block: BlockId) -> Result<()> {
        if (block as usize) < self.geom.num_blocks {
            Ok(())
        } else {
            Err(FlashError::BlockOutOfRange(block))
        }
    }

    /// Current state of `ppn`.
    pub fn state(&self, ppn: Ppn) -> Result<PageState> {
        self.check_ppn(ppn)?;
        Ok(self.state[ppn as usize])
    }

    /// Out-of-band tag of a valid page.
    pub fn tag(&self, ppn: Ppn) -> Result<u32> {
        self.check_ppn(ppn)?;
        match self.state[ppn as usize] {
            PageState::Valid => Ok(self.tag[ppn as usize]),
            PageState::Free => Err(FlashError::ReadFree(ppn)),
            PageState::Invalid => Err(FlashError::ReadInvalid(ppn)),
            PageState::Torn => Err(FlashError::ReadTorn(ppn)),
        }
    }

    /// The next programmable page of `block`, or `None` if the block is
    /// fully programmed.
    pub fn next_free_ppn(&self, block: BlockId) -> Option<Ppn> {
        self.check_block(block).ok()?;
        let wp = self.write_ptr[block as usize] as usize;
        if wp < self.geom.pages_per_block {
            Some(self.geom.first_ppn(block) + wp as u32)
        } else {
            None
        }
    }

    /// Number of free (programmable) pages left in `block`.
    pub fn free_pages_in(&self, block: BlockId) -> Result<usize> {
        self.check_block(block)?;
        Ok(self.geom.pages_per_block - self.write_ptr[block as usize] as usize)
    }

    /// Number of valid pages in `block`.
    pub fn valid_pages_in(&self, block: BlockId) -> Result<usize> {
        self.check_block(block)?;
        Ok(self.valid_count[block as usize] as usize)
    }

    /// Number of erase cycles `block` has sustained.
    pub fn erase_count(&self, block: BlockId) -> Result<u64> {
        self.check_block(block)?;
        Ok(self.erase_count[block as usize] as u64)
    }

    /// Sum of erase counts across all blocks (equals total erase ops).
    pub fn total_erase_count(&self) -> u64 {
        self.erase_count.iter().map(|&c| c as u64).sum()
    }

    /// Reads page `ppn`, accounting one page-read latency.
    pub fn read_page(&mut self, ppn: Ppn, purpose: OpPurpose) -> Result<PageInfo> {
        if self.dark() {
            return Err(FlashError::PowerLoss);
        }
        self.check_ppn(ppn)?;
        match self.state[ppn as usize] {
            PageState::Valid => {
                if self.fault_trips(OpKind::Read, false) {
                    return Err(FlashError::PowerLoss); // non-destructive
                }
                self.stats.record(OpKind::Read, purpose, self.geom.read_us);
                self.clocks.read(self.unit_of(ppn), self.geom.read_us);
                Ok(PageInfo {
                    tag: self.tag[ppn as usize],
                    is_translation: self.tp.contains(ppn),
                })
            }
            PageState::Free => Err(FlashError::ReadFree(ppn)),
            PageState::Invalid => Err(FlashError::ReadInvalid(ppn)),
            PageState::Torn => Err(FlashError::ReadTorn(ppn)),
        }
    }

    /// Reads the mapping payload of translation page `ppn`, accounting one
    /// page-read latency.
    pub fn read_translation_payload(&mut self, ppn: Ppn, purpose: OpPurpose) -> Result<&[Ppn]> {
        let info = self.read_page(ppn, purpose)?;
        if !info.is_translation {
            return Err(FlashError::NotATranslationPage(ppn));
        }
        // The read above verified the page is valid and holds a payload.
        Ok(self.tp.get(ppn).expect("payload checked above"))
    }

    /// Mirrors a completed program of `ppn` to the backing file, using the
    /// page's just-committed RAM metadata (tag, seq, slab payload).
    #[inline]
    fn mirror_program(&mut self, ppn: Ppn) -> Result<()> {
        let Some(b) = self.backing.as_mut() else {
            return Ok(());
        };
        let i = ppn as usize;
        b.program(ppn, self.tag[i], self.seq[i].into(), self.tp.get(ppn))
    }

    /// Mirrors an *interrupted* program of `ppn` to the backing file: the
    /// torn OOB marker, or — with a tear budget on the fault plan — the
    /// partial prefix of the record the program would have written. The
    /// payload a torn supersede *would* have committed is materialized
    /// here on this cold path only, from the source's still-bound payload
    /// (the RAM slab stores nothing for torn programs).
    fn mirror_torn_program(&mut self, ppn: Ppn, tag: u32, content: &TpContent<'_>) -> Result<()> {
        if self.backing.is_none() {
            return Ok(());
        }
        let tear = self.faults.as_ref().and_then(FaultPlan::tear_bytes);
        // The seq stamp the completed program would have used. RAM leaves
        // `next_seq` unbumped on torn programs, so a later completed
        // program reuses it — harmless: the torn record can never commit.
        let seq = self.next_seq;
        let patched: Vec<Ppn>;
        let payload: Option<&[Ppn]> = match content {
            TpContent::Data => None,
            TpContent::Tp(p) => Some(p),
            TpContent::Supersede(src, updates) => {
                let mut p = self
                    .tp
                    .get(*src)
                    .expect("source checked by caller")
                    .to_vec();
                for &(off, v) in *updates {
                    p[off as usize] = v;
                }
                patched = p;
                Some(&patched)
            }
        };
        let b = self.backing.as_mut().expect("checked above");
        b.torn_program(ppn, tag, seq, payload, tear)
    }

    /// Programs `ppn`. The page must sit exactly at its block's write
    /// pointer.
    fn program_common(
        &mut self,
        ppn: Ppn,
        tag: u32,
        purpose: OpPurpose,
        content: TpContent<'_>,
    ) -> Result<()> {
        if self.dark() {
            return Err(FlashError::PowerLoss);
        }
        self.check_ppn(ppn)?;
        if self.state[ppn as usize] != PageState::Free {
            return Err(FlashError::ProgramNotFree(ppn));
        }
        let block = self.geom.block_of(ppn);
        let first = self.geom.first_ppn(block);
        let expected = first + self.write_ptr[block as usize];
        if ppn != expected {
            return Err(FlashError::NonSequentialProgram {
                requested: ppn,
                expected,
            });
        }
        let next_ptr = ppn - first + 1;
        if self.next_seq > u32::MAX as u64 {
            return Err(seq_exhausted(ppn));
        }
        let seq = self.next_seq as u32;
        let is_translation = !matches!(content, TpContent::Data);
        if self.fault_trips(OpKind::Write, is_translation) {
            // The program pulse started: the page is torn (indeterminate
            // charge, behind the write pointer) but never becomes valid.
            self.state[ppn as usize] = PageState::Torn;
            self.write_ptr[block as usize] = next_ptr;
            self.mirror_torn_program(ppn, tag, &content)?;
            return Err(FlashError::PowerLoss);
        }
        self.state[ppn as usize] = PageState::Valid;
        self.tag[ppn as usize] = tag;
        self.seq[ppn as usize] = seq;
        self.next_seq += 1;
        self.write_ptr[block as usize] = next_ptr;
        self.valid_count[block as usize] += 1;
        match content {
            TpContent::Data => {}
            TpContent::Tp(payload) => self.tp.insert(ppn, payload),
            TpContent::Supersede(src, updates) => {
                // The payload's binding moves with it, so `src` stops
                // being valid in the same step (a binding exists exactly
                // while its page is `Valid`).
                self.tp.rebind(ppn, src, updates);
                self.state[src as usize] = PageState::Invalid;
                self.valid_count[self.geom.block_of(src) as usize] -= 1;
            }
        }
        self.stats
            .record(OpKind::Write, purpose, self.geom.write_us);
        // No page is programmed before its block's erase completes: a
        // foreground program waits for an erase still queued in the lane
        // (a lane program is queued behind it anyway).
        let tickets = &self.erase_ticket;
        self.clocks
            .program(self.unit_of(ppn), self.geom.write_us, || {
                tickets[block as usize]
            });
        self.mirror_program(ppn)?;
        if let TpContent::Supersede(src, _) = content {
            // Program record first, invalidate record second: a process
            // killed between the two leaves two valid copies on the device
            // file, which `crash_mount` orders by `seq`.
            if let Some(b) = self.backing.as_mut() {
                b.invalidate(src)?;
            }
        }
        Ok(())
    }

    /// Programs a data page carrying `tag` (its LPN), accounting one
    /// page-program latency.
    pub fn program_page(&mut self, ppn: Ppn, tag: u32, purpose: OpPurpose) -> Result<()> {
        self.program_common(ppn, tag, purpose, TpContent::Data)
    }

    /// Programs a translation page for `vtpn` with `payload` (one PPN per
    /// mapping entry), accounting one page-program latency.
    pub fn program_translation_page(
        &mut self,
        ppn: Ppn,
        vtpn: u32,
        payload: &[Ppn],
        purpose: OpPurpose,
    ) -> Result<()> {
        if payload.len() != self.entries_per_tp {
            return Err(FlashError::BadPayloadLength {
                got: payload.len(),
                expected: self.entries_per_tp,
            });
        }
        self.program_common(ppn, vtpn, purpose, TpContent::Tp(payload))
    }

    /// Programs `dst` as translation page `vtpn` holding `src`'s payload
    /// with `updates` patched in, and invalidates `src` — the write half of
    /// a read-modify-write and of a GC migration, which both retire the old
    /// copy the moment the new one exists. The payload is not copied: its
    /// slab binding moves from `src` to `dst` and is patched in place (a
    /// page sharing the all-unmapped payload gets its own slot at the first
    /// patch that maps an entry).
    ///
    /// One fault point, the program: if it trips, `dst` is torn and `src`
    /// stays valid, bound and unpatched. A file backing receives the
    /// program record before the invalidate record.
    ///
    /// Accounts one page-program latency; the caller accounts the read of
    /// `src` separately (via [`Flash::read_page`]).
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] / [`FlashError::NotATranslationPage`] when
    /// `src` is not a valid translation page, and every error of a plain
    /// program of `dst`; none of them changes `src`.
    pub fn supersede_translation_page(
        &mut self,
        dst: Ppn,
        vtpn: u32,
        src: Ppn,
        updates: &[(u16, Ppn)],
        purpose: OpPurpose,
    ) -> Result<()> {
        self.check_ppn(src)?;
        if !self.tp.contains(src) {
            return Err(FlashError::NotATranslationPage(src));
        }
        self.program_common(dst, vtpn, purpose, TpContent::Supersede(src, updates))
    }

    /// Marks a valid page as invalid (superseded). This is a metadata-only
    /// operation with no latency, as in real FTLs where invalidation only
    /// touches RAM-resident block metadata.
    pub fn invalidate(&mut self, ppn: Ppn) -> Result<()> {
        if self.dark() {
            return Err(FlashError::PowerLoss);
        }
        self.check_ppn(ppn)?;
        match self.state[ppn as usize] {
            PageState::Valid => {
                self.state[ppn as usize] = PageState::Invalid;
                let block = self.geom.block_of(ppn);
                self.valid_count[block as usize] -= 1;
                // Stale translation payloads are unreachable in the model
                // (reading invalid pages is an error), so drop their slab
                // binding eagerly.
                self.tp.remove(ppn);
                if let Some(b) = self.backing.as_mut() {
                    b.invalidate(ppn)?;
                }
                Ok(())
            }
            PageState::Free => Err(FlashError::ReadFree(ppn)),
            PageState::Invalid => Err(FlashError::ReadInvalid(ppn)),
            PageState::Torn => Err(FlashError::ReadTorn(ppn)),
        }
    }

    /// Erases `block`, accounting one block-erase latency (on every unit
    /// the block spans; see [`crate::FlashTopology`]).
    ///
    /// All pages of the block must be `Free` or `Invalid`; the garbage
    /// collector must have migrated valid pages beforehand.
    pub fn erase_block(&mut self, block: BlockId, purpose: OpPurpose) -> Result<()> {
        if self.dark() {
            return Err(FlashError::PowerLoss);
        }
        self.check_block(block)?;
        if self.valid_count[block as usize] != 0 {
            return Err(FlashError::EraseWithValidPages(block));
        }
        let first = self.geom.first_ppn(block) as usize;
        if self.fault_trips(OpKind::Erase, false) {
            // The erase pulse was interrupted: every cell of the block holds
            // indeterminate charge, so all of its pages are torn.
            for s in &mut self.state[first..first + self.geom.pages_per_block] {
                *s = PageState::Torn;
            }
            for q in &mut self.seq[first..first + self.geom.pages_per_block] {
                *q = 0;
            }
            self.write_ptr[block as usize] = self.geom.pages_per_block as u32;
            if let Some(b) = self.backing.as_mut() {
                b.torn_erase(block)?;
            }
            return Err(FlashError::PowerLoss);
        }
        for s in &mut self.state[first..first + self.geom.pages_per_block] {
            *s = PageState::Free;
        }
        for q in &mut self.seq[first..first + self.geom.pages_per_block] {
            *q = 0;
        }
        self.write_ptr[block as usize] = 0;
        self.erase_count[block as usize] += 1;
        let count = self.erase_count[block as usize];
        if let Some(b) = self.backing.as_mut() {
            b.erase(block, count)?;
        }
        self.stats
            .record(OpKind::Erase, purpose, self.geom.erase_us);
        // The block's pages span `min(pages_per_block, units)` consecutive
        // units from its first page's; the erase occupies all of them.
        self.clocks.erase_span(
            self.unit_of(first as Ppn),
            self.units.min(self.geom.pages_per_block),
            self.geom.erase_us,
        );
        if self.clocks.background() {
            self.erase_ticket[block as usize] = self.clocks.lane_queued();
        }
        Ok(())
    }

    /// Iterates over the valid pages of `block` as `(ppn, tag)` pairs.
    ///
    /// The block's state/tag sub-slices are taken once up front, so the
    /// per-page step is a slice walk — no geometry arithmetic or full-array
    /// bounds check per page (this is the GC victim-scan hot path).
    pub fn valid_pages(&self, block: BlockId) -> impl Iterator<Item = (Ppn, u32)> + '_ {
        let first = self.geom.first_ppn(block) as usize;
        let n = self.geom.pages_per_block;
        self.state[first..first + n]
            .iter()
            .zip(&self.tag[first..first + n])
            .enumerate()
            .filter(|(_, (&s, _))| s == PageState::Valid)
            .map(move |(i, (_, &tag))| ((first + i) as Ppn, tag))
    }

    /// Iterates over every valid page of the device as `(ppn, tag,
    /// is_translation)`. Intended for consistency oracles in tests and for
    /// mount-time scans; does not account any latency.
    pub fn scan_valid(&self) -> impl Iterator<Item = (Ppn, u32, bool)> + '_ {
        self.state
            .iter()
            .zip(&self.tag)
            .enumerate()
            .filter(|(_, (&s, _))| s == PageState::Valid)
            .map(|(i, (_, &tag))| (i as Ppn, tag, self.tp.contains(i as Ppn)))
    }

    /// Direct payload access without read accounting; for oracles in tests.
    pub fn peek_translation_payload(&self, ppn: Ppn) -> Option<&[Ppn]> {
        self.tp.get(ppn)
    }

    /// The all-unmapped translation payload (every entry
    /// [`crate::PPN_NONE`]) that every translation page programmed with
    /// nothing mapped shares.
    #[inline]
    pub fn unmapped_translation_payload(&self) -> &[Ppn] {
        self.tp.shared()
    }

    /// Occupancy of the translation-payload store, counted by walking its
    /// index (cost proportional to the device's blocks); for oracles in
    /// tests and footprint checks.
    pub fn translation_store_census(&self) -> TpStoreCensus {
        self.tp.census()
    }

    /// Starts the sequence stamps at `next`, so tests reach their limit.
    #[cfg(test)]
    pub(crate) fn start_seq_at(&mut self, next: u64) {
        self.next_seq = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Flash {
        // 4 blocks x 64 pages.
        let geom = FlashGeometry {
            page_bytes: 4096,
            pages_per_block: 64,
            num_blocks: 4,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: crate::FlashTopology::default(),
        };
        Flash::new(geom).unwrap()
    }

    #[test]
    fn program_read_invalidate_cycle() {
        let mut f = small();
        let ppn = f.next_free_ppn(0).unwrap();
        assert_eq!(ppn, 0);
        f.program_page(ppn, 7, OpPurpose::HostData).unwrap();
        assert_eq!(f.state(ppn).unwrap(), PageState::Valid);
        assert_eq!(f.read_page(ppn, OpPurpose::HostData).unwrap().tag, 7);
        assert_eq!(f.valid_pages_in(0).unwrap(), 1);
        f.invalidate(ppn).unwrap();
        assert_eq!(f.state(ppn).unwrap(), PageState::Invalid);
        assert_eq!(f.valid_pages_in(0).unwrap(), 0);
        assert_eq!(
            f.read_page(ppn, OpPurpose::HostData),
            Err(FlashError::ReadInvalid(ppn))
        );
    }

    #[test]
    fn sequential_program_enforced() {
        let mut f = small();
        assert_eq!(
            f.program_page(5, 0, OpPurpose::HostData),
            Err(FlashError::NonSequentialProgram {
                requested: 5,
                expected: 0
            })
        );
        f.program_page(0, 0, OpPurpose::HostData).unwrap();
        f.program_page(1, 1, OpPurpose::HostData).unwrap();
        assert_eq!(
            f.program_page(3, 3, OpPurpose::HostData),
            Err(FlashError::NonSequentialProgram {
                requested: 3,
                expected: 2
            })
        );
        // Other blocks have independent write pointers.
        f.program_page(f.geometry().first_ppn(2), 9, OpPurpose::HostData)
            .unwrap();
    }

    #[test]
    fn erase_before_write_enforced() {
        let mut f = small();
        f.program_page(0, 0, OpPurpose::HostData).unwrap();
        assert_eq!(
            f.program_page(0, 0, OpPurpose::HostData),
            Err(FlashError::ProgramNotFree(0))
        );
    }

    #[test]
    fn erase_requires_no_valid_pages() {
        let mut f = small();
        f.program_page(0, 0, OpPurpose::HostData).unwrap();
        assert_eq!(
            f.erase_block(0, OpPurpose::GcData),
            Err(FlashError::EraseWithValidPages(0))
        );
        f.invalidate(0).unwrap();
        f.erase_block(0, OpPurpose::GcData).unwrap();
        assert_eq!(f.state(0).unwrap(), PageState::Free);
        assert_eq!(f.erase_count(0).unwrap(), 1);
        assert_eq!(f.free_pages_in(0).unwrap(), 64);
        // Programmable again from the start.
        f.program_page(0, 3, OpPurpose::HostData).unwrap();
    }

    #[test]
    fn translation_payload_roundtrip() {
        let mut f = small();
        let payload = vec![crate::PPN_NONE; 1024];
        f.program_translation_page(0, 12, &payload, OpPurpose::Translation)
            .unwrap();
        let info = f.read_page(0, OpPurpose::Translation).unwrap();
        assert!(info.is_translation);
        assert_eq!(info.tag, 12);
        let p = f
            .read_translation_payload(0, OpPurpose::Translation)
            .unwrap();
        assert_eq!(p.len(), 1024);
        // Data pages have no payload.
        let mut f2 = small();
        f2.program_page(0, 1, OpPurpose::HostData).unwrap();
        assert_eq!(
            f2.read_translation_payload(0, OpPurpose::Translation),
            Err(FlashError::NotATranslationPage(0))
        );
    }

    #[test]
    fn supersede_moves_the_payload_and_retires_the_source() {
        let mut f = small();
        let mut payload = vec![crate::PPN_NONE; 1024];
        payload[3] = 33;
        f.program_translation_page(0, 9, &payload, OpPurpose::Translation)
            .unwrap();
        let writes = f.stats().total_writes();
        f.supersede_translation_page(1, 9, 0, &[(5, 55)], OpPurpose::Translation)
            .unwrap();
        let moved = f.peek_translation_payload(1).unwrap();
        assert_eq!((moved[3], moved[5]), (33, 55));
        assert_eq!(f.state(0).unwrap(), PageState::Invalid);
        assert!(f.peek_translation_payload(0).is_none());
        assert_eq!(f.valid_pages_in(0).unwrap(), 1);
        assert_eq!(f.stats().total_writes(), writes + 1, "one program");
        assert!(f.program_seq(1) > f.program_seq(0));
    }

    /// A `src` that is a data page, already invalid, free or out of range
    /// is refused before anything changes — `dst` stays programmable.
    #[test]
    fn supersede_of_a_bad_source_is_a_typed_error_and_changes_nothing() {
        let mut f = small();
        f.program_page(0, 1, OpPurpose::HostData).unwrap();
        f.program_translation_page(1, 4, &vec![0; 1024], OpPurpose::Translation)
            .unwrap();
        f.invalidate(1).unwrap();
        let max = f.geometry().total_pages() as Ppn;
        let writes = f.stats().total_writes();
        for (src, want) in [
            (0, FlashError::NotATranslationPage(0)),
            (1, FlashError::NotATranslationPage(1)),
            (5, FlashError::NotATranslationPage(5)),
            (max, FlashError::OutOfRange(max)),
        ] {
            assert_eq!(
                f.supersede_translation_page(2, 4, src, &[(0, 1)], OpPurpose::Translation),
                Err(want)
            );
        }
        assert_eq!(f.state(0).unwrap(), PageState::Valid);
        assert_eq!(f.state(1).unwrap(), PageState::Invalid);
        assert_eq!(f.state(2).unwrap(), PageState::Free);
        assert_eq!(f.valid_pages_in(0).unwrap(), 1);
        assert_eq!(f.stats().total_writes(), writes);
        // A refused `dst` leaves a good `src` alone too.
        f.program_translation_page(2, 4, &vec![7; 1024], OpPurpose::Translation)
            .unwrap();
        assert_eq!(
            f.supersede_translation_page(2, 4, 2, &[(0, 1)], OpPurpose::Translation),
            Err(FlashError::ProgramNotFree(2))
        );
        assert_eq!(f.peek_translation_payload(2).unwrap()[0], 7);
    }

    #[test]
    fn torn_supersede_stores_no_payload_and_keeps_the_source() {
        let mut f = small();
        f.program_translation_page(0, 4, &vec![0; 1024], OpPurpose::Translation)
            .unwrap();
        f.arm_faults(FaultPlan::on_translation_write(0));
        assert_eq!(
            f.supersede_translation_page(1, 4, 0, &[(0, 1)], OpPurpose::Translation),
            Err(FlashError::PowerLoss)
        );
        f.disarm_faults();
        assert_eq!(f.state(1).unwrap(), PageState::Torn);
        assert!(f.peek_translation_payload(1).is_none());
        // The source copy survives the torn program: valid, bound, unpatched.
        assert_eq!(f.state(0).unwrap(), PageState::Valid);
        assert_eq!(f.peek_translation_payload(0).unwrap()[0], 0);
        assert_eq!(f.valid_pages_in(0).unwrap(), 1);
    }

    #[test]
    fn bad_payload_length_rejected() {
        let mut f = small();
        assert_eq!(
            f.program_translation_page(0, 0, &[0; 10], OpPurpose::Translation),
            Err(FlashError::BadPayloadLength {
                got: 10,
                expected: 1024
            })
        );
    }

    #[test]
    fn invalidate_drops_payload() {
        let mut f = small();
        f.program_translation_page(0, 0, &vec![0; 1024], OpPurpose::Translation)
            .unwrap();
        f.invalidate(0).unwrap();
        assert!(f.peek_translation_payload(0).is_none());
    }

    #[test]
    fn latency_accounting() {
        let mut f = small();
        f.program_page(0, 0, OpPurpose::HostData).unwrap();
        f.read_page(0, OpPurpose::HostData).unwrap();
        f.invalidate(0).unwrap();
        f.erase_block(0, OpPurpose::GcData).unwrap();
        assert!((f.stats().busy_us - (200.0 + 25.0 + 1500.0)).abs() < 1e-9);
        // On the serial topology the device clock tracks busy time exactly.
        assert_eq!(f.sim_device_done_us(), f.stats().busy_us);
        assert_eq!(f.sim_frontier_us(), f.stats().busy_us);
    }

    fn striped(pages_per_block: usize, channels: u32, ways: u32) -> Flash {
        let geom = FlashGeometry {
            page_bytes: 4096,
            pages_per_block,
            num_blocks: 4,
            read_us: 25.0,
            write_us: 200.0,
            erase_us: 1500.0,
            topology: crate::FlashTopology {
                channels,
                ways,
                bus_us: 0.0,
            },
        };
        geom.validate().unwrap();
        Flash::new(geom).unwrap()
    }

    #[test]
    fn multi_unit_clock_overlaps_consecutive_pages_of_one_block() {
        let mut f = striped(64, 2, 1);
        // Pages 0 and 1 of block 0 land on units 0 and 1.
        f.program_page(0, 1, OpPurpose::HostData).unwrap();
        f.sim_relax_to(0.0);
        f.program_page(1, 2, OpPurpose::HostData).unwrap();
        // Both programs overlapped: makespan is one program, busy is two.
        assert_eq!(f.sim_device_done_us(), 200.0);
        assert!((f.stats().busy_us - 400.0).abs() < 1e-9);
        assert_eq!(f.clocks().busiest_unit_us(), 200.0);
        // Page 2 is back on unit 0 and queues behind page 0.
        f.sim_relax_to(0.0);
        f.program_page(2, 3, OpPurpose::HostData).unwrap();
        assert_eq!(f.sim_device_done_us(), 400.0);
        // reset_stats rewinds the clocks with the counters.
        f.reset_stats();
        assert_eq!(f.sim_device_done_us(), 0.0);
        assert_eq!(f.sim_frontier_us(), 0.0);
        assert_eq!(f.clocks().busiest_unit_us(), 0.0);
    }

    #[test]
    fn erase_occupies_only_the_units_a_short_block_spans() {
        // 2-page blocks on 4 units: block 0 is units 0-1, block 1 units 2-3.
        let mut f = striped(2, 4, 1);
        f.erase_block(0, OpPurpose::GcData).unwrap();
        assert_eq!(f.sim_device_done_us(), 1500.0);
        // Block 1's erase overlaps block 0's completely.
        f.sim_relax_to(0.0);
        f.erase_block(1, OpPurpose::GcData).unwrap();
        assert_eq!(f.sim_device_done_us(), 1500.0);
        // Block 2 wraps back onto units 0-1 and queues behind block 0.
        f.sim_relax_to(0.0);
        f.erase_block(2, OpPurpose::GcData).unwrap();
        assert_eq!(f.sim_device_done_us(), 3000.0);
        assert_eq!(f.clocks().busiest_unit_us(), 3000.0);
        // A program on unit 2 (block 1's first page) waits for block 1 only.
        f.sim_relax_to(0.0);
        f.program_page(2, 7, OpPurpose::HostData).unwrap();
        assert_eq!(f.sim_frontier_us(), 1700.0);
    }

    #[test]
    fn one_busy_unit_delays_the_whole_erase() {
        let mut f = striped(8, 4, 1);
        // Page 0 of block 0 keeps unit 0 busy until 200 µs.
        f.program_page(0, 1, OpPurpose::HostData).unwrap();
        f.sim_relax_to(0.0);
        // Block 1 spans every unit: units 1-3 erase 0..1500, unit 0
        // 200..1700, and the erase completes with the last of them.
        f.erase_block(1, OpPurpose::GcData).unwrap();
        assert_eq!(f.sim_frontier_us(), 1700.0);
        assert_eq!(f.sim_device_done_us(), 1700.0);
        // Unit 0 is free at 1700; the idle units were freed at 1500, not
        // at the op's completion.
        f.sim_relax_to(0.0);
        f.program_page(8, 2, OpPurpose::HostData).unwrap();
        assert_eq!(f.sim_frontier_us(), 1900.0);
        f.sim_relax_to(0.0);
        f.program_page(9, 3, OpPurpose::HostData).unwrap();
        assert_eq!(f.sim_frontier_us(), 1700.0);
    }

    #[test]
    fn a_program_into_a_block_erased_in_the_lane_waits_for_the_erase() {
        let mut f = small();
        f.program_page(0, 1, OpPurpose::HostData).unwrap(); // 0..200
        f.invalidate(0).unwrap();
        f.sim_background(true);
        f.erase_block(0, OpPurpose::GcData).unwrap();
        f.sim_background(false);
        // Queued: counted, not yet placed.
        assert_eq!(f.stats().busy_us, 1700.0);
        assert_eq!(f.sim_device_done_us(), 200.0);
        // Another block's program overtakes it (the unit is busy until 200,
        // so the erase cannot start before the program could).
        f.program_page(64, 2, OpPurpose::HostData).unwrap();
        assert_eq!(f.sim_frontier_us(), 400.0);
        assert_eq!(f.clocks().gc_forced_drains(), 0);
        // Reusing the erased block forces the erase first: 400..1900.
        f.program_page(0, 3, OpPurpose::HostData).unwrap();
        assert_eq!(f.sim_frontier_us(), 2100.0);
        assert_eq!(f.clocks().gc_forced_drains(), 1);
        assert_eq!(f.clocks().gc_stall_us(), 1500.0);
        // Only the first program of the block waits.
        f.program_page(1, 4, OpPurpose::HostData).unwrap();
        assert_eq!(f.clocks().gc_forced_drains(), 1);
        assert_eq!(f.sim_device_done_us(), f.stats().busy_us);
    }

    #[test]
    fn torn_ops_advance_no_clock() {
        let mut f = small();
        f.arm_faults(FaultPlan::at_op(0));
        assert_eq!(
            f.program_page(0, 7, OpPurpose::HostData),
            Err(FlashError::PowerLoss)
        );
        f.disarm_faults();
        // The interrupted program is unaccounted in both busy time and the
        // simulated device clock (matching `FlashStats` behaviour).
        assert_eq!(f.stats().busy_us, 0.0);
        assert_eq!(f.sim_device_done_us(), 0.0);
    }

    #[test]
    fn scan_and_valid_pages_iterators() {
        let mut f = small();
        for i in 0..5u32 {
            f.program_page(i, 100 + i, OpPurpose::HostData).unwrap();
        }
        f.invalidate(2).unwrap();
        let v: Vec<_> = f.valid_pages(0).collect();
        assert_eq!(v, vec![(0, 100), (1, 101), (3, 103), (4, 104)]);
        assert_eq!(f.scan_valid().count(), 4);
    }

    #[test]
    fn out_of_range_checked() {
        let mut f = small();
        let max = f.geometry().total_pages() as Ppn;
        assert_eq!(
            f.read_page(max, OpPurpose::HostData),
            Err(FlashError::OutOfRange(max))
        );
        assert_eq!(
            f.erase_block(4, OpPurpose::GcData),
            Err(FlashError::BlockOutOfRange(4))
        );
        assert!(f.next_free_ppn(4).is_none());
    }

    #[test]
    fn seq_stamps_are_monotonic_and_reset_by_erase() {
        let mut f = small();
        f.program_page(0, 10, OpPurpose::HostData).unwrap();
        f.program_page(1, 11, OpPurpose::HostData).unwrap();
        let (s0, s1) = (f.program_seq(0), f.program_seq(1));
        assert!(s0 > 0 && s1 > s0);
        f.invalidate(0).unwrap();
        f.invalidate(1).unwrap();
        f.erase_block(0, OpPurpose::GcData).unwrap();
        assert_eq!(f.program_seq(0), 0);
        // Stamps keep increasing across erases (device-lifetime clock).
        f.program_page(0, 12, OpPurpose::HostData).unwrap();
        assert!(f.program_seq(0) > s1);
    }

    /// A program that would need a stamp past `u32::MAX` is refused before
    /// anything changes: the page stays free and the fault plan sees no op.
    #[test]
    fn a_program_past_the_last_stamp_is_a_typed_error_and_changes_nothing() {
        let mut f = small();
        f.start_seq_at(u32::MAX as u64 - 1);
        let mut payload = vec![crate::PPN_NONE; 1024];
        payload[0] = 9;
        f.program_translation_page(0, 4, &payload, OpPurpose::Translation)
            .unwrap();
        f.program_page(1, 1, OpPurpose::HostData).unwrap();
        assert_eq!(f.program_seq(1), u32::MAX as u64);
        let writes = f.stats().total_writes();
        f.arm_faults(FaultPlan::at_op(0));
        assert_eq!(
            f.program_page(2, 2, OpPurpose::HostData),
            Err(FlashError::SeqExhausted(2))
        );
        assert_eq!(
            f.program_translation_page(2, 5, &payload, OpPurpose::Translation),
            Err(FlashError::SeqExhausted(2))
        );
        assert_eq!(
            f.supersede_translation_page(2, 4, 0, &[(0, 7)], OpPurpose::Translation),
            Err(FlashError::SeqExhausted(2))
        );
        let plan = f.disarm_faults().unwrap();
        assert_eq!(plan.ops_observed(), 0);
        assert!(plan.fired().is_none());
        assert_eq!(f.state(2).unwrap(), PageState::Free);
        assert_eq!(f.program_seq(2), 0);
        assert_eq!(f.next_free_ppn(0), Some(2));
        assert_eq!(f.valid_pages_in(0).unwrap(), 2);
        assert_eq!(f.stats().total_writes(), writes);
        // The refused supersede left its source valid and unpatched.
        assert_eq!(f.peek_translation_payload(0).unwrap()[0], 9);
    }

    /// A device file stores 64-bit stamps; one past `u32::MAX` refuses to
    /// open with the typed error, and `u32::MAX` itself still opens.
    #[test]
    fn open_refuses_a_stored_stamp_past_the_last() {
        let path = std::env::temp_dir().join(format!("tpftl_seq_{}.img", std::process::id()));
        let mut f = Flash::create_file(small().geometry().clone(), &path).unwrap();
        f.program_page(0, 1, OpPurpose::HostData).unwrap();
        let last = u32::MAX as u64;
        f.backing
            .as_mut()
            .unwrap()
            .program(1, 2, last, None)
            .unwrap();
        drop(f);
        let mut f = Flash::open_file(&path).unwrap();
        assert_eq!(f.program_seq(1), last);
        assert_eq!(
            f.program_page(2, 3, OpPurpose::HostData),
            Err(FlashError::SeqExhausted(2))
        );
        f.backing
            .as_mut()
            .unwrap()
            .program(2, 3, last + 1, None)
            .unwrap();
        drop(f);
        assert_eq!(
            Flash::open_file(&path).err(),
            Some(FlashError::SeqExhausted(2))
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_program_leaves_page_unreadable_behind_write_ptr() {
        let mut f = small();
        f.arm_faults(FaultPlan::at_op(1));
        f.program_page(0, 7, OpPurpose::HostData).unwrap();
        let writes_before = f.stats().total_writes();
        assert_eq!(
            f.program_page(1, 8, OpPurpose::HostData),
            Err(FlashError::PowerLoss)
        );
        assert_eq!(f.state(1).unwrap(), PageState::Torn);
        assert_eq!(f.program_seq(1), 0);
        assert_eq!(f.valid_pages_in(0).unwrap(), 1);
        // The torn op was never completed, so it is not accounted.
        assert_eq!(f.stats().total_writes(), writes_before);
        // Dark device: everything fails until the plan is disarmed.
        assert_eq!(
            f.read_page(0, OpPurpose::HostData),
            Err(FlashError::PowerLoss)
        );
        assert_eq!(
            f.erase_block(1, OpPurpose::GcData),
            Err(FlashError::PowerLoss)
        );
        let plan = f.disarm_faults().unwrap();
        assert_eq!(plan.fired().unwrap().op_index, 1);
        // Power restored: the torn page stays unreadable and unprogrammable
        // (it is behind the write pointer) until its block is erased.
        assert_eq!(
            f.read_page(1, OpPurpose::HostData),
            Err(FlashError::ReadTorn(1))
        );
        assert_eq!(f.invalidate(1), Err(FlashError::ReadTorn(1)));
        assert_eq!(f.next_free_ppn(0), Some(2));
        assert_eq!(f.torn_pages(), 1);
        f.invalidate(0).unwrap();
        f.erase_block(0, OpPurpose::GcData).unwrap();
        assert_eq!(f.torn_pages(), 0);
        assert_eq!(f.state(1).unwrap(), PageState::Free);
    }

    #[test]
    fn torn_translation_program_stores_no_payload() {
        let mut f = small();
        f.arm_faults(FaultPlan::on_translation_write(0));
        let payload = vec![crate::PPN_NONE; 1024];
        assert_eq!(
            f.program_translation_page(0, 3, &payload, OpPurpose::Translation),
            Err(FlashError::PowerLoss)
        );
        f.disarm_faults();
        assert_eq!(f.state(0).unwrap(), PageState::Torn);
        assert!(f.peek_translation_payload(0).is_none());
    }

    #[test]
    fn interrupted_erase_tears_whole_block() {
        let mut f = small();
        f.program_page(0, 1, OpPurpose::HostData).unwrap();
        f.invalidate(0).unwrap();
        f.arm_faults(FaultPlan::on_erase(0));
        assert_eq!(
            f.erase_block(0, OpPurpose::GcData),
            Err(FlashError::PowerLoss)
        );
        f.disarm_faults();
        assert_eq!(f.torn_pages(), 64);
        assert_eq!(f.state(63).unwrap(), PageState::Torn);
        assert_eq!(f.erase_count(0).unwrap(), 0);
        assert_eq!(f.next_free_ppn(0), None);
        // A completed erase heals the block.
        f.erase_block(0, OpPurpose::GcData).unwrap();
        assert_eq!(f.torn_pages(), 0);
        f.program_page(0, 2, OpPurpose::HostData).unwrap();
    }

    #[test]
    fn disarmed_plans_cost_nothing_and_skipped_ops_do_not_count() {
        let mut f = small();
        // Fault checks sit after validation, so invalid requests (FTL bugs)
        // still surface as their own errors and do not consume the budget.
        f.arm_faults(FaultPlan::at_op(0));
        assert_eq!(
            f.read_page(0, OpPurpose::HostData),
            Err(FlashError::ReadFree(0))
        );
        let plan = f.disarm_faults().unwrap();
        assert_eq!(plan.ops_observed(), 0);
        assert!(plan.fired().is_none());
    }
}

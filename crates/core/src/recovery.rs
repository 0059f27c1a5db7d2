//! Mount-time recovery: rebuilding the FTL's RAM state from flash.
//!
//! A real SSD loses its RAM state (GTD, block bookkeeping, mapping cache)
//! at power-off, and everything is reconstructed from flash alone:
//!
//! * the GTD, by scanning for valid translation pages (their out-of-band
//!   tag is the VTPN);
//! * the block manager, by classifying each block from its page states
//!   (free / sealed data / sealed translation), seeding wear from the
//!   per-block erase counters;
//! * the mapping cache starts cold, exactly like the paper's experiments.
//!
//! Volatile *acceleration* state is deliberately not reconstructed:
//! mount builds a fresh FTL instance, so RAM-only indexes layered over
//! the persisted table — in particular LearnedFTL's piecewise-linear
//! segments (`crate::ftl::LearnedFtl`) — are discarded wholesale. The
//! durable answer never depends on them (every prediction is validated
//! against the OOB reverse map before use), and after a remount the
//! learned index starts empty, like the mapping cache: the misses that
//! read a translation page fill it again.
//!
//! [`crash_mount`] is the one mount path. It assumes the hard case: the
//! power failed at an *arbitrary* instant (see `tpftl_flash::FaultPlan`),
//! so the persisted mapping table may be stale, duplicated, or torn. It
//! runs the DFTL-style power-off recovery scan — elect the newest valid
//! copy of every logical page and every translation page by out-of-band
//! program-sequence stamp, discard the losers, then rewrite every
//! translation page whose persisted entries disagree with the elected
//! data pages — and returns a [`RecoveryReport`] describing what it found
//! and fixed. After a *clean* shutdown — the FTL flushed every dirty
//! mapping entry with [`flush_cache`] — the same scan elects no
//! duplicates and rewrites nothing: the report is all zeros and the GTD
//! comes back entry for entry.
//!
//! [`verify`] cross-checks the persisted mapping table against the
//! physically valid data pages — the strongest end-to-end consistency
//! oracle in the test suite — and returns a typed [`VerifyReport`] so
//! crash harnesses can assert on it without catching panics.

use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use tpftl_flash::{Flash, Lpn, OpKind, OpPurpose, Ppn, Vtpn, PPN_NONE};

use crate::env::SsdEnv;
use crate::ftl::{AccessCtx, Ftl, TpDistEntry};
use crate::gc;
use crate::gtd::Gtd;
use crate::hash::FxHashMap;
use crate::{Result, SsdConfig};

/// Writes back every dirty entry of the FTL's mapping cache, grouped per
/// translation page, leaving the cache clean — the clean-unmount barrier.
pub fn flush_cache<F: Ftl + ?Sized>(ftl: &mut F, env: &mut SsdEnv) -> Result<()> {
    if !ftl.uses_translation_pages() {
        return Ok(()); // RAM-table FTLs have nothing to persist here.
    }
    // The flush itself writes translation pages, which may need GC room.
    gc::ensure_free(ftl, env)?;
    for d in ftl.cached_tp_distribution() {
        if d.dirty > 0 {
            flush_one_page(ftl, env, d.vtpn)?;
        }
    }
    debug_assert!(
        ftl.cached_tp_distribution().iter().all(|d| d.dirty == 0),
        "flush left dirty entries behind"
    );
    Ok(())
}

/// Flushes one translation page: overlays every cached entry (read via the
/// side-effect-free [`Ftl::peek_cached`]) onto the persisted page and
/// writes it back if anything changed, then marks the page's entries clean.
fn flush_one_page<F: Ftl + ?Sized>(ftl: &mut F, env: &mut SsdEnv, vtpn: Vtpn) -> Result<()> {
    let updates = diff_page(env, vtpn, |env, lpn| {
        Ok(ftl.peek_cached(env, lpn)?.map(|p| p.unwrap_or(PPN_NONE)))
    })?;
    if !updates.is_empty() {
        env.update_translation_page(vtpn, &updates, OpPurpose::Translation)?;
    }
    ftl.mark_clean(vtpn);
    Ok(())
}

/// Differences between the persisted payload of `vtpn` and what `want`
/// says each of its LPNs should map to (`None`: whatever is persisted),
/// as `update_translation_page` updates.
fn diff_page(
    env: &mut SsdEnv,
    vtpn: Vtpn,
    mut want: impl FnMut(&SsdEnv, Lpn) -> Result<Option<Ppn>>,
) -> Result<Vec<(u16, Ppn)>> {
    let entries = env.entries_per_tp() as u32;
    let base = vtpn * entries;
    let persisted = env
        .read_translation_entries(vtpn, OpPurpose::Translation)?
        .to_vec();
    let mut updates = Vec::new();
    for off in 0..entries {
        let lpn = base + off;
        if (lpn as u64) >= env.config().logical_pages() {
            break;
        }
        if let Some(want) = want(env, lpn)? {
            if persisted[off as usize] != want {
                updates.push((off as u16, want));
            }
        }
    }
    Ok(updates)
}

/// The flash operation an injected power loss interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterruptedOp {
    /// Index of the fatal operation, counted from when the plan was armed.
    pub op_index: u64,
    /// Kind of the operation that was interrupted.
    pub kind: OpKind,
}

/// What [`crash_mount`] found on the device and did to repair it.
///
/// Fully deterministic: the same flash image produces a bit-identical
/// report, so crash tests can compare serialized reports across replays.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The operation the power loss interrupted, if the mounted device
    /// carried a fired fault plan.
    pub interrupted: Option<InterruptedOp>,
    /// Physical pages scanned (the whole device).
    pub scanned_pages: u64,
    /// Torn pages found (interrupted program/erase damage, reclaimed
    /// later by GC erases).
    pub torn_pages: u64,
    /// Live data pages after duplicate election.
    pub data_pages: u64,
    /// Live translation pages after duplicate election.
    pub translation_pages: u64,
    /// Older duplicate data-page copies discarded (same LPN twice —
    /// a write or GC migration interrupted between program and
    /// invalidate).
    pub duplicate_data_discarded: u64,
    /// Older duplicate translation-page copies discarded (same VTPN
    /// twice — an interrupted translation-page update).
    pub duplicate_translation_discarded: u64,
    /// Mapping entries whose persisted value missed the newest data copy
    /// and were repointed at it (unflushed or mid-flush updates).
    pub mappings_recovered: u64,
    /// Mapping entries that pointed at dead pages with no live
    /// replacement and were reset to unmapped.
    pub stale_cleared: u64,
    /// Translation pages rewritten during reconciliation.
    pub translation_pages_rewritten: u64,
    /// Translation pages examined by the reconcile loop (≥ the VTPN
    /// count: garbage collection during recovery re-queues pages).
    pub reconcile_visits: u64,
}

/// Minimal [`Ftl`] the reconcile loop runs garbage collection through: the
/// elected mapping table lives in RAM (`truth`), every GC data migration
/// updates it in place and queues the affected translation page for
/// (re-)reconciliation instead of writing through to flash.
struct RecoveryFtl {
    truth: Vec<Ppn>,
    dirtied: BTreeSet<Vtpn>,
}

impl Ftl for RecoveryFtl {
    fn name(&self) -> String {
        "Recovery".into()
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _ctx: &AccessCtx) -> Result<Option<Ppn>> {
        env.note_lookup(true);
        let p = self.truth[lpn as usize];
        Ok((p != PPN_NONE).then_some(p))
    }

    fn update_mapping(&mut self, env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        self.truth[lpn as usize] = new_ppn;
        self.dirtied.insert(env.vtpn_of(lpn));
        Ok(())
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        for &(lpn, ppn) in moved {
            self.truth[lpn as usize] = ppn;
            self.dirtied.insert(env.vtpn_of(lpn));
        }
        Ok(moved.len() as u64)
    }

    fn cache_bytes_used(&self) -> usize {
        0
    }

    fn cached_entries(&self) -> usize {
        0
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        Vec::new()
    }
}

/// Mounts a device that lost power at an arbitrary instant, repairing the
/// persisted mapping table, and returns the environment plus a
/// [`RecoveryReport`].
///
/// The algorithm (DFTL-style power-off recovery, hardened by the
/// program-sequence stamps every program carries in its out-of-band area):
///
/// 1. **Disarm** the fired fault plan — power is back.
/// 2. **Elect**: scan every valid page. Two valid copies of the same LPN
///    (or the same VTPN) are the program-before-invalidate race of an
///    interrupted write, migration, or translation-page update; the copy
///    with the higher program-sequence stamp is newer and wins, the loser
///    is invalidated. Torn pages are skipped (they sit behind their
///    block's write pointer and vanish at its next erase).
/// 3. **Rebuild** the GTD from the winning translation pages and the
///    block manager by re-scanning block occupancy.
/// 4. **Reconcile**: the winning data pages *are* the mapping table's
///    ground truth (data is always programmed before the old copy is
///    invalidated, so the newest valid copy of an LPN is its acknowledged
///    content). Rewrite every translation page whose persisted entries
///    disagree. The rewrites may trigger garbage collection, which
///    migrates data pages and so changes the truth again; GC updates are
///    absorbed in RAM and their translation pages re-queued until the
///    table reaches a fixpoint.
pub fn crash_mount(mut flash: Flash, config: SsdConfig) -> Result<(SsdEnv, RecoveryReport)> {
    let fault = flash.disarm_faults();
    let mut report = RecoveryReport {
        interrupted: fault
            .as_ref()
            .and_then(|p| p.fired())
            .map(|r| InterruptedOp {
                op_index: r.op_index,
                kind: r.kind,
            }),
        scanned_pages: flash.geometry().total_pages() as u64,
        torn_pages: flash.torn_pages(),
        ..RecoveryReport::default()
    };

    // Step 2: elect per-LPN / per-VTPN winners by program-sequence stamp.
    let mut tp_winner: FxHashMap<Vtpn, Ppn> = FxHashMap::default();
    let mut data_winner: FxHashMap<Lpn, Ppn> = FxHashMap::default();
    let mut losers: Vec<Ppn> = Vec::new();
    for (ppn, tag, is_tp) in flash.scan_valid() {
        let winner = if is_tp {
            &mut tp_winner
        } else {
            &mut data_winner
        };
        match winner.entry(tag) {
            Entry::Vacant(e) => {
                e.insert(ppn);
            }
            Entry::Occupied(mut e) => {
                let cur = *e.get();
                if flash.program_seq(ppn) > flash.program_seq(cur) {
                    losers.push(cur);
                    e.insert(ppn);
                } else {
                    losers.push(ppn);
                }
                if is_tp {
                    report.duplicate_translation_discarded += 1;
                } else {
                    report.duplicate_data_discarded += 1;
                }
            }
        }
    }
    for ppn in losers {
        flash.invalidate(ppn)?;
    }
    report.data_pages = data_winner.len() as u64;
    report.translation_pages = tp_winner.len() as u64;

    // Step 3: rebuild the directory and block bookkeeping.
    let mut gtd = Gtd::new(config.num_vtpns() as usize);
    for (&vtpn, &ppn) in &tp_winner {
        gtd.set(vtpn, ppn);
    }
    let mut truth: Vec<Ppn> = vec![PPN_NONE; config.logical_pages() as usize];
    for (&lpn, &ppn) in &data_winner {
        truth[lpn as usize] = ppn;
    }
    let mut env = SsdEnv::remount(config, flash, gtd)?;

    // Step 4: reconcile persisted translation pages against the truth,
    // to fixpoint (GC during reconciliation re-queues what it moves).
    let mut rftl = RecoveryFtl {
        truth,
        dirtied: BTreeSet::new(),
    };
    let mut pending: BTreeSet<Vtpn> = (0..env.gtd().len() as Vtpn).collect();
    while let Some(vtpn) = pending.pop_first() {
        report.reconcile_visits += 1;
        let diff = |env: &mut SsdEnv, truth: &[Ppn]| {
            diff_page(env, vtpn, |_, lpn| Ok(Some(truth[lpn as usize])))
        };
        if diff(&mut env, &rftl.truth)?.is_empty() {
            continue;
        }
        // The rewrite needs an allocatable translation page; GC for room
        // first, then recompute the diff (GC may have just moved this very
        // page's data).
        gc::ensure_free(&mut rftl, &mut env)?;
        pending.append(&mut rftl.dirtied);
        let updates = diff(&mut env, &rftl.truth)?;
        if !updates.is_empty() {
            for &(_, want) in &updates {
                if want == PPN_NONE {
                    report.stale_cleared += 1;
                } else {
                    report.mappings_recovered += 1;
                }
            }
            env.update_translation_page(vtpn, &updates, OpPurpose::Translation)?;
            report.translation_pages_rewritten += 1;
        }
        pending.append(&mut rftl.dirtied);
    }

    env.reset_stats();
    Ok((env, report))
}

/// Side-effect-free mapping lookup straight from the persisted table (GTD
/// and translation-page payload), bypassing any cache: the
/// read-your-writes oracle crash harnesses check acknowledged writes
/// against.
pub fn lookup(env: &SsdEnv, lpn: Lpn) -> Option<Ppn> {
    let tp = env.gtd().get(env.vtpn_of(lpn))?;
    let p = env
        .flash()
        .peek_translation_payload(tp)
        .expect("GTD points at a translation page")[env.offset_of(lpn) as usize];
    (p != PPN_NONE).then_some(p)
}

/// Outcome of [`verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Mapped entries found in the persisted table.
    pub mapped_entries: u64,
    /// Valid data pages on the device.
    pub data_pages: u64,
    /// Inconsistencies, in deterministic (VTPN, offset) order. Empty
    /// means the mapping table and the physical pages agree exactly.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// Whether the persisted table and physical reality agree exactly.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Panics with every inconsistency if the report is not clean; for
    /// tests that want the old fail-fast behaviour.
    ///
    /// # Panics
    ///
    /// See above.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "mapping table inconsistent ({} errors):\n{}",
            self.errors.len(),
            self.errors.join("\n")
        );
    }
}

/// Verifies the persisted mapping table against physical reality: every
/// persisted mapping must point at a valid data page holding that LPN, and
/// every valid data page must be referenced. Inconsistencies are collected
/// into the returned [`VerifyReport`] rather than panicking, so crash
/// harnesses can assert on (and print) all of them at once.
pub fn verify(env: &SsdEnv) -> VerifyReport {
    // Index physical reality once.
    let mut page_of: FxHashMap<Ppn, u32> = FxHashMap::default();
    let mut report = VerifyReport::default();
    for (ppn, tag, is_tp) in env.flash().scan_valid() {
        if !is_tp {
            page_of.insert(ppn, tag);
            report.data_pages += 1;
        }
    }
    for vtpn in 0..env.gtd().len() as Vtpn {
        let Some(tp_ppn) = env.gtd().get(vtpn) else {
            continue;
        };
        let Some(entries) = env.flash().peek_translation_payload(tp_ppn) else {
            report.errors.push(format!(
                "GTD maps VTPN {vtpn} to {tp_ppn}, not a translation page"
            ));
            continue;
        };
        let base = vtpn * env.entries_per_tp() as u32;
        for (off, &ppn) in entries.iter().enumerate() {
            if ppn == PPN_NONE {
                continue;
            }
            let lpn = base + off as u32;
            match page_of.get(&ppn) {
                Some(&tag) if tag == lpn => report.mapped_entries += 1,
                Some(&tag) => report.errors.push(format!(
                    "entry for LPN {lpn} points at page {ppn} holding LPN {tag}"
                )),
                None => report
                    .errors
                    .push(format!("entry for LPN {lpn} points at non-live page {ppn}")),
            }
        }
    }
    if report.mapped_entries != report.data_pages {
        report.errors.push(format!(
            "{} valid data pages but {} mapped entries (lost writes)",
            report.data_pages, report.mapped_entries
        ));
    }
    report
}

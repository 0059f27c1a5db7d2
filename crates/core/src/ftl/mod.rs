//! The FTL abstraction and the concrete page-level FTLs.

use tpftl_flash::{Lpn, Ppn, Vtpn};

use crate::env::SsdEnv;
use crate::Result;

mod cdftl;
mod cmt;
mod dftl;
mod kind;
mod learned;
mod optimal;
mod sftl;
mod tpftl;

pub use cdftl::Cdftl;
pub use dftl::Dftl;
pub use kind::FtlKind;
pub use learned::{LearnedFtl, DEFAULT_EPSILON};
pub use optimal::OptimalFtl;
pub use sftl::Sftl;
pub use tpftl::{TpFtl, TpftlConfig};

/// Per-page-access context handed to [`Ftl::translate`].
///
/// `remaining_in_request` is the number of page accesses of the same host
/// request that still follow this one — the information TPFTL's
/// request-level prefetching uses ("the length of request-level prefetching
/// is proportional to the number of page accesses contained in the original
/// request").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// Whether the page access is a write.
    pub is_write: bool,
    /// Page accesses of this request still to come after this one.
    pub remaining_in_request: u32,
}

impl AccessCtx {
    /// Context for an isolated single-page access.
    pub fn single(is_write: bool) -> Self {
        Self {
            is_write,
            remaining_in_request: 0,
        }
    }
}

/// One row of a cached-translation-page distribution snapshot
/// (the Figure 1/2 observable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpDistEntry {
    /// Virtual translation-page number.
    pub vtpn: Vtpn,
    /// Cached entries belonging to this translation page.
    pub entries: u32,
    /// How many of them are dirty.
    pub dirty: u32,
}

/// A flash translation layer.
///
/// The simulator drives the FTL with exactly this protocol per page access:
///
/// 1. [`Ftl::translate`] — resolve LPN → PPN, performing all mapping-cache
///    management (loads, prefetches, evictions, writebacks) and the
///    corresponding flash traffic through `env`. Must call
///    [`SsdEnv::note_lookup`] once.
/// 2. For writes, the driver programs the new data page, invalidates the
///    old one (using the PPN `translate` returned), then calls
///    [`Ftl::update_mapping`] — which updates the (now guaranteed cached)
///    entry in place and marks it dirty.
///
/// The garbage collector calls [`Ftl::on_gc_data_block`] with every data
/// page it migrated out of a victim block; the FTL absorbs what it can in
/// the cache (GC hits) and batch-updates translation pages in flash for the
/// rest, exactly as Section 3.1's `H_gcr` accounting assumes.
///
/// # Examples
///
/// A minimal custom FTL — a RAM-resident table, like the paper's "optimal"
/// baseline — needs only the mapping methods; every cache-related hook has
/// a sensible default for RAM-table designs:
///
/// ```
/// use tpftl_core::env::SsdEnv;
/// use tpftl_core::ftl::{AccessCtx, Ftl, TpDistEntry};
/// use tpftl_core::{driver, Lpn, Ppn, Result, SsdConfig};
///
/// struct RamTableFtl(Vec<Option<Ppn>>);
///
/// impl Ftl for RamTableFtl {
///     fn name(&self) -> String {
///         "RamTable".into()
///     }
///     fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, _: &AccessCtx) -> Result<Option<Ppn>> {
///         env.note_lookup(true);
///         Ok(self.0[lpn as usize])
///     }
///     fn update_mapping(&mut self, _: &mut SsdEnv, lpn: Lpn, ppn: Ppn) -> Result<()> {
///         self.0[lpn as usize] = Some(ppn);
///         Ok(())
///     }
///     fn on_gc_data_block(&mut self, _: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
///         for &(lpn, ppn) in moved {
///             self.0[lpn as usize] = Some(ppn);
///         }
///         Ok(moved.len() as u64) // every update is a GC hit
///     }
///     fn uses_translation_pages(&self) -> bool {
///         false
///     }
///     fn cache_bytes_used(&self) -> usize {
///         self.0.len() * 8
///     }
///     fn cached_entries(&self) -> usize {
///         self.0.iter().flatten().count()
///     }
///     fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
///         Vec::new()
///     }
/// }
///
/// let config = SsdConfig::paper_default(16 << 20);
/// let mut env = SsdEnv::new(config.clone())?;
/// let mut ftl = RamTableFtl(vec![None; config.logical_pages() as usize]);
/// driver::bootstrap(&mut ftl, &mut env)?;
/// driver::serve_request(&mut ftl, &mut env, 0, 8, true)?; // write 8 pages
/// driver::serve_request(&mut ftl, &mut env, 0, 8, false)?; // read them back
/// assert_eq!(env.stats.user_page_writes, 8);
/// # Ok::<(), tpftl_core::FtlError>(())
/// ```
pub trait Ftl {
    /// Descriptive name, including configuration (e.g. `TPFTL(rsbc)`).
    fn name(&self) -> String;

    /// Resolves `lpn`, managing the cache; returns the *current* PPN
    /// (`None` if the page has never been written).
    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, ctx: &AccessCtx) -> Result<Option<Ppn>>;

    /// Records `lpn -> new_ppn` after a host data-page write. The entry is
    /// guaranteed to have been translated immediately before.
    fn update_mapping(&mut self, env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()>;

    /// Handles the mapping updates of one collection pass: `moved` holds
    /// the `(lpn, new_ppn)` of every data page the pass migrated, in the
    /// order it migrated them; a later move of an LPN supersedes an earlier
    /// one. Returns how many were absorbed by the cache (GC hits).
    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64>;

    /// Serves a host page write: the demand-paging protocol (translate,
    /// program, invalidate, update). No FTL overrides it. It stays on the
    /// trait only because the benchmark package's tracing wrapper calls
    /// it; the benchmark re-baseline (ROADMAP, *benchmark-archetype*)
    /// drops it.
    fn write_page(&mut self, env: &mut SsdEnv, lpn: Lpn, ctx: &AccessCtx) -> Result<()> {
        let old = self.translate(env, lpn, ctx)?;
        env.stats.user_page_writes += 1;
        let new = env.program_data_page(lpn, tpftl_flash::OpPurpose::HostData)?;
        if let Some(old_ppn) = old {
            env.invalidate_page(old_ppn)?;
        }
        self.update_mapping(env, lpn, new)
    }

    /// Whether the FTL persists its mapping table in translation pages
    /// (false for the optimal FTL, which keeps it in RAM).
    fn uses_translation_pages(&self) -> bool {
        true
    }

    /// Whether the shared page-level garbage collector manages this FTL's
    /// space: always, as no FTL overrides it. It stays on the trait only
    /// because the benchmark package's tracing wrapper forwards it; the
    /// benchmark re-baseline (ROADMAP, *benchmark-archetype*) drops it.
    fn uses_page_level_gc(&self) -> bool {
        true
    }

    /// Called once after the device is formatted/pre-filled, before
    /// statistics reset; RAM-table FTLs rebuild their state here.
    fn after_bootstrap(&mut self, _env: &mut SsdEnv) -> Result<()> {
        Ok(())
    }

    /// Bytes of the mapping-cache budget currently in use, excluding the
    /// GTD (which [`crate::SsdConfig`] accounts separately).
    fn cache_bytes_used(&self) -> usize;

    /// Number of mapping entries currently cached (space-utilization
    /// experiments, Figure 10).
    fn cached_entries(&self) -> usize;

    /// Snapshot of the cached-entry distribution grouped by translation
    /// page, sorted by VTPN (Figures 1 and 2).
    fn cached_tp_distribution(&self) -> Vec<TpDistEntry>;

    /// Side-effect-free cache probe for [`crate::recovery::flush_cache`]:
    /// `None` if `lpn`'s entry is not cached; `Some(mapping)` otherwise
    /// (where the mapping itself may be "unmapped"). Must not touch
    /// recency state or load anything. RAM-table FTLs (which never flush
    /// through translation pages) may leave the default.
    fn peek_cached(&self, _env: &SsdEnv, _lpn: Lpn) -> Result<Option<Option<Ppn>>> {
        debug_assert!(
            !self.uses_translation_pages(),
            "demand-paging FTLs must implement peek_cached"
        );
        Ok(None)
    }

    /// Marks every cached entry of `vtpn` clean after a flush persisted
    /// them. Same applicability note as [`Ftl::peek_cached`].
    fn mark_clean(&mut self, _vtpn: Vtpn) {
        debug_assert!(
            !self.uses_translation_pages(),
            "demand-paging FTLs must implement mark_clean"
        );
    }
}

impl<T: Ftl + ?Sized> Ftl for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, ctx: &AccessCtx) -> Result<Option<Ppn>> {
        (**self).translate(env, lpn, ctx)
    }
    fn update_mapping(&mut self, env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        (**self).update_mapping(env, lpn, new_ppn)
    }
    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        (**self).on_gc_data_block(env, moved)
    }
    fn write_page(&mut self, env: &mut SsdEnv, lpn: Lpn, ctx: &AccessCtx) -> Result<()> {
        (**self).write_page(env, lpn, ctx)
    }
    fn uses_translation_pages(&self) -> bool {
        (**self).uses_translation_pages()
    }
    fn uses_page_level_gc(&self) -> bool {
        (**self).uses_page_level_gc()
    }
    fn after_bootstrap(&mut self, env: &mut SsdEnv) -> Result<()> {
        (**self).after_bootstrap(env)
    }
    fn cache_bytes_used(&self) -> usize {
        (**self).cache_bytes_used()
    }
    fn cached_entries(&self) -> usize {
        (**self).cached_entries()
    }
    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        (**self).cached_tp_distribution()
    }
    fn peek_cached(&self, env: &SsdEnv, lpn: Lpn) -> Result<Option<Option<Ppn>>> {
        (**self).peek_cached(env, lpn)
    }
    fn mark_clean(&mut self, vtpn: Vtpn) {
        (**self).mark_clean(vtpn)
    }
}

// Every FTL is moved into a per-shard worker thread by the sharded engine;
// assert Send-safety for each concrete design (and the boxed form the
// experiment runner hands out) at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TpFtl>();
    assert_send::<Dftl>();
    assert_send::<Sftl>();
    assert_send::<Cdftl>();
    assert_send::<LearnedFtl>();
    assert_send::<OptimalFtl>();
    assert_send::<Box<dyn Ftl + Send>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_ctx_single() {
        let c = AccessCtx::single(true);
        assert!(c.is_write);
        assert_eq!(c.remaining_in_request, 0);
    }
}

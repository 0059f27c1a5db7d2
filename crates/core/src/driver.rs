//! The page-access protocol between host requests and an FTL.
//!
//! This is the FlashSim-style serving loop: a host request is split into
//! 4 KB page accesses; each access is translated (cache management +
//! translation-page flash traffic), then the data page is read or written,
//! and garbage collection runs whenever the free pool is low. The simulator
//! crate wraps these functions with arrival/queuing timing.

use tpftl_flash::Lpn;

use crate::env::SsdEnv;
use crate::ftl::{AccessCtx, Ftl};
use crate::{gc, Result};

/// Serves one page access (translate, then data I/O), running GC first if
/// the free pool is below the watermark.
pub fn serve_page_access<F: Ftl + ?Sized>(
    ftl: &mut F,
    env: &mut SsdEnv,
    lpn: Lpn,
    ctx: AccessCtx,
) -> Result<()> {
    env.check_lpn(lpn)?;
    gc::ensure_free(ftl, env)?;
    if ctx.is_write {
        ftl.write_page(env, lpn, &ctx)?;
    } else {
        env.stats.user_page_reads += 1;
        if let Some(ppn) = ftl.translate(env, lpn, &ctx)? {
            env.read_data_page(ppn, lpn)?;
        }
        // Reads of never-written pages return no data; no flash traffic.
    }
    Ok(())
}

/// Serves a whole host request of `page_count` consecutive pages starting
/// at `start_lpn`, feeding each access the remaining-request context that
/// request-level prefetching consumes.
pub fn serve_request<F: Ftl + ?Sized>(
    ftl: &mut F,
    env: &mut SsdEnv,
    start_lpn: Lpn,
    page_count: u32,
    is_write: bool,
) -> Result<()> {
    env.stats.requests += 1;
    for i in 0..page_count {
        let ctx = AccessCtx {
            is_write,
            remaining_in_request: page_count - 1 - i,
        };
        serve_page_access(ftl, env, start_lpn + i, ctx)?;
    }
    Ok(())
}

/// Bootstraps a device for `ftl`: optional sequential pre-fill, format (for
/// FTLs that persist the mapping table), FTL state rebuild, then a
/// statistics reset so measurements cover only the workload.
pub fn bootstrap<F: Ftl + ?Sized>(ftl: &mut F, env: &mut SsdEnv) -> Result<()> {
    let prefill = env.config().prefill_frac;
    if prefill > 0.0 {
        env.prefill(prefill)?;
    }
    if ftl.uses_translation_pages() {
        env.format()?;
    }
    ftl.after_bootstrap(env)?;
    env.reset_stats();
    Ok(())
}

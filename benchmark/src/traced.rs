//! The traced repetition: an FTL wrapper that records spans, and a
//! benchmark-owned copy of the serving protocol that records the rest.
//!
//! Spans are recorded from here, around the calls into each layer; the
//! library is not touched. That means owning a copy of two library loops —
//! the unit-clock part of `Ssd::serve` and `driver::serve_page_access` —
//! with spans between their steps. The copy is kept honest by a check: its
//! `FtlStats`/`FlashStats`/`GcStats` must equal an untraced `Ssd::run`'s
//! bit for bit, so a library change to either loop that this file has not
//! followed fails the run instead of skewing the ledger quietly.

use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Ftl, TpDistEntry};
use tpftl_core::{gc, Lpn, Ppn, Result, Vtpn};
use tpftl_sim::LatencyHistogram;
use tpftl_trace::IoRequest;

use crate::checks::PAGE_BYTES;
use crate::spans::{Kind, Recorder};

/// An FTL that forwards every call and records a span around the three the
/// protocol is made of. `write_page` is deliberately *not* forwarded: the
/// trait default runs with `Self = Traced<F>`, so the `translate` and
/// `update_mapping` inside a write are seen too. (None of the FTLs the
/// workloads use overrides it.)
pub struct Traced<F> {
    /// The FTL under test.
    pub inner: F,
    /// Where the spans go; the serving loop records into it as well.
    pub rec: Recorder,
}

impl<F: Ftl> Ftl for Traced<F> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn translate(&mut self, env: &mut SsdEnv, lpn: Lpn, ctx: &AccessCtx) -> Result<Option<Ppn>> {
        let hits = env.stats.hits;
        self.rec.open();
        let res = self.inner.translate(env, lpn, ctx);
        self.rec.close_as(if env.stats.hits > hits {
            Kind::TranslateHit
        } else {
            Kind::TranslateMiss
        });
        res
    }

    fn update_mapping(&mut self, env: &mut SsdEnv, lpn: Lpn, new_ppn: Ppn) -> Result<()> {
        self.rec.open();
        let res = self.inner.update_mapping(env, lpn, new_ppn);
        self.rec.close_as(Kind::UpdateMapping);
        res
    }

    fn on_gc_data_block(&mut self, env: &mut SsdEnv, moved: &[(Lpn, Ppn)]) -> Result<u64> {
        self.rec.open();
        let res = self.inner.on_gc_data_block(env, moved);
        self.rec.close_as(Kind::OnGc);
        res
    }

    fn uses_translation_pages(&self) -> bool {
        self.inner.uses_translation_pages()
    }

    fn uses_page_level_gc(&self) -> bool {
        self.inner.uses_page_level_gc()
    }

    fn after_bootstrap(&mut self, env: &mut SsdEnv) -> Result<()> {
        self.inner.after_bootstrap(env)
    }

    fn cache_bytes_used(&self) -> usize {
        self.inner.cache_bytes_used()
    }

    fn cached_entries(&self) -> usize {
        self.inner.cached_entries()
    }

    fn cached_tp_distribution(&self) -> Vec<TpDistEntry> {
        self.inner.cached_tp_distribution()
    }

    fn peek_cached(&self, env: &SsdEnv, lpn: Lpn) -> Result<Option<Option<Ppn>>> {
        self.inner.peek_cached(env, lpn)
    }

    fn mark_clean(&mut self, vtpn: Vtpn) {
        self.inner.mark_clean(vtpn)
    }
}

/// The unit-clock state `Ssd` keeps between requests.
#[derive(Default)]
pub struct SimClock {
    free_us: f64,
    /// Simulated responses, one per request served.
    pub hist: LatencyHistogram,
}

fn victims(env: &SsdEnv) -> u64 {
    env.gc_stats.data_victims + env.gc_stats.trans_victims
}

/// One page access: `driver::serve_page_access`, with spans.
fn serve_page<F: Ftl>(
    ftl: &mut Traced<F>,
    env: &mut SsdEnv,
    lpn: Lpn,
    ctx: AccessCtx,
) -> Result<()> {
    env.check_lpn(lpn)?;
    if ftl.uses_page_level_gc() {
        let before = victims(env);
        ftl.rec.open();
        let res = gc::ensure_free(ftl, env);
        ftl.rec.close_as(if victims(env) > before {
            Kind::GcCycle
        } else {
            Kind::GcIdle
        });
        res?;
    }
    if ctx.is_write {
        ftl.rec.open();
        let res = ftl.write_page(env, lpn, &ctx);
        ftl.rec.close_as(Kind::WritePage);
        res?;
    } else {
        env.stats.user_page_reads += 1;
        if let Some(ppn) = ftl.translate(env, lpn, &ctx)? {
            ftl.rec.open();
            let res = env.read_data_page(ppn, lpn);
            ftl.rec.close_as(Kind::ReadDataPage);
            res?;
        }
    }
    Ok(())
}

/// One host request: the unit-clock part of `Ssd::serve` (no write
/// buffer, no sampler, no FIFO model — no workload uses the first two and
/// the third is slated for deletion).
fn serve_request<F: Ftl>(
    ftl: &mut Traced<F>,
    env: &mut SsdEnv,
    clock: &mut SimClock,
    req: &IoRequest,
) -> Result<()> {
    env.stats.requests += 1;
    let start = req.arrival_us.max(clock.free_us);
    let mut done = start;
    let first = (req.offset / PAGE_BYTES) as Lpn;
    let count = req.page_count(PAGE_BYTES) as u32;
    for i in 0..count {
        let ctx = AccessCtx {
            is_write: req.is_write(),
            remaining_in_request: count - 1 - i,
        };
        env.sim_relax_to(start);
        serve_page(ftl, env, first + i, ctx)?;
        done = done.max(env.sim_frontier_us());
    }
    env.sim_relax_to(done);
    clock.free_us = done;
    clock.hist.record(done - req.arrival_us);
    Ok(())
}

/// Serves `trace` with every layer boundary spanned. The recorder in
/// `ftl` ends up holding one [`Kind::Replay`] span over everything.
pub fn replay<F: Ftl>(
    ftl: &mut Traced<F>,
    env: &mut SsdEnv,
    trace: impl IntoIterator<Item = IoRequest>,
) -> Result<SimClock> {
    let mut clock = SimClock::default();
    let mut trace = trace.into_iter();
    let mut index = 0u64;
    ftl.rec.open();
    let res = loop {
        ftl.rec.begin_request(index);
        index += 1;
        ftl.rec.open();
        let next = trace.next();
        ftl.rec.close_as(Kind::Generator);
        let Some(req) = next else {
            break Ok(());
        };
        ftl.rec.open();
        let res = serve_request(ftl, env, &mut clock, &req);
        ftl.rec.close_as(Kind::Request);
        if res.is_err() {
            break res;
        }
    };
    ftl.rec.close_as(Kind::Replay);
    res.map(|()| clock)
}

//! Cross-FTL differential oracle: every FTL is a different implementation
//! of the *same* address-translation contract, so each must agree with the
//! tester's host shadow of every write — and so with each other — plus
//! LearnedFTL's stale-point scenarios, pinned state tuple by state tuple.

use tpftl_core::driver;
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Ftl, LearnedFtl};
use tpftl_core::{gc, SsdConfig};
use tpftl_flash::{Lpn, OpPurpose};
use tpftl_sim::tester::{check, Case};
use tpftl_sim::Ssd;
use tpftl_trace::{Dir, IoRequest, SyntheticSpec};

const PAGE_BYTES: u64 = 4096;

const SEVEN: [&str; 7] = [
    "dftl", "cdftl", "sftl", "tpftl", "learned", "zftl", "optimal",
];

#[test]
fn all_ftls_agree_on_read_your_writes() {
    let base = Case::plain(1234);
    for ftl in SEVEN {
        check(&Case { ftl, ..base });
    }
}

/// Stream placement moves pages between blocks, never between logical
/// identities.
#[test]
fn all_ftls_agree_with_two_streams_and_windowed_gc() {
    let mut base = Case::plain(1234);
    (base.streams, base.windowed) = (2, true);
    for ftl in SEVEN {
        check(&Case { ftl, ..base });
    }
}

/// Adversarial trace for the learned mapping: a fully pre-filled device
/// churned by overwrite-heavy traffic that relocates pages, splits
/// segments and has GC move what is left, then two sequential rewrites
/// interleaved irregularly, so that either lands 1–3 PPNs apart: runs
/// within ε of a line that rounds wrong at many an offset. ε-inexact
/// segments (and anything stale that got past the split discipline) must
/// surface as *mispredicts* — validated rejections routed to the fallback —
/// never as a wrong answer: every read inside the replay and the final
/// sweep verifies the OOB tag of the page the FTL translated to.
#[test]
fn learned_ftl_overwrite_churn_mispredicts_safely() {
    let mut c = SsdConfig::paper_default(8 << 20);
    c.cache_bytes = c.gtd_bytes() + 10 * 1024;
    c.prefill_frac = 1.0;
    let spec = SyntheticSpec {
        requests: 3_000,
        address_bytes: 8 << 20,
        write_ratio: 0.9,
        mean_req_sectors: 8.0,
        ..SyntheticSpec::default()
    };
    let reqs: Vec<IoRequest> = spec.iter(1234).collect();

    let mut ftl = LearnedFtl::new(&c).expect("budget");
    let mut env = SsdEnv::new(c.clone()).expect("env");
    driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");

    for req in &reqs {
        let first = (req.offset / PAGE_BYTES) as Lpn;
        let count = req.page_count(PAGE_BYTES) as u32;
        driver::serve_request(&mut ftl, &mut env, first, count, req.is_write())
            .expect("serve survives churn");
    }
    // Which of the two rewrites goes next: the bits of a constant.
    let (mut next, mut turn) = ([0 as Lpn, 1024], 0u32);
    while next[0] < 700 || next[1] < 1724 {
        let stream = (0x9E37_79B9_7F4A_7C15_u64 >> (turn % 64) & 1) as usize;
        driver::serve_request(&mut ftl, &mut env, next[stream], 1, true).expect("rewrite");
        next[stream] += 1;
        turn += 1;
    }
    // Full read sweep: the environment rejects any OOB tag mismatch, so
    // a mispredict that slipped past validation cannot hide here.
    for lpn in 0..c.logical_pages() as Lpn {
        gc::ensure_free(&mut ftl, &mut env).expect("gc");
        let ppn = ftl
            .translate(&mut env, lpn, &AccessCtx::single(false))
            .expect("translate")
            .unwrap_or_else(|| panic!("prefilled LPN {lpn} lost its mapping"));
        env.read_data_page(ppn, lpn).expect("readback");
    }

    let s = &env.stats;
    assert!(
        s.predict_hits > 100,
        "learned index validated {} predictions — the trace is vacuous",
        s.predict_hits
    );
    assert!(
        s.mispredicts > 20,
        "{} mispredicts — the adversarial trace no longer exercises \
         inexact segments",
        s.mispredicts
    );
}

/// A 2-region device (region 0 prefilled, region 1 unmapped, so that reads
/// there cache "unmapped" entries and nothing else) whose LearnedFTL has
/// room for `bytes` of segments (16 B each), entries (6 B) and the nodes
/// that hold a region's entries (8 B).
fn tiny_learned(bytes: usize) -> Ssd<LearnedFtl> {
    let mut c = SsdConfig::paper_default(8 << 20);
    c.cache_bytes = c.gtd_bytes() + bytes;
    c.prefill_frac = 0.5;
    Ssd::new(LearnedFtl::new(&c).expect("budget"), c).expect("device")
}

fn page(ssd: &mut Ssd<LearnedFtl>, lpn: Lpn, dir: Dir) {
    let req = IoRequest::new(0.0, u64::from(lpn) * PAGE_BYTES, PAGE_BYTES as u32, dir);
    ssd.serve(&req).expect("one page");
}

/// `(segments, cached entries, dirty write-backs, predict hits, mispredicts)`.
fn learned_state(ssd: &Ssd<LearnedFtl>) -> (usize, usize, u64, u64, u64) {
    let (ftl, s) = (ssd.ftl(), &ssd.env().stats);
    let segments = ftl.segment_count();
    let entries = ftl.cached_entries();
    (
        segments,
        entries,
        s.dirty_replacements,
        s.predict_hits,
        s.mispredicts,
    )
}

/// Stale-point discipline (a). A fill taken while a covered offset has a
/// dirty cached entry fits the page's *old* value there; the write-back
/// that evicts the entry is what makes the page differ from the fit, and
/// it splits that point out — no mispredict is ever paid for it.
#[test]
fn learned_ftl_dirty_write_back_splits_the_point_a_fill_fitted_stale() {
    // Room for a segment and one single-entry node, or for two such nodes.
    let mut ssd = tiny_learned(32);
    // The write's miss fills region 0's line, its update splits offset 0
    // off and leaves the dirty entry: [view, entry 0].
    page(&mut ssd, 0, Dir::Write);
    assert_eq!(learned_state(&ssd), (1, 1, 0, 0, 0));
    // An unmapped read: its entry and node evict the coldest slot, the view.
    page(&mut ssd, 1500, Dir::Read);
    assert_eq!(learned_state(&ssd), (0, 2, 0, 0, 0));
    // A miss in region 0 fills the line again, from a page that has not
    // heard of the overwrite, and evicts the coldest slot to pay for it:
    // entry 0, dirty — its write-back must take offset 0 out of the fit.
    page(&mut ssd, 3, Dir::Read);
    assert_eq!(learned_state(&ssd), (1, 1, 1, 0, 0));
    // Offset 0 is nobody's now: a plain miss, resolved from the page the
    // write-back persisted (`read_data_page` checks the tag); its entry
    // and node take the place of region 1's. Offset 1 predicts as ever.
    page(&mut ssd, 0, Dir::Read);
    page(&mut ssd, 1, Dir::Read);
    assert_eq!(learned_state(&ssd), (1, 1, 1, 1, 0));
}

/// Stale-point discipline (b). A flush cleans the entry, so no write-back
/// is left to split the point: `Ssd::flush` → `mark_clean` drops the view.
#[test]
fn learned_ftl_flush_leaves_no_view_behind() {
    // Room for two nodes of one and three entries, or a segment more than
    // one single-entry node.
    let mut ssd = tiny_learned(40);
    page(&mut ssd, 0, Dir::Write);
    for lpn in 1500..1503 {
        page(&mut ssd, lpn, Dir::Read);
    }
    assert_eq!(learned_state(&ssd), (0, 4, 0, 0, 0));
    // Entry 0 becomes the hottest, so the fill evicts the clean entries (two
    // do not pay for a segment, the third gives up the node as well) and the
    // view covers offset 0 next to the dirty entry that shadows it.
    page(&mut ssd, 0, Dir::Read);
    page(&mut ssd, 3, Dir::Read);
    assert_eq!(learned_state(&ssd), (1, 1, 0, 0, 0));
    ssd.flush().expect("flush");
    assert_eq!(learned_state(&ssd), (0, 1, 0, 0, 0));
    let dirty: u32 = ssd
        .ftl()
        .cached_tp_distribution()
        .iter()
        .map(|d| d.dirty)
        .sum();
    assert_eq!(dirty, 0);
    // The clean entry leaves without a write-back (the fourth read finds
    // the cache full again); the read after that misses, fits the flushed
    // page and finds the newer mapping, at two entries for a node of its own.
    for lpn in 1503..1508 {
        page(&mut ssd, lpn, Dir::Read);
    }
    assert!(ssd.ftl().peek_cached(ssd.env(), 0).unwrap().is_none());
    assert_eq!(learned_state(&ssd), (0, 5, 0, 0, 0));
    page(&mut ssd, 0, Dir::Read);
    assert_eq!(learned_state(&ssd), (0, 4, 0, 0, 0));
}

/// Stale-point discipline (c). Whatever changes a mapping behind a
/// segment's back (here: by hand, telling the FTL nothing) is a counted
/// mispredict, never a wrong PPN: the superseded copy is invalidated within
/// the page access that wrote the new one, so the stale prediction cannot
/// pass the OOB check.
#[test]
fn learned_ftl_stale_segment_is_a_counted_mispredict_never_a_wrong_ppn() {
    let mut c = SsdConfig::paper_default(8 << 20);
    c.cache_bytes = c.gtd_bytes() + 10 * 1024;
    c.prefill_frac = 0.5;
    let mut ftl = LearnedFtl::new(&c).expect("budget");
    let mut env = SsdEnv::new(c.clone()).expect("env");
    driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");
    let read = AccessCtx::single(false);
    driver::serve_page_access(&mut ftl, &mut env, 3, read).expect("fills region 0");
    let purpose = OpPurpose::Translation;
    let old = env.read_translation_entry(0, 7, purpose).expect("mapped");
    let new = env
        .program_data_page(7, OpPurpose::HostData)
        .expect("program");
    env.invalidate_page(old).expect("invalidate");
    env.update_translation_page(0, &[(7, new)], purpose)
        .expect("persist");

    assert_eq!(
        ftl.translate(&mut env, 7, &read).expect("translate"),
        Some(new)
    );
    assert_eq!((env.stats.mispredicts, env.stats.predict_hits), (1, 0));
    // The liar is excised, its neighbours are not.
    driver::serve_page_access(&mut ftl, &mut env, 7, read).expect("entry hit");
    driver::serve_page_access(&mut ftl, &mut env, 8, read).expect("predicted");
    assert_eq!((env.stats.mispredicts, env.stats.predict_hits), (1, 1));
}

//! Cross-FTL differential oracle: every FTL is a different implementation
//! of the *same* address-translation contract, so replaying one fixed-seed
//! mixed trace through DFTL, CDFTL, S-FTL, TPFTL, LearnedFTL, ZFTL, and
//! the Optimal pure-RAM baseline must produce identical read-your-writes
//! behaviour. A host-side shadow map (`HashMap<Lpn, u64>`, LPN → write
//! version) is the ground truth all seven are checked against — and then
//! against each other.

use std::collections::HashMap;

use tpftl_core::driver;
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Ftl, FtlKind, LearnedFtl};
use tpftl_core::{gc, SsdConfig};
use tpftl_flash::Lpn;
use tpftl_trace::{IoRequest, SyntheticSpec};

const PAGE_BYTES: u64 = 4096;

fn config() -> SsdConfig {
    let mut c = SsdConfig::paper_default(8 << 20);
    // Starve the cache so the demand-paging FTLs actually evict and fetch.
    c.cache_bytes = c.gtd_bytes() + 10 * 1024;
    c
}

fn ftls(c: &SsdConfig) -> Vec<Box<dyn Ftl>> {
    FtlKind::PERSISTING
        .into_iter()
        .chain([FtlKind::Zftl, FtlKind::Optimal])
        .map(|kind| -> Box<dyn Ftl> { kind.build(c).expect("budget") })
        .collect()
}

fn trace() -> Vec<IoRequest> {
    let spec = SyntheticSpec {
        requests: 2_000,
        address_bytes: 8 << 20,
        write_ratio: 0.6,
        mean_req_sectors: 16.0,
        ..SyntheticSpec::default()
    };
    spec.iter(1234).collect()
}

/// Replays the trace through one FTL, shadowing every write, then reads
/// back every logical page and returns the sorted list of mapped LPNs.
///
/// Every read inside the trace is already an oracle: the environment
/// verifies the out-of-band tag of the page the FTL translated to, so a
/// stale or cross-wired mapping fails the replay immediately.
fn replay(mut ftl: Box<dyn Ftl>, c: &SsdConfig, reqs: &[IoRequest]) -> (Vec<Lpn>, u64) {
    let name = ftl.name();
    let mut env = SsdEnv::new(c.clone()).expect("env");
    driver::bootstrap(ftl.as_mut(), &mut env).expect("bootstrap");

    // Host-side shadow of every acknowledged write: LPN → version.
    let mut shadow: HashMap<Lpn, u64> = HashMap::new();
    let prefilled = (c.logical_pages() as f64 * c.prefill_frac) as u64;
    for lpn in 0..prefilled as Lpn {
        shadow.insert(lpn, 0);
    }

    for req in reqs {
        let first = (req.offset / PAGE_BYTES) as Lpn;
        let count = req.page_count(PAGE_BYTES) as u32;
        driver::serve_request(ftl.as_mut(), &mut env, first, count, req.is_write())
            .unwrap_or_else(|e| panic!("{name}: serve failed: {e}"));
        if req.is_write() {
            for lpn in req.pages(PAGE_BYTES) {
                *shadow.entry(lpn as Lpn).or_insert(0) += 1;
            }
        }
    }

    // Read-your-writes sweep over the whole logical space: exactly the
    // shadowed LPNs must be mapped, and each must read back its own tag.
    let mut mapped = Vec::new();
    for lpn in 0..c.logical_pages() as Lpn {
        gc::ensure_free(ftl.as_mut(), &mut env).expect("gc");
        let ppn = ftl
            .translate(&mut env, lpn, &AccessCtx::single(false))
            .unwrap_or_else(|e| panic!("{name}: translate({lpn}) failed: {e}"));
        assert_eq!(
            ppn.is_some(),
            shadow.contains_key(&lpn),
            "{name}: LPN {lpn} mapped={} but shadow says written={}",
            ppn.is_some(),
            shadow.contains_key(&lpn)
        );
        if let Some(ppn) = ppn {
            env.read_data_page(ppn, lpn)
                .unwrap_or_else(|e| panic!("{name}: LPN {lpn} readback failed: {e}"));
            mapped.push(lpn);
        }
    }
    (mapped, shadow.len() as u64)
}

fn run_differential(c: &SsdConfig) {
    let reqs = trace();
    let mut results: Vec<(String, Vec<Lpn>, u64)> = Vec::new();
    for ftl in ftls(c) {
        let name = ftl.name();
        let (mapped, shadowed) = replay(ftl, c, &reqs);
        assert_eq!(
            mapped.len() as u64,
            shadowed,
            "{name}: mapped pages must equal shadowed writes"
        );
        results.push((name, mapped, shadowed));
    }
    // Differential step: all seven FTLs expose the identical logical state.
    let (ref_name, ref_mapped, _) = &results[0];
    for (name, mapped, _) in &results[1..] {
        assert_eq!(
            mapped, ref_mapped,
            "{name} and {ref_name} disagree on the set of readable pages"
        );
    }
    // And the trace must have actually mixed reads, writes, and overwrites.
    assert!(
        !ref_mapped.is_empty(),
        "trace wrote nothing — oracle is vacuous"
    );
}

#[test]
fn all_ftls_agree_on_read_your_writes() {
    run_differential(&config());
}

/// The same oracle under the multi-stream GC data plane: two hot/cold
/// streams plus windowed victim selection must not change read-your-writes
/// behaviour for any FTL — stream placement moves pages between blocks,
/// never between logical identities.
#[test]
fn all_ftls_agree_with_two_streams_and_windowed_gc() {
    let mut c = config();
    c.streams = tpftl_core::config::StreamCount(2);
    c.gc_policy = tpftl_core::config::GcPolicy::Windowed { window: 8 };
    run_differential(&c);
}

/// Adversarial trace for the learned mapping: a fully pre-filled device
/// (so warm-up learns the whole table) churned by overwrite-heavy traffic
/// that relocates pages, splits segments, and forces GC-batch refits over
/// scattered payloads. Stale or ε-inexact segments must surface as
/// *mispredicts* — validated rejections routed to the fallback — never as
/// a wrong answer: every read inside the replay and the final sweep
/// verifies the OOB tag of the page the FTL translated to.
#[test]
fn learned_ftl_overwrite_churn_mispredicts_safely() {
    let mut c = config();
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
    // Full read sweep: the environment panics on any OOB tag mismatch, so
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
        s.predict_hits > 0,
        "learned index never validated a prediction — the trace is vacuous"
    );
    assert!(
        s.mispredicts > 0,
        "overwrite churn produced no mispredicts — the adversarial trace \
         no longer exercises stale/inexact segments"
    );
}

//! Tier-1 guards for garbage collection in the unit clocks' background
//! lane: collections run in the device's idle time, host ops overtake
//! them, and none of that creates or loses flash work.
//!
//! 1. **GC-bound tails are gone.** On a short Financial1 TPFTL replay the
//!    p99 response must stay below the geometric mean of the two timing
//!    models' p99s: a foreground collection (every later request queued
//!    behind it) read 7 168 µs at 40 k requests, the lane reads 960 µs.
//! 2. **Work conservation.** With every request arriving at t = 0 the
//!    one-unit device is never idle, so the lane only runs when a host
//!    program forces it through an erase; every µs of flash work is either
//!    in the makespan or still queued.
//! 3. **Host programs do not wait on queued erases.** On a small, fully
//!    pre-filled device aged by Financial1's write mix, a host program
//!    into a block whose erase the lane has not placed forces the lane
//!    through it. Before collections got their own open blocks and took
//!    the newest free block, that happened on every few dozen requests.
//! 4. **Translation blocks are left to empty.** The collector takes a
//!    translation victim only at a third of the data head's valid pages,
//!    so on the same GC-bound Financial1 prefix a translation victim
//!    carries at most a third of a data victim's pages, and the lane still
//!    never makes a host program wait.
//! 5. **A collection pass writes a translation page back once.** On the
//!    same aged small device, the mapping updates of every data victim of
//!    one `gc::ensure_free` pass go out together, so the pages that miss
//!    the cache cost fewer than three translation writes per data victim.
//! 6. **LearnedFTL updates in batches.** On the same device, a dirty
//!    eviction or a GC write-back takes every dirty entry of its region
//!    along, so most of LearnedFTL's replacements find a clean victim.
//! 7. **A pass is as long as its device's translation pages ask.** On the
//!    512 MB Financial1 device (128 translation pages, 64 pages per
//!    block) the default pass collects up to 32 blocks past its trigger,
//!    so each translation page a pass writes back carries the moves of
//!    several victims.
//! 8. **A long pass picks its victims by age.** On the same device the
//!    default pick is windowed cost-benefit over 64 candidates, which
//!    passes over hot blocks still losing pages, so a longer Financial1
//!    replay writes less than greedy does, and wears its blocks no less
//!    evenly.

use tpftl_core::ftl::{Dftl, Ftl, LearnedFtl, TpFtl, TpftlConfig};
use tpftl_core::SsdConfig;
use tpftl_sim::{RunReport, Ssd};
use tpftl_trace::presets::Workload;
use tpftl_trace::IoRequest;

const REQUESTS: usize = 40_000;

fn replay(arrivals_at_zero: bool) -> RunReport {
    replay_with(tpftl, REQUESTS, arrivals_at_zero)
}

fn tpftl(config: &SsdConfig) -> TpFtl {
    TpFtl::new(config, TpftlConfig::full()).unwrap()
}

/// `ftl` replaying Financial1's first `requests` requests on its fully
/// pre-filled 512 MB device.
fn replay_with<F: Ftl>(
    build: impl Fn(&SsdConfig) -> F,
    requests: usize,
    arrivals_at_zero: bool,
) -> RunReport {
    let workload = Workload::Financial1;
    let mut config = SsdConfig::paper_default(workload.address_bytes());
    config.prefill_frac = 1.0;
    let mut ssd = Ssd::new(build(&config), config).unwrap();
    let trace = workload.spec(requests).iter(2015).map(|r| IoRequest {
        arrival_us: if arrivals_at_zero { 0.0 } else { r.arrival_us },
        ..r
    });
    let report = ssd.run(trace).unwrap();
    assert!(report.erase_count() > 400, "the replay must collect");
    report
}

#[test]
fn collections_leave_the_tail_to_the_host() {
    let sim = replay(false).sim;
    let bound = (960.0f64 * 7168.0).sqrt();
    assert!(
        sim.resp_p99_us < bound,
        "p99 {} µs: collections are back in front of the host (bound {bound:.0} µs)",
        sim.resp_p99_us
    );
    // What GC still costs the host is a small part of its response time.
    assert!(sim.gc_stall_us < 0.1 * sim.resp_avg_us * REQUESTS as f64);
}

#[test]
fn a_device_that_never_idles_places_or_queues_all_its_work() {
    let report = replay(true);
    let sim = report.sim;
    // Integer latencies: every sum here is exact.
    assert_eq!(
        sim.makespan_us + sim.gc_pending_us,
        report.flash.busy_us,
        "idle time appeared on a saturated device, or work was lost"
    );
    // Saturated, the lane ran only when the host reused an erased block.
    assert!(sim.gc_forced_drains > 0);
}

#[test]
fn translation_victims_carry_at_most_a_third_of_a_data_victims_pages() {
    let report = replay(false);
    let gc = &report.gc;
    assert!(
        gc.trans_victims > 0,
        "the replay must collect translation blocks"
    );
    // With one valid-count order over both classes this replay read 6.37
    // pages per translation victim and 7.58 per data victim.
    assert!(
        3.0 * gc.vt_mean() <= gc.vd_mean(),
        "{:.2} pages per translation victim against {:.2} per data victim",
        gc.vt_mean(),
        gc.vd_mean()
    );
    assert_eq!(report.sim.gc_forced_drains, 0);
}

/// `ftl` on a fully pre-filled 32 MB device replaying 60 000 requests of
/// Financial1's mix spread over the whole device.
fn aged_small_device<F: Ftl>(build: impl Fn(&SsdConfig) -> F) -> RunReport {
    let mut config = SsdConfig::paper_default(32 << 20);
    config.prefill_frac = 1.0;
    let mut ssd = Ssd::new(build(&config), config.clone()).unwrap();
    let mut spec = Workload::Financial1.spec(60_000);
    spec.address_bytes = config.logical_bytes;
    let report = ssd.run(spec.iter(2015)).unwrap();
    assert!(
        report.erase_count() > 3_000,
        "the replay must age the device"
    );
    report
}

#[test]
fn host_programs_stop_forcing_queued_erases() {
    let tpftl = aged_small_device(|c| TpFtl::new(c, TpftlConfig::full()).unwrap()).sim;
    let dftl = aged_small_device(|c| Dftl::new(c).unwrap()).sim;
    // With host and GC writes sharing open blocks and every block handed
    // out oldest first, this replay forced 1 263 drains under TPFTL (mean
    // response 1 106 µs) and 1 504 under DFTL (1 519 µs).
    for (name, sim, shared) in [("TPFTL", &tpftl, 1_263), ("DFTL", &dftl, 1_504)] {
        assert!(
            sim.gc_forced_drains < shared / 10,
            "{name}: {} forced drains",
            sim.gc_forced_drains
        );
    }
    assert!(
        tpftl.resp_avg_us < dftl.resp_avg_us,
        "TPFTL's mean response {} µs is not below DFTL's {} µs",
        tpftl.resp_avg_us,
        dftl.resp_avg_us
    );
}

#[test]
fn a_pass_writes_back_each_translation_page_once() {
    let tpftl = aged_small_device(|c| TpFtl::new(c, TpftlConfig::full()).unwrap());
    let dftl = aged_small_device(|c| Dftl::new(c).unwrap());
    // Written back per data victim, this replay read 4.81 (TPFTL) and 5.39
    // (DFTL) write-backs per data victim; once per pass, 1.38 and 1.63.
    for (name, report) in [("TPFTL", &tpftl), ("DFTL", &dftl)] {
        let per_victim = report.gc_miss_write_backs() as f64 / report.gc.data_victims as f64;
        assert!(
            per_victim < 3.0,
            "{name}: {per_victim:.2} GC-miss write-backs per data victim"
        );
    }
}

#[test]
fn a_long_pass_shares_its_write_backs_among_many_victims() {
    let tpftl = replay(false);
    let dftl = replay_with(|c| Dftl::new(c).unwrap(), REQUESTS, false);
    // With a pass stopping one block above its trigger this replay wrote
    // back 5.01 (TPFTL, 2 329 / 465) and 5.20 (DFTL, 2 411 / 464) GC-miss
    // pages per data victim; with the 512 MB device's pass of 32 blocks,
    // 2.69 (1 336 / 496) and 3.01 (1 436 / 477), and 2.73 (1 353 / 495)
    // and 3.01 (1 441 / 478) with its windowed pick. The bounds lie midway.
    for (name, report, bound) in [("TPFTL", &tpftl, 3.85), ("DFTL", &dftl, 4.1)] {
        let per_victim = report.gc_miss_write_backs() as f64 / report.gc.data_victims as f64;
        assert!(
            per_victim < bound,
            "{name}: {per_victim:.2} GC-miss write-backs per data victim"
        );
    }
}

#[test]
fn learned_ftl_writes_a_dirty_victims_region_back_with_it() {
    let report = aged_small_device(|c| LearnedFtl::new(c).unwrap());
    // With each dirty victim written back alone, 22 892 of this replay's
    // 26 142 replacements (0.876) were dirty; with its region's dirty
    // entries going back in the same write, 1 224 of 26 082 (0.047).
    let p = report.dirty_replacement_prob();
    assert!(p < 0.46, "{p:.3} of LearnedFTL's replacements were dirty");
}

#[test]
fn a_long_pass_picks_its_victims_by_age() {
    let report = replay_with(tpftl, 200_000, false);
    // Greedy read write amplification 1.531 on this replay, the 64-wide
    // window 1.417; the bound lies midway. At 40 k requests the two
    // differed by 0.2 %: the gain needs time for blocks to age.
    let wa = report.write_amplification();
    assert!(wa < 1.47, "write amplification {wa:.3}");
    // Nor may the pick buy that by wearing blocks less evenly. The window
    // reads erase-count CV 2.350 and a most-worn block at 26 erases,
    // greedy 2.571 and 36 (most blocks are not erased yet at 200 k
    // requests); each bound is the window's reading plus ~5 %.
    let cv = report.erase_cv();
    assert!(cv < 2.47, "erase-count CV {cv:.3}");
    assert!(
        report.erase_max <= 27,
        "most-worn block {}",
        report.erase_max
    );
}

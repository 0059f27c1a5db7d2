//! Cross-crate integration tests: trace generation -> simulation -> reports
//! across every FTL, plus end-to-end experiment pipeline smoke runs.

use tpftl::core::driver;
use tpftl::core::env::SsdEnv;
use tpftl::core::ftl::{
    AccessCtx, BlockLevelFtl, Dftl, Ftl, FtlKind, OptimalFtl, TpFtl, TpftlConfig,
};
use tpftl::core::SsdConfig;
use tpftl::sim::{CacheSampler, Ssd};
use tpftl::trace::{Dir, IoRequest, Locality, SyntheticSpec};

fn all_ftls(config: &SsdConfig) -> Vec<Box<dyn Ftl>> {
    [
        FtlKind::Optimal,
        FtlKind::Dftl,
        FtlKind::Sftl,
        FtlKind::Cdftl,
        FtlKind::Tpftl,
        FtlKind::variant(""),
    ]
    .into_iter()
    .map(|kind| -> Box<dyn Ftl> { kind.build(config).expect("budget") })
    .collect()
}

fn mixed_spec(requests: usize) -> SyntheticSpec {
    SyntheticSpec {
        name: "itest".into(),
        requests,
        address_bytes: 32 << 20,
        write_ratio: 0.7,
        seq_read_frac: 0.2,
        seq_write_frac: 0.1,
        mean_req_sectors: 10.0,
        locality: Locality {
            regions: 512,
            theta: 1.1,
            active_frac: 1.0,
        },
        mean_interarrival_us: 400.0,
        ..SyntheticSpec::default()
    }
}

/// Every FTL must serve the same workload without mapping corruption (the
/// environment panics on any read resolving to the wrong page) and then
/// resolve every written page correctly on a full read-back pass.
#[test]
fn all_ftls_preserve_host_data() {
    let mut config = SsdConfig::paper_default(32 << 20);
    // S-FTL/CDFTL need at least one whole translation page of cache.
    config.cache_bytes = config.gtd_bytes() + 10 * 1024;
    let trace: Vec<IoRequest> = mixed_spec(20_000).generate(99);
    // Oracle of what was written.
    let mut written = vec![false; config.logical_pages() as usize];
    for r in &trace {
        if r.is_write() {
            for p in r.pages(4096) {
                written[p as usize] = true;
            }
        }
    }

    for mut ftl in all_ftls(&config) {
        let mut env = SsdEnv::new(config.clone()).expect("env");
        driver::bootstrap(ftl.as_mut(), &mut env).expect("bootstrap");
        for r in &trace {
            let first = (r.offset / 4096) as u32;
            driver::serve_request(
                ftl.as_mut(),
                &mut env,
                first,
                r.page_count(4096) as u32,
                r.is_write(),
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", ftl.name()));
        }
        // Read-back: every written page resolves (and the env verifies the
        // physical page actually holds that LPN). Run the GC check the
        // driver normally performs: cold-miss writebacks consume pages.
        for (lpn, &w) in written.iter().enumerate() {
            tpftl::core::gc::ensure_free(ftl.as_mut(), &mut env).expect("gc");
            let got = ftl
                .translate(&mut env, lpn as u32, &AccessCtx::single(false))
                .expect("translate");
            if w {
                let ppn = got.unwrap_or_else(|| panic!("{}: written LPN {lpn} lost", ftl.name()));
                env.read_data_page(ppn, lpn as u32)
                    .expect("consistent mapping");
            } else {
                assert!(got.is_none(), "{}: unwritten LPN {lpn} mapped", ftl.name());
            }
        }
    }
}

/// The block-level FTL preserves data too (it uses a different write path).
#[test]
fn block_level_ftl_preserves_host_data() {
    let config = SsdConfig::paper_default(16 << 20);
    let mut ftl = BlockLevelFtl::new(&config);
    let mut env = SsdEnv::new(config.clone()).expect("env");
    driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");
    let trace = SyntheticSpec {
        requests: 3_000,
        address_bytes: 16 << 20,
        ..mixed_spec(3_000)
    }
    .generate(5);
    let mut written = vec![false; config.logical_pages() as usize];
    for r in &trace {
        let first = (r.offset / 4096) as u32;
        driver::serve_request(
            &mut ftl,
            &mut env,
            first,
            r.page_count(4096) as u32,
            r.is_write(),
        )
        .expect("serve");
        if r.is_write() {
            for p in r.pages(4096) {
                written[p as usize] = true;
            }
        }
    }
    for (lpn, &w) in written.iter().enumerate() {
        let got = ftl
            .translate(&mut env, lpn as u32, &AccessCtx::single(false))
            .unwrap();
        if w {
            env.read_data_page(got.expect("mapped"), lpn as u32)
                .expect("consistent");
        }
    }
}

/// Same seed, same FTL -> bit-identical reports; and the optimal FTL is a
/// true lower bound on response time and erases.
#[test]
fn determinism_and_optimal_lower_bound() {
    let config = SsdConfig::paper_default(32 << 20);
    let spec = mixed_spec(15_000);
    let run = |seed: u64, full: bool| {
        let cfg = TpftlConfig {
            ..if full {
                TpftlConfig::full()
            } else {
                TpftlConfig::baseline()
            }
        };
        let ftl = TpFtl::new(&config, cfg).expect("budget");
        Ssd::new(ftl, config.clone())
            .expect("ssd")
            .run(spec.iter(seed))
            .expect("run")
    };
    assert_eq!(run(1, true), run(1, true));

    let optimal = {
        let ftl = OptimalFtl::new(&config);
        Ssd::new(ftl, config.clone())
            .expect("ssd")
            .run(spec.iter(1))
            .expect("run")
    };
    let tpftl = run(1, true);
    assert!(optimal.sim.resp_avg_us <= tpftl.sim.resp_avg_us);
    assert!(optimal.erase_count() <= tpftl.erase_count());
    assert!(optimal.write_amplification() <= tpftl.write_amplification() + 1e-9);
}

/// The paper's headline ordering on a Financial1-like workload: TPFTL beats
/// DFTL and S-FTL on every Figure 6 metric; everything beats block-level.
#[test]
fn headline_ordering_holds() {
    use tpftl::experiments::runner::{device_config, run_one, Scale};
    use tpftl::trace::presets::Workload;

    let w = Workload::Financial1;
    let config = device_config(w);
    let scale = Scale(0.01); // 20k requests
    let dftl = run_one(FtlKind::Dftl, w, scale, &config).expect("dftl");
    let sftl = run_one(FtlKind::Sftl, w, scale, &config).expect("sftl");
    let tpftl = run_one(FtlKind::Tpftl, w, scale, &config).expect("tpftl");

    assert!(tpftl.dirty_replacement_prob() < dftl.dirty_replacement_prob());
    assert!(tpftl.dirty_replacement_prob() < sftl.dirty_replacement_prob());
    assert!(tpftl.hit_ratio() > dftl.hit_ratio());
    assert!(tpftl.translation_writes() < dftl.translation_writes());
    assert!(tpftl.translation_reads() < dftl.translation_reads());
    assert!(tpftl.write_amplification() < dftl.write_amplification());
    assert!(tpftl.erase_count() < dftl.erase_count());
}

/// Sampler + parser + simulator pipeline: write a trace to disk in MSR
/// format, parse it back, replay it with sampling attached.
#[test]
fn disk_roundtrip_with_sampling() {
    let spec = mixed_spec(5_000);
    let trace = spec.generate(3);
    let mut buf = Vec::new();
    tpftl::trace::parse::write_msr(&mut buf, &trace).expect("write");
    let parsed = tpftl::trace::parse::parse_msr(&buf[..]).expect("parse");
    assert_eq!(parsed.len(), trace.len());

    let config = SsdConfig::paper_default(32 << 20);
    let ftl = Dftl::new(&config).expect("budget");
    let mut ssd = Ssd::new(ftl, config)
        .expect("ssd")
        .with_sampler(CacheSampler::new(1_000));
    let report = ssd.run(parsed).expect("run");
    assert_eq!(report.ftl_stats.requests, 5_000);
    let sampler = ssd.take_sampler().expect("attached");
    assert!(!sampler.samples.is_empty());
}

/// Experiment outputs persist valid JSON.
#[test]
fn experiment_pipeline_persists_json() {
    use tpftl::experiments::runner::Scale;
    let dir = std::env::temp_dir().join("tpftl_itest_results");
    let out = tpftl::experiments::table2::run(Scale(0.00002));
    let path = out.persist(&dir).expect("persist");
    let text = std::fs::read_to_string(&path).expect("read back");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid json");
    assert!(parsed.is_array());
    std::fs::remove_dir_all(&dir).ok();
}

/// Writing with a cache of the bare minimum size must still be correct
/// (every access evicts), exercising constant cache pressure.
#[test]
fn minimum_cache_still_correct() {
    let mut config = SsdConfig::paper_default(16 << 20);
    config.cache_bytes = config.gtd_bytes() + 64; // a handful of entries
    let mut env = SsdEnv::new(config.clone()).expect("env");
    let mut ftl = TpFtl::new(&config, TpftlConfig::full()).expect("budget");
    driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");
    for i in 0..5_000u32 {
        let lpn = (i * 797) % 4096;
        driver::serve_page_access(&mut ftl, &mut env, lpn, AccessCtx::single(i % 2 == 0))
            .expect("serve");
        assert!(ftl.cache_bytes_used() <= 64);
    }
    // Re-read a few hot pages.
    for lpn in (0..4096u32).step_by(797) {
        let _ = ftl
            .translate(&mut env, lpn, &AccessCtx::single(false))
            .expect("translate");
    }
}

/// Read-only traffic leaves flash writes at zero for demand FTLs on a
/// formatted (never-written) device.
#[test]
fn read_only_workload_writes_nothing() {
    let config = SsdConfig::paper_default(16 << 20);
    let ftl = TpFtl::new(&config, TpftlConfig::full()).expect("budget");
    let mut ssd = Ssd::new(ftl, config).expect("ssd");
    for i in 0..2_000u32 {
        ssd.serve(&IoRequest::new(
            i as f64 * 100.0,
            (i as u64 * 7919) % (15 << 20),
            4096,
            Dir::Read,
        ))
        .expect("serve");
    }
    let r = ssd.report();
    assert_eq!(r.ftl_stats.user_page_writes, 0);
    assert_eq!(r.flash.total_writes(), 0, "clean entries never write back");
    assert_eq!(r.write_amplification(), 0.0);
}

//! Flush / unmount / remount integration tests: the full power-cycle story
//! for every demand-paging FTL.

use tpftl_core::driver;
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Dftl, Ftl, FtlKind, TpFtl, TpftlConfig};
use tpftl_core::{gc, recovery, SsdConfig};

fn config() -> SsdConfig {
    let mut c = SsdConfig::paper_default(16 << 20);
    c.cache_bytes = c.gtd_bytes() + 10 * 1024;
    c
}

fn ftls(c: &SsdConfig) -> Vec<Box<dyn Ftl>> {
    [
        FtlKind::Dftl,
        FtlKind::Tpftl,
        FtlKind::variant(""),
        FtlKind::Sftl,
        FtlKind::Cdftl,
    ]
    .into_iter()
    .map(|kind| -> Box<dyn Ftl> { kind.build(c).expect("budget") })
    .collect()
}

fn workload(ftl: &mut dyn Ftl, env: &mut SsdEnv, n: u32) -> Vec<u32> {
    let mut written = Vec::new();
    for i in 0..n {
        let lpn = (i.wrapping_mul(2654435761) >> 12) % 4096;
        let write = i % 4 != 3;
        driver::serve_page_access(ftl, env, lpn, AccessCtx::single(write)).expect("serve");
        if write {
            written.push(lpn);
        }
    }
    written.sort_unstable();
    written.dedup();
    written
}

/// After `flush_cache`, the on-flash mapping table alone describes every
/// valid data page (the `verify` oracle), for each FTL.
#[test]
fn flush_persists_every_dirty_mapping() {
    let c = config();
    for mut ftl in ftls(&c) {
        let mut env = SsdEnv::new(c.clone()).expect("env");
        driver::bootstrap(ftl.as_mut(), &mut env).expect("bootstrap");
        let written = workload(ftl.as_mut(), &mut env, 8_000);
        recovery::flush_cache(ftl.as_mut(), &mut env)
            .unwrap_or_else(|e| panic!("{} flush failed: {e}", ftl.name()));
        let report = recovery::verify(&env);
        report.assert_clean();
        assert_eq!(
            report.mapped_entries,
            written.len() as u64,
            "{}: persisted table must reference exactly the written pages",
            ftl.name()
        );
    }
}

/// Full power cycle: run, flush, drop all RAM state, remount, and serve
/// the data back with a *different* FTL (the on-flash format is shared).
#[test]
fn power_cycle_roundtrip_across_ftls() {
    let c = config();
    let mut env = SsdEnv::new(c.clone()).expect("env");
    let mut tpftl = TpFtl::new(&c, TpftlConfig::full()).expect("budget");
    driver::bootstrap(&mut tpftl, &mut env).expect("bootstrap");
    let written = workload(&mut tpftl, &mut env, 10_000);
    recovery::flush_cache(&mut tpftl, &mut env).expect("flush");

    // Power cycle: only the flash array survives.
    let flash = env.into_flash();
    drop(tpftl);
    let (mut env2, _) = recovery::crash_mount(flash, c.clone()).expect("mount");
    recovery::verify(&env2).assert_clean();

    // A cold DFTL mounts the same on-flash state.
    let mut dftl = Dftl::new(&c).expect("budget");
    for &lpn in &written {
        gc::ensure_free(&mut dftl, &mut env2).expect("gc");
        let ppn = dftl
            .translate(&mut env2, lpn, &AccessCtx::single(false))
            .expect("translate")
            .unwrap_or_else(|| panic!("LPN {lpn} lost across the power cycle"));
        env2.read_data_page(ppn, lpn).expect("consistent");
    }
    // And can keep writing.
    for i in 0..2_000u32 {
        driver::serve_page_access(&mut dftl, &mut env2, i % 4096, AccessCtx::single(true))
            .expect("serve after remount");
    }
}

/// The one mount path on a cleanly flushed device: `crash_mount` elects no
/// duplicates, repairs nothing, rewrites nothing, visits each translation
/// page exactly once and brings the GTD back entry for entry — for every
/// mapping-persisting FTL. (This is what a separate clean-shutdown mount
/// would have computed; it is why there is none.)
#[test]
fn crash_mount_of_a_flushed_device_repairs_nothing() {
    let c = config();
    for kind in FtlKind::PERSISTING {
        let name = kind.label();
        let mut ftl = kind.build(&c).expect("budget");
        let mut env = SsdEnv::new(c.clone()).expect("env");
        driver::bootstrap(ftl.as_mut(), &mut env).expect("bootstrap");
        let _ = workload(ftl.as_mut(), &mut env, 8_000);
        recovery::flush_cache(ftl.as_mut(), &mut env).expect("flush");
        let gtd = |env: &SsdEnv| -> Vec<_> {
            (0..c.num_vtpns() as u32)
                .map(|v| env.gtd().get(v))
                .collect()
        };
        let gtd_before = gtd(&env);

        let flash = env.into_flash();
        drop(ftl);
        let (env2, report) = recovery::crash_mount(flash, c.clone()).expect("mount");
        assert_eq!(report.duplicate_data_discarded, 0, "{name}");
        assert_eq!(report.duplicate_translation_discarded, 0, "{name}");
        assert_eq!(report.mappings_recovered, 0, "{name}");
        assert_eq!(report.stale_cleared, 0, "{name}");
        assert_eq!(report.translation_pages_rewritten, 0, "{name}");
        assert_eq!(report.reconcile_visits, c.num_vtpns(), "{name}");
        assert_eq!(gtd(&env2), gtd_before, "{name}: GTD must survive the cycle");
        recovery::verify(&env2).assert_clean();
    }
}

/// Remount preserves wear counters (the manager re-seeds from the flash
/// erase counts) and keeps GC operational.
#[test]
fn remount_preserves_wear_and_gc_works() {
    let c = config();
    let mut env = SsdEnv::new(c.clone()).expect("env");
    let mut ftl = TpFtl::new(&c, TpftlConfig::full()).expect("budget");
    driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");
    // Churn until GC has erased a fair number of blocks.
    for i in 0..30_000u32 {
        driver::serve_page_access(&mut ftl, &mut env, i % 1024, AccessCtx::single(true))
            .expect("serve");
    }
    let erases_before = env.flash().total_erase_count();
    assert!(erases_before > 0, "workload must have triggered GC");
    recovery::flush_cache(&mut ftl, &mut env).expect("flush");

    let flash = env.into_flash();
    let (mut env2, _) = recovery::crash_mount(flash, c.clone()).expect("mount");
    assert_eq!(env2.flash().total_erase_count(), erases_before);
    // Keep writing through a fresh FTL: GC must keep functioning.
    let mut ftl2 = TpFtl::new(&c, TpftlConfig::full()).expect("budget");
    for i in 0..30_000u32 {
        driver::serve_page_access(&mut ftl2, &mut env2, i % 1024, AccessCtx::single(true))
            .expect("serve after remount");
    }
    assert!(env2.flash().total_erase_count() > erases_before);
    recovery::flush_cache(&mut ftl2, &mut env2).expect("flush");
    recovery::verify(&env2).assert_clean();
}

/// Flushing twice is idempotent: the second flush writes nothing.
#[test]
fn flush_is_idempotent() {
    let c = config();
    let mut env = SsdEnv::new(c.clone()).expect("env");
    let mut ftl = TpFtl::new(&c, TpftlConfig::full()).expect("budget");
    driver::bootstrap(&mut ftl, &mut env).expect("bootstrap");
    let _ = workload(&mut ftl, &mut env, 5_000);
    recovery::flush_cache(&mut ftl, &mut env).expect("first flush");
    let writes = env.flash().stats().total_writes();
    recovery::flush_cache(&mut ftl, &mut env).expect("second flush");
    assert_eq!(
        env.flash().stats().total_writes(),
        writes,
        "second flush is a no-op"
    );
}

/// A supersede mirrors two records to the device file: the new page's
/// program, then the old page's invalidate marker. An image cut between
/// the two (a `SIGKILL` there; the kill-9 harness and `file_differential`
/// only ever stop *at* a program or erase) holds two valid copies of the
/// translation page, and `crash_mount` must elect the newer one by its
/// sequence stamp — nothing to reconcile, the old copy retired.
#[test]
fn image_cut_between_supersede_records_elects_the_newer_copy() {
    use tpftl_flash::media::page_record_range;
    use tpftl_flash::{Flash, OpPurpose, PageState};

    let c = SsdConfig::paper_default(4 << 20);
    let geom = c.geometry();
    let path = std::env::temp_dir().join(format!("tpftl_supersede_cut_{}.img", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let flash = Flash::create_file(geom.clone(), &path).expect("create image");
    let mut env = SsdEnv::with_flash(c.clone(), flash).expect("env");
    env.format().expect("format");

    let lpn = 5;
    let data = env
        .program_data_page(lpn, OpPurpose::HostData)
        .expect("data page");
    let old = env.gtd().get(0).expect("formatted");
    let before = std::fs::read(&path).expect("image before the supersede");
    env.update_translation_page(0, &[(lpn as u16, data)], OpPurpose::Translation)
        .expect("read-modify-write");
    let new = env.gtd().get(0).expect("still mapped");
    assert_ne!(old, new);
    drop(env);

    // The invalidate marker is the only write the supersede makes inside
    // `old`'s record, so putting that record back is the cut image.
    let mut image = std::fs::read(&path).expect("image after the supersede");
    let (off, len) = page_record_range(&geom, old);
    let range = off as usize..(off + len) as usize;
    image[range.clone()].copy_from_slice(&before[range]);
    std::fs::write(&path, &image).expect("write the cut image");

    let flash = Flash::open_file(&path).expect("cut image mounts");
    assert_eq!(flash.state(old).unwrap(), PageState::Valid);
    assert_eq!(flash.state(new).unwrap(), PageState::Valid);
    assert!(flash.program_seq(new) > flash.program_seq(old));
    let (env, report) = recovery::crash_mount(flash, c).expect("crash mount");
    assert_eq!(report.duplicate_translation_discarded, 1);
    assert_eq!(
        report.translation_pages_rewritten, 0,
        "newer copy was current"
    );
    assert_eq!(env.gtd().get(0), Some(new));
    assert_eq!(env.flash().state(old).unwrap(), PageState::Invalid);
    assert_eq!(recovery::lookup(&env, lpn), Some(data));
    recovery::verify(&env).assert_clean();
    let _ = std::fs::remove_file(&path);
}

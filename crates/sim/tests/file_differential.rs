//! File-backed vs RAM-backed differential test.
//!
//! The file backing is a *mirror*: attaching it must not change a single
//! observable bit of device behaviour. For all six FTLs, the same
//! fixed-seed trace replayed on a RAM device and on a file-backed device
//! must produce bit-identical run reports (op counters, response-time
//! float bits, golden fingerprints ride on these), bit-identical flash
//! state — and, after a full power cycle of the file-backed device
//! (reopened purely from media), bit-identical remount outcomes.
//!
//! A second sweep compares the crash harness's RAM path against its
//! file-backed path under injected power loss for the five
//! mapping-persisting FTLs: `CrashOutcome`s must match exactly.

use std::path::PathBuf;

use tpftl_core::ftl::{Ftl, FtlKind};
use tpftl_core::{recovery, SsdConfig};
use tpftl_flash::{Flash, Lpn};
use tpftl_sim::{CrashHarness, Ssd};

fn harness() -> CrashHarness {
    CrashHarness::starved(300, 42)
}

fn ftls(c: &SsdConfig) -> Vec<Box<dyn Ftl>> {
    FtlKind::PERSISTING
        .into_iter()
        .chain([FtlKind::Optimal])
        .map(|kind| -> Box<dyn Ftl> { kind.build(c).expect("budget") })
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("tpftl_diff_{}_{name}.img", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Clean replay: reports, flash state, and post-power-cycle remount
/// outcomes are bit-identical between RAM and file backing, for all six
/// FTLs (Optimal included — it persists no translation pages, and its
/// mirrored data pages must still round-trip).
#[test]
fn file_backing_is_bit_identical_to_ram_for_all_ftls() {
    let h = harness();
    let (c, reqs) = (h.config.clone(), &h.trace);
    for (ram_ftl, file_ftl) in ftls(&c).into_iter().zip(ftls(&c)) {
        let name = ram_ftl.name();
        let path = temp_path(&name.replace(['(', ')', '-'], "_"));

        let mut ram_ssd = Ssd::new(ram_ftl, c.clone()).expect("ram ssd");
        let ram_report = ram_ssd.run(reqs.iter().cloned()).expect("ram run");

        let flash = Flash::create_file(c.geometry(), &path).expect("create");
        let mut file_ssd = Ssd::with_flash(file_ftl, c.clone(), flash).expect("file ssd");
        let file_report = file_ssd.run(reqs.iter().cloned()).expect("file run");

        // Op counters, golden-fingerprint inputs, response-time float
        // bits: the mirror must cost zero observable behaviour.
        assert_eq!(ram_report, file_report, "{name}: run reports diverge");
        assert_eq!(
            serde_json::to_string(&ram_report).expect("json"),
            serde_json::to_string(&file_report).expect("json"),
            "{name}: serialized reports diverge"
        );

        let ram_flash = ram_ssd.into_env().into_flash();
        let file_flash_live = file_ssd.into_env().into_flash();
        let live_valid: Vec<_> = file_flash_live.scan_valid().collect();
        assert_eq!(
            ram_flash.scan_valid().collect::<Vec<_>>(),
            live_valid,
            "{name}: live flash state diverges"
        );

        // Power cycle the file-backed device: drop every byte of RAM
        // state, reopen from media alone.
        drop(file_flash_live);
        let file_flash = Flash::open_file(&path).expect("reopen");
        assert_eq!(
            ram_flash.scan_valid().collect::<Vec<_>>(),
            file_flash.scan_valid().collect::<Vec<_>>(),
            "{name}: remounted flash state diverges"
        );

        // Remount outcomes: recovery reports, verify reports, and every
        // persisted lookup must agree bit for bit.
        let (ram_env, ram_rec) = recovery::crash_mount(ram_flash, c.clone()).expect("ram mount");
        let (file_env, file_rec) =
            recovery::crash_mount(file_flash, c.clone()).expect("file mount");
        assert_eq!(ram_rec, file_rec, "{name}: recovery reports diverge");
        assert_eq!(
            recovery::verify(&ram_env),
            recovery::verify(&file_env),
            "{name}: verify reports diverge"
        );
        for lpn in 0..c.logical_pages() as Lpn {
            assert_eq!(
                recovery::lookup(&ram_env, lpn),
                recovery::lookup(&file_env, lpn),
                "{name}: persisted lookup of LPN {lpn} diverges"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Injected power loss: the crash harness's file-backed path (full power
/// cycle through the device file) must reach the exact same
/// `CrashOutcome` as its RAM path, across FTLs and crash points.
#[test]
fn crash_outcomes_match_between_ram_and_file_paths() {
    let h = harness();
    let dir = std::env::temp_dir();
    for kind in FtlKind::PERSISTING {
        let key = kind.label();
        let build = || kind.build(&h.config).expect("budget");
        let ops = h.baseline_ops(build()).expect("baseline");
        let points = [ops / 5, ops / 2, 4 * ops / 5, u64::MAX];
        let ram = h.sweep(build, &points, None, None).expect("ram runs");
        let file = h
            .sweep(build, &points, Some(&dir), None)
            .expect("file runs");
        for ((at, ram), file) in points.iter().zip(&ram).zip(&file) {
            assert_eq!(ram, file, "{key}: outcomes diverge at op {at}");
            ram.assert_durable();
        }
    }
}

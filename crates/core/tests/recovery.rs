//! Flush / unmount / remount: the full power-cycle story for every
//! demand-paging FTL, told by the simulation tester's end-of-case checks.

use tpftl_core::env::SsdEnv;
use tpftl_core::{recovery, SsdConfig};
use tpftl_sim::tester::{check, Case};

const PERSISTING: [&str; 6] = ["dftl", "tpftl", "tpftl:-", "sftl", "cdftl", "learned"];

/// After a flush the on-flash table alone describes every valid data page,
/// and references exactly the written ones.
#[test]
fn flush_persists_every_dirty_mapping() {
    let mut base = Case::plain(8);
    (base.write_ratio, base.sectors) = (0.75, 8.0);
    for ftl in PERSISTING {
        check(&Case { ftl, ..base });
    }
}

/// Run, flush, drop all RAM state, remount, and serve the data back with a
/// *different* FTL (the on-flash format is shared), which keeps writing.
#[test]
fn power_cycle_roundtrip_across_ftls() {
    let mut case = Case::plain(10);
    case.prefill = 0.6;
    check(&case);
}

/// `crash_mount` of a flushed device elects no duplicates, repairs
/// nothing, visits each translation page once and brings the GTD back.
#[test]
fn crash_mount_of_a_flushed_device_repairs_nothing() {
    let mut base = Case::plain(80);
    base.prefill = 0.6;
    for ftl in PERSISTING {
        check(&Case { ftl, ..base });
    }
}

/// Remount keeps the erase counters, and GC keeps working after it.
#[test]
fn remount_preserves_wear_and_gc_works() {
    let mut base = Case::plain(30);
    (base.write_ratio, base.prefill) = (0.9, 0.8);
    check(&base);
}

/// A second flush writes no translation page, unless its own GC ran and
/// dirtied cached entries.
#[test]
fn flush_is_idempotent() {
    let mut case = Case::plain(5);
    case.ftl = "tpftl:rs";
    check(&case);
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

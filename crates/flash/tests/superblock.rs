//! Superblock election and file-backing roundtrip tests.
//!
//! The property test drives mount-time election with random
//! (sequence, corruption) pairs across both superblock copies: the mount
//! must always elect the newest valid copy, fall back to the surviving
//! copy when one is corrupt, and fail with a *typed* error — never a
//! panic — when both are.

use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use tpftl_flash::media::{self, Superblock, SUPERBLOCK_BYTES};
use tpftl_flash::{
    Flash, FlashError, FlashGeometry, FlashTopology, MediaError, OpPurpose, PageState,
};
use tpftl_rng::Rng64;

fn geom() -> FlashGeometry {
    FlashGeometry {
        page_bytes: 512,
        pages_per_block: 8,
        num_blocks: 4,
        read_us: 25.0,
        write_us: 200.0,
        erase_us: 1500.0,
        topology: FlashTopology::default(),
    }
}

fn temp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("tpftl_sb_{}_{name}.img", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Exercises every mirrored transition on a file-backed device, then
/// reopens the file and checks the reconstructed device equals the RAM
/// state (which a detached `clone()` snapshots).
#[test]
fn file_roundtrip_reconstructs_device() {
    let path = temp_path("roundtrip");
    let g = geom();
    let entries = g.page_bytes / 4;
    let mut f = Flash::create_file(g.clone(), &path).expect("create");
    assert!(f.has_backing());
    assert_eq!(f.backing_path(), Some(path.as_path()));

    // Data pages, a translation page, an RMW supersede, invalidations, erase.
    for i in 0..6u32 {
        f.program_page(i, 100 + i, OpPurpose::HostData)
            .expect("program");
    }
    let payload: Vec<u32> = (0..entries as u32).collect();
    f.program_translation_page(6, 7, &payload, OpPurpose::Translation)
        .expect("tp");
    f.supersede_translation_page(7, 7, 6, &[(3, 999)], OpPurpose::Translation)
        .expect("rmw");
    f.invalidate(0).expect("invalidate");
    f.invalidate(1).expect("invalidate");
    // Fill + drain block 1, then erase it (erase clears OOBs + bumps the
    // persistent erase counter).
    for i in 8..16u32 {
        f.program_page(i, 200 + i, OpPurpose::HostData)
            .expect("program");
        f.invalidate(i).expect("invalidate");
    }
    f.erase_block(1, OpPurpose::GcData).expect("erase");
    f.program_page(8, 42, OpPurpose::HostData)
        .expect("program after erase");
    f.sync_backing().expect("sync");

    let snapshot = f.clone(); // detached RAM snapshot
    assert!(!snapshot.has_backing());
    drop(f);

    let r = Flash::open_file(&path).expect("open");
    assert_eq!(r.geometry(), &g);
    for ppn in 0..g.total_pages() as u32 {
        assert_eq!(
            r.state(ppn).expect("state"),
            snapshot.state(ppn).expect("state"),
            "state of ppn {ppn}"
        );
        if r.state(ppn).unwrap() != PageState::Free {
            assert_eq!(
                r.program_seq(ppn),
                snapshot.program_seq(ppn),
                "seq of ppn {ppn}"
            );
        }
    }
    let got: Vec<_> = r.scan_valid().collect();
    let want: Vec<_> = snapshot.scan_valid().collect();
    assert_eq!(got, want, "valid pages (ppn, tag, is_tp)");
    assert_eq!(
        r.peek_translation_payload(7).expect("payload"),
        snapshot.peek_translation_payload(7).expect("payload")
    );
    for b in 0..g.num_blocks as u32 {
        assert_eq!(r.erase_count(b).unwrap(), snapshot.erase_count(b).unwrap());
        assert_eq!(r.next_free_ppn(b), snapshot.next_free_ppn(b));
        assert_eq!(
            r.valid_pages_in(b).unwrap(),
            snapshot.valid_pages_in(b).unwrap()
        );
    }
    // The reopened device keeps programming where the old one stopped.
    let mut r = r;
    let next = r.next_free_ppn(1).expect("free page");
    r.program_page(next, 77, OpPurpose::HostData)
        .expect("program");
    assert!(r.program_seq(next) > snapshot.program_seq(8));

    let _ = std::fs::remove_file(&path);
}

/// The election property: random sequence numbers and random corruption
/// on both copies; the mount elects the newest valid copy or fails typed.
#[test]
fn election_elects_newest_valid_or_fails_typed() {
    let path = temp_path("election");
    let g = geom();
    let mut rng = Rng64::seed_from_u64(0xE1EC);
    for trial in 0..300 {
        // A fresh, never-programmed device image.
        drop(Flash::create_file(g.clone(), &path).expect("create"));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .expect("open raw");

        let seq_a = rng.below(16);
        let seq_b = rng.below(16);
        let corrupt_a = rng.gen_bool(0.4);
        let corrupt_b = rng.gen_bool(0.4);
        let mut copies = Vec::new();
        for (slot, seq, corrupt) in [(0u64, seq_a, corrupt_a), (1, seq_b, corrupt_b)] {
            let mut enc = Superblock {
                geometry: g.clone(),
                sb_seq: seq,
                mounts: seq,
            }
            .encode();
            if corrupt {
                // Any flip within the checksummed head (96 B) or the CRC
                // itself (8 B) must invalidate the copy.
                let off = rng.range_usize(0, 104);
                enc[off] ^= 1 << rng.below(8) as u8;
            }
            file.write_all_at(&enc, slot * SUPERBLOCK_BYTES as u64)
                .expect("write sb");
            copies.push(enc);
        }
        // The pure election over the raw bytes...
        let elected = media::elect(&copies[0], &copies[1]);
        match (corrupt_a, corrupt_b) {
            (false, false) => {
                let (slot, w) = elected.expect("both valid");
                assert_eq!(w.sb_seq, seq_a.max(seq_b), "trial {trial}");
                assert_eq!(slot, usize::from(seq_b > seq_a), "trial {trial}");
            }
            (false, true) => {
                let (slot, w) = elected.expect("copy 0 valid");
                assert_eq!((slot, w.sb_seq), (0, seq_a), "trial {trial}");
            }
            (true, false) => {
                let (slot, w) = elected.expect("copy 1 valid");
                assert_eq!((slot, w.sb_seq), (1, seq_b), "trial {trial}");
            }
            (true, true) => {
                assert_eq!(elected, Err(MediaError::NoValidSuperblock), "trial {trial}");
            }
        }
        // ...and the full mount must agree (and never panic).
        drop(file);
        match Flash::open_file(&path) {
            Ok(f) => {
                assert!(
                    !(corrupt_a && corrupt_b),
                    "trial {trial}: mounted a device with two corrupt superblocks"
                );
                assert_eq!(f.geometry(), &g);
            }
            Err(FlashError::Media(MediaError::NoValidSuperblock)) => {
                assert!(corrupt_a && corrupt_b, "trial {trial}: valid copy rejected");
            }
            Err(e) => panic!("trial {trial}: unexpected error {e}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Every mount bumps the monotonic sequence into the *alternate* copy, so
/// a torn superblock write can never take out the only valid copy.
#[test]
fn mount_stamp_alternates_copies_monotonically() {
    let path = temp_path("alternate");
    let g = geom();
    drop(Flash::create_file(g.clone(), &path).expect("create"));
    let mut last_seq = 0u64;
    for mount in 1..=6u64 {
        drop(Flash::open_file(&path).expect("open"));
        let file = OpenOptions::new().read(true).open(&path).expect("raw");
        let mut a = vec![0u8; SUPERBLOCK_BYTES];
        let mut b = vec![0u8; SUPERBLOCK_BYTES];
        file.read_exact_at(&mut a, 0).expect("read");
        file.read_exact_at(&mut b, SUPERBLOCK_BYTES as u64)
            .expect("read");
        let (slot, w) = media::elect(&a, &b).expect("elect");
        assert_eq!(w.sb_seq, mount, "seq bumps once per mount");
        assert_eq!(w.mounts, mount);
        assert_eq!(slot as u64, mount % 2, "copies alternate");
        assert!(w.sb_seq > last_seq);
        last_seq = w.sb_seq;
    }
    let _ = std::fs::remove_file(&path);
}

/// Structural failures are typed: a truncated image, a future layout
/// version, and a missing file all surface as `FlashError::Media`.
#[test]
fn structural_failures_are_typed() {
    let g = geom();
    // Missing file.
    let missing = temp_path("missing");
    match Flash::open_file(&missing) {
        Err(FlashError::Media(MediaError::Io(_))) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
    // Truncated image: superblocks valid, file too short.
    let path = temp_path("truncated");
    drop(Flash::create_file(g.clone(), &path).expect("create"));
    let full = media::device_file_len(&g);
    let file = OpenOptions::new().write(true).open(&path).expect("raw");
    file.set_len(full - 100).expect("truncate");
    drop(file);
    match Flash::open_file(&path) {
        Err(FlashError::Media(MediaError::SizeMismatch { expected, got })) => {
            assert_eq!(expected, full);
            assert_eq!(got, full - 100);
        }
        other => panic!("expected SizeMismatch, got {other:?}"),
    }
    // Future layout version (CRC re-sealed so the copy is structurally
    // sound): typed as UnsupportedVersion.
    drop(Flash::create_file(g.clone(), &path).expect("create"));
    let mut enc = Superblock {
        geometry: g,
        sb_seq: 5,
        mounts: 5,
    }
    .encode();
    enc[8..12].copy_from_slice(&99u32.to_le_bytes());
    let crc = media::crc64(&enc[..96]);
    enc[96..104].copy_from_slice(&crc.to_le_bytes());
    let file = OpenOptions::new().write(true).open(&path).expect("raw");
    file.write_all_at(&enc, 0).expect("write");
    file.write_all_at(&enc, SUPERBLOCK_BYTES as u64)
        .expect("write");
    drop(file);
    match Flash::open_file(&path) {
        Err(FlashError::Media(MediaError::UnsupportedVersion(99))) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

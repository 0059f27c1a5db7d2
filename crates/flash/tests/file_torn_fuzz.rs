//! Torn-write and corruption fuzzing of the on-device record format.
//!
//! The invariant under test: **a page record never reads back as validly
//! programmed with wrong contents.** The commit checksum lives in the
//! final 8 bytes of the record and covers the data region plus the OOB
//! header, so a write torn at any byte offset — and arbitrary byte
//! corruption anywhere inside the checksummed region — must either leave
//! the page non-`Valid` or leave its contents bit-identical.
//!
//! The RAM model doubles as the oracle: `Flash::clone()` detaches the
//! backing, giving a pure-RAM snapshot that saw the exact same op
//! sequence.

use std::path::PathBuf;

use tpftl_flash::media::page_record_range;
use tpftl_flash::{
    FaultPlan, Flash, FlashError, FlashGeometry, FlashTopology, OpPurpose, PageState, Ppn,
};
use tpftl_rng::Rng64;

fn geom() -> FlashGeometry {
    FlashGeometry {
        page_bytes: 256,
        pages_per_block: 8,
        num_blocks: 4,
        read_us: 25.0,
        write_us: 200.0,
        erase_us: 1500.0,
        topology: FlashTopology::default(),
    }
}

fn temp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("tpftl_fuzz_{}_{name}.img", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Drives one random but valid op (program data/TP, RMW, invalidate,
/// erase) against `f`, mirroring the choice deterministically from `rng`.
/// Returns `Err(PowerLoss)` when the armed plan fires.
fn random_op(f: &mut Flash, rng: &mut Rng64, entries: usize) -> tpftl_flash::Result<()> {
    let g = f.geometry().clone();
    match rng.below(10) {
        // Invalidate a random valid page.
        0 | 1 => {
            let valid: Vec<Ppn> = f.scan_valid().map(|(p, _, _)| p).collect();
            if let Some(&p) = valid.get(rng.below(valid.len().max(1) as u64) as usize) {
                f.invalidate(p)?;
            }
            Ok(())
        }
        // Erase a fully-drained block.
        2 => {
            for b in 0..g.num_blocks as u32 {
                if f.valid_pages_in(b).unwrap() == 0 && f.next_free_ppn(b).is_none() {
                    return f.erase_block(b, OpPurpose::GcData);
                }
            }
            Ok(())
        }
        // Program the next free page of a random block.
        n => {
            let b = rng.below(g.num_blocks as u64) as u32;
            let Some(ppn) = f.next_free_ppn(b) else {
                return Ok(());
            };
            if n < 6 {
                f.program_page(ppn, rng.below(1 << 20) as u32, OpPurpose::HostData)
            } else {
                let payload: Vec<Ppn> = (0..entries as Ppn)
                    .map(|_| rng.below(u32::MAX as u64) as Ppn)
                    .collect();
                let srcs: Vec<Ppn> = f
                    .scan_valid()
                    .filter(|&(_, _, tp)| tp)
                    .map(|(p, _, _)| p)
                    .collect();
                if n == 9 && !srcs.is_empty() {
                    let src = srcs[rng.below(srcs.len() as u64) as usize];
                    let patch = [(rng.below(entries as u64) as u16, rng.below(1 << 20) as Ppn)];
                    f.supersede_translation_page(
                        ppn,
                        rng.below(64) as u32,
                        src,
                        &patch,
                        OpPurpose::Translation,
                    )
                } else {
                    f.program_translation_page(
                        ppn,
                        rng.below(64) as u32,
                        &payload,
                        OpPurpose::Translation,
                    )
                }
            }
        }
    }
}

/// Asserts the reopened file image equals the RAM oracle: same valid set,
/// same tags/seqs, bit-identical translation payloads — and the fatal
/// (torn) page is never `Valid` on disk.
fn assert_matches_oracle(reopened: &Flash, oracle: &Flash, seed: u64) {
    let got: Vec<_> = reopened.scan_valid().collect();
    let want: Vec<_> = oracle.scan_valid().collect();
    assert_eq!(got, want, "seed {seed}: valid sets diverge");
    for (ppn, _, is_tp) in got {
        assert_eq!(
            reopened.program_seq(ppn),
            oracle.program_seq(ppn),
            "seed {seed}: seq of ppn {ppn}"
        );
        if is_tp {
            assert_eq!(
                reopened.peek_translation_payload(ppn),
                oracle.peek_translation_payload(ppn),
                "seed {seed}: payload of ppn {ppn}"
            );
        }
    }
}

/// FaultPlan-torn file writes with a random tear budget: the partial
/// record a power loss leaves on disk never commits, for any tear offset.
#[test]
fn torn_file_writes_never_commit() {
    let path = temp_path("torn");
    let g = geom();
    let entries = g.page_bytes / 4;
    for seed in 0..60u64 {
        let mut rng = Rng64::seed_from_u64(0xF022 ^ seed);
        let mut f = Flash::create_file(g.clone(), &path).expect("create");
        let plan = FaultPlan::at_op(10 + rng.below(120))
            .with_tear(rng.below(4 * (g.page_bytes as u64 + 64)));
        f.arm_faults(plan);
        let mut fatal: Option<()> = None;
        for _ in 0..2000 {
            match random_op(&mut f, &mut rng, entries) {
                Ok(()) => {}
                Err(FlashError::PowerLoss) => {
                    fatal = Some(());
                    break;
                }
                Err(e) => panic!("seed {seed}: unexpected error {e}"),
            }
        }
        assert!(fatal.is_some(), "seed {seed}: plan never fired");
        let oracle = f.clone(); // detached RAM snapshot of the dead device
        drop(f);
        let reopened = Flash::open_file(&path).expect("reopen");
        assert_matches_oracle(&reopened, &oracle, seed);
    }
    let _ = std::fs::remove_file(&path);
}

/// Arbitrary byte corruption at random offsets within page+OOB records:
/// a corrupted page either stays bit-identical (corruption missed the
/// meaningfully-decoded bytes) or stops being `Valid` — never valid with
/// wrong contents. The mount itself never panics on any corruption.
#[test]
fn arbitrary_record_corruption_never_yields_wrong_content() {
    let pristine = temp_path("pristine");
    let corrupted = temp_path("corrupted");
    let g = geom();
    let entries = g.page_bytes / 4;

    // Build a device image whose every valid page carries checkable
    // content (translation payloads are fully CRC-covered).
    let mut f = Flash::create_file(g.clone(), &pristine).expect("create");
    let mut rng = Rng64::seed_from_u64(0xC0DE);
    let mut expected: Vec<(Ppn, u32, u64, Vec<Ppn>)> = Vec::new();
    for i in 0..12u32 {
        let payload: Vec<Ppn> = (0..entries as Ppn).map(|e| e * 7 + i).collect();
        f.program_translation_page(i, i, &payload, OpPurpose::Translation)
            .expect("tp");
        expected.push((i, i, f.program_seq(i), payload));
    }
    f.sync_backing().expect("sync");
    drop(f);
    let image = std::fs::read(&pristine).expect("read image");

    for trial in 0..250u64 {
        let mut bytes = image.clone();
        // Corrupt 1..4 random ranges inside random page records.
        for _ in 0..rng.range_usize(1, 5) {
            let ppn = rng.below(g.total_pages() as u64) as Ppn;
            let (off, len) = page_record_range(&g, ppn);
            let start = off as usize + rng.below(len) as usize;
            let n = rng
                .range_usize(1, 64)
                .min(off as usize + len as usize - start);
            for b in &mut bytes[start..start + n] {
                *b = rng.below(256) as u8;
            }
        }
        std::fs::write(&corrupted, &bytes).expect("write corrupted");
        let reopened = Flash::open_file(&corrupted).expect("mount never fails on record bytes");
        for (ppn, tag, seq, payload) in &expected {
            match reopened.state(*ppn).expect("state") {
                PageState::Valid => {
                    // Valid implies bit-identical: tag, seq stamp, payload.
                    let (_, got_tag, is_tp) = reopened
                        .scan_valid()
                        .find(|&(p, _, _)| p == *ppn)
                        .expect("valid page in scan");
                    assert!(is_tp, "trial {trial}: ppn {ppn} lost its payload flag");
                    assert_eq!(got_tag, *tag, "trial {trial}: ppn {ppn} tag");
                    assert_eq!(
                        reopened.program_seq(*ppn),
                        *seq,
                        "trial {trial}: ppn {ppn} seq"
                    );
                    assert_eq!(
                        reopened.peek_translation_payload(*ppn).expect("payload"),
                        payload.as_slice(),
                        "trial {trial}: ppn {ppn} payload corrupted but still valid"
                    );
                }
                // Corruption detected (torn) or the invalid marker landed
                // by chance (still the *right* content, just demoted) —
                // both are safe outcomes.
                PageState::Torn | PageState::Invalid | PageState::Free => {}
            }
        }
    }
    let _ = std::fs::remove_file(&pristine);
    let _ = std::fs::remove_file(&corrupted);
}

/// Truncating a record mid-write by hand (simulating a torn OS write at
/// an arbitrary sector boundary) behaves like the FaultPlan tear: the
/// page never commits.
#[test]
fn prefix_truncation_of_a_record_never_commits() {
    let pristine = temp_path("prefix_base");
    let torn = temp_path("prefix_torn");
    let g = geom();
    let entries = g.page_bytes / 4;
    let mut f = Flash::create_file(g.clone(), &pristine).expect("create");
    let payload: Vec<Ppn> = (0..entries as Ppn).map(|e| e ^ 0xABCD).collect();
    f.program_translation_page(0, 9, &payload, OpPurpose::Translation)
        .expect("tp");
    drop(f);
    let image = std::fs::read(&pristine).expect("read");
    let (off, len) = page_record_range(&g, 0);
    // Every proper prefix of the record, zeroed from `cut` on.
    for cut in 0..len {
        let mut bytes = image.clone();
        for b in &mut bytes[(off + cut) as usize..(off + len) as usize] {
            *b = 0;
        }
        std::fs::write(&torn, &bytes).expect("write");
        let reopened = Flash::open_file(&torn).expect("mount");
        assert_ne!(
            reopened.state(0).expect("state"),
            PageState::Valid,
            "cut at byte {cut} of {len} read back as committed"
        );
    }
    let _ = std::fs::remove_file(&pristine);
    let _ = std::fs::remove_file(&torn);
}

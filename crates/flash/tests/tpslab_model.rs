//! Property test: the slab-backed translation-payload store against a
//! `HashMap<Ppn, Box<[Ppn]>>` reference model.
//!
//! A seeded random workload of translation/data programs, read-modify-write
//! supersedes, invalidations and erases — including fault-plan torn writes
//! that must never leave a payload behind — is applied to the device while
//! the model tracks what each valid translation page must hold. After every
//! operation the two stores must agree exactly, which exercises slot
//! recycling through the slab's free list under arbitrary interleavings.

use std::collections::HashMap;

use tpftl_flash::{
    FaultPlan, Flash, FlashError, FlashGeometry, FlashTopology, OpPurpose, PageState, Ppn,
};
use tpftl_rng::Rng64;

const BLOCKS: usize = 4;
const PAGES_PER_BLOCK: usize = 8;
const PAGES: usize = BLOCKS * PAGES_PER_BLOCK;

fn tiny_geom() -> FlashGeometry {
    FlashGeometry {
        page_bytes: 64, // 16 entries per translation page
        pages_per_block: PAGES_PER_BLOCK,
        num_blocks: BLOCKS,
        read_us: 25.0,
        write_us: 200.0,
        erase_us: 1500.0,
        topology: FlashTopology::default(),
    }
}

/// Deterministically picks a random key out of the (unordered) model.
fn pick_tp(model: &HashMap<Ppn, Box<[Ppn]>>, rng: &mut Rng64) -> Option<Ppn> {
    if model.is_empty() {
        return None;
    }
    let mut keys: Vec<Ppn> = model.keys().copied().collect();
    keys.sort_unstable();
    Some(keys[rng.range_usize(0, keys.len())])
}

fn check(flash: &Flash, model: &HashMap<Ppn, Box<[Ppn]>>, seed: u64) {
    for ppn in 0..PAGES as Ppn {
        assert_eq!(
            flash.peek_translation_payload(ppn),
            model.get(&ppn).map(|b| &b[..]),
            "payload mismatch at ppn {ppn}, seed {seed}"
        );
    }
    for (ppn, _tag, is_tp) in flash.scan_valid() {
        assert_eq!(
            is_tp,
            model.contains_key(&ppn),
            "flag mismatch, seed {seed}"
        );
    }
}

#[test]
fn slab_matches_hashmap_model() {
    for seed in 0..192u64 {
        let mut rng = Rng64::seed_from_u64(0x51AB + seed);
        let mut flash = Flash::new(tiny_geom()).unwrap();
        let entries = flash.entries_per_translation_page();
        let mut model: HashMap<Ppn, Box<[Ppn]>> = HashMap::new();
        let n_ops = rng.range_usize(50, 300);

        for _ in 0..n_ops {
            match rng.range_u32(0, 100) {
                // Fresh translation-page program, occasionally torn.
                0..=24 => {
                    let b = rng.range_u32(0, BLOCKS as u32);
                    let Some(ppn) = flash.next_free_ppn(b) else {
                        continue;
                    };
                    let vtpn = rng.range_u32(0, 64);
                    let payload: Vec<Ppn> = (0..entries).map(|_| rng.next_u64() as Ppn).collect();
                    if rng.below(8) == 0 {
                        flash.arm_faults(FaultPlan::on_translation_write(0));
                        assert_eq!(
                            flash.program_translation_page(
                                ppn,
                                vtpn,
                                &payload,
                                OpPurpose::Translation
                            ),
                            Err(FlashError::PowerLoss),
                            "seed {seed}"
                        );
                        flash.disarm_faults();
                        // Torn program: the model keeps no payload.
                    } else {
                        flash
                            .program_translation_page(ppn, vtpn, &payload, OpPurpose::Translation)
                            .unwrap();
                        model.insert(ppn, payload.into_boxed_slice());
                    }
                }
                // Read-modify-write: supersede an existing translation page.
                25..=44 => {
                    let Some(src) = pick_tp(&model, &mut rng) else {
                        continue;
                    };
                    let b = rng.range_u32(0, BLOCKS as u32);
                    let Some(dst) = flash.next_free_ppn(b) else {
                        continue;
                    };
                    let n_updates = rng.range_usize(0, 4);
                    let updates: Vec<(u16, Ppn)> = (0..n_updates)
                        .map(|_| {
                            (
                                rng.range_u32(0, entries as u32) as u16,
                                rng.next_u64() as Ppn,
                            )
                        })
                        .collect();
                    let vtpn = rng.range_u32(0, 64);
                    let torn = rng.below(8) == 0;
                    if torn {
                        flash.arm_faults(FaultPlan::on_translation_write(0));
                    }
                    let res = flash.supersede_translation_page(
                        dst,
                        vtpn,
                        src,
                        &updates,
                        OpPurpose::Translation,
                    );
                    if torn {
                        assert_eq!(res, Err(FlashError::PowerLoss), "seed {seed}");
                        flash.disarm_faults();
                        // The model keeps `src` as it was (`check` below
                        // finds it bound and unpatched) and nothing at `dst`.
                        assert_eq!(flash.state(src).unwrap(), PageState::Valid);
                        assert_eq!(flash.state(dst).unwrap(), PageState::Torn);
                    } else {
                        res.unwrap();
                        let mut payload = model.remove(&src).expect("picked from the model");
                        for &(off, ppn) in &updates {
                            payload[off as usize] = ppn;
                        }
                        model.insert(dst, payload);
                        assert_eq!(flash.state(src).unwrap(), PageState::Invalid);
                    }
                }
                // Data-page program: valid but carries no payload.
                45..=59 => {
                    let b = rng.range_u32(0, BLOCKS as u32);
                    if let Some(ppn) = flash.next_free_ppn(b) {
                        flash
                            .program_page(ppn, rng.next_u64() as u32, OpPurpose::HostData)
                            .unwrap();
                    }
                }
                // Invalidate a random page; a valid one drops its payload.
                60..=84 => {
                    let ppn = rng.range_u32(0, PAGES as u32);
                    if flash.state(ppn).unwrap() == PageState::Valid {
                        flash.invalidate(ppn).unwrap();
                        model.remove(&ppn);
                    }
                }
                // Erase a block with no valid pages, occasionally torn.
                _ => {
                    let b = rng.range_u32(0, BLOCKS as u32);
                    if flash.valid_pages_in(b).unwrap() != 0 {
                        continue;
                    }
                    if rng.below(8) == 0 {
                        flash.arm_faults(FaultPlan::on_erase(0));
                        assert_eq!(
                            flash.erase_block(b, OpPurpose::GcData),
                            Err(FlashError::PowerLoss),
                            "seed {seed}"
                        );
                        flash.disarm_faults();
                    } else {
                        flash.erase_block(b, OpPurpose::GcData).unwrap();
                    }
                }
            }

            check(&flash, &model, seed);
        }
    }
}

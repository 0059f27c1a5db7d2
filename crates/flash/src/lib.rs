#![warn(missing_docs)]

//! NAND flash device model for the TPFTL reproduction.
//!
//! This crate models the flash-memory substrate that every FTL in the
//! workspace runs on: an array of erase blocks, each containing pages that
//! move through the NAND state machine `Free -> Valid -> Invalid -> Free`
//! (the last transition only via a block erase). The model enforces the
//! physical constraints a real NAND chip imposes:
//!
//! * pages are the unit of read and program, blocks the unit of erase;
//! * a page can only be programmed once between erases (erase-before-write);
//! * pages within a block must be programmed sequentially;
//! * a block may only be erased when it holds no valid pages (the garbage
//!   collector must migrate them first — erasing live data is an FTL bug and
//!   is reported as [`FlashError::EraseWithValidPages`]).
//!
//! Every operation is attributed to an [`OpPurpose`] (host data, GC data,
//! translation, GC translation) and accounted in [`FlashStats`] together with
//! the latency from [`FlashGeometry`], so the simulator can split the costs
//! of address translation from the costs of user I/O exactly the way the
//! paper's Table 1 symbols do (`N_tw`, `N_md`, `N_dt`, `N_mt`, ...).
//!
//! Translation pages carry an actual payload: the mapping table is persisted
//! through, and migrated by, the flash model itself rather than being
//! shadow-copied in the FTL, which lets the test suite verify that the
//! on-flash mapping state is always consistent. Payloads live in a
//! slab-backed arena (fixed-size slots, free-list, per-block slot index;
//! every all-unmapped page shares one read-only payload), so programming or
//! dropping one is index arithmetic with no per-page heap allocation in
//! steady state.

mod error;
mod fault;
mod flash;
mod geometry;
pub mod media;
mod stats;
mod timing;
mod tpslab;

pub use error::FlashError;
pub use fault::{FaultMode, FaultPlan, FaultRecord};
pub use flash::{Flash, PageInfo, PageState};
pub use geometry::{FlashGeometry, FlashTopology};
pub use media::MediaError;
pub use stats::{FlashStats, OpKind, OpPurpose, PurposeCounts};
pub use timing::{LanePlacement, UnitClocks};
pub use tpslab::TpStoreCensus;

/// Physical page number: a global index over every page of the device.
pub type Ppn = u32;

/// Logical page number as seen by the host after 4 KB-alignment.
pub type Lpn = u32;

/// Virtual translation-page number: index of a 4 KB chunk of the mapping
/// table (the quotient of an [`Lpn`] and the entries-per-translation-page).
pub type Vtpn = u32;

/// Erase-block index.
pub type BlockId = u32;

/// Sentinel used inside persisted translation pages for "not mapped yet".
///
/// The paper stores 4-byte PPNs inside translation pages; we keep the same
/// 4-byte representation and reserve the all-ones value.
pub const PPN_NONE: Ppn = Ppn::MAX;

/// Convenient `Result` alias for flash operations.
pub type Result<T> = core::result::Result<T, FlashError>;

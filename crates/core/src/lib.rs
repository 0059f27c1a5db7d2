#![warn(missing_docs)]

//! FTL framework and page-level FTL implementations for the TPFTL
//! reproduction.
//!
//! This crate contains the paper's primary contribution — **TPFTL**, a
//! demand-based page-level FTL with a two-level-LRU mapping cache — together
//! with every FTL it is evaluated against and the framework they all share:
//!
//! * [`ftl::TpFtl`] — the paper's FTL (Section 4): translation-page nodes
//!   ordered by page-level hotness, entry-level LRU lists, request-level and
//!   selective prefetching, batch-update and clean-first replacement.
//! * [`ftl::Dftl`] — DFTL (Gupta et al., ASPLOS'09), the baseline: a
//!   segmented-LRU cached mapping table with GC-only batched updates.
//! * [`ftl::Sftl`] — S-FTL (Jiang et al., MSST'11): translation-page-
//!   granularity caching compressed by PPN-run sequentiality plus a dirty
//!   buffer that postpones sparse dirty-entry writebacks.
//! * [`ftl::Cdftl`] — CDFTL (Qin et al., RTAS'11): two-level CMT + CTP
//!   caching.
//! * [`ftl::OptimalFtl`] — a page-level FTL with the entire mapping table in
//!   RAM; the paper's upper bound.
//! * [`ftl::LearnedFtl`] — LearnedFTL (extension): piecewise-linear learned
//!   mappings over demand-paged translation pages.
//!
//! Every FTL is page-mapped, with one write path and one page-level
//! garbage collector that owns the whole free pool.
//!
//! The shared framework lives in:
//!
//! * [`SsdConfig`] — geometry, cache sizing (the paper's "block-level table
//!   + GTD" rule), GC thresholds, pre-fill.
//! * [`env::SsdEnv`] — flash device + block manager + global translation
//!   directory + translation-page I/O helpers + counters. FTLs never touch
//!   the flash device directly.
//! * [`blockmgr::BlockManager`] — block allocation (one active block per
//!   translation class and data stream) and the GC victim index.
//! * [`gc`] — the greedy garbage collector, generic over [`ftl::Ftl`] so it
//!   can call back into the cache for the GC-hit/GC-miss handling of
//!   Section 3.1.
//! * [`lru::LruList`] — the slab-backed intrusive LRU all cache designs use.

pub mod blockmgr;
pub mod config;
pub mod driver;
pub mod env;
pub mod error;
pub mod ftl;
pub mod gc;
pub mod gtd;
pub mod hash;
pub mod lru;
pub mod recovery;
pub mod stats;

pub use config::SsdConfig;
pub use error::FtlError;
pub use stats::FtlStats;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, FtlError>;

// Re-export the flash vocabulary types: every FTL API speaks them.
pub use tpftl_flash::{Lpn, Ppn, Vtpn, PPN_NONE};

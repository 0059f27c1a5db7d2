//! Error type for flash operations.
//!
//! Every variant corresponds to an operation a real NAND device either
//! cannot perform or that would corrupt data; hitting one of them in the
//! simulator indicates an FTL bug, so the FTL layer generally propagates
//! them with `expect`-style panics in tests and `Result` in library code.

use crate::{BlockId, Ppn};

/// Errors returned by the flash device model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// The requested page number is outside the device.
    OutOfRange(Ppn),
    /// The requested block number is outside the device.
    BlockOutOfRange(BlockId),
    /// Attempt to read a page that has never been programmed since the last
    /// erase of its block.
    ReadFree(Ppn),
    /// Attempt to read a page that was invalidated (stale data).
    ReadInvalid(Ppn),
    /// Attempt to read or invalidate a page whose program or erase was
    /// interrupted by power loss (indeterminate charge).
    ReadTorn(Ppn),
    /// An injected power loss interrupted this operation; the device is
    /// dark until remounted (see the `fault` module).
    PowerLoss,
    /// Attempt to program a page that is not in the `Free` state
    /// (erase-before-write violation).
    ProgramNotFree(Ppn),
    /// Attempt to program pages of a block out of order. NAND requires
    /// strictly sequential in-block programming.
    NonSequentialProgram {
        /// The page that was requested.
        requested: Ppn,
        /// The page the block's write pointer expected next.
        expected: Ppn,
    },
    /// Attempt to erase a block that still contains valid pages.
    EraseWithValidPages(BlockId),
    /// A translation-page payload was expected but the page holds none
    /// (e.g. reading a data page as a translation page).
    NotATranslationPage(Ppn),
    /// A payload's length does not match the number of mapping entries a
    /// translation page holds.
    BadPayloadLength {
        /// Entries provided by the caller.
        got: usize,
        /// Entries a translation page must hold.
        expected: usize,
    },
    /// The device has used up its 32-bit program sequence stamps: programming
    /// this page would need a stamp past `u32::MAX`, or (on open) its stored
    /// record carries one. Nothing was changed.
    SeqExhausted(Ppn),
    /// Geometry parameters are inconsistent (zero-sized, overflowing, ...).
    InvalidGeometry,
    /// The file-backed media layer failed (I/O error, corrupt or missing
    /// superblock, layout mismatch). See [`crate::media::MediaError`].
    Media(crate::media::MediaError),
}

impl core::fmt::Display for FlashError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::OutOfRange(p) => write!(f, "page {p} is out of range"),
            Self::BlockOutOfRange(b) => write!(f, "block {b} is out of range"),
            Self::ReadFree(p) => write!(f, "read of free (unwritten) page {p}"),
            Self::ReadInvalid(p) => write!(f, "read of invalidated page {p}"),
            Self::ReadTorn(p) => write!(f, "read of torn (interrupted-program) page {p}"),
            Self::PowerLoss => write!(f, "power loss injected; device is offline"),
            Self::ProgramNotFree(p) => {
                write!(f, "program of non-free page {p} (erase-before-write)")
            }
            Self::NonSequentialProgram {
                requested,
                expected,
            } => write!(
                f,
                "non-sequential program: requested page {requested}, expected {expected}"
            ),
            Self::EraseWithValidPages(b) => {
                write!(f, "erase of block {b} which still holds valid pages")
            }
            Self::NotATranslationPage(p) => {
                write!(f, "page {p} holds no translation payload")
            }
            Self::BadPayloadLength { got, expected } => write!(
                f,
                "translation payload holds {got} entries, expected {expected}"
            ),
            Self::SeqExhausted(p) => {
                write!(
                    f,
                    "page {p}: program sequence stamps exhausted (past u32::MAX)"
                )
            }
            Self::InvalidGeometry => write!(f, "invalid flash geometry"),
            Self::Media(e) => write!(f, "media error: {e}"),
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msgs = [
            FlashError::OutOfRange(7).to_string(),
            FlashError::ReadFree(1).to_string(),
            FlashError::NonSequentialProgram {
                requested: 9,
                expected: 8,
            }
            .to_string(),
            FlashError::EraseWithValidPages(3).to_string(),
            FlashError::BadPayloadLength {
                got: 3,
                expected: 1024,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("out of range"));
        assert!(msgs[1].contains("free"));
        assert!(msgs[2].contains('9') && msgs[2].contains('8'));
        assert!(msgs[3].contains("valid pages"));
        assert!(msgs[4].contains("1024"));
    }
}

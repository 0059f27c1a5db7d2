//! Error type shared by the FTL framework.

use tpftl_flash::FlashError;

/// Errors surfaced by the FTL layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The underlying flash device rejected an operation; always an FTL
    /// logic bug, surfaced rather than masked.
    Flash(FlashError),
    /// No free block is available and garbage collection cannot reclaim
    /// one: the device capacity (logical space + over-provisioning) is
    /// exhausted.
    DeviceFull,
    /// A host request addressed beyond the configured logical space.
    OutOfLogicalSpace {
        /// The offending logical page.
        lpn: tpftl_flash::Lpn,
        /// Number of logical pages the device exports.
        logical_pages: u64,
    },
    /// A resolved mapping points at a data page that holds another LPN:
    /// the FTL's mapping is corrupt. Surfaced, never masked, and returned
    /// rather than panicked so that a test harness can shrink the case.
    MappingCorruption {
        /// The logical page that was read.
        lpn: tpftl_flash::Lpn,
        /// The physical page its mapping resolved to.
        ppn: tpftl_flash::Ppn,
        /// The LPN that page's out-of-band tag names.
        tag: tpftl_flash::Lpn,
    },
    /// The mapping cache budget is too small to hold even one entry plus
    /// the structures the FTL needs.
    CacheTooSmall,
    /// The operating system refused to start a shard worker thread.
    WorkerSpawn(std::io::ErrorKind),
}

impl core::fmt::Display for FtlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Flash(e) => write!(f, "flash error: {e}"),
            Self::DeviceFull => write!(f, "device capacity exhausted (no reclaimable block)"),
            Self::OutOfLogicalSpace { lpn, logical_pages } => {
                write!(f, "LPN {lpn} beyond logical space of {logical_pages} pages")
            }
            Self::MappingCorruption { lpn, ppn, tag } => write!(
                f,
                "mapping corruption: LPN {lpn} resolved to PPN {ppn} which holds tag {tag}"
            ),
            Self::CacheTooSmall => write!(f, "mapping cache budget too small"),
            Self::WorkerSpawn(kind) => write!(f, "cannot spawn a shard worker thread: {kind}"),
        }
    }
}

impl std::error::Error for FtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Flash(e) => Some(e),
            _ => None,
        }
    }
}

// Every host read returns this type: a variant that widened it would tax
// the hot path of every request.
const _: () = assert!(std::mem::size_of::<FtlError>() <= 24);

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        Self::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = FtlError::Flash(FlashError::ReadFree(3));
        assert!(e.to_string().contains("flash error"));
        assert!(e.source().is_some());
        assert!(FtlError::DeviceFull.source().is_none());
        let o = FtlError::OutOfLogicalSpace {
            lpn: 10,
            logical_pages: 5,
        };
        assert!(o.to_string().contains("LPN 10"));
    }
}

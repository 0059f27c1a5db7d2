//! File-backed vs RAM-backed differential test: the file backing is a
//! *mirror*, so the tester's RAM twin of a file-backed case must observe
//! the same reports, page states and mount reports, bit for bit — or, under
//! injected power loss, the same `CrashOutcome`s.

use tpftl_flash::FaultMode::AtOp;
use tpftl_sim::tester::{check, Case, Fault};

const PERSISTING: [&str; 5] = ["dftl", "cdftl", "sftl", "tpftl", "learned"];

/// Optimal included: it persists no translation pages, and its mirrored
/// data pages must still round-trip.
#[test]
fn file_backing_is_bit_identical_to_ram_for_all_ftls() {
    let mut base = Case::plain(42);
    (base.file, base.prefill) = (true, 0.6);
    for ftl in PERSISTING.into_iter().chain(["optimal"]) {
        check(&Case { ftl, ..base });
    }
}

#[test]
fn crash_outcomes_match_between_ram_and_file_paths() {
    let mut base = Case::plain(42);
    (base.file, base.prefill) = (true, 0.6);
    for ftl in PERSISTING {
        for (at, tear) in [(300, None), (1_500, Some(4_120)), (u64::MAX, None)] {
            base.fault = Some(Fault {
                mode: AtOp(at),
                tear,
            });
            check(&Case { ftl, ..base });
        }
    }
}

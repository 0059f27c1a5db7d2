//! Deterministic power-loss fault injection.
//!
//! A [`FaultPlan`] armed on a [`crate::Flash`] counts every physical
//! operation the device performs and, at a predetermined point, makes that
//! operation fail with [`crate::FlashError::PowerLoss`] instead of
//! completing:
//!
//! * an interrupted *program* leaves the page [`crate::PageState::Torn`] —
//!   partially charged, unreadable, behind the block's write pointer;
//! * an interrupted *erase* leaves every page of the block torn (the erase
//!   pulse stopped mid-way, so all cells hold indeterminate charge);
//! * an interrupted *read* corrupts nothing (reads are non-destructive) but
//!   still marks the instant of death.
//!
//! After the fault fires the device is dark: every subsequent operation
//! returns `PowerLoss` without touching state, exactly as if the host kept
//! issuing commands to an unpowered chip. Recovery starts by taking the
//! flash array back (the only thing that survives) and mounting it through
//! `tpftl_core::recovery::crash_mount`.
//!
//! Plans are pure counters — no clocks, no global RNG — so the same plan
//! against the same workload kills the device at exactly the same
//! operation, making every crash test replayable bit-for-bit.

use crate::OpKind;

/// When the injected power loss strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Kill the `n`-th physical operation (0-based) of any kind.
    AtOp(u64),
    /// Kill the `k`-th translation-page program (0-based) — the paper's
    /// batch-update write-back path, the most state-laden instant to die.
    OnTranslationWrite(u64),
    /// Kill the `k`-th block erase (0-based) mid-erase.
    OnErase(u64),
}

/// What the fault actually killed, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index of the fatal operation (0-based, counted from arming).
    pub op_index: u64,
    /// Kind of the operation that was interrupted.
    pub kind: OpKind,
}

/// A deterministic plan for one injected power loss.
///
/// # Examples
///
/// ```
/// use tpftl_flash::{FaultPlan, Flash, FlashError, FlashGeometry, OpPurpose, PageState};
///
/// let geom = FlashGeometry::paper_default(512 << 20, 0.15);
/// let mut flash = Flash::new(geom).unwrap();
/// flash.arm_faults(FaultPlan::at_op(1));
/// flash.program_page(0, 7, OpPurpose::HostData).unwrap(); // op 0 survives
/// assert_eq!(
///     flash.program_page(1, 8, OpPurpose::HostData),
///     Err(FlashError::PowerLoss)
/// );
/// assert_eq!(flash.state(1).unwrap(), PageState::Torn);
/// // The device stays dark afterwards.
/// assert_eq!(
///     flash.read_page(0, OpPurpose::HostData),
///     Err(FlashError::PowerLoss)
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    mode: FaultMode,
    ops: u64,
    tp_writes: u64,
    erases: u64,
    fired: Option<FaultRecord>,
    tear_bytes: Option<u64>,
}

impl FaultPlan {
    /// Plan that fires at `mode`'s trigger.
    pub fn new(mode: FaultMode) -> Self {
        Self {
            mode,
            ops: 0,
            tp_writes: 0,
            erases: 0,
            fired: None,
            tear_bytes: None,
        }
    }

    /// Plan that kills the `n`-th operation (0-based) of any kind.
    pub fn at_op(n: u64) -> Self {
        Self::new(FaultMode::AtOp(n))
    }

    /// Plan that kills the `k`-th translation-page program (0-based).
    pub fn on_translation_write(k: u64) -> Self {
        Self::new(FaultMode::OnTranslationWrite(k))
    }

    /// Plan that kills the `k`-th block erase (0-based), mid-erase.
    pub fn on_erase(k: u64) -> Self {
        Self::new(FaultMode::OnErase(k))
    }

    /// Plan with a seeded operation budget: `seed` deterministically picks
    /// an op index in `0..horizon` (SplitMix64), so sweeps can fan out over
    /// seeds without coordinating indices.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self::at_op(z % horizon.max(1))
    }

    /// When a file backing is attached, tear the fatal program's record at
    /// this byte budget: the first `n % record_len` bytes of the
    /// would-be-written `[data][OOB]` record land on disk and nothing else
    /// — the partial write a real power loss produces. The modulo keeps
    /// the record incomplete at any `n`, so its commit checksum (the final
    /// 8 OOB bytes) can never fully land. RAM-only devices ignore it.
    pub fn with_tear(mut self, n: u64) -> Self {
        self.tear_bytes = Some(n);
        self
    }

    /// The configured tear budget, if any.
    pub fn tear_bytes(&self) -> Option<u64> {
        self.tear_bytes
    }

    /// The configured trigger.
    pub fn mode(&self) -> FaultMode {
        self.mode
    }

    /// The fatal operation, once the plan has fired.
    pub fn fired(&self) -> Option<FaultRecord> {
        self.fired
    }

    /// Operations observed so far (including the fatal one).
    pub fn ops_observed(&self) -> u64 {
        self.ops
    }

    /// Counts one attempted operation; returns `true` if it must fail.
    /// Once fired, every subsequent operation fails (the device is dark).
    pub(crate) fn trips(&mut self, kind: OpKind, is_translation_write: bool) -> bool {
        if self.fired.is_some() {
            return true;
        }
        let op_index = self.ops;
        self.ops += 1;
        let hit = match self.mode {
            FaultMode::AtOp(n) => op_index == n,
            FaultMode::OnTranslationWrite(k) => {
                if is_translation_write {
                    let i = self.tp_writes;
                    self.tp_writes += 1;
                    i == k
                } else {
                    false
                }
            }
            FaultMode::OnErase(k) => {
                if kind == OpKind::Erase {
                    let i = self.erases;
                    self.erases += 1;
                    i == k
                } else {
                    false
                }
            }
        };
        if hit {
            self.fired = Some(FaultRecord { op_index, kind });
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_op_counts_all_kinds() {
        let mut p = FaultPlan::at_op(2);
        assert!(!p.trips(OpKind::Read, false));
        assert!(!p.trips(OpKind::Write, true));
        assert!(p.trips(OpKind::Erase, false));
        assert_eq!(
            p.fired(),
            Some(FaultRecord {
                op_index: 2,
                kind: OpKind::Erase
            })
        );
        // Dark device: everything after fails, counters freeze.
        assert!(p.trips(OpKind::Read, false));
        assert_eq!(p.ops_observed(), 3);
    }

    #[test]
    fn translation_write_mode_skips_other_ops() {
        let mut p = FaultPlan::on_translation_write(1);
        assert!(!p.trips(OpKind::Write, false)); // data write
        assert!(!p.trips(OpKind::Write, true)); // TP write #0
        assert!(!p.trips(OpKind::Read, false));
        assert!(p.trips(OpKind::Write, true)); // TP write #1
        assert_eq!(p.fired().unwrap().op_index, 3);
    }

    #[test]
    fn erase_mode_counts_erases_only() {
        let mut p = FaultPlan::on_erase(0);
        assert!(!p.trips(OpKind::Write, false));
        assert!(p.trips(OpKind::Erase, false));
        assert_eq!(p.fired().unwrap().kind, OpKind::Erase);
    }

    #[test]
    fn seeded_is_deterministic_and_bounded() {
        let a = FaultPlan::seeded(42, 1000);
        let b = FaultPlan::seeded(42, 1000);
        assert_eq!(a, b);
        let FaultMode::AtOp(n) = a.mode() else {
            panic!("seeded plans are op budgets");
        };
        assert!(n < 1000);
        assert_ne!(FaultPlan::seeded(43, 1000), a);
        // Degenerate horizon clamps instead of dividing by zero.
        let FaultMode::AtOp(n0) = FaultPlan::seeded(7, 0).mode() else {
            panic!()
        };
        assert_eq!(n0, 0);
    }
}

//! Differential power-loss crash testing.
//!
//! [`CrashHarness`] replays one fixed trace against an FTL, kills the
//! device at an injected fault point (see `tpftl_flash::FaultPlan`),
//! remounts with [`tpftl_core::recovery::crash_mount`], and runs the
//! durability oracle: every *acknowledged* write — a host request `serve`
//! returned `Ok` for — must still be readable from the persisted mapping
//! table after recovery, and the remounted table must pass the full
//! [`tpftl_core::recovery::verify`] consistency check.
//!
//! Everything is deterministic: the same config, trace, FTL, and fault
//! plan produce a bit-identical [`CrashOutcome`], so sweeps can compare
//! serialized outcomes across replays.

use std::collections::HashMap;
use std::path::Path;

use serde::{Deserialize, Serialize};
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::Ftl;
use tpftl_core::recovery::{self, InterruptedOp, RecoveryReport, VerifyReport};
use tpftl_core::{FtlError, Result, SsdConfig};
use tpftl_flash::{FaultPlan, Flash, FlashError, Lpn, Ppn};
use tpftl_trace::{IoRequest, SyntheticSpec};

use crate::{run_parallel_with, Ssd};

/// 4 KB pages everywhere (Table 3).
const PAGE_BYTES: u64 = 4096;

/// What one crash-and-remount run observed.
///
/// Bit-identical across replays of the same (config, trace, FTL, plan):
/// compare with `==` or via serialization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashOutcome {
    /// Name of the FTL under test.
    pub ftl: String,
    /// Whether the whole trace (and the final flush) completed before the
    /// fault fired — i.e. the plan's trigger lay beyond the run.
    pub completed_trace: bool,
    /// Host requests acknowledged (served `Ok`) before the power loss.
    pub requests_acknowledged: u64,
    /// Distinct logical pages with acknowledged content (trace writes
    /// plus the bootstrap pre-fill) the oracle checked.
    pub pages_checked: u64,
    /// What `crash_mount` found and repaired.
    pub recovery: RecoveryReport,
    /// Post-recovery mapping-table consistency check.
    pub verify: VerifyReport,
    /// Durability violations: acknowledged pages that are unmapped or
    /// mis-mapped after recovery, in LPN order. Empty means no
    /// acknowledged write was lost.
    pub violations: Vec<String>,
}

impl CrashOutcome {
    /// Panics with every violation and verify error unless no acknowledged
    /// write was lost and the remounted table is consistent.
    ///
    /// # Panics
    ///
    /// See above.
    pub fn assert_durable(&self) {
        assert!(
            self.violations.is_empty(),
            "{}: {} durability violations after crash at {:?}:\n{}",
            self.ftl,
            self.violations.len(),
            self.recovery.interrupted,
            self.violations.join("\n")
        );
        self.verify.assert_clean();
    }
}

/// Replays one trace against fresh FTL instances under injected power
/// loss. The harness owns the config and the trace so every run (and
/// every FTL) sees exactly the same request stream.
pub struct CrashHarness {
    /// The device configuration every run uses.
    pub config: SsdConfig,
    /// The request stream every run replays.
    pub trace: Vec<IoRequest>,
}

impl CrashHarness {
    /// The crash-proof fixture every sweep, differential test and CLI mode
    /// shares: a 4 MB device small enough to crash at every op index, its
    /// cache starved to GTD + 10 KB so translation pages churn, pre-filled
    /// to 60 % so GC runs mid-trace, under a 70 %-write synthetic trace of
    /// `requests` requests drawn from `seed`. A test that needs a different
    /// device overrides the one `config` field it differs in.
    pub fn starved(requests: usize, seed: u64) -> Self {
        let mut config = SsdConfig::paper_default(4 << 20);
        config.cache_bytes = config.gtd_bytes() + 10 * 1024;
        config.prefill_frac = 0.6;
        let spec = SyntheticSpec {
            requests,
            address_bytes: 4 << 20,
            write_ratio: 0.7,
            mean_req_sectors: 8.0,
            ..SyntheticSpec::default()
        };
        let trace = spec.iter(seed).collect();
        Self { config, trace }
    }

    /// Runs the trace (plus the clean-unmount flush) against `ftl` with a
    /// fault plan that never fires, and returns the number of flash
    /// operations the run issued — the sweep horizon: a crash injected at
    /// any op index below this value interrupts the run somewhere real.
    /// Zero means the device came back without its plan: nothing to sweep.
    pub fn baseline_ops<F: Ftl>(&self, ftl: F) -> Result<u64> {
        let mut ssd = Ssd::new(ftl, self.config.clone())?;
        self.replay_until_crash(&mut ssd, FaultPlan::at_op(u64::MAX), |_| {})?;
        let plan = ssd.into_env().into_flash().disarm_faults();
        Ok(plan.map_or(0, |p| p.ops_observed()))
    }

    /// The full crash experiment: bootstrap `ftl` cleanly, arm `plan`,
    /// replay the trace until the power fails (or the trace ends), drop
    /// all RAM state, `crash_mount` the flash image, and check the
    /// durability oracle against every acknowledged write.
    ///
    /// With `image` set the device is *file-backed*: the run mirrors every
    /// flash transition to a fresh device file at that path, the power
    /// cycle drops **all** RAM state (the file handle included), and
    /// recovery starts from `Flash::open_file` — the remount reads the
    /// on-device layout alone, exactly like a fresh process after
    /// `kill -9` would. The outcome is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates any simulator error *other* than the injected
    /// `FlashError::PowerLoss` (which is the point of the experiment),
    /// including `FlashError::Media` I/O failures from the device file.
    pub fn run_to_crash<F: Ftl>(
        &self,
        ftl: F,
        plan: FaultPlan,
        image: Option<&Path>,
    ) -> Result<CrashOutcome> {
        // Bootstrap (pre-fill + format) happens before the plan is armed:
        // the power loss strikes during the measured workload, and the
        // pre-filled pages count as acknowledged content.
        let mut ssd = match image {
            None => Ssd::new(ftl, self.config.clone())?,
            Some(path) => {
                let flash = Flash::create_file(self.config.geometry(), path)?;
                Ssd::with_flash(ftl, self.config.clone(), flash)?
            }
        };
        let ftl = ssd.ftl().name();
        let mut acked: Vec<Lpn> = Vec::new();
        let (requests_acknowledged, completed_trace) =
            self.replay_until_crash(&mut ssd, plan, |lpns| acked.extend_from_slice(lpns))?;

        // The fault plan dies with the RAM state of a file-backed device;
        // remember what it killed before the cycle.
        let interrupted = ssd.fault_fired().map(|r| InterruptedOp {
            op_index: r.op_index,
            kind: r.kind,
        });

        // Power cycle: only the flash array (or only the file) survives.
        let mut flash = ssd.into_env().into_flash();
        if let Some(path) = image {
            drop(flash);
            flash = Flash::open_file(path)?;
        }
        let (env, mut recovery) = recovery::crash_mount(flash, self.config.clone())?;
        recovery.interrupted = interrupted;
        let (verify, violations) = Self::judge(&env, &mut acked);
        Ok(CrashOutcome {
            ftl,
            completed_trace,
            requests_acknowledged,
            pages_checked: acked.len() as u64,
            recovery,
            verify,
            violations,
        })
    }

    /// Crashes a fresh `build()` replay at each op index in `points`,
    /// fanned out over `threads` workers (`None`: one per core), and
    /// returns the outcomes in point order — identical to a serial loop.
    /// With `backing` set every replay is file-backed, its image a
    /// per-worker scratch file under that directory.
    ///
    /// # Errors
    ///
    /// The first point (in point order) whose run failed; see
    /// [`CrashHarness::run_to_crash`].
    pub fn sweep<F: Ftl>(
        &self,
        build: impl Fn() -> F + Sync,
        points: &[u64],
        backing: Option<&Path>,
        threads: Option<usize>,
    ) -> Result<Vec<CrashOutcome>> {
        run_parallel_with(points.to_vec(), threads, |&op| {
            // Workers drain their jobs serially, so a per-thread path is
            // never shared concurrently.
            let image = backing.map(|dir| {
                dir.join(format!(
                    "tpftl_crash_{}_{:?}.img",
                    std::process::id(),
                    std::thread::current().id()
                ))
            });
            let out = self.run_to_crash(build(), FaultPlan::at_op(op), image.as_deref());
            if let Some(path) = &image {
                let _ = std::fs::remove_file(path);
            }
            out
        })
        .into_iter()
        .collect()
    }

    /// Arms `plan` on a bootstrapped `ssd` and replays the trace until the
    /// plan fires or the trace (plus the unmount flush) completes. Every
    /// batch of acknowledged pages — the pre-fill first, then each write
    /// whose whole request returned `Ok` — is handed to `on_ack` the moment
    /// it is acknowledged. Returns the acknowledged request count and
    /// whether the run completed.
    pub fn replay_until_crash<F: Ftl>(
        &self,
        ssd: &mut Ssd<F>,
        plan: FaultPlan,
        mut on_ack: impl FnMut(&[Lpn]),
    ) -> Result<(u64, bool)> {
        let prefilled = (self.config.logical_pages() as f64 * self.config.prefill_frac) as Lpn;
        let mut lpns: Vec<Lpn> = (0..prefilled).collect();
        on_ack(&lpns);

        ssd.arm_faults(plan);
        let mut requests_acknowledged = 0u64;
        let mut run = || {
            for req in &self.trace {
                ssd.serve(req)?;
                requests_acknowledged += 1;
                if req.is_write() {
                    lpns.clear();
                    lpns.extend(req.pages(PAGE_BYTES).map(|p| p as Lpn));
                    on_ack(&lpns);
                }
            }
            // The plan may still fire inside the unmount flush.
            ssd.flush()
        };
        match run() {
            Ok(()) => Ok((requests_acknowledged, true)),
            Err(FtlError::Flash(FlashError::PowerLoss)) => Ok((requests_acknowledged, false)),
            Err(e) => Err(e),
        }
    }

    /// The durability oracle over a remounted device. A write is
    /// acknowledged only once its whole request returned `Ok`;
    /// program-before-invalidate ordering plus newest-copy election must
    /// make every such page readable again. Sorts and dedups `acked`, and
    /// returns the remounted table's consistency check plus one violation
    /// per acknowledged page that is unmapped or mis-mapped, in LPN order.
    pub fn judge(env: &SsdEnv, acked: &mut Vec<Lpn>) -> (VerifyReport, Vec<String>) {
        acked.sort_unstable();
        acked.dedup();
        let live: HashMap<Lpn, Ppn> = env
            .flash()
            .scan_valid()
            .filter(|&(_, _, is_tp)| !is_tp)
            .map(|(ppn, lpn, _)| (lpn, ppn))
            .collect();
        let mut violations = Vec::new();
        for &lpn in acked.iter() {
            match recovery::lookup(env, lpn) {
                None => violations.push(format!("acknowledged LPN {lpn} unmapped after recovery")),
                Some(ppn) if live.get(&lpn) != Some(&ppn) => violations.push(format!(
                    "acknowledged LPN {lpn} maps to {ppn}, not its live copy {:?}",
                    live.get(&lpn)
                )),
                Some(_) => {}
            }
        }
        (recovery::verify(env), violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpftl_core::ftl::{TpFtl, TpftlConfig};

    fn harness() -> CrashHarness {
        CrashHarness::starved(120, 11)
    }

    fn tpftl(c: &SsdConfig) -> TpFtl {
        TpFtl::new(c, TpftlConfig::full()).expect("budget")
    }

    #[test]
    fn baseline_counts_ops_without_firing() {
        let h = harness();
        let ops = h.baseline_ops(tpftl(&h.config)).expect("baseline");
        assert!(ops > 0);
    }

    #[test]
    fn unfired_plan_completes_and_is_durable() {
        let h = harness();
        let out = h
            .run_to_crash(tpftl(&h.config), FaultPlan::at_op(u64::MAX), None)
            .expect("run");
        assert!(out.completed_trace);
        assert!(out.recovery.interrupted.is_none());
        assert_eq!(out.requests_acknowledged, 120);
        out.assert_durable();
    }

    #[test]
    fn midway_crash_recovers_every_acknowledged_write() {
        let h = harness();
        let ops = h.baseline_ops(tpftl(&h.config)).expect("baseline");
        let out = h
            .run_to_crash(tpftl(&h.config), FaultPlan::at_op(ops / 2), None)
            .expect("run");
        assert!(!out.completed_trace);
        assert_eq!(out.recovery.interrupted.map(|i| i.op_index), Some(ops / 2));
        out.assert_durable();
    }

    #[test]
    fn four_channel_crash_sweep_spot_check() {
        // The unit-clock timing model is observation-only: a multi-channel
        // topology must not change the op sequence, so a crash injected at
        // the same op index recovers identically — and stays durable.
        let mut wide = harness();
        let serial = harness();
        wide.config.topology.channels = 4;
        wide.config.topology.ways = 2;
        let ops = wide.baseline_ops(tpftl(&wide.config)).expect("baseline");
        assert_eq!(
            ops,
            serial
                .baseline_ops(tpftl(&serial.config))
                .expect("baseline"),
            "topology must not change the flash op sequence"
        );
        let points = [ops / 4, ops / 2, 3 * ops / 4];
        let w = wide.sweep(|| tpftl(&wide.config), &points, None, None);
        let s = serial.sweep(|| tpftl(&serial.config), &points, None, None);
        assert_eq!(w, s, "a crash must not depend on topology");
        w.expect("runs")
            .iter()
            .for_each(CrashOutcome::assert_durable);
    }

    #[test]
    fn same_plan_gives_bit_identical_outcome() {
        let h = harness();
        let ops = h.baseline_ops(tpftl(&h.config)).expect("baseline");
        let a = h
            .run_to_crash(tpftl(&h.config), FaultPlan::at_op(ops / 3), None)
            .expect("run");
        let b = h
            .run_to_crash(tpftl(&h.config), FaultPlan::at_op(ops / 3), None)
            .expect("run");
        assert_eq!(a, b, "crash recovery must be deterministic");
        assert_eq!(
            serde_json::to_string(&a.recovery),
            serde_json::to_string(&b.recovery)
        );
    }
}

//! Exhaustive crash-point sweep: inject a power loss at *every* flash-op
//! index of a fixed 500-request trace and prove the durability invariant
//! holds at each one — no acknowledged write is lost, no mapping points at
//! a torn or dead page, and `recovery::verify` is clean after remount.
//!
//! In `--release` (what CI runs) this is a loop over every op index, not a
//! sample: if any single interleaving of (program, invalidate, erase) can
//! lose data, this test finds it. Debug builds — the tier-1 `cargo test` —
//! visit every `STRIDE`th index so the three sweeps take seconds, not
//! minutes.

use tpftl_core::ftl::{Ftl, LearnedFtl, TpFtl, TpftlConfig};
use tpftl_core::SsdConfig;
use tpftl_flash::FaultPlan;
use tpftl_sim::CrashHarness;

/// The shared starved fixture at 500 requests, its cache cut further to
/// GTD + 1 KB so nearly every access costs translation-page traffic.
fn harness() -> CrashHarness {
    let mut h = CrashHarness::starved(500, 42);
    h.config.cache_bytes = h.config.gtd_bytes() + 1024;
    h
}

fn ftl(c: &SsdConfig) -> TpFtl {
    TpFtl::new(c, TpftlConfig::full()).expect("budget")
}

/// Distance between visited crash points: exhaustive when optimized; under
/// `debug_assertions` a small prime stride (so the sample does not lock
/// onto a per-request op pattern) that still interrupts reads, writes and
/// erases on this trace.
const STRIDE: usize = if cfg!(debug_assertions) { 5 } else { 1 };

/// Crashes a fresh replay at each visited op index below the baseline
/// horizon and asserts every outcome durable; returns the kinds of flash
/// op the sweep interrupted.
fn sweep<F: Ftl>(
    h: &CrashHarness,
    build: impl Fn() -> F + Sync,
) -> std::collections::BTreeSet<String> {
    let horizon = h.baseline_ops(build()).expect("baseline");
    assert!(
        horizon > 1_000,
        "trace too small to be interesting: {horizon}"
    );
    let points: Vec<u64> = (0..horizon).step_by(STRIDE).collect();
    let outcomes = h.sweep(build, &points, None, None).expect("harness");
    let mut interrupted_kinds = std::collections::BTreeSet::new();
    for (&op, out) in points.iter().zip(&outcomes) {
        out.assert_durable();
        let fired = out
            .recovery
            .interrupted
            .unwrap_or_else(|| panic!("op {op} below the horizon must fire"));
        assert_eq!(fired.op_index, op);
        interrupted_kinds.insert(format!("{:?}", fired.kind));
    }
    interrupted_kinds
}

/// The tentpole acceptance test: every op index, zero violations.
#[test]
fn power_loss_at_every_op_index_is_recoverable() {
    let h = harness();
    let interrupted_kinds = sweep(&h, || ftl(&h.config));
    // The sweep must have exercised interrupted reads, writes, and erases.
    assert!(
        interrupted_kinds.len() >= 3,
        "sweep only interrupted {interrupted_kinds:?}"
    );
}

/// The same exhaustive sweep for the learned FTL: its piecewise-linear
/// segments are RAM-only acceleration state, so a power loss at any op
/// index must recover to the identical durable answer the demand-paged
/// table gives — recovery discards the learned index wholesale and the
/// remounted device depends only on persisted translation pages.
#[test]
fn learned_ftl_power_loss_at_every_op_index_is_recoverable() {
    let h = harness();
    sweep(&h, || LearnedFtl::new(&h.config).expect("budget"));
}

/// The exhaustive sweep under the multi-stream GC data plane: stream
/// assignment is volatile RAM state (the write-temperature estimator is
/// rebuilt cold on mount), so a crash at any op index with two open data
/// streams and windowed victim selection must recover exactly like the
/// single-stream device — durable pages identify themselves through their
/// OOB tags regardless of which stream's block they landed in.
#[test]
fn two_stream_power_loss_at_every_op_index_is_recoverable() {
    let mut h = harness();
    h.config.streams = tpftl_core::config::StreamCount(2);
    h.config.gc_policy = tpftl_core::config::GcPolicy::Windowed { window: 8 };
    sweep(&h, || ftl(&h.config));
}

/// The other trigger modes — Kth translation-page write, Kth erase —
/// reach states the flat op sweep also covers, but must fire where they
/// say they do.
#[test]
fn translation_write_and_erase_triggers_are_recoverable() {
    let h = harness();
    for k in [0, 1, 7, 40] {
        for plan in [FaultPlan::on_translation_write(k), FaultPlan::on_erase(k)] {
            let out = h.run_to_crash(ftl(&h.config), plan, None);
            out.expect("harness").assert_durable();
        }
    }
}

/// Seeded plans are deterministic: the same seed produces bit-identical
/// outcomes (including the serialized recovery report), different seeds
/// pick different crash points.
#[test]
fn seeded_plans_are_deterministic() {
    let h = harness();
    let horizon = h.baseline_ops(ftl(&h.config)).expect("baseline");
    let a = h
        .run_to_crash(ftl(&h.config), FaultPlan::seeded(9, horizon), None)
        .expect("run");
    let b = h
        .run_to_crash(ftl(&h.config), FaultPlan::seeded(9, horizon), None)
        .expect("run");
    assert_eq!(a, b, "same seed must reproduce the same crash + recovery");
    a.assert_durable();
    b.assert_durable();
}

//! The multi-stream GC claim, as a test.
//!
//! Hot/cold stream separation with windowed victim selection must reduce
//! GC copy amplification against single-stream greedy, for TPFTL and DFTL,
//! on both the device-aging overwrite stream and the two-tenant mix.
//! `write_amp` is a simulated counter, so the comparison is exact and
//! repeats on any machine; the sizing is `ftlbench --quick`'s.

use serde_json::Value;
use tpftl_bench::scenarios::{bench_aging_write_gc, bench_tenant_mix, GcVariant, Record};
use tpftl_experiments::runner::FtlKind;

const QUICK_GC_REQUESTS: usize = 12_000;

fn write_amp(row: &Record) -> f64 {
    match row.extra.iter().find(|(key, _)| *key == "write_amp") {
        Some((_, Value::Float(wa))) => *wa,
        other => panic!("{}/{}: no write_amp ({other:?})", row.scenario, row.ftl),
    }
}

#[test]
fn multi_stream_gc_beats_greedy_on_write_amplification() {
    type Scenario = fn(FtlKind, GcVariant, usize, usize) -> Record;
    let scenarios: [Scenario; 2] = [bench_aging_write_gc, bench_tenant_mix];
    for scenario in scenarios {
        for kind in [FtlKind::Tpftl, FtlKind::Dftl] {
            let greedy = scenario(kind, GcVariant::Greedy, 1, QUICK_GC_REQUESTS);
            let multi = scenario(kind, GcVariant::Multi, 1, QUICK_GC_REQUESTS);
            let (g, m) = (write_amp(&greedy), write_amp(&multi));
            assert!(
                m < g,
                "{} vs {} / {}: multi-stream write_amp {m:.3} did not improve on greedy {g:.3}",
                multi.scenario,
                greedy.scenario,
                kind.label()
            );
        }
    }
}

//! Trace fingerprints: the synthetic generators are pure functions of
//! `(spec, seed)`, and every golden in the workspace (FTL statistics,
//! benchmark metrics, `results/*.json`) silently depends on that. This test
//! pins the generators themselves, so a drift shows up here — in the crate
//! that caused it — rather than as an FTL golden moving three crates away.
//!
//! Each constant folds `(arrival_us.to_bits(), offset, len, dir)` over the
//! first 200 k requests. They were recorded before the sampler's lookup
//! tables existed (binary-search CDF lookup, per-draw `ln(1-p)`); a change
//! to the generator that is meant to be behaviour-preserving must leave
//! them alone. On a mismatch the failure message prints the whole table as
//! computed, ready to paste — but only do that for an *intended* change of
//! the traces, and expect every downstream golden to move with it.

use tpftl_trace::presets::Workload;
use tpftl_trace::{Dir, IoRequest, MultiTenantSpec, SyntheticSpec};

const REQUESTS: usize = 200_000;
const SEEDS: [u64; 3] = [1, 7, 2015];

/// Order-sensitive 64-bit fold (FNV-1a over the four fields, word-wise).
fn fingerprint(requests: impl Iterator<Item = IoRequest>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut n = 0usize;
    for r in requests {
        for word in [
            r.arrival_us.to_bits(),
            r.offset,
            u64::from(r.len),
            u64::from(r.dir == Dir::Write),
        ] {
            h = (h ^ word).wrapping_mul(PRIME);
        }
        n += 1;
    }
    assert_eq!(n, REQUESTS, "generator ended early");
    h
}

/// The benchmark's semi-sequential trace (`semiseq_learned`; also
/// `replay_semiseq` in `crates/bench`) on its 64 MB device.
fn semiseq() -> SyntheticSpec {
    SyntheticSpec {
        name: "semiseq".to_string(),
        requests: REQUESTS,
        address_bytes: 64 << 20,
        write_ratio: 0.1,
        seq_read_frac: 0.85,
        seq_write_frac: 0.5,
        mean_burst_len: 64.0,
        align_sectors: 8,
        ..SyntheticSpec::default()
    }
}

const PINNED: [(&str, [u64; 3]); 6] = [
    (
        "Financial1",
        [0xE72E6329B8FE3E6D, 0xB66BB05E06D14042, 0xA8E733A2D9FD20C5],
    ),
    (
        "Financial2",
        [0x7EEBA7E4FBB6E289, 0xE4E597FE3F24CA53, 0x8C07A5BF68DD977F],
    ),
    (
        "MSR-ts",
        [0x9ADDB7CE62A64C72, 0xCF5B8B4203DBEB48, 0xA8C6584C2514D2E7],
    ),
    (
        "MSR-src",
        [0x5F684149A4486F70, 0x67BB0DC5D8615AD3, 0x60DBA33F6A5D380A],
    ),
    (
        "semiseq",
        [0xB01924AADA9A5830, 0xBB2A08A6798FA697, 0x29CCC7A6BA61FA6A],
    ),
    (
        "multi_tenant",
        [0x7822D4CF28ED538B, 0x7F77F02C6C461944, 0xA6C4A12248609A2D],
    ),
];

#[test]
fn generators_are_bit_identical_to_the_recorded_traces() {
    let mut specs: Vec<SyntheticSpec> = Workload::ALL.iter().map(|w| w.spec(REQUESTS)).collect();
    specs.push(semiseq());
    let tenants = MultiTenantSpec {
        requests: REQUESTS,
        ..MultiTenantSpec::default()
    };

    let mut computed: Vec<(String, [u64; 3])> = specs
        .iter()
        .map(|s| (s.name.clone(), SEEDS.map(|seed| fingerprint(s.iter(seed)))))
        .collect();
    computed.push((
        tenants.name.clone(),
        SEEDS.map(|seed| fingerprint(tenants.iter(seed))),
    ));

    let same = computed.len() == PINNED.len()
        && computed
            .iter()
            .zip(&PINNED)
            .all(|((name, got), (want_name, want))| name == want_name && got == want);
    if !same {
        let table: String = computed
            .iter()
            .map(|(name, [a, b, c])| {
                format!("    ({name:?}, [{a:#018X}, {b:#018X}, {c:#018X}]),\n")
            })
            .collect();
        panic!("trace fingerprints moved (seeds {SEEDS:?}); computed:\n{table}");
    }
}

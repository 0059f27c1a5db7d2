//! Untimed correctness checks: is what the simulator produced right?
//!
//! A benchmark that only times can be sped up by breaking the program, so
//! every run ends with these, and each violation counts against the
//! requests attempted and turns the exit code non-zero.

use tpftl_core::recovery;
use tpftl_flash::{Lpn, OpPurpose, PageState};
use tpftl_sim::{RunReport, ShardedSsd, Ssd};
use tpftl_trace::ShardSplitter;

use crate::e2e::{BoxFtl, Device};
use crate::workloads::WorkloadDef;

/// 4 KB pages everywhere.
pub const PAGE_BYTES: u64 = 4096;

/// Violations found so far: all are counted, the first few are kept.
#[derive(Debug, Default)]
pub struct Violations {
    count: u64,
    messages: Vec<String>,
}

impl Violations {
    const KEPT: usize = 24;

    /// Records one violation.
    pub fn push(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < Self::KEPT {
            self.messages.push(message);
        }
    }

    /// Records `message()` unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.push(message());
        }
    }

    /// How many violations were recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The first few messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// What the trace did, from a second pass over the same seed: the host's
/// own record, independent of anything the device counted.
pub struct Shadow {
    /// Bit per logical page: did the trace write it?
    written: Vec<u64>,
    /// Page accesses.
    pub pages: u64,
    /// Page writes.
    pub page_writes: u64,
    /// Sub-requests after splitting over the workload's shards.
    pub sub_requests: u64,
}

impl Shadow {
    /// Replays the generator of `def` without a device.
    pub fn of(def: &WorkloadDef, requests: usize, seed: u64) -> Self {
        let logical_pages = def.config().logical_pages() as usize;
        let splitter = ShardSplitter::new(def.shards, PAGE_BYTES);
        let mut shadow = Shadow {
            written: vec![0; logical_pages.div_ceil(64)],
            pages: 0,
            page_writes: 0,
            sub_requests: 0,
        };
        for req in def.spec(requests).iter(seed) {
            splitter.split(&req, |_, _| shadow.sub_requests += 1);
            for page in req.pages(PAGE_BYTES) {
                shadow.pages += 1;
                if req.is_write() {
                    shadow.page_writes += 1;
                    shadow.written[page as usize / 64] |= 1 << (page % 64);
                }
            }
        }
        shadow
    }

    /// The logical pages the trace wrote, ascending.
    pub fn written(&self) -> impl Iterator<Item = Lpn> + '_ {
        self.written.iter().enumerate().flat_map(|(word, &bits)| {
            (0..64)
                .filter(move |bit| bits >> bit & 1 == 1)
                .map(move |bit| (word * 64 + bit) as Lpn)
        })
    }
}

/// Conservation identities of one report against the host's record: the
/// device counted the requests and pages the trace offered, and the flash
/// operations it counted per purpose add up to totals counted elsewhere
/// (the GC's victims and migrations, the device's erase counters, the
/// busy time).
pub fn check_conservation(
    report: &RunReport,
    shadow: &Shadow,
    def: &WorkloadDef,
    v: &mut Violations,
) {
    let (s, f, gc) = (&report.ftl_stats, &report.flash, &report.gc);
    let mut eq = |what: &str, got: u64, want: u64| {
        v.expect(got == want, || format!("{what}: {got}, expected {want}"));
    };
    eq("requests served", s.requests, shadow.sub_requests);
    eq("page accesses served", s.user_page_accesses(), shadow.pages);
    eq("page writes served", s.user_page_writes, shadow.page_writes);
    eq("lookups", s.lookups, shadow.pages);
    eq(
        "host data programs",
        f.of(OpPurpose::HostData).writes,
        shadow.page_writes,
    );
    eq(
        "GC data programs",
        f.of(OpPurpose::GcData).writes,
        gc.data_pages_migrated,
    );
    eq(
        "GC data reads",
        f.of(OpPurpose::GcData).reads,
        gc.data_pages_migrated,
    );
    eq(
        "erases",
        f.total_erases(),
        gc.data_victims + gc.trans_victims,
    );
    eq("erase counters", s.wear_sum, f.total_erases());
    let geom = def.config().geometry();
    let busy = f.total_reads() as f64 * geom.read_us
        + f.total_writes() as f64 * geom.write_us
        + f.total_erases() as f64 * geom.erase_us;
    v.expect((f.busy_us - busy).abs() <= busy * 1e-9, || {
        format!(
            "flash busy time {} us, operations add up to {busy} us",
            f.busy_us
        )
    });
}

/// Every page the trace wrote must resolve to a valid flash page tagged
/// with that LPN. `resolve` answers in the shard's local page numbers.
fn check_written<'a>(
    shard: &Ssd<BoxFtl>,
    lpns: impl Iterator<Item = (Lpn, Lpn)> + 'a,
    resolve: impl Fn(&Ssd<BoxFtl>, Lpn) -> Option<tpftl_flash::Ppn>,
    v: &mut Violations,
) {
    let flash = shard.env().flash();
    for (global, local) in lpns {
        match resolve(shard, local) {
            None => v.push(format!("written LPN {global} is unmapped")),
            Some(ppn) => {
                let state = flash.state(ppn);
                let tag = flash.tag(ppn);
                v.expect(state == Ok(PageState::Valid) && tag == Ok(local), || {
                    format!(
                        "written LPN {global} resolves to PPN {ppn}: state {state:?}, tag {tag:?}"
                    )
                });
            }
        }
    }
}

/// After a clean unmount the persisted mapping table and the physical
/// pages agree exactly, and every written page is found through it.
fn check_single(ssd: &mut Ssd<BoxFtl>, shadow: &Shadow, v: &mut Violations) {
    if let Err(e) = ssd.flush() {
        v.push(format!("flush failed: {e}"));
        return;
    }
    let verify = recovery::verify(ssd.env());
    for e in &verify.errors {
        v.push(format!("verify: {e}"));
    }
    check_written(
        ssd,
        shadow.written().map(|lpn| (lpn, lpn)),
        |ssd, lpn| recovery::lookup(ssd.env(), lpn),
        v,
    );
}

/// `ShardedSsd` hands out its shards read-only, so they cannot be flushed:
/// a written page is looked for in the shard's mapping cache first
/// (`Ftl::peek_cached`, side-effect free) and in the persisted table
/// otherwise, and `recovery::verify` — which needs a flushed cache — is
/// left to the single-queue workloads.
fn check_sharded(ssd: &ShardedSsd<BoxFtl>, shadow: &Shadow, v: &mut Violations) {
    let splitter = ShardSplitter::new(ssd.num_shards(), PAGE_BYTES);
    for index in 0..ssd.num_shards() {
        let lpns = shadow
            .written()
            .filter(|&lpn| splitter.shard_of(lpn as u64) == index)
            .map(|lpn| (lpn, splitter.local_page(lpn as u64) as Lpn));
        check_written(
            ssd.shard(index as usize),
            lpns,
            |shard, lpn| match shard.ftl().peek_cached(shard.env(), lpn) {
                Ok(Some(cached)) => cached,
                _ => recovery::lookup(shard.env(), lpn),
            },
            v,
        );
    }
}

/// Runs every check that applies to `device` after its last repetition.
/// `report` is the device's report from before this call (flushing moves
/// the counters).
pub fn check_device(
    device: &mut Device,
    report: &RunReport,
    shadow: &Shadow,
    def: &WorkloadDef,
    v: &mut Violations,
) {
    check_conservation(report, shadow, def, v);
    match device {
        Device::Single(ssd) => check_single(ssd, shadow, v),
        Device::Sharded(ssd) => check_sharded(ssd, shadow, v),
    }
}

//! One seeded simulation tester: every FTL under every axis at once.
//!
//! A [`Case`] picks FTL, GC policy, streams, topology, shards, backing,
//! power loss, cache and pre-fill for an 8 MB device replaying at most
//! 2 000 synthetic requests. [`run`] checks it against a host shadow of the
//! written LPNs (DESIGN.md §16 lists the checks), [`shrink`] cuts a failing
//! case down, and [`check`] panics with it as one line that the
//! `regressions` test below takes verbatim.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tpftl_core::blockmgr::BlockManager;
use tpftl_core::config::{GcPolicy, StreamCount};
use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Ftl, FtlKind, LearnedFtl, Zftl};
use tpftl_core::{driver, gc, recovery, FtlError, SsdConfig};
use tpftl_flash::{FaultMode, FaultPlan, Flash, Lpn, OpPurpose, Ppn, Vtpn};
use tpftl_rng::Rng64;
use tpftl_trace::{Dir, IoRequest, Locality, ShardSplitter, SyntheticSpec};

use crate::{CrashHarness, CrashOutcome, Ssd};

type Dyn = Box<dyn Ftl + Send>;
type Checked<T = ()> = Result<T, Failure>;

const PAGE: u64 = 4096;
const DEVICE_BYTES: u64 = 8 << 20;
/// The trace every case replays a prefix of.
const MAX_REQUESTS: usize = 2_000;
/// Requests between two side-effect-free probes.
const PROBE_EVERY: usize = 64;

/// Every registry kind (a few TPFTL ablations among them), a small ZFTL
/// that switches zones within a few hundred accesses, and a LearnedFTL
/// fitted exactly (ε = 0), which must then never mispredict.
const FTLS: &str = "dftl tpftl tpftl:- tpftl:b tpftl:rs tpftl:bc sftl cdftl learned \
                    learned:e0 optimal zftl zftl:4";

/// A power loss, and how many bytes of the fatal program's `[data][OOB]`
/// record reach a device file ([`FaultPlan::with_tear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The trigger.
    pub mode: FaultMode,
    /// The tear budget.
    pub tear: Option<u64>,
}

/// One test case; every field is an axis. `Debug` prints a literal that
/// compiles where this module and `FaultMode`'s variants are in scope.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Case {
    /// Seeds the trace.
    pub seed: u64,
    /// Requests replayed: a prefix of the trace.
    pub requests: usize,
    /// Request lengths are halved this many times.
    pub halvings: u32,
    /// Share of writes.
    pub write_ratio: f64,
    /// Mean request length, in 512 B sectors.
    pub sectors: f64,
    /// A `simulate --ftl` name, or `zftl:4`, `learned:e0`.
    pub ftl: &'static str,
    /// `GcPolicy::Windowed { window: 8 }` instead of greedy.
    pub windowed: bool,
    /// Data streams.
    pub streams: u32,
    /// 2 channels × 2 ways instead of 1×1.
    pub wide: bool,
    /// LPN-striped shards.
    pub shards: u32,
    /// Backed by a device file, and held to a RAM twin.
    pub file: bool,
    /// Power loss during the replay.
    pub fault: Option<Fault>,
    /// Cache bytes beyond the GTD, per shard.
    pub cache: usize,
    /// Pre-filled share of the logical space.
    pub prefill: f64,
    /// Share of the logical space the trace addresses.
    pub span: f64,
    /// The request at this index reads or writes the whole span.
    pub long: Option<usize>,
}

impl Case {
    /// The simplest case: TPFTL, greedy, one stream, 1×1, one shard, RAM,
    /// no fault, GTD + 10 KB, no pre-fill, 2 000 requests of 8 KB mean.
    pub fn plain(seed: u64) -> Self {
        Self {
            seed,
            requests: MAX_REQUESTS,
            write_ratio: 0.6,
            sectors: 16.0,
            ftl: "tpftl",
            streams: 1,
            shards: 1,
            cache: 10 << 10,
            span: 1.0,
            ..Self::default()
        }
    }

    /// The case `seed` picks. Invalid combinations are never generated:
    /// only persisting FTLs lose power; the FTLs that cache whole
    /// translation pages get 6 KB at least; the span leaves each shard the
    /// blocks its axes need.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut pick = |n: usize| rng.range_usize(0, n);
        let ftls: Vec<_> = FTLS.split_whitespace().collect();
        let ftl = ftls[pick(ftls.len())];
        let caches: &[usize] = match ["sftl", "cdftl", "zftl", "zftl:4"].contains(&ftl) {
            true => &[6 << 10, 10 << 10],
            false => &[256, 1 << 10, 4 << 10, 10 << 10, 16 << 10],
        };
        let mut case = Self {
            requests: [500, 1_000, MAX_REQUESTS][pick(3)],
            write_ratio: [0.3, 0.6, 0.9][pick(3)],
            sectors: [8.0, 16.0, 32.0][pick(3)],
            ftl,
            windowed: pick(2) == 0,
            streams: 1 + pick(3) as u32,
            wide: pick(2) == 0,
            shards: 1 + pick(2) as u32,
            cache: caches[pick(caches.len())],
            ..Self::plain(seed)
        };
        // Blocks the data cannot have: actives, translation pages, the GC
        // watermark and slack, and two blocks of garbage that keep a victim
        // reclaimable.
        let reserve = 2.0 * case.streams as f64 + 6.0;
        let shard = case.config().shard_config(case.shards);
        let blocks = shard.geometry().num_blocks as f64;
        let span = (blocks - reserve) / (blocks / (1.0 + shard.over_provision));
        case.span = (span * 100.0).floor().min(100.0) / 100.0;
        case.prefill = case.span * [0.0, 0.5, 1.0][pick(3)];
        case.file = pick(3) == 0;
        if case.file {
            // Every flash op of a file-backed device is a system call.
            case.requests = case.requests.min(500);
        }
        if persists(ftl) && pick(2) == 0 {
            // Half the plans strike a translation write, where ordering bugs
            // lose a table page.
            let mode = match pick(4) {
                0 => FaultMode::AtOp(rng.range_u64(0, 4_000)),
                1 => FaultMode::OnErase(rng.range_u64(0, 12)),
                _ => FaultMode::OnTranslationWrite(rng.range_u64(0, 8)),
            };
            // A tear ends in the OOB area past its magic, where only the
            // commit checksum tells the record from a valid one (cut shorter,
            // a file may hold a free page where RAM holds a torn one).
            let tear = rng.gen_bool(0.5).then(|| PAGE + 8 + rng.range_u64(0, 56));
            case.fault = Some(Fault { mode, tear });
        }
        // Rarely, one request covers the span: a prefetch or a write-back
        // that grows with the request shows there.
        if rng.gen_bool(0.125) {
            case.long = Some(rng.range_usize(0, case.requests));
        }
        case
    }

    /// The whole device's configuration; a shard's is its `shard_config`.
    pub fn config(&self) -> SsdConfig {
        let mut c = SsdConfig::paper_default(DEVICE_BYTES);
        c.cache_bytes = c.gtd_bytes() + self.cache * self.shards as usize;
        c.prefill_frac = self.prefill;
        c.streams = StreamCount(self.streams);
        if self.windowed {
            c.gc_policy = GcPolicy::Windowed { window: 8 };
        }
        if self.wide {
            (c.topology.channels, c.topology.ways) = (2, 2);
        }
        c
    }

    /// Each shard's share of the replayed requests, split as `ShardedSsd`
    /// splits them.
    pub fn shares(&self) -> Vec<Vec<IoRequest>> {
        let spec = SyntheticSpec {
            requests: MAX_REQUESTS,
            address_bytes: (DEVICE_BYTES as f64 * self.span) as u64 / PAGE * PAGE,
            write_ratio: self.write_ratio,
            mean_req_sectors: self.sectors,
            locality: Locality {
                regions: 64,
                theta: 1.0,
                active_frac: 1.0,
            },
            ..SyntheticSpec::default()
        };
        let split = ShardSplitter::new(self.shards, PAGE);
        let mut shares = vec![Vec::new(); self.shards as usize];
        for (i, mut req) in spec.iter(self.seed).take(self.requests).enumerate() {
            if self.long == Some(i) {
                (req.offset, req.len) = (0, spec.address_bytes as u32);
            }
            req.len = (req.len >> self.halvings).max(1);
            split.split(&req, |s, sub| shares[s as usize].push(sub));
        }
        shares
    }
}

/// The check that failed (DESIGN.md, *Proof layer*), and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The check.
    pub check: &'static str,
    /// What it saw.
    pub detail: String,
}

fn fail<T>(check: &'static str, detail: impl Debug) -> Checked<T> {
    let detail = format!("{detail:?}");
    Err(Failure { check, detail })
}

/// A simulator error as a failure of a check.
trait At<T> {
    fn at(self, check: &'static str) -> Checked<T>;
}

impl<T, E: Into<FtlError>> At<T> for Result<T, E> {
    fn at(self, check: &'static str) -> Checked<T> {
        self.or_else(|e| fail(check, e.into()))
    }
}

fn build(name: &str, c: &SsdConfig) -> tpftl_core::Result<Dyn> {
    Ok(match name {
        "learned:e0" => Box::new(LearnedFtl::with_epsilon(c, 0)?),
        "zftl:4" => Box::new(Zftl::new(c, 4)?),
        _ => FtlKind::parse(name).expect("an FTL name").build(c)?,
    })
}

/// Whether `name` keeps its mapping table in translation pages: all but
/// Optimal.
fn persists(name: &str) -> bool {
    name != "optimal"
}

/// A device file, deleted on drop.
struct Image(PathBuf);

impl Image {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("tpftl_tester_{}_{n}.img", std::process::id());
        Self(std::env::temp_dir().join(name))
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `case`; `Err` names the first check that failed. A panic in the
/// simulator is a failure too (check `panic`), so it shrinks like one.
pub fn run(case: &Case) -> Checked {
    let checked = catch_unwind(AssertUnwindSafe(|| {
        if case.fault.is_none() {
            return twin(case, drive).map(drop);
        }
        let vtpns = case.config().shard_config(case.shards).num_vtpns();
        for out in twin(case, crash)? {
            if let Some(e) = out.violations.iter().chain(&out.verify.errors).next() {
                return fail("judge", e);
            }
            // Program-before-invalidate: the power cut left every
            // translation page a valid copy.
            if out.recovery.translation_pages != vtpns {
                return fail("judge", out.recovery);
            }
        }
        Ok(())
    }));
    checked.unwrap_or_else(|panic| {
        let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
        fail("panic", text.or(panic.downcast_ref::<String>().cloned()))
    })
}

/// Runs `go` on `case` and, if it is file-backed, on its RAM twin, which
/// must observe exactly the same.
fn twin<T: PartialEq + Debug>(case: &Case, go: fn(&Case) -> Checked<Vec<T>>) -> Checked<Vec<T>> {
    let seen = go(case)?;
    if case.file {
        let mut ram = *case;
        ram.file = false;
        let ram = go(&ram)?;
        if let Some(i) = (0..seen.len().max(ram.len())).find(|&i| seen.get(i) != ram.get(i)) {
            return fail("twin", (seen.get(i), ram.get(i)));
        }
    }
    Ok(seen)
}

/// Fault cases: each shard's share runs to the power cut in
/// [`CrashHarness::run_to_crash`], which remounts and judges the shard.
fn crash(case: &Case) -> Checked<Vec<CrashOutcome>> {
    let fault = case.fault.expect("a fault case");
    let plan = FaultPlan::new(fault.mode);
    let plan = match fault.tear {
        Some(n) => plan.with_tear(n),
        None => plan,
    };
    let image = case.file.then(Image::new);
    let path = image.as_ref().map(|i| i.0.as_path());
    let mut outcomes = Vec::new();
    for trace in case.shares() {
        let config = case.config().shard_config(case.shards);
        let ftl = build(case.ftl, &config).at("build")?;
        let harness = CrashHarness { config, trace };
        outcomes.push(harness.run_to_crash(ftl, plan.clone(), path).at("crash")?);
    }
    Ok(outcomes)
}

/// Fault-free cases, shard by shard: each share replays on its own `Ssd`,
/// checking counters after every request and probing every
/// [`PROBE_EVERY`], then come the end-of-case checks. Returns what a
/// file-backed run must reproduce on RAM: per shard the report, the page
/// states after the power cut and, for persisting FTLs, the mount report
/// and the mounted table.
fn drive(case: &Case) -> Checked<Vec<String>> {
    let config = case.config().shard_config(case.shards);
    let pages = config.logical_pages();
    let mut seen = Vec::new();
    for trace in case.shares() {
        let image = case.file.then(Image::new);
        let flash = match &image {
            None => Flash::new(config.geometry()),
            Some(image) => Flash::create_file(config.geometry(), &image.0),
        };
        let ftl = build(case.ftl, &config).at("build")?;
        let mut ssd = Ssd::with_flash(ftl, config.clone(), flash.at("build")?).at("build")?;
        let mut written = vec![false; pages as usize];
        written[..(pages as f64 * config.prefill_frac) as usize].fill(true);
        for (round, chunk) in trace.chunks(PROBE_EVERY).enumerate() {
            for req in chunk {
                ssd.serve(req).at("serve")?;
                if req.is_write() {
                    req.pages(PAGE).for_each(|p| written[p as usize] = true);
                }
                counters(case, &ssd)?;
            }
            probe(case, &ssd, &written, Some(round))?;
        }
        probe(case, &ssd, &written, None)?;

        // Read-your-writes on the host path, page by page: a written page
        // reads exactly one data page, which `read_data_page` checks holds
        // its LPN; an unwritten one reads none.
        let reads = |ssd: &Ssd<Dyn>| ssd.env().flash().stats().of(OpPurpose::HostData).reads;
        let before = reads(&ssd);
        for lpn in 0..pages {
            let req = IoRequest::new(0.0, lpn * PAGE, 1, Dir::Read);
            ssd.serve(&req).at("readback")?;
        }
        let want = written.iter().filter(|&&w| w).count() as u64;
        if reads(&ssd) - before != want {
            return fail("readback", (reads(&ssd) - before, want));
        }

        seen.push(format!("{:?}", ssd.report()));
        if persists(case.ftl) {
            flush(&mut ssd, &written)?;
        }
        // The power cut: what survives is the flash — for a file-backed
        // device, what the file alone mounts as (kept in RAM from there on).
        let gtd = gtd(ssd.env());
        let mut flash = ssd.into_env().into_flash();
        if let Some(image) = &image {
            drop(flash);
            flash = Flash::open_file(&image.0).at("remount")?.clone();
        }
        seen.push(format!("{:?}", flash.scan_valid().collect::<Vec<_>>()));
        if persists(case.ftl) {
            seen.push(remount(case, flash, &gtd, &written)?);
        }
    }
    Ok(seen)
}

/// The checks on counters, after every request: the cache budget holds,
/// an exactly fitted LearnedFTL has not mispredicted, a table wholly in
/// RAM has absorbed every GC update, and every page access was one lookup.
fn counters(case: &Case, ssd: &Ssd<Dyn>) -> Checked {
    let (ftl, env, stats) = (ssd.ftl(), ssd.env(), &ssd.env().stats);
    let budget = env.config().usable_cache_bytes();
    if ftl.uses_translation_pages() && ftl.cache_bytes_used() > budget {
        return fail("budget", (ftl.cache_bytes_used(), budget));
    }
    if case.ftl == "learned:e0" && stats.mispredicts > 0 {
        return fail("mispredict", stats.mispredicts);
    }
    if !ftl.uses_translation_pages() && stats.gc_hits != stats.gc_updates {
        return fail("gc-hits", (stats.gc_hits, stats.gc_updates));
    }
    if stats.lookups != stats.user_page_accesses() {
        return fail("lookups", (stats.lookups, stats.user_page_accesses()));
    }
    Ok(())
}

/// The side-effect-free checks on the device: exactly the written LPNs own
/// a valid page, one each; a sample of LPNs (an eighth per `round`, all at
/// `None`) resolves, through the cache or else the persisted table, to that
/// page; the free pool and the valid counts agree with the flash and with a
/// block manager rebuilt from it.
fn probe(case: &Case, ssd: &Ssd<Dyn>, written: &[bool], round: Option<usize>) -> Checked {
    let (ftl, env, flash) = (ssd.ftl(), ssd.env(), ssd.env().flash());
    let geom = flash.geometry();
    let mut owner = vec![None; written.len()];
    let mut valid = vec![0; geom.num_blocks];
    for (ppn, tag, is_tp) in flash.scan_valid() {
        valid[geom.block_of(ppn) as usize] += 1;
        if !is_tp && owner[tag as usize].replace(ppn).is_some() {
            return fail("owners", format!("LPN {tag} owns two valid pages"));
        }
    }
    for (lpn, &owned) in owner.iter().enumerate() {
        if owned.is_some() != written[lpn] {
            return fail("owners", format!("LPN {lpn} owns {owned:?}"));
        }
        if ftl.uses_translation_pages() && round.is_none_or(|r| (lpn + r) % 8 == 0) {
            let cached = ftl.peek_cached(env, lpn as Lpn).at("lookup")?;
            let got = cached.unwrap_or_else(|| recovery::lookup(env, lpn as Lpn));
            if got != owned {
                return fail("lookup", format!("LPN {lpn}: {got:?}, not {owned:?}"));
            }
        }
    }
    let rebuilt = BlockManager::rebuild(flash, case.streams).at("blocks")?;
    if rebuilt.free_blocks() != env.free_blocks() {
        return fail("blocks", (env.free_blocks(), rebuilt.free_blocks()));
    }
    for (b, &n) in valid.iter().enumerate() {
        if flash.valid_pages_in(b as u32).at("blocks")? != n {
            return fail("blocks", format!("block {b} miscounts its valid pages"));
        }
    }
    Ok(())
}

/// The clean unmount: a flush leaves no dirty entry behind, a second flush
/// writes no translation page unless its GC ran (which may dirty entries),
/// and the persisted table is consistent and maps exactly the written LPNs.
fn flush(ssd: &mut Ssd<Dyn>, written: &[bool]) -> Checked {
    ssd.flush().at("flush")?;
    let cached = ssd.ftl().cached_tp_distribution();
    if let Some(dirty) = cached.iter().find(|d| d.dirty > 0) {
        return fail("flush", dirty);
    }
    let io = |ssd: &Ssd<Dyn>| {
        let flash = ssd.env().flash();
        let writes = flash.stats().of(OpPurpose::Translation).writes;
        (writes, flash.total_erase_count())
    };
    let before = io(ssd);
    ssd.flush().at("flush")?;
    let after = io(ssd);
    if after.0 != before.0 && after.1 == before.1 {
        return fail("flush", ("a second flush wrote", after.0 - before.0));
    }
    let env = ssd.env();
    if let Some(e) = recovery::verify(env).errors.first() {
        return fail("verify", e);
    }
    let mut lpns = 0..written.len();
    match lpns.find(|&l| recovery::lookup(env, l as Lpn).is_some() != written[l]) {
        Some(lpn) => fail("verify", format!("LPN {lpn} is not as the shadow has it")),
        None => Ok(()),
    }
}

fn gtd(env: &SsdEnv) -> Vec<Option<Ppn>> {
    let gtd = env.gtd();
    (0..gtd.len() as Vtpn).map(|v| gtd.get(v)).collect()
}

/// A flushed shard after the power cut mounts with nothing to repair, its
/// GTD and its wear as they were; then a different persisting FTL, with
/// room to cache, reads every written LPN back, rewrites a quarter of the
/// space until GC must erase, and leaves the table consistent. Returns the
/// mount report and the mounted table.
fn remount(case: &Case, flash: Flash, gtd0: &[Option<Ppn>], written: &[bool]) -> Checked<String> {
    let config = case.config().shard_config(case.shards);
    let erases = flash.total_erase_count();
    let (mut env, r) = recovery::crash_mount(flash, config.clone()).at("remount")?;
    let repairs = r.duplicate_data_discarded
        + r.duplicate_translation_discarded
        + r.mappings_recovered
        + r.stale_cleared
        + r.translation_pages_rewritten;
    let visits = r.reconcile_visits == config.num_vtpns();
    let wear = env.flash().total_erase_count() == erases;
    if repairs > 0 || !visits || !wear || gtd(&env) != gtd0 {
        return fail("remount", r);
    }
    let table = (0..written.len() as Lpn).map(|l| recovery::lookup(&env, l));
    let seen = format!("{r:?} {:?}", table.collect::<Vec<_>>());

    let readers = ["dftl", "tpftl", "learned"];
    let mut name = readers[case.seed as usize % 3];
    if name == case.ftl {
        name = readers[(case.seed as usize + 1) % 3];
    }
    let mut roomy = config.clone();
    roomy.cache_bytes = config.gtd_bytes() + (16 << 10);
    let mut ftl = build(name, &roomy).at("build")?;
    let pages = config.logical_pages() as Lpn;
    let mut sides = Sides::new(env.flash())?;
    for lpn in (0..pages).filter(|&l| written[l as usize]) {
        gc::ensure_free(&mut ftl, &mut env).at("reader")?;
        sides.note(env.flash(), true)?;
        let ppn = ftl.translate(&mut env, lpn, &AccessCtx::single(false));
        let Some(ppn) = ppn.at("reader")? else {
            return fail("reader", format!("{name} lost LPN {lpn}"));
        };
        env.read_data_page(ppn, lpn).at("reader")?;
        sides.note(env.flash(), false)?;
    }
    let write = AccessCtx::single(true);
    for lpn in (0..2 * pages).map(|i| i % (pages / 4)) {
        // The access's own `ensure_free` then finds nothing to collect.
        gc::ensure_free(&mut ftl, &mut env).at("reader")?;
        sides.note(env.flash(), true)?;
        driver::serve_page_access(&mut ftl, &mut env, lpn, write).at("reader")?;
        sides.note(env.flash(), false)?;
    }
    if env.flash().total_erase_count() == erases {
        return fail("reader", "GC erased nothing after the remount");
    }
    recovery::flush_cache(&mut ftl, &mut env).at("reader")?;
    match recovery::verify(&env).errors.first() {
        Some(e) => fail("reader", e),
        None => Ok(seen),
    }
}

/// Which side programmed each block since its last erase — the background
/// lane that collections run in, or the host — read off the blocks' erase
/// counts and write pointers between steps that only one side takes. No
/// block may hold pages of both (check `lanes`).
struct Sides {
    /// Per block at the last step: (erase count, free pages), and the side
    /// that has programmed it since its erase (`Some(true)`: the lane).
    seen: Vec<((u64, usize), Option<bool>)>,
}

impl Sides {
    fn new(flash: &Flash) -> Checked<Self> {
        let blocks = 0..flash.geometry().num_blocks;
        let seen = blocks.map(|b| Ok((Self::read(flash, b)?, None)));
        Ok(Self {
            seen: seen.collect::<Checked<_>>()?,
        })
    }

    /// Block `b`'s erase count and free pages.
    fn read(flash: &Flash, b: usize) -> Checked<(u64, usize)> {
        let b = b as u32;
        Ok((
            flash.erase_count(b).at("lanes")?,
            flash.free_pages_in(b).at("lanes")?,
        ))
    }

    /// Attributes every page programmed since the last step to the lane
    /// (`lane`) or to the host.
    fn note(&mut self, flash: &Flash, lane: bool) -> Checked {
        let pages = flash.geometry().pages_per_block;
        for (b, (last, side)) in self.seen.iter_mut().enumerate() {
            let (erases, free) = Self::read(flash, b)?;
            if erases != last.0 {
                (*last, *side) = ((erases, pages), None);
            }
            if free < last.1 {
                if *side == Some(!lane) {
                    let who = if lane { "the lane" } else { "the host" };
                    return fail(
                        "lanes",
                        format!("{who} programmed block {b}, open to the other"),
                    );
                }
                *side = Some(lane);
            }
            last.1 = free;
        }
        Ok(())
    }
}

/// Replaces `best` with `case` if `case` fails the same check.
fn keep(best: &mut (Case, Failure), case: Case) -> bool {
    match run(&case) {
        Err(f) if f.check == best.1.check => {
            *best = (case, f);
            true
        }
        _ => false,
    }
}

/// Shrinks a failing `case` while the same check keeps failing: drops
/// trace suffixes, halves request sizes, then simplifies the axes (one
/// shard, RAM, 1×1, one stream, greedy, no fault), and again until nothing
/// shrinks. Returns the smallest case and its failure.
pub fn shrink(case: &Case, failure: &Failure) -> (Case, Failure) {
    let mut best = (*case, failure.clone());
    let simpler: [fn(&mut Case); 8] = [
        |c| c.halvings = (c.halvings + 1).min(6),
        |c| c.long = None,
        |c| c.shards = 1,
        |c| c.file = false,
        |c| c.wide = false,
        |c| c.streams = 1,
        |c| c.windowed = false,
        |c| c.fault = None,
    ];
    loop {
        let before = best.0;
        let mut cut = best.0.requests;
        while cut > 0 {
            let requests = best.0.requests.saturating_sub(cut);
            if requests == best.0.requests || !keep(&mut best, Case { requests, ..before }) {
                cut /= 2;
            }
        }
        for simplify in simpler {
            let mut c = best.0;
            simplify(&mut c);
            while c != best.0 && keep(&mut best, c) {
                simplify(&mut c);
            }
        }
        if best.0 == before {
            return best;
        }
    }
}

/// Runs `case`; on failure, panics with the failure and the shrunk case on
/// one line.
pub fn check(case: &Case) {
    if let Err(failure) = run(case) {
        let (small, failure) = shrink(case, &failure);
        panic!("{failure:?}\nshrunk to:\n{small:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_parallel_with;

    /// Seeds per run: about 20 s on two cores in the debug tier-1 run,
    /// eight times as many in optimized builds.
    const SEEDS: u64 = if cfg!(debug_assertions) { 800 } else { 6_400 };

    #[test]
    fn seeded_cases() {
        let seeds = (0..SEEDS).collect();
        let failed = run_parallel_with(seeds, None, |&s| run(&Case::from_seed(s)).is_err());
        if let Some(seed) = failed.iter().position(|&f| f) {
            check(&Case::from_seed(seed as u64));
        }
    }

    /// Shrunk failures, pasted verbatim from `check`'s panic message: the
    /// cases that caught a program-before-invalidate swap, a skipped GC
    /// absorb, an off-by-one split, a missing GC slack, a torn record read
    /// as valid, a TPFTL without batch update whose prefetch for one long
    /// request wrote back a page per evicted entry until the free pool ran
    /// dry, a `learned:e0` replay that emptied the pool when the slack had
    /// no block for the lane's own open blocks (`streams − 1`), and a
    /// LearnedFTL replay that emptied it when the slack was `streams`
    /// without the floor that keeps the low watermark at four.
    #[rustfmt::skip]
    #[test]
    fn regressions() {
        use FaultMode::{AtOp, OnErase, OnTranslationWrite};
        for case in [
            Case { seed: 630, requests: 358, halvings: 0, write_ratio: 0.9, sectors: 32.0, ftl: "cdftl", windowed: false, streams: 1, wide: false, shards: 1, file: false, fault: Some(Fault { mode: OnTranslationWrite(4), tear: Some(4123) }), cache: 10240, prefill: 0.0, span: 0.77, long: None },
            Case { seed: 3, requests: 528, halvings: 0, write_ratio: 0.9, sectors: 32.0, ftl: "dftl", windowed: false, streams: 1, wide: false, shards: 2, file: false, fault: Some(Fault { mode: OnErase(5), tear: Some(4131) }), cache: 4096, prefill: 0.0, span: 0.66, long: None },
            Case { seed: 9, requests: 265, halvings: 0, write_ratio: 0.3, sectors: 32.0, ftl: "learned:e0", windowed: true, streams: 1, wide: false, shards: 1, file: false, fault: None, cache: 16384, prefill: 0.9, span: 0.9, long: None },
            Case { seed: 283, requests: 1537, halvings: 0, write_ratio: 0.9, sectors: 32.0, ftl: "tpftl:-", windowed: false, streams: 2, wide: false, shards: 2, file: false, fault: None, cache: 1024, prefill: 0.27, span: 0.54, long: None },
            Case { seed: 0, requests: 137, halvings: 0, write_ratio: 0.6, sectors: 8.0, ftl: "tpftl:bc", windowed: false, streams: 1, wide: false, shards: 1, file: true, fault: Some(Fault { mode: AtOp(375), tear: Some(4126) }), cache: 1024, prefill: 0.0, span: 0.66, long: None },
            Case { seed: 9, requests: 222, halvings: 0, write_ratio: 0.3, sectors: 32.0, ftl: "learned:e0", windowed: false, streams: 1, wide: false, shards: 1, file: false, fault: None, cache: 16384, prefill: 0.9, span: 0.9, long: None },
            Case { seed: 37472, requests: 84, halvings: 0, write_ratio: 0.6, sectors: 32.0, ftl: "learned", windowed: false, streams: 1, wide: false, shards: 1, file: false, fault: Some(Fault { mode: AtOp(598), tear: None }), cache: 10240, prefill: 0.9, span: 0.9, long: None },
            Case { seed: 2066, requests: 116, halvings: 0, write_ratio: 0.9, sectors: 8.0, ftl: "tpftl:rs", windowed: false, streams: 1, wide: false, shards: 1, file: false, fault: None, cache: 1024, prefill: 0.45, span: 0.9, long: Some(115) },
        ] {
            check(&case);
        }
    }
}

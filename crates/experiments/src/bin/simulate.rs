//! `simulate` — run one ad-hoc SSD simulation and print its report.
//!
//! `simulate --help` prints the options (`USAGE`).

use std::process::ExitCode;

use tpftl_core::config::GcPolicy;
use tpftl_core::ftl::FtlKind;
use tpftl_sim::{OpenLoopOpts, ShardedSsd, Ssd};
use tpftl_trace::presets::Workload;
use tpftl_trace::{parse, IoRequest};

/// The options, printed by `--help`; the `--ftl` names are the
/// registry's command-line names (`FtlKind::cli_names`).
const USAGE: &str = "\
usage: simulate [options]
  --ftl NAME          dftl | tpftl | tpftl:FLAGS | sftl | cdftl | optimal |
                      learned (default tpftl); FLAGS is a subset
                      of rsbc, or - for the bare two-level TPFTL
  --workload NAME     financial1|financial2|msr-ts|msr-src (default financial1)
  --trace FILE        replay an SPC/MSR trace file instead of a preset
  --requests N        synthetic request count              (default 200000)
  --seed N            generator seed                       (default 2015)
  --cache-bytes N     total mapping-cache budget incl. GTD
  --cache-frac F      budget as a fraction of the full table
  --prefill F         pre-written fraction of the logical space (default 1
                      for the Financial presets, else 0)
  --gc POLICY         greedy | windowed:N — score the N least-valid blocks
                      by cost-benefit; greedy is windowed:1 (default:
                      windowed:64 where a collection pass spans more than
                      one block, as on the Financial and MSR devices,
                      else greedy)
  --streams N         hot/cold data streams for GC data separation
                      (default 1 = no separation)
  --buffer PAGES      host write buffer size (default none)
  --shards N          replay on the sharded multi-queue engine with N
                      LPN-striped shards (power of two, default 1)
  --channels N        flash channels for the unit-clock timing model
                      (default 1; ops on distinct channels overlap)
  --ways N            ways (dies) per channel                (default 1)
  --bus-us F          channel bus transfer time per page in µs
                      (default 0 = bus not modeled)
  --backing PATH      mirror the flash array to a persistent device
                      file at PATH (created/truncated; fsynced after
                      the run). Single-queue engine only.
  --open-loop RATE    drive the trace open-loop at RATE requests per
                      second of wall-clock time through the sharded
                      engine's NVMe-style queue pairs and report
                      offered vs achieved throughput with response
                      percentiles measured against the arrival
                      schedule (no coordinated omission)
  --qd N              per-shard submission-queue depth for --open-loop
                      (power of two, default 64)
  --json              emit the full RunReport as JSON
  --help, -h          print this and exit";

struct Options {
    ftl: FtlKind,
    workload: Workload,
    trace: Option<String>,
    requests: usize,
    seed: u64,
    cache_bytes: Option<usize>,
    cache_frac: Option<f64>,
    prefill: Option<f64>,
    gc: Option<GcPolicy>,
    streams: u32,
    buffer: usize,
    shards: u32,
    channels: u32,
    ways: u32,
    bus_us: f64,
    backing: Option<String>,
    open_loop: Option<f64>,
    qd: usize,
    json: bool,
}

/// The options, or `None` for `--help`.
fn parse_args() -> Result<Option<Options>, String> {
    let mut o = Options {
        ftl: FtlKind::Tpftl,
        workload: Workload::Financial1,
        trace: None,
        requests: 200_000,
        seed: 2015,
        cache_bytes: None,
        cache_frac: None,
        prefill: None,
        gc: None,
        streams: 1,
        buffer: 0,
        shards: 1,
        channels: 1,
        ways: 1,
        bus_us: 0.0,
        backing: None,
        open_loop: None,
        qd: 64,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--ftl" => {
                let name = value("--ftl")?;
                o.ftl = FtlKind::parse(&name).ok_or_else(|| format!("unknown FTL {name}"))?
            }
            "--workload" => {
                o.workload = match value("--workload")?.as_str() {
                    "financial1" => Workload::Financial1,
                    "financial2" => Workload::Financial2,
                    "msr-ts" => Workload::MsrTs,
                    "msr-src" => Workload::MsrSrc,
                    other => return Err(format!("unknown workload {other}")),
                }
            }
            "--trace" => o.trace = Some(value("--trace")?),
            "--requests" => {
                o.requests = value("--requests")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--cache-bytes" => {
                o.cache_bytes = Some(
                    value("--cache-bytes")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--cache-frac" => {
                let frac: f64 = value("--cache-frac")?.parse().map_err(|e| format!("{e}"))?;
                if !(frac > 0.0 && frac <= 1.0) {
                    return Err(format!("--cache-frac must be in (0, 1], got {frac}"));
                }
                o.cache_frac = Some(frac);
            }
            "--prefill" => {
                let frac: f64 = value("--prefill")?.parse().map_err(|e| format!("{e}"))?;
                if !(0.0..=1.0).contains(&frac) {
                    return Err(format!("--prefill must be in [0, 1], got {frac}"));
                }
                o.prefill = Some(frac);
            }
            "--gc" => {
                let v = value("--gc")?;
                o.gc = Some(match v.as_str() {
                    "greedy" => GcPolicy::Greedy,
                    s if s.starts_with("windowed:") => GcPolicy::Windowed {
                        window: s["windowed:".len()..].parse().map_err(|e| format!("{e}"))?,
                    },
                    // Removed policies name what replaced them.
                    "cost-benefit" => {
                        return Err("--gc cost-benefit was removed: use --gc windowed:64".into())
                    }
                    s if s.starts_with("wear-aware") => {
                        return Err(format!(
                            "--gc {s} was removed: use --streams N --gc windowed:K \
                             (wear leveling is the multi-stream turn-over)"
                        ))
                    }
                    other => return Err(format!("unknown GC policy {other}")),
                })
            }
            "--streams" => {
                o.streams = value("--streams")?.parse().map_err(|e| format!("{e}"))?;
                if o.streams == 0 {
                    return Err("--streams must be at least 1".to_string());
                }
            }
            "--buffer" => o.buffer = value("--buffer")?.parse().map_err(|e| format!("{e}"))?,
            "--shards" => {
                o.shards = value("--shards")?.parse().map_err(|e| format!("{e}"))?;
                if !o.shards.is_power_of_two() {
                    return Err(format!("--shards must be a power of two, got {}", o.shards));
                }
            }
            "--channels" => {
                o.channels = value("--channels")?.parse().map_err(|e| format!("{e}"))?
            }
            "--ways" => o.ways = value("--ways")?.parse().map_err(|e| format!("{e}"))?,
            "--bus-us" => o.bus_us = value("--bus-us")?.parse().map_err(|e| format!("{e}"))?,
            "--backing" => o.backing = Some(value("--backing")?),
            "--open-loop" => {
                let rate: f64 = value("--open-loop")?.parse().map_err(|e| format!("{e}"))?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("--open-loop rate must be positive, got {rate}"));
                }
                o.open_loop = Some(rate);
            }
            "--qd" => {
                o.qd = value("--qd")?.parse().map_err(|e| format!("{e}"))?;
                if !o.qd.is_power_of_two() {
                    return Err(format!("--qd must be a power of two, got {}", o.qd));
                }
            }
            "--json" => o.json = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(o))
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\nrun `simulate --help` for the options");
            return ExitCode::FAILURE;
        }
    };

    // Trace first (it determines the address space when present).
    let trace: Vec<IoRequest> = match &o.trace {
        Some(path) => {
            let content = match std::fs::read_to_string(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse::parse_auto(&content) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => o.workload.spec(o.requests).generate(o.seed),
    };

    let logical = match &o.trace {
        Some(_) => {
            let max_end = trace.iter().map(IoRequest::end).max().unwrap_or(1);
            max_end.div_ceil(256 * 1024).max(16) * 256 * 1024
        }
        None => o.workload.address_bytes(),
    };
    let mut config = tpftl_core::SsdConfig::paper_default(logical);
    if let Some(f) = o.cache_frac {
        config = config.with_cache_fraction(f);
    }
    if let Some(b) = o.cache_bytes {
        config.cache_bytes = b;
    }
    config.prefill_frac = o.prefill.unwrap_or(match o.workload {
        Workload::Financial1 | Workload::Financial2 if o.trace.is_none() => 1.0,
        _ => 0.0,
    });
    if let Some(gc) = o.gc {
        config.gc_policy = gc;
    }
    config.streams = tpftl_core::config::StreamCount(o.streams);
    config.topology.channels = o.channels;
    config.topology.ways = o.ways;
    config.topology.bus_us = o.bus_us;
    if let Err(e) = config.topology.validate() {
        eprintln!("invalid topology: {e}");
        return ExitCode::FAILURE;
    }

    // Both sharded modes go through the one multi-queue runner.
    if o.open_loop.is_some() || o.shards > 1 {
        if o.buffer > 0 || o.backing.is_some() {
            eprintln!(
                "--buffer/--backing are not supported with --shards/--open-loop \
                 (single-queue engine only)"
            );
            return ExitCode::FAILURE;
        }
        if !config.supports_shards(o.shards) {
            eprintln!(
                "cannot split {} logical pages into {} shards",
                config.logical_pages(),
                o.shards
            );
            return ExitCode::FAILURE;
        }
        let mut ssd = match ShardedSsd::new(&config, o.shards, |_, c| o.ftl.build(c)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot build sharded SSD: {e}");
                return ExitCode::FAILURE;
            }
        };
        let started = std::time::Instant::now();
        let outcome = match o.open_loop {
            None => ssd.run(trace).map(|report| (report, None)),
            Some(offered_rps) => {
                let opts = OpenLoopOpts {
                    offered_rps,
                    queue_depth: o.qd,
                };
                ssd.run_open_loop(trace, opts)
                    .map(|out| (out.report.clone(), Some(out)))
            }
        };
        let (report, open) = match outcome {
            Ok(r) => r,
            Err(e) => {
                eprintln!("simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if o.json {
            use serde_json::Value;
            let report = serde_json::to_value(&report).expect("serializable");
            let doc = match &open {
                None => report,
                Some(out) => Value::Object(vec![
                    ("offered_rps".to_string(), Value::Float(out.offered_rps)),
                    ("achieved_rps".to_string(), Value::Float(out.achieved_rps)),
                    ("requests".to_string(), Value::UInt(out.requests)),
                    ("sub_requests".to_string(), Value::UInt(out.sub_requests)),
                    ("wall_us".to_string(), Value::Float(out.wall_us)),
                    ("resp_avg_us".to_string(), Value::Float(out.resp_avg_us)),
                    ("resp_p50_us".to_string(), Value::Float(out.resp_p50_us)),
                    ("resp_p99_us".to_string(), Value::Float(out.resp_p99_us)),
                    ("resp_p999_us".to_string(), Value::Float(out.resp_p999_us)),
                    ("backlog_peak".to_string(), Value::UInt(out.backlog_peak)),
                    ("parks".to_string(), Value::UInt(out.doorbells.parks)),
                    ("wakeups".to_string(), Value::UInt(out.doorbells.wakeups)),
                    ("report".to_string(), report),
                ]),
            };
            println!(
                "{}",
                serde_json::to_string_pretty(&doc).expect("serializable")
            );
            return ExitCode::SUCCESS;
        }
        print_report(&report.merged, &config, report.merged.write_amplification());
        println!(
            "shards:              {} (per-shard requests {:?}, imbalance {:.3})",
            o.shards, report.load.requests, report.load.imbalance
        );
        let Some(out) = open else {
            println!("wall clock:          {:.2?}", started.elapsed());
            return ExitCode::SUCCESS;
        };
        println!(
            "open loop:           offered {:.0} req/s, achieved {:.0} req/s (qd {})",
            out.offered_rps, out.achieved_rps, o.qd
        );
        println!(
            "wall response:       avg {:.1} / p50 {:.1} / p99 {:.1} / p999 {:.1} us",
            out.resp_avg_us, out.resp_p50_us, out.resp_p99_us, out.resp_p999_us
        );
        println!(
            "queueing:            backlog peak {}, {} parks / {} wakeups",
            out.backlog_peak, out.doorbells.parks, out.doorbells.wakeups
        );
        return ExitCode::SUCCESS;
    }

    let ftl = match o.ftl.build(&config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot build FTL: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ssd = match &o.backing {
        None => match Ssd::new(ftl, config.clone()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot build SSD: {e}");
                return ExitCode::FAILURE;
            }
        },
        Some(path) => {
            let flash = match tpftl_flash::Flash::create_file(config.geometry(), path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create backing file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Ssd::with_flash(ftl, config.clone(), flash) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot build SSD: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    if o.buffer > 0 {
        ssd = ssd.with_write_buffer(o.buffer);
    }

    let started = std::time::Instant::now();
    let report = match ssd.run(trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if ssd.flush_buffer().is_err() {
        eprintln!("warning: buffer flush failed");
    }
    let buffer_stats = ssd.buffer_stats();
    // Over every page the host wrote, buffered ones included, and every
    // flash write, the flush's included.
    let write_amplification = ssd
        .report()
        .flash
        .write_amplification(ssd.host_page_writes())
        .unwrap_or(0.0);
    if o.backing.is_some() {
        // Make the finished image durable on real media before reporting.
        let mut flash = ssd.into_env().into_flash();
        if let Err(e) = flash.sync_backing() {
            eprintln!("warning: backing sync failed: {e}");
        }
    }

    if o.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable")
        );
        return ExitCode::SUCCESS;
    }
    print_report(&report, &config, write_amplification);
    if let Some(b) = buffer_stats {
        println!(
            "write buffer:        {} absorbed, {} inserted, {} read hits",
            b.write_absorbed, b.write_inserted, b.read_hits
        );
    }
    if let Some(path) = &o.backing {
        println!("backing file:        {path} (synced)");
    }
    println!("wall clock:          {:.2?}", started.elapsed());
    ExitCode::SUCCESS
}

fn print_report(
    report: &tpftl_sim::RunReport,
    config: &tpftl_core::SsdConfig,
    write_amplification: f64,
) {
    println!("ftl:                 {}", report.ftl);
    println!(
        "device:              {} MB, cache {} B",
        config.logical_bytes >> 20,
        config.cache_bytes
    );
    let policy = match config.gc_policy {
        GcPolicy::Greedy => "greedy".to_string(),
        GcPolicy::Windowed { window } => format!("windowed:{window}"),
    };
    println!("gc policy:           {policy}");
    println!("requests:            {}", report.ftl_stats.requests);
    println!(
        "page accesses:       {}",
        report.ftl_stats.user_page_accesses()
    );
    println!("hit ratio:           {:.2}%", report.hit_ratio() * 100.0);
    println!(
        "P(replace dirty):    {:.2}%",
        report.dirty_replacement_prob() * 100.0
    );
    println!(
        "translation R/W:     {} / {}",
        report.translation_reads(),
        report.translation_writes()
    );
    let write_backs = report.gc_miss_write_backs();
    println!(
        "GC-miss write-backs: {write_backs} ({:.2} per data victim)",
        write_backs as f64 / report.gc.data_victims.max(1) as f64
    );
    println!("write amplification: {write_amplification:.3}");
    println!(
        "gc copy amp:         {:.3} (erase-count CV {:.3}, max {})",
        report.write_amp(),
        report.erase_cv(),
        report.erase_max
    );
    println!(
        "block erases:        {} in {} collection passes",
        report.erase_count(),
        report.gc.passes
    );
    println!(
        "GC moves held:       {} at most per pass ({} B beside the cache)",
        report.gc.moves_peak,
        report.gc.moves_peak * 8
    );
    println!("avg response:        {:.1} us", report.sim.resp_avg_us);
    let sim = &report.sim;
    println!(
        "topology:            {} channel(s) x {} way(s)",
        sim.channels, sim.ways
    );
    println!(
        "sim device time:     {:.1} us busy, makespan {:.1} us, busiest unit {:.1} us",
        sim.device_us, sim.makespan_us, sim.busiest_unit_us
    );
    println!(
        "sim response:        avg {:.1} / p50 {:.1} / p99 {:.1} / p999 {:.1} us",
        sim.resp_avg_us, sim.resp_p50_us, sim.resp_p99_us, sim.resp_p999_us
    );
    let responses = sim.resp_avg_us * report.ftl_stats.requests as f64;
    println!(
        "sim GC lane:         stall {:.1} us ({:.2}% of response), {} forced drains, {:.1} us pending",
        sim.gc_stall_us,
        if responses > 0.0 {
            sim.gc_stall_us / responses * 100.0
        } else {
            0.0
        },
        sim.gc_forced_drains,
        sim.gc_pending_us
    );
}

//! The declared metrics — names, units, directions and regression bounds —
//! and the ledger a run fills in.
//!
//! This table and `BENCHMARK.json` say the same thing twice on purpose:
//! the JSON file is what the driver reads, this is what the program
//! emits, and `tests/contract.rs` fails when they differ.

use serde_json::Value;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name; per-layer metrics are `crate.module.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before `compare` (and the driver) call it a regression; 0 for
    /// per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the simulator sees: how fast and how large the simulator
/// is on the host (noisy), and what it says about the modelled FTL (exact
/// for a fixed seed).
pub const END_TO_END: [MetricDef; 14] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_ns_per_req", "ns", Better::Lower, 0.25),
    e2e("peak_rss_mb", "mb", Better::Lower, 0.2),
    e2e("sim_resp_avg_us", "sim_us", Better::Lower, 0.13),
    e2e("sim_resp_p50_us", "sim_us", Better::Lower, 0.25),
    e2e("sim_resp_p99_us", "sim_us", Better::Lower, 0.1),
    e2e("sim_resp_p999_us", "sim_us", Better::Lower, 0.18),
    e2e("sim_device_us_per_req", "sim_us", Better::Lower, 0.04),
    e2e("hit_ratio", "frac", Better::Higher, 0.015),
    e2e("trans_reads_per_req", "count", Better::Lower, 0.05),
    e2e("trans_writes_per_req", "count", Better::Lower, 0.07),
    e2e("write_amplification", "ratio", Better::Lower, 0.05),
    e2e("erases_per_kreq", "count", Better::Lower, 0.04),
    e2e("served_frac", "frac", Better::Higher, 0.000001),
];

/// Single layers, named `crate.module.metric`. No bounds: they explain an
/// end-to-end movement, they do not gate.
pub const PER_LAYER: [MetricDef; 84] = [
    // trace
    lo("trace.synth.ns_per_req", "ns"),
    lo("trace.synth.pages_per_req", "count"),
    lo("trace.synth.iter_build_s", "s"),
    lo("trace.synth.share", "frac"),
    lo("trace.parse.spc_ns_per_req", "ns"),
    lo("trace.shard.split_ns_per_req", "ns"),
    lo("trace.shard.subreqs_per_req", "count"),
    // core.ftl
    lo("core.ftl.translate.calls", "count"),
    hi("core.ftl.translate.hit_calls", "count"),
    lo("core.ftl.translate.miss_calls", "count"),
    lo("core.ftl.translate.hit_ns", "ns"),
    lo("core.ftl.translate.miss_ns", "ns"),
    lo("core.ftl.translate.miss_p99_ns", "ns"),
    lo("core.ftl.translate.share", "frac"),
    lo("core.ftl.update_mapping.ns", "ns"),
    lo("core.ftl.update_mapping.share", "frac"),
    lo("core.ftl.on_gc.calls", "count"),
    lo("core.ftl.on_gc.ns_per_call", "ns"),
    lo("core.ftl.on_gc.share", "frac"),
    lo("core.ftl.dirty_replace_prob", "frac"),
    lo("core.ftl.replacements_per_req", "count"),
    hi("core.ftl.gc_hit_ratio", "frac"),
    hi("core.ftl.predict_hit_ratio", "frac"),
    lo("core.ftl.mispredict_ratio", "frac"),
    hi("core.ftl.cache_used_frac", "frac"),
    hi("core.ftl.cached_entries", "count"),
    // core.gc
    lo("core.gc.cycles", "count"),
    lo("core.gc.ns_per_victim", "ns"),
    lo("core.gc.stall_p99_ns", "ns"),
    lo("core.gc.share", "frac"),
    lo("core.gc.data_victims_per_kreq", "count"),
    lo("core.gc.trans_victims_per_kreq", "count"),
    lo("core.gc.valid_per_data_victim", "count"),
    lo("core.gc.valid_per_trans_victim", "count"),
    lo("core.gc.copy_amp", "ratio"),
    lo("core.gc.erase_cv", "ratio"),
    // core.env
    lo("core.env.read_data_page_ns", "ns"),
    lo("core.env.write_data_page_ns", "ns"),
    lo("core.env.share", "frac"),
    lo("core.env.read_translation_entry_ns", "ns"),
    lo("core.env.update_translation_page_ns", "ns"),
    lo("core.env.bootstrap_s", "s"),
    // flash
    lo("flash.read_page_ns", "ns"),
    lo("flash.program_page_ns", "ns"),
    lo("flash.invalidate_ns", "ns"),
    lo("flash.erase_block_ns", "ns"),
    lo("flash.valid_pages_ns_per_page", "ns"),
    lo("flash.timing.read_ns", "ns"),
    lo("flash.timing.write_ns", "ns"),
    lo("flash.timing.erase_ns", "ns"),
    lo("flash.ops.host_per_req", "count"),
    lo("flash.ops.translation_per_req", "count"),
    lo("flash.ops.gc_per_req", "count"),
    lo("flash.busy_us_per_req", "sim_us"),
    lo("flash.est_share", "frac"),
    lo("flash.timing.est_share", "frac"),
    // sim.ssd / sim.hist
    lo("sim.ssd.serve_ns_per_req", "ns"),
    lo("sim.ssd.self_ns_per_req", "ns"),
    lo("sim.ssd.self_iqr_ns_per_req", "ns"),
    lo("sim.ssd.share", "frac"),
    lo("sim.ssd.chunk_p50_ns_per_req", "ns"),
    lo("sim.ssd.chunk_p95_ns_per_req", "ns"),
    lo("sim.ssd.chunks", "count"),
    lo("sim.hist.record_ns", "ns"),
    // sim.shard / sim.queue
    lo("sim.shard.q1_overhead_ns_per_req", "ns"),
    hi("sim.shard.speedup_s2", "ratio"),
    lo("sim.shard.load_imbalance", "ratio"),
    lo("sim.queue.parks_per_kreq", "count"),
    lo("sim.queue.wakeups_per_kreq", "count"),
    lo("sim.queue.ring_ns_per_item", "ns"),
    lo("sim.queue.pingpong_ns", "ns"),
    hi("sim.queue.ol_achieved_frac", "frac"),
    lo("sim.queue.ol_resp_p50_us", "us"),
    lo("sim.queue.ol_resp_p99_us", "us"),
    lo("sim.queue.ol_resp_p999_us", "us"),
    lo("sim.queue.ol_backlog_peak", "count"),
    lo("sim.queue.ol_parks_per_kreq", "count"),
    // experiments / the benchmark itself
    lo("experiments.runner.build_s", "s"),
    lo("bench.wall_ns_per_req", "ns"),
    hi("bench.speed_cache", "ratio"),
    hi("bench.speed_arithmetic", "ratio"),
    lo("bench.span_cost_ns", "ns"),
    lo("bench.trace_overhead_frac", "frac"),
    lo("bench.unattributed_share", "frac"),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// The reported value (a median where there are repetitions).
    pub value: f64,
    /// The per-repetition values behind `value`, where there are any.
    pub samples: Vec<f64>,
}

/// The metrics of one run, checked against a declared set.
#[derive(Debug)]
pub struct Ledger {
    declared: &'static [MetricDef],
    entries: Vec<Measured>,
}

impl Ledger {
    /// An empty ledger over `declared`.
    pub fn new(declared: &'static [MetricDef]) -> Self {
        Self {
            declared,
            entries: Vec::with_capacity(declared.len()),
        }
    }

    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared or repeated name — a bug in this program.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_samples(name, value, Vec::new());
    }

    /// Records every `(name, value)` of `rows`.
    pub fn put_all(&mut self, rows: &[(&str, f64)]) {
        for &(name, value) in rows {
            self.put(name, value);
        }
    }

    /// Records `name = value` with the per-repetition samples behind it.
    pub fn put_samples(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let def = self
            .declared
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "metric {name} recorded twice"
        );
        self.entries.push(Measured {
            name: def.name,
            unit: def.unit,
            value,
            samples,
        });
    }

    /// Names of recorded metrics whose value is not finite — each one a
    /// violation. (A declared metric that was never recorded is a bug in
    /// this program, and `tests/contract.rs` compares the emitted names
    /// with the declared ones exactly.)
    pub fn not_finite(&self) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|e| !e.value.is_finite())
            .map(|e| e.name)
            .collect()
    }

    /// Entries in declaration order.
    pub fn entries(&self) -> Vec<&Measured> {
        self.declared
            .iter()
            .filter_map(|d| self.entries.iter().find(|e| e.name == d.name))
            .collect()
    }

    /// `{name: {"value": v, "unit": u}}`, plus `"samples"` when asked.
    pub fn to_json(&self, with_samples: bool) -> Vec<(String, Value)> {
        self.entries()
            .into_iter()
            .map(|e| {
                let mut fields = vec![
                    ("value".to_string(), Value::Float(e.value)),
                    ("unit".to_string(), Value::Str(e.unit.to_string())),
                ];
                if with_samples && !e.samples.is_empty() {
                    let samples = e.samples.iter().map(|&s| Value::Float(s)).collect();
                    fields.push(("samples".to_string(), Value::Array(samples)));
                }
                (e.name.to_string(), Value::Object(fields))
            })
            .collect()
    }
}

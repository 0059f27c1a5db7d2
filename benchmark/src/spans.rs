//! In-memory span recorder for the traced repetition.
//!
//! A span is opened at a layer boundary and closed when the call returns;
//! spans nest, so the recorder is a stack. Closing a span charges its
//! duration to its parent's *child cover*, and a span's **self time** is
//! its duration minus that cover. Nothing is written anywhere while the
//! replay runs: every span folds into a per-kind aggregate (calls, total,
//! self, a duration histogram), and the complete span trees of one request
//! in every [`SAMPLE_EVERY`] are kept raw, for `--spans FILE` to write at
//! exit.
//!
//! Reading the clock is itself work. [`calibrate`] measures an empty span
//! two ways — the duration it records for itself (`inner_ns`) and the wall
//! time one open/close pair costs its surroundings (`cost_ns`) — and
//! [`Recorder::net_self_ns`] subtracts `inner_ns` per span from the span's
//! own kind and `cost_ns − inner_ns` per child from the parent's, so self
//! times are net of the tracing that produced them.

use std::time::Instant;

use tpftl_sim::LatencyHistogram;

/// One in this many requests keeps its raw spans.
pub const SAMPLE_EVERY: u64 = 1024;
/// Upper bound on raw spans kept, whatever the run length.
const RAW_CAP: usize = 200_000;

/// What a span measures. Hit/miss and idle/cycle are decided when the span
/// closes (from counter deltas), so [`Recorder::close_as`] takes the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The whole traced replay loop.
    Replay,
    /// One `next()` on the trace generator.
    Generator,
    /// One host request (the benchmark's copy of `Ssd::serve`).
    Request,
    /// `gc::ensure_free` that found the free pool above the watermark.
    GcIdle,
    /// `gc::ensure_free` that collected at least one victim.
    GcCycle,
    /// `Ftl::translate` served from the mapping cache.
    TranslateHit,
    /// `Ftl::translate` that missed the mapping cache.
    TranslateMiss,
    /// `Ftl::update_mapping`.
    UpdateMapping,
    /// `Ftl::on_gc_data_block`.
    OnGc,
    /// `Ftl::write_page` (trait default); self = program + invalidate.
    WritePage,
    /// `SsdEnv::read_data_page`.
    ReadDataPage,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 11] = [
        Kind::Replay,
        Kind::Generator,
        Kind::Request,
        Kind::GcIdle,
        Kind::GcCycle,
        Kind::TranslateHit,
        Kind::TranslateMiss,
        Kind::UpdateMapping,
        Kind::OnGc,
        Kind::WritePage,
        Kind::ReadDataPage,
    ];

    /// The name raw spans are written under.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Replay => "replay",
            Kind::Generator => "trace.synth.next",
            Kind::Request => "sim.ssd.serve",
            Kind::GcIdle => "core.gc.ensure_free.idle",
            Kind::GcCycle => "core.gc.ensure_free.cycle",
            Kind::TranslateHit => "core.ftl.translate.hit",
            Kind::TranslateMiss => "core.ftl.translate.miss",
            Kind::UpdateMapping => "core.ftl.update_mapping",
            Kind::OnGc => "core.ftl.on_gc_data_block",
            Kind::WritePage => "core.ftl.write_page",
            Kind::ReadDataPage => "core.env.read_data_page",
        }
    }
}

/// Per-kind fold of every closed span.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Spans closed.
    pub calls: u64,
    /// Σ durations, ns.
    pub total_ns: u64,
    /// Σ (duration − child cover), ns, before overhead correction.
    pub self_ns: u64,
    /// Direct children closed under spans of this kind.
    pub children: u64,
    /// Durations in ns (log buckets; only the kinds whose tail is reported
    /// record here).
    pub durations: LatencyHistogram,
}

/// A raw span of a sampled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    /// Index of the host request the span belongs to.
    pub request: u64,
    /// Nesting depth (0 = the request span); the enclosing span is the
    /// nearest earlier-opened span one level up.
    pub depth: u32,
    /// What was measured.
    pub kind: Kind,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

struct Frame {
    start_ns: u64,
    child_ns: u64,
    children: u64,
}

/// Cost of one empty span, from [`calibrate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Duration an empty span records for itself, ns.
    pub inner_ns: f64,
    /// Wall time one open/close pair adds to its surroundings, ns.
    pub cost_ns: f64,
}

/// The span stack plus everything folded from it.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Frame>,
    aggregates: Vec<Aggregate>,
    raw: Vec<RawSpan>,
    /// `Some(request index)` while the current request keeps raw spans.
    sampling: Option<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            aggregates: vec![Aggregate::default(); Kind::ALL.len()],
            raw: Vec::new(),
            sampling: None,
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its kind is given when it closes.
    #[inline]
    pub fn open(&mut self) {
        let start_ns = self.now_ns();
        self.stack.push(Frame {
            start_ns,
            child_ns: 0,
            children: 0,
        });
    }

    /// Closes the innermost open span as `kind` and returns its duration.
    #[inline]
    pub fn close_as(&mut self, kind: Kind) -> u64 {
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("close without a matching open");
        self.fold(kind, frame, end_ns)
    }

    /// Folds a span given explicit clock readings — the arithmetic of
    /// [`Recorder::close_as`], separated so tests can drive it with exact
    /// times.
    fn fold(&mut self, kind: Kind, frame: Frame, end_ns: u64) -> u64 {
        let dur = end_ns.saturating_sub(frame.start_ns);
        let agg = &mut self.aggregates[kind as usize];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(frame.child_ns);
        agg.children += frame.children;
        if matches!(kind, Kind::TranslateMiss | Kind::GcCycle) {
            agg.durations.record(dur as f64);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.children += 1;
        }
        if let Some(request) = self.sampling {
            if self.raw.len() < RAW_CAP {
                self.raw.push(RawSpan {
                    request,
                    // The replay root sits below every request span.
                    depth: self.stack.len().saturating_sub(1) as u32,
                    kind,
                    start_ns: frame.start_ns,
                    end_ns,
                });
            }
        }
        dur
    }

    /// Marks the start of host request `index`; one request in
    /// [`SAMPLE_EVERY`] keeps its raw spans.
    #[inline]
    pub fn begin_request(&mut self, index: u64) {
        self.sampling = index.is_multiple_of(SAMPLE_EVERY).then_some(index);
    }

    /// The fold of every closed span of `kind`.
    pub fn aggregate(&self, kind: Kind) -> &Aggregate {
        &self.aggregates[kind as usize]
    }

    /// Self time of `kind` net of tracing overhead: each span of the kind
    /// gives back the `inner_ns` it measured of itself, and each direct
    /// child gives back the `cost_ns − inner_ns` it cost outside its own
    /// measured interval. Clamped at zero.
    pub fn net_self_ns(&self, kind: Kind, cost: SpanCost) -> f64 {
        let a = self.aggregate(kind);
        let net = a.self_ns as f64
            - a.calls as f64 * cost.inner_ns
            - a.children as f64 * (cost.cost_ns - cost.inner_ns);
        net.max(0.0)
    }

    /// Raw spans of the sampled requests, in closing order.
    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }
}

/// Measures an empty span: `pairs` open/close pairs under one parent.
pub fn calibrate(pairs: u64) -> SpanCost {
    let mut rec = Recorder::new();
    rec.open();
    let wall = Instant::now();
    for _ in 0..pairs {
        rec.open();
        rec.close_as(Kind::Generator);
    }
    let wall_ns = wall.elapsed().as_nanos() as f64;
    rec.close_as(Kind::Replay);
    SpanCost {
        inner_ns: rec.aggregate(Kind::Generator).total_ns as f64 / pairs as f64,
        cost_ns: wall_ns / pairs as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes a frame and folds it with exact times.
    fn span(
        rec: &mut Recorder,
        kind: Kind,
        start: u64,
        end: u64,
        body: impl FnOnce(&mut Recorder),
    ) {
        rec.stack.push(Frame {
            start_ns: start,
            child_ns: 0,
            children: 0,
        });
        body(rec);
        let frame = rec.stack.pop().unwrap();
        rec.fold(kind, frame, end);
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut rec = Recorder::new();
        // request 0..1000 { gc 100..400 { on_gc 150..250 }, translate 500..700 }
        span(&mut rec, Kind::Request, 0, 1000, |rec| {
            span(rec, Kind::GcCycle, 100, 400, |rec| {
                span(rec, Kind::OnGc, 150, 250, |_| {});
            });
            span(rec, Kind::TranslateMiss, 500, 700, |_| {});
        });
        let req = rec.aggregate(Kind::Request);
        assert_eq!(
            (req.calls, req.total_ns, req.self_ns, req.children),
            (1, 1000, 500, 2)
        );
        let gc = rec.aggregate(Kind::GcCycle);
        assert_eq!((gc.total_ns, gc.self_ns, gc.children), (300, 200, 1));
        let on_gc = rec.aggregate(Kind::OnGc);
        assert_eq!(
            (on_gc.total_ns, on_gc.self_ns, on_gc.children),
            (100, 100, 0)
        );
        assert_eq!(rec.aggregate(Kind::TranslateMiss).self_ns, 200);
        // Self times partition the root's duration exactly.
        let sum: u64 = Kind::ALL.iter().map(|&k| rec.aggregate(k).self_ns).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn net_self_subtracts_own_and_children_overhead() {
        let mut rec = Recorder::new();
        span(&mut rec, Kind::Request, 0, 1000, |rec| {
            span(rec, Kind::TranslateHit, 100, 160, |_| {});
            span(rec, Kind::TranslateHit, 200, 260, |_| {});
        });
        let cost = SpanCost {
            inner_ns: 20.0,
            cost_ns: 50.0,
        };
        // Leaves: 2 × 60 measured, minus 2 × 20 of their own clock reads.
        assert_eq!(rec.net_self_ns(Kind::TranslateHit, cost), 80.0);
        // Parent: 1000 − 120 cover = 880 self, minus its own 20, minus
        // 2 children × (50 − 20) spent outside the children's intervals.
        assert_eq!(rec.net_self_ns(Kind::Request, cost), 800.0);
        // Over the whole tree exactly `cost_ns` per span is given back,
        // except the root's outer half, which lies outside the root.
        let total: f64 = [Kind::Request, Kind::TranslateHit]
            .iter()
            .map(|&k| rec.net_self_ns(k, cost))
            .sum();
        assert_eq!(total, 1000.0 - 2.0 * 50.0 - 20.0);
        // Never negative, however small the span.
        let huge = SpanCost {
            inner_ns: 1e6,
            cost_ns: 2e6,
        };
        assert_eq!(rec.net_self_ns(Kind::TranslateHit, huge), 0.0);
    }

    #[test]
    fn only_sampled_requests_keep_raw_spans() {
        let mut rec = Recorder::new();
        rec.open();
        for index in [0, 1, SAMPLE_EVERY] {
            rec.begin_request(index);
            rec.open();
            rec.open();
            rec.close_as(Kind::TranslateHit);
            rec.close_as(Kind::Request);
        }
        rec.begin_request(7);
        rec.close_as(Kind::Replay);
        let raw = rec.raw();
        assert_eq!(raw.len(), 4, "two spans for each of requests 0 and 1024");
        assert_eq!(
            (raw[0].request, raw[0].depth, raw[0].kind),
            (0, 1, Kind::TranslateHit)
        );
        assert_eq!(
            (raw[1].request, raw[1].depth, raw[1].kind),
            (0, 0, Kind::Request)
        );
        assert_eq!(raw[3].request, SAMPLE_EVERY);
        assert!(raw[1].start_ns <= raw[0].start_ns && raw[0].end_ns <= raw[1].end_ns);
    }

    #[test]
    fn calibration_measures_a_positive_cost() {
        let cost = calibrate(10_000);
        assert!(cost.cost_ns > 0.0 && cost.inner_ns >= 0.0);
        assert!(cost.inner_ns <= cost.cost_ns, "{cost:?}");
    }
}

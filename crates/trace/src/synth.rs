//! Synthetic workload generation calibrated to Table 4 of the paper.
//!
//! The generator models an enterprise block workload as a superposition of
//! four mechanisms the paper's analysis depends on:
//!
//! 1. **Direction mix** — each request is a write with probability
//!    `write_ratio`.
//! 2. **Sequential bursts** — sequential accesses arrive in *runs*: a read
//!    (write) request occasionally starts a burst whose following
//!    `mean_burst_len − 1` same-direction requests continue where the
//!    previous one ended. Burst starts are *deficit-paced*: every request of
//!    a direction earns that direction `seq_read_frac` (`seq_write_frac`)
//!    units of credit, each burst continuation spends one unit, and a new
//!    burst only launches once the balance funds a full mean-length burst.
//!    The overall fraction of sequential reads (writes) therefore matches
//!    the Table 4 definition with low variance even over short windows —
//!    randomly seeded rare bursts would make short traces a lottery.
//!    Bursty (rather than uniformly sprinkled) sequentiality is what
//!    produces the diagonal runs of Figure 2(a) and what TPFTL's selective
//!    prefetching exploits ("sequential accesses are often interspersed
//!    with random accesses", Section 4.3).
//! 3. **Skewed temporal locality** — random jump targets are drawn from a
//!    [`ZipfRegions`] distribution; `active_frac < 1` limits the footprint
//!    the way the MSR traces use only part of their 16 GB volume.
//! 4. **Request sizes** — geometric in sectors with the Table 4 mean;
//!    arrivals are Poisson with mean `mean_interarrival_us`.

use serde::{Deserialize, Serialize};
use tpftl_rng::Rng64;

use crate::{Dir, IoRequest, ZipfRegions, SECTOR_BYTES};

/// Temporal-locality model for random (non-sequential) accesses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Locality {
    /// Number of popularity regions the address space is divided into.
    pub regions: usize,
    /// Zipf skew across regions (0 = uniform).
    pub theta: f64,
    /// Fraction of regions ever accessed (footprint limiter).
    pub active_frac: f64,
}

impl Default for Locality {
    fn default() -> Self {
        Self {
            regions: 1024,
            theta: 0.0,
            active_frac: 1.0,
        }
    }
}

/// Geometric distribution on `{1, 2, ...}` with a fixed mean, drawn by
/// inversion: `⌊ln u / ln(1 − 1/mean)⌋ + 1`.
///
/// The divisor depends on the mean alone, so it is taken once here rather
/// than on every draw. The quotient is never negative (`ln u <= 0` over a
/// negative divisor), so the saturating `as u64` already floors it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometric {
    /// `ln(1 − 1/mean)`; `None` when `mean <= 1`, where every draw is 1
    /// and consumes no randomness.
    ln_q: Option<f64>,
}

impl Geometric {
    pub(crate) fn new(mean: f64) -> Self {
        Self {
            ln_q: (mean > 1.0).then(|| (1.0 - 1.0 / mean).ln()),
        }
    }

    pub(crate) fn sample(&self, rng: &mut Rng64) -> u64 {
        let Some(ln_q) = self.ln_q else { return 1 };
        let u = rng.range_f64(f64::EPSILON, 1.0);
        (u.ln() / ln_q) as u64 + 1
    }
}

/// Exponential draw with the given mean (a Poisson process's inter-arrival
/// time).
pub(crate) fn sample_exponential(mean: f64, rng: &mut Rng64) -> f64 {
    -mean * rng.range_f64(f64::EPSILON, 1.0).ln()
}

/// Parameters of a synthetic workload.
///
/// # Examples
///
/// ```
/// use tpftl_trace::{stats, SyntheticSpec};
///
/// let spec = SyntheticSpec {
///     requests: 20_000,
///     write_ratio: 0.8,
///     ..SyntheticSpec::default()
/// };
/// let trace = spec.generate(7);
/// let s = stats::analyze(&trace);
/// assert!((s.write_ratio - 0.8).abs() < 0.02);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Human-readable workload name.
    pub name: String,
    /// Number of requests to generate.
    pub requests: usize,
    /// Logical address space in bytes.
    pub address_bytes: u64,
    /// Probability that a request is a write.
    pub write_ratio: f64,
    /// Probability that a read continues the current read stream.
    pub seq_read_frac: f64,
    /// Probability that a write continues the current write stream.
    pub seq_write_frac: f64,
    /// Mean request size in sectors (geometric distribution).
    pub mean_req_sectors: f64,
    /// Mean sequential-burst length in requests (geometric; must be > 1).
    pub mean_burst_len: f64,
    /// Alignment of random request starts, in sectors (1 = none; 8 aligns
    /// to 4 KB pages, typical of OLTP and MSR block traces). Burst
    /// continuations remain exactly contiguous regardless.
    pub align_sectors: u64,
    /// Temporal-locality model for random jumps.
    pub locality: Locality,
    /// Mean inter-arrival time in microseconds (exponential).
    pub mean_interarrival_us: f64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        Self {
            name: "synthetic".to_string(),
            requests: 100_000,
            address_bytes: 512 << 20,
            write_ratio: 0.5,
            seq_read_frac: 0.05,
            seq_write_frac: 0.05,
            mean_req_sectors: 8.0,
            mean_burst_len: 24.0,
            align_sectors: 1,
            locality: Locality::default(),
            mean_interarrival_us: 500.0,
        }
    }
}

impl SyntheticSpec {
    /// Generates the trace deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero address space, zero mean
    /// request size, or probabilities outside `[0, 1]`).
    pub fn generate(&self, seed: u64) -> Vec<IoRequest> {
        self.iter(seed).collect()
    }

    /// Streaming variant of [`SyntheticSpec::generate`].
    pub fn iter(&self, seed: u64) -> SyntheticIter {
        assert!(
            self.address_bytes >= SECTOR_BYTES,
            "address space too small"
        );
        assert!(
            self.mean_req_sectors >= 1.0,
            "mean request below one sector"
        );
        for p in [self.write_ratio, self.seq_read_frac, self.seq_write_frac] {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
        if self.seq_read_frac > 0.0 || self.seq_write_frac > 0.0 {
            assert!(
                self.mean_burst_len > 1.0,
                "bursts need a mean length above one"
            );
        }
        let mut rng = Rng64::seed_from_u64(seed);
        let sectors = self.address_bytes / SECTOR_BYTES;
        let zipf = ZipfRegions::new(
            sectors,
            self.locality.regions,
            self.locality.theta,
            self.locality.active_frac,
            &mut rng,
        );
        // Bursts occupy whole stretches of the request stream with one
        // direction, so the per-request direction draw is compensated to
        // keep the overall write ratio on target.
        let read_burst_frac = (1.0 - self.write_ratio) * self.seq_read_frac;
        let write_burst_frac = self.write_ratio * self.seq_write_frac;
        let base_write_ratio = ((self.write_ratio - write_burst_frac)
            / (1.0 - read_burst_frac - write_burst_frac).max(f64::EPSILON))
        .clamp(0.0, 1.0);
        SyntheticIter {
            credit: [0.0; 2],
            seq_frac: [self.seq_read_frac, self.seq_write_frac],
            base_write_ratio,
            req_sectors: Geometric::new(self.mean_req_sectors),
            burst_len: Geometric::new(self.mean_burst_len),
            spec: self.clone(),
            rng,
            zipf,
            sectors,
            remaining: self.requests,
            clock_us: 0.0,
            burst_dir: Dir::Read,
            burst_left: 0,
            burst_end: 0,
        }
    }
}

/// Iterator producing the requests of a [`SyntheticSpec`].
pub struct SyntheticIter {
    spec: SyntheticSpec,
    rng: Rng64,
    zipf: ZipfRegions,
    sectors: u64,
    remaining: usize,
    clock_us: f64,
    /// Sequentiality credit balances, in burst-continuation units. Each
    /// request of a direction earns its `seq_*_frac`; each emitted burst
    /// continuation spends one unit, so the continuation fraction converges
    /// to the spec value regardless of burst lengths or truncation. Both
    /// are indexed by `Dir as usize` (read, write): the direction is a coin
    /// flip, and a `match` on it is a branch the predictor loses.
    credit: [f64; 2],
    seq_frac: [f64; 2],
    /// Direction mix for non-burst requests, compensated so that the
    /// overall write ratio (bursts included) matches the spec.
    base_write_ratio: f64,
    /// Request size in sectors, and burst length in requests.
    req_sectors: Geometric,
    burst_len: Geometric,
    burst_dir: Dir,
    burst_left: u32,
    burst_end: u64,
}

impl Iterator for SyntheticIter {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;

        let len_sectors = self.req_sectors.sample(&mut self.rng).min(self.sectors);
        let burst_len_mean = self.spec.mean_burst_len;

        let (dir, start_sector) =
            if self.burst_left > 0 && self.burst_end + len_sectors <= self.sectors {
                // Continue the current sequential burst: same direction,
                // back-to-back in both address and time, as real scans are.
                // Each continuation spends one unit of sequentiality credit.
                self.burst_left -= 1;
                self.credit[self.burst_dir as usize] -= 1.0;
                let start = self.burst_end;
                self.burst_end += len_sectors;
                (self.burst_dir, start)
            } else {
                self.burst_left = 0; // a truncated burst forfeits its remainder
                let dir = if self.rng.gen_bool(self.base_write_ratio) {
                    Dir::Write
                } else {
                    Dir::Read
                };
                // Random placement; seed a new burst once the direction's
                // accrued credit funds a full mean-length one. The length is
                // still geometric, but capped at what the balance funds (a
                // continuation nets 1 − f: it spends 1 and earns f back).
                let f = self.seq_frac[dir as usize];
                let credit = self.credit[dir as usize];
                let net_cost = (1.0 - f).max(f64::EPSILON);
                self.burst_left = if f > 0.0 && credit >= (burst_len_mean - 1.0) * net_cost {
                    let funded = (credit / net_cost).floor() as u64;
                    (self.burst_len.sample(&mut self.rng) - 1).min(funded) as u32
                } else {
                    0
                };
                let s = self.zipf.sample(&mut self.rng);
                let s = s - s % self.spec.align_sectors.max(1);
                let start = s.min(self.sectors - len_sectors.min(self.sectors));
                self.burst_dir = dir;
                self.burst_end = start + len_sectors;
                (dir, start)
            };
        // Every request of a direction earns it credit at the target rate.
        self.credit[dir as usize] += self.seq_frac[dir as usize];

        self.clock_us += sample_exponential(self.spec.mean_interarrival_us, &mut self.rng);

        Some(IoRequest::new(
            self.clock_us,
            start_sector * SECTOR_BYTES,
            (len_sectors * SECTOR_BYTES) as u32,
            dir,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn deterministic_per_seed() {
        let spec = SyntheticSpec {
            requests: 1000,
            ..SyntheticSpec::default()
        };
        assert_eq!(spec.generate(1), spec.generate(1));
        assert_ne!(spec.generate(1), spec.generate(2));
    }

    #[test]
    fn matches_spec_statistics() {
        let spec = SyntheticSpec {
            requests: 50_000,
            write_ratio: 0.779,
            seq_read_frac: 0.3,
            seq_write_frac: 0.1,
            mean_req_sectors: 7.0,
            ..SyntheticSpec::default()
        };
        let trace = spec.generate(42);
        let s = stats::analyze(&trace);
        assert!((s.write_ratio - 0.779).abs() < 0.02, "wr={}", s.write_ratio);
        let mean_sectors = s.avg_req_bytes / SECTOR_BYTES as f64;
        assert!((mean_sectors - 7.0).abs() < 0.3, "mean={mean_sectors}");
        // Measured sequentiality tracks the stream-continue probability.
        assert!(
            (s.seq_read_frac - 0.3).abs() < 0.05,
            "sr={}",
            s.seq_read_frac
        );
        assert!(
            (s.seq_write_frac - 0.1).abs() < 0.03,
            "sw={}",
            s.seq_write_frac
        );
    }

    #[test]
    fn requests_stay_in_address_space() {
        let spec = SyntheticSpec {
            requests: 20_000,
            address_bytes: 1 << 20, // tiny space stresses the clamping
            mean_req_sectors: 64.0,
            seq_read_frac: 0.9,
            seq_write_frac: 0.9,
            ..SyntheticSpec::default()
        };
        for r in spec.generate(3) {
            assert!(r.end() <= 1 << 20, "request {r:?} escapes address space");
        }
    }

    #[test]
    fn arrivals_are_monotone_with_expected_mean() {
        let spec = SyntheticSpec {
            requests: 20_000,
            mean_interarrival_us: 250.0,
            ..SyntheticSpec::default()
        };
        let t = spec.generate(9);
        let mut prev = -1.0;
        for r in &t {
            assert!(r.arrival_us > prev);
            prev = r.arrival_us;
        }
        let mean = t.last().unwrap().arrival_us / t.len() as f64;
        assert!((mean - 250.0).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn footprint_limited_by_active_frac() {
        let spec = SyntheticSpec {
            requests: 30_000,
            address_bytes: 256 << 20,
            locality: Locality {
                regions: 256,
                theta: 0.0,
                active_frac: 0.25,
            },
            seq_read_frac: 0.0,
            seq_write_frac: 0.0,
            ..SyntheticSpec::default()
        };
        let s = stats::analyze(&spec.generate(11));
        let total_pages = (256u64 << 20) / 4096;
        // Only ~1/4 of the space is reachable.
        assert!(
            s.unique_pages < total_pages / 3,
            "unique={} total={}",
            s.unique_pages,
            total_pages
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_panics() {
        let spec = SyntheticSpec {
            write_ratio: 1.5,
            ..SyntheticSpec::default()
        };
        let _ = spec.generate(0);
    }
}

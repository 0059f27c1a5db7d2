//! Multi-tenant synthetic workloads: N concurrent Zipf streams.
//!
//! The aging/multi-tenant GC evaluation needs a workload where tenants
//! with *different* temperatures share one device: a skewed tenant keeps
//! rewriting a small hot set while a cold tenant sprays uniform writes,
//! so blocks fill with pages of mixed lifetimes unless the FTL separates
//! streams. Each tenant owns a disjoint contiguous slice of the logical
//! address space (the way a namespace or partition would), draws request
//! starts from its own [`ZipfRegions`] distribution with its own skew and
//! write ratio, and arrives as an independent Poisson process. The merged
//! trace interleaves tenants **deterministically by arrival time** (ties
//! broken by tenant index), so a fixed seed always yields the same
//! request sequence regardless of iteration batching.

use serde::{Deserialize, Serialize};
use tpftl_rng::Rng64;

use crate::synth::{sample_exponential, Geometric};
use crate::{Dir, IoRequest, ZipfRegions, SECTOR_BYTES};

/// One tenant's traffic model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Probability that a request is a write.
    pub write_ratio: f64,
    /// Zipf skew over the tenant's slice (0 = uniform, higher = hotter).
    pub theta: f64,
    /// Mean request size in sectors (geometric distribution).
    pub mean_req_sectors: f64,
    /// Mean inter-arrival time in microseconds (exponential).
    pub mean_interarrival_us: f64,
}

impl Default for TenantSpec {
    fn default() -> Self {
        Self {
            write_ratio: 0.5,
            theta: 0.0,
            mean_req_sectors: 8.0,
            mean_interarrival_us: 500.0,
        }
    }
}

/// A multi-tenant workload: concurrent [`TenantSpec`] streams over
/// disjoint slices of one logical address space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTenantSpec {
    /// Human-readable workload name.
    pub name: String,
    /// Total number of requests across all tenants.
    pub requests: usize,
    /// Logical address space in bytes, split evenly among tenants.
    pub address_bytes: u64,
    /// Alignment of request starts in sectors (8 = 4 KB pages).
    pub align_sectors: u64,
    /// The tenants. Tenant `i` owns the `i`-th of `tenants.len()` equal
    /// contiguous slices of the address space.
    pub tenants: Vec<TenantSpec>,
}

impl Default for MultiTenantSpec {
    fn default() -> Self {
        Self {
            name: "multi_tenant".to_string(),
            requests: 100_000,
            address_bytes: 512 << 20,
            align_sectors: 8,
            tenants: vec![
                // A hot, write-heavy tenant and a cool, balanced one.
                TenantSpec {
                    write_ratio: 0.9,
                    theta: 1.1,
                    ..TenantSpec::default()
                },
                TenantSpec {
                    write_ratio: 0.5,
                    theta: 0.2,
                    ..TenantSpec::default()
                },
            ],
        }
    }
}

impl MultiTenantSpec {
    /// Slice of the sector space owned by tenant `i`: `[base, base+len)`.
    fn slice_sectors(&self, i: usize) -> (u64, u64) {
        let total = self.address_bytes / SECTOR_BYTES;
        let len = total / self.tenants.len() as u64;
        (i as u64 * len, len)
    }

    /// Generates the merged trace deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (no tenants, slices below one
    /// sector, or probabilities outside `[0, 1]`).
    pub fn generate(&self, seed: u64) -> Vec<IoRequest> {
        self.iter(seed).collect()
    }

    /// Streaming variant of [`MultiTenantSpec::generate`].
    pub fn iter(&self, seed: u64) -> MultiTenantIter {
        assert!(!self.tenants.is_empty(), "need at least one tenant");
        let (_, slice) = self.slice_sectors(0);
        assert!(slice >= 1, "address space too small for tenant slices");
        for t in &self.tenants {
            assert!(
                (0.0..=1.0).contains(&t.write_ratio),
                "write ratio {} out of range",
                t.write_ratio
            );
            assert!(t.mean_req_sectors >= 1.0, "mean request below one sector");
        }
        let mut states: Vec<TenantState> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                // Independent per-tenant RNG streams: reordering or adding
                // tenants never perturbs another tenant's request sequence.
                let mut rng = Rng64::seed_from_u64(seed.wrapping_add(i as u64 + 1));
                let (base, len) = self.slice_sectors(i);
                let zipf = ZipfRegions::new(len, 256, spec.theta, 1.0, &mut rng);
                TenantState {
                    spec,
                    rng,
                    zipf,
                    req_sectors: Geometric::new(spec.mean_req_sectors),
                    base_sector: base,
                    slice_len: len,
                    clock_us: 0.0,
                    next: None,
                }
            })
            .collect();
        let align = self.align_sectors.max(1);
        for s in &mut states {
            s.advance(align);
        }
        MultiTenantIter {
            states,
            align,
            remaining: self.requests,
        }
    }
}

struct TenantState {
    spec: TenantSpec,
    rng: Rng64,
    zipf: ZipfRegions,
    req_sectors: Geometric,
    base_sector: u64,
    slice_len: u64,
    clock_us: f64,
    /// The tenant's next pending request (its head of queue).
    next: Option<IoRequest>,
}

impl TenantState {
    /// Draws the tenant's next request and parks it in `next`.
    fn advance(&mut self, align: u64) {
        let len = self.req_sectors.sample(&mut self.rng).min(self.slice_len);
        let s = self.zipf.sample(&mut self.rng);
        let s = s - s % align;
        let start = self.base_sector + s.min(self.slice_len - len);
        let dir = if self.rng.gen_bool(self.spec.write_ratio) {
            Dir::Write
        } else {
            Dir::Read
        };
        self.clock_us += sample_exponential(self.spec.mean_interarrival_us, &mut self.rng);
        self.next = Some(IoRequest::new(
            self.clock_us,
            start * SECTOR_BYTES,
            (len * SECTOR_BYTES) as u32,
            dir,
        ));
    }
}

/// Iterator producing the merged requests of a [`MultiTenantSpec`].
pub struct MultiTenantIter {
    states: Vec<TenantState>,
    align: u64,
    remaining: usize,
}

impl Iterator for MultiTenantIter {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Earliest pending arrival wins; the lowest tenant index breaks
        // exact ties, so the interleave is a pure function of the seed.
        let i = self
            .states
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let (a, b) = (a.next.as_ref().unwrap(), b.next.as_ref().unwrap());
                a.arrival_us.total_cmp(&b.arrival_us)
            })
            .map(|(i, _)| i)
            .unwrap();
        let req = self.states[i].next.take().unwrap();
        self.states[i].advance(self.align);
        Some(req)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let spec = MultiTenantSpec {
            requests: 2000,
            ..MultiTenantSpec::default()
        };
        assert_eq!(spec.generate(7), spec.generate(7));
        assert_ne!(spec.generate(7), spec.generate(8));
    }

    #[test]
    fn tenants_stay_in_their_slices() {
        let spec = MultiTenantSpec {
            requests: 20_000,
            address_bytes: 64 << 20,
            tenants: vec![
                TenantSpec {
                    theta: 1.2,
                    write_ratio: 1.0,
                    ..TenantSpec::default()
                },
                TenantSpec::default(),
                TenantSpec {
                    theta: 0.5,
                    write_ratio: 0.2,
                    ..TenantSpec::default()
                },
            ],
            ..MultiTenantSpec::default()
        };
        let slice_bytes = (64u64 << 20) / 3 / SECTOR_BYTES * SECTOR_BYTES;
        let mut seen = [false; 3];
        for r in spec.generate(11) {
            let tenant = (r.offset / slice_bytes).min(2) as usize;
            let base = tenant as u64 * slice_bytes;
            assert!(r.offset >= base, "request {r:?} before its slice");
            assert!(
                r.end() <= base + slice_bytes,
                "request {r:?} crosses out of tenant {tenant}'s slice"
            );
            seen[tenant] = true;
        }
        assert_eq!(seen, [true; 3], "every tenant produced traffic");
    }

    #[test]
    fn merged_arrivals_are_monotone_and_mixed() {
        let spec = MultiTenantSpec {
            requests: 10_000,
            ..MultiTenantSpec::default()
        };
        let trace = spec.generate(3);
        let mut prev = -1.0;
        for r in &trace {
            assert!(r.arrival_us >= prev, "arrival order violated at {r:?}");
            prev = r.arrival_us;
        }
        // Both default tenants emit at the same mean rate, so neither
        // should dominate the merged stream.
        let half = (512u64 << 20) / 2;
        let first = trace.iter().filter(|r| r.offset < half).count();
        let frac = first as f64 / trace.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "tenant share skewed: {frac}");
    }

    #[test]
    fn per_tenant_write_ratios_hold() {
        let spec = MultiTenantSpec {
            requests: 30_000,
            tenants: vec![
                TenantSpec {
                    write_ratio: 0.9,
                    ..TenantSpec::default()
                },
                TenantSpec {
                    write_ratio: 0.1,
                    ..TenantSpec::default()
                },
            ],
            ..MultiTenantSpec::default()
        };
        let half = (512u64 << 20) / 2;
        let (mut w, mut n) = ([0u32; 2], [0u32; 2]);
        for r in spec.generate(5) {
            let t = usize::from(r.offset >= half);
            n[t] += 1;
            w[t] += u32::from(r.dir == Dir::Write);
        }
        let wr0 = f64::from(w[0]) / f64::from(n[0]);
        let wr1 = f64::from(w[1]) / f64::from(n[1]);
        assert!((wr0 - 0.9).abs() < 0.02, "tenant 0 wr={wr0}");
        assert!((wr1 - 0.1).abs() < 0.02, "tenant 1 wr={wr1}");
    }

    #[test]
    fn skewed_tenant_has_smaller_footprint() {
        let spec = MultiTenantSpec {
            requests: 30_000,
            address_bytes: 64 << 20,
            tenants: vec![
                TenantSpec {
                    theta: 1.3,
                    ..TenantSpec::default()
                },
                TenantSpec {
                    theta: 0.0,
                    ..TenantSpec::default()
                },
            ],
            ..MultiTenantSpec::default()
        };
        let half = (64u64 << 20) / 2;
        let mut pages = [std::collections::BTreeSet::new(), Default::default()];
        for r in spec.generate(13) {
            let t = usize::from(r.offset >= half);
            pages[t].insert(r.offset / 4096);
        }
        assert!(
            pages[0].len() * 2 < pages[1].len(),
            "hot tenant footprint {} not clearly under cold {}",
            pages[0].len(),
            pages[1].len()
        );
    }
}

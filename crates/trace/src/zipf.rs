//! A region-based Zipfian address sampler.
//!
//! Sampling a true Zipf distribution over millions of pages is expensive and
//! unnecessary: what matters for mapping-cache behaviour is the skew of the
//! *page popularity* distribution. We divide the address space into a fixed
//! number of regions, give region ranks Zipfian probabilities
//! `P(rank k) ∝ 1/k^theta` with a random rank-to-region permutation (so hot
//! regions are scattered over the address space, as in real traces), and
//! sample uniformly within a region.
//!
//! A draw inverts the CDF: the rank of `u` is the first `i` with
//! `cdf[i] >= u`. A *guide table* makes that O(1) without changing the
//! answer for any `u`: the unit interval is cut into as many equal cells as
//! there are regions, `guide[k]` is the rank of the cell's lower edge `k/G`,
//! and a draw starts the very same `cdf[i] < u` comparison there instead of
//! at the root of a binary search. The start is never past the answer (the
//! CDF is non-decreasing and the edge is at or below `u`), and on average a
//! cell holds one rank, so the scan ends after about two compares.

use tpftl_rng::Rng64;

/// Zipf-over-regions sampler for skewed address distributions.
#[derive(Debug, Clone)]
pub struct ZipfRegions {
    /// Cumulative probability per popularity rank; the last entry is 1.0.
    cdf: Vec<f64>,
    /// `guide[k]` = first rank whose cumulative probability reaches `k/G`,
    /// where `G = guide.len() = cdf.len()`.
    guide: Vec<u32>,
    /// `(base, span)` of the region holding each popularity rank: its units
    /// are `base..base + span`.
    extent: Vec<(u64, u64)>,
}

impl ZipfRegions {
    /// Creates a sampler over `total` units with `regions` regions and skew
    /// `theta` (0 = uniform; 0.99 ≈ classic Zipf; larger = more skewed).
    ///
    /// Only the `active_frac` most popular ranks receive non-zero weight,
    /// which models workloads whose footprint covers just part of the
    /// address space (the MSR traces touch a fraction of their 16 GB
    /// volume). The rank permutation still scatters the active regions over
    /// the whole space.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`, `regions == 0`, `theta < 0`, or
    /// `active_frac` is not in `(0, 1]`.
    pub fn new(total: u64, regions: usize, theta: f64, active_frac: f64, rng: &mut Rng64) -> Self {
        assert!(total > 0 && regions > 0, "empty address space");
        assert!(theta >= 0.0, "negative skew");
        assert!(
            active_frac > 0.0 && active_frac <= 1.0,
            "active_frac must be in (0, 1]"
        );
        let regions = regions.min(total as usize);
        let active = ((regions as f64 * active_frac).ceil() as usize).clamp(1, regions);
        let mut weights: Vec<f64> = (1..=regions)
            .map(|k| {
                if k <= active {
                    1.0 / (k as f64).powf(theta)
                } else {
                    0.0
                }
            })
            .collect();
        let sum: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / sum;
            *w = acc;
        }
        // Guard against floating-point drift.
        *weights.last_mut().expect("regions > 0") = 1.0;
        let cdf = weights;

        // One merge walk over the CDF fills the guide: both the cell edges
        // and the CDF ascend, and the final 1.0 stops `rank` in range.
        let mut rank = 0;
        let guide = (0..regions)
            .map(|k| {
                let edge = k as f64 / regions as f64;
                while cdf[rank] < edge {
                    rank += 1;
                }
                rank as u32
            })
            .collect();

        // Region `i` covers units `i*total/n .. (i+1)*total/n`; stepping the
        // quotient and remainder finds every boundary with one division.
        // `n <= total`, so every region holds at least one unit.
        let n = regions as u64;
        let (step, step_rem) = (total / n, total % n);
        let (mut base, mut rem) = (0, 0);
        let mut extent: Vec<(u64, u64)> = (0..regions)
            .map(|_| {
                rem += step_rem;
                let carry = rem >= n;
                if carry {
                    rem -= n;
                }
                let span = step + u64::from(carry);
                let start = base;
                base += span;
                (start, span)
            })
            .collect();
        // Popularity rank -> region: the shuffle moves region `i`'s extent
        // to the rank a shuffled index vector would name `i` at.
        rng.shuffle(&mut extent);
        Self { cdf, guide, extent }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.cdf.len()
    }

    /// Popularity rank of the uniform draw `u` in `[0, 1)`: the first rank
    /// whose cumulative probability is at least `u`.
    fn rank_of(&self, u: f64) -> usize {
        // `u * G` can round up into the next cell; starting one cell early
        // keeps the start's edge at or below `u` whatever the rounding.
        let cell = (u * self.guide.len() as f64) as usize;
        let mut rank = self.guide[cell.saturating_sub(1)] as usize;
        while self.cdf[rank] < u {
            rank += 1;
        }
        debug_assert_eq!(rank, self.cdf.partition_point(|&c| c < u));
        rank
    }

    /// Samples one unit index in `0..total`.
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        let (base, span) = self.extent[self.rank_of(rng.next_f64())];
        base + rng.below(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn samples_in_range() {
        let mut rng = Rng64::seed_from_u64(1);
        let z = ZipfRegions::new(1000, 16, 1.0, 1.0, &mut rng);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn uniform_when_theta_zero() {
        let mut rng = Rng64::seed_from_u64(2);
        let z = ZipfRegions::new(1 << 20, 64, 0.0, 1.0, &mut rng);
        let mut counts = vec![0u32; 64];
        let region_span = (1u64 << 20) / 64;
        for _ in 0..64_000 {
            counts[(z.sample(&mut rng) / region_span) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // Each region expects 1000 samples; allow generous statistical slack.
        assert!(*min > 700 && *max < 1300, "min={min} max={max}");
    }

    #[test]
    fn skewed_when_theta_large() {
        let mut rng = Rng64::seed_from_u64(3);
        let z = ZipfRegions::new(1 << 20, 64, 1.2, 1.0, &mut rng);
        let region_span = (1u64 << 20) / 64;
        let mut counts = vec![0u32; 64];
        for _ in 0..64_000 {
            counts[(z.sample(&mut rng) / region_span) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top8: u32 = counts[..8].iter().sum();
        // With theta=1.2 the top 8 of 64 regions take the large majority.
        assert!(top8 as f64 > 0.6 * 64_000.0, "top8={top8}");
    }

    #[test]
    fn active_frac_limits_footprint() {
        let mut rng = Rng64::seed_from_u64(5);
        let z = ZipfRegions::new(1 << 20, 64, 0.0, 0.25, &mut rng);
        let region_span = (1u64 << 20) / 64;
        let mut touched = std::collections::HashSet::new();
        for _ in 0..64_000 {
            touched.insert(z.sample(&mut rng) / region_span);
        }
        // Exactly 16 of 64 regions are reachable.
        assert_eq!(touched.len(), 16);
    }

    /// The guide-table lookup returns the binary search's rank for every
    /// `u`, and the extent table holds `region*total/n` arithmetic. The
    /// probes sit where the two could part: on and next to every CDF value
    /// (ties, the flat tail of `active_frac < 1`) and every cell edge (the
    /// rounding of `u * G`).
    #[test]
    fn guide_table_matches_binary_search() {
        let mut rng = Rng64::seed_from_u64(17);
        let mut cases = vec![
            (1u64 << 20, 8192usize, 1.38, 1.0), // Financial presets
            (1 << 25, 8192, 1.4, 0.05),         // MSR presets: flat tail
            (1000, 1000, 0.0, 1.0),             // uniform, one unit per region
            (1000, 7, 0.0, 0.3),
            (5, 64, 1.0, 1.0), // regions > total: clamped to 5
            (3, 1, 2.0, 1.0),  // a single region
            (1, 1, 0.0, 1.0),
        ];
        for _ in 0..40 {
            let bits = rng.range_u32(1, 36);
            let total = 1 + rng.below(1 << bits);
            let regions = 1 + rng.below(3000) as usize;
            let theta = [0.0, rng.range_f64(0.0, 3.0)][rng.below(2) as usize];
            let active_frac = [1.0, rng.range_f64(0.001, 1.0)][rng.below(2) as usize];
            cases.push((total, regions, theta, active_frac));
        }
        for (total, regions, theta, active_frac) in cases {
            let case = format!("total={total} regions={regions} theta={theta} af={active_frac}");
            let mut shuffler = rng.clone();
            let z = ZipfRegions::new(total, regions, theta, active_frac, &mut rng);
            let n = z.regions();
            assert_eq!(n, regions.min(total as usize), "{case}");

            let mut perm: Vec<u32> = (0..n as u32).collect();
            shuffler.shuffle(&mut perm);
            let bound = |i: u64| (u128::from(i) * u128::from(total) / n as u128) as u64;
            for (rank, &region) in perm.iter().enumerate() {
                let (base, end) = (bound(u64::from(region)), bound(u64::from(region) + 1));
                assert_eq!(z.extent[rank], (base, end - base), "{case} rank {rank}");
            }

            let check = |u: f64| {
                if (0.0..1.0).contains(&u) {
                    let want = z.cdf.partition_point(|&c| c < u);
                    assert_eq!(z.rank_of(u), want, "{case} u={u:e}");
                }
            };
            check(0.0);
            check(1.0 - f64::EPSILON / 2.0);
            for k in 0..n {
                for x in [z.cdf[k], k as f64 / n as f64] {
                    check(x.next_down());
                    check(x);
                    check(x.next_up());
                }
            }
            for _ in 0..100_000 {
                check(rng.next_f64());
            }
        }
    }

    #[test]
    fn more_regions_than_units_is_clamped() {
        let mut rng = Rng64::seed_from_u64(4);
        let z = ZipfRegions::new(5, 64, 1.0, 1.0, &mut rng);
        assert_eq!(z.regions(), 5);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < 5);
        }
    }
}

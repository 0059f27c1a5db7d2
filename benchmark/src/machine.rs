//! Machine-speed compensation for host-time metrics.
//!
//! The box this benchmark was built on changes speed under the program's
//! feet: a fixed loop with no system calls and no steal time takes anywhere
//! between 1.0× and 2× its best time, in stretches of seconds to minutes (a
//! shared host; see the README). Repeating and taking medians inside one
//! ten-second run cannot remove a disturbance that outlasts the run, so a
//! raw wall-clock figure resolves nothing finer than ±25 % here.
//!
//! What can be done is to measure the machine while measuring the program.
//! [`Paced`] wraps the trace iterator and, every [`SLICE_EVERY`] requests,
//! runs a short slice of two fixed reference loops ([`Reference`]) and
//! times each. The slices are spread evenly through exactly the interval
//! the replay occupies, so their rates are the machine's speed *during the
//! replay*. The slices' own time is taken out of the replay's wall time,
//! and what is left is scaled to what it would have been at the nominal
//! rates:
//!
//! ```text
//! host_ns_per_req = (wall − Σ slices) / requests × √(arithmetic speed × cache speed)
//! ```
//!
//! The loops are this package's own code — no library change can make them
//! faster or slower — so a change to the simulator moves the figure as it
//! moves wall time on a quiet machine, while the machine's own mood divides
//! out.
//!
//! Two loops, because the box has two moods. In one everything slows
//! together, register arithmetic included. In the other only code that
//! leans on the caches slows — the cache loop by up to 2× — while
//! arithmetic is untouched; and how much a replay shares of *that* depends
//! on the workload (fitted exponents against the cache loop alone ran from
//! ≈ 0 for `fin1_learned`, whose refits are floating-point loops, to 1.05
//! for `fin2_tpftl`, and moved between sessions). With both loops a
//! regression of `ln(raw time)` on the two `ln(speed)`s gives exponents
//! that add up to 1 (0.8–1.15 over the seven workloads), as they should if
//! the first mood is shared in full; how the 1 divides between them still
//! varies by workload (cache part 0.3–1.0), but the result depends on it
//! far less than with one loop, so one split serves all: [`CACHE_SHARE`].

use std::hint::black_box;
use std::time::Instant;

/// Requests between reference slices.
pub const SLICE_EVERY: u32 = 512;
/// Iterations of each loop per slice (~25 µs + ~5 µs).
const SLICE_ITERS: u64 = 4096;
/// The rates host times are scaled to, in iterations per nanosecond of the
/// cache loop and of the arithmetic loop: roughly this box at its best.
/// Only ratios of host times mean anything, so the values matter only in
/// that they must never change.
const NOMINAL_PER_NS: Speeds = Speeds {
    cache: 0.2,
    arithmetic: 0.9,
};

/// The part of a replay's slowdown taken to follow the cache loop; the rest
/// follows the arithmetic loop. In the noisiest session measured (raw
/// ten-second repetitions spreading 10–23 %) any value from 0.25 to 0.75
/// left every workload within 2–9 %, 0.5 within 2–7 %; one loop alone left
/// up to 19 %.
pub const CACHE_SHARE: f64 = 0.5;

/// Two fixed loops.
///
/// The cache loop is shaped like the simulator's hot paths: a dependent
/// xorshift, random reads and writes in a 256 KB table (L2-resident, like
/// the Financial devices' flash arrays), and a data-dependent branch. The
/// table size was chosen by experiment: with 64 KB the simulator slowed
/// ~18 % more than the loop when the machine slowed, with 4 MB and more the
/// slices themselves became noisy.
///
/// The arithmetic loop is four independent integer recurrences held in
/// registers: it touches no memory.
pub struct Reference {
    table: Vec<u32>,
    state: u64,
    lanes: [u64; 4],
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    const MASK: usize = (1 << 16) - 1;

    /// Fresh loop states, run once so that the first timed slice finds the
    /// table in cache like every later one.
    pub fn new() -> Self {
        let mut reference = Self {
            table: (0..=Self::MASK as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            lanes: [1, 3, 88_172_645_463_325_252, 7],
        };
        reference.cache(8 * SLICE_ITERS);
        reference
    }

    /// Runs `iters` iterations of the cache loop.
    #[inline(never)]
    pub fn cache(&mut self, iters: u64) {
        let mut x = self.state;
        let mut acc = 0u32;
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & Self::MASK;
            let v = self.table[i];
            if v & 1 == 1 {
                self.table[i] = v.wrapping_add(x as u32);
            } else {
                self.table[(i + v as usize) & Self::MASK] ^= (x >> 32) as u32;
            }
            acc = acc.wrapping_add(v);
        }
        black_box(acc);
        self.state = x;
    }

    /// Runs `iters` iterations of the arithmetic loop.
    #[inline(never)]
    pub fn arithmetic(&mut self, iters: u64) {
        let [mut a, mut b, mut c, mut d] = black_box(self.lanes);
        for _ in 0..iters {
            a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            b = b.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(3);
            c = (c ^ (c << 13)) ^ (c >> 7);
            d = d.wrapping_add(d >> 3).wrapping_add(5);
        }
        self.lanes = black_box([a, b, c, d]);
    }
}

/// One number per loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Speeds {
    /// Of the cache loop.
    pub cache: f64,
    /// Of the arithmetic loop.
    pub arithmetic: f64,
}

/// Reference work done and the time it took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slices {
    /// Iterations of each loop.
    pub iters: u64,
    /// Wall time inside the cache loop, ns.
    pub cache_ns: u64,
    /// Wall time inside the arithmetic loop, ns.
    pub arithmetic_ns: u64,
}

impl Slices {
    /// Wall time inside slices, ns.
    pub fn ns(&self) -> u64 {
        self.cache_ns + self.arithmetic_ns
    }

    /// Machine speed over the slices, per loop, as a multiple of nominal.
    pub fn speeds(&self) -> Speeds {
        let speed = |ns: u64, nominal: f64| {
            if ns == 0 {
                1.0
            } else {
                self.iters as f64 / ns as f64 / nominal
            }
        };
        Speeds {
            cache: speed(self.cache_ns, NOMINAL_PER_NS.cache),
            arithmetic: speed(self.arithmetic_ns, NOMINAL_PER_NS.arithmetic),
        }
    }

    /// Scales `wall_ns` — a replay that *contains* these slices — to
    /// nominal machine speed, after taking the slices' own time out.
    pub fn compensate(&self, wall_ns: f64) -> f64 {
        let speeds = self.speeds();
        (wall_ns - self.ns() as f64)
            * speeds.cache.powf(CACHE_SHARE)
            * speeds.arithmetic.powf(1.0 - CACHE_SHARE)
    }
}

/// Times one slice of each loop into `slices`.
pub fn slice(reference: &mut Reference, slices: &mut Slices) {
    let start = Instant::now();
    reference.cache(SLICE_ITERS);
    let cache_ns = start.elapsed().as_nanos() as u64;
    reference.arithmetic(SLICE_ITERS);
    slices.arithmetic_ns += start.elapsed().as_nanos() as u64 - cache_ns;
    slices.cache_ns += cache_ns;
    slices.iters += SLICE_ITERS;
}

/// Slices on each side of a bracketed interval.
const BRACKET_SLICES: usize = 4;

/// Runs `f`, a set-up, between two groups of reference slices and returns
/// its result with its wall time scaled to nominal machine speed — an
/// interval too short and too opaque to put slices inside (0.4–20 ms).
/// A set-up is page faults, `memset` and table building, and tracked the
/// cache loop alone 1:1 (fitted exponents 0.8–1.2) on every workload but
/// `msr_tpftl`, so that is what it is scaled by.
pub fn bracketed<R>(reference: &mut Reference, f: impl FnOnce() -> R) -> (R, f64) {
    let mut slices = Slices::default();
    for _ in 0..BRACKET_SLICES {
        slice(reference, &mut slices);
    }
    let t = Instant::now();
    let result = f();
    let wall_ns = t.elapsed().as_nanos() as f64;
    for _ in 0..BRACKET_SLICES {
        slice(reference, &mut slices);
    }
    (result, wall_ns * slices.speeds().cache)
}

/// An iterator adapter that runs a reference slice before the first item
/// and after every [`SLICE_EVERY`]th.
pub struct Paced<I> {
    inner: I,
    until_slice: u32,
    reference: Reference,
    /// What the slices measured so far.
    pub slices: Slices,
}

impl<I> Paced<I> {
    /// Wraps `inner`.
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            until_slice: 0,
            reference: Reference::new(),
            slices: Slices::default(),
        }
    }
}

impl<I: Iterator> Iterator for Paced<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        if self.until_slice == 0 {
            self.until_slice = SLICE_EVERY;
            slice(&mut self.reference, &mut self.slices);
        }
        self.until_slice -= 1;
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_passes_items_through_and_slices_on_schedule() {
        let mut paced = Paced::new(0..(3 * SLICE_EVERY + 1));
        let items: Vec<u32> = paced.by_ref().collect();
        assert_eq!(items, (0..(3 * SLICE_EVERY + 1)).collect::<Vec<_>>());
        // Before items 0, 512, 1024 and 1536.
        assert_eq!(paced.slices.iters, 4 * SLICE_ITERS);
        assert!(paced.slices.cache_ns > 0 && paced.slices.arithmetic_ns > 0);
    }

    #[test]
    fn compensation_takes_slices_out_and_scales_by_both_speeds() {
        // 1800 iterations of each loop: 9000 ns of cache loop is nominal
        // speed (0.2 per ns), 8000 ns of arithmetic a quarter of it (0.9).
        let slices = Slices {
            iters: 1800,
            cache_ns: 9000,
            arithmetic_ns: 8000,
        };
        let speeds = slices.speeds();
        assert!((speeds.cache - 1.0).abs() < 1e-12 && (speeds.arithmetic - 0.25).abs() < 1e-12);
        // 117 000 ns of wall, 17 000 of them slices: 100 000 ns of replay,
        // scaled by √(1 × 0.25).
        assert!((slices.compensate(117_000.0) - 50_000.0).abs() < 1e-6);
        let idle = Slices::default().speeds();
        assert_eq!((idle.cache, idle.arithmetic), (1.0, 1.0));
    }

    #[test]
    fn the_reference_loops_are_deterministic() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        a.cache(10_000);
        a.arithmetic(10_000);
        b.cache(4_000);
        b.arithmetic(4_000);
        b.cache(6_000);
        b.arithmetic(6_000);
        assert_eq!((a.state, a.lanes), (b.state, b.lanes));
        assert_eq!(a.table, b.table);
    }
}

//! Small-sample statistics and interpolated histogram percentiles.

use tpftl_sim::LatencyHistogram;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// because that is what the driver computes spreads with. `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Clamp the index first, then take the remainder against the
        // clamped index, as Python does: it may fall outside 0..4, which
        // extrapolates for very short inputs.
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; 0 for fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

/// Sub-buckets per power of two in [`LatencyHistogram`].
const SUBS: usize = 8;

/// Lower edge of histogram bucket `idx`: bucket 0 is everything below 1,
/// bucket `1 + 8e + s` starts at `2^e × (1 + s/8)`.
fn lower_edge(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    let (exp, sub) = ((idx - 1) / SUBS, (idx - 1) % SUBS);
    (2.0f64).powi(exp as i32) * (1.0 + sub as f64 / SUBS as f64)
}

/// The `q`-quantile of `hist`, interpolated linearly inside the bucket
/// that holds the rank.
///
/// `LatencyHistogram::quantile` reports that bucket's lower edge, which
/// moves in 12.5 % steps or not at all; the interpolated value moves with
/// every sample that crosses the rank, so a 3 % shift of the tail is
/// visible and a fixed seed still reproduces it to the last bit (it is
/// integer counts and exact powers of two). The bucket counts are read
/// through the histogram's serialized form, its only public view of them.
pub fn quantile_interp(hist: &LatencyHistogram, q: f64) -> f64 {
    let counts: Vec<u64> = serde_json::to_value(hist)
        .ok()
        .and_then(|v| {
            v.get("counts")?
                .as_array()?
                .iter()
                .map(|c| c.as_u64())
                .collect()
        })
        .expect("LatencyHistogram serializes a `counts` array of integers");
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).clamp(0.0, total as f64);
    let mut below = 0u64;
    for (idx, &count) in counts.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= target {
            if idx + 1 == counts.len() {
                return lower_edge(idx); // overflow bucket has no upper edge
            }
            let inside = (target - below as f64) / count as f64;
            let (lo, hi) = (lower_edge(idx), lower_edge(idx + 1));
            return lo + inside * (hi - lo);
        }
        below += count;
    }
    lower_edge(counts.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), 5.5 / 5.5);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn bucket_edges_agree_with_the_library() {
        // One sample per histogram: the library's quantile is the lower
        // edge of that sample's bucket, and so is ours at rank → 0.
        for v in [0.5, 1.0, 1.9, 25.0, 384.0, 1500.0, 147_456.0, 3.3e9] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            let lib = h.quantile(1.0);
            assert_eq!(quantile_interp(&h, 0.0), lib, "lower edge for {v}");
            assert!(
                lib <= v && v < quantile_interp(&h, 1.0),
                "upper edge for {v}"
            );
        }
    }

    #[test]
    fn interpolation_moves_within_the_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(25.0); // bucket [24, 26)
        }
        for _ in 0..100 {
            h.record(400.0); // bucket [384, 416)
        }
        assert_eq!(quantile_interp(&h, 0.25), 25.0);
        assert_eq!(quantile_interp(&h, 0.5), 26.0);
        assert_eq!(quantile_interp(&h, 0.75), 400.0);
        assert_eq!(h.quantile(0.75), 384.0);
        assert_eq!(quantile_interp(&LatencyHistogram::new(), 0.5), 0.0);
    }
}

//! Fixed-memory log-bucket latency histogram and the small order
//! statistics the report is built from.
//!
//! The generators record every latency into a [`Hist`] instead of a
//! sample vector so the client side costs the child a constant 16 KiB
//! per histogram: `rss_mb` is an end-to-end metric and must not grow with
//! the number of transactions the *benchmark* happened to time.

/// Linear sub-buckets per power of two (2^7 → ≤ 0.8 % bucket width).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^36 ns (~69 s) share the last bucket.
const MAX_SHIFT: u64 = 29;
const BUCKETS: usize = ((MAX_SHIFT + 2) * SUB) as usize;

/// Histogram of nanosecond values with relative bucket width 1/128.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0u32; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros() - SUB_BITS) as u64;
    if shift > MAX_SHIFT {
        return BUCKETS - 1;
    }
    (shift * SUB + (v >> shift)) as usize
}

/// Lowest value of bucket `idx` and the bucket's width.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return (idx, 1);
    }
    let shift = idx / SUB - 1;
    ((idx % SUB + SUB) << shift, 1 << shift)
}

impl Hist {
    /// Records one value.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0..=1`), i.e. the value at rank `q·(n−1)` of the
    /// sorted samples, interpolated linearly inside the bucket holding
    /// that rank so the result is not quantised to bucket edges. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if c > 0 && rank < (before + c) as f64 {
                let (low, width) = bucket_bounds(idx);
                let within = (rank - before as f64 + 0.5) / c as f64;
                return low as f64 + within * width as f64;
            }
            before += c;
        }
        let (low, width) = bucket_bounds(BUCKETS - 1);
        (low + width) as f64
    }
}

/// Median of `values` (mean of the two middle values for an even count;
/// 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// First quartile, median and third quartile of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// Interquartile range of `values` as a percentage of their median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med * 100.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = q * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn buckets_tile_the_value_range_without_gaps() {
        let mut expected_low = 0;
        for idx in 0..BUCKETS {
            let (low, width) = bucket_bounds(idx);
            assert_eq!(low, expected_low, "bucket {idx}");
            assert_eq!(bucket_of(low), idx);
            assert_eq!(bucket_of(low + width - 1), idx);
            expected_low = low + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_match_a_sorted_vector_within_bucket_width() {
        // Latency-shaped: a log-uniform body from 2 µs to 2 ms plus a
        // sparse tail out to 130 ms.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut samples = Vec::new();
        for i in 0..200_000u64 {
            let r = xorshift(&mut state);
            let octave = if i % 1000 == 0 {
                17 + r % 10
            } else {
                11 + r % 10
            };
            samples.push((1u64 << octave) + xorshift(&mut state) % (1u64 << octave));
        }
        let mut hist = Hist::default();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        assert_eq!(hist.count(), samples.len() as u64);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = samples[(q * (samples.len() - 1) as f64).round() as usize] as f64;
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 100.0,
                "q={q}: histogram {got} vs sorted {exact}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_merge_adds_up() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        for v in [3, 5, 7] {
            a.record(v);
        }
        for v in [1, 9] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        // Sorted 1 3 5 7 9: the median sample is 5, reported at the
        // centre of its unit-wide bucket.
        assert!((a.quantile(0.5) - 5.5).abs() < 1e-9);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_spoiled_slice() {
        // Twelve slices at ~100k tps, one hit by a neighbour's burst:
        // the estimator must report the undisturbed level.
        let mut slices = vec![100_000.0; 12];
        for (i, s) in slices.iter_mut().enumerate() {
            *s += i as f64 * 10.0;
        }
        slices[4] = 31_000.0;
        let m = median(&slices);
        assert!((100_000.0..100_120.0).contains(&m), "median {m}");
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        let (q1, med, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, med, q3), (2.0, 3.0, 4.0));
        assert!((iqr_pct(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 200.0 / 3.0).abs() < 1e-9);
    }
}

//! Order statistics over wall-clock samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `sorted` (ascending). Zero for
/// an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of the form `p50`, `p90`, `p99`, `p99.9` that has
/// at least ten of `n` samples beyond it — the tail a sample count can
/// support.
pub fn supported_tail(n: usize) -> &'static str {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, q)| (n as f64) * (1.0 - q) >= 10.0)
        .map_or("p50", |(name, _)| name)
}

/// Log-bucketed histogram of nanosecond samples: exact below 64, then 64
/// buckets per power of two (under 1.6% relative error). Its size is fixed,
/// so pooling every sample of a run costs no memory that grows with the run.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

const SUB: u32 = 6;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; ((64 - SUB as usize) + 1) << SUB],
            n: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < 1 << SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let m = (v >> (e - SUB)) & ((1 << SUB) - 1);
        (((e - SUB + 1) << SUB) as u64 + m) as usize
    }

    /// Smallest value that falls in bucket `i`.
    fn floor(i: usize) -> u64 {
        if i < 1 << SUB {
            return i as u64;
        }
        let e = (i >> SUB) as u32 + SUB - 1;
        let m = (i & ((1 << SUB) - 1)) as u64;
        (1 << e) | (m << (e - SUB))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile `q` (the floor of its bucket); zero if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank && c > 0 {
                return Self::floor(i) as f64;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_quantiles_are_within_two_percent() {
        let mut h = Histogram::default();
        let mut v: Vec<u64> = (0..10_000u64).map(|i| 1 + i * i * 37 % 5_000_000).collect();
        for &x in &v {
            h.record(x);
        }
        v.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let exact = quantile_sorted(&v, q);
            let approx = h.quantile(q);
            assert!(
                approx <= exact && approx >= exact * 0.98,
                "q={q}: {approx} vs {exact}"
            );
        }
        assert_eq!(h.len(), 10_000);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(999), "p90");
        assert_eq!(supported_tail(1000), "p99");
        assert_eq!(supported_tail(50), "p50");
    }
}

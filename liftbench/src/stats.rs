//! Summary statistics and the result line: medians, quartiles,
//! percentiles under the ten-beyond rule, metric-name validation, and
//! a seeded generator for request order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default `exclusive`
/// method), so spreads read the same here and in any script that checks
/// them. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A nearest-rank percentile together with the sample count it rests
/// on. `None` when fewer than [`MIN_BEYOND`] samples lie beyond it, so a
/// reported tail always has ten samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// All samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The `q`-th quantile (`0 < q < 1`) by nearest rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: v[rank - 1],
        samples: n,
        beyond,
    })
}

/// The `q`-th quantile of a log-bucketed histogram given as
/// `(inclusive upper bound, count)` pairs in ascending order (the
/// `gtl_trace::LatencyHistogram` layout: exact buckets below 16, then 16
/// buckets per power of two). The rank is interpolated linearly inside
/// its bucket, so the estimate moves with the data instead of sticking
/// to bucket edges.
pub fn hist_quantile(buckets: &[(u64, u64)], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    let rank = (q * total as f64).clamp(0.0, total as f64);
    let mut before = 0.0;
    for &(upper, n) in buckets {
        let n = n as f64;
        if before + n >= rank && n > 0.0 {
            let width = if upper < 16 {
                1
            } else {
                1u64 << (63 - upper.leading_zeros() - 4)
            };
            let lower = (upper - (width - 1)) as f64;
            return Some(lower + width as f64 * (rank - before) / n);
        }
        before += n;
    }
    buckets.last().map(|&(upper, _)| upper as f64)
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit, has at most 64 characters, and uses only ASCII
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit, e.g. `ms`, `s`, `count`.
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single count).
    pub samples: usize,
}

/// Named metrics in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name, or a non-finite value:
    /// both are bugs in the benchmark, not in the measured program.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        let previous = self.entries.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
        assert!(previous.is_none(), "metric `{name}` reported twice");
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// Sample counts per metric, for the detail line.
    pub fn samples_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, m)| format!("\"{name}\": {}", m.samples))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Formats a finite float as a JSON number with every digit Rust's
/// shortest round-trip form gives it.
pub fn json_number(value: f64) -> String {
    let s = format!("{value}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// SplitMix64: a small seeded generator for request order and draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&hundred, 0.9).expect("10 samples lie beyond p90");
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        // p99 of 100 samples has only one beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        // 99 samples leave only 9 beyond p90.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        let p50 = percentile(&hundred[..20], 0.5).expect("10 beyond the median of 20");
        assert_eq!((p50.value, p50.samples, p50.beyond), (10.0, 20, 10));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&thousand, 0.99).expect("10 samples beyond p99");
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        assert_eq!(hist_quantile(&[], 0.5), None);
        // Exact buckets: 10 values of 3.
        assert_eq!(hist_quantile(&[(3, 10)], 0.5), Some(3.5));
        // Bucket [32, 33] (width 2 above 32): the middle of 4 values.
        assert_eq!(hist_quantile(&[(33, 4)], 0.5), Some(33.0));
        // Half the mass in [992, 1023], half in [2048, 2175].
        let b = [(1023, 5), (2175, 5)];
        assert_eq!(hist_quantile(&b, 0.5), Some(1024.0));
        assert_eq!(hist_quantile(&b, 0.9), Some(2048.0 + 128.0 * 0.8));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "lat_p50_ms", "search.self_ms", "0x-ray", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/s",
            "ünï",
            "a\"b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().put("bad name", 1.0, "s", 1);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn metrics_reject_repeats() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "s", 1);
        m.put("x", 2.0, "s", 1);
    }

    #[test]
    fn result_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("b_ms", 1.203_456_789, "ms", 5);
        m.put("a", 76.0, "count", 1);
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 76.0, \"unit\": \"count\"}, \
             \"b_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}"
        );
        assert_eq!(m.samples_json(), "{\"a\": 1, \"b_ms\": 5}");
        assert_eq!(json_string("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }

    #[test]
    fn rng_is_seeded_and_permutes() {
        let a = Rng::new(7, 1).permutation(77);
        assert_eq!(a, Rng::new(7, 1).permutation(77));
        assert_ne!(a, Rng::new(8, 1).permutation(77));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..77).collect::<Vec<_>>());
    }
}

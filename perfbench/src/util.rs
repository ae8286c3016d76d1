//! Small shared pieces: the seeded generator, order statistics, peak memory
//! and the metric list a run prints.

/// SplitMix64: the benchmark's only source of randomness, driven by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The q-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics. `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos - pos.floor());
    if i + 1 < v.len() {
        v[i] + (v[i + 1] - v[i]) * frac
    } else {
        v[i]
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the slowest `1 − q` share of the values (at least one): the
/// mean beyond the q-quantile. Unlike the quantile itself it moves smoothly
/// when the sample is a mixture of two speeds whose proportions shift.
/// `NaN` for an empty sample.
pub fn tail_mean(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((1.0 - q) * v.len() as f64).ceil().max(1.0) as usize;
    mean(&v[v.len().saturating_sub(k)..])
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process so far (`VmHWM`), in MB (10^6
/// bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// The metrics one run reports, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The outcome of one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Report {
    /// The result line: `correct` is false when a metric could not be
    /// measured (not finite), since that means the run itself went wrong.
    pub fn to_json(&self) -> String {
        let correct = self.metrics.0.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_mean_takes_the_slowest_share() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_mean(&v, 0.9), 19.5);
        assert_eq!(tail_mean(&v[..5], 0.9), 5.0);
        assert_eq!(tail_mean(&[3.0, 1.0, 2.0], 0.0), 2.0);
        assert!(tail_mean(&[], 0.9).is_nan());
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(8).next_u64(), Rng::new(7).next_u64());
    }
}

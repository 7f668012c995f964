//! Seeded randomness, percentiles and process measurements shared by every
//! workload.

use std::time::Duration;

/// SplitMix64: a tiny, fully specified generator, so an input stream
/// depends only on the seed and never on a library's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// A sample of measurements (any unit), in the order they were taken,
/// with nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Sorted copy of `values`, rebuilt on demand (empty when stale).
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted.clear();
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile: the smallest sample with at least `q` of
    /// the sample at or below it. Zero for an empty sample.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if self.sorted.is_empty() {
            self.sorted = self.values.clone();
            self.sorted.sort_by(f64::total_cmp);
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(0.5)
    }

    /// Samples strictly above the `q` percentile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        let rank = (q * self.values.len() as f64).ceil() as usize;
        self.values.len().saturating_sub(rank)
    }

    /// Whether the `q` percentile is backed by at least `min` samples
    /// beyond it.
    pub fn tail_supported(&self, q: f64, min: usize) -> bool {
        self.beyond(q) >= min
    }
}

/// Operation latencies (ms) and the time the last one completed (measured
/// time since the phase began).
#[derive(Debug, Clone, Default)]
pub struct Ops {
    ms: Samples,
    done_s: f64,
}

impl Ops {
    pub fn push(&mut self, latency: Duration, done: Duration) {
        self.ms.push(latency.as_secs_f64() * 1e3);
        self.done_s = done.as_secs_f64();
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn ms(&self) -> Samples {
        self.ms.clone()
    }

    /// Completed operations per second of measured time.
    pub fn per_s(&self) -> f64 {
        if self.done_s > 0.0 {
            self.ms.len() as f64 / self.done_s
        } else {
            0.0
        }
    }
}

/// Samples a tail percentile must have beyond it to be reported as
/// measured.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Samples needed so that the `q` percentile has `MIN_TAIL_SAMPLES`
/// beyond it.
pub fn samples_for_tail(q: f64) -> usize {
    (MIN_TAIL_SAMPLES as f64 / (1.0 - q)).ceil() as usize + 1
}

/// The process's peak resident set size in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// The process's current resident set size in bytes (`VmRSS`).
pub fn rss_bytes() -> Option<f64> {
    proc_status_kb("VmRSS:").map(|kb| kb * 1024.0)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_inputs() {
        let mut s = Samples::new();
        for v in (1..=100).rev() {
            s.push(v as f64);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(0.50), 50.0);
        assert_eq!(s.percentile(0.90), 90.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.beyond(0.90), 10);
        assert_eq!(s.beyond(0.99), 1);
        assert!(s.tail_supported(0.90, MIN_TAIL_SAMPLES));
        assert!(!s.tail_supported(0.99, MIN_TAIL_SAMPLES));
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn percentile_of_small_and_empty_samples() {
        let mut empty = Samples::new();
        assert_eq!(empty.percentile(0.5), 0.0);
        let mut one = Samples::new();
        one.push(7.0);
        assert_eq!(one.percentile(0.5), 7.0);
        assert_eq!(one.percentile(0.99), 7.0);
        let mut three = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            three.push(v);
        }
        assert_eq!(three.median(), 2.0);
    }

    #[test]
    fn op_rate_counts_measured_time() {
        let mut ops = Ops::default();
        assert_eq!(ops.per_s(), 0.0);
        // 200 ops of 5 ms back to back: 1 s of measured time.
        for i in 1..=200 {
            ops.push(Duration::from_millis(5), Duration::from_millis(5 * i));
        }
        assert_eq!(ops.len(), 200);
        assert!((ops.per_s() - 200.0).abs() < 1e-9);
        assert!((ops.ms().median() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tail_sample_requirement() {
        // p99 needs 10 samples beyond it: 1001 samples leave 10 above rank 991.
        let n = samples_for_tail(0.99);
        let mut s = Samples::new();
        for v in 0..n {
            s.push(v as f64);
        }
        assert!(s.tail_supported(0.99, MIN_TAIL_SAMPLES), "n = {n}");
        assert!(samples_for_tail(0.90) <= 102);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..8).scan(Rng::new(5), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(5), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(6), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}

//! Order statistics shared by the runner and the compare mode.

/// Quartile cut points of `values` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method): `[q1, median, q3]`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        *slot = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    Some(out)
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks (rank `q * (n - 1)`); 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (data.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    data[lo] + (data[hi] - data[lo]) * (rank - lo as f64)
}

fn window_quantiles(latencies: &[f64]) -> [f64; 2] {
    WINDOW_QUANTILES.map(|q| percentile(latencies, q))
}

/// Latency histogram resolution: buckets are 0.1% wide in log space.
const LOG_SCALE: f64 = 1000.0;
/// Bucket 0 starts at e^-5 µs (about 7 ns).
const LOG_OFFSET: f64 = 5.0;
/// Buckets up to e^21 µs (about 15 days).
const BUCKETS: usize = 26 * LOG_SCALE as usize;

/// The latency quantiles [`Recorder::window_percentile_us`] tracks.
pub const WINDOW_QUANTILES: [f64; 2] = [0.5, 0.9];

/// Where among its windows a run's rate and window latencies are read:
/// a tenth of the way from the fastest window. Interference from other
/// tenants only ever slows a window down, so this reading ignores slow
/// phases that cover up to nine tenths of a run. With 0.25 s windows a
/// 25 s run reads its tenth-fastest window, so no single window decides.
pub const FAST_WINDOWS: f64 = 0.1;

/// Record of a timed loop: a log-bucketed latency histogram and
/// per-window sums. Its memory grows with the number of windows, not of
/// items, so peak RSS barely depends on throughput.
///
/// Throughput is robust to interference from other tenants of the
/// machine: completions are grouped into consecutive windows by
/// completion time, each window's rate is its items over its busy time,
/// and [`Recorder::rate`] reads the window rates at the `FAST_WINDOWS`
/// rank. The latency quantiles of each window are kept too and read the
/// same way ([`Recorder::window_percentile_us`]); only the open window's
/// latencies are held.
#[derive(Debug, Clone)]
pub struct Recorder {
    buckets: Vec<u64>,
    count: u64,
    sum_us: f64,
    window_s: f64,
    windows: Vec<(f64, f64)>,
    /// Latencies of the open window, and its index.
    open: Vec<f64>,
    open_window: usize,
    /// `WINDOW_QUANTILES` of each closed window that had completions.
    closed: Vec<[f64; 2]>,
}

impl Recorder {
    pub fn new(window_s: f64) -> Recorder {
        Recorder {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_us: 0.0,
            window_s,
            windows: Vec::new(),
            open: Vec::new(),
            open_window: 0,
            closed: Vec::new(),
        }
    }

    /// One completion at `end_s` (seconds since the loop started) of
    /// `items` items that kept the loop busy for `busy_s` and took
    /// `latency_us`. For a loop that is always busy, `busy_s` is the time
    /// since its previous completion.
    pub fn record(&mut self, end_s: f64, items: f64, busy_s: f64, latency_us: f64) {
        let b = ((latency_us.max(1e-3).ln() + LOG_OFFSET) * LOG_SCALE).max(0.0) as usize;
        self.buckets[b.min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum_us += latency_us;
        let w = (end_s / self.window_s).max(0.0) as usize;
        if self.windows.len() <= w {
            self.windows.resize(w + 1, (0.0, 0.0));
        }
        self.windows[w].0 += items;
        self.windows[w].1 += busy_s;
        if w != self.open_window && !self.open.is_empty() {
            self.closed.push(window_quantiles(&self.open));
            self.open.clear();
        }
        self.open_window = w;
        self.open.push(latency_us);
    }

    /// Each window's `q`-quantile latency, in µs, read at the
    /// `FAST_WINDOWS` rank over windows (the faster windows); `q` must be
    /// one of `WINDOW_QUANTILES`. Windows of this recorder only: merging
    /// with [`Recorder::merge`] adds no window quantiles.
    pub fn window_percentile_us(&self, q: f64) -> f64 {
        self.window_percentile_at(q, FAST_WINDOWS)
    }

    fn window_percentile_at(&self, q: f64, rank: f64) -> f64 {
        let k = WINDOW_QUANTILES
            .iter()
            .position(|&w| w == q)
            .expect("a tracked window quantile");
        let open = (!self.open.is_empty()).then(|| window_quantiles(&self.open));
        let per_window: Vec<f64> = self.closed.iter().chain(&open).map(|w| w[k]).collect();
        percentile(&per_window, rank)
    }

    /// Fold another recorder (same window length) into this one.
    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), (0.0, 0.0));
        }
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Mean latency, µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// Window rate at the `FAST_WINDOWS` rank from the top (the faster
    /// windows), items per busy second.
    pub fn rate(&self) -> f64 {
        self.rate_at(1.0 - FAST_WINDOWS)
    }

    fn rate_at(&self, rank: f64) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .filter(|(_, busy)| *busy > 0.0)
            .map(|(items, busy)| items / busy)
            .collect();
        percentile(&rates, rank)
    }

    /// The `q`-quantile latency in µs: within 0.1% of one of the two
    /// samples around rank `q * (n - 1)`, interpolated inside its bucket.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut before = 0.0;
        for (b, &c) in self.buckets.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && rank < before + c {
                let frac = (rank - before + 0.5) / c;
                return ((b as f64 + frac) / LOG_SCALE - LOG_OFFSET).exp();
            }
            before += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(median(&v), 25.0);
        assert!((percentile(&v, 0.9) - 37.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn recorder_rate_reads_the_faster_windows() {
        // Five windows of 1 s: 10/s, 12/s, 11/s and two disturbed ones,
        // 2/s and 3/s. The rate is read a tenth from the fastest, at rank
        // 3.6 of 0..=4.
        let mut r = Recorder::new(1.0);
        assert_eq!(r.rate(), 0.0);
        r.record(0.5, 5.0, 0.5, 100.0);
        r.record(0.9, 5.0, 0.5, 100.0);
        r.record(1.5, 12.0, 1.0, 100.0);
        let mut other = Recorder::new(1.0);
        other.record(2.5, 2.0, 1.0, 100.0);
        other.record(3.5, 3.0, 1.0, 100.0);
        other.record(4.5, 11.0, 1.0, 100.0);
        r.merge(&other);
        assert_eq!(r.rate_at(0.5), 10.0);
        assert!((r.rate() - 11.6).abs() < 1e-9);
        assert_eq!(r.mean_us(), 100.0);
    }

    #[test]
    fn window_percentiles_read_the_faster_windows() {
        // Five windows of 1 s; the second and fourth are disturbed.
        let mut r = Recorder::new(1.0);
        for (w, scale) in [(0.0, 1.0), (1.0, 10.0), (2.0, 1.2), (3.0, 8.0), (4.0, 1.1)] {
            for i in 1..=10 {
                r.record(w + 0.05 * f64::from(i), 1.0, 0.01, scale * f64::from(i));
            }
        }
        // Window p50s are 5.5 × scale, so 5.5, 6.05, 6.6, 44 and 55 in
        // order; p90s are 9.1 × scale. Read at rank 0.4 of 0..=4.
        assert!((r.window_percentile_at(0.5, 0.5) - 6.6).abs() < 1e-9);
        assert!((r.window_percentile_us(0.5) - 5.72).abs() < 1e-9);
        assert!((r.window_percentile_us(0.9) - 9.464).abs() < 1e-9);
        assert_eq!(Recorder::new(1.0).window_percentile_us(0.9), 0.0);
    }

    #[test]
    fn recorder_percentiles_bracket_the_exact_rank() {
        let mut r = Recorder::new(1.0);
        let values: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 3.7).collect();
        for &v in &values {
            r.record(0.0, 1.0, 0.0, v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            // Within 0.1% of the two samples around the exact rank.
            let rank = q * (values.len() - 1) as f64;
            let lo = values[rank.floor() as usize] * (1.0 - 1e-3);
            let hi = values[rank.ceil() as usize] * (1.0 + 1e-3);
            let approx = r.percentile_us(q);
            assert!(
                lo <= approx && approx <= hi,
                "q {q}: {approx} not in [{lo}, {hi}]"
            );
        }
    }
}

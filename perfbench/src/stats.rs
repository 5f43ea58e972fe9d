//! Exact statistics over kept samples, and the process facts read from
//! `/proc`.

use std::collections::BTreeMap;

/// Latency samples kept whole, so percentiles are exact order statistics
/// rather than histogram buckets. A failed, refused or malformed request is
/// kept as `+inf`: it is over any latency limit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`; `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
    }

    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0)
    }
}

/// Median of a small set of repeated measurements (mean of the two middle
/// values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-class cost from batch timings: solves `time_b = Σ_c count_bc · x_c`
/// by least squares over all batches. Used where timing each call would
/// cost as much as the call itself (a timer read is tens of ns), so calls
/// are timed per batch and the classes in a batch are told apart by how
/// their counts vary between batches. Classes that never occur get 0.
pub fn per_class_cost<const K: usize>(batches: &[([f64; K], f64)]) -> [f64; K] {
    let active: Vec<usize> = (0..K)
        .filter(|&c| batches.iter().any(|(n, _)| n[c] > 0.0))
        .collect();
    let m = active.len();
    let mut a = vec![vec![0.0f64; m + 1]; m];
    for (counts, t) in batches {
        for (i, &ci) in active.iter().enumerate() {
            for (j, &cj) in active.iter().enumerate() {
                a[i][j] += counts[ci] * counts[cj];
            }
            a[i][m] += counts[ci] * t;
        }
    }
    // Gaussian elimination with partial pivoting on the normal equations.
    for col in 0..m {
        let pivot = (col..m)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        let p = a[col][col];
        if p.abs() < f64::MIN_POSITIVE {
            continue;
        }
        let pivot_row = a[col].clone();
        for (row, r) in a.iter_mut().enumerate() {
            if row != col {
                let f = r[col] / p;
                for (x, y) in r.iter_mut().zip(&pivot_row).skip(col) {
                    *x -= f * y;
                }
            }
        }
    }
    let mut out = [0.0; K];
    for (i, &c) in active.iter().enumerate() {
        if a[i][i].abs() >= f64::MIN_POSITIVE {
            out[c] = (a[i][m] / a[i][i]).max(0.0);
        }
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU time of every thread of this process, summed by thread name, in
/// milliseconds. Names come from `/proc/self/task/*/comm`; times from
/// `schedstat`, whose nanosecond count is finer than `stat`'s clock ticks.
pub fn task_cpu_ms() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let ns = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| {
                s.split_whitespace()
                    .next()
                    .and_then(|f| f.parse::<f64>().ok())
            });
        if let Some(ns) = ns {
            *out.entry(name.trim().to_string()).or_insert(0.0) += ns / 1e6;
        }
    }
    out
}

/// On-CPU time of the calling thread, in milliseconds.
pub fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|f| f.parse::<f64>().ok())
        })
        .map_or(0.0, |ns| ns / 1e6)
}

/// CPU milliseconds spent between two [`task_cpu_ms`] snapshots by the
/// threads whose name starts with `prefix`.
pub fn cpu_delta_ms(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    prefix: &str,
) -> f64 {
    after
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        s.push(f64::INFINITY);
        assert_eq!(s.max(), Some(f64::INFINITY));
    }

    #[test]
    fn per_class_cost_recovers_known_costs() {
        let cost = [3.0, 10.0, 0.0];
        let batches: Vec<([f64; 3], f64)> = (0..50)
            .map(|b| {
                let g = f64::from(b % 7 + 1);
                let s = f64::from(b % 5);
                ([g, s, 0.0], g * cost[0] + s * cost[1])
            })
            .collect();
        let est = per_class_cost(&batches);
        for c in 0..3 {
            assert!((est[c] - cost[c]).abs() < 1e-9, "{est:?}");
        }
    }

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}

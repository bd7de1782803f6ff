//! Order statistics. Gated timings are medians at nominal speed
//! (`metrics.rs`); the quiet floor serves the traced run's raw timings
//! and `host.block_drift`.

/// Linear-interpolated percentile of unsorted values; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// What the machine gives when the host is quiet: the 10th percentile
/// across blocks. Slow host phases only ever add time, so the low tail
/// of the block distribution is the part that repeats.
pub fn quiet_floor(per_block: &[f64]) -> f64 {
    percentile(per_block, 10.0)
}

/// Quiet floor of per-block medians: `blocks[b]` holds block `b`'s
/// samples of one metric; empty blocks are skipped.
pub fn quiet_floor_of_medians(blocks: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| median(b))
        .collect();
    quiet_floor(&medians)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn quiet_floor_ignores_slow_blocks() {
        let mut blocks = vec![10.0; 80];
        blocks.extend(vec![15.0; 20]);
        assert_eq!(quiet_floor(&blocks), 10.0);
    }
}

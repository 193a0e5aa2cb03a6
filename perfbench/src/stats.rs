//! Summary statistics.

use std::collections::BTreeMap;

/// The `q` quantile (0..=1) by linear interpolation between order
/// statistics; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The geometric mean of the positive samples; 0 if there are none.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        mean(&logs).exp()
    }
}

/// One traced operation: id, family, elaborated gates, time, and self
/// time per layer (seconds).
pub type Row = (String, &'static str, f64, f64, BTreeMap<&'static str, f64>);

/// Scaling exponent of `layer`: the least-squares slope of log self time
/// against log elaborated gates, over the family (coding style or pair
/// kind) that spends the most time in the layer. Families mix unlike
/// algorithms (a table lowering is a copy, a case lowering runs espresso),
/// so one family is fitted, not all. 0 when fewer than two sizes ran it.
pub fn fit_exponent(rows: &[Row], layer: &str) -> f64 {
    let time = |r: &Row| r.4.get(layer).copied().unwrap_or(0.0);
    let mut by_family: BTreeMap<&str, f64> = BTreeMap::new();
    for r in rows.iter().filter(|r| r.2 > 0.0) {
        *by_family.entry(r.1).or_default() += time(r);
    }
    let Some((family, _)) = by_family
        .into_iter()
        .filter(|&(_, t)| t > 0.0)
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return 0.0;
    };
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.1 == family && r.2 > 0.0 && time(r) > 0.0)
        .map(|r| (r.2.ln(), time(r).ln()))
        .collect();
    let mx = mean(&pts.iter().map(|p| p.0).collect::<Vec<_>>());
    let my = mean(&pts.iter().map(|p| p.1).collect::<Vec<_>>());
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx < 1e-9 {
        0.0
    } else {
        sxy / sxx
    }
}

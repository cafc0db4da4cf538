//! Span totals, self times, the per-layer time ledger and the tail
//! percentile rule.
//!
//! Every span the benchmark reads records into the telemetry registry's
//! histogram of the same name, whose `sum` is the span's total time in
//! microseconds. A measured segment is the difference of two
//! [`Totals`] captures. Spans nest on one thread (every workload runs
//! with one worker), so the children of a span never overlap each
//! other and the part of the parent they cover is their sum.

use std::collections::BTreeMap;

use monitorless_obs as obs;

/// Count and total microseconds of a set of named spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    spans: BTreeMap<&'static str, (u64, f64)>,
}

impl Totals {
    /// Reads the current totals of `names` from the telemetry registry
    /// (zero for a span that never ran).
    pub fn capture(names: &[&'static str]) -> Self {
        let spans = names
            .iter()
            .map(|&name| {
                let entry = obs::histogram_summary(name).map_or((0, 0.0), |h| (h.count, h.sum));
                (name, entry)
            })
            .collect();
        Totals { spans }
    }

    /// Totals accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let spans = self
            .spans
            .iter()
            .map(|(&name, &(count, us))| {
                let (c0, us0) = earlier.spans.get(name).copied().unwrap_or((0, 0.0));
                (name, (count - c0, us - us0))
            })
            .collect();
        Totals { spans }
    }

    /// Builds totals directly.
    #[cfg(test)]
    pub fn from_pairs(pairs: &[(&'static str, u64, f64)]) -> Self {
        Totals {
            spans: pairs.iter().map(|&(n, c, us)| (n, (c, us))).collect(),
        }
    }

    /// Total microseconds of `name`.
    pub fn us(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |e| e.1)
    }

    /// Number of times `name` ran.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |e| e.0)
    }
}

/// A span's self time: its duration minus the part its children
/// cover. Children of one span run one after another on its thread,
/// so the covered part is their sum.
pub fn self_time(span_us: f64, children_us: &[f64]) -> f64 {
    span_us - children_us.iter().sum::<f64>()
}

/// One segment's time split into named layers plus the remainder no
/// layer claims.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Wall time of the segment, µs (the enclosing span).
    pub wall_us: f64,
    /// `(layer, self µs)` in report order.
    pub layers: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Wall time no layer accounts for: the enclosing span's own self
    /// time.
    pub fn unattributed_us(&self) -> f64 {
        let layers: Vec<f64> = self.layers.iter().map(|l| l.1).collect();
        self_time(self.wall_us, &layers)
    }

    /// Self time of one layer (0 when absent).
    pub fn layer_us(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|l| l.0 == name)
            .map_or(0.0, |l| l.1)
    }

    /// Checks that no self time is negative beyond clock rounding — a
    /// negative one means a child ran outside the span it was charged
    /// to, and the ledger would not describe the run.
    pub fn check(&self) -> Result<(), String> {
        let slack = 1e-6 * self.wall_us.abs() + 1.0;
        for &(name, us) in &self.layers {
            if us < -slack {
                return Err(format!("layer {name} has negative self time {us} us"));
            }
        }
        let rest = self.unattributed_us();
        if rest < -slack {
            return Err(format!("layers exceed the wall by {} us", -rest));
        }
        Ok(())
    }
}

/// Samples required beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` of an ascending sample, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it — a tail read from
/// fewer samples is noise, not a measurement.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    (n - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        assert_eq!(self_time(100.0, &[30.0, 45.0]), 25.0);
        assert_eq!(self_time(100.0, &[]), 100.0);
    }

    #[test]
    fn totals_difference_is_the_segment() {
        let before = Totals::from_pairs(&[("a", 2, 10.0), ("b", 1, 4.0)]);
        let after = Totals::from_pairs(&[("a", 5, 40.0), ("b", 1, 4.0), ("c", 3, 9.0)]);
        let seg = after.since(&before);
        assert_eq!((seg.count("a"), seg.us("a")), (3, 30.0));
        assert_eq!((seg.count("b"), seg.us("b")), (0, 0.0));
        assert_eq!((seg.count("c"), seg.us("c")), (3, 9.0));
        assert_eq!(seg.us("missing"), 0.0);
    }

    #[test]
    fn layers_plus_unattributed_equal_the_wall() {
        // tick 1000 = step 300 (collect 120 inside) + orchestrator 600
        // (gather 250, predict 150 inside) + 100 untracked.
        let t = Totals::from_pairs(&[
            ("tick", 10, 1000.0),
            ("step", 10, 300.0),
            ("collect", 100, 120.0),
            ("orch", 10, 600.0),
            ("gather", 10, 250.0),
            ("predict", 10, 150.0),
        ]);
        let ledger = Ledger {
            wall_us: t.us("tick"),
            layers: vec![
                ("sim", self_time(t.us("step"), &[t.us("collect")])),
                ("collect", t.us("collect")),
                ("gather", t.us("gather")),
                ("predict", t.us("predict")),
                ("fanout", self_time(t.us("orch"), &[t.us("gather"), t.us("predict")])),
            ],
        };
        assert_eq!(ledger.layer_us("sim"), 180.0);
        assert_eq!(ledger.layer_us("fanout"), 200.0);
        assert_eq!(ledger.unattributed_us(), 100.0);
        let sum: f64 = ledger.layers.iter().map(|l| l.1).sum::<f64>() + ledger.unattributed_us();
        assert_eq!(sum, ledger.wall_us);
        assert!(ledger.check().is_ok());
    }

    #[test]
    fn negative_self_time_is_rejected() {
        let ledger = Ledger {
            wall_us: 100.0,
            layers: vec![("a", 80.0), ("b", 40.0)],
        };
        assert!(ledger.check().is_err());
        let ledger = Ledger {
            wall_us: 100.0,
            layers: vec![("a", self_time(10.0, &[25.0]))],
        };
        assert!(ledger.check().is_err());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: rank 190, exactly 10 beyond the p95.
        assert_eq!(tail_percentile(&sample, 0.95), Some(190.0));
        assert_eq!(tail_percentile(&sample[..199], 0.95), None);
        assert_eq!(tail_percentile(&sample[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&sample[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}

//! Per-command latency histograms, reported as `stats.service.latency`: the
//! execute time of every request the daemon dispatched since it started,
//! one fixed-bucket histogram per command name.
//!
//! Buckets are log-scaled, four per doubling (bounds 2^(k/4) µs, ≈ 19 %
//! apart), from 1 µs to 2³² µs; a request slower than that lands in the last
//! bucket.  Recording is a lock and an increment, a percentile a scan of the
//! counters; nothing is sampled or dropped, and memory is fixed per command.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Buckets per doubling of latency.
const PER_OCTAVE: u32 = 4;
/// Bucket `k` holds latencies in `(2^((k-1)/4), 2^(k/4)]` µs; bucket 0
/// everything up to 1 µs.
const BUCKETS: usize = 32 * PER_OCTAVE as usize + 1;

/// One command's latency distribution.
struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    max_us: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            max_us: 0.0,
        }
    }
}

impl Histogram {
    fn bucket(us: f64) -> usize {
        if us <= 1.0 {
            return 0;
        }
        ((us.log2() * f64::from(PER_OCTAVE)).ceil() as usize).min(BUCKETS - 1)
    }

    /// The last bucket also holds everything slower than its bound.
    fn upper_us(bucket: usize) -> f64 {
        if bucket + 1 == BUCKETS {
            return f64::INFINITY;
        }
        (bucket as f64 / f64::from(PER_OCTAVE)).exp2()
    }

    /// Count one request that took `us` microseconds.
    fn record(&mut self, us: f64) {
        self.counts[Self::bucket(us)] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in µs: the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th fastest request, capped at the slowest
    /// one recorded.  Monotone in `q`; 0 when nothing was recorded.
    fn quantile_us(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_us(bucket).min(self.max_us);
            }
        }
        self.max_us
    }
}

/// The histograms of every command name seen so far.
#[derive(Default)]
pub(crate) struct LatencyStats(Mutex<BTreeMap<&'static str, Histogram>>);

impl LatencyStats {
    /// Count one `cmd` request that executed in `elapsed`.
    pub(crate) fn record(&self, cmd: &'static str, elapsed: Duration) {
        let mut all = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        all.entry(cmd)
            .or_default()
            .record(elapsed.as_secs_f64() * 1e6);
    }

    /// `{cmd: {"count", "p50_us", "p90_us", "p99_us"}}`, in command-name
    /// order; percentiles rounded to 0.1 µs.
    pub(crate) fn to_json(&self) -> Json {
        let all = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let us = |h: &Histogram, q| Json::Num((h.quantile_us(q) * 10.0).round() / 10.0);
        Json::Obj(
            all.iter()
                .map(|(cmd, h)| {
                    let row = Json::obj([
                        ("count", Json::int(h.count as i64)),
                        ("p50_us", us(h, 0.5)),
                        ("p90_us", us(h, 0.9)),
                        ("p99_us", us(h, 0.99)),
                    ]);
                    (cmd.to_string(), row)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_bucket_bounds_capped_at_the_max() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0.0, "empty");
        for us in 1..=100 {
            h.record(us as f64);
        }
        assert_eq!(h.count, 100);
        let (p50, p90, p99) = (h.quantile_us(0.5), h.quantile_us(0.9), h.quantile_us(0.99));
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= 100.0,
            "{p50} {p90} {p99}"
        );
        // A bucket bound is at most 2^(1/4) above the value it stands for.
        let tolerance = 2f64.powf(0.25);
        for (q, exact) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
            let got = h.quantile_us(q);
            assert!(got >= exact && got <= exact * tolerance, "p{q}: {got}");
        }
    }

    #[test]
    fn extremes_land_in_the_end_buckets() {
        let mut h = Histogram::default();
        h.record(0.2);
        h.record(1e12);
        assert_eq!(h.quantile_us(0.5), 1.0);
        assert_eq!(h.quantile_us(1.0), 1e12, "capped at the slowest recorded");
    }

    #[test]
    fn stats_report_one_row_per_command() {
        let stats = LatencyStats::default();
        stats.record("slice", Duration::from_micros(300));
        stats.record("slice", Duration::from_micros(500));
        stats.record("guru", Duration::from_micros(40));
        let json = stats.to_json();
        let slice = json.get("slice").unwrap();
        assert_eq!(slice.get("count").and_then(Json::as_i64), Some(2));
        assert!(slice.get("p99_us").and_then(Json::as_f64).unwrap() <= 500.0);
        assert_eq!(
            json.get("guru").and_then(|g| g.get("count")),
            Some(&Json::int(1))
        );
        assert!(json.get("assert").is_none());
    }
}

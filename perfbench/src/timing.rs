//! Rates of the sweeps. A run is cut into consecutive chunks of about
//! `CHUNK` of wall time, each ending at an item boundary (a 64-shot
//! batch, a window round); a chunk's rate is its items over its wall
//! time, and the run's rate is the *sustained* chunk rate, the one three
//! chunks in four reach. A chunk covers every cost paid between its
//! items — per-pass set-up, a periodic resync, a reallocation. A cost
//! paid at least once per chunk is in every chunk's rate; a rarer one
//! slows the chunks it lands in, which pulls this slow-side quantile
//! down, so no cost drops out of the rate.
//!
//! Why not the median: on a shared host, other tenants switch the
//! CPU's speed between two levels about 1.5× apart for seconds at a
//! time. The median chunk rate of a run then jumps between the levels,
//! and the whole-run rate follows their mix; the slow level holds for
//! at least a quarter of nearly every run, so its quantile repeats.

use std::time::{Duration, Instant};

use crate::report::quantile;

/// Least wall time of one chunk.
pub const CHUNK: Duration = Duration::from_millis(100);

/// The chunk-rate quantile a sweep reports: three chunks in four are
/// at least this fast.
pub const SUSTAINED: f64 = 0.25;

pub struct ChunkRates {
    /// Start of the open chunk; `None` until the clock is started.
    start: Option<Instant>,
    /// Items completed in the open chunk.
    pending: u64,
    rates: Vec<f64>,
}

impl ChunkRates {
    pub fn new() -> Self {
        ChunkRates {
            start: None,
            pending: 0,
            rates: Vec::new(),
        }
    }

    /// Starts the clock at `now`; items before it are not counted.
    pub fn start(&mut self, now: Instant) {
        self.start = Some(now);
        self.pending = 0;
    }

    /// Records `n` items completed at `now`, closing the open chunk once
    /// it spans `CHUNK`. Before `start` this starts the clock instead.
    pub fn items(&mut self, n: u64, now: Instant) {
        let Some(start) = self.start else {
            self.start(now);
            return;
        };
        self.pending += n;
        let elapsed = now - start;
        if elapsed >= CHUNK {
            self.rates.push(self.pending as f64 / elapsed.as_secs_f64());
            self.start(now);
        }
    }

    /// Leaves `d`, just spent on other work, out of the open chunk.
    pub fn exclude(&mut self, d: Duration) {
        if let Some(start) = self.start.as_mut() {
            *start += d;
        }
    }

    /// Closed chunks so far.
    pub fn chunks(&self) -> usize {
        self.rates.len()
    }

    /// The sustained items per second over the closed chunks (0 with
    /// none).
    pub fn rate(&self) -> f64 {
        self.quantile(SUSTAINED)
    }

    /// Nearest-rank quantile of the closed chunks' rates.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.rates, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_rates_include_a_cost_paid_once_in_five_items() {
        let t0 = Instant::now();
        let mut r = ChunkRates::new();
        r.start(t0);
        // Four 10 ms items, then a 50 ms one: 5 items per 90 ms.
        let mut now = t0;
        for i in 1..=500u64 {
            now += Duration::from_millis(if i % 5 == 0 { 50 } else { 10 });
            r.items(1, now);
        }
        assert!(r.chunks() >= 80);
        // Six-item chunks take 100 ms, or 140 ms when they hold two of
        // the slow items; the sustained rate lies within 10% of the mean.
        let mean = 5.0 / 0.090;
        for rate in [r.rate(), r.quantile(0.5)] {
            assert!((rate / mean - 1.0).abs() < 0.1, "{rate} vs {mean}");
        }
    }

    #[test]
    fn items_before_the_clock_start_it() {
        let t0 = Instant::now();
        let mut r = ChunkRates::new();
        r.items(5, t0);
        r.items(20, t0 + CHUNK);
        assert_eq!(r.chunks(), 1);
        assert!((r.rate() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn excluded_time_is_not_in_the_rate() {
        let t0 = Instant::now();
        let mut r = ChunkRates::new();
        r.start(t0);
        r.exclude(CHUNK);
        r.items(10, t0 + 2 * CHUNK);
        assert_eq!(r.chunks(), 1);
        assert!((r.rate() - 100.0).abs() < 1e-9);
    }
}

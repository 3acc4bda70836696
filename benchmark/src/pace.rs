//! Open-loop pacing: seeded Poisson arrival times and a waiter.
//!
//! Arrivals are Poisson, not evenly spaced: independent devices do not
//! coordinate, and a fixed period would beat against the reactors'
//! deterministic idle back-off (64 yields, then sleeps growing by 50 µs),
//! so a few microseconds of timer drift would move every request to a
//! different point of the sleep ramp and shift the whole latency curve
//! from one run to the next.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded Poisson arrival times from a start instant.
#[derive(Debug)]
pub struct Arrivals {
    rng: StdRng,
    rate_per_s: f64,
    start: Instant,
    elapsed_s: f64,
}

impl Arrivals {
    /// Arrivals at `rate_per_s` on average, beginning at `start`.
    pub fn new(seed: u64, rate_per_s: f64, start: Instant) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), rate_per_s, start, elapsed_s: 0.0 }
    }

    /// When the next request is due.
    pub fn next_due(&mut self) -> Instant {
        let u: f64 = self.rng.gen();
        self.elapsed_s += -(1.0 - u).ln() / self.rate_per_s;
        self.start + Duration::from_secs_f64(self.elapsed_s)
    }
}

/// Sleeps, then yields, until `due`.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_and_average_the_rate() {
        let start = Instant::now();
        let times = |seed| {
            let mut a = Arrivals::new(seed, 1_000.0, start);
            (0..20_000).map(|_| a.next_due()).collect::<Vec<_>>()
        };
        let (a, b) = (times(7), times(7));
        assert_eq!(a, b, "the same seed gives the same schedule");
        assert_ne!(a, times(8));
        let span = (*a.last().unwrap() - start).as_secs_f64();
        assert!((span - 20.0).abs() < 0.5, "20,000 arrivals at 1,000/s span {span} s");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}

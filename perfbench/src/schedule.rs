//! The open-loop request schedule: request `i` is due at `i / rate`
//! seconds after the start, whether or not earlier requests finished.

use std::time::{Duration, Instant};

/// A fixed-rate open loop of `count` requests.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Requests per second.
    pub rate: f64,
    /// Requests in the run.
    pub count: usize,
}

impl OpenLoop {
    /// When request `i` is due.
    pub fn due(&self, start: Instant, i: usize) -> Instant {
        start + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Sends every request at its due time, or as soon after as the
    /// previous `send` returns. Returns how late each send was.
    pub fn drive(&self, start: Instant, mut send: impl FnMut(usize, Instant)) -> Vec<Duration> {
        let mut lags = Vec::with_capacity(self.count);
        for i in 0..self.count {
            let due = self.due(start, i);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            lags.push(Instant::now().saturating_duration_since(due));
            send(i, due);
        }
        lags
    }
}

/// Latency in milliseconds from a request's due time to `done`: a
/// generator stall counts against every request it delayed.
pub fn latency_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let lp = OpenLoop {
            rate: 40.0,
            count: 3,
        };
        let t0 = Instant::now();
        assert_eq!(lp.due(t0, 0), t0);
        assert_eq!(lp.due(t0, 2) - t0, Duration::from_millis(50));
    }

    #[test]
    fn a_stall_shows_as_lag_and_as_latency_from_the_due_time() {
        let lp = OpenLoop {
            rate: 200.0,
            count: 4,
        };
        let start = Instant::now();
        let mut latencies = Vec::new();
        let lags = lp.drive(start, |i, due| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            // The "request" completes the moment it is sent.
            latencies.push(latency_ms(due, Instant::now()));
        });
        assert_eq!(lags.len(), 4);
        // Request 1 was due 5 ms in but could only go out after the
        // 30 ms stall: at least 25 ms late, and its latency counts the
        // wait even though it completed as it was sent.
        assert!(lags[1] >= Duration::from_millis(25), "lag {:?}", lags[1]);
        assert!(latencies[1] >= 25.0, "latency {} ms", latencies[1]);
        assert!(latencies[0] >= 30.0, "latency {} ms", latencies[0]);
        // Sends never run early.
        for (i, lag) in lags.iter().enumerate() {
            assert!(Instant::now() >= lp.due(start, i) + *lag);
        }
    }
}

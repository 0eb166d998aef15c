//! The one wall-clock read point in `core`: a lap timer for the phase
//! profiler (epoch phases, including pod planning and the propagation
//! sub-phases).
//!
//! Wall time must never leak into deterministic outputs (event logs,
//! metrics exports, JSON summaries) — see the `analyze` wall-clock
//! lint. Funneling every profiling measurement through this module
//! keeps the allowlist down to a single entry and makes any new
//! wall-clock read a deliberate, reviewed act.

/// The single `Instant::now` in `core` (covered by the wall-clock
/// allowlist entry for this file).
fn read_clock() -> std::time::Instant {
    std::time::Instant::now()
}

/// A lap timer: each [`PhaseClock::lap`] returns the seconds elapsed
/// since the previous lap (or since construction) and restarts the lap.
#[derive(Debug, Clone, Copy)]
pub struct PhaseClock {
    last: std::time::Instant,
}

impl PhaseClock {
    /// Start timing now.
    pub fn start() -> PhaseClock {
        PhaseClock { last: read_clock() }
    }

    /// Seconds since the last lap boundary; restarts the lap.
    pub fn lap(&mut self) -> f64 {
        let now = read_clock();
        let s = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_are_non_negative_and_reset() {
        let mut c = PhaseClock::start();
        let a = c.lap();
        let b = c.lap();
        assert!(a >= 0.0);
        assert!(b >= 0.0);
    }
}

//! Span-based phase profiler: wall-time per epoch phase, quarantined
//! from every deterministic output.
//!
//! The profiler never reads a clock itself — the caller (the platform's
//! single funneled wall-clock helper) measures each phase span and
//! feeds the elapsed seconds in. Totals are indexed by position in
//! [`crate::phases::EPOCH_PHASES`], so every per-phase report shares
//! one canonical phase order. Profiler
//! output must never be folded into event logs, metrics exports, or
//! JSON summaries that are byte-compared across runs.

use crate::phases::EPOCH_PHASES;

/// Accumulates wall-time per declared epoch phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfiler {
    /// Cumulative seconds per phase, parallel to `EPOCH_PHASES`.
    totals: Vec<f64>,
    epochs: u64,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler::new()
    }
}

/// Index of a phase id in [`EPOCH_PHASES`], usable as a handle for
/// [`PhaseProfiler::record`].
pub fn phase_index(id: &str) -> Option<usize> {
    EPOCH_PHASES.iter().position(|p| p.id == id)
}

impl PhaseProfiler {
    /// A profiler with all phase totals zeroed.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler {
            totals: vec![0.0; EPOCH_PHASES.len()],
            epochs: 0,
        }
    }

    /// Add `seconds` of measured wall-time to the phase at `idx`
    /// (an [`phase_index`] handle). Out-of-range or non-finite spans
    /// are ignored — profiling must never panic the control loop.
    pub fn record(&mut self, idx: usize, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        if let Some(t) = self.totals.get_mut(idx) {
            *t += seconds;
        }
    }

    /// Mark one epoch complete (the denominator for per-epoch means).
    pub fn end_epoch(&mut self) {
        self.epochs += 1;
    }

    /// Epochs profiled so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Cumulative seconds recorded for the phase at `idx`.
    pub fn total_s(&self, idx: usize) -> f64 {
        self.totals.get(idx).copied().unwrap_or(0.0)
    }

    /// Mean seconds per epoch for the phase at `idx` (0 before the
    /// first `end_epoch`).
    pub fn mean_s_per_epoch(&self, idx: usize) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.total_s(idx) / self.epochs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_index_resolves_declared_phases() {
        assert_eq!(phase_index("demand-fill"), Some(0));
        assert_eq!(
            phase_index("epoch-close"),
            Some(EPOCH_PHASES.len() - 1),
            "epoch-close is the final declared phase"
        );
        assert_eq!(phase_index("no-such-phase"), None);
    }

    #[test]
    fn records_accumulate_and_average() {
        let mut p = PhaseProfiler::new();
        let route = phase_index("demand-route").expect("declared");
        p.record(route, 0.5);
        p.record(route, 0.25);
        p.end_epoch();
        p.end_epoch();
        assert_eq!(p.total_s(route), 0.75);
        assert_eq!(p.mean_s_per_epoch(route), 0.375);
        // Bad spans are ignored, not propagated.
        p.record(route, f64::NAN);
        p.record(route, -1.0);
        p.record(usize::MAX, 1.0);
        assert_eq!(p.total_s(route), 0.75);
    }
}

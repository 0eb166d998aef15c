//! Actuation cost model for the paper's control knobs.
//!
//! The experiments in E6/E7 compare knobs by how fast they take effect;
//! the latencies here come from the systems the paper cites:
//!
//! | knob | mechanism | latency source |
//! |------|-----------|----------------|
//! | RIP weight / VIP config | switch reconfiguration | "several seconds" \[20\]\[28\] |
//! | VM slice adjustment | ESX hot add \[5\] | seconds, no reboot |
//! | VM clone | SnowFlock \[14\] | sub-second fork + warm-up |
//! | VM live migration | black/gray-box \[25\] | memory / bandwidth |
//! | fresh boot | image boot | minutes |

use dcsim::SimDuration;

/// Latency model for VM lifecycle operations and slice changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fresh VM boot from image.
    pub boot: SimDuration,
    /// SnowFlock-style fast clone: fork latency before the clone serves
    /// traffic (the clone then faults memory in lazily).
    pub clone: SimDuration,
    /// Hot CPU/memory slice adjustment (ESX-style, no reboot).
    pub slice_adjust: SimDuration,
    /// Bandwidth available to a live migration, bits/s.
    pub migration_bps: f64,
    /// Pre-copy overhead factor: total bytes moved ≈ `mem × (1 + overhead)`
    /// because dirtied pages are re-sent.
    pub migration_overhead: f64,
}

impl CostModel {
    /// Defaults drawn from the cited systems: 120 s boot, 1 s clone, 2 s
    /// slice adjustment, 1 Gbps migration bandwidth, 25% pre-copy
    /// overhead.
    pub const DEFAULT: CostModel = CostModel {
        boot: SimDuration::from_secs(120),
        clone: SimDuration::from_secs(1),
        slice_adjust: SimDuration::from_secs(2),
        migration_bps: 1e9,
        migration_overhead: 0.25,
    };

    /// Live-migration duration for a VM with the given memory footprint.
    pub fn migration_time(&self, mem_mb: u64) -> SimDuration {
        let bits = mem_mb as f64 * 8.0 * 1024.0 * 1024.0 * (1.0 + self.migration_overhead);
        SimDuration::from_secs_f64(bits / self.migration_bps)
    }

    /// Validate parameter ranges.
    pub fn validate(&self) {
        assert!(
            self.migration_bps > 0.0,
            "migration bandwidth must be positive"
        );
        assert!(
            self.migration_overhead >= 0.0,
            "overhead must be non-negative"
        );
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_time_scales_with_memory() {
        let m = CostModel::DEFAULT;
        // 1 GB at 1 Gbps with 25% overhead ≈ 10.7 s.
        let t = m.migration_time(1024);
        assert!((t.as_secs_f64() - 10.737).abs() < 0.01, "got {t}");
        // 4 GB takes 4× as long (up to microsecond rounding of SimDuration).
        let t4 = m.migration_time(4096);
        assert!((t4.as_secs_f64() / t.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn agility_ladder_ordering() {
        // The paper's premise: slice adjust ≪ clone-deploy ≪ migrate(big VM)
        // ≪ fresh boot.
        let m = CostModel::DEFAULT;
        assert!(m.clone < m.slice_adjust);
        assert!(m.slice_adjust < m.migration_time(4096));
        assert!(m.migration_time(4096) < m.boot);
    }

    #[test]
    fn zero_memory_migrates_instantly() {
        assert_eq!(CostModel::DEFAULT.migration_time(0), SimDuration::ZERO);
    }
}

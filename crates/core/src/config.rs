//! Platform configuration.
//!
//! Defaults follow the paper's constants: Catalyst-class switch limits
//! (§II), pods of ≤5,000 servers / ≤10,000 VMs (§III.A), three VIPs per
//! application on average with extra VIPs for popular applications
//! (§IV.A), and ~20 VM instances per application at full scale (§II).

use dcdns::DnsConfig;
use dcsim::SimDuration;
use elastic::ElasticConfig;
use lbswitch::SwitchLimits;
use vmm::{CostModel, ServerSpec};
use workload::{RequestProfile, WorkloadConfig};

/// Ablation switches for the paper's control knobs: every knob can be
/// turned off individually so experiments can measure its contribution
/// (E3/E4/E6 and the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobFlags {
    /// §IV.A selective VIP exposure for access links.
    pub link_exposure: bool,
    /// §IV.B capacity-proportional exposure for LB switches.
    pub capacity_exposure: bool,
    /// §IV.B dynamic VIP transfer between switches.
    pub vip_transfer: bool,
    /// §IV.F inter-pod RIP weight adjustment (global manager).
    pub interpod_weights: bool,
    /// §IV.D dynamic application deployment into colder pods.
    pub deployments: bool,
    /// §IV.C server transfer between pods.
    pub server_transfers: bool,
    /// §IV.C/D elephant-pod avoidance.
    pub elephant_relief: bool,
    /// §IV.E VM capacity (slice) adjustment by pod managers.
    pub pod_slices: bool,
    /// Pod-manager instance starts/stops (§IV.D, in-pod side).
    pub pod_instances: bool,
    /// Misrouting-equilibrium escape: when a VIP's served/offered ratio
    /// stays below `vip_starvation_ratio` for `vip_starvation_epochs`
    /// while the app has spare capacity elsewhere, force a corrective
    /// water-filling reweight + exposure refresh even though no pod is
    /// nominally overloaded (the E17 fix).
    pub misrouting_escape: bool,
}

impl KnobFlags {
    /// Everything on (the paper's full architecture).
    pub const ALL: KnobFlags = KnobFlags {
        link_exposure: true,
        capacity_exposure: true,
        vip_transfer: true,
        interpod_weights: true,
        deployments: true,
        server_transfers: true,
        elephant_relief: true,
        pod_slices: true,
        pod_instances: true,
        misrouting_escape: true,
    };

    /// Everything off (static provisioning baseline).
    pub const NONE: KnobFlags = KnobFlags {
        link_exposure: false,
        capacity_exposure: false,
        vip_transfer: false,
        interpod_weights: false,
        deployments: false,
        server_transfers: false,
        elephant_relief: false,
        pod_slices: false,
        pod_instances: false,
        misrouting_escape: false,
    };
}

impl Default for KnobFlags {
    fn default() -> Self {
        Self::ALL
    }
}

/// Full configuration of a simulated platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Experiment seed (drives every random stream).
    pub seed: u64,

    // ---- server fleet -------------------------------------------------
    /// Number of physical servers.
    pub num_servers: usize,
    /// Hardware of each server.
    pub server_spec: ServerSpec,
    /// VM lifecycle cost model.
    pub cost_model: CostModel,

    // ---- logical pods --------------------------------------------------
    /// Pod size cap in servers (§III.A: ~5,000).
    pub pod_max_servers: usize,
    /// Pod size cap in VMs (§III.A: ~10,000); "whichever comes first".
    pub pod_max_vms: usize,
    /// Initial number of pods (servers are dealt round-robin).
    pub initial_pods: usize,

    // ---- applications --------------------------------------------------
    /// Number of hosted applications.
    pub num_apps: usize,
    /// VIPs per application (§IV.A default: 3).
    pub vips_per_app: usize,
    /// Extra VIPs granted to the most popular applications.
    pub popular_extra_vips: usize,
    /// Fraction of applications (by popularity rank) considered popular.
    pub popular_fraction: f64,
    /// Initial VM instances per application.
    pub initial_instances_per_app: usize,
    /// Default CPU slice of a fresh VM instance, capacity units.
    pub vm_cpu_slice: f64,
    /// Maximum CPU slice a VM may be grown to via hot adjustment (§IV.E);
    /// demand beyond this needs more instances.
    pub vm_max_cpu_slice: f64,
    /// Memory footprint of a VM instance, MB.
    pub vm_mem_mb: u64,

    // ---- LB switch fabric ----------------------------------------------
    /// Per-switch limits (§II).
    pub switch_limits: SwitchLimits,
    /// Number of LB switches; 0 = auto-size from the §V.A formula with
    /// 20% slack.
    pub num_switches: usize,

    // ---- access network --------------------------------------------------
    /// Number of access links (one border router + ISP access router per
    /// link in the symmetric default).
    pub num_access_links: usize,
    /// Capacity of each access link, bits/s.
    pub access_link_bps: f64,
    /// Usage cost of each access link, currency/GB.
    pub access_link_cost_per_gb: f64,
    /// BGP convergence delay for route (re)advertisement.
    pub route_convergence: SimDuration,

    // ---- DNS --------------------------------------------------------------
    /// Authoritative DNS behaviour.
    pub dns: DnsConfig,

    // ---- workload ----------------------------------------------------------
    /// Zipf popularity exponent.
    pub zipf_exponent: f64,
    /// Aggregate baseline external demand, bits/s.
    pub total_demand_bps: f64,
    /// Diurnal amplitude in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Diurnal period.
    pub diurnal_period: SimDuration,
    /// Request resource profile.
    pub request_profile: RequestProfile,

    // ---- control loop ---------------------------------------------------
    /// Control epoch: managers observe and act once per epoch.
    pub epoch: SimDuration,
    /// Access-link utilization above which the link balancer acts.
    pub link_overload_threshold: f64,
    /// Switch utilization above which the switch balancer acts.
    pub switch_overload_threshold: f64,
    /// Pod CPU utilization above which the pod is overloaded.
    pub pod_overload_threshold: f64,
    /// Pod CPU utilization below which the pod is a donor candidate.
    pub pod_underload_threshold: f64,
    /// Provisioning headroom: pods provision `demand × headroom`.
    pub headroom: f64,
    /// A VIP is considered quiescent (transferable) when its residual
    /// demand share falls below this fraction (§IV.B drain gate).
    pub quiescence_share: f64,
    /// A VIP is *starved* when its served/offered ratio is below this;
    /// sustained starvation with spare capacity elsewhere triggers the
    /// misrouting escape (`KnobFlags::misrouting_escape`).
    pub vip_starvation_ratio: f64,
    /// Consecutive starved epochs before the escape fires.
    pub vip_starvation_epochs: u32,
    /// Water-filling reweight step in `(0, 1]`: the fraction of the gap
    /// to the headroom-proportional target closed per actuation.
    pub reweight_step: f64,
    /// Scale-in cooldown (hysteresis) on the reactive retire path: an
    /// app that scaled out within the last `scale_in_cooldown_epochs`
    /// epochs keeps its instances — the spike that justified the start
    /// is usually still in flight, and retiring immediately produces the
    /// start/retire/start flip-flops E17 measured. 0 disables the
    /// cooldown.
    pub scale_in_cooldown_epochs: u32,
    /// Retired worker-thread count. Pod planning is serial, so only 0
    /// and 1 are accepted ([`PlatformConfig::validate`] rejects more)
    /// and neither changes anything. The field stays until its last
    /// assignments (megabench's workload configs) are gone.
    pub threads: usize,
    /// Flight-recorder ring capacity in events; 0 uses
    /// `obs::DEFAULT_RING_CAPACITY`. Long chaos runs that inspect the
    /// ring (rather than draining it every epoch) raise this so verdicts
    /// are not computed over a silently truncated log; evictions are
    /// counted either way and surfaced as `ctl.ring_dropped` in the
    /// per-epoch health event.
    pub event_ring_capacity: usize,
    /// Knob ablation switches (default: all on).
    pub knobs: KnobFlags,
    /// Proactive elasticity control plane (forecasting + predictive
    /// autoscaling + arbitration). Disabled by default: the platform
    /// stays purely reactive unless an experiment opts in.
    pub elastic: ElasticConfig,
}

impl PlatformConfig {
    /// The paper's target scale (§II): 300,000 servers, 300,000 apps,
    /// ~20 instances/app, 3 VIPs/app, 375+ switches. Constructible for
    /// sizing arithmetic; building a live `Platform` at this scale is a
    /// benchmark-class operation.
    pub fn paper_scale() -> Self {
        PlatformConfig {
            seed: 0,
            num_servers: 300_000,
            server_spec: ServerSpec::COMMODITY,
            cost_model: CostModel::DEFAULT,
            pod_max_servers: 5_000,
            pod_max_vms: 10_000,
            initial_pods: 60,
            num_apps: 300_000,
            vips_per_app: 3,
            popular_extra_vips: 2,
            popular_fraction: 0.01,
            initial_instances_per_app: 20,
            vm_cpu_slice: 0.4,
            vm_max_cpu_slice: 2.0,
            vm_mem_mb: 1024,
            switch_limits: SwitchLimits::CISCO_CATALYST,
            num_switches: 0,
            num_access_links: 8,
            access_link_bps: 100e9,
            access_link_cost_per_gb: 0.02,
            route_convergence: SimDuration::from_secs(90),
            dns: DnsConfig::default(),
            zipf_exponent: 0.9,
            total_demand_bps: 480e9,
            diurnal_amplitude: 0.3,
            diurnal_period: SimDuration::from_secs(24 * 3600),
            request_profile: RequestProfile::WEB,
            epoch: SimDuration::from_secs(10),
            link_overload_threshold: 0.8,
            switch_overload_threshold: 0.8,
            pod_overload_threshold: 0.85,
            pod_underload_threshold: 0.40,
            headroom: 1.2,
            quiescence_share: 0.02,
            vip_starvation_ratio: 0.999,
            vip_starvation_epochs: 5,
            reweight_step: 0.5,
            scale_in_cooldown_epochs: 5,
            threads: 0,
            event_ring_capacity: 0,
            knobs: KnobFlags::ALL,
            elastic: ElasticConfig::default(),
        }
    }

    /// A small platform for unit tests and the quickstart example:
    /// 2 pods × 8 servers, 12 apps, auto-sized switches, 3 access links.
    pub fn small_test() -> Self {
        PlatformConfig {
            num_servers: 16,
            initial_pods: 2,
            pod_max_servers: 12,
            pod_max_vms: 48,
            num_apps: 12,
            vips_per_app: 2,
            popular_extra_vips: 1,
            popular_fraction: 0.2,
            initial_instances_per_app: 2,
            num_switches: 2,
            num_access_links: 3,
            access_link_bps: 4e9,
            total_demand_bps: 4e9,
            epoch: SimDuration::from_secs(10),
            ..Self::paper_scale()
        }
    }

    /// A pod-scale platform (hundreds of servers) used by the larger
    /// examples and experiments.
    pub fn pod_scale() -> Self {
        PlatformConfig {
            num_servers: 400,
            initial_pods: 4,
            pod_max_servers: 150,
            pod_max_vms: 600,
            num_apps: 200,
            vips_per_app: 3,
            initial_instances_per_app: 3,
            num_switches: 0,
            num_access_links: 4,
            access_link_bps: 20e9,
            total_demand_bps: 40e9,
            ..Self::paper_scale()
        }
    }

    /// Number of LB switches this config implies: explicit, or the larger
    /// of the §V.A table formula `max(⌈A·k/max_vips⌉, ⌈A·r/max_rips⌉)`
    /// and the §III.B bandwidth requirement (peak external demand through
    /// 4 Gbps switches), with 20% slack and a floor of 2.
    pub fn effective_num_switches(&self) -> usize {
        if self.num_switches > 0 {
            return self.num_switches;
        }
        let avg_vips =
            self.vips_per_app as f64 + self.popular_fraction * self.popular_extra_vips as f64;
        let by_tables = self.switch_limits.switches_required(
            self.num_apps as u64,
            avg_vips.ceil() as u64,
            self.initial_instances_per_app as u64,
        );
        let peak_demand = self.total_demand_bps * (1.0 + self.diurnal_amplitude);
        let by_bandwidth = (peak_demand / self.switch_limits.capacity_bps).ceil() as u64;
        let required = by_tables.max(by_bandwidth);
        (((required as f64) * 1.2).ceil() as usize).max(2)
    }

    /// VIP count for an application given its popularity rank (rank 0 =
    /// most popular): popular apps get `popular_extra_vips` more (§IV.A).
    pub fn vips_for_rank(&self, rank: usize) -> usize {
        let popular_cut = ((self.num_apps as f64) * self.popular_fraction).ceil() as usize;
        if rank < popular_cut {
            self.vips_per_app + self.popular_extra_vips
        } else {
            self.vips_per_app
        }
    }

    /// Validate the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_servers == 0 {
            return Err("num_servers must be positive".into());
        }
        if self.initial_pods == 0 || self.initial_pods > self.num_servers {
            return Err("initial_pods must be in 1..=num_servers".into());
        }
        if self.num_apps == 0 {
            return Err("num_apps must be positive".into());
        }
        if self.vips_per_app == 0 {
            return Err("vips_per_app must be positive".into());
        }
        if self.initial_instances_per_app == 0 {
            return Err("initial_instances_per_app must be positive".into());
        }
        if self.num_access_links == 0 {
            return Err("need at least one access link".into());
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err("diurnal_amplitude must be in [0,1)".into());
        }
        if self.headroom < 1.0 {
            return Err("headroom must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.popular_fraction) {
            return Err("popular_fraction must be in [0,1]".into());
        }
        if self.pod_underload_threshold >= self.pod_overload_threshold {
            return Err("pod_underload_threshold must be below pod_overload_threshold".into());
        }
        if self.vm_cpu_slice <= 0.0 || self.vm_cpu_slice > self.server_spec.cpu {
            return Err("vm_cpu_slice must fit on a server".into());
        }
        if self.vm_max_cpu_slice < self.vm_cpu_slice || self.vm_max_cpu_slice > self.server_spec.cpu
        {
            return Err("vm_max_cpu_slice must be in [vm_cpu_slice, server cpu]".into());
        }
        if !(self.vip_starvation_ratio > 0.0 && self.vip_starvation_ratio <= 1.0) {
            return Err("vip_starvation_ratio must be in (0, 1]".into());
        }
        if self.vip_starvation_epochs == 0 {
            return Err("vip_starvation_epochs must be positive".into());
        }
        if !(self.reweight_step > 0.0 && self.reweight_step <= 1.0) {
            return Err("reweight_step must be in (0, 1]".into());
        }
        if self.threads > 1 {
            return Err("threads must be 0 or 1: pod planning is serial".into());
        }
        self.switch_limits.validate();
        self.dns.validate();
        self.cost_model.validate();
        Ok(())
    }

    /// The workload config implied by this platform config.
    pub fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig {
            num_apps: self.num_apps,
            zipf_exponent: self.zipf_exponent,
            total_demand_bps: self.total_demand_bps,
            diurnal_amplitude: self.diurnal_amplitude,
            diurnal_period: self.diurnal_period,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        PlatformConfig::paper_scale().validate().unwrap();
        PlatformConfig::small_test().validate().unwrap();
        PlatformConfig::pod_scale().validate().unwrap();
    }

    #[test]
    fn paper_scale_switch_count_matches_section_5a() {
        let mut cfg = PlatformConfig::paper_scale();
        cfg.popular_extra_vips = 0; // plain 3 VIPs/app as in §V.A
        cfg.num_switches = 0;
        // §V.A: 375 required; we add 20% slack → 450.
        assert_eq!(cfg.effective_num_switches(), 450);
    }

    #[test]
    fn explicit_switch_count_wins() {
        let mut cfg = PlatformConfig::small_test();
        cfg.num_switches = 7;
        assert_eq!(cfg.effective_num_switches(), 7);
    }

    #[test]
    fn popular_apps_get_more_vips() {
        let cfg = PlatformConfig::paper_scale();
        assert_eq!(cfg.vips_for_rank(0), 5);
        assert_eq!(cfg.vips_for_rank(150_000), 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = PlatformConfig::small_test();
        cfg.initial_pods = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = PlatformConfig::small_test();
        cfg.vm_cpu_slice = 1e9;
        assert!(cfg.validate().is_err());

        let mut cfg = PlatformConfig::small_test();
        cfg.pod_underload_threshold = 0.9;
        assert!(cfg.validate().is_err());

        let mut cfg = PlatformConfig::small_test();
        cfg.vip_starvation_ratio = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = PlatformConfig::small_test();
        cfg.vip_starvation_epochs = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = PlatformConfig::small_test();
        cfg.reweight_step = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = PlatformConfig::small_test();
        cfg.threads = 2;
        assert!(cfg.validate().unwrap_err().starts_with("threads"));
        cfg.threads = 1;
        cfg.validate().unwrap();
    }

    #[test]
    fn elastic_defaults_off_and_validates() {
        let cfg = PlatformConfig::small_test();
        assert!(!cfg.elastic.enabled, "proactive plane must be opt-in");
        let mut cfg = cfg;
        cfg.elastic = ElasticConfig::proactive();
        cfg.validate().unwrap();
    }

    #[test]
    fn workload_config_copies_fields() {
        let cfg = PlatformConfig::small_test();
        let w = cfg.workload_config();
        assert_eq!(w.num_apps, cfg.num_apps);
        assert_eq!(w.seed, cfg.seed);
        assert_eq!(w.total_demand_bps, cfg.total_demand_bps);
    }
}

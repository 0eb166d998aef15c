//! # megadc — "Mega Data Center for Elastic Internet Applications"
//!
//! A reproducible implementation of the architecture of Qian & Rabinovich
//! (IPPS 2014): datacenter-wide resource management for elastic Internet
//! applications in a ~300,000-server, ~300,000-application mega data
//! center.
//!
//! The crate assembles the substrates (`dcsim`, `dcnet`, `lbswitch`,
//! `dcdns`, `vmm`, `placement`, `workload`) into the paper's Figure-1
//! architecture:
//!
//! * [`state::PlatformState`] — the access network, the globally shared LB
//!   switch fabric, the server fleet with its *logical pods*, and every
//!   mapping between them (app → VIPs, VIP → switch/route, RIP → VM).
//! * [`viprip::VipRipManager`] — §III.C: the serialized, priority-ordered
//!   mediator of all VIP/RIP (re)configuration.
//! * [`pod::PodManager`] — §III.A: per-pod resource provisioning with a
//!   Tang-style placement controller, VM capacity adjustment and RIP
//!   weight requests.
//! * [`global::GlobalManager`] — the datacenter-scale manager with the
//!   paper's six control knobs (§IV): selective VIP exposure, dynamic VIP
//!   transfer, server transfer between pods, dynamic application
//!   deployment, VM capacity adjustment, RIP weight adjustment.
//! * [`platform::Platform`] — the epoch-driven simulation loop that ties
//!   workload → DNS → access links → LB switches → RIPs → VMs → servers
//!   together ([`demand`] implements the fluid propagation).
//! * [`twolayer`] — §V.B: the two-LB-layer (demand-distribution + load
//!   balancing) variant that decouples access-link balancing from pod
//!   balancing.
//! * [`sizing`] — the paper's fabric-sizing and decision-space arithmetic
//!   (§III.B, §V.A).
//! * [`sessions`] — session-granularity replay (Poisson arrivals, tracked
//!   connections) validating the fluid model's §IV.B quiescence gate.
//! * [`energy`] — §VI extension: consolidation planning and a power model.
//!
//! Failure injection (`PlatformState::fail_switch` / `fail_server`) lives
//! in [`state`]; recovery is performed by the ordinary control knobs.
//!
//! ## Quick start
//!
//! ```
//! use megadc::config::PlatformConfig;
//! use megadc::platform::Platform;
//!
//! // A small (pod-scale) platform; defaults follow the paper's constants.
//! let config = PlatformConfig::small_test();
//! let mut platform = Platform::build(config).expect("valid config");
//! let report = platform.run_epochs(10);
//! assert_eq!(report.epochs, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod demand;
pub mod energy;
pub mod global;
pub mod ids;
pub mod platform;
pub mod pod;
pub mod profclock;
pub mod sessions;
pub mod sizing;
pub mod state;
pub mod twolayer;
pub mod viprip;

/// The declared read/write footprints of the global-manager actions.
///
/// Moved to the `obs` crate (PR 4) so the runtime flight recorder and
/// the `analyze` conflict checker share one source of truth; re-exported
/// here to keep the `megadc::footprint` path stable.
pub use obs::footprint;

/// The declared effect sets of the epoch phases (the `Platform::step`
/// side of what [`footprint`] does for global actions), re-exported so
/// `megadc::phases` is a stable path.
pub use obs::phases;

/// Re-export the whole `obs` crate so downstream tools that only depend
/// on `megadc` (e.g. `analyze`) can reach event-kind tables like
/// [`obs::FAULT_KINDS`] without a direct dependency.
pub use obs;

pub use config::PlatformConfig;
pub use ids::{AppId, PodId};
pub use platform::Platform;

//! # lbswitch — the load-balancing switch model
//!
//! §II of the paper fixes the switch parameters the whole architecture is
//! sized around (characteristic of the Cisco Catalyst 6500 CSM, ref \[12\]):
//!
//! * 4,000 virtual IP addresses (VIPs) per switch,
//! * 16,000 real IP addresses (RIPs) per switch,
//! * 4 Gbps layer-4 switching throughput,
//! * 1.25 million packets/second,
//! * 1 million concurrent TCP connections,
//!
//! and notes that reconfiguring a switch "takes only several seconds"
//! (refs \[20\],\[28\]).
//!
//! [`limits::SwitchLimits`] encodes those numbers, [`switch::LbSwitch`]
//! enforces them, and [`policy`] implements RIP selection: smooth weighted
//! round-robin per session and a proportional weight-split for fluid demand.
//! Connection tracking supports the *quiescence* precondition of dynamic
//! VIP transfer (§IV.B): a VIP may move between switches only while it has
//! no live sessions, because only the original switch knows the
//! session→RIP mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod limits;
pub mod policy;
pub mod switch;

pub use limits::SwitchLimits;
pub use switch::{LbSwitch, RipAddr, SwitchError, SwitchId, VipAddr};

//! # dcsim — simulation kernel for the `megadc` workspace
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer microsecond simulation time,
//!   so event ordering is exact and reproducible (no floating-point clock).
//! * [`EventQueue`] — a time-ordered queue with stable FIFO tie-breaking,
//!   the core of the discrete-event loop.
//! * [`rng`] — deterministic derivation of per-component random streams
//!   from a single experiment seed, so simulations are reproducible
//!   bit-for-bit regardless of component iteration order.
//! * [`idtable`] — vectors indexed by dense ids ([`IdTable`]), the
//!   simulator's entity tables.
//! * [`metrics`] — the balance metric (Jain's fairness)
//!   the experiment harness reports. Run counters and gauges live in the
//!   `obs` metrics registry.
//! * [`table`] — plain-text table rendering for experiment output.
//!
//! The kernel is intentionally free of any datacenter semantics; it knows
//! nothing about switches, pods or VIPs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod idtable;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod table;
pub mod time;

pub use idtable::{DenseId, IdTable};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};

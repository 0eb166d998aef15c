//! # placement — resource provisioning algorithms
//!
//! §I.A of the paper frames the scalability problem: application placement
//! in a data center (balance load, minimize placement changes, maximize
//! satisfied demand) is NP-hard, and the practical controller of Tang et
//! al. \[23\] — the algorithm the paper's *pod managers* run — "needs about
//! half \[a\] minute to create provisioning decisions for only about 7,000
//! servers and 17,500 applications", with runtime growing super-linearly in
//! the number of managed machines. That wall is why the architecture is
//! hierarchical: pods of ≤5,000 servers / ≤10,000 VMs each run the
//! controller locally, in parallel.
//!
//! This crate provides:
//!
//! * [`maxflow`] — a Dinic maximum-flow solver, the substrate of the
//!   controller's load-distribution step;
//! * [`problem`] — the placement problem and solution representation,
//!   including the placement-change accounting the paper cares about;
//! * [`tang`] — [`tang::solve`], a faithful-in-structure implementation
//!   of the \[23\]-style controller (max-flow load distribution
//!   alternating with incremental placement changes);
//! * [`greedy`] — [`greedy::first_fit`], the cold-start baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod greedy;
pub mod maxflow;
pub mod problem;
pub mod tang;

pub use problem::{AppReq, Placement, PlacementProblem, ServerCap};

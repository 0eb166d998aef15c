//! Session-level simulation (§IV.B's connection semantics, exactly).
//!
//! The fluid model treats demand as continuous and approximates the
//! §IV.B quiescence condition ("while the VIP is in use by ongoing TCP
//! sessions, packets of the same TCP session must arrive to the same RIP,
//! and only the original switch knows this RIP") with a residual-share
//! threshold. This module runs the same scenario at *session* granularity
//! on the discrete-event queue: Poisson arrivals resolve through DNS,
//! open tracked connections on the switch (per the VIP's selection
//! policy), and close after log-normal holding times.
//!
//! Its purpose is validation: measure the *actual* time until a draining
//! VIP has zero live sessions — the event the paper's transfer waits for —
//! and compare it with the fluid model's threshold-crossing time. It also
//! exercises the switch's 1M-connection limit end to end.

use crate::ids::vip_prefix;
use crate::state::PlatformState;
use dcsim::{EventQueue, SimDuration, SimTime};
use lbswitch::{RipAddr, SwitchError, VipAddr};
use rand::rngs::SmallRng;
use rand::Rng;
use workload::distributions::{exponential, log_normal};

/// Events of the session-level simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionEvent {
    /// A new client session arrives for an app.
    Arrival {
        /// The application being contacted.
        app: u32,
    },
    /// An open session ends.
    Departure {
        /// The VIP the session was opened on.
        vip: VipAddr,
        /// The RIP it was pinned to.
        rip: RipAddr,
    },
}

/// Parameters of the session workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Poisson arrival rate per app, sessions/second.
    pub arrival_rate: f64,
    /// Log-normal μ of the session duration (seconds of the underlying
    /// normal; median duration = e^μ).
    pub duration_mu: f64,
    /// Log-normal σ of the session duration.
    pub duration_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        // Median ~20 s sessions, heavy tail — web-session-like.
        SessionConfig {
            arrival_rate: 5.0,
            duration_mu: 3.0,
            duration_sigma: 1.0,
            seed: 0,
        }
    }
}

/// Outcome counters of a session-level run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions successfully opened.
    pub opened: u64,
    /// Sessions closed normally.
    pub closed: u64,
    /// Arrivals lost: DNS had no VIP for the app.
    pub lost_no_vip: u64,
    /// Arrivals lost: VIP's prefix had no usable route.
    pub lost_unrouted: u64,
    /// Arrivals lost: switch rejected (connection table full or no RIP).
    pub lost_rejected: u64,
}

/// A session-level driver over a [`PlatformState`].
///
/// The driver owns the event queue; the platform state provides DNS,
/// routing and the switches. It deliberately bypasses the fluid demand
/// path — the two models answer different questions about the same state.
#[derive(Debug)]
pub struct SessionSimulator {
    config: SessionConfig,
    queue: EventQueue<SessionEvent>,
    rng: SmallRng,
    /// Statistics so far.
    pub stats: SessionStats,
}

impl SessionSimulator {
    /// Create a simulator and schedule the first arrival per app.
    pub fn new(state: &PlatformState, config: SessionConfig, start: SimTime) -> Self {
        assert!(config.arrival_rate > 0.0, "arrival rate must be positive");
        let mut sim = SessionSimulator {
            config,
            queue: EventQueue::new(),
            rng: dcsim::rng::component_rng(config.seed, "session-sim", 0),
            stats: SessionStats::default(),
        };
        for app in 0..state.num_apps() as u32 {
            let dt = exponential(&mut sim.rng, config.arrival_rate);
            sim.queue.schedule(
                start + SimDuration::from_secs_f64(dt),
                SessionEvent::Arrival { app },
            );
        }
        sim
    }

    /// Current simulation time (timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Process events until `deadline` (inclusive). Returns the number of
    /// events processed.
    pub fn run_until(&mut self, state: &mut PlatformState, deadline: SimTime) -> usize {
        let mut n = 0;
        while let Some((now, event)) = self.queue.pop_before(deadline) {
            n += 1;
            match event {
                SessionEvent::Arrival { app } => {
                    // Schedule the next arrival for this app first (the
                    // process never stops).
                    let dt = exponential(&mut self.rng, self.config.arrival_rate);
                    self.queue.schedule(
                        now + SimDuration::from_secs_f64(dt),
                        SessionEvent::Arrival { app },
                    );
                    self.handle_arrival(state, app, now);
                }
                SessionEvent::Departure { vip, rip } => {
                    // The VIP may have been force-removed meanwhile; a
                    // missing entry means the switch already dropped us.
                    let Ok(rec) = state.vip(vip) else { continue };
                    let sw = rec.switch.0 as usize;
                    if state.switches[sw].close_session(vip, rip).is_ok() {
                        self.stats.closed += 1;
                    }
                }
            }
        }
        n
    }

    fn handle_arrival(&mut self, state: &mut PlatformState, app: u32, now: SimTime) {
        // DNS resolution from the *effective* shares — cached entries and
        // stale clients included, which is the whole point for drains.
        let client_key: u64 = self.rng.gen();
        let Some(vip) = state.dns.resolve(app, client_key, now) else {
            self.stats.lost_no_vip += 1;
            return;
        };
        if !state.routes.is_reachable(vip_prefix(vip), now) {
            self.stats.lost_unrouted += 1;
            return;
        }
        let rec = *state.vip(vip).expect("resolved VIP exists");
        let sw = rec.switch.0 as usize;
        match state.switches[sw].open_session(vip) {
            Ok(rip) => {
                self.stats.opened += 1;
                let dur = log_normal(
                    &mut self.rng,
                    self.config.duration_mu,
                    self.config.duration_sigma,
                );
                self.queue.schedule(
                    now + SimDuration::from_secs_f64(dur),
                    SessionEvent::Departure { vip, rip },
                );
            }
            Err(SwitchError::ConnectionLimitExceeded) | Err(_) => {
                self.stats.lost_rejected += 1;
            }
        }
    }

    /// First instant (searching forward from `from` in `step` increments,
    /// up to `limit`) at which `vip` has no live sessions — the §IV.B
    /// transfer condition, measured exactly. Runs the simulation forward;
    /// returns `None` if quiescence is not reached within `limit`.
    pub fn time_to_quiescence(
        &mut self,
        state: &mut PlatformState,
        vip: VipAddr,
        from: SimTime,
        step: SimDuration,
        limit: SimTime,
    ) -> Option<SimTime> {
        let mut t = from;
        loop {
            self.run_until(state, t);
            let rec = state.vip(vip).ok()?;
            let sw = rec.switch.0 as usize;
            if state.switches[sw].is_quiescent(vip).ok()? {
                return Some(t);
            }
            t += step;
            if t > limit {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::ids::AppId;
    use dcnet::access::AccessRouterId;
    use lbswitch::SwitchId;
    use vmm::ServerId;

    /// One app, one VIP, two RIPs; advertised and exposed.
    fn state() -> PlatformState {
        let mut cfg = PlatformConfig::small_test();
        cfg.num_apps = 1;
        let mut st = PlatformState::new(cfg);
        let app = st.register_app(0);
        let vip = st.allocate_vip(app, SwitchId(0)).unwrap();
        st.advertise_vip(vip, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        st.add_instance_running(app, ServerId(0), vip, 1.0).unwrap();
        st.add_instance_running(app, ServerId(1), vip, 1.0).unwrap();
        st.dns.set_exposure(0, vec![(vip, 1.0)], SimTime::ZERO);
        st
    }

    fn t0(st: &PlatformState) -> SimTime {
        SimTime::ZERO + st.routes.convergence()
    }

    #[test]
    fn sessions_open_and_close() {
        let mut st = state();
        let start = t0(&st);
        let mut sim = SessionSimulator::new(
            &st,
            SessionConfig {
                seed: 1,
                ..Default::default()
            },
            start,
        );
        sim.run_until(&mut st, start + SimDuration::from_secs(600));
        assert!(sim.stats.opened > 1000, "opened {}", sim.stats.opened);
        assert!(sim.stats.closed > 0);
        assert!(sim.stats.closed <= sim.stats.opened);
        // Conservation: live sessions on the switch = opened - closed.
        let live = st.switches[0].total_conns();
        assert_eq!(live, sim.stats.opened - sim.stats.closed);
    }

    #[test]
    fn arrivals_before_route_convergence_are_lost() {
        let mut st = state();
        let mut sim = SessionSimulator::new(
            &st,
            SessionConfig {
                seed: 2,
                ..Default::default()
            },
            SimTime::ZERO,
        );
        // Routes converge at t=90; run only until t=60.
        sim.run_until(&mut st, SimTime::from_secs(60));
        assert_eq!(sim.stats.opened, 0);
        assert!(sim.stats.lost_unrouted > 100);
    }

    #[test]
    fn connection_limit_rejects_excess_sessions() {
        let mut cfg = PlatformConfig::small_test();
        cfg.num_apps = 1;
        cfg.switch_limits.max_connections = 50;
        let mut st = PlatformState::new(cfg);
        let app = st.register_app(0);
        let vip = st.allocate_vip(app, SwitchId(0)).unwrap();
        st.advertise_vip(vip, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        st.add_instance_running(app, ServerId(0), vip, 1.0).unwrap();
        st.dns.set_exposure(0, vec![(vip, 1.0)], SimTime::ZERO);
        let start = SimTime::ZERO + st.routes.convergence();
        // Long sessions at a high rate → table fills.
        let cfg = SessionConfig {
            arrival_rate: 20.0,
            duration_mu: 6.0,
            duration_sigma: 0.3,
            seed: 3,
        };
        let mut sim = SessionSimulator::new(&st, cfg, start);
        sim.run_until(&mut st, start + SimDuration::from_secs(120));
        assert!(sim.stats.lost_rejected > 0, "stats {:?}", sim.stats);
        assert!(st.switches[0].total_conns() <= 50);
    }

    #[test]
    fn drained_vip_reaches_exact_quiescence() {
        let mut st = state();
        let app = AppId(0);
        // Give the app a second VIP to absorb the demand.
        let vip2 = st.allocate_vip(app, SwitchId(1)).unwrap();
        st.advertise_vip(vip2, AccessRouterId(1), SimTime::ZERO)
            .unwrap();
        let srv = st.pod_servers(crate::ids::PodId(0))[1];
        st.add_instance_running(app, srv, vip2, 1.0).unwrap();
        let vip1 = st.app(app).unwrap().vips[0];
        st.dns
            .set_exposure(0, vec![(vip1, 1.0), (vip2, 1.0)], SimTime::ZERO);

        let start = t0(&st);
        let mut sim = SessionSimulator::new(
            &st,
            SessionConfig {
                seed: 4,
                ..Default::default()
            },
            start,
        );
        // Build up sessions for 5 minutes.
        let t_drain = start + SimDuration::from_secs(300);
        sim.run_until(&mut st, t_drain);
        assert!(!st.switches[0].is_quiescent(vip1).unwrap());
        // Drain: stop exposing vip1.
        st.dns
            .set_exposure(0, vec![(vip1, 0.0), (vip2, 1.0)], t_drain);
        let q = sim.time_to_quiescence(
            &mut st,
            vip1,
            t_drain,
            SimDuration::from_secs(10),
            t_drain + SimDuration::from_secs(4 * 3600),
        );
        let q = q.expect("drain should eventually quiesce");
        assert!(q > t_drain, "quiescence can't precede the drain");
        // Once quiescent, the §IV.B transfer is legal at the switch level.
        st.transfer_vip(vip1, SwitchId(1))
            .expect("transfer after true quiescence");
        st.assert_invariants();
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut st = state();
            let start = t0(&st);
            let mut sim = SessionSimulator::new(
                &st,
                SessionConfig {
                    seed,
                    ..Default::default()
                },
                start,
            );
            sim.run_until(&mut st, start + SimDuration::from_secs(300));
            sim.stats
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}

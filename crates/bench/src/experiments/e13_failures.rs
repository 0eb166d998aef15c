//! E13 (extension) — failure recovery.
//!
//! §III motivates full interconnection between border routers and LB
//! switches with "platform reliability"; this experiment quantifies it:
//! fail the busiest switch and a batch of servers mid-run and measure the
//! service dip and the recovery time of the control loops (VIP re-homing
//! is immediate and internal; lost instances are re-provisioned by the
//! pod managers).

use dcsim::table::{fnum, Table};
use megadc::{Platform, PlatformConfig};
use vmm::ServerId;

struct Outcome {
    served_before: f64,
    served_at_failure: f64,
    served_recovered: f64,
    recovery_epochs: Option<u64>,
    vips_rehomed: usize,
    vms_lost: usize,
}

fn run_failure(kind: &str, epochs_after: u64) -> Outcome {
    let mut cfg = PlatformConfig::pod_scale();
    cfg.seed = 1313;
    cfg.diurnal_amplitude = 0.0;
    cfg.total_demand_bps = 20e9;
    let mut p = Platform::build(cfg).expect("build");
    p.run_epochs(15);
    let served_before = p.last_snapshot().expect("ran").served_fraction();

    let mut vips_rehomed = 0;
    let mut vms_lost = 0;
    match kind {
        "switch" => {
            let snap = p.last_snapshot().expect("ran").clone();
            let (hot, _) = snap
                .switch_utilizations(&p.state)
                .iter()
                .cloned()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("switches");
            let now = p.now();
            let (rehomed, _, _) = p.state.fail_switch(lbswitch::SwitchId(hot as u32), now);
            vips_rehomed = rehomed;
        }
        "servers" => {
            for i in 0..20u32 {
                vms_lost += p.state.fail_server(ServerId(i * 13));
            }
        }
        _ => unreachable!(),
    }

    let served_at_failure = p.step().served_fraction();
    let target = served_before - 0.02;
    let mut recovery = None;
    let mut last = served_at_failure;
    for e in 1..epochs_after {
        last = p.step().served_fraction();
        if recovery.is_none() && last >= target {
            recovery = Some(e);
        }
    }
    p.state.assert_invariants();
    Outcome {
        served_before,
        served_at_failure,
        served_recovered: last,
        recovery_epochs: recovery,
        vips_rehomed,
        vms_lost,
    }
}

/// Run the failure-recovery report.
pub fn run(quick: bool) -> String {
    let epochs = if quick { 40 } else { 120 };
    let mut t = Table::new([
        "failure",
        "impact",
        "served before",
        "served at failure",
        "served after",
        "recovery (epochs)",
    ]);
    for kind in ["switch", "servers"] {
        let o = run_failure(kind, epochs);
        t.row([
            kind.to_string(),
            match kind {
                "switch" => format!("{} VIPs re-homed", o.vips_rehomed),
                _ => format!("{} VMs lost", o.vms_lost),
            },
            fnum(o.served_before, 3),
            fnum(o.served_at_failure, 3),
            fnum(o.served_recovered, 3),
            o.recovery_epochs
                .map(|e| e.to_string())
                .unwrap_or_else(|| "—".into()),
        ]);
    }
    format!(
        "E13 — failure recovery (extension of §III's reliability argument)\n\n{}\n\
         switch failure: VIPs re-home internally (no route/DNS change) and the\n\
         dip is only the dropped sessions' reconnects; server failures lose\n\
         instances, which pod managers re-provision within epochs.\n",
        t.render(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn switch_failure_recovers() {
        let o = super::run_failure("switch", 30);
        assert!(o.vips_rehomed > 0);
        assert!(o.served_recovered > o.served_before - 0.15);
    }
}

//! Pod-round reuse under faults: a pod manager that lives across epochs
//! must hand back, from `replan`, exactly the plan a fresh `plan` makes
//! on the same state and snapshot, while the chaos harness fails pods,
//! switches and servers, cuts links and drives flash crowds between
//! epochs.

use chaos::harness::{apply_op, scenario_config};
use chaos::scenario::Scenario;
use megadc::pod::{PodManager, RoundScratch};
use megadc::{Platform, PodId};

/// Seeded scenarios checked, the first of the generator's stream.
const SEEDS: u64 = 64;

/// Run `scenario` with one live manager per pod checked after every
/// step. Returns the `(reused, solved)` round counts.
fn reuse_run(scenario: &Scenario) -> (u64, u64) {
    let cfg = scenario_config(scenario, &[]).expect("config builds");
    let mut platform = Platform::build(cfg).expect("platform builds");
    let base_caps: Vec<f64> = (platform.state.access.links().iter())
        .map(|l| l.capacity_bps)
        .collect();
    let schedule = scenario.lower();
    let mut managers: Vec<PodManager> = Vec::new();
    let mut scratch = RoundScratch::default();
    let (mut reused, mut solved) = (0, 0);
    for epoch in 0..scenario.epochs {
        for op in schedule.get(&epoch).into_iter().flatten() {
            apply_op(&mut platform, op, &base_caps).expect("op applies");
        }
        platform.step();
        let (state, snap) = (&platform.state, platform.last_snapshot().unwrap());
        for pod in managers.len()..state.num_pods() {
            managers.push(PodManager::new(PodId(pod as u32)));
        }
        for mgr in &mut managers {
            let fresh = mgr.plan(state, snap).bits();
            let before = mgr.rounds_solved();
            let kept = mgr.replan(state, snap, &mut scratch).bits();
            assert_eq!(
                kept,
                fresh,
                "seed {} pod {:?} epoch {epoch}: {}",
                scenario.seed,
                mgr.id,
                scenario.summary()
            );
            if mgr.rounds_solved() == before {
                reused += 1;
            } else {
                solved += 1;
            }
        }
    }
    (reused, solved)
}

#[test]
fn replan_matches_a_fresh_plan_under_chaos() {
    let (mut reused, mut solved) = (0, 0);
    for seed in 0..SEEDS {
        let (r, s) = reuse_run(&Scenario::generate(seed));
        reused += r;
        solved += s;
    }
    assert!(
        reused > 0 && solved > 0,
        "vacuous: {reused} rounds reused, {solved} solved"
    );
}

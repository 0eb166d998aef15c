//! Criterion bench for the data-plane primitives behind the knobs (E7's
//! micro side): WRR selection, session open/close, fluid weight splits,
//! DNS effective-share evaluation, and max-min allocation.

use criterion::{criterion_group, criterion_main, Criterion};
use dcdns::{DnsConfig, DnsSystem};
use dcnet::maxmin::{max_min_allocate, Flow};
use dcsim::SimTime;
use lbswitch::policy::split_by_weight;
use lbswitch::{LbSwitch, RipAddr, SwitchId, SwitchLimits, VipAddr};

fn bench_switch(c: &mut Criterion) {
    let mut group = c.benchmark_group("switch");
    group.bench_function("open_close_session_wrr_16rips", |b| {
        let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
        sw.add_vip(VipAddr(0)).unwrap();
        for r in 0..16 {
            sw.add_rip(VipAddr(0), RipAddr(r), 1.0 + (r % 4) as f64)
                .unwrap();
        }
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let rip = sw.open_session(VipAddr(0), k).unwrap();
            sw.close_session(VipAddr(0), rip).unwrap();
        })
    });
    group.bench_function("distribute_vip_64rips", |b| {
        let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
        sw.add_vip(VipAddr(0)).unwrap();
        for r in 0..64 {
            sw.add_rip(VipAddr(0), RipAddr(r), 1.0 + (r % 7) as f64)
                .unwrap();
        }
        sw.set_offered_loads(|_| 3.5e9);
        b.iter(|| sw.distribute_vip(VipAddr(0)).unwrap().len())
    });
    group.bench_function("split_by_weight_64", |b| {
        let weights: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64).collect();
        b.iter(|| split_by_weight(&weights, 1e9))
    });
    group.finish();
}

fn bench_dns(c: &mut Criterion) {
    let mut group = c.benchmark_group("dns");
    let mut dns = DnsSystem::new(DnsConfig::default());
    for app in 0..1000u32 {
        let vips: Vec<(VipAddr, f64)> = (0..5)
            .map(|i| (VipAddr(app * 5 + i), 1.0 + i as f64))
            .collect();
        dns.set_exposure(app, vips, SimTime::ZERO);
    }
    // Change half of them so shares require blending.
    for app in 0..500u32 {
        let vips: Vec<(VipAddr, f64)> = (0..5)
            .map(|i| (VipAddr(app * 5 + i), 5.0 - i as f64))
            .collect();
        dns.set_exposure(app, vips, SimTime::from_secs(100));
    }
    let t = SimTime::from_secs(130);
    group.bench_function("effective_shares_blended", |b| {
        let mut app = 0u32;
        b.iter(|| {
            app = (app + 1) % 1000;
            dns.effective_shares(app, t).len()
        })
    });
    group.bench_function("resolve", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            dns.resolve((k % 1000) as u32, k, t)
        })
    });
    group.finish();
}

fn bench_maxmin(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxmin");
    group.bench_function("progressive_filling_1k_flows", |b| {
        let caps: Vec<f64> = (0..64).map(|i| 1e9 + (i as f64) * 1e7).collect();
        let flows: Vec<Flow> = (0..1000)
            .map(|i| Flow::new(5e7 + (i % 13) as f64 * 1e6, vec![i % 64, (i * 7) % 64]))
            .collect();
        b.iter(|| max_min_allocate(&caps, &flows).total_throughput_bps())
    });
    group.finish();
}

criterion_group!(benches, bench_switch, bench_dns, bench_maxmin);
criterion_main!(benches);

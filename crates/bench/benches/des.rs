//! Criterion: discrete-event serving-simulator throughput — the substrate
//! cost of every evaluation window and every simulated hour — and the two
//! per-event primitives under it: the event queue and the latency
//! histogram.

use clover_models::zoo::efficientnet;
use clover_models::PerfModel;
use clover_serving::{analytic, Deployment, ServingSim};
use clover_simkit::{EventQueue, LatencyHistogram, SimDuration, SimRng, SimTime};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_des(c: &mut Criterion) {
    let fam = efficientnet();
    let perf = PerfModel::a100();
    let base_cap = analytic::estimate(&fam, &perf, &Deployment::base(&fam, 10), 1.0).capacity_rps;
    let rate = base_cap * 0.65; // same offered load for both deployments
    let window = SimDuration::from_secs(10.0);

    let mut group = c.benchmark_group("des");
    for (label, deployment) in [
        ("base_10gpu", Deployment::base(&fam, 10)),
        ("co2opt_10gpu", Deployment::co2opt(&fam, 10)),
    ] {
        group.throughput(Throughput::Elements((rate * 10.0) as u64));
        group.bench_function(format!("window_10s_{label}"), |b| {
            let mut sim = ServingSim::new(fam.clone(), perf, deployment.clone(), 1);
            b.iter(|| black_box(sim.run_window(rate, window, SimDuration::from_secs(1.0))))
        });
    }

    // The hold model: one pending completion per CO2OPT instance, each pop
    // rescheduling its event one exponential step later.
    const OPS: u64 = 4096;
    group.throughput(Throughput::Elements(OPS));
    group.bench_function("event_queue_hold_70", |b| {
        let mut q = EventQueue::new();
        let mut rng = SimRng::new(7);
        for i in 0..70u32 {
            q.schedule(SimTime::from_secs(rng.exponential(1.0)), i);
        }
        b.iter(|| {
            for _ in 0..OPS {
                let (at, ev) = q.pop().expect("the hold model keeps the queue full");
                q.schedule(at + SimDuration::from_secs(rng.exponential(1.0)), ev);
            }
        })
    });
    let latencies: Vec<f64> = {
        let mut rng = SimRng::new(9);
        (0..OPS)
            .map(|_| 0.05 * (rng.normal() * 0.8).exp())
            .collect()
    };
    group.bench_function("latency_histogram_record", |b| {
        let mut h = LatencyHistogram::for_latency();
        b.iter(|| {
            for &x in &latencies {
                h.record(x);
            }
            black_box(h.count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_des);
criterion_main!(benches);

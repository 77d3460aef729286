//! Per-layer probes: the public functions of each layer, timed from the
//! benchmark on inputs derived from the workload (same application, fleet,
//! rate and a sample of the deployments its schedulers search).
//!
//! Every probe reports nanoseconds (or a rate) per call together with the
//! call and event counts it measured over.

use crate::workloads::Built;
use clover_carbon::{CarbonIntensity, Region};
use clover_core::anneal::{anneal, SaParams};
use clover_core::control::Fidelity;
use clover_core::eval::DesEvaluator;
use clover_core::graph::ConfigGraph;
use clover_core::neighbors::NeighborSampler;
use clover_core::objective::Objective;
use clover_core::schedulers::enumerate_standardized;
use clover_core::schedulers::SchemeKind;
use clover_mig::Packer;
use clover_models::zoo::Application;
use clover_models::{ModelFamily, PerfModel};
use clover_router::{GlobalRouter, RouterConfig};
use clover_serving::{analytic, Deployment, ServingCarry, ServingSim};
use clover_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use clover_telemetry::{Event, Journal, Phase, ProfilerHandle};
use clover_workload::{Workload, WorkloadKind};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Wall time each probe loop runs for, at least, seconds.
const PROBE_S: f64 = 0.15;

/// Deployments sampled from the standardized search space per input.
const SAMPLE: usize = 48;

/// One cluster's inputs, as a workload's cells see them.
pub struct Input {
    pub app: Application,
    pub family: Arc<ModelFamily>,
    pub perf: PerfModel,
    pub n_gpus: usize,
    /// Offered rate at this cluster, req/s.
    pub rate_rps: f64,
    /// The cluster's traffic scenario bound to `rate_rps`.
    pub workload: Workload,
    pub objective: Objective,
    pub ci: CarbonIntensity,
    pub sa: SaParams,
    /// Control epoch, seconds.
    pub epoch_s: f64,
    /// Regions whose carbon traces one cell builds at set-up.
    pub regions: Vec<Region>,
    pub trace_hours: usize,
    pub seed: u64,
}

impl Input {
    /// One input per application in the workload (the first cell of each).
    pub fn from_built(built: &Built) -> Vec<Input> {
        let perf = PerfModel::a100();
        match built {
            Built::Cells(cells) => {
                let mut out: Vec<Input> = Vec::new();
                for e in cells {
                    let cfg = e.config();
                    if out.iter().any(|i| i.app == cfg.app) {
                        continue;
                    }
                    let region = match cfg.trace {
                        clover_core::TraceSource::Region(r) => vec![r],
                        clover_core::TraceSource::Constant(_) => Vec::new(),
                    };
                    out.push(Input {
                        app: cfg.app,
                        family: Arc::new(cfg.app.family()),
                        perf,
                        n_gpus: cfg.n_gpus,
                        rate_rps: e.rate_rps,
                        workload: e.workload.clone(),
                        objective: e.objective,
                        ci: e.trace().mean(),
                        sa: cfg.search_budget.apply(cfg.sa, cfg.control_epoch_s),
                        epoch_s: cfg.control_epoch_s,
                        regions: region,
                        trace_hours: 48,
                        seed: cfg.seed,
                    });
                }
                out
            }
            Built::Routed(routers) => {
                let r = &routers[0];
                let cfg = r.config();
                let n = cfg.regions.len() as f64;
                let hours = (cfg.horizon_hours.ceil() as usize).max(48);
                let ci = cfg
                    .regions
                    .iter()
                    .map(|reg| reg.trace(hours, cfg.seed).mean().g_per_kwh())
                    .sum::<f64>()
                    / n;
                vec![Input {
                    app: cfg.app,
                    family: Arc::new(cfg.app.family()),
                    perf,
                    n_gpus: cfg.n_gpus_per_region,
                    rate_rps: r.rate_rps / n,
                    workload: Workload::new(cfg.workload.clone(), r.rate_rps / n),
                    objective: r.objective,
                    ci: CarbonIntensity::from_g_per_kwh(ci),
                    sa: cfg.search_budget.apply(cfg.sa, cfg.control_epoch_s),
                    epoch_s: cfg.control_epoch_s,
                    regions: cfg.regions.clone(),
                    trace_hours: hours,
                    seed: cfg.seed,
                }]
            }
        }
    }

    fn base(&self) -> Deployment {
        Deployment::base(&self.family, self.n_gpus)
    }

    /// Every `k`-th standardized deployment of the fleet, about [`SAMPLE`].
    fn sample(&self) -> Vec<Deployment> {
        let all = enumerate_standardized(&self.family, self.n_gpus);
        let step = (all.len() / SAMPLE).max(1);
        all.into_iter().step_by(step).take(SAMPLE).collect()
    }
}

/// Accumulated cost of a probed operation: wall nanoseconds over calls
/// (and, where it applies, over simulated events).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub ns: f64,
    pub calls: u64,
    pub events: u64,
}

impl Tally {
    fn add(&mut self, ns: f64, calls: u64, events: u64) {
        self.ns += ns;
        self.calls += calls;
        self.events += events;
    }

    pub fn ns_per_call(&self) -> f64 {
        self.ns / self.calls.max(1) as f64
    }

    pub fn ns_per_event(&self) -> f64 {
        self.ns / self.events.max(1) as f64
    }
}

/// Calls `f` until [`PROBE_S`] has passed (at least `min_calls` times);
/// `f` returns the events it processed. Returns the tally.
fn probe(min_calls: u64, mut f: impl FnMut() -> u64) -> Tally {
    let t = Instant::now();
    let mut tally = Tally::default();
    while tally.calls < min_calls || t.elapsed().as_secs_f64() < PROBE_S {
        tally.events += f();
        tally.calls += 1;
    }
    tally.ns = t.elapsed().as_nanos() as f64;
    tally
}

/// Every layer's probe results for one workload.
#[derive(Debug, Default)]
pub struct Layers {
    pub window_base: Tally,
    pub window_co2opt: Tally,
    pub continuous_k1: Tally,
    pub continuous_k2: Tally,
    /// Carry (serial pre-draw, split, merge) seconds inside the K=2 epochs.
    pub shard_carry_s: f64,
    pub analytic: Tally,
    pub eval: Tally,
    pub anneal_evals: u64,
    pub anneal_s: f64,
    pub anneal_accepted: u64,
    pub anneal_rejected: u64,
    pub anneal_sla_ok: u64,
    pub neighbors: Tally,
    /// Single-attempt proposals and how many produced a neighbor.
    pub neighbor_attempts: u64,
    pub neighbor_yields: u64,
    pub graph_build: Tally,
    pub graph_ged: Tally,
    pub oracle_enumerate: Tally,
    pub poisson: Tally,
    pub flash_crowd: Tally,
    pub mmpp: Tally,
    /// Carbon traces one cell builds at set-up, timed per cell.
    pub eval_trace: Tally,
    pub packer_cold: Tally,
    pub packer_warm: Tally,
    pub event_queue: Tally,
    pub journal: Tally,
}

impl Layers {
    /// Runs every probe over every input.
    pub fn measure(inputs: &[Input]) -> Layers {
        let mut l = Layers::default();
        for input in inputs {
            l.serving(input);
            l.core(input);
            l.workload(input);
            l.substrate(input);
        }
        l.journal = journal_probe();
        l
    }

    fn serving(&mut self, input: &Input) {
        // Representative windows, as the window-fidelity cells serve them.
        let plan = Fidelity::representative().window_plan(SimDuration::from_secs(3600.0));
        for (tally, deployment) in [
            (&mut self.window_base, input.base()),
            (
                &mut self.window_co2opt,
                Deployment::co2opt(&input.family, input.n_gpus),
            ),
        ] {
            let mut sim = ServingSim::new(input.family.clone(), input.perf, deployment, input.seed);
            let t = probe(2, || {
                let m = sim.run_window(input.rate_rps, plan.window, plan.warmup);
                black_box(m.sim_events)
            });
            tally.add(t.ns, t.calls, t.events);
        }

        // Continuous epochs carried across seams, unsharded and K = 2.
        let epoch_s = input.epoch_s.min(600.0);
        for shards in [1usize, 2] {
            let mut sim =
                ServingSim::new(input.family.clone(), input.perf, input.base(), input.seed);
            sim.set_intra_epoch_shards(shards);
            sim.set_shard_threads(Some(shards));
            let profiler = ProfilerHandle::new();
            if shards > 1 {
                sim.set_profiler(Some(profiler.clone()));
            }
            let mut carry = ServingCarry::default();
            let mut epoch = 0u32;
            let t = probe(4, || {
                let origin = SimTime::from_secs(f64::from(epoch) * epoch_s);
                let mut arrivals = input.workload.process_from(origin);
                let (m, next) = sim.run_epoch_continuous(
                    arrivals.as_mut(),
                    SimDuration::from_secs(epoch_s),
                    std::mem::take(&mut carry),
                );
                carry = next;
                epoch += 1;
                m.sim_events
            });
            if shards == 1 {
                self.continuous_k1.add(t.ns, t.calls, t.events);
            } else {
                self.continuous_k2.add(t.ns, t.calls, t.events);
                self.shard_carry_s += profiler.totals().secs(Phase::Carry);
            }
        }

        let sample = input.sample();
        let mut i = 0usize;
        let t = probe(64, || {
            let d = &sample[i % sample.len()];
            i += 1;
            black_box(analytic::estimate(
                &input.family,
                &input.perf,
                d,
                input.rate_rps,
            ));
            0
        });
        self.analytic.add(t.ns, t.calls, 0);
    }

    fn core(&mut self, input: &Input) {
        let sampler = NeighborSampler::default();
        let mut rng = SimRng::new(input.seed ^ 0x9E16);
        let centers = [
            input.base(),
            Deployment::co2opt(&input.family, input.n_gpus),
        ];

        // Neighbor draws around the BASE and CO2OPT centers, as the
        // annealer makes them; then single-attempt draws, whose share of
        // `Some` is the yield of one proposal attempt.
        let mut candidates: Vec<Deployment> = Vec::new();
        let mut i = 0usize;
        let t = probe(64, || {
            i += 1;
            if let Some(n) = sampler.sample(&input.family, &centers[i % 2], &mut rng) {
                if candidates.len() < SAMPLE {
                    candidates.push(n);
                }
            }
            0
        });
        self.neighbors.add(t.ns, t.calls, 0);
        let single = NeighborSampler {
            max_attempts: 1,
            ..sampler
        };
        let t = probe(64, || {
            i += 1;
            u64::from(
                single
                    .sample(&input.family, &centers[i % 2], &mut rng)
                    .is_some(),
            )
        });
        self.neighbor_attempts += t.calls;
        self.neighbor_yields += t.events;

        // One live evaluation window per candidate.
        let mut evaluator = DesEvaluator::new(
            input.family.clone(),
            input.perf,
            input.rate_rps,
            input.base(),
            input.seed ^ 0xE7A1,
        );
        let mut i = 0usize;
        let t = probe(4, || {
            let c = &candidates[i % candidates.len()];
            i += 1;
            black_box(evaluator.evaluate(c));
            // The evaluator keeps every window for the run's accounting;
            // the probe has none, so it drops them as they come.
            evaluator.take_window_log();
            0
        });
        self.eval.add(t.ns, t.calls, 0);

        // Whole SA invocations from the BASE center, as CLOVER plans.
        let mut evaluator = DesEvaluator::new(
            input.family.clone(),
            input.perf,
            input.rate_rps,
            input.base(),
            input.seed ^ 0xA11E,
        );
        let t0 = Instant::now();
        let mut calls = 0u64;
        while calls < 2 || t0.elapsed().as_secs_f64() < PROBE_S {
            let run = anneal(
                input.base(),
                &input.objective,
                input.ci,
                &input.sa,
                &mut rng,
                |c, r| sampler.sample(&input.family, c, r),
                |d| evaluator.evaluate(d),
            );
            self.anneal_evals += run.evals.len() as u64;
            self.anneal_sla_ok += run.evals.iter().filter(|e| e.sla_ok).count() as u64;
            self.anneal_accepted += u64::from(run.ledger.accepted);
            self.anneal_rejected += u64::from(run.ledger.rejected);
            evaluator.take_window_log();
            calls += 1;
        }
        self.anneal_s += t0.elapsed().as_secs_f64();

        // Configuration graphs and their edit distance.
        let sample = input.sample();
        let mut i = 0usize;
        let t = probe(64, || {
            black_box(ConfigGraph::from_deployment(
                &input.family,
                &sample[i % sample.len()],
            ));
            i += 1;
            0
        });
        self.graph_build.add(t.ns, t.calls, 0);
        let graphs: Vec<ConfigGraph> = sample
            .iter()
            .map(|d| ConfigGraph::from_deployment(&input.family, d))
            .collect();
        let mut i = 0usize;
        let t = probe(64, || {
            let (a, b) = (
                &graphs[i % graphs.len()],
                &graphs[(i * 7 + 3) % graphs.len()],
            );
            i += 1;
            black_box(a.ged(b));
            0
        });
        self.graph_ged.add(t.ns, t.calls, 0);

        // ORACLE's offline enumeration of the standardized space.
        let t = probe(2, || {
            black_box(enumerate_standardized(&input.family, input.n_gpus).len() as u64)
        });
        self.oracle_enumerate.add(t.ns, t.calls, 0);
    }

    fn workload(&mut self, input: &Input) {
        for (tally, kind) in [
            (&mut self.poisson, WorkloadKind::Poisson),
            (&mut self.flash_crowd, WorkloadKind::flash_crowd()),
            (&mut self.mmpp, WorkloadKind::mmpp()),
        ] {
            let mut process = Workload::new(kind, input.rate_rps).process_from(SimTime::ZERO);
            let mut rng = SimRng::new(input.seed ^ 0xA771);
            let mut now = SimTime::ZERO;
            let t = probe(1, || {
                for _ in 0..4096 {
                    now = process
                        .next_after(now, &mut rng)
                        .expect("unbounded process");
                }
                4096
            });
            tally.add(t.ns, t.events, t.events);
        }
    }

    fn substrate(&mut self, input: &Input) {
        let t = probe(2, || {
            for r in &input.regions {
                black_box(r.trace(input.trace_hours, input.seed).mean());
            }
            0
        });
        self.eval_trace.add(t.ns, t.calls, 0);

        // The MIG packer: a fresh memo (cold) against a warmed one.
        let censuses: Vec<_> = input.sample().iter().map(Deployment::census).collect();
        let mut i = 0usize;
        let t = probe(64, || {
            let mut packer = Packer::new();
            black_box(packer.decompose(&censuses[i % censuses.len()], input.n_gpus));
            i += 1;
            0
        });
        self.packer_cold.add(t.ns, t.calls, 0);
        let mut packer = Packer::new();
        for c in &censuses {
            packer.decompose(c, input.n_gpus);
        }
        let mut i = 0usize;
        let t = probe(64, || {
            black_box(packer.decompose(&censuses[i % censuses.len()], input.n_gpus));
            i += 1;
            0
        });
        self.packer_warm.add(t.ns, t.calls, 0);

        // The DES event queue in the hold model, one pending event per
        // serving instance of the workload's CO2OPT fleet.
        let pending = Deployment::co2opt(&input.family, input.n_gpus).n_instances();
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut rng = SimRng::new(input.seed ^ 0x0E0E);
        for i in 0..pending {
            q.schedule(SimTime::from_secs(rng.exponential(1.0)), i as u32);
        }
        let t = probe(1, || {
            for _ in 0..4096 {
                let (at, ev) = q.pop().expect("hold model keeps the queue full");
                q.schedule(at + SimDuration::from_secs(rng.exponential(1.0)), ev);
            }
            2 * 4096
        });
        self.event_queue.add(t.ns, t.events, t.events);
    }
}

/// Journal appends shaped like the router's per-epoch `route` event.
fn journal_probe() -> Tally {
    let mut journal = Journal::new();
    let mut k = 0u64;
    let t = probe(1, || {
        for _ in 0..1024 {
            k += 1;
            journal.push(
                Event::new("route", SimTime::from_secs(k as f64 * 600.0))
                    .str("policy", "carbon-greedy")
                    .f64("w0", 0.25)
                    .f64("w1", 0.5)
                    .f64("w2", 0.25)
                    .u64("migrated", k % 17),
            );
        }
        if journal.len() > 1 << 16 {
            journal = Journal::new();
        }
        1024
    });
    Tally {
        ns: t.ns,
        calls: t.events,
        events: t.events,
    }
}

/// A short multi-region run derived from a single-cluster workload's
/// first input: three regions of its fleet, uniform routing, two hours.
/// Returns (run seconds, epochs, migrated requests).
pub fn router_probe(input: &Input) -> (f64, u64, u64) {
    let cfg = RouterConfig::builder(input.app)
        .policy("uniform")
        .scheme(SchemeKind::Base)
        .n_gpus_per_region(input.n_gpus)
        .control_epoch_s(600.0)
        .horizon_hours(2.0)
        .seed(input.seed)
        .build();
    let router = GlobalRouter::new(cfg);
    let t = Instant::now();
    let out = router.run();
    let secs = t.elapsed().as_secs_f64();
    (secs, out.timeline.len() as u64, out.migrated_requests)
}

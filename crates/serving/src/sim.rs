//! The discrete-event serving simulator.
//!
//! Models the paper's load-balancer architecture (Sec. 4.3): a producer
//! accepts user queries into a FIFO queue; whenever a service instance
//! finishes, it notifies the consumer, which feeds it the queue head.
//! Request latency is queueing wait plus service time; SLA is the p95 tail.
//!
//! Arrivals come from any [`ArrivalProcess`] (the paper's open-loop Poisson
//! of Sec. 5.1 is [`ServingSim::run_window`]'s default; diurnal and bursty
//! scenarios plug in through [`ServingSim::run_window_with`]). Arrival and service randomness live on
//! separate named sub-streams of the window's RNG (see [`stream`]), so
//! swapping the arrival process never perturbs service jitter and vice
//! versa.
//!
//! Energy is integrated alongside: each completed request charges its
//! slice's busy power for its (jittered) service time, idle slices draw a
//! small residual, and each physical GPU pays a constant static draw. The
//! carbon ledger later multiplies these joules by the time-varying grid
//! intensity.
//!
//! One event loop, `run_kernel`, serves every path: a classic window is the
//! kernel with a warm-up, an empty carry and a drain past the horizon; a
//! continuous epoch is the kernel restored from a carry and snapshotted at
//! the horizon.
//!
//! The simulator is built for reuse: an experiment runs hundreds of hourly
//! windows (plus the optimizer's evaluation windows) against one
//! [`ServingSim`], so the per-run working state — event queue, FIFO,
//! instance table, idle list, per-variant counters, latency histogram —
//! lives in one `SimScratch` per simulator that is reset (allocation kept)
//! rather than reallocated each window. The model family is shared by `Arc`,
//! making simulator construction O(1) instead of a deep clone of the zoo
//! tables.

use crate::deployment::Deployment;
use clover_mig::SliceType;
use clover_models::{ModelFamily, PerfModel, VariantId};
use clover_simkit::{EventQueue, LatencyHistogram, SimDuration, SimRng, SimTime};
use clover_telemetry::{Phase, ProfilerHandle};
use clover_workload::{ArrivalProcess, PoissonProcess};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Named RNG sub-streams of one serving window.
///
/// Each window forks one window generator off the simulator's root stream
/// and derives these independent sub-streams from it via
/// [`SimRng::substream`] — a non-advancing derivation, so adding a new
/// label here can never perturb the draws of the existing streams (and
/// hence never changes existing seeded results).
pub mod stream {
    /// Arrival-process randomness: inter-arrival sampling, thinning
    /// acceptance, MMPP state transitions.
    pub const ARRIVALS: u64 = 0xA121;
    /// Service-side randomness: dispatch among idle instances and
    /// service-time jitter.
    pub const SERVICE: u64 = 0x5EB1;
}

/// Requests queued beyond this bound are dropped (an overloaded deployment
/// such as BASE on 2 GPUs would otherwise grow the queue without limit).
/// Requests re-queued by an instance failure are already-admitted work and
/// may transiently push the queue past this bound; only new arrivals shed.
pub const MAX_QUEUE: usize = 100_000;

/// A scheduled mid-window failure: at `at_s` on the window's local clock,
/// the named instances go down for the remainder of the window. A dying
/// instance's in-flight request loses its partial service and rejoins the
/// queue ahead of the waiting requests (oldest first) — work is conserved,
/// progress is not. `gpus` counts the physical GPUs taken down with these
/// instances so their static draw stops at the failure instant.
///
/// Failures are injected per window via
/// [`ServingSim::set_window_failures`]; with none set (the default) the
/// simulation is bit-identical to a fault-free run.
#[derive(Debug, Clone)]
pub struct InstanceFailure {
    /// Failure instant, seconds on the window's local clock.
    pub at_s: f64,
    /// Instance indices (into the deployment's instance order) going down.
    pub instances: Vec<u32>,
    /// Physical GPUs powered off by this failure (for static-energy credit).
    pub gpus: u32,
}

/// Relative (lognormal sigma) jitter applied to service times.
pub const SERVICE_JITTER_SIGMA: f64 = 0.08;

/// Measured results of one simulated serving window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowMetrics {
    /// Length of the measured span, seconds.
    pub span_s: f64,
    /// Requests that arrived within the measured span.
    pub arrived: u64,
    /// Of those, requests completed (possibly after the span's end).
    pub served: u64,
    /// Requests dropped: shed at the queue bound or, in a classic window,
    /// still waiting when the drain ended with no live instance left.
    pub dropped: u64,
    /// Discrete events processed while simulating the window (arrivals and
    /// completions, warmup and drain included) — the denominator for
    /// ns/event engine-throughput reporting.
    pub sim_events: u64,
    /// Served request counts per variant ordinal.
    pub per_variant_served: Vec<u64>,
    /// Dynamic (busy-slice) energy within the span, joules.
    pub dynamic_energy_j: f64,
    /// Idle-slice residual energy within the span, joules.
    pub idle_energy_j: f64,
    /// Per-GPU static energy within the span, joules.
    pub static_energy_j: f64,
    /// End-to-end latency (wait + service) distribution of served
    /// requests, seconds: the window's mean, tail and maximum, mergeable
    /// across windows for run-level quantiles.
    pub latency_hist: LatencyHistogram,
    /// Signed residual of the conservation law
    /// `carried_in + arrived - (served + dropped + carried_out)` (a classic
    /// window carries nothing in or out). Always 0 unless the bookkeeping
    /// itself is broken; checked on every window and epoch (not just debug
    /// builds) so a violation surfaces as a journal event instead of
    /// aborting a release run.
    pub conservation_leak: i64,
    /// Instances killed by injected failures within this window.
    pub fault_kills: u64,
    /// In-flight requests re-queued because their instance failed.
    pub fault_requeued: u64,
}

impl WindowMetrics {
    /// Total IT (device) energy over the span, joules.
    pub fn it_energy_j(&self) -> f64 {
        self.dynamic_energy_j + self.idle_energy_j + self.static_energy_j
    }

    /// Average IT energy per served request, joules. `None` when nothing
    /// was served.
    pub fn energy_per_request_j(&self) -> Option<f64> {
        if self.served == 0 {
            None
        } else {
            Some(self.it_energy_j() / self.served as f64)
        }
    }

    /// p95 end-to-end latency, seconds. `None` when the window served
    /// nothing — a silent window has no measured tail, and reporting 0.0
    /// would spuriously pass any SLA check.
    pub fn p95_latency_s(&self) -> Option<f64> {
        self.latency_hist.quantile(0.95)
    }

    /// Mixture accuracy of the served requests (weighted average of the
    /// variants' published accuracy), percent.
    pub fn accuracy_pct(&self, family: &ModelFamily) -> Option<f64> {
        clover_models::served_weighted_accuracy(
            family,
            self.per_variant_served.iter().map(|&n| n as f64),
        )
    }
}

/// One service instance: a model variant pinned to a MIG slice.
struct Instance {
    variant: VariantId,
    /// Mean service time, seconds (precomputed).
    mean_service_s: f64,
    /// Busy power, watts (precomputed).
    busy_w: f64,
    /// Idle power, watts (precomputed).
    idle_w: f64,
    /// The request in service, if busy.
    in_flight: Option<InFlight>,
    /// Accumulated busy seconds clipped to the measured span.
    busy_in_span_s: f64,
    /// Failure instant on the window clock, if an injected failure took the
    /// instance down. A down instance is never dispatched again within the
    /// run, so its pending `Done` event is stale; dead slices stop drawing
    /// idle power from this point.
    down_at_s: Option<f64>,
}

/// A request in service, seconds on the window's local clock.
#[derive(Clone, Copy)]
struct InFlight {
    /// Arrival time; negative for requests carried in from a previous
    /// epoch (they arrived before this window opened).
    arrived_at_s: f64,
    /// Service start. Busy intervals can straddle the span edges, so the
    /// exact interval is kept and clipped to the measured span when the
    /// service ends.
    start_s: f64,
    /// Scheduled service end.
    end_s: f64,
}

/// A queued kernel event. Arrivals never enter the queue: the kernel holds
/// the next one beside it (see `run_kernel`).
#[derive(Clone, Copy)]
enum Ev {
    Done {
        instance: u32,
    },
    /// Index into the run's injected-failure schedule.
    Fault {
        failure: u32,
    },
}

/// Per-run working state, kept by the simulator across the hundreds of
/// windows an experiment simulates so the DES hot path allocates (almost)
/// nothing per window: collections are cleared, not rebuilt, and keep their
/// capacity.
struct SimScratch {
    queue: EventQueue<Ev>,
    instances: Vec<Instance>,
    /// Waiting requests' arrival times, seconds on the window's local
    /// clock (negative for requests carried in from a previous epoch).
    fifo: VecDeque<f64>,
    idle: Vec<u32>,
    per_variant: Vec<u64>,
    hist: LatencyHistogram,
}

impl SimScratch {
    fn new() -> Self {
        SimScratch {
            queue: EventQueue::new(),
            instances: Vec::new(),
            fifo: VecDeque::new(),
            idle: Vec::new(),
            per_variant: Vec::new(),
            hist: LatencyHistogram::for_latency(),
        }
    }

    /// Readies the scratch for a fresh run: everything emptied, all
    /// buffers retained.
    fn reset(&mut self, n_variants: usize) {
        self.queue.reset();
        self.instances.clear();
        self.fifo.clear();
        self.idle.clear();
        self.per_variant.clear();
        self.per_variant.resize(n_variants, 0);
        self.hist.clear();
    }
}

/// One request mid-service at an epoch boundary: which instance holds it,
/// how long ago it arrived, and how much service it has left.
#[derive(Debug, Clone, Copy)]
struct CarriedRequest {
    instance: u32,
    age_s: f64,
    remaining_s: f64,
}

/// Serving state carried across an epoch boundary by
/// [`ServingSim::run_epoch_continuous`]: the waiting queue and the
/// in-flight requests, with enough physics (arrival ages, remaining
/// service time, the deployment the work was bound to) to resume the
/// system mid-flight instead of restarting each epoch from empty.
///
/// A carry is a pure snapshot: it is produced at one epoch's horizon and
/// consumed at the next epoch's start, and the latency of a request that
/// crosses the seam is measured end to end (its pre-boundary wait is part
/// of the latency recorded when it finally completes). If the deployment
/// changed between the epochs (a reconfiguration landed at the boundary),
/// carried in-flight requests lose their partial service and rejoin the
/// queue ahead of the waiting requests — work is conserved, progress on
/// torn-down instances is not.
///
/// `Default` is the empty carry — the cold start the first epoch of a run
/// begins from.
#[derive(Debug, Clone, Default)]
pub struct ServingCarry {
    /// Waiting requests' ages at the boundary, seconds, oldest first.
    queue_ages_s: Vec<f64>,
    /// Requests mid-service at the boundary.
    in_flight: Vec<CarriedRequest>,
    /// The deployment the in-flight work was running on.
    deployment: Option<Deployment>,
}

impl ServingCarry {
    /// Requests waiting in the queue at the boundary.
    pub fn queued(&self) -> usize {
        self.queue_ages_s.len()
    }

    /// Requests mid-service at the boundary.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Total requests inside the system at the boundary (queued plus
    /// in-flight) — the backlog the next epoch inherits, and the term that
    /// closes the per-epoch conservation law
    /// `carried_in + arrived == served + dropped + carried_out`.
    pub fn backlog(&self) -> u64 {
        (self.queue_ages_s.len() + self.in_flight.len()) as u64
    }

    /// True when nothing crosses the boundary (a cold start).
    pub fn is_empty(&self) -> bool {
        self.queue_ages_s.is_empty() && self.in_flight.is_empty()
    }

    /// Removes up to `n` of the *youngest* waiting requests for migration
    /// to another cluster, returning their ages (oldest first, like the
    /// queue itself). The oldest requests stay put: they are closest to
    /// local service, and shipping them would pay the transfer latency on
    /// exactly the work least able to afford it. In-flight requests are
    /// never taken — their partial service belongs to this cluster.
    pub fn take_queued_newest(&mut self, n: usize) -> Vec<f64> {
        let keep = self.queue_ages_s.len().saturating_sub(n);
        self.queue_ages_s.split_off(keep)
    }

    /// Empties the carry entirely for migration — a cluster going dark
    /// hands *everything* over. Queued requests keep their ages; in-flight
    /// requests lose their partial service (the instances holding them no
    /// longer exist) and contribute their ages alone. Returns the combined
    /// ages oldest-first and leaves the carry a cold start.
    pub fn drain_for_migration(&mut self) -> Vec<f64> {
        let mut ages = std::mem::take(&mut self.queue_ages_s);
        ages.extend(self.in_flight.drain(..).map(|r| r.age_s));
        self.deployment = None;
        ages.sort_by(|a, b| b.partial_cmp(a).expect("finite request ages"));
        ages
    }

    /// Merges migrated requests into the waiting queue, preserving the
    /// oldest-first order the continuous restore path relies on. The
    /// caller has already added any inter-cluster transfer latency to the
    /// ages; requests only ever *gain* age in transit, so a migrated
    /// request can never jump ahead of local work it was younger than.
    /// The in-flight set and its deployment binding are untouched.
    pub fn absorb_queued(&mut self, ages: &[f64]) {
        if ages.is_empty() {
            return;
        }
        self.queue_ages_s.extend_from_slice(ages);
        self.queue_ages_s
            .sort_by(|a, b| b.partial_cmp(a).expect("finite request ages"));
    }

    /// Readies the carry to restore onto `deployment`. If it was taken on
    /// another deployment (a reconfiguration landed at the boundary), its
    /// in-flight work loses its partial service and rejoins the queue,
    /// oldest first.
    fn rebind(&mut self, deployment: &Deployment) {
        if self.deployment.as_ref() != Some(deployment) {
            self.queue_ages_s = self.drain_for_migration();
        }
    }
}

/// Arrivals drawn live from a process on the window's arrival stream.
struct Live<'a> {
    process: &'a mut dyn ArrivalProcess,
    rng: SimRng,
}

impl Live<'_> {
    /// The arrival following the one at `now`, or `None` once exhausted.
    fn next_after(&mut self, now: SimTime) -> Option<SimTime> {
        self.process.next_after(now, &mut self.rng)
    }
}

/// Everything one kernel run starts from besides its scratch, whose
/// instance table is already loaded in deployment order.
struct KernelRun<'a> {
    /// In-flight work and waiting queue restored at the opening instant.
    restore: &'a ServingCarry,
    arrivals: Live<'a>,
    failures: &'a [InstanceFailure],
    service_rng: SimRng,
    warmup: SimDuration,
    window: SimDuration,
    /// `Some`: carry mode — stop at the horizon and snapshot what remains
    /// into this carry. `None`: drain every event past the horizon.
    carry_out: Option<&'a mut ServingCarry>,
    /// Times the restore and the snapshot as [`Phase::Carry`].
    profiler: Option<&'a ProfilerHandle>,
}

/// Counters and energy of one kernel run. The latency histogram and
/// per-variant counts stay in the scratch.
#[derive(Default)]
struct Tally {
    carried_in: u64,
    arrived: u64,
    served: u64,
    dropped: u64,
    carried_out: u64,
    sim_events: u64,
    dynamic_j: f64,
    idle_j: f64,
    fault_kills: u64,
    fault_requeued: u64,
}

impl Tally {
    /// Signed residual of `carried_in + arrived == served + dropped +
    /// carried_out`; 0 unless the bookkeeping itself is broken.
    fn leak(&self) -> i64 {
        (self.carried_in + self.arrived) as i64
            - (self.served + self.dropped + self.carried_out) as i64
    }

    fn into_metrics(
        self,
        span_s: f64,
        static_energy_j: f64,
        hist: LatencyHistogram,
        per_variant_served: Vec<u64>,
    ) -> WindowMetrics {
        WindowMetrics {
            span_s,
            arrived: self.arrived,
            served: self.served,
            dropped: self.dropped,
            sim_events: self.sim_events,
            per_variant_served,
            dynamic_energy_j: self.dynamic_j,
            idle_energy_j: self.idle_j,
            static_energy_j,
            latency_hist: hist,
            conservation_leak: self.leak(),
            fault_kills: self.fault_kills,
            fault_requeued: self.fault_requeued,
        }
    }
}

/// The DES kernel: one FIFO in front of the scratch's instances. It
/// restores in-flight work and the waiting queue, pairs waiting work with
/// idle instances at the opening instant, then runs arrivals, completions
/// and injected failures until the horizon (carry mode, snapshotting what
/// remains) or until every event has drained. Everything it touches is
/// passed in.
///
/// Event order is part of the result — the queue breaks time ties by
/// insertion — so restored completions are scheduled first, then the
/// opening dispatch, then the failures, then the first arrival.
fn run_kernel(scratch: &mut SimScratch, run: KernelRun<'_>) -> Tally {
    let KernelRun {
        restore,
        mut arrivals,
        failures,
        mut service_rng,
        warmup,
        window,
        carry_out,
        profiler,
    } = run;
    let carry_mode = carry_out.is_some();
    let warmup_end = SimTime::ZERO + warmup;
    let horizon = warmup_end + window;
    let span_s = window.as_secs();
    let warmup_end_s = warmup_end.as_secs();
    let horizon_s = horizon.as_secs();
    let SimScratch {
        queue: q,
        instances,
        fifo,
        idle,
        per_variant,
        hist,
    } = scratch;
    let mut t = Tally {
        carried_in: restore.backlog(),
        ..Tally::default()
    };

    // Restore: in-flight requests back onto their instances with their
    // remaining service scheduled (the pre-boundary part of the interval
    // was charged to the previous epoch), waiting requests back into the
    // queue with their pre-window arrival times (negative on this clock).
    let restore_scope = profiler.map(|p| p.scope(Phase::Carry));
    for r in &restore.in_flight {
        instances[r.instance as usize].in_flight = Some(InFlight {
            arrived_at_s: -r.age_s,
            start_s: 0.0,
            end_s: r.remaining_s,
        });
        q.schedule(
            SimTime::from_secs(r.remaining_s),
            Ev::Done {
                instance: r.instance,
            },
        );
    }
    fifo.extend(restore.queue_ages_s.iter().map(|&age| -age));

    // Idle instances. The consumer has no placement preference (paper
    // Sec. 4.3: instances notify the consumer when free; an arriving
    // request finding several idle instances is dispatched uniformly at
    // random). Under load, dispatch is completion-driven regardless.
    idle.extend((0..instances.len() as u32).filter(|&i| instances[i as usize].in_flight.is_none()));

    // A restore can leave waiting work next to idle instances: dispatch
    // the queue heads at the opening instant so later arrivals cannot
    // jump carried requests.
    while !idle.is_empty() && !fifo.is_empty() {
        let arrived_at = fifo.pop_front().expect("non-empty queue");
        dispatch_to_idle(
            instances,
            idle,
            SimTime::ZERO,
            arrived_at,
            &mut service_rng,
            q,
        );
    }
    drop(restore_scope);

    // Injected failures land as ordinary DES events; fault-free runs
    // schedule nothing.
    for (k, f) in failures.iter().enumerate() {
        let at = SimTime::from_secs(f.at_s.max(0.0));
        if at <= horizon {
            q.schedule(at, Ev::Fault { failure: k as u32 });
        }
    }

    // Arrivals are chained one at a time (the next is drawn when the
    // current one is handled) and held beside the queue, not in it: the
    // reserved key orders the pending arrival against queued events exactly
    // as scheduling it would, without a queue push and pop per request.
    let mut next_arrival = arrivals.next_after(SimTime::ZERO).map(|at| q.reserve(at));

    loop {
        let key = match (next_arrival, q.peek_key()) {
            (Some(arrival), Some(head)) => arrival.min(head),
            (Some(key), None) | (None, Some(key)) => key,
            (None, None) => break,
        };
        // Carry mode stops *at* the horizon: whatever is still pending
        // becomes the next epoch's carry instead of being drained.
        if carry_mode && key.time() > horizon {
            break;
        }
        t.sim_events += 1;
        if Some(key) == next_arrival {
            let now = q.claim(key);
            if now > horizon {
                next_arrival = None; // draining past the horizon: stop generating
                continue;
            }
            next_arrival = arrivals.next_after(now).map(|at| q.reserve(at));
            let measured = now >= warmup_end;
            if measured {
                t.arrived += 1;
            }
            if !idle.is_empty() {
                dispatch_to_idle(instances, idle, now, now.as_secs(), &mut service_rng, q);
            } else if fifo.len() < MAX_QUEUE {
                fifo.push_back(now.as_secs());
            } else if measured {
                t.dropped += 1;
            }
            continue;
        }
        let (now, ev) = q.pop().expect("peeked event");
        match ev {
            Ev::Fault { failure } => {
                // Collect the dying instances' in-flight arrivals so they
                // can rejoin the queue oldest-first.
                let mut requeue: Vec<f64> = Vec::new();
                for &inst_idx in &failures[failure as usize].instances {
                    let i = inst_idx as usize;
                    if i >= instances.len() || instances[i].down_at_s.is_some() {
                        continue;
                    }
                    let inst = &mut instances[i];
                    inst.down_at_s = Some(now.as_secs());
                    t.fault_kills += 1;
                    // The aborted request burned power up to the failure
                    // instant; its scheduled completion is now stale (the
                    // instance is down) and will be discarded.
                    if let Some(job) = inst.in_flight.take() {
                        inst.fold_busy(job.start_s, now.as_secs(), warmup_end_s, horizon_s);
                        requeue.push(job.arrived_at_s);
                        t.fault_requeued += 1;
                    }
                    idle.retain(|&j| j != inst_idx);
                }
                // Oldest first, ahead of everything already waiting.
                requeue.sort_by(|a, b| a.partial_cmp(b).expect("finite arrivals"));
                for &arr in requeue.iter().rev() {
                    fifo.push_front(arr);
                }
            }
            Ev::Done { instance } => {
                let i = instance as usize;
                if instances[i].down_at_s.is_some() {
                    continue; // stale completion of a failed instance
                }
                let arrived_at = instances[i].finish(warmup_end_s, horizon_s);
                // Drain mode measures requests that arrived within the
                // span. Carry mode measures every completion in the epoch,
                // carried requests with their full seam-spanning latency.
                if carry_mode || (arrived_at >= warmup_end_s && arrived_at <= horizon_s) {
                    hist.record(now.as_secs() - arrived_at);
                    t.served += 1;
                    per_variant[instances[i].variant.0 as usize] += 1;
                }
                if let Some(next_arrival) = fifo.pop_front() {
                    instances[i].start_service(instance, now, next_arrival, &mut service_rng, q);
                } else {
                    idle.push(instance);
                }
            }
        }
    }

    // Snapshot the boundary (carry mode): clip in-flight energy at the
    // horizon and turn pending completions into carried in-flight work.
    // The pending arrival past the horizon is discarded — the next epoch
    // anchors a fresh arrival process.
    let snapshot_scope = profiler.map(|p| p.scope(Phase::Carry));
    if let Some(out) = carry_out {
        while let Some((at, ev)) = q.pop() {
            let Ev::Done { instance } = ev else {
                continue;
            };
            let i = instance as usize;
            if instances[i].down_at_s.is_some() {
                continue; // stale completion of a failed instance
            }
            let arrived_at = instances[i].finish(warmup_end_s, horizon_s);
            out.in_flight.push(CarriedRequest {
                instance,
                age_s: horizon_s - arrived_at,
                remaining_s: at.as_secs() - horizon_s,
            });
            t.carried_out += 1;
        }
        out.queue_ages_s.extend(fifo.iter().map(|&a| horizon_s - a));
        t.carried_out += fifo.len() as u64;
    } else {
        // The drain ran out of events, so whatever still waits has no live
        // instance left to serve it: its measured requests are shed.
        t.dropped += fifo
            .iter()
            .filter(|&&a| a >= warmup_end_s && a <= horizon_s)
            .count() as u64;
    }
    drop(snapshot_scope);
    // Debug builds halt at a leak; release builds surface it through
    // `WindowMetrics::conservation_leak`.
    debug_assert_eq!(t.leak(), 0, "a request leaked");

    // Energy, clipped to the measured span.
    for inst in instances.iter() {
        t.dynamic_j += inst.busy_w * inst.busy_in_span_s;
        // A dead slice stops drawing idle power at its failure instant.
        let dead_s = inst
            .down_at_s
            .map_or(0.0, |d| (horizon_s - d.max(warmup_end_s)).max(0.0));
        t.idle_j += inst.idle_w * (span_s - inst.busy_in_span_s - dead_s).max(0.0);
    }
    t
}

/// Dispatches one request to a uniformly chosen idle instance — the single
/// encoding of the paper's placement-free consumer rule (one `below` draw
/// on the service stream, then service start).
fn dispatch_to_idle(
    instances: &mut [Instance],
    idle: &mut Vec<u32>,
    now: SimTime,
    arrived_at_s: f64,
    rng: &mut SimRng,
    q: &mut EventQueue<Ev>,
) {
    let i = idle.swap_remove(rng.below(idle.len()));
    instances[i as usize].start_service(i, now, arrived_at_s, rng, q);
}

impl Instance {
    fn new(family: &ModelFamily, perf: &PerfModel, v: VariantId, slice: SliceType) -> Self {
        let variant = family.variant(v);
        Instance {
            variant: v,
            mean_service_s: perf.service_time(variant, slice).as_secs(),
            busy_w: perf.busy_power_w(variant, slice),
            idle_w: perf.power.idle_slice_w(slice),
            in_flight: None,
            busy_in_span_s: 0.0,
            down_at_s: None,
        }
    }

    fn start_service(
        &mut self,
        index: u32,
        now: SimTime,
        arrived_at_s: f64,
        rng: &mut SimRng,
        q: &mut EventQueue<Ev>,
    ) {
        debug_assert!(self.in_flight.is_none());
        debug_assert!(self.down_at_s.is_none(), "dispatch to a failed instance");
        // Lognormal jitter with unit mean.
        let sigma = SERVICE_JITTER_SIGMA;
        let jitter = (sigma * rng.normal() - 0.5 * sigma * sigma).exp();
        let service = self.mean_service_s * jitter;
        q.schedule_in(
            SimDuration::from_secs(service),
            Ev::Done { instance: index },
        );
        self.in_flight = Some(InFlight {
            arrived_at_s,
            start_s: now.as_secs(),
            end_s: now.as_secs() + service,
        });
    }

    /// Ends the in-flight request's service at its scheduled end, folds
    /// the service interval into the busy time, and returns the request's
    /// arrival time.
    fn finish(&mut self, warmup_end: f64, span_end: f64) -> f64 {
        let job = self.in_flight.take().expect("completion for idle instance");
        self.fold_busy(job.start_s, job.end_s, warmup_end, span_end);
        job.arrived_at_s
    }

    /// Clips the service interval `[start, end]` to `[warmup_end,
    /// span_end]` and accumulates the overlap into the measured busy time.
    fn fold_busy(&mut self, start: f64, end: f64, warmup_end: f64, span_end: f64) {
        let lo = start.max(warmup_end);
        let hi = end.min(span_end);
        if hi > lo {
            self.busy_in_span_s += hi - lo;
        }
    }
}

/// Discrete-event simulator for one deployment of one application.
pub struct ServingSim {
    family: Arc<ModelFamily>,
    perf: PerfModel,
    deployment: Deployment,
    rng: SimRng,
    /// The kernel's working state, reset and reused by every run.
    scratch: SimScratch,
    /// Optional phase profiler: when set, the continuous path's carry
    /// restore and boundary snapshot are timed as
    /// [`clover_telemetry::Phase::Carry`]. Wall-clock only — attaching a
    /// profiler changes no simulated result.
    profiler: Option<ProfilerHandle>,
    /// Failure schedule consumed by the next window (taken, not kept).
    pending_failures: Vec<InstanceFailure>,
}

impl ServingSim {
    /// Creates a simulator. `seed` fixes the arrival and jitter streams.
    /// The family is shared (`Arc`), so passing `Arc<ModelFamily>` makes
    /// construction allocation-free; a plain `ModelFamily` still works.
    pub fn new(
        family: impl Into<Arc<ModelFamily>>,
        perf: PerfModel,
        deployment: Deployment,
        seed: u64,
    ) -> Self {
        ServingSim {
            family: family.into(),
            perf,
            deployment,
            rng: SimRng::new(seed),
            scratch: SimScratch::new(),
            profiler: None,
            pending_failures: Vec::new(),
        }
    }

    /// Does nothing: every epoch runs the one single-queue kernel. Kept,
    /// hidden, only because `perfbench` still calls it.
    #[doc(hidden)]
    pub fn set_intra_epoch_shards(&mut self, _shards: usize) {}

    /// Does nothing: the simulator runs on its caller's thread. Kept,
    /// hidden, only because `perfbench` still calls it.
    #[doc(hidden)]
    pub fn set_shard_threads(&mut self, _threads: Option<usize>) {}

    /// Schedules injected instance failures for the *next* window only;
    /// the schedule is consumed when that window runs. With no failures
    /// set, every path is bit-identical to the pre-chaos simulator.
    pub fn set_window_failures(&mut self, failures: Vec<InstanceFailure>) {
        self.pending_failures = failures;
    }

    /// Attach (or detach) a phase profiler; carry hand-offs at continuous
    /// epoch seams are recorded under [`clover_telemetry::Phase::Carry`].
    pub fn set_profiler(&mut self, profiler: Option<ProfilerHandle>) {
        self.profiler = profiler;
    }

    /// The deployment under simulation.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Replaces the deployment (reconfiguration); the caller accounts for
    /// downtime separately via [`clover_mig::ReconfigCost`].
    pub fn set_deployment(&mut self, deployment: Deployment) {
        self.deployment = deployment;
    }

    /// Restarts the RNG from `seed`, exactly as if the simulator had just
    /// been constructed with it. Lets one simulator (and its warm
    /// scratches) be reused for independently seeded windows — the
    /// optimizer's evaluator re-seeds per candidate instead of building a
    /// fresh simulator each time.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SimRng::new(seed);
    }

    /// Simulates an open-loop Poisson workload at `rate_rps` for
    /// `warmup + window`, measuring only requests that arrive after the
    /// warmup — the paper's Sec. 5.1 setup, kept as the default path.
    pub fn run_window(
        &mut self,
        rate_rps: f64,
        window: SimDuration,
        warmup: SimDuration,
    ) -> WindowMetrics {
        assert!(rate_rps > 0.0, "non-positive arrival rate");
        let mut arrivals = PoissonProcess::new(rate_rps);
        self.run_window_with(&mut arrivals, window, warmup)
    }

    /// Simulates `warmup + window` of traffic drawn from `arrivals`,
    /// measuring only requests that arrive after the warmup. The system
    /// starts empty; completions of measured arrivals are drained past the
    /// horizon so the tail is not censored. A finite arrival process (a
    /// non-looping trace that ends mid-window) simply stops producing
    /// traffic.
    pub fn run_window_with(
        &mut self,
        arrivals: &mut dyn ArrivalProcess,
        window: SimDuration,
        warmup: SimDuration,
    ) -> WindowMetrics {
        self.run(arrivals, window, warmup, &ServingCarry::default(), None)
    }

    /// Simulates one epoch of continuous serving: the system is restored
    /// from `carry` (the previous epoch's boundary snapshot), served for
    /// `epoch`, and snapshotted again at the horizon — no warmup, no drain,
    /// no cold start. Requests crossing the boundary keep their identity:
    /// a completion in this epoch of a request carried from the last one is
    /// measured with its full seam-spanning latency, and the energy of a
    /// service interval straddling the boundary is split exactly at it.
    ///
    /// Per epoch the conservation law
    /// `carry.backlog() + arrived == served + dropped + next.backlog()`
    /// holds exactly. It is checked on every epoch, release builds
    /// included: a violation is reported in
    /// [`WindowMetrics::conservation_leak`] (debug builds also halt).
    ///
    /// If the deployment changed since the carry was taken (the control
    /// plane applied a reconfiguration at the boundary), carried in-flight
    /// requests rejoin the queue — oldest first, ahead of the waiting
    /// requests — and restart service on the new instances.
    pub fn run_epoch_continuous(
        &mut self,
        arrivals: &mut dyn ArrivalProcess,
        epoch: SimDuration,
        mut carry: ServingCarry,
    ) -> (WindowMetrics, ServingCarry) {
        carry.rebind(&self.deployment);
        let mut out = ServingCarry {
            deployment: Some(self.deployment.clone()),
            ..ServingCarry::default()
        };
        let metrics = self.run(arrivals, epoch, SimDuration::ZERO, &carry, Some(&mut out));
        (metrics, out)
    }

    /// One kernel run over the whole deployment on the window's own
    /// streams: the classic window (`carry_out: None`) or the continuous
    /// epoch. Its carry keeps the kernel's pop order.
    fn run(
        &mut self,
        arrivals: &mut dyn ArrivalProcess,
        window: SimDuration,
        warmup: SimDuration,
        restore: &ServingCarry,
        carry_out: Option<&mut ServingCarry>,
    ) -> WindowMetrics {
        let window_rng = self.rng.fork(0x5e7);
        let spec = self.deployment.instances();
        assert!(!spec.is_empty(), "deployment with no instances");
        let scratch = &mut self.scratch;
        scratch.reset(self.family.len());
        scratch.instances.extend(
            spec.into_iter()
                .map(|(v, slice)| Instance::new(&self.family, &self.perf, v, slice)),
        );
        let failures = std::mem::take(&mut self.pending_failures);
        let profiler = self.profiler.as_ref().filter(|_| carry_out.is_some());
        let tally = run_kernel(
            scratch,
            KernelRun {
                restore,
                arrivals: Live {
                    process: &mut *arrivals,
                    rng: window_rng.substream(stream::ARRIVALS),
                },
                failures: &failures,
                service_rng: window_rng.substream(stream::SERVICE),
                warmup,
                window,
                carry_out,
                profiler,
            },
        );
        tally.into_metrics(
            window.as_secs(),
            self.static_energy_j(&failures, warmup, window),
            self.scratch.hist.clone(),
            self.scratch.per_variant.clone(),
        )
    }

    /// Per-GPU static energy over the measured span, each failure's dead
    /// GPUs credited from its instant.
    fn static_energy_j(
        &self,
        failures: &[InstanceFailure],
        warmup: SimDuration,
        window: SimDuration,
    ) -> f64 {
        let warmup_end = SimTime::ZERO + warmup;
        let warmup_end_s = warmup_end.as_secs();
        let horizon_s = (warmup_end + window).as_secs();
        let span_s = window.as_secs();
        let static_w = self.perf.power.gpu_static_w();
        let mut j = static_w * self.deployment.n_gpus() as f64 * span_s;
        for f in failures {
            let dead_s = (horizon_s - f.at_s.max(warmup_end_s)).max(0.0);
            j -= static_w * f.gpus as f64 * dead_s.min(span_s);
        }
        j.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_mig::MigConfig;
    use clover_models::zoo::efficientnet;

    fn quick_window(
        deployment: Deployment,
        rate: f64,
        secs: f64,
        seed: u64,
    ) -> (WindowMetrics, ModelFamily) {
        let fam = efficientnet();
        let mut sim = ServingSim::new(fam.clone(), PerfModel::a100(), deployment, seed);
        let w = sim.run_window(
            rate,
            SimDuration::from_secs(secs),
            SimDuration::from_secs(secs * 0.1),
        );
        (w, fam)
    }

    /// Fixed window-local arrival times, then no more arrivals.
    struct FixedArrivals(std::vec::IntoIter<f64>);

    impl FixedArrivals {
        fn new(times: Vec<f64>) -> Self {
            FixedArrivals(times.into_iter())
        }
    }

    impl ArrivalProcess for FixedArrivals {
        fn next_after(&mut self, _now: SimTime, _rng: &mut SimRng) -> Option<SimTime> {
            self.0.next().map(SimTime::from_secs)
        }
    }

    #[test]
    fn conservation_served_plus_dropped_le_arrived() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        let (w, _) = quick_window(d, 50.0, 30.0, 1);
        assert!(w.served + w.dropped <= w.arrived + 1);
        assert!(w.served > 0);
        let per_variant_total: u64 = w.per_variant_served.iter().sum();
        assert_eq!(per_variant_total, w.served);
    }

    #[test]
    fn light_load_latency_is_service_time() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 4);
        let perf = PerfModel::a100();
        let expect = perf
            .service_time(fam.largest(), clover_mig::SliceType::G7)
            .as_secs();
        let (w, _) = quick_window(d, 5.0, 60.0, 2);
        assert!(
            (w.latency_hist.mean() - expect).abs() / expect < 0.1,
            "mean {} expect {}",
            w.latency_hist.mean(),
            expect
        );
        assert!(w.dropped == 0);
    }

    #[test]
    fn heavy_load_queues() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let cap = perf.capacity_rps(fam.largest(), clover_mig::SliceType::G7) * 2.0;
        let d = Deployment::base(&fam, 2);
        // 95% utilization: latency well above bare service time.
        let (w, _) = quick_window(d, cap * 0.95, 120.0, 3);
        let service = 1.0 / (cap / 2.0);
        let p95 = w.p95_latency_s().expect("served");
        assert!(p95 > service * 1.5, "p95 {p95} vs service {service}");
    }

    #[test]
    fn overload_saturates_and_drops() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let cap = perf.capacity_rps(fam.largest(), clover_mig::SliceType::G7);
        let d = Deployment::base(&fam, 1);
        let mut sim = ServingSim::new(fam.clone(), perf, d, 4);
        let span = SimDuration::from_secs(120.0);
        let w = sim.run_window(cap * 3.0, span, SimDuration::from_secs(0.0));
        // Latency far above service time.
        assert!(w.p95_latency_s().expect("served") > 1.0 / cap * 5.0);
        // Throughput pinned at capacity: an epoch completes no more than
        // capacity allows within it.
        let mut p = clover_workload::PoissonProcess::new(cap * 3.0);
        let (epoch, _) = sim.run_epoch_continuous(&mut p, span, ServingCarry::default());
        assert!((epoch.served as f64) < cap * 1.1 * span.as_secs());
    }

    #[test]
    fn deterministic_given_seed() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        let (a, _) = quick_window(d.clone(), 100.0, 20.0, 7);
        let (b, _) = quick_window(d, 100.0, 20.0, 7);
        assert_eq!(a.served, b.served);
        assert_eq!(a.p95_latency_s(), b.p95_latency_s());
        assert_eq!(a.dynamic_energy_j, b.dynamic_energy_j);
    }

    #[test]
    fn energy_components_positive_and_bounded() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        let (w, _) = quick_window(d, 100.0, 30.0, 9);
        assert!(w.dynamic_energy_j > 0.0);
        assert!(w.static_energy_j > 0.0);
        assert!(w.idle_energy_j >= 0.0);
        // Sanity: total power below 2 GPUs at peak.
        let peak = PerfModel::a100().power.peak_w() * 2.0;
        assert!(w.it_energy_j() / w.span_s <= peak * 1.01);
        assert!(w.energy_per_request_j().unwrap() > 0.0);
    }

    #[test]
    fn mixed_deployment_serves_mixture() {
        let fam = efficientnet();
        // Half B1 on 1g, half B7 on 7g: two GPUs, one C19 + one C1.
        let p = clover_mig::Partitioning::new(vec![MigConfig::new(19), MigConfig::new(1)]);
        let mut variants = vec![VariantId(0); 7];
        variants.push(VariantId(3));
        let d = Deployment::new(&fam, p, variants).unwrap();
        let (w, fam) = quick_window(d, 300.0, 30.0, 11);
        let acc = w.accuracy_pct(&fam).unwrap();
        assert!(acc > 79.1 && acc < 84.3, "mixture accuracy {acc}");
        assert!(w.per_variant_served[0] > 0);
        assert!(w.per_variant_served[3] > 0);
    }

    #[test]
    fn poisson_process_path_is_identical_to_legacy_rate_path() {
        // The rate-based API is a thin wrapper over run_window_with with a
        // PoissonProcess; both APIs must yield bit-identical windows so the
        // default scenario cannot drift from the generic path.
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        let mut a = ServingSim::new(fam.clone(), PerfModel::a100(), d.clone(), 7);
        let mut b = ServingSim::new(fam.clone(), PerfModel::a100(), d, 7);
        let window = SimDuration::from_secs(20.0);
        let warmup = SimDuration::from_secs(2.0);
        let wa = a.run_window(100.0, window, warmup);
        let mut p = clover_workload::PoissonProcess::new(100.0);
        let wb = b.run_window_with(&mut p, window, warmup);
        assert_eq!(wa.arrived, wb.arrived);
        assert_eq!(wa.served, wb.served);
        assert_eq!(wa.p95_latency_s(), wb.p95_latency_s());
        assert_eq!(wa.dynamic_energy_j, wb.dynamic_energy_j);
    }

    #[test]
    fn workload_windows_run_and_are_seed_deterministic() {
        use clover_workload::{Workload, WorkloadKind};
        let fam = efficientnet();
        for kind in [
            WorkloadKind::diurnal(),
            WorkloadKind::mmpp(),
            WorkloadKind::flash_crowd(),
        ] {
            let wl = Workload::new(kind, 120.0);
            let run = |seed: u64| {
                let mut sim = ServingSim::new(
                    fam.clone(),
                    PerfModel::a100(),
                    Deployment::base(&fam, 2),
                    seed,
                );
                let mut p = wl.process_from(SimTime::from_hours(1.0));
                sim.run_window_with(
                    p.as_mut(),
                    SimDuration::from_secs(30.0),
                    SimDuration::from_secs(3.0),
                )
            };
            let a = run(5);
            let b = run(5);
            let c = run(6);
            assert!(a.served > 0, "{}: nothing served", wl.label());
            assert_eq!(a.served, b.served, "{}", wl.label());
            assert_eq!(a.p95_latency_s(), b.p95_latency_s(), "{}", wl.label());
            assert_ne!(
                (a.arrived, a.dynamic_energy_j),
                (c.arrived, c.dynamic_energy_j),
                "{}: seed 6 repeated seed 5 exactly",
                wl.label()
            );
        }
    }

    #[test]
    fn trace_replay_window_arrivals_are_exact() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        // 40 arrivals inside the measured span (warmup 2 s, window 20 s).
        let times: Vec<f64> = (0..40).map(|i| 2.5 + i as f64 * 0.45).collect();
        let mut sim = ServingSim::new(fam, PerfModel::a100(), d, 9);
        let mut p = FixedArrivals::new(times);
        let w = sim.run_window_with(
            &mut p,
            SimDuration::from_secs(20.0),
            SimDuration::from_secs(2.0),
        );
        assert_eq!(w.arrived, 40);
        assert_eq!(w.served, 40);
        assert_eq!(w.dropped, 0);
    }

    #[test]
    fn reseeded_reused_sim_matches_fresh_sim() {
        // One simulator reused across differently seeded windows (warm
        // scratch) must reproduce a cold simulator bit for bit — the
        // property that lets the evaluator keep a single sim instance.
        let fam = std::sync::Arc::new(efficientnet());
        let d = Deployment::base(&fam, 2);
        let window = SimDuration::from_secs(20.0);
        let warmup = SimDuration::from_secs(2.0);
        let mut reused = ServingSim::new(fam.clone(), PerfModel::a100(), d.clone(), 1);
        reused.run_window(
            80.0,
            SimDuration::from_secs(10.0),
            SimDuration::from_secs(1.0),
        );
        reused.reseed(42);
        let a = reused.run_window(100.0, window, warmup);
        let mut fresh = ServingSim::new(fam, PerfModel::a100(), d, 42);
        let b = fresh.run_window(100.0, window, warmup);
        assert_eq!(a.arrived, b.arrived);
        assert_eq!(a.served, b.served);
        assert_eq!(a.p95_latency_s(), b.p95_latency_s());
        assert_eq!(a.dynamic_energy_j, b.dynamic_energy_j);
        assert_eq!(a.per_variant_served, b.per_variant_served);
        assert_eq!(a.sim_events, b.sim_events);
        assert!(a.sim_events > 0);
    }

    #[test]
    fn silent_window_has_no_p95() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 1);
        let mut sim = ServingSim::new(fam, PerfModel::a100(), d, 3);
        // The only arrival lies far past the horizon: nothing is served.
        let mut p = FixedArrivals::new(vec![500.0]);
        let w = sim.run_window_with(
            &mut p,
            SimDuration::from_secs(20.0),
            SimDuration::from_secs(2.0),
        );
        assert_eq!(w.served, 0);
        assert_eq!(
            w.p95_latency_s(),
            None,
            "a zero-served window must not report a tail latency"
        );
    }

    #[test]
    fn continuous_epochs_conserve_requests_across_every_boundary() {
        // Offered load just above capacity: a backlog builds and crosses
        // every epoch boundary. The conservation law must close exactly.
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let cap = perf.capacity_rps(fam.largest(), clover_mig::SliceType::G7) * 2.0;
        let d = Deployment::base(&fam, 2);
        let mut sim = ServingSim::new(fam, perf, d, 5);
        let epoch = SimDuration::from_secs(30.0);
        let mut carry = ServingCarry::default();
        let mut seam_seen = false;
        for _ in 0..4 {
            let carried_in = carry.backlog();
            let mut p = clover_workload::PoissonProcess::new(cap * 1.2);
            let (w, next) = sim.run_epoch_continuous(&mut p, epoch, carry);
            assert_eq!(
                carried_in + w.arrived,
                w.served + w.dropped + next.backlog(),
                "a request vanished or double-counted at the seam"
            );
            seam_seen |= next.backlog() > 0;
            carry = next;
        }
        assert!(seam_seen, "overload never built a cross-boundary backlog");
        assert!(
            carry.in_flight() > 0,
            "saturated system should be mid-service"
        );
    }

    #[test]
    fn carried_requests_keep_their_seam_spanning_latency() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let cap = perf.capacity_rps(fam.largest(), clover_mig::SliceType::G7);
        let d = Deployment::base(&fam, 1);
        let mut sim = ServingSim::new(fam, perf, d, 3);
        let epoch = SimDuration::from_secs(10.0);
        // A burst at the epoch's opening worth ~1.5 epochs of service on a
        // single instance: the queue outlives the epoch, so completions
        // land in the next one.
        let n = (cap * 15.0).ceil() as usize;
        let times: Vec<f64> = (0..n).map(|i| 0.01 + i as f64 * (2.0 / n as f64)).collect();
        let mut p1 = FixedArrivals::new(times);
        let (w1, carry) = sim.run_epoch_continuous(&mut p1, epoch, ServingCarry::default());
        assert!(carry.backlog() > 0, "burst should outlive its epoch");
        assert!(w1.served < w1.arrived);
        // Second epoch is silent: everything served there was carried in,
        // and its measured latency spans the seam (> one full epoch).
        let mut p2 = FixedArrivals::new(vec![500.0]);
        let (w2, _) = sim.run_epoch_continuous(&mut p2, epoch, carry);
        assert_eq!(w2.arrived, 0);
        assert!(w2.served > 0, "carried work must complete next epoch");
        assert!(
            w2.latency_hist.max() > epoch.as_secs(),
            "seam-spanning latency {} not measured end to end",
            w2.latency_hist.max()
        );
    }

    #[test]
    fn reconfiguration_at_the_boundary_requeues_in_flight_work() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let cap = perf.capacity_rps(fam.largest(), clover_mig::SliceType::G7) * 2.0;
        let mut sim = ServingSim::new(fam.clone(), perf, Deployment::base(&fam, 2), 9);
        let epoch = SimDuration::from_secs(20.0);
        let mut p1 = clover_workload::PoissonProcess::new(cap * 1.5);
        let (_, carry) = sim.run_epoch_continuous(&mut p1, epoch, ServingCarry::default());
        let carried_in = carry.backlog();
        assert!(carry.in_flight() > 0);
        // Reconfigure at the boundary: the carry no longer matches the
        // deployment, so in-flight work rejoins the queue — conserved, not
        // dropped.
        sim.set_deployment(Deployment::co2opt(&fam, 2));
        let mut p2 = clover_workload::PoissonProcess::new(cap * 0.2);
        let (w2, next) = sim.run_epoch_continuous(&mut p2, epoch, carry);
        assert_eq!(
            carried_in + w2.arrived,
            w2.served + w2.dropped + next.backlog(),
            "reconfiguration leaked carried work"
        );
    }

    #[test]
    fn cold_continuous_epoch_agrees_with_the_classic_window() {
        // Same seed, same arrivals: the continuous path differs from the
        // classic cold-start window only at the tail (it carries instead of
        // draining), so arrivals match exactly and served counts differ by
        // at most the boundary backlog.
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        let epoch = SimDuration::from_secs(30.0);
        let mut classic = ServingSim::new(fam.clone(), PerfModel::a100(), d.clone(), 11);
        let mut p = clover_workload::PoissonProcess::new(150.0);
        let w_classic = classic.run_window_with(&mut p, epoch, SimDuration::ZERO);
        let mut cont = ServingSim::new(fam, PerfModel::a100(), d, 11);
        let mut p2 = clover_workload::PoissonProcess::new(150.0);
        let (w_cont, carry) = cont.run_epoch_continuous(&mut p2, epoch, ServingCarry::default());
        assert_eq!(w_classic.arrived, w_cont.arrived);
        assert_eq!(w_classic.dropped, w_cont.dropped);
        // Classic: arrived = served (drained past the horizon) + dropped.
        // Continuous: arrived = served (in span) + dropped + backlog.
        assert_eq!(
            w_cont.served + carry.backlog(),
            w_classic.served,
            "classic drain vs carry must partition the same arrivals"
        );
    }

    #[test]
    fn continuous_epochs_are_seed_deterministic() {
        let fam = efficientnet();
        let run = |seed: u64| {
            let mut sim = ServingSim::new(
                fam.clone(),
                PerfModel::a100(),
                Deployment::base(&fam, 2),
                seed,
            );
            let mut carry = ServingCarry::default();
            let mut out = Vec::new();
            for _ in 0..3 {
                let mut p = clover_workload::PoissonProcess::new(220.0);
                let (w, next) =
                    sim.run_epoch_continuous(&mut p, SimDuration::from_secs(25.0), carry);
                out.push((w.served, w.dropped, w.p95_latency_s(), w.dynamic_energy_j));
                carry = next;
            }
            (out, carry.backlog())
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a, c, "seed 8 repeated seed 7 exactly");
    }

    #[test]
    fn instance_failure_requeues_in_flight_work_and_conserves_requests() {
        let fam = efficientnet();
        let perf = PerfModel::a100();
        let cap = perf.capacity_rps(fam.largest(), clover_mig::SliceType::G7) * 2.0;
        let mut sim = ServingSim::new(fam.clone(), perf, Deployment::base(&fam, 2), 21);
        let epoch = SimDuration::from_secs(30.0);
        // Kill one of the two instances (one full GPU) mid-epoch.
        sim.set_window_failures(vec![InstanceFailure {
            at_s: 10.0,
            instances: vec![0],
            gpus: 1,
        }]);
        let mut p = clover_workload::PoissonProcess::new(cap * 0.9);
        let (w, carry) = sim.run_epoch_continuous(&mut p, epoch, ServingCarry::default());
        assert_eq!(w.fault_kills, 1);
        assert_eq!(w.fault_requeued, 1, "the busy instance's work re-queues");
        assert_eq!(w.conservation_leak, 0);
        assert_eq!(
            w.arrived,
            w.served + w.dropped + carry.backlog(),
            "failure leaked a request"
        );
        // The survivor alone cannot keep up with 90% of two-instance
        // capacity: a backlog builds.
        assert!(carry.backlog() > 0, "half-dead fleet should fall behind");
        // Reference run without the failure: identical seed, more served.
        let mut reference = ServingSim::new(
            fam.clone(),
            PerfModel::a100(),
            Deployment::base(&fam, 2),
            21,
        );
        let mut p2 = clover_workload::PoissonProcess::new(cap * 0.9);
        let (w_ok, _) = reference.run_epoch_continuous(&mut p2, epoch, ServingCarry::default());
        assert!(w_ok.served > w.served);
        // Dead capacity stops burning: less static+idle energy than the
        // healthy run over the same span.
        assert!(w.static_energy_j < w_ok.static_energy_j);
        // A second failure naming the already-dead instance kills nothing
        // and requeues nothing: the run matches the single-failure one.
        let mut twice = ServingSim::new(
            fam.clone(),
            PerfModel::a100(),
            Deployment::base(&fam, 2),
            21,
        );
        twice.set_window_failures(vec![
            InstanceFailure {
                at_s: 10.0,
                instances: vec![0],
                gpus: 1,
            },
            InstanceFailure {
                at_s: 15.0,
                instances: vec![0],
                gpus: 0,
            },
        ]);
        let mut p3 = clover_workload::PoissonProcess::new(cap * 0.9);
        let (w2, carry2) = twice.run_epoch_continuous(&mut p3, epoch, ServingCarry::default());
        assert_eq!(w2.fault_kills, 1, "a dead instance cannot die again");
        assert_eq!(w2.fault_requeued, 1);
        assert_eq!(w2.served, w.served);
        assert_eq!(w2.dropped, w.dropped);
        assert_eq!(w2.dynamic_energy_j, w.dynamic_energy_j);
        assert_eq!(carry2.backlog(), carry.backlog());
    }

    #[test]
    fn fully_dead_fleet_queues_then_sheds_without_deadlock() {
        let fam = efficientnet();
        let mut sim = ServingSim::new(
            fam.clone(),
            PerfModel::a100(),
            Deployment::base(&fam, 2),
            33,
        );
        let epoch = SimDuration::from_secs(20.0);
        // Everything dies at the window's opening instant.
        sim.set_window_failures(vec![InstanceFailure {
            at_s: 0.0,
            instances: vec![0, 1],
            gpus: 2,
        }]);
        let mut p = clover_workload::PoissonProcess::new(200.0);
        let (w, carry) = sim.run_epoch_continuous(&mut p, epoch, ServingCarry::default());
        assert_eq!(w.served, 0, "a dead fleet serves nothing");
        assert_eq!(w.conservation_leak, 0);
        assert_eq!(w.arrived, w.dropped + carry.backlog());
        assert_eq!(
            carry.backlog() as usize,
            carry.queued(),
            "nothing in flight"
        );
        assert!(carry.backlog() > 0, "arrivals must queue, not vanish");
    }

    #[test]
    fn an_arrival_tied_with_a_fault_lands_after_it() {
        // The arrival is held beside the event queue, yet ties still break
        // by insertion: the fault was scheduled before the first arrival
        // was drawn, so at the same instant it pops first and the request
        // finds the fleet already dead.
        let fam = efficientnet();
        let mut sim = ServingSim::new(fam.clone(), PerfModel::a100(), Deployment::base(&fam, 1), 3);
        sim.set_window_failures(vec![InstanceFailure {
            at_s: 5.0,
            instances: vec![0],
            gpus: 1,
        }]);
        let mut p = FixedArrivals::new(vec![5.0]);
        let (w, carry) = sim.run_epoch_continuous(
            &mut p,
            SimDuration::from_secs(10.0),
            ServingCarry::default(),
        );
        assert_eq!(w.arrived, 1);
        assert_eq!(w.fault_kills, 1);
        assert_eq!(
            w.fault_requeued, 0,
            "the arrival was served before the fault"
        );
        assert_eq!(carry.queued(), 1);
    }

    #[test]
    fn classic_window_with_a_dead_fleet_drops_what_it_cannot_serve() {
        let fam = efficientnet();
        let mut sim = ServingSim::new(
            fam.clone(),
            PerfModel::a100(),
            Deployment::base(&fam, 2),
            33,
        );
        sim.set_window_failures(vec![InstanceFailure {
            at_s: 0.0,
            instances: vec![0, 1],
            gpus: 2,
        }]);
        let w = sim.run_window(
            200.0,
            SimDuration::from_secs(20.0),
            SimDuration::from_secs(2.0),
        );
        assert!(w.arrived > 0);
        assert_eq!(w.served, 0, "a dead fleet serves nothing");
        assert_eq!(
            w.dropped, w.arrived,
            "measured requests left waiting at the end of the drain must count as dropped"
        );
        assert_eq!(w.conservation_leak, 0);
    }

    #[test]
    fn empty_failure_schedule_is_bit_identical_to_no_schedule() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        let mut a = ServingSim::new(fam.clone(), PerfModel::a100(), d.clone(), 7);
        a.set_window_failures(Vec::new());
        let mut b = ServingSim::new(fam, PerfModel::a100(), d, 7);
        let wa = a.run_window(
            100.0,
            SimDuration::from_secs(20.0),
            SimDuration::from_secs(2.0),
        );
        let wb = b.run_window(
            100.0,
            SimDuration::from_secs(20.0),
            SimDuration::from_secs(2.0),
        );
        assert_eq!(wa.arrived, wb.arrived);
        assert_eq!(wa.served, wb.served);
        assert_eq!(wa.p95_latency_s(), wb.p95_latency_s());
        assert_eq!(wa.dynamic_energy_j, wb.dynamic_energy_j);
        assert_eq!(wa.idle_energy_j, wb.idle_energy_j);
        assert_eq!(wa.static_energy_j, wb.static_energy_j);
        assert_eq!(wa.sim_events, wb.sim_events);
    }

    #[test]
    fn failure_schedule_is_consumed_by_one_window() {
        let fam = efficientnet();
        let mut sim = ServingSim::new(fam.clone(), PerfModel::a100(), Deployment::base(&fam, 2), 5);
        sim.set_window_failures(vec![InstanceFailure {
            at_s: 1.0,
            instances: vec![0],
            gpus: 1,
        }]);
        let w1 = sim.run_window(50.0, SimDuration::from_secs(10.0), SimDuration::ZERO);
        assert_eq!(w1.fault_kills, 1);
        let w2 = sim.run_window(50.0, SimDuration::from_secs(10.0), SimDuration::ZERO);
        assert_eq!(
            w2.fault_kills, 0,
            "schedule must not leak into later windows"
        );
    }

    #[test]
    fn co2opt_uses_less_energy_per_request_than_base() {
        let fam = efficientnet();
        let (base, _) = quick_window(Deployment::base(&fam, 2), 200.0, 30.0, 13);
        let (co2, _) = quick_window(Deployment::co2opt(&fam, 2), 200.0, 30.0, 13);
        let e_base = base.energy_per_request_j().unwrap();
        let e_co2 = co2.energy_per_request_j().unwrap();
        assert!(
            e_co2 < e_base * 0.5,
            "co2opt {e_co2} J/req vs base {e_base} J/req"
        );
    }
}

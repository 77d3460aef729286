//! Intra-epoch sharding of the continuous DES — the engine that lets a
//! *single* `FullEpoch` cell use every core.
//!
//! # Model
//!
//! The classic continuous path ([`ServingSim::run_epoch_continuous`] with
//! the default shard count of 1) is one producer feeding one FIFO in front
//! of all instances. With `K ≥ 2` shards the epoch instead runs as a
//! **sharded-producer** system, the standard scale-out of the paper's
//! load-balancer architecture: the instances are striped across `K` shards
//! (instance `i` → shard `i mod K`, so heterogeneous slices spread evenly),
//! and every incoming request — carried queue entries first, then the
//! epoch's arrivals — is routed to a shard by a deterministic smooth
//! weighted round-robin whose weights are each shard's service capacity
//! `Σ 1/mean_service_s`. Each shard then runs the simulator's one DES
//! kernel over its own queue, idle list, and event heap; the unsharded
//! epoch is that same kernel run once over every instance.
//!
//! Sharded physics is *not* bit-identical to the 1-shard queue (a K-sharded
//! system has K queues; the paper's single-queue results keep the default
//! of 1), but it is a faithful serving model in its own right, and the
//! conservation law holds per shard: every seam reported in
//! [`WindowMetrics::shard_seams`] closes
//! `carried_in + arrived == served + dropped + carried_out` exactly.
//!
//! # Determinism
//!
//! Everything random is decided *before* the shards run: the arrival
//! sequence is pre-drawn from the window's arrival substream (consuming the
//! process and RNG exactly as the unsharded kernel would), the split is a
//! pure function of the sequence and the deployment, and each shard owns an
//! independent service substream
//! (`window.substream(SERVICE).substream(SHARD_SERVICE + k)`). Shards are
//! executed with [`par_map`], which deposits results at submission index,
//! and the merge folds them in shard order — so the output is byte-identical
//! for *any* worker-thread count, including 1. `tests/sharding.rs` pins
//! this across `CLOVER_THREADS ∈ {1,2,4,8}` and shard counts `{1,2,4}` for
//! all five schemes.

use super::*;
use clover_simkit::{default_threads, par_map};

/// Boundary accounting of one shard of a sharded continuous epoch. Each
/// seam closes the conservation law on its own:
/// `carried_in + arrived == served + dropped + carried_out`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSeam {
    /// Shard index (0-based, `< shard count`).
    pub shard: u32,
    /// Requests restored into this shard at the epoch's opening boundary
    /// (in-flight on its instances plus its share of the carried queue).
    pub carried_in: u64,
    /// Requests the split routed to this shard during the epoch.
    pub arrived: u64,
    /// Requests this shard completed within the epoch.
    pub served: u64,
    /// Requests this shard shed at its queue bound.
    pub dropped: u64,
    /// Requests still inside this shard at the closing boundary.
    pub carried_out: u64,
}

impl ShardSeam {
    /// Signed conservation residual of this seam; 0 unless the bookkeeping
    /// itself is broken.
    pub fn leak(&self) -> i64 {
        (self.carried_in + self.arrived) as i64
            - (self.served + self.dropped + self.carried_out) as i64
    }
}

/// Everything one shard needs to run, prepared serially by the split so
/// the parallel phase shares nothing mutable. Instance indices in
/// `restore` and `failures` are local to the shard's stripe.
struct ShardTask {
    shard: u32,
    /// Pooled scratch with this shard's instance table loaded.
    scratch: SimScratch,
    /// In-flight work on this shard's instances plus its share of the
    /// carried queue.
    restore: ServingCarry,
    /// This shard's share of the epoch's pre-drawn arrivals, ascending.
    arrivals: Vec<SimTime>,
    /// Mid-epoch failures of this shard's instances; their static-GPU
    /// credit is accounted once for the whole fleet.
    failures: Vec<InstanceFailure>,
    service_rng: SimRng,
}

/// Smooth weighted round-robin: each pick adds every shard's weight to its
/// credit, takes the highest credit (ties to the lowest index), and charges
/// the winner the total weight. Deterministic, starvation-free, and
/// proportional to capacity over any window of picks.
fn wrr_pick(credit: &mut [f64], weights: &[f64], total: f64) -> usize {
    for (c, w) in credit.iter_mut().zip(weights) {
        *c += w;
    }
    let mut best = 0;
    for s in 1..credit.len() {
        if credit[s] > credit[best] {
            best = s;
        }
    }
    credit[best] -= total;
    best
}

/// The arrivals up to `horizon`, drawn up front. Consumes the process and
/// its RNG exactly as the live kernel would: one draw past the horizon
/// ends the chain there too.
fn predraw(arrivals: &mut dyn ArrivalProcess, rng: &mut SimRng, horizon: SimTime) -> Vec<SimTime> {
    let mut times = Vec::new();
    let mut prev = SimTime::ZERO;
    while let Some(t) = arrivals.next_after(prev, rng) {
        if t > horizon {
            break;
        }
        times.push(t);
        prev = t;
    }
    times
}

impl ServingSim {
    /// The sharded continuous epoch: split deterministically, run the
    /// kernel per shard on a [`par_map`] pool, merge in shard order. Called
    /// by [`ServingSim::run_epoch_continuous`] when 2+ shards are
    /// configured and the deployment has 2+ instances (`k` is the
    /// effective count, already clamped).
    pub(super) fn run_epoch_sharded(
        &mut self,
        arrivals: &mut dyn ArrivalProcess,
        epoch: SimDuration,
        mut carry: ServingCarry,
        k: usize,
    ) -> (WindowMetrics, ServingCarry) {
        // Same window-stream discipline as the unsharded kernel: one fork
        // off the root (so the simulator's RNG evolves identically whatever
        // the shard count), arrival and service substreams derived from it.
        let window_rng = self.rng.fork(0x5e7);
        let mut arrival_rng = window_rng.substream(stream::ARRIVALS);
        let service_root = window_rng.substream(stream::SERVICE);
        let horizon = SimTime::ZERO + epoch;

        let profiler = self.profiler.clone();
        let split_scope = profiler.as_ref().map(|p| p.scope(Phase::Carry));

        let arrival_times = predraw(arrivals, &mut arrival_rng, horizon);

        // Stripe the instances across shards into pooled scratches.
        let spec = self.deployment.instances();
        let m = spec.len();
        debug_assert!(k >= 2 && k <= m);
        let mut weights = Vec::with_capacity(k);
        let mut tasks: Vec<ShardTask> = (0..k)
            .map(|s| {
                let (scratch, capacity) = self.stripe_scratch(&spec, s, k);
                weights.push(capacity);
                ShardTask {
                    shard: s as u32,
                    scratch,
                    restore: ServingCarry::default(),
                    arrivals: Vec::new(),
                    failures: Vec::new(),
                    service_rng: service_root.substream(stream::SHARD_SERVICE + s as u64),
                }
            })
            .collect();

        // Restore the carry: in-flight work goes home to the shard owning
        // its instance; the queue joins the split, oldest first.
        carry.rebind(&self.deployment);
        for r in &carry.in_flight {
            tasks[r.instance as usize % k]
                .restore
                .in_flight
                .push(CarriedRequest {
                    instance: r.instance / k as u32,
                    ..*r
                });
        }

        // Route the incoming sequence — carried queue first, then arrivals,
        // both in order — through the capacity-weighted round-robin.
        let total_w: f64 = weights.iter().sum();
        let mut credit = vec![0.0f64; k];
        for &age in &carry.queue_ages_s {
            tasks[wrr_pick(&mut credit, &weights, total_w)]
                .restore
                .queue_ages_s
                .push(age);
        }
        for t in arrival_times {
            tasks[wrr_pick(&mut credit, &weights, total_w)]
                .arrivals
                .push(t);
        }

        // Scope each failure to the shards owning its instances.
        let failures = std::mem::take(&mut self.pending_failures);
        for f in &failures {
            for (s, task) in tasks.iter_mut().enumerate() {
                let local: Vec<u32> = f
                    .instances
                    .iter()
                    .filter(|&&i| (i as usize) < m && (i as usize) % k == s)
                    .map(|&i| i / k as u32)
                    .collect();
                if !local.is_empty() {
                    task.failures.push(InstanceFailure {
                        at_s: f.at_s,
                        instances: local,
                        gpus: 0,
                    });
                }
            }
        }
        drop(split_scope);

        // The parallel phase: pure, share-nothing kernel runs; results
        // deposited at submission index, so thread count cannot reorder
        // the merge below.
        let threads = self
            .shard_threads
            .unwrap_or_else(default_threads)
            .clamp(1, k);
        let max_queue = (MAX_QUEUE / k).max(1);
        let results = par_map(tasks, threads, |mut task| {
            let mut out = ServingCarry::default();
            let tally = run_kernel(
                &mut task.scratch,
                KernelRun {
                    shard: task.shard,
                    stride: k as u32,
                    restore: &task.restore,
                    arrivals: task.arrivals.into_iter(),
                    failures: &task.failures,
                    service_rng: task.service_rng,
                    max_queue,
                    warmup: SimDuration::ZERO,
                    window: epoch,
                    carry_out: Some(&mut out),
                    profiler: None,
                },
            );
            (task.scratch, tally, out)
        });

        // Order-preserving merge, timed as carry work like the unsharded
        // boundary snapshot.
        let merge_scope = profiler.as_ref().map(|p| p.scope(Phase::Carry));
        let mut total = Tally::default();
        let mut hist = LatencyHistogram::for_latency();
        let mut per_variant = vec![0u64; self.family.len()];
        let mut seams: Vec<ShardSeam> = Vec::with_capacity(k);
        let mut out = ServingCarry {
            deployment: Some(self.deployment.clone()),
            ..ServingCarry::default()
        };
        for (s, (scratch, tally, shard_out)) in results.into_iter().enumerate() {
            total.add(&tally);
            seams.push(tally.seam(s as u32));
            hist.merge(&scratch.hist);
            for (acc, &v) in per_variant.iter_mut().zip(&scratch.per_variant) {
                *acc += v;
            }
            out.in_flight.extend(shard_out.in_flight);
            out.queue_ages_s.extend(shard_out.queue_ages_s);
            self.pool.push(scratch);
        }
        // Canonical carry order: in-flight by completion time (remaining
        // service, ties by instance) — the order the unsharded snapshot
        // produces — and the queue oldest-first.
        out.in_flight.sort_by(|a, b| {
            a.remaining_s
                .partial_cmp(&b.remaining_s)
                .expect("finite remaining service")
                .then(a.instance.cmp(&b.instance))
        });
        out.queue_ages_s
            .sort_by(|a, b| b.partial_cmp(a).expect("finite request ages"));

        let metrics = total.into_metrics(
            epoch.as_secs(),
            arrivals.mean_rate(),
            self.static_energy_j(&failures, SimDuration::ZERO, epoch),
            hist,
            per_variant,
            seams,
        );
        drop(merge_scope);
        (metrics, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_models::zoo::efficientnet;
    use clover_models::PerfModel;
    use clover_workload::PoissonProcess;

    fn continuous_run_on(
        gpus: usize,
        shards: usize,
        threads: usize,
        epochs: usize,
    ) -> (Vec<WindowMetrics>, ServingCarry) {
        let fam = efficientnet();
        let d = Deployment::base(&fam, gpus);
        let mut sim = ServingSim::new(fam, PerfModel::a100(), d, 42);
        sim.set_intra_epoch_shards(shards);
        sim.set_shard_threads(Some(threads));
        let mut carry = ServingCarry::default();
        let mut all = Vec::new();
        for _ in 0..epochs {
            let mut p = PoissonProcess::new(400.0);
            let (w, next) = sim.run_epoch_continuous(&mut p, SimDuration::from_secs(30.0), carry);
            carry = next;
            all.push(w);
        }
        (all, carry)
    }

    fn continuous_run(
        shards: usize,
        threads: usize,
        epochs: usize,
    ) -> (Vec<WindowMetrics>, ServingCarry) {
        continuous_run_on(2, shards, threads, epochs)
    }

    fn fingerprint(ws: &[WindowMetrics], carry: &ServingCarry) -> Vec<u64> {
        let mut v = Vec::new();
        for w in ws {
            v.push(w.arrived);
            v.push(w.served);
            v.push(w.dropped);
            v.push(w.mean_latency_s.to_bits());
            v.push(w.p95_latency_s.unwrap_or(0.0).to_bits());
            v.push(w.dynamic_energy_j.to_bits());
            v.push(w.idle_energy_j.to_bits());
            v.push(w.sim_events);
        }
        v.push(carry.backlog());
        for &a in &carry.queue_ages_s {
            v.push(a.to_bits());
        }
        v
    }

    #[test]
    fn sharded_results_are_thread_count_invariant() {
        for shards in [2, 4, 7] {
            let reference = continuous_run(shards, 1, 3);
            let ref_fp = fingerprint(&reference.0, &reference.1);
            for threads in [2, 4, 8] {
                let run = continuous_run(shards, threads, 3);
                assert_eq!(
                    ref_fp,
                    fingerprint(&run.0, &run.1),
                    "shards={shards} threads={threads} diverged from 1 thread"
                );
            }
        }
    }

    #[test]
    fn every_seam_closes_conservation() {
        let (ws, _) = continuous_run_on(4, 4, 2, 4);
        for (e, w) in ws.iter().enumerate() {
            assert_eq!(w.shard_seams.len(), 4, "epoch {e}");
            for seam in &w.shard_seams {
                assert_eq!(seam.leak(), 0, "epoch {e} shard {} leaks", seam.shard);
            }
            assert_eq!(w.conservation_leak, 0, "epoch {e}");
            let arrived: u64 = w.shard_seams.iter().map(|s| s.arrived).sum();
            assert_eq!(arrived, w.arrived, "epoch {e} split lost an arrival");
        }
    }

    #[test]
    fn unsharded_path_reports_no_seams_and_is_untouched() {
        let (ws, _) = continuous_run(1, 4, 2);
        for w in &ws {
            assert!(w.shard_seams.is_empty());
            assert_eq!(w.conservation_leak, 0);
        }
    }

    /// K = 1 is the degenerate shard: the kernel run directly as shard 0 of
    /// 1 — pre-drawn arrivals, as a shard gets them — reproduces the
    /// unsharded epoch bit for bit, carry included, across three carried
    /// epochs with a mid-epoch kill.
    #[test]
    fn kernel_as_a_single_shard_matches_the_unsharded_epoch() {
        let fam = efficientnet();
        let d = Deployment::base(&fam, 2);
        let mut unsharded = ServingSim::new(fam.clone(), PerfModel::a100(), d.clone(), 17);
        let mut direct = ServingSim::new(fam, PerfModel::a100(), d, 17);
        let epoch = SimDuration::from_secs(20.0);
        let mut carry = ServingCarry::default();
        let mut direct_carry = ServingCarry::default();
        let mut kills = 0;
        for e in 0..3 {
            let failures = match e {
                1 => vec![InstanceFailure {
                    at_s: 7.5,
                    instances: vec![1],
                    gpus: 1,
                }],
                _ => Vec::new(),
            };
            unsharded.set_window_failures(failures.clone());
            let (w, next) =
                unsharded.run_epoch_continuous(&mut PoissonProcess::new(380.0), epoch, carry);
            carry = next;
            kills += w.fault_kills;

            let window_rng = direct.rng.fork(0x5e7);
            let mut arrivals = PoissonProcess::new(380.0);
            let times = predraw(
                &mut arrivals,
                &mut window_rng.substream(stream::ARRIVALS),
                SimTime::ZERO + epoch,
            );
            let (mut scratch, _) = direct.stripe_scratch(&direct.deployment.instances(), 0, 1);
            direct_carry.rebind(&direct.deployment);
            let mut out = ServingCarry {
                deployment: Some(direct.deployment.clone()),
                ..ServingCarry::default()
            };
            let tally = run_kernel(
                &mut scratch,
                KernelRun {
                    shard: 0,
                    stride: 1,
                    restore: &direct_carry,
                    arrivals: times.into_iter(),
                    failures: &failures,
                    service_rng: window_rng.substream(stream::SERVICE),
                    max_queue: MAX_QUEUE,
                    warmup: SimDuration::ZERO,
                    window: epoch,
                    carry_out: Some(&mut out),
                    profiler: None,
                },
            );
            let k = tally.into_metrics(
                epoch.as_secs(),
                arrivals.mean_rate(),
                direct.static_energy_j(&failures, SimDuration::ZERO, epoch),
                scratch.hist.clone(),
                scratch.per_variant.clone(),
                Vec::new(),
            );
            direct_carry = out;
            // Debug formatting prints every f64 in round-trip form, so
            // equal strings mean equal bits.
            assert_eq!(format!("{w:?}"), format!("{k:?}"), "epoch {e}");
            assert_eq!(
                format!("{carry:?}"),
                format!("{direct_carry:?}"),
                "epoch {e}"
            );
        }
        assert_eq!(kills, 1, "the mid-epoch kill must land");
        assert!(carry.in_flight() > 0, "work must cross the seams");
    }

    #[test]
    fn sharded_totals_stay_physical() {
        let unsharded = continuous_run(1, 1, 3);
        let sharded = continuous_run(4, 4, 3);
        let total = |ws: &[WindowMetrics]| -> (u64, u64) {
            (
                ws.iter().map(|w| w.arrived).sum(),
                ws.iter().map(|w| w.served).sum(),
            )
        };
        let (a1, s1) = total(&unsharded.0);
        let (a4, s4) = total(&sharded.0);
        // The same pre-drawn arrival stream feeds both engines.
        assert_eq!(a1, a4, "sharding changed the offered load");
        // Different physics, same ballpark: both serve nearly everything
        // at this utilization.
        let diff = (s1 as f64 - s4 as f64).abs() / s1 as f64;
        assert!(diff < 0.05, "served diverged too far: {s1} vs {s4}");
    }

    #[test]
    fn wrr_split_is_proportional_and_deterministic() {
        let weights = [3.0, 1.0];
        let total = 4.0;
        let mut credit = vec![0.0; 2];
        let picks: Vec<usize> = (0..8)
            .map(|_| wrr_pick(&mut credit, &weights, total))
            .collect();
        // 3:1 capacity → six of eight picks to shard 0, evenly interleaved.
        assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 6);
        let mut credit2 = vec![0.0; 2];
        let picks2: Vec<usize> = (0..8)
            .map(|_| wrr_pick(&mut credit2, &weights, total))
            .collect();
        assert_eq!(picks, picks2);
    }
}

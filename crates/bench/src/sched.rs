//! The worker-pool scheduling experiment: what does decoupling shards from
//! OS threads buy?
//!
//! Thread-per-shard (`worker_threads = shards`) is the historical layout:
//! fine partitions past core count mean more threads than cores fighting
//! the scheduler, and a Zipf-skewed workload parks most of them while one
//! melts.  The pooled layout (`worker_threads = cores`) runs exactly as
//! many threads as the host has and places shards on them through the
//! placement table; the hot-shard rebalancer then isolates a sustained-hot
//! shard onto its own worker.  Each configuration runs the same paced
//! open-loop traffic shape as the overload bench and reports committed
//! throughput, so rows are directly comparable.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{Completion, ManagerRuntime, ProtocolVariant, RuntimeOptions, Ticket};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `components` disjoint always-repeatable work pools, exactly as in the
/// overload bench: every `work_k(p)` is independently permissible, so
/// offered load translates directly into service demand and the scheduler
/// is the only variable under test.
fn pools_constraint(components: usize) -> Expr {
    assert!(components >= 1);
    let group = |k: usize| format!("(some p {{ work_{k}(p) }})*");
    let src = (0..components).map(group).collect::<Vec<_>>().join(" @ ");
    parse(&src).expect("generated work-pool constraint")
}

fn work(k: usize, p: i64) -> Action {
    Action::concrete(&format!("work_{k}"), [Value::int(p)])
}

/// Shard-picking distribution of one scheduling run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadShape {
    /// Every shard equally likely.
    Uniform,
    /// Zipf(s = 1.1): the first shard takes the bulk of the traffic.
    Zipf,
}

impl LoadShape {
    /// Stable row label for tables and the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            LoadShape::Uniform => "uniform",
            LoadShape::Zipf => "zipf(1.1)",
        }
    }
}

/// Reproducible shard sampler: uniform or Zipf(1.1) inverse-CDF over a
/// splitmix/xorshift stream.
struct Sampler {
    cdf: Vec<f64>,
    state: u64,
}

impl Sampler {
    fn new(n: usize, shape: LoadShape, seed: u64) -> Sampler {
        let weights: Vec<f64> = match shape {
            LoadShape::Uniform => vec![1.0; n],
            LoadShape::Zipf => (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(1.1)).collect(),
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Sampler { cdf, state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 }
    }

    fn next(&mut self) -> usize {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

/// One measured configuration of the scheduling experiment.
#[derive(Clone, Debug)]
pub struct SchedPoint {
    /// Number of shards (= components) in the constraint.
    pub shards: usize,
    /// The shard-picking distribution.
    pub shape: LoadShape,
    /// Pool size this row ran with (`shards` = the thread-per-shard
    /// baseline).
    pub workers: usize,
    /// Whether the hot-shard rebalancer was running.
    pub rebalance: bool,
    /// Submissions offered across all sessions.
    pub offered: u64,
    /// Commits that executed — all of them; the run awaits every ticket.
    pub committed: u64,
    /// Committed actions per second over offer + drain.
    pub throughput: f64,
    /// Placement moves the rebalancer performed.
    pub rebalances: u64,
    /// The shard the rebalancer last isolated, if any.
    pub isolated: Option<usize>,
    /// Whether the final placement table shows the isolated shard alone on
    /// its worker — the structural witness of "isolate the hot shard onto
    /// its own worker".  That the rebalancer targets the *hottest* shard is
    /// true by construction of its trigger (sustained arg-max of the load
    /// signal) and pinned by the runtime's scheduling tests; it cannot be
    /// read off end-of-run load, which is low on the isolated shard
    /// precisely because the isolation worked.
    pub isolated_alone: bool,
}

/// Outcome of the scheduling experiment: a grid of [`SchedPoint`]s.
#[derive(Clone, Debug)]
pub struct SchedReport {
    /// Worker count used for the "pool = cores" rows.
    pub cores: usize,
    /// One row per measured configuration, in grid order.
    pub points: Vec<SchedPoint>,
}

fn options(workers: usize, rebalance: bool) -> RuntimeOptions {
    RuntimeOptions {
        variant: ProtocolVariant::Combined,
        worker_threads: workers,
        rebalance_every: rebalance.then(|| Duration::from_millis(5)),
        // The admission gate is unbounded here, so per-shard heat shows up
        // in the queue-wait EWMA, not the (never charged) depth counters.
        queue_metrics: true,
        ..RuntimeOptions::default()
    }
}

/// How many work items one scheduling run offers.
#[derive(Clone, Copy, Debug)]
pub enum Offers {
    /// Exactly this many across the sessions; every ticket is awaited
    /// after the last offer.
    Total(u64),
    /// Until the rebalancer has isolated a shard or the deadline passes, so
    /// the skew lasts as long as the rebalancer needs on any host.  A
    /// session awaits its oldest ticket once [`UNTIL_IN_FLIGHT`] are
    /// outstanding, which bounds memory however long the run lasts.
    UntilRebalanced(Duration),
}

/// Tickets a session keeps outstanding in an [`Offers::UntilRebalanced`]
/// run — enough to keep the hot shard's queue deep between offers.
const UNTIL_IN_FLIGHT: usize = 4096;

/// Runs one configuration: `sessions` paced flooder threads offer work
/// items with the given shard distribution, as many as `offers` says, and
/// every ticket is awaited (no shedding — this bench measures scheduling,
/// not admission).  Returns the measured point.
pub fn sched_point(
    shards: usize,
    shape: LoadShape,
    workers: usize,
    rebalance: bool,
    offers: Offers,
) -> SchedPoint {
    let expr = pools_constraint(shards);
    let runtime = Arc::new(
        ManagerRuntime::with_options(&expr, options(workers, rebalance)).expect("sched runtime"),
    );
    let sessions = 2usize;
    let offered = Arc::new(AtomicU64::new(0));
    let committed = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..sessions {
            let runtime = Arc::clone(&runtime);
            let offered = Arc::clone(&offered);
            let committed = Arc::clone(&committed);
            scope.spawn(move || {
                let session = runtime.session(1 + worker as u64);
                let mut sampler = Sampler::new(shards, shape, 7 + worker as u64);
                // Disjoint case-id ranges per session keep every work item
                // fresh.
                let mut case = vec![worker as i64 * 1_000_000_000; shards];
                let mut tickets: VecDeque<Ticket<Completion>> = VecDeque::new();
                let executed = |t: Ticket<Completion>| {
                    u64::from(matches!(t.wait(), Completion::Executed { .. }))
                };
                let mut n = 0;
                // Submit in bursts with a yield between them so the pool
                // workers interleave with the flooders on small hosts.
                for i in 0u64.. {
                    let more = match offers {
                        Offers::Total(total) => i < total / sessions as u64,
                        Offers::UntilRebalanced(deadline) => {
                            !i.is_multiple_of(256)
                                || (runtime.sched_stats().rebalances == 0
                                    && t0.elapsed() < deadline)
                        }
                    };
                    if !more {
                        break;
                    }
                    let k = sampler.next();
                    case[k] += 1;
                    offered.fetch_add(1, Ordering::Relaxed);
                    if let Ok(ticket) = session.submit(&work(k, case[k])) {
                        tickets.push_back(ticket);
                    }
                    if matches!(offers, Offers::UntilRebalanced(_))
                        && tickets.len() > UNTIL_IN_FLIGHT
                    {
                        n += tickets.pop_front().map_or(0, executed);
                    }
                    if i.is_multiple_of(256) {
                        std::thread::yield_now();
                    }
                }
                n += tickets.into_iter().map(executed).sum::<u64>();
                committed.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    let elapsed = t0.elapsed();
    let sched = runtime.sched_stats();
    let point = SchedPoint {
        shards,
        shape,
        workers,
        rebalance,
        offered: offered.load(Ordering::Relaxed),
        committed: committed.load(Ordering::Relaxed),
        throughput: committed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64(),
        rebalances: sched.rebalances,
        isolated: sched.last_isolated,
        isolated_alone: sched.last_isolated.is_some_and(|isolated| {
            let on_worker = sched.placement[isolated];
            sched.placement.iter().enumerate().all(|(s, &w)| s == isolated || w != on_worker)
        }),
    };
    Arc::try_unwrap(runtime).expect("all sessions joined").shutdown().expect("sched shutdown");
    point
}

/// Runs the scheduling experiment grid: 16/64 shards × uniform/Zipf(1.1) ×
/// pool sizes {1, cores, shards}, with the Zipf pool-of-cores row doubled
/// into rebalance-off and rebalance-on variants.  Isolating a shard takes
/// at least two workers, so on a single-core host the rebalance pair runs
/// at pool size two — the smallest pool where placement is a real choice.
pub fn sched_experiment(total: u64) -> SchedReport {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut points = Vec::new();
    for shards in [16usize, 64] {
        for shape in [LoadShape::Uniform, LoadShape::Zipf] {
            let mut pools = vec![1, cores, shards];
            pools.dedup();
            for workers in pools {
                points.push(sched_point(shards, shape, workers, false, Offers::Total(total)));
            }
            if shape == LoadShape::Zipf {
                let workers = cores.max(2);
                points.push(sched_point(shards, shape, workers, true, Offers::Total(total)));
            }
        }
    }
    SchedReport { cores, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_and_thread_per_shard_commit_everything() {
        for workers in [1usize, 4] {
            let point = sched_point(4, LoadShape::Zipf, workers, false, Offers::Total(2_000));
            assert_eq!(point.offered, 2_000);
            assert_eq!(point.committed, 2_000, "lost work at pool size {workers}");
        }
    }

    #[test]
    fn rebalance_isolates_the_hot_shard_without_losing_work() {
        // Two workers, eight shards, heavy skew onto shard 0: the
        // rebalancer must move the cold co-residents off shard 0's worker
        // and no task may be lost in the handoff.  It acts only after three
        // sustained-hot 5 ms passes, so the skew is offered until it has
        // acted (or 10 s pass) rather than for a fixed count, which a fast
        // host finishes before the third pass.
        let until = Offers::UntilRebalanced(Duration::from_secs(10));
        let point = sched_point(8, LoadShape::Zipf, 2, true, until);
        assert_eq!(point.committed, point.offered, "rebalance lost tasks");
        assert!(
            point.rebalances > 0,
            "sustained Zipf skew over two workers must trigger the rebalancer: {point:?}"
        );
        assert!(point.isolated.is_some());
    }
}

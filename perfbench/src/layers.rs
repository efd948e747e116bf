//! Per-layer measurements outside the session path: the state engine
//! replaying the committed log, and the blocking manager on the same
//! schedule.

use crate::gen::{ClientGen, Kind, OfferGen, Window, Workload};
use crate::stats::ns32;
use ix_core::{Action, Expr, Partition};
use ix_manager::InteractionManager;
use ix_state::Engine;
use std::time::{Duration, Instant};

/// Actions replayed per engine: a fixed prefix, so the replay cost does
/// not depend on how much a run committed.
pub const REPLAY_STEPS: usize = 50_000;

/// ns per step of the state engine on the committed log.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// Shard engines configured like the runtime's (tier compiled first).
    pub step_ns: f64,
    /// The same with `tier_budget` 0 (copy-on-write walk only).
    pub cow_step_ns: f64,
    /// One engine for the whole expression.
    pub monolithic_step_ns: f64,
    /// Steps replayed per configuration.
    pub steps: u64,
}

/// Replays each shard's projection of `log` through a standalone engine
/// (and the whole log through a monolithic one).  Fails if the engine
/// refuses an action the runtime committed.
pub fn replay(
    expr: &Expr,
    partition: &Partition,
    log: &[Action],
    tier_budget: usize,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut tiered = Duration::ZERO;
    let mut cow = Duration::ZERO;
    for component in partition.components() {
        let projection: Vec<&Action> =
            log.iter().filter(|a| component.alphabet.covers(a)).take(REPLAY_STEPS).collect();
        for (budget, total) in [(tier_budget, &mut tiered), (0, &mut cow)] {
            let mut engine = Engine::new(&component.expr).map_err(|e| e.to_string())?;
            engine.set_tier_budget(budget);
            engine.set_tier_auto(false);
            if budget > 0 {
                engine.compile_tier();
            }
            *total += feed(&mut engine, projection.iter().copied())?;
        }
        out.steps += projection.len() as u64;
    }
    let mut mono = Engine::new(expr).map_err(|e| e.to_string())?;
    let prefix = &log[..log.len().min(REPLAY_STEPS)];
    let mono_time = feed(&mut mono, prefix.iter())?;
    let per = |d: Duration, n: usize| d.as_nanos() as f64 / n.max(1) as f64;
    out.step_ns = per(tiered, out.steps as usize);
    out.cow_step_ns = per(cow, out.steps as usize);
    out.monolithic_step_ns = per(mono_time, prefix.len());
    Ok(out)
}

fn feed<'a>(
    engine: &mut Engine,
    actions: impl Iterator<Item = &'a Action>,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    for action in actions {
        if !engine.try_execute(std::hint::black_box(action)) {
            return Err(format!("engine replay refused committed action {action}"));
        }
    }
    Ok(t0.elapsed())
}

/// The blocking manager on the workload's schedule.
#[derive(Clone, Debug, Default)]
pub struct Blocking {
    /// Committed actions per second.
    pub commit_per_s: f64,
    /// Duration of every `try_execute` call, ns.
    pub try_execute_ns: Vec<u32>,
}

/// Runs the workload's schedule (same seed) on the blocking sharded
/// manager for `secs`, with as many client threads as the runtime run.
pub fn blocking(
    workload: Workload,
    expr: &Expr,
    seed: u64,
    secs: Duration,
) -> Result<Blocking, String> {
    let manager = InteractionManager::with_protocol(expr, workload.options().variant)
        .map_err(|e| e.to_string())?;
    let end = Instant::now() + secs;
    let results: Vec<Result<(u64, Vec<u32>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients())
            .map(|client| {
                let manager = &manager;
                scope.spawn(move || blocking_client(manager, workload, seed, client, end))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("blocking client panicked")).collect()
    });
    let mut out = Blocking::default();
    let mut committed = 0;
    for r in results {
        let (c, mut times) = r?;
        committed += c;
        out.try_execute_ns.append(&mut times);
    }
    out.commit_per_s = committed as f64 / secs.as_secs_f64();
    Ok(out)
}

fn blocking_client(
    manager: &InteractionManager,
    workload: Workload,
    seed: u64,
    client: usize,
    end: Instant,
) -> Result<(u64, Vec<u32>), String> {
    let id = client as u64;
    let mut committed = 0u64;
    let mut times = Vec::new();
    let mut window = Window::default();
    let mut offers = (workload == Workload::Overload).then(|| OfferGen::new(seed));
    let mut gen = (workload != Workload::Overload).then(|| ClientGen::new(workload, seed, client));
    while Instant::now() < end {
        let ops: Vec<(Kind, Action)> = match (&mut offers, &mut gen) {
            (Some(offers), _) => (0..64).map(|_| offers.next_offer()).collect(),
            (None, Some(gen)) => {
                gen.next_window(&mut window);
                window.kinds.iter().copied().zip(window.actions.iter().cloned()).collect()
            }
            (None, None) => unreachable!("one generator per workload"),
        };
        for (kind, action) in ops {
            let ok = match kind {
                Kind::Local | Kind::Chain => {
                    let t0 = Instant::now();
                    let r = manager.try_execute(id, &action);
                    times.push(ns32(t0.elapsed().as_nanos()));
                    matches!(r, Ok(Some(_)))
                }
                Kind::AskConfirm => match manager.ask(id, &action) {
                    Ok(Some(reservation)) => manager.confirm(reservation).is_ok(),
                    _ => false,
                },
                Kind::Probe => manager.is_permitted(&action),
            };
            if !ok {
                return Err(format!("blocking manager refused scheduled {kind:?} {action}"));
            }
            committed += u64::from(kind.commits());
        }
    }
    Ok((committed, times))
}
